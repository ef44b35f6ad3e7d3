//! Store-side metric wiring: one [`MetricsRegistry`] per [`crate::Database`],
//! with every hot-path handle resolved once at construction.
//!
//! The handles live outside the database's `RwLock` so recording never
//! takes it; call sites gate on [`MetricsRegistry::enabled`] (one relaxed
//! load) before touching an `Instant`. See the `flor-obs` crate docs for
//! the full metric-name registry.

use flor_obs::{Counter, Histogram, MetricsRegistry};
use std::sync::Arc;

/// Pre-bound store metric handles, shared by the database handle and
/// every pinned snapshot (for query accounting).
#[derive(Debug)]
pub(crate) struct StoreMetrics {
    pub registry: MetricsRegistry,
    /// `store.commit.nanos` — whole commit latency.
    pub commit_nanos: Arc<Histogram>,
    /// `store.commit.rows` — rows made visible by commits.
    pub commit_rows: Arc<Counter>,
    /// `store.wal.append_nanos` — one sample per staged record (sealing
    /// its frame into the transaction's buffer), plus one per commit for
    /// sealing the marker and writing the batch.
    pub wal_append_nanos: Arc<Histogram>,
    /// `store.wal.fsync_nanos` — commit-marker fsync latency.
    pub wal_fsync_nanos: Arc<Histogram>,
    /// `store.segment.rows_coalesced` — rows re-copied by tail folding.
    pub rows_coalesced: Arc<Counter>,
    /// `store.checkpoint.nanos` — whole checkpoint duration.
    pub checkpoint_nanos: Arc<Histogram>,
    /// `store.compaction.nanos` — whole compaction-pass duration.
    pub compaction_nanos: Arc<Histogram>,
    /// `store.query.segments_scanned` — segments visited by queries.
    pub query_segments_scanned: Arc<Counter>,
    /// `store.query.segments_pruned` — segments skipped via zone maps.
    pub query_segments_pruned: Arc<Counter>,
    /// `store.query.rows_examined` — rows materialized and tested.
    pub query_rows_examined: Arc<Counter>,
    /// `store.query.rows_returned` — rows returned to callers.
    pub query_rows_returned: Arc<Counter>,
}

impl StoreMetrics {
    pub fn new(registry: MetricsRegistry) -> StoreMetrics {
        StoreMetrics {
            commit_nanos: registry.histogram("store.commit.nanos"),
            commit_rows: registry.counter("store.commit.rows"),
            wal_append_nanos: registry.histogram("store.wal.append_nanos"),
            wal_fsync_nanos: registry.histogram("store.wal.fsync_nanos"),
            rows_coalesced: registry.counter("store.segment.rows_coalesced"),
            checkpoint_nanos: registry.histogram("store.checkpoint.nanos"),
            compaction_nanos: registry.histogram("store.compaction.nanos"),
            query_segments_scanned: registry.counter("store.query.segments_scanned"),
            query_segments_pruned: registry.counter("store.query.segments_pruned"),
            query_rows_examined: registry.counter("store.query.rows_examined"),
            query_rows_returned: registry.counter("store.query.rows_returned"),
            registry,
        }
    }

    /// Publish one query's execution accounting (no-op when disabled).
    pub fn record_query(&self, ex: &crate::query::QueryExplain) {
        if !self.registry.enabled() {
            return;
        }
        self.query_segments_scanned.add(ex.segments_scanned as u64);
        self.query_segments_pruned.add(ex.segments_pruned as u64);
        self.query_rows_examined.add(ex.rows_examined as u64);
        self.query_rows_returned.add(ex.rows_returned as u64);
    }
}
