//! The database handle: transactions, the write path and maintenance
//! (checkpoint, compaction).
//!
//! # Concurrency model
//!
//! The paper's FlorDB is embedded in one driver process per run; we
//! mirror that with a single logical writer and any number of readers.
//! Readers only ever see committed rows ("visibility control", §2.1) —
//! but unlike the original lock-per-scan design, readers here never hold
//! a lock while scanning.
//!
//! Each table is a list of immutable, `Arc`-shared **sealed segments**
//! ([`crate::segment`] — columnar layout and the seal → coalesce →
//! compact → checkpoint lifecycle). [`Database::commit`] seals the staged
//! delta into a new segment and publishes a new table version — a fresh
//! `Arc` list; the rows themselves are never copied for publication and
//! never mutated after sealing. [`Database::pin`] hands out epoch-stamped
//! [`Snapshot`]s whose reads are lock-free ([`crate::snapshot`]).
//!
//! A commit becomes visible in exactly one place —
//! `DbInner::apply_committed` — whether it came from a local
//! [`Database::commit`] or from a follower applying the writer's log
//! ([`crate::recovery`], which also covers durability and reopening).

use crate::checkpoint;
use crate::codec::WalRecord;
use crate::compact::{self, CompactionPolicy, CompactionStats, CompactionTrigger};
use crate::metrics::StoreMetrics;
use crate::recovery::{follower_bootstrap, RecoveryInfo, Replay, Replayed, TailState};
use crate::schema::TableSchema;
use crate::segment::TableVersion;
use crate::snapshot::Snapshot;
use crate::wal::{self, Wal, WalError};
use flor_df::{DataFrame, Value};
use flor_obs::{MetricsRegistry, Span};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Store-level errors.
#[derive(Debug)]
pub enum StoreError {
    /// Unknown table name.
    NoSuchTable(String),
    /// Row failed schema validation.
    Invalid(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// WAL or checkpoint decode failure on recovery.
    Codec(crate::codec::CodecError),
    /// Dataframe construction failure.
    Df(flor_df::DfError),
    /// Mutation attempted through a read-only handle (a follower opened
    /// with [`Database::open_follower`]). Followers apply the writer's
    /// WAL; they never originate writes.
    ReadOnly,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            StoreError::Invalid(m) => write!(f, "invalid row: {m}"),
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Codec(e) => write!(f, "wal codec error: {e}"),
            StoreError::Df(e) => write!(f, "dataframe error: {e}"),
            StoreError::ReadOnly => write!(f, "read-only handle: followers cannot write"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
impl From<flor_df::DfError> for StoreError {
    fn from(e: flor_df::DfError) -> Self {
        StoreError::Df(e)
    }
}
impl From<WalError> for StoreError {
    fn from(e: WalError) -> Self {
        match e {
            WalError::Io(e) => StoreError::Io(e),
            WalError::Codec(e) => StoreError::Codec(e),
        }
    }
}

/// Result alias for store operations.
pub type StoreResult<T> = Result<T, StoreError>;

/// Summary of one completed [`Database::checkpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Epoch the sidecar snapshot reflects.
    pub epoch: u64,
    /// Highest committed transaction the sidecar covers.
    pub max_txn: u64,
    /// Rows serialized.
    pub rows: usize,
    /// Sidecar size in bytes (0 for in-memory databases, which compact
    /// the log without writing a sidecar).
    pub sidecar_bytes: u64,
    /// WAL size before truncation.
    pub wal_bytes_before: u64,
    /// WAL size after truncation (the uncovered tail).
    pub wal_bytes_after: u64,
}

pub(crate) struct DbInner {
    /// The published table versions. Swapped wholesale at commit /
    /// `ensure_table`, so [`Database::pin`] is one `Arc` clone.
    pub(crate) tables: Arc<HashMap<String, Arc<TableVersion>>>,
    wal: Wal,
    pub(crate) next_txn: u64,
    open_txn: Option<u64>,
    staged: Vec<(String, Vec<Value>)>,
    /// Count of applied commits; the staleness watermark for
    /// materialized views.
    pub(crate) epoch: u64,
    /// Highest committed transaction id — the coverage bound a checkpoint
    /// records (an open transaction always has a higher id).
    pub(crate) last_committed_txn: u64,
    /// WAL-bytes threshold past which a commit spawns a background
    /// checkpoint (None = disabled, the store default; the kernel turns
    /// it on).
    auto_checkpoint: Option<u64>,
    /// Commit-layer compaction trigger (None = disabled, the store
    /// default; the kernel turns it on). Every `check_every_rows`
    /// appended rows, a background thread evaluates dead-row ratios and
    /// compacts tables past the policy thresholds.
    auto_compact: Option<CompactionTrigger>,
    /// Rows appended since the auto-compact trigger last fired.
    rows_since_compact_check: u64,
    /// Compaction passes completed by this handle.
    compactions: u64,
    /// Superseded rows dropped by compaction so far.
    rows_dropped: u64,
    /// Rows re-copied by commit-time tail coalescing so far — the
    /// amortization cost `with_appended` pays (a micro-bench asserts it
    /// stays O(N log N) across N tiny commits).
    rows_coalesced: u64,
    /// Checkpoints taken by this handle.
    checkpoints: u64,
    /// Epoch of the newest completed checkpoint.
    pub(crate) last_checkpoint_epoch: u64,
    /// What the last `open` cost (checkpoint rows vs WAL replay).
    pub(crate) recovery: RecoveryInfo,
    /// Whether this handle refuses mutations ([`Database::open_follower`]).
    read_only: bool,
    /// Follower tail cursor; `Some` exactly when `read_only` came from
    /// `open_follower`.
    pub(crate) tail: Option<TailState>,
}

/// An embedded relational database holding the FlorDB context tables.
///
/// Cloning shares the same underlying state (cheap `Arc` clone).
#[derive(Clone)]
pub struct Database {
    pub(crate) inner: Arc<RwLock<DbInner>>,
    /// Serializes whole checkpoints — and compactions, which share this
    /// mutex so a compaction's pointer swap never interleaves with a
    /// checkpoint's pin/serialize/truncate sequence. Two concurrent
    /// checkpoints could otherwise interleave so that a *stale* sidecar
    /// (pinned earlier) overwrites a newer one after the newer run
    /// already truncated the WAL — permanently losing the transactions in
    /// between.
    ckpt_serial: Arc<parking_lot::Mutex<()>>,
    /// Single-flight guard for the auto-checkpoint thread.
    auto_ckpt_running: Arc<std::sync::atomic::AtomicBool>,
    /// Single-flight guard for the auto-compaction thread.
    auto_compact_running: Arc<std::sync::atomic::AtomicBool>,
    /// Pre-bound metric handles (one registry per database). Lives
    /// outside the `RwLock`: recording never contends with the writer.
    pub(crate) metrics: Arc<StoreMetrics>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.read();
        f.debug_struct("Database")
            .field("tables", &g.tables.len())
            .field("epoch", &g.epoch)
            .finish_non_exhaustive()
    }
}

/// Statistics snapshot for monitoring and benchmarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbStats {
    /// Committed rows per table.
    pub rows_per_table: Vec<(String, usize)>,
    /// Total committed rows.
    pub total_rows: usize,
    /// Sealed segments across all tables.
    pub segments: usize,
    /// Records appended to the WAL so far.
    pub wal_records: u64,
    /// Rows staged in the open transaction.
    pub staged_rows: usize,
    /// Commits applied so far: the staleness watermark snapshots and
    /// materialized views are stamped with.
    pub wal_epoch: u64,
    /// Bytes currently in the WAL (including any recovered prefix for
    /// file-backed logs) — the physical log offset. Shrinks when a
    /// checkpoint truncates the log.
    pub wal_offset_bytes: u64,
    /// Checkpoints completed by this handle.
    pub checkpoints: u64,
    /// Epoch of the newest completed checkpoint (0 if none).
    pub last_checkpoint_epoch: u64,
    /// Compaction passes completed by this handle.
    pub compactions: u64,
    /// Superseded rows dropped by compaction so far.
    pub rows_dropped: u64,
    /// Rows re-copied by commit-time tail coalescing so far (the
    /// amortized cost of keeping segment counts logarithmic).
    pub rows_coalesced: u64,
}

impl Database {
    /// In-memory database with the given schemas.
    pub fn in_memory(schemas: Vec<TableSchema>) -> Database {
        let (state, _) = Replay::new(arcs(schemas), None).finish();
        Database::assemble(state, Wal::in_memory(), None)
    }

    /// File-backed database: loads the checkpoint sidecar if one exists,
    /// then replays the WAL tail (committed transactions only) — O(live
    /// data), not O(history) — and then accepts new appends.
    pub fn open(path: &Path, schemas: Vec<TableSchema>) -> StoreResult<Database> {
        let mut wal = Wal::open(path)?;
        let mut replay = Replay::new(arcs(schemas), checkpoint::load_sidecar(path)?);
        wal.recover(|rec| replay.push(rec))?;
        // The fold is dropped with its uncommitted inserts: a crashed
        // process's open transaction never commits.
        let (state, _) = replay.finish();
        Ok(Database::assemble(state, wal, None))
    }

    /// Open a **read-only follower** of the database whose WAL lives at
    /// `path` — typically one a *different process* is actively writing.
    /// Bootstraps from the checkpoint sidecar plus the committed WAL
    /// tail, exactly like [`Database::open`], but:
    ///
    /// - every mutating entry point returns [`StoreError::ReadOnly`];
    /// - no background thread is ever spawned (auto-checkpoint and
    ///   auto-compaction stay permanently disabled);
    /// - the handle keeps a byte cursor into the live log, and
    ///   [`Database::poll_tail`] applies newly committed transactions
    ///   incrementally — snapshots and queries then behave exactly as
    ///   on the writer, with
    ///   staleness bounded by the caller's poll interval.
    ///
    /// The follower holds no open handle on the writer's files: each
    /// poll re-opens the log read-only, so checkpoint truncation by the
    /// writer is always detected (via the sidecar identity) and answered
    /// with a clean re-bootstrap, never a torn read.
    pub fn open_follower(path: &Path, schemas: Vec<TableSchema>) -> StoreResult<Database> {
        let (state, tail) = follower_bootstrap(path, arcs(schemas))?;
        // No append handle on the writer's log: the follower reads it per
        // poll and never writes.
        Ok(Database::assemble(state, Wal::in_memory(), Some(tail)))
    }

    /// The one constructor: a handle over replayed state. `tail` is
    /// `Some` exactly for a read-only follower.
    fn assemble(state: Replayed, wal: Wal, tail: Option<TailState>) -> Database {
        let metrics = Arc::new(StoreMetrics::new(MetricsRegistry::new()));
        Database {
            ckpt_serial: Arc::new(parking_lot::Mutex::new(())),
            auto_ckpt_running: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            auto_compact_running: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            inner: Arc::new(RwLock::new(DbInner {
                tables: Arc::new(state.tables),
                wal,
                // A follower never allocates transaction ids; the counter
                // is kept past everything seen all the same.
                next_txn: state.max_txn + 1,
                open_txn: None,
                staged: Vec::new(),
                epoch: state.epoch,
                last_committed_txn: state.max_txn,
                auto_checkpoint: None,
                auto_compact: None,
                rows_since_compact_check: 0,
                compactions: 0,
                rows_dropped: 0,
                rows_coalesced: 0,
                checkpoints: 0,
                last_checkpoint_epoch: state.checkpoint_epoch,
                recovery: state.recovery,
                read_only: tail.is_some(),
                tail,
            })),
            metrics,
        }
    }

    /// Whether this handle is a read-only follower: mutations return
    /// [`StoreError::ReadOnly`] and state advances only via
    /// [`Database::poll_tail`].
    pub fn is_read_only(&self) -> bool {
        self.inner.read().read_only
    }

    /// The database's [`MetricsRegistry`]: live counters, latency
    /// histograms and the event ring for every layer wired through this
    /// handle (see the `flor-obs` crate docs for the name registry).
    /// Snapshot it with [`MetricsRegistry::snapshot`]; disable recording
    /// entirely with [`MetricsRegistry::set_enabled`].
    pub fn metrics_registry(&self) -> MetricsRegistry {
        self.metrics.registry.clone()
    }

    /// Register an additional table (no-op if it already exists).
    pub fn ensure_table(&self, schema: TableSchema) {
        let mut g = self.inner.write();
        if g.tables.contains_key(&schema.name) {
            return;
        }
        let tables = Arc::make_mut(&mut g.tables);
        let schema = Arc::new(schema);
        tables.insert(schema.name.clone(), Arc::new(TableVersion::empty(schema)));
    }

    /// Table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.pin().table_names()
    }

    /// Pin the current committed state: an epoch-stamped [`Snapshot`]
    /// sharing the sealed segments by `Arc`. O(1) — the lock is held for
    /// one pointer clone — and every read against the snapshot afterwards
    /// is lock-free.
    pub fn pin(&self) -> Snapshot {
        self.inner.read().snapshot(&self.metrics)
    }

    /// Stage a row into the open transaction (starting one if needed) and
    /// append it to the WAL. Invisible to readers until [`Database::commit`].
    pub fn insert(&self, table: &str, row: Vec<Value>) -> StoreResult<()> {
        let mut g = self.inner.write();
        if g.read_only {
            return Err(StoreError::ReadOnly);
        }
        let schema = Arc::clone(
            &g.tables
                .get(table)
                .ok_or_else(|| StoreError::NoSuchTable(table.to_string()))?
                .schema,
        );
        schema.validate(&row).map_err(StoreError::Invalid)?;
        let txn = match g.open_txn {
            Some(t) => t,
            None => {
                let t = g.next_txn;
                g.next_txn += 1;
                g.open_txn = Some(t);
                t
            }
        };
        {
            let m = &self.metrics;
            let _append = Span::enter(&m.registry, &m.wal_append_nanos);
            // audit: allow(hold-across-io) — WAL append under the commit
            // lock is the durability contract: staged rows and their log
            // records must advance in lockstep or recovery diverges.
            g.wal.append(&WalRecord::Insert {
                txn,
                table: table.to_string(),
                row: row.clone(),
            })?;
        }
        g.staged.push((table.to_string(), row));
        Ok(())
    }

    /// Commit the open transaction: write the commit marker, fsync, seal
    /// the staged rows into new table segments, and publish the new table
    /// versions. Returns the number of rows made visible.
    ///
    /// Publication is a pointer swap: snapshots pinned before the commit
    /// keep reading the old segment lists untouched.
    pub fn commit(&self) -> StoreResult<usize> {
        let mut g = self.inner.write();
        if g.read_only {
            return Err(StoreError::ReadOnly);
        }
        let Some(txn) = g.open_txn.take() else {
            return Ok(0);
        };
        let m = Arc::clone(&self.metrics);
        let commit_span = Span::enter(&m.registry, &m.commit_nanos);
        {
            let _append = Span::enter(&m.registry, &m.wal_append_nanos);
            // audit: allow(hold-across-io) — the commit marker must hit
            // the log before the version pointer swap becomes visible;
            // releasing the commit lock in between would let a second
            // writer interleave its records into our transaction.
            g.wal.append(&WalRecord::Commit { txn })?;
        }
        {
            let _fsync = Span::enter(&m.registry, &m.wal_fsync_nanos);
            // audit: allow(hold-across-io) — fsync-before-publish under
            // the commit lock is the group-commit durability point; see
            // ROADMAP "commit protocol". Readers never take this lock.
            g.wal.sync()?;
        }
        let staged = std::mem::take(&mut g.staged);
        let n = staged.len();
        let (_, coalesced) = g.apply_committed(txn, staged);
        if m.registry.enabled() {
            m.commit_rows.add(n as u64);
            if coalesced > 0 {
                m.rows_coalesced.add(coalesced);
            }
        }
        // The commit latency sample ends here: trigger evaluation and
        // background-thread spawning below are not commit work.
        drop(commit_span);
        // Auto-checkpoint and auto-compaction live here, at the store
        // commit layer, so every writer trips them — including background
        // jobs, whose per-unit transactions never pass through the
        // kernel's commit API.
        let trigger = g
            .auto_checkpoint
            .is_some_and(|threshold| g.wal.len_bytes() >= threshold);
        g.rows_since_compact_check += n as u64;
        let compact_policy = match &g.auto_compact {
            Some(t) if g.rows_since_compact_check >= t.check_every_rows => Some(t.policy.clone()),
            _ => None,
        };
        if compact_policy.is_some() {
            g.rows_since_compact_check = 0;
        }
        drop(g);
        if trigger
            && !self
                .auto_ckpt_running
                // audit: ordering — single-flight try-lock on a cold
                // path (once per threshold crossing); SeqCst keeps the
                // claim/release pair trivially correct.
                .swap(true, std::sync::atomic::Ordering::SeqCst)
        {
            let db = self.clone();
            std::thread::spawn(move || {
                let _ = db.checkpoint();
                db.auto_ckpt_running
                    // audit: ordering — releases the single-flight slot;
                    // the checkpoint's own locks did the real publishing.
                    .store(false, std::sync::atomic::Ordering::SeqCst);
            });
        }
        if let Some(policy) = compact_policy {
            if !self
                .auto_compact_running
                // audit: ordering — same single-flight claim as the
                // auto-checkpoint latch above.
                .swap(true, std::sync::atomic::Ordering::SeqCst)
            {
                let db = self.clone();
                std::thread::spawn(move || {
                    let _ = db.compact_with(&policy);
                    db.auto_compact_running
                        // audit: ordering — slot release; compaction's
                        // own locks published its results.
                        .store(false, std::sync::atomic::Ordering::SeqCst);
                });
            }
        }
        Ok(n)
    }

    /// Enable (or disable, with `None`) auto-checkpointing: any commit
    /// that leaves the WAL at or past `threshold` bytes spawns one
    /// background [`Database::checkpoint`] (single-flight; checkpoints
    /// are serialized regardless).
    pub fn set_auto_checkpoint(&self, threshold: Option<u64>) {
        let mut g = self.inner.write();
        if g.read_only {
            // Followers never commit, so the trigger could never fire —
            // keep it structurally disabled rather than latently armed.
            return;
        }
        g.auto_checkpoint = threshold;
    }

    /// Enable (or disable, with `None`) commit-layer auto-compaction:
    /// every `trigger.check_every_rows` appended rows, one background
    /// [`Database::compact_with`] runs under `trigger.policy`
    /// (single-flight; compactions are serialized against checkpoints
    /// regardless). The commit path itself only bumps a counter — the
    /// dead-row analysis happens on the background thread.
    pub fn set_auto_compact(&self, trigger: Option<CompactionTrigger>) {
        let mut g = self.inner.write();
        if g.read_only {
            return;
        }
        g.auto_compact = trigger;
    }

    /// Compact every table under the default [`CompactionPolicy`]: merge
    /// runs of cold sealed segments and drop every row superseded under
    /// the table's declared [`crate::schema::LatestWins`] policy.
    pub fn compact(&self) -> StoreResult<CompactionStats> {
        self.compact_with(&CompactionPolicy::default())
    }

    /// Compact every table under `policy`. Runs in three phases, like a
    /// checkpoint: pin the current table versions (O(1) under the read
    /// lock), plan and build replacement segments with **no lock held**,
    /// then publish each table's successor version by pointer swap under
    /// the write lock. The swap validates — by pointer identity — that
    /// the planned segments are still the table's segments; a table whose
    /// tail a concurrent commit folded meanwhile is re-planned (bounded
    /// retries), so the writer is never blocked by the rewrite work.
    ///
    /// Snapshots pinned before the swap keep re-scanning their original
    /// segments byte-identically; the epoch does not move and no row is
    /// renumbered — for every reader that folds
    /// latest-wins tables by their declared policy (all of them do),
    /// compaction is invisible except for speed.
    pub fn compact_with(&self, policy: &CompactionPolicy) -> StoreResult<CompactionStats> {
        if self.inner.read().read_only {
            // A follower's segments are replaced wholesale by tail
            // application and rebootstraps; compacting them here would
            // race poll_tail for no benefit.
            return Err(StoreError::ReadOnly);
        }
        // Serialized against checkpoints (and other compactions): the
        // shared mutex means a checkpoint observes either the fully
        // pre-compaction or fully post-compaction state.
        let _serial = self.ckpt_serial.lock();
        let _pass = Span::enter(&self.metrics.registry, &self.metrics.compaction_nanos);
        let mut stats = CompactionStats {
            segments_before: {
                let g = self.inner.read();
                g.tables.values().map(|t| t.segments.len()).sum()
            },
            ..CompactionStats::default()
        };
        // `None` = every table is still a candidate; after a raced swap,
        // only the raced tables are re-planned.
        let mut remaining: Option<Vec<String>> = None;
        for _attempt in 0..3 {
            let pinned = Arc::clone(&self.inner.read().tables);
            let mut plans = Vec::new();
            for (name, t) in pinned.iter() {
                if remaining.as_ref().is_some_and(|r| !r.contains(name)) {
                    continue;
                }
                if let Some(plan) = compact::plan_table(t, policy) {
                    plans.push((name.clone(), plan));
                }
            }
            if plans.is_empty() {
                break;
            }
            let mut raced = Vec::new();
            {
                let mut g = self.inner.write();
                let tables = Arc::make_mut(&mut g.tables);
                for (name, plan) in plans {
                    let Some(cur) = tables.get_mut(&name) else {
                        continue;
                    };
                    let stable = cur.segments.len() == plan.source.len()
                        && plan
                            .source
                            .iter()
                            .zip(cur.segments.iter())
                            .all(|(a, b)| Arc::ptr_eq(a, b));
                    if !stable {
                        raced.push(name);
                        continue;
                    }
                    let total_rows = plan.new_segments.iter().map(|s| s.len()).sum();
                    *cur = Arc::new(TableVersion {
                        schema: Arc::clone(&cur.schema),
                        segments: plan.new_segments,
                        total_rows,
                        next_rid: cur.next_rid,
                    });
                    stats.tables_compacted += 1;
                    stats.runs_merged += plan.runs_merged;
                    stats.rows_dropped += plan.rows_dropped;
                    stats.rows_rewritten += plan.rows_rewritten;
                }
            }
            if raced.is_empty() {
                break;
            }
            remaining = Some(raced);
        }
        let mut g = self.inner.write();
        stats.segments_after = g.tables.values().map(|t| t.segments.len()).sum();
        if stats.tables_compacted > 0 {
            g.compactions += 1;
            g.rows_dropped += stats.rows_dropped as u64;
        }
        drop(g);
        if stats.tables_compacted > 0 {
            self.metrics.registry.event(
                "compaction",
                format!(
                    "tables={} rows_dropped={} segments {}->{}",
                    stats.tables_compacted,
                    stats.rows_dropped,
                    stats.segments_before,
                    stats.segments_after
                ),
            );
        }
        Ok(stats)
    }

    /// How many of `table`'s rows are dead under its declared
    /// [`crate::schema::LatestWins`] policy — rows a compaction would
    /// drop (0 for tables without a policy). Observability for trigger
    /// tuning and tests; runs the same fold the compaction planner uses,
    /// against a pinned snapshot.
    pub fn dead_rows(&self, table: &str) -> StoreResult<usize> {
        let snap = self.pin();
        let t = snap.table(table)?;
        Ok(compact::dead_rows(t))
    }

    /// Current epoch: the number of commits applied so far.
    pub fn epoch(&self) -> u64 {
        self.inner.read().epoch
    }

    /// Discard the open transaction's staged rows. (The WAL keeps the
    /// orphaned inserts, but without a commit marker recovery ignores
    /// them — same effect as a crash.)
    pub fn rollback(&self) -> usize {
        let mut g = self.inner.write();
        g.open_txn = None;
        std::mem::take(&mut g.staged).len()
    }

    /// Number of committed rows in a table.
    pub fn row_count(&self, table: &str) -> StoreResult<usize> {
        self.pin().row_count(table)
    }

    /// Full scan of committed rows as a [`DataFrame`] (pins internally;
    /// the scan itself holds no lock).
    pub fn scan(&self, table: &str) -> StoreResult<DataFrame> {
        self.pin().scan(table)
    }

    /// Point lookup: rows where `col == value`, in commit order (see
    /// [`Snapshot::lookup`]).
    pub fn lookup(&self, table: &str, col: &str, value: &Value) -> StoreResult<DataFrame> {
        self.pin().lookup(table, col, value)
    }

    /// Checkpoint: serialize the committed state to the `<wal>.ckpt`
    /// sidecar and truncate the WAL to the uncovered tail. Reads and the
    /// writer keep flowing: the serialization runs against a pinned
    /// snapshot with no lock held; only the final WAL truncation takes
    /// the write lock briefly.
    ///
    /// In-memory databases compact the log in place (no sidecar).
    pub fn checkpoint(&self) -> StoreResult<CheckpointStats> {
        self.checkpoint_inner(true)
    }

    /// Failpoint instrumentation for crash tests: run only the
    /// sidecar-write phase of [`Database::checkpoint`], skipping the WAL
    /// truncation — the on-disk state a crash between the two steps
    /// leaves behind. Recovery must (and does) converge regardless.
    pub fn checkpoint_without_truncate(&self) -> StoreResult<CheckpointStats> {
        self.checkpoint_inner(false)
    }

    fn checkpoint_inner(&self, truncate: bool) -> StoreResult<CheckpointStats> {
        if self.inner.read().read_only {
            // Checkpointing is the writer's job: a follower writing the
            // shared sidecar would corrupt the very artifact it tails.
            return Err(StoreError::ReadOnly);
        }
        // Whole-checkpoint serialization: see the `ckpt_serial` field.
        let _serial = self.ckpt_serial.lock();
        let _pass = Span::enter(&self.metrics.registry, &self.metrics.checkpoint_nanos);
        // Phase 1: pin the committed state (O(1) under the read lock).
        // The read lock excludes the writer, so `wal_bytes_before` is a
        // frame boundary: every frame below it is complete.
        let (snap, max_txn, wal_path, wal_bytes_before) = {
            let g = self.inner.read();
            (
                g.snapshot(&self.metrics),
                g.last_committed_txn,
                g.wal.path().map(Path::to_path_buf),
                g.wal.len_bytes(),
            )
        };
        // Phase 2: serialize and persist the sidecar (nothing is written
        // for an in-memory log) — no lock held, so neither readers nor
        // the writer wait on the serialization.
        let data = snap.to_checkpoint(max_txn);
        let rows = data.rows();
        let sidecar_bytes = checkpoint::write_sidecar(wal_path.as_deref(), &data)?;
        // Phase 3: truncate the WAL to the records the sidecar does not
        // cover (later commits and any open transaction's staged
        // inserts). For file logs the bulk of the tail is decoded,
        // re-encoded and fsynced with NO lock held (`stage_tail`); the
        // write lock covers only the records that committed meanwhile
        // plus the rename — so the writer never stalls on tail-sized
        // I/O.
        let wal_bytes_after = if truncate {
            let stage = wal::stage_tail(wal_path.as_deref(), wal_bytes_before, max_txn)?;
            let mut g = self.inner.write();
            // audit: allow(hold-across-io) — the truncation rename plus
            // the post-boundary delta is the only I/O under the write
            // lock; the tail bulk was staged lock-free above (an
            // in-memory log's "tail read" is a Vec scan, not file I/O).
            // Shrinking this hold further would race new commits into
            // the old log.
            g.wal.finish_rewrite(stage, wal_bytes_before, max_txn)?;
            g.checkpoints += 1;
            g.last_checkpoint_epoch = data.epoch;
            g.wal.len_bytes()
        } else {
            wal_bytes_before
        };
        self.metrics.registry.event(
            "checkpoint",
            format!(
                "epoch={} rows={rows} wal {wal_bytes_before}->{wal_bytes_after} bytes",
                data.epoch
            ),
        );
        Ok(CheckpointStats {
            epoch: data.epoch,
            max_txn,
            rows,
            sidecar_bytes,
            wal_bytes_before,
            wal_bytes_after,
        })
    }

    /// Current WAL size in bytes — the auto-checkpoint trigger input
    /// (shrinks back to the tail size when a checkpoint completes).
    pub fn wal_bytes(&self) -> u64 {
        self.inner.read().wal.len_bytes()
    }

    /// What the most recent [`Database::open`] cost: checkpoint rows
    /// loaded versus WAL records replayed.
    pub fn recovery_info(&self) -> RecoveryInfo {
        self.inner.read().recovery.clone()
    }

    /// Statistics snapshot. Sampled under one read-lock acquisition, so
    /// every field reflects the same committed state.
    pub fn stats(&self) -> DbStats {
        self.inner.read().stats()
    }
}

/// The schemas as the shared handles table versions hold.
fn arcs(schemas: Vec<TableSchema>) -> Vec<Arc<TableSchema>> {
    schemas.into_iter().map(Arc::new).collect()
}

impl DbInner {
    /// The one [`Snapshot`] construction site: the state this guard
    /// observes, pinned.
    fn snapshot(&self, metrics: &Arc<StoreMetrics>) -> Snapshot {
        Snapshot {
            epoch: self.epoch,
            tables: Arc::clone(&self.tables),
            metrics: Arc::clone(metrics),
        }
    }

    /// The one place a committed transaction becomes visible, for a
    /// local [`Database::commit`] and a follower's
    /// [`Database::poll_tail`] alike: group `rows` per table (insertion
    /// order kept), publish each table's successor version and bump the
    /// epoch. Publication is a pointer swap: pinned snapshots keep their
    /// segment lists, and the rows move into their segments uncopied.
    /// Returns the rows applied (rows of tables this handle does not know
    /// are skipped, like recovery) and the rows tail coalescing re-copied.
    pub(crate) fn apply_committed(
        &mut self,
        txn: u64,
        rows: Vec<(String, Vec<Value>)>,
    ) -> (usize, u64) {
        let mut per_table: Vec<(String, Vec<Vec<Value>>)> = Vec::new();
        for (tname, row) in rows {
            match per_table.iter_mut().find(|(t, _)| *t == tname) {
                Some((_, rows)) => rows.push(row),
                None => per_table.push((tname, vec![row])),
            }
        }
        let tables = Arc::make_mut(&mut self.tables);
        let (mut applied, mut coalesced) = (0, 0);
        for (tname, rows) in per_table {
            if let Some(t) = tables.get_mut(&tname) {
                applied += rows.len();
                let (next, copied) = t.with_appended(rows);
                *t = Arc::new(next);
                coalesced += copied;
            }
        }
        self.rows_coalesced += coalesced;
        self.epoch += 1;
        self.last_committed_txn = txn;
        (applied, coalesced)
    }

    /// The [`DbStats`] sample for the state this guard observes. All
    /// fields come from one lock acquisition — a concurrent commit can
    /// never make `staged_rows`/`rows_coalesced` disagree with the table
    /// counts.
    fn stats(&self) -> DbStats {
        let mut rows_per_table: Vec<(String, usize)> = self
            .tables
            .iter()
            .map(|(n, t)| (n.clone(), t.total_rows))
            .collect();
        rows_per_table.sort();
        DbStats {
            total_rows: rows_per_table.iter().map(|(_, n)| n).sum(),
            segments: self.tables.values().map(|t| t.segments.len()).sum(),
            rows_per_table,
            wal_records: self.wal.records_written,
            staged_rows: self.staged.len(),
            wal_epoch: self.epoch,
            wal_offset_bytes: self.wal.len_bytes(),
            checkpoints: self.checkpoints,
            last_checkpoint_epoch: self.last_checkpoint_epoch,
            compactions: self.compactions,
            rows_dropped: self.rows_dropped,
            rows_coalesced: self.rows_coalesced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::flor_schema;
    use crate::testing::tiny_schema;

    #[test]
    fn insert_invisible_until_commit() {
        let db = Database::in_memory(tiny_schema());
        db.insert("t", vec!["a".into(), 1.into()]).unwrap();
        assert_eq!(db.row_count("t").unwrap(), 0);
        assert_eq!(db.stats().staged_rows, 1);
        assert_eq!(db.commit().unwrap(), 1);
        assert_eq!(db.row_count("t").unwrap(), 1);
    }

    #[test]
    fn rollback_discards() {
        let db = Database::in_memory(tiny_schema());
        db.insert("t", vec!["a".into(), 1.into()]).unwrap();
        assert_eq!(db.rollback(), 1);
        assert_eq!(db.commit().unwrap(), 0);
        assert_eq!(db.row_count("t").unwrap(), 0);
    }

    #[test]
    fn schema_validation_enforced() {
        let db = Database::in_memory(tiny_schema());
        assert!(matches!(
            db.insert("t", vec![1.into(), 1.into()]),
            Err(StoreError::Invalid(_))
        ));
        assert!(matches!(
            db.insert("nope", vec![]),
            Err(StoreError::NoSuchTable(_))
        ));
    }

    #[test]
    fn flor_schema_database_accepts_log_rows() {
        let db = Database::in_memory(flor_schema());
        db.insert(
            "logs",
            vec![
                "pdf_parser".into(),
                1.into(),
                "train.fl".into(),
                100.into(),
                "loss".into(),
                "0.5".into(),
                3.into(),
            ],
        )
        .unwrap();
        db.commit().unwrap();
        assert_eq!(db.row_count("logs").unwrap(), 1);
    }

    #[test]
    fn in_memory_checkpoint_compacts_the_log() {
        let db = Database::in_memory(tiny_schema());
        for i in 0..10 {
            db.insert("t", vec![format!("k{i}").into(), i.into()])
                .unwrap();
            db.commit().unwrap();
        }
        let before = db.wal_bytes();
        let stats = db.checkpoint().unwrap();
        assert_eq!(stats.sidecar_bytes, 0);
        assert_eq!(stats.wal_bytes_before, before);
        assert_eq!(db.wal_bytes(), 0);
        assert_eq!(db.row_count("t").unwrap(), 10, "tables untouched");
    }

    #[test]
    fn clone_shares_state() {
        let db = Database::in_memory(tiny_schema());
        let db2 = db.clone();
        db.insert("t", vec!["a".into(), 1.into()]).unwrap();
        db.commit().unwrap();
        assert_eq!(db2.row_count("t").unwrap(), 1);
    }

    #[test]
    fn ensure_table_idempotent() {
        let db = Database::in_memory(vec![]);
        db.ensure_table(tiny_schema().pop().unwrap());
        db.ensure_table(tiny_schema().pop().unwrap());
        assert_eq!(db.table_names(), vec!["t"]);
    }

    #[test]
    fn stats_reflect_state() {
        let db = Database::in_memory(tiny_schema());
        db.insert("t", vec!["a".into(), 1.into()]).unwrap();
        db.commit().unwrap();
        let s = db.stats();
        assert_eq!(s.total_rows, 1);
        assert_eq!(s.wal_records, 2); // insert + commit marker
        assert_eq!(s.staged_rows, 0);
        assert_eq!(s.wal_epoch, 1);
        assert_eq!(s.segments, 1);
        assert!(s.wal_offset_bytes > 0);
        assert_eq!(s.checkpoints, 0);
    }

    #[test]
    fn since_returns_committed_rows_only() {
        let db = Database::in_memory(tiny_schema());
        db.insert("t", vec!["a".into(), 1.into()]).unwrap();
        let (staged, next) = db.pin().since("t", 0).unwrap();
        assert_eq!((staged.n_rows(), next), (0, 0), "staged rows must not leak");
        db.insert("t", vec!["b".into(), 2.into()]).unwrap();
        db.commit().unwrap();
        let (rows, next) = db.pin().since("t", 0).unwrap();
        assert_eq!(next, 2);
        assert_eq!(rows.column_names(), vec!["k", "v"]);
        assert_eq!(rows.get(0, "k"), Some(&Value::from("a")));
        assert_eq!(rows.get(1, "k"), Some(&Value::from("b")));
        let (rest, again) = db.pin().since("t", next).unwrap();
        assert_eq!((rest.n_rows(), again), (0, 2));
    }

    #[test]
    fn since_skips_rolled_back_rows() {
        let db = Database::in_memory(tiny_schema());
        db.insert("t", vec!["gone".into(), 1.into()]).unwrap();
        db.rollback();
        db.insert("t", vec!["kept".into(), 2.into()]).unwrap();
        db.commit().unwrap();
        let (rows, next) = db.pin().since("t", 0).unwrap();
        assert_eq!((rows.n_rows(), next), (1, 1));
        assert_eq!(rows.get(0, "k"), Some(&Value::from("kept")));
    }
}
