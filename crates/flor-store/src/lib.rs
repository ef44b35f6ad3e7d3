//! # flor-store — the embedded relational engine under FlorDB
//!
//! The FlorDB paper (CIDR 2025) backs its context framework with a
//! relational data model (Fig. 1): `logs`, `loops`, `ts2vid`, `git`,
//! `obj_store` and `build_deps`. This crate is that storage layer, built
//! from scratch:
//!
//! * typed [`schema::TableSchema`]s, including [`schema::flor_schema`] —
//!   the paper's six tables verbatim;
//! * an append-only, CRC-framed [`wal`] with *streaming* crash recovery
//!   that honours transaction commit markers (the semantics of
//!   `flor.commit()`, §2.1: staged rows are invisible until the marker
//!   lands) — one frame reader ([`wal::read_frames`]) and one
//!   commit-marker fold ([`wal::TxnFold`]) serve the leader's open, a
//!   follower's bootstrap, every follower poll and the lag probe;
//! * an MVCC table layout — immutable, `Arc`-shared sealed segments
//!   ([`segment`]) — where [`Database::pin`] hands out epoch-stamped
//!   [`Snapshot`]s in O(1) and every scan runs **lock-free**: readers
//!   never block the writer and the writer never blocks readers (see the
//!   [`db`] and [`snapshot`] module docs for the concurrency model);
//! * **columnar segments**: sealing transposes rows into typed column
//!   vectors (`i64`/`f64`/`bool` plus a null bitmap) with string columns
//!   **dictionary-encoded** — one `Arc<str>` per distinct value, `u32`
//!   codes per row — so predicates run as tight loops over primitive
//!   vectors producing selection bitmaps, and only the selected rows
//!   ever materialise [`flor_df::Value`]s; the same seal pass builds the
//!   secondary-index postings and zone maps;
//! * **sorted clustering**: a table may declare a [`schema::ClusterBy`]
//!   column (`logs` clusters by `tstamp`) — compaction sorts rewritten
//!   segments by it, so their zone maps become disjoint and range scans
//!   binary-search into each admitted segment instead of filtering it;
//! * one **read-order contract** — rows leave a table in commit order;
//!   clustering affects pruning, never order — kept by the single
//!   materialiser every scan, index probe and checkpoint reads through
//!   (see *Read order* in the [`segment`] module docs);
//! * [`checkpoint`]ing: `Database::checkpoint` serializes the live state
//!   to a sidecar — a **columnar body** (version 2, the only layout
//!   written) whose string columns are dictionary-encoded on disk, with
//!   version-1 row-major sidecars from earlier builds still read and
//!   upgraded by the next checkpoint — and truncates the WAL, making
//!   reopen O(live data) instead of O(history);
//! * [`recovery`]: [`Database::open`] and a **read-only follower**
//!   ([`Database::open_follower`]) rebuild state by the same replay —
//!   sidecar, then the log through the fold, in commit-marker order — and
//!   a follower then tails the live WAL incrementally
//!   ([`wal::tail_from`] + [`Database::poll_tail`]) so a second process
//!   serves the same data with staleness bounded by its poll interval —
//!   checkpoint truncation under the reader triggers a clean
//!   re-bootstrap, and every mutating call returns
//!   [`StoreError::ReadOnly`];
//! * background segment [`compact`]ion: `Database::compact` merges runs
//!   of cold sealed segments and drops rows superseded under a table's
//!   declared [`schema::LatestWins`] policy, so scans touch only live
//!   data — published by the same pointer swap commits use, invisible to
//!   pinned snapshots and the change feed (see the [`segment`] module
//!   docs on the seal → coalesce → compact → checkpoint lifecycle); the
//!   same fold is the one latest-wins read, [`Snapshot::latest_wins`];
//! * secondary hash indexes (per sealed segment) and a [`query::Query`]
//!   layer with predicate pushdown plus seal-time zone maps (per-segment
//!   min/max) that prune whole segments from range scans ("NoSQL-like
//!   writes, SQL-like reads", §3.1) — `order_by` + `limit` queries run a
//!   bounded-heap **streaming top-K** instead of a full sort, surfaced
//!   as [`query::OrderPath`] in the explain output;
//! * materialisation into `flor-df` [`flor_df::DataFrame`]s, feeding the
//!   pivoted `flor.dataframe` view.
//!
//! ```
//! use flor_store::{Database, Query, schema::flor_schema};
//! let db = Database::in_memory(flor_schema());
//! db.insert("logs", vec![
//!     "demo".into(), 1.into(), "train.fl".into(), 0.into(),
//!     "loss".into(), "0.25".into(), 3.into(),
//! ]).unwrap();
//! db.commit().unwrap();
//! let df = Query::table("logs").filter_eq("value_name", "loss").execute(&db).unwrap();
//! assert_eq!(df.n_rows(), 1);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub(crate) mod column;
pub mod compact;
pub mod db;
pub mod feed;
pub(crate) mod metrics;
pub mod query;
pub mod recovery;
pub mod schema;
pub mod segment;
pub mod snapshot;
pub mod wal;

pub use checkpoint::SidecarMark;
pub use compact::{CompactionPolicy, CompactionStats, CompactionTrigger};
pub use db::{CheckpointStats, Database, DbStats, StoreError, StoreResult};
pub use feed::{CommitBatch, RowDelta, Subscription};
pub use flor_obs::{MetricsRegistry, MetricsSnapshot};
pub use query::{AccessPath, CmpOp, OrderPath, Predicate, Query, QueryExplain};
pub use recovery::{RecoveryInfo, TailProgress};
pub use schema::{flor_schema, ClusterBy, ColType, ColumnDef, LatestWins, TableSchema};
pub use snapshot::Snapshot;

/// Fixtures shared by the crate's unit-test modules.
#[cfg(test)]
mod testing {
    use crate::schema::{ColType, ColumnDef, LatestWins, TableSchema};

    /// One table `t`: indexed string key `k`, integer `v`.
    pub(crate) fn tiny_schema() -> Vec<TableSchema> {
        vec![TableSchema::new(
            "t",
            vec![
                ColumnDef::indexed("k", ColType::Str),
                ColumnDef::new("v", ColType::Int),
            ],
        )]
    }

    /// One latest-wins table `t`: key `k`, order `s`, carried payload `p`.
    pub(crate) fn lw_schema() -> Vec<TableSchema> {
        vec![TableSchema::new(
            "t",
            vec![
                ColumnDef::indexed("k", ColType::Int),
                ColumnDef::new("s", ColType::Int),
                ColumnDef::new("p", ColType::Str),
            ],
        )
        .with_latest_wins(LatestWins::new(&["k"], Some("s")).carry_first(&["p"]))]
    }

    /// A fresh WAL path (no log, no sidecar) under the process's temp dir.
    pub(crate) fn temp_wal(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("flordb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.wal"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(crate::checkpoint::sidecar_path(&path));
        path
    }
}
