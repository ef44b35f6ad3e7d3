//! # flor-view — incremental materialized views for `flor.dataframe`
//!
//! The FlorDB paper's central promise is *incremental context
//! maintenance*: the pivoted context dataframe stays current as runs,
//! log statements and hindsight backfills land — it is not recomputed
//! from the base tables on every query. This crate delivers that promise
//! for the Rust reproduction:
//!
//! * [`PivotState`] — a delta operator that applies change-feed batches
//!   ([`flor_store::CommitBatch`]) to a maintained wide
//!   [`flor_df::DataFrame`]: incremental join against `loops` (a
//!   cumulative ctx map), new-column discovery on first sight of a
//!   `value_name` or loop dimension, and per-index-tuple cell upsert.
//!   The maintained frame is **cell-for-cell identical** to the kernel's
//!   from-scratch executor (`Flor::execute_at`, reached as
//!   `collect_full`; property-tested in `tests/prop_view.rs`).
//! * [`LatestState`] — incremental `flor.utils.latest` via per-group-key
//!   max-timestamp upsert.
//! * [`ViewCatalog`] — named views keyed by a [`ViewKey`] plan
//!   fingerprint (projection, pushdown predicates, optional `latest`
//!   group), staleness tracked by commit epoch / WAL offset, an LRU
//!   capacity bound, and transparent fallback to a full snapshot rebuild
//!   whenever a delta cannot be applied. [`ViewCatalog::plan`] is its
//!   only read entry point — one executor for every incremental read.
//! * [`QueryPlan`] — the canonical lazy-query plan behind `Flor::query`:
//!   filters (reusing [`flor_store::Predicate`]), `latest` dedup,
//!   ordering and limits, lowered onto maintained views with pushdown
//!   predicates enforced incrementally and the rest as a cheap
//!   post-pass ([`ViewCatalog::plan`]).
//!
//! `flor-core` wires `Flor::dataframe` / `Flor::dataframe_latest`
//! through a catalog, so repeated queries after new commits apply deltas
//! instead of re-pivoting history, and `backfill` publishes recovered
//! values through the same feed into live views.
//!
//! ```
//! use flor_store::{flor_schema, Database};
//! use flor_view::{QueryPlan, ViewCatalog};
//!
//! let db = Database::in_memory(flor_schema());
//! let catalog = ViewCatalog::new(db.clone(), 8);
//!
//! let log = |ts: i64, name: &str, value: &str| {
//!     db.insert("logs", vec![
//!         "demo".into(), ts.into(), "train.fl".into(), 0.into(),
//!         name.into(), value.into(), 3.into(),
//!     ]).unwrap();
//! };
//! log(1, "loss", "0.5");
//! db.commit().unwrap();
//!
//! let v1 = catalog.plan(&QueryPlan::new(&["loss"])).unwrap();
//! assert_eq!(v1.n_rows(), 1);
//!
//! // A new commit refreshes the view incrementally: one delta applied,
//! // no re-pivot of history.
//! log(2, "loss", "0.25");
//! db.commit().unwrap();
//! let v2 = catalog.plan(&QueryPlan::new(&["loss"])).unwrap();
//! assert_eq!(v2.n_rows(), 2);
//! assert_eq!(catalog.stats().misses, 1); // built once, refreshed in place
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod delta;
pub mod plan;

pub use catalog::{CatalogStats, ViewCatalog, ViewInfo, ViewKey};
pub use delta::{logged_value, DeltaError, Dim, LatestState, LoopContexts, PivotState};
pub use plan::{BelowPivot, QueryPlan, FIXED_COLS};
