//! # flor-view — incremental materialized views for `flor.dataframe`
//!
//! The FlorDB paper's central promise is *incremental context
//! maintenance*: the pivoted context dataframe stays current as runs,
//! log statements and hindsight backfills land — it is not recomputed
//! from the base tables on every query. This crate delivers that promise
//! for the Rust reproduction. Its modules:
//!
//! * `pivot` (private) — the one long → wide pivot of `logs ⋈ loops`:
//!   join to the loop context (resolved once per sealed `loops` segment),
//!   new-column discovery on first sight of a `value_name` or loop
//!   dimension, and a per-key cell upsert written straight into the
//!   output columns; and the one function that runs it over a pinned
//!   snapshot under a plan, with the plan's steps below the pivot. Its
//!   public face is [`execute_at`], that pivot plus the plan's post-pass
//!   (reporting a [`PlanExplain`]) — `Flor::execute_at`, the oracle and
//!   what `flor-serve` answers with.
//! * `delta` (private) — [`PivotState`], the same operator maintained
//!   under change-feed batches ([`flor_store::CommitBatch`]), projected
//!   and filtered, built by the snapshot pivot; and incremental
//!   `flor.utils.latest` via per-group-key max-timestamp upsert. Both
//!   are **cell-for-cell identical** to a long-frame
//!   [`flor_df::DataFrame::pivot`] reference (property-tested in
//!   `tests/prop_pivot.rs` and `tests/prop_view.rs`).
//! * `catalog` (private) — [`ViewCatalog`]: views keyed by the
//!   maintained part of a plan (projection, pushdown predicates,
//!   optional `latest` group), refreshed from the change feed, bounded by
//!   an LRU, with a fallback rebuild whenever a delta cannot be applied.
//!   [`ViewCatalog::plan`] is its only read entry point.
//! * [`plan`] — [`QueryPlan`], the canonical lazy-query plan behind
//!   `Flor::query`: filters (reusing [`flor_store::Predicate`]), `latest`
//!   dedup, ordering and limits, lowered below the pivot
//!   ([`QueryPlan::below_pivot`]) or onto maintained views, with the rest
//!   as a post-pass.
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

mod catalog;
mod delta;
mod pivot;
pub mod plan;

pub use catalog::{CatalogStats, ViewCatalog};
pub use delta::{DeltaError, PivotState};
pub use pivot::{execute_at, PlanExplain};
pub use plan::{BelowPivot, QueryPlan, FIXED_COLS};
