//! # flor-view — incremental materialized views for `flor.dataframe`
//!
//! The FlorDB paper's central promise is *incremental context
//! maintenance*: the pivoted context dataframe stays current as runs,
//! log statements and hindsight backfills land — it is not recomputed
//! from the base tables on every query. This crate delivers that promise
//! for the Rust reproduction. Its modules:
//!
//! * `pivot` (private) — the one long → wide pivot of `logs ⋈ loops`
//!   and its one writer: fragments of `logs` rows, each pivoted once per
//!   key under the loop contexts (resolved once per sealed `loops`
//!   segment), merged by rid and applied onto the wide frame — a cell
//!   patched into a row the frame already has, or new rows appended —
//!   after the schema has widened on first sight of a `value_name` or
//!   loop dimension. It builds a frame from a pinned snapshot under a
//!   plan — a merge of per-segment fragments (each sealed `logs` segment
//!   pivoted once, on first read, and kept beside the segment), with the
//!   plan's steps run over the merged keys — and catches a view up over
//!   one transient fragment of the rows past its rid watermark
//!   ([`flor_store::Snapshot::since`]). Its public face is
//!   [`execute_at`], the snapshot pivot plus the plan's post-pass
//!   (reporting a [`PlanExplain`]) — `Flor::execute_at`, the oracle, and
//!   what [`ViewCatalog::answer`] runs a plan that pushes a step on.
//! * `delta` (private) — the maintained views: one projected pivot, built
//!   by the snapshot pivot's merge and caught up by the same merge; and
//!   incremental `flor.utils.latest` via per-group-key max-timestamp
//!   upsert. Both are **cell-for-cell identical** to a long-frame
//!   [`flor_df::DataFrame::pivot`] reference (property-tested in
//!   `tests/prop_pivot.rs` and `tests/prop_view.rs`).
//! * `catalog` (private) — [`ViewCatalog`]: one maintained pivot per
//!   projection, with the predicate-free `latest` groups read from it
//!   kept beside it, all caught up on each access to the snapshot it
//!   reads from one `logs` rid watermark, bounded by an LRU; a view
//!   that cannot apply a row (a value name colliding with an index
//!   column) is dropped. A miss whose names a cached view
//!   covers is selected from the smallest such view rather than built
//!   from history. [`ViewCatalog::answer`] is every read's one entry and
//!   one routing rule: a plan that lowers nothing below the pivot but a
//!   `latest` is read from its view, when the catalog has not passed the
//!   caller's snapshot, and every other plan runs on [`execute_at`]; the
//!   [`Answer`] carries the frame, its epoch and [`How`] it was reached.
//! * [`plan`] — [`QueryPlan`], the canonical lazy-query plan behind
//!   `Flor::query`: filters (reusing [`flor_store::Predicate`]), `latest`
//!   dedup, ordering and limits, lowered below the pivot
//!   ([`QueryPlan::below_pivot`]) or read from a projection's maintained
//!   view, with the rest as a post-pass.
//!
//! `flor-core` wires `Flor::dataframe` / `Flor::dataframe_latest`
//! through a catalog, so repeated queries after new commits apply just
//! the new rows instead of re-pivoting history, and the values a
//! `backfill` commits reach live views the same way.
//!
//! ```
//! use flor_obs::ActiveTrace;
//! use flor_store::{flor_schema, Database};
//! use flor_view::{How, QueryPlan, ViewCatalog};
//!
//! let db = Database::in_memory(flor_schema());
//! let catalog = ViewCatalog::new(db.clone(), 8);
//! let plan = QueryPlan::new(&["loss"]);
//! let off = &mut ActiveTrace::new(false, None, "");
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
//! let v1 = catalog.answer(&db.pin(), &plan, off).unwrap();
//! assert_eq!((v1.frame.n_rows(), v1.how), (1, How::Built));
//!
//! // A new commit refreshes the view incrementally: its one row is read
//! // and applied, no re-pivot of history.
//! log(2, "loss", "0.25");
//! db.commit().unwrap();
//! let v2 = catalog.answer(&db.pin(), &plan, off).unwrap();
//! assert_eq!(v2.frame.n_rows(), 2);
//! assert_eq!(v2.to_string(), "caught up over 1 logs rows to epoch 2");
//! assert_eq!(catalog.stats().misses, 1); // built once, refreshed in place
//! ```

#![warn(missing_docs)]

mod catalog;
mod delta;
mod pivot;
pub mod plan;

pub use catalog::{Answer, CatalogStats, How, ViewCatalog};
pub use pivot::{execute_at, PlanExplain};
pub use plan::{BelowPivot, QueryPlan, FIXED_COLS};
