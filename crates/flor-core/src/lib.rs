//! # flor-core — the FlorDB kernel
//!
//! The public face of the reproduction: the paper's API (CIDR 2025, §2.1)
//! over the Fig. 1 relational data model, wired to every substrate.
//!
//! * [`Flor`] — `log` / `arg` / loop contexts (`for_each`, `iteration`) /
//!   `commit` / `query` / `dataframe` / `dataframe_latest`, writing the
//!   `logs`, `loops`, `ts2vid`, `git`, `obj_store` and `build_deps`
//!   tables;
//! * [`QueryBuilder`] — the lazy query surface behind [`Flor::query`]:
//!   filters, `latest` dedup, ordering and limits, lowered onto
//!   incrementally maintained views with predicate pushdown
//!   (`dataframe` and `dataframe_latest` are one-line wrappers over it).
//!   Two executors sit behind it: [`Flor::run_plan`] (incremental, view
//!   catalog) and [`Flor::execute_at`] (from scratch at a pinned
//!   snapshot, index predicates and `latest` / top-K cuts run below the
//!   pivot — the oracle, and what `flor-serve` answers with, reporting a
//!   whole-plan [`PlanExplain`]); tracing is an inert-when-off handle
//!   passed to both, never a second path;
//! * [`run_script`] — execute a versioned florscript file under full
//!   instrumentation with a checkpoint policy, persisting replay metadata;
//! * [`backfill`] — multiversion hindsight logging: propagate new log
//!   statements into prior versions and incrementally replay only what is
//!   needed, filling the dataframe's holes with values bit-identical to
//!   what foresight logging would have produced;
//! * [`Flor::submit_backfill`] — the same work as a durable background
//!   job ([`flor_jobs`]): prioritized per-version units, results landing
//!   incrementally in live views, cancellation, live progress on a
//!   [`BackfillHandle`], and crash-resume on [`Flor::open`] (the
//!   synchronous [`backfill`] is submit-then-wait over this).
//!
//! ```
//! use flor_core::Flor;
//! let flor = Flor::new("quickstart");
//! flor.set_filename("train.fl");
//! flor.log("acc", 0.91);
//! flor.log("recall", 0.84);
//! flor.commit("first run").unwrap();
//! let df = flor.dataframe(&["acc", "recall"]).unwrap();
//! assert_eq!(df.n_rows(), 1);
//! ```

#![warn(missing_docs)]

pub mod hindsight;
pub mod jobs;
pub mod kernel;
mod pivot;
pub mod query;
pub mod runtime;

pub use hindsight::{backfill, runs_of, BackfillReport, VersionOutcome, VersionResult};
pub use jobs::{
    BackfillHandle, CheckpointHandle, CompactionHandle, JobOutcome, MaintenanceHandle,
    CHECKPOINT_PRIORITY, COMPACTION_PRIORITY, DEFAULT_REPLAY_PARALLELISM,
};
pub use kernel::{Flor, BLOB_SPILL_BYTES, DEFAULT_CHECKPOINT_THRESHOLD_BYTES, DEFAULT_JOB_WORKERS};
pub use query::{ExplainReport, PlanExplain, QueryBuilder};
pub use runtime::{load_record, persist_record, run_script, RunError, RunOutcome, ScriptRuntime};
