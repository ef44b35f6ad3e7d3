//! # flor-jobs — durable background jobs over the FlorDB store
//!
//! The control plane the ROADMAP's heavy-traffic goal needs: long-running
//! retroactive work (hindsight backfill above all) runs as *scheduled,
//! resumable background jobs* instead of blocking calls, while foreground
//! reads keep flowing.
//!
//! * [`JobRunner`] — a prioritized multi-worker pool. A [`JobExecutor`]
//!   decomposes each job into [`UnitSpec`]s; every completed unit commits
//!   its store writes atomically with a progress transition, so results
//!   become visible (and materialized views catch up on their next read)
//!   per unit, not per job.
//! * **Durability** — the store has no in-place update, so job state is an
//!   append-only sequence of `jobs`-table rows, which the store folds
//!   latest-wins by `seq` (the table's declared policy;
//!   [`recover_records`] reads that fold). A process killed mid-job
//!   resumes from the persisted `done_keys` cursor
//!   ([`JobRunner::resume`]) and converges to the uninterrupted result.
//! * [`JobHandle`] — status, live progress, incremental per-unit
//!   outcomes, blocking `wait`, and durable `cancel`.
//!
//! ```
//! use flor_jobs::{JobControl, JobExecutor, JobRunner, JobSpec, JobState, UnitSpec};
//! use flor_store::{flor_schema, Database};
//! use std::sync::Arc;
//!
//! struct Squares;
//! impl JobExecutor<i64> for Squares {
//!     fn plan(&self, spec: &JobSpec) -> Result<Vec<UnitSpec>, String> {
//!         let n: i64 = spec.payload.parse().map_err(|_| "bad payload".to_string())?;
//!         Ok((1..=n).map(|k| UnitSpec { key: k, label: format!("sq {k}") }).collect())
//!     }
//!     fn run_unit(&self, _: &JobSpec, u: &UnitSpec, _: &JobControl) -> Result<i64, String> {
//!         Ok(u.key * u.key)
//!     }
//!     fn stage_unit(&self, _: &JobSpec, _: &UnitSpec, _: &i64) -> Result<(), String> {
//!         Ok(()) // a real executor stages store rows here
//!     }
//! }
//!
//! let db = Database::in_memory(flor_schema());
//! let runner: JobRunner<i64> = JobRunner::new(db.clone(), 2);
//! let spec = JobSpec { kind: "squares".into(), priority: 0, payload: "4".into() };
//! let handle = runner.submit(spec, Arc::new(Squares)).unwrap();
//! let report = handle.wait();
//! assert_eq!(report.state, JobState::Done);
//! let mut squares = report.outcomes;
//! squares.sort();
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! // Every transition was persisted to the `jobs` table:
//! assert!(db.row_count("jobs").unwrap() >= 2);
//! ```

#![warn(missing_docs)]

pub mod job;
pub mod runner;

pub use job::{recover_records, JobId, JobRecord, JobSpec, JobState, JobStats, UnitSpec};
pub use runner::{JobControl, JobExecutor, JobHandle, JobProgress, JobReport, JobRunner};
