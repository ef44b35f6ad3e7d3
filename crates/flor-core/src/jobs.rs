//! Kernel wiring for the flor-jobs control plane: hindsight backfill as
//! durable, prioritized, cancellable background work.
//!
//! [`Flor::submit_backfill`] decomposes one backfill request into
//! per-version replay units executed by the kernel's shared
//! [`JobRunner`]: each unit computes off-thread (incremental replay with
//! the job's cancellation token and progress counter threaded into
//! `flor_record::replay_with`), then stages its recovered values and
//! commits them atomically with a progress transition in the `jobs`
//! table. Queries keep flowing while the job runs, and live materialized
//! views pick the recovered values up through the change feed as each
//! version completes. On [`Flor::open`], incomplete jobs found in the
//! `jobs` table are resumed from their persisted `done_keys` cursor.
//!
//! ```
//! use flor_core::Flor;
//! use flor_record::CheckpointPolicy;
//!
//! let v1 = r#"
//! let net = make_model(5, 4, 2, 7);
//! with flor.checkpointing(net) {
//!     for e in flor.loop("epoch", range(0, 3)) {
//!         flor.log("loss", e);
//!     }
//! }
//! "#;
//! let v2 = r#"
//! let net = make_model(5, 4, 2, 7);
//! with flor.checkpointing(net) {
//!     for e in flor.loop("epoch", range(0, 3)) {
//!         flor.log("loss", e);
//!         flor.log("double", e * 2);
//!     }
//! }
//! "#;
//! let flor = Flor::new("demo");
//! flor.fs.write("t.fl", v1);
//! flor_core::run_script(&flor, "t.fl", CheckpointPolicy::EveryK(1)).unwrap();
//! flor.fs.write("t.fl", v2);
//! let handle = flor.submit_backfill("t.fl", &["double"]).unwrap();
//! let report = handle.wait();
//! assert_eq!(report.values_recovered, 3);
//! assert_eq!(flor.job_stats().unwrap().done, 1);
//! ```

use crate::hindsight::{assemble_report, compute_version, runs_of, stage_version, BackfillTask};
use crate::hindsight::{BackfillReport, VersionOutcome, VersionResult};
use crate::kernel::Flor;
use flor_jobs::{
    recover_records, JobControl, JobExecutor, JobHandle, JobId, JobProgress, JobRecord, JobRunner,
    JobSpec, JobState, JobStats, UnitSpec,
};
use flor_record::ReplayControl;
use flor_script::parse;
use flor_store::{CheckpointStats, CompactionStats, Database, StoreResult};
use std::sync::Arc;

/// Replay worker threads per version when submitting via the plain
/// [`Flor::submit_backfill`].
pub const DEFAULT_REPLAY_PARALLELISM: usize = 2;

/// The `jobs.kind` tag for backfill jobs.
pub const BACKFILL_KIND: &str = "backfill";

/// The `jobs.kind` tag for WAL-checkpoint jobs.
pub const CHECKPOINT_KIND: &str = "checkpoint";

/// The `jobs.kind` tag for segment-compaction jobs.
pub const COMPACTION_KIND: &str = "compaction";

/// Priority checkpoint jobs are submitted at: above default backfill
/// priority (0), so a queued checkpoint is not starved behind a long
/// backfill's remaining versions.
pub const CHECKPOINT_PRIORITY: i64 = 100;

/// Priority compaction jobs are submitted at: above backfill (scans get
/// faster for everyone) but below checkpoints (durability first; the two
/// are serialized at the store layer regardless).
pub const COMPACTION_PRIORITY: i64 = 50;

/// The per-unit outcome type the kernel's shared [`JobRunner`] carries —
/// one variant per job kind it schedules.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// One backfill version's result.
    Version(VersionResult),
    /// One completed store checkpoint.
    Checkpoint(CheckpointStats),
    /// One completed segment-compaction pass.
    Compaction(CompactionStats),
}

/// The persisted description of one backfill job. Carries the *submit
/// time* working-tree source so a resumed job replays exactly what was
/// requested, even if the working tree has moved on (or, after a process
/// restart, is empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BackfillPayload {
    pub filename: String,
    pub names: Vec<String>,
    pub parallelism: usize,
    pub source: String,
}

/// Field separator for the payload encoding: the ASCII unit separator,
/// which cannot appear in florscript source or log names.
const SEP: char = '\u{1f}';

impl BackfillPayload {
    pub fn encode(&self) -> String {
        format!(
            "{}{SEP}{}{SEP}{}{SEP}{}",
            self.filename,
            self.names.join(","),
            self.parallelism,
            self.source
        )
    }

    pub fn decode(payload: &str) -> Result<BackfillPayload, String> {
        let mut parts = payload.splitn(4, SEP);
        let (Some(filename), Some(names), Some(par), Some(source)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err("malformed backfill payload".to_string());
        };
        Ok(BackfillPayload {
            filename: filename.to_string(),
            names: names
                .split(',')
                .filter(|n| !n.is_empty())
                .map(str::to_string)
                .collect(),
            parallelism: par.parse().map_err(|_| "bad parallelism".to_string())?,
            source: source.to_string(),
        })
    }
}

/// The [`JobExecutor`] for hindsight backfill: plans one unit per prior
/// run of the script, computes each unit by incremental replay, and
/// stages recovered values for the runner's atomic per-unit commit.
struct BackfillExecutor {
    flor: Flor,
}

impl JobExecutor<JobOutcome> for BackfillExecutor {
    fn plan(&self, spec: &JobSpec) -> Result<Vec<UnitSpec>, String> {
        let payload = BackfillPayload::decode(&spec.payload)?;
        if payload.source.is_empty() {
            return Err(format!(
                "script missing from working tree: {}",
                payload.filename
            ));
        }
        parse(&payload.source).map_err(|e| format!("new source failed to parse: {e}"))?;
        let runs = runs_of(&self.flor, &payload.filename).map_err(|e| e.to_string())?;
        Ok(runs
            .into_iter()
            .map(|(tstamp, vid)| UnitSpec {
                key: tstamp,
                label: vid,
            })
            .collect())
    }

    fn run_unit(
        &self,
        spec: &JobSpec,
        unit: &UnitSpec,
        ctl: &JobControl,
    ) -> Result<JobOutcome, String> {
        let payload = BackfillPayload::decode(&spec.payload)?;
        let new_prog =
            parse(&payload.source).map_err(|e| format!("new source failed to parse: {e}"))?;
        // Share the job's cancellation flag and progress counter with the
        // replay workers: cancelling the job halts every version at its
        // next iteration boundary, and JobHandle::progress ticks live.
        let replay_ctl = ReplayControl::shared(ctl.cancel_flag(), ctl.tick_counter());
        let task = BackfillTask {
            filename: &payload.filename,
            names: &payload.names,
            parallelism: payload.parallelism.max(1),
            new_prog: &new_prog,
        };
        let result = compute_version(&self.flor, &task, unit.key, &unit.label, &replay_ctl)
            .map_err(|e| e.to_string())?;
        if ctl.is_cancelled() {
            return Err("cancelled".to_string());
        }
        Ok(JobOutcome::Version(result))
    }

    fn stage_unit(
        &self,
        spec: &JobSpec,
        _unit: &UnitSpec,
        outcome: &JobOutcome,
    ) -> Result<(), String> {
        let JobOutcome::Version(result) = outcome else {
            return Err("backfill executor handed a non-version outcome".to_string());
        };
        let payload = BackfillPayload::decode(&spec.payload)?;
        stage_version(&self.flor, &payload.filename, result);
        Ok(())
    }
}

/// The [`JobExecutor`] for store checkpoints: one unit that serializes
/// the committed state to the WAL sidecar and truncates the log. The
/// serialization runs against a pinned snapshot (no store writes), so it
/// obeys the executor contract: nothing is staged; the runner's progress
/// transition is the only row the unit commits.
struct CheckpointExecutor {
    db: Database,
}

impl JobExecutor<JobOutcome> for CheckpointExecutor {
    fn plan(&self, _spec: &JobSpec) -> Result<Vec<UnitSpec>, String> {
        Ok(vec![UnitSpec {
            key: 0,
            label: "checkpoint".to_string(),
        }])
    }

    fn run_unit(
        &self,
        _spec: &JobSpec,
        _unit: &UnitSpec,
        _ctl: &JobControl,
    ) -> Result<JobOutcome, String> {
        self.db
            .checkpoint()
            .map(JobOutcome::Checkpoint)
            .map_err(|e| e.to_string())
    }

    fn stage_unit(&self, _: &JobSpec, _: &UnitSpec, _: &JobOutcome) -> Result<(), String> {
        Ok(())
    }
}

/// The [`JobExecutor`] for segment compaction: one unit that merges cold
/// sealed segments and drops latest-wins dead rows
/// ([`Database::compact`]). Like checkpoints, the pass reads a pinned
/// snapshot and publishes by pointer swap — nothing is staged, so the
/// runner's progress transition is the only row the unit commits, and an
/// interrupted job is simply re-run on resume (the pass is idempotent:
/// re-compacting a compacted table is a no-op).
struct CompactionExecutor {
    db: Database,
}

impl JobExecutor<JobOutcome> for CompactionExecutor {
    fn plan(&self, _spec: &JobSpec) -> Result<Vec<UnitSpec>, String> {
        Ok(vec![UnitSpec {
            key: 0,
            label: "compact".to_string(),
        }])
    }

    fn run_unit(
        &self,
        _spec: &JobSpec,
        _unit: &UnitSpec,
        _ctl: &JobControl,
    ) -> Result<JobOutcome, String> {
        self.db
            .compact()
            .map(JobOutcome::Compaction)
            .map_err(|e| e.to_string())
    }

    fn stage_unit(&self, _: &JobSpec, _: &UnitSpec, _: &JobOutcome) -> Result<(), String> {
        Ok(())
    }
}

/// A handle on one background backfill job: status, live progress,
/// per-version outcomes streaming in as versions complete, a blocking
/// `wait`, and durable cancellation. Cloneable.
#[derive(Clone)]
pub struct BackfillHandle {
    inner: JobHandle<JobOutcome>,
}

impl BackfillHandle {
    /// The job's durable id (its key in the `jobs` table).
    pub fn job_id(&self) -> JobId {
        self.inner.job_id()
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        self.inner.state()
    }

    /// Progress snapshot: versions done / total, plus live replayed
    /// iteration count (`ticks`) even mid-version.
    pub fn progress(&self) -> JobProgress {
        self.inner.progress()
    }

    /// Per-version outcomes completed so far, oldest run first — the
    /// incremental view of what [`BackfillReport::versions`] will hold.
    pub fn outcomes(&self) -> Vec<VersionOutcome> {
        let mut out: Vec<VersionOutcome> = self
            .inner
            .outcomes()
            .into_iter()
            .filter_map(|r| match r {
                JobOutcome::Version(v) => Some(v.outcome),
                _ => None,
            })
            .collect();
        out.sort_by_key(|o| o.tstamp);
        out
    }

    /// Request cancellation: pending versions are dropped, the running
    /// replay halts at its next iteration boundary, and the cancellation
    /// is persisted (a restart will not revive the job).
    pub fn cancel(&self) {
        self.inner.cancel();
    }

    /// Block until the job is terminal, then assemble the aggregate
    /// report (empty if planning failed — e.g. the script is missing).
    pub fn wait(&self) -> BackfillReport {
        let report = self.inner.wait();
        assemble_report(
            report
                .outcomes
                .into_iter()
                .filter_map(|r| match r {
                    JobOutcome::Version(v) => Some(v),
                    _ => None,
                })
                .collect(),
        )
    }

    /// Failure detail, if the job failed.
    pub fn detail(&self) -> String {
        self.inner.detail()
    }
}

/// A handle on one single-unit background maintenance job (checkpoint,
/// compaction) whose success yields one stats value of type `T`.
/// Cloneable; all clones observe the same job.
pub struct MaintenanceHandle<T> {
    inner: JobHandle<JobOutcome>,
    /// Pulls this job kind's stats out of the shared outcome enum.
    extract: fn(JobOutcome) -> Option<T>,
}

impl<T> Clone for MaintenanceHandle<T> {
    fn clone(&self) -> Self {
        MaintenanceHandle {
            inner: self.inner.clone(),
            extract: self.extract,
        }
    }
}

impl<T> MaintenanceHandle<T> {
    /// The job's durable id (its key in the `jobs` table).
    pub fn job_id(&self) -> JobId {
        self.inner.job_id()
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        self.inner.state()
    }

    /// Block until the job is terminal; `Some(stats)` on success, `None`
    /// if it failed or was cancelled (see [`MaintenanceHandle::detail`]).
    pub fn wait(&self) -> Option<T> {
        self.inner
            .wait()
            .outcomes
            .into_iter()
            .find_map(self.extract)
    }

    /// Failure detail, if the job failed.
    pub fn detail(&self) -> String {
        self.inner.detail()
    }
}

/// A handle on one background checkpoint job.
pub type CheckpointHandle = MaintenanceHandle<CheckpointStats>;

/// A handle on one background segment-compaction job.
pub type CompactionHandle = MaintenanceHandle<CompactionStats>;

impl Flor {
    /// Submit a background backfill of `names` over every prior run of
    /// `filename` (default priority and replay parallelism). Returns
    /// immediately; query through [`BackfillHandle`].
    ///
    /// Concurrency contract: readers (`Flor::query` and friends) are
    /// never blocked and always see committed state. *Writes*, however,
    /// share the store's single logical write transaction — each
    /// completed version commits it, flushing any rows another thread
    /// has staged but not yet committed. Keep foreground `flor.log` /
    /// `flor.commit` sequences on one thread (the paper's one-driver
    /// model) or commit them before submitting background work.
    pub fn submit_backfill(&self, filename: &str, names: &[&str]) -> StoreResult<BackfillHandle> {
        self.submit_backfill_with(filename, names, 0, DEFAULT_REPLAY_PARALLELISM)
    }

    /// [`Flor::submit_backfill`] with an explicit scheduling `priority`
    /// (higher runs first) and per-version replay `parallelism`.
    pub fn submit_backfill_with(
        &self,
        filename: &str,
        names: &[&str],
        priority: i64,
        parallelism: usize,
    ) -> StoreResult<BackfillHandle> {
        let payload = BackfillPayload {
            filename: filename.to_string(),
            names: names.iter().map(|s| s.to_string()).collect(),
            parallelism,
            source: self.fs.read(filename).unwrap_or_default(),
        };
        let spec = JobSpec {
            kind: BACKFILL_KIND.to_string(),
            priority,
            payload: payload.encode(),
        };
        let executor = Arc::new(BackfillExecutor { flor: self.clone() });
        let inner = self.runner.submit(spec, executor)?;
        Ok(BackfillHandle { inner })
    }

    /// Submit a background checkpoint: serialize the committed state to
    /// the WAL sidecar and truncate the log, scheduled on the kernel's
    /// job runner (so it shows up on the jobs board like any other job)
    /// at [`CHECKPOINT_PRIORITY`]. Returns immediately.
    ///
    /// [`Flor::commit`] submits one automatically whenever the WAL grows
    /// past the configured threshold (see
    /// [`Flor::set_checkpoint_threshold`]).
    pub fn submit_checkpoint(&self) -> StoreResult<CheckpointHandle> {
        let spec = JobSpec {
            kind: CHECKPOINT_KIND.to_string(),
            priority: CHECKPOINT_PRIORITY,
            payload: String::new(),
        };
        let executor = Arc::new(CheckpointExecutor {
            db: self.db.clone(),
        });
        let inner = self.runner.submit(spec, executor)?;
        Ok(CheckpointHandle {
            inner,
            extract: |o| match o {
                JobOutcome::Checkpoint(stats) => Some(stats),
                _ => None,
            },
        })
    }

    /// Checkpoint synchronously: submit and wait. `Err` if the job
    /// failed.
    pub fn checkpoint(&self) -> StoreResult<CheckpointStats> {
        let handle = self.submit_checkpoint()?;
        handle.wait().ok_or_else(|| {
            flor_store::StoreError::Invalid(format!("checkpoint failed: {}", handle.detail()))
        })
    }

    /// Submit a background segment compaction: merge cold sealed
    /// segments and drop latest-wins dead rows (superseded `jobs`
    /// transitions), scheduled on the kernel's job runner at
    /// [`COMPACTION_PRIORITY`] so it is board-visible and resumed on
    /// reopen like any other job. Returns immediately.
    ///
    /// The store also auto-triggers compaction from the commit layer when
    /// a table's dead-row ratio crosses the configured threshold (see
    /// [`Flor::set_compaction_trigger`]).
    pub fn submit_compaction(&self) -> StoreResult<CompactionHandle> {
        let spec = JobSpec {
            kind: COMPACTION_KIND.to_string(),
            priority: COMPACTION_PRIORITY,
            payload: String::new(),
        };
        let executor = Arc::new(CompactionExecutor {
            db: self.db.clone(),
        });
        let inner = self.runner.submit(spec, executor)?;
        Ok(CompactionHandle {
            inner,
            extract: |o| match o {
                JobOutcome::Compaction(stats) => Some(stats),
                _ => None,
            },
        })
    }

    /// Compact synchronously: submit and wait. `Err` if the job failed.
    pub fn compact(&self) -> StoreResult<CompactionStats> {
        let handle = self.submit_compaction()?;
        handle.wait().ok_or_else(|| {
            flor_store::StoreError::Invalid(format!("compaction failed: {}", handle.detail()))
        })
    }

    /// Resume every incomplete job found in the `jobs` table from its
    /// last completed version. Called automatically by [`Flor::open`];
    /// public so embedders constructing kernels differently can opt in.
    pub fn resume_jobs(&self) -> StoreResult<Vec<BackfillHandle>> {
        let mut out = Vec::new();
        for rec in recover_records(&self.db)? {
            if rec.state.is_terminal() || self.runner.handle(rec.job_id).is_some() {
                continue; // finished, or already live in this process
            }
            match rec.kind.as_str() {
                BACKFILL_KIND => {
                    let executor = Arc::new(BackfillExecutor { flor: self.clone() });
                    let inner = self.runner.resume(&rec, executor)?;
                    out.push(BackfillHandle { inner });
                }
                // An interrupted checkpoint is simply re-run: the
                // operation is idempotent (pin, serialize, truncate).
                CHECKPOINT_KIND => {
                    let executor = Arc::new(CheckpointExecutor {
                        db: self.db.clone(),
                    });
                    self.runner.resume(&rec, executor)?;
                }
                // Likewise for compaction: re-running over an already
                // compacted store is a cheap no-op pass.
                COMPACTION_KIND => {
                    let executor = Arc::new(CompactionExecutor {
                        db: self.db.clone(),
                    });
                    self.runner.resume(&rec, executor)?;
                }
                _ => {}
            }
        }
        Ok(out)
    }

    /// Every job's latest durable state, ordered by job id — served from
    /// the incrementally maintained [`flor_jobs::JobBoard`].
    pub fn jobs(&self) -> StoreResult<Vec<JobRecord>> {
        self.board.list()
    }

    /// Job counts by state (queued/running/done/failed/cancelled).
    pub fn job_stats(&self) -> StoreResult<JobStats> {
        self.board.stats()
    }

    /// The kernel's shared background-job runner (worker-pool sizing,
    /// idle waits, crash instrumentation for tests and benches).
    pub fn job_runner(&self) -> &JobRunner<JobOutcome> {
        &self.runner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_script;
    use flor_record::CheckpointPolicy;

    const V1: &str = r#"
let data = load_dataset("first_page", 60, 42);
let net = make_model(5, 4, 2, 7);
with flor.checkpointing(net) {
    for e in flor.loop("epoch", range(0, 4)) {
        let loss = train_step(net, data, 0.5);
        flor.log("loss", loss);
    }
}
"#;

    const V2: &str = r#"
let data = load_dataset("first_page", 60, 42);
let net = make_model(5, 4, 2, 7);
with flor.checkpointing(net) {
    for e in flor.loop("epoch", range(0, 4)) {
        let loss = train_step(net, data, 0.5);
        flor.log("loss", loss);
        let m = eval_model(net, data);
        flor.log("acc", m[0]);
    }
}
"#;

    fn seeded(versions: usize) -> Flor {
        let flor = Flor::new("jobs");
        flor.fs.write("train.fl", V1);
        for _ in 0..versions {
            run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
        }
        flor.fs.write("train.fl", V2);
        flor
    }

    #[test]
    fn payload_round_trips() {
        let p = BackfillPayload {
            filename: "train.fl".into(),
            names: vec!["acc".into(), "recall".into()],
            parallelism: 3,
            source: "let x = 1;\nflor.log(\"x\", x);".into(),
        };
        assert_eq!(BackfillPayload::decode(&p.encode()), Ok(p));
        assert!(BackfillPayload::decode("nonsense").is_err());
    }

    #[test]
    fn submitted_backfill_reports_incrementally_and_lands_in_views() {
        let flor = seeded(3);
        // Materialize the view while the history has no acc values yet.
        let before = flor.dataframe(&["loss", "acc"]).unwrap();
        assert!(before.column("acc").is_none(), "no acc logged yet");
        assert_eq!(before.n_rows(), 12);
        let handle = flor.submit_backfill("train.fl", &["acc"]).unwrap();
        let report = handle.wait();
        assert_eq!(report.versions.len(), 3);
        assert_eq!(report.values_recovered, 12);
        // Outcomes stream on the handle too, oldest run first.
        let outcomes = handle.outcomes();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes.windows(2).all(|w| w[0].tstamp < w[1].tstamp));
        assert!(handle.progress().ticks >= 12, "live iteration counter");
        // The recovered values flowed into the live view via the feed.
        let after = flor.dataframe(&["loss", "acc"]).unwrap();
        assert_eq!(
            after
                .column("acc")
                .unwrap()
                .values
                .iter()
                .filter(|v| v.is_null())
                .count(),
            0
        );
        assert_eq!(after, flor.query(&["loss", "acc"]).collect_full().unwrap());
        // Durable observability.
        assert_eq!(flor.job_stats().unwrap().done, 1);
        assert_eq!(flor.jobs().unwrap()[0].state, JobState::Done);
        assert_eq!(flor.jobs().unwrap()[0].units_done, 3);
    }

    #[test]
    fn checkpoint_job_truncates_wal_and_lands_on_the_board() {
        let flor = seeded(2);
        let wal_before = flor.db.wal_bytes();
        assert!(wal_before > 0);
        let stats = flor.checkpoint().unwrap();
        assert!(stats.rows > 0);
        assert!(flor.db.wal_bytes() < wal_before, "log compacted");
        flor.job_runner().wait_idle();
        // The checkpoint shows up as a first-class job.
        let jobs = flor.jobs().unwrap();
        assert!(jobs
            .iter()
            .any(|j| j.kind == CHECKPOINT_KIND && j.state == JobState::Done));
        assert_eq!(flor.db.stats().checkpoints, 1);
        // Reads are unaffected.
        assert_eq!(
            flor.dataframe(&["loss"]).unwrap(),
            flor.query(&["loss"]).collect_full().unwrap()
        );
    }

    #[test]
    fn commit_auto_spawns_checkpoint_past_wal_threshold() {
        let flor = Flor::new("autockpt");
        flor.set_filename("train.fl");
        flor.set_checkpoint_threshold(Some(1)); // every commit trips it
        flor.log("loss", 0.5f64);
        flor.commit("run").unwrap();
        // The store spawns the checkpoint off-thread; wait for it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while flor.db.stats().checkpoints == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "auto-checkpoint never ran"
            );
            std::thread::yield_now();
        }
        assert!(flor.db.stats().checkpoints >= 1);
        // Disabled threshold stops the trigger.
        let quiet = Flor::new("nockpt");
        quiet.set_checkpoint_threshold(None);
        quiet.log("loss", 0.5f64);
        quiet.commit("run").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(quiet.db.stats().checkpoints, 0);
    }

    #[test]
    fn compaction_job_drops_dead_rows_and_lands_on_the_board() {
        let flor = seeded(3);
        flor.submit_backfill("train.fl", &["acc"]).unwrap().wait();
        // Re-log the same value name at the same coordinates: the pivot
        // only ever shows the last write, but `logs` declares no
        // latest-wins policy (replay needs every row), so compaction must
        // keep all five rows while still dropping dead `jobs` transitions.
        flor.set_filename("train.fl");
        for round in 0..5 {
            flor.log("status", format!("round {round}"));
        }
        flor.commit("re-log").unwrap();
        flor.job_runner().wait_idle();
        let logs_rows = flor.db.row_count("logs").unwrap();
        assert_eq!(flor.db.dead_rows("logs").unwrap(), 0, "logs has no policy");
        assert!(
            flor.db.dead_rows("jobs").unwrap() > 0,
            "job transitions leave dead rows"
        );
        let before_inc = flor.dataframe(&["loss", "acc"]).unwrap();
        let stats = flor.compact().unwrap();
        assert!(stats.rows_dropped > 0);
        assert_eq!(
            flor.db.row_count("logs").unwrap(),
            logs_rows,
            "every raw log row survives — replay depends on them"
        );
        flor.job_runner().wait_idle();
        // Board-visible like any other job.
        assert!(flor
            .jobs()
            .unwrap()
            .iter()
            .any(|j| j.kind == COMPACTION_KIND && j.state == JobState::Done));
        // Query results are unchanged: the incremental view, the
        // from-scratch oracle (over the compacted scan), and the
        // pre-compaction frame all agree.
        let after_inc = flor.dataframe(&["loss", "acc"]).unwrap();
        let after_full = flor.query(&["loss", "acc"]).collect_full().unwrap();
        assert_eq!(after_inc, before_inc);
        assert_eq!(after_full, before_inc);
        // The jobs fold still resolves every payload/state.
        let recs = flor_jobs::recover_records(&flor.db).unwrap();
        assert!(recs.iter().all(|r| r.state.is_terminal()));
        assert!(
            recs.iter()
                .filter(|r| r.kind == BACKFILL_KIND)
                .all(|r| !r.payload.is_empty()),
            "carry-forward payloads survive"
        );
    }

    #[test]
    fn unfinished_compaction_job_is_resumed_on_reopen() {
        let dir = std::env::temp_dir().join(format!("flor-compact-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("resume.wal");
        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(flor_store::checkpoint::sidecar_path(&wal));
        {
            // Persist a Queued compaction transition without running it —
            // the on-disk shape a crash right after submit leaves behind.
            let flor = Flor::open("resume", &wal).unwrap();
            let rec = JobRecord {
                job_id: 77,
                seq: 1,
                kind: COMPACTION_KIND.to_string(),
                priority: COMPACTION_PRIORITY,
                state: JobState::Queued,
                payload: String::new(),
                units_total: 1,
                units_done: 0,
                done_keys: Vec::new(),
                detail: String::new(),
            };
            flor.db.insert("jobs", rec.row()).unwrap();
            flor.db.commit().unwrap();
            flor.job_runner().wait_idle();
        }
        {
            let flor = Flor::open_with_workers("resume", &wal, 1).unwrap();
            flor.job_runner().wait_idle();
            let rec = flor
                .jobs()
                .unwrap()
                .into_iter()
                .find(|j| j.job_id == 77)
                .expect("recovered job");
            assert_eq!(rec.state, JobState::Done, "resumed and completed");
        }
        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(flor_store::checkpoint::sidecar_path(&wal));
    }

    #[test]
    fn cancelled_backfill_stops_and_persists() {
        // A heavier script so cancellation lands mid-run deterministically.
        let slow_v1 = V1.replace("range(0, 4)", "range(0, 12)");
        let slow_v2 = V2.replace("range(0, 4)", "range(0, 12)");
        let flor = Flor::new("jobs");
        flor.fs.write("train.fl", &slow_v1);
        for _ in 0..6 {
            run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
        }
        flor.fs.write("train.fl", &slow_v2);
        flor.job_runner().set_workers(1);
        let handle = flor
            .submit_backfill_with("train.fl", &["acc"], 0, 1)
            .unwrap();
        // Wait for the replay to actually start, then cancel mid-flight.
        while handle.progress().ticks == 0 && !handle.state().is_terminal() {
            std::thread::yield_now();
        }
        handle.cancel();
        let report = handle.wait();
        assert_eq!(handle.state(), JobState::Cancelled);
        assert!(report.versions.len() < 6, "not all versions ran");
        flor.job_runner().wait_idle();
        assert_eq!(flor.job_stats().unwrap().cancelled, 1);
        // Whatever did land kept the view consistent with the oracle.
        assert_eq!(
            flor.dataframe(&["loss", "acc"]).unwrap(),
            flor.query(&["loss", "acc"]).collect_full().unwrap()
        );
    }

    #[test]
    fn missing_script_is_a_failed_job_and_empty_sync_report() {
        let flor = Flor::new("jobs");
        let handle = flor.submit_backfill("ghost.fl", &["acc"]).unwrap();
        let report = handle.wait();
        assert_eq!(handle.state(), JobState::Failed);
        assert!(handle.detail().contains("missing"));
        assert!(report.versions.is_empty());
        // The legacy sync API keeps its old contract: empty report.
        let report = crate::hindsight::backfill(&flor, "ghost.fl", &["acc"], 1).unwrap();
        assert!(report.versions.is_empty());
        assert_eq!(flor.job_stats().unwrap().failed, 2);
    }

    #[test]
    fn priorities_order_queued_jobs() {
        let flor = seeded(2);
        // One worker: the higher-priority job's versions run first once
        // the queue has both.
        flor.job_runner().set_workers(1);
        let low = flor
            .submit_backfill_with("train.fl", &["acc"], 0, 1)
            .unwrap();
        let high = flor
            .submit_backfill_with("train.fl", &["recall"], 5, 1)
            .unwrap();
        low.wait();
        high.wait();
        assert_eq!(flor.job_stats().unwrap().done, 2);
    }
}
