//! Job identity, state machine, and the persisted transition-row form.
//!
//! The store is append-only, so a job's lifecycle is recorded as a
//! sequence of rows in the `jobs` table — one per transition, stamped
//! with a monotonically increasing `seq`. The row with the maximum `seq`
//! per `job_id` *is* the job's current state (latest-wins, the same
//! discipline `flor.utils.latest` applies to log rows). The store folds
//! the table by that rule, and [`recover_records`] reads the fold back as
//! one [`JobRecord`] per job.

use flor_df::Value;
use flor_store::{Database, StoreResult};
use std::fmt;

/// Identifies one background job across process restarts.
pub type JobId = i64;

/// Column order of the `jobs` table (see `flor_store::flor_schema`).
pub const JOB_COLS: [&str; 10] = [
    "job_id",
    "seq",
    "kind",
    "priority",
    "state",
    "payload",
    "units_total",
    "units_done",
    "done_keys",
    "detail",
];

/// A job's lifecycle state. `Queued → Running → {Done, Failed, Cancelled}`;
/// the three right-hand states are terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobState {
    /// Admitted and persisted; no unit has completed yet.
    Queued,
    /// At least one unit has been picked up by a worker.
    Running,
    /// Every unit completed.
    Done,
    /// A unit hard-failed (or planning failed); see the record's `detail`.
    Failed,
    /// Cancelled by the submitter; queued units were dropped.
    Cancelled,
}

impl JobState {
    /// Whether no further transitions can occur.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// Stable text form, as stored in the `jobs.state` column.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parse the stored text form; unknown text reads as `Failed` so a
    /// corrupted row can never resurrect as runnable work.
    pub fn parse(s: &str) -> JobState {
        match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "cancelled" => JobState::Cancelled,
            _ => JobState::Failed,
        }
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What to run: an executor-interpreted description of one job.
///
/// The scheduler treats `payload` as opaque; the [`crate::JobExecutor`]
/// that planned the job decodes it. It is persisted verbatim so a job can
/// be resumed by a fresh process that has lost all in-memory context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Executor-dispatch tag (e.g. `"backfill"`).
    pub kind: String,
    /// Scheduling priority: higher runs first.
    pub priority: i64,
    /// Opaque executor payload, persisted with the job.
    pub payload: String,
}

/// One schedulable unit of a job (for backfill: one prior version).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitSpec {
    /// Stable unit key (for backfill: the run's tstamp). Persisted in
    /// `done_keys` on completion — the resume cursor.
    pub key: i64,
    /// Human-readable label (for backfill: the version id).
    pub label: String,
}

/// The latest-wins materialized state of one job — what one `jobs`-table
/// row encodes, and what [`recover_records`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// The job's id.
    pub job_id: JobId,
    /// Transition sequence number (max per job wins).
    pub seq: i64,
    /// Executor-dispatch tag.
    pub kind: String,
    /// Scheduling priority.
    pub priority: i64,
    /// Lifecycle state at this transition.
    pub state: JobState,
    /// Opaque executor payload.
    pub payload: String,
    /// Planned unit count.
    pub units_total: usize,
    /// Completed unit count.
    pub units_done: usize,
    /// Keys of completed units — the resume cursor.
    pub done_keys: Vec<i64>,
    /// Failure detail or progress note.
    pub detail: String,
}

impl JobRecord {
    /// Encode as a `jobs`-table row in [`JOB_COLS`] order.
    pub fn row(&self) -> Vec<Value> {
        let done_keys = self
            .done_keys
            .iter()
            .map(i64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        vec![
            Value::Int(self.job_id),
            Value::Int(self.seq),
            Value::from(self.kind.as_str()),
            Value::Int(self.priority),
            Value::from(self.state.as_str()),
            Value::from(self.payload.as_str()),
            Value::Int(self.units_total as i64),
            Value::Int(self.units_done as i64),
            Value::from(done_keys),
            Value::from(self.detail.as_str()),
        ]
    }

    /// Decode a `jobs`-table row ([`JOB_COLS`] order); `None` on arity or
    /// type mismatch.
    pub fn from_row(row: &[Value]) -> Option<JobRecord> {
        if row.len() != JOB_COLS.len() {
            return None;
        }
        let done_text = row[8].to_text();
        let done_keys: Vec<i64> = done_text
            .split(',')
            .filter(|s| !s.is_empty())
            .filter_map(|s| s.parse().ok())
            .collect();
        Some(JobRecord {
            job_id: row[0].as_i64()?,
            seq: row[1].as_i64()?,
            kind: row[2].to_text(),
            priority: row[3].as_i64()?,
            state: JobState::parse(&row[4].to_text()),
            payload: row[5].to_text(),
            units_total: row[6].as_i64()? as usize,
            units_done: row[7].as_i64()? as usize,
            done_keys,
            detail: row[9].to_text(),
        })
    }

    /// The job's spec, reconstructed for resumption.
    pub fn spec(&self) -> JobSpec {
        JobSpec {
            kind: self.kind.clone(),
            priority: self.priority,
            payload: self.payload.clone(),
        }
    }
}

/// Queue-depth observability: job counts by state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Jobs admitted but not yet started.
    pub queued: usize,
    /// Jobs with at least one completed unit, not yet terminal.
    pub running: usize,
    /// Completed jobs.
    pub done: usize,
    /// Failed jobs.
    pub failed: usize,
    /// Cancelled jobs.
    pub cancelled: usize,
}

impl JobStats {
    /// Count `state` into the matching bucket.
    pub fn count(&mut self, state: JobState) {
        match state {
            JobState::Queued => self.queued += 1,
            JobState::Running => self.running += 1,
            JobState::Done => self.done += 1,
            JobState::Failed => self.failed += 1,
            JobState::Cancelled => self.cancelled += 1,
        }
    }
}

/// One latest-wins [`JobRecord`] per job, ordered by `job_id`: the
/// store's fold of the append-only `jobs` table
/// ([`flor_store::Snapshot::latest_wins`]), which also carries each job's
/// payload — persisted only on its first transition — into its latest
/// record. `Flor::open` uses it to find incomplete jobs to resume.
pub fn recover_records(db: &Database) -> StoreResult<Vec<JobRecord>> {
    let df = db.pin().latest_wins("jobs")?;
    let mut out: Vec<JobRecord> = df
        .rows()
        .filter_map(|row| JobRecord::from_row(&row.to_vec()))
        .collect();
    out.sort_by_key(|r| r.job_id);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flor_store::flor_schema;

    fn rec(job_id: i64, seq: i64, state: JobState) -> JobRecord {
        JobRecord {
            job_id,
            seq,
            kind: "backfill".into(),
            priority: 5,
            state,
            payload: "train.fl\u{1f}acc".into(),
            units_total: 3,
            units_done: 1,
            done_keys: vec![4],
            detail: String::new(),
        }
    }

    #[test]
    fn row_round_trip() {
        let r = rec(7, 2, JobState::Running);
        assert_eq!(JobRecord::from_row(&r.row()), Some(r));
    }

    #[test]
    fn state_text_round_trip() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::parse(s.as_str()), s);
        }
        assert_eq!(JobState::parse("garbled"), JobState::Failed);
        assert!(JobState::Done.is_terminal());
        assert!(!JobState::Running.is_terminal());
    }

    #[test]
    fn recover_folds_latest_wins() {
        let db = Database::in_memory(flor_schema());
        db.insert("jobs", rec(1, 1, JobState::Queued).row())
            .unwrap();
        db.insert("jobs", rec(1, 2, JobState::Running).row())
            .unwrap();
        db.insert("jobs", rec(2, 1, JobState::Queued).row())
            .unwrap();
        db.insert("jobs", rec(1, 3, JobState::Done).row()).unwrap();
        db.commit().unwrap();
        let recs = recover_records(&db).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].job_id, 1);
        assert_eq!(recs[0].state, JobState::Done);
        assert_eq!(recs[1].state, JobState::Queued);
    }

    #[test]
    fn recover_carries_first_payload_forward() {
        // The payload is persisted only on the first transition; later
        // rows carry it empty and the fold restores it.
        let db = Database::in_memory(flor_schema());
        db.insert("jobs", rec(1, 1, JobState::Queued).row())
            .unwrap();
        let mut progress = rec(1, 2, JobState::Running);
        progress.payload = String::new();
        db.insert("jobs", progress.row()).unwrap();
        db.commit().unwrap();
        let recs = recover_records(&db).unwrap();
        assert_eq!(recs[0].seq, 2);
        assert_eq!(recs[0].payload, "train.fl\u{1f}acc");
    }
}
