//! The job board: an incrementally maintained listing of every job's
//! latest state, fed by the store's change feed.
//!
//! This is the observability half of the scheduler, and it deliberately
//! reuses the flor-view machinery instead of re-inventing it: transition
//! rows arrive through a [`flor_store::Subscription`] exactly like log
//! rows do for materialized views, and the latest-wins fold per `job_id`
//! is a [`flor_view::LatestState`] keyed by the `seq` column. A consumer
//! that falls behind the feed's queue bound observes an epoch gap and
//! transparently rebuilds from a consistent snapshot — the same
//! slow-consumer discipline the view catalog applies.

use crate::job::{JobRecord, JobStats, JOB_COLS};
use flor_df::{DataFrame, Value};
use flor_store::{Database, StoreResult, Subscription};
use flor_view::LatestState;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

struct BoardInner {
    /// Created on first access so idle kernels don't queue deltas.
    sub: Option<Subscription>,
    /// Accumulated `jobs` transition rows, in commit order.
    frame: DataFrame,
    /// Latest-wins fold: per `job_id`, the rows at max `seq`.
    latest: LatestState,
    /// Per-job payload, persisted only on the first transition and
    /// carried forward into the latest-wins record here.
    payloads: HashMap<i64, String>,
    epoch: u64,
    rebuilds: u64,
}

/// An incrementally maintained `jobs`-table listing.
///
/// Cloning shares the same board (and its single feed subscription).
#[derive(Clone)]
pub struct JobBoard {
    db: Database,
    inner: Arc<Mutex<BoardInner>>,
}

impl JobBoard {
    /// A board over `db`'s `jobs` table.
    pub fn new(db: Database) -> JobBoard {
        JobBoard {
            db,
            inner: Arc::new(Mutex::new(BoardInner {
                sub: None,
                frame: DataFrame::new(),
                latest: LatestState::keyed(&["job_id"], "seq"),
                payloads: HashMap::new(),
                epoch: 0,
                rebuilds: 0,
            })),
        }
    }

    /// Every job's latest state, ordered by `job_id`.
    pub fn list(&self) -> StoreResult<Vec<JobRecord>> {
        let mut g = self.inner.lock();
        self.refresh(&mut g)?;
        let mut out: Vec<JobRecord> = g
            .latest
            .surviving_rows()
            .into_iter()
            .filter_map(|r| JobRecord::from_row(&row_at(&g.frame, r)))
            .collect();
        for rec in &mut out {
            if rec.payload.is_empty() {
                if let Some(p) = g.payloads.get(&rec.job_id) {
                    rec.payload = p.clone();
                }
            }
        }
        out.sort_by_key(|r| r.job_id);
        Ok(out)
    }

    /// Job counts by state.
    pub fn stats(&self) -> StoreResult<JobStats> {
        let mut stats = JobStats::default();
        for rec in self.list()? {
            stats.count(rec.state);
        }
        Ok(stats)
    }

    /// How many times a feed gap forced a snapshot rebuild.
    pub fn rebuilds(&self) -> u64 {
        self.inner.lock().rebuilds
    }

    /// Drain the feed into the maintained frame; rebuild on a gap.
    fn refresh(&self, g: &mut BoardInner) -> StoreResult<()> {
        if g.sub.is_none() {
            g.sub = Some(self.db.subscribe());
            return self.rebuild(g);
        }
        // audit: allow(panic) — the is_none branch above either filled
        // `sub` or returned, so it is Some here.
        let batches = g.sub.as_ref().expect("just checked").poll();
        for batch in &batches {
            if batch.epoch <= g.epoch {
                continue;
            }
            if batch.first_epoch() != g.epoch + 1 {
                // Slow consumer: the feed shed batches we never polled
                // (coalesced batches widen `span` instead, and stay
                // contiguous).
                return self.rebuild(g);
            }
            for delta in batch.deltas.iter() {
                if delta.table == "jobs" {
                    apply_row(g, &delta.row);
                }
            }
            g.epoch = batch.epoch;
        }
        Ok(())
    }

    /// Reset from an epoch-stamped consistent snapshot. Any commit newer
    /// than the snapshot is still queued on the subscription and will be
    /// applied as a delta (batches at or below the epoch are skipped).
    fn rebuild(&self, g: &mut BoardInner) -> StoreResult<()> {
        let snap = self.db.pin();
        let frame = snap.scan("jobs")?;
        let mut latest = LatestState::keyed(&["job_id"], "seq");
        let all: Vec<usize> = (0..frame.n_rows()).collect();
        latest.observe(&frame, &all);
        g.payloads.clear();
        for r in 0..frame.n_rows() {
            remember_payload(&mut g.payloads, &row_at(&frame, r));
        }
        g.frame = frame;
        g.latest = latest;
        g.epoch = snap.epoch();
        g.rebuilds += 1;
        Ok(())
    }
}

fn apply_row(g: &mut BoardInner, row: &[Value]) {
    if row.len() != JOB_COLS.len() {
        return;
    }
    remember_payload(&mut g.payloads, row);
    let entries: Vec<(&str, Value)> = JOB_COLS.iter().copied().zip(row.iter().cloned()).collect();
    g.frame.push_row(&entries);
    let pos = g.frame.n_rows() - 1;
    g.latest.observe(&g.frame, &[pos]);
}

/// Record a transition row's payload for its job (first non-empty wins).
fn remember_payload(payloads: &mut HashMap<i64, String>, row: &[Value]) {
    if row.len() != JOB_COLS.len() {
        return;
    }
    let (Some(job_id), payload) = (row[0].as_i64(), row[5].to_text()) else {
        return;
    };
    if !payload.is_empty() {
        payloads.entry(job_id).or_insert(payload);
    }
}

fn row_at(frame: &DataFrame, r: usize) -> Vec<Value> {
    JOB_COLS
        .iter()
        .map(|c| frame.get(r, c).cloned().unwrap_or(Value::Null))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, JobState};
    use flor_store::flor_schema;

    fn transition(job_id: JobId, seq: i64, state: JobState) -> Vec<Value> {
        JobRecord {
            job_id,
            seq,
            kind: "k".into(),
            priority: 0,
            state,
            payload: String::new(),
            units_total: 2,
            units_done: if state == JobState::Done { 2 } else { 0 },
            done_keys: Vec::new(),
            detail: String::new(),
        }
        .row()
    }

    #[test]
    fn board_tracks_latest_state_incrementally() {
        let db = Database::in_memory(flor_schema());
        let board = JobBoard::new(db.clone());
        assert!(board.list().unwrap().is_empty());
        db.insert("jobs", transition(1, 1, JobState::Queued))
            .unwrap();
        db.commit().unwrap();
        assert_eq!(board.list().unwrap()[0].state, JobState::Queued);
        db.insert("jobs", transition(1, 2, JobState::Running))
            .unwrap();
        db.insert("jobs", transition(2, 1, JobState::Queued))
            .unwrap();
        db.commit().unwrap();
        let listed = board.list().unwrap();
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[0].state, JobState::Running);
        let stats = board.stats().unwrap();
        assert_eq!((stats.running, stats.queued), (1, 1));
        assert_eq!(board.rebuilds(), 1, "only the initial snapshot build");
    }

    #[test]
    fn board_carries_payload_forward() {
        // The payload lands only on seq 1; the board restores it on the
        // latest record, both on the delta path and after a rebuild.
        let db = Database::in_memory(flor_schema());
        let board = JobBoard::new(db.clone());
        let mut rec = JobRecord {
            job_id: 3,
            seq: 1,
            kind: "k".into(),
            priority: 0,
            state: JobState::Queued,
            payload: "spec".into(),
            units_total: 1,
            units_done: 0,
            done_keys: Vec::new(),
            detail: String::new(),
        };
        db.insert("jobs", rec.row()).unwrap();
        db.commit().unwrap();
        board.list().unwrap();
        rec.seq = 2;
        rec.state = JobState::Done;
        rec.payload = String::new();
        db.insert("jobs", rec.row()).unwrap();
        db.commit().unwrap();
        let listed = board.list().unwrap();
        assert_eq!(listed[0].state, JobState::Done);
        assert_eq!(listed[0].payload, "spec");
        // A fresh board (snapshot rebuild path) agrees.
        let fresh = JobBoard::new(db.clone());
        assert_eq!(fresh.list().unwrap()[0].payload, "spec");
    }

    #[test]
    fn board_absorbs_batch_overflow_without_rebuild() {
        // Past the feed's batch-count bound the queue coalesces adjacent
        // batches instead of shedding, so the board keeps applying deltas
        // — no gap, no rebuild (only the initial snapshot build counts).
        use flor_store::feed::MAX_PENDING_BATCHES;
        let db = Database::in_memory(flor_schema());
        let board = JobBoard::new(db.clone());
        board.list().unwrap(); // subscribe
        for seq in 1..=(MAX_PENDING_BATCHES as i64 + 20) {
            db.insert("jobs", transition(1, seq, JobState::Running))
                .unwrap();
            db.commit().unwrap();
        }
        let listed = board.list().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].seq, MAX_PENDING_BATCHES as i64 + 20);
        assert_eq!(board.rebuilds(), 1, "coalescing keeps the feed gap-free");
    }

    #[test]
    fn board_rebuilds_once_on_feed_gap() {
        // Overflowing the queue's hard delta bound forces a shed; the
        // board detects the gap and rebuilds exactly once.
        use flor_store::feed::MAX_PENDING_DELTAS;
        let db = Database::in_memory(flor_schema());
        let board = JobBoard::new(db.clone());
        board.list().unwrap(); // subscribe
        let per_commit = 64i64;
        let commits = MAX_PENDING_DELTAS as i64 / per_commit + 40;
        let mut seq = 0i64;
        for _ in 0..commits {
            for _ in 0..per_commit {
                seq += 1;
                db.insert("jobs", transition(1, seq, JobState::Running))
                    .unwrap();
            }
            db.commit().unwrap();
        }
        let listed = board.list().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].seq, seq);
        assert_eq!(board.rebuilds(), 2, "one gap, one rebuild");
        // And deltas apply again afterwards.
        db.insert("jobs", transition(1, 999_999, JobState::Done))
            .unwrap();
        db.commit().unwrap();
        assert_eq!(board.list().unwrap()[0].state, JobState::Done);
        assert_eq!(board.rebuilds(), 2);
    }
}
