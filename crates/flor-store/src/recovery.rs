//! Recovery and follower tailing: rebuilding committed state from the
//! checkpoint sidecar plus the WAL — once at [`Database::open`], and
//! continuously on a read-only follower.
//!
//! # Durability
//!
//! Writes go to the [`crate::wal`] (staged inserts immediately,
//! visibility at the commit marker). Compaction itself writes nothing:
//! replaying the full WAL reproduces the uncompacted state, and the next
//! checkpoint captures the compacted one.
//!
//! # One replay
//!
//! The leader's open and a follower's bootstrap are the same computation
//! — `Replay`: seed the tables from the sidecar, drive every log record
//! through the one commit-marker fold ([`crate::wal::TxnFold`]), and seal
//! the rows it yields, **in commit-marker order**, in bounded chunks
//! ([`crate::segment::RECOVERED_SEGMENT_ROWS`]). They differ only in how
//! they read the log (the leader streams its own file; a follower reads
//! the writer's under the peek–read–peek guard) and in what they keep: a
//! follower holds on to the fold, because inserts it has read may commit
//! in a later poll. [`Database::poll_tail`] then feeds that fold one
//! chunk at a time and applies each yielded transaction through the same
//! `DbInner::apply_committed` a local [`Database::commit`] uses, so the
//! change feed sees one batch per commit on leader and follower alike.

use crate::checkpoint::{self, CheckpointData, SidecarMark};
use crate::codec::WalRecord;
use crate::db::{Database, StoreError, StoreResult};
use crate::schema::TableSchema;
use crate::segment::{append_chunked, TableVersion};
use crate::wal::{self, Folded, TailChunk, TxnFold};
use flor_df::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Recovery cost accounting for the most recent [`Database::open`] —
/// how much state came from the checkpoint sidecar versus WAL replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Whether a checkpoint sidecar seeded the tables.
    pub from_checkpoint: bool,
    /// Rows loaded directly from the sidecar (no per-record replay).
    pub checkpoint_rows: usize,
    /// WAL frames decoded during replay (the physical tail cost).
    pub wal_records_replayed: usize,
    /// Committed rows applied from the WAL tail.
    pub rows_replayed: usize,
}

/// A follower's cursor into the writer's log: where the next poll reads
/// from, which checkpoint the current table state was built on, and the
/// commit-marker fold carried across polls.
pub(crate) struct TailState {
    /// The writer's WAL path (the follower holds no open handle on it).
    path: PathBuf,
    /// Byte offset of the first unread frame.
    offset: u64,
    /// Identity of the sidecar the current state was bootstrapped from.
    /// A differing mark on disk means a checkpoint truncated the log:
    /// the offset is void and the follower re-bootstraps.
    sidecar: Option<SidecarMark>,
    /// The fold over everything read so far. It skips what the bootstrap
    /// sidecar covers and holds the inserts whose commit marker has not
    /// been seen yet: the writer appends staged rows immediately but they
    /// become visible only at the marker — a follower poll may see the
    /// insert frames polls before the commit frame.
    fold: TxnFold,
}

/// What one [`Database::poll_tail`] call applied.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TailProgress {
    /// Committed transactions applied by this poll.
    pub committed_txns: usize,
    /// Rows made visible by this poll.
    pub rows_applied: usize,
    /// Whether the poll found the log truncated by a checkpoint and
    /// rebuilt the whole state from the new sidecar instead of applying
    /// incrementally.
    pub rebootstrapped: bool,
    /// The follower's epoch after the poll.
    pub epoch: u64,
}

/// Committed state being rebuilt from a checkpoint plus a record stream
/// (see the module docs): [`Replay::new`] seeds it, [`Replay::push`]
/// folds one record, [`Replay::finish`] seals what the log added.
pub(crate) struct Replay {
    state: Replayed,
    fold: TxnFold,
    /// Replayed rows per table, in commit order. Sealed in one batch at
    /// the end (not per transaction), so reopen cost and segment layout
    /// are those of a bulk load.
    pending: HashMap<String, Vec<Vec<Value>>>,
}

/// What a finished [`Replay`] hands to the database constructor (or to a
/// follower re-bootstrap).
pub(crate) struct Replayed {
    pub tables: HashMap<String, Arc<TableVersion>>,
    /// Commits reflected: the checkpoint's epoch plus one per replayed
    /// transaction.
    pub epoch: u64,
    /// Epoch of the seeding checkpoint (0 without one).
    pub checkpoint_epoch: u64,
    /// Highest transaction id in the sidecar or the log, committed or
    /// not: uncommitted ids from a crashed process never commit later, so
    /// id allocation and the checkpoint coverage bound may safely advance
    /// past them.
    pub max_txn: u64,
    pub recovery: RecoveryInfo,
}

impl Replay {
    pub fn new(schemas: Vec<Arc<TableSchema>>, ckpt: Option<CheckpointData>) -> Replay {
        let mut tables: HashMap<String, Arc<TableVersion>> = schemas
            .into_iter()
            .map(|s| (s.name.clone(), Arc::new(TableVersion::empty(s))))
            .collect();
        let mut recovery = RecoveryInfo::default();
        let (epoch, base_txn) = match ckpt {
            Some(data) => {
                recovery.from_checkpoint = true;
                // Move the decoded rows straight into segments — the
                // sidecar decode is the only copy on the reopen path.
                for (name, rows) in data.tables {
                    recovery.checkpoint_rows += rows.len();
                    append_chunked(&mut tables, &name, rows);
                }
                (data.epoch, data.max_txn)
            }
            None => (0, 0),
        };
        Replay {
            state: Replayed {
                tables,
                epoch,
                checkpoint_epoch: epoch,
                max_txn: base_txn,
                recovery,
            },
            fold: TxnFold::new(base_txn),
            pending: HashMap::new(),
        }
    }

    /// Fold one log record. A stale record (only a log this system did
    /// not write has one when read from its start) is never re-applied.
    pub fn push(&mut self, rec: WalRecord) {
        self.state.recovery.wal_records_replayed += 1;
        if let Folded::Committed { rows, .. } = self.fold.push(rec) {
            self.state.epoch += 1;
            self.state.recovery.rows_replayed += rows.len();
            for (table, row) in rows {
                self.pending.entry(table).or_default().push(row);
            }
        }
    }

    /// Seal the replayed rows; the fold comes back for a follower to keep
    /// polling with.
    pub fn finish(mut self) -> (Replayed, TxnFold) {
        for (table, rows) in self.pending {
            append_chunked(&mut self.state.tables, &table, rows);
        }
        self.state.max_txn = self.fold.max_txn();
        (self.state, self.fold)
    }
}

/// Build follower state from the on-disk artifacts at `path`: load the
/// checkpoint sidecar, then replay every complete WAL frame from byte 0,
/// *retaining* the fold — and with it the uncommitted staged inserts,
/// which may commit in a later poll — in the tail cursor.
///
/// The read is guarded by a peek–read–peek protocol on the sidecar
/// header: the sidecar is replaced (atomic rename) *before* the WAL is
/// truncated, so if the mark is identical before and after the log read,
/// the log bytes we read belong to that sidecar's world — no checkpoint
/// truncation completed mid-read. A changed mark retries (bounded).
pub(crate) fn follower_bootstrap(
    path: &Path,
    schemas: Vec<Arc<TableSchema>>,
) -> StoreResult<(Replayed, TailState)> {
    for _attempt in 0..8 {
        let mark_before = checkpoint::peek_sidecar(path)?;
        let ckpt = checkpoint::load_sidecar(path)?;
        let chunk = wal::tail_from(path, 0)?;
        if checkpoint::peek_sidecar(path)? != mark_before {
            continue;
        }
        let TailChunk::Frames {
            records,
            new_offset,
        } = chunk
        else {
            // `Truncated` at offset 0 means unparseable bytes at the log
            // head — a rewrite racing this read. Retry.
            continue;
        };
        let mut replay = Replay::new(schemas.clone(), ckpt);
        for rec in records {
            replay.push(rec);
        }
        let (state, fold) = replay.finish();
        let tail = TailState {
            path: path.to_path_buf(),
            offset: new_offset,
            sidecar: mark_before,
            fold,
        };
        return Ok((state, tail));
    }
    Err(StoreError::Invalid(
        "follower bootstrap kept racing checkpoint truncation".into(),
    ))
}

impl Database {
    /// One follower poll: read the writer's log from the saved byte
    /// cursor and apply every newly committed transaction — sealing
    /// segments, bumping the epoch, and publishing change-feed batches
    /// exactly like a local [`Database::commit`] would. Staged inserts
    /// whose commit marker has not arrived yet are carried to the next
    /// poll (visibility stays commit-gated, same as recovery).
    ///
    /// If the writer checkpointed meanwhile (the sidecar identity
    /// changed, or the log no longer parses at the cursor), the follower
    /// discards its cursor and re-bootstraps wholesale from the new
    /// sidecar — `rebootstrapped` in the returned [`TailProgress`]. The
    /// epoch still only moves forward: the rebuilt state reflects at
    /// least every commit the follower had already applied.
    ///
    /// Errors with [`StoreError::Invalid`] on a non-follower handle.
    pub fn poll_tail(&self) -> StoreResult<TailProgress> {
        let (path, mark, offset) = {
            let g = self.inner.read();
            let Some(t) = &g.tail else {
                return Err(StoreError::Invalid(
                    "poll_tail on a non-follower database".into(),
                ));
            };
            (t.path.clone(), t.sidecar, t.offset)
        };
        // Peek–read–peek: the sidecar is replaced before the WAL is
        // truncated, so an unchanged mark on both sides of the read
        // proves no truncation completed while we were reading — the
        // frames are safe to apply at our cursor.
        if checkpoint::peek_sidecar(&path)? != mark {
            return self.follower_rebootstrap();
        }
        let chunk = wal::tail_from(&path, offset)?;
        if checkpoint::peek_sidecar(&path)? != mark {
            return self.follower_rebootstrap();
        }
        let TailChunk::Frames {
            records,
            new_offset,
        } = chunk
        else {
            return self.follower_rebootstrap();
        };
        let mut g = self.inner.write();
        // audit: allow(panic) — the follower check at fn entry returned
        // unless `tail` was Some; no other path clears it meanwhile.
        let mut tail = g.tail.take().expect("follower state checked above");
        let mut progress = TailProgress::default();
        let mut stale = false;
        // A differing offset means a concurrent poll already advanced the
        // cursor; there is nothing to do.
        if tail.offset == offset {
            for rec in records {
                match tail.fold.push(rec) {
                    Folded::Skip => {}
                    // The log was replaced under us in a way the mark
                    // checks missed. Rebuild rather than double-apply.
                    Folded::Stale => stale = true,
                    Folded::Committed { txn, rows } => {
                        progress.rows_applied += g.apply_committed(txn, rows).0;
                        progress.committed_txns += 1;
                    }
                }
            }
            tail.offset = new_offset;
        }
        progress.epoch = g.epoch;
        g.tail = Some(tail);
        drop(g);
        if stale {
            return self.follower_rebootstrap();
        }
        Ok(progress)
    }

    /// Rebuild the whole follower state from the sidecar + log currently
    /// on disk, replacing tables, watermarks, and the tail cursor. The
    /// epoch of the rebuilt state is at least the old epoch: the new
    /// sidecar covers a superset of the commits the follower had applied.
    fn follower_rebootstrap(&self) -> StoreResult<TailProgress> {
        let (path, schemas) = {
            let g = self.inner.read();
            let Some(t) = &g.tail else {
                return Err(StoreError::Invalid(
                    "poll_tail on a non-follower database".into(),
                ));
            };
            (
                t.path.clone(),
                g.tables
                    .values()
                    .map(|t| Arc::clone(&t.schema))
                    .collect::<Vec<_>>(),
            )
        };
        let (state, tail) = follower_bootstrap(&path, schemas)?;
        let mut g = self.inner.write();
        g.tables = Arc::new(state.tables);
        g.epoch = g.epoch.max(state.epoch);
        g.last_committed_txn = state.max_txn;
        g.next_txn = state.max_txn + 1;
        g.last_checkpoint_epoch = state.checkpoint_epoch;
        g.recovery = state.recovery;
        g.tail = Some(tail);
        let epoch = g.epoch;
        drop(g);
        self.metrics.registry.event_at(
            flor_obs::Level::Warn,
            "follower",
            format!("rebootstrapped at epoch {epoch}"),
        );
        Ok(TailProgress {
            committed_txns: 0,
            rows_applied: 0,
            rebootstrapped: true,
            epoch,
        })
    }

    /// Estimate how far this follower trails the writer: the number of
    /// committed transactions already durable in the writer's log but
    /// not yet applied here. `Ok(None)` on a non-follower handle, and
    /// also when the writer checkpointed since the last poll (the log
    /// was truncated under our cursor — the next [`Database::poll_tail`]
    /// re-bootstraps and the estimate becomes meaningful again).
    ///
    /// Read-only and racy by design: the log is peeked without touching
    /// follower state, so this is safe to call from a health probe while
    /// the poll thread runs.
    pub fn follower_lag(&self) -> StoreResult<Option<u64>> {
        let (path, offset, applied) = {
            let g = self.inner.read();
            let Some(t) = &g.tail else {
                return Ok(None);
            };
            (t.path.clone(), t.offset, t.fold.last_applied())
        };
        match wal::tail_from(&path, offset)? {
            TailChunk::Truncated => Ok(None),
            TailChunk::Frames { records, .. } => {
                // A throwaway fold based at what is already applied:
                // whatever it yields is what the next poll would commit.
                let mut pending = TxnFold::new(applied);
                let lag = records
                    .into_iter()
                    .map(|rec| pending.push(rec))
                    .filter(|folded| matches!(folded, Folded::Committed { .. }))
                    .count();
                Ok(Some(lag as u64))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{CmpOp, Predicate};
    use crate::segment::RECOVERED_SEGMENT_ROWS;
    use crate::testing::{temp_wal, tiny_schema};

    #[test]
    fn durability_across_reopen() {
        let path = temp_wal("durability");
        {
            let db = Database::open(&path, tiny_schema()).unwrap();
            db.insert("t", vec!["persisted".into(), 1.into()]).unwrap();
            db.commit().unwrap();
            db.insert("t", vec!["lost".into(), 2.into()]).unwrap();
            // no commit — simulates a crash
        }
        {
            let db = Database::open(&path, tiny_schema()).unwrap();
            let df = db.scan("t").unwrap();
            assert_eq!(df.n_rows(), 1);
            assert_eq!(df.get(0, "k"), Some(&Value::from("persisted")));
            // New transactions continue with fresh ids.
            db.insert("t", vec!["after".into(), 3.into()]).unwrap();
            db.commit().unwrap();
        }
        {
            let db = Database::open(&path, tiny_schema()).unwrap();
            assert_eq!(db.row_count("t").unwrap(), 2);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_makes_reopen_replay_only_the_tail() {
        let path = temp_wal("ckpt-tail");
        {
            let db = Database::open(&path, tiny_schema()).unwrap();
            for i in 0..20 {
                db.insert("t", vec![format!("k{i}").into(), i.into()])
                    .unwrap();
                db.commit().unwrap();
            }
            let stats = db.checkpoint().unwrap();
            assert_eq!(stats.epoch, 20);
            assert_eq!(stats.rows, 20);
            assert!(stats.wal_bytes_after < stats.wal_bytes_before);
            assert_eq!(stats.wal_bytes_after, 0, "no uncovered tail yet");
            // Two more commits land in the fresh tail.
            for i in 20..22 {
                db.insert("t", vec![format!("k{i}").into(), i.into()])
                    .unwrap();
                db.commit().unwrap();
            }
            assert_eq!(db.stats().checkpoints, 1);
            assert_eq!(db.stats().last_checkpoint_epoch, 20);
        }
        {
            let db = Database::open(&path, tiny_schema()).unwrap();
            assert_eq!(db.row_count("t").unwrap(), 22);
            assert_eq!(db.epoch(), 22);
            let info = db.recovery_info();
            assert!(info.from_checkpoint);
            assert_eq!(info.checkpoint_rows, 20);
            assert_eq!(info.rows_replayed, 2, "only the tail is replayed");
            assert_eq!(info.wal_records_replayed, 4); // 2 × (insert + commit)
                                                      // And the clock keeps going.
            db.insert("t", vec!["next".into(), 99.into()]).unwrap();
            db.commit().unwrap();
            assert_eq!(db.epoch(), 23);
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(crate::checkpoint::sidecar_path(&path));
    }

    #[test]
    fn crash_between_sidecar_write_and_truncate_converges() {
        let path = temp_wal("ckpt-crash");
        let want;
        {
            let db = Database::open(&path, tiny_schema()).unwrap();
            for i in 0..10 {
                db.insert("t", vec![format!("k{i}").into(), i.into()])
                    .unwrap();
                db.commit().unwrap();
            }
            // Sidecar written, WAL left un-truncated — the crash window.
            db.checkpoint_without_truncate().unwrap();
            db.insert("t", vec!["tail".into(), 10.into()]).unwrap();
            db.commit().unwrap();
            want = db.scan("t").unwrap();
        }
        {
            // Replay must not double-apply the checkpointed prefix.
            let db = Database::open(&path, tiny_schema()).unwrap();
            assert_eq!(db.scan("t").unwrap(), want);
            assert_eq!(db.epoch(), 11);
            let info = db.recovery_info();
            assert!(info.from_checkpoint);
            assert_eq!(info.rows_replayed, 1, "prefix skipped by txn bound");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(crate::checkpoint::sidecar_path(&path));
    }

    #[test]
    fn checkpoint_preserves_open_transaction_staged_inserts() {
        let path = temp_wal("ckpt-open-txn");
        {
            let db = Database::open(&path, tiny_schema()).unwrap();
            db.insert("t", vec!["committed".into(), 1.into()]).unwrap();
            db.commit().unwrap();
            // Open transaction with staged rows in the WAL, then checkpoint.
            db.insert("t", vec!["staged".into(), 2.into()]).unwrap();
            db.checkpoint().unwrap();
            // The staged insert survived the truncation: committing it
            // now must make it durable.
            db.commit().unwrap();
        }
        {
            let db = Database::open(&path, tiny_schema()).unwrap();
            assert_eq!(db.row_count("t").unwrap(), 2);
            let df = db.scan("t").unwrap();
            assert_eq!(df.get(1, "k"), Some(&Value::from("staged")));
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(crate::checkpoint::sidecar_path(&path));
    }

    #[test]
    fn epoch_advances_per_commit_and_survives_reopen() {
        let path = temp_wal("epoch");
        {
            let db = Database::open(&path, tiny_schema()).unwrap();
            for i in 0..3 {
                db.insert("t", vec![format!("k{i}").into(), i.into()])
                    .unwrap();
                db.commit().unwrap();
            }
            assert_eq!(db.epoch(), 3);
        }
        {
            let db = Database::open(&path, tiny_schema()).unwrap();
            assert_eq!(db.epoch(), 3);
            assert!(db.stats().wal_offset_bytes > 0);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopen_rebuilds_bounded_segments_so_zone_maps_keep_pruning() {
        // Regression: recovery used to seal each table as ONE monolithic
        // segment, whose history-wide min/max made zone maps useless
        // after every restart.
        let path = temp_wal("reopen-chunks");
        let n = RECOVERED_SEGMENT_ROWS as i64 * 3;
        {
            let db = Database::open(&path, tiny_schema()).unwrap();
            for i in 0..n {
                db.insert("t", vec![format!("k{i}").into(), i.into()])
                    .unwrap();
                if i % 1000 == 999 {
                    db.commit().unwrap();
                }
            }
            db.commit().unwrap();
            db.checkpoint().unwrap();
        }
        {
            let db = Database::open(&path, tiny_schema()).unwrap();
            assert!(db.recovery_info().from_checkpoint);
            assert_eq!(db.row_count("t").unwrap(), n as usize);
            let preds = vec![
                Predicate::new("v", CmpOp::Ge, 100),
                Predicate::new("v", CmpOp::Lt, 200),
            ];
            let (visited, total) = db.pin().zone_prune_stats("t", &preds).unwrap();
            assert!(total >= 3, "recovery sealed bounded chunks, got {total}");
            assert_eq!(visited, 1, "the window still prunes after reopen");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(crate::checkpoint::sidecar_path(&path));
    }
}
