//! Maintained views: the pivot kept up to date under change-feed
//! batches, and `latest` on top.
//!
//! A [`PivotState`] is one [`Pivot`] — the operator every answer comes
//! from ([`crate::pivot`]) — plus a projection, the view's pushdown
//! predicates and the epoch it reflects. It is built by the snapshot
//! pivot ([`PivotState::at`], the code `Flor::execute_at` runs), then
//! fed each commit's `logs` and `loops` rows ([`PivotState::apply`]).
//! [`LatestState`] layers `flor.utils.latest` on top via a per-group-key
//! max-timestamp upsert.
//!
//! The invariant, enforced by `tests/prop_pivot.rs` (a view fed a random
//! stream in one batch or many, against a long-frame `DataFrame::pivot`
//! reference) and `tests/prop_view.rs` (kernel sessions, the view
//! catalog and the snapshot pivot against the same reference): the frame
//! is cell-for-cell the reference's — including column order, row order,
//! and nulls. The operator's own unit tests live here too, beside the
//! feed path that drives most of them.

use crate::pivot::{pivot_at, text, LogRow, Pivot};
use crate::plan::{QueryPlan, FIXED_COLS as FIXED};
use flor_df::{DataFrame, DfError, DfResult, Value};
use flor_obs::ActiveTrace;
use flor_store::{CommitBatch, Predicate, RowDelta, Snapshot, StoreError, StoreResult};
use std::collections::HashMap;
use std::sync::Arc;

/// Why a delta batch could not be applied; the catalog reacts by falling
/// back to a full rebuild of the view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// Batches arrived out of order (a feed epoch was skipped).
    EpochGap {
        /// The view's current epoch.
        have: u64,
        /// The batch that arrived.
        got: u64,
    },
    /// A delta row does not match the expected table schema.
    Malformed(String),
    /// The pivot refused a row: a value name that collides with an index
    /// column ([`DfError::DuplicateColumn`]), which a rebuild reports too.
    Df(DfError),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::EpochGap { have, got } => {
                write!(f, "epoch gap: view at {have}, batch at {got}")
            }
            DeltaError::Malformed(m) => write!(f, "malformed delta: {m}"),
            DeltaError::Df(e) => write!(f, "pivot: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// The pivot of `logs ⋈ loops` projected onto a set of `value_name`s and
/// maintained under change-feed batches: the pivot operator plus the
/// projection, the view's pushdown predicates and the epoch it reflects.
#[derive(Debug, Clone)]
pub struct PivotState {
    names: Vec<String>,
    /// Pushdown predicates over the fixed context columns: the build's
    /// `logs` fetch joins them, and a fed row failing any of them is
    /// skipped at the upsert. Excluded rows still take part in schema
    /// discovery — the schema pass at the build, `Pivot::discover` for fed
    /// rows — because the from-scratch oracle's column set and order are
    /// determined by *all* matching-name rows, filtered or not. Fixed
    /// columns are part of the row key, so an excluded log row can never
    /// share a pivot row with an included one and last-write-wins stays
    /// intact.
    pushdown: Vec<Predicate>,
    pivot: Pivot,
    epoch: u64,
}

impl PivotState {
    /// Empty view at epoch `epoch` for the given projection, with
    /// pushdown predicates over the fixed context columns (see the
    /// `pushdown` field docs; `&[]` for an unfiltered view): the
    /// maintained frame holds only rows satisfying every predicate. The
    /// caller (the query planner's
    /// [`crate::QueryPlan::split_predicates`]) guarantees predicate
    /// columns are fixed context columns; a predicate over any other
    /// column conservatively matches nothing.
    pub fn filtered(names: &[&str], pushdown: &[Predicate], epoch: u64) -> PivotState {
        PivotState {
            names: names.iter().map(|s| s.to_string()).collect(),
            pushdown: pushdown.to_vec(),
            pivot: Pivot::default(),
            epoch,
        }
    }

    /// The view of `names` under `pushdown` at `snap`: the snapshot pivot
    /// ([`pivot_at`]) of the plan projecting `names` with `pushdown` as
    /// its predicates, so a filtered view's fetch reads only the rows the
    /// pushdown admits and its columns come from the schema pass. The
    /// pushdown must have joined the fetch — a pivot that came back with
    /// nothing pushed holds excluded rows — so that is checked, not
    /// assumed.
    pub(crate) fn at(
        snap: &Snapshot,
        names: &[String],
        pushdown: &[Predicate],
    ) -> StoreResult<PivotState> {
        let plan = QueryPlan {
            names: names.to_vec(),
            predicates: pushdown.to_vec(),
            ..QueryPlan::new(&[])
        };
        let (pivot, explain) = pivot_at(snap, &plan, &mut ActiveTrace::new(false, None, ""))?;
        if !pushdown.is_empty() && explain.schema.is_none() {
            return Err(StoreError::Invalid(format!(
                "view pushdown {pushdown:?} did not join the fetch"
            )));
        }
        Ok(PivotState {
            names: plan.names,
            pushdown: plan.predicates,
            pivot,
            epoch: snap.epoch(),
        })
    }

    /// Whether `col` is an index column of the maintained frame
    /// ([`Pivot::is_index`]).
    pub(crate) fn is_index_col(&self, col: &str) -> bool {
        self.pivot.is_index(col)
    }

    /// Shared snapshot of the maintained frame. Cheap (`Arc` clone).
    pub fn frame(&self) -> Arc<DataFrame> {
        self.pivot.frame()
    }

    /// Apply one commit batch. Returns the positions of rows added or
    /// updated (deduplicated, ascending). Batches at or below the view's
    /// epoch are skipped (already reflected by the snapshot the view was
    /// built from); a skipped-ahead epoch is an [`DeltaError::EpochGap`].
    pub fn apply(&mut self, batch: &CommitBatch) -> Result<Vec<usize>, DeltaError> {
        if batch.epoch <= self.epoch {
            return Ok(Vec::new());
        }
        // A coalesced batch spans `first_epoch()..=epoch`; it applies
        // cleanly only when its first commit is the view's next one. A
        // later first commit means batches were shed (an epoch gap); an
        // earlier one would straddle the view's snapshot — also a rebuild.
        if batch.first_epoch() != self.epoch + 1 {
            return Err(DeltaError::EpochGap {
                have: self.epoch,
                got: batch.first_epoch(),
            });
        }
        // Loop rows first: within a transaction a log row may reference a
        // ctx minted earlier in the same transaction, and the full-rebuild
        // oracle resolves chains against the complete loops table.
        for delta in batch.deltas.iter() {
            if delta.table == "loops" {
                self.pivot.insert_loop(&delta.row)?;
            }
        }
        let mut changed = Vec::new();
        for delta in batch.deltas.iter() {
            if delta.table == "logs" {
                let row = LogRow::from_slice(&delta.row)?;
                if let Some(pos) = self.apply_log_row(row).map_err(DeltaError::Df)? {
                    changed.push(pos);
                }
            }
        }
        self.epoch = batch.epoch;
        changed.sort_unstable();
        changed.dedup();
        Ok(changed)
    }

    /// Total deltas in `batch` this view would look at (logs + loops).
    pub(crate) fn relevant_deltas(batch: &CommitBatch) -> usize {
        batch
            .deltas
            .iter()
            .filter(|d: &&RowDelta| d.table == "logs" || d.table == "loops")
            .count()
    }

    /// One `logs` row: ignored unless the view projects its name;
    /// discovered whatever the pushdown says; written (and its position
    /// returned) only when every pushdown predicate admits it.
    fn apply_log_row(&mut self, row: LogRow<'_>) -> DfResult<Option<usize>> {
        let name = text(row.value_name);
        if !self.names.iter().any(|n| *n == *name) {
            return Ok(None);
        }
        let excluded = self
            .pushdown
            .iter()
            .any(|p| match FIXED.iter().position(|f| *f == p.col) {
                Some(i) => !p.matches(row.fixed[i]),
                None => true,
            });
        if excluded {
            self.pivot.discover(row.ctx_id, row.value_name)?;
            return Ok(None);
        }
        self.pivot.upsert(row).map(Some)
    }
}

/// Incremental `flor.utils.latest`: for each distinct group-key, keep the
/// rows carrying the maximum `tstamp`. Maintained by per-key upsert from
/// the pivot's changed-row reports.
#[derive(Debug, Clone)]
pub(crate) struct LatestState {
    group: Vec<String>,
    /// group key → (max `tstamp`, row positions at that value).
    best: HashMap<Vec<Value>, (Value, Vec<usize>)>,
}

impl LatestState {
    /// Empty state for the given group columns.
    pub(crate) fn new(group: &[&str]) -> LatestState {
        LatestState {
            group: group.iter().map(|s| s.to_string()).collect(),
            best: HashMap::new(),
        }
    }

    /// Observe added or upserted rows of the pivot frame (per-key upsert).
    pub(crate) fn observe(&mut self, frame: &DataFrame, added_rows: &[usize]) {
        for &r in added_rows {
            let key: Vec<Value> = self
                .group
                .iter()
                .map(|g| frame.get(r, g).cloned().unwrap_or(Value::Null))
                .collect();
            let ts = frame.get(r, "tstamp").cloned().unwrap_or(Value::Null);
            match self.best.get_mut(&key) {
                None => {
                    self.best.insert(key, (ts, vec![r]));
                }
                Some((max, rows)) => {
                    if ts > *max {
                        *max = ts;
                        rows.clear();
                        rows.push(r);
                    } else if ts == *max && !rows.contains(&r) {
                        // `changed` includes in-place upserts: a row already
                        // tracked at the max timestamp must not be pushed
                        // again, or the materialized view duplicates it.
                        rows.push(r);
                    }
                }
            }
        }
    }

    /// Row positions surviving the latest-filter, ascending — the rows a
    /// from-scratch `frame.latest(group, "tstamp")` would keep.
    pub(crate) fn surviving_rows(&self) -> Vec<usize> {
        let mut keep: Vec<usize> = self
            .best
            .values()
            .flat_map(|(_, rows)| rows.iter().copied())
            .collect();
        keep.sort_unstable();
        keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pivot::LoopContexts;
    use flor_store::{flor_schema, Database};

    fn log_row(ts: i64, ctx: i64, name: &str, value: &str, tag: i64) -> Vec<Value> {
        vec![
            "p".into(),
            ts.into(),
            "f.fl".into(),
            ctx.into(),
            name.into(),
            value.into(),
            tag.into(),
        ]
    }

    fn loop_row(ts: i64, ctx: i64, parent: i64, name: &str, iter: i64, val: &str) -> Vec<Value> {
        vec![
            "p".into(),
            ts.into(),
            "f.fl".into(),
            ctx.into(),
            parent.into(),
            name.into(),
            iter.into(),
            val.into(),
        ]
    }

    #[test]
    fn pivot_state_builds_and_applies() {
        let db = Database::in_memory(flor_schema());
        let sub = db.subscribe();
        let mut view = PivotState::filtered(&["loss", "acc"], &[], 0);

        db.insert("logs", log_row(1, 0, "loss", "0.5", 3)).unwrap();
        db.insert("logs", log_row(1, 0, "acc", "0.9", 3)).unwrap();
        db.commit().unwrap();
        for batch in sub.poll() {
            view.apply(&batch).unwrap();
        }
        let f = view.frame();
        assert_eq!(
            f.column_names(),
            vec!["projid", "tstamp", "filename", "loss", "acc"]
        );
        assert_eq!(f.n_rows(), 1);
        assert_eq!(f.get(0, "loss"), Some(&Value::Float(0.5)));

        // Second commit: new tstamp row plus a re-log (upsert) is additive.
        db.insert("logs", log_row(2, 0, "loss", "0.25", 3)).unwrap();
        db.commit().unwrap();
        for batch in sub.poll() {
            let changed = view.apply(&batch).unwrap();
            assert_eq!(changed, vec![1]);
        }
        let f = view.frame();
        assert_eq!(f.n_rows(), 2);
        assert_eq!(f.get(1, "acc"), Some(&Value::Null));
    }

    #[test]
    fn new_dimension_discovery_mid_stream() {
        let db = Database::in_memory(flor_schema());
        let sub = db.subscribe();
        let mut view = PivotState::filtered(&["loss"], &[], 0);
        db.insert("logs", log_row(1, 0, "loss", "1", 2)).unwrap();
        db.commit().unwrap();
        db.insert("loops", loop_row(2, 7, 0, "epoch", 0, "0"))
            .unwrap();
        db.insert("logs", log_row(2, 7, "loss", "2", 2)).unwrap();
        db.commit().unwrap();
        for batch in sub.poll() {
            view.apply(&batch).unwrap();
        }
        let f = view.frame();
        assert_eq!(
            f.column_names(),
            vec![
                "projid",
                "tstamp",
                "filename",
                "epoch_iteration",
                "epoch_value",
                "loss"
            ]
        );
        // The old row's late-added dimension cells are null.
        assert_eq!(f.get(0, "epoch_iteration"), Some(&Value::Null));
        assert_eq!(f.get(1, "epoch_iteration"), Some(&Value::Int(0)));
    }

    #[test]
    fn filtered_state_skips_rows_but_discovers_columns() {
        use flor_store::CmpOp;
        let db = Database::in_memory(flor_schema());
        let sub = db.subscribe();
        let mut view =
            PivotState::filtered(&["loss"], &[Predicate::new("tstamp", CmpOp::Gt, 1)], 0);
        // ts=1 fails the predicate but its loop dimension must still be
        // discovered (the oracle pivots all rows, then filters).
        db.insert("loops", loop_row(1, 5, 0, "epoch", 0, "0"))
            .unwrap();
        db.insert("logs", log_row(1, 5, "loss", "9", 2)).unwrap();
        db.insert("logs", log_row(2, 0, "loss", "1", 2)).unwrap();
        db.commit().unwrap();
        for batch in sub.poll() {
            let changed = view.apply(&batch).unwrap();
            assert_eq!(changed, vec![0], "only the ts=2 row materializes");
        }
        let f = view.frame();
        assert_eq!(
            f.column_names(),
            vec![
                "projid",
                "tstamp",
                "filename",
                "epoch_iteration",
                "epoch_value",
                "loss"
            ]
        );
        assert_eq!(f.n_rows(), 1);
        assert_eq!(f.get(0, "tstamp"), Some(&Value::Int(2)));
        // The excluded row's dimension cells stay null on the survivor.
        assert_eq!(f.get(0, "epoch_iteration"), Some(&Value::Null));
    }

    #[test]
    fn epoch_gap_detected() {
        let db = Database::in_memory(flor_schema());
        let sub = db.subscribe();
        let mut view = PivotState::filtered(&["x"], &[], 0);
        db.insert("logs", log_row(1, 0, "x", "1", 2)).unwrap();
        db.commit().unwrap();
        db.insert("logs", log_row(2, 0, "x", "2", 2)).unwrap();
        db.commit().unwrap();
        let batches = sub.poll();
        assert_eq!(batches.len(), 2);
        // Skip the first batch: the view must refuse the second.
        assert!(matches!(
            view.apply(&batches[1]),
            Err(DeltaError::EpochGap { have: 0, got: 2 })
        ));
        // And stale batches are ignored once the view catches up.
        view.apply(&batches[0]).unwrap();
        view.apply(&batches[1]).unwrap();
        assert!(view.apply(&batches[0]).unwrap().is_empty());
    }

    #[test]
    fn loop_rows_reresolve_the_contexts_they_change() {
        // Context 5 sits in loop "inner" under context 9, not known yet.
        let mut pivot = Pivot::default();
        let write = |pivot: &mut Pivot, ts: i64| {
            let row = log_row(ts, 5, "loss", &ts.to_string(), 2);
            pivot.upsert(LogRow::from_slice(&row).unwrap()).unwrap();
        };
        pivot
            .insert_loop(&loop_row(1, 5, 9, "inner", 0, "0"))
            .unwrap();
        write(&mut pivot, 1);
        // The missing link arrives: later rows see the outer loop...
        pivot
            .insert_loop(&loop_row(1, 9, 0, "outer", 3, "3"))
            .unwrap();
        write(&mut pivot, 2);
        // ...and a replaced context's new cells.
        pivot
            .insert_loop(&loop_row(1, 9, 0, "outer", 4, "4"))
            .unwrap();
        write(&mut pivot, 3);
        let f = pivot.frame();
        let outer: Vec<_> = (0..3).map(|r| f.get(r, "outer_iteration")).collect();
        let want = [Value::Null, Value::Int(3), Value::Int(4)];
        assert_eq!(outer, want.iter().map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn a_loop_row_completing_a_chain_widens_a_views_schema() {
        use flor_store::CmpOp;
        // The pushdown excludes every row, so each is only discovered.
        let pushdown = [Predicate::new("tstamp", CmpOp::Gt, 100)];
        let db = Database::in_memory(flor_schema());
        let sub = db.subscribe();
        let mut view = PivotState::filtered(&["loss"], &pushdown, 0);
        // Context 7 ("inner") under 8 ("outer"); context 5 ("inner")
        // under 9, not known yet.
        for row in [
            loop_row(1, 8, 0, "outer", 0, "0"),
            loop_row(1, 7, 8, "inner", 0, "0"),
            loop_row(1, 5, 9, "inner", 1, "1"),
        ] {
            db.insert("loops", row).unwrap();
        }
        db.insert("logs", log_row(1, 7, "loss", "1", 2)).unwrap();
        db.insert("logs", log_row(1, 5, "loss", "2", 2)).unwrap();
        db.commit().unwrap();
        // Context 9 ("top") arrives; another row under 5 names it.
        db.insert("loops", loop_row(2, 9, 0, "top", 0, "0"))
            .unwrap();
        db.insert("logs", log_row(2, 5, "loss", "3", 2)).unwrap();
        db.commit().unwrap();
        for batch in sub.poll() {
            view.apply(&batch).unwrap();
        }
        let built = PivotState::at(&db.pin(), &["loss".into()], &pushdown).unwrap();
        let columns = built.frame().column_names().join(",");
        assert!(columns.contains("top_iteration,top_value"), "{columns}");
        assert_eq!(view.frame().column_names(), built.frame().column_names());
    }

    /// Context 5 ("inner") under 9 ("outer", iteration 3), one row
    /// logged under 5, then a later commit redefining 9 (iteration 4) in
    /// a segment of its own.
    fn redefined_parent() -> Database {
        let db = Database::in_memory(flor_schema());
        db.insert("loops", loop_row(1, 9, 0, "outer", 3, "3"))
            .unwrap();
        db.insert("loops", loop_row(1, 5, 9, "inner", 0, "0"))
            .unwrap();
        db.insert("logs", log_row(1, 5, "loss", "1", 2)).unwrap();
        db.commit().unwrap();
        db.insert("loops", loop_row(2, 9, 0, "outer", 4, "4"))
            .unwrap();
        db.commit().unwrap();
        db
    }

    #[test]
    fn a_later_segment_redefining_a_link_reresolves_the_chains_through_it() {
        let db = redefined_parent();
        let snap = db.pin();
        let mut pivot = Pivot::new(LoopContexts::of(&snap).unwrap());
        let ctx = pivot.ctx(&Value::Int(5)).unwrap();
        assert_eq!(ctx.cell("outer_iteration"), &Value::Int(4));
    }

    #[test]
    fn a_fed_row_redefining_a_sealed_context_reresolves_it() {
        // Context 5 ("inner") under 9 ("outer", iteration 3), sealed.
        let db = Database::in_memory(flor_schema());
        db.insert("loops", loop_row(1, 9, 0, "outer", 3, "3"))
            .unwrap();
        db.insert("loops", loop_row(1, 5, 9, "inner", 0, "0"))
            .unwrap();
        db.insert("logs", log_row(1, 5, "loss", "1", 2)).unwrap();
        db.commit().unwrap();
        let sub = db.subscribe();
        let mut view = PivotState::at(&db.pin(), &["loss".into()], &[]).unwrap();
        // The feed redefines 9; a later row under 5 sees the new cells.
        db.insert("loops", loop_row(2, 9, 0, "outer", 4, "4"))
            .unwrap();
        db.insert("logs", log_row(2, 5, "loss", "2", 2)).unwrap();
        db.commit().unwrap();
        for batch in sub.poll() {
            view.apply(&batch).unwrap();
        }
        let frame = view.frame();
        assert_eq!(frame.get(0, "outer_iteration"), Some(&Value::Int(3)));
        assert_eq!(frame.get(1, "outer_iteration"), Some(&Value::Int(4)));
    }

    #[test]
    fn an_older_snapshot_does_not_reuse_a_newer_ones_schema_summary() {
        // Row under 5, whose parent 9 ("top") arrives in a later commit.
        let db = Database::in_memory(flor_schema());
        db.insert("loops", loop_row(1, 5, 9, "inner", 0, "0"))
            .unwrap();
        db.insert("logs", log_row(1, 5, "loss", "1", 2)).unwrap();
        db.commit().unwrap();
        let old = db.pin();
        db.insert("loops", loop_row(2, 9, 0, "top", 0, "0"))
            .unwrap();
        db.commit().unwrap();
        let columns = |snap: &Snapshot| {
            let mut pivot = Pivot::new(LoopContexts::of(snap).unwrap());
            let rows = pivot.discover_all(snap, &["loss".to_string()]).unwrap();
            (pivot.frame().column_names().join(","), rows)
        };
        // The newer snapshot summarises the `logs` segment with the
        // whole chain; the older one lacks the link and must not use it.
        let top = "projid,tstamp,filename,top_iteration,top_value,inner_iteration,inner_value,loss";
        assert_eq!(columns(&db.pin()), (top.to_string(), 1));
        let inner = "projid,tstamp,filename,inner_iteration,inner_value,loss";
        assert_eq!(columns(&old), (inner.to_string(), 1));
        assert_eq!(columns(&db.pin()), (top.to_string(), 0));
    }

    #[test]
    fn the_schema_pass_orders_columns_by_rid_not_by_segment() {
        // "b" is first logged after "a", at an older `tstamp`.
        let db = Database::in_memory(flor_schema());
        db.insert("loops", loop_row(9, 7, 0, "x", 0, "0")).unwrap();
        db.insert("loops", loop_row(1, 8, 0, "y", 0, "0")).unwrap();
        db.insert("logs", log_row(9, 7, "a", "1", 2)).unwrap();
        db.insert("logs", log_row(1, 8, "b", "2", 2)).unwrap();
        db.commit().unwrap();
        // A clustered compaction into one-row segments puts "b" first.
        let policy = flor_store::CompactionPolicy {
            target_segment_rows: 1,
            ..Default::default()
        };
        db.compact_with(&policy).unwrap();
        let snap = db.pin();
        let first = snap.scan("logs").unwrap();
        assert_eq!(first.get(0, "value_name"), Some(&Value::from("a")));
        let mut pivot = Pivot::new(LoopContexts::of(&snap).unwrap());
        let names = ["a".to_string(), "b".to_string()];
        pivot.discover_all(&snap, &names).unwrap();
        assert_eq!(
            pivot.frame().column_names(),
            [
                "projid",
                "tstamp",
                "filename",
                "x_iteration",
                "x_value",
                "y_iteration",
                "y_value",
                "a",
                "b"
            ]
        );
    }

    #[test]
    fn malformed_rows_rejected() {
        assert!(LogRow::from_slice(&["p".into()]).is_err());
        let mut pivot = Pivot::new(LoopContexts::default());
        assert!(pivot.insert_loop(&["p".into()]).is_err());
    }

    #[test]
    fn latest_state_per_key_upsert() {
        let mut frame = DataFrame::new();
        frame.push_row(&[("tstamp", 1.into()), ("doc_value", "a".into())]);
        frame.push_row(&[("tstamp", 2.into()), ("doc_value", "a".into())]);
        frame.push_row(&[("tstamp", 1.into()), ("doc_value", "b".into())]);
        let mut latest = LatestState::new(&["doc_value"]);
        latest.observe(&frame, &[0, 1, 2]);
        assert_eq!(latest.surviving_rows(), vec![1, 2]);
        // A newer row for "b" evicts the old one; ties keep both.
        frame.push_row(&[("tstamp", 5.into()), ("doc_value", "b".into())]);
        frame.push_row(&[("tstamp", 5.into()), ("doc_value", "b".into())]);
        latest.observe(&frame, &[3, 4]);
        assert_eq!(latest.surviving_rows(), vec![1, 3, 4]);
    }
}
