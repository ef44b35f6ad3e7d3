//! Maintained views: the pivot kept up to date as commits land, and
//! `latest` on top.
//!
//! A [`PivotState`] is one [`Pivot`] — the operator every answer comes
//! from ([`crate::pivot`]) — plus a projection. It is built by the
//! snapshot pivot ([`PivotState::at`], the code `Flor::execute_at` runs),
//! then caught up over each [`Delta`] — the `logs` rows later commits
//! added, which the catalog reads once from a fresh snapshot past its rid
//! watermark ([`flor_store::Snapshot::since`]) and pivots once into a
//! fragment under that snapshot's loop contexts — by the same merge and
//! the same [`Pivot`] write ([`PivotState::apply`]). It holds every
//! projected row: a plan's predicates run over it as a post-pass. A view
//! of fewer names can also be selected from a maintained one
//! ([`PivotState::select`]), from the first rids per name and row and the
//! per-name schema facts its [`Pivot`] keeps, instead of being built.
//! [`LatestState`] layers `flor.utils.latest` on top via a per-group-key
//! max-timestamp upsert.
//!
//! The invariant, enforced by `tests/prop_pivot.rs` (a catalog view
//! built on an empty database and caught up over one commit or many,
//! against a long-frame `DataFrame::pivot` reference) and
//! `tests/prop_view.rs` (kernel sessions, the view catalog and the
//! snapshot pivot against the same reference): the frame is
//! cell-for-cell the reference's — including column order, row order,
//! and nulls. The operator's own unit tests live here too, beside the
//! catch-up path that drives most of them.

use crate::pivot::{pivot_at, projected, Delta, Pivot};
use crate::plan::QueryPlan;
use flor_df::{DataFrame, DfResult, Value};
use flor_obs::ActiveTrace;
use flor_store::{Snapshot, StoreResult};
use std::collections::HashMap;
use std::sync::Arc;

/// The pivot of `logs ⋈ loops` projected onto a set of `value_name`s and
/// maintained as commits land: the pivot operator plus the projection.
/// It holds no epoch: whoever catches it up (the view catalog) keeps the
/// watermark.
#[derive(Debug, Clone)]
pub(crate) struct PivotState {
    /// The projected names, each once.
    names: Vec<Value>,
    pivot: Pivot,
}

impl PivotState {
    /// The view of `names` at `snap`: the snapshot pivot ([`pivot_at`])
    /// of the plan projecting `names`, with nothing pushed.
    pub(crate) fn at(snap: &Snapshot, names: &[String]) -> StoreResult<PivotState> {
        let plan = QueryPlan {
            names: names.to_vec(),
            ..QueryPlan::new(&[])
        };
        let (pivot, _) = pivot_at(snap, &plan, &mut ActiveTrace::new(false, None, ""))?;
        Ok(PivotState {
            names: projected(names),
            pivot,
        })
    }

    /// The view of `names`, each among this view's projected names,
    /// selected from this one ([`Pivot::select`]): the view the same
    /// builds and catch-ups would have made had they projected `names`,
    /// without merging history again.
    pub(crate) fn select(&self, names: &[String]) -> DfResult<PivotState> {
        let names = projected(names);
        Ok(PivotState {
            pivot: self.pivot.select(&names)?,
            names,
        })
    }

    /// Whether every name of `names` is among this view's.
    pub(crate) fn covers(&self, names: &[String]) -> bool {
        names
            .iter()
            .all(|n| self.names.iter().any(|m| m.as_str() == Some(n.as_str())))
    }

    /// The projected names, each once.
    pub(crate) fn names(&self) -> &[Value] {
        &self.names
    }

    /// Whether `col` is an index column of the maintained frame
    /// ([`Pivot::is_index`]).
    pub(crate) fn is_index_col(&self, col: &str) -> bool {
        self.pivot.is_index(col)
    }

    /// Shared snapshot of the maintained frame. Cheap (`Arc` clone).
    pub(crate) fn frame(&self) -> Arc<DataFrame> {
        self.pivot.frame()
    }

    /// Catch up over the `logs` rows commits after the view's snapshot
    /// added ([`Pivot::catch_up`]); only the projected names' cells are
    /// written. Returns the positions of rows added or updated,
    /// ascending. A value name colliding with an index column is
    /// [`flor_df::DfError::DuplicateColumn`], as a rebuild reports too.
    pub(crate) fn apply(&mut self, delta: &Delta) -> DfResult<Vec<usize>> {
        self.pivot.catch_up(delta, &self.names)
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
    pub(crate) fn new(group: &[String]) -> LatestState {
        LatestState {
            group: group.to_vec(),
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
    use flor_store::{flor_schema, Database};

    fn inert() -> ActiveTrace {
        ActiveTrace::new(false, None, "")
    }

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

    /// The view of `names` built on `db` while it is still empty, so
    /// every row reaches it through catch-up.
    fn empty_view(db: &Database, names: &[&str]) -> PivotState {
        let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        PivotState::at(&db.pin(), &names).unwrap()
    }

    /// Bring `view` from the `logs` rid watermark `at` up to a fresh pin
    /// of `db`, as the catalog does; the changed positions.
    fn catch_up(db: &Database, view: &mut PivotState, at: &mut usize) -> Vec<usize> {
        let delta = Delta::since(&db.pin(), *at).unwrap();
        *at = delta.next;
        view.apply(&delta).unwrap()
    }

    /// Insert `loops` rows, then `logs` rows, and commit.
    fn commit(db: &Database, loops: &[Vec<Value>], logs: &[Vec<Value>]) {
        for row in loops {
            db.insert("loops", row.clone()).unwrap();
        }
        for row in logs {
            db.insert("logs", row.clone()).unwrap();
        }
        db.commit().unwrap();
    }

    #[test]
    fn pivot_state_builds_and_applies() {
        let db = Database::in_memory(flor_schema());
        let mut at = 0;
        let mut view = empty_view(&db, &["loss", "acc"]);

        db.insert("logs", log_row(1, 0, "loss", "0.5", 3)).unwrap();
        db.insert("logs", log_row(1, 0, "acc", "0.9", 3)).unwrap();
        db.commit().unwrap();
        catch_up(&db, &mut view, &mut at);
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
        assert_eq!(catch_up(&db, &mut view, &mut at), vec![1]);
        let f = view.frame();
        assert_eq!(f.n_rows(), 2);
        assert_eq!(f.get(1, "acc"), Some(&Value::Null));
    }

    #[test]
    fn new_dimension_discovery_mid_stream() {
        let db = Database::in_memory(flor_schema());
        let mut view = empty_view(&db, &["loss"]);
        db.insert("logs", log_row(1, 0, "loss", "1", 2)).unwrap();
        db.commit().unwrap();
        db.insert("loops", loop_row(2, 7, 0, "epoch", 0, "0"))
            .unwrap();
        db.insert("logs", log_row(2, 7, "loss", "2", 2)).unwrap();
        db.commit().unwrap();
        catch_up(&db, &mut view, &mut 0);
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
    fn loop_rows_reresolve_the_contexts_they_change() {
        // Context 5 sits in loop "inner" under context 9, not known yet.
        let db = Database::in_memory(flor_schema());
        let (mut view, mut at) = (empty_view(&db, &["loss"]), 0);
        let mut write = |loops: Vec<Value>, ts: i64| {
            let logs = log_row(ts, 5, "loss", &ts.to_string(), 2);
            commit(&db, &[loops], &[logs]);
            catch_up(&db, &mut view, &mut at);
        };
        write(loop_row(1, 5, 9, "inner", 0, "0"), 1);
        // The missing link arrives: later rows see the outer loop...
        write(loop_row(1, 9, 0, "outer", 3, "3"), 2);
        // ...and a replaced context's new cells.
        write(loop_row(1, 9, 0, "outer", 4, "4"), 3);
        let f = view.frame();
        let outer: Vec<_> = (0..3).map(|r| f.get(r, "outer_iteration")).collect();
        let want = [Value::Null, Value::Int(3), Value::Int(4)];
        assert_eq!(outer, want.iter().map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn a_loop_row_completing_a_chain_widens_a_views_schema() {
        let db = Database::in_memory(flor_schema());
        let mut view = empty_view(&db, &["loss"]);
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
        let mut at = 0;
        catch_up(&db, &mut view, &mut at);
        // Context 9 ("top") arrives; another row under 5 names it.
        db.insert("loops", loop_row(2, 9, 0, "top", 0, "0"))
            .unwrap();
        db.insert("logs", log_row(2, 5, "loss", "3", 2)).unwrap();
        db.commit().unwrap();
        catch_up(&db, &mut view, &mut at);
        let built = PivotState::at(&db.pin(), &["loss".into()]).unwrap();
        let columns = built.frame().column_names().join(",");
        assert!(columns.contains("top_iteration,top_value"), "{columns}");
        assert_eq!(view.frame().column_names(), built.frame().column_names());
    }

    #[test]
    fn a_later_segment_redefining_a_link_reresolves_the_chains_through_it() {
        // Context 5 ("inner") under 9 ("outer", iteration 3), one row
        // logged under 5, then a later commit redefining 9 (iteration 4)
        // in a segment of its own; one catch-up over both.
        let db = Database::in_memory(flor_schema());
        let mut view = empty_view(&db, &["loss"]);
        let chain = [
            loop_row(1, 9, 0, "outer", 3, "3"),
            loop_row(1, 5, 9, "inner", 0, "0"),
        ];
        commit(&db, &chain, &[log_row(1, 5, "loss", "1", 2)]);
        commit(&db, &[loop_row(2, 9, 0, "outer", 4, "4")], &[]);
        catch_up(&db, &mut view, &mut 0);
        let outer = view.frame().get(0, "outer_iteration").cloned();
        assert_eq!(outer, Some(Value::Int(4)));
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
        let mut view = PivotState::at(&db.pin(), &["loss".into()]).unwrap();
        // A later commit redefines 9; a later row under 5 sees the new
        // cells.
        db.insert("loops", loop_row(2, 9, 0, "outer", 4, "4"))
            .unwrap();
        db.insert("logs", log_row(2, 5, "loss", "2", 2)).unwrap();
        db.commit().unwrap();
        catch_up(&db, &mut view, &mut 1);
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
            let (pivot, explain) =
                pivot_at(snap, &QueryPlan::new(&["loss"]), &mut inert()).unwrap();
            (pivot.frame().column_names().join(","), explain.fragments.1)
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
        let (pivot, _) = pivot_at(&snap, &QueryPlan::new(&["a", "b"]), &mut inert()).unwrap();
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
    fn a_fragment_made_before_a_late_parent_stays_reusable() {
        // Rows under 5, whose parent 9 ("top") arrives in a later commit,
        // and under 7, which no `loops` row ever defines.
        let db = Database::in_memory(flor_schema());
        let empty = empty_view(&db, &["loss"]);
        db.insert("loops", loop_row(1, 5, 9, "inner", 0, "0"))
            .unwrap();
        db.insert("logs", log_row(1, 5, "loss", "1", 2)).unwrap();
        db.insert("logs", log_row(1, 7, "loss", "2", 2)).unwrap();
        db.commit().unwrap();
        let plan = QueryPlan::new(&["loss"]);
        let run = |snap: &Snapshot| pivot_at(snap, &plan, &mut inert()).unwrap();
        let view = |db: &Database| {
            let mut view = empty.clone();
            catch_up(db, &mut view, &mut 0);
            view.frame()
        };
        // Their keys stay open: each query resolves them, so the
        // fragment is made once.
        let (first, explain) = run(&db.pin());
        assert_eq!(explain.fragments, (1, 2));
        assert_eq!(first.frame(), view(&db));
        assert_eq!(run(&db.pin()).1.fragments, (0, 0));
        db.insert("loops", loop_row(2, 9, 0, "top", 0, "0"))
            .unwrap();
        db.commit().unwrap();
        // Once the parent commits, the kept fragment resolves the whole
        // chain: no pin makes a fragment again.
        let (after, explain) = run(&db.pin());
        assert_eq!(explain.fragments, (0, 0));
        assert_eq!(after.frame(), view(&db));
        assert_eq!(after.frame().get(0, "top_iteration"), Some(&Value::Int(0)));
    }

    #[test]
    fn a_redefined_ctx_id_is_not_read_from_an_older_fragment() {
        let db = Database::in_memory(flor_schema());
        let mut view = empty_view(&db, &["loss"]);
        db.insert("loops", loop_row(1, 5, 0, "epoch", 0, "0"))
            .unwrap();
        db.insert("logs", log_row(1, 5, "loss", "1", 2)).unwrap();
        db.commit().unwrap();
        let plan = QueryPlan::new(&["loss"]);
        let run = |snap: &Snapshot| pivot_at(snap, &plan, &mut inert()).unwrap();
        assert_eq!(run(&db.pin()).1.fragments, (1, 1));
        // A raw writer defines 5 again: the kept fragment resolved the
        // old definition, so this snapshot pivots the segment anew.
        db.insert("loops", loop_row(2, 5, 0, "epoch", 1, "1"))
            .unwrap();
        db.commit().unwrap();
        let (pivot, explain) = run(&db.pin());
        assert_eq!(explain.fragments, (1, 1));
        catch_up(&db, &mut view, &mut 0);
        assert_eq!(pivot.frame(), view.frame());
        assert_eq!(view.frame().get(0, "epoch_iteration"), Some(&Value::Int(1)));
    }

    #[test]
    fn latest_state_per_key_upsert() {
        let mut frame = DataFrame::new();
        frame.push_row(&[("tstamp", 1.into()), ("doc_value", "a".into())]);
        frame.push_row(&[("tstamp", 2.into()), ("doc_value", "a".into())]);
        frame.push_row(&[("tstamp", 1.into()), ("doc_value", "b".into())]);
        let mut latest = LatestState::new(&["doc_value".to_string()]);
        latest.observe(&frame, &[0, 1, 2]);
        assert_eq!(latest.surviving_rows(), vec![1, 2]);
        // A newer row for "b" evicts the old one; ties keep both.
        frame.push_row(&[("tstamp", 5.into()), ("doc_value", "b".into())]);
        frame.push_row(&[("tstamp", 5.into()), ("doc_value", "b".into())]);
        latest.observe(&frame, &[3, 4]);
        assert_eq!(latest.surviving_rows(), vec![1, 3, 4]);
    }
}
