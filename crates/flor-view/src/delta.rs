//! Delta operators: incremental maintenance of the pivoted context view.
//!
//! [`PivotState`] holds the wide `flor.dataframe` result and applies
//! change-feed batches to it instead of rebuilding. Per log row the work
//! is: resolve the loop-context chain against a cumulative ctx map
//! (incremental join with `loops`), widen the schema if the row carries a
//! never-seen loop dimension or `value_name` (new-column discovery), and
//! upsert one cell keyed by the row's index tuple (incremental
//! group-by/pivot). [`LatestState`] layers `flor.utils.latest` on top via
//! a per-group-key max-timestamp upsert.
//!
//! The invariant, enforced by `tests/prop_view.rs` against the kernel's
//! from-scratch recompute as oracle: after any interleaving of inserts,
//! commits and backfills, the maintained frame is cell-for-cell identical
//! to a full rebuild — including column order, row order, and nulls.

use crate::plan::FIXED_COLS as FIXED;
use flor_df::{Column, DataFrame, DataType, Value};
use flor_store::{CommitBatch, Predicate, RowDelta};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

// Column positions in the Fig. 1 `logs` and `loops` schemas.
const LOG_PROJID: usize = 0;
const LOG_TSTAMP: usize = 1;
const LOG_FILENAME: usize = 2;
const LOG_CTX: usize = 3;
const LOG_NAME: usize = 4;
const LOG_VALUE: usize = 5;
const LOG_TYPE: usize = 6;
const LOG_ARITY: usize = 7;
const LOOP_CTX: usize = 3;
const LOOP_PARENT: usize = 4;
const LOOP_NAME: usize = 5;
const LOOP_ITER: usize = 6;
const LOOP_VALUE: usize = 7;
const LOOP_ARITY: usize = 8;

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
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::EpochGap { have, got } => {
                write!(f, "epoch gap: view at {have}, batch at {got}")
            }
            DeltaError::Malformed(m) => write!(f, "malformed delta: {m}"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// A logged cell as the pivot shows it: the `logs.value` text re-read as
/// its `value_type` tag — `Value::from_text(&value.to_text(), tag)`
/// without the intermediate `String`. A `Str` cell tagged `Str` shares
/// its `Arc`; other tags parse the borrowed text.
pub fn logged_value(value: &Value, tag: &Value) -> Value {
    let ty = DataType::from_tag(tag.as_i64().unwrap_or(DataType::Str.tag()));
    match (value, ty) {
        (Value::Str(s), DataType::Str) => Value::Str(Arc::clone(s)),
        (Value::Str(s), ty) => Value::from_text(s, ty),
        (other, ty) => Value::from_text(&other.to_text(), ty),
    }
}

/// `v.to_text()`, borrowed when `v` already is text (`logs` and `loops`
/// keep their names and text in `Str` columns, so that is every real
/// row).
fn text(v: &Value) -> Cow<'_, str> {
    match v {
        Value::Str(s) => Cow::Borrowed(s),
        other => Cow::Owned(other.to_text()),
    }
}

/// One loop-dimension cell of a pivot row: its column name
/// (`{loop}_iteration` or `{loop}_value`) and value.
pub type Dim = (Arc<str>, Value);

#[derive(Debug, Clone)]
struct LoopCtx {
    parent: i64,
    /// `{loop}_iteration` and `{loop}_value`, shared by every context of
    /// the same loop.
    cols: (Arc<str>, Arc<str>),
    iteration: Value,
    value: Value,
}

/// The `loops` table as a `ctx_id` → context map: what turns a log row's
/// `ctx_id` into its loop-dimension cells. The incremental view feeds it
/// row by row (a cumulative join state); the kernel's snapshot executor
/// builds one from a snapshot's `loops`. Dimension column names are
/// built once per loop name, not per row.
#[derive(Debug, Clone, Default)]
pub struct LoopContexts {
    ctx: HashMap<i64, LoopCtx>,
    cols: HashMap<Arc<str>, (Arc<str>, Arc<str>)>,
}

impl LoopContexts {
    /// Every context in a `loops` frame (columns looked up by name; a
    /// missing column reads as nulls), later rows replacing earlier ones
    /// with the same `ctx_id`.
    pub fn from_frame(loops: &DataFrame) -> LoopContexts {
        let col = |name: &str| loops.column(name).map(|c| c.values.as_slice());
        let cols = [
            col("ctx_id"),
            col("parent_ctx_id"),
            col("loop_name"),
            col("loop_iteration"),
            col("iteration_value"),
        ];
        let cell = |c: usize, i: usize| cols[c].map_or(&Value::Null, |vals| &vals[i]);
        let mut out = LoopContexts::default();
        out.ctx.reserve(loops.n_rows());
        for i in 0..loops.n_rows() {
            out.insert(cell(0, i), cell(1, i), cell(2, i), cell(3, i), cell(4, i));
        }
        out
    }

    /// Add (or replace) one context.
    fn insert(
        &mut self,
        ctx_id: &Value,
        parent: &Value,
        loop_name: &Value,
        iteration: &Value,
        value: &Value,
    ) {
        let name = text(loop_name);
        let cols = match self.cols.get(name.as_ref()) {
            Some(cols) => cols.clone(),
            None => {
                let cols: (Arc<str>, Arc<str>) = (
                    format!("{name}_iteration").into(),
                    format!("{name}_value").into(),
                );
                self.cols.insert(name.as_ref().into(), cols.clone());
                cols
            }
        };
        let value = match value {
            Value::Str(s) => Value::Str(Arc::clone(s)),
            other => Value::from(other.to_text()),
        };
        self.ctx.insert(
            ctx_id.as_i64().unwrap_or(0),
            LoopCtx {
                parent: parent.as_i64().unwrap_or(0),
                cols,
                iteration: Value::Int(iteration.as_i64().unwrap_or(0)),
                value,
            },
        );
    }

    /// The loop-dimension cells of a row logged under `ctx_id`: two per
    /// enclosing loop, outermost loop first. A missing link truncates the
    /// chain there; a loop nested in a loop of the same name repeats its
    /// columns, and readers take the first (outermost) occurrence.
    pub fn dims(&self, ctx_id: i64) -> Vec<Dim> {
        let mut dims: Vec<Dim> = self
            .chain(ctx_id)
            .flat_map(|c| {
                [
                    (Arc::clone(&c.cols.1), c.value.clone()),
                    (Arc::clone(&c.cols.0), c.iteration.clone()),
                ]
            })
            .collect();
        dims.reverse();
        dims
    }

    /// The column names of [`LoopContexts::dims`] without their cells,
    /// innermost loop first and without allocating — what a schema needs.
    pub fn dim_names(&self, ctx_id: i64) -> impl Iterator<Item = &Arc<str>> {
        self.chain(ctx_id).flat_map(|c| [&c.cols.0, &c.cols.1])
    }

    /// The contexts enclosing a row logged under `ctx_id`, innermost
    /// first, up to the outermost loop or the first missing link.
    fn chain(&self, ctx_id: i64) -> impl Iterator<Item = &LoopCtx> {
        let mut cur = ctx_id;
        std::iter::from_fn(move || {
            if cur == 0 {
                return None;
            }
            let c = self.ctx.get(&cur)?;
            cur = c.parent;
            Some(c)
        })
    }
}

/// Incrementally maintained pivoted view over `logs ⋈ loops`, projected
/// onto a set of requested `value_name`s.
#[derive(Debug, Clone)]
pub struct PivotState {
    names: Vec<String>,
    /// Pushdown predicates over the fixed context columns, enforced at
    /// materialization time: rows failing any predicate are skipped at the
    /// upsert — but still participate in schema discovery, because the
    /// from-scratch oracle's column set and order are determined by *all*
    /// matching-name rows, filtered or not. Fixed columns are part of the
    /// row key, so an excluded log row can never share a pivot row with an
    /// included one and last-write-wins stays intact.
    pushdown: Vec<Predicate>,
    /// Cumulative loop-context map (incremental join state).
    ctx: LoopContexts,
    /// Dimension columns after the three fixed ones, in first-seen order —
    /// the same order a from-scratch long-frame build discovers them.
    dim_cols: Vec<Arc<str>>,
    /// Index tuple (fixed + dims, nulls for absent dims) → row position.
    row_pos: HashMap<Vec<Value>, usize>,
    /// The maintained wide frame. Shared out to readers; deltas mutate in
    /// place via `Arc::make_mut` (copy-on-write only while a reader still
    /// holds an old snapshot).
    frame: Arc<DataFrame>,
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
            ctx: LoopContexts::default(),
            dim_cols: Vec::new(),
            row_pos: HashMap::new(),
            frame: Arc::new(DataFrame::new()),
            epoch,
        }
    }

    /// Build from a consistent `(epoch, logs, loops)` snapshot by feeding
    /// every historical row through the same delta path a live batch
    /// takes. Insertion order is preserved, so the result is identical to
    /// an incremental build that watched the log grow row by row.
    /// `pushdown` as in [`PivotState::filtered`].
    pub fn from_snapshot_filtered(
        names: &[&str],
        pushdown: &[Predicate],
        epoch: u64,
        logs: &DataFrame,
        loops: &DataFrame,
    ) -> Result<PivotState, DeltaError> {
        let mut state = PivotState::filtered(names, pushdown, epoch);
        state.ctx = LoopContexts::from_frame(loops);
        for row in logs.rows() {
            state.apply_log_row(&row.to_vec())?;
        }
        Ok(state)
    }

    /// The epoch this view reflects.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The requested projection.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Whether `col` is an index column of the maintained frame — one of
    /// the three fixed context columns or a discovered loop dimension.
    /// Index cells are written once when their row is created and never
    /// rewritten by an upsert; value columns can be.
    pub fn is_index_col(&self, col: &str) -> bool {
        FIXED.contains(&col) || self.dim_cols.iter().any(|d| **d == *col)
    }

    /// Shared snapshot of the maintained frame. Cheap (`Arc` clone).
    pub fn frame(&self) -> Arc<DataFrame> {
        Arc::clone(&self.frame)
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
                self.apply_loop_row(&delta.row)?;
            }
        }
        let mut changed = Vec::new();
        for delta in batch.deltas.iter() {
            if delta.table == "logs" {
                if let Some(pos) = self.apply_log_row(&delta.row)? {
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
    pub fn relevant_deltas(batch: &CommitBatch) -> usize {
        batch
            .deltas
            .iter()
            .filter(|d: &&RowDelta| d.table == "logs" || d.table == "loops")
            .count()
    }

    fn apply_loop_row(&mut self, row: &[Value]) -> Result<(), DeltaError> {
        if row.len() != LOOP_ARITY {
            return Err(DeltaError::Malformed(format!(
                "loops row has {} columns, expected {LOOP_ARITY}",
                row.len()
            )));
        }
        self.ctx.insert(
            &row[LOOP_CTX],
            &row[LOOP_PARENT],
            &row[LOOP_NAME],
            &row[LOOP_ITER],
            &row[LOOP_VALUE],
        );
        Ok(())
    }

    fn apply_log_row(&mut self, row: &[Value]) -> Result<Option<usize>, DeltaError> {
        if row.len() != LOG_ARITY {
            return Err(DeltaError::Malformed(format!(
                "logs row has {} columns, expected {LOG_ARITY}",
                row.len()
            )));
        }
        let name = text(&row[LOG_NAME]);
        let name = name.as_ref();
        if !self.names.iter().any(|n| n == name) {
            return Ok(None);
        }
        // The same chain resolution and value decoding the kernel's
        // from-scratch executor uses.
        let dims = self.ctx.dims(row[LOG_CTX].as_i64().unwrap_or(0));
        let value = logged_value(&row[LOG_VALUE], &row[LOG_TYPE]);

        let frame = Arc::make_mut(&mut self.frame);
        // Schema discovery below runs for every projected log row — even
        // one the pushdown gate will exclude — because the from-scratch
        // oracle's column set and column order are determined by all
        // matching-name rows, filtered or not.
        if frame.n_cols() == 0 {
            for f in FIXED {
                frame
                    .add_column(Column {
                        name: f.to_string(),
                        values: Vec::new(),
                    })
                    // audit: allow(panic) — the frame has zero columns, so
                    // adding a fresh named column cannot collide or mismatch.
                    .expect("empty frame accepts the fixed columns");
            }
        }
        // New-dimension discovery: a never-seen loop name widens the index
        // region (inserted before the value columns, nulls backfilled) and
        // extends every existing index key with a null.
        for (d, _) in &dims {
            if !self.dim_cols.contains(d) {
                let pos = FIXED.len() + self.dim_cols.len();
                frame
                    .insert_column(
                        pos,
                        Column {
                            name: d.to_string(),
                            values: vec![Value::Null; frame.n_rows()],
                        },
                    )
                    .map_err(|e| DeltaError::Malformed(e.to_string()))?;
                self.dim_cols.push(Arc::clone(d));
                self.row_pos = self
                    .row_pos
                    .drain()
                    .map(|(mut key, pos)| {
                        key.push(Value::Null);
                        (key, pos)
                    })
                    .collect();
            }
        }
        // New-column discovery for the value: appended after all existing
        // columns, in first-seen order of value_name.
        if frame.column(name).is_none() {
            frame
                .add_column(Column {
                    name: name.to_string(),
                    values: vec![Value::Null; frame.n_rows()],
                })
                .map_err(|e| DeltaError::Malformed(e.to_string()))?;
        }
        // Pushdown gate: rows failing a maintained predicate are excluded
        // from materialization (discovery above already happened). The
        // predicate columns are fixed context columns by caller contract;
        // anything else conservatively matches nothing.
        let excluded = self.pushdown.iter().any(|p| {
            let cell = match p.col.as_str() {
                c if c == FIXED[0] => &row[LOG_PROJID],
                c if c == FIXED[1] => &row[LOG_TSTAMP],
                c if c == FIXED[2] => &row[LOG_FILENAME],
                _ => return true,
            };
            !p.matches(cell)
        });
        if excluded {
            return Ok(None);
        }
        // Upsert keyed by the index tuple.
        let mut key: Vec<Value> = vec![
            row[LOG_PROJID].clone(),
            row[LOG_TSTAMP].clone(),
            row[LOG_FILENAME].clone(),
        ];
        for d in &self.dim_cols {
            let v = dims
                .iter()
                .find(|(n, _)| n == d)
                .map(|(_, v)| v.clone())
                .unwrap_or(Value::Null);
            key.push(v);
        }
        match self.row_pos.get(&key) {
            Some(&pos) => {
                // Same context re-logged the value: last write wins.
                frame
                    .set_cell(pos, name, value)
                    .map_err(|e| DeltaError::Malformed(e.to_string()))?;
                Ok(Some(pos))
            }
            None => {
                let mut entries: Vec<(&str, Value)> = vec![
                    (FIXED[0], row[LOG_PROJID].clone()),
                    (FIXED[1], row[LOG_TSTAMP].clone()),
                    (FIXED[2], row[LOG_FILENAME].clone()),
                ];
                for (d, v) in &dims {
                    entries.push((d, v.clone()));
                }
                entries.push((name, value));
                frame.push_row(&entries);
                let pos = frame.n_rows() - 1;
                self.row_pos.insert(key, pos);
                Ok(Some(pos))
            }
        }
    }
}

/// Incremental `flor.utils.latest`: for each distinct group-key, keep the
/// rows carrying the maximum `tstamp`. Maintained by per-key upsert from
/// the pivot's changed-row reports.
#[derive(Debug, Clone)]
pub struct LatestState {
    group: Vec<String>,
    /// The column whose maximum decides the winner per group key
    /// (`tstamp` for log views; `seq` for the flor-jobs board).
    ts_col: String,
    /// group key → (max ts_col value, row positions at that value).
    best: HashMap<Vec<Value>, (Value, Vec<usize>)>,
}

impl LatestState {
    /// Empty state for the given group columns, keyed by `tstamp`.
    pub fn new(group: &[&str]) -> LatestState {
        LatestState::keyed(group, "tstamp")
    }

    /// Empty state keyed by an arbitrary latest-wins column: the rows
    /// surviving are those carrying the maximum `ts_col` per group key.
    /// This is what lets non-log consumers (the flor-jobs board folds
    /// append-only job transitions by max `seq`) reuse the upsert state.
    pub fn keyed(group: &[&str], ts_col: &str) -> LatestState {
        LatestState {
            group: group.iter().map(|s| s.to_string()).collect(),
            ts_col: ts_col.to_string(),
            best: HashMap::new(),
        }
    }

    /// The group columns.
    pub fn group(&self) -> &[String] {
        &self.group
    }

    /// Observe added or upserted rows of the pivot frame (per-key upsert).
    pub fn observe(&mut self, frame: &DataFrame, added_rows: &[usize]) {
        for &r in added_rows {
            let key: Vec<Value> = self
                .group
                .iter()
                .map(|g| frame.get(r, g).cloned().unwrap_or(Value::Null))
                .collect();
            let ts = frame.get(r, &self.ts_col).cloned().unwrap_or(Value::Null);
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
    pub fn surviving_rows(&self) -> Vec<usize> {
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
    fn malformed_rows_rejected() {
        let mut view = PivotState::filtered(&["x"], &[], 0);
        assert!(view.apply_log_row(&["p".into()]).is_err());
        assert!(view.apply_loop_row(&["p".into()]).is_err());
    }

    #[test]
    fn latest_state_keyed_by_custom_column() {
        let mut frame = DataFrame::new();
        frame.push_row(&[("seq", 1.into()), ("job_id", 7.into())]);
        frame.push_row(&[("seq", 3.into()), ("job_id", 7.into())]);
        frame.push_row(&[("seq", 2.into()), ("job_id", 8.into())]);
        let mut latest = LatestState::keyed(&["job_id"], "seq");
        latest.observe(&frame, &[0, 1, 2]);
        assert_eq!(latest.surviving_rows(), vec![1, 2]);
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
