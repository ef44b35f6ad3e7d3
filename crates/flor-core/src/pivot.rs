//! The snapshot executor's pivot front end. [`Flor::execute_at`] fetches
//! a plan's `logs` rows; this module joins them to their loop contexts,
//! runs the steps [`QueryPlan::below_pivot`] lowered — key predicates,
//! the `latest` cut, the top-K cut — over the joined rows, and pivots
//! what is left long → wide, conformed to the column schema the pivot of
//! every projected row would have.
//!
//! Every read is against one pinned snapshot, so the frame reflects
//! exactly its epoch. Rows stay in commit order throughout (the store's
//! read-order contract, `flor_store::segment`), which is the order the
//! change feed delivers deltas in: the incremental view and this
//! executor discover columns and rows in the same order.
//!
//! [`Flor::execute_at`]: crate::Flor::execute_at
//! [`QueryPlan::below_pivot`]: flor_view::QueryPlan::below_pivot

use flor_df::{Column, DataFrame, DfError, Value};
use flor_store::{Predicate, Query, Snapshot, StoreError, StoreResult};
use flor_view::{logged_value, BelowPivot, Dim, LoopContexts, FIXED_COLS};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// A fetched frame's column, by name.
fn column<'a>(df: &'a DataFrame, name: &str) -> StoreResult<&'a [Value]> {
    df.column(name)
        .map(|c| c.values.as_slice())
        .ok_or_else(|| StoreError::Df(DfError::UnknownColumn(name.to_string())))
}

/// One snapshot's loop contexts, with each distinct `ctx_id`'s
/// dimension cells resolved once and shared by every row that names it
/// — and by the schema pass.
pub(crate) struct Chains {
    loops: LoopContexts,
    resolved: HashMap<i64, Arc<[Dim]>>,
}

impl Chains {
    /// Read the `loops` columns a chain needs from `snap`.
    pub(crate) fn read(snap: &Snapshot) -> StoreResult<Chains> {
        let loops = snap.query(&Query::table("loops").project(&[
            "ctx_id",
            "parent_ctx_id",
            "loop_name",
            "loop_iteration",
            "iteration_value",
        ]))?;
        Ok(Chains {
            loops: LoopContexts::from_frame(&loops),
            resolved: HashMap::new(),
        })
    }

    /// The dimension cells of a row logged under `ctx_id`.
    fn dims(&mut self, ctx_id: &Value) -> Arc<[Dim]> {
        let id = ctx_id.as_i64().unwrap_or(0);
        let loops = &self.loops;
        Arc::clone(
            self.resolved
                .entry(id)
                .or_insert_with(|| loops.dims(id).into()),
        )
    }
}

/// The columns of the pivot of *every* projected row, in order: the
/// fixed context columns, loop dimensions in first-seen order, then
/// value names in first-seen order — including those only rows the
/// pushed steps drop carry, which is what keeps a reduced pivot's
/// columns equal to the full one's.
pub(crate) struct PivotSchema {
    dims: Vec<Arc<str>>,
    names: Vec<Arc<str>>,
    /// Projected rows the pass read.
    pub(crate) rows_read: usize,
}

impl PivotSchema {
    /// The schema pass: reads only the `ctx_id` and `value_name` of the
    /// projected rows and walks each row's context chain by name only;
    /// a chain's cells are resolved (once) just when it names a new
    /// dimension, to place it in first-seen order.
    pub(crate) fn scan(rows: &DataFrame, chains: &mut Chains) -> StoreResult<PivotSchema> {
        let mut schema = PivotSchema {
            dims: Vec::new(),
            names: Vec::new(),
            rows_read: rows.n_rows(),
        };
        let mut last_ctx = None;
        for (ctx, name) in column(rows, "ctx_id")?
            .iter()
            .zip(column(rows, "value_name")?)
        {
            let name = name.as_str().unwrap_or_default();
            if !schema.names.iter().any(|n| **n == *name) {
                schema.names.push(name.into());
            }
            let id = ctx.as_i64().unwrap_or(0);
            if last_ctx.replace(id) == Some(id)
                || chains.loops.dim_names(id).all(|d| schema.dims.contains(d))
            {
                continue;
            }
            for (d, _) in chains.dims(ctx).iter() {
                if !schema.dims.contains(d) {
                    schema.dims.push(Arc::clone(d));
                }
            }
        }
        Ok(schema)
    }

    /// Columns of the full pivot (none when no row was projected).
    pub(crate) fn n_cols(&self) -> usize {
        match self.names.len() {
            0 => 0,
            n => FIXED_COLS.len() + self.dims.len() + n,
        }
    }

    fn is_index(&self, col: &str) -> bool {
        FIXED_COLS.contains(&col) || self.dims.iter().any(|d| **d == *col)
    }

    /// Whether `push` runs exactly against this schema: every column a
    /// pushed step names exists in the role the lowering assumed, and no
    /// value name collides with an index column (the full pivot would
    /// fail on the duplicate, so nothing may be pushed past it).
    pub(crate) fn admits(&self, push: &BelowPivot, order_by: &[(String, bool)]) -> bool {
        let known = |c: &str| self.is_index(c) || self.names.iter().any(|n| **n == *c);
        !self.names.iter().any(|n| self.is_index(n))
            && push
                .key
                .iter()
                .all(|p| self.dims.iter().any(|d| **d == *p.col))
            && push.latest.iter().flatten().all(|c| self.is_index(c))
            && (push.top_k.is_none() || order_by.iter().all(|(c, _)| known(c)))
    }

    /// `wide` — the pivot of the rows the pushed steps kept — with this
    /// schema's columns: the ones it lacks filled with nulls.
    pub(crate) fn conform(&self, wide: DataFrame) -> StoreResult<DataFrame> {
        if self.names.is_empty() {
            return Ok(DataFrame::new());
        }
        let n = wide.n_rows();
        let cols = FIXED_COLS
            .iter()
            .copied()
            .chain(self.dims.iter().chain(&self.names).map(|c| &**c))
            .map(|name| {
                wide.column(name).cloned().unwrap_or_else(|| Column {
                    name: name.to_string(),
                    values: vec![Value::Null; n],
                })
            })
            .collect();
        DataFrame::from_columns(cols).map_err(StoreError::Df)
    }
}

/// The columns of a fetched `logs` frame.
#[derive(Clone, Copy)]
struct LogCols<'a> {
    projid: &'a [Value],
    tstamp: &'a [Value],
    filename: &'a [Value],
    value_name: &'a [Value],
    value: &'a [Value],
    value_type: &'a [Value],
}

impl<'a> LogCols<'a> {
    /// Row `at`'s cell in index column `col`: a fixed context column, or
    /// the first of `dims` with that name, or null.
    fn cell<'v>(self, at: usize, dims: &'v [Dim], col: &str) -> &'v Value
    where
        'a: 'v,
    {
        match col {
            "projid" => &self.projid[at],
            "tstamp" => &self.tstamp[at],
            "filename" => &self.filename[at],
            _ => dims
                .iter()
                .find(|(d, _)| **d == *col)
                .map_or(&Value::Null, |(_, v)| v),
        }
    }
}

/// Fetched `logs` rows on their way to the pivot: each kept row's
/// position in the fetch and its resolved dimension cells.
pub(crate) struct LogRows<'a> {
    cols: LogCols<'a>,
    rows: Vec<(usize, Arc<[Dim]>)>,
}

impl<'a> LogRows<'a> {
    /// Join every row of `logs` to its loop context.
    pub(crate) fn join(logs: &'a DataFrame, chains: &mut Chains) -> StoreResult<LogRows<'a>> {
        let rows = column(logs, "ctx_id")?
            .iter()
            .enumerate()
            .map(|(at, ctx)| (at, chains.dims(ctx)))
            .collect();
        Ok(LogRows {
            cols: LogCols {
                projid: column(logs, "projid")?,
                tstamp: column(logs, "tstamp")?,
                filename: column(logs, "filename")?,
                value_name: column(logs, "value_name")?,
                value: column(logs, "value")?,
                value_type: column(logs, "value_type")?,
            },
            rows,
        })
    }

    /// Rows still kept.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Keep the rows `keep` accepts; rows in and out.
    fn retain(&mut self, keep: impl FnMut(&(usize, Arc<[Dim]>)) -> bool) -> (usize, usize) {
        let rows_in = self.rows.len();
        self.rows.retain(keep);
        (rows_in, self.rows.len())
    }

    /// Keep the rows whose key satisfies every predicate.
    pub(crate) fn key_predicates(&mut self, preds: &[Predicate]) -> (usize, usize) {
        let cols = self.cols;
        self.retain(|(at, dims)| {
            preds
                .iter()
                .all(|p| p.matches(cols.cell(*at, dims, &p.col)))
        })
    }

    /// Keep the rows whose key carries the maximum `tstamp` of its
    /// `group` — the keys `DataFrame::latest(group, "tstamp")` keeps.
    pub(crate) fn latest_cut(&mut self, group: &[String]) -> (usize, usize) {
        let cols = self.cols;
        let mut group_of: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut max: Vec<&Value> = Vec::new();
        let mut groups = Vec::with_capacity(self.rows.len());
        for (at, dims) in &self.rows {
            let key = group
                .iter()
                .map(|g| cols.cell(*at, dims, g).clone())
                .collect();
            let ts = &cols.tstamp[*at];
            let g = *group_of.entry(key).or_insert_with(|| {
                max.push(ts);
                max.len() - 1
            });
            if ts > max[g] {
                max[g] = ts;
            }
            groups.push(g);
        }
        let mut groups = groups.into_iter();
        self.retain(|(at, _)| groups.next().is_some_and(|g| cols.tstamp[*at] == *max[g]))
    }

    /// Keep the rows of the `n` keys `sort_by(order_by).head(n)` keeps:
    /// keys compared by their `order_by` cells under `Value`'s order —
    /// index cells from the key, value cells last-write-wins per
    /// (key, name) as the pivot writes them — ties broken by first
    /// appearance, as the stable sort breaks them.
    pub(crate) fn top_k_cut(
        &mut self,
        order_by: &[(String, bool)],
        n: usize,
        schema: &PivotSchema,
    ) -> (usize, usize) {
        let cols = self.cols;
        let index: Vec<&str> = FIXED_COLS
            .iter()
            .copied()
            .chain(schema.dims.iter().map(|d| &**d))
            .collect();
        let mut slot_of: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut sort: Vec<Vec<Value>> = Vec::new();
        let mut slots = Vec::with_capacity(self.rows.len());
        for (at, dims) in &self.rows {
            let key = index
                .iter()
                .map(|c| cols.cell(*at, dims, c).clone())
                .collect();
            let slot = *slot_of.entry(key).or_insert_with(|| {
                sort.push(
                    order_by
                        .iter()
                        .map(|(c, _)| cols.cell(*at, dims, c).clone())
                        .collect(),
                );
                sort.len() - 1
            });
            let name = cols.value_name[*at].as_str();
            for (k, (c, _)) in order_by.iter().enumerate() {
                if name == Some(c.as_str()) {
                    sort[slot][k] = logged_value(&cols.value[*at], &cols.value_type[*at]);
                }
            }
            slots.push(slot);
        }
        let mut best: Vec<usize> = (0..sort.len()).collect();
        if n < best.len() {
            best.select_nth_unstable_by(n, |&a, &b| {
                order_by
                    .iter()
                    .enumerate()
                    .map(|(k, (_, asc))| {
                        let ord = sort[a][k].cmp(&sort[b][k]);
                        if *asc {
                            ord
                        } else {
                            ord.reverse()
                        }
                    })
                    .find(|ord| ord.is_ne())
                    .unwrap_or(Ordering::Equal)
                    .then(a.cmp(&b))
            });
            best.truncate(n);
        }
        let mut keep = vec![false; sort.len()];
        for slot in best {
            keep[slot] = true;
        }
        let mut slots = slots.into_iter();
        self.retain(|_| slots.next().is_some_and(|slot| keep[slot]))
    }

    /// Pivot the kept rows long → wide: one row per distinct index tuple
    /// (fixed columns + dimensions) in first-appearance order, one column
    /// per `value_name` in first-seen order, last write wins.
    pub(crate) fn pivot(&self) -> StoreResult<DataFrame> {
        let cols = self.cols;
        let mut long = DataFrame::new();
        let mut entries: Vec<(&str, Value)> = Vec::new();
        for (at, dims) in &self.rows {
            let at = *at;
            entries.clear();
            entries.push(("projid", cols.projid[at].clone()));
            entries.push(("tstamp", cols.tstamp[at].clone()));
            entries.push(("filename", cols.filename[at].clone()));
            entries.extend(dims.iter().map(|(d, v)| (&**d, v.clone())));
            entries.push(("value_name", cols.value_name[at].clone()));
            entries.push(("value", logged_value(&cols.value[at], &cols.value_type[at])));
            long.push_row(&entries);
        }
        if long.n_rows() == 0 {
            return Ok(DataFrame::new());
        }
        let index: Vec<&str> = long
            .column_names()
            .into_iter()
            .filter(|c| *c != "value_name" && *c != "value")
            .collect();
        long.pivot(&index, "value_name", "value")
            .map_err(StoreError::Df)
    }
}
