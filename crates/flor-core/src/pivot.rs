//! The snapshot executor's steps below the pivot. [`Flor::execute_at`]
//! writes a plan's fetched `logs` rows through one [`Pivot`]; when
//! [`QueryPlan::below_pivot`] lowered steps — key predicates, the
//! `latest` cut, the top-K cut — this module first runs them over the
//! fetched rows joined to their loop contexts, so the pivot writes only
//! the rows they keep. By then the operator has discovered the columns
//! of every projected row ([`discover`]), so the reduced frame has the
//! columns the pivot of every row would have.
//!
//! Every read is against one pinned snapshot, so the frame reflects
//! exactly its epoch. Rows stay in commit order throughout (the store's
//! read-order contract, `flor_store::segment`), which is the order the
//! change feed delivers deltas in: the incremental view and this
//! executor discover columns and rows in the same order.
//!
//! [`Flor::execute_at`]: crate::Flor::execute_at
//! [`QueryPlan::below_pivot`]: flor_view::QueryPlan::below_pivot

use flor_df::{DataFrame, DfError, DfResult, Value};
use flor_store::{Predicate, StoreResult};
use flor_view::{logged_value, BelowPivot, Ctx, LogRow, Pivot, FIXED_COLS};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// The schema pass: discover the columns of every row of `rows` — a
/// `logs` fetch with at least `ctx_id` and `value_name` — without
/// writing any. Returns the rows read.
pub(crate) fn discover(pivot: &mut Pivot, rows: &DataFrame) -> StoreResult<usize> {
    let column = |name: &str| {
        rows.column(name)
            .map(|c| c.values.as_slice())
            .ok_or_else(|| DfError::UnknownColumn(name.to_string()))
    };
    let ctx_ids = column("ctx_id")?;
    for (ctx_id, name) in ctx_ids.iter().zip(column("value_name")?) {
        pivot.discover(ctx_id, name)?;
    }
    Ok(ctx_ids.len())
}

/// Whether `push` runs exactly against the columns `pivot` discovered:
/// every column a pushed step names exists in the role the lowering
/// assumed. (A value name that collides with an index column never gets
/// here: discovery refuses it.)
pub(crate) fn admits(pivot: &Pivot, push: &BelowPivot, order_by: &[(String, bool)]) -> bool {
    // Key predicates are never on a fixed column: those join the fetch.
    let index = |c: &String| pivot.is_index(c);
    push.key.iter().all(|p| index(&p.col))
        && push.latest.iter().flatten().all(index)
        && (push.top_k.is_none()
            || order_by
                .iter()
                .all(|(c, _)| index(c) || pivot.frame().column(c).is_some()))
}

/// Fetched `logs` rows on their way to the pivot: each kept row and its
/// resolved loop context.
pub(crate) struct LogRows<'a> {
    rows: Vec<(LogRow<'a>, Arc<Ctx>)>,
}

impl<'a> LogRows<'a> {
    /// Join every fetched row to its loop context.
    pub(crate) fn join(
        rows: impl Iterator<Item = LogRow<'a>>,
        pivot: &mut Pivot,
    ) -> StoreResult<LogRows<'a>> {
        let rows = rows.map(|row| Ok((row, pivot.ctx(row.ctx_id)?)));
        Ok(LogRows {
            rows: rows.collect::<DfResult<_>>()?,
        })
    }

    /// Rows still kept.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Keep the rows `keep` accepts; rows in and out.
    fn retain(&mut self, keep: impl FnMut(&(LogRow<'a>, Arc<Ctx>)) -> bool) -> (usize, usize) {
        let rows_in = self.rows.len();
        self.rows.retain(keep);
        (rows_in, self.rows.len())
    }

    /// Keep the rows whose key satisfies every predicate.
    pub(crate) fn key_predicates(&mut self, preds: &[Predicate]) -> (usize, usize) {
        self.retain(|(row, ctx)| preds.iter().all(|p| p.matches(row.cell(ctx, &p.col))))
    }

    /// Keep the rows whose key carries the maximum `tstamp` of its
    /// `group` — the keys `DataFrame::latest(group, "tstamp")` keeps.
    pub(crate) fn latest_cut(&mut self, group: &[String]) -> (usize, usize) {
        let mut group_of: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut max: Vec<&'a Value> = Vec::new();
        let mut groups = Vec::with_capacity(self.rows.len());
        for (row, ctx) in &self.rows {
            let key = group.iter().map(|g| row.cell(ctx, g).clone()).collect();
            let ts = row.fixed[1];
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
        self.retain(|(row, _)| groups.next().is_some_and(|g| row.fixed[1] == max[g]))
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
        pivot: &Pivot,
    ) -> (usize, usize) {
        let index: Vec<&str> = FIXED_COLS
            .iter()
            .copied()
            .chain(pivot.dims().iter().map(|d| &**d))
            .collect();
        let mut slot_of: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut sort: Vec<Vec<Value>> = Vec::new();
        let mut slots = Vec::with_capacity(self.rows.len());
        for (row, ctx) in &self.rows {
            let key = index.iter().map(|c| row.cell(ctx, c).clone()).collect();
            let slot = *slot_of.entry(key).or_insert_with(|| {
                sort.push(
                    order_by
                        .iter()
                        .map(|(c, _)| row.cell(ctx, c).clone())
                        .collect(),
                );
                sort.len() - 1
            });
            let name = row.value_name.as_str();
            for (k, (c, _)) in order_by.iter().enumerate() {
                if name == Some(c.as_str()) {
                    sort[slot][k] = logged_value(row.value, row.value_type);
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

    /// Write the kept rows through `pivot`, in order.
    pub(crate) fn upsert_into(self, pivot: &mut Pivot) -> StoreResult<()> {
        for (row, _) in self.rows {
            pivot.upsert(row)?;
        }
        Ok(())
    }
}
