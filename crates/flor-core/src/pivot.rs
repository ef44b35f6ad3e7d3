//! The snapshot executor's steps below the pivot. [`Flor::execute_at`]
//! writes a plan's fetched `logs` rows through one [`Pivot`]; when
//! [`QueryPlan::below_pivot`] lowered steps — key predicates, the
//! `latest` cut, the top-K cut — this module first runs them over the
//! fetched rows joined to their loop contexts, so the pivot writes only
//! the rows they keep. By then the operator has fixed the columns of
//! every projected row (`Pivot::discover_all`: a merge by first rid of
//! per-segment summaries — first-seen order is rid order — made once per
//! sealed `logs` segment), and its loop contexts come from the sealed
//! `loops` segments, each resolved once per segment, so the reduced frame
//! has the columns the pivot of every row would have without a query
//! re-reading history.
//!
//! Every read is against one pinned snapshot, so the frame reflects
//! exactly its epoch. Rows stay in commit order throughout (the store's
//! read-order contract, `flor_store::segment`), which is the order the
//! change feed delivers deltas in: the incremental view and this
//! executor discover columns and rows in the same order.
//!
//! [`Flor::execute_at`]: crate::Flor::execute_at
//! [`QueryPlan::below_pivot`]: flor_view::QueryPlan::below_pivot

use flor_df::{DfResult, Value};
use flor_store::{Predicate, StoreResult};
use flor_view::{key_hash, logged_value, BelowPivot, Ctx, KeyIndex, LogRow, Pivot};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

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
        let rows = &self.rows;
        let cells = |r: usize| {
            let (row, ctx) = &rows[r];
            group.iter().map(move |g| row.cell(ctx, g))
        };
        let mut keys = KeyIndex::default();
        // Per group: its first row and maximum `tstamp`.
        let mut groups: Vec<(usize, &'a Value)> = Vec::new();
        let mut group_of = Vec::with_capacity(rows.len());
        for (r, (row, _)) in rows.iter().enumerate() {
            let mut h = DefaultHasher::new();
            cells(r).for_each(|c| c.hash(&mut h));
            let ts = row.fixed[1];
            let (g, new) = keys.find_or_add(h.finish(), |g| cells(groups[g].0).eq(cells(r)));
            if new {
                groups.push((r, ts));
            } else if ts > groups[g].1 {
                groups[g].1 = ts;
            }
            group_of.push(g);
        }
        let mut group_of = group_of.into_iter();
        self.retain(|(row, _)| group_of.next().is_some_and(|g| row.fixed[1] == groups[g].1))
    }

    /// Keep the rows of the `n` keys `sort_by(order_by).head(n)` keeps:
    /// keys compared by their `order_by` cells under `Value`'s order —
    /// index cells from the key, value cells last-write-wins per
    /// (key, name) as the pivot writes them — ties broken by first
    /// appearance, as the stable sort breaks them. Rows are keyed as
    /// [`Pivot::upsert`] keys them: by [`key_hash`], candidates compared
    /// by their cells.
    pub(crate) fn top_k_cut(
        &mut self,
        order_by: &[(String, bool)],
        n: usize,
        pivot: &Pivot,
    ) -> (usize, usize) {
        let rows = &self.rows;
        let dims = pivot.dims();
        let same_key = |a: usize, b: usize| {
            let ((ra, ca), (rb, cb)) = (&rows[a], &rows[b]);
            ra.fixed == rb.fixed
                && (Arc::ptr_eq(ca, cb) || dims.iter().all(|d| ca.cell(d) == cb.cell(d)))
        };
        let k = order_by.len();
        let mut keys = KeyIndex::default();
        // Per key: its first row, and its `k` sort cells in `sort`.
        let mut firsts: Vec<usize> = Vec::new();
        let mut sort: Vec<Value> = Vec::new();
        let mut slots = Vec::with_capacity(rows.len());
        for (r, (row, ctx)) in rows.iter().enumerate() {
            let hash = key_hash(row.fixed, ctx);
            let (slot, new) = keys.find_or_add(hash, |slot| same_key(firsts[slot], r));
            if new {
                firsts.push(r);
                sort.extend(order_by.iter().map(|(c, _)| row.cell(ctx, c).clone()));
            }
            let name = row.value_name.as_str();
            for (i, (c, _)) in order_by.iter().enumerate() {
                if name == Some(c.as_str()) {
                    sort[slot * k + i] = logged_value(row.value, row.value_type);
                }
            }
            slots.push(slot);
        }
        let cell = |slot: usize, i: usize| &sort[slot * k + i];
        let mut best: Vec<usize> = (0..keys.len()).collect();
        if n < best.len() {
            best.select_nth_unstable_by(n, |&a, &b| {
                order_by
                    .iter()
                    .enumerate()
                    .map(|(i, (_, asc))| {
                        let ord = cell(a, i).cmp(cell(b, i));
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
        let mut keep = vec![false; keys.len()];
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
