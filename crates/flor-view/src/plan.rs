//! The canonical query plan behind `Flor::query`.
//!
//! A [`QueryPlan`] is the declarative form every dataframe read lowers to:
//! a projection of log `value_name`s, a conjunction of predicates over the
//! pivoted view's columns (reusing [`flor_store::Predicate`] so one
//! predicate vocabulary spans the store, view and kernel layers), an
//! optional `latest`-per-group dedup, an ordering, and a limit.
//!
//! One snapshot pivot builds every frame from a pinned snapshot: it
//! fetches the projected `logs` rows through the `value_name` index
//! ([`QueryPlan::logs_fetch`], run lock-free against the snapshot),
//! pushes what [`QueryPlan::below_pivot`] lowers, and writes the rows
//! left through the one pivot operator, which refuses a value name that
//! collides with an index column. It has two callers. The snapshot
//! executor ([`crate::execute_at`], behind `Flor::execute_at`) runs it
//! per request and ends with the whole [`QueryPlan::post_pass`]. The
//! view catalog ([`crate::ViewCatalog::plan`]) runs it once per view
//! build, with only the view's pushdown predicates as the plan, then
//! keeps the view current from the change feed and runs the rest of
//! each request's plan as a post-pass. Where each step runs:
//!
//! | step | view catalog | snapshot executor |
//! |---|---|---|
//! | predicates on [`FIXED_COLS`] | maintained in the view: joined to the build's `logs` fetch, and fed rows failing them skipped at upsert ([`crate::PivotState`]) | joined to the `logs` fetch: postings, zone maps and binary search prune before rows materialise |
//! | predicates on loop dimensions | post-pass | on each fetched row's resolved index key, before the pivot |
//! | predicates on value columns | post-pass | post-pass |
//! | `latest(group)` | maintained by a per-group max-`tstamp` upsert unless a predicate is left for the post-pass | cut before the pivot when the group is index columns and every predicate ran below it |
//! | `order_by` + `limit` | post-pass | top-K cut before the pivot when every earlier step ran below it |
//!
//! A column the lowering cannot place from the plan alone (a dimension
//! the history never logged) makes the snapshot pivot push nothing; a
//! view build, whose plan holds only [`FIXED_COLS`] predicates, always
//! pushes them. Either way the *whole* post-pass then runs over what the
//! lower steps left: each of them is a filter the post-pass repeats or a
//! cut the post-pass's own later steps would have made, so the answer is
//! the post-hoc one, cell for cell.

use flor_df::{DataFrame, DfError};
use flor_store::{CmpOp, Predicate, Query, StoreError, StoreResult};

/// The fixed context columns every pivot row carries (paper Fig. 3), and
/// therefore the columns whose predicates can be maintained *inside* a
/// materialized view: their cells are written once per row, straight from
/// the log record, and never rewritten by an upsert.
pub const FIXED_COLS: [&str; 3] = ["projid", "tstamp", "filename"];

/// What [`QueryPlan::below_pivot`] lowers below the pivot. Each step is a
/// filter the post-pass repeats or a cut its later steps would make, so
/// the empty default — nothing pushed — is the plain pivot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BelowPivot {
    /// Predicates over [`FIXED_COLS`]: they join the `logs` fetch.
    pub store: Vec<Predicate>,
    /// Predicates over loop dimensions: tested on each fetched row's
    /// resolved index key.
    pub key: Vec<Predicate>,
    /// The `latest` group, cut to the max-`tstamp` keys per group.
    pub latest: Option<Vec<String>>,
    /// The `limit` of the top-K cut: the keys `order_by` + `limit` keep.
    pub top_k: Option<usize>,
}

impl BelowPivot {
    /// Whether nothing runs below the pivot.
    pub fn is_empty(&self) -> bool {
        *self == BelowPivot::default()
    }
}

/// A canonical, declarative dataframe query: what `Flor::query` builds
/// and every layer lowers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// Projected log `value_name`s, in request order.
    pub names: Vec<String>,
    /// Conjunctive predicates over the pivoted view's columns, applied
    /// before any `latest` dedup. A predicate naming a column the view
    /// lacks matches nothing (the [`flor_store::Query`] convention).
    pub predicates: Vec<Predicate>,
    /// `Some(group)` applies `latest`-per-group dedup by max `tstamp`
    /// (paper Fig. 6) after filtering.
    pub latest_group: Option<Vec<String>>,
    /// Sort keys applied after dedup: `(column, ascending)`.
    pub order_by: Vec<(String, bool)>,
    /// Keep at most this many rows, after ordering.
    pub limit: Option<usize>,
}

impl QueryPlan {
    /// A plain pivot plan over `names`: no predicates, dedup, order or
    /// limit — the shape of the legacy `flor.dataframe(names)` call.
    pub fn new(names: &[&str]) -> QueryPlan {
        QueryPlan {
            names: names.iter().map(|s| s.to_string()).collect(),
            predicates: Vec::new(),
            latest_group: None,
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// A pivot + `latest` plan — the shape of the legacy
    /// `flor.dataframe_latest(names, group)` call.
    pub fn with_latest(names: &[&str], group: &[&str]) -> QueryPlan {
        QueryPlan {
            latest_group: Some(group.iter().map(|s| s.to_string()).collect()),
            ..QueryPlan::new(names)
        }
    }

    /// The base fetch under every execution of this plan — the view's
    /// build and the snapshot executor alike, before pushed predicates
    /// join it: the `logs` rows whose `value_name` the plan projects,
    /// served from the secondary index.
    pub fn logs_fetch(&self) -> Query {
        let names = self.names.iter().map(|n| n.as_str().into()).collect();
        Query::table("logs").filter_in("value_name", names)
    }

    /// Append a predicate.
    pub fn filter(mut self, col: &str, op: CmpOp, value: impl Into<flor_df::Value>) -> QueryPlan {
        self.predicates.push(Predicate::new(col, op, value));
        self
    }

    /// Split the predicates into the *pushdown* set — maintained inside
    /// the materialized view — and the *residual* set applied as a
    /// post-pass. Only predicates over [`FIXED_COLS`] can be maintained:
    /// loop-dimension and value columns are discovered lazily and value
    /// cells mutate under last-write-wins upserts, so a row's membership
    /// could silently change after materialization.
    pub fn split_predicates(&self) -> (Vec<Predicate>, Vec<Predicate>) {
        self.predicates
            .iter()
            .cloned()
            .partition(|p| FIXED_COLS.contains(&p.col.as_str()))
    }

    /// The snapshot pivot's lowering: the plan's steps that run below
    /// the pivot, decided in [`QueryPlan::post_pass`] order. Predicates
    /// split as [`QueryPlan::split_predicates`] splits them — its pushdown
    /// set joins the `logs` fetch — and a residual predicate over a column
    /// no projected name fills (a loop dimension) is tested on the row's
    /// key. `latest` is cut when nothing is left for the post-pass to
    /// filter first and its group is index columns; top-K when every
    /// earlier step was pushed.
    pub fn below_pivot(&self) -> BelowPivot {
        let (store, residual) = self.split_predicates();
        let (key, value): (Vec<_>, Vec<_>) =
            residual.into_iter().partition(|p| !self.projects(&p.col));
        let latest = self
            .latest_group
            .clone()
            .filter(|g| value.is_empty() && g.iter().all(|c| !self.projects(c)));
        let top_k = self
            .limit
            .filter(|_| value.is_empty() && latest.is_some() == self.latest_group.is_some());
        BelowPivot {
            store,
            key,
            latest,
            top_k,
        }
    }

    /// Whether a projected value is named `col` (so `col` is a value
    /// column of the pivot, not an index column).
    fn projects(&self, col: &str) -> bool {
        self.names.iter().any(|n| n == col)
    }

    /// Whether running [`QueryPlan::post_pass`] with these inputs would be
    /// the identity — in which case a caller holding a shared snapshot can
    /// hand it out without copying.
    pub fn post_pass_is_identity(&self, residual: &[Predicate], apply_latest: bool) -> bool {
        residual.is_empty() && !apply_latest && self.order_by.is_empty() && self.limit.is_none()
    }

    /// The dataframe-layer tail of the plan: residual predicates, then
    /// (optionally) `latest` dedup, then ordering, then the limit.
    ///
    /// This one function is shared by the incremental path (over the
    /// maintained frame, with only the residual predicates) and the
    /// from-scratch oracle (over the pivot of the rows
    /// [`QueryPlan::below_pivot`]'s steps kept, with *every* predicate),
    /// so the two can only diverge in what they feed it — which the
    /// property tests pin down.
    pub fn post_pass(
        &self,
        base: &DataFrame,
        residual: &[Predicate],
        apply_latest: bool,
    ) -> StoreResult<DataFrame> {
        let mut staged: Option<DataFrame> = None;
        for p in residual {
            let cur = staged.as_ref().unwrap_or(base);
            staged = Some(match cur.filter_by(&p.col, |v| p.matches(v)) {
                Ok(df) => df,
                // The flor_store::Query convention: a predicate over a
                // column the frame lacks matches nothing.
                Err(DfError::UnknownColumn(_)) => cur.head(0),
                Err(e) => return Err(StoreError::Df(e)),
            });
        }
        if apply_latest {
            if let Some(group) = &self.latest_group {
                let cur = staged.as_ref().unwrap_or(base);
                // Empty frames short-circuit, exactly like the kernel's
                // from-scratch (`collect_full`) oracle.
                if cur.n_rows() > 0 {
                    let gs: Vec<&str> = group.iter().map(String::as_str).collect();
                    staged = Some(cur.latest(&gs, "tstamp").map_err(StoreError::Df)?);
                }
            }
        }
        if !self.order_by.is_empty() {
            let keys: Vec<(&str, bool)> = self
                .order_by
                .iter()
                .map(|(c, a)| (c.as_str(), *a))
                .collect();
            let cur = staged.as_ref().unwrap_or(base);
            staged = Some(cur.sort_by(&keys).map_err(StoreError::Df)?);
        }
        if let Some(n) = self.limit {
            let cur = staged.as_ref().unwrap_or(base);
            staged = Some(cur.head(n));
        }
        Ok(staged.unwrap_or_else(|| base.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flor_df::{Column, Value};

    fn frame() -> DataFrame {
        DataFrame::from_columns(vec![
            Column::new("projid", vec!["p", "p", "p", "p"]),
            Column::new("tstamp", vec![1i64, 2, 3, 4]),
            Column::new("doc_value", vec!["a", "a", "b", "b"]),
            Column::new("loss", vec![0.4f64, 0.3, 0.2, 0.1]),
        ])
        .unwrap()
    }

    #[test]
    fn split_partitions_fixed_vs_residual() {
        let plan = QueryPlan::new(&["loss"])
            .filter("tstamp", CmpOp::Gt, 1)
            .filter("loss", CmpOp::Lt, 0.35)
            .filter("projid", CmpOp::Eq, "p")
            .filter("doc_value", CmpOp::Eq, "a");
        let (push, residual) = plan.split_predicates();
        let cols = |ps: &[Predicate]| ps.iter().map(|p| p.col.clone()).collect::<Vec<_>>();
        assert_eq!(cols(&push), vec!["tstamp", "projid"]);
        assert_eq!(cols(&residual), vec!["loss", "doc_value"]);
    }

    #[test]
    fn below_pivot_pushes_in_post_pass_order() {
        let cols = |ps: &[Predicate]| ps.iter().map(|p| p.col.clone()).collect::<Vec<_>>();
        let plain = QueryPlan::new(&["loss"]);
        assert!(plain.below_pivot().is_empty());

        let pushed = QueryPlan {
            latest_group: Some(vec!["epoch_iteration".into()]),
            order_by: vec![("loss".into(), true)],
            limit: Some(3),
            ..QueryPlan::new(&["loss", "acc"])
        }
        .filter("tstamp", CmpOp::Ge, 2)
        .filter("epoch_value", CmpOp::Ne, "0");
        let lowered = pushed.below_pivot();
        assert_eq!(cols(&lowered.store), vec!["tstamp"]);
        assert_eq!(cols(&lowered.key), vec!["epoch_value"]);
        assert_eq!(lowered.latest, Some(vec!["epoch_iteration".to_string()]));
        assert_eq!(lowered.top_k, Some(3));

        // A value predicate stays for the post-pass, so nothing after it
        // is cut; the index predicates still run below the pivot.
        let residual = pushed.clone().filter("acc", CmpOp::Gt, 0.5).below_pivot();
        assert_eq!(cols(&residual.key), vec!["epoch_value"]);
        assert_eq!((residual.latest, residual.top_k), (None, None));
        // A `latest` over a value column is not cut, and neither is top-K.
        let by_value = QueryPlan {
            latest_group: Some(vec!["acc".into()]),
            ..pushed
        }
        .below_pivot();
        assert_eq!((by_value.latest, by_value.top_k), (None, None));
    }

    #[test]
    fn post_pass_filters_dedups_orders_limits() {
        let plan = QueryPlan {
            latest_group: Some(vec!["doc_value".into()]),
            order_by: vec![("tstamp".into(), false)],
            limit: Some(1),
            ..QueryPlan::new(&["loss"])
        }
        .filter("tstamp", CmpOp::Le, 3);
        let (_, residual) = plan.split_predicates();
        assert!(residual.is_empty(), "tstamp is a pushdown column");
        // Feed every predicate, oracle-style.
        let out = plan.post_pass(&frame(), &plan.predicates, true).unwrap();
        assert_eq!(out.n_rows(), 1);
        // tstamp<=3 keeps rows 1..3; latest per doc picks ts 2 and 3;
        // descending order then limit 1 keeps ts 3.
        assert_eq!(out.get(0, "tstamp"), Some(&Value::Int(3)));
    }

    #[test]
    fn post_pass_unknown_predicate_column_matches_nothing() {
        let plan = QueryPlan::new(&["loss"]).filter("nope", CmpOp::Eq, 1);
        let out = plan.post_pass(&frame(), &plan.predicates, false).unwrap();
        assert_eq!(out.n_rows(), 0);
        assert_eq!(out.n_cols(), 4, "columns survive an empty match");
    }

    #[test]
    fn post_pass_identity_detection() {
        let plan = QueryPlan::new(&["loss"]);
        assert!(plan.post_pass_is_identity(&[], false));
        assert!(!plan.post_pass_is_identity(&[], true));
        let limited = QueryPlan {
            limit: Some(5),
            ..QueryPlan::new(&["loss"])
        };
        assert!(!limited.post_pass_is_identity(&[], false));
    }

    #[test]
    fn post_pass_empty_frame_skips_latest() {
        let plan = QueryPlan::with_latest(&["loss"], &["no_such_group"]);
        let out = plan.post_pass(&DataFrame::new(), &[], true).unwrap();
        assert_eq!(out.n_rows(), 0);
    }
}
