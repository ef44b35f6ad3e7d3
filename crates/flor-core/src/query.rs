//! The lazy query builder: one composable, typed surface for every
//! context read.
//!
//! The paper's core promise is that practitioners *query* the
//! ML-lifecycle context — filter runs by hyperparameter, slice metrics
//! per epoch, take the latest per group. [`Flor::query`] builds a
//! [`QueryPlan`] lazily; nothing touches the store until a `collect`
//! call. The paper's two read calls, [`Flor::dataframe`] and
//! [`Flor::dataframe_latest`], are one-line wrappers over this builder.
//!
//! One snapshot pivot, owned by `flor-view`, builds every frame, and one
//! function routes every read to it:
//! [`flor_view::ViewCatalog::answer`], which both [`Flor::run_plan`] (at
//! a snapshot it pins) and `flor-serve` (at a session's) call. A plan that lowers nothing below the pivot but a
//! `latest` is read from its projection's incrementally maintained view —
//! built once with the snapshot pivot, caught up with the rows later
//! commits add, the plan's value predicates, ordering and limit run over
//! it as a post-pass, and a predicate-free `latest` maintained beside it
//! — unless the catalog already stands past the snapshot's epoch. Every
//! other plan runs on [`Flor::execute_at`], the snapshot pivot per
//! request ([`flor_view::execute_at`]; [`Flor::run_plan_at`] and
//! [`Flor::run_plan_full`] are its one-line callers): it merges each
//! sealed `logs` segment's fragment (the segment pivoted once, on first
//! read) by rid instead of fetching and re-pivoting rows, and runs index
//! predicates and the `latest` / top-K cuts over the merged keys
//! ([`QueryPlan::below_pivot`]; the table in [`flor_view::plan`] says
//! which step runs where). It is the oracle every incremental answer is
//! checked against, and it reports the fragments it merged and made and
//! every step's counts in and out as a [`PlanExplain`]. The [`Answer`]
//! says which path ran ([`flor_view::How`]); [`QueryBuilder::explain`]
//! and both slow logs render it. Tracing is an [`ActiveTrace`] handle that is inert
//! when tracing and the slow log are off, so no path has a traced twin.
//!
//! ```
//! use flor_core::Flor;
//! use flor_store::CmpOp;
//!
//! let flor = Flor::new("demo");
//! flor.set_filename("train.fl");
//! for run in 0..3 {
//!     flor.log("lr", 0.01 * (run + 1) as f64);
//!     flor.log("loss", 1.0 / (run + 1) as f64);
//!     flor.commit("run").unwrap();
//! }
//!
//! let df = flor
//!     .query(&["lr", "loss"])
//!     .filter("lr", CmpOp::Gt, 0.015)
//!     .order_by("tstamp", false)
//!     .limit(10)
//!     .collect()
//!     .unwrap();
//! assert_eq!(df.n_rows(), 2);
//!
//! // The incremental path always equals the from-scratch oracle.
//! let oracle = flor
//!     .query(&["lr", "loss"])
//!     .filter("lr", CmpOp::Gt, 0.015)
//!     .order_by("tstamp", false)
//!     .limit(10)
//!     .collect_full()
//!     .unwrap();
//! assert_eq!(df, oracle);
//! ```

use crate::kernel::Flor;
use flor_df::{DataFrame, Value};
use flor_obs::ActiveTrace;
use flor_store::{CmpOp, Predicate, StoreResult};
use flor_view::{Answer, PlanExplain, QueryPlan};
use std::sync::Arc;
use std::time::Instant;

/// A lazy dataframe query over one [`Flor`] instance.
///
/// Built by [`Flor::query`]; executes on [`QueryBuilder::collect`] (or
/// its variants). Every combinator is cheap — it only edits the plan.
#[derive(Clone)]
pub struct QueryBuilder<'a> {
    flor: &'a Flor,
    plan: QueryPlan,
}

/// How one plan was answered — returned by [`QueryBuilder::explain`] and
/// rendered into every slow-query record, embedded or served. The plan
/// really executes: the [`Answer`]'s frame is the one
/// [`QueryBuilder::collect_view`] would have returned, and its
/// [`flor_view::How`] is what that execution did — a view hit, built,
/// selected or caught up over N `logs` rows, or the snapshot executor's
/// measured [`PlanExplain`].
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// The plan that ran.
    pub plan: QueryPlan,
    /// The answer: its frame, the epoch it reflects and how it was
    /// reached.
    pub answer: Answer,
    /// Wall-clock nanoseconds answering the plan.
    pub serve_nanos: u64,
    /// Rows in the final frame handed back to the caller.
    pub rows_returned: usize,
}

impl ExplainReport {
    /// The report of `answer` to `plan`, which took `serve_nanos`.
    pub fn new(plan: &QueryPlan, answer: Answer, serve_nanos: u64) -> ExplainReport {
        ExplainReport {
            plan: plan.clone(),
            rows_returned: answer.frame.n_rows(),
            answer,
            serve_nanos,
        }
    }
}

impl std::fmt::Display for ExplainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "EXPLAIN {:?}, serve {}ns",
            self.plan.names, self.serve_nanos
        )?;
        for line in self.answer.to_string().lines() {
            writeln!(f, "  {line}")?;
        }
        write!(f, "  rows returned to caller: {}", self.rows_returned)
    }
}

impl std::fmt::Debug for QueryBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryBuilder")
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

impl Flor {
    /// Start a lazy query projecting the log `value_name`s in `names`.
    ///
    /// Chain [`QueryBuilder::filter`], [`QueryBuilder::latest`],
    /// [`QueryBuilder::order_by`] and [`QueryBuilder::limit`], then
    /// execute with [`QueryBuilder::collect`] (incremental),
    /// [`QueryBuilder::collect_view`] (incremental, shared snapshot) or
    /// [`QueryBuilder::collect_full`] (from-scratch oracle).
    pub fn query(&self, names: &[&str]) -> QueryBuilder<'_> {
        QueryBuilder {
            flor: self,
            plan: QueryPlan::new(names),
        }
    }

    /// Execute a ready-made [`QueryPlan`] incrementally (the path behind
    /// [`QueryBuilder::collect_view`]): the frame of its answer at a
    /// snapshot pinned by this call, which the view catalog routes
    /// ([`flor_view::ViewCatalog::answer`]) to the plan's maintained view
    /// or to the snapshot executor.
    ///
    /// When tracing is enabled ([`Flor::set_tracing`]) the execution
    /// publishes a `query.collect` trace; when the slow-query log is
    /// armed ([`Flor::set_slow_query_threshold`]) and the execution
    /// exceeds the threshold, its [`ExplainReport`] plus the trace land
    /// in [`Flor::slow_queries`]. With both off the trace handle is inert:
    /// two relaxed loads on top of the answer.
    pub fn run_plan(&self, plan: &QueryPlan) -> StoreResult<Arc<DataFrame>> {
        self.answer(plan).map(|answer| answer.frame)
    }

    /// [`Flor::run_plan`] with the whole [`Answer`]: pin, answer, then
    /// publish the trace and capture a slow query.
    fn answer(&self, plan: &QueryPlan) -> StoreResult<Answer> {
        let registry = self.metrics_registry();
        let (traces, slow) = (registry.traces(), registry.slow_queries());
        let mut tr = ActiveTrace::new(traces.enabled() || slow.armed(), None, "query.collect");
        tr.set_detail(|| format!("{:?}", plan.names));
        let result = self.views.answer(&self.db.pin(), plan, &mut tr);
        if let Ok(answer) = &result {
            tr.event(|| format!("rows={}", answer.frame.n_rows()));
        }
        let trace = tr.finish(traces);
        let answer = result?;
        if let (Some(trace), Some(threshold)) = (trace, slow.threshold_nanos()) {
            let total = trace.total_nanos;
            if total > threshold {
                slow.record(flor_obs::SlowQueryRecord {
                    trace: Arc::unwrap_or_clone(trace),
                    verb: "query.collect".into(),
                    plan: format!("{:?}", plan.names),
                    explain: ExplainReport::new(plan, answer.clone(), total).to_string(),
                    total_nanos: total,
                    threshold_nanos: threshold,
                    at_unix_micros: flor_obs::unix_micros(),
                });
            }
        }
        Ok(answer)
    }

    /// Execute a [`QueryPlan`] from scratch at the current epoch
    /// ([`Flor::execute_at`] on a fresh snapshot, untraced). The
    /// correctness oracle for [`Flor::run_plan`].
    pub fn run_plan_full(&self, plan: &QueryPlan) -> StoreResult<DataFrame> {
        self.run_plan_at(&self.db.pin(), plan)
    }

    /// Execute a [`QueryPlan`] against a **caller-pinned**
    /// [`Snapshot`](flor_store::Snapshot), untraced: [`Flor::execute_at`]
    /// with an inert trace handle.
    pub fn run_plan_at(
        &self,
        snap: &flor_store::Snapshot,
        plan: &QueryPlan,
    ) -> StoreResult<DataFrame> {
        self.execute_at(snap, plan, &mut ActiveTrace::new(false, None, ""))
            .map(|(df, _)| df)
    }

    /// The snapshot executor: [`flor_view::execute_at`] — the one
    /// snapshot pivot, with the plan's steps below the pivot, then the
    /// whole post-pass. Every read is of `snap`, so the frame reflects
    /// exactly `snap.epoch()` no matter how many commits land meanwhile.
    /// [`flor_view::ViewCatalog::answer`] runs it for every plan that
    /// pushes a step below the pivot other than a `latest`, and for any
    /// plan of a snapshot behind the view catalog: byte-identical to what
    /// [`Flor::run_plan_full`] would have returned at that epoch.
    ///
    /// `tr` records child spans `store.scan`, `pivot`, and `post_pass`
    /// when one runs, with each step's rows in and out as span events —
    /// or nothing at all when it is inert; the frame is the same either
    /// way. The measured [`PlanExplain`] rides along for slow-query
    /// capture.
    pub fn execute_at(
        &self,
        snap: &flor_store::Snapshot,
        plan: &QueryPlan,
        tr: &mut ActiveTrace,
    ) -> StoreResult<(DataFrame, PlanExplain)> {
        flor_view::execute_at(snap, plan, tr)
    }
}

impl<'a> QueryBuilder<'a> {
    /// Keep rows where `col op value` over the pivoted view's columns
    /// (fixed context columns, loop dimensions, or logged values).
    /// Predicates over `projid`/`tstamp`/`filename` and over loop
    /// dimensions send the plan to the snapshot executor, on the
    /// incremental path too: they test each key as the per-segment
    /// fragments merge, before the frame is built. Predicates over logged
    /// values run in the post-pass — over the projection's maintained view
    /// when they are the plan's only predicates. A predicate naming an
    /// unknown column matches nothing.
    pub fn filter(mut self, col: &str, op: CmpOp, value: impl Into<Value>) -> Self {
        self.plan.predicates.push(Predicate::new(col, op, value));
        self
    }

    /// Shorthand for an equality [`QueryBuilder::filter`].
    pub fn filter_eq(self, col: &str, value: impl Into<Value>) -> Self {
        self.filter(col, CmpOp::Eq, value)
    }

    /// Deduplicate to the max-`tstamp` rows per distinct `group` key
    /// (paper Fig. 6's `flor.utils.latest`), after filtering.
    pub fn latest(mut self, group: &[&str]) -> Self {
        self.plan.latest_group = Some(group.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Sort by `col`, ascending (`true`) or descending; may be chained
    /// for tie-breaking. Applied after filtering and dedup.
    pub fn order_by(mut self, col: &str, ascending: bool) -> Self {
        self.plan.order_by.push((col.to_string(), ascending));
        self
    }

    /// Keep at most `n` rows, after ordering.
    pub fn limit(mut self, n: usize) -> Self {
        self.plan.limit = Some(n);
        self
    }

    /// The canonical plan built so far.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Consume the builder, yielding the plan (e.g. to run it later or
    /// against another instance).
    pub fn into_plan(self) -> QueryPlan {
        self.plan
    }

    /// Execute incrementally and return an owned frame: a frame made for
    /// this call (the executor's, or a post-pass's) is unwrapped without a
    /// copy, and a maintained view's shared frame is copied.
    pub fn collect(self) -> StoreResult<DataFrame> {
        self.flor.run_plan(&self.plan).map(Arc::unwrap_or_clone)
    }

    /// Execute incrementally without copying: plans the view catalog
    /// answers with no post-pass (no filter, order or limit) share the
    /// maintained view's allocation — repeated calls with no intervening
    /// commits return the same `Arc`.
    pub fn collect_view(self) -> StoreResult<Arc<DataFrame>> {
        self.flor.run_plan(&self.plan)
    }

    /// Execute the plan and report how it ran ([`ExplainReport`]): a view
    /// hit, built, selected or caught up over N `logs` rows, or the
    /// snapshot executor's measured [`PlanExplain`], and the wall-clock
    /// time. The plan really executes — the report's frame is the one
    /// [`QueryBuilder::collect_view`] would return.
    pub fn explain(self) -> StoreResult<ExplainReport> {
        let t0 = Instant::now();
        let answer = self.flor.answer(&self.plan)?;
        let serve_nanos = t0.elapsed().as_nanos() as u64;
        Ok(ExplainReport::new(&self.plan, answer, serve_nanos))
    }

    /// Execute from scratch (the correctness oracle): [`Flor::execute_at`]
    /// on a fresh snapshot — what it pushes below the pivot, then the
    /// whole plan as a post-pass — equal to post-hoc filtering of the
    /// unfiltered pivot.
    pub fn collect_full(self) -> StoreResult<DataFrame> {
        self.flor.run_plan_full(&self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> Flor {
        let flor = Flor::new("q");
        flor.set_filename("train.fl");
        for run in 0..4i64 {
            flor.for_each("epoch", 0..3, |flor, &e| {
                flor.log("loss", 1.0 / (run + e + 1) as f64);
                flor.log("lr", 0.01 * (run + 1) as f64);
            });
            flor.commit("run").unwrap();
        }
        flor
    }

    #[test]
    fn filter_order_limit_matches_oracle() {
        let flor = seeded();
        let build = || {
            flor.query(&["loss", "lr"])
                .filter("lr", CmpOp::Gt, 0.015)
                .filter("tstamp", CmpOp::Le, 3)
                .order_by("loss", true)
                .limit(4)
        };
        let inc = build().collect().unwrap();
        let full = build().collect_full().unwrap();
        assert_eq!(inc, full);
        assert_eq!(inc.n_rows(), 4);
    }

    #[test]
    fn latest_after_filter_matches_oracle() {
        let flor = seeded();
        let build = || {
            flor.query(&["loss", "lr"])
                .filter("lr", CmpOp::Lt, 0.035)
                .latest(&["epoch_iteration"])
        };
        let inc = build().collect().unwrap();
        let full = build().collect_full().unwrap();
        assert_eq!(inc, full);
        // Latest over the filtered rows: runs 1..3 survive the lr filter,
        // so the max surviving tstamp per epoch is run 3's.
        assert_eq!(inc.n_rows(), 3);
        for v in &inc.column("tstamp").unwrap().values {
            assert_eq!(v, &Value::Int(3));
        }
    }

    #[test]
    fn pushdown_views_refresh_incrementally() {
        let flor = seeded();
        // A value predicate: the projection's view answers, filtered in
        // the post-pass.
        let q = || flor.query(&["loss"]).filter("loss", CmpOp::Lt, 0.3);
        let first = q().collect_view().unwrap();
        assert_eq!(first.n_rows(), 6);
        let before = flor.views.stats();
        flor.log("loss", 0.123);
        flor.commit("live").unwrap();
        let after = q().collect_view().unwrap();
        assert_eq!(after.n_rows(), 7);
        assert_eq!(*after, q().collect_full().unwrap());
        // Only a plan with no post-pass shares the maintained snapshot;
        // it is the same view.
        let plain = || flor.query(&["loss"]).collect_view().unwrap();
        assert!(Arc::ptr_eq(&plain(), &plain()));
        let stats = flor.views.stats();
        assert_eq!(stats.misses, before.misses, "delta applied, no rebuild");
    }

    #[test]
    fn unknown_filter_column_matches_nothing_in_both_paths() {
        let flor = seeded();
        let inc = flor
            .query(&["loss"])
            .filter_eq("no_such", 1)
            .collect()
            .unwrap();
        let full = flor
            .query(&["loss"])
            .filter_eq("no_such", 1)
            .collect_full()
            .unwrap();
        assert_eq!(inc, full);
        assert_eq!(inc.n_rows(), 0);
        assert!(inc.n_cols() > 0, "columns survive an empty match");
    }

    #[test]
    fn run_plan_traces_and_captures_slow_queries() {
        let flor = seeded();
        flor.set_tracing(true);
        flor.set_slow_query_threshold(Some(std::time::Duration::ZERO));
        let df = flor.query(&["loss"]).collect().unwrap();
        assert!(df.n_rows() > 0);
        let traces = flor.traces();
        let t = traces.last().expect("trace recorded");
        assert_eq!(t.label, "query.collect");
        assert!(t.span("view.plan").is_some());
        assert_eq!(flor.find_trace(t.id).as_ref(), Some(t));
        let slow = flor.slow_queries();
        let rec = slow.last().expect("zero threshold captures everything");
        assert!(rec.explain.contains("built at epoch"), "{}", rec.explain);
        assert!(rec.explain.contains("rows returned to caller"));
        assert_eq!(rec.trace.label, "query.collect");
        flor.set_tracing(false);
        flor.set_slow_query_threshold(None);
        let n = flor.traces().len();
        flor.query(&["loss"]).collect().unwrap();
        assert_eq!(flor.traces().len(), n, "disabled: nothing recorded");
    }

    #[test]
    fn traced_snapshot_execution_is_byte_identical() {
        let flor = seeded();
        let plan = flor
            .query(&["loss", "lr"])
            .filter("lr", CmpOp::Gt, 0.015)
            .order_by("loss", true)
            .limit(5)
            .into_plan();
        let snap = flor.db.pin();
        let plain = flor.run_plan_at(&snap, &plan).unwrap();
        let mut tr = ActiveTrace::new(true, None, "query");
        let (traced, explain) = flor.execute_at(&snap, &plan, &mut tr).unwrap();
        assert_eq!(plain, traced);
        // Four runs of three epochs, two names each, in one coalesced
        // segment: nothing is pushed past the value predicate, so all 12
        // keys and their 24 cells reach the pivot.
        assert_eq!(explain.segments, (1, 1));
        assert_eq!(explain.merge, (12, 12));
        assert_eq!(explain.pivot, (24, 12));
        assert_eq!(explain.post_pass, Some((12, 5)));
        let trace = tr.into_trace().expect("recording handle");
        assert!(trace.span("store.scan").is_some());
        assert!(trace.span("pivot").is_some());
        assert!(trace.span("post_pass").is_some());
        // The untraced run made the segment's fragment; this one reused it.
        let scan = trace.span("store.scan").unwrap();
        assert!(scan
            .events
            .iter()
            .any(|e| e.message.contains("logs: 1 segments, 0 fragments made")));
    }

    #[test]
    fn value_named_like_an_index_column_fails_pushed_or_not() {
        let flor = seeded();
        flor.log("epoch_iteration", 7);
        flor.commit("clash").unwrap();
        let names = ["loss", "epoch_iteration"];
        assert!(flor.query(&names).collect_full().is_err());
        let pushed = flor.query(&names).filter("tstamp", CmpOp::Eq, 2);
        assert!(!pushed.plan().below_pivot().is_empty());
        assert!(pushed.collect_full().is_err());
    }

    #[test]
    fn plan_round_trip() {
        let flor = seeded();
        let plan = flor
            .query(&["loss"])
            .filter("tstamp", CmpOp::Gt, 1)
            .limit(2)
            .into_plan();
        let via_plan = flor.run_plan(&plan).unwrap();
        assert_eq!(via_plan.n_rows(), 2);
        assert_eq!(*via_plan, flor.run_plan_full(&plan).unwrap());
    }
}
