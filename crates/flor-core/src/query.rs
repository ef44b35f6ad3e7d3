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
//! One snapshot pivot, owned by `flor-view`, builds every frame, and it
//! has two callers; both end with the plan's whole
//! [`QueryPlan::post_pass`]. [`Flor::run_plan`] serves a plan
//! incrementally from the view catalog, which builds each view with the
//! snapshot pivot, then maintains `projid` / `tstamp` / `filename`
//! predicates and `latest` inside the view from the change feed.
//! [`Flor::execute_at`] runs the snapshot pivot per request
//! ([`flor_view::execute_at`]; [`Flor::run_plan_at`] and
//! [`Flor::run_plan_full`] are its one-line callers), pushing index
//! predicates into the `logs` fetch and cutting `latest` / top-K before
//! the pivot ([`QueryPlan::below_pivot`]; the table in
//! [`flor_view::plan`] says which step runs where). It is both the
//! oracle every incremental answer is checked against and the path
//! `flor-serve` answers sessions with, and it reports every step's rows
//! in and out as a [`PlanExplain`]. Both take tracing as an
//! [`ActiveTrace`] handle that is inert when tracing and the slow log
//! are off, so neither has a traced twin.
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
use flor_store::{CmpOp, Predicate, Query, QueryExplain, StoreResult};
use flor_view::{CatalogStats, PlanExplain, QueryPlan};
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

/// How one [`QueryBuilder`] execution actually ran, stage by stage —
/// returned by [`QueryBuilder::explain`]. The plan really executes
/// (every count is a measurement, not an estimate):
/// [`ExplainReport::frame`] is the same frame
/// [`QueryBuilder::collect_view`] would have returned.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// The plan that ran.
    pub plan: QueryPlan,
    /// Store-layer report for the base `logs` fetch that feeds the
    /// view: access path (index vs full scan), zone-map segment
    /// pruning, rows examined vs returned at the store, binary-search
    /// probes into clustered segments (`clustered_probes` — `logs` is
    /// clustered by `tstamp`), and the order path (full sort vs
    /// streaming top-K) when the query sorts. Probed on a fresh
    /// snapshot with the view build's fetch — [`QueryPlan::logs_fetch`]
    /// joined with the plan's `projid` / `tstamp` / `filename`
    /// predicates — so under concurrent commits the counts can trail
    /// the serving snapshot's by the interleaved rows.
    pub store: QueryExplain,
    /// Whether the view catalog served the plan from an existing
    /// materialized view (after applying any pending feed deltas).
    pub view_hit: bool,
    /// Whether serving had to fall back to a from-scratch rebuild
    /// (a change-feed gap; see `flor_view`).
    pub view_rebuilt: bool,
    /// Change-feed batches applied to bring the view current.
    pub batches_applied: u64,
    /// Wall-clock nanoseconds serving the plan from the view catalog —
    /// refresh (or first build) plus the residual post-pass.
    pub serve_nanos: u64,
    /// Rows in the final frame handed back to the caller.
    pub rows_returned: usize,
    /// The result frame itself.
    pub frame: Arc<DataFrame>,
}

impl std::fmt::Display for ExplainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "EXPLAIN {:?}", self.plan.names)?;
        let view = match (self.view_hit, self.view_rebuilt) {
            (_, true) => "rebuild",
            (true, false) => "hit",
            (false, false) => "miss (built)",
        };
        writeln!(
            f,
            "  view: {view}, {} feed batch(es) applied, serve {}ns",
            self.batches_applied, self.serve_nanos
        )?;
        for line in self.store.to_string().lines() {
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
    /// [`QueryBuilder::collect_view`]).
    ///
    /// When tracing is enabled ([`Flor::set_tracing`]) the execution
    /// publishes a `query.collect` trace; when the slow-query log is
    /// armed ([`Flor::set_slow_query_threshold`]) and the execution
    /// exceeds the threshold, a measured [`ExplainReport`] plus the
    /// trace land in [`Flor::slow_queries`]. With both off the trace
    /// handle is inert: two relaxed loads on top of the plain view serve.
    pub fn run_plan(&self, plan: &QueryPlan) -> StoreResult<Arc<DataFrame>> {
        let registry = self.metrics_registry();
        let (traces, slow) = (registry.traces(), registry.slow_queries());
        let mut tr = ActiveTrace::new(traces.enabled() || slow.armed(), None, "query.collect");
        tr.set_detail(|| format!("{:?}", plan.names));
        // The stats delta is only consumed by a slow-query capture;
        // don't pay for the catalog lock when no threshold is armed.
        let before = slow.armed().then(|| self.views.stats());
        let sp = tr.begin("view.plan");
        let result = self.views.plan(plan);
        tr.end(sp);
        if let Ok(frame) = &result {
            tr.event(|| format!("rows={}", frame.n_rows()));
        }
        let trace = tr.finish(traces);
        let frame = result?;
        if let (Some(trace), Some(before), Some(threshold)) =
            (trace, before, slow.threshold_nanos())
        {
            let total = trace.total_nanos;
            if total > threshold {
                // The same measured report `QueryBuilder::explain`
                // returns; a failed store probe is recorded, not dropped.
                let explain = match self.explain_report(plan, &before, total, Arc::clone(&frame)) {
                    Ok(report) => report.to_string(),
                    Err(e) => format!("explain unavailable: {e}"),
                };
                slow.record(flor_obs::SlowQueryRecord {
                    trace: Arc::unwrap_or_clone(trace),
                    verb: "query.collect".into(),
                    plan: format!("{:?}", plan.names),
                    explain,
                    total_nanos: total,
                    threshold_nanos: threshold,
                    at_unix_micros: flor_obs::unix_micros(),
                });
            }
        }
        Ok(frame)
    }

    /// The one place an [`ExplainReport`] is built: the view-stage
    /// deltas since `before` plus a store probe — on a fresh snapshot —
    /// of the view build's `logs` fetch behind the serve that produced
    /// `frame`.
    fn explain_report(
        &self,
        plan: &QueryPlan,
        before: &CatalogStats,
        serve_nanos: u64,
        frame: Arc<DataFrame>,
    ) -> StoreResult<ExplainReport> {
        let after = self.views.stats();
        let (pushdown, _) = plan.split_predicates();
        let fetch = pushdown
            .into_iter()
            .fold(plan.logs_fetch(), Query::filter_pred);
        let (_, store) = self.db.pin().explain(&fetch)?;
        Ok(ExplainReport {
            store,
            view_hit: after.hits > before.hits,
            view_rebuilt: after.fallback_rebuilds > before.fallback_rebuilds,
            batches_applied: after.batches_applied.saturating_sub(before.batches_applied),
            serve_nanos,
            rows_returned: frame.n_rows(),
            plan: plan.clone(),
            frame,
        })
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
    /// This is how `flor-serve` answers every request of a session at
    /// the epoch the session pinned: byte-identical to what
    /// [`Flor::run_plan_full`] would have returned at that moment.
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
    /// Predicates over `projid`/`tstamp`/`filename` are maintained inside
    /// the materialized view and, from scratch, join the store's `logs`
    /// fetch; predicates over loop dimensions run on each fetched row's
    /// key before the pivot; predicates over logged values run in the
    /// post-pass. A predicate naming an unknown column matches nothing.
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

    /// Execute incrementally and return an owned frame.
    pub fn collect(self) -> StoreResult<DataFrame> {
        self.flor.run_plan(&self.plan).map(|arc| (*arc).clone())
    }

    /// Execute incrementally without copying: plans with no post-pass
    /// (no residual filter, order or limit) share the maintained view's
    /// allocation — repeated calls with no intervening commits return
    /// the same `Arc`.
    pub fn collect_view(self) -> StoreResult<Arc<DataFrame>> {
        self.flor.run_plan(&self.plan)
    }

    /// Execute the plan and report how it ran: the store's access path
    /// and zone-map pruning for the base `logs` fetch, the view
    /// catalog's hit/miss/rebuild behaviour, and per-stage wall-clock
    /// timings. The plan really executes — [`ExplainReport::frame`] is
    /// the frame [`QueryBuilder::collect_view`] would return, and every
    /// count is a measurement taken from that execution (plus one store
    /// probe of the same base fetch), not a planner estimate.
    pub fn explain(self) -> StoreResult<ExplainReport> {
        let before = self.flor.views.stats();
        let t0 = Instant::now();
        let frame = self.flor.run_plan(&self.plan)?;
        let serve_nanos = t0.elapsed().as_nanos() as u64;
        self.flor
            .explain_report(&self.plan, &before, serve_nanos, frame)
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
        let q = || {
            flor.query(&["loss"])
                .filter("tstamp", CmpOp::Ge, 3)
                .collect_view()
        };
        let first = q().unwrap();
        assert_eq!(first.n_rows(), 6);
        let before = flor.views.stats();
        flor.log("loss", 0.123);
        flor.commit("live").unwrap();
        let after = q().unwrap();
        assert_eq!(after.n_rows(), 7);
        let stats = flor.views.stats();
        assert_eq!(stats.misses, before.misses, "delta applied, no rebuild");
        // No post-pass → snapshot sharing.
        assert!(Arc::ptr_eq(&after, &q().unwrap()));
    }

    #[test]
    fn a_filtered_views_cold_build_reads_only_admitted_rows() {
        let flor = seeded();
        let plan = QueryPlan::new(&["loss"]).filter("tstamp", CmpOp::Ge, 3);
        let returned = || {
            let metrics = flor.metrics();
            metrics.counter("store.query.rows_returned").unwrap_or(0)
        };
        let before = returned();
        let view = flor.run_plan(&plan).unwrap();
        // Runs 3 and 4 log `loss` once per epoch: 6 of the 12 rows.
        assert_eq!(view.n_rows(), 6);
        assert_eq!(returned() - before, 6, "the build read excluded rows");
        assert_eq!(*view, flor.run_plan_full(&plan).unwrap());
        let misses = flor.views.stats().misses;
        flor.log("loss", 0.5);
        flor.commit("live").unwrap();
        assert_eq!(flor.run_plan(&plan).unwrap().n_rows(), 7);
        assert_eq!(
            flor.views.stats().misses,
            misses,
            "delta applied, no rebuild"
        );
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
        assert!(rec.explain.contains("QUERY logs"), "store probe rendered");
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
        assert!(explain.store.rows_returned > 0);
        let trace = tr.into_trace().expect("recording handle");
        assert!(trace.span("store.scan").is_some());
        assert!(trace.span("pivot").is_some());
        assert!(trace.span("post_pass").is_some());
        let scan = trace.span("store.scan").unwrap();
        assert!(scan.events.iter().any(|e| e.message.contains("access=")));
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
