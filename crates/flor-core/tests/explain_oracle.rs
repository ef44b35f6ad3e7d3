//! `QueryBuilder::explain` oracle: the report's counts must be
//! measurements of the query that actually ran — the frame equals the
//! from-scratch oracle, the store probe's row accounting equals a raw
//! scan of the `logs` table, and the view stage flags reflect the
//! catalog's real hit/miss/refresh behaviour.

use flor_core::Flor;
use flor_df::Value;
use flor_store::CmpOp;

fn seeded() -> Flor {
    let flor = Flor::new("explain");
    flor.set_filename("train.fl");
    for run in 0..4i64 {
        flor.for_each("epoch", 0..3, |flor, &e| {
            flor.log("loss", 1.0 / (run + e + 1) as f64);
            flor.log("lr", 0.01 * (run + 1) as f64);
            if e == 0 {
                flor.log("note", format!("run{run}"));
            }
        });
        flor.commit("run").unwrap();
    }
    flor
}

/// Count `logs` rows whose `value_name` is one of `names` — what the
/// store probe behind `explain` must report as returned rows.
fn matching_log_rows(flor: &Flor, names: &[&str]) -> usize {
    let logs = flor.db.scan("logs").unwrap();
    logs.column("value_name")
        .unwrap()
        .values
        .iter()
        .filter(|v| names.iter().any(|n| **v == Value::from(*n)))
        .count()
}

#[test]
fn explain_counts_match_the_query_that_ran() {
    let flor = seeded();
    let build = || {
        flor.query(&["loss", "lr"])
            .filter("lr", CmpOp::Gt, 0.015)
            .order_by("loss", true)
            .limit(5)
    };

    let report = build().explain().unwrap();
    let oracle = build().collect_full().unwrap();

    // The plan really executed: same frame as the oracle.
    assert_eq!(*report.frame, oracle);
    assert_eq!(report.rows_returned, oracle.n_rows());
    assert_eq!(report.rows_returned, 5);

    // Store probe: the base fetch is a zone-pruned scan of `logs` and
    // returns exactly the projected log rows.
    assert_eq!(report.store.table, "logs");
    assert_eq!(
        report.store.rows_returned,
        matching_log_rows(&flor, &["loss", "lr"])
    );
    assert!(report.store.rows_examined >= report.store.rows_returned);
    assert_eq!(
        report.store.segments_scanned + report.store.segments_pruned,
        report.store.segments_total
    );

    // First run built the view; nothing to rebuild.
    assert!(!report.view_hit, "first execution must be a build");
    assert!(!report.view_rebuilt);

    // The rendering carries the headline numbers.
    let text = report.to_string();
    assert!(text.contains("EXPLAIN"));
    assert!(text.contains("QUERY logs\n"));
}

#[test]
fn explain_reflects_view_reuse_and_refresh() {
    let flor = seeded();
    let build = || flor.query(&["loss"]).filter("tstamp", CmpOp::Ge, 2);

    let first = build().explain().unwrap();
    assert!(!first.view_hit);

    // Unchanged data: served from cache, no commits to catch up over.
    let second = build().explain().unwrap();
    assert!(second.view_hit, "second execution must reuse the view");
    assert!(!second.view_rebuilt);
    assert_eq!(second.batches_applied, 0);
    assert_eq!(*second.frame, *first.frame);

    // A commit in between: still a hit, refreshed by applying deltas.
    flor.log("loss", 0.001);
    flor.commit("live").unwrap();
    let third = build().explain().unwrap();
    assert!(third.view_hit);
    assert!(!third.view_rebuilt);
    assert!(third.batches_applied >= 1, "delta batch must be applied");
    assert_eq!(third.rows_returned, second.rows_returned + 1);
    assert_eq!(*third.frame, build().collect_full().unwrap());
}

/// A rendered [`flor_core::ExplainReport`] minus its two wall-clock
/// figures (`serve …ns`, `elapsed: …ns`), the only run-dependent text.
fn without_timings(report: &str) -> String {
    report
        .lines()
        .map(|l| l.split(", serve ").next().unwrap_or(l))
        .map(|l| l.split("; elapsed: ").next().unwrap_or(l))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn slow_log_breach_and_explain_report_the_same_execution() {
    let flor = seeded();
    let build = || {
        flor.query(&["loss", "lr"])
            .filter("lr", CmpOp::Gt, 0.015)
            .order_by("loss", true)
            .limit(5)
    };
    // Warm the view so both executions below are cache hits over an
    // unchanged history: identical verdicts, identical counts.
    build().collect().unwrap();

    // An embedded `run_plan` breaching a zero threshold captures its
    // report into the slow log (tracing itself stays off)...
    flor.set_slow_query_threshold(Some(std::time::Duration::ZERO));
    flor.run_plan(build().plan()).unwrap();
    flor.set_slow_query_threshold(None);
    let slow = flor.slow_queries();
    let captured = slow.last().expect("zero threshold captures everything");
    assert_eq!(captured.verb, "query.collect");
    assert!(flor.traces().is_empty(), "slow-log-only: ring stays empty");

    // ...and `explain()` on the same plan builds the same report through
    // the same constructor: view verdict, segment and row counts agree
    // line for line once the timings are cut.
    let report = build().explain().unwrap();
    assert!(report.view_hit && !report.view_rebuilt);
    assert_eq!(report.rows_returned, 5);
    assert_eq!(
        report.store.segments_scanned + report.store.segments_pruned,
        report.store.segments_total
    );
    let rendered = without_timings(&report.to_string());
    assert_eq!(without_timings(&captured.explain), rendered);
    assert!(rendered.contains("view: hit, caught up over 0 commit(s)"));
    assert!(rendered.contains(&format!(
        "rows: {} examined, {} matched, {} returned",
        report.store.rows_examined, report.store.rows_matched, report.store.rows_returned
    )));
    assert!(rendered.ends_with("rows returned to caller: 5"));
}

/// The snapshot executor's explain covers the whole plan: a selective
/// plan's `tstamp` predicate skips the segment that cannot hold it and
/// keeps one run's keys, so the pivot writes those keys' cells only.
#[test]
fn snapshot_explain_reports_rows_through_every_step() {
    let flor = Flor::new("explain");
    flor.set_filename("train.fl");
    for run in 0..3i64 {
        flor.for_each("epoch", 0..3, |flor, &e| {
            flor.log("loss", 1.0 / (run + e + 1) as f64);
            flor.log("lr", 0.01 * (run + 1) as f64);
        });
        flor.commit("run").unwrap();
    }
    let plan = flor
        .query(&["loss", "lr"])
        .filter("tstamp", CmpOp::Eq, 2)
        .into_plan();
    let one_run = flor
        .db
        .scan("logs")
        .unwrap()
        .filter(|r| r.get("tstamp") == Some(&Value::Int(2)))
        .n_rows();
    let mut tr = flor_obs::ActiveTrace::new(true, None, "query");
    let (df, explain) = flor.execute_at(&flor.db.pin(), &plan, &mut tr).unwrap();
    assert_eq!(df, flor.run_plan_full(&plan).unwrap());
    assert_eq!(df.n_rows(), 3);

    // Three commits of six rows coalesce into a 12-row segment (runs 1
    // and 2) and a 6-row one (run 3): only the first can hold `tstamp`
    // 2, and of its six keys the predicate keeps run 2's three.
    assert_eq!(explain.segments, (1, 2));
    assert_eq!(explain.store_predicates, Some((6, 3)));
    assert_eq!(explain.merge, (3, 3));
    assert_eq!(explain.pivot, (one_run, 3));
    assert_eq!(explain.post_pass, Some((3, 3)));
    let text = explain.to_string();
    // The first execution makes every sealed `logs` segment's fragment —
    // all 18 rows, whatever the plan projects; the fragments stay with
    // the segments, so running again (on a new pin of the same
    // segments) makes none.
    assert!(
        text.starts_with("logs: 1/2 segments merged, 2 fragments made (18 rows summarised)"),
        "{text}"
    );
    let mut inert = flor_obs::ActiveTrace::new(false, None, "");
    let (again, explain_again) = flor.execute_at(&flor.db.pin(), &plan, &mut inert).unwrap();
    assert_eq!(again, df);
    assert_eq!(explain_again.fragments, (0, 0));
    assert!(
        text.contains(&format!("pivot: {one_run} cells in, 3 rows out")),
        "{text}"
    );

    // The same counts ride on the trace as span events.
    let trace = tr.into_trace().expect("recording handle");
    let events = |span: &str| -> Vec<String> {
        let s = trace.span(span).expect(span);
        s.events.iter().map(|e| e.message.clone()).collect()
    };
    assert!(events("store.scan")
        .iter()
        .any(|e| e.contains("2 fragments made (18 rows summarised)")));
    assert!(events("pivot").contains(&"store predicates: 6 keys in, 3 keys out".to_string()));
    assert!(events("pivot").contains(&format!("pivot: {one_run} cells in, 3 rows out")));
    assert!(events("post_pass").contains(&"post-pass: 3 rows in, 3 rows out".to_string()));
}

#[test]
fn kernel_metrics_snapshot_sees_every_layer() {
    let flor = seeded();
    flor.dataframe(&["loss"]).unwrap();
    // The view pivots from per-segment fragments and fetches no `logs`
    // row; the explain's store probe is the kernel's store query here.
    flor.query(&["loss"]).explain().unwrap();
    let snap = flor.metrics();

    // Store layer: one commit latency sample per kernel commit.
    let commits = snap.histogram("store.commit.nanos").unwrap();
    assert_eq!(commits.count, 4);
    assert!(snap.counter("store.commit.rows").unwrap() > 0);
    assert!(snap.histogram("store.wal.fsync_nanos").unwrap().count >= 4);

    // Query accounting flowed from the probe's traced store read.
    assert!(snap.counter("store.query.rows_examined").unwrap() > 0);

    // View layer: the two dataframe calls above are one miss + one hit.
    assert_eq!(snap.counter("view.misses"), Some(1));
    assert_eq!(snap.counter("view.hits"), Some(1));

    // Renders both ways without panicking, and JSON mentions a metric.
    assert!(snap.render_text().contains("store.commit.nanos"));
    assert!(snap.to_json().contains("store.commit.rows"));
}
