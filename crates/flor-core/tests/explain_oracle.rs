//! `QueryBuilder::explain` oracle: the report describes the execution
//! that actually ran — the frame equals the from-scratch oracle, and its
//! `How` is what the one read path did: a view built, then hit, then
//! caught up over the rows a commit added, or the snapshot executor with
//! its measured per-step counts. The store's own accounting is checked on
//! store queries that really run.

use flor_core::{runs_of, Flor, How};
use flor_df::Value;
use flor_store::{CmpOp, Query};

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

/// Count `logs` rows whose `value_name` is one of `names` — what a store
/// query for those names must report as returned rows.
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
    assert_eq!(*report.answer.frame, oracle);
    assert_eq!(report.rows_returned, oracle.n_rows());
    assert_eq!(report.rows_returned, 5);

    // A value predicate, an ordering and a limit all run over the
    // projection's view, which this first execution built.
    assert_eq!(report.answer.how, How::Built);
    assert_eq!(report.answer.epoch, flor.db.pin().epoch());

    // The rendering carries the headline numbers.
    let text = report.to_string();
    assert!(text.starts_with("EXPLAIN"));
    let epoch = report.answer.epoch;
    assert!(
        text.contains(&format!("\n  built at epoch {epoch}\n")),
        "{text}"
    );
}

#[test]
fn explain_reflects_view_reuse_and_refresh() {
    let flor = seeded();
    let build = || flor.query(&["loss"]).filter("loss", CmpOp::Lt, 0.5);

    let first = build().explain().unwrap();
    assert_eq!(first.answer.how, How::Built);

    // Unchanged data: served from cache, no rows to catch up over.
    let second = build().explain().unwrap();
    assert_eq!(
        second.answer.how,
        How::Hit,
        "second execution must reuse the view"
    );
    assert_eq!(*second.answer.frame, *first.answer.frame);

    // A commit in between: the view catches up over the row it added.
    flor.log("loss", 0.001);
    flor.commit("live").unwrap();
    let third = build().explain().unwrap();
    let caught_up = How::CaughtUp {
        rows: 1,
        fallbacks: 0,
    };
    assert_eq!(third.answer.how, caught_up);
    assert_eq!(third.rows_returned, second.rows_returned + 1);
    assert_eq!(*third.answer.frame, build().collect_full().unwrap());

    // A `tstamp` predicate runs below the pivot: the snapshot executor
    // answers, and the views are not read.
    let stats = flor.views.stats();
    let pushed = || flor.query(&["loss"]).filter("tstamp", CmpOp::Ge, 2);
    let report = pushed().explain().unwrap();
    match &report.answer.how {
        How::Executed { explain, behind } => {
            assert!(!behind);
            assert_eq!(
                explain.post_pass,
                Some((report.rows_returned, report.rows_returned))
            );
        }
        other => panic!("expected the executor, got {other:?}"),
    }
    assert_eq!(*report.answer.frame, pushed().collect_full().unwrap());
    assert_eq!(flor.views.stats(), stats);
    assert!(report.to_string().contains("segments merged"), "{report}");
}

/// A rendered [`flor_core::ExplainReport`] minus its wall-clock figure
/// (`, serve …ns`), the only run-dependent text.
fn without_timings(report: &str) -> String {
    report
        .lines()
        .map(|l| l.split(", serve ").next().unwrap_or(l))
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
    let pushed = flor.query(&["loss"]).filter("tstamp", CmpOp::Eq, 2);
    flor.run_plan(pushed.plan()).unwrap();
    flor.set_slow_query_threshold(None);
    let slow = flor.slow_queries();
    let captured = &slow[slow.len() - 2];
    assert_eq!(captured.verb, "query.collect");
    assert!(flor.traces().is_empty(), "slow-log-only: ring stays empty");

    // ...and `explain()` on the same plan builds the same report through
    // the same constructor: the answer's `How` and the rows returned agree
    // line for line once the timing is cut.
    let report = build().explain().unwrap();
    assert_eq!(report.answer.how, How::Hit);
    assert_eq!(report.rows_returned, 5);
    let rendered = without_timings(&report.to_string());
    assert_eq!(without_timings(&captured.explain), rendered);
    let epoch = report.answer.epoch;
    assert!(
        rendered.contains(&format!("  hit at epoch {epoch}\n")),
        "{rendered}"
    );
    assert!(rendered.ends_with("rows returned to caller: 5"));

    // The executed plan's record carries the executor's report.
    let executed = &slow[slow.len() - 1].explain;
    assert!(
        executed.contains(&format!("  executed at epoch {epoch}: logs: ")),
        "{executed}"
    );
    assert!(executed.contains("store predicates: "), "{executed}");
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
    flor.query(&["loss"]).explain().unwrap();
    // No dataframe read fetches a `logs` row (views and the executor merge
    // per-segment fragments); listing a script's runs is a store query.
    assert_eq!(runs_of(&flor, "train.fl").unwrap().len(), 4);
    let snap = flor.metrics();

    // Store layer: one commit latency sample per kernel commit.
    let commits = snap.histogram("store.commit.nanos").unwrap();
    assert_eq!(commits.count, 4);
    assert!(snap.counter("store.commit.rows").unwrap() > 0);
    assert!(snap.histogram("store.wal.fsync_nanos").unwrap().count >= 4);

    // Query accounting flowed from that store read.
    assert!(snap.counter("store.query.rows_examined").unwrap() > 0);

    // View layer: the two dataframe calls above are one miss + one hit.
    assert_eq!(snap.counter("view.misses"), Some(1));
    assert_eq!(snap.counter("view.hits"), Some(1));

    // Renders both ways without panicking, and JSON mentions a metric.
    assert!(snap.render_text().contains("store.commit.nanos"));
    assert!(snap.to_json().contains("store.commit.rows"));
}

/// A store query's explain accounts for exactly the rows it read: a
/// zone-pruned scan of `logs` for the projected names returns every row
/// of those names, and its rendering carries the counts.
#[test]
fn a_store_query_explains_the_rows_it_read() {
    let flor = seeded();
    let names = ["loss", "lr"];
    let fetch = Query::table("logs").filter_in("value_name", names.map(Value::from).to_vec());
    let (_, store) = flor.db.pin().explain(&fetch).unwrap();
    assert_eq!(store.table, "logs");
    assert_eq!(store.rows_returned, matching_log_rows(&flor, &names));
    assert!(store.rows_examined >= store.rows_returned);
    assert_eq!(
        store.segments_scanned + store.segments_pruned,
        store.segments_total
    );
    let text = store.to_string();
    assert!(text.starts_with("QUERY logs\n"));
    assert!(text.contains(&format!(
        "rows: {} examined, {} matched, {} returned",
        store.rows_examined, store.rows_matched, store.rows_returned
    )));
}
