//! Observability: one metrics registry across the whole stack, plus a
//! per-query EXPLAIN.
//!
//! A training loop commits metrics while a monitoring query re-reads
//! them; a hindsight backfill runs in the background. At the end,
//! `flor.metrics()` renders what every layer actually did — commit and
//! WAL-fsync latency histograms, checkpoint/compaction passes, zone-map
//! pruning ratios, job queue-wait vs run time, view hits and misses —
//! and `query(..).explain()` reports how one specific query was
//! answered: a maintained view's hit, build, selection or catch-up, or
//! the snapshot executor's per-step counts, and the time it took.
//!
//! Run with `cargo run --example observability`.

use flordb::prelude::*;

fn main() {
    let flor = Flor::new("obs-demo");
    flor.set_filename("train.fl");

    // 1. Generate history: 60 runs × 8 epochs × 2 metrics, with a
    //    monitoring query after every 10th run (so the view catalog sees
    //    a realistic build-then-refresh pattern).
    for run in 0..60 {
        flor.for_each("epoch", 0..8, |flor, &e| {
            flor.log("loss", 1.0 / (run + e + 1) as f64);
            flor.log("acc", 0.7 + (e as f64) * 0.02);
        });
        flor.commit(&format!("run {run}")).unwrap();
        if run % 10 == 9 {
            flor.dataframe(&["loss", "acc"]).unwrap();
        }
    }

    // 2. EXPLAIN one query. The plan really executes — every number in
    //    the report is a measurement of this run, not an estimate.
    let report = flor
        .query(&["loss", "acc"])
        .filter("acc", CmpOp::Gt, 0.8)
        .order_by("loss", true)
        .limit(10)
        .explain()
        .unwrap();
    println!("{report}\n");
    assert_eq!(report.rows_returned, 10);

    // Re-running the same plan is a view hit: no rebuild, no new rows.
    let again = flor
        .query(&["loss", "acc"])
        .filter("acc", CmpOp::Gt, 0.8)
        .order_by("loss", true)
        .limit(10)
        .explain()
        .unwrap();
    assert_eq!(again.answer.how, flordb::view::How::Hit);
    println!("re-run: {}, serve {}ns\n", again.answer, again.serve_nanos);

    // A store query: the runs of `train.fl`, read from a zone-pruned
    // scan of `logs` (dataframe reads merge per-segment pivot fragments
    // instead, and make no store query).
    let runs = flordb::core::runs_of(&flor, "train.fl").unwrap();
    assert_eq!(runs.len(), 60);

    // 3. The instance-wide ledger: every histogram, counter, gauge and
    //    retained event, across store + jobs + views, in one consistent
    //    snapshot. (Also available as JSON via `snapshot.to_json()`.)
    let snapshot = flor.metrics();
    println!("{}", snapshot.render_text());

    let commits = snapshot.histogram("store.commit.nanos").unwrap();
    println!(
        "committed {} times, mean {:.0}ns, p99 <= {}ns",
        commits.count,
        commits.mean(),
        commits.quantile(0.99).unwrap()
    );
    let examined = snapshot.counter("store.query.rows_examined").unwrap();
    let returned = snapshot.counter("store.query.rows_returned").unwrap();
    println!("store queries: {examined} rows examined, {returned} returned");
    assert!(
        examined >= returned && returned > 0,
        "the runs query is counted"
    );

    // 4. Collection is on by default and costs almost nothing; turn it
    //    off entirely and the registry goes quiet (what the overhead
    //    benches measure against).
    flor.metrics_registry().set_enabled(false);
    flor.log("loss", 0.0001);
    flor.commit("dark").unwrap();
    let after = flor.metrics();
    assert_eq!(
        after.histogram("store.commit.nanos").unwrap().count,
        commits.count,
        "disabled registry records nothing"
    );
    println!("\nmetrics disabled: the last commit left no samples behind");
}
