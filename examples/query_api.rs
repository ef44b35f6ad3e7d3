//! The lazy query builder: one composable surface for every context read.
//!
//! Builds a multi-run training history, then answers selective questions
//! two ways — the legacy shape (full pivot, then filter by hand) and the
//! `flor.query` builder — and shows they agree cell for cell while the
//! builder path skips re-pivoting the world per request. The builder's
//! one routing rule sends a question that filters on `tstamp` to the
//! snapshot executor, which tests the filter as it merges each sealed
//! `logs` segment's pivot fragment (made once, on first read), so a fresh
//! snapshot after a commit pivots only that commit's rows; an unfiltered
//! read of the same names is one incrementally maintained view; and an
//! unfiltered top-5 merges only the keys each segment's summaries say can
//! be among the best.
//!
//! Run with `cargo run --release --example query_api`.

use flordb::prelude::*;
use flordb::view::How;
use std::time::Instant;

fn main() {
    let flor = Flor::new("query-demo");
    flor.set_filename("train.fl");
    // Maintenance runs at fixed points, not in the background: a
    // compaction finishing behind the reads below would replace segments
    // they had already summarised.
    flor.set_compaction_trigger(None);

    // 300 runs × 10 epochs of history, sweeping the learning rate.
    for run in 0..300i64 {
        flor.for_each("epoch", 0..10, |flor, &e| {
            let lr = flor.arg("lr", 0.001 * (run % 10 + 1) as f64);
            flor.log("loss", 1.0 / (run + e + 1) as f64 + lr.as_f64().unwrap());
            flor.log("acc", 0.70 + (e as f64) * 0.01);
        });
        flor.commit(&format!("run {run}")).unwrap();
    }
    flor.compact().unwrap();

    // The question: the 5 best-loss epochs among recent high-lr runs.
    let question = || {
        flor.query(&["loss", "acc", "arg::lr"])
            .filter("tstamp", CmpOp::Gt, 290)
            .filter("arg::lr", CmpOp::Ge, 0.009)
            .order_by("loss", true)
            .limit(5)
    };

    // Legacy shape: materialize everything, then post-filter by hand.
    let t = Instant::now();
    let full = flor
        .query(&["loss", "acc", "arg::lr"])
        .collect_full()
        .unwrap();
    let legacy = full
        .filter(|r| {
            r.get("tstamp").and_then(Value::as_i64).unwrap_or(0) > 290
                && r.get("arg::lr").and_then(Value::as_f64).unwrap_or(0.0) >= 0.009
        })
        .sort_by(&[("loss", true)])
        .unwrap()
        .head(5);
    let legacy_time = t.elapsed();

    // Builder, cold: the `tstamp` filter sends the question to the
    // snapshot executor, whose first read makes every sealed `logs`
    // segment's pivot fragment.
    let t = Instant::now();
    let cold = question().collect().unwrap();
    let cold_time = t.elapsed();

    // Builder, steady state: the executor at a fresh pin after a commit.
    // The cold read made every older `logs` segment's pivot fragment, so
    // only the new segment's one row is pivoted; the rest is a merge.
    flor.log("loss", 0.5);
    flor.commit("one more").unwrap();
    let t = Instant::now();
    let report = question().explain().unwrap();
    let warm_time = t.elapsed();
    let How::Executed { explain, .. } = &report.answer.how else {
        panic!("a `tstamp` filter runs below the pivot: {report}");
    };
    assert_eq!(explain.fragments, (1, 1), "only the new segment: {explain}");
    let warm = (*report.answer.frame).clone();

    // The snapshot executor called directly at a fresh pin answers the
    // same, against a hand-filtered full pivot.
    let mut inert = flordb::obs::ActiveTrace::new(false, None, "");
    let (fresh, _) = flor
        .execute_at(&flor.db.pin(), &question().into_plan(), &mut inert)
        .unwrap();
    let by_hand = flor
        .query(&["loss", "acc", "arg::lr"])
        .collect_full()
        .unwrap()
        .filter(|r| {
            r.get("tstamp").and_then(Value::as_i64).unwrap_or(0) > 290
                && r.get("arg::lr").and_then(Value::as_f64).unwrap_or(0.0) >= 0.009
        })
        .sort_by(&[("loss", true)])
        .unwrap()
        .head(5);
    assert_eq!(fresh, by_hand);

    // An unfiltered question: the 5 best-loss epochs of all history. The
    // top-K cut reads each fragment's `loss` cells in value order and
    // merges its 5 best keys, plus the keys of a run whose rows straddle
    // two segments (both fragments hold them), not all 3,000 keys.
    let best = || {
        flor.query(&["loss", "acc", "arg::lr"])
            .order_by("loss", true)
            .limit(5)
    };
    let (top, explain) = flor
        .execute_at(&flor.db.pin(), &best().into_plan(), &mut inert)
        .unwrap();
    let sorted = flor
        .query(&["loss", "acc", "arg::lr"])
        .collect_full()
        .unwrap()
        .sort_by(&[("loss", true)])
        .unwrap()
        .head(5);
    assert_eq!(top, sorted);
    let (fragments, kept) = explain.cut_summaries.expect("the cut read the summaries");
    assert!(kept <= 5 * fragments + 10 * (fragments - 1), "{explain}");
    assert_eq!(explain.merge.0, kept, "{explain}");
    println!("\nthe 5 best-loss epochs of all history:\n{explain}");

    println!("full pivot + hand filter : {legacy_time:>10.1?}");
    println!("flor.query, cold build   : {cold_time:>10.1?}");
    println!("flor.query, incremental  : {warm_time:>10.1?}");
    println!("\ntop-5 epochs by loss (recent high-lr runs):\n{cold}");

    // Same answer on every path — and the oracle agrees.
    assert_eq!(legacy.to_rows(), cold.to_rows());
    let oracle = question().collect_full().unwrap();
    assert_eq!(warm, oracle);

    // The cold and warm filtered reads are executor answers and build no
    // view; an unfiltered read of the same names makes the one view.
    let names = ["loss", "acc", "arg::lr"];
    let plain = flor.query(&names).collect().unwrap();
    assert_eq!(plain, flor.query(&names).collect_full().unwrap());
    assert_eq!(flor.views.stats().misses, 1, "one build per projection");

    // The legacy entrypoints are wrappers over the same builder.
    assert_eq!(
        flor.dataframe(&["acc"]).unwrap(),
        flor.query(&["acc"]).collect().unwrap()
    );
    println!("\nlegacy == builder == oracle: verified");
}
