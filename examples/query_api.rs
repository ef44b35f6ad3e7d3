//! The lazy query builder: one composable surface for every context read.
//!
//! Builds a multi-run training history, then answers selective questions
//! two ways — the legacy shape (full pivot, then filter by hand) and the
//! `flor.query` builder (predicate pushdown into an incrementally
//! maintained view) — and shows they agree cell for cell while the
//! builder path skips re-pivoting the world per request.
//!
//! Run with `cargo run --release --example query_api`.

use flordb::prelude::*;
use std::time::Instant;

fn main() {
    let flor = Flor::new("query-demo");
    flor.set_filename("train.fl");

    // 300 runs × 10 epochs of history, sweeping the learning rate.
    for run in 0..300i64 {
        flor.for_each("epoch", 0..10, |flor, &e| {
            let lr = flor.arg("lr", 0.001 * (run % 10 + 1) as f64);
            flor.log("loss", 1.0 / (run + e + 1) as f64 + lr.as_f64().unwrap());
            flor.log("acc", 0.70 + (e as f64) * 0.01);
        });
        flor.commit(&format!("run {run}")).unwrap();
    }

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

    // Builder, cold: first call materializes the filtered view.
    let t = Instant::now();
    let cold = question().collect().unwrap();
    let cold_time = t.elapsed();

    // Builder, steady state: new commits land as deltas; the selective
    // query is served from the maintained (tiny) view plus a post-pass.
    flor.log("loss", 0.5);
    flor.commit("one more").unwrap();
    let t = Instant::now();
    let warm = question().collect().unwrap();
    let warm_time = t.elapsed();

    println!("full pivot + hand filter : {legacy_time:>10.1?}");
    println!("flor.query, cold build   : {cold_time:>10.1?}");
    println!("flor.query, incremental  : {warm_time:>10.1?}");
    println!("\ntop-5 epochs by loss (recent high-lr runs):\n{cold}");

    // Same answer on every path — and the oracle agrees.
    assert_eq!(legacy.to_rows(), cold.to_rows());
    let oracle = question().collect_full().unwrap();
    assert_eq!(warm, oracle);

    // The legacy entrypoints are wrappers over the same builder.
    assert_eq!(
        flor.dataframe(&["acc"]).unwrap(),
        flor.query(&["acc"]).collect().unwrap()
    );
    println!("\nlegacy == builder == oracle: verified");
}
