//! Incremental materialized views: the paper's "incremental context
//! maintenance" made visible.
//!
//! A training loop keeps committing new metrics while a monitoring query
//! re-reads `flor.dataframe` after every run. The first read builds the
//! view; every later read applies just the freshly committed deltas — no
//! re-join, no re-pivot of history. The catalog's counters prove it.
//!
//! Run with `cargo run --example incremental_views`.

use flordb::prelude::*;
use std::time::Instant;

fn main() {
    let flor = Flor::new("views-demo");
    flor.set_filename("train.fl");

    // Simulate a long-lived project: 200 runs × 10 epochs × 3 metrics of
    // history (6 000 log rows) already committed.
    for run in 0..200 {
        flor.for_each("epoch", 0..10, |flor, &e| {
            flor.log("loss", 1.0 / (run + e + 1) as f64);
            flor.log("acc", 0.7 + (e as f64) * 0.01);
            flor.log("recall", 0.6 + (e as f64) * 0.01);
        });
        flor.commit(&format!("run {run}")).unwrap();
    }

    // First query: the catalog builds the view from a snapshot (a miss).
    let t = Instant::now();
    let df = flor.dataframe(&["loss", "acc", "recall"]).unwrap();
    println!(
        "first query: {} rows materialized in {:?} (cold build)",
        df.n_rows(),
        t.elapsed()
    );

    // The monitoring loop: new commits keep landing, the dashboard keeps
    // querying. Each refresh applies one commit's deltas.
    let t = Instant::now();
    for run in 200..210 {
        flor.for_each("epoch", 0..10, |flor, &e| {
            flor.log("loss", 1.0 / (run + e + 1) as f64);
            flor.log("acc", 0.75);
            flor.log("recall", 0.65);
        });
        flor.commit(&format!("run {run}")).unwrap();
        let view = flor
            .query(&["loss", "acc", "recall"])
            .collect_view()
            .unwrap();
        println!("after run {run}: view has {} rows", view.n_rows());
    }
    println!(
        "10 live update+query cycles in {:?} (delta refresh)",
        t.elapsed()
    );

    // `latest` views ride the same machinery (paper Fig. 6).
    let latest = flor
        .dataframe_latest(&["acc"], &["epoch_iteration"])
        .unwrap();
    println!("\nlatest acc per epoch:\n{}", latest.head(3));

    let stats = flor.views.stats();
    println!(
        "\ncatalog: {} build(s), {} cached read(s), {} commit batch(es) applied as deltas, \
         {} fallback rebuild(s)",
        stats.misses, stats.hits, stats.batches_applied, stats.fallback_rebuilds
    );

    // The incremental frames are not approximations: they equal a full
    // recompute, cell for cell.
    assert_eq!(
        flor.dataframe(&["loss", "acc", "recall"]).unwrap(),
        flor.query(&["loss", "acc", "recall"])
            .collect_full()
            .unwrap()
    );
    println!("incremental view == full recompute: verified");
}
