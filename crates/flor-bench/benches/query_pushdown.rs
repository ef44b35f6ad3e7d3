//! Experiment: the lazy query builder vs. full pivot + post-filter.
//!
//! The seed answered selective questions ("this run's metrics, best
//! first") by materializing the *entire* pivoted history and filtering by
//! hand. The `flor.query` builder serves the same question from the
//! projection's incrementally maintained view — caught up with each
//! commit's rows, never re-pivoted — plus a post-pass that filters,
//! sorts and limits it. This bench measures both at a 10k-row log history
//! with a ≤1% selectivity filter:
//!
//! * `full_pivot_post_filter` — `query(..).collect_full()`, then filter /
//!   sort / limit on the full frame (the seed's only option).
//! * `query_pushdown` — a live commit followed by `collect()`: deltas
//!   land on the maintained view, the post-pass filters it down to the
//!   few qualifying rows.
//!
//! The `speedup_report` section prints the headline ratio; the
//! acceptance target is ≥5×.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flor_bench::flor_with_logs;
use flor_core::Flor;
use flor_df::Value;

const NAMES: [&str; 3] = ["loss", "acc", "recall"];

/// A kernel with `rows` log rows of history and a hot view of `NAMES`,
/// plus the tstamp the selective query targets: a mid-history run's 10
/// epochs — 10 of `rows / 3` pivot rows (~0.3% selectivity at the
/// 10k-row history).
fn prepared(rows: usize) -> (Flor, i64) {
    let epochs = 10;
    let runs = (rows / (epochs * NAMES.len())).max(3);
    let flor = flor_with_logs(runs, epochs, &NAMES);
    // Run r logs at tstamp r+1; pick a run from the middle of history.
    let target_ts = (runs / 2) as i64 + 1;
    selective(&flor, target_ts)
        .collect_view()
        .expect("materialize view");
    (flor, target_ts)
}

/// The selective question: the target run's epochs, best loss first.
fn selective(flor: &Flor, target_ts: i64) -> flor_core::QueryBuilder<'_> {
    flor.query(&NAMES)
        .filter_eq("tstamp", target_ts)
        .order_by("loss", true)
        .limit(10)
}

/// The seed's answer to the same question: full re-pivot, then post-hoc
/// filter / sort / limit by hand.
fn full_pivot_post_filter(flor: &Flor, target_ts: i64) -> flor_df::DataFrame {
    flor.query(&NAMES)
        .collect_full()
        .expect("full pivot")
        .filter(|r| r.get("tstamp") == Some(&Value::Int(target_ts)))
        .sort_by(&[("loss", true)])
        .expect("sort")
        .head(10)
}

/// One live update-then-query cycle: a fresh epoch of logs lands (none
/// matching the filter), commits, and the selective query re-collects.
fn live_update(flor: &Flor, target_ts: i64, i: usize) -> usize {
    flor.for_each("epoch", [i], |flor, _| {
        for name in NAMES {
            flor.log(name, 0.5);
        }
    });
    flor.commit("live").expect("commit");
    selective(flor, target_ts)
        .collect()
        .expect("refresh")
        .n_rows()
}

fn bench_query_pushdown(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_pushdown");
    group.sample_size(10);
    for rows in [1_000usize, 10_000] {
        let (flor, ts) = prepared(rows);
        group.bench_with_input(
            BenchmarkId::new("full_pivot_post_filter", rows),
            &rows,
            |b, _| b.iter(|| full_pivot_post_filter(&flor, ts).n_rows()),
        );
        let (flor, ts) = prepared(rows);
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::new("query_pushdown", rows), &rows, |b, _| {
            b.iter(|| {
                i += 1;
                live_update(&flor, ts, i)
            })
        });
    }
    group.finish();
}

/// Headline number: wall-clock ratio at a 10k-row history, measured over
/// whole update→query cycles so the pushdown side pays for its commit
/// and delta application, not just the cached read.
fn speedup_report(_c: &mut Criterion) {
    let (flor, ts) = prepared(10_000);
    let reps = 30;

    // Both paths must agree — and actually select rows — before anything
    // is worth timing.
    let oracle = selective(&flor, ts).collect_full().expect("oracle");
    assert_eq!(oracle.n_rows(), 10, "target run must exist in history");
    assert_eq!(selective(&flor, ts).collect().expect("collect"), oracle);
    assert_eq!(
        full_pivot_post_filter(&flor, ts).to_rows(),
        oracle.to_rows()
    );

    let start = std::time::Instant::now();
    for _ in 0..reps {
        std::hint::black_box(full_pivot_post_filter(&flor, ts).n_rows());
    }
    let full = start.elapsed();

    let start = std::time::Instant::now();
    for i in 0..reps {
        std::hint::black_box(live_update(&flor, ts, i));
    }
    let pushdown = start.elapsed();

    let speedup = full.as_secs_f64() / pushdown.as_secs_f64().max(1e-12);
    println!(
        "\nquery_pushdown: 10k-row history, ~0.3% selectivity, {reps} queries\n\
           full pivot + post-filter {:>10.1} µs/query\n\
           flor.query pushdown      {:>10.1} µs/update+query\n\
           speedup                  {speedup:>10.1}x (target >= 5x)",
        full.as_secs_f64() * 1e6 / reps as f64,
        pushdown.as_secs_f64() * 1e6 / reps as f64,
    );
    assert!(
        speedup >= 5.0,
        "selective pushdown query must beat full pivot + post-filter by >= 5x, got {speedup:.1}x"
    );
}

/// Observability acceptance gate: the metrics registry must cost the
/// hot update→query cycle under 5%.
///
/// The cycle mutates the database, so its per-call cost is
/// nonstationary (geometric segment folds, WAL growth) and in-place
/// mode alternation cannot give a fair comparison. Instead each timed
/// run builds an **identical fresh database** — the same insert
/// sequence produces the same fold schedule, so the enabled and
/// disabled runs execute identical work — and the gate compares the
/// min-of-totals over alternating runs. Background checkpoint and
/// compaction triggers are disabled: their passes are mode-independent
/// but land across timing windows asymmetrically.
fn instrumentation_overhead_report(_c: &mut Criterion) {
    use std::time::{Duration, Instant};
    let run_one = |enabled: bool| -> Duration {
        let (flor, ts) = prepared(1_000);
        flor.set_compaction_trigger(None);
        flor.set_checkpoint_threshold(None);
        flor.metrics_registry().set_enabled(enabled);
        let t = Instant::now();
        for i in 0..300 {
            std::hint::black_box(live_update(&flor, ts, i));
        }
        t.elapsed()
    };
    run_one(true);
    run_one(false);
    let mut best_on = Duration::MAX;
    let mut best_off = Duration::MAX;
    for k in 0..4 {
        if k % 2 == 0 {
            best_on = best_on.min(run_one(true));
            best_off = best_off.min(run_one(false));
        } else {
            best_off = best_off.min(run_one(false));
            best_on = best_on.min(run_one(true));
        }
    }
    let ratio = best_on.as_secs_f64() / best_off.as_secs_f64().max(1e-12);
    println!(
        "\nquery_pushdown instrumentation overhead: {:+.2}% over 300 \
         update+query cycles (metrics enabled vs disabled, target < +5%)",
        (ratio - 1.0) * 100.0
    );
    assert!(
        ratio < 1.05,
        "metrics must cost the update+query cycle < 5%, measured {:+.2}%",
        (ratio - 1.0) * 100.0
    );
}

/// Tracing acceptance gate: with metrics already on, *enabling request
/// tracing* must cost the same hot update→query cycle under 5% more.
///
/// Same fresh-instance min-of-totals methodology as the metrics gate
/// above (the cycle is nonstationary); the only difference between the
/// two modes is `TraceStore::set_enabled`, so the measured delta is the
/// span building, ring pushes and explain probes the traced path adds.
fn tracing_overhead_report(_c: &mut Criterion) {
    use std::time::{Duration, Instant};
    let run_one = |traced: bool| -> Duration {
        let (flor, ts) = prepared(1_000);
        flor.set_compaction_trigger(None);
        flor.set_checkpoint_threshold(None);
        flor.metrics_registry().set_enabled(true);
        flor.set_tracing(traced);
        let t = Instant::now();
        for i in 0..300 {
            std::hint::black_box(live_update(&flor, ts, i));
        }
        t.elapsed()
    };
    run_one(true);
    run_one(false);
    let mut best_on = Duration::MAX;
    let mut best_off = Duration::MAX;
    for k in 0..4 {
        if k % 2 == 0 {
            best_on = best_on.min(run_one(true));
            best_off = best_off.min(run_one(false));
        } else {
            best_off = best_off.min(run_one(false));
            best_on = best_on.min(run_one(true));
        }
    }
    let ratio = best_on.as_secs_f64() / best_off.as_secs_f64().max(1e-12);
    println!(
        "\nquery_pushdown tracing overhead: {:+.2}% over 300 update+query \
         cycles (tracing enabled vs disabled, metrics on in both, target < +5%)",
        (ratio - 1.0) * 100.0
    );
    assert!(
        ratio < 1.05,
        "tracing must cost the update+query cycle < 5%, measured {:+.2}%",
        (ratio - 1.0) * 100.0
    );
}

criterion_group!(
    benches,
    bench_query_pushdown,
    speedup_report,
    instrumentation_overhead_report,
    tracing_overhead_report
);
criterion_main!(benches);
