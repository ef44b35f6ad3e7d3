//! Experiment: backfill as background jobs — worker-count scaling and
//! incremental result landing.
//!
//! The flor-jobs control plane decomposes one backfill request into
//! per-version replay units. This bench measures the two claims the
//! design makes over the old blocking, all-or-nothing call:
//!
//! * **scaling** — versions are independent units, so wall-clock shrinks
//!   as the job worker pool grows (`workers_1` vs `workers_2/4`);
//! * **incrementality** — each version's recovered values commit as soon
//!   as that version finishes, so the *first* results are queryable at a
//!   fraction of the total job time (the `jobs_report` section prints
//!   per-version landing times).
//!
//! A `jobs_listing` bench covers the observability read path
//! (`Flor::jobs`, the store's latest-wins fold of the `jobs` table).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flor_bench::flor_with_history;
use std::time::{Duration, Instant};

const VERSIONS: usize = 6;
const EPOCHS: usize = 6;
const WORK: usize = 1200;

/// Run one background backfill with `workers` job workers (per-version
/// replay parallelism pinned to 1 so scaling comes from the pool alone).
/// Returns total wall-clock and each version's landing time.
fn timed_backfill(workers: usize) -> (Duration, Vec<Duration>) {
    let flor = flor_with_history(VERSIONS, EPOCHS, WORK);
    flor.job_runner().set_workers(workers);
    let t0 = Instant::now();
    let handle = flor
        .submit_backfill_with("train.fl", &["acc", "recall"], 0, 1)
        .expect("submit backfill");
    let mut landings = Vec::new();
    while !handle.state().is_terminal() {
        let done = handle.progress().units_done;
        while landings.len() < done {
            landings.push(t0.elapsed());
        }
        std::thread::yield_now();
    }
    let report = handle.wait();
    let total = t0.elapsed();
    assert_eq!(report.versions.len(), VERSIONS);
    while landings.len() < VERSIONS {
        landings.push(total);
    }
    (total, landings)
}

fn bench_backfill_jobs(c: &mut Criterion) {
    let mut group = c.benchmark_group("backfill_jobs");
    group.sample_size(10);
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("submit_wait", workers),
            &workers,
            |b, &w| b.iter(|| timed_backfill(w).0),
        );
    }
    // Observability read path: the jobs listing (a latest-wins fold of
    // the `jobs` table) after a burst of transitions.
    let flor = flor_with_history(2, 4, 50);
    for _ in 0..8 {
        flor.submit_backfill_with("train.fl", &["acc"], 0, 1)
            .expect("submit")
            .wait();
    }
    group.bench_function("jobs_listing", |b| {
        b.iter(|| flor.jobs().expect("listing").len())
    });
    group.finish();
}

/// Headline numbers: serial vs pooled wall-clock, and how early the first
/// version's results are live relative to job completion.
fn jobs_report(_c: &mut Criterion) {
    let (serial, serial_landings) = timed_backfill(1);
    let (pooled2, _) = timed_backfill(2);
    let (pooled4, landings4) = timed_backfill(4);
    let speedup2 = serial.as_secs_f64() / pooled2.as_secs_f64().max(1e-12);
    let speedup4 = serial.as_secs_f64() / pooled4.as_secs_f64().max(1e-12);
    let first_frac = serial_landings[0].as_secs_f64() / serial.as_secs_f64().max(1e-12);
    println!(
        "\nbackfill_jobs: {VERSIONS} versions x {EPOCHS} epochs (work {WORK})\n\
           serial (1 worker)    {:>10.1} ms total\n\
           pool of 2            {:>10.1} ms total ({speedup2:.2}x)\n\
           pool of 4            {:>10.1} ms total ({speedup4:.2}x)\n\
           first version live   {:>10.1} ms into the serial job ({:.0}% of total)\n\
           landings (4 workers) {:?}",
        serial.as_secs_f64() * 1e3,
        pooled2.as_secs_f64() * 1e3,
        pooled4.as_secs_f64() * 1e3,
        serial_landings[0].as_secs_f64() * 1e3,
        first_frac * 100.0,
        landings4
            .iter()
            .map(|d| format!("{:.0}ms", d.as_secs_f64() * 1e3))
            .collect::<Vec<_>>(),
    );
    // Replay is CPU-bound (it re-executes training iterations), so the
    // worker-count scaling claim is only testable with real parallelism.
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if cores >= 4 {
        assert!(
            speedup4 > 1.3,
            "4 job workers must beat serial backfill (got {speedup4:.2}x)"
        );
    } else {
        println!("({cores}-core host: worker-scaling assertion skipped)");
    }
    assert!(
        first_frac < 0.6,
        "first version's results must land well before the job ends \
         (landed at {:.0}% of total)",
        first_frac * 100.0
    );
}

criterion_group!(benches, bench_backfill_jobs, jobs_report);
criterion_main!(benches);
