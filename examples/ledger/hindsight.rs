//! `hindsight.backfill`: the paper's headline and its first claim. Each
//! round records sixteen versions of a Fig. 5-style script on a fresh
//! in-memory kernel (checkpoint at every epoch boundary), timing the
//! same programs bare in ABBA order beside the recorded runs; then the
//! script gains one log statement inside the epoch loop and one after
//! it, and `backfill` materialises both across every version with two
//! job workers and replay parallelism two.

use crate::spans::{push_hist_means, time_share, HistSum, Recorder, Span, NO_SPAN};
use crate::stats::{mean, median, Outcome};
use crate::workloads::{train_script, SCRIPT_EPOCHS, SCRIPT_WORK, VERSIONS};
use flordb::diff::propagate_logs;
use flordb::prelude::*;
use std::time::{Duration, Instant};

const FILE: &str = "train.fl";
const REPLAY_PARALLELISM: usize = 2;

/// A kernel holding `VERSIONS` recorded runs, and what recording cost.
struct History {
    flor: Flor,
    /// Wall time of each recorded run (`run_script`: parse, interpret
    /// under the recording runtime, persist checkpoints, commit).
    record_ms: Vec<f64>,
    /// Wall time of the same program parsed and interpreted bare.
    bare_ms: Vec<f64>,
    /// Bytes of checkpointed interpreter state across all versions.
    ckpt_bytes: usize,
    failures: Vec<String>,
}

fn source(seed: u64, version: usize, hindsight: bool) -> String {
    train_script(seed, version, SCRIPT_EPOCHS, SCRIPT_WORK, hindsight)
}

impl History {
    /// Record every version, each paired with a bare run of the same
    /// source; even versions record first, odd versions run bare first,
    /// so drift within a pair cancels across pairs.
    fn record(seed: u64, rec: &mut Recorder, root: u32) -> History {
        let flor = Flor::new("ledger");
        flor.set_tracing(rec.on());
        let mut h = History {
            flor,
            record_ms: Vec::new(),
            bare_ms: Vec::new(),
            ckpt_bytes: 0,
            failures: Vec::new(),
        };
        for v in 0..VERSIONS {
            let src = source(seed, v, false);
            h.flor.fs.write(FILE, &src);
            for recorded in [v % 2 == 0, v % 2 != 0] {
                let (name, layer) = if recorded {
                    ("record.run", "flor-record")
                } else {
                    ("script.bare", "flor-script")
                };
                let span = rec.open(name, layer, root);
                let t = Instant::now();
                if recorded {
                    match run_script(&h.flor, FILE, CheckpointPolicy::EveryK(1)) {
                        Ok(run) => {
                            h.ckpt_bytes += run
                                .record
                                .checkpoints
                                .values()
                                .map(String::len)
                                .sum::<usize>()
                        }
                        Err(e) => h.failures.push(format!("run_script v{v}: {e}")),
                    }
                    h.record_ms.push(t.elapsed().as_secs_f64() * 1e3);
                } else {
                    let ran = parse(&src).map_err(|e| e.to_string()).and_then(|p| {
                        Interpreter::new()
                            .run(&p, &mut NullRuntime)
                            .map_err(|e| e.to_string())
                    });
                    if let Err(e) = ran {
                        h.failures.push(format!("bare v{v}: {e}"));
                    }
                    h.bare_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                rec.close(span);
            }
        }
        h
    }

    fn overhead_ratios(&self) -> Vec<f64> {
        self.record_ms
            .iter()
            .zip(&self.bare_ms)
            .map(|(r, b)| r / b.max(1e-9))
            .collect()
    }

    /// Put the hindsight statements into the working tree and backfill
    /// `names`; returns the report and the call's wall time.
    fn backfill(&self, seed: u64, names: &[&str]) -> Result<(BackfillReport, Duration), String> {
        self.flor.fs.write(FILE, &source(seed, VERSIONS - 1, true));
        let t = Instant::now();
        let report =
            backfill(&self.flor, FILE, names, REPLAY_PARALLELISM).map_err(|e| e.to_string())?;
        Ok((report, t.elapsed()))
    }
}

/// Everything the rounds of one stretch measured.
#[derive(Default)]
struct Rounds {
    rounds: u64,
    wall: Duration,
    record_ms: Vec<f64>,
    bare_ms: Vec<f64>,
    ratios: Vec<f64>,
    backfill_wall: Duration,
    versions_backfilled: u64,
    ckpt_bytes: usize,
    checks: u64,
    failures: Vec<String>,
}

impl Rounds {
    fn take_history(&mut self, h: &mut History) {
        self.ratios.extend(h.overhead_ratios());
        self.record_ms.append(&mut h.record_ms);
        self.bare_ms.append(&mut h.bare_ms);
        self.ckpt_bytes = h.ckpt_bytes;
        self.failures.append(&mut h.failures);
    }

    /// Backfill both statements on `h` and check the result: every value
    /// of every version recovered, and no hole left in the dataframe.
    fn backfill_and_check(&mut self, h: &History, seed: u64, rec: &mut Recorder, root: u32) {
        let unit_run_ns = HistSum::of(&h.flor.metrics_registry(), "jobs.unit.run_nanos");
        let before = unit_run_ns.ns();
        let span = rec.open("core.backfill", "flor-core", root);
        let result = h.backfill(seed, &["acc", "final_acc"]);
        rec.close(span);
        // The units ran on the job runner's workers, two at a time.
        let units_ns = (unit_run_ns.ns() - before) / REPLAY_PARALLELISM as u64;
        rec.child(span, "jobs.unit.run", "flor-jobs", 0, units_ns);
        self.checks += 2;
        let want = VERSIONS * SCRIPT_EPOCHS + VERSIONS;
        match result {
            Err(e) => self.failures.push(format!("backfill: {e}")),
            Ok((report, wall)) => {
                self.backfill_wall += wall;
                self.versions_backfilled += report.versions.len() as u64;
                if report.values_recovered != want || report.versions.len() != VERSIONS {
                    self.failures.push(format!(
                        "backfill recovered {} values over {} versions, expected {want} over {VERSIONS}",
                        report.values_recovered,
                        report.versions.len()
                    ));
                }
            }
        }
        match h.flor.dataframe(&["loss", "acc"]) {
            Err(e) => self.failures.push(format!("dataframe: {e}")),
            Ok(df) => {
                let holes = df
                    .column("acc")
                    .map_or(df.n_rows(), |c| c.len() - c.count_non_null());
                if df.n_rows() != VERSIONS * SCRIPT_EPOCHS || holes != 0 {
                    self.failures.push(format!(
                        "after backfill: {} (version, epoch) rows, {holes} without acc",
                        df.n_rows()
                    ));
                }
            }
        }
    }

    /// Backfill the history in hand, record the next one, until
    /// `run_for` has passed; always at least one round. Kernels are
    /// traced exactly when `rec` is on.
    fn run(history: &mut History, seed: u64, run_for: Duration, rec: &mut Recorder) -> Rounds {
        let mut r = Rounds::default();
        let began = Instant::now();
        history.flor.set_tracing(rec.on());
        loop {
            let root = rec.open("ledger.loop", "ledger", NO_SPAN);
            r.backfill_and_check(history, seed, rec, root);
            *history = History::record(seed, rec, root);
            r.take_history(history);
            rec.close(root);
            r.rounds += 1;
            if began.elapsed() >= run_for {
                break;
            }
        }
        r.wall = began.elapsed();
        r
    }

    fn absorb(&mut self, mut other: Rounds) {
        self.rounds += other.rounds;
        self.wall += other.wall;
        self.record_ms.append(&mut other.record_ms);
        self.bare_ms.append(&mut other.bare_ms);
        self.ratios.append(&mut other.ratios);
        self.backfill_wall += other.backfill_wall;
        self.versions_backfilled += other.versions_backfilled;
        self.checks += other.checks;
        self.failures.append(&mut other.failures);
    }

    fn account(&self, out: &mut Outcome) {
        out.account(self.record_ms.len() as u64 + self.checks, &self.failures);
    }
}

/// Run `hindsight.backfill`.
pub fn run(seed: u64, seconds: f64, trace: bool, spans_out: &mut Vec<Span>) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is the history a backfill needs: sixteen recorded versions.
    let mut off = Recorder::new(Instant::now(), 0, false);
    let mut history = out.timed_setup(trace, || History::record(seed, &mut off, NO_SPAN));
    out.account(0, &history.failures);

    if !trace {
        let run_for = Duration::from_secs_f64(seconds);
        let r = Rounds::run(&mut history, seed, run_for, &mut off);
        r.account(&mut out);
        out.push("op_p50_ms", median(&r.record_ms), r.record_ms.len());
        out.push(
            "throughput_per_s",
            r.versions_backfilled as f64 / r.backfill_wall.as_secs_f64().max(1e-9),
            r.rounds as usize,
        );
        out.push(
            "bytes_per_row",
            r.ckpt_bytes as f64 / (VERSIONS * SCRIPT_EPOCHS) as f64,
            1,
        );
        out.notes.push(format!(
            "{} rounds; record/bare wall ratio {:.4} (median of {} pairs)",
            r.rounds,
            median(&r.ratios),
            r.ratios.len()
        ));
        return out;
    }

    // Untraced, traced, untraced, so warm-up does not pass for tracing
    // overhead; a stretch is at least one round.
    let side = Duration::from_secs_f64(seconds * 0.15);
    let mut plain = Rounds::run(&mut history, seed, side, &mut off);
    let mut rec = Recorder::new(Instant::now(), 0, true);
    let traced = Rounds::run(&mut history, seed, side * 2, &mut rec);
    traced.account(&mut out);
    plain.absorb(Rounds::run(&mut history, seed, side, &mut off));
    plain.account(&mut out);
    out.push(
        "obs.trace_overhead_ratio",
        (traced.wall.as_secs_f64() / traced.rounds as f64)
            / (plain.wall.as_secs_f64() / plain.rounds as f64),
        traced.rounds as usize,
    );
    let (layers, coverage) = time_share(&rec.spans);
    out.push("timeshare.coverage", coverage, rec.spans.len());
    out.layers = layers;
    spans_out.extend(rec.spans);

    out.push(
        "record.bare_ms",
        median(&plain.bare_ms),
        plain.bare_ms.len(),
    );
    out.push(
        "record.record_ms",
        median(&plain.record_ms),
        plain.record_ms.len(),
    );
    out.push(
        "record_overhead_ratio",
        median(&plain.ratios),
        plain.ratios.len(),
    );
    out.push("replay.ckpt_bytes", plain.ckpt_bytes as f64, 1);

    // One statement at a time on the history in hand (untraced): how
    // much of a full re-execution each one replays, and what the job
    // runner and the differ spent on it.
    let before = history.flor.metrics();
    for (name, metric) in [
        ("acc", "replay.iters_replayed_per_full.in_loop"),
        ("final_acc", "replay.iters_replayed_per_full.after_loop"),
    ] {
        match history.backfill(seed, &[name]) {
            Err(e) => out.check(false, || format!("backfill of {name}: {e}")),
            Ok((report, _)) => {
                let want = if name == "acc" {
                    VERSIONS * SCRIPT_EPOCHS
                } else {
                    VERSIONS
                };
                out.check(report.values_recovered == want, || {
                    format!(
                        "backfill of {name} recovered {} values, expected {want}",
                        report.values_recovered
                    )
                });
                out.push(
                    metric,
                    report.iterations_replayed as f64 / report.iterations_full.max(1) as f64,
                    report.versions.len(),
                );
            }
        }
    }
    let after = history.flor.metrics();
    push_hist_means(
        &mut out,
        &before,
        &after,
        &[
            ("jobs.unit_queue_wait_ms", "jobs.unit.queue_wait_nanos", 1e6),
            ("jobs.unit_run_ms", "jobs.unit.run_nanos", 1e6),
            ("store.commit_ms", "store.commit.nanos", 1e6),
        ],
    );
    let new_prog = parse(&source(seed, VERSIONS - 1, true)).expect("new script parses");
    let propagate_us: Vec<f64> = (0..VERSIONS)
        .map(|v| {
            let old = parse(&source(seed, v, false)).expect("old script parses");
            let t = Instant::now();
            std::hint::black_box(propagate_logs(&old, &new_prog));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.push(
        "diff.propagate_us",
        median(&propagate_us),
        propagate_us.len(),
    );
    out.notes.push(format!(
        "mean recorded run {:.3} ms, mean bare run {:.3} ms",
        mean(&plain.record_ms),
        mean(&plain.bare_ms)
    ));
    out
}
