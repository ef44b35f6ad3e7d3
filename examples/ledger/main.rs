//! The ledger: the repository's benchmark. Five named workloads over the
//! serve, write, view and hindsight paths, each reporting end-to-end
//! metrics (tracing off) and per-layer metrics plus a time-share table
//! (a separate traced run), with the outputs checked against the
//! from-scratch oracles inside the same command. See `README.md` beside
//! this file for the vocabulary and how to read the numbers.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON line
//! ledger --seed <n> [--seconds <s>] [--out <file>] [--trace-out <file>]   every workload, both runs
//! ledger --check                                                      self-test (< 5 s)
//! ```

mod hindsight;
mod serve;
mod spans;
mod stats;
mod train;
mod workloads;

use spans::Span;
use stats::{json_num, json_str, metrics_json, render_table, Outcome};
use std::cell::Cell;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::WORKLOADS;

/// End-to-end metrics, reported by every workload on an untraced run.
/// What each one counts on each workload is fixed in the README:
/// `op_p50_ms` is the median latency of the operation the workload's user
/// waits on, `throughput_per_s` the rate of the unit of work it moves,
/// `bytes_per_row` what it ships or stores per row of user data.
pub const END_TO_END: [(&str, &str); 4] = [
    ("op_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("bytes_per_row", "bytes"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every workload on a traced run; a layer
/// a workload does not touch reads 0 there (and the README predicts it).
pub const PER_LAYER: [(&str, &str); 57] = [
    ("query_p50_ms", "ms"),
    ("step_p50_ms", "ms"),
    ("commit_p50_ms", "ms"),
    ("refresh_p50_ms", "ms"),
    ("record_overhead_ratio", "ratio"),
    ("commit_due_to_ack_p50_ms", "ms"),
    ("writer_late_p50_ms", "ms"),
    ("writer_late_max_ms", "ms"),
    ("writer_commits_skipped", "count"),
    ("serve.wire_us", "us"),
    ("serve.codec_ms", "ms"),
    ("serve.frame_bytes", "bytes"),
    ("serve.rows_per_frame", "count"),
    ("serve.server_ms", "ms"),
    ("serve.busy_ratio", "ratio"),
    ("core.run_plan_at_ms", "ms"),
    ("core.log_us", "us"),
    ("core.commit_self_ms", "ms"),
    ("store.fetch_ms", "ms"),
    ("store.query_ms", "ms"),
    ("store.examined_per_returned", "ratio"),
    ("store.commit_ms", "ms"),
    ("store.wal_append_us", "us"),
    ("store.wal_fsync_us", "us"),
    ("store.checkpoint_ms", "ms"),
    ("store.checkpoint_bytes_per_delta_row", "bytes"),
    ("store.compaction_ms", "ms"),
    ("store.rows_rewritten", "count"),
    ("store.wal_bytes_per_row", "bytes"),
    ("store.fg_stall_count", "count"),
    ("store.recovery_ms", "ms"),
    ("view.hit_ratio", "ratio"),
    ("view.refresh_us", "us"),
    ("view.batches_applied", "count"),
    ("view.rebuilds", "count"),
    ("view.rebuild_ms", "ms"),
    ("df.post_pass_ms", "ms"),
    ("df.pivot_ms", "ms"),
    ("record.bare_ms", "ms"),
    ("record.record_ms", "ms"),
    ("replay.iters_replayed_per_full.in_loop", "ratio"),
    ("replay.iters_replayed_per_full.after_loop", "ratio"),
    ("replay.ckpt_bytes", "bytes"),
    ("jobs.unit_queue_wait_ms", "ms"),
    ("jobs.unit_run_ms", "ms"),
    ("diff.propagate_us", "us"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("timeshare.coverage", "ratio"),
    ("timeshare.flor-serve", "%"),
    ("timeshare.flor-core", "%"),
    ("timeshare.flor-store", "%"),
    ("timeshare.flor-df", "%"),
    ("timeshare.flor-view", "%"),
    ("timeshare.flor-record", "%"),
    ("timeshare.flor-script", "%"),
    ("timeshare.flor-jobs", "%"),
    ("timeshare.ledger", "%"),
];

/// Where WALs and sidecars live: a per-process directory under the
/// working directory (the benchmark may write only inside its checkout),
/// removed when the run ends.
pub struct Scratch {
    root: PathBuf,
    next: Cell<u32>,
}

impl Scratch {
    fn new() -> Scratch {
        let root = PathBuf::from(".ledger_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&root).expect("create scratch dir");
        Scratch {
            root,
            next: Cell::new(0),
        }
    }

    /// A new empty directory.
    pub fn fresh_dir(&self) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        let dir = self.root.join(n.to_string());
        std::fs::create_dir_all(&dir).expect("create scratch subdir");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty parent behind when this was the only run.
        let _ = std::fs::remove_dir(".ledger_tmp");
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        trace_out: None,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--check" {
            args.check = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(value);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
                    return Err(bad("between 1 and 60"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Run one workload once. A traced run also turns its time-share table
/// into the `timeshare.*` metrics.
fn run_one(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &Scratch,
    spans: &mut Vec<Span>,
) -> Outcome {
    let mut out = match workload {
        "serve.scan" => serve::run(serve::Kind::Scan, seed, seconds, trace, scratch, spans),
        "serve.point" => serve::run(serve::Kind::Point, seed, seconds, trace, scratch, spans),
        "serve.live" => serve::run(serve::Kind::Live, seed, seconds, trace, scratch, spans),
        "embed.train" => train::run(seed, seconds, trace, scratch, spans),
        _ => hindsight::run(seed, seconds, trace, spans),
    };
    for (layer, share) in out.layers.clone() {
        let (metric, _) = PER_LAYER
            .iter()
            .find(|(name, _)| name.strip_prefix("timeshare.") == Some(layer.as_str()))
            .expect("every span layer has a timeshare metric");
        out.push(metric, share * 100.0, 1);
    }
    out
}

/// The contract's result line.
fn result_line(out: &Outcome, spec: &[(&'static str, &'static str)]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics_json(out, spec)
    )
}

/// One workload's entry in the full document.
fn workload_json(measured: &Outcome, traced: &Outcome) -> String {
    let layers: Vec<String> = traced
        .layers
        .iter()
        .map(|(l, s)| format!("{}: {}", json_str(l), json_num(*s)))
        .collect();
    let notes: Vec<String> = measured
        .notes
        .iter()
        .chain(&traced.notes)
        .map(|n| json_str(n))
        .collect();
    format!(
        "{{\"ops_attempted\": {}, \"ops_failed\": {}, \"end_to_end\": {}, \"per_layer\": {}, \"layers\": {{{}}}, \"notes\": [{}]}}",
        measured.attempted + traced.attempted,
        measured.failed + traced.failed,
        metrics_json(measured, &END_TO_END),
        metrics_json(traced, &PER_LAYER),
        layers.join(", "),
        notes.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if args.check {
        return check();
    }
    let scratch = Scratch::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut failed = 0;
    let document = if let Some(workload) = &args.workload {
        let out = run_one(
            workload,
            args.seed,
            args.seconds,
            args.trace,
            &scratch,
            &mut spans,
        );
        let spec: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        eprint!("{}", render_table(workload, &out, spec));
        failed += out.failed;
        result_line(&out, spec)
    } else {
        let mut entries: Vec<String> = Vec::new();
        for workload in WORKLOADS {
            let measured = run_one(
                workload,
                args.seed,
                args.seconds,
                false,
                &scratch,
                &mut spans,
            );
            eprint!("{}", render_table(workload, &measured, &END_TO_END));
            let traced = run_one(
                workload,
                args.seed,
                args.seconds,
                true,
                &scratch,
                &mut spans,
            );
            eprint!(
                "{}",
                render_table(&format!("{workload} (traced)"), &traced, &PER_LAYER)
            );
            failed += measured.failed + traced.failed;
            entries.push(format!(
                "{}: {}",
                json_str(workload),
                workload_json(&measured, &traced)
            ));
        }
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        format!(
            "{{\"seed\": {}, \"seconds\": {}, \"available_parallelism\": {cores}, \"ops_failed\": {failed}, \"workloads\": {{{}}}}}",
            args.seed,
            json_num(args.seconds),
            entries.join(", ")
        )
    };
    drop(scratch);
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, spans::dump(&spans)) {
            eprintln!("ledger: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{document}\n")) {
            eprintln!("ledger: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{document}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `ledger --check`: the harness's own invariants, without running load.
fn check() -> ExitCode {
    let mut bad: Vec<String> = Vec::new();
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            bad.push(what.to_string());
        }
    };
    // Same seed, same op list; another seed, another list where the
    // workload has seeded constants.
    for w in WORKLOADS {
        expect(
            workloads::op_hash(w, 7) == workloads::op_hash(w, 7),
            &format!("{w}: same seed gave two op lists"),
        );
        expect(
            workloads::op_hash(w, 7) != workloads::op_hash(w, 8),
            &format!("{w}: seeds 7 and 8 gave the same op list"),
        );
    }
    // The tail rule: the highest percentile with >= 10 samples beyond it.
    let ramp = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
    expect(stats::tail(&ramp(19)).is_none(), "tail of 19 samples");
    expect(
        stats::tail(&ramp(20)) == Some((50.0, 10.0)),
        "tail of 20 samples",
    );
    expect(
        stats::tail(&ramp(1000)) == Some((99.0, 990.0)),
        "tail of 1000 samples",
    );
    expect(
        stats::tail(&ramp(10_000)) == Some((99.9, 9990.0)),
        "tail of 10000 samples",
    );
    expect(
        stats::median(&[3.0, 1.0, 2.0, 10.0]) == 2.5,
        "median of four",
    );
    // Self time on a synthetic tree: root 0..100 with children 10..40 and
    // 30..60 (overlapping: they cover 50), grandchild 10..20 of the first.
    let span = |id: u32, parent: Option<u32>, layer: &'static str, a: u64, b: u64| Span {
        id,
        parent,
        trace: 1,
        name: format!("s{id}"),
        layer,
        start_ns: a,
        end_ns: b,
    };
    let tree = [
        span(0, None, "a", 0, 100),
        span(1, Some(0), "b", 10, 40),
        span(2, Some(0), "c", 30, 60),
        span(3, Some(1), "c", 10, 20),
    ];
    let own = spans::self_times(&tree);
    expect(
        own[&0] == 50 && own[&1] == 20 && own[&2] == 30 && own[&3] == 10,
        "self times",
    );
    let (shares, coverage) = spans::time_share(&tree);
    let share = |l: &str| shares.iter().find(|(n, _)| n == l).map_or(0.0, |(_, s)| *s);
    // Overlapping siblings make the shares sum past the wall: 110 of 100.
    expect(
        share("a") == 0.5 && share("b") == 0.2 && share("c") == 0.4 && coverage == 1.1,
        "time shares",
    );
    if bad.is_empty() {
        println!("ledger --check: ok");
        ExitCode::SUCCESS
    } else {
        for b in &bad {
            eprintln!("ledger --check: FAILED: {b}");
        }
        ExitCode::from(1)
    }
}
