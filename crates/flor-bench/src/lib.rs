//! Shared workload builders for the FlorDB benchmark suite.
//!
//! Every bench and the `experiments` binary build their workloads from
//! here, so the criterion benches and the printed paper-style tables
//! measure identical setups.

use flor_core::{run_script, Flor};
use flor_obs::MetricsRegistry;
use flor_record::CheckpointPolicy;
use std::time::{Duration, Instant};

/// A Fig. 5-style training script with controllable cost.
///
/// `epochs` sets the checkpoint-loop length; `work` adds `work(units)` of
/// deterministic spin per epoch so checkpoint/replay savings are measurable
/// in both wall-clock and the interpreter's `work_units` counter.
pub fn train_script(epochs: usize, work: usize, with_metrics: bool) -> String {
    let metrics = if with_metrics {
        "        let m = eval_model(net, data);\n        flor.log(\"acc\", m[0]);\n        flor.log(\"recall\", m[1]);\n"
    } else {
        ""
    };
    format!(
        r#"let data = load_dataset("first_page", 120, 42);
let epochs = flor.arg("epochs", {epochs});
let net = make_model(5, 6, 2, 7);
with flor.checkpointing(net) {{
    for e in flor.loop("epoch", range(0, epochs)) {{
        work({work});
        let loss = train_step(net, data, 0.5);
        flor.log("loss", loss);
{metrics}    }}
}}
"#
    )
}

/// A FlorDB instance with `versions` recorded runs of the metric-less
/// training script (checkpoint at every boundary), plus the latest
/// version's source upgraded to log metrics — ready for `backfill`.
pub fn flor_with_history(versions: usize, epochs: usize, work: usize) -> Flor {
    let flor = Flor::new("bench");
    flor.fs
        .write("train.fl", &train_script(epochs, work, false));
    for _ in 0..versions {
        run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).expect("record run");
    }
    flor.fs.write("train.fl", &train_script(epochs, work, true));
    flor
}

/// Populate a FlorDB instance with `runs` runs × `epochs` epochs, logging
/// each name in `names` once per epoch — the dataframe/pivot workload.
pub fn flor_with_logs(runs: usize, epochs: usize, names: &[&str]) -> Flor {
    let flor = Flor::new("bench");
    flor.set_filename("train.fl");
    for _run in 0..runs {
        flor.for_each("epoch", 0..epochs, |flor, &e| {
            for (i, name) in names.iter().enumerate() {
                flor.log(name, (e * (i + 1)) as f64 * 0.01);
            }
        });
        flor.commit("run").expect("commit");
    }
    flor
}

/// Measure `work` with metrics collection enabled vs disabled and return
/// the wall-clock ratio `enabled / disabled`.
///
/// Runs `pairs` back-to-back enabled/disabled pairs, choosing the order
/// within each pair by a deterministic LCG, and returns the **median of
/// the per-pair ratios**: pairing cancels slow machine drift, the
/// random order keeps periodic workload effects from resonating with a
/// fixed mode pattern, and the median discards the pairs a one-off
/// spike lands in. A few untimed warmup calls precede measurement; the
/// registry is left enabled on return.
///
/// Suited to **steady-state** work (reads, or writes whose cost does
/// not trend). For `work` that grows the database, per-call cost is
/// nonstationary — commit-time segment folds fire on a geometric
/// schedule and grow with history — and no interleaving rescues the
/// comparison; measure those by running the same deterministic workload
/// on identical fresh instances per mode instead (see the
/// `query_pushdown` bench's overhead gate).
///
/// The observability acceptance gate asserts this ratio stays under
/// 1.05 on the hot query and commit paths.
pub fn instrumentation_overhead(
    registry: &MetricsRegistry,
    pairs: usize,
    work: impl FnMut(),
) -> f64 {
    let ratio = overhead_ratio(pairs, |on| registry.set_enabled(on), work);
    registry.set_enabled(true);
    ratio
}

/// The measurement engine behind [`instrumentation_overhead`],
/// generalized over *what* is being toggled: `set_mode(true)` arms the
/// feature under test (metrics, tracing, ...), `set_mode(false)` disarms
/// it, and the returned ratio is `armed / disarmed` wall-clock — same
/// paired-LCG-ordered, median-of-ratios discipline, same steady-state
/// caveat. The mode is left wherever the last timed run put it; callers
/// restore their preferred state.
pub fn overhead_ratio(pairs: usize, mut set_mode: impl FnMut(bool), mut work: impl FnMut()) -> f64 {
    assert!(pairs > 0, "need at least one measurement pair");
    let mut time_one = |enabled: bool, work: &mut dyn FnMut()| {
        set_mode(enabled);
        let t = Instant::now();
        work();
        t.elapsed()
    };
    for _ in 0..3 {
        time_one(true, &mut work);
        time_one(false, &mut work);
    }
    let mut on: Vec<Duration> = Vec::with_capacity(pairs);
    let mut off: Vec<Duration> = Vec::with_capacity(pairs);
    let mut lcg: u64 = 0x2545_f491_4f6c_dd1d;
    for _ in 0..pairs {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if (lcg >> 33) & 1 == 0 {
            on.push(time_one(true, &mut work));
            off.push(time_one(false, &mut work));
        } else {
            off.push(time_one(false, &mut work));
            on.push(time_one(true, &mut work));
        }
    }
    let mut ratios: Vec<f64> = on
        .iter()
        .zip(off.iter())
        .map(|(a, b)| a.as_secs_f64() / b.as_secs_f64().max(1e-12))
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[pairs / 2]
}

/// Two script versions sized by duplicating pipeline stages: `old` lacks
/// the metric logs the `new` version has — the propagation workload.
pub fn versioned_scripts(stages: usize) -> (String, String) {
    let mut old = String::new();
    let mut new = String::new();
    for s in 0..stages {
        let base = format!(
            "let data{s} = load_dataset(\"first_page\", 40, {s});\nlet net{s} = make_model(5, 4, 2, {s});\nfor e{s} in flor.loop(\"stage{s}\", range(0, 3)) {{\n    let loss{s} = train_step(net{s}, data{s}, 0.5);\n    flor.log(\"loss{s}\", loss{s});\n}}\n"
        );
        old.push_str(&base);
        let with_metric = base.replace(
            &format!("    flor.log(\"loss{s}\", loss{s});\n"),
            &format!(
                "    flor.log(\"loss{s}\", loss{s});\n    let m{s} = eval_model(net{s}, data{s});\n    flor.log(\"acc{s}\", m{s}[0]);\n"
            ),
        );
        new.push_str(&with_metric);
    }
    (old, new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_script_parses() {
        for with_metrics in [false, true] {
            let src = train_script(3, 1, with_metrics);
            assert!(flor_script::parse(&src).is_ok(), "{src}");
        }
    }

    #[test]
    fn history_builder_produces_versions() {
        let flor = flor_with_history(2, 3, 0);
        let runs = flor_core::runs_of(&flor, "train.fl").unwrap();
        assert_eq!(runs.len(), 2);
    }

    #[test]
    fn log_builder_counts() {
        let flor = flor_with_logs(2, 3, &["a", "b"]);
        assert_eq!(flor.db.row_count("logs").unwrap(), 2 * 3 * 2);
    }

    #[test]
    fn versioned_scripts_parse_and_differ() {
        let (old, new) = versioned_scripts(3);
        let po = flor_script::parse(&old).unwrap();
        let pn = flor_script::parse(&new).unwrap();
        assert!(pn.node_count() > po.node_count());
    }
}
