//! Recording: run a program, capture logs and adaptive checkpoints.
//!
//! Flor's record side (paper §2) provides "low-overhead adaptive
//! checkpointing, minimizing computational resources during model
//! training". The [`Recorder`] runtime captures every `flor.log` with its
//! loop context, resolves `flor.arg`s, and snapshots what the checkpoint
//! loop can change at its iteration boundaries according to a
//! [`CheckpointPolicy`].

use flor_script::{ExecStats, FlorRuntime, Interpreter, LoopFrame, Program, RtResult, RtValue};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// When to materialise checkpoints at iteration boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckpointPolicy {
    /// Never checkpoint (replay must re-run from scratch).
    None,
    /// Checkpoint every `k`-th boundary (k ≥ 1; 1 = every iteration).
    EveryK(usize),
    /// Adaptive (the paper's policy): checkpoint when the work done since
    /// the last checkpoint exceeds `alpha ×` the measured cost of taking
    /// one — amortising checkpoint overhead to at most `1/alpha` of
    /// runtime.
    Adaptive {
        /// Overhead amortisation factor (e.g. 10.0 ⇒ ≤ ~10% overhead).
        alpha: f64,
    },
}

/// One captured log record.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Logged name.
    pub name: String,
    /// Display text of the logged value.
    pub value: String,
    /// Loop-context stack at the log site (outermost first).
    pub loops: Vec<LoopFrame>,
}

impl LogRecord {
    /// The checkpoint-loop iteration this record belongs to (outermost
    /// frame), or `None` for top-level logs.
    pub fn outer_iteration(&self) -> Option<usize> {
        self.loops.first().map(|f| f.iteration)
    }
}

/// Everything captured by one recorded execution.
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    /// Captured logs, in execution order.
    pub logs: Vec<LogRecord>,
    /// Resolved `flor.arg` values (name → display text).
    pub args: Vec<(String, String)>,
    /// Snapshots by checkpoint-loop iteration boundary (end of iteration
    /// `i` ⇒ state entering `i+1`).
    pub checkpoints: BTreeMap<usize, String>,
    /// Designated checkpoint loop `(name, length)` if one ran.
    pub ckpt_loop: Option<(String, usize)>,
    /// Interpreter stats for the recording run.
    pub stats: ExecStats,
    /// Number of `flor.commit()` calls.
    pub commits: usize,
    /// Total time spent taking checkpoints, nanoseconds.
    pub ckpt_time_ns: u64,
    /// Number of checkpoints taken.
    pub ckpt_count: usize,
}

impl RunRecord {
    /// Logged value texts for `name`, in execution order.
    pub fn values_of(&self, name: &str) -> Vec<&str> {
        self.logs
            .iter()
            .filter(|l| l.name == name)
            .map(|l| l.value.as_str())
            .collect()
    }

    /// The recorded arg value, if any.
    pub fn arg(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Nearest checkpoint boundary at or below `iteration - 1` — the best
    /// restore point for replaying `iteration`.
    pub fn best_restore_point(&self, iteration: usize) -> Option<usize> {
        self.checkpoints
            .range(..iteration)
            .next_back()
            .map(|(&k, _)| k)
    }
}

/// The recording runtime.
pub struct Recorder {
    /// Checkpoint policy in force.
    pub policy: CheckpointPolicy,
    /// Accumulating record.
    pub record: RunRecord,
    /// `flor.arg` overrides (simulating CLI arguments).
    pub arg_overrides: HashMap<String, RtValue>,
    last_boundary: Instant,
    work_since_ckpt_ns: u64,
    last_ckpt_cost_ns: u64,
    boundaries_seen: usize,
}

impl Recorder {
    /// New recorder with the given policy.
    pub fn new(policy: CheckpointPolicy) -> Recorder {
        Recorder {
            policy,
            record: RunRecord::default(),
            arg_overrides: HashMap::new(),
            last_boundary: Instant::now(),
            work_since_ckpt_ns: 0,
            last_ckpt_cost_ns: 0,
            boundaries_seen: 0,
        }
    }

    /// Set an argument override (like passing `--name value`).
    pub fn with_arg(mut self, name: &str, value: RtValue) -> Recorder {
        self.arg_overrides.insert(name.to_string(), value);
        self
    }

    fn should_checkpoint(&mut self) -> bool {
        match self.policy {
            CheckpointPolicy::None => false,
            CheckpointPolicy::EveryK(k) => {
                let k = k.max(1);
                self.boundaries_seen.is_multiple_of(k)
            }
            CheckpointPolicy::Adaptive { alpha } => {
                // First boundary always checkpoints (cost unknown yet).
                if self.last_ckpt_cost_ns == 0 {
                    return true;
                }
                self.work_since_ckpt_ns as f64 >= alpha.max(0.0) * self.last_ckpt_cost_ns as f64
            }
        }
    }
}

impl FlorRuntime for Recorder {
    fn arg(&mut self, name: &str, default: RtValue) -> RtValue {
        let v = self.arg_overrides.get(name).cloned().unwrap_or(default);
        self.record.args.push((name.to_string(), v.display_text()));
        v
    }

    fn log(&mut self, name: &str, value: &RtValue, loops: &[LoopFrame]) {
        self.record.logs.push(LogRecord {
            name: name.to_string(),
            value: value.display_text(),
            loops: loops.to_vec(),
        });
    }

    fn loop_begin(&mut self, name: &str, length: usize, loops: &[LoopFrame]) {
        // Outermost flor.loop becomes the recorded checkpoint loop
        // candidate; the interpreter only calls boundaries for the real one.
        if loops.is_empty() && self.record.ckpt_loop.is_none() {
            self.record.ckpt_loop = Some((name.to_string(), length));
            self.last_boundary = Instant::now();
        }
    }

    fn commit(&mut self) {
        self.record.commits += 1;
    }

    fn on_checkpoint_boundary(
        &mut self,
        _loop_name: &str,
        iteration: usize,
        snapshot: &mut dyn FnMut() -> RtResult<String>,
    ) {
        let elapsed = self.last_boundary.elapsed().as_nanos() as u64;
        self.work_since_ckpt_ns = self.work_since_ckpt_ns.saturating_add(elapsed);
        let take = self.should_checkpoint();
        self.boundaries_seen += 1;
        if take {
            let t0 = Instant::now();
            if let Ok(snap) = snapshot() {
                let cost = t0.elapsed().as_nanos() as u64;
                self.record.checkpoints.insert(iteration, snap);
                self.record.ckpt_time_ns += cost;
                self.record.ckpt_count += 1;
                self.last_ckpt_cost_ns = cost.max(1);
                self.work_since_ckpt_ns = 0;
            }
        }
        self.last_boundary = Instant::now();
    }
}

/// Record one execution of `prog`. Returns the record and the final
/// interpreter (for inspecting end-state in tests and pipelines).
pub fn record(
    prog: &Program,
    policy: CheckpointPolicy,
    args: &[(&str, RtValue)],
) -> RtResult<(RunRecord, Interpreter)> {
    let mut recorder = Recorder::new(policy);
    for (n, v) in args {
        recorder.arg_overrides.insert((*n).to_string(), v.clone());
    }
    let mut interp = Interpreter::new();
    let stats = interp.run(prog, &mut recorder)?;
    recorder.record.stats = stats;
    Ok((recorder.record, interp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flor_script::parse;

    const TRAIN: &str = r#"
let data = load_dataset("first_page", 80, 42);
let epochs = flor.arg("epochs", 4);
let lr = flor.arg("lr", 0.5);
let net = make_model(5, 4, 2, 7);
with flor.checkpointing(net) {
    for e in flor.loop("epoch", range(0, epochs)) {
        let loss = train_step(net, data, lr);
        flor.log("loss", loss);
        let m = eval_model(net, data);
        flor.log("acc", m[0]);
        flor.log("recall", m[1]);
    }
}
"#;

    #[test]
    fn records_logs_with_context() {
        let prog = parse(TRAIN).unwrap();
        let (rec, _) = record(&prog, CheckpointPolicy::None, &[]).unwrap();
        assert_eq!(rec.values_of("loss").len(), 4);
        assert_eq!(rec.values_of("acc").len(), 4);
        let last = rec.logs.last().unwrap();
        assert_eq!(last.name, "recall");
        assert_eq!(last.outer_iteration(), Some(3));
        assert_eq!(rec.ckpt_loop, Some(("epoch".to_string(), 4)));
    }

    #[test]
    fn arg_overrides_and_recording() {
        let prog = parse(TRAIN).unwrap();
        let (rec, _) = record(
            &prog,
            CheckpointPolicy::None,
            &[("epochs", RtValue::Int(2))],
        )
        .unwrap();
        assert_eq!(rec.arg("epochs"), Some("2"));
        assert_eq!(rec.arg("lr"), Some("0.5"));
        assert_eq!(rec.values_of("loss").len(), 2);
    }

    #[test]
    fn every_k_checkpoints() {
        let prog = parse(TRAIN).unwrap();
        let (rec, _) = record(&prog, CheckpointPolicy::EveryK(1), &[]).unwrap();
        assert_eq!(
            rec.checkpoints.keys().copied().collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        let (rec2, _) = record(&prog, CheckpointPolicy::EveryK(2), &[]).unwrap();
        assert_eq!(
            rec2.checkpoints.keys().copied().collect::<Vec<_>>(),
            vec![0, 2]
        );
    }

    #[test]
    fn none_policy_takes_no_checkpoints() {
        let prog = parse(TRAIN).unwrap();
        let (rec, _) = record(&prog, CheckpointPolicy::None, &[]).unwrap();
        assert!(rec.checkpoints.is_empty());
        assert_eq!(rec.ckpt_count, 0);
    }

    #[test]
    fn adaptive_takes_at_least_one_and_bounded() {
        let prog = parse(TRAIN).unwrap();
        let (rec, _) = record(&prog, CheckpointPolicy::Adaptive { alpha: 10.0 }, &[]).unwrap();
        assert!(rec.ckpt_count >= 1);
        assert!(rec.ckpt_count <= 4);
    }

    #[test]
    fn adaptive_alpha_zero_checkpoints_everywhere() {
        let prog = parse(TRAIN).unwrap();
        let (rec, _) = record(&prog, CheckpointPolicy::Adaptive { alpha: 0.0 }, &[]).unwrap();
        assert_eq!(rec.ckpt_count, 4);
    }

    #[test]
    fn best_restore_point_picks_nearest_below() {
        let prog = parse(TRAIN).unwrap();
        let (rec, _) = record(&prog, CheckpointPolicy::EveryK(2), &[]).unwrap();
        // checkpoints at 0, 2
        assert_eq!(rec.best_restore_point(0), None);
        assert_eq!(rec.best_restore_point(1), Some(0));
        assert_eq!(rec.best_restore_point(2), Some(0));
        assert_eq!(rec.best_restore_point(3), Some(2));
    }

    #[test]
    fn checkpoints_restore_to_correct_state() {
        let prog = parse(TRAIN).unwrap();
        let (rec, final_interp) = record(&prog, CheckpointPolicy::EveryK(1), &[]).unwrap();
        // The snapshot at the last boundary equals the final state of the
        // checkpointed variables.
        let snap = &rec.checkpoints[&3];
        let mut restored = Interpreter::new();
        restored.restore(snap).unwrap();
        let net_final = match final_interp.env["net"] {
            RtValue::Model(h) => final_interp.heap.models[h].clone(),
            _ => panic!(),
        };
        let net_snap = match restored.env["net"] {
            RtValue::Model(h) => restored.heap.models[h].clone(),
            _ => panic!(),
        };
        assert_eq!(net_final, net_snap);
    }

    #[test]
    fn commits_counted() {
        let prog = parse("flor.commit();\nflor.commit();").unwrap();
        let (rec, _) = record(&prog, CheckpointPolicy::None, &[]).unwrap();
        assert_eq!(rec.commits, 2);
    }
}
