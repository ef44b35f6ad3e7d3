//! Replay: plan the minimal work, steer the interpreter, parallelise.
//!
//! The paper's replay side (§2): retroactively execute new logging
//! statements "across all those versions via incremental replay, without
//! the need for full re-execution ... through a combination of differential
//! execution and parallelism, allowing FlorDB to efficiently replay only
//! the necessary parts of the pipeline."
//!
//! # Plan shapes
//!
//! [`plan_replay`] turns (needed iterations × recorded checkpoints × the
//! injected tail) into one [`IterAction`] per checkpoint-loop iteration:
//!
//! * **skip** — the recorded run covers the iteration (its values are
//!   *memoized*); nothing executes;
//! * **restore-then-run** — install the nearest checkpoint below a needed
//!   iteration and run whole iterations up to it, or keep running from
//!   the last executed one when that is shorter (from the start when no
//!   checkpoint precedes it);
//! * **resume-tail** — when the injected in-loop statements are exactly
//!   the body's last `k` statements ([`Placement::tail`]), a needed
//!   iteration whose own end-of-iteration checkpoint exists installs it
//!   and runs only those `k`;
//! * **stop** — halt the program after the last needed iteration. When
//!   the last iteration is needed nothing stops, and the program runs on
//!   past the loop: that is how statements after it see the final state,
//!   and why a name logged only after the loop needs the last iteration
//!   alone.
//!
//! A replay given no tail plans only the first, second and last shapes —
//! the planner as it was before placements existed.
//!
//! # Exactness contract
//!
//! Replayed values equal those of the patched program run from scratch as
//! long as the injected statements write no state the original program
//! reads: a checkpoint recorded by the original program is then as good
//! as one the patched program would have taken. Every restore relies on
//! this, the tail resume included. A checkpoint holds only what the
//! original loop can change and is installed over the state the replay's
//! own run of the statements before the loop built, so those statements
//! must be deterministic given the recorded args, and injected statements
//! must not carry state of their own from one iteration to the next. The
//! one state a snapshot omits is the interpreter's `randint` generator, so
//! a program that calls `randint` replays from the start on one worker,
//! drawing the recording's sequence.
//!
//! Needed iterations are partitioned contiguously across worker threads;
//! every worker runs the statements before the loop, and only the first
//! reports what they log.
//!
//! [`Placement::tail`]: crate::Placement::tail

use crate::record::{LogRecord, RunRecord};
use flor_script::{
    Directive, ExecStats, FlorRuntime, Interpreter, LoopFrame, Program, RtResult, RtValue,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared cancellation + progress channel threaded through a replay.
///
/// Cloning shares the same flags, so a background scheduler (flor-jobs)
/// can hold one half while the replay workers hold the other: `cancel`
/// makes every worker halt at its next checkpoint-loop boundary, and
/// `iterations_executed` ticks up live as iterations run — the per-unit
/// progress a `JobHandle` reports mid-flight.
#[derive(Debug, Clone, Default)]
pub struct ReplayControl {
    cancelled: Arc<AtomicBool>,
    iterations: Arc<AtomicUsize>,
}

impl ReplayControl {
    /// Fresh control: not cancelled, zero progress.
    pub fn new() -> ReplayControl {
        ReplayControl::default()
    }

    /// A control sharing an external cancellation flag and progress
    /// counter (the job scheduler's), so cancelling the job cancels the
    /// replay and replayed iterations tick the job's progress.
    pub fn shared(cancelled: Arc<AtomicBool>, iterations: Arc<AtomicUsize>) -> ReplayControl {
        ReplayControl {
            cancelled,
            iterations,
        }
    }

    /// Request cancellation: workers stop at the next iteration boundary.
    // audit: ordering — control-plane flag checked at iteration
    // boundaries; SeqCst gives a total order with the tick counter so
    // observers never see progress after an acknowledged cancel.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    // audit: ordering — pairs with the SeqCst store in `cancel`.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Iterations executed so far across all workers (live counter).
    // audit: ordering — live progress read; SeqCst keeps it consistent
    // with the cancellation flag it is reported beside.
    pub fn iterations_executed(&self) -> usize {
        self.iterations.load(Ordering::SeqCst)
    }

    // audit: ordering — once-per-iteration counter bump; SeqCst for the
    // same total order as the cancel flag, cost is immaterial here.
    fn tick(&self) {
        self.iterations.fetch_add(1, Ordering::SeqCst);
    }
}

/// Planned action for one checkpoint-loop iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum IterAction {
    /// Skip: recorded values cover this iteration.
    Skip,
    /// Restore the checkpoint taken at boundary `ckpt`, then run.
    RestoreThenRun {
        /// Boundary iteration whose snapshot to install.
        ckpt: usize,
    },
    /// Restore the checkpoint taken at the end of this very iteration,
    /// then run only the loop body's last `tail` statements.
    ResumeTail {
        /// Boundary iteration whose snapshot to install (this one).
        ckpt: usize,
        /// Trailing body statements to run.
        tail: usize,
    },
    /// Run normally (state already correct from a prior iteration).
    Run,
    /// Halt the program at this iteration.
    Stop,
}

/// A replay plan over the checkpoint loop.
#[derive(Debug, Clone, Default)]
pub struct ReplayPlan {
    /// Action per iteration index.
    pub actions: Vec<IterAction>,
    /// Iterations that will actually execute.
    pub will_run: usize,
}

/// Compute the minimal-execution plan to run exactly the `needed`
/// iterations of a loop of `total` iterations, given recorded checkpoints.
///
/// With a `tail` (see [`Placement::tail`](crate::Placement::tail)), a
/// needed iteration whose own checkpoint exists resumes that tail from it.
/// Otherwise greedy: choose the cheaper of (a) continuing from the
/// previously executed position or (b) restoring the nearest checkpoint
/// below it.
pub fn plan_replay(
    total: usize,
    needed: &[usize],
    checkpoints: &BTreeMap<usize, String>,
    tail: Option<usize>,
) -> ReplayPlan {
    let mut needed: Vec<usize> = needed.iter().copied().filter(|&i| i < total).collect();
    needed.sort_unstable();
    needed.dedup();
    let mut actions = vec![IterAction::Skip; total];
    if needed.is_empty() {
        if total > 0 {
            actions[0] = IterAction::Stop;
        }
        return ReplayPlan {
            actions,
            will_run: 0,
        };
    }
    // last executed iteration, if any
    let mut pos: Option<usize> = None;
    for &i in &needed {
        if let Some(p) = pos {
            if p >= i {
                continue; // already executed on the way to a previous target
            }
        }
        if let Some(tail) = tail.filter(|_| checkpoints.contains_key(&i)) {
            actions[i] = IterAction::ResumeTail { ckpt: i, tail };
            pos = Some(i);
            continue;
        }
        // Option a: continue from pos (cost i - pos).
        let cont_cost = pos.map(|p| i - p);
        // Option b: restore nearest ckpt c < i (cost i - c, runs c+1..=i).
        let best_ckpt = checkpoints.range(..i).next_back().map(|(&c, _)| c);
        let restore_cost = best_ckpt.map(|c| i - c);
        enum Choice {
            Continue(usize),
            Restore(usize),
            FromStart,
        }
        let choice = match (cont_cost, restore_cost, best_ckpt) {
            (Some(cc), Some(rc), Some(c)) => {
                if rc < cc {
                    Choice::Restore(c)
                } else {
                    // audit: allow(panic) — cont_cost is `pos.map(..)`, so
                    // Some(cc) implies pos is Some.
                    Choice::Continue(pos.expect("cont_cost implies pos"))
                }
            }
            // audit: allow(panic) — same derivation: cont_cost comes from pos.
            (Some(_), None, _) => Choice::Continue(pos.expect("cont_cost implies pos")),
            (None, Some(_), Some(c)) => Choice::Restore(c),
            _ => Choice::FromStart,
        };
        match choice {
            Choice::Continue(p) => {
                for a in actions.iter_mut().take(i + 1).skip(p + 1) {
                    *a = IterAction::Run;
                }
            }
            Choice::Restore(c) => {
                actions[c + 1] = IterAction::RestoreThenRun { ckpt: c };
                for a in actions.iter_mut().take(i + 1).skip(c + 2) {
                    *a = IterAction::Run;
                }
            }
            Choice::FromStart => {
                for a in actions.iter_mut().take(i + 1) {
                    *a = IterAction::Run;
                }
            }
        }
        pos = Some(i);
    }
    // Halt after the last needed iteration.
    // audit: allow(panic) — the is_empty case returned early above.
    let last = *needed.last().expect("non-empty");
    if last + 1 < total {
        actions[last + 1] = IterAction::Stop;
    }
    let will_run = actions
        .iter()
        .filter(|a| !matches!(a, IterAction::Skip | IterAction::Stop))
        .count();
    ReplayPlan { actions, will_run }
}

/// Replay runtime: follows a [`ReplayPlan`], serves recorded args, and
/// collects logs emitted by executed iterations.
pub struct Replayer<'a> {
    plan: &'a ReplayPlan,
    record: &'a RunRecord,
    /// Logs captured during replay.
    pub logs: Vec<LogRecord>,
    ckpt_loop_name: Option<String>,
    control: ReplayControl,
    /// How many of `logs` were captured before the checkpoint loop began.
    prefix_logs: Option<usize>,
}

impl<'a> Replayer<'a> {
    /// Build a replayer for a plan over a prior record.
    pub fn new(plan: &'a ReplayPlan, record: &'a RunRecord) -> Replayer<'a> {
        Replayer::with_control(plan, record, ReplayControl::new())
    }

    /// [`Replayer::new`] with a shared [`ReplayControl`] for cancellation
    /// and live progress reporting.
    pub fn with_control(
        plan: &'a ReplayPlan,
        record: &'a RunRecord,
        control: ReplayControl,
    ) -> Replayer<'a> {
        Replayer {
            plan,
            record,
            logs: Vec::new(),
            ckpt_loop_name: record.ckpt_loop.as_ref().map(|(n, _)| n.clone()),
            control,
            prefix_logs: None,
        }
    }
}

impl FlorRuntime for Replayer<'_> {
    fn arg(&mut self, name: &str, default: RtValue) -> RtValue {
        // "retrieving historical values during replay" (paper §2.1):
        // an arg recorded in the original run replays with that value.
        match self.record.arg(name) {
            Some(text) => parse_recorded_value(text, &default),
            None => default,
        }
    }

    fn log(&mut self, name: &str, value: &RtValue, loops: &[LoopFrame]) {
        self.logs.push(LogRecord {
            name: name.to_string(),
            value: value.display_text(),
            loops: loops.to_vec(),
        });
    }

    fn loop_begin(&mut self, name: &str, _length: usize, loops: &[LoopFrame]) {
        if loops.is_empty() && self.ckpt_loop_name.as_deref() == Some(name) {
            self.prefix_logs.get_or_insert(self.logs.len());
        }
    }

    fn plan(&mut self, loop_name: &str, iteration: usize) -> Directive<'_> {
        if self.ckpt_loop_name.as_deref() != Some(loop_name) {
            return Directive::Run;
        }
        // Cooperative cancellation: a cancelled replay halts at the next
        // iteration boundary instead of finishing the plan.
        if self.control.is_cancelled() {
            return Directive::Stop;
        }
        let snapshot = |ckpt: &usize| self.record.checkpoints.get(ckpt);
        let directive = match self.plan.actions.get(iteration) {
            Some(IterAction::Skip) | None => return Directive::Skip,
            Some(IterAction::Stop) => return Directive::Stop,
            Some(IterAction::Run) => Directive::Run,
            // A plan naming a missing checkpoint runs the iteration as is.
            Some(IterAction::RestoreThenRun { ckpt }) => {
                snapshot(ckpt).map_or(Directive::Run, |s| Directive::Restore(s))
            }
            Some(IterAction::ResumeTail { ckpt, tail }) => {
                snapshot(ckpt).map_or(Directive::Run, |s| Directive::ResumeTail {
                    snapshot: s,
                    tail: *tail,
                })
            }
        };
        self.control.tick();
        directive
    }
}

/// Parse a recorded display text back into a value, guided by the default's
/// type (args are scalars in practice).
fn parse_recorded_value(text: &str, default: &RtValue) -> RtValue {
    match default {
        RtValue::Int(_) => text
            .parse::<i64>()
            .map(RtValue::Int)
            .unwrap_or_else(|_| RtValue::Str(text.to_string())),
        RtValue::Float(_) => text
            .parse::<f64>()
            .map(RtValue::Float)
            .unwrap_or_else(|_| RtValue::Str(text.to_string())),
        RtValue::Bool(_) => match text {
            "true" => RtValue::Bool(true),
            "false" => RtValue::Bool(false),
            _ => RtValue::Str(text.to_string()),
        },
        _ => RtValue::Str(text.to_string()),
    }
}

/// Outcome of a (possibly parallel) replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayOutcome {
    /// Logs produced by executed iterations, merged across workers and
    /// sorted by (outer iteration, emission order).
    pub new_logs: Vec<LogRecord>,
    /// Summed interpreter stats across workers.
    pub stats: ExecStats,
    /// Worker count used.
    pub workers: usize,
    /// Iterations executed (across workers).
    pub iterations_executed: usize,
    /// Critical-path work: the maximum `work_units` consumed by any single
    /// worker. On a machine with ≥ `workers` cores, wall-clock tracks this
    /// rather than the summed stats — the parallel-replay speedup metric.
    pub critical_path_work: u64,
    /// Whether the replay was cut short by a [`ReplayControl`] cancel.
    /// A cancelled outcome's logs are partial and must not be ingested.
    pub cancelled: bool,
}

/// Replay `needed` iterations of `prog` (typically a patched prior
/// version) against `record`, using up to `parallelism` worker threads,
/// with no placement information: whole iterations only.
///
/// Workers partition the needed iterations; each restores from its own
/// nearest checkpoint, so wall-clock scales down with workers — the
/// parallelism half of the paper's replay speedup.
pub fn replay(
    prog: &Program,
    record: &RunRecord,
    needed: &[usize],
    parallelism: usize,
) -> RtResult<ReplayOutcome> {
    replay_with(
        prog,
        record,
        needed,
        None,
        parallelism,
        &ReplayControl::new(),
    )
}

/// [`replay`] given the injected `tail` ([`Placement::tail`]) and a shared
/// [`ReplayControl`]: the caller can cancel the replay mid-flight (workers
/// halt at the next iteration boundary and the outcome comes back with
/// `cancelled = true`) and read live progress via
/// [`ReplayControl::iterations_executed`] — the hooks the flor-jobs
/// background scheduler threads through every unit of backfill work.
///
/// At least one worker runs even when no iteration is needed: it executes
/// the statements before the loop, then stops.
///
/// [`Placement::tail`]: crate::Placement::tail
pub fn replay_with(
    prog: &Program,
    record: &RunRecord,
    needed: &[usize],
    tail: Option<usize>,
    parallelism: usize,
    control: &ReplayControl,
) -> RtResult<ReplayOutcome> {
    let total = record.ckpt_loop.as_ref().map(|(_, n)| *n).unwrap_or(0);
    let mut needed: Vec<usize> = needed.iter().copied().filter(|&i| i < total).collect();
    needed.sort_unstable();
    needed.dedup();
    // Snapshots omit the `randint` generator: such a program replays from
    // the start on one worker, whose generator is seeded as the
    // recording's was.
    let no_checkpoints = BTreeMap::new();
    let (checkpoints, tail, parallelism) = if prog.calls("randint") {
        (&no_checkpoints, None, 1)
    } else {
        (&record.checkpoints, tail, parallelism)
    };
    let workers = parallelism.max(1).min(needed.len().max(1));
    // Partition needed iterations contiguously across workers.
    let chunk = needed.len().div_ceil(workers).max(1);
    let mut parts: Vec<&[usize]> = needed.chunks(chunk).collect();
    if parts.is_empty() {
        parts.push(&[]);
    }
    let worker = |w: usize| {
        let plan = plan_replay(total, parts[w], checkpoints, tail);
        run_worker(prog, record, &plan, parts[w], w == 0, control)
    };

    let results: Vec<RtResult<(Vec<LogRecord>, ExecStats, usize)>> = if parts.len() <= 1 {
        (0..parts.len()).map(worker).collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..parts.len())
                .map(|w| scope.spawn(move || worker(w)))
                .collect();
            handles
                .into_iter()
                // audit: allow(panic) — deliberate propagation: a worker
                // panic is a replay-engine bug and must not be swallowed
                // as a partial result.
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    };

    let mut outcome = ReplayOutcome {
        workers: parts.len(),
        cancelled: control.is_cancelled(),
        ..Default::default()
    };
    for r in results {
        let (logs, stats, executed) = r?;
        outcome.critical_path_work = outcome.critical_path_work.max(stats.work_units);
        outcome.new_logs.extend(logs);
        outcome.stats.statements += stats.statements;
        outcome.stats.work_units += stats.work_units;
        outcome.stats.iterations_run += stats.iterations_run;
        outcome.stats.iterations_skipped += stats.iterations_skipped;
        outcome.stats.restores += stats.restores;
        outcome.iterations_executed += executed;
    }
    outcome
        .new_logs
        .sort_by_key(|l| (l.outer_iteration().unwrap_or(usize::MAX), 0));
    Ok(outcome)
}

fn run_worker(
    prog: &Program,
    record: &RunRecord,
    plan: &ReplayPlan,
    part: &[usize],
    first: bool,
    control: &ReplayControl,
) -> RtResult<(Vec<LogRecord>, ExecStats, usize)> {
    let mut replayer = Replayer::with_control(plan, record, control.clone());
    let mut interp = Interpreter::new();
    let stats = interp.run(prog, &mut replayer)?;
    // Every worker ran the statements before the loop; the first reports
    // their logs.
    let prefix = if first {
        0
    } else {
        replayer.prefix_logs.unwrap_or(replayer.logs.len())
    };
    // Keep only logs from iterations this worker was asked for (it may have
    // executed warm-up iterations whose logs belong to another worker or
    // are already recorded).
    let wanted: std::collections::HashSet<usize> = part.iter().copied().collect();
    let logs: Vec<LogRecord> = replayer
        .logs
        .into_iter()
        .skip(prefix)
        .filter(|l| l.outer_iteration().is_none_or(|i| wanted.contains(&i)))
        .collect();
    Ok((logs, stats, plan.will_run))
}

/// Merge replayed logs into the recorded logs: recorded values are the
/// memoized base; replayed values fill in or supersede records with the
/// same `(name, loop context)`. The result is a complete log as if the
/// (patched) program had been fully re-executed.
pub fn merge_logs(recorded: &[LogRecord], replayed: &[LogRecord]) -> Vec<LogRecord> {
    let key = |l: &LogRecord| -> (String, Vec<(String, usize)>) {
        (
            l.name.clone(),
            l.loops
                .iter()
                .map(|f| (f.name.clone(), f.iteration))
                .collect(),
        )
    };
    let mut merged: Vec<LogRecord> = recorded.to_vec();
    let mut index: std::collections::HashMap<_, usize> = merged
        .iter()
        .enumerate()
        .map(|(i, l)| (key(l), i))
        .collect();
    for l in replayed {
        match index.get(&key(l)) {
            Some(&i) => merged[i] = l.clone(),
            None => {
                index.insert(key(l), merged.len());
                merged.push(l.clone());
            }
        }
    }
    // Stable order: by outer iteration then original position.
    merged.sort_by_key(|l| l.outer_iteration().unwrap_or(usize::MAX));
    merged
}

/// Which outer iterations carry a log named `name` in `logs`.
pub fn iterations_logging(logs: &[LogRecord], name: &str) -> Vec<usize> {
    let mut out: Vec<usize> = logs
        .iter()
        .filter(|l| l.name == name)
        .filter_map(LogRecord::outer_iteration)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{record, CheckpointPolicy};
    use flor_script::parse;

    const TRAIN: &str = r#"
let data = load_dataset("first_page", 80, 42);
let epochs = flor.arg("epochs", 6);
let lr = flor.arg("lr", 0.5);
let net = make_model(5, 4, 2, 7);
with flor.checkpointing(net) {
    for e in flor.loop("epoch", range(0, epochs)) {
        let loss = train_step(net, data, lr);
        flor.log("loss", loss);
    }
}
"#;

    /// TRAIN with an extra hindsight statement (what propagation produces).
    const TRAIN_PATCHED: &str = r#"
let data = load_dataset("first_page", 80, 42);
let epochs = flor.arg("epochs", 6);
let lr = flor.arg("lr", 0.5);
let net = make_model(5, 4, 2, 7);
with flor.checkpointing(net) {
    for e in flor.loop("epoch", range(0, epochs)) {
        let loss = train_step(net, data, lr);
        flor.log("loss", loss);
        let m = eval_model(net, data);
        flor.log("acc", m[0]);
    }
}
"#;

    #[test]
    fn plan_with_dense_checkpoints_runs_only_needed() {
        let mut ckpts = BTreeMap::new();
        for i in 0..10 {
            ckpts.insert(i, format!("snap{i}"));
        }
        let plan = plan_replay(10, &[7], &ckpts, None);
        assert_eq!(plan.will_run, 1);
        assert_eq!(plan.actions[7], IterAction::RestoreThenRun { ckpt: 6 });
        assert_eq!(plan.actions[8], IterAction::Stop);
        assert_eq!(plan.actions[0], IterAction::Skip);
    }

    #[test]
    fn plan_without_checkpoints_runs_prefix() {
        let plan = plan_replay(10, &[7], &BTreeMap::new(), None);
        assert_eq!(plan.will_run, 8); // 0..=7
        assert!(matches!(plan.actions[0], IterAction::Run));
        assert_eq!(plan.actions[8], IterAction::Stop);
    }

    #[test]
    fn plan_prefers_continue_over_far_restore() {
        // ckpt at 0 only; needed 3 and 5: after running 1..=3 it is cheaper
        // to continue 4..=5 than to restore ckpt 0 and run 1..=5.
        let mut ckpts = BTreeMap::new();
        ckpts.insert(0usize, "s0".to_string());
        let plan = plan_replay(8, &[3, 5], &ckpts, None);
        assert_eq!(plan.actions[1], IterAction::RestoreThenRun { ckpt: 0 });
        for i in 2..=5 {
            assert_eq!(plan.actions[i], IterAction::Run, "iteration {i}");
        }
        assert_eq!(plan.actions[6], IterAction::Stop);
        assert_eq!(plan.will_run, 5);
    }

    #[test]
    fn plan_restores_when_cheaper() {
        // ckpts everywhere; needed 1 and 8: restore at 8 beats running 2..=8.
        let mut ckpts = BTreeMap::new();
        for i in 0..10 {
            ckpts.insert(i, format!("s{i}"));
        }
        let plan = plan_replay(10, &[1, 8], &ckpts, None);
        assert_eq!(plan.actions[1], IterAction::RestoreThenRun { ckpt: 0 });
        assert_eq!(plan.actions[8], IterAction::RestoreThenRun { ckpt: 7 });
        assert_eq!(plan.will_run, 2);
    }

    #[test]
    fn plan_empty_needed_stops_immediately() {
        let plan = plan_replay(5, &[], &BTreeMap::new(), None);
        assert_eq!(plan.will_run, 0);
        assert_eq!(plan.actions[0], IterAction::Stop);
    }

    #[test]
    fn plan_resumes_tails_from_each_iterations_own_checkpoint() {
        let every: BTreeMap<usize, String> = (0..6).map(|i| (i, format!("s{i}"))).collect();
        let even: BTreeMap<usize, String> = [0, 2, 4].map(|i| (i, format!("s{i}"))).into();
        let all: Vec<usize> = (0..6).collect();
        let resume = |i| IterAction::ResumeTail { ckpt: i, tail: 2 };
        // Every iteration resumes its own tail; nothing stops the program.
        let plan = plan_replay(6, &all, &every, Some(2));
        assert_eq!(plan.actions, (0..6).map(resume).collect::<Vec<_>>());
        assert_eq!(plan.will_run, 6);
        // An iteration without its own checkpoint runs whole, continuing.
        let plan = plan_replay(6, &all, &even, Some(2));
        use IterAction::Run;
        assert_eq!(
            plan.actions,
            vec![resume(0), Run, resume(2), Run, resume(4), Run]
        );
        // The last iteration alone (a name logged after the loop): resume
        // it with an empty tail, or restore below it when its checkpoint
        // is missing or no tail is known.
        let plan = plan_replay(6, &[5], &every, Some(0));
        assert_eq!(plan.actions[5], IterAction::ResumeTail { ckpt: 5, tail: 0 });
        assert_eq!(plan.will_run, 1);
        let plan = plan_replay(6, &[5], &even, Some(0));
        assert_eq!(plan.actions[5], IterAction::RestoreThenRun { ckpt: 4 });
        let plan = plan_replay(6, &[5], &every, None);
        assert_eq!(plan.actions[5], IterAction::RestoreThenRun { ckpt: 4 });
        // Stops after the last needed iteration, as without a tail.
        let plan = plan_replay(6, &[1, 3], &every, Some(1));
        assert_eq!(plan.actions[4], IterAction::Stop);
        assert_eq!(plan.will_run, 2);
    }

    #[test]
    fn tail_replay_matches_foresight_without_running_the_body() {
        let orig = parse(TRAIN).unwrap();
        let (rec, _) = record(&orig, CheckpointPolicy::EveryK(1), &[]).unwrap();
        let patched = parse(TRAIN_PATCHED).unwrap();
        let (truth, _) = record(&patched, CheckpointPolicy::None, &[]).unwrap();
        let needed: Vec<usize> = (0..6).collect();
        for workers in [1, 2, 4] {
            let out = replay_with(
                &patched,
                &rec,
                &needed,
                Some(2),
                workers,
                &ReplayControl::new(),
            )
            .unwrap();
            let accs: Vec<&str> = out
                .new_logs
                .iter()
                .filter(|l| l.name == "acc")
                .map(|l| l.value.as_str())
                .collect();
            assert_eq!(accs, truth.values_of("acc"));
            assert_eq!(out.stats.restores, 6);
            assert_eq!(out.iterations_executed, 6);
            // No train_step ran: only the injected eval_model's work.
            assert_eq!(out.stats.work_units, 6 * 80 / 4);
            assert!(out.new_logs.iter().all(|l| l.name != "loss"));
        }
    }

    #[test]
    fn only_the_first_worker_reports_statements_before_the_loop() {
        let with_prefix_log = format!("flor.log(\"lr\", 0.5);\n{TRAIN_PATCHED}");
        let orig = parse(TRAIN).unwrap();
        let (rec, _) = record(&orig, CheckpointPolicy::EveryK(1), &[]).unwrap();
        let patched = parse(&with_prefix_log).unwrap();
        let needed: Vec<usize> = (0..6).collect();
        let out = replay_with(&patched, &rec, &needed, Some(2), 3, &ReplayControl::new()).unwrap();
        assert_eq!(out.workers, 3);
        assert_eq!(out.new_logs.iter().filter(|l| l.name == "lr").count(), 1);
        // With nothing needed in the loop, one worker still runs them.
        let out = replay(&patched, &rec, &[], 3).unwrap();
        assert_eq!((out.workers, out.iterations_executed), (1, 0));
        assert_eq!(
            out.new_logs.iter().map(|l| &l.name).collect::<Vec<_>>(),
            ["lr"]
        );
    }

    #[test]
    fn hindsight_replay_matches_foresight_run() {
        // Record the original (no acc logging).
        let orig = parse(TRAIN).unwrap();
        let (rec, _) = record(&orig, CheckpointPolicy::EveryK(1), &[]).unwrap();
        assert_eq!(rec.values_of("acc").len(), 0);

        // Ground truth: a full run of the patched program from scratch.
        let patched = parse(TRAIN_PATCHED).unwrap();
        let (truth, _) = record(&patched, CheckpointPolicy::None, &[]).unwrap();
        let truth_accs = truth.values_of("acc").to_vec();
        assert_eq!(truth_accs.len(), 6);

        // Hindsight: replay all iterations of the patched program from
        // checkpoints, one iteration each.
        let needed: Vec<usize> = (0..6).collect();
        let out = replay(&patched, &rec, &needed, 1).unwrap();
        let accs = iterations_logging(&out.new_logs, "acc");
        assert_eq!(accs, needed);
        let replay_accs: Vec<&str> = out
            .new_logs
            .iter()
            .filter(|l| l.name == "acc")
            .map(|l| l.value.as_str())
            .collect();
        assert_eq!(
            replay_accs, truth_accs,
            "hindsight values must be bit-identical"
        );
    }

    #[test]
    fn parallel_replay_equals_serial() {
        let orig = parse(TRAIN).unwrap();
        let (rec, _) = record(&orig, CheckpointPolicy::EveryK(1), &[]).unwrap();
        let patched = parse(TRAIN_PATCHED).unwrap();
        let needed: Vec<usize> = (0..6).collect();
        let serial = replay(&patched, &rec, &needed, 1).unwrap();
        let parallel = replay(&patched, &rec, &needed, 4).unwrap();
        assert!(parallel.workers > 1);
        let vals = |o: &ReplayOutcome| -> Vec<(String, String)> {
            let mut v: Vec<(String, String)> = o
                .new_logs
                .iter()
                .map(|l| {
                    (
                        format!("{}@{:?}", l.name, l.outer_iteration()),
                        l.value.clone(),
                    )
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(vals(&serial), vals(&parallel));
    }

    #[test]
    fn replay_subset_is_cheaper_than_full() {
        let orig = parse(TRAIN).unwrap();
        let (rec, _) = record(&orig, CheckpointPolicy::EveryK(1), &[]).unwrap();
        let patched = parse(TRAIN_PATCHED).unwrap();
        let full_stats = record(&patched, CheckpointPolicy::None, &[])
            .unwrap()
            .0
            .stats;
        let out = replay(&patched, &rec, &[5], 1).unwrap();
        assert_eq!(out.iterations_executed, 1);
        assert!(
            out.stats.work_units < full_stats.work_units / 2,
            "replay {} vs full {}",
            out.stats.work_units,
            full_stats.work_units
        );
    }

    #[test]
    fn replay_uses_recorded_args() {
        let orig = parse(TRAIN).unwrap();
        let (rec, _) = record(
            &orig,
            CheckpointPolicy::EveryK(1),
            &[("epochs", RtValue::Int(3)), ("lr", RtValue::Float(0.25))],
        )
        .unwrap();
        assert_eq!(rec.values_of("loss").len(), 3);
        // Replay the patched program: it must see epochs=3 (recorded), not 6.
        let patched = parse(TRAIN_PATCHED).unwrap();
        let out = replay(&patched, &rec, &[0, 1, 2], 1).unwrap();
        assert_eq!(iterations_logging(&out.new_logs, "acc"), vec![0, 1, 2]);
    }

    #[test]
    fn cancelled_control_stops_replay_early() {
        let orig = parse(TRAIN).unwrap();
        let (rec, _) = record(&orig, CheckpointPolicy::EveryK(1), &[]).unwrap();
        let patched = parse(TRAIN_PATCHED).unwrap();
        let needed: Vec<usize> = (0..6).collect();
        let ctl = ReplayControl::new();
        ctl.cancel();
        let out = replay_with(&patched, &rec, &needed, None, 1, &ctl).unwrap();
        assert!(out.cancelled);
        assert_eq!(out.stats.iterations_run, 0, "cancelled before any work");
    }

    #[test]
    fn control_counts_iterations_live() {
        let orig = parse(TRAIN).unwrap();
        let (rec, _) = record(&orig, CheckpointPolicy::EveryK(1), &[]).unwrap();
        let patched = parse(TRAIN_PATCHED).unwrap();
        let needed: Vec<usize> = (0..6).collect();
        let ctl = ReplayControl::new();
        let out = replay_with(&patched, &rec, &needed, None, 2, &ctl).unwrap();
        assert!(!out.cancelled);
        assert_eq!(ctl.iterations_executed(), out.iterations_executed);
        assert_eq!(out.iterations_executed, 6);
    }

    #[test]
    fn merge_logs_fills_and_supersedes() {
        let frame = |i: usize| LoopFrame {
            name: "epoch".into(),
            iteration: i,
            value: i.to_string(),
        };
        let recorded = vec![
            LogRecord {
                name: "loss".into(),
                value: "1.0".into(),
                loops: vec![frame(0)],
            },
            LogRecord {
                name: "loss".into(),
                value: "0.5".into(),
                loops: vec![frame(1)],
            },
        ];
        let replayed = vec![
            LogRecord {
                name: "acc".into(),
                value: "0.9".into(),
                loops: vec![frame(1)],
            },
            LogRecord {
                name: "loss".into(),
                value: "0.5".into(),
                loops: vec![frame(1)],
            },
        ];
        let merged = merge_logs(&recorded, &replayed);
        assert_eq!(merged.len(), 3);
        let names: Vec<&str> = merged.iter().map(|l| l.name.as_str()).collect();
        assert!(names.contains(&"acc"));
    }
}
