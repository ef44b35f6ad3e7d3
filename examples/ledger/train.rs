//! `embed.train`: the paper's critical path on one thread of a durable
//! embedded kernel — 80 `flor.log` calls in a 20-epoch loop, `commit`
//! (WAL append + fsync), then the two hot dataframes read back through
//! the incremental view catalog — with a cold plan every tenth step to
//! overflow the 8-entry catalog, and checkpoints and compactions
//! submitted at fixed step indices to run behind the foreground.

use crate::spans::{counter_delta, push_hist_means, time_share, HistSum, Recorder, Span, NO_SPAN};
use crate::stats::{mean, median, Outcome, Rng};
use crate::workloads::{cold_plans, hot_plans, step_values, EPOCHS, NAMES};
use crate::Scratch;
use flordb::core::{CheckpointHandle, CompactionHandle};
use flordb::prelude::*;
use flordb::store::CheckpointStats;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Steps committed before the clock starts, so the views the measured
/// phase maintains are not trivially small: 20,000 `logs` rows.
const PRELOAD_STEPS: usize = 250;
const COLD_EVERY: usize = 10;
const CHECKPOINT_EVERY: usize = 100;
const COMPACT_EVERY: usize = 200;
const ROWS_PER_STEP: u64 = (EPOCHS * NAMES.len()) as u64;
/// A commit this many times slower than the median while a maintenance
/// job is live counts as a foreground stall.
const STALL_FACTOR: f64 = 10.0;

fn log_step(flor: &Flor, values: &mut Rng) {
    flor.for_each("epoch", 0..EPOCHS as i64, |flor, _| {
        for name in NAMES {
            flor.log(name, values.value());
        }
    });
}

/// A durable kernel with `PRELOAD_STEPS` of history, a checkpoint, and
/// both hot views built.
struct Env {
    flor: Flor,
    wal: PathBuf,
    values: Rng,
    /// `logs` rows `commit` has acknowledged.
    acked_rows: u64,
    /// The set-up checkpoint: the base the first measured checkpoint's
    /// delta is taken from.
    base: CheckpointStats,
    /// WAL bytes appended per `logs` row over the preload (no checkpoint
    /// truncates the log during it).
    wal_bytes_per_row: f64,
}

impl Env {
    fn build(seed: u64, dir: &Path) -> Env {
        let wal = dir.join("train.wal");
        let flor = Flor::open("ledger", &wal).expect("open");
        flor.set_filename("train.fl");
        let mut values = step_values(seed);
        let wal_before = flor.db.wal_bytes();
        for _ in 0..PRELOAD_STEPS {
            log_step(&flor, &mut values);
            flor.commit("step").expect("preload commit");
        }
        let acked_rows = PRELOAD_STEPS as u64 * ROWS_PER_STEP;
        let wal_bytes_per_row = (flor.db.wal_bytes() - wal_before) as f64 / acked_rows as f64;
        let base = flor.checkpoint().expect("preload checkpoint");
        for plan in hot_plans() {
            flor.run_plan(&plan).expect("build hot view");
        }
        Env {
            flor,
            wal,
            values,
            acked_rows,
            base,
            wal_bytes_per_row,
        }
    }
}

/// Everything one stretch of steps measured.
#[derive(Default)]
struct Stretch {
    steps: u64,
    wall: Duration,
    log_us: Vec<f64>,
    /// The critical path of one step: 80 logs, the commit, and the first
    /// hot dataframe read after it.
    step_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    /// `Flor::commit` minus the `store.commit.nanos` it moved (traced
    /// stretches only): the kernel's own share — gitlite snapshot,
    /// `ts2vid` and `git` rows.
    commit_self_ms: Vec<f64>,
    /// Whether a maintenance job was live when each commit ran.
    maintenance_live: Vec<bool>,
    refresh_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    failures: Vec<String>,
}

/// The step loop's state across stretches: the step counter that fixes
/// the maintenance indices, and the handles of what was submitted.
struct Driver {
    step: usize,
    checkpoints: Vec<CheckpointHandle>,
    compactions: Vec<CompactionHandle>,
    hot: [QueryPlan; 2],
    cold: Vec<QueryPlan>,
}

impl Driver {
    fn maintenance_live(&self) -> bool {
        let ckpt = self.checkpoints.last().map(|h| h.state().is_terminal());
        let comp = self.compactions.last().map(|h| h.state().is_terminal());
        ckpt == Some(false) || comp == Some(false)
    }

    /// Run steps for `run_for`. Every call into the kernel gets a span
    /// (a no-op when `rec` is off), and a traced commit's children are
    /// synthesised from the store histograms it moved.
    fn run(&mut self, env: &mut Env, run_for: Duration, rec: &mut Recorder) -> Stretch {
        let flor = env.flor.clone();
        let registry = flor.metrics_registry();
        let [commit_ns, append_ns, fsync_ns] = [
            "store.commit.nanos",
            "store.wal.append_nanos",
            "store.wal.fsync_nanos",
        ]
        .map(|name| HistSum::of(&registry, name));
        let mut s = Stretch::default();
        let began = Instant::now();
        let root = rec.open("ledger.loop", "ledger", NO_SPAN);
        while began.elapsed() < run_for {
            self.step += 1;
            let step_began = Instant::now();
            let span = rec.open("core.log×80", "flor-core", root);
            log_step(&flor, &mut env.values);
            s.log_us
                .push(step_began.elapsed().as_secs_f64() * 1e6 / ROWS_PER_STEP as f64);
            rec.close(span);

            s.maintenance_live.push(self.maintenance_live());
            let before = rec
                .on()
                .then(|| [commit_ns.ns(), append_ns.ns(), fsync_ns.ns()]);
            let span = rec.open("core.commit", "flor-core", root);
            let t = Instant::now();
            match flor.commit("step") {
                Ok(_) => env.acked_rows += ROWS_PER_STEP,
                Err(e) => s.failures.push(format!("commit: {e}")),
            }
            let took = t.elapsed();
            s.commit_ms.push(took.as_secs_f64() * 1e3);
            rec.close(span);
            if let Some([c0, a0, f0]) = before {
                let in_store = commit_ns.ns() - c0;
                let own = took.saturating_sub(Duration::from_nanos(in_store));
                s.commit_self_ms.push(own.as_secs_f64() * 1e3);
                let (store, _) = rec.child(span, "store.commit", "flor-store", 0, in_store);
                let (_, at) = rec.child(
                    store,
                    "store.wal.append",
                    "flor-store",
                    0,
                    append_ns.ns() - a0,
                );
                rec.child(
                    store,
                    "store.wal.fsync",
                    "flor-store",
                    at,
                    fsync_ns.ns() - f0,
                );
            }

            for (i, plan) in self.hot.iter().enumerate() {
                let span = rec.open("view.collect", "flor-view", root);
                let t = Instant::now();
                if let Err(e) = flor.run_plan(plan) {
                    s.failures.push(format!("hot view: {e}"));
                }
                if i == 0 {
                    // The critical path ends here: logged, durable, and
                    // visible in the dataframe the trainer watches.
                    s.refresh_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    s.step_ms.push(step_began.elapsed().as_secs_f64() * 1e3);
                }
                rec.close(span);
            }
            if self.step.is_multiple_of(COLD_EVERY) {
                let plan = &self.cold[(self.step / COLD_EVERY) % self.cold.len()];
                let span = rec.open("view.collect.cold", "flor-view", root);
                let t = Instant::now();
                if let Err(e) = flor.run_plan(plan) {
                    s.failures.push(format!("cold view: {e}"));
                }
                s.cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
                rec.close(span);
            }
            if self.step.is_multiple_of(CHECKPOINT_EVERY) {
                match flor.submit_checkpoint() {
                    Ok(h) => self.checkpoints.push(h),
                    Err(e) => s.failures.push(format!("submit_checkpoint: {e}")),
                }
            }
            if self.step.is_multiple_of(COMPACT_EVERY) {
                match flor.submit_compaction() {
                    Ok(h) => self.compactions.push(h),
                    Err(e) => s.failures.push(format!("submit_compaction: {e}")),
                }
            }
            s.steps += 1;
        }
        rec.close(root);
        s.wall = began.elapsed();
        s
    }
}

impl Stretch {
    fn secs_per_step(&self) -> f64 {
        self.wall.as_secs_f64() / self.steps.max(1) as f64
    }

    fn rows_per_s(&self) -> f64 {
        (self.steps * ROWS_PER_STEP) as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn absorb(&mut self, other: Stretch) {
        self.steps += other.steps;
        self.wall += other.wall;
        self.log_us.extend(other.log_us);
        self.step_ms.extend(other.step_ms);
        self.commit_ms.extend(other.commit_ms);
        self.commit_self_ms.extend(other.commit_self_ms);
        self.maintenance_live.extend(other.maintenance_live);
        self.refresh_ms.extend(other.refresh_ms);
        self.cold_ms.extend(other.cold_ms);
        self.failures.extend(other.failures);
    }

    /// Commits slower than `STALL_FACTOR` × the median while maintenance
    /// was live.
    fn stalls(&self) -> usize {
        let limit = median(&self.commit_ms) * STALL_FACTOR;
        self.commit_ms
            .iter()
            .zip(&self.maintenance_live)
            .filter(|(ms, live)| **live && **ms > limit)
            .count()
    }

    fn account(&self, out: &mut Outcome) {
        out.account(self.steps, &self.failures);
    }
}

/// Run `embed.train`.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &Scratch,
    spans_out: &mut Vec<Span>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut env = out.timed_setup(trace, || Env::build(seed, &scratch.fresh_dir()));

    let flor = env.flor.clone();
    let mut driver = Driver {
        step: 0,
        checkpoints: Vec::new(),
        compactions: Vec::new(),
        hot: hot_plans(),
        cold: cold_plans(),
    };
    let registry_before = flor.metrics();
    let views_before = flor.views.stats();

    let all = if !trace {
        let mut off = Recorder::new(Instant::now(), 0, false);
        let s = driver.run(&mut env, Duration::from_secs_f64(seconds), &mut off);
        out.push("op_p50_ms", median(&s.step_ms), s.step_ms.len());
        out.push("throughput_per_s", s.rows_per_s(), s.steps as usize);
        out.note_tail("commit_tail_ms", &s.commit_ms);
        s
    } else {
        // Untraced, traced, untraced. History grows through the run and
        // a step's cost with it, so the traced stretch's cost per step is
        // set against the mean of the untraced cost before and after it
        // (costs, not rates: the mean of two rates is not the rate at the
        // midpoint).
        let side = Duration::from_secs_f64(seconds * 0.15);
        let mut off = Recorder::new(Instant::now(), 0, false);
        let mut plain = driver.run(&mut env, side, &mut off);
        flor.set_tracing(true);
        let mut rec = Recorder::new(Instant::now(), 0, true);
        let traced = driver.run(&mut env, side * 2, &mut rec);
        flor.set_tracing(false);
        let after = driver.run(&mut env, side, &mut off);
        let untraced_cost = (plain.secs_per_step() + after.secs_per_step()) / 2.0;
        out.push(
            "obs.trace_overhead_ratio",
            traced.secs_per_step() / untraced_cost,
            traced.steps as usize,
        );
        plain.absorb(after);
        let (layers, coverage) = time_share(&rec.spans);
        out.push("timeshare.coverage", coverage, rec.spans.len());
        out.layers = layers;
        spans_out.extend(rec.spans);
        traced.account(&mut out);
        plain.commit_self_ms = traced.commit_self_ms;
        plain
    };
    all.account(&mut out);

    // Let maintenance finish, then take the numbers it left behind.
    let ckpts: Vec<CheckpointStats> = driver.checkpoints.iter().filter_map(|h| h.wait()).collect();
    let rewritten: usize = driver
        .compactions
        .iter()
        .filter_map(|h| h.wait())
        .map(|c| c.rows_rewritten)
        .sum();
    out.check(ckpts.len() == driver.checkpoints.len(), || {
        "a background checkpoint failed".to_string()
    });
    out.notes.push(format!(
        "{} steps, {} background checkpoints, {} compactions, {} cold reads",
        driver.step,
        ckpts.len(),
        driver.compactions.len(),
        all.cold_ms.len()
    ));
    let last = flor.checkpoint().expect("final checkpoint");
    let live_rows = flor.db.row_count("logs").expect("logs rows") as u64;
    out.check(live_rows == env.acked_rows, || {
        format!("{live_rows} logs rows, {} acknowledged", env.acked_rows)
    });
    out.push(
        "bytes_per_row",
        last.sidecar_bytes as f64 / live_rows as f64,
        1,
    );
    // The incremental views against the from-scratch oracle.
    for plan in &driver.hot {
        let view = flor.run_plan(plan).expect("final view");
        let full = flor.run_plan_full(plan).expect("final oracle");
        out.check(*view == full, || {
            format!("view of {:?} differs from collect_full", plan.names)
        });
    }

    if trace {
        let after = flor.metrics();
        let views = flor.views.stats();
        out.push("step_p50_ms", median(&all.step_ms), all.step_ms.len());
        out.push("commit_p50_ms", median(&all.commit_ms), all.commit_ms.len());
        out.push(
            "refresh_p50_ms",
            median(&all.refresh_ms),
            all.refresh_ms.len(),
        );
        out.push("core.log_us", mean(&all.log_us), all.log_us.len() * 80);
        push_hist_means(
            &mut out,
            &registry_before,
            &after,
            &[
                ("store.commit_ms", "store.commit.nanos", 1e6),
                ("store.wal_append_us", "store.wal.append_nanos", 1e3),
                ("store.wal_fsync_us", "store.wal.fsync_nanos", 1e3),
                ("store.checkpoint_ms", "store.checkpoint.nanos", 1e6),
                ("store.compaction_ms", "store.compaction.nanos", 1e6),
                ("view.refresh_us", "view.refresh_nanos", 1e3),
                ("view.rebuild_ms", "view.build_nanos", 1e6),
                ("jobs.unit_queue_wait_ms", "jobs.unit.queue_wait_nanos", 1e6),
                ("jobs.unit_run_ms", "jobs.unit.run_nanos", 1e6),
            ],
        );
        out.push(
            "core.commit_self_ms",
            median(&all.commit_self_ms),
            all.commit_self_ms.len(),
        );
        // Sidecar bytes written per row committed since the previous
        // checkpoint: O(total) today, the number a manifest must flatten.
        let mut prev = env.base.rows;
        let (mut bytes, mut delta) = (0u64, 0usize);
        for c in ckpts.iter().chain([&last]) {
            bytes += c.sidecar_bytes;
            delta += c.rows.saturating_sub(prev);
            prev = c.rows;
        }
        out.push(
            "store.checkpoint_bytes_per_delta_row",
            bytes as f64 / delta.max(1) as f64,
            ckpts.len() + 1,
        );
        out.push(
            "store.rows_rewritten",
            rewritten as f64,
            driver.compactions.len(),
        );
        out.push("store.wal_bytes_per_row", env.wal_bytes_per_row, 1);
        out.push(
            "store.fg_stall_count",
            all.stalls() as f64,
            all.commit_ms.len(),
        );
        let reads = (views.hits - views_before.hits) + (views.misses - views_before.misses);
        out.push(
            "view.hit_ratio",
            (views.hits - views_before.hits) as f64 / reads.max(1) as f64,
            reads as usize,
        );
        out.push(
            "view.batches_applied",
            (views.batches_applied - views_before.batches_applied) as f64,
            1,
        );
        let builds = counter_delta(&registry_before, &after, "view.misses")
            + counter_delta(&registry_before, &after, "view.rebuilds");
        out.push("view.rebuilds", builds as f64, 1);
    }

    // Durability: everything `commit` acknowledged is there after a
    // reopen from the files alone. A traced run reopens five times for
    // the recovery median; an untraced run once, for the check.
    let wal = env.wal.clone();
    let acked = env.acked_rows;
    drop(flor);
    drop(driver);
    drop(env);
    let mut recovery_ms: Vec<f64> = Vec::new();
    for _ in 0..if trace { 5 } else { 1 } {
        let t = Instant::now();
        let reopened = Flor::open("ledger", &wal).expect("reopen");
        recovery_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let rows = reopened.db.row_count("logs").expect("logs rows") as u64;
        out.check(rows == acked, || {
            format!("reopen found {rows} logs rows, {acked} were acknowledged")
        });
    }
    if trace {
        out.push("store.recovery_ms", median(&recovery_ms), recovery_ms.len());
    }
    out
}
