//! The worker pool: prioritized unit scheduling, durable transitions,
//! cancellation, and crash-resume.
//!
//! A [`JobRunner`] owns a priority queue of [`UnitSpec`]s and a lazily
//! spawned pool of worker threads. Submitting a job asks its
//! [`JobExecutor`] to decompose the work into units (for backfill: one
//! per prior version), persists a `Queued` transition, and enqueues the
//! units; workers then repeatedly pop the highest-priority unit, run its
//! compute phase without holding any lock, and finally — under the
//! runner's ingest lock — stage the unit's store writes *and* the job's
//! progress transition into one transaction and commit. That atomicity is
//! the crash-safety contract: a unit is either fully ingested and marked
//! done, or invisible; a process killed between units resumes from the
//! persisted `done_keys` cursor and converges to the uninterrupted
//! result.
//!
//! Results are therefore visible incrementally: every unit commit flows
//! through the store's change feed, so materialized views refresh while
//! the job is still running rather than when it ends.
//!
//! Concurrency contract: the store has one logical write transaction, so
//! a unit commit also flushes rows other threads have staged but not yet
//! committed (and a failed staging rolls them back). Readers are
//! unaffected; writers should follow the store's single-logical-writer
//! model — commit foreground transactions before background jobs run.

use crate::job::{JobId, JobRecord, JobSpec, JobState, UnitSpec};
use flor_obs::{Counter, Histogram, MetricsRegistry, Span};
use flor_store::{Database, StoreResult};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Pre-bound handles into the database's metrics registry — the runner
/// shares it, so the kernel's one snapshot covers storage and jobs
/// alike. `jobs.unit.queue_wait_nanos` vs `jobs.unit.run_nanos` is the
/// scheduling-pressure signal: wait growing while run holds steady means
/// the pool is too small (or a higher-priority job is starving this one).
struct JobsMetrics {
    registry: MetricsRegistry,
    /// `jobs.unit.queue_wait_nanos` — enqueue → worker pop.
    queue_wait: Arc<Histogram>,
    /// `jobs.unit.run_nanos` — the compute phase (`run_unit`).
    run: Arc<Histogram>,
    /// `jobs.unit.done` — units fully committed.
    done: Arc<Counter>,
    /// `jobs.unit.failed` — units whose compute or staging failed.
    failed: Arc<Counter>,
}

impl JobsMetrics {
    fn new(registry: MetricsRegistry) -> JobsMetrics {
        JobsMetrics {
            queue_wait: registry.histogram("jobs.unit.queue_wait_nanos"),
            run: registry.histogram("jobs.unit.run_nanos"),
            done: registry.counter("jobs.unit.done"),
            failed: registry.counter("jobs.unit.failed"),
            registry,
        }
    }
}

/// Per-job cancellation token and fine-grained progress counter, shared
/// between the scheduler, the [`JobHandle`], and the executor's compute
/// (for backfill the counter is wired into `flor_record::ReplayControl`,
/// so it ticks once per replayed iteration).
#[derive(Debug, Clone, Default)]
pub struct JobControl {
    cancel: Arc<AtomicBool>,
    ticks: Arc<AtomicUsize>,
}

impl JobControl {
    /// Fresh control: not cancelled, zero ticks.
    pub fn new() -> JobControl {
        JobControl::default()
    }

    /// Request cancellation.
    // audit: ordering — cold control-plane flag: SeqCst guarantees the
    // executor sees the cancel no later than any board state written
    // after it, and costs nothing at this frequency.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    // audit: ordering — polled once per work unit; SeqCst pairs with
    // the store in `cancel` for a simple total order.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    /// The shared cancellation flag, for wiring into executor internals.
    pub fn cancel_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// The shared progress counter, for wiring into executor internals.
    pub fn tick_counter(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.ticks)
    }

    /// Executor-defined fine-grained progress (backfill: iterations
    /// replayed so far).
    // audit: ordering — progress counter read for display; SeqCst keeps
    // it monotone with respect to the cancel flag it is reported beside.
    pub fn ticks(&self) -> usize {
        self.ticks.load(Ordering::SeqCst)
    }
}

/// How a job's work is decomposed and executed. Implemented by the layer
/// that owns the domain (flor-core implements it for hindsight backfill);
/// the scheduler stays domain-agnostic.
///
/// `O` is the per-unit outcome type surfaced on the [`JobHandle`].
pub trait JobExecutor<O>: Send + Sync {
    /// Decompose `spec` into schedulable units. Re-invoked on resume (the
    /// runner subtracts already-done units by key), so it must derive the
    /// unit list from durable state, not in-memory context.
    fn plan(&self, spec: &JobSpec) -> Result<Vec<UnitSpec>, String>;

    /// The unit's compute phase. Runs concurrently with other units and
    /// with foreground reads; MUST NOT stage or commit store writes.
    /// Should poll `ctl` and bail out early when cancelled.
    fn run_unit(&self, spec: &JobSpec, unit: &UnitSpec, ctl: &JobControl) -> Result<O, String>;

    /// Stage (insert, without committing) the unit's store writes. Called
    /// under the runner's ingest lock; the runner commits them atomically
    /// with the job's progress transition.
    fn stage_unit(&self, spec: &JobSpec, unit: &UnitSpec, outcome: &O) -> Result<(), String>;
}

/// A queued unit, ordered by (priority desc, job_id asc, unit key asc) —
/// strict priority first, then submission order, then oldest version
/// first within a job.
struct QueuedUnit {
    priority: i64,
    job_id: JobId,
    unit: UnitSpec,
    /// When this unit was enqueued; `None` while metrics are disabled.
    /// Deliberately excluded from the ordering below.
    enqueued_at: Option<Instant>,
}

impl PartialEq for QueuedUnit {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}
impl Eq for QueuedUnit {}
impl PartialOrd for QueuedUnit {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedUnit {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.job_id.cmp(&self.job_id))
            .then_with(|| other.unit.key.cmp(&self.unit.key))
    }
}

struct ActiveJob<O> {
    spec: JobSpec,
    /// `jobs.done.<kind>` — per-kind unit throughput, resolved once at
    /// admit so completions never touch the registry's name map.
    kind_done: Arc<Counter>,
    /// Dropped at terminal transitions (and on crash) so the executor's
    /// captured context — for backfill, a whole kernel — is not kept
    /// alive by finished jobs.
    executor: Option<Arc<dyn JobExecutor<O>>>,
    state: JobState,
    units_total: usize,
    done_keys: Vec<i64>,
    outcomes: Vec<O>,
    detail: String,
    /// Units still in the queue.
    pending: usize,
    /// Units currently executing on a worker.
    inflight: usize,
    /// Last persisted transition seq.
    seq: i64,
    control: JobControl,
}

impl<O> ActiveJob<O> {
    fn record(&self, job_id: JobId) -> JobRecord {
        JobRecord {
            job_id,
            seq: self.seq,
            kind: self.spec.kind.clone(),
            priority: self.spec.priority,
            state: self.state,
            // The payload is immutable per job, so only the first
            // transition persists it (for backfill it carries the whole
            // script source — repeating it on every progress row would
            // grow the WAL by O(units × |source|)). The recovery folds
            // ([`crate::recover_records`], [`crate::JobBoard`]) merge it
            // back into the latest-wins record.
            payload: if self.seq == 1 {
                self.spec.payload.clone()
            } else {
                String::new()
            },
            units_total: self.units_total,
            units_done: self.done_keys.len(),
            done_keys: self.done_keys.clone(),
            detail: self.detail.clone(),
        }
    }
}

struct RunnerState<O> {
    queue: BinaryHeap<QueuedUnit>,
    jobs: HashMap<JobId, ActiveJob<O>>,
    next_job: JobId,
    live_workers: usize,
    target_workers: usize,
    /// Test/bench instrumentation: simulate process death after this many
    /// further unit completions (the completion itself still commits).
    crash_in: Option<u64>,
    crashed: bool,
}

struct RunnerInner<O> {
    db: Database,
    metrics: JobsMetrics,
    state: Mutex<RunnerState<O>>,
    cv: Condvar,
    /// Serializes unit ingestion: `stage_unit` + the progress transition
    /// must land in one transaction with no other job commit interleaved.
    /// Compute (`run_unit`) runs outside this lock, so worker-count
    /// scaling comes from the expensive phase.
    ingest: Mutex<()>,
}

/// A snapshot of one job's progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobProgress {
    /// Current lifecycle state.
    pub state: JobState,
    /// Planned unit count.
    pub units_total: usize,
    /// Completed unit count.
    pub units_done: usize,
    /// Executor-defined fine-grained progress (backfill: iterations
    /// replayed), live even mid-unit.
    pub ticks: usize,
}

/// Terminal summary returned by [`JobHandle::wait`].
#[derive(Debug, Clone)]
pub struct JobReport<O> {
    /// State at the time the wait returned (terminal, unless the runner
    /// crash hook fired).
    pub state: JobState,
    /// Per-unit outcomes, in completion order.
    pub outcomes: Vec<O>,
    /// Failure detail, if any.
    pub detail: String,
}

/// A handle on one submitted job: status, progress, incremental per-unit
/// outcomes, blocking wait, and cancellation. Cloneable; all clones
/// observe the same job.
pub struct JobHandle<O> {
    job_id: JobId,
    inner: Arc<RunnerInner<O>>,
}

impl<O> Clone for JobHandle<O> {
    fn clone(&self) -> Self {
        JobHandle {
            job_id: self.job_id,
            inner: Arc::clone(&self.inner),
        }
    }
}

fn lock<'a, O>(m: &'a Mutex<RunnerState<O>>) -> MutexGuard<'a, RunnerState<O>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<O: Clone> JobHandle<O> {
    /// The job's durable id.
    pub fn job_id(&self) -> JobId {
        self.job_id
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        self.with_job(|j| j.state)
    }

    /// Current progress snapshot.
    pub fn progress(&self) -> JobProgress {
        self.with_job(|j| JobProgress {
            state: j.state,
            units_total: j.units_total,
            units_done: j.done_keys.len(),
            ticks: j.control.ticks(),
        })
    }

    /// Per-unit outcomes completed so far, in completion order — results
    /// stream onto the handle as units finish, not only at the end.
    pub fn outcomes(&self) -> Vec<O> {
        self.with_job(|j| j.outcomes.clone())
    }

    /// Failure detail, if the job failed.
    pub fn detail(&self) -> String {
        self.with_job(|j| j.detail.clone())
    }

    /// Request cancellation: queued units are dropped, running units are
    /// asked to stop via their [`JobControl`], and a `Cancelled`
    /// transition is persisted immediately (so a resume after restart
    /// will not revive the job).
    pub fn cancel(&self) {
        let record = {
            let mut st = lock(&self.inner.state);
            let Some(job) = st.jobs.get_mut(&self.job_id) else {
                return;
            };
            if job.state.is_terminal() {
                return;
            }
            job.control.cancel();
            job.state = JobState::Cancelled;
            job.executor = None;
            job.seq += 1;
            job.record(self.job_id)
        };
        let _ = persist(&self.inner, &[record]);
        self.inner.cv.notify_all();
    }

    /// Block until the job reaches a terminal state (or the runner's
    /// crash hook fires), returning the final report.
    pub fn wait(&self) -> JobReport<O> {
        let mut st = lock(&self.inner.state);
        loop {
            // audit: allow(panic) — jobs are never evicted from the map
            // (terminal jobs persist for reporting), and this handle was
            // created from a successful submit of this id.
            let job = st.jobs.get(&self.job_id).expect("handle to live job");
            if job.state.is_terminal() || st.crashed {
                return JobReport {
                    state: job.state,
                    outcomes: job.outcomes.clone(),
                    detail: job.detail.clone(),
                };
            }
            st = self
                .inner
                .cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn with_job<R>(&self, f: impl FnOnce(&ActiveJob<O>) -> R) -> R {
        let st = lock(&self.inner.state);
        // audit: allow(panic) — same invariant as `wait`: submitted jobs
        // stay in the map for their whole lifetime.
        f(st.jobs.get(&self.job_id).expect("handle to live job"))
    }
}

/// The durable, multi-worker background scheduler. Cloning shares the
/// same runner (queue, workers, and job table writer).
pub struct JobRunner<O> {
    inner: Arc<RunnerInner<O>>,
}

impl<O> Clone for JobRunner<O> {
    fn clone(&self) -> Self {
        JobRunner {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<O: Clone + Send + 'static> JobRunner<O> {
    /// A runner persisting to `db`'s `jobs` table, with up to `workers`
    /// concurrent unit executions. Threads are spawned lazily on submit
    /// and exit when the queue drains.
    ///
    /// Job ids start past everything `jobs` already holds — read once,
    /// here, so admission allocates an id without touching the store (a
    /// database without the table admits nothing: `submit` fails on its
    /// first write).
    pub fn new(db: Database, workers: usize) -> JobRunner<O> {
        let metrics = JobsMetrics::new(db.metrics_registry());
        let persisted_max = db
            .scan("jobs")
            .ok()
            .and_then(|jobs| {
                let ids = jobs.column("job_id")?.values.iter();
                ids.filter_map(flor_df::Value::as_i64).max()
            })
            .unwrap_or(0);
        JobRunner {
            inner: Arc::new(RunnerInner {
                db,
                metrics,
                state: Mutex::new(RunnerState {
                    queue: BinaryHeap::new(),
                    jobs: HashMap::new(),
                    next_job: persisted_max + 1,
                    live_workers: 0,
                    target_workers: workers.max(1),
                    crash_in: None,
                    crashed: false,
                }),
                cv: Condvar::new(),
                ingest: Mutex::new(()),
            }),
        }
    }

    /// Change the worker-pool size (applies to subsequent spawns).
    pub fn set_workers(&self, n: usize) {
        lock(&self.inner.state).target_workers = n.max(1);
    }

    /// Submit a new job: plan it, persist a `Queued` transition, enqueue
    /// its units, and return a handle. A planning failure persists a
    /// `Failed` job (the handle reports it) rather than erroring here.
    pub fn submit(
        &self,
        spec: JobSpec,
        executor: Arc<dyn JobExecutor<O>>,
    ) -> StoreResult<JobHandle<O>> {
        self.admit(None, spec, executor)
    }

    /// Re-admit a recovered job: re-plan, subtract the units already in
    /// `record.done_keys`, and continue from there. No-op completion (a
    /// `Done` transition) if nothing remains.
    pub fn resume(
        &self,
        record: &JobRecord,
        executor: Arc<dyn JobExecutor<O>>,
    ) -> StoreResult<JobHandle<O>> {
        self.admit(Some(record), record.spec(), executor)
    }

    fn admit(
        &self,
        resumed: Option<&JobRecord>,
        spec: JobSpec,
        executor: Arc<dyn JobExecutor<O>>,
    ) -> StoreResult<JobHandle<O>> {
        let planned = executor.plan(&spec);
        let kind_done = self
            .inner
            .metrics
            .registry
            .counter(&format!("jobs.done.{}", spec.kind));
        // One clock read stamps the whole batch of units (None while
        // metrics are disabled, so the hot pop path skips the math too).
        let enqueued_at = self.inner.metrics.registry.enabled().then(Instant::now);
        let (job_id, record) = {
            let mut st = lock(&self.inner.state);
            let (job_id, done_keys, seq) = match resumed {
                Some(r) => (r.job_id, r.done_keys.clone(), r.seq),
                None => {
                    let id = st.next_job;
                    st.next_job += 1;
                    (id, Vec::new(), 0)
                }
            };
            let mut job = ActiveJob {
                spec,
                kind_done,
                executor: Some(executor),
                state: JobState::Queued,
                units_total: 0,
                done_keys,
                outcomes: Vec::new(),
                detail: String::new(),
                pending: 0,
                inflight: 0,
                seq: seq + 1,
                control: JobControl::new(),
            };
            match planned {
                Err(e) => {
                    job.state = JobState::Failed;
                    job.detail = e;
                    job.executor = None;
                }
                Ok(units) => {
                    job.units_total = units.len();
                    let remaining: Vec<UnitSpec> = units
                        .into_iter()
                        .filter(|u| !job.done_keys.contains(&u.key))
                        .collect();
                    if remaining.is_empty() {
                        job.state = JobState::Done;
                        job.executor = None;
                    } else {
                        if resumed.is_some() {
                            // Resumed mid-run: skip straight to Running.
                            job.state = JobState::Running;
                        }
                        job.pending = remaining.len();
                        for unit in remaining {
                            st.queue.push(QueuedUnit {
                                priority: job.spec.priority,
                                job_id,
                                unit,
                                enqueued_at,
                            });
                        }
                    }
                }
            }
            let record = job.record(job_id);
            st.jobs.insert(job_id, job);
            (job_id, record)
        };
        persist(&self.inner, &[record])?;
        self.ensure_workers();
        self.inner.cv.notify_all();
        Ok(JobHandle {
            job_id,
            inner: Arc::clone(&self.inner),
        })
    }

    /// The handle for a live (this-process) job, if any.
    pub fn handle(&self, job_id: JobId) -> Option<JobHandle<O>> {
        let st = lock(&self.inner.state);
        st.jobs.contains_key(&job_id).then(|| JobHandle {
            job_id,
            inner: Arc::clone(&self.inner),
        })
    }

    /// Test/bench instrumentation: simulate a process crash after `n`
    /// more unit completions. The `n`-th completion still commits its
    /// transaction (a crash *between* versions); then every worker halts
    /// without writing further transitions, leaving non-terminal jobs for
    /// [`JobRunner::resume`] after reopen.
    pub fn crash_after_units(&self, n: u64) {
        let mut st = lock(&self.inner.state);
        if n == 0 {
            st.crashed = true;
            for job in st.jobs.values_mut() {
                job.executor = None;
            }
        } else {
            st.crash_in = Some(n);
        }
        drop(st);
        self.inner.cv.notify_all();
    }

    /// Whether the crash hook has fired.
    pub fn is_crashed(&self) -> bool {
        lock(&self.inner.state).crashed
    }

    /// Drop the retained per-unit outcomes and payload of every terminal
    /// job, returning how many jobs were pruned. Handles stay valid —
    /// state, progress and detail survive; only `outcomes()` turns empty.
    /// Long-lived embedders call this between job waves so finished jobs
    /// don't accumulate their recovered data in memory forever.
    pub fn prune_terminal(&self) -> usize {
        let mut st = lock(&self.inner.state);
        let mut pruned = 0;
        for job in st.jobs.values_mut() {
            if job.state.is_terminal() && !(job.outcomes.is_empty() && job.spec.payload.is_empty())
            {
                job.outcomes = Vec::new();
                job.spec.payload = String::new();
                pruned += 1;
            }
        }
        pruned
    }

    /// Block until every worker has exited (the queue drained or the
    /// crash hook fired). Jobs may still be non-terminal after a crash.
    pub fn wait_idle(&self) {
        let mut st = lock(&self.inner.state);
        while st.live_workers > 0 {
            st = self
                .inner
                .cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn ensure_workers(&self) {
        let spawn_n = {
            let mut st = lock(&self.inner.state);
            if st.queue.is_empty() || st.crashed {
                0
            } else {
                let want = st.target_workers.min(st.queue.len());
                let n = want.saturating_sub(st.live_workers);
                st.live_workers += n;
                n
            }
        };
        for _ in 0..spawn_n {
            let inner = Arc::clone(&self.inner);
            std::thread::spawn(move || worker_loop(inner));
        }
    }
}

/// Append transition rows and commit them, serialized by the ingest lock.
fn persist<O>(inner: &RunnerInner<O>, records: &[JobRecord]) -> StoreResult<()> {
    let _g = inner.ingest.lock().unwrap_or_else(PoisonError::into_inner);
    for r in records {
        inner.db.insert("jobs", r.row())?;
    }
    inner.db.commit()?;
    Ok(())
}

enum Step<O> {
    Exit,
    Task {
        job_id: JobId,
        spec: JobSpec,
        unit: UnitSpec,
        executor: Arc<dyn JobExecutor<O>>,
        control: JobControl,
    },
}

fn worker_loop<O: Clone + Send + 'static>(inner: Arc<RunnerInner<O>>) {
    loop {
        match next_step(&inner) {
            Step::Exit => {
                inner.cv.notify_all();
                return;
            }
            Step::Task {
                job_id,
                spec,
                unit,
                executor,
                control,
            } => {
                // Compute phase: no locks held; this is where the
                // worker-count scaling comes from.
                let result = {
                    let m = &inner.metrics;
                    let _run = Span::enter(&m.registry, &m.run);
                    executor.run_unit(&spec, &unit, &control)
                };
                complete_unit(&inner, job_id, &spec, &unit, executor, result);
                inner.cv.notify_all();
            }
        }
    }
}

/// Pop the next runnable unit, skipping units of terminal jobs; exit when
/// the queue is empty or the crash hook fired.
fn next_step<O>(inner: &RunnerInner<O>) -> Step<O> {
    let mut st = lock(&inner.state);
    loop {
        if st.crashed {
            st.live_workers -= 1;
            return Step::Exit;
        }
        let Some(queued) = st.queue.pop() else {
            st.live_workers -= 1;
            return Step::Exit;
        };
        // audit: allow(panic) — queue entries are created only for jobs
        // in the map, and jobs are never removed from it.
        let job = st.jobs.get_mut(&queued.job_id).expect("queued job exists");
        job.pending -= 1;
        if job.state.is_terminal() || job.control.is_cancelled() {
            continue; // dropped unit of a cancelled/failed job
        }
        if job.state == JobState::Queued {
            // Durable Running state piggybacks on the first progress
            // commit; flipping it here is enough for observers, and a
            // crash before any completion correctly resumes from Queued.
            job.state = JobState::Running;
        }
        job.inflight += 1;
        // Queue wait ends the moment the unit is handed to a worker.
        if let Some(t0) = queued.enqueued_at {
            inner.metrics.queue_wait.record_duration(t0.elapsed());
        }
        return Step::Task {
            job_id: queued.job_id,
            spec: job.spec.clone(),
            unit: queued.unit,
            // audit: allow(panic) — the terminal/cancelled check above
            // skipped this unit; non-terminal jobs keep their executor.
            executor: Arc::clone(job.executor.as_ref().expect("non-terminal job")),
            control: job.control.clone(),
        };
    }
}

/// Apply one finished unit: stage its writes + progress transition in one
/// transaction, then finalize the job if it was the last unit.
fn complete_unit<O: Clone>(
    inner: &RunnerInner<O>,
    job_id: JobId,
    spec: &JobSpec,
    unit: &UnitSpec,
    executor: Arc<dyn JobExecutor<O>>,
    result: Result<O, String>,
) {
    match result {
        Ok(outcome) => {
            let ig = inner.ingest.lock().unwrap_or_else(PoisonError::into_inner);
            // Decide under the state lock, write under the ingest lock.
            let (rows, finalizes, kind_done) = {
                let mut st = lock(&inner.state);
                let crashed = st.crashed;
                // audit: allow(panic) — this worker holds an inflight unit
                // of job_id, and jobs are never removed from the map.
                let job = st.jobs.get_mut(&job_id).expect("inflight job exists");
                job.inflight -= 1;
                if job.state.is_terminal() || job.control.is_cancelled() || crashed {
                    // Cancelled/failed/crashed while we were computing:
                    // discard the outcome; nothing may be staged.
                    return;
                }
                let kind_done = Arc::clone(&job.kind_done);
                job.done_keys.push(unit.key);
                job.outcomes.push(outcome.clone());
                job.seq += 1;
                let mut rows = vec![job.record(job_id)];
                let crash_now = match st.crash_in.as_mut() {
                    Some(n) => {
                        *n -= 1;
                        *n == 0
                    }
                    None => false,
                };
                let mut finalizes = false;
                if crash_now {
                    // This completion still commits (a crash lands
                    // *between* versions); no further transitions after.
                    st.crashed = true;
                    for j in st.jobs.values_mut() {
                        j.executor = None;
                    }
                } else {
                    let job = st.jobs.get_mut(&job_id).expect("still live"); // audit: allow(panic) — same map invariant
                    if job.pending == 0 && job.inflight == 0 {
                        // Persist the Done transition with this commit,
                        // but flip the in-memory state only after the
                        // commit lands — a waiter woken at `Done` must be
                        // able to read the job's last rows.
                        finalizes = true;
                        job.seq += 1;
                        let mut done = job.record(job_id);
                        done.state = JobState::Done;
                        rows.push(done);
                    }
                }
                (rows, finalizes, kind_done)
            };
            // Stage the unit's data-plane writes and its control-plane
            // transition(s), then commit once: atomic unit completion.
            let committed = executor.stage_unit(spec, unit, &outcome).is_ok()
                && rows
                    .iter()
                    .all(|r| inner.db.insert("jobs", r.row()).is_ok())
                && inner.db.commit().is_ok();
            if !committed {
                // Discard whatever half-staged; the job fails fast. The
                // unit's in-memory completion must unwind too, or the
                // Failed record and report would claim rolled-back work.
                inner.db.rollback();
                let mut st = lock(&inner.state);
                if let Some(job) = st.jobs.get_mut(&job_id) {
                    if let Some(pos) = job.done_keys.iter().position(|k| *k == unit.key) {
                        job.done_keys.remove(pos);
                        job.outcomes.remove(pos);
                    }
                }
            }
            drop(ig);
            let m = &inner.metrics;
            if !committed {
                if m.registry.enabled() {
                    m.failed.inc();
                    m.registry.event_at(
                        flor_obs::Level::Error,
                        "job.unit_failed",
                        format!("job={job_id} unit={} staging/commit failed", unit.key),
                    );
                }
                fail_job(inner, job_id, "unit staging/commit failed");
            } else if m.registry.enabled() {
                m.done.inc();
                kind_done.inc();
            }
            if committed && finalizes {
                let mut st = lock(&inner.state);
                if let Some(job) = st.jobs.get_mut(&job_id) {
                    if !job.state.is_terminal() {
                        job.state = JobState::Done;
                        job.executor = None;
                    }
                }
            }
        }
        Err(e) => {
            let mut st = lock(&inner.state);
            // audit: allow(panic) — error path of the same inflight unit;
            // the map never drops jobs.
            let job = st.jobs.get_mut(&job_id).expect("inflight job exists");
            job.inflight -= 1;
            let cancelled = job.control.is_cancelled() || job.state == JobState::Cancelled;
            drop(st);
            if !cancelled {
                let m = &inner.metrics;
                if m.registry.enabled() {
                    m.failed.inc();
                    m.registry.event_at(
                        flor_obs::Level::Error,
                        "job.unit_failed",
                        format!("job={job_id} unit={}: {e}", unit.key),
                    );
                }
                fail_job(inner, job_id, &e);
            }
        }
    }
}

/// Fail fast: persist a `Failed` transition and stop the job's remaining
/// units (queued ones are dropped on pop; running ones see the cancel
/// flag).
fn fail_job<O>(inner: &RunnerInner<O>, job_id: JobId, detail: &str) {
    let record = {
        let mut st = lock(&inner.state);
        let Some(job) = st.jobs.get_mut(&job_id) else {
            return;
        };
        if job.state.is_terminal() {
            return;
        }
        job.state = JobState::Failed;
        job.detail = detail.to_string();
        job.control.cancel();
        job.executor = None;
        job.seq += 1;
        job.record(job_id)
    };
    let _ = persist(inner, &[record]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::recover_records;
    use flor_store::flor_schema;
    use std::time::Duration;

    /// Toy executor: squares the unit key; a shared gate lets tests hold
    /// workers mid-unit, and a log records completion order.
    struct Toy {
        gate: Arc<Mutex<()>>,
        log: Arc<Mutex<Vec<(JobId, i64)>>>,
        units: i64,
        fail_on: Option<i64>,
    }

    impl Toy {
        fn new(units: i64) -> Toy {
            Toy {
                gate: Arc::new(Mutex::new(())),
                log: Arc::new(Mutex::new(Vec::new())),
                units,
                fail_on: None,
            }
        }
    }

    impl JobExecutor<i64> for Toy {
        fn plan(&self, spec: &JobSpec) -> Result<Vec<UnitSpec>, String> {
            if spec.payload == "bad" {
                return Err("unplannable".into());
            }
            Ok((1..=self.units)
                .map(|k| UnitSpec {
                    key: k,
                    label: format!("u{k}"),
                })
                .collect())
        }

        fn run_unit(&self, spec: &JobSpec, u: &UnitSpec, ctl: &JobControl) -> Result<i64, String> {
            drop(self.gate.lock().unwrap());
            if ctl.is_cancelled() {
                return Err("cancelled".into());
            }
            if self.fail_on == Some(u.key) {
                return Err(format!("unit {} exploded", u.key));
            }
            self.log.lock().unwrap().push((spec.priority, u.key));
            Ok(u.key * u.key)
        }

        fn stage_unit(&self, _: &JobSpec, _: &UnitSpec, _: &i64) -> Result<(), String> {
            Ok(())
        }
    }

    fn spec(priority: i64) -> JobSpec {
        JobSpec {
            kind: "toy".into(),
            priority,
            payload: String::new(),
        }
    }

    #[test]
    fn submit_runs_all_units_and_persists_done() {
        let db = Database::in_memory(flor_schema());
        let runner: JobRunner<i64> = JobRunner::new(db.clone(), 2);
        let h = runner.submit(spec(0), Arc::new(Toy::new(4))).unwrap();
        let report = h.wait();
        assert_eq!(report.state, JobState::Done);
        let mut got = report.outcomes;
        got.sort_unstable();
        assert_eq!(got, vec![1, 4, 9, 16]);
        let recs = recover_records(&db).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].state, JobState::Done);
        assert_eq!(recs[0].units_done, 4);
        runner.wait_idle();
    }

    #[test]
    fn higher_priority_job_preempts_queued_units() {
        let db = Database::in_memory(flor_schema());
        let runner: JobRunner<i64> = JobRunner::new(db.clone(), 1);
        let toy_low = Toy::new(2);
        let gate = Arc::clone(&toy_low.gate);
        let log = Arc::clone(&toy_low.log);
        let toy_high = Toy {
            gate: Arc::clone(&gate),
            log: Arc::clone(&log),
            units: 1,
            fail_on: None,
        };
        // Hold the single worker inside low's first unit while high queues.
        let held = gate.lock().unwrap();
        let low = runner.submit(spec(0), Arc::new(toy_low)).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let high = runner.submit(spec(10), Arc::new(toy_high)).unwrap();
        drop(held);
        low.wait();
        high.wait();
        let order: Vec<(i64, i64)> = log.lock().unwrap().clone();
        // Low's unit 1 was already running; high's unit jumps the rest.
        assert_eq!(order, vec![(0, 1), (10, 1), (0, 2)]);
    }

    #[test]
    fn cancel_drops_queued_units_and_is_durable() {
        let db = Database::in_memory(flor_schema());
        let runner: JobRunner<i64> = JobRunner::new(db.clone(), 1);
        let toy = Toy::new(50);
        let gate = Arc::clone(&toy.gate);
        let held = gate.lock().unwrap();
        let h = runner.submit(spec(0), Arc::new(toy)).unwrap();
        h.cancel();
        drop(held);
        let report = h.wait();
        assert_eq!(report.state, JobState::Cancelled);
        assert!(report.outcomes.len() < 50, "queued units were dropped");
        runner.wait_idle();
        // The cancellation is persisted: a recovery sees a terminal job.
        let recs = recover_records(&db).unwrap();
        assert_eq!(recs[0].state, JobState::Cancelled);
    }

    #[test]
    fn plan_failure_is_a_failed_job() {
        let db = Database::in_memory(flor_schema());
        let runner: JobRunner<i64> = JobRunner::new(db.clone(), 1);
        let h = runner
            .submit(
                JobSpec {
                    kind: "toy".into(),
                    priority: 0,
                    payload: "bad".into(),
                },
                Arc::new(Toy::new(1)),
            )
            .unwrap();
        let report = h.wait();
        assert_eq!(report.state, JobState::Failed);
        assert_eq!(report.detail, "unplannable");
        assert_eq!(recover_records(&db).unwrap()[0].state, JobState::Failed);
    }

    #[test]
    fn unit_failure_fails_the_job_fast() {
        let db = Database::in_memory(flor_schema());
        let runner: JobRunner<i64> = JobRunner::new(db.clone(), 1);
        let toy = Toy {
            fail_on: Some(2),
            ..Toy::new(5)
        };
        let h = runner.submit(spec(0), Arc::new(toy)).unwrap();
        let report = h.wait();
        assert_eq!(report.state, JobState::Failed);
        assert!(report.detail.contains("unit 2 exploded"));
        assert_eq!(report.outcomes, vec![1], "only unit 1 completed");
    }

    #[test]
    fn crash_between_units_resumes_from_done_keys() {
        let db = Database::in_memory(flor_schema());
        let runner: JobRunner<i64> = JobRunner::new(db.clone(), 1);
        let toy = Toy::new(3);
        let log = Arc::clone(&toy.log);
        runner.crash_after_units(1);
        let h = runner.submit(spec(0), Arc::new(toy)).unwrap();
        runner.wait_idle();
        assert!(runner.is_crashed());
        assert_eq!(h.progress().units_done, 1);
        // "Reopen": a fresh runner over the same (shared) database.
        let recovered = recover_records(&db).unwrap();
        assert_eq!(recovered.len(), 1);
        assert!(!recovered[0].state.is_terminal());
        assert_eq!(recovered[0].done_keys, vec![1]);
        let runner2: JobRunner<i64> = JobRunner::new(db.clone(), 1);
        let toy2 = Toy {
            gate: Arc::new(Mutex::new(())),
            log: Arc::clone(&log),
            units: 3,
            fail_on: None,
        };
        let h2 = runner2.resume(&recovered[0], Arc::new(toy2)).unwrap();
        let report = h2.wait();
        assert_eq!(report.state, JobState::Done);
        // Unit 1 is not re-run; the resumed job finishes 2 and 3.
        let keys: Vec<i64> = log.lock().unwrap().iter().map(|(_, k)| *k).collect();
        assert_eq!(keys, vec![1, 2, 3], "no unit ran twice");
        let final_rec = recover_records(&db).unwrap();
        assert_eq!(final_rec[0].state, JobState::Done);
        assert_eq!(final_rec[0].units_done, 3);
    }

    #[test]
    fn prune_terminal_drops_outcomes_but_keeps_status() {
        let db = Database::in_memory(flor_schema());
        let runner: JobRunner<i64> = JobRunner::new(db.clone(), 1);
        let h = runner.submit(spec(0), Arc::new(Toy::new(3))).unwrap();
        h.wait();
        runner.wait_idle();
        assert_eq!(h.outcomes().len(), 3);
        assert_eq!(runner.prune_terminal(), 1);
        assert!(h.outcomes().is_empty(), "outcomes released");
        assert_eq!(h.state(), JobState::Done);
        assert_eq!(h.progress().units_done, 3, "status survives pruning");
        assert_eq!(runner.prune_terminal(), 0, "idempotent");
    }

    #[test]
    fn resume_with_nothing_left_finalizes() {
        let db = Database::in_memory(flor_schema());
        let runner: JobRunner<i64> = JobRunner::new(db.clone(), 1);
        let rec = JobRecord {
            job_id: 9,
            seq: 4,
            kind: "toy".into(),
            priority: 0,
            state: JobState::Running,
            payload: String::new(),
            units_total: 2,
            units_done: 2,
            done_keys: vec![1, 2],
            detail: String::new(),
        };
        let h = runner.resume(&rec, Arc::new(Toy::new(2))).unwrap();
        assert_eq!(h.wait().state, JobState::Done);
    }
}
