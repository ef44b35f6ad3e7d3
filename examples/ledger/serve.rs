//! `serve.scan`, `serve.point` and `serve.live`: closed-loop `Client`
//! sessions over loopback against an in-process `Server` with the
//! `RequestLog` middleware, all serving history H from a durable kernel.
//! The three differ only in the plan cycle, the client count and whether
//! a writer commits beside the reader.

use crate::spans::{counter_delta, push_hist_means, time_share, HistSum, Recorder, Span, NO_SPAN};
use crate::stats::{mean, median, Outcome};
use crate::workloads::{
    history_values, live_cycle, point_cycle, scan_cycle, step_values, PlanKind, PlanOp, EPOCHS,
    NAMES, RUNS, TOP_K,
};
use crate::Scratch;
use flordb::df::{DataFrame, Value};
use flordb::obs::TraceId;
use flordb::prelude::*;
use flordb::serve::{RequestLog, Response, Server, ServerHandle};
use flordb::store::{Query, Snapshot};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which of the three serve workloads runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Scan,
    Point,
    Live,
}

/// The open-loop writer's period and rows per commit on `serve.live`.
const WRITER_PERIOD: Duration = Duration::from_millis(100);
const WRITER_EPOCHS: i64 = 2;
/// Every this-many-th `serve.live` query is byte-compared with the
/// oracle at its epoch (the writer is held off while it is).
const LIVE_ORACLE_EVERY: u64 = 50;
/// Traced queries between pulls of the server's trace ring (capacity
/// 128, shared by both sessions, and `Pin`s land in it too).
const PULL_EVERY: usize = 24;
/// Bytes `write_frame` puts in front of every payload: length + checksum.
const FRAME_HEAD_BYTES: usize = 12;

/// History H behind a running server.
struct Env {
    flor: Flor,
    /// Stops the server when the environment is dropped.
    _handle: ServerHandle,
    addr: SocketAddr,
}

impl Env {
    /// Build H (200 fsynced commits), `compact()` + `checkpoint()` so
    /// `logs` is tstamp-clustered, then bind and spawn the server.
    fn build(seed: u64, scratch: &Scratch) -> Env {
        let flor = Flor::open("ledger", &scratch.fresh_dir().join("h.wal")).expect("open H");
        flor.set_filename("train.fl");
        let mut values = history_values(seed);
        for _ in 0..RUNS {
            flor.for_each("epoch", 0..EPOCHS as i64, |flor, _| {
                for name in NAMES {
                    flor.log(name, values.value());
                }
            });
            flor.commit("run").expect("commit H");
        }
        flor.compact().expect("compact H");
        flor.checkpoint().expect("checkpoint H");
        let handle = Server::bind(flor.clone(), "127.0.0.1:0", ServerConfig::default())
            .expect("bind")
            .with_middleware(Arc::new(RequestLog::new(flor.metrics_registry())))
            .spawn()
            .expect("spawn server");
        let addr = handle.addr();
        Env {
            flor,
            _handle: handle,
            addr,
        }
    }
}

/// A plan's from-scratch answer at the current epoch, as the frame the
/// server must produce byte for byte.
fn oracle_frame(flor: &Flor, plan: &QueryPlan) -> (u64, DataFrame) {
    let epoch = flor.db.epoch();
    (epoch, flor.run_plan_full(plan).expect("oracle plan"))
}

/// The payload the server sends for `df` at `epoch`.
fn encoded(epoch: u64, df: &DataFrame) -> impl PartialEq + std::ops::Deref<Target = [u8]> {
    let df = df.clone();
    Response::Frame { epoch, df }.encode()
}

fn frame_bytes(epoch: u64, df: &DataFrame) -> usize {
    encoded(epoch, df).len() + FRAME_HEAD_BYTES
}

fn same_frame(epoch: u64, got: &DataFrame, want_epoch: u64, want: &DataFrame) -> bool {
    epoch == want_epoch && encoded(epoch, got) == encoded(epoch, want)
}

/// What one closed-loop session measured.
struct ClientRun {
    /// Send-to-decoded-frame latency of every unsampled query, with the
    /// kind of plan it ran.
    lat_ms: Vec<(PlanKind, f64)>,
    queries: u64,
    failures: Vec<String>,
    /// First answer per op index, for the byte-level oracle.
    firsts: BTreeMap<usize, (u64, DataFrame)>,
    /// Sampled live answers already compared against the oracle.
    oracle_checked: u64,
    recorder: Recorder,
    /// Wall time of the session's loop with trace pulls cut out.
    wall: Duration,
}

/// Shared between the `serve.live` reader and writer.
struct LiveShared {
    /// Held by the writer around log+commit and by the reader around a
    /// sampled oracle comparison, so the epoch cannot move under it.
    pause: Mutex<()>,
    stop: AtomicBool,
}

struct ClientArgs<'a> {
    env: &'a Env,
    cycle: &'a [PlanOp],
    /// Index of the first op, so two sessions do not run in lockstep.
    start: usize,
    run_for: Duration,
    traced: bool,
    live: Option<&'a LiveShared>,
    keep_firsts: bool,
    thread: u32,
    t0: Instant,
}

fn client_loop(a: ClientArgs<'_>) -> ClientRun {
    let mut client = Client::connect(a.env.addr, None).expect("connect");
    let mut run = ClientRun {
        lat_ms: Vec::new(),
        queries: 0,
        failures: Vec::new(),
        firsts: BTreeMap::new(),
        oracle_checked: 0,
        recorder: Recorder::new(a.t0, a.thread, a.traced),
        wall: Duration::ZERO,
    };
    let rec = &mut run.recorder;
    let mut pending: Vec<(u32, TraceId)> = Vec::new();
    let began = Instant::now();
    let mut root = rec.open("ledger.loop", "ledger", NO_SPAN);
    let mut pulled = Duration::ZERO;
    let mut i = a.start;
    while began.elapsed() < a.run_for {
        let idx = i % a.cycle.len();
        let op = &a.cycle[idx];
        i += 1;
        let sampled = a
            .live
            .filter(|_| run.queries.is_multiple_of(LIVE_ORACLE_EVERY));
        let _hold = sampled.map(|l| l.pause.lock().expect("pause lock"));
        if a.live.is_some() {
            let pin = rec.open("client.pin", "flor-serve", root);
            if let Err(e) = client.pin() {
                run.failures.push(format!("pin: {e}"));
            }
            rec.close(pin);
        }
        let sent = Instant::now();
        let answer = if a.traced {
            let span = rec.open("client.query", "flor-serve", root);
            let res = client.query_traced(&op.plan);
            rec.close(span);
            res.map(|(trace, epoch, df)| {
                rec.set_trace(span, trace.0);
                pending.push((span, trace));
                (epoch, df)
            })
        } else {
            client.query(&op.plan)
        };
        let lat = sent.elapsed();
        run.queries += 1;
        match answer {
            Err(e) => run.failures.push(format!("{:?} query: {e}", op.kind)),
            Ok((epoch, df)) => {
                let rows_ok = match (a.live.is_some(), op.kind) {
                    (false, _) => df.n_rows() == op.rows_on_h,
                    (true, PlanKind::Pivot4 | PlanKind::Pivot1) => df.n_rows() >= op.rows_on_h,
                    (true, _) => df.n_rows() == op.rows_on_h,
                };
                if !rows_ok {
                    run.failures.push(format!(
                        "{:?}: {} rows, expected {}",
                        op.kind,
                        df.n_rows(),
                        op.rows_on_h
                    ));
                }
                if sampled.is_some() {
                    let (want_epoch, want) = oracle_frame(&a.env.flor, &op.plan);
                    run.oracle_checked += 1;
                    if !same_frame(epoch, &df, want_epoch, &want) {
                        run.failures
                            .push(format!("{:?}: frame differs from oracle", op.kind));
                    }
                } else {
                    // A sampled query holds the writer off, so its latency
                    // is not the workload's.
                    run.lat_ms.push((op.kind, lat.as_secs_f64() * 1e3));
                    if a.keep_firsts {
                        run.firsts.entry(idx).or_insert((epoch, df));
                    }
                }
            }
        }
        if pending.len() >= PULL_EVERY {
            pulled += pull_traces(&mut client, rec, &mut root, &mut pending, &mut run.failures);
        }
    }
    if !pending.is_empty() {
        pulled += pull_traces(&mut client, rec, &mut root, &mut pending, &mut run.failures);
    }
    rec.close(root);
    run.wall = began.elapsed().saturating_sub(pulled);
    if let Err(e) = client.close() {
        run.failures.push(format!("close: {e}"));
    }
    run
}

/// Fetch the server's span trees for the pending queries through the
/// `Traces` verb and graft them under their client spans. The loop's
/// root span is closed around the pull and a new one opened after it, so
/// the pull is neither traced wall time nor traced throughput.
fn pull_traces(
    client: &mut Client,
    rec: &mut Recorder,
    root: &mut u32,
    pending: &mut Vec<(u32, TraceId)>,
    failures: &mut Vec<String>,
) -> Duration {
    let began = Instant::now();
    rec.close(*root);
    match client.traces(128) {
        Err(e) => failures.push(format!("traces: {e}")),
        Ok(traces) => {
            for (span, id) in pending.drain(..) {
                match traces.iter().find(|t| t.id == id) {
                    Some(t) => rec.graft(span, t),
                    None => failures.push(format!("trace {id} fell off the server's ring")),
                }
            }
        }
    }
    *root = rec.open("ledger.loop", "ledger", NO_SPAN);
    began.elapsed()
}

/// What the open-loop writer measured.
struct WriterRun {
    /// `Flor::commit` alone.
    commit_ms: Vec<f64>,
    /// `Flor::commit` minus the `store.commit.nanos` it moved (traced
    /// stretches only): the kernel's own share — gitlite snapshot,
    /// `ts2vid` and `git` rows.
    commit_self_ms: Vec<f64>,
    /// From the tick's due time to the commit's acknowledgement.
    due_to_ack_ms: Vec<f64>,
    /// How long after its due time each tick started.
    late_ms: Vec<f64>,
    /// Ticks that started more than one period late.
    behind: u64,
    /// Ticks dropped because the writer was a whole period behind.
    skipped: u64,
    failures: Vec<String>,
    recorder: Recorder,
}

/// Commit `WRITER_EPOCHS × 4` log rows every `WRITER_PERIOD`, on a fixed
/// schedule: a tick's clock starts when it was due, not when the writer
/// got round to it.
fn writer_loop(
    env: &Env,
    shared: &LiveShared,
    seed: u64,
    traced: bool,
    t0: Instant,
    thread: u32,
) -> WriterRun {
    let mut run = WriterRun {
        commit_ms: Vec::new(),
        commit_self_ms: Vec::new(),
        due_to_ack_ms: Vec::new(),
        late_ms: Vec::new(),
        behind: 0,
        skipped: 0,
        failures: Vec::new(),
        recorder: Recorder::new(t0, thread, traced),
    };
    let rec = &mut run.recorder;
    let flor = &env.flor;
    let store_commit_ns = HistSum::of(&flor.metrics_registry(), "store.commit.nanos");
    let mut values = step_values(seed);
    let began = Instant::now();
    let mut tick: u32 = 0;
    loop {
        let due = began + WRITER_PERIOD * tick;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let late = due.elapsed();
        run.late_ms.push(late.as_secs_f64() * 1e3);
        if late > WRITER_PERIOD {
            run.behind += 1;
        }
        {
            let _hold = shared.pause.lock().expect("pause lock");
            let root = rec.open("writer.tick", "ledger", NO_SPAN);
            let log = rec.open("core.log", "flor-core", root);
            flor.for_each("epoch", 0..WRITER_EPOCHS, |flor, _| {
                for name in NAMES {
                    flor.log(name, values.value());
                }
            });
            rec.close(log);
            let before = store_commit_ns.ns();
            let commit = rec.open("core.commit", "flor-core", root);
            let started = Instant::now();
            if let Err(e) = flor.commit("live") {
                run.failures.push(format!("commit: {e}"));
            }
            let took = started.elapsed();
            run.commit_ms.push(took.as_secs_f64() * 1e3);
            rec.close(commit);
            if traced {
                let in_store = store_commit_ns.ns() - before;
                rec.child(commit, "store.commit", "flor-store", 0, in_store);
                let own = took.saturating_sub(Duration::from_nanos(in_store));
                run.commit_self_ms.push(own.as_secs_f64() * 1e3);
            }
            rec.close(root);
        }
        run.due_to_ack_ms.push(due.elapsed().as_secs_f64() * 1e3);
        tick += 1;
        let elapsed_ticks = (began.elapsed().as_nanos() / WRITER_PERIOD.as_nanos()) as u32;
        if elapsed_ticks > tick {
            run.skipped += u64::from(elapsed_ticks - tick);
            tick = elapsed_ticks;
        }
    }
    run
}

/// One timed stretch of the workload: its sessions (and writer) run for
/// `run_for`, then everything is joined.
struct Phase {
    clients: Vec<ClientRun>,
    writer: Option<WriterRun>,
}

impl Phase {
    fn run(
        env: &Env,
        kind: Kind,
        cycle: &[PlanOp],
        seed: u64,
        run_for: Duration,
        traced: bool,
        keep_firsts: bool,
    ) -> Phase {
        let shared = LiveShared {
            pause: Mutex::new(()),
            stop: AtomicBool::new(false),
        };
        let live = (kind == Kind::Live).then_some(&shared);
        let sessions: usize = if kind == Kind::Live { 1 } else { 2 };
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..sessions)
                .map(|c| {
                    s.spawn(move || {
                        client_loop(ClientArgs {
                            env,
                            cycle,
                            start: c * cycle.len() / sessions,
                            run_for,
                            traced,
                            live,
                            keep_firsts,
                            thread: c as u32,
                            t0,
                        })
                    })
                })
                .collect();
            let shared = &shared;
            let writer =
                live.map(|_| s.spawn(move || writer_loop(env, shared, seed, traced, t0, 8)));
            let clients = handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect();
            shared.stop.store(true, Ordering::SeqCst);
            let writer = writer.map(|h| h.join().expect("writer thread"));
            Phase { clients, writer }
        })
    }

    fn queries(&self) -> u64 {
        self.clients.iter().map(|c| c.queries).sum()
    }

    /// The phase's wall time: the longest session's, pulls cut out.
    fn wall(&self) -> Duration {
        self.clients
            .iter()
            .map(|c| c.wall)
            .max()
            .unwrap_or_default()
    }

    /// Completed queries per second of the phase's wall time.
    fn throughput(&self) -> f64 {
        self.queries() as f64 / self.wall().as_secs_f64().max(1e-9)
    }

    fn latencies(&self) -> Vec<(PlanKind, f64)> {
        self.clients.iter().flat_map(|c| c.lat_ms.clone()).collect()
    }

    /// Fold the phase's op counts and failures into `out`.
    fn account(&self, out: &mut Outcome) {
        for c in &self.clients {
            out.account(c.queries + c.oracle_checked, &c.failures);
        }
        if let Some(w) = &self.writer {
            out.account(w.commit_ms.len() as u64, &w.failures);
        }
    }

    fn spans(self) -> Vec<Span> {
        let mut spans: Vec<Span> = Vec::new();
        for c in self.clients {
            spans.extend(c.recorder.spans);
        }
        if let Some(w) = self.writer {
            spans.extend(w.recorder.spans);
        }
        spans
    }
}

/// The distinct plans of a cycle with their from-scratch answers on H,
/// and per op the index of its plan.
struct Oracle {
    plans: Vec<PlanOp>,
    frames: Vec<(u64, DataFrame)>,
    of_op: Vec<usize>,
}

impl Oracle {
    fn build(flor: &Flor, cycle: &[PlanOp]) -> Oracle {
        let mut plans: Vec<PlanOp> = Vec::new();
        let mut of_op = Vec::with_capacity(cycle.len());
        for op in cycle {
            let at = plans
                .iter()
                .position(|p| p.plan == op.plan)
                .unwrap_or_else(|| {
                    plans.push(op.clone());
                    plans.len() - 1
                });
            of_op.push(at);
        }
        let frames = plans.iter().map(|p| oracle_frame(flor, &p.plan)).collect();
        Oracle {
            plans,
            frames,
            of_op,
        }
    }

    /// Mean over the cycle's ops of a number measured once per distinct
    /// plan; `None` entries (a plan the probe does not apply to) are left
    /// out. Returns the mean and how many ops it covers.
    fn cycle_mean(&self, per_plan: &[Option<f64>]) -> (f64, usize) {
        let vals: Vec<f64> = self.of_op.iter().filter_map(|&at| per_plan[at]).collect();
        (mean(&vals), vals.len())
    }

    /// Frame bytes on the wire and rows, summed over one whole cycle.
    fn cycle_bytes_rows(&self) -> (usize, usize) {
        self.of_op.iter().fold((0, 0), |(b, r), &at| {
            let (epoch, df) = &self.frames[at];
            (b + frame_bytes(*epoch, df), r + df.n_rows())
        })
    }
}

/// The workload's typical query latency. A cycle mixes plan kinds whose
/// costs differ several-fold (a one-name pivot reads a quarter of what a
/// four-name pivot reads), so the pooled sample is multi-modal and its
/// median falls in the gap between modes, where it is not steady. Each
/// kind's own median is; this is their mean, every kind weighing the
/// same. The per-kind medians are noted beside it.
fn typical_latency(lat: &[(PlanKind, f64)], out: &mut Outcome) -> f64 {
    let mut by_kind: Vec<(PlanKind, Vec<f64>)> = Vec::new();
    for (kind, ms) in lat {
        match by_kind.iter_mut().find(|(k, _)| k == kind) {
            Some((_, v)) => v.push(*ms),
            None => by_kind.push((*kind, vec![*ms])),
        }
    }
    let medians: Vec<f64> = by_kind.iter().map(|(_, v)| median(v)).collect();
    let listed: Vec<String> = by_kind
        .iter()
        .zip(&medians)
        .map(|((k, v), m)| format!("{k:?} {m:.3} ms (n = {})", v.len()))
        .collect();
    out.notes
        .push(format!("query p50 by plan kind: {}", listed.join(", ")));
    mean(&medians)
}

/// A plan's projected names as the `value_name` values the store indexes.
fn name_values(plan: &QueryPlan) -> Vec<Value> {
    plan.names.iter().map(|n| Value::from(n.as_str())).collect()
}

fn cycle_of(kind: Kind, seed: u64) -> Vec<PlanOp> {
    match kind {
        Kind::Scan => scan_cycle(),
        Kind::Point => point_cycle(seed),
        Kind::Live => live_cycle(seed),
    }
}

/// The same predicate a plan applies after its pivot, pushed into the
/// store's own query layer; `None` where the store has no equivalent
/// (`latest`). `logs.value` is text, so the top-K probe orders by text:
/// it measures the store's streaming top-K path, not the plan's answer.
fn store_query(op: &PlanOp) -> Option<Query> {
    let mut q = Query::table("logs").filter_in("value_name", name_values(&op.plan));
    for p in &op.plan.predicates {
        q = q.filter_pred(p.clone());
    }
    match op.kind {
        PlanKind::Latest => None,
        PlanKind::TopK => Some(q.order_by("value", true).limit(TOP_K)),
        _ => Some(q),
    }
}

/// Time `f` `reps` times; mean milliseconds per call.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let started = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    started.elapsed().as_secs_f64() * 1e3 / reps as f64
}

/// Per-layer probes: direct calls into each layer's public functions on
/// one pinned snapshot of H. Each distinct plan of the cycle is timed
/// `reps` times; a reported number is the mean over the cycle's ops, so
/// a plan counts as often as the load sends it.
fn probes(env: &Env, oracle: &Oracle, out: &mut Outcome) {
    let flor = &env.flor;
    let snap: Snapshot = flor.db.pin();
    let reps = (40 / oracle.plans.len()).max(1);
    let mut push = |name: &'static str, per_plan: Vec<Option<f64>>| {
        let (v, n) = oracle.cycle_mean(&per_plan);
        out.push(name, v, n * reps);
    };

    let codec = oracle.frames.iter().map(|(epoch, df)| {
        Some(time_ms(reps, || {
            let resp = Response::Frame {
                epoch: *epoch,
                df: df.clone(),
            };
            Response::decode(resp.encode()).expect("decode")
        }))
    });
    push("serve.codec_ms", codec.collect());
    let run_at = oracle.plans.iter().map(|op| {
        Some(time_ms(reps, || {
            flor.run_plan_at(&snap, &op.plan).expect("run_plan_at")
        }))
    });
    push("core.run_plan_at_ms", run_at.collect());

    // Per projected name set: the fetch the served path really makes,
    // the identity pivot over it, and (pivot − fetch) as the pivot's own
    // cost; the pivot is also the post-pass probe's input.
    let mut name_sets: Vec<(Vec<String>, f64, f64, DataFrame)> = Vec::new();
    for op in &oracle.plans {
        if name_sets.iter().any(|(names, ..)| *names == op.plan.names) {
            continue;
        }
        let values = name_values(&op.plan);
        let names: Vec<&str> = op.plan.names.iter().map(String::as_str).collect();
        let identity = QueryPlan::new(&names);
        let fetch = time_ms(20, || {
            snap.lookup_many("logs", "value_name", &values)
                .expect("lookup_many")
        });
        let pivot = time_ms(20, || {
            flor.run_plan_at(&snap, &identity).expect("identity plan")
        });
        let base = flor.run_plan_at(&snap, &identity).expect("identity plan");
        name_sets.push((op.plan.names.clone(), fetch, pivot, base));
    }
    let set_of = |op: &PlanOp| {
        name_sets
            .iter()
            .find(|(names, ..)| *names == op.plan.names)
            .expect("every plan's name set was probed")
    };
    push(
        "store.fetch_ms",
        oracle.plans.iter().map(|op| Some(set_of(op).1)).collect(),
    );
    push(
        "df.pivot_ms",
        oracle
            .plans
            .iter()
            .map(|op| Some(set_of(op).2 - set_of(op).1))
            .collect(),
    );
    let post = oracle.plans.iter().map(|op| {
        let plan = &op.plan;
        (!plan.post_pass_is_identity(&plan.predicates, plan.latest_group.is_some())).then(|| {
            time_ms(reps, || {
                plan.post_pass(&set_of(op).3, &plan.predicates, true)
                    .expect("post_pass")
            })
        })
    });
    push("df.post_pass_ms", post.collect());

    let pushed: Vec<Option<Query>> = oracle.plans.iter().map(store_query).collect();
    let query = pushed.iter().map(|q| {
        q.as_ref()
            .map(|q| time_ms(reps, || snap.query(q).expect("store query")))
    });
    push("store.query_ms", query.collect());
    let (mut examined, mut returned) = (0usize, 0usize);
    for &at in &oracle.of_op {
        if let Some(q) = &pushed[at] {
            let (_, ex) = snap.explain(q).expect("explain");
            examined += ex.rows_examined;
            returned += ex.rows_returned;
        }
    }
    out.push(
        "store.examined_per_returned",
        examined as f64 / returned.max(1) as f64,
        oracle.of_op.len(),
    );

    let mut client = Client::connect(env.addr, None).expect("connect probe");
    let mut wire: Vec<f64> = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let sent = Instant::now();
        client.epochs().expect("epochs");
        wire.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    client.close().expect("close probe");
    out.push("serve.wire_us", median(&wire), wire.len());
    let (bytes, rows) = oracle.cycle_bytes_rows();
    let ops = oracle.of_op.len();
    out.push("serve.frame_bytes", bytes as f64 / ops as f64, ops);
    out.push("serve.rows_per_frame", rows as f64 / ops as f64, ops);
}

/// Run one serve workload: `seconds` of measured load with tracing off,
/// or — with `trace` — a shorter untraced stretch, the same stretch
/// traced, and the per-layer probes.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &Scratch,
    spans_out: &mut Vec<Span>,
) -> Outcome {
    let mut out = Outcome::default();
    let cycle = cycle_of(kind, seed);

    let env = out.timed_setup(trace, || Env::build(seed, scratch));
    let oracle = Oracle::build(&env.flor, &cycle);
    let (bytes, rows) = oracle.cycle_bytes_rows();
    out.push("bytes_per_row", bytes as f64 / rows as f64, 1);

    if !trace {
        let phase = Phase::run(
            &env,
            kind,
            &cycle,
            seed,
            Duration::from_secs_f64(seconds),
            false,
            kind != Kind::Live,
        );
        phase.account(&mut out);
        let lat = phase.latencies();
        let typical = typical_latency(&lat, &mut out);
        out.push("op_p50_ms", typical, lat.len());
        out.push(
            "throughput_per_s",
            phase.throughput(),
            phase.queries() as usize,
        );
        let pooled: Vec<f64> = lat.iter().map(|(_, ms)| *ms).collect();
        out.note_tail("query_tail_ms", &pooled);
        // Byte-level oracle: every distinct plan's first answer against
        // `run_plan_full` at the same epoch (H does not move on the two
        // pinned workloads; `serve.live` samples inside the loop instead).
        for c in &phase.clients {
            for (idx, (epoch, df)) in &c.firsts {
                let (want_epoch, want) = &oracle.frames[oracle.of_op[*idx]];
                out.check(same_frame(*epoch, df, *want_epoch, want), || {
                    format!(
                        "{:?}: served frame differs from run_plan_full",
                        cycle[*idx].kind
                    )
                });
            }
        }
        if let Some(w) = &phase.writer {
            writer_notes(&[w], &mut out);
        }
    } else {
        // Untraced, traced, untraced: the untraced rate is taken on both
        // sides of the traced stretch so warm-up does not pass for
        // tracing overhead.
        let flor = &env.flor;
        let side = Duration::from_secs_f64(seconds * 0.15);
        let before = flor.metrics();
        let first = Phase::run(&env, kind, &cycle, seed, side, false, false);
        let after = flor.metrics();
        flor.set_tracing(true);
        let traced = Phase::run(&env, kind, &cycle, seed, side * 2, true, false);
        flor.set_tracing(false);
        let second = Phase::run(&env, kind, &cycle, seed, side, false, false);
        for phase in [&first, &traced, &second] {
            phase.account(&mut out);
        }
        let mut lat = first.latencies();
        lat.extend(second.latencies());
        let typical = typical_latency(&lat, &mut out);
        out.push("query_p50_ms", typical, lat.len());
        let requests = counter_delta(&before, &after, "serve.requests").max(1);
        let busy = counter_delta(&before, &after, "serve.busy");
        out.push(
            "serve.busy_ratio",
            busy as f64 / requests as f64,
            requests as usize,
        );
        push_hist_means(
            &mut out,
            &before,
            &after,
            &[
                ("serve.server_ms", "serve.request.nanos", 1e6),
                ("store.commit_ms", "store.commit.nanos", 1e6),
                ("store.wal_append_us", "store.wal.append_nanos", 1e3),
                ("store.wal_fsync_us", "store.wal.fsync_nanos", 1e3),
            ],
        );
        if let (Some(w1), Some(w2), Some(wt)) = (&first.writer, &second.writer, &traced.writer) {
            writer_notes(&[w1, w2], &mut out);
            out.push(
                "core.commit_self_ms",
                median(&wt.commit_self_ms),
                wt.commit_self_ms.len(),
            );
        }
        let plain_rate = (first.queries() + second.queries()) as f64
            / (first.wall() + second.wall()).as_secs_f64().max(1e-9);
        out.push(
            "obs.trace_overhead_ratio",
            plain_rate / traced.throughput().max(1e-9),
            traced.queries() as usize,
        );
        let spans = traced.spans();
        let (layers, coverage) = time_share(&spans);
        out.push("timeshare.coverage", coverage, spans.len());
        out.layers = layers;
        spans_out.extend(spans);

        probes(&env, &oracle, &mut out);
        let views = flor.views.stats();
        out.push(
            "view.hit_ratio",
            views.hits as f64 / (views.hits + views.misses).max(1) as f64,
            (views.hits + views.misses) as usize,
        );
    }
    out
}

/// Open-loop hygiene over the writer's stretches: how late it ran, what
/// it skipped, and the failure if it fell a period behind on more than
/// 5 % of its ticks.
fn writer_notes(parts: &[&WriterRun], out: &mut Outcome) {
    let pool = |f: fn(&WriterRun) -> &Vec<f64>| -> Vec<f64> {
        parts.iter().flat_map(|w| f(w).clone()).collect()
    };
    let (late, due_to_ack, commits) = (
        pool(|w| &w.late_ms),
        pool(|w| &w.due_to_ack_ms),
        pool(|w| &w.commit_ms),
    );
    let ticks = late.len().max(1);
    let behind: u64 = parts.iter().map(|w| w.behind).sum();
    let skipped: u64 = parts.iter().map(|w| w.skipped).sum();
    out.push("writer_late_p50_ms", median(&late), ticks);
    out.push(
        "writer_late_max_ms",
        late.iter().copied().fold(0.0, f64::max),
        ticks,
    );
    out.push("writer_commits_skipped", skipped as f64, ticks);
    out.push(
        "commit_due_to_ack_p50_ms",
        median(&due_to_ack),
        due_to_ack.len(),
    );
    out.push("commit_p50_ms", median(&commits), commits.len());
    out.note_tail("commit_tail_ms", &commits);
    out.check(behind as f64 <= 0.05 * ticks as f64, || {
        format!("writer was over one period late on {behind} of {ticks} ticks")
    });
}
