//! The blocking TCP server: bounded thread-per-connection accept pool,
//! session handshake, snapshot-pinned request execution, middleware
//! dispatch, and the follower poll loop.
//!
//! Concurrency model: the accept loop admits at most
//! [`ServerConfig::max_sessions`] live connections (excess connections
//! get a typed `Busy` error and are closed); each admitted connection is
//! served by its own thread, and a global [`Gate`] additionally bounds
//! how many requests *execute* at once (run, then frame their reply).
//! Every session's queries are answered at the snapshot pinned at
//! handshake (or last `Pin`), through the kernel's one read path
//! ([`flor_view::ViewCatalog::answer`]): a plan with nothing below the
//! pivot but a `latest` is read from the kernel's maintained views,
//! caught up to the session's snapshot and shared by `Arc`, not
//! copied — that read takes the `view_catalog` lock, which a
//! view build or catch-up holds across its store reads, and the server
//! enters it holding no lock of its own. Every other plan, and any plan
//! of a session pinned behind the catalog's epoch, runs on the snapshot
//! executor — lock-free reads, so a committing writer in the same process
//! never blocks it. Both paths answer the same bytes, and every answer's
//! frame is encoded by reference. The request loop has one path: it
//! builds one [`ActiveTrace`] per request — inert unless tracing is on or
//! the slow log is armed — and hands it to every stage.
//!
//! What a reply writes: one whole frame, `[len u32][xxh64 u64][payload]`,
//! in one `write_all`. Inside the gate, after the plan runs, the reply's
//! frame is built in place ([`flor_store::codec::framed`]: the payload
//! is encoded after a reserved header, which is then patched), so no
//! reply copies its payload a second time. An answer whose frame the
//! view catalog keeps ([`Answer::kept`]: a view's own frame, or its
//! cached `latest` dedup, with no post-pass) has its whole frame kept in
//! the server's wire memo, keyed by the frame's `Arc` identity (held
//! weakly) and the answer's epoch; a repeat read of that frame at that
//! epoch writes those bytes — no encode, no checksum. Executor and
//! post-pass frames are made per request and never kept. The memo has no
//! capacity: it holds at most one frame's bytes per live kept frame
//! (`serve.wire_memo.bytes`), and an entry whose frame died is pruned on
//! the next insert. A traced request's `execute` span says which:
//! `wire bytes kept` or `encoded N bytes`.
//!
//! When the served handle is a follower ([`Flor::open_follower`]), the
//! server calls [`Flor::poll_follower`] once before it starts serving,
//! then on a poll thread every [`ServerConfig::follower_poll`], which
//! bounds the follower's staleness by that interval.

use crate::middleware::{Middleware, Outcome};
use crate::protocol::{
    read_frame, write_framed, ErrorCode, HealthReport, Request, Response, WireError,
    DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use crate::session::{Gate, Session};
use flor_core::{ExplainReport, Flor};
use flor_df::DataFrame;
use flor_obs::{unix_micros, ActiveTrace, Counter, Gauge, Level, MetricsRegistry, SlowQueryRecord};
use flor_view::Answer;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server tunables; [`ServerConfig::default`] is sized for tests and
/// small deployments.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Accept-pool bound: live sessions past this get `Busy` + close.
    pub max_sessions: usize,
    /// Global bound on concurrently *executing* requests (a plan's run
    /// and its reply's framing).
    pub max_in_flight: usize,
    /// Per-session idle timeout; a session silent this long is dropped.
    pub idle_timeout: Duration,
    /// Per-frame size cap (both directions).
    pub max_frame_bytes: u32,
    /// Follower staleness bound: how often the poll thread tails the
    /// writer's WAL. Ignored for non-follower handles.
    pub follower_poll: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_sessions: 32,
            max_in_flight: 8,
            idle_timeout: Duration::from_secs(30),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            follower_poll: Duration::from_millis(20),
        }
    }
}

/// Server-level gauges and counters, resolved once at bind time so the
/// accept loop and request path never touch the registry map — they
/// land in the same [`MetricsRegistry`] the kernel records into, so the
/// Prometheus scrape carries them alongside the store/view/job metrics.
struct ServeMetrics {
    registry: MetricsRegistry,
    /// `serve.sessions.live`: admitted sessions not yet disconnected.
    live_sessions: Arc<Gauge>,
    /// `serve.inflight`: requests executing inside the gate right now.
    in_flight: Arc<Gauge>,
    /// `serve.busy`: refusals from the accept pool or the gate.
    busy: Arc<Counter>,
    /// `serve.error.<code>`: error responses per [`ErrorCode`].
    errors: [Arc<Counter>; ErrorCode::ALL.len()],
    /// `serve.follower.wal_lag`: commits behind the writer, updated by
    /// the poll thread (stays 0 on a writer).
    wal_lag: Arc<Gauge>,
}

impl ServeMetrics {
    fn new(registry: MetricsRegistry) -> ServeMetrics {
        let errors = ErrorCode::ALL.map(|c| registry.counter(&format!("serve.error.{c}")));
        ServeMetrics {
            live_sessions: registry.gauge("serve.sessions.live"),
            in_flight: registry.gauge("serve.inflight"),
            busy: registry.counter("serve.busy"),
            wal_lag: registry.gauge("serve.follower.wal_lag"),
            errors,
            registry,
        }
    }

    fn on_error(&self, code: ErrorCode) {
        self.errors[code.index()].inc();
    }
}

/// The wire bytes of the answers whose frame the view catalog keeps
/// ([`Answer::kept`]): per kept frame, its whole frame — header and
/// payload — at the last epoch it answered, made once by the first read
/// that needs it (a read of the same frame and epoch meanwhile waits for
/// it). A repeat read at that epoch writes these bytes: no encode, no
/// checksum. They are exact because a frame's bytes depend only on its
/// cells and the epoch, and the catalog changes a kept frame's cells only
/// in a catch-up, which moves the epoch (a frame that answers two epochs
/// unchanged gets an entry per epoch, the later replacing the earlier).
///
/// There is no capacity: the memo holds at most one body per live kept
/// frame, plus bodies of frames that died since the last insert, which
/// that insert prunes.
struct WireMemo {
    /// Entries by their frame's address. An entry's `Weak` keeps that
    /// allocation — not the frame's cells — alive, so no other frame can
    /// take the address while the entry lives; being weak, it never keeps
    /// a frame alive, nor makes a catch-up's `Arc::make_mut` copy it.
    /// Locked only around map reads and writes, never across an encode,
    /// I/O or another lock.
    kept: Mutex<HashMap<usize, Kept>>,
    /// `serve.wire_memo.hits`: replies written from bytes another read
    /// made.
    hits: Arc<Counter>,
    /// `serve.wire_memo.bytes`: bytes the memo holds.
    bytes: Arc<Gauge>,
}

/// One kept frame's wire bytes, and the epoch they answer.
struct Kept {
    frame: Weak<DataFrame>,
    epoch: u64,
    wire: Arc<Slot>,
}

/// A kept frame's bytes, made once: the whole frame, or why it cannot be
/// framed (a payload too long for the length field stays too long).
type Slot = OnceLock<Result<Arc<[u8]>, String>>;

/// A reply's whole wire frame: bytes the memo keeps, or framed for this
/// reply alone.
enum Wire {
    Kept(Arc<[u8]>),
    Fresh(Vec<u8>),
}

impl std::ops::Deref for Wire {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            Wire::Kept(bytes) => bytes,
            Wire::Fresh(bytes) => bytes,
        }
    }
}

impl WireMemo {
    fn new(registry: &MetricsRegistry) -> WireMemo {
        WireMemo {
            kept: Mutex::new(HashMap::new()),
            hits: registry.counter("serve.wire_memo.hits"),
            bytes: registry.gauge("serve.wire_memo.bytes"),
        }
    }

    /// The whole frame `reply` writes. A kept answer is written from the
    /// bytes kept for its frame at its epoch, made by the first read that
    /// needs them; every other reply is framed in place for itself. `tr`
    /// records which.
    fn wire(&self, reply: &Reply, tr: &mut ActiveTrace) -> Result<Wire, WireError> {
        let wire = match reply {
            Reply::Answer(answer) if answer.kept => {
                let slot = self.slot(answer);
                let mut made = false;
                let kept = slot.get_or_init(|| {
                    made = true;
                    Response::framed_frame_ref(answer.epoch, &answer.frame)
                        .map(Arc::from)
                        .map_err(|e| e.to_string())
                });
                let wire = kept.clone().map_err(|message| {
                    std::io::Error::new(std::io::ErrorKind::InvalidInput, message)
                })?;
                if !made {
                    self.hits.inc();
                    tr.event(|| "wire bytes kept");
                    return Ok(Wire::Kept(wire));
                }
                self.count_bytes();
                Wire::Kept(wire)
            }
            Reply::Answer(answer) => {
                Wire::Fresh(Response::framed_frame_ref(answer.epoch, &answer.frame)?)
            }
            Reply::Owned(resp) => Wire::Fresh(resp.framed()?),
        };
        tr.event(|| format!("encoded {} bytes", wire.len()));
        Ok(wire)
    }

    /// The entries, locked. Every update inserts or removes whole
    /// entries, so a lock a panicking holder poisoned is still valid.
    fn entries(&self) -> MutexGuard<'_, HashMap<usize, Kept>> {
        self.kept.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The slot of `answer`'s frame at its epoch: the frame's entry when
    /// it is at that epoch, else a new, empty one replacing it, inserted
    /// after pruning the entries of frames no longer alive.
    fn slot(&self, answer: &Answer) -> Arc<Slot> {
        let mut kept = self.entries();
        let key = address(&answer.frame);
        if let Some(entry) = kept.get(&key).filter(|k| k.epoch == answer.epoch) {
            return Arc::clone(&entry.wire);
        }
        kept.retain(|_, k| k.frame.strong_count() > 0);
        let slot = Arc::new(Slot::new());
        kept.insert(
            key,
            Kept {
                frame: Arc::downgrade(&answer.frame),
                epoch: answer.epoch,
                wire: Arc::clone(&slot),
            },
        );
        slot
    }

    /// Set `serve.wire_memo.bytes` to the bytes the entries hold.
    fn count_bytes(&self) {
        let kept = self.entries();
        let held: usize = kept
            .values()
            .filter_map(|k| k.wire.get()?.as_ref().ok())
            .map(|wire| wire.len())
            .sum();
        self.bytes.set(held as i64);
    }
}

/// The address of `frame`'s allocation: the memo's key.
fn address(frame: &Arc<DataFrame>) -> usize {
    Arc::as_ptr(frame) as usize
}

struct Shared {
    flor: Flor,
    cfg: ServerConfig,
    middleware: Vec<Arc<dyn Middleware>>,
    gate: Arc<Gate>,
    metrics: ServeMetrics,
    memo: WireMemo,
    live_sessions: AtomicUsize,
    next_session: AtomicU64,
    shutdown: AtomicBool,
}

/// A bound-but-not-yet-running server. Configure middleware, then
/// either [`Server::run`] on this thread or [`Server::spawn`] one.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) serving `flor`.
    pub fn bind(
        flor: Flor,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let gate = Gate::new(cfg.max_in_flight);
        let metrics = ServeMetrics::new(flor.metrics_registry());
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                memo: WireMemo::new(&metrics.registry),
                flor,
                cfg,
                middleware: Vec::new(),
                gate,
                metrics,
                live_sessions: AtomicUsize::new(0),
                next_session: AtomicU64::new(1),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// Push a middleware onto the stack (dispatched in push order).
    ///
    /// # Panics
    /// If called after [`Server::spawn`] cloned the shared state (build
    /// the full stack before starting the server).
    pub fn with_middleware(mut self, mw: Arc<dyn Middleware>) -> Server {
        Arc::get_mut(&mut self.shared)
            // audit: allow(panic) — documented builder contract (see
            // `# Panics`): the stack is sealed once `spawn` clones the
            // shared state; misuse is a programming error, not input.
            .expect("add middleware before spawning")
            .middleware
            .push(mw);
        self
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve on a background thread; the returned handle stops the
    /// server on [`ServerHandle::stop`] or drop.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        // On a follower, the first poll lands before the handle is
        // returned: the caller's next write is never applied early.
        let poller = spawn_follower_poll(&shared);
        let join = thread::spawn(move || self.serve(poller));
        Ok(ServerHandle {
            addr,
            shared,
            join: Some(join),
        })
    }

    /// Serve on the calling thread until shut down.
    pub fn run(self) {
        let poller = spawn_follower_poll(&self.shared);
        self.serve(poller);
    }

    /// The accept loop; joins the follower poll thread on shutdown.
    fn serve(self, poller: Option<JoinHandle<()>>) {
        let Server { listener, shared } = self;
        for stream in listener.incoming() {
            // audit: ordering — shutdown is a latch only ever flipped
            // false->true; the self-connect wake guarantees the accept
            // loop re-checks it, so Relaxed cannot lose the signal.
            if shared.shutdown.load(Ordering::Relaxed) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            // Bounded accept pool: admit or refuse with a typed error.
            if shared.live_sessions.fetch_add(1, Ordering::AcqRel) >= shared.cfg.max_sessions {
                shared.live_sessions.fetch_sub(1, Ordering::AcqRel);
                shared.metrics.busy.inc();
                shared.metrics.on_error(ErrorCode::Busy);
                refuse_busy(stream);
                continue;
            }
            shared.metrics.live_sessions.add(1);
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let _ = handle_conn(&shared, stream);
                shared.live_sessions.fetch_sub(1, Ordering::AcqRel);
                shared.metrics.live_sessions.add(-1);
            });
        }
        if let Some(p) = poller {
            let _ = p.join();
        }
    }
}

/// Handle to a spawned server; stops it on [`ServerHandle::stop`] or drop.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live session count (admitted, not yet disconnected).
    // audit: ordering — observational statistic; staleness is fine.
    pub fn live_sessions(&self) -> usize {
        self.shared.live_sessions.load(Ordering::Relaxed)
    }

    /// Stop accepting, wake the accept loop, and join the server thread.
    /// Connections already being served drain on their own (idle timeout
    /// at the latest).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        // audit: ordering — one-way latch; the subsequent self-connect
        // and thread join provide all the synchronization shutdown
        // needs, the flag itself publishes nothing.
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Self-connect to wake the blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// On a follower handle, poll the writer's WAL once on the calling
/// thread, then every `follower_poll` on a thread of its own, so served
/// epochs lag the writer by at most one interval.
fn spawn_follower_poll(shared: &Arc<Shared>) -> Option<JoinHandle<()>> {
    if !shared.flor.is_follower() {
        return None;
    }
    poll_follower(shared);
    let shared = Arc::clone(shared);
    Some(thread::spawn(move || {
        // audit: ordering — shutdown latch polled every slice; seeing
        // the flip one 25ms slice late is within the drain budget.
        while !shared.shutdown.load(Ordering::Relaxed) {
            // Sleep in short slices so a long poll interval doesn't hold
            // up shutdown for a whole tick.
            let mut remaining = shared.cfg.follower_poll;
            // audit: ordering — same latch as above, same slice bound.
            while !remaining.is_zero() && !shared.shutdown.load(Ordering::Relaxed) {
                let slice = remaining.min(Duration::from_millis(25));
                thread::sleep(slice);
                remaining -= slice;
            }
            poll_follower(&shared);
        }
    }))
}

/// One follower poll and lag-gauge refresh. A poll error (e.g. the
/// writer's directory vanished) is retried next tick; the follower keeps
/// serving its last good state meanwhile.
fn poll_follower(shared: &Shared) {
    let _ = shared.flor.poll_follower();
    // Refresh the scrape-visible lag estimate after applying; an unknown
    // estimate (writer just checkpointed) keeps the previous value until
    // the next successful peek.
    if let Ok(Some(lag)) = shared.flor.follower_lag() {
        shared.metrics.wal_lag.set(lag as i64);
    }
}

/// Refuse an over-capacity connection with `Busy` on a best-effort
/// write, then drop it.
fn refuse_busy(stream: TcpStream) {
    let mut w = BufWriter::new(stream);
    let resp = Response::Error {
        code: ErrorCode::Busy,
        message: "session pool exhausted; retry later".into(),
    };
    let _ = send(&mut w, &resp);
}

/// Serve one connection: handshake, then the request loop. Protocol
/// violations answer a typed error and drop only this connection.
fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) -> Result<(), WireError> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(shared.cfg.idle_timeout)).ok();
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".into());
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let max = shared.cfg.max_frame_bytes;

    // --- handshake: the first frame must be a version-matched Hello ---
    let hello = match read_request(&mut reader, max) {
        Ok(req) => req,
        Err(e) => return send_protocol_error(&mut writer, &e),
    };
    // audit: ordering — id allocation needs only atomicity of the
    // increment; session state is confined to this thread.
    let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
    let mut session = Session::new(id, peer, shared.flor.db.pin());
    match &hello {
        Request::Hello { version, .. } if *version != PROTOCOL_VERSION => {
            return send(
                &mut writer,
                &Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!(
                        "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"
                    ),
                },
            );
        }
        Request::Hello { .. } => {}
        other => {
            return send(
                &mut writer,
                &Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("expected hello, got {}", other.verb()),
                },
            );
        }
    }
    for mw in &shared.middleware {
        if let Err(resp) = mw.on_request(&session, &hello) {
            return send(&mut writer, &resp);
        }
    }
    session.authed = true;
    shared.metrics.registry.event_at(
        Level::Debug,
        "session",
        format!("open id={} peer={}", session.id, session.peer),
    );
    send(
        &mut writer,
        &Response::HelloOk {
            version: PROTOCOL_VERSION,
            epoch: session.epoch(),
        },
    )?;

    // --- request loop ---
    let result = request_loop(shared, &mut session, &mut reader, &mut writer, max);
    shared.metrics.registry.event_at(
        Level::Debug,
        "session",
        format!(
            "close id={} peer={} requests={}",
            session.id, session.peer, session.requests
        ),
    );
    result
}

fn request_loop(
    shared: &Arc<Shared>,
    session: &mut Session,
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    max: u32,
) -> Result<(), WireError> {
    loop {
        let req = match read_request(reader, max) {
            Ok(req) => req,
            Err(WireError::Io(e)) => {
                // Peer gone or idle timeout: just drop the connection.
                return Err(WireError::Io(e));
            }
            Err(e) => return send_protocol_error(writer, &e),
        };
        // Unwrap the optional client-originated trace context; the
        // wrapper is transport only, so everything below (middleware,
        // gate, execute, metrics) sees the inner request.
        let (req, ctx) = match req {
            Request::Traced { trace, inner } => (*inner, Some(trace)),
            other => (other, None),
        };
        let traces = shared.metrics.registry.traces();
        let slow = shared.metrics.registry.slow_queries();
        // Two relaxed loads decide the whole per-request overhead: with
        // tracing off and the slow log unarmed the handle is inert and
        // every recording call below returns immediately.
        let mut tr = ActiveTrace::new(traces.enabled() || slow.armed(), ctx, req.verb());
        tr.set_detail(|| format!("session {} peer {}", session.id, session.peer));
        tr.begin("request");

        // Middleware: every verdict becomes a span event. Auth failures
        // end the connection; admission failures leave it up for retry.
        let mut veto = None;
        let mw_span = tr.begin("middleware");
        for mw in &shared.middleware {
            match mw.on_request(session, &req) {
                Ok(()) => tr.event(|| format!("{}: ok", mw.name())),
                Err(resp) => {
                    tr.event(|| format!("{}: veto", mw.name()));
                    veto = Some(resp);
                    break;
                }
            }
        }
        tr.end(mw_span);
        if let Some(resp) = veto {
            let fatal = matches!(
                resp,
                Response::Error {
                    code: ErrorCode::Unauthorized,
                    ..
                }
            );
            if let Response::Error { code, .. } = &resp {
                shared.metrics.on_error(*code);
            }
            tr.finish(traces);
            send(writer, &resp)?;
            if fatal {
                return Ok(());
            }
            continue;
        }

        let start = Instant::now();
        let gate_span = tr.begin("gate");
        let permit = shared.gate.try_enter();
        tr.event(|| match permit {
            Some(_) => "admitted",
            None => "busy: in-flight limit reached",
        });
        tr.end(gate_span);
        let (reply, wire) = match permit {
            None => {
                shared.metrics.busy.inc();
                let reply = Reply::Owned(Response::Error {
                    code: ErrorCode::Busy,
                    message: "too many in-flight requests; retry later".into(),
                });
                let wire = shared.memo.wire(&reply, &mut tr);
                (reply, wire)
            }
            Some(permit) => {
                shared.metrics.in_flight.add(1);
                let ex_span = tr.begin("execute");
                let reply = execute(shared, session, &req, &mut tr);
                let wire = shared.memo.wire(&reply, &mut tr);
                tr.end(ex_span);
                shared.metrics.in_flight.add(-1);
                drop(permit);
                (reply, wire)
            }
        };
        session.requests += 1;
        let outcome = reply.outcome();
        if let Outcome::Error { code, .. } = outcome {
            shared.metrics.on_error(code);
        }
        for mw in &shared.middleware {
            mw.on_response(session, &req, outcome, start.elapsed());
        }
        // Publish the trace, and capture a slow-query record when a
        // Query breached the armed threshold — the answer's explain
        // rides along.
        if let (Some(trace), Some(threshold), Request::Query { plan }) =
            (tr.finish(traces), slow.threshold_nanos(), &req)
        {
            let total = trace.total_nanos;
            if total > threshold {
                slow.record(SlowQueryRecord {
                    trace: Arc::unwrap_or_clone(trace),
                    verb: "query".into(),
                    plan: format!("{:?}", plan.names),
                    explain: match &reply {
                        Reply::Answer(answer) => {
                            ExplainReport::new(plan, answer.clone(), total).to_string()
                        }
                        Reply::Owned(_) => String::new(),
                    },
                    total_nanos: total,
                    threshold_nanos: threshold,
                    at_unix_micros: unix_micros(),
                });
            }
        }
        let bye = matches!(reply, Reply::Owned(Response::Bye));
        write_framed(writer, &wire?)?;
        if bye {
            return Ok(());
        }
    }
}

fn read_request(reader: &mut BufReader<TcpStream>, max: u32) -> Result<Request, WireError> {
    Request::decode(read_frame(reader, max)?)
}

/// Send a typed error for a protocol violation, then drop the
/// connection (other sessions are untouched).
fn send_protocol_error(
    writer: &mut BufWriter<TcpStream>,
    err: &WireError,
) -> Result<(), WireError> {
    if let WireError::Io(e) = err {
        // Nothing to answer into a dead/idle socket.
        return Err(WireError::Io(std::io::Error::new(e.kind(), e.to_string())));
    }
    send(
        writer,
        &Response::Error {
            code: ErrorCode::BadRequest,
            message: err.to_string(),
        },
    )
}

/// Write `resp` as one frame built in place, and flush.
fn send(w: &mut impl Write, resp: &Response) -> Result<(), WireError> {
    write_framed(w, &resp.framed()?)
}

/// One request's reply: a response the server owns, or a query's
/// [`Answer`], whose frame — a maintained view's, shared with the view
/// catalog by `Arc`, or the executor's — is encoded by reference, or
/// written from the bytes [`WireMemo`] keeps for it.
enum Reply {
    Owned(Response),
    Answer(Answer),
}

impl Reply {
    fn outcome(&self) -> Outcome<'_> {
        match self {
            Reply::Owned(Response::Error { code, message }) => Outcome::Error {
                code: *code,
                message,
            },
            _ => Outcome::Ok,
        }
    }
}

/// Execute one admitted request against the session's pinned snapshot.
/// A query is answered through the kernel's one read path
/// ([`flor_view::ViewCatalog::answer`]) at the session's snapshot, which
/// records its spans into `tr` (or nothing when it is inert).
fn execute(shared: &Shared, session: &mut Session, req: &Request, tr: &mut ActiveTrace) -> Reply {
    let flor = &shared.flor;
    let resp = match req {
        Request::Hello { .. } => Response::Error {
            code: ErrorCode::BadRequest,
            message: "duplicate hello".into(),
        },
        Request::Query { plan } => {
            return match flor.views.answer(session.snapshot(), plan, tr) {
                Ok(answer) => Reply::Answer(answer),
                Err(e) => Reply::Owned(Response::Error {
                    code: ErrorCode::Internal,
                    message: e.to_string(),
                }),
            }
        }
        Request::Pin => {
            session.repin(flor.db.pin());
            Response::Pinned {
                epoch: session.epoch(),
            }
        }
        Request::Epoch => Response::Epochs {
            pinned: session.epoch(),
            latest: flor.db.pin().epoch(),
        },
        Request::Metrics => Response::Text {
            body: flor.metrics().render_text(),
        },
        Request::MetricsPrometheus => Response::Text {
            body: flor.metrics().render_prometheus(),
        },
        Request::Close => Response::Bye,
        // The loop unwraps trace contexts before execution; a nested one
        // is a protocol violation the decoder already rejects.
        Request::Traced { .. } => Response::Error {
            code: ErrorCode::BadRequest,
            message: "nested trace context".into(),
        },
        Request::Health => Response::Health(health_report(shared)),
        Request::Traces { limit } => Response::Traces {
            traces: shared.metrics.registry.traces().recent(*limit as usize),
        },
        Request::SlowQueries { limit } => Response::SlowQueries {
            records: shared
                .metrics
                .registry
                .slow_queries()
                .recent(*limit as usize),
        },
    };
    Reply::Owned(resp)
}

/// One consistent liveness/readiness picture: store watermarks from
/// [`flor_store::DbStats`], occupancy from the accept pool and the
/// gate, and (on a follower) a fresh lag estimate peeked from the
/// writer's log.
fn health_report(shared: &Shared) -> HealthReport {
    let stats = shared.flor.db.stats();
    let follower = shared.flor.is_follower();
    let follower_lag = if follower {
        shared.flor.follower_lag().ok().flatten()
    } else {
        None
    };
    HealthReport {
        follower,
        epoch: stats.wal_epoch,
        wal_offset_bytes: stats.wal_offset_bytes,
        last_checkpoint_epoch: stats.last_checkpoint_epoch,
        checkpoints: stats.checkpoints,
        compactions: stats.compactions,
        total_rows: stats.total_rows as u64,
        // audit: ordering — stats snapshot; cross-field consistency is
        // not promised by the health verb.
        live_sessions: shared.live_sessions.load(Ordering::Relaxed) as u64,
        max_sessions: shared.cfg.max_sessions as u64,
        in_flight: shared.gate.active() as u64,
        max_in_flight: shared.cfg.max_in_flight as u64,
        follower_lag,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flor_df::{Column, Value};
    use flor_view::{How, QueryPlan};

    fn inert() -> ActiveTrace {
        ActiveTrace::new(false, None, "")
    }

    /// An answer at `epoch` of a frame the catalog keeps, or not.
    fn answer(frame: Arc<DataFrame>, epoch: u64, kept: bool) -> Answer {
        Answer {
            frame,
            epoch,
            how: How::Hit,
            kept,
        }
    }

    /// A one-row frame whose only cell is `v`.
    fn frame_of(v: f64) -> DataFrame {
        DataFrame::from_columns(vec![Column {
            name: "loss".into(),
            values: vec![Value::Float(v)],
        }])
        .unwrap()
    }

    /// The payload `reply` writes, its checksum verified.
    fn written(memo: &WireMemo, reply: &Reply) -> Vec<u8> {
        let wire = memo.wire(reply, &mut inert()).unwrap();
        read_frame(&mut &wire[..], u32::MAX).unwrap()
    }

    #[test]
    fn a_memoised_reply_leaves_the_view_frames_strong_count_unchanged() {
        let flor = Flor::new("wire-memo");
        flor.set_filename("m.fl");
        flor.log("loss", 0.5);
        flor.commit("one").unwrap();
        let memo = WireMemo::new(&flor.metrics_registry());
        let snap = flor.db.pin();
        let plan = QueryPlan::new(&["loss"]);
        let read = || flor.views.answer(&snap, &plan, &mut inert()).unwrap();
        let first = read();
        assert!(first.kept, "a plain projection is the view's own frame");
        let frame = Arc::clone(&first.frame);
        drop(first);
        // The catalog's reference and this one.
        let held = Arc::strong_count(&frame);
        for n in 0..3 {
            let reply = Reply::Answer(read());
            assert_eq!(
                written(&memo, &reply),
                Response::encode_frame_ref(snap.epoch(), &frame)
            );
            drop(reply);
            assert_eq!(Arc::strong_count(&frame), held, "read {n}");
            assert_eq!(Arc::weak_count(&frame), 1, "read {n}");
            assert_eq!(memo.hits.get(), n, "every read after the first is a hit");
        }
    }

    #[test]
    fn a_dead_frames_address_is_never_answered_from_its_bytes() {
        let memo = WireMemo::new(&MetricsRegistry::new());
        let mut previous = Vec::new();
        for v in 0..8 {
            // The frame's cells are made before its `Arc`, so the `Arc`
            // is the next allocation of its size: the one the previous
            // frame's `Arc` freed, were the memo not holding it.
            let df = frame_of(v as f64);
            let reply = Reply::Answer(answer(Arc::new(df), 1, true));
            let got = written(&memo, &reply);
            let Reply::Answer(a) = &reply else {
                unreachable!()
            };
            assert_eq!(got, Response::encode_frame_ref(1, &a.frame), "frame {v}");
            assert_ne!(got, previous);
            previous = got;
        }
        assert_eq!(memo.hits.get(), 0, "every frame was a new one");
        let wire = Response::framed_frame_ref(1, &frame_of(7.0)).unwrap();
        assert_eq!(
            memo.bytes.get(),
            wire.len() as i64,
            "dead frames are pruned"
        );
    }

    #[test]
    fn one_frame_answering_two_epochs_is_written_at_each() {
        let memo = WireMemo::new(&MetricsRegistry::new());
        let frame = Arc::new(frame_of(0.5));
        for (epoch, hits) in [(3, 0), (3, 1), (4, 1), (4, 2)] {
            let reply = Reply::Answer(answer(Arc::clone(&frame), epoch, true));
            assert_eq!(
                written(&memo, &reply),
                Response::encode_frame_ref(epoch, &frame),
                "epoch {epoch}"
            );
            assert_eq!(memo.hits.get(), hits, "epoch {epoch}");
        }
        let wire = Response::framed_frame_ref(4, &frame).unwrap();
        assert_eq!(memo.bytes.get(), wire.len() as i64, "one entry per frame");
    }

    #[test]
    fn concurrent_first_reads_of_one_frame_encode_it_once() {
        let memo = WireMemo::new(&MetricsRegistry::new());
        let frame = Arc::new(frame_of(0.5));
        let readers = 4;
        let start = std::sync::Barrier::new(readers);
        thread::scope(|s| {
            for _ in 0..readers {
                s.spawn(|| {
                    let reply = Reply::Answer(answer(Arc::clone(&frame), 1, true));
                    start.wait();
                    assert_eq!(
                        written(&memo, &reply),
                        Response::encode_frame_ref(1, &frame)
                    );
                });
            }
        });
        assert_eq!(memo.hits.get(), readers as u64 - 1, "one encode");
    }

    #[test]
    fn frames_the_catalog_does_not_keep_are_never_memoised() {
        let memo = WireMemo::new(&MetricsRegistry::new());
        let frame = Arc::new(frame_of(0.5));
        for _ in 0..2 {
            let reply = Reply::Answer(answer(Arc::clone(&frame), 1, false));
            assert_eq!(
                written(&memo, &reply),
                Response::encode_frame_ref(1, &frame)
            );
        }
        assert_eq!((memo.hits.get(), memo.bytes.get()), (0, 0));
        assert_eq!(Arc::weak_count(&frame), 0);
    }
}
