//! The blocking TCP server: bounded thread-per-connection accept pool,
//! session handshake, snapshot-pinned request execution, middleware
//! dispatch, and the follower poll loop.
//!
//! Concurrency model: the accept loop admits at most
//! [`ServerConfig::max_sessions`] live connections (excess connections
//! get a typed `Busy` error and are closed); each admitted connection is
//! served by its own thread, and a global [`Gate`] additionally bounds
//! how many requests *execute* at once. Every session's queries run
//! against the snapshot pinned at handshake (or last `Pin`), via
//! [`Flor::execute_at`] — lock-free reads, so a committing writer in
//! the same process never blocks serving. The request loop has one
//! path: it builds one [`ActiveTrace`] per request — inert unless
//! tracing is on or the slow log is armed — and hands it to every stage.
//!
//! When the served handle is a follower ([`Flor::open_follower`]), the
//! server also runs a poll thread calling [`Flor::poll_follower`] every
//! [`ServerConfig::follower_poll`], which bounds the follower's
//! staleness by that interval.

use crate::middleware::Middleware;
use crate::protocol::{
    read_frame, write_frame, ErrorCode, HealthReport, Request, Response, WireError,
    DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use crate::session::{Gate, Session};
use flor_core::{Flor, PlanExplain};
use flor_obs::{unix_micros, ActiveTrace, Counter, Gauge, Level, MetricsRegistry, SlowQueryRecord};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server tunables; [`ServerConfig::default`] is sized for tests and
/// small deployments.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Accept-pool bound: live sessions past this get `Busy` + close.
    pub max_sessions: usize,
    /// Global bound on concurrently *executing* requests.
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

struct Shared {
    flor: Flor,
    cfg: ServerConfig,
    middleware: Vec<Arc<dyn Middleware>>,
    gate: Arc<Gate>,
    metrics: ServeMetrics,
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
        let join = thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            shared,
            join: Some(join),
        })
    }

    /// Serve on the calling thread until shut down.
    pub fn run(self) {
        let Server { listener, shared } = self;
        let poller = spawn_follower_poll(&shared);
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

/// On a follower handle, tail the writer's WAL every `follower_poll` so
/// served epochs lag the writer by at most one interval.
fn spawn_follower_poll(shared: &Arc<Shared>) -> Option<JoinHandle<()>> {
    if !shared.flor.is_follower() {
        return None;
    }
    let shared = Arc::clone(shared);
    Some(thread::spawn(move || {
        // audit: ordering — shutdown latch polled every slice; seeing
        // the flip one 25ms slice late is within the drain budget.
        while !shared.shutdown.load(Ordering::Relaxed) {
            // A poll error (e.g. the writer's directory vanished) is
            // retried next tick; the follower keeps serving its last
            // good state meanwhile.
            let _ = shared.flor.poll_follower();
            // Refresh the scrape-visible lag estimate after applying;
            // an unknown estimate (writer just checkpointed) keeps the
            // previous value until the next successful peek.
            if let Ok(Some(lag)) = shared.flor.follower_lag() {
                shared.metrics.wal_lag.set(lag as i64);
            }
            // Sleep in short slices so a long poll interval doesn't hold
            // up shutdown for a whole tick.
            let mut remaining = shared.cfg.follower_poll;
            // audit: ordering — same latch as above, same slice bound.
            while !remaining.is_zero() && !shared.shutdown.load(Ordering::Relaxed) {
                let slice = remaining.min(Duration::from_millis(25));
                thread::sleep(slice);
                remaining -= slice;
            }
        }
    }))
}

/// Refuse an over-capacity connection with `Busy` on a best-effort
/// write, then drop it.
fn refuse_busy(stream: TcpStream) {
    let mut w = BufWriter::new(stream);
    let resp = Response::Error {
        code: ErrorCode::Busy,
        message: "session pool exhausted; retry later".into(),
    };
    let _ = write_frame(&mut w, &resp.encode());
    let _ = w.flush();
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
            return send_and_close(
                &mut writer,
                Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!(
                        "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"
                    ),
                },
            );
        }
        Request::Hello { .. } => {}
        other => {
            return send_and_close(
                &mut writer,
                Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("expected hello, got {}", other.verb()),
                },
            );
        }
    }
    for mw in &shared.middleware {
        if let Err(resp) = mw.on_request(&session, &hello) {
            return send_and_close(&mut writer, resp);
        }
    }
    session.authed = true;
    shared.metrics.registry.event_at(
        Level::Debug,
        "session",
        format!("open id={} peer={}", session.id, session.peer),
    );
    write_frame(
        &mut writer,
        &Response::HelloOk {
            version: PROTOCOL_VERSION,
            epoch: session.epoch(),
        }
        .encode(),
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
            write_frame(writer, &resp.encode())?;
            if fatal {
                return Ok(());
            }
            continue;
        }

        let start = Instant::now();
        let mut explain = None;
        let gate_span = tr.begin("gate");
        let permit = shared.gate.try_enter();
        tr.event(|| match permit {
            Some(_) => "admitted",
            None => "busy: in-flight limit reached",
        });
        tr.end(gate_span);
        let resp = match permit {
            None => {
                shared.metrics.busy.inc();
                Response::Error {
                    code: ErrorCode::Busy,
                    message: "too many in-flight requests; retry later".into(),
                }
            }
            Some(permit) => {
                shared.metrics.in_flight.add(1);
                let ex_span = tr.begin("execute");
                let (resp, ex) = execute(shared, session, &req, &mut tr);
                explain = ex;
                tr.end(ex_span);
                shared.metrics.in_flight.add(-1);
                drop(permit);
                resp
            }
        };
        session.requests += 1;
        if let Response::Error { code, .. } = &resp {
            shared.metrics.on_error(*code);
        }
        for mw in &shared.middleware {
            mw.on_response(session, &req, &resp, start.elapsed());
        }
        // Publish the trace, and capture a slow-query record when a
        // Query breached the armed threshold — the measured explain
        // from the execution rides along.
        if let (Some(trace), Some(threshold), Request::Query { plan }) =
            (tr.finish(traces), slow.threshold_nanos(), &req)
        {
            let total = trace.total_nanos;
            if total > threshold {
                slow.record(SlowQueryRecord {
                    trace: Arc::unwrap_or_clone(trace),
                    verb: "query".into(),
                    plan: format!("{:?}", plan.names),
                    explain: explain.map(|e| e.to_string()).unwrap_or_default(),
                    total_nanos: total,
                    threshold_nanos: threshold,
                    at_unix_micros: unix_micros(),
                });
            }
        }
        let bye = matches!(resp, Response::Bye);
        write_frame(writer, &resp.encode())?;
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
    send_and_close(
        writer,
        Response::Error {
            code: ErrorCode::BadRequest,
            message: err.to_string(),
        },
    )
}

fn send_and_close(writer: &mut BufWriter<TcpStream>, resp: Response) -> Result<(), WireError> {
    write_frame(writer, &resp.encode())
}

/// Execute one admitted request against the session's pinned snapshot.
/// Queries run through the kernel's one snapshot executor, which records
/// scan/pivot/post-pass child spans into `tr` (or nothing when it is
/// inert) and returns the measured whole-plan [`PlanExplain`] — store
/// fetch, then rows into and out of every step below and above the
/// pivot — for slow-query capture; the frame is the same either way.
fn execute(
    shared: &Shared,
    session: &mut Session,
    req: &Request,
    tr: &mut ActiveTrace,
) -> (Response, Option<PlanExplain>) {
    let flor = &shared.flor;
    let resp = match req {
        Request::Hello { .. } => Response::Error {
            code: ErrorCode::BadRequest,
            message: "duplicate hello".into(),
        },
        Request::Query { plan } => {
            return match flor.execute_at(session.snapshot(), plan, tr) {
                Ok((df, ex)) => (
                    Response::Frame {
                        epoch: session.epoch(),
                        df,
                    },
                    Some(ex),
                ),
                Err(e) => (
                    Response::Error {
                        code: ErrorCode::Internal,
                        message: e.to_string(),
                    },
                    None,
                ),
            };
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
    (resp, None)
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
