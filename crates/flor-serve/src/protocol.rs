//! The flor-serve wire protocol: length-prefixed, CRC-guarded frames
//! carrying typed request/response payloads.
//!
//! A frame on the wire is the WAL's frame — the one layout, writer and
//! reader documented in [`flor_store::codec`] — so a flipped bit anywhere
//! in the payload is caught before decoding starts; this module only
//! decides what each way a stream can end means to a peer
//! ([`WireError`]). The payload's first byte is a kind tag; the rest is
//! the variant body, written with the store's `Vec<u8>` writers and value
//! codec ([`flor_store::codec::encode_value`]), so the dataframe cells a
//! server ships are byte-identical to what the WAL would persist, and
//! read back through the store's checked [`Cursor`] and its `count` rule.
//!
//! Robustness contract (exercised by the `protocol_robustness` and
//! `prop_protocol` tests): a malformed, truncated or oversized frame
//! decodes to a typed [`WireError`] — never a panic, never an allocation
//! the frame's own length does not cover — and the server answers with a
//! typed [`Response::Error`] before dropping that connection only.

use flor_df::{Column, DataFrame, Value};
use flor_obs::{SlowQueryRecord, SpanEvent, SpanId, Trace, TraceId, TraceSpan};
use flor_store::codec::{self, decode_value, encode_value, CodecError, Cursor, FrameEnd, Put};
use flor_store::{CmpOp, Predicate};
use flor_view::QueryPlan;
use std::io::{Read, Write};

/// Protocol version carried by [`Request::Hello`]; the server refuses
/// anything else.
pub const PROTOCOL_VERSION: u16 = 1;

/// Default per-frame size cap (64 MiB): a frame announcing more than
/// this is rejected as [`WireError::TooLarge`] without allocating.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 1 << 26;

/// Everything that can go wrong on the wire.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure (includes idle-timeout and peer-gone).
    Io(std::io::Error),
    /// Payload failed to decode (truncated, bad tag, malformed).
    Codec(CodecError),
    /// Frame header announced a payload larger than the cap.
    TooLarge {
        /// Announced payload length.
        len: u32,
        /// The enforced cap.
        max: u32,
    },
    /// Frame checksum mismatch: the payload was corrupted in flight.
    BadChecksum,
    /// Unknown request/response kind tag.
    UnknownKind(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::Codec(e) => write!(f, "codec: {e}"),
            WireError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::BadChecksum => write!(f, "frame checksum mismatch"),
            WireError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> WireError {
        WireError::Codec(e)
    }
}

fn malformed(m: impl Into<String>) -> WireError {
    WireError::Codec(CodecError::Malformed(m.into()))
}

/// Typed error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed or protocol-violating request.
    BadRequest,
    /// Auth token missing or wrong.
    Unauthorized,
    /// Accept pool or in-flight limit exhausted; retry later.
    Busy,
    /// Per-session admission rate exceeded; retry later.
    RateLimited,
    /// The server refused a write (read-only follower).
    ReadOnly,
    /// Request was valid but execution failed server-side.
    Internal,
}

impl ErrorCode {
    /// Every code, in tag order — lets the server pre-register one
    /// response counter per code.
    pub(crate) const ALL: [ErrorCode; 6] = [
        ErrorCode::BadRequest,
        ErrorCode::Unauthorized,
        ErrorCode::Busy,
        ErrorCode::RateLimited,
        ErrorCode::ReadOnly,
        ErrorCode::Internal,
    ];

    /// Position in [`ErrorCode::ALL`].
    pub(crate) fn index(self) -> usize {
        self.to_u8() as usize
    }

    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 0,
            ErrorCode::Unauthorized => 1,
            ErrorCode::Busy => 2,
            ErrorCode::RateLimited => 3,
            ErrorCode::ReadOnly => 4,
            ErrorCode::Internal => 5,
        }
    }

    fn from_u8(b: u8) -> Result<ErrorCode, WireError> {
        Ok(match b {
            0 => ErrorCode::BadRequest,
            1 => ErrorCode::Unauthorized,
            2 => ErrorCode::Busy,
            3 => ErrorCode::RateLimited,
            4 => ErrorCode::ReadOnly,
            5 => ErrorCode::Internal,
            k => return Err(WireError::UnknownKind(k)),
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Unauthorized => "unauthorized",
            ErrorCode::Busy => "busy",
            ErrorCode::RateLimited => "rate-limited",
            ErrorCode::ReadOnly => "read-only",
            ErrorCode::Internal => "internal",
        };
        f.write_str(s)
    }
}

/// A client request. The first request on a connection must be
/// [`Request::Hello`]; everything after executes against the session's
/// pinned snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session: protocol version check plus optional auth token.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u16,
        /// Auth token, when the server's middleware demands one.
        token: Option<String>,
    },
    /// Execute a [`QueryPlan`] at the session's pinned epoch.
    Query {
        /// The plan to run.
        plan: QueryPlan,
    },
    /// Re-pin the session to the server's current epoch.
    Pin,
    /// Report the session's pinned epoch and the server's latest.
    Epoch,
    /// Human-readable metrics dump ([`flor_obs::MetricsSnapshot::render_text`]).
    Metrics,
    /// Prometheus scrape ([`flor_obs::MetricsSnapshot::render_prometheus`]).
    MetricsPrometheus,
    /// Orderly goodbye; the server answers [`Response::Bye`] and hangs up.
    Close,
    /// A request wrapped with a client-originated trace context: the
    /// server instruments `inner`'s execution under this [`TraceId`], so
    /// the client can retrieve the server-side trace afterwards via
    /// [`Request::Traces`]. Wrapping never changes `inner`'s result.
    /// Old-style clients simply never send this tag — absent context is
    /// always fine.
    Traced {
        /// The trace identity to record under.
        trace: TraceId,
        /// The request to execute (itself never `Traced`).
        inner: Box<Request>,
    },
    /// Liveness/readiness probe: epoch, WAL position, follower lag,
    /// session and in-flight occupancy ([`Response::Health`]).
    Health,
    /// Retrieve up to `limit` most recent completed traces, newest
    /// first ([`Response::Traces`]).
    Traces {
        /// Maximum traces to return.
        limit: u32,
    },
    /// Retrieve up to `limit` most recent slow-query records, newest
    /// first ([`Response::SlowQueries`]).
    SlowQueries {
        /// Maximum records to return.
        limit: u32,
    },
}

impl Request {
    /// Stable lowercase verb name (metric labels, logs). A traced
    /// request reports its inner verb — the wrapper is transport, not
    /// semantics.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Query { .. } => "query",
            Request::Pin => "pin",
            Request::Epoch => "epoch",
            Request::Metrics => "metrics",
            Request::MetricsPrometheus => "metrics_prometheus",
            Request::Close => "close",
            Request::Traced { inner, .. } => inner.verb(),
            Request::Health => "health",
            Request::Traces { .. } => "traces",
            Request::SlowQueries { .. } => "slow_queries",
        }
    }

    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Hello { version, token } => {
                buf.push(1);
                buf.put_u16(*version);
                match token {
                    None => buf.push(0),
                    Some(t) => {
                        buf.push(1);
                        buf.put_str(t);
                    }
                }
            }
            Request::Query { plan } => {
                buf.push(2);
                encode_plan(plan, &mut buf);
            }
            Request::Pin => buf.push(3),
            Request::Epoch => buf.push(4),
            Request::Metrics => buf.push(5),
            Request::MetricsPrometheus => buf.push(6),
            Request::Close => buf.push(7),
            Request::Traced { trace, inner } => {
                buf.push(KIND_TRACED);
                buf.put_u64(trace.0);
                buf.extend_from_slice(&inner.encode());
            }
            Request::Health => buf.push(9),
            Request::Traces { limit } => {
                buf.push(10);
                buf.put_u32(*limit);
            }
            Request::SlowQueries { limit } => {
                buf.push(11);
                buf.put_u32(*limit);
            }
        }
        buf
    }

    /// Decode a frame payload; trailing bytes are a protocol violation.
    /// A trace context wraps exactly one plain request, so decoding never
    /// recurses: the depth is two whatever the frame holds.
    pub fn decode(buf: impl AsRef<[u8]>) -> Result<Request, WireError> {
        let mut c = Cursor::new(buf.as_ref());
        let req = match c.u8()? {
            KIND_TRACED => Request::Traced {
                trace: TraceId(c.u64()?),
                inner: Box::new(Request::decode_plain(c.u8()?, &mut c)?),
            },
            kind => Request::decode_plain(kind, &mut c)?,
        };
        if !c.is_empty() {
            return Err(malformed("trailing bytes after request"));
        }
        Ok(req)
    }

    /// The body of a request of `kind` that is not a trace context.
    fn decode_plain(kind: u8, c: &mut Cursor) -> Result<Request, WireError> {
        Ok(match kind {
            1 => Request::Hello {
                version: c.u16()?,
                token: match c.u8()? {
                    0 => None,
                    _ => Some(get_str(c)?),
                },
            },
            2 => Request::Query {
                plan: decode_plan(c)?,
            },
            3 => Request::Pin,
            4 => Request::Epoch,
            5 => Request::Metrics,
            6 => Request::MetricsPrometheus,
            7 => Request::Close,
            KIND_TRACED => return Err(malformed("nested trace context")),
            9 => Request::Health,
            10 => Request::Traces { limit: c.u32()? },
            11 => Request::SlowQueries { limit: c.u32()? },
            k => return Err(WireError::UnknownKind(k)),
        })
    }
}

/// Kind tag of [`Request::Traced`], the one request that wraps another.
const KIND_TRACED: u8 = 8;

/// The [`Response::Health`] body: one consistent liveness/readiness
/// picture of the serving instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Whether this instance is a read-only follower.
    pub follower: bool,
    /// Latest committed epoch visible to new sessions.
    pub epoch: u64,
    /// Byte length of the write-ahead log (the follower's applied
    /// cursor position on a follower).
    pub wal_offset_bytes: u64,
    /// Epoch covered by the last completed checkpoint (0 = never).
    pub last_checkpoint_epoch: u64,
    /// Checkpoints completed since open.
    pub checkpoints: u64,
    /// Compaction passes completed since open.
    pub compactions: u64,
    /// Total live rows across tables.
    pub total_rows: u64,
    /// Sessions currently open on the server.
    pub live_sessions: u64,
    /// The accept pool's session cap.
    pub max_sessions: u64,
    /// Requests executing right now (gate occupancy).
    pub in_flight: u64,
    /// The gate's in-flight cap.
    pub max_in_flight: u64,
    /// Follower lag estimate: committed transactions durable in the
    /// writer's log but not applied here. `None` on a writer, and on a
    /// follower whose cursor was just truncated by a writer checkpoint.
    pub follower_lag: Option<u64>,
}

impl HealthReport {
    /// Multi-line operator rendering.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "health: {} epoch={}",
            if self.follower { "follower" } else { "writer" },
            self.epoch
        );
        let _ = writeln!(
            out,
            "  wal: offset={}B checkpoints={} (last epoch {}) compactions={}",
            self.wal_offset_bytes, self.checkpoints, self.last_checkpoint_epoch, self.compactions
        );
        let _ = writeln!(out, "  rows: {}", self.total_rows);
        let _ = writeln!(
            out,
            "  sessions: {}/{} in-flight: {}/{}",
            self.live_sessions, self.max_sessions, self.in_flight, self.max_in_flight
        );
        match self.follower_lag {
            Some(lag) => {
                let _ = writeln!(out, "  follower lag: {lag} commit(s) behind");
            }
            None if self.follower => {
                let _ = writeln!(out, "  follower lag: unknown (writer checkpointed)");
            }
            None => {}
        }
        out
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.follower as u8);
        buf.put_u64(self.epoch);
        buf.put_u64(self.wal_offset_bytes);
        buf.put_u64(self.last_checkpoint_epoch);
        buf.put_u64(self.checkpoints);
        buf.put_u64(self.compactions);
        buf.put_u64(self.total_rows);
        buf.put_u64(self.live_sessions);
        buf.put_u64(self.max_sessions);
        buf.put_u64(self.in_flight);
        buf.put_u64(self.max_in_flight);
        match self.follower_lag {
            None => buf.push(0),
            Some(lag) => {
                buf.push(1);
                buf.put_u64(lag);
            }
        }
    }

    fn decode(c: &mut Cursor) -> Result<HealthReport, WireError> {
        Ok(HealthReport {
            follower: c.u8()? != 0,
            epoch: c.u64()?,
            wal_offset_bytes: c.u64()?,
            last_checkpoint_epoch: c.u64()?,
            checkpoints: c.u64()?,
            compactions: c.u64()?,
            total_rows: c.u64()?,
            live_sessions: c.u64()?,
            max_sessions: c.u64()?,
            in_flight: c.u64()?,
            max_in_flight: c.u64()?,
            follower_lag: match c.u8()? {
                0 => None,
                _ => Some(c.u64()?),
            },
        })
    }
}

impl std::fmt::Display for HealthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.render_text().trim_end())
    }
}

/// A server response; every result frame carries the epoch it was
/// computed at.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session opened, pinned at `epoch`.
    HelloOk {
        /// Server's protocol version.
        version: u16,
        /// The epoch this session is pinned at.
        epoch: u64,
    },
    /// A query result: the dataframe as of the session's pinned epoch.
    Frame {
        /// Epoch the result was computed at.
        epoch: u64,
        /// The result dataframe.
        df: DataFrame,
    },
    /// The session re-pinned to `epoch`.
    Pinned {
        /// New pinned epoch.
        epoch: u64,
    },
    /// Epoch report.
    Epochs {
        /// The session's pinned epoch.
        pinned: u64,
        /// The server's latest committed epoch.
        latest: u64,
    },
    /// A text body (metrics dumps).
    Text {
        /// The rendered body.
        body: String,
    },
    /// A typed failure; the connection stays up unless the error was a
    /// protocol violation.
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Orderly goodbye.
    Bye,
    /// The server's liveness/readiness picture ([`Request::Health`]).
    Health(HealthReport),
    /// Recent completed traces, newest first ([`Request::Traces`]).
    Traces {
        /// The retrieved traces.
        traces: Vec<Trace>,
    },
    /// Recent slow-query records, newest first
    /// ([`Request::SlowQueries`]).
    SlowQueries {
        /// The retrieved records.
        records: Vec<SlowQueryRecord>,
    },
}

impl Response {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::HelloOk { version, epoch } => {
                buf.push(1);
                buf.put_u16(*version);
                buf.put_u64(*epoch);
            }
            Response::Frame { epoch, df } => {
                buf.push(2);
                buf.put_u64(*epoch);
                encode_frame(df, &mut buf);
            }
            Response::Pinned { epoch } => {
                buf.push(3);
                buf.put_u64(*epoch);
            }
            Response::Epochs { pinned, latest } => {
                buf.push(4);
                buf.put_u64(*pinned);
                buf.put_u64(*latest);
            }
            Response::Text { body } => {
                buf.push(5);
                buf.put_str(body);
            }
            Response::Error { code, message } => {
                buf.extend_from_slice(&[6, code.to_u8()]);
                buf.put_str(message);
            }
            Response::Bye => buf.push(7),
            Response::Health(report) => {
                buf.push(8);
                report.encode(&mut buf);
            }
            Response::Traces { traces } => {
                buf.push(9);
                buf.put_u32(traces.len() as u32);
                for t in traces {
                    encode_trace(t, &mut buf);
                }
            }
            Response::SlowQueries { records } => {
                buf.push(10);
                buf.put_u32(records.len() as u32);
                for r in records {
                    encode_slow_query(r, &mut buf);
                }
            }
        }
        buf
    }

    /// Decode a frame payload; trailing bytes are a protocol violation.
    pub fn decode(buf: impl AsRef<[u8]>) -> Result<Response, WireError> {
        let mut c = Cursor::new(buf.as_ref());
        let resp = match c.u8()? {
            1 => Response::HelloOk {
                version: c.u16()?,
                epoch: c.u64()?,
            },
            2 => Response::Frame {
                epoch: c.u64()?,
                df: decode_frame(&mut c)?,
            },
            3 => Response::Pinned { epoch: c.u64()? },
            4 => Response::Epochs {
                pinned: c.u64()?,
                latest: c.u64()?,
            },
            5 => Response::Text {
                body: get_str(&mut c)?,
            },
            6 => Response::Error {
                code: ErrorCode::from_u8(c.u8()?)?,
                message: get_str(&mut c)?,
            },
            7 => Response::Bye,
            8 => Response::Health(HealthReport::decode(&mut c)?),
            9 => Response::Traces {
                traces: get_list(&mut c, MIN_TRACE_BYTES, decode_trace)?,
            },
            10 => Response::SlowQueries {
                records: get_list(&mut c, MIN_SLOW_QUERY_BYTES, decode_slow_query)?,
            },
            k => return Err(WireError::UnknownKind(k)),
        };
        if !c.is_empty() {
            return Err(malformed("trailing bytes after response"));
        }
        Ok(resp)
    }
}

// ---------------------------------------------------------------- frame io

/// Write one frame ([`codec::write_frame`]) and flush. The only cap on
/// this side is the length field's own range.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    codec::write_frame(w, payload, u32::MAX)?;
    w.flush()?;
    Ok(())
}

/// Read one frame ([`codec::read_frame`]: the size cap is enforced
/// *before* allocating, the checksum *before* the payload is returned).
/// On a socket, a stream that ends — even between frames — is the peer
/// gone.
pub fn read_frame(r: &mut impl Read, max_bytes: u32) -> Result<Vec<u8>, WireError> {
    codec::read_frame(r, max_bytes)?.map_err(|end| match end {
        FrameEnd::Clean | FrameEnd::Partial => {
            WireError::Io(std::io::ErrorKind::UnexpectedEof.into())
        }
        FrameEnd::TooLarge { len } => WireError::TooLarge {
            len,
            max: max_bytes,
        },
        FrameEnd::BadChecksum => WireError::BadChecksum,
    })
}

// ------------------------------------------------------------- primitives

/// An owned `[len u32][utf8]` string.
fn get_str(c: &mut Cursor) -> Result<String, WireError> {
    Ok(c.str(Cursor::u32)?.to_owned())
}

/// A `[count u32]`-prefixed list of elements that each occupy at least
/// `min_elem_bytes` (the cursor's `count` rule).
fn get_list<T>(
    c: &mut Cursor,
    min_elem_bytes: usize,
    elem: fn(&mut Cursor) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    (0..c.count(Cursor::u32, min_elem_bytes)?)
        .map(|_| elem(c))
        .collect()
}

fn cmp_to_u8(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn cmp_from_u8(b: u8) -> Result<CmpOp, WireError> {
    Ok(match b {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        k => return Err(WireError::UnknownKind(k)),
    })
}

// ------------------------------------------------------------- query plan

fn encode_plan(plan: &QueryPlan, buf: &mut Vec<u8>) {
    buf.put_u32(plan.names.len() as u32);
    for n in &plan.names {
        buf.put_str(n);
    }
    buf.put_u32(plan.predicates.len() as u32);
    for p in &plan.predicates {
        buf.put_str(&p.col);
        buf.push(cmp_to_u8(p.op));
        encode_value(&p.value, buf);
    }
    match &plan.latest_group {
        None => buf.push(0),
        Some(group) => {
            buf.push(1);
            buf.put_u32(group.len() as u32);
            for g in group {
                buf.put_str(g);
            }
        }
    }
    buf.put_u32(plan.order_by.len() as u32);
    for (col, asc) in &plan.order_by {
        buf.put_str(col);
        buf.push(*asc as u8);
    }
    match plan.limit {
        None => buf.push(0),
        Some(n) => {
            buf.push(1);
            buf.put_u64(n as u64);
        }
    }
}

/// The least a string occupies: its `[len u32]`.
const MIN_STR_BYTES: usize = 4;

fn decode_plan(c: &mut Cursor) -> Result<QueryPlan, WireError> {
    let mut plan = QueryPlan::new(&[]);
    plan.names = get_list(c, MIN_STR_BYTES, get_str)?;
    // A predicate is a column name, an operator byte and a tagged value.
    plan.predicates = get_list(c, MIN_STR_BYTES + 2, |c| {
        Ok(Predicate {
            col: get_str(c)?,
            op: cmp_from_u8(c.u8()?)?,
            value: decode_value(c)?,
        })
    })?;
    if c.u8()? != 0 {
        plan.latest_group = Some(get_list(c, MIN_STR_BYTES, get_str)?);
    }
    plan.order_by = get_list(c, MIN_STR_BYTES + 1, |c| Ok((get_str(c)?, c.u8()? != 0)))?;
    if c.u8()? != 0 {
        plan.limit = Some(c.u64()? as usize);
    }
    Ok(plan)
}

// ----------------------------------------------------------------- traces

fn encode_trace(t: &Trace, buf: &mut Vec<u8>) {
    buf.put_u64(t.id.0);
    buf.put_str(&t.label);
    buf.put_str(&t.detail);
    buf.put_u64(t.started_unix_micros);
    buf.put_u64(t.total_nanos);
    buf.put_u32(t.spans.len() as u32);
    for s in &t.spans {
        buf.put_u32(s.id.0);
        match s.parent {
            None => buf.push(0),
            Some(p) => {
                buf.push(1);
                buf.put_u32(p.0);
            }
        }
        buf.put_str(&s.name);
        buf.put_u64(s.start_nanos);
        buf.put_u64(s.duration_nanos);
        buf.put_u32(s.events.len() as u32);
        for e in &s.events {
            buf.put_u64(e.at_nanos);
            buf.put_str(&e.message);
        }
    }
}

/// Smallest encodings, by the fixed-width fields and empty strings and
/// lists of the layouts above: what [`Cursor::count`] holds a declared
/// count of each against.
const MIN_EVENT_BYTES: usize = 8 + MIN_STR_BYTES;
const MIN_SPAN_BYTES: usize = 4 + 1 + MIN_STR_BYTES + 16 + 4;
const MIN_TRACE_BYTES: usize = 8 + 2 * MIN_STR_BYTES + 16 + 4;
const MIN_SLOW_QUERY_BYTES: usize = MIN_TRACE_BYTES + 3 * MIN_STR_BYTES + 24;

fn decode_trace(c: &mut Cursor) -> Result<Trace, WireError> {
    Ok(Trace {
        id: TraceId(c.u64()?),
        label: get_str(c)?,
        detail: get_str(c)?,
        started_unix_micros: c.u64()?,
        total_nanos: c.u64()?,
        spans: get_list(c, MIN_SPAN_BYTES, |c| {
            Ok(TraceSpan {
                id: SpanId(c.u32()?),
                parent: match c.u8()? {
                    0 => None,
                    _ => Some(SpanId(c.u32()?)),
                },
                name: get_str(c)?,
                start_nanos: c.u64()?,
                duration_nanos: c.u64()?,
                events: get_list(c, MIN_EVENT_BYTES, |c| {
                    Ok(SpanEvent {
                        at_nanos: c.u64()?,
                        message: get_str(c)?,
                    })
                })?,
            })
        })?,
    })
}

fn encode_slow_query(r: &SlowQueryRecord, buf: &mut Vec<u8>) {
    encode_trace(&r.trace, buf);
    buf.put_str(&r.verb);
    buf.put_str(&r.plan);
    buf.put_str(&r.explain);
    buf.put_u64(r.total_nanos);
    buf.put_u64(r.threshold_nanos);
    buf.put_u64(r.at_unix_micros);
}

fn decode_slow_query(c: &mut Cursor) -> Result<SlowQueryRecord, WireError> {
    Ok(SlowQueryRecord {
        trace: decode_trace(c)?,
        verb: get_str(c)?,
        plan: get_str(c)?,
        explain: get_str(c)?,
        total_nanos: c.u64()?,
        threshold_nanos: c.u64()?,
        at_unix_micros: c.u64()?,
    })
}

// -------------------------------------------------------------- dataframe

/// Encode a dataframe column-by-column with the store's value codec, so
/// two servers at the same epoch produce byte-identical frames.
fn encode_frame(df: &DataFrame, buf: &mut Vec<u8>) {
    buf.put_u32(df.columns().len() as u32);
    for col in df.columns() {
        buf.put_str(&col.name);
        buf.put_u32(col.values.len() as u32);
        for v in &col.values {
            encode_value(v, buf);
        }
    }
}

fn decode_frame(c: &mut Cursor) -> Result<DataFrame, WireError> {
    // A column is at least its name and its `[n_rows u32]`; a cell at
    // least its tag byte.
    let cols = get_list(c, MIN_STR_BYTES + 4, |c| {
        let name = get_str(c)?;
        let n_rows = c.count(Cursor::u32, 1)?;
        let mut values: Vec<Value> = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            values.push(decode_value(c)?);
        }
        Ok(Column::new(name, values))
    })?;
    DataFrame::from_columns(cols).map_err(|e| malformed(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let decoded = Request::decode(req.encode()).expect("decode");
        assert_eq!(decoded, req);
    }

    fn roundtrip_resp(resp: Response) {
        let decoded = Response::decode(resp.encode()).expect("decode");
        assert_eq!(decoded, resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Hello {
            version: PROTOCOL_VERSION,
            token: None,
        });
        roundtrip_req(Request::Hello {
            version: 9,
            token: Some("s3cret".into()),
        });
        let plan = QueryPlan::with_latest(&["loss", "acc"], &["filename"])
            .filter("tstamp", CmpOp::Ge, 3i64)
            .filter("loss", CmpOp::Lt, 0.5f64);
        let mut plan = plan;
        plan.order_by.push(("tstamp".into(), false));
        plan.limit = Some(10);
        roundtrip_req(Request::Query { plan });
        roundtrip_req(Request::Pin);
        roundtrip_req(Request::Epoch);
        roundtrip_req(Request::Metrics);
        roundtrip_req(Request::MetricsPrometheus);
        roundtrip_req(Request::Close);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::HelloOk {
            version: 1,
            epoch: 42,
        });
        let df = DataFrame::from_rows(
            vec!["a", "b"],
            vec![
                vec![Value::Int(1), Value::from("x")],
                vec![Value::Null, Value::Float(2.5)],
            ],
        )
        .expect("frame");
        roundtrip_resp(Response::Frame { epoch: 7, df });
        roundtrip_resp(Response::Pinned { epoch: 3 });
        roundtrip_resp(Response::Epochs {
            pinned: 3,
            latest: 9,
        });
        roundtrip_resp(Response::Text {
            body: "# TYPE x counter\nx 1\n".into(),
        });
        roundtrip_resp(Response::Error {
            code: ErrorCode::RateLimited,
            message: "slow down".into(),
        });
        roundtrip_resp(Response::Bye);
    }

    fn sample_trace() -> Trace {
        Trace {
            id: TraceId(0xdead_beef),
            label: "query".into(),
            detail: "session 3 peer 127.0.0.1:9".into(),
            started_unix_micros: 1_700_000_000_000_000,
            total_nanos: 123_456,
            spans: vec![
                TraceSpan {
                    id: SpanId(0),
                    parent: None,
                    name: "request".into(),
                    start_nanos: 0,
                    duration_nanos: 123_000,
                    events: vec![],
                },
                TraceSpan {
                    id: SpanId(1),
                    parent: Some(SpanId(0)),
                    name: "store.scan".into(),
                    start_nanos: 10,
                    duration_nanos: 99,
                    events: vec![SpanEvent {
                        at_nanos: 12,
                        message: "access=index-in(value_name)".into(),
                    }],
                },
            ],
        }
    }

    #[test]
    fn ops_requests_roundtrip() {
        roundtrip_req(Request::Health);
        roundtrip_req(Request::Traces { limit: 16 });
        roundtrip_req(Request::SlowQueries { limit: 0 });
        roundtrip_req(Request::Traced {
            trace: TraceId(42),
            inner: Box::new(Request::Query {
                plan: QueryPlan::new(&["loss"]),
            }),
        });
        roundtrip_req(Request::Traced {
            trace: TraceId(7),
            inner: Box::new(Request::Pin),
        });
    }

    #[test]
    fn nested_trace_context_is_rejected() {
        let inner = Request::Traced {
            trace: TraceId(1),
            inner: Box::new(Request::Pin),
        };
        let bad = Request::Traced {
            trace: TraceId(2),
            inner: Box::new(inner),
        };
        assert!(Request::decode(bad.encode()).is_err());
    }

    #[test]
    fn deeply_nested_trace_context_is_rejected_without_recursing() {
        // 200,000 trace headers in a 1.8 MB payload, far under the frame
        // cap: one stack frame per header would overflow the stack.
        let mut deep = Vec::new();
        for id in 0..200_000u64 {
            deep.push(KIND_TRACED);
            deep.put_u64(id);
        }
        deep.extend_from_slice(&Request::Pin.encode());
        assert!(matches!(
            Request::decode(deep),
            Err(WireError::Codec(CodecError::Malformed(m))) if m == "nested trace context"
        ));
    }

    #[test]
    fn ops_responses_roundtrip() {
        roundtrip_resp(Response::Health(HealthReport {
            follower: true,
            epoch: 9,
            wal_offset_bytes: 4096,
            last_checkpoint_epoch: 5,
            checkpoints: 2,
            compactions: 1,
            total_rows: 1234,
            live_sessions: 3,
            max_sessions: 32,
            in_flight: 1,
            max_in_flight: 8,
            follower_lag: Some(4),
        }));
        roundtrip_resp(Response::Health(HealthReport {
            follower: false,
            epoch: 0,
            wal_offset_bytes: 0,
            last_checkpoint_epoch: 0,
            checkpoints: 0,
            compactions: 0,
            total_rows: 0,
            live_sessions: 0,
            max_sessions: 0,
            in_flight: 0,
            max_in_flight: 0,
            follower_lag: None,
        }));
        roundtrip_resp(Response::Traces {
            traces: vec![sample_trace(), sample_trace()],
        });
        roundtrip_resp(Response::Traces { traces: vec![] });
        roundtrip_resp(Response::SlowQueries {
            records: vec![SlowQueryRecord {
                trace: sample_trace(),
                verb: "query".into(),
                plan: "[\"loss\"]".into(),
                explain: "QUERY logs via index-in(value_name)\n  rows: 3".into(),
                total_nanos: 5_000_000,
                threshold_nanos: 1_000_000,
                at_unix_micros: 1_700_000_000_000_001,
            }],
        });
    }

    #[test]
    fn truncated_ops_payloads_yield_typed_errors() {
        let traced = Request::Traced {
            trace: TraceId(3),
            inner: Box::new(Request::Query {
                plan: QueryPlan::new(&["loss"]).filter("tstamp", CmpOp::Ge, 1i64),
            }),
        }
        .encode();
        for cut in 0..traced.len() {
            assert!(
                Request::decode(&traced[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let resp = Response::Traces {
            traces: vec![sample_trace()],
        }
        .encode();
        for cut in 0..resp.len() {
            assert!(
                Response::decode(&resp[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn frame_io_roundtrips_and_checks_crc() {
        let payload = Request::Pin.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).expect("write");
        let got = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME_BYTES).expect("read");
        assert_eq!(got, payload);

        // Flip one payload byte: the checksum must catch it.
        let mut corrupt = wire.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        assert!(matches!(
            read_frame(&mut corrupt.as_slice(), DEFAULT_MAX_FRAME_BYTES),
            Err(WireError::BadChecksum)
        ));
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        wire.extend_from_slice(&0u64.to_be_bytes());
        assert!(matches!(
            read_frame(&mut wire.as_slice(), 1024),
            Err(WireError::TooLarge { len: u32::MAX, .. })
        ));
    }

    #[test]
    fn truncated_payloads_yield_typed_errors() {
        // Every prefix of a valid encoding must fail cleanly, not panic.
        let plan =
            QueryPlan::with_latest(&["loss"], &["filename"]).filter("tstamp", CmpOp::Ge, 3i64);
        let full = Request::Query { plan }.encode();
        for cut in 0..full.len() {
            let res = Request::decode(&full[..cut]);
            assert!(res.is_err(), "prefix of {cut} bytes decoded");
        }
        // And trailing garbage is rejected too.
        let mut extended = full.clone();
        extended.push(0);
        assert!(Request::decode(extended).is_err());
    }

    /// Payloads and a framed message exactly as builds before the checked
    /// cursor wrote them: the wire format did not move.
    #[test]
    fn wire_bytes_are_what_earlier_builds_sent() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let mut plan = QueryPlan::with_latest(&["loss", "acc"], &["filename"])
            .filter("tstamp", CmpOp::Ge, 3i64)
            .filter("loss", CmpOp::Lt, 0.5f64);
        plan.order_by.push(("tstamp".into(), false));
        plan.limit = Some(10);
        let req = Request::Traced {
            trace: TraceId(7),
            inner: Box::new(Request::Query { plan }),
        };
        assert_eq!(
            hex(&req.encode()),
            "0800000000000000070200000002000000046c6f7373000000036163630000000200\
             000006747374616d7005020000000000000003000000046c6f737302033fe0000000\
             00000001000000010000000866696c656e616d650000000100000006747374616d70\
             0001000000000000000a"
        );
        let df = DataFrame::from_rows(
            vec!["a", "b"],
            vec![
                vec![Value::Int(1), Value::from("x")],
                vec![Value::Null, Value::Float(2.5)],
                vec![Value::Bool(true), Value::from("")],
            ],
        )
        .expect("frame");
        assert_eq!(
            hex(&Response::Frame { epoch: 7, df }.encode()),
            "02000000000000000700000002000000016100000003020000000000000001000101\
             0000000162000000030400000001780340040000000000000400000000"
        );
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Pin.encode()).expect("write");
        assert_eq!(hex(&wire), "00000001af63be4c8601b99203");
    }

    #[test]
    fn unknown_kind_is_typed() {
        assert!(matches!(
            Request::decode([200u8]),
            Err(WireError::UnknownKind(200))
        ));
    }
}
