//! The flor-serve wire protocol: length-prefixed, checksummed frames
//! carrying typed request/response payloads.
//!
//! A frame on the wire has the WAL's layout — the one layout, writer and
//! reader documented in [`flor_store::codec`] — with its payload summed
//! by [`xxh64`] instead of the WAL's byte-serial FNV-1a, so a flipped bit
//! anywhere in the payload is caught before decoding starts at a fraction
//! of the cost on a wide result frame; this module only
//! decides what each way a stream can end means to a peer
//! ([`WireError`]). The payload's first byte is a kind tag; the rest is
//! the variant body, written with the store's `Vec<u8>` writers and read
//! back through its checked [`Cursor`] and `count` rule. Predicates carry
//! the store's tagged value codec ([`flor_store::codec::encode_value`]).
//!
//! A result dataframe travels by column (`encode_frame`): the row count
//! once, then per column a name, a kind byte, a null bitmap (left out
//! when no cell is null) and a typed payload of the non-null cells —
//! little-endian `i64` / `f64` bits, one byte per bool, a per-column
//! string dictionary in first-appearance order plus 1-, 2- or 4-byte
//! codes, or tagged values for a column of mixed kinds. Decoding shares
//! one `Arc<str>` per dictionary entry across its cells, so it makes no
//! allocation per cell. The bytes are a function of the cells alone —
//! not of `Arc` identity, `Vec` capacity or hash order — so two servers
//! at one epoch send identical frames, and a decoded frame re-encodes to
//! the bytes it came from.
//!
//! Robustness contract (exercised by the `protocol_robustness` and
//! `prop_protocol` tests): a malformed, truncated or oversized frame
//! decodes to a typed [`WireError`] — never a panic, never an allocation
//! the frame's own length does not cover — and the server answers with a
//! typed [`Response::Error`] before dropping that connection only.

use flor_df::{Column, DataFrame, Value};
use flor_obs::{SlowQueryRecord, SpanEvent, SpanId, Trace, TraceId, TraceSpan};
use flor_store::codec::{
    self, decode_value, encode_value, xxh64, CodecError, Cursor, FrameEnd, Put,
};
use flor_store::{CmpOp, Predicate};
use flor_view::QueryPlan;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::Arc;

/// Protocol version carried by [`Request::Hello`]; the server refuses
/// anything else. Version 2 made result frames columnar; version 3 sums
/// every frame, both ways, with [`xxh64`] (version 2 used FNV-1a, as the
/// WAL still does). A version-2 peer's first frame therefore fails its
/// checksum and is answered with a `BadRequest` error before its
/// version is read.
pub const PROTOCOL_VERSION: u16 = 3;

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
        self.put(&mut buf);
        buf
    }

    /// This response as one whole wire frame, header and payload, built
    /// in place ([`codec::framed`]): what the server writes.
    pub(crate) fn framed(&self) -> Result<Vec<u8>, WireError> {
        Ok(codec::framed(u32::MAX, xxh64, |buf| self.put(buf))?)
    }

    /// Append the payload of [`Response::encode`] to `buf`.
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Response::HelloOk { version, epoch } => {
                buf.push(1);
                buf.put_u16(*version);
                buf.put_u64(*epoch);
            }
            Response::Frame { epoch, df } => Response::put_frame_ref(*epoch, df, buf),
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
                report.encode(buf);
            }
            Response::Traces { traces } => {
                buf.push(9);
                buf.put_u32(traces.len() as u32);
                for t in traces {
                    encode_trace(t, buf);
                }
            }
            Response::SlowQueries { records } => {
                buf.push(10);
                buf.put_u32(records.len() as u32);
                for r in records {
                    encode_slow_query(r, buf);
                }
            }
        }
    }

    /// The payload of `Response::Frame { epoch, df }` from a borrowed
    /// frame — what a server sends for a frame it shares with others
    /// (a maintained view) instead of owning.
    pub fn encode_frame_ref(epoch: u64, df: &DataFrame) -> Vec<u8> {
        let mut buf = Vec::new();
        Response::put_frame_ref(epoch, df, &mut buf);
        buf
    }

    /// [`Response::encode_frame_ref`] as one whole wire frame, built in
    /// place ([`codec::framed`]): what the server writes for an answer.
    pub(crate) fn framed_frame_ref(epoch: u64, df: &DataFrame) -> Result<Vec<u8>, WireError> {
        Ok(codec::framed(u32::MAX, xxh64, |buf| {
            Response::put_frame_ref(epoch, df, buf)
        })?)
    }

    /// Append the payload of [`Response::encode_frame_ref`] to `buf`.
    fn put_frame_ref(epoch: u64, df: &DataFrame, buf: &mut Vec<u8>) {
        buf.push(2);
        buf.put_u64(epoch);
        encode_frame(df, buf);
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
    codec::write_frame(w, payload, u32::MAX, xxh64)?;
    w.flush()?;
    Ok(())
}

/// Write whole frame bytes — header and payload, as
/// [`Response::framed`] builds them or a server kept them — in one
/// `write_all`, and flush.
pub(crate) fn write_framed(w: &mut impl Write, frame: &[u8]) -> Result<(), WireError> {
    w.write_all(frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame ([`codec::read_frame`]: the size cap is enforced
/// *before* allocating, the checksum *before* the payload is returned).
/// On a socket, a stream that ends — even between frames — is the peer
/// gone.
pub fn read_frame(r: &mut impl Read, max_bytes: u32) -> Result<Vec<u8>, WireError> {
    codec::read_frame(r, max_bytes, xxh64)?.map_err(|end| match end {
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

/// Column kinds of the frame layout ([`encode_frame`]). The four typed
/// kinds share the value codec's tags; `COL_NULL` is a column without a
/// non-null cell, `COL_MIXED` one holding more than one kind.
const COL_NULL: u8 = 0;
const COL_BOOL: u8 = 1;
const COL_INT: u8 = 2;
const COL_FLOAT: u8 = 3;
const COL_STR: u8 = 4;
const COL_MIXED: u8 = 5;

/// Flag on a column's kind byte: no cell is null, so no bitmap follows.
const DENSE: u8 = 0x80;

/// The least a frame column occupies besides its rows: its name's
/// `[len u32]` and its kind byte.
const MIN_COLUMN_BYTES: usize = MIN_STR_BYTES + 1;

/// Encode a dataframe column by column:
///
/// ```text
/// [n_rows u32][n_cols u32]
/// per column: [name][kind u8][null bitmap: ceil(n_rows / 8) bytes][payload]
/// ```
///
/// A column without a null cell sets [`DENSE`] on its kind and sends no
/// bitmap. Otherwise bit `i % 8` of bitmap byte `i / 8` is set when row
/// `i` holds a value, and the padding bits are clear. The payload carries
/// the non-null cells only, in row order, by the column's kind:
///
/// * `Bool`: one byte (0 or 1) per cell;
/// * `Int` / `Float`: 8 little-endian bytes per cell, a float as its
///   `to_bits` pattern;
/// * `Str`: a dictionary `[n u32][str]...` of the column's distinct
///   strings in first-appearance order, then one little-endian code per
///   cell, 1, 2 or 4 bytes wide as the dictionary holds at most 2^8, at
///   most 2^16 or more entries;
/// * `Mixed` (more than one non-null kind): one tagged value per cell
///   ([`encode_value`]);
/// * `Null` (no non-null cell): nothing.
///
/// A row costs at least one bit in every column, so a declared row count
/// is held against the bytes that follow it. The bytes are a function of
/// the cells alone: no `Arc` identity, `Vec` capacity or hash order
/// reaches them, so two servers at one epoch send identical frames and
/// `encode(decode(bytes)) == bytes`.
fn encode_frame(df: &DataFrame, buf: &mut Vec<u8>) {
    let n_rows = df.n_rows();
    buf.put_u32(n_rows as u32);
    buf.put_u32(df.columns().len() as u32);
    for col in df.columns() {
        buf.put_str(&col.name);
        let kind = column_kind(&col.values);
        if col.has_nulls() {
            buf.push(kind);
            let bitmap = buf.len();
            buf.resize(bitmap + n_rows.div_ceil(8), 0);
            for (i, v) in col.values.iter().enumerate() {
                if !v.is_null() {
                    buf[bitmap + i / 8] |= 1 << (i % 8);
                }
            }
        } else {
            buf.push(kind | DENSE);
        }
        let cells = col.values.iter().filter(|v| !v.is_null());
        match kind {
            COL_STR => encode_strings(cells, buf),
            COL_MIXED => cells.for_each(|v| encode_value(v, buf)),
            _ => cells.for_each(|v| match v {
                Value::Bool(b) => buf.push(*b as u8),
                Value::Int(i) => buf.extend_from_slice(&i.to_le_bytes()),
                Value::Float(f) => buf.extend_from_slice(&f.to_bits().to_le_bytes()),
                Value::Null | Value::Str(_) => {}
            }),
        }
    }
}

/// The kind shared by a column's non-null cells: `COL_NULL` when there
/// are none, `COL_MIXED` when they differ.
fn column_kind(values: &[Value]) -> u8 {
    let mut kinds = values.iter().filter_map(|v| match v {
        Value::Null => None,
        Value::Bool(_) => Some(COL_BOOL),
        Value::Int(_) => Some(COL_INT),
        Value::Float(_) => Some(COL_FLOAT),
        Value::Str(_) => Some(COL_STR),
    });
    match kinds.next() {
        None => COL_NULL,
        Some(k) if kinds.all(|other| other == k) => k,
        Some(_) => COL_MIXED,
    }
}

/// Bytes per dictionary code for a dictionary of `entries` strings.
fn code_width(entries: usize) -> usize {
    match entries {
        0..=0x100 => 1,
        0x101..=0x1_0000 => 2,
        _ => 4,
    }
}

/// A string column's payload: the dictionary in first-appearance order,
/// then the cells' codes. A cell equal to the one before it (the same
/// `Arc`, or the same text) skips the hash lookup.
fn encode_strings<'a>(cells: impl Iterator<Item = &'a Value>, buf: &mut Vec<u8>) {
    let mut codes: HashMap<&str, u32> = HashMap::new();
    let mut dict: Vec<&str> = Vec::new();
    let mut seq: Vec<u32> = Vec::new();
    let mut prev: Option<(&str, u32)> = None;
    for s in cells.filter_map(Value::as_str) {
        let code = match prev {
            Some((p, code)) if std::ptr::eq(p, s) || p == s => code,
            _ => *codes.entry(s).or_insert_with(|| {
                dict.push(s);
                dict.len() as u32 - 1
            }),
        };
        prev = Some((s, code));
        seq.push(code);
    }
    buf.put_u32(dict.len() as u32);
    for s in &dict {
        buf.put_str(s);
    }
    let width = code_width(dict.len());
    for code in seq {
        buf.extend_from_slice(&code.to_le_bytes()[..width]);
    }
}

/// Decode [`encode_frame`]'s layout. Each declared count is held against
/// the unread bytes before anything is allocated: `n_cols` columns of at
/// least a name, a kind byte and one bit per row each, a dictionary of at
/// least `[len u32]` per entry, and each payload taken whole before its
/// cells are built. A string cell is a clone of its dictionary entry's
/// `Arc`, so no cell allocates.
fn decode_frame(c: &mut Cursor) -> Result<DataFrame, WireError> {
    let n_rows = c.u32()? as usize;
    let n_cols = c.count(Cursor::u32, MIN_COLUMN_BYTES + n_rows.div_ceil(8))?;
    if n_cols == 0 && n_rows != 0 {
        return Err(malformed("rows without columns"));
    }
    let cols = (0..n_cols)
        .map(|_| decode_column(c, n_rows))
        .collect::<Result<Vec<_>, _>>()?;
    DataFrame::from_columns(cols).map_err(|e| malformed(e.to_string()))
}

fn decode_column(c: &mut Cursor, n_rows: usize) -> Result<Column, WireError> {
    let name = get_str(c)?;
    let kind = c.u8()?;
    let (bitmap, present) = match kind & DENSE {
        0 => {
            let bitmap = c.take(n_rows.div_ceil(8))?;
            if !n_rows.is_multiple_of(8) && bitmap.last().is_some_and(|b| b >> (n_rows % 8) != 0) {
                return Err(malformed("null bitmap padding set"));
            }
            let present = bitmap.iter().map(|b| b.count_ones() as usize).sum();
            (Some(bitmap), present)
        }
        _ => (None, n_rows),
    };
    // The `present` non-null cells, each payload taken whole first.
    let cells: Vec<Value> = match kind & !DENSE {
        COL_NULL if present == 0 => Vec::new(),
        COL_BOOL => {
            let bytes = c.take(present)?;
            if bytes.iter().any(|&b| b > 1) {
                return Err(malformed("bool cell out of range"));
            }
            bytes.iter().map(|&b| Value::Bool(b == 1)).collect()
        }
        COL_INT => c
            .take(present * 8)?
            .chunks_exact(8)
            .map(|b| Value::Int(le(b) as i64))
            .collect(),
        COL_FLOAT => c
            .take(present * 8)?
            .chunks_exact(8)
            .map(|b| Value::Float(f64::from_bits(le(b))))
            .collect(),
        COL_STR => {
            let dict = get_list(c, MIN_STR_BYTES, |c| {
                Ok(Arc::<str>::from(c.str(Cursor::u32)?))
            })?;
            let width = code_width(dict.len());
            let codes = c
                .take(present * width)?
                .chunks_exact(width)
                .map(|b| le(b) as usize);
            if codes.clone().any(|code| code >= dict.len()) {
                return Err(malformed("string code outside the dictionary"));
            }
            codes
                .map(|code| Value::Str(Arc::clone(&dict[code])))
                .collect()
        }
        COL_MIXED => (0..present)
            .map(|_| match decode_value(c)? {
                Value::Null => Err(malformed("null cell marked present")),
                v => Ok(v),
            })
            .collect::<Result<_, WireError>>()?,
        COL_NULL => return Err(malformed("null column with present cells")),
        k => return Err(WireError::Codec(CodecError::BadTag(k))),
    };
    let values = match bitmap {
        None => cells,
        // The set bits take the cells in order; there are exactly as
        // many cells as set bits.
        Some(bitmap) => {
            let mut cells = cells.into_iter();
            (0..n_rows)
                .map(|i| match bitmap[i / 8] >> (i % 8) & 1 {
                    0 => Value::Null,
                    _ => cells.next().unwrap_or(Value::Null),
                })
                .collect()
        }
    };
    Ok(Column { name, values })
}

/// A little-endian word of up to 8 bytes.
fn le(b: &[u8]) -> u64 {
    b.iter().rev().fold(0, |word, &x| word << 8 | u64::from(x))
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

    /// An int column with a null, a dense string column with a repeat and
    /// a mixed column with a null.
    fn sample_frame() -> DataFrame {
        DataFrame::from_rows(
            vec!["n", "s", "m"],
            vec![
                vec![Value::Int(1), Value::from("ab"), Value::Bool(true)],
                vec![Value::Null, Value::from("c"), Value::Float(2.5)],
                vec![Value::Int(-2), Value::from("ab"), Value::Null],
            ],
        )
        .expect("frame")
    }

    /// Pinned payloads. The request is exactly what builds before the
    /// checked cursor sent; the result frame is the columnar layout of
    /// protocol version 2 ([`sample_frame`]), which version 3 keeps.
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
        assert_eq!(
            hex(&Response::Frame {
                epoch: 7,
                df: sample_frame()
            }
            .encode()),
            // kind, epoch, rows, columns; then each column's name, kind,
            // null bitmap and payload
            "02\
             0000000000000007\
             00000003\
             00000003\
             000000016e\
             02\
             05\
             0100000000000000\
             feffffffffffffff\
             0000000173\
             84\
             00000002\
             000000026162\
             0000000163\
             000100\
             000000016d\
             05\
             03\
             0101\
             034004000000000000"
        );
    }

    /// Whole frames of protocol version 3, header and payload: a
    /// `Hello`, a `Pin` and a 2-row result, each summed with XXH64. A change to
    /// the wire's bytes fails here, so it has to bump
    /// [`PROTOCOL_VERSION`] on purpose.
    #[test]
    fn version_3_frames_are_pinned() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let hello = Request::Hello {
            version: 3,
            token: None,
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &hello.encode()).expect("write");
        assert_eq!(
            hex(&wire),
            // length, sum; kind, version, no token
            "00000004\
             1912041f97de7372\
             01\
             0003\
             00"
        );
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Pin.encode()).expect("write");
        assert_eq!(hex(&wire), "000000011f25c8d0bc1f4bb603");
        let df = DataFrame::from_rows(
            vec!["loss", "run"],
            vec![
                vec![Value::Float(0.5), Value::from("a")],
                vec![Value::Null, Value::from("b")],
            ],
        )
        .expect("frame");
        let frame = Response::Frame { epoch: 4, df }.framed().expect("framed");
        assert_eq!(
            hex(&frame),
            // length, sum; kind, epoch, rows, columns; then each
            // column's name, kind, null bitmap and payload
            "0000003b\
             3de02727616ada9b\
             02\
             0000000000000004\
             00000002\
             00000002\
             000000046c6f7373\
             03\
             01\
             000000000000e03f\
             0000000372756e\
             84\
             00000002\
             0000000161\
             0000000162\
             0001"
        );
    }

    #[test]
    fn frame_bytes_depend_on_the_cells_alone() {
        let rows = sample_frame();
        // The same cells from separately allocated strings, column-major
        // and with spare capacity.
        let column = |name: &str, cells: [Value; 3]| {
            let mut values = Vec::with_capacity(64);
            values.extend(cells);
            Column {
                name: name.into(),
                values,
            }
        };
        let owned = |s: &str| Value::from(String::from(s));
        let cols = DataFrame::from_columns(vec![
            column("n", [Value::Int(1), Value::Null, Value::Int(-2)]),
            column("s", [owned("ab"), owned("c"), owned("ab")]),
            column("m", [Value::Bool(true), Value::Float(2.5), Value::Null]),
        ])
        .expect("frame");
        let bytes = Response::Frame {
            epoch: 7,
            df: rows.clone(),
        }
        .encode();
        assert_eq!(bytes, Response::Frame { epoch: 7, df: rows }.encode());
        assert_eq!(bytes, Response::Frame { epoch: 7, df: cols }.encode());
        let decoded = Response::decode(&bytes).expect("decode");
        assert_eq!(decoded.encode(), bytes);
        // The two "ab" cells share their dictionary entry's `Arc`.
        let Response::Frame { df, .. } = decoded else {
            panic!("not a frame")
        };
        let s = &df.column("s").expect("column s").values;
        let (Value::Str(first), Value::Str(last)) = (&s[0], &s[2]) else {
            panic!("not strings")
        };
        assert!(Arc::ptr_eq(first, last));
    }

    #[test]
    fn string_codes_widen_with_the_dictionary() {
        for (distinct, width) in [(256, 1), (257, 2), (65_536, 2), (65_537, 4)] {
            // Every string, then the first again: one repeat.
            let strs: Vec<String> = (0..distinct).map(|i| format!("{i}")).collect();
            let mut cells: Vec<Value> = strs.iter().map(|s| Value::from(s.as_str())).collect();
            cells.push(cells[0].clone());
            let n_rows = cells.len();
            let df = DataFrame::from_columns(vec![Column::new("s", cells)]).expect("frame");
            let resp = Response::Frame { epoch: 1, df };
            let bytes = resp.encode();
            let dict: usize = strs.iter().map(|s| MIN_STR_BYTES + s.len()).sum();
            // No null: no bitmap.
            let head = 1 + 8 + 4 + 4 + MIN_COLUMN_BYTES + 1 + 4;
            assert_eq!(
                bytes.len(),
                head + dict + n_rows * width,
                "{distinct} strings"
            );
            let decoded = Response::decode(&bytes).expect("decode");
            assert_eq!(decoded, resp);
            assert_eq!(decoded.encode(), bytes);
        }
    }

    #[test]
    fn unknown_kind_is_typed() {
        assert!(matches!(
            Request::decode([200u8]),
            Err(WireError::UnknownKind(200))
        ));
    }
}
