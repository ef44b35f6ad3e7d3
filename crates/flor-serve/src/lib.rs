//! # flor-serve — a multi-client dataframe server over FlorDB
//!
//! The paper's deployments put many readers (dashboards, notebooks,
//! pipeline stages) behind one FlorDB instance. This crate is that
//! serving layer: a session-oriented, length-prefixed wire protocol
//! over TCP — std-only, thread-per-connection with a bounded accept
//! pool — where concurrent clients open sessions, submit serialized
//! [`flor_view::QueryPlan`]s, and receive dataframe result frames.
//!
//! The core guarantee: **every request is served from a pinned
//! snapshot**. A session pins the current epoch at handshake
//! ([`flor_store::Database::pin`] — O(1), lock-free) and all its queries
//! are answered at exactly that epoch, through the same routing rule as
//! an embedded read ([`flor_view::ViewCatalog::answer`]): a plan with
//! nothing below the pivot but a `latest` reads the kernel's maintained
//! view of its projection, caught up to the session's snapshot; a plan
//! that pushes any other step, or any plan of a session pinned behind the
//! catalog's epoch, runs on [`Flor::execute_at`] — the kernel's one
//! from-scratch executor, the same body the oracle suites call as
//! `run_plan_at`/`run_plan_full`. Either way the answer's frame is
//! encoded straight from its shared `Arc`, and results are repeatable
//! and byte-identical to a local `collect_full` at the same epoch, no
//! matter how many commits land while the session is open. A reply is
//! one whole wire frame built in place and written at once. When the
//! answer's frame is one the view catalog keeps (a view's own, or its
//! cached `latest` dedup, with nothing of the plan left to run over it),
//! the server keeps that whole frame beside it, per frame and epoch, and
//! a repeat read at the same epoch writes the kept bytes without
//! encoding or checksumming again; the memory held is at most one frame's
//! bytes per live kept view frame (`serve.wire_memo.bytes`), with no
//! capacity to tune. `Pin`
//! re-pins on demand. A narrow plan costs what it selects, not what the
//! history holds: the executor merges per-segment pivot
//! fragments instead of fetching rows, tests `projid` / `tstamp` /
//! `filename` predicates and loop dimensions on each merged key, and
//! cuts `latest` and top-K before building the frame (see
//! `flor_view::plan` for where each step runs).
//!
//! * [`protocol`] — the wire codec: versioned `Hello`, typed
//!   request/response enums, carried in the store's one frame layout,
//!   `[len u32][xxh64 u64][payload]` (the WAL sums the same layout with
//!   FNV-1a), and decoded through its checked cursor
//!   ([`flor_store::codec`]). Result
//!   frames are columnar: per column a kind, a null bitmap and a typed
//!   payload, strings as a dictionary in first-appearance order plus
//!   codes. The bytes depend on the cells alone, so a served frame is
//!   byte-identical to the encoding of a local `collect_full` at its
//!   epoch, and decoding allocates per distinct string, not per cell;
//! * [`session`] — per-connection pinned-snapshot state plus the global
//!   in-flight admission [`session::Gate`];
//! * [`middleware`] — composable hooks: [`middleware::AuthToken`],
//!   per-session [`middleware::RateLimit`], and
//!   [`middleware::RequestLog`] recording into `flor-obs` (whose
//!   Prometheus rendering the `MetricsPrometheus` verb scrapes);
//! * [`server`] — the blocking accept loop and [`server::ServerHandle`];
//! * [`client`] — the blocking [`client::Client`].
//!
//! **Observability.** The server is traceable end to end. A client can
//! originate a trace context ([`client::Client::query_traced`] wraps the
//! query in [`protocol::Request::Traced`]); the server then records a
//! hierarchical [`flor_obs::Trace`] — middleware verdicts, gate
//! admission, plan execution down to the fragments merged and made, or
//! a `view.plan` span saying how a maintained view was reached — into
//! the served registry's
//! [`flor_obs::TraceStore`], retrievable over the wire with the
//! `Traces` verb. Requests that exceed the registry's slow-query
//! threshold are captured with their whole-plan explain report
//! ([`flor_core::PlanExplain`]: the `logs` fragments merged and made,
//! then counts into and out of the store and key predicates, the merge,
//! the `latest` and top-K cuts, the pivot and the post-pass — or, for a
//! view answer, the view and the epoch it was read at;
//! `SlowQueries` verb), and the `Health` verb answers a
//! [`protocol::HealthReport`]:
//! epoch, WAL position, checkpoint/compaction counts, session and
//! in-flight occupancy, and — on a follower — the estimated replication
//! lag in pending commits. All of it is off by default and costs two
//! atomic loads per request until enabled: the request loop builds one
//! [`flor_obs::ActiveTrace`] per request and hands it to every stage,
//! and while tracing is off and the slow log unarmed that handle is
//! inert — one middleware loop, one gate block, one query arm, whether
//! or not anyone is watching.
//!
//! **Read-only followers.** Because the protocol is read-only, a second
//! process can serve the same data: open the writer's WAL with
//! [`Flor::open_follower`] and serve it — the server notices the
//! follower handle and runs a poll loop ([`Flor::poll_follower`]) that
//! tails newly committed transactions, bounding staleness by
//! [`ServerConfig::follower_poll`]. Any write attempt on a follower
//! answers a typed `ReadOnly`/`Internal` error.
//!
//! ```no_run
//! use flor_core::Flor;
//! use flor_serve::{Client, ServeExt, ServerConfig};
//! use flor_view::QueryPlan;
//!
//! let flor = Flor::new("demo");
//! flor.set_filename("train.fl");
//! flor.log("loss", 0.5);
//! flor.commit("run").unwrap();
//!
//! let handle = flor.serve("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr(), None).unwrap();
//! let (epoch, df) = client.query(&QueryPlan::new(&["loss"])).unwrap();
//! assert_eq!(df.n_rows(), 1);
//! assert!(epoch >= 1);
//! handle.stop();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod middleware;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::{Client, ServeError};
pub use middleware::{AuthToken, Middleware, Outcome, RateLimit, RequestLog};
pub use protocol::{
    ErrorCode, HealthReport, Request, Response, WireError, DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig, ServerHandle};
pub use session::{Gate, GatePermit, Session};

use flor_core::Flor;

/// Extension trait putting `serve` directly on [`Flor`].
pub trait ServeExt {
    /// Bind `addr` and serve this instance on a background thread (no
    /// middleware; use [`Server::bind`] + [`Server::with_middleware`]
    /// for a custom stack).
    fn serve(&self, addr: &str, cfg: ServerConfig) -> std::io::Result<ServerHandle>;
}

impl ServeExt for Flor {
    fn serve(&self, addr: &str, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        Server::bind(self.clone(), addr, cfg)?.spawn()
    }
}
