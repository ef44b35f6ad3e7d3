//! # FlorDB (Rust) — Incremental Context Maintenance for the ML Lifecycle
//!
//! A from-scratch Rust reproduction of *Flow with FlorDB: Incremental
//! Context Maintenance for the Machine Learning Lifecycle* (CIDR 2025).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`df`] | columnar DataFrames (`pivot`, `join`, `latest`) |
//! | [`store`] | embedded relational engine (WAL, indexes, txn visibility) |
//! | [`git`] | gitlite change-context substrate (SHA-256, commits, diffs) |
//! | [`script`] | florscript: the instrumented mini-language |
//! | [`ml`] | deterministic SGD training substrate |
//! | [`diff`] | GumTree-style AST diff + statement propagation |
//! | [`record`] | record/replay: checkpoints, planning, parallelism |
//! | [`make`] | Make-lite build DAG (behavioral context) |
//! | [`view`] | incremental materialized views + the canonical query plan |
//! | [`jobs`] | durable background scheduler (prioritized, cancellable, crash-resumable) |
//! | [`obs`] | zero-dependency metrics: counters, histograms, spans, events |
//! | [`core`] | the Flor kernel: `log`/`arg`/`loop`/`commit`/`query` |
//! | [`serve`] | multi-client dataframe server + read-only followers |
//! | [`pipeline`] | the PDF Parser demo (paper §4) |
//!
//! ## Querying the context
//!
//! Everything logged through the kernel is read back through **one lazy
//! query builder**, [`core::Flor::query`]: project the log names you
//! want, filter, deduplicate to the latest run per group, order, limit —
//! then `collect`. The plan lowers through three layers: index-backed
//! predicate pushdown in the store, an incrementally maintained
//! materialized view (deltas, not re-pivots), and a cheap dataframe
//! post-pass for whatever remains. Served from scratch
//! ([`core::Flor::execute_at`]), the same plan pushes its index
//! predicates into the store fetch and cuts `latest` / top-K before the
//! pivot, so a narrow answer costs what it selects.
//!
//! ```
//! use flordb::prelude::*;
//!
//! let flor = Flor::new("quickstart");
//! flor.set_filename("train.fl");
//! for run in 0..3i64 {
//!     flor.for_each("epoch", 0..4, |flor, &e| {
//!         let lr = flor.arg("lr", 0.01 * (run + 1) as f64);
//!         flor.log("loss", 1.0 / (run + e + 1) as f64 * lr.as_f64().unwrap());
//!     });
//!     flor.commit("run").unwrap();
//! }
//!
//! // "Which epochs of the high-learning-rate runs lost the least?"
//! let df = flor
//!     .query(&["loss", "arg::lr"])
//!     .filter("arg::lr", CmpOp::Gt, 0.015)
//!     .order_by("loss", true)
//!     .limit(5)
//!     .collect()
//!     .unwrap();
//! assert_eq!(df.n_rows(), 5);
//!
//! // The paper's `flor.dataframe(*names)` is a one-line wrapper over the
//! // same builder:
//! let pivot = flor.dataframe(&["loss"]).unwrap();
//! assert_eq!(pivot.n_rows(), 3 * 4);
//!
//! // And every lazy query equals its from-scratch oracle, cell for cell.
//! let oracle = flor
//!     .query(&["loss", "arg::lr"])
//!     .filter("arg::lr", CmpOp::Gt, 0.015)
//!     .order_by("loss", true)
//!     .limit(5)
//!     .collect_full()
//!     .unwrap();
//! assert_eq!(df, oracle);
//! ```
//!
//! `latest`-style registry reads (paper Fig. 6) ride the same plan:
//! `flor.query(&["acc"]).latest(&["document_value"]).collect()`.
//!
//! ## Background work
//!
//! Retroactive computation — hindsight backfill foremost — runs on the
//! [`jobs`] control plane instead of blocking the process:
//! [`core::Flor::submit_backfill`] returns a [`core::BackfillHandle`]
//! (status, live progress, per-version outcomes streaming in, `wait`,
//! durable `cancel`), recovered values land in live views version by
//! version through the change feed, and a job interrupted by a crash is
//! resumed automatically on the next [`core::Flor::open`]. The classic
//! synchronous [`core::backfill`] is submit-then-wait over the same path.
//! See `examples/background_backfill.rs` for the full workflow.
//!
//! ## Observability
//!
//! Every layer records into one shared [`obs`] registry:
//! [`core::Flor::metrics`] returns a consistent snapshot of commit/WAL/
//! checkpoint/compaction latency histograms, zone-map prune ratios, feed
//! queue depth and shed counts, job queue-wait vs run time, and view
//! hit/miss/rebuild counters — renderable as text or JSON. Per query,
//! `flor.query(..).explain()` executes the plan and returns a
//! [`core::ExplainReport`]: access path, segments pruned, rows examined
//! vs returned, and per-stage timings. See `examples/observability.rs`.
//! For scraping, [`obs::MetricsSnapshot::render_prometheus`] emits the
//! Prometheus exposition format, served over the wire by [`serve`]'s
//! `MetricsPrometheus` verb. Events carry a wall-clock timestamp and a
//! severity [`obs::Level`], filterable with
//! [`core::Flor::metrics`]'s snapshot (`events_at_least`).
//!
//! On top of the metrics sit **request traces** and the **slow-query
//! log**. Enable tracing ([`core::Flor::set_tracing`]) and every query —
//! local or served — records a hierarchical [`obs::Trace`]: middleware
//! verdicts, gate admission, plan execution down to the store scan with
//! zone-map pruning counts, each span nanosecond-timed. Traces land in a
//! bounded in-memory ring ([`obs::TraceStore`], retrievable by
//! [`obs::TraceId`]), cost two atomic loads per request when disabled
//! (the [`obs::ActiveTrace`] handle every stage receives is then inert,
//! so there is one request path and one plan executor, not a traced
//! copy of each), and propagate over the wire: a [`serve`] client can originate the
//! trace id for a query (`query_traced`) and fetch the server-side span
//! tree afterwards (`Traces` verb). Arm a threshold
//! ([`core::Flor::set_slow_query_threshold`]) and every breaching
//! request is captured as a [`obs::SlowQueryRecord`] — full
//! [`core::ExplainReport`] plus the trace — in its own ring
//! (`SlowQueries` verb). The `Health` verb rounds out the ops surface:
//! epoch, WAL position, checkpoint/compaction counts, session and
//! in-flight occupancy, and follower replication lag. See
//! `examples/tracing.rs`.
//!
//! ## Serving
//!
//! [`serve`] puts many clients behind one instance: a session-oriented,
//! length-prefixed TCP protocol (std-only, thread-per-connection with a
//! bounded accept pool) where each session pins a snapshot at handshake
//! and every [`view::QueryPlan`] it submits executes at exactly that
//! epoch ([`core::Flor::execute_at`], the kernel's one from-scratch
//! executor) — results are repeatable, and
//! byte-identical to a local `collect_full` at the same epoch, no matter
//! how many commits land meanwhile. Composable middleware adds auth
//! tokens, per-session rate limits and request logging into [`obs`].
//! And because the protocol is read-only, a **second process** can serve
//! the same data: [`core::Flor::open_follower`] bootstraps from the
//! checkpoint sidecar and tails the live WAL ([`store::db`]'s
//! `poll_tail`), so a follower server lags the writer by at most its
//! poll interval and refuses writes with a typed error. See
//! `examples/serve.rs`.
//!
//! ## Concurrency invariants
//!
//! The stack's concurrency contracts are *declared* in `lockorder.toml`
//! at the workspace root and *machine-checked* on every CI run by
//! `cargo run -p flor-audit -- --workspace` (plus the
//! `workspace_is_clean` fixture test). Four invariants hold everywhere:
//!
//! * **Lock order.** Every mutex/rwlock in the workspace is classified
//!   into a named class, and classes form a single hierarchy (outermost
//!   first): `kernel_state` → `jobs_board` → `jobs_ingest` →
//!   `jobs_runner` → `view_catalog` → `git_repo` → `git_vfs` →
//!   `serve_buckets` → `ckpt_serial` → `store_commit` → `feed_queue` →
//!   `obs`. A lock may only be acquired while holding locks that
//!   precede it; the audit also rejects cycles in the *observed*
//!   acquisition graph and any `.lock()`/`.read()`/`.write()` on a
//!   receiver the manifest does not classify. Notably: checkpoints and
//!   compaction serialize on `ckpt_serial` **before** touching the
//!   commit lock, and [`obs`] is innermost so metrics can be recorded
//!   under any other lock.
//! * **No I/O under a guard.** File and network calls while a lock
//!   guard is live are violations. The deliberate exceptions — the WAL
//!   append/fsync under the commit lock that makes commits durable
//!   before readers can observe them — are annotated in place with the
//!   reason, so the exception list lives next to the code.
//! * **Justified atomics.** Every `Ordering::Relaxed` and
//!   `Ordering::SeqCst` carries an `// audit: ordering — <why>`
//!   note explaining why that ordering is sufficient (or necessary).
//! * **Panic-free non-test code.** `.unwrap()`/`.expect()`/`panic!`/
//!   `unreachable!` outside tests and benches must either be replaced
//!   by typed errors or annotated `// audit: allow(panic) — <why it
//!   cannot fire>` with the invariant that protects them.
//!
//! See `crates/flor-audit/README.md` for the annotation grammar, the
//! manifest format, and how to extend the hierarchy when adding a lock.

pub use flor_core as core;
pub use flor_df as df;
pub use flor_diff as diff;
pub use flor_git as git;
pub use flor_jobs as jobs;
pub use flor_make as make;
pub use flor_ml as ml;
pub use flor_obs as obs;
pub use flor_pipeline as pipeline;
pub use flor_record as record;
pub use flor_script as script;
pub use flor_serve as serve;
pub use flor_store as store;
pub use flor_view as view;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use flor_core::{
        backfill, run_script, BackfillHandle, BackfillReport, ExplainReport, Flor, QueryBuilder,
        RunOutcome, VersionOutcome,
    };
    pub use flor_df::{AggFn, DataFrame, JoinKind, Value};
    pub use flor_git::{Repository, VirtualFs};
    pub use flor_jobs::{JobProgress, JobRecord, JobState, JobStats};
    pub use flor_make::{parse_makefile, Makefile};
    pub use flor_obs::{Level, MetricsRegistry, MetricsSnapshot, SlowQueryRecord, Trace, TraceId};
    pub use flor_pipeline::{run_demo, CorpusConfig, PdfPipeline};
    pub use flor_record::{CheckpointPolicy, ReplayControl, RunRecord};
    pub use flor_script::{parse, to_source, Interpreter, NullRuntime};
    pub use flor_serve::{Client, HealthReport, ServeExt, ServerConfig};
    pub use flor_store::{CmpOp, Predicate};
    pub use flor_view::{CatalogStats, QueryPlan, ViewCatalog, ViewKey};
}
