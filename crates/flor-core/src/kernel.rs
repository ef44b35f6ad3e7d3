//! The Flor kernel: the paper's API (§2.1) over the Fig. 1 data model.
//!
//! A [`Flor`] instance owns the relational store, the gitlite repository
//! and the virtual working tree, plus the session state the paper says is
//! "captured at the time of import and embedded within every log entry":
//! `projid`, logical `tstamp`, executing `filename`, and the nested
//! loop-context (`ctx_id`) stack.

use crate::jobs::JobOutcome;
use flor_df::{DataFrame, Value};
use flor_git::{Oid, Repository, VirtualFs};
use flor_jobs::JobRunner;
use flor_obs::{MetricsRegistry, MetricsSnapshot};
use flor_store::{flor_schema, CompactionTrigger, Database, StoreError, StoreResult, TailProgress};
use flor_view::ViewCatalog;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Values longer than this spill to `obj_store` (Fig. 1), leaving a stub in
/// `logs.value`.
pub const BLOB_SPILL_BYTES: usize = 4096;

/// How many materialized views a kernel's catalog keeps before LRU
/// eviction kicks in. Embedded reads ([`Flor::dataframe`],
/// [`Flor::run_plan`]) and the projections `flor-serve` answers from the
/// catalog (plans with nothing below the pivot) share these slots. A
/// miss whose names one of the cached views covers is selected from it;
/// only a miss none covers merges history, so a slot holding a wide view
/// keeps every narrower projection of its names cheap.
pub const VIEW_CACHE_CAPACITY: usize = 8;

/// Default background-job worker-pool size (per-version backfill units
/// executing concurrently); tune with `JobRunner::set_workers` via
/// [`Flor::job_runner`] or open with [`Flor::open_with_workers`].
pub const DEFAULT_JOB_WORKERS: usize = 2;

/// Default WAL-bytes threshold past which any store commit — a
/// foreground [`Flor::commit`] or a background job's per-unit
/// transaction — spawns a background checkpoint (see
/// [`Flor::set_checkpoint_threshold`]). Sized so interactive sessions
/// never trip it accidentally while long-running drivers keep their
/// logs — and therefore their reopen times — bounded.
pub const DEFAULT_CHECKPOINT_THRESHOLD_BYTES: u64 = 8 * 1024 * 1024;

/// Kernel session state.
#[derive(Debug)]
pub(crate) struct KernelState {
    /// Logical timestamp; bumped by every [`Flor::commit`].
    pub tstamp: i64,
    /// tstamp at which the current transaction window opened.
    pub ts_start: i64,
    /// Currently executing filename.
    pub filename: String,
    /// Stack of open loop contexts: `(ctx_id, loop_name)`.
    pub ctx_stack: Vec<(i64, String)>,
    /// CLI-style argument overrides served by [`Flor::arg`].
    pub cli_args: HashMap<String, String>,
}

/// A FlorDB instance: "a unified and robust framework" for ML metadata
/// (paper §1.2), spanning application, behavioral and change context.
#[derive(Clone)]
pub struct Flor {
    /// The relational store holding the six Fig. 1 tables.
    pub db: Database,
    /// Change context: the gitlite repository.
    pub repo: Repository,
    /// The versioned working tree (script sources live here).
    pub fs: VirtualFs,
    /// Project id stamped on every record.
    pub projid: String,
    /// Incrementally maintained dataframe views (see [`flor_view`]):
    /// every dataframe read, [`Flor::dataframe`]'s and a `flor-serve`
    /// session's, enters through [`ViewCatalog::answer`], which serves a
    /// plan with nothing below the pivot but a `latest` from here,
    /// applying the rows new commits added instead of re-pivoting history
    /// on every call.
    pub views: ViewCatalog,
    /// The background-job control plane (see [`flor_jobs`]):
    /// [`Flor::submit_backfill`] schedules per-version replay units (and
    /// [`Flor::submit_checkpoint`] WAL checkpoints) here.
    pub(crate) runner: JobRunner<JobOutcome>,
    pub(crate) state: Arc<Mutex<KernelState>>,
    /// Next `ctx_id` to mint ([`Flor::mint_ctx`]): an atomic, not a
    /// [`KernelState`] field, so a backfill unit mints its contexts
    /// while the job runner holds its ingest lock without taking the
    /// state lock, which the declared lock order places outside it.
    next_ctx: Arc<AtomicI64>,
}

impl Flor {
    /// In-memory FlorDB for project `projid`.
    pub fn new(projid: &str) -> Flor {
        Flor::with_db(
            projid,
            Database::in_memory(flor_schema()),
            DEFAULT_JOB_WORKERS,
        )
    }

    /// Durable FlorDB backed by a WAL file. Incomplete background jobs
    /// found in the `jobs` table are resumed from their last completed
    /// version (see [`Flor::resume_jobs`]).
    pub fn open(projid: &str, wal_path: &Path) -> StoreResult<Flor> {
        Flor::open_with_workers(projid, wal_path, DEFAULT_JOB_WORKERS)
    }

    /// [`Flor::open`] with an explicit background-job worker-pool size
    /// (1 makes job scheduling fully deterministic — what the
    /// crash-recovery tests use).
    pub fn open_with_workers(projid: &str, wal_path: &Path, workers: usize) -> StoreResult<Flor> {
        let db = Database::open(wal_path, flor_schema())?;
        let flor = Flor::with_db(projid, db, workers);
        flor.resume_clocks();
        flor.resume_jobs()?;
        Ok(flor)
    }

    /// Open a **read-only follower** over another process's WAL file: the
    /// kernel bootstraps from the checkpoint sidecar, then each
    /// [`Flor::poll_follower`] call tails newly committed transactions,
    /// so this handle serves the writer's data with staleness bounded by
    /// its poll interval. Every query path works unchanged; every write
    /// ([`Flor::log`], [`Flor::commit`], job submission, …) fails with
    /// [`StoreError::ReadOnly`] — in particular [`Flor::log`] *panics*
    /// (it expects logging to be infallible), so don't log on a follower
    /// handle. Unlike [`Flor::open`], no background jobs are resumed and
    /// no auto-checkpoint/compaction threads are armed.
    pub fn open_follower(projid: &str, wal_path: &Path) -> StoreResult<Flor> {
        let db = Database::open_follower(wal_path, flor_schema())?;
        let flor = Flor::with_db(projid, db, DEFAULT_JOB_WORKERS);
        flor.resume_clocks();
        Ok(flor)
    }

    /// Apply WAL frames the writer committed since the last poll (or
    /// re-bootstrap from the sidecar if a checkpoint truncated the log
    /// under us). Only valid on handles from [`Flor::open_follower`].
    pub fn poll_follower(&self) -> StoreResult<TailProgress> {
        self.db.poll_tail()
    }

    /// `true` when this handle came from [`Flor::open_follower`] and will
    /// refuse every write with [`StoreError::ReadOnly`].
    pub fn is_follower(&self) -> bool {
        self.db.is_read_only()
    }

    /// Resume the logical clock past anything recorded, reading both
    /// tables from one pinned snapshot.
    fn resume_clocks(&self) {
        let snap = self.db.pin();
        let max_ts = snap
            .scan("logs")
            .ok()
            .and_then(|df| {
                df.column("tstamp")
                    .map(|c| c.values.iter().filter_map(Value::as_i64).max().unwrap_or(0))
            })
            .unwrap_or(0);
        // And the ctx-id allocator past every recorded loop context, so
        // post-reopen logging (and hindsight ingestion) mints fresh ids
        // instead of colliding with history.
        let max_ctx = snap
            .scan("loops")
            .ok()
            .and_then(|df| {
                df.column("ctx_id")
                    .map(|c| c.values.iter().filter_map(Value::as_i64).max().unwrap_or(0))
            })
            .unwrap_or(0);
        drop(snap);
        let mut st = self.state.lock();
        st.tstamp = max_ts + 1;
        st.ts_start = max_ts + 1;
        // audit: ordering — an id counter publishing no other data; the
        // open that seeds it runs before any handle mints.
        self.next_ctx.store(max_ctx + 1, Ordering::Relaxed);
    }

    /// A fresh `ctx_id`.
    pub(crate) fn mint_ctx(&self) -> i64 {
        // audit: ordering — an id counter publishing no other data: the
        // read-modify-write alone makes every id distinct.
        self.next_ctx.fetch_add(1, Ordering::Relaxed)
    }

    fn with_db(projid: &str, db: Database, workers: usize) -> Flor {
        // Auto-checkpointing and auto-compaction are enforced at the
        // store commit layer, so background-job transactions trip them
        // too, not only the kernel's own commits.
        db.set_auto_checkpoint(Some(DEFAULT_CHECKPOINT_THRESHOLD_BYTES));
        db.set_auto_compact(Some(CompactionTrigger::default()));
        Flor {
            views: ViewCatalog::new(db.clone(), VIEW_CACHE_CAPACITY),
            runner: JobRunner::new(db.clone(), workers),
            db,
            repo: Repository::new(),
            fs: VirtualFs::new(),
            projid: projid.to_string(),
            state: Arc::new(Mutex::new(KernelState {
                tstamp: 1,
                ts_start: 1,
                filename: String::new(),
                ctx_stack: Vec::new(),
                cli_args: HashMap::new(),
            })),
            next_ctx: Arc::new(AtomicI64::new(1)),
        }
    }

    /// Set (or disable, with `None`) the WAL-bytes threshold past which
    /// a commit spawns a background checkpoint. Enforced at the store
    /// layer, so background jobs' per-unit commits count too. Defaults
    /// to [`DEFAULT_CHECKPOINT_THRESHOLD_BYTES`].
    pub fn set_checkpoint_threshold(&self, bytes: Option<u64>) {
        self.db.set_auto_checkpoint(bytes);
    }

    /// Set (or disable, with `None`) the commit-layer compaction trigger:
    /// every `check_every_rows` appended rows a background pass evaluates
    /// dead-row ratios and compacts tables past the policy thresholds.
    /// Enforced at the store layer like auto-checkpointing; defaults to
    /// [`CompactionTrigger::default`]. For a one-off pass listed in
    /// [`Flor::jobs`] use [`Flor::submit_compaction`] instead.
    pub fn set_compaction_trigger(&self, trigger: Option<CompactionTrigger>) {
        self.db.set_auto_compact(trigger);
    }

    /// One consistent snapshot of every metric this instance records —
    /// commit/WAL/checkpoint/compaction latency histograms, zone-map
    /// prune ratios, per-job
    /// queue-wait vs run time, view hit/miss/rebuild counters — across
    /// the storage, jobs and view layers at once. See [`flor_obs`] for
    /// the metric-name registry and the snapshot's text/JSON renderers.
    ///
    /// Collection is on by default and costs almost nothing (relaxed
    /// atomics, no hot-path allocation); turn it off entirely via
    /// [`Flor::metrics_registry`]'s `set_enabled(false)`.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.db.metrics_registry().snapshot()
    }

    /// The shared [`MetricsRegistry`] every layer of this instance
    /// records into (the store hands one registry to the job runner and
    /// the view catalog, so [`Flor::metrics`] sees all three). Use it to
    /// enable/disable collection or to register embedder-side metrics
    /// alongside the built-in ones.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        self.db.metrics_registry()
    }

    /// Turn per-request tracing on or off (off by default). While on,
    /// instrumented paths ([`Flor::run_plan`], `flor-serve` requests)
    /// publish completed [`flor_obs::Trace`]s into the registry's
    /// bounded ring, retrievable via [`Flor::traces`].
    pub fn set_tracing(&self, on: bool) {
        self.metrics_registry().traces().set_enabled(on);
    }

    /// Whether per-request tracing is on.
    pub fn tracing_enabled(&self) -> bool {
        self.metrics_registry().traces().enabled()
    }

    /// Every retained completed trace, oldest first.
    pub fn traces(&self) -> Vec<flor_obs::Trace> {
        self.metrics_registry().traces().snapshot()
    }

    /// The retained trace with identity `id`, if it has not fallen off
    /// the ring.
    pub fn find_trace(&self, id: flor_obs::TraceId) -> Option<flor_obs::Trace> {
        self.metrics_registry().traces().find(id)
    }

    /// Arm (or with `None` disarm) the slow-query log: any
    /// [`Flor::run_plan`] or served query strictly slower than
    /// `threshold` captures its measured explain report + trace into a
    /// bounded ring, regardless of whether tracing is enabled.
    pub fn set_slow_query_threshold(&self, threshold: Option<std::time::Duration>) {
        self.metrics_registry()
            .slow_queries()
            .set_threshold(threshold);
    }

    /// Every retained slow-query record, oldest first.
    pub fn slow_queries(&self) -> Vec<flor_obs::SlowQueryRecord> {
        self.metrics_registry().slow_queries().snapshot()
    }

    /// Follower lag estimate — committed transactions durable in the
    /// writer's log but not yet applied here. `Ok(None)` on a writer
    /// handle (see [`flor_store::Database::follower_lag`]).
    pub fn follower_lag(&self) -> StoreResult<Option<u64>> {
        self.db.follower_lag()
    }

    /// Set the executing filename (the paper profiles this automatically at
    /// import time; embedders set it per script run).
    pub fn set_filename(&self, filename: &str) {
        self.state.lock().filename = filename.to_string();
    }

    /// Current logical timestamp.
    pub fn tstamp(&self) -> i64 {
        self.state.lock().tstamp
    }

    /// Provide a CLI-style argument override for [`Flor::arg`].
    pub fn set_cli_arg(&self, name: &str, value: &str) {
        self.state
            .lock()
            .cli_args
            .insert(name.to_string(), value.to_string());
    }

    /// Clear all CLI-style argument overrides (a new "invocation").
    pub fn clear_cli_args(&self) {
        self.state.lock().cli_args.clear();
    }

    /// `flor.log(name, value) -> value` (§2.1): records a `logs` row with
    /// `projid, tstamp, filename, ctx_id`; oversized values spill to
    /// `obj_store`.
    pub fn log(&self, name: &str, value: impl Into<Value>) -> Value {
        let value = value.into();
        let (tstamp, filename, ctx_id) = {
            let st = self.state.lock();
            (
                st.tstamp,
                st.filename.clone(),
                st.ctx_stack.last().map(|(c, _)| *c).unwrap_or(0),
            )
        };
        self.log_at(name, &value, tstamp, &filename, ctx_id);
        value
    }

    /// Internal: write a log row with explicit coordinates (used by live
    /// logging and by hindsight ingestion alike).
    pub(crate) fn log_at(
        &self,
        name: &str,
        value: &Value,
        tstamp: i64,
        filename: &str,
        ctx_id: i64,
    ) {
        let text = value.to_text();
        let (stored, spilled) = if text.len() > BLOB_SPILL_BYTES {
            (format!("<blob {} bytes>", text.len()), true)
        } else {
            (text.clone(), false)
        };
        let row = vec![
            Value::from(self.projid.as_str()),
            Value::Int(tstamp),
            Value::from(filename),
            Value::Int(ctx_id),
            Value::from(name),
            Value::from(stored),
            Value::Int(value.data_type().tag()),
        ];
        // audit: allow(panic) — `logs` was created with this schema at
        // open and the row above is built to it field by field.
        self.db.insert("logs", row).expect("logs schema fixed");
        if spilled {
            self.put_blob(name, &text, tstamp, filename, ctx_id);
        }
    }

    /// Write an `obj_store` row.
    pub(crate) fn put_blob(
        &self,
        name: &str,
        contents: &str,
        tstamp: i64,
        filename: &str,
        ctx_id: i64,
    ) {
        self.db
            .insert(
                "obj_store",
                vec![
                    Value::from(self.projid.as_str()),
                    Value::Int(tstamp),
                    Value::from(filename),
                    Value::Int(ctx_id),
                    Value::from(name),
                    Value::from(contents),
                ],
            )
            // audit: allow(panic) — `obj_store` was created with this
            // schema at open; the row is built to it right above.
            .expect("obj_store schema fixed");
    }

    /// Log a large artifact directly to `obj_store` (Fig. 1), leaving a
    /// `<blob N bytes>` stub in `logs.value` — used for model checkpoints
    /// and other registry artifacts regardless of size.
    pub fn log_blob(&self, name: &str, contents: &str) {
        let (tstamp, filename, ctx_id) = {
            let st = self.state.lock();
            (
                st.tstamp,
                st.filename.clone(),
                st.ctx_stack.last().map(|(c, _)| *c).unwrap_or(0),
            )
        };
        let stub = Value::from(format!("<blob {} bytes>", contents.len()));
        self.log_at(name, &stub, tstamp, &filename, ctx_id);
        self.put_blob(name, contents, tstamp, &filename, ctx_id);
    }

    /// `flor.arg(name, default)` (§2.1): CLI override or default; the
    /// resolved value is logged so replay can retrieve it.
    pub fn arg(&self, name: &str, default: impl Into<Value>) -> Value {
        let default = default.into();
        let override_text = self.state.lock().cli_args.get(name).cloned();
        let value = match override_text {
            Some(text) => Value::from_text(&text, default.data_type()),
            None => default,
        };
        self.log(&format!("arg::{name}"), value.clone());
        value
    }

    /// Begin one loop iteration: mints a `ctx_id`, writes a `loops` row,
    /// pushes the context. Pair with [`Flor::loop_end`].
    pub fn loop_iter(&self, loop_name: &str, iteration: usize, value: &Value) -> i64 {
        let mut st = self.state.lock();
        let ctx_id = self.mint_ctx();
        let parent = st.ctx_stack.last().map(|(c, _)| *c).unwrap_or(0);
        let row = vec![
            Value::from(self.projid.as_str()),
            Value::Int(st.tstamp),
            Value::from(st.filename.as_str()),
            Value::Int(ctx_id),
            Value::Int(parent),
            Value::from(loop_name),
            Value::Int(iteration as i64),
            Value::from(value.to_text()),
        ];
        st.ctx_stack.push((ctx_id, loop_name.to_string()));
        drop(st);
        // audit: allow(panic) — `loops` was created with this schema at
        // open; the row above matches it by construction.
        self.db.insert("loops", row).expect("loops schema fixed");
        ctx_id
    }

    /// End the innermost loop iteration (pops the context stack).
    pub fn loop_end(&self) {
        self.state.lock().ctx_stack.pop();
    }

    /// `flor.iteration(name, value)` (Fig. 6): run `body` inside a single
    /// named iteration context — how the feedback UI attaches human labels
    /// to a specific document.
    pub fn iteration<R>(
        &self,
        loop_name: &str,
        value: impl Into<Value>,
        body: impl FnOnce(&Flor) -> R,
    ) -> R {
        self.loop_iter(loop_name, 0, &value.into());
        let out = body(self);
        self.loop_end();
        out
    }

    /// Iterate `items` under a named loop context, Fig. 3 style:
    /// `for doc_name in flor.loop("document", ...)`.
    pub fn for_each<T>(
        &self,
        loop_name: &str,
        items: impl IntoIterator<Item = T>,
        mut body: impl FnMut(&Flor, &T),
    ) where
        T: Clone + Into<Value>,
    {
        for (i, item) in items.into_iter().enumerate() {
            self.loop_iter(loop_name, i, &item.clone().into());
            body(self, &item);
            self.loop_end();
        }
    }

    /// `flor.commit()` (§2.1): "writes a log file, commits changes to git,
    /// and increments the tstamp" — flushes the store transaction, snapshots
    /// the working tree, records `ts2vid` and `git` rows, bumps the clock.
    pub fn commit(&self, message: &str) -> StoreResult<Oid> {
        // Refuse before touching the in-process repo: a follower commit
        // must leave no trace anywhere, not even in gitlite.
        if self.db.is_read_only() {
            return Err(StoreError::ReadOnly);
        }
        let (ts_start, tstamp, filename) = {
            let st = self.state.lock();
            (st.ts_start, st.tstamp, st.filename.clone())
        };
        let parent = self.repo.head();
        let vid = self
            .repo
            .commit(&self.fs, message, tstamp as u64, &self.projid);
        // ts2vid: map the transaction's tstamp window to the new vid.
        self.db.insert(
            "ts2vid",
            vec![
                Value::from(self.projid.as_str()),
                Value::Int(ts_start),
                Value::Int(tstamp),
                Value::from(vid.0.as_str()),
                Value::from(filename.as_str()),
            ],
        )?;
        // git table: one row per file at this vid (Fig. 1's
        // git(vid, filename, parent_vid, contents)).
        let parent_text = parent.map(|p| p.0).unwrap_or_default();
        for (path, entry) in self.fs.snapshot() {
            self.db.insert(
                "git",
                vec![
                    Value::from(vid.0.as_str()),
                    Value::from(path.as_str()),
                    Value::from(parent_text.as_str()),
                    Value::from(entry.contents),
                ],
            )?;
        }
        self.db.commit()?;
        let mut st = self.state.lock();
        st.tstamp += 1;
        st.ts_start = st.tstamp;
        Ok(vid)
    }

    /// Record a `build_deps` row (Fig. 1) for a build-system target.
    pub fn record_build_dep(
        &self,
        vid: &str,
        target: &str,
        deps: &[String],
        cmds: &[String],
        cached: bool,
    ) -> StoreResult<()> {
        self.db.insert(
            "build_deps",
            vec![
                Value::from(vid),
                Value::from(target),
                Value::from(deps.join("\n")),
                Value::from(cmds.join("\n")),
                Value::Bool(cached),
            ],
        )
    }

    /// `flor.dataframe(*names)` (§2.1): the pivoted view. One row per
    /// distinct `(projid, tstamp, filename, loop dims...)` context, one
    /// column per requested name, plus `{loop}_iteration` / `{loop}_value`
    /// dimension columns — the layout of the paper's Figs. 2/3/5
    /// dataframes.
    ///
    /// A one-line wrapper over [`Flor::query`] — served from the
    /// incremental view catalog: the first call builds the view, later
    /// calls apply only the deltas committed since (paper §1: incremental
    /// context maintenance). `flor.query(names).collect_full()` is the
    /// from-scratch equivalent and the correctness oracle.
    pub fn dataframe(&self, names: &[&str]) -> StoreResult<DataFrame> {
        self.query(names).collect()
    }

    /// Convenience: dataframe + `latest` (paper Fig. 6's
    /// `flor.utils.latest`), as a one-line wrapper over [`Flor::query`].
    /// Incrementally maintained like [`Flor::dataframe`].
    pub fn dataframe_latest(&self, names: &[&str], group: &[&str]) -> StoreResult<DataFrame> {
        self.query(names).latest(group).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_writes_full_coordinates() {
        let flor = Flor::new("demo");
        flor.set_filename("train.fl");
        flor.log("loss", 0.5f64);
        flor.commit("run").unwrap();
        let df = flor.db.scan("logs").unwrap();
        assert_eq!(df.n_rows(), 1);
        assert_eq!(df.get(0, "projid"), Some(&Value::from("demo")));
        assert_eq!(df.get(0, "filename"), Some(&Value::from("train.fl")));
        assert_eq!(df.get(0, "value_name"), Some(&Value::from("loss")));
        assert_eq!(df.get(0, "value_type"), Some(&Value::Int(3)));
    }

    #[test]
    fn logs_invisible_before_commit() {
        let flor = Flor::new("demo");
        flor.log("x", 1);
        assert_eq!(flor.db.row_count("logs").unwrap(), 0);
        flor.commit("c").unwrap();
        assert_eq!(flor.db.row_count("logs").unwrap(), 1);
    }

    #[test]
    fn commit_bumps_tstamp_and_records_ts2vid() {
        let flor = Flor::new("demo");
        flor.fs.write("train.fl", "let x = 1;");
        assert_eq!(flor.tstamp(), 1);
        let vid = flor.commit("first").unwrap();
        assert_eq!(flor.tstamp(), 2);
        let ts2vid = flor.db.scan("ts2vid").unwrap();
        assert_eq!(ts2vid.n_rows(), 1);
        assert_eq!(ts2vid.get(0, "vid"), Some(&Value::from(vid.0.as_str())));
        let git = flor.db.scan("git").unwrap();
        assert_eq!(git.n_rows(), 1);
        assert_eq!(git.get(0, "filename"), Some(&Value::from("train.fl")));
    }

    #[test]
    fn nested_loops_record_ctx_chain() {
        let flor = Flor::new("demo");
        flor.set_filename("featurize.fl");
        flor.for_each("document", ["d1", "d2"], |flor, _doc| {
            flor.for_each("page", [0, 1, 2], |flor, page| {
                flor.log("page_text", format!("text{page}"));
            });
        });
        flor.commit("featurized").unwrap();
        let loops = flor.db.scan("loops").unwrap();
        // 2 document iterations + 2*3 page iterations
        assert_eq!(loops.n_rows(), 8);
        // Page rows have non-zero parents.
        let pages = loops.filter_eq("loop_name", &Value::from("page"));
        assert!(pages
            .column("parent_ctx_id")
            .unwrap()
            .values
            .iter()
            .all(|v| v.as_i64().unwrap() > 0));
    }

    #[test]
    fn dataframe_pivots_with_loop_dims() {
        let flor = Flor::new("demo");
        flor.set_filename("featurize.fl");
        flor.for_each("document", ["a.pdf", "b.pdf"], |flor, doc| {
            flor.for_each("page", [0, 1], |flor, page| {
                flor.log("text_src", if *page == 0 { "OCR" } else { "TXT" });
                flor.log("page_text", format!("{doc}:{page}"));
            });
        });
        flor.commit("run").unwrap();
        let df = flor.dataframe(&["text_src", "page_text"]).unwrap();
        assert_eq!(df.n_rows(), 4); // 2 docs × 2 pages
        let cols = df.column_names();
        for expected in [
            "projid",
            "tstamp",
            "filename",
            "document_iteration",
            "document_value",
            "page_iteration",
            "page_value",
            "text_src",
            "page_text",
        ] {
            assert!(cols.contains(&expected), "missing {expected} in {cols:?}");
        }
        // Fig. 6-style filter: document_value == "b.pdf".
        let b = df.filter_eq("document_value", &Value::from("b.pdf"));
        assert_eq!(b.n_rows(), 2);
    }

    #[test]
    fn dataframe_spans_multiple_versions() {
        let flor = Flor::new("demo");
        flor.set_filename("train.fl");
        for (i, acc) in [0.8f64, 0.85, 0.95].iter().enumerate() {
            flor.log("acc", *acc);
            flor.log("recall", 0.7 + i as f64 / 10.0);
            flor.commit(&format!("run {i}")).unwrap();
        }
        let df = flor.dataframe(&["acc", "recall"]).unwrap();
        assert_eq!(df.n_rows(), 3);
        // Best-checkpoint-by-recall query from §4.2.
        let sorted = df.sort_by(&[("recall", false)]).unwrap();
        assert_eq!(sorted.get(0, "acc"), Some(&Value::Float(0.95)));
    }

    #[test]
    fn arg_logs_and_overrides() {
        let flor = Flor::new("demo");
        let v = flor.arg("epochs", 5);
        assert_eq!(v, Value::Int(5));
        flor.set_cli_arg("epochs", "9");
        let v = flor.arg("epochs", 5);
        assert_eq!(v, Value::Int(9));
        flor.commit("c").unwrap();
        let df = flor.dataframe(&["arg::epochs"]).unwrap();
        assert_eq!(df.n_rows(), 1); // same (tstamp, ctx) → last write wins
    }

    #[test]
    fn iteration_context_manager() {
        let flor = Flor::new("demo");
        flor.set_filename("app.fl");
        flor.iteration("document", "report.pdf", |flor| {
            flor.for_each("page", [0, 1], |flor, p| {
                flor.log("page_color", *p);
            });
        });
        flor.commit("feedback").unwrap();
        let df = flor.dataframe(&["page_color"]).unwrap();
        assert_eq!(df.n_rows(), 2);
        assert_eq!(
            df.get(0, "document_value"),
            Some(&Value::from("report.pdf"))
        );
    }

    #[test]
    fn big_values_spill_to_obj_store() {
        let flor = Flor::new("demo");
        let big = "x".repeat(BLOB_SPILL_BYTES + 10);
        flor.log("page_text", big.as_str());
        flor.commit("c").unwrap();
        let logs = flor.db.scan("logs").unwrap();
        assert!(logs.get(0, "value").unwrap().to_text().starts_with("<blob"));
        let objs = flor.db.scan("obj_store").unwrap();
        assert_eq!(objs.n_rows(), 1);
        assert_eq!(objs.get(0, "contents").unwrap().to_text(), big);
    }

    #[test]
    fn dataframe_latest_dedupes_versions() {
        let flor = Flor::new("demo");
        flor.set_filename("app.fl");
        for round in 0..3 {
            flor.iteration("document", "d.pdf", |flor| {
                flor.log("page_color", round);
            });
            flor.commit("round").unwrap();
        }
        let latest = flor
            .dataframe_latest(&["page_color"], &["document_value"])
            .unwrap();
        assert_eq!(latest.n_rows(), 1);
        assert_eq!(latest.get(0, "page_color"), Some(&Value::Int(2)));
    }

    #[test]
    fn build_deps_rows() {
        let flor = Flor::new("demo");
        flor.record_build_dep(
            "vid1",
            "train",
            &["featurize".into(), "train.py".into()],
            &["python train.py".into()],
            false,
        )
        .unwrap();
        flor.commit("built").unwrap();
        let df = flor.db.scan("build_deps").unwrap();
        assert_eq!(df.n_rows(), 1);
        assert_eq!(df.get(0, "deps").unwrap().to_text(), "featurize\ntrain.py");
    }

    #[test]
    fn incremental_dataframe_matches_full_recompute() {
        let flor = Flor::new("demo");
        flor.set_filename("train.fl");
        for round in 0..4 {
            flor.for_each("epoch", 0..3, |flor, &e| {
                flor.log("loss", 1.0 / (round + e + 1) as f64);
                if e % 2 == 0 {
                    flor.log("acc", 0.8 + e as f64 / 10.0);
                }
            });
            flor.commit("round").unwrap();
            // After every commit the maintained view must equal a rebuild,
            // cell for cell.
            let inc = flor.dataframe(&["loss", "acc"]).unwrap();
            let full = flor.query(&["loss", "acc"]).collect_full().unwrap();
            assert_eq!(inc, full, "round {round}");
        }
        // Repeated reads with no new commits share one snapshot.
        let a = flor.query(&["loss", "acc"]).collect_view().unwrap();
        let b = flor.query(&["loss", "acc"]).collect_view().unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn incremental_latest_matches_full_recompute() {
        let flor = Flor::new("demo");
        flor.set_filename("app.fl");
        for round in 0..3 {
            flor.iteration("document", "d.pdf", |flor| {
                flor.log("page_color", round);
            });
            flor.commit("round").unwrap();
            let inc = flor
                .dataframe_latest(&["page_color"], &["document_value"])
                .unwrap();
            let full = flor
                .query(&["page_color"])
                .latest(&["document_value"])
                .collect_full()
                .unwrap();
            assert_eq!(inc, full, "round {round}");
        }
        assert_eq!(
            flor.dataframe_latest(&["page_color"], &["document_value"])
                .unwrap()
                .get(0, "page_color"),
            Some(&Value::Int(2))
        );
    }

    #[test]
    fn view_catalog_applies_deltas_not_rebuilds() {
        let flor = Flor::new("demo");
        flor.set_filename("train.fl");
        flor.log("loss", 0.5f64);
        flor.commit("r0").unwrap();
        flor.dataframe(&["loss"]).unwrap();
        for i in 0..5 {
            flor.log("loss", 0.5 / (i + 1) as f64);
            flor.commit("r").unwrap();
            flor.dataframe(&["loss"]).unwrap();
        }
        let stats = flor.views.stats();
        assert_eq!(stats.misses, 1, "one build, then deltas only");
        assert_eq!(stats.fallback_rebuilds, 0);
        assert!(stats.batches_applied >= 5);
    }
}
