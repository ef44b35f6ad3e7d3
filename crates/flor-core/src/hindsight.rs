//! Multiversion hindsight logging: the paper's "magic trick" end to end.
//!
//! "Developers can add the desired logging statements to the latest version
//! of their code, and FlorDB will (a) inject these statements into the
//! correct locations in all prior versions of the code, and (b)
//! retroactively execute these statements across all those versions via
//! incremental replay, without the need for full re-execution." (§2)
//!
//! [`backfill`] does exactly that: for every prior run of a script missing
//! the requested values, it checks out that version's source, propagates
//! the new `flor.log` statements into it (`flor-diff`), replays only what
//! produces the missing values (`flor-record`, restoring from stored
//! checkpoints, in parallel), and ingests them into the `logs` table *at
//! the original run's timestamp* — so the next `flor.dataframe` call sees
//! a complete history.
//!
//! What "only what produces them" means follows from where propagation
//! put each statement ([`Placement`]): a statement before the checkpoint
//! loop needs no iteration; one after it needs the last iteration alone,
//! resumed from its checkpoint; statements forming the loop body's tail
//! are run by themselves from each lacking iteration's own checkpoint;
//! anything else (mid-body, nested) replays whole iterations from the
//! nearest checkpoint below. A name counts as held when the run logged it
//! at top level or in every iteration, and only values the run lacked are
//! ingested. The exactness contract is `flor_record::replay`'s: injected
//! statements write nothing the original program reads.
//!
//! Since the flor-jobs control plane landed, [`backfill`] is a thin
//! submit-then-wait wrapper over [`Flor::submit_backfill`]: the work is
//! decomposed into one unit per prior version (a pure compute phase and
//! a staging phase the runner commits atomically), scheduled by priority
//! across the kernel's worker pool, committed incrementally (live views
//! refresh as each version completes), cancellable, and resumed from the
//! `jobs` table after a crash. See [`crate::jobs`] for the kernel wiring.

use crate::kernel::Flor;
use crate::runtime::load_record;
use flor_df::Value;
use flor_diff::propagate_logs;
use flor_record::{
    iterations_logging, replay_with, LogRecord, Placement, ReplayControl, RunRecord, Site,
};
use flor_script::{parse, Program};
use flor_store::{Query, StoreResult};
use std::collections::HashMap;

/// What happened for one prior version during backfill.
#[derive(Debug, Clone)]
pub struct VersionOutcome {
    /// The run's logical timestamp.
    pub tstamp: i64,
    /// Version id of the code that ran.
    pub vid: String,
    /// Log statements injected by propagation.
    pub injected: usize,
    /// Iterations replayed (vs. the loop's total).
    pub iterations_replayed: usize,
    /// Total iterations of the checkpoint loop.
    pub iterations_total: usize,
    /// Values recovered and ingested.
    pub values_recovered: usize,
    /// Why the version was skipped, if it was.
    pub skipped: Option<String>,
}

/// Aggregate result of a [`backfill`] call.
#[derive(Debug, Clone, Default)]
pub struct BackfillReport {
    /// Per-version outcomes (oldest first).
    pub versions: Vec<VersionOutcome>,
    /// Total values ingested.
    pub values_recovered: usize,
    /// Total iterations replayed across versions.
    pub iterations_replayed: usize,
    /// Total iterations that a naive full re-execution would have run.
    pub iterations_full: usize,
}

/// All recorded runs of `filename`: `(tstamp, vid)`, oldest first.
///
/// Served by indexed store scans (the PR 2 query layer) against one
/// pinned snapshot, so the run list and the commit windows reflect the
/// same epoch even while the writer is landing versions: the run tstamps
/// come from the `logs` table via its `filename` index projected down to
/// one column — not a full-width table scan — and each run is matched to
/// its commit window by binary search over the sorted `ts2vid` spans.
pub fn runs_of(flor: &Flor, filename: &str) -> StoreResult<Vec<(i64, String)>> {
    let snap = flor.db.pin();
    let ts = snap.query(
        &Query::table("logs")
            .filter_eq("filename", filename)
            .project(&["tstamp"]),
    )?;
    let mut tstamps: Vec<i64> = ts
        .column("tstamp")
        .map(|c| c.values.iter().filter_map(Value::as_i64).collect())
        .unwrap_or_default();
    tstamps.sort_unstable();
    tstamps.dedup();
    if tstamps.is_empty() {
        return Ok(Vec::new());
    }
    let windows = snap.query(
        &Query::table("ts2vid")
            .project(&["ts_start", "ts_end", "vid"])
            .order_by("ts_start", true),
    )?;
    let spans: Vec<(i64, i64, String)> = windows
        .rows()
        .map(|r| {
            (
                r.get("ts_start")
                    .and_then(Value::as_i64)
                    .unwrap_or(i64::MAX),
                r.get("ts_end").and_then(Value::as_i64).unwrap_or(i64::MIN),
                r.get("vid").map(|v| v.to_text()).unwrap_or_default(),
            )
        })
        .collect();
    let mut out = Vec::new();
    for t in tstamps {
        // Last window opening at or before t; commit windows are disjoint.
        let idx = spans.partition_point(|(s, _, _)| *s <= t);
        if idx > 0 {
            let (s, e, vid) = &spans[idx - 1];
            if *s <= t && t <= *e {
                out.push((t, vid.clone()));
            }
        }
    }
    Ok(out)
}

/// The contents of `filename` at version `vid`: from the in-memory gitlite
/// repository when it has the commit, else from the durable `git` table —
/// the fallback that makes backfill *resumable*: a reopened kernel has an
/// empty repository, but the `git` rows written at commit time survive.
pub(crate) fn source_at(flor: &Flor, vid: &str, filename: &str) -> StoreResult<Option<String>> {
    if let Ok(Some(src)) = flor.repo.file_at(&flor_git::Oid(vid.to_string()), filename) {
        return Ok(Some(src));
    }
    let rows = flor.db.lookup("git", "vid", &Value::from(vid))?;
    let found = rows
        .rows()
        .find(|r| r.get("filename").map(|v| v.to_text()).as_deref() == Some(filename))
        .and_then(|r| r.get("contents").map(|v| v.to_text()));
    Ok(found)
}

/// One backfill unit's full result: the human-facing [`VersionOutcome`]
/// plus the recovered log records the staging phase writes and the
/// full-reexecution iteration count the report aggregates. This is the
/// per-unit outcome type the kernel's `JobRunner` carries.
#[derive(Debug, Clone)]
pub struct VersionResult {
    /// The per-version outcome.
    pub outcome: VersionOutcome,
    /// Recovered log records (the requested values the run lacked),
    /// pending ingestion at the original run's timestamp.
    pub new_logs: Vec<LogRecord>,
    /// Iterations a naive full re-execution of this version would run
    /// (0 when the version was skipped).
    pub full_iterations: usize,
}

/// The unit-independent half of a backfill job: what every version of
/// one request shares (the script, the requested names, the per-version
/// replay parallelism, and the parsed new source).
pub(crate) struct BackfillTask<'a> {
    pub filename: &'a str,
    pub names: &'a [String],
    pub parallelism: usize,
    pub new_prog: &'a Program,
}

/// The compute phase of one backfill unit: load the run's record, find
/// the requested names it lacks, propagate the new log statements into
/// that version's source, locate them, and incrementally replay only what
/// their sites need. Pure with respect to the store — nothing is staged or
/// committed — so any number of versions can compute concurrently while
/// readers keep flowing; [`stage_version`] applies the results.
pub(crate) fn compute_version(
    flor: &Flor,
    task: &BackfillTask<'_>,
    tstamp: i64,
    vid: &str,
    ctl: &ReplayControl,
) -> StoreResult<VersionResult> {
    let BackfillTask {
        filename,
        names,
        parallelism,
        new_prog,
    } = *task;
    let mut result = VersionResult {
        outcome: VersionOutcome {
            tstamp,
            vid: vid.to_string(),
            injected: 0,
            iterations_replayed: 0,
            iterations_total: 0,
            values_recovered: 0,
            skipped: None,
        },
        new_logs: Vec::new(),
        full_iterations: 0,
    };
    let outcome = &mut result.outcome;
    let record = load_record(flor, filename, tstamp)?;
    let Some((loop_name, total)) = record.ckpt_loop.clone() else {
        outcome.skipped = Some("run had no checkpoint loop".to_string());
        return Ok(result);
    };
    outcome.iterations_total = total;
    let lacking: Vec<Held<'_>> = names
        .iter()
        .map(|name| Held::of(&record, name))
        .filter(|held| !held.complete(total))
        .collect();
    if lacking.is_empty() {
        outcome.skipped = Some("all requested values already logged".to_string());
        return Ok(result);
    }
    result.full_iterations = total;
    // The old source at that version (repo, or the durable git table).
    let Some(old_source) = source_at(flor, vid, filename)? else {
        outcome.skipped = Some("source missing at that version".to_string());
        return Ok(result);
    };
    let Ok(old_prog) = parse(&old_source) else {
        outcome.skipped = Some("old source failed to parse".to_string());
        return Ok(result);
    };
    // (a) inject the new statements into the old version.
    let prop = propagate_logs(&old_prog, new_prog);
    outcome.injected = prop.injected.len();
    // (b) incremental replay of only what the injected statements' sites
    // need, with the job's cancellation token and progress counter
    // threaded through.
    let injected = prop
        .injected
        .iter()
        .map(|i| (i.log_name.as_str(), &i.old_path));
    let placement = Placement::locate(&prop.patched, &loop_name, injected);
    let (needed, tail) = needs(&placement, &lacking, total);
    match replay_with(&prop.patched, &record, &needed, tail, parallelism, ctl) {
        Ok(replayed) if replayed.cancelled => {
            // Partial logs must not be ingested; the executor surfaces
            // the cancellation from the control flag.
        }
        Ok(replayed) => {
            outcome.iterations_replayed = replayed.iterations_executed;
            result.new_logs = replayed
                .new_logs
                .into_iter()
                .filter(|l| lacking.iter().any(|held| held.lacks(l)))
                .collect();
            outcome.values_recovered = result.new_logs.len();
        }
        Err(e) => {
            outcome.skipped = Some(format!("replay failed: {e}"));
        }
    }
    Ok(result)
}

/// What a recorded run already holds of one requested name.
struct Held<'n> {
    name: &'n str,
    /// Checkpoint-loop iterations that logged it (sorted).
    iterations: Vec<usize>,
    /// Whether the run logged it outside any loop.
    top_level: bool,
}

impl<'n> Held<'n> {
    fn of(record: &RunRecord, name: &'n str) -> Held<'n> {
        Held {
            name,
            iterations: iterations_logging(&record.logs, name),
            top_level: record
                .logs
                .iter()
                .any(|l| l.name == name && l.loops.is_empty()),
        }
    }

    /// Whether the run needs nothing more of this name: logged at top
    /// level, or in every iteration.
    fn complete(&self, total: usize) -> bool {
        self.top_level || (0..total).all(|i| self.has(i))
    }

    fn has(&self, iteration: usize) -> bool {
        self.iterations.binary_search(&iteration).is_ok()
    }

    /// Iterations that did not log it.
    fn missing(&self, total: usize) -> impl Iterator<Item = usize> + '_ {
        (0..total).filter(|&i| !self.has(i))
    }

    /// Whether a replayed log is a value of this name the run lacks.
    fn lacks(&self, log: &LogRecord) -> bool {
        log.name == self.name
            && match log.outer_iteration() {
                Some(i) => !self.has(i),
                None => !self.top_level,
            }
    }
}

/// The iterations a replay must execute for the `lacking` names, and the
/// tail each may resume. Per name, from where its injected statements
/// sit: before the checkpoint loop needs no iteration (every replay runs
/// the statements before the loop), after it only the last, inside it
/// every iteration lacking the name. A name nothing was injected for is
/// planned whole, without a tail: its lacking iterations.
fn needs(placement: &Placement, lacking: &[Held<'_>], total: usize) -> (Vec<usize>, Option<usize>) {
    let mut needed = Vec::new();
    let mut tail = placement.tail;
    for held in lacking {
        let mut located = false;
        for site in placement.sites_of(held.name) {
            located = true;
            match site {
                Site::BeforeLoop => {}
                Site::InLoop => needed.extend(held.missing(total)),
                Site::AfterLoop => needed.extend(total.checked_sub(1)),
            }
        }
        if !located {
            needed.extend(held.missing(total));
            tail = None;
        }
    }
    needed.sort_unstable();
    needed.dedup();
    (needed, tail)
}

/// The staging phase of one backfill unit: write the recovered values
/// into `logs`/`loops` at the original run's timestamp. Inserts only —
/// the job runner commits them atomically with the job's progress
/// transition, which is what makes a crash between versions recoverable.
pub(crate) fn stage_version(flor: &Flor, filename: &str, result: &VersionResult) {
    let mut ingestor = Ingestor::new(flor, filename, result.outcome.tstamp);
    for log in &result.new_logs {
        ingestor.ingest(log);
    }
}

/// Assemble the aggregate report from per-version results, oldest first
/// (results arrive in completion order, which under multiple workers is
/// not submission order).
pub(crate) fn assemble_report(mut results: Vec<VersionResult>) -> BackfillReport {
    results.sort_by_key(|r| r.outcome.tstamp);
    let mut report = BackfillReport::default();
    for r in results {
        report.values_recovered += r.outcome.values_recovered;
        report.iterations_replayed += r.outcome.iterations_replayed;
        report.iterations_full += r.full_iterations;
        report.versions.push(r.outcome);
    }
    report
}

/// Backfill `names` for every prior run of `filename`, using the *current
/// working-tree* source as the version carrying the new log statements.
///
/// `parallelism` caps replay worker threads per version.
///
/// Since flor-jobs, this is submit-then-wait over the kernel's background
/// scheduler ([`Flor::submit_backfill_with`]): identical results, but the
/// work is durable (resumed after a crash), prioritized, and ingested
/// per-version — a concurrent reader sees values land incrementally
/// rather than all at once. Callers who want the asynchronous form use
/// [`Flor::submit_backfill`] directly.
pub fn backfill(
    flor: &Flor,
    filename: &str,
    names: &[&str],
    parallelism: usize,
) -> StoreResult<BackfillReport> {
    let handle = flor.submit_backfill_with(filename, names, 0, parallelism)?;
    let report = handle.wait();
    if handle.state() == flor_jobs::JobState::Failed {
        let detail = handle.detail();
        // Legacy contract: a missing or unparseable new script yields an
        // empty report, not an error...
        if detail.starts_with("script missing") || detail.starts_with("new source failed to parse")
        {
            return Ok(report);
        }
        // ...but store/replay failures propagate, as they always did.
        return Err(flor_store::StoreError::Invalid(format!(
            "backfill failed: {detail}"
        )));
    }
    Ok(report)
}

/// Writes replayed log records into `logs`/`loops` at a historical
/// timestamp, minting fresh ctx chains that mirror the replayed loop
/// frames.
struct Ingestor<'f> {
    flor: &'f Flor,
    filename: String,
    tstamp: i64,
    chains: HashMap<Vec<(String, usize, String)>, i64>,
}

impl<'f> Ingestor<'f> {
    fn new(flor: &'f Flor, filename: &str, tstamp: i64) -> Ingestor<'f> {
        Ingestor {
            flor,
            filename: filename.to_string(),
            tstamp,
            chains: HashMap::new(),
        }
    }

    fn ctx_for(&mut self, frames: &[flor_script::LoopFrame]) -> i64 {
        if frames.is_empty() {
            return 0;
        }
        let key: Vec<(String, usize, String)> = frames
            .iter()
            .map(|f| (f.name.clone(), f.iteration, f.value.clone()))
            .collect();
        if let Some(&id) = self.chains.get(&key) {
            return id;
        }
        let parent = self.ctx_for(&frames[..frames.len() - 1]);
        // audit: allow(panic) — the is_empty early-return above makes
        // `last()` infallible here.
        let last = frames.last().expect("non-empty");
        let ctx_id = {
            let mut st = self.flor.state.lock();
            let id = st.next_ctx;
            st.next_ctx += 1;
            id
        };
        self.flor
            .db
            .insert(
                "loops",
                vec![
                    Value::from(self.flor.projid.as_str()),
                    Value::Int(self.tstamp),
                    Value::from(self.filename.as_str()),
                    Value::Int(ctx_id),
                    Value::Int(parent),
                    Value::from(last.name.as_str()),
                    Value::Int(last.iteration as i64),
                    Value::from(last.value.as_str()),
                ],
            )
            // audit: allow(panic) — the kernel created `loops` with this
            // exact schema at open; the row is built to it right here.
            .expect("loops schema fixed");
        self.chains.insert(key, ctx_id);
        ctx_id
    }

    fn ingest(&mut self, log: &LogRecord) {
        let ctx = self.ctx_for(&log.loops);
        // Replayed values arrive as display text; store as Str (value_type
        // reflects text) unless it parses as a number.
        let value = if let Ok(i) = log.value.parse::<i64>() {
            Value::Int(i)
        } else if let Ok(f) = log.value.parse::<f64>() {
            Value::Float(f)
        } else {
            Value::from(log.value.as_str())
        };
        self.flor
            .log_at(&log.name, &value, self.tstamp, &self.filename, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_script;
    use flor_record::CheckpointPolicy;

    const TRAIN_V1: &str = r#"
let data = load_dataset("first_page", 60, 42);
let epochs = flor.arg("epochs", 4);
let net = make_model(5, 4, 2, 7);
with flor.checkpointing(net) {
    for e in flor.loop("epoch", range(0, epochs)) {
        let loss = train_step(net, data, 0.5);
        flor.log("loss", loss);
    }
}
"#;

    const TRAIN_V2: &str = r#"
let data = load_dataset("first_page", 60, 42);
let epochs = flor.arg("epochs", 4);
let net = make_model(5, 4, 2, 7);
with flor.checkpointing(net) {
    for e in flor.loop("epoch", range(0, epochs)) {
        let loss = train_step(net, data, 0.5);
        flor.log("loss", loss);
        let m = eval_model(net, data);
        flor.log("acc", m[0]);
        flor.log("recall", m[1]);
    }
}
"#;

    #[test]
    fn full_hindsight_workflow() {
        let flor = Flor::new("demo");
        // Two runs of v1 (no acc/recall logging).
        flor.fs.write("train.fl", TRAIN_V1);
        run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
        flor.set_cli_arg("epochs", "3");
        run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
        flor.clear_cli_args();
        // Developer regrets not logging acc/recall; writes v2 and runs it.
        flor.fs.write("train.fl", TRAIN_V2);
        run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
        // The dataframe has holes for the two old runs.
        let before = flor.dataframe(&["loss", "acc", "recall"]).unwrap();
        let holes = before
            .column("acc")
            .map(|c| c.values.iter().filter(|v| v.is_null()).count())
            .unwrap_or(0);
        assert_eq!(holes, 7); // 4 + 3 old-epoch rows lack acc
                              // Backfill.
        let report = backfill(&flor, "train.fl", &["acc", "recall"], 2).unwrap();
        assert_eq!(report.versions.len(), 3);
        // v3 already has values → skipped; v1/v2 replayed fully (new stmt in
        // every iteration).
        assert_eq!(report.values_recovered, 14); // (4+3) × 2 names
        assert!(report.versions[2].skipped.is_some());
        assert_eq!(report.versions[0].injected, 3); // let m + 2 logs? no: logs only
                                                    // After: no holes.
        let after = flor.dataframe(&["loss", "acc", "recall"]).unwrap();
        let holes: usize = after
            .column("acc")
            .map(|c| c.values.iter().filter(|v| v.is_null()).count())
            .unwrap_or(99);
        assert_eq!(holes, 0);
        assert_eq!(after.n_rows(), 11); // 4 + 3 + 4 epoch rows
    }

    #[test]
    fn backfilled_values_match_foresight() {
        // Ground truth: run v2 from scratch (same seeds) and compare accs.
        let flor = Flor::new("demo");
        flor.fs.write("train.fl", TRAIN_V1);
        run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
        flor.fs.write("train.fl", TRAIN_V2);
        backfill(&flor, "train.fl", &["acc"], 1).unwrap();
        let hindsight = flor.dataframe(&["acc"]).unwrap();
        let hindsight_accs: Vec<String> = hindsight
            .column("acc")
            .unwrap()
            .values
            .iter()
            .map(|v| v.to_text())
            .collect();

        let truth = Flor::new("truth");
        truth.fs.write("train.fl", TRAIN_V2);
        run_script(&truth, "train.fl", CheckpointPolicy::None).unwrap();
        let truth_df = truth.dataframe(&["acc"]).unwrap();
        let truth_accs: Vec<String> = truth_df
            .column("acc")
            .unwrap()
            .values
            .iter()
            .map(|v| v.to_text())
            .collect();
        assert_eq!(hindsight_accs, truth_accs);
    }

    #[test]
    fn backfill_flows_into_live_views() {
        let flor = Flor::new("demo");
        flor.fs.write("train.fl", TRAIN_V1);
        run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
        flor.fs.write("train.fl", TRAIN_V2);
        run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
        // Materialize the view while it still has holes.
        let before = flor.dataframe(&["loss", "acc"]).unwrap();
        let holes = before
            .column("acc")
            .map(|c| c.values.iter().filter(|v| v.is_null()).count())
            .unwrap_or(0);
        assert_eq!(holes, 4);
        // Backfill commits through the same feed: the next query applies
        // the recovered values as deltas into the already-built view.
        backfill(&flor, "train.fl", &["acc", "recall"], 2).unwrap();
        let after = flor.dataframe(&["loss", "acc"]).unwrap();
        assert_eq!(
            after
                .column("acc")
                .unwrap()
                .values
                .iter()
                .filter(|v| v.is_null())
                .count(),
            0,
            "hindsight values must flow into the live view"
        );
        // And incrementally-maintained still equals the from-scratch oracle.
        assert_eq!(after, flor.query(&["loss", "acc"]).collect_full().unwrap());
        assert_eq!(flor.views.stats().fallback_rebuilds, 0);
        assert_eq!(flor.views.stats().misses, 1);
    }

    #[test]
    fn runs_of_lists_versions() {
        let flor = Flor::new("demo");
        flor.fs.write("train.fl", TRAIN_V1);
        let a = run_script(&flor, "train.fl", CheckpointPolicy::None).unwrap();
        let b = run_script(&flor, "train.fl", CheckpointPolicy::None).unwrap();
        let runs = runs_of(&flor, "train.fl").unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].0, a.tstamp);
        assert_eq!(runs[1].0, b.tstamp);
        assert_eq!(runs[0].1, a.vid.0);
        assert_eq!(runs[1].1, b.vid.0);
    }

    #[test]
    fn backfill_skips_complete_versions() {
        let flor = Flor::new("demo");
        flor.fs.write("train.fl", TRAIN_V2);
        run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
        let report = backfill(&flor, "train.fl", &["acc"], 1).unwrap();
        assert_eq!(report.values_recovered, 0);
        assert_eq!(report.versions.len(), 1);
        assert!(report.versions[0].skipped.is_some());
    }

    #[test]
    fn backfill_skips_top_level_names_the_run_logged() {
        let after_loop =
            format!("{TRAIN_V2}let fm = eval_model(net, data);\nflor.log(\"final_acc\", fm[0]);\n");
        let flor = Flor::new("demo");
        flor.fs.write("train.fl", &after_loop);
        run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
        let report = backfill(&flor, "train.fl", &["final_acc"], 1).unwrap();
        assert_eq!(report.iterations_replayed, 0);
        assert_eq!(report.values_recovered, 0);
        assert!(report.versions[0].skipped.is_some());
        let rows = flor
            .db
            .scan("logs")
            .unwrap()
            .filter_eq("value_name", &Value::from("final_acc"))
            .n_rows();
        assert_eq!(rows, 1);
    }

    #[test]
    fn randint_programs_replay_the_recorded_draws() {
        let src = |hindsight: &str| {
            format!(
                "let x = 0;\nwith flor.checkpointing(x) {{\n    for e in flor.loop(\"epoch\", range(0, 6)) {{\n        let r = randint(0, 1000000);\n        x = x + r;\n{hindsight}    }}\n}}\n"
            )
        };
        let flor = Flor::new("demo");
        flor.fs.write("train.fl", &src(""));
        run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
        let patched = src("        flor.log(\"r\", r);\n");
        flor.fs.write("train.fl", &patched);
        let report = backfill(&flor, "train.fl", &["r"], 2).unwrap();
        assert_eq!(report.values_recovered, 6);
        let hindsight = flor.dataframe(&["r"]).unwrap();

        let truth = Flor::new("truth");
        truth.fs.write("train.fl", &patched);
        run_script(&truth, "train.fl", CheckpointPolicy::None).unwrap();
        let foresight = truth.dataframe(&["r"]).unwrap();
        assert_eq!(hindsight.column("r"), foresight.column("r"));
    }

    /// Record `old`, backfill `name` from `new` with `parallelism`
    /// workers, and check the values against a foresight run of `new`.
    fn backfill_matches_foresight(old: &str, new: &str, name: &str, parallelism: usize) {
        let flor = Flor::new("demo");
        flor.fs.write("train.fl", old);
        run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
        flor.fs.write("train.fl", new);
        let report = backfill(&flor, "train.fl", &[name], parallelism).unwrap();
        assert_eq!(report.versions[0].skipped, None);
        assert_eq!(report.values_recovered, 4);
        let hindsight = flor.dataframe(&[name]).unwrap();

        let truth = Flor::new("truth");
        truth.fs.write("train.fl", new);
        run_script(&truth, "train.fl", CheckpointPolicy::None).unwrap();
        let foresight = truth.dataframe(&[name]).unwrap();
        assert_eq!(hindsight.column(name), foresight.column(name));
    }

    #[test]
    fn in_loop_statements_read_bindings_made_before_the_loop() {
        let new = TRAIN_V1
            .replace("with flor", "let k = 2.0;\nflor.log(\"k\", k);\nwith flor")
            .replace(
                "flor.log(\"loss\", loss);\n",
                "flor.log(\"loss\", loss);\n        flor.log(\"h\", loss * k);\n",
            );
        backfill_matches_foresight(TRAIN_V1, &new, "h", 1);
    }

    #[test]
    fn models_shared_by_two_bindings_restore_as_one() {
        // Worker 2 of 2 restores boundary 1 and trains `net` on: `alias`
        // must see every step, as it did when recorded.
        let src = |hindsight: &str| {
            format!(
                "let data = load_dataset(\"first_page\", 60, 42);\nlet net = make_model(5, 4, 2, 7);\nlet alias = net;\nwith flor.checkpointing(net) {{\n    for e in flor.loop(\"epoch\", range(0, 4)) {{\n        let loss = train_step(net, data, 0.5);\n{hindsight}        flor.log(\"loss\", loss);\n    }}\n}}\n"
            )
        };
        let new =
            src("        let a = train_step(alias, data, 0.0);\n        flor.log(\"a\", a);\n");
        backfill_matches_foresight(&src(""), &new, "a", 2);
    }

    #[test]
    fn a_before_loop_alias_sees_the_model_the_loop_trains_under_another_name() {
        // Each checkpoint meets the model under `model`, which the loop
        // binds, before `net`: every resumed tail must still evaluate
        // the trained model through `k`, made before the loop.
        let src = |before: &str, tail: &str| {
            format!(
                "let data = load_dataset(\"first_page\", 60, 42);\nlet net = make_model(5, 4, 2, 7);\n{before}with flor.checkpointing(net) {{\n    for e in flor.loop(\"epoch\", range(0, 4)) {{\n        let model = net;\n        let loss = train_step(model, data, 0.5);\n        flor.log(\"loss\", loss);\n{tail}    }}\n}}\n"
            )
        };
        let new = src(
            "let k = net;\nflor.log(\"k\", eval_model(k, data)[0]);\n",
            "        flor.log(\"h\", eval_model(k, data)[0]);\n",
        );
        backfill_matches_foresight(&src("", ""), &new, "h", 1);
    }

    #[test]
    fn backfill_replays_less_than_full_when_partial() {
        // v1 logs acc only on even epochs; backfill needs odd epochs only.
        let partial = r#"
let data = load_dataset("first_page", 60, 42);
let net = make_model(5, 4, 2, 7);
with flor.checkpointing(net) {
    for e in flor.loop("epoch", range(0, 6)) {
        let loss = train_step(net, data, 0.5);
        flor.log("loss", loss);
        if e % 2 == 0 {
            let m = eval_model(net, data);
            flor.log("acc", m[0]);
        }
    }
}
"#;
        let full = r#"
let data = load_dataset("first_page", 60, 42);
let net = make_model(5, 4, 2, 7);
with flor.checkpointing(net) {
    for e in flor.loop("epoch", range(0, 6)) {
        let loss = train_step(net, data, 0.5);
        flor.log("loss", loss);
        let m = eval_model(net, data);
        flor.log("acc", m[0]);
    }
}
"#;
        let flor = Flor::new("demo");
        flor.fs.write("train.fl", partial);
        run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
        flor.fs.write("train.fl", full);
        let report = backfill(&flor, "train.fl", &["acc"], 1).unwrap();
        let v = &report.versions[0];
        assert_eq!(v.iterations_total, 6);
        assert_eq!(v.iterations_replayed, 3); // only odd epochs
        assert_eq!(v.values_recovered, 3);
        // All 6 epochs now have acc.
        let df = flor.dataframe(&["acc"]).unwrap();
        let nulls = df
            .column("acc")
            .unwrap()
            .values
            .iter()
            .filter(|v| v.is_null())
            .count();
        assert_eq!(nulls, 0);
    }
}
