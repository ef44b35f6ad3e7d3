//! Bridge between florscript execution and the Flor kernel.
//!
//! [`ScriptRuntime`] implements the interpreter's hook trait twice over:
//! it forwards everything to a `flor-record` [`Recorder`] (checkpoints,
//! replay metadata) *and* writes the live rows of the Fig. 1 data model
//! through the kernel (logs, loops, obj_store). [`run_script`] is the
//! "python train.py" equivalent: execute a versioned script under full
//! FlorDB instrumentation and commit the run.

use crate::kernel::Flor;
use flor_df::Value;
use flor_git::Oid;
use flor_record::{CheckpointPolicy, LogRecord, Recorder, RunRecord};
use flor_script::{
    parse, Directive, FlorRuntime, Interpreter, LoopFrame, RtError, RtResult, RtValue,
};
use flor_store::{Query, StoreResult};
use std::sync::Arc;

/// Convert an interpreter value to a storable dataframe value.
pub fn rt_to_value(v: &RtValue) -> Value {
    match v {
        RtValue::None => Value::Null,
        RtValue::Int(i) => Value::Int(*i),
        RtValue::Float(f) => Value::Float(*f),
        RtValue::Bool(b) => Value::Bool(*b),
        other => Value::from(other.display_text()),
    }
}

/// The combined kernel + recorder runtime.
pub struct ScriptRuntime<'f> {
    flor: &'f Flor,
    /// Inner recorder capturing replay metadata.
    pub recorder: Recorder,
    /// Depth of kernel contexts currently pushed (mirrors the interpreter's
    /// loop stack; the kernel pops lazily when the stack shrinks).
    depth: usize,
}

impl<'f> ScriptRuntime<'f> {
    /// Build a runtime for one script execution.
    pub fn new(flor: &'f Flor, policy: CheckpointPolicy) -> ScriptRuntime<'f> {
        let mut recorder = Recorder::new(policy);
        // CLI args configured on the kernel flow into the recorder.
        for (name, text) in flor.state.lock().cli_args.iter() {
            recorder
                .arg_overrides
                .insert(name.clone(), parse_arg_text(text));
        }
        ScriptRuntime {
            flor,
            recorder,
            depth: 0,
        }
    }

    /// Synchronise the kernel's ctx stack with the interpreter's: pop until
    /// kernel depth equals `target`.
    fn sync_depth(&mut self, target: usize) {
        while self.depth > target {
            self.flor.loop_end();
            self.depth -= 1;
        }
    }
}

/// Parse a CLI argument's text into the most specific runtime value.
fn parse_arg_text(text: &str) -> RtValue {
    if let Ok(i) = text.parse::<i64>() {
        return RtValue::Int(i);
    }
    if let Ok(f) = text.parse::<f64>() {
        return RtValue::Float(f);
    }
    match text {
        "true" => RtValue::Bool(true),
        "false" => RtValue::Bool(false),
        _ => RtValue::Str(text.to_string()),
    }
}

impl FlorRuntime for ScriptRuntime<'_> {
    fn arg(&mut self, name: &str, default: RtValue) -> RtValue {
        let v = self.recorder.arg(name, default);
        self.flor.log(&format!("arg::{name}"), rt_to_value(&v));
        v
    }

    fn log(&mut self, name: &str, value: &RtValue, loops: &[LoopFrame]) {
        self.recorder.log(name, value, loops);
        self.flor.log(name, rt_to_value(value));
    }

    fn loop_begin(&mut self, name: &str, length: usize, loops: &[LoopFrame]) {
        self.recorder.loop_begin(name, length, loops);
    }

    fn loop_iter(&mut self, name: &str, iteration: usize, value: &RtValue, loops: &[LoopFrame]) {
        // `loops` includes the frame for this iteration; the kernel should
        // hold every *enclosing* frame plus this one.
        self.sync_depth(loops.len().saturating_sub(1));
        self.flor.loop_iter(name, iteration, &rt_to_value(value));
        self.depth += 1;
        self.recorder.loop_iter(name, iteration, value, loops);
    }

    fn loop_end(&mut self, name: &str, loops: &[LoopFrame]) {
        self.sync_depth(loops.len());
        self.recorder.loop_end(name, loops);
    }

    fn commit(&mut self) {
        self.recorder.commit();
        let _ = self.flor.commit("flor.commit()");
    }

    fn plan(&mut self, loop_name: &str, iteration: usize) -> Directive<'_> {
        self.recorder.plan(loop_name, iteration)
    }

    fn on_checkpoint_boundary(
        &mut self,
        loop_name: &str,
        iteration: usize,
        snapshot: &mut dyn FnMut() -> RtResult<String>,
    ) {
        self.recorder
            .on_checkpoint_boundary(loop_name, iteration, snapshot);
    }
}

/// Errors from running a script under FlorDB.
#[derive(Debug)]
pub enum RunError {
    /// Script file not found in the working tree.
    MissingFile(String),
    /// Parse failure.
    Parse(flor_script::ParseError),
    /// Runtime failure.
    Runtime(RtError),
    /// Store failure.
    Store(flor_store::StoreError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::MissingFile(p) => write!(f, "no such script in working tree: {p}"),
            RunError::Parse(e) => write!(f, "{e}"),
            RunError::Runtime(e) => write!(f, "{e}"),
            RunError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Result of [`run_script`].
#[derive(Debug)]
pub struct RunOutcome {
    /// The record captured for replay (logs, args, checkpoints).
    pub record: RunRecord,
    /// The version id committed after the run.
    pub vid: Oid,
    /// The run's logical timestamp (key for querying its logs).
    pub tstamp: i64,
}

/// Execute `filename` from the working tree under full instrumentation,
/// persist checkpoints to `obj_store`, and commit. The paper's equivalent
/// of `make train` running `python train.py` with FlorDB imported.
pub fn run_script(
    flor: &Flor,
    filename: &str,
    policy: CheckpointPolicy,
) -> Result<RunOutcome, RunError> {
    let source = flor
        .fs
        .read(filename)
        .ok_or_else(|| RunError::MissingFile(filename.to_string()))?;
    let prog = parse(&source).map_err(RunError::Parse)?;
    flor.set_filename(filename);
    let tstamp = flor.tstamp();
    let mut rt = ScriptRuntime::new(flor, policy);
    let mut interp = Interpreter::new();
    let stats = interp.run(&prog, &mut rt).map_err(RunError::Runtime)?;
    rt.sync_depth(0);
    let mut record = rt.recorder.record;
    record.stats = stats;
    persist_record(flor, filename, tstamp, &record).map_err(RunError::Store)?;
    let vid = flor
        .commit(&format!("run {filename}"))
        .map_err(RunError::Store)?;
    Ok(RunOutcome {
        record,
        vid,
        tstamp,
    })
}

/// Persist a run's replay metadata: checkpoints into `obj_store`, the
/// checkpoint-loop descriptor as a log row.
pub fn persist_record(
    flor: &Flor,
    filename: &str,
    tstamp: i64,
    record: &RunRecord,
) -> StoreResult<()> {
    let filename = Arc::from(filename);
    for (iter, snap) in &record.checkpoints {
        flor.put_blob(&format!("ckpt::{iter}"), snap, tstamp, &filename, 0);
    }
    if let Some((name, len)) = &record.ckpt_loop {
        flor.log_at(
            "ckpt_loop::meta",
            &Value::from(format!("{name}\n{len}")),
            tstamp,
            &filename,
            0,
        );
    }
    Ok(())
}

/// Reconstruct the [`RunRecord`] of a past run from the data model:
/// logs + loop contexts from `logs`/`loops`, checkpoints from `obj_store`,
/// args from `arg::` log rows.
pub fn load_record(flor: &Flor, filename: &str, tstamp: i64) -> StoreResult<RunRecord> {
    let mut record = RunRecord::default();
    let snap = flor.db.pin();
    // This run's loop contexts, for frame reconstruction: every chain a
    // run's log rows hang off was minted by that run (or by a backfill
    // ingesting at its timestamp).
    let loops = snap.query(
        &Query::table("loops")
            .filter_eq("tstamp", tstamp)
            .filter_eq("filename", filename)
            .project(&[
                "ctx_id",
                "parent_ctx_id",
                "loop_name",
                "loop_iteration",
                "iteration_value",
            ]),
    )?;
    let mut ctx: std::collections::HashMap<i64, (i64, String, usize, String)> =
        std::collections::HashMap::new();
    for r in loops.rows() {
        let id = r.get("ctx_id").and_then(Value::as_i64).unwrap_or(0);
        ctx.insert(
            id,
            (
                r.get("parent_ctx_id").and_then(Value::as_i64).unwrap_or(0),
                r.get("loop_name").map(|v| v.to_text()).unwrap_or_default(),
                r.get("loop_iteration").and_then(Value::as_i64).unwrap_or(0) as usize,
                r.get("iteration_value")
                    .map(|v| v.to_text())
                    .unwrap_or_default(),
            ),
        );
    }
    let frames_of = |leaf: i64| -> Vec<LoopFrame> {
        let mut chain = Vec::new();
        let mut cur = leaf;
        while cur != 0 {
            let Some((parent, name, iteration, value)) = ctx.get(&cur) else {
                break;
            };
            chain.push(LoopFrame {
                name: name.clone(),
                iteration: *iteration,
                value: value.clone(),
            });
            cur = *parent;
        }
        chain.reverse();
        chain
    };
    // Logs of this run.
    let logs = snap
        .lookup("logs", "tstamp", &Value::Int(tstamp))?
        .filter_eq("filename", &Value::from(filename));
    for r in logs.rows() {
        let name = r.get("value_name").map(|v| v.to_text()).unwrap_or_default();
        let value = r.get("value").map(|v| v.to_text()).unwrap_or_default();
        if let Some(arg) = name.strip_prefix("arg::") {
            record.args.push((arg.to_string(), value));
            continue;
        }
        if name == "ckpt_loop::meta" {
            let mut lines = value.lines();
            let lname = lines.next().unwrap_or_default().to_string();
            let len: usize = lines.next().and_then(|l| l.parse().ok()).unwrap_or(0);
            record.ckpt_loop = Some((lname, len));
            continue;
        }
        let leaf = r.get("ctx_id").and_then(Value::as_i64).unwrap_or(0);
        record.logs.push(LogRecord {
            name,
            value,
            loops: frames_of(leaf),
        });
    }
    // Checkpoints from obj_store.
    let objs = snap
        .lookup("obj_store", "tstamp", &Value::Int(tstamp))?
        .filter_eq("filename", &Value::from(filename));
    for r in objs.rows() {
        let name = r.get("value_name").map(|v| v.to_text()).unwrap_or_default();
        if let Some(iter) = name.strip_prefix("ckpt::") {
            if let Ok(i) = iter.parse::<usize>() {
                let contents = r.get("contents").map(|v| v.to_text()).unwrap_or_default();
                record.checkpoints.insert(i, contents);
            }
        }
    }
    record.ckpt_count = record.checkpoints.len();
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRAIN: &str = r#"
let data = load_dataset("first_page", 60, 42);
let epochs = flor.arg("epochs", 3);
let net = make_model(5, 4, 2, 7);
with flor.checkpointing(net) {
    for e in flor.loop("epoch", range(0, epochs)) {
        let loss = train_step(net, data, 0.5);
        flor.log("loss", loss);
    }
}
"#;

    #[test]
    fn run_script_records_and_commits() {
        let flor = Flor::new("demo");
        flor.fs.write("train.fl", TRAIN);
        let out = run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
        assert_eq!(out.record.values_of("loss").len(), 3);
        assert_eq!(out.record.checkpoints.len(), 3);
        assert_eq!(out.tstamp, 1);
        // Rows are committed and visible.
        let df = flor.dataframe(&["loss"]).unwrap();
        assert_eq!(df.n_rows(), 3);
        // Checkpoints landed in obj_store.
        let objs = flor.db.scan("obj_store").unwrap();
        assert!(objs.n_rows() >= 3);
        // The commit captured the source.
        assert_eq!(
            flor.repo.file_at(&out.vid, "train.fl").unwrap().unwrap(),
            TRAIN
        );
    }

    #[test]
    fn cli_args_flow_through() {
        let flor = Flor::new("demo");
        flor.fs.write("train.fl", TRAIN);
        flor.set_cli_arg("epochs", "5");
        let out = run_script(&flor, "train.fl", CheckpointPolicy::None).unwrap();
        assert_eq!(out.record.values_of("loss").len(), 5);
        assert_eq!(out.record.arg("epochs"), Some("5"));
    }

    #[test]
    fn load_record_round_trips() {
        let flor = Flor::new("demo");
        flor.fs.write("train.fl", TRAIN);
        let out = run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
        let loaded = load_record(&flor, "train.fl", out.tstamp).unwrap();
        assert_eq!(loaded.values_of("loss"), out.record.values_of("loss"));
        assert_eq!(loaded.arg("epochs"), Some("3"));
        assert_eq!(loaded.ckpt_loop, Some(("epoch".to_string(), 3)));
        assert_eq!(
            loaded.checkpoints.keys().collect::<Vec<_>>(),
            out.record.checkpoints.keys().collect::<Vec<_>>()
        );
        // Frames reconstructed from loops table.
        let last = loaded.logs.iter().rfind(|l| l.name == "loss").unwrap();
        assert_eq!(last.outer_iteration(), Some(2));
    }

    #[test]
    fn load_record_frames_come_from_the_runs_own_contexts() {
        let flor = Flor::new("demo");
        flor.fs.write("train.fl", TRAIN);
        let a = run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
        flor.fs.write(
            "eval.fl",
            "for s in flor.loop(\"step\", range(0, 2)) {\n    flor.log(\"s\", s);\n}\n",
        );
        let b = run_script(&flor, "eval.fl", CheckpointPolicy::None).unwrap();
        // A row of the other run reusing a context id of `a`'s must not
        // reach `a`'s frames.
        let a_ctx = flor
            .db
            .lookup("logs", "ctx_id", &Value::Int(1))
            .unwrap()
            .filter_eq("tstamp", &Value::Int(a.tstamp));
        assert!(a_ctx.n_rows() > 0, "run a logs under context 1");
        flor.db
            .insert(
                "loops",
                vec![
                    Value::from(&*flor.projid),
                    Value::Int(b.tstamp),
                    Value::from("eval.fl"),
                    Value::Int(1),
                    Value::Int(0),
                    Value::from("intruder"),
                    Value::Int(9),
                    Value::from("9"),
                ],
            )
            .unwrap();
        flor.db.commit().unwrap();
        let frames = |logs: &[LogRecord]| -> Vec<(String, Vec<LoopFrame>, String)> {
            logs.iter()
                .map(|l| (l.name.clone(), l.loops.clone(), l.value.clone()))
                .collect()
        };
        for (run, file) in [(&a, "train.fl"), (&b, "eval.fl")] {
            let loaded = load_record(&flor, file, run.tstamp).unwrap();
            assert_eq!(frames(&loaded.logs), frames(&run.record.logs), "{file}");
        }
    }

    #[test]
    fn two_runs_get_distinct_tstamps() {
        let flor = Flor::new("demo");
        flor.fs.write("train.fl", TRAIN);
        let a = run_script(&flor, "train.fl", CheckpointPolicy::None).unwrap();
        let b = run_script(&flor, "train.fl", CheckpointPolicy::None).unwrap();
        assert!(b.tstamp > a.tstamp);
        let df = flor.dataframe(&["loss"]).unwrap();
        assert_eq!(df.n_rows(), 6);
    }

    #[test]
    fn missing_file_errors() {
        let flor = Flor::new("demo");
        assert!(matches!(
            run_script(&flor, "ghost.fl", CheckpointPolicy::None),
            Err(RunError::MissingFile(_))
        ));
    }

    #[test]
    fn parse_error_reported() {
        let flor = Flor::new("demo");
        flor.fs.write("bad.fl", "let = ;");
        assert!(matches!(
            run_script(&flor, "bad.fl", CheckpointPolicy::None),
            Err(RunError::Parse(_))
        ));
    }

    #[test]
    fn arg_text_parsing() {
        assert_eq!(parse_arg_text("7"), RtValue::Int(7));
        assert_eq!(parse_arg_text("0.5"), RtValue::Float(0.5));
        assert_eq!(parse_arg_text("true"), RtValue::Bool(true));
        assert_eq!(parse_arg_text("adam"), RtValue::Str("adam".into()));
    }
}
