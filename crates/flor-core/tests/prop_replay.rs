//! Differential replay oracle: however the planner cuts a backfill —
//! skip, restore-then-run, resume-tail, stop — the values it ingests
//! equal, value for value per loop context, what a foresight run of the
//! new source logs, and it never replays more iterations than
//! whole-iteration replay (a replay given no placement) does.
//!
//! Random programs: pre-loop `let`s (among them `alias`, a second binding
//! of the model), then `with flor.checkpointing` around a `flor.loop` of
//! 1–6 iterations whose body holds 1–4 of loop-carried int and float
//! updates, `train_step`, `poison` of the dataset, a nested plain `for`,
//! an `if e % 2 == 0`, a `flor.log` of an existing name, `randint` and a
//! loop-body alias of the model, alone or trained through.
//! The new version adds side-effect-free log statements under fresh names
//! (some with a fresh `let` they read) at random sites: the body's tail,
//! mid-body, inside the `if`, after the loop, before the loop. Some read
//! the model through `alias`, some the nested loop's variable, and some
//! `k`, a binding the new version makes before the loop (a scalar or one
//! more alias of the model). Each case runs under every checkpoint policy
//! with 1–3 replay workers and backfills a random subset of the new names.
//!
//! Checkpoints hold only what the loop can change, so each case also
//! checks the recorded version's checkpoints directly: installed over the
//! state the statements before the loop leave, each reproduces the whole
//! state at its boundary, and none is larger than that whole state
//! written out (which, sharing aliased objects, is no larger than a
//! whole-state snapshot that writes each binding's objects inline).
//!
//! Then deterministic cases for each plan shape on a ledger-shaped script.

use flor_core::{backfill, load_record, run_script, Flor};
use flor_diff::propagate_logs;
use flor_record::{
    record, replay, replay_with, CheckpointPolicy, LogRecord, Placement, ReplayControl,
};
use flor_script::{parse, to_source, Directive, FlorRuntime, Interpreter, Program};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const FILE: &str = "train.fl";

const POLICIES: [CheckpointPolicy; 4] = [
    CheckpointPolicy::None,
    CheckpointPolicy::EveryK(1),
    CheckpointPolicy::EveryK(2),
    CheckpointPolicy::Adaptive { alpha: 0.0 },
];

/// One loop-body statement.
#[derive(Clone)]
enum BodyStmt {
    Line(String),
    /// `if e % 2 == 0 { .. }` with these then-lines.
    If(Vec<String>),
}

/// `a` and `a0` sort before `alias`, so a checkpoint meets the model
/// first under a name the loop binds.
const BODY_LINES: [&str; 9] = [
    "x = x + e * 3 + 1;",
    "y = y * 0.5 + e;",
    "let loss = train_step(net, data, 0.3);",
    "for j in range(0, 3) { acc = acc + j * e; }",
    "flor.log(\"x\", x);",
    "r = randint(0, 1000);",
    "poison(data, 0.1);",
    "let a = net;",
    "let a0 = net; train_step(a0, data, 0.1);",
];

/// The body line binding `j`.
const NESTED_FOR: usize = 3;

/// Bindings the new version may make before the loop, as `let k = ..;`,
/// each with an expression reading `k`.
const PRE_BINDINGS: [(&str, &str); 3] = [
    ("2.5", "x * k"),
    ("net", "eval_model(k, data)[0]"),
    ("alias", "train_step(k, data, 0.0)"),
];

/// Where an injected statement goes in the new version.
#[derive(Clone, Copy, Debug)]
enum Site {
    Before,
    Tail,
    /// Ahead of the original body statement at this index.
    Mid(usize),
    InIf,
    After,
}

struct Case {
    old: String,
    new: String,
    /// The new names, one per injected log.
    names: Vec<String>,
    sites: Vec<Site>,
}

fn pick<T: Clone>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize].clone()
}

fn gen_case(rng: &mut TestRng) -> Case {
    let epochs = 1 + rng.below(6);
    let mut kinds: Vec<usize> = (0..BODY_LINES.len() + 1).collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let body: Vec<BodyStmt> = kinds[..1 + rng.below(4) as usize]
        .iter()
        .map(|&k| match BODY_LINES.get(k) {
            Some(line) => BodyStmt::Line(line.to_string()),
            None => BodyStmt::If(vec!["x = x + 7;".to_string()]),
        })
        .collect();

    let mut sites = vec![Site::Before, Site::Tail, Site::After, Site::Tail];
    sites.extend((0..body.len()).map(Site::Mid));
    if body.iter().any(|s| matches!(s, BodyStmt::If(_))) {
        sites.push(Site::InIf);
    }
    let injections: Vec<Site> = (0..1 + rng.below(3)).map(|_| pick(rng, &sites)).collect();
    let pre_binding = (rng.below(4) > 0).then(|| pick(rng, &PRE_BINDINGS));
    let nested = body
        .iter()
        .any(|s| matches!(s, BodyStmt::Line(l) if l == BODY_LINES[NESTED_FOR]));

    // The injected lines, by where they go.
    let (mut pre, mut post, mut tail, mut in_if) = (vec![], vec![], vec![], vec![]);
    let mut ahead_of: Vec<Vec<String>> = vec![Vec::new(); body.len()];
    let mut names = Vec::new();
    if let Some((value, reader)) = pre_binding {
        pre.push(format!("let k = {value};"));
        pre.push(format!("flor.log(\"hk\", {reader});"));
        names.push("hk".to_string());
    }
    for (k, site) in injections.iter().enumerate() {
        let name = format!("h{k}");
        let mut exprs = vec![
            "x",
            "y * 2.0",
            "x + acc",
            "acc",
            "eval_model(alias, data)[0]",
        ];
        if !matches!(site, Site::Before) {
            exprs.extend([
                "x * 3 + e",
                "loss",
                "r",
                "y + e",
                "train_step(alias, data, 0.0)",
            ]);
        }
        // `j` is bound once the nested loop has run in some iteration.
        if nested && matches!(site, Site::Tail | Site::After) {
            exprs.push("acc + j");
        }
        if let Some((_, reader)) = pre_binding {
            exprs.extend([reader, reader]);
        }
        let expr = pick(rng, &exprs);
        let lines = if rng.below(3) == 0 {
            vec![
                format!("let v{k} = {expr};"),
                format!("flor.log(\"{name}\", v{k});"),
            ]
        } else {
            vec![format!("flor.log(\"{name}\", {expr});")]
        };
        names.push(name);
        match *site {
            Site::Before => pre.extend(lines),
            Site::After => post.extend(lines),
            Site::Tail => tail.extend(lines),
            Site::Mid(i) => ahead_of[i].extend(lines),
            Site::InIf => in_if.extend(lines),
        }
    }
    let mut new_body = Vec::new();
    for (stmt, ahead) in body.iter().zip(ahead_of) {
        new_body.extend(ahead.into_iter().map(BodyStmt::Line));
        new_body.push(match stmt {
            BodyStmt::If(then) => BodyStmt::If(then.iter().chain(&in_if).cloned().collect()),
            line => line.clone(),
        });
    }
    new_body.extend(tail.into_iter().map(BodyStmt::Line));
    Case {
        old: render(epochs, &[], &body, &[]),
        new: render(epochs, &pre, &new_body, &post),
        names,
        sites: injections,
    }
}

fn render(epochs: u64, pre: &[String], body: &[BodyStmt], post: &[String]) -> String {
    let mut src = String::from(
        "let data = load_dataset(\"first_page\", 24, 5);\nlet net = make_model(5, 3, 2, 9);\nlet alias = net;\nlet x = 2;\nlet y = 0.25;\nlet acc = 0;\nlet loss = 0.0;\nlet r = 0;\n",
    );
    for line in pre {
        src += &format!("{line}\n");
    }
    src += &format!("with flor.checkpointing(net) {{\n    for e in flor.loop(\"epoch\", range(0, {epochs})) {{\n");
    for stmt in body {
        match stmt {
            BodyStmt::Line(line) => src += &format!("        {line}\n"),
            BodyStmt::If(then) => {
                src += "        if e % 2 == 0 {\n";
                for line in then {
                    src += &format!("            {line}\n");
                }
                src += "        }\n";
            }
        }
    }
    src += "    }\n}\n";
    for line in post {
        src += &format!("{line}\n");
    }
    src
}

/// A log keyed for comparison: name, loop frames, and the value — numbers
/// by value, since ingestion stores them typed.
type Keyed = (String, Vec<(String, usize, String)>, String);

fn keyed(logs: &[LogRecord], names: &[String]) -> Vec<Keyed> {
    let mut out: Vec<Keyed> = logs
        .iter()
        .filter(|l| names.contains(&l.name))
        .map(|l| {
            let frames = l
                .loops
                .iter()
                .map(|f| (f.name.clone(), f.iteration, f.value.clone()))
                .collect();
            let value = match l.value.parse::<f64>() {
                Ok(v) => format!("{:?}", v.to_bits()),
                Err(_) => l.value.clone(),
            };
            (l.name.clone(), frames, value)
        })
        .collect();
    out.sort();
    out
}

/// Record `old` under `policy`, then backfill `names` from `new`;
/// returns what the run holds of `names` afterwards, the report's
/// iterations replayed, and whole-iteration replay's count.
fn hindsight(
    case: &Case,
    names: &[String],
    policy: CheckpointPolicy,
    parallelism: usize,
) -> (Vec<Keyed>, usize, usize) {
    let flor = Flor::new("hindsight");
    flor.fs.write(FILE, &case.old);
    let run = run_script(&flor, FILE, policy).expect("record old version");
    flor.fs.write(FILE, &case.new);
    let wanted: Vec<&str> = names.iter().map(String::as_str).collect();
    let report = backfill(&flor, FILE, &wanted, parallelism).expect("backfill");
    assert_eq!(report.versions.len(), 1);
    let held = load_record(&flor, FILE, run.tstamp).expect("load record");

    let new = parse(&case.new).expect("new");
    let prop = propagate_logs(&parse(&case.old).expect("old"), &new);
    assert_eq!(
        to_source(&prop.patched),
        to_source(&new),
        "propagation rebuilds the new version"
    );
    let total = run.record.ckpt_loop.as_ref().map_or(0, |(_, n)| *n);
    let all: Vec<usize> = (0..total).collect();
    let whole = replay(&prop.patched, &run.record, &all, parallelism)
        .expect("whole-iteration replay")
        .iterations_executed;
    (keyed(&held.logs, names), report.iterations_replayed, whole)
}

/// Runs every checkpoint-loop iteration before `.0`, then stops the
/// program.
struct StopAt(usize);

impl FlorRuntime for StopAt {
    fn plan(&mut self, _loop_name: &str, iteration: usize) -> Directive<'_> {
        if iteration < self.0 {
            Directive::Run
        } else {
            Directive::Stop
        }
    }
}

/// The interpreter after `prog` ran its first `iterations` iterations:
/// with 0, the state the statements before the loop leave.
fn stopped_at(prog: &Program, iterations: usize) -> Interpreter {
    let mut interp = Interpreter::new();
    interp
        .run(prog, &mut StopAt(iterations))
        .expect("program runs");
    interp
}

/// Each checkpoint of `src` recorded at every boundary, installed over
/// the state before the loop, reproduces the whole state at its boundary
/// (written out whole, byte for byte), and is no larger than it.
fn checkpoints_restore_whole_states(src: &str) {
    let prog = parse(src).expect("old");
    let (rec, _) = record(&prog, CheckpointPolicy::EveryK(1), &[]).expect("record");
    for (&i, ckpt) in &rec.checkpoints {
        let whole = stopped_at(&prog, i + 1).snapshot().expect("whole state");
        assert!(
            ckpt.len() <= whole.len(),
            "boundary {i}: {} > {} bytes\n{src}",
            ckpt.len(),
            whole.len()
        );
        let mut restored = stopped_at(&prog, 0);
        restored.restore(ckpt).expect("restore");
        assert_eq!(
            restored.snapshot().expect("restored state"),
            whole,
            "boundary {i}\n{src}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn backfill_equals_foresight_under_every_plan(seed in any::<u64>()) {
        let mut rng = TestRng::for_case(seed);
        let case = gen_case(&mut rng);
        checkpoints_restore_whole_states(&case.old);
        let truth = Flor::new("foresight");
        truth.fs.write(FILE, &case.new);
        let foresight = run_script(&truth, FILE, CheckpointPolicy::None).expect("foresight run");
        for policy in POLICIES {
            let mut names: Vec<String> =
                case.names.iter().filter(|_| rng.below(2) == 0).cloned().collect();
            if names.is_empty() {
                names.push(pick(&mut rng, &case.names));
            }
            let parallelism = 1 + rng.below(3) as usize;
            let (held, replayed, whole) = hindsight(&case, &names, policy, parallelism);
            let context = format!(
                "{policy:?}, {parallelism} workers, names {names:?}, sites {:?}\n{}",
                case.sites, case.new
            );
            prop_assert_eq!(held, keyed(&foresight.record.logs, &names), "{}", context);
            prop_assert!(replayed <= whole, "{} > {}: {}", replayed, whole, context);
        }
    }
}

/// The ledger's training script, scaled down: `work` per epoch, then the
/// hindsight statements in the loop body (`mid_body` puts them ahead of
/// the `loss` log) and after the loop.
fn ledger_script(hindsight: bool, mid_body: bool) -> String {
    let eval = "        let m = eval_model(net, data);\n        flor.log(\"acc\", m[0]);\n";
    let (before_log, tail, after) = match (hindsight, mid_body) {
        (false, _) => ("", "", ""),
        (true, false) => (
            "",
            eval,
            "let fm = eval_model(net, data);\nflor.log(\"final_acc\", fm[0]);\n",
        ),
        (true, true) => (eval, "", ""),
    };
    format!(
        "let data = load_dataset(\"first_page\", 120, 1);\nlet epochs = flor.arg(\"epochs\", 32);\nlet net = make_model(5, 6, 2, 2);\nwith flor.checkpointing(net) {{\n    for e in flor.loop(\"epoch\", range(0, epochs)) {{\n        work(4);\n        let loss = train_step(net, data, 0.3);\n{before_log}        flor.log(\"loss\", loss);\n{tail}    }}\n}}\n{after}"
    )
}

/// A ledger-shaped kernel holding one recorded 32-epoch run, with the
/// hindsight version in the working tree.
fn ledger_history(mid_body: bool) -> (Flor, flor_core::RunOutcome) {
    let flor = Flor::new("ledger");
    flor.fs.write(FILE, &ledger_script(false, false));
    let run = run_script(&flor, FILE, CheckpointPolicy::EveryK(1)).expect("record");
    flor.fs.write(FILE, &ledger_script(true, mid_body));
    (flor, run)
}

#[test]
fn ledger_tail_resumes_every_epoch_without_its_work() {
    let (flor, run) = ledger_history(false);
    let report = backfill(&flor, FILE, &["acc"], 2).expect("backfill");
    assert_eq!(
        (report.iterations_replayed, report.iterations_full),
        (32, 32)
    );
    assert_eq!(report.values_recovered, 32);

    // The replay itself: 32 restores, and only the tail's eval_model work.
    let old = parse(&ledger_script(false, false)).expect("old");
    let prop = propagate_logs(&old, &parse(&ledger_script(true, false)).expect("new"));
    let injected = prop
        .injected
        .iter()
        .map(|i| (i.log_name.as_str(), &i.old_path));
    let placement = Placement::locate(&prop.patched, "epoch", injected);
    assert_eq!(placement.tail, Some(2));
    let all: Vec<usize> = (0..32).collect();
    let out = replay_with(
        &prop.patched,
        &run.record,
        &all,
        placement.tail,
        2,
        &ReplayControl::new(),
    )
    .expect("replay");
    assert_eq!(out.stats.restores, 32);
    // 32 tails and the statements after the loop: one eval_model each.
    assert_eq!(
        out.stats.work_units,
        33 * (120 / 4),
        "no work() and no train_step ran"
    );
}

#[test]
fn ledger_after_loop_name_replays_the_last_epoch_only() {
    let (flor, _) = ledger_history(false);
    let report = backfill(&flor, FILE, &["final_acc"], 2).expect("backfill");
    assert_eq!(
        (report.iterations_replayed, report.iterations_full),
        (1, 32)
    );
    assert_eq!(report.values_recovered, 1);
    // Both statements together: every epoch's tail, then past the loop.
    let (flor, _) = ledger_history(false);
    let report = backfill(&flor, FILE, &["acc", "final_acc"], 2).expect("backfill");
    assert_eq!(report.iterations_replayed, 32);
    assert_eq!(report.values_recovered, 33);
}

#[test]
fn ledger_mid_body_statement_plans_as_before() {
    let (flor, run) = ledger_history(true);
    let report = backfill(&flor, FILE, &["acc"], 2).expect("backfill");
    let old = parse(&ledger_script(false, false)).expect("old");
    let prop = propagate_logs(&old, &parse(&ledger_script(true, true)).expect("new"));
    let all: Vec<usize> = (0..32).collect();
    let whole = replay(&prop.patched, &run.record, &all, 2).expect("replay");
    assert_eq!(report.iterations_replayed, whole.iterations_executed);
    assert_eq!(report.values_recovered, 32);
    // And the values are the foresight run's.
    let truth = Flor::new("foresight");
    truth.fs.write(FILE, &ledger_script(true, true));
    let foresight = run_script(&truth, FILE, CheckpointPolicy::None).expect("foresight");
    let names = ["acc".to_string()];
    let held = load_record(&flor, FILE, run.tstamp).expect("load");
    assert_eq!(
        keyed(&held.logs, &names),
        keyed(&foresight.record.logs, &names)
    );
}
