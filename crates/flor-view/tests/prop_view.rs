//! The crate's central property: for random interleavings of log writes,
//! loop contexts, commits, rollbacks, hindsight backfills and mid-stream
//! queries, an incrementally maintained view is **cell-for-cell
//! identical** — columns, order, nulls and all — to the kernel's
//! from-scratch recompute (the oracle), and it gets there by applying
//! deltas, never by falling back to a rebuild. Both executors run the
//! same pivot operator, so the plain pivot under every oracle is also
//! checked against an independent long-frame reference
//! ([`reference::reference_pivot`]).

mod reference;

use flor_core::{backfill, run_script, Flor};
use flor_df::{DataFrame, Value};
use flor_record::CheckpointPolicy;
use flor_store::{CmpOp, CompactionPolicy, Predicate, Query, Snapshot, StoreResult};
use flor_view::{QueryPlan, ViewCatalog};
use proptest::prelude::*;
use reference::reference_pivot;
use std::sync::atomic::{AtomicUsize, Ordering};

const NAMES: [&str; 3] = ["loss", "acc", "note"];
const LOOPS: [&str; 2] = ["document", "page"];

/// One step of a randomized kernel session.
#[derive(Debug, Clone)]
enum Op {
    /// `flor.log(NAMES[i], value)`.
    Log(usize, Value),
    /// Open a loop context `LOOPS[i]` at the given iteration.
    LoopPush(usize, usize),
    /// Close the innermost loop context.
    LoopPop,
    /// `flor.commit`: flush + make the rows visible.
    Commit,
    /// Discard the staged transaction.
    Rollback,
    /// Materialize the view mid-stream, so later ops arrive as deltas to
    /// an already-built view.
    Query,
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        (-100.0f64..100.0).prop_map(Value::Float),
        "[a-z]{0,6}".prop_map(Value::from),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0usize..NAMES.len(), arb_value()).prop_map(|(i, v)| Op::Log(i, v)),
        2 => (0usize..LOOPS.len(), 0usize..4).prop_map(|(i, it)| Op::LoopPush(i, it)),
        2 => Just(Op::LoopPop),
        2 => Just(Op::Commit),
        1 => Just(Op::Rollback),
        2 => Just(Op::Query),
    ]
}

/// Drive the ops through a fresh in-memory kernel, returning the session.
fn run_ops(ops: &[Op]) -> Flor {
    drive(Flor::new("prop"), ops)
}

/// Drive the ops through `flor`, returning the session.
fn drive(flor: Flor, ops: &[Op]) -> Flor {
    flor.set_filename("session.fl");
    let mut depth = 0usize;
    for op in ops {
        match op {
            Op::Log(i, v) => {
                flor.log(NAMES[*i], v.clone());
            }
            Op::LoopPush(i, iter) => {
                if depth < 2 {
                    flor.loop_iter(LOOPS[*i], *iter, &Value::Int(*iter as i64));
                    depth += 1;
                }
            }
            Op::LoopPop => {
                if depth > 0 {
                    flor.loop_end();
                    depth -= 1;
                }
            }
            Op::Commit => {
                flor.commit("step").unwrap();
            }
            Op::Rollback => {
                flor.db.rollback();
            }
            Op::Query => {
                flor.dataframe(&["loss", "acc"]).unwrap();
                let _ = flor.dataframe_latest(&["loss"], &["projid"]);
            }
        }
    }
    while depth > 0 {
        flor.loop_end();
        depth -= 1;
    }
    flor.commit("final").unwrap();
    flor
}

/// The from-scratch pivot of `names` (`collect_full`), checked against
/// the long-frame reference over the same snapshot's rows: equal frames,
/// or both refusing the projection.
fn full_pivot(flor: &Flor, names: &[&str]) -> StoreResult<DataFrame> {
    full_pivot_at(flor, &flor.db.pin(), names)
}

/// [`full_pivot`] over a given snapshot.
fn full_pivot_at(flor: &Flor, snap: &Snapshot, names: &[&str]) -> StoreResult<DataFrame> {
    let logs = snap.query(&Query::table("logs"))?;
    let loops = snap.query(&Query::table("loops"))?;
    let full = flor.run_plan_at(snap, &QueryPlan::new(names));
    match (&full, reference_pivot(&logs, &loops, names)) {
        (Ok(got), Ok(want)) => assert_eq!(
            *got, want,
            "from-scratch pivot diverged from the reference for {names:?}"
        ),
        (Err(_), Err(_)) => {}
        (got, want) => panic!("divergent outcomes for {names:?}: {got:?} vs {want:?}"),
    }
    full
}

/// Compare the maintained view against the from-scratch oracle for one
/// projection, cell for cell (frame equality covers column names, column
/// order, row order and every value) — and the oracle against the
/// reference.
fn assert_matches_oracle(flor: &Flor, names: &[&str]) {
    let incremental = flor.dataframe(names).unwrap();
    let oracle = full_pivot(flor, names).unwrap();
    assert_eq!(
        incremental, oracle,
        "incremental view diverged from recompute for {names:?}"
    );
}

/// Literals random predicates compare against: values that do and do not
/// occur in the session (`projid` is "prop", `filename` "session.fl",
/// tstamps are small ints), plus nulls and arbitrary strings.
fn arb_pred_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-3i64..12).prop_map(Value::Int),
        (-100.0f64..100.0).prop_map(Value::Float),
        Just(Value::Str("prop".into())),
        Just(Value::Str("session.fl".into())),
        "[a-z]{0,3}".prop_map(Value::from),
        Just(Value::Null),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    let col = prop_oneof![
        // Fixed context columns (joined to the snapshot pivot's fetch)...
        Just("projid"),
        Just("tstamp"),
        Just("filename"),
        // ...loop dimensions and value columns (residual post-pass)...
        Just("document_iteration"),
        Just("document_value"),
        Just("page_iteration"),
        Just("loss"),
        Just("acc"),
        Just("note"),
        // ...and a column no frame will ever have.
        Just("missing_col"),
    ];
    let op = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ];
    (col, op, arb_pred_value()).prop_map(|(c, o, v)| Predicate::new(c, o, v))
}

/// Random full plans: filter × latest × order × limit over a random
/// projection. Some plans filter on a fixed column no row passes, so the
/// answer is empty while its schema still has columns.
fn arb_plan() -> impl Strategy<Value = QueryPlan> {
    let names = prop_oneof![
        Just(vec!["loss", "acc", "note"]),
        Just(vec!["loss", "acc"]),
        Just(vec!["acc"]),
        Just(vec!["note", "loss"]),
    ];
    let latest = prop_oneof![
        Just(None),
        Just(Some(vec!["projid".to_string()])),
        Just(Some(vec!["document_value".to_string()])),
        Just(Some(vec!["projid".to_string(), "tstamp".to_string()])),
    ];
    let order = prop_oneof![
        Just(Vec::new()),
        Just(vec![("tstamp".to_string(), false)]),
        Just(vec![
            ("loss".to_string(), true),
            ("tstamp".to_string(), false)
        ]),
        Just(vec![("document_iteration".to_string(), true)]),
    ];
    let limit = prop_oneof![Just(None), (0usize..15).prop_map(Some)];
    let predicates = prop_oneof![
        4 => proptest::collection::vec(arb_predicate(), 0..3),
        1 => Just(vec![Predicate::new("projid", CmpOp::Eq, "nobody")]),
    ];
    (names, predicates, latest, order, limit).prop_map(
        |(names, predicates, latest_group, order_by, limit)| QueryPlan {
            names: names.into_iter().map(String::from).collect(),
            predicates,
            latest_group,
            order_by,
            limit,
        },
    )
}

/// The independent oracle for a full plan: the from-scratch re-pivot
/// ([`full_pivot`], checked against the reference), then *post-hoc*
/// filtering/dedup/order/limit written with different operators than the
/// production post-pass uses.
fn posthoc_oracle(flor: &Flor, plan: &QueryPlan) -> StoreResult<DataFrame> {
    posthoc_at(flor, &flor.db.pin(), plan)
}

/// [`posthoc_oracle`] over a given snapshot.
fn posthoc_at(flor: &Flor, snap: &Snapshot, plan: &QueryPlan) -> StoreResult<DataFrame> {
    let names: Vec<&str> = plan.names.iter().map(String::as_str).collect();
    let mut df = full_pivot_at(flor, snap, &names)?;
    for p in &plan.predicates {
        df = if df.column(&p.col).is_none() {
            df.head(0)
        } else {
            df.filter(|r| p.matches(r.get(&p.col).expect("column checked")))
        };
    }
    if let Some(group) = &plan.latest_group {
        if df.n_rows() > 0 {
            let gs: Vec<&str> = group.iter().map(String::as_str).collect();
            df = df.latest(&gs, "tstamp")?;
        }
    }
    if !plan.order_by.is_empty() {
        let keys: Vec<(&str, bool)> = plan
            .order_by
            .iter()
            .map(|(c, a)| (c.as_str(), *a))
            .collect();
        df = df.sort_by(&keys)?;
    }
    if let Some(n) = plan.limit {
        df = df.head(n);
    }
    Ok(df)
}

/// Session steps for the pushed-executor oracle: [`arb_op`]'s mix with
/// NaN among the logged values, more logs per context (so a name is
/// often re-logged under one key), and loops re-entered at small
/// iteration numbers so one run often repeats a context — distinct
/// `ctx_id`s, one index key, rows that must merge.
fn arb_pushed_op() -> impl Strategy<Value = Op> {
    let value = prop_oneof![
        4 => arb_value(),
        1 => Just(Value::Float(f64::NAN)),
    ];
    prop_oneof![
        9 => (0usize..NAMES.len(), value).prop_map(|(i, v)| Op::Log(i, v)),
        3 => (0usize..LOOPS.len(), 0usize..2).prop_map(|(i, it)| Op::LoopPush(i, it)),
        3 => Just(Op::LoopPop),
        2 => Just(Op::Commit),
        1 => Just(Op::Rollback),
    ]
}

/// [`arb_plan`]'s shapes plus what the snapshot executor pushes below
/// the pivot: predicates, `latest` groups and sort keys over loop
/// dimensions (the script's `epoch` among them), the empty group, and
/// columns no frame has.
fn arb_pushed_plan() -> impl Strategy<Value = QueryPlan> {
    let col = prop_oneof![
        Just("projid"),
        Just("tstamp"),
        Just("filename"),
        Just("document_iteration"),
        Just("document_value"),
        Just("page_iteration"),
        Just("page_value"),
        Just("epoch_iteration"),
        Just("loss"),
        Just("acc"),
        Just("missing_col"),
    ];
    let op = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ];
    let predicate = (col, op, arb_pred_value()).prop_map(|(c, o, v)| Predicate::new(c, o, v));
    let group = |cols: &[&str]| Some(cols.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    let latest = prop_oneof![
        3 => Just(None),
        1 => Just(group(&["projid"])),
        1 => Just(group(&["document_value"])),
        1 => Just(group(&["epoch_iteration"])),
        1 => Just(group(&["filename", "page_iteration"])),
        1 => Just(group(&[])),
        2 => Just(group(&["missing_col"])),
        1 => Just(group(&["acc"])),
    ];
    let key = |c: &str, asc: bool| (c.to_string(), asc);
    let order = prop_oneof![
        Just(Vec::new()),
        Just(vec![key("tstamp", false)]),
        Just(vec![key("loss", true), key("tstamp", false)]),
        Just(vec![key("acc", false)]),
        Just(vec![key("document_iteration", true), key("note", false)]),
        Just(vec![key("epoch_iteration", false)]),
        Just(vec![key("missing_col", true)]),
    ];
    // Small limits, zero included, are where a wrong cut shows.
    let limit = prop_oneof![
        2 => Just(None),
        1 => Just(Some(0)),
        3 => (1usize..4).prop_map(Some),
        1 => (4usize..12).prop_map(Some),
    ];
    let names = prop_oneof![
        Just(vec!["loss", "acc", "note"]),
        Just(vec!["loss"]),
        Just(vec!["acc", "loss"]),
        Just(vec!["note"]),
    ];
    (
        names,
        proptest::collection::vec(predicate, 0..3),
        latest,
        order,
        limit,
    )
        .prop_map(
            |(names, predicates, latest_group, order_by, limit)| QueryPlan {
                names: names.into_iter().map(String::from).collect(),
                predicates,
                latest_group,
                order_by,
                limit,
            },
        )
}

/// `collect_full` of every plan against [`posthoc_oracle`], which pivots
/// the *plain* projection and filters after the fact; both failing
/// counts as agreement.
fn pushed_equals_posthoc(flor: &Flor, plans: &[QueryPlan], when: &str) {
    for plan in plans {
        match (flor.run_plan_full(plan), posthoc_oracle(flor, plan)) {
            (Ok(pushed), Ok(oracle)) => assert_eq!(
                pushed, oracle,
                "{when}: pushed execution diverged from post-hoc oracle: {plan:?}"
            ),
            (Err(_), Err(_)) => {}
            (a, b) => panic!(
                "{when}: divergent outcomes for {plan:?}: {:?} vs {:?}",
                a.map(|d| d.n_rows()),
                b.map(|d| d.n_rows())
            ),
        }
    }
}

/// One step of a session that also writes rows through the raw
/// `Database`, as a writer other than the kernel may: a `ctx_id`
/// defined twice, a parent that arrives after its child, rows under a
/// context no `loops` row defines — with store upkeep in between.
#[derive(Debug, Clone)]
enum RawStep {
    /// Kernel ops ([`drive`], which ends in a commit).
    Kernel(Vec<Op>),
    /// Commit a `loops` row defining `ctx` in loop `LOOPS[name]` under
    /// `parent` (< `ctx`, so every chain ends).
    Loop {
        ctx: i64,
        parent: i64,
        name: usize,
        iteration: i64,
    },
    /// Commit a `logs` row of `NAMES[name]` under `ctx`.
    Log { ctx: i64, name: usize, tstamp: i64 },
    /// Compact into 3-row segments: `logs` is clustered by `tstamp`, so
    /// rows at old timestamps land in earlier segments than rows
    /// committed before them — segment order is not rid order.
    Compact,
    /// Checkpoint, then reopen (dropping every pin).
    Reopen,
    /// Pin a snapshot that every later check checks again.
    Pin,
    /// Run the plans on the newest snapshot, then on every pin.
    Check,
}

fn arb_raw_step() -> impl Strategy<Value = RawStep> {
    prop_oneof![
        3 => proptest::collection::vec(arb_pushed_op(), 0..8).prop_map(RawStep::Kernel),
        3 => (1i64..10, 0usize..LOOPS.len(), 0i64..2, 0u32..100).prop_map(
            |(ctx, name, iteration, parent)| RawStep::Loop {
                ctx,
                parent: i64::from(parent) % ctx,
                name,
                iteration,
            }
        ),
        3 => (0i64..12, 0usize..NAMES.len(), 1i64..4)
            .prop_map(|(ctx, name, tstamp)| RawStep::Log { ctx, name, tstamp }),
        1 => Just(RawStep::Compact),
        1 => Just(RawStep::Reopen),
        1 => Just(RawStep::Pin),
        2 => Just(RawStep::Check),
    ]
}

/// Every plan through [`Flor::execute_at`] on `snap`, against
/// [`posthoc_at`] on the same snapshot; both failing counts as agreement.
fn executed_equals_posthoc(flor: &Flor, snap: &Snapshot, plans: &[QueryPlan], when: &str) {
    for plan in plans {
        match (flor.run_plan_at(snap, plan), posthoc_at(flor, snap, plan)) {
            (Ok(got), Ok(want)) => assert_eq!(got, want, "{when}: {plan:?}"),
            (Err(_), Err(_)) => {}
            (a, b) => panic!(
                "{when}: divergent outcomes for {plan:?}: {:?} vs {:?}",
                a.map(|d| d.n_rows()),
                b.map(|d| d.n_rows())
            ),
        }
    }
}

const TRAIN_V1: &str = r#"
let data = load_dataset("first_page", 30, 42);
let net = make_model(5, 4, 2, 7);
with flor.checkpointing(net) {
    for e in flor.loop("epoch", range(0, 2)) {
        let loss = train_step(net, data, 0.5);
        flor.log("loss", loss);
    }
}
"#;

const TRAIN_V2: &str = r#"
let data = load_dataset("first_page", 30, 42);
let net = make_model(5, 4, 2, 7);
with flor.checkpointing(net) {
    for e in flor.loop("epoch", range(0, 2)) {
        let loss = train_step(net, data, 0.5);
        flor.log("loss", loss);
        let m = eval_model(net, data);
        flor.log("acc", m[0]);
    }
}
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random interleavings of inserts, loop contexts, commits and
    /// rollbacks: the maintained view equals the oracle, via deltas only.
    #[test]
    fn incremental_view_equals_recompute(ops in proptest::collection::vec(arb_op(), 0..40)) {
        let flor = run_ops(&ops);
        assert_matches_oracle(&flor, &["loss", "acc", "note"]);
        assert_matches_oracle(&flor, &["acc"]);
        assert_matches_oracle(&flor, &["loss", "note"]);
        // No silent rescue: equality must come from delta application.
        prop_assert_eq!(flor.views.stats().fallback_rebuilds, 0);
    }

    /// Same, for the `latest`-deduplicated views, over both an index
    /// group and a loop-dimension group (which may or may not exist,
    /// and must then error identically to the oracle).
    #[test]
    fn incremental_latest_equals_recompute(ops in proptest::collection::vec(arb_op(), 0..40)) {
        let flor = run_ops(&ops);
        let inc = flor.dataframe_latest(&["loss", "acc"], &["projid"]).unwrap();
        let full = flor.query(&["loss", "acc"]).latest(&["projid"]).collect_full().unwrap();
        let reference = posthoc_oracle(&flor, &QueryPlan::with_latest(&["loss", "acc"], &["projid"]));
        prop_assert_eq!(&full, &reference.unwrap());
        prop_assert_eq!(inc, full);
        let dim_group = ["document_iteration"];
        match (
            flor.dataframe_latest(&["loss"], &dim_group),
            flor.query(&["loss"]).latest(&dim_group).collect_full(),
        ) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {} // both reject the missing dimension
            (a, b) => prop_assert!(false, "divergent outcomes: {:?} vs {:?}", a, b),
        }
    }

    /// Random full plans (filter × latest × order × limit) over random
    /// op interleavings: the lazy builder's incremental result is
    /// cell-for-cell equal to post-hoc filtering of the from-scratch
    /// `_full` oracle — and gets there by deltas, never a rebuild.
    #[test]
    fn random_plans_equal_posthoc_oracle(
        ops in proptest::collection::vec(arb_op(), 0..40),
        plans in proptest::collection::vec(arb_plan(), 1..4),
    ) {
        let flor = run_ops(&ops);
        for plan in &plans {
            match (flor.run_plan(plan), posthoc_oracle(&flor, plan)) {
                (Ok(inc), Ok(oracle)) => prop_assert_eq!(
                    (*inc).clone(),
                    oracle,
                    "lazy plan diverged from post-hoc oracle: {:?}",
                    plan
                ),
                (Err(_), Err(_)) => {} // both reject (e.g. unknown sort/group column)
                (a, b) => prop_assert!(
                    false,
                    "divergent outcomes for {:?}: {:?} vs {:?}",
                    plan,
                    a.map(|d| d.n_rows()),
                    b.map(|d| d.n_rows())
                ),
            }
        }
        // Querying again after a live commit still applies deltas only.
        // The commit logs inside a never-seen loop, so it also widens the
        // schema of every already-materialized view — including the ones
        // whose plans' filters exclude the new row.
        flor.loop_iter("tail", 0, &Value::Int(0));
        flor.log("loss", Value::Float(0.125));
        flor.loop_end();
        flor.commit("tail").unwrap();
        for plan in &plans {
            match (flor.run_plan(plan), posthoc_oracle(&flor, plan)) {
                (Ok(inc), Ok(oracle)) => prop_assert_eq!((*inc).clone(), oracle),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(
                    false,
                    "post-commit divergence for {:?}: {:?} vs {:?}",
                    plan,
                    a.map(|d| d.n_rows()),
                    b.map(|d| d.n_rows())
                ),
            }
        }
        prop_assert_eq!(flor.views.stats().fallback_rebuilds, 0);
    }

    /// Hindsight backfill interleaved with live logging: recovered values
    /// land in the already-materialized view as it catches up, and
    /// the result still equals the oracle — and neither moves when store
    /// upkeep (clustered compaction, checkpoint + reopen) then rearranges
    /// the out-of-order rows the backfill appended.
    #[test]
    fn backfill_interleaving_equals_recompute(
        ops in proptest::collection::vec(arb_op(), 0..20),
        later in proptest::collection::vec(arb_op(), 0..10),
        query_before_backfill in any::<bool>(),
        upkeep in proptest::collection::vec(any::<bool>(), 0..3),
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let wal = std::env::temp_dir().join(format!(
            "flor-prop-view-{}-{}.wal",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let sidecar = flor_store::checkpoint::sidecar_path(&wal);
        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(&sidecar);
        let mut flor = drive(Flor::open("prop", &wal).unwrap(), &ops);
        flor.fs.write("train.fl", TRAIN_V1);
        run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
        flor.fs.write("train.fl", TRAIN_V2);
        // Live logging after the run the backfill will write into: a
        // never-seen name, so commit order and `tstamp` order disagree on
        // which value column appears first.
        flor.log("late", Value::Int(1));
        flor = drive(flor, &later);
        if query_before_backfill {
            // Materialize with holes so backfill must arrive as deltas —
            // including into a latest view whose max-timestamp rows are
            // exactly the ones backfill upserts.
            flor.set_filename("session.fl");
            flor.dataframe(&["loss", "acc"]).unwrap();
            flor.dataframe_latest(&["loss", "acc"], &["projid"]).unwrap();
        }
        backfill(&flor, "train.fl", &["acc"], 2).unwrap();
        assert_matches_oracle(&flor, &["loss", "acc"]);
        assert_matches_oracle(&flor, &["loss", "acc", "note"]);
        let inc = flor.dataframe_latest(&["loss", "acc"], &["projid"]).unwrap();
        let full = flor
            .query(&["loss", "acc"]).latest(&["projid"]).collect_full()
            .unwrap();
        prop_assert_eq!(&inc, &full);
        prop_assert_eq!(flor.views.stats().fallback_rebuilds, 0);

        let names = ["loss", "acc", "note", "late"];
        let want = flor.dataframe(&names).unwrap();
        for compact in upkeep {
            if compact {
                flor.compact().unwrap();
            } else {
                flor.checkpoint().unwrap();
                drop(flor);
                flor = Flor::open("prop", &wal).unwrap();
            }
            prop_assert_eq!(flor.dataframe(&names).unwrap(), want.clone());
            prop_assert_eq!(flor.query(&names).collect_full().unwrap(), want.clone());
            prop_assert_eq!(
                flor.query(&["loss", "acc"]).latest(&["projid"]).collect_full().unwrap(),
                inc.clone()
            );
        }
        drop(flor);
        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(&sidecar);
    }
}

/// Every non-empty proper subset of [`NAMES`], the widest first, so a
/// narrow one is often selected from a view that was itself selected.
fn proper_subsets() -> Vec<Vec<&'static str>> {
    let full = (1usize << NAMES.len()) - 1;
    let mut subsets: Vec<Vec<&str>> = (1..full)
        .map(|bits| {
            let named = NAMES.iter().enumerate();
            named
                .filter(|(i, _)| bits >> i & 1 == 1)
                .map(|(_, n)| *n)
                .collect()
        })
        .collect();
    subsets.sort_by_key(|names| std::cmp::Reverse(names.len()));
    subsets
}

/// `plan` read through `catalog` equals `collect_full` at the same
/// epoch, cell for cell; both failing counts as agreement.
fn catalog_equals_full(flor: &Flor, catalog: &ViewCatalog, plan: &QueryPlan, when: &str) {
    let off = &mut flor_obs::ActiveTrace::new(false, None, "");
    let answer = catalog.answer(&flor.db.pin(), plan, off);
    match (answer.map(|a| a.frame), flor.run_plan_full(plan)) {
        (Ok(got), Ok(want)) => assert_eq!(*got, want, "{when}: {plan:?}"),
        (Err(_), Err(_)) => {}
        (a, b) => panic!(
            "{when}: divergent outcomes for {plan:?}: {:?} vs {:?}",
            a.map(|d| d.n_rows()),
            b.map(|d| d.n_rows())
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Answering a projection from a cached view that covers its names:
    /// over sessions with logged nulls, two loop depths, rollbacks, a
    /// backfill and a compaction, once the 3-name view is read, every
    /// proper subset of its names — plain, then `latest` by
    /// `epoch_iteration` — is **selected** from a cached view, never
    /// built, and equals `collect_full` cell for cell. The selected views
    /// then catch up over the rest of the session (the backfill among
    /// it, when it had not run yet) and still equal it, with no rebuild.
    #[test]
    fn covered_projections_are_selected_and_equal_recompute(
        ops in proptest::collection::vec(arb_op(), 0..20),
        later in proptest::collection::vec(arb_op(), 0..10),
        tail in proptest::collection::vec(arb_op(), 0..10),
        backfill_first in any::<bool>(),
        compact in any::<bool>(),
    ) {
        let mut flor = drive(Flor::new("prop"), &ops);
        flor.fs.write("train.fl", TRAIN_V1);
        run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
        flor.fs.write("train.fl", TRAIN_V2);
        flor = drive(flor, &later);
        if backfill_first {
            backfill(&flor, "train.fl", &["acc"], 2).unwrap();
        }
        if compact {
            flor.compact().unwrap();
        }
        let catalog = ViewCatalog::new(flor.db.clone(), 8);
        let mut plans = vec![QueryPlan::new(&NAMES)];
        catalog_equals_full(&flor, &catalog, &plans[0], "wide");
        for names in proper_subsets() {
            let before = catalog.stats();
            let plain = QueryPlan::new(&names);
            catalog_equals_full(&flor, &catalog, &plain, "selected");
            let after = catalog.stats();
            prop_assert_eq!(after.misses, before.misses + 1, "{:?}", names);
            prop_assert_eq!(after.selections, before.selections + 1, "{:?}", names);
            let latest = QueryPlan::with_latest(&names, &["epoch_iteration"]);
            catalog_equals_full(&flor, &catalog, &latest, "selected, latest");
            plans.extend([plain, latest]);
        }
        if !backfill_first {
            backfill(&flor, "train.fl", &["acc"], 2).unwrap();
        }
        flor = drive(flor, &tail);
        let misses = catalog.stats().misses;
        for plan in &plans {
            catalog_equals_full(&flor, &catalog, plan, "caught up");
        }
        let stats = catalog.stats();
        prop_assert_eq!((stats.misses, stats.fallback_rebuilds), (misses, 0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The snapshot executor's steps below the pivot — store and key
    /// predicates, the `latest` cut, the top-K cut, the schema pass that
    /// gives the reduced pivot the full one's columns — are exact: random plans over random
    /// sessions (nested and repeated loops, re-logged and NaN / null
    /// values, columns first seen outside a filtered window, unknown
    /// columns) equal the post-hoc oracle, and keep doing so once a
    /// backfill appends rows at old timestamps (and the fragments made
    /// before it are reused at a later pin) and compaction (into
    /// full-size or 3-row segments) and checkpoint + reopen rearrange
    /// them.
    #[test]
    fn random_plans_pushed_equal_posthoc_oracle(
        ops in proptest::collection::vec(arb_pushed_op(), 0..40),
        later in proptest::collection::vec(arb_pushed_op(), 0..10),
        plans in proptest::collection::vec(arb_pushed_plan(), 1..6),
        upkeep in proptest::collection::vec(0u8..3, 1..3),
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let wal = std::env::temp_dir().join(format!(
            "flor-prop-pushed-{}-{}.wal",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let sidecar = flor_store::checkpoint::sidecar_path(&wal);
        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(&sidecar);
        let mut flor = drive(Flor::open("prop", &wal).unwrap(), &ops);
        pushed_equals_posthoc(&flor, &plans, "live");
        flor.fs.write("train.fl", TRAIN_V1);
        run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
        flor.fs.write("train.fl", TRAIN_V2);
        flor = drive(flor, &later);
        backfill(&flor, "train.fl", &["acc"], 2).unwrap();
        pushed_equals_posthoc(&flor, &plans, "after backfill");
        // The fragments those queries made stay exact after a two-worker
        // backfill: a query at a second pin makes none.
        let mut inert = flor_obs::ActiveTrace::new(false, None, "");
        if let Ok((_, explain)) = flor.execute_at(&flor.db.pin(), &plans[0], &mut inert) {
            prop_assert_eq!(explain.fragments, (0, 0), "{}", explain);
        }
        for step in upkeep {
            match step {
                0 => {
                    flor.compact().unwrap();
                }
                1 => {
                    flor.checkpoint().unwrap();
                    drop(flor);
                    flor = Flor::open("prop", &wal).unwrap();
                }
                _ => {
                    // 3-row segments: keys straddle many fragments, and
                    // the clustered rewrite permutes rids across them.
                    let small = CompactionPolicy {
                        target_segment_rows: 3,
                        ..CompactionPolicy::default()
                    };
                    flor.db.compact_with(&small).unwrap();
                }
            }
            pushed_equals_posthoc(&flor, &plans, "after upkeep");
        }
        drop(flor);
        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(&sidecar);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The snapshot executor reads loop contexts and the schema from
    /// per-segment summaries shared across snapshots; it stays exact when
    /// raw `loops` rows redefine a `ctx_id` or give a logged context its
    /// parent late (the summaries' fallbacks), across commits,
    /// compactions, checkpoint + reopen, and snapshots pinned before the
    /// rows that change a chain — whichever snapshot summarised a
    /// segment first.
    #[test]
    fn executor_stays_exact_when_raw_rows_change_chains(
        steps in proptest::collection::vec(arb_raw_step(), 1..24),
        plans in proptest::collection::vec(arb_pushed_plan(), 1..4),
    ) {
        drive_raw(&steps, |i| i as i64, |flor, snap, when| {
            executed_equals_posthoc(flor, snap, &plans, when)
        });
    }
}

/// Run `steps` on a fresh durable kernel, calling `check` on the newest
/// snapshot and on every pin at each [`RawStep::Check`] and at the end.
/// The raw `logs` row of step `i` logs `value(i)`; consecutive ones
/// commit together, as one segment.
fn drive_raw(
    steps: &[RawStep],
    value: impl Fn(usize) -> i64,
    check: impl Fn(&Flor, &Snapshot, &str),
) {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let wal = std::env::temp_dir().join(format!(
        "flor-prop-raw-{}-{}.wal",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let sidecar = flor_store::checkpoint::sidecar_path(&wal);
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(&sidecar);
    let mut flor = Flor::open("prop", &wal).unwrap();
    let mut pins: Vec<Snapshot> = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        match step {
            RawStep::Kernel(ops) => flor = drive(flor, ops),
            RawStep::Loop {
                ctx,
                parent,
                name,
                iteration,
            } => {
                let row = vec![
                    "prop".into(),
                    Value::Int(1),
                    "session.fl".into(),
                    Value::Int(*ctx),
                    Value::Int(*parent),
                    LOOPS[*name].into(),
                    Value::Int(*iteration),
                    Value::from(iteration.to_string()),
                ];
                flor.db.insert("loops", row).unwrap();
                flor.db.commit().unwrap();
            }
            RawStep::Log { ctx, name, tstamp } => {
                let row = vec![
                    "prop".into(),
                    Value::Int(*tstamp),
                    "session.fl".into(),
                    Value::Int(*ctx),
                    NAMES[*name].into(),
                    Value::from(value(i).to_string()),
                    Value::Int(flor_df::DataType::Int.tag()),
                ];
                flor.db.insert("logs", row).unwrap();
                if !matches!(steps.get(i + 1), Some(RawStep::Log { .. })) {
                    flor.db.commit().unwrap();
                }
            }
            RawStep::Compact => {
                let small = CompactionPolicy {
                    target_segment_rows: 3,
                    ..CompactionPolicy::default()
                };
                flor.db.compact_with(&small).unwrap();
            }
            RawStep::Reopen => {
                pins.clear();
                flor.checkpoint().unwrap();
                drop(flor);
                flor = Flor::open("prop", &wal).unwrap();
            }
            RawStep::Pin => pins.push(flor.db.pin()),
            RawStep::Check => {
                check(&flor, &flor.db.pin(), &format!("step {i}"));
                for (p, snap) in pins.iter().enumerate() {
                    check(&flor, snap, &format!("step {i}, pin {p}"));
                }
            }
        }
    }
    check(&flor, &flor.db.pin(), "at the end");
    for snap in &pins {
        check(&flor, snap, "a pin, at the end");
    }
    drop(pins);
    drop(flor);
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(&sidecar);
}

/// Kernel ops that log from a small domain — repeated values, NaN and
/// nulls — so top-K boundaries tie across fragments.
fn arb_tied_op() -> impl Strategy<Value = Op> {
    let value = prop_oneof![
        Just(Value::Int(0)),
        Just(Value::Int(1)),
        Just(Value::Float(0.5)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Null),
    ];
    prop_oneof![
        6 => (0usize..NAMES.len(), value).prop_map(|(i, v)| Op::Log(i, v)),
        2 => (0usize..LOOPS.len(), 0usize..2).prop_map(|(i, it)| Op::LoopPush(i, it)),
        2 => Just(Op::LoopPop),
        2 => Just(Op::Commit),
    ]
}

/// [`arb_raw_step`]'s histories — 3-row compactions, raw logs at old
/// `tstamp`s, late parents, redefined `ctx_id`s — with more tied values
/// and bursts of raw logs, which [`drive_raw`] commits together: one
/// fragment of keys at old `tstamp`s, some of them keys other fragments
/// hold. The property logs 0 and 1 in turn there, so cells tie.
fn arb_cut_steps() -> impl Strategy<Value = Vec<RawStep>> {
    let log = (0i64..12, 0usize..NAMES.len(), 1i64..4)
        .prop_map(|(ctx, name, tstamp)| RawStep::Log { ctx, name, tstamp });
    let steps = prop_oneof![
        3 => arb_raw_step().prop_map(|step| vec![step]),
        2 => proptest::collection::vec(arb_tied_op(), 0..8)
            .prop_map(|ops| vec![RawStep::Kernel(ops)]),
        1 => proptest::collection::vec(log, 2..6),
    ];
    proptest::collection::vec(steps, 1..16).prop_map(|steps| steps.concat())
}

/// Predicate-free plans whose cut reads the fragments' summaries:
/// `latest` over the empty group, `projid`, and `filename` +
/// `page_iteration`; top-K ascending and descending on a projected name,
/// in projections where some keys lack that name.
fn arb_cut_plan() -> impl Strategy<Value = QueryPlan> {
    let names = prop_oneof![
        Just(vec!["loss"]),
        Just(vec!["loss", "acc", "note"]),
        Just(vec!["acc", "loss"]),
        Just(vec!["note", "acc"]),
    ];
    let group = prop_oneof![
        Just(Vec::new()),
        Just(vec!["projid"]),
        Just(vec!["filename", "page_iteration"]),
    ];
    let latest = (names.clone(), group).prop_map(|(names, group)| QueryPlan {
        latest_group: Some(group.into_iter().map(String::from).collect()),
        ..QueryPlan::new(&names)
    });
    let then = prop_oneof![
        Just(None),
        Just(Some(("tstamp", false))),
        Just(Some(("acc", true))),
    ];
    let top_k =
        (names, 0usize..3, any::<bool>(), then, 0usize..6).prop_map(|(names, at, asc, then, n)| {
            let first = (names[at % names.len()].to_string(), asc);
            let rest = then.map(|(c, asc)| (c.to_string(), asc));
            QueryPlan {
                order_by: std::iter::once(first).chain(rest).collect(),
                limit: Some(n),
                ..QueryPlan::new(&names)
            }
        });
    prop_oneof![latest, top_k]
}

/// [`executed_equals_posthoc`], and every plan whose cut ran below the
/// pivot read the fragments' summaries to do it.
fn summarised_equals_posthoc(flor: &Flor, snap: &Snapshot, plans: &[QueryPlan], when: &str) {
    executed_equals_posthoc(flor, snap, plans, when);
    for plan in plans {
        let mut inert = flor_obs::ActiveTrace::new(false, None, "");
        if let Ok((_, ex)) = flor.execute_at(snap, plan, &mut inert) {
            let cut = ex.latest_cut.is_some() || ex.top_k_cut.is_some();
            assert_eq!(cut, ex.cut_summaries.is_some(), "{when}: {plan:?}\n{ex}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The `latest` and top-K cuts that merge only the keys their
    /// fragments' summaries say can survive equal the post-hoc oracle,
    /// on the newest snapshot and on every pin, across every history
    /// [`arb_cut_steps`] makes.
    #[test]
    fn cut_summaries_equal_posthoc(
        steps in arb_cut_steps(),
        plans in proptest::collection::vec(arb_cut_plan(), 1..5),
    ) {
        drive_raw(&steps, |i| (i % 2) as i64, |flor, snap, when| {
            summarised_equals_posthoc(flor, snap, &plans, when)
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// [`cut_summaries_equal_posthoc`] as a soak: run with `--ignored`.
    #[test]
    #[ignore]
    fn cut_summaries_equal_posthoc_soak(
        steps in arb_cut_steps(),
        plans in proptest::collection::vec(arb_cut_plan(), 1..5),
    ) {
        drive_raw(&steps, |i| (i % 2) as i64, |flor, snap, when| {
            summarised_equals_posthoc(flor, snap, &plans, when)
        });
    }
}
