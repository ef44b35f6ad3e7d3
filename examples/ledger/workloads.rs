//! Seeded, deterministic generators for every workload's inputs. The
//! system under test receives only what these functions produce: `--seed`
//! picks plan constants, window bounds and logged values, and the same
//! seed always yields the same op list ([`op_hash`], asserted by
//! `ledger --check`).

use crate::stats::{fnv1a, Rng, FNV_OFFSET};
use flordb::store::CmpOp;
use flordb::view::QueryPlan;

/// The five workloads, in the order the ledger runs and reports them.
pub const WORKLOADS: [&str; 5] = [
    "serve.scan",
    "serve.point",
    "serve.live",
    "embed.train",
    "hindsight.backfill",
];

/// The four metric names every training step logs once per epoch.
pub const NAMES: [&str; 4] = ["loss", "acc", "lr", "grad_norm"];
/// History H: `RUNS` committed runs of `EPOCHS` epochs of [`NAMES`] —
/// 16,000 `logs` rows, 4,000 pivot rows, 200 distinct `tstamp`s.
pub const RUNS: usize = 200;
pub const EPOCHS: usize = 20;
/// Rows the fixed top-K plan keeps.
pub const TOP_K: usize = 10;
/// Runs a window plan spans.
pub const WINDOW_RUNS: i64 = 10;

/// What a served plan stresses; the time-share and per-layer probes are
/// reported per workload, but the cycle composition is per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Full four-name pivot of all history.
    Pivot4,
    /// One-name pivot of all history.
    Pivot1,
    /// `tstamp == t`: one run's rows.
    Selective,
    /// `tstamp` inside a ten-run range.
    Window,
    /// `order_by("loss").limit(TOP_K)`.
    TopK,
    /// `latest` per `epoch_iteration`.
    Latest,
}

/// One generated query: the plan and the row count its answer has on
/// history H (the cheap per-response check; the byte-level oracle runs
/// once per distinct plan).
#[derive(Debug, Clone)]
pub struct PlanOp {
    pub kind: PlanKind,
    pub plan: QueryPlan,
    pub rows_on_h: usize,
}

fn top_k() -> QueryPlan {
    QueryPlan {
        order_by: vec![("loss".to_string(), true)],
        limit: Some(TOP_K),
        ..QueryPlan::new(&["loss"])
    }
}

/// `serve.scan`: wide answers only, so the cycle has no seeded constant —
/// every response is all 4,000 pivot rows.
pub fn scan_cycle() -> Vec<PlanOp> {
    let rows_on_h = RUNS * EPOCHS;
    vec![
        PlanOp {
            kind: PlanKind::Pivot4,
            plan: QueryPlan::new(&NAMES),
            rows_on_h,
        },
        PlanOp {
            kind: PlanKind::Pivot1,
            plan: QueryPlan::new(&["loss"]),
            rows_on_h,
        },
    ]
}

/// `serve.point`: 16 rounds of selective / window / top-K / `latest`,
/// with `t` and the window's lower bound drawn from the seed.
pub fn point_cycle(seed: u64) -> Vec<PlanOp> {
    let mut rng = Rng::new(seed ^ 0x706f_696e);
    let mut ops = Vec::with_capacity(64);
    for _ in 0..16 {
        let t = rng.range(1, RUNS as u64) as i64;
        ops.push(PlanOp {
            kind: PlanKind::Selective,
            plan: QueryPlan::new(&NAMES).filter("tstamp", CmpOp::Eq, t),
            rows_on_h: EPOCHS,
        });
        let lo = rng.range(1, RUNS as u64 - WINDOW_RUNS as u64 + 1) as i64;
        ops.push(PlanOp {
            kind: PlanKind::Window,
            plan: QueryPlan::new(&NAMES)
                .filter("tstamp", CmpOp::Ge, lo)
                .filter("tstamp", CmpOp::Lt, lo + WINDOW_RUNS),
            rows_on_h: WINDOW_RUNS as usize * EPOCHS,
        });
        ops.push(PlanOp {
            kind: PlanKind::TopK,
            plan: top_k(),
            rows_on_h: TOP_K,
        });
        ops.push(PlanOp {
            kind: PlanKind::Latest,
            plan: QueryPlan::with_latest(&["loss"], &["epoch_iteration"]),
            rows_on_h: EPOCHS,
        });
    }
    ops
}

/// `serve.live`: the reader alternates one wide and one narrow plan, so
/// both read regimes run beside the writer.
pub fn live_cycle(seed: u64) -> Vec<PlanOp> {
    let scan = scan_cycle();
    point_cycle(seed)
        .into_iter()
        .enumerate()
        .flat_map(|(i, p)| [scan[i % scan.len()].clone(), p])
        .collect()
}

/// The value stream history H is logged from.
pub fn history_values(seed: u64) -> Rng {
    Rng::new(seed ^ 0x6869_7374)
}

/// The value stream `embed.train` steps and the `serve.live` writer log.
pub fn step_values(seed: u64) -> Rng {
    Rng::new(seed ^ 0x7374_6570)
}

/// `embed.train`'s two hot plans: read after every commit, so they stay
/// resident in the 8-entry view catalog.
pub fn hot_plans() -> [QueryPlan; 2] {
    [
        QueryPlan::new(&NAMES),
        QueryPlan::with_latest(&["loss"], &["epoch_iteration"]),
    ]
}

/// `embed.train`'s twelve cold plans, visited round-robin every tenth
/// step: with the two hot views that is 14 distinct views against a
/// catalog of 8, so every cold read is an LRU miss and a full build.
pub fn cold_plans() -> Vec<QueryPlan> {
    let mut plans: Vec<QueryPlan> = Vec::new();
    for (i, a) in NAMES.iter().enumerate() {
        for b in &NAMES[i + 1..] {
            plans.push(QueryPlan::new(&[a, b]));
        }
    }
    for name in &NAMES[1..] {
        plans.push(QueryPlan::new(&[name]));
    }
    for name in &NAMES[1..] {
        plans.push(QueryPlan::with_latest(&[name], &["epoch_iteration"]));
    }
    plans
}

/// The ledger's own Fig. 5-style training script (the driver does not
/// depend on `flor-bench`). `seed` picks the dataset and the model's
/// initial weights; each `version` differs in its learning rate, so the
/// recorded history is sixteen genuinely different sources;
/// `work(units)` sizes an epoch; `hindsight` adds the two statements the
/// developer wishes they had logged — one inside the epoch loop, one
/// after it.
pub fn train_script(
    seed: u64,
    version: usize,
    epochs: usize,
    work: usize,
    hindsight: bool,
) -> String {
    let lr = 0.30 + version as f64 * 0.01;
    let (data_seed, model_seed) = (seed % 1000, seed % 997 + 1);
    let (in_loop, after_loop) = if hindsight {
        (
            "        let m = eval_model(net, data);\n        flor.log(\"acc\", m[0]);\n",
            "let fm = eval_model(net, data);\nflor.log(\"final_acc\", fm[0]);\n",
        )
    } else {
        ("", "")
    };
    format!(
        r#"let data = load_dataset("first_page", 120, {data_seed});
let epochs = flor.arg("epochs", {epochs});
let net = make_model(5, 6, 2, {model_seed});
with flor.checkpointing(net) {{
    for e in flor.loop("epoch", range(0, epochs)) {{
        work({work});
        let loss = train_step(net, data, {lr:.2});
        flor.log("loss", loss);
{in_loop}    }}
}}
{after_loop}"#
    )
}

/// Versions and epochs per version of the `hindsight.backfill` history,
/// and the `work` units that size an epoch to about a millisecond.
pub const VERSIONS: usize = 16;
pub const SCRIPT_EPOCHS: usize = 32;
pub const SCRIPT_WORK: usize = 3200;

/// Fingerprint of everything `seed` generates for `workload`: plans with
/// their constants, the first thousand logged values, the scripts.
pub fn op_hash(workload: &str, seed: u64) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, workload.as_bytes());
    let mut plans = |ops: &[PlanOp]| {
        for op in ops {
            h = fnv1a(h, format!("{:?}/{}", op.plan, op.rows_on_h).as_bytes());
        }
    };
    let values = |h: u64, mut rng: Rng| {
        (0..1000).fold(h, |h, _| fnv1a(h, &rng.value().to_bits().to_le_bytes()))
    };
    match workload {
        "serve.scan" => plans(&scan_cycle()),
        "serve.point" => plans(&point_cycle(seed)),
        "serve.live" => plans(&live_cycle(seed)),
        "embed.train" => {
            for p in hot_plans().iter().chain(&cold_plans()) {
                h = fnv1a(h, format!("{p:?}").as_bytes());
            }
        }
        _ => {
            for v in 0..VERSIONS {
                let src = train_script(seed, v, SCRIPT_EPOCHS, SCRIPT_WORK, false);
                h = fnv1a(h, src.as_bytes());
            }
        }
    }
    match workload {
        "serve.live" | "embed.train" => values(values(h, history_values(seed)), step_values(seed)),
        "hindsight.backfill" => h,
        _ => values(h, history_values(seed)),
    }
}
