//! The pivot's catch-up against its long-frame reference
//! ([`reference::reference_pivot`]): for random `logs` / `loops` streams
//! — nested loops sharing a name, links to contexts that never exist,
//! `Int(2)` / `Float(2.0)` keys, re-logged values, null and colliding
//! value names — a [`ViewCatalog`] view built on the empty database and
//! caught up after one commit of every row, and one caught up after each
//! of the same stream's random commits, both equal the reference pivot of
//! every projected row, with no rebuild. A name colliding with an index
//! column fails all three. (The snapshot pivot that builds a view is
//! checked against the same reference by `tests/prop_view.rs`.)

mod reference;

use flor_df::{DataFrame, DataType, DfError, Value};
use flor_store::{flor_schema, ColType, Database};
use flor_view::{QueryPlan, ViewCatalog};
use proptest::prelude::*;
use reference::reference_pivot;

const LOG_COLS: [&str; 7] = [
    "projid",
    "tstamp",
    "filename",
    "ctx_id",
    "value_name",
    "value",
    "value_type",
];
const LOOP_COLS: [&str; 8] = [
    "projid",
    "tstamp",
    "filename",
    "ctx_id",
    "parent_ctx_id",
    "loop_name",
    "loop_iteration",
    "iteration_value",
];
/// A `ctx_id` no `loops` row ever defines.
const MISSING: i64 = 999;

/// One step of a generated stream. Choices index into the tables below;
/// context choices are taken modulo what is defined so far, so a log row
/// names only contexts already defined (or none, or a missing one) and a
/// loop's parent is an earlier context (or none, or a missing one).
#[derive(Debug, Clone)]
enum Event {
    /// Define the next context: parent choice, loop name, iteration,
    /// loop value.
    Loop(usize, usize, i64, usize),
    /// A `logs` row: projid, tstamp, filename, context, name, value.
    Log(usize, usize, usize, usize, usize, usize),
    /// End the current commit.
    Cut,
}

fn projid(i: usize) -> Value {
    ["p", "q"][i].into()
}

fn tstamp(i: usize) -> Value {
    [
        Value::Int(1),
        Value::Int(2),
        Value::Float(2.0),
        Value::Float(2.5),
    ][i]
        .clone()
}

fn filename(i: usize) -> Value {
    ["f", "g"][i].into()
}

fn loop_name(i: usize) -> Value {
    ["a", "b"][i].into()
}

fn loop_value(i: usize) -> Value {
    [Value::from("0"), Value::from("1"), Value::Int(1)][i].clone()
}

/// Logged names: three plain ones, a null (column `""`), and two that
/// collide with an index column.
fn value_name(i: usize) -> Value {
    [
        Value::from("x"),
        Value::from("y"),
        Value::from("z"),
        Value::Null,
        Value::from("tstamp"),
        Value::from("a_iteration"),
    ][i]
        .clone()
}

/// `(value, value_type)`: text read back as each tag, and a non-text cell.
fn logged(i: usize) -> (Value, Value) {
    let (v, t): (Value, DataType) = [
        ("1".into(), DataType::Int),
        ("2.0".into(), DataType::Float),
        ("a".into(), DataType::Str),
        (Value::Int(5), DataType::Int),
        (Value::Null, DataType::Null),
        ("true".into(), DataType::Bool),
    ][i]
        .clone();
    (v, Value::Int(t.tag()))
}

fn arb_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        2 => (0usize..8, 0usize..2, 0i64..2, 0usize..3)
            .prop_map(|(p, n, it, v)| Event::Loop(p, n, it, v)),
        // Mostly the plain names; the null and colliding ones are rare.
        8 => (0usize..2, 0usize..4, 0usize..2, 0usize..8, 0usize..3, 0usize..6)
            .prop_map(|(p, t, f, c, n, v)| Event::Log(p, t, f, c, n, v)),
        1 => (0usize..2, 0usize..4, 0usize..2, 0usize..8, 3usize..6, 0usize..6)
            .prop_map(|(p, t, f, c, n, v)| Event::Log(p, t, f, c, n, v)),
        2 => Just(Event::Cut),
    ]
}

fn arb_names() -> impl Strategy<Value = Vec<&'static str>> {
    prop_oneof![
        3 => Just(vec!["x", "y", "z"]),
        2 => Just(vec!["y", "x"]),
        1 => Just(vec!["z"]),
        1 => Just(vec!["x", ""]),
        1 => Just(vec!["x", "tstamp"]),
        1 => Just(vec!["y", "a_iteration"]),
    ]
}

/// The stream's `logs` and `loops` rows and its commits, each a list of
/// `(table, row)` in insertion order.
struct Stream {
    logs: Vec<Vec<Value>>,
    loops: Vec<Vec<Value>>,
    batches: Vec<Vec<(&'static str, Vec<Value>)>>,
}

fn stream(events: &[Event]) -> Stream {
    let mut out = Stream {
        logs: Vec::new(),
        loops: Vec::new(),
        batches: vec![Vec::new()],
    };
    let mut defined: Vec<i64> = Vec::new();
    let context = |defined: &[i64], choice: usize| match choice % (defined.len() + 2) {
        0 => 0,
        1 => MISSING,
        k => defined[k - 2],
    };
    for event in events {
        let (table, row) = match *event {
            Event::Loop(parent, name, iteration, value) => {
                let ctx = defined.len() as i64 + 1;
                let row = vec![
                    projid(0),
                    Value::Int(1),
                    filename(0),
                    Value::Int(ctx),
                    Value::Int(context(&defined, parent)),
                    loop_name(name),
                    Value::Int(iteration),
                    loop_value(value),
                ];
                defined.push(ctx);
                out.loops.push(row.clone());
                ("loops", row)
            }
            Event::Log(p, t, f, ctx, name, value) => {
                let (value, tag) = logged(value);
                let row = vec![
                    projid(p),
                    tstamp(t),
                    filename(f),
                    Value::Int(context(&defined, ctx)),
                    value_name(name),
                    value,
                    tag,
                ];
                out.logs.push(row.clone());
                ("logs", row)
            }
            Event::Cut => {
                out.batches.push(Vec::new());
                continue;
            }
        };
        if let Some(batch) = out.batches.last_mut() {
            batch.push((table, row));
        }
    }
    out
}

fn frame(cols: &[&str], rows: &[Vec<Value>]) -> DataFrame {
    DataFrame::from_rows(cols.to_vec(), rows.to_vec()).expect("rows match the columns")
}

/// The reference pivot of every projected row.
fn expected(s: &Stream, names: &[&str]) -> Result<DataFrame, DfError> {
    reference_pivot(
        &frame(&LOG_COLS, &s.logs),
        &frame(&LOOP_COLS, &s.loops),
        names,
    )
}

/// The stream's rows committed to a database, one commit per batch,
/// with a catalog view of `names` caught up after each commit. The view
/// is built while the database is empty, so every row reaches it through
/// catch-up; a rebuild is an error. The tables' columns accept any type,
/// so the generator's off-type cells (`Float` stamps, non-text values)
/// reach the view as generated.
fn fed(names: &[&str], batches: &[Vec<(&'static str, Vec<Value>)>]) -> Result<DataFrame, String> {
    let mut schemas = flor_schema();
    schemas.retain(|t| t.name == "logs" || t.name == "loops");
    for column in schemas.iter_mut().flat_map(|t| &mut t.columns) {
        column.ty = ColType::Any;
    }
    let db = Database::in_memory(schemas);
    let catalog = ViewCatalog::new(db.clone(), 1);
    let plan = QueryPlan::new(names);
    let read = || {
        let off = &mut flor_obs::ActiveTrace::new(false, None, "");
        let answer = catalog.answer(&db.pin(), &plan, off);
        answer.map(|a| a.frame).map_err(|e| e.to_string())
    };
    let mut view = read()?;
    for rows in batches {
        for (table, row) in rows {
            db.insert(table, row.clone()).map_err(|e| e.to_string())?;
        }
        db.commit().map_err(|e| e.to_string())?;
        view = read()?;
        let stats = catalog.stats();
        if (stats.misses, stats.fallback_rebuilds) != (1, 0) {
            return Err(format!("not caught up: {stats:?}"));
        }
    }
    Ok((*view).clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn pivot_fed_once_or_in_batches_equals_the_reference(
        events in proptest::collection::vec(arb_event(), 0..40),
        names in arb_names(),
    ) {
        let s = stream(&events);
        let once = fed(&names, &[s.batches.concat()]);
        let batched = fed(&names, &s.batches);
        match expected(&s, &names) {
            Ok(want) => {
                prop_assert_eq!(once, Ok(want.clone()), "fed once: {:?}", events);
                prop_assert_eq!(batched, Ok(want), "fed in batches: {:?}", events);
            }
            Err(e) => {
                prop_assert!(matches!(e, DfError::DuplicateColumn(_)), "{:?}", e);
                prop_assert!(once.is_err(), "fed once accepted a collision: {:?}", events);
                prop_assert!(batched.is_err(), "batches accepted a collision: {:?}", events);
            }
        }
    }
}
