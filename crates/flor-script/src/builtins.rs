//! Builtin functions callable from florscript.
//!
//! Three groups:
//! * general: `range`, `len`, `print`, conversions, math, `randint`;
//! * simulated compute: `work(units)` — a deterministic spin that stands in
//!   for expensive pipeline stages, letting benches measure how much
//!   computation hindsight replay *avoids*;
//! * ML bridge into `flor-ml`: datasets, models, `train_step`,
//!   `eval_model`, `poison` — the Fig. 5 training loop's vocabulary.

use crate::interp::{Interpreter, RtError, RtResult};
use crate::value::{Heap, HeapKind, RtValue};
use flor_ml::{acc_recall, first_page_dataset, gaussian_blobs, poison_labels, Mlp};
use rand::Rng;

/// The builtins that change a heap object in place, with the kind each
/// changes. Every other builtin only reads its arguments or allocates a
/// new object, so a checkpoint loop calling none of these leaves every
/// existing object of that kind as it found it, and its checkpoints leave
/// such objects out. A builtin that mutates must be listed here.
pub(crate) const MUTATORS: [(&str, HeapKind); 2] = [
    ("train_step", HeapKind::Model),
    ("poison", HeapKind::Dataset),
];

/// Dispatch a builtin call.
pub fn call(interp: &mut Interpreter, name: &str, args: Vec<RtValue>) -> RtResult<RtValue> {
    match name {
        "range" => builtin_range(args),
        "len" => builtin_len(interp, args),
        "print" => {
            let parts: Vec<String> = args.iter().map(RtValue::display_text).collect();
            interp.stdout.push(parts.join(" "));
            Ok(RtValue::None)
        }
        "str" => one(args, "str").map(|v| RtValue::Str(v.display_text())),
        "int" => {
            let v = one(args, "int")?;
            match &v {
                RtValue::Str(s) => s
                    .trim()
                    .parse::<i64>()
                    .map(RtValue::Int)
                    .map_err(|e| RtError::new(format!("int({s:?}): {e}"))),
                RtValue::Float(f) => Ok(RtValue::Int(*f as i64)),
                _ => v
                    .as_i64()
                    .map(RtValue::Int)
                    .ok_or_else(|| RtError::new("int() expects a number or string")),
            }
        }
        "float" => {
            let v = one(args, "float")?;
            match &v {
                RtValue::Str(s) => s
                    .trim()
                    .parse::<f64>()
                    .map(RtValue::Float)
                    .map_err(|e| RtError::new(format!("float({s:?}): {e}"))),
                _ => v
                    .as_f64()
                    .map(RtValue::Float)
                    .ok_or_else(|| RtError::new("float() expects a number or string")),
            }
        }
        "abs" => {
            let v = one(args, "abs")?;
            match v {
                RtValue::Int(i) => Ok(RtValue::Int(i.abs())),
                RtValue::Float(f) => Ok(RtValue::Float(f.abs())),
                _ => Err(RtError::new("abs() expects a number")),
            }
        }
        "min" | "max" => {
            if args.is_empty() {
                return Err(RtError::new(format!("{name}() needs arguments")));
            }
            let items = if args.len() == 1 {
                match &args[0] {
                    RtValue::List(l) => l.clone(),
                    _ => return Err(RtError::new(format!("{name}(single) expects a list"))),
                }
            } else {
                args
            };
            let mut best: Option<f64> = None;
            let mut best_v = RtValue::None;
            for item in items {
                let f = item
                    .as_f64()
                    .ok_or_else(|| RtError::new(format!("{name}() expects numbers")))?;
                let better = match best {
                    None => true,
                    Some(b) => {
                        if name == "min" {
                            f < b
                        } else {
                            f > b
                        }
                    }
                };
                if better {
                    best = Some(f);
                    best_v = item;
                }
            }
            Ok(best_v)
        }
        "sum" => {
            let v = one(args, "sum")?;
            match v {
                RtValue::List(items) => {
                    let mut int_acc: i64 = 0;
                    let mut float_acc = 0.0f64;
                    let mut all_int = true;
                    for item in &items {
                        match item {
                            RtValue::Int(i) => {
                                int_acc = int_acc.wrapping_add(*i);
                                float_acc += *i as f64;
                            }
                            RtValue::Float(f) => {
                                all_int = false;
                                float_acc += f;
                            }
                            _ => return Err(RtError::new("sum() expects numbers")),
                        }
                    }
                    if all_int {
                        Ok(RtValue::Int(int_acc))
                    } else {
                        Ok(RtValue::Float(float_acc))
                    }
                }
                _ => Err(RtError::new("sum() expects a list")),
            }
        }
        "append" => {
            if args.len() != 2 {
                return Err(RtError::new("append(list, value)"));
            }
            let mut it = args.into_iter();
            // audit: allow(panic) — the len()==2 check above guarantees
            // both `next()` calls succeed (covers the next two lines).
            let list = it.next().expect("len checked");
            let v = it.next().expect("len checked"); // audit: allow(panic) — len checked above
            match list {
                RtValue::List(mut items) => {
                    items.push(v);
                    Ok(RtValue::List(items))
                }
                _ => Err(RtError::new("append() expects a list")),
            }
        }
        "sqrt" | "exp" | "ln" | "floor" | "round" => {
            let v = one(args, name)?;
            let f = v
                .as_f64()
                .ok_or_else(|| RtError::new(format!("{name}() expects a number")))?;
            let out = match name {
                "sqrt" => f.sqrt(),
                "exp" => f.exp(),
                "ln" => f.ln(),
                "floor" => return Ok(RtValue::Int(f.floor() as i64)),
                "round" => return Ok(RtValue::Int(f.round() as i64)),
                // audit: allow(panic) — the outer match arm admits exactly
                // the five names handled above.
                _ => unreachable!(),
            };
            Ok(RtValue::Float(out))
        }
        "randint" => {
            if args.len() != 2 {
                return Err(RtError::new("randint(lo, hi)"));
            }
            let lo = args[0]
                .as_i64()
                .ok_or_else(|| RtError::new("randint lo must be an int"))?;
            let hi = args[1]
                .as_i64()
                .ok_or_else(|| RtError::new("randint hi must be an int"))?;
            if lo >= hi {
                return Err(RtError::new("randint: lo must be < hi"));
            }
            Ok(RtValue::Int(interp.rng.gen_range(lo..hi)))
        }
        "work" => {
            // Deterministic spin standing in for real compute; cost is
            // proportional to `units` and recorded in stats.
            let v = one(args, "work")?;
            let units = v
                .as_i64()
                .ok_or_else(|| RtError::new("work(units) expects an int"))?
                .max(0) as u64;
            let mut x = 0x9E3779B97F4A7C15u64;
            for i in 0..units.saturating_mul(2000) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            interp.stats.work_units += units;
            Ok(RtValue::Int((x >> 33) as i64))
        }
        // --- ML bridge -----------------------------------------------------
        "load_dataset" => {
            if args.len() != 3 {
                return Err(RtError::new("load_dataset(kind, n, seed)"));
            }
            let kind = match &args[0] {
                RtValue::Str(s) => s.clone(),
                _ => return Err(RtError::new("dataset kind must be a string")),
            };
            let n = args[1]
                .as_i64()
                .ok_or_else(|| RtError::new("dataset n must be an int"))?
                as usize;
            let seed = args[2]
                .as_i64()
                .ok_or_else(|| RtError::new("dataset seed must be an int"))?
                as u64;
            let ds = match kind.as_str() {
                "first_page" => first_page_dataset(n, seed),
                "blobs" => gaussian_blobs(n, 4, 3, 4.0, seed),
                other => return Err(RtError::new(format!("unknown dataset kind {other:?}"))),
            };
            Ok(RtValue::Dataset(interp.heap.alloc_dataset(ds)))
        }
        "make_model" => {
            if args.len() != 4 {
                return Err(RtError::new("make_model(d_in, hidden, d_out, seed)"));
            }
            let nums: Vec<i64> = args
                .iter()
                .map(|a| {
                    a.as_i64()
                        .ok_or_else(|| RtError::new("make_model expects ints"))
                })
                .collect::<RtResult<_>>()?;
            let m = Mlp::new(
                nums[0] as usize,
                nums[1] as usize,
                nums[2] as usize,
                nums[3] as u64,
            );
            Ok(RtValue::Model(interp.heap.alloc_model(m)))
        }
        "train_step" => {
            if args.len() != 3 {
                return Err(RtError::new("train_step(model, dataset, lr)"));
            }
            let mh = model_handle(&args[0])?;
            let dh = dataset_handle(&args[1])?;
            let lr = args[2]
                .as_f64()
                .ok_or_else(|| RtError::new("lr must be a number"))?;
            let Heap { models, datasets } = &mut interp.heap;
            let ds = datasets
                .get(dh)
                .ok_or_else(|| RtError::new("dangling dataset handle"))?;
            let model = models
                .get_mut(mh)
                .ok_or_else(|| RtError::new("dangling model handle"))?;
            let loss = model.train_step(ds, lr);
            interp.stats.work_units += ds.len() as u64;
            Ok(RtValue::Float(loss))
        }
        "eval_model" => {
            if args.len() != 2 {
                return Err(RtError::new("eval_model(model, dataset)"));
            }
            let mh = model_handle(&args[0])?;
            let dh = dataset_handle(&args[1])?;
            let ds = interp
                .heap
                .datasets
                .get(dh)
                .ok_or_else(|| RtError::new("dangling dataset handle"))?;
            let model = interp
                .heap
                .models
                .get(mh)
                .ok_or_else(|| RtError::new("dangling model handle"))?;
            let preds = model.predict(&ds.x);
            let (acc, recall) = acc_recall(&preds, &ds.y, ds.n_classes);
            interp.stats.work_units += (ds.len() / 4) as u64;
            Ok(RtValue::List(vec![
                RtValue::Float(acc),
                RtValue::Float(recall),
            ]))
        }
        "num_batches" => {
            if args.len() != 2 {
                return Err(RtError::new("num_batches(dataset, batch_size)"));
            }
            let dh = dataset_handle(&args[0])?;
            let bs = args[1]
                .as_i64()
                .ok_or_else(|| RtError::new("batch_size must be an int"))?;
            if bs <= 0 {
                return Err(RtError::new("batch_size must be positive"));
            }
            let n = interp
                .heap
                .datasets
                .get(dh)
                .ok_or_else(|| RtError::new("dangling dataset handle"))?
                .len() as i64;
            Ok(RtValue::Int((n + bs - 1) / bs))
        }
        "batch" => {
            if args.len() != 3 {
                return Err(RtError::new("batch(dataset, start, end)"));
            }
            let dh = dataset_handle(&args[0])?;
            let start = args[1]
                .as_i64()
                .ok_or_else(|| RtError::new("start must be an int"))?
                .max(0) as usize;
            let end = args[2]
                .as_i64()
                .ok_or_else(|| RtError::new("end must be an int"))?
                .max(0) as usize;
            let ds = interp
                .heap
                .datasets
                .get(dh)
                .ok_or_else(|| RtError::new("dangling dataset handle"))?;
            let b = ds.batch(start.min(ds.len()), end);
            Ok(RtValue::Dataset(interp.heap.alloc_dataset(b)))
        }
        "poison" => {
            if args.len() != 2 {
                return Err(RtError::new("poison(dataset, frac)"));
            }
            let dh = dataset_handle(&args[0])?;
            let frac = args[1]
                .as_f64()
                .ok_or_else(|| RtError::new("frac must be a number"))?;
            let ds = interp
                .heap
                .datasets
                .get_mut(dh)
                .ok_or_else(|| RtError::new("dangling dataset handle"))?;
            let flipped = poison_labels(ds, frac.clamp(0.0, 1.0));
            Ok(RtValue::Int(flipped as i64))
        }
        other => Err(RtError::new(format!("unknown function {other:?}"))),
    }
}

fn one(mut args: Vec<RtValue>, name: &str) -> RtResult<RtValue> {
    if args.len() != 1 {
        return Err(RtError::new(format!("{name}() takes one argument")));
    }
    Ok(args.remove(0))
}

fn model_handle(v: &RtValue) -> RtResult<usize> {
    match v {
        RtValue::Model(h) => Ok(*h),
        other => Err(RtError::new(format!(
            "expected a model, got {}",
            other.display_text()
        ))),
    }
}

fn dataset_handle(v: &RtValue) -> RtResult<usize> {
    match v {
        RtValue::Dataset(h) => Ok(*h),
        other => Err(RtError::new(format!(
            "expected a dataset, got {}",
            other.display_text()
        ))),
    }
}

fn builtin_range(args: Vec<RtValue>) -> RtResult<RtValue> {
    let (lo, hi) = match args.len() {
        1 => (
            0,
            args[0]
                .as_i64()
                .ok_or_else(|| RtError::new("range() expects ints"))?,
        ),
        2 => (
            args[0]
                .as_i64()
                .ok_or_else(|| RtError::new("range() expects ints"))?,
            args[1]
                .as_i64()
                .ok_or_else(|| RtError::new("range() expects ints"))?,
        ),
        _ => return Err(RtError::new("range(hi) or range(lo, hi)")),
    };
    if hi < lo {
        return Ok(RtValue::List(vec![]));
    }
    if (hi - lo) > 10_000_000 {
        return Err(RtError::new("range too large (>10M)"));
    }
    Ok(RtValue::List((lo..hi).map(RtValue::Int).collect()))
}

fn builtin_len(interp: &Interpreter, args: Vec<RtValue>) -> RtResult<RtValue> {
    if args.len() != 1 {
        return Err(RtError::new("len() takes one argument"));
    }
    match &args[0] {
        RtValue::List(l) => Ok(RtValue::Int(l.len() as i64)),
        RtValue::Str(s) => Ok(RtValue::Int(s.chars().count() as i64)),
        RtValue::Dataset(h) => interp
            .heap
            .datasets
            .get(*h)
            .map(|d| RtValue::Int(d.len() as i64))
            .ok_or_else(|| RtError::new("dangling dataset handle")),
        other => Err(RtError::new(format!(
            "len() unsupported for {}",
            other.display_text()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::NullRuntime;
    use crate::parser::parse;

    fn run_src(src: &str) -> Interpreter {
        let prog = parse(src).unwrap();
        let mut interp = Interpreter::new();
        interp.run(&prog, &mut NullRuntime).unwrap();
        interp
    }

    #[test]
    fn range_variants() {
        let i = run_src("let a = range(3);\nlet b = range(2, 5);\nlet c = range(5, 2);");
        assert_eq!(i.env["a"].display_text(), "[0, 1, 2]");
        assert_eq!(i.env["b"].display_text(), "[2, 3, 4]");
        assert_eq!(i.env["c"].display_text(), "[]");
    }

    #[test]
    fn conversions() {
        let i = run_src(
            "let a = int(\"42\");\nlet b = float(\"2.5\");\nlet c = str(7);\nlet d = int(3.9);",
        );
        assert_eq!(i.env["a"], RtValue::Int(42));
        assert_eq!(i.env["b"], RtValue::Float(2.5));
        assert_eq!(i.env["c"], RtValue::Str("7".into()));
        assert_eq!(i.env["d"], RtValue::Int(3));
    }

    #[test]
    fn aggregates() {
        let i = run_src(
            "let mn = min([3, 1, 2]);\nlet mx = max(4, 9, 2);\nlet s = sum([1, 2, 3]);\nlet sf = sum([1.5, 2]);",
        );
        assert_eq!(i.env["mn"], RtValue::Int(1));
        assert_eq!(i.env["mx"], RtValue::Int(9));
        assert_eq!(i.env["s"], RtValue::Int(6));
        assert_eq!(i.env["sf"], RtValue::Float(3.5));
    }

    #[test]
    fn append_returns_new_list() {
        let i = run_src("let a = [1];\nlet b = append(a, 2);\nlet la = len(a);\nlet lb = len(b);");
        assert_eq!(i.env["la"], RtValue::Int(1));
        assert_eq!(i.env["lb"], RtValue::Int(2));
    }

    #[test]
    fn math_functions() {
        let i = run_src("let a = sqrt(9.0);\nlet b = floor(2.9);\nlet c = round(2.5);");
        assert_eq!(i.env["a"], RtValue::Float(3.0));
        assert_eq!(i.env["b"], RtValue::Int(2));
        assert_eq!(i.env["c"], RtValue::Int(3));
    }

    #[test]
    fn print_captured() {
        let i = run_src("print(\"hello\", 42);");
        assert_eq!(i.stdout, vec!["hello 42"]);
    }

    #[test]
    fn randint_deterministic_per_seed() {
        let a = run_src("let r = randint(0, 1000000);").env["r"].clone();
        let b = run_src("let r = randint(0, 1000000);").env["r"].clone();
        assert_eq!(a, b); // same interpreter seed → same value
    }

    #[test]
    fn work_is_deterministic_and_counted() {
        let a = run_src("let x = work(3);");
        let b = run_src("let x = work(3);");
        assert_eq!(a.env["x"], b.env["x"]);
        assert_eq!(a.stats.work_units, 3);
    }

    #[test]
    fn ml_pipeline_trains() {
        let i = run_src(
            r#"
let data = load_dataset("first_page", 120, 42);
let net = make_model(5, 8, 2, 7);
let losses = [];
for e in range(0, 30) {
    losses = append(losses, train_step(net, data, 0.5));
}
let m = eval_model(net, data);
let acc = m[0];
let recall = m[1];
let n = len(data);
"#,
        );
        assert_eq!(i.env["n"], RtValue::Int(120));
        let acc = i.env["acc"].as_f64().unwrap();
        assert!(acc > 0.7, "acc={acc}");
        let first = match &i.env["losses"] {
            RtValue::List(l) => l[0].as_f64().unwrap(),
            _ => panic!(),
        };
        let last = match &i.env["losses"] {
            RtValue::List(l) => l.last().unwrap().as_f64().unwrap(),
            _ => panic!(),
        };
        assert!(last < first);
    }

    #[test]
    fn batching_builtins() {
        let i = run_src(
            "let d = load_dataset(\"blobs\", 100, 1);\nlet nb = num_batches(d, 32);\nlet b = batch(d, 0, 32);\nlet lb = len(b);",
        );
        assert_eq!(i.env["nb"], RtValue::Int(4));
        assert_eq!(i.env["lb"], RtValue::Int(32));
    }

    #[test]
    fn poison_flips() {
        let i = run_src("let d = load_dataset(\"first_page\", 50, 3);\nlet k = poison(d, 0.1);");
        assert_eq!(i.env["k"], RtValue::Int(5));
    }

    #[test]
    fn errors_are_reported() {
        for bad in [
            "len(1);",
            "unknown_fn();",
            "range(1, 2, 3);",
            "train_step(1, 2, 3);",
            "load_dataset(\"nope\", 10, 1);",
            "randint(5, 5);",
            "num_batches(load_dataset(\"blobs\", 10, 1), 0);",
        ] {
            let prog = parse(bad).unwrap();
            assert!(
                Interpreter::new().run(&prog, &mut NullRuntime).is_err(),
                "expected error for {bad:?}"
            );
        }
    }
}
