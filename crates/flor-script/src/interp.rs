//! The tree-walking interpreter with Flor instrumentation hooks.
//!
//! Execution model (Python-like, matching the paper's scripts):
//! * one flat environment — `let` defines or overwrites a module-level name;
//! * `flor.*` calls and loop iterations are reported to a [`FlorRuntime`];
//! * inside a `with flor.checkpointing(..)` block, the first `flor.loop`
//!   entered becomes the **checkpoint loop**: the runtime is offered a
//!   snapshot of the loop's write set at every iteration boundary
//!   (recording), and may steer each iteration with a [`Directive`]
//!   (replay) — Run, Skip, Restore a checkpoint, resume the body's tail
//!   from the iteration's own checkpoint, or Stop the program.

use crate::ast::{BinOp, BlockWrites, Expr, Program, Stmt, UnOp};
use crate::builtins;
use crate::value::{restore_over, snapshot_state, Heap, HeapKind, RtValue};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Runtime errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtError {
    /// Explanation.
    pub message: String,
}

impl RtError {
    /// Build an error.
    pub fn new(message: impl Into<String>) -> RtError {
        RtError {
            message: message.into(),
        }
    }
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error: {}", self.message)
    }
}

impl std::error::Error for RtError {}

/// Result alias.
pub type RtResult<T> = Result<T, RtError>;

/// One active loop context: `(loop_name, iteration index, iteration value)`.
/// The stack of frames is the paper's nested `ctx_id` chain (Fig. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct LoopFrame {
    /// `flor.loop` name.
    pub name: String,
    /// Zero-based iteration index.
    pub iteration: usize,
    /// Display text of the iteration value.
    pub value: String,
}

/// Replay steering for checkpoint-loop iterations.
///
/// Snapshots are borrowed from the runtime (a replayer holds the recorded
/// run's checkpoints), so steering an iteration never copies one. A
/// snapshot holds the loop's write set; installing one overlays it on the
/// current state ([`Interpreter::restore`]), whose other bindings are what
/// the statements before the loop left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Directive<'s> {
    /// Execute the iteration normally.
    Run,
    /// Skip the iteration entirely (its effects are memoized elsewhere).
    Skip,
    /// Install the snapshot (state entering this iteration), then run the
    /// whole iteration.
    Restore(&'s str),
    /// Install the snapshot taken at the *end* of this iteration, then run
    /// only the loop body's last `tail` statements, with this iteration's
    /// loop variable and loop frame set. The environment is flat and the
    /// boundary snapshot is taken right after the body, so the installed
    /// state is the state just before those statements — exact as long as
    /// they write nothing the original body reads.
    ResumeTail {
        /// The end-of-iteration snapshot.
        snapshot: &'s str,
        /// How many trailing body statements to run.
        tail: usize,
    },
    /// Stop the whole program before this iteration.
    Stop,
}

/// The instrumentation interface between interpreter and FlorDB kernel.
///
/// All methods have no-op defaults so simple runtimes only override what
/// they need.
pub trait FlorRuntime {
    /// `flor.arg(name, default)`: supply the argument value (recorded
    /// values during replay, CLI/default during recording).
    fn arg(&mut self, _name: &str, default: RtValue) -> RtValue {
        default
    }

    /// `flor.log(name, value)` with the current loop-context stack.
    fn log(&mut self, _name: &str, _value: &RtValue, _loops: &[LoopFrame]) {}

    /// A `flor.loop` is beginning (`length` iterations planned).
    fn loop_begin(&mut self, _name: &str, _length: usize, _loops: &[LoopFrame]) {}

    /// A `flor.loop` iteration is starting.
    fn loop_iter(
        &mut self,
        _name: &str,
        _iteration: usize,
        _value: &RtValue,
        _loops: &[LoopFrame],
    ) {
    }

    /// A `flor.loop` finished.
    fn loop_end(&mut self, _name: &str, _loops: &[LoopFrame]) {}

    /// `flor.commit()`.
    fn commit(&mut self) {}

    /// Steer one checkpoint-loop iteration (replay hook).
    fn plan(&mut self, _loop_name: &str, _iteration: usize) -> Directive<'_> {
        Directive::Run
    }

    /// Offered at the end of each executed checkpoint-loop iteration.
    /// Calling `snapshot()` materialises the loop's write set; the runtime
    /// decides (per its checkpointing policy) whether to pay that cost and
    /// keep it.
    fn on_checkpoint_boundary(
        &mut self,
        _loop_name: &str,
        _iteration: usize,
        _snapshot: &mut dyn FnMut() -> RtResult<String>,
    ) {
    }
}

/// A runtime that ignores everything (pure execution).
#[derive(Debug, Default)]
pub struct NullRuntime;

impl FlorRuntime for NullRuntime {}

/// Execution statistics — the deterministic cost proxies the replay
/// benchmarks compare (statements executed ≈ work done).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Statements executed.
    pub statements: u64,
    /// Simulated work units consumed (`work()` builtin + training steps).
    pub work_units: u64,
    /// Checkpoint-loop iterations actually executed (not skipped).
    pub iterations_run: u64,
    /// Checkpoint-loop iterations skipped by directive.
    pub iterations_skipped: u64,
    /// Snapshots restored.
    pub restores: u64,
}

/// The interpreter.
pub struct Interpreter {
    /// Flat variable environment.
    pub env: BTreeMap<String, RtValue>,
    /// Object heap.
    pub heap: Heap,
    /// Deterministic RNG for `randint` (seeded per run).
    pub rng: StdRng,
    /// Captured `print` output.
    pub stdout: Vec<String>,
    /// Execution statistics.
    pub stats: ExecStats,
    loop_stack: Vec<LoopFrame>,
    in_ckpt_block: bool,
    ckpt_loop: Option<String>,
    stop: bool,
}

impl Default for Interpreter {
    fn default() -> Self {
        Self::new()
    }
}

impl Interpreter {
    /// Fresh interpreter with the default deterministic seed.
    pub fn new() -> Interpreter {
        Interpreter::with_seed(0x5EED)
    }

    /// Fresh interpreter with an explicit `randint` seed.
    pub fn with_seed(seed: u64) -> Interpreter {
        Interpreter {
            env: BTreeMap::new(),
            heap: Heap::default(),
            rng: StdRng::seed_from_u64(seed),
            stdout: Vec::new(),
            stats: ExecStats::default(),
            loop_stack: Vec::new(),
            in_ckpt_block: false,
            ckpt_loop: None,
            stop: false,
        }
    }

    /// Execute a program against `rt`. Returns the final stats.
    pub fn run(&mut self, prog: &Program, rt: &mut dyn FlorRuntime) -> RtResult<ExecStats> {
        self.stop = false;
        for s in &prog.stmts {
            self.exec_stmt(s, rt)?;
            if self.stop {
                break;
            }
        }
        Ok(self.stats)
    }

    /// Serialize the whole current state.
    pub fn snapshot(&self) -> RtResult<String> {
        snapshot_state(&self.env, &self.heap, |_, _| true).map_err(RtError::new)
    }

    /// Install a snapshot over the current state: its bindings replace
    /// the live ones, every other binding stays, and each heap object is
    /// written into a slot a binding reaching it holds now, so aliases see
    /// it (`value::restore_over` says which). Into a fresh interpreter, a
    /// whole-state snapshot restores exactly.
    pub fn restore(&mut self, snapshot: &str) -> RtResult<()> {
        self.overlay(snapshot, |_| false)
    }

    /// [`Interpreter::restore`] for a checkpoint loop whose body assigns
    /// the names `rebound` accepts: their live slots take their objects
    /// only when no binding outside the snapshot holds them.
    fn overlay(&mut self, snapshot: &str, rebound: impl Fn(&str) -> bool) -> RtResult<()> {
        restore_over(snapshot, &mut self.env, &mut self.heap, rebound).map_err(RtError::new)?;
        self.stats.restores += 1;
        Ok(())
    }

    fn exec_block(&mut self, stmts: &[Stmt], rt: &mut dyn FlorRuntime) -> RtResult<()> {
        for s in stmts {
            self.exec_stmt(s, rt)?;
            if self.stop {
                break;
            }
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &Stmt, rt: &mut dyn FlorRuntime) -> RtResult<()> {
        self.stats.statements += 1;
        match s {
            Stmt::Let { name, expr, .. } | Stmt::Assign { name, expr, .. } => {
                let v = self.eval(expr, rt)?;
                self.env.insert(name.clone(), v);
                Ok(())
            }
            Stmt::ExprStmt { expr, .. } => {
                self.eval(expr, rt)?;
                Ok(())
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                ..
            } => {
                if self.eval(cond, rt)?.truthy() {
                    self.exec_block(then_block, rt)
                } else if let Some(eb) = else_block {
                    self.exec_block(eb, rt)
                } else {
                    Ok(())
                }
            }
            Stmt::While { cond, body, .. } => {
                let mut guard = 0u64;
                while self.eval(cond, rt)?.truthy() {
                    self.exec_block(body, rt)?;
                    if self.stop {
                        break;
                    }
                    guard += 1;
                    if guard > 10_000_000 {
                        return Err(RtError::new("while loop exceeded 10M iterations"));
                    }
                }
                Ok(())
            }
            Stmt::For {
                var,
                iterable,
                body,
                ..
            } => {
                let items = self.eval_iterable(iterable, rt)?;
                for item in items {
                    self.env.insert(var.clone(), item);
                    self.exec_block(body, rt)?;
                    if self.stop {
                        break;
                    }
                }
                Ok(())
            }
            Stmt::FlorLoop {
                var,
                loop_name,
                iterable,
                body,
                ..
            } => self.exec_flor_loop(var, loop_name, iterable, body, rt),
            Stmt::WithCheckpointing { body, .. } => {
                let was_in = self.in_ckpt_block;
                self.in_ckpt_block = true;
                let result = self.exec_block(body, rt);
                self.in_ckpt_block = was_in;
                self.ckpt_loop = None;
                result
            }
        }
    }

    fn exec_flor_loop(
        &mut self,
        var: &str,
        loop_name: &str,
        iterable: &Expr,
        body: &[Stmt],
        rt: &mut dyn FlorRuntime,
    ) -> RtResult<()> {
        let items = self.eval_iterable(iterable, rt)?;
        // Designate the checkpoint loop: first flor.loop inside the
        // checkpointing block at flor-loop depth 0.
        let is_ckpt = if self.in_ckpt_block && self.loop_stack.is_empty() {
            match &self.ckpt_loop {
                Some(n) => n == loop_name,
                None => {
                    self.ckpt_loop = Some(loop_name.to_string());
                    true
                }
            }
        } else {
            false
        };
        let writes = is_ckpt.then(|| WriteSet::of(var, body));
        rt.loop_begin(loop_name, items.len(), &self.loop_stack);
        for (i, item) in items.into_iter().enumerate() {
            // First body statement this iteration runs.
            let mut from = 0;
            if let Some(writes) = &writes {
                let rebound = |name: &str| writes.names.contains(name);
                match rt.plan(loop_name, i) {
                    Directive::Run => {}
                    Directive::Skip => {
                        self.stats.iterations_skipped += 1;
                        continue;
                    }
                    Directive::Restore(snap) => {
                        self.overlay(snap, rebound)?;
                    }
                    Directive::ResumeTail { snapshot, tail } => {
                        self.overlay(snapshot, rebound)?;
                        from = body.len().checked_sub(tail).ok_or_else(|| {
                            RtError::new(format!(
                                "cannot resume the last {tail} of {} loop-body statements",
                                body.len()
                            ))
                        })?;
                    }
                    Directive::Stop => {
                        self.stop = true;
                        break;
                    }
                }
                self.stats.iterations_run += 1;
            }
            self.env.insert(var.to_string(), item.clone());
            self.loop_stack.push(LoopFrame {
                name: loop_name.to_string(),
                iteration: i,
                value: item.display_text(),
            });
            rt.loop_iter(loop_name, i, &item, &self.loop_stack);
            let body_result = self.exec_block(&body[from..], rt);
            self.loop_stack.pop();
            body_result?;
            if self.stop {
                break;
            }
            if let Some(writes) = &writes {
                // Offer a snapshot of the write set at the iteration
                // boundary. The closure borrows env/heap immutably; rt is
                // a separate borrow.
                let env = &self.env;
                let heap = &self.heap;
                let mut snap_fn = move || {
                    snapshot_state(env, heap, |name, v| writes.covers(name, v))
                        .map_err(RtError::new)
                };
                rt.on_checkpoint_boundary(loop_name, i, &mut snap_fn);
            }
        }
        rt.loop_end(loop_name, &self.loop_stack);
        Ok(())
    }

    fn eval_iterable(&mut self, e: &Expr, rt: &mut dyn FlorRuntime) -> RtResult<Vec<RtValue>> {
        match self.eval(e, rt)? {
            RtValue::List(items) => Ok(items),
            RtValue::Str(s) => Ok(s.chars().map(|c| RtValue::Str(c.to_string())).collect()),
            other => Err(RtError::new(format!(
                "cannot iterate over {}",
                other.display_text()
            ))),
        }
    }

    /// Evaluate an expression.
    pub fn eval(&mut self, e: &Expr, rt: &mut dyn FlorRuntime) -> RtResult<RtValue> {
        match e {
            Expr::Int(_, v) => Ok(RtValue::Int(*v)),
            Expr::Float(_, v) => Ok(RtValue::Float(*v)),
            Expr::Str(_, s) => Ok(RtValue::Str(s.clone())),
            Expr::Bool(_, b) => Ok(RtValue::Bool(*b)),
            Expr::NoneLit(_) => Ok(RtValue::None),
            Expr::Ident(_, name) => self
                .env
                .get(name)
                .cloned()
                .ok_or_else(|| RtError::new(format!("undefined variable {name:?}"))),
            Expr::List(_, items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(item, rt)?);
                }
                Ok(RtValue::List(out))
            }
            Expr::Unary { op, expr, .. } => {
                let v = self.eval(expr, rt)?;
                match op {
                    UnOp::Neg => match v {
                        RtValue::Int(i) => Ok(RtValue::Int(-i)),
                        RtValue::Float(f) => Ok(RtValue::Float(-f)),
                        other => Err(RtError::new(format!(
                            "cannot negate {}",
                            other.display_text()
                        ))),
                    },
                    UnOp::Not => Ok(RtValue::Bool(!v.truthy())),
                }
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                // Short-circuit logicals.
                match op {
                    BinOp::And => {
                        let l = self.eval(lhs, rt)?;
                        if !l.truthy() {
                            return Ok(RtValue::Bool(false));
                        }
                        let r = self.eval(rhs, rt)?;
                        return Ok(RtValue::Bool(r.truthy()));
                    }
                    BinOp::Or => {
                        let l = self.eval(lhs, rt)?;
                        if l.truthy() {
                            return Ok(RtValue::Bool(true));
                        }
                        let r = self.eval(rhs, rt)?;
                        return Ok(RtValue::Bool(r.truthy()));
                    }
                    _ => {}
                }
                let l = self.eval(lhs, rt)?;
                let r = self.eval(rhs, rt)?;
                eval_binop(*op, l, r)
            }
            Expr::Call { name, args, .. } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, rt)?);
                }
                builtins::call(self, name, vals)
            }
            Expr::FlorCall { func, args, .. } => self.eval_flor_call(func, args, rt),
            Expr::Index { base, index, .. } => {
                let b = self.eval(base, rt)?;
                let i = self.eval(index, rt)?;
                let idx = i
                    .as_i64()
                    .ok_or_else(|| RtError::new("index must be an integer"))?;
                match b {
                    RtValue::List(items) => {
                        let n = items.len() as i64;
                        let pos = if idx < 0 { n + idx } else { idx };
                        if pos < 0 || pos >= n {
                            return Err(RtError::new(format!(
                                "index {idx} out of bounds for list of length {n}"
                            )));
                        }
                        Ok(items[pos as usize].clone())
                    }
                    RtValue::Str(s) => {
                        let chars: Vec<char> = s.chars().collect();
                        let n = chars.len() as i64;
                        let pos = if idx < 0 { n + idx } else { idx };
                        if pos < 0 || pos >= n {
                            return Err(RtError::new(format!(
                                "index {idx} out of bounds for string of length {n}"
                            )));
                        }
                        Ok(RtValue::Str(chars[pos as usize].to_string()))
                    }
                    other => Err(RtError::new(format!(
                        "cannot index {}",
                        other.display_text()
                    ))),
                }
            }
        }
    }

    fn eval_flor_call(
        &mut self,
        func: &str,
        args: &[Expr],
        rt: &mut dyn FlorRuntime,
    ) -> RtResult<RtValue> {
        match func {
            "log" => {
                if args.len() != 2 {
                    return Err(RtError::new("flor.log takes (name, value)"));
                }
                let name = match self.eval(&args[0], rt)? {
                    RtValue::Str(s) => s,
                    _ => return Err(RtError::new("flor.log name must be a string")),
                };
                let value = self.eval(&args[1], rt)?;
                rt.log(&name, &value, &self.loop_stack);
                Ok(value)
            }
            "arg" => {
                if args.len() != 2 {
                    return Err(RtError::new("flor.arg takes (name, default)"));
                }
                let name = match self.eval(&args[0], rt)? {
                    RtValue::Str(s) => s,
                    _ => return Err(RtError::new("flor.arg name must be a string")),
                };
                let default = self.eval(&args[1], rt)?;
                Ok(rt.arg(&name, default))
            }
            "commit" => {
                if !args.is_empty() {
                    return Err(RtError::new("flor.commit takes no arguments"));
                }
                rt.commit();
                Ok(RtValue::None)
            }
            "loop" => Err(RtError::new(
                "flor.loop is only valid as a for-loop iterable",
            )),
            "checkpointing" => Err(RtError::new(
                "flor.checkpointing is only valid in a with statement",
            )),
            other => Err(RtError::new(format!("unknown flor API: flor.{other}"))),
        }
    }
}

/// What a checkpoint loop's body can change, fixed on entering the loop:
/// the names it binds, its own variable included, and the kinds of heap
/// object its builtins mutate ([`builtins::MUTATORS`]). A boundary
/// snapshot holds the bindings this covers. Every other binding, and
/// every object of a kind nothing mutates, is as the statements before
/// the loop left it.
struct WriteSet {
    names: BTreeSet<String>,
    mutated: Vec<HeapKind>,
}

impl WriteSet {
    fn of(var: &str, body: &[Stmt]) -> WriteSet {
        let BlockWrites { mut names, calls } = BlockWrites::of(body);
        names.insert(var.to_string());
        let mutated = builtins::MUTATORS
            .iter()
            .filter(|(f, _)| calls.contains(*f))
            .map(|&(_, kind)| kind)
            .collect();
        WriteSet { names, mutated }
    }

    fn covers(&self, name: &str, value: &RtValue) -> bool {
        self.names.contains(name) || self.mutated.iter().any(|&kind| value.holds(kind))
    }
}

fn eval_binop(op: BinOp, l: RtValue, r: RtValue) -> RtResult<RtValue> {
    use RtValue::*;
    // String concatenation.
    if op == BinOp::Add {
        if let (Str(a), Str(b)) = (&l, &r) {
            return Ok(Str(format!("{a}{b}")));
        }
        if let (List(a), List(b)) = (&l, &r) {
            let mut out = a.clone();
            out.extend(b.iter().cloned());
            return Ok(List(out));
        }
    }
    // Comparisons on strings.
    if let (Str(a), Str(b)) = (&l, &r) {
        let result = match op {
            BinOp::Eq => a == b,
            BinOp::Ne => a != b,
            BinOp::Lt => a < b,
            BinOp::Le => a <= b,
            BinOp::Gt => a > b,
            BinOp::Ge => a >= b,
            _ => {
                return Err(RtError::new(format!(
                    "unsupported string operation {}",
                    op.as_str()
                )))
            }
        };
        return Ok(Bool(result));
    }
    // Structural (in)equality for remaining non-numeric values.
    if matches!(op, BinOp::Eq | BinOp::Ne) && (l.as_f64().is_none() || r.as_f64().is_none()) {
        let eq = l == r;
        return Ok(Bool(if op == BinOp::Eq { eq } else { !eq }));
    }
    // Integer arithmetic stays integral.
    if let (Int(a), Int(b)) = (&l, &r) {
        let (a, b) = (*a, *b);
        return match op {
            BinOp::Add => Ok(Int(a.wrapping_add(b))),
            BinOp::Sub => Ok(Int(a.wrapping_sub(b))),
            BinOp::Mul => Ok(Int(a.wrapping_mul(b))),
            BinOp::Div => {
                if b == 0 {
                    Err(RtError::new("integer division by zero"))
                } else {
                    Ok(Int(a.wrapping_div(b)))
                }
            }
            BinOp::Mod => {
                if b == 0 {
                    Err(RtError::new("modulo by zero"))
                } else {
                    Ok(Int(a.wrapping_rem(b)))
                }
            }
            BinOp::Eq => Ok(Bool(a == b)),
            BinOp::Ne => Ok(Bool(a != b)),
            BinOp::Lt => Ok(Bool(a < b)),
            BinOp::Le => Ok(Bool(a <= b)),
            BinOp::Gt => Ok(Bool(a > b)),
            BinOp::Ge => Ok(Bool(a >= b)),
            // audit: allow(panic) — And/Or are evaluated short-circuit in
            // `eval_expr` and never reach the binop table.
            BinOp::And | BinOp::Or => unreachable!("short-circuited"),
        };
    }
    // Mixed numeric → float.
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(RtError::new(format!(
                "unsupported operands for {}: {} and {}",
                op.as_str(),
                l.display_text(),
                r.display_text()
            )))
        }
    };
    match op {
        BinOp::Add => Ok(Float(a + b)),
        BinOp::Sub => Ok(Float(a - b)),
        BinOp::Mul => Ok(Float(a * b)),
        BinOp::Div => Ok(Float(a / b)),
        BinOp::Mod => Ok(Float(a % b)),
        BinOp::Eq => Ok(Bool(a == b)),
        BinOp::Ne => Ok(Bool(a != b)),
        BinOp::Lt => Ok(Bool(a < b)),
        BinOp::Le => Ok(Bool(a <= b)),
        BinOp::Gt => Ok(Bool(a > b)),
        BinOp::Ge => Ok(Bool(a >= b)),
        // audit: allow(panic) — same short-circuit routing as above.
        BinOp::And | BinOp::Or => unreachable!("short-circuited"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run_src(src: &str) -> Interpreter {
        let prog = parse(src).unwrap();
        let mut interp = Interpreter::new();
        interp.run(&prog, &mut NullRuntime).unwrap();
        interp
    }

    fn get_int(interp: &Interpreter, name: &str) -> i64 {
        interp.env[name].as_i64().unwrap()
    }

    #[test]
    fn arithmetic_and_vars() {
        let i = run_src("let a = 2 + 3 * 4;\nlet b = a % 5;\nlet c = (a - 4) / 5;");
        assert_eq!(get_int(&i, "a"), 14);
        assert_eq!(get_int(&i, "b"), 4);
        assert_eq!(get_int(&i, "c"), 2);
    }

    #[test]
    fn float_arithmetic() {
        let i = run_src("let x = 1.5 * 2;\nlet y = 7 / 2.0;");
        assert_eq!(i.env["x"], RtValue::Float(3.0));
        assert_eq!(i.env["y"], RtValue::Float(3.5));
    }

    #[test]
    fn string_ops() {
        let i = run_src("let s = \"ab\" + \"cd\";\nlet c = s[1];\nlet eq = s == \"abcd\";");
        assert_eq!(i.env["s"], RtValue::Str("abcd".into()));
        assert_eq!(i.env["c"], RtValue::Str("b".into()));
        assert_eq!(i.env["eq"], RtValue::Bool(true));
    }

    #[test]
    fn control_flow() {
        let i = run_src(
            "let n = 10;\nlet total = 0;\nwhile n > 0 { total = total + n; n = n - 1; }\nlet sign = 0;\nif total > 50 { sign = 1; } else { sign = -1; }",
        );
        assert_eq!(get_int(&i, "total"), 55);
        assert_eq!(get_int(&i, "sign"), 1);
    }

    #[test]
    fn plain_for_over_list_and_range() {
        let i = run_src(
            "let acc = 0;\nfor x in [1, 2, 3] { acc = acc + x; }\nfor y in range(0, 4) { acc = acc + y; }",
        );
        assert_eq!(get_int(&i, "acc"), 12);
    }

    #[test]
    fn negative_indexing() {
        let i = run_src("let l = [10, 20, 30];\nlet last = l[-1];");
        assert_eq!(get_int(&i, "last"), 30);
    }

    #[test]
    fn index_out_of_bounds_errors() {
        let prog = parse("let l = [1];\nlet x = l[5];").unwrap();
        let mut interp = Interpreter::new();
        assert!(interp.run(&prog, &mut NullRuntime).is_err());
    }

    #[test]
    fn undefined_variable_errors() {
        let prog = parse("let x = missing + 1;").unwrap();
        assert!(Interpreter::new().run(&prog, &mut NullRuntime).is_err());
    }

    #[test]
    fn division_by_zero_errors() {
        let prog = parse("let x = 1 / 0;").unwrap();
        assert!(Interpreter::new().run(&prog, &mut NullRuntime).is_err());
    }

    #[test]
    fn short_circuit() {
        // RHS would error (division by zero) if evaluated.
        let i = run_src("let ok = false && (1 / 0 == 1);\nlet ok2 = true || (1 / 0 == 1);");
        assert_eq!(i.env["ok"], RtValue::Bool(false));
        assert_eq!(i.env["ok2"], RtValue::Bool(true));
    }

    /// Recording runtime used in tests: collects logs and checkpoints.
    #[derive(Default)]
    struct Recorder {
        logs: Vec<(String, String, Vec<LoopFrame>)>,
        checkpoints: Vec<(usize, String)>,
        loops_seen: Vec<(String, usize)>,
        commits: usize,
    }

    impl FlorRuntime for Recorder {
        fn log(&mut self, name: &str, value: &RtValue, loops: &[LoopFrame]) {
            self.logs
                .push((name.to_string(), value.display_text(), loops.to_vec()));
        }
        fn loop_begin(&mut self, name: &str, length: usize, _loops: &[LoopFrame]) {
            self.loops_seen.push((name.to_string(), length));
        }
        fn commit(&mut self) {
            self.commits += 1;
        }
        fn on_checkpoint_boundary(
            &mut self,
            _loop_name: &str,
            iteration: usize,
            snapshot: &mut dyn FnMut() -> RtResult<String>,
        ) {
            self.checkpoints.push((iteration, snapshot().unwrap()));
        }
    }

    #[test]
    fn flor_log_reports_context() {
        let prog = parse(
            "for d in flor.loop(\"doc\", [\"a\", \"b\"]) {\n  for p in flor.loop(\"page\", range(0, 2)) {\n    flor.log(\"txt\", d + str(p));\n  }\n}",
        )
        .unwrap();
        let mut rec = Recorder::default();
        Interpreter::new().run(&prog, &mut rec).unwrap();
        assert_eq!(rec.logs.len(), 4);
        let (name, value, loops) = &rec.logs[3];
        assert_eq!(name, "txt");
        assert_eq!(value, "b1");
        assert_eq!(loops.len(), 2);
        assert_eq!(loops[0].name, "doc");
        assert_eq!(loops[0].iteration, 1);
        assert_eq!(loops[1].name, "page");
        assert_eq!(loops[1].iteration, 1);
        // The inner loop begins once per outer iteration.
        assert_eq!(
            rec.loops_seen,
            vec![("doc".into(), 2), ("page".into(), 2), ("page".into(), 2)]
        );
    }

    #[test]
    fn checkpoint_boundaries_fire_for_designated_loop_only() {
        let prog = parse(
            "let model = 0;\nwith flor.checkpointing(model) {\n  for e in flor.loop(\"epoch\", range(0, 3)) {\n    for s in flor.loop(\"step\", range(0, 4)) {\n      model = model + 1;\n    }\n  }\n}",
        )
        .unwrap();
        let mut rec = Recorder::default();
        Interpreter::new().run(&prog, &mut rec).unwrap();
        // 3 epoch boundaries, not 12 step boundaries.
        assert_eq!(rec.checkpoints.len(), 3);
        // Snapshot at epoch boundary i has model == (i+1)*4.
        assert_eq!(
            restored(&rec.checkpoints[1].1).env["model"],
            RtValue::Int(8)
        );
    }

    /// A fresh interpreter with `snapshot` restored.
    fn restored(snapshot: &str) -> Interpreter {
        let mut interp = Interpreter::new();
        interp.restore(snapshot).unwrap();
        interp
    }

    #[test]
    fn boundary_snapshots_hold_the_loops_write_set() {
        let src = "let data = load_dataset(\"blobs\", 20, 1);\nlet test = load_dataset(\"blobs\", 8, 2);\nlet net = make_model(4, 3, 3, 1);\nlet nets = [net];\nlet other = make_model(4, 3, 3, 2);\nlet lr = 0.3;\nwith flor.checkpointing(net) {\n  for e in flor.loop(\"epoch\", range(0, 2)) {\n    if e > 0 { for j in [1] { let loss = train_step(net, data, lr); } }\n  }\n}";
        let names = |src: &str| -> Vec<String> {
            let mut rec = Recorder::default();
            Interpreter::new()
                .run(&parse(src).unwrap(), &mut rec)
                .unwrap();
            restored(&rec.checkpoints[1].1).env.into_keys().collect()
        };
        // The loop variable, names bound at any depth, and every binding
        // holding a model (train_step mutates models) — not the datasets
        // or the learning rate, which the loop only reads.
        assert_eq!(names(src), ["e", "j", "loss", "net", "nets", "other"]);
        // poison mutates datasets: then every binding holding one too.
        let poisoned = src.replace("let loss", "poison(test, 0.1);\nlet loss");
        assert_eq!(
            names(&poisoned),
            ["data", "e", "j", "loss", "net", "nets", "other", "test"]
        );
    }

    #[test]
    fn a_binding_the_loop_rebinds_is_restored_without_touching_its_old_alias() {
        // `cur` shares `data`'s slot before the loop and is rebound to a
        // fresh batch in it: a restore must not write that batch over
        // `data`, which the next iteration reads.
        let src = "let data = load_dataset(\"blobs\", 40, 1);\nlet cur = data;\nlet net = make_model(4, 3, 3, 1);\nwith flor.checkpointing(net) {\n  for e in flor.loop(\"epoch\", range(0, 4)) {\n    cur = batch(data, e * 10, e * 10 + 10);\n    let loss = train_step(net, cur, 0.3);\n    flor.log(\"acc\", eval_model(net, cur)[0]);\n  }\n}";
        let prog = parse(src).unwrap();
        let mut rec = Recorder::default();
        Interpreter::new().run(&prog, &mut rec).unwrap();
        let mut replay = SkipTo {
            target: 2,
            snapshot: rec.checkpoints[1].1.clone(),
            ran: vec![],
            logs: vec![],
        };
        Interpreter::new().run(&prog, &mut replay).unwrap();
        assert_eq!(replay.logs, [rec.logs[2].1.clone()]);

        // Resuming each iteration's last statement from its own
        // checkpoint: the first restore gives the batch a slot of its
        // own, and every later one writes the next batch there, since
        // only `cur` holds it.
        struct Tails(Vec<(usize, String)>, Vec<String>);
        impl FlorRuntime for Tails {
            fn plan(&mut self, _loop_name: &str, i: usize) -> Directive<'_> {
                Directive::ResumeTail {
                    snapshot: &self.0[i].1,
                    tail: 1,
                }
            }
            fn log(&mut self, _name: &str, value: &RtValue, _loops: &[LoopFrame]) {
                self.1.push(value.display_text());
            }
        }
        let mut tails = Tails(rec.checkpoints.clone(), vec![]);
        let mut interp = Interpreter::new();
        interp.run(&prog, &mut tails).unwrap();
        let recorded: Vec<String> = rec.logs.iter().map(|l| l.1.clone()).collect();
        assert_eq!(tails.1, recorded);
        assert_eq!(interp.stats.restores, 4);
        assert_eq!(
            (interp.heap.models.len(), interp.heap.datasets.len()),
            (1, 2)
        );
    }

    #[test]
    fn flor_commit_and_arg() {
        struct ArgRt;
        impl FlorRuntime for ArgRt {
            fn arg(&mut self, name: &str, default: RtValue) -> RtValue {
                if name == "epochs" {
                    RtValue::Int(7)
                } else {
                    default
                }
            }
        }
        let prog = parse(
            "let e = flor.arg(\"epochs\", 5);\nlet lr = flor.arg(\"lr\", 0.1);\nflor.commit();",
        )
        .unwrap();
        let mut interp = Interpreter::new();
        interp.run(&prog, &mut ArgRt).unwrap();
        assert_eq!(interp.env["e"], RtValue::Int(7));
        assert_eq!(interp.env["lr"], RtValue::Float(0.1));
    }

    /// Replay runtime: skip all iterations except a target one, restoring
    /// its checkpoint first; keeps the values logged.
    struct SkipTo {
        target: usize,
        snapshot: String,
        ran: Vec<usize>,
        logs: Vec<String>,
    }

    impl FlorRuntime for SkipTo {
        fn plan(&mut self, _loop_name: &str, iteration: usize) -> Directive<'_> {
            match iteration.cmp(&self.target) {
                std::cmp::Ordering::Less => Directive::Skip,
                std::cmp::Ordering::Equal => Directive::Restore(&self.snapshot),
                std::cmp::Ordering::Greater => Directive::Stop,
            }
        }
        fn loop_iter(&mut self, _n: &str, i: usize, _v: &RtValue, loops: &[LoopFrame]) {
            if loops.len() == 1 {
                self.ran.push(i);
            }
        }
        fn log(&mut self, _name: &str, value: &RtValue, _loops: &[LoopFrame]) {
            self.logs.push(value.display_text());
        }
    }

    #[test]
    fn replay_with_restore_matches_full_run() {
        let src = "let model = 100;\nwith flor.checkpointing(model) {\n  for e in flor.loop(\"epoch\", range(0, 5)) {\n    model = model + e;\n  }\n}";
        let prog = parse(src).unwrap();
        // Record.
        let mut rec = Recorder::default();
        let mut full = Interpreter::new();
        full.run(&prog, &mut rec).unwrap();
        let full_model = full.env["model"].clone();
        // Replay only the last iteration from the checkpoint at boundary 3.
        let snap = rec.checkpoints[3].1.clone();
        let mut replay_rt = SkipTo {
            target: 4,
            snapshot: snap,
            ran: vec![],
            logs: vec![],
        };
        let mut partial = Interpreter::new();
        partial.run(&prog, &mut replay_rt).unwrap();
        assert_eq!(replay_rt.ran, vec![4]);
        assert_eq!(partial.env["model"], full_model);
        assert_eq!(partial.stats.iterations_skipped, 4);
        assert_eq!(partial.stats.iterations_run, 1);
        assert_eq!(partial.stats.restores, 1);
    }

    #[test]
    fn resume_tail_runs_only_the_trailing_statements() {
        let src = "let model = 100;\nwith flor.checkpointing(model) {\n  for e in flor.loop(\"epoch\", range(0, 4)) {\n    model = model + e;\n    work(1);\n    flor.log(\"m\", model * 2);\n  }\n}";
        let prog = parse(src).unwrap();
        let mut rec = Recorder::default();
        Interpreter::new().run(&prog, &mut rec).unwrap();

        /// Resumes the last `tail` statements of iteration `target` from
        /// that iteration's own checkpoint; skips before, stops after.
        struct Tail {
            target: usize,
            tail: usize,
            snapshot: String,
            logs: Vec<(String, String, Vec<LoopFrame>)>,
        }
        impl FlorRuntime for Tail {
            fn plan(&mut self, _loop_name: &str, iteration: usize) -> Directive<'_> {
                match iteration.cmp(&self.target) {
                    std::cmp::Ordering::Less => Directive::Skip,
                    std::cmp::Ordering::Equal => Directive::ResumeTail {
                        snapshot: &self.snapshot,
                        tail: self.tail,
                    },
                    std::cmp::Ordering::Greater => Directive::Stop,
                }
            }
            fn log(&mut self, name: &str, value: &RtValue, loops: &[LoopFrame]) {
                self.logs
                    .push((name.to_string(), value.display_text(), loops.to_vec()));
            }
        }
        let mut rt = Tail {
            target: 2,
            tail: 1,
            snapshot: rec.checkpoints[2].1.clone(),
            logs: vec![],
        };
        let mut partial = Interpreter::new();
        partial.run(&prog, &mut rt).unwrap();
        assert_eq!(rt.logs, vec![rec.logs[2].clone()]);
        assert_eq!(partial.stats.work_units, 0, "only the tail ran");
        assert_eq!(partial.stats.restores, 1);
        assert_eq!(partial.stats.iterations_run, 1);
        // A tail longer than the body is an error, not a panic.
        rt.tail = 4;
        assert!(Interpreter::new().run(&prog, &mut rt).is_err());
    }

    #[test]
    fn stop_directive_halts_program() {
        struct StopAt1;
        impl FlorRuntime for StopAt1 {
            fn plan(&mut self, _l: &str, i: usize) -> Directive<'_> {
                if i >= 1 {
                    Directive::Stop
                } else {
                    Directive::Run
                }
            }
        }
        let src = "let x = 0;\nwith flor.checkpointing(x) {\n  for e in flor.loop(\"epoch\", range(0, 10)) {\n    x = x + 1;\n  }\n}\nlet after = 1;";
        let prog = parse(src).unwrap();
        let mut interp = Interpreter::new();
        interp.run(&prog, &mut StopAt1).unwrap();
        assert_eq!(interp.env["x"], RtValue::Int(1));
        // Statement after the with-block never ran.
        assert!(!interp.env.contains_key("after"));
    }

    #[test]
    fn stats_count_statements_and_work() {
        let i = run_src("let a = 0;\nfor x in range(0, 10) { a = a + x; }\nwork(5);");
        assert!(i.stats.statements > 10);
        assert_eq!(i.stats.work_units, 5);
    }

    #[test]
    fn snapshot_restore_full_interpreter() {
        let i = run_src("let a = 1;\nlet b = [1, 2, 3];");
        let snap = i.snapshot().unwrap();
        let mut j = Interpreter::new();
        j.restore(&snap).unwrap();
        assert_eq!(j.env["a"], RtValue::Int(1));
        assert_eq!(
            j.env["b"],
            RtValue::List(vec![RtValue::Int(1), RtValue::Int(2), RtValue::Int(3)])
        );
    }

    #[test]
    fn flor_loop_outside_for_errors() {
        let prog = parse("let x = flor.loop(\"a\", [1]);").unwrap();
        assert!(Interpreter::new().run(&prog, &mut NullRuntime).is_err());
    }

    #[test]
    fn equality_of_none_and_lists() {
        let i = run_src("let a = none == none;\nlet b = [1, 2] == [1, 2];\nlet c = [1] != [2];");
        assert_eq!(i.env["a"], RtValue::Bool(true));
        assert_eq!(i.env["b"], RtValue::Bool(true));
        assert_eq!(i.env["c"], RtValue::Bool(true));
    }
}
