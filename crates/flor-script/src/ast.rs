//! The florscript AST.
//!
//! Every node carries a [`NodeId`] assigned canonically in pre-order after
//! parsing; `flor-diff` matches nodes across versions by structure and uses
//! the ids to address them. Statement blocks are addressable by
//! [`StmtPath`]s so propagated log statements can be spliced into exact
//! positions in prior versions.

use std::collections::BTreeSet;
use std::fmt;

/// Node identifier, unique within one parsed [`Program`] (pre-order).
pub type NodeId = u32;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// Source text of the operator.
    pub fn as_str(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `!`
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(NodeId, i64),
    /// Float literal.
    Float(NodeId, f64),
    /// String literal.
    Str(NodeId, String),
    /// Boolean literal.
    Bool(NodeId, bool),
    /// `none` literal.
    NoneLit(NodeId),
    /// Variable reference.
    Ident(NodeId, String),
    /// List literal.
    List(NodeId, Vec<Expr>),
    /// Unary operation.
    Unary {
        /// Node id.
        id: NodeId,
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Node id.
        id: NodeId,
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Builtin call `name(args...)`.
    Call {
        /// Node id.
        id: NodeId,
        /// Builtin name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Flor API call `flor.func(args...)`.
    FlorCall {
        /// Node id.
        id: NodeId,
        /// Flor function (`log`, `arg`, `loop`, `commit`, ...).
        func: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Indexing `base[index]`.
    Index {
        /// Node id.
        id: NodeId,
        /// Indexed expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let name = expr;`
    Let {
        /// Node id.
        id: NodeId,
        /// Bound name.
        name: String,
        /// Initialiser.
        expr: Expr,
    },
    /// `name = expr;`
    Assign {
        /// Node id.
        id: NodeId,
        /// Target name.
        name: String,
        /// New value.
        expr: Expr,
    },
    /// `if cond { .. } else { .. }`
    If {
        /// Node id.
        id: NodeId,
        /// Condition.
        cond: Expr,
        /// Then-block.
        then_block: Vec<Stmt>,
        /// Optional else-block.
        else_block: Option<Vec<Stmt>>,
    },
    /// `while cond { .. }`
    While {
        /// Node id.
        id: NodeId,
        /// Condition.
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `for var in iterable { .. }` (plain loop, no Flor bookkeeping)
    For {
        /// Node id.
        id: NodeId,
        /// Loop variable.
        var: String,
        /// Iterable expression.
        iterable: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `for var in flor.loop("name", iterable) { .. }`
    FlorLoop {
        /// Node id.
        id: NodeId,
        /// Loop variable.
        var: String,
        /// The loop's registered name (first argument of `flor.loop`).
        loop_name: String,
        /// Iterable expression (second argument).
        iterable: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `with flor.checkpointing(a, b, ...) { .. }`
    WithCheckpointing {
        /// Node id.
        id: NodeId,
        /// Names of checkpointed variables.
        vars: Vec<String>,
        /// Body.
        body: Vec<Stmt>,
    },
    /// Bare expression statement `expr;`
    ExprStmt {
        /// Node id.
        id: NodeId,
        /// The expression.
        expr: Expr,
    },
}

/// A parsed program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Top-level statements.
    pub stmts: Vec<Stmt>,
}

/// A path addressing a statement inside nested blocks:
/// a sequence of (block selector, index) hops from the program root.
/// Block selectors: for If statements, 0 = then-block, 1 = else-block;
/// all other statements have a single body block (selector 0).
pub type StmtPath = Vec<(usize, usize)>;

impl Expr {
    /// The node id.
    pub fn id(&self) -> NodeId {
        match self {
            Expr::Int(id, _)
            | Expr::Float(id, _)
            | Expr::Str(id, _)
            | Expr::Bool(id, _)
            | Expr::NoneLit(id)
            | Expr::Ident(id, _)
            | Expr::List(id, _) => *id,
            Expr::Unary { id, .. }
            | Expr::Binary { id, .. }
            | Expr::Call { id, .. }
            | Expr::FlorCall { id, .. }
            | Expr::Index { id, .. } => *id,
        }
    }

    /// A structural label: node kind plus any scalar payload. Two nodes
    /// with equal labels are candidates for matching in tree diff.
    pub fn label(&self) -> String {
        match self {
            Expr::Int(_, v) => format!("int:{v}"),
            Expr::Float(_, v) => format!("float:{v:?}"),
            Expr::Str(_, v) => format!("str:{v}"),
            Expr::Bool(_, v) => format!("bool:{v}"),
            Expr::NoneLit(_) => "none".to_string(),
            Expr::Ident(_, n) => format!("ident:{n}"),
            Expr::List(_, _) => "list".to_string(),
            Expr::Unary { op, .. } => format!("unary:{op:?}"),
            Expr::Binary { op, .. } => format!("binary:{}", op.as_str()),
            Expr::Call { name, .. } => format!("call:{name}"),
            Expr::FlorCall { func, .. } => format!("flor:{func}"),
            Expr::Index { .. } => "index".to_string(),
        }
    }

    /// Child expressions, in order.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Int(..)
            | Expr::Float(..)
            | Expr::Str(..)
            | Expr::Bool(..)
            | Expr::NoneLit(..)
            | Expr::Ident(..) => vec![],
            Expr::List(_, xs) => xs.iter().collect(),
            Expr::Unary { expr, .. } => vec![expr],
            Expr::Binary { lhs, rhs, .. } => vec![lhs, rhs],
            Expr::Call { args, .. } | Expr::FlorCall { args, .. } => args.iter().collect(),
            Expr::Index { base, index, .. } => vec![base, index],
        }
    }
}

impl Stmt {
    /// The node id.
    pub fn id(&self) -> NodeId {
        match self {
            Stmt::Let { id, .. }
            | Stmt::Assign { id, .. }
            | Stmt::If { id, .. }
            | Stmt::While { id, .. }
            | Stmt::For { id, .. }
            | Stmt::FlorLoop { id, .. }
            | Stmt::WithCheckpointing { id, .. }
            | Stmt::ExprStmt { id, .. } => *id,
        }
    }

    /// Structural label for diffing.
    pub fn label(&self) -> String {
        match self {
            Stmt::Let { name, .. } => format!("let:{name}"),
            Stmt::Assign { name, .. } => format!("assign:{name}"),
            Stmt::If { .. } => "if".to_string(),
            Stmt::While { .. } => "while".to_string(),
            Stmt::For { var, .. } => format!("for:{var}"),
            Stmt::FlorLoop { var, loop_name, .. } => format!("florloop:{loop_name}:{var}"),
            Stmt::WithCheckpointing { vars, .. } => {
                format!("withckpt:{}", vars.join(","))
            }
            Stmt::ExprStmt { .. } => "expr".to_string(),
        }
    }

    /// Nested statement blocks of this statement, in selector order.
    pub fn blocks(&self) -> Vec<&Vec<Stmt>> {
        match self {
            Stmt::If {
                then_block,
                else_block,
                ..
            } => {
                let mut out = vec![then_block];
                if let Some(e) = else_block {
                    out.push(e);
                }
                out
            }
            Stmt::While { body, .. }
            | Stmt::For { body, .. }
            | Stmt::FlorLoop { body, .. }
            | Stmt::WithCheckpointing { body, .. } => vec![body],
            _ => vec![],
        }
    }

    /// Mutable access to nested statement blocks.
    pub fn blocks_mut(&mut self) -> Vec<&mut Vec<Stmt>> {
        match self {
            Stmt::If {
                then_block,
                else_block,
                ..
            } => {
                let mut out = vec![then_block];
                if let Some(e) = else_block {
                    out.push(e);
                }
                out
            }
            Stmt::While { body, .. }
            | Stmt::For { body, .. }
            | Stmt::FlorLoop { body, .. }
            | Stmt::WithCheckpointing { body, .. } => vec![body],
            _ => vec![],
        }
    }

    /// Expressions directly owned by this statement (not in nested blocks).
    pub fn exprs(&self) -> Vec<&Expr> {
        match self {
            Stmt::Let { expr, .. } | Stmt::Assign { expr, .. } | Stmt::ExprStmt { expr, .. } => {
                vec![expr]
            }
            Stmt::If { cond, .. } | Stmt::While { cond, .. } => vec![cond],
            Stmt::For { iterable, .. } | Stmt::FlorLoop { iterable, .. } => vec![iterable],
            Stmt::WithCheckpointing { .. } => vec![],
        }
    }
}

impl Program {
    /// Re-assign all node ids in canonical pre-order. Makes two parses of
    /// the same source bit-identical and gives diffing a stable address
    /// space.
    pub fn assign_ids(&mut self) {
        let mut next: NodeId = 0;
        fn walk_expr(e: &mut Expr, next: &mut NodeId) {
            let id = *next;
            *next += 1;
            match e {
                Expr::Int(i, _)
                | Expr::Float(i, _)
                | Expr::Str(i, _)
                | Expr::Bool(i, _)
                | Expr::NoneLit(i)
                | Expr::Ident(i, _) => *i = id,
                Expr::List(i, xs) => {
                    *i = id;
                    for x in xs {
                        walk_expr(x, next);
                    }
                }
                Expr::Unary { id: i, expr, .. } => {
                    *i = id;
                    walk_expr(expr, next);
                }
                Expr::Binary {
                    id: i, lhs, rhs, ..
                } => {
                    *i = id;
                    walk_expr(lhs, next);
                    walk_expr(rhs, next);
                }
                Expr::Call { id: i, args, .. } | Expr::FlorCall { id: i, args, .. } => {
                    *i = id;
                    for a in args {
                        walk_expr(a, next);
                    }
                }
                Expr::Index { id: i, base, index } => {
                    *i = id;
                    walk_expr(base, next);
                    walk_expr(index, next);
                }
            }
        }
        fn walk_stmt(s: &mut Stmt, next: &mut NodeId) {
            let id = *next;
            *next += 1;
            match s {
                Stmt::Let { id: i, expr, .. }
                | Stmt::Assign { id: i, expr, .. }
                | Stmt::ExprStmt { id: i, expr } => {
                    *i = id;
                    walk_expr(expr, next);
                }
                Stmt::If {
                    id: i,
                    cond,
                    then_block,
                    else_block,
                } => {
                    *i = id;
                    walk_expr(cond, next);
                    for st in then_block {
                        walk_stmt(st, next);
                    }
                    if let Some(eb) = else_block {
                        for st in eb {
                            walk_stmt(st, next);
                        }
                    }
                }
                Stmt::While { id: i, cond, body } => {
                    *i = id;
                    walk_expr(cond, next);
                    for st in body {
                        walk_stmt(st, next);
                    }
                }
                Stmt::For {
                    id: i,
                    iterable,
                    body,
                    ..
                }
                | Stmt::FlorLoop {
                    id: i,
                    iterable,
                    body,
                    ..
                } => {
                    *i = id;
                    walk_expr(iterable, next);
                    for st in body {
                        walk_stmt(st, next);
                    }
                }
                Stmt::WithCheckpointing { id: i, body, .. } => {
                    *i = id;
                    for st in body {
                        walk_stmt(st, next);
                    }
                }
            }
        }
        for s in &mut self.stmts {
            walk_stmt(s, &mut next);
        }
    }

    /// Visit every statement with its [`StmtPath`].
    pub fn visit_stmts<'a>(&'a self, f: &mut impl FnMut(&'a Stmt, &StmtPath)) {
        fn walk<'a>(
            stmts: &'a [Stmt],
            prefix: &mut StmtPath,
            f: &mut impl FnMut(&'a Stmt, &StmtPath),
        ) {
            for (idx, s) in stmts.iter().enumerate() {
                prefix.push((0, idx));
                f(s, prefix);
                prefix.pop();
                for (sel, block) in s.blocks().into_iter().enumerate() {
                    // Extend the last hop to note which block we descend into.
                    prefix.push((sel, idx));
                    walk(block, prefix, f);
                    prefix.pop();
                }
            }
        }
        let mut prefix = Vec::new();
        walk(&self.stmts, &mut prefix, f);
    }

    /// Borrow the statement block at `path[..path.len()-1]` hops and return
    /// `(block, last index)`. Returns `None` for invalid paths.
    pub fn block_at_mut(&mut self, path: &StmtPath) -> Option<(&mut Vec<Stmt>, usize)> {
        if path.is_empty() {
            return None;
        }
        let mut block: &mut Vec<Stmt> = &mut self.stmts;
        for (hop, &(sel, idx)) in path.iter().enumerate() {
            if hop == path.len() - 1 {
                return Some((block, idx));
            }
            let stmt = block.get_mut(idx)?;
            let mut blocks = stmt.blocks_mut();
            if sel >= blocks.len() {
                return None;
            }
            block = blocks.swap_remove(sel);
        }
        None
    }

    /// Insert `stmt` at `path` (the statement currently at that position
    /// shifts right). Returns false for invalid paths. An index equal to
    /// the block length appends.
    pub fn insert_at(&mut self, path: &StmtPath, stmt: Stmt) -> bool {
        match self.block_at_mut(path) {
            Some((block, idx)) if idx <= block.len() => {
                block.insert(idx, stmt);
                true
            }
            _ => false,
        }
    }

    /// The statements `path` passes through, outermost first: every
    /// enclosing statement, then the addressed one. Shorter than `path`
    /// when the path is invalid.
    pub fn stmts_along(&self, path: &StmtPath) -> Vec<&Stmt> {
        let mut out = Vec::with_capacity(path.len());
        let mut block = &self.stmts;
        for &(sel, idx) in path {
            let Some(stmt) = block.get(idx) else { break };
            out.push(stmt);
            match stmt.blocks().get(sel) {
                Some(inner) => block = inner,
                None => break,
            }
        }
        out
    }

    /// Whether any expression in the program calls the builtin `name`.
    pub fn calls(&self, name: &str) -> bool {
        BlockWrites::of(&self.stmts).calls.contains(name)
    }

    /// Total node count (statements + expressions).
    pub fn node_count(&self) -> usize {
        let mut count = 0usize;
        self.visit_stmts(&mut |s, _| {
            count += 1;
            fn count_expr(e: &Expr, count: &mut usize) {
                *count += 1;
                for c in e.children() {
                    count_expr(c, count);
                }
            }
            for e in s.exprs() {
                count_expr(e, &mut count);
            }
        });
        count
    }
}

/// What a statement block may write: the names it binds — `let` and
/// assignment targets, `for` and `flor.loop` variables, at any depth —
/// and the builtins it calls, which may change the heap objects they are
/// passed (`builtins::MUTATORS` says which do).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct BlockWrites {
    /// Names bound anywhere in the block.
    pub(crate) names: BTreeSet<String>,
    /// Builtins called anywhere in the block.
    pub(crate) calls: BTreeSet<String>,
}

impl BlockWrites {
    /// Collect them from `block`.
    pub(crate) fn of(block: &[Stmt]) -> BlockWrites {
        fn expr(e: &Expr, out: &mut BlockWrites) {
            if let Expr::Call { name, .. } = e {
                out.calls.insert(name.clone());
            }
            for c in e.children() {
                expr(c, out);
            }
        }
        fn walk(stmts: &[Stmt], out: &mut BlockWrites) {
            for s in stmts {
                if let Stmt::Let { name, .. }
                | Stmt::Assign { name, .. }
                | Stmt::For { var: name, .. }
                | Stmt::FlorLoop { var: name, .. } = s
                {
                    out.names.insert(name.clone());
                }
                for e in s.exprs() {
                    expr(e, out);
                }
                for b in s.blocks() {
                    walk(b, out);
                }
            }
        }
        let mut out = BlockWrites::default();
        walk(block, &mut out);
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::printer::to_source(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn labels_distinguish_kinds() {
        let p = parse("let x = 1;\nx = 2;\nflor.log(\"a\", x);").unwrap();
        let labels: Vec<String> = p.stmts.iter().map(Stmt::label).collect();
        assert_eq!(labels, vec!["let:x", "assign:x", "expr"]);
    }

    #[test]
    fn assign_ids_is_canonical() {
        let src = "let x = 1 + 2;\nif x > 1 { flor.log(\"x\", x); }";
        let a = parse(src).unwrap();
        let b = parse(src).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn visit_stmts_paths() {
        let p = parse(
            "let a = 1;\nfor e in flor.loop(\"epoch\", range(0, 3)) {\n  let b = 2;\n  flor.log(\"b\", b);\n}",
        )
        .unwrap();
        let mut seen = Vec::new();
        p.visit_stmts(&mut |s, path| seen.push((s.label(), path.clone())));
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0].1, vec![(0, 0)]);
        assert_eq!(seen[1].1, vec![(0, 1)]); // the flor loop
        assert_eq!(seen[2].1, vec![(0, 1), (0, 0)]); // let b inside
        assert_eq!(seen[3].1, vec![(0, 1), (0, 1)]); // flor.log inside
    }

    #[test]
    fn insert_at_nested_path() {
        let mut p = parse("for e in flor.loop(\"epoch\", range(0, 3)) {\n  let b = 2;\n}").unwrap();
        let new_stmt = parse("flor.log(\"new\", 1);").unwrap().stmts.remove(0);
        // Path: descend into top-level stmt 0 via block selector 0, insert
        // at index 1 (after `let b = 2;`).
        assert!(p.insert_at(&vec![(0, 0), (0, 1)], new_stmt.clone()));
        // inserted after `let b = 2;` (index 1 within the loop body)
        match &p.stmts[0] {
            Stmt::FlorLoop { body, .. } => {
                assert_eq!(body.len(), 2);
                assert_eq!(body[1].label(), "expr");
            }
            _ => panic!("expected flor loop"),
        }
        // invalid paths rejected
        assert!(!p.insert_at(&vec![(0, 9), (0, 0)], new_stmt.clone()));
        assert!(!p.insert_at(&vec![], new_stmt));
    }

    #[test]
    fn stmts_along_walks_enclosing_statements() {
        let p = parse("let a = 1;\nif a > 0 { let b = 2; } else { for x in [1] { let c = x; } }")
            .unwrap();
        let labels = |path: &StmtPath| -> Vec<String> {
            p.stmts_along(path).into_iter().map(Stmt::label).collect()
        };
        assert_eq!(labels(&vec![(0, 0)]), vec!["let:a"]);
        assert_eq!(labels(&vec![(0, 1), (0, 0)]), vec!["if", "let:b"]);
        assert_eq!(
            labels(&vec![(1, 1), (0, 0), (0, 0)]),
            vec!["if", "for:x", "let:c"]
        );
        // Invalid paths stop where they leave the program.
        assert_eq!(labels(&vec![(0, 0), (0, 0)]), vec!["let:a"]);
        assert!(labels(&vec![(0, 7)]).is_empty());
    }

    #[test]
    fn calls_finds_nested_builtin_calls() {
        let p =
            parse("let a = 1;\nfor e in range(0, 2) { if e > 0 { a = a + abs(randint(0, 9)); } }")
                .unwrap();
        assert!(p.calls("randint"));
        assert!(p.calls("range"));
        assert!(!p.calls("work"));
    }

    #[test]
    fn block_writes_collect_bound_names_and_calls_at_any_depth() {
        let p = parse(
            "let a = len([1]);\nb = 2;\nif a > 0 { while b < 3 { b = b + abs(-1); } } else { for x in range(0, 2) { for y in flor.loop(\"s\", [x]) { flor.log(\"y\", train_step(n, d, y)); } } }",
        )
        .unwrap();
        let w = BlockWrites::of(&p.stmts);
        let names: Vec<&str> = w.names.iter().map(String::as_str).collect();
        assert_eq!(names, ["a", "b", "x", "y"]);
        let calls: Vec<&str> = w.calls.iter().map(String::as_str).collect();
        assert_eq!(calls, ["abs", "len", "range", "train_step"]);
        assert_eq!(BlockWrites::of(&p.stmts[1..2]).names.len(), 1);
    }

    #[test]
    fn node_count_counts_all() {
        let p = parse("let x = 1 + 2;").unwrap();
        // stmt + binary + 2 ints = 4
        assert_eq!(p.node_count(), 4);
    }

    #[test]
    fn if_blocks_exposed() {
        let p = parse("if 1 < 2 { let a = 1; } else { let b = 2; }").unwrap();
        let blocks = p.stmts[0].blocks();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0][0].label(), "let:a");
        assert_eq!(blocks[1][0].label(), "let:b");
    }
}
