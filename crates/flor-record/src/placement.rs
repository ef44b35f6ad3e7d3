//! Where a replayed program's injected statements sit relative to its
//! checkpoint loop — what lets the planner replay only a suffix of each
//! iteration, or only the last one.
//!
//! The interpreter designates as checkpoint loop the first `flor.loop` it
//! enters inside a `with flor.checkpointing(..)` block at flor-loop depth
//! 0. [`Placement::locate`] recognises that loop statically only in the
//! shape where the designation is certain — a top-level `with` whose
//! body's first `flor.loop` (in statement order) is a direct child — and
//! otherwise reports no placement, which plans exactly as a replay that
//! was given none.

use flor_script::{Program, Stmt, StmtPath};

/// Where one injected statement runs, relative to the checkpoint loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Once, before the loop (outside any `flor.loop`).
    BeforeLoop,
    /// Inside the loop body, at any depth.
    InLoop,
    /// Once, after the loop (outside any `flor.loop`).
    AfterLoop,
}

/// The injected statements of one patched program, located.
///
/// The default value carries no information: no sites, no tail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Placement {
    /// Each injected statement's site, under the name it logs (a
    /// dependency `let` is listed under its own label).
    pub sites: Vec<(String, Site)>,
    /// `Some(k)` when every injected statement inside the loop is a direct
    /// child of its body and together they are the body's last `k`
    /// statements (`k` may be 0): an iteration can then resume from its
    /// own end-of-iteration checkpoint and run only those `k`. `None` when
    /// one sits mid-body or in a nested block.
    pub tail: Option<usize>,
}

impl Placement {
    /// Locate the `injected` statements — `(logged name, path in prog)`
    /// pairs — against `prog`'s checkpoint loop, which must be the one a
    /// recording named `loop_name`. No placement when the loop is not
    /// statically certain, a path leaves the program, or a statement sits
    /// inside some other `flor.loop`.
    pub fn locate<'a>(
        prog: &Program,
        loop_name: &str,
        injected: impl IntoIterator<Item = (&'a str, &'a StmtPath)>,
    ) -> Placement {
        let Some((loop_path, body_len)) = checkpoint_loop(prog, loop_name) else {
            return Placement::default();
        };
        let mut sites = Vec::new();
        // Body indices of the in-loop statements that are direct children.
        let mut children = Vec::new();
        let mut nested = false;
        for (name, path) in injected {
            let along = prog.stmts_along(path);
            if along.len() != path.len() {
                return Placement::default();
            }
            let site = if path.len() > loop_path.len() && path.starts_with(&loop_path) {
                match path[loop_path.len()..] {
                    [(_, idx)] => children.push(idx),
                    _ => nested = true,
                }
                Site::InLoop
            } else if along.iter().any(|s| matches!(s, Stmt::FlorLoop { .. })) {
                return Placement::default();
            } else if precedes(path, &loop_path) {
                Site::BeforeLoop
            } else {
                Site::AfterLoop
            };
            sites.push((name.to_string(), site));
        }
        children.sort_unstable();
        let k = children.len();
        let trailing = children
            .iter()
            .copied()
            .eq(body_len.saturating_sub(k)..body_len);
        Placement {
            sites,
            tail: (!nested && trailing).then_some(k),
        }
    }

    /// The sites of the injected statements logging `name`.
    pub fn sites_of<'s>(&'s self, name: &'s str) -> impl Iterator<Item = Site> + 's {
        self.sites
            .iter()
            .filter(move |(n, _)| n == name)
            .map(|(_, site)| *site)
    }
}

/// The checkpoint loop's path and body length, when statically certain.
fn checkpoint_loop(prog: &Program, loop_name: &str) -> Option<(StmtPath, usize)> {
    let mut with: Option<StmtPath> = None;
    let mut first_loop: Option<(StmtPath, &Stmt)> = None;
    prog.visit_stmts(&mut |s, path| match s {
        Stmt::WithCheckpointing { .. } if with.is_none() => with = Some(path.clone()),
        Stmt::FlorLoop { .. }
            if first_loop.is_none() && with.as_ref().is_some_and(|w| path.starts_with(w)) =>
        {
            first_loop = Some((path.clone(), s));
        }
        _ => {}
    });
    let (path, stmt) = first_loop?;
    let Stmt::FlorLoop {
        loop_name: name,
        body,
        ..
    } = stmt
    else {
        return None;
    };
    (with?.len() == 1 && path.len() == 2 && name == loop_name).then_some((path, body.len()))
}

/// Whether the statement at `path` runs before the one at `other`, neither
/// enclosing the other: the first hop where they part decides.
fn precedes(path: &StmtPath, other: &StmtPath) -> bool {
    path.iter()
        .zip(other)
        .find(|(a, b)| a != b)
        .is_some_and(|(a, b)| (a.1, a.0) < (b.1, b.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flor_script::parse;

    const PROG: &str = "let a = 1;\nlet pre = a;\nwith flor.checkpointing(a) {\n  let inner = a;\n  for e in flor.loop(\"epoch\", range(0, 3)) {\n    a = a + e;\n    if e > 0 {\n      let deep = a;\n    }\n    let t1 = a;\n    let t2 = a;\n  }\n  let closing = a;\n}\nlet post = a;";

    fn locate(names_paths: &[(&str, StmtPath)]) -> Placement {
        let prog = parse(PROG).unwrap();
        Placement::locate(&prog, "epoch", names_paths.iter().map(|(n, p)| (*n, p)))
    }

    #[test]
    fn sites_follow_statement_order_around_the_loop() {
        let p = locate(&[
            ("pre", vec![(0, 1)]),
            ("inner", vec![(0, 2), (0, 0)]),
            ("t2", vec![(0, 2), (0, 1), (0, 3)]),
            ("closing", vec![(0, 2), (0, 2)]),
            ("post", vec![(0, 3)]),
        ]);
        let site = |n| p.sites_of(n).collect::<Vec<_>>();
        assert_eq!(site("pre"), vec![Site::BeforeLoop]);
        assert_eq!(site("inner"), vec![Site::BeforeLoop]);
        assert_eq!(site("t2"), vec![Site::InLoop]);
        assert_eq!(site("closing"), vec![Site::AfterLoop]);
        assert_eq!(site("post"), vec![Site::AfterLoop]);
        assert_eq!(p.tail, Some(1));
    }

    #[test]
    fn tail_is_the_trailing_run_only() {
        let t1 = vec![(0, 2), (0, 1), (0, 2)];
        let t2 = vec![(0, 2), (0, 1), (0, 3)];
        assert_eq!(
            locate(&[("t1", t1.clone()), ("t2", t2.clone())]).tail,
            Some(2)
        );
        // Not trailing: t1 alone leaves t2 after it.
        assert_eq!(locate(&[("t1", t1)]).tail, None);
        // Mid-body and nested statements rule the tail out.
        assert_eq!(
            locate(&[("t2", t2.clone()), ("a", vec![(0, 2), (0, 1), (0, 0)])]).tail,
            None
        );
        assert_eq!(
            locate(&[("t2", t2), ("deep", vec![(0, 2), (0, 1), (0, 1), (0, 0)])]).tail,
            None
        );
        // Nothing in the loop: an empty tail.
        assert_eq!(locate(&[("post", vec![(0, 3)])]).tail, Some(0));
    }

    #[test]
    fn no_placement_when_the_loop_or_a_path_is_uncertain() {
        let prog = parse(PROG).unwrap();
        let none = Placement::default();
        // A recording that named another loop.
        assert_eq!(Placement::locate(&prog, "step", std::iter::empty()), none);
        // A path that leaves the program.
        assert_eq!(locate(&[("x", vec![(0, 9)])]), none);
        // A `with` nested in control flow, or a loop nested in the body.
        for src in [
            "let a = 1;\nif a > 0 {\n  with flor.checkpointing(a) {\n    for e in flor.loop(\"epoch\", range(0, 2)) {\n      a = a + e;\n    }\n  }\n}",
            "let a = 1;\nwith flor.checkpointing(a) {\n  if a > 0 {\n    for e in flor.loop(\"epoch\", range(0, 2)) {\n      a = a + e;\n    }\n  }\n}",
        ] {
            let prog = parse(src).unwrap();
            assert_eq!(Placement::locate(&prog, "epoch", std::iter::empty()), none);
        }
        // A statement inside another flor.loop.
        let prog = parse("let a = 1;\nfor d in flor.loop(\"doc\", [1]) {\n  let x = d;\n}\nwith flor.checkpointing(a) {\n  for e in flor.loop(\"epoch\", range(0, 2)) {\n    a = a + e;\n  }\n}").unwrap();
        let path = vec![(0, 1), (0, 0)];
        assert_eq!(Placement::locate(&prog, "epoch", [("x", &path)]), none);
    }
}
