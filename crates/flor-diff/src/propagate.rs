//! Cross-version logging-statement propagation.
//!
//! The paper (§2): "Developers can add the desired logging statements to
//! the latest version of their code, and FlorDB will (a) inject these
//! statements into the correct locations in all prior versions of the
//! code". This module is (a): given an old and a new program version, find
//! `flor.log` statements that exist only in the new version and splice them
//! into the matched location of the old version.
//!
//! Anchoring rule: a new statement's insertion point in the old version is
//! determined by (i) its enclosing block's matched old block and (ii) the
//! nearest preceding sibling that is matched — the new statement goes right
//! after that sibling's old counterpart (or at the block head if no
//! preceding sibling matches).

use crate::gumtree::{match_trees, Mapping};
use crate::tree::{is_log_stmt, program_to_tree, NodeKind, Tree};
use flor_script::ast::{Program, Stmt, StmtPath};

/// One successfully propagated statement.
#[derive(Debug, Clone)]
pub struct Injected {
    /// The logged value's name (`flor.log(name, ...)`).
    pub log_name: String,
    /// Where it sits in the patched old program ([`Propagation::patched`]).
    pub old_path: StmtPath,
    /// Pretty-printed statement text.
    pub source: String,
}

/// One statement that could not be propagated.
#[derive(Debug, Clone)]
pub struct Skipped {
    /// The logged value's name.
    pub log_name: String,
    /// Why anchoring failed.
    pub reason: String,
}

/// Result of propagating new log statements into an old version.
#[derive(Debug, Clone)]
pub struct Propagation {
    /// The old program with statements injected.
    pub patched: Program,
    /// Statements that were injected.
    pub injected: Vec<Injected>,
    /// Statements that could not be anchored.
    pub skipped: Vec<Skipped>,
    /// Matched node pairs (diff quality diagnostics).
    pub matched_nodes: usize,
    /// Total nodes in the new version's tree.
    pub new_nodes: usize,
}

/// Propagate new `flor.log` statements from `new` into `old`.
///
/// Only statements satisfying [`is_log_stmt`] are propagated — exactly the
/// hindsight-logging use case. Statements already present in `old`
/// (matched by the differ) are left alone.
pub fn propagate_logs(old: &Program, new: &Program) -> Propagation {
    let src = program_to_tree(old); // old = source side of the mapping
    let dst = program_to_tree(new);
    let mapping = match_trees(&src, &dst);

    // Collect candidate insertions: (old block prefix, anchor index within
    // old block (+1 after), order key, statement).
    struct Pending {
        old_block_prefix: StmtPath,
        insert_index: usize,
        order: usize,
        stmt: Stmt,
        log_name: String,
    }
    let mut pending: Vec<Pending> = Vec::new();
    let mut skipped = Vec::new();
    let mut order = 0usize;

    // Which unmatched statements to carry over: every new `flor.log`, plus
    // its *backward slice* — unmatched `let`/assign statements in the same
    // block whose bindings the injected logs (transitively) reference.
    // Hindsight statements may compute new intermediates (`let m =
    // eval_model(...)`) that the old version never computed; without the
    // slice, the injected log would reference an undefined variable.
    let to_propagate = dependency_closure(new, &src, &dst, &mapping);

    for (d_idx, d_node) in dst.nodes.iter().enumerate() {
        let NodeKind::Stmt(_) = &d_node.kind else {
            continue;
        };
        if !to_propagate.contains(&d_idx) {
            continue;
        }
        let stmt = stmt_at(new, d_node);
        let log_name = is_log_stmt(stmt)
            .map(str::to_string)
            .unwrap_or_else(|| stmt.label());
        // Locate the enclosing new block and resolve it to an old block.
        // audit: allow(panic) — tree construction gives every Stmt node a
        // Block parent; a parentless stmt is a corrupted Tree, not input.
        let parent_block = d_node.parent.expect("stmt nodes always have a parent");
        let old_block_prefix = match resolve_old_block(&src, &dst, parent_block, &mapping) {
            Ok(prefix) => prefix,
            Err(reason) => {
                skipped.push(Skipped { log_name, reason });
                continue;
            }
        };
        // Anchor after the nearest preceding matched sibling.
        let siblings = &dst.nodes[parent_block].children;
        let my_pos = siblings
            .iter()
            .position(|&c| c == d_idx)
            // audit: allow(panic) — d_idx was reached by walking
            // parent_block's child list, so it is present in it.
            .expect("child of own parent");
        let mut insert_index = 0usize;
        for &sib in siblings[..my_pos].iter().rev() {
            if let Some(&old_sib) = mapping.dst_to_src.get(&sib) {
                // The old sibling must live in the resolved block.
                if let NodeKind::Stmt(old_path) = &src.nodes[old_sib].kind {
                    if old_path.len() == old_block_prefix.len() + 1
                        && old_path[..old_block_prefix.len()] == old_block_prefix[..]
                    {
                        // audit: allow(panic) — Stmt paths are built with at
                        // least one hop; the len check above proves it here.
                        insert_index = old_path.last().expect("non-empty path").1 + 1;
                        break;
                    }
                }
            }
        }
        pending.push(Pending {
            old_block_prefix,
            insert_index,
            order,
            stmt: stmt.clone(),
            log_name,
        });
        order += 1;
    }

    // Every anchor above is in old-program coordinates. Translate each into
    // its path in the patched program: at every hop, count the insertions
    // into that block that land at or before it (new-program order breaks
    // ties between equal anchors).
    let into = |block: &[(usize, usize)], before: &dyn Fn(&Pending) -> bool| {
        pending
            .iter()
            .filter(|q| q.old_block_prefix == block && before(q))
            .count()
    };
    let new_paths: Vec<StmtPath> = pending
        .iter()
        .map(|p| {
            let prefix = &p.old_block_prefix;
            let mut path: StmtPath = prefix
                .iter()
                .enumerate()
                .map(|(hop, &(sel, idx))| {
                    (sel, idx + into(&prefix[..hop], &|q| q.insert_index <= idx))
                })
                .collect();
            let own = (p.insert_index, p.order);
            let before_own = into(prefix, &|q| (q.insert_index, q.order) < own);
            path.push((0, p.insert_index + before_own));
            path
        })
        .collect();
    let mut placed: Vec<(StmtPath, Pending)> = new_paths.into_iter().zip(pending).collect();
    // Insert in the patched program's statement order: everything ahead
    // of a statement is then in place, so its path is valid as it lands.
    placed.sort_by_key(|(path, _)| {
        path.iter()
            .map(|&(sel, idx)| (idx, sel))
            .collect::<Vec<_>>()
    });
    let mut patched = old.clone();
    let mut injected = Vec::new();
    for (path, p) in placed {
        let single = Program {
            stmts: vec![p.stmt.clone()],
        };
        let source = flor_script::to_source(&single).trim_end().to_string();
        if patched.insert_at(&path, p.stmt) {
            injected.push(Injected {
                log_name: p.log_name,
                old_path: path,
                source,
            });
        } else {
            skipped.push(Skipped {
                log_name: p.log_name,
                reason: "insertion path invalid after patching".to_string(),
            });
        }
    }
    patched.assign_ids();
    Propagation {
        patched,
        injected,
        skipped,
        matched_nodes: mapping.len(),
        new_nodes: dst.len(),
    }
}

/// Free identifiers referenced by a statement's own expressions.
fn free_idents(s: &Stmt) -> std::collections::HashSet<String> {
    fn walk(e: &flor_script::ast::Expr, out: &mut std::collections::HashSet<String>) {
        if let flor_script::ast::Expr::Ident(_, name) = e {
            out.insert(name.clone());
        }
        for c in e.children() {
            walk(c, out);
        }
    }
    let mut out = std::collections::HashSet::new();
    for e in s.exprs() {
        walk(e, &mut out);
    }
    out
}

/// The name a statement binds, if any.
fn bound_name(s: &Stmt) -> Option<&str> {
    match s {
        Stmt::Let { name, .. } | Stmt::Assign { name, .. } => Some(name),
        _ => None,
    }
}

/// Context signature of a node: the labels of its enclosing statements,
/// innermost first. A matched statement only *covers* its counterpart when
/// the signatures agree — otherwise the statement lives under different
/// control flow (e.g. moved out of an `if` guard) and the new version logs
/// in contexts the old one does not.
fn ctx_sig(tree: &Tree, mut n: usize) -> Vec<String> {
    let mut sig = Vec::new();
    while let Some(p) = tree.nodes[n].parent {
        if matches!(tree.nodes[p].kind, NodeKind::Stmt(_)) {
            sig.push(tree.nodes[p].label.clone());
        }
        n = p;
    }
    sig
}

/// Whether dst statement `d_idx` is already present in the old version *in
/// an equivalent context*.
fn covered(src: &Tree, dst: &Tree, d_idx: usize, mapping: &Mapping) -> bool {
    match mapping.dst_to_src.get(&d_idx) {
        Some(&s_idx) => ctx_sig(src, s_idx) == ctx_sig(dst, d_idx),
        None => false,
    }
}

/// Compute the set of dst statement nodes to propagate: uncovered log
/// statements plus the uncovered definition statements they depend on,
/// per block, to a fixpoint.
fn dependency_closure(
    new: &Program,
    src: &Tree,
    dst: &Tree,
    mapping: &Mapping,
) -> std::collections::HashSet<usize> {
    use std::collections::HashSet;
    let mut included: HashSet<usize> = HashSet::new();
    // Group statements by parent block.
    let mut blocks: std::collections::HashMap<usize, Vec<usize>> = std::collections::HashMap::new();
    for (d_idx, d_node) in dst.nodes.iter().enumerate() {
        if !matches!(d_node.kind, NodeKind::Stmt(_)) {
            continue;
        }
        // audit: allow(panic) — same Tree invariant: Stmt nodes always
        // hang off a Block parent.
        let parent = d_node.parent.expect("stmt has parent");
        blocks.entry(parent).or_default().push(d_idx);
    }
    for siblings in blocks.values() {
        // Seed: uncovered bare log statements.
        let mut in_block: HashSet<usize> = siblings
            .iter()
            .copied()
            .filter(|&i| {
                !covered(src, dst, i, mapping) && is_log_stmt(stmt_at(new, &dst.nodes[i])).is_some()
            })
            .collect();
        // Fixpoint: pull in uncovered definitions the included set uses.
        loop {
            let mut needed: HashSet<String> = HashSet::new();
            for &i in &in_block {
                needed.extend(free_idents(stmt_at(new, &dst.nodes[i])));
            }
            let mut grew = false;
            for &i in siblings {
                if in_block.contains(&i) || covered(src, dst, i, mapping) {
                    continue;
                }
                let stmt = stmt_at(new, &dst.nodes[i]);
                if let Some(name) = bound_name(stmt) {
                    if needed.contains(name) {
                        in_block.insert(i);
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        included.extend(in_block);
    }
    included
}

/// Fetch the statement a tree node points to.
fn stmt_at<'p>(p: &'p Program, node: &crate::tree::TreeNode) -> &'p Stmt {
    let NodeKind::Stmt(path) = &node.kind else {
        // audit: allow(panic) — internal precondition: every caller
        // filters to Stmt nodes first; reaching here is a logic bug.
        panic!("stmt_at on non-stmt node");
    };
    let along = p.stmts_along(path);
    // Tree paths are built from this very program and are non-empty.
    assert_eq!(along.len(), path.len(), "tree path leaves its program");
    along[along.len() - 1]
}

/// Resolve a dst block node to the corresponding old block prefix.
fn resolve_old_block(
    src: &Tree,
    dst: &Tree,
    dst_block: usize,
    mapping: &Mapping,
) -> Result<StmtPath, String> {
    let NodeKind::Block(dst_prefix) = &dst.nodes[dst_block].kind else {
        return Err("parent is not a block".to_string());
    };
    // Top-level block maps to top-level block.
    if dst_prefix.is_empty() {
        return Ok(vec![]);
    }
    // The block's owning statement must be matched.
    let owner = dst.nodes[dst_block]
        .parent
        .ok_or_else(|| "block without owner".to_string())?;
    let Some(&old_owner) = mapping.dst_to_src.get(&owner) else {
        return Err(format!(
            "enclosing {} has no counterpart in the old version",
            dst.nodes[owner].label
        ));
    };
    let NodeKind::Stmt(old_owner_path) = &src.nodes[old_owner].kind else {
        return Err("owner matched to a non-statement".to_string());
    };
    // Same block selector on the old side.
    // audit: allow(panic) — resolve_old_block is only called with a
    // prefix derived from a Stmt path, which has at least one element.
    let sel = dst_prefix.last().expect("non-empty prefix").0;
    let (_, owner_idx) = *old_owner_path.last().expect("non-empty path"); // audit: allow(panic) — Stmt paths are non-empty
    let mut old_prefix = old_owner_path[..old_owner_path.len() - 1].to_vec();
    old_prefix.push((sel, owner_idx));
    Ok(old_prefix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flor_script::{parse, to_source};

    fn prop(old: &str, new: &str) -> Propagation {
        propagate_logs(&parse(old).unwrap(), &parse(new).unwrap())
    }

    #[test]
    fn top_level_insert_after_anchor() {
        let old = "let a = 1;\nlet b = 2;";
        let new = "let a = 1;\nflor.log(\"a\", a);\nlet b = 2;";
        let out = prop(old, new);
        assert_eq!(out.injected.len(), 1);
        assert!(out.skipped.is_empty());
        let expected = parse(new).unwrap();
        assert_eq!(out.patched, expected);
    }

    #[test]
    fn insert_into_loop_body() {
        let old = "for e in flor.loop(\"epoch\", range(0, 5)) {\n  let l = train_step(net, data, 0.1);\n}";
        let new = "for e in flor.loop(\"epoch\", range(0, 5)) {\n  let l = train_step(net, data, 0.1);\n  flor.log(\"loss\", l);\n}";
        let out = prop(old, new);
        assert_eq!(out.injected.len(), 1);
        assert_eq!(to_source(&out.patched), to_source(&parse(new).unwrap()));
    }

    #[test]
    fn propagation_into_divergent_old_version() {
        // Old version has a different learning rate and an extra statement —
        // the log still lands after the train_step let.
        let old = "let lr = 0.5;\nfor e in flor.loop(\"epoch\", range(0, 3)) {\n  let l = train_step(net, data, lr);\n  let extra = 1;\n}";
        let new = "let lr = 0.01;\nfor e in flor.loop(\"epoch\", range(0, 3)) {\n  let l = train_step(net, data, lr);\n  flor.log(\"loss\", l);\n}";
        let out = prop(old, new);
        assert_eq!(out.injected.len(), 1);
        let printed = to_source(&out.patched);
        // The log goes after `let l = ...` and before `let extra = 1;`.
        let pos_log = printed.find("flor.log(\"loss\"").unwrap();
        let pos_let = printed.find("let l = train_step").unwrap();
        let pos_extra = printed.find("let extra").unwrap();
        assert!(pos_let < pos_log && pos_log < pos_extra, "{printed}");
        // Old lr untouched.
        assert!(printed.contains("let lr = 0.5;"));
    }

    #[test]
    fn multiple_statements_keep_order() {
        let old = "let a = 1;";
        let new = "let a = 1;\nflor.log(\"x\", a);\nflor.log(\"y\", a + 1);";
        let out = prop(old, new);
        assert_eq!(out.injected.len(), 2);
        let printed = to_source(&out.patched);
        let px = printed.find("flor.log(\"x\"").unwrap();
        let py = printed.find("flor.log(\"y\"").unwrap();
        assert!(px < py);
    }

    #[test]
    fn existing_logs_not_duplicated() {
        let src = "let a = 1;\nflor.log(\"a\", a);";
        let out = prop(src, src);
        assert!(out.injected.is_empty());
        assert_eq!(to_source(&out.patched), to_source(&parse(src).unwrap()));
    }

    #[test]
    fn unanchorable_statement_skipped() {
        // The whole loop is new; its inner log can't anchor in the old
        // version (its enclosing loop has no counterpart).
        let old = "let a = 1;";
        let new = "let a = 1;\nfor e in flor.loop(\"fresh\", range(0, 2)) {\n  flor.log(\"inner\", e);\n}";
        let out = prop(old, new);
        assert!(out.injected.is_empty());
        assert_eq!(out.skipped.len(), 1);
        assert!(out.skipped[0].reason.contains("no counterpart"));
    }

    #[test]
    fn non_log_statements_not_propagated() {
        let old = "let a = 1;";
        let new = "let a = 1;\nlet b = 2;\nflor.commit();";
        let out = prop(old, new);
        assert!(out.injected.is_empty());
        assert_eq!(to_source(&out.patched), to_source(&parse(old).unwrap()));
    }

    #[test]
    fn insert_at_block_head_when_no_prior_anchor() {
        // New log is the first statement of the loop body.
        let old = "for e in flor.loop(\"ep\", range(0, 2)) {\n  let x = e;\n}";
        let new =
            "for e in flor.loop(\"ep\", range(0, 2)) {\n  flor.log(\"e\", e);\n  let x = e;\n}";
        let out = prop(old, new);
        assert_eq!(out.injected.len(), 1);
        assert_eq!(to_source(&out.patched), to_source(&parse(new).unwrap()));
    }

    #[test]
    fn propagation_is_idempotent() {
        let old = "let a = 1;\nlet b = 2;";
        let new = "let a = 1;\nflor.log(\"a\", a);\nlet b = 2;";
        let once = prop(old, new);
        let twice = propagate_logs(&once.patched, &parse(new).unwrap());
        assert!(twice.injected.is_empty(), "{:?}", twice.injected);
        assert_eq!(to_source(&twice.patched), to_source(&once.patched));
    }

    #[test]
    fn nested_if_inside_loop() {
        let old = "for e in flor.loop(\"ep\", range(0, 4)) {\n  if e % 2 == 0 {\n    let even = e;\n  }\n}";
        let new = "for e in flor.loop(\"ep\", range(0, 4)) {\n  if e % 2 == 0 {\n    let even = e;\n    flor.log(\"even\", even);\n  }\n}";
        let out = prop(old, new);
        assert_eq!(out.injected.len(), 1);
        assert_eq!(to_source(&out.patched), to_source(&parse(new).unwrap()));
    }

    #[test]
    fn injected_paths_address_the_patched_program() {
        // Insertions ahead of a block shift it; insertions into that block
        // (then-, else- and loop bodies alike) must still land where the
        // new version has them, and every reported path must address its
        // statement in the patched program.
        let old = "let a = 1;\nif a > 0 {\n  a = a + 1;\n} else {\n  a = a - 1;\n}\nwith flor.checkpointing(a) {\n  for e in flor.loop(\"ep\", range(0, 2)) {\n    a = a + e;\n  }\n}";
        let new = "let a = 1;\nflor.log(\"pre\", a);\nif a > 0 {\n  a = a + 1;\n} else {\n  flor.log(\"neg\", a);\n  a = a - 1;\n}\nflor.log(\"mid\", a);\nwith flor.checkpointing(a) {\n  for e in flor.loop(\"ep\", range(0, 2)) {\n    a = a + e;\n    flor.log(\"tail\", a);\n  }\n}\nflor.log(\"post\", a);";
        let out = prop(old, new);
        assert!(out.skipped.is_empty(), "{:?}", out.skipped);
        assert_eq!(out.injected.len(), 5);
        assert_eq!(to_source(&out.patched), to_source(&parse(new).unwrap()));
        for inj in &out.injected {
            let along = out.patched.stmts_along(&inj.old_path);
            assert_eq!(along.len(), inj.old_path.len(), "{inj:?}");
            assert_eq!(
                crate::tree::is_log_stmt(along[along.len() - 1]),
                Some(inj.log_name.as_str()),
                "{inj:?}"
            );
        }
    }

    #[test]
    fn reports_diff_stats() {
        let out = prop("let a = 1;", "let a = 1;\nflor.log(\"a\", a);");
        assert!(out.matched_nodes > 0);
        assert!(out.new_nodes > out.matched_nodes);
    }
}
