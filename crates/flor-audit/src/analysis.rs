//! Token-level analysis: test-region skipping, function segmentation,
//! and the guard-liveness walk that produces the events the rules
//! consume (lock acquisitions with held-lock context, I/O calls under
//! a guard, atomic-ordering uses, panic sites).
//!
//! This is deliberately a *lint-grade* abstraction, not a compiler:
//! receivers are classified by their final field/binding name, guard
//! lifetimes follow `let` bindings, explicit `drop(..)` calls and
//! block scopes, and statement-level temporaries follow Rust's drop
//! rules closely enough for real code (`if`/`while` conditions drop
//! their temporaries at the `{`; `match`/`for`/`if let`/`while let`
//! scrutinee temporaries live to the end of the construct). Anything
//! the abstraction gets wrong is suppressible — with a written reason
//! — via `// audit:` annotations.

use crate::lexer::{lex, Annotation, Tok, Token};
use crate::manifest::Manifest;

/// Built-in I/O function names (method or free-call position) for the
/// hold-across-I/O rule. The manifest's `[io] fns` extends this list
/// with project-specific wrappers (e.g. WAL write_txn/sync).
const IO_FNS: &[&str] = &[
    "fsync",
    "sync_all",
    "sync_data",
    "flush",
    "write_all",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "set_len",
    "persist",
];

/// Type names whose associated functions are I/O (`File::create`,
/// `fs::rename`, `TcpStream::connect`, ...).
const IO_TYPES: &[&str] = &[
    "fs",
    "File",
    "OpenOptions",
    "TcpStream",
    "TcpListener",
    "UdpSocket",
];

/// A function span in one file.
#[derive(Debug, Clone)]
pub struct FuncSpan {
    pub name: String,
    /// Line of the `fn` keyword.
    pub sig_line: u32,
    /// Line of the body's opening `{`.
    pub body_open_line: u32,
    /// Line of the body's closing `}`.
    pub body_close_line: u32,
    /// Token index range of the body (exclusive of the braces).
    pub body: (usize, usize),
}

/// A lock acquisition observed with other guards held.
#[derive(Debug, Clone)]
pub struct LockEvent {
    pub line: u32,
    /// Receiver identifier (or summary fn name) at the site.
    pub site: String,
    /// Manifest class, if classified.
    pub class: Option<String>,
    /// Classes (with their acquisition lines) held at this point.
    pub held: Vec<(String, u32)>,
    /// True when this came from a receiver-style `.lock()`/`.read()`/
    /// `.write()` (so an unclassified receiver is itself reportable).
    pub receiver_style: bool,
    /// Name of the enclosing function (for diagnostics).
    pub in_fn: String,
}

/// An I/O call observed while at least one guard was live.
#[derive(Debug, Clone)]
pub struct IoEvent {
    pub line: u32,
    pub call: String,
    pub held: Vec<(String, u32)>,
    /// Held guards that were never classified (still I/O-under-lock).
    pub unclassified_held: bool,
    pub in_fn: String,
}

/// `Ordering::Relaxed` / `Ordering::SeqCst` use.
#[derive(Debug, Clone)]
pub struct AtomicEvent {
    pub line: u32,
    pub which: String,
}

/// `.unwrap()` / `.expect(` / `panic!` / `unreachable!` site.
#[derive(Debug, Clone)]
pub struct PanicEvent {
    pub line: u32,
    pub call: String,
}

/// Everything the rules need to know about one file.
#[derive(Debug, Default)]
pub struct FileFacts {
    pub path: String,
    pub functions: Vec<FuncSpan>,
    pub annotations: Vec<Annotation>,
    pub locks: Vec<LockEvent>,
    pub io: Vec<IoEvent>,
    pub atomics: Vec<AtomicEvent>,
    pub panics: Vec<PanicEvent>,
    /// Lines audited (outside test regions) — for the summary stats.
    pub audited_fns: usize,
}

/// Analyze one source file into rule-ready facts.
pub fn analyze(path: &str, src: &str, manifest: &Manifest) -> FileFacts {
    let lexed = lex(src);
    let toks = &lexed.tokens;
    let skips = skip_regions(toks);
    let functions = segment_functions(toks, &skips);

    let mut facts = FileFacts {
        path: path.to_string(),
        annotations: lexed.annotations,
        audited_fns: functions.len(),
        ..FileFacts::default()
    };

    // Guard-liveness walk per function body.
    for f in &functions {
        walk_function(path, toks, f, manifest, &mut facts);
    }

    // Atomic-ordering and panic sites are collected over ALL
    // non-skipped tokens (they can appear outside fn bodies, e.g. in
    // const expressions), except that panic/atomic sites inside
    // function bodies were NOT collected by the guard walk — collect
    // both here in one linear scan to keep a single source of truth.
    let mut i = 0usize;
    while i < toks.len() {
        if let Some(end) = skip_covering(&skips, i) {
            i = end;
            continue;
        }
        let t = &toks[i];
        if let Some(id) = t.ident() {
            match id {
                "Ordering"
                    if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                        && toks.get(i + 2).is_some_and(|t| t.is_punct(':')) =>
                {
                    if let Some(which) = toks.get(i + 3).and_then(Token::ident) {
                        if which == "Relaxed" || which == "SeqCst" {
                            facts.atomics.push(AtomicEvent {
                                line: toks[i + 3].line,
                                which: which.to_string(),
                            });
                        }
                    }
                }
                "panic" | "unreachable" if toks.get(i + 1).is_some_and(|t| t.is_punct('!')) => {
                    facts.panics.push(PanicEvent {
                        line: t.line,
                        call: format!("{id}!"),
                    });
                }
                "unwrap" | "expect"
                    if i > 0
                        && toks[i - 1].is_punct('.')
                        && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) =>
                {
                    facts.panics.push(PanicEvent {
                        line: t.line,
                        call: format!(".{id}()"),
                    });
                }
                _ => {}
            }
        }
        i += 1;
    }

    facts.functions = functions;
    facts
}

/// If token index `i` is inside a skip region, return the region's end
/// (exclusive token index).
fn skip_covering(skips: &[(usize, usize)], i: usize) -> Option<usize> {
    skips
        .iter()
        .find(|(s, e)| i >= *s && i < *e)
        .map(|(_, e)| *e)
}

/// Token-index ranges covered by `#[cfg(test)]` / `#[test]` /
/// `#[bench]` items (the item after the attribute, through its body).
fn skip_regions(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let attr_start = i;
            let mut j = i + 2;
            let mut depth = 1i32;
            let mut is_test = false;
            let mut first_ident: Option<&str> = None;
            while j < toks.len() && depth > 0 {
                match &toks[j].kind {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => depth -= 1,
                    Tok::Ident(id) => {
                        if first_ident.is_none() {
                            first_ident = Some(id);
                        }
                        if id == "test" || id == "bench" {
                            is_test = true;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            // Only `#[test]`, `#[bench]`, and `#[cfg(..test..)]`
            // qualify; `#[cfg(feature = "x")]` or a doc attr with the
            // word "test" in a string can't reach here (strings are
            // opaque Lit tokens).
            let saw_cfg_or_bare = matches!(first_ident, Some("cfg" | "test" | "bench"));
            if is_test && saw_cfg_or_bare {
                // Skip any further attributes, then the item itself.
                let mut k = j;
                while k < toks.len()
                    && toks[k].is_punct('#')
                    && toks.get(k + 1).is_some_and(|t| t.is_punct('['))
                {
                    let mut d = 0i32;
                    k += 1;
                    while k < toks.len() {
                        if toks[k].is_punct('[') {
                            d += 1;
                        } else if toks[k].is_punct(']') {
                            d -= 1;
                            if d == 0 {
                                k += 1;
                                break;
                            }
                        }
                        k += 1;
                    }
                }
                // Find the end of the item: first `;` at depth 0, or
                // the matching `}` of the first `{` at depth 0.
                let mut d = 0i32;
                while k < toks.len() {
                    match &toks[k].kind {
                        Tok::Punct('{') => {
                            d += 1;
                        }
                        Tok::Punct('}') => {
                            d -= 1;
                            if d == 0 {
                                k += 1;
                                break;
                            }
                        }
                        Tok::Punct(';') if d == 0 => {
                            k += 1;
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                regions.push((attr_start, k));
                i = k;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    regions
}

/// Find every `fn` item outside skip regions and compute its body span.
fn segment_functions(toks: &[Token], skips: &[(usize, usize)]) -> Vec<FuncSpan> {
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if let Some(end) = skip_covering(skips, i) {
            i = end;
            continue;
        }
        if toks[i].ident() == Some("fn") {
            let sig_line = toks[i].line;
            let name = toks
                .get(i + 1)
                .and_then(Token::ident)
                .unwrap_or("?")
                .to_string();
            // Scan forward for the body `{` at bracket depth 0
            // (counting (), [], {} — generics/returns never contain a
            // bare `{` before the body in practice). A `;` first means
            // a bodyless trait/extern declaration.
            let mut j = i + 1;
            let mut paren = 0i32;
            let mut body_open = None;
            while j < toks.len() {
                match &toks[j].kind {
                    Tok::Punct('(') | Tok::Punct('[') => paren += 1,
                    Tok::Punct(')') | Tok::Punct(']') => paren -= 1,
                    Tok::Punct(';') if paren == 0 => break,
                    Tok::Punct('{') if paren == 0 => {
                        body_open = Some(j);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some(open) = body_open {
                // Matching close brace.
                let mut d = 0i32;
                let mut k = open;
                let mut close = toks.len().saturating_sub(1);
                while k < toks.len() {
                    if toks[k].is_punct('{') {
                        d += 1;
                    } else if toks[k].is_punct('}') {
                        d -= 1;
                        if d == 0 {
                            close = k;
                            break;
                        }
                    }
                    k += 1;
                }
                fns.push(FuncSpan {
                    name,
                    sig_line,
                    body_open_line: toks[open].line,
                    body_close_line: toks[close].line,
                    body: (open + 1, close),
                });
                // Continue scanning INSIDE the body too: nested fns
                // are segmented as their own spans, and the walk
                // excludes nested bodies itself.
                i = open + 1;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    fns
}

/// One live guard.
#[derive(Debug, Clone)]
struct Guard {
    /// Binding name (empty for statement temporaries).
    name: String,
    class: Option<String>,
    line: u32,
    /// True when the lock call is the whole tail of a `let` init (so
    /// the guard binds to the let name and lives to scope end). False
    /// means a statement temporary: `let t = m.read().tables;` drops
    /// the guard at the `;`.
    binds: bool,
}

/// Statement context within the walk.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StmtKind {
    /// `let` statement: lock temporaries become scope-bound guards.
    Let,
    /// `match` / `for` / `if let` / `while let`: scrutinee temporaries
    /// live through the construct's block.
    MatchLike,
    /// Plain `if` / `while`: condition temporaries drop at the `{`.
    CondLike,
    Other,
}

/// Walk one function body tracking guard liveness; emit lock and I/O
/// events into `facts`.
fn walk_function(
    path: &str,
    toks: &[Token],
    f: &FuncSpan,
    manifest: &Manifest,
    facts: &mut FileFacts,
) {
    let (start, end) = f.body;
    // Scope stack: each entry is (guards bound to that scope, whether
    // the scope owns match-like temporaries).
    let mut scopes: Vec<Vec<Guard>> = vec![Vec::new()];
    // Temporaries of the current statement (pending let guards too).
    let mut pending: Vec<Guard> = Vec::new();
    let mut stmt = StmtKind::Other;
    let mut stmt_open = true; // at a statement boundary, kind not yet known
    let mut let_names: Vec<String> = Vec::new();
    let mut seen_eq = false; // inside a let, after the `=`?

    let io_match = |id: &str| IO_FNS.contains(&id) || manifest.io_fns.iter().any(|f| f == id);

    let mut i = start;
    while i < end {
        let t = &toks[i];
        match &t.kind {
            Tok::Ident(id) => {
                if stmt_open {
                    stmt = match id.as_str() {
                        "let" => StmtKind::Let,
                        "match" | "for" => StmtKind::MatchLike,
                        "if" | "while" => {
                            // `if let` / `while let` scrutinees live on.
                            if toks.get(i + 1).and_then(Token::ident) == Some("let") {
                                StmtKind::MatchLike
                            } else {
                                StmtKind::CondLike
                            }
                        }
                        _ => StmtKind::Other,
                    };
                    stmt_open = false;
                    let_names.clear();
                    seen_eq = false;
                }
                if id == "fn" {
                    // Nested fn definition: it is segmented and walked
                    // as its own span; our guards are not live inside
                    // it, so skip its signature and body here.
                    let mut j = i + 1;
                    let mut paren = 0i32;
                    while j < end {
                        match &toks[j].kind {
                            Tok::Punct('(') | Tok::Punct('[') => paren += 1,
                            Tok::Punct(')') | Tok::Punct(']') => paren -= 1,
                            Tok::Punct(';') if paren == 0 => break,
                            Tok::Punct('{') if paren == 0 => {
                                let mut d = 0i32;
                                while j < end {
                                    if toks[j].is_punct('{') {
                                        d += 1;
                                    } else if toks[j].is_punct('}') {
                                        d -= 1;
                                        if d == 0 {
                                            break;
                                        }
                                    }
                                    j += 1;
                                }
                                break;
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    i = j + 1;
                    continue;
                }
                // `let` pattern bindings (before the `=`).
                if stmt == StmtKind::Let && !seen_eq && id != "let" && id != "mut" && id != "ref" {
                    let_names.push(id.clone());
                }
                // drop(name): release that guard wherever it is bound.
                if id == "drop"
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
                {
                    if let Some(victim) = toks.get(i + 2).and_then(Token::ident) {
                        for sc in scopes.iter_mut().rev() {
                            if let Some(pos) = sc.iter().position(|g| g.name == victim) {
                                sc.remove(pos);
                                break;
                            }
                        }
                        i += 4;
                        continue;
                    }
                }
                // Receiver-style lock acquisition: `recv.lock()` /
                // `.read()` / `.write()` with EMPTY parens.
                let is_lockish = matches!(id.as_str(), "lock" | "read" | "write")
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(')'));
                if is_lockish {
                    let recv = (i >= 2)
                        .then(|| toks[i - 2].ident())
                        .flatten()
                        .unwrap_or("?")
                        .to_string();
                    let class = manifest.classify(path, &recv).map(str::to_string);
                    record_lock(
                        facts,
                        &scopes,
                        &pending,
                        LockEvent {
                            line: t.line,
                            site: recv.clone(),
                            class: class.clone(),
                            held: Vec::new(),
                            receiver_style: true,
                            in_fn: f.name.clone(),
                        },
                    );
                    pending.push(Guard {
                        name: String::new(),
                        class,
                        line: t.line,
                        binds: stmt == StmtKind::Let
                            && seen_eq
                            && is_binding_tail(toks, i + 3, end),
                    });
                    i += 3;
                    continue;
                }
                // Summary call: `name(...)` known to acquire a class.
                if toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && toks.get(i.wrapping_sub(1)).map(|t| t.ident()) != Some(Some("fn"))
                {
                    if let Some(s) = manifest.summary_for(path, id) {
                        let class = Some(s.class.clone());
                        record_lock(
                            facts,
                            &scopes,
                            &pending,
                            LockEvent {
                                line: t.line,
                                site: format!("{id}()"),
                                class: class.clone(),
                                held: Vec::new(),
                                receiver_style: false,
                                in_fn: f.name.clone(),
                            },
                        );
                        if s.returns_guard {
                            let after = skip_balanced(toks, i + 1, end);
                            pending.push(Guard {
                                name: String::new(),
                                class,
                                line: t.line,
                                binds: stmt == StmtKind::Let
                                    && seen_eq
                                    && is_binding_tail(toks, after, end),
                            });
                        }
                    }
                    // I/O call check (method or associated/free call).
                    if io_match(id) {
                        record_io(facts, &scopes, &pending, t.line, id, &f.name);
                    }
                    // `Type::io_fn(` pattern: `File::create(...)` etc.
                    if i >= 3
                        && toks[i - 1].is_punct(':')
                        && toks[i - 2].is_punct(':')
                        && toks
                            .get(i - 3)
                            .and_then(Token::ident)
                            .is_some_and(|ty| IO_TYPES.contains(&ty))
                    {
                        record_io(facts, &scopes, &pending, t.line, id, &f.name);
                    }
                }
            }
            Tok::Punct('=') if stmt == StmtKind::Let => {
                seen_eq = true;
            }
            Tok::Punct(';') => {
                end_statement(&mut scopes, &mut pending, stmt, &let_names, false);
                stmt = StmtKind::Other;
                stmt_open = true;
                let_names.clear();
                seen_eq = false;
            }
            Tok::Punct('{') => {
                // A block opens: condition temporaries drop here;
                // match-like temporaries transfer into the new scope.
                let transfer = end_statement(&mut scopes, &mut pending, stmt, &let_names, true);
                scopes.push(transfer);
                stmt = StmtKind::Other;
                stmt_open = true;
                let_names.clear();
                seen_eq = false;
            }
            Tok::Punct('}') => {
                // Scope closes: its guards (and any stray temporaries)
                // die.
                pending.clear();
                scopes.pop();
                if scopes.is_empty() {
                    scopes.push(Vec::new());
                }
                stmt = StmtKind::Other;
                stmt_open = true;
                let_names.clear();
                seen_eq = false;
            }
            _ => {}
        }
        i += 1;
    }
}

/// Return the token index just past the `)` matching the `(` at
/// `open` (which must be a `(`), clamped to `end`.
fn skip_balanced(toks: &[Token], open: usize, end: usize) -> usize {
    let mut d = 0i32;
    let mut k = open;
    while k < end {
        if toks[k].is_punct('(') {
            d += 1;
        } else if toks[k].is_punct(')') {
            d -= 1;
            if d == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    end
}

/// After a lock call ending at token index `k`, decide whether the
/// call is the whole tail of the enclosing `let` init: chains of
/// guard-preserving adapters (`.unwrap()`, `.expect(..)`,
/// `.unwrap_or_else(..)`, `.map_err(..)`) and a trailing `?` are
/// allowed; anything else (`.field`, `,`, an enclosing call's `)`)
/// means the guard is a statement temporary.
fn is_binding_tail(toks: &[Token], mut k: usize, end: usize) -> bool {
    const CHAIN: &[&str] = &["unwrap", "expect", "unwrap_or_else", "map_err"];
    loop {
        if k >= end {
            return false;
        }
        if toks[k].is_punct('?') {
            k += 1;
            continue;
        }
        if toks[k].is_punct(';') {
            return true;
        }
        if toks[k].is_punct('.')
            && toks
                .get(k + 1)
                .and_then(Token::ident)
                .is_some_and(|id| CHAIN.contains(&id))
            && toks.get(k + 2).is_some_and(|t| t.is_punct('('))
        {
            k = skip_balanced(toks, k + 2, end);
            continue;
        }
        return false;
    }
}

/// Close the current statement. Returns guards that must transfer into
/// a newly-opened block (match-like temporaries).
fn end_statement(
    scopes: &mut [Vec<Guard>],
    pending: &mut Vec<Guard>,
    stmt: StmtKind,
    let_names: &[String],
    opening_block: bool,
) -> Vec<Guard> {
    if pending.is_empty() {
        return Vec::new();
    }
    let drained: Vec<Guard> = std::mem::take(pending);
    match stmt {
        StmtKind::Let if !opening_block => {
            // `let g = x.lock();` — a guard that is the whole init
            // tail binds to the enclosing scope under the first
            // pattern name; lock temporaries buried inside a larger
            // init expression (`let t = m.read().tables.clone();`)
            // die at the `;` like any statement temporary.
            let name = let_names.first().cloned().unwrap_or_default();
            if name != "_" {
                if let Some(top) = scopes.last_mut() {
                    for mut g in drained {
                        if g.binds {
                            g.name = name.clone();
                            top.push(g);
                        }
                    }
                }
            }
            Vec::new()
        }
        StmtKind::Let => {
            // `let x = match m.lock() { .. }` style: the guard
            // temporary lives through the block being opened.
            drained
        }
        StmtKind::MatchLike if opening_block => drained,
        _ => Vec::new(),
    }
}

/// Emit a lock event with the currently-held guard context.
fn record_lock(facts: &mut FileFacts, scopes: &[Vec<Guard>], pending: &[Guard], mut ev: LockEvent) {
    ev.held = live_classes(scopes, pending);
    facts.locks.push(ev);
}

fn record_io(
    facts: &mut FileFacts,
    scopes: &[Vec<Guard>],
    pending: &[Guard],
    line: u32,
    call: &str,
    in_fn: &str,
) {
    let held = live_classes(scopes, pending);
    let unclassified_held = scopes
        .iter()
        .flatten()
        .chain(pending.iter())
        .any(|g| g.class.is_none());
    if held.is_empty() && !unclassified_held {
        return;
    }
    facts.io.push(IoEvent {
        line,
        call: call.to_string(),
        held,
        unclassified_held,
        in_fn: in_fn.to_string(),
    });
}

fn live_classes(scopes: &[Vec<Guard>], pending: &[Guard]) -> Vec<(String, u32)> {
    scopes
        .iter()
        .flatten()
        .chain(pending.iter())
        .filter_map(|g| g.class.clone().map(|c| (c, g.line)))
        .collect()
}
