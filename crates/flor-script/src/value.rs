//! Runtime values, the object heap, and state snapshots.
//!
//! Snapshots are the substance of `flor.checkpointing`. At a checkpoint-loop
//! iteration boundary the interpreter writes the loop's *write set*: its
//! variable, the names its body binds and every binding holding a heap
//! object of a kind some body builtin mutates (`builtins::MUTATORS`), plus
//! every binding sharing an object with those, so the text says what
//! aliases what. Nothing else can differ from what the statements before
//! the loop left, and every replay reruns those, so a restore is an *overlay*
//! (`restore_over`): the snapshot's bindings replace the live ones, the
//! rest stay, and each heap object is written into a slot a binding
//! reaching it holds now, so every alias sees it.
//! Written whole and restored into a fresh interpreter, a snapshot resumes
//! execution bit-identically — the invariant hindsight replay is built on.
//!
//! The text: `SNAP1 <n>`, then `n` bindings ` <name> <value>` in name
//! order. A name or string is `<len>:<bytes>`; a value is `N`, `I<int>`,
//! `F<16 hex digits of the bits>`, `B0`/`B1`, `S<raw>`, `L<n>` and `n`
//! space-led values, `M<raw model text>`, `D<raw dataset text>`, or
//! `R<k>`: the heap object written inline `k`-th (from 0), so an object
//! two bindings share comes back shared.

use flor_ml::{Dataset, Matrix, Mlp};
use std::collections::BTreeMap;
use std::fmt;

/// A runtime value. Models and datasets live on the [`Heap`] and are
/// referenced by handle so `train_step` can mutate them in place.
#[derive(Debug, Clone, PartialEq)]
pub enum RtValue {
    /// Absence of a value (`none`).
    None,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// List.
    List(Vec<RtValue>),
    /// Handle to a model on the heap.
    Model(usize),
    /// Handle to a dataset on the heap.
    Dataset(usize),
}

impl RtValue {
    /// Truthiness (Python-like).
    pub fn truthy(&self) -> bool {
        match self {
            RtValue::None => false,
            RtValue::Bool(b) => *b,
            RtValue::Int(i) => *i != 0,
            RtValue::Float(f) => *f != 0.0,
            RtValue::Str(s) => !s.is_empty(),
            RtValue::List(l) => !l.is_empty(),
            RtValue::Model(_) | RtValue::Dataset(_) => true,
        }
    }

    /// Numeric coercion.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            RtValue::Int(i) => Some(*i as f64),
            RtValue::Float(f) => Some(*f),
            RtValue::Bool(b) => Some(*b as u8 as f64),
            _ => None,
        }
    }

    /// Integer coercion (exact).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            RtValue::Int(i) => Some(*i),
            RtValue::Bool(b) => Some(*b as i64),
            RtValue::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            _ => None,
        }
    }

    /// Whether this value holds a heap object of `kind`, itself or in a
    /// list.
    pub(crate) fn holds(&self, kind: HeapKind) -> bool {
        match self {
            RtValue::Model(_) => kind == HeapKind::Model,
            RtValue::Dataset(_) => kind == HeapKind::Dataset,
            RtValue::List(items) => items.iter().any(|v| v.holds(kind)),
            _ => false,
        }
    }

    /// Human-readable rendering (what `flor.log` records as text).
    pub fn display_text(&self) -> String {
        match self {
            RtValue::None => "none".to_string(),
            RtValue::Int(i) => i.to_string(),
            RtValue::Float(f) => format!("{f:?}"),
            RtValue::Bool(b) => b.to_string(),
            RtValue::Str(s) => s.clone(),
            RtValue::List(items) => {
                let inner: Vec<String> = items.iter().map(RtValue::display_text).collect();
                format!("[{}]", inner.join(", "))
            }
            RtValue::Model(h) => format!("<model#{h}>"),
            RtValue::Dataset(h) => format!("<dataset#{h}>"),
        }
    }
}

impl fmt::Display for RtValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_text())
    }
}

/// The kinds of object the [`Heap`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HeapKind {
    /// An [`Mlp`].
    Model,
    /// A [`Dataset`].
    Dataset,
}

/// Heap of mutable objects referenced by [`RtValue`] handles.
#[derive(Debug, Default, Clone)]
pub struct Heap {
    /// Models (checkpointable training state).
    pub models: Vec<Mlp>,
    /// Datasets.
    pub datasets: Vec<Dataset>,
}

impl Heap {
    /// Allocate a model, returning its handle.
    pub fn alloc_model(&mut self, m: Mlp) -> usize {
        self.models.push(m);
        self.models.len() - 1
    }

    /// Allocate a dataset, returning its handle.
    pub fn alloc_dataset(&mut self, d: Dataset) -> usize {
        self.datasets.push(d);
        self.datasets.len() - 1
    }
}

/// Serialize a dataset to exact text (matrix hex-bits, labels, classes).
pub fn dataset_to_text(d: &Dataset) -> String {
    let labels: Vec<String> = d.y.iter().map(usize::to_string).collect();
    format!("{};{};{}", d.n_classes, labels.join(","), d.x.to_text())
}

/// Parse [`dataset_to_text`] output.
pub fn dataset_from_text(s: &str) -> Result<Dataset, String> {
    let mut parts = s.splitn(3, ';');
    let k: usize = parts
        .next()
        .ok_or("missing n_classes")?
        .parse()
        .map_err(|e| format!("n_classes: {e}"))?;
    let labels_part = parts.next().ok_or("missing labels")?;
    let y: Vec<usize> = if labels_part.is_empty() {
        Vec::new()
    } else {
        labels_part
            .split(',')
            .map(|t| t.parse().map_err(|e| format!("label: {e}")))
            .collect::<Result<_, _>>()?
    };
    let x = Matrix::from_text(parts.next().ok_or("missing matrix")?)?;
    if x.rows != y.len() {
        return Err(format!("matrix rows {} != labels {}", x.rows, y.len()));
    }
    Ok(Dataset { x, y, n_classes: k })
}

// ---------------------------------------------------------------------------
// Snapshot codec
// ---------------------------------------------------------------------------

fn write_raw(s: &str, out: &mut String) {
    out.push_str(&s.len().to_string());
    out.push(':');
    out.push_str(s);
}

/// Writes values, remembering the heap objects already written inline so
/// a later occurrence becomes a reference to the first.
struct Writer<'h> {
    heap: &'h Heap,
    out: String,
    /// Handles written inline, in order; `R<k>` names the `k`-th.
    inline: Vec<RtValue>,
}

impl Writer<'_> {
    fn value(&mut self, v: &RtValue) -> Result<(), String> {
        let out = &mut self.out;
        match v {
            RtValue::None => out.push('N'),
            RtValue::Int(i) => {
                out.push('I');
                out.push_str(&i.to_string());
            }
            RtValue::Float(f) => {
                out.push('F');
                out.push_str(&format!("{:016x}", f.to_bits()));
            }
            RtValue::Bool(b) => {
                out.push('B');
                out.push(if *b { '1' } else { '0' });
            }
            RtValue::Str(s) => {
                out.push('S');
                write_raw(s, out);
            }
            RtValue::List(items) => {
                out.push('L');
                out.push_str(&items.len().to_string());
                for item in items {
                    self.out.push(' ');
                    self.value(item)?;
                }
            }
            RtValue::Model(h) => {
                self.object(v, 'M', |heap| heap.models.get(*h).map(Mlp::to_text))?;
            }
            RtValue::Dataset(h) => {
                self.object(v, 'D', |heap| heap.datasets.get(*h).map(dataset_to_text))?;
            }
        }
        Ok(())
    }

    /// Heap object `v`: a reference when it was written already, else
    /// `tag` and its `text` inline.
    fn object(
        &mut self,
        v: &RtValue,
        tag: char,
        text: impl FnOnce(&Heap) -> Option<String>,
    ) -> Result<(), String> {
        if let Some(k) = self.inline.iter().position(|w| w == v) {
            self.out.push('R');
            self.out.push_str(&k.to_string());
            return Ok(());
        }
        let text = text(self.heap).ok_or_else(|| format!("dangling handle {v}"))?;
        self.out.push(tag);
        write_raw(&text, &mut self.out);
        self.inline.push(v.clone());
        Ok(())
    }
}

struct Cursor<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<char> {
        self.s[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Result<char, String> {
        let c = self.peek().ok_or("unexpected end of snapshot")?;
        self.pos += c.len_utf8();
        Ok(c)
    }

    fn skip_space(&mut self) {
        while self.peek() == Some(' ') {
            self.pos += 1;
        }
    }

    /// Read digits (and optional leading '-') until a non-digit.
    fn read_int(&mut self) -> Result<i64, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.s[start..self.pos]
            .parse()
            .map_err(|e| format!("bad int at {}: {e}", start))
    }

    /// Read `<len>:<raw bytes>`.
    fn read_raw(&mut self) -> Result<&'a str, String> {
        let len = self.read_int()? as usize;
        if self.bump()? != ':' {
            return Err("expected ':' in raw segment".to_string());
        }
        let end = self.pos + len;
        if end > self.s.len() {
            return Err("raw segment overruns snapshot".to_string());
        }
        let raw = &self.s[self.pos..end];
        self.pos = end;
        Ok(raw)
    }
}

/// A heap object read from a snapshot, before it has a slot.
enum Object {
    Model(Mlp),
    Dataset(Dataset),
}

/// Read one value. A heap object goes to `objects`, and the value holds
/// its index there in place of a handle; `R<k>` is the `k`-th.
fn read_value(c: &mut Cursor<'_>, objects: &mut Vec<Object>) -> Result<RtValue, String> {
    c.skip_space();
    match c.bump()? {
        'N' => Ok(RtValue::None),
        'I' => Ok(RtValue::Int(c.read_int()?)),
        'F' => {
            let end = c.pos + 16;
            if end > c.s.len() {
                return Err("truncated float".to_string());
            }
            let bits = u64::from_str_radix(&c.s[c.pos..end], 16)
                .map_err(|e| format!("float bits: {e}"))?;
            c.pos = end;
            Ok(RtValue::Float(f64::from_bits(bits)))
        }
        'B' => Ok(RtValue::Bool(c.bump()? == '1')),
        'S' => Ok(RtValue::Str(c.read_raw()?.to_string())),
        'L' => {
            let n = c.read_int()?;
            let mut items = Vec::new();
            for _ in 0..n.max(0) {
                items.push(read_value(c, objects)?);
            }
            Ok(RtValue::List(items))
        }
        'M' => {
            objects.push(Object::Model(Mlp::from_text(c.read_raw()?)?));
            Ok(RtValue::Model(objects.len() - 1))
        }
        'D' => {
            objects.push(Object::Dataset(dataset_from_text(c.read_raw()?)?));
            Ok(RtValue::Dataset(objects.len() - 1))
        }
        'R' => {
            let k = c.read_int()?;
            match usize::try_from(k)
                .ok()
                .and_then(|k| Some((k, objects.get(k)?)))
            {
                Some((k, Object::Model(_))) => Ok(RtValue::Model(k)),
                Some((k, Object::Dataset(_))) => Ok(RtValue::Dataset(k)),
                None => Err(format!("reference to heap object {k}, not yet written")),
            }
        }
        other => Err(format!("unknown value tag {other:?}")),
    }
}

/// `v` with each heap handle `k` replaced by `to[k]`.
fn relocate(v: RtValue, to: &[usize]) -> RtValue {
    match v {
        RtValue::Model(k) => RtValue::Model(to[k]),
        RtValue::Dataset(k) => RtValue::Dataset(to[k]),
        RtValue::List(items) => RtValue::List(items.into_iter().map(|v| relocate(v, to)).collect()),
        v => v,
    }
}

/// Every heap handle `v` holds, itself or in a list.
fn handles(v: &RtValue, out: &mut Vec<RtValue>) {
    match v {
        RtValue::Model(_) | RtValue::Dataset(_) => out.push(v.clone()),
        RtValue::List(items) => items.iter().for_each(|v| handles(v, out)),
        _ => {}
    }
}

/// Where read value `read` holds object `k` and `live` holds a handle of
/// the same kind at the same position, `(k, that handle, trusted)`.
fn reaches(read: &RtValue, live: &RtValue, trusted: bool, out: &mut Vec<(usize, RtValue, bool)>) {
    match (read, live) {
        (RtValue::Model(k), RtValue::Model(_)) | (RtValue::Dataset(k), RtValue::Dataset(_)) => {
            out.push((*k, live.clone(), trusted));
        }
        (RtValue::List(read), RtValue::List(live)) => {
            for (r, l) in read.iter().zip(live) {
                reaches(r, l, trusted, out);
            }
        }
        _ => {}
    }
}

/// Serialize the bindings of `env` that `keep` selects, and every binding
/// sharing a heap object with one of them, so a restore knows what
/// aliases what, with the heap objects they reach, in name order (so the
/// text is deterministic).
pub fn snapshot_state(
    env: &BTreeMap<String, RtValue>,
    heap: &Heap,
    keep: impl Fn(&str, &RtValue) -> bool,
) -> Result<String, String> {
    let mut reached = Vec::new();
    for (name, v) in env {
        if keep(name, v) {
            handles(v, &mut reached);
        }
    }
    let shares = |v: &RtValue| {
        let mut held = Vec::new();
        handles(v, &mut held);
        held.iter().any(|h| reached.contains(h))
    };
    let kept: Vec<(&String, &RtValue)> = env
        .iter()
        .filter(|(n, v)| keep(n, v) || shares(v))
        .collect();
    let mut w = Writer {
        heap,
        out: format!("SNAP1 {}", kept.len()),
        inline: Vec::new(),
    };
    for (name, value) in kept {
        w.out.push(' ');
        write_raw(name, &mut w.out);
        w.out.push(' ');
        w.value(value)?;
    }
    Ok(w.out)
}

/// Store `object` over `slots[at]` when that slot exists, else in a new
/// slot; returns the slot.
fn put<T>(slots: &mut Vec<T>, object: T, at: Option<usize>) -> usize {
    match at {
        Some(h) if h < slots.len() => {
            slots[h] = object;
            h
        }
        _ => {
            slots.push(object);
            slots.len() - 1
        }
    }
}

/// Install a snapshot over `env` and `heap`. Each binding it holds
/// replaces the live one; every other binding stays. Each heap object is
/// written in place, into a slot a binding reaching it holds now (at the
/// same position, inside a list), so every alias sees it and repeated
/// restores do not grow the heap. The slot is, in order of preference:
///
/// * one a binding holds that `rebound(name)` does not name — such a
///   binding still holds the object it held before the loop, so every
///   binding sharing that slot shares this object;
/// * one no binding outside the snapshot holds, whose old object the
///   restore leaves unreachable — a binding the loop body assigns may no
///   longer share the object it shared before the loop, which must stay
///   as it is;
/// * a new slot.
///
/// No slot takes two objects. On error nothing is installed.
pub(crate) fn restore_over(
    snapshot: &str,
    env: &mut BTreeMap<String, RtValue>,
    heap: &mut Heap,
    rebound: impl Fn(&str) -> bool,
) -> Result<(), String> {
    let rest = snapshot
        .strip_prefix("SNAP1 ")
        .ok_or("bad snapshot header")?;
    let mut c = Cursor { s: rest, pos: 0 };
    let (mut read, mut objects) = (Vec::new(), Vec::new());
    for _ in 0..c.read_int()? {
        c.skip_space();
        let name = c.read_raw()?.to_string();
        let value = read_value(&mut c, &mut objects)?;
        read.push((name, value));
    }

    let (mut reach, mut outside) = (Vec::new(), Vec::new());
    for (name, v) in &read {
        if let Some(live) = env.get(name) {
            reaches(v, live, !rebound(name), &mut reach);
        }
    }
    for (name, v) in env.iter() {
        if !read.iter().any(|(n, _)| n == name) {
            handles(v, &mut outside);
        }
    }
    let mut slot: Vec<Option<RtValue>> = vec![None; objects.len()];
    for trusted_only in [true, false] {
        for (k, h, trusted) in &reach {
            let usable = if trusted_only {
                *trusted
            } else {
                !outside.contains(h)
            };
            if usable && slot[*k].is_none() && !slot.contains(&Some(h.clone())) {
                slot[*k] = Some(h.clone());
            }
        }
    }

    let to: Vec<usize> = objects
        .into_iter()
        .zip(slot)
        .map(|(object, at)| match (object, at) {
            (Object::Model(m), Some(RtValue::Model(h))) => put(&mut heap.models, m, Some(h)),
            (Object::Model(m), _) => put(&mut heap.models, m, None),
            (Object::Dataset(d), Some(RtValue::Dataset(h))) => put(&mut heap.datasets, d, Some(h)),
            (Object::Dataset(d), _) => put(&mut heap.datasets, d, None),
        })
        .collect();
    for (name, v) in read {
        env.insert(name, relocate(v, &to));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, Directive, FlorRuntime, Interpreter, LoopFrame};
    use flor_ml::gaussian_blobs;

    fn whole(env: &BTreeMap<String, RtValue>, heap: &Heap) -> Result<String, String> {
        snapshot_state(env, heap, |_, _| true)
    }

    fn restore_state(snapshot: &str) -> Result<(BTreeMap<String, RtValue>, Heap), String> {
        let (mut env, mut heap) = (BTreeMap::new(), Heap::default());
        restore_over(snapshot, &mut env, &mut heap, |_| false)?;
        Ok((env, heap))
    }

    fn round_trip(env: BTreeMap<String, RtValue>, heap: Heap) {
        let snap = whole(&env, &heap).unwrap();
        let (env2, heap2) = restore_state(&snap).unwrap();
        assert_eq!(env.len(), env2.len());
        for (name, v) in &env {
            let v2 = &env2[name];
            match (v, v2) {
                (RtValue::Model(a), RtValue::Model(b)) => {
                    assert_eq!(heap.models[*a], heap2.models[*b]);
                }
                (RtValue::Dataset(a), RtValue::Dataset(b)) => {
                    let (da, db) = (&heap.datasets[*a], &heap2.datasets[*b]);
                    assert_eq!(da.x, db.x);
                    assert_eq!(da.y, db.y);
                }
                _ => assert_eq!(v, v2),
            }
        }
    }

    #[test]
    fn scalars_round_trip() {
        let mut env = BTreeMap::new();
        env.insert("n".into(), RtValue::None);
        env.insert("i".into(), RtValue::Int(-42));
        env.insert("f".into(), RtValue::Float(0.1 + 0.2));
        env.insert("b".into(), RtValue::Bool(true));
        env.insert("s".into(), RtValue::Str("spaces and\nnewlines: 7:".into()));
        round_trip(env, Heap::default());
    }

    #[test]
    fn nested_lists_round_trip() {
        let mut env = BTreeMap::new();
        env.insert(
            "l".into(),
            RtValue::List(vec![
                RtValue::Int(1),
                RtValue::List(vec![RtValue::Str("x".into()), RtValue::None]),
                RtValue::Float(2.5),
            ]),
        );
        round_trip(env, Heap::default());
    }

    #[test]
    fn heap_objects_round_trip() {
        let mut heap = Heap::default();
        let mut m = Mlp::new(3, 4, 2, 7);
        let ds = gaussian_blobs(20, 3, 2, 2.0, 3);
        m.train_step(&ds, 0.1);
        let mh = heap.alloc_model(m);
        let dh = heap.alloc_dataset(ds);
        let mut env = BTreeMap::new();
        env.insert("net".into(), RtValue::Model(mh));
        env.insert("data".into(), RtValue::Dataset(dh));
        round_trip(env, heap);
    }

    #[test]
    fn nan_float_snapshot() {
        let mut env = BTreeMap::new();
        env.insert("x".into(), RtValue::Float(f64::NAN));
        let snap = whole(&env, &Heap::default()).unwrap();
        let (env2, _) = restore_state(&snap).unwrap();
        match env2["x"] {
            RtValue::Float(f) => assert!(f.is_nan()),
            _ => panic!(),
        }
    }

    #[test]
    fn dataset_text_round_trip() {
        let ds = gaussian_blobs(10, 2, 3, 1.0, 5);
        let back = dataset_from_text(&dataset_to_text(&ds)).unwrap();
        assert_eq!(ds.x, back.x);
        assert_eq!(ds.y, back.y);
        assert_eq!(ds.n_classes, back.n_classes);
    }

    #[test]
    fn dangling_handle_errors() {
        let mut env = BTreeMap::new();
        env.insert("m".into(), RtValue::Model(99));
        assert!(whole(&env, &Heap::default()).is_err());
    }

    #[test]
    fn malformed_snapshots_rejected() {
        assert!(restore_state("garbage").is_err());
        assert!(restore_state("SNAP1 1 3:abc").is_err()); // missing value
        assert!(restore_state("SNAP1 1 3:abc Z").is_err()); // bad tag
        assert!(restore_state("SNAP1 1 99:abc I1").is_err()); // raw overrun
        assert!(restore_state("SNAP1 1 1:a R0").is_err()); // nothing to refer to
        assert!(restore_state("SNAP1 1 1:a R-1").is_err());
    }

    /// Two models; `net` and `alias` share the first.
    fn aliased() -> (BTreeMap<String, RtValue>, Heap) {
        let mut heap = Heap::default();
        let net = heap.alloc_model(Mlp::new(3, 4, 2, 7));
        let other = heap.alloc_model(Mlp::new(3, 4, 2, 8));
        let env = BTreeMap::from([
            ("alias".to_string(), RtValue::Model(net)),
            ("net".to_string(), RtValue::Model(net)),
            ("k".to_string(), RtValue::Int(2)),
            (
                "pair".to_string(),
                RtValue::List(vec![RtValue::Model(other)]),
            ),
        ]);
        (env, heap)
    }

    #[test]
    fn shared_heap_objects_are_written_once_and_restore_shared() {
        let (env, heap) = aliased();
        let snap = whole(&env, &heap).unwrap();
        assert_eq!(snap.matches(" M").count(), 2, "{snap}");
        assert!(snap.contains("3:net R0"), "{snap}");
        let (env2, heap2) = restore_state(&snap).unwrap();
        assert_eq!(env2["alias"], env2["net"]);
        assert_eq!(heap2.models.len(), 2);
        assert_eq!(whole(&env2, &heap2).unwrap(), snap);
    }

    #[test]
    fn a_partial_snapshot_overlays_the_live_state_in_place() {
        let (mut env, mut heap) = aliased();
        let mut trained = heap.models[0].clone();
        trained.train_step(&gaussian_blobs(20, 3, 2, 2.0, 3), 0.1);
        let mut later = Heap::default();
        let h = later.alloc_model(trained.clone());
        let later_env = BTreeMap::from([("net".to_string(), RtValue::Model(h))]);
        let snap = snapshot_state(&later_env, &later, |n, _| n == "net").unwrap();

        let before = env.clone();
        restore_over(&snap, &mut env, &mut heap, |_| false).unwrap();
        // Every binding keeps its slot; the shared one now holds the
        // restored model, so the alias sees it; nothing was allocated.
        assert_eq!(env, before);
        assert_eq!(heap.models.len(), 2);
        assert_eq!(heap.models[0], trained);

        // A binding the loop rebinds may no longer share its old slot:
        // its object gets a slot of its own and the alias keeps the old one.
        let (mut env, mut heap) = aliased();
        let untouched = heap.models[0].clone();
        restore_over(&snap, &mut env, &mut heap, |n| n == "net").unwrap();
        assert_eq!(env["net"], RtValue::Model(2));
        assert_eq!(env["alias"], RtValue::Model(0));
        assert_eq!((&heap.models[0], &heap.models[2]), (&untouched, &trained));
    }

    #[test]
    fn an_object_takes_the_slot_of_a_binding_the_loop_does_not_rebind() {
        // At the boundary `model`, which the loop rebinds, and `net` share
        // the trained model, and the text meets it under `model` first.
        // `alias`, outside the snapshot, shares `net`'s slot: it must see
        // the trained model.
        let (mut env, mut heap) = aliased();
        let mut trained = heap.models[0].clone();
        trained.train_step(&gaussian_blobs(20, 3, 2, 2.0, 3), 0.1);
        let mut later = Heap::default();
        let h = RtValue::Model(later.alloc_model(trained.clone()));
        let later_env = BTreeMap::from([("model".to_string(), h.clone()), ("net".to_string(), h)]);
        // Keeping `model` writes `net` too, since it shares the object.
        let snap = snapshot_state(&later_env, &later, |n, _| n == "model").unwrap();
        assert!(snap.starts_with("SNAP1 2 5:model M"), "{snap}");
        assert!(snap.ends_with(" 3:net R0"), "{snap}");

        restore_over(&snap, &mut env, &mut heap, |n| n == "model").unwrap();
        let slot = RtValue::Model(0);
        assert_eq!([&env["model"], &env["net"], &env["alias"]], [&slot; 3]);
        assert_eq!(heap.models.len(), 2);
        assert_eq!(heap.models[0], trained);
    }

    /// The ledger's training script in small, and its checkpoint at the
    /// end of iteration 1 as written before checkpoints held only the
    /// loop's write set: every binding, each heap object inline. Durable
    /// histories hold checkpoints like it.
    const FROZEN_SRC: &str = "let data = load_dataset(\"first_page\", 8, 1);\nlet epochs = flor.arg(\"epochs\", 3);\nlet net = make_model(5, 2, 2, 2);\nwith flor.checkpointing(net) {\n    for e in flor.loop(\"epoch\", range(0, epochs)) {\n        let loss = train_step(net, data, 0.3);\n        flor.log(\"loss\", loss);\n    }\n}\n";
    const FROZEN_SNAP1: &str =
        "SNAP1 5 4:data D701:2;0,0,1,0,1,0,0,0;8 5 3fabf66889908500 3ff0000000000000 \
        3fee264a63ac5b74 3fd04b5657509632 3ff0000000000000 3fc21f3a09d864aa \
        3ff0000000000000 3feb997dfc321c1c 3f45bd13c05b2700 3ff0000000000000 \
        3fdcd9889a6ed783 0000000000000000 3fd046d398986b67 3fdf8acb0ad6386e \
        3fe802a3e6fec616 3fb5758b98a421a4 3ff0000000000000 3fe9cfc7e1cdb4b3 \
        3fcffb4dc712f272 3fe48656536006b3 3fdf320ad454039f 0000000000000000 \
        3fcfa6b9bf160e58 3fe607915c5a7eab 3fe8bdc8f60a1b39 3fc1cd8d21f84414 \
        3ff0000000000000 3fea406d2218778f 3fca8fc8c6c1f309 3ff0000000000000 \
        3fcd3677da34badc 3ff0000000000000 3fe89849dbb651d2 3fc0e4148f743b93 \
        3ff0000000000000 3fab65aa662a1e00 3ff0000000000000 3febe9a85c81ef9e \
        3fd3af5b038ce4e4 3fe7efeaecb0b061 1:e I1 6:epochs I3 4:loss F3fe5d10124b6e266 3:net \
        M345:mlp 5 2 2 2\nW1 5 2 bfe81a539d891376 3fdab79add338c9f bfe2b9dbd9a29ee0 \
        3fd4579a1312b6a8 3fd57e1571a41491 bfe32588b2163736 3fd0183fd1d99228 \
        bfe0ca5c08f4f3cb 3fc65f44b012b7cb 3fd7153845baf955\nB1 1 2 bfa2189764fec4df \
        bfba8eb8f45d23a1\nW2 2 2 3fe32f8b589ac19b bfd68755c0f1e9e6 3fe037785b6c3911 \
        3ff105f7ee08e55e\nB2 1 2 3fc42cdc01ce367a bfc42cdc01ce367b";

    /// Logs `(name, outer iteration, value)`; resumes the tail of
    /// iteration `at` from `snapshot`, skipping before and stopping after,
    /// when it has one, and runs every iteration when not.
    #[derive(Default)]
    struct Logs<'s> {
        resume: Option<(usize, &'s str, usize)>,
        logs: Vec<(String, usize, String)>,
    }

    impl FlorRuntime for Logs<'_> {
        fn plan(&mut self, _loop_name: &str, i: usize) -> Directive<'_> {
            match self.resume {
                None => Directive::Run,
                Some((at, _, _)) if i < at => Directive::Skip,
                Some((at, snapshot, tail)) if i == at => Directive::ResumeTail { snapshot, tail },
                Some(_) => Directive::Stop,
            }
        }
        fn log(&mut self, name: &str, value: &RtValue, loops: &[LoopFrame]) {
            let i = loops.first().map_or(usize::MAX, |f| f.iteration);
            self.logs.push((name.to_string(), i, value.display_text()));
        }
    }

    #[test]
    fn whole_state_checkpoints_from_earlier_builds_still_restore() {
        let mut fresh = Interpreter::new();
        fresh.restore(FROZEN_SNAP1).unwrap();
        let names: Vec<&str> = fresh.env.keys().map(String::as_str).collect();
        assert_eq!(names, ["data", "e", "epochs", "loss", "net"]);
        // Read exactly: written back whole, it is the same bytes.
        assert_eq!(fresh.snapshot().unwrap(), FROZEN_SNAP1);

        // Resuming a tail from it gives what a foresight run logs there.
        let src = FROZEN_SRC.replace(
            "flor.log(\"loss\", loss);\n",
            "flor.log(\"loss\", loss);\n        let m = eval_model(net, data);\n        flor.log(\"acc\", m[0]);\n",
        );
        let prog = parse(&src).unwrap();
        let mut foresight = Logs::default();
        Interpreter::new().run(&prog, &mut foresight).unwrap();
        let mut resumed = Logs {
            resume: Some((1, FROZEN_SNAP1, 2)),
            ..Logs::default()
        };
        Interpreter::new().run(&prog, &mut resumed).unwrap();
        let at_1 = |logs: &[(String, usize, String)]| -> Vec<(String, usize, String)> {
            logs.iter().filter(|l| l.1 == 1).cloned().collect()
        };
        assert_eq!(resumed.logs, at_1(&foresight.logs)[1..]);
        assert_eq!(
            format!("{}", fresh.env["loss"]),
            at_1(&foresight.logs)[0].2,
            "the loss logged in iteration 1"
        );
    }

    #[test]
    fn truthiness() {
        assert!(!RtValue::None.truthy());
        assert!(!RtValue::Int(0).truthy());
        assert!(RtValue::Int(1).truthy());
        assert!(!RtValue::Str(String::new()).truthy());
        assert!(RtValue::List(vec![RtValue::None]).truthy());
        assert!(!RtValue::List(vec![]).truthy());
    }

    #[test]
    fn display_text_forms() {
        assert_eq!(RtValue::Float(2.0).display_text(), "2.0");
        assert_eq!(
            RtValue::List(vec![RtValue::Int(1), RtValue::Str("a".into())]).display_text(),
            "[1, a]"
        );
        assert_eq!(RtValue::Model(3).display_text(), "<model#3>");
    }
}
