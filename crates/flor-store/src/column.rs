//! Columnar segment storage: typed column vectors, dictionary-encoded
//! strings, selection bitmaps, and vectorized predicate evaluation.
//!
//! Sealed segments hold one [`Column`] per schema column instead of
//! `Vec<Vec<Value>>` rows. A column is stored as a typed primitive
//! vector (`Vec<i64>`, `Vec<f64>`, `Vec<bool>`) when every non-null
//! cell is the same [`Value`] variant, as a [`DictColumn`]
//! (per-segment dictionary + `u32` codes) for string columns, or as a
//! fallback `Vec<Value>` when the column is type-mixed. Null positions
//! in typed columns are tracked by a side [`Bitmap`] and hold a
//! placeholder in the primitive vector.
//!
//! Predicate evaluation ([`Column::eval`]) runs tight loops over the
//! primitive slices and produces a selection [`Bitmap`]; per-cell
//! [`Value`] materialization is deferred until the final projection
//! ([`Column::extend_selected`]). The comparison semantics match
//! `Value`'s total order exactly — notably floats compare via
//! `total_cmp` (so `NaN == NaN`), and cross-type comparisons follow
//! the `Null < (Bool|Int|Float) < Str` type ranking — which is what
//! keeps columnar scans byte-identical to the row-major oracle.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use flor_df::Value;

use crate::query::CmpOp;

// ---------------------------------------------------------------------------
// Bitmap
// ---------------------------------------------------------------------------

/// A fixed-length bitmap used for null tracking and scan selections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An all-zero bitmap of `len` bits.
    pub fn zeroes(len: usize) -> Self {
        Bitmap {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// A bitmap of `len` bits with exactly `[lo, hi)` set.
    pub fn ones_in_range(len: usize, lo: usize, hi: usize) -> Self {
        let mut b = Bitmap::zeroes(len);
        b.set_range(lo, hi);
        b
    }

    /// Set bit `i`.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Read bit `i`.
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Set every bit in `[lo, hi)`.
    pub fn set_range(&mut self, lo: usize, hi: usize) {
        Self::for_word_span(lo, hi, |w, mask| self.words[w] |= mask);
    }

    /// Call `f(word_index, mask)` for each word overlapping `[lo, hi)`,
    /// where `mask` has exactly the bits of that word inside the range.
    fn for_word_span(lo: usize, hi: usize, mut f: impl FnMut(usize, u64)) {
        if lo >= hi {
            return;
        }
        let (w0, w1) = (lo / 64, (hi - 1) / 64);
        for w in w0..=w1 {
            let from = if w == w0 { lo % 64 } else { 0 };
            let to = if w == w1 { (hi - 1) % 64 + 1 } else { 64 };
            let mask = if to == 64 {
                u64::MAX << from
            } else {
                (u64::MAX << from) & (u64::MAX >> (64 - to))
            };
            f(w, mask);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `self &= other`.
    pub fn and_assign(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self &= !other`.
    pub fn and_not_assign(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// `self |= other & mask([lo, hi))` — OR in another bitmap's bits,
    /// restricted to the `[lo, hi)` window.
    pub fn or_range(&mut self, other: &Bitmap, lo: usize, hi: usize) {
        debug_assert_eq!(self.len, other.len);
        Self::for_word_span(lo, hi, |w, mask| self.words[w] |= other.words[w] & mask);
    }

    /// Clear every set bit `i` for which `keep(i)` is false.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (wi, word) in self.words.iter_mut().enumerate() {
            let mut w = *word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                if !keep(wi * 64 + bit) {
                    *word &= !(1u64 << bit);
                }
                w &= w - 1;
            }
        }
    }

    /// Whether so few of `[lo, hi)` are set that testing those rows one
    /// by one beats a typed loop over the whole range (after a selective
    /// predicate, typically): a per-row test materialises a [`Value`],
    /// which costs about this many loop iterations.
    fn is_sparse_in(&self, lo: usize, hi: usize) -> bool {
        const ROW_TEST_COST: usize = 16;
        self.count_ones() * ROW_TEST_COST < hi.saturating_sub(lo)
    }

    /// Invoke `f(i)` for each set bit `i`, in ascending order.
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                f(wi * 64 + bit);
                w &= w - 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Column storage
// ---------------------------------------------------------------------------

/// Dictionary-encoded string column: a per-segment dictionary of
/// distinct strings in first-appearance order plus one `u32` code per
/// row. Null rows carry code 0 as a placeholder (masked by the null
/// bitmap); the dictionary is guaranteed non-empty whenever this
/// representation is chosen.
#[derive(Debug, Clone)]
pub(crate) struct DictColumn {
    pub dict: Vec<Arc<str>>,
    pub codes: Vec<u32>,
}

/// The typed backing store for one column.
#[derive(Debug, Clone)]
pub(crate) enum ColumnData {
    /// All non-null cells are `Value::Int`.
    Int(Vec<i64>),
    /// All non-null cells are `Value::Float`.
    Float(Vec<f64>),
    /// All non-null cells are `Value::Bool`.
    Bool(Vec<bool>),
    /// All non-null cells are `Value::Str` — dictionary encoded.
    Str(DictColumn),
    /// Type-mixed column: cells stored as-is (including nulls inline).
    Any(Vec<Value>),
}

/// One sealed-segment column: typed data plus an optional null bitmap.
///
/// Typed variants hold a placeholder (`0` / `0.0` / `false` / code 0)
/// at null positions; `nulls` is `None` when the column has no nulls.
/// The `Any` variant stores `Value::Null` inline and never has a
/// bitmap.
#[derive(Debug, Clone)]
pub(crate) struct Column {
    pub data: ColumnData,
    pub nulls: Option<Bitmap>,
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(d) => d.codes.len(),
            ColumnData::Any(v) => v.len(),
        }
    }

    fn is_null(&self, i: usize) -> bool {
        self.nulls.as_ref().is_some_and(|n| n.get(i))
    }

    /// Materialize the cell at row `i` as an owned [`Value`].
    pub fn value_at(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Str(d) => Value::Str(Arc::clone(&d.dict[d.codes[i] as usize])),
            ColumnData::Any(v) => v[i].clone(),
        }
    }

    /// Append every cell to `out` in row order.
    pub fn extend_all(&self, out: &mut Vec<Value>) {
        match (&self.data, &self.nulls) {
            (ColumnData::Int(v), None) => out.extend(v.iter().map(|&x| Value::Int(x))),
            (ColumnData::Float(v), None) => out.extend(v.iter().map(|&x| Value::Float(x))),
            (ColumnData::Bool(v), None) => out.extend(v.iter().map(|&x| Value::Bool(x))),
            (ColumnData::Str(d), None) => out.extend(
                d.codes
                    .iter()
                    .map(|&c| Value::Str(Arc::clone(&d.dict[c as usize]))),
            ),
            (ColumnData::Any(v), _) => out.extend(v.iter().cloned()),
            _ => {
                for i in 0..self.len() {
                    out.push(self.value_at(i));
                }
            }
        }
    }

    /// Append the cells at selected rows to `out`.
    pub fn extend_selected(&self, sel: &Bitmap, out: &mut Vec<Value>) {
        sel.for_each_set(|i| out.push(self.value_at(i)));
    }

    /// AND the rows matching `op` against `lit` into `out`.
    ///
    /// Semantics are identical to evaluating `CmpOp::eval` on the
    /// materialized `Value` of every row: typed fast paths below
    /// reproduce `Value`'s total order (floats via `total_cmp`,
    /// cross-type via type rank) and then patch null positions with
    /// the constant verdict of `Null <op> lit`.
    pub fn eval(&self, op: CmpOp, lit: &Value, lo: usize, hi: usize, out: &mut Bitmap) {
        if out.is_sparse_in(lo, hi) {
            return out.retain(|i| (lo..hi).contains(&i) && op.eval(&self.value_at(i), lit));
        }
        let mut sel = Bitmap::zeroes(self.len());
        match &self.data {
            ColumnData::Any(vals) => {
                for (i, v) in vals.iter().enumerate().take(hi).skip(lo) {
                    if op.eval(v, lit) {
                        sel.set(i);
                    }
                }
                out.and_assign(&sel);
                return;
            }
            ColumnData::Int(vals) => match numeric_lit(lit) {
                Some(NumLit::Int(b)) => {
                    fill_cmp(vals, lo, hi, &mut sel, |v| op_accepts(op, v.cmp(&b)))
                }
                Some(NumLit::Float(b)) => fill_cmp(vals, lo, hi, &mut sel, |v| {
                    op_accepts(op, (v as f64).total_cmp(&b))
                }),
                None => const_verdict(lit, op, lo, hi, &mut sel),
            },
            ColumnData::Float(vals) => match numeric_lit(lit) {
                Some(lit_f) => {
                    let b = match lit_f {
                        NumLit::Int(i) => i as f64,
                        NumLit::Float(f) => f,
                    };
                    fill_cmp(vals, lo, hi, &mut sel, |v| op_accepts(op, v.total_cmp(&b)));
                }
                None => const_verdict(lit, op, lo, hi, &mut sel),
            },
            ColumnData::Bool(vals) => match numeric_lit(lit) {
                Some(NumLit::Int(b)) => fill_cmp(vals, lo, hi, &mut sel, |v| {
                    op_accepts(op, (v as i64).cmp(&b))
                }),
                Some(NumLit::Float(b)) => fill_cmp(vals, lo, hi, &mut sel, |v| {
                    op_accepts(op, ((v as i64) as f64).total_cmp(&b))
                }),
                None => const_verdict(lit, op, lo, hi, &mut sel),
            },
            ColumnData::Str(d) => {
                if let Value::Str(s) = lit {
                    // Precompute the verdict per dictionary entry, then
                    // evaluate rows by code — equality compares codes.
                    let verdicts: Vec<bool> = d
                        .dict
                        .iter()
                        .map(|e| op_accepts(op, e.as_ref().cmp(s.as_ref())))
                        .collect();
                    for (i, &c) in d.codes.iter().enumerate().take(hi).skip(lo) {
                        if verdicts[c as usize] {
                            sel.set(i);
                        }
                    }
                } else {
                    // Str ranks above every non-Str value.
                    const_rank(op, Ordering::Greater, lo, hi, &mut sel);
                }
            }
        }
        // Typed columns hold placeholders at null positions: overwrite
        // those bits with the constant verdict of `Null <op> lit`.
        if let Some(nulls) = &self.nulls {
            if op.eval(&Value::Null, lit) {
                sel.or_range(nulls, lo, hi);
            } else {
                sel.and_not_assign(nulls);
            }
        }
        out.and_assign(&sel);
    }

    /// AND the rows equal to any of `values` into `out`.
    pub fn eval_in(&self, values: &[Value], lo: usize, hi: usize, out: &mut Bitmap) {
        if out.is_sparse_in(lo, hi) {
            return out.retain(|i| (lo..hi).contains(&i) && values.contains(&self.value_at(i)));
        }
        let mut any = Bitmap::zeroes(self.len());
        for v in values {
            let mut one = Bitmap::ones_in_range(self.len(), lo, hi);
            self.eval(CmpOp::Eq, v, lo, hi, &mut one);
            any.or_range(&one, lo, hi);
        }
        out.and_assign(&any);
    }

    /// Min and max cell values under `Value`'s total order, preserving
    /// first-appearance ties (strict `<` / `>` updates) to match the
    /// row-major zone-map construction exactly.
    pub fn min_max(&self) -> Option<(Value, Value)> {
        let n = self.len();
        if n == 0 {
            return None;
        }
        if let (ColumnData::Int(vals), None) = (&self.data, &self.nulls) {
            let mut lo = vals[0];
            let mut hi = vals[0];
            for &v in &vals[1..] {
                if v < lo {
                    lo = v;
                } else if v > hi {
                    hi = v;
                }
            }
            return Some((Value::Int(lo), Value::Int(hi)));
        }
        let mut lo = self.value_at(0);
        let mut hi = lo.clone();
        for i in 1..n {
            let v = self.value_at(i);
            if v < lo {
                lo = v;
            } else if v > hi {
                hi = v;
            }
        }
        Some((lo, hi))
    }

    /// Whether the column is non-decreasing under `Value`'s order.
    pub fn is_non_decreasing(&self) -> bool {
        if let (ColumnData::Int(vals), None) = (&self.data, &self.nulls) {
            return vals.windows(2).all(|w| w[0] <= w[1]);
        }
        (1..self.len()).all(|i| self.value_at(i - 1) <= self.value_at(i))
    }

    /// First row index whose value is `>= v` (column must be sorted).
    pub fn lower_bound(&self, v: &Value) -> usize {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.value_at(mid) < *v {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// First row index whose value is `> v` (column must be sorted).
    pub fn upper_bound(&self, v: &Value) -> usize {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.value_at(mid) <= *v {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Approximate resident heap bytes of this column.
    pub fn mem_bytes(&self) -> usize {
        let data = match &self.data {
            ColumnData::Int(v) => v.len() * 8,
            ColumnData::Float(v) => v.len() * 8,
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(d) => {
                d.codes.len() * 4
                    + d.dict
                        .iter()
                        .map(|s| s.len() + std::mem::size_of::<Arc<str>>())
                        .sum::<usize>()
            }
            ColumnData::Any(v) => {
                v.len() * std::mem::size_of::<Value>()
                    + v.iter()
                        .map(|c| match c {
                            Value::Str(s) => s.len(),
                            _ => 0,
                        })
                        .sum::<usize>()
            }
        };
        let nulls = self.nulls.as_ref().map_or(0, |b| b.words.len() * 8);
        data + nulls
    }
}

// ---------------------------------------------------------------------------
// Predicate evaluation helpers
// ---------------------------------------------------------------------------

/// Does `op` accept an operand pair whose comparison is `ord`?
fn op_accepts(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// Numeric interpretation of a literal for comparison against a
/// numeric column, mirroring `Value`'s cross-type arms (`Bool`
/// compares as its integer value).
enum NumLit {
    Int(i64),
    Float(f64),
}

fn numeric_lit(lit: &Value) -> Option<NumLit> {
    match lit {
        Value::Int(i) => Some(NumLit::Int(*i)),
        Value::Bool(b) => Some(NumLit::Int(*b as i64)),
        Value::Float(f) => Some(NumLit::Float(*f)),
        _ => None,
    }
}

/// Set `sel[i]` for each `i` in `[lo, hi)` where `pred(vals[i])`.
fn fill_cmp<T: Copy>(vals: &[T], lo: usize, hi: usize, sel: &mut Bitmap, pred: impl Fn(T) -> bool) {
    for (i, &v) in vals.iter().enumerate().take(hi).skip(lo) {
        if pred(v) {
            sel.set(i);
        }
    }
}

/// Constant verdict for a whole typed column compared against a
/// literal of a different type rank: every non-null cell yields the
/// same ordering, so the range is either all-set or left clear.
fn const_verdict(lit: &Value, op: CmpOp, lo: usize, hi: usize, sel: &mut Bitmap) {
    // Numeric columns vs non-numeric literal: Null ranks below and Str
    // ranks above every number.
    let ord = match lit {
        Value::Null => Ordering::Greater,
        _ => Ordering::Less,
    };
    const_rank(op, ord, lo, hi, sel);
}

fn const_rank(op: CmpOp, ord: Ordering, lo: usize, hi: usize, sel: &mut Bitmap) {
    if op_accepts(op, ord) {
        sel.set_range(lo, hi);
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Incremental column builder used at seal time: adaptively promotes
/// to a typed representation and degrades to `Any` on the first
/// type-mixed cell.
pub(crate) struct ColumnBuilder {
    len: usize,
    nulls: Vec<u32>,
    data: BuilderData,
}

enum BuilderData {
    /// No non-null cell seen yet.
    Empty,
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    Str {
        map: HashMap<Arc<str>, u32>,
        dict: Vec<Arc<str>>,
        codes: Vec<u32>,
    },
    Any(Vec<Value>),
}

impl ColumnBuilder {
    pub fn new() -> Self {
        ColumnBuilder {
            len: 0,
            nulls: Vec::new(),
            data: BuilderData::Empty,
        }
    }

    pub fn push(&mut self, v: &Value) {
        let i = self.len;
        self.len += 1;
        match (&mut self.data, v) {
            (BuilderData::Any(vals), _) => vals.push(v.clone()),
            (_, Value::Null) => {
                self.nulls.push(i as u32);
                match &mut self.data {
                    BuilderData::Empty => {}
                    BuilderData::Int(vals) => vals.push(0),
                    BuilderData::Float(vals) => vals.push(0.0),
                    BuilderData::Bool(vals) => vals.push(false),
                    BuilderData::Str { codes, .. } => codes.push(0),
                    // audit: allow(panic) — the `(Any, _)` arm above
                    // already consumed every Any case.
                    BuilderData::Any(_) => unreachable!(),
                }
            }
            (BuilderData::Empty, _) => {
                // First non-null cell: promote, backfilling the `i`
                // null placeholders seen so far.
                self.data = match v {
                    Value::Int(x) => {
                        let mut vals = vec![0i64; i];
                        vals.push(*x);
                        BuilderData::Int(vals)
                    }
                    Value::Float(x) => {
                        let mut vals = vec![0.0f64; i];
                        vals.push(*x);
                        BuilderData::Float(vals)
                    }
                    Value::Bool(x) => {
                        let mut vals = vec![false; i];
                        vals.push(*x);
                        BuilderData::Bool(vals)
                    }
                    Value::Str(s) => {
                        let mut map = HashMap::new();
                        map.insert(Arc::clone(s), 0u32);
                        let mut codes = vec![0u32; i];
                        codes.push(0);
                        BuilderData::Str {
                            map,
                            dict: vec![Arc::clone(s)],
                            codes,
                        }
                    }
                    // audit: allow(panic) — this arm promotes on the first
                    // NON-null cell; Null was handled by the arm above.
                    Value::Null => unreachable!(),
                };
            }
            (BuilderData::Int(vals), Value::Int(x)) => vals.push(*x),
            (BuilderData::Float(vals), Value::Float(x)) => vals.push(*x),
            (BuilderData::Bool(vals), Value::Bool(x)) => vals.push(*x),
            (BuilderData::Str { map, dict, codes }, Value::Str(s)) => {
                let code = match map.get(&**s) {
                    Some(&c) => c,
                    None => {
                        let c = dict.len() as u32;
                        map.insert(Arc::clone(s), c);
                        dict.push(Arc::clone(s));
                        c
                    }
                };
                codes.push(code);
            }
            _ => {
                // Variant mismatch: degrade to Any and retry the push.
                self.degrade();
                if let BuilderData::Any(vals) = &mut self.data {
                    vals.push(v.clone());
                }
            }
        }
    }

    /// Materialize the typed prefix back into `Value`s and switch to
    /// the `Any` representation (nulls stored inline from here on).
    fn degrade(&mut self) {
        let prefix = self.len - 1;
        let mut vals = Vec::with_capacity(self.len);
        let mut null_cursor = 0usize;
        for i in 0..prefix {
            if null_cursor < self.nulls.len() && self.nulls[null_cursor] as usize == i {
                null_cursor += 1;
                vals.push(Value::Null);
                continue;
            }
            vals.push(match &self.data {
                BuilderData::Int(v) => Value::Int(v[i]),
                BuilderData::Float(v) => Value::Float(v[i]),
                BuilderData::Bool(v) => Value::Bool(v[i]),
                BuilderData::Str { dict, codes, .. } => {
                    Value::Str(Arc::clone(&dict[codes[i] as usize]))
                }
                // audit: allow(panic) — degrade is entered only from the
                // variant-mismatch push arm, where data is one of the
                // typed variants (Empty and Any have their own arms).
                BuilderData::Empty | BuilderData::Any(_) => unreachable!(),
            });
        }
        self.nulls.clear();
        self.data = BuilderData::Any(vals);
    }

    pub fn finish(self) -> Column {
        let nulls = if self.nulls.is_empty() {
            None
        } else {
            let mut b = Bitmap::zeroes(self.len);
            for &i in &self.nulls {
                b.set(i as usize);
            }
            Some(b)
        };
        match self.data {
            BuilderData::Empty => Column {
                data: ColumnData::Any(vec![Value::Null; self.len]),
                nulls: None,
            },
            BuilderData::Int(v) => Column {
                data: ColumnData::Int(v),
                nulls,
            },
            BuilderData::Float(v) => Column {
                data: ColumnData::Float(v),
                nulls,
            },
            BuilderData::Bool(v) => Column {
                data: ColumnData::Bool(v),
                nulls,
            },
            BuilderData::Str { dict, codes, .. } => Column {
                data: ColumnData::Str(DictColumn { dict, codes }),
                nulls,
            },
            BuilderData::Any(v) => Column {
                data: ColumnData::Any(v),
                nulls: None,
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn build(cells: &[Value]) -> Column {
        let mut b = ColumnBuilder::new();
        for c in cells {
            b.push(c);
        }
        b.finish()
    }

    fn s(x: &str) -> Value {
        Value::Str(Arc::from(x))
    }

    fn oracle_eval(cells: &[Value], op: CmpOp, lit: &Value) -> Vec<usize> {
        cells
            .iter()
            .enumerate()
            .filter(|(_, v)| op.eval(v, lit))
            .map(|(i, _)| i)
            .collect()
    }

    fn col_eval(col: &Column, op: CmpOp, lit: &Value) -> Vec<usize> {
        let n = col.len();
        let mut sel = Bitmap::ones_in_range(n, 0, n);
        col.eval(op, lit, 0, n, &mut sel);
        let mut out = Vec::new();
        sel.for_each_set(|i| out.push(i));
        out
    }

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    #[test]
    fn builder_round_trips_every_shape() {
        let shapes: Vec<Vec<Value>> = vec![
            vec![Value::Int(3), Value::Int(-1), Value::Int(7)],
            vec![Value::Null, Value::Int(5), Value::Null, Value::Int(2)],
            vec![s("a"), s("b"), s("a"), Value::Null, s("c")],
            vec![Value::Float(1.5), Value::Float(f64::NAN), Value::Null],
            vec![Value::Bool(true), Value::Null, Value::Bool(false)],
            vec![Value::Int(1), s("mixed"), Value::Null, Value::Float(2.0)],
            vec![Value::Null, Value::Null],
            vec![],
        ];
        for cells in shapes {
            let col = build(&cells);
            assert_eq!(col.len(), cells.len());
            for (i, want) in cells.iter().enumerate() {
                assert_eq!(col.value_at(i), *want, "cell {i} of {cells:?}");
            }
            let mut all = Vec::new();
            col.extend_all(&mut all);
            assert_eq!(all, cells);
        }
    }

    #[test]
    fn dictionary_reuses_codes() {
        let col = build(&[s("x"), s("y"), s("x"), s("x")]);
        match &col.data {
            ColumnData::Str(d) => {
                assert_eq!(d.dict.len(), 2);
                assert_eq!(d.codes, vec![0, 1, 0, 0]);
            }
            other => panic!("expected dict column, got {other:?}"),
        }
    }

    #[test]
    fn eval_matches_row_major_oracle() {
        let columns: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::Int(5), Value::Null, Value::Int(5)],
            vec![
                Value::Float(1.0),
                Value::Float(f64::NAN),
                Value::Null,
                Value::Float(-2.5),
            ],
            vec![Value::Bool(true), Value::Bool(false), Value::Null],
            vec![s("a"), s("bb"), Value::Null, s("a")],
            vec![Value::Int(1), s("zz"), Value::Float(2.0), Value::Null],
        ];
        let lits = vec![
            Value::Int(5),
            Value::Int(0),
            Value::Float(1.0),
            Value::Float(f64::NAN),
            Value::Bool(true),
            s("a"),
            s("m"),
            Value::Null,
        ];
        for cells in &columns {
            let col = build(cells);
            for op in OPS {
                for lit in &lits {
                    assert_eq!(
                        col_eval(&col, op, lit),
                        oracle_eval(cells, op, lit),
                        "cells={cells:?} op={op:?} lit={lit:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_selection_evaluates_like_a_dense_one() {
        // Few enough selected rows that `eval`/`eval_in` test them one
        // by one: the verdicts must be the typed loops' verdicts.
        let columns: Vec<Vec<Value>> = vec![
            (0..400).map(|i| Value::Int(i % 7)).collect(),
            (0..400)
                .map(|i| {
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        s(["a", "bb"][i % 2])
                    }
                })
                .collect(),
            (0..400)
                .map(|i| [Value::Int(1), s("zz")][i % 2].clone())
                .collect(),
        ];
        let lits = [Value::Int(3), s("bb"), Value::Null];
        let picked = [0usize, 37, 64, 65, 255, 399];
        for cells in &columns {
            let col = build(cells);
            for lit in &lits {
                for op in OPS {
                    let mut sel = Bitmap::zeroes(400);
                    picked.iter().for_each(|&i| sel.set(i));
                    assert!(sel.is_sparse_in(10, 390));
                    col.eval(op, lit, 10, 390, &mut sel);
                    let mut got = Vec::new();
                    sel.for_each_set(|i| got.push(i));
                    let mut want = oracle_eval(cells, op, lit);
                    want.retain(|i| picked.contains(i) && (10..390).contains(i));
                    assert_eq!(got, want, "op={op:?} lit={lit:?}");
                }
                let mut sel = Bitmap::zeroes(400);
                picked.iter().for_each(|&i| sel.set(i));
                col.eval_in(&[lit.clone(), Value::Int(1)], 0, 400, &mut sel);
                let mut got = Vec::new();
                sel.for_each_set(|i| got.push(i));
                let want: Vec<usize> = picked
                    .iter()
                    .copied()
                    .filter(|&i| cells[i] == *lit || cells[i] == Value::Int(1))
                    .collect();
                assert_eq!(got, want, "in lit={lit:?}");
            }
        }
    }

    #[test]
    fn eval_in_matches_oracle() {
        let cells = vec![Value::Int(1), Value::Int(2), Value::Null, Value::Int(4)];
        let col = build(&cells);
        let wanted = vec![Value::Int(2), Value::Int(4), Value::Int(9)];
        let n = col.len();
        let mut sel = Bitmap::ones_in_range(n, 0, n);
        col.eval_in(&wanted, 0, n, &mut sel);
        let mut got = Vec::new();
        sel.for_each_set(|i| got.push(i));
        let want: Vec<usize> = cells
            .iter()
            .enumerate()
            .filter(|(_, v)| wanted.iter().any(|w| *v == w))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn min_max_and_bounds() {
        let col = build(&[Value::Int(3), Value::Int(3), Value::Int(9), Value::Int(1)]);
        assert_eq!(col.min_max(), Some((Value::Int(1), Value::Int(9))));
        assert!(!col.is_non_decreasing());

        let sorted = build(&[Value::Int(1), Value::Int(3), Value::Int(3), Value::Int(9)]);
        assert!(sorted.is_non_decreasing());
        assert_eq!(sorted.lower_bound(&Value::Int(3)), 1);
        assert_eq!(sorted.upper_bound(&Value::Int(3)), 3);
        assert_eq!(sorted.lower_bound(&Value::Int(10)), 4);
        assert_eq!(sorted.upper_bound(&Value::Int(0)), 0);
    }

    #[test]
    fn bitmap_ops() {
        let mut b = Bitmap::zeroes(130);
        b.set_range(60, 70);
        assert_eq!(b.count_ones(), 10);
        assert!(b.get(60) && b.get(69) && !b.get(70) && !b.get(59));
        let ones = Bitmap::ones_in_range(130, 0, 130);
        b.and_assign(&ones);
        assert_eq!(b.count_ones(), 10);
        let mut mask = Bitmap::zeroes(130);
        mask.set(65);
        b.and_not_assign(&mask);
        assert_eq!(b.count_ones(), 9);
        let mut acc = Bitmap::zeroes(130);
        acc.or_range(&b, 0, 64);
        assert_eq!(acc.count_ones(), 4); // bits 60..64
        let mut seen = Vec::new();
        acc.for_each_set(|i| seen.push(i));
        assert_eq!(seen, vec![60, 61, 62, 63]);
    }
}
