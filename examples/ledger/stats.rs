//! Numbers the ledger reports: order statistics, the seeded generator,
//! and the metric/outcome records with their JSON and table renderings.

use std::fmt::Write as _;
use std::time::Instant;

/// splitmix64: the ledger's only source of randomness, so one `--seed`
/// fixes every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// A logged metric value in (0, 1) whose text form is always eight
    /// characters (`0.dddddd`, last digit non-zero), so stored and shipped
    /// bytes do not depend on which digits the seed drew.
    pub fn value(&mut self) -> f64 {
        let k = self.range(10_000, 99_999) * 10 + self.range(1, 9);
        k as f64 / 1e6
    }
}

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The highest percentile of `xs` that still has at least ten samples
/// beyond it, as `(percentile, value)`; `None` below 20 samples (where
/// even the median has fewer than ten beyond it).
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    // Per mille, so "ten beyond" is exact integer arithmetic.
    const LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];
    let n = xs.len();
    let beyond = |p: usize| n * (1000 - p) / 1000;
    let p = LADDER.into_iter().find(|p| beyond(*p) >= 10)?;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some((p as f64 / 10.0, v[n - 1 - beyond(p)]))
}

/// FNV-1a over `bytes`, continuing from `h` — the op-list fingerprint.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// One reported number; its unit is fixed by the metric tables in
/// `main.rs`.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a count or a whole-phase rate).
    pub n: usize,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Ungated context printed beside the metrics: tails with their
    /// percentile and sample count, writer lateness, cycle counts.
    pub notes: Vec<String>,
    /// `(layer, share of traced wall time)`, traced runs only.
    pub layers: Vec<(String, f64)>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, n: usize) {
        self.metrics.push(Metric { name, value, n });
    }

    /// Count one checked operation; `ok == false` is a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Count `attempted` operations of which `failures` failed; the first
    /// few failures are kept as notes.
    pub fn account(&mut self, attempted: u64, failures: &[String]) {
        self.attempted += attempted;
        self.failed += failures.len() as u64;
        self.notes
            .extend(failures.iter().take(5).map(|f| format!("FAILED: {f}")));
    }

    /// Build a workload's set-up and report `setup_s`: three builds and
    /// their median on an untraced run (the metric is gated, so it is
    /// steadied), one on a traced run. Each build replaces the one
    /// before; the last is the one the load runs against.
    pub fn timed_setup<T>(&mut self, trace: bool, mut build: impl FnMut() -> T) -> T {
        let mut secs: Vec<f64> = Vec::new();
        let mut built: Option<T> = None;
        for _ in 0..if trace { 1 } else { 3 } {
            drop(built.take());
            let started = Instant::now();
            built = Some(build());
            secs.push(started.elapsed().as_secs_f64());
        }
        self.push("setup_s", median(&secs), secs.len());
        built.expect("built at least once")
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }

    /// Record the ungated tail of a latency sample (milliseconds).
    pub fn note_tail(&mut self, name: &str, ms: &[f64]) {
        match tail(ms) {
            Some((p, v)) => self
                .notes
                .push(format!("{name} = {v:.4} ms at p{p} (n = {})", ms.len())),
            None => self
                .notes
                .push(format!("{name}: n = {} is too few for a tail", ms.len())),
        }
    }
}

/// A JSON number with every digit the measurement has. Non-finite values
/// (a ratio over an empty phase) are reported as 0 rather than breaking
/// the document.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for the named metrics, in
/// the order given; a metric the run did not produce reads 0.
pub fn metrics_json(out: &Outcome, spec: &[(&'static str, &'static str)]) -> String {
    let body: Vec<String> = spec
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(out.get(name)),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The human table: one line per metric with its unit and sample count.
pub fn render_table(title: &str, out: &Outcome, spec: &[(&'static str, &'static str)]) -> String {
    let mut s = format!(
        "== {title}: {} ops attempted, {} failed\n",
        out.attempted, out.failed
    );
    for (name, unit) in spec {
        let n = out
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .map_or(0, |m| m.n);
        let _ = writeln!(s, "  {name:<44} {:>16.6} {unit:<7} n={n}", out.get(name));
    }
    for (layer, share) in &out.layers {
        let _ = writeln!(s, "  time share {layer:<33} {:>15.2} %", share * 100.0);
    }
    for note in &out.notes {
        let _ = writeln!(s, "  note: {note}");
    }
    s
}
