//! Metric records, statistics, behaviour digests and the JSON result line.

use std::fmt::Write as _;

/// Where a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Measured on the host running the simulator (noisy).
    Host,
    /// Modelled hardware (deterministic for a seed).
    Sim,
    /// Output of the functional model (deterministic for a seed).
    Functional,
    /// Not produced by this workload; reported as 0.
    NotApplicable,
}

impl Source {
    fn label(self) -> &'static str {
        match self {
            Source::Host => "host",
            Source::Sim => "sim",
            Source::Functional => "functional",
            Source::NotApplicable => "n/a",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Host, sim or functional.
    pub source: Source,
    /// Sample count, model-error reference or reason for omission.
    pub note: String,
}

/// An ordered list of metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        source: Source,
        note: impl Into<String>,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            source,
            note: note.into(),
        });
    }

    /// Prints one line per metric: name, value, unit, label, note.
    pub fn print(&self, heading: &str) {
        println!("{heading}");
        for m in &self.0 {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!(
                "  {:<34} {:>16} {:<6} [{}]{note}",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.source.label()
            );
        }
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-4) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric value printed with all its digits.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples: the same definition the
/// serving report uses, so pooled and reported percentiles compare
/// exactly.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `p` percentile's rank.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Pushes percentile `p` of `sorted` as `name`, or 0 with the reason
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn push_percentile(
    out: &mut Metrics,
    name: &str,
    sorted: &[f64],
    p: f64,
    source: Source,
    what: &str,
) {
    let n = sorted.len();
    let b = beyond(n, p);
    if n == 0 || b < MIN_BEYOND {
        out.push(
            name,
            0.0,
            "s",
            source,
            format!("omitted: {b} of {n} {what} beyond p{p}, need {MIN_BEYOND}"),
        );
    } else {
        out.push(
            name,
            percentile_sorted(sorted, p),
            "s",
            source,
            format!("n={n} {what}, {b} beyond; unvalidated"),
        );
    }
}

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds a `u64` in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds an `f64`'s exact bits in.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Bottom-k entries kept by a [`Digest`].
const SKETCH_K: usize = 8;

/// Behaviour digest of a unit's outcomes: an exact hash over every
/// per-item record in order, plus a bottom-k sketch of the item hashes
/// (each tagged with its call and item id) so a mismatch can be
/// localised to the items that changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Digest {
    exact: u64,
    items: u64,
    sketch: Vec<(u64, u64, u64)>,
}

impl Digest {
    /// Folds one item (`call` = serve or stream index, `id` = session or
    /// turn id, `u64::MAX` for a whole-call record) with record hash `h`.
    pub fn add(&mut self, call: u64, id: u64, h: u64) {
        let mut e = Fnv(self.exact);
        e.u64(h);
        self.exact = e.0;
        self.items += 1;
        if self.sketch.len() < SKETCH_K || h < self.sketch[SKETCH_K - 1].0 {
            let at = self.sketch.partition_point(|s| s.0 < h);
            self.sketch.insert(at, (h, call, id));
            self.sketch.truncate(SKETCH_K);
        }
    }

    /// One-line rendering: exact hash, item count, sketch.
    pub fn render(&self) -> String {
        let sketch: Vec<String> = self
            .sketch
            .iter()
            .map(|&(h, c, i)| match i {
                u64::MAX => format!("{:08x}@{c}:*", h >> 32),
                _ => format!("{:08x}@{c}:{i}", h >> 32),
            })
            .collect();
        format!(
            "exact={:016x} items={} bottom{}=[{}]",
            self.exact,
            self.items,
            SKETCH_K,
            sketch.join(" ")
        )
    }
}
