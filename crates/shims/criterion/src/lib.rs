//! Offline, API-compatible subset of the [`criterion`] crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the slice of `criterion` its benches use:
//! [`Criterion`], benchmark groups, [`BenchmarkId`], `Bencher::iter`,
//! `Bencher::iter_custom`, and the [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! Measurement is deliberately simple: a short warm-up, then
//! `sample_size` samples of a batched timing loop, reporting the
//! fastest/median/mean nanoseconds per iteration to stdout. There is no
//! statistical analysis, plotting, or baseline persistence — good
//! enough for the relative comparisons the workspace benches make
//! (full sort vs early exit, full vs filtered attention).
//!
//! [`criterion`]: https://crates.io/crates/criterion

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver, mirroring `criterion::Criterion`.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(1),
        }
    }
}

impl Criterion {
    /// Sets how many timing samples each benchmark takes.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Sets the warm-up duration before sampling starts.
    pub fn warm_up_time(mut self, t: Duration) -> Self {
        self.warm_up_time = t;
        self
    }

    /// Sets the total time budget spread across the samples.
    pub fn measurement_time(mut self, t: Duration) -> Self {
        self.measurement_time = t;
        self
    }

    /// No-op for CLI compatibility with upstream.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// Runs a single standalone benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let report = run_bench(self, &mut f);
        print_report(name, &report);
        self
    }
}

/// A named collection of benchmarks sharing the parent's settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Benchmarks `f` against one `input`, labelled by `id`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.label);
        let report = run_bench(self.criterion, &mut |b| f(b, input));
        print_report(&label, &report);
        self
    }

    /// Benchmarks `f` under `name` within the group.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, name);
        let report = run_bench(self.criterion, &mut f);
        print_report(&label, &report);
        self
    }

    /// Ends the group (kept for API parity; reporting is immediate).
    pub fn finish(self) {}
}

/// A benchmark label, mirroring `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A `function_name/parameter` label.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// A bare parameter label.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

/// Timing handle passed to benchmark closures.
#[derive(Debug)]
pub struct Bencher {
    warm_up_time: Duration,
    measurement_time: Duration,
    sample_size: usize,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Times repeated calls of `routine`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up: run until the warm-up budget elapses, counting
        // iterations to size the measurement batches.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up_time {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = self.warm_up_time.as_secs_f64() / warm_iters.max(1) as f64;
        // Size each sample's batch so all samples fit the budget.
        let budget = self.measurement_time.as_secs_f64() / self.sample_size as f64;
        let batch = ((budget / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);

        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let ns = start.elapsed().as_secs_f64() * 1e9 / batch as f64;
            self.samples_ns.push(ns);
        }
    }

    /// Times `routine(iters)`, which runs the measured operation
    /// `iters` times and returns the time it measured itself. Lets a
    /// benchmark keep untimed set-up (rebuilding mutated state) out of
    /// the per-iteration figure.
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut routine: F) {
        // Warm-up: double the iteration count (up to the batch cap)
        // until the warm-up budget elapses, accumulating measured time
        // to size the batches.
        let warm_start = Instant::now();
        let (mut iters, mut warm_iters, mut warm_measured) = (1u64, 0u64, Duration::ZERO);
        while warm_start.elapsed() < self.warm_up_time {
            warm_measured += black_box(routine(iters));
            warm_iters = warm_iters.saturating_add(iters);
            iters = (iters * 2).min(1_000_000);
        }
        let per_iter = warm_measured.as_secs_f64() / warm_iters.max(1) as f64;
        let budget = self.measurement_time.as_secs_f64() / self.sample_size as f64;
        let batch = ((budget / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);

        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let ns = routine(batch).as_secs_f64() * 1e9 / batch as f64;
            self.samples_ns.push(ns);
        }
    }
}

struct Report {
    fastest_ns: f64,
    median_ns: f64,
    mean_ns: f64,
}

fn run_bench(criterion: &Criterion, f: &mut dyn FnMut(&mut Bencher)) -> Report {
    let mut bencher = Bencher {
        warm_up_time: criterion.warm_up_time,
        measurement_time: criterion.measurement_time,
        sample_size: criterion.sample_size,
        samples_ns: Vec::new(),
    };
    f(&mut bencher);
    let mut s = bencher.samples_ns;
    if s.is_empty() {
        // The closure never called `iter` — report zeros rather than
        // panicking, matching upstream's tolerance.
        return Report {
            fastest_ns: 0.0,
            median_ns: 0.0,
            mean_ns: 0.0,
        };
    }
    s.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN timings"));
    Report {
        fastest_ns: s[0],
        median_ns: s[s.len() / 2],
        mean_ns: s.iter().sum::<f64>() / s.len() as f64,
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn print_report(label: &str, report: &Report) {
    println!(
        "{label:<48} fastest {:>12}  median {:>12}  mean {:>12}",
        format_ns(report.fastest_ns),
        format_ns(report.median_ns),
        format_ns(report.mean_ns),
    );
}

/// Declares a benchmark group function, mirroring upstream's two forms.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench `main` that runs the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_positive_time() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(15));
        let mut ran = false;
        c.bench_function("smoke/sum", |b| {
            ran = true;
            b.iter(|| (0..100u64).sum::<u64>())
        });
        assert!(ran);
    }

    #[test]
    fn iter_custom_reports_the_routine_s_own_time() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(15));
        let mut calls = 0u64;
        c.bench_function("smoke/custom", |b| {
            b.iter_custom(|iters| {
                calls += 1;
                Duration::from_nanos(10 * iters)
            })
        });
        assert!(calls > 3, "warm-up plus one call per sample");
    }

    #[test]
    fn group_labels_and_ids() {
        let id = BenchmarkId::new("full", 512);
        assert_eq!(id.label, "full/512");
        let id = BenchmarkId::from_parameter(64);
        assert_eq!(id.label, "64");
    }
}
