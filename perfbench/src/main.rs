//! Repository benchmark for the V-Rex reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `fleet_open_loop`, `tier_headline`, `pool_overlap`
//! (simulator) and `resv_stream` (functional model). Each run builds
//! its inputs from the seed, runs one untimed unit whose outputs are
//! checked and kept as the run's simulated and functional results, then
//! repeats the unit for `--seconds`, checking that every repetition
//! reproduces the first one's behaviour digest. With `--trace 1`
//! untraced and traced units alternate: host end-to-end numbers come
//! from the untraced ones, per-layer host times from the spans of the
//! traced ones.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Any invariant
//! violation makes `correct` false and the exit code 1.

mod calibrate;
mod fleet;
mod probe;
mod report;
mod sim;
mod stream;

use std::path::PathBuf;
use std::time::Instant;

use probe::{Off, SpanTotals, Tracer};
use report::{json_line, median, Digest, Metric, Metrics, Source};

/// Workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "fleet_open_loop",
    "tier_headline",
    "pool_overlap",
    "resv_stream",
];

/// The bounded end-to-end metrics (`BENCHMARK.json` `end_to_end`).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("frames_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Simulated and functional end-to-end outcomes. Each exists on only
/// some workloads, so they are reported with the per-layer metrics
/// (and printed with the end-to-end block).
const OUTCOMES: [(&str, &str); 12] = [
    ("rt_capacity", "streams"),
    ("rt_share", "ratio"),
    ("reject_ratio", "ratio"),
    ("frame_lag_p50_s", "s"),
    ("frame_lag_p99_s", "s"),
    ("ttft_p50_s", "s"),
    ("ttft_p99_s", "s"),
    ("tpot_p99_s", "s"),
    ("restored_gib", "GiB"),
    ("exposed_s", "s"),
    ("kv_selected_pct", "%"),
    ("attn_recall", "ratio"),
];

/// Span names the benchmark records.
const SPANS: [&str; 12] = [
    "workload",
    "serve.reject-only",
    "serve.tiered-demand",
    "serve.tiered-prefetch",
    "serve.tiered-cluster",
    fleet::POOL_SPAN,
    "next_plan",
    "stream",
    "frame",
    "turn",
    "select",
    "on_keys_appended",
];

/// The per-layer metrics (`BENCHMARK.json` `per_layer`), after the
/// [`OUTCOMES`] and before the per-span self times.
const LAYERS: [(&str, &str); 61] = [
    ("traffic.plans", "count"),
    ("traffic.host_s", "s"),
    ("serve.events", "count"),
    ("serve.events_per_s", "1/s"),
    ("serve.queue_pushes", "count"),
    ("serve.queue_peak", "count"),
    ("serve.admission_passes", "count"),
    ("serve.admission_checks", "count"),
    ("serve.batches", "count"),
    ("serve.members_per_batch", "ratio"),
    ("serve.active_peak", "count"),
    ("serve.pending_peak", "count"),
    ("serve.host_s.reject-only", "s"),
    ("serve.host_s.tiered-demand", "s"),
    ("serve.host_s.tiered-prefetch", "s"),
    ("serve.host_s.tiered-cluster", "s"),
    ("serve.host_s.tiered-prefetch-overlap", "s"),
    ("pricing.lookups", "count"),
    ("pricing.misses", "count"),
    ("pricing.hit_ratio", "ratio"),
    ("pricing.entries", "count"),
    ("memory.spilled_sessions", "count"),
    ("memory.spilled_gib", "GiB"),
    ("memory.promoted_gib", "GiB"),
    ("memory.tier_hit_ratio", "ratio"),
    ("memory.hidden_s", "s"),
    ("prefetch.spec_gib", "GiB"),
    ("prefetch.demand_gib", "GiB"),
    ("prefetch.useful_ratio", "ratio"),
    ("prefetch.spec_clusters", "count"),
    ("prefetch.demand_clusters", "count"),
    ("prefetch.mispredicted_clusters", "count"),
    ("placement.migrations", "count"),
    ("placement.migrated_gib", "GiB"),
    ("placement.fabric_busy_s", "s"),
    ("placement.imbalance", "ratio"),
    ("placement.parallel_speedup", "ratio"),
    ("engine.step_completes", "count"),
    ("pipeline.frame.dense_us", "us"),
    ("pipeline.frame.attention_us", "us"),
    ("pipeline.frame.prediction_us", "us"),
    ("pipeline.frame.fetch_us", "us"),
    ("pipeline.frame.layer_us", "us"),
    ("pipeline.decode.dense_us", "us"),
    ("pipeline.decode.attention_us", "us"),
    ("pipeline.decode.prediction_us", "us"),
    ("pipeline.decode.fetch_us", "us"),
    ("pipeline.decode.layer_us", "us"),
    ("e2e.frame_step_ms", "ms"),
    ("e2e.decode_step_ms", "ms"),
    ("e2e.frame_energy_mj", "mJ"),
    ("model.frame_host_s", "s"),
    ("model.text_host_s", "s"),
    ("resv.select_host_s", "s"),
    ("resv.append_host_s", "s"),
    ("resv.selections", "count"),
    ("resv.score_ratio", "ratio"),
    ("resv.buckets_visited_frac", "ratio"),
    ("resv.elements_scanned", "count"),
    ("resv.tokens_per_cluster", "count"),
    ("resv.hamming_comparisons", "count"),
];

/// Set-up batches per run; `setup_s` is the median of their medians.
const SETUP_BATCHES: usize = 10;
/// Fewest set-ups per batch.
const SETUP_REPS: usize = 5;
/// Shortest batch, s.
const SETUP_BATCH_S: f64 = 0.025;
/// Fewest timed units per run.
const MIN_UNITS: usize = 3;

/// Derives the `i`-th independent seed from `seed` (splitmix64).
pub fn split_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: vrex-perfbench --workload <fleet_open_loop|tier_headline|pool_overlap|resv_stream|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace must be 0 or 1, not {v}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("unknown workload {:?}", args.workload));
        }
        if !(args.seconds > 0.0 && args.seconds <= 120.0) {
            return Err("--seconds must be in (0, 120]".to_string());
        }
        Ok(args)
    }
}

/// Host facts recorded with every result.
struct Host {
    cores: usize,
    revision: String,
}

impl Host {
    fn detect() -> Self {
        Self {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            revision: git_revision(),
        }
    }
}

/// The checkout's HEAD commit, read from `.git` without running git.
fn git_revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{name}")) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({name})"))
}

/// Peak resident set of this process, MiB, less the host-speed
/// reference's buffer (resident from before the first set-up on).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| {
            (kib * 1024.0 - calibrate::BUFFER_BYTES as f64) / f64::from(1u32 << 20)
        })
}

/// Unit wall times, the reference-kernel times around them and the
/// traced units' spans.
struct Timing {
    untraced: Vec<f64>,
    /// Reference time before each untraced unit, then one after the last.
    reference: Vec<f64>,
    traced: Vec<f64>,
    tracer: Tracer,
    /// Process peak resident set when the timed units ended, MiB.
    rss_mib: f64,
}

impl Timing {
    /// Median raw wall time of an untraced unit, s.
    fn raw_unit_s(&self) -> f64 {
        median(&self.untraced)
    }

    /// Median untraced unit time at nominal host speed.
    fn unit_s(&self) -> f64 {
        nominal_median(&self.untraced, &self.reference)
    }

    /// Span totals per name, per traced unit.
    fn spans(&self) -> Vec<(&'static str, SpanTotals)> {
        let n = self.traced.len().max(1) as u64;
        self.tracer
            .totals_since(0)
            .into_iter()
            .map(|(name, t)| {
                (
                    name,
                    SpanTotals {
                        count: t.count / n,
                        total_ns: t.total_ns / n,
                        self_ns: t.self_ns / n,
                    },
                )
            })
            .collect()
    }

    /// Total duration of span `name` per traced unit, s.
    fn span_s(&self, name: &str) -> f64 {
        self.spans()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, t)| t.total_ns as f64 * 1e-9)
    }
}

/// Repeats `run` until `seconds` have passed (at least [`MIN_UNITS`]
/// times), timing each call and the reference kernel around it; with
/// `trace`, every untraced unit is followed by a traced one. `after`
/// sees each unit's result, untimed.
fn timed_loop<R>(
    seconds: f64,
    trace: bool,
    mut run: impl FnMut(Option<&mut Tracer>) -> R,
    mut after: impl FnMut(R),
) -> Timing {
    let start = Instant::now();
    let mut t = Timing {
        untraced: Vec::new(),
        reference: Vec::new(),
        traced: Vec::new(),
        tracer: Tracer::default(),
        rss_mib: 0.0,
    };
    loop {
        t.reference.push(calibrate::reference_s());
        let clock = Instant::now();
        let r = run(None);
        t.untraced.push(clock.elapsed().as_secs_f64());
        if t.untraced.len() >= MIN_UNITS && start.elapsed().as_secs_f64() >= seconds {
            t.reference.push(calibrate::reference_s());
            after(r);
            t.rss_mib = peak_rss_mib();
            return t;
        }
        after(r);
        if trace {
            let clock = Instant::now();
            let r = run(Some(&mut t.tracer));
            t.traced.push(clock.elapsed().as_secs_f64());
            after(r);
        }
    }
}

/// Runs `setup` in [`SETUP_BATCHES`] batches of at least
/// [`SETUP_REPS`] set-ups and [`SETUP_BATCH_S`], timing each set-up and
/// the reference kernel before each batch and after the last; returns
/// the timings and the last set-up's result.
fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (Setup, T) {
    let mut s = Setup {
        batches: Vec::with_capacity(SETUP_BATCHES),
        reference: vec![calibrate::reference_s()],
        reps: 0,
    };
    let mut last = None;
    for _ in 0..SETUP_BATCHES {
        let start = Instant::now();
        let mut times = Vec::new();
        while times.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_BATCH_S {
            let clock = Instant::now();
            let v = std::hint::black_box(setup());
            times.push(clock.elapsed().as_secs_f64());
            last = Some(v);
        }
        s.reps += times.len();
        s.batches.push(median(&times));
        s.reference.push(calibrate::reference_s());
    }
    (s, last.expect("at least one set-up"))
}

/// Set-up timings of a run.
struct Setup {
    /// Median raw set-up time of each batch, s.
    batches: Vec<f64>,
    /// Reference time before each batch, then one after the last, s.
    reference: Vec<f64>,
    reps: usize,
}

/// Median of `times` at nominal host speed: each is scaled by the mean
/// of the reference times just before and after it (`reference` has one
/// more entry than `times`).
fn nominal_median(times: &[f64], reference: &[f64]) -> f64 {
    let scaled: Vec<f64> = times
        .iter()
        .zip(reference.windows(2))
        .map(|(t, r)| t * calibrate::NOMINAL_S / ((r[0] + r[1]) / 2.0))
        .collect();
    median(&scaled)
}

/// Checks of one run: operations (serve calls or streams) attempted,
/// operations that broke an invariant, and the violations.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Checks {
    /// Records one unit of `ops` operations, `failed` of which broke an
    /// invariant; a digest differing from `expected` fails them all.
    fn unit(
        &mut self,
        ops: u64,
        failed: u64,
        violations: Vec<String>,
        expected: &Digest,
        got: &Digest,
    ) {
        self.attempted += ops;
        self.violations.extend(violations);
        if got == expected {
            self.failed += failed;
        } else {
            self.failed += ops;
            self.violations.push(format!(
                "digest {} differs from the first unit's {}",
                got.render(),
                expected.render()
            ));
        }
    }
}

/// What one workload run reports.
struct Outcome {
    e2e: Metrics,
    layers: Metrics,
    checks: Checks,
}

/// Host end-to-end metrics shared by every workload, at nominal host
/// speed (see [`calibrate`]).
fn host_metrics(
    e2e: &mut Metrics,
    setup: &Setup,
    timing: &Timing,
    sessions: f64,
    frames: f64,
    what: &str,
) {
    let unit_s = timing.unit_s();
    let raw_s = timing.raw_unit_s();
    let n = timing.untraced.len();
    let speed = format!(
        "reference kernel {:.4} s around units vs nominal {}",
        median(&timing.reference),
        calibrate::NOMINAL_S
    );
    e2e.push(
        "setup_s",
        nominal_median(&setup.batches, &setup.reference),
        "s",
        Source::Host,
        format!(
            "median over {} batches of {} set-ups in all; raw {:.3e} s",
            setup.batches.len(),
            setup.reps,
            median(&setup.batches)
        ),
    );
    e2e.push(
        "sessions_per_s",
        sessions / unit_s,
        "1/s",
        Source::Host,
        format!(
            "{sessions} {what} per unit, median of {n} untraced units: \
             {unit_s:.4} s nominal, raw {raw_s:.4} s ({:.4}/s); {speed}",
            sessions / raw_s
        ),
    );
    e2e.push(
        "frames_per_s",
        frames / unit_s,
        "1/s",
        Source::Host,
        format!("{frames} frames per unit; raw {:.4}/s", frames / raw_s),
    );
    e2e.push(
        "peak_rss_mib",
        timing.rss_mib,
        "MiB",
        Source::Host,
        "process VmHWM at the end of the timed units",
    );
}

/// Per-span self times, the unattributed remainder and the tracing
/// overhead; writes the spans to `out/trace-<workload>.tsv`.
fn span_metrics(layers: &mut Metrics, timing: &Timing, workload: &str) {
    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("trace-{workload}.tsv"));
    match timing.tracer.write_tsv(&path) {
        Ok(()) => println!(
            "spans: {} written to {}",
            timing.tracer.len(),
            path.display()
        ),
        Err(e) => println!("spans: not written to {}: {e}", path.display()),
    }
    let spans = timing.spans();
    let mut attributed = 0.0;
    for name in SPANS {
        let t = spans
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t)
            .unwrap_or_default();
        let self_s = t.self_ns as f64 * 1e-9;
        attributed += self_s;
        layers.push(
            format!("span.{name}.self_s"),
            self_s,
            "s",
            Source::Host,
            format!("per traced unit, {} spans", t.count),
        );
    }
    let traced = median(&timing.traced);
    let mean_traced = timing.traced.iter().sum::<f64>() / timing.traced.len().max(1) as f64;
    layers.push(
        "span.unattributed_s",
        mean_traced - attributed,
        "s",
        Source::Host,
        "mean traced unit minus the self times above",
    );
    layers.push(
        "trace.overhead_s",
        traced - timing.raw_unit_s(),
        "s",
        Source::Host,
        format!(
            "median traced unit {traced:.4} s minus median untraced unit {:.4} s",
            timing.raw_unit_s()
        ),
    );
}

fn run_fleet(name: &'static str, kind: fleet::Kind, args: &Args, host: &Host) -> Outcome {
    let (setup, mut inputs) = timed_setup(|| fleet::setup(kind, args.seed, host.cores));
    let workers = inputs.workers;
    let mut checks = Checks::default();
    // The first unit is the run's simulated result; every timed unit
    // must reproduce it. Pool serves run on one worker in both: on a
    // shared host the other cores' availability is noise, not a
    // property of the program.
    let first = fleet::run_unit(&mut inputs, &mut Off, 1);
    let ids = fleet::offered_ids(&inputs, &first);
    let base = fleet::analyse(&ids, &first);
    let ops = first.calls.len() as u64;
    checks.unit(
        ops,
        base.failed_calls,
        base.violations.clone(),
        &base.digest,
        &base.digest,
    );
    let timing = timed_loop(
        args.seconds,
        args.trace,
        |tracer| match tracer {
            Some(t) => fleet::run_unit(&mut inputs, t, 1),
            None => fleet::run_unit(&mut inputs, &mut Off, 1),
        },
        |unit| {
            let a = fleet::analyse(&ids, &unit);
            checks.unit(ops, a.failed_calls, a.violations, &base.digest, &a.digest);
        },
    );
    // One more unit on every worker, after the peak memory was read:
    // its pool reports must equal the one-worker reports.
    let mut parallel_s = 0.0;
    if kind == fleet::Kind::PoolOverlap {
        let clock = Instant::now();
        let parallel = fleet::run_unit(&mut inputs, &mut Off, workers);
        parallel_s = clock.elapsed().as_secs_f64();
        let a = fleet::analyse(&ids, &parallel);
        let (mut failed, mut violations) = (a.failed_calls, a.violations);
        if parallel.pool_reports() != first.pool_reports() {
            failed = ops;
            violations.push(format!(
                "pool reports on {workers} workers differ from workers = 1"
            ));
        }
        checks.unit(ops, failed, violations, &base.digest, &a.digest);
    }

    println!("workers: 1 for timed units, {workers} for the pool's parallel check unit");
    println!("digest: {}", base.digest.render());
    fleet::print_model_error();
    let mut e2e = Metrics::default();
    host_metrics(
        &mut e2e,
        &setup,
        &timing,
        base.sessions as f64,
        base.frames as f64,
        "offered sessions",
    );
    let mut layers = Metrics::default();
    base.outcomes(kind, &mut layers);
    if args.trace {
        let unit_s = timing.raw_unit_s();
        layers.push(
            "traffic.plans",
            first.plans_streamed as f64,
            "count",
            Source::Sim,
            "plans through the counted PlanSource per unit",
        );
        layers.push(
            "traffic.host_s",
            timing.span_s("next_plan"),
            "s",
            Source::Host,
            "next_plan spans per traced unit",
        );
        base.layers(&first, unit_s, &mut layers);
        for (label, span) in [
            ("reject-only", "serve.reject-only"),
            ("tiered-demand", "serve.tiered-demand"),
            ("tiered-prefetch", "serve.tiered-prefetch"),
            ("tiered-cluster", "serve.tiered-cluster"),
            ("tiered-prefetch-overlap", fleet::POOL_SPAN),
        ] {
            layers.push(
                format!("serve.host_s.{label}"),
                timing.span_s(span),
                "s",
                Source::Host,
                "serve-call spans per traced unit",
            );
        }
        if kind == fleet::Kind::PoolOverlap {
            layers.push(
                "placement.parallel_speedup",
                unit_s / parallel_s,
                "ratio",
                Source::Host,
                format!(
                    "median raw 1-worker unit / one {workers}-worker unit ({parallel_s:.4} s); \
                     {} cores",
                    host.cores
                ),
            );
        }
        fleet::step_layers(&inputs, &mut layers);
        span_metrics(&mut layers, &timing, name);
    }
    Outcome {
        e2e,
        layers,
        checks,
    }
}

fn run_resv(args: &Args) -> Outcome {
    let (setup, mut inputs) = timed_setup(|| stream::setup(args.seed));
    let mut checks = Checks::default();
    // The untimed first pass tracks attention recall; the timed passes
    // do not, and must still reproduce its digest.
    let first = stream::run_stream(&mut inputs, &mut Off, true);
    let base = first.digest();
    let record = |checks: &mut Checks, run: &stream::Run| {
        let violations = run.violations();
        let failed = u64::from(!violations.is_empty());
        checks.unit(1, failed, violations, &base, &run.digest());
    };
    record(&mut checks, &first);
    let timing = timed_loop(
        args.seconds,
        args.trace,
        |tracer| match tracer {
            Some(t) => stream::run_stream(&mut inputs, t, false),
            None => stream::run_stream(&mut inputs, &mut Off, false),
        },
        |run| record(&mut checks, &run),
    );

    println!("workers: 1");
    println!("digest: {}", base.render());
    let mut e2e = Metrics::default();
    host_metrics(
        &mut e2e,
        &setup,
        &timing,
        1.0,
        stream::FRAMES as f64,
        "stream",
    );
    let mut layers = Metrics::default();
    first.outcomes(&mut layers);
    if args.trace {
        for (name, span, what) in [
            ("model.frame_host_s", "frame", "process_frame"),
            ("model.text_host_s", "turn", "process_text + generate"),
            ("resv.select_host_s", "select", "select"),
            ("resv.append_host_s", "on_keys_appended", "on_keys_appended"),
        ] {
            layers.push(
                name,
                timing.span_s(span),
                "s",
                Source::Host,
                format!("{what} spans per traced stream"),
            );
        }
        first.layers(&mut layers);
        span_metrics(&mut layers, &timing, "resv_stream");
    }
    Outcome {
        e2e,
        layers,
        checks,
    }
}

/// `metrics` in the order of `names`, with a zero marked not applicable
/// for each name this workload does not produce.
fn complete(metrics: &Metrics, names: &[(&str, &'static str)]) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| {
            metrics
                .0
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric {
                    name: name.to_string(),
                    value: 0.0,
                    unit,
                    source: Source::NotApplicable,
                    note: "n/a on this workload".to_string(),
                })
        })
        .collect()
}

fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = OUTCOMES
        .iter()
        .chain(LAYERS.iter())
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    v.extend(SPANS.iter().map(|s| (format!("span.{s}.self_s"), "s")));
    v.push(("span.unattributed_s".to_string(), "s"));
    v.push(("trace.overhead_s".to_string(), "s"));
    v
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = Host::detect();
    let names: Vec<&'static str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        WORKLOADS
            .into_iter()
            .filter(|w| *w == args.workload)
            .collect()
    };
    let layer_names = per_layer_names();
    let layer_refs: Vec<(&str, &'static str)> =
        layer_names.iter().map(|(n, u)| (n.as_str(), *u)).collect();
    let mut json_metrics: Vec<Metric> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for name in &names {
        println!(
            "== {name}: seed {}, {} s, trace {} ==",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        println!("host: cores={} rev={}", host.cores, host.revision);
        let out = match *name {
            "fleet_open_loop" => run_fleet(name, fleet::Kind::OpenLoop, &args, &host),
            "tier_headline" => run_fleet(name, fleet::Kind::TierHeadline, &args, &host),
            "pool_overlap" => run_fleet(name, fleet::Kind::PoolOverlap, &args, &host),
            _ => run_resv(&args),
        };
        let e2e = complete(&out.e2e, &END_TO_END);
        let mut shown = Metrics(e2e.clone());
        shown.0.extend(complete(&out.layers, &OUTCOMES));
        shown.print("end-to-end (host: untraced units; sim/functional: first unit):");
        let layers = complete(&out.layers, &layer_refs);
        if args.trace {
            Metrics(layers[OUTCOMES.len()..].to_vec()).print("per-layer (traced run):");
        }
        if out.checks.violations.is_empty() {
            println!(
                "invariants: all held over {} operations",
                out.checks.attempted
            );
        } else {
            println!("invariants: {} violations", out.checks.violations.len());
            for v in out.checks.violations.iter().take(20) {
                println!("  VIOLATION {v}");
            }
        }
        attempted += out.checks.attempted;
        failed += out.checks.failed;
        let chosen = if args.trace { layers } else { e2e };
        let prefix = if names.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        json_metrics.extend(chosen.into_iter().map(|mut m| {
            m.name = format!("{prefix}{}", m.name);
            m
        }));
    }
    let refs: Vec<&Metric> = json_metrics.iter().collect();
    println!("{}", json_line(failed == 0, attempted, failed, &refs));
    if failed > 0 {
        std::process::exit(1);
    }
}
