//! The three simulator workloads: `fleet_open_loop`, `tier_headline`
//! and `pool_overlap`.
//!
//! A workload *unit* is a fixed, seed-determined batch of serve calls.
//! The benchmark repeats the unit to fill its measuring time; every
//! repetition must reproduce the first one's behaviour digest.

use vrex_workload::traffic::{OpenLoopConfig, SessionPlan, TrafficConfig};

use crate::probe::{CountedSource, Probe};
use crate::report::{push_percentile, Digest, Fnv, Metrics, Source};
use crate::sim::{
    self, Admission, Placement, Platform, Pool, PriceStats, Prices, ServeReport, SessionOutcome,
    SessionServeReport, ShardedServeReport,
};
use crate::split_seed;

/// Open-loop arrival rate (sessions/s): keeps V-Rex48 + ReSV loaded,
/// with steady rejections but no unbounded backlog.
const OPEN_LOOP_RATE_PER_S: f64 = 1.2;
/// Sessions per open-loop unit.
const OPEN_LOOP_SESSIONS: usize = 20_000;
/// Traffic seeds per `tier_headline` unit.
const TIER_SEEDS: usize = 4;
/// Fleet sizes of the tiering grid.
const TIER_FLEETS: [usize; 6] = [2, 4, 8, 12, 16, 24];
/// Admission policies of the tiering grid.
const TIER_POLICIES: [Admission; 4] = [
    Admission::RejectOnly,
    Admission::TieredDemand,
    Admission::TieredPrefetch,
    Admission::TieredCluster,
];
/// Traffic seeds per `pool_overlap` unit.
const POOL_SEEDS: usize = 3;
/// Devices in the `pool_overlap` pool.
const POOL_DEVICES: usize = 4;
/// Sessions per device of the pool grid.
const POOL_PER_DEVICE: [usize; 3] = [8, 12, 16];

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Streamed Poisson fleet, reject-only, one device.
    OpenLoop,
    /// Tiering grid on the halved-HBM unit.
    TierHeadline,
    /// Four-device overlapped pool.
    PoolOverlap,
}

/// One materialized fleet of a grid.
struct Fleet {
    /// Index of the traffic seed that generated it.
    seed_index: usize,
    plans: Vec<SessionPlan>,
}

/// Generated inputs and simulated hardware of one workload.
pub struct Inputs {
    kind: Kind,
    platform: Platform,
    open_loop: OpenLoopConfig,
    fleets: Vec<Fleet>,
    pool: Option<Pool>,
    /// Worker threads for pool serves.
    pub workers: usize,
}

/// Builds the inputs of `kind` from `seed`.
pub fn setup(kind: Kind, seed: u64, workers: usize) -> Inputs {
    let traffic = |seeds: usize, sizes: &[usize]| -> Vec<Fleet> {
        (0..seeds)
            .flat_map(|seed_index| {
                let traffic_seed = split_seed(seed, seed_index as u64);
                sizes.iter().map(move |&sessions| Fleet {
                    seed_index,
                    plans: TrafficConfig {
                        sessions,
                        turns: 2,
                        arrival_spread_s: 10.0,
                        seed: traffic_seed,
                    }
                    .generate(),
                })
            })
            .collect()
    };
    let (platform, fleets, pool) = match kind {
        Kind::OpenLoop => (Platform::vrex48(), Vec::new(), None),
        Kind::TierHeadline => (
            Platform::vrex48_half_hbm_wide_window(),
            traffic(TIER_SEEDS, &TIER_FLEETS),
            None,
        ),
        Kind::PoolOverlap => {
            let platform = Platform::vrex48_half_hbm_wide_window();
            let sizes = POOL_PER_DEVICE.map(|n| n * POOL_DEVICES);
            let pool = Pool::new(&platform, POOL_DEVICES);
            (platform, traffic(POOL_SEEDS, &sizes), Some(pool))
        }
    };
    Inputs {
        kind,
        platform,
        open_loop: OpenLoopConfig {
            sessions: OPEN_LOOP_SESSIONS,
            arrival_rate_per_s: OPEN_LOOP_RATE_PER_S,
            turns: 1,
            seed,
        },
        fleets,
        pool,
        workers: workers.clamp(1, POOL_DEVICES),
    }
}

/// Span name of a single-device serve call under `admission`.
pub fn serve_span(admission: Admission) -> &'static str {
    match admission {
        Admission::RejectOnly => "serve.reject-only",
        Admission::TieredDemand => "serve.tiered-demand",
        Admission::TieredPrefetch => "serve.tiered-prefetch",
        Admission::TieredCluster => "serve.tiered-cluster",
    }
}

/// Span name of a pool serve call.
pub const POOL_SPAN: &str = "sharded_serve.tiered-prefetch-overlap";

/// One serve call of a unit.
pub struct Call {
    /// `serve.host_s.<label>` this call is timed under.
    pub label: &'static str,
    /// Calls sharing a key compete for `rt_capacity` (most real-time
    /// streams any fleet of the group sustains); `None` = not counted.
    rt_group: Option<usize>,
    /// Index of the fleet served in `Inputs::fleets`; `None` for the
    /// open-loop stream.
    fleet: Option<usize>,
    report: CallReport,
}

/// What a serve call returned.
enum CallReport {
    Single(Box<ServeReport>),
    Pool(ShardedServeReport),
}

impl Call {
    /// Per-device reports (one for a single-device call).
    fn reports(&self) -> &[ServeReport] {
        match &self.report {
            CallReport::Single(r) => std::slice::from_ref(r),
            CallReport::Pool(p) => &p.devices,
        }
    }

    /// The pool report, for a pool call.
    fn pool(&self) -> Option<&ShardedServeReport> {
        match &self.report {
            CallReport::Single(_) => None,
            CallReport::Pool(p) => Some(p),
        }
    }
}

/// Everything one unit produced.
pub struct Unit {
    /// The serve calls, in order.
    pub calls: Vec<Call>,
    /// Step-price memo statistics at the end of the unit.
    pub prices: PriceStats,
    /// Plans handed out through the counted plan source.
    pub plans_streamed: u64,
}

impl Unit {
    /// Pool reports of the unit, in call order.
    pub fn pool_reports(&self) -> Vec<&ShardedServeReport> {
        self.calls.iter().filter_map(Call::pool).collect()
    }
}

/// Runs one unit, pool serves on `workers` threads. The spans of one
/// serve call share its call number as their group.
pub fn run_unit<P: Probe>(inputs: &mut Inputs, probe: &mut P, workers: usize) -> Unit {
    let mut prices = Prices::new(&inputs.platform);
    let mut calls = Vec::new();
    let mut plans_streamed = 0;
    let root = probe.enter("workload", 0);
    match inputs.kind {
        Kind::OpenLoop => {
            let cfg = sim::config(Admission::RejectOnly, false);
            let span = probe.enter(serve_span(Admission::RejectOnly), 1);
            let mut source = CountedSource::new(inputs.open_loop.stream(), probe, 1);
            let report = sim::serve_source(&mut prices, &mut source, &cfg);
            plans_streamed = source.plans;
            probe.exit(span);
            calls.push(Call {
                label: Admission::RejectOnly.label(),
                rt_group: None,
                fleet: None,
                report: CallReport::Single(Box::new(report)),
            });
        }
        Kind::TierHeadline => {
            for seed_index in 0..TIER_SEEDS {
                for admission in TIER_POLICIES {
                    let cfg = sim::config(admission, false);
                    for (fi, fleet) in inputs.fleets.iter().enumerate() {
                        if fleet.seed_index != seed_index {
                            continue;
                        }
                        let group = calls.len() as u64 + 1;
                        let span = probe.enter(serve_span(admission), group);
                        let report = sim::serve_fleet(&mut prices, &fleet.plans, &cfg);
                        probe.exit(span);
                        calls.push(Call {
                            label: admission.label(),
                            rt_group: (admission == Admission::TieredCluster).then_some(seed_index),
                            fleet: Some(fi),
                            report: CallReport::Single(Box::new(report)),
                        });
                    }
                }
            }
        }
        Kind::PoolOverlap => {
            let cfg = sim::config(Admission::TieredPrefetch, true);
            let pool = inputs.pool.as_mut().expect("pool workload has a pool");
            for seed_index in 0..POOL_SEEDS {
                for (pi, placement) in [Placement::LoadBalanced, Placement::Migrate]
                    .into_iter()
                    .enumerate()
                {
                    for (fi, fleet) in inputs.fleets.iter().enumerate() {
                        if fleet.seed_index != seed_index {
                            continue;
                        }
                        let group = calls.len() as u64 + 1;
                        let span = probe.enter(POOL_SPAN, group);
                        let report =
                            pool.serve(&mut prices, &fleet.plans, &cfg, placement, workers);
                        probe.exit(span);
                        calls.push(Call {
                            label: "tiered-prefetch-overlap",
                            rt_group: Some(seed_index * 2 + pi),
                            fleet: Some(fi),
                            report: CallReport::Pool(report),
                        });
                    }
                }
            }
        }
    }
    probe.exit(root);
    Unit {
        calls,
        prices: prices.stats(),
        plans_streamed,
    }
}

/// Sums and maxima of the serving counters over a unit.
#[derive(Debug, Default)]
struct Totals {
    offered: u64,
    admitted: u64,
    rejected: u64,
    real_time: u64,
    frames: u64,
    events: u64,
    queue_pushes: u64,
    queue_peak: u64,
    admission_passes: u64,
    admission_checks: u64,
    batches: u64,
    members: u64,
    active_peak: u64,
    pending_peak: u64,
    step_completes: u64,
    spec_clusters: u64,
    demand_clusters: u64,
    mispredicted_clusters: u64,
    spec_bytes: u64,
    demand_bytes: u64,
    spilled_sessions: u64,
    spilled_bytes: u64,
    promoted_bytes: u64,
    restored_bytes: u64,
    tier_hits: u64,
    tier_misses: u64,
    hidden_s: f64,
    exposed_s: f64,
    migrations: u64,
    migrated_bytes: u64,
    fabric_busy_ps: u64,
    device_admitted: Vec<u64>,
}

/// The checked, summarized outcome of one unit.
pub struct Analysis {
    /// Behaviour digest of every session outcome.
    pub digest: Digest,
    /// Invariant violations found.
    pub violations: Vec<String>,
    /// Serve calls with at least one violation.
    pub failed_calls: u64,
    /// Sessions offered per unit.
    pub sessions: u64,
    /// Simulated frames offered per unit.
    pub frames: u64,
    totals: Totals,
    lags: Vec<f64>,
    ttfts: Vec<f64>,
    tpots: Vec<f64>,
    rt_capacity: Option<f64>,
}

const GIB: f64 = (1u64 << 30) as f64;

fn outcome_code(o: SessionOutcome) -> u64 {
    match o {
        SessionOutcome::Admitted => 0,
        SessionOutcome::AdmittedAfterWait => 1,
        SessionOutcome::Rejected => 2,
    }
}

fn session_hash(s: &SessionServeReport) -> u64 {
    let mut h = Fnv::default();
    h.u64(s.id as u64);
    h.u64(outcome_code(s.outcome));
    h.f64(s.waited_s);
    h.u64(s.frames_offered as u64);
    h.u64(s.max_queue_depth as u64);
    h.f64(s.mean_frame_lag_s);
    h.f64(s.max_frame_lag_s);
    h.u64(u64::from(s.real_time));
    for &x in s.frame_lags_s.iter().chain(&s.ttft_s).chain(&s.tpot_s) {
        h.f64(x);
    }
    h.u64(s.final_cache_tokens as u64);
    h.u64(u64::from(s.spilled));
    h.f64(s.tier_exposed_s);
    h.0
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Checks one report's invariants, appending violations to `bad`.
fn check_report(r: &ServeReport, what: &str, bad: &mut Vec<String>) {
    if r.offered != r.admitted + r.rejected {
        bad.push(format!(
            "{what}: offered {} != admitted {} + rejected {}",
            r.offered, r.admitted, r.rejected
        ));
    }
    let admitted: Vec<_> = r
        .sessions
        .iter()
        .filter(|s| s.outcome != SessionOutcome::Rejected)
        .collect();
    let pool = |f: fn(&SessionServeReport) -> &Vec<f64>| {
        sorted(admitted.iter().flat_map(|s| f(s).iter().copied()).collect())
    };
    let lags = pool(|s| &s.frame_lags_s);
    let ttft = pool(|s| &s.ttft_s);
    let tpot = pool(|s| &s.tpot_s);
    let p = crate::report::percentile_sorted;
    let pairs = [
        ("frame_lag_p50", p(&lags, 50.0), r.frame_lag_p50_s),
        ("frame_lag_p99", p(&lags, 99.0), r.frame_lag_p99_s),
        ("ttft_p50", p(&ttft, 50.0), r.ttft_p50_s),
        ("ttft_p99", p(&ttft, 99.0), r.ttft_p99_s),
        ("tpot_p50", p(&tpot, 50.0), r.tpot_p50_s),
        ("tpot_p99", p(&tpot, 99.0), r.tpot_p99_s),
    ];
    for (name, pooled, reported) in pairs {
        if pooled.to_bits() != reported.to_bits() {
            bad.push(format!(
                "{what}: pooled {name} {pooled} != reported {reported}"
            ));
        }
    }
}

/// The session ids each call of a unit offers, sorted, in call order
/// (the same for every unit of `inputs`).
pub fn offered_ids(inputs: &Inputs, unit: &Unit) -> Vec<Vec<usize>> {
    unit.calls
        .iter()
        .map(|call| {
            let mut ids: Vec<usize> = match call.fleet {
                Some(f) => inputs.fleets[f].plans.iter().map(|p| p.id).collect(),
                None => (0..inputs.open_loop.sessions).collect(),
            };
            ids.sort_unstable();
            ids
        })
        .collect()
}

/// Checks a unit for its invariants, given the ids each call offered
/// ([`offered_ids`]), and summarizes it.
pub fn analyse(offered_ids: &[Vec<usize>], unit: &Unit) -> Analysis {
    let mut bad = Vec::new();
    let mut t = Totals::default();
    let mut digest = Digest::default();
    // Pooled samples are sized exactly up front, so peak memory does not
    // depend on where a doubling growth step happens to fall.
    let admitted = || {
        unit.calls
            .iter()
            .flat_map(Call::reports)
            .flat_map(|r| &r.sessions)
            .filter(|s| s.outcome != SessionOutcome::Rejected)
    };
    let mut lags = Vec::with_capacity(admitted().map(|s| s.frame_lags_s.len()).sum());
    let mut ttfts = Vec::with_capacity(admitted().map(|s| s.ttft_s.len()).sum());
    let mut tpots = Vec::with_capacity(admitted().map(|s| s.tpot_s.len()).sum());
    let mut rt_best: std::collections::BTreeMap<usize, u64> = Default::default();
    let mut failed_calls = 0;
    for (ci, call) in unit.calls.iter().enumerate() {
        let violations_before = bad.len();
        let what = format!("call {ci} ({})", call.label);
        // Each offered session terminates exactly once.
        let mut seen: Vec<usize> = call
            .reports()
            .iter()
            .flat_map(|r| r.sessions.iter().map(|s| s.id))
            .collect();
        seen.sort_unstable();
        let offered: &[usize] = offered_ids.get(ci).map_or(&[], Vec::as_slice);
        if seen != offered {
            bad.push(format!(
                "{what}: {} terminal outcomes for {} offered sessions, or ids differ",
                seen.len(),
                offered.len()
            ));
        }
        let offered_total: usize = call.reports().iter().map(|r| r.offered).sum();
        if offered_total != offered.len() {
            bad.push(format!(
                "{what}: {offered_total} offered of {} generated",
                offered.len()
            ));
        }
        if let Some(p) = call.pool() {
            let mut placed: Vec<usize> = p.placements.iter().map(|&(id, _)| id).collect();
            placed.sort_unstable();
            if placed != offered {
                bad.push(format!("{what}: placements do not cover each session once"));
            }
            t.migrations += p.interconnect.migrations as u64;
            t.migrated_bytes += p.interconnect.migrated_bytes;
            t.fabric_busy_ps += p.interconnect.busy_ps;
            let mut h = Fnv::default();
            for &(id, dev) in &p.placements {
                h.u64(id as u64);
                h.u64(dev as u64);
            }
            h.u64(p.interconnect.migrated_bytes);
            h.u64(p.interconnect.busy_ps);
            digest.add(ci as u64, u64::MAX, h.0);
        }
        let mut call_rt = 0;
        for (di, r) in call.reports().iter().enumerate() {
            check_report(r, &format!("{what} device {di}"), &mut bad);
            if t.device_admitted.len() <= di {
                t.device_admitted.resize(di + 1, 0);
            }
            t.device_admitted[di] += r.admitted as u64;
            t.offered += r.offered as u64;
            t.admitted += r.admitted as u64;
            t.rejected += r.rejected as u64;
            t.real_time += r.real_time_sessions as u64;
            call_rt += r.real_time_sessions as u64;
            let c = &r.counters;
            t.events += c.events_fired();
            t.queue_pushes += c.queue_pushes;
            t.queue_peak = t.queue_peak.max(c.queue_peak as u64);
            t.admission_passes += c.admission_passes;
            t.admission_checks += c.admission_checks;
            t.batches += c.batches_formed;
            t.members += c.batch_members;
            t.active_peak = t.active_peak.max(c.active_peak as u64);
            t.pending_peak = t.pending_peak.max(c.pending_peak as u64);
            t.step_completes += c.step_complete_events;
            t.spec_clusters += c.spec_clusters;
            t.demand_clusters += c.demand_clusters;
            t.mispredicted_clusters += c.mispredicted_clusters;
            t.spec_bytes += c.spec_restore_bytes;
            t.demand_bytes += c.demand_restore_bytes;
            if let Some(tr) = &r.tiering {
                t.spilled_sessions += tr.spilled_sessions as u64;
                t.spilled_bytes += tr.spilled_bytes;
                t.promoted_bytes += tr.promoted_bytes;
                t.restored_bytes += tr.restored_bytes;
                t.tier_hits += tr.tier_hit_steps;
                t.tier_misses += tr.tier_miss_steps;
                t.hidden_s += tr.hidden_s;
                t.exposed_s += tr.exposed_s;
            }
            for s in &r.sessions {
                t.frames += s.frames_offered as u64;
                digest.add(ci as u64, s.id as u64, session_hash(s));
                if s.outcome != SessionOutcome::Rejected {
                    lags.extend_from_slice(&s.frame_lags_s);
                    ttfts.extend_from_slice(&s.ttft_s);
                    tpots.extend_from_slice(&s.tpot_s);
                }
            }
        }
        if let Some(g) = call.rt_group {
            let best = rt_best.entry(g).or_default();
            *best = (*best).max(call_rt);
        }
        failed_calls += u64::from(bad.len() > violations_before);
    }
    let rt: Vec<f64> = rt_best.values().map(|&v| v as f64).collect();
    Analysis {
        digest,
        violations: bad,
        failed_calls,
        sessions: t.offered,
        frames: t.frames,
        totals: t,
        lags: sorted(lags),
        ttfts: sorted(ttfts),
        tpots: sorted(tpots),
        rt_capacity: (!rt.is_empty()).then(|| crate::report::median(&rt)),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Analysis {
    /// Simulated end-to-end outcomes (all `sim`, all unvalidated).
    pub fn outcomes(&self, kind: Kind, out: &mut Metrics) {
        let t = &self.totals;
        let (cap, note) = match (self.rt_capacity, kind) {
            (Some(c), Kind::TierHeadline) => (
                c,
                format!("tiered-cluster, median over {TIER_SEEDS} traffic seeds; unvalidated"),
            ),
            (Some(c), _) => (
                c,
                format!("median over {POOL_SEEDS} traffic seeds x 2 placements; unvalidated"),
            ),
            (None, _) => (0.0, "n/a: open loop has no fleet-size grid".to_string()),
        };
        out.push("rt_capacity", cap, "streams", Source::Sim, note);
        out.push(
            "rt_share",
            ratio(t.real_time as f64, t.offered as f64),
            "ratio",
            Source::Sim,
            format!(
                "n={} offered sessions; rejected count as misses; unvalidated",
                t.offered
            ),
        );
        out.push(
            "reject_ratio",
            ratio(t.rejected as f64, t.offered as f64),
            "ratio",
            Source::Sim,
            format!("n={} offered sessions; unvalidated", t.offered),
        );
        push_percentile(
            out,
            "frame_lag_p50_s",
            &self.lags,
            50.0,
            Source::Sim,
            "frames",
        );
        push_percentile(
            out,
            "frame_lag_p99_s",
            &self.lags,
            99.0,
            Source::Sim,
            "frames",
        );
        push_percentile(out, "ttft_p50_s", &self.ttfts, 50.0, Source::Sim, "turns");
        push_percentile(out, "ttft_p99_s", &self.ttfts, 99.0, Source::Sim, "turns");
        push_percentile(out, "tpot_p99_s", &self.tpots, 99.0, Source::Sim, "tokens");
        let tiered = if kind == Kind::OpenLoop {
            "n/a: reject-only admission never restores"
        } else {
            "unvalidated"
        };
        out.push(
            "restored_gib",
            t.restored_bytes as f64 / GIB,
            "GiB",
            Source::Sim,
            tiered,
        );
        out.push("exposed_s", t.exposed_s, "s", Source::Sim, tiered);
    }

    /// Per-layer counters of the serve, pricing, memory, prefetch,
    /// placement and engine layers.
    pub fn layers(&self, unit: &Unit, unit_wall_s: f64, out: &mut Metrics) {
        let t = &self.totals;
        let sim = Source::Sim;
        let count = |out: &mut Metrics, name: &str, v: u64, note: &str| {
            out.push(name, v as f64, "count", sim, note)
        };
        count(out, "serve.events", t.events, "per unit");
        out.push(
            "serve.events_per_s",
            ratio(t.events as f64, unit_wall_s),
            "1/s",
            Source::Host,
            "events per host second, untraced",
        );
        count(out, "serve.queue_pushes", t.queue_pushes, "per unit");
        count(out, "serve.queue_peak", t.queue_peak, "max over calls");
        count(
            out,
            "serve.admission_passes",
            t.admission_passes,
            "per unit",
        );
        count(
            out,
            "serve.admission_checks",
            t.admission_checks,
            "per unit",
        );
        count(out, "serve.batches", t.batches, "per unit");
        out.push(
            "serve.members_per_batch",
            ratio(t.members as f64, t.batches as f64),
            "ratio",
            sim,
            "",
        );
        count(out, "serve.active_peak", t.active_peak, "max over calls");
        count(out, "serve.pending_peak", t.pending_peak, "max over calls");

        let p = unit.prices;
        count(
            out,
            "pricing.lookups",
            p.lookups,
            "per unit, one memo per unit",
        );
        count(out, "pricing.misses", p.misses, "per unit");
        out.push(
            "pricing.hit_ratio",
            ratio((p.lookups - p.misses) as f64, p.lookups as f64),
            "ratio",
            sim,
            "",
        );
        count(out, "pricing.entries", p.entries, "at unit end");

        count(
            out,
            "memory.spilled_sessions",
            t.spilled_sessions,
            "per unit",
        );
        out.push(
            "memory.spilled_gib",
            t.spilled_bytes as f64 / GIB,
            "GiB",
            sim,
            "",
        );
        out.push(
            "memory.promoted_gib",
            t.promoted_bytes as f64 / GIB,
            "GiB",
            sim,
            "",
        );
        out.push(
            "memory.tier_hit_ratio",
            ratio(t.tier_hits as f64, (t.tier_hits + t.tier_misses) as f64),
            "ratio",
            sim,
            format!("n={} tiered steps", t.tier_hits + t.tier_misses),
        );
        out.push("memory.hidden_s", t.hidden_s, "s", sim, "");
        out.push(
            "prefetch.spec_gib",
            t.spec_bytes as f64 / GIB,
            "GiB",
            sim,
            "",
        );
        out.push(
            "prefetch.demand_gib",
            t.demand_bytes as f64 / GIB,
            "GiB",
            sim,
            "",
        );
        out.push(
            "prefetch.useful_ratio",
            ratio(t.spec_bytes as f64, (t.spec_bytes + t.demand_bytes) as f64),
            "ratio",
            sim,
            "spec / (spec + demand)",
        );
        count(out, "prefetch.spec_clusters", t.spec_clusters, "");
        count(out, "prefetch.demand_clusters", t.demand_clusters, "");
        count(
            out,
            "prefetch.mispredicted_clusters",
            t.mispredicted_clusters,
            "",
        );

        count(out, "placement.migrations", t.migrations, "");
        out.push(
            "placement.migrated_gib",
            t.migrated_bytes as f64 / GIB,
            "GiB",
            sim,
            "",
        );
        out.push(
            "placement.fabric_busy_s",
            t.fabric_busy_ps as f64 * 1e-12,
            "s",
            sim,
            "",
        );
        let adm = &t.device_admitted;
        let mean = ratio(adm.iter().sum::<u64>() as f64, adm.len() as f64);
        let imbalance = if adm.len() > 1 {
            ratio(adm.iter().copied().max().unwrap_or(0) as f64, mean)
        } else {
            0.0
        };
        out.push(
            "placement.imbalance",
            imbalance,
            "ratio",
            sim,
            "max / mean admitted per device; 0 = single device",
        );
        count(
            out,
            "engine.step_completes",
            t.step_completes,
            "overlapped execution only",
        );
    }
}

/// Pipeline stages and whole steps of the step model at the workload's
/// headline shape: its platform, the initial cache, batch 1.
pub fn step_layers(inputs: &Inputs, out: &mut Metrics) {
    let s = sim::step_shape(&inputs.platform, sim::INITIAL_CACHE_TOKENS, 1);
    let note = format!(
        "{} at {}K tokens, batch 1; unvalidated",
        inputs.platform.label(),
        sim::INITIAL_CACHE_TOKENS / 1000
    );
    for (stage, l) in [("frame", s.frame_layer), ("decode", s.decode_layer)] {
        for (part, ps) in [
            ("dense", l.dense_ps),
            ("attention", l.attention_ps),
            ("prediction", l.prediction_ps),
            ("fetch", l.fetch_ps),
            ("layer", l.layer_ps),
        ] {
            out.push(
                format!("pipeline.{stage}.{part}_us"),
                ps as f64 * 1e-6,
                "us",
                Source::Sim,
                note.as_str(),
            );
        }
    }
    out.push(
        "e2e.frame_step_ms",
        s.frame_step_ms,
        "ms",
        Source::Sim,
        note.as_str(),
    );
    out.push(
        "e2e.decode_step_ms",
        s.decode_step_ms,
        "ms",
        Source::Sim,
        note.as_str(),
    );
    out.push(
        "e2e.frame_energy_mj",
        s.frame_energy_mj,
        "mJ",
        Source::Sim,
        note.as_str(),
    );
}

/// The paper references the step model can be checked against,
/// printed beside the model's own numbers. Not gated.
pub fn print_model_error() {
    const CACHES: [usize; 5] = [1_000, 5_000, 10_000, 20_000, 40_000];
    const PAPER_FRAME_MS: [f64; 5] = [121.0, 123.0, 198.0, 200.0, 254.0];
    let v8 = Platform::vrex8();
    println!("model error vs paper (V-Rex8 + ReSV, batch 1; not gated):");
    for (cache, paper) in CACHES.into_iter().zip(PAPER_FRAME_MS) {
        let s = sim::step_shape(&v8, cache, 1);
        println!(
            "  frame latency @{:>2}K: model {:>7.1} ms  paper {paper:>5.0} ms  error {:+6.1}%   \
             TPOT: model {:>5.1} ms  paper 89-97 ms",
            cache / 1000,
            s.frame_step_ms,
            (s.frame_step_ms / paper - 1.0) * 100.0,
            s.decode_step_ms,
        );
    }
    println!("  every other simulated number is unvalidated against the paper");
}
