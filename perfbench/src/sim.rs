//! The benchmark's only door into `vrex_system`.
//!
//! Every call into the serving simulator and the step model goes
//! through this module, using only the default `ServeConfig`
//! constructors and the plain serve entry points. When the simulator's
//! entry points are consolidated, this file is the one to change.

use vrex_model::ModelConfig;
use vrex_system::memory::AdmissionPolicy;
use vrex_system::pipeline::{layer_costs, LayerCosts, Workload};
use vrex_system::{
    serve_sharded_with_cache_in, serve_stream, serve_with_cache, DevicePool, Method,
    PlacementPolicy, PlatformSpec, ServeConfig, ShardScratch, StepPriceCache, SystemModel,
};
use vrex_workload::traffic::{PlanSource, SessionPlan};

pub use vrex_system::serve::SessionOutcome;
pub use vrex_system::SessionServeReport;
pub use vrex_system::{ServeReport, ShardedServeReport};

/// The cache length every simulator workload starts its sessions with.
pub const INITIAL_CACHE_TOKENS: usize = 32_000;

/// Admission policy of one serve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Sessions that do not fit device memory are rejected.
    RejectOnly,
    /// Tiered spill, restores fetched on demand.
    TieredDemand,
    /// Tiered spill with speculative whole-session prefetch.
    TieredPrefetch,
    /// Tiered spill and prefetch at hash-cluster granularity.
    TieredCluster,
}

impl Admission {
    /// Label used in metric names (`serve.host_s.<label>`).
    pub fn label(self) -> &'static str {
        match self {
            Admission::RejectOnly => "reject-only",
            Admission::TieredDemand => "tiered-demand",
            Admission::TieredPrefetch => "tiered-prefetch",
            Admission::TieredCluster => "tiered-cluster",
        }
    }
}

/// Placement policy of a pool serve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Least projected resident demand.
    LoadBalanced,
    /// Load-balanced with KV migration over the fabric.
    Migrate,
}

/// A simulated platform: device, retrieval method and served model.
#[derive(Debug, Clone)]
pub struct Platform {
    spec: PlatformSpec,
    sys: SystemModel,
    model: ModelConfig,
}

impl Platform {
    fn new(spec: PlatformSpec) -> Self {
        Self {
            sys: SystemModel::new(spec.clone(), Method::ReSV),
            spec,
            model: ModelConfig::llama3_8b(),
        }
    }

    /// V-Rex48 + ReSV serving Llama-3 8B (the open-loop fleet platform).
    pub fn vrex48() -> Self {
        Self::new(PlatformSpec::vrex48())
    }

    /// The tiering headline unit: V-Rex48 + ReSV with half the HBM and a
    /// 32K-token resident window per stream, so fleets overflow device
    /// memory long before compute saturates.
    pub fn vrex48_half_hbm_wide_window() -> Self {
        let mut spec = PlatformSpec::vrex48();
        spec.mem_capacity /= 2;
        spec.hot_window_tokens = 32_768;
        Self::new(spec)
    }

    /// V-Rex8 + ReSV, the edge platform the paper's latency figures use.
    pub fn vrex8() -> Self {
        Self::new(PlatformSpec::vrex8())
    }

    /// Platform label for reports.
    pub fn label(&self) -> String {
        self.sys.label()
    }
}

/// Step-price memo shared by the serve calls of one workload unit.
#[derive(Debug)]
pub struct Prices(StepPriceCache);

/// Lookup statistics of a [`Prices`] memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PriceStats {
    /// Hits plus misses.
    pub lookups: u64,
    /// Lookups that priced a new shape.
    pub misses: u64,
    /// Distinct shapes held.
    pub entries: u64,
}

impl Prices {
    /// An empty memo for `platform`.
    pub fn new(platform: &Platform) -> Self {
        Self(StepPriceCache::new(&platform.sys, &platform.model))
    }

    /// Lookup statistics so far.
    pub fn stats(&self) -> PriceStats {
        PriceStats {
            lookups: self.0.hits() + self.0.misses(),
            misses: self.0.misses(),
            entries: self.0.len() as u64,
        }
    }
}

/// The paper's real-time serving configuration (2 FPS, 10 s patience)
/// under `admission`, serialized or overlapped.
pub fn config(admission: Admission, overlap: bool) -> ServeConfig {
    let base = ServeConfig::real_time(INITIAL_CACHE_TOKENS);
    let admission = match admission {
        Admission::RejectOnly => return base.with_overlap(overlap),
        Admission::TieredDemand => AdmissionPolicy::tiered_demand(),
        Admission::TieredPrefetch => AdmissionPolicy::tiered_speculative(),
        Admission::TieredCluster => AdmissionPolicy::tiered_cluster(),
    };
    ServeConfig { admission, ..base }.with_overlap(overlap)
}

/// Serves a materialized fleet on one device.
pub fn serve_fleet(prices: &mut Prices, plans: &[SessionPlan], cfg: &ServeConfig) -> ServeReport {
    serve_with_cache(&mut prices.0, plans, cfg)
}

/// Serves a streamed fleet on one device.
pub fn serve_source(
    prices: &mut Prices,
    source: &mut dyn PlanSource,
    cfg: &ServeConfig,
) -> ServeReport {
    serve_stream(&mut prices.0, source, cfg)
}

/// A pool of identical devices with its reusable routing buffers.
#[derive(Debug)]
pub struct Pool {
    pool: DevicePool,
    scratch: ShardScratch,
}

impl Pool {
    /// `devices` copies of `platform`'s device on the default fabric.
    pub fn new(platform: &Platform, devices: usize) -> Self {
        Self {
            pool: DevicePool::homogeneous(platform.spec.clone(), devices),
            scratch: ShardScratch::new(),
        }
    }

    /// Places and serves a fleet across the pool on `workers` threads.
    pub fn serve(
        &mut self,
        prices: &mut Prices,
        plans: &[SessionPlan],
        cfg: &ServeConfig,
        placement: Placement,
        workers: usize,
    ) -> ShardedServeReport {
        let policy = match placement {
            Placement::LoadBalanced => PlacementPolicy::LoadBalanced,
            Placement::Migrate => PlacementPolicy::Migrate,
        };
        serve_sharded_with_cache_in(
            &mut prices.0,
            &self.pool,
            plans,
            cfg,
            policy,
            workers,
            &mut self.scratch,
        )
    }
}

/// Per-decoder-layer stage costs of one step, in picoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStages {
    /// Dense projections and FFN.
    pub dense_ps: u64,
    /// Attention over the selected context.
    pub attention_ps: u64,
    /// KV prediction.
    pub prediction_ps: u64,
    /// Cold-KV fetch.
    pub fetch_ps: u64,
    /// Layer latency after overlap.
    pub layer_ps: u64,
}

impl From<LayerCosts> for LayerStages {
    fn from(c: LayerCosts) -> Self {
        Self {
            dense_ps: c.dense_ps,
            attention_ps: c.attention_ps,
            prediction_ps: c.prediction_ps,
            fetch_ps: c.fetch_ps,
            layer_ps: c.layer_ps,
        }
    }
}

/// The step model at one (cache, batch) shape.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepShape {
    /// Per-layer stages of a frame step.
    pub frame_layer: LayerStages,
    /// Per-layer stages of a decode step.
    pub decode_layer: LayerStages,
    /// Whole frame step latency, ms.
    pub frame_step_ms: f64,
    /// Whole decode step latency, ms.
    pub decode_step_ms: f64,
    /// Frame step energy, mJ.
    pub frame_energy_mj: f64,
}

/// Prices one frame and one decode step of `platform` at `cache_tokens`
/// and `batch`.
pub fn step_shape(platform: &Platform, cache_tokens: usize, batch: usize) -> StepShape {
    let m = &platform.model;
    let frame = platform.sys.frame_step(m, cache_tokens, batch);
    StepShape {
        frame_layer: layer_costs(
            &platform.spec,
            Method::ReSV,
            &Workload::frame(m, cache_tokens, batch),
        )
        .into(),
        decode_layer: layer_costs(
            &platform.spec,
            Method::ReSV,
            &Workload::decode(m, cache_tokens, batch),
        )
        .into(),
        frame_step_ms: frame.latency_ms(),
        decode_step_ms: platform
            .sys
            .decode_step(m, cache_tokens, batch)
            .latency_ms(),
        frame_energy_mj: frame.energy.total_j() * 1e3,
    }
}
