//! Tiered KV-cache residency policy for the serving scheduler.
//!
//! `vrex-hwsim`'s [`tier`](vrex_hwsim::tier) module knows how fast
//! bytes move between device HBM, host DRAM, and the SSD; this module
//! decides **whose** bytes move and **when**:
//!
//! * every stream's *resident demand* (its full cache for in-memory
//!   methods, its hot window for offloading methods — the same bytes
//!   [`SystemModel::is_oom`] counts) is tracked against the device
//!   budget;
//! * when the device overflows, the **coldest** streams (longest since
//!   they last ran) are spilled down — host DRAM first, then SSD.
//!   Spill writebacks stream behind compute and are not charged to the
//!   critical path;
//! * a spilled stream that reaches the front of the scheduler pays a
//!   **tier miss**: the selected share of its spilled bytes must be
//!   restored before its step. With a speculative [`PrefetchPolicy`]
//!   the restore is issued when the work item becomes visible, so the
//!   transfer overlaps the queue wait and the step's own layer-by-layer
//!   compute; only the exposed remainder extends the step;
//! * when a stream retires, its device bytes free up and the hottest
//!   spilled streams are promoted back (asynchronously, off the
//!   critical path).
//!
//! The manager is deterministic: victims and promotions order by
//! (last-active time, session id), and every duration comes from the
//! closed-form hardware models.
//!
//! This module moves bytes *vertically* (between tiers of one device's
//! hierarchy). The multi-device [`crate::placement`] layer moves them
//! *horizontally* — between devices over the NVLink / PCIe-switch
//! fabric — and reuses the same decide-then-drain idiom: placement
//! decisions queue [`crate::placement::DeviceMigration`]s exactly as
//! this manager queues [`MigrationTask`]s behind
//! [`TieredKvManager::take_migrations`], and both are priced in
//! [`MIGRATION_CHUNK_BYTES`] DMA chunks.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use vrex_hwsim::tier::{MemTier, TierCapacities, TierPath};
use vrex_model::ModelConfig;
use vrex_retrieval::prefetch::{
    ClusterPrefetch, ClusterPrefetchRequest, NoPrefetch, PrefetchPolicy, PrefetchRequest,
    SpeculativePrefetch,
};

use crate::e2e::SystemModel;
use crate::pricing::PriceKeyHasher;

/// DMA chunk size for bulk tier migrations (spills and restores move
/// whole resident-window blocks, so they stream at FlexGen-like
/// granularity regardless of the method's per-step fetch chunk).
pub const MIGRATION_CHUNK_BYTES: u64 = 256 * 1024;

/// How the serving scheduler treats streams that do not fit in device
/// memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionPolicy {
    /// PR 2 behaviour: wait FIFO for device memory, reject on timeout.
    RejectOnly,
    /// Spill cold streams' KV down the memory hierarchy instead of
    /// rejecting; reject only when even the *whole* hierarchy is full.
    Tiered {
        /// How restores are scheduled (demand vs. speculative).
        prefetch: PrefetchMode,
    },
}

impl AdmissionPolicy {
    /// Tiered admission with InfiniGen-style speculative prefetch.
    pub fn tiered_speculative() -> Self {
        AdmissionPolicy::Tiered {
            prefetch: PrefetchMode::Speculative { accuracy: 0.9 },
        }
    }

    /// Tiered admission with pure demand fetching.
    pub fn tiered_demand() -> Self {
        AdmissionPolicy::Tiered {
            prefetch: PrefetchMode::Demand,
        }
    }

    /// Tiered admission with WiCSum-ranked cluster-granular
    /// speculation: spill and restore move hash-cluster sets instead of
    /// flat byte fractions of whole sessions.
    pub fn tiered_cluster() -> Self {
        AdmissionPolicy::Tiered {
            prefetch: PrefetchMode::Cluster { accuracy: 0.9 },
        }
    }
}

/// When restore migrations are issued, relative to the step that needs
/// them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrefetchMode {
    /// Restores start when the step starts; nothing is hidden.
    Demand,
    /// Restores are issued as soon as the work item is visible
    /// (InfiniGen-style speculation at the given accuracy), hiding the
    /// transfer behind the wait window and the step's compute.
    Speculative {
        /// Fraction of speculated bytes that are the right ones.
        accuracy: f64,
    },
    /// Restores are planned as a WiCSum-ranked hash-cluster set: the
    /// predicted-hot cluster prefix streams up from work-visibility,
    /// and only mispredicted tail clusters are demand-fetched at batch
    /// formation (the [`ClusterPrefetch`] policy). The manager must
    /// have cluster tracking enabled
    /// ([`TieredKvManager::with_cluster_mode`]).
    Cluster {
        /// Fraction of predicted clusters that are the right ones.
        accuracy: f64,
    },
}

impl PrefetchMode {
    /// The retrieval-crate policy implementing this mode.
    pub fn policy(&self) -> Box<dyn PrefetchPolicy> {
        match self {
            PrefetchMode::Demand => Box::new(NoPrefetch),
            PrefetchMode::Speculative { accuracy } => Box::new(SpeculativePrefetch {
                accuracy: *accuracy,
            }),
            PrefetchMode::Cluster { accuracy } => Box::new(ClusterPrefetch {
                accuracy: *accuracy,
            }),
        }
    }

    /// Whether this mode speculates at hash-cluster granularity (the
    /// serving scheduler enables the manager's cluster tracking for
    /// it).
    pub fn is_cluster(&self) -> bool {
        matches!(self, PrefetchMode::Cluster { .. })
    }
}

/// Where one stream's resident KV currently lives.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Residency {
    /// Bytes in device memory.
    pub device_bytes: u64,
    /// Bytes spilled to host DRAM.
    pub host_bytes: u64,
    /// Bytes spilled to the SSD.
    pub ssd_bytes: u64,
    /// Simulation time this stream last executed (ps; spill coldness
    /// key).
    pub last_active_ps: u64,
}

impl Residency {
    /// Total tracked bytes.
    pub fn total_bytes(&self) -> u64 {
        self.device_bytes + self.host_bytes + self.ssd_bytes
    }

    /// Bytes below the device tier.
    pub fn spilled_bytes(&self) -> u64 {
        self.host_bytes + self.ssd_bytes
    }
}

/// Outcome of pricing one step's tier restore.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreOutcome {
    /// Total time the restore occupies the shared PCIe link (ps),
    /// hidden or not — the caller charges this against the link
    /// budget shared by a batch.
    pub miss_ps: u64,
    /// Migration time left exposed on the critical path (ps).
    pub exposed_ps: u64,
    /// Bytes restored speculatively (in flight from work-visibility;
    /// cluster plans only, zero on flat plans).
    pub spec_bytes: u64,
    /// Bytes demand-fetched at batch formation (cluster plans only).
    pub demand_bytes: u64,
    /// Clusters restored speculatively.
    pub spec_clusters: u64,
    /// Mispredicted clusters that were spilled and had to be
    /// demand-fetched.
    pub demand_clusters: u64,
    /// Total mispredicted clusters (including ones that happened to be
    /// device-resident and cost nothing).
    pub mispredicted_clusters: u64,
}

/// Per-session hash-cluster residency: which clusters sit below the
/// device tier, by **coldness rank** (0 = coldest cluster by the
/// previous step's WiCSum mass). The spilled set is always the
/// contiguous rank prefix `[0, s)`: demotion appends at rank `s`,
/// promotion pops the hottest spilled ranks, and a cascade moves the
/// coldest ranks of one tier down. A demotion moves a batch of equal
/// granules per destination, so the prefix is a short list of maximal
/// runs of equal `(tier, bytes)` and every walk over it costs O(runs),
/// not O(clusters). Bytes are frozen at demotion time; the session's
/// device bytes are the residency total minus the runs' bytes.
#[derive(Debug, Clone, Default)]
struct ClusterState {
    /// Spilled clusters as rank-ordered runs that tile `[0, s)`.
    runs: Vec<ClusterRun>,
    /// Steps this session has committed — rotates which tail clusters
    /// the misprediction model touches, so demand fetches are
    /// deterministic without a PRNG.
    step_seq: u64,
}

/// `len` consecutive coldness ranks from `first_rank`, each a spilled
/// cluster of `bytes_each` bytes on `tier`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClusterRun {
    first_rank: u64,
    len: u64,
    tier: MemTier,
    bytes_each: u64,
}

impl ClusterRun {
    fn end(&self) -> u64 {
        self.first_rank + self.len
    }
}

impl ClusterState {
    /// Appends `len` clusters of `bytes_each` on `tier` at rank `s`.
    fn push(&mut self, len: u64, tier: MemTier, bytes_each: u64) {
        if len == 0 {
            return;
        }
        let first_rank = self.runs.last().map_or(0, ClusterRun::end);
        match self.runs.last_mut() {
            Some(r) if r.tier == tier && r.bytes_each == bytes_each => r.len += len,
            _ => self.runs.push(ClusterRun {
                first_rank,
                len,
                tier,
                bytes_each,
            }),
        }
    }

    /// Adds the per-tier bytes of the spilled ranks in `[lo, hi)` to
    /// `bytes` and returns how many there are.
    fn sum_ranks(&self, lo: u64, hi: u64, bytes: &mut [u64; 3]) -> u64 {
        let mut count = 0;
        let start = self.runs.partition_point(|r| r.end() <= lo);
        for r in self.runs[start..].iter().take_while(|r| r.first_rank < hi) {
            let k = r.end().min(hi) - r.first_rank.max(lo);
            bytes[tier_index(r.tier)] += k * r.bytes_each;
            count += k;
        }
        count
    }
}

/// Cluster-mode knobs, fixed per manager instance.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ClusterModeCfg {
    /// Bytes per hash cluster (the method's fetch chunk).
    cluster_bytes: u64,
    /// Fraction of each session's clusters (the WiCSum-hot prefix)
    /// protected from first-pass spill.
    protected_ratio: f64,
}

/// Ceiling on clusters per session: above it, adjacent fetch chunks
/// are DMA-chained into one migration granule. Residency is kept as
/// rank runs, so no walk grows with the cluster count any more; the cap
/// exists only to keep the granule rule, and with it every spill,
/// restore and capacity figure, pinned. Methods whose chunk already
/// keeps a session under the cap (e.g. ReSV frame clusters) are
/// unaffected.
const MAX_CLUSTERS_PER_SESSION: u64 = 16384;

impl ClusterModeCfg {
    /// Effective migration granule for a session of `total` bytes:
    /// the method's fetch chunk, chained up just enough to respect
    /// [`MAX_CLUSTERS_PER_SESSION`].
    fn granule(&self, total: u64) -> u64 {
        self.cluster_bytes
            .max(total.div_ceil(MAX_CLUSTERS_PER_SESSION))
    }
}

/// One bulk KV migration the residency policy decided on — emitted by
/// spills and promotions for the scheduler to price and place on the
/// shared link as a real task (the resource-timeline serving path),
/// instead of the manager folding time into exposed-seconds itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationTask {
    /// Stream whose bytes move.
    pub session: usize,
    /// Source tier.
    pub from: MemTier,
    /// Destination tier.
    pub to: MemTier,
    /// Bytes moved.
    pub bytes: u64,
}

/// The priced shape of one step's tier restore, before any overlap
/// decision: how many bytes come from each spill tier, how long each
/// leg holds the shared link, and what fraction the prefetch policy
/// promises to have in flight ahead of the step.
///
/// [`TieredKvManager::plan_restore`] produces it; the serialized
/// scheduler folds it into exposed time via
/// [`TieredKvManager::step_restore`], while the overlapped scheduler
/// turns the legs into link reservations and commits the outcome with
/// [`TieredKvManager::commit_restore`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RestorePlan {
    /// Bytes restored from host DRAM.
    pub host_bytes: u64,
    /// Bytes restored from the SSD.
    pub ssd_bytes: u64,
    /// Link time of the host-DRAM leg (ps).
    pub host_ps: u64,
    /// Link time of the SSD leg (ps).
    pub ssd_ps: u64,
    /// Fraction of the restore the prefetch policy covers ahead of the
    /// step (already scaled by speculation accuracy). For cluster
    /// plans this is the speculated byte share, kept for display — the
    /// schedulers split cluster plans with exact integer byte ratios
    /// instead.
    pub coverage: f64,
    /// Bytes of the restore that are speculated (in flight from
    /// work-visibility). Cluster plans only; zero on flat plans.
    pub spec_bytes: u64,
    /// Bytes demand-fetched at batch formation (mispredicted
    /// clusters). Cluster plans only.
    pub demand_bytes: u64,
    /// Whether this is a cluster-granular plan (`spec_bytes` /
    /// `demand_bytes` partition [`Self::bytes`] and the hidden share
    /// must use integer byte math).
    pub cluster: bool,
    /// Session the plan belongs to — [`TieredKvManager::commit_restore`]
    /// advances that session's cluster step sequence.
    pub session: usize,
    /// Clusters restored speculatively.
    pub spec_clusters: u64,
    /// Mispredicted clusters that were spilled and demand-fetched.
    pub demand_clusters: u64,
    /// Total mispredicted clusters (spilled or not).
    pub mispredicted_clusters: u64,
}

impl RestorePlan {
    /// Total link occupancy of the restore (the two legs share one
    /// PCIe link, so they serialise).
    pub fn miss_ps(&self) -> u64 {
        self.host_ps + self.ssd_ps
    }

    /// Total bytes restored.
    pub fn bytes(&self) -> u64 {
        self.host_bytes + self.ssd_bytes
    }
}

/// Aggregate tiering statistics over a serving run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Bytes demoted below the device tier.
    pub spilled_bytes: u64,
    /// Bytes promoted back into freed device space (off-critical-path).
    pub promoted_bytes: u64,
    /// Bytes restored on the critical path for steps (tier misses).
    pub restored_bytes: u64,
    /// Per-stream step executions (one [`TieredKvManager::step_restore`]
    /// call, i.e. one batch member) that ran fully device-resident.
    pub tier_hit_steps: u64,
    /// Per-stream step executions that needed a restore migration.
    pub tier_miss_steps: u64,
    /// Migration time hidden behind prefetch overlap (ps).
    pub hidden_ps: u64,
    /// Migration time exposed on the critical path (ps).
    pub exposed_ps: u64,
}

/// Fleet-wide tier residency tracker and migration pricer.
#[derive(Debug)]
pub struct TieredKvManager {
    caps: TierCapacities,
    path: TierPath,
    chunk_bytes: u64,
    /// Tracked streams, sorted by session id (the scheduler's fleets
    /// are small, so a sorted vec beats a tree map on both lookup and
    /// the victim/promotion scans that iterate it in id order).
    sessions: Vec<(usize, Residency)>,
    /// Cluster-granular cold-data tracking, populated only when
    /// [`Self::with_cluster_mode`] enabled it: `clusters[i]` belongs to
    /// `sessions[i]`. The per-session `Residency` summary stays
    /// authoritative for byte totals.
    cluster_mode: Option<ClusterModeCfg>,
    clusters: Vec<ClusterState>,
    /// Fleet-wide resident bytes per tier (device, host, ssd), kept
    /// incrementally so the per-step budget checks are O(1) instead of
    /// a fleet scan (the scheduler grows streams every batch).
    used: [u64; 3],
    ever_spilled: std::collections::BTreeSet<usize>,
    stats: TierStats,
    /// Migrations decided since the last [`Self::take_migrations`]
    /// drain, in decision order.
    pending_migrations: Vec<MigrationTask>,
    /// Reused buffer for the coldness order of the spill and promotion
    /// sweeps as `(last_active_ps, slot)`, so they allocate nothing per
    /// call (slot order is id order, so it breaks ties by id).
    order_scratch: Vec<(u64, usize)>,
    /// Memoized [`TierPath::migrate_ps`] at the manager's chunk size,
    /// keyed by (from, to, bytes). `step_restore` re-prices repeated
    /// (spilled bytes × ratio) shapes per batch member; the memo turns
    /// every repeat into one hash lookup, bit-identical to the closed
    /// form (oracle-tested).
    migration_prices: HashMap<(u8, u8, u64), u64, BuildHasherDefault<PriceKeyHasher>>,
    price_hits: u64,
    price_misses: u64,
}

impl TieredKvManager {
    /// Creates a manager over explicit capacities and links.
    pub fn new(caps: TierCapacities, path: TierPath) -> Self {
        Self {
            caps,
            path,
            chunk_bytes: MIGRATION_CHUNK_BYTES,
            sessions: Vec::new(),
            cluster_mode: None,
            clusters: Vec::new(),
            used: [0; 3],
            ever_spilled: std::collections::BTreeSet::new(),
            stats: TierStats::default(),
            pending_migrations: Vec::new(),
            order_scratch: Vec::new(),
            migration_prices: HashMap::default(),
            price_hits: 0,
            price_misses: 0,
        }
    }

    /// Creates the manager for a platform + method pair: device budget
    /// from the memory left after weights, spill tiers from the
    /// platform's host DRAM / SSD.
    pub fn for_system(sys: &SystemModel, model: &ModelConfig) -> Self {
        Self::new(sys.kv_tier_capacities(model), sys.tier_path())
    }

    /// Enables cluster-granular cold-data tracking: resident demand is
    /// modelled as `ceil(total / cluster_bytes)` hash clusters (chained
    /// into coarser granules past 16384 clusters per session) ranked
    /// by the previous step's WiCSum mass, spill victims are the
    /// coldest *clusters* of any session (the hottest
    /// `ceil(protected_ratio · n)` clusters of each session are
    /// protected from first-pass eviction), and restores move only the
    /// speculated-plus-mispredicted cluster set. Must be called before
    /// any stream is admitted; migrations are priced in cluster-sized
    /// chunks from here on.
    pub fn with_cluster_mode(mut self, cluster_bytes: u64, protected_ratio: f64) -> Self {
        debug_assert!(
            self.sessions.is_empty(),
            "enable cluster mode before admitting streams"
        );
        self.cluster_mode = Some(ClusterModeCfg {
            cluster_bytes: cluster_bytes.max(1),
            protected_ratio: protected_ratio.clamp(0.0, 1.0),
        });
        self
    }

    /// Cluster-mode knobs, if enabled: `(cluster_bytes,
    /// protected_ratio)`.
    pub fn cluster_params(&self) -> Option<(u64, f64)> {
        self.cluster_mode
            .map(|c| (c.cluster_bytes, c.protected_ratio))
    }

    /// One stream's spilled clusters as `(coldness_rank, tier, bytes)`
    /// in ascending rank order (coldest first). Empty when the stream
    /// is fully device-resident or cluster mode is off.
    pub fn spilled_clusters(&self, id: usize) -> Vec<(u64, MemTier, u64)> {
        match self.slot(id).ok().and_then(|i| self.clusters.get(i)) {
            Some(state) => state
                .runs
                .iter()
                .flat_map(|r| (r.first_rank..r.end()).map(|k| (k, r.tier, r.bytes_each)))
                .collect(),
            None => Vec::new(),
        }
    }

    /// The tier budgets.
    pub fn capacities(&self) -> TierCapacities {
        self.caps
    }

    /// Total KV capacity across every tier.
    pub fn total_capacity_bytes(&self) -> u64 {
        self.caps.total_bytes()
    }

    /// Bytes currently resident in one tier, fleet-wide (maintained
    /// incrementally; `debug_assert`-checked against the fleet scan).
    pub fn used_bytes(&self, tier: MemTier) -> u64 {
        debug_assert_eq!(
            self.used[tier_index(tier)],
            self.sessions
                .iter()
                .map(|(_, r)| tier_bytes(r, tier))
                .sum::<u64>(),
            "cached {tier} total diverged from the fleet scan"
        );
        self.used[tier_index(tier)]
    }

    /// Whether any resident KV currently sits below the device tier.
    /// `false` means every tracked stream is fully device-resident, so
    /// a step over tracked streams cannot miss — the scheduler's
    /// fast path ([`Self::record_all_hot_steps`]).
    pub fn any_spilled_bytes(&self) -> bool {
        self.used[tier_index(MemTier::Host)] + self.used[tier_index(MemTier::Ssd)] > 0
    }

    /// Records `members` tier hits at once. Exactly equivalent to (and
    /// only valid as) `members` calls to [`Self::step_restore`] for
    /// *tracked* streams while [`Self::any_spilled_bytes`] is `false`:
    /// each such call would price a zero-byte restore and count one
    /// hit.
    pub fn record_all_hot_steps(&mut self, members: u64) {
        debug_assert!(!self.any_spilled_bytes(), "fast path requires no spill");
        self.stats.tier_hit_steps += members;
    }

    /// One stream's residency, if tracked.
    pub fn residency(&self, id: usize) -> Option<&Residency> {
        self.slot(id).ok().map(|i| &self.sessions[i].1)
    }

    /// Slot of `id` in the sorted session vec (`Err` = insertion point).
    fn slot(&self, id: usize) -> Result<usize, usize> {
        self.sessions.binary_search_by_key(&id, |&(sid, _)| sid)
    }

    /// Statistics so far.
    pub fn stats(&self) -> TierStats {
        self.stats
    }

    /// Streams that were ever (partially) spilled below the device.
    pub fn ever_spilled_sessions(&self) -> usize {
        self.ever_spilled.len()
    }

    /// Whether a stream was ever (partially) spilled below the device.
    pub fn was_ever_spilled(&self, id: usize) -> bool {
        self.ever_spilled.contains(&id)
    }

    /// Drains the migrations decided since the last drain (spills from
    /// [`Self::admit`]/[`Self::grow`], promotions from
    /// [`Self::release`]), in decision order. The resource-timeline
    /// scheduler prices each one and places it on the shared link as a
    /// background task; the serialized scheduler discards them (its
    /// writebacks stream behind compute by assumption).
    pub fn take_migrations(&mut self) -> Vec<MigrationTask> {
        std::mem::take(&mut self.pending_migrations)
    }

    /// [`Self::take_migrations`] into a caller-owned buffer (appended
    /// in decision order), preserving both vectors' capacities — the
    /// allocation-free variant for the serving hot loop, which drains
    /// migrations at every admission pass and batch completion.
    pub fn drain_migrations_into(&mut self, into: &mut Vec<MigrationTask>) {
        into.append(&mut self.pending_migrations);
    }

    /// Whether any migration decisions are waiting to be drained.
    pub fn has_pending_migrations(&self) -> bool {
        !self.pending_migrations.is_empty()
    }

    /// Memoized [`TierPath::migrate_ps`] at the manager's migration
    /// chunk size — bit-identical to the closed form, one hash lookup
    /// per repeated (route, bytes) shape.
    pub fn migration_price_ps(&mut self, from: MemTier, to: MemTier, bytes: u64) -> u64 {
        if bytes == 0 || from == to {
            return 0;
        }
        let key = (tier_index(from) as u8, tier_index(to) as u8, bytes);
        if let Some(&ps) = self.migration_prices.get(&key) {
            self.price_hits += 1;
            return ps;
        }
        self.price_misses += 1;
        // In cluster mode migrations stream at cluster granularity —
        // the memo key stays (route, bytes) because the chunk size is
        // fixed for the manager's lifetime.
        let chunk = self
            .cluster_mode
            .map_or(self.chunk_bytes, |c| c.cluster_bytes);
        let ps = self.path.migrate_ps(from, to, bytes, chunk);
        self.migration_prices.insert(key, ps);
        ps
    }

    /// Migration-price lookups served from the memo so far.
    pub fn price_hits(&self) -> u64 {
        self.price_hits
    }

    /// Migration-price lookups that ran the closed-form pricing.
    pub fn price_misses(&self) -> u64 {
        self.price_misses
    }

    /// Prices the restore one step of `id` would need: the selected
    /// share (`ratio`) of the stream's spilled bytes per source tier,
    /// the link time of each leg, and the prefetch policy's promised
    /// coverage. Pure with respect to residency and statistics — the
    /// caller decides how much of the restore overlaps and commits the
    /// outcome via [`Self::commit_restore`] (or uses
    /// [`Self::step_restore`], which does both with the serialized
    /// window rule).
    pub fn plan_restore(
        &mut self,
        id: usize,
        ratio: f64,
        generation: bool,
        prefetch: &dyn PrefetchPolicy,
    ) -> RestorePlan {
        let Ok(slot) = self.slot(id) else {
            return RestorePlan::default();
        };
        let r = self.sessions[slot].1;
        let ratio = ratio.clamp(0.0, 1.0);
        if let Some(cfg) = self.cluster_mode {
            if let Some(plan) = self.cluster_restore_plan(slot, ratio, generation, cfg, prefetch) {
                return plan;
            }
            // A cluster-blind policy on a cluster-mode manager falls
            // back to the flat byte math below (reference path).
        }
        let host_bytes = (r.host_bytes as f64 * ratio).ceil() as u64;
        let ssd_bytes = (r.ssd_bytes as f64 * ratio).ceil() as u64;
        let host_ps = self.migration_price_ps(MemTier::Host, MemTier::Device, host_bytes);
        let ssd_ps = self.migration_price_ps(MemTier::Ssd, MemTier::Device, ssd_bytes);
        if host_ps + ssd_ps == 0 {
            return RestorePlan::default();
        }
        let plan = prefetch.plan(&PrefetchRequest {
            cold_bytes: r.spilled_bytes(),
            selection_ratio: ratio,
            generation,
        });
        RestorePlan {
            host_bytes,
            ssd_bytes,
            host_ps,
            ssd_ps,
            coverage: plan.coverage(host_bytes + ssd_bytes),
            ..RestorePlan::default()
        }
    }

    /// Cluster-granular restore plan: intersect the policy's predicted
    /// hot cluster set with this session's spilled clusters
    /// (speculated legs), plus the mispredicted tail clusters that
    /// turn out to be spilled (demand legs). `None` when the policy is
    /// cluster-blind.
    fn cluster_restore_plan(
        &mut self,
        slot: usize,
        ratio: f64,
        generation: bool,
        cfg: ClusterModeCfg,
        prefetch: &dyn PrefetchPolicy,
    ) -> Option<RestorePlan> {
        let (id, r) = self.sessions[slot];
        let state = self.clusters.get(slot)?;
        let total = r.total_bytes();
        let n = total.div_ceil(cfg.granule(total));
        let step_seq = state.step_seq;
        let cp = prefetch.cluster_plan(&ClusterPrefetchRequest {
            clusters: n,
            selection_ratio: ratio,
            generation,
            step_seq,
        })?;
        let predicted = cp.predicted.min(n);
        let tail = n - predicted;
        let mispredicted = cp.mispredicted.min(tail);
        // Predicted-hot clusters are hotness ranks [0, predicted) =
        // coldness ranks [tail, n); the spilled ones stream up
        // speculatively from work-visibility.
        let mut spec = [0u64; 3];
        let spec_clusters = state.sum_ranks(tail, u64::MAX, &mut spec);
        // Mispredictions rotate deterministically through the tail: the
        // window [step_seq, step_seq + mispredicted) mod tail, which
        // covers each tail rank at most once (mispredicted <= tail).
        // Only the ranks that are actually spilled cost a demand fetch.
        let mut demand = [0u64; 3];
        let mut demand_clusters = 0u64;
        if tail > 0 {
            let start = step_seq % tail;
            let end = start + mispredicted;
            demand_clusters = state.sum_ranks(start, end.min(tail), &mut demand)
                + state.sum_ranks(0, end.saturating_sub(tail), &mut demand);
        }
        let host_bytes = spec[1] + demand[1];
        let ssd_bytes = spec[2] + demand[2];
        let host_ps = self.migration_price_ps(MemTier::Host, MemTier::Device, host_bytes);
        let ssd_ps = self.migration_price_ps(MemTier::Ssd, MemTier::Device, ssd_bytes);
        let spec_bytes = spec[1] + spec[2];
        let demand_bytes = demand[1] + demand[2];
        let bytes = spec_bytes + demand_bytes;
        Some(RestorePlan {
            host_bytes,
            ssd_bytes,
            host_ps,
            ssd_ps,
            // Display-only for cluster plans; the schedulers split
            // hidden time with exact integer byte ratios instead.
            coverage: if bytes > 0 {
                spec_bytes as f64 / bytes as f64
            } else {
                0.0
            },
            spec_bytes,
            demand_bytes,
            cluster: true,
            session: id,
            spec_clusters,
            demand_clusters,
            mispredicted_clusters: mispredicted,
        })
    }

    /// Records the outcome of one step's restore plan: a zero-byte plan
    /// counts a tier hit; anything else counts a miss with
    /// `hidden_ps`/`exposed_ps` splitting its link time between
    /// overlapped and critical-path. The caller guarantees
    /// `hidden_ps + exposed_ps == plan.miss_ps()`.
    pub fn commit_restore(&mut self, plan: &RestorePlan, hidden_ps: u64, exposed_ps: u64) {
        debug_assert_eq!(hidden_ps + exposed_ps, plan.miss_ps());
        // Cluster plans advance the session's step sequence even on a
        // hit, so the misprediction rotation tracks executed steps.
        if let (true, Ok(i)) = (plan.cluster, self.slot(plan.session)) {
            if let Some(state) = self.clusters.get_mut(i) {
                state.step_seq += 1;
            }
        }
        if plan.miss_ps() == 0 {
            self.stats.tier_hit_steps += 1;
            return;
        }
        self.stats.tier_miss_steps += 1;
        self.stats.restored_bytes += plan.bytes();
        self.stats.hidden_ps += hidden_ps;
        self.stats.exposed_ps += exposed_ps;
    }

    /// Admits a stream with `bytes` of resident demand, placed in
    /// device memory; colder streams are spilled down if the device
    /// overflows.
    pub fn admit(&mut self, id: usize, bytes: u64, now_ps: u64) {
        let slot = match self.slot(id) {
            Ok(i) => i,
            Err(i) => {
                self.sessions.insert(i, (id, Residency::default()));
                if self.cluster_mode.is_some() {
                    self.clusters.insert(i, ClusterState::default());
                }
                i
            }
        };
        let r = &mut self.sessions[slot].1;
        r.device_bytes += bytes;
        r.last_active_ps = now_ps;
        self.used[tier_index(MemTier::Device)] += bytes;
        self.spill_down();
    }

    /// Grows a stream's resident demand by `delta` bytes (new KV lands
    /// in device memory) and marks it active.
    pub fn grow(&mut self, id: usize, delta: u64, now_ps: u64) {
        if let Ok(i) = self.slot(id) {
            let r = &mut self.sessions[i].1;
            r.device_bytes += delta;
            r.last_active_ps = now_ps;
            self.used[tier_index(MemTier::Device)] += delta;
        }
        self.spill_down();
    }

    /// Marks a stream active (it just executed) without growing it.
    pub fn touch(&mut self, id: usize, now_ps: u64) {
        if let Ok(i) = self.slot(id) {
            self.sessions[i].1.last_active_ps = now_ps;
        }
    }

    /// Retires a stream, freeing its bytes, then promotes the hottest
    /// spilled streams into the freed device space.
    pub fn release(&mut self, id: usize) {
        if let Ok(i) = self.slot(id) {
            let (_, r) = self.sessions.remove(i);
            for tier in MemTier::ALL {
                self.used[tier_index(tier)] -= tier_bytes(&r, tier);
            }
            if self.cluster_mode.is_some() {
                self.clusters.remove(i);
            }
        }
        self.promote_into_free();
    }

    /// Prices the tier miss of one step and applies prefetch overlap.
    ///
    /// `ratio` is the method's selection ratio for the step's stage —
    /// the share of the stream's spilled bytes the step must restore.
    /// `window_ps` is how long the restore could have been in flight
    /// before the step's results are needed: queue wait plus the
    /// step's own compute (which the transfer pipelines with layer by
    /// layer), *minus* whatever of that window other streams' restores
    /// have already claimed on the shared link — the caller owns that
    /// accounting via [`RestoreOutcome::miss_ps`].
    pub fn step_restore(
        &mut self,
        id: usize,
        ratio: f64,
        generation: bool,
        window_ps: u64,
        prefetch: &dyn PrefetchPolicy,
    ) -> RestoreOutcome {
        if self.slot(id).is_err() {
            return RestoreOutcome::default();
        }
        let plan = self.plan_restore(id, ratio, generation, prefetch);
        let miss_ps = plan.miss_ps();
        let hidden = if plan.cluster {
            // Cluster plans partition the restore into exact byte sets:
            // the speculated share hides in integer math, no float knob.
            if plan.bytes() == 0 {
                0
            } else {
                let spec =
                    (miss_ps as u128 * plan.spec_bytes as u128 / plan.bytes() as u128) as u64;
                spec.min(window_ps)
            }
        } else {
            // vrex-lint: allow(float-time) — prefetch coverage is a float model knob; the hidden share is floored to integer ps here, before any deadline arithmetic sees it.
            ((miss_ps as f64 * plan.coverage) as u64).min(window_ps)
        };
        self.commit_restore(&plan, hidden, miss_ps - hidden);
        if miss_ps == 0 {
            return RestoreOutcome::default();
        }
        RestoreOutcome {
            miss_ps,
            exposed_ps: miss_ps - hidden,
            spec_bytes: plan.spec_bytes,
            demand_bytes: plan.demand_bytes,
            spec_clusters: plan.spec_clusters,
            demand_clusters: plan.demand_clusters,
            mispredicted_clusters: plan.mispredicted_clusters,
        }
    }

    /// Demotes coldest bytes until device and host budgets hold —
    /// whole coldest streams in flat mode, coldest *clusters* of any
    /// stream in cluster mode.
    fn spill_down(&mut self) {
        if let Some(cfg) = self.cluster_mode {
            self.spill_tier_clusters(MemTier::Device, cfg);
            self.spill_tier_clusters(MemTier::Host, cfg);
        } else {
            self.spill_tier(MemTier::Device);
            self.spill_tier(MemTier::Host);
        }
    }

    fn spill_tier(&mut self, tier: MemTier) {
        loop {
            let used = self.used[tier_index(tier)];
            let cap = self.caps.capacity(tier);
            if used <= cap {
                return;
            }
            let overflow = used - cap;
            // Coldest stream holding bytes in this tier; the vec is in
            // id order, so min_by ties resolve to the smallest id.
            let Some(victim) = self
                .sessions
                .iter()
                .enumerate()
                .filter(|(_, (_, r))| tier_bytes(r, tier) > 0)
                .min_by(|(_, (ia, ra)), (_, (ib, rb))| {
                    ra.last_active_ps.cmp(&rb.last_active_ps).then(ia.cmp(ib))
                })
                .map(|(i, _)| i)
            else {
                return;
            };
            // Nearest lower tier with room.
            let Some((dest, room)) = self
                .caps
                .below(tier)
                .map(|t| {
                    (
                        t,
                        self.caps
                            .capacity(t)
                            .saturating_sub(self.used[tier_index(t)]),
                    )
                })
                .find(|&(_, room)| room > 0)
            else {
                // Hierarchy full: leave the tier over budget (admission
                // control is responsible for not letting this happen).
                return;
            };
            let moved = tier_bytes(&self.sessions[victim].1, tier)
                .min(overflow)
                .min(room);
            self.ever_spilled.insert(self.sessions[victim].0);
            let first_task = self.pending_migrations.len();
            self.move_bytes(victim, tier, dest, moved, first_task);
        }
    }

    /// Cluster-granular spill: while `tier` is over budget, demote the
    /// coldest clusters of the coldest sessions. Pass 1 only takes
    /// each session's unprotected cold tail; pass 2 (pressure still
    /// unresolved) may evict protected WiCSum-hot clusters too — a hot
    /// session's cold clusters leave before any session's hot ones.
    fn spill_tier_clusters(&mut self, tier: MemTier, cfg: ClusterModeCfg) {
        let src = tier_index(tier);
        let cap = self.caps.capacity(tier);
        if self.used[src] <= cap {
            return;
        }
        // Coldest sessions first; ties resolve to the smaller id.
        let mut order = std::mem::take(&mut self.order_scratch);
        order.clear();
        order.extend(self.sessions.iter().map(|(_, r)| r.last_active_ps).zip(0..));
        order.sort_unstable();
        'passes: for protected_pass in [false, true] {
            for &(_, si) in &order {
                // A failed demotion means the hierarchy is full: leave
                // the tier over budget (admission control prevents this
                // in practice).
                if self.used[src] <= cap
                    || !self.demote_session_clusters(si, tier, cfg, protected_pass)
                {
                    break 'passes;
                }
            }
        }
        self.order_scratch = order;
    }

    /// Demotes clusters of one session out of `tier` until the tier
    /// fits or the session has nothing (in this pass's class) left.
    /// Returns `false` when no lower tier has room for a cluster.
    fn demote_session_clusters(
        &mut self,
        si: usize,
        tier: MemTier,
        cfg: ClusterModeCfg,
        protected_pass: bool,
    ) -> bool {
        let (id, r) = self.sessions[si];
        let total = r.total_bytes();
        if total == 0 {
            return true;
        }
        let granule = cfg.granule(total);
        let n = total.div_ceil(granule);
        let protected = protected_clusters(n, cfg.protected_ratio);
        // Coldness ranks this pass may demote up to: the unprotected
        // tail first, the whole session only under residual pressure.
        let limit = if protected_pass { n } else { n - protected };
        let first_task = self.pending_migrations.len();
        let mut stop = None;
        if tier == MemTier::Device {
            // Candidates are the next unspilled coldness ranks: the
            // device bytes as whole granules, then one partial granule.
            // Pass 1 stops once the spilled mass in current-granule
            // units reaches the limit — exactly the spilled-cluster
            // count for a static granule, and the current-granule
            // equivalent of stale finer clusters once chaining has
            // coarsened it, so the protected prefix keeps its byte
            // meaning.
            let mut allowed = if protected_pass {
                u64::MAX
            } else {
                limit.saturating_sub(r.spilled_bytes().div_ceil(granule))
            };
            if allowed == 0 || r.device_bytes == 0 {
                return true;
            }
            let partial = r.device_bytes % granule;
            for (count, bytes) in [
                (r.device_bytes / granule, granule),
                (u64::from(partial > 0), partial),
            ] {
                let count = count.min(allowed);
                allowed -= count;
                let moved;
                (moved, stop) = self.demote_clusters(si, tier, count, bytes, first_task);
                for dest in self.caps.below(tier) {
                    self.clusters[si].push(moved[tier_index(dest)], dest, bytes);
                }
                if stop.is_some() {
                    break;
                }
            }
        } else {
            // Cascade: the coldest clusters already on `tier` (below the
            // limit) move further down. The runs are rebuilt in rank
            // order, so a partly moved run splits and equal neighbours
            // merge.
            for run in std::mem::take(&mut self.clusters[si].runs) {
                let mut moved = [0u64; 3];
                if stop.is_none() && run.tier == tier && run.first_rank < limit {
                    let count = run.len.min(limit - run.first_rank);
                    (moved, stop) =
                        self.demote_clusters(si, tier, count, run.bytes_each, first_task);
                }
                // The moved clusters are the run's coldest ranks.
                let state = &mut self.clusters[si];
                for dest in self.caps.below(tier) {
                    state.push(moved[tier_index(dest)], dest, run.bytes_each);
                }
                state.push(
                    run.len - moved.iter().sum::<u64>(),
                    run.tier,
                    run.bytes_each,
                );
            }
        }
        if self.pending_migrations.len() > first_task {
            self.ever_spilled.insert(id);
        }
        stop.unwrap_or(true)
    }

    /// Moves up to `count` clusters of `bytes` each of session slot `si`
    /// out of `from` until it fits its budget. Each cluster lands whole
    /// on the nearest lower tier with room for it, so the clusters go
    /// in at most one batch per destination; each batch is queued as a
    /// migration, coalesced by route with those queued since
    /// `first_task`. Returns the clusters moved per tier (by tier index)
    /// and, if the walk must stop here, whether `from` now fits
    /// (`Some(true)`) or no lower tier has room (`Some(false)`).
    fn demote_clusters(
        &mut self,
        si: usize,
        from: MemTier,
        count: u64,
        bytes: u64,
        first_task: usize,
    ) -> ([u64; 3], Option<bool>) {
        let src = tier_index(from);
        let cap = self.caps.capacity(from);
        let mut moved = [0u64; 3];
        let mut left = count;
        while left > 0 {
            if self.used[src] <= cap {
                return (moved, Some(true));
            }
            let room = |t: MemTier| {
                self.caps
                    .capacity(t)
                    .saturating_sub(self.used[tier_index(t)])
            };
            let Some(to) = self.caps.below(from).find(|&t| room(t) >= bytes) else {
                return (moved, Some(false));
            };
            let k = left
                .min((self.used[src] - cap).div_ceil(bytes))
                .min(room(to) / bytes);
            left -= k;
            moved[tier_index(to)] += k;
            self.move_bytes(si, from, to, k * bytes, first_task);
        }
        (moved, None)
    }

    /// Moves `bytes` of session slot `si` between tiers, keeping its
    /// residency, the fleet totals and the statistics in step, and
    /// queues the migration, coalesced by route with those queued since
    /// `first_task`.
    fn move_bytes(&mut self, si: usize, from: MemTier, to: MemTier, bytes: u64, first_task: usize) {
        let (session, r) = &mut self.sessions[si];
        *tier_bytes_mut(r, from) -= bytes;
        *tier_bytes_mut(r, to) += bytes;
        self.used[tier_index(from)] -= bytes;
        self.used[tier_index(to)] += bytes;
        if to > from {
            self.stats.spilled_bytes += bytes;
        } else {
            self.stats.promoted_bytes += bytes;
        }
        let task = MigrationTask {
            session: *session,
            from,
            to,
            bytes,
        };
        match self.pending_migrations[first_task..].last_mut() {
            Some(last) if (last.session, last.from, last.to) == (task.session, from, to) => {
                last.bytes += bytes
            }
            _ => self.pending_migrations.push(task),
        }
    }

    /// Promotes hottest-stream spilled bytes into free device space:
    /// hottest sessions first (ties by id). In cluster mode, within a
    /// session the hottest spilled clusters (highest coldness ranks)
    /// come back first, whole clusters only.
    fn promote_into_free(&mut self) {
        let free = self
            .caps
            .device_bytes
            .saturating_sub(self.used[tier_index(MemTier::Device)]);
        if free == 0 {
            return;
        }
        let mut order = std::mem::take(&mut self.order_scratch);
        order.clear();
        order.extend(
            self.sessions
                .iter()
                .enumerate()
                .filter(|(_, (_, r))| r.spilled_bytes() > 0)
                .map(|(i, (_, r))| (r.last_active_ps, i)),
        );
        order.sort_unstable_by_key(|&(t, i)| (std::cmp::Reverse(t), i));
        if self.cluster_mode.is_some() {
            self.promote_clusters(&order, free);
        } else {
            self.promote_flat(&order, free);
        }
        self.order_scratch = order;
    }

    /// Pops whole clusters off each session's top run, in `order`,
    /// into `free` device bytes.
    fn promote_clusters(&mut self, order: &[(u64, usize)], mut free: u64) {
        'sessions: for &(_, si) in order {
            let first_task = self.pending_migrations.len();
            loop {
                let runs = &mut self.clusters[si].runs;
                let Some(top) = runs.last_mut() else {
                    break;
                };
                if top.bytes_each > free {
                    // The next whole cluster no longer fits: stop the
                    // promotion sweep (deterministic, no best-fit
                    // search through smaller partial clusters).
                    break 'sessions;
                }
                let k = top.len.min(free / top.bytes_each);
                let (tier, bytes) = (top.tier, k * top.bytes_each);
                top.len -= k;
                if top.len == 0 {
                    runs.pop();
                }
                free -= bytes;
                self.move_bytes(si, tier, MemTier::Device, bytes, first_task);
            }
            if free == 0 {
                break;
            }
        }
    }

    /// Moves each session's host bytes, then its SSD bytes, in `order`,
    /// into `free` device bytes.
    fn promote_flat(&mut self, order: &[(u64, usize)], mut free: u64) {
        for &(_, si) in order {
            for tier in [MemTier::Host, MemTier::Ssd] {
                let moved = tier_bytes(&self.sessions[si].1, tier).min(free);
                if moved > 0 {
                    free -= moved;
                    let first_task = self.pending_migrations.len();
                    self.move_bytes(si, tier, MemTier::Device, moved, first_task);
                }
            }
        }
    }
}

/// Clusters of an `n`-cluster session protected from first-pass spill
/// (the WiCSum-hot prefix).
fn protected_clusters(n: u64, ratio: f64) -> u64 {
    ((n as f64 * ratio).ceil() as u64).min(n)
}

fn tier_index(tier: MemTier) -> usize {
    match tier {
        MemTier::Device => 0,
        MemTier::Host => 1,
        MemTier::Ssd => 2,
    }
}

fn tier_bytes(r: &Residency, tier: MemTier) -> u64 {
    match tier {
        MemTier::Device => r.device_bytes,
        MemTier::Host => r.host_bytes,
        MemTier::Ssd => r.ssd_bytes,
    }
}

fn tier_bytes_mut(r: &mut Residency, tier: MemTier) -> &mut u64 {
    match tier {
        MemTier::Device => &mut r.device_bytes,
        MemTier::Host => &mut r.host_bytes,
        MemTier::Ssd => &mut r.ssd_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrex_hwsim::dram::DramConfig;
    use vrex_hwsim::pcie::PcieConfig;
    use vrex_hwsim::seconds_to_ps;
    use vrex_hwsim::ssd::SsdConfig;

    const GIB: u64 = 1 << 30;

    fn server_manager(device: u64, host: u64, ssd: u64) -> TieredKvManager {
        TieredKvManager::new(
            TierCapacities {
                device_bytes: device,
                host_bytes: host,
                ssd_bytes: ssd,
            },
            TierPath {
                pcie: PcieConfig::gen4_x16(),
                host_dram: Some(DramConfig::ddr4_cpu()),
                ssd: Some(SsdConfig::bg6_class()),
            },
        )
    }

    #[test]
    fn streams_stay_device_resident_until_the_budget_trips() {
        let mut m = server_manager(4 * GIB, 8 * GIB, 0);
        m.admit(0, 2 * GIB, 0);
        m.admit(1, 2 * GIB, 1);
        assert_eq!(m.used_bytes(MemTier::Device), 4 * GIB);
        assert_eq!(m.used_bytes(MemTier::Host), 0);
        assert_eq!(m.ever_spilled_sessions(), 0);
    }

    #[test]
    fn overflow_spills_the_coldest_stream_first() {
        let mut m = server_manager(4 * GIB, 8 * GIB, 0);
        m.admit(0, 2 * GIB, 0); // coldest
        m.admit(1, 2 * GIB, 1);
        m.admit(2, 2 * GIB, 2); // 2 GiB over budget
        let r0 = *m.residency(0).unwrap();
        assert_eq!(r0.host_bytes, 2 * GIB, "stream 0 spilled: {r0:?}");
        assert_eq!(m.residency(2).unwrap().host_bytes, 0, "newcomer stays hot");
        assert_eq!(m.used_bytes(MemTier::Device), 4 * GIB);
        assert_eq!(m.stats().spilled_bytes, 2 * GIB);
        assert_eq!(m.ever_spilled_sessions(), 1);
    }

    #[test]
    fn host_overflow_cascades_to_the_ssd() {
        let mut m = server_manager(GIB, GIB, 64 * GIB);
        m.admit(0, GIB, 0);
        m.admit(1, GIB, 1);
        m.admit(2, GIB, 2);
        // 3 GiB of demand into 1 GiB device + 1 GiB host: the coldest
        // stream's spill lands on the SSD.
        assert_eq!(m.used_bytes(MemTier::Device), GIB);
        assert_eq!(m.used_bytes(MemTier::Host), GIB);
        assert_eq!(m.used_bytes(MemTier::Ssd), GIB);
    }

    #[test]
    fn release_promotes_the_hottest_spilled_stream() {
        let mut m = server_manager(4 * GIB, 8 * GIB, 0);
        m.admit(0, 2 * GIB, 0);
        m.admit(1, 2 * GIB, 1);
        m.admit(2, 2 * GIB, 2); // spills 0
        assert_eq!(m.residency(0).unwrap().host_bytes, 2 * GIB);
        m.release(1); // frees 2 GiB of device
        let r0 = *m.residency(0).unwrap();
        assert_eq!(r0.host_bytes, 0, "stream 0 promoted back: {r0:?}");
        assert_eq!(r0.device_bytes, 2 * GIB);
        assert_eq!(m.stats().promoted_bytes, 2 * GIB);
    }

    #[test]
    fn device_resident_steps_are_tier_hits() {
        let mut m = server_manager(4 * GIB, 8 * GIB, 0);
        m.admit(0, GIB, 0);
        let p = m.step_restore(0, 1.0, false, 0, &NoPrefetch);
        assert_eq!(p, RestoreOutcome::default());
        assert_eq!(m.stats().tier_hit_steps, 1);
        assert_eq!(m.stats().tier_miss_steps, 0);
    }

    #[test]
    fn spill_then_prefetch_matches_hand_computed_migration() {
        // One full spill → prefetch round trip, hand-computed.
        //
        // Stream 0 (2 GiB) goes cold and is spilled to host DRAM by the
        // admissions of streams 1 and 2. Its next frame step (selection
        // ratio 1.0) must restore all 2 GiB over PCIe 4.0 ×16 in
        // 256 KiB chunks. By hand (DDR4 at ~102 GB/s outruns the link,
        // so the pipelined migration equals the PCIe leg):
        //   bytes   = 2^31;  chunks = 2^31 / 2^18 = 8192
        //   TLPs    = 2^31/256 + 8192 = 8_388_608 + 8_192 = 8_396_800
        //   wire    = 2^31 + 8_396_800·24 = 2_349_006_848 B
        //   wire ps = 2_349_006_848 / 32e9 · 1e12 ≈ 73_406_464_000
        //   total   = wire ps + 8192·400_000 ≈ 76_683_264_000 ps
        // Demand fetch exposes all of it; speculative prefetch at 90%
        // accuracy with an ample overlap window hides 90% and exposes
        // exactly the mispredicted 10%.
        let mut m = server_manager(4 * GIB, 8 * GIB, 0);
        m.admit(0, 2 * GIB, 0);
        m.admit(1, 2 * GIB, 1);
        m.admit(2, 2 * GIB, 2);
        assert_eq!(m.residency(0).unwrap().host_bytes, 2 * GIB);

        let bytes = 2 * GIB;
        let chunks = bytes / MIGRATION_CHUNK_BYTES;
        let tlps = bytes / 256 + chunks;
        let wire_bytes = bytes + tlps * 24;
        let miss_ps = seconds_to_ps(wire_bytes as f64 / 32.0e9) + chunks * 400_000;

        let demand = m.step_restore(0, 1.0, false, u64::MAX, &NoPrefetch);
        assert_eq!(demand.miss_ps, miss_ps);
        assert_eq!(demand.exposed_ps, miss_ps);

        let spec = SpeculativePrefetch { accuracy: 0.9 };
        let out = m.step_restore(0, 1.0, false, u64::MAX, &spec);
        assert_eq!(out.miss_ps, miss_ps);
        assert_eq!(out.exposed_ps, miss_ps - (miss_ps as f64 * 0.9) as u64);
        assert_eq!(m.stats().tier_miss_steps, 2);
        assert_eq!(m.stats().restored_bytes, 2 * bytes);
    }

    #[test]
    fn narrow_window_bounds_what_prefetch_can_hide() {
        let mut m = server_manager(GIB, 8 * GIB, 0);
        m.admit(0, GIB, 0);
        m.admit(1, GIB, 1); // spills 0 entirely
        let spec = SpeculativePrefetch { accuracy: 1.0 };
        let full = m.step_restore(0, 1.0, false, 0, &spec).exposed_ps;
        let window = full / 2;
        let half = m.step_restore(0, 1.0, false, window, &spec).exposed_ps;
        assert_eq!(half, full - window, "only the window is hidden");
    }

    #[test]
    fn selection_ratio_scales_the_restore() {
        let mut m = server_manager(GIB, 8 * GIB, 0);
        m.admit(0, GIB, 0);
        m.admit(1, GIB, 1);
        let full = m.step_restore(0, 1.0, false, 0, &NoPrefetch).exposed_ps;
        let tenth = m.step_restore(0, 0.1, false, 0, &NoPrefetch).exposed_ps;
        assert!(tenth < full / 5, "ratio 0.1 restore {tenth} vs full {full}");
        assert!(tenth > 0);
    }

    #[test]
    fn grow_keeps_the_growing_stream_hot() {
        let mut m = server_manager(2 * GIB, 8 * GIB, 0);
        m.admit(0, GIB, 0);
        m.admit(1, GIB, 1);
        // Stream 1 grows past the budget at t=2: stream 0 (colder)
        // takes the spill even though 1 caused the overflow.
        m.grow(1, GIB, 2);
        assert_eq!(m.residency(0).unwrap().host_bytes, GIB);
        assert_eq!(m.residency(1).unwrap().spilled_bytes(), 0);
    }

    #[test]
    fn migration_price_memo_is_bit_identical_to_the_closed_form() {
        let mut m = server_manager(4 * GIB, 8 * GIB, 64 * GIB);
        let path = TierPath {
            pcie: PcieConfig::gen4_x16(),
            host_dram: Some(DramConfig::ddr4_cpu()),
            ssd: Some(SsdConfig::bg6_class()),
        };
        // The repeated 1 MiB shape exercises the hit path; every lookup
        // must equal the direct closed form exactly.
        for bytes in [1u64, 4096, 1 << 20, 2 * GIB, 1 << 20, 4096] {
            for (from, to) in [
                (MemTier::Host, MemTier::Device),
                (MemTier::Ssd, MemTier::Device),
                (MemTier::Device, MemTier::Host),
                (MemTier::Host, MemTier::Ssd),
            ] {
                assert_eq!(
                    m.migration_price_ps(from, to, bytes),
                    path.migrate_ps(from, to, bytes, MIGRATION_CHUNK_BYTES),
                    "{from}->{to} {bytes}B"
                );
            }
        }
        assert!(m.price_hits() > 0, "repeated shapes must hit the memo");
        // Zero bytes and same-tier moves stay free without polluting it.
        let misses = m.price_misses();
        assert_eq!(m.migration_price_ps(MemTier::Host, MemTier::Device, 0), 0);
        assert_eq!(m.migration_price_ps(MemTier::Host, MemTier::Host, GIB), 0);
        assert_eq!(m.price_misses(), misses);
    }

    #[test]
    fn repeated_restore_shapes_hit_the_memo() {
        let mut m = server_manager(GIB, 8 * GIB, 0);
        m.admit(0, GIB, 0);
        m.admit(1, GIB, 1); // spills 0 entirely
        let a = m.step_restore(0, 0.5, false, 0, &NoPrefetch);
        let hits_before = m.price_hits();
        let b = m.step_restore(0, 0.5, false, 0, &NoPrefetch);
        assert_eq!(a, b, "memoized repeat must be bit-identical");
        assert!(m.price_hits() > hits_before, "second shape is a hit");
    }

    #[test]
    fn spills_and_promotions_emit_migration_tasks() {
        let mut m = server_manager(4 * GIB, 8 * GIB, 0);
        m.admit(0, 2 * GIB, 0);
        m.admit(1, 2 * GIB, 1);
        assert!(m.take_migrations().is_empty(), "no pressure, no tasks");
        m.admit(2, 2 * GIB, 2); // spills stream 0 down
        assert_eq!(
            m.take_migrations(),
            vec![MigrationTask {
                session: 0,
                from: MemTier::Device,
                to: MemTier::Host,
                bytes: 2 * GIB,
            }]
        );
        assert!(m.take_migrations().is_empty(), "drain empties the queue");
        m.release(1); // frees device space: stream 0 promotes back
        assert_eq!(
            m.take_migrations(),
            vec![MigrationTask {
                session: 0,
                from: MemTier::Host,
                to: MemTier::Device,
                bytes: 2 * GIB,
            }]
        );
    }

    #[test]
    fn plan_and_commit_reproduce_step_restore() {
        let mk = || {
            let mut m = server_manager(GIB, 8 * GIB, 0);
            m.admit(0, GIB, 0);
            m.admit(1, GIB, 1); // spills 0 entirely
            m
        };
        let spec = SpeculativePrefetch { accuracy: 0.9 };
        let window = 123_456_789u64;
        let mut serialized = mk();
        let out = serialized.step_restore(0, 1.0, false, window, &spec);
        // The decomposed path: plan, apply the same window rule, commit.
        let mut decomposed = mk();
        let plan = decomposed.plan_restore(0, 1.0, false, &spec);
        assert_eq!(plan.miss_ps(), out.miss_ps);
        assert!(plan.host_bytes > 0, "spill lives in host DRAM");
        assert_eq!(plan.ssd_bytes, 0);
        let hidden = ((plan.miss_ps() as f64 * plan.coverage) as u64).min(window);
        assert_eq!(out.exposed_ps, plan.miss_ps() - hidden);
        decomposed.commit_restore(&plan, hidden, plan.miss_ps() - hidden);
        assert_eq!(serialized.stats(), decomposed.stats());
        // A hit commits as a hit: fully device-resident stream.
        let mut hot = server_manager(4 * GIB, 8 * GIB, 0);
        hot.admit(7, GIB, 0);
        let plan = hot.plan_restore(7, 1.0, false, &spec);
        assert_eq!(plan, RestorePlan::default());
        hot.commit_restore(&plan, 0, 0);
        assert_eq!(hot.stats().tier_hit_steps, 1);
        assert_eq!(hot.stats().tier_miss_steps, 0);
    }

    #[test]
    fn cluster_spill_demotes_the_cold_tail_one_run_at_a_time() {
        // 256 KiB clusters, half of each session WiCSum-protected.
        let mut m =
            server_manager(2 * GIB, 8 * GIB, 0).with_cluster_mode(MIGRATION_CHUNK_BYTES, 0.5);
        m.admit(0, 2 * GIB, 0); // fills the device exactly
        m.grow(0, MIGRATION_CHUNK_BYTES, 1); // one cluster over
        let r = *m.residency(0).unwrap();
        assert_eq!(r.device_bytes, 2 * GIB);
        assert_eq!(r.host_bytes, MIGRATION_CHUNK_BYTES);
        assert_eq!(
            m.spilled_clusters(0),
            vec![(0, MemTier::Host, MIGRATION_CHUNK_BYTES)],
            "coldness rank 0 spilled to host"
        );
        assert_eq!(
            m.take_migrations(),
            vec![MigrationTask {
                session: 0,
                from: MemTier::Device,
                to: MemTier::Host,
                bytes: MIGRATION_CHUNK_BYTES,
            }],
            "one coalesced cluster-sized demotion"
        );
        assert_eq!(m.stats().spilled_bytes, MIGRATION_CHUNK_BYTES);
    }

    #[test]
    fn cluster_restore_prices_only_the_mispredicted_tail() {
        // Continues the single-cluster demotion above with a
        // hand-computed restore. One 256 KiB cluster sits on host DRAM
        // at coldness rank 0. n = 8193 clusters, ratio 0.5 predicts
        // ceil(8193·0.5) = 4097 hot clusters (coldness ranks >= 4096 —
        // none spilled, so nothing is speculated), and at 90% accuracy
        // ceil(4097·0.1) = 410 tail clusters are mispredicted. The
        // rotation starts at step_seq = 0, so tail rank 0 — the one
        // spilled cluster — is demand-fetched. By hand over PCIe 4.0
        // ×16 in one 256 KiB chunk:
        //   TLPs = 262144/256 + 1 = 1025
        //   wire = 262144 + 1025·24 = 286_744 B
        //   ps   = 286_744/32e9·1e12 + 400_000
        let mut m =
            server_manager(2 * GIB, 8 * GIB, 0).with_cluster_mode(MIGRATION_CHUNK_BYTES, 0.5);
        m.admit(0, 2 * GIB, 0);
        m.grow(0, MIGRATION_CHUNK_BYTES, 1);

        let bytes = MIGRATION_CHUNK_BYTES;
        let tlps = bytes / 256 + 1;
        let wire = bytes + tlps * 24;
        let miss_ps = seconds_to_ps(wire as f64 / 32.0e9) + 400_000;

        let policy = ClusterPrefetch { accuracy: 0.9 };
        let out = m.step_restore(0, 0.5, false, u64::MAX, &policy);
        assert_eq!(out.miss_ps, miss_ps);
        assert_eq!(out.exposed_ps, miss_ps, "demand fetch hides nothing");
        assert_eq!(out.spec_bytes, 0);
        assert_eq!(out.demand_bytes, bytes);
        assert_eq!(out.spec_clusters, 0);
        assert_eq!(out.demand_clusters, 1);
        assert_eq!(out.mispredicted_clusters, 410);
        assert_eq!(m.stats().restored_bytes, bytes);

        // The next step's misprediction rotation moves off rank 0, so
        // the still-spilled cluster goes untouched: a tier hit.
        let out = m.step_restore(0, 0.5, false, u64::MAX, &policy);
        assert_eq!(out, RestoreOutcome::default());
        assert_eq!(m.stats().tier_hit_steps, 1);
        assert_eq!(m.stats().tier_miss_steps, 1);
    }

    #[test]
    fn cluster_spill_takes_cold_tails_before_any_hot_prefix() {
        // 1 GiB clusters, half protected: the 2 GiB overflow is met by
        // the cold *tails* of the two coldest sessions — flat LRU
        // would instead evict session 0 entirely, hot prefix included.
        let mut m = server_manager(4 * GIB, 8 * GIB, 0).with_cluster_mode(GIB, 0.5);
        m.admit(0, 2 * GIB, 0);
        m.admit(1, 2 * GIB, 1);
        m.admit(2, 2 * GIB, 2);
        let r0 = *m.residency(0).unwrap();
        let r1 = *m.residency(1).unwrap();
        let r2 = *m.residency(2).unwrap();
        assert_eq!((r0.device_bytes, r0.host_bytes), (GIB, GIB));
        assert_eq!((r1.device_bytes, r1.host_bytes), (GIB, GIB));
        assert_eq!(r2.spilled_bytes(), 0, "newcomer stays hot");
        assert_eq!(m.ever_spilled_sessions(), 2);
        // Conservation: each session's summary equals its cluster map.
        for id in 0..3 {
            let r = *m.residency(id).unwrap();
            let spilled: u64 = m.spilled_clusters(id).iter().map(|&(_, _, b)| b).sum();
            assert_eq!(r.spilled_bytes(), spilled);
            assert_eq!(r.device_bytes, r.total_bytes() - spilled);
        }
    }

    #[test]
    fn cluster_promotion_returns_hottest_sessions_hottest_clusters() {
        let mut m = server_manager(4 * GIB, 8 * GIB, 0).with_cluster_mode(GIB, 0.5);
        m.admit(0, 2 * GIB, 0);
        m.admit(1, 2 * GIB, 1);
        m.admit(2, 2 * GIB, 2); // spills one cluster each of 0 and 1
        m.take_migrations();
        m.release(2); // frees 2 GiB: both spilled clusters promote
        assert_eq!(m.residency(0).unwrap().spilled_bytes(), 0);
        assert_eq!(m.residency(1).unwrap().spilled_bytes(), 0);
        assert_eq!(
            m.take_migrations(),
            vec![
                // Hotter session 1 promotes before colder session 0.
                MigrationTask {
                    session: 1,
                    from: MemTier::Host,
                    to: MemTier::Device,
                    bytes: GIB,
                },
                MigrationTask {
                    session: 0,
                    from: MemTier::Host,
                    to: MemTier::Device,
                    bytes: GIB,
                },
            ]
        );
        assert_eq!(m.stats().promoted_bytes, 2 * GIB);
    }

    #[test]
    fn cluster_host_overflow_cascades_cold_clusters_to_the_ssd() {
        let mut m = server_manager(GIB, GIB, 64 * GIB).with_cluster_mode(GIB / 4, 0.0);
        m.admit(0, GIB, 0);
        m.admit(1, GIB, 1);
        m.admit(2, GIB, 2);
        assert_eq!(m.used_bytes(MemTier::Device), GIB);
        assert_eq!(m.used_bytes(MemTier::Host), GIB);
        assert_eq!(m.used_bytes(MemTier::Ssd), GIB);
        // Every spilled cluster sits in exactly one tier and per-tier
        // sums match the residency summaries.
        for id in 0..3 {
            let r = *m.residency(id).unwrap();
            let (mut host, mut ssd) = (0u64, 0u64);
            for (_, tier, b) in m.spilled_clusters(id) {
                match tier {
                    MemTier::Host => host += b,
                    MemTier::Ssd => ssd += b,
                    MemTier::Device => panic!("device cluster in the spilled map"),
                }
            }
            assert_eq!(host, r.host_bytes);
            assert_eq!(ssd, r.ssd_bytes);
        }
    }

    #[test]
    fn flat_policies_on_a_cluster_manager_fall_back_to_byte_math() {
        let mut m = server_manager(GIB, 8 * GIB, 0).with_cluster_mode(MIGRATION_CHUNK_BYTES, 0.0);
        m.admit(0, GIB, 0);
        m.admit(1, GIB, 1); // spills 0 entirely
        let out = m.step_restore(0, 1.0, false, 0, &NoPrefetch);
        assert!(out.miss_ps > 0);
        assert_eq!(out.exposed_ps, out.miss_ps);
        assert_eq!(
            (
                out.spec_clusters,
                out.demand_clusters,
                out.mispredicted_clusters
            ),
            (0, 0, 0),
            "flat plans carry no cluster telemetry"
        );
        assert_eq!(m.stats().restored_bytes, GIB);
    }

    #[test]
    fn untracked_streams_cost_nothing() {
        let mut m = server_manager(GIB, GIB, 0);
        assert_eq!(
            m.step_restore(99, 1.0, true, 0, &NoPrefetch),
            RestoreOutcome::default()
        );
        m.touch(99, 5);
        m.release(99);
        assert_eq!(m.stats(), TierStats::default());
    }
}

/// Oracle for the rank-run residency: a per-rank reference model of
/// cluster mode that keeps one `BTreeMap<rank, (tier, bytes)>` per
/// session and walks it one cluster at a time — the algorithm the runs
/// replace — driven side by side with the manager over random traces.
#[cfg(test)]
mod reference_model {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use vrex_hwsim::dram::DramConfig;
    use vrex_hwsim::pcie::PcieConfig;
    use vrex_hwsim::ssd::SsdConfig;

    /// One session's spilled clusters: rank -> (tier, bytes).
    type Spilled = BTreeMap<u64, (MemTier, u64)>;

    /// Cluster-mode residency with per-rank spilled maps.
    struct Model {
        caps: TierCapacities,
        path: TierPath,
        cfg: ClusterModeCfg,
        /// `(id, residency, spilled clusters by rank, step_seq)`,
        /// sorted by id.
        sessions: Vec<(usize, Residency, Spilled, u64)>,
        used: [u64; 3],
        ever_spilled: BTreeSet<usize>,
        stats: TierStats,
        pending: Vec<MigrationTask>,
        /// Demotions that moved granules chained past the cluster cap.
        chained: u64,
        /// Restore plans whose misprediction window wrapped past `tail`.
        wrapped: u64,
        /// Host cascades that stopped inside a same-size host stretch.
        split_cascades: u64,
    }

    impl Model {
        fn new(caps: TierCapacities, path: TierPath, cfg: ClusterModeCfg) -> Self {
            Self {
                caps,
                path,
                cfg,
                sessions: Vec::new(),
                used: [0; 3],
                ever_spilled: BTreeSet::new(),
                stats: TierStats::default(),
                pending: Vec::new(),
                chained: 0,
                wrapped: 0,
                split_cascades: 0,
            }
        }

        fn slot(&self, id: usize) -> Result<usize, usize> {
            self.sessions.binary_search_by_key(&id, |s| s.0)
        }

        fn admit(&mut self, id: usize, bytes: u64, now_ps: u64) {
            let i = self.slot(id).unwrap_or_else(|i| {
                let fresh = (id, Residency::default(), BTreeMap::new(), 0);
                self.sessions.insert(i, fresh);
                i
            });
            self.sessions[i].1.device_bytes += bytes;
            self.sessions[i].1.last_active_ps = now_ps;
            self.used[0] += bytes;
            self.spill_down();
        }

        fn grow(&mut self, id: usize, delta: u64, now_ps: u64) {
            if let Ok(i) = self.slot(id) {
                self.sessions[i].1.device_bytes += delta;
                self.sessions[i].1.last_active_ps = now_ps;
                self.used[0] += delta;
            }
            self.spill_down();
        }

        fn touch(&mut self, id: usize, now_ps: u64) {
            if let Ok(i) = self.slot(id) {
                self.sessions[i].1.last_active_ps = now_ps;
            }
        }

        fn release(&mut self, id: usize) {
            if let Ok(i) = self.slot(id) {
                let (_, r, _, _) = self.sessions.remove(i);
                for tier in MemTier::ALL {
                    self.used[tier_index(tier)] -= tier_bytes(&r, tier);
                }
            }
            self.promote();
        }

        fn spill_down(&mut self) {
            self.spill_tier(MemTier::Device);
            self.spill_tier(MemTier::Host);
        }

        fn spill_tier(&mut self, tier: MemTier) {
            let src = tier_index(tier);
            if self.used[src] <= self.caps.capacity(tier) {
                return;
            }
            let mut order: Vec<usize> = (0..self.sessions.len()).collect();
            order.sort_by_key(|&i| (self.sessions[i].1.last_active_ps, self.sessions[i].0));
            for protected_pass in [false, true] {
                for &si in &order {
                    if self.used[src] <= self.caps.capacity(tier) {
                        return;
                    }
                    if !self.demote(si, tier, protected_pass) {
                        return;
                    }
                }
            }
        }

        fn demote(&mut self, si: usize, tier: MemTier, protected_pass: bool) -> bool {
            let src = tier_index(tier);
            let cap = self.caps.capacity(tier);
            let id = self.sessions[si].0;
            let total = self.sessions[si].1.total_bytes();
            if total == 0 {
                return true;
            }
            let granule = self.cfg.granule(total);
            let n = total.div_ceil(granule);
            let protected = protected_clusters(n, self.cfg.protected_ratio);
            let limit = if protected_pass { n } else { n - protected };
            let mut run: Option<(MemTier, u64)> = None;
            let mut last_cascaded: Option<(u64, u64)> = None;
            let ok = loop {
                if self.used[src] <= cap {
                    break true;
                }
                let (bytes, cascade_key) = if tier == MemTier::Device {
                    let device = self.sessions[si].1.device_bytes;
                    if device == 0 {
                        break true;
                    }
                    let s = self.sessions[si].1.spilled_bytes().div_ceil(granule);
                    if !protected_pass && s >= limit {
                        break true;
                    }
                    (granule.min(device), None)
                } else {
                    let found = self.sessions[si]
                        .2
                        .range(..limit)
                        .find(|(_, c)| c.0 == tier)
                        .map(|(&k, c)| (k, c.1));
                    match found {
                        Some((k, bytes)) => (bytes, Some(k)),
                        None => break true,
                    }
                };
                let room = |t: MemTier| {
                    self.caps
                        .capacity(t)
                        .saturating_sub(self.used[tier_index(t)])
                };
                let Some(dest) = self.caps.below(tier).find(|&t| room(t) >= bytes) else {
                    break false;
                };
                if let Some((to, b)) = run {
                    if to != dest {
                        self.pending.push(MigrationTask {
                            session: id,
                            from: tier,
                            to,
                            bytes: b,
                        });
                        run = None;
                    }
                }
                run = Some((dest, run.map_or(0, |(_, b)| b) + bytes));
                let s = &mut self.sessions[si];
                match cascade_key {
                    None => {
                        let rank = s.2.len() as u64;
                        s.2.insert(rank, (dest, bytes));
                        s.1.device_bytes -= bytes;
                        if granule > self.cfg.cluster_bytes {
                            self.chained += 1;
                        }
                    }
                    Some(key) => {
                        s.2.insert(key, (dest, bytes));
                        *tier_bytes_mut(&mut s.1, tier) -= bytes;
                        last_cascaded = Some((key, bytes));
                    }
                }
                *tier_bytes_mut(&mut self.sessions[si].1, dest) += bytes;
                self.used[src] -= bytes;
                self.used[tier_index(dest)] += bytes;
                self.stats.spilled_bytes += bytes;
            };
            if let Some((key, bytes)) = last_cascaded {
                if self.sessions[si].2.get(&(key + 1)) == Some(&(tier, bytes)) {
                    self.split_cascades += 1;
                }
            }
            if let Some((to, bytes)) = run {
                self.pending.push(MigrationTask {
                    session: id,
                    from: tier,
                    to,
                    bytes,
                });
                self.ever_spilled.insert(id);
            }
            ok
        }

        fn promote(&mut self) {
            let mut free = self.caps.device_bytes.saturating_sub(self.used[0]);
            if free == 0 {
                return;
            }
            let mut order: Vec<usize> = (0..self.sessions.len())
                .filter(|&i| self.sessions[i].1.spilled_bytes() > 0)
                .collect();
            order.sort_by_key(|&i| {
                (
                    std::cmp::Reverse(self.sessions[i].1.last_active_ps),
                    self.sessions[i].0,
                )
            });
            'sessions: for si in order {
                let id = self.sessions[si].0;
                let mut run: Option<(MemTier, u64)> = None;
                while let Some((&key, &(tier, bytes))) = self.sessions[si].2.iter().next_back() {
                    if bytes > free {
                        flush(&mut self.pending, id, &mut run);
                        break 'sessions;
                    }
                    self.sessions[si].2.remove(&key);
                    *tier_bytes_mut(&mut self.sessions[si].1, tier) -= bytes;
                    self.sessions[si].1.device_bytes += bytes;
                    self.used[tier_index(tier)] -= bytes;
                    self.used[0] += bytes;
                    free -= bytes;
                    self.stats.promoted_bytes += bytes;
                    if run.is_some_and(|(from, _)| from != tier) {
                        flush(&mut self.pending, id, &mut run);
                    }
                    run = Some((tier, run.map_or(0, |(_, b)| b) + bytes));
                }
                flush(&mut self.pending, id, &mut run);
                if free == 0 {
                    break;
                }
            }
        }

        fn plan_restore(
            &mut self,
            id: usize,
            ratio: f64,
            generation: bool,
            prefetch: &dyn PrefetchPolicy,
        ) -> RestorePlan {
            let Ok(slot) = self.slot(id) else {
                return RestorePlan::default();
            };
            let ratio = ratio.clamp(0.0, 1.0);
            let (_, r, spilled, step_seq) = &self.sessions[slot];
            let total = r.total_bytes();
            let n = total.div_ceil(self.cfg.granule(total));
            let cp = prefetch
                .cluster_plan(&ClusterPrefetchRequest {
                    clusters: n,
                    selection_ratio: ratio,
                    generation,
                    step_seq: *step_seq,
                })
                .expect("the traces drive a cluster-aware policy");
            let predicted = cp.predicted.min(n);
            let tail = n - predicted;
            let mispredicted = cp.mispredicted.min(tail);
            let mut spec = [0u64; 3];
            let mut spec_clusters = 0;
            for &(tier, bytes) in spilled.range(tail..).map(|(_, c)| c) {
                spec[tier_index(tier)] += bytes;
                spec_clusters += 1;
            }
            let mut demand = [0u64; 3];
            let mut demand_clusters = 0;
            if tail > 0 {
                if step_seq % tail + mispredicted > tail {
                    self.wrapped += 1;
                }
                for j in 0..mispredicted {
                    if let Some(&(tier, bytes)) = spilled.get(&((step_seq + j) % tail)) {
                        demand[tier_index(tier)] += bytes;
                        demand_clusters += 1;
                    }
                }
            }
            let (host_bytes, ssd_bytes) = (spec[1] + demand[1], spec[2] + demand[2]);
            let price = |from, bytes| {
                self.path
                    .migrate_ps(from, MemTier::Device, bytes, self.cfg.cluster_bytes)
            };
            let (spec_bytes, demand_bytes) = (spec[1] + spec[2], demand[1] + demand[2]);
            let bytes = spec_bytes + demand_bytes;
            RestorePlan {
                host_bytes,
                ssd_bytes,
                host_ps: price(MemTier::Host, host_bytes),
                ssd_ps: price(MemTier::Ssd, ssd_bytes),
                coverage: if bytes > 0 {
                    spec_bytes as f64 / bytes as f64
                } else {
                    0.0
                },
                spec_bytes,
                demand_bytes,
                cluster: true,
                session: id,
                spec_clusters,
                demand_clusters,
                mispredicted_clusters: mispredicted,
            }
        }

        fn commit_restore(&mut self, plan: &RestorePlan, hidden_ps: u64, exposed_ps: u64) {
            if let (true, Ok(i)) = (plan.cluster, self.slot(plan.session)) {
                self.sessions[i].3 += 1;
            }
            if plan.miss_ps() == 0 {
                self.stats.tier_hit_steps += 1;
                return;
            }
            self.stats.tier_miss_steps += 1;
            self.stats.restored_bytes += plan.bytes();
            self.stats.hidden_ps += hidden_ps;
            self.stats.exposed_ps += exposed_ps;
        }
    }

    fn flush(pending: &mut Vec<MigrationTask>, session: usize, run: &mut Option<(MemTier, u64)>) {
        if let Some((from, bytes)) = run.take() {
            pending.push(MigrationTask {
                session,
                from,
                to: MemTier::Device,
                bytes,
            });
        }
    }

    /// SplitMix64: a dependency-free deterministic trace generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Asserts the manager and the model agree on everything the
    /// manager exposes; the per-rank cluster lists (up to 16384 entries
    /// a session) only when `ranks` is set.
    fn assert_same(m: &mut TieredKvManager, model: &mut Model, ranks: bool, ctx: &str) {
        let mut tasks = Vec::new();
        m.drain_migrations_into(&mut tasks);
        assert_eq!(
            tasks,
            std::mem::take(&mut model.pending),
            "{ctx}: migrations"
        );
        assert_eq!(m.stats(), model.stats, "{ctx}: stats");
        assert_eq!(
            m.ever_spilled_sessions(),
            model.ever_spilled.len(),
            "{ctx}: ever spilled"
        );
        for tier in MemTier::ALL {
            assert_eq!(
                m.used_bytes(tier),
                model.used[tier_index(tier)],
                "{ctx}: {tier}"
            );
        }
        for (id, r, spilled, _) in &model.sessions {
            assert_eq!(m.residency(*id), Some(r), "{ctx}: residency of {id}");
            if !ranks {
                continue;
            }
            let per_rank: Vec<_> = spilled.iter().map(|(&k, &(t, b))| (k, t, b)).collect();
            assert_eq!(m.spilled_clusters(*id), per_rank, "{ctx}: clusters of {id}");
        }
    }

    #[test]
    fn rank_runs_match_the_per_rank_reference_model() {
        let mut rng = Rng(0x5eed);
        let path = TierPath {
            pcie: PcieConfig::gen4_x16(),
            host_dram: Some(DramConfig::ddr4_cpu()),
            ssd: Some(SsdConfig::bg6_class()),
        };
        let (mut chained, mut wrapped, mut split_cascades) = (0, 0, 0);
        for trace in 0..48 {
            // Every sixth trace uses 1-3 byte clusters, so sessions of
            // tens of KB chain granules past the 16384-cluster cap; the
            // rest use coarse clusters, a few dozen per session.
            let tiny = trace % 6 == 0;
            let cluster_bytes = if tiny {
                1 + rng.below(3)
            } else {
                256 + rng.below(4096)
            };
            let unit = if tiny { 8192 } else { 8 * cluster_bytes };
            let caps = TierCapacities {
                device_bytes: unit * (4 + rng.below(8)),
                host_bytes: unit * (2 + rng.below(8)),
                ssd_bytes: unit * 64,
            };
            let cfg = ClusterModeCfg {
                cluster_bytes,
                protected_ratio: rng.below(5) as f64 / 4.0,
            };
            let mut m = TieredKvManager::new(caps, path.clone())
                .with_cluster_mode(cfg.cluster_bytes, cfg.protected_ratio);
            let mut model = Model::new(caps, path.clone(), cfg);
            let mut now = 0u64;
            for step in 0..64 {
                // Small clock steps leave coldness ties for the id
                // tie-break to resolve.
                now += rng.below(3);
                let id = rng.below(6) as usize;
                let ctx = format!("trace {trace} step {step}");
                match rng.below(16) {
                    0..=2 => {
                        let bytes = unit / 2 + rng.below(3 * unit);
                        m.admit(id, bytes, now);
                        model.admit(id, bytes, now);
                    }
                    3..=6 => {
                        let delta = 1 + rng.below(unit);
                        m.grow(id, delta, now);
                        model.grow(id, delta, now);
                    }
                    7 => {
                        m.touch(id, now);
                        model.touch(id, now);
                    }
                    8 => {
                        m.release(id);
                        model.release(id);
                    }
                    9 => {
                        // Shrink the host budget under its contents: the
                        // cascade moves the coldest host clusters to the
                        // SSD, usually stopping inside a run.
                        let host = m.used_bytes(MemTier::Host);
                        let shrunk = host - host.min(1 + rng.below(unit));
                        m.caps.host_bytes = shrunk;
                        model.caps.host_bytes = shrunk;
                        m.spill_down();
                        model.spill_down();
                    }
                    _ => {
                        let ratio = rng.below(101) as f64 / 100.0;
                        let generation = rng.below(2) == 1;
                        let policy = ClusterPrefetch {
                            accuracy: [0.0, 0.5, 0.9][rng.below(3) as usize],
                        };
                        let plan = m.plan_restore(id, ratio, generation, &policy);
                        assert_eq!(
                            plan,
                            model.plan_restore(id, ratio, generation, &policy),
                            "{ctx}: restore plan"
                        );
                        let hidden = rng.below(plan.miss_ps() + 1);
                        m.commit_restore(&plan, hidden, plan.miss_ps() - hidden);
                        model.commit_restore(&plan, hidden, plan.miss_ps() - hidden);
                    }
                }
                assert_same(&mut m, &mut model, !tiny || step % 8 == 7, &ctx);
            }
            chained += model.chained;
            wrapped += model.wrapped;
            split_cascades += model.split_cascades;
        }
        // The traces must reach the cases only the run arithmetic has
        // to get right.
        assert!(chained > 0, "no demotion chained granules past the cap");
        assert!(wrapped > 0, "no misprediction window wrapped past the tail");
        assert!(split_cascades > 0, "no host cascade split a run");
    }
}
