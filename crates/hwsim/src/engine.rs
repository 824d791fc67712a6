//! Dependency-graph resource scheduler.
//!
//! The evaluation composes per-layer pipelines where compute
//! (QKV/attention/FFN), KV prediction, and KV fetch overlap subject to
//! data dependencies and resource exclusivity (Fig. 5). This engine
//! schedules such task graphs deterministically:
//!
//! * a **task** runs for a fixed duration on one **resource**;
//! * it starts at the maximum of its dependencies' end times and the
//!   resource's availability; resources serve one task at a time;
//! * busy intervals are recorded per resource with byte annotations so
//!   bandwidth-over-time traces (Fig. 17) fall out directly.
//!
//! Two scheduling disciplines coexist on the same timelines:
//!
//! * [`Engine::schedule`] **appends**: the task starts no earlier than
//!   everything previously placed on the resource (FIFO order — the
//!   right discipline for a compute queue);
//! * [`Engine::reserve_after`] / [`Engine::schedule_after`] find the
//!   **earliest fit**: the first gap at or after a given instant that
//!   holds the duration, even if later work was already placed (the
//!   right discipline for latency-critical link transfers such as tier
//!   restores, which may claim link idle time that low-priority spill
//!   writebacks left behind — or that lies *before* the current
//!   simulation instant, modelling a prefetch that was issued when the
//!   work item first became visible).
//!
//! Every reservation costs O(log n + k) and allocates nothing but the
//! amortised growth of the engine's vectors: n is the number of
//! intervals on the resource and k the number of them the fit scan has
//! to step over. Busy intervals are sorted by start and never overlap,
//! so their ends are sorted too; a binary search skips every interval
//! that ends at or before the requested instant, and the scan walks
//! forward from there only until a gap holds the duration. Window
//! queries ([`Engine::window`], [`Engine::bandwidth_in_window`]) use
//! the same search and visit only the intervals that overlap the
//! window.

use crate::time::ps_to_seconds;

/// Identifies a resource registered with an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(usize);

/// Identifies a scheduled task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(usize);

/// One recorded busy interval on a resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusyInterval {
    /// Start time (ps).
    pub start: u64,
    /// End time (ps).
    pub end: u64,
    /// Bytes moved during the interval (0 for pure compute).
    pub bytes: u64,
    /// Human-readable tag (a static label, so recording an interval
    /// allocates nothing).
    pub tag: &'static str,
}

#[derive(Debug)]
struct Resource {
    name: String,
    /// End of the last *appended* task; [`Engine::schedule`] starts at
    /// or after this, so appended tasks stay FIFO even when earlier
    /// gaps exist.
    next_free: u64,
    /// Busy intervals, kept sorted by start and non-overlapping.
    busy: Vec<BusyInterval>,
}

impl Resource {
    /// Index of the first interval that ends after `t`. Ends are sorted
    /// because intervals are sorted by start and never overlap, so every
    /// interval before this index ends at or before `t`.
    fn first_ending_after(&self, t: u64) -> usize {
        self.busy.partition_point(|b| b.end <= t)
    }

    /// Earliest start `>= earliest` where `duration` fits into a gap of
    /// the (sorted, non-overlapping) timeline, and the index at which
    /// an interval starting there is inserted.
    fn earliest_fit(&self, earliest: u64, duration: u64) -> (u64, usize) {
        let mut candidate = earliest;
        let mut at = self.first_ending_after(earliest);
        while let Some(b) = self.busy.get(at) {
            if candidate.saturating_add(duration) <= b.start {
                break;
            }
            candidate = b.end;
            at += 1;
        }
        (candidate, at)
    }

    /// Inserts an interval at index `at` returned by
    /// [`Self::earliest_fit`], which keeps the timeline sorted by start.
    fn insert(&mut self, at: usize, iv: BusyInterval) {
        debug_assert!(
            at == 0 || self.busy[at - 1].end <= iv.start,
            "reservation overlaps its predecessor"
        );
        debug_assert!(
            at == self.busy.len() || iv.end <= self.busy[at].start,
            "reservation overlaps its successor"
        );
        self.busy.insert(at, iv);
    }
}

#[derive(Debug, Clone, Copy)]
struct Task {
    start: u64,
    end: u64,
}

/// A deterministic task-graph scheduler.
///
/// # Examples
///
/// ```
/// use vrex_hwsim::Engine;
///
/// let mut e = Engine::new();
/// let cpu = e.add_resource("cpu");
/// let bus = e.add_resource("bus");
/// let a = e.schedule(cpu, 100, &[], "compute", 0);
/// let b = e.schedule(bus, 50, &[a], "fetch", 4096);
/// assert_eq!(e.end_of(b), 150); // waits for `a`
/// ```
#[derive(Debug, Default)]
pub struct Engine {
    resources: Vec<Resource>,
    tasks: Vec<Task>,
}

impl Engine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a resource (compute unit, link, memory channel).
    pub fn add_resource(&mut self, name: &str) -> ResourceId {
        self.resources.push(Resource {
            name: name.to_string(),
            next_free: 0,
            busy: Vec::new(),
        });
        ResourceId(self.resources.len() - 1)
    }

    /// Schedules a task of `duration_ps` on `resource`, starting no
    /// earlier than `deps` have finished and everything previously
    /// *appended* to the resource (FIFO). Zero-duration tasks are legal
    /// (pure synchronisation points). Returns the task id.
    ///
    /// # Panics
    ///
    /// Panics if `resource` or any dependency id is invalid.
    pub fn schedule(
        &mut self,
        resource: ResourceId,
        duration_ps: u64,
        deps: &[TaskId],
        tag: &'static str,
        bytes: u64,
    ) -> TaskId {
        // Appended tasks also never overlap earliest-fit reservations:
        // reservations cap at the timeline's max end, which next_free
        // tracks.
        let frontier = self.next_free(resource);
        self.schedule_after(resource, frontier, duration_ps, deps, tag, bytes)
    }

    /// Reserves the **earliest fit** for `duration_ps` on `resource` at
    /// or after `earliest_ps`: the first gap in the timeline that holds
    /// the duration, even if that gap lies before work already placed.
    /// This is the reservation discipline for latency-critical
    /// transfers (tier restores, speculative prefetch) that claim link
    /// idle time — including idle time in the simulated past, modelling
    /// a transfer issued when its trigger first became visible.
    ///
    /// # Panics
    ///
    /// Panics if `resource` is invalid.
    pub fn reserve_after(
        &mut self,
        resource: ResourceId,
        earliest_ps: u64,
        duration_ps: u64,
        tag: &'static str,
        bytes: u64,
    ) -> TaskId {
        let res = &mut self.resources[resource.0];
        let (start, at) = res.earliest_fit(earliest_ps, duration_ps);
        let end = start + duration_ps;
        res.next_free = res.next_free.max(end);
        if duration_ps > 0 {
            res.insert(
                at,
                BusyInterval {
                    start,
                    end,
                    bytes,
                    tag,
                },
            );
        }
        self.tasks.push(Task { start, end });
        TaskId(self.tasks.len() - 1)
    }

    /// Dependency-aware earliest-fit: like [`Self::reserve_after`], but
    /// the start is additionally bounded below by every dependency's
    /// end time.
    ///
    /// # Panics
    ///
    /// Panics if `resource` or any dependency id is invalid.
    pub fn schedule_after(
        &mut self,
        resource: ResourceId,
        earliest_ps: u64,
        duration_ps: u64,
        deps: &[TaskId],
        tag: &'static str,
        bytes: u64,
    ) -> TaskId {
        let dep_ready = deps.iter().map(|d| self.tasks[d.0].end).max().unwrap_or(0);
        self.reserve_after(
            resource,
            earliest_ps.max(dep_ready),
            duration_ps,
            tag,
            bytes,
        )
    }

    /// The appended-task frontier of a resource: the earliest instant
    /// [`Self::schedule`] would start a new task (the max end over
    /// everything placed so far). Lets a caller append work that must
    /// additionally not start before some instant — e.g. a writeback
    /// decided *now* goes at `max(now, next_free)` so it is both
    /// lowest-priority and causal.
    pub fn next_free(&self, r: ResourceId) -> u64 {
        self.resources[r.0].next_free
    }

    /// Start time (ps) of a task.
    pub fn start_of(&self, task: TaskId) -> u64 {
        self.tasks[task.0].start
    }

    /// End time (ps) of a task.
    pub fn end_of(&self, task: TaskId) -> u64 {
        self.tasks[task.0].end
    }

    /// Latest end time across all tasks (0 when empty).
    pub fn makespan(&self) -> u64 {
        self.tasks.iter().map(|t| t.end).max().unwrap_or(0)
    }

    /// Name of a resource.
    pub fn resource_name(&self, r: ResourceId) -> &str {
        &self.resources[r.0].name
    }

    /// Busy intervals recorded on a resource, sorted by start time.
    pub fn trace(&self, r: ResourceId) -> &[BusyInterval] {
        &self.resources[r.0].busy
    }

    /// Busy intervals of a resource with `end > t0` and `start < t1`
    /// (for `t0 < t1`: exactly those overlapping `[t0, t1)`), in start
    /// order. Two binary searches bound the slice, so a query costs
    /// O(log n) however long the timeline is.
    pub fn window(&self, r: ResourceId, t0: u64, t1: u64) -> &[BusyInterval] {
        let res = &self.resources[r.0];
        let lo = res.first_ending_after(t0);
        let hi = res.busy.partition_point(|b| b.start < t1);
        // `hi < lo` only for an inverted window (`t1 < t0`).
        &res.busy[lo..hi.max(lo)]
    }

    /// Total busy time (ps) of a resource.
    pub fn busy_time(&self, r: ResourceId) -> u64 {
        self.resources[r.0]
            .busy
            .iter()
            .map(|b| b.end - b.start)
            .sum()
    }

    /// Utilisation of a resource over the makespan, in `[0, 1]`.
    /// A resource with no recorded work — or an engine whose makespan
    /// is zero — pins to `0.0` rather than dividing by zero.
    pub fn utilization(&self, r: ResourceId) -> f64 {
        let span = self.makespan();
        if span == 0 {
            0.0
        } else {
            self.busy_time(r) as f64 / span as f64
        }
    }

    /// Average bandwidth (bytes/s) of a resource within `[t0, t1)`,
    /// attributing each interval's bytes uniformly over its duration.
    /// This is the Fig. 17 bandwidth-timeline query. An empty window
    /// (`t1 <= t0`) carries no bytes and pins to `0.0`; so does an
    /// empty timeline.
    pub fn bandwidth_in_window(&self, r: ResourceId, t0: u64, t1: u64) -> f64 {
        if t1 <= t0 {
            return 0.0;
        }
        let mut bytes = 0.0;
        for b in self.window(r, t0, t1) {
            let overlap_start = b.start.max(t0);
            let overlap_end = b.end.min(t1);
            if overlap_end > overlap_start && b.end > b.start {
                let frac = (overlap_end - overlap_start) as f64 / (b.end - b.start) as f64;
                bytes += b.bytes as f64 * frac;
            }
        }
        bytes / ps_to_seconds(t1 - t0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn independent_tasks_on_one_resource_serialize() {
        let mut e = Engine::new();
        let r = e.add_resource("unit");
        let a = e.schedule(r, 100, &[], "a", 0);
        let b = e.schedule(r, 50, &[], "b", 0);
        assert_eq!(e.end_of(a), 100);
        assert_eq!(e.end_of(b), 150);
    }

    #[test]
    fn independent_tasks_on_two_resources_overlap() {
        let mut e = Engine::new();
        let r1 = e.add_resource("u1");
        let r2 = e.add_resource("u2");
        let a = e.schedule(r1, 100, &[], "a", 0);
        let b = e.schedule(r2, 80, &[], "b", 0);
        assert_eq!(e.end_of(a), 100);
        assert_eq!(e.end_of(b), 80);
        assert_eq!(e.makespan(), 100);
    }

    #[test]
    fn dependencies_defer_start() {
        let mut e = Engine::new();
        let r1 = e.add_resource("u1");
        let r2 = e.add_resource("u2");
        let a = e.schedule(r1, 100, &[], "a", 0);
        let b = e.schedule(r2, 10, &[a], "b", 0);
        assert_eq!(e.end_of(b), 110);
        assert_eq!(e.start_of(b), 100);
    }

    #[test]
    fn zero_duration_tasks_synchronise() {
        let mut e = Engine::new();
        let r = e.add_resource("u");
        let a = e.schedule(r, 30, &[], "a", 0);
        let join = e.schedule(r, 0, &[a], "join", 0);
        assert_eq!(e.end_of(join), 30);
        assert!(e.trace(r).len() == 1, "zero tasks leave no trace");
    }

    #[test]
    fn utilization_and_busy_time() {
        let mut e = Engine::new();
        let r1 = e.add_resource("u1");
        let r2 = e.add_resource("u2");
        e.schedule(r1, 100, &[], "a", 0);
        e.schedule(r2, 25, &[], "b", 0);
        assert_eq!(e.busy_time(r2), 25);
        assert!((e.utilization(r2) - 0.25).abs() < 1e-12);
        assert!((e.utilization(r1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_pins_to_zero_without_tasks() {
        // Empty engine: makespan 0 must not divide by zero.
        let mut e = Engine::new();
        let r = e.add_resource("idle");
        assert_eq!(e.utilization(r), 0.0);
        // A resource with no tasks while others are busy: 0, not NaN.
        let busy = e.add_resource("busy");
        e.schedule(busy, 100, &[], "work", 0);
        assert_eq!(e.utilization(r), 0.0);
        assert_eq!(e.busy_time(r), 0);
    }

    #[test]
    fn bandwidth_window_attributes_bytes() {
        let mut e = Engine::new();
        let link = e.add_resource("pcie");
        // 1000 ps moving 1000 bytes -> 1e12 bytes/s within the window.
        e.schedule(link, 1000, &[], "xfer", 1000);
        let bw = e.bandwidth_in_window(link, 0, 1000);
        assert!((bw - 1e12).abs() / 1e12 < 1e-9);
        // Half-window sees half the bytes over half the time: same rate.
        let bw_half = e.bandwidth_in_window(link, 0, 500);
        assert!((bw_half - 1e12).abs() / 1e12 < 1e-9);
        // Idle window: zero.
        assert_eq!(e.bandwidth_in_window(link, 2000, 3000), 0.0);
    }

    #[test]
    fn empty_bandwidth_windows_pin_to_zero() {
        let mut e = Engine::new();
        let link = e.add_resource("pcie");
        // Empty timeline, empty window, inverted window: all 0.0.
        assert_eq!(e.bandwidth_in_window(link, 0, 100), 0.0);
        assert_eq!(e.bandwidth_in_window(link, 50, 50), 0.0);
        assert_eq!(e.bandwidth_in_window(link, 70, 30), 0.0);
        e.schedule(link, 1000, &[], "xfer", 1000);
        // A zero-width window inside a busy interval still carries no
        // bytes (no time passes).
        assert_eq!(e.bandwidth_in_window(link, 500, 500), 0.0);
    }

    #[test]
    fn reserve_after_takes_the_earliest_gap() {
        let mut e = Engine::new();
        let link = e.add_resource("link");
        e.schedule(link, 100, &[], "a", 0); // [0, 100)
        let b = e.reserve_after(link, 300, 100, "b", 0); // [300, 400)
        assert_eq!(e.start_of(b), 300);
        // 150 ps fits the [100, 300) gap even though `b` is placed.
        let c = e.reserve_after(link, 0, 150, "c", 0);
        assert_eq!(e.start_of(c), 100);
        assert_eq!(e.end_of(c), 250);
        // 60 ps next: the remaining [250, 300) gap is too small, so it
        // lands after `b`.
        let d = e.reserve_after(link, 0, 60, "d", 0);
        assert_eq!(e.start_of(d), 400);
        // Timeline stayed sorted and non-overlapping.
        let trace = e.trace(link);
        for w in trace.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
    }

    #[test]
    fn schedule_after_respects_deps_and_gaps() {
        let mut e = Engine::new();
        let cpu = e.add_resource("cpu");
        let link = e.add_resource("link");
        let a = e.schedule(cpu, 200, &[], "compute", 0);
        e.reserve_after(link, 0, 50, "early", 0); // [0, 50)
                                                  // Depends on `a` (ends 200): the [50, ..] gap is admissible but
                                                  // the dependency pushes the start to 200.
        let b = e.schedule_after(link, 0, 30, &[a], "after-dep", 0);
        assert_eq!(e.start_of(b), 200);
        // No deps, earliest 10: fits right after the first interval.
        let c = e.schedule_after(link, 10, 30, &[], "gap", 0);
        assert_eq!(e.start_of(c), 50);
    }

    #[test]
    fn append_schedule_stays_fifo_despite_gaps() {
        let mut e = Engine::new();
        let r = e.add_resource("q");
        e.reserve_after(r, 1000, 100, "late", 0); // [1000, 1100)
                                                  // Appends go after everything already placed (FIFO), never into
                                                  // the [0, 1000) gap.
        let a = e.schedule(r, 10, &[], "a", 0);
        assert_eq!(e.start_of(a), 1100);
        // Earliest-fit can still use the gap afterwards.
        let b = e.reserve_after(r, 0, 500, "fill", 0);
        assert_eq!(e.start_of(b), 0);
    }

    /// The engine before its frontier index: a linear-scan earliest fit
    /// that walks each timeline from its first interval, and a sorted
    /// insert that searches for its own position. The reference-model
    /// property test below drives it next to [`Engine`].
    #[derive(Default)]
    struct LinearEngine {
        next_free: Vec<u64>,
        busy: Vec<Vec<BusyInterval>>,
        tasks: Vec<(u64, u64)>,
    }

    impl LinearEngine {
        fn add_resource(&mut self) {
            self.next_free.push(0);
            self.busy.push(Vec::new());
        }

        fn earliest_fit(&self, r: usize, earliest: u64, duration: u64) -> u64 {
            let mut candidate = earliest;
            for b in &self.busy[r] {
                if b.end <= candidate {
                    continue;
                }
                if candidate.saturating_add(duration) <= b.start {
                    break;
                }
                candidate = b.end;
            }
            candidate
        }

        fn dep_ready(&self, deps: &[TaskId]) -> u64 {
            deps.iter().map(|d| self.tasks[d.0].1).max().unwrap_or(0)
        }

        /// Places a reservation at or after `earliest` and returns its
        /// start, or places nothing and returns `None` if its end would
        /// not fit in `u64` picoseconds.
        fn reserve_after(
            &mut self,
            r: usize,
            earliest: u64,
            duration: u64,
            bytes: u64,
        ) -> Option<u64> {
            let start = self.earliest_fit(r, earliest, duration);
            let end = start.checked_add(duration)?;
            self.next_free[r] = self.next_free[r].max(end);
            if duration > 0 {
                let busy = &mut self.busy[r];
                let at = busy.partition_point(|b| b.start <= start);
                busy.insert(
                    at,
                    BusyInterval {
                        start,
                        end,
                        bytes,
                        tag: "op",
                    },
                );
            }
            self.tasks.push((start, end));
            Some(start)
        }
    }

    proptest! {
        /// Causality: no task ends before the latest dependency plus
        /// its own duration; resource intervals never overlap.
        #[test]
        fn schedule_respects_causality(durations in proptest::collection::vec(1u64..1000, 1..40)) {
            let mut e = Engine::new();
            let r = e.add_resource("u");
            let mut prev: Option<TaskId> = None;
            for &d in &durations {
                let deps: Vec<TaskId> = prev.into_iter().collect();
                let t = e.schedule(r, d, &deps, "t", 0);
                if let Some(p) = prev {
                    prop_assert!(e.end_of(t) >= e.end_of(p) + d);
                }
                prev = Some(t);
            }
            let trace = e.trace(r);
            for w in trace.windows(2) {
                prop_assert!(w[0].end <= w[1].start, "overlapping intervals");
            }
            prop_assert_eq!(e.busy_time(r), durations.iter().sum::<u64>());
        }

        /// Interval exclusivity under a random mix of appends and
        /// earliest-fit reservations on shared resources: every
        /// timeline stays strictly ordered by start with no overlap,
        /// every task occupies exactly its duration, and reservations
        /// never start before their requested earliest instant.
        #[test]
        fn mixed_reservations_never_overlap(
            ops in proptest::collection::vec(
                (0u8..3, 0usize..3, 0u64..5000, 1u64..800), 1..60)
        ) {
            let mut e = Engine::new();
            let rs = [
                e.add_resource("compute"),
                e.add_resource("pcie"),
                e.add_resource("ssd"),
            ];
            let mut last: Option<TaskId> = None;
            for &(op, ri, earliest, dur) in &ops {
                let r = rs[ri];
                let t = match op {
                    0 => e.schedule(r, dur, &[], "append", dur),
                    1 => {
                        let t = e.reserve_after(r, earliest, dur, "fit", dur);
                        prop_assert!(e.start_of(t) >= earliest);
                        t
                    }
                    _ => {
                        let deps: Vec<TaskId> = last.into_iter().collect();
                        let t = e.schedule_after(r, earliest, dur, &deps, "dep", dur);
                        prop_assert!(e.start_of(t) >= earliest);
                        if let Some(p) = last {
                            prop_assert!(e.start_of(t) >= e.end_of(p));
                        }
                        t
                    }
                };
                prop_assert_eq!(e.end_of(t) - e.start_of(t), dur);
                last = Some(t);
            }
            for r in rs {
                let trace = e.trace(r);
                for w in trace.windows(2) {
                    prop_assert!(
                        w[0].start < w[1].start,
                        "intervals not strictly ordered"
                    );
                    prop_assert!(
                        w[0].end <= w[1].start,
                        "overlapping intervals: {:?} then {:?}",
                        w[0],
                        w[1]
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Reference model: random mixes of `schedule`, `reserve_after`
        /// and `schedule_after` place every task exactly where the
        /// linear-scan engine does, and leave identical timelines. The
        /// mixes reach earliest instants behind the frontier and
        /// exactly at interval ends (back-to-back intervals with
        /// `end == start`), zero durations, dependencies, and instants
        /// and durations within a few ps of `u64::MAX`. An operation
        /// whose end would overflow `u64` is out of the engine's range
        /// and is skipped for both. After every operation the frontier
        /// search must stop at the exact first interval ending after
        /// each probe instant, and window queries must return exactly
        /// the overlapping intervals.
        #[test]
        fn reservations_match_the_linear_scan_reference(
            ops in proptest::collection::vec(
                (0u8..3, 0usize..3, (0u8..16, any::<u64>()), (0u8..16, any::<u64>()), any::<u64>()),
                1..80,
            )
        ) {
            let mut e = Engine::new();
            let mut m = LinearEngine::default();
            let rs: Vec<ResourceId> = (0..3).map(|_| e.add_resource("r")).collect();
            for _ in &rs {
                m.add_resource();
            }
            let mut ids: Vec<TaskId> = Vec::new();
            for &(op, ri, (at_mode, at_raw), (dur_mode, dur_raw), dep_raw) in &ops {
                let r = rs[ri];
                let busy = &m.busy[ri];
                let frontier = m.next_free[ri];
                let earliest = match at_mode {
                    // Behind (or at) the frontier.
                    0..=4 => at_raw % frontier.saturating_add(1),
                    // Exactly at an interval's end or start.
                    5..=7 if !busy.is_empty() => busy[(at_raw % busy.len() as u64) as usize].end,
                    8..=9 if !busy.is_empty() => busy[(at_raw % busy.len() as u64) as usize].start,
                    // Within a few ps of saturation.
                    10 => u64::MAX - at_raw % 64,
                    _ => at_raw % 5000,
                };
                let duration = match dur_mode {
                    0..=1 => 0,
                    // Ends within a few ps of saturation if placed at
                    // `earliest`.
                    2 => u64::MAX - dur_raw % 64 - earliest.min(u64::MAX - 64),
                    3 => u64::MAX / 2 + dur_raw % 1000,
                    _ => 1 + dur_raw % 800,
                };
                let deps: Vec<TaskId> = if ids.is_empty() || op == 1 {
                    Vec::new()
                } else {
                    let n = ids.len() as u64;
                    let k = (dep_raw % 3) as usize;
                    (0..k)
                        .map(|i| ids[((dep_raw >> (8 * i + 8)) % n) as usize])
                        .collect()
                };
                let dep_ready = m.dep_ready(&deps);
                let from = match op {
                    0 => frontier.max(dep_ready),
                    1 => earliest,
                    _ => earliest.max(dep_ready),
                };
                let Some(start) = m.reserve_after(ri, from, duration, dur_raw) else {
                    continue;
                };
                let t = match op {
                    0 => e.schedule(r, duration, &deps, "op", dur_raw),
                    1 => e.reserve_after(r, earliest, duration, "op", dur_raw),
                    _ => e.schedule_after(r, earliest, duration, &deps, "op", dur_raw),
                };
                ids.push(t);
                prop_assert_eq!(e.start_of(t), start);
                prop_assert_eq!(e.end_of(t), start + duration);
                let res = &e.resources[r.0];
                let probes = res
                    .busy
                    .iter()
                    .flat_map(|b| [b.start, b.end])
                    .chain([earliest, from, at_raw, 0, u64::MAX]);
                for p in probes {
                    let linear = res.busy.iter().filter(|b| b.end <= p).count();
                    prop_assert_eq!(res.first_ending_after(p), linear, "probe {}", p);
                }
                let (t0, t1) = (earliest.min(at_raw), earliest.max(at_raw));
                let overlapping: Vec<BusyInterval> = res
                    .busy
                    .iter()
                    .filter(|b| b.end > t0 && b.start < t1)
                    .copied()
                    .collect();
                prop_assert_eq!(e.window(r, t0, t1), overlapping.as_slice());
            }
            for (i, &t) in ids.iter().enumerate() {
                prop_assert_eq!((e.start_of(t), e.end_of(t)), m.tasks[i]);
            }
            for (ri, &r) in rs.iter().enumerate() {
                prop_assert_eq!(e.trace(r), m.busy[ri].as_slice());
                prop_assert_eq!(e.next_free(r), m.next_free[ri]);
            }
        }
    }
}
