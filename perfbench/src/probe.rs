//! Spans around the calls the benchmark makes into each layer.
//!
//! Workload code is generic over [`Probe`]. Untraced runs use [`Off`],
//! whose methods compile to nothing; the traced run uses [`Tracer`],
//! which keeps every span in memory until the run ends. The two
//! wrappers below put spans and counts at the `PlanSource` and
//! `RetrievalPolicy` boundaries.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use vrex_model::policy::SelectionRequest;
use vrex_model::{RetrievalPolicy, Selection};
use vrex_tensor::Matrix;
use vrex_workload::traffic::{PlanSource, SessionPlan};

/// Span recorder seen by workload code.
pub trait Probe {
    /// Opens a span named `name` in `group` (the fleet or stream it
    /// belongs to) and returns its handle.
    fn enter(&mut self, name: &'static str, group: u64) -> u32;
    /// Closes the span `id`.
    fn exit(&mut self, id: u32);
}

/// The untraced probe.
#[derive(Debug, Default)]
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn enter(&mut self, _: &'static str, _: u64) -> u32 {
        0
    }

    #[inline(always)]
    fn exit(&mut self, _: u32) {}
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Boundary name.
    pub name: &'static str,
    /// Fleet or stream id shared by the spans of one fleet or stream.
    pub group: u64,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Probe for Tracer {
    fn enter(&mut self, name: &'static str, group: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            group,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: u32) {
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id as usize].end_ns = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in nesting order");
    }
}

/// Per-name totals of a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Σ span durations, ns.
    pub total_ns: u64,
    /// Σ self time (duration minus the part covered by child spans), ns.
    pub self_ns: u64,
}

impl Tracer {
    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Totals per span name over the spans from index `from` on.
    pub fn totals_since(&self, from: usize) -> BTreeMap<&'static str, SpanTotals> {
        let spans = &self.spans[from..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                if let Some(slot) = (p as usize).checked_sub(from) {
                    child_ns[slot] += s.dur_ns();
                }
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(child);
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id parent group name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tgroup\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.group, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A `PlanSource` that counts the plans it hands out and puts a
/// `next_plan` span around each one.
pub struct CountedSource<'a, S, P> {
    inner: S,
    probe: &'a mut P,
    group: u64,
    /// Plans handed out.
    pub plans: u64,
}

impl<'a, S: PlanSource, P: Probe> CountedSource<'a, S, P> {
    /// Wraps `inner`; spans go to `probe` under `group`.
    pub fn new(inner: S, probe: &'a mut P, group: u64) -> Self {
        Self {
            inner,
            probe,
            group,
            plans: 0,
        }
    }
}

impl<S: PlanSource, P: Probe> PlanSource for CountedSource<'_, S, P> {
    fn next_plan(&mut self) -> Option<SessionPlan> {
        let id = self.probe.enter("next_plan", self.group);
        let plan = self.inner.next_plan();
        self.probe.exit(id);
        self.plans += u64::from(plan.is_some());
        plan
    }

    fn remaining_hint(&self) -> usize {
        self.inner.remaining_hint()
    }
}

/// A `RetrievalPolicy` that counts calls and puts `select` and
/// `on_keys_appended` spans around the wrapped policy's.
pub struct CountedPolicy<'a, R, P> {
    inner: &'a mut R,
    /// The probe, also used by the stream loop for its own spans.
    pub probe: &'a mut P,
    /// Stream id of every span.
    pub group: u64,
    /// `select` calls.
    pub selections: u64,
    /// `on_keys_appended` calls.
    pub appends: u64,
}

impl<'a, R: RetrievalPolicy, P: Probe> CountedPolicy<'a, R, P> {
    /// Wraps `inner`; spans go to `probe` under `group`.
    pub fn new(inner: &'a mut R, probe: &'a mut P, group: u64) -> Self {
        Self {
            inner,
            probe,
            group,
            selections: 0,
            appends: 0,
        }
    }
}

impl<R: RetrievalPolicy, P: Probe> RetrievalPolicy for CountedPolicy<'_, R, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_keys_appended(&mut self, layer: usize, kv_head: usize, keys: &Matrix, start: usize) {
        let id = self.probe.enter("on_keys_appended", self.group);
        self.inner.on_keys_appended(layer, kv_head, keys, start);
        self.probe.exit(id);
        self.appends += 1;
    }

    fn select(&mut self, request: &SelectionRequest<'_>) -> Selection {
        let id = self.probe.enter("select", self.group);
        let s = self.inner.select(request);
        self.probe.exit(id);
        self.selections += 1;
        s
    }
}
