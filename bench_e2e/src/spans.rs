//! The benchmark's own spans around the public calls it makes.
//!
//! A [`Tracer`] is the harness's single timing primitive: every measured
//! interval goes through [`Tracer::begin`]/[`Tracer::end`], which always
//! return the duration and, when tracing is on, also record a [`Span`] into
//! a vector preallocated up front. At exit the spans are exported as a
//! Chrome trace plus a per-name self-time table (a span's duration minus
//! the part of it its children cover).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::esc;

/// Spans preallocated for a traced run (a run that records more grows the
/// vector; the count is far above what any workload emits).
const CAPACITY: usize = 1 << 16;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `collective.advance_batch`.
    pub name: &'static str,
    /// Start offset from the epoch.
    pub start_ns: u64,
    /// End offset from the epoch (`start_ns` while still open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The pack, sweep or server job the span belongs to.
    pub id: u64,
}

/// An open interval: its start instant and, when recording, its slot.
#[derive(Debug)]
pub struct Open {
    slot: Option<usize>,
    start: Instant,
}

impl Open {
    /// The recorded span's index, to parent child spans on.
    pub fn slot(&self) -> Option<usize> {
        self.slot
    }
}

/// Span recorder; inert (timing only) when tracing is off.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose offsets count from `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::with_capacity(if enabled { CAPACITY } else { 0 }),
        }
    }

    /// True when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> Open {
        let start = Instant::now();
        let slot = self.push(name, parent, id, start, start);
        Open { slot, start }
    }

    /// Closes a span now and returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        if let Some(i) = open.slot {
            self.spans[i].end_ns = self.offset(now);
        }
        now - open.start
    }

    /// Records an interval measured elsewhere (another thread's
    /// timestamps), returning its slot.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        self.push(name, parent, id, start, end)
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Nanoseconds of `[start, end)` not covered by any of `children`
/// (clipped to the parent; children may nest, touch or overlap).
pub fn self_time_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

/// Children intervals of every span, indexed by parent slot.
fn children_of(spans: &[Span]) -> Vec<Vec<(u64, u64)>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push((s.start_ns, s.end_ns));
        }
    }
    kids
}

/// Share of each named span's duration its children cover, summed over
/// every span with that name (1.0 when a name has no duration).
pub fn coverage(spans: &[Span], name: &str) -> f64 {
    let kids = children_of(spans);
    let (mut total, mut own) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
        total += s.end_ns - s.start_ns;
        own += self_time_ns(s.start_ns, s.end_ns, &kids[i]);
    }
    if total == 0 {
        1.0
    } else {
        1.0 - own as f64 / total as f64
    }
}

/// Per-name `(count, total ns, self ns)`, sorted by name.
pub fn self_time_table(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let kids = children_of(spans);
    let mut table = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let row = table.entry(s.name).or_insert((0, 0, 0));
        row.0 += 1;
        row.1 += s.end_ns - s.start_ns;
        row.2 += self_time_ns(s.start_ns, s.end_ns, &kids[i]);
    }
    table
}

/// Chrome Trace Format JSON: one complete (`X`) event per span on lane
/// `tid = id`, plus a top-level `selfTime` table in milliseconds.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}",
            esc(s.name),
            s.id,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\",\"selfTime\":{");
    for (i, (name, (count, total, own))) in self_time_table(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"count\":{count},\"total_ms\":{},\"self_ms\":{}}}",
            esc(name),
            *total as f64 / 1e6,
            *own as f64 / 1e6
        ));
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_union_of_children() {
        // No children: all self.
        assert_eq!(self_time_ns(0, 100, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time_ns(0, 100, &[(10, 20), (30, 40)]), 80);
        // Nested child inside another child counts once.
        assert_eq!(self_time_ns(0, 100, &[(10, 50), (20, 30)]), 60);
        // Overlapping children (another thread's work) count as a union.
        assert_eq!(self_time_ns(0, 100, &[(10, 50), (40, 70)]), 40);
        // Touching children merge without double counting.
        assert_eq!(self_time_ns(0, 100, &[(10, 50), (50, 60)]), 50);
        // Children poking outside the parent are clipped.
        assert_eq!(self_time_ns(10, 100, &[(0, 20), (90, 120)]), 70);
        // Fully covered.
        assert_eq!(self_time_ns(0, 100, &[(0, 100), (20, 30)]), 0);
    }

    #[test]
    fn table_and_coverage_follow_parent_links() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let at = |ns: u64| epoch + Duration::from_nanos(ns);
        let root = t.record("pack", None, 0, at(0), at(100));
        t.record("collective.advance_batch", root, 0, at(0), at(60));
        t.record("collective.advance_batch", root, 0, at(60), at(90));
        let table = self_time_table(t.spans());
        assert_eq!(table["pack"], (1, 100, 10));
        assert_eq!(table["collective.advance_batch"], (2, 90, 90));
        assert!((coverage(t.spans(), "pack") - 0.9).abs() < 1e-12);
        let trace = chrome_trace(t.spans());
        assert!(trace.contains("\"selfTime\""));
        assert!(trace.contains("\"name\":\"pack\""));
    }

    #[test]
    fn disabled_tracer_still_times() {
        let mut t = Tracer::new(false, Instant::now());
        let open = t.begin("x", None, 0);
        assert_eq!(open.slot(), None);
        let _ = t.end(open);
        assert!(t.spans().is_empty());
    }
}
