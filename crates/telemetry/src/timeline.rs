//! Hierarchical span timeline with Chrome Trace Format export.
//!
//! The phase histograms in [`crate::metrics`] answer *how long does phase X
//! take on average*; this module answers *what happened when, on which
//! thread, for which system*. It records begin/end/instant events into
//! preallocated per-thread rings and renders them as Chrome Trace Format
//! JSON (the `{"traceEvents": […]}` object form) loadable in
//! `chrome://tracing` or Perfetto.
//!
//! Design constraints, in order:
//!
//! 1. **Off means free.** The timeline defaults to off; a disabled
//!    record-site costs one relaxed atomic load (the same budget as the
//!    metric gate). The workspace allocation-free proof runs with the
//!    timeline off, so the hot path must not even touch the thread-local.
//! 2. **Zero allocation on the hot path.** Each thread's ring is allocated
//!    once, on that thread's first recorded event; every later push is a
//!    fixed-size `Copy` store behind an uncontended per-thread mutex (the
//!    mutex exists only so the exporter can read rings it does not own).
//! 3. **Overwrite-oldest.** Rings never grow; old events are overwritten
//!    and the exporter repairs the resulting orphan begin/end pairs so the
//!    emitted JSON always has balanced `B`/`E` events.
//!
//! Spans are opened only by [`crate::metrics::span`], so span names are
//! [`crate::metrics::Phase`] names, and each begin/end event carries the
//! span guard's own clock reading: a span on the timeline and the duration
//! its guard returned are the same two reads. Point markers ([`instant`])
//! — learning-rate cuts, diagnostics — are the only events recorded
//! directly.
//!
//! System labels (one per packed system in a batched sweep) are interned to
//! `u32` ids once at setup; the hot path carries only the id, and the
//! batched engine scopes a thread-local current-system id around each
//! slot's work via [`SystemScope`].

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Master switch for timeline recording. Defaults to **off**: the timeline
/// is the expensive, opt-in layer (`--trace-timeline`), unlike the passive
/// metric registry.
static TIMELINE_ENABLED: AtomicBool = AtomicBool::new(false);

/// Per-thread ring capacity (events), read at ring creation.
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

/// Default per-thread event-ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 16_384;

/// Enables or disables timeline recording. Enabling pins the epoch, so
/// every span opened afterwards starts after it.
pub fn set_timeline_enabled(on: bool) {
    if on {
        epoch();
    }
    TIMELINE_ENABLED.store(on, Ordering::Relaxed);
}

/// True when the timeline is recording.
#[inline]
pub fn timeline_enabled() -> bool {
    TIMELINE_ENABLED.load(Ordering::Relaxed)
}

/// Sets the per-thread ring capacity used for rings created *after* this
/// call (existing rings keep their size). Clamped to at least 16.
pub fn set_ring_capacity(events: usize) {
    RING_CAPACITY.store(events.max(16), Ordering::Relaxed);
}

/// The shared monotonic epoch all timestamps are measured from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide timeline epoch.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What a [`TimelineEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`ph: "B"`).
    Begin,
    /// A span closed (`ph: "E"`).
    End,
    /// A point-in-time marker with a value (`ph: "i"`).
    Instant,
}

/// One fixed-size timeline event. `Copy`, so ring pushes never allocate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineEvent {
    /// Event kind.
    pub kind: EventKind,
    /// Static span/marker name.
    pub name: &'static str,
    /// Nanoseconds since the timeline epoch.
    pub ts_ns: u64,
    /// Interned system-label id (0 = no system).
    pub system: u32,
    /// Payload for instant events (span events carry 0.0).
    pub value: f64,
}

/// A preallocated overwrite-oldest event ring owned by one thread.
#[derive(Debug)]
struct ThreadRing {
    /// Stable exporter-facing thread id (registration order).
    tid: u32,
    events: Box<[TimelineEvent]>,
    head: usize,
    len: usize,
    dropped: u64,
}

impl ThreadRing {
    fn push(&mut self, ev: TimelineEvent) {
        let cap = self.events.len();
        let idx = (self.head + self.len) % cap;
        self.events[idx] = ev;
        if self.len == cap {
            self.head = (self.head + 1) % cap;
            self.dropped += 1;
        } else {
            self.len += 1;
        }
    }

    /// Events oldest-first.
    fn ordered(&self) -> Vec<TimelineEvent> {
        let cap = self.events.len();
        (0..self.len)
            .map(|i| self.events[(self.head + i) % cap])
            .collect()
    }

    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
        self.dropped = 0;
    }
}

/// Every ring ever created, for the exporter. Rings of finished threads
/// stay alive through the registry's `Arc`.
static REGISTRY: Mutex<Vec<Arc<Mutex<ThreadRing>>>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// This thread's ring handle; created lazily on the first recorded
    /// event (so threads that never record allocate nothing).
    static LOCAL_RING: std::cell::OnceCell<Arc<Mutex<ThreadRing>>> =
        const { std::cell::OnceCell::new() };
    /// The system label id currently attributed to this thread's events.
    static CURRENT_SYSTEM: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

fn with_local_ring(f: impl FnOnce(&mut ThreadRing)) {
    LOCAL_RING.with(|cell| {
        let handle = cell.get_or_init(|| {
            let cap = RING_CAPACITY.load(Ordering::Relaxed);
            let ring = Arc::new(Mutex::new(ThreadRing {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                events: vec![
                    TimelineEvent {
                        kind: EventKind::Instant,
                        name: "",
                        ts_ns: 0,
                        system: 0,
                        value: 0.0,
                    };
                    cap
                ]
                .into_boxed_slice(),
                head: 0,
                len: 0,
                dropped: 0,
            }));
            REGISTRY.lock().unwrap().push(Arc::clone(&ring));
            ring
        });
        // Uncontended in steady state: only the exporter ever competes.
        f(&mut handle.lock().unwrap());
    });
}

/// Pushes one event; callers check [`timeline_enabled`] first.
#[inline]
fn record(kind: EventKind, name: &'static str, ts_ns: u64, value: f64) {
    let ev = TimelineEvent {
        kind,
        name,
        ts_ns,
        system: CURRENT_SYSTEM.with(std::cell::Cell::get),
        value,
    };
    with_local_ring(|r| r.push(ev));
}

/// Nanoseconds from the timeline epoch to `at`.
fn since_epoch(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Records a span-begin event at a clock reading the caller already took.
/// Spans reach the timeline only through [`crate::metrics::span`], which
/// checks the switch once at open and then records both ends.
#[inline]
pub(crate) fn begin(name: &'static str, at: Instant) {
    record(EventKind::Begin, name, since_epoch(at), 0.0);
}

/// Records a span-end event (see [`begin`]).
#[inline]
pub(crate) fn end(name: &'static str, at: Instant) {
    record(EventKind::End, name, since_epoch(at), 0.0);
}

/// Records a point-in-time marker with a numeric payload.
#[inline]
pub fn instant(name: &'static str, value: f64) {
    if timeline_enabled() {
        record(EventKind::Instant, name, now_ns(), value);
    }
}

// ---------------------------------------------------------------------------
// System labels
// ---------------------------------------------------------------------------

/// Interned system labels; id 0 is reserved for "no system", ids are
/// `index + 1` into this table.
static SYSTEM_LABELS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Interns a system label, returning its stable nonzero id. Repeated calls
/// with the same label return the same id. Not for the hot path — call once
/// per system at setup.
pub fn intern_system(label: &str) -> u32 {
    let mut table = SYSTEM_LABELS.lock().unwrap();
    if let Some(pos) = table.iter().position(|s| s == label) {
        return (pos + 1) as u32;
    }
    table.push(label.to_string());
    table.len() as u32
}

/// The label for an interned id (`None` for 0 or unknown ids).
pub fn system_label(id: u32) -> Option<String> {
    if id == 0 {
        return None;
    }
    SYSTEM_LABELS
        .lock()
        .unwrap()
        .get((id - 1) as usize)
        .cloned()
}

/// Scopes the calling thread's current-system attribution: events recorded
/// while the guard lives carry `system_id`; the previous id is restored on
/// drop (scopes nest).
#[must_use = "the system attribution reverts when the guard is dropped"]
#[derive(Debug)]
pub struct SystemScope {
    prev: u32,
}

impl SystemScope {
    /// Enters a system scope for an id from [`intern_system`].
    pub fn enter(system_id: u32) -> SystemScope {
        let prev = CURRENT_SYSTEM.with(|c| c.replace(system_id));
        SystemScope { prev }
    }
}

impl Drop for SystemScope {
    fn drop(&mut self) {
        CURRENT_SYSTEM.with(|c| c.set(self.prev));
    }
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

/// Clears every registered ring (tests, and run setup so back-to-back runs
/// in one process do not mix timelines). Interned labels are kept.
pub fn reset_timeline() {
    for ring in REGISTRY.lock().unwrap().iter() {
        ring.lock().unwrap().clear();
    }
}

/// Total events dropped to ring overwrite across all threads.
pub fn dropped_events() -> u64 {
    REGISTRY
        .lock()
        .unwrap()
        .iter()
        .map(|r| r.lock().unwrap().dropped)
        .sum()
}

/// Per-name self time: total span time minus time spent in child spans.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Self time, nanoseconds.
    pub self_ns: u64,
    /// Number of completed spans.
    pub count: u64,
}

fn push_escaped(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

struct OpenFrame {
    name: &'static str,
    ts_ns: u64,
    system: u32,
    child_ns: u64,
}

/// One thread's repaired event stream plus its contribution to self-time.
struct RepairedThread {
    tid: u32,
    events: Vec<TimelineEvent>,
}

/// Repairs one thread's stream so begins and ends balance: orphan `E`
/// events (their `B` was overwritten) are discarded, unclosed `B` events
/// get a synthetic `E` at the stream's final timestamp. Also accumulates
/// per-name self time into `selves`.
fn repair_thread(raw: &[TimelineEvent], selves: &mut Vec<SelfTime>) -> Vec<TimelineEvent> {
    let mut out: Vec<TimelineEvent> = Vec::with_capacity(raw.len());
    let mut stack: Vec<OpenFrame> = Vec::new();
    let mut last_ts = raw.last().map_or(0, |e| e.ts_ns);

    let credit = |name: &'static str, total_ns: u64, child_ns: u64, selves: &mut Vec<SelfTime>| {
        let self_ns = total_ns.saturating_sub(child_ns);
        match selves.iter_mut().find(|s| s.name == name) {
            Some(s) => {
                s.self_ns += self_ns;
                s.count += 1;
            }
            None => selves.push(SelfTime {
                name,
                self_ns,
                count: 1,
            }),
        }
    };

    for ev in raw {
        last_ts = last_ts.max(ev.ts_ns);
        match ev.kind {
            EventKind::Begin => {
                stack.push(OpenFrame {
                    name: ev.name,
                    ts_ns: ev.ts_ns,
                    system: ev.system,
                    child_ns: 0,
                });
                out.push(*ev);
            }
            EventKind::End => {
                // Spans are RAII guards, so a well-formed stream always ends
                // the innermost open span; anything else is an orphan whose
                // begin was overwritten — drop it.
                if stack.last().is_some_and(|f| f.name == ev.name) {
                    let frame = stack.pop().unwrap();
                    let total = ev.ts_ns.saturating_sub(frame.ts_ns);
                    credit(frame.name, total, frame.child_ns, selves);
                    if let Some(parent) = stack.last_mut() {
                        parent.child_ns += total;
                    }
                    out.push(*ev);
                }
            }
            EventKind::Instant => out.push(*ev),
        }
    }
    // Synthesize ends for spans still open (innermost first).
    while let Some(frame) = stack.pop() {
        let total = last_ts.saturating_sub(frame.ts_ns);
        credit(frame.name, total, frame.child_ns, selves);
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += total;
        }
        out.push(TimelineEvent {
            kind: EventKind::End,
            name: frame.name,
            ts_ns: last_ts,
            system: frame.system,
            value: 0.0,
        });
    }
    out
}

fn collect_repaired(selves: &mut Vec<SelfTime>) -> Vec<RepairedThread> {
    let registry = REGISTRY.lock().unwrap();
    let mut threads: Vec<RepairedThread> = Vec::new();
    for ring in registry.iter() {
        let ring = ring.lock().unwrap();
        if ring.len == 0 {
            continue;
        }
        threads.push(RepairedThread {
            tid: ring.tid,
            events: repair_thread(&ring.ordered(), selves),
        });
    }
    threads.sort_by_key(|t| t.tid);
    threads
}

/// Per-name self-time attribution over all recorded (repaired) spans.
pub fn self_times() -> Vec<SelfTime> {
    let mut selves = Vec::new();
    let _ = collect_repaired(&mut selves);
    selves.sort_by_key(|s| std::cmp::Reverse(s.self_ns));
    selves
}

/// Renders every thread's repaired event stream as Chrome Trace Format
/// JSON (object form). Guarantees: well-formed JSON, balanced `B`/`E`
/// per thread, non-decreasing timestamps per thread. Timestamps are
/// microseconds (fractional) since the timeline epoch. Per-phase self time
/// is attached under the top-level `"selfTime"` key, which trace viewers
/// ignore.
pub fn export_chrome_trace() -> String {
    let mut selves = Vec::new();
    let threads = collect_repaired(&mut selves);
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let emit = |out: &mut String, body: &str, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(body);
    };
    for t in &threads {
        emit(
            &mut out,
            &format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"worker-{}\"}}}}",
                t.tid, t.tid
            ),
            &mut first,
        );
    }
    for t in &threads {
        for ev in &t.events {
            let ph = match ev.kind {
                EventKind::Begin => "B",
                EventKind::End => "E",
                EventKind::Instant => "i",
            };
            let ts_us = ev.ts_ns as f64 / 1_000.0;
            let mut body = format!(
                "{{\"ph\":\"{ph}\",\"pid\":1,\"tid\":{},\"ts\":{ts_us:.3},\"name\":\"",
                t.tid
            );
            push_escaped(&mut body, ev.name);
            body.push('"');
            if ev.kind == EventKind::Instant {
                body.push_str(",\"s\":\"t\"");
            }
            let label = system_label(ev.system);
            if label.is_some() || ev.kind == EventKind::Instant {
                body.push_str(",\"args\":{");
                let mut any = false;
                if let Some(label) = label {
                    body.push_str("\"system\":\"");
                    push_escaped(&mut body, &label);
                    body.push('"');
                    any = true;
                }
                if ev.kind == EventKind::Instant {
                    if any {
                        body.push(',');
                    }
                    if ev.value.is_finite() {
                        body.push_str(&format!("\"value\":{}", ev.value));
                    } else {
                        body.push_str("\"value\":null");
                    }
                }
                body.push('}');
            }
            body.push('}');
            emit(&mut out, &body, &mut first);
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"selfTime\":{");
    selves.sort_by_key(|s| std::cmp::Reverse(s.self_ns));
    for (i, s) in selves.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  \"");
        push_escaped(&mut out, s.name);
        out.push_str(&format!(
            "\":{{\"self_ns\":{},\"count\":{}}}",
            s.self_ns, s.count
        ));
    }
    out.push_str("\n}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry and enable flag are global: serialize timeline tests.
    static LOCK: Mutex<()> = Mutex::new(());

    fn balanced(events: &[TimelineEvent]) -> bool {
        let mut depth = 0i64;
        for e in events {
            match e.kind {
                EventKind::Begin => depth += 1,
                EventKind::End => {
                    depth -= 1;
                    if depth < 0 {
                        return false;
                    }
                }
                EventKind::Instant => {}
            }
        }
        depth == 0
    }

    #[test]
    fn disabled_timeline_records_nothing() {
        let _g = LOCK.lock().unwrap();
        reset_timeline();
        set_timeline_enabled(false);
        crate::metrics::span(crate::metrics::Phase::SystemPass).finish();
        instant("phantom", 1.0);
        let json = export_chrome_trace();
        assert!(!json.contains("system_pass"));
        assert!(!json.contains("phantom"));
    }

    #[test]
    fn span_guard_pairs_begin_end() {
        use crate::metrics::{span, Phase};
        let _g = LOCK.lock().unwrap();
        reset_timeline();
        set_timeline_enabled(true);
        // Structural phases: no histogram, so the metric tests' global
        // registry is left alone.
        let outer = span(Phase::Batch);
        let inner = span(Phase::Optimize);
        let inner_ns = inner.finish().as_nanos() as u64;
        let outer_ns = outer.finish().as_nanos() as u64;
        set_timeline_enabled(false);
        let json = export_chrome_trace();
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"name\":\"batch\""));
        assert!(json.contains("\"name\":\"optimize\""));
        // The events carry the guard's own clock readings.
        let selves = self_times();
        let get = |name| selves.iter().find(|s| s.name == name).unwrap();
        assert_eq!(get("optimize").count, 1);
        assert_eq!(get("optimize").self_ns, inner_ns);
        assert_eq!(get("batch").self_ns, outer_ns - inner_ns);
        reset_timeline();
    }

    #[test]
    fn ring_overwrite_repairs_to_balanced_stream() {
        let _g = LOCK.lock().unwrap();
        // Exercise repair directly: a stream whose first Begin was lost.
        let raw = [
            TimelineEvent {
                kind: EventKind::End,
                name: "lost",
                ts_ns: 5,
                system: 0,
                value: 0.0,
            },
            TimelineEvent {
                kind: EventKind::Begin,
                name: "kept",
                ts_ns: 10,
                system: 0,
                value: 0.0,
            },
            TimelineEvent {
                kind: EventKind::Begin,
                name: "open",
                ts_ns: 12,
                system: 0,
                value: 0.0,
            },
        ];
        let mut selves = Vec::new();
        let repaired = repair_thread(&raw, &mut selves);
        assert!(balanced(&repaired), "repair must balance B/E: {repaired:?}");
        assert_eq!(
            repaired.iter().filter(|e| e.kind == EventKind::End).count(),
            2,
            "both open spans get synthetic ends"
        );
        assert!(selves.iter().any(|s| s.name == "kept"));
    }

    #[test]
    fn thread_ring_wraparound_drops_oldest() {
        let _g = LOCK.lock().unwrap();
        let mut ring = ThreadRing {
            tid: 99,
            events: vec![
                TimelineEvent {
                    kind: EventKind::Instant,
                    name: "",
                    ts_ns: 0,
                    system: 0,
                    value: 0.0,
                };
                4
            ]
            .into_boxed_slice(),
            head: 0,
            len: 0,
            dropped: 0,
        };
        for i in 0..7u64 {
            ring.push(TimelineEvent {
                kind: EventKind::Instant,
                name: "tick",
                ts_ns: i,
                system: 0,
                value: i as f64,
            });
        }
        assert_eq!(ring.len, 4);
        assert_eq!(ring.dropped, 3);
        let ordered = ring.ordered();
        assert_eq!(ordered.first().unwrap().ts_ns, 3, "oldest surviving event");
        assert_eq!(ordered.last().unwrap().ts_ns, 6);
    }

    #[test]
    fn system_scope_labels_events_and_restores() {
        let _g = LOCK.lock().unwrap();
        reset_timeline();
        set_timeline_enabled(true);
        let id = intern_system("s0_lr0.01");
        assert_eq!(intern_system("s0_lr0.01"), id, "interning is idempotent");
        {
            let _scope = SystemScope::enter(id);
            instant("labeled", 1.0);
        }
        instant("unlabeled", 2.0);
        set_timeline_enabled(false);
        let json = export_chrome_trace();
        assert!(json.contains("\"system\":\"s0_lr0.01\""));
        assert_eq!(system_label(id).as_deref(), Some("s0_lr0.01"));
        assert_eq!(system_label(0), None);
        reset_timeline();
    }

    #[test]
    fn export_escapes_label_quotes_and_unicode() {
        let _g = LOCK.lock().unwrap();
        reset_timeline();
        set_timeline_enabled(true);
        let id = intern_system("söme \"weird\"\\label");
        {
            let _scope = SystemScope::enter(id);
            instant("marker", 0.5);
        }
        set_timeline_enabled(false);
        let json = export_chrome_trace();
        assert!(json.contains("söme \\\"weird\\\"\\\\label"));
        reset_timeline();
    }
}
