//! # adampack-telemetry
//!
//! The workspace's observability substrate: every crate that wants to say
//! something — a log line, a counter bump, a phase timing, a per-step
//! convergence record — says it through this crate, and applications decide
//! where it goes (console, JSONL file, Prometheus-style snapshot).
//!
//! Dependency-free by design (the build environment has no registry access)
//! and engineered so the packing hot loop keeps its zero-allocation
//! steady state:
//!
//! * [`log`](mod@crate::log) — a leveled logging facade (`error!` → `trace!`)
//!   behind one atomic level check; disabled levels cost a single relaxed
//!   load and never format.
//! * [`metrics`] — a fixed, statically-registered set of monotonic
//!   [`metrics::Counter`]s and fixed-bucket [`metrics::Histogram`]s, and
//!   the one timing primitive: [`span`]`(`[`Phase`]`)` opens a
//!   [`SpanGuard`] that reads the clock at open and at close, always, and
//!   hands the duration back from [`SpanGuard::finish`]. The same two
//!   readings feed the phase's histogram (when metrics are on) and the
//!   timeline (when it records), so a batch's phase breakdown, the
//!   histograms and the timeline never disagree. Recording is a handful
//!   of atomic adds — no locks, no allocation — and the whole registry
//!   renders as a Prometheus text-format snapshot.
//! * [`trace`] — the one per-step record: plain-`Copy`
//!   [`trace::StepRecord`]s pushed into a preallocated [`trace::TraceRing`]
//!   inside the optimizer loop (allocation-free, overwrite-oldest) and
//!   drained between batches into every installed [`trace::TraceSink`]:
//!   the [`trace::JsonlWriter`], an in-memory [`trace::VecSink`], or the
//!   packer's convergence diagnostics.
//! * [`timeline`] — the hierarchical span timeline: the [`span`] guards'
//!   begin/end events and point markers in preallocated per-thread rings
//!   (off by default, one relaxed load when disabled) with thread + system
//!   attribution, exported as Chrome Trace Format JSON with per-phase
//!   self-time.
//! * [`diag`] — per-batch convergence-diagnostics records
//!   ([`diag::DiagRecord`]): loss slope, gradient trend, acceptance rate,
//!   oscillation score and a stall/oscillation classification, with a
//!   string-capable flat-JSON round trip.
//!
//! The counting-allocator test in the workspace suite (`tests/alloc_free.rs`)
//! proves that steady-state optimizer steps still perform zero heap
//! allocations with telemetry enabled at the default level, and the
//! `bench_telemetry` binary in `crates/bench` measures the step-time
//! overhead (budget: < 2 % with passive telemetry).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod diag;
pub mod log;
pub mod metrics;
pub mod timeline;
pub mod trace;

pub use crate::diag::{Convergence, DiagMode, DiagParseError, DiagRecord};
pub use crate::log::{enabled, log_event, max_level, set_max_level, set_sink, Level, LogSink};
pub use crate::metrics::{
    is_enabled, prometheus_snapshot, reset_all, set_enabled, span, Counter, Histogram, Phase,
    SpanGuard, SystemCounters,
};
pub use crate::timeline::SystemScope;
pub use crate::trace::{JsonlWriter, StepRecord, TraceParseError, TraceRing, TraceSink, VecSink};
