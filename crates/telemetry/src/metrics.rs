//! Counters, fixed-bucket histograms and phase-span timers.
//!
//! The metric set is **static and closed**: every counter and histogram the
//! workspace records is declared here, so registration needs no locks or
//! allocation and the full registry can be rendered as a Prometheus
//! text-format snapshot at any time. Recording is a relaxed atomic add;
//! with telemetry disabled ([`set_enabled`]`(false)`) a span costs one
//! atomic load and skips the clock entirely.
//!
//! All durations are recorded in nanoseconds (`Instant`-based, monotonic).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Master switch for metric recording (spans, counters, histograms).
/// Defaults to **on** — the recording path is the one the < 2 % overhead
/// budget and the allocation-free proof apply to.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables all metric recording.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when metric recording is active.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotonic counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Declares a counter (only this module declares them).
    pub const fn new(name: &'static str, help: &'static str) -> Counter {
        Counter {
            name,
            help,
            value: AtomicU64::new(0),
        }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if is_enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Metric name (Prometheus style, `adampack_*`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A settable measurement with a monotonic peak (high-water mark).
///
/// Unlike [`Counter`], `set` overwrites; the peak is maintained with a
/// `fetch_max` so concurrent setters can never lose a high-water mark.
/// Used for resident-memory style readings (the tiled engine's hot-set
/// bytes), where the current value and the peak are both interesting.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    /// Declares a gauge (only this module declares them).
    pub const fn new(name: &'static str, help: &'static str) -> Gauge {
        Gauge {
            name,
            help,
            value: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Overwrites the current value and folds it into the peak.
    #[inline]
    pub fn set(&self, v: u64) {
        if is_enabled() {
            self.value.store(v, Ordering::Relaxed);
            self.peak.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest value ever set (since the last reset).
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Metric name (Prometheus style, `adampack_*`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
        self.peak.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Bucket upper bounds shared by all duration histograms, in nanoseconds:
/// quarter-decade steps from 250 ns to 4 s, plus a +Inf overflow bucket.
pub const DURATION_BOUNDS_NS: [u64; 13] = [
    250,
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_000_000,
    4_000_000,
    16_000_000,
    64_000_000,
    256_000_000,
    1_000_000_000,
    4_000_000_000,
];

const N_BUCKETS: usize = DURATION_BOUNDS_NS.len() + 1;

/// A fixed-bucket histogram over nanosecond durations.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    help: &'static str,
    /// Non-cumulative per-bucket counts; the last bucket is +Inf overflow.
    buckets: [AtomicU64; N_BUCKETS],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Declares a histogram over [`DURATION_BOUNDS_NS`].
    pub const fn new(name: &'static str, help: &'static str) -> Histogram {
        // Repeated const item: the standard trick for `[AtomicU64; N]` init.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            help,
            buckets: [ZERO; N_BUCKETS],
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation (nanoseconds).
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if !is_enabled() {
            return;
        }
        let idx = DURATION_BOUNDS_NS
            .iter()
            .position(|&b| ns <= b)
            .unwrap_or(N_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_ns() as f64 / n as f64
        }
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum_ns.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// The static registry
// ---------------------------------------------------------------------------

/// Optimizer steps taken (all batches).
pub static STEPS_TOTAL: Counter = Counter::new(
    "adampack_optimizer_steps_total",
    "Optimizer steps taken across all batches",
);
/// Objective evaluations (value or value+gradient).
pub static EVALS_TOTAL: Counter = Counter::new(
    "adampack_objective_evals_total",
    "Objective evaluations served by the workspace",
);
/// Batches attempted.
pub static BATCHES_TOTAL: Counter =
    Counter::new("adampack_batches_total", "Batches attempted (all outcomes)");
/// Batches accepted.
pub static BATCHES_ACCEPTED_TOTAL: Counter = Counter::new(
    "adampack_batches_accepted_total",
    "Batches that passed the overlap-acceptance test",
);
/// Particles packed (accepted into the bed).
pub static PARTICLES_PACKED_TOTAL: Counter = Counter::new(
    "adampack_particles_packed_total",
    "Particles accepted into the packing",
);
/// Verlet candidate-list (re)builds.
pub static VERLET_REBUILDS_TOTAL: Counter = Counter::new(
    "adampack_verlet_rebuilds_total",
    "Verlet candidate-list rebuilds",
);
/// Learning-rate reductions by plateau schedulers.
pub static LR_REDUCTIONS_TOTAL: Counter = Counter::new(
    "adampack_lr_reductions_total",
    "Learning-rate reductions performed by ReduceLROnPlateau",
);
/// DEM integration steps.
pub static DEM_STEPS_TOTAL: Counter =
    Counter::new("adampack_dem_steps_total", "DEM velocity-Verlet steps");
/// Convergence-trace records emitted to a sink.
pub static TRACE_RECORDS_TOTAL: Counter = Counter::new(
    "adampack_trace_records_total",
    "Convergence-trace step records delivered to sinks",
);
/// Trace records lost to ring-buffer overwrite.
pub static TRACE_RECORDS_DROPPED_TOTAL: Counter = Counter::new(
    "adampack_trace_records_dropped_total",
    "Convergence-trace records overwritten before being drained",
);
/// Divergence-sentinel rollback recoveries.
pub static SENTINEL_RECOVERIES_TOTAL: Counter = Counter::new(
    "adampack_sentinel_recoveries_total",
    "Divergence-sentinel rollbacks to the last good snapshot",
);
/// Checkpoints written successfully.
pub static CHECKPOINT_WRITES_TOTAL: Counter = Counter::new(
    "adampack_checkpoint_writes_total",
    "Run-state checkpoints persisted successfully",
);
/// Checkpoint write attempts that failed.
pub static CHECKPOINT_FAILURES_TOTAL: Counter = Counter::new(
    "adampack_checkpoint_failures_total",
    "Run-state checkpoint writes that failed (run continues)",
);
/// Job submissions accepted by the packing server.
pub static SERVER_JOBS_SUBMITTED_TOTAL: Counter = Counter::new(
    "adampack_server_jobs_submitted_total",
    "Job submissions accepted by the packing server",
);
/// Submissions answered from the on-disk artifact cache.
pub static SERVER_CACHE_HITS_TOTAL: Counter = Counter::new(
    "adampack_server_cache_hits_total",
    "Submissions answered directly from the content-addressed artifact cache",
);
/// Submissions that had to schedule a fresh packing run.
pub static SERVER_CACHE_MISSES_TOTAL: Counter = Counter::new(
    "adampack_server_cache_misses_total",
    "Submissions that scheduled a fresh packing run",
);
/// Submissions coalesced onto an already queued/running job.
pub static SERVER_JOBS_COALESCED_TOTAL: Counter = Counter::new(
    "adampack_server_jobs_coalesced_total",
    "Duplicate submissions coalesced onto an in-flight job",
);
/// Jobs preempted at a batch boundary by the fair-share scheduler.
pub static SERVER_PREEMPTIONS_TOTAL: Counter = Counter::new(
    "adampack_server_preemptions_total",
    "Jobs preempted at a batch boundary by the fair-share scheduler",
);
/// Jobs completed and persisted to the artifact cache.
pub static SERVER_JOBS_COMPLETED_TOTAL: Counter = Counter::new(
    "adampack_server_jobs_completed_total",
    "Jobs completed and persisted to the artifact cache",
);
/// Jobs that failed with a packing/config error.
pub static SERVER_JOBS_FAILED_TOTAL: Counter = Counter::new(
    "adampack_server_jobs_failed_total",
    "Jobs that ended in a packing error",
);
/// Jobs cancelled by the client.
pub static SERVER_JOBS_CANCELLED_TOTAL: Counter = Counter::new(
    "adampack_server_jobs_cancelled_total",
    "Jobs cancelled before completion",
);
/// Jobs whose state was restored from an on-disk checkpoint.
pub static SERVER_JOBS_RESUMED_TOTAL: Counter = Counter::new(
    "adampack_server_jobs_resumed_total",
    "Jobs resumed from a persisted checkpoint (crash recovery)",
);
/// Jobs that hit their wall-clock deadline or step ceiling.
pub static SERVER_JOBS_EXPIRED_TOTAL: Counter = Counter::new(
    "adampack_server_jobs_expired_total",
    "Jobs ended at a budget boundary (deadline or step ceiling), checkpoint kept",
);
/// Submissions rejected outright as oversized (413).
pub static SERVER_REJECTED_OVERSIZE_TOTAL: Counter = Counter::new(
    "adampack_server_rejected_oversize_total",
    "Submissions rejected because their predicted peak memory exceeds the budget",
);
/// Submissions shed under load (429).
pub static SERVER_SHED_TOTAL: Counter = Counter::new(
    "adampack_server_shed_total",
    "Submissions shed with 429 because queues or the memory budget were saturated",
);
/// Cache files evicted to stay under the disk cap.
pub static SERVER_CACHE_EVICTIONS_TOTAL: Counter = Counter::new(
    "adampack_server_cache_evictions_total",
    "Artifact/checkpoint files evicted from the bounded disk store",
);
/// Disk-full episodes the worker degraded through instead of crashing.
pub static SERVER_DISK_FULL_TOTAL: Counter = Counter::new(
    "adampack_server_disk_full_total",
    "Disk-full (ENOSPC) write failures degraded to load shedding",
);

/// Batch spawn time (initial-position generation).
pub static PHASE_SPAWN: Histogram = Histogram::new(
    "adampack_phase_spawn_nanoseconds",
    "Per-batch initial-position generation time",
);
/// Fused objective value+gradient evaluation time.
pub static PHASE_GRADIENT: Histogram = Histogram::new(
    "adampack_phase_gradient_nanoseconds",
    "Per-step fused objective value+gradient time",
);
/// Optimizer parameter-update time (scheduler + Adam step).
pub static PHASE_OPTIMIZER: Histogram = Histogram::new(
    "adampack_phase_optimizer_nanoseconds",
    "Per-step scheduler + optimizer update time",
);
/// Verlet candidate-list rebuild time.
pub static PHASE_VERLET_REBUILD: Histogram = Histogram::new(
    "adampack_phase_verlet_rebuild_nanoseconds",
    "Verlet candidate-list rebuild time",
);
/// Batch acceptance-test time.
pub static PHASE_ACCEPTANCE: Histogram = Histogram::new(
    "adampack_phase_acceptance_nanoseconds",
    "Per-batch overlap-acceptance test time",
);
/// DEM step time.
pub static PHASE_DEM_STEP: Histogram = Histogram::new(
    "adampack_phase_dem_step_nanoseconds",
    "DEM velocity-Verlet step time",
);
/// CSR cell-grid (re)binning time.
pub static PHASE_GRID_BUILD: Histogram = Histogram::new(
    "adampack_phase_grid_build_nanoseconds",
    "CSR cell-grid counting-sort rebin time",
);
/// Scalar-kernel fused objective evaluation time.
pub static PHASE_KERNEL_SCALAR: Histogram = Histogram::new(
    "adampack_phase_kernel_scalar_nanoseconds",
    "Scalar-kernel fused objective evaluation time",
);
/// SIMD-kernel fused objective evaluation time.
pub static PHASE_KERNEL_SIMD: Histogram = Histogram::new(
    "adampack_phase_kernel_simd_nanoseconds",
    "SIMD-kernel fused objective evaluation time",
);

/// Resident bytes of the packing loop's hot set (bed grid + workspace
/// buffers). In a tiled run this tracks the active surface, not total N;
/// the peak is the number the scale benchmark and QualityReport surface.
pub static HOT_SET_BYTES: Gauge = Gauge::new(
    "adampack_hot_set_bytes",
    "Resident bytes of the neighbor structures and workspace (hot set)",
);

/// Bytes currently resident in the server's bounded disk store
/// (artifact cache + checkpoint rotations under the cap).
pub static SERVER_CACHE_BYTES: Gauge = Gauge::new(
    "adampack_server_cache_bytes",
    "Bytes resident in the server's size-capped artifact/checkpoint store",
);

static GAUGES: [&Gauge; 2] = [&HOT_SET_BYTES, &SERVER_CACHE_BYTES];

static COUNTERS: [&Counter; 27] = [
    &STEPS_TOTAL,
    &EVALS_TOTAL,
    &BATCHES_TOTAL,
    &BATCHES_ACCEPTED_TOTAL,
    &PARTICLES_PACKED_TOTAL,
    &VERLET_REBUILDS_TOTAL,
    &LR_REDUCTIONS_TOTAL,
    &DEM_STEPS_TOTAL,
    &TRACE_RECORDS_TOTAL,
    &TRACE_RECORDS_DROPPED_TOTAL,
    &SENTINEL_RECOVERIES_TOTAL,
    &CHECKPOINT_WRITES_TOTAL,
    &CHECKPOINT_FAILURES_TOTAL,
    &SERVER_JOBS_SUBMITTED_TOTAL,
    &SERVER_CACHE_HITS_TOTAL,
    &SERVER_CACHE_MISSES_TOTAL,
    &SERVER_JOBS_COALESCED_TOTAL,
    &SERVER_PREEMPTIONS_TOTAL,
    &SERVER_JOBS_COMPLETED_TOTAL,
    &SERVER_JOBS_FAILED_TOTAL,
    &SERVER_JOBS_CANCELLED_TOTAL,
    &SERVER_JOBS_RESUMED_TOTAL,
    &SERVER_JOBS_EXPIRED_TOTAL,
    &SERVER_REJECTED_OVERSIZE_TOTAL,
    &SERVER_SHED_TOTAL,
    &SERVER_CACHE_EVICTIONS_TOTAL,
    &SERVER_DISK_FULL_TOTAL,
];

static HISTOGRAMS: [&Histogram; 9] = [
    &PHASE_SPAWN,
    &PHASE_GRADIENT,
    &PHASE_OPTIMIZER,
    &PHASE_VERLET_REBUILD,
    &PHASE_ACCEPTANCE,
    &PHASE_DEM_STEP,
    &PHASE_GRID_BUILD,
    &PHASE_KERNEL_SCALAR,
    &PHASE_KERNEL_SIMD,
];

/// A packing-loop phase with a dedicated duration histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Initial-position generation for a batch.
    Spawn,
    /// Fused objective value+gradient evaluation.
    Gradient,
    /// Scheduler + optimizer parameter update.
    OptimizerStep,
    /// Verlet candidate-list rebuild.
    VerletRebuild,
    /// Batch overlap-acceptance test.
    Acceptance,
    /// DEM velocity-Verlet step.
    DemStep,
    /// CSR cell-grid counting-sort rebin.
    GridBuild,
    /// Fused objective evaluation through the scalar oracle kernel.
    KernelScalar,
    /// Fused objective evaluation through the vectorized kernel.
    KernelSimd,
}

impl Phase {
    /// The histogram backing this phase.
    pub fn histogram(self) -> &'static Histogram {
        match self {
            Phase::Spawn => &PHASE_SPAWN,
            Phase::Gradient => &PHASE_GRADIENT,
            Phase::OptimizerStep => &PHASE_OPTIMIZER,
            Phase::VerletRebuild => &PHASE_VERLET_REBUILD,
            Phase::Acceptance => &PHASE_ACCEPTANCE,
            Phase::DemStep => &PHASE_DEM_STEP,
            Phase::GridBuild => &PHASE_GRID_BUILD,
            Phase::KernelScalar => &PHASE_KERNEL_SCALAR,
            Phase::KernelSimd => &PHASE_KERNEL_SIMD,
        }
    }

    /// Short name, used as the timeline span label.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Spawn => "spawn",
            Phase::Gradient => "gradient",
            Phase::OptimizerStep => "optimizer",
            Phase::VerletRebuild => "verlet_rebuild",
            Phase::Acceptance => "acceptance",
            Phase::DemStep => "dem_step",
            Phase::GridBuild => "grid_build",
            Phase::KernelScalar => "kernel_scalar",
            Phase::KernelSimd => "kernel_simd",
        }
    }
}

/// Times a phase from creation to drop, recording into its histogram.
/// With telemetry disabled the guard is inert (no clock read). When the
/// timeline ([`crate::timeline`]) is recording, the guard also emits a
/// begin/end event pair, so every instrumented phase shows up in the
/// Chrome-trace export for free; with the timeline off that hook costs one
/// relaxed atomic load.
#[must_use = "the span measures until the guard is dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    phase: Phase,
    start: Option<Instant>,
    timeline: bool,
}

impl SpanGuard {
    /// Elapsed time so far, nanoseconds (0 when disabled).
    pub fn elapsed_ns(&self) -> u64 {
        self.start.map_or(0, |s| s.elapsed().as_nanos() as u64)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.timeline {
            crate::timeline::end(self.phase.name());
        }
        if let Some(start) = self.start {
            self.phase
                .histogram()
                .record_ns(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Opens a phase span; record by dropping the guard.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    let timeline = crate::timeline::timeline_enabled();
    if timeline {
        crate::timeline::begin(phase.name());
    }
    SpanGuard {
        phase,
        start: if is_enabled() {
            Some(Instant::now())
        } else {
            None
        },
        timeline,
    }
}

// ---------------------------------------------------------------------------
// Per-system labeled metrics
// ---------------------------------------------------------------------------

/// One system's counter values in a batched sweep. The batched engine
/// computes these from each system's own run progress (never by slicing
/// the global counters) and publishes them wholesale after every pass, so
/// systems cannot leak into each other's series by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystemCounters {
    /// Optimizer steps this system took.
    pub steps: u64,
    /// Batches this system attempted.
    pub batches: u64,
    /// Batches this system accepted.
    pub batches_accepted: u64,
    /// Particles this system packed.
    pub particles_packed: u64,
    /// Sentinel rollbacks this system performed.
    pub recoveries: u64,
    /// Cumulative spawn-phase time, nanoseconds.
    pub spawn_ns: u64,
    /// Cumulative gradient-phase time, nanoseconds.
    pub gradient_ns: u64,
    /// Cumulative optimizer-phase time, nanoseconds.
    pub optimizer_ns: u64,
    /// Cumulative acceptance-phase time, nanoseconds.
    pub acceptance_ns: u64,
}

/// `label → counters`, insertion-ordered. Updated off the hot path (once
/// per engine pass), so a mutex is fine.
static SYSTEM_REGISTRY: Mutex<Vec<(String, SystemCounters)>> = Mutex::new(Vec::new());

/// Publishes (upserts) one system's counters under its label.
pub fn record_system(label: &str, counters: SystemCounters) {
    let mut reg = SYSTEM_REGISTRY.lock().unwrap();
    match reg.iter_mut().find(|(l, _)| l == label) {
        Some((_, c)) => *c = counters,
        None => reg.push((label.to_string(), counters)),
    }
}

/// The last-published counters for a label, if any.
pub fn system_counters(label: &str) -> Option<SystemCounters> {
    SYSTEM_REGISTRY
        .lock()
        .unwrap()
        .iter()
        .find(|(l, _)| l == label)
        .map(|(_, c)| *c)
}

/// Removes every per-system series (tests, and run setup).
pub fn clear_system_metrics() {
    SYSTEM_REGISTRY.lock().unwrap().clear();
}

/// Escapes a Prometheus label value (`\`, `"` and newline).
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders every metric in the Prometheus text exposition format
/// (counters as `counter`, histograms with cumulative `_bucket{le=…}`,
/// `_sum` and `_count` series, per-system series with a `system` label).
pub fn prometheus_snapshot() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for c in COUNTERS {
        writeln!(out, "# HELP {} {}", c.name, c.help).unwrap();
        writeln!(out, "# TYPE {} counter", c.name).unwrap();
        writeln!(out, "{} {}", c.name, c.get()).unwrap();
    }
    for g in GAUGES {
        writeln!(out, "# HELP {} {}", g.name, g.help).unwrap();
        writeln!(out, "# TYPE {} gauge", g.name).unwrap();
        writeln!(out, "{} {}", g.name, g.get()).unwrap();
        writeln!(out, "{}_peak {}", g.name, g.peak()).unwrap();
    }
    for h in HISTOGRAMS {
        writeln!(out, "# HELP {} {}", h.name, h.help).unwrap();
        writeln!(out, "# TYPE {} histogram", h.name).unwrap();
        let mut cumulative = 0u64;
        for (i, bound) in DURATION_BOUNDS_NS.iter().enumerate() {
            cumulative += h.buckets[i].load(Ordering::Relaxed);
            writeln!(out, "{}_bucket{{le=\"{bound}\"}} {cumulative}", h.name).unwrap();
        }
        cumulative += h.buckets[N_BUCKETS - 1].load(Ordering::Relaxed);
        writeln!(out, "{}_bucket{{le=\"+Inf\"}} {cumulative}", h.name).unwrap();
        writeln!(out, "{}_sum {}", h.name, h.sum_ns()).unwrap();
        writeln!(out, "{}_count {}", h.name, h.count()).unwrap();
    }
    let systems = SYSTEM_REGISTRY.lock().unwrap();
    if !systems.is_empty() {
        type SystemFamily = (&'static str, &'static str, fn(&SystemCounters) -> u64);
        let families: [SystemFamily; 5] = [
            (
                "adampack_system_steps_total",
                "Optimizer steps per system",
                |c| c.steps,
            ),
            (
                "adampack_system_batches_total",
                "Batches attempted per system",
                |c| c.batches,
            ),
            (
                "adampack_system_batches_accepted_total",
                "Batches accepted per system",
                |c| c.batches_accepted,
            ),
            (
                "adampack_system_particles_packed_total",
                "Particles packed per system",
                |c| c.particles_packed,
            ),
            (
                "adampack_system_recoveries_total",
                "Sentinel rollbacks per system",
                |c| c.recoveries,
            ),
        ];
        for (name, help, get) in families {
            writeln!(out, "# HELP {name} {help}").unwrap();
            writeln!(out, "# TYPE {name} counter").unwrap();
            for (label, c) in systems.iter() {
                writeln!(
                    out,
                    "{name}{{system=\"{}\"}} {}",
                    escape_label(label),
                    get(c)
                )
                .unwrap();
            }
        }
        let name = "adampack_system_phase_nanoseconds_total";
        writeln!(out, "# HELP {name} Cumulative phase time per system").unwrap();
        writeln!(out, "# TYPE {name} counter").unwrap();
        for (label, c) in systems.iter() {
            for (phase, ns) in [
                ("spawn", c.spawn_ns),
                ("gradient", c.gradient_ns),
                ("optimizer", c.optimizer_ns),
                ("acceptance", c.acceptance_ns),
            ] {
                writeln!(
                    out,
                    "{name}{{system=\"{}\",phase=\"{phase}\"}} {ns}",
                    escape_label(label)
                )
                .unwrap();
            }
        }
    }
    out
}

/// Resets every counter and histogram to zero (tests and benches).
pub fn reset_all() {
    for c in COUNTERS {
        c.reset();
    }
    for g in GAUGES {
        g.reset();
    }
    for h in HISTOGRAMS {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is global; tests touching it run under one lock so the
    // whole module stays order-independent.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn counters_accumulate_and_reset() {
        let _g = LOCK.lock().unwrap();
        reset_all();
        set_enabled(true);
        STEPS_TOTAL.inc();
        STEPS_TOTAL.add(4);
        assert_eq!(STEPS_TOTAL.get(), 5);
        set_enabled(false);
        STEPS_TOTAL.inc();
        assert_eq!(STEPS_TOTAL.get(), 5, "disabled counter must not move");
        set_enabled(true);
        reset_all();
        assert_eq!(STEPS_TOTAL.get(), 0);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let _g = LOCK.lock().unwrap();
        reset_all();
        set_enabled(true);
        PHASE_GRADIENT.record_ns(100); // le=250
        PHASE_GRADIENT.record_ns(250); // le=250 (inclusive bound)
        PHASE_GRADIENT.record_ns(500_000); // le=1e6
        PHASE_GRADIENT.record_ns(10_000_000_000); // overflow bucket
        assert_eq!(PHASE_GRADIENT.count(), 4);
        assert_eq!(
            PHASE_GRADIENT.sum_ns(),
            100 + 250 + 500_000 + 10_000_000_000
        );
        assert!(PHASE_GRADIENT.mean_ns() > 0.0);
        let snap = prometheus_snapshot();
        assert!(snap.contains("adampack_phase_gradient_nanoseconds_bucket{le=\"250\"} 2"));
        assert!(snap.contains("adampack_phase_gradient_nanoseconds_bucket{le=\"+Inf\"} 4"));
        assert!(snap.contains("adampack_phase_gradient_nanoseconds_count 4"));
        reset_all();
    }

    #[test]
    fn gauge_tracks_value_and_peak() {
        let _g = LOCK.lock().unwrap();
        reset_all();
        set_enabled(true);
        HOT_SET_BYTES.set(1_000);
        HOT_SET_BYTES.set(5_000);
        HOT_SET_BYTES.set(2_000);
        assert_eq!(HOT_SET_BYTES.get(), 2_000, "set overwrites");
        assert_eq!(HOT_SET_BYTES.peak(), 5_000, "peak is a high-water mark");
        let snap = prometheus_snapshot();
        assert!(snap.contains("# TYPE adampack_hot_set_bytes gauge"));
        assert!(snap.contains("adampack_hot_set_bytes 2000"));
        assert!(snap.contains("adampack_hot_set_bytes_peak 5000"));
        set_enabled(false);
        HOT_SET_BYTES.set(9_000);
        assert_eq!(HOT_SET_BYTES.peak(), 5_000, "disabled gauge must not move");
        set_enabled(true);
        reset_all();
        assert_eq!(HOT_SET_BYTES.peak(), 0);
    }

    #[test]
    fn spans_record_into_their_phase() {
        let _g = LOCK.lock().unwrap();
        reset_all();
        set_enabled(true);
        {
            let guard = span(Phase::Spawn);
            std::hint::black_box(());
            assert!(guard.elapsed_ns() < 1_000_000_000);
        }
        assert_eq!(PHASE_SPAWN.count(), 1);

        set_enabled(false);
        {
            let _guard = span(Phase::Spawn);
        }
        assert_eq!(PHASE_SPAWN.count(), 1, "disabled span must not record");
        set_enabled(true);
        reset_all();
    }

    #[test]
    fn labeled_system_series_render_and_isolate() {
        let _g = LOCK.lock().unwrap();
        clear_system_metrics();
        record_system(
            "s0_lr0.01",
            SystemCounters {
                steps: 100,
                batches: 4,
                batches_accepted: 3,
                particles_packed: 75,
                recoveries: 1,
                gradient_ns: 1_000,
                ..Default::default()
            },
        );
        record_system(
            "s1_lr0.10",
            SystemCounters {
                steps: 7,
                ..Default::default()
            },
        );
        // Upsert: republishing replaces, never accumulates across systems.
        record_system(
            "s1_lr0.10",
            SystemCounters {
                steps: 9,
                ..Default::default()
            },
        );
        let snap = prometheus_snapshot();
        assert!(snap.contains("adampack_system_steps_total{system=\"s0_lr0.01\"} 100"));
        assert!(snap.contains("adampack_system_steps_total{system=\"s1_lr0.10\"} 9"));
        assert!(snap.contains(
            "adampack_system_phase_nanoseconds_total{system=\"s0_lr0.01\",phase=\"gradient\"} 1000"
        ));
        assert_eq!(system_counters("s0_lr0.01").unwrap().steps, 100);
        assert_eq!(system_counters("s1_lr0.10").unwrap().steps, 9);
        clear_system_metrics();
        assert!(!prometheus_snapshot().contains("adampack_system_steps_total"));
    }

    #[test]
    fn label_values_are_escaped() {
        let _g = LOCK.lock().unwrap();
        clear_system_metrics();
        record_system(
            "q\"uo\\te\nß",
            SystemCounters {
                steps: 1,
                ..Default::default()
            },
        );
        let snap = prometheus_snapshot();
        assert!(snap.contains("{system=\"q\\\"uo\\\\te\\nß\"} 1"));
        clear_system_metrics();
    }

    #[test]
    fn snapshot_lists_every_metric_with_headers() {
        let _g = LOCK.lock().unwrap();
        let snap = prometheus_snapshot();
        for c in COUNTERS {
            assert!(snap.contains(&format!("# TYPE {} counter", c.name())));
        }
        for h in HISTOGRAMS {
            assert!(snap.contains(&format!("# TYPE {} histogram", h.name())));
        }
    }
}
