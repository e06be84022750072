//! The collective-arrangement packer (paper Algorithm 1).
//!
//! Outer loop: batches (layers) of particles are generated above the current
//! bed and optimized while everything already packed stays fixed. A batch
//! whose optimized state still has excessive overlap (with other spheres or
//! with the container boundary) is rejected and retried at half size; the
//! packing stops when the batch size reaches zero (container full) or the
//! target count is met.
//!
//! Inner loop: Adam/AMSGrad steps on the objective until `patience` steps
//! pass without improvement or `max_steps` is reached, with the learning
//! rate driven by the configured policy (plateau scheduling by default).

use std::time::{Duration, Instant};

use adampack_geometry::Vec3;
use adampack_opt::{LrScheduler, Optimizer, OptimizerState, SchedulerState};
use adampack_telemetry::metrics::{
    BATCHES_ACCEPTED_TOTAL, BATCHES_TOTAL, CHECKPOINT_FAILURES_TOTAL, CHECKPOINT_WRITES_TOTAL,
    HOT_SET_BYTES, PARTICLES_PACKED_TOTAL, SENTINEL_RECOVERIES_TOTAL, STEPS_TOTAL,
};
use adampack_telemetry::{span, DiagRecord, Phase, StepRecord, TraceRing, TraceSink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::par;

use crate::checkpoint::{self, CheckpointError, RunState};
use crate::container::Container;
use crate::diagnostics::{DiagEngine, DiagMode};
use crate::metrics::{boundary_stats, contact_stats_vs_fixed};
use crate::neighbor::{tile_horizon, CsrGrid, FixedBed, Workspace};
use crate::objective::Objective;
use crate::params::{LrPolicy, NeighborParams, PackingParams};
use crate::particle::Particle;
use crate::psd::Psd;
use crate::PACKING_REVISION;

/// Fixed block size for the tracer's parallel reductions. The partial
/// layout depends only on the input length — never the pool width — so the
/// reduced values are bitwise identical for any thread count.
const REDUCE_BLOCK: usize = 1024;

/// Wall-clock time spent in each phase of one attempted batch, read from
/// the phases' span guards ([`adampack_telemetry::span`]): the same clock
/// readings the `PHASE_*` histograms and the timeline receive, taken
/// whether or not metrics are enabled.
///
/// `spawn`, `optimize` and `acceptance` partition the batch duration;
/// `gradient` and `optimizer` further break `optimize` down.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BatchPhaseBreakdown {
    /// Initial-position generation.
    pub spawn: Duration,
    /// The whole inner optimization loop.
    pub optimize: Duration,
    /// Fused objective value+gradient evaluations (inside `optimize`).
    pub gradient: Duration,
    /// Scheduler + optimizer parameter updates (inside `optimize`).
    pub optimizer: Duration,
    /// The overlap-acceptance test.
    pub acceptance: Duration,
}

/// Statistics for one attempted batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// Sequential batch index (accepted and rejected batches both count).
    pub index: usize,
    /// Number of particles attempted in this batch.
    pub requested: usize,
    /// Whether the batch passed the overlap-acceptance test.
    pub accepted: bool,
    /// Optimizer steps taken.
    pub steps: usize,
    /// Best objective value reached.
    pub best_fitness: f64,
    /// Mean contact overlap relative to radius after optimization.
    pub mean_overlap_ratio: f64,
    /// Mean positive boundary excess relative to radius.
    pub mean_boundary_ratio: f64,
    /// Wall-clock time spent on this batch: the sum of its spawn, optimize
    /// and acceptance spans.
    pub duration: Duration,
    /// Verlet candidate-list rebuilds served to this batch.
    pub verlet_rebuilds: usize,
    /// Per-phase wall-clock breakdown.
    pub phase: BatchPhaseBreakdown,
}

/// Result of a batch optimization run.
#[derive(Debug, Clone)]
pub struct BatchOptimization {
    /// The best coordinates found (flat `[x, y, z, …]` buffer).
    pub coords: Vec<f64>,
    /// Best objective value.
    pub best_fitness: f64,
    /// Steps actually taken.
    pub steps: usize,
    /// Verlet candidate-list rebuilds during this optimization.
    pub verlet_rebuilds: usize,
}

/// The outcome of a full packing run.
#[derive(Debug, Clone)]
pub struct PackResult {
    /// All packed particles, tagged with their batch index.
    pub particles: Vec<Particle>,
    /// Per-batch statistics (accepted and rejected).
    pub batches: Vec<BatchStats>,
    /// The container packed into.
    pub container: Container,
    /// Total wall-clock time.
    pub duration: Duration,
    /// The requested particle count (`nb_max`).
    pub target: usize,
    /// Divergence-sentinel recoveries (rollbacks to a good snapshot) the
    /// run needed. Zero for a healthy run.
    pub recoveries: u64,
}

impl PackResult {
    /// Particles as `(center, radius)` pairs for metrics/density helpers.
    pub fn spheres(&self) -> Vec<(Vec3, f64)> {
        self.particles.iter().map(Particle::sphere).collect()
    }

    /// True when the requested count was fully packed.
    pub fn reached_target(&self) -> bool {
        self.particles.len() >= self.target
    }

    /// One-paragraph human-readable summary of the run.
    pub fn summary(&self) -> String {
        let accepted = self.batches.iter().filter(|b| b.accepted).count();
        format!(
            "packed {}/{} particles in {:.2?} ({} batches, {} accepted, {} rejected)",
            self.particles.len(),
            self.target,
            self.duration,
            self.batches.len(),
            accepted,
            self.batches.len() - accepted,
        )
    }
}

/// Why a fallible packing run stopped early.
#[derive(Debug, Clone, PartialEq)]
pub enum PackError {
    /// The divergence sentinel exhausted its per-batch recovery budget:
    /// the objective kept producing non-finite values or exploding steps
    /// even after repeated rollbacks and learning-rate cuts.
    Diverged {
        /// Batch that could not be stabilized.
        batch: usize,
        /// Step at which the final divergence was detected.
        step: usize,
        /// Rollbacks spent on this batch before giving up.
        recoveries: usize,
    },
    /// A resume was attempted from an unusable checkpoint.
    Resume(CheckpointError),
    /// A tiled run's retirement guard tripped: a neighbor query reached
    /// below the gravity-axis horizon, so retired spheres could have been
    /// observed and the bitwise-parity contract with the untiled run can
    /// no longer be certified.
    HorizonBreach {
        /// Batch whose queries reached below the horizon.
        batch: usize,
        /// Number of sub-horizon queries observed in that batch.
        misses: u64,
    },
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::Diverged {
                batch,
                step,
                recoveries,
            } => write!(
                f,
                "optimization diverged in batch {batch} at step {step} \
                 after {recoveries} sentinel recoveries"
            ),
            PackError::Resume(e) => write!(f, "cannot resume: {e}"),
            PackError::HorizonBreach { batch, misses } => write!(
                f,
                "tiled retirement horizon breached in batch {batch} \
                 ({misses} sub-horizon queries); rerun with fewer tiles \
                 (`tiles` keeps one full slab of settled spheres resident)"
            ),
        }
    }
}

impl std::error::Error for PackError {}

impl From<CheckpointError> for PackError {
    fn from(e: CheckpointError) -> PackError {
        PackError::Resume(e)
    }
}

/// Destination for encoded checkpoints: a plain run's single-run stream or
/// a sweep's batched stream. Implementations persist the bytes
/// (atomically — see `adampack_io`); a returned `Err` is counted and logged
/// but does **not** abort the run.
pub trait CheckpointSink: Send {
    /// Persists one encoded checkpoint.
    fn save(&mut self, bytes: &[u8]) -> Result<(), String>;
}

/// The one checkpoint due rule, shared by plain runs and sweeps: save at
/// the first boundary after `every_steps` optimizer steps (summed over a
/// sweep's systems) since the last successful save, never after the run's
/// final boundary, and retry a failed save at the next boundary.
///
/// Every checkpoint is a boundary capture
/// ([`CollectivePacker::capture_state`]), a pure read of a state that
/// resumes bitwise — so the cadence is a durability setting only and never
/// changes the packing.
pub struct CheckpointCadence {
    sink: Box<dyn CheckpointSink>,
    every_steps: usize,
    /// The run's step count at the last successful save. `None` until the
    /// cadence first sees a run, which anchors it at that run's count (0
    /// when fresh, the restored count when resumed).
    last_saved: Option<u64>,
}

impl CheckpointCadence {
    /// A cadence saving to `sink` every `every_steps` optimizer steps (0:
    /// only explicit [`CheckpointCadence::save`] calls write).
    pub(crate) fn new(sink: Box<dyn CheckpointSink>, every_steps: usize) -> CheckpointCadence {
        CheckpointCadence {
            sink,
            every_steps,
            last_saved: None,
        }
    }

    /// Counts from `steps` unless the cadence already saw this run.
    pub(crate) fn anchor(&mut self, steps: u64) {
        self.last_saved.get_or_insert(steps);
    }

    /// Whether a boundary at which the run has taken `steps` steps saves.
    pub(crate) fn due(&self, steps: u64, finished: bool) -> bool {
        !finished
            && self.every_steps > 0
            && steps - self.last_saved.unwrap_or(0) >= self.every_steps as u64
    }

    /// Saves `bytes`, captured after `steps` steps, whatever the cadence. A
    /// failure is counted and logged, never fatal, and leaves the cadence
    /// due so the next boundary retries. Returns whether the save succeeded.
    pub(crate) fn save(&mut self, bytes: &[u8], steps: u64) -> bool {
        match self.sink.save(bytes) {
            Ok(()) => {
                CHECKPOINT_WRITES_TOTAL.inc();
                self.last_saved = Some(steps);
                true
            }
            Err(e) => {
                CHECKPOINT_FAILURES_TOTAL.inc();
                adampack_telemetry::warn!("checkpoint write failed (run continues): {e}");
                false
            }
        }
    }
}

/// The divergence sentinel's last known-good optimizer-loop state. All
/// buffers are reused across snapshots (copy, not reallocate).
struct GoodSnapshot {
    /// Step to re-execute from after a rollback.
    step: usize,
    coords: Vec<f64>,
    best: Vec<f64>,
    best_fitness: f64,
    no_improvement: usize,
    opt: OptimizerState,
    sched: SchedulerState,
    /// Trace-ring length at snapshot time; rollback truncates to it so
    /// reverted steps don't linger in the persisted trace.
    ring_len: usize,
    /// Tracer previous-step coordinates at snapshot time.
    prev: Vec<f64>,
}

/// Refreshes the sentinel snapshot from the current loop state — but only
/// when that state is entirely finite, so a rollback never lands on a
/// poisoned snapshot.
#[allow(clippy::too_many_arguments)]
fn refresh_snapshot(
    snap: &mut GoodSnapshot,
    opt_scratch: &mut OptimizerState,
    step: usize,
    coords: &[f64],
    best: &[f64],
    best_fitness: f64,
    no_improvement: usize,
    optimizer: &dyn Optimizer,
    scheduler: &dyn LrScheduler,
    tracer: Option<&Tracer>,
) {
    optimizer.save_state(opt_scratch);
    if !opt_scratch.is_finite() || coords.iter().any(|c| !c.is_finite()) {
        return;
    }
    snap.step = step;
    snap.coords.copy_from_slice(coords);
    snap.best.copy_from_slice(best);
    snap.best_fitness = best_fitness;
    snap.no_improvement = no_improvement;
    std::mem::swap(&mut snap.opt, opt_scratch);
    snap.sched = scheduler.save_state();
    snap.ring_len = tracer.map_or(0, |t| t.ring.len());
    snap.prev.clear();
    if let Some(tr) = tracer {
        snap.prev.extend_from_slice(&tr.prev);
    }
}

/// Restores the loop state from the last good snapshot and tightens the
/// learning rate through the scheduler's forced reduction.
#[allow(clippy::too_many_arguments)]
fn rollback(
    snap: &GoodSnapshot,
    coords: &mut [f64],
    best: &mut [f64],
    best_fitness: &mut f64,
    no_improvement: &mut usize,
    optimizer: &mut dyn Optimizer,
    scheduler: &mut dyn LrScheduler,
    workspace: &mut Workspace,
    tracer: Option<&mut Tracer>,
) {
    coords.copy_from_slice(&snap.coords);
    best.copy_from_slice(&snap.best);
    *best_fitness = snap.best_fitness;
    *no_improvement = snap.no_improvement;
    optimizer
        .load_state(&snap.opt)
        .expect("sentinel snapshot always matches its own optimizer");
    scheduler.load_state(snap.sched);
    let lr = scheduler.force_reduction();
    optimizer.set_lr(lr);
    // The snapshot's Verlet reference positions are gone; force a rebuild.
    workspace.reset_batch();
    if let Some(tr) = tracer {
        tr.ring.truncate(snap.ring_len);
        tr.prev.clear();
        tr.prev.extend_from_slice(&snap.prev);
    }
    SENTINEL_RECOVERIES_TOTAL.inc();
}

/// Observer invoked after every attempted batch (accepted or not).
type BatchCallback = Box<dyn FnMut(&BatchStats) + Send>;

/// Mutable state of one packing run, advanced one batch attempt at a time.
///
/// Produced by [`CollectivePacker::begin_run`] /
/// [`CollectivePacker::begin_resumed`], driven by
/// [`CollectivePacker::advance_batch`] until [`RunProgress::finished`], and
/// consumed by [`CollectivePacker::finish_run`]. Every run — plain, swept
/// or zoned, fresh or resumed — steps through this exact sequence under
/// [`crate::BatchedPacker`], which is what makes a system inside a sweep
/// bitwise equal to its own plain run.
pub struct RunProgress {
    particles: Vec<Particle>,
    batches: Vec<BatchStats>,
    bed: FixedBed,
    preexisting: usize,
    packed: usize,
    batch_index: usize,
    batch_size: usize,
    target: usize,
    elapsed_base: Duration,
    start: Instant,
    fingerprint: u64,
    /// Optimizer steps attempted across this run — the one step counter
    /// every checkpoint cadence reads.
    steps_taken: u64,
}

impl RunProgress {
    /// True when the run is over: target reached or batch size collapsed.
    pub fn finished(&self) -> bool {
        self.packed >= self.target || self.batch_size == 0
    }

    /// Particles packed so far by this run (excluding preexisting ones).
    pub fn packed(&self) -> usize {
        self.packed
    }

    /// The requested particle count.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Next batch index (accepted and rejected batches both count).
    pub fn batch_index(&self) -> usize {
        self.batch_index
    }

    /// Current batch size (halved after each rejection).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// All particles, preexisting first.
    pub fn particles(&self) -> &[Particle] {
        &self.particles
    }

    /// Per-batch statistics so far.
    pub fn batches(&self) -> &[BatchStats] {
        &self.batches
    }

    /// Optimizer steps attempted so far (across all batch attempts).
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }
}

/// The per-step record stream, present while any consumer is installed (a
/// trace sink, diagnostics, or both): one [`StepRecord`] per step is pushed
/// into the preallocated ring inside the optimizer loop (allocation-free)
/// and drained to every consumer at the batch boundary.
struct Tracer {
    ring: TraceRing,
    sink: Option<Box<dyn TraceSink>>,
    /// Previous step's coordinates, for the max-displacement diagnostic.
    prev: Vec<f64>,
    /// Batch index stamped into records.
    batch: u64,
}

impl Tracer {
    /// Delivers the buffered records to the trace sink, then to `diag`.
    fn drain(&mut self, diag: Option<&mut DiagEngine>) {
        // The casts give both consumers the same (borrowed) trait-object
        // lifetime; the boxed sink's own is `'static`.
        let sink = self.sink.as_deref_mut().map(|s| s as &mut dyn TraceSink);
        let diag = diag.map(|d| d as &mut dyn TraceSink);
        self.ring.drain_into(&mut [sink, diag]);
    }
}

/// The Algorithm 1 driver.
pub struct CollectivePacker {
    container: Container,
    params: PackingParams,
    rng: StdRng,
    batch_callback: Option<BatchCallback>,
    /// Reusable evaluation buffers shared by all batches: steady-state
    /// optimizer steps allocate nothing.
    workspace: Workspace,
    tracer: Option<Tracer>,
    /// Divergence-sentinel rollbacks across the current run.
    recoveries: u64,
    /// Extra context folded into the checkpoint fingerprint (thread count,
    /// sweep grid — knobs that live outside `PackingParams`).
    fingerprint_salt: u64,
    /// Convergence diagnostics, off by default (zero steady-state cost).
    diag: Option<DiagEngine>,
}

impl CollectivePacker {
    /// Creates a packer; `params.seed` fixes all randomness.
    ///
    /// Panics when the container region is empty (e.g. a zone restricted
    /// to a slab entirely outside its container).
    pub fn new(container: Container, params: PackingParams) -> CollectivePacker {
        params.validate();
        assert!(
            !container.is_empty(),
            "container region is empty (volume {}); check zone bounds against the container",
            container.volume()
        );
        let rng = StdRng::seed_from_u64(params.seed);
        CollectivePacker {
            container,
            params,
            rng,
            batch_callback: None,
            workspace: Workspace::new(),
            tracer: None,
            recoveries: 0,
            fingerprint_salt: 0,
            diag: None,
        }
    }

    /// Installs a progress hook called after every attempted batch — the
    /// runtime counterpart of the YAML `verbosity` knob (applications print
    /// from here; libraries can collect statistics).
    pub fn set_batch_callback(&mut self, f: impl FnMut(&BatchStats) + Send + 'static) {
        self.batch_callback = Some(Box::new(f));
    }

    /// Installs a convergence-trace sink: every optimizer step of every
    /// batch emits one [`StepRecord`] (loss terms, gradient norm, learning
    /// rate, max displacement, Verlet rebuilds). Records are buffered in a
    /// preallocated ring sized to `params.max_steps` and drained to the
    /// sink between batches, so the step loop itself never does I/O.
    ///
    /// A recorded step evaluates through the fused value+gradient+breakdown
    /// traversal (its loss is bitwise the plain one's) and adds a
    /// gradient-norm and a displacement reduction: a small per-step cost
    /// (EXPERIMENTS.md), paid once however many consumers — this sink,
    /// diagnostics — read the records. The packing is bitwise unchanged.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.record_stream().sink = Some(sink);
    }

    /// Uninstalls the trace sink, draining any buffered records into it
    /// first, and returns it (e.g. to recover and flush a file writer).
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        let tr = self.tracer.as_mut().filter(|t| t.sink.is_some())?;
        tr.drain(None);
        let sink = tr.sink.take();
        self.release_record_stream();
        sink
    }

    /// The record stream, allocated on first use.
    fn record_stream(&mut self) -> &mut Tracer {
        let capacity = self.params.max_steps.clamp(1, 65_536);
        self.tracer.get_or_insert_with(|| Tracer {
            ring: TraceRing::with_capacity(capacity),
            sink: None,
            prev: Vec::new(),
            batch: 0,
        })
    }

    /// Frees the record stream once no consumer is left, so an unobserved
    /// run pays nothing for it.
    fn release_record_stream(&mut self) {
        if self.diag.is_none() && self.tracer.as_ref().is_some_and(|t| t.sink.is_none()) {
            self.tracer = None;
        }
    }

    /// Divergence-sentinel rollbacks performed in the current/last run.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Enables convergence diagnostics ([`DiagMode::Off`] disables them):
    /// each batch is distilled into a [`adampack_telemetry::DiagRecord`]
    /// (loss slope, gradient trend, acceptance rate, oscillation rate,
    /// classification). Diagnostics consume the step records a trace sink
    /// would receive, so they pay the same per-step recording cost (see
    /// [`CollectivePacker::set_trace_sink`]) and, like the trace, never see
    /// steps a sentinel rollback reverted.
    pub fn set_diagnostics(&mut self, mode: DiagMode) {
        if mode.enabled() {
            self.diag = Some(DiagEngine::new(mode, DiagEngine::WINDOW));
            self.record_stream();
        } else {
            self.diag = None;
            self.release_record_stream();
        }
    }

    /// Labels subsequent diagnostics records (batched sweeps stamp each
    /// system's label; single runs leave this empty).
    pub fn set_diagnostics_label(&mut self, label: &str) {
        if let Some(d) = self.diag.as_mut() {
            d.set_label(label);
        }
    }

    /// Diagnostics records accumulated so far (empty when disabled).
    pub fn diagnostics(&self) -> &[DiagRecord] {
        self.diag.as_ref().map_or(&[], |d| d.records())
    }

    /// Drains the accumulated diagnostics records.
    pub fn take_diagnostics(&mut self) -> Vec<DiagRecord> {
        self.diag
            .as_mut()
            .map_or_else(Vec::new, |d| d.take_records())
    }

    /// Consecutive batches the diagnostics classified as stalled (0 when
    /// diagnostics are off). Advisory — surfaced next to, never instead
    /// of, the divergence sentinel.
    pub fn diag_stall_streak(&self) -> u64 {
        self.diag.as_ref().map_or(0, |d| d.stall_streak())
    }

    /// FNV-1a fingerprint over the [`PACKING_REVISION`], the
    /// hyper-parameters, container geometry and the
    /// [`CollectivePacker::set_fingerprint_context`] salt, stored in
    /// checkpoints and verified on [`CollectivePacker::begin_resumed`].
    /// The neighbor settings are left out: every strategy packs the same
    /// bytes, so a run may resume under another spelling.
    pub fn fingerprint(&self) -> u64 {
        use std::fmt::Write as _;
        let params = PackingParams {
            neighbor: NeighborParams::default(),
            ..self.params.clone()
        };
        let mut s = format!("rev:{PACKING_REVISION}|{params:?}");
        let bb = self.container.aabb();
        for v in [
            bb.min.x,
            bb.min.y,
            bb.min.z,
            bb.max.x,
            bb.max.y,
            bb.max.z,
            self.container.volume(),
        ] {
            let _ = write!(s, "|{:016x}", v.to_bits());
        }
        let _ = write!(s, "|ctx:{:016x}", self.fingerprint_salt);
        checkpoint::fnv1a(s.as_bytes())
    }

    /// Folds extra run-configuration context into the checkpoint
    /// fingerprint. The CLI hashes the knobs that affect a run but live
    /// outside `PackingParams` — the resolved thread count and the `batch:`
    /// sweep grid — so a resume under a different configuration is rejected
    /// (exit 7) instead of silently diverging.
    pub fn set_fingerprint_context(&mut self, salt: u64) {
        self.fingerprint_salt = salt;
    }

    /// The container.
    pub fn container(&self) -> &Container {
        &self.container
    }

    /// The hyper-parameters.
    pub fn params(&self) -> &PackingParams {
        &self.params
    }

    /// An empty [`FixedBed`] along this packer's gravity axis — the
    /// starting point for driving batches manually (experiments, benches).
    pub fn empty_bed(&self) -> FixedBed {
        FixedBed::new(self.params.gravity)
    }

    /// Workspace diagnostics: total objective evaluations and Verlet
    /// rebuilds served so far.
    pub fn workspace_stats(&self) -> (usize, usize) {
        (self.workspace.evals(), self.workspace.verlet_rebuilds())
    }

    /// Packs `params.target_count` particles drawn from `psd`.
    ///
    /// Panics if the divergence sentinel gives up (see
    /// [`CollectivePacker::try_pack`] for the fallible variant).
    pub fn pack(&mut self, psd: &Psd) -> PackResult {
        self.try_pack(psd)
            .unwrap_or_else(|e| panic!("packing failed: {e}"))
    }

    /// Fallible [`CollectivePacker::pack`]: the stepping API run to
    /// completion. Returns [`PackError::Diverged`] when non-finite
    /// losses/gradients persist through the sentinel's recovery budget
    /// instead of packing garbage. (Finite-but-exploding batches are
    /// abandoned to batch acceptance — which rejects them and halves —
    /// rather than erroring, so infeasible inputs still terminate with a
    /// partial result.)
    pub fn try_pack(&mut self, psd: &Psd) -> Result<PackResult, PackError> {
        let mut prog = self.begin_run(Vec::new(), false);
        while !prog.finished() {
            self.advance_batch(psd, &mut prog, &mut None)?;
        }
        Ok(self.finish_run(prog))
    }

    /// Starts a stepping run: resets per-run counters and returns the
    /// [`RunProgress`] that [`CollectivePacker::advance_batch`] drives.
    ///
    /// `existing` particles form a fixed bed the run packs on top of (a
    /// zoned run's lower zones). `checkpointing` opts into the checkpointing
    /// contract (parameter fingerprint computed so resumes can verify it) —
    /// pass true whenever the run's state may be captured. The bed grid is
    /// canonicalized at every batch start regardless, so its layout is a
    /// pure function of the particle list for any run.
    pub fn begin_run(&mut self, existing: Vec<Particle>, checkpointing: bool) -> RunProgress {
        self.recoveries = 0;
        let fingerprint = if checkpointing { self.fingerprint() } else { 0 };
        // The bed is built once and grown incrementally: accepting a batch
        // pushes its spheres (amortized O(1) each) instead of rebuilding the
        // whole grid, and the top altitude is a running maximum.
        let bed = FixedBed::from_particles(self.params.gravity, &existing);
        let mut particles = existing;
        reserve_target(&mut particles, self.params.target_count);
        RunProgress {
            preexisting: particles.len(),
            particles,
            batches: Vec::new(),
            bed,
            packed: 0,
            batch_index: 0,
            batch_size: self.params.batch_size,
            target: self.params.target_count,
            elapsed_base: Duration::ZERO,
            start: Instant::now(),
            fingerprint,
            steps_taken: 0,
        }
    }

    /// Starts a stepping run from a decoded checkpoint: verifies seed and
    /// parameter fingerprint, restores the RNG/workspace/recovery counters
    /// and returns the mid-run [`RunProgress`]. See
    /// [`CollectivePacker::begin_run`] for `checkpointing`.
    pub fn begin_resumed(
        &mut self,
        state: RunState,
        checkpointing: bool,
    ) -> Result<RunProgress, PackError> {
        if state.seed != self.params.seed {
            return Err(CheckpointError::StateMismatch(format!(
                "checkpoint seed {} but params seed {}",
                state.seed, self.params.seed
            ))
            .into());
        }
        let fp = self.fingerprint();
        if state.params_fingerprint != fp {
            return Err(CheckpointError::StateMismatch(format!(
                "parameter fingerprint {fp:#018x} does not match checkpoint {:#018x} \
                 (different hyper-parameters or container, or written by a build \
                 of another packing revision; this build packs revision {PACKING_REVISION})",
                state.params_fingerprint
            ))
            .into());
        }
        self.rng = StdRng::from_state(state.rng);
        self.workspace
            .restore_counters(state.evals as usize, state.verlet_rebuilds as usize);
        self.recoveries = state.recoveries;
        let bed = FixedBed::from_particles(self.params.gravity, &state.particles);
        let mut particles = state.particles;
        let still_to_pack = self
            .params
            .target_count
            .saturating_sub(state.packed as usize);
        reserve_target(&mut particles, still_to_pack);
        Ok(RunProgress {
            preexisting: state.preexisting as usize,
            particles,
            batches: state.batches,
            bed,
            packed: state.packed as usize,
            batch_index: state.batch_index as usize,
            batch_size: state.batch_size as usize,
            target: self.params.target_count,
            elapsed_base: Duration::from_nanos(state.elapsed_ns),
            start: Instant::now(),
            fingerprint: if checkpointing { fp } else { 0 },
            steps_taken: state.global_step,
        })
    }

    /// Snapshot of a stepping run at a batch boundary (no batch in flight)
    /// — the only state a checkpoint ever holds. A pure read: capturing
    /// never perturbs the run. The run driver's checkpoints and the job
    /// server's preemptions persist it; [`CollectivePacker::begin_resumed`]
    /// accepts it back.
    pub fn capture_state(&self, prog: &RunProgress) -> RunState {
        RunState {
            seed: self.params.seed,
            params_fingerprint: prog.fingerprint,
            global_step: prog.steps_taken,
            recoveries: self.recoveries,
            preexisting: prog.preexisting as u64,
            target: prog.target as u64,
            batch_index: prog.batch_index as u64,
            packed: prog.packed as u64,
            batch_size: prog.batch_size as u64,
            elapsed_ns: (prog.elapsed_base + prog.start.elapsed())
                .as_nanos()
                .min(u64::MAX as u128) as u64,
            evals: self.workspace.evals() as u64,
            verlet_rebuilds: self.workspace.verlet_rebuilds() as u64,
            rng: self.rng.state(),
            particles: prog.particles.clone(),
            batches: prog.batches.clone(),
        }
    }

    /// Consumes a finished (or abandoned) stepping run into a
    /// [`PackResult`].
    pub fn finish_run(&mut self, prog: RunProgress) -> PackResult {
        debug_assert_eq!(prog.particles.len(), prog.preexisting + prog.packed);
        PackResult {
            particles: prog.particles,
            batches: prog.batches,
            container: self.container.clone(),
            duration: prog.elapsed_base + prog.start.elapsed(),
            target: prog.target,
            recoveries: self.recoveries,
        }
    }

    /// Executes one outer-loop iteration of Algorithm 1: spawn a batch,
    /// optimize it, run the acceptance test and either grow the bed or
    /// halve the batch size. No-op when the run is already finished.
    ///
    /// With a `cadence` (a plain run's, passed by the run driver), the
    /// boundary state is then saved when the cadence is due.
    pub fn advance_batch(
        &mut self,
        psd: &Psd,
        prog: &mut RunProgress,
        cadence: &mut Option<CheckpointCadence>,
    ) -> Result<(), PackError> {
        if prog.finished() {
            return Ok(());
        }
        if let Some(c) = cadence.as_mut() {
            c.anchor(prog.steps_taken);
        }
        let _batch = span(Phase::Batch);
        // The grid layout must be a pure function of the particle list so
        // a resumed run's rebuilt bed matches the straight run's
        // incrementally grown one bit for bit — and so a tiled run's hot
        // window (same canonical layout, settled slabs retired) produces
        // the identical candidate sequences as the untiled grid.
        if self.params.tiles > 1 {
            let (bottom, top) = self.container.altitude_range(self.params.gravity);
            let bed_top = if prog.bed.is_empty() {
                f64::NEG_INFINITY
            } else {
                prog.bed.top()
            };
            let horizon = tile_horizon(self.params.tiles, bottom, top, bed_top);
            prog.bed.canonicalize_hot(&prog.particles, horizon);
        } else {
            prog.bed.canonicalize();
        }
        HOT_SET_BYTES.set((prog.bed.resident_bytes() + self.workspace.resident_bytes()) as u64);
        let spawn = span(Phase::Spawn);
        if let Some(tr) = self.tracer.as_mut() {
            tr.batch = prog.batch_index as u64;
            tr.prev.clear();
        }
        let n = prog.batch_size.min(prog.target - prog.packed);
        let radii = psd.sample_n(&mut self.rng, n);
        let init = self.spawn_batch(&radii, &prog.bed);
        let mut phase = BatchPhaseBreakdown {
            spawn: spawn.finish(),
            ..BatchPhaseBreakdown::default()
        };
        let optimize = span(Phase::Optimize);
        let lr = self.params.lr;
        let run = self.optimize_batch_core(
            &radii,
            init,
            prog.bed.grid(),
            self.params.max_steps,
            self.params.patience,
            &lr,
            prog.batch_index,
            &mut phase,
        )?;
        phase.optimize = optimize.finish();

        // Acceptance: mean contact overlap and boundary excess relative
        // to radius must stay below the configured threshold
        // (Algorithm 1 line 19).
        let acceptance = span(Phase::Acceptance);
        // Read the final coordinates through the workspace's SoA
        // snapshot instead of an interleaved-gather allocation.
        let centers = self.workspace.positions_from(&run.coords, &radii);
        let contact = contact_stats_vs_fixed(centers, &radii, prog.bed.grid());
        let boundary = boundary_stats(centers, &radii, self.container.halfspaces());
        let accepted = contact.mean_overlap_ratio <= self.params.accept_mean_overlap
            && boundary.0 <= self.params.accept_mean_overlap
            && contact.max_overlap_ratio <= self.params.accept_max_overlap
            && boundary.1 <= self.params.accept_max_overlap;
        phase.acceptance = acceptance.finish();
        let duration = phase.spawn + phase.optimize + phase.acceptance;

        BATCHES_TOTAL.inc();
        if accepted {
            BATCHES_ACCEPTED_TOTAL.inc();
            PARTICLES_PACKED_TOTAL.add(n as u64);
        }
        adampack_telemetry::debug!(
            "batch {}: {n} particles {}, {} steps, best Z {:.4}, \
             mean overlap {:.3}% of r, {} verlet rebuilds, {:.2?}",
            prog.batch_index,
            if accepted { "accepted" } else { "rejected" },
            run.steps,
            run.best_fitness,
            contact.mean_overlap_ratio * 100.0,
            run.verlet_rebuilds,
            duration,
        );

        let stats = BatchStats {
            index: prog.batch_index,
            requested: n,
            accepted,
            steps: run.steps,
            best_fitness: run.best_fitness,
            mean_overlap_ratio: contact.mean_overlap_ratio,
            mean_boundary_ratio: boundary.0,
            duration,
            verlet_rebuilds: run.verlet_rebuilds,
            phase,
        };
        if let Some(cb) = self.batch_callback.as_mut() {
            cb(&stats);
        }
        // Drain the record ring at the batch boundary: the sink (file I/O)
        // never runs inside the optimizer loop, and diagnostics distill the
        // batch from the same records the trace persists.
        if let Some(tr) = self.tracer.as_mut() {
            tr.drain(self.diag.as_mut());
        }
        if let Some(d) = self.diag.as_mut() {
            let rec = d.finish_batch(prog.batch_index as u64, accepted);
            adampack_telemetry::debug!(
                "diagnostics: batch {} {} (loss slope {:.3e}, grad trend {:.3}, \
                 accept rate {:.2}, osc rate {:.2})",
                rec.batch,
                rec.classification,
                rec.loss_slope,
                rec.grad_trend,
                rec.accept_rate,
                rec.osc_rate,
            );
            // The stall signal is advisory and additive: the divergence
            // sentinel still owns rollbacks; diagnostics only surface that
            // extra steps are buying nothing.
            let streak = d.stall_streak();
            if streak >= 3 {
                adampack_telemetry::warn!(
                    "diagnostics: {streak} consecutive stalled batches at batch {} \
                     (sentinel recoveries so far: {})",
                    prog.batch_index,
                    self.recoveries,
                );
            }
        }
        prog.batches.push(stats);
        prog.batch_index += 1;
        prog.steps_taken += run.steps as u64;

        if accepted {
            for (i, &c) in centers.iter().enumerate() {
                prog.bed.push(c, radii[i]);
                prog.particles.push(Particle {
                    center: c,
                    radius: radii[i],
                    batch: prog.batch_index - 1,
                    set: 0,
                });
            }
            prog.packed += n;
        } else {
            prog.batch_size /= 2;
        }
        // Retirement guard: the hot window keeps one full slab below the
        // bed surface, so no query should ever reach a retired sphere. A
        // single sub-horizon candidate probe voids the bitwise-parity
        // certificate and is a hard error rather than a silent drift.
        if self.params.tiles > 1 {
            let misses = prog.bed.grid().horizon_misses();
            if misses > 0 {
                return Err(PackError::HorizonBreach {
                    batch: prog.batch_index - 1,
                    misses,
                });
            }
        }
        // Checkpoint at the boundary: a pure read of a complete state, so
        // the cadence never changes the packing.
        if let Some(c) = cadence.as_mut() {
            if c.due(prog.steps_taken, prog.finished()) {
                c.save(
                    &checkpoint::encode(&self.capture_state(prog)),
                    prog.steps_taken,
                );
            }
        }
        Ok(())
    }

    /// Generates initial positions for a batch above the current bed — the
    /// paper's "random positions above the last layer".
    ///
    /// The spawn slab starts at the bed's top altitude and is sized so the
    /// batch fits at `spawn_density` packing fraction; positions inside the
    /// container are preferred (rejection sampling), with a fallback into
    /// the bounding-box column above it when the slab leaves the hull.
    pub fn spawn_batch(&mut self, radii: &[f64], bed: &FixedBed) -> Vec<f64> {
        let axis = self.params.gravity;
        let up = axis.up();
        debug_assert_eq!(bed.axis(), axis, "bed tracks a different gravity axis");
        let (bottom, top_of_container) = self.container.altitude_range(axis);
        // O(1): the bed maintains its top altitude incrementally.
        let bed_top = if bed.is_empty() { bottom } else { bed.top() };

        let batch_volume: f64 = radii
            .iter()
            .map(|r| 4.0 / 3.0 * std::f64::consts::PI * r * r * r)
            .sum();
        let height_range = (top_of_container - bottom).max(1e-9);
        let mean_area = self.container.volume() / height_range;
        let r_max = radii.iter().copied().fold(0.0, f64::max);
        let slab_h = (batch_volume / (self.params.spawn_density * mean_area)).max(2.5 * r_max);
        let lo = bed_top;
        let hi = bed_top + slab_h;

        let bb = self.container.aabb();
        let mut out = Vec::with_capacity(radii.len() * 3);
        for &r in radii {
            let p = self
                .container
                .sample_in_slab(&mut self.rng, axis, lo + r, hi, r, 64)
                .unwrap_or_else(|| {
                    // Slab is (partly) above the container: spawn in the
                    // bounding-box column at the requested altitude and let
                    // the boundary term pull the particle inside.
                    use rand::Rng;
                    let q = Vec3::new(
                        self.rng.gen_range(bb.min.x..=bb.max.x),
                        self.rng.gen_range(bb.min.y..=bb.max.y),
                        self.rng.gen_range(bb.min.z..=bb.max.z),
                    );
                    let alt = self.rng.gen_range(lo + r..=hi + r);
                    q + up * (alt - up.dot(q))
                });
            out.extend_from_slice(&[p.x, p.y, p.z]);
        }
        out
    }

    /// Runs the inner optimization loop on one batch, as one `optimize`
    /// span, and drains its step records to the installed consumers.
    ///
    /// Public so experiments (e.g. the Fig. 3 learning-rate study) can drive
    /// a single batch with custom step budgets; a sink installed with
    /// [`CollectivePacker::set_trace_sink`] receives every step's
    /// [`StepRecord`]. Panics if the divergence sentinel exhausts its
    /// recovery budget.
    pub fn optimize_batch_with(
        &mut self,
        radii: &[f64],
        init: Vec<f64>,
        fixed: &CsrGrid,
        max_steps: usize,
        patience: usize,
        lr: &LrPolicy,
    ) -> BatchOptimization {
        let optimize = span(Phase::Optimize);
        let mut phase = BatchPhaseBreakdown::default();
        let run = self
            .optimize_batch_core(radii, init, fixed, max_steps, patience, lr, 0, &mut phase)
            .unwrap_or_else(|e| panic!("batch optimization failed: {e}"));
        drop(optimize);
        if let Some(tr) = self.tracer.as_mut() {
            tr.drain(self.diag.as_mut());
        }
        run
    }

    /// The full inner loop: optimization plus the divergence sentinel.
    /// Gradient and optimizer span durations accumulate into `phase`.
    #[allow(clippy::too_many_arguments)]
    fn optimize_batch_core(
        &mut self,
        radii: &[f64],
        init: Vec<f64>,
        fixed: &CsrGrid,
        max_steps: usize,
        patience: usize,
        lr: &LrPolicy,
        batch_index: usize,
        phase: &mut BatchPhaseBreakdown,
    ) -> Result<BatchOptimization, PackError> {
        assert_eq!(init.len(), radii.len() * 3, "init buffer size mismatch");
        let objective = Objective::new(
            self.params.weights,
            self.params.gravity,
            self.container.halfspaces(),
            radii,
            fixed,
        )
        .with_neighbor(
            self.params.neighbor.strategy,
            self.params.neighbor.skin_for(radii),
        )
        .with_kernel(self.params.kernel);
        // Fresh batch: invalidate the previous batch's Verlet lists while
        // keeping every buffer's capacity.
        self.workspace.reset_batch();

        let mut coords = init;
        let mut grad = vec![0.0; coords.len()];
        let mut optimizer = self.params.optimizer.build_with_kernel(
            lr.initial_lr(),
            coords.len(),
            self.params.kernel,
        );
        let mut scheduler = lr.build();

        let mut best = coords.clone();
        let mut best_fitness = f64::INFINITY;
        let mut no_improvement = 0usize;
        let mut steps = 0usize;
        let rebuilds_before = self.workspace.verlet_rebuilds();
        let mut batch_recoveries = 0usize;

        // Divergence-sentinel setup: the explosion bound and the initial
        // known-good snapshot (the spawn state).
        let sentinel = self.params.sentinel;
        let sentinel_on = sentinel.enabled;
        let (aabb_center, explosion_limit) = {
            let bb = self.container.aabb();
            let c = (bb.min + bb.max) * 0.5;
            let diag = bb.min.distance(bb.max);
            ([c.x, c.y, c.z], sentinel.explosion_factor * diag.max(1e-9))
        };
        let mut snap = GoodSnapshot {
            step: 0,
            coords: coords.clone(),
            best: best.clone(),
            best_fitness,
            no_improvement,
            opt: OptimizerState::default(),
            sched: scheduler.save_state(),
            ring_len: self.tracer.as_ref().map_or(0, |t| t.ring.len()),
            prev: self
                .tracer
                .as_ref()
                .map(|t| t.prev.clone())
                .unwrap_or_default(),
        };
        optimizer.save_state(&mut snap.opt);
        let mut opt_scratch = OptimizerState::default();

        let mut step = 0;
        while step < max_steps {
            // Periodic known-good snapshot (skipped right after a rollback,
            // when `step == snap.step` and the state is the snapshot).
            if sentinel_on && step != snap.step && step.is_multiple_of(sentinel.snapshot_every) {
                refresh_snapshot(
                    &mut snap,
                    &mut opt_scratch,
                    step,
                    &coords,
                    &best,
                    best_fitness,
                    no_improvement,
                    optimizer.as_ref(),
                    scheduler.as_ref(),
                    self.tracer.as_ref(),
                );
            }
            let gradient = span(Phase::Gradient);
            // Recorded steps use the fused kernel: value, gradient and term
            // breakdown from one neighbor traversal, with a loss bitwise
            // equal to the unrecorded call's.
            let (z, breakdown) = if self.tracer.is_some() {
                objective.value_grad_breakdown_ws(&coords, &mut grad, &mut self.workspace)
            } else {
                let z = objective.value_and_grad_ws(&coords, &mut grad, &mut self.workspace);
                (z, Default::default())
            };
            phase.gradient += gradient.finish();
            // Divergence sentinel, stage 1: a non-finite loss or gradient
            // poisons everything downstream — roll back before it spreads.
            if sentinel_on && (!z.is_finite() || grad.iter().any(|g| !g.is_finite())) {
                batch_recoveries += 1;
                self.recoveries += 1;
                adampack_telemetry::warn!(
                    "sentinel: non-finite objective at batch {batch_index} step {step} \
                     (z = {z}); rolling back to step {} (recovery {batch_recoveries}/{})",
                    snap.step,
                    sentinel.max_recoveries,
                );
                if batch_recoveries > sentinel.max_recoveries {
                    return Err(PackError::Diverged {
                        batch: batch_index,
                        step,
                        recoveries: batch_recoveries,
                    });
                }
                rollback(
                    &snap,
                    &mut coords,
                    &mut best,
                    &mut best_fitness,
                    &mut no_improvement,
                    optimizer.as_mut(),
                    scheduler.as_mut(),
                    &mut self.workspace,
                    self.tracer.as_mut(),
                );
                // Persist the LR cut into the snapshot so a repeat
                // divergence doesn't undo it.
                optimizer.save_state(&mut snap.opt);
                snap.sched = scheduler.save_state();
                step = snap.step;
                continue;
            }
            STEPS_TOTAL.inc();
            if let Some(tr) = self.tracer.as_mut() {
                let b = breakdown;
                // Fixed-shape parallel reductions: the partial layout
                // depends only on the length, so norm and displacement are
                // bitwise thread-independent.
                let grad_norm = par::map_reduce(
                    grad.len(),
                    REDUCE_BLOCK,
                    0.0,
                    |s, e| grad[s..e].iter().map(|g| g * g).sum::<f64>(),
                    |a, b| a + b,
                )
                .sqrt();
                let max_disp = if tr.prev.len() == coords.len() {
                    let (coords, prev) = (&coords, &tr.prev);
                    par::map_reduce(
                        coords.len(),
                        REDUCE_BLOCK,
                        0.0,
                        |s, e| {
                            coords[s..e]
                                .iter()
                                .zip(&prev[s..e])
                                .map(|(a, p)| (a - p).abs())
                                .fold(0.0, f64::max)
                        },
                        f64::max,
                    )
                } else {
                    0.0
                };
                tr.prev.clear();
                tr.prev.extend_from_slice(&coords);
                tr.ring.push(StepRecord {
                    batch: tr.batch,
                    step: step as u64,
                    loss: z,
                    penetration_intra: b.penetration_intra,
                    penetration_cross: b.penetration_cross,
                    altitude: b.altitude,
                    exterior: b.exterior,
                    grad_norm,
                    lr: scheduler.current_lr(),
                    max_disp,
                    verlet_rebuilds: self.workspace.verlet_rebuilds() as u64,
                });
            }
            // Improvement bookkeeping (Algorithm 1 lines 11–16; the paper's
            // comparison direction is clearly meant to test improvement).
            if z < best_fitness {
                let significant =
                    best_fitness - z > self.params.improvement_tol * best_fitness.abs().max(1.0);
                best.copy_from_slice(&coords);
                best_fitness = z;
                if significant || !best_fitness.is_finite() {
                    no_improvement = 0;
                } else {
                    no_improvement += 1;
                }
            } else {
                no_improvement += 1;
            }
            steps = step + 1;
            if no_improvement >= patience {
                break;
            }
            let update = span(Phase::OptimizerStep);
            let new_lr = scheduler.step(z);
            optimizer.set_lr(new_lr);
            optimizer.step(&mut coords, &grad);
            phase.optimizer += update.finish();
            // Divergence sentinel, stage 2: the update itself may blow up
            // (non-finite or exploding coordinates) even from a finite
            // gradient when the learning rate is far too hot.
            if sentinel_on {
                let exploded = coords.chunks_exact(3).any(|c| {
                    !(c[0].is_finite() && c[1].is_finite() && c[2].is_finite())
                        || (c[0] - aabb_center[0]).abs() > explosion_limit
                        || (c[1] - aabb_center[1]).abs() > explosion_limit
                        || (c[2] - aabb_center[2]).abs() > explosion_limit
                });
                if exploded {
                    batch_recoveries += 1;
                    self.recoveries += 1;
                    adampack_telemetry::warn!(
                        "sentinel: displacement explosion at batch {batch_index} step {step}; \
                         rolling back to step {} (recovery {batch_recoveries}/{})",
                        snap.step,
                        sentinel.max_recoveries,
                    );
                    if batch_recoveries > sentinel.max_recoveries {
                        // Exploding-but-finite coordinates are not fatal the
                        // way NaNs are: `best` still holds the last finite
                        // state, so hand the batch to acceptance (which will
                        // reject it and halve) instead of killing the run —
                        // infeasible inputs must degrade, not error.
                        adampack_telemetry::warn!(
                            "sentinel: batch {batch_index} keeps exploding after \
                             {batch_recoveries} recoveries; abandoning optimization \
                             and leaving the batch to acceptance"
                        );
                        break;
                    }
                    rollback(
                        &snap,
                        &mut coords,
                        &mut best,
                        &mut best_fitness,
                        &mut no_improvement,
                        optimizer.as_mut(),
                        scheduler.as_mut(),
                        &mut self.workspace,
                        self.tracer.as_mut(),
                    );
                    optimizer.save_state(&mut snap.opt);
                    snap.sched = scheduler.save_state();
                    step = snap.step;
                    continue;
                }
            }
            step += 1;
        }

        Ok(BatchOptimization {
            coords: best,
            best_fitness,
            steps,
            verlet_rebuilds: self.workspace.verlet_rebuilds() - rebuilds_before,
        })
    }
}

/// Reserves room for `more` particles up front, so the list never grows by
/// doubling. A doubling frees a large buffer, which lifts glibc's mmap
/// threshold; the next run's list then grows on the heap and its peak RSS
/// creeps. A target the allocator refuses (a huge request) is ignored: the
/// run grows the list as it goes and stops at the lid as before.
fn reserve_target(particles: &mut Vec<Particle>, more: usize) {
    let _ = particles.try_reserve(more);
}

/// Builds the fixed-bed grid from packed particles.
pub fn build_grid(particles: &[Particle]) -> CsrGrid {
    if particles.is_empty() {
        CsrGrid::empty()
    } else {
        let centers: Vec<Vec3> = particles.iter().map(|p| p.center).collect();
        let radii: Vec<f64> = particles.iter().map(|p| p.radius).collect();
        CsrGrid::build(&centers, &radii)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::OptimizerKind;
    use crate::particle::coords;
    use adampack_geometry::{shapes, Axis};

    fn small_box_container() -> Container {
        Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0))).unwrap()
    }

    fn quick_params() -> PackingParams {
        PackingParams {
            batch_size: 30,
            target_count: 30,
            max_steps: 800,
            patience: 60,
            seed: 7,
            ..PackingParams::default()
        }
    }

    #[test]
    fn packs_a_small_batch_inside_the_box() {
        let mut packer = CollectivePacker::new(small_box_container(), quick_params());
        let result = packer.pack(&Psd::constant(0.15));
        assert!(!result.particles.is_empty(), "no particles packed");
        assert!(result.reached_target() || !result.batches.is_empty());
        // All accepted particles stay inside within 5 % of radius.
        for p in &result.particles {
            let excess = result
                .container
                .halfspaces()
                .sphere_max_excess(p.center, p.radius);
            assert!(
                excess <= 0.05 * p.radius + 1e-9,
                "particle at {} pokes out by {excess}",
                p.center
            );
        }
    }

    /// The particle list reserves the whole target up front, but a target
    /// no allocator grants must neither panic nor abort: the run grows the
    /// list as it goes and stops at the lid.
    #[test]
    fn huge_target_count_packs_to_the_lid() {
        let params = PackingParams {
            batch_size: 16,
            target_count: usize::MAX / 2,
            max_steps: 300,
            patience: 30,
            ..quick_params()
        };
        let mut packer = CollectivePacker::new(small_box_container(), params);
        let result = packer.pack(&Psd::constant(0.3));
        assert!(!result.particles.is_empty(), "no particles packed");
        assert!(!result.reached_target());
        assert!(
            result.particles.len() < 100,
            "{} spheres",
            result.particles.len()
        );
    }

    #[test]
    fn no_severe_overlaps_after_packing() {
        let mut packer = CollectivePacker::new(small_box_container(), quick_params());
        let result = packer.pack(&Psd::uniform(0.1, 0.16));
        let n = result.particles.len();
        assert!(n > 5, "packed only {n}");
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (&result.particles[i], &result.particles[j]);
                let d = a.center.distance(b.center);
                let pen = (a.radius + b.radius - d).max(0.0);
                let rel = pen / a.radius.min(b.radius);
                assert!(
                    rel <= 0.12,
                    "particles {i}/{j} overlap by {:.1}% of radius",
                    rel * 100.0
                );
            }
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let run = || {
            let mut packer = CollectivePacker::new(small_box_container(), quick_params());
            packer.pack(&Psd::uniform(0.1, 0.14))
        };
        let a = run();
        let b = run();
        assert_eq!(a.particles.len(), b.particles.len());
        for (pa, pb) in a.particles.iter().zip(&b.particles) {
            assert_eq!(pa.center, pb.center, "positions must be bitwise equal");
            assert_eq!(pa.radius, pb.radius);
        }
    }

    /// A tall, narrow box: the bed grows high enough along the gravity
    /// axis for tiled runs to actually retire settled slabs.
    fn tall_box_container() -> Container {
        Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::new(0.8, 0.8, 2.0))).unwrap()
    }

    fn tall_params(tiles: usize, kernel: adampack_opt::Kernel) -> PackingParams {
        PackingParams {
            batch_size: 24,
            target_count: 120,
            max_steps: 300,
            patience: 40,
            seed: 11,
            tiles,
            kernel,
            ..PackingParams::default()
        }
    }

    #[test]
    fn tiled_packing_is_bitwise_equal_to_untiled() {
        // The tentpole contract: gravity-axis tiling is a pure memory
        // optimization. Retiring settled slabs must leave every center,
        // radius, step count and fitness bitwise identical to the
        // monolithic run, for both the scalar oracle and the SIMD kernel.
        let psd = Psd::uniform(0.07, 0.1);
        for kernel in [adampack_opt::Kernel::Scalar, adampack_opt::Kernel::Simd] {
            let run = |tiles| {
                let mut packer =
                    CollectivePacker::new(tall_box_container(), tall_params(tiles, kernel));
                packer.try_pack(&psd).unwrap()
            };
            let untiled = run(1);
            assert!(
                untiled.particles.len() >= 48,
                "fixture too small to grow a multi-slab bed: {} particles",
                untiled.particles.len()
            );
            for tiles in [3, 5] {
                let tiled = run(tiles);
                assert_eq!(
                    untiled.particles.len(),
                    tiled.particles.len(),
                    "{kernel} kernel, {tiles} tiles: particle count"
                );
                for (a, b) in untiled.particles.iter().zip(&tiled.particles) {
                    assert_eq!(a.center.x.to_bits(), b.center.x.to_bits());
                    assert_eq!(a.center.y.to_bits(), b.center.y.to_bits());
                    assert_eq!(a.center.z.to_bits(), b.center.z.to_bits());
                    assert_eq!(a.radius.to_bits(), b.radius.to_bits());
                }
                assert_eq!(untiled.batches.len(), tiled.batches.len());
                for (a, b) in untiled.batches.iter().zip(&tiled.batches) {
                    assert_eq!(a.steps, b.steps, "{kernel}, {tiles} tiles: steps");
                    assert_eq!(a.accepted, b.accepted);
                    assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits());
                }
            }
        }
    }

    #[test]
    fn tiled_run_retires_settled_slabs_without_breaching() {
        // Drive the stepping API so the bed is inspectable mid-run: the
        // hot set must actually shrink below the full population once the
        // bed spans enough slabs, the retirement guard must never trip
        // (advance_batch would return HorizonBreach), and the hot-set
        // gauge must have recorded a resident-memory reading.
        let psd = Psd::uniform(0.07, 0.1);
        let mut packer = CollectivePacker::new(
            tall_box_container(),
            tall_params(5, adampack_opt::Kernel::Simd),
        );
        let mut prog = packer.begin_run(Vec::new(), false);
        let mut cadence = None;
        let mut retired_max = 0usize;
        while !prog.finished() {
            packer.advance_batch(&psd, &mut prog, &mut cadence).unwrap();
            retired_max = retired_max.max(prog.particles.len() - prog.bed.grid().len());
        }
        assert!(
            retired_max > 0,
            "a {}-particle bed under 5 tiles never retired a settled slab",
            prog.particles.len()
        );
        assert!(
            HOT_SET_BYTES.peak() > 0,
            "hot-set gauge never recorded a reading"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut params = quick_params();
            params.seed = seed;
            let mut packer = CollectivePacker::new(small_box_container(), params);
            packer.pack(&Psd::constant(0.15))
        };
        let a = run(1);
        let b = run(2);
        let same = a
            .particles
            .iter()
            .zip(&b.particles)
            .all(|(x, y)| x.center == y.center);
        assert!(!same, "different seeds should give different packings");
    }

    #[test]
    fn batch_halving_stops_on_full_container() {
        // Ask for far more particles than fit: the packer must terminate
        // (batch size collapses to zero) rather than loop forever.
        let params = PackingParams {
            batch_size: 16,
            target_count: 4000,
            max_steps: 150,
            patience: 30,
            seed: 3,
            ..PackingParams::default()
        };
        let mut packer = CollectivePacker::new(small_box_container(), params);
        let result = packer.pack(&Psd::constant(0.3));
        assert!(!result.reached_target());
        assert!(
            result.batches.iter().any(|b| !b.accepted),
            "some batch must fail"
        );
        // The container fits ~100 spheres of r=0.3 at most (φ ≤ 0.74).
        assert!(result.particles.len() < 80);
        assert!(result.particles.len() >= 8, "a few should fit");
    }

    #[test]
    fn fitness_trace_is_recorded_and_decreasing_overall() {
        let container = small_box_container();
        let params = quick_params();
        let mut packer = CollectivePacker::new(container, params);
        let radii = vec![0.12; 40];
        let bed = packer.empty_bed();
        let init = packer.spawn_batch(&radii, &bed);
        let sink = adampack_telemetry::VecSink::default();
        packer.set_trace_sink(Box::new(sink.clone()));
        let run = packer.optimize_batch_with(
            &radii,
            init,
            bed.grid(),
            400,
            50,
            &LrPolicy::paper_default(),
        );
        // The batch's records are drained when the call returns.
        let trace = sink.records();
        assert_eq!(run.steps, trace.len());
        assert!(trace.len() > 10);
        let first = trace.first().unwrap().loss;
        assert!(
            run.best_fitness < first,
            "optimization must improve the fitness"
        );
        // The recorded minimum matches the reported best.
        let min = trace.iter().map(|t| t.loss).fold(f64::INFINITY, f64::min);
        assert!((min - run.best_fitness).abs() < 1e-9);
    }

    #[test]
    fn gravity_along_custom_axis_settles_particles_low() {
        let mut params = quick_params();
        params.gravity = Axis::X;
        params.target_count = 20;
        params.batch_size = 20;
        let mut packer = CollectivePacker::new(small_box_container(), params);
        let result = packer.pack(&Psd::constant(0.15));
        assert!(!result.particles.is_empty());
        // Mean x should be in the lower half of the box.
        let mean_x: f64 = result.particles.iter().map(|p| p.center.x).sum::<f64>()
            / result.particles.len() as f64;
        assert!(
            mean_x < 0.0,
            "particles should settle towards -x, mean_x = {mean_x}"
        );
    }

    #[test]
    fn pack_onto_respects_existing_bed() {
        let mut packer = CollectivePacker::new(small_box_container(), quick_params());
        // A pre-existing floor of spheres.
        let existing: Vec<Particle> = (-2..=2)
            .flat_map(|i| {
                (-2..=2).map(move |j| {
                    Particle::new(Vec3::new(i as f64 * 0.4, j as f64 * 0.4, -0.8), 0.2)
                })
            })
            .collect();
        let n_existing = existing.len();
        let mut prog = packer.begin_run(existing, false);
        while !prog.finished() {
            packer
                .advance_batch(&Psd::constant(0.15), &mut prog, &mut None)
                .unwrap();
        }
        let result = packer.finish_run(prog);
        assert!(result.particles.len() > n_existing);
        // New particles must not deeply overlap the old bed.
        for p in result.particles.iter().skip(n_existing) {
            for q in result.particles.iter().take(n_existing) {
                let pen = (p.radius + q.radius - p.center.distance(q.center)).max(0.0);
                assert!(pen <= 0.1 * p.radius.min(q.radius) + 1e-9);
            }
        }
    }

    #[test]
    fn sgd_variant_also_packs() {
        let mut params = quick_params();
        params.optimizer = OptimizerKind::Momentum;
        params.lr = LrPolicy::Fixed(2e-3);
        params.target_count = 15;
        params.batch_size = 15;
        let mut packer = CollectivePacker::new(small_box_container(), params);
        let result = packer.pack(&Psd::constant(0.15));
        assert!(!result.particles.is_empty());
    }

    #[test]
    fn batch_callback_fires_per_batch_and_summary_reports() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = counter.clone();
        let mut packer = CollectivePacker::new(small_box_container(), quick_params());
        packer.set_batch_callback(move |stats| {
            assert!(stats.steps > 0);
            c2.fetch_add(1, Ordering::SeqCst);
        });
        let result = packer.pack(&Psd::constant(0.15));
        assert_eq!(counter.load(Ordering::SeqCst), result.batches.len());
        let s = result.summary();
        assert!(s.contains("particles"));
        assert!(s.contains("accepted"));
    }

    #[test]
    fn spawn_positions_start_above_bed() {
        let mut packer = CollectivePacker::new(small_box_container(), quick_params());
        let spheres: Vec<Particle> = vec![Particle::new(Vec3::new(0.0, 0.0, -0.5), 0.3)];
        let bed = FixedBed::from_particles(Axis::Z, &spheres);
        let radii = vec![0.1; 10];
        let buf = packer.spawn_batch(&radii, &bed);
        for i in 0..10 {
            let p = coords::get(&buf, i);
            assert!(p.z >= -0.2 + 0.1 - 1e-9, "spawned below bed top: {p}");
        }
    }
}
