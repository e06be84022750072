//! Batched multi-system engine: pack S independent systems in one pass.
//!
//! Parameter sweeps (seeds × PSDs × learning rates) run S systems whose
//! per-step work is identical in shape. This engine packs all of them in a
//! single process: every *pass* advances each unfinished system by one
//! batch attempt, with the systems spread across the thread pool and each
//! system's own kernels pinned to one thread. Acceptance is per system — a
//! slow system (more rejected batches, longer optimizations) never stalls
//! the others, it just keeps receiving passes after its neighbors finish.
//!
//! ## Bitwise equality
//!
//! Each system owns a full [`CollectivePacker`] — its RNG, optimizer,
//! scheduler, sentinel and workspace — and is advanced through exactly the
//! same [`CollectivePacker::advance_batch`] sequence a single run would
//! execute. Combined with the workspace determinism contract (every hot
//! kernel is bitwise identical for any thread count), a system inside a
//! batched run produces the same centers, fitness trace and acceptance
//! decisions as its own `S = 1` run, bit for bit.
//!
//! ## The system axis
//!
//! Engine-level state lives in a [`SystemArena`]: one `(S, stride)` SoA
//! block per coordinate component with the leading axis over systems.
//! Ragged per-system N is handled by the same inf-padding dead-lane trick
//! the SIMD kernels use — lanes past a system's particle count hold
//! `f64::INFINITY` so fused aggregate sweeps run branch-free over the whole
//! block and padding contributes nothing.
//!
//! ## Checkpointing
//!
//! With a [`BatchedCheckpointSink`] installed, the engine captures a
//! [`BatchedRunState`] — one nested per-system
//! [`RunState`](crate::checkpoint::RunState) at a batch boundary — every
//! `every_steps` accumulated optimizer steps, at pass boundaries. A resume
//! verifies the sweep fingerprint (per-system parameters, labels, thread
//! knob, system count) and continues bitwise identically.

use adampack_telemetry::metrics::{CHECKPOINT_FAILURES_TOTAL, CHECKPOINT_WRITES_TOTAL};
use adampack_telemetry::{span, timeline, DiagRecord, Phase, SystemCounters};
use rayon::{par, ThreadPoolBuilder};

use crate::checkpoint::{self, BatchedRunState, BatchedSystemState, CheckpointError};
use crate::collective::{CollectivePacker, PackError, PackResult, RunProgress};
use crate::container::Container;
use crate::diagnostics::DiagMode;
use crate::params::PackingParams;
use crate::particle::Particle;
use crate::psd::Psd;

/// Fixed block size for the arena's fused aggregate reduction — the partial
/// layout depends only on the block count, never the pool width.
const ARENA_REDUCE_BLOCK: usize = 1024;

/// One system of a batched run: a sweep label plus the hyper-parameters and
/// particle-size distribution it packs with.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    /// Sweep label, unique within the batch (e.g. `s7_lr0.01`).
    pub label: String,
    /// Full hyper-parameter set (seed, learning rate, kernel, …).
    pub params: PackingParams,
    /// Particle-size distribution for this system.
    pub psd: Psd,
}

/// Outcome of one system of a batched run.
#[derive(Debug)]
pub struct SystemReport {
    /// The system's sweep label.
    pub label: String,
    /// The packing result, or the per-system error (a diverged system does
    /// not abort its siblings).
    pub result: Result<PackResult, PackError>,
}

/// Aggregate statistics over one engine pass, derived from the
/// [`SystemArena`]'s fused sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassStats {
    /// Engine pass index (1-based; counts resumed passes too).
    pub pass: u64,
    /// Systems still running after this pass.
    pub active: usize,
    /// Particles packed so far, summed over all systems.
    pub packed: usize,
    /// Optimizer steps consumed by this pass, summed over all systems.
    pub steps: u64,
    /// Live (finite) arena lanes — equals `packed` and cross-checks the
    /// padding invariant.
    pub live_lanes: usize,
    /// Total packed sphere volume across the whole block.
    pub volume: f64,
    /// Largest packed radius across the whole block.
    pub max_radius: f64,
}

/// Observer invoked after every engine pass.
type PassCallback = Box<dyn FnMut(&PassStats) + Send>;

/// Destination for batched run-state checkpoints, the multi-system
/// counterpart of [`crate::collective::CheckpointSink`]. A returned `Err`
/// is counted and logged but does not abort the run.
pub trait BatchedCheckpointSink: Send {
    /// Persists one batched run state.
    fn save(&mut self, state: &BatchedRunState) -> Result<(), String>;
}

struct BatchedCadence {
    sink: Box<dyn BatchedCheckpointSink>,
    every_steps: usize,
    /// Optimizer steps accumulated across systems since the last
    /// successful save (a failed save leaves the cadence due, so the next
    /// pass boundary retries).
    acc_steps: u64,
}

/// One system's state machine inside the engine.
struct SystemSlot {
    label: String,
    psd: Psd,
    packer: CollectivePacker,
    progress: Option<RunProgress>,
    /// Terminal per-system error; the slot stops receiving passes but its
    /// siblings continue.
    error: Option<PackError>,
    /// Steps counter at the previous pass boundary (for per-pass deltas).
    steps_before: u64,
    /// Interned timeline system-label id (events recorded while this slot
    /// is being advanced carry it).
    timeline_id: u32,
}

/// This system's counters, computed from its own run progress — never by
/// slicing the global registry — so per-system series cannot bleed into
/// each other no matter how passes interleave.
fn slot_counters(prog: &RunProgress, recoveries: u64) -> SystemCounters {
    let mut c = SystemCounters {
        steps: prog.steps_taken(),
        batches: prog.batches().len() as u64,
        particles_packed: prog.packed() as u64,
        recoveries,
        ..SystemCounters::default()
    };
    let ns = |d: std::time::Duration| d.as_nanos().min(u64::MAX as u128) as u64;
    for b in prog.batches() {
        if b.accepted {
            c.batches_accepted += 1;
        }
        c.spawn_ns += ns(b.phase.spawn);
        c.gradient_ns += ns(b.phase.gradient);
        c.optimizer_ns += ns(b.phase.optimizer);
        c.acceptance_ns += ns(b.phase.acceptance);
    }
    c
}

// ---------------------------------------------------------------------------
// SystemArena
// ---------------------------------------------------------------------------

/// Leading-system-axis SoA block: lane `s * stride + i` holds system `s`'s
/// particle `i`; dead lanes (ragged padding) hold `f64::INFINITY`.
pub struct SystemArena {
    stride: usize,
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    rs: Vec<f64>,
    counts: Vec<usize>,
}

/// Result of the arena's fused `(S, N)` aggregate sweep.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ArenaAggregate {
    /// Live (finite-radius) lanes.
    pub particles: usize,
    /// Total sphere volume over live lanes.
    pub volume: f64,
    /// Largest radius over live lanes.
    pub max_radius: f64,
}

impl SystemArena {
    fn new(systems: usize, stride: usize) -> SystemArena {
        let n = systems * stride;
        SystemArena {
            stride,
            xs: vec![f64::INFINITY; n],
            ys: vec![f64::INFINITY; n],
            zs: vec![f64::INFINITY; n],
            rs: vec![f64::INFINITY; n],
            counts: vec![0; systems],
        }
    }

    /// Number of systems (the leading axis).
    pub fn systems(&self) -> usize {
        self.counts.len()
    }

    /// Lanes per system.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// One system's SoA row: `(xs, ys, zs, rs, live_count)`. Lanes at and
    /// past `live_count` are inf-padded.
    pub fn system(&self, s: usize) -> (&[f64], &[f64], &[f64], &[f64], usize) {
        let (lo, hi) = (s * self.stride, (s + 1) * self.stride);
        (
            &self.xs[lo..hi],
            &self.ys[lo..hi],
            &self.zs[lo..hi],
            &self.rs[lo..hi],
            self.counts[s],
        )
    }

    /// Rewrites every system row from its particle list — one deterministic
    /// chunked pass per component, one writer per lane.
    fn refresh(&mut self, rows: &[&[Particle]]) {
        assert_eq!(rows.len(), self.counts.len(), "arena system count mismatch");
        for (s, row) in rows.iter().enumerate() {
            self.counts[s] = row.len().min(self.stride);
        }
        let stride = self.stride;
        let fill = |lane: &mut [f64], row: &[Particle], get: &dyn Fn(&Particle) -> f64| {
            let m = row.len().min(lane.len());
            for (j, slot) in lane.iter_mut().enumerate() {
                *slot = if j < m { get(&row[j]) } else { f64::INFINITY };
            }
        };
        let mut rows_x: Vec<&[Particle]> = rows.to_vec();
        par::for_each_chunk_zip(&mut self.xs, stride, &mut rows_x, |_, lane, row| {
            fill(lane, row, &|p| p.center.x)
        });
        let mut rows_y: Vec<&[Particle]> = rows.to_vec();
        par::for_each_chunk_zip(&mut self.ys, stride, &mut rows_y, |_, lane, row| {
            fill(lane, row, &|p| p.center.y)
        });
        let mut rows_z: Vec<&[Particle]> = rows.to_vec();
        par::for_each_chunk_zip(&mut self.zs, stride, &mut rows_z, |_, lane, row| {
            fill(lane, row, &|p| p.center.z)
        });
        let mut rows_r: Vec<&[Particle]> = rows.to_vec();
        par::for_each_chunk_zip(&mut self.rs, stride, &mut rows_r, |_, lane, row| {
            fill(lane, row, &|p| p.radius)
        });
    }

    /// Fused aggregate sweep over the whole `(S, N)` block: dead lanes are
    /// skipped by their infinite radius, so the loop needs no per-system
    /// bounds. Fixed-shape reduction — bitwise identical for any thread
    /// count.
    pub fn aggregate(&self) -> ArenaAggregate {
        let rs = &self.rs;
        let (particles, volume, max_radius) = par::map_reduce(
            rs.len(),
            ARENA_REDUCE_BLOCK,
            (0usize, 0.0f64, 0.0f64),
            |s, e| {
                let mut c = 0usize;
                let mut v = 0.0f64;
                let mut m = 0.0f64;
                for &r in &rs[s..e] {
                    if r.is_finite() {
                        c += 1;
                        v += 4.0 / 3.0 * std::f64::consts::PI * r * r * r;
                        m = m.max(r);
                    }
                }
                (c, v, m)
            },
            |a, b| (a.0 + b.0, a.1 + b.1, a.2.max(b.2)),
        );
        ArenaAggregate {
            particles,
            volume,
            max_radius,
        }
    }
}

// ---------------------------------------------------------------------------
// BatchedPacker
// ---------------------------------------------------------------------------

/// The multi-system driver: S per-system [`CollectivePacker`] state
/// machines advanced in lockstep passes over the thread pool, sharing one
/// [`SystemArena`].
pub struct BatchedPacker {
    slots: Vec<SystemSlot>,
    arena: SystemArena,
    /// Resolved thread-count knob, folded into the sweep fingerprint.
    threads: usize,
    pass: u64,
    checkpoint: Option<BatchedCadence>,
    pass_callback: Option<PassCallback>,
}

impl BatchedPacker {
    /// Creates a batched packer over `specs`, all packing into clones of
    /// `container`. Labels must be unique; `specs` must be non-empty.
    pub fn new(container: &Container, specs: Vec<SystemSpec>) -> BatchedPacker {
        assert!(!specs.is_empty(), "batched run needs at least one system");
        for (i, a) in specs.iter().enumerate() {
            for b in &specs[..i] {
                assert_ne!(a.label, b.label, "duplicate system label {:?}", a.label);
            }
        }
        let stride = specs
            .iter()
            .map(|s| s.params.target_count)
            .max()
            .unwrap_or(0)
            .max(1);
        let arena = SystemArena::new(specs.len(), stride);
        let slots = specs
            .into_iter()
            .map(|spec| SystemSlot {
                packer: CollectivePacker::new(container.clone(), spec.params),
                timeline_id: timeline::intern_system(&spec.label),
                label: spec.label,
                psd: spec.psd,
                progress: None,
                error: None,
                steps_before: 0,
            })
            .collect();
        BatchedPacker {
            slots,
            arena,
            threads: 0,
            pass: 0,
            checkpoint: None,
            pass_callback: None,
        }
    }

    /// Number of systems.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the packer holds no systems (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Engine passes completed so far.
    pub fn pass(&self) -> u64 {
        self.pass
    }

    /// The shared system arena (refreshed after every pass).
    pub fn arena(&self) -> &SystemArena {
        &self.arena
    }

    /// Records the resolved thread-count knob. Folded into the sweep
    /// fingerprint so a resume under a different `threads` setting is
    /// rejected instead of silently diverging.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Folds extra configuration context into every system's checkpoint
    /// fingerprint (see [`CollectivePacker::set_fingerprint_context`]).
    pub fn set_fingerprint_context(&mut self, salt: u64) {
        for slot in &mut self.slots {
            slot.packer.set_fingerprint_context(salt);
        }
    }

    /// Installs a per-pass progress hook.
    pub fn set_pass_callback(&mut self, f: impl FnMut(&PassStats) + Send + 'static) {
        self.pass_callback = Some(Box::new(f));
    }

    /// Enables convergence diagnostics on every system, labeled with that
    /// system's sweep label.
    pub fn set_diagnostics(&mut self, mode: DiagMode) {
        for slot in &mut self.slots {
            slot.packer.set_diagnostics(mode);
            slot.packer.set_diagnostics_label(&slot.label);
        }
    }

    /// Per-system checkpoint fingerprints, label-paired — what a provenance
    /// manifest records so it can be matched against this run's checkpoints.
    pub fn fingerprints(&self) -> Vec<(String, u64)> {
        self.slots
            .iter()
            .map(|slot| (slot.label.clone(), slot.packer.fingerprint()))
            .collect()
    }

    /// Drains each system's accumulated diagnostic records, paired with the
    /// system label.
    pub fn take_diagnostics(&mut self) -> Vec<(String, Vec<DiagRecord>)> {
        self.slots
            .iter_mut()
            .map(|slot| (slot.label.clone(), slot.packer.take_diagnostics()))
            .collect()
    }

    /// Installs a batched checkpoint sink: a [`BatchedRunState`] is captured
    /// at the first pass boundary where at least `every_steps` optimizer
    /// steps (summed over systems) have accumulated since the last capture.
    /// Install before [`BatchedPacker::run`] — checkpointing opts every
    /// system into the grid-canonicalization contract from its first batch.
    pub fn set_checkpoint_sink(
        &mut self,
        sink: Box<dyn BatchedCheckpointSink>,
        every_steps: usize,
    ) {
        self.checkpoint = Some(BatchedCadence {
            sink,
            every_steps,
            acc_steps: 0,
        });
    }

    /// Uninstalls the batched checkpoint sink and returns it.
    pub fn take_checkpoint_sink(&mut self) -> Option<Box<dyn BatchedCheckpointSink>> {
        self.checkpoint.take().map(|c| c.sink)
    }

    /// FNV-1a fingerprint of the whole sweep: every system's parameter
    /// fingerprint and label, the thread knob and the system count. Stored
    /// in batched checkpoints and verified on [`BatchedPacker::resume`].
    pub fn sweep_fingerprint(&self) -> u64 {
        use std::fmt::Write as _;
        let mut s = format!("threads={}|systems={}", self.threads, self.slots.len());
        for slot in &self.slots {
            let _ = write!(s, "|{}:{:016x}", slot.label, slot.packer.fingerprint());
        }
        checkpoint::fnv1a(s.as_bytes())
    }

    /// Captures the whole batched run at the current pass boundary.
    /// Meaningful once the run has started (every system has progress) and
    /// a checkpoint sink opted the systems into canonical grids.
    pub fn capture_state(&self) -> BatchedRunState {
        BatchedRunState {
            sweep_fingerprint: self.sweep_fingerprint(),
            threads: self.threads as u64,
            pass: self.pass,
            systems: self
                .slots
                .iter()
                .map(|slot| {
                    let prog = slot
                        .progress
                        .as_ref()
                        .expect("capture_state before the batched run started");
                    BatchedSystemState {
                        label: slot.label.clone(),
                        diverged: slot.error.as_ref().map(|e| match e {
                            PackError::Diverged {
                                batch,
                                step,
                                recoveries,
                            } => [*batch as u64, *step as u64, *recoveries as u64],
                            PackError::Resume(_) | PackError::HorizonBreach { .. } => [u64::MAX; 3],
                        }),
                        state: slot.packer.capture_state(prog),
                    }
                })
                .collect(),
        }
    }

    /// Restores a batched run from a decoded checkpoint. The sweep
    /// fingerprint (parameters, labels, thread knob, system count) must
    /// match this packer's configuration; call [`BatchedPacker::run`]
    /// afterwards to continue bitwise identically.
    pub fn resume(&mut self, state: BatchedRunState) -> Result<(), PackError> {
        let fp = self.sweep_fingerprint();
        if state.sweep_fingerprint != fp {
            return Err(CheckpointError::StateMismatch(format!(
                "sweep fingerprint {fp:#018x} does not match checkpoint {:#018x} \
                 (different batch grid, threads or hyper-parameters)",
                state.sweep_fingerprint
            ))
            .into());
        }
        if state.systems.len() != self.slots.len() {
            return Err(CheckpointError::StateMismatch(format!(
                "checkpoint has {} systems but this sweep expands to {}",
                state.systems.len(),
                self.slots.len()
            ))
            .into());
        }
        for (slot, sys) in self.slots.iter_mut().zip(state.systems) {
            if sys.label != slot.label {
                return Err(CheckpointError::StateMismatch(format!(
                    "system label {:?} in checkpoint but {:?} in sweep",
                    sys.label, slot.label
                ))
                .into());
            }
            // Checkpoints are only written under the canonical-grid
            // contract, so resumed systems re-enter it unconditionally.
            let prog = slot.packer.begin_resumed(sys.state, true)?;
            slot.steps_before = prog.steps_taken();
            slot.progress = Some(prog);
            slot.error = sys.diverged.map(|d| PackError::Diverged {
                batch: d[0] as usize,
                step: d[1] as usize,
                recoveries: d[2] as usize,
            });
        }
        self.pass = state.pass;
        Ok(())
    }

    /// Runs every system to completion and returns one report per system,
    /// in spec order. Fresh systems are started, resumed systems continue;
    /// a diverged system is reported as `Err` without stalling the rest.
    pub fn run(&mut self) -> Vec<SystemReport> {
        let checkpointing = self.checkpoint.is_some();
        for slot in &mut self.slots {
            if slot.progress.is_none() && slot.error.is_none() {
                slot.progress = Some(slot.packer.begin_run(Vec::new(), checkpointing));
            }
        }
        // Cross-system parallelism only: the per-system work below runs
        // under a one-thread install, so each system's own kernels take the
        // sequential path. That sidesteps re-entering the pool's single job
        // board from the posting thread, and changes nothing numerically —
        // every kernel is bitwise identical for any thread count.
        let sequential = ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("one-thread pool handle");
        loop {
            let pass_span = span(Phase::Pass);
            let mut active: Vec<&mut SystemSlot> = self
                .slots
                .iter_mut()
                .filter(|s| s.error.is_none() && s.progress.as_ref().is_some_and(|p| !p.finished()))
                .collect();
            if active.is_empty() {
                break;
            }
            self.pass += 1;
            par::for_each_slot(&mut active, |_, slot| {
                let _scope = timeline::SystemScope::enter(slot.timeline_id);
                let _system_pass = span(Phase::SystemPass);
                sequential.install(|| {
                    let prog = slot.progress.as_mut().expect("active system has progress");
                    if let Err(e) = slot.packer.advance_batch(&slot.psd, prog, &mut None) {
                        slot.error = Some(e);
                    }
                });
            });
            drop(active);

            // Sequential engine section: per-pass accounting, arena refresh,
            // fused aggregate, cadence.
            let mut pass_steps = 0u64;
            let mut packed = 0usize;
            let mut still_active = 0usize;
            for slot in &mut self.slots {
                if let Some(p) = slot.progress.as_ref() {
                    let now = p.steps_taken();
                    pass_steps += now - slot.steps_before;
                    slot.steps_before = now;
                    packed += p.packed();
                    if slot.error.is_none() && !p.finished() {
                        still_active += 1;
                    }
                    adampack_telemetry::metrics::record_system(
                        &slot.label,
                        slot_counters(p, slot.packer.recoveries()),
                    );
                }
            }
            let rows: Vec<&[Particle]> = self
                .slots
                .iter()
                .map(|s| s.progress.as_ref().map_or(&[][..], |p| p.particles()))
                .collect();
            self.arena.refresh(&rows);
            drop(rows);
            let agg = self.arena.aggregate();
            if let Some(cb) = self.pass_callback.as_mut() {
                cb(&PassStats {
                    pass: self.pass,
                    active: still_active,
                    packed,
                    steps: pass_steps,
                    live_lanes: agg.particles,
                    volume: agg.volume,
                    max_radius: agg.max_radius,
                });
            }
            let due = match self.checkpoint.as_mut() {
                Some(c) => {
                    c.acc_steps += pass_steps;
                    c.every_steps > 0 && c.acc_steps >= c.every_steps as u64
                }
                None => false,
            };
            if due {
                let state = self.capture_state();
                if let Some(c) = self.checkpoint.as_mut() {
                    match c.sink.save(&state) {
                        Ok(()) => {
                            CHECKPOINT_WRITES_TOTAL.inc();
                            c.acc_steps = 0;
                        }
                        Err(e) => {
                            CHECKPOINT_FAILURES_TOTAL.inc();
                            adampack_telemetry::warn!(
                                "batched checkpoint write failed (run continues): {e}"
                            );
                        }
                    }
                }
            }
            let took = pass_span.finish();
            adampack_telemetry::debug!(
                "pass {}: {} active systems, {} packed, {} steps, {took:.2?}",
                self.pass,
                still_active,
                packed,
                pass_steps,
            );
        }

        self.slots
            .iter_mut()
            .map(|slot| SystemReport {
                label: slot.label.clone(),
                result: match (slot.error.take(), slot.progress.take()) {
                    (Some(e), _) => Err(e),
                    (None, Some(prog)) => Ok(slot.packer.finish_run(prog)),
                    (None, None) => Err(PackError::Resume(CheckpointError::StateMismatch(
                        "system was never started (run() called twice?)".to_string(),
                    ))),
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adampack_geometry::{shapes, Vec3};

    fn box_container() -> Container {
        Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0))).unwrap()
    }

    fn quick_params(seed: u64, target: usize) -> PackingParams {
        PackingParams {
            batch_size: target,
            target_count: target,
            max_steps: 200,
            patience: 40,
            seed,
            ..PackingParams::default()
        }
    }

    fn specs_s3() -> Vec<SystemSpec> {
        labeled_specs_s3(["a", "b", "c"])
    }

    /// The three-system sweep under caller-chosen labels: the per-system
    /// metric registry is process-global, so a test that reads it gives
    /// its systems labels no concurrently running test writes.
    fn labeled_specs_s3(labels: [&str; 3]) -> Vec<SystemSpec> {
        vec![
            SystemSpec {
                label: labels[0].into(),
                params: quick_params(11, 14),
                psd: Psd::constant(0.15),
            },
            SystemSpec {
                label: labels[1].into(),
                params: quick_params(22, 9),
                psd: Psd::uniform(0.11, 0.16),
            },
            SystemSpec {
                label: labels[2].into(),
                params: quick_params(33, 17),
                psd: Psd::constant(0.13),
            },
        ]
    }

    #[test]
    fn batched_systems_match_their_single_runs_bitwise() {
        let container = box_container();
        let mut batched = BatchedPacker::new(&container, specs_s3());
        let reports = batched.run();
        assert_eq!(reports.len(), 3);
        for (spec, report) in specs_s3().into_iter().zip(&reports) {
            let mut single = CollectivePacker::new(container.clone(), spec.params);
            let want = single.try_pack(&spec.psd).unwrap();
            let got = report.result.as_ref().unwrap();
            assert_eq!(got.particles.len(), want.particles.len(), "{}", spec.label);
            for (g, w) in got.particles.iter().zip(&want.particles) {
                assert_eq!(g.center, w.center, "{}: centers differ", spec.label);
                assert_eq!(g.radius.to_bits(), w.radius.to_bits());
            }
            assert_eq!(got.batches.len(), want.batches.len());
            for (g, w) in got.batches.iter().zip(&want.batches) {
                assert_eq!(g.best_fitness.to_bits(), w.best_fitness.to_bits());
                assert_eq!(g.accepted, w.accepted);
                assert_eq!(g.steps, w.steps);
            }
        }
    }

    #[test]
    fn arena_rows_are_inf_padded_and_aggregate_skips_padding() {
        let container = box_container();
        let mut batched = BatchedPacker::new(&container, specs_s3());
        let reports = batched.run();
        let arena = batched.arena();
        assert_eq!(arena.systems(), 3);
        assert_eq!(arena.stride(), 17);
        let mut total = 0usize;
        for (s, report) in reports.iter().enumerate() {
            let packed = report.result.as_ref().unwrap().particles.len();
            let (xs, _, _, rs, live) = arena.system(s);
            assert_eq!(live, packed);
            total += live;
            for i in 0..live {
                assert!(xs[i].is_finite() && rs[i].is_finite());
            }
            for i in live..arena.stride() {
                assert!(
                    xs[i].is_infinite() && rs[i].is_infinite(),
                    "lane {i} not dead"
                );
            }
        }
        let agg = arena.aggregate();
        assert_eq!(agg.particles, total);
        assert!(agg.volume > 0.0 && agg.max_radius > 0.0);
    }

    #[test]
    fn per_system_metric_labels_never_leak_across_systems() {
        adampack_telemetry::metrics::clear_system_metrics();
        let container = box_container();
        let specs = labeled_specs_s3(["leak_a", "leak_b", "leak_c"]);
        let mut batched = BatchedPacker::new(&container, specs);
        batched.set_diagnostics(DiagMode::Summary);
        let reports = batched.run();
        // Each label's counters are computed from that system's own run
        // progress — they must match its report exactly, not a slice of
        // some shared pool.
        for report in &reports {
            let result = report.result.as_ref().unwrap();
            let counters = adampack_telemetry::metrics::system_counters(&report.label)
                .unwrap_or_else(|| panic!("no labeled counters for {}", report.label));
            assert_eq!(counters.particles_packed, result.particles.len() as u64);
            assert_eq!(counters.batches, result.batches.len() as u64);
            assert_eq!(
                counters.batches_accepted,
                result.batches.iter().filter(|b| b.accepted).count() as u64
            );
            let steps: u64 = result.batches.iter().map(|b| b.steps as u64).sum();
            assert_eq!(counters.steps, steps);
        }
        // Distinct systems (different seeds, PSDs, targets) must produce
        // distinct series.
        let a = adampack_telemetry::metrics::system_counters("leak_a").unwrap();
        let b = adampack_telemetry::metrics::system_counters("leak_b").unwrap();
        assert_ne!(a.particles_packed, b.particles_packed);
        // Diagnostics accumulated per system under its own label.
        for (label, records) in batched.take_diagnostics() {
            assert!(!records.is_empty(), "no diagnostics for {label}");
            assert!(records.iter().all(|r| r.system == label));
        }
        adampack_telemetry::metrics::clear_system_metrics();
    }

    #[test]
    fn sweep_fingerprint_covers_threads_and_grid() {
        let container = box_container();
        let a = BatchedPacker::new(&container, specs_s3());
        let mut b = BatchedPacker::new(&container, specs_s3());
        assert_eq!(a.sweep_fingerprint(), b.sweep_fingerprint());
        b.set_threads(4);
        assert_ne!(a.sweep_fingerprint(), b.sweep_fingerprint());
        let fewer = BatchedPacker::new(&container, specs_s3()[..2].to_vec());
        assert_ne!(a.sweep_fingerprint(), fewer.sweep_fingerprint());
    }

    #[derive(Clone, Default)]
    struct MemSink(std::sync::Arc<std::sync::Mutex<Vec<Vec<u8>>>>);
    impl BatchedCheckpointSink for MemSink {
        fn save(&mut self, state: &BatchedRunState) -> Result<(), String> {
            self.0
                .lock()
                .unwrap()
                .push(checkpoint::encode_batched(state));
            Ok(())
        }
    }

    #[test]
    fn checkpointed_batched_run_resumes_bitwise() {
        let container = box_container();
        let sink = MemSink::default();
        let mut straight = BatchedPacker::new(&container, specs_s3());
        straight.set_checkpoint_sink(Box::new(sink.clone()), 100);
        let want = straight.run();
        let blobs = sink.0.lock().unwrap().clone();
        assert!(!blobs.is_empty(), "cadence never fired");

        // Resume from the first checkpoint and compare the final packings.
        let state = checkpoint::decode_batched(&blobs[0]).unwrap();
        let mut resumed = BatchedPacker::new(&container, specs_s3());
        resumed.set_checkpoint_sink(Box::new(MemSink::default()), 100);
        resumed.resume(state).unwrap();
        let got = resumed.run();
        for (w, g) in want.iter().zip(&got) {
            let (w, g) = (w.result.as_ref().unwrap(), g.result.as_ref().unwrap());
            assert_eq!(w.particles.len(), g.particles.len());
            for (a, b) in w.particles.iter().zip(&g.particles) {
                assert_eq!(a.center, b.center);
                assert_eq!(a.radius.to_bits(), b.radius.to_bits());
            }
        }
    }

    #[test]
    fn resume_under_different_sweep_is_rejected() {
        let container = box_container();
        let sink = MemSink::default();
        let mut a = BatchedPacker::new(&container, specs_s3());
        a.set_checkpoint_sink(Box::new(sink.clone()), 50);
        let _ = a.run();
        let blobs = sink.0.lock().unwrap().clone();
        let state = checkpoint::decode_batched(&blobs[0]).unwrap();

        let mut other = BatchedPacker::new(&container, specs_s3());
        other.set_threads(8);
        let err = other.resume(state).unwrap_err();
        assert!(matches!(
            err,
            PackError::Resume(CheckpointError::StateMismatch(_))
        ));
    }
}
