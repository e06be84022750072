//! The run driver: every packing steps through [`BatchedPacker`].
//!
//! Algorithm 1 is one loop — spawn a batch above the bed, optimize it,
//! accept it or halve the batch — and the driver runs it for S ≥ 1
//! systems one *pass* at a time: every pass advances each unfinished
//! system by one batch attempt. It has three shapes:
//!
//! * **plain** ([`BatchedPacker::plain`]): S = 1, one unlabeled run;
//! * **sweep** ([`BatchedPacker::new`]): the S labeled systems of a
//!   parameter grid (seeds × PSDs × learning rates). With S > 1 the
//!   systems are spread across the thread pool, each system's own kernels
//!   pinned to one thread. Acceptance is per system — a slow system never
//!   stalls the others, it just keeps receiving passes after its
//!   neighbors finish;
//! * **zoned** ([`BatchedPacker::zoned`]): S = 1, whose run walks the
//!   zones bottom-up as stages, each packing on top of the ones below.
//!
//! ## Bitwise equality
//!
//! Each system owns a full [`CollectivePacker`] — its RNG, optimizer,
//! scheduler, sentinel and workspace — and is advanced through exactly the
//! same [`CollectivePacker::advance_batch`] sequence whatever the shape.
//! Combined with the workspace determinism contract (every hot kernel is
//! bitwise identical for any thread count), a system inside a sweep
//! produces the same centers, fitness trace and acceptance decisions as
//! its own plain run, bit for bit.
//!
//! ## Checkpointing
//!
//! One [`CheckpointCadence`] decides for every shape, and one
//! [`CheckpointSink`] persists the encoded bytes. A plain run writes the
//! single-run stream ([`RunState`]): its cadence is handed to
//! [`CollectivePacker::advance_batch`], the single-run save site. A sweep
//! writes the batched stream ([`BatchedRunState`]) at the end of a pass;
//! its resume verifies the sweep fingerprint (per-system parameters,
//! labels, thread knob, system count). Either resumes bitwise identically.
//! Zoned runs take no checkpoints.

use std::time::Instant;

use adampack_telemetry::{span, timeline, DiagRecord, Phase, SystemCounters};
use rayon::{par, ThreadPoolBuilder};

use crate::checkpoint::{self, BatchedRunState, BatchedSystemState, CheckpointError, RunState};
use crate::collective::{
    BatchStats, CheckpointCadence, CheckpointSink, CollectivePacker, PackError, PackResult,
    RunProgress,
};
use crate::container::Container;
use crate::diagnostics::DiagMode;
use crate::params::PackingParams;
use crate::psd::Psd;
use crate::zone::{self, EmptyZone, ZoneSpec, ZoneStage};
use crate::PACKING_REVISION;

/// One system of a sweep: a label plus the hyper-parameters and
/// particle-size distribution it packs with.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    /// Sweep label, unique within the sweep (e.g. `s7_lr0.01`); empty for
    /// a plain run.
    pub label: String,
    /// Full hyper-parameter set (seed, learning rate, kernel, …).
    pub params: PackingParams,
    /// Particle-size distribution for this system.
    pub psd: Psd,
}

/// Outcome of one system of a run.
#[derive(Debug)]
pub struct SystemReport {
    /// The system's sweep label (empty for plain and zoned runs).
    pub label: String,
    /// The packing result, or the per-system error (a diverged system does
    /// not abort its siblings).
    pub result: Result<PackResult, PackError>,
}

/// Statistics over one driver pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassStats {
    /// Pass index (1-based; counts a sweep's resumed passes too).
    pub pass: u64,
    /// Systems still running after this pass.
    pub active: usize,
    /// Particles packed so far, summed over all systems.
    pub packed: usize,
    /// Optimizer steps consumed by this pass, summed over all systems.
    pub steps: u64,
}

/// Observer invoked after every pass.
type PassCallback = Box<dyn FnMut(&PassStats) + Send>;

/// A driver's boundary capture, in its run's checkpoint format.
#[derive(Debug, Clone, PartialEq)]
pub enum DriverState {
    /// A plain run's state: the single-run stream.
    Plain(RunState),
    /// A sweep's state: the batched stream.
    Sweep(BatchedRunState),
}

impl DriverState {
    /// Encodes the state in its format's byte stream.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            DriverState::Plain(state) => checkpoint::encode(state),
            DriverState::Sweep(state) => checkpoint::encode_batched(state),
        }
    }

    /// Decodes the stream a sweep (`sweep`) or a plain run writes.
    pub fn decode(bytes: &[u8], sweep: bool) -> Result<DriverState, CheckpointError> {
        if sweep {
            checkpoint::decode_batched(bytes).map(DriverState::Sweep)
        } else {
            checkpoint::decode(bytes).map(DriverState::Plain)
        }
    }
}

/// A zoned run's stages still to pack, and what its finished stages
/// contribute to the merged result.
struct ZoneRun {
    /// Stages still to pack, the next one last.
    rest: Vec<ZoneStage>,
    /// Batches of the finished stages, with zone-local indices.
    batches: Vec<BatchStats>,
    /// Sentinel recoveries of the finished stages.
    recoveries: u64,
    /// When the zones' stages began to be built: the run's wall time
    /// includes carving the zone regions out of the container.
    start: Instant,
    /// Σ n over all zones.
    target: usize,
    /// The whole container, which the merged result reports.
    container: Container,
}

impl ZoneRun {
    /// The zoned run's result: `last`, the final stage's result (whose
    /// particles already include every lower zone's), merged with the
    /// finished stages'.
    fn merge(&mut self, last: PackResult) -> PackResult {
        let mut batches = std::mem::take(&mut self.batches);
        batches.extend(last.batches);
        PackResult {
            particles: last.particles,
            batches,
            container: self.container.clone(),
            duration: self.start.elapsed(),
            target: self.target,
            recoveries: self.recoveries + last.recoveries,
        }
    }
}

/// One system's state machine inside the driver.
struct SystemSlot {
    label: String,
    psd: Psd,
    packer: CollectivePacker,
    /// `None` until the run starts or resumes.
    progress: Option<RunProgress>,
    /// Terminal per-system error; the slot stops receiving passes but its
    /// siblings continue.
    error: Option<PackError>,
    /// Steps counter at the previous pass boundary (for per-pass deltas).
    steps_before: u64,
    /// Interned timeline system-label id (0, no label, outside sweeps):
    /// events recorded while this slot is being advanced carry it.
    timeline_id: u32,
    /// The remaining zone stages of a zoned run.
    zones: Option<ZoneRun>,
}

impl SystemSlot {
    fn new(label: String, packer: CollectivePacker, psd: Psd, timeline_id: u32) -> SystemSlot {
        SystemSlot {
            label,
            psd,
            packer,
            progress: None,
            error: None,
            steps_before: 0,
            timeline_id,
            zones: None,
        }
    }

    /// Finished (every zone stage packed) or failed.
    fn done(&self) -> bool {
        self.error.is_some()
            || self.progress.as_ref().is_some_and(|p| {
                p.finished() && self.zones.as_ref().is_none_or(|z| z.rest.is_empty())
            })
    }

    /// One batch attempt, after moving a zoned run on to its next zone
    /// once the current one is packed: the finished stage's batches and
    /// recoveries join the merged result and its particles become the next
    /// stage's fixed bed.
    fn advance(&mut self, cadence: &mut Option<CheckpointCadence>) {
        let _scope = timeline::SystemScope::enter(self.timeline_id);
        let _system_pass = span(Phase::SystemPass);
        if let Some(zones) = self.zones.as_mut() {
            while self.progress.as_ref().is_some_and(RunProgress::finished) {
                let Some(stage) = zones.rest.pop() else { break };
                let prog = self.progress.take().expect("checked above");
                let done = self.packer.finish_run(prog);
                zones.batches.extend(done.batches);
                zones.recoveries += done.recoveries;
                self.packer = CollectivePacker::new(stage.container, stage.params);
                self.psd = stage.psd;
                self.progress = Some(self.packer.begin_run(done.particles, false));
                self.steps_before = 0;
            }
        }
        let prog = self
            .progress
            .as_mut()
            .expect("an active system has progress");
        if let Err(e) = self.packer.advance_batch(&self.psd, prog, cadence) {
            self.error = Some(e);
        }
    }
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

/// The run driver: S per-system [`CollectivePacker`] state machines
/// advanced in lockstep passes — a plain run, a sweep or a zoned run.
pub struct BatchedPacker {
    slots: Vec<SystemSlot>,
    /// A sweep: labeled systems, the batched checkpoint stream, per-system
    /// metrics and timeline labels.
    sweep: bool,
    /// Resolved thread-count knob, folded into the sweep fingerprint.
    threads: usize,
    pass: u64,
    checkpoint: Option<CheckpointCadence>,
    pass_callback: Option<PassCallback>,
}

impl BatchedPacker {
    /// A sweep over `specs`, all packing into clones of `container`.
    /// Labels must be unique; `specs` must be non-empty.
    pub fn new(container: &Container, specs: Vec<SystemSpec>) -> BatchedPacker {
        assert!(!specs.is_empty(), "batched run needs at least one system");
        for (i, a) in specs.iter().enumerate() {
            for b in &specs[..i] {
                assert_ne!(a.label, b.label, "duplicate system label {:?}", a.label);
            }
        }
        let slots = specs
            .into_iter()
            .map(|spec| {
                let id = timeline::intern_system(&spec.label);
                let packer = CollectivePacker::new(container.clone(), spec.params);
                SystemSlot::new(spec.label, packer, spec.psd, id)
            })
            .collect();
        BatchedPacker::with_slots(slots, true)
    }

    /// A plain run: `packer` (with whatever trace sink, batch callback or
    /// diagnostics its caller installed) packing `psd`.
    pub fn plain(packer: CollectivePacker, psd: Psd) -> BatchedPacker {
        BatchedPacker::with_slots(vec![SystemSlot::new(String::new(), packer, psd, 0)], false)
    }

    /// A zoned run: the `zones` of `container` packed bottom-up as stages
    /// of one run, with `params` as every stage's base parameters and
    /// `sets` the particle sets the zones' proportions weight (see the
    /// [`zone`](crate::zone) module). A zone whose region misses the
    /// container is an error, before any packing starts. Zoned runs have no
    /// checkpoints, step trace or diagnostics.
    pub fn zoned(
        container: &Container,
        params: PackingParams,
        sets: &[Psd],
        zones: &[ZoneSpec],
    ) -> Result<BatchedPacker, EmptyZone> {
        let start = Instant::now();
        let mut rest = zone::stages(container, &params, sets, zones)?;
        rest.reverse();
        let first = rest.pop().expect("stages has one stage per zone");
        let mut slot = SystemSlot::new(
            String::new(),
            CollectivePacker::new(first.container, first.params),
            first.psd,
            0,
        );
        slot.zones = Some(ZoneRun {
            rest,
            batches: Vec::new(),
            recoveries: 0,
            start,
            target: zones.iter().map(|z| z.n_particles).sum(),
            container: container.clone(),
        });
        Ok(BatchedPacker::with_slots(vec![slot], false))
    }

    fn with_slots(slots: Vec<SystemSlot>, sweep: bool) -> BatchedPacker {
        BatchedPacker {
            slots,
            sweep,
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

    /// Passes completed so far.
    pub fn pass(&self) -> u64 {
        self.pass
    }

    /// Particles packed so far, summed over all systems.
    pub fn packed(&self) -> usize {
        self.slots
            .iter()
            .filter_map(|s| s.progress.as_ref())
            .map(RunProgress::packed)
            .sum()
    }

    /// Optimizer steps taken so far, summed over all systems (a zoned run
    /// counts its current zone's).
    pub fn steps_taken(&self) -> u64 {
        self.slots
            .iter()
            .filter_map(|s| s.progress.as_ref())
            .map(RunProgress::steps_taken)
            .sum()
    }

    /// True once every system has finished or failed.
    pub fn finished(&self) -> bool {
        self.slots.iter().all(SystemSlot::done)
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
    /// system's sweep label. Zoned runs keep none: their stage packers are
    /// built as each zone starts.
    pub fn set_diagnostics(&mut self, mode: DiagMode) {
        for slot in self.slots.iter_mut().filter(|s| s.zones.is_none()) {
            slot.packer.set_diagnostics(mode);
            slot.packer.set_diagnostics_label(&slot.label);
        }
    }

    /// Per-system checkpoint fingerprints, label-paired — what a provenance
    /// manifest records so it can be matched against this run's
    /// checkpoints. Zoned runs, which take none, report 0.
    pub fn fingerprints(&self) -> Vec<(String, u64)> {
        self.slots
            .iter()
            .map(|slot| {
                let fp = if slot.zones.is_some() {
                    0
                } else {
                    slot.packer.fingerprint()
                };
                (slot.label.clone(), fp)
            })
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

    /// Installs the checkpoint sink and its cadence: a capture is saved at
    /// the first boundary after every `every_steps` optimizer steps (summed
    /// over systems) since the last successful save, never after the final
    /// boundary. Install before the run starts — checkpointing opts every
    /// system into the fingerprinted checkpoint contract from its first
    /// batch. Panics on a zoned run.
    pub fn set_checkpoint_sink(&mut self, sink: Box<dyn CheckpointSink>, every_steps: usize) {
        assert!(
            self.slots.iter().all(|s| s.zones.is_none()),
            "zoned runs take no checkpoints"
        );
        self.checkpoint = Some(CheckpointCadence::new(sink, every_steps));
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

    /// Captures the run at the current pass boundary, in its checkpoint
    /// format. Meaningful once the run has started.
    pub fn capture_state(&self) -> DriverState {
        let capture = |slot: &SystemSlot| {
            let prog = slot.progress.as_ref();
            slot.packer
                .capture_state(prog.expect("capture_state before the run started"))
        };
        if !self.sweep {
            return DriverState::Plain(capture(&self.slots[0]));
        }
        DriverState::Sweep(BatchedRunState {
            sweep_fingerprint: self.sweep_fingerprint(),
            threads: self.threads as u64,
            pass: self.pass,
            systems: self
                .slots
                .iter()
                .map(|slot| BatchedSystemState {
                    label: slot.label.clone(),
                    diverged: slot.error.as_ref().map(|e| match e {
                        PackError::Diverged {
                            batch,
                            step,
                            recoveries,
                        } => [*batch as u64, *step as u64, *recoveries as u64],
                        PackError::Resume(_) | PackError::HorizonBreach { .. } => [u64::MAX; 3],
                    }),
                    state: capture(slot),
                })
                .collect(),
        })
    }

    /// Saves `state` through the checkpoint sink now, whatever the cadence.
    /// A failure is counted and logged, never fatal. Returns whether the
    /// save succeeded (false without a sink).
    pub fn save_checkpoint(&mut self, state: &DriverState) -> bool {
        let steps = self.steps_taken();
        self.checkpoint
            .as_mut()
            .is_some_and(|c| c.save(&state.encode(), steps))
    }

    /// Restores the run from a decoded checkpoint of its own format. The
    /// fingerprints (a plain run's parameters; a sweep's parameters,
    /// labels, thread knob and system count) must match this driver's
    /// configuration; stepping afterwards continues bitwise identically.
    pub fn resume(&mut self, state: DriverState) -> Result<(), PackError> {
        let state = match (state, self.sweep) {
            (DriverState::Plain(state), false) => {
                let slot = &mut self.slots[0];
                let prog = slot.packer.begin_resumed(state, true)?;
                slot.steps_before = prog.steps_taken();
                slot.progress = Some(prog);
                return Ok(());
            }
            (DriverState::Sweep(state), true) => state,
            _ => {
                return Err(CheckpointError::StateMismatch(
                    "a plain run's checkpoint cannot resume a sweep, nor a sweep's a plain run"
                        .to_string(),
                )
                .into())
            }
        };
        let fp = self.sweep_fingerprint();
        if state.sweep_fingerprint != fp {
            return Err(CheckpointError::StateMismatch(format!(
                "sweep fingerprint {fp:#018x} does not match checkpoint {:#018x} \
                 (different batch grid, threads or hyper-parameters, or written by a \
                 build of another packing revision; this build packs revision \
                 {PACKING_REVISION})",
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
            // Checkpoints are only written under the fingerprinted
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

    /// Advances every unfinished system by one batch attempt: one pass.
    /// Systems not yet started or resumed start fresh. Returns false, with
    /// no pass, once every system has finished or failed; a failed system
    /// is reported by [`BatchedPacker::finish`] without stalling the rest.
    pub fn step(&mut self) -> bool {
        let checkpointing = self.checkpoint.is_some();
        for slot in &mut self.slots {
            if slot.progress.is_none() && slot.error.is_none() {
                slot.progress = Some(slot.packer.begin_run(Vec::new(), checkpointing));
            }
        }
        if self.finished() {
            return false;
        }
        let pass_span = span(Phase::Pass);
        self.pass += 1;
        let steps = self.steps_taken();
        if let Some(c) = self.checkpoint.as_mut() {
            c.anchor(steps);
        }
        if let [slot] = self.slots.as_mut_slice() {
            // One system keeps the caller's pool for its own kernels; a
            // plain run hands its cadence to `advance_batch`, the
            // single-run save site.
            let mut none = None;
            slot.advance(if self.sweep {
                &mut none
            } else {
                &mut self.checkpoint
            });
        } else {
            // Cross-system parallelism only: each system's work runs under
            // a one-thread install, so its own kernels take the sequential
            // path. That sidesteps re-entering the pool's single job board
            // from the posting thread, and changes nothing numerically —
            // every kernel is bitwise identical for any thread count.
            let sequential = ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .expect("one-thread pool handle");
            let mut active: Vec<&mut SystemSlot> =
                self.slots.iter_mut().filter(|s| !s.done()).collect();
            par::for_each_slot(&mut active, 1, |_, slot| {
                sequential.install(|| slot.advance(&mut None))
            });
        }

        // Sequential section: per-pass accounting, progress hook, and a
        // sweep's cadence.
        let mut stats = PassStats {
            pass: self.pass,
            active: 0,
            packed: 0,
            steps: 0,
        };
        for slot in &mut self.slots {
            let Some(p) = slot.progress.as_ref() else {
                continue;
            };
            let now = p.steps_taken();
            stats.steps += now - slot.steps_before;
            stats.packed += p.packed();
            if self.sweep {
                adampack_telemetry::metrics::record_system(
                    &slot.label,
                    slot_counters(p, slot.packer.recoveries()),
                );
            }
            slot.steps_before = now;
            if !slot.done() {
                stats.active += 1;
            }
        }
        if let Some(cb) = self.pass_callback.as_mut() {
            cb(&stats);
        }
        let (steps, finished) = (self.steps_taken(), self.finished());
        if self.sweep
            && self
                .checkpoint
                .as_ref()
                .is_some_and(|c| c.due(steps, finished))
        {
            let state = self.capture_state();
            self.save_checkpoint(&state);
        }
        let took = pass_span.finish();
        adampack_telemetry::debug!(
            "pass {}: {} active systems, {} packed, {} steps, {took:.2?}",
            self.pass,
            stats.active,
            stats.packed,
            stats.steps,
        );
        true
    }

    /// Consumes every system's run into its report, in spec order.
    pub fn finish(&mut self) -> Vec<SystemReport> {
        self.slots
            .iter_mut()
            .map(|slot| SystemReport {
                label: slot.label.clone(),
                result: match (slot.error.take(), slot.progress.take()) {
                    (Some(e), _) => Err(e),
                    (None, Some(prog)) => {
                        let result = slot.packer.finish_run(prog);
                        Ok(match slot.zones.as_mut() {
                            Some(zones) => zones.merge(result),
                            None => result,
                        })
                    }
                    (None, None) => Err(PackError::Resume(CheckpointError::StateMismatch(
                        "system was never started (finish() called twice?)".to_string(),
                    ))),
                },
            })
            .collect()
    }

    /// Runs every system to completion and returns one report per system,
    /// in spec order. Fresh systems are started, resumed systems continue;
    /// a diverged system is reported as `Err` without stalling the rest.
    pub fn run(&mut self) -> Vec<SystemReport> {
        while self.step() {}
        self.finish()
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
    impl CheckpointSink for MemSink {
        fn save(&mut self, bytes: &[u8]) -> Result<(), String> {
            self.0.lock().unwrap().push(bytes.to_vec());
            Ok(())
        }
    }

    /// The three-system sweep in batches of five, so every system takes
    /// several passes and a cadence comes due before the last one.
    fn multi_pass_specs() -> Vec<SystemSpec> {
        let mut specs = specs_s3();
        for spec in &mut specs {
            spec.params.batch_size = 5;
        }
        specs
    }

    #[test]
    fn checkpointed_batched_run_resumes_bitwise() {
        let container = box_container();
        let sink = MemSink::default();
        let mut straight = BatchedPacker::new(&container, multi_pass_specs());
        straight.set_checkpoint_sink(Box::new(sink.clone()), 100);
        let want = straight.run();
        let blobs = sink.0.lock().unwrap().clone();
        assert!(!blobs.is_empty(), "cadence never fired");
        // The cadence never saves after the final pass.
        for blob in &blobs {
            let DriverState::Sweep(state) = DriverState::decode(blob, true).unwrap() else {
                unreachable!("decoded as a sweep");
            };
            assert!(state.pass < straight.pass(), "saved after the final pass");
        }

        // Resume from the first checkpoint and compare the final packings.
        let state = DriverState::decode(&blobs[0], true).unwrap();
        let mut resumed = BatchedPacker::new(&container, multi_pass_specs());
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
        let mut a = BatchedPacker::new(&container, multi_pass_specs());
        a.set_checkpoint_sink(Box::new(sink.clone()), 50);
        let _ = a.run();
        let blobs = sink.0.lock().unwrap().clone();
        let state = DriverState::decode(&blobs[0], true).unwrap();

        let mut other = BatchedPacker::new(&container, multi_pass_specs());
        other.set_threads(8);
        let err = other.resume(state).unwrap_err();
        assert!(matches!(
            err,
            PackError::Resume(CheckpointError::StateMismatch(_))
        ));
    }
}
