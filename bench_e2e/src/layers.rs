//! Per-layer accounting shared by the workloads: deltas of the program's
//! own telemetry counters, totals over the public `BatchStats`, and the
//! probes that replay one public call on a run's final state.

use std::path::Path;
use std::time::Instant;

use adampack_core::checkpoint;
use adampack_core::{
    BatchStats, CollectivePacker, Container, CsrGrid, Objective, PackingParams, Particle, Workspace,
};
use adampack_io::RotatingCheckpointWriter;
use adampack_telemetry::metrics as tm;

use crate::stats::{median, quantile, sorted};
use crate::Outcome;

/// Bytes one AMSGrad update moves per coordinate (computed, not
/// measured): reads parameter, gradient, m, v, v̂ and writes all but the
/// gradient back, 8 bytes each.
const ADAM_BYTES_PER_COORD: f64 = 72.0;

/// Snapshot of the program's packing counters and phase histograms.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Objective evaluations.
    pub evals: u64,
    /// Verlet list rebuilds.
    pub verlet_rebuilds: u64,
    /// Nanoseconds in spawn / gradient / optimizer / acceptance phases.
    pub spawn_ns: u64,
    /// See `spawn_ns`.
    pub gradient_ns: u64,
    /// See `spawn_ns`.
    pub optimizer_ns: u64,
    /// See `spawn_ns`.
    pub acceptance_ns: u64,
    /// Nanoseconds rebuilding Verlet lists.
    pub verlet_ns: u64,
    /// Nanoseconds rebinning the CSR cell grid.
    pub grid_ns: u64,
}

impl Counters {
    /// The registry's current values.
    pub fn now() -> Counters {
        Counters {
            evals: tm::EVALS_TOTAL.get(),
            verlet_rebuilds: tm::VERLET_REBUILDS_TOTAL.get(),
            spawn_ns: tm::PHASE_SPAWN.sum_ns(),
            gradient_ns: tm::PHASE_GRADIENT.sum_ns(),
            optimizer_ns: tm::PHASE_OPTIMIZER.sum_ns(),
            acceptance_ns: tm::PHASE_ACCEPTANCE.sum_ns(),
            verlet_ns: tm::PHASE_VERLET_REBUILD.sum_ns(),
            grid_ns: tm::PHASE_GRID_BUILD.sum_ns(),
        }
    }

    /// Adds the change since `before` into `self`.
    pub fn accumulate(&mut self, before: &Counters) {
        let now = Counters::now();
        self.evals += now.evals - before.evals;
        self.verlet_rebuilds += now.verlet_rebuilds - before.verlet_rebuilds;
        self.spawn_ns += now.spawn_ns - before.spawn_ns;
        self.gradient_ns += now.gradient_ns - before.gradient_ns;
        self.optimizer_ns += now.optimizer_ns - before.optimizer_ns;
        self.acceptance_ns += now.acceptance_ns - before.acceptance_ns;
        self.verlet_ns += now.verlet_ns - before.verlet_ns;
        self.grid_ns += now.grid_ns - before.grid_ns;
    }
}

/// Totals over the `BatchStats` of every measured pack.
#[derive(Debug, Clone, Default)]
pub struct BatchTotals {
    /// Batch attempts.
    pub batches: u64,
    /// Accepted batch attempts.
    pub accepted: u64,
    /// Particle·steps over all attempts.
    pub psteps: u64,
    /// Particle·steps spent on rejected attempts.
    pub wasted_psteps: u64,
    /// Sphere–plane tests: Σ steps × requested × planes.
    pub plane_tests: u64,
    /// Each attempt's wall time, ms.
    pub batch_ms: Vec<f64>,
    /// Σ attempt wall time, s (summed across systems for a sweep).
    pub busy_s: f64,
}

impl BatchTotals {
    /// Folds in one pack's batches, for a container with `planes` planes.
    pub fn add(&mut self, batches: &[BatchStats], planes: usize) {
        for b in batches {
            let ps = (b.steps * b.requested) as u64;
            self.batches += 1;
            self.psteps += ps;
            self.plane_tests += ps * planes as u64;
            if b.accepted {
                self.accepted += 1;
            } else {
                self.wasted_psteps += ps;
            }
            let ms = b.duration.as_secs_f64() * 1e3;
            self.batch_ms.push(ms);
            self.busy_s += ms / 1e3;
        }
    }
}

/// Set-up span durations, ms, one entry per set-up.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// `PackingConfig::from_file`.
    pub parse_ms: Vec<f64>,
    /// `read_stl_path`.
    pub stl_ms: Vec<f64>,
    /// `container_sanity` + `Container::from_mesh`.
    pub hull_ms: Vec<f64>,
    /// Packer construction and run start.
    pub init_ms: Vec<f64>,
    /// Container planes of the last set-up.
    pub planes: usize,
}

/// Probe timings on a run's final state.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `Objective::value_and_grad_ws`, last accepted batch vs the bed.
    pub eval_ms: f64,
    /// One AMSGrad step over that batch's coordinates.
    pub opt_step_us: f64,
    /// `CsrGrid::build` over the whole packing.
    pub grid_build_ms: f64,
    /// Encoded checkpoint of the final state.
    pub checkpoint_bytes: f64,
    /// `checkpoint::encode(capture_state)`.
    pub checkpoint_encode_ms: f64,
    /// `RotatingCheckpointWriter::save` (fsync included).
    pub checkpoint_write_ms: f64,
}

/// Median wall time of `reps` calls of `f`, after one warm-up call, ms.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&ms)
}

/// Replays single public calls on a finished packing (after the timed
/// region, so nothing here reaches an end-to-end metric).
pub fn probe(
    container: &Container,
    params: &PackingParams,
    particles: &[Particle],
    dir: &Path,
) -> Result<Probes, String> {
    let last = particles
        .iter()
        .map(|p| p.batch)
        .max()
        .ok_or("empty packing")?;
    let (batch, bed): (Vec<&Particle>, Vec<&Particle>) =
        particles.iter().partition(|p| p.batch == last);
    let radii: Vec<f64> = batch.iter().map(|p| p.radius).collect();
    let coords: Vec<f64> = batch
        .iter()
        .flat_map(|p| [p.center.x, p.center.y, p.center.z])
        .collect();
    let fixed = CsrGrid::build(
        &bed.iter().map(|p| p.center).collect::<Vec<_>>(),
        &bed.iter().map(|p| p.radius).collect::<Vec<_>>(),
    );
    let objective = Objective::new(
        params.weights,
        params.gravity,
        container.halfspaces(),
        &radii,
        &fixed,
    )
    .with_neighbor(params.neighbor.strategy, params.neighbor.skin_for(&radii))
    .with_order(params.neighbor.order)
    .with_kernel(params.kernel);
    let mut ws = Workspace::new();
    let mut grad = vec![0.0; coords.len()];
    let eval_ms = time_ms(5, || {
        std::hint::black_box(objective.value_and_grad_ws(&coords, &mut grad, &mut ws));
    });

    let mut opt =
        params
            .optimizer
            .build_with_kernel(params.lr.initial_lr(), coords.len(), params.kernel);
    let mut x = coords.clone();
    let opt_step_us = time_ms(5, || opt.step(&mut x, &grad)) * 1e3;

    let all_c: Vec<_> = particles.iter().map(|p| p.center).collect();
    let all_r: Vec<f64> = particles.iter().map(|p| p.radius).collect();
    let grid_build_ms = time_ms(3, || {
        std::hint::black_box(CsrGrid::build(&all_c, &all_r));
    });

    // The final state as a run would capture it: a packer resumed on the
    // finished bed.
    let mut packer = CollectivePacker::new(container.clone(), params.clone());
    let prog = packer.begin_run(particles.to_vec(), true);
    let mut bytes = Vec::new();
    let checkpoint_encode_ms = time_ms(3, || {
        bytes = checkpoint::encode(&packer.capture_state(&prog))
    });
    let mut writer = RotatingCheckpointWriter::new(dir.join("probe.ckpt"), 2);
    let mut write_err = None;
    let checkpoint_write_ms = time_ms(3, || {
        if let Err(e) = writer.save(&bytes) {
            write_err = Some(e.to_string());
        }
    });
    if let Some(e) = write_err {
        return Err(format!("checkpoint probe: {e}"));
    }
    Ok(Probes {
        eval_ms,
        opt_step_us,
        grid_build_ms,
        checkpoint_bytes: bytes.len() as f64,
        checkpoint_encode_ms,
        checkpoint_write_ms,
    })
}

/// Writes the packing-layer metrics every workload reports: `jobs` is
/// the number of packs (or sweeps) the totals cover, and `write_ms` one
/// entry per CSV written.
pub fn put_packing_layers(
    out: &mut Outcome,
    jobs: usize,
    setup: &SetupTimes,
    totals: &BatchTotals,
    ctr: &Counters,
    write_ms: &[f64],
    probes: &Probes,
) {
    let per_job = |x: f64| x / jobs.max(1) as f64;
    let n_set = setup.parse_ms.len();
    out.put("config.parse_ms", median(&setup.parse_ms), n_set);
    out.put("io.stl_read_ms", median(&setup.stl_ms), n_set);
    out.put("geometry.hull_ms", median(&setup.hull_ms), n_set);
    out.put("geometry.planes", setup.planes as f64, 1);
    out.put("collective.init_ms", median(&setup.init_ms), n_set);

    let batch_ms = sorted(&totals.batch_ms);
    let nb = batch_ms.len();
    out.put(
        "collective.advance_batch_p50_ms",
        quantile(&batch_ms, 0.5),
        nb,
    );
    out.put(
        "collective.advance_batch_p90_ms",
        quantile(&batch_ms, 0.9),
        nb,
    );
    out.put("collective.batches", per_job(totals.batches as f64), jobs);
    out.put(
        "collective.accept_ratio",
        totals.accepted as f64 / totals.batches.max(1) as f64,
        nb,
    );
    out.put(
        "collective.wasted_psteps_frac",
        totals.wasted_psteps as f64 / totals.psteps.max(1) as f64,
        nb,
    );
    out.put("collective.psteps", per_job(totals.psteps as f64), jobs);
    out.put(
        "collective.psteps_per_s",
        totals.psteps as f64 / totals.busy_s,
        nb,
    );
    out.put(
        "collective.spawn_s",
        per_job(ctr.spawn_ns as f64 / 1e9),
        jobs,
    );
    out.put(
        "collective.acceptance_s",
        per_job(ctr.acceptance_ns as f64 / 1e9),
        jobs,
    );
    out.put(
        "objective.gradient_s",
        per_job(ctr.gradient_ns as f64 / 1e9),
        jobs,
    );
    out.put("objective.evals", per_job(ctr.evals as f64), jobs);
    out.put(
        "objective.eval_us",
        ctr.gradient_ns as f64 / 1e3 / ctr.evals.max(1) as f64,
        ctr.evals as usize,
    );
    out.put(
        "objective.plane_tests",
        per_job(totals.plane_tests as f64),
        jobs,
    );
    let coords = 3.0 * totals.psteps as f64;
    out.put("opt.update_s", per_job(ctr.optimizer_ns as f64 / 1e9), jobs);
    out.put(
        "opt.update_ns_per_coord",
        ctr.optimizer_ns as f64 / coords.max(1.0),
        jobs,
    );
    out.put(
        "opt.bytes_moved",
        per_job(coords * ADAM_BYTES_PER_COORD),
        jobs,
    );
    out.put(
        "neighbor.verlet_rebuilds",
        per_job(ctr.verlet_rebuilds as f64),
        jobs,
    );
    out.put(
        "neighbor.rebuilds_per_eval",
        ctr.verlet_rebuilds as f64 / ctr.evals.max(1) as f64,
        jobs,
    );
    out.put(
        "neighbor.verlet_rebuild_s",
        per_job(ctr.verlet_ns as f64 / 1e9),
        jobs,
    );
    out.put(
        "neighbor.grid_build_s",
        per_job(ctr.grid_ns as f64 / 1e9),
        jobs,
    );
    out.put(
        "neighbor.hot_set_peak_mib",
        tm::HOT_SET_BYTES.peak() as f64 / (1024.0 * 1024.0),
        1,
    );
    out.put("io.output_write_ms", median(write_ms), write_ms.len());
    out.put("probe.eval_ms", probes.eval_ms, 5);
    out.put("probe.opt_step_us", probes.opt_step_us, 5);
    out.put("probe.grid_build_ms", probes.grid_build_ms, 3);
    out.put("probe.checkpoint_bytes", probes.checkpoint_bytes, 1);
    out.put("probe.checkpoint_encode_ms", probes.checkpoint_encode_ms, 3);
    out.put("probe.checkpoint_write_ms", probes.checkpoint_write_ms, 3);
}
