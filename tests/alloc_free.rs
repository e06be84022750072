//! Steady-state allocation audit: once the [`Workspace`] buffers are warm,
//! an optimizer step (objective value + gradient through the Verlet
//! pipeline, plus the Adam update) must perform **zero heap allocation**.
//! Verified with a counting `#[global_allocator]` wrapped around the system
//! allocator; the counter only runs while the measured window is active, so
//! test-harness allocations don't pollute it.
//!
//! The measured window deliberately runs with telemetry **enabled** and
//! exercises the full per-step observability surface — a phase span, the
//! step counter and a trace-ring push — proving the instrumentation keeps
//! the hot loop allocation-free (spans and counters are atomics, the ring
//! is preallocated). It also covers the fused value+gradient+breakdown
//! traversal used by traced runs and a grid rebuild.
//!
//! Two audits run one after the other inside a 4-thread pool (the counter
//! is process-wide, so they never overlap):
//!
//! * an 80-sphere batch whose measured steps continue from the warm state,
//!   as a packing's steps do, so every buffer must already hold what the
//!   next steps need;
//! * a 1 100-sphere batch, large enough that the kernel and the Verlet
//!   rebuild split into jobs (a region splits only from two grains), beside
//!   a grid large enough to split its key pass: split regions must post
//!   work to the persistent workers without allocating. Its window replays
//!   100 steps an unmeasured rehearsal ran first: a batch this large is
//!   still settling onto the bed after warm-up, and its bed-candidate lists
//!   grow (amortized, like any `Vec`) as the contacts accumulate.
//!
//! Before either window is armed every worker runs a job at once, so no
//! worker is first scheduled (and sets up its thread) inside the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use adampack_core::neighbor::{CsrGrid, NeighborStrategy, Workspace, KEY_GRAIN, ROW_GRAIN};
use adampack_core::objective::{Objective, ObjectiveWeights, KERNEL_GRAIN};
use adampack_core::Container;
use adampack_geometry::{shapes, Axis, Vec3};
use adampack_opt::Optimizer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_steps_do_not_allocate() {
    // Post parallel regions from a 4-thread pool: worker spawning happens
    // during warm-up, and steady-state job posting must not allocate. The
    // shim caps effective width at the hardware thread count, so raise the
    // cap first unless it already allows two jobs — a 1-core box (or
    // `RAYON_NUM_THREADS=1`) would otherwise audit only the serial path.
    let cap = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok());
    if cap.is_none_or(|n| n < 2) {
        std::env::set_var("RAYON_NUM_THREADS", "4");
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    pool.install(|| {
        continuing_audit();
        split_audit();
    });
}

/// How the measured window starts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Window {
    /// The measured steps continue from the warm state.
    Continuing,
    /// An unmeasured rehearsal runs the steps first; the measured window
    /// replays them from the same coordinates, optimizer state and a fresh
    /// Verlet build, so it counts what a repeated step allocates.
    Replayed,
}

/// A fixed bed plus a batch that settles onto it.
fn continuing_audit() {
    let mut rng = StdRng::seed_from_u64(5);
    let bed = cloud(&mut rng, 120, [-0.8..0.8, -0.8..0.8, -0.95..-0.5]);
    let batch = cloud(&mut rng, 80, [-0.7..0.7, -0.7..0.7, -0.4..0.4]);
    audit((&bed, 0.1), (&batch, 0.08), (&bed, 0.1), Window::Continuing);
}

/// A batch whose kernel and Verlet rebuild split into jobs, and a grid
/// whose key pass and counting sort split.
fn split_audit() {
    let mut rng = StdRng::seed_from_u64(5);
    let bed = cloud(&mut rng, 600, [-0.9..0.9, -0.9..0.9, -0.95..-0.6]);
    let batch = cloud(&mut rng, 1100, [-0.9..0.9, -0.9..0.9, -0.5..0.5]);
    let grid = cloud(
        &mut rng,
        2 * KEY_GRAIN + 100,
        [-1.0..1.0, -1.0..1.0, -1.0..1.0],
    );
    for (n, grain, what) in [
        (batch.len(), KERNEL_GRAIN, "kernel"),
        (batch.len(), ROW_GRAIN, "rebuild"),
        (grid.len(), KEY_GRAIN, "key pass"),
    ] {
        let jobs = rayon::job_count(n, grain);
        assert!(
            jobs >= 2,
            "the {what} must split: {n} items run {jobs} job(s)"
        );
    }
    audit(
        (&bed, 0.05),
        (&batch, 0.04),
        (&grid, 0.01),
        Window::Replayed,
    );
}

/// `n` points drawn uniformly from the box `ranges`.
fn cloud(rng: &mut StdRng, n: usize, ranges: [Range<f64>; 3]) -> Vec<Vec3> {
    let [x, y, z] = ranges;
    (0..n)
        .map(|_| {
            Vec3::new(
                rng.gen_range(x.clone()),
                rng.gen_range(y.clone()),
                rng.gen_range(z.clone()),
            )
        })
        .collect()
}

/// Warms up, then measures 100 optimizer steps of `batch` over `bed` in the
/// box `[-1, 1]³`, rebuilding a separate grid over `grid` every tenth step
/// (the bed's grid stays borrowed by the objective). Each argument is a set
/// of centers and their common radius.
fn audit(bed: (&[Vec3], f64), batch: (&[Vec3], f64), grid: (&[Vec3], f64), window: Window) {
    let container = Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0))).unwrap();
    let (bed, bed_radii) = (bed.0, vec![bed.1; bed.0.len()]);
    let fixed = CsrGrid::build(bed, &bed_radii);
    let radii = vec![batch.1; batch.0.len()];
    let mut coords: Vec<f64> = batch.0.iter().flat_map(|c| [c.x, c.y, c.z]).collect();

    // The default kernel is SIMD, so the measured window also audits the
    // per-step SoA coordinate/plane snapshot refresh: after warm-up the
    // padded columns are resized in place, never reallocated.
    let objective = Objective::new(
        ObjectiveWeights::default(),
        Axis::Z,
        container.halfspaces(),
        &radii,
        &fixed,
    )
    .with_neighbor(NeighborStrategy::Verlet, 0.05);
    assert_eq!(objective.kernel(), adampack_core::Kernel::Simd);

    let mut ws = Workspace::new();
    let mut grad = vec![0.0; coords.len()];
    let mut opt = adampack_opt::Adam::new(
        adampack_opt::AdamConfig {
            lr: 1e-3,
            amsgrad: true,
            ..Default::default()
        },
        coords.len(),
    );

    // Same input every rebuild, so the key/histogram scratch reaches
    // steady-state capacity after one pass.
    let (grid, grid_radii) = (grid.0, vec![grid.1; grid.0.len()]);
    let mut rebuilt = CsrGrid::build(grid, &grid_radii);

    // Warm-up: fill every buffer to its steady-state capacity (including
    // Verlet rebuilds triggered by real optimizer motion, and the
    // per-particle breakdown buffer used by the fused traced path).
    for step in 0..400 {
        if step % 2 == 0 {
            let _ = objective.value_and_grad_ws(&coords, &mut grad, &mut ws);
        } else {
            let _ = objective.value_grad_breakdown_ws(&coords, &mut grad, &mut ws);
        }
        opt.step(&mut coords, &grad);
    }
    rebuilt.rebuild(grid, &grid_radii);

    adampack_telemetry::set_enabled(true);
    let start = (coords.clone(), opt.clone());
    let mut steps = |measured: bool| {
        if window == Window::Replayed {
            coords.copy_from_slice(&start.0);
            opt = start.1.clone();
            ws.reset_batch();
        }
        // A preallocated trace ring large enough that no record is
        // dropped inside the window.
        let mut ring = adampack_telemetry::TraceRing::with_capacity(128);
        if measured {
            // Every worker runs a job at once: each of `width` jobs waits
            // for all the others, so each is on its own thread.
            let width = rayon::effective_parallelism();
            let all_running = Barrier::new(width);
            let mut slots = vec![(); width];
            rayon::par::for_each_slot(&mut slots, 1, |_, _| {
                all_running.wait();
            });
            ALLOCS.store(0, Ordering::SeqCst);
            ARMED.store(true, Ordering::SeqCst);
        }
        // Steps instrumented the way `CollectivePacker` instruments them.
        for step in 0..100u64 {
            let span = adampack_telemetry::span(adampack_telemetry::Phase::Gradient);
            let z = if step % 2 == 0 {
                objective.value_and_grad_ws(&coords, &mut grad, &mut ws)
            } else {
                objective
                    .value_grad_breakdown_ws(&coords, &mut grad, &mut ws)
                    .0
            };
            drop(span);
            adampack_telemetry::metrics::STEPS_TOTAL.inc();
            ring.push(adampack_telemetry::StepRecord {
                step,
                loss: z,
                ..adampack_telemetry::StepRecord::default()
            });
            let _span = adampack_telemetry::span(adampack_telemetry::Phase::OptimizerStep);
            opt.step(&mut coords, &grad);
            if step % 10 == 0 {
                let _span = adampack_telemetry::span(adampack_telemetry::Phase::GridBuild);
                rebuilt.rebuild(grid, &grid_radii);
            }
        }
        ARMED.store(false, Ordering::SeqCst);
        ring
    };
    if window == Window::Replayed {
        steps(false);
    }
    let ring = steps(true);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    let n = radii.len();
    assert_eq!(
        allocs, 0,
        "{n}-sphere batch, {window:?} window: steady-state optimizer steps \
         allocated {allocs} times in 100 steps"
    );
    assert!(
        ws.evals() >= 500,
        "workspace should have served every evaluation"
    );
    assert_eq!(ring.len(), 100, "every step record landed in the ring");
    assert_eq!(ring.dropped(), 0, "no record was overwritten");
    assert!(
        adampack_telemetry::metrics::PHASE_GRADIENT.count() >= 100,
        "spans recorded into the gradient histogram"
    );
}
