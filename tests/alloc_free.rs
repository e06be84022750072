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
//! is preallocated).
//!
//! The whole audit runs inside a 4-thread pool: parallel regions must post
//! work to the persistent workers without allocating, and the window also
//! covers the parallel grid rebuild and the fused value+gradient+breakdown
//! traversal used by traced runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use adampack_core::neighbor::{CsrGrid, NeighborStrategy, Workspace};
use adampack_core::objective::{Objective, ObjectiveWeights};
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
    // cap first — a 1-core box would otherwise audit only the serial path.
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", "4");
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    pool.install(steady_state_body);
}

fn steady_state_body() {
    let container = Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0))).unwrap();
    let mut rng = StdRng::seed_from_u64(5);

    // A fixed bed plus a batch big enough to exercise the parallel kernels
    // and the Verlet pipeline.
    let bed: Vec<Vec3> = (0..120)
        .map(|_| {
            Vec3::new(
                rng.gen_range(-0.8..0.8),
                rng.gen_range(-0.8..0.8),
                rng.gen_range(-0.95..-0.5),
            )
        })
        .collect();
    let bed_radii = vec![0.1; bed.len()];
    let fixed = CsrGrid::build(&bed, &bed_radii);

    let n = 80;
    let radii = vec![0.08; n];
    let mut coords = Vec::with_capacity(3 * n);
    for _ in 0..n {
        coords.push(rng.gen_range(-0.7..0.7));
        coords.push(rng.gen_range(-0.7..0.7));
        coords.push(rng.gen_range(-0.4..0.4));
    }

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

    // A separate grid rebuilt inside the measured window (the `fixed` grid
    // stays borrowed by the objective). Same input every rebuild, so the
    // key/histogram scratch reaches steady-state capacity after one pass.
    let mut rebuilt = CsrGrid::build(&bed, &bed_radii);

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
    rebuilt.rebuild(&bed, &bed_radii);

    // Telemetry on, with a preallocated trace ring large enough that no
    // record is dropped inside the window.
    adampack_telemetry::set_enabled(true);
    let mut ring = adampack_telemetry::TraceRing::with_capacity(128);

    // Measured window: steps continue from the warm state, instrumented the
    // way `CollectivePacker` instruments them.
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
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
            rebuilt.rebuild(&bed, &bed_radii);
        }
    }
    ARMED.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "steady-state optimizer steps allocated {allocs} times in 100 steps"
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
