//! Determinism guarantees (§IV): "This can be avoided by fixing the seed of
//! the random generator in order to produce deterministic results." With a
//! fixed seed the whole pipeline — PSD sampling, spawning, optimization,
//! acceptance — must be bitwise reproducible, *including under different
//! Rayon thread counts*, because the objective reduces per-particle partial
//! values sequentially.
//!
//! ## Kernel determinism
//!
//! The default kernel is [`Kernel::Simd`], so every test here exercises the
//! vectorized pair/plane/optimizer kernels; `kernel_choice_does_not_change_
//! the_packing` additionally proves the scalar oracle produces the bitwise
//! identical packing (the spec bound of ≤ 1 ULP is met trivially, at 0 ULP:
//! SIMD lanes reject with element-wise correctly-rounded ops and hit lanes
//! run the exact scalar arithmetic in candidate order).
//!
//! ## One pair order
//!
//! Both neighbor strategies sum each sphere's contacts in ascending index,
//! and a candidate that does not touch costs no floating-point operation.
//! So the Verlet lists and the `naive` oracle pack the same bytes, and the
//! Verlet skin changes only how often the lists are rebuilt:
//! `every_strategy_packs_the_same_bytes` and
//! `skin_never_changes_the_trajectory` assert both at 0 ULP.
//!
//! ## Regions that split
//!
//! A pool region splits only from two grains (`rayon::job_count`), so the
//! reference packing's 40-sphere batches run the kernel and the Verlet
//! rebuild inline on any pool. The thread-count tests also pack one
//! 1 100-sphere batch (`SPLIT`), whose kernel and rebuild split under the
//! wider pools, and the `split_*` tests compare a traced kernel trajectory
//! and a bed rebin at sizes that split; each asserts that it splits.
//!
//! Note on the sqrt-free rejection (this suite carries no hardcoded golden
//! values, so the note is documentary): both current kernels test
//! `d² < (rᵢ+rⱼ)²` where the pre-vectorization code tested
//! `sqrt(d²) < rᵢ+rⱼ`. The two conditions can disagree only when rounding
//! lands `d²` exactly on the contact boundary — a measure-zero event that
//! changes which *zero-penetration* pairs are counted, never the value of a
//! real overlap.

use adampack_core::neighbor::{KEY_GRAIN, ROW_GRAIN};
use adampack_core::objective::KERNEL_GRAIN;
use adampack_core::prelude::*;
use adampack_geometry::{shapes, Axis, TriMesh, Vec3};
use adampack_telemetry::{StepRecord, VecSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The shim caps a pool's effective width at the hardware thread count
/// (oversubscription buys nothing in production). This suite exists to prove
/// thread-count independence, so raise the cap to 8 unless
/// `RAYON_NUM_THREADS` already allows two jobs, before the process's first
/// parallel region resolves (and caches) it — otherwise a 1-core CI box, or
/// `RAYON_NUM_THREADS=1`, would run every "parallel" pool serially and prove
/// nothing.
fn force_parallel_hardware() {
    let cap = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok());
    if cap.is_none_or(|n| n < 2) {
        std::env::set_var("RAYON_NUM_THREADS", "8");
    }
}

fn with_threads<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(op)
}

/// Asserts that a region of `n` items at `grain` splits under 4 threads.
fn assert_splits(n: usize, grain: usize, what: &str) {
    force_parallel_hardware();
    let jobs = with_threads(4, || rayon::job_count(n, grain));
    assert!(
        jobs >= 2,
        "{what}: {n} items at grain {grain} run {jobs} job(s) under 4 threads"
    );
}

/// Asserts that the kernel and the Verlet rebuild of a `batch`-sphere
/// batch split under 4 threads.
fn assert_batch_splits(batch: usize) {
    assert_splits(batch, KERNEL_GRAIN, "kernel");
    assert_splits(batch, ROW_GRAIN, "row fill");
}

/// The size of a packing the tests repeat.
#[derive(Clone, Copy)]
struct Size {
    batch_size: usize,
    target_count: usize,
    max_steps: usize,
    /// Radius bounds of the uniform PSD.
    radii: (f64, f64),
}

impl Size {
    fn psd(self) -> Psd {
        Psd::uniform(self.radii.0, self.radii.1)
    }
}

/// The reference packing: two 40-sphere batches.
const REFERENCE: Size = Size {
    batch_size: 40,
    target_count: 80,
    max_steps: 500,
    radii: (0.09, 0.13),
};

/// One short batch of 1 100 smaller spheres, whose kernel and Verlet
/// rebuild split under a 4-thread pool.
const SPLIT: Size = Size {
    batch_size: 1100,
    target_count: 1100,
    max_steps: 40,
    radii: (0.03, 0.05),
};

fn packer_with_kernel(seed: u64, kernel: Kernel, size: Size) -> CollectivePacker {
    packer_in(
        &shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0)),
        seed,
        kernel,
        size,
    )
}

fn packer_in(mesh: &TriMesh, seed: u64, kernel: Kernel, size: Size) -> CollectivePacker {
    force_parallel_hardware();
    let container = Container::from_mesh(mesh).unwrap();
    let params = PackingParams {
        batch_size: size.batch_size,
        target_count: size.target_count,
        max_steps: size.max_steps,
        patience: 50,
        seed,
        kernel,
        ..PackingParams::default()
    };
    CollectivePacker::new(container, params)
}

fn packer(seed: u64) -> CollectivePacker {
    packer_with_kernel(seed, Kernel::default(), REFERENCE)
}

fn pack(seed: u64) -> PackResult {
    packer(seed).pack(&REFERENCE.psd())
}

/// Which consumers of the per-step record stream a run installs.
#[derive(Clone, Copy)]
enum Observed {
    Not,
    Traced,
    Diagnosed,
}

/// Runs a packing of `size` at seed 77 under an `n`-thread pool with the
/// given record consumers, returning the result and the collected trace.
fn pack_with_threads(
    threads: usize,
    observed: Observed,
    size: Size,
) -> (PackResult, Vec<StepRecord>) {
    with_threads(threads, || {
        let mut p = packer_with_kernel(77, Kernel::default(), size);
        let trace = VecSink::default();
        match observed {
            Observed::Not => {}
            Observed::Traced => p.set_trace_sink(Box::new(trace.clone())),
            Observed::Diagnosed => p.set_diagnostics(DiagMode::Summary),
        }
        let result = p.pack(&size.psd());
        if let Observed::Diagnosed = observed {
            assert_eq!(p.diagnostics().len(), result.batches.len());
        }
        assert_eq!(result.batches[0].requested, size.batch_size);
        (result, trace.records())
    })
}

fn assert_same_packing(a: &PackResult, b: &PackResult, what: &str) {
    assert_eq!(
        a.particles.len(),
        b.particles.len(),
        "{what}: particle count"
    );
    for (pa, pb) in a.particles.iter().zip(&b.particles) {
        assert_eq!(pa.center.x.to_bits(), pb.center.x.to_bits(), "{what}: x");
        assert_eq!(pa.center.y.to_bits(), pb.center.y.to_bits(), "{what}: y");
        assert_eq!(pa.center.z.to_bits(), pb.center.z.to_bits(), "{what}: z");
        assert_eq!(pa.radius.to_bits(), pb.radius.to_bits(), "{what}: radius");
    }
    assert_eq!(a.batches.len(), b.batches.len(), "{what}: batch count");
    for (ba, bb) in a.batches.iter().zip(&b.batches) {
        assert_eq!(ba.steps, bb.steps, "{what}: steps");
        assert_eq!(
            ba.best_fitness.to_bits(),
            bb.best_fitness.to_bits(),
            "{what}: fitness"
        );
        assert_eq!(ba.accepted, bb.accepted, "{what}: acceptance");
    }
}

#[test]
fn same_seed_same_packing_bitwise() {
    let a = pack(123);
    let b = pack(123);
    assert_eq!(a.particles.len(), b.particles.len());
    for (pa, pb) in a.particles.iter().zip(&b.particles) {
        assert_eq!(pa.center.x.to_bits(), pb.center.x.to_bits());
        assert_eq!(pa.center.y.to_bits(), pb.center.y.to_bits());
        assert_eq!(pa.center.z.to_bits(), pb.center.z.to_bits());
        assert_eq!(pa.radius.to_bits(), pb.radius.to_bits());
        assert_eq!(pa.batch, pb.batch);
    }
    // Batch statistics agree too (steps and fitness are part of the
    // deterministic trajectory; durations are not compared).
    for (ba, bb) in a.batches.iter().zip(&b.batches) {
        assert_eq!(ba.steps, bb.steps);
        assert_eq!(ba.best_fitness.to_bits(), bb.best_fitness.to_bits());
        assert_eq!(ba.accepted, bb.accepted);
    }
}

#[test]
fn different_seeds_different_packings() {
    let a = pack(1);
    let b = pack(2);
    let identical = a.particles.len() == b.particles.len()
        && a.particles
            .iter()
            .zip(&b.particles)
            .all(|(x, y)| x.center == y.center && x.radius == y.radius);
    assert!(
        !identical,
        "distinct seeds must explore distinct configurations"
    );
}

#[test]
fn determinism_is_thread_count_independent() {
    // Run the identical packing under 1/2/4/8-thread pools: final centers,
    // per-batch step counts, fitnesses and acceptance decisions must all be
    // bitwise identical (static contiguous chunking + fixed-shape sequential
    // reductions make the arithmetic independent of the pool width), for
    // batches that run inline and for one that splits.
    assert_batch_splits(SPLIT.batch_size);
    for size in [REFERENCE, SPLIT] {
        let (reference, _) = pack_with_threads(1, Observed::Not, size);
        assert!(!reference.particles.is_empty(), "nothing packed");
        for threads in [2, 4, 8] {
            let (run, _) = pack_with_threads(threads, Observed::Not, size);
            let what = format!("{}-sphere batches, {threads} threads", size.batch_size);
            assert_same_packing(&reference, &run, &what);
        }
    }
}

#[test]
fn tracing_is_thread_count_independent_and_free_of_side_effects() {
    // The traced path goes through the fused value+gradient traversal, the
    // untraced path through the plain one; both must produce the identical
    // packing, and the trace itself (loss, gradient norm, displacement)
    // must be bitwise identical for any thread count. Diagnostics consume
    // the same record stream without a sink, and must not perturb either.
    let (untraced, _) = pack_with_threads(1, Observed::Not, REFERENCE);
    let (reference, ref_trace) = pack_with_threads(1, Observed::Traced, REFERENCE);
    assert_same_packing(&untraced, &reference, "traced vs untraced");
    let (diagnosed, _) = pack_with_threads(1, Observed::Diagnosed, REFERENCE);
    assert_same_packing(&untraced, &diagnosed, "diagnosed vs untraced");
    assert!(!ref_trace.is_empty(), "tracer must record steps");
    for threads in [2, 4, 8] {
        let (run, trace) = pack_with_threads(threads, Observed::Traced, REFERENCE);
        assert_same_packing(&reference, &run, &format!("traced, {threads} threads"));
        assert_eq!(
            trace.len(),
            ref_trace.len(),
            "{threads} threads: trace length"
        );
        for (ra, rb) in ref_trace.iter().zip(&trace) {
            assert_eq!(ra.batch, rb.batch);
            assert_eq!(ra.step, rb.step);
            assert_eq!(
                ra.loss.to_bits(),
                rb.loss.to_bits(),
                "{threads} threads: loss"
            );
            assert_eq!(
                ra.grad_norm.to_bits(),
                rb.grad_norm.to_bits(),
                "{threads} threads: grad norm"
            );
            assert_eq!(
                ra.max_disp.to_bits(),
                rb.max_disp.to_bits(),
                "{threads} threads: max displacement"
            );
            for (fa, fb) in [
                (ra.penetration_intra, rb.penetration_intra),
                (ra.penetration_cross, rb.penetration_cross),
                (ra.altitude, rb.altitude),
                (ra.exterior, rb.exterior),
            ] {
                assert_eq!(fa.to_bits(), fb.to_bits(), "{threads} threads: breakdown");
            }
        }
    }
}

#[test]
fn kernel_choice_does_not_change_the_packing() {
    // The SIMD kernel (default, exercised by every other test here) and the
    // scalar oracle must produce the bitwise identical packing: both the
    // objective's pair/plane arithmetic and the Adam update are vectorized
    // lane ≡ scalar tail, so the whole trajectory coincides at 0 ULP.
    assert_eq!(Kernel::default(), Kernel::Simd);
    let cases = [
        (
            "box",
            shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0)),
            Psd::uniform(0.09, 0.13),
        ),
        // 122 planes: under the Verlet plan the SIMD kernel tests only each
        // sphere's listed walls, the scalar oracle every plane.
        (
            "furnace hull",
            shapes::blast_furnace(0.05, 24),
            Psd::uniform(0.012, 0.018),
        ),
    ];
    for (what, mesh, psd) in cases {
        let simd = packer_in(&mesh, 123, Kernel::Simd, REFERENCE).pack(&psd);
        let scalar = packer_in(&mesh, 123, Kernel::Scalar, REFERENCE).pack(&psd);
        assert!(!simd.particles.is_empty(), "{what}: nothing packed");
        assert_same_packing(&simd, &scalar, &format!("{what}: simd vs scalar kernel"));
    }
}

#[test]
fn every_strategy_packs_the_same_bytes() {
    // A 1×1×1 box asked for more r = 0.1 spheres than it holds runs the
    // halving ladder down to single-sphere batches; the furnace hull has
    // 122 planes, of which the lists keep a sphere's nearest few.
    let cases = [
        (
            "box halving ladder",
            shapes::box_mesh(Vec3::ZERO, Vec3::splat(1.0)),
            Psd::constant(0.1),
            200,
        ),
        (
            "furnace hull",
            shapes::blast_furnace(0.05, 24),
            Psd::uniform(0.012, 0.018),
            80,
        ),
    ];
    for (what, mesh, psd, target) in cases {
        let pack = |strategy| {
            let mut p = packer_in(&mesh, 123, Kernel::default(), REFERENCE);
            let mut params = p.params().clone();
            params.target_count = target;
            params.neighbor.strategy = strategy;
            p = CollectivePacker::new(p.container().clone(), params);
            p.pack(&psd)
        };
        let naive = pack(NeighborStrategy::Naive);
        assert!(!naive.particles.is_empty(), "{what}: nothing packed");
        if what == "box halving ladder" {
            let smallest = naive.batches.iter().map(|b| b.requested).min();
            assert_eq!(
                smallest,
                Some(1),
                "{what}: the ladder must reach one sphere"
            );
        }
        let lists = pack(NeighborStrategy::Verlet);
        assert_same_packing(&naive, &lists, &format!("{what}: naive vs verlet"));
    }
}

#[test]
fn skin_never_changes_the_trajectory() {
    // The last batch of a real packing, lifted and pulled together so it
    // falls back onto the rest of the bed through changing contacts, then
    // optimized with AMSGrad at the paper's learning rate.
    let packed = pack(77);
    let last = packed.particles.iter().map(|p| p.batch).max().unwrap();
    let (batch, bed): (Vec<&Particle>, Vec<&Particle>) =
        packed.particles.iter().partition(|p| p.batch == last);
    let fixed = CsrGrid::build(
        &bed.iter().map(|p| p.center).collect::<Vec<_>>(),
        &bed.iter().map(|p| p.radius).collect::<Vec<_>>(),
    );
    let radii: Vec<f64> = batch.iter().map(|p| p.radius).collect();
    let r_max = radii.iter().copied().fold(0.0, f64::max);
    let start: Vec<f64> = batch
        .iter()
        .enumerate()
        .flat_map(|(i, p)| {
            let c = p.center;
            [0.7 * c.x, 0.7 * c.y, c.z + 0.3 + 0.02 * (i % 5) as f64]
        })
        .collect();
    let halfspaces = packed.container.halfspaces();
    let run = |strategy, skin: Option<f64>| {
        let mut obj = Objective::new(
            ObjectiveWeights::default(),
            Axis::Z,
            halfspaces,
            &radii,
            &fixed,
        );
        if let Some(skin) = skin {
            obj = obj.with_neighbor(strategy, skin);
        }
        let mut opt =
            OptimizerKind::AmsGrad.build_with_kernel(1e-2, start.len(), Kernel::default());
        let (mut c, mut grad, mut ws) = (start.clone(), vec![0.0; start.len()], Workspace::new());
        for _ in 0..300 {
            obj.value_and_grad_ws(&c, &mut grad, &mut ws);
            opt.step(&mut c, &grad);
        }
        (c, ws.verlet_rebuilds())
    };
    let (reference, default_rebuilds) = run(NeighborStrategy::Verlet, None);
    assert!(default_rebuilds > 1, "the batch never moved past its skin");
    let mut rebuilds = Vec::new();
    for (strategy, skin) in [
        (NeighborStrategy::Naive, r_max),
        (NeighborStrategy::Verlet, 0.2 * r_max),
        (NeighborStrategy::Verlet, 0.5 * r_max),
        (NeighborStrategy::Verlet, 1.5 * r_max),
    ] {
        let (c, n) = run(strategy, Some(skin));
        rebuilds.push(n);
        for (k, (a, b)) in reference.iter().zip(&c).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{strategy:?} at skin {skin}: coordinate {k}"
            );
        }
    }
    // Only the rebuild rate moves: fewer rebuilds as the skin grows.
    assert!(
        rebuilds[1] > rebuilds[2] && rebuilds[2] > rebuilds[3],
        "{rebuilds:?}"
    );
}

#[test]
fn simd_kernel_is_thread_count_independent() {
    // Belt-and-braces restatement of `determinism_is_thread_count_
    // independent` with the kernel pinned explicitly (the other test relies
    // on the default): 1/2/4/8-thread pools under the SIMD kernel agree
    // bitwise, as do 1/2/4/8-thread pools under the scalar kernel, for
    // batches that run inline and for one that splits.
    assert_batch_splits(SPLIT.batch_size);
    for size in [REFERENCE, SPLIT] {
        for kernel in [Kernel::Simd, Kernel::Scalar] {
            let pack = |threads| {
                with_threads(threads, || {
                    packer_with_kernel(77, kernel, size).pack(&size.psd())
                })
            };
            let reference = pack(1);
            for threads in [2, 4, 8] {
                let what = format!(
                    "{}-sphere batches, {kernel} kernel, {threads} threads",
                    size.batch_size
                );
                assert_same_packing(&reference, &pack(threads), &what);
            }
        }
    }
}

/// One value + gradient + traced breakdown per step over a few AMSGrad
/// steps, every bit of them, for a 1 100-sphere batch settling onto a bed.
fn kernel_trajectory(threads: usize, kernel: Kernel) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(41);
    let bed: Vec<Vec3> = (0..600)
        .map(|_| {
            Vec3::new(
                rng.gen_range(-0.95..0.95),
                rng.gen_range(-0.95..0.95),
                rng.gen_range(-0.95..-0.6),
            )
        })
        .collect();
    let bed_radii: Vec<f64> = (0..bed.len()).map(|_| rng.gen_range(0.03..0.05)).collect();
    let fixed = CsrGrid::build(&bed, &bed_radii);
    let n = 1100;
    let radii: Vec<f64> = (0..n).map(|_| rng.gen_range(0.03..0.05)).collect();
    let mut c: Vec<f64> = (0..n)
        .flat_map(|_| {
            [
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-0.7..0.1),
            ]
        })
        .collect();
    let container = Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0))).unwrap();
    let objective = Objective::new(
        ObjectiveWeights::default(),
        Axis::Z,
        container.halfspaces(),
        &radii,
        &fixed,
    )
    .with_kernel(kernel);
    let mut opt = OptimizerKind::AmsGrad.build_with_kernel(1e-2, c.len(), kernel);
    let (mut grad, mut ws) = (vec![0.0; c.len()], Workspace::new());
    let mut bits = Vec::new();
    with_threads(threads, || {
        for step in 0..6 {
            if step % 2 == 0 {
                bits.push(
                    objective
                        .value_and_grad_ws(&c, &mut grad, &mut ws)
                        .to_bits(),
                );
            } else {
                let (z, b) = objective.value_grad_breakdown_ws(&c, &mut grad, &mut ws);
                bits.extend(
                    [
                        z,
                        b.penetration_intra,
                        b.penetration_cross,
                        b.altitude,
                        b.exterior,
                    ]
                    .map(f64::to_bits),
                );
            }
            bits.extend(grad.iter().map(|g| g.to_bits()));
            opt.step(&mut c, &grad);
        }
    });
    assert!(ws.verlet_rebuilds() >= 1);
    bits.extend(c.iter().map(|x| x.to_bits()));
    bits
}

#[test]
fn split_kernel_and_rebuild_give_the_same_bits_at_any_width() {
    // Every evaluation of a batch whose kernel and Verlet rebuild split,
    // over a bed and through the box walls, under either kernel.
    assert_batch_splits(1100);
    let reference = kernel_trajectory(1, Kernel::Simd);
    for kernel in [Kernel::Simd, Kernel::Scalar] {
        for threads in [1, 2, 4, 8] {
            let run = kernel_trajectory(threads, kernel);
            assert_eq!(run.len(), reference.len());
            let first = reference.iter().zip(&run).position(|(a, b)| a != b);
            assert_eq!(
                first, None,
                "{kernel} kernel, {threads} threads: first differing bit"
            );
        }
    }
}

#[test]
fn split_bed_rebin_bins_the_same_at_any_width() {
    // A bed of two key grains and more (`column_50k` reaches 50 000)
    // splits the key pass and the counting sort under a 4-thread pool.
    // Every sphere's query must visit the one-thread grid's candidates in
    // its order, so each cell holds the same entries in the same order.
    let n = 2 * KEY_GRAIN + 1234;
    assert_splits(n, KEY_GRAIN, "key pass");
    let mut rng = StdRng::seed_from_u64(91);
    let centers: Vec<Vec3> = (0..n)
        .map(|_| {
            Vec3::new(
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            )
        })
        .collect();
    let radii: Vec<f64> = (0..n).map(|_| rng.gen_range(0.005..0.02)).collect();
    let visits = |threads| {
        let grid = with_threads(threads, || CsrGrid::build(&centers, &radii));
        let mut order = Vec::new();
        for (&c, &r) in centers.iter().zip(&radii) {
            grid.for_neighbors(c, r, |j, _, _| order.push(j as u32));
        }
        order
    };
    let serial = visits(1);
    assert!(
        serial.len() > n,
        "every query visits at least its own sphere"
    );
    assert!(
        serial == visits(4),
        "4-thread bins differ from the serial ones"
    );
}

#[test]
fn baseline_packers_are_deterministic_too() {
    let mesh = shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0));
    let container = Container::from_mesh(&mesh).unwrap();
    let psd = Psd::uniform(0.08, 0.12);
    let a = RsaPacker {
        seed: 5,
        ..RsaPacker::default()
    }
    .pack(&container, &psd, 100);
    let b = RsaPacker {
        seed: 5,
        ..RsaPacker::default()
    }
    .pack(&container, &psd, 100);
    assert_eq!(a.particles.len(), b.particles.len());
    for (x, y) in a.particles.iter().zip(&b.particles) {
        assert_eq!(x.center, y.center);
    }
    let c = DropAndRollPacker {
        seed: 5,
        ..DropAndRollPacker::default()
    }
    .pack(&container, &psd, 100);
    let d = DropAndRollPacker {
        seed: 5,
        ..DropAndRollPacker::default()
    }
    .pack(&container, &psd, 100);
    assert_eq!(c.particles.len(), d.particles.len());
    for (x, y) in c.particles.iter().zip(&d.particles) {
        assert_eq!(x.center, y.center);
    }
}
