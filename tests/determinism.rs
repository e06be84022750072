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
//! Note on the sqrt-free rejection (this suite carries no hardcoded golden
//! values, so the note is documentary): both current kernels test
//! `d² < (rᵢ+rⱼ)²` where the pre-vectorization code tested
//! `sqrt(d²) < rᵢ+rⱼ`. The two conditions can disagree only when rounding
//! lands `d²` exactly on the contact boundary — a measure-zero event that
//! changes which *zero-penetration* pairs are counted, never the value of a
//! real overlap.

use adampack_core::prelude::*;
use adampack_geometry::{shapes, Vec3};
use adampack_telemetry::{StepRecord, VecSink};

/// The shim caps a pool's effective width at the hardware thread count
/// (oversubscription buys nothing in production). This suite exists to prove
/// thread-count independence, so raise the cap before the process's first
/// parallel region resolves (and caches) it — otherwise a 1-core CI box
/// would run every "parallel" pool serially and prove nothing.
fn force_parallel_hardware() {
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", "8");
    }
}

fn packer_with_kernel(seed: u64, kernel: Kernel) -> CollectivePacker {
    force_parallel_hardware();
    let mesh = shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0));
    let container = Container::from_mesh(&mesh).unwrap();
    let params = PackingParams {
        batch_size: 40,
        target_count: 80,
        max_steps: 500,
        patience: 50,
        seed,
        kernel,
        ..PackingParams::default()
    };
    CollectivePacker::new(container, params)
}

fn packer(seed: u64) -> CollectivePacker {
    packer_with_kernel(seed, Kernel::default())
}

fn pack(seed: u64) -> PackResult {
    packer(seed).pack(&Psd::uniform(0.09, 0.13))
}

/// Which consumers of the per-step record stream a run installs.
#[derive(Clone, Copy)]
enum Observed {
    Not,
    Traced,
    Diagnosed,
}

/// Runs the reference packing under an `n`-thread pool with the given
/// record consumers, returning the result and the collected trace.
fn pack_with_threads(threads: usize, observed: Observed) -> (PackResult, Vec<StepRecord>) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| {
        let mut p = packer(77);
        let trace = VecSink::default();
        match observed {
            Observed::Not => {}
            Observed::Traced => p.set_trace_sink(Box::new(trace.clone())),
            Observed::Diagnosed => p.set_diagnostics(DiagMode::Summary),
        }
        let result = p.pack(&Psd::uniform(0.09, 0.13));
        if let Observed::Diagnosed = observed {
            assert_eq!(p.diagnostics().len(), result.batches.len());
        }
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
    // reductions make the arithmetic independent of the pool width).
    let (reference, _) = pack_with_threads(1, Observed::Not);
    for threads in [2, 4, 8] {
        let (run, _) = pack_with_threads(threads, Observed::Not);
        assert_same_packing(&reference, &run, &format!("{threads} threads"));
    }
}

#[test]
fn tracing_is_thread_count_independent_and_free_of_side_effects() {
    // The traced path goes through the fused value+gradient traversal, the
    // untraced path through the plain one; both must produce the identical
    // packing, and the trace itself (loss, gradient norm, displacement)
    // must be bitwise identical for any thread count. Diagnostics consume
    // the same record stream without a sink, and must not perturb either.
    let (untraced, _) = pack_with_threads(1, Observed::Not);
    let (reference, ref_trace) = pack_with_threads(1, Observed::Traced);
    assert_same_packing(&untraced, &reference, "traced vs untraced");
    let (diagnosed, _) = pack_with_threads(1, Observed::Diagnosed);
    assert_same_packing(&untraced, &diagnosed, "diagnosed vs untraced");
    assert!(!ref_trace.is_empty(), "tracer must record steps");
    for threads in [2, 4, 8] {
        let (run, trace) = pack_with_threads(threads, Observed::Traced);
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
    let simd = pack(123);
    let scalar = packer_with_kernel(123, Kernel::Scalar).pack(&Psd::uniform(0.09, 0.13));
    assert_same_packing(&simd, &scalar, "simd vs scalar kernel");
}

#[test]
fn simd_kernel_is_thread_count_independent() {
    // Belt-and-braces restatement of `determinism_is_thread_count_
    // independent` with the kernel pinned explicitly (the other test relies
    // on the default): 1/2/4/8-thread pools under the SIMD kernel agree
    // bitwise, as do 1/2/4/8-thread pools under the scalar kernel.
    for kernel in [Kernel::Simd, Kernel::Scalar] {
        let reference = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| packer_with_kernel(77, kernel).pack(&Psd::uniform(0.09, 0.13)));
        for threads in [2, 4, 8] {
            let run = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| packer_with_kernel(77, kernel).pack(&Psd::uniform(0.09, 0.13)));
            assert_same_packing(
                &reference,
                &run,
                &format!("{kernel} kernel, {threads} threads"),
            );
        }
    }
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
