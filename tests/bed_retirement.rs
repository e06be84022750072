//! One bed, proven at the public-API level: every run retires settled
//! spheres from the bed grid, and that never changes a byte.
//!
//! The grid holds only the bed spheres whose top reaches a floor derived
//! from the batch, and a query that would reach deeper heals the bed
//! first, so each Verlet row lists the same candidates, in the same
//! ascending order, as a grid over the whole bed. The naive strategy scans
//! the whole bed and never retires: it is the oracle every retiring run is
//! compared against — on a tall column, on a funnel that forces heals,
//! under any thread count and across a mid-run checkpoint and resume.

use std::sync::{Arc, Mutex};

use adampack_core::prelude::*;
use adampack_geometry::{shapes, Vec3};

/// Raise the rayon shim's width cap before the first pool resolves it, so
/// thread-count sweeps mean something on 1-core CI boxes.
fn force_parallel_hardware() {
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", "8");
    }
}

/// A tall, narrow box: with small batches the bed climbs far above the
/// depth a batch's queries reach, so most of it is retired.
fn tall_box() -> Container {
    Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::new(0.6, 0.6, 3.0))).unwrap()
}

fn params(strategy: NeighborStrategy, kernel: Kernel) -> PackingParams {
    PackingParams {
        batch_size: 12,
        target_count: 240,
        max_steps: 300,
        patience: 40,
        seed: 23,
        kernel,
        neighbor: NeighborParams {
            strategy,
            ..NeighborParams::default()
        },
        ..PackingParams::default()
    }
}

fn psd() -> Psd {
    Psd::uniform(0.05, 0.07)
}

fn pack_column(strategy: NeighborStrategy, kernel: Kernel) -> PackResult {
    let mut packer = CollectivePacker::new(tall_box(), params(strategy, kernel));
    packer.try_pack(&psd()).expect("run packs")
}

/// A floor layer of r = 0.05 spheres at the bottom of the 2×2×2 box and a
/// ten-sphere pillar that raises the bed top 20 radii above it: a batch
/// spawned above the pillar falls past the floor derived from the top,
/// and every such query heals the bed.
fn pack_funnel(strategy: NeighborStrategy, kernel: Kernel) -> PackResult {
    let r = 0.05;
    let mut bed = Vec::new();
    for i in 0..20 {
        for j in 0..20 {
            let (x, y) = (-1.0 + r * (2 * i + 1) as f64, -1.0 + r * (2 * j + 1) as f64);
            bed.push(Particle::new(Vec3::new(x, y, -1.0 + r), r));
        }
    }
    for k in 1..=10 {
        bed.push(Particle::new(
            Vec3::new(0.0, 0.0, -1.0 + r + 2.0 * r * k as f64),
            r,
        ));
    }
    let container = Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0))).unwrap();
    let params = PackingParams {
        batch_size: 10,
        target_count: 30,
        max_steps: 500,
        patience: 60,
        seed: 7,
        kernel,
        neighbor: NeighborParams {
            strategy,
            ..NeighborParams::default()
        },
        ..PackingParams::default()
    };
    let mut packer = CollectivePacker::new(container, params);
    let mut prog = packer.begin_run(bed, false);
    while !prog.finished() {
        packer
            .advance_batch(&Psd::constant(r), &mut prog, &mut None)
            .expect("funnel packs");
    }
    packer.finish_run(prog)
}

fn assert_same_packing(a: &PackResult, b: &PackResult, what: &str) {
    assert_eq!(a.particles.len(), b.particles.len(), "{what}: count");
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
        assert_eq!(
            ba.mean_overlap_ratio.to_bits(),
            bb.mean_overlap_ratio.to_bits(),
            "{what}: acceptance sum"
        );
    }
}

#[test]
fn retiring_run_matches_naive_across_kernels_and_thread_counts() {
    force_parallel_hardware();
    type Fixture = fn(NeighborStrategy, Kernel) -> PackResult;
    for (name, pack) in [
        ("column", pack_column as Fixture),
        ("funnel", pack_funnel as Fixture),
    ] {
        for kernel in [Kernel::Scalar, Kernel::Simd] {
            let oracle = pack(NeighborStrategy::Naive, kernel);
            assert!(oracle.particles.len() > 200, "{name}: fixture too small");
            for threads in [1usize, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let retiring = pool.install(|| pack(NeighborStrategy::Verlet, kernel));
                assert_same_packing(
                    &oracle,
                    &retiring,
                    &format!("{name}, {kernel} kernel, {threads} threads"),
                );
            }
        }
    }
}

/// In-memory checkpoint sink (the encode/decode codec stays on the path so
/// resume exercises the real wire format).
struct MemorySink(Arc<Mutex<Vec<Vec<u8>>>>);

impl CheckpointSink for MemorySink {
    fn save(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.0.lock().unwrap().push(bytes.to_vec());
        Ok(())
    }
}

/// A plain run of the tall column under `strategy` with a 150-step
/// checkpoint cadence into `blobs`, resumed from the checkpoint `from`
/// when given.
fn checkpointed_run(
    strategy: NeighborStrategy,
    blobs: &Arc<Mutex<Vec<Vec<u8>>>>,
    from: Option<&[u8]>,
) -> PackResult {
    let packer = CollectivePacker::new(tall_box(), params(strategy, Kernel::Simd));
    let mut driver = BatchedPacker::plain(packer, psd());
    driver.set_checkpoint_sink(Box::new(MemorySink(Arc::clone(blobs))), 150);
    if let Some(bytes) = from {
        let state = DriverState::decode(bytes, false).expect("checkpoint decodes");
        driver.resume(state).expect("checkpoint resumes");
    }
    driver
        .run()
        .remove(0)
        .result
        .expect("checkpointed run packs")
}

#[test]
fn checkpoint_resume_mid_run_matches_naive() {
    force_parallel_hardware();
    // Straight retiring run with a mid-run checkpoint cadence.
    let blobs = Arc::new(Mutex::new(Vec::new()));
    let straight = checkpointed_run(NeighborStrategy::Verlet, &blobs, None);
    let blobs = blobs.lock().unwrap().clone();
    assert!(
        blobs.len() >= 3,
        "cadence captured only {} checkpoints",
        blobs.len()
    );

    // Kill-and-resume from an early, a middle and the last capture: the
    // resumed run rebuilds its bed from the particle list and finishes
    // bitwise identical to the uninterrupted run.
    let scratch = Arc::new(Mutex::new(Vec::new()));
    for idx in [0, blobs.len() / 2, blobs.len() - 1] {
        let resumed = checkpointed_run(NeighborStrategy::Verlet, &scratch, Some(&blobs[idx]));
        assert_same_packing(&straight, &resumed, &format!("resume from capture {idx}"));
    }

    // And the checkpointed retiring run equals the never-retiring oracle.
    let naive = checkpointed_run(NeighborStrategy::Naive, &scratch, None);
    assert_same_packing(&straight, &naive, "retiring vs naive, checkpointing on");
}
