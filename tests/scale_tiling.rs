//! Million-particle scale-out contract: gravity-axis tiling, proven at
//! the public-API level.
//!
//! **Tiling is a pure memory optimization.** A run with `tiles = T > 1`
//! retires settled slabs from the resident hot set but produces the
//! bitwise identical packing to the monolithic run, under any thread
//! count, and a checkpoint taken mid-tiled-run resumes bitwise. The hot
//! grid keeps the retained spheres' relative index order, so each Verlet
//! row, sorted by index, lists the same contacts in the same order as the
//! untiled row.

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

/// A tall, narrow box: the bed climbs the gravity axis fast enough for a
/// handful of tiles to retire settled slabs during the run.
fn tall_box() -> Container {
    Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::new(0.8, 0.8, 2.0))).unwrap()
}

fn params(tiles: usize, kernel: Kernel) -> PackingParams {
    PackingParams {
        batch_size: 24,
        target_count: 120,
        max_steps: 300,
        patience: 40,
        seed: 23,
        kernel,
        tiles,
        ..PackingParams::default()
    }
}

fn psd() -> Psd {
    Psd::uniform(0.07, 0.1)
}

fn pack_with(tiles: usize, kernel: Kernel) -> PackResult {
    force_parallel_hardware();
    let mut packer = CollectivePacker::new(tall_box(), params(tiles, kernel));
    packer.try_pack(&psd()).expect("run packs")
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
    }
}

#[test]
fn tiled_matches_untiled_across_kernels_and_thread_counts() {
    force_parallel_hardware();
    for kernel in [Kernel::Scalar, Kernel::Simd] {
        let reference = pack_with(1, kernel);
        assert!(
            reference.particles.len() >= 48,
            "fixture too small to span multiple slabs"
        );
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for tiles in [2usize, 5] {
                let tiled = pool.install(|| pack_with(tiles, kernel));
                assert_same_packing(
                    &reference,
                    &tiled,
                    &format!("{kernel} kernel, {tiles} tiles, {threads} threads"),
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

/// A plain run of the tall box under `tiles` with a 150-step checkpoint
/// cadence into `blobs`, resumed from the checkpoint `from` when given.
fn checkpointed_run(
    tiles: usize,
    blobs: &Arc<Mutex<Vec<Vec<u8>>>>,
    from: Option<&[u8]>,
) -> PackResult {
    let packer = CollectivePacker::new(tall_box(), params(tiles, Kernel::Simd));
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
fn checkpoint_resume_mid_tiled_run_is_bitwise_identical() {
    force_parallel_hardware();
    // Straight tiled run with a mid-run checkpoint cadence.
    let blobs = Arc::new(Mutex::new(Vec::new()));
    let straight = checkpointed_run(4, &blobs, None);
    let blobs = blobs.lock().unwrap().clone();
    assert!(
        blobs.len() >= 3,
        "cadence captured only {} checkpoints",
        blobs.len()
    );

    // Kill-and-resume from an early, a middle and the last capture: the
    // resumed run must rebuild the hot window from the particle list and
    // finish bitwise identical to the uninterrupted run.
    let scratch = Arc::new(Mutex::new(Vec::new()));
    for idx in [0, blobs.len() / 2, blobs.len() - 1] {
        let resumed = checkpointed_run(4, &scratch, Some(&blobs[idx]));
        assert_same_packing(&straight, &resumed, &format!("resume from capture {idx}"));
    }

    // And the tiled checkpointed run equals the untiled checkpointed run:
    // checkpoints do not perturb the tiling parity contract.
    let untiled = checkpointed_run(1, &scratch, None);
    assert_same_packing(&straight, &untiled, "tiled vs untiled, checkpointing on");
}
