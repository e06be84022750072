//! Fault injection: every recovery path in the fault-tolerance layer,
//! exercised end-to-end with the `failpoints` facility compiled in
//! (`features = ["enabled"]` — the sites are inert no-ops in production
//! builds).
//!
//! The matrix proven here:
//!
//! * **Kill + resume** — a run interrupted at an arbitrary checkpoint and
//!   resumed from the encoded bytes finishes bitwise identical to the
//!   uninterrupted run, across scalar/SIMD kernels and 1/4-thread pools,
//!   including the step trace tail. Checkpoints are batch-boundary
//!   captures, so the checkpointed run itself equals a run without any
//!   cadence and the same run at another cadence.
//! * **Torn / corrupt checkpoints** — truncated and bit-flipped files are
//!   rejected by the CRC/footer checks, and the rotated `keep_last`
//!   history still yields the newest *valid* state.
//! * **Objective NaN** — the divergence sentinel rolls back, cuts the
//!   learning rate, and the run completes with finite fitness; an
//!   unrecoverable stream of NaNs exhausts the budget into a typed
//!   [`PackError::Diverged`], for single and zoned packings alike. The
//!   steps a rollback reverts reach neither the trace nor the diagnostics,
//!   which consume the same record stream.
//! * **Checkpoint write failure** — a failing sink is counted and skipped,
//!   never aborts the run, and the next boundary retries the save (single
//!   runs and batched sweeps alike).
//! * **Output write failures** — STL/CSV/VTK writers surface the injected
//!   error instead of a partial file.
//! * **Grid rebuild panic** — the JSONL trace file stays parseable
//!   line-by-line thanks to the sink's drop-flush guard.
//!
//! The failpoint registry is process-global, so every test here holds a
//! `failpoints::FailGuard` for its whole body (poison-tolerant: the panic
//! test poisons the lock by design).

use std::fs;
use std::io::BufWriter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use adampack_core::checkpoint;
use adampack_core::prelude::*;
use adampack_geometry::{shapes, Vec3};
use adampack_io::{
    checkpoint_candidates, write_particles_csv, write_particles_vtk, write_stl_ascii,
    RotatingCheckpointWriter,
};
use adampack_telemetry::metrics::{STEPS_TOTAL, TRACE_RECORDS_TOTAL};
use adampack_telemetry::{DiagRecord, JsonlWriter, StepRecord, TraceSink, VecSink};
use failpoints::FailGuard;

/// See tests/determinism.rs: raise the pool-width cap before the first
/// parallel region resolves it, so 1-core CI still exercises parallelism.
fn force_parallel_hardware() {
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", "8");
    }
}

/// Eight batches of ten: checkpoints land only at batch boundaries, so the
/// scenario needs several of them to kill and resume at.
fn packer(seed: u64, kernel: Kernel) -> CollectivePacker {
    force_parallel_hardware();
    let mesh = shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0));
    let container = Container::from_mesh(&mesh).unwrap();
    let params = PackingParams {
        batch_size: 10,
        target_count: 80,
        max_steps: 500,
        patience: 50,
        seed,
        kernel,
        ..PackingParams::default()
    };
    CollectivePacker::new(container, params)
}

fn psd() -> Psd {
    Psd::uniform(0.09, 0.13)
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adampack_fault_{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Checkpoint sink capturing every encoded state in memory — the
/// "filesystem" of the kill-and-resume tests, with the encode/decode codec
/// on the path so resume exercises the real wire format.
#[derive(Clone, Default)]
struct MemorySink(Arc<Mutex<Vec<Vec<u8>>>>);

impl CheckpointSink for MemorySink {
    fn save(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.0.lock().unwrap().push(bytes.to_vec());
        Ok(())
    }
}

/// Checkpoint sink persisting through the rotating atomic writer — the
/// CLI's on-disk path, reused here to prove write-failure tolerance.
struct FileSink(RotatingCheckpointWriter);

impl CheckpointSink for FileSink {
    fn save(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.0.save(bytes).map_err(|e| e.to_string())
    }
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

/// Runs the reference scenario through the run driver with a checkpoint
/// cadence and a tracer — resumed from the checkpoint `from` when given, as
/// if the process had been killed right after that write — returning the
/// result, the encoded checkpoints, and the step trace.
fn checkpointed_run(
    seed: u64,
    kernel: Kernel,
    every_steps: usize,
    from: Option<&[u8]>,
) -> (PackResult, Vec<Vec<u8>>, Vec<StepRecord>) {
    let sink = MemorySink::default();
    let trace = VecSink::default();
    let mut p = packer(seed, kernel);
    p.set_trace_sink(Box::new(trace.clone()));
    let mut driver = BatchedPacker::plain(p, psd());
    driver.set_checkpoint_sink(Box::new(sink.clone()), every_steps);
    if let Some(blob) = from {
        let state = DriverState::decode(blob, false).expect("captured checkpoint decodes");
        driver.resume(state).expect("captured checkpoint resumes");
    }
    let result = driver.run().remove(0).result.expect("run packs");
    let blobs = sink.0.lock().unwrap().clone();
    (result, blobs, trace.records())
}

/// Asserts a checkpointed run (`straight`, with its step `trace`) equals the
/// same scenario with no checkpoint sink and at cadence `other_steps`,
/// trace included: checkpoint cadence never changes the packing.
fn assert_cadence_independent(
    seed: u64,
    kernel: Kernel,
    (straight, trace): (&PackResult, &[StepRecord]),
    other_steps: usize,
    what: &str,
) {
    let plain = packer(seed, kernel)
        .try_pack(&psd())
        .expect("plain run packs");
    assert_same_packing(&plain, straight, &format!("{what}: no cadence vs cadence"));
    let (other, other_blobs, other_trace) = checkpointed_run(seed, kernel, other_steps, None);
    assert!(
        !other_blobs.is_empty(),
        "{what}: cadence {other_steps} never saved"
    );
    let what = format!("{what}: cadence {other_steps}");
    assert_same_packing(straight, &other, &what);
    assert_same_trace(&trace.iter().collect::<Vec<_>>(), &other_trace, &what);
}

/// The step-trace suffix a resume from `blob` must reproduce bitwise: every
/// checkpoint is a batch boundary, so the cut is the batch index alone.
fn trace_tail<'a>(full: &'a [StepRecord], blob: &[u8]) -> Vec<&'a StepRecord> {
    let cut_batch = checkpoint::decode(blob).unwrap().batch_index;
    full.iter().filter(|r| r.batch >= cut_batch).collect()
}

fn assert_same_trace(expected: &[&StepRecord], got: &[StepRecord], what: &str) {
    assert_eq!(expected.len(), got.len(), "{what}: trace length");
    for (ra, rb) in expected.iter().zip(got) {
        assert_eq!(ra.batch, rb.batch, "{what}: batch");
        assert_eq!(ra.step, rb.step, "{what}: step");
        assert_eq!(ra.loss.to_bits(), rb.loss.to_bits(), "{what}: loss");
        assert_eq!(
            ra.grad_norm.to_bits(),
            rb.grad_norm.to_bits(),
            "{what}: grad norm"
        );
        assert_eq!(ra.lr.to_bits(), rb.lr.to_bits(), "{what}: lr");
        assert_eq!(
            ra.max_disp.to_bits(),
            rb.max_disp.to_bits(),
            "{what}: max displacement"
        );
        assert_eq!(
            ra.verlet_rebuilds, rb.verlet_rebuilds,
            "{what}: verlet rebuilds"
        );
    }
}

#[test]
fn kill_and_resume_is_bitwise_identical_across_kernels_and_threads() {
    let _fp = FailGuard::unarmed();
    for kernel in [Kernel::Simd, Kernel::Scalar] {
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let what = format!("{kernel} kernel, {threads} threads");
                let (straight, blobs, trace) = checkpointed_run(9, kernel, 30, None);
                assert!(
                    blobs.len() >= 2,
                    "{what}: need several cadence points, got {}",
                    blobs.len()
                );
                assert_cadence_independent(9, kernel, (&straight, &trace), 200, &what);
                let mid = &blobs[blobs.len() / 2];
                let (resumed, _, resumed_trace) = checkpointed_run(9, kernel, 30, Some(mid));
                assert_same_packing(&straight, &resumed, &what);
                assert_same_trace(&trace_tail(&trace, mid), &resumed_trace, &what);
            });
        }
    }
}

/// A ragged three-system sweep for the batched kill-and-resume scenario.
fn batched_specs() -> Vec<SystemSpec> {
    let sys = |label: &str, seed: u64, target: usize, psd: Psd| SystemSpec {
        label: label.into(),
        params: PackingParams {
            batch_size: 6,
            target_count: target,
            max_steps: 300,
            patience: 40,
            seed,
            ..PackingParams::default()
        },
        psd,
    };
    vec![
        sys("a", 13, 14, Psd::constant(0.15)),
        sys("b", 29, 9, Psd::uniform(0.11, 0.16)),
        sys("c", 37, 17, Psd::constant(0.13)),
    ]
}

#[test]
fn batched_kill_and_resume_is_bitwise_identical() {
    let _fp = FailGuard::unarmed();
    force_parallel_hardware();
    let mesh = shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0));
    let container = Container::from_mesh(&mesh).unwrap();

    // Uninterrupted batched run with a checkpoint cadence.
    let sink = MemorySink::default();
    let mut straight = BatchedPacker::new(&container, batched_specs());
    straight.set_checkpoint_sink(Box::new(sink.clone()), 20);
    let want = straight.run();
    let blobs = sink.0.lock().unwrap().clone();
    assert!(
        blobs.len() >= 2,
        "need several cadence points, got {}",
        blobs.len()
    );

    // Kill at the middle checkpoint: decode the bytes and finish the sweep
    // from them, as if the process died right after that write.
    let mid = &blobs[blobs.len() / 2];
    let state = DriverState::decode(mid, true).expect("captured batched checkpoint decodes");
    let mut resumed = BatchedPacker::new(&container, batched_specs());
    resumed.set_checkpoint_sink(Box::new(MemorySink::default()), 20);
    resumed.resume(state).expect("mid-run state resumes");
    let got = resumed.run();

    assert_eq!(want.len(), got.len());
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(w.label, g.label, "system order preserved");
        let what = format!("batched resume, system '{}'", w.label);
        assert_same_packing(
            w.result.as_ref().unwrap(),
            g.result.as_ref().unwrap(),
            &what,
        );
    }

    // A torn batched checkpoint is rejected, never half-resumed.
    assert!(checkpoint::decode_batched(&mid[..mid.len() - 5]).is_err());
}

/// Batched sink failing its first save; records the pass of every attempt.
#[derive(Clone, Default)]
struct FlakyBatchedSink(Arc<Mutex<Vec<u64>>>);

impl CheckpointSink for FlakyBatchedSink {
    fn save(&mut self, bytes: &[u8]) -> Result<(), String> {
        let state = checkpoint::decode_batched(bytes).expect("a sweep writes the batched stream");
        let mut attempts = self.0.lock().unwrap();
        attempts.push(state.pass);
        if attempts.len() == 1 {
            Err("injected write failure".into())
        } else {
            Ok(())
        }
    }
}

#[test]
fn failed_batched_checkpoint_is_retried_at_the_next_pass() {
    let _fp = FailGuard::unarmed();
    // One system, so a pass is one batch of at most `max_steps` = 200
    // steps: a 250-step cadence needs two passes to come due.
    let spec = SystemSpec {
        label: "retry".into(),
        params: PackingParams {
            batch_size: 3,
            target_count: 18,
            max_steps: 200,
            patience: 40,
            seed: 44,
            ..PackingParams::default()
        },
        psd: Psd::constant(0.13),
    };
    let mesh = shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0));
    let container = Container::from_mesh(&mesh).unwrap();
    let sink = FlakyBatchedSink::default();
    let mut batched = BatchedPacker::new(&container, vec![spec]);
    batched.set_checkpoint_sink(Box::new(sink.clone()), 250);
    batched.run();
    let attempts = sink.0.lock().unwrap().clone();
    assert!(
        attempts.len() >= 2,
        "no retry after the failure: {attempts:?}"
    );
    assert_eq!(
        attempts[1],
        attempts[0] + 1,
        "the failed save is retried at the very next pass: {attempts:?}"
    );
    if let Some(&third) = attempts.get(2) {
        assert!(third >= attempts[1] + 2, "a success restarts the cadence");
    }
}

#[test]
fn every_sampled_checkpoint_is_a_valid_resume_point() {
    let _fp = FailGuard::unarmed();
    let (straight, blobs, trace) = checkpointed_run(21, Kernel::default(), 45, None);
    assert!(blobs.len() >= 3, "need several cadence points");
    assert_cadence_independent(
        21,
        Kernel::default(),
        (&straight, &trace),
        1,
        "every-sampled scenario",
    );
    // First, middle and last cadence points (resuming from every one is
    // quadratic in the run length; the sample covers the first boundary,
    // the interior and the tail).
    for idx in [0, blobs.len() / 2, blobs.len() - 1] {
        let what = format!("resume from checkpoint {idx}/{}", blobs.len());
        let (resumed, _, resumed_trace) =
            checkpointed_run(21, Kernel::default(), 45, Some(&blobs[idx]));
        assert_same_packing(&straight, &resumed, &what);
        assert_same_trace(&trace_tail(&trace, &blobs[idx]), &resumed_trace, &what);
    }
}

#[test]
fn corrupt_newest_checkpoint_falls_back_to_rotated_history() {
    let _fp = FailGuard::unarmed();
    let (_, blobs, _) = checkpointed_run(33, Kernel::default(), 30, None);
    assert!(blobs.len() >= 2);
    let older = &blobs[blobs.len() - 2];
    let newest = &blobs[blobs.len() - 1];

    let path = temp_path("fallback.ckpt");
    let mut writer = RotatingCheckpointWriter::new(&path, 3);
    writer.save(older).unwrap();
    writer.save(newest).unwrap();

    // Tear the newest file mid-section and verify the recovery scan (the
    // CLI's resume loop) lands on the rotated predecessor.
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

    let candidates = checkpoint_candidates(&path, 3);
    assert_eq!(candidates.len(), 2, "current + one rotated file");
    let recovered = candidates
        .iter()
        .find_map(|c| checkpoint::decode(&fs::read(c).ok()?).ok())
        .expect("rotated history must yield a valid state");
    let want = checkpoint::decode(older).unwrap();
    assert_eq!(recovered.global_step, want.global_step);
    assert_eq!(recovered.rng, want.rng);
    assert_eq!(recovered.particles.len(), want.particles.len());

    // And the torn file itself is firmly rejected.
    assert!(checkpoint::decode(&fs::read(&path).unwrap()).is_err());
}

#[test]
fn bit_flipped_checkpoint_is_rejected_not_resumed() {
    let _fp = FailGuard::unarmed();
    let (_, blobs, _) = checkpointed_run(4, Kernel::default(), 60, None);
    let good = &blobs[0];
    // Flip one payload bit well inside the particle section: the section
    // CRC must catch it (resuming from silently corrupt coordinates would
    // destroy the bitwise-reproducibility contract).
    let mut bad = good.clone();
    let at = bad.len() / 2;
    bad[at] ^= 0x10;
    assert!(
        checkpoint::decode(&bad).is_err(),
        "flipped byte at {at} of {} must fail the CRC",
        bad.len()
    );
    // Truncation at any point is also rejected (the END footer catches
    // even cuts on section boundaries).
    for cut in [1, bad.len() / 3, good.len() - 1] {
        assert!(checkpoint::decode(&good[..cut]).is_err(), "cut at {cut}");
    }
}

#[test]
fn injected_objective_nan_is_recovered_by_the_sentinel() {
    // One NaN objective evaluation mid-run: the sentinel must roll back to
    // its last good snapshot, cut the learning rate, and finish finite.
    let _fp = FailGuard::arm("core.objective.eval", 40, 1);
    let mut p = packer(5, Kernel::default());
    let result = p.try_pack(&psd()).expect("one NaN must not kill the run");
    assert_eq!(failpoints::hits("core.objective.eval"), 1, "site fired");
    assert!(p.recoveries() >= 1, "sentinel must count the rollback");
    assert_eq!(
        result.recoveries,
        p.recoveries(),
        "result carries the count"
    );
    for b in &result.batches {
        assert!(b.best_fitness.is_finite(), "post-recovery fitness finite");
    }
}

#[test]
fn unrecoverable_nan_stream_exhausts_the_budget_into_a_typed_error() {
    // Every evaluation after the tenth returns NaN: rollbacks can't help,
    // so the run must stop with the typed divergence error instead of
    // looping forever or packing garbage.
    let _fp = FailGuard::arm("core.objective.eval", 10, u64::MAX);
    let mut p = packer(5, Kernel::default());
    let err = p.try_pack(&psd()).expect_err("divergence budget must trip");
    match err {
        PackError::Diverged {
            batch, recoveries, ..
        } => {
            assert_eq!(batch, 0, "first batch never stabilizes");
            assert!(recoveries >= 1, "budget spent before giving up");
        }
        other => panic!("expected Diverged, got {other:?}"),
    }
}

/// Two stacked slab zones of the reference scenario's box.
fn zoned_packer() -> BatchedPacker {
    let mesh = shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0));
    let container = Container::from_mesh(&mesh).unwrap();
    let params = PackingParams {
        batch_size: 10,
        max_steps: 500,
        patience: 50,
        seed: 5,
        ..PackingParams::default()
    };
    let slab = |min, max| ZoneSpec {
        region: ZoneRegion::Slice {
            axis: adampack_geometry::Axis::Z,
            min,
            max,
        },
        n_particles: 20,
        set_proportions: vec![1.0],
    };
    let zones = vec![slab(-1.0, 0.0), slab(0.0, 1.0)];
    BatchedPacker::zoned(&container, params, &[psd()], &zones).expect("both slabs lie in the box")
}

#[test]
fn zoned_nan_stream_is_a_typed_error_not_a_panic() {
    let _fp = FailGuard::arm("core.objective.eval", 10, u64::MAX);
    let mut packer = zoned_packer();
    let err = catch_unwind(AssertUnwindSafe(|| packer.run().remove(0).result))
        .expect("a diverged zone must not panic")
        .expect_err("divergence budget must trip");
    assert!(
        matches!(err, PackError::Diverged { batch: 0, .. }),
        "expected Diverged in the first batch, got {err:?}"
    );
}

#[test]
fn zoned_pack_reports_the_zones_recoveries() {
    let _fp = FailGuard::arm("core.objective.eval", 40, 1);
    let result = zoned_packer()
        .run()
        .remove(0)
        .result
        .expect("one NaN must not kill the run");
    assert_eq!(failpoints::hits("core.objective.eval"), 1, "site fired");
    assert_eq!(result.recoveries, 1, "the zone's rollback is reported");
}

#[test]
fn diagnostics_read_the_trace_records_without_reverted_steps() {
    // One NaN at batch 0's step 40: the sentinel rolls back to its step-25
    // snapshot, reverting 15 executed steps.
    let _fp = FailGuard::arm("core.objective.eval", 40, 1);
    let mut p = packer(5, Kernel::default());
    let trace = VecSink::default();
    p.set_trace_sink(Box::new(trace.clone()));
    p.set_diagnostics(DiagMode::Summary);
    let (steps_before, records_before) = (STEPS_TOTAL.get(), TRACE_RECORDS_TOTAL.get());
    let result = p.try_pack(&psd()).expect("one NaN must not kill the run");
    let records = trace.records();
    assert_eq!(p.recoveries(), 1);
    assert!(
        STEPS_TOTAL.get() - steps_before > records.len() as u64,
        "the rollback must revert executed steps"
    );
    assert_eq!(
        TRACE_RECORDS_TOTAL.get() - records_before,
        records.len() as u64,
        "each record counts once, though two consumers read it"
    );

    // The packer's diagnostics are exactly the trace replayed batch by
    // batch into a fresh engine (the JSON form prints every float in its
    // round-trip representation, so equal lines mean equal bits).
    let mut fresh = DiagEngine::new(DiagMode::Summary, DiagEngine::WINDOW);
    let want: Vec<DiagRecord> = result
        .batches
        .iter()
        .map(|b| {
            for r in records.iter().filter(|r| r.batch == b.index as u64) {
                fresh.record(r);
            }
            fresh.finish_batch(b.index as u64, b.accepted)
        })
        .collect();
    let json = |records: &[DiagRecord]| records.iter().map(DiagRecord::to_json).collect::<Vec<_>>();
    assert_eq!(json(&want), json(p.diagnostics()));
}

#[test]
fn checkpoint_write_failure_is_counted_and_does_not_abort_the_run() {
    let path = temp_path("tolerated.ckpt");
    let _ = fs::remove_file(&path);
    // First cadence write fails (injected before the atomic rename, so no
    // file appears); the run continues and later cadence points persist.
    let fp = FailGuard::arm("io.checkpoint.write", 0, 1);
    let mut p = BatchedPacker::plain(packer(11, Kernel::default()), psd());
    p.set_checkpoint_sink(
        Box::new(FileSink(RotatingCheckpointWriter::new(&path, 2))),
        25,
    );
    let result = p
        .run()
        .remove(0)
        .result
        .expect("failing sink must not abort");
    assert_eq!(failpoints::hits("io.checkpoint.write"), 1);
    fp.reset();
    assert!(result.reached_target(), "run completes normally");
    let bytes = fs::read(&path).expect("later cadence points still write");
    let state = checkpoint::decode(&bytes).expect("surviving file is valid");
    assert_eq!(state.seed, 11);
    // No stray temp file left behind by the failed attempt.
    assert!(!path.with_extension("ckpt.tmp").exists());
}

#[test]
fn dir_fsync_failure_is_typed_and_leaves_a_valid_fallback_chain() {
    let fp = FailGuard::unarmed();
    let path = temp_path("durable.ckpt");
    for p in checkpoint_candidates(&path, 8) {
        let _ = fs::remove_file(p);
    }
    let mut w = RotatingCheckpointWriter::new(&path, 3);
    w.save(b"gen0").unwrap();
    w.save(b"gen1").unwrap();
    // Arm the durability barrier: the next save's rename lands, but the
    // parent-directory fsync that would persist it fails — the power-loss
    // window write_atomic exists to close.
    fp.rearm("io.checkpoint.dir_sync", 0, 1);
    let err = w.save(b"gen2").expect_err("fsync dir failure must surface");
    assert_eq!(failpoints::hits("io.checkpoint.dir_sync"), 1);
    fp.reset();
    assert!(
        matches!(
            err,
            adampack_io::Error::Io {
                op: "fsync dir",
                ..
            }
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("io.checkpoint.dir_sync"), "{err}");
    // The rename itself happened — the running process sees the new bytes
    // (only their durability is unproven) — and the rotated history is a
    // valid fallback chain, so a resume can still find gen1/gen0.
    assert_eq!(fs::read(&path).unwrap(), b"gen2");
    let candidates = checkpoint_candidates(&path, 3);
    assert_eq!(candidates.len(), 3, "{candidates:?}");
    assert_eq!(fs::read(&candidates[1]).unwrap(), b"gen1");
    assert_eq!(fs::read(&candidates[2]).unwrap(), b"gen0");
    // No stray temp file, and the next save is clean end-to-end.
    assert!(!path.with_extension("ckpt.tmp").exists());
    w.save(b"gen3").unwrap();
    assert_eq!(fs::read(&path).unwrap(), b"gen3");
}

#[test]
fn output_write_failpoints_surface_errors_instead_of_partial_files() {
    let mesh = shapes::box_mesh(Vec3::ZERO, Vec3::splat(1.0));

    let fp = FailGuard::arm("io.stl.write", 0, 1);
    let err = write_stl_ascii(&mut Vec::new(), &mesh, "box").unwrap_err();
    assert!(err.to_string().contains("io.stl.write"), "{err}");

    fp.rearm("io.csv.write", 0, 1);
    let err =
        write_particles_csv(&mut Vec::new(), vec![(Vec3::ZERO, 0.1, 0usize, 0usize)]).unwrap_err();
    assert!(err.to_string().contains("io.csv.write"), "{err}");

    fp.rearm("io.vtk.write", 0, 1);
    let err = write_particles_vtk(&mut Vec::new(), &[(Vec3::ZERO, 0.1, 0)], "t").unwrap_err();
    assert!(err.to_string().contains("io.vtk.write"), "{err}");
}

#[test]
fn grid_rebuild_panic_leaves_a_parseable_jsonl_trace() {
    let fp = FailGuard::unarmed();
    let trace_path = temp_path("panic_trace.jsonl");
    let _ = fs::remove_file(&trace_path);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let file = fs::File::create(&trace_path).unwrap();
        let mut p = packer(7, Kernel::default());
        p.set_trace_sink(Box::new(JsonlWriter::new(BufWriter::new(file))));
        // Arm once batch 0 has finished (its trace drains to the file at
        // the batch boundary): the next grid rebin — batch 1's neighbor
        // canonicalization — then panics mid-run. The callback outlives
        // any borrow of `fp`, so it arms directly; the test's guard holds
        // the registry and disarms it afterwards.
        p.set_batch_callback(|stats| {
            if stats.index == 0 {
                failpoints::arm("core.grid.rebuild", 0, 1);
            }
        });
        // Unwinds through the optimizer loop; dropping the packer drops the
        // JsonlWriter, whose Drop flushes every complete line.
        let mut driver = BatchedPacker::plain(p, psd());
        driver.set_checkpoint_sink(Box::new(MemorySink::default()), 30);
        driver.run()
    }));
    assert!(outcome.is_err(), "armed rebuild must panic");
    fp.reset();

    let contents = fs::read_to_string(&trace_path).unwrap();
    let lines: Vec<&str> = contents.lines().collect();
    assert!(
        !lines.is_empty(),
        "steps before the fault must have been flushed"
    );
    for (i, line) in lines.iter().enumerate() {
        StepRecord::parse(line)
            .unwrap_or_else(|e| panic!("line {i} must stay parseable after the panic: {e}"));
    }
}
