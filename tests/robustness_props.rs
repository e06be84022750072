//! Property tests for the fault-tolerance layer's foundations: the
//! checkpoint codec must never panic on hostile bytes, the plateau
//! scheduler must survive arbitrary (including non-finite) loss streams
//! with its learning rate pinned inside `[min_lr, initial_lr]`, and
//! optimizer snapshots must restore the remaining trajectory bitwise —
//! these are exactly the invariants the divergence sentinel and the
//! resume path lean on.

use adampack_core::checkpoint::{self, RunState};
use adampack_core::prelude::*;
use adampack_geometry::Vec3;
use adampack_opt::{
    Adam, AdamConfig, LrScheduler, Optimizer, OptimizerState, ReduceLrOnPlateau,
    ReduceLrOnPlateauConfig,
};
use proptest::prelude::*;

/// A small but fully populated run state (mid-run, at a batch boundary)
/// used as the mutation target for codec robustness.
fn sample_state() -> RunState {
    RunState {
        seed: 42,
        params_fingerprint: 0xfeed_beef_dead_cafe,
        global_step: 1234,
        recoveries: 2,
        preexisting: 0,
        target: 80,
        batch_index: 1,
        packed: 40,
        batch_size: 40,
        elapsed_ns: 987_654_321,
        evals: 777,
        verlet_rebuilds: 9,
        rng: [1, 2, 3, 4],
        particles: (0..40)
            .map(|i| Particle::new(Vec3::new(i as f64 * 0.1, 0.5, 0.25), 0.1))
            .collect(),
        batches: Vec::new(),
    }
}

proptest! {
    /// Feeding arbitrary bytes to the decoder must produce a typed error
    /// or a state — never a panic, never an out-of-bounds read (a torn
    /// checkpoint file on disk is exactly "arbitrary bytes").
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec((0u32..256).prop_map(|b| b as u8), 0..512),
    ) {
        let _ = checkpoint::decode(&bytes);
    }

    /// Single-byte corruptions of a real checkpoint must never panic, and
    /// whenever the decoder does accept the bytes, re-encoding must be
    /// self-consistent (decode∘encode is the identity on accepted states).
    /// Corruption is *usually* rejected by the per-section CRCs; a flip in
    /// an already-skipped region (e.g. turning the optional batch section's
    /// tag into an unknown tag) may legitimately decode.
    #[test]
    fn corrupted_checkpoints_never_panic(at in 0usize..4096, xor in 1u32..=255) {
        let mut bytes = checkpoint::encode(&sample_state());
        let at = at % bytes.len();
        bytes[at] ^= xor as u8;
        if let Ok(state) = checkpoint::decode(&bytes) {
            let re = checkpoint::encode(&state);
            prop_assert_eq!(checkpoint::encode(&checkpoint::decode(&re).unwrap()), re);
        }
    }

    /// Truncation at every possible length must be rejected: the END
    /// footer catches cuts on section boundaries, the length/CRC headers
    /// catch cuts inside a section.
    #[test]
    fn truncations_are_always_rejected(frac in 0.0f64..1.0) {
        let bytes = checkpoint::encode(&sample_state());
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assume!(cut < bytes.len());
        prop_assert!(checkpoint::decode(&bytes[..cut]).is_err());
    }

    /// The plateau scheduler under an arbitrary metric stream — finite
    /// values, NaNs, ±∞, denormals, anything `f64` can encode — must keep
    /// its learning rate finite and inside `[min_lr, initial_lr]`, and its
    /// best-metric memory must never be poisoned by a non-finite value.
    /// (The divergence sentinel calls `force_reduction` on this machinery
    /// mid-recovery; a NaN leaking into `best` would disable every future
    /// reduction.)
    #[test]
    fn plateau_survives_hostile_metric_streams(
        bits in proptest::collection::vec(0u64..=u64::MAX, 1..200),
    ) {
        let cfg = ReduceLrOnPlateauConfig {
            initial_lr: 1e-2,
            factor: 0.5,
            patience: 3,
            min_lr: 1e-5,
            ..ReduceLrOnPlateauConfig::default()
        };
        let mut sched = ReduceLrOnPlateau::new(cfg);
        for (i, &b) in bits.iter().enumerate() {
            let metric = f64::from_bits(b);
            let lr = sched.step(metric);
            prop_assert!(lr.is_finite(), "step {i}: lr {lr} not finite");
            prop_assert!((cfg.min_lr..=cfg.initial_lr).contains(&lr), "step {i}: lr {lr} out of range");
            prop_assert!(!sched.best().is_nan(), "step {i}: best poisoned by {metric}");
            // The sentinel's recovery hook obeys the same bounds.
            if i % 7 == 3 {
                let forced = sched.force_reduction();
                prop_assert!((cfg.min_lr..=cfg.initial_lr).contains(&forced));
            }
        }
    }

    /// Scheduler snapshots restore the remaining schedule bitwise: run a
    /// prefix, snapshot, then feed the identical suffix to the original
    /// and to a freshly configured scheduler loaded from the snapshot.
    #[test]
    fn plateau_snapshot_restores_remaining_schedule_bitwise(
        prefix in proptest::collection::vec(0.0f64..100.0, 0..50),
        suffix in proptest::collection::vec(0u64..=u64::MAX, 1..50),
    ) {
        let cfg = ReduceLrOnPlateauConfig {
            initial_lr: 1e-2,
            factor: 0.5,
            patience: 2,
            min_lr: 1e-5,
            ..ReduceLrOnPlateauConfig::default()
        };
        let mut original = ReduceLrOnPlateau::new(cfg);
        for &m in &prefix {
            original.step(m);
        }
        let snap = original.save_state();
        let mut restored = ReduceLrOnPlateau::new(cfg);
        restored.load_state(snap);
        for &b in &suffix {
            let metric = f64::from_bits(b);
            let a = original.step(metric);
            let c = restored.step(metric);
            prop_assert_eq!(a.to_bits(), c.to_bits());
        }
    }

    /// Adam/AMSGrad snapshots restore the remaining trajectory bitwise and
    /// the saved slots stay finite under finite gradients — the exact
    /// invariant the sentinel's rollback relies on (restoring non-finite
    /// moments would re-diverge immediately).
    #[test]
    fn adam_snapshot_restores_remaining_trajectory_bitwise(
        amsgrad in (0u32..2).prop_map(|b| b == 1),
        grads in proptest::collection::vec(-10.0f64..10.0, 24..96),
    ) {
        let n = 8;
        let cfg = AdamConfig { amsgrad, ..AdamConfig::default() };
        let mut original = Adam::new(cfg, n);
        let mut params_a: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
        let steps: Vec<&[f64]> = grads.chunks_exact(n).collect();
        let split = steps.len() / 2;
        for g in &steps[..split] {
            original.step(&mut params_a, g);
        }
        let mut snap = OptimizerState::default();
        original.save_state(&mut snap);
        prop_assert!(snap.is_finite(), "finite gradients must keep slots finite");

        let mut restored = Adam::new(cfg, n);
        let mut params_b = params_a.clone();
        restored.load_state(&snap).unwrap();
        for g in &steps[split..] {
            original.step(&mut params_a, g);
            restored.step(&mut params_b, g);
        }
        for (a, b) in params_a.iter().zip(&params_b) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(original.steps_taken(), restored.steps_taken());
    }

    /// Loading a shape-mismatched snapshot is a typed error, not a panic
    /// or a silent partial restore.
    #[test]
    fn mismatched_snapshots_are_rejected(n in 1usize..16, m in 1usize..16) {
        prop_assume!(n != m);
        let donor = Adam::new(AdamConfig::default(), n);
        let mut snap = OptimizerState::default();
        donor.save_state(&mut snap);
        let mut receiver = Adam::new(AdamConfig::default(), m);
        prop_assert!(receiver.load_state(&snap).is_err());
    }
}
