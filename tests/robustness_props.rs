//! Property tests for the fault-tolerance layer's foundations: the
//! checkpoint codec must never panic on hostile bytes, the plateau
//! scheduler must survive arbitrary (including non-finite) loss streams
//! with its learning rate pinned inside `[min_lr, initial_lr]`, and
//! optimizer snapshots must restore the remaining trajectory bitwise —
//! these are exactly the invariants the divergence sentinel and the
//! resume path lean on. Hostile numbers in a config end in a typed error
//! before they reach the packer.

use adampack_config::PackingConfig;
use adampack_core::checkpoint::{self, RunState};
use adampack_core::prelude::*;
use adampack_geometry::{shapes, Vec3};
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

/// An `f64` from arbitrary bits, with the values that break the PSD and
/// optimizer rules (NaN, ±∞, zeros, overflowing magnitudes) and a typical
/// radius drawn often enough that every branch runs.
fn hostile_f64() -> impl Strategy<Value = f64> {
    (0u32..10, 0u64..=u64::MAX).prop_map(|(pick, bits)| match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => 1e308,
        5 => 0.1,
        6 => 0.01,
        _ => f64::from_bits(bits),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any value in a particle set's radius keys, in `params.lr` or on the
    /// radius-scale axis makes parsing and system resolution return `Ok`
    /// or a config error, never panic: a panic there killed the server's
    /// HTTP thread that resolved the submission.
    #[test]
    fn hostile_config_numbers_end_in_typed_errors(
        dist in 0usize..3,
        a in hostile_f64(),
        b in hostile_f64(),
        lr in hostile_f64(),
        scale in hostile_f64(),
    ) {
        let set = match dist {
            0 => format!("constant\n    radius_value: {a:?}"),
            1 => format!("uniform\n    radius_min: {a:?}\n    radius_max: {b:?}"),
            _ => format!("normal\n    radius_mean: {a:?}\n    radius_std_dev: {b:?}"),
        };
        let yaml = format!(
            "container:\n  path: box.stl\nparams:\n  lr: {lr:?}\n\
             particle_sets:\n  - radius_distribution: {set}\n\
             batch:\n  radius_scales: [{scale:?}]\n"
        );
        let container =
            Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0))).unwrap();
        if let Ok(cfg) = PackingConfig::from_str(&yaml) {
            let _ = cfg.systems(&container, None);
            let _ = cfg.systems(&container, cfg.batch.as_ref());
        }
    }

    /// Any value in a zone's set weights or slice bounds makes parsing
    /// and the zone resolution `adampack pack` runs (systems, zone specs,
    /// `BatchedPacker::zoned`) return `Ok` or a typed error, never panic:
    /// an infinite weight panicked in `Psd::mixture`, and NaN weights or
    /// bounds packed unchecked.
    #[test]
    fn hostile_zone_numbers_end_in_typed_errors(
        w0 in hostile_f64(),
        w1 in hostile_f64(),
        lo in hostile_f64(),
        hi in hostile_f64(),
    ) {
        if let Ok(cfg) = PackingConfig::from_str(&zone_yaml([w0, w1], lo, hi)) {
            prop_assert!(w0.is_finite() && w1.is_finite() && lo.is_finite() && hi.is_finite());
            let _ = resolve_zones(&cfg);
        }
    }
}

/// A two-set config with one slice zone over z ∈ `[lo, hi]` weighting the
/// sets by `w`.
fn zone_yaml(w: [f64; 2], lo: f64, hi: f64) -> String {
    format!(
        "container:\n  path: box.stl\nparams:\n  batch_size: 5\n\
         particle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\n\
         \x20 - radius_distribution: uniform\n    radius_min: 0.05\n    radius_max: 0.2\n\
         zones:\n  - n_particles: 5\n    location:\n      slice:\n        axis: z\n\
         \x20       min_bound: {lo:?}\n        max_bound: {hi:?}\n\
         \x20   set_proportions: [{:?}, {:?}]\n",
        w[0], w[1]
    )
}

/// The zone resolution `adampack pack` runs on a zoned config, in a 2×2×2
/// box: systems, zone specs, then the zoned driver.
fn resolve_zones(cfg: &PackingConfig) -> Result<BatchedPacker, EmptyZone> {
    let container = Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0))).unwrap();
    let specs = cfg.systems(&container, None).expect("valid radii");
    let zones = cfg
        .zone_specs(|_| unreachable!("slice zones load no shape"))
        .expect("slice zones");
    BatchedPacker::zoned(&container, specs[0].params.clone(), &cfg.psds(), &zones)
}

#[test]
fn zone_template_resolves_for_sane_numbers() {
    let cfg = PackingConfig::from_str(&zone_yaml([0.7, 0.3], -1.0, 0.0)).unwrap();
    assert_eq!(cfg.zones.len(), 1);
    assert!(resolve_zones(&cfg).is_ok());
    let outside = PackingConfig::from_str(&zone_yaml([1.0, 0.0], 5.0, 6.0)).unwrap();
    assert!(resolve_zones(&outside).is_err());
}
