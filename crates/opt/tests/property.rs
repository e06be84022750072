//! Property tests for optimizers and schedulers.

use adampack_opt::{
    Adam, AdamConfig, ConstantLr, LrScheduler, NAdam, NAdamConfig, Optimizer, ReduceLrOnPlateau,
    ReduceLrOnPlateauConfig, RmsProp, RmsPropConfig, Sgd, SgdConfig,
};
use proptest::prelude::*;

/// The six configurations the packer's optimizer kinds build (Adam,
/// AMSGrad, SGD, momentum 0.9, RMSProp, NAdam), by name.
fn packer_optimizer(name: &str, lr: f64, n: usize) -> Box<dyn Optimizer> {
    let adam = |amsgrad| AdamConfig {
        lr,
        amsgrad,
        ..AdamConfig::default()
    };
    let sgd = |momentum| SgdConfig {
        lr,
        momentum,
        ..SgdConfig::default()
    };
    match name {
        "adam" => Box::new(Adam::new(adam(false), n)),
        "amsgrad" => Box::new(Adam::new(adam(true), n)),
        "sgd" => Box::new(Sgd::new(sgd(0.0), n)),
        "momentum" => Box::new(Sgd::new(sgd(0.9), n)),
        "rmsprop" => Box::new(RmsProp::new(
            RmsPropConfig {
                lr,
                ..RmsPropConfig::default()
            },
            n,
        )),
        "nadam" => Box::new(NAdam::new(
            NAdamConfig {
                lr,
                ..NAdamConfig::default()
            },
            n,
        )),
        other => unreachable!("no optimizer named {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn adam_first_step_magnitude_is_at_most_lr(
        lr in 1e-4f64..1.0,
        g in prop::collection::vec(-100.0f64..100.0, 1..10),
    ) {
        // Adam's bias-corrected first step is lr·g/|g| ⇒ magnitude ≤ lr.
        prop_assume!(g.iter().all(|x| x.abs() > 1e-9));
        let mut opt = Adam::new(AdamConfig { lr, ..AdamConfig::default() }, g.len());
        let mut p = vec![0.0; g.len()];
        opt.step(&mut p, &g);
        for (i, &x) in p.iter().enumerate() {
            prop_assert!(x.abs() <= lr * (1.0 + 1e-9), "param {i}: |{x}| > lr {lr}");
            // Direction opposes the gradient.
            prop_assert!(x * g[i] <= 0.0);
        }
    }

    #[test]
    fn amsgrad_effective_lr_never_grows(
        grads in prop::collection::vec(-10.0f64..10.0, 4..40),
    ) {
        // The AMSGrad denominator (√v̂max) is non-decreasing, so for a
        // constant-magnitude gradient the per-step movement cannot grow.
        let mut opt = Adam::new(
            AdamConfig { lr: 0.01, amsgrad: true, ..AdamConfig::default() },
            1,
        );
        let mut p = vec![0.0];
        let mut prev_vmax = 0.0;
        for g in &grads {
            opt.step(&mut p, &[*g]);
            let vmax = opt.v_max()[0];
            prop_assert!(vmax >= prev_vmax - 1e-18);
            prev_vmax = vmax;
        }
    }

    #[test]
    fn all_optimizers_leave_finite_state(
        name_idx in 0usize..6,
        grads in prop::collection::vec(-1e6f64..1e6, 1..30),
    ) {
        let names = ["adam", "amsgrad", "sgd", "momentum", "rmsprop", "nadam"];
        let mut opt = packer_optimizer(names[name_idx], 1e-3, 1);
        let mut p = vec![1.0];
        for g in &grads {
            opt.step(&mut p, &[*g]);
            prop_assert!(p[0].is_finite(), "{} produced non-finite params", names[name_idx]);
        }
    }

    #[test]
    fn plateau_lr_is_monotone_nonincreasing(
        metrics in prop::collection::vec(0.0f64..100.0, 1..200),
        factor in 0.1f64..0.9,
        patience in 0u64..10,
    ) {
        let mut s = ReduceLrOnPlateau::new(ReduceLrOnPlateauConfig {
            initial_lr: 1.0,
            factor,
            patience,
            ..ReduceLrOnPlateauConfig::default()
        });
        let mut last = f64::INFINITY;
        for m in metrics {
            let lr = s.step(m);
            prop_assert!(lr <= last.min(1.0) + 1e-18, "lr must never increase");
            prop_assert!(lr > 0.0);
            last = lr;
        }
    }

    #[test]
    fn constant_lr_ignores_metrics(lr in 1e-6f64..10.0, m in -1e6f64..1e6) {
        let mut s = ConstantLr::new(lr);
        prop_assert_eq!(s.step(m), lr);
    }
}
