//! # adampack-opt
//!
//! First-order stochastic optimizers and learning-rate schedulers — the
//! `torch.optim` substitute for the adampack workspace.
//!
//! The paper minimizes its packing objective with **Adam** \[24\] in its
//! **AMSGrad** variant \[26\], driven by PyTorch's `ReduceLROnPlateau`
//! scheduler (§IV-B). This crate implements those two exactly (PyTorch
//! update-rule semantics, so step-for-step traces match the reference
//! implementation), plus the optimizers the ablation benchmark compares it
//! with (SGD, SGD with momentum, RMSProp, NAdam) and fixed-rate and cosine
//! schedules.
//!
//! All optimizers operate on flat `&mut [f64]` parameter slices — the packing
//! core stores sphere centres as a structure-of-arrays `[x0..xn, y0..yn,
//! z0..zn]` buffer and passes it here directly, so there is no per-particle
//! allocation in the hot loop.
//!
//! ```
//! use adampack_opt::{Adam, AdamConfig, Optimizer};
//!
//! // Minimize f(x) = x² starting from x = 1.
//! let mut params = vec![1.0_f64];
//! let mut adam = Adam::new(AdamConfig { lr: 0.1, ..AdamConfig::default() }, 1);
//! for _ in 0..200 {
//!     let grads = vec![2.0 * params[0]];
//!     adam.step(&mut params, &grads);
//! }
//! assert!(params[0].abs() < 1e-3);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod adam;
mod kernel;
mod nadam;
mod optimizer;
mod rmsprop;
mod scheduler;
mod sgd;
mod state;

pub use adam::{Adam, AdamConfig};
pub use kernel::Kernel;
pub use nadam::{NAdam, NAdamConfig};
pub use optimizer::Optimizer;
pub use rmsprop::{RmsProp, RmsPropConfig};
pub use scheduler::{
    ConstantLr, CosineAnnealingLr, LrScheduler, ReduceLrOnPlateau, ReduceLrOnPlateauConfig,
    ThresholdMode,
};
pub use sgd::{Sgd, SgdConfig};
pub use state::{OptimizerState, SchedulerState, StateMismatch};

#[cfg(test)]
mod tests {
    use super::*;

    /// Every optimizer the packer can select must make progress on a
    /// smooth convex quadratic: the six configurations its optimizer kinds
    /// build (Adam, AMSGrad, SGD, momentum 0.9, RMSProp, NAdam).
    #[test]
    fn all_optimizers_descend_quadratic_bowl() {
        let lr = 0.05;
        let n = 2;
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
        let optimizers: [(&str, Box<dyn Optimizer>); 6] = [
            ("adam", Box::new(Adam::new(adam(false), n))),
            ("amsgrad", Box::new(Adam::new(adam(true), n))),
            ("sgd", Box::new(Sgd::new(sgd(0.0), n))),
            ("momentum", Box::new(Sgd::new(sgd(0.9), n))),
            (
                "rmsprop",
                Box::new(RmsProp::new(
                    RmsPropConfig {
                        lr,
                        ..RmsPropConfig::default()
                    },
                    n,
                )),
            ),
            (
                "nadam",
                Box::new(NAdam::new(
                    NAdamConfig {
                        lr,
                        ..NAdamConfig::default()
                    },
                    n,
                )),
            ),
        ];
        for (name, mut opt) in optimizers {
            let mut p = vec![3.0, -2.0];
            let f = |p: &[f64]| p[0] * p[0] + 4.0 * p[1] * p[1];
            let f0 = f(&p);
            for _ in 0..3000 {
                let g = vec![2.0 * p[0], 8.0 * p[1]];
                opt.step(&mut p, &g);
            }
            assert!(
                f(&p) < f0 * 1e-2,
                "{name}: f went from {f0} to {} at {p:?}",
                f(&p)
            );
        }
    }
}
