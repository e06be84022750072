//! Hyper-parameters for the collective-arrangement packer.
//!
//! Defaults follow the paper's §IV tuning: `α = 100, β = 10, γ = 100`,
//! `patience = 50`, `max_steps = 2000`, batch size 500, and Adam+AMSGrad
//! under a `ReduceLROnPlateau` schedule starting at `10⁻²` (the best
//! configuration of Fig. 3).

use adampack_geometry::Axis;
use adampack_opt::{
    Adam, AdamConfig, ConstantLr, Kernel, LrScheduler, NAdam, NAdamConfig, Optimizer,
    ReduceLrOnPlateau, ReduceLrOnPlateauConfig, RmsProp, RmsPropConfig, Sgd, SgdConfig,
};

use crate::neighbor::{self, NeighborStrategy, SweepOrder};
use crate::objective::ObjectiveWeights;

/// Neighbor-search configuration for the objective's pair scans.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NeighborParams {
    /// Which pair-search pipeline the objective uses. Every strategy packs
    /// the same bytes; `naive` is the exact oracle.
    pub strategy: NeighborStrategy,
    /// Always [`SweepOrder::Strided`]. Kept only because the frozen
    /// benchmark reads it; delete it in the next benchmark change.
    #[doc(hidden)]
    pub order: SweepOrder,
}

impl NeighborParams {
    /// The Verlet skin for a batch with the given radii: the packer's one
    /// fixed skin, [`neighbor::skin_for`].
    pub fn skin_for(&self, radii: &[f64]) -> f64 {
        neighbor::skin_for(radii)
    }
}

/// Which optimizer drives the batch arrangement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerKind {
    /// Adam with the AMSGrad maximum (the paper's optimizer).
    AmsGrad,
    /// Plain Adam.
    Adam,
    /// Plain SGD (ablation).
    Sgd,
    /// SGD with momentum 0.9 (ablation).
    Momentum,
    /// RMSProp (ablation).
    RmsProp,
    /// Nesterov-accelerated Adam (ablation / extension).
    NAdam,
}

impl OptimizerKind {
    /// Instantiates the optimizer for `n_params` scalar parameters with an
    /// explicit arithmetic kernel for its update loop (honored by the Adam
    /// family; the ablation optimizers are scalar-only and ignore it).
    pub fn build_with_kernel(self, lr: f64, n_params: usize, kernel: Kernel) -> Box<dyn Optimizer> {
        match self {
            OptimizerKind::AmsGrad => Box::new(Adam::new(
                AdamConfig {
                    lr,
                    amsgrad: true,
                    kernel,
                    ..AdamConfig::default()
                },
                n_params,
            )),
            OptimizerKind::Adam => Box::new(Adam::new(
                AdamConfig {
                    lr,
                    amsgrad: false,
                    kernel,
                    ..AdamConfig::default()
                },
                n_params,
            )),
            OptimizerKind::Sgd => Box::new(Sgd::new(
                SgdConfig {
                    lr,
                    ..SgdConfig::default()
                },
                n_params,
            )),
            OptimizerKind::Momentum => Box::new(Sgd::new(
                SgdConfig {
                    lr,
                    momentum: 0.9,
                    ..SgdConfig::default()
                },
                n_params,
            )),
            OptimizerKind::RmsProp => Box::new(RmsProp::new(
                RmsPropConfig {
                    lr,
                    ..RmsPropConfig::default()
                },
                n_params,
            )),
            OptimizerKind::NAdam => Box::new(NAdam::new(
                NAdamConfig {
                    lr,
                    ..NAdamConfig::default()
                },
                n_params,
            )),
        }
    }
}

/// The learning-rate policy for batch optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrPolicy {
    /// Fixed learning rate (Fig. 3's `10⁻²`/`10⁻³`/`10⁻⁴` curves).
    Fixed(f64),
    /// `ReduceLROnPlateau` from the given initial LR (Fig. 3's best curves).
    Plateau {
        /// Initial learning rate.
        initial: f64,
        /// Multiplicative reduction factor.
        factor: f64,
        /// Plateau length tolerated before reducing.
        patience: u64,
        /// Lower bound on the LR.
        min_lr: f64,
    },
}

impl LrPolicy {
    /// The paper's best configuration: plateau scheduling from `10⁻²`.
    pub fn paper_default() -> LrPolicy {
        LrPolicy::Plateau {
            initial: 1e-2,
            factor: 0.5,
            patience: 20,
            min_lr: 1e-5,
        }
    }

    /// Initial learning rate of the policy.
    pub fn initial_lr(&self) -> f64 {
        match *self {
            LrPolicy::Fixed(lr) => lr,
            LrPolicy::Plateau { initial, .. } => initial,
        }
    }

    /// Instantiates the scheduler.
    pub fn build(&self) -> Box<dyn LrScheduler> {
        match *self {
            LrPolicy::Fixed(lr) => Box::new(ConstantLr::new(lr)),
            LrPolicy::Plateau {
                initial,
                factor,
                patience,
                min_lr,
            } => Box::new(ReduceLrOnPlateau::new(ReduceLrOnPlateauConfig {
                initial_lr: initial,
                factor,
                patience,
                min_lr,
                ..ReduceLrOnPlateauConfig::default()
            })),
        }
    }
}

/// Divergence-sentinel configuration: the step-loop guard that catches
/// non-finite losses/gradients and displacement explosions, rolls the batch
/// back to the last good snapshot and tightens the learning rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SentinelParams {
    /// Enables the guard. Off, a non-finite loss poisons the whole batch
    /// (the pre-sentinel behavior).
    pub enabled: bool,
    /// Rollbacks tolerated per batch before the sentinel gives up: a
    /// persistent stream of non-finite values aborts the run with
    /// [`crate::collective::PackError::Diverged`], while finite-but-
    /// exploding batches are abandoned to acceptance (rejected and halved).
    pub max_recoveries: usize,
    /// Steps between in-memory good-state snapshots. Smaller values lose
    /// less progress per rollback but copy the coordinate buffers more
    /// often.
    pub snapshot_every: usize,
    /// A step is an "explosion" when any coordinate strays farther than
    /// this multiple of the container's AABB diagonal from the AABB center.
    pub explosion_factor: f64,
}

impl Default for SentinelParams {
    fn default() -> Self {
        SentinelParams {
            enabled: true,
            max_recoveries: 8,
            snapshot_every: 25,
            explosion_factor: 4.0,
        }
    }
}

impl SentinelParams {
    /// Panics on inconsistent settings.
    pub fn validate(&self) {
        assert!(self.max_recoveries > 0, "max_recoveries must be positive");
        assert!(self.snapshot_every > 0, "snapshot_every must be positive");
        assert!(
            self.explosion_factor.is_finite() && self.explosion_factor > 0.0,
            "explosion_factor must be positive and finite, got {}",
            self.explosion_factor
        );
    }
}

/// All hyper-parameters of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct PackingParams {
    /// Objective weights `(α, β, γ)`; paper default `(100, 10, 100)`.
    pub weights: ObjectiveWeights,
    /// Particles per batch; paper default 500 (optimal range 500–1000,
    /// Fig. 2).
    pub batch_size: usize,
    /// Total number of particles to pack (`nb_max` in Algorithm 1).
    pub target_count: usize,
    /// Hard cap on optimizer steps per batch; paper default 2000.
    pub max_steps: usize,
    /// Steps without objective improvement before a batch stops; paper
    /// default 50.
    pub patience: usize,
    /// Learning-rate policy; paper default plateau-from-`10⁻²`.
    pub lr: LrPolicy,
    /// Optimizer; paper default Adam+AMSGrad.
    pub optimizer: OptimizerKind,
    /// Gravity axis (altitude measured along its `up`); paper default `z`.
    pub gravity: Axis,
    /// RNG seed; fixing it makes the whole packing deterministic (§IV).
    pub seed: u64,
    /// Batch acceptance threshold: mean contact overlap (relative to the
    /// smaller radius of each contact) and mean relative boundary excess
    /// must both stay below this value, else the batch is rejected and
    /// halved (Algorithm 1 line 19/24).
    pub accept_mean_overlap: f64,
    /// Secondary acceptance threshold on the *worst* single contact overlap
    /// and boundary excess. The mean criterion alone lets one deeply
    /// interpenetrating pair hide among thousands of light contacts in a
    /// full container; this bounds it.
    pub accept_max_overlap: f64,
    /// Assumed packing fraction of the spawn slab when sizing it; lower
    /// values spawn thicker, sparser layers.
    pub spawn_density: f64,
    /// Minimum relative objective improvement that resets the patience
    /// counter.
    pub improvement_tol: f64,
    /// Neighbor-search pipeline configuration (strategy + Verlet skin).
    pub neighbor: NeighborParams,
    /// Divergence-sentinel configuration (rollback + LR tightening on
    /// non-finite or exploding steps).
    pub sentinel: SentinelParams,
    /// Arithmetic kernel for the hot loops (objective pair/plane scans and
    /// the Adam update). `Simd` and `Scalar` are bitwise interchangeable;
    /// the scalar path survives as the correctness oracle.
    pub kernel: Kernel,
}

impl Default for PackingParams {
    fn default() -> Self {
        PackingParams {
            weights: ObjectiveWeights::default(),
            batch_size: 500,
            target_count: 500,
            max_steps: 2000,
            patience: 50,
            lr: LrPolicy::paper_default(),
            optimizer: OptimizerKind::AmsGrad,
            gravity: Axis::Z,
            seed: 0,
            accept_mean_overlap: 0.03,
            accept_max_overlap: 0.25,
            spawn_density: 0.20,
            improvement_tol: 1e-6,
            neighbor: NeighborParams::default(),
            sentinel: SentinelParams::default(),
            kernel: Kernel::default(),
        }
    }
}

impl PackingParams {
    /// Panics on inconsistent settings.
    pub fn validate(&self) {
        assert!(self.batch_size > 0, "batch_size must be positive");
        assert!(self.max_steps > 0, "max_steps must be positive");
        assert!(self.patience > 0, "patience must be positive");
        assert!(self.lr.initial_lr() > 0.0, "initial lr must be positive");
        assert!(
            self.accept_mean_overlap > 0.0 && self.accept_mean_overlap < 1.0,
            "accept_mean_overlap must be in (0, 1)"
        );
        assert!(
            self.accept_max_overlap >= self.accept_mean_overlap && self.accept_max_overlap < 1.0,
            "accept_max_overlap must be in [accept_mean_overlap, 1)"
        );
        assert!(
            self.spawn_density > 0.0 && self.spawn_density < 1.0,
            "spawn_density must be in (0, 1)"
        );
        self.weights.validate();
        self.sentinel.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_pin_paper_values() {
        let p = PackingParams::default();
        assert_eq!(p.weights.alpha, 100.0);
        assert_eq!(p.weights.beta, 10.0);
        assert_eq!(p.weights.gamma, 100.0);
        assert_eq!(p.batch_size, 500);
        assert_eq!(p.max_steps, 2000);
        assert_eq!(p.patience, 50);
        assert_eq!(p.optimizer, OptimizerKind::AmsGrad);
        assert_eq!(p.gravity, Axis::Z);
        assert_eq!(p.lr.initial_lr(), 1e-2);
        assert!(p.accept_max_overlap >= p.accept_mean_overlap);
        assert_eq!(p.neighbor.strategy, NeighborStrategy::Verlet);
        assert_eq!(p.kernel, Kernel::Simd);
        assert!(p.sentinel.enabled);
        assert_eq!(p.sentinel.max_recoveries, 8);
        assert_eq!(p.sentinel.snapshot_every, 25);
        p.validate();
    }

    #[test]
    #[should_panic(expected = "explosion_factor")]
    fn non_finite_explosion_factor_rejected() {
        let p = PackingParams {
            sentinel: SentinelParams {
                explosion_factor: f64::NAN,
                ..SentinelParams::default()
            },
            ..PackingParams::default()
        };
        p.validate();
    }

    #[test]
    fn neighbor_skin_scales_with_batch_radius() {
        let n = NeighborParams::default();
        let skin = n.skin_for(&[0.1, 0.5, 0.2]);
        assert_eq!(skin, neighbor::SKIN_RADII * 0.5);
        // Empty or zero radii fall back to the epsilon floor.
        assert!(n.skin_for(&[]) > 0.0);
    }

    #[test]
    fn optimizer_kinds_build() {
        for kind in [
            OptimizerKind::AmsGrad,
            OptimizerKind::Adam,
            OptimizerKind::Sgd,
            OptimizerKind::Momentum,
            OptimizerKind::RmsProp,
            OptimizerKind::NAdam,
        ] {
            for kernel in [Kernel::Scalar, Kernel::Simd] {
                let o = kind.build_with_kernel(0.01, 6, kernel);
                assert_eq!(o.n_params(), 6);
                assert_eq!(o.lr(), 0.01);
            }
        }
    }

    #[test]
    fn lr_policies_build_and_report_initial() {
        for policy in [LrPolicy::Fixed(1e-3), LrPolicy::paper_default()] {
            let mut s = policy.build();
            assert_eq!(s.current_lr(), policy.initial_lr());
            let lr = s.step(1.0);
            assert!(lr > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "batch_size")]
    fn zero_batch_rejected() {
        let p = PackingParams {
            batch_size: 0,
            ..PackingParams::default()
        };
        p.validate();
    }
}
