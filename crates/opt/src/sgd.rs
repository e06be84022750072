//! Stochastic gradient descent with optional (Nesterov) momentum.

use crate::optimizer::{check_sizes, Optimizer};
use crate::state::{check_slots, load_slot, OptimizerState, StateMismatch};

/// Hyper-parameters for [`Sgd`]. Defaults match `torch.optim.SGD` with
/// `lr = 0.01`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Base learning rate.
    pub lr: f64,
    /// Momentum coefficient μ (0 disables momentum).
    pub momentum: f64,
    /// Use the Nesterov look-ahead variant (requires `momentum > 0`).
    pub nesterov: bool,
    /// L2 weight decay coefficient.
    pub weight_decay: f64,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            lr: 0.01,
            momentum: 0.0,
            nesterov: false,
            weight_decay: 0.0,
        }
    }
}

/// Plain/momentum/Nesterov SGD (PyTorch buffer semantics:
/// `b ← μ b + g`, update with `g + μ b` for Nesterov, `b` otherwise).
#[derive(Debug, Clone)]
pub struct Sgd {
    cfg: SgdConfig,
    velocity: Vec<f64>,
    t: u64,
}

impl Sgd {
    /// Creates an optimizer for `n_params` parameters.
    pub fn new(cfg: SgdConfig, n_params: usize) -> Sgd {
        assert!(
            cfg.lr > 0.0 && cfg.lr.is_finite(),
            "lr must be positive, got {}",
            cfg.lr
        );
        assert!(
            (0.0..1.0).contains(&cfg.momentum),
            "momentum must be in [0, 1)"
        );
        assert!(
            !cfg.nesterov || cfg.momentum > 0.0,
            "nesterov requires momentum > 0"
        );
        assert!(cfg.weight_decay >= 0.0, "weight_decay must be non-negative");
        Sgd {
            cfg,
            velocity: vec![0.0; n_params],
            t: 0,
        }
    }

    /// The hyper-parameters currently in force.
    pub fn config(&self) -> &SgdConfig {
        &self.cfg
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        check_sizes(self.velocity.len(), params, grads);
        self.t += 1;
        let SgdConfig {
            lr,
            momentum,
            nesterov,
            weight_decay,
        } = self.cfg;
        let first_step = self.t == 1;
        for ((p, vel), &g) in params.iter_mut().zip(&mut self.velocity).zip(grads) {
            let g = g + weight_decay * *p;
            let d = if momentum > 0.0 {
                // PyTorch initializes the buffer with the first gradient.
                let b = if first_step { g } else { momentum * *vel + g };
                *vel = b;
                if nesterov {
                    g + momentum * b
                } else {
                    b
                }
            } else {
                g
            };
            *p -= lr * d;
        }
    }

    fn lr(&self) -> f64 {
        self.cfg.lr
    }

    fn set_lr(&mut self, lr: f64) {
        assert!(lr > 0.0 && lr.is_finite(), "lr must be positive, got {lr}");
        self.cfg.lr = lr;
    }

    fn n_params(&self) -> usize {
        self.velocity.len()
    }

    fn steps_taken(&self) -> u64 {
        self.t
    }

    fn save_state(&self, out: &mut OptimizerState) {
        // `t` matters beyond bookkeeping: PyTorch's first-step buffer
        // initialization keys off it.
        let slots = out.refill(self.t, self.cfg.lr, 1);
        slots[0].extend_from_slice(&self.velocity);
    }

    fn load_state(&mut self, state: &OptimizerState) -> Result<(), StateMismatch> {
        check_slots(state, 1)?;
        load_slot(&mut self.velocity, &state.slots[0], "velocity")?;
        self.t = state.t;
        self.set_lr(state.lr);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_step_is_lr_times_grad() {
        let mut sgd = Sgd::new(
            SgdConfig {
                lr: 0.1,
                ..SgdConfig::default()
            },
            2,
        );
        let mut p = vec![1.0, -1.0];
        sgd.step(&mut p, &[2.0, -4.0]);
        assert!((p[0] - 0.8).abs() < 1e-15);
        assert!((p[1] + 0.6).abs() < 1e-15);
    }

    #[test]
    fn momentum_accumulates() {
        let cfg = SgdConfig {
            lr: 0.1,
            momentum: 0.9,
            ..SgdConfig::default()
        };
        let mut sgd = Sgd::new(cfg, 1);
        let mut p = vec![0.0];
        sgd.step(&mut p, &[1.0]); // b = 1, Δ = 0.1
        assert!((p[0] + 0.1).abs() < 1e-15);
        sgd.step(&mut p, &[1.0]); // b = 1.9, Δ = 0.19
        assert!((p[0] + 0.29).abs() < 1e-15);
        sgd.step(&mut p, &[1.0]); // b = 2.71
        assert!((p[0] + 0.29 - -0.271).abs() < 1e-12);
    }

    #[test]
    fn nesterov_takes_larger_first_step_under_constant_gradient() {
        let base = SgdConfig {
            lr: 0.1,
            momentum: 0.9,
            ..SgdConfig::default()
        };
        let mut plain = Sgd::new(base, 1);
        let mut nest = Sgd::new(
            SgdConfig {
                nesterov: true,
                ..base
            },
            1,
        );
        let (mut pp, mut pn) = (vec![0.0], vec![0.0]);
        plain.step(&mut pp, &[1.0]);
        nest.step(&mut pn, &[1.0]);
        // Nesterov: Δ = lr (g + μ b) = 0.1 · 1.9.
        assert!((pn[0] + 0.19).abs() < 1e-15);
        assert!(pn[0].abs() > pp[0].abs());
    }

    #[test]
    fn momentum_overshoots_then_returns_on_quadratic() {
        // Sanity: heavy-ball dynamics still converge on x².
        let mut sgd = Sgd::new(
            SgdConfig {
                lr: 0.05,
                momentum: 0.9,
                ..SgdConfig::default()
            },
            1,
        );
        let mut p = vec![1.0];
        for _ in 0..300 {
            let g = [2.0 * p[0]];
            sgd.step(&mut p, &g);
        }
        assert!(p[0].abs() < 1e-6, "p = {}", p[0]);
    }

    #[test]
    #[should_panic(expected = "nesterov requires momentum")]
    fn nesterov_without_momentum_rejected() {
        let _ = Sgd::new(
            SgdConfig {
                nesterov: true,
                momentum: 0.0,
                ..SgdConfig::default()
            },
            1,
        );
    }
}
