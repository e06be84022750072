//! NAdam (Dozat, 2016): Adam with Nesterov momentum, PyTorch semantics.

use crate::optimizer::{check_sizes, Optimizer};
use crate::state::{check_slots, load_slot, mismatch, OptimizerState, StateMismatch};

/// Hyper-parameters for [`NAdam`]. Defaults match `torch.optim.NAdam`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NAdamConfig {
    /// Base learning rate.
    pub lr: f64,
    /// First-moment decay β₁.
    pub beta1: f64,
    /// Second-moment decay β₂.
    pub beta2: f64,
    /// Denominator fuzz ε.
    pub eps: f64,
    /// Momentum-decay schedule constant ψ (PyTorch `momentum_decay`).
    pub momentum_decay: f64,
}

impl Default for NAdamConfig {
    fn default() -> Self {
        NAdamConfig {
            lr: 2e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            momentum_decay: 4e-3,
        }
    }
}

/// Nesterov-accelerated Adam.
///
/// Applies the look-ahead correction through the μ-product schedule
/// `μ_t = β₁(1 − ½·0.96^{t·ψ})`, following PyTorch's implementation, so the
/// update blends the *current* gradient with the bias-corrected momentum of
/// the *next* step.
#[derive(Debug, Clone)]
pub struct NAdam {
    cfg: NAdamConfig,
    m: Vec<f64>,
    v: Vec<f64>,
    mu_product: f64,
    t: u64,
}

impl NAdam {
    /// Creates an optimizer for `n_params` parameters.
    pub fn new(cfg: NAdamConfig, n_params: usize) -> NAdam {
        assert!(cfg.lr > 0.0 && cfg.lr.is_finite(), "lr must be positive");
        assert!((0.0..1.0).contains(&cfg.beta1), "beta1 in [0, 1)");
        assert!((0.0..1.0).contains(&cfg.beta2), "beta2 in [0, 1)");
        assert!(cfg.eps > 0.0, "eps must be positive");
        assert!(cfg.momentum_decay >= 0.0);
        NAdam {
            cfg,
            m: vec![0.0; n_params],
            v: vec![0.0; n_params],
            mu_product: 1.0,
            t: 0,
        }
    }
}

impl Optimizer for NAdam {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        check_sizes(self.m.len(), params, grads);
        self.t += 1;
        let NAdamConfig {
            lr,
            beta1,
            beta2,
            eps,
            momentum_decay,
        } = self.cfg;
        let t = self.t as f64;
        let mu_t = beta1 * (1.0 - 0.5 * 0.96_f64.powf(t * momentum_decay));
        let mu_next = beta1 * (1.0 - 0.5 * 0.96_f64.powf((t + 1.0) * momentum_decay));
        let mu_product = self.mu_product * mu_t;
        let mu_product_next = mu_product * mu_next;
        self.mu_product = mu_product;
        let bc2 = 1.0 - beta2.powi(self.t as i32);

        for (((p, m), v), &g) in params
            .iter_mut()
            .zip(&mut self.m)
            .zip(&mut self.v)
            .zip(grads)
        {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let denom = (*v / bc2).sqrt() + eps;
            // Nesterov blend of current gradient and next-step momentum.
            *p -= lr * (1.0 - mu_t) / (1.0 - mu_product) * g / denom
                + lr * mu_next / (1.0 - mu_product_next) * *m / denom;
        }
    }

    fn lr(&self) -> f64 {
        self.cfg.lr
    }

    fn set_lr(&mut self, lr: f64) {
        assert!(lr > 0.0 && lr.is_finite(), "lr must be positive");
        self.cfg.lr = lr;
    }

    fn n_params(&self) -> usize {
        self.m.len()
    }

    fn steps_taken(&self) -> u64 {
        self.t
    }

    fn save_state(&self, out: &mut OptimizerState) {
        let slots = out.refill(self.t, self.cfg.lr, 2);
        slots[0].extend_from_slice(&self.m);
        slots[1].extend_from_slice(&self.v);
        out.scalars.push(self.mu_product);
    }

    fn load_state(&mut self, state: &OptimizerState) -> Result<(), StateMismatch> {
        check_slots(state, 2)?;
        if state.scalars.len() != 1 {
            return Err(mismatch(format!(
                "expected 1 scalar (mu_product), snapshot has {}",
                state.scalars.len()
            )));
        }
        load_slot(&mut self.m, &state.slots[0], "m")?;
        load_slot(&mut self.v, &state.slots[1], "v")?;
        self.mu_product = state.scalars[0];
        self.t = state.t;
        self.set_lr(state.lr);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descends_a_quadratic() {
        let mut opt = NAdam::new(
            NAdamConfig {
                lr: 0.05,
                ..NAdamConfig::default()
            },
            2,
        );
        let mut p = vec![3.0, -2.0];
        for _ in 0..2000 {
            let g = vec![2.0 * p[0], 8.0 * p[1]];
            opt.step(&mut p, &g);
        }
        assert!(p[0].abs() < 0.05 && p[1].abs() < 0.05, "p = {p:?}");
    }

    #[test]
    fn first_step_direction_is_negative_gradient() {
        let mut opt = NAdam::new(NAdamConfig::default(), 3);
        let mut p = vec![0.0, 0.0, 0.0];
        opt.step(&mut p, &[1.0, -2.0, 0.5]);
        assert!(p[0] < 0.0 && p[1] > 0.0 && p[2] < 0.0);
    }

    #[test]
    fn nesterov_blend_differs_from_plain_adam() {
        use crate::adam::{Adam, AdamConfig};
        let mut nadam = NAdam::new(
            NAdamConfig {
                lr: 0.01,
                ..NAdamConfig::default()
            },
            1,
        );
        let mut adam = Adam::new(
            AdamConfig {
                lr: 0.01,
                ..AdamConfig::default()
            },
            1,
        );
        let (mut pn, mut pa) = (vec![0.0], vec![0.0]);
        for _ in 0..5 {
            nadam.step(&mut pn, &[1.0]);
            adam.step(&mut pa, &[1.0]);
        }
        assert_ne!(pn[0], pa[0], "distinct update rules must diverge");
    }
}
