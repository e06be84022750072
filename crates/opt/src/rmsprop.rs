//! RMSProp (Tieleman & Hinton, 2012).

use crate::optimizer::{check_sizes, Optimizer};
use crate::state::{check_slots, load_slot, OptimizerState, StateMismatch};

/// Hyper-parameters for [`RmsProp`]. Defaults match `torch.optim.RMSprop`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmsPropConfig {
    /// Base learning rate.
    pub lr: f64,
    /// Squared-gradient moving-average decay α.
    pub alpha: f64,
    /// Denominator fuzz ε.
    pub eps: f64,
    /// Momentum coefficient (0 disables).
    pub momentum: f64,
    /// L2 weight decay coefficient.
    pub weight_decay: f64,
}

impl Default for RmsPropConfig {
    fn default() -> Self {
        RmsPropConfig {
            lr: 0.01,
            alpha: 0.99,
            eps: 1e-8,
            momentum: 0.0,
            weight_decay: 0.0,
        }
    }
}

/// RMSProp: exponential moving average of squared gradients, the precursor
/// whose adaptivity Adam combines with momentum (paper §IV-B).
#[derive(Debug, Clone)]
pub struct RmsProp {
    cfg: RmsPropConfig,
    sq_avg: Vec<f64>,
    buf: Vec<f64>,
    t: u64,
}

impl RmsProp {
    /// Creates an optimizer for `n_params` parameters.
    pub fn new(cfg: RmsPropConfig, n_params: usize) -> RmsProp {
        assert!(
            cfg.lr > 0.0 && cfg.lr.is_finite(),
            "lr must be positive, got {}",
            cfg.lr
        );
        assert!((0.0..1.0).contains(&cfg.alpha), "alpha must be in [0, 1)");
        assert!(cfg.eps > 0.0, "eps must be positive");
        assert!(
            (0.0..1.0).contains(&cfg.momentum),
            "momentum must be in [0, 1)"
        );
        RmsProp {
            cfg,
            sq_avg: vec![0.0; n_params],
            buf: if cfg.momentum > 0.0 {
                vec![0.0; n_params]
            } else {
                Vec::new()
            },
            t: 0,
        }
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        check_sizes(self.sq_avg.len(), params, grads);
        self.t += 1;
        let RmsPropConfig {
            lr,
            alpha,
            eps,
            momentum,
            weight_decay,
        } = self.cfg;
        if momentum > 0.0 {
            let slots = params.iter_mut().zip(&mut self.sq_avg).zip(&mut self.buf);
            for (((p, sq), buf), &g) in slots.zip(grads) {
                let g = g + weight_decay * *p;
                *sq = alpha * *sq + (1.0 - alpha) * g * g;
                let denom = sq.sqrt() + eps;
                *buf = momentum * *buf + g / denom;
                *p -= lr * *buf;
            }
        } else {
            for ((p, sq), &g) in params.iter_mut().zip(&mut self.sq_avg).zip(grads) {
                let g = g + weight_decay * *p;
                *sq = alpha * *sq + (1.0 - alpha) * g * g;
                let denom = sq.sqrt() + eps;
                *p -= lr * g / denom;
            }
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
        self.sq_avg.len()
    }

    fn steps_taken(&self) -> u64 {
        self.t
    }

    fn save_state(&self, out: &mut OptimizerState) {
        let n_slots = if self.cfg.momentum > 0.0 { 2 } else { 1 };
        let slots = out.refill(self.t, self.cfg.lr, n_slots);
        slots[0].extend_from_slice(&self.sq_avg);
        if self.cfg.momentum > 0.0 {
            slots[1].extend_from_slice(&self.buf);
        }
    }

    fn load_state(&mut self, state: &OptimizerState) -> Result<(), StateMismatch> {
        check_slots(state, if self.cfg.momentum > 0.0 { 2 } else { 1 })?;
        load_slot(&mut self.sq_avg, &state.slots[0], "sq_avg")?;
        if self.cfg.momentum > 0.0 {
            load_slot(&mut self.buf, &state.slots[1], "buf")?;
        }
        self.t = state.t;
        self.set_lr(state.lr);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_matches_hand_computation() {
        let mut opt = RmsProp::new(
            RmsPropConfig {
                lr: 0.1,
                ..RmsPropConfig::default()
            },
            1,
        );
        let mut p = vec![0.0];
        opt.step(&mut p, &[2.0]);
        // sq_avg = 0.01·4 = 0.04; Δ = 0.1 · 2/(0.2 + 1e-8).
        let expect = 0.1 * 2.0 / (0.04f64.sqrt() + 1e-8);
        assert!((p[0] + expect).abs() < 1e-12);
    }

    #[test]
    fn momentum_variant_accumulates() {
        let cfg = RmsPropConfig {
            lr: 0.1,
            momentum: 0.5,
            ..RmsPropConfig::default()
        };
        let mut opt = RmsProp::new(cfg, 1);
        let mut p = vec![0.0];
        opt.step(&mut p, &[1.0]);
        let b1 = 1.0 / (0.1 + 1e-8); // sq_avg = 0.01 ⇒ denom = 0.1
        assert!((p[0] + 0.1 * b1).abs() < 1e-9);
        let before = p[0];
        opt.step(&mut p, &[0.0]); // zero grad: only momentum moves it
        assert!((p[0] - before).abs() > 0.0, "momentum keeps moving");
    }

    #[test]
    fn adapts_to_gradient_scale() {
        // After the average warms up, steps approach lr regardless of scale.
        let mut opt = RmsProp::new(
            RmsPropConfig {
                lr: 0.01,
                ..RmsPropConfig::default()
            },
            2,
        );
        let mut p = vec![0.0, 0.0];
        for _ in 0..2000 {
            opt.step(&mut p, &[100.0, 0.01]);
        }
        let ratio = p[0] / p[1];
        assert!((0.8..1.25).contains(&ratio), "ratio = {ratio}");
    }
}
