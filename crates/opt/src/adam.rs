//! Adam [Kingma & Ba] and its AMSGrad variant [Reddi, Kale & Kumar] with
//! PyTorch-compatible update semantics.

use wide::f64x4;

use crate::kernel::Kernel;
use crate::optimizer::{check_sizes, Optimizer};
use crate::state::{check_slots, load_slot, OptimizerState, StateMismatch};

/// Hyper-parameters for [`Adam`]. Defaults match `torch.optim.Adam`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Base learning rate.
    pub lr: f64,
    /// First-moment decay β₁.
    pub beta1: f64,
    /// Second-moment decay β₂.
    pub beta2: f64,
    /// Denominator fuzz ε.
    pub eps: f64,
    /// L2 weight decay coefficient (added to the gradient, PyTorch style).
    pub weight_decay: f64,
    /// Enables the AMSGrad maximum over second moments, the variant the
    /// paper uses ("Adaptive Moment Estimation with stable steps").
    pub amsgrad: bool,
    /// Which implementation runs the slot update (scalar oracle vs 4-lane
    /// fused). Both are bitwise identical; see [`Kernel`].
    pub kernel: Kernel,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            amsgrad: false,
            kernel: Kernel::default(),
        }
    }
}

impl AdamConfig {
    /// Panics on out-of-range hyper-parameters.
    fn validate(&self) {
        assert!(
            self.lr > 0.0 && self.lr.is_finite(),
            "lr must be positive, got {}",
            self.lr
        );
        assert!(
            (0.0..1.0).contains(&self.beta1),
            "beta1 must be in [0, 1), got {}",
            self.beta1
        );
        assert!(
            (0.0..1.0).contains(&self.beta2),
            "beta2 must be in [0, 1), got {}",
            self.beta2
        );
        assert!(self.eps > 0.0, "eps must be positive, got {}", self.eps);
        assert!(
            self.weight_decay >= 0.0,
            "weight_decay must be non-negative"
        );
    }
}

/// The Adam optimizer (optionally AMSGrad).
///
/// Update rule (PyTorch semantics):
///
/// ```text
/// m_t   = β₁ m_{t-1} + (1-β₁) g_t
/// v_t   = β₂ v_{t-1} + (1-β₂) g_t²
/// m̂_t  = m_t / (1 - β₁^t)
/// v̄_t  = amsgrad ? max(v̄_{t-1}, v_t) : v_t
/// θ_t   = θ_{t-1} - lr · m̂_t / (√(v̄_t / (1-β₂^t)) + ε)
/// ```
///
/// With AMSGrad the running maximum is taken over the *raw* second moment
/// (as PyTorch does), keeping the effective per-parameter step size
/// non-increasing — the property the paper leans on for convergence in its
/// highly non-convex packing landscape.
#[derive(Debug, Clone)]
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<f64>,
    v: Vec<f64>,
    v_max: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates an optimizer for `n_params` parameters.
    pub fn new(cfg: AdamConfig, n_params: usize) -> Adam {
        cfg.validate();
        Adam {
            cfg,
            m: vec![0.0; n_params],
            v: vec![0.0; n_params],
            v_max: if cfg.amsgrad {
                vec![0.0; n_params]
            } else {
                Vec::new()
            },
            t: 0,
        }
    }

    /// The hyper-parameters currently in force.
    pub fn config(&self) -> &AdamConfig {
        &self.cfg
    }

    /// Read-only view of the AMSGrad running maximum (empty unless AMSGrad).
    pub fn v_max(&self) -> &[f64] {
        &self.v_max
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        check_sizes(self.m.len(), params, grads);
        self.t += 1;
        let AdamConfig {
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            amsgrad,
            kernel: _,
        } = self.cfg;
        let bc1 = 1.0 - beta1.powi(self.t as i32);
        let bc2 = 1.0 - beta2.powi(self.t as i32);

        // One serial pass: a coordinate costs ~4 ns, and no batch in use
        // exceeds 15 000 coordinates, short of the two ~40 µs jobs a split
        // needs to pay for its hand-off. The SIMD kernel fuses four slots
        // per lane but performs the identical IEEE operation sequence per
        // element, so scalar and simd trajectories are bitwise identical.
        let upd = Update {
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            bc1,
            bc2,
        };
        let (m, v) = (&mut self.m, &mut self.v);
        match (amsgrad, self.cfg.kernel) {
            (true, Kernel::Simd) => upd.amsgrad_simd(params, m, v, &mut self.v_max, grads),
            (true, Kernel::Scalar) => upd.amsgrad_scalar(params, m, v, &mut self.v_max, grads),
            (false, Kernel::Simd) => upd.plain_simd(params, m, v, grads),
            (false, Kernel::Scalar) => upd.plain_scalar(params, m, v, grads),
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
        self.m.len()
    }

    fn steps_taken(&self) -> u64 {
        self.t
    }

    fn save_state(&self, out: &mut OptimizerState) {
        let n_slots = if self.cfg.amsgrad { 3 } else { 2 };
        let slots = out.refill(self.t, self.cfg.lr, n_slots);
        slots[0].extend_from_slice(&self.m);
        slots[1].extend_from_slice(&self.v);
        if self.cfg.amsgrad {
            slots[2].extend_from_slice(&self.v_max);
        }
    }

    fn load_state(&mut self, state: &OptimizerState) -> Result<(), StateMismatch> {
        check_slots(state, if self.cfg.amsgrad { 3 } else { 2 })?;
        load_slot(&mut self.m, &state.slots[0], "m")?;
        load_slot(&mut self.v, &state.slots[1], "v")?;
        if self.cfg.amsgrad {
            load_slot(&mut self.v_max, &state.slots[2], "v_max")?;
        }
        self.t = state.t;
        self.set_lr(state.lr);
        Ok(())
    }
}

/// Per-step scalar constants of the Adam update, shared by the scalar and
/// SIMD bodies.
#[derive(Clone, Copy)]
struct Update {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    weight_decay: f64,
    bc1: f64,
    bc2: f64,
}

/// Stores the four lanes of `v` into `dst[..4]`.
#[inline]
fn store(dst: &mut [f64], v: f64x4) {
    dst[..4].copy_from_slice(&v.to_array());
}

impl Update {
    /// Scalar AMSGrad update (the oracle body; also the tail of the SIMD
    /// body). `v_eff` uses the SSE-style maximum
    /// (`if a > b { a } else { b }`) so lane and tail agree bitwise
    /// unconditionally; second moments are non-negative, so this matches
    /// `f64::max` on every reachable input.
    fn amsgrad_scalar(
        &self,
        p: &mut [f64],
        m: &mut [f64],
        v: &mut [f64],
        vm: &mut [f64],
        g: &[f64],
    ) {
        for i in 0..p.len() {
            let gi = g[i] + self.weight_decay * p[i];
            let m_new = self.beta1 * m[i] + (1.0 - self.beta1) * gi;
            let v_new = self.beta2 * v[i] + (1.0 - self.beta2) * gi * gi;
            m[i] = m_new;
            v[i] = v_new;
            let v_eff = if vm[i] > v_new { vm[i] } else { v_new };
            vm[i] = v_eff;
            let m_hat = m_new / self.bc1;
            let denom = (v_eff / self.bc2).sqrt() + self.eps;
            p[i] -= self.lr * m_hat / denom;
        }
    }

    /// Lane-fused AMSGrad update: four slots per iteration, scalar tail.
    /// Every operation is element-wise IEEE in the same sequence as the
    /// scalar body, so the result is bitwise identical to it.
    fn amsgrad_simd(&self, p: &mut [f64], m: &mut [f64], v: &mut [f64], vm: &mut [f64], g: &[f64]) {
        let n = p.len();
        let lanes = n - n % 4;
        let b1 = f64x4::splat(self.beta1);
        let one_m_b1 = f64x4::splat(1.0 - self.beta1);
        let b2 = f64x4::splat(self.beta2);
        let one_m_b2 = f64x4::splat(1.0 - self.beta2);
        let lr = f64x4::splat(self.lr);
        let eps = f64x4::splat(self.eps);
        let wd = f64x4::splat(self.weight_decay);
        let bc1 = f64x4::splat(self.bc1);
        let bc2 = f64x4::splat(self.bc2);
        let mut i = 0;
        while i < lanes {
            let pv = f64x4::from_slice(&p[i..]);
            let gv = f64x4::from_slice(&g[i..]) + wd * pv;
            let m_new = b1 * f64x4::from_slice(&m[i..]) + one_m_b1 * gv;
            let v_new = b2 * f64x4::from_slice(&v[i..]) + (one_m_b2 * gv) * gv;
            let v_eff = f64x4::from_slice(&vm[i..]).max(v_new);
            let m_hat = m_new / bc1;
            let denom = (v_eff / bc2).sqrt() + eps;
            store(&mut p[i..], pv - lr * m_hat / denom);
            store(&mut m[i..], m_new);
            store(&mut v[i..], v_new);
            store(&mut vm[i..], v_eff);
            i += 4;
        }
        self.amsgrad_scalar(
            &mut p[lanes..],
            &mut m[lanes..],
            &mut v[lanes..],
            &mut vm[lanes..],
            &g[lanes..],
        );
    }

    /// Scalar plain-Adam update.
    fn plain_scalar(&self, p: &mut [f64], m: &mut [f64], v: &mut [f64], g: &[f64]) {
        for i in 0..p.len() {
            let gi = g[i] + self.weight_decay * p[i];
            let m_new = self.beta1 * m[i] + (1.0 - self.beta1) * gi;
            let v_new = self.beta2 * v[i] + (1.0 - self.beta2) * gi * gi;
            m[i] = m_new;
            v[i] = v_new;
            let m_hat = m_new / self.bc1;
            let denom = (v_new / self.bc2).sqrt() + self.eps;
            p[i] -= self.lr * m_hat / denom;
        }
    }

    /// Lane-fused plain-Adam update (see [`Update::amsgrad_simd`]).
    fn plain_simd(&self, p: &mut [f64], m: &mut [f64], v: &mut [f64], g: &[f64]) {
        let n = p.len();
        let lanes = n - n % 4;
        let b1 = f64x4::splat(self.beta1);
        let one_m_b1 = f64x4::splat(1.0 - self.beta1);
        let b2 = f64x4::splat(self.beta2);
        let one_m_b2 = f64x4::splat(1.0 - self.beta2);
        let lr = f64x4::splat(self.lr);
        let eps = f64x4::splat(self.eps);
        let wd = f64x4::splat(self.weight_decay);
        let bc1 = f64x4::splat(self.bc1);
        let bc2 = f64x4::splat(self.bc2);
        let mut i = 0;
        while i < lanes {
            let pv = f64x4::from_slice(&p[i..]);
            let gv = f64x4::from_slice(&g[i..]) + wd * pv;
            let m_new = b1 * f64x4::from_slice(&m[i..]) + one_m_b1 * gv;
            let v_new = b2 * f64x4::from_slice(&v[i..]) + (one_m_b2 * gv) * gv;
            let m_hat = m_new / bc1;
            let denom = (v_new / bc2).sqrt() + eps;
            store(&mut p[i..], pv - lr * m_hat / denom);
            store(&mut m[i..], m_new);
            store(&mut v[i..], v_new);
            i += 4;
        }
        self.plain_scalar(
            &mut p[lanes..],
            &mut m[lanes..],
            &mut v[lanes..],
            &g[lanes..],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar and SIMD kernels must produce bitwise-identical trajectories,
    /// including at window tails (sizes not divisible by the lane width).
    #[test]
    fn scalar_and_simd_kernels_agree_bitwise() {
        for amsgrad in [false, true] {
            for n in [1, 3, 4, 7, 64, 131] {
                let cfg = AdamConfig {
                    lr: 0.05,
                    weight_decay: 0.01,
                    amsgrad,
                    ..AdamConfig::default()
                };
                let mut scalar = Adam::new(
                    AdamConfig {
                        kernel: Kernel::Scalar,
                        ..cfg
                    },
                    n,
                );
                let mut simd = Adam::new(
                    AdamConfig {
                        kernel: Kernel::Simd,
                        ..cfg
                    },
                    n,
                );
                let mut ps: Vec<f64> = (0..n).map(|i| (i as f64) * 0.37 - 1.0).collect();
                let mut pv = ps.clone();
                for step in 0..25 {
                    let g: Vec<f64> = (0..n)
                        .map(|i| ((i * 31 + step * 17) % 97) as f64 * 0.11 - 5.0)
                        .collect();
                    scalar.step(&mut ps, &g);
                    simd.step(&mut pv, &g);
                }
                for i in 0..n {
                    assert_eq!(
                        ps[i].to_bits(),
                        pv[i].to_bits(),
                        "n={n} amsgrad={amsgrad} slot {i}: {} vs {}",
                        ps[i],
                        pv[i]
                    );
                }
            }
        }
    }

    #[test]
    fn first_step_matches_hand_computation() {
        // For any constant gradient, the bias-corrected first step is
        // lr · g/|g| / (1 + eps·…) ≈ lr (sign of g).
        let mut adam = Adam::new(
            AdamConfig {
                lr: 0.1,
                ..AdamConfig::default()
            },
            1,
        );
        let mut p = vec![0.0];
        adam.step(&mut p, &[1.0]);
        // m̂ = 1, v̂ = 1 ⇒ Δ = 0.1/(1 + 1e-8).
        let expect = -0.1 / (1.0 + 1e-8);
        assert!((p[0] - expect).abs() < 1e-15, "p = {}", p[0]);
    }

    #[test]
    fn two_steps_match_hand_computation() {
        // lr = 0.5, g = [3, then 1] on a single parameter.
        let cfg = AdamConfig {
            lr: 0.5,
            ..AdamConfig::default()
        };
        let mut adam = Adam::new(cfg, 1);
        let mut p = vec![0.0];
        adam.step(&mut p, &[3.0]);
        let step1 = 0.5 * 3.0 / (3.0 + 1e-8); // m̂=3, √v̂=3
        assert!((p[0] + step1).abs() < 1e-12);

        adam.step(&mut p, &[1.0]);
        // t=2: m = 0.9·0.3 + 0.1·1 = 0.37; bc1 = 1-0.81 = 0.19; m̂ = 0.37/0.19.
        // v = 0.999·0.009 + 0.001·1 = 0.009991 + ... compute:
        let m = 0.9 * (0.1 * 3.0) + 0.1 * 1.0;
        let v = 0.999 * (0.001 * 9.0) + 0.001 * 1.0;
        let m_hat = m / (1.0 - 0.9f64.powi(2));
        let v_hat = v / (1.0 - 0.999f64.powi(2));
        let step2 = 0.5 * m_hat / (v_hat.sqrt() + 1e-8);
        assert!((p[0] + step1 + step2).abs() < 1e-12, "p = {}", p[0]);
    }

    #[test]
    fn amsgrad_vmax_is_monotone_nondecreasing() {
        let mut adam = Adam::new(
            AdamConfig {
                amsgrad: true,
                ..AdamConfig::default()
            },
            2,
        );
        let mut p = vec![0.0, 0.0];
        let mut prev = [0.0, 0.0];
        // Alternate large and small gradients; v decays but v_max must not.
        for k in 0..50 {
            let g = if k % 2 == 0 { [5.0, 0.1] } else { [0.01, 0.01] };
            adam.step(&mut p, &g);
            for (i, p) in prev.iter_mut().enumerate() {
                assert!(adam.v_max()[i] >= *p - 1e-18, "v_max decreased at step {k}");
                *p = adam.v_max()[i];
            }
        }
    }

    #[test]
    fn amsgrad_differs_from_adam_after_gradient_spike() {
        let cfg = AdamConfig {
            lr: 0.1,
            ..AdamConfig::default()
        };
        let mut plain = Adam::new(
            AdamConfig {
                amsgrad: false,
                ..cfg
            },
            1,
        );
        let mut ams = Adam::new(
            AdamConfig {
                amsgrad: true,
                ..cfg
            },
            1,
        );
        let (mut pp, mut pa) = (vec![0.0], vec![0.0]);
        let spike_then_small = |k: usize| if k == 0 { 100.0 } else { 0.1 };
        for k in 0..20 {
            let g = [spike_then_small(k)];
            plain.step(&mut pp, &g);
            ams.step(&mut pa, &g);
        }
        // AMSGrad remembers the spike in v_max, so it takes smaller steps.
        assert!(pa[0].abs() < pp[0].abs(), "amsgrad {pa:?} vs adam {pp:?}");
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut adam = Adam::new(
            AdamConfig {
                lr: 0.01,
                weight_decay: 0.1,
                ..AdamConfig::default()
            },
            1,
        );
        let mut p = vec![5.0];
        for _ in 0..100 {
            adam.step(&mut p, &[0.0]); // zero data gradient; only decay acts
        }
        assert!(p[0] < 5.0 && p[0] > 0.0);
    }

    #[test]
    fn set_lr_takes_effect() {
        let mut adam = Adam::new(
            AdamConfig {
                lr: 1e-3,
                ..AdamConfig::default()
            },
            1,
        );
        adam.set_lr(1e-2);
        assert_eq!(adam.lr(), 1e-2);
        let mut p = vec![0.0];
        adam.step(&mut p, &[1.0]);
        assert!((p[0] + 1e-2 / (1.0 + 1e-8)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "lr must be positive")]
    fn rejects_negative_lr() {
        let _ = Adam::new(
            AdamConfig {
                lr: -1.0,
                ..AdamConfig::default()
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "optimizer sized for")]
    fn rejects_mismatched_sizes() {
        let mut adam = Adam::new(AdamConfig::default(), 2);
        let mut p = vec![0.0, 0.0, 0.0];
        adam.step(&mut p, &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn adaptive_rates_are_per_parameter() {
        // Two parameters with gradients of very different scales end up with
        // comparable step magnitudes — Adam's defining property.
        let mut adam = Adam::new(
            AdamConfig {
                lr: 0.1,
                ..AdamConfig::default()
            },
            2,
        );
        let mut p = vec![0.0, 0.0];
        for _ in 0..10 {
            adam.step(&mut p, &[1000.0, 0.001]);
        }
        let ratio = p[0] / p[1];
        assert!(
            (0.5..2.0).contains(&ratio),
            "steps should be scale-invariant-ish, ratio = {ratio}"
        );
    }
}
