//! Learning-rate schedulers.
//!
//! The paper's best configuration (Fig. 3) pairs Adam with PyTorch's
//! `ReduceLROnPlateau`; [`ReduceLrOnPlateau`] reproduces that scheduler's
//! exact semantics (relative/absolute thresholds, patience, cooldown,
//! minimum LR). The fixed-rate schedule gives Fig. 3's constant-rate
//! baselines; cosine annealing is the remaining learning-rate policy.

use crate::state::SchedulerState;

/// A learning-rate schedule.
///
/// Call [`LrScheduler::step`] once per optimization step (or epoch) with the
/// latest objective value; it returns the learning rate to install in the
/// optimizer via [`crate::Optimizer::set_lr`].
pub trait LrScheduler: Send {
    /// Advances the schedule given the latest metric (lower = better) and
    /// returns the learning rate to use next.
    fn step(&mut self, metric: f64) -> f64;

    /// The learning rate the schedule currently prescribes.
    fn current_lr(&self) -> f64;

    /// Snapshots the complete mutable state (allocation-free: the snapshot
    /// is `Copy`). Feeding it back through [`LrScheduler::load_state`] on an
    /// identically configured scheduler reproduces the remaining schedule
    /// bitwise.
    fn save_state(&self) -> SchedulerState;

    /// Restores state captured by [`LrScheduler::save_state`].
    fn load_state(&mut self, state: SchedulerState);

    /// Forces an immediate learning-rate cut and returns the new rate —
    /// the divergence sentinel's recovery hook. Schedulers with a natural
    /// reduction rule apply it (the plateau scheduler performs exactly the
    /// cut it would after exhausted patience); the rest halve the rate.
    fn force_reduction(&mut self) -> f64;
}

/// Fixed learning rate (the paper's `10⁻²`, `10⁻³`, `10⁻⁴` baselines).
#[derive(Debug, Clone, Copy)]
pub struct ConstantLr {
    lr: f64,
}

impl ConstantLr {
    /// Creates a constant schedule.
    pub fn new(lr: f64) -> ConstantLr {
        assert!(lr > 0.0 && lr.is_finite(), "lr must be positive, got {lr}");
        ConstantLr { lr }
    }
}

impl LrScheduler for ConstantLr {
    fn step(&mut self, _metric: f64) -> f64 {
        self.lr
    }
    fn current_lr(&self) -> f64 {
        self.lr
    }
    fn save_state(&self) -> SchedulerState {
        SchedulerState {
            floats: [self.lr, 0.0, 0.0, 0.0],
            ..SchedulerState::default()
        }
    }
    fn load_state(&mut self, state: SchedulerState) {
        self.lr = state.floats[0];
    }
    fn force_reduction(&mut self) -> f64 {
        // "Constant" bends for divergence recovery: a sentinel cut that
        // left the rate unchanged would deterministically re-diverge.
        self.lr *= 0.5;
        self.lr
    }
}

/// Cosine annealing from the initial LR down to `min_lr` over `t_max` steps,
/// then holding `min_lr`.
#[derive(Debug, Clone, Copy)]
pub struct CosineAnnealingLr {
    initial_lr: f64,
    min_lr: f64,
    t_max: u64,
    t: u64,
}

impl CosineAnnealingLr {
    /// Creates a cosine annealing schedule.
    pub fn new(initial_lr: f64, min_lr: f64, t_max: u64) -> CosineAnnealingLr {
        assert!(initial_lr > 0.0 && initial_lr.is_finite());
        assert!(min_lr >= 0.0 && min_lr <= initial_lr);
        assert!(t_max > 0);
        CosineAnnealingLr {
            initial_lr,
            min_lr,
            t_max,
            t: 0,
        }
    }
}

impl LrScheduler for CosineAnnealingLr {
    fn step(&mut self, _metric: f64) -> f64 {
        self.t = (self.t + 1).min(self.t_max);
        self.current_lr()
    }
    fn current_lr(&self) -> f64 {
        let frac = self.t as f64 / self.t_max as f64;
        self.min_lr
            + (self.initial_lr - self.min_lr) * 0.5 * (1.0 + (std::f64::consts::PI * frac).cos())
    }
    fn save_state(&self) -> SchedulerState {
        SchedulerState {
            ints: [self.t, 0, 0, 0],
            ..SchedulerState::default()
        }
    }
    fn load_state(&mut self, state: SchedulerState) {
        self.t = state.ints[0];
    }
    fn force_reduction(&mut self) -> f64 {
        // The rate is a pure function of `t`, so a cut means jumping the
        // clock: halve the remaining annealing window (monotone decrease,
        // lands on min_lr after a bounded number of cuts).
        self.t = ((self.t + self.t_max).div_ceil(2)).min(self.t_max);
        self.current_lr()
    }
}

/// How [`ReduceLrOnPlateau`] decides whether a metric improved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdMode {
    /// Improvement when `metric < best · (1 - threshold)` (PyTorch default).
    Relative,
    /// Improvement when `metric < best - threshold`.
    Absolute,
}

/// Configuration for [`ReduceLrOnPlateau`]. Defaults match
/// `torch.optim.lr_scheduler.ReduceLROnPlateau` in `min` mode.
#[derive(Debug, Clone, Copy)]
pub struct ReduceLrOnPlateauConfig {
    /// Initial learning rate.
    pub initial_lr: f64,
    /// Multiplicative reduction factor.
    pub factor: f64,
    /// Number of non-improving steps tolerated before reducing.
    pub patience: u64,
    /// Improvement threshold.
    pub threshold: f64,
    /// Threshold interpretation.
    pub threshold_mode: ThresholdMode,
    /// Steps to wait after a reduction before counting bad steps again.
    pub cooldown: u64,
    /// Lower bound on the learning rate.
    pub min_lr: f64,
    /// Reductions smaller than this are skipped (PyTorch `eps`).
    pub eps: f64,
}

impl Default for ReduceLrOnPlateauConfig {
    fn default() -> Self {
        ReduceLrOnPlateauConfig {
            initial_lr: 1e-2,
            factor: 0.1,
            patience: 10,
            threshold: 1e-4,
            threshold_mode: ThresholdMode::Relative,
            cooldown: 0,
            min_lr: 0.0,
            eps: 1e-8,
        }
    }
}

/// PyTorch-compatible `ReduceLROnPlateau` in `min` mode.
///
/// This is the scheduler behind the paper's best learning-rate configuration
/// (Fig. 3): "the fitness suddenly drops after a plateau" when this scheduler
/// cuts the LR.
#[derive(Debug, Clone)]
pub struct ReduceLrOnPlateau {
    cfg: ReduceLrOnPlateauConfig,
    lr: f64,
    best: f64,
    num_bad: u64,
    cooldown_counter: u64,
    reductions: u64,
}

impl ReduceLrOnPlateau {
    /// Creates a plateau scheduler.
    pub fn new(cfg: ReduceLrOnPlateauConfig) -> ReduceLrOnPlateau {
        assert!(cfg.initial_lr > 0.0 && cfg.initial_lr.is_finite());
        assert!(
            cfg.factor > 0.0 && cfg.factor < 1.0,
            "factor must be in (0, 1)"
        );
        assert!(cfg.threshold >= 0.0);
        assert!(cfg.min_lr >= 0.0);
        ReduceLrOnPlateau {
            cfg,
            lr: cfg.initial_lr,
            best: f64::INFINITY,
            num_bad: 0,
            cooldown_counter: 0,
            reductions: 0,
        }
    }

    /// Number of times the LR has been reduced.
    pub fn reductions(&self) -> u64 {
        self.reductions
    }

    /// Best metric observed so far.
    pub fn best(&self) -> f64 {
        self.best
    }

    fn is_improvement(&self, metric: f64) -> bool {
        // A non-finite metric (NaN from a diverged objective, ±∞ from an
        // overflow) is never an improvement: without this guard a single
        // -∞ poisons `best` permanently, and NaN comparisons silently
        // count as bad steps against a corrupted baseline.
        if !metric.is_finite() {
            return false;
        }
        match self.cfg.threshold_mode {
            ThresholdMode::Relative => metric < self.best * (1.0 - self.cfg.threshold),
            ThresholdMode::Absolute => metric < self.best - self.cfg.threshold,
        }
    }

    /// The exact LR cut `step` performs after exhausted patience, shared
    /// with [`LrScheduler::force_reduction`].
    fn reduce(&mut self) {
        let new_lr = (self.lr * self.cfg.factor).max(self.cfg.min_lr);
        if self.lr - new_lr > self.cfg.eps {
            self.lr = new_lr;
            self.reductions += 1;
            adampack_telemetry::metrics::LR_REDUCTIONS_TOTAL.inc();
            adampack_telemetry::timeline::instant("lr_reduction", self.lr);
            adampack_telemetry::debug!(
                "plateau: lr reduced to {:.3e} (reduction #{}, best metric {:.6})",
                self.lr,
                self.reductions,
                self.best,
            );
        }
        self.cooldown_counter = self.cfg.cooldown;
        self.num_bad = 0;
    }
}

impl LrScheduler for ReduceLrOnPlateau {
    fn step(&mut self, metric: f64) -> f64 {
        if self.is_improvement(metric) {
            self.best = metric;
            self.num_bad = 0;
        } else {
            self.num_bad += 1;
        }

        if self.cooldown_counter > 0 {
            self.cooldown_counter -= 1;
            self.num_bad = 0;
        }

        if self.num_bad > self.cfg.patience {
            self.reduce();
        }
        self.lr
    }

    fn current_lr(&self) -> f64 {
        self.lr
    }

    fn save_state(&self) -> SchedulerState {
        SchedulerState {
            floats: [self.lr, self.best, 0.0, 0.0],
            ints: [self.num_bad, self.cooldown_counter, self.reductions, 0],
        }
    }

    fn load_state(&mut self, state: SchedulerState) {
        self.lr = state.floats[0];
        self.best = state.floats[1];
        self.num_bad = state.ints[0];
        self.cooldown_counter = state.ints[1];
        self.reductions = state.ints[2];
    }

    fn force_reduction(&mut self) -> f64 {
        // Divergence recovery uses the scheduler's own cut so that the
        // min_lr/eps floor, cooldown and reduction accounting stay uniform
        // with plateau-triggered reductions. `best` is deliberately kept:
        // the rolled-back state had reached it once already.
        self.reduce();
        self.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_lr_never_changes() {
        let mut s = ConstantLr::new(1e-3);
        for m in [1.0, 0.5, 2.0, f64::INFINITY] {
            assert_eq!(s.step(m), 1e-3);
        }
    }

    #[test]
    fn cosine_annealing_endpoints() {
        let mut s = CosineAnnealingLr::new(1.0, 0.1, 10);
        assert!((s.current_lr() - 1.0).abs() < 1e-12);
        for _ in 0..10 {
            s.step(0.0);
        }
        assert!((s.current_lr() - 0.1).abs() < 1e-12);
        // Holds min after t_max.
        s.step(0.0);
        assert!((s.current_lr() - 0.1).abs() < 1e-12);
        // Midpoint is the arithmetic mean.
        let mut s = CosineAnnealingLr::new(1.0, 0.1, 10);
        for _ in 0..5 {
            s.step(0.0);
        }
        assert!((s.current_lr() - 0.55).abs() < 1e-12);
    }

    #[test]
    fn plateau_reduces_after_patience_exceeded() {
        let cfg = ReduceLrOnPlateauConfig {
            initial_lr: 1.0,
            factor: 0.5,
            patience: 2,
            threshold: 0.0,
            threshold_mode: ThresholdMode::Absolute,
            ..ReduceLrOnPlateauConfig::default()
        };
        let mut s = ReduceLrOnPlateau::new(cfg);
        assert_eq!(s.step(1.0), 1.0); // improvement (best = 1.0)
        assert_eq!(s.step(1.0), 1.0); // bad 1
        assert_eq!(s.step(1.0), 1.0); // bad 2 (== patience, not yet > )
        assert_eq!(s.step(1.0), 0.5); // bad 3 > patience ⇒ reduce
        assert_eq!(s.reductions(), 1);
        // Counter resets after the reduction.
        assert_eq!(s.step(1.0), 0.5);
        assert_eq!(s.step(1.0), 0.5);
        assert_eq!(s.step(1.0), 0.25);
    }

    #[test]
    fn plateau_relative_threshold_semantics() {
        let cfg = ReduceLrOnPlateauConfig {
            initial_lr: 1.0,
            factor: 0.5,
            patience: 0,
            threshold: 0.1, // needs 10 % improvement
            threshold_mode: ThresholdMode::Relative,
            ..ReduceLrOnPlateauConfig::default()
        };
        let mut s = ReduceLrOnPlateau::new(cfg);
        s.step(100.0); // best = 100
                       // 95 is not a 10 % improvement over 100 ⇒ bad step ⇒ reduce (patience 0).
        assert_eq!(s.step(95.0), 0.5);
        // 85 beats 100·0.9 = 90 ⇒ improvement, no further cut.
        assert_eq!(s.step(85.0), 0.5);
        assert_eq!(s.best(), 85.0);
    }

    #[test]
    fn plateau_respects_min_lr_and_eps() {
        let cfg = ReduceLrOnPlateauConfig {
            initial_lr: 1e-3,
            factor: 0.1,
            patience: 0,
            threshold: 0.0,
            threshold_mode: ThresholdMode::Absolute,
            min_lr: 1e-4,
            ..ReduceLrOnPlateauConfig::default()
        };
        let mut s = ReduceLrOnPlateau::new(cfg);
        s.step(1.0);
        assert_eq!(s.step(1.0), 1e-4); // clamped to min_lr
                                       // Further "reductions" are no-ops smaller than eps.
        assert_eq!(s.step(1.0), 1e-4);
        assert_eq!(s.reductions(), 1);
    }

    #[test]
    fn plateau_cooldown_suppresses_counting() {
        let cfg = ReduceLrOnPlateauConfig {
            initial_lr: 1.0,
            factor: 0.5,
            patience: 0,
            threshold: 0.0,
            threshold_mode: ThresholdMode::Absolute,
            cooldown: 3,
            ..ReduceLrOnPlateauConfig::default()
        };
        let mut s = ReduceLrOnPlateau::new(cfg);
        s.step(1.0); // best
        assert_eq!(s.step(1.0), 0.5); // reduce, cooldown = 3
                                      // During cooldown no reductions even though metrics are bad.
        assert_eq!(s.step(1.0), 0.5);
        assert_eq!(s.step(1.0), 0.5);
        assert_eq!(s.step(1.0), 0.5);
        // Cooldown over: next bad step reduces again.
        assert_eq!(s.step(1.0), 0.25);
    }

    #[test]
    fn plateau_with_improving_metrics_never_reduces() {
        let mut s = ReduceLrOnPlateau::new(ReduceLrOnPlateauConfig {
            initial_lr: 1.0,
            patience: 1,
            ..ReduceLrOnPlateauConfig::default()
        });
        let mut metric = 100.0;
        for _ in 0..50 {
            s.step(metric);
            metric *= 0.9;
        }
        assert_eq!(s.reductions(), 0);
        assert_eq!(s.current_lr(), 1.0);
    }

    #[test]
    fn plateau_non_finite_metrics_do_not_corrupt_best() {
        let mut s = ReduceLrOnPlateau::new(ReduceLrOnPlateauConfig {
            initial_lr: 1.0,
            patience: 100,
            ..ReduceLrOnPlateauConfig::default()
        });
        s.step(5.0);
        assert_eq!(s.best(), 5.0);
        // NaN, +∞ and (crucially) -∞ must all count as bad steps and
        // leave the recorded best untouched.
        for m in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            s.step(m);
            assert_eq!(s.best(), 5.0, "best corrupted by {m}");
        }
        // After the bad spell a genuine improvement is still recognised.
        s.step(4.0);
        assert_eq!(s.best(), 4.0);
    }

    #[test]
    fn plateau_force_reduction_matches_natural_cut() {
        let cfg = ReduceLrOnPlateauConfig {
            initial_lr: 1.0,
            factor: 0.25,
            patience: 10,
            cooldown: 2,
            min_lr: 0.1,
            ..ReduceLrOnPlateauConfig::default()
        };
        let mut s = ReduceLrOnPlateau::new(cfg);
        s.step(3.0);
        assert_eq!(s.force_reduction(), 0.25);
        assert_eq!(s.reductions(), 1);
        assert_eq!(s.best(), 3.0, "forced cut keeps the best metric");
        // Cooldown armed: immediately-following bad metrics don't count.
        s.step(9.0);
        s.step(9.0);
        assert_eq!(s.current_lr(), 0.25);
        // Floor respected: 0.25 · 0.25 < min_lr ⇒ clamps to 0.1.
        assert_eq!(s.force_reduction(), 0.1);
        // At the floor further forced cuts are no-ops (eps gate).
        assert_eq!(s.force_reduction(), 0.1);
        assert_eq!(s.reductions(), 2);
    }

    #[test]
    fn plateau_state_round_trip_is_bitwise() {
        let cfg = ReduceLrOnPlateauConfig {
            initial_lr: 1.0,
            factor: 0.5,
            patience: 2,
            ..ReduceLrOnPlateauConfig::default()
        };
        let mut s = ReduceLrOnPlateau::new(cfg);
        for m in [3.0, 2.5, 2.6, 2.7, 2.8, 2.9] {
            s.step(m);
        }
        let snap = s.save_state();
        let mut replay: Vec<f64> = Vec::new();
        for m in [3.0, 3.0, 3.0, 2.0, 2.1] {
            replay.push(s.step(m));
        }
        let mut r = ReduceLrOnPlateau::new(cfg);
        r.load_state(snap);
        for (k, m) in [3.0, 3.0, 3.0, 2.0, 2.1].into_iter().enumerate() {
            assert_eq!(r.step(m).to_bits(), replay[k].to_bits(), "step {k}");
        }
        assert_eq!(r.reductions(), s.reductions());
    }

    #[test]
    fn non_plateau_schedulers_state_round_trip() {
        // Each scheduler is advanced, snapshotted, advanced further, then a
        // fresh instance restored from the snapshot must replay bitwise.
        fn check<S: LrScheduler>(mut a: S, mut fresh: S, what: &str) {
            for _ in 0..7 {
                a.step(1.0);
            }
            let snap = a.save_state();
            let cont: Vec<f64> = (0..5).map(|_| a.step(1.0)).collect();
            fresh.load_state(snap);
            let replay: Vec<f64> = (0..5).map(|_| fresh.step(1.0)).collect();
            for (k, (x, y)) in cont.iter().zip(&replay).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what} step {k}");
            }
        }
        check(ConstantLr::new(0.3), ConstantLr::new(0.3), "constant");
        check(
            CosineAnnealingLr::new(1.0, 0.01, 40),
            CosineAnnealingLr::new(1.0, 0.01, 40),
            "cosine",
        );
    }

    #[test]
    fn force_reduction_shrinks_every_scheduler() {
        // The sentinel relies on force_reduction actually lowering (or at
        // worst pinning) the rate for every scheduler kind.
        let mut c = ConstantLr::new(1.0);
        assert_eq!(c.force_reduction(), 0.5);
        let mut cos = CosineAnnealingLr::new(1.0, 0.0, 100);
        let before = cos.current_lr();
        let after = cos.force_reduction();
        assert!(
            after < before,
            "cosine cut must shrink: {before} -> {after}"
        );
        // Repeated cuts converge on eta_min instead of oscillating.
        let mut last = after;
        for _ in 0..10 {
            let next = cos.force_reduction();
            assert!(next <= last + 1e-15);
            last = next;
        }
    }
}
