//! Particle-size distributions (PSDs).
//!
//! The paper's defining constraint is that radii **exactly follow a
//! prescribed distribution** — they are sampled up front and never adjusted
//! by the packer (unlike ProtoSphere-style void-filling methods). The YAML
//! configuration (§VI-A) supports `Constant(value)`, `Uniform(min, max)` and
//! `Normal(mean, stddev)`; this module adds `LogNormal` and arbitrary
//! mixtures, both common in granular-material specifications.

use rand::Rng;

/// A particle-size distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum Psd {
    /// Every radius equals `value` (the paper's mono-disperse studies).
    Constant {
        /// The fixed radius.
        value: f64,
    },
    /// Uniform on `[min, max]` (the blast furnace uses U(5.2 cm, 7.5 cm)).
    Uniform {
        /// Smallest radius.
        min: f64,
        /// Largest radius.
        max: f64,
    },
    /// Normal with the given mean and standard deviation, rejection-truncated
    /// to `[mean - 3σ, mean + 3σ]` intersected with `(0, ∞)` so radii stay
    /// physical.
    Normal {
        /// Mean radius.
        mean: f64,
        /// Standard deviation.
        std_dev: f64,
    },
    /// Log-normal: `exp(N(mu, sigma))`, parameterized by the underlying
    /// normal. Heavy-tailed PSDs typical of crushed/milled materials.
    LogNormal {
        /// Mean of the underlying normal (of ln r).
        mu: f64,
        /// Std-dev of the underlying normal.
        sigma: f64,
    },
    /// Weighted mixture of component PSDs (e.g. bimodal sand + gravel).
    Mixture {
        /// `(weight, component)` pairs; weights need not be normalized.
        components: Vec<(f64, Psd)>,
    },
}

/// A PSD parameter that breaks its distribution's invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct PsdError {
    /// The offending parameter: `value`, `min`, `max`, `mean`, `std_dev`
    /// or a mixture's `weights`.
    pub param: &'static str,
    /// The broken rule, with the rejected value.
    pub message: String,
}

impl std::fmt::Display for PsdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for PsdError {}

/// `Ok(())` when `ok` holds, else the error naming `param`.
fn check(ok: bool, param: &'static str, message: impl FnOnce() -> String) -> Result<(), PsdError> {
    if ok {
        Ok(())
    } else {
        Err(PsdError {
            param,
            message: message(),
        })
    }
}

impl Psd {
    /// Constant-radius PSD (panics where [`Psd::try_constant`] fails).
    pub fn constant(value: f64) -> Psd {
        Psd::try_constant(value).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Constant-radius PSD; the radius must be positive and finite.
    pub fn try_constant(value: f64) -> Result<Psd, PsdError> {
        check(value > 0.0 && value.is_finite(), "value", || {
            format!("radius must be positive and finite, got {value}")
        })?;
        Ok(Psd::Constant { value })
    }

    /// Uniform PSD on `[min, max]` (panics where [`Psd::try_uniform`]
    /// fails).
    pub fn uniform(min: f64, max: f64) -> Psd {
        Psd::try_uniform(min, max).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Uniform PSD on `[min, max]`; `min` must be positive and `max` at
    /// least `min`, both finite.
    pub fn try_uniform(min: f64, max: f64) -> Result<Psd, PsdError> {
        check(min > 0.0 && min.is_finite(), "min", || {
            format!("min radius must be positive and finite, got {min}")
        })?;
        check(max >= min && max.is_finite(), "max", || {
            format!("max radius must be finite and >= min, got [{min}, {max}]")
        })?;
        Ok(Psd::Uniform { min, max })
    }

    /// Truncated-normal PSD (panics where [`Psd::try_normal`] fails).
    pub fn normal(mean: f64, std_dev: f64) -> Psd {
        Psd::try_normal(mean, std_dev).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Truncated-normal PSD; the mean must be positive and the standard
    /// deviation non-negative, both finite, with `mean - 3σ > 0` (otherwise
    /// truncation would distort the distribution badly).
    pub fn try_normal(mean: f64, std_dev: f64) -> Result<Psd, PsdError> {
        check(mean > 0.0 && mean.is_finite(), "mean", || {
            format!("mean radius must be positive and finite, got {mean}")
        })?;
        check(std_dev >= 0.0 && std_dev.is_finite(), "std_dev", || {
            format!("std_dev must be non-negative and finite, got {std_dev}")
        })?;
        check(mean - 3.0 * std_dev > 0.0, "std_dev", || {
            format!("mean - 3σ must stay positive (got mean {mean}, σ {std_dev})")
        })?;
        Ok(Psd::Normal { mean, std_dev })
    }

    /// Log-normal PSD parameterized by the underlying normal of `ln r`.
    pub fn log_normal(mu: f64, sigma: f64) -> Psd {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
        Psd::LogNormal { mu, sigma }
    }

    /// Mixture PSD (panics where [`Psd::try_mixture`] fails).
    pub fn mixture(components: Vec<(f64, Psd)>) -> Psd {
        Psd::try_mixture(components).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Mixture PSD; weights are relative. It needs at least one component,
    /// every weight positive and finite, and a finite total (sampling
    /// draws from `[0, total)`).
    pub fn try_mixture(components: Vec<(f64, Psd)>) -> Result<Psd, PsdError> {
        check(!components.is_empty(), "weights", || {
            "mixture needs at least one component".into()
        })?;
        for (w, _) in &components {
            check(*w > 0.0 && w.is_finite(), "weights", || {
                format!("mixture weights must be positive and finite, got {w}")
            })?;
        }
        let total: f64 = components.iter().map(|(w, _)| w).sum();
        check(total.is_finite(), "weights", || {
            format!("mixture weights must have a finite sum, got {total}")
        })?;
        Ok(Psd::Mixture { components })
    }

    /// Draws one radius.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            Psd::Constant { value } => *value,
            Psd::Uniform { min, max } => {
                if min == max {
                    *min
                } else {
                    rng.gen_range(*min..*max)
                }
            }
            Psd::Normal { mean, std_dev } => {
                if *std_dev == 0.0 {
                    return *mean;
                }
                // Rejection-sample the 3σ truncation (acceptance ≈ 99.7 %).
                loop {
                    let r = mean + std_dev * standard_normal(rng);
                    if r > 0.0 && (r - mean).abs() <= 3.0 * std_dev {
                        return r;
                    }
                }
            }
            Psd::LogNormal { mu, sigma } => (mu + sigma * standard_normal(rng)).exp(),
            Psd::Mixture { components } => {
                let total: f64 = components.iter().map(|(w, _)| w).sum();
                let mut pick = rng.gen_range(0.0..total);
                for (w, psd) in components {
                    if pick < *w {
                        return psd.sample(rng);
                    }
                    pick -= w;
                }
                // Floating-point edge: fall back to the last component.
                components.last().expect("non-empty").1.sample(rng)
            }
        }
    }

    /// Draws `n` radii.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Exact mean radius of the distribution.
    pub fn mean(&self) -> f64 {
        match self {
            Psd::Constant { value } => *value,
            Psd::Uniform { min, max } => 0.5 * (min + max),
            // Truncation at ±3σ is symmetric, so the mean is unchanged.
            Psd::Normal { mean, .. } => *mean,
            Psd::LogNormal { mu, sigma } => (mu + 0.5 * sigma * sigma).exp(),
            Psd::Mixture { components } => {
                let total: f64 = components.iter().map(|(w, _)| w).sum();
                components.iter().map(|(w, p)| w * p.mean()).sum::<f64>() / total
            }
        }
    }

    /// Cumulative distribution function `P(R ≤ x)`.
    ///
    /// Exact for every variant (the truncated normal accounts for its ±3σ
    /// renormalization); used by the Kolmogorov–Smirnov adherence check in
    /// [`crate::metrics::psd_adherence`].
    pub fn cdf(&self, x: f64) -> f64 {
        match self {
            Psd::Constant { value } => {
                if x >= *value {
                    1.0
                } else {
                    0.0
                }
            }
            Psd::Uniform { min, max } => {
                if max == min {
                    if x >= *min {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    ((x - min) / (max - min)).clamp(0.0, 1.0)
                }
            }
            Psd::Normal { mean, std_dev } => {
                if *std_dev == 0.0 {
                    return if x >= *mean { 1.0 } else { 0.0 };
                }
                let z = (x - mean) / std_dev;
                if z <= -3.0 {
                    0.0
                } else if z >= 3.0 {
                    1.0
                } else {
                    let lo = std_normal_cdf(-3.0);
                    let hi = std_normal_cdf(3.0);
                    ((std_normal_cdf(z) - lo) / (hi - lo)).clamp(0.0, 1.0)
                }
            }
            Psd::LogNormal { mu, sigma } => {
                if x <= 0.0 {
                    0.0
                } else if *sigma == 0.0 {
                    if x.ln() >= *mu {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    std_normal_cdf((x.ln() - mu) / sigma)
                }
            }
            Psd::Mixture { components } => {
                let total: f64 = components.iter().map(|(w, _)| w).sum();
                components.iter().map(|(w, p)| w * p.cdf(x)).sum::<f64>() / total
            }
        }
    }

    /// A hard upper bound on sampled radii (used to size grid cells and
    /// spawn slabs). Infinite-support components use a high quantile bound.
    pub fn max_radius(&self) -> f64 {
        match self {
            Psd::Constant { value } => *value,
            Psd::Uniform { max, .. } => *max,
            Psd::Normal { mean, std_dev } => mean + 3.0 * std_dev, // exact (truncated)
            Psd::LogNormal { mu, sigma } => (mu + 4.0 * sigma).exp(), // ~3e-5 exceedance
            Psd::Mixture { components } => components
                .iter()
                .map(|(_, p)| p.max_radius())
                .fold(0.0, f64::max),
        }
    }
}

/// Standard normal CDF via the Abramowitz & Stegun 7.1.26 erf
/// approximation (|error| < 1.5e-7 — far below KS-test resolution).
fn std_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal via Box–Muller (avoids the rand_distr dependency).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(0.0..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    #[test]
    fn constant_always_returns_value() {
        let psd = Psd::constant(0.1);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(psd.sample(&mut r), 0.1);
        }
        assert_eq!(psd.mean(), 0.1);
        assert_eq!(psd.max_radius(), 0.1);
    }

    #[test]
    fn uniform_stays_in_range_with_right_mean() {
        let psd = Psd::uniform(0.052, 0.075); // blast furnace radii
        let mut r = rng();
        let samples = psd.sample_n(&mut r, 20_000);
        assert!(samples.iter().all(|&x| (0.052..=0.075).contains(&x)));
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 0.0635).abs() < 0.001, "mean = {mean}");
        assert!((psd.mean() - 0.0635).abs() < 1e-12);
    }

    #[test]
    fn degenerate_uniform_is_constant() {
        let psd = Psd::uniform(0.05, 0.05);
        let mut r = rng();
        assert_eq!(psd.sample(&mut r), 0.05);
    }

    #[test]
    fn normal_truncated_and_unbiased() {
        let psd = Psd::normal(0.04, 0.005); // the paper's Fig. 9 second set
        let mut r = rng();
        let samples = psd.sample_n(&mut r, 50_000);
        assert!(samples.iter().all(|&x| x > 0.0));
        assert!(samples
            .iter()
            .all(|&x| (x - 0.04f64).abs() <= 0.015 + 1e-12));
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 0.04).abs() < 3e-4, "mean = {mean}");
        let var: f64 = samples
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f64>()
            / samples.len() as f64;
        // Truncation at 3σ shrinks the variance by ~1.5 %.
        assert!((var.sqrt() - 0.005).abs() < 4e-4, "σ = {}", var.sqrt());
    }

    #[test]
    fn zero_stddev_normal_is_constant() {
        let psd = Psd::normal(0.04, 0.0);
        let mut r = rng();
        assert_eq!(psd.sample(&mut r), 0.04);
    }

    #[test]
    fn log_normal_mean_matches_formula() {
        let psd = Psd::log_normal(-3.0, 0.2);
        let mut r = rng();
        let samples = psd.sample_n(&mut r, 100_000);
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(
            (mean - psd.mean()).abs() / psd.mean() < 0.01,
            "mean = {mean} vs {}",
            psd.mean()
        );
        assert!(samples.iter().all(|&x| x > 0.0));
        // max_radius is a (high-quantile) bound in practice.
        let bound = psd.max_radius();
        let exceed = samples.iter().filter(|&&x| x > bound).count();
        assert!(exceed < 20, "{exceed} of 100k above bound");
    }

    #[test]
    fn mixture_draws_from_both_components() {
        // 70 % small (0.01), 30 % large (0.1) — the §VI-A zones example.
        let psd = Psd::mixture(vec![(0.7, Psd::constant(0.01)), (0.3, Psd::constant(0.1))]);
        let mut r = rng();
        let samples = psd.sample_n(&mut r, 10_000);
        let small = samples.iter().filter(|&&x| x == 0.01).count();
        let large = samples.len() - small;
        let frac = small as f64 / samples.len() as f64;
        assert!((frac - 0.7).abs() < 0.02, "small fraction = {frac}");
        assert!(large > 0);
        assert!((psd.mean() - (0.7 * 0.01 + 0.3 * 0.1)).abs() < 1e-12);
        assert_eq!(psd.max_radius(), 0.1);
    }

    #[test]
    fn validation_panics() {
        assert!(std::panic::catch_unwind(|| Psd::constant(0.0)).is_err());
        assert!(std::panic::catch_unwind(|| Psd::uniform(0.1, 0.05)).is_err());
        assert!(std::panic::catch_unwind(|| Psd::normal(0.01, 0.01)).is_err()); // 3σ crosses 0
        assert!(std::panic::catch_unwind(|| Psd::mixture(vec![])).is_err());
        assert!(
            std::panic::catch_unwind(|| Psd::mixture(vec![(0.0, Psd::constant(0.1))])).is_err()
        );
    }

    #[test]
    fn erf_matches_reference_values() {
        // Known erf values to the approximation's stated accuracy.
        for (x, want) in [
            (0.0, 0.0),
            (0.5, 0.520_499_877_8),
            (1.0, 0.842_700_792_9),
            (2.0, 0.995_322_265_0),
            (-1.0, -0.842_700_792_9),
        ] {
            assert!((erf(x) - want).abs() < 2e-7, "erf({x}) = {}", erf(x));
        }
    }

    #[test]
    fn cdfs_are_valid_distribution_functions() {
        let psds = [
            Psd::constant(0.1),
            Psd::uniform(0.05, 0.15),
            Psd::normal(0.1, 0.02),
            Psd::log_normal(-2.3, 0.3),
            Psd::mixture(vec![
                (0.5, Psd::constant(0.05)),
                (0.5, Psd::uniform(0.1, 0.2)),
            ]),
        ];
        for psd in &psds {
            let mut prev = -1.0;
            for k in 0..=200 {
                let x = k as f64 * 0.002; // 0 .. 0.4
                let c = psd.cdf(x);
                assert!((0.0..=1.0).contains(&c), "{psd:?}: cdf({x}) = {c}");
                assert!(c >= prev - 1e-12, "{psd:?}: cdf must be monotone");
                prev = c;
            }
            assert_eq!(psd.cdf(-1.0), 0.0);
            assert!((psd.cdf(10.0) - 1.0).abs() < 1e-9);
            // Median sanity: cdf(mean-ish) near 0.5 for symmetric PSDs.
        }
        // Specific values.
        let u = Psd::uniform(0.0 + 0.1, 0.3);
        assert!((u.cdf(0.2) - 0.5).abs() < 1e-12);
        let n = Psd::normal(0.1, 0.02);
        assert!((n.cdf(0.1) - 0.5).abs() < 1e-9, "truncation is symmetric");
    }

    #[test]
    fn empirical_cdf_matches_analytic() {
        // Large-sample empirical CDF of each PSD tracks Psd::cdf.
        let mut r = rng();
        for psd in [
            Psd::uniform(0.05, 0.15),
            Psd::normal(0.1, 0.015),
            Psd::log_normal(-2.3, 0.25),
        ] {
            let mut samples = psd.sample_n(&mut r, 20_000);
            samples.sort_by(f64::total_cmp);
            for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
                let x = samples[(q * samples.len() as f64) as usize];
                let c = psd.cdf(x);
                assert!((c - q).abs() < 0.02, "{psd:?}: cdf({x}) = {c}, want ≈ {q}");
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_under_fixed_seed() {
        let psd = Psd::uniform(0.02, 0.08);
        let a = psd.sample_n(&mut StdRng::seed_from_u64(7), 100);
        let b = psd.sample_n(&mut StdRng::seed_from_u64(7), 100);
        assert_eq!(a, b);
        let c = psd.sample_n(&mut StdRng::seed_from_u64(8), 100);
        assert_ne!(a, c);
    }
}
