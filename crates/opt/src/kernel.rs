//! Kernel-implementation selector: the `params.kernel` oracle knob.
//!
//! The 4-lane vectorized kernels are the canonical arithmetic for the hot
//! loops (objective pair/plane terms, Adam/AMSGrad slot updates). The
//! scalar path survives as a cross-checking oracle — the same pattern as the
//! naive pair-search oracle behind the cell grid. Both paths are written so their
//! results are **bitwise identical** (same candidate order, same IEEE
//! operation sequence per element, SIMD lanes restricted to element-wise
//! correctly-rounded ops); the knob therefore selects an implementation, not
//! a numeric behavior, and the determinism suite pins that equivalence.

use std::fmt;

/// Which arithmetic implementation evaluates the hot loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Scalar reference path (the oracle): plain `f64` arithmetic with the
    /// same squared-distance early-out as the vectorized path.
    Scalar,
    /// Canonical 4-lane vectorized path (`wide::f64x4`; portable, SSE2 or
    /// AVX2 backend — all bitwise identical).
    #[default]
    Simd,
}

impl Kernel {
    /// Every kernel, in knob order.
    pub const ALL: [Kernel; 2] = [Kernel::Scalar, Kernel::Simd];

    /// Parses the user-facing knob value (`"scalar"` or `"simd"`, any
    /// case); anything else is `None`.
    pub fn parse(s: &str) -> Option<Kernel> {
        Kernel::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
    }

    /// Canonical knob spelling (used by the YAML writer and bench labels).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Simd => "simd",
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_only_production_kernels() {
        assert_eq!(Kernel::parse("scalar"), Some(Kernel::Scalar));
        assert_eq!(Kernel::parse("SIMD"), Some(Kernel::Simd));
        // The deleted mixed-precision kernel's spelling is now unknown.
        assert_eq!(Kernel::parse(concat!("simd_", "mixed")), None);
        assert_eq!(Kernel::parse("avx2"), None);
        assert_eq!(Kernel::parse(""), None);
    }

    #[test]
    fn default_is_simd_and_names_round_trip() {
        assert_eq!(Kernel::default(), Kernel::Simd);
        for k in Kernel::ALL {
            assert_eq!(Kernel::parse(k.name()), Some(k));
            assert_eq!(format!("{k}"), k.name());
        }
    }
}
