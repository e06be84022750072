//! # wide (offline compat)
//!
//! Offline API-subset substitute for the crates.io `wide` crate: a 4-lane
//! `f64` SIMD vector ([`f64x4`]) with three interchangeable backends:
//!
//! * **portable** — a plain `[f64; 4]` evaluated lane-by-lane (any target);
//! * **sse2** — two `__m128d` halves (the x86-64 baseline, always present);
//! * **avx2** — one `__m256d` (selected when the crate is *compiled* with
//!   `-C target-feature=+avx2`).
//!
//! ## Determinism contract
//!
//! The exposed operation set is deliberately restricted to element-wise
//! IEEE-754 *correctly rounded* operations — add, sub, mul, div, sqrt — plus
//! ordered comparisons and the SSE-style `max` (`if a > b { a } else { b }`).
//! Fused multiply-add is **not** exposed. Under this restriction every
//! backend produces bitwise-identical lane results, and each lane is
//! bitwise-identical to the equivalent scalar `f64` expression, so backend
//! selection can be a compile-time `cfg` choice without forking numeric
//! results across machines. Runtime CPU detection exists only for
//! *reporting* (see [`detected_isa`]); it never changes arithmetic.
//!
//! `max` follows `_mm_max_pd` semantics exactly (returns the second operand
//! when the lanes compare unordered or equal); callers that need bitwise
//! agreement with scalar `f64::max` must keep NaN and mixed-sign zeros out
//! of the operands, which the workspace's kernels do (second-moment
//! accumulators are non-negative and finite).
//!
//! Everything outside the two isolated intrinsics modules is
//! `#![deny(unsafe_code)]`.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![allow(non_camel_case_types)]

// On x86-64 the portable module is the dormant reference implementation
// (an ISA backend is active instead); keep it compiled so drift is caught,
// without unused-function noise.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
mod portable;

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
mod avx2;
#[cfg(all(target_arch = "x86_64", not(target_feature = "avx2")))]
mod sse2;

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
use avx2 as backend;
#[cfg(not(target_arch = "x86_64"))]
use portable as backend;
#[cfg(all(target_arch = "x86_64", not(target_feature = "avx2")))]
use sse2 as backend;

use std::ops::{Add, Div, Mul, Sub};

/// A vector of four `f64` lanes.
///
/// All operations are element-wise and bitwise-identical across backends;
/// see the crate docs for the determinism contract.
#[derive(Clone, Copy, Debug)]
pub struct f64x4(backend::Repr);

/// Comparison result for [`f64x4`]: one bit per lane (bit `i` = lane `i`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mask4(u8);

impl f64x4 {
    /// Number of lanes.
    pub const LANES: usize = 4;

    /// All four lanes set to `v`.
    #[inline]
    pub fn splat(v: f64) -> Self {
        f64x4(backend::splat(v))
    }

    /// Builds a vector from four lane values.
    #[inline]
    pub fn from_array(a: [f64; 4]) -> Self {
        f64x4(backend::from_array(a))
    }

    /// Loads the first four elements of `s` (panics when `s.len() < 4`).
    #[inline]
    pub fn from_slice(s: &[f64]) -> Self {
        f64x4(backend::from_array([s[0], s[1], s[2], s[3]]))
    }

    /// Extracts the lanes as an array.
    #[inline]
    pub fn to_array(self) -> [f64; 4] {
        backend::to_array(self.0)
    }

    /// Element-wise square root (IEEE correctly rounded on every backend).
    #[inline]
    pub fn sqrt(self) -> Self {
        f64x4(backend::sqrt(self.0))
    }

    /// Element-wise `_mm_max_pd`-style maximum: `if a > b { a } else { b }`.
    ///
    /// Returns the *second* operand when lanes compare equal or unordered —
    /// identical on every backend, but subtly different from `f64::max` for
    /// NaN and `±0.0` inputs (see the crate docs).
    #[inline]
    pub fn max(self, rhs: Self) -> Self {
        f64x4(backend::max(self.0, rhs.0))
    }

    /// Element-wise ordered `<`, as a per-lane bitmask.
    #[inline]
    pub fn lt(self, rhs: Self) -> Mask4 {
        Mask4(backend::lt(self.0, rhs.0))
    }

    /// Element-wise ordered `>`, as a per-lane bitmask.
    #[inline]
    pub fn gt(self, rhs: Self) -> Mask4 {
        Mask4(backend::gt(self.0, rhs.0))
    }
}

impl Add for f64x4 {
    type Output = f64x4;
    #[inline]
    fn add(self, rhs: f64x4) -> f64x4 {
        f64x4(backend::add(self.0, rhs.0))
    }
}

impl Sub for f64x4 {
    type Output = f64x4;
    #[inline]
    fn sub(self, rhs: f64x4) -> f64x4 {
        f64x4(backend::sub(self.0, rhs.0))
    }
}

impl Mul for f64x4 {
    type Output = f64x4;
    #[inline]
    fn mul(self, rhs: f64x4) -> f64x4 {
        f64x4(backend::mul(self.0, rhs.0))
    }
}

impl Div for f64x4 {
    type Output = f64x4;
    #[inline]
    fn div(self, rhs: f64x4) -> f64x4 {
        f64x4(backend::div(self.0, rhs.0))
    }
}

impl Mask4 {
    /// True when at least one lane is set.
    #[inline]
    pub fn any(self) -> bool {
        self.0 != 0
    }

    /// True when lane `lane` (0..4) is set.
    #[inline]
    pub fn test(self, lane: usize) -> bool {
        debug_assert!(lane < 4);
        self.0 & (1 << lane) != 0
    }

    /// Raw per-lane bitmask (bit `i` = lane `i`).
    #[inline]
    pub fn to_bits(self) -> u8 {
        self.0
    }
}

/// Name of the backend this crate was *compiled* with
/// (`"avx2"`, `"sse2"` or `"portable"`).
pub fn backend_name() -> &'static str {
    backend::NAME
}

/// Best SIMD ISA the *running* CPU supports, for bench/report output only —
/// arithmetic always uses the compile-time backend (see crate docs).
pub fn detected_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            "avx512f"
        } else if is_x86_feature_detected!("avx2") {
            "avx2"
        } else {
            // SSE2 is part of the x86-64 baseline.
            "sse2"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "portable"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_lanes_eq(got: f64x4, want: [f64; 4], what: &str) {
        let g = got.to_array();
        for lane in 0..4 {
            assert_eq!(
                g[lane].to_bits(),
                want[lane].to_bits(),
                "{what}: lane {lane}: {} vs {}",
                g[lane],
                want[lane]
            );
        }
    }

    #[test]
    fn roundtrip_and_splat() {
        let a = [1.5, -2.25, 3.0e100, -0.0];
        assert_lanes_eq(f64x4::from_array(a), a, "from_array/to_array");
        assert_lanes_eq(f64x4::splat(7.5), [7.5; 4], "splat");
        assert_lanes_eq(
            f64x4::from_slice(&[1.0, 2.0, 3.0, 4.0, 99.0]),
            [1.0, 2.0, 3.0, 4.0],
            "from_slice",
        );
    }

    /// Every arithmetic op must be bitwise identical to the scalar `f64`
    /// expression, lane by lane — this is the determinism contract the
    /// packing kernels rely on, and it also proves the active backend
    /// (SSE2/AVX2 on x86-64) agrees with plain Rust arithmetic.
    #[test]
    fn ops_match_scalar_bitwise() {
        // Awkward values on purpose: subnormal-adjacent, huge, negative,
        // non-representable decimals.
        let xs = [0.1, -1.0e-308, 7.213e80, -123.456];
        let ys = [3.3, 2.0e-308, -1.9e-7, 123.456];
        let x = f64x4::from_array(xs);
        let y = f64x4::from_array(ys);
        assert_lanes_eq(x + y, std::array::from_fn(|i| xs[i] + ys[i]), "add");
        assert_lanes_eq(x - y, std::array::from_fn(|i| xs[i] - ys[i]), "sub");
        assert_lanes_eq(x * y, std::array::from_fn(|i| xs[i] * ys[i]), "mul");
        assert_lanes_eq(x / y, std::array::from_fn(|i| xs[i] / ys[i]), "div");
        let pos = [0.1, 4.0, 7.213e80, 2.0e-308];
        let p = f64x4::from_array(pos);
        assert_lanes_eq(p.sqrt(), std::array::from_fn(|i| pos[i].sqrt()), "sqrt");
        assert_lanes_eq(
            x.max(y),
            std::array::from_fn(|i| if xs[i] > ys[i] { xs[i] } else { ys[i] }),
            "max",
        );
    }

    /// The active backend and the portable reference module must agree
    /// bitwise on a pseudo-random operation mix.
    #[test]
    fn backend_matches_portable_reference() {
        // Tiny deterministic LCG so the test needs no external RNG.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Map to a modest range, keep positives for sqrt.
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 100.0 + 1e-3
        };
        for _ in 0..256 {
            let a: [f64; 4] = std::array::from_fn(|_| next());
            let b: [f64; 4] = std::array::from_fn(|_| next());
            let (va, vb) = (f64x4::from_array(a), f64x4::from_array(b));
            let via_backend = ((va * vb + va) / vb.sqrt() - vb).max(va).to_array();
            let via_portable: [f64; 4] = std::array::from_fn(|i| {
                let t = (a[i] * b[i] + a[i]) / b[i].sqrt() - b[i];
                if t > a[i] {
                    t
                } else {
                    a[i]
                }
            });
            for lane in 0..4 {
                assert_eq!(via_backend[lane].to_bits(), via_portable[lane].to_bits());
            }
        }
    }

    #[test]
    fn masks_report_lanes() {
        let a = f64x4::from_array([1.0, 5.0, -2.0, f64::NAN]);
        let b = f64x4::splat(0.0);
        let gt = a.gt(b);
        assert!(gt.any());
        assert_eq!(gt.to_bits(), 0b0011);
        assert!(gt.test(0) && gt.test(1));
        assert!(!gt.test(2), "negative lane is not > 0");
        assert!(!gt.test(3), "NaN compares unordered, never set");
        let lt = a.lt(b);
        assert_eq!(lt.to_bits(), 0b0100);
        let none = f64x4::splat(1.0).lt(b);
        assert!(!none.any());
        let all = f64x4::splat(-1.0).lt(b);
        assert_eq!(all.to_bits(), 0b1111);
    }

    #[test]
    fn max_uses_sse_semantics() {
        // Equal lanes and NaN lanes return the *second* operand on every
        // backend; the packing kernels keep NaN out, but the contract is
        // pinned here so a backend change can't silently alter it.
        let a = f64x4::from_array([0.0, f64::NAN, 2.0, -0.0]);
        let b = f64x4::from_array([-0.0, 7.0, f64::NAN, 0.0]);
        let m = a.max(b).to_array();
        assert_eq!(m[0].to_bits(), (-0.0f64).to_bits(), "equal→second operand");
        assert_eq!(m[1].to_bits(), 7.0f64.to_bits(), "NaN lhs→second operand");
        assert!(m[2].is_nan(), "NaN rhs→second operand");
        assert_eq!(m[3].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn isa_reporting_is_sane() {
        let compiled = backend_name();
        assert!(["portable", "sse2", "avx2"].contains(&compiled));
        let detected = detected_isa();
        assert!(["portable", "sse2", "avx2", "avx512f"].contains(&detected));
    }
}
