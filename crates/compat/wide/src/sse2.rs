//! SSE2 backend: two `__m128d` halves (lanes `[0,1]` and `[2,3]`).
//!
//! SSE2 is part of the x86-64 baseline, so every intrinsic here is
//! unconditionally available — the `unsafe` blocks discharge only the
//! "target feature present" obligation, which holds by construction.
//! This is the single module (besides `avx2.rs`) exempt from the crate's
//! `#![deny(unsafe_code)]`.

#![allow(unsafe_code)]

use core::arch::x86_64::*;

#[derive(Clone, Copy, Debug)]
pub(crate) struct Repr(__m128d, __m128d);

pub(crate) const NAME: &str = "sse2";

#[inline]
pub(crate) fn splat(v: f64) -> Repr {
    unsafe { Repr(_mm_set1_pd(v), _mm_set1_pd(v)) }
}

#[inline]
pub(crate) fn from_array(a: [f64; 4]) -> Repr {
    unsafe { Repr(_mm_set_pd(a[1], a[0]), _mm_set_pd(a[3], a[2])) }
}

#[inline]
pub(crate) fn to_array(r: Repr) -> [f64; 4] {
    let mut out = [0.0f64; 4];
    unsafe {
        _mm_storeu_pd(out.as_mut_ptr(), r.0);
        _mm_storeu_pd(out.as_mut_ptr().add(2), r.1);
    }
    out
}

#[inline]
pub(crate) fn add(a: Repr, b: Repr) -> Repr {
    unsafe { Repr(_mm_add_pd(a.0, b.0), _mm_add_pd(a.1, b.1)) }
}

#[inline]
pub(crate) fn sub(a: Repr, b: Repr) -> Repr {
    unsafe { Repr(_mm_sub_pd(a.0, b.0), _mm_sub_pd(a.1, b.1)) }
}

#[inline]
pub(crate) fn mul(a: Repr, b: Repr) -> Repr {
    unsafe { Repr(_mm_mul_pd(a.0, b.0), _mm_mul_pd(a.1, b.1)) }
}

#[inline]
pub(crate) fn div(a: Repr, b: Repr) -> Repr {
    unsafe { Repr(_mm_div_pd(a.0, b.0), _mm_div_pd(a.1, b.1)) }
}

#[inline]
pub(crate) fn sqrt(a: Repr) -> Repr {
    unsafe { Repr(_mm_sqrt_pd(a.0), _mm_sqrt_pd(a.1)) }
}

#[inline]
pub(crate) fn max(a: Repr, b: Repr) -> Repr {
    unsafe { Repr(_mm_max_pd(a.0, b.0), _mm_max_pd(a.1, b.1)) }
}

#[inline]
pub(crate) fn lt(a: Repr, b: Repr) -> u8 {
    unsafe {
        let lo = _mm_movemask_pd(_mm_cmplt_pd(a.0, b.0));
        let hi = _mm_movemask_pd(_mm_cmplt_pd(a.1, b.1));
        (lo | (hi << 2)) as u8
    }
}

#[inline]
pub(crate) fn gt(a: Repr, b: Repr) -> u8 {
    unsafe {
        let lo = _mm_movemask_pd(_mm_cmpgt_pd(a.0, b.0));
        let hi = _mm_movemask_pd(_mm_cmpgt_pd(a.1, b.1));
        (lo | (hi << 2)) as u8
    }
}
