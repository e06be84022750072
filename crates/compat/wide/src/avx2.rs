//! AVX2 backend: one `__m256d` per vector. Compiled in only when the crate
//! itself is built with `-C target-feature=+avx2` (e.g. the CI AVX2 leg),
//! so every intrinsic is statically available — the `unsafe` blocks
//! discharge only the "target feature present" obligation, which holds by
//! construction. This is the single module (besides `sse2.rs`) exempt from
//! the crate's `#![deny(unsafe_code)]`.

#![allow(unsafe_code)]

use core::arch::x86_64::*;

#[derive(Clone, Copy, Debug)]
pub(crate) struct Repr(__m256d);

pub(crate) const NAME: &str = "avx2";

#[inline]
pub(crate) fn splat(v: f64) -> Repr {
    unsafe { Repr(_mm256_set1_pd(v)) }
}

#[inline]
pub(crate) fn from_array(a: [f64; 4]) -> Repr {
    unsafe { Repr(_mm256_setr_pd(a[0], a[1], a[2], a[3])) }
}

#[inline]
pub(crate) fn to_array(r: Repr) -> [f64; 4] {
    let mut out = [0.0f64; 4];
    unsafe {
        _mm256_storeu_pd(out.as_mut_ptr(), r.0);
    }
    out
}

#[inline]
pub(crate) fn add(a: Repr, b: Repr) -> Repr {
    unsafe { Repr(_mm256_add_pd(a.0, b.0)) }
}

#[inline]
pub(crate) fn sub(a: Repr, b: Repr) -> Repr {
    unsafe { Repr(_mm256_sub_pd(a.0, b.0)) }
}

#[inline]
pub(crate) fn mul(a: Repr, b: Repr) -> Repr {
    unsafe { Repr(_mm256_mul_pd(a.0, b.0)) }
}

#[inline]
pub(crate) fn div(a: Repr, b: Repr) -> Repr {
    unsafe { Repr(_mm256_div_pd(a.0, b.0)) }
}

#[inline]
pub(crate) fn sqrt(a: Repr) -> Repr {
    unsafe { Repr(_mm256_sqrt_pd(a.0)) }
}

#[inline]
pub(crate) fn max(a: Repr, b: Repr) -> Repr {
    unsafe { Repr(_mm256_max_pd(a.0, b.0)) }
}

#[inline]
pub(crate) fn lt(a: Repr, b: Repr) -> u8 {
    unsafe { _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(a.0, b.0)) as u8 }
}

#[inline]
pub(crate) fn gt(a: Repr, b: Repr) -> u8 {
    unsafe { _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(a.0, b.0)) as u8 }
}
