//! Array-backed reference backend: each lane is evaluated with plain `f64`
//! arithmetic. Every other backend must match this module bitwise (see the
//! crate-level determinism contract).

pub(crate) type Repr = [f64; 4];

pub(crate) const NAME: &str = "portable";

#[inline]
pub(crate) fn splat(v: f64) -> Repr {
    [v; 4]
}

#[inline]
pub(crate) fn from_array(a: [f64; 4]) -> Repr {
    a
}

#[inline]
pub(crate) fn to_array(r: Repr) -> [f64; 4] {
    r
}

#[inline]
pub(crate) fn add(a: Repr, b: Repr) -> Repr {
    std::array::from_fn(|i| a[i] + b[i])
}

#[inline]
pub(crate) fn sub(a: Repr, b: Repr) -> Repr {
    std::array::from_fn(|i| a[i] - b[i])
}

#[inline]
pub(crate) fn mul(a: Repr, b: Repr) -> Repr {
    std::array::from_fn(|i| a[i] * b[i])
}

#[inline]
pub(crate) fn div(a: Repr, b: Repr) -> Repr {
    std::array::from_fn(|i| a[i] / b[i])
}

#[inline]
pub(crate) fn sqrt(a: Repr) -> Repr {
    std::array::from_fn(|i| a[i].sqrt())
}

/// `_mm_max_pd` semantics: `if a > b { a } else { b }` per lane, so the
/// second operand wins on equal or unordered comparisons — exactly like the
/// x86 backends.
#[inline]
pub(crate) fn max(a: Repr, b: Repr) -> Repr {
    std::array::from_fn(|i| if a[i] > b[i] { a[i] } else { b[i] })
}

#[inline]
pub(crate) fn lt(a: Repr, b: Repr) -> u8 {
    let mut bits = 0u8;
    for i in 0..4 {
        if a[i] < b[i] {
            bits |= 1 << i;
        }
    }
    bits
}

#[inline]
pub(crate) fn gt(a: Repr, b: Repr) -> u8 {
    let mut bits = 0u8;
    for i in 0..4 {
        if a[i] > b[i] {
            bits |= 1 << i;
        }
    }
    bits
}
