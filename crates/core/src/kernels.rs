//! Vectorized pair/plane kernels and the SoA snapshots that feed them.
//!
//! The objective's hot loops spend almost all of their time rejecting
//! candidate pairs: with Verlet/CSR candidate lists only a fraction of the
//! visited pairs actually penetrate, so the dominant operation is "compute
//! a distance, compare, move on". This module makes that rejection cheap
//! two ways at once:
//!
//! 1. **sqrt-free**: candidates are rejected on the squared distance
//!    (`d² < (rᵢ+rⱼ)²`) before any `sqrt` — the square root is only paid
//!    for pairs that actually penetrate, and
//! 2. **4 lanes at a time**: the squared distances and thresholds of four
//!    candidates are computed in one [`wide::f64x4`] expression and tested
//!    with one branchless comparison mask.
//!
//! Lanes whose mask bit fires fall back to the exact scalar hot-pair code
//! (sqrt, [`pair_direction`] — including its degenerate-pair fallback) in
//! lane order, so the vectorized path visits hot pairs in the *same order*
//! and evaluates them with the *same scalar IEEE sequence* as the scalar
//! kernel. Since the lane arithmetic itself is restricted to element-wise
//! correctly-rounded ops (the [`wide`] compat crate guarantees every
//! backend is bitwise identical to the portable one), the SIMD and scalar
//! kernels produce **bitwise identical** values and gradients — the
//! `params.kernel` knob selects an implementation, not a numeric behavior.
//!
//! The SIMD lanes read coordinates from [`SoaCoords`] — a per-evaluation
//! structure-of-arrays snapshot (`x[] y[] z[] r[]`, padded to the lane
//! width) maintained in the [`crate::neighbor::Workspace`] — instead of
//! doing strided gathers from the interleaved `[x0 y0 z0 x1 …]` parameter
//! buffer, and planes from [`PlaneSoa`], built once per objective.
//! Padding lanes hold `+∞` positions (their d² is `+∞`, failing every `lt`
//! mask) and zero radii; plane padding holds zero normals with `d = −∞`
//! (excess `−∞`, failing the `gt` mask), so no `NaN` can arise and padded
//! lanes never contribute. The Verlet plan walks only each sphere's listed
//! planes, with the scalar [`planes_scalar`] loop.

// The kernels are free functions threading their accumulators (value,
// gradient, record) and pair source through every call explicitly rather
// than methods on a context struct, and the lane loops index several
// parallel columns at `k + lane` — an enumerate over one column would
// only obscure the indexing.
#![allow(clippy::too_many_arguments, clippy::needless_range_loop)]

use adampack_geometry::{HalfSpaceSet, Plane, Vec3};
use wide::f64x4;

use crate::objective::pair_direction;

/// SIMD lane width everything in this module is padded/chunked to.
pub(crate) const LANES: usize = 4;

/// Rounds `n` up to a multiple of [`LANES`].
#[inline]
fn padded_len(n: usize) -> usize {
    n.div_ceil(LANES) * LANES
}

// ---------------------------------------------------------------------------
// SoA snapshots
// ---------------------------------------------------------------------------

/// Structure-of-arrays snapshot of one batch: `x/y/z/r` columns padded to
/// the lane width. Refreshed once per objective evaluation from the flat
/// interleaved coordinate buffer; all buffers reuse capacity, so the
/// steady-state refresh allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct SoaCoords {
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    pub z: Vec<f64>,
    pub r: Vec<f64>,
    n: usize,
}

impl SoaCoords {
    /// Rebuilds the snapshot from an interleaved coordinate buffer.
    /// Padding lanes get `+∞` positions and zero radii.
    pub fn refresh(&mut self, c: &[f64], radii: &[f64]) {
        let n = radii.len();
        debug_assert_eq!(c.len(), 3 * n);
        let padded = padded_len(n);
        self.n = n;
        for col in [&mut self.x, &mut self.y, &mut self.z] {
            col.clear();
            col.resize(padded, f64::INFINITY);
        }
        self.r.clear();
        self.r.resize(padded, 0.0);
        for i in 0..n {
            self.x[i] = c[3 * i];
            self.y[i] = c[3 * i + 1];
            self.z[i] = c[3 * i + 2];
            self.r[i] = radii[i];
        }
    }

    /// Number of real (un-padded) entries.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Center of particle `i` as a vector.
    #[inline]
    pub fn point(&self, i: usize) -> Vec3 {
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }

    /// Heap bytes resident in the snapshot's columns (capacities).
    pub fn resident_bytes(&self) -> usize {
        (self.x.capacity() + self.y.capacity() + self.z.capacity() + self.r.capacity())
            * std::mem::size_of::<f64>()
    }
}

/// Structure-of-arrays snapshot of the container's half-space planes,
/// padded to the lane width with zero normals and `d = −∞` so padded
/// lanes have excess `−∞` and never pass the `> 0` mask. Built once per
/// objective: the container's planes never change within a run.
#[derive(Debug, Clone)]
pub(crate) struct PlaneSoa {
    pub nx: Vec<f64>,
    pub ny: Vec<f64>,
    pub nz: Vec<f64>,
    pub d: Vec<f64>,
}

impl PlaneSoa {
    /// The snapshot of a half-space set.
    pub fn new(hs: &HalfSpaceSet) -> PlaneSoa {
        let planes = hs.planes();
        let padded = padded_len(planes.len());
        let mut soa = PlaneSoa {
            nx: vec![0.0; padded],
            ny: vec![0.0; padded],
            nz: vec![0.0; padded],
            d: vec![f64::NEG_INFINITY; padded],
        };
        for (i, p) in planes.iter().enumerate() {
            soa.nx[i] = p.normal.x;
            soa.ny[i] = p.normal.y;
            soa.nz[i] = p.normal.z;
            soa.d[i] = p.d;
        }
        soa
    }
}

// ---------------------------------------------------------------------------
// Pair sources
// ---------------------------------------------------------------------------

/// Where a pair kernel reads candidate spheres from: the batch SoA snapshot
/// (intra pairs) or the fixed bed's center/radius arrays (cross pairs).
pub(crate) trait PairSource {
    /// One candidate as `(center, radius)` for the scalar hot-pair path.
    fn point(&self, j: usize) -> (Vec3, f64);

    /// Loads four candidates' `x/y/z/r` into lanes.
    fn gather(&self, idx: [usize; LANES]) -> (f64x4, f64x4, f64x4, f64x4);
}

impl PairSource for SoaCoords {
    #[inline]
    fn point(&self, j: usize) -> (Vec3, f64) {
        (SoaCoords::point(self, j), self.r[j])
    }

    #[inline]
    fn gather(&self, idx: [usize; LANES]) -> (f64x4, f64x4, f64x4, f64x4) {
        (
            f64x4::from_array(idx.map(|j| self.x[j])),
            f64x4::from_array(idx.map(|j| self.y[j])),
            f64x4::from_array(idx.map(|j| self.z[j])),
            f64x4::from_array(idx.map(|j| self.r[j])),
        )
    }
}

/// Borrowed view of the fixed bed's sphere arrays (no snapshot needed —
/// cross-pair gathers are per-index loads either way).
pub(crate) struct FixedView<'a> {
    pub centers: &'a [Vec3],
    pub radii: &'a [f64],
}

impl PairSource for FixedView<'_> {
    #[inline]
    fn point(&self, j: usize) -> (Vec3, f64) {
        (self.centers[j], self.radii[j])
    }

    #[inline]
    fn gather(&self, idx: [usize; LANES]) -> (f64x4, f64x4, f64x4, f64x4) {
        (
            f64x4::from_array(idx.map(|j| self.centers[j].x)),
            f64x4::from_array(idx.map(|j| self.centers[j].y)),
            f64x4::from_array(idx.map(|j| self.centers[j].z)),
            f64x4::from_array(idx.map(|j| self.radii[j])),
        )
    }
}

// ---------------------------------------------------------------------------
// Pair kernels
// ---------------------------------------------------------------------------

/// The exact scalar hot-pair body shared by every path once a candidate
/// passes the squared-distance test. `d_sq` must be the pair's squared
/// distance in [`Vec3::distance_sq`]'s operation order (the SIMD lanes
/// reproduce it bit for bit). With `INTRA` the self-pair is skipped and
/// the gradient carries the ordered-pair factor 2.
#[inline]
fn hot_pair<S: PairSource, const RECORD: bool, const INTRA: bool>(
    ci: Vec3,
    ri: f64,
    i: usize,
    alpha: f64,
    j: usize,
    d_sq: f64,
    src: &S,
    v: &mut f64,
    g: &mut Vec3,
    rec: &mut f64,
) {
    if INTRA && j == i {
        return;
    }
    let (cj, rj) = src.point(j);
    let sum_r = ri + rj;
    let d = d_sq.sqrt();
    *v += alpha * (sum_r - d);
    if RECORD {
        *rec += sum_r - d;
    }
    let dir = pair_direction(ci, cj, d, i, if INTRA { j } else { usize::MAX });
    *g -= dir * if INTRA { 2.0 * alpha } else { alpha };
}

/// Scalar candidate test + hot-pair body — the tail path of the chunked
/// kernels. Identical FP sequence to one SIMD lane.
#[inline]
fn scalar_pair<S: PairSource, const RECORD: bool, const INTRA: bool>(
    ci: Vec3,
    ri: f64,
    i: usize,
    alpha: f64,
    j: usize,
    src: &S,
    v: &mut f64,
    g: &mut Vec3,
    rec: &mut f64,
) {
    let (cj, rj) = src.point(j);
    let sum_r = ri + rj;
    let d_sq = ci.distance_sq(cj);
    if d_sq < sum_r * sum_r {
        hot_pair::<S, RECORD, INTRA>(ci, ri, i, alpha, j, d_sq, src, v, g, rec);
    }
}

/// Tests four gathered candidates branchlessly and runs the scalar
/// hot-pair body on the lanes that penetrate, in lane order.
#[inline]
fn process4<S: PairSource, const RECORD: bool, const INTRA: bool>(
    ci: Vec3,
    ri: f64,
    i: usize,
    alpha: f64,
    idx: [usize; LANES],
    src: &S,
    v: &mut f64,
    g: &mut Vec3,
    rec: &mut f64,
) {
    let (xs, ys, zs, rs) = src.gather(idx);
    let dx = f64x4::splat(ci.x) - xs;
    let dy = f64x4::splat(ci.y) - ys;
    let dz = f64x4::splat(ci.z) - zs;
    // Same association as `Vec3::distance_sq`: (dx² + dy²) + dz².
    let d2 = dx * dx + dy * dy;
    let d2 = d2 + dz * dz;
    let sr = f64x4::splat(ri) + rs;
    let hit = d2.lt(sr * sr);
    if hit.any() {
        let d2a = d2.to_array();
        for lane in 0..LANES {
            if hit.test(lane) {
                hot_pair::<S, RECORD, INTRA>(
                    ci, ri, i, alpha, idx[lane], d2a[lane], src, v, g, rec,
                );
            }
        }
    }
}

/// Pair scan over an explicit candidate index list (Verlet rows, CSR grid
/// rows): four candidates per mask test, scalar tail, original list order.
#[inline]
pub(crate) fn pairs_sparse<S: PairSource, const RECORD: bool, const INTRA: bool>(
    ci: Vec3,
    ri: f64,
    i: usize,
    alpha: f64,
    idx: &[u32],
    src: &S,
    v: &mut f64,
    g: &mut Vec3,
    rec: &mut f64,
) {
    let lanes_end = idx.len() - idx.len() % LANES;
    let mut k = 0;
    while k < lanes_end {
        let q = [
            idx[k] as usize,
            idx[k + 1] as usize,
            idx[k + 2] as usize,
            idx[k + 3] as usize,
        ];
        process4::<S, RECORD, INTRA>(ci, ri, i, alpha, q, src, v, g, rec);
        k += LANES;
    }
    for &j in &idx[lanes_end..] {
        scalar_pair::<S, RECORD, INTRA>(ci, ri, i, alpha, j as usize, src, v, g, rec);
    }
}

/// Pair scan over the contiguous index range `0..n` (the naive cross-term
/// oracle path).
#[inline]
pub(crate) fn pairs_range<S: PairSource, const RECORD: bool, const INTRA: bool>(
    ci: Vec3,
    ri: f64,
    i: usize,
    alpha: f64,
    n: usize,
    src: &S,
    v: &mut f64,
    g: &mut Vec3,
    rec: &mut f64,
) {
    let lanes_end = n - n % LANES;
    let mut k = 0;
    while k < lanes_end {
        process4::<S, RECORD, INTRA>(ci, ri, i, alpha, [k, k + 1, k + 2, k + 3], src, v, g, rec);
        k += LANES;
    }
    for j in lanes_end..n {
        scalar_pair::<S, RECORD, INTRA>(ci, ri, i, alpha, j, src, v, g, rec);
    }
}

/// Dense intra pair scan over the whole (padded) SoA snapshot: contiguous
/// lane loads, no gather, no tail — padding lanes can never pass the mask.
#[inline]
pub(crate) fn pairs_dense<const RECORD: bool>(
    ci: Vec3,
    ri: f64,
    i: usize,
    alpha: f64,
    soa: &SoaCoords,
    v: &mut f64,
    g: &mut Vec3,
    rec: &mut f64,
) {
    let (cix, ciy, ciz, riv) = (
        f64x4::splat(ci.x),
        f64x4::splat(ci.y),
        f64x4::splat(ci.z),
        f64x4::splat(ri),
    );
    let padded = soa.x.len();
    let mut k = 0;
    while k < padded {
        let dx = cix - f64x4::from_slice(&soa.x[k..]);
        let dy = ciy - f64x4::from_slice(&soa.y[k..]);
        let dz = ciz - f64x4::from_slice(&soa.z[k..]);
        let d2 = dx * dx + dy * dy;
        let d2 = d2 + dz * dz;
        let sr = riv + f64x4::from_slice(&soa.r[k..]);
        let hit = d2.lt(sr * sr);
        if hit.any() {
            let d2a = d2.to_array();
            for lane in 0..LANES {
                if hit.test(lane) {
                    hot_pair::<SoaCoords, RECORD, true>(
                        ci,
                        ri,
                        i,
                        alpha,
                        k + lane,
                        d2a[lane],
                        soa,
                        v,
                        g,
                        rec,
                    );
                }
            }
        }
        k += LANES;
    }
}

// ---------------------------------------------------------------------------
// Plane kernel
// ---------------------------------------------------------------------------

/// Vectorized half-space loop: four planes' sphere excesses per mask test.
/// The excess chain matches `Plane::sphere_excess` exactly:
/// `(((nx·cx + ny·cy) + nz·cz) + d) + r`.
#[inline]
pub(crate) fn planes_term<const RECORD: bool>(
    ci: Vec3,
    ri: f64,
    gamma: f64,
    psoa: &PlaneSoa,
    v: &mut f64,
    g: &mut Vec3,
    rec: &mut f64,
) {
    let (cx, cy, cz, rv) = (
        f64x4::splat(ci.x),
        f64x4::splat(ci.y),
        f64x4::splat(ci.z),
        f64x4::splat(ri),
    );
    let zero = f64x4::splat(0.0);
    let padded = psoa.nx.len();
    let mut k = 0;
    while k < padded {
        let nx = f64x4::from_slice(&psoa.nx[k..]);
        let ny = f64x4::from_slice(&psoa.ny[k..]);
        let nz = f64x4::from_slice(&psoa.nz[k..]);
        let e = nx * cx + ny * cy;
        let e = e + nz * cz;
        let e = e + f64x4::from_slice(&psoa.d[k..]);
        let e = e + rv;
        let hit = e.gt(zero);
        if hit.any() {
            let ea = e.to_array();
            for lane in 0..LANES {
                if hit.test(lane) {
                    let excess = ea[lane];
                    *v += gamma * excess;
                    if RECORD {
                        *rec += excess;
                    }
                    *g +=
                        Vec3::new(psoa.nx[k + lane], psoa.ny[k + lane], psoa.nz[k + lane]) * gamma;
                }
            }
        }
        k += LANES;
    }
}

/// Scalar half-space loop over `planes`, in the order given: the scalar
/// oracle walks every plane, the SIMD kernel's Verlet plan only the
/// sphere's listed ones. Each excess is [`Plane::sphere_excess`], the
/// same `(((nx·cx + ny·cy) + nz·cz) + d) + r` chain as one lane of
/// [`planes_term`], and hits accumulate in plane order, so skipping planes
/// that cannot reach a positive excess leaves every bit of the result as
/// the all-planes loop gives it.
#[inline]
pub(crate) fn planes_scalar<'p, const RECORD: bool>(
    ci: Vec3,
    ri: f64,
    gamma: f64,
    planes: impl IntoIterator<Item = &'p Plane>,
    v: &mut f64,
    g: &mut Vec3,
    rec: &mut f64,
) {
    for plane in planes {
        let excess = plane.sphere_excess(ci, ri);
        if excess > 0.0 {
            *v += gamma * excess;
            if RECORD {
                *rec += excess;
            }
            *g += plane.normal * gamma;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_soa(n: usize) -> SoaCoords {
        // Deterministic pseudo-random cloud with plenty of near-contacts.
        let mut c = Vec::with_capacity(3 * n);
        let mut radii = Vec::with_capacity(n);
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..n {
            c.push(next() * 2.0 - 1.0);
            c.push(next() * 2.0 - 1.0);
            c.push(next() * 2.0 - 1.0);
            radii.push(0.1 + 0.1 * next());
        }
        let mut soa = SoaCoords::default();
        soa.refresh(&c, &radii);
        soa
    }

    /// Reference: the purely scalar sqrt-free pair accumulation.
    fn scalar_reference<const INTRA: bool>(
        soa: &SoaCoords,
        i: usize,
        alpha: f64,
        order: &[usize],
    ) -> (f64, Vec3, f64) {
        let ci = soa.point(i);
        let ri = soa.r[i];
        let (mut v, mut g, mut rec) = (0.0, Vec3::ZERO, 0.0);
        for &j in order {
            if INTRA && j == i {
                continue;
            }
            let cj = soa.point(j);
            let rj = soa.r[j];
            let sum_r = ri + rj;
            let d_sq = ci.distance_sq(cj);
            if d_sq < sum_r * sum_r {
                let d = d_sq.sqrt();
                v += alpha * (sum_r - d);
                rec += sum_r - d;
                let dir = pair_direction(ci, cj, d, i, if INTRA { j } else { usize::MAX });
                g -= dir * if INTRA { 2.0 * alpha } else { alpha };
            }
        }
        (v, g, rec)
    }

    #[test]
    fn sparse_kernel_matches_scalar_bitwise() {
        for n in [1usize, 3, 4, 7, 53, 128] {
            let soa = test_soa(n);
            // A candidate list that includes the self-pair and is not a
            // multiple of the lane width.
            let idx: Vec<u32> = (0..n as u32).collect();
            let order: Vec<usize> = (0..n).collect();
            for i in [0, n / 2, n - 1] {
                let ci = soa.point(i);
                let ri = soa.r[i];
                let (mut v, mut g, mut rec) = (0.0, Vec3::ZERO, 0.0);
                pairs_sparse::<SoaCoords, true, true>(
                    ci, ri, i, 100.0, &idx, &soa, &mut v, &mut g, &mut rec,
                );
                let (rv, rg, rrec) = scalar_reference::<true>(&soa, i, 100.0, &order);
                assert_eq!(v.to_bits(), rv.to_bits(), "n={n} i={i}");
                assert_eq!(g.x.to_bits(), rg.x.to_bits());
                assert_eq!(g.y.to_bits(), rg.y.to_bits());
                assert_eq!(g.z.to_bits(), rg.z.to_bits());
                assert_eq!(rec.to_bits(), rrec.to_bits());
            }
        }
    }

    #[test]
    fn dense_kernel_matches_sparse_and_ignores_padding() {
        for n in [1usize, 5, 9, 64, 130] {
            let soa = test_soa(n);
            let idx: Vec<u32> = (0..n as u32).collect();
            let i = n / 2;
            let ci = soa.point(i);
            let ri = soa.r[i];
            let (mut v1, mut g1, mut r1) = (0.0, Vec3::ZERO, 0.0);
            pairs_dense::<true>(ci, ri, i, 100.0, &soa, &mut v1, &mut g1, &mut r1);
            let (mut v2, mut g2, mut r2) = (0.0, Vec3::ZERO, 0.0);
            pairs_sparse::<SoaCoords, true, true>(
                ci, ri, i, 100.0, &idx, &soa, &mut v2, &mut g2, &mut r2,
            );
            assert_eq!(v1.to_bits(), v2.to_bits(), "n={n}");
            assert_eq!(g1.x.to_bits(), g2.x.to_bits());
            assert!(v1.is_finite() && r1.is_finite());
        }
    }

    #[test]
    fn plane_kernel_matches_scalar_excess_loop() {
        let planes = vec![
            Plane {
                normal: Vec3::new(1.0, 0.0, 0.0),
                d: -1.0,
            },
            Plane {
                normal: Vec3::new(-1.0, 0.0, 0.0),
                d: -1.0,
            },
            Plane {
                normal: Vec3::new(0.0, 1.0, 0.0),
                d: -1.0,
            },
            Plane {
                normal: Vec3::new(0.0, 0.0, 1.0),
                d: -1.0,
            },
            Plane {
                normal: Vec3::new(0.0, 0.0, -1.0),
                d: -1.0,
            },
        ];
        let hs = HalfSpaceSet::new(planes.clone());
        let psoa = PlaneSoa::new(&hs);
        for (ci, ri) in [
            (Vec3::new(0.9, 0.0, 0.0), 0.5),
            (Vec3::new(0.8, 0.9, 0.95), 0.5),
            (Vec3::ZERO, 0.1),
        ] {
            let (mut v, mut g, mut rec) = (0.0, Vec3::ZERO, 0.0);
            planes_term::<true>(ci, ri, 100.0, &psoa, &mut v, &mut g, &mut rec);
            let (mut rv, mut rg, mut rrec) = (0.0, Vec3::ZERO, 0.0);
            planes_scalar::<true>(ci, ri, 100.0, &planes, &mut rv, &mut rg, &mut rrec);
            assert_eq!(v.to_bits(), rv.to_bits());
            assert_eq!(g.x.to_bits(), rg.x.to_bits());
            assert_eq!(g.y.to_bits(), rg.y.to_bits());
            assert_eq!(g.z.to_bits(), rg.z.to_bits());
            assert_eq!(rec.to_bits(), rrec.to_bits());
        }
    }

    #[test]
    fn soa_refresh_pads_to_lane_width() {
        let soa = test_soa(5);
        assert_eq!(soa.len(), 5);
        assert_eq!(soa.x.len(), 8);
        assert!(soa.x[5..].iter().all(|&x| x == f64::INFINITY));
        assert!(soa.r[5..].iter().all(|&r| r == 0.0));
    }
}
