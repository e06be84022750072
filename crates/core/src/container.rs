//! Containers: convex regions given by half-space sets, with
//! packing-related queries (spawn sampling, capacity estimates).
//!
//! A container is normally built from a triangular mesh exactly as in the
//! paper — the mesh vertices go through the convex-hull step and the
//! resulting half-space set `H` is what the objective's exterior-distance
//! term evaluates. Zoned packings (§VI-A) additionally *restrict* a
//! container with extra planes (slice bounds or a zone hull); the restricted
//! region is still a half-space intersection, just without an explicit
//! vertex representation, so volume is then estimated by deterministic
//! quasi-Monte-Carlo sampling.

use adampack_geometry::{Aabb, Axis, ConvexHull, HalfSpaceSet, HullError, Plane, TriMesh, Vec3};
use rand::Rng;

/// A convex packing container.
#[derive(Debug, Clone)]
pub struct Container {
    halfspaces: HalfSpaceSet,
    aabb: Aabb,
    volume: f64,
    hull: Option<ConvexHull>,
}

impl Container {
    /// Builds a container from a triangle mesh (`Conv(V)` of its vertices).
    pub fn from_mesh(mesh: &TriMesh) -> Result<Container, HullError> {
        Ok(Container::from_hull(ConvexHull::from_mesh(mesh)?))
    }

    /// Builds a container directly from a point cloud.
    pub fn from_points(points: &[Vec3]) -> Result<Container, HullError> {
        Ok(Container::from_hull(ConvexHull::from_points(points)?))
    }

    /// Wraps an existing hull.
    pub fn from_hull(hull: ConvexHull) -> Container {
        Container {
            halfspaces: hull.halfspaces().clone(),
            aabb: hull.aabb(),
            volume: hull.volume(),
            hull: Some(hull),
        }
    }

    /// A sub-container restricted by additional half-space constraints
    /// (`bounds` conservatively clips the bounding box; pass the original
    /// box when no tighter bound is known).
    ///
    /// When this container carries an explicit hull, the restricted region
    /// is computed *exactly* by clipping the hull mesh against each finite
    /// plane ([`adampack_geometry::clip_convex_all`]) and re-hulling, giving
    /// exact volume, bounding box and vertex support. Without a hull (or if
    /// clipping degenerates) the volume falls back to a deterministic
    /// 32 768-sample quasi-Monte-Carlo estimate — accurate to well under
    /// 1 % for the convex regions zones use, and only consulted for
    /// spawn-slab sizing and capacity heuristics.
    pub fn restricted(&self, extra: &[Plane], bounds: Aabb) -> Container {
        let mut hs = self.halfspaces.clone();
        let mut finite: Vec<Plane> = Vec::with_capacity(extra.len());
        for p in extra {
            hs.push(*p);
            // Planes at infinity (an unbounded slice side) constrain nothing.
            if p.d.is_finite() {
                finite.push(*p);
            }
        }

        // Exact path: clip the hull mesh and rebuild.
        if let Some(hull) = &self.hull {
            let mesh = hull.to_mesh();
            let eps = self.aabb.diagonal().max(1.0) * 1e-9;
            if let Some(clipped) = adampack_geometry::clip_convex_all(&mesh, &finite, eps) {
                if let Ok(new_hull) = ConvexHull::from_mesh(&clipped) {
                    return Container {
                        // Keep the full half-space set (original + extra):
                        // the re-hulled planes and these agree geometrically,
                        // but the explicit list preserves the caller's exact
                        // plane coefficients for the objective.
                        halfspaces: hs,
                        aabb: new_hull.aabb().intersection(&bounds),
                        volume: new_hull.volume(),
                        hull: Some(new_hull),
                    };
                }
            }
            // Clipping says the region is (nearly) empty.
            if adampack_geometry::clip_convex_all(&mesh, &finite, eps).is_none() {
                return Container {
                    halfspaces: hs,
                    aabb: Aabb::empty(),
                    volume: 0.0,
                    hull: None,
                };
            }
        }

        // Fallback: QMC estimate over the conservative bounding box.
        let aabb = self.aabb.intersection(&bounds);
        let volume = estimate_volume(&hs, &aabb);
        Container {
            halfspaces: hs,
            aabb,
            volume,
            hull: None,
        }
    }

    /// The half-space set `H`.
    pub fn halfspaces(&self) -> &HalfSpaceSet {
        &self.halfspaces
    }

    /// The explicit hull, if this container was built from one (restricted
    /// containers have none).
    pub fn hull(&self) -> Option<&ConvexHull> {
        self.hull.as_ref()
    }

    /// Bounding box (conservative for restricted containers).
    pub fn aabb(&self) -> Aabb {
        self.aabb
    }

    /// Container volume (exact for hull-backed containers, QMC-estimated
    /// for restricted ones).
    pub fn volume(&self) -> f64 {
        self.volume
    }

    /// True when the region holds no volume (e.g. a zone restricted to a
    /// slab outside its container).
    pub fn is_empty(&self) -> bool {
        self.aabb.is_empty() || self.volume.is_nan() || self.volume <= 0.0
    }

    /// True when `p` lies inside within `tol`.
    pub fn contains(&self, p: Vec3, tol: f64) -> bool {
        self.halfspaces.contains(p, tol)
    }

    /// True when the whole sphere lies inside within `tol`.
    pub fn contains_sphere(&self, center: Vec3, radius: f64, tol: f64) -> bool {
        self.halfspaces.sphere_max_excess(center, radius) <= tol
    }

    /// Rough capacity estimate for spheres of mean radius `r` at packing
    /// fraction `phi` — used to sanity-check `target_count` requests.
    pub fn capacity_estimate(&self, r: f64, phi: f64) -> usize {
        assert!(r > 0.0 && phi > 0.0 && phi <= 1.0);
        let v_sphere = 4.0 / 3.0 * std::f64::consts::PI * r * r * r;
        (self.volume * phi / v_sphere).floor() as usize
    }

    /// Samples a point uniformly inside the container restricted to the
    /// altitude slab `[lo, hi]` (measured along `axis`), by rejection from
    /// the bounding box, inset by `margin` from the boundary.
    ///
    /// Returns `None` after `max_tries` failed rejections (slab outside the
    /// container or nearly empty); callers then fall back to spawning in the
    /// bounding-box column above, where the objective's boundary term pulls
    /// particles inside.
    pub fn sample_in_slab<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        axis: Axis,
        lo: f64,
        hi: f64,
        margin: f64,
        max_tries: usize,
    ) -> Option<Vec3> {
        let bb = self.aabb;
        let up = axis.up();
        for _ in 0..max_tries {
            let p = Vec3::new(
                rng.gen_range(bb.min.x..=bb.max.x),
                rng.gen_range(bb.min.y..=bb.max.y),
                rng.gen_range(bb.min.z..=bb.max.z),
            );
            let alt = up.dot(p);
            if alt < lo || alt > hi {
                continue;
            }
            if self.halfspaces.max_signed_distance(p) <= -margin {
                return Some(p);
            }
        }
        None
    }

    /// Altitude range of the container along `axis`: exact for hull-backed
    /// containers (vertex support), bounding-box-based (conservative) for
    /// restricted ones.
    pub fn altitude_range(&self, axis: Axis) -> (f64, f64) {
        let up = axis.up();
        let points: Vec<Vec3> = match &self.hull {
            Some(h) => h.vertices.clone(),
            None => self.aabb.corners().to_vec(),
        };
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in points {
            let a = up.dot(v);
            lo = lo.min(a);
            hi = hi.max(a);
        }
        (lo, hi)
    }
}

/// Deterministic quasi-Monte-Carlo volume estimate of a half-space region
/// within a bounding box (additive-recurrence low-discrepancy sequence).
fn estimate_volume(hs: &HalfSpaceSet, bb: &Aabb) -> f64 {
    if bb.is_empty() || bb.volume() <= 0.0 {
        return 0.0;
    }
    // Kronecker/Weyl sequence with plastic-number offsets.
    const N: usize = 32_768;
    const A1: f64 = 0.819_172_513_396_164_4;
    const A2: f64 = 0.671_043_606_703_789_2;
    const A3: f64 = 0.549_700_477_901_960_3;
    let e = bb.extent();
    let mut hits = 0usize;
    let (mut u1, mut u2, mut u3) = (0.5, 0.5, 0.5);
    for _ in 0..N {
        u1 = (u1 + A1) % 1.0;
        u2 = (u2 + A2) % 1.0;
        u3 = (u3 + A3) % 1.0;
        let p = bb.min + Vec3::new(u1 * e.x, u2 * e.y, u3 * e.z);
        if hs.contains(p, 0.0) {
            hits += 1;
        }
    }
    bb.volume() * hits as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use adampack_geometry::shapes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn box_container() -> Container {
        Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0))).unwrap()
    }

    #[test]
    fn from_mesh_builds_hull() {
        let c = box_container();
        assert_eq!(c.halfspaces().len(), 6);
        assert!((c.volume() - 8.0).abs() < 1e-9);
        assert!(c.hull().is_some());
        let (lo, hi) = c.altitude_range(Axis::Z);
        assert!((lo + 1.0).abs() < 1e-12 && (hi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_estimate_is_sane() {
        let c = box_container();
        // Paper §V-A: ~1000 spheres of r = 0.1 at φ ≈ 0.6 in a 2×2×2 box.
        let cap = c.capacity_estimate(0.1, 0.6);
        assert!((950..=1200).contains(&cap), "cap = {cap}");
    }

    #[test]
    fn containment_queries() {
        let c = box_container();
        assert!(c.contains(Vec3::ZERO, 0.0));
        assert!(!c.contains(Vec3::new(1.5, 0.0, 0.0), 1e-9));
        assert!(c.contains_sphere(Vec3::ZERO, 0.9, 0.0));
        assert!(!c.contains_sphere(Vec3::ZERO, 1.1, 1e-9));
    }

    #[test]
    fn sample_in_slab_respects_constraints() {
        let c = box_container();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let p = c
                .sample_in_slab(&mut rng, Axis::Z, -0.5, 0.5, 0.1, 1000)
                .expect("slab intersects the container");
            assert!(p.z >= -0.5 && p.z <= 0.5);
            assert!(c.halfspaces().max_signed_distance(p) <= -0.1 + 1e-12);
        }
    }

    #[test]
    fn sample_in_empty_slab_returns_none() {
        let c = box_container();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(c
            .sample_in_slab(&mut rng, Axis::Z, 5.0, 6.0, 0.0, 200)
            .is_none());
    }

    #[test]
    fn restricted_slice_volume_and_sampling() {
        let c = box_container();
        // Keep only z ≤ 0: half the box.
        let cut = Plane::from_point_normal(Vec3::ZERO, Vec3::Z).unwrap();
        let bb = Aabb::new(c.aabb().min, Vec3::new(1.0, 1.0, 0.0));
        let half = c.restricted(&[cut], bb);
        // Exact clipped geometry: hull present, volume exact.
        assert!(half.hull().is_some());
        assert!(
            (half.volume() - 4.0).abs() < 1e-9,
            "clipped volume = {}",
            half.volume()
        );
        assert!(half.contains(Vec3::new(0.0, 0.0, -0.5), 0.0));
        assert!(!half.contains(Vec3::new(0.0, 0.0, 0.5), 1e-9));
        let (lo, hi) = half.altitude_range(Axis::Z);
        assert!((lo + 1.0).abs() < 1e-12 && hi.abs() < 1e-12);
        // Sampling stays in the restricted region.
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let p = half
                .sample_in_slab(&mut rng, Axis::Z, -1.0, 0.0, 0.05, 2000)
                .expect("restricted slab should be samplable");
            assert!(p.z <= -0.05 + 1e-12);
        }
    }

    #[test]
    fn custom_axis_altitude_range() {
        let c = box_container();
        let diag = Axis::from_vector(Vec3::new(1.0, 1.0, 1.0)).unwrap();
        let (lo, hi) = c.altitude_range(diag);
        let expect = 3.0f64.sqrt();
        assert!((hi - expect).abs() < 1e-12 && (lo + expect).abs() < 1e-12);
    }

    #[test]
    fn cylinder_container_volume() {
        let c = Container::from_mesh(&shapes::cylinder(1.0, 2.0, 96)).unwrap();
        assert!((c.volume() - std::f64::consts::PI * 2.0).abs() / c.volume() < 0.01);
    }
}
