//! Zoned packings (§VI-A).
//!
//! A *zone* fills a sub-region of the container — delimited by an altitude
//! slice or by an STL shape — with a mix of particle sets ("e.g., small
//! particles at the bottom, and large particles at the top", with
//! proportions like `[0.7, 0.3]`). Zones are packed bottom-up along the
//! gravity axis; the particles of earlier zones stay fixed. The run driver
//! ([`crate::BatchedPacker::zoned`]) walks the zones as stages of one run.

use adampack_geometry::{Aabb, Axis, ConvexHull, Plane};

use crate::container::Container;
use crate::params::PackingParams;
use crate::psd::{Psd, PsdError};

/// The spatial extent of a zone.
#[derive(Debug, Clone)]
pub enum ZoneRegion {
    /// An altitude slab `min ≤ (up·x) ≤ max` along a coordinate axis — the
    /// YAML `slice:` form.
    Slice {
        /// Slicing axis.
        axis: Axis,
        /// Lower altitude bound.
        min: f64,
        /// Upper altitude bound.
        max: f64,
    },
    /// A convex mesh sub-region — the YAML nested-STL form (e.g. the green
    /// sphere zone of Fig. 10).
    Mesh(ConvexHull),
}

impl ZoneRegion {
    /// The planes that carve this region out of the container.
    pub fn planes(&self) -> Vec<Plane> {
        match self {
            ZoneRegion::Slice { axis, min, max } => {
                let up = axis.up();
                vec![
                    // up·x ≥ min  ⟺  −up·x + min ≤ 0.
                    Plane::from_point_normal(up * *min, -up).expect("unit axis"),
                    // up·x ≤ max.
                    Plane::from_point_normal(up * *max, up).expect("unit axis"),
                ]
            }
            ZoneRegion::Mesh(hull) => hull.halfspaces().planes().to_vec(),
        }
    }

    /// A conservative bounding box for the region (infinite extents fall
    /// back to `outer`).
    pub fn bounds(&self, outer: &Aabb) -> Aabb {
        match self {
            ZoneRegion::Slice { axis, min, max } => {
                let mut bb = *outer;
                if let Some(i) = axis.index() {
                    bb.min[i] = bb.min[i].max(*min);
                    bb.max[i] = bb.max[i].min(*max);
                    Aabb::new(bb.min, bb.max)
                } else {
                    bb
                }
            }
            ZoneRegion::Mesh(hull) => outer.intersection(&hull.aabb()),
        }
    }

    /// Altitude of the region's lowest point — zones are packed in this
    /// order.
    pub fn bottom(&self, gravity: Axis, outer: &Aabb) -> f64 {
        let up = gravity.up();
        self.bounds(outer)
            .corners()
            .iter()
            .map(|&c| up.dot(c))
            .fold(f64::INFINITY, f64::min)
    }
}

/// One zone: a region, a particle budget, and the particle-set mix.
#[derive(Debug, Clone)]
pub struct ZoneSpec {
    /// Where to pack.
    pub region: ZoneRegion,
    /// How many particles this zone receives.
    pub n_particles: usize,
    /// Relative weights over the packer's particle sets (the YAML
    /// `set_proportions`); zero-weight sets are skipped.
    pub set_proportions: Vec<f64>,
}

/// A zone whose region lies outside its container: a configuration error,
/// reported before any packing starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyZone {
    /// The zone's index in the list as given.
    pub index: usize,
}

impl std::fmt::Display for EmptyZone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "zones[{}]: the region does not intersect the container",
            self.index
        )
    }
}

impl std::error::Error for EmptyZone {}

/// One zone's stage of a zoned run.
pub(crate) struct ZoneStage {
    /// The container restricted to the zone's region.
    pub container: Container,
    /// The base parameters with the zone's budget, batch size and seed.
    pub params: PackingParams,
    /// The zone's mixture of the particle sets.
    pub psd: Psd,
}

/// The stages of a zoned packing, bottom-up along the gravity axis (by
/// region bottom). Stage `k` packs the container restricted to its zone's
/// region with the zone's own particle budget, the batch size clamped to
/// that budget, the seed `seed + 0x9E37_79B9·(k+1)` (decorrelated zone RNG
/// streams) and the proportion-weighted mixture of `sets`.
///
/// Panics on library misuse the configuration parser already rejects: no
/// sets or zones, a proportion vector that does not match `sets`, or
/// proportions [`try_zone_psd`] refuses.
pub(crate) fn stages(
    container: &Container,
    params: &PackingParams,
    sets: &[Psd],
    zones: &[ZoneSpec],
) -> Result<Vec<ZoneStage>, EmptyZone> {
    assert!(!sets.is_empty(), "at least one particle set is required");
    assert!(!zones.is_empty(), "no zones given");
    params.validate();
    for (zi, z) in zones.iter().enumerate() {
        assert_eq!(
            z.set_proportions.len(),
            sets.len(),
            "zone {zi}: set_proportions length must match the number of particle sets"
        );
        assert!(
            z.set_proportions.iter().any(|&w| w > 0.0),
            "zone {zi}: at least one proportion must be positive"
        );
    }
    let outer = container.aabb();
    let mut order: Vec<usize> = (0..zones.len()).collect();
    order.sort_by(|&a, &b| {
        zones[a]
            .region
            .bottom(params.gravity, &outer)
            .total_cmp(&zones[b].region.bottom(params.gravity, &outer))
    });
    order
        .into_iter()
        .enumerate()
        .map(|(k, zi)| {
            let zone = &zones[zi];
            let restricted =
                container.restricted(&zone.region.planes(), zone.region.bounds(&outer));
            if restricted.is_empty() {
                return Err(EmptyZone { index: zi });
            }
            let mut p = params.clone();
            p.target_count = zone.n_particles;
            p.batch_size = params.batch_size.min(zone.n_particles.max(1));
            p.seed = params.seed.wrapping_add(0x9E37_79B9 * (k as u64 + 1));
            Ok(ZoneStage {
                container: restricted,
                params: p,
                psd: zone_psd(zone, sets),
            })
        })
        .collect()
}

/// The effective PSD of a zone (panics where [`try_zone_psd`] fails).
fn zone_psd(zone: &ZoneSpec, sets: &[Psd]) -> Psd {
    try_zone_psd(&zone.set_proportions, sets).unwrap_or_else(|e| panic!("{e}"))
}

/// The effective PSD of a zone: the `set_proportions`-weighted mixture of
/// the shared particle `sets`, leaving out sets of weight zero (a single
/// set left is its own PSD). Fails where [`Psd::try_mixture`] does: no
/// positive weight, or weights without a finite sum.
pub fn try_zone_psd(set_proportions: &[f64], sets: &[Psd]) -> Result<Psd, PsdError> {
    let mut components: Vec<(f64, Psd)> = set_proportions
        .iter()
        .zip(sets)
        .filter(|(&w, _)| w > 0.0)
        .map(|(&w, psd)| (w, psd.clone()))
        .collect();
    if components.len() == 1 {
        Ok(components.pop().expect("len checked").1)
    } else {
        Psd::try_mixture(components)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::PackResult;
    use crate::BatchedPacker;
    use adampack_geometry::{shapes, Vec3};

    fn pack_zones(params: PackingParams, sets: &[Psd], zones: &[ZoneSpec]) -> PackResult {
        BatchedPacker::zoned(&box_container(), params, sets, zones)
            .expect("every zone intersects the box")
            .run()
            .remove(0)
            .result
            .expect("zoned run packs")
    }

    fn box_container() -> Container {
        Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0))).unwrap()
    }

    fn quick_params() -> PackingParams {
        PackingParams {
            batch_size: 25,
            max_steps: 600,
            patience: 50,
            seed: 5,
            ..PackingParams::default()
        }
    }

    #[test]
    fn slice_region_planes_carve_a_slab() {
        let region = ZoneRegion::Slice {
            axis: Axis::Z,
            min: -0.5,
            max: 0.25,
        };
        let planes = region.planes();
        assert_eq!(planes.len(), 2);
        let inside = Vec3::new(0.3, 0.1, 0.0);
        let below = Vec3::new(0.3, 0.1, -0.9);
        let above = Vec3::new(0.3, 0.1, 0.9);
        assert!(planes.iter().all(|p| p.signed_distance(inside) <= 0.0));
        assert!(planes.iter().any(|p| p.signed_distance(below) > 0.0));
        assert!(planes.iter().any(|p| p.signed_distance(above) > 0.0));
    }

    #[test]
    fn slice_bounds_clamp_axis() {
        let outer = Aabb::cube(Vec3::ZERO, 2.0);
        let region = ZoneRegion::Slice {
            axis: Axis::Z,
            min: -0.5,
            max: 0.25,
        };
        let bb = region.bounds(&outer);
        assert_eq!(bb.min.z, -0.5);
        assert_eq!(bb.max.z, 0.25);
        assert_eq!(bb.min.x, -1.0);
        assert!((region.bottom(Axis::Z, &outer) + 0.5).abs() < 1e-12);
    }

    #[test]
    fn mesh_region_from_sphere_shape() {
        let hull = ConvexHull::from_mesh(&shapes::uv_sphere(Vec3::new(0.0, 0.0, 0.3), 0.5, 12, 8))
            .unwrap();
        let region = ZoneRegion::Mesh(hull);
        let outer = Aabb::cube(Vec3::ZERO, 2.0);
        let bb = region.bounds(&outer);
        assert!(bb.max.z <= 0.81 && bb.min.z >= -0.21);
        assert!(!region.planes().is_empty());
    }

    #[test]
    fn two_slice_zones_pack_bottom_up_with_their_psds() {
        // Bottom zone: small particles; top zone: large particles.
        let sets = vec![Psd::constant(0.11), Psd::constant(0.16)];
        let zones = vec![
            ZoneSpec {
                region: ZoneRegion::Slice {
                    axis: Axis::Z,
                    min: 0.0,
                    max: 1.0,
                },
                n_particles: 15,
                set_proportions: vec![0.0, 1.0],
            },
            ZoneSpec {
                region: ZoneRegion::Slice {
                    axis: Axis::Z,
                    min: -1.0,
                    max: 0.0,
                },
                n_particles: 20,
                set_proportions: vec![1.0, 0.0],
            },
        ];
        let result = pack_zones(quick_params(), &sets, &zones);
        assert!(
            result.particles.len() >= 20,
            "packed {}",
            result.particles.len()
        );
        // Small particles (r = 0.11) should sit predominantly below the large ones.
        let small: Vec<f64> = result
            .particles
            .iter()
            .filter(|p| (p.radius - 0.11).abs() < 1e-9)
            .map(|p| p.center.z)
            .collect();
        let large: Vec<f64> = result
            .particles
            .iter()
            .filter(|p| (p.radius - 0.16).abs() < 1e-9)
            .map(|p| p.center.z)
            .collect();
        assert!(!small.is_empty() && !large.is_empty());
        let mean_small = small.iter().sum::<f64>() / small.len() as f64;
        let mean_large = large.iter().sum::<f64>() / large.len() as f64;
        assert!(
            mean_small < mean_large,
            "small particles should settle lower ({mean_small} vs {mean_large})"
        );
    }

    #[test]
    fn mixture_zone_draws_from_both_sets() {
        let sets = vec![Psd::constant(0.10), Psd::constant(0.15)];
        let zones = vec![ZoneSpec {
            region: ZoneRegion::Slice {
                axis: Axis::Z,
                min: -1.0,
                max: 1.0,
            },
            n_particles: 40,
            set_proportions: vec![0.7, 0.3],
        }];
        let result = pack_zones(quick_params(), &sets, &zones);
        let small = result.particles.iter().filter(|p| p.radius < 0.12).count();
        let large = result.particles.len() - small;
        assert!(
            small > 0 && large > 0,
            "both sets must appear ({small}/{large})"
        );
    }

    #[test]
    #[should_panic(expected = "set_proportions length")]
    fn mismatched_proportions_rejected() {
        let zones = vec![ZoneSpec {
            region: ZoneRegion::Slice {
                axis: Axis::Z,
                min: -1.0,
                max: 1.0,
            },
            n_particles: 5,
            set_proportions: vec![0.5, 0.5],
        }];
        let _ = pack_zones(quick_params(), &[Psd::constant(0.1)], &zones);
    }

    #[test]
    #[should_panic(expected = "no zones")]
    fn empty_zones_rejected() {
        let _ = pack_zones(quick_params(), &[Psd::constant(0.1)], &[]);
    }
}
