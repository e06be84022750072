//! Zoned packings (§VI-A).
//!
//! A *zone* fills a sub-region of the container — delimited by an altitude
//! slice or by an STL shape — with a mix of particle sets ("e.g., small
//! particles at the bottom, and large particles at the top", with
//! proportions like `[0.7, 0.3]`). Zones are packed bottom-up along the
//! gravity axis; the particles of earlier zones stay fixed.

use adampack_geometry::{Aabb, Axis, ConvexHull, Plane};

use crate::collective::{CollectivePacker, PackError, PackResult};
use crate::container::Container;
use crate::params::PackingParams;
use crate::psd::Psd;

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

/// Packs a sequence of zones with shared particle sets.
pub struct ZonedPacker {
    container: Container,
    params: PackingParams,
    particle_sets: Vec<Psd>,
}

impl ZonedPacker {
    /// Creates a zoned packer over `particle_sets` (indexed by the zones'
    /// proportion vectors).
    pub fn new(
        container: Container,
        params: PackingParams,
        particle_sets: Vec<Psd>,
    ) -> ZonedPacker {
        assert!(
            !particle_sets.is_empty(),
            "at least one particle set is required"
        );
        params.validate();
        ZonedPacker {
            container,
            params,
            particle_sets,
        }
    }

    /// Packs all zones bottom-up along the gravity axis; returns the merged
    /// result (particles keep their zone-local batch indices, with `set`
    /// left 0 — radii already encode the mix). Panics on [`PackError`]; see
    /// [`ZonedPacker::try_pack`].
    pub fn pack(&self, zones: &[ZoneSpec]) -> PackResult {
        self.try_pack(zones)
            .unwrap_or_else(|e| panic!("zoned packing failed: {e}"))
    }

    /// Fallible [`ZonedPacker::pack`]: a zone whose divergence sentinel
    /// gives up ends the packing with its [`PackError`]. The result's
    /// `recoveries` sums every zone's sentinel rollbacks.
    pub fn try_pack(&self, zones: &[ZoneSpec]) -> Result<PackResult, PackError> {
        assert!(!zones.is_empty(), "no zones given");
        for (zi, z) in zones.iter().enumerate() {
            assert_eq!(
                z.set_proportions.len(),
                self.particle_sets.len(),
                "zone {zi}: set_proportions length must match the number of particle sets"
            );
            assert!(
                z.set_proportions.iter().any(|&w| w > 0.0),
                "zone {zi}: at least one proportion must be positive"
            );
        }

        // Bottom-up zone order.
        let outer = self.container.aabb();
        let mut order: Vec<usize> = (0..zones.len()).collect();
        order.sort_by(|&a, &b| {
            zones[a]
                .region
                .bottom(self.params.gravity, &outer)
                .total_cmp(&zones[b].region.bottom(self.params.gravity, &outer))
        });

        let mut particles = Vec::new();
        let mut batches = Vec::new();
        let mut recoveries = 0;
        let start = std::time::Instant::now();
        let mut total_target = 0;
        for (step, &zi) in order.iter().enumerate() {
            let zone = &zones[zi];
            total_target += zone.n_particles;
            let restricted = self
                .container
                .restricted(&zone.region.planes(), zone.region.bounds(&outer));
            let psd = self.zone_psd(zone);
            let mut params = self.params.clone();
            params.target_count = zone.n_particles;
            params.batch_size = self.params.batch_size.min(zone.n_particles.max(1));
            // Decorrelate zone RNG streams deterministically.
            params.seed = self
                .params
                .seed
                .wrapping_add(0x9E37_79B9 * (step as u64 + 1));
            let mut packer = CollectivePacker::new(restricted, params);
            let result = packer.try_pack_onto(&psd, std::mem::take(&mut particles))?;
            particles = result.particles;
            batches.extend(result.batches);
            recoveries += result.recoveries;
        }

        Ok(PackResult {
            particles,
            batches,
            container: self.container.clone(),
            duration: start.elapsed(),
            target: total_target,
            recoveries,
        })
    }

    /// The effective PSD of a zone: the proportion-weighted mixture of the
    /// shared particle sets.
    fn zone_psd(&self, zone: &ZoneSpec) -> Psd {
        let components: Vec<(f64, Psd)> = zone
            .set_proportions
            .iter()
            .zip(&self.particle_sets)
            .filter(|(&w, _)| w > 0.0)
            .map(|(&w, psd)| (w, psd.clone()))
            .collect();
        if components.len() == 1 {
            components.into_iter().next().expect("len checked").1
        } else {
            Psd::mixture(components)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adampack_geometry::{shapes, Vec3};

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
        let container = box_container();
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
        let packer = ZonedPacker::new(container, quick_params(), sets);
        let result = packer.pack(&zones);
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
        let container = box_container();
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
        let packer = ZonedPacker::new(container, quick_params(), sets);
        let result = packer.pack(&zones);
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
        let packer = ZonedPacker::new(box_container(), quick_params(), vec![Psd::constant(0.1)]);
        let zones = vec![ZoneSpec {
            region: ZoneRegion::Slice {
                axis: Axis::Z,
                min: -1.0,
                max: 1.0,
            },
            n_particles: 5,
            set_proportions: vec![0.5, 0.5],
        }];
        let _ = packer.pack(&zones);
    }

    #[test]
    #[should_panic(expected = "no zones")]
    fn empty_zones_rejected() {
        let packer = ZonedPacker::new(box_container(), quick_params(), vec![Psd::constant(0.1)]);
        let _ = packer.pack(&[]);
    }
}
