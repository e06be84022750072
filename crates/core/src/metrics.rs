//! Packing-quality metrics: contact overlaps, boundary violations, PSD
//! adherence and density.
//!
//! These back the paper's quantitative claims: core density 0.571–0.619
//! (Fig. 5), mean contact overlap below 1.1 % of the particle radius
//! (§V-A), and exact adherence to the prescribed PSD (Table I).

use adampack_geometry::{Aabb, HalfSpaceSet, Vec3};
use adampack_overlap::DensityProbe;
use rayon::par;

use crate::neighbor::CsrGrid;
use crate::particle::Particle;
use crate::psd::Psd;

/// Row block for the parallel pair reductions. Fixed (thread-independent),
/// so per-block partials — and therefore the reduced statistics — are
/// bitwise identical on any pool width. Inputs at or below one block take
/// the exact serial summation order.
const PAIR_BLOCK: usize = 256;

/// Contact-overlap statistics over all overlapping sphere pairs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ContactStats {
    /// Number of overlapping pairs.
    pub contacts: usize,
    /// Mean penetration depth relative to the smaller radius of each pair.
    pub mean_overlap_ratio: f64,
    /// Worst relative penetration.
    pub max_overlap_ratio: f64,
    /// Mean absolute penetration depth.
    pub mean_penetration: f64,
}

/// Overlap statistics among one particle set (all pairs).
pub fn contact_stats(particles: &[Particle]) -> ContactStats {
    let centers: Vec<Vec3> = particles.iter().map(|p| p.center).collect();
    let radii: Vec<f64> = particles.iter().map(|p| p.radius).collect();
    if particles.is_empty() {
        return ContactStats::default();
    }
    let grid = CsrGrid::build(&centers, &radii);
    let stats = par::map_reduce(
        centers.len(),
        PAIR_BLOCK,
        Accum::default(),
        |s, e| {
            let mut acc = Accum::default();
            for i in s..e {
                grid.for_neighbors(centers[i], radii[i], |j, cj, rj| {
                    if j > i {
                        acc.add_pair(centers[i], radii[i], cj, rj);
                    }
                });
            }
            acc
        },
        Accum::merge,
    );
    stats.finish()
}

/// Overlap statistics of a batch against itself **and** a fixed bed — the
/// acceptance test of Algorithm 1 line 19.
///
/// Each sphere sums its bed contacts in ascending bed index, as the Verlet
/// rows do, so the statistics depend on which spheres the grid holds and
/// their order, never on its binning geometry.
pub fn contact_stats_vs_fixed(centers: &[Vec3], radii: &[f64], fixed: &CsrGrid) -> ContactStats {
    assert_eq!(centers.len(), radii.len());
    let n = centers.len();
    // Batch-batch rows then batch-fixed rows, each reduced over fixed row
    // blocks so the statistics are bitwise thread-independent.
    let intra = par::map_reduce(
        n,
        PAIR_BLOCK,
        Accum::default(),
        |s, e| {
            let mut acc = Accum::default();
            for i in s..e {
                for j in (i + 1)..n {
                    acc.add_pair(centers[i], radii[i], centers[j], radii[j]);
                }
            }
            acc
        },
        Accum::merge,
    );
    let cross = par::map_reduce(
        n,
        PAIR_BLOCK,
        Accum::default(),
        |s, e| {
            let mut acc = Accum::default();
            let mut hits = Vec::new();
            for i in s..e {
                let (ci, ri) = (centers[i], radii[i]);
                hits.clear();
                fixed.for_neighbors(ci, ri, |k, cf, rf| {
                    if ci.distance_sq(cf) < (ri + rf) * (ri + rf) {
                        hits.push(k);
                    }
                });
                hits.sort_unstable();
                for &k in &hits {
                    let (cf, rf) = fixed.sphere(k);
                    acc.add_pair(ci, ri, cf, rf);
                }
            }
            acc
        },
        Accum::merge,
    );
    Accum::merge(intra, cross).finish()
}

#[derive(Debug, Clone, Copy, Default)]
struct Accum {
    contacts: usize,
    sum_ratio: f64,
    max_ratio: f64,
    sum_pen: f64,
}

impl Accum {
    /// Order-preserving combine for the chunked reduction.
    fn merge(a: Accum, b: Accum) -> Accum {
        Accum {
            contacts: a.contacts + b.contacts,
            sum_ratio: a.sum_ratio + b.sum_ratio,
            max_ratio: a.max_ratio.max(b.max_ratio),
            sum_pen: a.sum_pen + b.sum_pen,
        }
    }

    #[inline]
    fn add_pair(&mut self, c1: Vec3, r1: f64, c2: Vec3, r2: f64) {
        // Squared-distance early-out: most candidate pairs are rejected
        // before the sqrt. The inner `pen > 0` check keeps the original
        // semantics at the contact boundary.
        let sum_r = r1 + r2;
        let d_sq = c1.distance_sq(c2);
        if d_sq >= sum_r * sum_r {
            return;
        }
        let pen = sum_r - d_sq.sqrt();
        if pen > 0.0 {
            let ratio = pen / r1.min(r2);
            self.contacts += 1;
            self.sum_ratio += ratio;
            self.max_ratio = self.max_ratio.max(ratio);
            self.sum_pen += pen;
        }
    }

    fn finish(self) -> ContactStats {
        if self.contacts == 0 {
            ContactStats::default()
        } else {
            ContactStats {
                contacts: self.contacts,
                mean_overlap_ratio: self.sum_ratio / self.contacts as f64,
                max_overlap_ratio: self.max_ratio,
                mean_penetration: self.sum_pen / self.contacts as f64,
            }
        }
    }
}

/// Boundary-violation statistics: `(mean, max)` positive sphere excess
/// beyond the container planes, relative to each sphere's radius. The mean
/// is over **all** spheres (inside spheres contribute 0), so it is directly
/// comparable with the acceptance threshold.
pub fn boundary_stats(centers: &[Vec3], radii: &[f64], hs: &HalfSpaceSet) -> (f64, f64) {
    assert_eq!(centers.len(), radii.len());
    if centers.is_empty() {
        return (0.0, 0.0);
    }
    let (sum, max) = par::map_reduce(
        centers.len(),
        PAIR_BLOCK,
        (0.0, 0.0),
        |s, e| {
            let mut sum = 0.0;
            let mut max: f64 = 0.0;
            for (c, r) in centers[s..e].iter().zip(&radii[s..e]) {
                let excess = hs.sphere_max_excess(*c, *r).max(0.0) / r;
                sum += excess;
                max = max.max(excess);
            }
            (sum, max)
        },
        |a, b| (a.0 + b.0, a.1.max(b.1)),
    );
    (sum / centers.len() as f64, max)
}

/// PSD-adherence report: sampled radii versus the prescribed distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsdAdherence {
    /// Relative error of the sample mean versus the PSD mean.
    pub mean_rel_error: f64,
    /// Sample mean radius.
    pub sample_mean: f64,
    /// Largest sampled radius.
    pub sample_max: f64,
    /// Fraction of radii exceeding the PSD's `max_radius` bound.
    pub out_of_bound_fraction: f64,
    /// Kolmogorov–Smirnov statistic `D = sup |F_n − F|` against the PSD's
    /// analytic CDF. At significance 0.05 the critical value is
    /// ≈ `1.36/√n`; adherent packings sit well below it (the radii come
    /// *from* the distribution, so `D` is pure sampling noise).
    pub ks_statistic: f64,
}

/// Checks how well packed radii follow the prescribed PSD.
///
/// Because the algorithm *samples radii from the PSD and never alters them*
/// (the paper's key departure from ProtoSphere-style methods), adherence is
/// limited only by sampling noise — this function quantifies it.
pub fn psd_adherence(radii: &[f64], psd: &Psd) -> PsdAdherence {
    assert!(
        !radii.is_empty(),
        "cannot measure adherence of an empty set"
    );
    let sample_mean = radii.iter().sum::<f64>() / radii.len() as f64;
    let sample_max = radii.iter().copied().fold(0.0, f64::max);
    let bound = psd.max_radius();
    let out = radii.iter().filter(|&&r| r > bound * (1.0 + 1e-12)).count();
    PsdAdherence {
        mean_rel_error: (sample_mean - psd.mean()).abs() / psd.mean(),
        sample_mean,
        sample_max,
        out_of_bound_fraction: out as f64 / radii.len() as f64,
        ks_statistic: ks_statistic(radii, psd),
    }
}

/// Kolmogorov–Smirnov statistic of a sample against the PSD's CDF.
///
/// `D = maxᵢ max(i/n − F(xᵢ), F(xᵢ) − (i−1)/n)` over the sorted sample.
/// Degenerate (constant) PSDs return the exact step-function discrepancy.
pub fn ks_statistic(radii: &[f64], psd: &Psd) -> f64 {
    assert!(!radii.is_empty());
    let mut sorted = radii.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let mut d: f64 = 0.0;
    // Group ties so the empirical CDF jumps once per distinct value, and
    // compare against the left limit F(x⁻) below each jump so CDFs with
    // atoms (constant PSDs, mixtures of constants) are handled correctly.
    let mut i = 0;
    while i < sorted.len() {
        let x = sorted[i];
        let mut j = i + 1;
        while j < sorted.len() && sorted[j] == x {
            j += 1;
        }
        let f = psd.cdf(x);
        let f_lo = psd.cdf(x - (x.abs() * 1e-12 + 1e-300));
        d = d.max((j as f64 / n - f).abs()); // F_n at x (after the tie group)
        d = d.max((f_lo - i as f64 / n).abs()); // F_n just below x
        i = j;
    }
    d
}

/// Core packing density in the paper's virtual inner box: the container's
/// bounding box shrunk by `shrink` (Fig. 4 uses 1/3), probed with exact
/// sphere–box overlap volumes.
pub fn core_density(particles: &[Particle], container_aabb: &Aabb, shrink: f64) -> f64 {
    let probe = DensityProbe::inner_box(container_aabb, shrink);
    probe.density(particles.iter().map(Particle::sphere))
}

/// Overall packing fraction of a convex container: exact solid volume of
/// the spheres *clipped to the container* divided by the container volume.
///
/// Unlike [`core_density`]'s box probe, this handles non-box shapes (cones,
/// furnaces) exactly via [`adampack_overlap::sphere_hull_overlap`], and
/// correctly discounts the parts of boundary spheres poking outside.
pub fn container_density(particles: &[Particle], container: &crate::container::Container) -> f64 {
    let hs = container.halfspaces();
    let bb = container.aabb();
    let solid: f64 = particles
        .iter()
        .map(|p| adampack_overlap::sphere_hull_overlap(p.center, p.radius, hs, &bb))
        .sum();
    solid / container.volume()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_contacts_for_separated_spheres() {
        let particles = vec![
            Particle::new(Vec3::ZERO, 0.4),
            Particle::new(Vec3::new(1.0, 0.0, 0.0), 0.4),
        ];
        let s = contact_stats(&particles);
        assert_eq!(s.contacts, 0);
        assert_eq!(s.mean_overlap_ratio, 0.0);
    }

    #[test]
    fn single_overlap_measured_exactly() {
        let particles = vec![
            Particle::new(Vec3::ZERO, 0.5),
            Particle::new(Vec3::new(0.9, 0.0, 0.0), 0.5),
        ];
        let s = contact_stats(&particles);
        assert_eq!(s.contacts, 1);
        assert!((s.mean_penetration - 0.1).abs() < 1e-12);
        assert!((s.mean_overlap_ratio - 0.2).abs() < 1e-12);
        assert!((s.max_overlap_ratio - 0.2).abs() < 1e-12);
    }

    #[test]
    fn ratio_uses_smaller_radius() {
        let particles = vec![
            Particle::new(Vec3::ZERO, 1.0),
            Particle::new(Vec3::new(1.05, 0.0, 0.0), 0.1),
        ];
        let s = contact_stats(&particles);
        assert_eq!(s.contacts, 1);
        // Penetration 0.05 relative to the smaller radius 0.1 ⇒ 0.5.
        assert!((s.max_overlap_ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn vs_fixed_counts_cross_and_intra() {
        let fixed = CsrGrid::build(&[Vec3::ZERO], &[0.5]);
        let centers = vec![Vec3::new(0.9, 0.0, 0.0), Vec3::new(1.7, 0.0, 0.0)];
        let radii = vec![0.5, 0.5];
        let s = contact_stats_vs_fixed(&centers, &radii, &fixed);
        // Pairs: (batch0, fixed) pen 0.1; (batch0, batch1) pen 0.2.
        assert_eq!(s.contacts, 2);
        assert!((s.mean_penetration - 0.15).abs() < 1e-12);
    }

    #[test]
    fn vs_fixed_bits_do_not_depend_on_the_bed_grid_geometry() {
        use crate::neighbor::FixedBed;
        use adampack_geometry::Axis;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let mut sphere = |z: std::ops::Range<f64>, r: std::ops::Range<f64>| {
            Particle::new(
                Vec3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(z),
                ),
                rng.gen_range(r),
            )
        };
        // Large spheres deep down, then a layer of small ones on top.
        let mut bed: Vec<Particle> = (0..40).map(|_| sphere(-3.0..-2.0, 0.2..0.3)).collect();
        bed.extend((0..800).map(|_| sphere(-1.0..-0.5, 0.05..0.1)));
        let batch: Vec<Particle> = (0..200).map(|_| sphere(-0.6..-0.3, 0.05..0.1)).collect();
        let centers: Vec<Vec3> = batch.iter().map(|p| p.center).collect();
        let radii: Vec<f64> = batch.iter().map(|p| p.radius).collect();

        // The whole bed, and the same bed's top layer binned on its own:
        // other cell edge, origin and dims, and compacted indices.
        let mut full = FixedBed::new(Axis::Z);
        full.rebuild(&bed, f64::INFINITY);
        let mut top = FixedBed::new(Axis::Z);
        top.rebuild(&bed, 0.5);
        assert_eq!(top.grid().len(), 800, "the deep spheres are retired");
        assert_ne!(top.grid().max_radius(), full.grid().max_radius());
        assert_ne!(top.grid().bounds().min, full.grid().bounds().min);

        let a = contact_stats_vs_fixed(&centers, &radii, full.grid());
        let b = contact_stats_vs_fixed(&centers, &radii, top.grid());
        assert!(a.contacts > 200, "{} contacts", a.contacts);
        assert_eq!(a.contacts, b.contacts);
        for (x, y) in [
            (a.mean_overlap_ratio, b.mean_overlap_ratio),
            (a.max_overlap_ratio, b.max_overlap_ratio),
            (a.mean_penetration, b.mean_penetration),
        ] {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn boundary_stats_mean_and_max() {
        use adampack_geometry::{shapes, ConvexHull};
        let hs = ConvexHull::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0)))
            .unwrap()
            .halfspaces()
            .clone();
        let centers = vec![Vec3::ZERO, Vec3::new(0.9, 0.0, 0.0)];
        let radii = vec![0.2, 0.2];
        let (mean, max) = boundary_stats(&centers, &radii, &hs);
        // Second sphere pokes out by 0.1, relative 0.5; first is inside.
        assert!((max - 0.5).abs() < 1e-12);
        assert!((mean - 0.25).abs() < 1e-12);
        assert_eq!(boundary_stats(&[], &[], &hs), (0.0, 0.0));
    }

    #[test]
    fn psd_adherence_is_tight_for_large_samples() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let psd = Psd::uniform(0.05, 0.09);
        let mut rng = StdRng::seed_from_u64(11);
        let radii = psd.sample_n(&mut rng, 50_000);
        let a = psd_adherence(&radii, &psd);
        assert!(a.mean_rel_error < 0.005, "rel error = {}", a.mean_rel_error);
        assert_eq!(a.out_of_bound_fraction, 0.0);
        assert!(a.sample_max <= 0.09);
        // KS: sample drawn from the PSD passes at the 5 % level.
        let critical = 1.36 / (radii.len() as f64).sqrt();
        assert!(
            a.ks_statistic < critical,
            "D = {} >= {critical}",
            a.ks_statistic
        );
    }

    #[test]
    fn ks_statistic_rejects_the_wrong_distribution() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let truth = Psd::uniform(0.05, 0.09);
        let wrong = Psd::uniform(0.06, 0.10); // shifted by half the width
        let mut rng = StdRng::seed_from_u64(12);
        let radii = truth.sample_n(&mut rng, 5_000);
        let d_true = ks_statistic(&radii, &truth);
        let d_wrong = ks_statistic(&radii, &wrong);
        let critical = 1.36 / (radii.len() as f64).sqrt();
        assert!(d_true < critical);
        assert!(
            d_wrong > 5.0 * critical,
            "wrong PSD must be flagged: D = {d_wrong}"
        );
    }

    #[test]
    fn ks_statistic_exact_for_constant_psd() {
        let psd = Psd::constant(0.1);
        // All samples exactly at the step: D = 0 for the matching constant.
        assert_eq!(ks_statistic(&[0.1, 0.1, 0.1], &psd), 0.0);
        // Samples below the step never reach F = 1 until the step: D = 1.
        assert_eq!(ks_statistic(&[0.05], &psd), 1.0);
    }

    #[test]
    fn container_density_counts_clipped_spheres() {
        use adampack_geometry::shapes;
        let container =
            crate::container::Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0)))
                .unwrap();
        // One interior sphere plus one centred on a face (half inside).
        let particles = vec![
            Particle::new(Vec3::ZERO, 0.5),
            Particle::new(Vec3::new(1.0, 0.0, 0.0), 0.4),
        ];
        let d = container_density(&particles, &container);
        let v = 4.0 / 3.0 * std::f64::consts::PI;
        let expect = (v * 0.125 + v * 0.064 / 2.0) / 8.0;
        assert!((d - expect).abs() < 1e-6, "d = {d}, expect = {expect}");
    }

    #[test]
    fn core_density_of_lattice() {
        // Simple cubic lattice in a 4×4×4 box: density π/6 ≈ 0.5236 anywhere
        // in the bulk, including the shrunken core probe.
        let mut particles = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                for k in 0..8 {
                    particles.push(Particle::new(
                        Vec3::new(
                            -2.0 + 0.25 + i as f64 * 0.5,
                            -2.0 + 0.25 + j as f64 * 0.5,
                            -2.0 + 0.25 + k as f64 * 0.5,
                        ),
                        0.25,
                    ));
                }
            }
        }
        // Shrink 1/4: the probe box (side 3) aligns exactly with unit-cell
        // boundaries (±1.5), where SC-lattice density is exactly π/6; a
        // misaligned probe would see boundary slices and deviate.
        let container = Aabb::cube(Vec3::ZERO, 4.0);
        let d = core_density(&particles, &container, 1.0 / 4.0);
        assert!(
            (d - std::f64::consts::PI / 6.0).abs() < 1e-6,
            "density = {d}"
        );
    }
}
