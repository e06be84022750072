//! Independent correctness gate for every packing the benchmark produces:
//! it re-derives the physical invariants from the particle list alone, so
//! a faster but wrong change fails the run instead of improving it.

use adampack_core::metrics::{contact_stats, core_density, psd_adherence};
use adampack_core::{Container, PackingParams, Particle, Psd};
use adampack_geometry::{Aabb, Vec3};

/// Kolmogorov–Smirnov bound on the packed radii: `KS_COEFF / √n`, far
/// beyond sampling noise (≈ α = 1e-5), since the radii are PSD draws.
const KS_COEFF: f64 = 2.5;

/// Quality numbers of one verified packing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Spheres packed.
    pub packed: usize,
    /// Spheres requested.
    pub target: usize,
    /// Core density: the paper's virtual inner box (Fig. 4, the box
    /// shrunk by 1/3) placed on the packed bed's bounding box, so partly
    /// filled containers are probed inside the bed, not across its top.
    pub core_density: f64,
    /// Mean contact overlap, % of the smaller radius.
    pub mean_overlap_pct: f64,
    /// Worst contact overlap, % of the smaller radius.
    pub max_overlap_pct: f64,
    /// FNV-1a over the particle bits, to diff repeat runs.
    pub digest: u64,
}

/// FNV-1a 64 over the bit patterns of every center and radius, in order.
pub fn digest(particles: &[Particle]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in particles {
        for v in [p.center.x, p.center.y, p.center.z, p.radius] {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

/// Checks a finished packing of `target` requested spheres that reported
/// `packed` of them:
/// * the particle count matches `packed` and never exceeds `target`;
/// * every coordinate and radius is finite (radii positive);
/// * boundary excess (how far a sphere pokes out of the container,
///   relative to its radius) and contact overlap are within the bounds
///   the packer's own acceptance test enforces: worst per sphere or
///   contact at most `accept_max_overlap`, mean at most
///   `accept_mean_overlap`;
/// * the radii follow the PSD (none above its bound, KS within noise).
pub fn verify_packing(
    container: &Container,
    particles: &[Particle],
    psd: &Psd,
    params: &PackingParams,
    packed: usize,
    target: usize,
) -> Result<Quality, String> {
    if particles.len() != packed || packed > target {
        return Err(format!(
            "{} particles for a reported {packed} of target {target}",
            particles.len()
        ));
    }
    if particles.is_empty() {
        return Err("empty packing".into());
    }
    let mut excess_sum = 0.0;
    for (i, p) in particles.iter().enumerate() {
        let c = p.center;
        let finite = [c.x, c.y, c.z, p.radius].iter().all(|v| v.is_finite());
        if !finite || p.radius <= 0.0 {
            return Err(format!("particle {i} is not finite: {c:?} r {}", p.radius));
        }
        if !container.contains_sphere(c, p.radius, params.accept_max_overlap * p.radius) {
            return Err(format!(
                "particle {i} at {c:?} r {} leaves the container",
                p.radius
            ));
        }
        excess_sum += container
            .halfspaces()
            .sphere_max_excess(c, p.radius)
            .max(0.0)
            / p.radius;
    }
    let mean_excess = excess_sum / particles.len() as f64;
    if mean_excess > params.accept_mean_overlap {
        return Err(format!(
            "mean boundary excess {mean_excess:.4} exceeds acceptance {}",
            params.accept_mean_overlap
        ));
    }
    let contact = contact_stats(particles);
    if contact.mean_overlap_ratio > params.accept_mean_overlap
        || contact.max_overlap_ratio > params.accept_max_overlap
    {
        return Err(format!(
            "contact overlap mean {:.4} / max {:.4} exceeds acceptance {} / {}",
            contact.mean_overlap_ratio,
            contact.max_overlap_ratio,
            params.accept_mean_overlap,
            params.accept_max_overlap
        ));
    }
    let radii: Vec<f64> = particles.iter().map(|p| p.radius).collect();
    let psd_fit = psd_adherence(&radii, psd);
    let ks_bound = KS_COEFF / (radii.len() as f64).sqrt();
    if psd_fit.out_of_bound_fraction > 0.0 || psd_fit.ks_statistic > ks_bound {
        return Err(format!(
            "radii off the PSD: {:.4} above its bound, KS {:.4} > {ks_bound:.4}",
            psd_fit.out_of_bound_fraction, psd_fit.ks_statistic
        ));
    }
    Ok(Quality {
        packed,
        target,
        core_density: core_density(particles, &bed_box(particles), 1.0 / 3.0),
        mean_overlap_pct: contact.mean_overlap_ratio * 100.0,
        max_overlap_pct: contact.max_overlap_ratio * 100.0,
        digest: digest(particles),
    })
}

/// Bounding box of the spheres themselves (centers ± radii).
fn bed_box(particles: &[Particle]) -> Aabb {
    let mut b = Aabb::empty();
    for p in particles {
        b.expand_point(p.center - Vec3::splat(p.radius));
        b.expand_point(p.center + Vec3::splat(p.radius));
    }
    b
}

/// Parses a server artifact (the CLI's CSV) back into particles.
pub fn parse_artifact(bytes: &[u8]) -> Result<Vec<Particle>, String> {
    let rows = adampack_io::read_particles_csv(bytes).map_err(|e| e.to_string())?;
    Ok(rows
        .into_iter()
        .map(|(center, radius, batch, set)| Particle {
            center,
            radius,
            batch,
            set,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adampack_geometry::shapes;

    fn unit_box() -> Container {
        Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(1.0))).expect("box")
    }

    fn lattice() -> Vec<Particle> {
        // Touching spheres on a 4×4×4 lattice inside the unit box.
        let mut out = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    let at = |n: i32| -0.375 + 0.25 * f64::from(n);
                    out.push(Particle::new(Vec3::new(at(i), at(j), at(k)), 0.125));
                }
            }
        }
        out
    }

    #[test]
    fn accepts_a_valid_packing_and_rejects_each_violation() {
        let (c, psd, params) = (unit_box(), Psd::constant(0.125), PackingParams::default());
        let good = lattice();
        let q = verify_packing(&c, &good, &psd, &params, 64, 64).expect("valid lattice");
        assert_eq!(q.digest, digest(&good));
        assert!(q.core_density > 0.4);

        assert!(
            verify_packing(&c, &good, &psd, &params, 63, 64).is_err(),
            "count"
        );
        let mut bad = good.clone();
        bad[3].center.x = f64::NAN;
        assert!(
            verify_packing(&c, &bad, &psd, &params, 64, 64).is_err(),
            "finite"
        );
        let mut bad = good.clone();
        bad[0].center.x -= 0.1;
        assert!(
            verify_packing(&c, &bad, &psd, &params, 64, 64).is_err(),
            "contained"
        );
        let mut bad = good.clone();
        for p in bad.iter_mut().filter(|p| p.center.x < -0.3) {
            p.center.x -= 0.02;
        }
        assert!(
            verify_packing(&c, &bad, &psd, &params, 64, 64).is_err(),
            "mean excess"
        );
        let mut bad = good.clone();
        bad[5].center = bad[6].center + Vec3::new(0.01, 0.0, 0.0);
        assert!(
            verify_packing(&c, &bad, &psd, &params, 64, 64).is_err(),
            "overlap"
        );
        assert!(
            verify_packing(&c, &good, &Psd::constant(0.1), &params, 64, 64).is_err(),
            "psd"
        );
    }

    #[test]
    fn digest_follows_particle_bits() {
        let a = lattice();
        let mut b = a.clone();
        b[0].radius = f64::from_bits(b[0].radius.to_bits() + 1);
        assert_ne!(digest(&a), digest(&b));
    }
}
