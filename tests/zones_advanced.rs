//! Advanced zoned-packing scenarios beyond the paper's Fig. 9 example:
//! icosphere mesh zones, three stacked layers, and zones under a custom
//! gravity axis.

use adampack_core::prelude::*;
use adampack_geometry::{shapes, Axis, ConvexHull, Vec3};

/// Packs `zones` of `container` through the run driver's zoned shape.
fn pack_zones(
    container: &Container,
    params: PackingParams,
    sets: &[Psd],
    zones: &[ZoneSpec],
) -> PackResult {
    BatchedPacker::zoned(container, params, sets, zones)
        .expect("every zone intersects the container")
        .run()
        .remove(0)
        .result
        .expect("zoned packing")
}

fn quick_params(seed: u64) -> PackingParams {
    PackingParams {
        batch_size: 25,
        max_steps: 600,
        patience: 50,
        seed,
        ..PackingParams::default()
    }
}

#[test]
fn icosphere_zone_confines_particles() {
    let container = Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0))).unwrap();
    let zone_hull =
        ConvexHull::from_mesh(&shapes::icosphere(Vec3::new(0.2, -0.1, -0.3), 0.55, 2)).unwrap();
    let zones = vec![ZoneSpec {
        region: ZoneRegion::Mesh(zone_hull.clone()),
        n_particles: 30,
        set_proportions: vec![1.0],
    }];
    let result = pack_zones(&container, quick_params(1), &[Psd::constant(0.09)], &zones);
    assert!(
        result.particles.len() >= 15,
        "packed {}",
        result.particles.len()
    );
    for p in &result.particles {
        // Sphere centres (at least) must lie in the zone within tolerance;
        // the zone planes act like container walls for the sub-packing.
        let excess = zone_hull.halfspaces().sphere_max_excess(p.center, p.radius);
        assert!(
            excess <= 0.05 * p.radius + 1e-9,
            "particle at {} leaves the icosphere zone by {excess}",
            p.center
        );
    }
}

#[test]
fn three_stacked_slices_fill_bottom_up() {
    let container = Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0))).unwrap();
    let sets = vec![
        Psd::constant(0.10),
        Psd::constant(0.13),
        Psd::constant(0.16),
    ];
    let slice = |lo: f64, hi: f64, set: usize| {
        let mut props = vec![0.0; 3];
        props[set] = 1.0;
        ZoneSpec {
            region: ZoneRegion::Slice {
                axis: Axis::Z,
                min: lo,
                max: hi,
            },
            n_particles: 12,
            set_proportions: props,
        }
    };
    // Deliberately out of order: the packer must sort bottom-up.
    let zones = vec![
        slice(0.2, 1.0, 2),
        slice(-1.0, -0.4, 0),
        slice(-0.4, 0.2, 1),
    ];
    let result = pack_zones(&container, quick_params(2), &sets, &zones);
    assert!(
        result.particles.len() >= 24,
        "packed {}",
        result.particles.len()
    );
    // Mean altitude must increase with the radius tier.
    let mean_z = |r: f64| {
        let zs: Vec<f64> = result
            .particles
            .iter()
            .filter(|p| (p.radius - r).abs() < 1e-9)
            .map(|p| p.center.z)
            .collect();
        assert!(!zs.is_empty(), "tier {r} missing");
        zs.iter().sum::<f64>() / zs.len() as f64
    };
    let (z_small, z_mid, z_large) = (mean_z(0.10), mean_z(0.13), mean_z(0.16));
    assert!(
        z_small < z_mid && z_mid < z_large,
        "tiers out of order: {z_small} < {z_mid} < {z_large}"
    );
}

#[test]
fn zone_respects_custom_gravity() {
    // Gravity along -x: a slice zone along x fills from the -x side.
    let container = Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0))).unwrap();
    let mut params = quick_params(3);
    params.gravity = Axis::X;
    let zones = vec![ZoneSpec {
        region: ZoneRegion::Slice {
            axis: Axis::X,
            min: -1.0,
            max: 0.5,
        },
        n_particles: 25,
        set_proportions: vec![1.0],
    }];
    let result = pack_zones(&container, params, &[Psd::constant(0.12)], &zones);
    assert!(result.particles.len() >= 15);
    let mean_x: f64 =
        result.particles.iter().map(|p| p.center.x).sum::<f64>() / result.particles.len() as f64;
    assert!(mean_x < -0.2, "bed should lean towards -x, mean = {mean_x}");
    for p in &result.particles {
        assert!(p.center.x <= 0.5 + 0.05 * p.radius, "slice bound violated");
    }
}
