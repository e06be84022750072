//! The application pipeline of §VI-A: YAML configuration → STL containers →
//! zoned packing, end to end, exactly as the paper's Fig. 9/10 example.

use adampack_config::{ConfigError, PackingConfig};
use adampack_core::prelude::*;
use adampack_geometry::{shapes, ConvexHull, Vec3};
use adampack_io::{read_stl_file, write_stl_ascii};

fn write_assets(dir: &std::path::Path) {
    std::fs::create_dir_all(dir).unwrap();
    let cone = shapes::cone(1.2, 2.2, 32, false);
    let sphere = shapes::uv_sphere(Vec3::new(0.0, 0.0, 0.55), 0.45, 16, 8);
    for (name, mesh) in [("cone.stl", &cone), ("sphere.stl", &sphere)] {
        let f = std::fs::File::create(dir.join(name)).unwrap();
        write_stl_ascii(std::io::BufWriter::new(f), mesh, name).unwrap();
    }
}

const CONFIG: &str = r#"
container:
    path: "cone.stl"
algorithm: "COLLECTIVE_ARRANGEMENT"
params:
    lr: 0.01
    n_epoch: 500
    patience: 50
    batch_size: 40
    seed: 11
gravity_axis: z
particle_sets:
    - radius_distribution: "uniform"
      radius_min: 0.05
      radius_max: 0.08
    - radius_distribution: "normal"
      radius_mean: 0.04
      radius_std_dev: 0.005
zones:
    - n_particles: 40
      location:
          shape:
              path: "sphere.stl"
      set_proportions: [0.0, 1.0,]
    - n_particles: 50
      location:
          slice:
              axis: 2
              min_bound: 0.8
              max_bound: 1.5
      set_proportions: [1.0, 0.0]
"#;

fn load_zone_hull(p: &std::path::Path) -> Result<ConvexHull, ConfigError> {
    let mesh = read_stl_file(p).map_err(|e| ConfigError::Field(e.to_string()))?;
    ConvexHull::from_mesh(&mesh).map_err(|e| ConfigError::Field(e.to_string()))
}

#[test]
fn yaml_to_zoned_packing_end_to_end() {
    let dir = std::env::temp_dir().join("adampack_config_pipeline");
    write_assets(&dir);
    let config_path = dir.join("pack.yaml");
    std::fs::write(&config_path, CONFIG).unwrap();

    // Load the config from disk: paths resolve against its directory.
    let cfg = PackingConfig::from_file(&config_path).unwrap();
    let container_mesh = read_stl_file(&cfg.container_path).unwrap();
    let container = Container::from_mesh(&container_mesh).unwrap();
    let zones = cfg.zone_specs(load_zone_hull).unwrap();
    assert_eq!(zones.len(), 2);

    let mut packer = BatchedPacker::zoned(&container, cfg.to_packing_params(), &cfg.psds(), &zones)
        .expect("both zones intersect the cone");
    let result = packer.run().remove(0).result.expect("zoned packing");
    assert!(
        result.particles.len() >= 50,
        "packed only {}",
        result.particles.len()
    );

    // All particles inside the cone.
    for p in &result.particles {
        let excess = container.halfspaces().sphere_max_excess(p.center, p.radius);
        assert!(excess <= 0.05 * p.radius + 1e-9, "escaped by {excess}");
    }

    // The two particle sets are distinguishable by radius: uniform ∈
    // [0.05, 0.08], normal ≤ 0.055. The slice zone (z ∈ [0.8, 1.5]) must be
    // dominated by uniform radii, the sphere zone (centre z 0.55) by normal.
    let in_slice: Vec<&Particle> = result
        .particles
        .iter()
        .filter(|p| p.center.z >= 0.75 && p.center.z <= 1.55)
        .collect();
    let uniform_in_slice = in_slice.iter().filter(|p| p.radius >= 0.05).count();
    assert!(
        uniform_in_slice * 2 >= in_slice.len(),
        "slice zone should mostly hold uniform-set particles"
    );
}

#[test]
fn config_algorithm_key_selects_runner() {
    let dir = std::env::temp_dir().join("adampack_config_runner");
    write_assets(&dir);
    // Minimal single-set config with an RSA algorithm key.
    let yaml = r#"
container:
    path: "cone.stl"
algorithm: "RSA"
particle_sets:
    - radius_distribution: "constant"
      radius_value: 0.08
"#;
    let config_path = dir.join("rsa.yaml");
    std::fs::write(&config_path, yaml).unwrap();
    let cfg = PackingConfig::from_file(&config_path).unwrap();
    let algo = registry(&cfg.algorithm).expect("RSA registered");
    let container = Container::from_mesh(&read_stl_file(&cfg.container_path).unwrap()).unwrap();
    let result = algo.pack(&container, &cfg.psds()[0], 60, &cfg.to_packing_params());
    assert!(!result.particles.is_empty());
    for p in &result.particles {
        assert!(container.contains_sphere(p.center, p.radius, 1e-9));
    }
}

#[test]
fn missing_stl_surfaces_as_error() {
    let cfg = PackingConfig::from_str(CONFIG).unwrap();
    // Without resolve_paths the relative files do not exist here.
    let err = cfg.zone_specs(load_zone_hull).unwrap_err();
    assert!(err.to_string().contains("sphere.stl") || !err.to_string().is_empty());
}
