//! The paper's §VI-A configuration example (Figs. 9–10): a cone container
//! with a spherical zone of fine particles and a slice zone of coarse ones,
//! driven end-to-end from a YAML configuration.
//!
//! ```sh
//! cargo run --release -p adampack-examples --example cone_zones
//! ```

use adampack_config::PackingConfig;
use adampack_core::prelude::*;
use adampack_examples::output_dir;
use adampack_geometry::{shapes, ConvexHull, Vec3};
use adampack_io::{write_particles_vtk, write_stl_ascii};

const CONFIG: &str = r#"
# Fig. 9-style packing configuration.
container:
    path: "cone.stl"
algorithm: "COLLECTIVE_ARRANGEMENT"
params:
    lr: 0.01
    n_epoch: 800
    patience: 50
    batch_size: 80
    seed: 7
gravity_axis: z
particle_sets:
    - radius_distribution: "uniform"
      radius_min: 0.05
      radius_max: 0.08
    - radius_distribution: "normal"
      radius_mean: 0.04
      radius_std_dev: 0.005
zones:
    - n_particles: 120
      location:
          shape:
              path: "sphere.stl"
      set_proportions: [0.0, 1.0,]
    - n_particles: 150
      location:
          slice:
              axis: 2
              min_bound: 0.8
              max_bound: 1.5
      set_proportions: [1.0, 0.0]
"#;

fn main() {
    let dir = output_dir().expect("output dir");

    // Generate the STL assets the configuration references.
    let cone = shapes::cone(1.2, 2.2, 48, false); // apex down, widening upward
    let sphere = shapes::uv_sphere(Vec3::new(0.0, 0.0, 0.55), 0.45, 24, 12);
    for (name, mesh) in [("cone.stl", &cone), ("sphere.stl", &sphere)] {
        let f = std::fs::File::create(dir.join(name)).expect("stl file");
        write_stl_ascii(std::io::BufWriter::new(f), mesh, name).expect("stl write");
    }

    // Parse the YAML, resolve paths, load geometry through adampack-io.
    let mut cfg = PackingConfig::from_str(CONFIG).expect("valid configuration");
    cfg.resolve_paths(&dir);
    let container_mesh = adampack_io::read_stl_file(&cfg.container_path).expect("container stl");
    let container = Container::from_mesh(&container_mesh).expect("container hull");
    let zones = cfg
        .zone_specs(|p| {
            let mesh = adampack_io::read_stl_file(p)
                .map_err(|e| adampack_config::ConfigError::Field(e.to_string()))?;
            ConvexHull::from_mesh(&mesh)
                .map_err(|e| adampack_config::ConfigError::Field(e.to_string()))
        })
        .expect("zone specs");

    println!(
        "algorithm {}, container volume {:.2}, {} zones",
        cfg.algorithm,
        container.volume(),
        zones.len()
    );

    let mut packer = BatchedPacker::zoned(&container, cfg.to_packing_params(), &cfg.psds(), &zones)
        .expect("every zone intersects the cone");
    let result = packer.run().remove(0).result.expect("zoned packing");
    println!(
        "packed {} particles in {:.2?} ({} batches)",
        result.particles.len(),
        result.duration,
        result.batches.len()
    );

    // The normal set (mean 0.04, 3σ ≤ 0.055) vs the uniform set (≥ 0.05):
    // classify at the midpoint for the zone report.
    let fine = result
        .particles
        .iter()
        .filter(|p| p.radius < 0.0525)
        .count();
    println!("fine (sphere zone, green in Fig. 10): {fine}");
    println!(
        "coarse (slice zone, blue in Fig. 10): {}",
        result.particles.len() - fine
    );

    let path = dir.join("cone_zones.vtk");
    let triples: Vec<(Vec3, f64, usize)> = result
        .particles
        .iter()
        .map(|p| (p.center, p.radius, usize::from(p.radius >= 0.0525)))
        .collect();
    let f = std::fs::File::create(&path).expect("vtk file");
    write_particles_vtk(std::io::BufWriter::new(f), &triples, "cone zones").expect("vtk write");
    println!("VTK written to {}", path.display());
}
