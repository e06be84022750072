//! Figs. 9 & 10 — the YAML-configured cone packing with a sphere zone and a
//! slice zone.
//!
//! Reproduces the paper's configuration example end-to-end: the Fig. 9 YAML
//! (with its STL paths generated procedurally here) is parsed by
//! `adampack-config`, zones are packed bottom-up, and the result is written
//! as VTK. The paper's Fig. 10 shows the green sphere-zone particles (set 2,
//! normal radii) and the blue slice-zone particles (set 1, uniform radii).

use adampack_bench::{cli, secs};
use adampack_config::PackingConfig;
use adampack_core::prelude::*;
use adampack_geometry::{shapes, ConvexHull, Vec3};
use adampack_io::{write_particles_vtk, write_stl_ascii};

const CONFIG: &str = r#"
container:
    path: "cone.stl"
algorithm: "COLLECTIVE_ARRANGEMENT"
params:
    lr: 0.01
    n_epoch: 1000
    patience: 50
    verbosity: 10
    batch_size: 100
gravity_axis: z
particle_sets:
    - radius_distribution: "uniform"
      radius_min: 0.05
      radius_max: 0.08
    - radius_distribution: "normal"
      radius_mean: 0.04
      radius_std_dev: 0.005
zones:
    - n_particles: 200
      location:
          shape:
              path: "sphere.stl"
      set_proportions: [0.0, 1.0,]
    - n_particles: 300
      location:
          slice:
              axis: 2
              min_bound: 0.8
              max_bound: 1.5
      set_proportions: [1.0, 0.0]
"#;

fn main() {
    let n_scale = cli::f64_arg("--scale", 1.0);
    let dir = std::path::PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("mkdir");

    // Generate the STL assets the YAML references (the paper ships them as
    // files; we produce equivalent procedural geometry).
    let cone = shapes::cone(1.2, 2.2, 48, false); // widens upward, apex down at z=0
    let sphere = shapes::uv_sphere(Vec3::new(0.0, 0.0, 0.55), 0.45, 24, 12);
    for (name, mesh) in [("cone.stl", &cone), ("sphere.stl", &sphere)] {
        let f = std::fs::File::create(dir.join(name)).expect("stl file");
        write_stl_ascii(std::io::BufWriter::new(f), mesh, name).expect("stl write");
    }

    // Parse the configuration and resolve its STL paths against target/experiments.
    let mut cfg = PackingConfig::from_str(CONFIG).expect("Fig. 9 YAML");
    cfg.resolve_paths(&dir);
    let container_mesh = adampack_io::read_stl_file(&cfg.container_path).expect("container stl");
    let container = Container::from_mesh(&container_mesh).expect("container hull");

    let mut params = cfg.to_packing_params();
    params.batch_size = params.batch_size.max(1);
    let psds = cfg.psds();
    let mut zones = cfg
        .zone_specs(|p| {
            let mesh = adampack_io::read_stl_file(p)
                .map_err(|e| adampack_config::ConfigError::Field(e.to_string()))?;
            ConvexHull::from_mesh(&mesh)
                .map_err(|e| adampack_config::ConfigError::Field(e.to_string()))
        })
        .expect("zones");
    for z in &mut zones {
        z.n_particles = (z.n_particles as f64 * n_scale) as usize;
    }

    println!("# Figs. 9/10 — cone packing from the YAML configuration");
    println!(
        "# container: {} ({} planes), zones: {}",
        cfg.container_path.display(),
        container.halfspaces().len(),
        zones.len()
    );

    let mut packer = BatchedPacker::zoned(&container, params, &psds, &zones)
        .expect("every zone intersects the cone");
    let result = packer.run().remove(0).result.expect("zoned packing");
    println!(
        "packed {} particles in {:.2} s ({} batches)",
        result.particles.len(),
        secs(result.duration),
        result.batches.len()
    );

    // Set membership is recoverable from the radii: the normal set's 3σ
    // ceiling (0.055) lies just at the uniform set's floor (0.05); classify
    // by the midpoint for reporting.
    let green = result
        .particles
        .iter()
        .filter(|p| p.radius < 0.0525)
        .count();
    let blue = result.particles.len() - green;
    println!("zone-2 (normal radii, sphere zone): {green} particles");
    println!("zone-1 (uniform radii, slice zone): {blue} particles");

    let path = dir.join("fig10_cone_zones.vtk");
    let triples: Vec<(Vec3, f64, usize)> = result
        .particles
        .iter()
        .map(|p| (p.center, p.radius, usize::from(p.radius >= 0.0525)))
        .collect();
    let f = std::fs::File::create(&path).expect("vtk file");
    write_particles_vtk(std::io::BufWriter::new(f), &triples, "fig10 cone zones").expect("vtk");
    println!(
        "# VTK written to {} (colour by 'batch' for the two zones)",
        path.display()
    );
}
