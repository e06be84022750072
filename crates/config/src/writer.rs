//! Serializing configurations back to YAML.
//!
//! Useful for generating configuration files programmatically (the bench
//! harness and examples build scenarios in code and persist them) and for
//! verifying the parser by round-trip.

use std::fmt::Write;

use crate::schema::{
    AlgoParams, ConsoleLevel, LocationConfig, NeighborConfig, PackingConfig, ParticleSetConfig,
    ServerConfig, TelemetryConfig,
};

fn yaml_list<T: std::fmt::Display>(xs: &[T]) -> String {
    let rendered: Vec<String> = xs.iter().map(T::to_string).collect();
    format!("[{}]", rendered.join(", "))
}

/// Renders a configuration as YAML accepted by [`crate::PackingConfig::from_str`].
pub fn to_yaml(cfg: &PackingConfig) -> String {
    let mut s = String::new();
    writeln!(s, "container:").unwrap();
    writeln!(s, "    path: \"{}\"", cfg.container_path.display()).unwrap();
    writeln!(s, "algorithm: \"{}\"", cfg.algorithm).unwrap();
    let AlgoParams {
        lr,
        n_epoch,
        patience,
        verbosity,
        batch_size,
        seed,
        threads,
        kernel,
        tiles,
    } = cfg.params;
    writeln!(s, "params:").unwrap();
    writeln!(s, "    lr: {lr}").unwrap();
    writeln!(s, "    n_epoch: {n_epoch}").unwrap();
    writeln!(s, "    patience: {patience}").unwrap();
    writeln!(s, "    verbosity: {verbosity}").unwrap();
    writeln!(s, "    batch_size: {batch_size}").unwrap();
    writeln!(s, "    seed: {seed}").unwrap();
    writeln!(s, "    threads: {threads}").unwrap();
    writeln!(s, "    kernel: \"{}\"", kernel.name()).unwrap();
    writeln!(s, "    tiles: {tiles}").unwrap();
    let axis = match cfg.gravity_axis {
        adampack_geometry::Axis::X => "x",
        adampack_geometry::Axis::Y => "y",
        _ => "z",
    };
    writeln!(s, "gravity_axis: {axis}").unwrap();
    if cfg.neighbor != NeighborConfig::default() {
        writeln!(s, "neighbor:").unwrap();
        writeln!(s, "    strategy: \"{}\"", cfg.neighbor.strategy.name()).unwrap();
    }
    if cfg.telemetry != TelemetryConfig::default() {
        writeln!(s, "telemetry:").unwrap();
        match cfg.telemetry.level {
            ConsoleLevel::Auto => {}
            ConsoleLevel::Off => writeln!(s, "    level: \"off\"").unwrap(),
            ConsoleLevel::Fixed(level) => writeln!(s, "    level: \"{}\"", level.name()).unwrap(),
        }
        if let Some(path) = &cfg.telemetry.trace_out {
            writeln!(s, "    trace_out: \"{}\"", path.display()).unwrap();
        }
        if let Some(path) = &cfg.telemetry.metrics_out {
            writeln!(s, "    metrics_out: \"{}\"", path.display()).unwrap();
        }
        if !cfg.telemetry.metrics {
            writeln!(s, "    metrics: false").unwrap();
        }
        if let Some(path) = &cfg.telemetry.timeline_out {
            writeln!(s, "    timeline_out: \"{}\"", path.display()).unwrap();
        }
        if cfg.telemetry.diagnostics.enabled() {
            writeln!(
                s,
                "    diagnostics: \"{}\"",
                cfg.telemetry.diagnostics.name()
            )
            .unwrap();
        }
    }
    if let Some(ck) = &cfg.checkpoint {
        writeln!(s, "checkpoint:").unwrap();
        writeln!(s, "    path: \"{}\"", ck.path.display()).unwrap();
        writeln!(s, "    every_steps: {}", ck.every_steps).unwrap();
        writeln!(s, "    keep_last: {}", ck.keep_last).unwrap();
    }
    if let Some(b) = &cfg.batch {
        writeln!(s, "batch:").unwrap();
        if !b.seeds.is_empty() {
            writeln!(s, "    seeds: {}", yaml_list(&b.seeds)).unwrap();
        }
        if !b.lrs.is_empty() {
            writeln!(s, "    lrs: {}", yaml_list(&b.lrs)).unwrap();
        }
        if !b.radius_scales.is_empty() {
            writeln!(s, "    radius_scales: {}", yaml_list(&b.radius_scales)).unwrap();
        }
    }
    writeln!(s, "particle_sets:").unwrap();
    for set in &cfg.particle_sets {
        match set {
            ParticleSetConfig::Constant { value } => {
                writeln!(s, "    - radius_distribution: \"constant\"").unwrap();
                writeln!(s, "      radius_value: {value}").unwrap();
            }
            ParticleSetConfig::Uniform { min, max } => {
                writeln!(s, "    - radius_distribution: \"uniform\"").unwrap();
                writeln!(s, "      radius_min: {min}").unwrap();
                writeln!(s, "      radius_max: {max}").unwrap();
            }
            ParticleSetConfig::Normal { mean, std_dev } => {
                writeln!(s, "    - radius_distribution: \"normal\"").unwrap();
                writeln!(s, "      radius_mean: {mean}").unwrap();
                writeln!(s, "      radius_std_dev: {std_dev}").unwrap();
            }
        }
    }
    if !cfg.zones.is_empty() {
        writeln!(s, "zones:").unwrap();
        for z in &cfg.zones {
            writeln!(s, "    - n_particles: {}", z.n_particles).unwrap();
            match &z.location {
                LocationConfig::Slice { axis, min, max } => {
                    let a = match axis {
                        adampack_geometry::Axis::X => "x",
                        adampack_geometry::Axis::Y => "y",
                        _ => "z",
                    };
                    writeln!(s, "      location:").unwrap();
                    writeln!(s, "          slice:").unwrap();
                    writeln!(s, "              axis: {a}").unwrap();
                    writeln!(s, "              min_bound: {min}").unwrap();
                    writeln!(s, "              max_bound: {max}").unwrap();
                }
                LocationConfig::Shape { path } => {
                    writeln!(s, "      location:").unwrap();
                    writeln!(s, "          shape:").unwrap();
                    writeln!(s, "              path: \"{}\"", path.display()).unwrap();
                }
                LocationConfig::Everywhere => {}
            }
            let props: Vec<String> = z.set_proportions.iter().map(f64::to_string).collect();
            writeln!(s, "      set_proportions: [{}]", props.join(", ")).unwrap();
        }
    }
    s
}

/// Renders a `server:` limits block as YAML accepted by
/// [`ServerConfig::from_yaml`] (every field spelled out, so a written file
/// documents the effective limits).
pub fn server_to_yaml(cfg: &ServerConfig) -> String {
    let ServerConfig {
        max_body_bytes,
        read_timeout_ms,
        queue_depth,
        memory_budget_bytes,
        cache_cap_bytes,
        job_deadline_s,
        job_step_ceiling,
    } = *cfg;
    let mut s = String::new();
    writeln!(s, "server:").unwrap();
    writeln!(s, "    max_body_bytes: {max_body_bytes}").unwrap();
    writeln!(s, "    read_timeout_ms: {read_timeout_ms}").unwrap();
    writeln!(s, "    queue_depth: {queue_depth}").unwrap();
    writeln!(s, "    memory_budget_bytes: {memory_budget_bytes}").unwrap();
    writeln!(s, "    cache_cap_bytes: {cache_cap_bytes}").unwrap();
    writeln!(s, "    job_deadline_s: {job_deadline_s}").unwrap();
    writeln!(s, "    job_step_ceiling: {job_step_ceiling}").unwrap();
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{BatchConfig, CheckpointConfig, ZoneConfig};
    use adampack_geometry::Axis;
    use std::path::PathBuf;

    fn sample() -> PackingConfig {
        PackingConfig {
            container_path: PathBuf::from("cone.stl"),
            algorithm: "COLLECTIVE_ARRANGEMENT".into(),
            params: AlgoParams {
                lr: 0.01,
                n_epoch: 1000,
                patience: 50,
                verbosity: 10,
                batch_size: 500,
                seed: 7,
                threads: 4,
                kernel: adampack_core::Kernel::Scalar,
                tiles: 6,
            },
            gravity_axis: Axis::Z,
            neighbor: NeighborConfig {
                strategy: adampack_core::NeighborStrategy::Naive,
            },
            telemetry: TelemetryConfig {
                level: ConsoleLevel::Fixed(adampack_telemetry::Level::Debug),
                trace_out: Some(PathBuf::from("trace.jsonl")),
                metrics_out: Some(PathBuf::from("metrics.prom")),
                metrics: false,
                timeline_out: Some(PathBuf::from("timeline.json")),
                diagnostics: adampack_telemetry::DiagMode::Events,
            },
            checkpoint: Some(CheckpointConfig {
                path: PathBuf::from("run.ckpt"),
                every_steps: 250,
                keep_last: 3,
            }),
            batch: Some(BatchConfig {
                seeds: vec![7, 11],
                lrs: vec![0.01, 0.02],
                radius_scales: vec![],
            }),
            particle_sets: vec![
                ParticleSetConfig::Uniform {
                    min: 0.05,
                    max: 0.08,
                },
                ParticleSetConfig::Normal {
                    mean: 0.04,
                    std_dev: 0.005,
                },
                ParticleSetConfig::Constant { value: 0.1 },
            ],
            zones: vec![
                ZoneConfig {
                    n_particles: 200,
                    location: LocationConfig::Shape {
                        path: PathBuf::from("sphere.stl"),
                    },
                    set_proportions: vec![0.0, 1.0, 0.0],
                },
                ZoneConfig {
                    n_particles: 300,
                    location: LocationConfig::Slice {
                        axis: Axis::Z,
                        min: 0.8,
                        max: 1.5,
                    },
                    set_proportions: vec![1.0, 0.0, 0.0],
                },
            ],
        }
    }

    #[test]
    fn round_trip_through_yaml() {
        let cfg = sample();
        let yaml = to_yaml(&cfg);
        let back = PackingConfig::from_str(&yaml).expect("serialized config must parse");
        assert_eq!(back, cfg);
    }

    #[test]
    fn round_trip_without_zones() {
        let mut cfg = sample();
        cfg.zones.clear();
        let yaml = to_yaml(&cfg);
        assert!(!yaml.contains("zones:"));
        let back = PackingConfig::from_str(&yaml).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn default_telemetry_is_omitted() {
        let mut cfg = sample();
        cfg.telemetry = TelemetryConfig::default();
        let yaml = to_yaml(&cfg);
        assert!(!yaml.contains("telemetry:"));
        let back = PackingConfig::from_str(&yaml).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn batch_block_round_trips_and_is_omitted_when_absent() {
        let cfg = sample();
        let yaml = to_yaml(&cfg);
        assert!(yaml.contains("batch:"));
        assert!(yaml.contains("seeds: [7, 11]"));
        assert!(yaml.contains("lrs: [0.01, 0.02]"));
        assert!(!yaml.contains("radius_scales:"));
        let back = PackingConfig::from_str(&yaml).unwrap();
        assert_eq!(back.batch, cfg.batch);

        let mut cfg = cfg;
        cfg.batch = None;
        let yaml = to_yaml(&cfg);
        assert!(!yaml.contains("batch:"));
        assert_eq!(PackingConfig::from_str(&yaml).unwrap(), cfg);
    }

    #[test]
    fn off_level_round_trips() {
        let mut cfg = sample();
        cfg.telemetry = TelemetryConfig {
            level: ConsoleLevel::Off,
            ..TelemetryConfig::default()
        };
        let yaml = to_yaml(&cfg);
        let back = PackingConfig::from_str(&yaml).unwrap();
        assert_eq!(back.telemetry.level, ConsoleLevel::Off);
    }

    #[test]
    fn server_block_round_trips() {
        let cfg = ServerConfig {
            max_body_bytes: 123_456,
            read_timeout_ms: 2_500,
            queue_depth: 7,
            memory_budget_bytes: 9_000_000,
            cache_cap_bytes: 4_096,
            job_deadline_s: 300,
            job_step_ceiling: 50_000,
        };
        let yaml = server_to_yaml(&cfg);
        assert_eq!(ServerConfig::from_yaml(&yaml).unwrap(), cfg);
    }

    #[test]
    fn server_defaults_round_trip_and_absent_block_is_default() {
        let cfg = ServerConfig::default();
        assert_eq!(
            ServerConfig::from_yaml(&server_to_yaml(&cfg)).unwrap(),
            cfg,
            "spelled-out defaults must parse back to the defaults"
        );
        assert_eq!(
            ServerConfig::from_yaml("container:\n    path: \"box.stl\"\n").unwrap(),
            cfg,
            "a document without a server: block means defaults"
        );
    }

    #[test]
    fn server_bad_values_are_config_errors() {
        for (key, bad) in [
            ("max_body_bytes", "0"),
            ("max_body_bytes", "-1"),
            ("read_timeout_ms", "0"),
            ("queue_depth", "0"),
            ("memory_budget_bytes", "-5"),
            ("cache_cap_bytes", "-1"),
            ("job_deadline_s", "-2"),
            ("job_step_ceiling", "-9"),
            ("queue_depth", "\"many\""),
        ] {
            let yaml = format!("server:\n    {key}: {bad}\n");
            let err = ServerConfig::from_yaml(&yaml).expect_err(&yaml);
            assert!(err.to_string().contains(key), "{key}: {err}");
        }
        // A scalar block (e.g. unsupported flow-style `{…}`) must error,
        // not silently fall back to defaults.
        let err = ServerConfig::from_yaml("server: {queue_depth: 1}\n").expect_err("scalar block");
        assert!(err.to_string().contains("mapping"), "{err}");
    }

    #[test]
    fn axes_serialize_by_letter() {
        let mut cfg = sample();
        cfg.gravity_axis = Axis::X;
        let yaml = to_yaml(&cfg);
        assert!(yaml.contains("gravity_axis: x"));
        assert_eq!(
            PackingConfig::from_str(&yaml).unwrap().gravity_axis,
            Axis::X
        );
    }
}
