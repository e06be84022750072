//! Fig. 3 — fitness vs optimization step for five learning-rate
//! configurations.
//!
//! The paper optimizes a single batch of 500 particles with `patience = 50`
//! and `max_steps = 10,000`, comparing fixed learning rates (10⁻², 10⁻³,
//! 10⁻⁴) against `ReduceLROnPlateau` starting from 10⁻² and 10⁻³. Expected
//! ordering of final fitness: `plateau(1e-2)` best, then `fixed(1e-3)`,
//! with `fixed(1e-2)` stalling early and `fixed(1e-4)` running out of steps.

use adampack_bench::{cli, csv_writer, write_row};
use adampack_core::prelude::*;
use adampack_geometry::shapes;
use adampack_telemetry::VecSink;

fn main() {
    let full = cli::flag("--full");
    let batch = cli::usize_arg("--batch", 500);
    let max_steps = cli::usize_arg("--steps", if full { 10_000 } else { 3_000 });
    let seed = cli::u64_arg("--seed", 42);

    // Base at z = 0 so the altitude term (and hence the fitness) stays
    // positive, matching the paper's Fig. 3 curves.
    let mesh = shapes::tall_box(2.0, 2.0);
    let container = Container::from_mesh(&mesh).expect("box hull");
    let radius = 0.05;

    let configs: Vec<(&str, LrPolicy)> = vec![
        ("fixed_1e-2", LrPolicy::Fixed(1e-2)),
        ("fixed_1e-3", LrPolicy::Fixed(1e-3)),
        ("fixed_1e-4", LrPolicy::Fixed(1e-4)),
        (
            "plateau_1e-2",
            LrPolicy::Plateau {
                initial: 1e-2,
                factor: 0.5,
                patience: 20,
                min_lr: 1e-6,
            },
        ),
        (
            "plateau_1e-3",
            LrPolicy::Plateau {
                initial: 1e-3,
                factor: 0.5,
                patience: 20,
                min_lr: 1e-6,
            },
        ),
    ];

    println!("# Fig. 3 — fitness vs step for learning-rate configurations");
    println!("# batch = {batch}, patience = 50, max_steps = {max_steps}");

    let (path, mut csv) = csv_writer("fig3_learning_rate").expect("csv");
    write_row(&mut csv, &["config,step,fitness,lr".into()]).unwrap();

    let mut finals = Vec::new();
    for (name, lr) in &configs {
        // Identical batch and initial positions across configurations.
        let params = PackingParams {
            batch_size: batch,
            target_count: batch,
            max_steps,
            patience: 50,
            seed,
            ..PackingParams::default()
        };
        let mut packer = CollectivePacker::new(container.clone(), params);
        let radii = vec![radius; batch];
        let bed = packer.empty_bed();
        let init = packer.spawn_batch(&radii, &bed);
        let sink = VecSink::default();
        packer.set_trace_sink(Box::new(sink.clone()));
        let run = packer.optimize_batch_with(&radii, init, max_steps, 50, lr);

        let trace = sink.records();
        for t in &trace {
            // Decimate the CSV to every 10th step to keep files small.
            if t.step % 10 == 0 || t.step + 1 == trace.len() as u64 {
                write_row(
                    &mut csv,
                    &[format!("{name},{},{},{}", t.step, t.loss, t.lr)],
                )
                .unwrap();
            }
        }
        println!(
            "{name:>14}: steps = {:>5}, final fitness = {:.4}, start = {:.4}",
            run.steps,
            run.best_fitness,
            trace.first().map_or(f64::NAN, |t| t.loss)
        );
        finals.push((name.to_string(), run.best_fitness));
    }

    println!("# series written to {}", path.display());
    // The headline qualitative claim: plateau scheduling from 1e-2 wins.
    finals.sort_by(|a, b| a.1.total_cmp(&b.1));
    println!("# ranking (best first):");
    for (name, fit) in &finals {
        println!("#   {name:>14}  {fit:.4}");
    }
}
