//! Ablation — plateau-scheduler factor sweep (DESIGN.md §5).
//!
//! Fig. 3 shows `ReduceLROnPlateau` winning; this harness asks how
//! sensitive that result is to the reduction factor, sweeping it on one
//! identical batch.

use adampack_bench::{cli, secs, timed};
use adampack_core::prelude::*;
use adampack_geometry::{shapes, Vec3};

fn main() {
    let batch = cli::usize_arg("--batch", 400);
    let max_steps = cli::usize_arg("--steps", 3_000);
    let seed = cli::u64_arg("--seed", 42);

    let mesh = shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0));
    let container = Container::from_mesh(&mesh).expect("box hull");
    let radius = 0.05;

    println!("# Ablation — ReduceLROnPlateau factor sweep, batch of {batch}");
    println!(
        "{:>8} {:>8} {:>14} {:>10}",
        "factor", "steps", "final_fitness", "time_s"
    );

    for factor in [0.1, 0.3, 0.5, 0.7, 0.9] {
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
        let lr = LrPolicy::Plateau {
            initial: 1e-2,
            factor,
            patience: 20,
            min_lr: 1e-6,
        };
        let (run, elapsed) = timed(|| packer.optimize_batch_with(&radii, init, max_steps, 50, &lr));
        println!(
            "{factor:>8.1} {:>8} {:>14.4} {:>10.3}",
            run.steps,
            run.best_fitness,
            secs(elapsed)
        );
    }
    println!("# expected: mid-range factors balance step count against final fitness");
}
