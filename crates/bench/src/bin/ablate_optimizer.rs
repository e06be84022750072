//! Ablation — optimizer choice (DESIGN.md §5).
//!
//! The paper motivates Adam+AMSGrad over classic first-order methods for
//! the non-convex packing landscape; this harness runs one identical batch
//! under each optimizer and reports final fitness, steps to convergence and
//! wall-clock time. Expected shape: the adaptive optimizers (Adam, AMSGrad,
//! RMSProp) reach far lower fitness than plain SGD/momentum at the same
//! learning-rate budget.

use adampack_bench::{cli, secs, timed};
use adampack_core::prelude::*;
use adampack_geometry::{shapes, Vec3};

fn main() {
    let batch = cli::usize_arg("--batch", 400);
    let max_steps = cli::usize_arg("--steps", 2_000);
    let seed = cli::u64_arg("--seed", 42);

    let mesh = shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0));
    let container = Container::from_mesh(&mesh).expect("box hull");
    let radius = 0.05;

    let optimizers = [
        OptimizerKind::AmsGrad,
        OptimizerKind::Adam,
        OptimizerKind::RmsProp,
        OptimizerKind::NAdam,
        OptimizerKind::Momentum,
        OptimizerKind::Sgd,
    ];

    println!("# Ablation — optimizer comparison on one batch of {batch} particles");
    println!(
        "{:>10} {:>8} {:>14} {:>10}",
        "optimizer", "steps", "final_fitness", "time_s"
    );

    for kind in optimizers {
        let params = PackingParams {
            batch_size: batch,
            target_count: batch,
            max_steps,
            patience: 50,
            seed,
            optimizer: kind,
            ..PackingParams::default()
        };
        let mut packer = CollectivePacker::new(container.clone(), params);
        let radii = vec![radius; batch];
        let bed = packer.empty_bed();
        let init = packer.spawn_batch(&radii, &bed);
        let lr = LrPolicy::paper_default();
        let (run, elapsed) = timed(|| packer.optimize_batch_with(&radii, init, max_steps, 50, &lr));
        println!(
            "{:>10} {:>8} {:>14.4} {:>10.3}",
            format!("{kind:?}"),
            run.steps,
            run.best_fitness,
            secs(elapsed)
        );
    }
    println!("# expected: AMSGrad/Adam lowest fitness; SGD/momentum stall far higher");
}
