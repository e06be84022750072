//! Ablation — the neighbor pipeline (DESIGN.md §5).
//!
//! Two measurements of the live pair-search paths, each with
//! identical-value assertions:
//!
//! 1. **Verlet lists vs the naive oracle on a growing bed** — `P(C, C')`
//!    couples the batch with the whole fixed bed; evaluated naively the
//!    per-step cost grows linearly with the bed, which would turn the
//!    paper's linear Fig. 8 scaling quadratic. The production path's cost
//!    must stay flat.
//! 2. **Verlet skin sweep** — candidate-list length against rebuild
//!    frequency over a simulated optimization trajectory.
//!
//! Results are also written to `target/experiments/BENCH_neighbor.json`.

use adampack_bench::{cli, secs, timed, JsonReport};
use adampack_core::objective::{Objective, ObjectiveWeights};
use adampack_core::prelude::*;
use adampack_geometry::{shapes, Axis, Vec3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn json_row(report: &mut JsonReport, section: &str, size: usize, a_ms: f64, b_ms: f64) {
    report.row(format!(
        "{{\"section\": \"{section}\", \"size\": {size}, \
         \"baseline_ms\": {b_ms:.4}, \"new_ms\": {a_ms:.4}, \
         \"speedup\": {:.3}}}",
        b_ms / a_ms
    ));
}

fn main() {
    let batch = cli::usize_arg("--batch", 500);
    let evals = cli::usize_arg("--evals", 20);
    let radius = 0.03;

    let mesh = shapes::tall_box(2.0, 40.0);
    let container = Container::from_mesh(&mesh).expect("tall box hull");
    let hs = container.halfspaces();
    let mut rng = StdRng::seed_from_u64(7);
    let mut report = JsonReport::new("neighbor");

    println!("# Ablation 1 — objective evaluation: Verlet lists vs naive scan");
    println!(
        "{:>10} {:>14} {:>14} {:>10}",
        "bed_size", "verlet_ms", "naive_ms", "ratio"
    );

    for bed_size in [1_000usize, 5_000, 20_000, 80_000] {
        // Synthetic fixed bed filling the column from below.
        let mut centers = Vec::with_capacity(bed_size);
        let mut radii_fixed = Vec::with_capacity(bed_size);
        for i in 0..bed_size {
            let z = 0.05 + (i as f64) * 1.5e-4;
            centers.push(Vec3::new(
                rng.gen_range(-0.95..0.95),
                rng.gen_range(-0.95..0.95),
                z,
            ));
            radii_fixed.push(radius);
        }
        let bed_top = 0.05 + bed_size as f64 * 1.5e-4;
        let fixed = CsrGrid::build(&centers, &radii_fixed);

        // One batch hovering just above/into the bed surface.
        let radii = vec![radius; batch];
        let mut coords = Vec::with_capacity(batch * 3);
        for _ in 0..batch {
            coords.extend_from_slice(&[
                rng.gen_range(-0.95..0.95),
                rng.gen_range(-0.95..0.95),
                bed_top + rng.gen_range(-0.02..0.1),
            ]);
        }
        let mut grad = vec![0.0; coords.len()];

        let skin = NeighborParams::default().skin_for(&radii);
        let verlet_obj = Objective::new(ObjectiveWeights::default(), Axis::Z, hs, &radii, &fixed)
            .with_neighbor(NeighborStrategy::Verlet, skin);
        let naive_obj = Objective::new(ObjectiveWeights::default(), Axis::Z, hs, &radii, &fixed)
            .with_neighbor(NeighborStrategy::Naive, skin);

        let mut ws = Workspace::new();
        let (vv, t_verlet) = timed(|| {
            let mut v = 0.0;
            for _ in 0..evals {
                v = verlet_obj.value_and_grad_ws(&coords, &mut grad, &mut ws);
            }
            v
        });
        let (vn, t_naive) = timed(|| {
            let mut v = 0.0;
            for _ in 0..evals {
                v = naive_obj.value_and_grad(&coords, &mut grad);
            }
            v
        });
        // One pair order: the lists are an exact oracle of the naive scan.
        assert_eq!(
            vv.to_bits(),
            vn.to_bits(),
            "strategies disagree: {vv} vs {vn}"
        );
        let (v_ms, n_ms) = (
            secs(t_verlet) * 1e3 / evals as f64,
            secs(t_naive) * 1e3 / evals as f64,
        );
        println!(
            "{bed_size:>10} {v_ms:>14.3} {n_ms:>14.3} {:>10.1}",
            n_ms / v_ms
        );
        json_row(&mut report, "verlet_vs_naive", bed_size, v_ms, n_ms);
    }
    println!("# expected: naive cost grows with the bed, Verlet cost stays flat");

    // Ablation 2 — skin sweep at one batch size: a small skin gives short
    // candidate lists but frequent rebuilds, a large skin the opposite.
    // Rows list candidates in index order, so every skin gives the same
    // bits and the sweep is pure timing.
    println!("\n# Ablation 2 — Verlet skin sweep (batch 2000, same trajectory)");
    println!("{:>12} {:>14} {:>9}", "skin / r", "verlet_ms", "rebuilds");
    {
        let n = 2000usize;
        let bed_size = 4 * n;
        let mut centers = Vec::with_capacity(bed_size);
        let mut radii_fixed = Vec::with_capacity(bed_size);
        for i in 0..bed_size {
            let z = 0.05 + (i as f64) * 6.0e-5;
            centers.push(Vec3::new(
                rng.gen_range(-0.95..0.95),
                rng.gen_range(-0.95..0.95),
                z,
            ));
            radii_fixed.push(radius);
        }
        let bed_top = 0.05 + bed_size as f64 * 6.0e-5;
        let fixed = CsrGrid::build(&centers, &radii_fixed);
        let radii = vec![radius; n];
        let mut coords = Vec::with_capacity(3 * n);
        for _ in 0..n {
            coords.extend_from_slice(&[
                rng.gen_range(-0.95..0.95),
                rng.gen_range(-0.95..0.95),
                bed_top + rng.gen_range(0.0..0.3),
            ]);
        }
        let mut grad = vec![0.0; coords.len()];
        let step = 0.02 * radius;
        let jitter: Vec<f64> = (0..evals * coords.len())
            .map(|_| rng.gen_range(-step..step))
            .collect();
        let base = ObjectiveWeights::default();
        let mut reference: Option<f64> = None;
        for factor in [0.1f64, 0.2, 0.4, 0.8, 1.6] {
            let skin = (factor * radius).max(1e-9);
            let obj = Objective::new(base, Axis::Z, hs, &radii, &fixed)
                .with_neighbor(NeighborStrategy::Verlet, skin);
            let mut ws = Workspace::new();
            let mut c = coords.clone();
            let (v, t) = timed(|| {
                let mut v = 0.0;
                let len = c.len();
                for e in 0..evals {
                    v = obj.value_and_grad_ws(&c, &mut grad, &mut ws);
                    for (x, j) in c.iter_mut().zip(&jitter[e * len..]) {
                        *x += j;
                    }
                }
                v
            });
            // Every skin must produce the same final value, bit for bit
            // (same trajectory, same contacts summed in the same order —
            // only the candidate superset changes).
            match reference {
                None => reference = Some(v),
                Some(r) => assert_eq!(
                    v.to_bits(),
                    r.to_bits(),
                    "skin sweep disagrees: {r} vs {v} at factor {factor}"
                ),
            }
            let ms = secs(t) * 1e3 / evals as f64;
            println!("{factor:>12.2} {ms:>14.3} {:>9}", ws.verlet_rebuilds());
            json_row(
                &mut report,
                "skin_sweep_x100",
                (factor * 100.0) as usize,
                ms,
                ms,
            );
        }
    }
    println!("# expected: cost is U-shaped in the skin");

    let path = report.write().expect("write BENCH_neighbor.json");
    println!("# wrote {}", path.display());
}
