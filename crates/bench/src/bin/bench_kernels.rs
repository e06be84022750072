//! Kernel-layer benchmark (DESIGN.md §9): the `scalar` oracle vs the
//! canonical `simd` kernel on one thread, for the three vectorized hot
//! phases:
//!
//! 1. **pairs** — fused objective value+gradient on a crowded batch over a
//!    fixed bed (pair-term dominated; Verlet pipeline with warm lists, so
//!    the measured window is pure kernel arithmetic).
//! 2. **planes** — the same fused evaluation on a sparse batch scattered
//!    around a tight box (plane-term dominated, pair candidates scarce).
//! 3. **optimizer** — the Adam/AMSGrad slot update.
//!
//! `scalar` is the sqrt-free oracle, `simd` the canonical 4-lane path; the
//! two must agree **bitwise** on every phase. Results are also written to
//! `target/experiments/BENCH_kernels.json`.

use adampack_bench::{aggregate, cli, json_str, secs, timed, Agg, JsonReport};
use adampack_core::neighbor::{CsrGrid, NeighborStrategy, Workspace};
use adampack_core::objective::{Objective, ObjectiveWeights};
use adampack_core::{Container, Kernel};
use adampack_geometry::{shapes, Axis, Vec3};
use adampack_opt::{Adam, AdamConfig, Optimizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Scene {
    container: Container,
    coords: Vec<f64>,
    radii: Vec<f64>,
    fixed: CsrGrid,
}

/// Constant crowding for every n: volume per sphere well below a diameter
/// cube, so the candidate lists are rich in both near-misses (the rejection
/// path the sqrt-free test accelerates) and true overlaps (the hot-pair
/// body). Half as many fixed spheres exercise the cross kernel too.
fn crowded_scene(n: usize) -> Scene {
    let r = 0.05f64;
    let side = ((n as f64) * (2.0 * r).powi(3) / 0.65).cbrt();
    let h = 0.5 * side;
    let mesh = shapes::box_mesh(Vec3::ZERO, Vec3::splat(side));
    let container = Container::from_mesh(&mesh).expect("box hull");
    let mut rng = StdRng::seed_from_u64(42 + n as u64);

    let n_fixed = n / 2;
    let mut centers = Vec::with_capacity(n_fixed);
    let mut fixed_radii = Vec::with_capacity(n_fixed);
    for _ in 0..n_fixed {
        centers.push(Vec3::new(
            rng.gen_range(-0.95 * h..0.95 * h),
            rng.gen_range(-0.95 * h..0.95 * h),
            rng.gen_range(-0.95 * h..0.0),
        ));
        fixed_radii.push(r);
    }
    let fixed = CsrGrid::build(&centers, &fixed_radii);

    let radii: Vec<f64> = (0..n).map(|i| r * (0.8 + 0.08 * (i % 6) as f64)).collect();
    let mut coords = Vec::with_capacity(3 * n);
    for _ in 0..n {
        coords.push(rng.gen_range(-0.95 * h..0.95 * h));
        coords.push(rng.gen_range(-0.95 * h..0.95 * h));
        coords.push(rng.gen_range(-0.5 * h..0.95 * h));
    }
    Scene {
        container,
        coords,
        radii,
        fixed,
    }
}

/// A tight box with tiny, widely spaced particles scattered around it: the
/// plane loop runs over every particle while pair candidates are scarce and
/// there is no fixed bed at all.
fn plane_scene(n: usize) -> Scene {
    let mesh = shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0));
    let container = Container::from_mesh(&mesh).expect("box hull");
    let mut rng = StdRng::seed_from_u64(7 + n as u64);
    let spread = (0.2 * (n as f64).cbrt()).max(4.0);
    let radii = vec![0.01; n];
    let mut coords = Vec::with_capacity(3 * n);
    for _ in 0..3 * n {
        coords.push(rng.gen_range(-0.5 * spread..0.5 * spread));
    }
    Scene {
        container,
        coords,
        radii,
        fixed: CsrGrid::build(&[], &[]),
    }
}

/// Times the fused `value_and_grad_ws` per kernel on a fixed configuration.
/// Returns per-eval milliseconds in [`Kernel::ALL`] order after checking that
/// the kernels agree bitwise.
fn bench_objective(scene: &Scene, repeats: usize, evals: usize) -> [Agg; 2] {
    let hs = scene.container.halfspaces();
    let mut grad = vec![0.0; scene.coords.len()];
    let mut aggs = Vec::with_capacity(2);
    let mut values = [0.0f64; 2];
    for (k, kernel) in Kernel::ALL.iter().enumerate() {
        let obj = Objective::new(
            ObjectiveWeights::default(),
            Axis::Z,
            hs,
            &scene.radii,
            &scene.fixed,
        )
        .with_neighbor(NeighborStrategy::Verlet, 0.5 * scene.radii[0])
        .with_kernel(*kernel);
        let mut ws = Workspace::new();
        // Warm-up: build the Verlet lists and SoA snapshots; the coordinates
        // never move, so the measured window is pure kernel work.
        let mut v = obj.value_and_grad_ws(&scene.coords, &mut grad, &mut ws);
        let mut samples = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            let (last, t) = timed(|| {
                let mut v = 0.0;
                for _ in 0..evals {
                    v = obj.value_and_grad_ws(&scene.coords, &mut grad, &mut ws);
                }
                v
            });
            v = last;
            samples.push(secs(t) * 1e3 / evals as f64);
        }
        values[k] = v;
        aggs.push(aggregate(&samples));
    }
    assert_eq!(
        values[0].to_bits(),
        values[1].to_bits(),
        "scalar and simd kernels must agree bitwise: {} vs {}",
        values[0],
        values[1]
    );
    [aggs[0], aggs[1]]
}

/// Times the Adam/AMSGrad update per kernel on a fixed gradient; the two
/// trajectories must agree bitwise.
fn bench_adam(n: usize, repeats: usize, steps: usize) -> [Agg; 2] {
    let dims = 3 * n;
    let mut rng = StdRng::seed_from_u64(11 + n as u64);
    let init: Vec<f64> = (0..dims).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let grads: Vec<f64> = (0..dims).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut aggs = Vec::with_capacity(2);
    let mut finals: Vec<Vec<f64>> = Vec::with_capacity(2);
    for kernel in Kernel::ALL {
        let mut samples = Vec::with_capacity(repeats);
        let mut p = Vec::new();
        for _ in 0..repeats {
            p = init.clone();
            let mut opt = Adam::new(
                AdamConfig {
                    lr: 1e-3,
                    amsgrad: true,
                    kernel,
                    ..AdamConfig::default()
                },
                dims,
            );
            let ((), t) = timed(|| {
                for _ in 0..steps {
                    opt.step(&mut p, &grads);
                }
            });
            samples.push(secs(t) * 1e3 / steps as f64);
        }
        finals.push(p);
        aggs.push(aggregate(&samples));
    }
    for (i, (a, b)) in finals[0].iter().zip(&finals[1]).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "optimizer trajectories diverged at param {i}"
        );
    }
    [aggs[0], aggs[1]]
}

fn header() {
    println!(
        "{:>8} {:>12} {:>12} {:>13}",
        "n", "scalar_ms", "simd_ms", "simd/scalar"
    );
}

fn print_row(n: usize, ms: &[Agg; 2]) {
    println!(
        "{n:>8} {:>12.4} {:>12.4} {:>13.2}",
        ms[0].mean,
        ms[1].mean,
        ms[0].mean / ms[1].mean
    );
}

fn json_row(report: &mut JsonReport, phase: &str, n: usize, ms: &[Agg; 2]) {
    report.row(format!(
        "{{\"phase\": \"{phase}\", \"n\": {n}, \
         \"scalar_ms\": {:.5}, \"simd_ms\": {:.5}, \"speedup_vs_scalar\": {:.3}}}",
        ms[0].mean,
        ms[1].mean,
        ms[0].mean / ms[1].mean
    ));
}

fn main() {
    let repeats = cli::usize_arg("--repeats", 5);
    // Everything runs inside a 1-thread pool: the speedups reported here are
    // pure kernel-arithmetic ratios, not parallel-scheduling artifacts.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool");
    pool.install(|| run(repeats));
}

fn run(repeats: usize) {
    println!(
        "# Kernel benchmark — compiled backend '{}', detected ISA '{}', 1 thread",
        wide::backend_name(),
        wide::detected_isa()
    );
    let sizes = [500usize, 2000, 8000];
    let mut report = JsonReport::new("kernels");

    println!("# phase 'pairs' — fused value+gradient, crowded batch over a fixed bed");
    header();
    for &n in &sizes {
        let scene = crowded_scene(n);
        let evals = (400_000 / n).max(5);
        let ms = bench_objective(&scene, repeats, evals);
        print_row(n, &ms);
        json_row(&mut report, "pairs", n, &ms);
    }

    println!("# phase 'planes' — fused value+gradient, sparse batch around a tight box");
    header();
    for &n in &sizes {
        let scene = plane_scene(n);
        let evals = (2_000_000 / n).max(20);
        let ms = bench_objective(&scene, repeats, evals);
        print_row(n, &ms);
        json_row(&mut report, "planes", n, &ms);
    }
    println!(
        "# note: with near-zero pair work the per-eval SoA snapshot refresh is not \
         amortized, so simd can trail scalar here; production scenes are \
         pair-dominated (see 'pairs')"
    );

    println!("# phase 'optimizer' — Adam/AMSGrad slot update, 3n parameters");
    header();
    for &n in &sizes {
        let steps = (4_000_000 / (3 * n)).max(50);
        let ms = bench_adam(n, repeats, steps);
        print_row(n, &ms);
        json_row(&mut report, "optimizer", n, &ms);
    }

    report
        .meta("backend", json_str(wide::backend_name()))
        .meta("detected_isa", json_str(wide::detected_isa()))
        .meta("threads", 1);
    let path = report.write().expect("write BENCH_kernels.json");
    println!("# wrote {}", path.display());
}
