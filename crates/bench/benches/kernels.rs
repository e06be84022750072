//! Criterion micro-benchmarks of the objective/gradient kernels — the inner
//! loop whose O(batch²) cost produces the Fig. 2 U-curve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use adampack_core::neighbor::{CsrGrid, Workspace};
use adampack_core::objective::{Objective, ObjectiveWeights};
use adampack_core::Container;
use adampack_geometry::{shapes, Axis, Vec3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_value_and_grad(c: &mut Criterion) {
    let container = Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0))).unwrap();
    let hs = container.halfspaces();
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("objective_value_and_grad");
    for &n in &[100usize, 250, 500, 1000] {
        let radii = vec![0.05f64; n];
        let mut coords = Vec::with_capacity(n * 3);
        for _ in 0..n {
            coords.extend_from_slice(&[
                rng.gen_range(-0.9..0.9),
                rng.gen_range(-0.9..0.9),
                rng.gen_range(-0.9..0.9),
            ]);
        }
        let fixed = CsrGrid::empty();
        let obj = Objective::new(ObjectiveWeights::default(), Axis::Z, hs, &radii, &fixed);
        let mut grad = vec![0.0; coords.len()];
        group.bench_with_input(BenchmarkId::new("alloc", n), &n, |b, _| {
            b.iter(|| {
                let v = obj.value_and_grad(black_box(&coords), &mut grad);
                black_box(v)
            })
        });
        let mut ws = Workspace::new();
        group.bench_with_input(BenchmarkId::new("workspace", n), &n, |b, _| {
            b.iter(|| {
                let v = obj.value_and_grad_ws(black_box(&coords), &mut grad, &mut ws);
                black_box(v)
            })
        });
    }
    group.finish();
}

fn bench_breakdown(c: &mut Criterion) {
    let container = Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0))).unwrap();
    let hs = container.halfspaces();
    let mut rng = StdRng::seed_from_u64(2);
    let n = 500;
    let radii = vec![0.05f64; n];
    let mut coords = Vec::with_capacity(n * 3);
    for _ in 0..n {
        coords.extend_from_slice(&[
            rng.gen_range(-0.9..0.9),
            rng.gen_range(-0.9..0.9),
            rng.gen_range(-0.9..0.9),
        ]);
    }
    let fixed = CsrGrid::empty();
    let obj = Objective::new(ObjectiveWeights::default(), Axis::Z, hs, &radii, &fixed);
    let mut ws = Workspace::new();
    let mut grad = vec![0.0; coords.len()];
    c.bench_function("objective_breakdown_500", |b| {
        b.iter(|| black_box(obj.value_grad_breakdown_ws(black_box(&coords), &mut grad, &mut ws)))
    });
}

criterion_group!(benches, bench_value_and_grad, bench_breakdown);
criterion_main!(benches);
