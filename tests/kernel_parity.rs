//! Scalar-vs-SIMD kernel parity, property-tested: on randomized crowded
//! configurations the vectorized pair/plane kernels must reproduce the
//! scalar oracle's objective value, gradient and term breakdown **bitwise**
//! under every neighbor strategy and Verlet skin
//! (the spec bound of ≤ 1 ULP is met at 0 ULP — SIMD lanes reject with
//! element-wise correctly-rounded ops and hit lanes run the exact scalar
//! arithmetic in candidate order), and the lane-fused Adam/AMSGrad update
//! must walk the identical trajectory.
//!
//! Every objective case runs in the 6-plane box and in a 122-plane furnace
//! hull. On the hull the SIMD kernel's Verlet plan tests only each
//! sphere's listed planes while the scalar oracle tests all of them.

use adampack_core::neighbor::{CsrGrid, NeighborStrategy, Workspace};
use adampack_core::objective::{Objective, ObjectiveWeights};
use adampack_core::{Container, Kernel};
use adampack_geometry::{shapes, Axis, Vec3};
use adampack_opt::{Adam, AdamConfig, Optimizer};
use proptest::prelude::*;

fn box_container() -> Container {
    Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0))).unwrap()
}

/// The container of case `shape`: the 2×2×2 box, or the 1:20 furnace
/// replica's 122-plane hull (24 segments).
fn container(shape: usize) -> Container {
    match shape {
        0 => box_container(),
        _ => Container::from_mesh(&shapes::blast_furnace(0.05, 24)).unwrap(),
    }
}

/// Maps the box case's coordinates into `container`: `[-1, 1]³` onto its
/// AABB, lengths scaled by its smallest half-extent. The box maps to itself.
struct Frame {
    center: Vec3,
    half: Vec3,
    scale: f64,
}

impl Frame {
    fn of(container: &Container) -> Frame {
        let bb = container.aabb();
        let half = (bb.max - bb.min) * 0.5;
        Frame {
            center: bb.center(),
            half,
            scale: half.x.min(half.y).min(half.z),
        }
    }

    fn point(&self, u: Vec3) -> Vec3 {
        Vec3::new(
            self.center.x + self.half.x * u.x,
            self.center.y + self.half.y * u.y,
            self.center.z + self.half.z * u.z,
        )
    }
}

/// A deterministic fixed bed whose size is drawn by the property test, so
/// the cross-kernel's remainder lanes (bed size mod 4) vary across cases.
fn bed(n_fixed: usize, frame: &Frame) -> CsrGrid {
    let mut centers = Vec::with_capacity(n_fixed);
    let mut radii = Vec::with_capacity(n_fixed);
    for i in 0..n_fixed {
        let t = i as f64 * 0.754877666;
        centers.push(frame.point(Vec3::new(
            (t % 1.6) - 0.8,
            ((t * 1.9) % 1.6) - 0.8,
            -0.85 + 0.1 * ((t * 3.7) % 1.0),
        )));
        radii.push(frame.scale * (0.1 + 0.02 * ((i % 4) as f64)));
    }
    CsrGrid::build(&centers, &radii)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Value + gradient + breakdown agree bitwise across every neighbor
    /// strategy, kernel and Verlet skin, on batches whose size sweeps the
    /// 4-lane remainder cases, in both containers. Each case is evaluated
    /// twice on one workspace: as drawn, which builds the lists, then with
    /// every sphere moved outward by just under skin/2, which reuses them —
    /// the most a listed-plane walk can be asked to cover.
    #[test]
    fn scalar_and_simd_objectives_agree_bitwise(
        seed_offsets in prop::collection::vec(-0.9f64..0.9, 3),
        n in 1usize..40,
        n_fixed in 0usize..30,
        scale in 0.4f64..1.0,
        shape in 0usize..2,
        skin_radii in 0.2f64..1.5,
    ) {
        let container = container(shape);
        let frame = Frame::of(&container);
        let fixed = bed(n_fixed, &frame);
        let radii: Vec<f64> =
            (0..n).map(|i| frame.scale * (0.07 + 0.015 * ((i % 5) as f64))).collect();
        let skin = skin_radii * radii.iter().copied().fold(0.0, f64::max);
        let mut c = Vec::with_capacity(3 * n);
        for i in 0..n {
            let t = i as f64 * 0.61803398875;
            let p = frame.point(Vec3::new(
                scale * ((t % 1.8) - 0.9) + 0.05 * seed_offsets[0],
                scale * (((t * 1.7) % 1.8) - 0.9) + 0.05 * seed_offsets[1],
                scale * (((t * 2.3) % 1.6) - 0.9) + 0.05 * seed_offsets[2],
            ));
            c.extend_from_slice(&[p.x, p.y, p.z]);
        }
        let moved = move_outward(&c, frame.center, 0.999 * skin / 2.0);
        let w = ObjectiveWeights::default();
        // Two evaluations per (strategy, kernel) pipeline, in order.
        let mut out = Vec::new();
        for strategy in NeighborStrategy::ALL {
            for kernel in Kernel::ALL {
                let obj = Objective::new(w, Axis::Z, container.halfspaces(), &radii, &fixed)
                    .with_neighbor(strategy, skin)
                    .with_kernel(kernel);
                let mut ws = Workspace::new();
                for coords in [&c, &moved] {
                    let mut grad = vec![0.0; 3 * n];
                    let (v, b) = obj.value_grad_breakdown_ws(coords, &mut grad, &mut ws);
                    out.push((format!("{strategy:?}/{kernel}"), v, grad, b));
                }
                prop_assert!(ws.verlet_rebuilds() <= 1, "{:?}: the move rebuilt the lists", strategy);
            }
        }
        // Every pipeline's evaluation against the first pipeline's.
        for (k, (pipeline, vv, gv, bv)) in out.iter().enumerate().skip(2) {
            let (_, vs, gs, bs) = &out[k % 2];
            let what = format!("shape {shape}, skin {skin_radii} r, {pipeline}, evaluation {}", k % 2);
            prop_assert_eq!(vs.to_bits(), vv.to_bits(), "{}: value", what);
            for (k, (a, b)) in gs.iter().zip(gv).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{}: grad[{}]", what, k);
            }
            prop_assert_eq!(
                bs.penetration_intra.to_bits(),
                bv.penetration_intra.to_bits(),
                "{}: intra", what
            );
            prop_assert_eq!(
                bs.penetration_cross.to_bits(),
                bv.penetration_cross.to_bits(),
                "{}: cross", what
            );
            prop_assert_eq!(bs.exterior.to_bits(), bv.exterior.to_bits(), "{}: exterior", what);
            prop_assert_eq!(bs.altitude.to_bits(), bv.altitude.to_bits(), "{}: altitude", what);
        }
    }

    /// The lane-fused Adam/AMSGrad update matches the scalar update bitwise
    /// over a multi-step trajectory (including the bias-correction warm-up
    /// and the AMSGrad running maximum).
    #[test]
    fn scalar_and_simd_adam_agree_bitwise(
        init in prop::collection::vec(-1.0f64..1.0, 1..64),
        grads in prop::collection::vec(-2.0f64..2.0, 64),
        amsgrad_bit in 0usize..2,
        steps in 1usize..12,
    ) {
        let amsgrad = amsgrad_bit == 1;
        let n = init.len();
        let mut trajectories = Vec::new();
        for kernel in Kernel::ALL {
            let mut p = init.clone();
            let mut opt = Adam::new(
                AdamConfig {
                    lr: 1e-2,
                    amsgrad,
                    kernel,
                    ..AdamConfig::default()
                },
                n,
            );
            for s in 0..steps {
                // Deterministic pseudo-gradients varying per step.
                let g: Vec<f64> = (0..n).map(|i| grads[(i + s) % grads.len()]).collect();
                opt.step(&mut p, &g);
            }
            trajectories.push(p);
        }
        for (k, (a, b)) in trajectories[0].iter().zip(&trajectories[1]).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "param[{}]", k);
        }
    }
}

/// `c` with every sphere moved `dist` straight away from `from`.
fn move_outward(c: &[f64], from: Vec3, dist: f64) -> Vec<f64> {
    let mut moved = c.to_vec();
    for p in moved.chunks_exact_mut(3) {
        let out = (Vec3::new(p[0], p[1], p[2]) - from)
            .normalized()
            .unwrap_or(Vec3::Z);
        p[0] += out.x * dist;
        p[1] += out.y * dist;
        p[2] += out.z * dist;
    }
    moved
}

/// Padding lanes (batch size not a multiple of 4) must contribute nothing:
/// append a particle, compare against the value with it removed.
#[test]
fn padding_never_leaks_into_results() {
    let container = box_container();
    let fixed = bed(17, &Frame::of(&container));
    let w = ObjectiveWeights::default();
    for n in 1..=9usize {
        let radii: Vec<f64> = (0..n).map(|i| 0.1 + 0.01 * (i as f64)).collect();
        let mut c = Vec::with_capacity(3 * n);
        for i in 0..n {
            let t = i as f64 * 0.61803398875;
            c.extend_from_slice(&[
                (t % 1.6) - 0.8,
                ((t * 1.7) % 1.6) - 0.8,
                ((t * 2.3) % 1.4) - 0.8,
            ]);
        }
        let mut gs = vec![0.0; 3 * n];
        let mut gv = vec![0.0; 3 * n];
        let vs = Objective::new(w, Axis::Z, container.halfspaces(), &radii, &fixed)
            .with_kernel(Kernel::Scalar)
            .value_and_grad(&c, &mut gs);
        let vv = Objective::new(w, Axis::Z, container.halfspaces(), &radii, &fixed)
            .with_kernel(Kernel::Simd)
            .value_and_grad(&c, &mut gv);
        assert_eq!(vs.to_bits(), vv.to_bits(), "n = {n}");
        for (a, b) in gs.iter().zip(&gv) {
            assert_eq!(a.to_bits(), b.to_bits(), "n = {n}");
        }
    }
}
