//! Scalar-vs-SIMD kernel parity, property-tested: on randomized crowded
//! configurations the vectorized pair/plane kernels must reproduce the
//! scalar oracle's objective value, gradient and term breakdown **bitwise**
//! (the spec bound of ≤ 1 ULP is met at 0 ULP — SIMD lanes reject with
//! element-wise correctly-rounded ops and hit lanes run the exact scalar
//! arithmetic in candidate order), and the lane-fused Adam/AMSGrad update
//! must walk the identical trajectory.

use adampack_core::neighbor::{CsrGrid, NeighborStrategy, Workspace};
use adampack_core::objective::{Objective, ObjectiveWeights};
use adampack_core::{Container, Kernel};
use adampack_geometry::{shapes, Axis, Vec3};
use adampack_opt::{Adam, AdamConfig, Optimizer};
use proptest::prelude::*;

fn box_container() -> Container {
    Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0))).unwrap()
}

/// A deterministic fixed bed whose size is drawn by the property test, so
/// the cross-kernel's remainder lanes (bed size mod 4) vary across cases.
fn bed(n_fixed: usize) -> CsrGrid {
    let mut centers = Vec::with_capacity(n_fixed);
    let mut radii = Vec::with_capacity(n_fixed);
    for i in 0..n_fixed {
        let t = i as f64 * 0.754877666;
        centers.push(Vec3::new(
            (t % 1.6) - 0.8,
            ((t * 1.9) % 1.6) - 0.8,
            -0.85 + 0.1 * ((t * 3.7) % 1.0),
        ));
        radii.push(0.1 + 0.02 * ((i % 4) as f64));
    }
    CsrGrid::build(&centers, &radii)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Value + gradient + breakdown agree bitwise for every neighbor
    /// pipeline, on batches whose size sweeps the 4-lane remainder cases
    /// (and, under `Auto`, both sides of the Verlet threshold).
    #[test]
    fn scalar_and_simd_objectives_agree_bitwise(
        seed_offsets in prop::collection::vec(-0.9f64..0.9, 3),
        n in 1usize..40,
        n_fixed in 0usize..30,
        scale in 0.4f64..1.0,
    ) {
        let container = box_container();
        let fixed = bed(n_fixed);
        let radii: Vec<f64> = (0..n).map(|i| 0.07 + 0.015 * ((i % 5) as f64)).collect();
        let mut c = Vec::with_capacity(3 * n);
        for i in 0..n {
            let t = i as f64 * 0.61803398875;
            c.extend_from_slice(&[
                scale * ((t % 1.8) - 0.9) + 0.05 * seed_offsets[0],
                scale * (((t * 1.7) % 1.8) - 0.9) + 0.05 * seed_offsets[1],
                scale * (((t * 2.3) % 1.6) - 0.9) + 0.05 * seed_offsets[2],
            ]);
        }
        let w = ObjectiveWeights::default();
        for strategy in NeighborStrategy::ALL {
            let mut out = Vec::new();
            for kernel in Kernel::ALL {
                let obj = Objective::new(w, Axis::Z, container.halfspaces(), &radii, &fixed)
                    .with_neighbor(strategy, 0.04)
                    .with_kernel(kernel);
                let mut ws = Workspace::new();
                let mut grad = vec![0.0; 3 * n];
                let (v, b) = obj.value_grad_breakdown_ws(&c, &mut grad, &mut ws);
                out.push((v, grad, b));
            }
            let (vs, gs, bs) = &out[0];
            let (vv, gv, bv) = &out[1];
            prop_assert_eq!(vs.to_bits(), vv.to_bits(), "{:?}: value", strategy);
            for (k, (a, b)) in gs.iter().zip(gv).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?}: grad[{}]", strategy, k);
            }
            prop_assert_eq!(
                bs.penetration_intra.to_bits(),
                bv.penetration_intra.to_bits(),
                "{:?}: intra", strategy
            );
            prop_assert_eq!(
                bs.penetration_cross.to_bits(),
                bv.penetration_cross.to_bits(),
                "{:?}: cross", strategy
            );
            prop_assert_eq!(bs.exterior.to_bits(), bv.exterior.to_bits(), "{:?}: exterior", strategy);
            prop_assert_eq!(bs.altitude.to_bits(), bv.altitude.to_bits(), "{:?}: altitude", strategy);
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

/// Padding lanes (batch size not a multiple of 4) must contribute nothing:
/// append a particle, compare against the value with it removed.
#[test]
fn padding_never_leaks_into_results() {
    let container = box_container();
    let fixed = bed(17);
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
