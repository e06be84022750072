//! Property tests for the packing core: PSD sampling, grid-vs-brute-force
//! (the CSR grid against the O(n²) scan), objective invariants, every pair
//! plan against the naive oracle, Verlet-vs-naive agreement over an
//! optimization trajectory, optimizer descent.

use adampack_core::neighbor::{NeighborStrategy, Workspace};
use adampack_core::objective::{Objective, ObjectiveWeights};
use adampack_core::prelude::*;
use adampack_geometry::{shapes, Axis, Vec3};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn box_container() -> Container {
    Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0))).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn psd_samples_respect_bounds_and_mean(
        min in 0.01f64..0.1,
        width in 0.001f64..0.1,
        seed in 0u64..500,
    ) {
        let psd = Psd::uniform(min, min + width);
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = psd.sample_n(&mut rng, 2000);
        prop_assert!(samples.iter().all(|&r| r >= min && r <= min + width));
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        // 2000 samples: mean within 10 % of the width around the true mean.
        prop_assert!((mean - psd.mean()).abs() < 0.1 * width + 1e-12);
        prop_assert!(samples.iter().all(|&r| r <= psd.max_radius()));
    }

    #[test]
    fn normal_psd_stays_positive_and_truncated(
        mean in 0.05f64..0.2,
        rel_sigma in 0.01f64..0.3,
        seed in 0u64..200,
    ) {
        let sigma = mean * rel_sigma;
        let psd = Psd::normal(mean, sigma);
        let mut rng = StdRng::seed_from_u64(seed);
        for r in psd.sample_n(&mut rng, 500) {
            prop_assert!(r > 0.0);
            prop_assert!((r - mean).abs() <= 3.0 * sigma + 1e-12);
        }
    }

    #[test]
    fn grid_overlap_query_matches_brute_force(
        centers in prop::collection::vec(
            (-1.5f64..1.5, -1.5f64..1.5, -1.5f64..1.5), 1..120),
        radii_seed in 0u64..100,
        qx in -1.5f64..1.5,
        qy in -1.5f64..1.5,
        qz in -1.5f64..1.5,
        qr in 0.05f64..0.5,
    ) {
        use rand::Rng;
        let pts: Vec<Vec3> = centers.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect();
        let mut rng = StdRng::seed_from_u64(radii_seed);
        let radii: Vec<f64> = pts.iter().map(|_| rng.gen_range(0.02..0.3)).collect();
        let q = Vec3::new(qx, qy, qz);
        let want: Vec<usize> = (0..pts.len())
            .filter(|&i| {
                let m = qr + radii[i];
                q.distance_sq(pts[i]) < m * m
            })
            .collect();
        // The production CSR grid must agree with the O(n²) scan.
        let csr = CsrGrid::build(&pts, &radii);
        prop_assert_eq!(csr.overlapping(q, qr), want.clone());
        // And an incrementally-grown CSR grid sees the same set.
        let mut grown = CsrGrid::empty();
        for (i, &c) in pts.iter().enumerate() {
            grown.push(c, radii[i]);
        }
        prop_assert_eq!(grown.overlapping(q, qr), want);
    }

    #[test]
    fn objective_terms_have_correct_signs(
        coords in prop::collection::vec(-1.2f64..1.2, 3..30),
        r in 0.05f64..0.3,
    ) {
        prop_assume!(coords.len() % 3 == 0);
        let n = coords.len() / 3;
        let radii = vec![r; n];
        let container = box_container();
        let fixed = CsrGrid::empty();
        let obj = Objective::new(
            ObjectiveWeights::default(),
            Axis::Z,
            container.halfspaces(),
            &radii,
            &fixed,
        );
        let mut grad = vec![0.0; coords.len()];
        let (v, b) = obj.value_grad_breakdown_ws(&coords, &mut grad, &mut Workspace::new());
        // Penetration and exterior terms are sums of non-negative hinges.
        prop_assert!(b.penetration_intra >= 0.0);
        prop_assert!(b.penetration_cross >= 0.0);
        prop_assert!(b.exterior >= 0.0);
        // The weighted total matches the weight formula.
        let w = ObjectiveWeights::default();
        let expect = w.alpha * (b.penetration_intra + b.penetration_cross)
            + w.beta * b.altitude
            + w.gamma * b.exterior;
        prop_assert!((b.total - expect).abs() < 1e-9 * expect.abs().max(1.0));
        // The traced total is the returned loss, bitwise.
        prop_assert_eq!(v.to_bits(), b.total.to_bits());
    }

    /// Every pair plan matches the exhaustive oracle bit for bit on random
    /// beds and batches of any size: the lists sum contacts in index
    /// order, as the naive scans do.
    #[test]
    fn pair_plans_agree_with_naive_on_random_beds(
        bed in prop::collection::vec((-0.9f64..0.9, -0.9f64..0.9, -0.9f64..0.0), 1..60),
        batch in prop::collection::vec((-0.9f64..0.9, -0.9f64..0.9, -0.3f64..0.9), 1..60),
    ) {
        let bed_pts: Vec<Vec3> = bed.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect();
        let bed_radii = vec![0.15; bed_pts.len()];
        let fixed = CsrGrid::build(&bed_pts, &bed_radii);
        let radii = vec![0.12; batch.len()];
        let coords: Vec<f64> = batch.iter().flat_map(|&(x, y, z)| [x, y, z]).collect();
        let container = box_container();
        let w = ObjectiveWeights::default();
        let eval = |strategy| {
            let mut grad = vec![0.0; coords.len()];
            let v = Objective::new(w, Axis::Z, container.halfspaces(), &radii, &fixed)
                .with_neighbor(strategy, 0.05)
                .value_and_grad(&coords, &mut grad);
            (v, grad)
        };
        let (v0, g0) = eval(NeighborStrategy::Naive);
        let (v, g) = eval(NeighborStrategy::Verlet);
        prop_assert_eq!(v.to_bits(), v0.to_bits());
        for (a, b) in g.iter().zip(&g0) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn one_amsgrad_step_descends_from_random_states(
        batch in prop::collection::vec((-0.8f64..0.8, -0.8f64..0.8, -0.8f64..0.8), 4..24),
    ) {
        use adampack_opt::Optimizer;
        // From any state with gradient, a small AMSGrad step must reduce the
        // objective (first step of Adam moves along −sign(g) with step ≈ lr).
        let radii = vec![0.2; batch.len()];
        let mut coords: Vec<f64> = batch.iter().flat_map(|&(x, y, z)| [x, y, z]).collect();
        let container = box_container();
        let fixed = CsrGrid::empty();
        let obj = Objective::new(
            ObjectiveWeights::default(),
            Axis::Z,
            container.halfspaces(),
            &radii,
            &fixed,
        );
        let mut grad = vec![0.0; coords.len()];
        let v0 = obj.value_and_grad(&coords, &mut grad);
        prop_assume!(grad.iter().any(|g| g.abs() > 1e-6));
        let mut opt = adampack_opt::Adam::new(
            adampack_opt::AdamConfig { lr: 1e-4, amsgrad: true, ..Default::default() },
            coords.len(),
        );
        opt.step(&mut coords, &grad);
        let v1 = obj.value(&coords);
        prop_assert!(v1 <= v0 + 1e-9, "tiny first step must not increase Z: {v0} → {v1}");
    }

    #[test]
    fn boundary_stats_bounded_and_zero_inside(
        px in -0.5f64..0.5,
        py in -0.5f64..0.5,
        pz in -0.5f64..0.5,
        r in 0.05f64..0.4,
    ) {
        use adampack_core::metrics::boundary_stats;
        let container = box_container();
        let (mean, max) = boundary_stats(&[Vec3::new(px, py, pz)], &[r], container.halfspaces());
        // A sphere centred within ±0.5 with radius ≤ 0.4 is fully inside the
        // [-1, 1]³ box.
        prop_assert_eq!(mean, 0.0);
        prop_assert_eq!(max, 0.0);
    }
}

/// Satellite check: the Verlet pipeline must track the naive O(n²) scan in
/// both value and gradient over a realistic optimization trajectory — many
/// small Adam steps with intermittent list rebuilds.
#[test]
fn verlet_matches_naive_over_optimizer_trajectory() {
    use adampack_opt::Optimizer;
    use rand::Rng;

    let container = box_container();
    let mut rng = StdRng::seed_from_u64(11);

    // A loose bed near the floor plus a crowded batch dropped onto it.
    let bed_pts: Vec<Vec3> = (0..60)
        .map(|_| {
            Vec3::new(
                rng.gen_range(-0.8..0.8),
                rng.gen_range(-0.8..0.8),
                rng.gen_range(-0.95..-0.55),
            )
        })
        .collect();
    let bed_radii: Vec<f64> = bed_pts.iter().map(|_| rng.gen_range(0.08..0.16)).collect();
    let fixed = CsrGrid::build(&bed_pts, &bed_radii);

    let n = 48;
    let radii: Vec<f64> = (0..n).map(|_| rng.gen_range(0.06..0.14)).collect();
    let mut coords: Vec<f64> = Vec::with_capacity(3 * n);
    for _ in 0..n {
        coords.push(rng.gen_range(-0.7..0.7));
        coords.push(rng.gen_range(-0.7..0.7));
        coords.push(rng.gen_range(-0.5..0.3));
    }

    let w = ObjectiveWeights::default();
    let skin = 0.4 * radii.iter().copied().fold(0.0, f64::max);
    let verlet = Objective::new(w, Axis::Z, container.halfspaces(), &radii, &fixed)
        .with_neighbor(NeighborStrategy::Verlet, skin);
    let naive = Objective::new(w, Axis::Z, container.halfspaces(), &radii, &fixed)
        .with_neighbor(NeighborStrategy::Naive, skin);

    let mut ws = Workspace::new();
    let mut opt = adampack_opt::Adam::new(
        adampack_opt::AdamConfig {
            lr: 2e-3,
            amsgrad: true,
            ..Default::default()
        },
        coords.len(),
    );
    let mut g_verlet = vec![0.0; coords.len()];
    let mut g_naive = vec![0.0; coords.len()];
    for step in 0..400 {
        let v1 = verlet.value_and_grad_ws(&coords, &mut g_verlet, &mut ws);
        let v2 = naive.value_and_grad(&coords, &mut g_naive);
        assert_eq!(
            v1.to_bits(),
            v2.to_bits(),
            "step {step}: verlet value {v1} vs naive {v2}"
        );
        for (k, (a, b)) in g_verlet.iter().zip(&g_naive).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "step {step}, coord {k}: verlet grad {a} vs naive {b}"
            );
        }
        opt.step(&mut coords, &g_verlet);
    }
    // The skin must have amortized pair search: far fewer rebuilds than
    // evaluations, but at least the initial build.
    let rebuilds = ws.verlet_rebuilds();
    assert!(rebuilds >= 1, "lists never built");
    assert!(
        rebuilds < 200,
        "skin amortized nothing: {rebuilds} rebuilds / 400 steps"
    );
}
