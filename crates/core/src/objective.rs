//! The packing objective `Z(C)` and its analytic gradient.
//!
//! Implements the paper's eq. (5):
//!
//! ```text
//! Z(C) = α·P(C,C) + β·A(C) + γ·E_H(C,r) + α·P(C,C')
//! ```
//!
//! * `P(C,C)` — intra-batch penetration: the ordered double sum over
//!   particle pairs of the clamped penetration depth
//!   `p_ij = −min(0, ‖cᵢ−cⱼ‖ − rᵢ − rⱼ)` (each unordered pair counted twice,
//!   as written in eq. (1)),
//! * `A(C)` — total altitude `Σᵢ (up · cᵢ)` pulling particles down the
//!   gravity axis,
//! * `E_H` — exterior distance: `Σᵢ Σₖ max(0, ρ̃ᵢₖ)` over the container's
//!   half-space planes,
//! * `P(C,C')` — cross penetration against the fixed bed (each pair once).
//!
//! The reference implementation differentiates this with PyTorch autograd;
//! here the gradient is closed-form — the expensive part is the same pair
//! scan the value needs, so value and gradient are fused into one pass.
//!
//! ## Neighbor pipeline
//!
//! Pair search is chosen by [`NeighborStrategy`]: skin-padded Verlet
//! candidate lists from [`crate::neighbor`] that amortize the search over
//! many optimizer steps, or exhaustive scans (the exact oracle). Both
//! visit a sphere's contacts in ascending index, so they give the same
//! bits. The same lists carry each sphere's reachable container walls,
//! so under the SIMD kernel's Verlet plan `E_H` costs a couple of planes
//! per sphere instead of the whole hull. The hot entry points
//! [`Objective::value_and_grad_ws`] and
//! [`Objective::value_grad_breakdown_ws`] share one evaluation body and
//! thread a [`Workspace`] through so steady-state evaluations are
//! allocation-free.
//!
//! Both kernels are data-parallel over batch particles in jobs of at least
//! [`KERNEL_GRAIN`] spheres, so batches under two grains run inline:
//! particle `i`'s slot of the gradient buffer is written by exactly one
//! task, and per-particle partial values are reduced **sequentially** from
//! a scratch vector so results are bitwise-deterministic for a fixed seed
//! regardless of thread count (the paper fixes seeds the same way, §IV).

use adampack_geometry::{Axis, HalfSpaceSet, Vec3};
use adampack_opt::Kernel;
use adampack_telemetry::metrics::EVALS_TOTAL;
use adampack_telemetry::Phase;
use rayon::par;

use crate::kernels::{self, FixedView, PlaneSoa, SoaCoords};
use crate::neighbor::{self, CsrGrid, NeighborStrategy, SweepOrder, VerletLists, Workspace};
use crate::particle::coords;

/// Fewest batch spheres one kernel job takes. One sphere's term costs
/// 75–86 ns serial (2-vCPU Xeon VM, `column_50k`: 37–43 µs per 500-sphere
/// evaluation), so a job of 512 carries ~40 µs, about twice a pool
/// hand-off: batches of up to 1 023 spheres evaluate inline.
pub const KERNEL_GRAIN: usize = 512;

/// The objective's linear-combination weights (paper eq. 4/5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectiveWeights {
    /// Penetration weight α (both intra-batch and cross-layer).
    pub alpha: f64,
    /// Altitude weight β.
    pub beta: f64,
    /// Exterior-distance weight γ.
    pub gamma: f64,
}

impl Default for ObjectiveWeights {
    /// The paper's §IV choice: α = 100, β = 10, γ = 100.
    fn default() -> Self {
        ObjectiveWeights {
            alpha: 100.0,
            beta: 10.0,
            gamma: 100.0,
        }
    }
}

impl ObjectiveWeights {
    /// Panics on non-finite or negative weights.
    pub fn validate(&self) {
        for (name, w) in [
            ("alpha", self.alpha),
            ("beta", self.beta),
            ("gamma", self.gamma),
        ] {
            assert!(
                w.is_finite() && w >= 0.0,
                "weight {name} must be finite and >= 0, got {w}"
            );
        }
    }
}

/// Per-term values of one objective evaluation (unweighted and weighted).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ObjectiveBreakdown {
    /// Intra-batch penetration `P(C,C)` (ordered-pair sum, unweighted).
    pub penetration_intra: f64,
    /// Cross-layer penetration `P(C,C')` (unweighted).
    pub penetration_cross: f64,
    /// Altitude `A(C)` (unweighted).
    pub altitude: f64,
    /// Exterior distance `E_H` (unweighted).
    pub exterior: f64,
    /// The weighted total `Z(C)`.
    pub total: f64,
}

/// Resolved per-evaluation pair sources.
enum PairPlan<'w> {
    /// Exhaustive intra and cross scans ([`NeighborStrategy::Naive`]).
    Naive,
    /// Both pair terms walk the workspace's Verlet lists; the SIMD
    /// kernel's exterior term walks their wall lists too.
    Verlet(&'w VerletLists),
}

/// One batch's objective: borrows the batch radii, the fixed bed and the
/// container planes for the duration of a batch optimization.
pub struct Objective<'a> {
    weights: ObjectiveWeights,
    axis: Axis,
    halfspaces: &'a HalfSpaceSet,
    /// Lane-padded plane columns for the SIMD all-planes loop.
    plane_soa: PlaneSoa,
    radii: &'a [f64],
    fixed: &'a CsrGrid,
    strategy: NeighborStrategy,
    skin: f64,
    kernel: Kernel,
}

impl<'a> Objective<'a> {
    /// Creates the objective for a batch with the given radii.
    ///
    /// The neighbor strategy defaults to [`NeighborStrategy::Verlet`] with
    /// the packer's skin, [`neighbor::skin_for`] of the batch radii.
    pub fn new(
        weights: ObjectiveWeights,
        axis: Axis,
        halfspaces: &'a HalfSpaceSet,
        radii: &'a [f64],
        fixed: &'a CsrGrid,
    ) -> Objective<'a> {
        weights.validate();
        Objective {
            weights,
            axis,
            halfspaces,
            plane_soa: PlaneSoa::new(halfspaces),
            radii,
            fixed,
            strategy: NeighborStrategy::Verlet,
            skin: neighbor::skin_for(radii),
            kernel: Kernel::default(),
        }
    }

    /// Selects the arithmetic kernel for the hot loops. The scalar oracle
    /// and the SIMD kernel produce bitwise identical results (same
    /// candidate order, same IEEE sequence per element).
    pub fn with_kernel(mut self, kernel: Kernel) -> Objective<'a> {
        self.kernel = kernel;
        self
    }

    /// The kernel currently selected.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// No-op: the sweep runs in index order. Kept only for the frozen
    /// benchmark's call; delete it in the next benchmark change.
    #[doc(hidden)]
    pub fn with_order(self, _order: SweepOrder) -> Objective<'a> {
        self
    }

    /// Selects the neighbor pipeline and Verlet skin (absolute length;
    /// ignored when no Verlet lists are built). The skin changes speed
    /// only, never a bit of the result. Panics on a non-positive skin.
    pub fn with_neighbor(mut self, strategy: NeighborStrategy, skin: f64) -> Objective<'a> {
        assert!(
            skin > 0.0 && skin.is_finite(),
            "skin must be positive, got {skin}"
        );
        self.strategy = strategy;
        self.skin = skin;
        self
    }

    /// The Verlet skin currently configured.
    pub fn skin(&self) -> f64 {
        self.skin
    }

    /// Number of batch particles.
    pub fn n(&self) -> usize {
        self.radii.len()
    }

    /// Evaluates `Z(C)` (convenience; allocates a throwaway workspace and
    /// gradient buffer — hot paths use [`Self::value_and_grad_ws`]).
    pub fn value(&self, c: &[f64]) -> f64 {
        let mut grad = vec![0.0; c.len()];
        self.value_and_grad(c, &mut grad)
    }

    /// Evaluates `Z(C)` and writes `∂Z/∂C` into `grad` (convenience;
    /// allocates a throwaway workspace — hot paths use
    /// [`Self::value_and_grad_ws`]).
    pub fn value_and_grad(&self, c: &[f64], grad: &mut [f64]) -> f64 {
        let mut ws = Workspace::new();
        self.value_and_grad_ws(c, grad, &mut ws)
    }

    /// Evaluates `Z(C)` and writes `∂Z/∂C` into `grad` (overwritten),
    /// reusing the workspace's buffers: the steady-state step path performs
    /// zero heap allocation.
    ///
    /// Cost: one fused pair scan. Deterministic for fixed inputs regardless
    /// of the thread count.
    pub fn value_and_grad_ws(&self, c: &[f64], grad: &mut [f64], ws: &mut Workspace) -> f64 {
        self.evaluate::<f64>(c, grad, ws).0
    }

    /// Traced evaluation: value, gradient **and** the unweighted term
    /// breakdown from the same single neighbor traversal.
    ///
    /// The returned loss is bitwise identical to what
    /// [`Self::value_and_grad_ws`] computes for the same inputs: both run
    /// the same body, and recording only adds separate accumulators, never
    /// reorders the value ops.
    pub fn value_grad_breakdown_ws(
        &self,
        c: &[f64],
        grad: &mut [f64],
        ws: &mut Workspace,
    ) -> (f64, ObjectiveBreakdown) {
        self.evaluate::<ObjectiveBreakdown>(c, grad, ws)
    }

    /// The one evaluation body behind both workspace entry points. The
    /// per-particle slot type `P` decides whether the term breakdown is
    /// recorded; everything else — plan, kernel, reduction order — is
    /// shared.
    fn evaluate<P: Partial>(
        &self,
        c: &[f64],
        grad: &mut [f64],
        ws: &mut Workspace,
    ) -> (f64, ObjectiveBreakdown) {
        let n = self.radii.len();
        assert_eq!(c.len(), 3 * n, "coordinate buffer size mismatch");
        assert_eq!(grad.len(), 3 * n, "gradient buffer size mismatch");
        let Workspace {
            values,
            breakdowns,
            batch_grid,
            positions,
            verlet,
            evals,
            soa,
        } = ws;
        *evals += 1;
        EVALS_TOTAL.inc();
        let slots = P::slots(values, breakdowns);
        slots.clear();
        slots.resize(n, P::default());
        if self.kernel == Kernel::Simd {
            // The scalar oracle reads the interleaved buffer directly.
            soa.refresh(c, self.radii);
        }
        let plan = self.plan(c, batch_grid, positions, verlet);
        let soa = &*soa;
        let _span = adampack_telemetry::span(match self.kernel {
            Kernel::Simd => Phase::KernelSimd,
            Kernel::Scalar => Phase::KernelScalar,
        });
        par::for_each_chunk_zip(grad, 3, slots, KERNEL_GRAIN, |i, gslot, slot| {
            let (g, partial) = P::term(self, i, c, &plan, soa);
            gslot[0] = g.x;
            gslot[1] = g.y;
            gslot[2] = g.z;
            *slot = partial;
        });
        // Sequential reduction keeps the result bitwise-deterministic.
        let (total, sum) = P::reduce(slots);
        if failpoints::should_fail("core.objective.eval") {
            return (f64::NAN, sum);
        }
        (total, sum)
    }

    /// Refreshes the workspace structures the strategy needs and returns
    /// the pair plan for this evaluation.
    fn plan<'w>(
        &self,
        c: &[f64],
        batch_grid: &'w mut CsrGrid,
        positions: &'w mut Vec<Vec3>,
        verlet: &'w mut VerletLists,
    ) -> PairPlan<'w> {
        if self.strategy == NeighborStrategy::Naive {
            return PairPlan::Naive;
        }
        if verlet.skin() != self.skin || verlet.needs_rebuild(c) {
            verlet.rebuild(
                c,
                self.radii,
                self.fixed,
                self.halfspaces.planes(),
                self.skin,
                batch_grid,
                positions,
            );
        }
        PairPlan::Verlet(verlet)
    }

    /// Particle `i`'s contribution `(vᵢ, ∂Z/∂cᵢ)` to the objective, through
    /// the selected kernel. With `RECORD` the unweighted term magnitudes
    /// are accumulated into a breakdown alongside the value — as *extra*
    /// accumulators only, so the value/gradient FP sequence is identical to
    /// the non-recording instantiation. `breakdown.total` is left 0.
    #[inline]
    fn particle_term<const RECORD: bool>(
        &self,
        i: usize,
        c: &[f64],
        plan: &PairPlan,
        soa: &SoaCoords,
    ) -> (f64, Vec3, ObjectiveBreakdown) {
        match self.kernel {
            Kernel::Simd => self.particle_term_simd::<RECORD>(i, plan, soa),
            Kernel::Scalar => self.particle_term_scalar::<RECORD>(i, c, plan),
        }
    }

    /// Scalar per-particle kernel (the oracle): tests `d² < sum_r²` per
    /// candidate and only pays the `sqrt` for actual hits.
    #[inline]
    fn particle_term_scalar<const RECORD: bool>(
        &self,
        i: usize,
        c: &[f64],
        plan: &PairPlan,
    ) -> (f64, Vec3, ObjectiveBreakdown) {
        let ObjectiveWeights { alpha, beta, gamma } = self.weights;
        let ci = coords::get(c, i);
        let ri = self.radii[i];
        let mut v = 0.0;
        let mut g = Vec3::ZERO;
        let mut b = ObjectiveBreakdown::default();

        // Intra-batch penetration: row i of the ordered pair sum. Summing
        // rows reproduces the full ordered total; the gradient of that
        // total w.r.t. cᵢ collects both (i,j) and (j,i), hence the factor 2.
        let mut intra_term = |j: usize| {
            if j == i {
                return;
            }
            let cj = coords::get(c, j);
            let sum_r = ri + self.radii[j];
            let d_sq = ci.distance_sq(cj);
            if d_sq < sum_r * sum_r {
                let d = d_sq.sqrt();
                v += alpha * (sum_r - d);
                if RECORD {
                    b.penetration_intra += sum_r - d;
                }
                // p_ij = sum_r − ‖cᵢ−cⱼ‖ ⇒ ∂p/∂cᵢ = −dir.
                g -= pair_direction(ci, cj, d, i, j) * (2.0 * alpha);
            }
        };
        match plan {
            PairPlan::Verlet(lists) => lists
                .row(i)
                .intra
                .iter()
                .for_each(|&j| intra_term(j as usize)),
            PairPlan::Naive => (0..self.radii.len()).for_each(intra_term),
        }

        // Cross-layer penetration against the fixed bed (each pair counted
        // once; only batch coordinates carry gradient).
        let mut cross_term = |k: usize| {
            let (cf, rf) = self.fixed.sphere(k);
            let sum_r = ri + rf;
            let d_sq = ci.distance_sq(cf);
            if d_sq < sum_r * sum_r {
                let d = d_sq.sqrt();
                v += alpha * (sum_r - d);
                if RECORD {
                    b.penetration_cross += sum_r - d;
                }
                g -= pair_direction(ci, cf, d, i, usize::MAX) * alpha;
            }
        };
        match plan {
            PairPlan::Verlet(lists) => lists
                .row(i)
                .cross
                .iter()
                .for_each(|&k| cross_term(k as usize)),
            PairPlan::Naive => (0..self.fixed.len()).for_each(cross_term),
        }

        // Exterior distance over every container plane.
        kernels::planes_scalar::<RECORD>(
            ci,
            ri,
            gamma,
            self.halfspaces.planes(),
            &mut v,
            &mut g,
            &mut b.exterior,
        );

        // Altitude.
        let altitude = self.axis.altitude(ci);
        v += beta * altitude;
        if RECORD {
            b.altitude += altitude;
        }
        g += self.axis.up() * beta;

        (v, g, b)
    }

    /// SIMD per-particle kernel: walks the same candidate rows in the same
    /// order as the scalar oracle but tests four candidates at a time with
    /// a branchless `d² < (rᵢ+rⱼ)²` rejection; hit lanes fall through to
    /// the exact scalar hot-pair body in lane order. Under the Verlet plan
    /// the exterior term visits only the sphere's listed planes (every
    /// unlisted plane has a negative excess until the next rebuild). The
    /// output is bitwise identical to [`Self::particle_term_scalar`].
    #[inline]
    fn particle_term_simd<const RECORD: bool>(
        &self,
        i: usize,
        plan: &PairPlan,
        soa: &SoaCoords,
    ) -> (f64, Vec3, ObjectiveBreakdown) {
        let ObjectiveWeights { alpha, beta, gamma } = self.weights;
        let ci = soa.point(i);
        let ri = self.radii[i];
        let mut v = 0.0;
        let mut g = Vec3::ZERO;
        let mut b = ObjectiveBreakdown::default();
        let bed = FixedView {
            centers: self.fixed.centers(),
            radii: self.fixed.radii(),
        };

        if let PairPlan::Verlet(lists) = plan {
            let row = lists.row(i);
            kernels::pairs_sparse::<SoaCoords, RECORD, true>(
                ci,
                ri,
                i,
                alpha,
                row.intra,
                soa,
                &mut v,
                &mut g,
                &mut b.penetration_intra,
            );
            kernels::pairs_sparse::<FixedView, RECORD, false>(
                ci,
                ri,
                i,
                alpha,
                row.cross,
                &bed,
                &mut v,
                &mut g,
                &mut b.penetration_cross,
            );
            let planes = self.halfspaces.planes();
            kernels::planes_scalar::<RECORD>(
                ci,
                ri,
                gamma,
                row.walls.iter().map(|&k| &planes[k as usize]),
                &mut v,
                &mut g,
                &mut b.exterior,
            );
        } else {
            kernels::pairs_dense::<RECORD>(
                ci,
                ri,
                i,
                alpha,
                soa,
                &mut v,
                &mut g,
                &mut b.penetration_intra,
            );
            kernels::pairs_range::<FixedView, RECORD, false>(
                ci,
                ri,
                i,
                alpha,
                self.fixed.len(),
                &bed,
                &mut v,
                &mut g,
                &mut b.penetration_cross,
            );
            kernels::planes_term::<RECORD>(
                ci,
                ri,
                gamma,
                &self.plane_soa,
                &mut v,
                &mut g,
                &mut b.exterior,
            );
        }

        let altitude = self.axis.altitude(ci);
        v += beta * altitude;
        if RECORD {
            b.altitude += altitude;
        }
        g += self.axis.up() * beta;

        (v, g, b)
    }
}

/// A per-particle partial-result slot of [`Objective::evaluate`]: the
/// value alone (`f64`, untraced) or the value with its term breakdown
/// ([`ObjectiveBreakdown`], traced). Picks the workspace buffer, the
/// recording instantiation of the kernels and the sequential reduction.
trait Partial: Copy + Default + Send {
    /// This slot type's scratch vector in the workspace.
    fn slots<'w>(
        values: &'w mut Vec<f64>,
        breakdowns: &'w mut Vec<ObjectiveBreakdown>,
    ) -> &'w mut Vec<Self>;

    /// Particle `i`'s gradient and slot value.
    fn term(obj: &Objective, i: usize, c: &[f64], plan: &PairPlan, soa: &SoaCoords)
        -> (Vec3, Self);

    /// Sequential reduction over slot index: `(Z, summed breakdown)`.
    fn reduce(slots: &[Self]) -> (f64, ObjectiveBreakdown);
}

impl Partial for f64 {
    fn slots<'w>(values: &'w mut Vec<f64>, _: &'w mut Vec<ObjectiveBreakdown>) -> &'w mut Vec<f64> {
        values
    }

    #[inline]
    fn term(obj: &Objective, i: usize, c: &[f64], plan: &PairPlan, soa: &SoaCoords) -> (Vec3, f64) {
        let (v, g, _) = obj.particle_term::<false>(i, c, plan, soa);
        (g, v)
    }

    fn reduce(slots: &[f64]) -> (f64, ObjectiveBreakdown) {
        (slots.iter().sum(), ObjectiveBreakdown::default())
    }
}

impl Partial for ObjectiveBreakdown {
    fn slots<'w>(
        _: &'w mut Vec<f64>,
        breakdowns: &'w mut Vec<ObjectiveBreakdown>,
    ) -> &'w mut Vec<ObjectiveBreakdown> {
        breakdowns
    }

    #[inline]
    fn term(
        obj: &Objective,
        i: usize,
        c: &[f64],
        plan: &PairPlan,
        soa: &SoaCoords,
    ) -> (Vec3, ObjectiveBreakdown) {
        let (v, g, mut b) = obj.particle_term::<true>(i, c, plan, soa);
        b.total = v;
        (g, b)
    }

    /// Every field sums sequentially; `total` sums the exact per-particle
    /// values the untraced path reduces, in the same order.
    fn reduce(slots: &[ObjectiveBreakdown]) -> (f64, ObjectiveBreakdown) {
        let mut sum = ObjectiveBreakdown::default();
        for b in slots {
            sum.penetration_intra += b.penetration_intra;
            sum.penetration_cross += b.penetration_cross;
            sum.altitude += b.altitude;
            sum.exterior += b.exterior;
            sum.total += b.total;
        }
        (sum.total, sum)
    }
}

/// Unit direction from `cj` towards `ci`, with a deterministic fallback when
/// the centres (nearly) coincide — the gradient of `‖cᵢ−cⱼ‖` is undefined
/// there, and returning NaN would poison the optimizer state.
#[inline]
pub(crate) fn pair_direction(ci: Vec3, cj: Vec3, d: f64, i: usize, j: usize) -> Vec3 {
    if d > 1e-12 {
        (ci - cj) / d
    } else {
        // Deterministic pseudo-random unit vector from the indices.
        let h = (i as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((j as u64).wrapping_mul(0xBF58476D1CE4E5B9));
        let theta = (h >> 40) as f64 / (1u64 << 24) as f64 * std::f64::consts::TAU;
        let zfrac = ((h >> 16) & 0xFFFFFF) as f64 / (1u64 << 24) as f64;
        let z = 2.0 * zfrac - 1.0;
        let s = (1.0 - z * z).max(0.0).sqrt();
        Vec3::new(s * theta.cos(), s * theta.sin(), z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adampack_geometry::{shapes, ConvexHull};

    fn box_halfspaces() -> HalfSpaceSet {
        ConvexHull::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0)))
            .unwrap()
            .halfspaces()
            .clone()
    }

    fn objective_value(
        hs: &HalfSpaceSet,
        radii: &[f64],
        fixed: &CsrGrid,
        c: &[f64],
        w: ObjectiveWeights,
    ) -> f64 {
        Objective::new(w, Axis::Z, hs, radii, fixed).value(c)
    }

    #[test]
    fn isolated_interior_sphere_feels_only_gravity() {
        let hs = box_halfspaces();
        let fixed = CsrGrid::empty();
        let radii = [0.1];
        let obj = Objective::new(ObjectiveWeights::default(), Axis::Z, &hs, &radii, &fixed);
        let c = [0.0, 0.0, 0.3];
        let mut grad = vec![0.0; 3];
        let v = obj.value_and_grad(&c, &mut grad);
        // Z = β·z = 10 · 0.3.
        assert!((v - 3.0).abs() < 1e-12, "v = {v}");
        assert_eq!(&grad[..2], &[0.0, 0.0]);
        assert!((grad[2] - 10.0).abs() < 1e-12);
        let (_, b) = obj.value_grad_breakdown_ws(&c, &mut grad, &mut Workspace::new());
        assert_eq!(b.penetration_intra, 0.0);
        assert_eq!(b.penetration_cross, 0.0);
        assert_eq!(b.exterior, 0.0);
        assert!((b.altitude - 0.3).abs() < 1e-15);
        assert!((b.total - v).abs() < 1e-12);
    }

    #[test]
    fn overlapping_pair_value_counts_ordered_pairs() {
        let hs = box_halfspaces();
        let fixed = CsrGrid::empty();
        let radii = [0.3, 0.3];
        let w = ObjectiveWeights {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
        };
        // Distance 0.4 < 0.6: penetration 0.2 per ordered pair ⇒ P = 0.4.
        let c = [0.0, 0.0, 0.0, 0.4, 0.0, 0.0];
        let v = objective_value(&hs, &radii, &fixed, &c, w);
        assert!((v - 0.4).abs() < 1e-12, "v = {v}");
    }

    #[test]
    fn pair_gradient_pushes_apart() {
        let hs = box_halfspaces();
        let fixed = CsrGrid::empty();
        let radii = [0.3, 0.3];
        let w = ObjectiveWeights {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
        };
        let obj = Objective::new(w, Axis::Z, &hs, &radii, &fixed);
        let c = [0.0, 0.0, 0.0, 0.4, 0.0, 0.0];
        let mut grad = vec![0.0; 6];
        obj.value_and_grad(&c, &mut grad);
        // dZ/dc0x = 2α·(−dir_x) with dir = (c0−c1)/d = (−1,0,0) ⇒ +2.
        assert!((grad[0] - 2.0).abs() < 1e-12, "grad = {grad:?}");
        assert!((grad[3] + 2.0).abs() < 1e-12);
        // Descent direction separates the pair.
        assert!(grad[0] > 0.0 && grad[3] < 0.0);
        assert_eq!(grad[1], 0.0);
    }

    #[test]
    fn cross_term_counts_each_pair_once() {
        let hs = box_halfspaces();
        let fixed = CsrGrid::build(&[Vec3::ZERO], &[0.3]);
        let radii = [0.3];
        let w = ObjectiveWeights {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
        };
        // Batch sphere at distance 0.4 from fixed sphere: penetration 0.2,
        // counted once.
        let c = [0.4, 0.0, 0.0];
        let v = objective_value(&hs, &radii, &fixed, &c, w);
        assert!((v - 0.2).abs() < 1e-12, "v = {v}");
        // Gradient magnitude α (no factor 2 for cross pairs).
        let obj = Objective::new(w, Axis::Z, &hs, &radii, &fixed);
        let mut grad = vec![0.0; 3];
        obj.value_and_grad(&c, &mut grad);
        assert!((grad[0] + 1.0).abs() < 1e-12, "grad = {grad:?}");
    }

    /// A three-sphere batch runs on Verlet lists like any other, and its
    /// lists match the naive oracle bit for bit.
    #[test]
    fn small_batch_plan_matches_naive() {
        let hs = box_halfspaces();
        let mut centers = Vec::new();
        let mut radii_fixed = Vec::new();
        // A small bed of fixed spheres.
        for i in 0..5 {
            for j in 0..5 {
                centers.push(Vec3::new(
                    -0.8 + 0.4 * i as f64,
                    -0.8 + 0.4 * j as f64,
                    -0.8,
                ));
                radii_fixed.push(0.2);
            }
        }
        let fixed = CsrGrid::build(&centers, &radii_fixed);
        let radii = [0.25, 0.15, 0.3];
        let c = [
            0.1, 0.0, -0.55, //
            -0.5, 0.4, -0.6, //
            0.7, -0.7, -0.5,
        ];
        let w = ObjectiveWeights::default();
        let lists_obj = Objective::new(w, Axis::Z, &hs, &radii, &fixed);
        let naive_obj = Objective::new(w, Axis::Z, &hs, &radii, &fixed)
            .with_neighbor(NeighborStrategy::Naive, 0.05);
        let mut ws = Workspace::new();
        let mut g1 = vec![0.0; 9];
        let mut g2 = vec![0.0; 9];
        let v1 = lists_obj.value_and_grad_ws(&c, &mut g1, &mut ws);
        let v2 = naive_obj.value_and_grad(&c, &mut g2);
        assert_eq!(ws.verlet_rebuilds(), 1, "the lists serve every batch size");
        assert_eq!(v1.to_bits(), v2.to_bits(), "{v1} vs {v2}");
        for (a, b) in g1.iter().zip(&g2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn verlet_matches_naive_value_and_gradient() {
        let hs = box_halfspaces();
        // A bed plus a crowded batch so all terms fire.
        let mut bed_centers = Vec::new();
        let mut bed_radii = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                bed_centers.push(Vec3::new(
                    -0.75 + 0.3 * i as f64,
                    -0.75 + 0.3 * j as f64,
                    -0.8,
                ));
                bed_radii.push(0.16);
            }
        }
        let fixed = CsrGrid::build(&bed_centers, &bed_radii);
        let n = 80;
        let radii: Vec<f64> = (0..n).map(|i| 0.08 + 0.002 * (i % 7) as f64).collect();
        let mut c = Vec::with_capacity(3 * n);
        for i in 0..n {
            let t = i as f64 * 0.61803398875;
            c.extend_from_slice(&[
                (t % 1.4) - 0.7,
                ((t * 1.7) % 1.4) - 0.7,
                ((t * 2.3) % 1.2) - 0.75,
            ]);
        }
        let w = ObjectiveWeights::default();
        let naive = Objective::new(w, Axis::Z, &hs, &radii, &fixed)
            .with_neighbor(NeighborStrategy::Naive, 0.05);
        let verlet = Objective::new(w, Axis::Z, &hs, &radii, &fixed)
            .with_neighbor(NeighborStrategy::Verlet, 0.05);
        let mut ws = Workspace::new();
        let mut g1 = vec![0.0; 3 * n];
        let mut g2 = vec![0.0; 3 * n];
        let v1 = naive.value_and_grad(&c, &mut g1);
        let v2 = verlet.value_and_grad_ws(&c, &mut g2, &mut ws);
        // Rows in index order: the lists are an exact oracle of the scan.
        assert_eq!(v1.to_bits(), v2.to_bits(), "{v1} vs {v2}");
        for (k, (a, b)) in g1.iter().zip(&g2).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "grad[{k}]");
        }
        // Small moves reuse the lists; values still agree bit for bit.
        let mut moved = c.clone();
        for (k, v) in moved.iter_mut().enumerate() {
            *v += 0.002 * ((k % 5) as f64 - 2.0);
        }
        let v1 = naive.value_and_grad(&moved, &mut g1);
        let v2 = verlet.value_and_grad_ws(&moved, &mut g2, &mut ws);
        assert_eq!(ws.verlet_rebuilds(), 1, "small move must not rebuild");
        assert_eq!(v1.to_bits(), v2.to_bits(), "{v1} vs {v2}");
        for (k, (a, b)) in g1.iter().zip(&g2).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "moved grad[{k}]");
        }
    }

    /// The central contract of the vectorized kernel layer: for every
    /// neighbor pipeline, the SIMD kernel's value, gradient and traced
    /// breakdown are **bitwise** identical to the scalar kernel's.
    #[test]
    fn simd_kernel_matches_scalar_bitwise_across_strategies() {
        let hs = box_halfspaces();
        let mut bed_centers = Vec::new();
        let mut bed_radii = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                bed_centers.push(Vec3::new(
                    -0.75 + 0.3 * i as f64,
                    -0.75 + 0.3 * j as f64,
                    -0.8,
                ));
                bed_radii.push(0.16);
            }
        }
        let fixed = CsrGrid::build(&bed_centers, &bed_radii);
        let w = ObjectiveWeights::default();
        // A small and a large batch: lists at every batch size.
        for (n, strategy) in [
            (20, NeighborStrategy::Verlet),
            (90, NeighborStrategy::Naive),
            (90, NeighborStrategy::Verlet),
        ] {
            let radii: Vec<f64> = (0..n).map(|i| 0.08 + 0.002 * (i % 7) as f64).collect();
            let mut c = Vec::with_capacity(3 * n);
            for i in 0..n {
                let t = i as f64 * 0.61803398875;
                c.extend_from_slice(&[
                    (t % 1.4) - 0.7,
                    ((t * 1.7) % 1.4) - 0.7,
                    ((t * 2.3) % 1.2) - 0.75,
                ]);
            }
            let scalar = Objective::new(w, Axis::Z, &hs, &radii, &fixed)
                .with_neighbor(strategy, 0.05)
                .with_kernel(Kernel::Scalar);
            let simd = Objective::new(w, Axis::Z, &hs, &radii, &fixed)
                .with_neighbor(strategy, 0.05)
                .with_kernel(Kernel::Simd);
            let mut ws_s = Workspace::new();
            let mut ws_v = Workspace::new();
            let mut gs = vec![0.0; 3 * n];
            let mut gv = vec![0.0; 3 * n];
            let (vs, bs) = scalar.value_grad_breakdown_ws(&c, &mut gs, &mut ws_s);
            let (vv, bv) = simd.value_grad_breakdown_ws(&c, &mut gv, &mut ws_v);
            assert_eq!(vs.to_bits(), vv.to_bits(), "{strategy:?} value");
            for (k, (a, b)) in gs.iter().zip(&gv).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{strategy:?} grad[{k}]");
            }
            for (name, a, b) in [
                ("intra", bs.penetration_intra, bv.penetration_intra),
                ("cross", bs.penetration_cross, bv.penetration_cross),
                ("altitude", bs.altitude, bv.altitude),
                ("exterior", bs.exterior, bv.exterior),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "{strategy:?} breakdown {name}");
            }
        }
    }

    #[test]
    fn traced_and_untraced_entry_points_agree_bitwise() {
        let hs = box_halfspaces();
        let fixed = CsrGrid::build(&[Vec3::new(0.0, 0.0, -0.7)], &[0.25]);
        let radii = [0.3, 0.25];
        let c = [0.1, 0.05, -0.45, 0.35, 0.1, -0.3];
        let obj = Objective::new(ObjectiveWeights::default(), Axis::Z, &hs, &radii, &fixed);
        let mut ws = Workspace::new();
        let (mut g1, mut g2) = (vec![0.0; 6], vec![0.0; 6]);
        let v1 = obj.value_and_grad_ws(&c, &mut g1, &mut ws);
        let (v2, b) = obj.value_grad_breakdown_ws(&c, &mut g2, &mut ws);
        assert_eq!(v1.to_bits(), v2.to_bits());
        assert_eq!(b.total.to_bits(), v2.to_bits());
        assert_eq!(obj.value(&c).to_bits(), v1.to_bits());
        for (a, b) in g1.iter().zip(&g2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(ws.evals(), 2);
        assert!(b.penetration_intra > 0.0 && b.penetration_cross > 0.0);
    }

    /// Every pair plan reports the same term breakdown, bit for bit, and
    /// the weighted terms add up to the total.
    #[test]
    fn breakdown_agrees_across_pair_plans() {
        let hs = box_halfspaces();
        let mut centers = Vec::new();
        let mut bed_radii = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                centers.push(Vec3::new(
                    -0.6 + 0.4 * i as f64,
                    -0.6 + 0.4 * j as f64,
                    -0.8,
                ));
                bed_radii.push(0.2);
            }
        }
        let fixed = CsrGrid::build(&centers, &bed_radii);
        let radii: Vec<f64> = vec![0.15; 20];
        let mut c = Vec::new();
        for i in 0..20 {
            let t = i as f64 * 0.37;
            c.extend_from_slice(&[(t % 1.2) - 0.6, ((t * 1.9) % 1.2) - 0.6, -0.55]);
        }
        let w = ObjectiveWeights::default();
        let breakdown = |strategy| {
            let mut grad = vec![0.0; c.len()];
            Objective::new(w, Axis::Z, &hs, &radii, &fixed)
                .with_neighbor(strategy, 0.05)
                .value_grad_breakdown_ws(&c, &mut grad, &mut Workspace::new())
                .1
        };
        let reference = breakdown(NeighborStrategy::Naive);
        assert!(reference.penetration_intra > 0.0);
        assert!(reference.penetration_cross > 0.0);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9 * a.abs().max(1.0);
        let weighted = w.alpha * (reference.penetration_intra + reference.penetration_cross)
            + w.beta * reference.altitude
            + w.gamma * reference.exterior;
        assert!(close(weighted, reference.total));
        assert_eq!(breakdown(NeighborStrategy::Verlet), reference);
    }

    #[test]
    fn exterior_term_matches_plane_excess() {
        let hs = box_halfspaces();
        let fixed = CsrGrid::empty();
        let radii = [0.5];
        let w = ObjectiveWeights {
            alpha: 0.0,
            beta: 0.0,
            gamma: 1.0,
        };
        // Sphere centred at x = 0.8 with r = 0.5 pokes 0.3 out of x = 1.
        let c = [0.8, 0.0, 0.0];
        let v = objective_value(&hs, &radii, &fixed, &c, w);
        assert!((v - 0.3).abs() < 1e-12, "v = {v}");
        // Gradient points along the +x outward normal.
        let obj = Objective::new(w, Axis::Z, &hs, &radii, &fixed);
        let mut grad = vec![0.0; 3];
        obj.value_and_grad(&c, &mut grad);
        assert!((grad[0] - 1.0).abs() < 1e-12);
        assert_eq!(grad[1], 0.0);
        assert_eq!(grad[2], 0.0);
    }

    #[test]
    fn sphere_out_of_corner_accumulates_all_planes() {
        let hs = box_halfspaces();
        let fixed = CsrGrid::empty();
        let radii = [0.5];
        let w = ObjectiveWeights {
            alpha: 0.0,
            beta: 0.0,
            gamma: 1.0,
        };
        // Poking out of three faces at once near the (+,+,+) corner.
        let c = [0.8, 0.9, 0.95];
        let v = objective_value(&hs, &radii, &fixed, &c, w);
        assert!((v - (0.3 + 0.4 + 0.45)).abs() < 1e-12, "v = {v}");
    }

    #[test]
    fn coincident_centers_get_finite_separating_gradient() {
        let hs = box_halfspaces();
        let fixed = CsrGrid::empty();
        let radii = [0.2, 0.2];
        let obj = Objective::new(ObjectiveWeights::default(), Axis::Z, &hs, &radii, &fixed);
        let c = [0.1, 0.1, 0.1, 0.1, 0.1, 0.1];
        let mut grad = vec![0.0; 6];
        let v = obj.value_and_grad(&c, &mut grad);
        assert!(v.is_finite());
        assert!(grad.iter().all(|g| g.is_finite()));
        // Some separating force exists.
        let g0 = Vec3::new(grad[0], grad[1], grad[2] - 10.0); // remove gravity part
        assert!(
            g0.norm() > 1.0,
            "expected a separating gradient, got {grad:?}"
        );
    }

    #[test]
    fn altitude_respects_custom_axis() {
        let hs = box_halfspaces();
        let fixed = CsrGrid::empty();
        let radii = [0.1];
        let axis = Axis::from_vector(Vec3::new(1.0, 0.0, 0.0)).unwrap();
        let w = ObjectiveWeights {
            alpha: 0.0,
            beta: 1.0,
            gamma: 0.0,
        };
        let obj = Objective::new(w, axis, &hs, &radii, &fixed);
        let c = [0.4, 0.0, 0.0];
        let mut grad = vec![0.0; 3];
        let v = obj.value_and_grad(&c, &mut grad);
        assert!((v - 0.4).abs() < 1e-12);
        assert!((grad[0] - 1.0).abs() < 1e-12);
        assert_eq!(grad[2], 0.0);
    }

    #[test]
    fn gradient_matches_finite_differences_on_random_config() {
        // Dense little configuration exercising all four terms at once.
        let hs = box_halfspaces();
        let fixed = CsrGrid::build(
            &[Vec3::new(0.0, 0.0, -0.7), Vec3::new(0.3, 0.1, -0.6)],
            &[0.25, 0.2],
        );
        let radii = [0.3, 0.25, 0.35];
        let w = ObjectiveWeights::default();
        let c = vec![
            0.1, 0.05, -0.45, // overlaps fixed bed
            0.35, 0.1, -0.3, // overlaps particle 0
            0.85, 0.8, 0.9, // pokes out of the corner
        ];
        let obj = Objective::new(w, Axis::Z, &hs, &radii, &fixed);
        let mut grad = vec![0.0; 9];
        obj.value_and_grad(&c, &mut grad);

        let f = |x: &[f64]| Objective::new(w, Axis::Z, &hs, &radii, &fixed).value(x);
        for i in 0..9 {
            let h = 1e-7;
            let mut xp = c.clone();
            let mut xm = c.clone();
            xp[i] += h;
            xm[i] -= h;
            let num = (f(&xp) - f(&xm)) / (2.0 * h);
            assert!(
                (num - grad[i]).abs() < 1e-4 * grad[i].abs().max(1.0),
                "coord {i}: numeric {num} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn value_is_deterministic_across_calls() {
        let hs = box_halfspaces();
        let fixed = CsrGrid::empty();
        let radii: Vec<f64> = (0..40).map(|i| 0.1 + 0.001 * i as f64).collect();
        let c: Vec<f64> = (0..120)
            .map(|i| ((i * 2654435761_usize) % 1000) as f64 / 1000.0 - 0.5)
            .collect();
        let obj = Objective::new(ObjectiveWeights::default(), Axis::Z, &hs, &radii, &fixed);
        let v1 = obj.value(&c);
        let v2 = obj.value(&c);
        assert_eq!(v1.to_bits(), v2.to_bits(), "bitwise determinism");
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn buffer_size_checked() {
        let hs = box_halfspaces();
        let fixed = CsrGrid::empty();
        let radii = [0.1, 0.1];
        let obj = Objective::new(ObjectiveWeights::default(), Axis::Z, &hs, &radii, &fixed);
        let _ = obj.value(&[0.0; 3]);
    }
}
