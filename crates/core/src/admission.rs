//! Pre-admission cost prediction for packing jobs.
//!
//! A service accepting arbitrary user configs must know — *before* any
//! memory is committed — roughly what a job will cost, so hostile or
//! oversized specs are refused at the door instead of OOM-killing a
//! worker halfway through. The predictor mirrors the live
//! `HOT_SET_BYTES` accounting in [`crate::collective`]: the resident hot
//! set is the fixed bed's CSR grid (scaling with the packed count and
//! the cell count) plus the per-batch workspace (scaling with the batch
//! size and its Verlet candidate lists). Constants are deliberately
//! rounded *up* — an admission estimate that errs low defeats its
//! purpose — and the prediction is a pure function of the config, so
//! identical submissions are judged identically.

use crate::container::Container;
use crate::params::PackingParams;
use crate::psd::Psd;

/// Bytes the bed-side structures hold per resident sphere: CSR entry +
/// sort key + scratch (3×u32), center (`Vec3`, 24 B), radius (8 B),
/// plus the retained [`crate::particle::Particle`] record (48 B) and
/// allocator headroom. `128` rounds the measured ~90 B up.
const BYTES_PER_RESIDENT_SPHERE: u64 = 128;

/// Bytes the workspace holds per batch particle: SoA coordinate columns
/// (32 B), positions (24 B), objective values/breakdowns
/// (~48 B), optimizer moments (48 B), and the
/// Verlet candidate lists, which dominate — a dense batch sees tens of
/// candidates per particle at 4 B each. `512` bounds all of it.
const BYTES_PER_BATCH_SLOT: u64 = 512;

/// Bytes per CSR grid cell (`cell_start` u32, rounded up for the halo).
const BYTES_PER_GRID_CELL: u64 = 8;

/// Fixed overhead independent of the job: plane SoA, histograms, ring
/// buffers, thread scratch.
const BASE_BYTES: u64 = 4 * 1024 * 1024;

/// Predicted resource cost of one packing job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostEstimate {
    /// Predicted peak resident bytes of the hot set (bed grid +
    /// workspace), a conservative upper bound.
    pub peak_bytes: u64,
    /// Upper bound on optimizer steps: `ceil(target / batch) ×
    /// max_steps` (patience usually stops a batch much earlier).
    pub steps: u64,
}

/// Predicts the peak hot-set bytes and worst-case step count of packing
/// `params.target_count` spheres from `psd` into `container`.
pub fn estimate_cost(container: &Container, params: &PackingParams, psd: &Psd) -> CostEstimate {
    let n = params.target_count.max(1) as u64;

    // Gravity-axis tiling retires settled slabs from the hot grid: the
    // resident count tracks roughly two slabs (the active surface plus
    // one full settled slab kept under it) instead of the total.
    let resident = if params.tiles > 1 {
        let per_slab = n.div_ceil(params.tiles as u64);
        (2 * per_slab).min(n)
    } else {
        n
    };

    // Grid cells: the CSR grid bins at a cell pitch of one interaction
    // diameter; bound the cell count by the container AABB. Tiny radii
    // in a big container make this the dominant term, exactly the spec
    // shape that must be caught at admission.
    let aabb = container.aabb();
    let ext = aabb.max - aabb.min;
    let cell = (2.0 * psd.max_radius()).max(1e-9);
    let cells_f = (ext.x / cell).ceil().max(1.0)
        * (ext.y / cell).ceil().max(1.0)
        * (ext.z / cell).ceil().max(1.0);
    // Saturate instead of overflowing on absurd inputs (1 km box, µm
    // grains): the point is a huge number that trips the budget check.
    let cells = if cells_f.is_finite() && cells_f < u64::MAX as f64 {
        cells_f as u64
    } else {
        u64::MAX / BYTES_PER_GRID_CELL
    };

    let batch = params.batch_size.max(1) as u64;
    let peak_bytes = BASE_BYTES
        .saturating_add(resident.saturating_mul(BYTES_PER_RESIDENT_SPHERE))
        .saturating_add(cells.saturating_mul(BYTES_PER_GRID_CELL))
        .saturating_add(batch.saturating_mul(BYTES_PER_BATCH_SLOT));

    let batches = n.div_ceil(batch);
    let steps = batches.saturating_mul(params.max_steps.max(1) as u64);

    CostEstimate { peak_bytes, steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adampack_geometry::{shapes, Vec3};

    fn box_container(side: f64) -> Container {
        let mesh = shapes::box_mesh(Vec3::ZERO, Vec3::splat(side));
        Container::from_mesh(&mesh).unwrap()
    }

    #[test]
    fn estimate_grows_with_target_count_and_shrinks_with_tiles() {
        let c = box_container(1.0);
        let psd = Psd::constant(0.05);
        let small = PackingParams {
            target_count: 1_000,
            ..PackingParams::default()
        };
        let mut big = small.clone();
        big.target_count = 100_000;
        let a = estimate_cost(&c, &small, &psd);
        let b = estimate_cost(&c, &big, &psd);
        assert!(b.peak_bytes > a.peak_bytes, "{a:?} vs {b:?}");
        assert!(b.steps > a.steps);

        let mut tiled = big.clone();
        tiled.tiles = 8;
        let t = estimate_cost(&c, &tiled, &psd);
        assert!(
            t.peak_bytes < b.peak_bytes,
            "tiling must shrink the prediction: {t:?} vs {b:?}"
        );
        assert_eq!(t.steps, b.steps, "tiling is a memory knob, not a step knob");
    }

    #[test]
    fn tiny_radii_in_a_big_container_explode_the_grid_term() {
        let c = box_container(100.0);
        let psd = Psd::constant(1e-4);
        let p = PackingParams {
            target_count: 1_000,
            ..PackingParams::default()
        };
        let est = estimate_cost(&c, &p, &psd);
        // 100/2e-4 = 5e5 cells per axis → an astronomically large grid;
        // the estimate must be huge (and must not overflow).
        assert!(
            est.peak_bytes > 1 << 40,
            "hostile grid spec must predict enormous memory: {est:?}"
        );
    }

    #[test]
    fn steps_are_the_batch_count_times_max_steps() {
        let c = box_container(1.0);
        let psd = Psd::constant(0.1);
        let p = PackingParams {
            target_count: 1_050,
            batch_size: 500,
            max_steps: 2_000,
            ..PackingParams::default()
        };
        assert_eq!(estimate_cost(&c, &p, &psd).steps, 3 * 2_000);
    }

    #[test]
    fn estimate_is_deterministic() {
        let c = box_container(1.0);
        let psd = Psd::uniform(0.02, 0.05);
        let p = PackingParams::default();
        assert_eq!(estimate_cost(&c, &p, &psd), estimate_cost(&c, &p, &psd));
    }
}
