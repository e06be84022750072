//! The neighbor pipeline: CSR cell grid, Verlet skin lists and the
//! allocation-free step workspace.
//!
//! Three layers serve the optimizer's hot path:
//!
//! 1. [`CsrGrid`] — a flat compressed-sparse-row grid: particles are
//!    counting-sorted into `cell_start`/`entries` over the bounded AABB of
//!    their centers. Queries walk whole x-rows of cells as one contiguous
//!    `entries` slice, so candidate iteration is branch-light, sequential
//!    and allocation-free. [`CsrGrid::push`] supports incremental growth
//!    (the fixed bed gains one batch at a time) through a pending overflow
//!    list with amortized geometric rebinning.
//! 2. [`VerletLists`] — per-particle candidate lists (batch pairs, bed
//!    pairs and container walls) built once with a `skin` of slack in one
//!    parallel pass and reused across optimizer steps. Per-step work drops
//!    to "walk my list"; the lists stay valid until some particle has moved
//!    more than `skin / 2` since the last build (the classic Verlet-list
//!    invariant: two particles approach at most `2 · skin/2`, so no pair
//!    can come into contact without having been a candidate, and a sphere
//!    gains at most `skin/2` of excess on any unit-normal plane).
//! 3. [`Workspace`] — owns every buffer the fused objective kernel and the
//!    list builders need. All of them are grown geometrically and reused,
//!    so steady-state optimizer steps perform **zero heap allocation**
//!    (verified by a counting global allocator in the test suite).
//!
//! Exhaustive scans ([`NeighborStrategy::Naive`]) are the exact oracle:
//! the property suite asserts CSR == brute force on random clouds, and the
//! packing suites assert naive == Verlet bitwise.
//!
//! Determinism: each Verlet row lists its batch and bed candidates in
//! ascending index, the order the naive scans visit them in, so a sphere
//! sums its contacts in one order whatever the skin, the grid geometry or
//! the rebuild schedule. A candidate that does not touch costs no
//! floating-point operation, so only the order of the hits matters.
//! Combined with the objective's one-writer-per-slot gradient layout and
//! sequential value reduction, a fixed seed gives bitwise-identical
//! packings on any thread count, skin and strategy.

use std::sync::atomic::{AtomicU64, Ordering};

use adampack_geometry::{Aabb, Axis, Plane, Vec3};
use rayon::par;

use crate::kernels::SoaCoords;
use crate::objective::ObjectiveBreakdown;
use crate::particle::{coords, Particle};

/// How the objective searches for interacting sphere pairs.
///
/// Both strategies sum each sphere's contacts in ascending index order, so
/// they pack bitwise-identical bytes: the choice is speed only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NeighborStrategy {
    /// Skin-padded Verlet candidate lists rebuilt on demand (fastest).
    #[default]
    Verlet,
    /// Exhaustive O(n²) scans: the exact oracle.
    Naive,
}

impl NeighborStrategy {
    /// Every strategy, in knob order.
    pub const ALL: [NeighborStrategy; 2] = [NeighborStrategy::Verlet, NeighborStrategy::Naive];

    /// Parses the user-facing knob value (`"verlet"` or `"naive"`, any
    /// case; `"auto"` is the historical spelling of `"verlet"`).
    pub fn parse(s: &str) -> Option<NeighborStrategy> {
        if s.eq_ignore_ascii_case("auto") {
            return Some(NeighborStrategy::Verlet);
        }
        NeighborStrategy::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
    }

    /// Canonical knob spelling.
    pub fn name(self) -> &'static str {
        match self {
            NeighborStrategy::Verlet => "verlet",
            NeighborStrategy::Naive => "naive",
        }
    }
}

/// Verlet skin in units of the batch's largest radius. Rows list their
/// candidates in ascending index, so the skin moves only the rebuild rate
/// and the row lengths, never a bit of the packing. Of {0.6, 0.8, 1.0,
/// 1.2}, 1.0 was the one no slower than the others on any packing
/// workload: 1.2 gained on `column_50k` but lost on `furnace_poly`
/// (EXPERIMENTS.md, "one pair order").
pub const SKIN_RADII: f64 = 1.0;

/// The Verlet skin for a batch with these radii: [`SKIN_RADII`] × the
/// largest radius, floored away from zero for empty or point batches.
pub fn skin_for(radii: &[f64]) -> f64 {
    let r_max = radii.iter().copied().fold(0.0, f64::max);
    (SKIN_RADII * r_max).max(1e-9)
}

/// The pair sweep's visit order. Strided (index order) is the only one
/// left; the type survives solely because the frozen benchmark still
/// passes `NeighborParams::order` to `Objective::with_order`. Delete both
/// in the next benchmark change.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepOrder {
    /// Batch particles in index order.
    #[default]
    Strided,
}

/// Cap on the number of grid cells; beyond it the cell edge is scaled up.
/// Bounds memory for sparse clouds spread over a huge AABB.
const MAX_CELLS: usize = 1 << 21;

/// Rebinning threshold for incremental pushes: the pending overflow list
/// is folded into the CSR structure once it exceeds a quarter of the
/// binned population (amortized O(1) per push).
const PENDING_FRACTION: usize = 4;
const PENDING_MIN: usize = 64;

/// Reduction block for AABB / max-radius scans. Fixed (thread-independent)
/// so [`par::map_reduce`] partials have the same shape on any pool width.
const SCAN_BLOCK: usize = 4096;

/// Fewest spheres one job of the grid's cell-key pass takes. A key costs
/// 1–3 ns (2-vCPU Xeon VM), so a batch grid keys inline and only bed
/// rebins of two grains (32 768 spheres) and more split.
pub const KEY_GRAIN: usize = 16_384;

/// Fewest rows one job of a Verlet rebuild fills. A row (batch, bed and
/// wall candidates of one sphere) costs 590–665 ns (2-vCPU Xeon VM,
/// `column_50k`: 293–333 µs per 500-row rebuild), so a job carries
/// ~40 µs, about twice a pool hand-off: batches under 128 spheres
/// rebuild inline.
pub const ROW_GRAIN: usize = 64;

// ---------------------------------------------------------------------------
// CsrGrid
// ---------------------------------------------------------------------------

/// A flat counting-sorted cell grid over spheres.
///
/// Contiguous storage: `entries[cell_start[c]..cell_start[c + 1]]`
/// holds the indices of the spheres whose center falls in cell `c`, and
/// cells are linearized x-fastest so a query's x-row of cells is one
/// contiguous `entries` range.
///
/// # Hot-window mode
///
/// [`CsrGrid::rebuild_hot`] puts the grid in *hot-window* mode for tiled
/// runs: only spheres whose surface reaches the retirement horizon are
/// stored, but the binning geometry (origin, cell edge, dims, `max_radius`,
/// bounds) is pinned to the values the **full** sphere set would produce, so
/// every retained sphere lands in exactly the cell the untiled grid would
/// put it in, in the same counting-sort relative order. Any query that
/// could accept a retired sphere increments a relaxed miss counter instead
/// of silently returning a truncated candidate set; the packing loop checks
/// the counter every batch and fails hard.
#[derive(Debug)]
pub struct CsrGrid {
    cell: f64,
    inv_cell: f64,
    origin: Vec3,
    dims: [i64; 3],
    /// `ncells + 1` offsets into `entries`.
    cell_start: Vec<u32>,
    /// Sphere indices grouped by cell.
    entries: Vec<u32>,
    centers: Vec<Vec3>,
    radii: Vec<f64>,
    max_radius: f64,
    /// Surface-inclusive bounds, maintained incrementally.
    bounds: Aabb,
    /// Indices pushed since the last rebin; scanned linearly by queries.
    pending: Vec<u32>,
    /// Per-sphere cell keys (rebin scratch, reused).
    keys: Vec<u32>,
    /// Per-chunk histogram scratch for the parallel counting sort.
    sort_scratch: Vec<u32>,
    /// Hot-window state; `None` outside tiled runs.
    hot: Option<HotWindow>,
    /// Queries that could have accepted a sphere below the hot floor.
    horizon_misses: AtomicU64,
}

/// Pinned geometry and floor of a hot-window ([`CsrGrid::rebuild_hot`]).
#[derive(Debug, Clone, Copy)]
struct HotWindow {
    /// Gravity-axis unit vector altitudes are measured along.
    up: Vec3,
    /// Retirement horizon: spheres with `up·c + r < floor` are not stored.
    floor: f64,
    /// Center AABB of the **full** sphere set, maintained across pushes so
    /// mid-batch rebins reproduce the untiled grid's binning geometry.
    center_lo: Vec3,
    /// See `center_lo`.
    center_hi: Vec3,
}

impl Clone for CsrGrid {
    fn clone(&self) -> CsrGrid {
        CsrGrid {
            cell: self.cell,
            inv_cell: self.inv_cell,
            origin: self.origin,
            dims: self.dims,
            cell_start: self.cell_start.clone(),
            entries: self.entries.clone(),
            centers: self.centers.clone(),
            radii: self.radii.clone(),
            max_radius: self.max_radius,
            bounds: self.bounds,
            pending: self.pending.clone(),
            keys: self.keys.clone(),
            sort_scratch: self.sort_scratch.clone(),
            hot: self.hot,
            horizon_misses: AtomicU64::new(self.horizon_misses.load(Ordering::Relaxed)),
        }
    }
}

impl Default for CsrGrid {
    fn default() -> Self {
        CsrGrid::empty()
    }
}

impl CsrGrid {
    /// Builds a grid over the given spheres.
    ///
    /// The cell edge defaults to the largest sphere diameter (clamped away
    /// from zero) like the classic cell-list choice, then grows if needed
    /// to keep the total cell count bounded.
    pub fn build(centers: &[Vec3], radii: &[f64]) -> CsrGrid {
        let mut g = CsrGrid::empty();
        g.rebuild(centers, radii);
        g
    }

    /// An empty grid (no fixed particles yet — the first batch).
    pub fn empty() -> CsrGrid {
        CsrGrid {
            cell: 1.0,
            inv_cell: 1.0,
            origin: Vec3::ZERO,
            dims: [1, 1, 1],
            cell_start: Vec::new(),
            entries: Vec::new(),
            centers: Vec::new(),
            radii: Vec::new(),
            max_radius: 0.0,
            bounds: Aabb::empty(),
            pending: Vec::new(),
            keys: Vec::new(),
            sort_scratch: Vec::new(),
            hot: None,
            horizon_misses: AtomicU64::new(0),
        }
    }

    /// Re-populates the grid in place, reusing every buffer's capacity.
    /// Leaves (or returns the grid to) the ordinary full-population mode.
    pub fn rebuild(&mut self, centers: &[Vec3], radii: &[f64]) {
        assert_eq!(centers.len(), radii.len(), "centers/radii length mismatch");
        self.hot = None;
        self.centers.clear();
        self.centers.extend_from_slice(centers);
        self.radii.clear();
        self.radii.extend_from_slice(radii);
        let (lo, hi, max_r) = surface_scan(centers, radii);
        self.max_radius = max_r;
        self.bounds = Aabb::empty();
        if !centers.is_empty() {
            self.bounds.expand_point(lo);
            self.bounds.expand_point(hi);
        }
        self.rebin();
    }

    /// Re-populates the grid in *hot-window* mode: geometry and bounds are
    /// computed from the **full** `centers`/`radii` arrays (bitwise the
    /// values [`CsrGrid::rebuild`] would produce), but only spheres whose
    /// surface altitude along `up` reaches `horizon` are stored and binned.
    ///
    /// Because the geometry is pinned to the full set and the counting sort
    /// is stable, the retained spheres occupy the same cells in the same
    /// relative order as in the untiled grid, so any query that stays above
    /// the horizon (see [`CsrGrid::horizon_misses`]) sees a candidate
    /// sequence whose accepted pairs are identical to the untiled run's.
    pub fn rebuild_hot(&mut self, centers: &[Vec3], radii: &[f64], up: Vec3, horizon: f64) {
        assert_eq!(centers.len(), radii.len(), "centers/radii length mismatch");
        self.rebuild_hot_impl(centers.len(), |i| (centers[i], radii[i]), up, horizon);
    }

    /// [`CsrGrid::rebuild_hot`] reading straight from a particle list — no
    /// O(total) staging copy, so a tiled run's resident memory really is
    /// the retained window plus transient scan state.
    pub fn rebuild_hot_particles(&mut self, particles: &[Particle], up: Vec3, horizon: f64) {
        self.rebuild_hot_impl(
            particles.len(),
            |i| (particles[i].center, particles[i].radius),
            up,
            horizon,
        );
    }

    /// Shared body of the hot rebuilds. The scans replicate
    /// [`surface_scan`] / [`center_aabb`] exactly — same fixed block
    /// decomposition, same per-block loop order, same combine — so the
    /// binning geometry is bitwise the one the untiled grid computes.
    fn rebuild_hot_impl(
        &mut self,
        n: usize,
        sphere: impl Fn(usize) -> (Vec3, f64) + Sync,
        up: Vec3,
        horizon: f64,
    ) {
        self.horizon_misses.store(0, Ordering::Relaxed);
        let (lo_s, hi_s, max_r) = par::map_reduce(
            n,
            SCAN_BLOCK,
            (
                Vec3::splat(f64::INFINITY),
                Vec3::splat(f64::NEG_INFINITY),
                0.0,
            ),
            |s, e| {
                let mut lo = Vec3::splat(f64::INFINITY);
                let mut hi = Vec3::splat(f64::NEG_INFINITY);
                let mut max_r = 0.0f64;
                for i in s..e {
                    let (c, r) = sphere(i);
                    lo = lo.min(c - Vec3::splat(r));
                    hi = hi.max(c + Vec3::splat(r));
                    max_r = max_r.max(r);
                }
                (lo, hi, max_r)
            },
            |a, b| (a.0.min(b.0), a.1.max(b.1), a.2.max(b.2)),
        );
        self.max_radius = max_r;
        self.bounds = Aabb::empty();
        if n > 0 {
            self.bounds.expand_point(lo_s);
            self.bounds.expand_point(hi_s);
        }
        let (center_lo, center_hi) = if n == 0 {
            (Vec3::splat(f64::INFINITY), Vec3::splat(f64::NEG_INFINITY))
        } else {
            par::map_reduce(
                n,
                SCAN_BLOCK,
                (Vec3::splat(f64::INFINITY), Vec3::splat(f64::NEG_INFINITY)),
                |s, e| {
                    let mut lo = sphere(s).0;
                    let mut hi = lo;
                    for i in s + 1..e {
                        let c = sphere(i).0;
                        lo = lo.min(c);
                        hi = hi.max(c);
                    }
                    (lo, hi)
                },
                |a, b| (a.0.min(b.0), a.1.max(b.1)),
            )
        };
        self.hot = Some(HotWindow {
            up,
            floor: horizon,
            center_lo,
            center_hi,
        });
        self.centers.clear();
        self.radii.clear();
        for i in 0..n {
            let (c, r) = sphere(i);
            if up.dot(c) + r >= horizon {
                self.centers.push(c);
                self.radii.push(r);
            }
        }
        self.rebin();
    }

    /// Appends one sphere. Amortized O(1): the sphere lands on a pending
    /// overflow list (scanned linearly by queries) that is folded into the
    /// CSR structure once it exceeds a fraction of the binned population.
    pub fn push(&mut self, center: Vec3, radius: f64) {
        let i = self.centers.len() as u32;
        self.centers.push(center);
        self.radii.push(radius);
        self.max_radius = self.max_radius.max(radius);
        self.bounds.expand_point(center + Vec3::splat(radius));
        self.bounds.expand_point(center - Vec3::splat(radius));
        if let Some(h) = &mut self.hot {
            // Track the full-set center AABB so a mid-batch rebin keeps
            // reproducing the untiled binning geometry.
            h.center_lo = h.center_lo.min(center);
            h.center_hi = h.center_hi.max(center);
        }
        self.pending.push(i);
        let binned = self.entries.len();
        if self.pending.len() > PENDING_MIN.max(binned / PENDING_FRACTION) {
            self.rebin();
        }
    }

    /// Folds any pending spheres into the CSR structure.
    ///
    /// After this the grid layout is a pure function of the `(centers,
    /// radii)` arrays in insertion order — the same canonical layout
    /// [`CsrGrid::rebuild`] produces — regardless of how pushes and
    /// automatic rebins interleaved. Checkpointing calls this at every
    /// cadence point so a resumed run (which rebuilds the grid from the
    /// particle list) sees a bitwise-identical neighbor structure.
    pub fn flush_pending(&mut self) {
        if !self.pending.is_empty() {
            self.rebin();
        }
    }

    /// Counting-sorts all spheres into `cell_start`/`entries` and clears
    /// the pending list. Reuses buffer capacity.
    fn rebin(&mut self) {
        if failpoints::should_fail("core.grid.rebuild") {
            panic!("failpoint core.grid.rebuild: injected grid-rebuild fault");
        }
        self.pending.clear();
        let n = self.centers.len();
        if n == 0 {
            self.cell_start.clear();
            self.entries.clear();
            self.dims = [1, 1, 1];
            return;
        }
        let _span = adampack_telemetry::span(adampack_telemetry::Phase::GridBuild);
        // Bin over the AABB of the centers (surfaces don't matter for
        // binning; `max_radius` widens the query window instead). In
        // hot-window mode the AABB of the *full* set (maintained across
        // pushes) is used so the geometry matches the untiled grid's.
        let centers = &self.centers;
        let (lo, hi) = match &self.hot {
            Some(h) => (h.center_lo, h.center_hi),
            None => center_aabb(centers),
        };
        let (cell, dims) = binning_geometry(hi - lo, self.max_radius);
        self.cell = cell;
        self.inv_cell = 1.0 / cell;
        self.origin = lo;
        self.dims = dims;
        let ncells = (dims[0] * dims[1] * dims[2]) as usize;

        // Key pass (parallel from two `KEY_GRAIN`s), then the shim's
        // deterministic counting sort (per-chunk histograms → sequential
        // scan → parallel scatter). Its output is entry-for-entry
        // identical to a serial counting sort for any chunk count, so
        // binning stays thread-independent.
        let (origin, inv_cell) = (self.origin, self.inv_cell);
        self.keys.clear();
        self.keys.resize(n, 0);
        par::fill_with(&mut self.keys, KEY_GRAIN, |i| {
            cell_index_raw(centers[i], origin, inv_cell, dims) as u32
        });
        par::counting_sort_by_key(
            &self.keys,
            ncells,
            &mut self.cell_start,
            &mut self.entries,
            &mut self.sort_scratch,
        );
    }

    /// Number of indexed spheres.
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// True when no spheres are indexed.
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }

    /// Largest indexed radius.
    pub fn max_radius(&self) -> f64 {
        self.max_radius
    }

    /// Indexed sphere `i` as `(center, radius)`.
    #[inline]
    pub fn sphere(&self, i: usize) -> (Vec3, f64) {
        (self.centers[i], self.radii[i])
    }

    /// All centers (counting-sort SoA view).
    pub fn centers(&self) -> &[Vec3] {
        &self.centers
    }

    /// All radii.
    pub fn radii(&self) -> &[f64] {
        &self.radii
    }

    /// Visits every indexed sphere whose surface could be within `reach`
    /// of the point `p` — i.e. all spheres with `‖c − p‖ ≤ reach + r_max`.
    ///
    /// The callback receives `(index, center, radius)`. Candidates outside
    /// the reach are *not* filtered here (the caller's distance math
    /// already computes the exact distance); only whole cells are culled.
    /// Visit order is deterministic: binned spheres in z→y→x cell order
    /// (entries in counting-sort order within a row), then pending spheres
    /// in insertion order.
    #[inline]
    pub fn for_neighbors<F: FnMut(usize, Vec3, f64)>(&self, p: Vec3, reach: f64, mut f: F) {
        self.for_neighbor_rows(p, reach, |row| {
            for &i in row {
                let i = i as usize;
                f(i, self.centers[i], self.radii[i]);
            }
        });
    }

    /// Row-granular walk behind [`Self::for_neighbors`]: the callback gets
    /// each candidate x-row as one contiguous index slice (then the pending
    /// overflow list), in the order `for_neighbors` visits them.
    #[inline]
    fn for_neighbor_rows<F: FnMut(&[u32])>(&self, p: Vec3, reach: f64, mut f: F) {
        if let Some(h) = &self.hot {
            // Every caller keeps only spheres whose surface is within
            // `reach` of `p`, and a retired sphere's surface lies below the
            // floor. Unless `p` is within `reach` of the floor, no sphere a
            // caller can accept is missing. Otherwise count the query
            // (relaxed — the count is checked, never ordered against) and
            // let the packing loop fail the batch hard.
            if h.up.dot(p) - reach < h.floor {
                self.horizon_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        if !self.entries.is_empty() {
            let range = reach + self.max_radius;
            let lo_x = ((p.x - range - self.origin.x) * self.inv_cell).floor() as i64;
            let hi_x = ((p.x + range - self.origin.x) * self.inv_cell).floor() as i64;
            let lo_y = ((p.y - range - self.origin.y) * self.inv_cell).floor() as i64;
            let hi_y = ((p.y + range - self.origin.y) * self.inv_cell).floor() as i64;
            let lo_z = ((p.z - range - self.origin.z) * self.inv_cell).floor() as i64;
            let hi_z = ((p.z + range - self.origin.z) * self.inv_cell).floor() as i64;
            let [dx, dy, dz] = self.dims;
            if hi_x >= 0 && lo_x < dx && hi_y >= 0 && lo_y < dy && hi_z >= 0 && lo_z < dz {
                let (lo_x, hi_x) = (lo_x.max(0), hi_x.min(dx - 1));
                let (lo_y, hi_y) = (lo_y.max(0), hi_y.min(dy - 1));
                let (lo_z, hi_z) = (lo_z.max(0), hi_z.min(dz - 1));
                for iz in lo_z..=hi_z {
                    for iy in lo_y..=hi_y {
                        // The whole x-row is contiguous in `entries`.
                        let row = (iz * dy + iy) * dx;
                        let a = self.cell_start[(row + lo_x) as usize] as usize;
                        let b = self.cell_start[(row + hi_x) as usize + 1] as usize;
                        f(&self.entries[a..b]);
                    }
                }
            }
        }
        if !self.pending.is_empty() {
            f(&self.pending);
        }
    }

    /// Collects the indices of spheres actually overlapping the query
    /// sphere `(p, r)` (exact test, not just cell candidates).
    pub fn overlapping(&self, p: Vec3, r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_neighbors(p, r, |i, c, cr| {
            let min_dist = r + cr;
            if p.distance_sq(c) < min_dist * min_dist {
                out.push(i);
            }
        });
        out.sort_unstable();
        out
    }

    /// Bounding box of all indexed spheres (surface-inclusive).
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// True when the grid is in hot-window mode ([`CsrGrid::rebuild_hot`]).
    pub fn is_hot(&self) -> bool {
        self.hot.is_some()
    }

    /// The hot-window retirement horizon, if in hot-window mode.
    pub fn hot_floor(&self) -> Option<f64> {
        self.hot.map(|h| h.floor)
    }

    /// Number of queries since the last (hot) rebuild that could have
    /// accepted a sphere below the retirement horizon: a query from `p`
    /// with `up·p − reach` below the floor. Always zero outside hot-window
    /// mode and for a correctly sized window; non-zero means a candidate
    /// may have been silently retired and the run must not trust this
    /// batch.
    pub fn horizon_misses(&self) -> u64 {
        self.horizon_misses.load(Ordering::Relaxed)
    }

    /// Heap bytes resident in the grid's buffers (capacities, not lengths
    /// — this is what the allocator actually holds).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.cell_start.capacity()
            + self.entries.capacity()
            + self.pending.capacity()
            + self.keys.capacity()
            + self.sort_scratch.capacity())
            * size_of::<u32>()
            + self.centers.capacity() * size_of::<Vec3>()
            + self.radii.capacity() * size_of::<f64>()
    }
}

/// Surface-inclusive AABB corners and max radius of a sphere set.
/// min/max reductions are exact under any grouping, so the parallel fold
/// matches the serial one bit for bit.
fn surface_scan(centers: &[Vec3], radii: &[f64]) -> (Vec3, Vec3, f64) {
    par::map_reduce(
        centers.len(),
        SCAN_BLOCK,
        (
            Vec3::splat(f64::INFINITY),
            Vec3::splat(f64::NEG_INFINITY),
            0.0,
        ),
        |s, e| {
            let mut lo = Vec3::splat(f64::INFINITY);
            let mut hi = Vec3::splat(f64::NEG_INFINITY);
            let mut max_r = 0.0f64;
            for (&c, &r) in centers[s..e].iter().zip(&radii[s..e]) {
                lo = lo.min(c - Vec3::splat(r));
                hi = hi.max(c + Vec3::splat(r));
                max_r = max_r.max(r);
            }
            (lo, hi, max_r)
        },
        |a, b| (a.0.min(b.0), a.1.max(b.1), a.2.max(b.2)),
    )
}

/// Center AABB of a sphere set (exact min/max parallel fold).
fn center_aabb(centers: &[Vec3]) -> (Vec3, Vec3) {
    if centers.is_empty() {
        return (Vec3::splat(f64::INFINITY), Vec3::splat(f64::NEG_INFINITY));
    }
    par::map_reduce(
        centers.len(),
        SCAN_BLOCK,
        (Vec3::splat(f64::INFINITY), Vec3::splat(f64::NEG_INFINITY)),
        |s, e| {
            let mut lo = centers[s];
            let mut hi = centers[s];
            for &c in &centers[s + 1..e] {
                lo = lo.min(c);
                hi = hi.max(c);
            }
            (lo, hi)
        },
        |a, b| (a.0.min(b.0), a.1.max(b.1)),
    )
}

/// Binning geometry for a center-AABB extent: the cell edge defaults to the
/// largest sphere diameter (clamped away from zero), then grows until the
/// total cell count fits under [`MAX_CELLS`].
fn binning_geometry(extent: Vec3, max_radius: f64) -> (f64, [i64; 3]) {
    let mut cell = (2.0 * max_radius).max(1e-9);
    let dims_for = |cell: f64| -> [i64; 3] {
        [
            (extent.x / cell) as i64 + 1,
            (extent.y / cell) as i64 + 1,
            (extent.z / cell) as i64 + 1,
        ]
    };
    let mut dims = dims_for(cell);
    // The raw product can exceed i64 for tiny spheres over a huge span,
    // so the cap check runs in f64; the 1.001 margin absorbs the `+ 1`
    // rounding in `dims_for` so the loop terminates in 1–2 iterations.
    let mut total = dims[0] as f64 * dims[1] as f64 * dims[2] as f64;
    while total > MAX_CELLS as f64 {
        cell *= (total / MAX_CELLS as f64).cbrt() * 1.001;
        dims = dims_for(cell);
        total = dims[0] as f64 * dims[1] as f64 * dims[2] as f64;
    }
    (cell, dims)
}

/// Linear cell index with the grid parameters passed explicitly, so the
/// parallel key pass can run while `self` is partially borrowed.
#[inline]
fn cell_index_raw(p: Vec3, origin: Vec3, inv_cell: f64, dims: [i64; 3]) -> usize {
    let ix = (((p.x - origin.x) * inv_cell) as i64).clamp(0, dims[0] - 1);
    let iy = (((p.y - origin.y) * inv_cell) as i64).clamp(0, dims[1] - 1);
    let iz = (((p.z - origin.z) * inv_cell) as i64).clamp(0, dims[2] - 1);
    ((iz * dims[1] + iy) * dims[0] + ix) as usize
}

// ---------------------------------------------------------------------------
// FixedBed
// ---------------------------------------------------------------------------

/// The packed bed a batch optimizes against: an incrementally grown
/// [`CsrGrid`] plus the running top altitude along the gravity axis.
///
/// Replaces the seed's per-batch full rebuild (`build_grid(&particles)` and
/// an O(packed) bed-top rescan in `spawn_batch`) with O(batch) pushes.
#[derive(Debug, Clone)]
pub struct FixedBed {
    grid: CsrGrid,
    axis: Axis,
    top: f64,
}

impl FixedBed {
    /// An empty bed measuring altitude along `axis`.
    pub fn new(axis: Axis) -> FixedBed {
        FixedBed {
            grid: CsrGrid::empty(),
            axis,
            top: f64::NEG_INFINITY,
        }
    }

    /// Builds the bed from already packed particles.
    pub fn from_particles(axis: Axis, particles: &[Particle]) -> FixedBed {
        let mut bed = FixedBed::new(axis);
        if particles.is_empty() {
            return bed;
        }
        let centers: Vec<Vec3> = particles.iter().map(|p| p.center).collect();
        let radii: Vec<f64> = particles.iter().map(|p| p.radius).collect();
        bed.grid.rebuild(&centers, &radii);
        let up = axis.up();
        bed.top = particles
            .iter()
            .map(|p| up.dot(p.center) + p.radius)
            .fold(f64::NEG_INFINITY, f64::max);
        bed
    }

    /// Adds one packed sphere (amortized O(1)).
    pub fn push(&mut self, center: Vec3, radius: f64) {
        self.top = self.top.max(self.axis.up().dot(center) + radius);
        self.grid.push(center, radius);
    }

    /// Folds pending pushes into the canonical CSR layout (see
    /// [`CsrGrid::flush_pending`]). Called at checkpoint cadence points so
    /// straight and resumed runs agree bitwise on the bed's grid.
    pub fn canonicalize(&mut self) {
        self.grid.flush_pending();
    }

    /// Tiled-run variant of [`FixedBed::canonicalize`]: rebuilds the grid
    /// in hot-window mode from the master particle list, retiring every
    /// sphere whose surface sits below `horizon` while pinning the binning
    /// geometry to the full set (see [`CsrGrid::rebuild_hot`]). The bed top
    /// is refreshed from the full list, so spawn altitudes are unaffected
    /// by retirement.
    pub fn canonicalize_hot(&mut self, particles: &[Particle], horizon: f64) {
        let up = self.axis.up();
        let mut top = f64::NEG_INFINITY;
        for p in particles {
            top = top.max(up.dot(p.center) + p.radius);
        }
        self.top = top;
        self.grid.rebuild_hot_particles(particles, up, horizon);
    }

    /// The neighbor-query structure over the bed.
    pub fn grid(&self) -> &CsrGrid {
        &self.grid
    }

    /// The gravity axis the bed tracks its top along.
    pub fn axis(&self) -> Axis {
        self.axis
    }

    /// Highest sphere-surface altitude, or `-∞` for an empty bed.
    pub fn top(&self) -> f64 {
        self.top
    }

    /// Number of packed spheres.
    pub fn len(&self) -> usize {
        self.grid.len()
    }

    /// True when nothing is packed yet.
    pub fn is_empty(&self) -> bool {
        self.grid.is_empty()
    }

    /// Heap bytes resident in the bed (the grid's buffers).
    pub fn resident_bytes(&self) -> usize {
        self.grid.resident_bytes()
    }
}

/// Slab-quantized retirement horizon for a gravity-axis tiled run.
///
/// The container span `[bottom, top]` is divided into `tiles` equal slabs.
/// The horizon is the bottom of the slab **below** the one containing the
/// bed top, so the hot window always keeps at least one full slab of
/// settled material under the active surface — enough to dominate any
/// realistic interaction reach. Quantizing to slab boundaries (instead of
/// tracking `bed_top − margin` continuously) means the horizon moves a few
/// times per run, keeping hot rebuild churn negligible.
///
/// Returns `-∞` (retain everything) while the bed is empty, for one tile,
/// for a degenerate container span, or while the bed top is still inside
/// the bottom two slabs: a horizon at the container floor retires nothing,
/// but as a finite hot-window floor it would turn every floor-adjacent
/// query window into a spurious breach.
pub fn tile_horizon(tiles: usize, bottom: f64, top: f64, bed_top: f64) -> f64 {
    if tiles <= 1 || !bed_top.is_finite() {
        return f64::NEG_INFINITY;
    }
    let slab = (top - bottom) / tiles as f64;
    if slab.is_nan() || slab <= 0.0 {
        return f64::NEG_INFINITY;
    }
    let k = ((bed_top - bottom) / slab).floor() - 1.0;
    if k <= 0.0 {
        return f64::NEG_INFINITY;
    }
    bottom + slab * k
}

// ---------------------------------------------------------------------------
// VerletLists
// ---------------------------------------------------------------------------

/// Skin-padded candidate lists for one batch.
///
/// For every batch sphere `i`, [`VerletLists::row`] holds three lists
/// taken at its build-time centre `cᵢ`:
///
/// * `intra` — batch spheres `j ≠ i` with `‖cᵢ−cⱼ‖ < rᵢ + rⱼ + skin`,
/// * `cross` — fixed-bed spheres passing the same test,
/// * `walls` — container planes with `sphere_excess(cᵢ, rᵢ) > −skin`,
///
/// each in ascending index.
///
/// Reference coordinates are kept so [`VerletLists::needs_rebuild`] can
/// apply the half-skin displacement criterion. Until it fires no sphere has
/// moved more than `skin / 2`, and since every hull normal is a unit vector
/// no unlisted plane can reach a positive excess (its excess was at most
/// `−skin` and grew by at most `skin / 2`).
///
/// The rows live in static chunks of `chunk_rows` consecutive spheres, one
/// CSR buffer set per chunk; a chunk's rows are its spheres' rows in sphere
/// order, so the lists are identical for any chunk count.
#[derive(Debug, Clone, Default)]
pub struct VerletLists {
    skin: f64,
    ref_coords: Vec<f64>,
    /// Row buffers of spheres `k·chunk_rows ..` for chunk `k`; entries past
    /// the chunks the last build used are kept for their capacity.
    chunks: Vec<ListChunk>,
    chunk_rows: usize,
    rebuilds: usize,
}

/// One chunk's rows of the Verlet lists in CSR form, offsets local to the
/// chunk. Aligned to its own pair of cache lines: concurrent chunk fills
/// push into their vectors, and neighbouring chunks' length fields must
/// not share a line.
#[derive(Debug, Clone, Default)]
#[repr(align(128))]
struct ListChunk {
    /// `[intra, cross, walls]` row end offsets after a leading `[0; 3]`.
    ends: Vec<[u32; 3]>,
    intra: Vec<u32>,
    cross: Vec<u32>,
    walls: Vec<u32>,
}

/// What one list build reads: the batch at its build-time positions and
/// everything a batch sphere can touch.
struct ListInputs<'a> {
    positions: &'a [Vec3],
    radii: &'a [f64],
    /// The batch's own cell grid over `positions`.
    batch: &'a CsrGrid,
    fixed: &'a CsrGrid,
    planes: &'a [Plane],
    skin: f64,
}

/// Sphere `i`'s candidate lists (see [`VerletLists`]).
#[derive(Debug, Clone, Copy)]
pub struct VerletRow<'a> {
    /// Batch-sphere candidates, ascending.
    pub intra: &'a [u32],
    /// Fixed-bed candidates, ascending.
    pub cross: &'a [u32],
    /// Container planes in reach, ascending.
    pub walls: &'a [u32],
}

impl ListChunk {
    /// Refills this chunk with the rows of spheres `rows`, each list in
    /// ascending index, after reserving `reserve` `[intra, cross, walls]`
    /// entries.
    fn fill(&mut self, rows: std::ops::Range<usize>, reserve: [usize; 3], inputs: &ListInputs) {
        let ListInputs {
            positions,
            radii,
            batch,
            fixed,
            planes,
            skin,
        } = *inputs;
        self.ends.clear();
        self.intra.clear();
        self.cross.clear();
        self.walls.clear();
        self.intra.reserve(reserve[0]);
        self.cross.reserve(reserve[1]);
        self.walls.reserve(reserve[2]);
        self.ends.push([0; 3]);
        for i in rows {
            let ci = positions[i];
            let ri = radii[i];
            // Pair cutoff rᵢ + rⱼ + skin: the grid query's reach of
            // rᵢ + skin plus its internal r_max margin covers it.
            let (intra0, cross0) = (self.intra.len(), self.cross.len());
            batch.for_neighbors(ci, ri + skin, |j, cj, rj| {
                if j != i && ci.distance_sq(cj) < (ri + rj + skin) * (ri + rj + skin) {
                    self.intra.push(j as u32);
                }
            });
            fixed.for_neighbors(ci, ri + skin, |k, cf, rf| {
                if ci.distance_sq(cf) < (ri + rf + skin) * (ri + rf + skin) {
                    self.cross.push(k as u32);
                }
            });
            // Index order, the naive scans' order: the sum over a row's
            // hits then depends on neither the skin nor the grid geometry.
            // In place, so the steady-state step allocates nothing.
            self.intra[intra0..].sort_unstable();
            self.cross[cross0..].sort_unstable();
            // A full skin of margin, twice what the half-skin rule needs,
            // so rounding in the excess can never drop a reachable plane.
            for (k, plane) in planes.iter().enumerate() {
                if plane.sphere_excess(ci, ri) > -skin {
                    self.walls.push(k as u32);
                }
            }
            self.ends.push([
                self.intra.len() as u32,
                self.cross.len() as u32,
                self.walls.len() as u32,
            ]);
        }
    }

    fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ends.capacity() * size_of::<[u32; 3]>()
            + (self.intra.capacity() + self.cross.capacity() + self.walls.capacity())
                * size_of::<u32>()
    }
}

impl VerletLists {
    /// The skin the lists were last built with.
    pub fn skin(&self) -> f64 {
        self.skin
    }

    /// How many times the lists were (re)built since creation.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// True when no build happened yet or some particle moved further
    /// than `skin / 2` from its position at the last build.
    pub fn needs_rebuild(&self, c: &[f64]) -> bool {
        if self.ref_coords.len() != c.len() {
            return true;
        }
        let limit_sq = (self.skin / 2.0) * (self.skin / 2.0);
        let n = c.len() / 3;
        for i in 0..n {
            let d = coords::get(c, i) - coords::get(&self.ref_coords, i);
            if d.norm_sq() > limit_sq {
                return true;
            }
        }
        false
    }

    /// Rebuilds all three lists from the current coordinates in one
    /// parallel pass (one static chunk of at least [`ROW_GRAIN`] spheres
    /// per job), reusing buffer capacity. `scratch` is the caller's
    /// batch-grid workspace.
    #[allow(clippy::too_many_arguments)]
    pub fn rebuild(
        &mut self,
        c: &[f64],
        radii: &[f64],
        fixed: &CsrGrid,
        planes: &[Plane],
        skin: f64,
        scratch: &mut CsrGrid,
        positions: &mut Vec<Vec3>,
    ) {
        let n = radii.len();
        assert_eq!(c.len(), 3 * n, "coordinate buffer size mismatch");
        assert!(skin > 0.0, "skin must be positive");
        let _span = adampack_telemetry::span(adampack_telemetry::Phase::VerletRebuild);
        adampack_telemetry::metrics::VERLET_REBUILDS_TOTAL.inc();
        self.skin = skin;
        self.ref_coords.clear();
        self.ref_coords.extend_from_slice(c);
        self.rebuilds += 1;

        // ~1 ns a sphere: no batch is large enough to pay a hand-off.
        positions.clear();
        positions.extend((0..n).map(|i| coords::get(c, i)));
        scratch.rebuild(positions, radii);
        let inputs = ListInputs {
            positions,
            radii,
            batch: scratch,
            fixed,
            planes,
            skin,
        };
        self.fill_rows(rayon::job_count(n, ROW_GRAIN), &inputs);
    }

    /// Fills every sphere's rows in one parallel pass over at most
    /// `jobs` static chunks of consecutive spheres. The rows are the same
    /// for any chunk count.
    fn fill_rows(&mut self, jobs: usize, inputs: &ListInputs) {
        let n = inputs.radii.len();
        let rows = n.div_ceil(jobs.max(1)).max(1);
        let n_chunks = n.div_ceil(rows);
        if self.chunks.len() < n_chunks {
            self.chunks.resize_with(n_chunks, ListChunk::default);
        }
        self.chunk_rows = rows;
        // Chunks are interchangeable, so each reserves what the fullest one
        // ever held: a shift of density between chunks allocates nothing,
        // only outgrowing every earlier chunk does.
        let reserve = self.chunks.iter().fold([0; 3], |m, c| {
            [
                m[0].max(c.intra.capacity()),
                m[1].max(c.cross.capacity()),
                m[2].max(c.walls.capacity()),
            ]
        });
        par::for_each_slot(&mut self.chunks[..n_chunks], 1, |k, chunk| {
            let first = k * rows;
            chunk.fill(first..n.min(first + rows), reserve, inputs);
        });
    }

    /// Sphere `i`'s candidate lists.
    #[inline]
    pub fn row(&self, i: usize) -> VerletRow<'_> {
        let chunk = &self.chunks[i / self.chunk_rows];
        let l = i % self.chunk_rows;
        let (lo, hi) = (chunk.ends[l], chunk.ends[l + 1]);
        VerletRow {
            intra: &chunk.intra[lo[0] as usize..hi[0] as usize],
            cross: &chunk.cross[lo[1] as usize..hi[1] as usize],
            walls: &chunk.walls[lo[2] as usize..hi[2] as usize],
        }
    }

    /// Heap bytes resident in the lists' buffers (capacities).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ref_coords.capacity() * size_of::<f64>()
            + self.chunks.capacity() * size_of::<ListChunk>()
            + self
                .chunks
                .iter()
                .map(ListChunk::resident_bytes)
                .sum::<usize>()
    }
}

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

/// Reusable buffers for the objective's fused value/gradient kernel.
///
/// One workspace is owned per optimization driver (e.g. the packer) and
/// passed to every evaluation: per-particle partial values, the batch
/// cell grid, the Verlet lists and position scratch all live here and are
/// only ever grown, never freed — after the first few steps of a batch the
/// entire step path runs without touching the heap.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Per-particle partial objective values (reduced sequentially).
    pub(crate) values: Vec<f64>,
    /// Per-particle breakdown partials for the fused traced evaluation
    /// (reduced sequentially, like `values`).
    pub(crate) breakdowns: Vec<ObjectiveBreakdown>,
    /// Batch cell grid (Verlet-rebuild scratch).
    pub(crate) batch_grid: CsrGrid,
    /// Position scratch for coordinate-buffer → `Vec3` views.
    pub(crate) positions: Vec<Vec3>,
    /// The batch's Verlet candidate lists.
    pub(crate) verlet: VerletLists,
    /// SoA coordinate snapshot for the vectorized kernels, refreshed once
    /// per evaluation (padded to the SIMD lane width).
    pub(crate) soa: SoaCoords,
    /// Evaluations served since creation (diagnostics).
    pub(crate) evals: usize,
}

impl Workspace {
    /// A fresh, empty workspace.
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Number of Verlet list (re)builds since creation.
    pub fn verlet_rebuilds(&self) -> usize {
        self.verlet.rebuilds()
    }

    /// Number of objective evaluations served since creation.
    pub fn evals(&self) -> usize {
        self.evals
    }

    /// Resets per-batch state (the lists' reference positions), keeping
    /// every buffer's capacity. Call between batches.
    pub fn reset_batch(&mut self) {
        self.verlet.ref_coords.clear();
    }

    /// Heap bytes resident across every workspace buffer (capacities).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.values.capacity() * size_of::<f64>()
            + self.breakdowns.capacity() * size_of::<ObjectiveBreakdown>()
            + self.batch_grid.resident_bytes()
            + self.positions.capacity() * size_of::<Vec3>()
            + self.verlet.resident_bytes()
            + self.soa.resident_bytes()
    }

    /// Restores the cumulative diagnostics counters from a checkpoint so a
    /// resumed run reports the same totals as an uninterrupted one.
    pub fn restore_counters(&mut self, evals: usize, verlet_rebuilds: usize) {
        self.evals = evals;
        self.verlet.rebuilds = verlet_rebuilds;
    }

    /// Refreshes the SoA coordinate snapshot and the `positions` scratch
    /// from a flat interleaved buffer and returns the positions view.
    ///
    /// This is the acceptance path's replacement for a per-batch
    /// `coords::to_positions` allocation: both buffers reuse capacity, and
    /// the read goes through the same SoA snapshot the kernels use (the
    /// restored best coordinates differ from the last-evaluated ones, so
    /// the snapshot must be re-taken here anyway).
    pub fn positions_from(&mut self, c: &[f64], radii: &[f64]) -> &[Vec3] {
        self.soa.refresh(c, radii);
        let n = radii.len();
        self.positions.clear();
        for i in 0..n {
            self.positions.push(self.soa.point(i));
        }
        &self.positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_cloud(seed: u64, n: usize, span: f64) -> (Vec<Vec3>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(-span..span),
                    rng.gen_range(-span..span),
                    rng.gen_range(-span..span),
                )
            })
            .collect();
        let radii = (0..n).map(|_| rng.gen_range(0.05..0.4)).collect();
        (centers, radii)
    }

    #[test]
    fn empty_grid_yields_nothing() {
        let g = CsrGrid::empty();
        assert!(g.is_empty());
        assert_eq!(g.overlapping(Vec3::ZERO, 10.0), Vec::<usize>::new());
        let mut visited = 0;
        g.for_neighbors(Vec3::ZERO, 100.0, |_, _, _| visited += 1);
        assert_eq!(visited, 0);
        assert!(g.bounds().is_empty());
    }

    fn brute_force_overlapping(centers: &[Vec3], radii: &[f64], p: Vec3, r: f64) -> Vec<usize> {
        (0..centers.len())
            .filter(|&i| {
                let min_dist = r + radii[i];
                p.distance_sq(centers[i]) < min_dist * min_dist
            })
            .collect()
    }

    #[test]
    fn matches_brute_force_on_random_clouds() {
        for trial in 0..10 {
            let (centers, radii) = random_cloud(1000 + trial, 300, 3.0);
            let csr = CsrGrid::build(&centers, &radii);
            let mut rng = StdRng::seed_from_u64(2000 + trial);
            for _ in 0..50 {
                let p = Vec3::new(
                    rng.gen_range(-4.0..4.0),
                    rng.gen_range(-4.0..4.0),
                    rng.gen_range(-4.0..4.0),
                );
                let r = rng.gen_range(0.05..0.5);
                assert_eq!(
                    csr.overlapping(p, r),
                    brute_force_overlapping(&centers, &radii, p, r),
                    "trial {trial}"
                );
            }
        }
    }

    #[test]
    fn query_far_outside_the_aabb_is_empty_and_safe() {
        let (centers, radii) = random_cloud(7, 50, 1.0);
        let g = CsrGrid::build(&centers, &radii);
        assert_eq!(g.overlapping(Vec3::splat(100.0), 0.5), Vec::<usize>::new());
        // Reaching back into the cloud from far away still works.
        let hits = g.overlapping(Vec3::splat(100.0), 200.0);
        assert_eq!(hits.len(), 50);
    }

    #[test]
    fn incremental_push_matches_bulk_build() {
        let (centers, radii) = random_cloud(42, 500, 2.0);
        let bulk = CsrGrid::build(&centers, &radii);
        let mut inc = CsrGrid::empty();
        for (&c, &r) in centers.iter().zip(&radii) {
            inc.push(c, r);
        }
        assert_eq!(inc.len(), bulk.len());
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..100 {
            let p = Vec3::new(
                rng.gen_range(-2.5..2.5),
                rng.gen_range(-2.5..2.5),
                rng.gen_range(-2.5..2.5),
            );
            let r = rng.gen_range(0.05..0.5);
            assert_eq!(inc.overlapping(p, r), bulk.overlapping(p, r));
        }
        // Incremental bounds match the bulk bounds.
        assert_eq!(inc.bounds().min, bulk.bounds().min);
        assert_eq!(inc.bounds().max, bulk.bounds().max);
    }

    #[test]
    fn push_with_growing_radius_stays_correct() {
        // A pushed sphere larger than anything binned must still be found
        // (max_radius grows, widening the query window).
        let mut g = CsrGrid::build(&[Vec3::ZERO], &[0.1]);
        g.push(Vec3::new(5.0, 0.0, 0.0), 3.0);
        assert_eq!(g.overlapping(Vec3::new(8.5, 0.0, 0.0), 1.0), vec![1]);
        assert_eq!(g.max_radius(), 3.0);
    }

    #[test]
    fn rebuild_reuses_buffers() {
        let (centers, radii) = random_cloud(9, 400, 2.0);
        let mut g = CsrGrid::build(&centers, &radii);
        let cap_entries = g.entries.capacity();
        let cap_starts = g.cell_start.capacity();
        g.rebuild(&centers[..300], &radii[..300]);
        assert_eq!(g.len(), 300);
        assert!(g.entries.capacity() >= cap_entries.min(300));
        assert!(g.cell_start.capacity() <= cap_starts.max(g.cell_start.len()));
    }

    #[test]
    fn degenerate_all_same_position_handled() {
        let centers = vec![Vec3::splat(0.5); 20];
        let radii = vec![0.1; 20];
        let g = CsrGrid::build(&centers, &radii);
        assert_eq!(g.overlapping(Vec3::splat(0.5), 0.05).len(), 20);
        assert_eq!(g.dims, [1, 1, 1]);
    }

    #[test]
    fn huge_span_caps_cell_count() {
        // Two clusters 10⁶ apart with tiny radii would naively want an
        // astronomically large grid.
        let mut centers = vec![Vec3::ZERO];
        centers.push(Vec3::splat(1e6));
        let radii = vec![0.01, 0.01];
        let g = CsrGrid::build(&centers, &radii);
        assert!((g.dims[0] * g.dims[1] * g.dims[2]) as usize <= MAX_CELLS * 2);
        assert_eq!(g.overlapping(Vec3::ZERO, 0.005), vec![0]);
        assert_eq!(g.overlapping(Vec3::splat(1e6), 0.005), vec![1]);
    }

    #[test]
    fn fixed_bed_tracks_top_incrementally() {
        let mut bed = FixedBed::new(Axis::Z);
        assert!(bed.is_empty());
        assert_eq!(bed.top(), f64::NEG_INFINITY);
        bed.push(Vec3::new(0.0, 0.0, 1.0), 0.5);
        assert_eq!(bed.top(), 1.5);
        bed.push(Vec3::new(1.0, 0.0, 0.2), 0.1);
        assert_eq!(bed.top(), 1.5);
        bed.push(Vec3::new(0.0, 1.0, 2.0), 0.25);
        assert_eq!(bed.top(), 2.25);
        assert_eq!(bed.len(), 3);

        let particles: Vec<Particle> = vec![
            Particle::new(Vec3::new(0.0, 0.0, 1.0), 0.5),
            Particle::new(Vec3::new(1.0, 0.0, 0.2), 0.1),
            Particle::new(Vec3::new(0.0, 1.0, 2.0), 0.25),
        ];
        let rebuilt = FixedBed::from_particles(Axis::Z, &particles);
        assert_eq!(rebuilt.top(), bed.top());
        assert_eq!(rebuilt.len(), bed.len());
    }

    #[test]
    fn verlet_lists_cover_all_contact_pairs_until_half_skin() {
        let (centers, radii) = random_cloud(77, 150, 1.0);
        let c = coords::from_positions(&centers);
        let fixed_cloud = random_cloud(78, 100, 1.0);
        let fixed = CsrGrid::build(&fixed_cloud.0, &fixed_cloud.1);
        let skin = 0.2;
        let mut lists = VerletLists::default();
        let mut scratch = CsrGrid::empty();
        let mut positions = Vec::new();
        assert!(lists.needs_rebuild(&c));
        lists.rebuild(&c, &radii, &fixed, &[], skin, &mut scratch, &mut positions);
        assert!(!lists.needs_rebuild(&c));

        // Move every particle by just under skin/2 in a random direction:
        // lists stay valid and must still contain every overlapping pair.
        let mut rng = StdRng::seed_from_u64(79);
        let mut moved = c.clone();
        for v in moved.iter_mut() {
            *v += rng.gen_range(-0.99..0.99) * (skin / 2.0) / f64::sqrt(3.0);
        }
        assert!(!lists.needs_rebuild(&moved));
        let n = radii.len();
        for i in 0..n {
            let ci = coords::get(&moved, i);
            for j in 0..n {
                if j == i {
                    continue;
                }
                let cj = coords::get(&moved, j);
                if ci.distance(cj) < radii[i] + radii[j] {
                    assert!(
                        lists.row(i).intra.contains(&(j as u32)),
                        "contact pair ({i},{j}) missing from the Verlet list"
                    );
                }
            }
            for k in 0..fixed.len() {
                let (cf, rf) = fixed.sphere(k);
                if ci.distance(cf) < radii[i] + rf {
                    assert!(
                        lists.row(i).cross.contains(&(k as u32)),
                        "cross pair ({i},{k}) missing from the Verlet list"
                    );
                }
            }
        }

        // A large move triggers the rebuild criterion.
        let mut far = moved.clone();
        far[0] += skin;
        assert!(lists.needs_rebuild(&far));
    }

    /// A batch spread over a 122-plane furnace hull, some spheres poking
    /// through its walls, over a small bed: `(centers, radii, bed, planes)`.
    fn furnace_batch(seed: u64, n: usize) -> (Vec<Vec3>, Vec<f64>, CsrGrid, Vec<Plane>) {
        let hull = adampack_geometry::ConvexHull::from_mesh(
            &adampack_geometry::shapes::blast_furnace(0.05, 24),
        )
        .unwrap();
        let planes = hull.halfspaces().planes().to_vec();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut centers = Vec::with_capacity(n);
        let mut radii = Vec::with_capacity(n);
        for _ in 0..n {
            let (a, rho) = (
                rng.gen_range(0.0..std::f64::consts::TAU),
                rng.gen_range(0.0..0.18),
            );
            centers.push(Vec3::new(
                rho * a.cos(),
                rho * a.sin(),
                rng.gen_range(-0.02..1.62),
            ));
            radii.push(rng.gen_range(0.01..0.016));
        }
        let bed = random_cloud(seed + 1, 60, 0.15);
        (centers, radii, CsrGrid::build(&bed.0, &bed.1), planes)
    }

    #[test]
    fn wall_lists_cover_every_reachable_plane_in_order_for_any_chunk_count() {
        let (centers, radii, fixed, planes) = furnace_batch(83, 300);
        let c = coords::from_positions(&centers);
        let skin = 0.012;
        let build = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut lists = VerletLists::default();
            let (mut scratch, mut positions) = (CsrGrid::empty(), Vec::new());
            pool.install(|| {
                lists.rebuild(
                    &c,
                    &radii,
                    &fixed,
                    &planes,
                    skin,
                    &mut scratch,
                    &mut positions,
                )
            });
            lists
        };
        let lists = build(1);
        let same_rows = |other: &VerletLists, what: &str| {
            for i in 0..radii.len() {
                let (a, b) = (lists.row(i), other.row(i));
                assert_eq!(a.intra, b.intra, "{what}: intra row {i}");
                assert_eq!(a.cross, b.cross, "{what}: cross row {i}");
                assert_eq!(a.walls, b.walls, "{what}: wall row {i}");
            }
        };
        same_rows(&build(4), "4-thread pool");
        // Every chunk count, whatever the machine's width.
        let inputs = ListInputs {
            positions: &centers,
            radii: &radii,
            batch: &CsrGrid::build(&centers, &radii),
            fixed: &fixed,
            planes: &planes,
            skin,
        };
        for jobs in [2, 3, 4, 7, 300, 1000] {
            let mut chunked = VerletLists::default();
            chunked.fill_rows(jobs, &inputs);
            same_rows(&chunked, &format!("{jobs} chunks"));
        }

        // Every list ascends, and every plane a sphere can poke through
        // after any move of at most skin/2 is listed: probe random
        // directions and the worst case, straight along each plane's normal.
        let mut rng = StdRng::seed_from_u64(84);
        let mut straddling = 0;
        for (i, (&ci, &ri)) in centers.iter().zip(&radii).enumerate() {
            let row = lists.row(i);
            for (what, list) in [
                ("intra", row.intra),
                ("cross", row.cross),
                ("wall", row.walls),
            ] {
                assert!(
                    list.windows(2).all(|w| w[0] < w[1]),
                    "{what} row {i} not ascending"
                );
            }
            let walls = row.walls;
            straddling += usize::from(planes.iter().any(|p| p.sphere_excess(ci, ri) > 0.0));
            let mut moves: Vec<Vec3> = planes.iter().map(|p| p.normal * (skin / 2.0)).collect();
            for _ in 0..64 {
                let d = Vec3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                );
                moves.push(d.normalized().unwrap_or(Vec3::Z) * (skin / 2.0));
            }
            for d in moves {
                for (k, p) in planes.iter().enumerate() {
                    if p.sphere_excess(ci + d, ri) > 0.0 {
                        assert!(
                            walls.contains(&(k as u32)),
                            "plane {k} missing from row {i}"
                        );
                    }
                }
            }
        }
        assert!(straddling > 20, "only {straddling} spheres straddle a wall");
    }

    #[test]
    fn workspace_reports_diagnostics() {
        let ws = Workspace::new();
        assert_eq!(ws.verlet_rebuilds(), 0);
        assert_eq!(ws.evals(), 0);
    }

    #[test]
    fn tile_horizon_keeps_a_full_slab_below_the_surface() {
        // tiles <= 1 or an empty bed disable tiling entirely.
        assert_eq!(tile_horizon(1, 0.0, 10.0, 5.0), f64::NEG_INFINITY);
        assert_eq!(
            tile_horizon(4, 0.0, 10.0, f64::NEG_INFINITY),
            f64::NEG_INFINITY
        );
        // Degenerate container span.
        assert_eq!(tile_horizon(4, 2.0, 2.0, 1.0), f64::NEG_INFINITY);
        // 5 tiles over [0, 10]: slab = 2. Bed top 5 sits in slab 2, so the
        // horizon retreats one full slab to 2.
        assert_eq!(tile_horizon(5, 0.0, 10.0, 5.0), 2.0);
        // A bed still inside the bottom two slabs retires nothing, and the
        // horizon must stay -inf (a finite floor at the container bottom
        // would count floor-adjacent query windows as spurious breaches).
        assert_eq!(tile_horizon(5, 0.0, 10.0, 1.9), f64::NEG_INFINITY);
        assert_eq!(tile_horizon(5, 0.0, 10.0, 3.9), f64::NEG_INFINITY);
        assert_eq!(tile_horizon(5, 0.0, 10.0, 4.1), 2.0);
        // The horizon is monotone in bed_top.
        let mut last = f64::NEG_INFINITY;
        for t in 0..50 {
            let h = tile_horizon(8, -1.0, 7.0, -1.0 + 0.16 * t as f64);
            assert!(h >= last, "horizon must be monotone");
            last = h;
        }
    }

    #[test]
    fn hot_rebuild_pins_full_set_geometry() {
        let (centers, radii) = random_cloud(11, 400, 2.0);
        let full = CsrGrid::build(&centers, &radii);
        let mut hot = CsrGrid::empty();
        hot.rebuild_hot(&centers, &radii, Vec3::Z, 0.5);
        assert!(hot.is_hot());
        assert_eq!(hot.hot_floor(), Some(0.5));
        assert!(hot.len() < full.len(), "horizon must retire something");
        // The binning geometry is pinned to the FULL set: identical cell
        // size, origin, dims and query window regardless of retirement.
        assert_eq!(hot.cell.to_bits(), full.cell.to_bits());
        assert_eq!(hot.origin.x.to_bits(), full.origin.x.to_bits());
        assert_eq!(hot.origin.y.to_bits(), full.origin.y.to_bits());
        assert_eq!(hot.origin.z.to_bits(), full.origin.z.to_bits());
        assert_eq!(hot.dims, full.dims);
        assert_eq!(hot.max_radius.to_bits(), full.max_radius.to_bits());
        assert_eq!(hot.bounds.min, full.bounds.min);
        assert_eq!(hot.bounds.max, full.bounds.max);
    }

    #[test]
    fn hot_grid_queries_above_horizon_match_full_grid_in_order() {
        let (centers, radii) = random_cloud(12, 500, 2.0);
        let horizon = 0.3;
        let full = CsrGrid::build(&centers, &radii);
        let mut hot = CsrGrid::empty();
        hot.rebuild_hot(&centers, &radii, Vec3::Z, horizon);
        let retained = |c: Vec3, r: f64| c.z + r >= horizon;
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..100 {
            let p = Vec3::new(
                rng.gen_range(-2.0..2.0),
                rng.gen_range(-2.0..2.0),
                rng.gen_range(-2.0..2.0),
            );
            let reach = rng.gen_range(0.05..0.5);
            // Only query where the guard inequality holds. `for_neighbors`
            // visits cell-window *candidates*, so sub-horizon non-hits may
            // legitimately vanish from the hot walk (they contribute
            // nothing); the parity contract is (a) the hot candidate
            // sequence is exactly the retained-filtered full sequence, in
            // order, and (b) every candidate whose surface is within
            // `reach` — the only ones a caller accepts — is retained.
            if p.z - reach < horizon {
                continue;
            }
            let mut full_seq = Vec::new();
            full.for_neighbors(p, reach, |_, c, r| {
                if p.distance(c) < reach + r {
                    assert!(
                        retained(c, r),
                        "guard violated: overlapping candidate retired"
                    );
                }
                if retained(c, r) {
                    full_seq.push((c.x.to_bits(), c.y.to_bits(), c.z.to_bits(), r.to_bits()));
                }
            });
            let mut hot_seq = Vec::new();
            hot.for_neighbors(p, reach, |_, c, r| {
                hot_seq.push((c.x.to_bits(), c.y.to_bits(), c.z.to_bits(), r.to_bits()));
            });
            assert_eq!(full_seq, hot_seq, "candidate sequence must match bitwise");
        }
        assert_eq!(hot.horizon_misses(), 0);
        // A query reaching below the floor trips the sentinel.
        hot.for_neighbors(Vec3::new(0.0, 0.0, horizon - 1.0), 0.1, |_, _, _| {});
        assert!(hot.horizon_misses() > 0);
    }

    #[test]
    fn hot_grid_push_and_rebin_keep_full_set_aabb() {
        let (centers, radii) = random_cloud(14, 300, 1.5);
        let mut full = CsrGrid::build(&centers, &radii);
        let mut hot = CsrGrid::empty();
        hot.rebuild_hot(&centers, &radii, Vec3::Z, 0.2);
        // Push enough new spheres to trigger a pending fold on both grids;
        // the hot rebin must reproduce the untiled geometry bitwise because
        // its AABB tracks the full set, not the retained subset.
        let mut rng = StdRng::seed_from_u64(15);
        for _ in 0..200 {
            let c = Vec3::new(
                rng.gen_range(-1.5..1.5),
                rng.gen_range(-1.5..1.5),
                rng.gen_range(0.5..2.5),
            );
            let r = rng.gen_range(0.05..0.3);
            full.push(c, r);
            hot.push(c, r);
        }
        full.flush_pending();
        hot.flush_pending();
        assert_eq!(hot.cell.to_bits(), full.cell.to_bits());
        assert_eq!(hot.origin.x.to_bits(), full.origin.x.to_bits());
        assert_eq!(hot.origin.y.to_bits(), full.origin.y.to_bits());
        assert_eq!(hot.origin.z.to_bits(), full.origin.z.to_bits());
        assert_eq!(hot.dims, full.dims);
    }

    #[test]
    fn canonicalize_hot_retires_but_keeps_top() {
        let particles: Vec<Particle> = (0..60)
            .map(|i| {
                Particle::new(
                    Vec3::new(
                        0.3 * (i % 4) as f64,
                        0.3 * ((i / 4) % 4) as f64,
                        0.1 * i as f64,
                    ),
                    0.1,
                )
            })
            .collect();
        let mut full = FixedBed::from_particles(Axis::Z, &particles);
        full.canonicalize();
        let mut tiled = FixedBed::new(Axis::Z);
        tiled.canonicalize_hot(&particles, 3.0);
        assert_eq!(tiled.top(), full.top(), "top must come from the full set");
        assert_eq!(full.len(), particles.len());
        assert!(tiled.grid().is_hot());
        assert!(tiled.grid().len() < particles.len());
        assert!(tiled.grid().resident_bytes() < full.grid().resident_bytes());
    }

    #[test]
    fn strategy_parse_and_name_roundtrip() {
        for strategy in NeighborStrategy::ALL {
            assert_eq!(NeighborStrategy::parse(strategy.name()), Some(strategy));
        }
        for spelling in ["VERLET", "auto", "Auto"] {
            assert_eq!(
                NeighborStrategy::parse(spelling),
                Some(NeighborStrategy::Verlet)
            );
        }
        // The per-evaluation grid strategy was folded into the lists.
        assert_eq!(NeighborStrategy::parse("grid"), None);
        assert_eq!(NeighborStrategy::default(), NeighborStrategy::Verlet);
    }

    #[test]
    fn resident_bytes_are_positive_and_track_population() {
        let (centers, radii) = random_cloud(31, 200, 1.0);
        let g = CsrGrid::build(&centers, &radii);
        assert!(g.resident_bytes() > 200 * std::mem::size_of::<Vec3>());
        let ws = Workspace::new();
        let empty_ws = ws.resident_bytes();
        let mut ws2 = Workspace::new();
        ws2.positions_from(&coords::from_positions(&centers), &radii);
        assert!(ws2.resident_bytes() > empty_ws);
    }
}
