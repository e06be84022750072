//! Offline API-subset substitute for the `rayon` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the slice of `rayon` it actually needs: a persistent thread pool with a
//! [`ThreadPoolBuilder`]/[`ThreadPool::install`] thread-count override, and
//! the flat data-parallel primitives in [`par`] used by the objective, grid,
//! Verlet-list, sweep and DEM kernels.
//!
//! Unlike `rayon`'s work-stealing deques, parallel regions here partition
//! the index space into **contiguous static chunks** claimed from a shared
//! cursor. That is deliberate: every caller in this workspace writes each
//! output slot from exactly one task and reduces partial values
//! sequentially afterwards, so the static partition keeps results
//! bitwise-identical for any thread count while still spreading the work.
//!
//! Every slice primitive takes a **grain**, the fewest items one job may
//! take, so a region over `n` items runs [`job_count`]`(n, grain)` jobs and
//! below two grains runs inline on the calling thread — the role of the
//! grain size in PyTorch's `parallel_for`. Callers size the grain from the
//! measured cost of one item so that a job outweighs the hand-off.
//!
//! Wake-ups are chained rather than broadcast: posting a region wakes one
//! worker, and each worker that claims a job wakes the next only while
//! unclaimed jobs remain. Short regions whose poster drains every chunk
//! itself therefore cost one futex wake instead of a thundering herd —
//! the dominant overhead when the pool is wider than the machine.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread;

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

/// Lifetime-erased pointer to the parallel region's job closure. Workers
/// only dereference it between claiming a job under the board lock and
/// reporting that job done under the same lock; the posting thread waits for
/// all jobs to be reported done before the closure can go out of scope.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` and outlives the region (see above).
unsafe impl Send for JobPtr {}

struct BoardState {
    job: Option<JobPtr>,
    n_jobs: usize,
    cursor: usize,
    done: usize,
    /// First captured panic payload and the index of the job that raised it.
    /// The payload is re-thrown on the posting thread when the region ends;
    /// the `Box` is the only allocation and happens exclusively on the
    /// panic path.
    panic: Option<(Box<dyn Any + Send>, usize)>,
}

struct Board {
    state: Mutex<BoardState>,
    work: Condvar,
    finished: Condvar,
}

struct Pool {
    board: &'static Board,
    /// Serializes top-level parallel regions (the pool has one job board).
    region: Mutex<()>,
    spawned: AtomicUsize,
}

fn hardware_threads() -> usize {
    // Resolved once: `env::var` and `available_parallelism` both allocate
    // (the latter probes cgroup files on Linux), and this runs on every
    // parallel region — caching keeps the steady-state path allocation-free.
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

thread_local! {
    static THREAD_OVERRIDE: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The number of threads parallel regions started from this thread will use.
pub fn current_num_threads() -> usize {
    THREAD_OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(hardware_threads)
}

/// The parallelism a region can actually realize: the configured pool width
/// capped by the hardware thread count. A pool wider than the machine buys
/// no concurrency — the extra workers only time-slice against each other —
/// so regions size their job count by this instead of the raw width, and
/// results stay bitwise identical either way (chunking never affects
/// values, only scheduling). Setting `RAYON_NUM_THREADS` raises the
/// hardware figure, which forces genuine oversubscription for testing.
pub fn effective_parallelism() -> usize {
    current_num_threads().min(hardware_threads())
}

/// The number of jobs a region over `n` items splits into when one job
/// must take at least `grain` items: `min(effective_parallelism(),
/// n / grain)`, and at least one. A region of one job runs inline on the
/// calling thread. Chunking never changes a value in this workspace (one
/// writer per slot, sequential reductions), so only the cost depends on it.
///
/// Panics if `grain` is zero.
pub fn job_count(n: usize, grain: usize) -> usize {
    assert!(grain > 0, "grain must be positive");
    effective_parallelism().min(n / grain).max(1)
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        board: Box::leak(Box::new(Board {
            state: Mutex::new(BoardState {
                job: None,
                n_jobs: 0,
                cursor: 0,
                done: 0,
                panic: None,
            }),
            work: Condvar::new(),
            finished: Condvar::new(),
        })),
        region: Mutex::new(()),
        spawned: AtomicUsize::new(0),
    })
}

fn record_panic(st: &mut BoardState, payload: Box<dyn Any + Send>, k: usize) {
    if st.panic.is_none() {
        st.panic = Some((payload, k));
    }
}

fn worker_loop(board: &'static Board) {
    IN_WORKER.with(|w| w.set(true));
    loop {
        let (job, k, more) = {
            let mut st = board.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                match st.job {
                    Some(job) if st.cursor < st.n_jobs => {
                        let k = st.cursor;
                        st.cursor += 1;
                        break (job, k, st.cursor < st.n_jobs);
                    }
                    _ => {
                        st = board.work.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                }
            }
        };
        // Chain the wake-up: rouse one more worker only while unclaimed jobs
        // remain, instead of broadcasting to the whole pool on every region.
        if more {
            board.work.notify_one();
        }
        // SAFETY: the region owner waits until `done == n_jobs`, which we
        // only report after the call returns, so the closure is alive here.
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(k) }));
        let mut st = board.state.lock().unwrap_or_else(|e| e.into_inner());
        st.done += 1;
        if let Err(payload) = outcome {
            record_panic(&mut st, payload, k);
        }
        if st.done == st.n_jobs {
            board.finished.notify_all();
        }
    }
}

fn ensure_workers(target: usize) {
    let p = pool();
    let mut have = p.spawned.load(Ordering::Acquire);
    while have < target {
        match p
            .spawned
            .compare_exchange(have, have + 1, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {
                let board = p.board;
                thread::Builder::new()
                    .name(format!("rayon-lite-{have}"))
                    .spawn(move || worker_loop(board))
                    .expect("failed to spawn pool worker");
                have += 1;
            }
            Err(actual) => have = actual,
        }
    }
}

/// Runs `job(0..n_jobs)` across the pool, blocking until every job
/// completed. Falls back to a sequential loop for trivial sizes, for a
/// one-thread configuration, and for nested calls from inside a region's
/// job (on a worker or on the posting thread).
/// Performs no heap allocation on the steady-state path. A panic in any
/// job is captured and re-thrown on the posting thread once the region
/// has quiesced.
fn run_region(n_jobs: usize, job: &(dyn Fn(usize) + Sync)) {
    #[cfg(test)]
    tests::LAST_REGION_JOBS.with(|c| c.set(n_jobs));
    let threads = effective_parallelism();
    if n_jobs <= 1 || threads <= 1 || IN_WORKER.with(|w| w.get()) {
        for k in 0..n_jobs {
            job(k);
        }
        return;
    }
    ensure_workers(threads - 1);
    let p = pool();
    let _region = p.region.lock().unwrap_or_else(|e| e.into_inner());
    {
        let mut st = p.board.state.lock().unwrap_or_else(|e| e.into_inner());
        // SAFETY: lifetime erasure only. The region owner clears `job` and
        // does not return until `done == n_jobs`, so no worker dereferences
        // the pointer after `job` goes out of scope.
        let erased: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job) };
        st.job = Some(JobPtr(erased));
        st.n_jobs = n_jobs;
        st.cursor = 0;
        st.done = 0;
        st.panic = None;
    }
    p.board.work.notify_one();
    // The posting thread participates too, marked as a worker while it runs
    // jobs: a region started inside one then runs sequentially instead of
    // waiting on the `region` lock this region holds.
    let was_worker = IN_WORKER.with(|w| w.replace(true));
    loop {
        let k = {
            let mut st = p.board.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.cursor >= st.n_jobs {
                break;
            }
            let k = st.cursor;
            st.cursor += 1;
            k
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| job(k)));
        let mut st = p.board.state.lock().unwrap_or_else(|e| e.into_inner());
        st.done += 1;
        if let Err(payload) = outcome {
            record_panic(&mut st, payload, k);
        }
        if st.done == st.n_jobs {
            p.board.finished.notify_all();
        }
    }
    IN_WORKER.with(|w| w.set(was_worker));
    let panic = {
        let mut st = p.board.state.lock().unwrap_or_else(|e| e.into_inner());
        while st.done < st.n_jobs {
            st = p.board.finished.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.job = None;
        st.panic.take()
    };
    if let Some((payload, _k)) = panic {
        // The payload already carries the chunk's index range when it came
        // through one of the `par` primitives (see `annotate_chunk`).
        resume_unwind(payload);
    }
}

// ---------------------------------------------------------------------------
// Parallel slice primitives
// ---------------------------------------------------------------------------

/// Flat data-parallel primitives over slices and index ranges.
///
/// All of them partition the index space into contiguous chunks, hand each
/// chunk to one pool task, and guarantee one writer per output slot — the
/// substrate for the workspace's bitwise-determinism contract. Reductions
/// ([`map_reduce`]) additionally fix the partial shape as a function of the
/// problem size alone, so the sequential combine gives the same float
/// result for any thread count.
pub mod par {
    use super::{catch_unwind, job_count, resume_unwind, run_region, AssertUnwindSafe};

    /// Raw slice view that can cross the job boundary. Disjointness of the
    /// per-job subranges is what makes handing out `&mut` views sound.
    struct RawSlice<T> {
        ptr: *mut T,
        len: usize,
    }
    unsafe impl<T: Send> Sync for RawSlice<T> {}
    impl<T> RawSlice<T> {
        fn new(s: &mut [T]) -> RawSlice<T> {
            RawSlice {
                ptr: s.as_mut_ptr(),
                len: s.len(),
            }
        }
        /// A `&mut` view of the `len` elements from `start`.
        ///
        /// # Safety
        ///
        /// `start + len` must not exceed the slice, views in use at the
        /// same time must not overlap, and each must be dropped before the
        /// slice the view was made from is used again: as with
        /// `slice::from_raw_parts_mut`, the caller picks the lifetime.
        unsafe fn window<'a>(&self, start: usize, len: usize) -> &'a mut [T] {
            debug_assert!(start + len <= self.len);
            std::slice::from_raw_parts_mut(self.ptr.add(start), len)
        }
        /// SAFETY: callers must write each index from exactly one task.
        unsafe fn write(&self, idx: usize, value: T) {
            debug_assert!(idx < self.len);
            *self.ptr.add(idx) = value;
        }
    }

    #[inline]
    fn chunk_bounds(n: usize, jobs: usize, k: usize) -> (usize, usize) {
        // Even partition: first `n % jobs` chunks get one extra element.
        let base = n / jobs;
        let extra = n % jobs;
        let start = k * base + k.min(extra);
        let len = base + usize::from(k < extra);
        (start, len)
    }

    fn payload_text(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<&'static str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload")
    }

    /// Runs a chunk body, annotating any panic with the chunk's index range
    /// before letting it unwind to the board (and from there to the posting
    /// thread). Uses `resume_unwind` so the panic hook does not fire twice —
    /// the original panic site already reported itself.
    #[inline]
    fn annotate_chunk<R>(start: usize, end: usize, body: impl FnOnce() -> R) -> R {
        match catch_unwind(AssertUnwindSafe(body)) {
            Ok(r) => r,
            Err(payload) => resume_unwind(Box::new(format!(
                "parallel chunk over indices {start}..{end} panicked: {}",
                payload_text(&*payload)
            ))),
        }
    }

    /// Calls `f(i, &mut items[i])` for every `i`, in parallel jobs of at
    /// least `grain` items.
    pub fn for_each_slot<T, F>(items: &mut [T], grain: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let n = items.len();
        let jobs = job_count(n, grain);
        let raw = RawSlice::new(items);
        run_region(jobs, &|k| {
            let (start, len) = chunk_bounds(n, jobs, k);
            // SAFETY: chunk_bounds windows are pairwise disjoint.
            let window = unsafe { raw.window(start, len) };
            annotate_chunk(start, start + len, || {
                for (off, slot) in window.iter_mut().enumerate() {
                    f(start + off, slot);
                }
            });
        });
    }

    /// Calls `f(i, &mut a[i*chunk..][..chunk], &mut b[i])` for every slot
    /// pair, in parallel jobs of at least `grain` slots: the fused
    /// gradient/value kernel shape.
    ///
    /// Panics unless `a.len() == b.len() * chunk`.
    pub fn for_each_chunk_zip<A, B, F>(a: &mut [A], chunk: usize, b: &mut [B], grain: usize, f: F)
    where
        A: Send,
        B: Send,
        F: Fn(usize, &mut [A], &mut B) + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        assert_eq!(a.len(), b.len() * chunk, "chunked slice length mismatch");
        let n = b.len();
        let jobs = job_count(n, grain);
        let raw_a = RawSlice::new(a);
        let raw_b = RawSlice::new(b);
        run_region(jobs, &|k| {
            let (start, len) = chunk_bounds(n, jobs, k);
            // SAFETY: windows derived from disjoint slot ranges.
            let wa = unsafe { raw_a.window(start * chunk, len * chunk) };
            let wb = unsafe { raw_b.window(start, len) };
            annotate_chunk(start, start + len, || {
                for off in 0..len {
                    f(
                        start + off,
                        &mut wa[off * chunk..(off + 1) * chunk],
                        &mut wb[off],
                    );
                }
            });
        });
    }

    /// Calls `f(i, &mut a[i], &mut b[i])` for every `i`, in parallel jobs
    /// of at least `grain` items.
    ///
    /// Panics unless the slices have equal length.
    pub fn for_each_slot_zip2<A, B, F>(a: &mut [A], b: &mut [B], grain: usize, f: F)
    where
        A: Send,
        B: Send,
        F: Fn(usize, &mut A, &mut B) + Sync,
    {
        assert_eq!(a.len(), b.len(), "zipped slice length mismatch");
        let n = a.len();
        let jobs = job_count(n, grain);
        let raw_a = RawSlice::new(a);
        let raw_b = RawSlice::new(b);
        run_region(jobs, &|k| {
            let (start, len) = chunk_bounds(n, jobs, k);
            // SAFETY: disjoint windows of each slice.
            let wa = unsafe { raw_a.window(start, len) };
            let wb = unsafe { raw_b.window(start, len) };
            annotate_chunk(start, start + len, || {
                for off in 0..len {
                    f(start + off, &mut wa[off], &mut wb[off]);
                }
            });
        });
    }

    /// Fills `out[i] = f(i)` for every `i`, in parallel jobs of at least
    /// `grain` items.
    pub fn fill_with<T, F>(out: &mut [T], grain: usize, f: F)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        for_each_slot(out, grain, |i, slot| *slot = f(i));
    }

    /// Upper bound on the number of reduction partials (and thus on the
    /// useful parallelism of one [`map_reduce`] call).
    const MAX_PARTIALS: usize = 64;

    /// Chunked parallel reduction with a **fixed-shape sequential combine**.
    ///
    /// The index space `0..n` is split into `ceil(n / block)` blocks
    /// (capped at [`MAX_PARTIALS`]); `map(start, end)` produces one partial
    /// per block in parallel, and the partials are folded **sequentially in
    /// block order** with `combine`. Because the block layout depends only
    /// on `n` and `block` — never on the thread count — the float result is
    /// bitwise identical for any pool width. Keep `block` a constant at
    /// each call site; tuning it per-run would break that guarantee.
    ///
    /// `block` trades scheduling overhead against parallelism: use a small
    /// block for expensive per-element maps and a large one for cheap
    /// arithmetic reductions.
    pub fn map_reduce<R, M, C>(n: usize, block: usize, identity: R, map: M, combine: C) -> R
    where
        R: Copy + Send,
        M: Fn(usize, usize) -> R + Sync,
        C: Fn(R, R) -> R,
    {
        assert!(block > 0, "block size must be positive");
        if n == 0 {
            return identity;
        }
        let blocks = n.div_ceil(block).clamp(1, MAX_PARTIALS);
        let mut partials = [identity; MAX_PARTIALS];
        let raw = RawSlice::new(&mut partials[..blocks]);
        run_region(blocks, &|k| {
            let (start, len) = chunk_bounds(n, blocks, k);
            // SAFETY: one writer per partial slot.
            let slot = unsafe { raw.window(k, 1) };
            slot[0] = annotate_chunk(start, start + len, || map(start, start + len));
        });
        partials[..blocks]
            .iter()
            .fold(identity, |acc, &p| combine(acc, p))
    }

    /// Below this many keys the counting sort runs the classic one-pass
    /// serial algorithm — the parallel version pays two sweeps plus a
    /// histogram transpose, which only amortizes on larger inputs.
    const PAR_SORT_MIN: usize = 4096;
    /// Cap on scatter tasks: per-chunk histograms cost
    /// `jobs * n_keys` scratch words.
    const MAX_SORT_JOBS: usize = 16;
    /// Cap on total scratch (in `u32`s) the parallel path may request;
    /// `jobs` is halved until the per-chunk histograms fit.
    const SORT_SCRATCH_CAP: usize = 1 << 22;

    /// Stable parallel counting sort: sorts the indices `0..keys.len()` by
    /// `keys[i]` (each `< n_keys`) into `out`, ascending index within equal
    /// keys, and fills `starts` with the `n_keys + 1` CSR bucket offsets.
    ///
    /// The parallel path builds per-chunk histograms in `scratch`
    /// (`jobs * n_keys` words, reused across calls), scans them
    /// sequentially into absolute write cursors, then scatters in parallel
    /// — each chunk owns disjoint destination ranges, so the output is
    /// identical to the serial sort for **any** chunk count. The building
    /// block behind `CsrGrid` rebinning.
    pub fn counting_sort_by_key(
        keys: &[u32],
        n_keys: usize,
        starts: &mut Vec<u32>,
        out: &mut Vec<u32>,
        scratch: &mut Vec<u32>,
    ) {
        let n = keys.len();
        starts.clear();
        starts.resize(n_keys + 1, 0);
        out.clear();
        out.resize(n, 0);
        if n == 0 {
            return;
        }
        let mut jobs = if n < PAR_SORT_MIN {
            1
        } else {
            job_count(n, 1).min(MAX_SORT_JOBS)
        };
        while jobs > 1 && jobs * n_keys > SORT_SCRATCH_CAP {
            jobs /= 2;
        }
        if jobs <= 1 {
            // One-pass serial sort: counts at key+1, inclusive scan, scatter
            // using starts as cursors, then shift right to restore offsets.
            for &k in keys {
                starts[k as usize + 1] += 1;
            }
            for k in 0..n_keys {
                starts[k + 1] += starts[k];
            }
            for (i, &k) in keys.iter().enumerate() {
                let slot = &mut starts[k as usize];
                out[*slot as usize] = i as u32;
                *slot += 1;
            }
            for k in (1..=n_keys).rev() {
                starts[k] = starts[k - 1];
            }
            starts[0] = 0;
            return;
        }
        scratch.clear();
        scratch.resize(jobs * n_keys, 0);
        let raw_scratch = RawSlice::new(scratch);
        // Pass 1: per-chunk histograms (each task owns one scratch row).
        run_region(jobs, &|c| {
            // SAFETY: row `c` is written by task `c` alone.
            let row = unsafe { raw_scratch.window(c * n_keys, n_keys) };
            let (start, len) = chunk_bounds(n, jobs, c);
            annotate_chunk(start, start + len, || {
                row.fill(0);
                for &k in &keys[start..start + len] {
                    row[k as usize] += 1;
                }
            });
        });
        // Sequential scan in (key, chunk) order: bucket offsets into
        // `starts`, per-chunk histogram cells into absolute write cursors.
        let mut total = 0u32;
        for k in 0..n_keys {
            starts[k] = total;
            for c in 0..jobs {
                let cell = &mut scratch[c * n_keys + k];
                let count = *cell;
                *cell = total;
                total += count;
            }
        }
        starts[n_keys] = total;
        debug_assert_eq!(total as usize, n);
        // Pass 2: parallel scatter. Chunk `c`'s cursors cover destination
        // ranges disjoint from every other chunk's, and scanning the chunk
        // in ascending `i` keeps equal keys in ascending index order — the
        // same output the serial sort produces.
        let raw_scratch = RawSlice::new(scratch);
        let raw_out = RawSlice::new(out);
        run_region(jobs, &|c| {
            // SAFETY: row `c` is written by task `c` alone.
            let row = unsafe { raw_scratch.window(c * n_keys, n_keys) };
            let (start, len) = chunk_bounds(n, jobs, c);
            annotate_chunk(start, start + len, || {
                for (i, &k) in (start..).zip(&keys[start..start + len]) {
                    let k = k as usize;
                    let pos = row[k] as usize;
                    row[k] += 1;
                    // SAFETY: cursor ranges are pairwise disjoint.
                    unsafe { raw_out.write(pos, i as u32) };
                }
            });
        });
    }
}

// ---------------------------------------------------------------------------
// rayon-compatible configuration shims
// ---------------------------------------------------------------------------

/// Error building a [`ThreadPool`] (never produced; kept for API parity).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}
impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder` for the used subset.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// A fresh builder (defaults to the hardware thread count).
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Sets the number of threads regions under this pool will use.
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = Some(n);
        self
    }

    /// Builds the pool handle.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads.unwrap_or_else(hardware_threads).max(1),
        })
    }
}

/// A configured view onto the shared pool: [`ThreadPool::install`] runs a
/// closure with this pool's thread count in effect.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count governing parallel regions
    /// started from the current thread.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        let prev = THREAD_OVERRIDE.with(|o| o.replace(Some(self.num_threads)));
        let result = op();
        THREAD_OVERRIDE.with(|o| o.set(prev));
        result
    }

    /// The configured thread count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// Glob-import surface; re-exports the flat primitives.
pub mod prelude {
    pub use crate::par::{
        counting_sort_by_key, fill_with, for_each_chunk_zip, for_each_slot, for_each_slot_zip2,
        map_reduce,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    thread_local! {
        /// The job count of the last region this thread entered, set by
        /// `run_region` (test builds only).
        pub(super) static LAST_REGION_JOBS: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    fn with_threads<R>(threads: usize, op: impl FnOnce() -> R) -> R {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(op)
    }

    #[test]
    fn for_each_slot_visits_every_index_once() {
        let mut v = vec![0usize; 10_000];
        par::for_each_slot(&mut v, 1, |i, slot| *slot = i * 2);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * 2);
        }
    }

    #[test]
    fn chunk_zip_matches_sequential() {
        let n = 4097;
        let mut grad = vec![0.0f64; 3 * n];
        let mut vals = vec![0.0f64; n];
        par::for_each_chunk_zip(&mut grad, 3, &mut vals, 1, |i, g, v| {
            g[0] = i as f64;
            g[1] = i as f64 + 0.5;
            g[2] = -(i as f64);
            *v = i as f64 * 3.0;
        });
        for i in 0..n {
            assert_eq!(grad[3 * i], i as f64);
            assert_eq!(grad[3 * i + 1], i as f64 + 0.5);
            assert_eq!(grad[3 * i + 2], -(i as f64));
            assert_eq!(vals[i], i as f64 * 3.0);
        }
    }

    #[test]
    fn slot_zips_visit_all_lanes() {
        let n = 1537;
        with_threads(4, || {
            let (mut a, mut b) = (vec![0i64; n], vec![0i64; n]);
            par::for_each_slot_zip2(&mut a, &mut b, 1, |i, a, b| {
                *a = i as i64;
                *b = -(i as i64);
            });
            for i in 0..n {
                let v = i as i64;
                assert_eq!((a[i], b[i]), (v, -v));
            }
        });
    }

    #[test]
    fn job_count_takes_whole_grains_up_to_the_pool_width() {
        with_threads(4, || {
            let width = effective_parallelism();
            for grain in [1, 7, 512] {
                assert_eq!(job_count(0, grain), 1);
                assert_eq!(job_count(2 * grain - 1, grain), 1);
                for k in 2..=9 {
                    assert_eq!(job_count(k * grain, grain), width.min(k), "{k} grains");
                    assert_eq!(job_count(k * grain + grain - 1, grain), width.min(k));
                }
            }
        });
        with_threads(1, || assert_eq!(job_count(1 << 20, 1), 1));
    }

    #[test]
    fn region_below_two_grains_never_leaves_the_posting_thread() {
        let me = std::thread::current().id();
        with_threads(4, || {
            for grain in [1, 64, 512] {
                let n = 2 * grain - 1;
                let mut ids = vec![None; n];
                par::for_each_slot(&mut ids, grain, |_, id| {
                    *id = Some(std::thread::current().id())
                });
                assert!(ids.iter().all(|&id| id == Some(me)), "grain {grain}");
                assert_eq!(LAST_REGION_JOBS.with(|c| c.get()), 1);
                let (mut a, mut b) = (vec![None; 3 * n], vec![None; n]);
                par::for_each_chunk_zip(&mut a, 3, &mut b, grain, |_, wa, id| {
                    wa.fill(Some(std::thread::current().id()));
                    *id = Some(std::thread::current().id());
                });
                assert!(
                    a.iter().chain(&b).all(|&id| id == Some(me)),
                    "grain {grain}"
                );
            }
        });
    }

    #[test]
    fn region_of_k_grains_runs_one_job_per_grain_up_to_the_pool_width() {
        for threads in [1, 2, 4, 8] {
            with_threads(threads, || {
                let width = effective_parallelism();
                for grain in [1, 64, 512] {
                    for k in [2, 3, 4, 9] {
                        let n = k * grain + grain / 2;
                        let mut v = vec![0usize; n];
                        par::fill_with(&mut v, grain, |i| i + 1);
                        let jobs = LAST_REGION_JOBS.with(|c| c.get());
                        assert_eq!(
                            jobs,
                            width.min(k),
                            "{threads} threads, {k} grains of {grain}"
                        );
                        assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
                    }
                }
            });
        }
    }

    #[test]
    fn install_overrides_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.current_num_threads(), 3);
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
    }

    #[test]
    fn single_thread_install_still_computes() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let mut v = vec![0usize; 100];
        pool.install(|| par::for_each_slot(&mut v, 1, |i, s| *s = i + 1));
        assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut v = vec![0.0f64; 5000];
                par::fill_with(&mut v, 1, |i| (i as f64).sin());
                v
            })
        };
        let a = run(1);
        let b = run(4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn map_reduce_is_bitwise_stable_across_thread_counts() {
        let data: Vec<f64> = (0..10_001).map(|i| ((i as f64) * 0.37).sin()).collect();
        let run = |threads: usize| {
            with_threads(threads, || {
                par::map_reduce(
                    data.len(),
                    128,
                    0.0f64,
                    |start, end| data[start..end].iter().map(|x| x * x).sum::<f64>(),
                    |a, b| a + b,
                )
            })
        };
        let base = run(1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(base.to_bits(), run(threads).to_bits());
        }
        // And the value is right (within fp tolerance of the plain sum).
        let serial: f64 = data.iter().map(|x| x * x).sum();
        assert!((base - serial).abs() <= 1e-9 * serial.abs());
    }

    #[test]
    fn map_reduce_empty_returns_identity() {
        let r = par::map_reduce(0, 64, -1.0f64, |_, _| panic!("no blocks"), |a, _| a);
        assert_eq!(r, -1.0);
    }

    fn reference_sort(keys: &[u32], n_keys: usize) -> (Vec<u32>, Vec<u32>) {
        let mut buckets = vec![Vec::new(); n_keys];
        for (i, &k) in keys.iter().enumerate() {
            buckets[k as usize].push(i as u32);
        }
        let mut starts = vec![0u32; n_keys + 1];
        let mut out = Vec::new();
        for (k, b) in buckets.iter().enumerate() {
            starts[k + 1] = starts[k] + b.len() as u32;
            out.extend_from_slice(b);
        }
        (starts, out)
    }

    #[test]
    fn counting_sort_matches_reference_and_is_stable() {
        // Large enough to hit the parallel path, odd-sized, skewed keys.
        let n = 9173;
        let n_keys = 257;
        let keys: Vec<u32> = (0..n).map(|i| ((i * i + 7 * i) % n_keys) as u32).collect();
        let (ref_starts, ref_out) = reference_sort(&keys, n_keys);
        for threads in [1usize, 2, 4, 8] {
            with_threads(threads, || {
                let (mut starts, mut out, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
                par::counting_sort_by_key(&keys, n_keys, &mut starts, &mut out, &mut scratch);
                assert_eq!(starts, ref_starts, "threads = {threads}");
                assert_eq!(out, ref_out, "threads = {threads}");
            });
        }
    }

    #[test]
    fn counting_sort_small_input_uses_serial_path() {
        let keys = [2u32, 0, 1, 2, 0];
        let (ref_starts, ref_out) = reference_sort(&keys, 3);
        let (mut starts, mut out, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        par::counting_sort_by_key(&keys, 3, &mut starts, &mut out, &mut scratch);
        assert_eq!(starts, ref_starts);
        assert_eq!(out, ref_out);
        assert!(scratch.is_empty(), "serial path needs no scratch");
    }

    #[test]
    fn nested_regions_fall_back_to_sequential() {
        let count = AtomicUsize::new(0);
        let mut outer = vec![0usize; 64];
        par::for_each_slot(&mut outer, 1, |_, _| {
            let mut inner = vec![0usize; 8];
            par::for_each_slot(&mut inner, 1, |_, s| {
                *s = 1;
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 64 * 8);
    }

    #[test]
    fn concurrent_top_level_regions_are_safe() {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut v = vec![0usize; 2000];
                    par::for_each_slot(&mut v, 1, |i, s| *s = i + t);
                    v.iter().enumerate().all(|(i, &x)| x == i + t)
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap());
        }
    }

    #[test]
    fn panic_payload_carries_chunk_range() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                let mut v = vec![0usize; 1000];
                par::for_each_slot(&mut v, 1, |i, _| {
                    if i == 777 {
                        panic!("boom at {i}");
                    }
                });
            });
        })
        .expect_err("the region must propagate the panic");
        let msg = caught
            .downcast_ref::<String>()
            .expect("annotated payload is a String")
            .clone();
        assert!(
            msg.contains("indices") && msg.contains("boom at 777"),
            "message must carry the chunk range and original payload: {msg}"
        );
    }

    #[test]
    fn panic_propagates_from_sequential_fallback_too() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(1, || {
                let mut v = vec![0usize; 16];
                par::for_each_slot(&mut v, 1, |i, _| {
                    if i == 3 {
                        panic!("seq boom");
                    }
                });
            });
        })
        .expect_err("sequential fallback must propagate too");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("0..16") && msg.contains("seq boom"), "{msg}");
    }

    #[test]
    fn pool_survives_a_panicked_region() {
        let _ = std::panic::catch_unwind(|| {
            with_threads(4, || {
                let mut v = vec![0usize; 512];
                par::for_each_slot(&mut v, 1, |i, _| {
                    if i % 97 == 5 {
                        panic!("multi boom");
                    }
                });
            });
        });
        // The board must be clean: the next region completes normally.
        with_threads(4, || {
            let mut v = vec![0usize; 4096];
            par::for_each_slot(&mut v, 1, |i, s| *s = i + 1);
            assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
        });
    }
}
