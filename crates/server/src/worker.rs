//! The packer worker pool: each worker repeatedly takes the fair-share
//! pick from the queue and advances its run driver ([`BatchedPacker`], a
//! plain run) pass by pass until the job finishes, is cancelled, or yields
//! its slot to a poorer job.
//!
//! Preemption is cooperative and checkpoint-shaped: a worker only ever
//! stops at a batch boundary, where [`BatchedPacker::capture_state`] is
//! exact, so an evicted job restored later continues bitwise identically
//! to a run that was never preempted. Durability comes from the same
//! captures: the driver's cadence writes one to the rotating disk
//! checkpoint at the first batch boundary after every `checkpoint_every`
//! optimizer steps, and a restarted server resumes from it after a crash.
//! Captures are pure reads, so a served artifact is byte-identical to
//! `adampack pack` of the same config at any checkpoint cadence.

use std::sync::Arc;
use std::time::{Duration, Instant};

use adampack_core::prelude::*;
use adampack_io::RotatingCheckpointWriter;
use adampack_telemetry::metrics::{
    SERVER_DISK_FULL_TOTAL, SERVER_JOBS_CANCELLED_TOTAL, SERVER_JOBS_COMPLETED_TOTAL,
    SERVER_JOBS_EXPIRED_TOTAL, SERVER_JOBS_FAILED_TOTAL, SERVER_JOBS_RESUMED_TOTAL,
    SERVER_PREEMPTIONS_TOTAL,
};
use adampack_telemetry::{info, warn};

use crate::address::{format_address, run_salt};
use crate::cache::FileKind;
use crate::state::{Inner, JobPhase};

/// Failpoint site: when armed, the worker abandons its current job right
/// after a batch boundary without completing, cancelling or requeueing it
/// — the in-process stand-in for a SIGKILLed worker in the chaos tests
/// (the job's disk checkpoints survive; a fresh server resumes them).
pub const FAILPOINT_WORKER_CRASH: &str = "server.worker.crash";

/// How a worker episode ended (worker-internal).
enum EpisodeEnd {
    Finished(PackResult),
    Preempted(DriverState),
    Cancelled,
    Crashed,
    Failed(PackError),
    Shutdown(DriverState),
    /// Ran past its wall-clock deadline or step ceiling (per-job budget).
    Expired(DriverState),
    /// Post-persist rewrites of `Finished` (the disk work happens before
    /// the registry lock is taken; these carry its outcome inside).
    Persisted {
        packed: usize,
    },
    Parked {
        packed: usize,
        bytes: Vec<u8>,
    },
    Failed2 {
        packed: usize,
        error: String,
    },
}

/// The worker loop: runs until shutdown or drain. A draining worker
/// finishes (or parks) its current episode and exits instead of picking
/// new work, so a drain converges even with a deep queue.
pub(crate) fn run(inner: Arc<Inner>) {
    loop {
        if inner.refusing() {
            return;
        }
        match inner.pick() {
            Some(addr) => episode(&inner, addr),
            None => inner.park(Duration::from_millis(100)),
        }
    }
}

/// Loads the newest decodable checkpoint for `addr`, if any; rejected
/// files are logged and skipped (the job then starts afresh).
fn load_disk_state(inner: &Inner, addr: u64) -> Option<DriverState> {
    let (found, rejected) = adampack_io::load_newest_checkpoint(
        inner.checkpoint_path(addr),
        inner.opts.keep_last,
        |bytes| DriverState::decode(bytes, false),
    );
    for why in rejected {
        warn!("job {}: checkpoint {why}", format_address(addr));
    }
    found.map(|(_, state)| state)
}

/// Removes the job's checkpoint rotation (after completion/failure),
/// keeping the LRU ledger in sync.
fn clear_checkpoints(inner: &Inner, addr: u64) {
    inner.clear_checkpoints(addr);
}

/// Registers the job's current checkpoint generations with the LRU
/// ledger (after a successful save: the rotation may have shifted every
/// file).
fn record_checkpoints(inner: &Inner, addr: u64) {
    let path = inner.checkpoint_path(addr);
    let mut cache = inner.cache.lock().unwrap();
    for (i, cand) in adampack_io::checkpoint_candidates(&path, inner.opts.keep_last)
        .into_iter()
        .enumerate()
    {
        let kind = if i == 0 {
            FileKind::NewestCheckpoint
        } else {
            FileKind::RotatedCheckpoint
        };
        let bytes = std::fs::metadata(&cand).map(|m| m.len()).unwrap_or(0);
        cache.insert(cand, addr, kind, bytes);
    }
}

/// A job's disk checkpoints as the driver's [`CheckpointSink`], used for
/// every save — boundary cadence and budget/drain epilogues alike. A save
/// degrades on a full disk: evict LRU cache entries and retry once. A
/// persistent failure is returned for the cadence to count and log (the
/// run continues — checkpoints are an optimization, not correctness).
struct JobCheckpoints {
    inner: Arc<Inner>,
    addr: u64,
    writer: RotatingCheckpointWriter,
}

impl CheckpointSink for JobCheckpoints {
    fn save(&mut self, bytes: &[u8]) -> Result<(), String> {
        let (inner, addr) = (&self.inner, self.addr);
        inner.make_room(bytes.len() as u64);
        let mut result = self.writer.save(bytes);
        if result.as_ref().is_err_and(|e| e.is_disk_full()) {
            SERVER_DISK_FULL_TOTAL.inc();
            inner.make_room(bytes.len() as u64);
            result = self.writer.save(bytes);
        }
        match result {
            Ok(()) => {
                record_checkpoints(inner, addr);
                inner
                    .disk_full
                    .store(false, std::sync::atomic::Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                if e.is_disk_full() {
                    SERVER_DISK_FULL_TOTAL.inc();
                    inner
                        .disk_full
                        .store(true, std::sync::atomic::Ordering::Relaxed);
                }
                Err(format!("job {}: {e}", format_address(addr)))
            }
        }
    }
}

/// One scheduling episode: own the job from pick to finish/preempt.
fn episode(inner: &Arc<Inner>, addr: u64) {
    // Snapshot the inputs; the registry lock is never held while packing.
    let (container, params, psd, held, admitted_at, steps_base, pending) = {
        let mut jobs = inner.jobs.lock().unwrap();
        let Some(job) = jobs.get_mut(&addr) else {
            return;
        };
        if job.cancel {
            job.phase = JobPhase::Cancelled;
            job.held = None;
            job.pending_artifact = None;
            SERVER_JOBS_CANCELLED_TOTAL.inc();
            drop(jobs);
            // A cancel that lands between eviction and re-pick must not
            // leave checkpoint debris behind.
            clear_checkpoints(inner, addr);
            return;
        }
        (
            job.container.clone(),
            job.params.clone(),
            job.psd.clone(),
            job.held.take(),
            job.admitted_at,
            job.budget_steps_base,
            job.pending_artifact.take(),
        )
    };

    // A finished result parked by a disk-full episode: persisting the
    // bytes is all that remains — no packing, no checkpoint dance.
    if let Some(bytes) = pending {
        retry_pending_artifact(inner, addr, bytes);
        return;
    }

    // Durability checkpoints are batch-boundary captures, counted from the
    // steps the run had when this episode picked it up; the budget and
    // drain epilogues below save through the same sink.
    let mut driver = BatchedPacker::plain(CollectivePacker::new(container, params), psd);
    driver.set_fingerprint_context(run_salt());
    driver.set_checkpoint_sink(
        Box::new(JobCheckpoints {
            inner: Arc::clone(inner),
            addr,
            writer: RotatingCheckpointWriter::new(
                inner.checkpoint_path(addr),
                inner.opts.keep_last,
            ),
        }),
        inner.opts.checkpoint_every,
    );

    // Restore order: in-memory preemption state, then disk checkpoints
    // (crash recovery), then a fresh run. A stale or mismatched disk
    // checkpoint degrades to a fresh start instead of wedging the job.
    match held {
        Some(state) => {
            if let Err(e) = driver.resume(state) {
                warn!(
                    "job {}: held state rejected ({e}); restarting",
                    format_address(addr)
                );
            }
        }
        None => match load_disk_state(inner, addr).map(|state| driver.resume(state)) {
            Some(Ok(())) => {
                SERVER_JOBS_RESUMED_TOTAL.inc();
                info!("job {}: resumed from disk checkpoint", format_address(addr));
            }
            Some(Err(e)) => warn!(
                "job {}: disk checkpoint rejected ({e}); restarting",
                format_address(addr)
            ),
            None => {}
        },
    }

    let slice = Duration::from_millis(inner.opts.slice_ms.max(1));
    let start = Instant::now();
    let mut consumed_base = 0u64;
    {
        let jobs = inner.jobs.lock().unwrap();
        if let Some(job) = jobs.get(&addr) {
            consumed_base = job.consumed_ns;
        }
    }

    let end = loop {
        if driver.finished() {
            break match driver.finish().remove(0).result {
                Ok(result) => EpisodeEnd::Finished(result),
                Err(e) => EpisodeEnd::Failed(e),
            };
        }
        driver.step();
        // Publish progress and poll the cancel flag at the boundary.
        let cancelled = {
            let mut jobs = inner.jobs.lock().unwrap();
            match jobs.get_mut(&addr) {
                Some(job) => {
                    job.packed = driver.packed();
                    job.steps = driver.steps_taken();
                    job.consumed_ns = consumed_base + start.elapsed().as_nanos() as u64;
                    job.cancel
                }
                None => true,
            }
        };
        if cancelled {
            break EpisodeEnd::Cancelled;
        }
        if failpoints::should_fail(FAILPOINT_WORKER_CRASH) {
            break EpisodeEnd::Crashed;
        }
        if driver.finished() {
            continue;
        }
        if inner.refusing() {
            break EpisodeEnd::Shutdown(driver.capture_state());
        }
        // Per-job budgets, enforced at the same exact boundary as
        // preemption so the persisted state resumes bitwise. The step
        // ceiling measures steps *since admission* (the cumulative
        // counter survives resume), so resubmitting an expired job buys
        // a fresh budget that actually advances the run.
        let deadline = inner.opts.limits.job_deadline_s;
        let ceiling = inner.opts.limits.job_step_ceiling;
        if (deadline > 0 && admitted_at.elapsed() >= Duration::from_secs(deadline))
            || (ceiling > 0 && driver.steps_taken().saturating_sub(steps_base) >= ceiling)
        {
            break EpisodeEnd::Expired(driver.capture_state());
        }
        let my_consumed = consumed_base + start.elapsed().as_nanos() as u64;
        if start.elapsed() >= slice && inner.poorer_waiting(my_consumed) {
            break EpisodeEnd::Preempted(driver.capture_state());
        }
    };

    let spent = start.elapsed().as_nanos() as u64;

    // Disk-touching epilogues (persist, budget and drain checkpoints) run
    // BEFORE taking the registry lock: eviction needs the lock to snapshot
    // in-flight jobs, so holding it here would self-deadlock.
    let end = match end {
        EpisodeEnd::Finished(result) => {
            let packed = result.particles.len();
            match encode_artifact(&result) {
                Err(e) => EpisodeEnd::Failed2 { packed, error: e },
                Ok(bytes) => match persist_bytes(inner, addr, &bytes) {
                    Ok(()) => EpisodeEnd::Persisted { packed },
                    Err(e) if e.is_disk_full() => {
                        // Disk full degrades to load shedding, not a
                        // failed job: park the bytes, requeue, and stop
                        // admitting until a write succeeds again.
                        warn!(
                            "job {}: artifact persist hit full disk; parking result",
                            format_address(addr)
                        );
                        EpisodeEnd::Parked { packed, bytes }
                    }
                    Err(e) => EpisodeEnd::Failed2 {
                        packed,
                        error: e.to_string(),
                    },
                },
            }
        }
        other => {
            // An expired job (terminal, but resumable with a fresh budget)
            // and a drain-parked job persist their boundary state, so a
            // resubmission or a restarted server picks up from here.
            if let EpisodeEnd::Expired(state) | EpisodeEnd::Shutdown(state) = &other {
                driver.save_checkpoint(state);
            }
            other
        }
    };

    let mut jobs = inner.jobs.lock().unwrap();
    let Some(job) = jobs.get_mut(&addr) else {
        return;
    };
    job.consumed_ns = consumed_base + spent;
    match end {
        EpisodeEnd::Finished(_) => unreachable!("rewritten above"),
        EpisodeEnd::Persisted { packed } => {
            job.packed = packed;
            job.phase = JobPhase::Done;
            SERVER_JOBS_COMPLETED_TOTAL.inc();
            info!("job {}: done ({packed} particles)", format_address(addr));
            drop(jobs);
            clear_checkpoints(inner, addr);
        }
        EpisodeEnd::Parked { packed, bytes } => {
            job.packed = packed;
            job.pending_artifact = Some(bytes);
            job.phase = JobPhase::Queued;
            drop(jobs);
            inner.enqueue(addr);
        }
        EpisodeEnd::Failed2 { packed, error } => {
            job.packed = packed;
            job.phase = JobPhase::Failed;
            job.error = Some(error);
            SERVER_JOBS_FAILED_TOTAL.inc();
            drop(jobs);
            clear_checkpoints(inner, addr);
        }
        EpisodeEnd::Preempted(state) => {
            if job.cancel {
                // Cancel raced the eviction: the client's cancel wins.
                // The job must land Cancelled (not sneak back into the
                // queue) with no checkpoint debris left behind.
                job.phase = JobPhase::Cancelled;
                job.held = None;
                SERVER_JOBS_CANCELLED_TOTAL.inc();
                drop(jobs);
                clear_checkpoints(inner, addr);
            } else {
                job.held = Some(state);
                job.phase = JobPhase::Queued;
                job.preemptions += 1;
                SERVER_PREEMPTIONS_TOTAL.inc();
                drop(jobs);
                inner.enqueue(addr);
            }
        }
        EpisodeEnd::Cancelled => {
            job.phase = JobPhase::Cancelled;
            job.held = None;
            SERVER_JOBS_CANCELLED_TOTAL.inc();
            drop(jobs);
            clear_checkpoints(inner, addr);
        }
        EpisodeEnd::Crashed => {
            // Simulated worker death: leave the job marked running with
            // its disk checkpoints in place, exactly like a SIGKILL.
            warn!("job {}: worker crash injected", format_address(addr));
        }
        EpisodeEnd::Failed(e) => {
            job.phase = JobPhase::Failed;
            job.error = Some(e.to_string());
            SERVER_JOBS_FAILED_TOTAL.inc();
            drop(jobs);
            clear_checkpoints(inner, addr);
        }
        EpisodeEnd::Shutdown(state) => {
            // The boundary state is on disk (saved above) for a restarted
            // server; hold it too and put the job back in line.
            job.held = Some(state);
            job.phase = JobPhase::Queued;
            drop(jobs);
            self_enqueue_no_notify(inner, addr);
        }
        EpisodeEnd::Expired(state) => {
            job.held = Some(state);
            job.phase = JobPhase::Expired;
            job.error = Some(format!(
                "budget exhausted after {} steps (deadline {}s, step ceiling {}); \
                 resubmit to resume",
                job.steps, inner.opts.limits.job_deadline_s, inner.opts.limits.job_step_ceiling
            ));
            SERVER_JOBS_EXPIRED_TOTAL.inc();
            info!(
                "job {}: expired at {} steps; checkpoint persisted for resume",
                format_address(addr),
                job.steps
            );
        }
    }
}

/// Second chance for a result whose artifact write hit `ENOSPC`: evict
/// and retry the persist. Still full → park the bytes again and requeue
/// (after a short pause so a wedged disk doesn't spin the worker).
fn retry_pending_artifact(inner: &Inner, addr: u64, bytes: Vec<u8>) {
    match persist_bytes(inner, addr, &bytes) {
        Ok(()) => {
            let mut jobs = inner.jobs.lock().unwrap();
            if let Some(job) = jobs.get_mut(&addr) {
                job.phase = JobPhase::Done;
            }
            SERVER_JOBS_COMPLETED_TOTAL.inc();
            info!("job {}: parked artifact persisted", format_address(addr));
            drop(jobs);
            clear_checkpoints(inner, addr);
        }
        Err(e) => {
            if !e.is_disk_full() {
                warn!(
                    "job {}: parked artifact persist failed: {e}",
                    format_address(addr)
                );
            }
            std::thread::sleep(Duration::from_millis(50));
            let mut jobs = inner.jobs.lock().unwrap();
            if let Some(job) = jobs.get_mut(&addr) {
                if job.cancel {
                    job.phase = JobPhase::Cancelled;
                    SERVER_JOBS_CANCELLED_TOTAL.inc();
                    drop(jobs);
                    clear_checkpoints(inner, addr);
                    return;
                }
                job.pending_artifact = Some(bytes);
                job.phase = JobPhase::Queued;
                drop(jobs);
                inner.enqueue(addr);
            }
        }
    }
}

/// Re-queues without the wakeup (used on shutdown, when workers are
/// exiting anyway and the queue only matters to a future process).
fn self_enqueue_no_notify(inner: &Inner, addr: u64) {
    let si = (addr % inner.shards.len() as u64) as usize;
    inner.shards[si].lock().unwrap().push_back(addr);
}

/// Encodes the result's CSV bytes. The byte stream is identical to
/// `adampack pack --out <file>.csv` for the same config: same writer,
/// same particle order.
fn encode_artifact(result: &PackResult) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    adampack_io::write_particles_csv(
        &mut bytes,
        result
            .particles
            .iter()
            .map(|p| (p.center, p.radius, p.batch, p.set)),
    )
    .map_err(|e| e.to_string())?;
    Ok(bytes)
}

/// Writes artifact bytes atomically into the content-addressed cache,
/// evicting LRU entries to make room (and once more on `ENOSPC` before
/// giving up). Success clears the disk-full latch; a full-disk failure
/// sets it, flipping `/readyz` red and shedding new submissions.
fn persist_bytes(inner: &Inner, addr: u64, bytes: &[u8]) -> Result<(), adampack_io::Error> {
    use std::sync::atomic::Ordering;
    let path = inner.artifact_path(addr);
    inner.make_room(bytes.len() as u64);
    let mut result = adampack_io::write_atomic(&path, bytes);
    if result.as_ref().is_err_and(|e| e.is_disk_full()) {
        SERVER_DISK_FULL_TOTAL.inc();
        inner.make_room(bytes.len() as u64);
        result = adampack_io::write_atomic(&path, bytes);
    }
    match result {
        Ok(()) => {
            inner
                .cache
                .lock()
                .unwrap()
                .insert(path, addr, FileKind::Artifact, bytes.len() as u64);
            inner.disk_full.store(false, Ordering::Relaxed);
            Ok(())
        }
        Err(e) => {
            if e.is_disk_full() {
                SERVER_DISK_FULL_TOTAL.inc();
                inner.disk_full.store(true, Ordering::Relaxed);
            }
            Err(e)
        }
    }
}
