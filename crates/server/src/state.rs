//! Shared server state: the job registry, the sharded work queue and the
//! submit/status/cancel operations the HTTP layer exposes.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use adampack_config::PackingConfig;
use adampack_core::prelude::*;
use adampack_telemetry::metrics::{
    SERVER_CACHE_HITS_TOTAL, SERVER_CACHE_MISSES_TOTAL, SERVER_JOBS_CANCELLED_TOTAL,
    SERVER_JOBS_COALESCED_TOTAL, SERVER_JOBS_SUBMITTED_TOTAL, SERVER_REJECTED_OVERSIZE_TOTAL,
    SERVER_SHED_TOTAL,
};
use adampack_telemetry::warn;

use crate::address::{content_address, format_address};
use crate::ServeOptions;

/// Lifecycle of a job in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting in a queue shard for a worker slot.
    Queued,
    /// Owned by a worker and advancing.
    Running,
    /// Finished; artifact persisted to the cache.
    Done,
    /// Ended in a packing error (see the job's `error`).
    Failed,
    /// Cancelled by a client before completion.
    Cancelled,
    /// Ran out of its wall-clock deadline or step ceiling. Terminal, but
    /// the newest checkpoint is persisted: resubmitting the same config
    /// resumes from where the budget ran out.
    Expired,
}

impl JobPhase {
    /// Status string used in JSON responses.
    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
            JobPhase::Cancelled => "cancelled",
            JobPhase::Expired => "expired",
        }
    }
}

/// One submitted packing job. The resolved inputs are kept so worker
/// episodes never re-parse YAML or reload the container mesh.
pub(crate) struct Job {
    pub container: Container,
    pub params: PackingParams,
    pub psd: Psd,
    pub phase: JobPhase,
    pub error: Option<String>,
    /// Set by `cancel`; honored by workers at the next batch boundary.
    pub cancel: bool,
    /// Total worker time consumed, the fair-share currency.
    pub consumed_ns: u64,
    pub preemptions: u64,
    pub packed: usize,
    pub steps: u64,
    /// Run state captured at the last preemption (resumed in memory
    /// without a disk round-trip).
    pub held: Option<DriverState>,
    /// True when this job's artifact was produced before this server
    /// process (served from the on-disk cache).
    pub from_cache: bool,
    /// Admission-time prediction of peak resident bytes; the currency of
    /// the global memory budget.
    pub predicted_bytes: u64,
    /// When the job was (re)admitted to the queue — the start of its
    /// wall-clock deadline. Reset on resubmission so an expired job gets
    /// a fresh budget.
    pub admitted_at: Instant,
    /// `steps` at the moment of (re)admission: the zero point of the step
    /// ceiling. A resumed run keeps its cumulative step counter, so the
    /// budget must measure steps *since admission*, not since birth.
    pub budget_steps_base: u64,
    /// A finished result whose artifact write hit a full disk: the CSV
    /// bytes are parked here and the job requeued, so a later episode
    /// can retry the (cheap) persist without re-packing.
    pub pending_artifact: Option<Vec<u8>>,
}

/// A submit rejection: HTTP status plus a message for the JSON body.
pub struct SubmitError {
    /// HTTP status code (400 bad config, 413 oversized, 429 shed,
    /// 503 draining/shutting down).
    pub code: u16,
    /// Human-readable reason.
    pub msg: String,
    /// Seconds the client should wait before retrying (becomes a
    /// `Retry-After` header on 429/503 responses).
    pub retry_after: Option<u64>,
}

impl SubmitError {
    fn bad(msg: impl Into<String>) -> SubmitError {
        SubmitError {
            code: 400,
            msg: msg.into(),
            retry_after: None,
        }
    }

    /// 413: the job is too large to ever admit under the configured
    /// budget — retrying is pointless.
    fn oversize(msg: impl Into<String>) -> SubmitError {
        SubmitError {
            code: 413,
            msg: msg.into(),
            retry_after: None,
        }
    }

    /// 429: transiently overloaded — retry after a bounded delay.
    fn shed(msg: impl Into<String>, retry_after: u64) -> SubmitError {
        SubmitError {
            code: 429,
            msg: msg.into(),
            retry_after: Some(retry_after),
        }
    }
}

/// How a submission was satisfied (reported back to the client and
/// counted in `/metrics`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Artifact already in the cache: served without any work.
    CacheHit,
    /// Same address already queued/running: coalesced onto it.
    Coalesced,
    /// A fresh run was scheduled.
    Scheduled,
}

impl SubmitOutcome {
    /// Wire name of the outcome.
    pub fn name(self) -> &'static str {
        match self {
            SubmitOutcome::CacheHit => "hit",
            SubmitOutcome::Coalesced => "coalesced",
            SubmitOutcome::Scheduled => "scheduled",
        }
    }
}

/// Shared state behind the HTTP handlers and the worker pool.
pub(crate) struct Inner {
    pub opts: ServeOptions,
    pub jobs: Mutex<HashMap<u64, Job>>,
    /// The sharded work queue: submissions land in the shard addressed by
    /// the job's content hash, workers scan all shards for the fair-share
    /// pick. Shard count fixed at startup.
    pub shards: Vec<Mutex<VecDeque<u64>>>,
    pub wake: Condvar,
    pub wake_seq: Mutex<u64>,
    pub shutdown: AtomicBool,
    /// Drain mode: stop admitting (503 on POST /jobs, `/readyz` fails)
    /// while in-flight work finishes or checkpoints. Set by SIGTERM or
    /// [`crate::ServerHandle::drain`]; never cleared.
    pub draining: AtomicBool,
    /// The last artifact persist hit `ENOSPC`: shed new work (429) and
    /// fail `/readyz` until a write succeeds again.
    pub disk_full: AtomicBool,
    /// LRU ledger of on-disk artifacts and checkpoints.
    pub cache: Mutex<crate::cache::DiskCache>,
}

impl Inner {
    pub fn new(opts: ServeOptions) -> Inner {
        let nshards = opts.queue_shards.max(1);
        let cache = crate::cache::DiskCache::new(opts.limits.cache_cap_bytes);
        Inner {
            opts,
            jobs: Mutex::new(HashMap::new()),
            shards: (0..nshards).map(|_| Mutex::new(VecDeque::new())).collect(),
            wake: Condvar::new(),
            wake_seq: Mutex::new(0),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            disk_full: AtomicBool::new(false),
            cache: Mutex::new(cache),
        }
    }

    /// True when the server should not admit new jobs (drain or full
    /// stop).
    pub fn refusing(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed) || self.draining.load(Ordering::Relaxed)
    }

    /// Whether a job's on-disk files are in flight (never evictable):
    /// queued, running or holding a result that still needs persisting.
    pub fn job_in_flight(jobs: &HashMap<u64, Job>, addr: u64) -> bool {
        jobs.get(&addr).is_some_and(|j| {
            matches!(j.phase, JobPhase::Queued | JobPhase::Running) || j.pending_artifact.is_some()
        })
    }

    /// Evicts LRU cache entries so `incoming` more bytes fit under the
    /// cap, holding the registry lock only to snapshot in-flight jobs.
    pub fn make_room(&self, incoming: u64) -> usize {
        let in_flight: std::collections::HashSet<u64> = {
            let jobs = self.jobs.lock().unwrap();
            jobs.iter()
                .filter(|(a, _)| Self::job_in_flight(&jobs, **a))
                .map(|(a, _)| *a)
                .collect()
        };
        self.cache
            .lock()
            .unwrap()
            .evict_to_fit(incoming, &|addr| in_flight.contains(&addr))
    }

    /// Load-aware readiness: `Ok` when the server can usefully accept a
    /// POST right now, `Err(reason)` for the 503 body otherwise.
    /// Liveness (`/healthz`) stays green through all of these — a loaded
    /// server is healthy, just not ready.
    pub fn readiness(&self) -> Result<(), &'static str> {
        if self.refusing() {
            return Err("draining");
        }
        if self.disk_full.load(Ordering::Relaxed) {
            return Err("disk full");
        }
        let depth = self.opts.limits.queue_depth.max(1);
        if self.shards.iter().all(|s| s.lock().unwrap().len() >= depth) {
            return Err("queues full");
        }
        let budget = self.opts.limits.memory_budget_bytes;
        if budget > 0 && self.predicted_in_flight_bytes() >= budget {
            return Err("memory budget exhausted");
        }
        Ok(())
    }

    /// Sum of admission-time byte predictions over queued + running
    /// jobs: the committed share of the global memory budget.
    fn predicted_in_flight_bytes(&self) -> u64 {
        let jobs = self.jobs.lock().unwrap();
        jobs.values()
            .filter(|j| matches!(j.phase, JobPhase::Queued | JobPhase::Running))
            .map(|j| j.predicted_bytes)
            .sum()
    }

    fn shard_of(&self, addr: u64) -> usize {
        (addr % self.shards.len() as u64) as usize
    }

    /// Directory holding completed artifacts.
    pub fn artifacts_dir(&self) -> PathBuf {
        self.opts.data_dir.join("artifacts")
    }

    /// Directory holding per-job checkpoint rotations.
    pub fn jobs_dir(&self) -> PathBuf {
        self.opts.data_dir.join("jobs")
    }

    /// The cached artifact path for `addr` (CSV bytes).
    pub fn artifact_path(&self, addr: u64) -> PathBuf {
        self.artifacts_dir()
            .join(format!("{}.csv", format_address(addr)))
    }

    /// The rotating checkpoint path for `addr`.
    pub fn checkpoint_path(&self, addr: u64) -> PathBuf {
        self.jobs_dir()
            .join(format!("{}.ckpt", format_address(addr)))
    }

    /// Pushes `addr` onto its queue shard and wakes a worker.
    pub fn enqueue(&self, addr: u64) {
        self.shards[self.shard_of(addr)]
            .lock()
            .unwrap()
            .push_back(addr);
        self.notify();
    }

    /// Wakes every parked worker (new work or shutdown).
    pub fn notify(&self) {
        let mut seq = self.wake_seq.lock().unwrap();
        *seq += 1;
        drop(seq);
        self.wake.notify_all();
    }

    /// Parks a worker until new work may be available (bounded wait: the
    /// loop re-scans on timeout so a lost wakeup can only add latency).
    pub fn park(&self, timeout: Duration) {
        let seq = self.wake_seq.lock().unwrap();
        let _ = self.wake.wait_timeout(seq, timeout).unwrap();
    }

    /// Resolves and validates a submitted YAML config into the inputs of
    /// a packing run.
    fn resolve(&self, yaml: &str) -> Result<(Container, PackingParams, Psd), SubmitError> {
        let mut cfg =
            PackingConfig::from_str(yaml).map_err(|e| SubmitError::bad(format!("config: {e}")))?;
        cfg.resolve_paths(&self.opts.config_base);
        if !cfg.algorithm.eq_ignore_ascii_case("COLLECTIVE_ARRANGEMENT") {
            return Err(SubmitError::bad(format!(
                "algorithm '{}' is not servable (jobs require COLLECTIVE_ARRANGEMENT)",
                cfg.algorithm
            )));
        }
        if !cfg.zones.is_empty() {
            return Err(SubmitError::bad(
                "zoned configurations are not servable (single-zone jobs only)",
            ));
        }
        if cfg.batch.is_some() {
            return Err(SubmitError::bad(
                "batched sweeps are not servable (submit each system as its own job)",
            ));
        }
        let mesh = adampack_io::read_stl_path(&cfg.container_path)
            .map_err(|e| SubmitError::bad(format!("container: {e}")))?;
        match adampack_geometry::container_sanity(&mesh, 1e-6) {
            Ok(()) | Err(adampack_geometry::SanityError::NotConvex { .. }) => {}
            Err(e) => {
                return Err(SubmitError::bad(format!(
                    "container {}: {e}",
                    cfg.container_path.display()
                )))
            }
        }
        let container =
            Container::from_mesh(&mesh).map_err(|e| SubmitError::bad(format!("container: {e}")))?;
        let mut spec = cfg
            .systems(&container, None)
            .map_err(|e| SubmitError::bad(format!("config: {e}")))?
            .remove(0);
        // Every strategy packs the same bytes and the address ignores it,
        // so a job runs on the Verlet lists whichever spelling reached it
        // first, rather than on the exhaustive oracle.
        spec.params.neighbor.strategy = NeighborStrategy::default();
        Ok((container, spec.params, spec.psd))
    }

    /// Admission gate for a resolved job that is about to be scheduled.
    /// Order matters: oversize (413, permanent) is checked before the
    /// transient shed conditions (429) so a hopeless job is never told
    /// to retry.
    fn admit(&self, addr: u64, est: &CostEstimate) -> Result<(), SubmitError> {
        let limits = &self.opts.limits;
        let budget = limits.memory_budget_bytes;
        if budget > 0 && est.peak_bytes > budget {
            SERVER_REJECTED_OVERSIZE_TOTAL.inc();
            return Err(SubmitError::oversize(format!(
                "job predicted to need {} bytes resident, over the server budget of {budget} \
                 (shrink the container, raise the radii, or use tiles)",
                est.peak_bytes
            )));
        }
        let retry_after = (self.opts.slice_ms / 1000).max(1);
        if self.disk_full.load(Ordering::Relaxed) {
            SERVER_SHED_TOTAL.inc();
            return Err(SubmitError::shed(
                "server disk is full; artifacts cannot be persisted",
                retry_after,
            ));
        }
        let depth = limits.queue_depth.max(1);
        if self.shards[self.shard_of(addr)].lock().unwrap().len() >= depth {
            SERVER_SHED_TOTAL.inc();
            return Err(SubmitError::shed(
                format!("queue full ({depth} jobs waiting on this shard)"),
                retry_after,
            ));
        }
        if budget > 0
            && self
                .predicted_in_flight_bytes()
                .saturating_add(est.peak_bytes)
                > budget
        {
            SERVER_SHED_TOTAL.inc();
            return Err(SubmitError::shed(
                format!(
                    "admitting this job would exceed the server memory budget of {budget} bytes"
                ),
                retry_after,
            ));
        }
        Ok(())
    }

    /// Handles a job submission end to end: resolve, address, consult the
    /// artifact cache, run admission control, coalesce or schedule.
    /// Returns the address and how it was satisfied.
    pub fn submit(&self, yaml: &str) -> Result<(u64, SubmitOutcome), SubmitError> {
        if self.refusing() {
            return Err(SubmitError {
                code: 503,
                msg: "server is draining".into(),
                retry_after: Some(1),
            });
        }
        let (container, params, psd) = self.resolve(yaml)?;
        let addr = content_address(&container, &params);
        SERVER_JOBS_SUBMITTED_TOTAL.inc();

        let mut jobs = self.jobs.lock().unwrap();
        // Consult the cache first: a persisted artifact answers the
        // submission outright, even right after a restart when the
        // registry has no entry yet. Cache hits bypass admission — no
        // new work is created.
        if self.artifact_path(addr).is_file() {
            SERVER_CACHE_HITS_TOTAL.inc();
            self.cache.lock().unwrap().touch(&self.artifact_path(addr));
            let est = estimate_cost(&container, &params, &psd);
            jobs.entry(addr).or_insert_with(|| Job {
                container,
                params,
                psd,
                phase: JobPhase::Done,
                error: None,
                cancel: false,
                consumed_ns: 0,
                preemptions: 0,
                packed: 0,
                steps: 0,
                held: None,
                from_cache: true,
                predicted_bytes: est.peak_bytes,
                admitted_at: Instant::now(),
                budget_steps_base: 0,
                pending_artifact: None,
            });
            let job = jobs.get_mut(&addr).unwrap();
            job.phase = JobPhase::Done;
            job.error = None;
            return Ok((addr, SubmitOutcome::CacheHit));
        }
        match jobs.get_mut(&addr) {
            Some(job) if matches!(job.phase, JobPhase::Queued | JobPhase::Running) => {
                SERVER_JOBS_COALESCED_TOTAL.inc();
                Ok((addr, SubmitOutcome::Coalesced))
            }
            Some(job) => {
                // Done-but-evicted, failed, cancelled or expired:
                // schedule again (an expired job resumes from its held
                // state or disk checkpoint, with a fresh deadline).
                let est = estimate_cost(&job.container, &job.params, &job.psd);
                drop(jobs);
                self.admit(addr, &est)?;
                // Re-check under the lock: a concurrent submit may have
                // requeued the job while admission ran without it.
                let mut jobs = self.jobs.lock().unwrap();
                match jobs.get_mut(&addr) {
                    Some(job) if matches!(job.phase, JobPhase::Queued | JobPhase::Running) => {
                        SERVER_JOBS_COALESCED_TOTAL.inc();
                        Ok((addr, SubmitOutcome::Coalesced))
                    }
                    Some(job) => {
                        SERVER_CACHE_MISSES_TOTAL.inc();
                        job.phase = JobPhase::Queued;
                        job.error = None;
                        job.cancel = false;
                        job.predicted_bytes = est.peak_bytes;
                        job.admitted_at = Instant::now();
                        job.budget_steps_base = job.steps;
                        drop(jobs);
                        self.enqueue(addr);
                        Ok((addr, SubmitOutcome::Scheduled))
                    }
                    None => Err(SubmitError::bad("job vanished during admission")),
                }
            }
            None => {
                let est = estimate_cost(&container, &params, &psd);
                drop(jobs);
                self.admit(addr, &est)?;
                let mut jobs = self.jobs.lock().unwrap();
                // A concurrent identical submit may have won the race
                // while admission ran unlocked; coalesce onto it.
                if jobs.contains_key(&addr) {
                    SERVER_JOBS_COALESCED_TOTAL.inc();
                    return Ok((addr, SubmitOutcome::Coalesced));
                }
                SERVER_CACHE_MISSES_TOTAL.inc();
                jobs.insert(
                    addr,
                    Job {
                        container,
                        params,
                        psd,
                        phase: JobPhase::Queued,
                        error: None,
                        cancel: false,
                        consumed_ns: 0,
                        preemptions: 0,
                        packed: 0,
                        steps: 0,
                        held: None,
                        from_cache: false,
                        predicted_bytes: est.peak_bytes,
                        admitted_at: Instant::now(),
                        budget_steps_base: 0,
                        pending_artifact: None,
                    },
                );
                drop(jobs);
                self.enqueue(addr);
                Ok((addr, SubmitOutcome::Scheduled))
            }
        }
    }

    /// The job's status as a JSON object, or `None` for an unknown
    /// address with no cached artifact.
    pub fn status_json(&self, addr: u64) -> Option<String> {
        let jobs = self.jobs.lock().unwrap();
        if let Some(job) = jobs.get(&addr) {
            let mut s = format!(
                "{{\"address\":\"{}\",\"status\":\"{}\",\"packed\":{},\"steps\":{},\
                 \"preemptions\":{},\"consumed_ms\":{},\"cached\":{}",
                format_address(addr),
                job.phase.name(),
                job.packed,
                job.steps,
                job.preemptions,
                job.consumed_ns / 1_000_000,
                job.from_cache,
            );
            if let Some(err) = &job.error {
                s.push_str(&format!(",\"error\":\"{}\"", json_escape(err)));
            }
            s.push('}');
            return Some(s);
        }
        drop(jobs);
        // Not in the registry but the cache may still know it (restart).
        if self.artifact_path(addr).is_file() {
            return Some(format!(
                "{{\"address\":\"{}\",\"status\":\"done\",\"cached\":true}}",
                format_address(addr)
            ));
        }
        None
    }

    /// Removes the job's checkpoint rotation from disk and the LRU
    /// ledger. Callers must not hold the `jobs` lock (lock order:
    /// jobs → cache, never the reverse).
    pub fn clear_checkpoints(&self, addr: u64) {
        let path = self.checkpoint_path(addr);
        let mut cache = self.cache.lock().unwrap();
        for cand in adampack_io::checkpoint_candidates(&path, self.opts.keep_last) {
            let _ = std::fs::remove_file(&cand);
            cache.forget(&cand);
        }
    }

    /// Cancels a queued or running job. Returns the resulting phase name,
    /// or `None` for an unknown address.
    pub fn cancel(&self, addr: u64) -> Option<&'static str> {
        let mut jobs = self.jobs.lock().unwrap();
        let job = jobs.get_mut(&addr)?;
        match job.phase {
            JobPhase::Queued => {
                job.phase = JobPhase::Cancelled;
                job.cancel = true;
                job.held = None;
                job.pending_artifact = None;
                SERVER_JOBS_CANCELLED_TOTAL.inc();
                let shard = self.shard_of(addr);
                drop(jobs);
                self.shards[shard].lock().unwrap().retain(|&a| a != addr);
                // A queued job is never picked again once removed from
                // its shard, so its checkpoint debris is swept here.
                self.clear_checkpoints(addr);
                Some(JobPhase::Cancelled.name())
            }
            JobPhase::Running => {
                // The worker observes the flag at the next batch boundary.
                job.cancel = true;
                Some(JobPhase::Running.name())
            }
            phase => Some(phase.name()),
        }
    }

    /// The fair-share pick: removes and returns the queued job with the
    /// least consumed worker time across all shards (ties broken by shard
    /// scan order), marking it running. `None` when every shard is empty.
    pub fn pick(&self) -> Option<u64> {
        let mut jobs = self.jobs.lock().unwrap();
        let mut best: Option<(u64, u64, usize)> = None;
        for (si, shard) in self.shards.iter().enumerate() {
            let q = shard.lock().unwrap();
            for &a in q.iter() {
                let Some(job) = jobs.get(&a) else { continue };
                if job.phase != JobPhase::Queued {
                    continue;
                }
                if best.is_none_or(|(_, c, _)| job.consumed_ns < c) {
                    best = Some((a, job.consumed_ns, si));
                }
            }
        }
        let (addr, _, si) = best?;
        self.shards[si].lock().unwrap().retain(|&a| a != addr);
        if let Some(job) = jobs.get_mut(&addr) {
            job.phase = JobPhase::Running;
        }
        Some(addr)
    }

    /// True when some queued job has consumed strictly less worker time
    /// than `my_consumed_ns` — the preemption trigger: the running job
    /// yields its slot only to a job that is behind it in fair-share
    /// terms, so a lone long job never pays preemption overhead.
    pub fn poorer_waiting(&self, my_consumed_ns: u64) -> bool {
        let jobs = self.jobs.lock().unwrap();
        self.shards.iter().any(|shard| {
            shard.lock().unwrap().iter().any(|a| {
                jobs.get(a)
                    .is_some_and(|j| j.phase == JobPhase::Queued && j.consumed_ns < my_consumed_ns)
            })
        })
    }

    /// Scans the jobs directory for checkpoints left by a previous
    /// process (crash recovery). Only logs — actual resume happens when
    /// the job is resubmitted, because a checkpoint alone does not carry
    /// the config needed to finish the run.
    pub fn report_orphans(&self) {
        let Ok(entries) = std::fs::read_dir(self.jobs_dir()) else {
            return;
        };
        for e in entries.flatten() {
            let name = e.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".ckpt") {
                warn!(
                    "orphaned checkpoint {name}: resubmit the matching config to resume \
                     from it"
                );
            }
        }
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
