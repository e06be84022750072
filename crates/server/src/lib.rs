//! Packing-as-a-service: an async job server over the run driver.
//!
//! The server exposes a small std-only HTTP/JSON API — submit a YAML
//! packing config, poll status, fetch the artifact, cancel — backed by a
//! sharded work queue and a pool of in-process packer workers, each
//! advancing a job's run driver ([`adampack_core::BatchedPacker`]) pass by
//! pass and capturing or resuming it at batch boundaries:
//!
//! * **Content-addressed caching.** Every job is keyed by the canonical
//!   content address of its resolved parameters (see [`address`]), so
//!   semantically-equal configs — different YAML key order, spelled-out
//!   defaults, different thread counts or neighbor strategies — hash to the
//!   same job. Duplicate submissions coalesce onto the one running job, and
//!   completed results are served from the on-disk artifact cache with
//!   bitwise-identical bytes.
//! * **Fair-share preemption.** Workers account consumed wall time per
//!   job; when a running job exceeds its slice and a job with less
//!   consumed time is waiting, the worker captures an exact state at the
//!   batch boundary and requeues. Restored runs continue bitwise
//!   identically (the checkpoint/resume guarantee), so preemption is
//!   invisible in the artifact.
//! * **Crash durability.** Running jobs persist exact batch-boundary
//!   captures to disk (at the first batch boundary after every
//!   `checkpoint_every` optimizer steps) through the rotating atomic
//!   writer; a restarted server resumes a resubmitted job from the newest
//!   valid checkpoint. Captures are pure reads, so a served artifact is
//!   byte-identical to `adampack pack` of the same config at any
//!   checkpoint cadence (a config's own `checkpoint:` block is ignored
//!   here and does not enter the content address).
//!
//! Start a server with [`Server::start`]; the returned [`ServerHandle`]
//! owns the threads and supports a clean [`ServerHandle::shutdown`] that
//! parks in-flight work back onto the queue (checkpointed to disk).

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use adampack_telemetry::info;

pub mod address;
mod cache;
pub mod client;
mod http;
pub mod signal;
mod state;
mod worker;

pub use state::{JobPhase, SubmitError, SubmitOutcome};
pub use worker::FAILPOINT_WORKER_CRASH;

use adampack_config::ServerConfig;
use state::Inner;

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (use port 0 to let the OS choose, e.g. in tests).
    pub addr: String,
    /// Packer worker threads (each runs one job at a time).
    pub workers: usize,
    /// HTTP accept threads.
    pub http_threads: usize,
    /// Work-queue shards (submissions land in `address % shards`).
    pub queue_shards: usize,
    /// Root of the server's on-disk state: `artifacts/` (the content
    /// -addressed result cache) and `jobs/` (per-job checkpoints).
    pub data_dir: PathBuf,
    /// Base directory for resolving relative paths in submitted configs
    /// (container STL references).
    pub config_base: PathBuf,
    /// Fair-share slice: a running job becomes preemptible after this
    /// many milliseconds if a poorer job is waiting.
    pub slice_ms: u64,
    /// Disk-checkpoint cadence: save at the first batch boundary after
    /// this many optimizer steps (0 disables cadence checkpoints; budget
    /// expiry and drain still persist their boundary state).
    pub checkpoint_every: usize,
    /// Checkpoint generations kept per job.
    pub keep_last: usize,
    /// Resource limits: request size, socket timeouts, queue depth,
    /// memory budget, disk cap and per-job budgets (the `server:` block
    /// of a config file).
    pub limits: ServerConfig,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:7311".into(),
            workers: 2,
            http_threads: 2,
            queue_shards: 8,
            data_dir: PathBuf::from("adampack-server-data"),
            config_base: PathBuf::from("."),
            slice_ms: 250,
            checkpoint_every: 400,
            keep_last: 3,
            limits: ServerConfig::default(),
        }
    }
}

/// The running server. Construct with [`Server::start`].
pub struct Server;

/// Handle to a started server: the bound address plus the owned threads.
pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, creates the data directories and spawns the
    /// HTTP and worker threads.
    pub fn start(opts: ServeOptions) -> io::Result<ServerHandle> {
        let inner = Arc::new(Inner::new(opts));
        std::fs::create_dir_all(inner.artifacts_dir())?;
        std::fs::create_dir_all(inner.jobs_dir())?;
        inner.report_orphans();
        // Seed the LRU ledger from what a previous process left behind
        // and enforce the cap immediately (nothing is in flight yet).
        {
            let mut cache = inner.cache.lock().unwrap();
            cache.scan(&inner.artifacts_dir(), &inner.jobs_dir());
        }
        inner.make_room(0);

        let listener = TcpListener::bind(&inner.opts.addr)?;
        let addr = listener.local_addr()?;
        let mut threads = Vec::new();
        for i in 0..inner.opts.http_threads.max(1) {
            let l = listener.try_clone()?;
            let inn = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("adampack-http-{i}"))
                    .spawn(move || http::accept_loop(inn, l))?,
            );
        }
        drop(listener);
        for i in 0..inner.opts.workers.max(1) {
            let inn = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("adampack-worker-{i}"))
                    .spawn(move || worker::run(inn))?,
            );
        }
        info!(
            "serving on {addr} ({} workers, {} http threads, data in {})",
            inner.opts.workers.max(1),
            inner.opts.http_threads.max(1),
            inner.opts.data_dir.display()
        );
        Ok(ServerHandle {
            inner,
            addr,
            threads,
        })
    }
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a clean shutdown and joins all threads. Running jobs are
    /// checkpointed at their next batch boundary and requeued (persisted
    /// to disk, so a future server resumes them when resubmitted).
    pub fn shutdown(self) {
        self.inner.draining.store(true, Ordering::Relaxed);
        self.stop();
    }

    /// Graceful drain (the SIGTERM path): stop admitting — POST /jobs
    /// answers 503 and `/readyz` fails while status, artifact and metric
    /// GETs keep working — let every running job finish or checkpoint at
    /// its next batch boundary, then stop the HTTP threads and return
    /// once everything has exited.
    pub fn drain(self) {
        self.begin_drain();
        // Wait for the workers to park in-flight work. Workers exit
        // instead of picking again once draining is set, so this
        // converges as soon as each running job reaches a boundary.
        loop {
            let running = {
                let jobs = self.inner.jobs.lock().unwrap();
                jobs.values().any(|j| j.phase == JobPhase::Running)
            };
            if !running {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.stop();
        info!("drain: complete");
    }

    /// Sets `shutdown`, wakes every thread and joins them all.
    ///
    /// Each HTTP thread blocks in `accept(2)`, so it is woken by one
    /// loopback connection per HTTP thread. The wake cannot wedge:
    /// * a thread is parked in `accept` only while the backlog is empty,
    ///   so the kernel completes a loopback connect at once;
    /// * a thread busy in `handle` (a stalled peer holds it for up to
    ///   `read_timeout_ms`) finds its queued wake connection on its next
    ///   `accept`;
    /// * the SeqCst store here precedes the connects, and pairs with the
    ///   SeqCst load after `accept` returns in `http::accept_loop`, so a
    ///   woken thread always sees `true` and exits.
    fn stop(self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.notify();
        let ip = match self.addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };
        let wake = SocketAddr::new(ip, self.addr.port());
        for _ in 0..self.inner.opts.http_threads.max(1) {
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        }
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Flips the server into drain mode without consuming the handle:
    /// admission stops (POST /jobs → 503, `/readyz` fails) and workers
    /// park their jobs at the next boundary, but the HTTP threads keep
    /// serving reads. Finish with [`ServerHandle::drain`].
    pub fn begin_drain(&self) {
        info!("drain: admission stopped, parking in-flight jobs");
        self.inner.draining.store(true, Ordering::Relaxed);
        self.inner.notify();
    }
}
