//! `serve_mixed`: an in-process job server driven over loopback HTTP by
//! an open-loop generator. One sender thread submits on a fixed schedule
//! regardless of completions (independent users); one poller thread
//! follows every outstanding job at a 2 ms period and fetches its
//! artifact. A job's latency runs from its *scheduled* send time to its
//! verified artifact bytes, so a stall also charges the jobs queued
//! behind it.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use adampack_config::PackingConfig;
use adampack_core::Container;
use adampack_server::{client, ServeOptions, Server, ServerHandle};
use adampack_telemetry::metrics as tm;

use crate::check::{parse_artifact, verify_packing, Quality};
use crate::inputs::{serve_plan, write_meshes, JobKind, ServePlan};
use crate::json::{self, Value};
use crate::layers::{self, BatchTotals, Counters, Probes, SetupTimes};
use crate::pack::{pack_to_csv, put_latency, put_quality, set_up};
use crate::spans::Tracer;
use crate::stats::{quantile, sorted};
use crate::{Config, Outcome, Workload};

/// Mean send interval: a 20 s window schedules 400 jobs.
const INTERVAL: Duration = Duration::from_millis(50);
/// Server set-ups timed per run for `setup_s`, half before the traffic
/// (the last one serves it) and half after, so they do not all see the
/// host conditions of one moment.
const SETUPS: usize = 12;
/// Status poll period per outstanding job.
const POLL_EVERY: Duration = Duration::from_millis(2);
/// Latency objective for `serve.slo_met_frac`.
const SLO: Duration = Duration::from_millis(1000);
/// How long after the last send unfinished jobs are still awaited.
const DRAIN: Duration = Duration::from_secs(30);
/// Span ids for set-ups and reference packs (jobs count from 0).
const SETUP_ID: u64 = 1_000_000;
const REFERENCE_ID: u64 = 2_000_000;

/// A job's status as `GET /jobs/{addr}` (or the submit reply) reports it.
#[derive(Debug, Clone, Default)]
struct Status {
    phase: String,
    packed: Option<usize>,
    consumed_ms: f64,
}

fn status_of(v: &Value) -> Status {
    Status {
        phase: v
            .get("status")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        packed: v.get("packed").and_then(Value::as_f64).map(|x| x as usize),
        consumed_ms: v.get("consumed_ms").and_then(Value::as_f64).unwrap_or(0.0),
    }
}

fn body_json(code: u16, body: &[u8], what: &str) -> Result<Value, String> {
    let text = String::from_utf8_lossy(body);
    if code != 200 {
        return Err(format!("{what}: HTTP {code}: {}", text.trim()));
    }
    json::parse(&text).map_err(|e| format!("{what}: {e}"))
}

/// One submission as the sender saw it.
struct Sent {
    slot: usize,
    sent: Instant,
    replied: Instant,
    reply: Result<(String, String, Status), String>,
}

fn submit(addr: SocketAddr, yaml: &str) -> Result<(String, String, Status), String> {
    let (code, body) = client::submit(addr, yaml).map_err(|e| format!("submit: {e}"))?;
    let v = body_json(code, &body, "submit")?;
    let hex = v
        .get("address")
        .and_then(Value::as_str)
        .ok_or("submit: no address")?;
    let outcome = v.get("outcome").and_then(Value::as_str).unwrap_or("");
    let status = v.get("job").map(status_of).unwrap_or_default();
    Ok((hex.to_string(), outcome.to_string(), status))
}

fn poll(addr: SocketAddr, hex: &str) -> Result<Status, String> {
    let (code, body) =
        client::get(addr, &format!("/jobs/{hex}")).map_err(|e| format!("poll: {e}"))?;
    Ok(status_of(&body_json(code, &body, "poll")?))
}

/// Everything observed about one scheduled job.
#[derive(Debug, Clone, Default)]
struct Job {
    scheduled: Option<Instant>,
    sent: Option<Instant>,
    replied: Option<Instant>,
    addr: String,
    outcome: String,
    status: Status,
    polls: u32,
    next_poll: Option<Instant>,
    last_poll: Option<(Instant, Instant)>,
    artifact: Option<(Instant, Instant)>,
    done: Option<Instant>,
    error: Option<String>,
}

impl Job {
    fn latency(&self) -> Option<Duration> {
        Some(self.done? - self.scheduled?)
    }

    fn rtt(span: Option<(Instant, Instant)>) -> Duration {
        span.map_or(Duration::ZERO, |(a, b)| b - a)
    }

    /// HTTP round trips on the job's critical path: submit, the poll
    /// that saw it done, the artifact fetch.
    fn http_time(&self) -> Duration {
        let submit = self.sent.zip(self.replied);
        Job::rtt(submit) + Job::rtt(self.last_poll) + Job::rtt(self.artifact)
    }
}

/// Fetches an artifact and checks it against the first fetch of the same
/// address (recording that first fetch).
fn fetch_verified(
    addr: SocketAddr,
    hex: &str,
    first: &mut HashMap<String, Vec<u8>>,
) -> Result<(), String> {
    let bytes = client::artifact(addr, hex).map_err(|e| format!("artifact {hex}: {e}"))?;
    match first.get(hex) {
        Some(b) if *b != bytes => Err(format!("artifact {hex} differs from its first fetch")),
        Some(_) => Ok(()),
        None => {
            first.insert(hex.to_string(), bytes);
            Ok(())
        }
    }
}

/// The server's defaults (2 workers, 2 HTTP threads) with a short
/// fair-share slice and checkpoint cadence, so long jobs are preempted
/// and persisted several times each.
fn serve_options(data_dir: PathBuf, config_base: &Path) -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".into(),
        data_dir,
        config_base: config_base.to_path_buf(),
        slice_ms: 50,
        checkpoint_every: 200,
        ..ServeOptions::default()
    }
}

/// Polls a submitted job to a terminal phase.
fn wait_done(addr: SocketAddr, hex: &str, deadline: Instant) -> Result<Status, String> {
    loop {
        let s = poll(addr, hex)?;
        match s.phase.as_str() {
            "done" => return Ok(s),
            "failed" | "cancelled" | "expired" => {
                return Err(format!("job {hex} ended {}", s.phase))
            }
            _ if Instant::now() > deadline => return Err(format!("job {hex} not done in time")),
            _ => std::thread::sleep(POLL_EVERY),
        }
    }
}

/// One server set-up, timed as `setup_s`: `Server::start` → `/readyz`
/// answering 200 → every pool config packed and its artifact fetched.
/// Returns the handle, the pool addresses and the set-up time, seconds.
fn start(
    tracer: &mut Tracer,
    k: usize,
    opts: ServeOptions,
    plan: &ServePlan,
    first: &mut HashMap<String, Vec<u8>>,
) -> Result<(ServerHandle, Vec<String>, f64), String> {
    let id = SETUP_ID + k as u64;
    let all = tracer.begin("setup", None, id);
    let o = tracer.begin("server.start", all.slot(), id);
    let h = Server::start(opts).map_err(|e| format!("server start: {e}"))?;
    tracer.end(o);
    let addr = h.addr();
    let deadline = Instant::now() + DRAIN;
    let o = tracer.begin("server.readyz", all.slot(), id);
    while client::get(addr, "/readyz").map(|r| r.0).ok() != Some(200) {
        if Instant::now() > deadline {
            return Err("server never became ready".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    tracer.end(o);
    let o = tracer.begin("server.warm", all.slot(), id);
    let mut pool = Vec::new();
    for yaml in &plan.pool {
        pool.push(submit(addr, yaml)?.0);
    }
    for hex in &pool {
        wait_done(addr, hex, deadline)?;
        fetch_verified(addr, hex, first)?;
    }
    tracer.end(o);
    let secs = tracer.end(all).as_secs_f64();
    Ok((h, pool, secs))
}

/// The open loop: the sender on its own thread, the poller on this one.
fn traffic(
    addr: SocketAddr,
    plan: &ServePlan,
    interval: Duration,
    first: &mut HashMap<String, Vec<u8>>,
) -> Vec<Job> {
    let n = plan.jobs.len();
    let mut jobs = vec![Job::default(); n];
    let t0 = Instant::now() + Duration::from_millis(10);
    for (i, j) in jobs.iter_mut().enumerate() {
        j.scheduled = Some(t0 + interval.mul_f64(plan.jobs[i].at));
    }
    let deadline = t0 + interval * n as u32 + DRAIN;
    let (tx, rx) = mpsc::channel::<Sent>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (slot, job) in plan.jobs.iter().enumerate() {
                let at = t0 + interval.mul_f64(job.at);
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let reply = submit(addr, &job.yaml);
                let sent = Sent {
                    slot,
                    sent,
                    replied: Instant::now(),
                    reply,
                };
                if tx.send(sent).is_err() {
                    return;
                }
            }
        });

        let mut outstanding: Vec<usize> = Vec::with_capacity(n);
        let mut sender_done = false;
        let register = |s: Sent, jobs: &mut [Job], outstanding: &mut Vec<usize>| {
            let j = &mut jobs[s.slot];
            j.sent = Some(s.sent);
            j.replied = Some(s.replied);
            match s.reply {
                Err(e) => j.error = Some(e),
                Ok((hex, outcome, status)) => {
                    j.addr = hex;
                    j.outcome = outcome;
                    j.status = status;
                    j.next_poll = Some(s.replied);
                    outstanding.push(s.slot);
                }
            }
        };
        loop {
            loop {
                match rx.try_recv() {
                    Ok(s) => register(s, &mut jobs, &mut outstanding),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        sender_done = true;
                        break;
                    }
                }
            }
            if sender_done && outstanding.is_empty() {
                break;
            }
            if Instant::now() > deadline {
                for &i in &outstanding {
                    jobs[i].error = Some(format!(
                        "job {} not done {DRAIN:?} after the last send",
                        jobs[i].addr
                    ));
                }
                break;
            }
            // Finished jobs first (cache hits arrive finished), then the
            // single most overdue poll, then back here: one connection at
            // a time, so a completion never waits behind a round of polls.
            for &i in &outstanding {
                let j = &mut jobs[i];
                if j.status.phase == "done" {
                    let a = Instant::now();
                    let fetched = fetch_verified(addr, &j.addr, first);
                    let b = Instant::now();
                    j.artifact = Some((a, b));
                    match fetched {
                        Ok(()) => j.done = Some(b),
                        Err(e) => j.error = Some(e),
                    }
                }
            }
            outstanding.retain(|&i| jobs[i].done.is_none() && jobs[i].error.is_none());
            let now = Instant::now();
            let next = outstanding
                .iter()
                .copied()
                .min_by_key(|&i| jobs[i].next_poll.unwrap_or(now));
            if let Some(i) = next.filter(|&i| jobs[i].next_poll.is_none_or(|t| t <= now)) {
                let j = &mut jobs[i];
                let polled = poll(addr, &j.addr);
                let b = Instant::now();
                j.polls += 1;
                j.last_poll = Some((now, b));
                j.next_poll = Some(b + POLL_EVERY);
                match polled {
                    Ok(s) if matches!(s.phase.as_str(), "failed" | "cancelled" | "expired") => {
                        j.error = Some(format!("job {} ended {}", j.addr, s.phase));
                    }
                    Ok(s) => j.status = s,
                    Err(e) => j.error = Some(e),
                }
                if j.error.is_some() {
                    outstanding.retain(|&k| k != i);
                }
                continue;
            }
            let soonest = next
                .and_then(|i| jobs[i].next_poll)
                .unwrap_or(now + Duration::from_millis(1));
            let wait = soonest.saturating_duration_since(Instant::now());
            if sender_done {
                std::thread::sleep(wait);
            } else {
                match rx.recv_timeout(wait) {
                    Ok(s) => register(s, &mut jobs, &mut outstanding),
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => sender_done = true,
                }
            }
        }
        drop(rx);
    });
    jobs
}

/// Server-side counters bracketing the traffic.
#[derive(Debug, Clone, Copy)]
struct ServerCounters {
    submitted: u64,
    hits: u64,
    coalesced: u64,
    preemptions: u64,
    shed: u64,
}

impl ServerCounters {
    fn now() -> ServerCounters {
        ServerCounters {
            submitted: tm::SERVER_JOBS_SUBMITTED_TOTAL.get(),
            hits: tm::SERVER_CACHE_HITS_TOTAL.get(),
            coalesced: tm::SERVER_JOBS_COALESCED_TOTAL.get(),
            preemptions: tm::SERVER_PREEMPTIONS_TOTAL.get(),
            shed: tm::SERVER_SHED_TOTAL.get(),
        }
    }
}

/// Checks a cold artifact with the physical-invariant gate.
fn verify_artifact(
    container: &Container,
    yaml: &str,
    bytes: &[u8],
    packed: Option<usize>,
) -> Result<Quality, String> {
    let cfg = PackingConfig::from_str(yaml).map_err(|e| e.to_string())?;
    let psd = cfg.psds().into_iter().next().ok_or("no particle sets")?;
    let params = cfg.to_packing_params();
    let target = container.capacity_estimate(psd.mean(), 0.6);
    let particles = parse_artifact(bytes)?;
    let packed = packed.ok_or("status reported no packed count")?;
    verify_packing(container, &particles, &psd, &params, packed, target)
}

/// `serve_mixed`: set the server up several times, run the open-loop
/// traffic against the last one, then check every artifact and compare
/// one job per class with a direct library pack of the same YAML.
pub fn run(cfg: &Config, out: &mut Outcome, tracer: &mut Tracer) -> Result<(), String> {
    let n = if cfg.tiny {
        24
    } else {
        (cfg.seconds / INTERVAL.as_secs_f64()).round().max(1.0) as usize
    };
    let plan = serve_plan(cfg.seed, n);
    let dir = cfg.work_dir.join("inputs");
    write_meshes(&dir, Workload::ServeMixed, cfg.tiny).map_err(|e| e.to_string())?;
    let mut first: HashMap<String, Vec<u8>> = HashMap::new();

    let setups = if cfg.tiny { 2 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut set_up_server = |k: usize, first: &mut HashMap<String, Vec<u8>>| {
        let opts = serve_options(cfg.work_dir.join(format!("server{k}")), &dir);
        let (h, pool, secs) = start(tracer, k, opts, &plan, first)?;
        setup_s.push(secs);
        Ok::<_, String>((h, pool))
    };
    let mut server = set_up_server(0, &mut first)?;
    for k in 1..setups / 2 {
        server.0.shutdown();
        server = set_up_server(k, &mut first)?;
    }
    let (handle, pool) = server;
    let addr = handle.addr();

    let before = ServerCounters::now();
    let jobs = traffic(addr, &plan, INTERVAL, &mut first);
    let after = ServerCounters::now();
    handle.shutdown();
    for k in setups / 2..setups {
        set_up_server(k, &mut first)?.0.shutdown();
    }

    // Latency, SLO, generator lag, backlog.
    out.attempted += n as u64;
    let mut latencies = Vec::new();
    let mut lags = Vec::new();
    let mut slo_met = 0usize;
    let mut backlog = 0usize;
    let last_send = jobs
        .last()
        .and_then(|j| j.scheduled)
        .ok_or("empty schedule")?;
    for (i, j) in jobs.iter().enumerate() {
        if let Some(e) = &j.error {
            out.fail(format!("job {i}: {e}"));
        }
        if let (Some(s), Some(at)) = (j.sent, j.scheduled) {
            lags.push((s - at).as_secs_f64() * 1e3);
        }
        match j.latency() {
            Some(l) if j.error.is_none() => {
                latencies.push(l.as_secs_f64() * 1e3);
                slo_met += usize::from(l <= SLO);
            }
            _ => {}
        }
        if j.done.is_none_or(|d| d > last_send + SLO) {
            backlog += 1;
        }
    }
    put_latency(out, &latencies);
    out.put("setup_s", crate::stats::median(&setup_s), setup_s.len());
    let lag_p98 = quantile(&sorted(&lags), 0.98);
    out.put(
        "gen.lag_frac",
        lag_p98 / (INTERVAL.as_secs_f64() * 1e3),
        lags.len(),
    );
    out.put("serve.slo_met_frac", slo_met as f64 / n as f64, n);
    out.put("server.backlog_end", backlog as f64, n);
    let valid = lag_p98 <= 5.0 && backlog == 0;
    out.note("valid", valid);
    out.note("gen_lag_p98_ms", lag_p98);

    // Layer shares of latency.
    let (mut cold_lat, mut cold_run, mut cold_http, mut hit_lat, mut hit_http) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut requests = 0u64;
    for j in &jobs {
        requests += 1 + u64::from(j.polls) + u64::from(j.artifact.is_some());
        let Some(l) = j.latency() else { continue };
        let (l, http) = (l.as_secs_f64(), j.http_time().as_secs_f64());
        if j.outcome == "hit" {
            hit_lat += l;
            hit_http += http;
        } else {
            cold_lat += l;
            cold_http += http;
            cold_run += (j.status.consumed_ms / 1e3).min(l);
        }
    }
    let frac = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.put("http.requests_per_job", requests as f64 / n as f64, n);
    out.put("http.hit_frac", frac(hit_http, hit_lat), n);
    out.put("worker.run_frac", frac(cold_run, cold_lat), n);
    out.put(
        "queue.wait_frac",
        frac((cold_lat - cold_run - cold_http).max(0.0), cold_lat),
        n,
    );
    let submitted = after.submitted - before.submitted;
    out.put(
        "cache.hit_ratio",
        frac((after.hits - before.hits) as f64, submitted as f64),
        n,
    );
    out.put(
        "cache.coalesced",
        (after.coalesced - before.coalesced) as f64,
        n,
    );
    out.put(
        "sched.preemptions",
        (after.preemptions - before.preemptions) as f64,
        n,
    );
    out.put("admission.shed", (after.shed - before.shed) as f64, n);

    // Every cold artifact (and the pool) through the checker.
    let container = {
        let mesh =
            adampack_io::read_stl_path(dir.join("job_box.stl")).map_err(|e| e.to_string())?;
        Container::from_mesh(&mesh).map_err(|e| e.to_string())?
    };
    let mut quality = Vec::new();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (i, (sj, j)) in plan.jobs.iter().zip(&jobs).enumerate() {
        if matches!(sj.kind, JobKind::Hit(_)) || j.done.is_none() {
            continue;
        }
        let bytes = first.get(&j.addr).ok_or("cold artifact missing")?;
        match verify_artifact(&container, &sj.yaml, bytes, j.status.packed) {
            Ok(q) => {
                digest = (digest ^ q.digest).wrapping_mul(0x100_0000_01b3);
                quality.push(q);
            }
            Err(e) => out.fail(format!("job {i}: {e}")),
        }
    }
    for (k, yaml) in plan.pool.iter().enumerate() {
        out.attempted += 1;
        let bytes = first.get(&pool[k]).ok_or("pool artifact missing")?;
        let packed = parse_artifact(bytes)?.len();
        if let Err(e) = verify_artifact(&container, yaml, bytes, Some(packed)) {
            out.fail(format!("pool {k}: {e}"));
        }
    }
    out.digests.push(("serve_mixed.cold".into(), digest));
    put_quality(out, &quality);

    // One job per class against a direct library pack of the same YAML.
    // These reference packs also feed the packing-layer metrics.
    let classes = [
        Some((plan.pool[0].clone(), pool[0].clone(), "pool")),
        class_pick(&plan, &jobs, JobKind::Short, "short"),
        class_pick(&plan, &jobs, JobKind::Long, "long"),
    ];
    let mut times = SetupTimes::default();
    let mut totals = BatchTotals::default();
    let mut ctr = Counters::default();
    let mut write_ms = Vec::new();
    let mut packs = 0;
    let mut pack_s = 0.0;
    let mut last = None;
    for (c, class) in classes.into_iter().enumerate() {
        out.attempted += 1;
        let Some((yaml, hex, name)) = class else {
            out.fail(format!("class check {c}: no completed job of this class"));
            continue;
        };
        let id = REFERENCE_ID + c as u64;
        let path = dir.join(format!("reference_{name}.yaml"));
        std::fs::write(&path, &yaml).map_err(|e| e.to_string())?;
        let (mut s, prog, _) = set_up(tracer, id, &path, None, &mut times)?;
        let before = Counters::now();
        let csv = cfg.work_dir.join(format!("reference_{name}.csv"));
        let (result, latency, write) = pack_to_csv(tracer, id, &mut s, prog, &csv)?;
        ctr.accumulate(&before);
        totals.add(&result.batches, times.planes);
        write_ms.push(write);
        packs += 1;
        pack_s += latency / 1e3;
        let direct = std::fs::read(&csv).map_err(|e| e.to_string())?;
        if first.get(&hex) != Some(&direct) {
            out.fail(format!(
                "class {name}: server artifact {hex} differs from a direct pack"
            ));
        }
        out.digests.push((
            format!("serve_mixed.{name}"),
            crate::check::digest(&result.particles),
        ));
        last = Some((s, result));
    }
    let probes = match (&last, cfg.trace) {
        (Some((s, r)), true) => {
            layers::probe(&s.container, &s.params, &r.particles, &cfg.work_dir)?
        }
        _ => Probes::default(),
    };
    layers::put_packing_layers(out, packs, &times, &totals, &ctr, &write_ms, &probes);
    out.put(
        "batch.passes",
        totals.batches as f64 / packs.max(1) as f64,
        packs,
    );
    out.put("batch.parallelism", totals.busy_s / pack_s, packs);

    if tracer.enabled() {
        for (i, j) in jobs.iter().enumerate() {
            let (Some(at), Some(end)) = (j.scheduled, j.done.or(j.replied)) else {
                continue;
            };
            let id = i as u64;
            let root = tracer.record("job", None, id, at, end);
            for (name, span) in [
                ("http.submit", j.sent.zip(j.replied)),
                ("http.poll", j.last_poll),
                ("http.artifact", j.artifact),
            ] {
                if let Some((a, b)) = span {
                    tracer.record(name, root, id, a, b);
                }
            }
        }
    }
    Ok(())
}

/// The first completed job of `kind`: its YAML and address.
fn class_pick(
    plan: &ServePlan,
    jobs: &[Job],
    kind: JobKind,
    name: &'static str,
) -> Option<(String, String, &'static str)> {
    plan.jobs
        .iter()
        .zip(jobs)
        .find(|(sj, j)| sj.kind == kind && j.done.is_some())
        .map(|(sj, j)| (sj.yaml.clone(), j.addr.clone(), name))
}
