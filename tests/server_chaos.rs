//! Chaos and hardening tests for the job server (`crates/server`):
//!
//! * **Admission control** — a job predicted to exceed the memory budget
//!   is rejected outright (413); a full queue sheds with 429 and a
//!   `Retry-After` header while `/readyz` goes red and `/healthz` stays
//!   green.
//! * **Disk exhaustion** — with the `io.write.enospc` failpoint armed,
//!   a finished job's artifact write degrades to load shedding (result
//!   parked, `/readyz` red, new submissions 429) instead of failing the
//!   job; once the disk "recovers" the parked artifact persists and the
//!   bytes match a direct run exactly.
//! * **Bounded disk** — the artifact store stays under its configured
//!   cap, evicting LRU entries as new jobs complete.
//! * **Graceful drain** — `begin_drain` stops admission (503 with
//!   `Retry-After`) while reads keep working; the shutdown checkpoint is
//!   written through the same ledgered save path as cadence checkpoints,
//!   and a drained-then-restarted server resumes the parked job from it
//!   and produces byte-identical artifacts.
//! * **Stop wakes every HTTP thread** — `shutdown` and `drain` return
//!   with one or three HTTP threads, on a loopback or unspecified bind,
//!   and with one thread held by a silent peer.
//! * **Cancel vs preemption** — a cancel that lands while a job sits
//!   evicted in the queue wins: the job goes terminal `cancelled` (never
//!   back into the queue) and its checkpoint rotation is swept.
//! * **Per-job budgets** — a step ceiling expires the job at an exact
//!   batch boundary with its checkpoint persisted; resubmitting resumes
//!   with a fresh budget, and the artifact assembled across however many
//!   budget windows it takes is byte-identical to an unbudgeted run.
//!
//! Servers bind `127.0.0.1:0` (one wake case binds `0.0.0.0:0`). Every
//! test holds a `failpoints::FailGuard` for its whole body: it guards the
//! process-global failpoint registry and serializes the tests around the
//! process-global telemetry counters.

use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use adampack_cli::{run_pack_opts, PackOptions};
use adampack_geometry::{shapes, Vec3};
use adampack_io::{checkpoint_candidates, write_stl_ascii, FAILPOINT_WRITE_ENOSPC};
use adampack_server::{client, ServeOptions, Server, ServerHandle};
use failpoints::FailGuard;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adampack_chaos_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mesh = shapes::box_mesh(Vec3::ZERO, Vec3::splat(1.0));
    let f = std::fs::File::create(dir.join("box.stl")).unwrap();
    write_stl_ascii(std::io::BufWriter::new(f), &mesh, "box").unwrap();
    dir
}

fn config(radius: f64, seed: u64) -> String {
    format!(
        r#"
container:
    path: "box.stl"
algorithm: "COLLECTIVE_ARRANGEMENT"
params:
    lr: 0.01
    n_epoch: 300
    patience: 30
    batch_size: 40
    seed: {seed}
particle_sets:
    - radius_distribution: "constant"
      radius_value: {radius}
"#
    )
}

fn serve(dir: &Path, opts_fn: impl FnOnce(&mut ServeOptions)) -> ServerHandle {
    let mut opts = ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        http_threads: 1,
        queue_shards: 1,
        data_dir: dir.join("data"),
        config_base: dir.to_path_buf(),
        slice_ms: 3_000,
        checkpoint_every: 0,
        keep_last: 3,
        limits: Default::default(),
    };
    opts_fn(&mut opts);
    Server::start(opts).unwrap()
}

fn direct_csv(dir: &Path, yaml: &str, tag: &str) -> Vec<u8> {
    let cfg_path = dir.join(format!("{tag}.yaml"));
    std::fs::write(&cfg_path, yaml).unwrap();
    let out = dir.join(format!("{tag}.csv"));
    let opts = PackOptions {
        out: Some(out.clone()),
        ..PackOptions::default()
    };
    run_pack_opts(&cfg_path, &opts).unwrap();
    std::fs::read(&out).unwrap()
}

fn submit_ok(addr: SocketAddr, yaml: &str) -> (String, String) {
    let (code, body) = client::submit(addr, yaml).unwrap();
    assert_eq!(code, 200, "{}", String::from_utf8_lossy(&body));
    (
        client::json_str_field(&body, "address").unwrap(),
        client::json_str_field(&body, "outcome").unwrap(),
    )
}

fn metric(addr: SocketAddr, name: &str) -> u64 {
    let (code, body) = client::get(addr, "/metrics").unwrap();
    assert_eq!(code, 200);
    let text = String::from_utf8(body).unwrap();
    text.lines()
        .find(|l| l.starts_with(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{name} not in metrics:\n{text}"))
}

/// Sends a raw request and returns the status code plus the full head
/// (the std client hides headers; shedding tests need `Retry-After`).
fn raw_request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("no response head");
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let code = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("no status code");
    (code, head)
}

/// Polls `GET /jobs/{hex}` until `pred(status_body)` holds.
fn wait_for(addr: SocketAddr, hex: &str, what: &str, pred: impl Fn(&str) -> bool) {
    let t0 = Instant::now();
    loop {
        let (_, body) = client::get(addr, &format!("/jobs/{hex}")).unwrap();
        if pred(&String::from_utf8_lossy(&body)) {
            return;
        }
        assert!(t0.elapsed() < Duration::from_secs(120), "timed out: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn overload_sheds_with_429_and_oversize_is_rejected_with_413() {
    let _fp = FailGuard::unarmed();
    let dir = test_dir("overload");

    // One worker, one shard, queue depth 1: the second queued job
    // saturates admission.
    let server = serve(&dir, |o| o.limits.queue_depth = 1);
    let addr = server.addr();
    let shed_before = metric(addr, "adampack_server_shed_total");

    // Radius 0.05 jobs run for seconds (~1100 particles): job A holds
    // the worker for the whole admission-probing sequence below.
    let (a_hex, _) = submit_ok(addr, &config(0.05, 31));
    wait_for(addr, &a_hex, "job A running", |s| s.contains("\"running\""));
    let (_b_hex, o) = submit_ok(addr, &config(0.05, 32));
    assert_eq!(o, "scheduled");

    // Queue full: the third distinct job is shed with 429 + Retry-After,
    // readiness goes red, liveness stays green.
    let (code, head) = raw_request(addr, "POST", "/jobs", config(0.05, 33).as_bytes());
    assert_eq!(code, 429, "{head}");
    assert!(head.contains("Retry-After:"), "no Retry-After in:\n{head}");
    assert!(metric(addr, "adampack_server_shed_total") > shed_before);
    let (code, body) = client::get(addr, "/readyz").unwrap();
    assert_eq!(code, 503);
    assert!(String::from_utf8_lossy(&body).contains("queues full"));
    let (code, _) = client::get(addr, "/healthz").unwrap();
    assert_eq!(code, 200, "a loaded server is healthy, just not ready");

    // Duplicates of an in-flight job still coalesce — shedding only
    // applies to *new* work.
    let (_, o) = submit_ok(addr, &config(0.05, 32));
    assert_eq!(o, "coalesced");

    // Cancelling the queued job makes room again.
    let (code, _) = client::post(addr, &format!("/jobs/{_b_hex}/cancel"), b"").unwrap();
    assert_eq!(code, 200);
    let (_, o) = submit_ok(addr, &config(0.16, 34));
    assert_eq!(o, "scheduled");
    server.shutdown();

    // A job whose predicted peak exceeds the whole budget is a permanent
    // 413 (no Retry-After: retrying is pointless).
    let rejected_before = metric_snapshot("adampack_server_rejected_oversize_total");
    let server = serve(&dir, |o| o.limits.memory_budget_bytes = 1);
    let addr = server.addr();
    let (code, head) = raw_request(addr, "POST", "/jobs", config(0.16, 35).as_bytes());
    assert_eq!(code, 413, "{head}");
    assert!(!head.contains("Retry-After:"), "413 must not advise retry");
    assert!(metric(addr, "adampack_server_rejected_oversize_total") > rejected_before);
    server.shutdown();
}

/// Reads a process-global counter without a live server (between server
/// instances in one test).
fn metric_snapshot(name: &str) -> u64 {
    adampack_telemetry::prometheus_snapshot()
        .lines()
        .find(|l| l.starts_with(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[test]
fn disk_full_degrades_to_shedding_and_recovers_without_losing_the_result() {
    let fp = FailGuard::unarmed();
    let dir = test_dir("enospc");
    let yaml = config(0.16, 41);
    let reference = direct_csv(&dir, &yaml, "direct");

    let server = serve(&dir, |_| {});
    let addr = server.addr();
    let full_before = metric(addr, "adampack_server_disk_full_total");

    // Every artifact write now fails with ENOSPC.
    fp.rearm(FAILPOINT_WRITE_ENOSPC, 0, u64::MAX);
    let (hex, o) = submit_ok(addr, &yaml);
    assert_eq!(o, "scheduled");

    // The job finishes packing but cannot persist: the result is parked,
    // the disk-full latch trips readiness and sheds new submissions.
    let t0 = Instant::now();
    loop {
        let (code, body) = client::get(addr, "/readyz").unwrap();
        if code == 503 && String::from_utf8_lossy(&body).contains("disk full") {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "readyz never went red on a full disk"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(metric(addr, "adampack_server_disk_full_total") > full_before);
    let (code, head) = raw_request(addr, "POST", "/jobs", config(0.16, 42).as_bytes());
    assert_eq!(code, 429, "{head}");
    assert!(head.contains("Retry-After:"));
    let (code, _) = client::get(addr, "/healthz").unwrap();
    assert_eq!(code, 200);

    // The disk "recovers": the parked artifact persists on the worker's
    // next retry — no recomputation, identical bytes.
    fp.reset();
    assert_eq!(
        client::wait_terminal(addr, &hex, Duration::from_secs(120)).unwrap(),
        "done"
    );
    assert_eq!(client::artifact(addr, &hex).unwrap(), reference);
    let t0 = Instant::now();
    loop {
        let (code, _) = client::get(addr, "/readyz").unwrap();
        if code == 200 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "readyz never recovered after the disk freed up"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn artifact_store_stays_under_its_byte_cap() {
    let _fp = FailGuard::unarmed();
    let dir = test_dir("cap");

    // Size the cap from a real artifact: room for about two, never six.
    let sample = direct_csv(&dir, &config(0.16, 49), "sample");
    let cap = (sample.len() as u64) * 5 / 2;

    let server = serve(&dir, |o| o.limits.cache_cap_bytes = cap);
    let addr = server.addr();
    let evictions_before = metric(addr, "adampack_server_cache_evictions_total");

    // Complete enough distinct jobs that their artifacts cannot all fit.
    let mut hexes = Vec::new();
    for seed in 50..56 {
        let (hex, o) = submit_ok(addr, &config(0.16, seed));
        assert_eq!(o, "scheduled");
        assert_eq!(
            client::wait_terminal(addr, &hex, Duration::from_secs(120)).unwrap(),
            "done"
        );
        hexes.push(hex);
    }
    let artifacts = dir.join("data").join("artifacts");
    let total: u64 = std::fs::read_dir(&artifacts)
        .unwrap()
        .flatten()
        .map(|e| e.metadata().map(|m| m.len()).unwrap_or(0))
        .sum();
    assert!(
        total <= cap,
        "artifact store holds {total} bytes, cap is {cap}"
    );
    assert!(
        metric(addr, "adampack_server_cache_evictions_total") > evictions_before,
        "eviction never ran"
    );
    // The newest artifact survived the LRU sweep.
    let (code, _) =
        client::get(addr, &format!("/jobs/{}/artifact", hexes.last().unwrap())).unwrap();
    assert_eq!(code, 200);
    server.shutdown();
}

#[test]
fn drain_stops_admission_and_a_restart_resumes_with_identical_bytes() {
    let _fp = FailGuard::unarmed();
    let dir = test_dir("drain");
    // A multi-second job: the drain provably interrupts it mid-flight.
    let yaml = config(0.05, 61);
    let reference = direct_csv(&dir, &yaml, "solo");

    // With a cadence the drain's checkpoint joins a rotation of boundary
    // captures; without one (0) it is the only checkpoint the job has.
    for every in [5, 0] {
        let _ = std::fs::remove_dir_all(dir.join("data"));
        let server = serve(&dir, |o| o.checkpoint_every = every);
        let addr = server.addr();
        let (hex, o) = submit_ok(addr, &yaml);
        assert_eq!(o, "scheduled");
        wait_for(addr, &hex, "job mid-flight", |s| s.contains("\"running\""));

        // SIGTERM semantics: admission stops immediately, reads keep
        // working while the worker parks the job at its next batch
        // boundary.
        server.begin_drain();
        let (code, head) = raw_request(addr, "POST", "/jobs", config(0.16, 62).as_bytes());
        assert_eq!(code, 503, "{head}");
        assert!(head.contains("Retry-After:"));
        let (code, body) = client::get(addr, "/readyz").unwrap();
        assert_eq!(code, 503);
        assert!(String::from_utf8_lossy(&body).contains("draining"));
        let (code, _) = client::get(addr, "/healthz").unwrap();
        assert_eq!(code, 200, "never restart a draining server");
        let (code, _) = client::get(addr, &format!("/jobs/{hex}")).unwrap();
        assert_eq!(code, 200, "status reads must survive the drain window");
        server.drain();

        // The drain left a resumable checkpoint behind, written through
        // the ledgered save path: the disk ledger accounts for every
        // checkpoint byte on disk.
        let ckpt = dir.join("data").join("jobs").join(format!("{hex}.ckpt"));
        let on_disk: u64 = checkpoint_candidates(&ckpt, 3)
            .iter()
            .map(|p| std::fs::metadata(p).unwrap().len())
            .sum();
        assert!(on_disk > 0, "drain must persist the parked job's state");
        assert_eq!(
            metric_snapshot("adampack_server_cache_bytes"),
            on_disk,
            "cadence {every}: the drain checkpoint is missing from the disk ledger"
        );

        // A fresh server on the same data dir resumes the resubmitted job
        // from the shutdown checkpoint and finishes byte-identical.
        let server = serve(&dir, |o| o.checkpoint_every = every);
        let addr = server.addr();
        let resumed_before = metric(addr, "adampack_server_jobs_resumed_total");
        let (hex2, o2) = submit_ok(addr, &yaml);
        assert_eq!(hex2, hex);
        assert_eq!(o2, "scheduled");
        assert_eq!(
            client::wait_terminal(addr, &hex2, Duration::from_secs(300)).unwrap(),
            "done"
        );
        assert!(metric(addr, "adampack_server_jobs_resumed_total") > resumed_before);
        assert_eq!(
            client::artifact(addr, &hex2).unwrap(),
            reference,
            "cadence {every}: drain/restart must be invisible in the artifact bytes"
        );
        server.shutdown();
    }
}

#[test]
fn stopping_wakes_every_http_thread() {
    let _fp = FailGuard::unarmed();
    let dir = test_dir("wake");
    for drain in [false, true] {
        for (threads, bind) in [(1, "127.0.0.1:0"), (3, "0.0.0.0:0")] {
            for stalled_peer in [false, true] {
                let case = format!(
                    "drain={drain} threads={threads} bind={bind} stalled_peer={stalled_peer}"
                );
                let _ = std::fs::remove_dir_all(dir.join("data"));
                let server = serve(&dir, |o| {
                    o.addr = bind.into();
                    o.http_threads = threads;
                    o.limits.read_timeout_ms = 500;
                });
                // An unspecified bind is reached through loopback.
                let addr = SocketAddr::from(([127, 0, 0, 1], server.addr().port()));
                let (code, _) = client::get(addr, "/healthz").unwrap();
                assert_eq!(code, 200, "{case}");
                // A peer that never sends a byte holds one thread in its
                // handler until the read timeout. The pause lets the
                // thread accept it first; the stop must return in either
                // order.
                let _silent = stalled_peer.then(|| {
                    let s = TcpStream::connect(addr).unwrap();
                    std::thread::sleep(Duration::from_millis(50));
                    s
                });
                let (tx, rx) = std::sync::mpsc::channel();
                let stopper = std::thread::spawn(move || {
                    if drain {
                        server.drain();
                    } else {
                        server.shutdown();
                    }
                    let _ = tx.send(());
                });
                // A thread left parked in accept would hang the stop for
                // good; fail instead.
                rx.recv_timeout(Duration::from_secs(30))
                    .unwrap_or_else(|_| panic!("{case}: stop never returned"));
                stopper.join().unwrap();
            }
        }
    }
}

#[test]
fn cancel_racing_a_preemption_lands_cancelled_with_no_checkpoint_debris() {
    let _fp = FailGuard::unarmed();
    let dir = test_dir("cancelrace");

    // Tiny slice + two competing jobs on one worker: the long job cycles
    // through evict/requeue constantly, with disk checkpoints rotating.
    let server = serve(&dir, |o| {
        o.slice_ms = 10;
        o.checkpoint_every = 5;
    });
    let addr = server.addr();
    let (a_hex, _) = submit_ok(addr, &config(0.06, 71));
    let (b_hex, _) = submit_ok(addr, &config(0.06, 72));

    // Wait until A has actually been preempted at least once, so it owns
    // held state and a checkpoint rotation when the cancel lands.
    wait_for(addr, &a_hex, "job A preempted", |s| {
        !s.contains("\"preemptions\":0,")
    });
    let (code, _) = client::post(addr, &format!("/jobs/{a_hex}/cancel"), b"").unwrap();
    assert_eq!(code, 200);
    assert_eq!(
        client::wait_terminal(addr, &a_hex, Duration::from_secs(60)).unwrap(),
        "cancelled",
        "cancel must win the race with eviction, never re-queue the job"
    );
    let ckpt = dir.join("data").join("jobs").join(format!("{a_hex}.ckpt"));
    let t0 = Instant::now();
    while !checkpoint_candidates(&ckpt, 3).is_empty() {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "cancelled job left checkpoint debris: {:?}",
            checkpoint_candidates(&ckpt, 3)
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let (code, _) = client::get(addr, &format!("/jobs/{a_hex}/artifact")).unwrap();
    assert_eq!(code, 404);

    // The survivor is unaffected by its rival's cancellation.
    assert_eq!(
        client::wait_terminal(addr, &b_hex, Duration::from_secs(300)).unwrap(),
        "done"
    );
    server.shutdown();
}

#[test]
fn step_ceiling_expires_jobs_and_resubmission_resumes_to_identical_bytes() {
    let _fp = FailGuard::unarmed();
    let dir = test_dir("expire");
    let yaml = config(0.14, 81);
    let reference = direct_csv(&dir, &yaml, "unbudgeted");

    // A one-step ceiling expires the job at every batch boundary: the
    // run can only advance one budget window per admission.
    let server = serve(&dir, |o| o.limits.job_step_ceiling = 1);
    let addr = server.addr();
    let expired_before = metric(addr, "adampack_server_jobs_expired_total");

    let (hex, o) = submit_ok(addr, &yaml);
    assert_eq!(o, "scheduled");
    let mut expiries = 0;
    let status = loop {
        let status = client::wait_terminal(addr, &hex, Duration::from_secs(120)).unwrap();
        if status != "expired" {
            break status;
        }
        expiries += 1;
        assert!(expiries < 100, "job never finishes under the step ceiling");
        // Expired is terminal but resumable: the status says so, and a
        // resubmission is admitted with a fresh budget.
        let (_, body) = client::get(addr, &format!("/jobs/{hex}")).unwrap();
        assert!(
            String::from_utf8_lossy(&body).contains("resubmit"),
            "expired status must tell the client how to resume"
        );
        let (hex2, o2) = submit_ok(addr, &yaml);
        assert_eq!(hex2, hex);
        assert_eq!(o2, "scheduled");
    };
    assert_eq!(status, "done");
    assert!(expiries >= 1, "the ceiling never fired");
    assert!(metric(addr, "adampack_server_jobs_expired_total") > expired_before);
    assert_eq!(
        client::artifact(addr, &hex).unwrap(),
        reference,
        "budget expiry must be invisible in the artifact bytes"
    );
    server.shutdown();
}

#[test]
fn wall_clock_deadline_expires_a_long_job() {
    let _fp = FailGuard::unarmed();
    let dir = test_dir("deadline");

    let server = serve(&dir, |o| o.limits.job_deadline_s = 1);
    let addr = server.addr();
    // ~15000 particles (the smaller radius needs the smaller step to keep
    // packing): several seconds of work even in a release build, far past
    // the deadline. (The test still runs in ~1s — expiry stops the job at
    // the first batch boundary past the deadline, not at completion.)
    let yaml = config(0.02, 91).replace("lr: 0.01", "lr: 0.005");
    let (hex, _) = submit_ok(addr, &yaml);
    assert_eq!(
        client::wait_terminal(addr, &hex, Duration::from_secs(120)).unwrap(),
        "expired",
        "a multi-second job must expire under a 1s deadline"
    );
    // The deadline was enforced at a boundary with the state persisted.
    let ckpt = dir.join("data").join("jobs").join(format!("{hex}.ckpt"));
    assert!(!checkpoint_candidates(&ckpt, 3).is_empty());
    server.shutdown();
}
