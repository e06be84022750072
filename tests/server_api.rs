//! End-to-end tests for the packing job server (`crates/server`):
//!
//! * **Cache correctness** — a submitted job's artifact is byte-identical
//!   to the same config run directly through `run_pack_opts`, and a
//!   duplicate submission is answered from the cache (`outcome: hit`)
//!   with the same bytes.
//! * **Coalescing + cancel** — duplicate submissions of an in-flight job
//!   coalesce onto one run; cancel takes a queued job out of the queue.
//! * **Fair-share preemption** — a short job submitted behind a long one
//!   completes without waiting for it, and the preempted long job still
//!   finishes bitwise identical to a never-preempted run (checkpoint-
//!   shaped preemption at exact batch boundaries).
//! * **Crash recovery** — a SIGKILL-shaped worker death (in-process via
//!   the `server.worker.crash` failpoint) leaves the rotating disk
//!   checkpoints behind; a fresh server on the same data dir resumes the
//!   resubmitted job from the newest *valid* checkpoint (the newest file
//!   is corrupted on purpose) and produces byte-identical output.
//!
//! Servers bind `127.0.0.1:0`. Every test holds a `failpoints::FailGuard`
//! for its whole body: it guards the process-global failpoint registry and
//! serializes the tests around the process-global telemetry counters.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use adampack_cli::{run_pack_opts, PackOptions};
use adampack_geometry::{shapes, Vec3};
use adampack_io::{checkpoint_candidates, write_stl_ascii};
use adampack_server::{client, ServeOptions, Server, ServerHandle, FAILPOINT_WORKER_CRASH};
use failpoints::FailGuard;

/// A fresh per-test directory holding the container asset; configs and
/// server data live under it too.
fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adampack_server_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mesh = shapes::box_mesh(Vec3::ZERO, Vec3::splat(1.0));
    let f = std::fs::File::create(dir.join("box.stl")).unwrap();
    write_stl_ascii(std::io::BufWriter::new(f), &mesh, "box").unwrap();
    dir
}

/// A servable single-set config in the unit box; `radius` controls run
/// length through the capacity estimate (larger radius = fewer
/// particles = faster job).
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
        queue_shards: 4,
        data_dir: dir.join("data"),
        config_base: dir.to_path_buf(),
        slice_ms: 3_000,
        checkpoint_every: 100,
        keep_last: 3,
        limits: Default::default(),
    };
    opts_fn(&mut opts);
    Server::start(opts).unwrap()
}

/// The reference bytes: the same config run directly through the CLI
/// runner with `--out <csv>`.
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

/// Submits and asserts HTTP 200, returning `(address, outcome)`.
fn submit_ok(addr: std::net::SocketAddr, yaml: &str) -> (String, String) {
    let (code, body) = client::submit(addr, yaml).unwrap();
    assert_eq!(code, 200, "{}", String::from_utf8_lossy(&body));
    (
        client::json_str_field(&body, "address").unwrap(),
        client::json_str_field(&body, "outcome").unwrap(),
    )
}

/// Reads an integer field out of a flat JSON object body.
fn json_u64_field(body: &[u8], field: &str) -> Option<u64> {
    let s = std::str::from_utf8(body).ok()?;
    let needle = format!("\"{field}\":");
    let start = s.find(&needle)? + needle.len();
    let digits: String = s[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Scrapes one counter value from `/metrics`.
fn metric(addr: std::net::SocketAddr, name: &str) -> u64 {
    let (code, body) = client::get(addr, "/metrics").unwrap();
    assert_eq!(code, 200);
    let text = String::from_utf8(body).unwrap();
    text.lines()
        .find(|l| l.starts_with(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{name} not in metrics:\n{text}"))
}

#[test]
fn artifact_matches_direct_run_and_duplicates_hit_the_cache() {
    let _fp = FailGuard::unarmed();
    let dir = test_dir("bytes");
    let yaml = config(0.16, 7);
    let reference = direct_csv(&dir, &yaml, "direct");

    let server = serve(&dir, |_| {});
    let addr = server.addr();
    let hits_before = metric(addr, "adampack_server_cache_hits_total");

    let (hex, outcome) = submit_ok(addr, &yaml);
    assert_eq!(outcome, "scheduled");
    assert_eq!(
        client::wait_terminal(addr, &hex, Duration::from_secs(120)).unwrap(),
        "done"
    );
    let artifact = client::artifact(addr, &hex).unwrap();
    assert!(!artifact.is_empty());
    assert_eq!(
        artifact, reference,
        "server artifact differs from direct run"
    );

    // A semantically-equal spelling — keys reordered, defaults spelled
    // out, a different thread count and the naive neighbor strategy —
    // must hash to the same address and be answered from the cache.
    let respelled = r#"
algorithm: "COLLECTIVE_ARRANGEMENT"
particle_sets:
    - radius_value: 0.16
      radius_distribution: "constant"
container:
    path: "box.stl"
neighbor:
    strategy: "naive"
params:
    seed: 7
    batch_size: 40
    patience: 30
    n_epoch: 300
    lr: 0.01
    threads: 3
"#;
    let (hex2, outcome2) = submit_ok(addr, respelled);
    assert_eq!(hex2, hex, "equivalent configs must share one address");
    assert_eq!(outcome2, "hit");
    assert_eq!(client::artifact(addr, &hex2).unwrap(), reference);
    assert!(metric(addr, "adampack_server_cache_hits_total") > hits_before);

    // Restarting on the same data dir serves the artifact from disk
    // without recomputing anything.
    server.shutdown();
    let server = serve(&dir, |_| {});
    let (hex3, outcome3) = submit_ok(server.addr(), &yaml);
    assert_eq!(hex3, hex);
    assert_eq!(outcome3, "hit");
    assert_eq!(client::artifact(server.addr(), &hex3).unwrap(), reference);
    server.shutdown();
}

/// The address ignores the neighbor strategy, so the spelling that
/// reaches the server first must not pick the plan: a `naive` submission
/// on a cache miss runs on the Verlet lists (the exhaustive oracle never
/// rebuilds one) and packs the default bytes, which a default-spelled
/// resubmission then hits.
#[test]
fn naive_submission_runs_on_the_verlet_lists() {
    let _fp = FailGuard::unarmed();
    let dir = test_dir("naive");
    let yaml = config(0.16, 11);
    let reference = direct_csv(&dir, &yaml, "direct");
    let naive = format!("{yaml}neighbor:\n    strategy: \"naive\"\n");

    let server = serve(&dir, |_| {});
    let addr = server.addr();
    let rebuilds_before = metric(addr, "adampack_verlet_rebuilds_total");
    let (hex, outcome) = submit_ok(addr, &naive);
    assert_eq!(outcome, "scheduled");
    assert_eq!(
        client::wait_terminal(addr, &hex, Duration::from_secs(120)).unwrap(),
        "done"
    );
    assert!(
        metric(addr, "adampack_verlet_rebuilds_total") > rebuilds_before,
        "the job ran on the naive scans"
    );
    assert_eq!(client::artifact(addr, &hex).unwrap(), reference);

    let (hex2, outcome2) = submit_ok(addr, &yaml);
    assert_eq!(hex2, hex, "strategy spellings must share one address");
    assert_eq!(outcome2, "hit");
    server.shutdown();
}

#[test]
fn requests_are_validated_and_duplicates_coalesce_until_cancelled() {
    let _fp = FailGuard::unarmed();
    let dir = test_dir("coalesce");
    let server = serve(&dir, |o| o.workers = 1);
    let addr = server.addr();

    // Validation: malformed YAML, non-servable algorithm, bad addresses.
    let (code, _) = client::submit(addr, ": not yaml").unwrap();
    assert_eq!(code, 400);
    let (code, body) = client::submit(
        addr,
        &config(0.16, 1).replace("COLLECTIVE_ARRANGEMENT", "RSA"),
    )
    .unwrap();
    assert_eq!(code, 400, "{}", String::from_utf8_lossy(&body));
    // Deleted knob values (the mixed-precision kernel, the grid strategy)
    // are config errors naming the accepted values.
    let removed = [
        (
            config(0.16, 1).replace(
                "params:\n",
                concat!("params:\n    kernel: simd_", "mixed\n"),
            ),
            "'scalar' or 'simd'",
        ),
        (
            format!("{}neighbor:\n    strategy: grid\n", config(0.16, 1)),
            "'auto', 'verlet' or 'naive'",
        ),
    ];
    for (yaml, accepted) in removed {
        let (code, body) = client::submit(addr, &yaml).unwrap();
        let body = String::from_utf8_lossy(&body);
        assert_eq!(code, 400, "{body}");
        assert!(body.contains(accepted), "{body}");
    }
    // Numbers the packer cannot take are 400s naming the key. Each used to
    // panic the HTTP thread that resolved it; more of them than the server
    // has HTTP threads left it answering nothing.
    let hostile = [
        (config(-0.1, 1), "particle_sets[0].radius_value"),
        (config(f64::NAN, 1), "particle_sets[0].radius_value"),
        (
            config(0.16, 1).replace("lr: 0.01", "lr: 1e999"),
            "params.lr",
        ),
    ];
    for (yaml, key) in hostile {
        let (code, body) = client::submit(addr, &yaml).unwrap();
        let body = String::from_utf8_lossy(&body);
        assert_eq!(code, 400, "{body}");
        assert!(body.contains(key), "{body}");
    }
    let (code, _) = client::get(addr, "/jobs/zzzz").unwrap();
    assert_eq!(code, 400);
    let (code, _) = client::get(addr, "/jobs/00000000deadbeef").unwrap();
    assert_eq!(code, 404);
    let (code, _) = client::get(addr, "/healthz").unwrap();
    assert_eq!(code, 200);

    // Two slow jobs on one worker: the second stays queued, duplicates
    // of either coalesce instead of scheduling twice.
    let busy = config(0.11, 21);
    let queued = config(0.11, 22);
    let (busy_hex, o1) = submit_ok(addr, &busy);
    assert_eq!(o1, "scheduled");
    let (_, o2) = submit_ok(addr, &queued);
    assert_eq!(o2, "scheduled");
    let (queued_hex, o3) = submit_ok(addr, &queued);
    assert_eq!(o3, "coalesced");
    assert_ne!(busy_hex, queued_hex, "different seeds are different jobs");

    // Cancel the queued job: it must go terminal without an artifact.
    let (code, body) = client::post(addr, &format!("/jobs/{queued_hex}/cancel"), b"").unwrap();
    assert_eq!(code, 200, "{}", String::from_utf8_lossy(&body));
    let status = client::wait_terminal(addr, &queued_hex, Duration::from_secs(60)).unwrap();
    assert_eq!(status, "cancelled");
    let (code, _) = client::get(addr, &format!("/jobs/{queued_hex}/artifact")).unwrap();
    assert_eq!(code, 404, "a cancelled job has no artifact");

    // The busy job is unaffected.
    assert_eq!(
        client::wait_terminal(addr, &busy_hex, Duration::from_secs(120)).unwrap(),
        "done"
    );
    server.shutdown();
}

#[test]
fn fair_share_preempts_the_long_job_without_changing_its_bytes() {
    let _fp = FailGuard::unarmed();
    let dir = test_dir("preempt");
    // Size the long job from measured solo durations. Under fair share the
    // two jobs progress at about the same rate, so the short one finishes
    // first by a clear margin only if the long one carries several times
    // its work; release builds run a fixed-size pair too fast for that.
    // A smaller radius means more particles and a longer run.
    let timed = |yaml: &str, tag: &str| {
        let t = Instant::now();
        let bytes = direct_csv(&dir, yaml, tag);
        (bytes, t.elapsed())
    };
    let short = config(0.18, 5);
    let (_, short_solo) = timed(&short, "short_solo");
    let (long, reference) = [0.105, 0.09, 0.08, 0.07, 0.06, 0.05]
        .into_iter()
        .map(|radius| config(radius, 3))
        .find_map(|yaml| {
            let (bytes, solo) = timed(&yaml, "long_solo");
            (solo >= 3 * short_solo).then_some((yaml, bytes))
        })
        .expect("no long job reached three times the short job's solo duration");

    // One worker, tiny slice: the long job must yield at a batch
    // boundary once the short job is waiting behind it.
    let server = serve(&dir, |o| {
        o.workers = 1;
        o.slice_ms = 10;
    });
    let addr = server.addr();
    let (long_hex, _) = submit_ok(addr, &long);

    // Wait until the long job actually owns the worker.
    let t0 = Instant::now();
    loop {
        let (_, body) = client::get(addr, &format!("/jobs/{long_hex}")).unwrap();
        if client::json_str_field(&body, "status").as_deref() == Some("running") {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "long job never started"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let (short_hex, _) = submit_ok(addr, &short);

    // The two jobs' status history, sampled every millisecond: each sample
    // reads the short job, then the long one, and the history keeps every
    // change. The sample that first sees the short job done must then see
    // the long one still in flight — it was preempted, not waited out. A
    // fine sampling period matters: in release builds the long job's
    // remainder after the short one finishes is a few tens of
    // milliseconds, inside a coarser poll's blind spot.
    let status = |hex: &str| {
        let (_, body) = client::get(addr, &format!("/jobs/{hex}")).unwrap();
        client::json_str_field(&body, "status").unwrap()
    };
    let mut history: Vec<(String, String)> = Vec::new();
    let t0 = Instant::now();
    loop {
        let sample = (status(&short_hex), status(&long_hex));
        if history.last() != Some(&sample) {
            history.push(sample.clone());
        }
        if sample.0 == "done" {
            break;
        }
        assert!(
            matches!(sample.0.as_str(), "queued" | "running"),
            "short job ended badly: {history:?}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "short job never finished: {history:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let long_status = &history.last().unwrap().1;
    assert!(
        long_status == "running" || long_status == "queued",
        "short job should finish while the long one is in flight: {history:?}"
    );

    assert_eq!(
        client::wait_terminal(addr, &long_hex, Duration::from_secs(300)).unwrap(),
        "done"
    );
    let (_, body) = client::get(addr, &format!("/jobs/{long_hex}")).unwrap();
    let preemptions = json_u64_field(&body, "preemptions").unwrap();
    assert!(
        preemptions >= 1,
        "long job was never preempted: {body:?}",
        body = String::from_utf8_lossy(&body)
    );

    // Preemption is invisible in the artifact.
    assert_eq!(
        client::artifact(addr, &long_hex).unwrap(),
        reference,
        "preempted run must be bitwise identical to the solo run"
    );
    server.shutdown();
}

#[test]
fn killed_worker_resumes_from_newest_valid_checkpoint_with_identical_bytes() {
    let fp = FailGuard::unarmed();
    let dir = test_dir("crash");
    let yaml = config(0.12, 11);
    let reference = direct_csv(&dir, &yaml, "solo");

    // Dense checkpoint cadence: every batch boundary qualifies for a save,
    // so surviving a few boundaries leaves a rotation of generations.
    let server = serve(&dir, |o| o.checkpoint_every = 5);
    let addr = server.addr();

    // Crash the worker at the third batch boundary (each earlier boundary
    // wrote a checkpoint): the job stays marked running with its disk
    // rotation intact — exactly a SIGKILL.
    fp.rearm(FAILPOINT_WORKER_CRASH, 2, 1);
    let (hex, outcome) = submit_ok(addr, &yaml);
    assert_eq!(outcome, "scheduled");
    let t0 = Instant::now();
    while failpoints::hits(FAILPOINT_WORKER_CRASH) == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "crash failpoint never hit"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    fp.reset();
    server.shutdown();

    // The dead worker left a rotation of checkpoints; corrupt the newest
    // so resume must fall back to an older valid generation.
    let ckpt = dir.join("data").join("jobs").join(format!("{hex}.ckpt"));
    let candidates = checkpoint_candidates(&ckpt, 3);
    assert!(
        candidates.len() >= 2,
        "expected a checkpoint rotation, got {candidates:?}"
    );
    let mut bytes = std::fs::read(&candidates[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&candidates[0], &bytes).unwrap();

    // A fresh server on the same data dir resumes the resubmitted job
    // from disk and finishes byte-identical to the uninterrupted run.
    let server = serve(&dir, |_| {});
    let addr = server.addr();
    let resumed_before = metric(addr, "adampack_server_jobs_resumed_total");
    let (hex2, outcome2) = submit_ok(addr, &yaml);
    assert_eq!(hex2, hex, "same config, same address across restarts");
    assert_eq!(outcome2, "scheduled", "no artifact yet, so the job reruns");
    assert_eq!(
        client::wait_terminal(addr, &hex2, Duration::from_secs(300)).unwrap(),
        "done"
    );
    assert!(
        metric(addr, "adampack_server_jobs_resumed_total") > resumed_before,
        "the job must resume from disk, not restart"
    );
    assert_eq!(
        client::artifact(addr, &hex2).unwrap(),
        reference,
        "resumed run must be bitwise identical to the uninterrupted run"
    );
    server.shutdown();
}
