//! Checkpoint overhead guard (DESIGN.md "Fault tolerance").
//!
//! Runs the identical packing three ways and compares wall-clock:
//!
//! * **off** — no checkpoint sink installed,
//! * **encode** — an in-memory sink at the given cadence: pays the full
//!   batch-boundary state capture and binary encode (sections + CRCs),
//! * **file** — the production sink: encode plus the atomic
//!   temp-write/fsync/rename and `keep_last` rotation on a real file.
//!
//! Checkpoints are pure reads at batch boundaries, so all three modes are
//! asserted bitwise identical (neither the cadence nor the sink may feed
//! back into the dynamics), as is every repeat of each mode. Results go to
//! stdout and `target/experiments/BENCH_checkpoint.json`.

use adampack_bench::{cli, experiments_dir, json_str, secs, timed, JsonReport};
use adampack_core::prelude::*;
use adampack_geometry::{shapes, Vec3};
use adampack_io::RotatingCheckpointWriter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn packer(target: usize, batch: usize) -> CollectivePacker {
    let mesh = shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0));
    let container = Container::from_mesh(&mesh).unwrap();
    let params = PackingParams {
        batch_size: batch,
        target_count: target,
        max_steps: 800,
        patience: 50,
        seed: 99,
        ..PackingParams::default()
    };
    CollectivePacker::new(container, params)
}

/// Counts checkpoints and bytes without retaining them.
struct CountingSink(Arc<AtomicU64>, Arc<AtomicU64>);

impl CheckpointSink for CountingSink {
    fn save(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.0.fetch_add(1, Ordering::Relaxed);
        self.1.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

struct FileSink(RotatingCheckpointWriter, Arc<AtomicU64>, Arc<AtomicU64>);

impl CheckpointSink for FileSink {
    fn save(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.1.fetch_add(1, Ordering::Relaxed);
        self.2.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.0.save(bytes).map_err(|e| e.to_string())
    }
}

struct Sample {
    seconds: f64,
    writes: u64,
    bytes: u64,
    result: PackResult,
}

fn run(mode: &str, target: usize, batch: usize, every: usize, dir: &std::path::Path) -> Sample {
    let writes = Arc::new(AtomicU64::new(0));
    let bytes = Arc::new(AtomicU64::new(0));
    let psd = Psd::uniform(0.09, 0.13);
    let mut p = BatchedPacker::plain(packer(target, batch), psd);
    match mode {
        "off" => {}
        "encode" => p.set_checkpoint_sink(
            Box::new(CountingSink(Arc::clone(&writes), Arc::clone(&bytes))),
            every,
        ),
        "file" => p.set_checkpoint_sink(
            Box::new(FileSink(
                RotatingCheckpointWriter::new(dir.join("bench.ckpt"), 2),
                Arc::clone(&writes),
                Arc::clone(&bytes),
            )),
            every,
        ),
        other => panic!("unknown mode {other}"),
    }
    let (result, t) = timed(|| p.run().remove(0).result.expect("bench packing"));
    Sample {
        seconds: secs(t),
        writes: writes.load(Ordering::Relaxed),
        bytes: bytes.load(Ordering::Relaxed),
        result,
    }
}

fn assert_same(a: &PackResult, b: &PackResult, what: &str) {
    assert_eq!(a.particles.len(), b.particles.len(), "{what}: count");
    for (pa, pb) in a.particles.iter().zip(&b.particles) {
        assert_eq!(pa.center.x.to_bits(), pb.center.x.to_bits(), "{what}: x");
        assert_eq!(pa.center.y.to_bits(), pb.center.y.to_bits(), "{what}: y");
        assert_eq!(pa.center.z.to_bits(), pb.center.z.to_bits(), "{what}: z");
    }
}

fn main() {
    let target = cli::usize_arg("--target", 160);
    // Checkpoints land only at batch boundaries: eight batches give the
    // cadence several capture points to measure.
    let batch = cli::usize_arg("--batch", 20);
    let every = cli::usize_arg("--every", 100);
    let repeats = cli::usize_arg("--repeats", 3);

    let dir = experiments_dir().expect("create target/experiments");

    println!(
        "# Checkpoint overhead — target {target}, batch {batch}, cadence {every}, best of {repeats}"
    );
    println!(
        "{:>8} {:>10} {:>9} {:>12} {:>10}",
        "mode", "seconds", "vs_off", "checkpoints", "kib_each"
    );

    let modes = ["off", "encode", "file"];
    let mut best: Vec<Option<Sample>> = vec![None, None, None];
    for _ in 0..repeats {
        for (i, mode) in modes.iter().enumerate() {
            let s = run(mode, target, batch, every, &dir);
            if let Some(prev) = &best[i] {
                assert_same(&prev.result, &s.result, mode);
            }
            if best[i].as_ref().is_none_or(|b| s.seconds < b.seconds) {
                best[i] = Some(s);
            }
        }
    }
    let best: Vec<Sample> = best.into_iter().map(Option::unwrap).collect();
    // Neither the cadence nor the sink may feed back into the dynamics.
    assert_same(&best[0].result, &best[1].result, "off vs encode");
    assert_same(&best[0].result, &best[2].result, "off vs file");

    let mut report = JsonReport::new("checkpoint");
    report
        .meta("target", target)
        .meta("batch", batch)
        .meta("every_steps", every);
    for (i, mode) in modes.iter().enumerate() {
        let s = &best[i];
        let overhead = (s.seconds / best[0].seconds - 1.0) * 100.0;
        let kib = if s.writes > 0 {
            s.bytes as f64 / s.writes as f64 / 1024.0
        } else {
            0.0
        };
        println!(
            "{:>8} {:>10.3} {:>8.1}% {:>12} {:>10.1}",
            mode, s.seconds, overhead, s.writes, kib
        );
        report.row(format!(
            "{{\"mode\": {}, \"seconds\": {:.4}, \"overhead_pct\": {:.2}, \
             \"checkpoints\": {}, \"kib_per_checkpoint\": {:.1}}}",
            json_str(mode),
            s.seconds,
            overhead,
            s.writes,
            kib
        ));
    }
    println!("# off, encode and file asserted bitwise identical; repeats identical per mode");

    let path = report.write().expect("write BENCH_checkpoint.json");
    println!("# wrote {}", path.display());
}
