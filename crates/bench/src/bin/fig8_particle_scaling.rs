//! Fig. 8 / BENCH_scale — execution time, throughput and hot-set memory
//! versus the number of particles.
//!
//! The paper packs particles of r = 0.03 into a tall vertical container
//! with a 2×2 square base (batch 500) and reports *linear* scaling up to
//! 200,000 particles (1 h 17 min). This binary sweeps the particle count
//! and reports, per N:
//!
//! * wall-clock time and particle·steps/s throughput (each optimizer step
//!   covers `requested` particles, so `Σ steps·requested / t` is exact);
//! * the resident hot-set peak (`adampack_hot_set_bytes` gauge: bed grid +
//!   workspace) for the monolithic run and for a gravity-axis tiled run —
//!   the tiled peak tracks the *active surface*, not total N;
//! * a bitwise tiled-vs-untiled parity check (tiling is a pure memory
//!   optimization; any divergence is a bug, so the bench hard-asserts it).
//!
//! Thread scaling is measured by `fig6_thread_scaling`. Everything lands in
//! `target/experiments/BENCH_scale.json` (and a CSV of the N sweep), with
//! the usual `--full` paper-scale switch. For million-particle
//! demonstrations use the tuning knobs, e.g.
//! `--full --only 1000000 --batch 4000 --repeats 1` (keep
//! `--max-steps` at its default: patience ends converged batches early,
//! while a starved step budget fails acceptance and collapses the
//! batch-halving ladder).

use adampack_bench::{aggregate, cli, csv_writer, json_str, secs, timed, write_row, JsonReport};
use adampack_core::prelude::*;
use adampack_geometry::shapes;
use adampack_telemetry::metrics;

struct Knobs {
    batch: usize,
    max_steps: usize,
    radius: f64,
    tiles: usize,
}

struct Run {
    result: PackResult,
    secs: f64,
    /// Exact particle·steps of the run: `Σ_batches steps × requested`.
    psteps: f64,
    hot_peak: u64,
}

fn run_once(
    container: &Container,
    psd: &Psd,
    n: usize,
    seed: u64,
    tiles: usize,
    knobs: &Knobs,
) -> Run {
    metrics::reset_all();
    let params = PackingParams {
        batch_size: knobs.batch,
        target_count: n,
        max_steps: knobs.max_steps,
        seed,
        tiles,
        ..PackingParams::default()
    };
    let container = container.clone();
    let psd = psd.clone();
    let (result, elapsed) = timed(|| CollectivePacker::new(container, params).pack(&psd));
    assert!(
        result.particles.len() >= n * 9 / 10,
        "packing fell short: {} of {n}",
        result.particles.len()
    );
    let psteps: f64 = result
        .batches
        .iter()
        .map(|b| (b.steps * b.requested) as f64)
        .sum();
    Run {
        result,
        secs: secs(elapsed),
        psteps,
        hot_peak: metrics::HOT_SET_BYTES.peak(),
    }
}

/// Tiling must be invisible in the output: every center, radius and batch
/// statistic bitwise equal to the monolithic run.
fn assert_bitwise_equal(a: &PackResult, b: &PackResult, what: &str) {
    assert_eq!(a.particles.len(), b.particles.len(), "{what}: count");
    for (pa, pb) in a.particles.iter().zip(&b.particles) {
        let same = pa.center.x.to_bits() == pb.center.x.to_bits()
            && pa.center.y.to_bits() == pb.center.y.to_bits()
            && pa.center.z.to_bits() == pb.center.z.to_bits()
            && pa.radius.to_bits() == pb.radius.to_bits();
        assert!(same, "{what}: particle drifted — tiling parity bug");
    }
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    let full = cli::flag("--full");
    let repeats = cli::usize_arg("--repeats", if full { 5 } else { 3 });
    let knobs = Knobs {
        batch: cli::usize_arg("--batch", 500),
        max_steps: cli::usize_arg("--max-steps", if full { 2000 } else { 500 }),
        radius: cli::f64_arg("--radius", if full { 0.03 } else { 0.05 }),
        tiles: cli::usize_arg("--tiles", 8),
    };
    let mut counts: Vec<usize> = if full {
        vec![12_500, 25_000, 50_000, 100_000, 200_000]
    } else {
        vec![500, 1_000, 2_000, 4_000]
    };
    // Optional ceiling for partial paper-scale runs (e.g. `--full --cap 50000`).
    let cap = cli::usize_arg("--cap", usize::MAX);
    counts.retain(|&n| n <= cap);
    // Or a single explicit count (e.g. `--full --only 1000000`).
    let only = cli::usize_arg("--only", 0);
    if only > 0 {
        counts = vec![only];
    }
    assert!(!counts.is_empty(), "--cap removed every particle count");

    // Tall enough that the bed never hits the lid.
    let sphere_vol = 4.0 / 3.0 * std::f64::consts::PI * knobs.radius.powi(3);
    let max_n = *counts.last().unwrap() as f64;
    let height = (max_n * sphere_vol / (0.5 * 4.0)).max(2.0) * 1.5;
    let mesh = shapes::tall_box(2.0, height);
    let container = Container::from_mesh(&mesh).expect("tall box hull");
    let psd = Psd::constant(knobs.radius);

    // The hot-set gauge only records while metrics are enabled.
    adampack_telemetry::set_enabled(true);

    println!("# Fig. 8 / BENCH_scale — time, throughput and hot-set memory vs N");
    println!(
        "# tall box 2x2 base, height {height:.1}, radius = {}, batch = {}, max_steps = {}, tiles = {}, repeats = {repeats}",
        knobs.radius, knobs.batch, knobs.max_steps, knobs.tiles
    );
    println!(
        "{:>10} {:>10} {:>12} {:>14} {:>12} {:>12} {:>8}",
        "particles", "mean_s", "s_per_1k", "psteps_per_s", "hot_MiB", "tiled_MiB", "shrink"
    );

    let (path, mut csv) = csv_writer("fig8_particle_scaling").expect("csv");
    write_row(
        &mut csv,
        &["particles,mean_s,min_s,max_s,psteps_per_s,hot_peak_bytes,tiled_hot_peak_bytes".into()],
    )
    .unwrap();

    let mut report = JsonReport::new("scale");
    report
        .meta("radius", knobs.radius)
        .meta("batch", knobs.batch)
        .meta("max_steps", knobs.max_steps)
        .meta("tiles", knobs.tiles)
        .meta("repeats", repeats)
        .meta("threads", rayon::current_num_threads())
        .meta("kernel", json_str(Kernel::default().name()));

    let mut series = Vec::new();
    for &n in &counts {
        let mut times = Vec::new();
        let mut psteps_per_s = 0.0f64;
        let mut hot_peak = 0u64;
        let mut last = None;
        for rep in 0..repeats {
            let run = run_once(&container, &psd, n, rep as u64, 1, &knobs);
            psteps_per_s = psteps_per_s.max(run.psteps / run.secs);
            hot_peak = hot_peak.max(run.hot_peak);
            times.push(run.secs);
            last = Some(run);
        }
        // One tiled replica of the last seed: same packing, smaller hot set.
        let last = last.unwrap();
        let tiled = run_once(&container, &psd, n, repeats as u64 - 1, knobs.tiles, &knobs);
        assert_bitwise_equal(&last.result, &tiled.result, "tiled vs untiled");
        let a = aggregate(&times);
        let shrink = hot_peak as f64 / tiled.hot_peak.max(1) as f64;
        println!(
            "{n:>10} {:>10.3} {:>12.4} {:>14.0} {:>12.2} {:>12.2} {shrink:>8.2}",
            a.mean,
            a.mean / (n as f64 / 1000.0),
            psteps_per_s,
            mib(hot_peak),
            mib(tiled.hot_peak),
        );
        write_row(
            &mut csv,
            &[format!(
                "{n},{},{},{},{psteps_per_s},{hot_peak},{}",
                a.mean, a.min, a.max, tiled.hot_peak
            )],
        )
        .unwrap();
        report.row(format!(
            "{{\"section\": \"n_sweep\", \"particles\": {n}, \"mean_s\": {:.6}, \
             \"min_s\": {:.6}, \"max_s\": {:.6}, \"psteps_per_s\": {psteps_per_s:.0}, \
             \"hot_peak_bytes\": {hot_peak}, \"tiled_hot_peak_bytes\": {}, \
             \"tiled_bitwise_equal\": true}}",
            a.mean, a.min, a.max, tiled.hot_peak
        ));
        series.push((n as f64, a.mean));
    }

    // Linearity check: least-squares slope and the R² of the linear fit.
    if series.len() >= 2 {
        let n = series.len() as f64;
        let sx: f64 = series.iter().map(|(x, _)| x).sum();
        let sy: f64 = series.iter().map(|(_, y)| y).sum();
        let sxx: f64 = series.iter().map(|(x, _)| x * x).sum();
        let sxy: f64 = series.iter().map(|(x, y)| x * y).sum();
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        let intercept = (sy - slope * sx) / n;
        let ss_tot: f64 = series.iter().map(|(_, y)| (y - sy / n).powi(2)).sum();
        let ss_res: f64 = series
            .iter()
            .map(|(x, y)| (y - slope * x - intercept).powi(2))
            .sum();
        let r2 = 1.0 - ss_res / ss_tot.max(1e-300);
        println!(
            "# linear fit: {:.4} s per 1000 particles, R^2 = {r2:.4} (paper: linear)",
            slope * 1000.0
        );
        report
            .meta("fit_s_per_1k", format!("{:.6}", slope * 1000.0))
            .meta("fit_r2", format!("{r2:.6}"));
    } else {
        println!("# (single point: no linear fit)");
    }
    let json_path = report.write().expect("write BENCH_scale.json");
    println!("# series written to {}", path.display());
    println!("# json written to {}", json_path.display());
}
