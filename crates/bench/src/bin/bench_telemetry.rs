//! Telemetry overhead guard (DESIGN.md "Observability").
//!
//! Times the production inner loop, `CollectivePacker::optimize_batch_with`
//! (objective value + gradient through the neighbor pipeline, the Adam
//! update, the divergence sentinel), on one batch under the five telemetry
//! configurations the runtime supports:
//!
//! * **off** — `set_enabled(false)`: the span guards still read the clock
//!   (six reads a step), but no histogram or counter moves,
//! * **passive** — metrics on (the default): the same clock readings also
//!   feed the phase histograms, counters tick,
//! * **tracing** — a JSONL trace sink is installed: on top of passive, every
//!   step evaluates through the fused value+gradient+breakdown traversal,
//!   pays a gradient-norm and a displacement reduction and a ring push, and
//!   the batch's records are serialized at the end of the call,
//! * **timeline** — the span timeline is enabled: on top of passive, every
//!   span pushes its begin/end events into the per-thread event ring,
//! * **diagnostics** — convergence diagnostics on, no sink: the same record
//!   stream as tracing, consumed by the diagnostics engine instead.
//!
//! Every mode must end on bitwise identical coordinates (instrumentation
//! never feeds back into the dynamics), so the ratios are pure overhead.
//! The acceptance budget for passive mode is **< 2 %** over off.
//!
//! Results go to stdout and `target/experiments/BENCH_telemetry.json`.

use adampack_bench::{cli, json_str, secs, timed, JsonReport};
use adampack_core::prelude::*;
use adampack_geometry::{shapes, Vec3};
use adampack_telemetry::{timeline, JsonlWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Scenario {
    radii: Vec<f64>,
    init: Vec<f64>,
    container: Container,
    fixed: CsrGrid,
}

fn scenario(batch: usize) -> Scenario {
    let container = Container::from_mesh(&shapes::tall_box(2.0, 40.0)).expect("tall box");
    let mut rng = StdRng::seed_from_u64(23);
    let radius = 0.03;
    let bed_size = 4 * batch;
    let mut centers = Vec::with_capacity(bed_size);
    let mut radii_fixed = Vec::with_capacity(bed_size);
    for i in 0..bed_size {
        centers.push(Vec3::new(
            rng.gen_range(-0.95..0.95),
            rng.gen_range(-0.95..0.95),
            0.05 + (i as f64) * 6.0e-5,
        ));
        radii_fixed.push(radius);
    }
    let bed_top = 0.05 + bed_size as f64 * 6.0e-5;
    let mut init = Vec::with_capacity(3 * batch);
    for _ in 0..batch {
        init.extend_from_slice(&[
            rng.gen_range(-0.95..0.95),
            rng.gen_range(-0.95..0.95),
            bed_top + rng.gen_range(0.0..0.3),
        ]);
    }
    Scenario {
        radii: vec![radius; batch],
        init,
        container,
        fixed: CsrGrid::build(&centers, &radii_fixed),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Off,
    Passive,
    Tracing,
    Timeline,
    Diagnostics,
}

const MODES: [Mode; 5] = [
    Mode::Off,
    Mode::Passive,
    Mode::Tracing,
    Mode::Timeline,
    Mode::Diagnostics,
];

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Passive => "passive",
            Mode::Tracing => "tracing",
            Mode::Timeline => "timeline",
            Mode::Diagnostics => "diagnostics",
        }
    }
}

/// Optimizes the scenario's batch for exactly `steps` steps (patience never
/// runs out) in the given mode, after a `warmup`-step call that sizes the
/// packer's workspace buffers. Returns the final coordinates and the timed
/// call's wall-clock.
fn run_mode(
    s: &Scenario,
    mode: Mode,
    warmup: usize,
    steps: usize,
) -> (Vec<f64>, std::time::Duration) {
    adampack_telemetry::set_enabled(mode != Mode::Off);
    timeline::set_timeline_enabled(mode == Mode::Timeline);
    if mode == Mode::Timeline {
        timeline::reset_timeline();
    }
    let params = PackingParams {
        batch_size: s.radii.len(),
        target_count: s.radii.len(),
        max_steps: steps,
        ..PackingParams::default()
    };
    let mut packer = CollectivePacker::new(s.container.clone(), params);
    match mode {
        Mode::Tracing => packer.set_trace_sink(Box::new(JsonlWriter::new(std::io::sink()))),
        Mode::Diagnostics => packer.set_diagnostics(DiagMode::Summary),
        Mode::Off | Mode::Passive | Mode::Timeline => {}
    }
    let lr = LrPolicy::paper_default();
    let mut optimize = |steps| {
        packer.optimize_batch_with(&s.radii, s.init.clone(), &s.fixed, steps, usize::MAX, &lr)
    };
    optimize(warmup);
    let (run, t) = timed(|| optimize(steps));
    assert_eq!(run.steps, steps, "{}: the batch ran short", mode.name());
    adampack_telemetry::set_enabled(true);
    timeline::set_timeline_enabled(false);
    (run.coords, t)
}

fn main() {
    let batch = cli::usize_arg("--batch", 1000);
    let steps = cli::usize_arg("--steps", 300);
    let warmup = cli::usize_arg("--warmup", 100);
    let repeats = cli::usize_arg("--repeats", 3);

    let s = scenario(batch);
    println!("# Telemetry overhead — batch {batch}, {steps} steps, best of {repeats}");
    println!("{:>12} {:>14} {:>12}", "mode", "us_per_step", "vs_off");

    let mut best = [f64::INFINITY; MODES.len()];
    let mut reference: Option<Vec<u64>> = None;
    for _ in 0..repeats {
        for (i, mode) in MODES.into_iter().enumerate() {
            let (coords, t) = run_mode(&s, mode, warmup, steps);
            let bits: Vec<u64> = coords.iter().map(|c| c.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert!(
                    *r == bits,
                    "telemetry perturbed the trajectory ({})",
                    mode.name()
                ),
            }
            best[i] = best[i].min(secs(t) * 1e6 / steps as f64);
        }
    }
    // The timeline leg must have produced an exportable Chrome trace.
    let trace = timeline::export_chrome_trace();
    assert!(
        trace.starts_with("{\"traceEvents\":[") && trace.contains("\"name\":\"gradient\""),
        "timeline leg produced no exportable trace"
    );

    let mut report = JsonReport::new("telemetry");
    report
        .meta("batch", batch)
        .meta("steps", steps)
        .meta("warmup", warmup)
        .meta("repeats", repeats)
        .meta("threads", rayon::current_num_threads());
    for (i, mode) in MODES.into_iter().enumerate() {
        let ratio = best[i] / best[0];
        println!(
            "{:>12} {:>14.2} {:>11.1}%",
            mode.name(),
            best[i],
            (ratio - 1.0) * 100.0
        );
        report.row(format!(
            "{{\"mode\": {}, \"us_per_step\": {:.3}, \"overhead_pct\": {:.2}}}",
            json_str(mode.name()),
            best[i],
            (ratio - 1.0) * 100.0
        ));
    }
    println!("# budget: passive < 2% over off; tracing and diagnostics share one record stream");
    let path = report.write().expect("write BENCH_telemetry.json");
    println!("# wrote {}", path.display());
}
