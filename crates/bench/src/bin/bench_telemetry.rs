//! Telemetry overhead guard (DESIGN.md "Observability").
//!
//! Times a steady-state optimizer step — objective value + gradient through
//! the Verlet pipeline, plus the Adam update — under the four telemetry
//! configurations the runtime supports:
//!
//! * **off** — `set_enabled(false)`: the step loop reads no clock and
//!   touches no atomic,
//! * **passive** — metrics on (the default): per-step `Instant` pairs feed
//!   the phase histograms, counters tick,
//! * **tracing** — a trace sink is installed: on top of passive, every step
//!   evaluates through the packer's traced entry point
//!   (`value_grad_breakdown_ws`: the term breakdown rides the same pair
//!   scan), then pays a gradient-norm reduction, a displacement diff and a
//!   ring push,
//! * **timeline** — the span timeline is enabled: on top of passive, every
//!   step pushes begin/end events for its gradient and optimizer spans
//!   into the per-thread event ring (the Chrome-trace export path).
//!
//! All modes replay the *same* trajectory (instrumentation never feeds
//! back into the dynamics), so the ratios are pure overhead. The
//! acceptance budget for passive mode is **< 2 %** over off.
//!
//! Results go to stdout and `target/experiments/BENCH_telemetry.json`.

use adampack_bench::{cli, json_str, secs, timed, JsonReport};
use adampack_core::objective::{Objective, ObjectiveWeights};
use adampack_core::prelude::*;
use adampack_geometry::{shapes, Axis, Vec3};
use adampack_opt::Optimizer;
use adampack_telemetry::metrics::{PHASE_GRADIENT, PHASE_OPTIMIZER, STEPS_TOTAL};
use adampack_telemetry::{timeline, StepRecord, TraceRing};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

struct Scenario {
    objective_radii: Vec<f64>,
    coords: Vec<f64>,
    container: Container,
    fixed: CsrGrid,
    skin: f64,
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
    let mut coords = Vec::with_capacity(3 * batch);
    for _ in 0..batch {
        coords.extend_from_slice(&[
            rng.gen_range(-0.95..0.95),
            rng.gen_range(-0.95..0.95),
            bed_top + rng.gen_range(0.0..0.3),
        ]);
    }
    let radii = vec![radius; batch];
    let skin = NeighborParams::default().skin_for(&radii);
    Scenario {
        objective_radii: radii,
        coords,
        container,
        fixed: CsrGrid::build(&centers, &radii_fixed),
        skin,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Off,
    Passive,
    Tracing,
    Timeline,
}

const MODES: [Mode; 4] = [Mode::Off, Mode::Passive, Mode::Tracing, Mode::Timeline];

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Passive => "passive",
            Mode::Tracing => "tracing",
            Mode::Timeline => "timeline",
        }
    }
}

/// Runs `steps` optimizer steps in the given mode and returns the measured
/// wall-clock plus the final objective value (asserted identical across
/// modes: telemetry must never perturb the trajectory).
fn run_mode(s: &Scenario, mode: Mode, warmup: usize, steps: usize) -> (f64, std::time::Duration) {
    adampack_telemetry::set_enabled(mode != Mode::Off);
    timeline::set_timeline_enabled(mode == Mode::Timeline);
    if mode == Mode::Timeline {
        timeline::reset_timeline();
    }
    let objective = Objective::new(
        ObjectiveWeights::default(),
        Axis::Z,
        s.container.halfspaces(),
        &s.objective_radii,
        &s.fixed,
    )
    .with_neighbor(NeighborStrategy::Verlet, s.skin);
    let mut ws = Workspace::new();
    let mut coords = s.coords.clone();
    let mut grad = vec![0.0; coords.len()];
    let mut opt = adampack_opt::Adam::new(
        adampack_opt::AdamConfig {
            lr: 1e-3,
            amsgrad: true,
            ..Default::default()
        },
        coords.len(),
    );
    let mut ring = TraceRing::with_capacity(steps.max(1));
    let mut prev: Vec<f64> = Vec::new();

    let one_step = |step: usize,
                    coords: &mut Vec<f64>,
                    grad: &mut Vec<f64>,
                    ws: &mut Workspace,
                    opt: &mut adampack_opt::Adam,
                    ring: &mut TraceRing,
                    prev: &mut Vec<f64>| {
        match mode {
            Mode::Off => {
                let z = objective.value_and_grad_ws(coords, grad, ws);
                opt.step(coords, grad);
                z
            }
            Mode::Passive | Mode::Tracing | Mode::Timeline => {
                if mode == Mode::Timeline {
                    timeline::begin("gradient");
                }
                let t = Instant::now();
                // Traced steps take the packer's traced entry point.
                let (z, b) = if mode == Mode::Tracing {
                    objective.value_grad_breakdown_ws(coords, grad, ws)
                } else {
                    let z = objective.value_and_grad_ws(coords, grad, ws);
                    (z, Default::default())
                };
                PHASE_GRADIENT.record_ns(t.elapsed().as_nanos() as u64);
                if mode == Mode::Timeline {
                    timeline::end("gradient");
                }
                STEPS_TOTAL.inc();
                if mode == Mode::Tracing {
                    // Mirror CollectivePacker's per-record work: gradient
                    // norm, displacement diff, ring push.
                    let grad_norm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
                    let max_disp = if prev.len() == coords.len() {
                        coords
                            .iter()
                            .zip(prev.iter())
                            .map(|(a, p)| (a - p).abs())
                            .fold(0.0, f64::max)
                    } else {
                        0.0
                    };
                    prev.clear();
                    prev.extend_from_slice(coords);
                    ring.push(StepRecord {
                        batch: 0,
                        step: step as u64,
                        loss: z,
                        penetration_intra: b.penetration_intra,
                        penetration_cross: b.penetration_cross,
                        altitude: b.altitude,
                        exterior: b.exterior,
                        grad_norm,
                        lr: 1e-3,
                        max_disp,
                        verlet_rebuilds: ws.verlet_rebuilds() as u64,
                    });
                }
                if mode == Mode::Timeline {
                    timeline::begin("optimizer");
                }
                let t = Instant::now();
                opt.step(coords, grad);
                PHASE_OPTIMIZER.record_ns(t.elapsed().as_nanos() as u64);
                if mode == Mode::Timeline {
                    timeline::end("optimizer");
                }
                z
            }
        }
    };

    for step in 0..warmup {
        one_step(
            step,
            &mut coords,
            &mut grad,
            &mut ws,
            &mut opt,
            &mut ring,
            &mut prev,
        );
    }
    let (z, t) = timed(|| {
        let mut z = 0.0;
        for step in 0..steps {
            z = one_step(
                step,
                &mut coords,
                &mut grad,
                &mut ws,
                &mut opt,
                &mut ring,
                &mut prev,
            );
        }
        z
    });
    adampack_telemetry::set_enabled(true);
    timeline::set_timeline_enabled(false);
    (z, t)
}

fn main() {
    let batch = cli::usize_arg("--batch", 1000);
    let steps = cli::usize_arg("--steps", 300);
    let warmup = cli::usize_arg("--warmup", 100);
    let repeats = cli::usize_arg("--repeats", 3);

    let s = scenario(batch);
    println!("# Telemetry overhead — batch {batch}, {steps} steps, best of {repeats}");
    println!("{:>10} {:>14} {:>12}", "mode", "us_per_step", "vs_off");

    let mut best = [f64::INFINITY; MODES.len()];
    let mut reference: Option<f64> = None;
    for _ in 0..repeats {
        for (i, mode) in MODES.into_iter().enumerate() {
            let (z, t) = run_mode(&s, mode, warmup, steps);
            match reference {
                None => reference = Some(z),
                Some(r) => assert!(
                    (z - r).abs() <= 1e-9 * r.abs().max(1.0),
                    "telemetry perturbed the trajectory: {r} vs {z} ({})",
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
            "{:>10} {:>14.2} {:>11.1}%",
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
    println!("# budget: passive < 2% over off; tracing adds the breakdown accumulators");
    let path = report.write().expect("write BENCH_telemetry.json");
    println!("# wrote {}", path.display());
}
