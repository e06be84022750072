//! One clock per phase: every packing phase is timed by one span guard, so
//! a batch's `BatchStats::phase` breakdown, the per-system counters built
//! from it and the `PHASE_*` histograms are the same clock readings — equal
//! to the nanosecond, not merely close.
//!
//! Metrics only observe: with them off, the same seed packs the same bits.
//!
//! The histograms and the metrics switch are process-global, so this
//! binary holds exactly one test: nothing else in the process can record
//! into them or flip the switch meanwhile.

use std::time::Duration;

use adampack_core::prelude::*;
use adampack_geometry::{shapes, Vec3};
use adampack_telemetry::metrics::{self as tm, Histogram, SystemCounters};

fn box_container() -> Container {
    Container::from_mesh(&shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0))).unwrap()
}

fn params(seed: u64) -> PackingParams {
    PackingParams {
        batch_size: 20,
        target_count: 60,
        max_steps: 300,
        patience: 40,
        seed,
        ..PackingParams::default()
    }
}

fn pack() -> PackResult {
    CollectivePacker::new(box_container(), params(3))
        .try_pack(&Psd::uniform(0.09, 0.13))
        .unwrap()
}

/// The phases a batch breakdown and the per-system counters carry, with
/// their histograms.
type Field = (
    &'static str,
    &'static Histogram,
    fn(&BatchPhaseBreakdown) -> Duration,
    fn(&SystemCounters) -> u64,
);

const FIELDS: [Field; 4] = [
    ("spawn", &tm::PHASE_SPAWN, |p| p.spawn, |c| c.spawn_ns),
    (
        "gradient",
        &tm::PHASE_GRADIENT,
        |p| p.gradient,
        |c| c.gradient_ns,
    ),
    (
        "optimizer",
        &tm::PHASE_OPTIMIZER,
        |p| p.optimizer,
        |c| c.optimizer_ns,
    ),
    (
        "acceptance",
        &tm::PHASE_ACCEPTANCE,
        |p| p.acceptance,
        |c| c.acceptance_ns,
    ),
];

const HISTOGRAMS: [&Histogram; 9] = [
    &tm::PHASE_SPAWN,
    &tm::PHASE_GRADIENT,
    &tm::PHASE_OPTIMIZER,
    &tm::PHASE_VERLET_REBUILD,
    &tm::PHASE_ACCEPTANCE,
    &tm::PHASE_DEM_STEP,
    &tm::PHASE_GRID_BUILD,
    &tm::PHASE_KERNEL_SCALAR,
    &tm::PHASE_KERNEL_SIMD,
];

fn histogram_state() -> Vec<(u64, u64)> {
    HISTOGRAMS.iter().map(|h| (h.count(), h.sum_ns())).collect()
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

#[test]
fn breakdown_counters_and_histograms_read_one_clock() {
    // Metrics on: Σ of each breakdown field is exactly the histogram delta.
    tm::set_enabled(true);
    let before: Vec<u64> = FIELDS.iter().map(|f| f.1.sum_ns()).collect();
    let metered = pack();
    let result = &metered;
    for (&(name, hist, field, _), before) in FIELDS.iter().zip(before) {
        let total: u64 = result.batches.iter().map(|b| nanos(field(&b.phase))).sum();
        assert!(total > 0, "{name}: no time recorded");
        assert_eq!(
            hist.sum_ns() - before,
            total,
            "{name}: breakdown vs histogram"
        );
    }
    for b in &result.batches {
        assert_eq!(
            b.duration,
            b.phase.spawn + b.phase.optimize + b.phase.acceptance,
            "batch {}: duration is its three spans",
            b.index
        );
    }

    // The batched engine's per-system counters are built from the same
    // breakdowns, so they add up to the histogram deltas too.
    tm::clear_system_metrics();
    let before: Vec<u64> = FIELDS.iter().map(|f| f.1.sum_ns()).collect();
    let specs = ["clock_a", "clock_b"]
        .iter()
        .zip([5, 6])
        .map(|(label, seed)| SystemSpec {
            label: label.to_string(),
            params: params(seed),
            psd: Psd::constant(0.12),
        })
        .collect();
    let reports = BatchedPacker::new(&box_container(), specs).run();
    let counters: Vec<SystemCounters> = reports
        .iter()
        .map(|r| tm::system_counters(&r.label).expect("labeled counters"))
        .collect();
    for (&(name, hist, _, counter), before) in FIELDS.iter().zip(before) {
        let total: u64 = counters.iter().map(counter).sum();
        assert_eq!(hist.sum_ns() - before, total, "{name}: system counters");
    }
    tm::clear_system_metrics();

    // Metrics off: the guards still read the clock, so the breakdown is
    // populated, but no histogram moves.
    tm::set_enabled(false);
    let before = histogram_state();
    let result = pack();
    let after = histogram_state();
    tm::set_enabled(true);
    assert_eq!(after, before, "a histogram moved with metrics off");
    // The switch steers nothing: the metrics-off pack is bitwise the
    // metrics-on pack of the same seed.
    let bits = |r: &PackResult| -> Vec<[u64; 4]> {
        r.particles
            .iter()
            .map(|p| [p.center.x, p.center.y, p.center.z, p.radius].map(f64::to_bits))
            .collect()
    };
    let fitness = |r: &PackResult| -> Vec<u64> {
        r.batches.iter().map(|b| b.best_fitness.to_bits()).collect()
    };
    assert_eq!(
        bits(&result),
        bits(&metered),
        "metrics off moved a particle"
    );
    assert_eq!(
        fitness(&result),
        fitness(&metered),
        "metrics off changed a batch's fitness"
    );
    let gradient: Duration = result.batches.iter().map(|b| b.phase.gradient).sum();
    let optimizer: Duration = result.batches.iter().map(|b| b.phase.optimizer).sum();
    assert!(gradient > Duration::ZERO, "gradient time with metrics off");
    assert!(
        optimizer > Duration::ZERO,
        "optimizer time with metrics off"
    );
}
