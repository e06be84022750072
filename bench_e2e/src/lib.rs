//! # adampack-bench-e2e
//!
//! The repository's end-to-end benchmark: five workloads driven through
//! the production public API from outside (config parse → STL read →
//! hull → `CollectivePacker` stepping API, `BatchedPacker::run`, and an
//! in-process `Server` over loopback HTTP), every output checked by an
//! independent physical-invariant gate, every metric printed by name with
//! its unit and sample count. See `README.md` next to this crate.

#![deny(unsafe_code)]

pub mod check;
pub mod compare;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod pack;
pub mod serve;
pub mod spans;
pub mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use spans::{Span, Tracer};

/// The benchmark's workloads (names as on the command line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2×2×2 box filled to capacity, mono r = 0.1 (paper §V-A).
    BoxCapacity,
    /// Tall column, 50 000 spheres r = 0.03, lid never reached (Fig. 8).
    Column50k,
    /// 1:10 blast furnace, 576-triangle hull, poly-disperse radii (§VI-B).
    FurnacePoly,
    /// Batched sweep: 4 seeds × 2 learning rates in one engine.
    SweepS8,
    /// Open-loop job-server traffic: cache hits beside cold packs.
    ServeMixed,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 5] = [
        Workload::BoxCapacity,
        Workload::Column50k,
        Workload::FurnacePoly,
        Workload::SweepS8,
        Workload::ServeMixed,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BoxCapacity => "box_capacity",
            Workload::Column50k => "column_50k",
            Workload::FurnacePoly => "furnace_poly",
            Workload::SweepS8 => "sweep_s8",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// End-to-end metrics `(name, unit)`, reported with tracing off. Must
/// match `BENCHMARK.json`'s `end_to_end` list (a test checks).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("core_density", "fraction"),
];

/// Per-layer metrics `(name, unit)`, reported by a traced run. Must match
/// `BENCHMARK.json`'s `per_layer` list (a test checks).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("job.latency_mean_ms", "ms"),
    ("job.latency_tail_ms", "ms"),
    ("config.parse_ms", "ms"),
    ("io.stl_read_ms", "ms"),
    ("geometry.hull_ms", "ms"),
    ("geometry.planes", "count"),
    ("collective.init_ms", "ms"),
    ("collective.advance_batch_p50_ms", "ms"),
    ("collective.advance_batch_p90_ms", "ms"),
    ("collective.batches", "count"),
    ("collective.accept_ratio", "fraction"),
    ("collective.wasted_psteps_frac", "fraction"),
    ("collective.psteps", "count"),
    ("collective.psteps_per_s", "1/s"),
    ("collective.spawn_s", "s"),
    ("collective.acceptance_s", "s"),
    ("objective.gradient_s", "s"),
    ("objective.evals", "count"),
    ("objective.eval_us", "us"),
    ("objective.plane_tests", "count"),
    ("opt.update_s", "s"),
    ("opt.update_ns_per_coord", "ns"),
    ("opt.bytes_moved", "bytes"),
    ("neighbor.verlet_rebuilds", "count"),
    ("neighbor.rebuilds_per_eval", "fraction"),
    ("neighbor.verlet_rebuild_s", "s"),
    ("neighbor.grid_build_s", "s"),
    ("neighbor.hot_set_peak_mib", "MiB"),
    ("io.output_write_ms", "ms"),
    ("batch.passes", "count"),
    ("batch.parallelism", "ratio"),
    ("probe.eval_ms", "ms"),
    ("probe.opt_step_us", "us"),
    ("probe.grid_build_ms", "ms"),
    ("probe.checkpoint_bytes", "bytes"),
    ("probe.checkpoint_encode_ms", "ms"),
    ("probe.checkpoint_write_ms", "ms"),
    ("quality.packed_frac", "fraction"),
    ("quality.mean_overlap_pct", "%"),
    ("quality.max_overlap_pct", "%"),
    ("http.requests_per_job", "count"),
    ("cache.hit_ratio", "fraction"),
    ("cache.coalesced", "count"),
    ("sched.preemptions", "count"),
    ("admission.shed", "count"),
    ("server.backlog_end", "count"),
    ("serve.slo_met_frac", "fraction"),
    ("queue.wait_frac", "fraction"),
    ("worker.run_frac", "fraction"),
    ("http.hit_frac", "fraction"),
    ("gen.lag_frac", "fraction"),
    ("trace.coverage_frac", "fraction"),
    ("trace.overhead_est_frac", "fraction"),
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Benchmark seed every input derives from.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Record spans (and run the probes) for the per-layer metrics.
    pub trace: bool,
    /// Test-suite sizes: every workload shrunk to well under a second.
    pub tiny: bool,
    /// Working directory for generated inputs, outputs and server state
    /// (created and removed by [`run_workload`]).
    pub work_dir: PathBuf,
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (packs, sweep systems, server jobs, checks).
    pub attempted: u64,
    /// Operations that failed or produced output the checks reject.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// `name → (value, sample count)` for every metric computed.
    pub values: BTreeMap<&'static str, (f64, usize)>,
    /// `(label, FNV-1a)` per distinct packing, to diff repeat runs.
    pub digests: Vec<(String, u64)>,
    /// The recorded spans (empty with tracing off).
    pub spans: Vec<Span>,
    /// Free-form facts for the report (hardware, validity).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Records a metric value computed from `samples` samples.
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, samples));
    }

    /// Counts a failed operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.errors.push(msg);
    }

    /// Records a fact for the report.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Cost of recording one span (begin + end), seconds, measured here.
fn span_cost_s() -> f64 {
    const N: usize = 20_000;
    let mut t = Tracer::new(true, Instant::now());
    let start = Instant::now();
    for i in 0..N {
        let o = t.begin("cost", None, i as u64);
        t.end(o);
    }
    start.elapsed().as_secs_f64() / N as f64
}

/// Runs one workload end to end in this process, under a thread pool
/// built once at the hardware width (as the CLI's `run_pack_opts` does).
pub fn run_workload(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = rayon::ThreadPoolBuilder::new()
        .build()
        .expect("thread pool handle");
    out.note("hardware_threads", hw);
    out.note("pool_threads", pool.current_num_threads());
    let epoch = Instant::now();
    let mut tracer = Tracer::new(cfg.trace, epoch);
    let result = std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("work dir {}: {e}", cfg.work_dir.display()))
        .and_then(|()| {
            pool.install(|| match cfg.workload {
                Workload::ServeMixed => serve::run(cfg, &mut out, &mut tracer),
                Workload::SweepS8 => pack::run_sweep(cfg, &mut out, &mut tracer),
                _ => pack::run_packs(cfg, &mut out, &mut tracer),
            })
        });
    if let Err(e) = result {
        out.fail(format!("harness: {e}"));
    }
    let wall = epoch.elapsed().as_secs_f64();
    match peak_rss_mib() {
        Ok(mib) => out.put("peak_rss_mib", mib, 1),
        Err(e) => out.fail(format!("peak_rss_mib: {e}")),
    }
    let spans = tracer.spans();
    out.put(
        "trace.coverage_frac",
        spans::coverage(spans, "pack"),
        spans.len(),
    );
    // An estimate from the spans' own cost, not a traced / untraced ratio:
    // run-to-run noise in one run is far above the 2 % it must stay under.
    let overhead = if cfg.trace {
        spans.len() as f64 * span_cost_s() / wall
    } else {
        0.0
    };
    out.put("trace.overhead_est_frac", overhead, spans.len());
    out.spans = spans.to_vec();
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    out
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as declared.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// The declared metric set for the mode (end-to-end untraced, per-layer
/// traced), in declaration order. A missing or non-finite value is an
/// error: the run cannot report what it promised.
pub fn select(out: &Outcome, trace: bool) -> Result<Vec<Reported>, String> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    table
        .iter()
        .map(|&(name, unit)| match out.values.get(name) {
            Some(&(value, samples)) if value.is_finite() => Ok(Reported {
                name,
                value,
                unit,
                samples,
            }),
            Some(&(value, _)) => Err(format!("metric {name} is not finite ({value})")),
            None => Err(format!("metric {name} was not measured")),
        })
        .collect()
}

/// The result object: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Reported]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                json::esc(m.name),
                m.value,
                json::esc(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}
