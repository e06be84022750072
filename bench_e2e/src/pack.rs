//! The CLI-shaped packing workloads (`box_capacity`, `column_50k`,
//! `furnace_poly`) and the batched sweep (`sweep_s8`), driven through the
//! same public calls `adampack pack` makes: `PackingConfig::from_file` →
//! `read_stl_path` → `Container::from_mesh` → `CollectivePacker::begin_run`
//! / `advance_batch` / `finish_run` → `write_particles_csv` (or
//! `BatchedPacker::run` for the sweep).

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use adampack_config::PackingConfig;
use adampack_core::{
    BatchedPacker, CollectivePacker, Container, PackResult, PackingParams, Psd, RunProgress,
    SystemSpec,
};
use adampack_geometry::{container_sanity, SanityError};

use crate::check::{verify_packing, Quality};
use crate::inputs::{pack_input, quality_configs, write_meshes};
use crate::layers::{self, BatchTotals, Counters, Probes, SetupTimes};
use crate::spans::Tracer;
use crate::stats::{median, quantile, sorted, tail_percentile};
use crate::{Config, Outcome};

/// Set-ups timed for `setup_s` alone before every measured job and after
/// the last one (each job's own set-up adds one more sample). Spread over
/// the window, they see the same host conditions as the jobs; one burst at
/// the start would sample the host for only a few milliseconds.
const SETUPS_PER_JOB: usize = 20;

/// Span ids: measured packs count from 0, the extra set-ups from here.
const SETUP_ID: u64 = 1_000_000;

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Parse → STL read → sanity + hull, each in its own span, as the CLI
/// resolves a config file.
fn resolve(
    tracer: &mut Tracer,
    parent: Option<usize>,
    id: u64,
    yaml: &Path,
    times: &mut SetupTimes,
) -> Result<(PackingConfig, Container), String> {
    let o = tracer.begin("config.parse", parent, id);
    let cfg = PackingConfig::from_file(yaml).map_err(|e| format!("config: {e}"))?;
    times.parse_ms.push(ms(tracer.end(o)));
    let o = tracer.begin("io.stl_read", parent, id);
    let mesh = adampack_io::read_stl_path(&cfg.container_path).map_err(|e| e.to_string())?;
    times.stl_ms.push(ms(tracer.end(o)));
    let o = tracer.begin("geometry.hull", parent, id);
    match container_sanity(&mesh, 1e-6) {
        Ok(()) | Err(SanityError::NotConvex { .. }) => {}
        Err(e) => return Err(format!("container: {e}")),
    }
    let container = Container::from_mesh(&mesh).map_err(|e| format!("hull: {e}"))?;
    times.hull_ms.push(ms(tracer.end(o)));
    times.planes = container.halfspaces().len();
    Ok((cfg, container))
}

/// A packer ready to step, plus what the checker needs.
pub struct Started {
    /// The container packed into.
    pub container: Container,
    /// The single particle set's PSD.
    pub psd: Psd,
    /// Resolved parameters (target included).
    pub params: PackingParams,
    /// The packer.
    pub packer: CollectivePacker,
}

/// One pack's whole set-up, timed as `setup_s`: config parse, STL read,
/// hull, capacity estimate, `CollectivePacker::new` + `begin_run`.
/// Returns the started run and the set-up time, seconds.
pub fn set_up(
    tracer: &mut Tracer,
    id: u64,
    yaml: &Path,
    target: Option<usize>,
    times: &mut SetupTimes,
) -> Result<(Started, RunProgress, f64), String> {
    let all = tracer.begin("setup", None, id);
    let (cfg, container) = resolve(tracer, all.slot(), id, yaml, times)?;
    let psd = cfg.psds().into_iter().next().ok_or("no particle sets")?;
    let mut params = cfg.to_packing_params();
    params.target_count = target.unwrap_or_else(|| container.capacity_estimate(psd.mean(), 0.6));
    let o = tracer.begin("collective.init", all.slot(), id);
    let mut packer = CollectivePacker::new(container.clone(), params.clone());
    let prog = packer.begin_run(Vec::new(), false);
    times.init_ms.push(ms(tracer.end(o)));
    let secs = tracer.end(all).as_secs_f64();
    let started = Started {
        container,
        psd,
        params,
        packer,
    };
    Ok((started, prog, secs))
}

/// Writes a packing as the CLI's `.csv` output (same writer, same rows).
fn write_csv_file(path: &Path, result: &PackResult) -> Result<(), String> {
    let rows = result
        .particles
        .iter()
        .map(|p| (p.center, p.radius, p.batch, p.set));
    std::fs::File::create(path)
        .map(std::io::BufWriter::new)
        .and_then(|mut w| {
            adampack_io::write_particles_csv(&mut w, rows)?;
            w.flush()
        })
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Steps a started run to the end and writes its CSV, inside a `pack`
/// span whose duration is the job's latency. Returns the result, the
/// latency and the write time, ms.
pub fn pack_to_csv(
    tracer: &mut Tracer,
    id: u64,
    s: &mut Started,
    mut prog: RunProgress,
    csv: &Path,
) -> Result<(PackResult, f64, f64), String> {
    let pack = tracer.begin("pack", None, id);
    while !prog.finished() {
        let o = tracer.begin("collective.advance_batch", pack.slot(), id);
        s.packer
            .advance_batch(&s.psd, &mut prog, &mut None)
            .map_err(|e| format!("pack: {e}"))?;
        tracer.end(o);
    }
    let o = tracer.begin("collective.finish_run", pack.slot(), id);
    let result = s.packer.finish_run(prog);
    tracer.end(o);
    let o = tracer.begin("io.output_write", pack.slot(), id);
    write_csv_file(csv, &result)?;
    let write_ms = ms(tracer.end(o));
    Ok((result, ms(tracer.end(pack)), write_ms))
}

/// Quality metrics: means over a fixed set of distinct packings.
pub fn put_quality(out: &mut Outcome, q: &[Quality]) {
    if q.is_empty() {
        return;
    }
    let mean = |f: fn(&Quality) -> f64| q.iter().map(f).sum::<f64>() / q.len() as f64;
    out.put("core_density", mean(|q| q.core_density), q.len());
    out.put(
        "quality.packed_frac",
        mean(|q| q.packed as f64 / q.target as f64),
        q.len(),
    );
    out.put(
        "quality.mean_overlap_pct",
        mean(|q| q.mean_overlap_pct),
        q.len(),
    );
    out.put(
        "quality.max_overlap_pct",
        mean(|q| q.max_overlap_pct),
        q.len(),
    );
}

/// Latency metrics over the run's job latencies, ms.
pub fn put_latency(out: &mut Outcome, latencies_ms: &[f64]) {
    if latencies_ms.is_empty() {
        return;
    }
    let s = sorted(latencies_ms);
    out.put("latency_p50_ms", quantile(&s, 0.5), s.len());
    out.put(
        "job.latency_mean_ms",
        s.iter().sum::<f64>() / s.len() as f64,
        s.len(),
    );
    // The highest percentile with ten samples beyond it, or the slowest
    // job when the run has fewer than twenty.
    let p = tail_percentile(s.len());
    let tail = p.map_or(s[s.len() - 1], |p| quantile(&s, p / 100.0));
    out.put("job.latency_tail_ms", tail, s.len());
    out.note(
        "tail_percentile",
        p.map_or("max".to_string(), |p| format!("p{p}")),
    );
}

/// Server-layer metrics, zero where no server runs.
fn put_no_server(out: &mut Outcome) {
    for name in [
        "http.requests_per_job",
        "cache.hit_ratio",
        "cache.coalesced",
        "sched.preemptions",
        "admission.shed",
        "server.backlog_end",
        "serve.slo_met_frac",
        "queue.wait_frac",
        "worker.run_frac",
        "http.hit_frac",
        "gen.lag_frac",
    ] {
        out.put(name, 0.0, 0);
    }
}

/// Accumulators over a run's measured jobs.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    times: SetupTimes,
    latencies: Vec<f64>,
    write_ms: Vec<f64>,
    quality: Vec<Quality>,
    totals: BatchTotals,
    ctr: Counters,
    passes: usize,
}

impl Measured {
    /// True once `min_jobs` jobs ran and another median-length job would
    /// overrun the window.
    fn done(&self, min_jobs: usize, window: Instant, seconds: f64) -> bool {
        let next = if self.latencies.is_empty() {
            0.0
        } else {
            median(&self.latencies) / 1e3
        };
        self.latencies.len() >= min_jobs && window.elapsed().as_secs_f64() + next > seconds
    }

    /// Checks one packing: its quality counts when it belongs to the
    /// workload's fixed quality set.
    #[allow(clippy::too_many_arguments)]
    fn check(
        &mut self,
        out: &mut Outcome,
        tracer: &mut Tracer,
        id: u64,
        label: &str,
        in_quality_set: bool,
        container: &Container,
        psd: &Psd,
        params: &PackingParams,
        result: &PackResult,
    ) {
        self.totals.add(&result.batches, self.times.planes);
        let o = tracer.begin("verify", None, id);
        let q = verify_packing(
            container,
            &result.particles,
            psd,
            params,
            result.particles.len(),
            result.target,
        );
        tracer.end(o);
        match q {
            Err(e) => out.fail(format!("{label}: {e}")),
            Ok(q) if in_quality_set => {
                out.digests.push((label.to_string(), q.digest));
                self.quality.push(q);
            }
            Ok(_) => {}
        }
    }

    /// Times [`SETUPS_PER_JOB`] set-ups of the workload's quality-set
    /// configs with `set_up`, which returns one set-up's seconds.
    fn time_setups(
        &mut self,
        cfg: &Config,
        dir: &Path,
        tracer: &mut Tracer,
        mut set_up: impl FnMut(
            &mut Tracer,
            u64,
            &Path,
            Option<usize>,
            &mut SetupTimes,
        ) -> Result<f64, String>,
    ) -> Result<(), String> {
        let k = quality_configs(cfg.workload);
        for _ in 0..SETUPS_PER_JOB {
            let n = self.setup_s.len();
            let c = pack_input(cfg.workload, cfg.seed, n % k, cfg.tiny);
            let path = c.write(dir).map_err(|e| e.to_string())?;
            let secs = set_up(
                tracer,
                SETUP_ID + n as u64,
                &path,
                c.target,
                &mut self.times,
            )?;
            self.setup_s.push(secs);
        }
        Ok(())
    }

    fn finish(self, out: &mut Outcome, probes: &Probes) {
        let jobs = self.latencies.len();
        out.put("setup_s", median(&self.setup_s), self.setup_s.len());
        put_latency(out, &self.latencies);
        put_quality(out, &self.quality);
        layers::put_packing_layers(
            out,
            jobs,
            &self.times,
            &self.totals,
            &self.ctr,
            &self.write_ms,
            probes,
        );
        out.put(
            "batch.passes",
            self.passes as f64 / jobs.max(1) as f64,
            jobs,
        );
        let wall_s = self.latencies.iter().sum::<f64>() / 1e3;
        out.put("batch.parallelism", self.totals.busy_s / wall_s, jobs);
        put_no_server(out);
    }
}

/// `box_capacity`, `column_50k` and `furnace_poly`: packs distinct
/// configs derived from the seed, at least the workload's quality set and
/// then more while another pack still fits the window. Every packing is
/// checked.
pub fn run_packs(cfg: &Config, out: &mut Outcome, tracer: &mut Tracer) -> Result<(), String> {
    let w = cfg.workload;
    let dir = cfg.work_dir.join("inputs");
    write_meshes(&dir, w, cfg.tiny).map_err(|e| e.to_string())?;
    let k = quality_configs(w);

    let mut m = Measured::default();
    let setup_only = |t: &mut Tracer, id, p: &Path, target, times: &mut SetupTimes| {
        set_up(t, id, p, target, times).map(|(_, _, secs)| secs)
    };

    let mut last = None;
    let window = Instant::now();
    for i in 0.. {
        // Only the newest packing is kept (for the probes), so peak RSS
        // is one pack's, however many the window fits.
        last = None;
        m.time_setups(cfg, &dir, tracer, setup_only)?;
        let c = pack_input(w, cfg.seed, i, cfg.tiny);
        let path = c.write(&dir).map_err(|e| e.to_string())?;
        let id = i as u64;
        out.attempted += 1;
        let (mut s, prog, secs) = set_up(tracer, id, &path, c.target, &mut m.times)?;
        m.setup_s.push(secs);
        let before = Counters::now();
        let csv = cfg.work_dir.join(format!("{}.csv", c.label));
        match pack_to_csv(tracer, id, &mut s, prog, &csv) {
            Err(e) => out.fail(format!("{}: {e}", c.label)),
            Ok((result, latency, write)) => {
                m.ctr.accumulate(&before);
                m.latencies.push(latency);
                m.write_ms.push(write);
                m.passes += result.batches.len();
                let (container, psd, params) = (&s.container, &s.psd, &s.params);
                m.check(
                    out,
                    tracer,
                    id,
                    &c.label,
                    i < k,
                    container,
                    psd,
                    params,
                    &result,
                );
                last = Some((s, result));
            }
        }
        if m.done(k, window, cfg.seconds) || (m.latencies.is_empty() && i + 1 >= k) {
            break;
        }
    }
    m.time_setups(cfg, &dir, tracer, setup_only)?;

    let probes = match (&last, cfg.trace) {
        (Some((s, r)), true) => {
            layers::probe(&s.container, &s.params, &r.particles, &cfg.work_dir)?
        }
        _ => Probes::default(),
    };
    m.finish(out, &probes);
    Ok(())
}

/// One sweep's resolved systems and engine.
struct Sweep {
    container: Container,
    systems: Vec<(String, Psd, PackingParams)>,
    packer: BatchedPacker,
}

/// A sweep's set-up, timed as `setup_s`: parse, STL read, hull, per-system
/// parameters and targets, `BatchedPacker::new` (as the CLI's batched
/// sweep does; the workload's fixed target stands in for the capacity
/// estimate).
fn set_up_sweep(
    tracer: &mut Tracer,
    id: u64,
    yaml: &Path,
    target: Option<usize>,
    times: &mut SetupTimes,
) -> Result<(Sweep, f64), String> {
    let all = tracer.begin("setup", None, id);
    let (pc, container) = resolve(tracer, all.slot(), id, yaml, times)?;
    let o = tracer.begin("collective.init", all.slot(), id);
    let batch = pc.batch.clone().ok_or("sweep config has no batch: block")?;
    let mut specs = Vec::new();
    for sys in batch.expand(&pc.params) {
        let psd = pc
            .psds_scaled(sys.radius_scale)
            .into_iter()
            .next()
            .ok_or("no particle sets")?;
        let mut params = pc.to_packing_params_for(&sys);
        params.target_count =
            target.unwrap_or_else(|| container.capacity_estimate(psd.mean(), 0.6));
        specs.push(SystemSpec {
            label: sys.label.clone(),
            params,
            psd,
        });
    }
    let systems = specs
        .iter()
        .map(|s| (s.label.clone(), s.psd.clone(), s.params.clone()))
        .collect();
    let packer = BatchedPacker::new(&container, specs);
    times.init_ms.push(ms(tracer.end(o)));
    let secs = tracer.end(all).as_secs_f64();
    Ok((
        Sweep {
            container,
            systems,
            packer,
        },
        secs,
    ))
}

/// `sweep_s8`: the batched engine packing every system of a seed ×
/// learning-rate grid in one process, as `adampack pack` does for a
/// config with a `batch:` block. One job is one whole sweep, each sweep a
/// fresh grid of seeds.
pub fn run_sweep(cfg: &Config, out: &mut Outcome, tracer: &mut Tracer) -> Result<(), String> {
    let w = cfg.workload;
    let dir = cfg.work_dir.join("inputs");
    write_meshes(&dir, w, cfg.tiny).map_err(|e| e.to_string())?;

    let k = quality_configs(w);
    let mut m = Measured::default();
    let setup_only = |t: &mut Tracer, id, p: &Path, target, times: &mut SetupTimes| {
        set_up_sweep(t, id, p, target, times).map(|(_, secs)| secs)
    };

    let mut last = None;
    let window = Instant::now();
    for i in 0.. {
        last = None;
        m.time_setups(cfg, &dir, tracer, setup_only)?;
        let c = pack_input(w, cfg.seed, i, cfg.tiny);
        let path = c.write(&dir).map_err(|e| e.to_string())?;
        let id = i as u64;
        let (mut sw, secs) = set_up_sweep(tracer, id, &path, c.target, &mut m.times)?;
        m.setup_s.push(secs);
        let stamps = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&stamps);
        sw.packer.set_pass_callback(move |_| {
            sink.lock().expect("pass stamps lock").push(Instant::now());
        });
        let before = Counters::now();
        let pack = tracer.begin("pack", None, id);
        let run = tracer.begin("batch.run", pack.slot(), id);
        let run_slot = run.slot();
        let run_start = Instant::now();
        let reports = sw.packer.run();
        tracer.end(run);
        let mut results = Vec::new();
        for rep in reports {
            out.attempted += 1;
            match rep.result {
                Err(e) => out.fail(format!("{}.{}: {e}", c.label, rep.label)),
                Ok(result) => {
                    let o = tracer.begin("io.output_write", pack.slot(), id);
                    let csv = cfg.work_dir.join(format!("{}.{}.csv", c.label, rep.label));
                    write_csv_file(&csv, &result)?;
                    m.write_ms.push(ms(tracer.end(o)));
                    results.push((rep.label, result));
                }
            }
        }
        m.latencies.push(ms(tracer.end(pack)));
        m.ctr.accumulate(&before);
        let stamps = std::mem::take(&mut *stamps.lock().expect("pass stamps lock"));
        m.passes += stamps.len();
        let mut prev = run_start;
        for t in stamps {
            tracer.record("batch.pass", run_slot, id, prev, t);
            prev = t;
        }

        for (label, result) in &results {
            let (_, psd, params) = sw
                .systems
                .iter()
                .find(|(l, _, _)| l == label)
                .ok_or("the sweep reported an unknown system")?;
            let tag = format!("{}.{label}", c.label);
            m.check(
                out,
                tracer,
                id,
                &tag,
                i < k,
                &sw.container,
                psd,
                params,
                result,
            );
        }
        if let Some((label, r)) = results.pop() {
            let params = sw.systems.into_iter().find(|s| s.0 == label).map(|s| s.2);
            last = params.map(|p| (sw.container, p, r));
        }
        if m.done(k, window, cfg.seconds) {
            break;
        }
    }
    m.time_setups(cfg, &dir, tracer, setup_only)?;

    let probes = match (&last, cfg.trace) {
        (Some((c, p, r)), true) => layers::probe(c, p, &r.particles, &cfg.work_dir)?,
        _ => Probes::default(),
    };
    m.finish(out, &probes);
    Ok(())
}
