//! # adampack-cli
//!
//! The application layer of the paper's §VI-A: a command-line tool that
//! reads a YAML packing configuration (container STL, algorithm, particle
//! sets, zones), runs the selected packing algorithm, reports quality
//! metrics, and writes the particles in CSV / VTK / XYZ.
//!
//! ```text
//! adampack pack config.yaml --out packing.vtk
//! adampack info config.yaml
//! adampack shapes --list
//! ```
//!
//! The library half of the crate holds the driver so it is unit-testable;
//! `main.rs` is a thin argument-parsing shell.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::path::{Path, PathBuf};

use adampack_config::{BatchConfig, ConfigError, ConsoleLevel, LocationConfig, PackingConfig};
use adampack_core::checkpoint::fnv1a;
use adampack_core::metrics;
use adampack_core::prelude::*;
use adampack_core::report::QualityReport;
use adampack_geometry::ConvexHull;
use adampack_telemetry::{info, timeline, warn, JsonlWriter};

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Configuration loading/validation failure.
    Config(ConfigError),
    /// Geometry failure (hull construction, container sanity, …).
    Geometry(String),
    /// I/O failure.
    Io(std::io::Error),
    /// Bad command-line usage.
    Usage(String),
    /// The packing run itself failed (divergence budget exhausted, resume
    /// state mismatch).
    Pack(PackError),
    /// Checkpoint files exist but none could be loaded.
    Checkpoint(String),
    /// The job server failed to start or run (`adampack serve`).
    Server(String),
}

impl CliError {
    /// Stable process exit code for scripts: each failure class gets its
    /// own value (success is 0).
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Config(_) => 3,
            CliError::Geometry(_) => 4,
            CliError::Io(_) => 5,
            CliError::Pack(PackError::Diverged { .. }) => 6,
            CliError::Pack(PackError::Resume(_)) | CliError::Checkpoint(_) => 7,
            CliError::Pack(PackError::HorizonBreach { .. }) => 8,
            CliError::Server(_) => 9,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Config(e) => write!(f, "{e}"),
            CliError::Geometry(m) => write!(f, "geometry error: {m}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Pack(e) => write!(f, "{e}"),
            CliError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            CliError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<PackError> for CliError {
    fn from(e: PackError) -> Self {
        CliError::Pack(e)
    }
}

impl From<ConfigError> for CliError {
    fn from(e: ConfigError) -> Self {
        CliError::Config(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// A packing run's summary, printed by the CLI and returned for tests.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Particles packed.
    pub packed: usize,
    /// Core density in the shrunken inner box.
    pub core_density: f64,
    /// Mean contact overlap relative to radius.
    pub mean_overlap_ratio: f64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Output file written, if any.
    pub output: Option<PathBuf>,
}

fn load_zone_hull(p: &Path) -> Result<ConvexHull, ConfigError> {
    let mesh = adampack_io::read_stl_file(p).map_err(|e| ConfigError::Field(e.to_string()))?;
    ConvexHull::from_mesh(&mesh).map_err(|e| ConfigError::Field(e.to_string()))
}

/// Loads and sanity-checks the container mesh, naming the file and the
/// offending facet on failure. Non-convexity is only a warning — the
/// pipeline packs into the convex hull by design — but a sliver facet, an
/// open edge or inverted winding means the file does not describe the
/// container the user thinks it does, so those are hard errors.
fn load_container_mesh(path: &Path) -> Result<adampack_geometry::TriMesh, CliError> {
    let mesh = adampack_io::read_stl_path(path).map_err(|e| CliError::Geometry(e.to_string()))?;
    match adampack_geometry::container_sanity(&mesh, 1e-6) {
        Ok(()) => {}
        Err(adampack_geometry::SanityError::NotConvex {
            mesh_volume,
            hull_volume,
        }) => warn!(
            "container {}: mesh is not convex (volume {mesh_volume:.6e} vs hull \
             {hull_volume:.6e}); packing into its convex hull",
            path.display()
        ),
        Err(e) => {
            return Err(CliError::Geometry(format!("{}: {e}", path.display())));
        }
    }
    Ok(mesh)
}

/// Command-line overrides layered over the configuration's `telemetry:`
/// block (a CLI flag always wins over the YAML value).
#[derive(Debug, Clone, Default)]
pub struct PackOptions {
    /// Particle output file (`--out`, by extension).
    pub out: Option<PathBuf>,
    /// JSONL per-step trace file (`--trace-out`).
    pub trace_out: Option<PathBuf>,
    /// Prometheus-style metrics snapshot file (`--metrics-out`).
    pub metrics_out: Option<PathBuf>,
    /// Console log level (`--log-level`).
    pub log_level: Option<ConsoleLevel>,
    /// Worker threads for the parallel phases (`--threads`); 0 defers to
    /// the configuration's `params.threads` (itself 0 = one per hardware
    /// thread). Purely a performance knob: results are bitwise identical
    /// for any value.
    pub threads: usize,
    /// Arithmetic kernel override (`--kernel scalar|simd`); `None` defers
    /// to the configuration's `params.kernel` (default `simd`). `scalar`
    /// and `simd` produce bitwise identical packings.
    pub kernel: Option<Kernel>,
    /// Gravity-axis tiling override (`--tiles`); `None` defers to the
    /// configuration's `params.tiles` (default 1 = monolithic). Purely a
    /// memory knob: tiled packings are bitwise identical to untiled ones.
    pub tiles: Option<usize>,
    /// Checkpoint file (`--checkpoint`); overrides `checkpoint.path`.
    pub checkpoint: Option<PathBuf>,
    /// Checkpoint cadence (`--checkpoint-every`): save at the first batch
    /// boundary after this many optimizer steps; overrides
    /// `checkpoint.every_steps`. A durability setting only — the packing
    /// is identical at any cadence.
    pub checkpoint_every: Option<usize>,
    /// Checkpoint files retained (`--checkpoint-keep`); overrides
    /// `checkpoint.keep_last`.
    pub checkpoint_keep: Option<usize>,
    /// Resume from the newest readable checkpoint (`--resume`). Starts
    /// fresh (with a warning) when no checkpoint file exists yet; fails
    /// when checkpoints exist but all are corrupt.
    pub resume: bool,
    /// Sweep-axis override: RNG seeds (`--batch-seeds`). Any `--batch-*`
    /// flag switches the run into the batched multi-system engine, layered
    /// over the configuration's `batch:` block.
    pub batch_seeds: Option<Vec<u64>>,
    /// Sweep-axis override: initial learning rates (`--batch-lrs`).
    pub batch_lrs: Option<Vec<f64>>,
    /// Sweep-axis override: PSD radius multipliers (`--batch-scales`).
    pub batch_scales: Option<Vec<f64>>,
    /// Chrome-trace timeline output (`--trace-timeline`); overrides the
    /// configuration's `telemetry.timeline_out`. Enables the hierarchical
    /// span timeline for the run (off by default — the tracer costs one
    /// atomic load per span when disabled).
    pub trace_timeline: Option<PathBuf>,
    /// Convergence-diagnostics mode (`--diagnostics off|summary|events`);
    /// `None` defers to the configuration's `telemetry.diagnostics`.
    pub diagnostics: Option<DiagMode>,
}

/// The resolved checkpoint settings (CLI flags layered over the YAML
/// `checkpoint:` block).
#[derive(Debug, Clone)]
struct CheckpointSettings {
    path: PathBuf,
    every_steps: usize,
    keep_last: usize,
}

fn resolve_checkpoint(cfg: &PackingConfig, opts: &PackOptions) -> Option<CheckpointSettings> {
    use adampack_config::CheckpointConfig;
    let path = opts
        .checkpoint
        .clone()
        .or_else(|| cfg.checkpoint.as_ref().map(|c| c.path.clone()))?;
    Some(CheckpointSettings {
        path,
        every_steps: opts
            .checkpoint_every
            .or_else(|| cfg.checkpoint.as_ref().map(|c| c.every_steps))
            .unwrap_or(CheckpointConfig::DEFAULT_EVERY_STEPS),
        keep_last: opts
            .checkpoint_keep
            .or_else(|| cfg.checkpoint.as_ref().map(|c| c.keep_last))
            .unwrap_or(CheckpointConfig::DEFAULT_KEEP_LAST),
    })
}

/// Persists the run driver's encoded checkpoints (either format) through
/// the rotating atomic file writer in `adampack-io`.
struct FileSink(adampack_io::RotatingCheckpointWriter);

impl CheckpointSink for FileSink {
    fn save(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.0.save(bytes).map_err(|e| e.to_string())
    }
}

/// Loads the newest usable checkpoint from the rotation chain with
/// `decode`.
///
/// `Ok(None)` means no checkpoint file exists yet (fresh start); an error
/// means files exist but every candidate was rejected — corrupt or retired
/// state is never silently discarded.
fn load_latest_checkpoint<T, E: std::fmt::Display>(
    path: &Path,
    keep_last: usize,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) -> Result<Option<(PathBuf, T)>, CliError> {
    let (found, rejected) = adampack_io::load_newest_checkpoint(path, keep_last, decode);
    for why in &rejected {
        warn!("checkpoint {why}");
    }
    match found {
        None if !rejected.is_empty() => Err(CliError::Checkpoint(format!(
            "all {} checkpoint file(s) at {} were rejected; newest: {}",
            rejected.len(),
            path.display(),
            rejected[0]
        ))),
        found => Ok(found),
    }
}

/// The checkpoint fingerprint salt for the run context: the knobs that
/// live outside `PackingParams` (thread count, kernel override, sweep
/// grid) but would make a resumed run diverge from — or mean something
/// different than — the run that wrote the checkpoint. Mixed into every
/// system's params fingerprint so a resume under a different context is
/// rejected with exit 7 instead of silently diverging.
fn context_salt(threads: usize, kernel: Kernel, batch: Option<&BatchConfig>) -> u64 {
    let desc = batch.map_or_else(|| "none".to_string(), BatchConfig::descriptor);
    fnv1a(format!("threads={threads}|kernel={}|batch={desc}", kernel.name()).as_bytes())
}

/// The effective sweep grid: `--batch-*` flags layered over the YAML
/// `batch:` block, axis by axis. `None` means a plain single-system run.
fn effective_batch(cfg: &PackingConfig, opts: &PackOptions) -> Option<BatchConfig> {
    if opts.batch_seeds.is_none() && opts.batch_lrs.is_none() && opts.batch_scales.is_none() {
        return cfg.batch.clone();
    }
    let base = cfg.batch.clone().unwrap_or_default();
    Some(BatchConfig {
        seeds: opts.batch_seeds.clone().unwrap_or(base.seeds),
        lrs: opts.batch_lrs.clone().unwrap_or(base.lrs),
        radius_scales: opts.batch_scales.clone().unwrap_or(base.radius_scales),
    })
}

/// `out.vtk` + label `s7_lr0.01` → `out.s7_lr0.01.vtk` (per-system output
/// files of a batched sweep).
fn labeled_output_path(path: &Path, label: &str) -> PathBuf {
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("packing");
    let name = match path.extension().and_then(|e| e.to_str()) {
        Some(ext) if !ext.is_empty() => format!("{stem}.{label}.{ext}"),
        _ => format!("{stem}.{label}"),
    };
    path.with_file_name(name)
}

/// Runs a packing described by a configuration file and optionally writes
/// the particles (`.csv`, `.vtk` or `.xyz`, by extension).
pub fn run_pack(config_path: &Path, out: Option<&Path>) -> Result<RunSummary, CliError> {
    run_pack_opts(
        config_path,
        &PackOptions {
            out: out.map(Path::to_path_buf),
            ..PackOptions::default()
        },
    )
}

/// [`run_pack`] with explicit telemetry overrides.
pub fn run_pack_opts(config_path: &Path, opts: &PackOptions) -> Result<RunSummary, CliError> {
    let mut cfg = PackingConfig::from_file(config_path)?;
    // The thread, kernel and tiling flags win over the YAML `params:`
    // block; every system, the checkpoint salt and the manifests read the
    // resolved values from there.
    if opts.threads > 0 {
        cfg.params.threads = opts.threads;
    }
    if let Some(kernel) = opts.kernel {
        cfg.params.kernel = kernel;
    }
    if let Some(tiles) = opts.tiles {
        cfg.params.tiles = tiles;
    }

    // Observability wiring: flags override YAML, YAML overrides the
    // verbosity-derived default.
    let level = opts.log_level.unwrap_or(cfg.telemetry.level);
    adampack_telemetry::set_max_level(level.resolve(cfg.params.verbosity));
    adampack_telemetry::set_enabled(cfg.telemetry.metrics);
    let trace_out = opts
        .trace_out
        .clone()
        .or_else(|| cfg.telemetry.trace_out.clone());
    let metrics_out = opts
        .metrics_out
        .clone()
        .or_else(|| cfg.telemetry.metrics_out.clone());
    let timeline_out = opts
        .trace_timeline
        .clone()
        .or_else(|| cfg.telemetry.timeline_out.clone());
    let diag_mode = opts.diagnostics.unwrap_or(cfg.telemetry.diagnostics);
    // The span timeline is gated on one relaxed atomic load when off;
    // start each run from an empty ring so repeated in-process runs don't
    // bleed events into each other's exports. A full packing emits a few
    // events per optimizer step, so a CLI export gets a much deeper ring
    // than the library default (only threads that record allocate one);
    // runs that still overflow keep the newest events and warn.
    timeline::set_timeline_enabled(timeline_out.is_some());
    if timeline_out.is_some() {
        timeline::set_ring_capacity(1 << 20);
        timeline::reset_timeline();
    }

    // Thread-pool wiring, installed once for the whole run: 0 means one
    // worker per hardware thread. Purely a performance knob — results are
    // bitwise identical for any count.
    let mut builder = rayon::ThreadPoolBuilder::new();
    if cfg.params.threads > 0 {
        builder = builder.num_threads(cfg.params.threads);
    }
    let pool = builder
        .build()
        .map_err(|e| CliError::Usage(e.to_string()))?;
    pool.install(|| {
        run_pack_configured(&cfg, opts, trace_out, metrics_out, timeline_out, diag_mode)
    })
}

/// Exports the accumulated span timeline as Chrome Trace Format JSON,
/// written atomically so a crash mid-export never leaves a torn file.
fn write_timeline(path: &Path) -> Result<(), CliError> {
    let json = timeline::export_chrome_trace();
    adampack_io::write_atomic(path, json.as_bytes())
        .map_err(|e| CliError::Io(std::io::Error::other(e.to_string())))?;
    let dropped = timeline::dropped_events();
    if dropped > 0 {
        warn!("timeline ring overflowed: {dropped} oldest events dropped (ring keeps the newest)");
    }
    info!("timeline trace written to {}", path.display());
    Ok(())
}

/// Writes a [`RunManifest`] atomically next to `output`.
fn write_manifest(output: &Path, manifest: &RunManifest) -> Result<(), CliError> {
    let path = RunManifest::path_for(output);
    adampack_io::write_atomic(&path, manifest.to_json().as_bytes())
        .map_err(|e| CliError::Io(std::io::Error::other(e.to_string())))?;
    info!("run manifest written to {}", path.display());
    Ok(())
}

/// The packing proper, run inside the installed thread pool: a
/// `COLLECTIVE_ARRANGEMENT` config runs the one run driver — a plain run,
/// a sweep (`out.<label>.csv` per system) or a zoned run — and any other
/// algorithm its registry packer; both share the reports, outputs and
/// manifests.
fn run_pack_configured(
    cfg: &PackingConfig,
    opts: &PackOptions,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    timeline_out: Option<PathBuf>,
    diag_mode: DiagMode,
) -> Result<RunSummary, CliError> {
    let mesh = load_container_mesh(&cfg.container_path)?;
    let container = Container::from_mesh(&mesh).map_err(|e| CliError::Geometry(e.to_string()))?;
    if cfg.params.tiles > 1 && cfg.neighbor.strategy == NeighborStrategy::Naive {
        return Err(CliError::Usage(
            "tiles > 1 requires neighbor strategy 'auto' or 'verlet': the \
             naive cross scan reads every bed sphere and defeats slab retirement"
                .into(),
        ));
    }

    let collective = cfg.algorithm.eq_ignore_ascii_case("COLLECTIVE_ARRANGEMENT");
    let zoned = !cfg.zones.is_empty();
    let batch = effective_batch(cfg, opts);
    if let Some(batch) = &batch {
        // YAML axes were validated at parse time; CLI-supplied axes (and
        // their combination with the YAML block) are checked here.
        batch
            .validate()
            .map_err(|e| CliError::Usage(format!("{e} (from --batch-* flags)")))?;
        if !collective || zoned {
            return Err(CliError::Usage(
                "batched sweeps (batch: / --batch-*) require single-zone \
                 COLLECTIVE_ARRANGEMENT"
                    .into(),
            ));
        }
        // Per-system labeled series from any previous in-process run would
        // otherwise survive in the registry and leak into this run's
        // snapshot.
        adampack_telemetry::metrics::clear_system_metrics();
    }
    if zoned && !collective {
        return Err(CliError::Usage(
            "zoned packings require algorithm COLLECTIVE_ARRANGEMENT".into(),
        ));
    }

    // A plain run has a step trace; a plain run or a sweep checkpoints.
    let checkpointable = collective && !zoned;
    let plain = checkpointable && batch.is_none();
    if trace_out.is_some() && batch.is_some() {
        warn!("step tracing is not available for batched sweeps; no trace will be written");
    } else if trace_out.is_some() && !plain {
        warn!("step tracing is only available for single-zone COLLECTIVE_ARRANGEMENT runs; no trace will be written");
    }
    let trace_out = trace_out.filter(|_| plain);
    let checkpoint = resolve_checkpoint(cfg, opts);
    if (checkpoint.is_some() || opts.resume) && !checkpointable {
        warn!("checkpoint/resume is only available for single-zone COLLECTIVE_ARRANGEMENT runs; no checkpoints will be written");
    }
    let checkpoint = checkpoint.filter(|_| checkpointable);

    let mut specs = cfg.systems(&container, batch.as_ref())?;
    let salt = context_salt(cfg.params.threads, cfg.params.kernel, batch.as_ref());
    // Each system's seed and PSD, for its report and manifest: the driver
    // consumes the specs.
    let meta: Vec<(u64, Psd)> = specs
        .iter()
        .map(|s| (s.params.seed, s.psd.clone()))
        .collect();

    let (reports, fingerprints, diags) = if collective {
        let sweep = batch.is_some();
        // Locate resume state first: a plain run's trace file must be
        // appended to (not truncated) when continuing an interrupted run.
        let resume_state = match (&checkpoint, opts.resume && checkpointable) {
            (Some(ck), true) => {
                let loaded = load_latest_checkpoint(&ck.path, ck.keep_last, |b| {
                    DriverState::decode(b, sweep)
                })?;
                if loaded.is_none() {
                    warn!(
                        "--resume: no checkpoint at {}, starting fresh",
                        ck.path.display()
                    );
                }
                loaded
            }
            (None, true) => {
                return Err(CliError::Usage(
                    "--resume requires a checkpoint path (--checkpoint or the \
                     configuration's checkpoint: block)"
                        .into(),
                ));
            }
            _ => None,
        };
        let every = cfg.params.verbosity;
        let mut driver = if let Some(batch) = &batch {
            info!(
                "batched sweep: {} systems ({})",
                specs.len(),
                batch.descriptor()
            );
            let mut driver = BatchedPacker::new(&container, specs);
            if every > 0 {
                driver.set_pass_callback(move |p| {
                    if p.pass % every as u64 == 0 {
                        info!(
                            "pass {:>4}: {} systems active, {} particles, {} steps this pass",
                            p.pass, p.active, p.packed, p.steps
                        );
                    }
                });
            }
            driver
        } else if zoned {
            let zones = cfg.zone_specs(load_zone_hull)?;
            let params = specs.swap_remove(0).params;
            BatchedPacker::zoned(&container, params, &cfg.psds(), &zones)
                .map_err(|e| CliError::Config(ConfigError::Field(e.to_string())))?
        } else {
            let spec = specs.swap_remove(0);
            let mut packer = CollectivePacker::new(container.clone(), spec.params);
            if let Some(path) = &trace_out {
                let file = if resume_state.is_some() {
                    std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(path)?
                } else {
                    std::fs::File::create(path)?
                };
                packer.set_trace_sink(Box::new(JsonlWriter::new(std::io::BufWriter::new(file))));
                info!("streaming step trace to {}", path.display());
            }
            if every > 0 {
                packer.set_batch_callback(move |b| {
                    if b.index % every == 0 {
                        info!(
                            "batch {:>4}: {} particles, {} steps, fitness {:.3}, {}",
                            b.index,
                            b.requested,
                            b.steps,
                            b.best_fitness,
                            if b.accepted { "accepted" } else { "REJECTED" }
                        );
                    }
                });
            }
            BatchedPacker::plain(packer, spec.psd)
        };
        driver.set_threads(cfg.params.threads);
        driver.set_fingerprint_context(salt);
        driver.set_diagnostics(diag_mode);
        if let Some(ck) = &checkpoint {
            let writer = adampack_io::RotatingCheckpointWriter::new(&ck.path, ck.keep_last);
            driver.set_checkpoint_sink(Box::new(FileSink(writer)), ck.every_steps);
            info!(
                "checkpointing to {} at the first boundary after every {} steps (keeping {})",
                ck.path.display(),
                ck.every_steps,
                ck.keep_last
            );
        }
        if let Some((from, state)) = resume_state {
            info!("resuming from {}", from.display());
            driver.resume(state)?;
        }
        // The driver drops at the end of this block, flushing a plain
        // run's trace file before its manifest records the file's size.
        let reports = driver.run();
        (reports, driver.fingerprints(), driver.take_diagnostics())
    } else {
        let algo = registry(&cfg.algorithm).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown algorithm '{}'; known: {:?}",
                cfg.algorithm,
                adampack_core::runner::algorithm_names()
            ))
        })?;
        let spec = &specs[0];
        let result = algo.pack(
            &container,
            &spec.psd,
            spec.params.target_count,
            &spec.params,
        );
        let report = SystemReport {
            label: String::new(),
            result: Ok(result),
        };
        (
            vec![report],
            vec![(String::new(), 0)],
            vec![(String::new(), Vec::new())],
        )
    };

    if let Some(path) = &metrics_out {
        std::fs::write(path, adampack_telemetry::prometheus_snapshot())?;
        info!("metrics snapshot written to {}", path.display());
    }
    // Export the timeline before the manifests so they record the trace
    // file's real size.
    if let Some(path) = &timeline_out {
        write_timeline(path)?;
    }

    let mut summary = RunSummary {
        packed: 0,
        core_density: 0.0,
        mean_overlap_ratio: 0.0,
        seconds: 0.0,
        output: opts.out.clone(),
    };
    let mut ok_count = 0usize;
    let mut first_err: Option<PackError> = None;
    for (i, rep) in reports.into_iter().enumerate() {
        let result = match rep.result {
            Ok(result) => result,
            Err(e) => {
                if batch.is_some() {
                    warn!("system {} failed: {e}", rep.label);
                }
                first_err.get_or_insert(e);
                continue;
            }
        };
        let (seed, psd) = &meta[i];
        let density = metrics::core_density(&result.particles, &container.aabb(), 1.0 / 3.0);
        let contact = metrics::contact_stats(&result.particles);
        // The report's PSD row is only meaningful for single-set
        // configurations (zone mixes are checked per zone by their tests).
        let report = QualityReport::from_result(
            &result,
            &container,
            (cfg.particle_sets.len() == 1).then_some(psd),
        )
        .with_diagnostics(DiagSummary::from_records(&diags[i].1));
        if batch.is_some() {
            info!(
                "system {}: {} particles, core density {density:.4}, mean overlap {:.3}%, {:.2} s",
                rep.label,
                result.particles.len(),
                contact.mean_overlap_ratio * 100.0,
                result.duration.as_secs_f64()
            );
            adampack_telemetry::debug!("system {} report:\n{report}", rep.label);
        } else {
            info!("{report}");
        }
        if let Some(out) = &opts.out {
            let path = match batch {
                Some(_) => labeled_output_path(out, &rep.label),
                None => out.clone(),
            };
            write_particles(&path, &result)?;
            let mut manifest = RunManifest {
                label: rep.label,
                fingerprint: fingerprints[i].1,
                context_salt: salt,
                seed: *seed,
                threads: rayon::current_num_threads(),
                kernel: cfg.params.kernel.name().to_string(),
                backend: wide::backend_name().to_string(),
                isa: wide::detected_isa().to_string(),
                batch_grid: batch
                    .as_ref()
                    .map_or_else(String::new, BatchConfig::descriptor),
                tiles: cfg.params.tiles as u64,
                hot_set_peak_bytes: report.hot_set_peak_bytes,
                packed: result.particles.len() as u64,
                target: result.target as u64,
                wall_seconds: result.duration.as_secs_f64(),
                phase: report.phase,
                artifacts: Vec::new(),
            };
            manifest.add_artifact(&path);
            for extra in [&trace_out, &metrics_out, &timeline_out]
                .into_iter()
                .flatten()
            {
                manifest.add_artifact(extra);
            }
            write_manifest(&path, &manifest)?;
        }
        summary.packed += result.particles.len();
        summary.core_density += density;
        summary.mean_overlap_ratio += contact.mean_overlap_ratio;
        summary.seconds = summary.seconds.max(result.duration.as_secs_f64());
        ok_count += 1;
    }
    if let Some(e) = first_err {
        return Err(e.into());
    }
    summary.core_density /= ok_count as f64;
    summary.mean_overlap_ratio /= ok_count as f64;
    Ok(summary)
}

/// Writes particles in the format selected by the output extension.
pub fn write_particles(path: &Path, result: &PackResult) -> Result<(), CliError> {
    let ext = path
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("")
        .to_ascii_lowercase();
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    match ext.as_str() {
        "csv" => adampack_io::write_particles_csv(
            &mut w,
            result
                .particles
                .iter()
                .map(|p| (p.center, p.radius, p.batch, p.set)),
        )?,
        "vtk" => {
            let triples: Vec<_> = result
                .particles
                .iter()
                .map(|p| (p.center, p.radius, p.batch))
                .collect();
            adampack_io::write_particles_vtk(&mut w, &triples, "adampack packing")?;
        }
        "xyz" => {
            let spheres: Vec<_> = result.spheres();
            adampack_io::write_xyz(&mut w, &spheres, "adampack packing")?;
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown output extension '.{other}' (use .csv, .vtk or .xyz)"
            )))
        }
    }
    Ok(())
}

/// `adampack info`: prints (and returns) a configuration overview without
/// running the packing.
pub fn run_info(config_path: &Path) -> Result<String, CliError> {
    let cfg = PackingConfig::from_file(config_path)?;
    let mesh = load_container_mesh(&cfg.container_path)?;
    let container = Container::from_mesh(&mesh).map_err(|e| CliError::Geometry(e.to_string()))?;
    let mut s = String::new();
    use std::fmt::Write;
    writeln!(s, "configuration: {}", config_path.display()).ok();
    writeln!(s, "  algorithm:   {}", cfg.algorithm).ok();
    writeln!(
        s,
        "  container:   {} (volume {:.3}, {} hull planes)",
        cfg.container_path.display(),
        container.volume(),
        container.halfspaces().len()
    )
    .ok();
    writeln!(s, "  gravity:     {:?}", cfg.gravity_axis).ok();
    writeln!(
        s,
        "  lr {}  max_steps {}  patience {}  batch {}",
        cfg.params.lr, cfg.params.n_epoch, cfg.params.patience, cfg.params.batch_size
    )
    .ok();
    if let Some(batch) = &cfg.batch {
        let systems = batch.expand(&cfg.params);
        writeln!(s, "  batch sweep: {} systems ({})", systems.len(), {
            let labels: Vec<&str> = systems.iter().map(|y| y.label.as_str()).collect();
            labels.join(", ")
        })
        .ok();
    }
    writeln!(s, "  particle sets: {}", cfg.particle_sets.len()).ok();
    for (i, ps) in cfg.particle_sets.iter().enumerate() {
        writeln!(s, "    [{i}] {ps:?} (mean r = {:.4})", ps.to_psd().mean()).ok();
    }
    writeln!(s, "  zones: {}", cfg.zones.len()).ok();
    for (i, z) in cfg.zones.iter().enumerate() {
        let loc = match &z.location {
            LocationConfig::Slice { axis, min, max } => format!("slice {axis:?} [{min}, {max}]"),
            LocationConfig::Shape { path } => format!("shape {}", path.display()),
            LocationConfig::Everywhere => "everywhere".to_string(),
        };
        writeln!(
            s,
            "    [{i}] {} particles, {loc}, proportions {:?}",
            z.n_particles, z.set_proportions
        )
        .ok();
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adampack_geometry::{shapes, Vec3};
    use adampack_io::write_stl_ascii;
    use std::sync::{Mutex, MutexGuard};

    /// Every `run_pack_opts` call reconfigures process-global telemetry
    /// (timeline gate, log level, system metrics); tests that pack hold
    /// this lock for their whole body so a concurrent run cannot flip
    /// those switches mid-run. Poisoning is ignored: a failed test must
    /// not cascade into the others.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn setup_config(dir: &Path, algorithm: &str, with_zones: bool) -> PathBuf {
        std::fs::create_dir_all(dir).unwrap();
        let boxm = shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0));
        let f = std::fs::File::create(dir.join("box.stl")).unwrap();
        write_stl_ascii(std::io::BufWriter::new(f), &boxm, "box").unwrap();
        let zones = if with_zones {
            "\nzones:\n    - n_particles: 30\n      location:\n          slice:\n              axis: z\n              min_bound: -1.0\n              max_bound: 0.0\n      set_proportions: [1.0]\n"
        } else {
            ""
        };
        let yaml = format!(
            "container:\n    path: \"box.stl\"\nalgorithm: \"{algorithm}\"\nparams:\n    lr: 0.01\n    n_epoch: 300\n    patience: 40\n    batch_size: 25\n    seed: 3\nparticle_sets:\n    - radius_distribution: \"constant\"\n      radius_value: 0.15\n{zones}"
        );
        let p = dir.join("pack.yaml");
        std::fs::write(&p, yaml).unwrap();
        p
    }

    #[test]
    fn pack_without_zones_uses_registry_algorithm() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_rsa");
        let cfg = setup_config(&dir, "RSA", false);
        let summary = run_pack(&cfg, None).unwrap();
        assert!(summary.packed > 20);
        assert_eq!(summary.mean_overlap_ratio, 0.0, "RSA never overlaps");
        assert!(summary.output.is_none());
    }

    #[test]
    fn pack_with_zones_and_vtk_output() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_zones");
        let cfg = setup_config(&dir, "COLLECTIVE_ARRANGEMENT", true);
        let out = dir.join("out.vtk");
        let summary = run_pack(&cfg, Some(&out)).unwrap();
        assert!(summary.packed > 10, "packed {}", summary.packed);
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.starts_with("# vtk DataFile"));
        // Zoned runs take no checkpoints, so they have no fingerprint.
        let manifest = std::fs::read_to_string(RunManifest::path_for(&out)).unwrap();
        assert!(
            manifest.contains("\"fingerprint\": \"0000000000000000\""),
            "{manifest}"
        );
    }

    #[test]
    fn csv_and_xyz_outputs() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_formats");
        let cfg = setup_config(&dir, "DROP_AND_ROLL", false);
        for ext in ["csv", "xyz"] {
            let out = dir.join(format!("out.{ext}"));
            let summary = run_pack(&cfg, Some(&out)).unwrap();
            assert!(summary.packed > 10);
            assert!(out.exists());
        }
        // Unknown extension errors.
        let bad = dir.join("out.unknown");
        assert!(matches!(
            run_pack(&cfg, Some(&bad)),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn pack_with_trace_and_metrics_outputs() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_trace");
        let cfg = setup_config(&dir, "COLLECTIVE_ARRANGEMENT", false);
        let trace = dir.join("run.jsonl");
        let metrics_snapshot = dir.join("metrics.prom");
        let opts = PackOptions {
            trace_out: Some(trace.clone()),
            metrics_out: Some(metrics_snapshot.clone()),
            log_level: Some(ConsoleLevel::Off),
            ..PackOptions::default()
        };
        let summary = run_pack_opts(&cfg, &opts).unwrap();
        assert!(summary.packed > 10);
        let text = std::fs::read_to_string(&trace).unwrap();
        let mut lines = 0;
        for line in text.lines() {
            adampack_telemetry::StepRecord::parse(line).expect("every trace line parses");
            lines += 1;
        }
        assert!(lines > 0, "trace must contain step records");
        let prom = std::fs::read_to_string(&metrics_snapshot).unwrap();
        assert!(prom.contains("adampack_optimizer_steps_total"));
        assert!(prom.contains("adampack_phase_spawn_nanoseconds"));
    }

    #[test]
    fn kernel_override_produces_identical_packing() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_kernel");
        let cfg = setup_config(&dir, "COLLECTIVE_ARRANGEMENT", false);
        let mut summaries = Vec::new();
        for kernel in [Kernel::Scalar, Kernel::Simd] {
            let opts = PackOptions {
                kernel: Some(kernel),
                log_level: Some(ConsoleLevel::Off),
                ..PackOptions::default()
            };
            summaries.push(run_pack_opts(&cfg, &opts).unwrap());
        }
        assert_eq!(summaries[0].packed, summaries[1].packed);
        assert_eq!(
            summaries[0].core_density.to_bits(),
            summaries[1].core_density.to_bits(),
            "scalar and simd kernels must pack bitwise identically"
        );
        assert_eq!(
            summaries[0].mean_overlap_ratio.to_bits(),
            summaries[1].mean_overlap_ratio.to_bits()
        );
    }

    #[test]
    fn zoned_non_collective_rejected() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_zoned_rsa");
        let cfg = setup_config(&dir, "RSA", true);
        assert!(matches!(run_pack(&cfg, None), Err(CliError::Usage(_))));
    }

    #[test]
    fn zone_outside_the_container_is_a_config_error() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_zone_outside");
        let cfg = setup_config(&dir, "COLLECTIVE_ARRANGEMENT", true);
        // The box spans z ∈ [-1, 1]; this slab lies above it.
        let yaml = std::fs::read_to_string(&cfg).unwrap().replace(
            "min_bound: -1.0\n              max_bound: 0.0",
            "min_bound: 5.0\n              max_bound: 6.0",
        );
        assert!(yaml.contains("min_bound: 5.0"));
        std::fs::write(&cfg, yaml).unwrap();
        let err = run_pack(&cfg, None).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        assert!(err.to_string().contains("zones[0]"), "{err}");
    }

    #[test]
    fn unknown_algorithm_rejected() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_unknown");
        let cfg = setup_config(&dir, "SIMULATED_ANNEALING", false);
        let err = run_pack(&cfg, None).unwrap_err();
        assert!(err.to_string().contains("SIMULATED_ANNEALING"));
    }

    #[test]
    fn info_reports_configuration() {
        let dir = std::env::temp_dir().join("adampack_cli_info");
        let cfg = setup_config(&dir, "COLLECTIVE_ARRANGEMENT", true);
        let info = run_info(&cfg).unwrap();
        assert!(info.contains("COLLECTIVE_ARRANGEMENT"));
        assert!(info.contains("particle sets: 1"));
        assert!(info.contains("zones: 1"));
        assert!(info.contains("hull planes"));
    }

    /// Configs naming a deleted kernel or neighbor strategy fail as config
    /// errors (exit 3) that name the accepted values.
    #[test]
    fn removed_knob_values_are_config_errors() {
        let dir = std::env::temp_dir().join("adampack_cli_removed_knobs");
        let cfg = setup_config(&dir, "COLLECTIVE_ARRANGEMENT", false);
        let base = std::fs::read_to_string(&cfg).unwrap();
        for (extra, accepted) in [
            (
                "neighbor:\n    strategy: grid\n",
                "'auto', 'verlet' or 'naive'",
            ),
            (
                concat!("    kernel: simd_", "mixed\n"),
                "'scalar' or 'simd'",
            ),
        ] {
            let yaml = if extra.starts_with("    ") {
                base.replace("params:\n", &format!("params:\n{extra}"))
            } else {
                format!("{base}{extra}")
            };
            let path = dir.join("removed.yaml");
            std::fs::write(&path, yaml).unwrap();
            let err = run_info(&path).unwrap_err();
            assert_eq!(err.exit_code(), 3, "{err}");
            assert!(err.to_string().contains(accepted), "{err}");
        }
    }

    #[test]
    fn missing_config_is_io_error() {
        let _serial = serial();
        let err = run_pack(Path::new("/definitely/not/here.yaml"), None).unwrap_err();
        assert!(matches!(err, CliError::Config(_)));
    }

    #[test]
    fn exit_codes_are_distinct_per_class() {
        let codes = [
            CliError::Usage("u".into()).exit_code(),
            CliError::Config(ConfigError::Field("f".into())).exit_code(),
            CliError::Geometry("g".into()).exit_code(),
            CliError::Io(std::io::Error::other("io")).exit_code(),
            CliError::Pack(PackError::Diverged {
                batch: 0,
                step: 1,
                recoveries: 2,
            })
            .exit_code(),
            CliError::Checkpoint("c".into()).exit_code(),
            CliError::Pack(PackError::HorizonBreach {
                batch: 3,
                misses: 4,
            })
            .exit_code(),
            CliError::Server("s".into()).exit_code(),
        ];
        let mut unique = codes.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), codes.len(), "codes collide: {codes:?}");
        assert!(codes.iter().all(|&c| c != 0), "0 is reserved for success");
    }

    #[test]
    fn checkpoint_flag_writes_a_resumable_file() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_ckpt");
        let cfg = setup_config(&dir, "COLLECTIVE_ARRANGEMENT", false);
        let ckpt = dir.join("run.ckpt");
        for stale in adampack_io::checkpoint_candidates(&ckpt, 8) {
            std::fs::remove_file(stale).ok();
        }
        let (plain, checkpointed) = (dir.join("plain.csv"), dir.join("checkpointed.csv"));
        run_pack_opts(
            &cfg,
            &PackOptions {
                out: Some(plain.clone()),
                log_level: Some(ConsoleLevel::Off),
                ..PackOptions::default()
            },
        )
        .unwrap();
        let opts = PackOptions {
            out: Some(checkpointed.clone()),
            checkpoint: Some(ckpt.clone()),
            checkpoint_every: Some(40),
            checkpoint_keep: Some(2),
            log_level: Some(ConsoleLevel::Off),
            ..PackOptions::default()
        };
        let summary = run_pack_opts(&cfg, &opts).unwrap();
        assert!(summary.packed > 10);
        assert!(
            std::fs::read(&plain).unwrap() == std::fs::read(&checkpointed).unwrap(),
            "checkpointing must not change the packed bytes"
        );
        let bytes = std::fs::read(&ckpt).expect("checkpoint written");
        let state = adampack_core::checkpoint::decode(&bytes).expect("checkpoint decodes");
        assert_eq!(state.seed, 3, "seed from setup_config");
        assert!(!state.particles.is_empty());
    }

    #[test]
    fn resume_without_checkpoint_path_is_usage_error() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_resume_nopath");
        let cfg = setup_config(&dir, "COLLECTIVE_ARRANGEMENT", false);
        let opts = PackOptions {
            resume: true,
            log_level: Some(ConsoleLevel::Off),
            ..PackOptions::default()
        };
        let err = run_pack_opts(&cfg, &opts).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
    }

    #[test]
    fn resume_without_existing_checkpoint_starts_fresh() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_resume_fresh");
        let cfg = setup_config(&dir, "COLLECTIVE_ARRANGEMENT", false);
        let ckpt = dir.join("never_written.ckpt");
        // Clear the whole rotation chain: a stale `.1` from an earlier test
        // run would otherwise be picked up as a resume candidate.
        for stale in adampack_io::checkpoint_candidates(&ckpt, 8) {
            std::fs::remove_file(stale).ok();
        }
        let opts = PackOptions {
            checkpoint: Some(ckpt),
            resume: true,
            log_level: Some(ConsoleLevel::Off),
            ..PackOptions::default()
        };
        let summary = run_pack_opts(&cfg, &opts).unwrap();
        assert!(summary.packed > 10);
    }

    #[test]
    fn corrupt_checkpoint_without_fallback_is_checkpoint_error() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_resume_corrupt");
        let cfg = setup_config(&dir, "COLLECTIVE_ARRANGEMENT", false);
        let ckpt = dir.join("run.ckpt");
        for stale in adampack_io::checkpoint_candidates(&ckpt, 8) {
            std::fs::remove_file(stale).ok();
        }
        // A mid-batch checkpoint from an older build: a valid stream plus
        // the retired tag-4 `batch` section, framed by hand.
        let mut mid_batch = adampack_core::checkpoint::encode(&RunState::default());
        let footer = mid_batch.split_off(mid_batch.len() - 16);
        let payload = [7u8; 16];
        mid_batch.extend_from_slice(&4u32.to_le_bytes());
        mid_batch.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        mid_batch.extend_from_slice(&adampack_core::checkpoint::crc32(&payload).to_le_bytes());
        mid_batch.extend_from_slice(&payload);
        mid_batch.extend_from_slice(&footer);
        for (bytes, names) in [
            (&b"definitely not a checkpoint"[..], "bad magic"),
            (&mid_batch[..], "retired section 'batch'"),
        ] {
            std::fs::write(&ckpt, bytes).unwrap();
            let opts = PackOptions {
                checkpoint: Some(ckpt.clone()),
                resume: true,
                log_level: Some(ConsoleLevel::Off),
                ..PackOptions::default()
            };
            let err = run_pack_opts(&cfg, &opts).unwrap_err();
            assert!(matches!(err, CliError::Checkpoint(_)), "{err:?}");
            assert_eq!(err.exit_code(), 7);
            assert!(err.to_string().contains(names), "{err}");
        }
    }

    #[test]
    fn batched_pack_writes_per_system_outputs() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_batched");
        let cfg = setup_config(&dir, "COLLECTIVE_ARRANGEMENT", false);
        let out = dir.join("sweep.csv");
        let opts = PackOptions {
            out: Some(out.clone()),
            batch_seeds: Some(vec![3, 4]),
            log_level: Some(ConsoleLevel::Off),
            ..PackOptions::default()
        };
        let summary = run_pack_opts(&cfg, &opts).unwrap();
        assert!(summary.packed > 20, "two systems packed {}", summary.packed);
        for label in ["s3_lr0.01", "s4_lr0.01"] {
            let p = dir.join(format!("sweep.{label}.csv"));
            assert!(p.exists(), "missing per-system output {}", p.display());
        }
    }

    #[test]
    fn duplicate_batch_flag_values_are_a_usage_error() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_batched_dup");
        let cfg = setup_config(&dir, "COLLECTIVE_ARRANGEMENT", false);
        let opts = PackOptions {
            batch_seeds: Some(vec![5, 5]),
            log_level: Some(ConsoleLevel::Off),
            ..PackOptions::default()
        };
        let err = run_pack_opts(&cfg, &opts).unwrap_err();
        match err {
            CliError::Usage(msg) => {
                assert!(msg.contains("duplicate seed 5"), "{msg}");
                assert!(msg.contains("--batch-*"), "{msg}");
            }
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn batched_system_matches_single_run_bitwise() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_batched_parity");
        let cfg = setup_config(&dir, "COLLECTIVE_ARRANGEMENT", false);
        let plain = dir.join("plain.csv");
        let one_system = dir.join("sweep.s3_lr0.01.csv");
        std::fs::remove_file(&one_system).ok();
        for (out, batch_seeds) in [
            (plain.clone(), None),
            (dir.join("sweep.csv"), Some(vec![3])),
        ] {
            let opts = PackOptions {
                out: Some(out),
                batch_seeds,
                log_level: Some(ConsoleLevel::Off),
                ..PackOptions::default()
            };
            run_pack_opts(&cfg, &opts).unwrap();
        }
        // A one-system sweep over the same seed must write the plain run's
        // bytes (batching is a throughput knob, not a semantic one).
        assert!(
            std::fs::read(&plain).unwrap() == std::fs::read(&one_system).unwrap(),
            "the one-system sweep's CSV differs from the plain run's"
        );
    }

    #[test]
    fn batched_resume_under_different_sweep_is_exit_7() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_batched_resume");
        let cfg = setup_config(&dir, "COLLECTIVE_ARRANGEMENT", false);
        let ckpt = dir.join("sweep.ckpt");
        for stale in adampack_io::checkpoint_candidates(&ckpt, 8) {
            std::fs::remove_file(stale).ok();
        }
        let opts = PackOptions {
            batch_seeds: Some(vec![3, 4]),
            checkpoint: Some(ckpt.clone()),
            checkpoint_every: Some(40),
            log_level: Some(ConsoleLevel::Off),
            ..PackOptions::default()
        };
        run_pack_opts(&cfg, &opts).unwrap();
        assert!(ckpt.exists(), "batched checkpoint written");
        // Same grid resumes cleanly (run is already complete — fresh-ish
        // no-op resume still has to accept the state).
        let resume_same = PackOptions {
            resume: true,
            ..opts.clone()
        };
        run_pack_opts(&cfg, &resume_same).unwrap();
        // A different sweep grid must be rejected with exit code 7.
        let resume_other = PackOptions {
            batch_seeds: Some(vec![5, 6]),
            resume: true,
            ..opts.clone()
        };
        let err = run_pack_opts(&cfg, &resume_other).unwrap_err();
        assert!(
            matches!(err, CliError::Pack(PackError::Resume(_))),
            "{err:?}"
        );
        assert_eq!(err.exit_code(), 7);
    }

    #[test]
    fn resume_under_different_threads_or_kernel_is_exit_7() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_ctx_fingerprint");
        let cfg = setup_config(&dir, "COLLECTIVE_ARRANGEMENT", false);
        let ckpt = dir.join("run.ckpt");
        for stale in adampack_io::checkpoint_candidates(&ckpt, 8) {
            std::fs::remove_file(stale).ok();
        }
        let opts = PackOptions {
            checkpoint: Some(ckpt.clone()),
            checkpoint_every: Some(40),
            log_level: Some(ConsoleLevel::Off),
            ..PackOptions::default()
        };
        run_pack_opts(&cfg, &opts).unwrap();
        assert!(ckpt.exists());
        for other in [
            PackOptions {
                threads: 2,
                resume: true,
                ..opts.clone()
            },
            PackOptions {
                kernel: Some(Kernel::Scalar),
                resume: true,
                ..opts.clone()
            },
        ] {
            let err = run_pack_opts(&cfg, &other).unwrap_err();
            assert!(
                matches!(err, CliError::Pack(PackError::Resume(_))),
                "{err:?}"
            );
            assert_eq!(err.exit_code(), 7);
        }
    }

    #[test]
    fn timeline_manifest_and_diagnostics_for_single_run() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_timeline");
        let cfg = setup_config(&dir, "COLLECTIVE_ARRANGEMENT", false);
        let out = dir.join("out.csv");
        let trace = dir.join("trace.json");
        let ckpt = dir.join("run.ckpt");
        for stale in adampack_io::checkpoint_candidates(&ckpt, 8) {
            std::fs::remove_file(stale).ok();
        }
        let opts = PackOptions {
            out: Some(out.clone()),
            trace_timeline: Some(trace.clone()),
            diagnostics: Some(DiagMode::Events),
            checkpoint: Some(ckpt.clone()),
            checkpoint_every: Some(40),
            log_level: Some(ConsoleLevel::Off),
            ..PackOptions::default()
        };
        let summary = run_pack_opts(&cfg, &opts).unwrap();
        assert!(summary.packed > 10);
        // The timeline is valid Chrome Trace Format with the hierarchy's
        // span names and diagnostic instants.
        let json = std::fs::read_to_string(&trace).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        for needle in [
            "\"name\":\"batch\"",
            "\"name\":\"optimize\"",
            "\"name\":\"gradient\"",
            "\"name\":\"diag.loss_slope\"",
            "\"selfTime\"",
        ] {
            assert!(json.contains(needle), "missing {needle}");
        }
        // The manifest sits next to the output and its fingerprint matches
        // the checkpoint's, so provenance can be cross-checked.
        let manifest = std::fs::read_to_string(RunManifest::path_for(&out)).unwrap();
        assert!(manifest.contains("\"schema\": \"adampack.manifest/v1\""));
        assert!(manifest.contains("out.csv"));
        assert!(manifest.contains("trace.json"));
        let state = adampack_core::checkpoint::decode(&std::fs::read(&ckpt).unwrap()).unwrap();
        assert!(
            manifest.contains(&format!("\"{:016x}\"", state.params_fingerprint)),
            "manifest fingerprint must match the checkpoint fingerprint:\n{manifest}"
        );
    }

    #[test]
    fn batched_run_labels_metrics_manifests_and_timeline_per_system() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_batched_obs");
        let cfg = setup_config(&dir, "COLLECTIVE_ARRANGEMENT", false);
        let out = dir.join("sweep.csv");
        let trace = dir.join("sweep.trace.json");
        let prom = dir.join("sweep.prom");
        let opts = PackOptions {
            out: Some(out.clone()),
            trace_timeline: Some(trace.clone()),
            metrics_out: Some(prom.clone()),
            diagnostics: Some(DiagMode::Summary),
            batch_seeds: Some(vec![3, 4]),
            batch_lrs: Some(vec![0.01, 0.02]),
            log_level: Some(ConsoleLevel::Off),
            ..PackOptions::default()
        };
        let summary = run_pack_opts(&cfg, &opts).unwrap();
        assert!(
            summary.packed > 40,
            "four systems packed {}",
            summary.packed
        );
        let labels = ["s3_lr0.01", "s3_lr0.02", "s4_lr0.01", "s4_lr0.02"];
        // One labeled Prometheus series and one manifest per system.
        let snapshot = std::fs::read_to_string(&prom).unwrap();
        let json = std::fs::read_to_string(&trace).unwrap();
        for label in labels {
            assert!(
                snapshot.contains(&format!(
                    "adampack_system_steps_total{{system=\"{label}\"}}"
                )),
                "missing labeled series for {label}"
            );
            assert!(
                json.contains(&format!("\"system\":\"{label}\"")),
                "timeline missing system label {label}"
            );
            let mpath = RunManifest::path_for(&labeled_output_path(&out, label));
            let manifest = std::fs::read_to_string(&mpath).unwrap();
            assert!(manifest.contains(&format!("\"label\": \"{label}\"")));
            assert!(manifest.contains("\"batch_grid\": "));
        }
    }

    #[test]
    fn observability_never_steers_the_packing() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_obs_inert");
        let cfg = setup_config(&dir, "COLLECTIVE_ARRANGEMENT", false);
        let (plain_csv, observed_csv) = (dir.join("plain.csv"), dir.join("observed.csv"));
        run_pack_opts(
            &cfg,
            &PackOptions {
                out: Some(plain_csv.clone()),
                log_level: Some(ConsoleLevel::Off),
                ..PackOptions::default()
            },
        )
        .unwrap();
        run_pack_opts(
            &cfg,
            &PackOptions {
                out: Some(observed_csv.clone()),
                trace_timeline: Some(dir.join("trace.json")),
                diagnostics: Some(DiagMode::Events),
                log_level: Some(ConsoleLevel::Off),
                ..PackOptions::default()
            },
        )
        .unwrap();
        let plain = std::fs::read(&plain_csv).unwrap();
        assert!(!plain.is_empty());
        assert!(
            plain == std::fs::read(&observed_csv).unwrap(),
            "the timeline and diagnostics must not perturb the packed bytes"
        );
    }

    #[test]
    fn labeled_output_paths() {
        assert_eq!(
            labeled_output_path(Path::new("/a/out.vtk"), "s1_lr0.01"),
            PathBuf::from("/a/out.s1_lr0.01.vtk")
        );
        assert_eq!(
            labeled_output_path(Path::new("out"), "s1_lr0.01"),
            PathBuf::from("out.s1_lr0.01")
        );
    }

    #[test]
    fn open_container_mesh_rejected_naming_the_facet() {
        let _serial = serial();
        let dir = std::env::temp_dir().join("adampack_cli_badmesh");
        let cfg = setup_config(&dir, "COLLECTIVE_ARRANGEMENT", false);
        // Overwrite the container with an open box (one facet removed).
        let mut boxm = shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0));
        boxm.faces.pop();
        let f = std::fs::File::create(dir.join("box.stl")).unwrap();
        write_stl_ascii(std::io::BufWriter::new(f), &boxm, "open box").unwrap();
        let err = run_pack(&cfg, None).unwrap_err();
        assert!(matches!(err, CliError::Geometry(_)), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("facet"), "{msg}");
        assert!(msg.contains("box.stl"), "{msg}");
    }
}
