//! The typed packing configuration (the paper's Fig. 9 format).

use std::path::{Path, PathBuf};

use adampack_core::psd::PsdError;
use adampack_core::zone::try_zone_psd;
use adampack_core::{
    Container, Kernel, LrPolicy, NeighborParams, NeighborStrategy, PackingParams, Psd, SystemSpec,
    ZoneRegion, ZoneSpec,
};
use adampack_geometry::{Axis, ConvexHull};
use adampack_telemetry::{DiagMode, Level};

use crate::yaml::{parse_yaml, Value, YamlError};

/// Configuration-level errors.
#[derive(Debug)]
pub enum ConfigError {
    /// The YAML itself failed to parse.
    Yaml(YamlError),
    /// A field is missing or has the wrong type/value.
    Field(String),
    /// Underlying I/O failure (file loading).
    Io(std::io::Error),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Yaml(e) => write!(f, "{e}"),
            ConfigError::Field(m) => write!(f, "config error: {m}"),
            ConfigError::Io(e) => write!(f, "config i/o error: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<YamlError> for ConfigError {
    fn from(e: YamlError) -> Self {
        ConfigError::Yaml(e)
    }
}

impl From<std::io::Error> for ConfigError {
    fn from(e: std::io::Error) -> Self {
        ConfigError::Io(e)
    }
}

fn field(msg: impl Into<String>) -> ConfigError {
    ConfigError::Field(msg.into())
}

/// The `params:` block (optimizer settings).
#[derive(Debug, Clone, PartialEq)]
pub struct AlgoParams {
    /// Initial learning rate (`lr`), default 0.01.
    pub lr: f64,
    /// Maximum optimizer steps per batch (`n_epoch`), default 2000.
    pub n_epoch: usize,
    /// Patience (`patience`), default 50.
    pub patience: usize,
    /// Progress-print period (`verbosity`), default 0 = silent.
    pub verbosity: usize,
    /// Batch size (`batch_size`), default 500.
    pub batch_size: usize,
    /// RNG seed (`seed`), default 0.
    pub seed: u64,
    /// Worker threads for the parallel phases (`threads`), default 0 =
    /// one per hardware thread. Results are bitwise identical for any
    /// value; this is purely a performance knob.
    pub threads: usize,
    /// Arithmetic kernel for the hot loops (`kernel`): `simd` (default)
    /// or `scalar`. Both produce bitwise identical packings; `scalar` is
    /// the correctness oracle.
    pub kernel: Kernel,
    /// Gravity-axis tiling (`tiles`), default 1 = monolithic. With `tiles:
    /// T > 1` the container's altitude range is split into T slabs and
    /// settled slabs more than one slab below the bed surface are retired
    /// from the resident hot set. Purely a memory knob: the packing is
    /// bitwise identical to the untiled run.
    pub tiles: usize,
}

impl Default for AlgoParams {
    fn default() -> Self {
        AlgoParams {
            lr: 0.01,
            n_epoch: 2000,
            patience: 50,
            verbosity: 0,
            batch_size: 500,
            seed: 0,
            threads: 0,
            kernel: Kernel::default(),
            tiles: 1,
        }
    }
}

/// The `neighbor:` block (the pair-search pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NeighborConfig {
    /// `strategy:` — `verlet` (default; `auto` is another spelling of it)
    /// or `naive`. Both pack the same bytes; `naive` is the exact oracle.
    pub strategy: NeighborStrategy,
}

impl NeighborConfig {
    /// The runtime neighbor parameters.
    pub fn to_params(self) -> NeighborParams {
        NeighborParams {
            strategy: self.strategy,
            ..NeighborParams::default()
        }
    }
}

/// Console log-level selection (`telemetry: level:`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsoleLevel {
    /// Derive the level from `params.verbosity`: `info` normally, `debug`
    /// when the verbosity period is positive.
    #[default]
    Auto,
    /// Suppress all console logging (`level: off`).
    Off,
    /// A fixed explicit level.
    Fixed(Level),
}

impl ConsoleLevel {
    /// The effective maximum level given the configured progress-print
    /// period (`params.verbosity`).
    pub fn resolve(self, verbosity: usize) -> Option<Level> {
        match self {
            ConsoleLevel::Auto => Some(if verbosity > 0 {
                Level::Debug
            } else {
                Level::Info
            }),
            ConsoleLevel::Off => None,
            ConsoleLevel::Fixed(level) => Some(level),
        }
    }
}

/// The `telemetry:` block (observability sinks and console level).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// `level:` — console log level (`error|warn|info|debug|trace|off`);
    /// absent means [`ConsoleLevel::Auto`].
    pub level: ConsoleLevel,
    /// `trace_out:` — when set, a JSONL per-step trace is streamed to this
    /// file (not resolved against the config directory: output paths are
    /// relative to the working directory).
    pub trace_out: Option<PathBuf>,
    /// `metrics_out:` — when set, a Prometheus-style text snapshot of all
    /// counters and histograms is written here after the run.
    pub metrics_out: Option<PathBuf>,
    /// `metrics:` — record counters/histograms/spans (default `true`;
    /// disable to benchmark the telemetry-off configuration).
    pub metrics: bool,
    /// `timeline_out:` — when set, a Chrome-trace timeline of the run's
    /// hierarchical spans is written here (load in `chrome://tracing` or
    /// Perfetto). Enables the span timeline for the run.
    pub timeline_out: Option<PathBuf>,
    /// `diagnostics:` — convergence diagnostics (`off|summary|events`),
    /// default `off`. `summary` adds a convergence row to the quality
    /// report; `events` additionally emits per-batch instant events on the
    /// timeline.
    pub diagnostics: DiagMode,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            level: ConsoleLevel::Auto,
            trace_out: None,
            metrics_out: None,
            metrics: true,
            timeline_out: None,
            diagnostics: DiagMode::Off,
        }
    }
}

/// The `checkpoint:` block (crash-resume knobs).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// `path:` — checkpoint file. Like the telemetry outputs this is *not*
    /// resolved against the config directory: output paths are relative to
    /// the working directory.
    pub path: PathBuf,
    /// `every_steps:` — save at the first batch boundary after this many
    /// optimizer steps, default 500.
    pub every_steps: usize,
    /// `keep_last:` — checkpoint files retained (current + rotated
    /// history), default 2.
    pub keep_last: usize,
}

impl CheckpointConfig {
    /// Default cadence when the block gives only a path.
    pub const DEFAULT_EVERY_STEPS: usize = 500;
    /// Default retention when the block gives only a path.
    pub const DEFAULT_KEEP_LAST: usize = 2;
}

/// The `batch:` block (multi-system sweep grids).
///
/// Each axis lists values to sweep; the batched engine packs the full
/// cartesian product `seeds × lrs × radius_scales` as independent systems
/// in one process. An empty axis means "use the base value" (`params.seed`,
/// `params.lr`, or an unscaled PSD respectively), so any subset of axes can
/// be swept.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchConfig {
    /// `seeds:` — RNG seeds to sweep; empty means the base `params.seed`.
    pub seeds: Vec<u64>,
    /// `lrs:` — initial learning rates to sweep; empty means `params.lr`.
    pub lrs: Vec<f64>,
    /// `radius_scales:` — PSD radius multipliers; empty means no scaling.
    pub radius_scales: Vec<f64>,
}

/// One expanded system of a batched sweep (a point of the cartesian grid).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSystem {
    /// Stable system label (`s{seed}_lr{lr}` plus `_x{scale}` when the
    /// sweep has a radius-scale axis) — used for output file stems,
    /// checkpoint sections and report lines.
    pub label: String,
    /// RNG seed for this system.
    pub seed: u64,
    /// Initial learning rate for this system.
    pub lr: f64,
    /// PSD radius multiplier for this system (1.0 = unscaled).
    pub radius_scale: f64,
}

impl BatchConfig {
    /// Hard cap on the expanded system count: a sweep larger than this is a
    /// config error (it almost certainly means a typo in a grid axis).
    pub const MAX_SYSTEMS: usize = 1024;

    /// Expands the grid into the labeled system list (cartesian product,
    /// seeds outermost, radius scales innermost — a deterministic order).
    pub fn expand(&self, base: &AlgoParams) -> Vec<BatchSystem> {
        let seeds: Vec<u64> = if self.seeds.is_empty() {
            vec![base.seed]
        } else {
            self.seeds.clone()
        };
        let lrs: Vec<f64> = if self.lrs.is_empty() {
            vec![base.lr]
        } else {
            self.lrs.clone()
        };
        let scaled = !self.radius_scales.is_empty();
        let scales: Vec<f64> = if scaled {
            self.radius_scales.clone()
        } else {
            vec![1.0]
        };
        let mut systems = Vec::with_capacity(seeds.len() * lrs.len() * scales.len());
        for &seed in &seeds {
            for &lr in &lrs {
                for &scale in &scales {
                    let mut label = format!("s{seed}_lr{lr}");
                    if scaled {
                        label.push_str(&format!("_x{scale}"));
                    }
                    systems.push(BatchSystem {
                        label,
                        seed,
                        lr,
                        radius_scale: scale,
                    });
                }
            }
        }
        systems
    }

    /// Checks the axis invariants shared by the YAML parser and the CLI
    /// sweep flags: positive finite rates/scales, no duplicate values per
    /// axis, expanded grid within [`BatchConfig::MAX_SYSTEMS`]. The YAML
    /// parser enforces these per element as it reads; CLI-supplied axes
    /// arrive pre-built and go through this instead.
    pub fn validate(&self) -> Result<(), String> {
        for (i, s) in self.seeds.iter().enumerate() {
            if self.seeds[..i].contains(s) {
                return Err(format!("batch seeds: duplicate seed {s}"));
            }
        }
        for (key, axis) in [("lrs", &self.lrs), ("radius_scales", &self.radius_scales)] {
            for (i, &f) in axis.iter().enumerate() {
                if !(f > 0.0 && f.is_finite()) {
                    return Err(format!(
                        "batch {key}: value {f} must be positive and finite"
                    ));
                }
                if axis[..i].iter().any(|o| o.to_bits() == f.to_bits()) {
                    return Err(format!("batch {key}: duplicate value {f}"));
                }
            }
        }
        let count =
            self.seeds.len().max(1) * self.lrs.len().max(1) * self.radius_scales.len().max(1);
        if count > BatchConfig::MAX_SYSTEMS {
            return Err(format!(
                "batch sweep expands to {count} systems (max {})",
                BatchConfig::MAX_SYSTEMS
            ));
        }
        Ok(())
    }

    /// A stable one-line description of the sweep grid, mixed into the
    /// checkpoint fingerprint so a resume under a different sweep is
    /// rejected instead of silently diverging.
    pub fn descriptor(&self) -> String {
        fn join<T: std::fmt::Display>(xs: &[T]) -> String {
            xs.iter().map(T::to_string).collect::<Vec<_>>().join(",")
        }
        format!(
            "seeds=[{}]|lrs=[{}]|scales=[{}]",
            join(&self.seeds),
            join(&self.lrs),
            join(&self.radius_scales)
        )
    }
}

/// The `server:` block: resource limits for `adampack serve`.
///
/// Every limit that used to be a hard-coded constant in the HTTP layer is
/// a knob here, so operators can size the service to the box it runs on.
/// The block lives in its own YAML file (or alongside a packing config —
/// other top-level keys are ignored) and is loaded with `adampack serve
/// --config <file>`; individual CLI flags override field by field.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// `max_body_bytes:` — largest accepted request body (YAML configs);
    /// larger uploads are rejected with 413. Default 8 MiB.
    pub max_body_bytes: usize,
    /// `read_timeout_ms:` — socket read/write timeout per connection, the
    /// slow-loris bound. Default 10 000 ms.
    pub read_timeout_ms: u64,
    /// `queue_depth:` — bounded depth of each work-queue shard; a
    /// submission landing in a full shard is shed with 429. Default 64.
    pub queue_depth: usize,
    /// `memory_budget_bytes:` — global admission budget over the predicted
    /// peak bytes of queued + running jobs. A job predicted to exceed the
    /// whole budget alone is rejected with 413; one that merely does not
    /// fit *right now* is shed with 429 + Retry-After. 0 = unlimited.
    /// Default 2 GiB.
    pub memory_budget_bytes: u64,
    /// `cache_cap_bytes:` — size cap on the on-disk artifact/checkpoint
    /// store; least-recently-used evictable files are removed to stay
    /// under it. 0 = unlimited. Default 1 GiB.
    pub cache_cap_bytes: u64,
    /// `job_deadline_s:` — wall-clock budget per job, measured from the
    /// moment it is (re)scheduled and enforced at batch boundaries; an
    /// over-deadline job ends `expired` with its newest checkpoint kept.
    /// 0 = no deadline (the default).
    pub job_deadline_s: u64,
    /// `job_step_ceiling:` — optimizer-step budget per job, enforced at
    /// the same boundaries as the deadline. 0 = no ceiling (the default).
    pub job_step_ceiling: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_body_bytes: 8 * 1024 * 1024,
            read_timeout_ms: 10_000,
            queue_depth: 64,
            memory_budget_bytes: 2 * 1024 * 1024 * 1024,
            cache_cap_bytes: 1024 * 1024 * 1024,
            job_deadline_s: 0,
            job_step_ceiling: 0,
        }
    }
}

impl ServerConfig {
    /// Parses the `server:` block out of a YAML document. A document
    /// without the block yields the defaults (so `--config` accepts a
    /// plain packing config too); a malformed block is a config error.
    pub fn from_yaml(source: &str) -> Result<ServerConfig, ConfigError> {
        let root = parse_yaml(source)?;
        match root.get("server") {
            None => Ok(ServerConfig::default()),
            Some(block) => ServerConfig::from_value(block),
        }
    }

    /// Loads [`ServerConfig::from_yaml`] from a file.
    pub fn from_file(path: impl AsRef<Path>) -> Result<ServerConfig, ConfigError> {
        let text = std::fs::read_to_string(path.as_ref())?;
        ServerConfig::from_yaml(&text)
    }

    /// Parses one `server:` mapping.
    pub fn from_value(block: &Value) -> Result<ServerConfig, ConfigError> {
        // A scalar here is a malformed block (e.g. flow-style `{…}`, which
        // this parser does not speak); silently falling back to defaults
        // would mask the operator's intended limits.
        if !matches!(block, Value::Map(_)) {
            return Err(field(format!(
                "server: must be a mapping of limit keys, got {block:?}"
            )));
        }
        let mut cfg = ServerConfig::default();
        // Limits that must be positive: a zero body cap or queue depth
        // would refuse every request, a zero timeout every read.
        for (key, slot) in [
            ("max_body_bytes", &mut cfg.max_body_bytes),
            ("queue_depth", &mut cfg.queue_depth),
        ] {
            if let Some(v) = block.get(key) {
                let n = v.as_i64().filter(|&n| n > 0).ok_or_else(|| {
                    field(format!(
                        "server.{key} must be a positive integer, got {v:?}"
                    ))
                })?;
                *slot = n as usize;
            }
        }
        if let Some(v) = block.get("read_timeout_ms") {
            cfg.read_timeout_ms =
                v.as_i64()
                    .filter(|&n| n > 0)
                    .map(|n| n as u64)
                    .ok_or_else(|| {
                        field(format!(
                            "server.read_timeout_ms must be a positive integer, got {v:?}"
                        ))
                    })?;
        }
        // Budgets where 0 means "unlimited" / "disabled".
        for (key, slot) in [
            ("memory_budget_bytes", &mut cfg.memory_budget_bytes),
            ("cache_cap_bytes", &mut cfg.cache_cap_bytes),
            ("job_deadline_s", &mut cfg.job_deadline_s),
            ("job_step_ceiling", &mut cfg.job_step_ceiling),
        ] {
            if let Some(v) = block.get(key) {
                let n = v.as_i64().filter(|&n| n >= 0).ok_or_else(|| {
                    field(format!(
                        "server.{key} must be a non-negative integer, got {v:?}"
                    ))
                })?;
                *slot = n as u64;
            }
        }
        Ok(cfg)
    }
}

/// A `particle_sets:` entry.
#[derive(Debug, Clone, PartialEq)]
pub enum ParticleSetConfig {
    /// `radius_distribution: "constant"` with `radius_value`.
    Constant {
        /// The fixed radius.
        value: f64,
    },
    /// `radius_distribution: "uniform"` with `radius_min`/`radius_max`.
    Uniform {
        /// Smallest radius.
        min: f64,
        /// Largest radius.
        max: f64,
    },
    /// `radius_distribution: "normal"` with `radius_mean`/`radius_std_dev`.
    Normal {
        /// Mean radius.
        mean: f64,
        /// Standard deviation.
        std_dev: f64,
    },
}

impl ParticleSetConfig {
    /// Converts to a runtime PSD (the parser has checked its ranges).
    pub fn to_psd(&self) -> Psd {
        self.to_psd_scaled(1.0)
    }

    /// Converts to a runtime PSD with every radius parameter multiplied by
    /// `scale` (used by the `batch:` radius-scale sweep axis); panics where
    /// [`ParticleSetConfig::try_psd_scaled`] fails.
    pub fn to_psd_scaled(&self, scale: f64) -> Psd {
        self.try_psd_scaled(scale).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ParticleSetConfig::to_psd_scaled`], failing with the PSD's own
    /// error when a scaled parameter breaks the distribution's invariants.
    /// The error's `param` is the key's suffix: `radius_{param}`.
    pub fn try_psd_scaled(&self, scale: f64) -> Result<Psd, PsdError> {
        match *self {
            ParticleSetConfig::Constant { value } => Psd::try_constant(value * scale),
            ParticleSetConfig::Uniform { min, max } => Psd::try_uniform(min * scale, max * scale),
            ParticleSetConfig::Normal { mean, std_dev } => {
                Psd::try_normal(mean * scale, std_dev * scale)
            }
        }
    }
}

/// A zone's `location:` block.
#[derive(Debug, Clone, PartialEq)]
pub enum LocationConfig {
    /// `slice:` with `axis` / `min_bound` / `max_bound`.
    Slice {
        /// Slicing axis.
        axis: Axis,
        /// Lower altitude bound.
        min: f64,
        /// Upper altitude bound.
        max: f64,
    },
    /// `shape:` with an STL `path`.
    Shape {
        /// Path to the zone's STL file (resolved relative to the config).
        path: PathBuf,
    },
    /// The whole container (no `location:` key).
    Everywhere,
}

/// A `zones:` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneConfig {
    /// Particle budget.
    pub n_particles: usize,
    /// Where to pack.
    pub location: LocationConfig,
    /// Relative weights over `particle_sets`.
    pub set_proportions: Vec<f64>,
}

/// A full packing configuration file.
#[derive(Debug, Clone, PartialEq)]
pub struct PackingConfig {
    /// Container STL path (`container: path:`).
    pub container_path: PathBuf,
    /// Algorithm key (`algorithm:`), e.g. `COLLECTIVE_ARRANGEMENT`.
    pub algorithm: String,
    /// Optimizer parameters.
    pub params: AlgoParams,
    /// Gravity axis (`gravity_axis:`), default `z`.
    pub gravity_axis: Axis,
    /// Neighbor-search pipeline settings (`neighbor:`), defaulted.
    pub neighbor: NeighborConfig,
    /// Observability settings (`telemetry:`), defaulted.
    pub telemetry: TelemetryConfig,
    /// Crash-resume settings (`checkpoint:`); absent means no checkpoints.
    pub checkpoint: Option<CheckpointConfig>,
    /// Multi-system sweep grids (`batch:`); absent means a single system.
    pub batch: Option<BatchConfig>,
    /// Particle sets.
    pub particle_sets: Vec<ParticleSetConfig>,
    /// Zones (empty means: one implicit everywhere-zone must be provided by
    /// the caller).
    pub zones: Vec<ZoneConfig>,
}

impl std::str::FromStr for PackingConfig {
    type Err = ConfigError;

    fn from_str(source: &str) -> Result<PackingConfig, ConfigError> {
        PackingConfig::from_str(source)
    }
}

impl PackingConfig {
    /// Parses a configuration from YAML text (also available through the
    /// standard [`std::str::FromStr`] / `str::parse` interface).
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(source: &str) -> Result<PackingConfig, ConfigError> {
        let root = parse_yaml(source)?;

        let container_path = root
            .get("container")
            .and_then(|c| c.get("path"))
            .and_then(Value::as_str)
            .ok_or_else(|| field("container.path is required"))?;

        let algorithm = root
            .get("algorithm")
            .and_then(Value::as_str)
            .unwrap_or("COLLECTIVE_ARRANGEMENT")
            .to_string();

        let mut params = AlgoParams::default();
        if let Some(p) = root.get("params") {
            if let Some(v) = p.get("lr").and_then(Value::as_f64) {
                if !(v > 0.0 && v.is_finite()) {
                    return Err(field(format!(
                        "params.lr must be positive and finite, got {v}"
                    )));
                }
                params.lr = v;
            }
            if let Some(v) = p.get("n_epoch").and_then(Value::as_i64) {
                if v <= 0 {
                    return Err(field("params.n_epoch must be positive"));
                }
                params.n_epoch = v as usize;
            }
            if let Some(v) = p.get("patience").and_then(Value::as_i64) {
                if v <= 0 {
                    return Err(field("params.patience must be positive"));
                }
                params.patience = v as usize;
            }
            if let Some(v) = p.get("verbosity").and_then(Value::as_i64) {
                params.verbosity = v.max(0) as usize;
            }
            if let Some(v) = p.get("batch_size").and_then(Value::as_i64) {
                if v <= 0 {
                    return Err(field("params.batch_size must be positive"));
                }
                params.batch_size = v as usize;
            }
            if let Some(v) = p.get("seed").and_then(Value::as_i64) {
                params.seed = v as u64;
            }
            if let Some(v) = p.get("threads").and_then(Value::as_i64) {
                if v < 0 {
                    return Err(field("params.threads must be non-negative"));
                }
                params.threads = v as usize;
            }
            if let Some(v) = p.get("kernel").and_then(Value::as_str) {
                params.kernel = Kernel::parse(v).ok_or_else(|| {
                    field(format!(
                        "params.kernel: unknown kernel '{v}' \
                         (expected 'scalar' or 'simd')"
                    ))
                })?;
            }
            if let Some(v) = p.get("tiles").and_then(Value::as_i64) {
                if v < 1 {
                    return Err(field(format!("params.tiles must be >= 1, got {v}")));
                }
                params.tiles = v as usize;
            }
        }

        let gravity_axis = match root.get("gravity_axis") {
            None => Axis::Z,
            Some(v) => match v {
                Value::Str(s) => Axis::parse(s)
                    .ok_or_else(|| field(format!("gravity_axis: unknown axis '{s}'")))?,
                Value::Int(i) => Axis::parse(&i.to_string())
                    .ok_or_else(|| field(format!("gravity_axis: unknown axis '{i}'")))?,
                // The paper: "in practice any direction can be used" —
                // accept an explicit up-vector `gravity_axis: [x, y, z]`.
                Value::Seq(seq) if seq.len() == 3 => {
                    let mut c = [0.0f64; 3];
                    for (slot, item) in c.iter_mut().zip(seq) {
                        *slot = item
                            .as_f64()
                            .ok_or_else(|| field("gravity_axis: vector entries must be numeric"))?;
                    }
                    Axis::from_vector(adampack_geometry::Vec3::new(c[0], c[1], c[2]))
                        .ok_or_else(|| field("gravity_axis: vector must be nonzero"))?
                        .canonicalize()
                }
                other => return Err(field(format!("gravity_axis: unexpected value {other:?}"))),
            },
        };

        let mut neighbor = NeighborConfig::default();
        if let Some(nb) = root.get("neighbor") {
            if let Some(v) = nb.get("strategy").and_then(Value::as_str) {
                neighbor.strategy = NeighborStrategy::parse(v).ok_or_else(|| {
                    field(format!(
                        "neighbor.strategy: unknown strategy '{v}' \
                         (expected 'auto', 'verlet' or 'naive')"
                    ))
                })?;
            }
        }

        let mut telemetry = TelemetryConfig::default();
        if let Some(t) = root.get("telemetry") {
            if let Some(v) = t.get("level").and_then(Value::as_str) {
                telemetry.level = match Level::parse(v) {
                    Ok(Some(level)) => ConsoleLevel::Fixed(level),
                    Ok(None) => ConsoleLevel::Off,
                    Err(e) => return Err(field(format!("telemetry.level: {e}"))),
                };
            }
            if let Some(v) = t.get("trace_out").and_then(Value::as_str) {
                telemetry.trace_out = Some(PathBuf::from(v));
            }
            if let Some(v) = t.get("metrics_out").and_then(Value::as_str) {
                telemetry.metrics_out = Some(PathBuf::from(v));
            }
            if let Some(v) = t.get("metrics").and_then(Value::as_bool) {
                telemetry.metrics = v;
            }
            if let Some(v) = t.get("timeline_out").and_then(Value::as_str) {
                telemetry.timeline_out = Some(PathBuf::from(v));
            }
            if let Some(v) = t.get("diagnostics").and_then(Value::as_str) {
                telemetry.diagnostics = DiagMode::parse(v).ok_or_else(|| {
                    field(format!(
                        "telemetry.diagnostics: unknown mode '{v}' (accepted: {})",
                        DiagMode::ACCEPTED
                    ))
                })?;
            }
        }

        let checkpoint = match root.get("checkpoint") {
            None => None,
            Some(c) => {
                let path = c
                    .get("path")
                    .and_then(Value::as_str)
                    .ok_or_else(|| field("checkpoint.path is required"))?;
                let every_steps = match c.get("every_steps").and_then(Value::as_i64) {
                    None => CheckpointConfig::DEFAULT_EVERY_STEPS,
                    Some(v) if v > 0 => v as usize,
                    Some(v) => {
                        return Err(field(format!(
                            "checkpoint.every_steps must be positive, got {v}"
                        )))
                    }
                };
                let keep_last = match c.get("keep_last").and_then(Value::as_i64) {
                    None => CheckpointConfig::DEFAULT_KEEP_LAST,
                    Some(v) if v > 0 => v as usize,
                    Some(v) => {
                        return Err(field(format!(
                            "checkpoint.keep_last must be positive, got {v}"
                        )))
                    }
                };
                Some(CheckpointConfig {
                    path: PathBuf::from(path),
                    every_steps,
                    keep_last,
                })
            }
        };

        let batch = match root.get("batch") {
            None => None,
            Some(b) => Some(parse_batch(b)?),
        };

        let particle_sets = match root.get("particle_sets") {
            None => return Err(field("particle_sets is required")),
            Some(v) => {
                let seq = v
                    .as_seq()
                    .ok_or_else(|| field("particle_sets must be a sequence"))?;
                if seq.is_empty() {
                    return Err(field("particle_sets must not be empty"));
                }
                seq.iter()
                    .enumerate()
                    .map(|(i, s)| parse_particle_set(i, s))
                    .collect::<Result<Vec<_>, _>>()?
            }
        };

        let zones = match root.get("zones") {
            None => Vec::new(),
            Some(v) => {
                let seq = v
                    .as_seq()
                    .ok_or_else(|| field("zones must be a sequence"))?;
                seq.iter()
                    .enumerate()
                    .map(|(i, z)| parse_zone(i, z, &particle_sets))
                    .collect::<Result<Vec<_>, _>>()?
            }
        };

        Ok(PackingConfig {
            container_path: PathBuf::from(container_path),
            algorithm,
            params,
            gravity_axis,
            neighbor,
            telemetry,
            checkpoint,
            batch,
            particle_sets,
            zones,
        })
    }

    /// Loads and parses a configuration file; relative STL paths are
    /// resolved against the file's directory.
    pub fn from_file(path: impl AsRef<Path>) -> Result<PackingConfig, ConfigError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)?;
        let mut cfg = PackingConfig::from_str(&text)?;
        if let Some(dir) = path.parent() {
            cfg.resolve_paths(dir);
        }
        Ok(cfg)
    }

    /// Resolves relative STL paths against `base`.
    pub fn resolve_paths(&mut self, base: &Path) {
        if self.container_path.is_relative() {
            self.container_path = base.join(&self.container_path);
        }
        for z in &mut self.zones {
            if let LocationConfig::Shape { path } = &mut z.location {
                if path.is_relative() {
                    *path = base.join(&path);
                }
            }
        }
    }

    /// The runtime `PackingParams` corresponding to this configuration
    /// (plateau LR scheduling from `params.lr`, paper defaults elsewhere).
    pub fn to_packing_params(&self) -> PackingParams {
        PackingParams {
            batch_size: self.params.batch_size,
            max_steps: self.params.n_epoch,
            patience: self.params.patience,
            gravity: self.gravity_axis,
            seed: self.params.seed,
            lr: LrPolicy::Plateau {
                initial: self.params.lr,
                factor: 0.5,
                patience: 20,
                min_lr: 1e-5,
            },
            neighbor: self.neighbor.to_params(),
            kernel: self.params.kernel,
            tiles: self.params.tiles,
            ..PackingParams::default()
        }
    }

    /// The runtime `PackingParams` for one system of a batched sweep: the
    /// base parameters with the system's seed and learning rate swapped in.
    pub fn to_packing_params_for(&self, sys: &BatchSystem) -> PackingParams {
        let mut params = self.to_packing_params();
        params.seed = sys.seed;
        params.lr = LrPolicy::Plateau {
            initial: sys.lr,
            factor: 0.5,
            patience: 20,
            min_lr: 1e-5,
        };
        params
    }

    /// Runtime PSDs for all particle sets.
    pub fn psds(&self) -> Vec<Psd> {
        self.psds_scaled(1.0)
    }

    /// Runtime PSDs with every radius parameter multiplied by `scale`.
    pub fn psds_scaled(&self, scale: f64) -> Vec<Psd> {
        self.particle_sets
            .iter()
            .map(|s| s.to_psd_scaled(scale))
            .collect()
    }

    /// The systems a `COLLECTIVE_ARRANGEMENT` run packs into `container`:
    /// one per point of the `batch` sweep grid, or the one plain system
    /// (labelled `""`) without a grid. Each packs its first particle set
    /// (radii scaled by its grid point) up to the container's capacity
    /// estimate at that PSD's mean radius. Fails when a grid point's radius
    /// scale takes the set's PSD out of range.
    pub fn systems(
        &self,
        container: &Container,
        batch: Option<&BatchConfig>,
    ) -> Result<Vec<SystemSpec>, ConfigError> {
        let points = match batch {
            Some(batch) => batch.expand(&self.params),
            None => vec![BatchSystem {
                label: String::new(),
                seed: self.params.seed,
                lr: self.params.lr,
                radius_scale: 1.0,
            }],
        };
        points
            .into_iter()
            .map(|sys| {
                let psd = self
                    .particle_sets
                    .first()
                    .expect("the parser requires a particle set")
                    .try_psd_scaled(sys.radius_scale)
                    .map_err(|e| {
                        field(format!(
                            "particle_sets[0].radius_{} at radius scale {:?}: {e}",
                            e.param, sys.radius_scale
                        ))
                    })?;
                let mut params = self.to_packing_params_for(&sys);
                params.target_count = container.capacity_estimate(psd.mean(), 0.6);
                Ok(SystemSpec {
                    label: sys.label,
                    params,
                    psd,
                })
            })
            .collect()
    }

    /// Converts the zones into runtime `ZoneSpec`s.
    ///
    /// `load_shape` resolves a zone's STL path into a convex hull; config
    /// stays decoupled from any particular mesh loader (pass a closure over
    /// `adampack_io::read_stl_file` in applications).
    pub fn zone_specs<F>(&self, mut load_shape: F) -> Result<Vec<ZoneSpec>, ConfigError>
    where
        F: FnMut(&Path) -> Result<ConvexHull, ConfigError>,
    {
        self.zones
            .iter()
            .map(|z| {
                let region = match &z.location {
                    LocationConfig::Slice { axis, min, max } => ZoneRegion::Slice {
                        axis: *axis,
                        min: *min,
                        max: *max,
                    },
                    LocationConfig::Shape { path } => ZoneRegion::Mesh(load_shape(path)?),
                    LocationConfig::Everywhere => ZoneRegion::Slice {
                        axis: self.gravity_axis,
                        min: f64::NEG_INFINITY,
                        max: f64::INFINITY,
                    },
                };
                Ok(ZoneSpec {
                    region,
                    n_particles: z.n_particles,
                    set_proportions: z.set_proportions.clone(),
                })
            })
            .collect()
    }
}

fn parse_batch(v: &Value) -> Result<BatchConfig, ConfigError> {
    let mut batch = BatchConfig::default();

    if let Some(list) = v.get("seeds") {
        let seq = list
            .as_seq()
            .ok_or_else(|| field("batch.seeds must be a list"))?;
        for (i, x) in seq.iter().enumerate() {
            let s = x
                .as_i64()
                .ok_or_else(|| field(format!("batch.seeds[{i}] must be an integer")))?;
            if s < 0 {
                return Err(field(format!(
                    "batch.seeds[{i}] must be non-negative, got {s}"
                )));
            }
            let s = s as u64;
            if batch.seeds.contains(&s) {
                return Err(field(format!("batch.seeds: duplicate seed {s}")));
            }
            batch.seeds.push(s);
        }
    }

    let float_axis = |key: &'static str, out: &mut Vec<f64>| -> Result<(), ConfigError> {
        if let Some(list) = v.get(key) {
            let seq = list
                .as_seq()
                .ok_or_else(|| field(format!("batch.{key} must be a list")))?;
            for (i, x) in seq.iter().enumerate() {
                let f = x
                    .as_f64()
                    .ok_or_else(|| field(format!("batch.{key}[{i}] must be numeric")))?;
                if !(f > 0.0 && f.is_finite()) {
                    return Err(field(format!(
                        "batch.{key}[{i}] must be positive and finite, got {f}"
                    )));
                }
                if out.iter().any(|&o| o.to_bits() == f.to_bits()) {
                    return Err(field(format!("batch.{key}: duplicate value {f}")));
                }
                out.push(f);
            }
        }
        Ok(())
    };
    let mut lrs = Vec::new();
    float_axis("lrs", &mut lrs)?;
    let mut radius_scales = Vec::new();
    float_axis("radius_scales", &mut radius_scales)?;
    batch.lrs = lrs;
    batch.radius_scales = radius_scales;

    let count =
        batch.seeds.len().max(1) * batch.lrs.len().max(1) * batch.radius_scales.len().max(1);
    if count > BatchConfig::MAX_SYSTEMS {
        return Err(field(format!(
            "batch: sweep expands to {count} systems (max {})",
            BatchConfig::MAX_SYSTEMS
        )));
    }
    Ok(batch)
}

fn parse_particle_set(i: usize, v: &Value) -> Result<ParticleSetConfig, ConfigError> {
    let dist = v
        .get("radius_distribution")
        .and_then(Value::as_str)
        .ok_or_else(|| {
            field(format!(
                "particle_sets[{i}].radius_distribution is required"
            ))
        })?;
    let num = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| field(format!("particle_sets[{i}].{key} is required and numeric")))
    };
    let set = match dist.to_ascii_lowercase().as_str() {
        "constant" => ParticleSetConfig::Constant {
            value: num("radius_value")?,
        },
        "uniform" => ParticleSetConfig::Uniform {
            min: num("radius_min")?,
            max: num("radius_max")?,
        },
        "normal" => ParticleSetConfig::Normal {
            mean: num("radius_mean")?,
            std_dev: num("radius_std_dev")?,
        },
        other => {
            return Err(field(format!(
                "particle_sets[{i}]: unknown radius_distribution '{other}'"
            )))
        }
    };
    set.try_psd_scaled(1.0)
        .map_err(|e| field(format!("particle_sets[{i}].radius_{}: {e}", e.param)))?;
    Ok(set)
}

fn parse_zone(i: usize, v: &Value, sets: &[ParticleSetConfig]) -> Result<ZoneConfig, ConfigError> {
    let n_sets = sets.len();
    let n_particles = v
        .get("n_particles")
        .and_then(Value::as_i64)
        .ok_or_else(|| field(format!("zones[{i}].n_particles is required")))?;
    if n_particles <= 0 {
        return Err(field(format!("zones[{i}].n_particles must be positive")));
    }

    let location = match v.get("location") {
        None => LocationConfig::Everywhere,
        Some(loc) => {
            if let Some(slice) = loc.get("slice") {
                let axis_v = slice
                    .get("axis")
                    .ok_or_else(|| field(format!("zones[{i}].location.slice.axis is required")))?;
                let axis_s = match axis_v {
                    Value::Str(s) => s.clone(),
                    Value::Int(k) => k.to_string(),
                    other => return Err(field(format!("zones[{i}]: bad axis {other:?}"))),
                };
                let axis = Axis::parse(&axis_s)
                    .ok_or_else(|| field(format!("zones[{i}]: unknown axis '{axis_s}'")))?;
                let min = slice
                    .get("min_bound")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| {
                        field(format!("zones[{i}].location.slice.min_bound required"))
                    })?;
                let max = slice
                    .get("max_bound")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| {
                        field(format!("zones[{i}].location.slice.max_bound required"))
                    })?;
                for (key, bound) in [("min_bound", min), ("max_bound", max)] {
                    if !bound.is_finite() {
                        return Err(field(format!(
                            "zones[{i}].location.slice.{key} must be finite, got {bound}"
                        )));
                    }
                }
                if max <= min {
                    return Err(field(format!(
                        "zones[{i}]: slice bounds must satisfy min < max ({min} >= {max})"
                    )));
                }
                LocationConfig::Slice { axis, min, max }
            } else if let Some(shape) = loc.get("shape") {
                let path = shape
                    .get("path")
                    .and_then(Value::as_str)
                    .ok_or_else(|| field(format!("zones[{i}].location.shape.path required")))?;
                LocationConfig::Shape {
                    path: PathBuf::from(path),
                }
            } else {
                return Err(field(format!(
                    "zones[{i}].location must contain 'slice' or 'shape'"
                )));
            }
        }
    };

    let props: Vec<f64> = match v.get("set_proportions") {
        None => vec![1.0; n_sets],
        Some(p) => {
            let seq = p
                .as_seq()
                .ok_or_else(|| field(format!("zones[{i}].set_proportions must be a list")))?;
            seq.iter()
                .map(|x| {
                    x.as_f64()
                        .ok_or_else(|| field(format!("zones[{i}].set_proportions: numeric values")))
                })
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    if props.len() != n_sets {
        return Err(field(format!(
            "zones[{i}].set_proportions has {} entries for {n_sets} particle sets",
            props.len()
        )));
    }
    if let Some(w) = props.iter().find(|w| !(w.is_finite() && **w >= 0.0)) {
        return Err(field(format!(
            "zones[{i}].set_proportions must be finite and non-negative, got {w}"
        )));
    }
    // The zone packs the mixture of its positively weighted sets, so the
    // weights must make a valid one.
    let psds: Vec<Psd> = sets.iter().map(ParticleSetConfig::to_psd).collect();
    try_zone_psd(&props, &psds).map_err(|e| field(format!("zones[{i}].set_proportions: {e}")))?;

    Ok(ZoneConfig {
        n_particles: n_particles as usize,
        location,
        set_proportions: props,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG9: &str = r#"
container:
    path: "cone.stl"
algorithm: "COLLECTIVE_ARRANGEMENT"
params:
    lr: 0.01
    n_epoch: 1000
    patience: 50
    verbosity: 10
gravity_axis: z
neighbor:
    strategy: "verlet"
particle_sets:
    - radius_distribution: "uniform"
      radius_min: 0.05
      radius_max: 0.08
    - radius_distribution: "normal"
      radius_mean: 0.04
      radius_std_dev: 0.005
zones:
    - n_particles: 200
      location:
          shape:
              path: "sphere.stl"
      set_proportions: [0.0, 1.0,]
    - n_particles: 300
      location:
          slice:
              axis: 2
              min_bound: 0.8
              max_bound: 1.5
      set_proportions: [1.0, 0.0]
"#;

    #[test]
    fn parses_the_paper_example() {
        let cfg = PackingConfig::from_str(FIG9).unwrap();
        assert_eq!(cfg.container_path, PathBuf::from("cone.stl"));
        assert_eq!(cfg.algorithm, "COLLECTIVE_ARRANGEMENT");
        assert_eq!(cfg.params.lr, 0.01);
        assert_eq!(cfg.params.n_epoch, 1000);
        assert_eq!(cfg.params.patience, 50);
        assert_eq!(cfg.params.verbosity, 10);
        assert_eq!(cfg.gravity_axis, Axis::Z);
        assert_eq!(cfg.neighbor.strategy, NeighborStrategy::Verlet);
        assert_eq!(cfg.particle_sets.len(), 2);
        assert_eq!(
            cfg.particle_sets[0],
            ParticleSetConfig::Uniform {
                min: 0.05,
                max: 0.08
            }
        );
        assert_eq!(
            cfg.particle_sets[1],
            ParticleSetConfig::Normal {
                mean: 0.04,
                std_dev: 0.005
            }
        );
        assert_eq!(cfg.zones.len(), 2);
        assert_eq!(cfg.zones[0].n_particles, 200);
        assert_eq!(
            cfg.zones[0].location,
            LocationConfig::Shape {
                path: PathBuf::from("sphere.stl")
            }
        );
        assert_eq!(cfg.zones[0].set_proportions, vec![0.0, 1.0]);
        match cfg.zones[1].location {
            LocationConfig::Slice { axis, min, max } => {
                assert_eq!(axis, Axis::Z);
                assert_eq!(min, 0.8);
                assert_eq!(max, 1.5);
            }
            ref other => panic!("expected slice, got {other:?}"),
        }
    }

    #[test]
    fn conversion_to_runtime_types() {
        let cfg = PackingConfig::from_str(FIG9).unwrap();
        let params = cfg.to_packing_params();
        assert_eq!(params.neighbor.strategy, NeighborStrategy::Verlet);
        assert_eq!(params.max_steps, 1000);
        assert_eq!(params.patience, 50);
        assert_eq!(params.lr.initial_lr(), 0.01);
        let psds = cfg.psds();
        assert_eq!(psds.len(), 2);
        assert!((psds[0].mean() - 0.065).abs() < 1e-12);
        // Zone specs without shape loading (slice only).
        let specs = cfg
            .zone_specs(|p| {
                // Fake loader: a tiny tetra hull for the sphere.stl zone.
                assert!(p.ends_with("sphere.stl"));
                use adampack_geometry::Vec3;
                Ok(
                    ConvexHull::from_points(&[Vec3::ZERO, Vec3::X, Vec3::Y, Vec3::Z])
                        .expect("tetra"),
                )
            })
            .unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].n_particles, 200);
    }

    #[test]
    fn defaults_for_optional_fields() {
        let minimal = "container:\n  path: box.stl\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\n";
        let cfg = PackingConfig::from_str(minimal).unwrap();
        assert_eq!(cfg.algorithm, "COLLECTIVE_ARRANGEMENT");
        assert_eq!(cfg.params, AlgoParams::default());
        assert_eq!(cfg.gravity_axis, Axis::Z);
        assert_eq!(cfg.neighbor, NeighborConfig::default());
        assert_eq!(cfg.telemetry, TelemetryConfig::default());
        assert_eq!(cfg.checkpoint, None);
        assert_eq!(cfg.batch, None);
        assert!(cfg.zones.is_empty());
    }

    #[test]
    fn batch_block_parses_and_expands() {
        let base = "container:\n  path: a.stl\nparams:\n  seed: 3\n  lr: 0.05\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\n";
        let src = format!("{base}batch:\n  seeds: [1, 2]\n  lrs: [0.01, 0.02]\n");
        let cfg = PackingConfig::from_str(&src).unwrap();
        let batch = cfg.batch.clone().expect("batch block");
        assert_eq!(batch.seeds, vec![1, 2]);
        assert_eq!(batch.lrs, vec![0.01, 0.02]);
        assert!(batch.radius_scales.is_empty());

        let systems = batch.expand(&cfg.params);
        assert_eq!(systems.len(), 4);
        let labels: Vec<&str> = systems.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["s1_lr0.01", "s1_lr0.02", "s2_lr0.01", "s2_lr0.02"]);
        assert!(systems.iter().all(|s| s.radius_scale == 1.0));

        // Empty axes fall back to the base params.
        let only_seeds = format!("{base}batch:\n  seeds: [9]\n");
        let cfg = PackingConfig::from_str(&only_seeds).unwrap();
        let systems = cfg.batch.clone().unwrap().expand(&cfg.params);
        assert_eq!(systems.len(), 1);
        assert_eq!(systems[0].label, "s9_lr0.05");
        assert_eq!(systems[0].seed, 9);
        assert_eq!(systems[0].lr, 0.05);

        // Radius scales show up in the label only when that axis is swept.
        let with_scales = format!("{base}batch:\n  seeds: [1]\n  radius_scales: [1, 1.5]\n");
        let cfg = PackingConfig::from_str(&with_scales).unwrap();
        let systems = cfg.batch.clone().unwrap().expand(&cfg.params);
        assert_eq!(systems.len(), 2);
        assert_eq!(systems[0].label, "s1_lr0.05_x1");
        assert_eq!(systems[1].label, "s1_lr0.05_x1.5");
    }

    #[test]
    fn batch_system_overrides_runtime_params_and_psd() {
        let src = "container:\n  path: a.stl\nparams:\n  seed: 3\nbatch:\n  seeds: [5]\n  lrs: [0.04]\n  radius_scales: [2]\nparticle_sets:\n  - radius_distribution: uniform\n    radius_min: 0.05\n    radius_max: 0.07\n";
        let cfg = PackingConfig::from_str(src).unwrap();
        let systems = cfg.batch.clone().unwrap().expand(&cfg.params);
        assert_eq!(systems.len(), 1);
        let params = cfg.to_packing_params_for(&systems[0]);
        assert_eq!(params.seed, 5);
        assert_eq!(params.lr.initial_lr(), 0.04);
        let psds = cfg.psds_scaled(systems[0].radius_scale);
        assert!((psds[0].mean() - 0.12).abs() < 1e-12, "scaled uniform mean");
    }

    #[test]
    fn batch_descriptor_is_stable_and_distinguishes_grids() {
        let a = BatchConfig {
            seeds: vec![1, 2],
            lrs: vec![0.01],
            radius_scales: vec![],
        };
        assert_eq!(a.descriptor(), "seeds=[1,2]|lrs=[0.01]|scales=[]");
        let b = BatchConfig {
            seeds: vec![1],
            lrs: vec![0.01],
            radius_scales: vec![2.0],
        };
        assert_ne!(a.descriptor(), b.descriptor());
    }

    #[test]
    fn bad_batch_block_rejected() {
        let base = "container:\n  path: a.stl\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\n";
        for (snippet, needle) in [
            ("batch:\n  seeds: [-1]\n", "non-negative"),
            ("batch:\n  seeds: [1, 1]\n", "duplicate"),
            ("batch:\n  lrs: [0]\n", "positive"),
            ("batch:\n  lrs: [0.01, 0.01]\n", "duplicate"),
            ("batch:\n  radius_scales: [-2]\n", "positive"),
            ("batch:\n  seeds: 5\n", "must be a list"),
        ] {
            let e = PackingConfig::from_str(&format!("{base}{snippet}")).unwrap_err();
            assert!(e.to_string().contains(needle), "{snippet}: {e}");
        }
    }

    #[test]
    fn batch_validate_catches_axes_assembled_outside_yaml() {
        // CLI `--batch-*` flags build a BatchConfig directly, bypassing
        // parse_batch; validate() is the shared gate.
        let ok = BatchConfig {
            seeds: vec![1, 2],
            lrs: vec![0.01, 0.02],
            radius_scales: vec![],
        };
        assert_eq!(ok.validate(), Ok(()));
        for (cfg, needle) in [
            (
                BatchConfig {
                    seeds: vec![1, 1],
                    lrs: vec![],
                    radius_scales: vec![],
                },
                "duplicate seed 1",
            ),
            (
                BatchConfig {
                    seeds: vec![],
                    lrs: vec![0.01, 0.01],
                    radius_scales: vec![],
                },
                "lrs: duplicate",
            ),
            (
                BatchConfig {
                    seeds: vec![],
                    lrs: vec![],
                    radius_scales: vec![0.0],
                },
                "positive and finite",
            ),
            (
                BatchConfig {
                    seeds: (0..40).collect(),
                    lrs: (1..=40).map(|i| i as f64 * 0.001).collect(),
                    radius_scales: vec![],
                },
                "max 1024",
            ),
        ] {
            let e = cfg.validate().unwrap_err();
            assert!(e.contains(needle), "{e}");
        }
    }

    #[test]
    fn checkpoint_block_parses_with_defaults() {
        let base = "container:\n  path: a.stl\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\n";
        let src = format!("{base}checkpoint:\n  path: \"run.ckpt\"\n");
        let cfg = PackingConfig::from_str(&src).unwrap();
        assert_eq!(
            cfg.checkpoint,
            Some(CheckpointConfig {
                path: PathBuf::from("run.ckpt"),
                every_steps: CheckpointConfig::DEFAULT_EVERY_STEPS,
                keep_last: CheckpointConfig::DEFAULT_KEEP_LAST,
            })
        );

        let src =
            format!("{base}checkpoint:\n  path: run.ckpt\n  every_steps: 100\n  keep_last: 4\n");
        let cfg = PackingConfig::from_str(&src).unwrap();
        let ck = cfg.checkpoint.unwrap();
        assert_eq!(ck.every_steps, 100);
        assert_eq!(ck.keep_last, 4);
    }

    #[test]
    fn bad_checkpoint_block_rejected() {
        let base = "container:\n  path: a.stl\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\n";
        let no_path = format!("{base}checkpoint:\n  every_steps: 100\n");
        let e = PackingConfig::from_str(&no_path).unwrap_err();
        assert!(e.to_string().contains("checkpoint.path"), "{e}");
        let bad_cadence = format!("{base}checkpoint:\n  path: run.ckpt\n  every_steps: 0\n");
        let e = PackingConfig::from_str(&bad_cadence).unwrap_err();
        assert!(e.to_string().contains("every_steps"), "{e}");
        let bad_keep = format!("{base}checkpoint:\n  path: run.ckpt\n  keep_last: -1\n");
        let e = PackingConfig::from_str(&bad_keep).unwrap_err();
        assert!(e.to_string().contains("keep_last"), "{e}");
    }

    #[test]
    fn telemetry_block_parses() {
        let base = "container:\n  path: a.stl\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\n";
        let src = format!(
            "{base}telemetry:\n  level: debug\n  trace_out: \"run.jsonl\"\n  metrics_out: metrics.prom\n  metrics: false\n  timeline_out: \"trace.json\"\n  diagnostics: summary\n"
        );
        let cfg = PackingConfig::from_str(&src).unwrap();
        assert_eq!(cfg.telemetry.level, ConsoleLevel::Fixed(Level::Debug));
        assert_eq!(cfg.telemetry.trace_out, Some(PathBuf::from("run.jsonl")));
        assert_eq!(
            cfg.telemetry.metrics_out,
            Some(PathBuf::from("metrics.prom"))
        );
        assert!(!cfg.telemetry.metrics);
        assert_eq!(
            cfg.telemetry.timeline_out,
            Some(PathBuf::from("trace.json"))
        );
        assert_eq!(cfg.telemetry.diagnostics, DiagMode::Summary);

        let off = format!("{base}telemetry:\n  level: \"off\"\n");
        let cfg = PackingConfig::from_str(&off).unwrap();
        assert_eq!(cfg.telemetry.level, ConsoleLevel::Off);
        assert_eq!(cfg.telemetry.trace_out, None);
        assert!(cfg.telemetry.metrics);
        assert_eq!(cfg.telemetry.timeline_out, None);
        assert_eq!(cfg.telemetry.diagnostics, DiagMode::Off);
    }

    #[test]
    fn bad_diagnostics_mode_rejected_naming_accepted_values() {
        let src = "container:\n  path: a.stl\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\ntelemetry:\n  diagnostics: verbose\n";
        let e = PackingConfig::from_str(src).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("verbose"), "{msg}");
        assert!(msg.contains("'off', 'summary' or 'events'"), "{msg}");
    }

    #[test]
    fn bad_telemetry_level_rejected() {
        let src = "container:\n  path: a.stl\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\ntelemetry:\n  level: verbose\n";
        let e = PackingConfig::from_str(src).unwrap_err();
        assert!(e.to_string().contains("verbose"), "{e}");
    }

    #[test]
    fn kernel_knob_parses_and_defaults_to_simd() {
        let base = "container:\n  path: a.stl\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\n";
        let cfg = PackingConfig::from_str(base).unwrap();
        assert_eq!(cfg.params.kernel, Kernel::Simd);
        assert_eq!(cfg.to_packing_params().kernel, Kernel::Simd);

        let scalar = format!("{base}params:\n  kernel: \"scalar\"\n");
        let cfg = PackingConfig::from_str(&scalar).unwrap();
        assert_eq!(cfg.params.kernel, Kernel::Scalar);
        assert_eq!(cfg.to_packing_params().kernel, Kernel::Scalar);

        // Case-insensitive.
        let simd = format!("{base}params:\n  kernel: SIMD\n");
        let cfg = PackingConfig::from_str(&simd).unwrap();
        assert_eq!(cfg.params.kernel, Kernel::Simd);
    }

    #[test]
    fn unknown_kernel_rejected() {
        let src = "container:\n  path: a.stl\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\nparams:\n  kernel: avx512\n";
        let e = PackingConfig::from_str(src).unwrap_err();
        assert!(e.to_string().contains("avx512"), "{e}");
        // Usage errors must name every accepted value.
        for accepted in ["'scalar'", "'simd'"] {
            assert!(e.to_string().contains(accepted), "{e} missing {accepted}");
        }
    }

    /// Knob values whose implementations were deleted (the mixed-precision
    /// kernel, the per-evaluation grid strategy) end in a typed config
    /// error naming the accepted values, never a panic.
    #[test]
    fn removed_kernel_and_strategy_values_are_config_errors() {
        let base = "container:\n  path: a.stl\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\n";
        let mixed = concat!("simd_", "mixed");
        let e =
            PackingConfig::from_str(&format!("{base}params:\n  kernel: {mixed}\n")).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains(mixed), "{msg}");
        assert!(msg.contains("'scalar' or 'simd'"), "{msg}");

        let e =
            PackingConfig::from_str(&format!("{base}neighbor:\n  strategy: grid\n")).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("'grid'"), "{msg}");
        assert!(msg.contains("'auto', 'verlet' or 'naive'"), "{msg}");
    }

    #[test]
    fn tiles_knob_parses_and_rejects_nonpositive() {
        let base = "container:\n  path: a.stl\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\n";
        let cfg = PackingConfig::from_str(base).unwrap();
        assert_eq!(cfg.params.tiles, 1, "default must be monolithic");
        assert_eq!(cfg.to_packing_params().tiles, 1);

        let tiled = format!("{base}params:\n  tiles: 8\n");
        let cfg = PackingConfig::from_str(&tiled).unwrap();
        assert_eq!(cfg.params.tiles, 8);
        assert_eq!(cfg.to_packing_params().tiles, 8);

        let bad = format!("{base}params:\n  tiles: 0\n");
        let e = PackingConfig::from_str(&bad).unwrap_err();
        assert!(e.to_string().contains("tiles"), "{e}");
    }

    /// `order` and `skin_factor` no longer exist. Like any unknown key
    /// they are ignored: neither could change a byte of the packing.
    #[test]
    fn removed_neighbor_keys_are_ignored() {
        let base = "container:\n  path: a.stl\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\n";
        let plain = PackingConfig::from_str(base).unwrap().to_packing_params();
        for block in [
            "neighbor:\n  order: \"morton\"\n",
            "neighbor:\n  order: hilbert\n  skin_factor: -0.5\n",
            "neighbor:\n  skin_factor: 0.3\n",
        ] {
            let cfg = PackingConfig::from_str(&format!("{base}{block}")).unwrap();
            assert_eq!(cfg.neighbor, NeighborConfig::default(), "{block}");
            assert_eq!(
                format!("{:?}", cfg.to_packing_params()),
                format!("{plain:?}")
            );
        }
    }

    #[test]
    fn console_level_resolution() {
        assert_eq!(ConsoleLevel::Auto.resolve(0), Some(Level::Info));
        assert_eq!(ConsoleLevel::Auto.resolve(10), Some(Level::Debug));
        assert_eq!(ConsoleLevel::Off.resolve(10), None);
        assert_eq!(
            ConsoleLevel::Fixed(Level::Trace).resolve(0),
            Some(Level::Trace)
        );
    }

    #[test]
    fn bad_neighbor_settings_rejected() {
        let base = "container:\n  path: a.stl\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\n";
        let bad_strategy = format!("{base}neighbor:\n  strategy: quadtree\n");
        let e = PackingConfig::from_str(&bad_strategy).unwrap_err();
        assert!(e.to_string().contains("quadtree"));
    }

    #[test]
    fn missing_required_fields_error() {
        assert!(PackingConfig::from_str("algorithm: RSA").is_err());
        let no_sets = "container:\n  path: a.stl\n";
        assert!(matches!(
            PackingConfig::from_str(no_sets),
            Err(ConfigError::Field(_))
        ));
        let bad_dist = "container:\n  path: a.stl\nparticle_sets:\n  - radius_distribution: zipf\n";
        let e = PackingConfig::from_str(bad_dist).unwrap_err();
        assert!(e.to_string().contains("zipf"));
    }

    #[test]
    fn invalid_values_rejected() {
        let bad_lr = "container:\n  path: a.stl\nparams:\n  lr: -1\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\n";
        assert!(PackingConfig::from_str(bad_lr).is_err());

        let bad_bounds = "container:\n  path: a.stl\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\nzones:\n  - n_particles: 5\n    location:\n      slice:\n        axis: z\n        min_bound: 2.0\n        max_bound: 1.0\n";
        let e = PackingConfig::from_str(bad_bounds).unwrap_err();
        assert!(e.to_string().contains("min < max"));

        let bad_props = "container:\n  path: a.stl\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\nzones:\n  - n_particles: 5\n    set_proportions: [0.5, 0.5]\n";
        let e = PackingConfig::from_str(bad_props).unwrap_err();
        assert!(e.to_string().contains("set_proportions"));

        // Numbers the PSD or the optimizer cannot take are config errors
        // naming the key, not panics further down. The YAML scalar parser
        // reads `nan` and `inf` as floats and `1e999` as infinity.
        let constant = |v: &str| format!("constant\n    radius_value: {v}");
        let uniform =
            |lo: &str, hi: &str| format!("uniform\n    radius_min: {lo}\n    radius_max: {hi}");
        let normal =
            |m: &str, sd: &str| format!("normal\n    radius_mean: {m}\n    radius_std_dev: {sd}");
        let cases = [
            (constant("-0.1"), "radius_value"),
            (constant("0"), "radius_value"),
            (constant("nan"), "radius_value"),
            (constant("inf"), "radius_value"),
            (uniform("nan", "0.1"), "radius_min"),
            (uniform("0.2", "0.1"), "radius_max"),
            (uniform("0.1", "1e999"), "radius_max"),
            (normal("-1", "0"), "radius_mean"),
            (normal("0.1", "0.05"), "radius_std_dev"),
            (normal("0.1", "-inf"), "radius_std_dev"),
        ];
        for (set, key) in cases {
            let yaml = format!(
                "container:\n  path: a.stl\nparticle_sets:\n  - radius_distribution: {set}\n"
            );
            let key = format!("particle_sets[0].{key}");
            let e = PackingConfig::from_str(&yaml).unwrap_err();
            assert!(matches!(e, ConfigError::Field(_)), "{set}: {e:?}");
            assert!(e.to_string().contains(&key), "{set}: {e}");
        }
        for lr in ["nan", "inf", "1e999", "0", "-inf"] {
            let yaml = format!("container:\n  path: a.stl\nparams:\n  lr: {lr}\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\n");
            let e = PackingConfig::from_str(&yaml).unwrap_err();
            assert!(e.to_string().contains("params.lr"), "lr {lr}: {e}");
        }

        // Zone weights must make a valid mixture and slice bounds must be
        // finite: ∞ weights panicked in `Psd::mixture`, NaN ones and NaN
        // bounds packed unchecked.
        let zone = |bounds: (&str, &str), weights: &str| {
            format!(
                "container:\n  path: a.stl\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\n  - radius_distribution: constant\n    radius_value: 0.2\nzones:\n  - n_particles: 5\n    location:\n      slice:\n        axis: z\n        min_bound: {}\n        max_bound: {}\n    set_proportions: [{weights}]\n",
                bounds.0, bounds.1
            )
        };
        let finite = ("-1.0", "0.0");
        let weights = "zones[0].set_proportions";
        let (min, max) = (
            "zones[0].location.slice.min_bound",
            "zones[0].location.slice.max_bound",
        );
        let cases = [
            (zone(finite, "1e999, 1.0"), weights),
            (zone(finite, "nan, 1.0"), weights),
            (zone(finite, "1.0, -inf"), weights),
            (zone(finite, "-0.5, 1.0"), weights),
            (zone(finite, "0.0, 0.0"), weights),
            (zone(finite, "1e308, 1e308"), weights),
            (zone(("nan", "0.0"), "1.0, 1.0"), min),
            (zone(("-inf", "0.0"), "1.0, 1.0"), min),
            (zone(("-1.0", "1e999"), "1.0, 1.0"), max),
            (zone(("-1.0", "nan"), "1.0, 1.0"), max),
        ];
        for (yaml, key) in cases {
            let e = PackingConfig::from_str(&yaml).unwrap_err();
            assert!(matches!(e, ConfigError::Field(_)), "{yaml}: {e:?}");
            assert!(e.to_string().contains(key), "{yaml}: {e}");
        }
        for weights in ["0.7, 0.3", "0.0, 1.0", "1e300, 1e300"] {
            let yaml = zone(finite, weights);
            assert!(PackingConfig::from_str(&yaml).is_ok(), "{weights}");
        }

        // A valid radius whose sweep scale overflows it to infinity fails
        // when the systems are resolved; a large finite radius stays valid.
        let container = Container::from_mesh(&adampack_geometry::shapes::box_mesh(
            adampack_geometry::Vec3::ZERO,
            adampack_geometry::Vec3::splat(2.0),
        ))
        .unwrap();
        let scaled = "container:\n  path: a.stl\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 10\nbatch:\n  radius_scales: [1, 1e308]\n";
        let cfg = PackingConfig::from_str(scaled).unwrap();
        let e = cfg.systems(&container, cfg.batch.as_ref()).unwrap_err();
        assert!(
            e.to_string().contains("particle_sets[0].radius_value"),
            "{e}"
        );
        let huge = cfg.systems(&container, None).unwrap();
        assert_eq!(huge[0].params.target_count, 0);
    }

    #[test]
    fn relative_paths_resolved() {
        let mut cfg = PackingConfig::from_str(FIG9).unwrap();
        cfg.resolve_paths(Path::new("/configs"));
        assert_eq!(cfg.container_path, PathBuf::from("/configs/cone.stl"));
        match &cfg.zones[0].location {
            LocationConfig::Shape { path } => {
                assert_eq!(path, &PathBuf::from("/configs/sphere.stl"));
            }
            other => panic!("expected shape, got {other:?}"),
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("adampack_config_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pack.yaml");
        std::fs::write(&path, FIG9).unwrap();
        let cfg = PackingConfig::from_file(&path).unwrap();
        assert!(cfg.container_path.ends_with("cone.stl"));
        assert!(cfg.container_path.is_absolute() || cfg.container_path.starts_with(&dir));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gravity_axis_spellings() {
        for (spelling, expect) in [("x", Axis::X), ("Y", Axis::Y), ("2", Axis::Z)] {
            let src = format!(
                "container:\n  path: a.stl\ngravity_axis: {spelling}\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\n"
            );
            let cfg = PackingConfig::from_str(&src).unwrap();
            assert_eq!(cfg.gravity_axis, expect, "spelling {spelling}");
        }
    }

    #[test]
    fn gravity_axis_as_vector() {
        let src = "container:\n  path: a.stl\ngravity_axis: [1, 1, 0]\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\n";
        let cfg = PackingConfig::from_str(src).unwrap();
        match cfg.gravity_axis {
            Axis::Custom(v) => {
                assert!((v.x - v.y).abs() < 1e-12 && v.z == 0.0);
                assert!((v.norm() - 1.0).abs() < 1e-12, "normalized");
            }
            other => panic!("expected custom axis, got {other:?}"),
        }
        // A unit coordinate vector folds back to the named axis.
        let src = "container:\n  path: a.stl\ngravity_axis: [0, 0, 2]\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\n";
        assert_eq!(PackingConfig::from_str(src).unwrap().gravity_axis, Axis::Z);
        // Zero vector rejected.
        let src = "container:\n  path: a.stl\ngravity_axis: [0, 0, 0]\nparticle_sets:\n  - radius_distribution: constant\n    radius_value: 0.1\n";
        assert!(PackingConfig::from_str(src).is_err());
    }
}
