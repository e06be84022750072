//! Workload inputs derived from the benchmark seed: YAML configs, the
//! container meshes they reference, and the server workload's job
//! schedule. The same seed always yields the same bytes; the program under
//! test only ever sees these generated files.

use std::io;
use std::path::Path;

use adampack_geometry::{shapes, TriMesh, Vec3};

use crate::Workload;

/// SplitMix64: a tiny, well-mixed generator for deriving input seeds.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of benchmark seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A config seed: fits the YAML reader's signed integers.
    fn config_seed(&mut self) -> u64 {
        self.next_u64() >> 34
    }
}

/// One config a workload packs.
#[derive(Debug, Clone, PartialEq)]
pub struct PackInput {
    /// File stem and trace label, e.g. `box_capacity.3`.
    pub label: String,
    /// The YAML config text.
    pub yaml: String,
    /// Explicit particle target; `None` sizes it from the container's
    /// capacity estimate, as the CLI and the server do.
    pub target: Option<usize>,
}

/// Per-job settings of one server job class.
struct JobClass {
    radius: f64,
    batch: usize,
    n_epoch: usize,
    patience: usize,
}

/// Cache-hit pool: small jobs, resubmitted over and over.
const POOL: JobClass = JobClass {
    radius: 0.16,
    batch: 40,
    n_epoch: 300,
    patience: 30,
};
/// Unique short jobs: ≈ 35 ms of packing alone, inside one fair-share
/// slice.
const SHORT: JobClass = JobClass {
    radius: 0.085,
    batch: 40,
    n_epoch: 300,
    patience: 30,
};
/// Unique long jobs: several 50 ms fair-share slices and a few 200-step
/// checkpoints each, so they get preempted and persisted.
const LONG: JobClass = JobClass {
    radius: 0.065,
    batch: 80,
    n_epoch: 600,
    patience: 40,
};

/// Distinct configs in the server's cache-hit pool.
pub const POOL_CONFIGS: usize = 8;

/// What one scheduled server job submits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A resubmission of pool config `i` (warm in the cache).
    Hit(usize),
    /// A unique short job.
    Short,
    /// A unique long job.
    Long,
}

/// One send of the server workload's schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledJob {
    /// What it submits.
    pub kind: JobKind,
    /// The YAML it submits.
    pub yaml: String,
    /// When, in send intervals from the start: slot `i` sends at a seeded
    /// point in `[i, i + 1)`. The jitter keeps the fixed-rate schedule
    /// from phase-locking with periodic server loops (the accept loop
    /// polls every 10 ms), which would shift every request's wait by the
    /// same run-specific offset.
    pub at: f64,
}

/// The server workload's inputs: the pool configs warmed during set-up
/// and the open-loop schedule, one entry per send slot.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePlan {
    /// Pool configs (the YAML a [`JobKind::Hit`] resubmits).
    pub pool: Vec<String>,
    /// The sends, in order.
    pub jobs: Vec<ScheduledJob>,
}

fn yaml(
    mesh: &str,
    seed: u64,
    batch: usize,
    n_epoch: usize,
    patience: usize,
    particles: &str,
    extra: &str,
) -> String {
    format!(
        "container:\n    path: \"{mesh}\"\nalgorithm: \"COLLECTIVE_ARRANGEMENT\"\n\
         params:\n    lr: 0.01\n    n_epoch: {n_epoch}\n    patience: {patience}\n    \
         batch_size: {batch}\n    seed: {seed}\n    tiles: 1\ngravity_axis: z\n{extra}\
         particle_sets:\n{particles}"
    )
}

fn constant(r: f64) -> String {
    format!("    - radius_distribution: \"constant\"\n      radius_value: {r}\n")
}

fn uniform(lo: f64, hi: f64) -> String {
    format!(
        "    - radius_distribution: \"uniform\"\n      radius_min: {lo}\n      radius_max: {hi}\n"
    )
}

fn job_yaml(class: &JobClass, seed: u64) -> String {
    yaml(
        "job_box.stl",
        seed,
        class.batch,
        class.n_epoch,
        class.patience,
        &constant(class.radius),
        "",
    )
}

/// How many of a packing workload's first configs its quality metrics
/// cover: a fixed set, so quality is a pure function of the seed however
/// many more configs the window fits.
pub fn quality_configs(w: Workload) -> usize {
    match w {
        Workload::BoxCapacity => 20,
        Workload::FurnacePoly => 5,
        Workload::SweepS8 => 4,
        _ => 1,
    }
}

/// Config `i` of a packing workload (`tiny` shrinks every size for the
/// test suite). Each index draws its own config seed, so a run packs
/// distinct inputs for as long as its window lasts. Panics for
/// `serve_mixed`, whose inputs are a [`ServePlan`].
pub fn pack_input(w: Workload, seed: u64, i: usize, tiny: bool) -> PackInput {
    let mut rng = Rng::new(seed, ((w as u64) << 32) | i as u64);
    let s = rng.config_seed();
    let (yaml, target) = match w {
        // Paper §V-A (`configs/box_simple.yaml`): the 2×2×2 box packed to
        // capacity, mono r = 0.1.
        Workload::BoxCapacity => {
            let batch = if tiny { 40 } else { 500 };
            (
                yaml("box.stl", s, batch, 2000, 50, &constant(0.1), ""),
                None,
            )
        }
        // Fig. 8: a tall column filled to a fixed N well below the lid.
        Workload::Column50k => {
            let (r, n, batch) = if tiny {
                (0.05, 300, 60)
            } else {
                (0.03, 50_000, 500)
            };
            (
                yaml("column.stl", s, batch, 2000, 50, &constant(r), ""),
                Some(n),
            )
        }
        // §VI-B (`configs/blast_furnace.yaml`): the 1:10 blast furnace with
        // the paper's radii scaled by 0.4.
        Workload::FurnacePoly => {
            let (psd, batch) = if tiny {
                (uniform(0.06, 0.08), 60)
            } else {
                (uniform(0.0208, 0.03), 500)
            };
            (yaml("furnace.stl", s, batch, 2000, 50, &psd, ""), None)
        }
        // `configs/sweep_batch.yaml` shape (seeds × learning rates), every
        // system stopped at a fixed count below the lid: the sweep's
        // wall time is then cross-system scheduling, not which system's
        // batch-halving tail happens to run last.
        Workload::SweepS8 => {
            let (n_seeds, lrs, psd, batch, n) = if tiny {
                (2, "[0.01]", uniform(0.1, 0.13), 30, 60)
            } else {
                (4, "[0.01, 0.02]", uniform(0.05, 0.08), 100, 2500)
            };
            let seeds: Vec<String> = (0..n_seeds)
                .map(|_| rng.config_seed().to_string())
                .collect();
            let block = format!(
                "batch:\n    seeds: [{}]\n    lrs: {lrs}\n",
                seeds.join(", ")
            );
            (yaml("box.stl", s, batch, 2000, 50, &psd, &block), Some(n))
        }
        Workload::ServeMixed => panic!("serve_mixed inputs come from serve_plan"),
    };
    PackInput {
        label: format!("{}.{i}", w.name()),
        yaml,
        target,
    }
}

/// Send slots per schedule block: [`BLOCK_HITS`] pool resubmissions and
/// [`BLOCK_SHORT`] unique short jobs in a seeded shuffle, around one
/// unique long job in the middle slot.
pub const BLOCK: usize = 25;
/// Pool resubmissions per block (60 %).
pub const BLOCK_HITS: usize = 15;
/// Unique short jobs per block (36 %; the long job is the last 4 %).
pub const BLOCK_SHORT: usize = 9;

/// The server workload's pool and schedule: `n` send slots in blocks of
/// [`BLOCK`]. Every unique job gets its own seed, so it packs. Spacing
/// the long jobs a block apart keeps two of them from queueing behind
/// each other, so the tail measures the server's handling of one long job
/// among short ones rather than how a shuffle happened to cluster them.
pub fn serve_plan(seed: u64, n: usize) -> ServePlan {
    let mut rng = Rng::new(seed, Workload::ServeMixed as u64);
    // One base keeps every config seed of the run distinct.
    let base = rng.config_seed();
    let pool: Vec<String> = (0..POOL_CONFIGS as u64)
        .map(|i| job_yaml(&POOL, base + i))
        .collect();
    let mut kinds = Vec::with_capacity(n);
    while kinds.len() < n {
        let mut block: Vec<JobKind> = (0..BLOCK_HITS + BLOCK_SHORT)
            .map(|i| match i {
                i if i < BLOCK_HITS => JobKind::Hit(rng.below(POOL_CONFIGS as u64) as usize),
                _ => JobKind::Short,
            })
            .collect();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
        block.insert(BLOCK / 2, JobKind::Long);
        kinds.extend(block.into_iter().take(n - kinds.len()));
    }
    let mut next_seed = base + POOL_CONFIGS as u64;
    let jobs = kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let yaml = match kind {
                JobKind::Hit(i) => pool[i].clone(),
                JobKind::Short | JobKind::Long => {
                    next_seed += 1;
                    job_yaml(
                        if kind == JobKind::Long { &LONG } else { &SHORT },
                        next_seed,
                    )
                }
            };
            let at = i as f64 + (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            ScheduledJob { kind, yaml, at }
        })
        .collect();
    ServePlan { pool, jobs }
}

/// The container meshes a workload's configs reference, by file name.
fn meshes(w: Workload, tiny: bool) -> Vec<(&'static str, TriMesh)> {
    match w {
        Workload::BoxCapacity | Workload::SweepS8 => {
            let side = if tiny { 0.8 } else { 2.0 };
            vec![("box.stl", shapes::box_mesh(Vec3::ZERO, Vec3::splat(side)))]
        }
        Workload::Column50k => {
            let (base, height) = if tiny { (0.6, 1.2) } else { (2.0, 2.8) };
            vec![("column.stl", shapes::tall_box(base, height))]
        }
        Workload::FurnacePoly => vec![("furnace.stl", shapes::blast_furnace(0.1, 48))],
        Workload::ServeMixed => vec![(
            "job_box.stl",
            shapes::box_mesh(Vec3::ZERO, Vec3::splat(1.0)),
        )],
    }
}

/// Writes the workload's meshes into `dir` as ASCII STL (as `gen-assets`
/// does); configs reference them by file name.
pub fn write_meshes(dir: &Path, w: Workload, tiny: bool) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (name, mesh) in meshes(w, tiny) {
        let f = std::fs::File::create(dir.join(name))?;
        adampack_io::write_stl_ascii(io::BufWriter::new(f), &mesh, name)
            .map_err(|e| io::Error::other(e.to_string()))?;
    }
    Ok(())
}

impl PackInput {
    /// Writes the config as `<label>.yaml` in `dir`, returning its path.
    pub fn write(&self, dir: &Path) -> io::Result<std::path::PathBuf> {
        let path = dir.join(format!("{}.yaml", self.label));
        std::fs::write(&path, &self.yaml)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            if w == Workload::ServeMixed {
                continue;
            }
            for i in 0..3 {
                let a = pack_input(w, 1, i, false);
                assert_eq!(a, pack_input(w, 1, i, false), "{}", w.name());
                assert_ne!(a, pack_input(w, 2, i, false), "{}", w.name());
                assert_ne!(a.yaml, pack_input(w, 1, i + 1, false).yaml, "{}", w.name());
            }
        }
        assert_eq!(serve_plan(1, 500), serve_plan(1, 500));
        let (a, b) = (serve_plan(1, 500), serve_plan(2, 500));
        assert_ne!(a.pool, b.pool);
        let kinds = |p: &ServePlan| p.jobs.iter().map(|j| j.kind).collect::<Vec<_>>();
        assert_ne!(kinds(&a), kinds(&b), "schedule order must follow the seed");
    }

    #[test]
    fn serve_mix_has_stated_shares_and_unique_cold_jobs() {
        let plan = serve_plan(7, 500);
        let count = |f: fn(&JobKind) -> bool| plan.jobs.iter().filter(|j| f(&j.kind)).count();
        assert_eq!(count(|k| matches!(k, JobKind::Hit(_))), 300);
        assert_eq!(count(|k| *k == JobKind::Long), 20);
        assert_eq!(count(|k| *k == JobKind::Short), 180);
        let longs: Vec<usize> = (0..500)
            .filter(|&i| plan.jobs[i].kind == JobKind::Long)
            .collect();
        assert!(
            longs.windows(2).all(|w| w[1] - w[0] == BLOCK),
            "long jobs a block apart"
        );
        for (i, j) in plan.jobs.iter().enumerate() {
            assert!(
                j.at >= i as f64 && j.at < i as f64 + 1.0,
                "send {i} leaves its slot"
            );
        }
        let mut cold: Vec<&String> = plan
            .jobs
            .iter()
            .filter(|j| !matches!(j.kind, JobKind::Hit(_)))
            .map(|j| &j.yaml)
            .collect();
        cold.extend(plan.pool.iter());
        let n = cold.len();
        cold.sort();
        cold.dedup();
        assert_eq!(
            cold.len(),
            n,
            "every unique job and pool config is distinct"
        );
    }

    #[test]
    fn configs_parse() {
        for w in Workload::ALL {
            let yamls: Vec<String> = if w == Workload::ServeMixed {
                serve_plan(3, 50).jobs.into_iter().map(|j| j.yaml).collect()
            } else {
                (0..3).map(|i| pack_input(w, 3, i, false).yaml).collect()
            };
            for y in yamls {
                adampack_config::PackingConfig::from_str(&y)
                    .unwrap_or_else(|e| panic!("{}: {e}\n{y}", w.name()));
            }
        }
    }
}
