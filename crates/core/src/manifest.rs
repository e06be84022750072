//! Run provenance manifests.
//!
//! A [`RunManifest`] is the self-describing sidecar written next to every
//! packing output (`out.manifest.json` beside `out.vtk`; one per system in
//! batched sweeps): everything needed to answer *what produced this file* —
//! the parameter fingerprint (the same FNV-1a value stored in checkpoints,
//! so a manifest can be matched against a checkpoint), the context salt,
//! the kernel backend and detected ISA, thread count, seed, the sweep grid,
//! per-phase wall-clock, and the artifact list with byte sizes.
//!
//! The struct renders itself as JSON ([`RunManifest::to_json`]); callers
//! persist it through the atomic writer in `adampack-io` so readers never
//! observe a torn manifest.

use std::path::{Path, PathBuf};

use adampack_telemetry::diag::push_json_string;

use crate::collective::BatchPhaseBreakdown;

/// One output file the run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactEntry {
    /// Path as written (relative or absolute, verbatim).
    pub path: String,
    /// Size in bytes at manifest time.
    pub bytes: u64,
}

/// Provenance of one packing run (or one system of a batched sweep).
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// System label (empty for single-system runs).
    pub label: String,
    /// Parameter fingerprint — identical to the value stored in this
    /// run's checkpoints ([`crate::collective::CollectivePacker::fingerprint`]).
    pub fingerprint: u64,
    /// The fingerprint-context salt (threads, kernel, sweep grid).
    pub context_salt: u64,
    /// RNG seed of this system.
    pub seed: u64,
    /// Worker threads the run used.
    pub threads: usize,
    /// Kernel the configuration selected (`scalar` / `simd`).
    pub kernel: String,
    /// Compiled SIMD backend name.
    pub backend: String,
    /// ISA detected at run time.
    pub isa: String,
    /// Human-readable sweep-grid descriptor (empty when not a sweep).
    pub batch_grid: String,
    /// High-water mark of resident hot-set bytes (bed grid + workspace);
    /// 0 when metrics were disabled.
    pub hot_set_peak_bytes: u64,
    /// Particles packed.
    pub packed: u64,
    /// Requested particle count.
    pub target: u64,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// Per-phase wall-clock summed over the run's batches.
    pub phase: BatchPhaseBreakdown,
    /// Output files this run wrote, with sizes.
    pub artifacts: Vec<ArtifactEntry>,
}

impl RunManifest {
    /// The manifest path for an output file: `dir/stem.manifest.json`
    /// (`out.vtk` → `out.manifest.json`, `out.s3_lr0.01.vtk` →
    /// `out.s3_lr0.01.manifest.json`).
    pub fn path_for(output: &Path) -> PathBuf {
        output.with_extension("manifest.json")
    }

    /// Records an artifact, reading its current size from the filesystem
    /// (0 when unreadable — the manifest must never fail the run).
    pub fn add_artifact(&mut self, path: &Path) {
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        self.artifacts.push(ArtifactEntry {
            path: path.display().to_string(),
            bytes,
        });
    }

    /// Renders the manifest as JSON. Fingerprints are zero-padded hex
    /// strings (JSON numbers cannot hold u64 exactly).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("{\n  \"schema\": \"adampack.manifest/v1\",\n  \"label\": ");
        push_json_string(&mut s, &self.label);
        write!(
            s,
            ",\n  \"fingerprint\": \"{:016x}\",\n  \"context_salt\": \"{:016x}\",\n  \"seed\": {},\n  \"threads\": {}",
            self.fingerprint, self.context_salt, self.seed, self.threads
        )
        .unwrap();
        for (key, value) in [
            ("kernel", &self.kernel),
            ("backend", &self.backend),
            ("isa", &self.isa),
            ("batch_grid", &self.batch_grid),
        ] {
            write!(s, ",\n  \"{key}\": ").unwrap();
            push_json_string(&mut s, value);
        }
        write!(
            s,
            ",\n  \"hot_set_peak_bytes\": {},\n  \"packed\": {},\n  \"target\": {},\n  \"wall_seconds\": {:.6}",
            self.hot_set_peak_bytes, self.packed, self.target, self.wall_seconds
        )
        .unwrap();
        s.push_str(",\n  \"phase_ns\": {");
        for (i, (name, d)) in [
            ("spawn", self.phase.spawn),
            ("optimize", self.phase.optimize),
            ("gradient", self.phase.gradient),
            ("optimizer", self.phase.optimizer),
            ("acceptance", self.phase.acceptance),
        ]
        .iter()
        .enumerate()
        {
            if i > 0 {
                s.push(',');
            }
            write!(s, "\"{name}\": {}", d.as_nanos().min(u64::MAX as u128)).unwrap();
        }
        s.push_str("},\n  \"artifacts\": [");
        for (i, a) in self.artifacts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {\"path\": ");
            push_json_string(&mut s, &a.path);
            write!(s, ", \"bytes\": {}}}", a.bytes).unwrap();
        }
        if !self.artifacts.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample() -> RunManifest {
        RunManifest {
            label: "s3_lr0.01".to_string(),
            fingerprint: 0xdead_beef_0123_4567,
            context_salt: 0x42,
            seed: 7,
            threads: 4,
            kernel: "simd".to_string(),
            backend: "avx2".to_string(),
            isa: "avx2".to_string(),
            batch_grid: "seeds=[3,4]|lrs=[0.01]".to_string(),
            hot_set_peak_bytes: 1 << 20,
            packed: 120,
            target: 150,
            wall_seconds: 1.5,
            phase: BatchPhaseBreakdown {
                spawn: Duration::from_nanos(10),
                optimize: Duration::from_nanos(500),
                gradient: Duration::from_nanos(300),
                optimizer: Duration::from_nanos(100),
                acceptance: Duration::from_nanos(20),
            },
            artifacts: vec![ArtifactEntry {
                path: "out.s3_lr0.01.vtk".to_string(),
                bytes: 4096,
            }],
        }
    }

    #[test]
    fn json_has_schema_fingerprint_and_artifacts() {
        let json = sample().to_json();
        assert!(json.contains("\"schema\": \"adampack.manifest/v1\""));
        assert!(json.contains("\"fingerprint\": \"deadbeef01234567\""));
        assert!(json.contains("\"context_salt\": \"0000000000000042\""));
        assert!(json.contains("\"gradient\": 300"));
        assert!(json.contains("\"hot_set_peak_bytes\": 1048576"));
        assert!(json.contains("\"path\": \"out.s3_lr0.01.vtk\", \"bytes\": 4096"));
        // Flat-parseable sanity: every quote is balanced.
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn labels_with_quotes_are_escaped() {
        let mut m = sample();
        m.label = "we\"ird\\läbel".to_string();
        let json = m.to_json();
        assert!(json.contains("\"label\": \"we\\\"ird\\\\läbel\""));
    }

    #[test]
    fn path_for_replaces_extension() {
        assert_eq!(
            RunManifest::path_for(Path::new("out.vtk")),
            PathBuf::from("out.manifest.json")
        );
        assert_eq!(
            RunManifest::path_for(Path::new("dir/out.s3_lr0.01.vtk")),
            PathBuf::from("dir/out.s3_lr0.01.manifest.json")
        );
    }

    #[test]
    fn add_artifact_tolerates_missing_files() {
        let mut m = sample();
        m.add_artifact(Path::new("/definitely/not/here.vtk"));
        assert_eq!(m.artifacts.last().unwrap().bytes, 0);
    }
}
