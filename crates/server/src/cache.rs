//! Size-bounded LRU bookkeeping for the server's on-disk state.
//!
//! The artifact cache and the per-job checkpoint rotations both live
//! under `data_dir` and both grow without bound on a busy server. This
//! module keeps an in-memory ledger of every file the server owns
//! (artifacts and checkpoint generations, with sizes and a logical
//! touch clock) so the store can be capped: when an insert would push
//! the total past `cap_bytes`, the least-recently-used *evictable*
//! files are deleted first.
//!
//! Eviction safety invariants (enforced here, relied on by the tests):
//!
//! * a job that is currently queued or running is never touched — its
//!   artifact-in-progress and checkpoints are in flight;
//! * the newest checkpoint generation of any job is never evicted, so
//!   an expired/preempted job can always resume; only rotated history
//!   (`.ckpt.1`, `.ckpt.2`, …) is reclaimable;
//! * completed artifacts are evictable (the content address makes them
//!   reproducible: a resubmission simply re-runs the job).
//!
//! The ledger is rebuilt from a directory scan at startup (mtime order
//! seeds the LRU clock), so restarts inherit the same bound.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use adampack_telemetry::info;
use adampack_telemetry::metrics::{SERVER_CACHE_BYTES, SERVER_CACHE_EVICTIONS_TOTAL};

/// What kind of file a ledger entry tracks; decides evictability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FileKind {
    /// A completed artifact (`artifacts/<addr>.csv`). Evictable.
    Artifact,
    /// The newest checkpoint generation (`jobs/<addr>.ckpt`). Never
    /// evicted.
    NewestCheckpoint,
    /// A rotated checkpoint generation (`jobs/<addr>.ckpt.N`).
    /// Evictable: the newest generation subsumes it for resume.
    RotatedCheckpoint,
}

#[derive(Debug)]
struct Entry {
    addr: u64,
    kind: FileKind,
    bytes: u64,
    touch: u64,
}

/// The in-memory ledger of on-disk files with LRU eviction.
pub(crate) struct DiskCache {
    /// Size cap in bytes; 0 means unlimited (ledger still maintained so
    /// `/metrics` reports usage).
    cap: u64,
    used: u64,
    clock: u64,
    entries: HashMap<PathBuf, Entry>,
}

impl DiskCache {
    pub fn new(cap: u64) -> DiskCache {
        DiskCache {
            cap,
            used: 0,
            clock: 0,
            entries: HashMap::new(),
        }
    }

    /// Total tracked bytes.
    #[cfg(test)]
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn publish(&self) {
        SERVER_CACHE_BYTES.set(self.used);
    }

    /// Records (or updates) `path` with `bytes` on disk.
    pub fn insert(&mut self, path: PathBuf, addr: u64, kind: FileKind, bytes: u64) {
        let touch = self.tick();
        if let Some(old) = self.entries.insert(
            path,
            Entry {
                addr,
                kind,
                bytes,
                touch,
            },
        ) {
            self.used -= old.bytes;
        }
        self.used += bytes;
        self.publish();
    }

    /// Bumps `path` to most-recently-used (cache hits, artifact reads).
    pub fn touch(&mut self, path: &Path) {
        let t = self.tick();
        if let Some(e) = self.entries.get_mut(path) {
            e.touch = t;
        }
    }

    /// Drops `path` from the ledger (caller already deleted the file).
    pub fn forget(&mut self, path: &Path) {
        if let Some(e) = self.entries.remove(path) {
            self.used -= e.bytes;
            self.publish();
        }
    }

    /// Seeds the ledger from a directory scan, oldest mtime first so
    /// pre-restart files order correctly in the LRU.
    pub fn scan(&mut self, artifacts_dir: &Path, jobs_dir: &Path) {
        let mut found: Vec<(PathBuf, u64, FileKind, std::time::SystemTime)> = Vec::new();
        let mut visit = |dir: &Path, classify: &dyn Fn(&str) -> Option<(u64, FileKind)>| {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return;
            };
            for e in entries.flatten() {
                let name = e.file_name();
                let name = name.to_string_lossy().into_owned();
                let Some((addr, kind)) = classify(&name) else {
                    continue;
                };
                let Ok(meta) = e.metadata() else { continue };
                let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                found.push((e.path(), addr, kind, mtime));
                let _ = meta.len();
            }
        };
        visit(artifacts_dir, &|name| {
            let hex = name.strip_suffix(".csv")?;
            let addr = crate::address::parse_address(hex)?;
            Some((addr, FileKind::Artifact))
        });
        visit(jobs_dir, &|name| {
            // `<addr>.ckpt` is newest; `<addr>.ckpt.N` is rotated history.
            if let Some(hex) = name.strip_suffix(".ckpt") {
                let addr = crate::address::parse_address(hex)?;
                return Some((addr, FileKind::NewestCheckpoint));
            }
            let (stem, gen) = name.rsplit_once('.')?;
            gen.parse::<u32>().ok()?;
            let hex = stem.strip_suffix(".ckpt")?;
            let addr = crate::address::parse_address(hex)?;
            Some((addr, FileKind::RotatedCheckpoint))
        });
        found.sort_by_key(|(_, _, _, mtime)| *mtime);
        for (path, addr, kind, _) in found {
            let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            self.insert(path, addr, kind, bytes);
        }
    }

    /// Evicts least-recently-used evictable files until the ledger fits
    /// `cap - headroom` (or nothing evictable remains). `in_flight`
    /// reports whether a job's files must not be touched. Files are
    /// deleted from disk here; returns the number evicted.
    pub fn evict_to_fit(&mut self, headroom: u64, in_flight: &dyn Fn(u64) -> bool) -> usize {
        if self.cap == 0 {
            return 0;
        }
        let target = self.cap.saturating_sub(headroom);
        let mut evicted = 0;
        while self.used > target {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| e.kind != FileKind::NewestCheckpoint && !in_flight(e.addr))
                .min_by_key(|(_, e)| e.touch)
                .map(|(p, _)| p.clone());
            let Some(path) = victim else { break };
            let _ = std::fs::remove_file(&path);
            let e = self.entries.remove(&path).expect("victim came from map");
            self.used -= e.bytes;
            evicted += 1;
            SERVER_CACHE_EVICTIONS_TOTAL.inc();
            info!(
                "cache: evicted {} ({} bytes, {:?})",
                path.display(),
                e.bytes,
                e.kind
            );
        }
        self.publish();
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("adampack_cache_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn lru_eviction_respects_kind_and_in_flight() {
        let dir = temp_dir("lru");
        let mk = |name: &str, len: usize| {
            let p = dir.join(name);
            std::fs::write(&p, vec![0u8; len]).unwrap();
            p
        };
        let a1 = mk("a1.csv", 100);
        let a2 = mk("a2.csv", 100);
        let ck = mk("j1.ckpt", 100);
        let ro = mk("j1.ckpt.1", 100);

        let mut c = DiskCache::new(250);
        c.insert(a1.clone(), 1, FileKind::Artifact, 100);
        c.insert(a2.clone(), 2, FileKind::Artifact, 100);
        c.insert(ck.clone(), 3, FileKind::NewestCheckpoint, 100);
        c.insert(ro.clone(), 3, FileKind::RotatedCheckpoint, 100);
        assert_eq!(c.used_bytes(), 400);

        // Job 1's artifact is oldest but in flight; job 2's artifact is
        // next-oldest and free; the rotated checkpoint follows. The
        // newest checkpoint must survive even though the cap is busted.
        let evicted = c.evict_to_fit(0, &|addr| addr == 1);
        assert_eq!(evicted, 2, "a2 then ckpt.1");
        assert!(a1.exists(), "in-flight artifact untouched");
        assert!(!a2.exists());
        assert!(ck.exists(), "newest checkpoint never evicted");
        assert!(!ro.exists());
        assert_eq!(c.used_bytes(), 200);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn touch_changes_victim_order() {
        let dir = temp_dir("touch");
        let p1 = dir.join("a1.csv");
        let p2 = dir.join("a2.csv");
        std::fs::write(&p1, [0u8; 10]).unwrap();
        std::fs::write(&p2, [0u8; 10]).unwrap();
        let mut c = DiskCache::new(10);
        c.insert(p1.clone(), 1, FileKind::Artifact, 10);
        c.insert(p2.clone(), 2, FileKind::Artifact, 10);
        c.touch(&p1); // p1 is now newer than p2
        c.evict_to_fit(0, &|_| false);
        assert!(p1.exists(), "touched entry survives");
        assert!(!p2.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_cap_means_unlimited() {
        let mut c = DiskCache::new(0);
        c.insert(PathBuf::from("/nope/a.csv"), 1, FileKind::Artifact, 1 << 40);
        assert_eq!(c.evict_to_fit(0, &|_| false), 0);
        assert_eq!(c.used_bytes(), 1 << 40);
    }

    #[test]
    fn scan_seeds_by_mtime_and_classifies() {
        let dir = temp_dir("scan");
        let arts = dir.join("artifacts");
        let jobs = dir.join("jobs");
        std::fs::create_dir_all(&arts).unwrap();
        std::fs::create_dir_all(&jobs).unwrap();
        std::fs::write(arts.join("00000000000000aa.csv"), [0u8; 50]).unwrap();
        std::fs::write(jobs.join("00000000000000bb.ckpt"), [0u8; 30]).unwrap();
        std::fs::write(jobs.join("00000000000000bb.ckpt.1"), [0u8; 20]).unwrap();
        std::fs::write(jobs.join("garbage.txt"), [0u8; 999]).unwrap();
        let mut c = DiskCache::new(0);
        c.scan(&arts, &jobs);
        assert_eq!(c.used_bytes(), 100, "garbage not tracked");
        std::fs::remove_dir_all(&dir).ok();
    }
}
