//! Atomic (torn-write-proof) file replacement and rotating checkpoints.
//!
//! A checkpoint that is being written when the process dies must never
//! destroy the previous good checkpoint. [`write_atomic`] gives the
//! standard guarantee: the payload goes to a sibling temp file, is fsynced,
//! and only then renamed over the destination (rename within one directory
//! is atomic on POSIX), followed by an fsync of the parent directory so
//! the rename itself survives a crash.
//!
//! [`RotatingCheckpointWriter`] layers `keep_last` history on top using the
//! logrotate scheme — `run.ckpt` is newest, `run.ckpt.1` one older, … — so
//! a checkpoint that turns out corrupt (torn at a sector boundary the
//! atomicity dance can't cover, or bit-rotted on disk) still leaves an
//! older sibling to fall back to; [`checkpoint_candidates`] enumerates the
//! fallback chain newest-first for resume.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::error::Error;

/// Failpoint site: fires an injected I/O error before the temp file is
/// renamed into place (the destination is left untouched).
pub const FAILPOINT_CHECKPOINT_WRITE: &str = "io.checkpoint.write";

/// Failpoint site: fires an injected I/O error at the parent-directory
/// fsync *after* the rename. This models the power-loss window the
/// directory fsync exists to close: the new file is visible in the
/// running process (the rename happened) but its directory entry was
/// never persisted, so the caller must treat the write as not durably
/// committed.
pub const FAILPOINT_CHECKPOINT_DIR_SYNC: &str = "io.checkpoint.dir_sync";

/// Failpoint site: fires `ENOSPC` from the payload write inside
/// [`write_atomic`], before anything is renamed. Models a full disk:
/// the destination keeps its previous content and the temp file is
/// cleaned up, so callers can degrade (shed load, evict cache) instead
/// of crashing. Detect it via [`Error::is_disk_full`].
pub const FAILPOINT_WRITE_ENOSPC: &str = "io.write.enospc";

/// `ENOSPC` — `io::ErrorKind::StorageFull` is still unstable, so the
/// raw errno is matched instead.
const ENOSPC: i32 = 28;

fn injected(path: &Path, op: &'static str, site: &'static str) -> Error {
    Error::io(
        path,
        op,
        std::io::Error::other(format!("injected failpoint {site}")),
    )
}

/// Writes `bytes` to `path` atomically: temp file + fsync + rename +
/// parent-directory fsync. On any failure the previous content of `path`
/// (if any) is untouched and the temp file is removed.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), Error> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);

    let result = (|| {
        let mut f = fs::File::create(&tmp).map_err(|e| Error::io(&tmp, "create", e))?;
        if failpoints::should_fail(FAILPOINT_WRITE_ENOSPC) {
            return Err(Error::io(
                &tmp,
                "write",
                std::io::Error::from_raw_os_error(ENOSPC),
            ));
        }
        f.write_all(bytes)
            .map_err(|e| Error::io(&tmp, "write", e))?;
        f.sync_all().map_err(|e| Error::io(&tmp, "fsync", e))?;
        drop(f);
        if failpoints::should_fail(FAILPOINT_CHECKPOINT_WRITE) {
            return Err(injected(path, "rename", FAILPOINT_CHECKPOINT_WRITE));
        }
        fs::rename(&tmp, path).map_err(|e| Error::io(path, "rename", e))?;
        // Persist the rename itself: fsync the directory entry. This also
        // covers any rotation renames [`RotatingCheckpointWriter::save`]
        // performed just before in the same directory — one barrier
        // flushes them all.
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if failpoints::should_fail(FAILPOINT_CHECKPOINT_DIR_SYNC) {
                return Err(injected(parent, "fsync dir", FAILPOINT_CHECKPOINT_DIR_SYNC));
            }
            let dir = fs::File::open(parent).map_err(|e| Error::io(parent, "open dir", e))?;
            dir.sync_all()
                .map_err(|e| Error::io(parent, "fsync dir", e))?;
        }
        Ok(())
    })();

    if result.is_err() {
        fs::remove_file(&tmp).ok();
    }
    result
}

/// The rotated sibling of `path` with history index `i` (`i >= 1`):
/// `run.ckpt` → `run.ckpt.1`.
fn rotated(path: &Path, i: usize) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(format!(".{i}"));
    PathBuf::from(name)
}

/// The fallback chain for resume: `path`, `path.1`, …, newest first,
/// restricted to files that exist. Empty when no checkpoint was ever
/// completed.
pub fn checkpoint_candidates(path: impl AsRef<Path>, keep_last: usize) -> Vec<PathBuf> {
    let path = path.as_ref();
    let mut out = Vec::new();
    if path.is_file() {
        out.push(path.to_path_buf());
    }
    for i in 1..keep_last.max(1) {
        let p = rotated(path, i);
        if p.is_file() {
            out.push(p);
        }
    }
    out
}

/// Writes checkpoints to a fixed path, keeping the last `keep_last` files
/// (current + rotated history).
#[derive(Debug)]
pub struct RotatingCheckpointWriter {
    path: PathBuf,
    keep_last: usize,
}

impl RotatingCheckpointWriter {
    /// A writer targeting `path`; `keep_last` is clamped to at least 1
    /// (the current file itself).
    pub fn new(path: impl Into<PathBuf>, keep_last: usize) -> RotatingCheckpointWriter {
        RotatingCheckpointWriter {
            path: path.into(),
            keep_last: keep_last.max(1),
        }
    }

    /// The primary (newest) checkpoint path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rotates history and atomically writes `bytes` as the newest
    /// checkpoint. A failure mid-rotation or mid-write leaves every
    /// already-completed checkpoint file intact. The rotation renames all
    /// happen in the destination's directory, so the parent-directory
    /// fsync at the end of [`write_atomic`] makes the whole shift durable
    /// in one barrier; a crash before it falls back through whichever
    /// mix of old/new names survived via [`checkpoint_candidates`].
    pub fn save(&mut self, bytes: &[u8]) -> Result<(), Error> {
        if self.keep_last > 1 && self.path.is_file() {
            // Shift run.ckpt.{i} → run.ckpt.{i+1}, oldest first, dropping
            // the one past the retention window.
            let oldest = rotated(&self.path, self.keep_last - 1);
            fs::remove_file(&oldest).ok();
            for i in (1..self.keep_last - 1).rev() {
                let from = rotated(&self.path, i);
                if from.is_file() {
                    fs::rename(&from, rotated(&self.path, i + 1))
                        .map_err(|e| Error::io(&from, "rotate", e))?;
                }
            }
            fs::rename(&self.path, rotated(&self.path, 1))
                .map_err(|e| Error::io(&self.path, "rotate", e))?;
        }
        write_atomic(&self.path, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failpoints::FailGuard;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("adampack_atomic_{tag}_{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_atomic_replaces_and_cleans_temp() {
        // Write paths contain failpoint sites other tests here arm.
        let _fp = FailGuard::unarmed();
        let dir = temp_dir("replace");
        let path = dir.join("run.ckpt");
        write_atomic(&path, b"one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        write_atomic(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        assert!(
            !dir.join("run.ckpt.tmp").exists(),
            "temp file must not linger"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_keeps_exactly_keep_last() {
        let _fp = FailGuard::unarmed();
        let dir = temp_dir("rotate");
        let path = dir.join("run.ckpt");
        let mut w = RotatingCheckpointWriter::new(&path, 3);
        for i in 0..5u8 {
            w.save(&[i]).unwrap();
        }
        assert_eq!(fs::read(&path).unwrap(), [4]);
        assert_eq!(fs::read(rotated(&path, 1)).unwrap(), [3]);
        assert_eq!(fs::read(rotated(&path, 2)).unwrap(), [2]);
        assert!(!rotated(&path, 3).exists(), "history bounded by keep_last");
        let candidates = checkpoint_candidates(&path, 3);
        assert_eq!(candidates.len(), 3);
        assert_eq!(candidates[0], path, "newest first");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keep_last_one_never_rotates() {
        let _fp = FailGuard::unarmed();
        let dir = temp_dir("single");
        let path = dir.join("run.ckpt");
        let mut w = RotatingCheckpointWriter::new(&path, 1);
        w.save(b"a").unwrap();
        w.save(b"b").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"b");
        assert!(!rotated(&path, 1).exists());
        assert_eq!(checkpoint_candidates(&path, 1), vec![path.clone()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn candidates_empty_without_files() {
        let dir = temp_dir("empty");
        assert!(checkpoint_candidates(dir.join("never.ckpt"), 4).is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn enospc_failpoint_degrades_without_clobbering() {
        let dir = temp_dir("enospc");
        let path = dir.join("run.ckpt");
        let fp = FailGuard::unarmed();
        write_atomic(&path, b"good").unwrap();
        fp.rearm(FAILPOINT_WRITE_ENOSPC, 0, 1);
        let err = write_atomic(&path, b"new").expect_err("disk was full");
        fp.reset();
        assert!(err.is_disk_full(), "{err:?}");
        assert_eq!(
            fs::read(&path).unwrap(),
            b"good",
            "previous content must survive a full disk"
        );
        assert!(!dir.join("run.ckpt.tmp").exists(), "temp cleaned up");
        // Once space frees up the same write succeeds.
        write_atomic(&path, b"new").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_failpoint_errors_are_not_disk_full() {
        let dir = temp_dir("notfull");
        let path = dir.join("run.ckpt");
        let _fp = FailGuard::arm(FAILPOINT_CHECKPOINT_WRITE, 0, 1);
        let err = write_atomic(&path, b"x").expect_err("failpoint armed");
        assert!(!err.is_disk_full(), "{err:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_failure_to_unwritable_dir_is_typed() {
        let _fp = FailGuard::unarmed();
        let err = write_atomic("/nonexistent-dir/x.ckpt", b"x").expect_err("wrote to the void");
        assert!(matches!(err, Error::Io { op: "create", .. }), "{err:?}");
    }
}
