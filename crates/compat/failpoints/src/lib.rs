//! Dependency-free fault injection ("failpoints").
//!
//! Production code marks recoverable failure sites with
//! [`should_fail`]`("site.name")`; tests arm a site with [`arm`] and the
//! next `skip`-th through `skip + times`-th evaluations of that site report
//! `true`, letting a suite force I/O errors, NaN objectives or panics at a
//! precise step without touching the code under test.
//!
//! With the `enabled` cargo feature **off** (the default for release
//! builds) every call compiles to a constant: there is no registry, no
//! atomics, no branches — the facility vanishes. With the feature on, the
//! unarmed fast path is a single relaxed atomic load (no lock, no
//! allocation), so instrumented hot loops — the objective evaluation runs
//! inside the allocation-free step path — stay allocation-free and cheap
//! while nothing is armed.
//!
//! Sites are plain `&'static str` names; the registry is a tiny fixed-size
//! table (no HashMap, no heap) guarded by a mutex that only the *armed*
//! path and the control functions touch. The registry is process-global,
//! so tests take a [`FailGuard`]: it serializes them on one lock and
//! disarms everything when the test ends, also when it panics.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::sync::{Mutex, MutexGuard};

/// Serializes [`FailGuard`] holders.
static GUARD_LOCK: Mutex<()> = Mutex::new(());

/// Exclusive, scoped use of the failpoint registry.
///
/// A test that arms sites — or that runs code containing sites another test
/// in the same process may arm — holds a guard for its whole body. Creating
/// one takes a process-wide lock and starts from a clean registry; dropping
/// it disarms every site before releasing the lock, on unwind too. A lock
/// poisoned by a panicking holder is recovered, so one failed test does not
/// cascade into the rest.
#[must_use = "the registry is held only while the guard lives"]
pub struct FailGuard {
    _lock: MutexGuard<'static, ()>,
}

impl FailGuard {
    /// Takes the lock with every site disarmed.
    pub fn unarmed() -> FailGuard {
        let lock = GUARD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        FailGuard { _lock: lock }
    }

    /// Takes the lock and arms `site` (schedule as in [`arm`]).
    pub fn arm(site: &'static str, skip: u64, times: u64) -> FailGuard {
        let guard = FailGuard::unarmed();
        guard.rearm(site, skip, times);
        guard
    }

    /// Arms `site` under this guard: another site, or a fresh schedule for
    /// one already armed.
    pub fn rearm(&self, site: &'static str, skip: u64, times: u64) {
        arm(site, skip, times);
    }

    /// Disarms every site; the guard keeps the lock.
    pub fn reset(&self) {
        reset();
    }
}

impl Drop for FailGuard {
    fn drop(&mut self) {
        reset();
    }
}

#[cfg(feature = "enabled")]
mod imp {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Upper bound on simultaneously armed sites (plenty: the workspace
    /// defines fewer than a dozen sites in total).
    const MAX_ARMED: usize = 16;

    #[derive(Clone, Copy)]
    struct Armed {
        site: &'static str,
        /// Evaluations to let pass before failing.
        skip: u64,
        /// Failures still to deliver once `skip` is exhausted.
        times: u64,
        /// Evaluations seen so far.
        seen: u64,
        /// Failures delivered so far.
        hits: u64,
    }

    struct Registry {
        slots: [Option<Armed>; MAX_ARMED],
    }

    /// Number of armed sites; the unarmed fast path is one relaxed load of
    /// this plus a compare against zero.
    static ARMED_COUNT: AtomicUsize = AtomicUsize::new(0);
    static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
        slots: [None; MAX_ARMED],
    });

    /// Arms `site`: after `skip` passing evaluations, the next `times`
    /// evaluations report failure. Re-arming an armed site replaces its
    /// schedule and zeroes its counters.
    pub fn arm(site: &'static str, skip: u64, times: u64) {
        let mut reg = REGISTRY.lock().unwrap();
        if let Some(slot) = reg
            .slots
            .iter_mut()
            .find(|s| matches!(s, Some(a) if a.site == site))
        {
            *slot = Some(Armed {
                site,
                skip,
                times,
                seen: 0,
                hits: 0,
            });
            return;
        }
        let slot = reg
            .slots
            .iter_mut()
            .find(|s| s.is_none())
            .expect("failpoint registry full");
        *slot = Some(Armed {
            site,
            skip,
            times,
            seen: 0,
            hits: 0,
        });
        ARMED_COUNT.fetch_add(1, Ordering::Release);
    }

    /// Disarms `site` (a no-op when it is not armed).
    pub fn disarm(site: &str) {
        let mut reg = REGISTRY.lock().unwrap();
        for slot in reg.slots.iter_mut() {
            if matches!(slot, Some(a) if a.site == site) {
                *slot = None;
                ARMED_COUNT.fetch_sub(1, Ordering::Release);
            }
        }
    }

    /// Disarms every site.
    pub fn reset() {
        let mut reg = REGISTRY.lock().unwrap();
        for slot in reg.slots.iter_mut() {
            if slot.take().is_some() {
                ARMED_COUNT.fetch_sub(1, Ordering::Release);
            }
        }
    }

    /// Evaluates `site`: `true` means the caller must fail here.
    #[inline]
    pub fn should_fail(site: &str) -> bool {
        if ARMED_COUNT.load(Ordering::Acquire) == 0 {
            return false;
        }
        should_fail_slow(site)
    }

    #[cold]
    fn should_fail_slow(site: &str) -> bool {
        let mut reg = REGISTRY.lock().unwrap();
        for slot in reg.slots.iter_mut().flatten() {
            if slot.site == site {
                let fire = slot.seen >= slot.skip && slot.hits < slot.times;
                slot.seen += 1;
                if fire {
                    slot.hits += 1;
                }
                return fire;
            }
        }
        false
    }

    /// Failures delivered so far at `site` (0 when not armed).
    pub fn hits(site: &str) -> u64 {
        let reg = REGISTRY.lock().unwrap();
        reg.slots
            .iter()
            .flatten()
            .find(|a| a.site == site)
            .map_or(0, |a| a.hits)
    }
}

#[cfg(feature = "enabled")]
pub use imp::{arm, disarm, hits, reset, should_fail};

#[cfg(not(feature = "enabled"))]
mod imp_off {
    /// Arms `site` (inert: the `enabled` feature is off).
    pub fn arm(_site: &'static str, _skip: u64, _times: u64) {}
    /// Disarms `site` (inert: the `enabled` feature is off).
    pub fn disarm(_site: &str) {}
    /// Disarms every site (inert: the `enabled` feature is off).
    pub fn reset() {}
    /// Always `false`: the `enabled` feature is off, so every site is a
    /// constant the optimizer removes.
    #[inline(always)]
    pub fn should_fail(_site: &str) -> bool {
        false
    }
    /// Always 0 (inert: the `enabled` feature is off).
    pub fn hits(_site: &str) -> u64 {
        0
    }
}

#[cfg(not(feature = "enabled"))]
pub use imp_off::{arm, disarm, hits, reset, should_fail};

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn unarmed_site_never_fails() {
        let _fp = FailGuard::unarmed();
        for _ in 0..100 {
            assert!(!should_fail("test.unarmed"));
        }
    }

    #[test]
    fn skip_then_fire_times_then_pass() {
        let fp = FailGuard::arm("test.site", 3, 2);
        let fired: Vec<bool> = (0..8).map(|_| should_fail("test.site")).collect();
        assert_eq!(
            fired,
            [false, false, false, true, true, false, false, false]
        );
        assert_eq!(hits("test.site"), 2);
        fp.reset();
        assert!(!should_fail("test.site"));
    }

    #[test]
    fn rearm_replaces_schedule_and_disarm_clears() {
        let fp = FailGuard::arm("test.re", 0, 1);
        assert!(should_fail("test.re"));
        assert!(!should_fail("test.re"), "times exhausted");
        fp.rearm("test.re", 0, 1);
        assert!(should_fail("test.re"), "re-arm restarts the schedule");
        disarm("test.re");
        assert!(!should_fail("test.re"));
        assert_eq!(hits("test.re"), 0);
    }

    #[test]
    fn sites_are_independent() {
        let _fp = FailGuard::arm("test.a", 0, 1);
        assert!(!should_fail("test.b"));
        assert!(should_fail("test.a"));
    }

    /// The guard disarms on unwind and its lock survives the poisoning.
    #[test]
    fn guard_resets_when_the_holder_panics() {
        let outcome = std::thread::spawn(|| {
            let _fp = FailGuard::arm("test.panic", 0, u64::MAX);
            panic!("test body fails while armed");
        })
        .join();
        assert!(outcome.is_err());
        let _fp = FailGuard::unarmed();
        assert!(!should_fail("test.panic"), "site leaked past the panic");
    }
}
