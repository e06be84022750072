//! Offline API-subset substitute for the `rand` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the tiny slice of `rand` it actually uses: [`rngs::StdRng`] seeded with
//! [`SeedableRng::seed_from_u64`] and [`Rng::gen_range`] over float and
//! integer ranges. The generator is xoshiro256++, seeded through SplitMix64
//! exactly like the upstream `rand_core` recommendation — high-quality,
//! fast, and deterministic across platforms (which is all the packing
//! pipeline requires; it makes no cryptographic claims).
//!
//! Sequences differ from upstream `rand`; every consumer in this workspace
//! only relies on *fixed-seed reproducibility*, never on specific values.

#![warn(missing_docs)]

/// Low-level generator interface: a source of uniform `u64`s.
pub trait RngCore {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seedable generators (the subset used: construction from a `u64`).
pub trait SeedableRng: Sized {
    /// Builds a generator whose whole stream is determined by `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types samplable uniformly from a range (model of `rand`'s `SampleRange`).
pub trait SampleRange<T> {
    /// Draws one value from the range using `rng`.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_float_range {
    ($t:ty) => {
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let u = (rng.next_u64() >> 11) as $t / (1u64 << 53) as $t;
                self.start + (self.end - self.start) * u
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let u = (rng.next_u64() >> 11) as $t / (1u64 << 53) as $t;
                lo + (hi - lo) * u
            }
        }
    };
}
impl_float_range!(f64);
impl_float_range!(f32);

macro_rules! impl_int_range {
    ($t:ty) => {
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    };
}
impl_int_range!(usize);
impl_int_range!(u64);
impl_int_range!(u32);
impl_int_range!(i64);
impl_int_range!(i32);

/// High-level sampling interface, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform draw from `range` (`a..b` or `a..=b`, float or integer).
    #[inline]
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }
}
impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator (xoshiro256++).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> StdRng {
            let mut sm = state;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl StdRng {
        /// Snapshots the full generator state (for checkpointing). The
        /// returned words, fed back through [`StdRng::from_state`],
        /// reproduce the remaining stream bit for bit.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Restores a generator from a [`StdRng::state`] snapshot.
        pub fn from_state(s: [u64; 4]) -> StdRng {
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn fixed_seed_reproduces_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(
                a.gen_range(0.0f64..1.0).to_bits(),
                b.gen_range(0.0f64..1.0).to_bits()
            );
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.gen_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&x));
            let y = rng.gen_range(5usize..9);
            assert!((5..9).contains(&y));
            let z = rng.gen_range(-4i64..=4);
            assert!((-4..=4).contains(&z));
            let w = rng.gen_range(1.5f64..=2.5);
            assert!((1.5..=2.5).contains(&w));
        }
    }

    #[test]
    fn state_round_trip_resumes_the_stream() {
        let mut a = StdRng::seed_from_u64(99);
        for _ in 0..17 {
            let _ = a.gen_range(0.0f64..1.0);
        }
        let mut b = StdRng::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(
                a.gen_range(0.0f64..1.0).to_bits(),
                b.gen_range(0.0f64..1.0).to_bits()
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<f64> = (0..8).map(|_| a.gen_range(0.0f64..1.0)).collect();
        let vb: Vec<f64> = (0..8).map(|_| b.gen_range(0.0f64..1.0)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn mean_is_roughly_centered() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen_range(0.0f64..1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
