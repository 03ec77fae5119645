//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access, so this path crate provides
//! the exact API subset the workspace uses from crates.io `rand` 0.8:
//! [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], and the [`Rng`] methods
//! `gen`, `gen_range`, `gen_bool`. The generator is xoshiro256++ — not the
//! ChaCha12 of upstream `StdRng`, so seeds produce *different* (but equally
//! deterministic) streams. Nothing in the workspace depends on the exact
//! stream, only on determinism for a fixed seed.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// A generator seedable from integers (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from the generator's raw output
/// (stand-in for `rand::distributions::Standard` sampling).
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

/// Integer types sampleable from half-open bounds (subset of
/// `rand::distributions::uniform::SampleUniform`).
pub trait SampleUniform: Copy {
    /// Widens to i128 (covers every primitive integer losslessly).
    fn to_i128(self) -> i128;
    /// Uniform draw from `[lo, hi)` expressed in i128 space.
    fn sample_between<R: Rng + ?Sized>(lo: i128, hi: i128, rng: &mut R) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn to_i128(self) -> i128 {
                self as i128
            }
            fn sample_between<R: Rng + ?Sized>(lo: i128, hi: i128, rng: &mut R) -> $t {
                assert!(lo < hi, "cannot sample empty range");
                let span = (hi - lo) as u128;
                (lo + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges over `T` usable with [`Rng::gen_range`]; mirrors upstream's
/// two-parameter shape so integer literals infer from the expected output.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(self.start.to_i128(), self.end.to_i128(), rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(self.start().to_i128(), self.end().to_i128() + 1, rng)
    }
}

/// The user-facing generator trait (subset of `rand::Rng`).
pub trait Rng {
    /// Raw 64 uniform bits.
    fn next_u64(&mut self) -> u64;

    /// Draws a value of type `T` from the standard distribution.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T: SampleUniform, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }
}

/// Concrete generators (subset of `rand::rngs`).
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic xoshiro256++ generator standing in for `rand`'s
    /// ChaCha12-based `StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as the xoshiro authors recommend.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(3u64..17);
            assert!((3..17).contains(&v));
            let w = r.gen_range(2..=4);
            assert!((2..=4).contains(&w));
            let f: f64 = r.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert!(!r.gen_bool(0.0));
            assert!(r.gen_bool(1.0));
        }
    }
}
