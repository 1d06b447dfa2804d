//! Vendored stand-in for the subset of the [`rand`](https://crates.io/crates/rand)
//! 0.8 API this workspace uses.
//!
//! The build environment has no access to a crates.io registry, so the three
//! external dependencies (`rand`, `rand_chacha`, `proptest`) are vendored as
//! minimal shims under `shims/`. This crate provides:
//!
//! * [`RngCore`] — the raw generator interface (`next_u32`/`next_u64`/
//!   `fill_bytes`).
//! * [`SeedableRng`] — seeding, including the SplitMix64-based
//!   [`SeedableRng::seed_from_u64`] (same expansion scheme as upstream rand,
//!   though exact output streams are not guaranteed to match).
//! * [`Rng`] — the ergonomic extension trait with `gen`, `gen_range` and
//!   `gen_bool`, blanket-implemented for every `RngCore`.
//!
//! Only the pieces the workspace actually exercises are implemented; ranges
//! are sampled with a simple modulo reduction, which is amply uniform for
//! synthetic-data generation and tests.

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A generator that can be instantiated from a fixed seed.
pub trait SeedableRng: Sized {
    type Seed: Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expand a `u64` into a full seed with SplitMix64 (upstream rand's
    /// scheme) and build the generator from it.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut x = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types that can be sampled uniformly over their full "standard" domain by
/// [`Rng::gen`]: `[0, 1)` for floats, the full range for integers, a fair
/// coin for `bool`.
pub trait StandardSample: Sized {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

macro_rules! standard_int {
    ($($t:ty => $via:ident),* $(,)?) => {$(
        impl StandardSample for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.$via() as $t
            }
        }
    )*};
}

standard_int!(
    u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64,
    usize => next_u64, i8 => next_u32, i16 => next_u32, i32 => next_u32,
    i64 => next_u64, isize => next_u64,
);

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_range {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let r = (rng.next_u64() as u128) % span;
                (self.start as i128 + r as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (s, e) = (*self.start(), *self.end());
                assert!(s <= e, "cannot sample from empty range");
                let span = (e as i128 - s as i128) as u128 + 1;
                let r = (rng.next_u64() as u128) % span;
                (s as i128 + r as i128) as $t
            }
        }
    )*};
}

int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let u = <$t as StandardSample>::sample_standard(rng);
                let v = self.start + (self.end - self.start) * u;
                // `start + span * u` can round up to `end` even though
                // u < 1; keep the half-open contract.
                if v >= self.end {
                    self.end.next_down().max(self.start)
                } else {
                    v
                }
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (s, e) = (*self.start(), *self.end());
                assert!(s <= e, "cannot sample from empty range");
                let u = <$t as StandardSample>::sample_standard(rng);
                s + (e - s) * u
            }
        }
    )*};
}

float_range!(f32, f64);

/// Ergonomic sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "p={p} outside [0, 1]");
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic generator for exercising the traits.
    struct SplitMix(u64);

    impl RngCore for SplitMix {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SplitMix(7);
        for _ in 0..1000 {
            let v = rng.gen_range(3u32..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(-2.5f64..9.5);
            assert!((-2.5..9.5).contains(&f));
            let i = rng.gen_range(0..=4usize);
            assert!(i <= 4);
            let neg = rng.gen_range(-10i64..-2);
            assert!((-10..-2).contains(&neg));
        }
    }

    #[test]
    fn float_range_stays_half_open_at_rounding_boundary() {
        /// Always emits all-ones, forcing the largest possible `u` in [0, 1),
        /// where `start + span * u` rounds up to `end`.
        struct MaxRng;
        impl RngCore for MaxRng {
            fn next_u32(&mut self) -> u32 {
                u32::MAX
            }
            fn next_u64(&mut self) -> u64 {
                u64::MAX
            }
        }
        let v = MaxRng.gen_range(1.0f64..2.0);
        assert!((1.0..2.0).contains(&v), "got {v}");
        let w = MaxRng.gen_range(-1.0f32..3.5);
        assert!((-1.0..3.5).contains(&w), "got {w}");
    }

    #[test]
    fn standard_floats_are_unit_interval() {
        let mut rng = SplitMix(42);
        for _ in 0..1000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
