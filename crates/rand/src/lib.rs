//! Offline stand-in for the `rand` crate (0.9-style API).
//!
//! The build container for this repository has no crates.io access, so the
//! workspace vendors the *small* slice of `rand` it actually uses:
//! [`Rng::random`], [`Rng::random_range`], [`SeedableRng::seed_from_u64`],
//! [`rngs::StdRng`], and [`seq::SliceRandom::shuffle`]. The generator is
//! xoshiro256++ seeded through SplitMix64 — deterministic for a given seed,
//! statistically solid for simulation work, and explicitly **not** a CSPRNG
//! (neither is the real `StdRng` contract for reproducible seeding).
//!
//! Beyond `rand`'s API, the crate holds the workspace's one stream
//! deriver, [`derive_seed`], and its one 53-bit unit map, [`unit_f64`]:
//! every per-board, per-trial and per-operation seed derives through the
//! first, and every probability draw from a derived seed goes through the
//! second, the same map `StdRng`'s `f64` sample uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// SplitMix64's increment, the 64-bit golden ratio.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's output function: a bijective avalanche of one word.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of stream `stream` under `base`: SplitMix64's output function
/// applied to `base ^ stream·γ`. Every `(base, stream)` pair yields an
/// independent seed that depends on nothing else, so a job, trial or
/// operation draws the same stream whichever worker thread runs it.
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    mix64(base ^ stream.wrapping_mul(GOLDEN_GAMMA))
}

/// Map 64 random bits onto `[0, 1)` through their top 53 (one `f64`
/// mantissa), as `Rng::random::<f64>()` does.
pub fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Low-level entropy source: everything else is derived from `next_u64`.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from an RNG (the `rand` crate's
/// `StandardUniform` distribution, folded into a single trait).
pub trait Standard: Sized {
    /// Draw a uniform value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges that [`Rng::random_range`] accepts.
pub trait SampleRange<T> {
    /// Sample a value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty, matching `rand`'s contract.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = u128::from(rng.next_u64()) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = u128::from(rng.next_u64()) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}
impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The user-facing random-value API, auto-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform value of any [`Standard`] type (`f64` in `[0,1)`, full range
    /// for integers).
    fn random<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Uniform value in `range` (half-open or inclusive).
    fn random_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        let v: f64 = Standard::sample(self);
        v < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable construction, `rand`-style.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed (via SplitMix64 expansion).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators.
pub mod rngs {
    use super::{mix64, RngCore, SeedableRng, GOLDEN_GAMMA};

    /// The workspace's standard generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        /// The first four outputs of a SplitMix64 sequence started at
        /// `seed`.
        fn seed_from_u64(seed: u64) -> Self {
            let word = |i: u64| mix64(seed.wrapping_add(i.wrapping_mul(GOLDEN_GAMMA)));
            StdRng {
                s: [word(1), word(2), word(3), word(4)],
            }
        }
    }

    impl StdRng {
        /// The raw xoshiro256++ state words, for checkpointing.
        ///
        /// Together with [`StdRng::from_state`] this makes the generator
        /// snapshot-able: a restored generator continues the exact sequence
        /// the saved one would have produced.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuild a generator from state words captured by [`StdRng::state`].
        pub fn from_state(s: [u64; 4]) -> Self {
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
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

/// Sequence-related helpers.
pub mod seq {
    use super::{Rng, RngCore};

    /// Shuffling for slices.
    pub trait SliceRandom {
        /// Uniform Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{derive_seed, unit_f64, Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.random()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.random()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2000 {
            let v: u8 = rng.random_range(18..=25);
            assert!((18..=25).contains(&v));
            let w: usize = rng.random_range(0..3);
            assert!(w < 3);
            let s: i16 = rng.random_range(-2048i16..=2047);
            assert!((-2048..=2047).contains(&s));
            let f: f64 = rng.random();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn state_round_trip_continues_the_sequence() {
        let mut a = StdRng::seed_from_u64(42);
        for _ in 0..5 {
            let _: u64 = a.random();
        }
        let mut b = StdRng::from_state(a.state());
        let xs: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_eq!(xs, ys, "restored generator must continue the sequence");
    }

    /// The stream deriver, the seeding and the unit map are pinned to
    /// values computed before they were folded into one implementation:
    /// every per-board seed of every recorded campaign goes through them.
    #[test]
    fn derivation_matches_known_answers() {
        let kat: [(u64, u64, u64); 6] = [
            (0, 1, 0xe220_a839_7b1d_cdaf),
            (1, 0, 0x5692_161d_100b_05e5),
            (7, 3, 0xe831_3fe1_d735_0611),
            (0xdead_beef, 1 << 62, 0x146a_1fb7_16a0_3420),
            (u64::MAX, (1 << 63) | 5, 0xa2c5_a586_b201_9380),
            (42, 1 << 61, 0xaf54_6520_c5fa_cd7c),
        ];
        for (base, stream, seed) in kat {
            assert_eq!(derive_seed(base, stream), seed, "({base:#x}, {stream:#x})");
        }
        assert_eq!(unit_f64(derive_seed(7, 3)), 0.9070014883393078);
        let mut rng = StdRng::seed_from_u64(42);
        assert_eq!(
            rng.state(),
            [
                0xbdd7_3226_2feb_6e95,
                0x28ef_e333_b266_f103,
                0x4752_6757_130f_9f52,
                0x581c_e1ff_0e4a_e394
            ]
        );
        assert_eq!(rng.random::<f64>(), 0.8143051451229099);
    }

    #[test]
    fn shuffle_is_a_permutation_and_seed_sensitive() {
        let base: Vec<usize> = (0..32).collect();
        let mut a = base.clone();
        let mut b = base.clone();
        a.shuffle(&mut StdRng::seed_from_u64(1));
        b.shuffle(&mut StdRng::seed_from_u64(2));
        let mut sa = a.clone();
        sa.sort_unstable();
        assert_eq!(sa, base, "shuffle must be a permutation");
        assert_ne!(a, base, "32 elements virtually never shuffle to identity");
        assert_ne!(a, b, "different seeds give different orders");
    }
}
