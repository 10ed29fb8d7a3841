//! Offline stand-in for the `rand` crate (0.9-style API surface).
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the narrow slice of `rand` it actually uses: the [`RngCore`] /
//! [`Rng`] / [`SeedableRng`] traits, a deterministic [`rngs::StdRng`]
//! (xoshiro256++ seeded through SplitMix64), uniform `random` /
//! `random_range` sampling, slice shuffling and partial index sampling.
//!
//! Determinism is the only contract the workspace relies on: two RNGs
//! built from the same seed produce identical streams on every platform.
//! The streams do **not** match upstream `rand`'s `StdRng` (which is
//! ChaCha-based); they only need to agree with themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The core of a random number generator: a source of `u64`s.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits (upper half of [`next_u64`](Self::next_u64)).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value of a [`FromRandom`] type uniformly at random.
    fn random<T: FromRandom>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Samples uniformly from a range.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types that can be sampled uniformly from an RNG's raw bit stream.
pub trait FromRandom {
    /// Draws one value from `rng`.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! from_random_int {
    ($($t:ty),*) => {$(
        impl FromRandom for $t {
            fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
from_random_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl FromRandom for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl FromRandom for f64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRandom for f32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges that can be sampled uniformly.
pub trait SampleRange<T> {
    /// Draws one value of the range from `rng`.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (u128::from(rng.next_u64()) % span) as i128;
                (self.start as i128 + v) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let v = (u128::from(rng.next_u64()) % span) as i128;
                (start as i128 + v) as $t
            }
        }
    )*};
}
sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let u: $t = FromRandom::from_rng(rng);
                self.start + u * (self.end - self.start)
            }
        }
    )*};
}
sample_range_float!(f32, f64);

/// RNGs constructible from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// The seed byte array.
    type Seed: Default + AsMut<[u8]>;

    /// Builds the RNG from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the RNG by expanding a `u64` through SplitMix64.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic RNG: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let out = self.s[0]
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
            out
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut b = [0u8; 8];
                b.copy_from_slice(&seed[i * 8..i * 8 + 8]);
                *word = u64::from_le_bytes(b);
            }
            // An all-zero state would be a fixed point; nudge it.
            if s == [0; 4] {
                s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
            }
            StdRng { s }
        }
    }
}

/// Sequence helpers (`shuffle`, partial index sampling).
pub mod seq {
    use super::{Rng, RngCore};

    /// Shuffling for slices.
    pub trait SliceRandom {
        /// Fisher–Yates shuffles the slice in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }
    }

    /// Sampling distinct indices without replacement.
    pub mod index {
        use super::RngCore;

        /// The result of [`sample`]: distinct indices in `0..length`.
        #[derive(Debug, Clone)]
        pub struct IndexVec(Vec<usize>);

        impl IndexVec {
            /// Converts into a plain vector of indices.
            pub fn into_vec(self) -> Vec<usize> {
                self.0
            }

            /// Number of sampled indices.
            pub fn len(&self) -> usize {
                self.0.len()
            }

            /// Whether no indices were sampled.
            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }

            /// Iterates over the sampled indices.
            pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
                self.0.iter().copied()
            }
        }

        /// Samples `amount` distinct indices uniformly from `0..length`
        /// with a partial Fisher–Yates walk.
        pub fn sample<R: RngCore + ?Sized>(rng: &mut R, length: usize, amount: usize) -> IndexVec {
            let amount = amount.min(length);
            let mut pool: Vec<usize> = (0..length).collect();
            for i in 0..amount {
                let j = i + (rng.next_u64() % (length - i) as u64) as usize;
                pool.swap(i, j);
            }
            pool.truncate(amount);
            IndexVec(pool)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::{index, SliceRandom};
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn streams_are_deterministic() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let u: f64 = rng.random();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn a_unit_float_is_the_top_53_bits_of_one_draw() {
        // `caai-netem` compares those bits with `ceil(p · 2^53)` in place
        // of the float with `p`; that is the same test only while this holds.
        let (mut floats, mut words) = (StdRng::seed_from_u64(6), StdRng::seed_from_u64(6));
        for _ in 0..1000 {
            let k = words.next_u64() >> 11;
            let u: f64 = floats.random();
            assert_eq!(u.to_bits(), (k as f64 * 2f64.powi(-53)).to_bits());
            assert_eq!(u * 2f64.powi(53), k as f64, "scaling back is exact");
        }
        assert_eq!(floats.next_u64(), words.next_u64(), "one draw a float");
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = rng.random_range(3u32..17);
            assert!((3..17).contains(&v));
            let f = rng.random_range(-2.0f64..2.0);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<usize> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 100-element shuffle should move something");
    }

    #[test]
    fn index_sample_is_distinct_and_bounded() {
        let mut rng = StdRng::seed_from_u64(4);
        let idx = index::sample(&mut rng, 50, 7).into_vec();
        assert_eq!(idx.len(), 7);
        let mut uniq = idx.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 7);
        assert!(idx.iter().all(|&i| i < 50));
    }

    #[test]
    fn works_through_dyn_rngcore() {
        let mut rng = StdRng::seed_from_u64(5);
        let dyn_rng: &mut dyn super::RngCore = &mut rng;
        let mut v: Vec<usize> = (0..10).collect();
        v.shuffle(dyn_rng);
        let _ = index::sample(dyn_rng, 10, 3);
    }
}
