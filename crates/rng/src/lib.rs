//! `rotom-rng` — the workspace's self-contained random number generator.
//!
//! This build environment has no registry access, so the workspace cannot
//! depend on the `rand` crate; this crate provides the minimal surface the
//! repository actually uses, with a compatible API shape:
//!
//! * [`rngs::StdRng`] — the deterministic generator used everywhere
//!   (xoshiro256++ core, SplitMix64 seeding);
//! * [`SeedableRng`] — `seed_from_u64` / `from_seed` construction;
//! * [`RngExt`] — `random_range`, `random_bool`, `shuffle`, `choose`, raw
//!   word draws.
//!
//! Determinism is a hard requirement of the repository (seeded experiments,
//! bit-identical parallel/serial paths), so the algorithms here are fixed
//! and documented: changing them is a breaking change to every recorded
//! experiment.
//!
//! # Parallel streams
//!
//! [`split_seed`] derives statistically independent per-item seeds from a
//! base seed, which is how the parallel augmentation and batch-scoring paths
//! stay bit-identical to their serial counterparts at any thread count: each
//! item gets `StdRng::seed_from_u64(split_seed(base, i))` regardless of
//! which worker processes it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// SplitMix64 step: advances `state` and returns the next output.
///
/// Used for seeding and for deriving per-item seeds; it is a bijective
/// mixer, so distinct inputs never collide.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derive a per-item seed from a base seed: mixes `base` and `index`
/// through SplitMix64 so consecutive indices yield uncorrelated streams.
#[inline]
pub fn split_seed(base: u64, index: u64) -> u64 {
    let mut s = base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let a = splitmix64(&mut s);
    splitmix64(&mut s) ^ a.rotate_left(17)
}

/// FNV-1a 64-bit hash of `bytes` (the reference offset basis and prime).
/// A fixed algorithm, not a randomized one: checkpoint checksums, score
/// cache keys, the InvDA cache seeds and the blocking index's shard and
/// minhash hashes all depend on it. `fnv1a64(&[])` is the offset basis,
/// the start value for [`fnv1a64_extend`].
///
/// `#[inline]` so the blocking probe, which hashes every token, inlines it
/// across crates.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a 64-bit hash `h` over more `bytes`:
/// `fnv1a64_extend(fnv1a64(a), b) == fnv1a64(a ++ b)`.
#[inline]
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A source of raw random words. [`RngExt`] builds every higher-level draw
/// on top of this single method.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Deterministic construction from seeds.
pub trait SeedableRng: Sized {
    /// Construct from a 32-byte seed.
    fn from_seed(seed: [u8; 32]) -> Self;

    /// Construct from a single `u64`, expanded through SplitMix64.
    fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        let mut bytes = [0u8; 32];
        for chunk in bytes.chunks_exact_mut(8) {
            chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
        }
        Self::from_seed(bytes)
    }
}

/// Ranges that [`RngExt::random_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range. Panics if the range is empty.
    fn sample(self, rng: &mut dyn RngCore) -> T;
}

/// Draw a `u64` uniformly below `bound` (Lemire's multiply-shift method,
/// unbiased). Panics if `bound` is zero.
fn bounded_u64(rng: &mut dyn RngCore, bound: u64) -> u64 {
    assert!(bound > 0, "cannot sample from an empty range");
    let mut x = rng.next_u64();
    let mut m = (x as u128) * (bound as u128);
    let mut low = m as u64;
    if low < bound {
        let threshold = bound.wrapping_neg() % bound;
        while low < threshold {
            x = rng.next_u64();
            m = (x as u128) * (bound as u128);
            low = m as u64;
        }
    }
    (m >> 64) as u64
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "cannot sample from an empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(bounded_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from an empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    // Full-width range: every word is a valid draw.
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(bounded_u64(rng, span as u64) as $t)
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty => $unit:ident),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "cannot sample from an empty range");
                let u = $unit(rng);
                let v = self.start + u * (self.end - self.start);
                // Guard against rounding landing exactly on the excluded end.
                if v >= self.end { self.start } else { v }
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from an empty range");
                let u = $unit(rng);
                (start + u * (end - start)).min(end)
            }
        }
    )*};
}

/// Uniform `f64` in `[0, 1)` from the top 53 bits of one word.
#[inline]
fn unit_f64(rng: &mut dyn RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform `f32` in `[0, 1)` from the top 24 bits of one word.
#[inline]
fn unit_f32(rng: &mut dyn RngCore) -> f32 {
    (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
}

float_sample_range!(f32 => unit_f32, f64 => unit_f64);

/// Convenience draws layered over [`RngCore`]; implemented for every
/// generator automatically.
pub trait RngExt: RngCore {
    /// Uniform draw from an integer or float range (`a..b` or `a..=b`).
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        unit_f64(self) < p
    }

    /// Uniform `f64` in `[0, 1)`.
    fn random_f64(&mut self) -> f64
    where
        Self: Sized,
    {
        unit_f64(self)
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..items.len()).rev() {
            let j = bounded_u64(self, i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Uniformly chosen element, or `None` when empty.
    fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T>
    where
        Self: Sized,
    {
        if items.is_empty() {
            None
        } else {
            Some(&items[bounded_u64(self, items.len() as u64) as usize])
        }
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

/// Generator implementations.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ (Blackman & Vigna),
    /// a small, fast, well-tested non-cryptographic PRNG with 256 bits of
    /// state and a 2²⁵⁶−1 period.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        /// Snapshot the full 256-bit generator state. Together with
        /// [`from_state`](Self::from_state) this makes RNG streams
        /// checkpointable: a resumed stream continues bit-identically from
        /// where the snapshot was taken.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuild a generator from a [`state`](Self::state) snapshot —
        /// the exact inverse, with no remixing, so
        /// `StdRng::from_state(r.state())` produces the same stream as `r`.
        /// (An all-zero state is unreachable from seeding and is remapped to
        /// a fixed non-zero state to preserve the xoshiro invariant.)
        pub fn from_state(state: [u64; 4]) -> StdRng {
            if state == [0; 4] {
                let mut st = 0xdead_beef_cafe_f00du64;
                let mut s = [0u64; 4];
                for w in &mut s {
                    *w = splitmix64(&mut st);
                }
                return Self { s };
            }
            Self { s: state }
        }
    }

    impl SeedableRng for StdRng {
        fn from_seed(seed: [u8; 32]) -> Self {
            let mut s = [0u64; 4];
            for (w, chunk) in s.iter_mut().zip(seed.chunks_exact(8)) {
                *w = u64::from_le_bytes(chunk.try_into().unwrap());
            }
            // An all-zero state is a fixed point of xoshiro; remix.
            if s == [0; 4] {
                let mut st = 0xdead_beef_cafe_f00du64;
                for w in &mut s {
                    *w = splitmix64(&mut st);
                }
            }
            Self { s }
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
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn int_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.random_range(3..17usize);
            assert!((3..17).contains(&v));
            let w = rng.random_range(-5..=5i64);
            assert!((-5..=5).contains(&w));
        }
    }

    #[test]
    fn int_range_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.random_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v: f32 = rng.random_range(f32::EPSILON..1.0);
            assert!((f32::EPSILON..1.0).contains(&v), "{v}");
            let w: f64 = rng.random_range(0.0..1.0);
            assert!((0.0..1.0).contains(&w));
            let x: f32 = rng.random_range(-2.0f32..=2.0);
            assert!((-2.0..=2.0).contains(&x));
        }
    }

    #[test]
    fn float_range_mean_is_centered() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.random_range(0.0..1.0f64)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn random_bool_respects_probability() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.random_bool(0.25)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
        assert!((0..100).all(|_| !rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.1)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }

    #[test]
    fn shuffle_draws_match_the_random_range_loop() {
        // Callers replaced hand-written `random_range(0..=i)` Fisher–Yates
        // loops with `shuffle`; the permutation and the draws consumed must
        // be the same.
        for seed in [0u64, 1, 7, 0x9a17, u64::MAX] {
            for len in [0usize, 1, 2, 3, 10, 64, 257] {
                let mut a = StdRng::seed_from_u64(seed);
                let mut b = a.clone();
                let mut shuffled: Vec<usize> = (0..len).collect();
                a.shuffle(&mut shuffled);
                let mut looped: Vec<usize> = (0..len).collect();
                for i in (1..looped.len()).rev() {
                    let j = b.random_range(0..=i);
                    looped.swap(i, j);
                }
                assert_eq!(shuffled, looped, "seed {seed} len {len}");
                assert_eq!(a.next_u64(), b.next_u64(), "seed {seed} len {len}");
            }
        }
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64_extend(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn split_seed_streams_are_distinct() {
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(split_seed(9, 0));
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(split_seed(9, 1));
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
        // And stable: recomputing gives the same stream.
        let a2: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(split_seed(9, 0));
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, a2);
    }

    #[test]
    fn choose_covers_and_handles_empty() {
        let mut rng = StdRng::seed_from_u64(7);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[*rng.choose(&items).unwrap() - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn state_roundtrip_continues_stream_bit_identically() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..17 {
            rng.next_u64();
        }
        let snapshot = rng.state();
        let tail: Vec<u64> = (0..32).map(|_| rng.next_u64()).collect();
        let mut resumed = StdRng::from_state(snapshot);
        let resumed_tail: Vec<u64> = (0..32).map(|_| resumed.next_u64()).collect();
        assert_eq!(tail, resumed_tail);
    }

    #[test]
    fn from_state_remaps_all_zero_state() {
        let mut rng = StdRng::from_state([0; 4]);
        // An all-zero xoshiro state would emit zeros forever; the remap must
        // produce a working stream.
        let words: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert!(words.iter().any(|&w| w != 0));
    }
}
