//! Seeded randomness: SplitMix64 seed derivation and per-salt streams.
//!
//! The derivation scheme is shared with `faultsim`'s per-channel RNGs (the
//! constants here are the canonical copy; `faultsim::seed` delegates to
//! them). Deriving a sub-seed mixes the master seed and a salt through the
//! SplitMix64 finalizer, so streams are statistically independent *and*
//! insensitive to how many draws the other streams make — the property
//! behind every same-seed ⇒ byte-identical-replay assertion in the repo.

use std::collections::HashMap;

/// SplitMix64 finalizer: one full avalanche step over `x`.
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives a sub-seed from a master seed and an index (channel salt, job
/// number, epoch, …). `derive(s, a) == derive(s, a)` always; collisions
/// across distinct `(seed, index)` pairs are as unlikely as SplitMix64
/// allows. Byte-compatible with `faultsim::seed::derive`.
pub fn derive(master: u64, index: u64) -> u64 {
    mix(mix(master) ^ mix(index.wrapping_mul(0xA24B_AED4_963E_E407)))
}

/// A SplitMix64 pseudo-random stream. Small, fast, and plenty for
/// simulation draws; layers that need a cryptographically stronger
/// generator (faultsim's `StdRng` channels) seed it from [`derive`](fn@derive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`. `hi` must exceed `lo`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi > lo, "empty range [{lo}, {hi})");
        lo + self.next_f64() * (hi - lo)
    }

    /// Uniform draw in `0..n` (`n` must be nonzero). Uses the widening-
    /// multiply trick; the tiny modulo bias is irrelevant for simulation.
    #[inline]
    pub fn range_u64(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A registry of independent per-salt streams over one master seed,
/// mirroring `faultsim`'s channel scheme: stream `salt` is seeded with
/// [`derive`](fn@derive)`(master, salt)` on first use and persists across calls.
#[derive(Debug, Clone)]
pub struct RngRegistry {
    master: u64,
    streams: HashMap<u64, SplitMix64>,
}

impl RngRegistry {
    /// A registry over `master`.
    pub fn new(master: u64) -> Self {
        Self {
            master,
            streams: HashMap::new(),
        }
    }

    /// The stream for `salt`, created on first use.
    pub fn stream(&mut self, salt: u64) -> &mut SplitMix64 {
        let master = self.master;
        self.streams
            .entry(salt)
            .or_insert_with(|| SplitMix64::new(derive(master, salt)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_stable_and_spreads() {
        assert_eq!(derive(7, 3), derive(7, 3));
        let seeds: Vec<u64> = (0..64).map(|i| derive(7, i)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "no collisions over small indices");
    }

    #[test]
    fn streams_are_independent_and_replayable() {
        let mut reg = RngRegistry::new(1);
        let a: Vec<u64> = (0..8).map(|_| reg.stream(10).next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| reg.stream(20).next_u64()).collect();
        assert_ne!(a, b);
        // Interleaved draws on another stream do not perturb a replay.
        let mut reg2 = RngRegistry::new(1);
        let a2: Vec<u64> = (0..8)
            .map(|_| {
                reg2.stream(20).next_u64();
                reg2.stream(10).next_u64()
            })
            .collect();
        assert_eq!(a, a2);
    }

    #[test]
    fn f64_draws_land_in_unit_interval() {
        let mut s = SplitMix64::new(42);
        for _ in 0..1000 {
            let x = s.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_u64_is_bounded() {
        let mut s = SplitMix64::new(9);
        for _ in 0..1000 {
            assert!(s.range_u64(13) < 13);
        }
    }
}
