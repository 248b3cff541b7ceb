//! Deterministic per-seed trace sampling.
//!
//! Fleet-scale runs cannot always afford a full flight record. Sampling
//! here is *deterministic*: whether a record is kept is a pure function of
//! `(seed, record id)` — a seeded splitmix64 hash compared against a
//! threshold derived from the keep ratio. Two replays of the same seeded
//! scenario with the same sample seed therefore keep exactly the same
//! records and export byte-identical traces, and the sampled trace is a
//! strict filter of the full trace: kept records are bit-for-bit the
//! records the unsampled run would have produced (sequence numbers and
//! span ids included — dropped records leave gaps, never renumbering).
//!
//! Which id a record samples by: spans use their
//! [`SpanId`](crate::span::SpanId), events and decisions their sequence
//! number.
//! Deployment records and metrics are never sampled out — deployments are
//! rare and audit-critical, metrics are aggregates whose cost does not
//! grow with trace length.

/// Sampling configuration: a seed and the fraction of records to keep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleConfig {
    /// Seed mixed into every keep/drop draw.
    pub seed: u64,
    /// Fraction of records kept, clamped to `[0, 1]`. `1.0` keeps
    /// everything (equivalent to no sampler), `0.0` drops every sampled
    /// record kind.
    pub keep_ratio: f64,
}

impl SampleConfig {
    /// Builds a config.
    pub fn new(seed: u64, keep_ratio: f64) -> Self {
        Self { seed, keep_ratio }
    }

    /// Whether the record with id `id` is kept under this config.
    pub fn keeps(&self, id: u64) -> bool {
        sample_keeps(self.seed, self.keep_ratio, id)
    }
}

/// splitmix64 finalizer: a fast, well-mixed 64-bit permutation.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Pure keep/drop decision: a seeded hash of `id` compared against the
/// keep-ratio threshold. The sampled id set is a pure function of
/// `(seed, keep_ratio)` — no global state, no record content.
pub fn sample_keeps(seed: u64, keep_ratio: f64, id: u64) -> bool {
    if keep_ratio >= 1.0 {
        return true;
    }
    if keep_ratio <= 0.0 {
        return false;
    }
    let threshold = (keep_ratio * u64::MAX as f64) as u64;
    mix(seed ^ mix(id)) <= threshold
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_is_pure_and_seed_sensitive() {
        for id in 0..256u64 {
            assert_eq!(
                sample_keeps(7, 0.5, id),
                sample_keeps(7, 0.5, id),
                "same (seed, id) must always agree"
            );
        }
        let a: Vec<bool> = (0..256).map(|id| sample_keeps(7, 0.5, id)).collect();
        let b: Vec<bool> = (0..256).map(|id| sample_keeps(8, 0.5, id)).collect();
        assert_ne!(a, b, "different seeds should keep different id sets");
    }

    #[test]
    fn extreme_ratios_keep_all_or_none() {
        for id in 0..64u64 {
            assert!(sample_keeps(1, 1.0, id));
            assert!(sample_keeps(1, 1.5, id));
            assert!(!sample_keeps(1, 0.0, id));
            assert!(!sample_keeps(1, -0.5, id));
        }
    }

    #[test]
    fn keep_rate_tracks_ratio_roughly() {
        let kept = (0..10_000u64)
            .filter(|&id| sample_keeps(42, 0.25, id))
            .count();
        assert!((2_000..3_000).contains(&kept), "kept {kept} of 10000");
    }
}
