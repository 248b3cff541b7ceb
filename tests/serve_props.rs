//! Property tests for the serving layer's prediction cache.
//!
//! Two invariants from ISSUE 5:
//! 1. **LRU watermark** — against a shadow exact-LRU model, a shard never
//!    evicts anything except its least-recently-touched entry, so the keys
//!    a shard holds are exactly the `per_shard_capacity` most recently
//!    touched keys that mapped to it.
//! 2. **Bitwise hits** — a gateway cache hit returns a value bitwise equal
//!    to what recomputing the prediction through the model would produce.

use autonomous_data_services::obs::Obs;
use autonomous_data_services::serve::{
    CacheKey, FnModel, Gateway, GatewayConfig, PredictionCache, Source,
};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, f64),
    Get(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Small digest space so shards fill and evict constantly.
        (0u64..24, -1e6f64..1e6).prop_map(|(d, v)| Op::Insert(d, v)),
        (0u64..24).prop_map(Op::Get),
    ]
}

fn key(digest: u64) -> CacheKey {
    CacheKey {
        model: digest % 3,
        version: 1 + digest % 2,
        digest,
    }
}

/// Shadow exact-LRU: per shard, keys most-recent-first plus their values.
struct ShadowShard {
    order: Vec<CacheKey>,
    values: std::collections::HashMap<CacheKey, f64>,
    capacity: usize,
}

impl ShadowShard {
    fn touch_front(&mut self, key: CacheKey) {
        self.order.retain(|k| *k != key);
        self.order.insert(0, key);
    }

    fn insert(&mut self, key: CacheKey, value: f64) {
        if !self.values.contains_key(&key) && self.order.len() >= self.capacity {
            let victim = self.order.pop().expect("full shard has a victim");
            self.values.remove(&victim);
        }
        self.values.insert(key, value);
        self.touch_front(key);
    }

    fn get(&mut self, key: CacheKey) -> Option<f64> {
        let hit = self.values.get(&key).copied();
        if hit.is_some() {
            self.touch_front(key);
        }
        hit
    }
}

proptest! {
    /// Replaying any op sequence against the real cache and the shadow LRU
    /// leaves every shard holding exactly the shadow's keys, in the
    /// shadow's recency order, with bitwise-identical values.
    #[test]
    fn eviction_respects_the_lru_watermark(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let cache = PredictionCache::new(8, 2);
        let mut shadow: Vec<ShadowShard> = (0..cache.shard_count())
            .map(|_| ShadowShard {
                order: Vec::new(),
                values: std::collections::HashMap::new(),
                capacity: cache.per_shard_capacity(),
            })
            .collect();

        for op in &ops {
            match *op {
                Op::Insert(d, v) => {
                    let k = key(d);
                    cache.insert(k, v);
                    shadow[cache.shard_index(&k)].insert(k, v);
                }
                Op::Get(d) => {
                    let k = key(d);
                    let real = cache.get(&k);
                    let expected = shadow[cache.shard_index(&k)].get(k);
                    prop_assert_eq!(real.map(f64::to_bits), expected.map(f64::to_bits));
                }
            }
        }

        for (s, shadow_shard) in shadow.iter().enumerate() {
            let real_order = cache.shard_keys_by_recency(s);
            prop_assert!(
                real_order.len() <= cache.per_shard_capacity(),
                "shard {} holds {} entries over its budget of {}",
                s, real_order.len(), cache.per_shard_capacity()
            );
            prop_assert_eq!(
                &real_order, &shadow_shard.order,
                "shard {} diverged from the exact-LRU shadow", s
            );
            for k in &real_order {
                prop_assert_eq!(
                    cache.peek(k).map(f64::to_bits),
                    shadow_shard.values.get(k).copied().map(f64::to_bits)
                );
            }
        }
    }

    /// Every gateway cache hit is bitwise equal to recomputing the
    /// prediction through the model directly.
    #[test]
    fn cache_hits_are_bitwise_equal_to_recomputation(
        picks in proptest::collection::vec((0usize..12, 0u64..4), 1..150)
    ) {
        fn model_fn(f: &[f64]) -> f64 {
            (f[0] * 1.7).sin() * f[1].exp() + f[0] / (f[1].abs() + 0.25)
        }

        let gateway = Gateway::with_obs(GatewayConfig::standard(), Obs::disabled());
        let handle = gateway.register("props/model", |f: &[f64]| f[0]);
        gateway
            .publish(handle, Arc::new(FnModel(|f: &[f64]| model_fn(f))), 0.0)
            .expect("registered");

        let pool: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![i as f64 * 0.37 - 2.0, (i % 5) as f64 * 0.81 - 1.5])
            .collect();

        let mut hits = 0u64;
        for (t, &(i, _salt)) in picks.iter().enumerate() {
            let features = &pool[i];
            let p = gateway
                .predict(handle, features, t as f64)
                .expect("registered");
            prop_assert!(!p.source.is_fallback());
            if p.source == Source::Cache {
                hits += 1;
            }
            // Model answers and cache hits alike must reproduce the model
            // function bit-for-bit.
            prop_assert_eq!(p.value.to_bits(), model_fn(features).to_bits());
        }
        prop_assert_eq!(hits, gateway.stats().cache_hits);
    }
}
