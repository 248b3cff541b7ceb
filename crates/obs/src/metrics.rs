//! Metrics registry: counters, gauges and fixed-bucket histograms keyed by
//! `(component, name, labels)`.
//!
//! Keys live in a `BTreeMap` with sorted label sets, so iteration order —
//! and therefore every export — is deterministic regardless of the order in
//! which instruments were touched.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Fully-qualified metric identity.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MetricKey {
    /// Owning subsystem (e.g. `engine.exec`).
    pub component: String,
    /// Metric name (e.g. `stages_executed`).
    pub name: String,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key with its labels sorted into canonical order.
    pub fn new(component: &str, name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            component: component.to_string(),
            name: name.to_string(),
            labels,
        }
    }
}

/// A fixed-bucket histogram.
///
/// `counts[i]` counts observations `<= bounds[i]`; the final slot counts the
/// overflow (`> bounds.last()`). Because each observation lands in exactly
/// one bucket and merging adds bucket counts, the merged histogram of any
/// partition of a sample set is independent of partition order — the
/// permutation invariance the determinism suite asserts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Ascending upper bucket bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; `len == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total observations.
    pub count: u64,
}

impl Histogram {
    /// Creates an empty histogram over ascending `bounds`.
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Default latency-style bounds (simulated seconds), exponential from
    /// 1ms to ~17 minutes.
    pub fn default_bounds() -> Vec<f64> {
        (0..11).map(|i| 0.001 * 4.0f64.powi(i)).collect()
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Adds another histogram's counts into this one. Returns `false`
    /// (leaving `self` untouched) when the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) -> bool {
        if self.bounds != other.bounds {
            return false;
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum += other.sum;
        self.count += other.count;
        true
    }
}

/// One metric's current value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// Last-written measurement.
    Gauge(f64),
    /// Fixed-bucket distribution.
    Histogram(Histogram),
}

/// The registry: every instrument the recorder has touched.
///
/// Serialized as a list of `[key, value]` entries in canonical key order
/// (JSON maps cannot have structured keys).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRegistry {
    /// Instruments in canonical (sorted-key) order.
    pub metrics: BTreeMap<MetricKey, MetricValue>,
}

impl Serialize for MetricsRegistry {
    fn to_value(&self) -> serde::Value {
        serde::Value::Seq(
            self.metrics
                .iter()
                .map(|(k, v)| serde::Value::Seq(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl Deserialize for MetricsRegistry {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let entries: Vec<(MetricKey, MetricValue)> = Vec::from_value(v)?;
        Ok(Self {
            metrics: entries.into_iter().collect(),
        })
    }
}

impl MetricsRegistry {
    /// Adds `delta` to a counter, creating it at zero first.
    pub fn counter_add(&mut self, key: MetricKey, delta: u64) {
        match self.metrics.entry(key).or_insert(MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c += delta,
            _ => debug_assert!(false, "metric kind mismatch: expected counter"),
        }
    }

    /// Sets a gauge.
    pub fn gauge_set(&mut self, key: MetricKey, value: f64) {
        self.metrics.insert(key, MetricValue::Gauge(value));
    }

    /// Observes into a histogram, creating it with `bounds` on first touch.
    pub fn histogram_observe(&mut self, key: MetricKey, bounds: &[f64], value: f64) {
        match self
            .metrics
            .entry(key)
            .or_insert_with(|| MetricValue::Histogram(Histogram::new(bounds)))
        {
            MetricValue::Histogram(h) => h.observe(value),
            _ => debug_assert!(false, "metric kind mismatch: expected histogram"),
        }
    }

    /// Looks up a counter's value (0 when absent).
    pub fn counter(&self, component: &str, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.metrics.get(&MetricKey::new(component, name, labels)) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Looks up a gauge's value.
    pub fn gauge(&self, component: &str, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.metrics.get(&MetricKey::new(component, name, labels)) {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Looks up a histogram.
    pub fn histogram(
        &self,
        component: &str,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<&Histogram> {
        match self.metrics.get(&MetricKey::new(component, name, labels)) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_order_is_canonicalized() {
        let a = MetricKey::new("c", "n", &[("b", "2"), ("a", "1")]);
        let b = MetricKey::new("c", "n", &[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.observe(0.5);
        h.observe(1.0); // inclusive upper bound
        h.observe(5.0);
        h.observe(100.0);
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.count, 4);
        assert!((h.sum - 106.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_requires_matching_bounds() {
        let mut a = Histogram::new(&[1.0]);
        let mut b = Histogram::new(&[1.0]);
        a.observe(0.5);
        b.observe(2.0);
        assert!(a.merge(&b));
        assert_eq!(a.counts, vec![1, 1]);
        let other = Histogram::new(&[2.0]);
        assert!(!a.merge(&other));
    }

    #[test]
    fn registry_counters_accumulate() {
        let mut r = MetricsRegistry::default();
        let key = || MetricKey::new("engine", "stages", &[("kind", "exec")]);
        r.counter_add(key(), 2);
        r.counter_add(key(), 3);
        assert_eq!(r.counter("engine", "stages", &[("kind", "exec")]), 5);
        assert_eq!(r.counter("engine", "stages", &[]), 0);
    }
}
