//! Property tests for the recording hot path's two load-bearing tricks:
//! string interning (invisible in exports) and deterministic sampling (a
//! strict, replayable filter).

use autonomous_data_services::obs::{
    sample_keeps, DeploymentKind, Interner, Obs, Provenance, SampleConfig,
};
use proptest::prelude::*;

/// Maps a small integer to a short identifier-ish string, including empties
/// and separator-looking content that could confuse a sloppy hash. The
/// vendored proptest has no string strategies, so tests draw ranged ints
/// and project them through this table.
fn ident(n: u32) -> String {
    match n % 8 {
        0 => String::new(),
        1 => ".".to_string(),
        2 => "_".to_string(),
        3 => format!("id_{}", n / 8),
        4 => format!("metric.name.{}", n / 8),
        5 => format!("{}_{}", n / 8, n / 8),
        6 => "a".repeat((n as usize / 8) % 13),
        _ => format!("x{:x}", n),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// intern → resolve is the identity, equal strings share an id, and
    /// distinct strings never collide — regardless of insertion order.
    #[test]
    fn intern_resolve_round_trips(raw in proptest::collection::vec(0u32..50_000, 1..32)) {
        let strings: Vec<String> = raw.iter().map(|&n| ident(n)).collect();
        let mut interner = Interner::new();
        let ids: Vec<u32> = strings.iter().map(|s| interner.intern(s)).collect();
        for (s, &id) in strings.iter().zip(&ids) {
            prop_assert_eq!(interner.resolve(id), s.as_str());
        }
        for (i, a) in strings.iter().enumerate() {
            for (j, b) in strings.iter().enumerate() {
                prop_assert_eq!(ids[i] == ids[j], a == b);
            }
        }
        // Re-interning is stable and allocates nothing new.
        let len = interner.len();
        for (s, &id) in strings.iter().zip(&ids) {
            prop_assert_eq!(interner.intern(s), id);
        }
        prop_assert_eq!(interner.len(), len);
    }

    /// The exported registry is independent of intern order: applying one
    /// update per distinct metric key in two different orders exports the
    /// same canonical JSON, even though the interner assigned completely
    /// different ids underneath.
    #[test]
    fn metric_export_is_independent_of_intern_order(
        raw in proptest::collection::vec(0u32..50_000, 1..16),
        rotate in 0usize..16,
    ) {
        let mut names: Vec<String> = raw.iter().map(|&n| ident(n)).collect();
        names.sort();
        names.dedup();
        let mut rotated = names.clone();
        rotated.rotate_left(rotate % names.len());

        let record = |order: &[String]| {
            let obs = Obs::recording();
            for (i, name) in order.iter().enumerate() {
                obs.counter_add("props", name, &[("idx", "x")], 1 + i as u64 % 3);
                obs.counter_add("props", name, &[], 2);
            }
            obs
        };
        let a = record(&names);
        let b = record(&rotated);
        // Counter adds commute across keys, so only the per-key totals
        // differ with order — normalize by comparing the same multiset.
        let totals = |obs: &Obs, order: &[String]| -> Vec<(String, u64)> {
            let snap = obs.snapshot();
            let mut v: Vec<(String, u64)> = order
                .iter()
                .map(|n| (n.clone(), snap.metrics.counter("props", n, &[])))
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(totals(&a, &names), totals(&b, &rotated));
        // With identical per-key updates the whole export matches bytewise.
        let c = record(&names);
        prop_assert_eq!(a.export_json(), c.export_json());
    }

    /// Sampling is a pure function of (seed, id): the kept id set replays
    /// exactly, and different seeds are allowed to (and generally do) keep
    /// different sets.
    #[test]
    fn sampling_decisions_replay_exactly(seed in 0u64..u64::MAX, ratio in 0.0f64..=1.0) {
        let keep = |s: u64| -> Vec<u64> {
            (0..512u64).filter(|&id| sample_keeps(s, ratio, id)).collect()
        };
        prop_assert_eq!(keep(seed), keep(seed));
        let config = SampleConfig::new(seed, ratio);
        for id in 0..512u64 {
            prop_assert_eq!(config.keeps(id), sample_keeps(seed, ratio, id));
        }
    }

    /// A sampled trace is a strict filter of the full trace: every kept
    /// record is bit-identical to the full run's, nothing is rewritten, and
    /// deployments/metrics are never dropped.
    #[test]
    fn sampled_trace_is_strict_filter(seed in 0u64..u64::MAX, n in 16usize..128) {
        let drive = |obs: &Obs| {
            for i in 0..n {
                let t = i as f64 * 0.25;
                let s = obs.span_enter("props", "work", t);
                obs.event("props", "tick", t, &[("i", "v")]);
                obs.counter_add("props", "ticks", &[], 1);
                obs.record_decision(
                    "props",
                    "route",
                    &Provenance::new("m", 1, i as u64),
                    1.0,
                    Some(1.5),
                    "allow",
                    false,
                    1,
                    t,
                );
                if i % 5 == 0 {
                    let kind = DeploymentKind::Publish;
                    obs.record_deployment("props", kind, "m", i as u64, "drift", t);
                }
                obs.span_exit(s, t + 0.1);
            }
        };
        let full = Obs::recording();
        let sampled = Obs::recording_sampled(seed, 0.5);
        drive(&full);
        drive(&sampled);
        let full = full.snapshot();
        let sampled = sampled.snapshot();
        prop_assert!(sampled.spans.len() <= full.spans.len());
        prop_assert!(sampled.events.len() <= full.events.len());
        for s in &sampled.spans {
            prop_assert!(full.spans.contains(s), "sampled span not in full trace");
        }
        for e in &sampled.events {
            prop_assert!(full.events.contains(e), "sampled event not in full trace");
        }
        for d in &sampled.decisions {
            prop_assert!(full.decisions.contains(d), "sampled decision not in full trace");
        }
        prop_assert_eq!(full.decisions.len(), n);
        prop_assert_eq!(full.deployments.len(), n.div_ceil(5));
        prop_assert_eq!(&sampled.deployments, &full.deployments);
        prop_assert_eq!(&sampled.metrics, &full.metrics);
    }

    /// Ratio extremes: 1.0 keeps everything (bit-identical to an unsampled
    /// recorder), 0.0 drops every span/event but still keeps metrics.
    #[test]
    fn sampling_ratio_extremes(seed in 0u64..u64::MAX) {
        let drive = |obs: &Obs| {
            for i in 0..32usize {
                let s = obs.span_enter("props", "work", i as f64);
                obs.event("props", "tick", i as f64, &[]);
                obs.gauge_set("props", "depth", &[], i as f64);
                obs.span_exit(s, i as f64 + 0.5);
            }
        };
        let full = Obs::recording();
        let all = Obs::recording_sampled(seed, 1.0);
        let none = Obs::recording_sampled(seed, 0.0);
        drive(&full);
        drive(&all);
        drive(&none);
        prop_assert_eq!(all.export_json(), full.export_json());
        let none = none.snapshot();
        prop_assert!(none.spans.is_empty());
        prop_assert!(none.events.is_empty());
        prop_assert_eq!(&none.metrics, &full.snapshot().metrics);
    }
}
