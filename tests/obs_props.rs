//! Property tests for the recording hot path's load-bearing trick, string
//! interning (invisible in exports), and for incremental snapshots (deltas
//! that partition the records, with every span's id its position).

use autonomous_data_services::obs::{
    DeploymentKind, Interner, MetricsRegistry, Obs, Provenance, SpanId, Trace, TraceCursor,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

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

/// Record counts per kind, in `Trace` field order.
fn lens(t: &Trace) -> [usize; 4] {
    [
        t.spans.len(),
        t.events.len(),
        t.decisions.len(),
        t.deployments.len(),
    ]
}

/// The delta `snapshot_since` must return, written out from a full
/// snapshot taken at the same instant: every record vector split off at
/// the counts `seen` before the previous cut, and no metrics.
fn expected_delta(mut full: Trace, seen: [usize; 4]) -> Trace {
    let at = |i: usize, len: usize| seen[i].min(len);
    Trace {
        spans: full.spans.split_off(at(0, full.spans.len())),
        events: full.events.split_off(at(1, full.events.len())),
        decisions: full.decisions.split_off(at(2, full.decisions.len())),
        deployments: full.deployments.split_off(at(3, full.deployments.len())),
        metrics: MetricsRegistry::default(),
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

    /// `snapshot_since` deltas partition the recording: each equals the
    /// full snapshot at that instant sliced from the previous cut, carries
    /// no metrics, and a span still open at a cut is not reported again
    /// when it closes. Together the deltas hold every record exactly once,
    /// and every span's id is its position in the full snapshot.
    #[test]
    fn snapshot_since_deltas_partition_the_records(
        ops in proptest::collection::vec((0u32..7, 0u32..64, 0u32..64), 1..96),
    ) {
        let obs = Obs::recording();
        let mut cursor = TraceCursor::default();
        let mut seen = [0usize; 4];
        let mut open: Vec<SpanId> = Vec::new();
        let mut reported: BTreeSet<u64> = BTreeSet::new();
        let mut joined = Trace::default();
        let mut issued = [0usize; 4];
        let mut cut = |obs: &Obs, cursor: &mut TraceCursor, seen: &mut [usize; 4]| {
            let full = obs.snapshot();
            let now = lens(&full);
            let delta = obs.snapshot_since(cursor).resolve();
            prop_assert_eq!(&delta, &expected_delta(full, *seen));
            prop_assert!(delta.metrics.metrics.is_empty(), "a delta carries no metrics");
            for s in &delta.spans {
                prop_assert!(reported.insert(s.id.0), "span {} reported twice", s.id.0);
            }
            joined.spans.extend(delta.spans);
            joined.events.extend(delta.events);
            joined.decisions.extend(delta.decisions);
            joined.deployments.extend(delta.deployments);
            *seen = now;
            Ok(())
        };
        for (step, &(kind, a, b)) in ops.iter().enumerate() {
            let t = step as f64 * 0.5;
            match kind {
                0 => {
                    open.push(obs.span_enter(&ident(a), &ident(b), t));
                    issued[0] += 1;
                }
                1 if !open.is_empty() => {
                    // Exits any open span, not only the innermost: spans
                    // opened before a cut close after it.
                    let id = open.remove(a as usize % open.len());
                    obs.span_exit(id, t + 0.25);
                }
                2 => {
                    let owned = [("k".to_string(), ident(a)), (ident(b), "v".to_string())];
                    let fields: Vec<(&str, &str)> = owned[..b as usize % 3]
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .collect();
                    obs.event("props", &ident(a), t, &fields);
                    issued[1] += 1;
                }
                3 => {
                    obs.record_decision(
                        "props",
                        &ident(a),
                        &Provenance::new("m", u64::from(b), u64::from(a)),
                        f64::from(a),
                        (b % 2 == 0).then_some(f64::from(b)),
                        "allow",
                        a % 3 == 0,
                        u64::from(b),
                        t,
                    );
                    issued[2] += 1;
                }
                4 => {
                    let kind = [DeploymentKind::Publish, DeploymentKind::Rollback][a as usize % 2];
                    obs.record_deployment("props", kind, &ident(a), u64::from(b), "drift", t);
                    issued[3] += 1;
                }
                5 => obs.counter_add("props", &ident(a), &[("l", "x")], u64::from(b)),
                _ => cut(&obs, &mut cursor, &mut seen)?,
            }
        }
        for id in open.drain(..).rev() {
            obs.span_exit(id, 1e3);
        }
        cut(&obs, &mut cursor, &mut seen)?;
        // One more cut with nothing new is empty.
        prop_assert_eq!(obs.snapshot_since(&mut cursor).resolve(), Trace::default());

        // Exhaustive and in record order: the deltas rebuild the final
        // snapshot's records, except span ends that moved after their cut.
        let full = obs.snapshot();
        prop_assert_eq!(&joined.events, &full.events);
        prop_assert_eq!(&joined.decisions, &full.decisions);
        prop_assert_eq!(&joined.deployments, &full.deployments);
        let ids = |t: &Trace| t.spans.iter().map(|s| s.id).collect::<Vec<_>>();
        prop_assert_eq!(ids(&joined), ids(&full));
        // Against what was issued: every record.
        prop_assert_eq!(lens(&full), issued);
        // A span's id is its position, and its parent was entered before it.
        for (position, s) in full.spans.iter().enumerate() {
            prop_assert_eq!(s.id, SpanId(position as u64));
            if let Some(parent) = s.parent {
                prop_assert!(parent.0 < s.id.0, "span {} has parent {}", s.id.0, parent.0);
            }
        }
    }
}
