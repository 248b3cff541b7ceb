//! Property tests for the watchtower analyses.
//!
//! - The critical path can never claim more simulated time than the trace's
//!   envelope, and never less than the longest single span.
//! - Incident reconstruction is a function of record *contents*, not of the
//!   order the trace's vectors happen to hold them in.
//! - The SLO engine's health signal, read online after every delta, is
//!   bit-identical to the one derived from its full report.

use autonomous_data_services::obs::{DeploymentKind, Obs, Provenance, SpanId, Trace, TraceCursor};
use autonomous_data_services::serve::HealthSignal;
use autonomous_data_services::watchtower::{
    critical_path, reconstruct, to_canonical_json, SloEngine, SloReport, SloSpec,
};
use proptest::prelude::*;

/// A random span forest: each span picks an earlier span as parent (or
/// none), with start/end drawn inside a bounded tick range.
fn arb_trace_spans() -> impl Strategy<Value = Trace> {
    proptest::collection::vec((0u64..64, 0u64..64, 0u64..4, 0u64..3), 1..24).prop_map(|raw| {
        let obs = Obs::recording();
        let mut ids: Vec<SpanId> = Vec::new();
        let mut open: Vec<(SpanId, f64)> = Vec::new();
        for (a, b, parent_sel, component_sel) in raw {
            let start = a.min(b) as f64;
            let end = a.max(b) as f64;
            let component = ["engine.exec", "serve.gateway", "infra.sim"][component_sel as usize];
            // The recorder nests by stack; to exercise arbitrary parent
            // links (including none), close everything not on the chosen
            // ancestry path first.
            let keep = if ids.is_empty() {
                0
            } else {
                (parent_sel as usize) % (open.len() + 1)
            };
            while open.len() > keep {
                let (id, at) = open.pop().unwrap();
                obs.span_exit(id, at);
            }
            let id = obs.span_enter(component, "op", start);
            ids.push(id);
            open.push((id, end));
        }
        while let Some((id, at)) = open.pop() {
            obs.span_exit(id, at);
        }
        obs.snapshot()
    })
}

/// A random incident-shaped trace: interleaved fault events, degraded
/// serves, breaker transitions, and deployments across a few models.
fn arb_incident_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec((0u64..6, 0u64..3, 1u64..5, 0u64..4), 0..40).prop_map(|raw| {
        let obs = Obs::recording();
        for (i, (kind_sel, model_sel, version, cause_sel)) in raw.iter().enumerate() {
            let sim_time = i as f64;
            let model = ["card", "cost", "steer"][*model_sel as usize];
            match kind_sel {
                0 => obs.event(
                    "serve.gateway",
                    "model_fault_injected",
                    sim_time,
                    &[("model", model), ("kind", "poison")],
                ),
                1 => obs.record_decision(
                    "serve.gateway",
                    "degraded_serve",
                    &Provenance::new(model, *version, 0),
                    0.0,
                    None,
                    "guarded",
                    true,
                    0,
                    sim_time,
                ),
                2 => obs.event(
                    "serve.gateway",
                    "breaker_transition",
                    sim_time,
                    &[("model", model), ("from", "Closed"), ("to", "Open")],
                ),
                3 => obs.event(
                    "faultsim.chaos",
                    "fault_injected",
                    sim_time,
                    &[("kind", "crash")],
                ),
                4 => obs.record_deployment(
                    "serve.gateway",
                    DeploymentKind::Rollback,
                    model,
                    *version,
                    ["guard_trip_streak", "slo_burn", "manual", "bootstrap"][*cause_sel as usize],
                    sim_time,
                ),
                _ => obs.record_deployment(
                    "serve.gateway",
                    DeploymentKind::Publish,
                    model,
                    *version,
                    "retrain",
                    sim_time,
                ),
            }
        }
        obs.snapshot()
    })
}

/// Rotates every record vector by `k` — a permutation that preserves record
/// contents (and seq numbers) while scrambling vector order.
fn rotate_trace(trace: &Trace, k: usize) -> Trace {
    fn rotate<T>(v: &mut [T], k: usize) {
        if !v.is_empty() {
            let mid = k % v.len();
            v.rotate_left(mid);
        }
    }
    let mut t = trace.clone();
    rotate(&mut t.spans, k);
    rotate(&mut t.events, k);
    rotate(&mut t.decisions, k);
    rotate(&mut t.deployments, k);
    t
}

/// A spec set: each raw spec picks an objective, a window width from a set
/// where no width divides another, and its fast/slow window counts; one
/// zero-width spec (which never completes a window) joins at `zero_at` when
/// that is in range.
fn spec_set(raw: &[(u32, u32, u32, u32)], zero_at: usize) -> Vec<SloSpec> {
    const WIDTHS: [f64; 4] = [3.0, 5.0, 7.5, 11.0];
    let mut specs: Vec<SloSpec> = raw
        .iter()
        .enumerate()
        .map(|(i, &(objective, width, fast, slow))| {
            let name = format!("spec-{i}");
            let w = WIDTHS[width as usize];
            let mut spec = match objective {
                0 => SloSpec::error_rate(&name, "serve.gateway", 0.9, w),
                1 => SloSpec::staleness(&name, "serve.gateway", 0.95, w, 2),
                _ => SloSpec::latency(&name, "engine.exec", 0.9, 1.0, w),
            };
            spec.fast_windows = fast;
            spec.slow_windows = slow;
            spec
        })
        .collect();
    if zero_at <= specs.len() {
        let zero = SloSpec::error_rate("zero-width", "serve.gateway", 0.9, 0.0);
        specs.insert(zero_at, zero);
    }
    specs
}

/// The health signal derived from a full report: per spec, the trailing
/// burn averages at its last complete window; the worst spec by the lower
/// of the two wins (the first on a tie), and `windows` is the smallest
/// complete-window count across specs.
fn signal_from_report(report: &SloReport) -> HealthSignal {
    let mut fast = 0.0f64;
    let mut slow = 0.0f64;
    let mut worst = f64::NEG_INFINITY;
    let mut min_windows = u64::MAX;
    for sr in &report.specs {
        let n = sr.windows.len();
        min_windows = min_windows.min(n as u64);
        if n == 0 {
            continue;
        }
        let trailing = |count: u32| {
            let count = (count.max(1) as usize).min(n);
            sr.windows[n - count..].iter().map(|w| w.burn).sum::<f64>() / count as f64
        };
        let (f, s) = (
            trailing(sr.spec.fast_windows),
            trailing(sr.spec.slow_windows),
        );
        if f.min(s) > worst {
            worst = f.min(s);
            fast = f;
            slow = s;
        }
    }
    if report.specs.is_empty() || min_windows == u64::MAX {
        min_windows = 0;
    }
    HealthSignal {
        fast_burn: fast,
        slow_burn: slow,
        windows: min_windows.min(u32::MAX as u64) as u32,
    }
}

fn same_signal(a: &HealthSignal, b: &HealthSignal) -> bool {
    a.fast_burn.to_bits() == b.fast_burn.to_bits()
        && a.slow_burn.to_bits() == b.slow_burn.to_bits()
        && a.windows == b.windows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn critical_path_is_bounded_by_envelope_and_longest_span(trace in arb_trace_spans()) {
        let report = critical_path(&trace);
        let env_start = trace.spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
        let env_end = trace.spans.iter().map(|s| s.end).fold(f64::NEG_INFINITY, f64::max);
        let envelope = (env_end - env_start).max(0.0);
        let longest = trace
            .spans
            .iter()
            .map(|s| s.duration())
            .fold(0.0f64, f64::max);
        prop_assert!(report.path_ticks <= envelope + 1e-9,
            "path {} exceeds wall envelope {}", report.path_ticks, envelope);
        prop_assert!(report.path_ticks + 1e-9 >= longest,
            "path {} undercuts longest span {}", report.path_ticks, longest);
        // The decomposition accounts for the whole path.
        let attributed: f64 = report.path.iter().map(|s| s.self_ticks).sum();
        prop_assert!((attributed + report.idle_ticks - report.path_ticks).abs() < 1e-6);
    }

    #[test]
    fn incident_reconstruction_is_permutation_invariant(
        trace in arb_incident_trace(),
        k in 1usize..17,
    ) {
        let baseline = to_canonical_json(&reconstruct(&trace));
        let rotated = to_canonical_json(&reconstruct(&rotate_trace(&trace, k)));
        prop_assert_eq!(baseline, rotated);
    }

    /// Online, after every `snapshot_since` delta, `health_signal` equals
    /// (bit for bit) the signal derived from the full `report`, across
    /// mixed objectives, widths, trailing-window counts and empty windows.
    #[test]
    fn health_signal_matches_the_full_report(
        raw_specs in proptest::collection::vec((0u32..3, 0u32..4, 0u32..4, 0u32..6), 1..5),
        zero_at in 0usize..8,
        stream in proptest::collection::vec((0u32..4, 0u32..12, 0u32..8), 1..80),
    ) {
        let specs = spec_set(&raw_specs, zero_at);
        let mut engine = SloEngine::new(specs);
        let mut empty = SloEngine::new(Vec::new());
        let check = |engine: &SloEngine| {
            let (got, want) = (engine.health_signal(), signal_from_report(&engine.report()));
            prop_assert!(same_signal(&got, &want), "{got:?} != {want:?}");
            Ok(())
        };
        // Before any window completes, and with no specs at all.
        check(&engine)?;
        check(&empty)?;
        prop_assert_eq!(empty.health_signal().windows, 0);

        let obs = Obs::recording();
        let mut cursor = TraceCursor::default();
        let mut t = 0.0f64;
        for &(kind, a, b) in &stream {
            // Steps of 0 to 5.5 ticks, so some windows stay empty and some
            // cuts land exactly on a window edge.
            t += f64::from(a) * 0.5;
            match kind {
                0 => obs.record_decision(
                    "serve.gateway",
                    "serve",
                    &Provenance::new("m", 1, 0),
                    1.0,
                    Some(1.0),
                    if b % 3 == 0 { "degraded" } else { "ok" },
                    b % 3 == 0,
                    u64::from(b % 4),
                    t,
                ),
                1 => {
                    let s = obs.span_enter("engine.exec", "stage", t);
                    obs.span_exit(s, t + f64::from(b) * 0.25);
                }
                2 => obs.event("clock", "tick", t, &[]),
                _ => {
                    let delta = obs.snapshot_since(&mut cursor);
                    engine.ingest(&delta);
                    empty.ingest(&delta);
                    check(&engine)?;
                    check(&empty)?;
                }
            }
        }
        engine.ingest(&obs.snapshot_since(&mut cursor));
        check(&engine)?;
    }
}
