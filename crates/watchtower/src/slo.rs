//! The SLO engine: declarative objectives evaluated over tumbling
//! simulated-time windows, with multi-window burn-rate alerts.
//!
//! An SLO says "`target` fraction of events must be good". Each spec maps
//! trace records to good/bad events — span durations against a latency
//! threshold, decision vetoes, feedback-latency budgets — and buckets them
//! into tumbling windows of `window_ticks` simulated seconds anchored at
//! time zero. A window's **burn rate** is how fast it consumed the error
//! budget: `bad_fraction / (1 - target)`, so 1.0 means exactly on budget.
//! Alerts use the classic two-window rule: fire only when both the fast
//! (short) and slow (long) trailing averages are at or above
//! [`SloSpec::alert_burn`] — the fast window catches regressions quickly,
//! the slow window suppresses blips.
//!
//! The engine is incremental: feed it [`Obs::snapshot_since`] deltas online
//! (each record counted once) or a whole trace at rest. Only *complete*
//! windows — those the trace's clock has fully passed — are reported, so a
//! half-filled trailing window never skews a burn rate.
//!
//! Online, one window step costs O(new records + specs): ingesting a delta
//! touches only its records, and [`SloEngine::health_signal`] reads only
//! each spec's trailing windows. [`SloEngine::report`] is the at-rest
//! view: it materializes every complete window of every spec up to the
//! trace's clock, empty ones included.
//!
//! [`Obs::snapshot_since`]: adas_obs::Obs::snapshot_since

use adas_obs::{Histogram, Trace};
use adas_serve::HealthSignal;
use adas_simkern::Window;
use serde::Serialize;
use std::collections::BTreeMap;

/// What a spec measures, and what counts as a bad event.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum SloObjective {
    /// Span durations of a component: a span is bad when it runs longer
    /// than `threshold_ticks`. The per-window quantile estimate comes from
    /// the same fixed-bucket histogram machinery the metrics registry uses.
    Latency {
        /// Component whose spans are measured.
        component: String,
        /// Quantile reported per window (e.g. `0.99`).
        quantile: f64,
        /// Simulated-tick duration above which a span is bad.
        threshold_ticks: f64,
    },
    /// Decision records of a component: a decision is bad when it was
    /// vetoed (degraded serves, guardrail blocks, incident triggers).
    ErrorRate {
        /// Component whose decisions are measured.
        component: String,
    },
    /// Decision records of a component: a decision is bad when its
    /// feedback latency exceeded the budget.
    Staleness {
        /// Component whose decisions are measured.
        component: String,
        /// Maximum acceptable `feedback_latency_ticks`.
        max_feedback_ticks: u64,
    },
}

impl SloObjective {
    /// The component this objective watches.
    pub fn component(&self) -> &str {
        match self {
            SloObjective::Latency { component, .. }
            | SloObjective::ErrorRate { component }
            | SloObjective::Staleness { component, .. } => component,
        }
    }
}

/// One declarative SLO.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloSpec {
    /// Human-readable spec name (stable across runs — it keys the report).
    pub name: String,
    /// What is measured and what counts as bad.
    pub objective: SloObjective,
    /// Required fraction of good events, in `(0, 1)` (e.g. `0.99`).
    pub target: f64,
    /// Tumbling window width in simulated ticks, anchored at time zero.
    pub window_ticks: f64,
    /// Windows averaged for the fast (short) burn signal.
    pub fast_windows: u32,
    /// Windows averaged for the slow (long) burn signal.
    pub slow_windows: u32,
    /// Burn rate at or above which (in both trailing averages) a window
    /// raises a [`BurnAlert`].
    pub alert_burn: f64,
}

impl SloSpec {
    /// An error-rate spec with the default 1-fast/3-slow windows and a
    /// 2x-budget alert line.
    pub fn error_rate(name: &str, component: &str, target: f64, window_ticks: f64) -> Self {
        Self {
            name: name.to_string(),
            objective: SloObjective::ErrorRate {
                component: component.to_string(),
            },
            target,
            window_ticks,
            fast_windows: 1,
            slow_windows: 3,
            alert_burn: 2.0,
        }
    }

    /// A staleness-budget spec with the default windows and alert line.
    pub fn staleness(
        name: &str,
        component: &str,
        target: f64,
        window_ticks: f64,
        max_feedback_ticks: u64,
    ) -> Self {
        Self {
            name: name.to_string(),
            objective: SloObjective::Staleness {
                component: component.to_string(),
                max_feedback_ticks,
            },
            target,
            window_ticks,
            fast_windows: 1,
            slow_windows: 3,
            alert_burn: 2.0,
        }
    }

    /// A latency-quantile spec with the default windows and alert line.
    pub fn latency(
        name: &str,
        component: &str,
        quantile: f64,
        threshold_ticks: f64,
        window_ticks: f64,
    ) -> Self {
        Self {
            name: name.to_string(),
            objective: SloObjective::Latency {
                component: component.to_string(),
                quantile,
                threshold_ticks,
            },
            target: quantile,
            window_ticks,
            fast_windows: 1,
            slow_windows: 3,
            alert_burn: 2.0,
        }
    }

    /// The error budget: the allowed bad fraction, floored away from zero
    /// so burn rates stay finite.
    fn budget(&self) -> f64 {
        (1.0 - self.target).max(1e-9)
    }

    /// The spec's tumbling window, on the kernel's shared arithmetic so
    /// the SLO engine and the autonomy controller can never disagree on
    /// where a boundary tick lands.
    fn window(&self) -> Window {
        Window::new(self.window_ticks)
    }
}

/// One complete tumbling window of one spec.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WindowReport {
    /// Window ordinal (window `i` covers `[i*w, (i+1)*w)` ticks).
    pub index: u64,
    /// Window start in simulated ticks.
    pub start: f64,
    /// Events observed in the window.
    pub total: u64,
    /// Bad events observed in the window.
    pub bad: u64,
    /// `bad / total` (0 for an empty window).
    pub bad_fraction: f64,
    /// `bad_fraction / (1 - target)`.
    pub burn: f64,
    /// For latency objectives: the window's quantile estimate (the upper
    /// bound of the histogram bucket the quantile falls in, clamped to the
    /// last finite bound). `None` for other objectives or empty windows.
    pub quantile_estimate: Option<f64>,
}

/// A window where both trailing burn averages crossed the alert line.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BurnAlert {
    /// Window ordinal the alert fired at.
    pub window: u64,
    /// Simulated time of the window's end (when the alert became known).
    pub sim_time: f64,
    /// Trailing average burn over the fast windows.
    pub fast_burn: f64,
    /// Trailing average burn over the slow windows.
    pub slow_burn: f64,
}

/// Evaluation of one spec over every complete window.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpecReport {
    /// The spec evaluated.
    pub spec: SloSpec,
    /// Every complete window in index order (empty windows included, so
    /// trailing averages are well defined).
    pub windows: Vec<WindowReport>,
    /// Multi-window burn alerts in window order.
    pub alerts: Vec<BurnAlert>,
}

/// Evaluation of a whole spec set over one trace.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloReport {
    /// Per-spec reports, in spec order.
    pub specs: Vec<SpecReport>,
}

#[derive(Debug, Default, Clone)]
struct WindowAccum {
    total: u64,
    bad: u64,
    hist: Option<Histogram>,
}

/// The accumulator of a window no record landed in.
const EMPTY_WINDOW: WindowAccum = WindowAccum {
    total: 0,
    bad: 0,
    hist: None,
};

impl WindowAccum {
    /// The window's bad fraction (0 when empty) and burn rate under
    /// `spec`'s budget.
    fn burn(&self, spec: &SloSpec) -> (f64, f64) {
        let bad_fraction = if self.total == 0 {
            0.0
        } else {
            self.bad as f64 / self.total as f64
        };
        (bad_fraction, bad_fraction / spec.budget())
    }
}

/// Incremental SLO evaluator. Feed disjoint trace deltas (or one full
/// trace) through [`SloEngine::ingest`], then read [`SloEngine::report`]
/// or [`SloEngine::health_signal`] at any point; both consider only
/// complete windows.
#[derive(Debug, Clone)]
pub struct SloEngine {
    specs: Vec<SloSpec>,
    acc: Vec<BTreeMap<u64, WindowAccum>>,
    max_time: f64,
}

impl SloEngine {
    /// An engine over `specs` with an empty observation state.
    pub fn new(specs: Vec<SloSpec>) -> Self {
        let acc = specs.iter().map(|_| BTreeMap::new()).collect();
        Self {
            specs,
            acc,
            max_time: 0.0,
        }
    }

    /// The specs under evaluation.
    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// Folds a trace (or an [`Obs::snapshot_since`] delta) into the window
    /// accumulators. Records must not be fed twice; metrics are ignored
    /// (they are cumulative, not per-window, and deltas carry none).
    ///
    /// [`Obs::snapshot_since`]: adas_obs::Obs::snapshot_since
    pub fn ingest(&mut self, delta: &Trace) {
        // Every record advances the engine's notion of "now" — complete
        // windows are determined by overall trace progress, not just by
        // the records a spec happens to match.
        for s in &delta.spans {
            self.max_time = self.max_time.max(s.end);
        }
        for e in &delta.events {
            self.max_time = self.max_time.max(e.sim_time);
        }
        for d in &delta.decisions {
            self.max_time = self.max_time.max(d.sim_time);
        }
        for d in &delta.deployments {
            self.max_time = self.max_time.max(d.sim_time);
        }
        for (spec, acc) in self.specs.iter().zip(&mut self.acc) {
            let win = spec.window();
            if !win.is_valid() {
                continue;
            }
            match &spec.objective {
                SloObjective::Latency {
                    component,
                    threshold_ticks,
                    ..
                } => {
                    for s in delta.spans.iter().filter(|s| &s.component == component) {
                        let duration = (s.end - s.start).max(0.0);
                        let idx = win.index_of(s.start);
                        let w = acc.entry(idx).or_default();
                        w.total += 1;
                        if duration > *threshold_ticks {
                            w.bad += 1;
                        }
                        w.hist
                            .get_or_insert_with(|| Histogram::new(&Histogram::default_bounds()))
                            .observe(duration);
                    }
                }
                SloObjective::ErrorRate { component } => {
                    for d in delta.decisions.iter().filter(|d| &d.component == component) {
                        let idx = win.index_of(d.sim_time);
                        let w = acc.entry(idx).or_default();
                        w.total += 1;
                        if d.vetoed {
                            w.bad += 1;
                        }
                    }
                }
                SloObjective::Staleness {
                    component,
                    max_feedback_ticks,
                } => {
                    for d in delta.decisions.iter().filter(|d| &d.component == component) {
                        let idx = win.index_of(d.sim_time);
                        let w = acc.entry(idx).or_default();
                        w.total += 1;
                        if d.feedback_latency_ticks > *max_feedback_ticks {
                            w.bad += 1;
                        }
                    }
                }
            }
        }
    }

    /// Complete windows of spec `i`: windows whose end the clock has
    /// passed.
    fn complete_windows(&self, i: usize) -> u64 {
        self.specs[i].window().complete_before(self.max_time)
    }

    /// Spec `i`'s accumulator for window `idx`.
    fn accum(&self, i: usize, idx: u64) -> &WindowAccum {
        self.acc[i].get(&idx).unwrap_or(&EMPTY_WINDOW)
    }

    /// The full evaluation: per-spec windows (empty ones included) and
    /// multi-window burn alerts.
    pub fn report(&self) -> SloReport {
        let specs = self
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let win = spec.window();
                let complete = self.complete_windows(i);
                let windows: Vec<WindowReport> = (0..complete)
                    .map(|idx| {
                        let accum = self.accum(i, idx);
                        let (bad_fraction, burn) = accum.burn(spec);
                        let quantile_estimate = match &spec.objective {
                            SloObjective::Latency { quantile, .. } => accum
                                .hist
                                .as_ref()
                                .and_then(|h| histogram_quantile(h, *quantile)),
                            _ => None,
                        };
                        WindowReport {
                            index: idx,
                            start: win.start(idx),
                            total: accum.total,
                            bad: accum.bad,
                            bad_fraction,
                            burn,
                            quantile_estimate,
                        }
                    })
                    .collect();
                let alerts = burn_alerts(spec, &windows);
                SpecReport {
                    spec: spec.clone(),
                    windows,
                    alerts,
                }
            })
            .collect();
        SloReport { specs }
    }

    /// The controller-facing health signal: the worst spec's trailing burn
    /// averages at the latest complete window (the first spec wins a tie).
    /// `windows` is the smallest complete-window count across specs, so
    /// warm-up gating is conservative.
    ///
    /// O(specs): each spec reads only its last `max(fast_windows,
    /// slow_windows)` complete windows from the accumulators, summed in
    /// the same order [`SloEngine::report`]'s alerts use, so the signal is
    /// bit-identical to one derived from the full report.
    pub fn health_signal(&self) -> HealthSignal {
        let mut fast = 0.0f64;
        let mut slow = 0.0f64;
        let mut worst = f64::NEG_INFINITY;
        let mut min_windows = u64::MAX;
        for (i, spec) in self.specs.iter().enumerate() {
            let n = self.complete_windows(i);
            min_windows = min_windows.min(n);
            if n == 0 {
                continue;
            }
            let trailing = u64::from(spec.fast_windows.max(spec.slow_windows).max(1)).min(n);
            let burns: Vec<f64> = (n - trailing..n)
                .map(|idx| self.accum(i, idx).burn(spec).1)
                .collect();
            let (f, s) = trailing_burns(spec, &burns, burns.len() - 1);
            if f.min(s) > worst {
                worst = f.min(s);
                fast = f;
                slow = s;
            }
        }
        if min_windows == u64::MAX {
            min_windows = 0;
        }
        HealthSignal {
            fast_burn: fast,
            slow_burn: slow,
            windows: min_windows.min(u32::MAX as u64) as u32,
        }
    }
}

/// Average of the trailing `count` burns ending at `at` (inclusive), using
/// however many exist.
fn trailing_avg(burns: &[f64], at: usize, count: u32) -> f64 {
    let count = (count.max(1) as usize).min(at + 1);
    burns[at + 1 - count..=at].iter().sum::<f64>() / count as f64
}

fn trailing_burns(spec: &SloSpec, burns: &[f64], at: usize) -> (f64, f64) {
    (
        trailing_avg(burns, at, spec.fast_windows),
        trailing_avg(burns, at, spec.slow_windows),
    )
}

fn burn_alerts(spec: &SloSpec, windows: &[WindowReport]) -> Vec<BurnAlert> {
    let burns: Vec<f64> = windows.iter().map(|w| w.burn).collect();
    (0..windows.len())
        .filter_map(|at| {
            let (fast_burn, slow_burn) = trailing_burns(spec, &burns, at);
            (fast_burn.min(slow_burn) >= spec.alert_burn).then(|| BurnAlert {
                window: windows[at].index,
                sim_time: spec.window().end(windows[at].index),
                fast_burn,
                slow_burn,
            })
        })
        .collect()
}

/// Quantile estimate from a fixed-bucket histogram: the upper bound of the
/// bucket the quantile falls in, clamped to the last finite bound for
/// overflow observations. `None` for an empty histogram.
fn histogram_quantile(h: &Histogram, q: f64) -> Option<f64> {
    if h.count == 0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * h.count as f64).ceil().max(1.0) as u64;
    let mut cumulative = 0u64;
    for (bound, count) in h.bounds.iter().zip(&h.counts) {
        cumulative += count;
        if cumulative >= rank {
            return Some(*bound);
        }
    }
    h.bounds.last().copied()
}

/// One-shot evaluation of `specs` over a whole trace.
pub fn evaluate(trace: &Trace, specs: &[SloSpec]) -> SloReport {
    let mut engine = SloEngine::new(specs.to_vec());
    engine.ingest(trace);
    engine.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_obs::{Obs, Provenance};

    fn decision(obs: &Obs, vetoed: bool, sim_time: f64) {
        obs.record_decision(
            "serve.gateway",
            "serve",
            &Provenance::new("m", 1, 0),
            1.0,
            Some(1.0),
            if vetoed { "degraded" } else { "ok" },
            vetoed,
            0,
            sim_time,
        );
    }

    #[test]
    fn error_rate_windows_and_burn() {
        let obs = Obs::recording();
        // Window 0 (ticks 0..10): 4 good. Window 1: 2 good, 2 bad.
        for t in 0..4 {
            decision(&obs, false, t as f64);
        }
        for t in 0..2 {
            decision(&obs, false, 10.0 + t as f64);
        }
        for t in 2..4 {
            decision(&obs, true, 10.0 + t as f64);
        }
        // Clock advance past window 1 so it is complete.
        obs.event("clock", "tick", 20.5, &[]);
        let spec = SloSpec::error_rate("avail", "serve.gateway", 0.9, 10.0);
        let report = evaluate(&obs.snapshot(), &[spec]);
        let windows = &report.specs[0].windows;
        assert_eq!(windows.len(), 2);
        assert_eq!((windows[0].total, windows[0].bad), (4, 0));
        assert_eq!((windows[1].total, windows[1].bad), (4, 2));
        assert!((windows[1].burn - 5.0).abs() < 1e-9, "0.5 / 0.1 budget");
        // Fast=1 window crosses at window 1; slow=3 averages windows 0..=1
        // → (0 + 5)/2 = 2.5 ≥ 2.0 → alert fires.
        assert_eq!(report.specs[0].alerts.len(), 1);
        assert_eq!(report.specs[0].alerts[0].window, 1);
    }

    #[test]
    fn incremental_ingest_matches_one_shot() {
        let obs = Obs::recording();
        let spec = SloSpec::error_rate("avail", "serve.gateway", 0.95, 5.0);
        let mut engine = SloEngine::new(vec![spec.clone()]);
        let mut cursor = adas_obs::TraceCursor::default();
        for t in 0..40u64 {
            decision(&obs, t % 7 == 0, t as f64);
            if t % 10 == 9 {
                engine.ingest(&obs.snapshot_since(&mut cursor));
            }
        }
        engine.ingest(&obs.snapshot_since(&mut cursor));
        let one_shot = evaluate(&obs.snapshot(), &[spec]);
        assert_eq!(engine.report(), one_shot);
    }

    #[test]
    fn latency_quantile_estimates_from_buckets() {
        let obs = Obs::recording();
        for i in 0..10 {
            let s = obs.span_enter("engine.exec", "stage", i as f64);
            // Nine fast spans, one slow.
            let dur = if i == 9 { 3.0 } else { 0.01 };
            obs.span_exit(s, i as f64 + dur);
        }
        obs.event("clock", "tick", 101.0, &[]);
        let spec = SloSpec::latency("p90", "engine.exec", 0.9, 1.0, 100.0);
        let report = evaluate(&obs.snapshot(), &[spec]);
        let w = &report.specs[0].windows[0];
        assert_eq!((w.total, w.bad), (10, 1));
        // The p90 falls in the bucket covering 0.01; the p99 would catch
        // the slow span's bucket.
        let q = w.quantile_estimate.expect("non-empty window");
        assert!(q < 1.0, "p90 estimate {q} should be a fast bucket bound");
    }

    #[test]
    fn health_signal_reports_worst_spec() {
        let obs = Obs::recording();
        // serve.gateway is burning, serve.autonomy is clean.
        for t in 0..10 {
            decision(&obs, true, t as f64);
            obs.record_decision(
                "serve.autonomy",
                "serve",
                &Provenance::new("m", 1, 0),
                1.0,
                Some(1.0),
                "ok",
                false,
                0,
                t as f64,
            );
        }
        obs.event("clock", "tick", 10.5, &[]);
        let mut engine = SloEngine::new(vec![
            SloSpec::error_rate("gw", "serve.gateway", 0.9, 10.0),
            SloSpec::error_rate("auto", "serve.autonomy", 0.9, 10.0),
        ]);
        engine.ingest(&obs.snapshot());
        let h = engine.health_signal();
        assert_eq!(h.windows, 1);
        assert!(
            (h.fast_burn - 10.0).abs() < 1e-9,
            "all-bad window burns 1/0.1"
        );
    }
}
