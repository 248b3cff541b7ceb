//! Analysis-cost baseline for the watchtower layer.
//!
//! Runs the full autonomy chaos drill (poisoned promotion → guard trips →
//! automatic rollback → recovery, 2000 simulated ticks) as the "production"
//! workload, then times the complete watchtower analysis — SLO evaluation,
//! incident reconstruction, and critical-path profiling — over the trace it
//! produced. The contract: post-hoc analysis must cost **< 5%** of the
//! production run that generated the trace, so watchtower can run after
//! every drill (and in CI) without meaningfully extending the cycle.
//! Results land in `BENCH_watchtower.json` at the repo root.

use std::hint::black_box;
use std::sync::Arc;

use adas_bench::harness::{Config, Gate, Report};
use adas_core::feedback::LoopConfig;
use adas_faultsim::{ModelFaults, PoisonProfile};
use adas_obs::{Obs, Trace};
use adas_serve::{
    AutonomyAction, AutonomyConfig, AutonomyController, CanaryConfig, FnModel, Gateway,
    GatewayConfig, PoisonScope, ServableModel, SloPolicy,
};
use adas_watchtower::{analyze, default_specs};

const DRILL_TICKS: u64 = 2000;

/// The autonomy chaos drill from `tests/autonomy_chaos.rs`, compacted.
fn run_drill(seed: u64) -> Trace {
    let obs = Obs::recording();
    let mut config = GatewayConfig::standard();
    config.breaker.guard_factor = 2.0;
    config.breaker.failure_threshold = 4;
    config.breaker.cooldown_ticks = 8.0;
    config.breaker.backoff_factor = 2.0;
    config.breaker.max_cooldown_ticks = 64.0;
    let gateway = Gateway::with_obs(config, obs.clone());
    let handle = gateway.register("card/drill", |f: &[f64]| f[0]);
    let mut ctl = AutonomyController::new(gateway.clone(), obs.clone());
    ctl.supervise(
        handle,
        AutonomyConfig {
            monitor: LoopConfig {
                window: 20,
                retrain_factor: 1.5,
                rollback_factor: 8.0,
            },
            canary: CanaryConfig {
                traffic_pct: 30,
                shadow_first: true,
                min_decisions: 10,
                promote_streak: 2,
                demote_streak: 2,
                promote_error_factor: 1.2,
                demote_error_factor: 2.0,
                restage_backoff_ticks: 16.0,
                max_restage_backoff_ticks: 128.0,
            },
            slo: SloPolicy::default(),
            guarded_streak: 4,
            breaker_open_streak: 10,
            retrain_cooldown_ticks: 8.0,
            min_retrain_observations: 20,
        },
        Box::new(|history: &[(Vec<f64>, f64)]| {
            let (num, den) = history
                .iter()
                .fold((0.0, 0.0), |(n, d), (f, y)| (n + f[0] * y, d + f[0] * f[0]));
            let a = num / den.max(1e-12);
            Some((
                Arc::new(FnModel(move |f: &[f64]| a * f[0])) as Arc<dyn ServableModel>,
                0.01,
            ))
        }),
    );
    ctl.install(handle, Arc::new(FnModel(|f: &[f64]| 1.05 * f[0])), 0.2, 0.0)
        .expect("bootstrap install");

    let mut promoted_version = None;
    let mut poisoned = false;
    for t in 0..DRILL_TICKS {
        let sim_time = t as f64;
        let features = [1.0 + (t % 5) as f64];
        let p = gateway
            .predict(handle, &features, sim_time)
            .expect("serves");
        let actual = 1.3 * features[0];
        let step = ctl
            .observe(handle, &features, &p, actual, sim_time)
            .expect("observes");
        for a in &step {
            if let AutonomyAction::Promoted { version } = a {
                if promoted_version.is_none() {
                    promoted_version = Some(*version);
                }
            }
        }
        if !poisoned {
            if let Some(v) = promoted_version {
                gateway
                    .inject_faults_at(
                        handle,
                        ModelFaults::with_profile(seed, 0.05, 0.05, 4.0, PoisonProfile::Constant),
                        sim_time,
                    )
                    .expect("injects");
                gateway
                    .set_poison_scope_at(handle, PoisonScope::Version(v), sim_time)
                    .expect("scopes");
                poisoned = true;
            }
        }
    }
    obs.snapshot()
}

fn main() {
    let specs = default_specs();
    // The drill is seeded, so every run produces this same trace.
    let trace = run_drill(7);
    let incidents = analyze(&trace, &specs).incidents.incidents.len();

    let mut report = Report::new("watchtower");
    report.fact("drill_ticks", DRILL_TICKS);
    report.fact("trace_spans", trace.spans.len());
    report.fact("trace_events", trace.events.len());
    report.fact("trace_decisions", trace.decisions.len());
    report.fact("trace_deployments", trace.deployments.len());
    report.fact("incidents_reconstructed", incidents);
    let t = report.run(
        9,
        vec![
            Config::new("produce", |lap| lap.time(|| run_drill(7))),
            Config::new("analyze", |lap| {
                lap.time(|| analyze(black_box(&trace), &specs))
            }),
        ],
    );
    report.gate(Gate::ratio_below("analysis_cost_ratio", &t[1], &t[0], 0.05));
    report.finish();
}
