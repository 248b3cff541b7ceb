//! Watchtower acceptance drills.
//!
//! 1. On the seeded poison → rollback chaos drill, incident reconstruction
//!    blames the injected poison as root cause and the automatic rollback
//!    as resolution — and the whole watchtower report (SLO windows,
//!    incidents, critical path) is byte-identical across replays of each
//!    seed.
//! 2. A new SLO drill: with every legacy streak/monitor trigger disabled,
//!    a multi-window burn-rate signal computed *online* from incremental
//!    trace snapshots drives the rollback — zero manual deploy calls.

use autonomous_data_services::core::feedback::LoopConfig;
use autonomous_data_services::faultsim::{ModelFaults, PoisonProfile};
use autonomous_data_services::obs::{DeploymentKind, Obs, Trace, TraceCursor};
use autonomous_data_services::serve::{
    AutonomyAction, AutonomyConfig, AutonomyController, CanaryConfig, FnModel, Gateway,
    GatewayConfig, PoisonScope, Retrainer, ServableModel, SloPolicy,
};
use autonomous_data_services::watchtower::{
    analyze, default_specs, reconstruct, to_canonical_json, SloEngine, SloSpec,
};
use std::sync::Arc;

const DRILL_SEEDS: [u64; 3] = [7, 21, 42];

fn drill_config() -> AutonomyConfig {
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
    }
}

fn scalar_retrainer() -> Retrainer {
    Box::new(|history: &[(Vec<f64>, f64)]| {
        let (num, den) = history
            .iter()
            .fold((0.0, 0.0), |(n, d), (f, y)| (n + f[0] * y, d + f[0] * f[0]));
        let a = num / den.max(1e-12);
        Some((
            Arc::new(FnModel(move |f: &[f64]| a * f[0])) as Arc<dyn ServableModel>,
            0.01,
        ))
    })
}

/// The autonomy chaos drill (see `tests/autonomy_chaos.rs`), with the
/// event-emitting fault injectors so the poison lands in the trace.
fn run_poison_drill(seed: u64) -> Trace {
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
    ctl.supervise(handle, drill_config(), scalar_retrainer());
    ctl.install(handle, Arc::new(FnModel(|f: &[f64]| 1.05 * f[0])), 0.2, 0.0)
        .unwrap();

    let mut promoted_version = None;
    let mut poisoned = false;
    for t in 0..2000u64 {
        let sim_time = t as f64;
        let features = [1.0 + (t % 5) as f64];
        let p = gateway.predict(handle, &features, sim_time).unwrap();
        let actual = 1.3 * features[0];
        let step = ctl
            .observe(handle, &features, &p, actual, sim_time)
            .unwrap();
        for a in &step {
            if let AutonomyAction::Promoted { version } = a {
                if promoted_version.is_none() {
                    promoted_version = Some(*version);
                }
            }
        }
        if !poisoned {
            if let Some(v) = promoted_version {
                // Poison scope first: the first injected-fault record in
                // the trace — the one reconstruction blames — is the
                // poisoned artifact, not the flaky channel around it.
                gateway
                    .set_poison_scope_at(handle, PoisonScope::Version(v), sim_time)
                    .unwrap();
                gateway
                    .inject_faults_at(
                        handle,
                        ModelFaults::with_profile(seed, 0.05, 0.05, 4.0, PoisonProfile::Constant),
                        sim_time,
                    )
                    .unwrap();
                poisoned = true;
            }
        }
    }
    obs.snapshot()
}

#[test]
fn poison_drill_incident_blames_injection_and_resolves_by_rollback() {
    for seed in DRILL_SEEDS {
        let trace = run_poison_drill(seed);
        let report = reconstruct(&trace);
        let incident = report
            .incidents
            .iter()
            .find(|i| i.resolution.is_some())
            .unwrap_or_else(|| panic!("seed {seed}: no resolved incident reconstructed"));
        assert_eq!(incident.model, "card/drill");
        assert_eq!(
            incident.root_cause.stage, "fault_injected",
            "seed {seed}: root cause must be the injected fault, got {:?}",
            incident.root_cause
        );
        assert!(
            incident.root_cause.detail.contains("kind=poison"),
            "seed {seed}: blamed record should be the poison injection: {}",
            incident.root_cause.detail
        );
        let resolution = incident.resolution.as_ref().unwrap();
        assert_eq!(resolution.kind, "rollback", "seed {seed}");
        assert!(
            incident.degraded_serves > 0,
            "seed {seed}: the poisoned window must degrade serves"
        );
    }
}

#[test]
fn watchtower_report_is_byte_identical_per_seed() {
    for seed in DRILL_SEEDS {
        let specs = default_specs();
        let a = to_canonical_json(&analyze(&run_poison_drill(seed), &specs));
        let b = to_canonical_json(&analyze(&run_poison_drill(seed), &specs));
        assert_eq!(a, b, "seed {seed}: analysis must replay byte-identically");
    }
}

/// The SLO drill: every legacy trigger is effectively disabled — streaks
/// enormous, monitor factors enormous — so the *only* path to a rollback is
/// the burn-rate signal fed through `ingest_health`. The signal itself is
/// computed online from `snapshot_since` deltas, the way a sidecar would.
#[test]
fn slo_burn_signal_drives_autonomous_rollback() {
    let obs = Obs::recording();
    let mut config = GatewayConfig::standard();
    config.breaker.guard_factor = 2.0;
    let gateway = Gateway::with_obs(config, obs.clone());
    let handle = gateway.register("card/slo", |f: &[f64]| f[0]);
    let mut ctl = AutonomyController::new(gateway.clone(), obs.clone());
    let mut cfg = drill_config();
    cfg.guarded_streak = u32::MAX;
    cfg.breaker_open_streak = u32::MAX;
    cfg.monitor.retrain_factor = 1e12;
    cfg.monitor.rollback_factor = 1e12;
    ctl.supervise(handle, cfg, Box::new(|_: &[(Vec<f64>, f64)]| None));
    // Two bootstrap installs give the loop a v1 to roll back to.
    ctl.install(handle, Arc::new(FnModel(|f: &[f64]| 1.3 * f[0])), 0.01, 0.0)
        .unwrap();
    let v2 = ctl
        .install(handle, Arc::new(FnModel(|f: &[f64]| 1.3 * f[0])), 0.01, 1.0)
        .unwrap();

    let mut engine = SloEngine::new(vec![SloSpec::error_rate(
        "gateway-availability",
        "serve.gateway",
        0.99,
        25.0,
    )]);
    let mut cursor = TraceCursor::default();
    let mut actions = Vec::new();
    let mut poisoned = false;
    for t in 0..500u64 {
        let sim_time = t as f64;
        let features = [1.0 + (t % 5) as f64];
        let p = gateway.predict(handle, &features, sim_time).unwrap();
        let actual = 1.3 * features[0];
        actions.extend(
            ctl.observe(handle, &features, &p, actual, sim_time)
                .unwrap(),
        );
        if t == 100 && !poisoned {
            gateway
                .inject_faults_at(
                    handle,
                    ModelFaults::with_profile(11, 0.0, 0.0, 6.0, PoisonProfile::Constant),
                    sim_time,
                )
                .unwrap();
            gateway
                .set_poison_scope_at(handle, PoisonScope::Version(v2), sim_time)
                .unwrap();
            poisoned = true;
        }
        // The online analytics sidecar: fold the fresh delta, compute the
        // burn signal, and hand it to the controller.
        engine.ingest(&obs.snapshot_since(&mut cursor));
        let signal = engine.health_signal();
        actions.extend(ctl.ingest_health(handle, &signal, sim_time).unwrap());
    }

    let rolled_back = actions
        .iter()
        .any(|a| matches!(a, AutonomyAction::RolledBack { cause, .. } if cause == "slo_burn"));
    assert!(
        rolled_back,
        "burn-rate signal must roll the poisoned version back: {actions:?}"
    );
    let trace = obs.snapshot();
    assert!(
        trace.deployments.iter().all(|d| d.cause != "manual"),
        "zero manual deploy calls in the SLO drill"
    );
    assert!(
        trace
            .deployments
            .iter()
            .any(|d| d.kind == DeploymentKind::Rollback && d.cause == "slo_burn"),
        "the rollback must be recorded with the slo_burn cause"
    );
    // After the rollback the healthy v1 serves again: trailing windows are
    // clean, so the engine reports no sustained burn at the end.
    let signal = engine.health_signal();
    assert!(
        signal.fast_burn.min(signal.slow_burn) < 2.0,
        "post-rollback burn must subside, got {signal:?}"
    );
    // The incident layer ties the whole story together: the poison
    // injection opens the incident and the slo_burn rollback closes it.
    let report = reconstruct(&trace);
    let incident = report
        .incidents
        .iter()
        .find(|i| i.resolution.is_some())
        .expect("the SLO drill must reconstruct a resolved incident");
    assert_eq!(incident.root_cause.stage, "fault_injected");
    assert_eq!(incident.resolution.as_ref().unwrap().cause, "slo_burn");
}
