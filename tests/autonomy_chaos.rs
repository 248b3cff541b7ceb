//! The unattended autonomy drill: poisoning → guard trip → automatic
//! rollback → retrain → shadow → canary → recovery, with **zero** manual
//! `publish`/`rollback` calls after the bootstrap install, and the whole
//! cycle byte-identical under one seed.
//!
//! This is the acceptance test for the closed loop: the paper's claim
//! (Zhu et al., SIGMOD 2023, §3) is that learned components are safe to
//! operate *because* detection, mitigation, and recovery run without a
//! human in the loop. Here the human is the test harness, and it only
//! turns the simulated clock.

use autonomous_data_services::core::feedback::LoopConfig;
use autonomous_data_services::faultsim::{ModelFaults, PoisonProfile};
use autonomous_data_services::obs::{DeploymentKind, Obs, Trace};
use autonomous_data_services::serve::{
    AutonomyAction, AutonomyConfig, AutonomyController, CanaryConfig, FnModel, Gateway,
    GatewayConfig, PoisonScope, Retrainer, ServableModel, SloPolicy,
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

struct DrillOutcome {
    trace: Trace,
    actions: Vec<AutonomyAction>,
    final_version: u64,
    final_error: f64,
}

/// Runs the full drill for one seed. The driver only predicts, reports
/// outcomes, and injects faults — it never deploys anything itself.
fn run_drill(seed: u64) -> DrillOutcome {
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

    let mut actions = Vec::new();
    let mut promoted_version = None;
    let mut poisoned = false;
    let world = |f: &[f64]| 1.3 * f[0]; // drifted world, phase A onward
    for t in 0..2000u64 {
        let sim_time = t as f64;
        let features = [1.0 + (t % 5) as f64];
        let p = gateway.predict(handle, &features, sim_time).unwrap();
        let actual = world(&features);
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
        actions.extend(step);
        // Phase B trigger: the moment the first candidate is promoted, its
        // artifact "corrupts" — version-scoped poison plus flaky serving.
        if !poisoned {
            if let Some(v) = promoted_version {
                gateway
                    .inject_faults_at(
                        handle,
                        ModelFaults::with_profile(seed, 0.05, 0.05, 4.0, PoisonProfile::Constant),
                        sim_time,
                    )
                    .unwrap();
                gateway
                    .set_poison_scope_at(handle, PoisonScope::Version(v), sim_time)
                    .unwrap();
                poisoned = true;
            }
        }
    }
    let final_version = gateway.current_version(handle).unwrap().unwrap();
    let p = gateway.predict(handle, &[3.0], 5000.0).unwrap();
    let final_error = (p.value - world(&[3.0])).abs();
    DrillOutcome {
        trace: obs.snapshot(),
        actions,
        final_version,
        final_error,
    }
}

#[test]
fn unattended_cycle_recovers_from_poisoned_promotion() {
    let out = run_drill(7);
    // The loop promoted a retrained candidate (phase A: drift recovery).
    let first_promote = out
        .actions
        .iter()
        .position(|a| matches!(a, AutonomyAction::Promoted { .. }))
        .expect("drift must end in a promotion");
    // The poisoned promotion was rolled back automatically (phase B).
    let rollback = out.actions[first_promote..]
        .iter()
        .find_map(|a| match a {
            AutonomyAction::RolledBack { version, cause } => Some((*version, cause.clone())),
            _ => None,
        })
        .expect("poisoning must trigger an automatic rollback");
    assert!(
        rollback.1 == "guard_trip_streak"
            || rollback.1 == "breaker_open_streak"
            || rollback.1 == "monitor_rollback",
        "rollback cause must be a loop trigger, got {}",
        rollback.1
    );
    // And the loop then retrained *again* and re-promoted: the final
    // serving version postdates the rollback and tracks the drifted world.
    let promotions = out
        .actions
        .iter()
        .filter(|a| matches!(a, AutonomyAction::Promoted { .. }))
        .count();
    assert!(
        promotions >= 2,
        "recovery needs a second promotion: {:?}",
        out.actions
    );
    assert!(
        out.final_version > rollback.0,
        "final version {} must postdate the rollback landing {}",
        out.final_version,
        rollback.0
    );
    assert!(
        out.final_error < 0.2,
        "recovered serving error {} too high",
        out.final_error
    );
    // Zero manual deployments: every deployment record names a loop cause.
    let deployments = &out.trace.deployments;
    assert!(!deployments.is_empty());
    assert_eq!(deployments[0].cause, "bootstrap");
    assert!(
        deployments.iter().all(|d| d.cause != "manual"),
        "no manual publish/rollback anywhere in the drill"
    );
    // The full lifecycle shows up as typed records.
    for kind in [
        DeploymentKind::Publish,
        DeploymentKind::ShadowStart,
        DeploymentKind::CanaryStart,
        DeploymentKind::Promote,
        DeploymentKind::Rollback,
    ] {
        assert!(
            deployments.iter().any(|d| d.kind == kind),
            "missing {kind:?} in {deployments:?}"
        );
    }
}

#[test]
fn drill_replays_byte_identical_per_seed() {
    for seed in DRILL_SEEDS {
        let a = run_drill(seed);
        let b = run_drill(seed);
        let ja = serde_json::to_string(&a.trace).unwrap();
        let jb = serde_json::to_string(&b.trace).unwrap();
        assert_eq!(ja, jb, "seed {seed} must replay byte-identically");
        assert_eq!(a.actions, b.actions);
        assert_eq!(a.final_version, b.final_version);
    }
}

#[test]
fn drill_seeds_diverge() {
    let a = serde_json::to_string(&run_drill(DRILL_SEEDS[0]).trace).unwrap();
    let b = serde_json::to_string(&run_drill(DRILL_SEEDS[1]).trace).unwrap();
    assert_ne!(a, b, "different fault seeds must produce different traces");
}

/// Hysteresis: a candidate whose artifact flaps between healthy and
/// poisoned can never assemble `promote_streak` consecutive healthy
/// windows, so it never promotes — the serving version stays put.
#[test]
fn flapping_candidate_never_promotes() {
    let obs = Obs::recording();
    let config = GatewayConfig::standard();
    let gateway = Gateway::with_obs(config, obs.clone());
    let handle = gateway.register("card/flappy", |f: &[f64]| f[0]);
    let mut ctl = AutonomyController::new(gateway.clone(), obs.clone());
    let mut cfg = drill_config();
    cfg.canary.min_decisions = 10;
    cfg.canary.promote_streak = 2;
    ctl.supervise(handle, cfg, scalar_retrainer());
    ctl.install(handle, Arc::new(FnModel(|f: &[f64]| 1.05 * f[0])), 0.2, 0.0)
        .unwrap();
    let mut staged_version = None;
    let mut actions = Vec::new();
    for t in 0..1500u64 {
        let sim_time = t as f64;
        let features = [1.0 + (t % 5) as f64];
        let p = gateway.predict(handle, &features, sim_time).unwrap();
        let actual = 1.3 * features[0];
        let step = ctl
            .observe(handle, &features, &p, actual, sim_time)
            .unwrap();
        for a in &step {
            if let AutonomyAction::CandidateStaged { version, .. } = a {
                if staged_version.is_none() {
                    staged_version = Some(*version);
                    // The candidate's artifact flaps: 10 healthy calls, 10
                    // poisoned calls, aligned with the evaluation window.
                    gateway
                        .inject_faults(
                            handle,
                            ModelFaults::with_profile(
                                9,
                                0.0,
                                0.0,
                                5.0,
                                PoisonProfile::Flappy { period_calls: 10 },
                            ),
                        )
                        .unwrap();
                    gateway
                        .set_poison_scope(handle, PoisonScope::Version(*version))
                        .unwrap();
                }
            }
        }
        actions.extend(step);
    }
    assert!(staged_version.is_some(), "drift must stage a candidate");
    assert!(
        !actions
            .iter()
            .any(|a| matches!(a, AutonomyAction::Promoted { .. })),
        "a flapping candidate must never promote: {actions:?}"
    );
    assert_eq!(
        gateway.current_version(handle).unwrap(),
        Some(1),
        "serving version must not move"
    );
    assert!(
        !obs.snapshot()
            .deployments
            .iter()
            .any(|d| d.kind == DeploymentKind::Promote),
        "no promote record may exist"
    );
}
