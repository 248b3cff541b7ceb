//! The closed autonomy loop, end to end: drift → retrain → shadow →
//! canary → promote, then poisoning → guard trip → automatic rollback →
//! retrain → recovery — with zero manual `publish`/`rollback` calls after
//! the bootstrap install.
//!
//! The driver below only does three things: asks the gateway for
//! predictions, reports observed outcomes to the [`AutonomyController`],
//! and (to make a point) corrupts the freshly promoted artifact. Every
//! deployment decision — staging, traffic shifts, promotion, rollback —
//! is the controller's, and each one lands in the flight recorder as a
//! typed deployment record with its cause.
//!
//! Run with: `cargo run --release --example autonomy_loop`

use autonomous_data_services::core::feedback::LoopConfig;
use autonomous_data_services::faultsim::{ModelFaults, PoisonProfile};
use autonomous_data_services::obs::Obs;
use autonomous_data_services::serve::{
    AutonomyAction, AutonomyConfig, AutonomyController, CanaryConfig, FnModel, Gateway,
    GatewayConfig, PoisonScope, ServableModel, SloPolicy,
};
use std::sync::Arc;

fn main() {
    let obs = Obs::recording();
    let mut config = GatewayConfig::standard();
    config.breaker.guard_factor = 2.0;
    let gateway = Gateway::with_obs(config, obs.clone());
    let handle = gateway.register("demo/cardinality", |f: &[f64]| f[0]);

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
        // Retrainer: least-squares slope from recent (features, actual)
        // pairs. In the real system this would be a training pipeline.
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
        .expect("bootstrap publish");
    println!("bootstrap: v1 installed (predicts 1.05x, world is about to drift)");

    let mut poisoned = false;
    for t in 0..2000u64 {
        let sim_time = t as f64;
        let features = [1.0 + (t % 5) as f64];
        let p = gateway
            .predict(handle, &features, sim_time)
            .expect("registered");
        let actual = 1.3 * features[0]; // the drifted world
        let actions = ctl
            .observe(handle, &features, &p, actual, sim_time)
            .expect("supervised");
        for action in &actions {
            match action {
                AutonomyAction::RetrainScheduled { cause } => {
                    println!("t={t:4}  retrain scheduled ({cause})");
                }
                AutonomyAction::CandidateStaged { version, phase } => {
                    println!("t={t:4}  candidate v{version} staged in {}", phase.name());
                }
                AutonomyAction::CanaryStarted { version } => {
                    println!("t={t:4}  candidate v{version} advanced to canary traffic");
                }
                AutonomyAction::Promoted { version } => {
                    println!("t={t:4}  candidate v{version} promoted to primary");
                    if !poisoned {
                        // Sabotage: the promoted artifact corrupts in place.
                        gateway
                            .inject_faults(
                                handle,
                                ModelFaults::with_profile(
                                    7,
                                    0.05,
                                    0.05,
                                    4.0,
                                    PoisonProfile::Constant,
                                ),
                            )
                            .expect("registered");
                        gateway
                            .set_poison_scope(handle, PoisonScope::Version(*version))
                            .expect("registered");
                        poisoned = true;
                        println!("t={t:4}  !! v{version}'s artifact just corrupted (4x poison)");
                    }
                }
                AutonomyAction::Demoted { version, cause } => {
                    println!("t={t:4}  candidate v{version} demoted ({cause})");
                }
                AutonomyAction::RolledBack { version, cause } => {
                    println!("t={t:4}  rolled back to v{version} ({cause})");
                }
            }
        }
    }

    let final_version = gateway
        .current_version(handle)
        .expect("registered")
        .expect("published");
    let p = gateway.predict(handle, &[3.0], 5000.0).expect("registered");
    println!("\nfinal serving version: v{final_version}");
    println!(
        "predict([3.0]) = {:.4} (world says {:.4})",
        p.value,
        1.3 * 3.0
    );

    let trace = obs.snapshot();
    println!(
        "\ndeployment history ({} records):",
        trace.deployments.len()
    );
    for d in &trace.deployments {
        println!(
            "  t={:6.1}  {:13}  v{}  cause={}",
            d.sim_time,
            d.kind.name(),
            d.version,
            d.cause
        );
    }
    assert!(
        trace.deployments.iter().all(|d| d.cause != "manual"),
        "the loop ran unattended"
    );
    println!("\nno manual publish/rollback anywhere: the loop ran itself.");
}
