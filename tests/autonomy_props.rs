//! Property tests for the autonomy loop's two safety invariants:
//!
//! 1. **Rollback lands healthy** — whenever the controller rolls back
//!    automatically, the version it lands on serves with a windowed
//!    observed error back inside the guard threshold: subsequent requests
//!    are answered by the model (no guard trips) and the windowed error is
//!    below the monitor's rollback line.
//! 2. **Promotion floor** — canary promotion can never happen from fewer
//!    than `min_decisions * promote_streak` observations of the candidate:
//!    the gap between staging and promotion is bounded below, whatever the
//!    traffic split, window size, or streak requirement.

use autonomous_data_services::core::feedback::LoopConfig;
use autonomous_data_services::faultsim::{ModelFaults, PoisonProfile};
use autonomous_data_services::obs::Obs;
use autonomous_data_services::serve::{
    AutonomyAction, AutonomyConfig, AutonomyController, CanaryConfig, FallbackCause, FnModel,
    Gateway, GatewayConfig, PoisonScope, Retrainer, ServableModel, SloPolicy, Source,
};
use proptest::prelude::*;
use std::sync::Arc;

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

fn base_config() -> AutonomyConfig {
    AutonomyConfig {
        monitor: LoopConfig {
            window: 15,
            retrain_factor: 1.5,
            rollback_factor: 6.0,
        },
        canary: CanaryConfig {
            traffic_pct: 30,
            shadow_first: true,
            min_decisions: 8,
            promote_streak: 2,
            demote_streak: 2,
            promote_error_factor: 1.2,
            demote_error_factor: 2.0,
            restage_backoff_ticks: 8.0,
            max_restage_backoff_ticks: 64.0,
        },
        slo: SloPolicy::default(),
        guarded_streak: 4,
        breaker_open_streak: 10,
        retrain_cooldown_ticks: 4.0,
        min_retrain_observations: 15,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1: after any automatic rollback, the landed version's
    /// windowed observed error is under the guard threshold — its serves
    /// come from the model path and the windowed mean error sits below the
    /// rollback line that just fired.
    #[test]
    fn auto_rollback_lands_on_guard_healthy_version(
        seed in 1u64..1000,
        poison_factor in 2.5f64..8.0,
    ) {
        let obs = Obs::recording();
        let mut config = GatewayConfig::standard();
        config.breaker.guard_factor = 1.5;
        let gateway = Gateway::with_obs(config, obs.clone());
        let handle = gateway.register("m", |f: &[f64]| f[0]);
        let mut ctl = AutonomyController::new(gateway.clone(), obs);
        ctl.supervise(handle, base_config(), scalar_retrainer());
        // v1 and v2 are both honest; the world matches them.
        ctl.install(handle, Arc::new(FnModel(|f: &[f64]| 1.02 * f[0])), 0.05, 0.0)
            .unwrap();
        ctl.install(handle, Arc::new(FnModel(|f: &[f64]| 1.02 * f[0])), 0.06, 1.0)
            .unwrap();
        // v2's artifact corrupts.
        gateway
            .inject_faults(
                handle,
                ModelFaults::with_profile(seed, 0.0, 0.0, poison_factor, PoisonProfile::Constant),
            )
            .unwrap();
        gateway
            .set_poison_scope(handle, PoisonScope::Version(2))
            .unwrap();
        let world = |f: &[f64]| 1.02 * f[0];
        let mut landed = None;
        for t in 0..200u64 {
            let sim_time = 2.0 + t as f64;
            let features = [1.0 + (t % 5) as f64];
            let p = gateway.predict(handle, &features, sim_time).unwrap();
            let acts = ctl
                .observe(handle, &features, &p, world(&features), sim_time)
                .unwrap();
            if let Some(v) = acts.iter().find_map(|a| match a {
                AutonomyAction::RolledBack { version, .. } => Some(*version),
                _ => None,
            }) {
                landed = Some((v, sim_time));
                break;
            }
        }
        let (landed_version, rolled_at) = landed.expect("poisoned v2 must roll back");
        prop_assert_eq!(
            gateway.current_version(handle).unwrap(),
            Some(landed_version)
        );
        // The landed version serves a full monitor window cleanly.
        let window = 15usize;
        let mut errors = Vec::with_capacity(window);
        for t in 0..window as u64 {
            let sim_time = rolled_at + 1.0 + t as f64;
            let features = [1.0 + (t % 5) as f64];
            let p = gateway.predict(handle, &features, sim_time).unwrap();
            prop_assert!(
                p.source != Source::Fallback(FallbackCause::Guarded),
                "landed version must not trip the guard, got {:?}",
                p.source
            );
            errors.push((p.value - world(&features)).abs());
        }
        let windowed = errors.iter().sum::<f64>() / errors.len() as f64;
        // Under the line that fired: deployment error of the landed
        // artifact (0.05) times the rollback factor (6.0).
        prop_assert!(
            windowed < 6.0 * 0.05,
            "windowed error {} not under the guard threshold",
            windowed
        );
    }

    /// Property 2: promotion never happens from fewer than
    /// `min_decisions * promote_streak` candidate observations. One tick
    /// contributes at most one candidate observation, so the tick gap
    /// between staging and promotion bounds the evidence from below.
    #[test]
    fn promotion_never_undershoots_min_decisions(
        min_decisions in 2usize..15,
        promote_streak in 1u32..4,
        traffic_pct in 10u8..90,
        shadow_first_bit in 0u8..2,
    ) {
        let obs = Obs::recording();
        let gconfig = GatewayConfig::standard();
        let gateway = Gateway::with_obs(gconfig, obs.clone());
        let handle = gateway.register("m", |f: &[f64]| f[0]);
        let mut ctl = AutonomyController::new(gateway.clone(), obs);
        let mut config = base_config();
        config.canary.min_decisions = min_decisions;
        config.canary.promote_streak = promote_streak;
        config.canary.traffic_pct = traffic_pct;
        config.canary.shadow_first = shadow_first_bit == 1;
        ctl.supervise(handle, config, scalar_retrainer());
        ctl.install(handle, Arc::new(FnModel(|f: &[f64]| 1.05 * f[0])), 0.2, 0.0)
            .unwrap();
        let mut staged_tick = None;
        let mut promoted_gap = None;
        for t in 0..3000u64 {
            let sim_time = t as f64;
            let features = [1.0 + (t % 5) as f64];
            let p = gateway.predict(handle, &features, sim_time).unwrap();
            let actual = 1.3 * features[0]; // drifted world drives a retrain
            let acts = ctl
                .observe(handle, &features, &p, actual, sim_time)
                .unwrap();
            for a in acts {
                match a {
                    AutonomyAction::CandidateStaged { .. } => {
                        staged_tick.get_or_insert(t);
                    }
                    AutonomyAction::Promoted { .. } => {
                        let staged = staged_tick.expect("promotion implies staging");
                        promoted_gap.get_or_insert(t - staged);
                    }
                    _ => {}
                }
            }
            if promoted_gap.is_some() {
                break;
            }
        }
        if let Some(gap) = promoted_gap {
            let floor = (min_decisions as u64) * (promote_streak as u64);
            prop_assert!(
                gap >= floor,
                "promoted after {} ticks; hysteresis floor is {} observations",
                gap,
                floor
            );
        }
    }
}
