//! Cross-crate integration of the control plane: the granularity hierarchy
//! backed by real ML models, the feedback loop driving registry rollbacks,
//! and guardrails/fairness applied to service-layer decisions.

use autonomous_data_services::core::{
    joint_optimize, sequential_optimize, AlgorithmStore, Component, Decision, FairnessCheck,
    FeedbackLoop, GranularityRouter, GuardrailSet, LoopConfig, ModelRegistry, ModelScope,
    MonitorVerdict, Verdict,
};
use autonomous_data_services::ml::dataset::Dataset;
use autonomous_data_services::ml::linear::LinearRegression;
use autonomous_data_services::obs::Obs;
use autonomous_data_services::service::doppler::{
    generate_customers, standard_skus, true_best_sku, Doppler,
};

fn line(slope: f64, intercept: f64) -> LinearRegression {
    let pairs: Vec<(f64, f64)> = (0..10)
        .map(|i| (i as f64, intercept + slope * i as f64))
        .collect();
    LinearRegression::fit(&Dataset::from_xy(&pairs).expect("shape ok")).expect("fits")
}

#[test]
fn granularity_router_with_real_models() {
    // Global model: load = 2x; segment 3 model: load = 3x; entity 42: 5x.
    let mut router = GranularityRouter::new(line(2.0, 0.0), 3, 6);
    router.set_segment_model(3, line(3.0, 0.0));
    router.set_individual_model(42, line(5.0, 0.0));

    let check = |got: (f64, ModelScope), value: f64, scope: ModelScope| {
        assert!((got.0 - value).abs() < 1e-9, "{got:?} != {value}");
        assert_eq!(got.1, scope);
    };
    check(router.predict(42, 3, &[10.0]), 20.0, ModelScope::Global);
    for _ in 0..3 {
        router.record_observation(42, 3);
    }
    check(router.predict(42, 3, &[10.0]), 30.0, ModelScope::Segment);
    for _ in 0..3 {
        router.record_observation(42, 3);
    }
    check(router.predict(42, 3, &[10.0]), 50.0, ModelScope::Individual);
}

#[test]
fn feedback_loop_rolls_back_drifted_service_model() {
    // The "service" predicts per-server load; after drift its error grows
    // and the loop rolls back to the previous version.
    let mut registry = ModelRegistry::new();
    registry.deploy(line(1.0, 0.0), 0.1); // matches the world
    registry.deploy(line(4.0, 0.0), 0.1); // deployed with an optimistic error
    let mut feedback = FeedbackLoop::with_obs(
        LoopConfig {
            window: 16,
            ..Default::default()
        },
        Obs::disabled(),
    );
    let mut rolled_back = false;
    for i in 0..64 {
        let x = (i % 8) as f64;
        let current = registry.current().expect("deployed");
        let prediction = current.model.predict(&[x]);
        let actual = x; // the world is still y = x
        if feedback.observe(prediction, actual, current.deployment_error)
            == MonitorVerdict::Rollback
        {
            registry.rollback();
            feedback.reset();
            rolled_back = true;
            break;
        }
    }
    assert!(rolled_back, "drifted model must trigger rollback");
    let restored = registry.current().expect("deployed");
    assert!((restored.model.predict(&[5.0]) - 5.0).abs() < 1e-9);
}

use autonomous_data_services::ml::Regressor;

#[test]
fn guardrails_and_fairness_on_doppler_decisions() {
    let skus = standard_skus();
    let train = generate_customers(1200, 8, 0.12, 3);
    let doppler = Doppler::train(&train, skus.clone(), 8, 7).expect("trains");
    let test = generate_customers(240, 8, 0.12, 9);

    // Build decisions: predicted cost = recommended SKU price; baseline =
    // naive rule's price; perf proxy = provided vcores (higher = better, so
    // invert into a latency-like metric).
    let guards = GuardrailSet::standard();
    let mut decisions = Vec::new();
    let mut blocked = 0usize;
    for customer in &test {
        let (Some(rec), Some(naive)) = (doppler.recommend(customer), doppler.naive(customer))
        else {
            continue;
        };
        let decision = Decision {
            predicted_perf: 1.0 / skus[rec].vcores,
            baseline_perf: 1.0 / skus[naive].vcores,
            predicted_cost: skus[rec].price,
            baseline_cost: skus[naive].price,
            group: (customer.segment_truth % 3) as u32,
        };
        match guards.check(&decision) {
            Verdict::Allow => decisions.push(decision),
            Verdict::Block(_) => blocked += 1,
        }
    }
    assert!(!decisions.is_empty());
    // Guardrails may block some boundary decisions but not the majority.
    assert!(
        blocked < decisions.len(),
        "guardrails blocked too much: {blocked}"
    );
    // Fairness: no customer group is systematically disadvantaged.
    let (outcomes, flagged) = FairnessCheck { max_disparity: 0.2 }.flag_groups(&decisions);
    assert_eq!(outcomes.len(), 3);
    assert!(flagged.is_empty(), "flagged groups: {flagged:?}");
}

#[test]
fn doppler_recommendations_match_truth_end_to_end() {
    let skus = standard_skus();
    let train = generate_customers(1600, 8, 0.12, 3);
    let doppler = Doppler::train(&train, skus.clone(), 8, 7).expect("trains");
    let test = generate_customers(200, 8, 0.12, 11);
    let hits = test
        .iter()
        .filter(|c| doppler.recommend(c) == true_best_sku(&skus, c))
        .count();
    assert!(hits as f64 / test.len() as f64 > 0.95);
}

#[test]
fn algorithm_store_indexes_the_workspace() {
    let store = AlgorithmStore::standard();
    // Everything the store points at is a real workspace path.
    for entry in store.search("forecast") {
        assert!(entry.implementation.starts_with("adas_"));
    }
    // Direction-1 discovery flow: a new team searching for backup windows
    // should find the Seagull primitive.
    let results = store.search("backup window");
    assert!(results.iter().any(|e| e.name == "low-load-window"));
}

#[test]
fn joint_optimization_coordinates_provisioning_knobs() {
    // A two-knob pool/cap objective with interaction: total capacity must
    // cover demand while balancing the layers.
    let components = vec![
        Component::new("warm-pool", (0..=20).map(|i| i as f64).collect()),
        Component::new("autoscale-cap", (0..=20).map(|i| i as f64).collect()),
    ];
    let demand = 18.0;
    let objective = |s: &[f64]| {
        let shortfall = (demand - (s[0] + s[1])).max(0.0);
        let imbalance = (s[0] - s[1]).powi(2) * 0.2;
        let cost = s[0] * 1.5 + s[1]; // warm pools are pricier
        shortfall * 100.0 + imbalance + cost
    };
    let seq = sequential_optimize(&components, objective);
    let joint = joint_optimize(&components, objective, 20);
    assert!(joint.objective <= seq.objective);
    assert!(joint.settings[0] + joint.settings[1] >= demand);
}

#[test]
fn controller_closes_the_loop_for_served_cardinality() {
    // End to end through the PR-5 consumer: a learned cardinality model
    // drifts, the controller retrains it from observed outcomes, evaluates
    // the candidate in shadow then canary, and promotes — all through
    // `ServedCardinality::observe_actual`, no manual deployment calls.
    use autonomous_data_services::engine::cardinality::CardinalityModel;
    use autonomous_data_services::learned::cardinality::{LearnedCardinality, TrainConfig};
    use autonomous_data_services::learned::serving::cardinality_model_name;
    use autonomous_data_services::obs::Obs;
    use autonomous_data_services::serve::{
        AutonomyAction, AutonomyConfig, AutonomyController, CanaryConfig, FnModel, Gateway,
        GatewayConfig, ServableModel, SloPolicy,
    };
    use autonomous_data_services::workload::gen::{GeneratorConfig, WorkloadGenerator};
    use autonomous_data_services::workload::signature::template_signature;
    use std::sync::Arc;

    let w = WorkloadGenerator::new(GeneratorConfig {
        days: 6,
        jobs_per_day: 150,
        n_templates: 20,
        ..Default::default()
    })
    .unwrap()
    .generate()
    .unwrap();
    let plans: Vec<_> = w.trace.jobs().iter().map(|j| j.plan.clone()).collect();
    let (direct, _) = LearnedCardinality::train(&w.catalog, &plans, TrainConfig::default());
    let obs = Obs::recording();
    let gateway = Gateway::with_obs(GatewayConfig::standard(), obs.clone());
    let served = direct.publish(&gateway);
    let plan = plans
        .iter()
        .find(|p| served.covers(p))
        .expect("trained coverage");
    let handle = gateway
        .resolve(&cardinality_model_name(template_signature(plan)))
        .expect("published template");

    let mut ctl = AutonomyController::new(gateway.clone(), obs.clone());
    ctl.supervise(
        handle,
        AutonomyConfig {
            monitor: autonomous_data_services::core::LoopConfig {
                window: 10,
                retrain_factor: 1.5,
                rollback_factor: 8.0,
            },
            canary: CanaryConfig {
                traffic_pct: 40,
                shadow_first: true,
                min_decisions: 5,
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
            min_retrain_observations: 10,
        },
        // Constant fit in ln-rows space: the template's observed outcomes.
        Box::new(|history: &[(Vec<f64>, f64)]| {
            let c = history.iter().map(|(_, y)| *y).sum::<f64>() / history.len() as f64;
            Some((
                Arc::new(FnModel(move |_: &[f64]| c)) as Arc<dyn ServableModel>,
                0.05,
            ))
        }),
    );

    // The world changed: this template now always yields 1000 rows.
    let mut actions = Vec::new();
    for t in 0..600u64 {
        let sim_time = t as f64;
        served.set_sim_time(sim_time);
        served.estimate(plan).unwrap();
        if let Some(step) = served.observe_actual(plan, 1000.0, &mut ctl, sim_time) {
            actions.extend(step);
        }
    }
    assert!(
        actions
            .iter()
            .any(|a| matches!(a, AutonomyAction::RetrainScheduled { .. })),
        "drift must schedule a retrain: {actions:?}"
    );
    assert!(
        actions
            .iter()
            .any(|a| matches!(a, AutonomyAction::Promoted { .. })),
        "the retrained template model must promote: {actions:?}"
    );
    // The promoted model now tracks the new world.
    served.set_sim_time(1000.0);
    let rows = served.estimate(plan).unwrap();
    assert!(
        (rows - 1000.0).abs() / 1000.0 < 0.05,
        "estimate {rows} should track the new cardinality"
    );
    assert!(gateway.current_version(handle).unwrap().unwrap() >= 2);
}
