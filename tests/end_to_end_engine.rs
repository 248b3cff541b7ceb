//! End-to-end engine-layer integration: workload generation → analysis →
//! learned components → optimization → simulated execution.

use autonomous_data_services::engine::cardinality::{
    CardinalityModel, DefaultEstimator, TrueCardinality,
};
use autonomous_data_services::engine::cost::CostModel;
use autonomous_data_services::engine::exec::{ClusterConfig, SimOptions, Simulator};
use autonomous_data_services::engine::physical::StageDag;
use autonomous_data_services::engine::rules::{Optimizer, RuleSet};
use autonomous_data_services::learned::cardinality::{LearnedCardinality, TrainConfig};
use autonomous_data_services::learned::cost::{CostEnsemble, CostTrainConfig};
use autonomous_data_services::obs::Obs;
use autonomous_data_services::workload::analyze::WorkloadAnalysis;
use autonomous_data_services::workload::gen::{
    GeneratedWorkload, GeneratorConfig, WorkloadGenerator,
};

fn workload() -> GeneratedWorkload {
    WorkloadGenerator::new(GeneratorConfig {
        days: 6,
        jobs_per_day: 150,
        n_templates: 20,
        ..Default::default()
    })
    .expect("valid config")
    .generate()
    .expect("generation succeeds")
}

#[test]
fn every_generated_plan_compiles_optimizes_and_executes() {
    let w = workload();
    let est = DefaultEstimator::new(&w.catalog);
    let optimizer = Optimizer::default();
    let cost_model = CostModel::default();
    let sim =
        Simulator::with_obs(ClusterConfig::default(), Obs::disabled()).expect("valid cluster");
    for job in w.trace.jobs().iter().take(100) {
        job.plan
            .validate(&w.catalog)
            .expect("generated plans validate");
        let optimized = optimizer
            .optimize(&job.plan, RuleSet::all(), &est)
            .expect("optimization succeeds");
        optimized
            .plan
            .validate(&w.catalog)
            .expect("optimized plans stay valid");
        let dag = StageDag::compile(&optimized.plan, &w.catalog, &cost_model)
            .expect("compilation succeeds");
        let report = sim
            .run(&dag, &SimOptions::default())
            .expect("execution succeeds");
        assert!(report.latency > 0.0);
        assert!(report.total_cpu_seconds > 0.0);
    }
}

#[test]
fn optimizer_never_worsens_estimated_cost() {
    let w = workload();
    let est = DefaultEstimator::new(&w.catalog);
    let optimizer = Optimizer::default();
    let cost_model = CostModel::default();
    for job in w.trace.jobs().iter().take(100) {
        let before = cost_model
            .total_cost(&job.plan, &est)
            .expect("plan validates");
        let optimized = optimizer
            .optimize(&job.plan, RuleSet::all(), &est)
            .expect("optimization succeeds");
        assert!(
            optimized.estimated_cost <= before + 1e-6,
            "optimization regressed estimated cost: {} -> {}",
            before,
            optimized.estimated_cost
        );
    }
}

#[test]
fn learned_components_train_on_analyzed_workload() {
    let w = workload();
    let analysis = WorkloadAnalysis::analyze(&w.trace);
    assert!(analysis.stats().recurring_fraction > 0.5);

    let plans: Vec<_> = w.trace.jobs().iter().map(|j| j.plan.clone()).collect();
    let (cardinality, card_report) =
        LearnedCardinality::train(&w.catalog, &plans, TrainConfig::default());
    assert!(card_report.learned_q_error <= card_report.default_q_error);

    let (cost, cost_report) = CostEnsemble::train(&w.catalog, &plans, CostTrainConfig::default());
    assert!(cost_report.ensemble_mape <= cost_report.default_mape);

    // The learned estimator must agree with the oracle better than the
    // default on covered plans.
    let truth = TrueCardinality::new(&w.catalog);
    let default = DefaultEstimator::new(&w.catalog);
    let mut learned_better = 0usize;
    let mut covered = 0usize;
    for job in w.trace.jobs() {
        if !cardinality.covers(&job.plan) {
            continue;
        }
        covered += 1;
        let actual = truth.estimate(&job.plan).expect("plan validates");
        let learned_err = (cardinality.estimate(&job.plan).expect("plan validates") / actual)
            .ln()
            .abs();
        let default_err = (default.estimate(&job.plan).expect("plan validates") / actual)
            .ln()
            .abs();
        if learned_err <= default_err + 1e-9 {
            learned_better += 1;
        }
    }
    assert!(covered > 50, "coverage too small: {covered}");
    assert!(
        learned_better as f64 / covered as f64 > 0.8,
        "learned beat default on only {learned_better}/{covered}"
    );
    assert!(cost.micromodel_count() > 0);
}

#[test]
fn steered_ruleset_reduces_true_cost_when_promoted() {
    use autonomous_data_services::learned::steering::{SteeringConfig, SteeringController};
    use autonomous_data_services::workload::signature::template_signature;
    use std::collections::HashMap;

    let w = workload();
    let est = DefaultEstimator::new(&w.catalog);
    let truth = TrueCardinality::new(&w.catalog);
    let cost_model = CostModel::default();
    let optimizer = Optimizer::default();
    let mut by_template: HashMap<_, Vec<_>> = HashMap::new();
    for job in w.trace.jobs() {
        by_template
            .entry(template_signature(&job.plan))
            .or_default()
            .push(&job.plan);
    }
    by_template.retain(|_, v| v.len() >= 10);

    let true_cost = |plan: &autonomous_data_services::workload::plan::LogicalPlan,
                     rules: RuleSet| {
        let o = optimizer
            .optimize(plan, rules, &est)
            .expect("plan validates");
        cost_model
            .total_cost(&o.plan, &truth)
            .expect("plan validates")
    };
    let mut controller =
        SteeringController::with_obs(RuleSet::all(), SteeringConfig::default(), Obs::disabled());
    for round in 0..50 {
        for (&sig, plans) in &by_template {
            let plan = plans[round % plans.len()];
            let chosen = controller.choose(sig);
            let deployed = controller.deployed(sig);
            let c = true_cost(plan, chosen);
            let d = if chosen == deployed {
                c
            } else {
                true_cost(plan, deployed)
            };
            controller.observe(sig, chosen, c, d);
        }
    }
    // Every promoted template must genuinely be cheaper than the default.
    for (&sig, plans) in &by_template {
        let deployed = controller.deployed(sig);
        if deployed == RuleSet::all() {
            continue;
        }
        let steered: f64 = plans.iter().map(|p| true_cost(p, deployed)).sum();
        let default: f64 = plans.iter().map(|p| true_cost(p, RuleSet::all())).sum();
        assert!(
            steered <= default * 1.01,
            "steered template regressed: {steered} vs {default}"
        );
    }
}
