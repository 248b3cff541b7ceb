//! C4 — rule-hint steering in production style (Sec 4.2, \[35, 51\]).
//!
//! The controller explores the Hamming-1 neighbourhood of each recurring
//! template's deployed rule configuration, promotes only validated
//! improvements, and must end with **zero deployed regressions** — the
//! production bar that forced the paper's "small incremental steps" and
//! "validation model" adaptations. Improvement comes from templates where
//! the default cost model misleads the optimizer into harmful rewrites.

use crate::Row;
use adas_engine::cardinality::{DefaultEstimator, TrueCardinality};
use adas_engine::cost::CostModel;
use adas_engine::rules::{Optimizer, RuleSet};
use adas_learned::steering::{SteeringConfig, SteeringController};
use adas_obs::Obs;
use adas_workload::gen::{GeneratorConfig, WorkloadGenerator};
use adas_workload::plan::LogicalPlan;
use adas_workload::signature::template_signature;
use std::collections::HashMap;

/// Drives the controller for `epochs` passes over the recurring templates
/// and returns `(controller stats, deployed-vs-default improvement,
/// deployed regression count)` plus the evaluation rows.
pub fn run_with(epochs: usize, config: SteeringConfig) -> Vec<Row> {
    let gen_config = GeneratorConfig {
        days: 8,
        jobs_per_day: 250,
        n_templates: 25,
        ..Default::default()
    };
    let workload = WorkloadGenerator::new(gen_config)
        .expect("valid config")
        .generate()
        .expect("generation succeeds");
    let catalog = workload.catalog;
    let est = DefaultEstimator::new(&catalog);
    let truth = TrueCardinality::new(&catalog);
    let cost_model = CostModel::default();
    let optimizer = Optimizer::default();

    // Group recurring instances by template signature.
    let mut by_template: HashMap<_, Vec<&LogicalPlan>> = HashMap::new();
    for job in workload.trace.jobs() {
        by_template
            .entry(template_signature(&job.plan))
            .or_default()
            .push(&job.plan);
    }
    by_template.retain(|_, v| v.len() >= 10);

    let true_cost = |plan: &LogicalPlan, rules: RuleSet| -> f64 {
        let optimized = optimizer
            .optimize(plan, rules, &est)
            .expect("plans validate");
        cost_model
            .total_cost(&optimized.plan, &truth)
            .expect("plans validate")
    };

    let mut controller = SteeringController::with_obs(RuleSet::all(), config, Obs::disabled());
    for epoch in 0..epochs {
        for (&sig, plans) in &by_template {
            let plan = plans[epoch % plans.len()];
            let chosen = controller.choose(sig);
            let deployed = controller.deployed(sig);
            let chosen_cost = true_cost(plan, chosen);
            let deployed_cost = if chosen == deployed {
                chosen_cost
            } else {
                true_cost(plan, deployed)
            };
            controller.observe(sig, chosen, chosen_cost, deployed_cost);
        }
    }

    // Final evaluation: deployed config vs the engine default (all rules),
    // averaged over each template's instances.
    let mut improvements = Vec::new();
    let mut regressions = 0usize;
    for (&sig, plans) in &by_template {
        let deployed = controller.deployed(sig);
        if deployed == RuleSet::all() {
            continue; // unsteered template: identical to default by definition
        }
        let deployed_cost: f64 = plans.iter().map(|p| true_cost(p, deployed)).sum();
        let default_cost: f64 = plans.iter().map(|p| true_cost(p, RuleSet::all())).sum();
        let rel = (default_cost - deployed_cost) / default_cost;
        improvements.push(rel);
        if rel < -0.01 {
            regressions += 1;
        }
    }
    let stats = controller.stats();
    let mean_improvement = if improvements.is_empty() {
        0.0
    } else {
        improvements.iter().sum::<f64>() / improvements.len() as f64
    };

    vec![
        Row::measured_only(
            "C4",
            "recurring templates managed",
            stats.templates as f64,
            "templates",
        ),
        Row::measured_only(
            "C4",
            "templates steered off default",
            stats.templates_steered as f64,
            "templates",
        ),
        Row::measured_only(
            "C4",
            "promotions (incremental steps)",
            stats.promotions as f64,
            "steps",
        ),
        Row::measured_only(
            "C4",
            "candidates blocked by validation model",
            stats.rejected_by_validation as f64,
            "arms",
        ),
        Row::measured_only(
            "C4",
            "mean true-cost improvement of steered templates",
            mean_improvement,
            "fraction",
        ),
        Row::with_paper(
            "C4",
            "deployed regressions (paper bar: 0)",
            0.0,
            regressions as f64,
            "templates",
        ),
    ]
}

/// Runs the experiment with default settings.
pub fn run() -> Vec<Row> {
    run_with(60, SteeringConfig::default())
}

#[cfg(test)]
mod tests {
    #[test]
    fn c4_steering_improves_without_regressions() {
        let rows = super::run();
        let get = |m: &str| {
            rows.iter()
                .find(|r| r.metric.starts_with(m))
                .unwrap()
                .measured
        };
        assert_eq!(get("deployed regressions"), 0.0);
        assert!(get("recurring templates managed") >= 10.0);
        // Steering should find at least one template to improve, and the
        // improvement must be real.
        if get("templates steered off default") > 0.0 {
            assert!(get("mean true-cost improvement") > 0.0);
        }
    }
}
