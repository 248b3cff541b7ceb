//! Engine-layer tour over a recurring workload: computation reuse
//! (CloudViews), rule-hint steering, and checkpoint optimization (Phoebe)
//! applied to the same SCOPE-like trace — with the steering bandit's hint
//! provenance and Phoebe's cut decisions recorded into one flight-recorder
//! trace, and progress printed as machine-parseable JSON event lines.
//!
//! Run with: `cargo run --release --example recurring_jobs`

use autonomous_data_services::checkpoint::{
    evaluate, plan_checkpoints, PhoebeConfig, StagePredictor,
};
use autonomous_data_services::engine::cardinality::{DefaultEstimator, TrueCardinality};
use autonomous_data_services::engine::cost::CostModel;
use autonomous_data_services::engine::exec::{ClusterConfig, SimOptions, Simulator};
use autonomous_data_services::engine::physical::StageDag;
use autonomous_data_services::engine::rules::{Optimizer, RuleSet};
use autonomous_data_services::learned::steering::{SteeringConfig, SteeringController};
use autonomous_data_services::obs::Obs;
use autonomous_data_services::reuse::{replay, ReplayConfig};
use autonomous_data_services::workload::gen::{GeneratorConfig, WorkloadGenerator};
use autonomous_data_services::workload::plan::{CmpOp, LogicalPlan, Predicate};
use autonomous_data_services::workload::signature::template_signature;
use std::collections::HashMap;

/// Records a progress event and prints it as one JSON line.
fn emit(obs: &Obs, name: &str, fields: &[(&str, &str)]) {
    obs.event("example.recurring_jobs", name, 0.0, fields);
    println!("{}", obs.last_event_json().expect("recording"));
}

fn main() {
    let obs = Obs::recording();
    let workload = WorkloadGenerator::new(GeneratorConfig {
        days: 6,
        jobs_per_day: 120,
        n_templates: 20,
        shared_template_fraction: 0.7,
        ..Default::default()
    })
    .expect("valid config")
    .generate()
    .expect("generation succeeds");
    emit(
        &obs,
        "workload_generated",
        &[("jobs", &workload.trace.len().to_string())],
    );

    // --- CloudViews: train views on the first half, replay the second.
    let report = replay(
        &workload.trace,
        &workload.catalog,
        &ReplayConfig {
            train_fraction: 0.3,
            ..Default::default()
        },
    )
    .expect("replay runs");
    emit(
        &obs,
        "cloudviews_replayed",
        &[
            ("views", &report.views_selected.to_string()),
            (
                "latency_improvement_pct",
                &format!("{:.0}", report.latency_improvement * 100.0),
            ),
            (
                "cpu_reduction_pct",
                &format!("{:.0}", report.cpu_reduction * 100.0),
            ),
            ("hits", &report.total_hits.to_string()),
            ("containment_hits", &report.containment_hits.to_string()),
        ],
    );

    // --- Steering: bandit over rule hints for the most frequent template.
    //     Every observed hint lands in the flight recorder with provenance.
    let est = DefaultEstimator::new(&workload.catalog);
    let truth = TrueCardinality::new(&workload.catalog);
    let cost_model = CostModel::default();
    let optimizer = Optimizer::default();
    let mut by_template: HashMap<_, Vec<_>> = HashMap::new();
    for job in workload.trace.jobs() {
        by_template
            .entry(template_signature(&job.plan))
            .or_default()
            .push(&job.plan);
    }
    by_template.retain(|_, v| v.len() >= 10);
    let mut controller =
        SteeringController::with_obs(RuleSet::all(), SteeringConfig::default(), obs.clone());
    let true_cost = |plan: &LogicalPlan, rules: RuleSet| {
        let optimized = optimizer
            .optimize(plan, rules, &est)
            .expect("plan validates");
        cost_model
            .total_cost(&optimized.plan, &truth)
            .expect("plan validates")
    };
    for round in 0..60 {
        for (&sig, instances) in &by_template {
            let plan = instances[round % instances.len()];
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
    let stats = controller.stats();
    emit(
        &obs,
        "steering_converged",
        &[
            ("templates_steered", &stats.templates_steered.to_string()),
            ("templates", &stats.templates.to_string()),
            ("promotions", &stats.promotions.to_string()),
            (
                "rejected_by_validation",
                &stats.rejected_by_validation.to_string(),
            ),
            ("mean_reward", &format!("{:.3}", stats.mean_reward)),
        ],
    );

    // --- Phoebe: checkpoint a large recurring job.
    let big = {
        let branch = |i: i64| {
            LogicalPlan::join(
                LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Le, 200 + i * 9)),
                LogicalPlan::scan("users"),
                0,
                0,
            )
            .aggregate(vec![1])
        };
        let mut plan = branch(0);
        for i in 1..24 {
            plan = LogicalPlan::union(plan, branch(i));
        }
        plan.aggregate(vec![1])
    };
    let cluster = ClusterConfig {
        machines: 32,
        ..Default::default()
    };
    let sim = Simulator::with_obs(cluster, Obs::disabled()).expect("valid cluster");
    let dag = StageDag::compile(&big, &workload.catalog, &cost_model).expect("plan validates");
    let history: Vec<_> = [100i64, 300, 500]
        .iter()
        .map(|&v| {
            let small = LogicalPlan::join(
                LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Le, v)),
                LogicalPlan::scan("users"),
                0,
                0,
            )
            .aggregate(vec![1]);
            let d = StageDag::compile(&small, &workload.catalog, &cost_model).expect("validates");
            let r = sim.run(&d, &SimOptions::default()).expect("simulates");
            (d, r)
        })
        .collect();
    let refs: Vec<_> = history.iter().map(|(d, r)| (d, r)).collect();
    let predictor = StagePredictor::train(&refs).expect("enough stages");
    let forecast = predictor.forecast(&dag);
    let config = PhoebeConfig {
        max_cuts: 3,
        hotspot_threshold: 0.05,
        ..Default::default()
    };
    let plan = plan_checkpoints(&dag, &forecast, &config, &obs);
    let phoebe = evaluate(&dag, &plan, cluster, 0.85, &obs).expect("simulates");
    emit(
        &obs,
        "phoebe_evaluated",
        &[
            ("stages_checkpointed", &plan.stages.len().to_string()),
            ("stages", &dag.len().to_string()),
            (
                "hotspot_reduction_pct",
                &format!("{:.0}", phoebe.hotspot_reduction * 100.0),
            ),
            (
                "restart_speedup_pct",
                &format!("{:.0}", phoebe.restart_speedup * 100.0),
            ),
            ("slowdown_pct", &format!("{:.1}", phoebe.slowdown * 100.0)),
        ],
    );

    // One trace holds the bandit's promotions and Phoebe's cuts alike.
    let trace = obs.snapshot();
    emit(
        &obs,
        "trace_summary",
        &[
            ("spans", &trace.spans.len().to_string()),
            (
                "hints_recorded",
                &trace
                    .query()
                    .component("learned.steering")
                    .decisions()
                    .len()
                    .to_string(),
            ),
            (
                "cuts_recorded",
                &trace.events_named("cut_selected").count().to_string(),
            ),
        ],
    );
}
