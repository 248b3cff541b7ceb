//! Integration of computation reuse, pipeline optimization and checkpoint
//! placement over one workload.

use autonomous_data_services::checkpoint::{
    evaluate, plan_checkpoints, PhoebeConfig, StagePredictor,
};
use autonomous_data_services::engine::cost::CostModel;
use autonomous_data_services::engine::exec::{ClusterConfig, SimOptions, Simulator};
use autonomous_data_services::engine::physical::StageDag;
use autonomous_data_services::obs::Obs;
use autonomous_data_services::pipeline::{optimize_pipelines, schedule, PipelineGraph, Policy};
use autonomous_data_services::reuse::{
    replay, rewrite_plan, MatchPolicy, ReplayConfig, SelectionConfig, ViewCatalog,
};
use autonomous_data_services::workload::gen::{GeneratorConfig, WorkloadGenerator};

fn workload() -> autonomous_data_services::workload::gen::GeneratedWorkload {
    WorkloadGenerator::new(GeneratorConfig {
        days: 5,
        jobs_per_day: 100,
        n_templates: 16,
        shared_template_fraction: 0.7,
        ..Default::default()
    })
    .expect("valid config")
    .generate()
    .expect("generation succeeds")
}

#[test]
fn view_rewrites_preserve_validity_and_reduce_cost() {
    let w = workload();
    let plans: Vec<_> = w
        .trace
        .jobs()
        .iter()
        .take(250)
        .map(|j| j.plan.clone())
        .collect();
    let views = ViewCatalog::select(&plans, &w.catalog, &SelectionConfig::default());
    assert!(!views.is_empty());
    let extended = views.extend_catalog(&w.catalog);
    let cost_model = CostModel::default();
    let truth = autonomous_data_services::engine::cardinality::TrueCardinality::new(&w.catalog);
    let truth_ext = autonomous_data_services::engine::cardinality::TrueCardinality::new(&extended);

    // ISSUE 2: a per-job bound `after <= 1.05 * before` is not structurally
    // guaranteed. `TrueCardinality`'s correlation factors are keyed on
    // template signatures; view scans now expand to their definitions
    // (`Catalog::register_view`), which makes exact-match rewrites
    // truth-invariant — but semantic and containment hits still replace a
    // subtree with a differently-shaped one, so ancestor factors can shift
    // either way. Reuse is a *fleet-level* win: assert the aggregate cost
    // over all hit jobs decreases, not each job individually.
    let mut hits = 0usize;
    let (mut total_before, mut total_after) = (0.0f64, 0.0f64);
    for job in w.trace.jobs().iter().skip(250) {
        let outcome = rewrite_plan(&job.plan, &views, MatchPolicy::full());
        outcome
            .plan
            .validate(&extended)
            .expect("rewritten plans validate");
        if outcome.hits > 0 {
            hits += 1;
            total_before += cost_model.total_cost(&job.plan, &truth).expect("validates");
            total_after += cost_model
                .total_cost(&outcome.plan, &truth_ext)
                .expect("validates");
        }
    }
    assert!(hits > 20, "too few view hits: {hits}");
    assert!(
        total_after <= total_before * 1.05,
        "rewrites must not blow up aggregate cost: {total_before} -> {total_after}"
    );
}

#[test]
fn replay_improvement_consistent_with_policies() {
    let w = workload();
    let syntactic = replay(
        &w.trace,
        &w.catalog,
        &ReplayConfig {
            policy: MatchPolicy::syntactic_only(),
            ..Default::default()
        },
    )
    .expect("replay runs");
    let full = replay(&w.trace, &w.catalog, &ReplayConfig::default()).expect("replay runs");
    assert!(full.total_hits >= syntactic.total_hits);
    assert!(full.jobs_evaluated == syntactic.jobs_evaluated);
}

#[test]
fn pipeline_optimization_composes_with_scheduling() {
    let w = workload();
    let graph = PipelineGraph::build(&w.trace);
    let stats = graph.stats(&w.trace);
    assert!(stats.pipelined_fraction > 0.5);

    let (jobs, extended, report) = optimize_pipelines(&w.trace, &w.catalog).expect("optimizes");
    assert_eq!(jobs.len(), w.trace.len(), "pushdown never drops jobs");
    for job in &jobs {
        job.plan
            .validate(&extended)
            .expect("rewritten plans validate");
    }
    // Work never increases beyond the one-time materialization.
    assert!(report.optimized_work <= report.baseline_work * 1.2);

    // Scheduling both traces works and respects dependencies.
    let baseline = schedule(
        &w.trace,
        &w.catalog,
        8,
        1e7,
        Policy::CriticalPath,
        &Obs::disabled(),
    )
    .expect("schedules");
    let optimized = schedule(
        &autonomous_data_services::workload::job::Trace::new(jobs),
        &extended,
        8,
        1e7,
        Policy::CriticalPath,
        &Obs::disabled(),
    )
    .expect("schedules");
    assert!(baseline.makespan > 0.0);
    assert!(optimized.makespan > 0.0);
}

#[test]
fn checkpoints_work_on_generated_jobs() {
    let w = workload();
    let cost_model = CostModel::default();
    let cluster = ClusterConfig::default();
    let sim = Simulator::with_obs(cluster, Obs::disabled()).expect("valid cluster");

    // Train the predictor on a handful of real generated jobs.
    let history: Vec<(StageDag, _)> = w
        .trace
        .jobs()
        .iter()
        .take(6)
        .map(|j| {
            let dag = StageDag::compile(&j.plan, &w.catalog, &cost_model).expect("compiles");
            let report = sim.run(&dag, &SimOptions::default()).expect("simulates");
            (dag, report)
        })
        .collect();
    let refs: Vec<_> = history.iter().map(|(d, r)| (d, r)).collect();
    let predictor = StagePredictor::train(&refs).expect("enough stages");

    // Checkpoint a later job and confirm the evaluation is well-formed.
    let job = &w.trace.jobs()[50];
    let dag = StageDag::compile(&job.plan, &w.catalog, &cost_model).expect("compiles");
    let forecast = predictor.forecast(&dag);
    let plan = plan_checkpoints(&dag, &forecast, &PhoebeConfig::default(), &Obs::disabled());
    let report = evaluate(&dag, &plan, cluster, 0.8, &Obs::disabled()).expect("evaluates");
    assert!(report.baseline_latency > 0.0);
    assert!(report.ckpt_recovery <= report.baseline_recovery + 1e-9);
    assert!(report.hotspot_reduction >= 0.0);
}
