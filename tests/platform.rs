//! Integration of the platform pieces: the Peregrine feedback loop closed
//! end-to-end, interchange formats crossing "system" boundaries, and the
//! RAI gate over real recommender decisions.

use autonomous_data_services::core::rai::AssessmentStatus;
use autonomous_data_services::core::{Assessment, Decision};
use autonomous_data_services::engine::cardinality::{CardinalityModel, DefaultEstimator};
use autonomous_data_services::engine::cost::CostModel;
use autonomous_data_services::engine::exec::{ClusterConfig, SimOptions, Simulator};
use autonomous_data_services::engine::feedback::FeedbackStore;
use autonomous_data_services::engine::physical::StageDag;
use autonomous_data_services::learned::cardinality::{LearnedCardinality, TrainConfig};
use autonomous_data_services::ml::bundle::{ModelBundle, ModelKind};
use autonomous_data_services::ml::forecast::{Forecaster, SeasonalNaive};
use autonomous_data_services::obs::Obs;
use autonomous_data_services::workload::evolution::analyze_evolution;
use autonomous_data_services::workload::gen::{GeneratorConfig, WorkloadGenerator};
use autonomous_data_services::workload::interchange::{export_plan, import_plan};

#[test]
fn execute_record_train_loop_beats_default() {
    // The full production loop: execute jobs on the cluster simulator,
    // record feedback, train micromodels from the feedback, verify they
    // beat the default estimator on fresh instances of covered templates.
    let w = WorkloadGenerator::new(GeneratorConfig {
        days: 6,
        jobs_per_day: 100,
        n_templates: 15,
        ..Default::default()
    })
    .expect("valid config")
    .generate()
    .expect("generates");
    let sim = Simulator::with_obs(ClusterConfig::default(), Obs::disabled()).expect("valid");
    let cost_model = CostModel::default();
    let mut store = FeedbackStore::new();
    let (train_jobs, eval_jobs) = w.trace.jobs().split_at(400);
    for job in train_jobs.iter().take(120) {
        // Execute a sample on the simulator (latency recorded), the rest
        // record stats without a full simulation.
        let report = if job.id.raw() % 10 == 0 {
            let dag = StageDag::compile(&job.plan, &w.catalog, &cost_model).expect("compiles");
            Some(sim.run(&dag, &SimOptions::default()).expect("simulates"))
        } else {
            None
        };
        store
            .record_execution(&job.plan, &w.catalog, report.as_ref())
            .expect("records");
    }
    for job in train_jobs.iter().skip(120) {
        store
            .record_execution(&job.plan, &w.catalog, None)
            .expect("records");
    }

    let (model, report) =
        LearnedCardinality::train_from_feedback(&w.catalog, &store, TrainConfig::default());
    assert!(report.models_kept > 0);

    let truth = autonomous_data_services::engine::cardinality::TrueCardinality::new(&w.catalog);
    let default = DefaultEstimator::new(&w.catalog);
    let mut learned_wins = 0usize;
    let mut covered = 0usize;
    for job in eval_jobs {
        if !model.covers(&job.plan) {
            continue;
        }
        covered += 1;
        let actual = truth.estimate(&job.plan).expect("validates");
        let learned_err = (model.estimate(&job.plan).expect("validates") / actual)
            .ln()
            .abs();
        let default_err = (default.estimate(&job.plan).expect("validates") / actual)
            .ln()
            .abs();
        if learned_err <= default_err + 1e-9 {
            learned_wins += 1;
        }
    }
    assert!(covered > 30, "coverage too small: {covered}");
    assert!(learned_wins as f64 / covered as f64 > 0.8);
}

#[test]
fn plan_travels_between_engines_with_model_bundle() {
    // An "optimizer service" exports plan + model; a "deployment target"
    // imports both and reproduces the estimate exactly.
    let w = WorkloadGenerator::new(GeneratorConfig {
        days: 5,
        jobs_per_day: 100,
        n_templates: 12,
        ..Default::default()
    })
    .expect("valid config")
    .generate()
    .expect("generates");
    let plans: Vec<_> = w.trace.jobs().iter().map(|j| j.plan.clone()).collect();
    let (model, _) = LearnedCardinality::train(&w.catalog, &plans, TrainConfig::default());
    let covered = plans
        .iter()
        .find(|p| model.covers(p))
        .expect("a covered plan exists");

    // Export the plan across the wire.
    let wire = export_plan("engine-a", covered).expect("exports");
    let received = import_plan(&wire).expect("imports");
    assert_eq!(&received, covered);

    // Ship a forecaster in a bundle alongside.
    let values: Vec<f64> = (0..72).map(|i| (i % 24) as f64).collect();
    let forecaster = SeasonalNaive::fit(&values, 24).expect("fits");
    let bundle = ModelBundle::pack(ModelKind::SeasonalNaive, "arrivals", &forecaster)
        .expect("packs")
        .to_json()
        .expect("serializes");
    let restored: SeasonalNaive = ModelBundle::from_json(&bundle)
        .expect("parses")
        .unpack(ModelKind::SeasonalNaive)
        .expect("unpacks");
    assert_eq!(forecaster.forecast(24), restored.forecast(24));
}

#[test]
fn evolution_feeds_capacity_planning() {
    let w = WorkloadGenerator::new(GeneratorConfig {
        days: 8,
        jobs_per_day: 200,
        n_templates: 15,
        ..Default::default()
    })
    .expect("valid config")
    .generate()
    .expect("generates");
    let evolution = analyze_evolution(&w.trace, 20, 0.15, 3);
    assert!(evolution.days == 8);
    assert!(!evolution.templates.is_empty());
    // Volume forecast is usable and non-negative.
    let forecast = evolution.forecast_volume(3);
    assert_eq!(forecast.len(), 3);
    assert!(forecast.iter().all(|&v| v >= 0.0));
    // Steady generator → forecast near the observed daily mean.
    let mean = evolution.daily_volume.iter().sum::<f64>() / evolution.days as f64;
    assert!((forecast[0] - mean).abs() < mean * 0.2);
}

#[test]
fn rai_gate_blocks_unfair_rollout_and_passes_fair_one() {
    let fair: Vec<Decision> = (0..30)
        .map(|i| Decision {
            predicted_perf: 80.0,
            baseline_perf: 100.0,
            predicted_cost: 10.0,
            baseline_cost: 10.0,
            group: i % 3,
        })
        .collect();
    let mut assessment = Assessment::standard("steering-v2");
    assessment.run_automated(&fair);
    assessment.attest("privacy-review", true, "");
    assessment.attest("transparency-docs", true, "");
    assert_eq!(assessment.status(), AssessmentStatus::Approved);

    // One group left behind → rejected without any manual input needed.
    let unfair: Vec<Decision> = (0..30)
        .map(|i| Decision {
            predicted_perf: if i % 3 == 2 { 103.0 } else { 60.0 },
            baseline_perf: 100.0,
            predicted_cost: 10.0,
            baseline_cost: 10.0,
            group: i % 3,
        })
        .collect();
    let mut assessment = Assessment::standard("steering-v3");
    assessment.run_automated(&unfair);
    assert_eq!(assessment.status(), AssessmentStatus::Rejected);
}
