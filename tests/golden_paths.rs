//! Golden digests of every simulated path that once had a second,
//! reference implementation.
//!
//! The `simkern` ports of engine exec, pipeline scheduling and the chaos
//! runner, and the batched flight recorder, were each proven byte-identical
//! to the code they replaced before that code was deleted. This suite keeps
//! the proof: it pins FNV-1a digests of the serialized reports and of the
//! exported obs traces, for the same inputs the old equivalence tests used,
//! to `tests/fixtures/golden_digests.json`. Any drift in a port (a wake one
//! ulp off a decision instant, a reordered tie, a flush-order slip in the
//! recorder) shows up as a named digest mismatch. Engine exec and the
//! chaos runner have since become plain loops off the kernel; the same
//! digests pin them.
//!
//! The `stage_compile` and `learned_features` families pin the estimator
//! passes behind stage compile and plan featurization bit for bit, so a
//! change to how the catalog resolves names, or to how many estimator
//! passes a costing makes, cannot move a single estimate. The `optimize`
//! family pins the rewrite optimizer's output under the default and the
//! learned estimator: final plan, estimated cost and the rules applied.
//!
//! Digests are stable across processes and identical in debug and release
//! builds; the suite runs under both.

mod golden;

use autonomous_data_services::engine::cardinality::{CardinalityModel, DefaultEstimator};
use autonomous_data_services::engine::cost::CostModel;
use autonomous_data_services::engine::exec::{ClusterConfig, SimOptions, Simulator};
use autonomous_data_services::engine::physical::{StageDag, StageId};
use autonomous_data_services::engine::rules::{Optimized, Optimizer, RuleSet};
use autonomous_data_services::faultsim::{
    ChaosRunner, FaultConfig, FaultEvent, FaultInjector, FaultSchedule,
};
use autonomous_data_services::learned::cardinality::{LearnedCardinality, TrainConfig};
use autonomous_data_services::learned::features;
use autonomous_data_services::obs::{DeploymentKind, Obs, Provenance};
use autonomous_data_services::pipeline::{schedule, Policy};
use autonomous_data_services::workload::catalog::Catalog;
use autonomous_data_services::workload::gen::{
    GeneratedWorkload, GeneratorConfig, WorkloadGenerator,
};
use autonomous_data_services::workload::plan::{CmpOp, LogicalPlan, Predicate};
use autonomous_data_services::workload::signature::strict_signature;
use golden::{digest_all, drive_obs_scenario, obs_scenario_dags, Goldens, SEEDS};
use std::collections::HashSet;

fn workload(seed: u64) -> GeneratedWorkload {
    WorkloadGenerator::new(GeneratorConfig {
        days: 2,
        jobs_per_day: 40,
        seed,
        ..Default::default()
    })
    .expect("valid config")
    .generate()
    .expect("generates")
}

fn dags(w: &GeneratedWorkload, n: usize) -> Vec<StageDag> {
    let cm = CostModel::default();
    w.trace
        .jobs()
        .iter()
        .take(n)
        .map(|j| StageDag::compile(&j.plan, &w.catalog, &cm).expect("compiles"))
        .collect()
}

/// Every other stage, so restarts exercise both the persisted and the
/// recompute paths.
fn even_stages(dag: &StageDag) -> HashSet<StageId> {
    dag.stages()
        .iter()
        .map(|s| s.id)
        .filter(|id| id.0 % 2 == 0)
        .collect()
}

macro_rules! to_json {
    ($value:expr) => {
        serde_json::to_string($value).expect("serializes")
    };
}

/// A filtered join plus aggregate over the standard catalog: the DAG the
/// engine and chaos unit tests use.
fn big_plan_dag() -> StageDag {
    let plan = LogicalPlan::join(
        LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Le, 300)),
        LogicalPlan::scan("users"),
        0,
        0,
    )
    .aggregate(vec![1]);
    StageDag::compile(&plan, &Catalog::standard(), &CostModel::default()).expect("compiles")
}

// ------------------------------------------------------------- estimators

/// Recurring fractions of the estimator traces: mostly recurring jobs over
/// the standard tables, and mostly ad-hoc jobs that each add a private
/// table (about 2.7k tables by the end of the trace).
const ESTIMATOR_FRACTIONS: [f64; 2] = [0.9, 0.1];

/// A 3-day × 1000-job trace at `recurring_fraction`, over 20 templates so
/// both fractions see enough instances per template to train micromodels.
fn estimator_workload(seed: u64, recurring_fraction: f64) -> GeneratedWorkload {
    WorkloadGenerator::new(GeneratorConfig {
        days: 3,
        jobs_per_day: 1000,
        recurring_fraction,
        n_templates: 20,
        seed,
        ..Default::default()
    })
    .expect("valid config")
    .generate()
    .expect("generates")
}

/// Floats as their IEEE-754 bit patterns, so the digest sees every ulp.
fn bits(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(",")
}

/// Every field of every stage of `dag`, one stage per line.
fn stage_lines(dag: &StageDag) -> String {
    dag.stages()
        .iter()
        .map(|s| {
            let inputs: Vec<String> = s.inputs.iter().map(|i| i.0.to_string()).collect();
            format!(
                "{} {} [{}] {} {}",
                s.id.0,
                s.op,
                inputs.join(","),
                bits(&[s.work, s.est_work, s.rows, s.est_rows, s.output_bytes]),
                s.tasks
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Stage compile of every job of both estimator traces: true and estimated
/// rows and work, output bytes and task counts of every stage.
#[test]
fn stage_compile_matches_golden_digests() {
    let mut goldens = Goldens::new("stage_compile");
    let cm = CostModel::default();
    for seed in SEEDS {
        for fraction in ESTIMATOR_FRACTIONS {
            let w = estimator_workload(seed, fraction);
            let dags: Vec<String> = w
                .trace
                .jobs()
                .iter()
                .map(|j| {
                    stage_lines(&StageDag::compile(&j.plan, &w.catalog, &cm).expect("compiles"))
                })
                .collect();
            goldens.record_digest(format!("rf={fraction}/seed={seed}"), digest_all(&dags));
        }
    }
    goldens.assert_all();
}

/// Micromodels trained on each estimator trace, then the learned
/// annotation and the feature vector of every job of that trace.
#[test]
fn learned_features_match_golden_digests() {
    let mut goldens = Goldens::new("learned_features");
    let cm = CostModel::default();
    for seed in SEEDS {
        for fraction in ESTIMATOR_FRACTIONS {
            let w = estimator_workload(seed, fraction);
            let plans: Vec<LogicalPlan> = w.trace.jobs().iter().map(|j| j.plan.clone()).collect();
            let (learned, report) =
                LearnedCardinality::train(&w.catalog, &plans, TrainConfig::default());
            assert!(
                report.models_kept > 0,
                "rf={fraction} seed={seed}: no micromodel kept"
            );
            let annotations: Vec<String> = plans
                .iter()
                .map(|p| bits(&learned.annotate(p).expect("annotates")))
                .collect();
            let featurized: Vec<String> = plans
                .iter()
                .map(|p| bits(&features::featurize(p, &w.catalog, &cm)))
                .collect();
            let case = format!("rf={fraction}/seed={seed}");
            goldens.record_digest(format!("{case}/annotate"), digest_all(&annotations));
            goldens.record_digest(format!("{case}/featurize"), digest_all(&featurized));
        }
    }
    goldens.assert_all();
}

/// One optimizer result as a line: the final plan's strict signature, the
/// estimated cost's bits and the applied rules in order.
fn optimized_line(opt: &Optimized) -> String {
    let rules: Vec<&str> = opt.applied.iter().map(|r| r.name()).collect();
    format!(
        "{} {} [{}]",
        strict_signature(&opt.plan),
        bits(&[opt.estimated_cost]),
        rules.join(",")
    )
}

/// Every job of both estimator traces through the all-rules optimizer,
/// once guided by the default estimator and once by the micromodels
/// trained on that trace. The two digests of a trace coincide: a
/// micromodel replaces only the root estimate, and the cost model reads a
/// node's own rows only at a scan or a join, which never root these plans
/// or their rewrites.
#[test]
fn optimize_matches_golden_digests() {
    let mut goldens = Goldens::new("optimize");
    let optimizer = Optimizer::default();
    for seed in SEEDS {
        for fraction in ESTIMATOR_FRACTIONS {
            let w = estimator_workload(seed, fraction);
            let plans: Vec<LogicalPlan> = w.trace.jobs().iter().map(|j| j.plan.clone()).collect();
            let (learned, _) =
                LearnedCardinality::train(&w.catalog, &plans, TrainConfig::default());
            let default = DefaultEstimator::new(&w.catalog);
            let models: [(&str, &dyn CardinalityModel); 2] =
                [("default", &default), ("learned", &learned)];
            for (name, model) in models {
                let lines: Vec<String> = plans
                    .iter()
                    .map(|p| {
                        optimized_line(
                            &optimizer
                                .optimize(p, RuleSet::all(), model)
                                .expect("optimizes"),
                        )
                    })
                    .collect();
                goldens.record_digest(
                    format!("rf={fraction}/seed={seed}/{name}"),
                    digest_all(&lines),
                );
            }
        }
    }
    goldens.assert_all();
}

// ------------------------------------------------------------ chaos drill

/// The seeded chaos drill: ten generated jobs under the standard fault
/// config with a cramped temp capacity (so temp exhaustion genuinely
/// fires), every other stage checkpointed.
#[test]
fn chaos_drill_matches_golden_digests() {
    let mut goldens = Goldens::new("chaos_drill");
    for seed in SEEDS {
        let w = workload(seed);
        let cluster = ClusterConfig::default();
        let obs = Obs::recording();
        let runner = ChaosRunner::with_obs(cluster, 1.0, obs.clone()).expect("valid cluster");
        let injector = FaultInjector::new(seed, FaultConfig::standard());
        let outcomes: Vec<String> = dags(&w, 10)
            .iter()
            .enumerate()
            .map(|(i, dag)| {
                let schedule = injector.schedule_for(i as u64, cluster.machines);
                let outcome = runner.run_job(dag, &even_stages(dag), &schedule);
                to_json!(&outcome.expect("drill runs"))
            })
            .collect();
        goldens.record_digest(format!("seed={seed}/outcomes"), digest_all(&outcomes));
        goldens.record(format!("seed={seed}/trace"), &obs.export_json());
    }
    goldens.assert_all();
}

/// The chaos runner's three-fault schedule (crash, temp exhaustion past a
/// 1-byte capacity, machine loss) on the join DAG.
#[test]
fn chaos_three_fault_schedule_matches_golden_digests() {
    let dag = big_plan_dag();
    let obs = Obs::recording();
    let runner = ChaosRunner::with_obs(ClusterConfig::default(), 1.0, obs.clone()).expect("valid");
    let schedule = FaultSchedule {
        events: vec![
            FaultEvent::TaskCrash { at: 0.6 },
            FaultEvent::TempExhaustion { at: 0.4 },
            FaultEvent::MachineLoss {
                machine: 1,
                at: 0.9,
            },
        ],
    };
    let outcome = runner
        .run_job(&dag, &even_stages(&dag), &schedule)
        .expect("runs");
    assert_eq!(outcome.injected, 3, "every scheduled fault fires");
    let mut goldens = Goldens::new("chaos_three_fault");
    goldens.record("outcome", &to_json!(&outcome));
    goldens.record("trace", &obs.export_json());
    goldens.assert_all();
}

// ------------------------------------------------------------ engine exec

/// Ten generated jobs per seed through one recording simulator, every
/// other stage checkpointed.
#[test]
fn engine_exec_matches_golden_digests() {
    let mut goldens = Goldens::new("exec");
    for seed in SEEDS {
        let w = workload(seed);
        let obs = Obs::recording();
        let sim = Simulator::with_obs(ClusterConfig::default(), obs.clone()).expect("valid");
        let reports: Vec<String> = dags(&w, 10)
            .iter()
            .map(|dag| {
                let options = SimOptions {
                    checkpointed: even_stages(dag),
                    precomputed: HashSet::new(),
                };
                to_json!(&sim.run(dag, &options).expect("runs"))
            })
            .collect();
        goldens.record_digest(format!("seed={seed}/reports"), digest_all(&reports));
        goldens.record(format!("seed={seed}/trace"), &obs.export_json());
    }
    goldens.assert_all();
}

/// The join DAG with no checkpoints, with every stage checkpointed, and
/// with stage 0 precomputed on a 2×1 cluster: report plus task placement.
#[test]
fn engine_big_plan_matches_golden_digests() {
    let dag = big_plan_dag();
    let all: HashSet<StageId> = dag.stages().iter().map(|s| s.id).collect();
    let default = ClusterConfig::default();
    let two_by_one = ClusterConfig {
        machines: 2,
        slots_per_machine: 1,
        ..Default::default()
    };
    let cases = [
        ("checkpoints=none", default, HashSet::new(), HashSet::new()),
        ("checkpoints=all", default, all, HashSet::new()),
        (
            "precomputed=stage0/cluster=2x1",
            two_by_one,
            HashSet::new(),
            HashSet::from([StageId(0)]),
        ),
    ];
    let mut goldens = Goldens::new("engine_big_plan");
    for (case, cluster, checkpointed, precomputed) in cases {
        let sim = Simulator::with_obs(cluster, Obs::disabled()).expect("valid");
        let options = SimOptions {
            checkpointed,
            precomputed,
        };
        let (report, placement) = sim.run_with_placement(&dag, &options);
        goldens.record(format!("{case}/report"), &to_json!(&report));
        goldens.record(format!("{case}/placement"), &to_json!(&placement));
    }
    goldens.assert_all();
}

// --------------------------------------------------------- pipeline sched

/// Both policies at 1/4/16 job slots over the drill workloads, recorded.
#[test]
fn pipeline_sched_matches_golden_digests() {
    let mut goldens = Goldens::new("sched");
    for seed in SEEDS {
        let w = workload(seed);
        for policy in [Policy::Fifo, Policy::CriticalPath] {
            for slots in [1usize, 4, 16] {
                let obs = Obs::recording();
                let report =
                    schedule(&w.trace, &w.catalog, slots, 1e7, policy, &obs).expect("schedules");
                let case = format!("seed={seed}/{}/slots={slots}", policy.name());
                goldens.record(format!("{case}/report"), &to_json!(&report));
                goldens.record(format!("{case}/trace"), &obs.export_json());
            }
        }
    }
    goldens.assert_all();
}

/// Both policies at 1/3/8 job slots over a 2-day × 80-job trace.
#[test]
fn pipeline_two_day_trace_matches_golden_digests() {
    let w = WorkloadGenerator::new(GeneratorConfig {
        days: 2,
        jobs_per_day: 80,
        ..Default::default()
    })
    .expect("valid config")
    .generate()
    .expect("generates");
    let mut goldens = Goldens::new("sched_2x80");
    for policy in [Policy::Fifo, Policy::CriticalPath] {
        for slots in [1usize, 3, 8] {
            let report = schedule(&w.trace, &w.catalog, slots, 1e7, policy, &Obs::disabled())
                .expect("schedules");
            goldens.record(
                format!("{}/slots={slots}/report", policy.name()),
                &to_json!(&report),
            );
        }
    }
    goldens.assert_all();
}

// -------------------------------------------------------- flight recorder

/// The seeded chaos + seagull + deployment scenario.
#[test]
fn obs_scenario_matches_golden_digests() {
    let dags = obs_scenario_dags();
    let mut goldens = Goldens::new("obs_scenario");
    for seed in SEEDS {
        let obs = Obs::recording();
        drive_obs_scenario(&obs, &dags, seed);
        let trace = obs.export_json();
        assert!(trace.contains("\"spans\""), "seed {seed}: scenario records");
        goldens.record(format!("seed={seed}/trace"), &trace);
    }
    goldens.assert_all();
}

/// A 50-step synthetic drive touching every record kind.
#[test]
fn obs_synthetic_drive_matches_golden_digests() {
    let drive = |obs: &Obs| {
        for i in 0..50usize {
            let t = i as f64 * 0.1;
            let s = obs.span_enter_indexed("c", "job", i % 7, t);
            obs.event("c", "tick", t, &[("i", "x")]);
            obs.counter_add("c", "ticks", &[("shard", "0")], 1);
            obs.histogram_observe("c", "lat", &[], 0.004 * (i % 9) as f64);
            obs.gauge_set("c", "depth", &[], i as f64);
            obs.record_decision(
                "c",
                "d",
                &Provenance::new("m", 1, i as u64),
                1.0,
                Some(1.5),
                "allow",
                false,
                2,
                t,
            );
            obs.span_exit(s, t + 0.05);
        }
        obs.record_deployment("c", DeploymentKind::Promote, "m", 2, "canary_healthy", 9.0);
    };
    let driven = Obs::recording();
    drive(&driven);

    // Indexed span names, including a repeated index.
    let indexed = Obs::recording();
    for i in [0usize, 3, 3, 11] {
        let s = indexed.span_enter_indexed("engine.exec", "stage", i, 0.0);
        indexed.span_exit(s, 1.0);
    }

    // Pre-resolved metric handles record exactly like string calls.
    let strings = Obs::recording();
    let mut b = strings.batch();
    b.counter_add("c", "hits", &[("shard", "0")], 3);
    b.gauge_set("c", "depth", &[], 2.5);
    b.histogram_observe("c", "lat", &[], 0.004);
    drop(b);
    let handles = Obs::recording();
    let hits = handles.counter_handle("c", "hits", &[("shard", "0")]);
    let depth = handles.gauge_handle("c", "depth", &[]);
    let lat = handles.histogram_handle("c", "lat", &[]);
    let mut b = handles.batch();
    hits.add(&mut b, 3);
    depth.set(&mut b, 2.5);
    lat.observe(&mut b, 0.004);
    drop(b);
    assert_eq!(strings.export_json(), handles.export_json());

    let mut goldens = Goldens::new("obs_synthetic");
    goldens.record("drive/trace", &driven.export_json());
    goldens.record("indexed_spans/trace", &indexed.export_json());
    goldens.record("metric_handles/trace", &handles.export_json());
    goldens.assert_all();
}
