//! Micro-benchmarks for the performance-sensitive primitives: the
//! operations that sit on hot paths in a production deployment (signature
//! hashing at plan-compile time, view matching per query, optimizer passes,
//! bandit updates, forecaster fits, checkpoint planning, and workload
//! templatization). `cargo bench -p adas-bench` prints each one's time per
//! call: median, best and interquartile range over the harness's rounds.

use std::collections::HashSet;
use std::hint::black_box;

use adas_bench::harness::{self, Config};
use adas_checkpoint::{plan_checkpoints, PhoebeConfig, StagePredictor};
use adas_engine::cardinality::DefaultEstimator;
use adas_engine::cost::CostModel;
use adas_engine::exec::{ClusterConfig, SimOptions, Simulator};
use adas_engine::physical::StageDag;
use adas_engine::rules::{Optimizer, RuleSet};
use adas_faultsim::{ChaosRunner, FaultConfig, FaultInjector};
use adas_ml::bandit::{BanditPolicy, EpsilonGreedy, LinUcb};
use adas_ml::forecast::{HoltWinters, HwConfig, SeasonalNaive};
use adas_obs::Obs;
use adas_reuse::{rewrite_plan, MatchPolicy, SelectionConfig, ViewCatalog};
use adas_workload::analyze::WorkloadAnalysis;
use adas_workload::catalog::Catalog;
use adas_workload::gen::{GeneratorConfig, WorkloadGenerator};
use adas_workload::plan::{CmpOp, LogicalPlan, Predicate};
use adas_workload::signature::{strict_signature, template_signature};

fn deep_plan(depth: usize) -> LogicalPlan {
    let mut plan = LogicalPlan::join(
        LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Le, 100)),
        LogicalPlan::scan("users"),
        0,
        0,
    );
    for i in 0..depth {
        plan = plan
            .filter(Predicate::single(1, CmpOp::Le, i as i64))
            .project(vec![0, 1]);
    }
    plan.aggregate(vec![1])
}

fn main() {
    let plans: Vec<(usize, LogicalPlan)> = [4, 16, 64].map(|d| (d, deep_plan(d))).into();

    let catalog = Catalog::standard();
    let est = DefaultEstimator::new(&catalog);
    let optimizer = Optimizer::default();
    let optimizer_plan = deep_plan(8);

    let shared = LogicalPlan::join(
        LogicalPlan::scan("events").filter(Predicate::single(1, CmpOp::Eq, 3)),
        LogicalPlan::scan("users"),
        0,
        0,
    );
    let training: Vec<LogicalPlan> = (0..64)
        .map(|i| shared.clone().aggregate(vec![i % 3]))
        .collect();
    let views = ViewCatalog::select(&training, &catalog, &SelectionConfig::default());
    let query = shared.aggregate(vec![0, 1]);

    let mut epsilon_greedy = EpsilonGreedy::new(13, 0.2, 1).unwrap();
    let mut linucb = LinUcb::new(13, 8, 0.5).unwrap();
    let ctx = [0.4; 8];

    let values: Vec<f64> = (0..24 * 28)
        .map(|i| {
            if (8..18).contains(&(i % 24)) {
                10.0
            } else {
                2.0
            }
        })
        .collect();

    let cost_model = CostModel::default();
    let sim = Simulator::with_obs(ClusterConfig::default(), Obs::disabled()).unwrap();
    let mk = |v: i64| {
        let mut plan = LogicalPlan::join(
            LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Le, v)),
            LogicalPlan::scan("users"),
            0,
            0,
        )
        .aggregate(vec![1]);
        for i in 0..8 {
            plan = LogicalPlan::union(
                plan,
                LogicalPlan::scan("sessions")
                    .filter(Predicate::single(2, CmpOp::Le, v + i))
                    .aggregate(vec![1]),
            );
        }
        plan
    };
    let history: Vec<(StageDag, _)> = [100i64, 300, 500]
        .iter()
        .map(|&v| {
            let dag = StageDag::compile(&mk(v), &catalog, &cost_model).unwrap();
            let report = sim.run(&dag, &SimOptions::default()).unwrap();
            (dag, report)
        })
        .collect();
    let refs: Vec<_> = history.iter().map(|(d, r)| (d, r)).collect();
    let predictor = StagePredictor::train(&refs).unwrap();
    let dag = StageDag::compile(&mk(400), &catalog, &cost_model).unwrap();
    let forecast = predictor.forecast(&dag);

    // Disabled-path fault injection, to read against exec/simulate_dag.
    let runner =
        ChaosRunner::with_obs(ClusterConfig::default(), f64::INFINITY, Obs::disabled()).unwrap();
    let injector = FaultInjector::new(42, FaultConfig::disabled());
    let schedule = injector.schedule_for(0, ClusterConfig::default().machines);
    let no_checkpoints: HashSet<adas_engine::physical::StageId> = HashSet::new();

    let workload = WorkloadGenerator::new(GeneratorConfig {
        days: 3,
        jobs_per_day: 200,
        ..Default::default()
    })
    .unwrap()
    .generate()
    .unwrap();

    let mut configs = Vec::new();
    for (depth, plan) in &plans {
        configs.push(Config::new(
            format!("signature/strict/{depth}"),
            move |lap| lap.time(|| strict_signature(black_box(plan))),
        ));
        configs.push(Config::new(
            format!("signature/template/{depth}"),
            move |lap| lap.time(|| template_signature(black_box(plan))),
        ));
    }
    configs.extend([
        Config::new("optimizer/full_ruleset_pass", |lap| {
            lap.time(|| {
                optimizer
                    .optimize(black_box(&optimizer_plan), RuleSet::all(), &est)
                    .unwrap()
            })
        }),
        Config::new("reuse/rewrite_full_policy", |lap| {
            lap.time(|| rewrite_plan(black_box(&query), &views, MatchPolicy::full()))
        }),
        Config::new("bandit/epsilon_greedy_round", |lap| {
            lap.time(|| {
                let arm = epsilon_greedy.choose(&[]);
                epsilon_greedy.update(arm, &[], 1.0);
                arm
            })
        }),
        Config::new("bandit/linucb_round_d8", |lap| {
            lap.time(|| {
                let arm = linucb.choose(&ctx);
                linucb.update(arm, &ctx, 1.0);
                arm
            })
        }),
        Config::new("forecast/seasonal_naive_fit", |lap| {
            lap.time(|| SeasonalNaive::fit(black_box(&values), 24).unwrap())
        }),
        Config::new("forecast/holt_winters_fit", |lap| {
            lap.time(|| HoltWinters::fit(black_box(&values), 24, HwConfig::default()).unwrap())
        }),
        Config::new("checkpoint/plan_cuts", |lap| {
            lap.time(|| {
                plan_checkpoints(
                    black_box(&dag),
                    &forecast,
                    &PhoebeConfig::default(),
                    &Obs::disabled(),
                )
            })
        }),
        Config::new("exec/simulate_dag", |lap| {
            lap.time(|| sim.run(black_box(&dag), &SimOptions::default()).unwrap())
        }),
        Config::new("faultsim/chaos_run_disabled", |lap| {
            lap.time(|| {
                runner
                    .run_job(black_box(&dag), &no_checkpoints, &schedule)
                    .unwrap()
            })
        }),
        Config::new("workload/analyze_600_jobs", |lap| {
            lap.time(|| WorkloadAnalysis::analyze(black_box(&workload.trace)))
        }),
    ]);
    for timing in harness::run(9, configs) {
        println!("{timing}");
    }
}
