//! Criterion micro-benchmarks for the performance-sensitive primitives:
//! the operations that sit on hot paths in a production deployment
//! (signature hashing at plan-compile time, view matching per query,
//! optimizer passes, bandit updates, forecaster fits, checkpoint planning,
//! and workload templatization).

use adas_obs::Obs;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use std::collections::HashSet;

use adas_checkpoint::{plan_checkpoints, PhoebeConfig, StagePredictor};
use adas_engine::cardinality::DefaultEstimator;
use adas_engine::cost::CostModel;
use adas_engine::exec::{ClusterConfig, SimOptions, Simulator};
use adas_engine::physical::StageDag;
use adas_engine::rules::{Optimizer, RuleSet};
use adas_faultsim::{ChaosRunner, FaultConfig, FaultInjector};
use adas_ml::bandit::{BanditPolicy, EpsilonGreedy, LinUcb};
use adas_ml::forecast::{HoltWinters, HwConfig, SeasonalNaive};
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

fn bench_signatures(c: &mut Criterion) {
    let mut group = c.benchmark_group("signature");
    for depth in [4usize, 16, 64] {
        let plan = deep_plan(depth);
        group.bench_with_input(BenchmarkId::new("strict", depth), &plan, |b, p| {
            b.iter(|| strict_signature(black_box(p)))
        });
        group.bench_with_input(BenchmarkId::new("template", depth), &plan, |b, p| {
            b.iter(|| template_signature(black_box(p)))
        });
    }
    group.finish();
}

fn bench_optimizer(c: &mut Criterion) {
    let catalog = Catalog::standard();
    let est = DefaultEstimator::new(&catalog);
    let optimizer = Optimizer::default();
    let plan = deep_plan(8);
    c.bench_function("optimizer/full_ruleset_pass", |b| {
        b.iter(|| {
            optimizer
                .optimize(black_box(&plan), RuleSet::all(), &est)
                .unwrap()
        })
    });
}

fn bench_view_matching(c: &mut Criterion) {
    let catalog = Catalog::standard();
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
    c.bench_function("reuse/rewrite_full_policy", |b| {
        b.iter(|| rewrite_plan(black_box(&query), &views, MatchPolicy::full()))
    });
}

fn bench_bandits(c: &mut Criterion) {
    c.bench_function("bandit/epsilon_greedy_round", |b| {
        let mut policy = EpsilonGreedy::new(13, 0.2, 1).unwrap();
        b.iter(|| {
            let arm = policy.choose(&[]);
            policy.update(arm, &[], 1.0);
            arm
        })
    });
    c.bench_function("bandit/linucb_round_d8", |b| {
        let mut policy = LinUcb::new(13, 8, 0.5).unwrap();
        let ctx = [0.4; 8];
        b.iter(|| {
            let arm = policy.choose(&ctx);
            policy.update(arm, &ctx, 1.0);
            arm
        })
    });
}

fn bench_forecasters(c: &mut Criterion) {
    let values: Vec<f64> = (0..24 * 28)
        .map(|i| {
            if (8..18).contains(&(i % 24)) {
                10.0
            } else {
                2.0
            }
        })
        .collect();
    c.bench_function("forecast/seasonal_naive_fit", |b| {
        b.iter(|| SeasonalNaive::fit(black_box(&values), 24).unwrap())
    });
    c.bench_function("forecast/holt_winters_fit", |b| {
        b.iter(|| HoltWinters::fit(black_box(&values), 24, HwConfig::default()).unwrap())
    });
}

fn bench_checkpoint_planning(c: &mut Criterion) {
    let catalog = Catalog::standard();
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
    c.bench_function("checkpoint/plan_cuts", |b| {
        b.iter(|| {
            plan_checkpoints(
                black_box(&dag),
                &forecast,
                &PhoebeConfig::default(),
                &Obs::disabled(),
            )
        })
    });
    c.bench_function("exec/simulate_dag", |b| {
        b.iter(|| sim.run(black_box(&dag), &SimOptions::default()).unwrap())
    });

    // Disabled-path fault injection: must track exec/simulate_dag within 5%.
    let runner =
        ChaosRunner::with_obs(ClusterConfig::default(), f64::INFINITY, Obs::disabled()).unwrap();
    let injector = FaultInjector::new(42, FaultConfig::disabled());
    let schedule = injector.schedule_for(0, ClusterConfig::default().machines);
    let no_checkpoints: HashSet<adas_engine::physical::StageId> = HashSet::new();
    c.bench_function("faultsim/chaos_run_disabled", |b| {
        b.iter(|| {
            runner
                .run_job(black_box(&dag), &no_checkpoints, &schedule)
                .unwrap()
        })
    });
}

fn bench_workload_analysis(c: &mut Criterion) {
    let workload = WorkloadGenerator::new(GeneratorConfig {
        days: 3,
        jobs_per_day: 200,
        ..Default::default()
    })
    .unwrap()
    .generate()
    .unwrap();
    c.bench_function("workload/analyze_600_jobs", |b| {
        b.iter(|| WorkloadAnalysis::analyze(black_box(&workload.trace)))
    });
}

criterion_group!(
    benches,
    bench_signatures,
    bench_optimizer,
    bench_view_matching,
    bench_bandits,
    bench_forecasters,
    bench_checkpoint_planning,
    bench_workload_analysis,
);
criterion_main!(benches);
