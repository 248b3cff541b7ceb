//! Front-end cost baseline for the SQL subset compiler.
//!
//! Renders the generator's recurring workload to SQL (a ~10k-query corpus
//! over 64 templates), then times the front end — parse → rewrite → lower —
//! over the whole corpus, best of rounds. Two regimes are measured:
//!
//! * **cold**: every query pays the full pipeline from text, and
//! * **steady-state**: a [`CachedFrontend`] serves repeated template texts
//!   from its compile cache (patching a clone of the lowered plan), the regime
//!   the paper's recurring workloads actually run in — after the first
//!   sighting of each template, all later instances are cache hits.
//!
//! The contract: steady-state front-end time must cost **< 5%** of what the
//! engine then spends optimizing and executing those plans, so the textual
//! front door never becomes the bottleneck of the pipeline it feeds. The
//! cold ratio is reported alongside for attribution. Results land in
//! `BENCH_sql.json` at the repo root.

use std::hint::black_box;

use adas_bench::harness::{Config, Gate, Report};
use adas_engine::cardinality::DefaultEstimator;
use adas_engine::cost::CostModel;
use adas_engine::exec::{ClusterConfig, SimOptions, Simulator};
use adas_engine::physical::StageDag;
use adas_engine::rules::{Optimizer, RuleSet};
use adas_obs::Obs;
use adas_sql::{CachedFrontend, Frontend};
use adas_workload::gen::{GeneratorConfig, SqlJob, WorkloadGenerator};

/// Queries whose front-end cost is weighed against their engine cost.
const SAMPLE: usize = 200;

fn main() {
    let workload = WorkloadGenerator::new(GeneratorConfig {
        days: 10,
        jobs_per_day: 1000,
        n_templates: 64,
        ..Default::default()
    })
    .expect("valid config")
    .generate()
    .expect("generation succeeds");
    let corpus: Vec<SqlJob> = workload.sql_jobs().expect("every plan renders");
    let templates = workload.sql_templates().expect("renders").len();
    let frontend = Frontend::new(&workload.catalog);
    let cached = CachedFrontend::new(frontend.clone());

    // Warm-up + correctness guard: the whole corpus must compile back to
    // the exact generated plans — through both the cold and the cached
    // path — before we time anything.
    for (job, sql_job) in workload.trace.jobs().iter().zip(&corpus) {
        let compiled = frontend
            .compile(&sql_job.sql, &sql_job.params)
            .unwrap_or_else(|e| panic!("{}", e.render(&sql_job.sql)));
        assert_eq!(compiled.plan, job.plan, "{} round trip drifted", job.id);
        let hit = cached
            .compile_plan(&sql_job.sql, &sql_job.params)
            .unwrap_or_else(|e| panic!("{}", e.render(&sql_job.sql)));
        assert_eq!(hit, job.plan, "{} cached round trip drifted", job.id);
    }
    // Template-cache hits and misses over that one cold pass.
    let (cache_hits, cache_misses) = cached.stats();

    // The backend side of the overhead ratio is what every query pays
    // anyway: cost-guided logical optimization, stage compilation and
    // simulated execution.
    let sample = &corpus[..SAMPLE];
    let plans: Vec<_> = workload
        .trace
        .jobs()
        .iter()
        .take(SAMPLE)
        .map(|j| j.plan.clone())
        .collect();
    let cards = DefaultEstimator::new(&workload.catalog);
    let cost_model = CostModel::default();
    let optimizer = Optimizer::with_obs(cost_model, 8, Obs::disabled());
    let cluster =
        Simulator::with_obs(ClusterConfig::default(), Obs::disabled()).expect("cluster builds");
    let options = SimOptions::default();

    let parse = |queries: &[SqlJob]| {
        for sql_job in queries {
            black_box(adas_sql::parse(black_box(&sql_job.sql)).expect("parses"));
        }
    };
    let compile = |queries: &[SqlJob]| {
        for sql_job in queries {
            black_box(
                frontend
                    .compile(black_box(&sql_job.sql), &sql_job.params)
                    .expect("compiles"),
            );
        }
    };
    // The cache is warm from the correctness pass, so every query is a
    // template hit.
    let compile_cached = |queries: &[SqlJob]| {
        for sql_job in queries {
            black_box(
                cached
                    .compile_plan(black_box(&sql_job.sql), &sql_job.params)
                    .expect("compiles"),
            );
        }
    };

    let mut report = Report::new("sql");
    report.fact("corpus_queries", corpus.len());
    report.fact("corpus_templates", templates);
    report.fact("cache_hits", cache_hits);
    report.fact("cache_misses", cache_misses);
    report.fact("sample_queries", SAMPLE);
    let t = report.run(
        5,
        vec![
            // Parse-only throughput attributes front-end cost between the
            // parser and the rewrite/lower phases.
            Config::new("parse", |lap| lap.time(|| parse(&corpus))).rate(corpus.len(), "queries"),
            Config::new("compile", |lap| lap.time(|| compile(&corpus)))
                .rate(corpus.len(), "queries"),
            Config::new("cached_compile", |lap| lap.time(|| compile_cached(&corpus)))
                .rate(corpus.len(), "queries"),
            Config::new("frontend", |lap| lap.time(|| compile(sample))),
            Config::new("cached_frontend", |lap| lap.time(|| compile_cached(sample))),
            Config::new("backend", |lap| {
                lap.time(|| {
                    for plan in &plans {
                        let optimized = optimizer
                            .optimize(black_box(plan), RuleSet::all(), &cards)
                            .expect("optimizes");
                        let dag =
                            StageDag::compile(&optimized.plan, &workload.catalog, &cost_model)
                                .expect("compiles to stages");
                        black_box(cluster.run_unobserved(&dag, &options));
                    }
                })
            }),
        ],
    );
    // Every query from cold text, reported for attribution.
    report.fact("cold_overhead_ratio", t[3].best() / t[5].best());
    report.gate(Gate::ratio_below(
        "frontend_overhead_ratio",
        &t[4],
        &t[5],
        0.05,
    ));
    report.finish();
}
