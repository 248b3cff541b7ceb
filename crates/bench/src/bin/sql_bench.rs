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

use adas_obs::Obs;
use std::time::Instant;

use adas_engine::cardinality::DefaultEstimator;
use adas_engine::cost::CostModel;
use adas_engine::exec::{ClusterConfig, SimOptions, Simulator};
use adas_engine::physical::StageDag;
use adas_engine::rules::{Optimizer, RuleSet};
use adas_sql::{CachedFrontend, Frontend};
use adas_workload::gen::{GeneratorConfig, SqlJob, WorkloadGenerator};
use serde::Serialize;

#[derive(Serialize)]
struct SqlBench {
    corpus_queries: usize,
    corpus_templates: usize,
    rounds: usize,
    /// Full-corpus parse-only wall time, best of rounds.
    parse_secs: f64,
    /// Full-corpus cold parse → rewrite → lower wall time, best of rounds.
    compile_secs: f64,
    compile_queries_per_sec: f64,
    /// Full-corpus steady-state (template-cached) wall time, best of rounds.
    cached_compile_secs: f64,
    cached_compile_queries_per_sec: f64,
    /// Template-cache hits / misses after the timed corpus passes.
    cache_hits: u64,
    cache_misses: u64,
    sample_queries: usize,
    /// Cold front-end time over the sample, best of rounds.
    frontend_secs: f64,
    /// Steady-state front-end time over the sample, best of rounds.
    cached_frontend_secs: f64,
    /// Optimize + stage-compile + execute time over the sample, best of rounds.
    backend_secs: f64,
    /// `frontend_secs / backend_secs` — every query from cold text.
    cold_overhead_ratio: f64,
    /// `cached_frontend_secs / backend_secs`. Must stay < 0.05.
    frontend_overhead_ratio: f64,
    overhead_ok: bool,
}

fn timed(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

fn main() {
    const ROUNDS: usize = 5;
    const SAMPLE: usize = 200;

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

    // Parse-only throughput, to attribute front-end cost between the
    // parser and the rewrite/lower phases.
    let mut parse_secs = f64::INFINITY;
    for _ in 0..ROUNDS {
        parse_secs = parse_secs.min(timed(|| {
            for sql_job in &corpus {
                std::hint::black_box(
                    adas_sql::parse(std::hint::black_box(&sql_job.sql)).expect("parses"),
                );
            }
        }));
    }

    // Full-corpus cold compile throughput.
    let mut compile_secs = f64::INFINITY;
    for _ in 0..ROUNDS {
        compile_secs = compile_secs.min(timed(|| {
            for sql_job in &corpus {
                std::hint::black_box(
                    frontend
                        .compile(std::hint::black_box(&sql_job.sql), &sql_job.params)
                        .expect("compiles"),
                );
            }
        }));
    }

    // Full-corpus steady-state throughput (the cache is already warm from
    // the correctness pass, so every query is a template hit).
    let mut cached_compile_secs = f64::INFINITY;
    for _ in 0..ROUNDS {
        cached_compile_secs = cached_compile_secs.min(timed(|| {
            for sql_job in &corpus {
                std::hint::black_box(
                    cached
                        .compile_plan(std::hint::black_box(&sql_job.sql), &sql_job.params)
                        .expect("compiles"),
                );
            }
        }));
    }
    let (cache_hits, cache_misses) = cached.stats();

    // Front-end overhead vs the engine work the plan feeds into. The
    // backend side is what every query pays anyway: cost-guided logical
    // optimization, stage compilation and simulated execution.
    let sample: Vec<&SqlJob> = corpus.iter().take(SAMPLE).collect();
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

    let mut frontend_secs = f64::INFINITY;
    let mut cached_frontend_secs = f64::INFINITY;
    let mut backend_secs = f64::INFINITY;
    for _ in 0..ROUNDS {
        frontend_secs = frontend_secs.min(timed(|| {
            for sql_job in &sample {
                std::hint::black_box(
                    frontend
                        .compile(std::hint::black_box(&sql_job.sql), &sql_job.params)
                        .expect("compiles"),
                );
            }
        }));
        cached_frontend_secs = cached_frontend_secs.min(timed(|| {
            for sql_job in &sample {
                std::hint::black_box(
                    cached
                        .compile_plan(std::hint::black_box(&sql_job.sql), &sql_job.params)
                        .expect("compiles"),
                );
            }
        }));
        backend_secs = backend_secs.min(timed(|| {
            for plan in &plans {
                let optimized = optimizer
                    .optimize(std::hint::black_box(plan), RuleSet::all(), &cards)
                    .expect("optimizes");
                let dag = StageDag::compile(&optimized.plan, &workload.catalog, &cost_model)
                    .expect("compiles to stages");
                std::hint::black_box(cluster.run_unobserved(&dag, &options).expect("executes"));
            }
        }));
    }

    let cold_ratio = frontend_secs / backend_secs;
    let ratio = cached_frontend_secs / backend_secs;
    let report = SqlBench {
        corpus_queries: corpus.len(),
        corpus_templates: templates,
        rounds: ROUNDS,
        parse_secs,
        compile_secs,
        compile_queries_per_sec: corpus.len() as f64 / compile_secs,
        cached_compile_secs,
        cached_compile_queries_per_sec: corpus.len() as f64 / cached_compile_secs,
        cache_hits,
        cache_misses,
        sample_queries: sample.len(),
        frontend_secs,
        cached_frontend_secs,
        backend_secs,
        cold_overhead_ratio: cold_ratio,
        frontend_overhead_ratio: ratio,
        overhead_ok: ratio < 0.05,
    };

    let json = serde_json::to_string_pretty(&report).expect("serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sql.json");
    std::fs::write(path, format!("{json}\n")).expect("writes baseline");
    println!("{json}");
    if !report.overhead_ok {
        eprintln!("SQL front-end steady-state overhead ratio {ratio:.4} exceeds the 5% budget");
        std::process::exit(1);
    }
}
