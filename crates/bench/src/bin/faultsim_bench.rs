//! Executor-throughput overhead of the fault-injection layer (ISSUE 2).
//!
//! Replays a generated workload through the execution simulator three ways —
//! directly (no faultsim anywhere), through [`ChaosRunner`] with
//! [`FaultConfig::disabled`] (empty schedules, the always-on production
//! configuration), and with [`FaultConfig::standard`] (faults firing) — and
//! records jobs/second for each into `BENCH_faultsim.json` at the repo root.
//! The contract this baseline tracks: the disabled path must cost < 5%
//! versus running the simulator directly.

use adas_obs::Obs;
use std::collections::HashSet;
use std::time::Instant;

use adas_engine::cost::CostModel;
use adas_engine::exec::{ClusterConfig, SimOptions, Simulator};
use adas_engine::physical::{StageDag, StageId};
use adas_faultsim::{ChaosRunner, FaultConfig, FaultInjector, FaultSchedule};
use serde::Serialize;

#[derive(Serialize)]
struct FaultsimBench {
    jobs: usize,
    rounds: usize,
    plain_jobs_per_sec: f64,
    disabled_jobs_per_sec: f64,
    standard_jobs_per_sec: f64,
    /// Relative cost of the disabled injection path vs. the plain simulator
    /// (`plain_time / disabled_time - 1`, best-of-rounds). Must stay < 0.05.
    disabled_overhead: f64,
    disabled_overhead_ok: bool,
}

/// Best-of-`rounds` wall time for three configurations measured
/// *interleaved*: each round times all three back to back, so slow drift in
/// clock frequency or background load hits every configuration equally
/// instead of masquerading as overhead of whichever block ran last.
fn best_secs_triple(
    rounds: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
    mut c: impl FnMut(),
) -> (f64, f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        let start = Instant::now();
        a();
        best.0 = best.0.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        b();
        best.1 = best.1.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        c();
        best.2 = best.2.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let workload =
        adas_workload::gen::WorkloadGenerator::new(adas_workload::gen::GeneratorConfig {
            days: 2,
            jobs_per_day: 60,
            ..Default::default()
        })
        .expect("valid config")
        .generate()
        .expect("generates");
    let cost_model = CostModel::default();
    let dags: Vec<StageDag> = workload
        .trace
        .jobs()
        .iter()
        .map(|j| StageDag::compile(&j.plan, &workload.catalog, &cost_model).expect("compiles"))
        .collect();

    let cluster = ClusterConfig::default();
    let sim = Simulator::with_obs(cluster, Obs::disabled()).expect("valid cluster");
    let runner =
        ChaosRunner::with_obs(cluster, f64::INFINITY, Obs::disabled()).expect("valid cluster");
    let disabled = FaultInjector::new(42, FaultConfig::disabled());
    let standard = FaultInjector::new(42, FaultConfig::standard());
    let no_checkpoints: HashSet<StageId> = HashSet::new();
    let disabled_schedules: Vec<FaultSchedule> = (0..dags.len())
        .map(|i| disabled.schedule_for(i as u64, cluster.machines))
        .collect();
    let standard_schedules: Vec<FaultSchedule> = (0..dags.len())
        .map(|i| standard.schedule_for(i as u64, cluster.machines))
        .collect();

    const ROUNDS: usize = 21;
    // Replay the whole job set this many times per timed round so each
    // measurement spans tens of milliseconds; a single pass is ~1ms and
    // best-of-rounds over that is dominated by scheduler noise.
    const PASSES_PER_ROUND: usize = 50;
    // Warm-up pass so allocators and caches settle before timing.
    for dag in &dags {
        sim.run(dag, &SimOptions::default()).expect("simulates");
    }

    let (plain, disabled_secs, standard_secs) = best_secs_triple(
        ROUNDS,
        || {
            for _ in 0..PASSES_PER_ROUND {
                for dag in &dags {
                    sim.run(dag, &SimOptions::default()).expect("simulates");
                }
            }
        },
        || {
            for _ in 0..PASSES_PER_ROUND {
                for (dag, schedule) in dags.iter().zip(&disabled_schedules) {
                    runner
                        .run_job(dag, &no_checkpoints, schedule)
                        .expect("runs");
                }
            }
        },
        || {
            for _ in 0..PASSES_PER_ROUND {
                for (dag, schedule) in dags.iter().zip(&standard_schedules) {
                    runner
                        .run_job(dag, &no_checkpoints, schedule)
                        .expect("runs");
                }
            }
        },
    );

    let n = (dags.len() * PASSES_PER_ROUND) as f64;
    let overhead = disabled_secs / plain - 1.0;
    let report = FaultsimBench {
        jobs: dags.len(),
        rounds: ROUNDS,
        plain_jobs_per_sec: n / plain,
        disabled_jobs_per_sec: n / disabled_secs,
        standard_jobs_per_sec: n / standard_secs,
        disabled_overhead: overhead,
        disabled_overhead_ok: overhead < 0.05,
    };

    let json = serde_json::to_string_pretty(&report).expect("serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_faultsim.json");
    std::fs::write(path, format!("{json}\n")).expect("writes baseline");
    println!("{json}");
    if !report.disabled_overhead_ok {
        eprintln!("disabled-path overhead {overhead:.4} exceeds the 5% budget");
        std::process::exit(1);
    }
}
