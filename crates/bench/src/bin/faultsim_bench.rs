//! Executor-throughput overhead of the fault-injection layer.
//!
//! Replays a generated workload through the execution simulator three ways —
//! directly (no faultsim anywhere), through [`ChaosRunner`] with
//! [`FaultConfig::disabled`] (empty schedules, the always-on production
//! configuration), and with [`FaultConfig::standard`] (faults firing) — and
//! records jobs/second for each into `BENCH_faultsim.json` at the repo root.
//! The contract this baseline tracks: the disabled path must cost < 5%
//! versus running the simulator directly.

use std::collections::HashSet;

use adas_bench::harness::{Config, Gate, Report};
use adas_bench::replay_dags;
use adas_engine::exec::{ClusterConfig, SimOptions, Simulator};
use adas_engine::physical::StageId;
use adas_faultsim::{ChaosRunner, FaultConfig, FaultInjector, FaultSchedule};
use adas_obs::Obs;

fn main() {
    let dags = replay_dags();
    let cluster = ClusterConfig::default();
    let sim = Simulator::with_obs(cluster, Obs::disabled()).expect("valid cluster");
    let runner =
        ChaosRunner::with_obs(cluster, f64::INFINITY, Obs::disabled()).expect("valid cluster");
    let no_checkpoints: HashSet<StageId> = HashSet::new();
    let (dags, runner, no_checkpoints) = (&dags, &runner, &no_checkpoints);
    let chaos = |name, config| {
        let injector = FaultInjector::new(42, config);
        let schedules: Vec<FaultSchedule> = (0..dags.len())
            .map(|i| injector.schedule_for(i as u64, cluster.machines))
            .collect();
        Config::new(name, move |lap| {
            lap.time(|| {
                for (dag, schedule) in dags.iter().zip(&schedules) {
                    runner.run_job(dag, no_checkpoints, schedule).expect("runs");
                }
            })
        })
        .rate(dags.len(), "jobs")
    };

    let mut report = Report::new("faultsim");
    report.fact("jobs", dags.len());
    let t = report.run(
        21,
        vec![
            Config::new("plain", |lap| {
                lap.time(|| {
                    for dag in dags {
                        sim.run(dag, &SimOptions::default()).expect("simulates");
                    }
                })
            })
            .rate(dags.len(), "jobs"),
            chaos("disabled", FaultConfig::disabled()),
            chaos("standard", FaultConfig::standard()),
        ],
    );
    report.gate(Gate::overhead("disabled_overhead", &t[1], &t[0], 0.05));
    report.finish();
}
