//! Executor-throughput overhead of the observability layer.
//!
//! Replays a generated workload through the execution simulator three ways —
//! through [`Simulator::run_unobserved`] (no observability branch at all),
//! through [`Simulator::run`] with [`Obs::disabled`] (the always-on
//! production configuration: one branch per instrumentation point), and with
//! [`Obs::recording`] (full spans, metrics and flight recording) — and
//! records jobs/second for each into `BENCH_obs.json` at the repo root. The
//! contracts this baseline tracks: the disabled path must cost < 5% and the
//! full recording path < 10% versus the raw simulator, best-of-rounds.

use adas_bench::harness::{Config, Gate, Report};
use adas_bench::replay_dags;
use adas_engine::exec::{ClusterConfig, SimOptions, Simulator};
use adas_obs::Obs;

fn main() {
    let dags = replay_dags();
    let cluster = ClusterConfig::default();
    let disabled_sim = Simulator::with_obs(cluster, Obs::disabled()).expect("valid cluster");

    let mut report = Report::new("obs");
    report.fact("jobs", dags.len());
    let t = report.run(
        31,
        vec![
            Config::new("plain", |lap| {
                lap.time(|| {
                    for dag in &dags {
                        disabled_sim
                            .run_unobserved(dag, &SimOptions::default())
                            .expect("simulates");
                    }
                })
            })
            .rate(dags.len(), "jobs"),
            Config::new("disabled", |lap| {
                lap.time(|| {
                    for dag in &dags {
                        disabled_sim
                            .run(dag, &SimOptions::default())
                            .expect("simulates");
                    }
                })
            })
            .rate(dags.len(), "jobs"),
            // A fresh recorder per round keeps the trace from growing without
            // bound across rounds. Its construction stays outside the timed
            // window: the budget tracks steady-state recording cost per run,
            // not the one-off recorder allocation.
            Config::new("recording", |lap| {
                let sim = Simulator::with_obs(cluster, Obs::recording()).expect("valid cluster");
                lap.time(|| {
                    for dag in &dags {
                        sim.run(dag, &SimOptions::default()).expect("simulates");
                    }
                })
            })
            .rate(dags.len(), "jobs"),
        ],
    );
    report.gate(Gate::overhead("disabled_overhead", &t[1], &t[0], 0.05));
    // Always-on flight recording is budgeted like any other hot-path cost.
    report.gate(Gate::overhead("recording_overhead", &t[2], &t[0], 0.10));
    report.finish();
}
