//! Discrete-event kernel benchmarks and gates.
//!
//! Three numbers, recorded into `BENCH_des.json` at the repo root:
//!
//! 1. **Kernel throughput** — events/second driving a synthetic
//!    10k-machine fleet through 100k job arrival/finish events on a raw
//!    [`Simulation`]. Recorded, not gated: it is the scale headline the
//!    refactor exists for (one event loop instead of four blocking loops).
//! 2. **Pipelined speedup** — makespan ratio of [`OptimizerMode::Serial`]
//!    (the legacy one-loop shape where optimization and execution never
//!    overlap) to [`OptimizerMode::Pipelined`] on a backlog replay of a
//!    generated multi-job workload. Gated ≥ 1.3×.
//! 3. **Single-job exec throughput** — runs/second of
//!    `engine::exec::Simulator::run` on the workload's largest DAG.
//!    Recorded, not gated: the lifecycle benchmark's end-to-end latency
//!    bounds catch an exec slowdown on the per-job path.

use std::time::Instant;

use adas_engine::cost::CostModel;
use adas_engine::exec::{ClusterConfig, SimOptions, Simulator};
use adas_engine::physical::StageDag;
use adas_obs::Obs;
use adas_pipeline::{schedule_pipelined, OptimizerMode, Policy};
use adas_simkern::{Component, Ctx, Simulation};
use adas_workload::gen::{GeneratorConfig, WorkloadGenerator};
use adas_workload::job::{Job, Trace};
use serde::Serialize;
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Serialize)]
struct DesBench {
    /// Fleet scenario size.
    fleet_machines: usize,
    fleet_jobs: usize,
    fleet_events: u64,
    /// Kernel events dispatched per second on the fleet scenario.
    events_per_sec: f64,
    /// Backlog scenario size for the pipelining gate.
    pipeline_jobs: usize,
    serial_makespan: f64,
    pipelined_makespan: f64,
    /// `serial_makespan / pipelined_makespan`. Must stay ≥ 1.3.
    pipelined_speedup: f64,
    pipelined_speedup_ok: bool,
    /// Single-job runs per second through the kernel-backed exec path
    /// (best of rounds).
    kernel_runs_per_sec: f64,
}

// ------------------------------------------------------- fleet throughput

const FLEET_MACHINES: usize = 10_000;
const FLEET_JOBS: usize = 100_000;

enum FleetEvent {
    Arrive(u32),
    Finish,
}

/// A deliberately minimal fleet model: each arriving job queues on a
/// machine (round-robin) for a seeded service time and fires a finish
/// event. Two events per job; the benchmark measures raw kernel dispatch,
/// not modeling fidelity.
struct Fleet {
    machine_free: Vec<f64>,
    completed: u64,
}

impl Component<FleetEvent> for Fleet {
    fn on_event(&mut self, event: &FleetEvent, ctx: &mut Ctx<'_, FleetEvent>) {
        match *event {
            FleetEvent::Arrive(job) => {
                let m = job as usize % self.machine_free.len();
                let service = ctx.rng(0xF1EE7).range_f64(0.5, 4.0);
                let finish = self.machine_free[m].max(ctx.time()) + service;
                self.machine_free[m] = finish;
                ctx.emit_self_at(FleetEvent::Finish, finish);
            }
            FleetEvent::Finish => self.completed += 1,
        }
    }
}

/// One timed fleet run; returns (events dispatched, seconds).
fn fleet_run() -> (u64, f64) {
    let start = Instant::now();
    let fleet = Rc::new(RefCell::new(Fleet {
        machine_free: vec![0.0; FLEET_MACHINES],
        completed: 0,
    }));
    let mut sim: Simulation<FleetEvent> = Simulation::new(42);
    let id = sim.add_component(fleet.clone());
    for job in 0..FLEET_JOBS as u32 {
        // Arrivals staggered so the queue holds a realistic mixed horizon.
        sim.schedule_at(job as f64 * 0.01, id, FleetEvent::Arrive(job));
    }
    let processed = sim.run();
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(fleet.borrow().completed as usize, FLEET_JOBS);
    (processed, secs)
}

// --------------------------------------------------------------- scenarios

fn main() {
    // 1. Fleet throughput: best events/sec over a few rounds.
    const FLEET_ROUNDS: usize = 3;
    let mut events = 0u64;
    let mut best_fleet = f64::INFINITY;
    for _ in 0..FLEET_ROUNDS {
        let (processed, secs) = fleet_run();
        events = processed;
        best_fleet = best_fleet.min(secs);
    }
    let events_per_sec = events as f64 / best_fleet;

    // 2. Pipelined vs serial makespan on a backlog replay: every job of a
    // generated workload resubmitted at time zero (a queued backlog), one
    // optimizer resource, four execution slots.
    let workload = WorkloadGenerator::new(GeneratorConfig {
        days: 2,
        jobs_per_day: 60,
        ..Default::default()
    })
    .expect("valid config")
    .generate()
    .expect("generates");
    let backlog: Vec<Job> = workload
        .trace
        .jobs()
        .iter()
        .map(|j| Job {
            submit_time: 0,
            ..j.clone()
        })
        .collect();
    let n_jobs = backlog.len();
    let trace = Trace::new(backlog);
    let wps = 1e7;
    // Baseline: with one slot and a zero-cost optimizer the makespan is
    // the total execution time; price optimization at half the mean job.
    let serial_exec = schedule_pipelined(
        &trace,
        &workload.catalog,
        1,
        wps,
        0.0,
        Policy::Fifo,
        OptimizerMode::Pipelined,
        &Obs::disabled(),
    )
    .expect("schedules")
    .makespan;
    let optimize_seconds = serial_exec / n_jobs as f64 * 0.5;
    let run_mode = |mode: OptimizerMode| {
        schedule_pipelined(
            &trace,
            &workload.catalog,
            4,
            wps,
            optimize_seconds,
            Policy::CriticalPath,
            mode,
            &Obs::disabled(),
        )
        .expect("schedules")
        .makespan
    };
    let serial_makespan = run_mode(OptimizerMode::Serial);
    let pipelined_makespan = run_mode(OptimizerMode::Pipelined);
    let speedup = serial_makespan / pipelined_makespan;

    // 3. Single-job exec throughput on the workload's largest DAG, so the
    // measurement is dominated by dispatch work rather than the fixed
    // per-run setup.
    let cost_model = CostModel::default();
    let dag = workload
        .trace
        .jobs()
        .iter()
        .map(|j| StageDag::compile(&j.plan, &workload.catalog, &cost_model).expect("compiles"))
        .max_by_key(|d| (d.len(), d.stages().iter().map(|s| s.tasks).sum::<usize>()))
        .expect("non-empty workload");
    let sim =
        Simulator::with_obs(ClusterConfig::default(), Obs::disabled()).expect("valid cluster");
    const ROUNDS: usize = 11;
    const PASSES_PER_ROUND: usize = 5_000;
    let pass = || {
        for _ in 0..PASSES_PER_ROUND {
            sim.run(&dag, &SimOptions::default()).expect("simulates");
        }
    };
    // Warm-up so allocators and caches settle before timing.
    pass();
    let mut kernel_secs = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        pass();
        kernel_secs = kernel_secs.min(start.elapsed().as_secs_f64());
    }

    let report = DesBench {
        fleet_machines: FLEET_MACHINES,
        fleet_jobs: FLEET_JOBS,
        fleet_events: events,
        events_per_sec,
        pipeline_jobs: n_jobs,
        serial_makespan,
        pipelined_makespan,
        pipelined_speedup: speedup,
        pipelined_speedup_ok: speedup >= 1.3,
        kernel_runs_per_sec: PASSES_PER_ROUND as f64 / kernel_secs,
    };
    let json = serde_json::to_string_pretty(&report).expect("serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_des.json");
    std::fs::write(path, format!("{json}\n")).expect("writes baseline");
    println!("{json}");
    if !report.pipelined_speedup_ok {
        eprintln!("pipelined speedup {speedup:.3}x is below the 1.3x gate");
        std::process::exit(1);
    }
}
