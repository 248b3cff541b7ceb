//! Discrete-event kernel benchmarks and gates.
//!
//! Three numbers, recorded into `BENCH_des.json` at the repo root:
//!
//! 1. **Kernel throughput** — events/second of a raw [`Simulation`] that
//!    owns a synthetic 10k-machine fleet, through 100k job arrival/finish
//!    events. Recorded, not gated: it is the kernel's dispatch cost alone.
//! 2. **Pipelined speedup** — makespan ratio of [`OptimizerMode::Serial`]
//!    (the legacy one-loop shape where optimization and execution never
//!    overlap) to [`OptimizerMode::Pipelined`] on a backlog replay of a
//!    generated multi-job workload. Gated ≥ 1.3×.
//! 3. **Single-job exec throughput** — runs/second of
//!    `engine::exec::Simulator::run` on the workload's largest DAG, under
//!    the key `kernel_exec`. The executor is a plain loop over the stages,
//!    not a kernel simulation; the key keeps its name so `BENCH_des.json`
//!    stays comparable across versions. Recorded, not gated: the lifecycle
//!    benchmark's end-to-end latency bounds catch an exec slowdown on the
//!    per-job path.

use adas_bench::harness::{Config, Gate, Report};
use adas_engine::cost::CostModel;
use adas_engine::exec::{ClusterConfig, SimOptions, Simulator};
use adas_engine::physical::StageDag;
use adas_obs::Obs;
use adas_pipeline::{schedule_pipelined, OptimizerMode, Policy};
use adas_simkern::{Component, Ctx, Simulation};
use adas_workload::gen::{GeneratorConfig, WorkloadGenerator};
use adas_workload::job::{Job, Trace};

// ------------------------------------------------------- fleet throughput

const FLEET_MACHINES: usize = 10_000;
const FLEET_JOBS: usize = 100_000;
/// One arrival and one finish per job.
const FLEET_EVENTS: u64 = 2 * FLEET_JOBS as u64;

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

/// One fleet run, set-up included.
fn fleet_run() {
    let fleet = Fleet {
        machine_free: vec![0.0; FLEET_MACHINES],
        completed: 0,
    };
    let mut sim = Simulation::new(42, fleet);
    for job in 0..FLEET_JOBS as u32 {
        // Arrivals staggered so the queue holds a realistic mixed horizon.
        sim.schedule_at(job as f64 * 0.01, FleetEvent::Arrive(job));
    }
    assert_eq!(sim.run(), FLEET_EVENTS);
    assert_eq!(sim.into_component().completed as usize, FLEET_JOBS);
}

// --------------------------------------------------------------- scenarios

fn main() {
    let mut report = Report::new("des");
    report.fact("fleet_machines", FLEET_MACHINES);
    report.fact("fleet_jobs", FLEET_JOBS);

    // 1. Fleet throughput.
    report.run(
        3,
        vec![Config::new("fleet", |lap| lap.time(fleet_run)).rate(FLEET_EVENTS as usize, "events")],
    );

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
    report.fact("pipeline_jobs", n_jobs);
    report.fact("serial_makespan", serial_makespan);
    report.fact("pipelined_makespan", pipelined_makespan);
    report.gate(Gate::at_least(
        "pipelined_speedup",
        serial_makespan / pipelined_makespan,
        1.3,
    ));

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
    report.run(
        11,
        vec![Config::new("kernel_exec", |lap| {
            lap.time(|| sim.run(&dag, &SimOptions::default()).expect("simulates"))
        })
        .rate(1, "runs")],
    );
    report.finish();
}
