//! Simulation-kernel tour: one clock for simulations whose events feed
//! back.
//!
//! Two stops:
//!
//! 1. **The raw kernel.** A fleet component owned by a `simkern`
//!    simulation — machines as slots, jobs as arrival events, completions
//!    as future events — to show how the `(time, seq)` event queue, the
//!    component's `Ctx`, and the seeded RNG streams fit together.
//! 2. **Pipelined scheduling.** With the optimizer and the execution slots
//!    in one component on one clock, optimizing job *n+1* overlaps
//!    executing job *n*, and the makespan drops accordingly.
//!
//! The scheduler's outputs are pinned byte for byte by the golden digests
//! in `tests/golden_paths.rs`.
//!
//! Run with: `cargo run --release --example fleet_sim`

use autonomous_data_services::obs::Obs;
use autonomous_data_services::pipeline::{schedule_pipelined, OptimizerMode, Policy};
use autonomous_data_services::simkern::{Component, Ctx, Simulation};
use autonomous_data_services::workload::gen::{GeneratorConfig, WorkloadGenerator};
use autonomous_data_services::workload::job::Job;

// ---------------------------------------------------- stop 1: raw kernel

/// Events of the toy fleet: jobs arrive, machines finish them later.
enum FleetEvent {
    Arrive(u32),
    Finish,
}

/// A small fleet: each arriving job queues on a machine (round-robin) for
/// a seeded service time, and its completion comes back as a future event.
/// The component never loops over time — it only reacts to events, and the
/// kernel's clock is the only clock.
struct Fleet {
    machine_free: Vec<f64>,
    completed: u32,
    makespan: f64,
}

impl Component<FleetEvent> for Fleet {
    fn on_event(&mut self, event: &FleetEvent, ctx: &mut Ctx<'_, FleetEvent>) {
        match *event {
            FleetEvent::Arrive(job) => {
                let machine = job as usize % self.machine_free.len();
                // Per-salt RNG stream: reproducible, and insensitive to
                // how many draws any other component makes.
                let service = ctx.rng(0xF1EE7).range_f64(1.0, 6.0);
                let finish = self.machine_free[machine].max(ctx.time()) + service;
                self.machine_free[machine] = finish;
                // Absolute-time emit: the completion fires at exactly the
                // instant the schedule computed.
                ctx.emit_self_at(FleetEvent::Finish, finish);
            }
            FleetEvent::Finish => {
                self.completed += 1;
                self.makespan = ctx.time();
            }
        }
    }
}

fn raw_kernel_tour() {
    const MACHINES: usize = 50;
    const JOBS: u32 = 1_000;
    let fleet = Fleet {
        machine_free: vec![0.0; MACHINES],
        completed: 0,
        makespan: 0.0,
    };
    let mut sim = Simulation::new(42, fleet);
    for job in 0..JOBS {
        sim.schedule_at(job as f64 * 0.05, FleetEvent::Arrive(job));
    }
    let events = sim.run();
    let clock = sim.now();
    let fleet = sim.into_component();
    println!(
        "[kernel] {MACHINES} machines, {JOBS} jobs: {events} events, \
         makespan {:.2} ticks, clock ended at {clock:.2}",
        fleet.makespan
    );
    assert_eq!(fleet.completed, JOBS);
}

// -------------------------------------------- stop 2: pipelined schedule

fn pipelined_tour() {
    // A queued backlog: every generated job resubmitted at time zero.
    let workload = WorkloadGenerator::new(GeneratorConfig {
        days: 1,
        jobs_per_day: 40,
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
    let trace = autonomous_data_services::workload::job::Trace::new(backlog);
    let opt_secs = 60.0;
    let run = |mode: OptimizerMode| {
        schedule_pipelined(
            &trace,
            &workload.catalog,
            4,
            1e7,
            opt_secs,
            Policy::CriticalPath,
            mode,
            &Obs::disabled(),
        )
        .expect("schedules")
        .makespan
    };
    let serial = run(OptimizerMode::Serial);
    let pipelined = run(OptimizerMode::Pipelined);
    println!(
        "[pipeline] {} jobs, 4 slots, {opt_secs:.0}s optimizer: serial makespan {serial:.0}, \
         pipelined {pipelined:.0} ({:.2}x faster)",
        trace.jobs().len(),
        serial / pipelined
    );
    assert!(pipelined < serial);
}

fn main() {
    raw_kernel_tour();
    pipelined_tour();
}
