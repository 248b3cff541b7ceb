//! Dependency-aware job scheduling (Wing, \[8\]).
//!
//! "We analyzed the interdependency to facilitate job scheduling." The
//! scheduler here runs whole jobs on a bounded pool of concurrent job slots,
//! honouring inter-job dependencies. Two policies are compared:
//!
//! * [`Policy::Fifo`] — submit-time order among ready jobs (dependency-
//!   blind prioritization; dependencies still gate readiness).
//! * [`Policy::CriticalPath`] — ready jobs ordered by *downstream work*:
//!   the total work of everything transitively depending on them. This is
//!   the dependency-aware policy unearthing inter-job structure.

use crate::graph::PipelineGraph;
use adas_engine::cardinality::TrueCardinality;
use adas_engine::cost::CostModel;
use adas_engine::{EngineError, Result};
use adas_obs::Obs;
use adas_simkern::{Component, Ctx, Simulation};
use adas_workload::catalog::Catalog;
use adas_workload::job::Trace;
use adas_workload::JobId;
use serde::Serialize;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Job prioritization policy among ready jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Policy {
    /// Earliest submit time first.
    Fifo,
    /// Largest transitive downstream work first.
    CriticalPath,
}

impl Policy {
    /// Stable name for metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fifo => "fifo",
            Policy::CriticalPath => "critical_path",
        }
    }
}

/// Outcome of one scheduling run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScheduleReport {
    /// Time at which the last job finished.
    pub makespan: f64,
    /// Mean job completion time (finish − submit).
    pub mean_completion: f64,
    /// Per-job finish times.
    pub finish: HashMap<JobId, f64>,
}

/// Total work of `job` plus everything transitively downstream of it.
fn downstream_work(
    job: JobId,
    graph: &PipelineGraph,
    work: &HashMap<JobId, f64>,
    memo: &mut HashMap<JobId, f64>,
) -> f64 {
    if let Some(&w) = memo.get(&job) {
        return w;
    }
    let mut total = work[&job];
    for &c in graph.consumers(job) {
        total += downstream_work(c, graph, work, memo);
    }
    memo.insert(job, total);
    total
}

/// Rejects scheduler parameters that would stall or poison the event loop.
fn check_params(job_slots: usize, work_per_second: f64) -> Result<()> {
    if job_slots == 0 {
        return Err(EngineError::InvalidCluster("job_slots must be >= 1".into()));
    }
    if !(work_per_second > 0.0 && work_per_second.is_finite()) {
        return Err(EngineError::InvalidCluster(format!(
            "work_per_second must be finite and > 0, got {work_per_second}"
        )));
    }
    Ok(())
}

/// Trace-derived inputs shared by every scheduler variant: the dependency
/// graph, per-job work, downstream-work priorities, and submit times.
struct SchedInputs {
    graph: PipelineGraph,
    work: HashMap<JobId, f64>,
    priority: HashMap<JobId, f64>,
    submit: HashMap<JobId, f64>,
}

impl SchedInputs {
    fn build(trace: &Trace, catalog: &Catalog) -> Result<Self> {
        let graph = PipelineGraph::build(trace);
        let truth = TrueCardinality::new(catalog);
        let cost_model = CostModel::default();
        let mut work: HashMap<JobId, f64> = HashMap::new();
        for job in trace.jobs() {
            work.insert(job.id, cost_model.total_cost(&job.plan, &truth)?);
        }
        let mut memo = HashMap::new();
        let priority: HashMap<JobId, f64> = trace
            .jobs()
            .iter()
            .map(|j| (j.id, downstream_work(j.id, &graph, &work, &mut memo)))
            .collect();
        let submit: HashMap<JobId, f64> = trace
            .jobs()
            .iter()
            .map(|j| (j.id, j.submit_time as f64))
            .collect();
        Ok(Self {
            graph,
            work,
            priority,
            submit,
        })
    }

    /// The policy comparator over ready jobs. `min_by` with this ordering
    /// picks the dispatch winner; the `a.cmp(&b)` tie-break keeps it total.
    fn compare(&self, policy: Policy, a: JobId, b: JobId) -> std::cmp::Ordering {
        match policy {
            Policy::Fifo => self.submit[&a]
                .partial_cmp(&self.submit[&b])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b)),
            Policy::CriticalPath => self.priority[&b]
                .partial_cmp(&self.priority[&a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b)),
        }
    }
}

/// Computes the report and replays the run into `obs`.
fn finalize(
    inputs: &SchedInputs,
    finish: HashMap<JobId, f64>,
    work_per_second: f64,
    policy: Policy,
    obs: &Obs,
) -> ScheduleReport {
    let makespan = finish.values().copied().fold(0.0, f64::max);
    // Sum completions in job-id order: `HashMap` iteration order varies
    // with the per-map hasher seed, which would make the mean differ in
    // ulps from run to run.
    let mut sorted: Vec<JobId> = finish.keys().copied().collect();
    sorted.sort();
    let mean_completion = if sorted.is_empty() {
        0.0
    } else {
        sorted
            .iter()
            .map(|id| finish[id] - inputs.submit[id])
            .sum::<f64>()
            / sorted.len() as f64
    };

    if obs.is_enabled() {
        // One lock for the whole replay; per-job spans use the interned
        // indexed-name path instead of formatting `job_{id}` each time.
        let mut batch = obs.batch();
        let root = batch.span_enter("pipeline.sched", "schedule", 0.0);
        let mut ids: Vec<JobId> = finish.keys().copied().collect();
        ids.sort();
        for id in &ids {
            let end = finish[id];
            let start = end - inputs.work[id] / work_per_second;
            let span = batch.span_enter_indexed("pipeline.sched", "job", id.0 as usize, start);
            batch.span_exit(span, end);
            batch.histogram_observe(
                "pipeline.sched",
                "completion_seconds",
                &[("policy", policy.name())],
                end - inputs.submit[id],
            );
        }
        batch.counter_add(
            "pipeline.sched",
            "jobs_scheduled",
            &[("policy", policy.name())],
            ids.len() as u64,
        );
        batch.gauge_set(
            "pipeline.sched",
            "makespan_seconds",
            &[("policy", policy.name())],
            makespan,
        );
        batch.span_exit(root, makespan);
    }

    ScheduleReport {
        makespan,
        mean_completion,
        finish,
    }
}

/// The one event kind job scheduling needs: "a decision instant arrived"
/// (a job just became submittable, a slot freed, or a dependency finished).
enum SchedEvent {
    Wake,
}

/// The scheduler as a simkern component. A `Wake` event fires at every job
/// arrival and every job completion; the handler runs the greedy dispatch
/// loop at each such decision instant.
struct SchedSim {
    policy: Policy,
    work_per_second: f64,
    inputs: SchedInputs,
    pending: Vec<JobId>,
    finish: HashMap<JobId, f64>,
    slot_free: Vec<f64>,
}

impl SchedSim {
    /// Dispatches every job startable at `ctx.time()`, scheduling a wake at
    /// each dispatched job's finish. Ready jobs and free slots are
    /// recomputed from scratch after every placement, so zero-duration jobs
    /// cascade at the same instant.
    fn dispatch_all(&mut self, ctx: &mut Ctx<'_, SchedEvent>) {
        let now = ctx.time();
        loop {
            let ready: Vec<JobId> = self
                .pending
                .iter()
                .copied()
                .filter(|&id| self.inputs.submit[&id] <= now)
                .filter(|&id| {
                    self.inputs
                        .graph
                        .producers(id)
                        .iter()
                        .all(|p| self.finish.get(p).is_some_and(|&f| f <= now))
                })
                .collect();
            let free_slot = self
                .slot_free
                .iter()
                .position(|&f| f <= now)
                .filter(|_| !ready.is_empty());
            let Some(slot) = free_slot else {
                return;
            };
            let next = ready
                .into_iter()
                .min_by(|&a, &b| self.inputs.compare(self.policy, a, b))
                .expect("checked non-empty");
            self.pending.retain(|&id| id != next);
            let end = now + self.inputs.work[&next] / self.work_per_second;
            self.slot_free[slot] = end;
            self.finish.insert(next, end);
            ctx.emit_self_at(SchedEvent::Wake, end);
        }
    }
}

impl Component<SchedEvent> for SchedSim {
    fn on_event(&mut self, _event: &SchedEvent, ctx: &mut Ctx<'_, SchedEvent>) {
        self.dispatch_all(ctx);
    }
}

/// Schedules a trace's jobs onto `job_slots` concurrent slots. Each job's
/// duration is its true work divided by `work_per_second`.
///
/// The run is recorded into `obs`: a `schedule` span over the makespan
/// with one child span per job (at its simulated dispatch and finish
/// times, in job-id order), a `jobs_scheduled` counter labelled by policy,
/// the makespan gauge and a completion-time histogram.
///
/// Time is owned by the `simkern` event loop: job arrivals are scheduled
/// as events at their submit times and completions as events at each job's
/// computed finish; the greedy dispatch decision runs at each event.
pub fn schedule(
    trace: &Trace,
    catalog: &Catalog,
    job_slots: usize,
    work_per_second: f64,
    policy: Policy,
    obs: &Obs,
) -> Result<ScheduleReport> {
    check_params(job_slots, work_per_second)?;
    let inputs = SchedInputs::build(trace, catalog)?;
    let pending: Vec<JobId> = trace.jobs().iter().map(|j| j.id).collect();
    let arrivals: Vec<f64> = pending.iter().map(|id| inputs.submit[id]).collect();
    let sched = Rc::new(RefCell::new(SchedSim {
        policy,
        work_per_second,
        inputs,
        pending,
        finish: HashMap::new(),
        slot_free: vec![0.0f64; job_slots],
    }));
    let mut sim = Simulation::new(0);
    let id = sim.add_component(sched.clone());
    for t in arrivals {
        sim.schedule_at(t, id, SchedEvent::Wake);
    }
    sim.run();
    drop(sim);
    let sched = Rc::try_unwrap(sched)
        .unwrap_or_else(|_| unreachable!("simulation still holds the component"))
        .into_inner();
    debug_assert!(
        sched.pending.is_empty(),
        "scheduler stalled with pending jobs"
    );
    Ok(finalize(
        &sched.inputs,
        sched.finish,
        work_per_second,
        policy,
        obs,
    ))
}

/// How the pipeline optimizer is driven relative to job execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum OptimizerMode {
    /// One blocking loop owns both phases, so the
    /// optimizer never runs while any job is executing — optimize job n,
    /// run job n, only then look at job n+1.
    Serial,
    /// Kernel-scheduled: the optimizer is its own component and starts on
    /// job n+1 the moment it is free, overlapping job n's execution.
    Pipelined,
}

impl OptimizerMode {
    /// Stable name for metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            OptimizerMode::Serial => "serial",
            OptimizerMode::Pipelined => "pipelined",
        }
    }
}

/// Outcome of one optimize-then-execute scheduling run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PipelinedReport {
    /// Time at which the last job finished executing.
    pub makespan: f64,
    /// Mean job completion time (execution finish − submit).
    pub mean_completion: f64,
    /// Per-job execution finish times.
    pub finish: HashMap<JobId, f64>,
    /// Per-job optimization finish times (always ≤ the execution start).
    pub opt_finish: HashMap<JobId, f64>,
}

/// The optimize-then-execute scheduler as a simkern component: one
/// optimizer resource plus `job_slots` execution slots, with wake events
/// at submits, optimization completions and execution completions.
struct PipelinedSim {
    policy: Policy,
    mode: OptimizerMode,
    work_per_second: f64,
    optimize_seconds: f64,
    inputs: SchedInputs,
    /// Jobs not yet sent to the optimizer.
    unoptimized: Vec<JobId>,
    /// Jobs optimized (or being optimized) but not yet executing.
    pending: Vec<JobId>,
    /// Instant the optimizer frees up.
    opt_free: f64,
    opt_finish: HashMap<JobId, f64>,
    finish: HashMap<JobId, f64>,
    slot_free: Vec<f64>,
}

impl PipelinedSim {
    fn dispatch_all(&mut self, ctx: &mut Ctx<'_, SchedEvent>) {
        let now = ctx.time();
        loop {
            let mut progressed = false;

            // Feed the optimizer. In serial mode it refuses to start while
            // any job is executing or an already-optimized job has not yet
            // finished — that is a blocking loop where one thread
            // owns both phases and fully drains a job before the next.
            let exec_in_flight = self.slot_free.iter().any(|&f| f > now);
            let opt_blocked =
                self.mode == OptimizerMode::Serial && (exec_in_flight || !self.pending.is_empty());
            if self.opt_free <= now && !opt_blocked {
                let candidate = self
                    .unoptimized
                    .iter()
                    .copied()
                    .filter(|&id| self.inputs.submit[&id] <= now)
                    .min_by(|&a, &b| self.inputs.compare(self.policy, a, b));
                if let Some(job) = candidate {
                    self.unoptimized.retain(|&id| id != job);
                    let done = now + self.optimize_seconds;
                    self.opt_free = done;
                    self.opt_finish.insert(job, done);
                    self.pending.push(job);
                    ctx.emit_self_at(SchedEvent::Wake, done);
                    progressed = true;
                }
            }

            // Same greedy execution dispatch as [`SchedSim`], gated on the
            // job's optimization having completed by `now`.
            let ready: Vec<JobId> = self
                .pending
                .iter()
                .copied()
                .filter(|&id| self.opt_finish[&id] <= now)
                .filter(|&id| {
                    self.inputs
                        .graph
                        .producers(id)
                        .iter()
                        .all(|p| self.finish.get(p).is_some_and(|&f| f <= now))
                })
                .collect();
            let free_slot = self
                .slot_free
                .iter()
                .position(|&f| f <= now)
                .filter(|_| !ready.is_empty());
            if let Some(slot) = free_slot {
                let next = ready
                    .into_iter()
                    .min_by(|&a, &b| self.inputs.compare(self.policy, a, b))
                    .expect("checked non-empty");
                self.pending.retain(|&id| id != next);
                let end = now + self.inputs.work[&next] / self.work_per_second;
                self.slot_free[slot] = end;
                self.finish.insert(next, end);
                ctx.emit_self_at(SchedEvent::Wake, end);
                progressed = true;
            }

            if !progressed {
                return;
            }
        }
    }
}

impl Component<SchedEvent> for PipelinedSim {
    fn on_event(&mut self, _event: &SchedEvent, ctx: &mut Ctx<'_, SchedEvent>) {
        self.dispatch_all(ctx);
    }
}

/// Schedules a trace through an explicit optimize-then-execute pipeline:
/// every job must pass through a single optimizer resource (taking
/// `optimize_seconds`) before it can run on one of `job_slots` slots.
///
/// [`OptimizerMode::Serial`] reproduces the single-loop shape where
/// the optimizer and the cluster never overlap; [`OptimizerMode::Pipelined`]
/// lets the kernel interleave them, so optimizing job n+1 overlaps the
/// execution of job n. The makespan ratio between the two modes is the
/// headline number `des_bench` gates on.
#[allow(clippy::too_many_arguments)]
pub fn schedule_pipelined(
    trace: &Trace,
    catalog: &Catalog,
    job_slots: usize,
    work_per_second: f64,
    optimize_seconds: f64,
    policy: Policy,
    mode: OptimizerMode,
    obs: &Obs,
) -> Result<PipelinedReport> {
    check_params(job_slots, work_per_second)?;
    if !(optimize_seconds >= 0.0 && optimize_seconds.is_finite()) {
        return Err(EngineError::InvalidCluster(format!(
            "optimize_seconds must be finite and >= 0, got {optimize_seconds}"
        )));
    }
    let inputs = SchedInputs::build(trace, catalog)?;
    let unoptimized: Vec<JobId> = trace.jobs().iter().map(|j| j.id).collect();
    let arrivals: Vec<f64> = unoptimized.iter().map(|id| inputs.submit[id]).collect();
    let component = Rc::new(RefCell::new(PipelinedSim {
        policy,
        mode,
        work_per_second,
        optimize_seconds,
        inputs,
        unoptimized,
        pending: Vec::new(),
        opt_free: 0.0,
        opt_finish: HashMap::new(),
        finish: HashMap::new(),
        slot_free: vec![0.0f64; job_slots],
    }));
    let mut sim = Simulation::new(0);
    let id = sim.add_component(component.clone());
    for t in arrivals {
        sim.schedule_at(t, id, SchedEvent::Wake);
    }
    sim.run();
    drop(sim);
    let state = Rc::try_unwrap(component)
        .unwrap_or_else(|_| unreachable!("simulation still holds the component"))
        .into_inner();
    debug_assert!(
        state.unoptimized.is_empty() && state.pending.is_empty(),
        "pipelined scheduler stalled"
    );

    let makespan = state.finish.values().copied().fold(0.0, f64::max);
    let mut sorted: Vec<JobId> = state.finish.keys().copied().collect();
    sorted.sort();
    let mean_completion = if sorted.is_empty() {
        0.0
    } else {
        sorted
            .iter()
            .map(|id| state.finish[id] - state.inputs.submit[id])
            .sum::<f64>()
            / sorted.len() as f64
    };

    if obs.is_enabled() {
        let mut batch = obs.batch();
        let root = batch.span_enter("pipeline.pipelined", "schedule_pipelined", 0.0);
        let mut ids: Vec<JobId> = state.finish.keys().copied().collect();
        ids.sort();
        for id in &ids {
            let end = state.finish[id];
            let start = end - state.inputs.work[id] / work_per_second;
            let span = batch.span_enter_indexed("pipeline.pipelined", "job", id.0 as usize, start);
            batch.span_exit(span, end);
        }
        batch.counter_add(
            "pipeline.pipelined",
            "jobs_scheduled",
            &[("mode", mode.name())],
            ids.len() as u64,
        );
        batch.gauge_set(
            "pipeline.pipelined",
            "makespan_seconds",
            &[("mode", mode.name())],
            makespan,
        );
        batch.span_exit(root, makespan);
    }

    Ok(PipelinedReport {
        makespan,
        mean_completion,
        finish: state.finish,
        opt_finish: state.opt_finish,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_workload::gen::{GeneratorConfig, WorkloadGenerator};
    use adas_workload::job::Job;
    use adas_workload::plan::{CmpOp, LogicalPlan, Predicate};
    use adas_workload::{DatasetId, TemplateId};

    fn job(id: u64, submit: u64, scale: i64, inputs: Vec<u64>, outputs: Vec<u64>) -> Job {
        // Larger `scale` → wider range filter → more work.
        Job {
            id: JobId(id),
            template: TemplateId(id),
            plan: LogicalPlan::scan("events")
                .filter(Predicate::single(2, CmpOp::Le, scale))
                .aggregate(vec![1]),
            submit_time: submit,
            inputs: inputs.into_iter().map(DatasetId).collect(),
            outputs: outputs.into_iter().map(DatasetId).collect(),
        }
    }

    #[test]
    fn dependencies_gate_start_times() {
        let trace = Trace::new(vec![
            job(0, 0, 500, vec![], vec![1]),
            job(1, 0, 500, vec![1], vec![]),
        ]);
        let catalog = Catalog::standard();
        let r = schedule(&trace, &catalog, 4, 1e6, Policy::Fifo, &Obs::disabled()).unwrap();
        assert!(r.finish[&JobId(1)] > r.finish[&JobId(0)]);
    }

    #[test]
    fn critical_path_beats_fifo_on_contended_chain() {
        // One long chain plus independent fillers; one slot of contention.
        // FIFO interleaves fillers ahead of the chain; critical-path runs
        // the chain first, shrinking the makespan.
        let mut jobs = vec![
            job(0, 0, 700, vec![], vec![1]),
            job(1, 1, 700, vec![1], vec![2]),
            job(2, 2, 700, vec![2], vec![]),
        ];
        for i in 0..6 {
            jobs.push(job(10 + i, 0, 600, vec![], vec![]));
        }
        let trace = Trace::new(jobs);
        let catalog = Catalog::standard();
        let fifo = schedule(&trace, &catalog, 2, 1e6, Policy::Fifo, &Obs::disabled()).unwrap();
        let cp = schedule(
            &trace,
            &catalog,
            2,
            1e6,
            Policy::CriticalPath,
            &Obs::disabled(),
        )
        .unwrap();
        assert!(
            cp.makespan <= fifo.makespan,
            "cp {} vs fifo {}",
            cp.makespan,
            fifo.makespan
        );
    }

    #[test]
    fn invalid_scheduler_parameters_are_typed_errors() {
        fn rejected<T>(r: Result<T>) -> bool {
            matches!(r, Err(EngineError::InvalidCluster(_)))
        }
        let trace = Trace::new(vec![job(0, 0, 300, vec![], vec![])]);
        let catalog = Catalog::standard();
        let obs = Obs::disabled();
        for (slots, wps) in [(0, 1e6), (1, f64::NAN), (1, -1.0)] {
            let report = schedule(&trace, &catalog, slots, wps, Policy::Fifo, &obs);
            assert!(rejected(report), "slots {slots}, work/s {wps}");
        }
        let pipelined = |optimize_seconds| {
            schedule_pipelined(
                &trace,
                &catalog,
                1,
                1e6,
                optimize_seconds,
                Policy::Fifo,
                OptimizerMode::Pipelined,
                &obs,
            )
        };
        assert!(rejected(pipelined(-1.0)));
        assert!(pipelined(1.0).is_ok());
    }

    #[test]
    fn single_slot_serializes_everything() {
        let trace = Trace::new(vec![
            job(0, 0, 300, vec![], vec![]),
            job(1, 0, 300, vec![], vec![]),
        ]);
        let catalog = Catalog::standard();
        let r = schedule(&trace, &catalog, 1, 1e6, Policy::Fifo, &Obs::disabled()).unwrap();
        let f: Vec<f64> = {
            let mut v: Vec<f64> = r.finish.values().copied().collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v
        };
        assert!(
            f[1] >= 2.0 * f[0] - 1e-6,
            "jobs must not overlap on one slot"
        );
    }

    #[test]
    fn pipelined_mode_overlaps_optimizer_with_execution() {
        // Independent equal jobs: serial alternates optimize/execute, so
        // its makespan is ~n·(opt+exec); pipelined hides optimization
        // behind execution after the first job.
        let jobs: Vec<Job> = (0..8).map(|i| job(i, 0, 500, vec![], vec![])).collect();
        let trace = Trace::new(jobs);
        let catalog = Catalog::standard();
        let serial = schedule_pipelined(
            &trace,
            &catalog,
            1,
            1e6,
            5.0,
            Policy::Fifo,
            OptimizerMode::Serial,
            &Obs::disabled(),
        )
        .unwrap();
        let pipelined = schedule_pipelined(
            &trace,
            &catalog,
            1,
            1e6,
            5.0,
            Policy::Fifo,
            OptimizerMode::Pipelined,
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(serial.finish.len(), 8);
        assert_eq!(pipelined.finish.len(), 8);
        assert!(
            pipelined.makespan < serial.makespan,
            "pipelined {} should beat serial {}",
            pipelined.makespan,
            serial.makespan
        );
        // Every job is optimized before it finishes executing, in both modes.
        for r in [&serial, &pipelined] {
            for (id, &end) in &r.finish {
                assert!(r.opt_finish[id] <= end, "optimization precedes finish");
            }
        }
        // In serial mode the optimizer never overlapped execution: the k-th
        // optimization starts only after the (k-1)-th execution finished.
        let mut opt_times: Vec<f64> = serial.opt_finish.values().copied().collect();
        let mut exec_times: Vec<f64> = serial.finish.values().copied().collect();
        opt_times.sort_by(f64::total_cmp);
        exec_times.sort_by(f64::total_cmp);
        for k in 1..opt_times.len() {
            assert!(
                opt_times[k] - 5.0 >= exec_times[k - 1] - 1e-9,
                "serial optimizer started during execution"
            );
        }
    }

    #[test]
    fn generated_workload_schedules_cleanly() {
        let w = WorkloadGenerator::new(GeneratorConfig {
            days: 1,
            jobs_per_day: 60,
            ..Default::default()
        })
        .unwrap()
        .generate()
        .unwrap();
        let r = schedule(
            &w.trace,
            &w.catalog,
            8,
            1e7,
            Policy::CriticalPath,
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(r.finish.len(), w.trace.len());
        assert!(r.makespan > 0.0);
        assert!(r.mean_completion > 0.0);
    }
}
