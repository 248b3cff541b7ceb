//! Event-driven cluster execution simulator.
//!
//! Models the runtime behaviour the paper's Phoebe work reacts to: stage
//! tasks scheduled onto machines with bounded slots, local temp storage that
//! fills up on "machine hotspots", and job restarts that must recompute
//! everything not persisted. Checkpointed stages write to a global store
//! instead of local temp — freeing the hotspot and surviving failures.

use crate::physical::{StageDag, StageId};
use crate::{EngineError, Result};
use adas_obs::{CounterHandle, GaugeHandle, HistogramHandle, IndexedSpanKey, Obs, SpanKey};
use adas_simkern::{Component, Ctx, OrderedTick, Simulation};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::rc::Rc;
use std::sync::OnceLock;

/// Cluster parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of machines.
    pub machines: usize,
    /// Concurrent task slots per machine.
    pub slots_per_machine: usize,
    /// Work units one task completes per second.
    pub work_per_second: f64,
    /// Fixed per-task scheduling overhead, seconds.
    pub task_overhead: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            machines: 16,
            slots_per_machine: 4,
            work_per_second: 1_000_000.0,
            task_overhead: 0.5,
        }
    }
}

impl ClusterConfig {
    fn validate(&self) -> Result<()> {
        if self.machines == 0 || self.slots_per_machine == 0 {
            return Err(EngineError::InvalidCluster(
                "machines and slots_per_machine must be >= 1".into(),
            ));
        }
        if !(self.work_per_second > 0.0 && self.work_per_second.is_finite()) {
            return Err(EngineError::InvalidCluster(format!(
                "work_per_second must be finite and > 0, got {}",
                self.work_per_second
            )));
        }
        if !(self.task_overhead >= 0.0 && self.task_overhead.is_finite()) {
            return Err(EngineError::InvalidCluster(format!(
                "task_overhead must be finite and >= 0, got {}",
                self.task_overhead
            )));
        }
        Ok(())
    }
}

/// Options controlling one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimOptions {
    /// Stages whose output is checkpointed to the global store: their output
    /// does not occupy local temp storage, and they survive failures.
    pub checkpointed: HashSet<StageId>,
    /// Stages whose outputs already exist (from a previous run's surviving
    /// checkpoints); they complete instantly at time 0.
    pub precomputed: HashSet<StageId>,
}

/// Result of one simulated execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecReport {
    /// Wall-clock completion time of the whole DAG, seconds.
    pub latency: f64,
    /// Sum of task durations (CPU seconds actually consumed).
    pub total_cpu_seconds: f64,
    /// Per-stage start times.
    pub stage_start: Vec<f64>,
    /// Per-stage finish times.
    pub stage_finish: Vec<f64>,
    /// Per-machine peak local temp storage, bytes.
    pub machine_temp_peak: Vec<f64>,
    /// Per-stage flag: did the stage actually execute in this run (false
    /// for precomputed stages and stages fully shielded by them)? Fault
    /// harnesses assert on this to prove checkpointed work is never redone.
    pub executed: Vec<bool>,
}

impl ExecReport {
    /// Peak temp usage on the most loaded ("hotspot") machine.
    pub fn hotspot_peak(&self) -> f64 {
        self.machine_temp_peak.iter().copied().fold(0.0, f64::max)
    }
}

/// Pre-resolved metric identities for [`Simulator::record_run`] — the
/// recorder's hottest call site. Resolved once per simulator (lazily, so
/// disabled simulators never pay for it) and hash-free on every run after.
#[derive(Debug, Clone)]
struct RunMetrics {
    run_span: SpanKey,
    stage_span: IndexedSpanKey,
    stage_latency: HistogramHandle,
    stages_executed: CounterHandle,
    stages_skipped: CounterHandle,
    hotspot_peak: GaugeHandle,
}

impl RunMetrics {
    fn new(obs: &Obs) -> Self {
        Self {
            run_span: obs.span_key("engine.exec", "run"),
            stage_span: obs.indexed_span_key("engine.exec", "stage"),
            stage_latency: obs.histogram_handle("engine.exec", "stage_latency_seconds", &[], None),
            stages_executed: obs.counter_handle("engine.exec", "stages_executed", &[]),
            stages_skipped: obs.counter_handle("engine.exec", "stages_skipped", &[]),
            hotspot_peak: obs.gauge_handle("engine.exec", "hotspot_peak_bytes", &[]),
        }
    }
}

/// The execution simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: ClusterConfig,
    obs: Obs,
    run_metrics: OnceLock<RunMetrics>,
}

impl Simulator {
    /// Creates a simulator after validating the cluster configuration; it
    /// records spans and metrics into `obs` (pass [`Obs::disabled`] to
    /// record nothing).
    pub fn with_obs(config: ClusterConfig, obs: Obs) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            obs,
            run_metrics: OnceLock::new(),
        })
    }

    /// The observability handle this simulator records into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Stages that actually have to execute: a stage is required when it is
    /// not precomputed and either feeds no one (a sink) or feeds a required
    /// stage. Stages fully shielded by precomputed outputs are skipped —
    /// this is what makes checkpoint-based recovery cheaper than a full
    /// re-run. Takes the consumer lists so a run computes
    /// `dag.consumers()` only once.
    fn required_stages(
        dag: &StageDag,
        options: &SimOptions,
        consumers: &[Vec<StageId>],
    ) -> Vec<bool> {
        let n = dag.len();
        let mut required = vec![false; n];
        // Walk sinks-to-sources; topological order means consumers have
        // higher indices, so a reverse scan settles everything in one pass.
        for idx in (0..n).rev() {
            let id = StageId(idx);
            if options.precomputed.contains(&id) {
                continue;
            }
            let is_sink = consumers[idx].is_empty();
            if is_sink || consumers[idx].iter().any(|c| required[c.0]) {
                required[idx] = true;
            }
        }
        required
    }

    /// Runs the DAG to completion and reports the schedule.
    pub fn run(&self, dag: &StageDag, options: &SimOptions) -> Result<ExecReport> {
        let report = self.schedule(dag, options)?.0;
        self.record_run(&report);
        Ok(report)
    }

    /// Raw scheduling path with no observability branch at all — the
    /// baseline `obs_bench` measures the disabled-obs [`Simulator::run`]
    /// path against. Not for production use; it skips trace recording even
    /// when a recording handle is attached.
    pub fn run_unobserved(&self, dag: &StageDag, options: &SimOptions) -> Result<ExecReport> {
        Ok(self.schedule(dag, options)?.0)
    }

    /// Replays a finished schedule into the trace: one `run` span over the
    /// whole DAG, a child span per executed stage (timestamped with the
    /// stage's simulated start/finish), plus execution counters, the
    /// hotspot gauge and a stage-latency histogram.
    ///
    /// This is the recorder's hottest call site (obs_bench measures it), so
    /// the whole replay records through a single [`Obs::batch`] — one lock
    /// acquisition per run — and stage spans use the interned indexed-name
    /// path instead of formatting `stage_{idx}` per stage.
    fn record_run(&self, report: &ExecReport) {
        if !self.obs.is_enabled() {
            return;
        }
        // Handle creation locks the recorder itself, so resolve before
        // opening the batch.
        let metrics = self.run_metrics.get_or_init(|| RunMetrics::new(&self.obs));
        let mut batch = self.obs.batch();
        let root = metrics.run_span.enter(&mut batch, 0.0);
        let mut executed = 0u64;
        let mut skipped = 0u64;
        for (idx, ran) in report.executed.iter().enumerate() {
            if !ran {
                skipped += 1;
                continue;
            }
            executed += 1;
            let span = metrics
                .stage_span
                .enter(&mut batch, idx, report.stage_start[idx]);
            batch.span_exit(span, report.stage_finish[idx]);
            metrics.stage_latency.observe(
                &mut batch,
                report.stage_finish[idx] - report.stage_start[idx],
            );
        }
        metrics.stages_executed.add(&mut batch, executed);
        metrics.stages_skipped.add(&mut batch, skipped);
        metrics.hotspot_peak.set(&mut batch, report.hotspot_peak());
        batch.span_exit(root, report.latency);
    }

    /// Internal scheduler: returns the report plus, for each stage, the
    /// machines its tasks ran on (the temp-output placement machine-failure
    /// analysis needs).
    ///
    /// The schedule is produced by a [`ClusterSim`] component on the
    /// `simkern` discrete-event kernel: stage-task completions are events,
    /// the kernel clock is the only notion of time, and earliest-free-slot
    /// selection is a heap pop. Reports and traces are pinned by the golden
    /// digests in `tests/golden_paths.rs`.
    fn schedule(
        &self,
        dag: &StageDag,
        options: &SimOptions,
    ) -> Result<(ExecReport, Vec<Vec<usize>>)> {
        let consumers = dag.consumers();
        let required = Self::required_stages(dag, options, &consumers);
        let cluster = ClusterSim::new(&self.config, dag, required, &consumers);
        let mut sim = Simulation::new(0);
        let cluster = Rc::new(RefCell::new(cluster));
        let id = sim.add_component(cluster.clone());
        sim.schedule(0.0, id, ClusterEvent::Kick);
        sim.run();
        let mut cluster = cluster.borrow_mut();
        debug_assert_eq!(
            cluster.placed,
            cluster.stages.len(),
            "every stage must be placed when the event queue drains"
        );
        let (stage_start, stage_finish, stage_machines, total_cpu, required) = cluster.take();
        let latency = stage_finish.iter().copied().fold(0.0, f64::max);
        let machine_temp_peak =
            self.temp_peaks(dag, options, &stage_finish, &stage_machines, latency);
        Ok((
            ExecReport {
                latency,
                total_cpu_seconds: total_cpu,
                stage_start,
                stage_finish,
                machine_temp_peak,
                executed: required,
            },
            stage_machines,
        ))
    }

    /// Like [`Simulator::run`], additionally returning the machines each
    /// stage's tasks ran on (temp-output placement). Fault-injection
    /// harnesses use the placement to decide which outputs a machine loss
    /// destroys.
    pub fn run_with_placement(
        &self,
        dag: &StageDag,
        options: &SimOptions,
    ) -> Result<(ExecReport, Vec<Vec<usize>>)> {
        self.schedule(dag, options)
    }

    /// Simulates a *machine* failure: at `failure_at` of the baseline
    /// latency, `failed_machine` dies, losing every temp output it holds.
    /// Completed stages survive only if checkpointed (global store) or if
    /// none of their tasks ran on the failed machine; everything else
    /// re-runs. Returns `(original, recovery)` reports.
    pub fn run_with_machine_failure(
        &self,
        dag: &StageDag,
        checkpointed: &HashSet<StageId>,
        failed_machine: usize,
        failure_at: f64,
    ) -> Result<(ExecReport, ExecReport)> {
        if failed_machine >= self.config.machines {
            return Err(EngineError::InvalidCluster(format!(
                "machine {failed_machine} out of range (cluster has {})",
                self.config.machines
            )));
        }
        let options = SimOptions {
            checkpointed: checkpointed.clone(),
            precomputed: HashSet::new(),
        };
        let (original, stage_machines) = self.schedule(dag, &options)?;
        self.record_run(&original);
        let failure_time = original.latency * failure_at.clamp(0.0, 1.0);
        let surviving: HashSet<StageId> = dag
            .stages()
            .iter()
            .filter(|s| original.stage_finish[s.id.0] <= failure_time)
            .filter(|s| {
                checkpointed.contains(&s.id) || !stage_machines[s.id.0].contains(&failed_machine)
            })
            .map(|s| s.id)
            .collect();
        let mut batch = self.obs.batch();
        batch.event(
            "engine.exec",
            "machine_failure",
            failure_time,
            &[
                ("machine", &failed_machine.to_string()),
                ("surviving_stages", &surviving.len().to_string()),
            ],
        );
        batch.counter_add("engine.exec", "restarts", &[], 1);
        drop(batch);
        let recovery = self.run(
            dag,
            &SimOptions {
                checkpointed: checkpointed.clone(),
                precomputed: surviving,
            },
        )?;
        Ok((original, recovery))
    }

    /// Computes per-machine peak temp storage from alloc/free events.
    fn temp_peaks(
        &self,
        dag: &StageDag,
        options: &SimOptions,
        stage_finish: &[f64],
        stage_machines: &[Vec<usize>],
        latency: f64,
    ) -> Vec<f64> {
        let consumers = dag.consumers();
        // (time, machine, delta); allocs sorted before frees at equal times
        // via the sign of delta (positive first) for a conservative peak.
        let mut events: Vec<(f64, usize, f64)> = Vec::new();
        for stage in dag.stages() {
            let idx = stage.id.0;
            if options.checkpointed.contains(&stage.id) || options.precomputed.contains(&stage.id) {
                continue; // output lives in the global store
            }
            let machines = &stage_machines[idx];
            if machines.is_empty() {
                continue;
            }
            let per_machine = stage.output_bytes / machines.len() as f64;
            let free_time = consumers[idx]
                .iter()
                .map(|c| stage_finish[c.0])
                .fold(latency, f64::max);
            for &m in machines {
                events.push((stage_finish[idx], m, per_machine));
                events.push((free_time, m, -per_machine));
            }
        }
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal))
        });
        let mut current = vec![0.0f64; self.config.machines];
        let mut peak = vec![0.0f64; self.config.machines];
        for (_, m, delta) in events {
            current[m] += delta;
            peak[m] = peak[m].max(current[m]);
        }
        peak
    }

    /// Simulates a mid-flight failure and restart.
    ///
    /// The job fails once a `failure_at` fraction of stages (by finish
    /// order) has completed. Completed *checkpointed* stages survive; the
    /// restarted run treats them as precomputed. Returns
    /// `(original_report, recovery_report)`.
    pub fn run_with_failure(
        &self,
        dag: &StageDag,
        checkpointed: &HashSet<StageId>,
        failure_at: f64,
    ) -> Result<(ExecReport, ExecReport)> {
        let original = self.run(
            dag,
            &SimOptions {
                checkpointed: checkpointed.clone(),
                precomputed: HashSet::new(),
            },
        )?;
        let mut order: Vec<usize> = (0..dag.len()).collect();
        order.sort_by(|&a, &b| {
            original.stage_finish[a]
                .partial_cmp(&original.stage_finish[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let completed_count = ((dag.len() as f64) * failure_at.clamp(0.0, 1.0)).floor() as usize;
        let surviving: HashSet<StageId> = order[..completed_count]
            .iter()
            .map(|&i| StageId(i))
            .filter(|id| checkpointed.contains(id))
            .collect();
        let mut batch = self.obs.batch();
        batch.event(
            "engine.exec",
            "job_failure",
            original.latency * failure_at.clamp(0.0, 1.0),
            &[
                ("completed_stages", &completed_count.to_string()),
                ("surviving_stages", &surviving.len().to_string()),
            ],
        );
        batch.counter_add("engine.exec", "restarts", &[], 1);
        drop(batch);
        let recovery = self.run(
            dag,
            &SimOptions {
                checkpointed: checkpointed.clone(),
                precomputed: surviving,
            },
        )?;
        Ok((original, recovery))
    }
}

/// Events of the cluster-execution simulation.
#[derive(Debug, Clone, Copy)]
enum ClusterEvent {
    /// Bootstraps the run: settles skipped stages and places the first
    /// wave of ready stages.
    Kick,
    /// Every task of `stage` has completed; its temp output exists and its
    /// consumers may become placeable.
    StageComplete(usize),
}

/// Per-stage data the component needs, copied out of the DAG because
/// `simkern` components are `'static`. Inputs and consumers are flattened
/// into one backing vector each (CSR-style offsets) — the copy costs a
/// fixed handful of allocations instead of two per stage, which is what
/// keeps the kernel path's per-run overhead inside `des_bench`'s 5% gate.
#[derive(Debug, Clone, Copy)]
struct StageMeta {
    tasks: usize,
    work: f64,
    /// End offset of this stage's inputs in `inputs_flat` (starts at the
    /// previous stage's end, 0 for the first).
    inputs_end: usize,
    /// End offset of this stage's consumers in `consumers_flat`.
    consumers_end: usize,
}

#[derive(Debug, Clone)]
struct SimStages {
    meta: Vec<StageMeta>,
    inputs_flat: Vec<usize>,
    consumers_flat: Vec<usize>,
}

impl SimStages {
    fn len(&self) -> usize {
        self.meta.len()
    }

    fn inputs(&self, idx: usize) -> &[usize] {
        let start = if idx == 0 {
            0
        } else {
            self.meta[idx - 1].inputs_end
        };
        &self.inputs_flat[start..self.meta[idx].inputs_end]
    }

    fn consumers(&self, idx: usize) -> &[usize] {
        let start = if idx == 0 {
            0
        } else {
            self.meta[idx - 1].consumers_end
        };
        &self.consumers_flat[start..self.meta[idx].consumers_end]
    }
}

/// The cluster executor as a `simkern` component.
///
/// Placement is list scheduling: the dispatch cursor walks stages in
/// topological order, and a stage is placed the moment the cursor reaches
/// it with every input complete. Each task starts at
/// `max(slot_free, ready)`, with `ready` the max input finish. Stage
/// completions are kernel events (the clock advances through the
/// schedule), and the earliest-free slot is a
/// `BinaryHeap<Reverse<(OrderedTick, slot)>>` pop with an explicit index
/// tie-break.
///
/// One wrinkle: list scheduling can queue a stage's tasks on slots that
/// free *before* the current clock (the cursor held it back behind an
/// earlier stage). Its completion event then fires at `max(now, finish)`
/// — report times always come from the stored schedule, never from event
/// fire times, so clamping keeps the clock monotone without perturbing a
/// single output bit.
struct ClusterSim {
    slots_per_machine: usize,
    work_per_second: f64,
    task_overhead: f64,
    stages: SimStages,
    required: Vec<bool>,
    /// `(next free time, slot)` min-heap; slot index breaks ties.
    slot_free: BinaryHeap<Reverse<(OrderedTick, usize)>>,
    /// Incomplete-input count per stage.
    remaining_inputs: Vec<usize>,
    /// Dispatch cursor: stages below it are placed (or skipped).
    cursor: usize,
    placed: usize,
    stage_start: Vec<f64>,
    stage_finish: Vec<f64>,
    stage_machines: Vec<Vec<usize>>,
    total_cpu: f64,
}

impl ClusterSim {
    fn new(
        config: &ClusterConfig,
        dag: &StageDag,
        required: Vec<bool>,
        consumers: &[Vec<StageId>],
    ) -> Self {
        let n = dag.len();
        let total_slots = config.machines * config.slots_per_machine;
        let mut meta = Vec::with_capacity(n);
        let mut inputs_flat = Vec::new();
        let mut consumers_flat = Vec::new();
        let mut remaining_inputs = Vec::with_capacity(n);
        for (s, c) in dag.stages().iter().zip(consumers) {
            inputs_flat.extend(s.inputs.iter().map(|i| i.0));
            consumers_flat.extend(c.iter().map(|i| i.0));
            meta.push(StageMeta {
                tasks: s.tasks,
                work: s.work,
                inputs_end: inputs_flat.len(),
                consumers_end: consumers_flat.len(),
            });
            remaining_inputs.push(s.inputs.len());
        }
        Self {
            slots_per_machine: config.slots_per_machine,
            work_per_second: config.work_per_second,
            task_overhead: config.task_overhead,
            stages: SimStages {
                meta,
                inputs_flat,
                consumers_flat,
            },
            required,
            slot_free: (0..total_slots)
                .map(|slot| Reverse((OrderedTick::new(0.0), slot)))
                .collect(),
            remaining_inputs,
            cursor: 0,
            placed: 0,
            stage_start: vec![0.0; n],
            stage_finish: vec![0.0; n],
            stage_machines: vec![Vec::new(); n],
            total_cpu: 0.0,
        }
    }

    /// Marks `idx` complete and unblocks its consumers.
    fn complete(&mut self, idx: usize) {
        for c in 0..self.stages.consumers(idx).len() {
            let consumer = self.stages.consumers(idx)[c];
            self.remaining_inputs[consumer] -= 1;
        }
    }

    /// Places every stage the cursor can reach: skipped stages settle at
    /// time zero, required stages are placed once all inputs completed.
    fn advance_cursor(&mut self, ctx: &mut Ctx<'_, ClusterEvent>) {
        while self.cursor < self.stages.len() {
            let idx = self.cursor;
            if !self.required[idx] {
                // Precomputed or shielded: completes instantly at time 0.
                self.stage_start[idx] = 0.0;
                self.stage_finish[idx] = 0.0;
                self.cursor += 1;
                self.placed += 1;
                self.complete(idx);
                continue;
            }
            if self.remaining_inputs[idx] > 0 {
                return; // wait for a StageComplete event
            }
            self.place(idx, ctx);
            self.cursor += 1;
            self.placed += 1;
        }
    }

    /// Places one required stage's tasks on the slot heap and schedules
    /// its completion event.
    fn place(&mut self, idx: usize, ctx: &mut Ctx<'_, ClusterEvent>) {
        let ready = self
            .stages
            .inputs(idx)
            .iter()
            .map(|&s| self.stage_finish[s])
            .fold(0.0f64, f64::max);
        let tasks = self.stages.meta[idx].tasks;
        let task_work = self.stages.meta[idx].work / tasks as f64;
        let task_duration = task_work / self.work_per_second + self.task_overhead;
        let mut finish = ready;
        let mut start = f64::INFINITY;
        for _ in 0..tasks {
            let Reverse((free, slot)) = self.slot_free.pop().expect("at least one slot");
            debug_assert!(free.get().is_finite(), "slot free-time must be finite");
            let task_start = free.get().max(ready);
            let task_finish = task_start + task_duration;
            self.slot_free
                .push(Reverse((OrderedTick::new(task_finish), slot)));
            self.total_cpu += task_duration;
            finish = finish.max(task_finish);
            start = start.min(task_start);
            self.stage_machines[idx].push(slot / self.slots_per_machine);
        }
        self.stage_start[idx] = if start.is_finite() { start } else { ready };
        self.stage_finish[idx] = finish;
        // Completion fires at the stage's schedule finish — clamped to the
        // clock when the cursor placed it "into the past" (see type docs).
        // Absolute-time emit: a delay round-trip (`now + (finish - now)`)
        // can land a ulp off the true finish instant.
        ctx.emit_self_at(ClusterEvent::StageComplete(idx), finish);
    }

    /// Moves the results out after the run.
    #[allow(clippy::type_complexity)]
    fn take(&mut self) -> (Vec<f64>, Vec<f64>, Vec<Vec<usize>>, f64, Vec<bool>) {
        (
            std::mem::take(&mut self.stage_start),
            std::mem::take(&mut self.stage_finish),
            std::mem::take(&mut self.stage_machines),
            self.total_cpu,
            std::mem::take(&mut self.required),
        )
    }
}

impl Component<ClusterEvent> for ClusterSim {
    fn on_event(&mut self, event: &ClusterEvent, ctx: &mut Ctx<'_, ClusterEvent>) {
        match *event {
            ClusterEvent::Kick => self.advance_cursor(ctx),
            ClusterEvent::StageComplete(idx) => {
                self.complete(idx);
                self.advance_cursor(ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use adas_workload::catalog::Catalog;
    use adas_workload::plan::{CmpOp, LogicalPlan, Predicate};

    fn dag_for(plan: &LogicalPlan) -> StageDag {
        let catalog = Catalog::standard();
        StageDag::compile(plan, &catalog, &CostModel::default()).unwrap()
    }

    fn big_plan() -> LogicalPlan {
        LogicalPlan::join(
            LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Le, 300)),
            LogicalPlan::scan("users"),
            0,
            0,
        )
        .aggregate(vec![1])
    }

    #[test]
    fn simulation_is_deterministic_and_ordered() {
        let dag = dag_for(&big_plan());
        let sim = Simulator::with_obs(ClusterConfig::default(), Obs::disabled()).unwrap();
        let a = sim.run(&dag, &SimOptions::default()).unwrap();
        let b = sim.run(&dag, &SimOptions::default()).unwrap();
        assert_eq!(a, b);
        // Starts never precede input finishes.
        for stage in dag.stages() {
            for input in &stage.inputs {
                assert!(a.stage_start[stage.id.0] >= a.stage_finish[input.0] - 1e-9);
            }
        }
        assert!(a.latency > 0.0);
        assert!(a.total_cpu_seconds > 0.0);
    }

    #[test]
    fn more_machines_reduce_latency() {
        // A wide DAG (union of many branches) benefits from parallelism.
        let mut plan = LogicalPlan::scan("events").aggregate(vec![1]);
        for _ in 0..7 {
            plan = LogicalPlan::union(plan, LogicalPlan::scan("events").aggregate(vec![1]));
        }
        let dag = dag_for(&plan);
        let small = Simulator::with_obs(
            ClusterConfig {
                machines: 1,
                ..Default::default()
            },
            Obs::disabled(),
        )
        .unwrap()
        .run(&dag, &SimOptions::default())
        .unwrap();
        let large = Simulator::with_obs(
            ClusterConfig {
                machines: 32,
                ..Default::default()
            },
            Obs::disabled(),
        )
        .unwrap()
        .run(&dag, &SimOptions::default())
        .unwrap();
        assert!(large.latency < small.latency);
        // CPU time is conserved (same work, same overheads).
        assert!((large.total_cpu_seconds - small.total_cpu_seconds).abs() < 1e-6);
    }

    #[test]
    fn checkpointing_lowers_hotspot_temp() {
        let dag = dag_for(&big_plan());
        let sim = Simulator::with_obs(ClusterConfig::default(), Obs::disabled()).unwrap();
        let plain = sim.run(&dag, &SimOptions::default()).unwrap();
        // Checkpoint the biggest-output stage.
        let biggest = dag
            .stages()
            .iter()
            .max_by(|a, b| a.output_bytes.partial_cmp(&b.output_bytes).unwrap())
            .unwrap()
            .id;
        let mut checkpointed = HashSet::new();
        checkpointed.insert(biggest);
        let ckpt = sim
            .run(
                &dag,
                &SimOptions {
                    checkpointed,
                    precomputed: HashSet::new(),
                },
            )
            .unwrap();
        assert!(ckpt.hotspot_peak() < plain.hotspot_peak());
        // Latency is unchanged in this model (checkpoint I/O is free here;
        // the checkpoint crate charges it explicitly).
        assert!((ckpt.latency - plain.latency).abs() < 1e-9);
    }

    #[test]
    fn failure_recovery_faster_with_checkpoints() {
        let dag = dag_for(&big_plan());
        let sim = Simulator::with_obs(ClusterConfig::default(), Obs::disabled()).unwrap();
        // No checkpoints: recovery re-runs everything.
        let (orig, recovery_none) = sim.run_with_failure(&dag, &HashSet::new(), 0.8).unwrap();
        assert!((recovery_none.latency - orig.latency).abs() < 1e-9);
        // Checkpoint everything: recovery skips all completed stages.
        let all: HashSet<StageId> = dag.stages().iter().map(|s| s.id).collect();
        let (_, recovery_all) = sim.run_with_failure(&dag, &all, 0.8).unwrap();
        assert!(recovery_all.latency < orig.latency);
    }

    #[test]
    fn precomputed_stages_finish_at_zero() {
        let dag = dag_for(&big_plan());
        let sim = Simulator::with_obs(ClusterConfig::default(), Obs::disabled()).unwrap();
        let mut precomputed = HashSet::new();
        precomputed.insert(StageId(0));
        let r = sim
            .run(
                &dag,
                &SimOptions {
                    checkpointed: HashSet::new(),
                    precomputed,
                },
            )
            .unwrap();
        assert_eq!(r.stage_finish[0], 0.0);
    }

    #[test]
    fn invalid_cluster_rejected() {
        let invalid = [
            ClusterConfig {
                machines: 0,
                ..Default::default()
            },
            ClusterConfig {
                slots_per_machine: 0,
                ..Default::default()
            },
            ClusterConfig {
                work_per_second: 0.0,
                ..Default::default()
            },
            ClusterConfig {
                work_per_second: f64::NAN,
                ..Default::default()
            },
            ClusterConfig {
                work_per_second: f64::INFINITY,
                ..Default::default()
            },
            ClusterConfig {
                task_overhead: f64::NAN,
                ..Default::default()
            },
            ClusterConfig {
                task_overhead: -5.0,
                ..Default::default()
            },
        ];
        for config in invalid {
            assert!(
                Simulator::with_obs(config, Obs::disabled()).is_err(),
                "{config:?} must be rejected"
            );
        }
    }

    #[test]
    fn temp_peak_reflects_outputs() {
        let dag = dag_for(&LogicalPlan::scan("events"));
        let sim = Simulator::with_obs(ClusterConfig::default(), Obs::disabled()).unwrap();
        let r = sim.run(&dag, &SimOptions::default()).unwrap();
        let total_temp: f64 = r.machine_temp_peak.iter().sum();
        // The scan's full output is held in temp somewhere.
        assert!((total_temp - dag.stages()[0].output_bytes).abs() < 1.0);
    }
}

#[cfg(test)]
mod machine_failure_tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::physical::StageDag;
    use adas_workload::catalog::Catalog;
    use adas_workload::plan::{CmpOp, LogicalPlan, Predicate};

    fn dag() -> StageDag {
        let catalog = Catalog::standard();
        let plan = LogicalPlan::join(
            LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Le, 300)),
            LogicalPlan::scan("users"),
            0,
            0,
        )
        .aggregate(vec![1]);
        StageDag::compile(&plan, &catalog, &CostModel::default()).unwrap()
    }

    #[test]
    fn machine_failure_recovery_bounded_by_full_rerun() {
        let dag = dag();
        let sim = Simulator::with_obs(ClusterConfig::default(), Obs::disabled()).unwrap();
        let (orig, recovery) = sim
            .run_with_machine_failure(&dag, &HashSet::new(), 0, 0.9)
            .unwrap();
        // Recovery never exceeds a full re-run, and losing one machine of 16
        // late in the job should leave some work salvageable... unless every
        // early stage touched machine 0 — either way the bound holds.
        assert!(recovery.latency <= orig.latency + 1e-9);
    }

    #[test]
    fn checkpointed_outputs_survive_machine_loss() {
        let dag = dag();
        let sim = Simulator::with_obs(ClusterConfig::default(), Obs::disabled()).unwrap();
        let all: HashSet<StageId> = dag.stages().iter().map(|s| s.id).collect();
        let (_, ckpt_recovery) = sim.run_with_machine_failure(&dag, &all, 0, 0.9).unwrap();
        let (_, bare_recovery) = sim
            .run_with_machine_failure(&dag, &HashSet::new(), 0, 0.9)
            .unwrap();
        assert!(
            ckpt_recovery.latency <= bare_recovery.latency + 1e-9,
            "checkpoints must not hurt machine-failure recovery"
        );
        // With everything checkpointed, only unfinished work re-runs.
        let plain = sim.run(&dag, &SimOptions::default()).unwrap();
        assert!(ckpt_recovery.latency < plain.latency);
    }

    #[test]
    fn out_of_range_machine_rejected() {
        let dag = dag();
        let sim = Simulator::with_obs(ClusterConfig::default(), Obs::disabled()).unwrap();
        assert!(sim
            .run_with_machine_failure(&dag, &HashSet::new(), 999, 0.5)
            .is_err());
    }

    #[test]
    fn early_failure_loses_more_than_late_failure() {
        let dag = dag();
        let sim = Simulator::with_obs(ClusterConfig::default(), Obs::disabled()).unwrap();
        let (_, early) = sim
            .run_with_machine_failure(&dag, &HashSet::new(), 0, 0.1)
            .unwrap();
        let (_, late) = sim
            .run_with_machine_failure(&dag, &HashSet::new(), 0, 0.95)
            .unwrap();
        assert!(late.latency <= early.latency + 1e-9);
    }
}
