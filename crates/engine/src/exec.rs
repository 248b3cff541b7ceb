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
use std::cmp::{Ordering, Reverse};
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

/// Pre-resolved metric identities for [`Simulator::record`] — the
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
            stage_latency: obs.histogram_handle("engine.exec", "stage_latency_seconds", &[]),
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
    /// re-run.
    fn required_stages(stages: &SimStages, options: &SimOptions) -> Vec<bool> {
        let n = stages.len();
        let mut required = vec![false; n];
        // Walk sinks-to-sources; topological order means consumers have
        // higher indices, so a reverse scan settles everything in one pass.
        for idx in (0..n).rev() {
            if options.precomputed.contains(&StageId(idx)) {
                continue;
            }
            let consumers = stages.consumers(idx);
            if consumers.is_empty() || consumers.iter().any(|&c| required[c]) {
                required[idx] = true;
            }
        }
        required
    }

    /// Runs the DAG to completion, records the run through
    /// [`Simulator::record`] and returns its report.
    pub fn run(&self, dag: &StageDag, options: &SimOptions) -> Result<ExecReport> {
        let report = self.schedule(dag, options)?.0;
        self.record(&report);
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
    /// [`Simulator::run`] is the schedule followed by this. The schedule is
    /// a pure function of the DAG, the cluster and the [`SimOptions`], so a
    /// caller that already holds the report of a run with the same inputs
    /// records that report here instead of simulating it again, and the
    /// trace is the same either way. `adas_faultsim`'s `ChaosRunner` does
    /// this when a restart's inputs equal the previous attempt's.
    ///
    /// This is the recorder's hottest call site (obs_bench measures it), so
    /// the whole replay records through a single [`Obs::batch`] — one lock
    /// acquisition per run — and stage spans use the interned indexed-name
    /// path instead of formatting `stage_{idx}` per stage.
    pub fn record(&self, report: &ExecReport) {
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

    /// Internal scheduler: returns the report plus the machine each task
    /// ran on (the temp-output placement machine-failure analysis needs).
    ///
    /// The schedule is produced by a [`ClusterSim`] component on the
    /// `simkern` discrete-event kernel: stage-task completions are events,
    /// the kernel clock is the only notion of time, and earliest-free-slot
    /// selection is a heap lookup. Reports and traces are pinned by the
    /// golden digests in `tests/golden_paths.rs`.
    fn schedule(&self, dag: &StageDag, options: &SimOptions) -> Result<(ExecReport, Placement)> {
        let stages = SimStages::new(dag);
        let required = Self::required_stages(&stages, options);
        let cluster = ClusterSim::new(&self.config, stages, required);
        let mut sim = Simulation::new(0);
        let cluster = Rc::new(RefCell::new(cluster));
        let id = sim.add_component(cluster.clone());
        sim.schedule(0.0, id, ClusterEvent::Kick);
        sim.run();
        let mut cluster = cluster.borrow_mut();
        debug_assert_eq!(
            cluster.cursor,
            cluster.stages.len(),
            "every stage must be placed when the event queue drains"
        );
        let (stage_start, stage_finish, placement, total_cpu, required) = cluster.take();
        let latency = stage_finish.iter().copied().fold(0.0, f64::max);
        let machine_temp_peak = self.temp_peaks(dag, options, &stage_finish, &placement);
        Ok((
            ExecReport {
                latency,
                total_cpu_seconds: total_cpu,
                stage_start,
                stage_finish,
                machine_temp_peak,
                executed: required,
            },
            placement,
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
        let (report, placement) = self.schedule(dag, options)?;
        let per_stage = (0..dag.len())
            .map(|idx| placement.stage(idx).to_vec())
            .collect();
        Ok((report, per_stage))
    }

    /// Computes per-machine peak local temp storage.
    ///
    /// Each task of a placed stage holds an equal share of the stage's
    /// output on its machine, from the stage's finish until the output is
    /// freed. The free time folds the consumers' finishes into the job's
    /// latency, the largest stage finish, so every free lands at job end,
    /// after every allocation. Outputs are sizes (never negative), so frees
    /// never raise a peak, and a machine's peak is the running sum of the
    /// shares allocated on it. The shares are added in order of finish,
    /// larger share first at equal finishes, then stage and task order —
    /// the order an alloc/free event sort that puts allocations first at
    /// equal times adds them in — so each peak is the same float sum.
    /// Checkpointed outputs live in the global store and precomputed stages
    /// never run; neither holds temp.
    fn temp_peaks(
        &self,
        dag: &StageDag,
        options: &SimOptions,
        stage_finish: &[f64],
        placement: &Placement,
    ) -> Vec<f64> {
        // (finish, per-task share, stage) for every placed stage whose
        // output stays in temp; precomputed stages are never placed.
        let mut allocs: Vec<(f64, f64, usize)> = Vec::with_capacity(dag.len());
        for stage in dag.stages() {
            let machines = placement.stage(stage.id.0);
            if machines.is_empty() || options.checkpointed.contains(&stage.id) {
                continue;
            }
            let share = stage.output_bytes / machines.len() as f64;
            allocs.push((stage_finish[stage.id.0], share, stage.id.0));
        }
        allocs.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(Ordering::Equal)
                .then(b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal))
        });
        let mut peak = vec![0.0f64; self.config.machines];
        for (_, share, idx) in allocs {
            for &m in placement.stage(idx) {
                peak[m] += share;
            }
        }
        peak
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

/// Per-stage data the component needs, copied out of the DAG once per run
/// because `simkern` components are `'static`. Inputs and consumers (the
/// inverse edges) are flattened into one backing vector each (CSR-style
/// offsets), so the copy costs three allocations however many stages
/// the DAG has.
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
    /// Flattens `dag`'s inputs in stage order, then inverts them: count
    /// each stage's consumers, turn the counts into start offsets, and fill
    /// in stage order, which advances every start offset to its end and
    /// lists each stage's consumers in ascending order.
    fn new(dag: &StageDag) -> Self {
        let mut meta = Vec::with_capacity(dag.len());
        let mut inputs_flat = Vec::new();
        for s in dag.stages() {
            inputs_flat.extend(s.inputs.iter().map(|i| i.0));
            meta.push(StageMeta {
                tasks: s.tasks,
                work: s.work,
                inputs_end: inputs_flat.len(),
                consumers_end: 0,
            });
        }
        for &input in &inputs_flat {
            meta[input].consumers_end += 1;
        }
        let mut start = 0;
        for m in &mut meta {
            let count = m.consumers_end;
            m.consumers_end = start;
            start += count;
        }
        let mut consumers_flat = vec![0; inputs_flat.len()];
        for s in dag.stages() {
            for input in &s.inputs {
                let end = &mut meta[input.0].consumers_end;
                consumers_flat[*end] = s.id.0;
                *end += 1;
            }
        }
        Self {
            meta,
            inputs_flat,
            consumers_flat,
        }
    }

    fn len(&self) -> usize {
        self.meta.len()
    }

    fn inputs(&self, idx: usize) -> &[usize] {
        span(&self.inputs_flat, |i| self.meta[i].inputs_end, idx)
    }

    fn consumers(&self, idx: usize) -> &[usize] {
        span(&self.consumers_flat, |i| self.meta[i].consumers_end, idx)
    }
}

/// Range `idx` of `flat`, whose ranges lie back to back in index order and
/// range `i` ends at `end(i)`.
fn span(flat: &[usize], end: impl Fn(usize) -> usize, idx: usize) -> &[usize] {
    let start = if idx == 0 { 0 } else { end(idx - 1) };
    &flat[start..end(idx)]
}

/// The machine each task ran on: one vector in stage order, with per-stage
/// end offsets like [`SimStages`]. Skipped stages own an empty range.
#[derive(Debug, Default)]
struct Placement {
    machines: Vec<usize>,
    /// End offset of each settled stage's machines in `machines`.
    ends: Vec<usize>,
}

impl Placement {
    /// The machines stage `idx`'s tasks ran on, in task order.
    fn stage(&self, idx: usize) -> &[usize] {
        span(&self.machines, |i| self.ends[i], idx)
    }
}

/// The cluster executor as a `simkern` component.
///
/// Placement is list scheduling: the dispatch cursor walks stages in
/// topological order, and a stage is placed the moment the cursor reaches
/// it with every input complete. Each task starts at
/// `max(slot_free, ready)`, with `ready` the max input finish. Stage
/// completions are kernel events (the clock advances through the
/// schedule), and the earliest-free slot is the top of a
/// `BinaryHeap<Reverse<(OrderedTick, slot)>>`, rewritten in place with
/// the task's finish; the slot index makes every key unique, so the order
/// slots are taken in depends only on the keys.
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
    stage_start: Vec<f64>,
    stage_finish: Vec<f64>,
    placement: Placement,
    total_cpu: f64,
}

impl ClusterSim {
    fn new(config: &ClusterConfig, stages: SimStages, required: Vec<bool>) -> Self {
        let n = stages.len();
        let total_slots = config.machines * config.slots_per_machine;
        let remaining_inputs = (0..n).map(|idx| stages.inputs(idx).len()).collect();
        let total_tasks = stages.meta.iter().map(|m| m.tasks).sum();
        Self {
            slots_per_machine: config.slots_per_machine,
            work_per_second: config.work_per_second,
            task_overhead: config.task_overhead,
            stages,
            required,
            slot_free: (0..total_slots)
                .map(|slot| Reverse((OrderedTick::new(0.0), slot)))
                .collect(),
            remaining_inputs,
            cursor: 0,
            stage_start: vec![0.0; n],
            stage_finish: vec![0.0; n],
            placement: Placement {
                machines: Vec::with_capacity(total_tasks),
                ends: Vec::with_capacity(n),
            },
            total_cpu: 0.0,
        }
    }

    /// Marks `idx` complete and unblocks its consumers.
    fn complete(&mut self, idx: usize) {
        for &consumer in self.stages.consumers(idx) {
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
                self.complete(idx);
            } else if self.remaining_inputs[idx] > 0 {
                return; // wait for a StageComplete event
            } else {
                self.place(idx, ctx);
            }
            self.placement.ends.push(self.placement.machines.len());
            self.cursor += 1;
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
            let mut earliest = self.slot_free.peek_mut().expect("at least one slot");
            let Reverse((free, slot)) = *earliest;
            debug_assert!(free.get().is_finite(), "slot free-time must be finite");
            let task_start = free.get().max(ready);
            let task_finish = task_start + task_duration;
            *earliest = Reverse((OrderedTick::new(task_finish), slot));
            drop(earliest); // restores heap order
            self.total_cpu += task_duration;
            finish = finish.max(task_finish);
            start = start.min(task_start);
            self.placement.machines.push(slot / self.slots_per_machine);
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
    fn take(&mut self) -> (Vec<f64>, Vec<f64>, Placement, f64, Vec<bool>) {
        (
            std::mem::take(&mut self.stage_start),
            std::mem::take(&mut self.stage_finish),
            std::mem::take(&mut self.placement),
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

    /// The alloc/free event sort that [`Simulator::temp_peaks`] replaced,
    /// kept as its reference. Each task of a placed stage allocates its
    /// share of the stage's output on its machine at the stage's finish,
    /// and frees it once the last consumer finished, but never before the
    /// job's latency. Events sort by time, allocations first at equal
    /// times, larger first.
    fn reference_temp_peaks(
        dag: &StageDag,
        options: &SimOptions,
        stage_finish: &[f64],
        stage_machines: &[Vec<usize>],
        latency: f64,
        machines: usize,
    ) -> Vec<f64> {
        let consumers = dag.consumers();
        // (time, machine, delta)
        let mut events: Vec<(f64, usize, f64)> = Vec::new();
        for stage in dag.stages() {
            let idx = stage.id.0;
            if options.checkpointed.contains(&stage.id) || options.precomputed.contains(&stage.id) {
                continue;
            }
            let placed = &stage_machines[idx];
            if placed.is_empty() {
                continue;
            }
            let per_machine = stage.output_bytes / placed.len() as f64;
            let free_time = consumers[idx]
                .iter()
                .map(|c| stage_finish[c.0])
                .fold(latency, f64::max);
            for &m in placed {
                events.push((stage_finish[idx], m, per_machine));
                events.push((free_time, m, -per_machine));
            }
        }
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(Ordering::Equal)
                .then(b.2.partial_cmp(&a.2).unwrap_or(Ordering::Equal))
        });
        let mut current = vec![0.0f64; machines];
        let mut peak = vec![0.0f64; machines];
        for (_, m, delta) in events {
            current[m] += delta;
            peak[m] = peak[m].max(current[m]);
        }
        peak
    }

    /// Stages drawn as `(work class, tasks, output class, output bytes,
    /// input mask, wiring)`: three work values and up to four tasks, so
    /// many stages share a duration. A third of the stages (wiring 0) are
    /// sources, which start together and tie on finish. One output class
    /// fixes the bytes, so shares tie too.
    fn arb_dag(specs: &[(usize, usize, usize, f64, u64, usize)]) -> StageDag {
        const WORK: [f64; 3] = [2.0e6, 3.0e6, 7.5e6];
        let stages = specs
            .iter()
            .enumerate()
            .map(|(i, &(work, tasks, output_class, output, mask, wiring))| {
                let inputs = if wiring == 0 {
                    Vec::new()
                } else {
                    (0..i).filter(|j| mask >> j & 1 == 1).map(StageId).collect()
                };
                crate::physical::Stage {
                    id: StageId(i),
                    op: "Synthetic",
                    inputs,
                    work: WORK[work],
                    est_work: WORK[work],
                    rows: 1.0,
                    est_rows: 1.0,
                    output_bytes: if output_class == 0 { 6400.0 } else { output },
                    tasks,
                }
            })
            .collect();
        StageDag::from_stages(stages).unwrap()
    }

    /// The stages whose bit is set in `mask`.
    fn subset(dag: &StageDag, mask: u64) -> HashSet<StageId> {
        (0..dag.len())
            .filter(|i| mask >> i & 1 == 1)
            .map(StageId)
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// `temp_peaks` equals the event sort bit for bit, whatever the
        /// DAG, checkpoints, precomputed stages and cluster shape.
        #[test]
        fn temp_peaks_match_event_sort_reference(
            specs in proptest::collection::vec(
                (0usize..3, 1usize..=4, 0usize..2, 1.0f64..1.0e9, 0u64..(1 << 14), 0usize..3),
                1..=14,
            ),
            masks in (0u64..(1 << 14), 0u64..(1 << 14), 0u64..(1 << 14)),
            shape in 0usize..4,
        ) {
            let (machines, slots_per_machine) = [(16, 4), (2, 1), (1, 1), (3, 5)][shape];
            let config = ClusterConfig {
                machines,
                slots_per_machine,
                ..Default::default()
            };
            let dag = arb_dag(&specs);
            let options = SimOptions {
                checkpointed: subset(&dag, masks.0),
                // About a quarter of the stages, so most runs still execute.
                precomputed: subset(&dag, masks.1 & masks.2),
            };
            let sim = Simulator::with_obs(config, Obs::disabled()).unwrap();
            let (report, placement) = sim.run_with_placement(&dag, &options).unwrap();
            let reference = reference_temp_peaks(
                &dag,
                &options,
                &report.stage_finish,
                &placement,
                report.latency,
                machines,
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&report.machine_temp_peak), bits(&reference));
        }
    }
}
