//! Cluster execution simulator.
//!
//! Models the runtime behaviour the paper's Phoebe work reacts to: stage
//! tasks scheduled onto machines with bounded slots, local temp storage that
//! fills up on "machine hotspots", and job restarts that must recompute
//! everything not persisted. Checkpointed stages write to a global store
//! instead of local temp — freeing the hotspot and surviving failures.

use crate::physical::{StageDag, StageId};
use crate::{EngineError, Result};
use adas_obs::{CounterHandle, GaugeHandle, HistogramHandle, IndexedSpanKey, Obs, SpanKey};
use adas_simkern::OrderedTick;
use serde::{Deserialize, Serialize};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};
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
    fn required_stages(dag: &StageDag, options: &SimOptions) -> Vec<bool> {
        let n = dag.len();
        let mut required = vec![false; n];
        // Per stage: (feeds any stage, feeds a required stage). Walk
        // sinks-to-sources; topological order means consumers have higher
        // indices, so every consumer has marked a stage before it is reached.
        let mut feeds = vec![(false, false); n];
        for stage in dag.stages().iter().rev() {
            let idx = stage.id.0;
            let (feeds_any, feeds_required) = feeds[idx];
            required[idx] =
                !options.precomputed.contains(&stage.id) && (!feeds_any || feeds_required);
            for input in &stage.inputs {
                feeds[input.0].0 = true;
                feeds[input.0].1 |= required[idx];
            }
        }
        required
    }

    /// Runs the DAG to completion, records the run through
    /// [`Simulator::record`] and returns its report.
    ///
    /// Scheduling cannot fail once [`Simulator::with_obs`] has validated
    /// the cluster. The `Result` stays because the lifecycle benchmark
    /// (`lifecycle_bench/src/pipeline.rs`) chains this call with
    /// `and_then` and `map_err`.
    pub fn run(&self, dag: &StageDag, options: &SimOptions) -> Result<ExecReport> {
        let report = self.schedule(dag, options).0;
        self.record(&report);
        Ok(report)
    }

    /// The schedule alone, with no observability branch at all:
    /// [`Simulator::run`] is this followed by [`Simulator::record`]. It
    /// records nothing even when a recording handle is attached; `obs_bench`
    /// measures the recording cost of [`Simulator::run`] against it.
    pub fn run_unobserved(&self, dag: &StageDag, options: &SimOptions) -> ExecReport {
        self.schedule(dag, options).0
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
    /// Placement is list scheduling in one pass over the stages in index
    /// order, which [`StageDag`] keeps topological. Skipped stages settle
    /// at time zero. Each task of a required stage starts at
    /// `max(slot_free, ready)`, with `ready` the max input finish. The
    /// earliest-free slot is the top of a
    /// `BinaryHeap<Reverse<(OrderedTick, slot)>>`, rewritten in place with
    /// the task's finish; the slot index makes every key unique, so the
    /// order slots are taken in depends only on the keys. Reports and
    /// traces are pinned by the golden digests in `tests/golden_paths.rs`.
    fn schedule(&self, dag: &StageDag, options: &SimOptions) -> (ExecReport, Placement) {
        let n = dag.len();
        let executed = Self::required_stages(dag, options);
        let total_slots = self.config.machines * self.config.slots_per_machine;
        let mut slot_free: BinaryHeap<Reverse<(OrderedTick, usize)>> = (0..total_slots)
            .map(|slot| Reverse((OrderedTick::new(0.0), slot)))
            .collect();
        let mut stage_start = vec![0.0; n];
        let mut stage_finish = vec![0.0; n];
        let mut placement = Placement {
            machines: Vec::with_capacity(dag.stages().iter().map(|s| s.tasks).sum()),
            ends: Vec::with_capacity(n),
        };
        let mut total_cpu = 0.0;
        for (idx, stage) in dag.stages().iter().enumerate() {
            if executed[idx] {
                let ready = stage
                    .inputs
                    .iter()
                    .map(|s| stage_finish[s.0])
                    .fold(0.0f64, f64::max);
                let task_work = stage.work / stage.tasks as f64;
                let task_duration =
                    task_work / self.config.work_per_second + self.config.task_overhead;
                let mut finish = ready;
                let mut start = f64::INFINITY;
                for _ in 0..stage.tasks {
                    let mut earliest = slot_free.peek_mut().expect("at least one slot");
                    let Reverse((free, slot)) = *earliest;
                    debug_assert!(free.get().is_finite(), "slot free-time must be finite");
                    let task_start = free.get().max(ready);
                    let task_finish = task_start + task_duration;
                    *earliest = Reverse((OrderedTick::new(task_finish), slot));
                    drop(earliest); // restores heap order
                    total_cpu += task_duration;
                    finish = finish.max(task_finish);
                    start = start.min(task_start);
                    placement
                        .machines
                        .push(slot / self.config.slots_per_machine);
                }
                stage_start[idx] = if start.is_finite() { start } else { ready };
                stage_finish[idx] = finish;
            }
            placement.ends.push(placement.machines.len());
        }
        let latency = stage_finish.iter().copied().fold(0.0, f64::max);
        let machine_temp_peak = self.temp_peaks(dag, options, &stage_finish, &placement);
        (
            ExecReport {
                latency,
                total_cpu_seconds: total_cpu,
                stage_start,
                stage_finish,
                machine_temp_peak,
                executed,
            },
            placement,
        )
    }

    /// Like [`Simulator::run_unobserved`], additionally returning the
    /// machines each stage's tasks ran on (temp-output placement).
    /// Fault-injection harnesses use the placement to decide which outputs
    /// a machine loss destroys.
    pub fn run_with_placement(
        &self,
        dag: &StageDag,
        options: &SimOptions,
    ) -> (ExecReport, Vec<Vec<usize>>) {
        let (report, placement) = self.schedule(dag, options);
        let per_stage = (0..dag.len())
            .map(|idx| placement.stage(idx).to_vec())
            .collect();
        (report, per_stage)
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

/// The machine each task ran on: one vector in stage order, with per-stage
/// end offsets. Skipped stages own an empty range.
#[derive(Debug)]
struct Placement {
    machines: Vec<usize>,
    /// End offset of each stage's machines in `machines`.
    ends: Vec<usize>,
}

impl Placement {
    /// The machines stage `idx`'s tasks ran on, in task order.
    fn stage(&self, idx: usize) -> &[usize] {
        let start = if idx == 0 { 0 } else { self.ends[idx - 1] };
        &self.machines[start..self.ends[idx]]
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
            let (report, placement) = sim.run_with_placement(&dag, &options);
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
