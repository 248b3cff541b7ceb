//! Driving a [`FaultSchedule`] through the cluster simulator.
//!
//! [`ChaosRunner`] replays a job's [`StageDag`]
//! under a schedule of crashes and machine losses, restarting after each
//! fault with exactly the outputs that genuinely survive: checkpointed
//! stages always, temp outputs only when their machine is intact. The
//! runner never panics on any schedule — indices and fractions are
//! clamped, and a fault that cannot fire (temp exhaustion below capacity)
//! is simply skipped.

use crate::schedule::{FaultEvent, FaultSchedule};
use adas_engine::exec::{ClusterConfig, ExecReport, SimOptions, Simulator};
use adas_engine::physical::{StageDag, StageId};
use adas_engine::Result;
use adas_obs::Obs;
use adas_simkern::{Component, Ctx, Simulation};
use serde::Serialize;
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

/// The resolved cause of one aborted attempt. Unlike the scheduled
/// [`FaultEvent`], this records what *actually* struck: a temp-exhaustion
/// event resolves to the hotspot machine it took down, and machine indices
/// are the clamped, in-range values the runner used.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FaultCause {
    /// The job's tasks crashed mid-run.
    TaskCrash,
    /// A specific machine died, losing its temp outputs.
    MachineLoss {
        /// The (clamped) machine that died.
        machine: usize,
    },
    /// Local temp filled past capacity; the hotspot machine was lost.
    TempExhaustion {
        /// The hotspot machine taken out of service.
        hotspot: usize,
    },
}

impl FaultCause {
    /// Stable kind name for metrics labels and trace events.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultCause::TaskCrash => "task_crash",
            FaultCause::MachineLoss { .. } => "machine_loss",
            FaultCause::TempExhaustion { .. } => "temp_exhaustion",
        }
    }
}

/// One aborted attempt: which run failed, why, and what survived. Earlier
/// versions of the runner swallowed the per-attempt cause entirely — the
/// chaos suite now asserts it is surfaced.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AttemptFailure {
    /// 1-based index of the aborted attempt.
    pub attempt: usize,
    /// What struck.
    pub cause: FaultCause,
    /// Latency/stage fraction of the attempt at which it struck.
    pub at: f64,
    /// Stages whose outputs survived into the next attempt.
    pub surviving_stages: usize,
}

/// The outcome of one chaos run: the final successful report plus the
/// fault-handling bookkeeping the chaos suite asserts on.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChaosOutcome {
    /// Report of the final (successful) attempt.
    pub final_report: ExecReport,
    /// Runs started, including the successful one (= faults fired + 1).
    pub attempts: usize,
    /// Faults that actually fired (a temp-exhaustion event below capacity
    /// does not fire).
    pub injected: usize,
    /// Checkpointed stages that completed before a fault and were executed
    /// again afterwards. Structurally zero: persisted checkpoints feed the
    /// restart's precomputed set, which is what the chaos suite proves.
    pub recomputed_checkpointed: usize,
    /// Wall-clock across all attempts: each aborted run contributes the
    /// latency fraction it reached, the final run its full latency.
    pub total_latency: f64,
    /// Per-attempt failure causes, in firing order (one entry per injected
    /// fault).
    pub attempt_failures: Vec<AttemptFailure>,
}

/// Replays jobs through [`Simulator`] under fault schedules.
#[derive(Debug, Clone)]
pub struct ChaosRunner {
    sim: Simulator,
    machines: usize,
    temp_capacity: f64,
    obs: Obs,
}

impl ChaosRunner {
    /// Creates a runner over a cluster. `temp_capacity_bytes` is the local
    /// temp capacity a [`FaultEvent::TempExhaustion`] tests against
    /// (`f64::INFINITY` means exhaustion never fires).
    ///
    /// The runner's fault injections and final-run execution spans land in
    /// the same trace: it emits `fault_injected` events and restart
    /// counters into `obs`, and hands the same handle to the inner
    /// [`Simulator`] so the consequences (per-stage spans, restart
    /// counters) are correlated with their causes.
    pub fn with_obs(cluster: ClusterConfig, temp_capacity_bytes: f64, obs: Obs) -> Result<Self> {
        Ok(Self {
            sim: Simulator::with_obs(cluster, obs.clone())?,
            machines: cluster.machines,
            temp_capacity: temp_capacity_bytes,
            obs,
        })
    }

    /// The underlying simulator (for fault-free baselines).
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// Streams this runner's flight record as chunked canonical JSON (see
    /// [`Obs::export_stream`]): a long chaos campaign can ship its trace
    /// without ever materializing the full export string.
    pub fn export_trace_stream(&self, chunk_size: usize, sink: impl FnMut(&str)) {
        self.obs.export_stream(chunk_size, sink);
    }

    /// Resolves what a scheduled fault does to the attempt described by
    /// `report`/`placement`: the surviving stage outputs and the concrete
    /// [`FaultCause`], or `None` when the fault cannot fire (temp
    /// exhaustion below capacity).
    #[allow(clippy::too_many_arguments)]
    fn resolve_fault(
        &self,
        dag: &StageDag,
        checkpointed: &HashSet<StageId>,
        precomputed: &HashSet<StageId>,
        report: &ExecReport,
        placement: &[Vec<usize>],
        event: FaultEvent,
        at: f64,
    ) -> Option<(HashSet<StageId>, FaultCause)> {
        match event {
            FaultEvent::TaskCrash { .. } => {
                // The job dies after `at` of its stages (by finish
                // order) completed; only globally-stored outputs
                // (checkpointed or already precomputed) survive.
                let mut order: Vec<usize> = (0..dag.len()).collect();
                order.sort_by(|&a, &b| {
                    report.stage_finish[a]
                        .partial_cmp(&report.stage_finish[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                let completed = ((dag.len() as f64) * at).floor() as usize;
                Some((
                    order[..completed.min(dag.len())]
                        .iter()
                        .map(|&i| StageId(i))
                        .filter(|id| checkpointed.contains(id) || precomputed.contains(id))
                        .collect(),
                    FaultCause::TaskCrash,
                ))
            }
            FaultEvent::MachineLoss { machine, .. } => {
                let clamped = machine.min(self.machines.saturating_sub(1));
                Some((
                    self.machine_loss_survivors(
                        dag,
                        checkpointed,
                        precomputed,
                        report,
                        placement,
                        clamped,
                        at,
                    ),
                    FaultCause::MachineLoss { machine: clamped },
                ))
            }
            FaultEvent::TempExhaustion { .. } => {
                if report.hotspot_peak() > self.temp_capacity {
                    // The hotspot machine spills past capacity and is
                    // taken out of service.
                    let hotspot = report
                        .machine_temp_peak
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                        .map(|(m, _)| m)
                        .unwrap_or(0);
                    Some((
                        self.machine_loss_survivors(
                            dag,
                            checkpointed,
                            precomputed,
                            report,
                            placement,
                            hotspot,
                            at,
                        ),
                        FaultCause::TempExhaustion { hotspot },
                    ))
                } else {
                    None
                }
            }
        }
    }

    /// Runs `dag` to completion under `schedule`, restarting after every
    /// fault that fires. Checkpointed outputs persist in the global store
    /// and are never executed twice; non-checkpointed temp outputs survive
    /// a machine loss only when they avoided the dead machine.
    ///
    /// The fault schedule is replayed as `simkern` events: each strike is
    /// an event whose fire time is the accumulated wall-clock at which it
    /// lands, so the kernel clock *is* the `total_latency` accumulator.
    ///
    /// Each distinct attempt is simulated once. An attempt's schedule is a
    /// pure function of the DAG, the cluster and its `checkpointed` and
    /// `precomputed` sets, and within a job `checkpointed` is fixed while
    /// `precomputed` only grows. So when a fault cannot fire, or every
    /// stage it leaves surviving was already precomputed (a task crash in a
    /// job that checkpoints nothing), the next attempt reuses the previous
    /// attempt's schedule instead of simulating it again. The final run,
    /// reused or simulated, is recorded through [`Simulator::record`]. The
    /// outcome and the trace are the same as when every attempt is
    /// simulated.
    pub fn run_job(
        &self,
        dag: &StageDag,
        checkpointed: &HashSet<StageId>,
        schedule: &FaultSchedule,
    ) -> Result<ChaosOutcome> {
        let job_span = self.obs.span_enter("faultsim.chaos", "run_job", 0.0);
        if schedule.events.is_empty() {
            // No scheduled faults means no kernel events to replay: the
            // drill is exactly one clean attempt at clock zero. Taking it
            // directly skips the per-job simulation setup (dag/checkpoint
            // clones, event queue) that the disabled-path budget would
            // otherwise pay for. Bit-identical to the event-driven path
            // below: with an empty schedule `Attempt(0)` goes straight to
            // the final run.
            let options = SimOptions {
                checkpointed: checkpointed.clone(),
                precomputed: HashSet::new(),
            };
            let final_report = self.sim.run(dag, &options)?;
            let total_latency = final_report.latency;
            self.obs.span_exit(job_span, total_latency);
            return Ok(ChaosOutcome {
                final_report,
                attempts: 1,
                injected: 0,
                recomputed_checkpointed: 0,
                total_latency,
                attempt_failures: Vec::new(),
            });
        }
        let drill = Rc::new(RefCell::new(ChaosSim {
            runner: self.clone(),
            dag: dag.clone(),
            checkpointed: checkpointed.clone(),
            events: schedule.events.clone(),
            precomputed: HashSet::new(),
            persisted: HashSet::new(),
            attempts: 0,
            injected: 0,
            recomputed_checkpointed: 0,
            attempt_failures: Vec::new(),
            final_report: None,
            total_latency: 0.0,
            error: None,
            kept: None,
        }));
        let mut sim = Simulation::new(0);
        let id = sim.add_component(drill.clone());
        sim.schedule(0.0, id, ChaosEvent::Attempt(0));
        sim.run();
        drop(sim);
        let state = Rc::try_unwrap(drill)
            .unwrap_or_else(|_| unreachable!("simulation still holds the component"))
            .into_inner();
        if let Some(err) = state.error {
            return Err(err);
        }
        self.obs.span_exit(job_span, state.total_latency);
        Ok(ChaosOutcome {
            final_report: state.final_report.expect("final attempt ran"),
            attempts: state.attempts,
            injected: state.injected,
            recomputed_checkpointed: state.recomputed_checkpointed,
            total_latency: state.total_latency,
            attempt_failures: state.attempt_failures,
        })
    }

    /// Survivors of losing `machine` at latency fraction `at`: stages that
    /// finished in time AND whose output is either globally stored or held
    /// entirely off the dead machine. The index is clamped so arbitrary
    /// schedules cannot panic.
    #[allow(clippy::too_many_arguments)]
    fn machine_loss_survivors(
        &self,
        dag: &StageDag,
        checkpointed: &HashSet<StageId>,
        precomputed: &HashSet<StageId>,
        report: &ExecReport,
        placement: &[Vec<usize>],
        machine: usize,
        at: f64,
    ) -> HashSet<StageId> {
        let machine = machine.min(self.machines.saturating_sub(1));
        let failure_time = report.latency * at;
        dag.stages()
            .iter()
            .filter(|s| report.stage_finish[s.id.0] <= failure_time)
            .filter(|s| {
                checkpointed.contains(&s.id)
                    || precomputed.contains(&s.id)
                    || !placement[s.id.0].contains(&machine)
            })
            .map(|s| s.id)
            .collect()
    }
}

/// The chaos drill as simulation events: `Attempt(k)` fires at the
/// accumulated wall-clock at which attempt `k` begins.
enum ChaosEvent {
    /// Start attempt `k`: run the simulator, resolve scheduled fault `k`
    /// (or, past the end of the schedule, the final successful run).
    Attempt(usize),
}

/// Component state for one [`ChaosRunner::run_job`] drill. Owns clones of
/// the inputs so the component satisfies the kernel's `'static` bound; the
/// runner clone shares the same `Obs` handle, so everything it records
/// lands in the caller's trace.
struct ChaosSim {
    runner: ChaosRunner,
    dag: StageDag,
    checkpointed: HashSet<StageId>,
    events: Vec<FaultEvent>,
    precomputed: HashSet<StageId>,
    persisted: HashSet<StageId>,
    attempts: usize,
    injected: usize,
    recomputed_checkpointed: usize,
    attempt_failures: Vec<AttemptFailure>,
    final_report: Option<ExecReport>,
    total_latency: f64,
    error: Option<adas_engine::EngineError>,
    /// The latest attempt's `(report, placement)`, kept while the next
    /// attempt's simulator inputs equal its own. `checkpointed` is fixed
    /// and `precomputed` only grows, so a set of inputs can repeat only
    /// straight after itself and this one slot misses no repeat.
    kept: Option<(ExecReport, Vec<Vec<usize>>)>,
}

impl ChaosSim {
    /// The schedule of the attempt about to run: the kept one when its
    /// inputs have not changed since, else a fresh simulation. `None` once
    /// the simulator has returned an error, which is stored in `error`.
    fn attempt(&mut self) -> Option<(ExecReport, Vec<Vec<usize>>)> {
        if let Some(kept) = self.kept.take() {
            return Some(kept);
        }
        let options = SimOptions {
            checkpointed: self.checkpointed.clone(),
            precomputed: self.precomputed.clone(),
        };
        match self.runner.sim.run_with_placement(&self.dag, &options) {
            Ok(r) => Some(r),
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }

    /// Runs scheduled fault `k` against the next attempt. Returns the next
    /// event to emit: the following strike at the accumulated latency, or
    /// at the unchanged clock when the fault could not fire.
    fn strike(&mut self, k: usize, now: f64) -> Option<(ChaosEvent, f64)> {
        let (report, placement) = self.attempt()?;
        self.recomputed_checkpointed += self
            .persisted
            .iter()
            .filter(|id| report.executed[id.0])
            .count();

        let event = self.events[k];
        let at = event.strike_fraction().clamp(0.0, 1.0);
        let survivors = self.runner.resolve_fault(
            &self.dag,
            &self.checkpointed,
            &self.precomputed,
            &report,
            &placement,
            event,
            at,
        );

        let Some((survivors, cause)) = survivors else {
            // Fault could not fire: no latency accrues, next strike lands
            // at the same instant, on the same inputs.
            self.kept = Some((report, placement));
            return Some((ChaosEvent::Attempt(k + 1), now));
        };
        self.injected += 1;
        self.attempts += 1;
        // The kernel clock is the `total_latency` accumulator: this strike
        // lands at `now + latency·at`, a left-to-right sum over attempts.
        let strike_time = now + report.latency * at;
        self.attempt_failures.push(AttemptFailure {
            attempt: self.attempts,
            cause,
            at,
            surviving_stages: survivors.len(),
        });
        // One lock for the injection triple; `run_with_placement` above
        // records through the same handle, so the batch stays scoped here.
        let mut batch = self.runner.obs.batch();
        batch.event(
            "faultsim.chaos",
            "fault_injected",
            strike_time,
            &[
                ("kind", cause.kind()),
                ("attempt", &self.attempts.to_string()),
                ("at", &format!("{at:.6}")),
                ("surviving_stages", &survivors.len().to_string()),
            ],
        );
        batch.counter_add(
            "faultsim.chaos",
            "faults_injected",
            &[("kind", cause.kind())],
            1,
        );
        batch.counter_add("faultsim.chaos", "restarts", &[], 1);
        drop(batch);
        if survivors.is_subset(&self.precomputed) {
            // Nothing new survived, so the next attempt runs on this one's
            // inputs and would recompute this schedule.
            self.kept = Some((report, placement));
        }
        self.persisted.extend(
            survivors
                .iter()
                .filter(|id| self.checkpointed.contains(*id)),
        );
        self.precomputed.extend(survivors);
        Some((ChaosEvent::Attempt(k + 1), strike_time))
    }

    /// The final (successful) run, at the accumulated clock.
    fn finish(&mut self, now: f64) {
        let Some((final_report, _)) = self.attempt() else {
            return;
        };
        // Recorded through the simulator so its per-stage spans land in the
        // same trace as the fault events above.
        self.runner.sim.record(&final_report);
        self.recomputed_checkpointed += self
            .persisted
            .iter()
            .filter(|id| final_report.executed[id.0])
            .count();
        self.total_latency = now + final_report.latency;
        self.attempts += 1;
        self.final_report = Some(final_report);
    }
}

impl Component<ChaosEvent> for ChaosSim {
    fn on_event(&mut self, event: &ChaosEvent, ctx: &mut Ctx<'_, ChaosEvent>) {
        let ChaosEvent::Attempt(k) = *event;
        if self.error.is_some() {
            return;
        }
        if k < self.events.len() {
            if let Some((next, time)) = self.strike(k, ctx.time()) {
                ctx.emit_self_at(next, time);
            }
        } else {
            self.finish(ctx.time());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_engine::cost::CostModel;
    use adas_workload::catalog::Catalog;
    use adas_workload::plan::{CmpOp, LogicalPlan, Predicate};

    fn dag() -> StageDag {
        let plan = LogicalPlan::join(
            LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Le, 300)),
            LogicalPlan::scan("users"),
            0,
            0,
        )
        .aggregate(vec![1]);
        StageDag::compile(&plan, &Catalog::standard(), &CostModel::default()).unwrap()
    }

    fn runner(temp_capacity_bytes: f64) -> ChaosRunner {
        ChaosRunner::with_obs(
            ClusterConfig::default(),
            temp_capacity_bytes,
            Obs::disabled(),
        )
        .unwrap()
    }

    #[test]
    fn empty_schedule_matches_plain_run() {
        let dag = dag();
        let r = runner(f64::INFINITY);
        let outcome = r
            .run_job(&dag, &HashSet::new(), &FaultSchedule::none())
            .unwrap();
        let plain = r.simulator().run(&dag, &SimOptions::default()).unwrap();
        assert_eq!(outcome.final_report, plain);
        assert_eq!(outcome.attempts, 1);
        assert_eq!(outcome.injected, 0);
        assert!((outcome.total_latency - plain.latency).abs() < 1e-9);
    }

    #[test]
    fn task_crash_restarts_and_checkpoints_survive() {
        let dag = dag();
        let r = runner(f64::INFINITY);
        let all: HashSet<StageId> = dag.stages().iter().map(|s| s.id).collect();
        let schedule = FaultSchedule {
            events: vec![FaultEvent::TaskCrash { at: 0.8 }],
        };
        let ckpt = r.run_job(&dag, &all, &schedule).unwrap();
        let bare = r.run_job(&dag, &HashSet::new(), &schedule).unwrap();
        assert_eq!(ckpt.attempts, 2);
        assert_eq!(ckpt.recomputed_checkpointed, 0);
        assert!(ckpt.total_latency <= bare.total_latency + 1e-9);
    }

    #[test]
    fn out_of_range_machine_is_clamped_not_fatal() {
        let dag = dag();
        let r = runner(f64::INFINITY);
        let schedule = FaultSchedule {
            events: vec![FaultEvent::MachineLoss {
                machine: usize::MAX,
                at: 2.5,
            }],
        };
        let outcome = r.run_job(&dag, &HashSet::new(), &schedule).unwrap();
        assert_eq!(outcome.attempts, 2);
    }

    #[test]
    fn temp_exhaustion_fires_only_past_capacity() {
        let dag = dag();
        let schedule = FaultSchedule {
            events: vec![FaultEvent::TempExhaustion { at: 0.9 }],
        };
        assert_eq!(
            runner(f64::INFINITY)
                .run_job(&dag, &HashSet::new(), &schedule)
                .unwrap()
                .injected,
            0
        );
        assert_eq!(
            runner(1.0)
                .run_job(&dag, &HashSet::new(), &schedule)
                .unwrap()
                .injected,
            1
        );
    }
}
