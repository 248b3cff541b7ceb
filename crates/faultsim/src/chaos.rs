//! Driving a [`FaultSchedule`] through the cluster simulator.
//!
//! [`ChaosRunner`] replays a job's [`StageDag`]
//! under a schedule of crashes and machine losses, restarting after each
//! fault with exactly the outputs that genuinely survive: checkpointed
//! stages always, temp outputs only when their machine is intact. The
//! runner never panics on any schedule — indices and fractions are
//! clamped, and a fault that cannot fire (temp exhaustion below capacity)
//! is simply skipped.
//!
//! This is the one place the restart rule lives: `adas_checkpoint`'s
//! Phoebe evaluation measures recovery by running a one-crash schedule
//! through [`ChaosRunner::run_job`] as well.

use crate::schedule::{FaultEvent, FaultSchedule};
use adas_engine::exec::{ClusterConfig, ExecReport, SimOptions, Simulator};
use adas_engine::physical::{StageDag, StageId};
use adas_engine::Result;
use adas_obs::Obs;
use serde::Serialize;
use std::collections::HashSet;

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

    /// Resolves what a scheduled fault does to the attempt that ran on
    /// `options` and is described by `report`/`placement`: the surviving
    /// stage outputs and the concrete [`FaultCause`], or `None` when the
    /// fault cannot fire (temp exhaustion below capacity).
    fn resolve_fault(
        &self,
        dag: &StageDag,
        options: &SimOptions,
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
                        .filter(|id| {
                            options.checkpointed.contains(id) || options.precomputed.contains(id)
                        })
                        .collect(),
                    FaultCause::TaskCrash,
                ))
            }
            FaultEvent::MachineLoss { machine, .. } => {
                let clamped = machine.min(self.machines.saturating_sub(1));
                Some((
                    machine_loss_survivors(dag, options, report, placement, clamped, at),
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
                        machine_loss_survivors(dag, options, report, placement, hotspot, at),
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
    /// The attempts run one after another in a plain loop over the
    /// schedule. The wall-clock is a local accumulator: a fault that fires
    /// moves it to `now + latency·at` (never backwards), one that cannot
    /// fire leaves it where it is, and the final run adds its full latency.
    /// An empty schedule is exactly one [`Simulator::run`].
    ///
    /// Each distinct attempt is simulated once. An attempt's schedule is a
    /// pure function of the DAG, the cluster and its `checkpointed` and
    /// `precomputed` sets, and within a job `checkpointed` is fixed while
    /// `precomputed` only grows. So when a fault cannot fire, or every
    /// stage it leaves surviving was already precomputed (a task crash in a
    /// job that checkpoints nothing), the next attempt reuses the previous
    /// attempt's schedule instead of simulating it again. A reused final
    /// run is recorded through [`Simulator::record`]; the outcome and the
    /// trace are the same as when every attempt is simulated.
    pub fn run_job(
        &self,
        dag: &StageDag,
        checkpointed: &HashSet<StageId>,
        schedule: &FaultSchedule,
    ) -> Result<ChaosOutcome> {
        let job_span = self.obs.span_enter("faultsim.chaos", "run_job", 0.0);
        let outcome = self.replay(dag, checkpointed, schedule);
        // Closed on an error too, so the span never parents later records.
        self.obs
            .span_exit(job_span, outcome.as_ref().map_or(0.0, |o| o.total_latency));
        outcome
    }

    /// The attempts of [`ChaosRunner::run_job`], inside its span.
    fn replay(
        &self,
        dag: &StageDag,
        checkpointed: &HashSet<StageId>,
        schedule: &FaultSchedule,
    ) -> Result<ChaosOutcome> {
        let mut options = SimOptions {
            checkpointed: checkpointed.clone(),
            precomputed: HashSet::new(),
        };
        // Checkpointed stages the attempt executed although they survived
        // an earlier fault.
        let recomputed = |report: &ExecReport, precomputed: &HashSet<StageId>| {
            precomputed
                .iter()
                .filter(|id| checkpointed.contains(*id) && report.executed[id.0])
                .count()
        };
        let mut recomputed_checkpointed = 0;
        let mut attempt_failures: Vec<AttemptFailure> = Vec::new();
        // The latest attempt's `(report, placement)`, kept while the next
        // attempt's simulator inputs equal its own. `checkpointed` is fixed
        // and `precomputed` only grows, so a set of inputs can repeat only
        // straight after itself and this one slot misses no repeat.
        let mut kept: Option<(ExecReport, Vec<Vec<usize>>)> = None;
        let mut now = 0.0f64;
        for &event in &schedule.events {
            let (report, placement) = match kept.take() {
                Some(attempt) => attempt,
                None => self.sim.run_with_placement(dag, &options)?,
            };
            recomputed_checkpointed += recomputed(&report, &options.precomputed);
            let at = event.strike_fraction().clamp(0.0, 1.0);
            let Some((survivors, cause)) =
                self.resolve_fault(dag, &options, &report, &placement, event, at)
            else {
                // The fault could not fire: no latency accrues, and the
                // next attempt runs on the same inputs.
                kept = Some((report, placement));
                continue;
            };
            let attempt = attempt_failures.len() + 1;
            attempt_failures.push(AttemptFailure {
                attempt,
                cause,
                at,
                surviving_stages: survivors.len(),
            });
            let strike_time = now + report.latency * at;
            // One lock for the injection triple; `run_with_placement` above
            // records through the same handle, so the batch stays scoped here.
            let mut batch = self.obs.batch();
            batch.event(
                "faultsim.chaos",
                "fault_injected",
                strike_time,
                &[
                    ("kind", cause.kind()),
                    ("attempt", &attempt.to_string()),
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
            if survivors.is_subset(&options.precomputed) {
                // Nothing new survived, so the next attempt runs on this one's
                // inputs and would recompute this schedule.
                kept = Some((report, placement));
            }
            options.precomputed.extend(survivors);
            // `max` leaves the clock where it is on a NaN strike time.
            now = now.max(strike_time);
        }
        // The final (successful) run, recorded through the simulator so its
        // per-stage spans land in the same trace as the fault events above.
        let final_report = match kept {
            Some((report, _)) => {
                self.sim.record(&report);
                report
            }
            None => self.sim.run(dag, &options)?,
        };
        recomputed_checkpointed += recomputed(&final_report, &options.precomputed);
        Ok(ChaosOutcome {
            attempts: attempt_failures.len() + 1,
            injected: attempt_failures.len(),
            recomputed_checkpointed,
            total_latency: now + final_report.latency,
            final_report,
            attempt_failures,
        })
    }
}

/// Survivors of losing `machine` at latency fraction `at` of the attempt
/// that ran on `options`: stages that finished in time AND whose output is
/// either globally stored or held entirely off the dead machine.
fn machine_loss_survivors(
    dag: &StageDag,
    options: &SimOptions,
    report: &ExecReport,
    placement: &[Vec<usize>],
    machine: usize,
    at: f64,
) -> HashSet<StageId> {
    let failure_time = report.latency * at;
    dag.stages()
        .iter()
        .filter(|s| report.stage_finish[s.id.0] <= failure_time)
        .filter(|s| {
            options.checkpointed.contains(&s.id)
                || options.precomputed.contains(&s.id)
                || !placement[s.id.0].contains(&machine)
        })
        .map(|s| s.id)
        .collect()
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

    /// Latency of the run that recovers from the single fault `event`.
    fn recovery(dag: &StageDag, checkpointed: &HashSet<StageId>, event: FaultEvent) -> f64 {
        let schedule = FaultSchedule {
            events: vec![event],
        };
        runner(f64::INFINITY)
            .run_job(dag, checkpointed, &schedule)
            .unwrap()
            .final_report
            .latency
    }

    fn plain_latency(dag: &StageDag) -> f64 {
        runner(f64::INFINITY)
            .simulator()
            .run(dag, &SimOptions::default())
            .unwrap()
            .latency
    }

    #[test]
    fn failure_recovery_faster_with_checkpoints() {
        let dag = dag();
        let crash = FaultEvent::TaskCrash { at: 0.8 };
        // No checkpoints: recovery re-runs everything.
        assert_eq!(recovery(&dag, &HashSet::new(), crash), plain_latency(&dag));
        // Checkpoint everything: recovery skips all completed stages.
        let all: HashSet<StageId> = dag.stages().iter().map(|s| s.id).collect();
        assert!(recovery(&dag, &all, crash) < plain_latency(&dag));
    }

    #[test]
    fn machine_failure_recovery_bounded_by_full_rerun() {
        let dag = dag();
        let loss = FaultEvent::MachineLoss {
            machine: 0,
            at: 0.9,
        };
        assert!(recovery(&dag, &HashSet::new(), loss) <= plain_latency(&dag) + 1e-9);
    }

    #[test]
    fn checkpointed_outputs_survive_machine_loss() {
        let dag = dag();
        let loss = FaultEvent::MachineLoss {
            machine: 0,
            at: 0.9,
        };
        let all: HashSet<StageId> = dag.stages().iter().map(|s| s.id).collect();
        let ckpt = recovery(&dag, &all, loss);
        assert!(
            ckpt <= recovery(&dag, &HashSet::new(), loss) + 1e-9,
            "checkpoints must not hurt machine-failure recovery"
        );
        // With everything checkpointed, only unfinished work re-runs.
        assert!(ckpt < plain_latency(&dag));
    }

    #[test]
    fn early_failure_loses_more_than_late_failure() {
        let dag = dag();
        let loss = |at| FaultEvent::MachineLoss { machine: 0, at };
        let early = recovery(&dag, &HashSet::new(), loss(0.1));
        let late = recovery(&dag, &HashSet::new(), loss(0.95));
        assert!(late <= early + 1e-9);
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
