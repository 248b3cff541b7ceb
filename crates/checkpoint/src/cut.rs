//! Checkpoint cut selection and evaluation.
//!
//! A *cut* is a temporal frontier through the stage DAG: every stage
//! predicted to finish by the cut time whose output is still needed
//! afterwards gets checkpointed to the global store. Phoebe formulates cut
//! placement as a linear program; over the discrete set of candidate
//! frontiers used here (one per distinct predicted stage-end time),
//! exhaustively scoring every candidate inside the progress window finds the
//! same optimum.

use crate::predict::StageForecast;
use adas_engine::exec::{ClusterConfig, SimOptions};
use adas_engine::physical::{Stage, StageDag, StageId};
use adas_engine::Result;
use adas_faultsim::{ChaosRunner, FaultEvent, FaultSchedule};
use adas_obs::Obs;
use serde::Serialize;
use std::collections::HashSet;

/// Configuration for cut selection and evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhoebeConfig {
    /// Earliest acceptable cut position, as a fraction of predicted total
    /// work completed.
    pub min_progress: f64,
    /// Latest acceptable cut position.
    pub max_progress: f64,
    /// Maximum number of cuts to place (each in its own progress band).
    pub max_cuts: usize,
    /// Hotspot relief: any non-sink stage whose predicted output exceeds
    /// this fraction of the largest stage output is checkpointed as well —
    /// the "free the temporary storage on hotspots" objective of Phoebe's
    /// LP. Set above 1.0 to disable.
    pub hotspot_threshold: f64,
}

impl Default for PhoebeConfig {
    fn default() -> Self {
        Self {
            min_progress: 0.25,
            max_progress: 0.9,
            max_cuts: 1,
            hotspot_threshold: 0.1,
        }
    }
}

/// A selected checkpoint plan.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CheckpointPlan {
    /// Stages whose outputs are persisted to the global store.
    pub stages: Vec<StageId>,
    /// Total predicted bytes persisted.
    pub predicted_bytes: f64,
    /// Cut times chosen (predicted seconds).
    pub cut_times: Vec<f64>,
}

impl CheckpointPlan {
    /// The stage set as a hash set (for the simulator API).
    pub fn stage_set(&self) -> HashSet<StageId> {
        self.stages.iter().copied().collect()
    }

    /// An empty plan (no checkpoints) for baseline comparisons.
    pub fn empty() -> Self {
        Self {
            stages: Vec::new(),
            predicted_bytes: 0.0,
            cut_times: Vec::new(),
        }
    }
}

/// Stages crossing the frontier at time `t`: finished by `t`, output needed
/// after `t`.
fn frontier(dag: &StageDag, forecast: &StageForecast, t: f64) -> Vec<StageId> {
    let consumers = dag.consumers();
    dag.stages()
        .iter()
        .filter(|s| forecast.end[s.id.0] <= t)
        .filter(|s| consumers[s.id.0].iter().any(|c| forecast.end[c.0] > t))
        .map(|s| s.id)
        .collect()
}

/// Selects up to `config.max_cuts` cuts within the progress window, one per
/// equal-width progress band.
///
/// The frontier's crossing bytes are simultaneously (a) the temp storage
/// resident at that moment and (b) the volume a checkpoint must persist —
/// moving them to the global store frees exactly that much local temp. The
/// optimizer therefore cuts at the *residency peak* inside each band
/// (byte-maximal frontier): that frees the most hotspot storage and shields
/// the most completed work from restarts, while the progress window and the
/// per-byte write charge bound the overhead (the trade-off Phoebe's LP
/// balances).
///
/// The selection is recorded into `obs`: a `plan_checkpoints` span, one
/// `cut_selected` event per chosen cut time, and gauges for the persisted
/// stage count and predicted bytes.
pub fn plan_checkpoints(
    dag: &StageDag,
    forecast: &StageForecast,
    config: &PhoebeConfig,
    obs: &Obs,
) -> CheckpointPlan {
    let span = obs.span_enter("checkpoint.cut", "plan_checkpoints", 0.0);
    let plan = plan_checkpoints_inner(dag, forecast, config);
    if obs.is_enabled() {
        let mut batch = obs.batch();
        for t in &plan.cut_times {
            batch.event(
                "checkpoint.cut",
                "cut_selected",
                *t,
                &[("predicted_time", &format!("{t:.6}"))],
            );
        }
        batch.gauge_set(
            "checkpoint.cut",
            "stages_checkpointed",
            &[],
            plan.stages.len() as f64,
        );
        batch.gauge_set(
            "checkpoint.cut",
            "predicted_bytes",
            &[],
            plan.predicted_bytes,
        );
        batch.span_exit(span, plan.cut_times.last().copied().unwrap_or(0.0));
    }
    plan
}

fn plan_checkpoints_inner(
    dag: &StageDag,
    forecast: &StageForecast,
    config: &PhoebeConfig,
) -> CheckpointPlan {
    let total_work: f64 = forecast.duration.iter().sum();
    if total_work <= 0.0 || dag.is_empty() || config.max_cuts == 0 {
        return CheckpointPlan::empty();
    }
    // Progress at time t = fraction of predicted work finished by t.
    let progress_at = |t: f64| -> f64 {
        forecast
            .end
            .iter()
            .zip(&forecast.duration)
            .filter(|(&e, _)| e <= t)
            .map(|(_, &d)| d)
            .sum::<f64>()
            / total_work
    };
    // Candidate cut times: distinct predicted stage ends inside the window.
    let mut candidates: Vec<f64> = forecast
        .end
        .iter()
        .copied()
        .filter(|&t| {
            let p = progress_at(t);
            p >= config.min_progress && p <= config.max_progress
        })
        .collect();
    candidates.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    candidates.dedup();
    if candidates.is_empty() {
        return CheckpointPlan::empty();
    }

    let band_width = (config.max_progress - config.min_progress) / config.max_cuts as f64;
    let mut chosen_stages: HashSet<StageId> = HashSet::new();
    let mut cut_times = Vec::new();
    for band in 0..config.max_cuts {
        let lo = config.min_progress + band as f64 * band_width;
        let hi = lo + band_width;
        // Byte-maximal frontier (the residency peak) within this band.
        let best = candidates
            .iter()
            .filter(|&&t| {
                let p = progress_at(t);
                p >= lo && p < hi
            })
            .map(|&t| {
                let stages = frontier(dag, forecast, t);
                let bytes: f64 = stages.iter().map(|s| forecast.output_bytes[s.0]).sum();
                (t, stages, bytes)
            })
            .filter(|(_, stages, _)| !stages.is_empty())
            .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal));
        if let Some((t, stages, _)) = best {
            cut_times.push(t);
            chosen_stages.extend(stages);
        }
    }
    // Hotspot relief: also persist every non-sink stage whose output is a
    // large fraction of the biggest output, regardless of cut timing.
    let max_bytes = forecast.output_bytes.iter().copied().fold(0.0f64, f64::max);
    if max_bytes > 0.0 && config.hotspot_threshold <= 1.0 {
        let consumers = dag.consumers();
        for stage in dag.stages() {
            if !consumers[stage.id.0].is_empty()
                && forecast.output_bytes[stage.id.0] >= config.hotspot_threshold * max_bytes
            {
                chosen_stages.insert(stage.id);
            }
        }
    }
    let mut stages: Vec<StageId> = chosen_stages.into_iter().collect();
    stages.sort();
    let predicted_bytes = stages.iter().map(|s| forecast.output_bytes[s.0]).sum();
    CheckpointPlan {
        stages,
        predicted_bytes,
        cut_times,
    }
}

/// Evaluation of a checkpoint plan against the no-checkpoint baseline
/// (experiment C5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PhoebeReport {
    /// Hotspot (max-machine) temp peak without checkpoints, bytes.
    pub baseline_hotspot: f64,
    /// Hotspot temp peak with the plan, bytes.
    pub ckpt_hotspot: f64,
    /// Relative hotspot reduction (paper: > 0.70).
    pub hotspot_reduction: f64,
    /// Job latency without checkpoints, seconds.
    pub baseline_latency: f64,
    /// Job latency with checkpoint I/O charged, seconds.
    pub ckpt_latency: f64,
    /// Relative slowdown from checkpoint I/O (paper: "minimal").
    pub slowdown: f64,
    /// Recovery latency after failure, no checkpoints.
    pub baseline_recovery: f64,
    /// Recovery latency after failure, with checkpoints.
    pub ckpt_recovery: f64,
    /// Relative restart speedup (paper: 0.68 on average).
    pub restart_speedup: f64,
}

/// Simulated checkpoint-write cost that [`evaluate`] charges, in work
/// units per byte persisted (charged to the checkpointed stage).
const CKPT_WORK_PER_BYTE: f64 = 0.0005;

/// Returns a copy of the DAG with checkpoint-write work charged to the
/// checkpointed stages.
fn charge_ckpt_io(dag: &StageDag, plan: &CheckpointPlan) -> Result<StageDag> {
    let set = plan.stage_set();
    let stages: Vec<Stage> = dag
        .stages()
        .iter()
        .map(|s| {
            let mut s = s.clone();
            if set.contains(&s.id) {
                s.work += s.output_bytes * CKPT_WORK_PER_BYTE;
            }
            s
        })
        .collect();
    StageDag::from_stages(stages)
}

/// Runs the full with/without comparison on the cluster simulator, with a
/// task crash injected after `failure_at` of the stages completed.
///
/// Each recovery is the final run of a [`ChaosRunner::run_job`] under a
/// one-crash schedule, so it restarts under the same survivor rule as a
/// chaos drill: only completed checkpointed stages survive the crash.
///
/// The comparison records into `obs` (so exec spans and the injected
/// crashes land in the trace), which also receives the headline Phoebe
/// gauges: hotspot reduction, slowdown and restart speedup.
pub fn evaluate(
    dag: &StageDag,
    plan: &CheckpointPlan,
    cluster: ClusterConfig,
    failure_at: f64,
    obs: &Obs,
) -> Result<PhoebeReport> {
    let runner = ChaosRunner::with_obs(cluster, f64::INFINITY, obs.clone())?;
    let sim = runner.simulator();
    let crash = FaultSchedule {
        events: vec![FaultEvent::TaskCrash { at: failure_at }],
    };
    let baseline = sim.run(dag, &SimOptions::default())?;
    let baseline_recovery = runner.run_job(dag, &HashSet::new(), &crash)?.final_report;

    let charged = charge_ckpt_io(dag, plan)?;
    let ckpt_set = plan.stage_set();
    let ckpt = sim.run(
        &charged,
        &SimOptions {
            checkpointed: ckpt_set.clone(),
            precomputed: HashSet::new(),
        },
    )?;
    let ckpt_recovery = runner.run_job(&charged, &ckpt_set, &crash)?.final_report;

    let rel = |from: f64, to: f64| if from > 0.0 { (from - to) / from } else { 0.0 };
    let report = PhoebeReport {
        baseline_hotspot: baseline.hotspot_peak(),
        ckpt_hotspot: ckpt.hotspot_peak(),
        hotspot_reduction: rel(baseline.hotspot_peak(), ckpt.hotspot_peak()),
        baseline_latency: baseline.latency,
        ckpt_latency: ckpt.latency,
        slowdown: rel(ckpt.latency, baseline.latency).abs(),
        baseline_recovery: baseline_recovery.latency,
        ckpt_recovery: ckpt_recovery.latency,
        restart_speedup: rel(baseline_recovery.latency, ckpt_recovery.latency),
    };
    if obs.is_enabled() {
        // The runs above record through the same handle, so the batch opens
        // only after they finish.
        let mut batch = obs.batch();
        for (name, value) in [
            ("hotspot_reduction", report.hotspot_reduction),
            ("slowdown", report.slowdown),
            ("restart_speedup", report.restart_speedup),
        ] {
            batch.gauge_set("checkpoint.cut", name, &[], value);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::StagePredictor;
    use adas_engine::cost::CostModel;
    use adas_engine::exec::{ExecReport, Simulator};
    use adas_workload::catalog::Catalog;
    use adas_workload::plan::{CmpOp, LogicalPlan, Predicate};

    /// A moderately deep/wide plan whose middle stages have big outputs.
    fn test_plan(v: i64) -> LogicalPlan {
        let a = LogicalPlan::join(
            LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Le, v)),
            LogicalPlan::scan("users"),
            0,
            0,
        );
        let b = LogicalPlan::join(
            LogicalPlan::scan("sessions").filter(Predicate::single(2, CmpOp::Le, v)),
            LogicalPlan::scan("users"),
            0,
            0,
        );
        LogicalPlan::union(a, b).aggregate(vec![1])
    }

    fn setup() -> (StageDag, StageForecast) {
        let catalog = Catalog::standard();
        let cm = CostModel::default();
        let sim = Simulator::with_obs(ClusterConfig::default(), Obs::disabled()).unwrap();
        let history: Vec<(StageDag, ExecReport)> = [100, 250, 400, 600]
            .iter()
            .map(|&v| {
                let dag = StageDag::compile(&test_plan(v), &catalog, &cm).unwrap();
                let rep = sim.run(&dag, &SimOptions::default()).unwrap();
                (dag, rep)
            })
            .collect();
        let refs: Vec<(&StageDag, &ExecReport)> = history.iter().map(|(d, r)| (d, r)).collect();
        let predictor = StagePredictor::train(&refs).unwrap();
        let dag = StageDag::compile(&test_plan(350), &catalog, &cm).unwrap();
        let forecast = predictor.forecast(&dag);
        (dag, forecast)
    }

    #[test]
    fn plan_selects_nonempty_cut_in_window() {
        let (dag, forecast) = setup();
        // Disable hotspot relief so only the temporal cut remains.
        let config = PhoebeConfig {
            hotspot_threshold: 2.0,
            ..Default::default()
        };
        let plan = plan_checkpoints(&dag, &forecast, &config, &Obs::disabled());
        assert!(!plan.stages.is_empty());
        assert!(plan.predicted_bytes > 0.0);
        assert_eq!(plan.cut_times.len(), 1);
        // Every checkpointed stage really finishes before the cut and feeds
        // something after it.
        let consumers = dag.consumers();
        for id in &plan.stages {
            assert!(forecast.end[id.0] <= plan.cut_times[0] + 1e-9);
            assert!(consumers[id.0]
                .iter()
                .any(|c| forecast.end[c.0] > plan.cut_times[0]));
        }
    }

    #[test]
    fn multi_cut_covers_more_stages() {
        let (dag, forecast) = setup();
        let one = plan_checkpoints(
            &dag,
            &forecast,
            &PhoebeConfig {
                hotspot_threshold: 2.0,
                ..Default::default()
            },
            &Obs::disabled(),
        );
        let two = plan_checkpoints(
            &dag,
            &forecast,
            &PhoebeConfig {
                max_cuts: 2,
                hotspot_threshold: 2.0,
                ..Default::default()
            },
            &Obs::disabled(),
        );
        assert!(two.stages.len() >= one.stages.len());
    }

    #[test]
    fn zero_cuts_yield_empty_plan() {
        let (dag, forecast) = setup();
        let plan = plan_checkpoints(
            &dag,
            &forecast,
            &PhoebeConfig {
                max_cuts: 0,
                ..Default::default()
            },
            &Obs::disabled(),
        );
        assert_eq!(plan, CheckpointPlan::empty());
    }

    #[test]
    fn evaluation_shows_phoebe_effects() {
        let (dag, forecast) = setup();
        let plan = plan_checkpoints(&dag, &forecast, &PhoebeConfig::default(), &Obs::disabled());
        let report =
            evaluate(&dag, &plan, ClusterConfig::default(), 0.8, &Obs::disabled()).unwrap();
        // Hotspot shrinks, restart speeds up, latency overhead is bounded.
        assert!(report.hotspot_reduction > 0.3, "hotspot {:?}", report);
        assert!(report.restart_speedup > 0.0, "restart {:?}", report);
        assert!(report.slowdown < 0.2, "slowdown {:?}", report);
    }

    #[test]
    fn empty_plan_is_a_noop() {
        let (dag, _) = setup();
        let report = evaluate(
            &dag,
            &CheckpointPlan::empty(),
            ClusterConfig::default(),
            0.8,
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(report.hotspot_reduction, 0.0);
        assert_eq!(report.slowdown, 0.0);
        assert!(report.restart_speedup.abs() < 1e-9);
    }
}
