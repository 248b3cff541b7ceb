//! Stage-level prediction models.
//!
//! Trained on historical `(StageDag, ExecReport)` pairs, the predictor maps
//! optimizer-visible stage features (estimated work/rows, task count,
//! operator kind) to duration and output size, then derives start/end times
//! by propagating durations through the dependency structure — the
//! "taking into account of the inter-stage dependency" part of Phoebe.

use adas_engine::exec::ExecReport;
use adas_engine::physical::{Stage, StageDag};
use adas_ml::dataset::Dataset;
use adas_ml::gbm::{GbmConfig, GradientBoosting};
use adas_ml::{MlError, Regressor, Result};
use serde::Serialize;

fn op_code(op: &str) -> f64 {
    match op {
        "Scan" => 0.0,
        "Filter" => 1.0,
        "Project" => 2.0,
        "Join" => 3.0,
        "Aggregate" => 4.0,
        _ => 5.0,
    }
}

fn stage_features(stage: &Stage) -> Vec<f64> {
    vec![
        stage.est_work.max(1.0).ln(),
        stage.est_rows.max(1.0).ln(),
        stage.tasks as f64,
        op_code(stage.op),
        stage.inputs.len() as f64,
    ]
}

/// Per-stage forecast for one DAG.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageForecast {
    /// Predicted task-level duration of each stage, seconds.
    pub duration: Vec<f64>,
    /// Predicted output size of each stage, bytes.
    pub output_bytes: Vec<f64>,
    /// Predicted start time of each stage (dependency-propagated).
    pub start: Vec<f64>,
    /// Predicted end time of each stage (dependency-propagated).
    pub end: Vec<f64>,
}

impl StageForecast {
    /// Predicted completion time of the whole DAG.
    pub fn makespan(&self) -> f64 {
        self.end.iter().copied().fold(0.0, f64::max)
    }
}

/// Models predicting stage duration and output size.
pub struct StagePredictor {
    duration_model: GradientBoosting,
    bytes_model: GradientBoosting,
}

impl StagePredictor {
    /// Trains on historical executions. Requires at least a handful of
    /// observed stages.
    pub fn train(history: &[(&StageDag, &ExecReport)]) -> Result<Self> {
        let mut features = Vec::new();
        let mut durations = Vec::new();
        let mut bytes = Vec::new();
        for (dag, report) in history {
            for stage in dag.stages() {
                let idx = stage.id.0;
                features.push(stage_features(stage));
                durations.push((report.stage_finish[idx] - report.stage_start[idx]).max(0.0));
                bytes.push(stage.output_bytes.max(1.0).ln());
            }
        }
        if features.len() < 8 {
            return Err(MlError::InsufficientData(format!(
                "need >= 8 observed stages, got {}",
                features.len()
            )));
        }
        let duration_model = GradientBoosting::fit(
            &Dataset::new(features.clone(), durations)?,
            GbmConfig::default(),
        )?;
        let bytes_model =
            GradientBoosting::fit(&Dataset::new(features, bytes)?, GbmConfig::default())?;
        Ok(Self {
            duration_model,
            bytes_model,
        })
    }

    /// Forecasts a DAG: per-stage duration and output size from the models,
    /// start/end times by critical-path propagation (a machine-unconstrained
    /// lower bound, which is what cut placement needs).
    pub fn forecast(&self, dag: &StageDag) -> StageForecast {
        let n = dag.len();
        let mut duration = Vec::with_capacity(n);
        let mut output_bytes = Vec::with_capacity(n);
        for stage in dag.stages() {
            let f = stage_features(stage);
            duration.push(self.duration_model.predict(&f).max(0.0));
            output_bytes.push(self.bytes_model.predict(&f).exp().max(0.0));
        }
        let mut start = vec![0.0f64; n];
        let mut end = vec![0.0f64; n];
        for stage in dag.stages() {
            let idx = stage.id.0;
            let ready = stage.inputs.iter().map(|s| end[s.0]).fold(0.0f64, f64::max);
            start[idx] = ready;
            end[idx] = ready + duration[idx];
        }
        StageForecast {
            duration,
            output_bytes,
            start,
            end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_engine::cost::CostModel;
    use adas_engine::exec::{ClusterConfig, SimOptions, Simulator};
    use adas_obs::Obs;
    use adas_workload::catalog::Catalog;
    use adas_workload::plan::{CmpOp, LogicalPlan, Predicate};

    fn training_material() -> Vec<(StageDag, ExecReport)> {
        let catalog = Catalog::standard();
        let sim = Simulator::with_obs(ClusterConfig::default(), Obs::disabled()).unwrap();
        let cm = CostModel::default();
        let mut out = Vec::new();
        for v in [50, 150, 300, 500, 700] {
            let plan = LogicalPlan::join(
                LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Le, v)),
                LogicalPlan::scan("users"),
                0,
                0,
            )
            .aggregate(vec![1]);
            let dag = StageDag::compile(&plan, &catalog, &cm).unwrap();
            let report = sim.run(&dag, &SimOptions::default()).unwrap();
            out.push((dag, report));
        }
        out
    }

    #[test]
    fn predictor_learns_duration_scale() {
        let material = training_material();
        let refs: Vec<(&StageDag, &ExecReport)> = material.iter().map(|(d, r)| (d, r)).collect();
        let predictor = StagePredictor::train(&refs).unwrap();
        let (dag, report) = &material[2];
        let forecast = predictor.forecast(dag);
        assert_eq!(forecast.duration.len(), dag.len());
        // Makespan prediction within 3x of the observed latency.
        let ratio = forecast.makespan() / report.latency;
        assert!(ratio > 0.3 && ratio < 3.0, "makespan ratio {ratio}");
    }

    #[test]
    fn forecast_respects_dependencies() {
        let material = training_material();
        let refs: Vec<(&StageDag, &ExecReport)> = material.iter().map(|(d, r)| (d, r)).collect();
        let predictor = StagePredictor::train(&refs).unwrap();
        let (dag, _) = &material[0];
        let f = predictor.forecast(dag);
        for stage in dag.stages() {
            for input in &stage.inputs {
                assert!(f.start[stage.id.0] >= f.end[input.0] - 1e-9);
            }
            assert!(f.end[stage.id.0] >= f.start[stage.id.0]);
        }
    }

    #[test]
    fn insufficient_history_rejected() {
        assert!(StagePredictor::train(&[]).is_err());
    }

    #[test]
    fn output_bytes_positive() {
        let material = training_material();
        let refs: Vec<(&StageDag, &ExecReport)> = material.iter().map(|(d, r)| (d, r)).collect();
        let predictor = StagePredictor::train(&refs).unwrap();
        let f = predictor.forecast(&material[4].0);
        assert!(f.output_bytes.iter().all(|&b| b >= 0.0));
        assert!(f.output_bytes.iter().sum::<f64>() > 0.0);
    }
}
