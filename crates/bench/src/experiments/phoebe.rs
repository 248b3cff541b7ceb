//! C5 — Phoebe's checkpoint optimizer (Sec 4.2, \[52\]).
//!
//! Paper numbers: ">70%" hotspot temp-storage freed, "68% faster" restarts,
//! "minimal impact" on performance. The evaluation workload is a large
//! multi-branch DAG (hundreds of stages — the paper notes production jobs
//! reach thousands) with the stage predictor trained on smaller historical
//! runs.

use crate::Row;
use adas_checkpoint::{evaluate, plan_checkpoints, PhoebeConfig, StagePredictor};
use adas_engine::cost::CostModel;
use adas_engine::exec::{ClusterConfig, ExecReport, SimOptions, Simulator};
use adas_engine::physical::StageDag;
use adas_obs::Obs;
use adas_workload::catalog::Catalog;
use adas_workload::plan::{CmpOp, LogicalPlan, Predicate};

/// A wide multi-branch analytics job: `branches` join/filter pipelines fed
/// into a union-and-aggregate spine. `node ≈ 6 * branches` stages.
pub fn big_job(branches: usize, literal: i64) -> LogicalPlan {
    let tables = ["events", "sessions", "telemetry"];
    let branch = |i: usize| {
        let t = tables[i % tables.len()];
        LogicalPlan::join(
            LogicalPlan::scan(t).filter(Predicate::single(2, CmpOp::Le, literal + i as i64 * 7)),
            LogicalPlan::scan("users"),
            0,
            0,
        )
        .aggregate(vec![1])
    };
    let mut plan = branch(0);
    for i in 1..branches {
        plan = LogicalPlan::union(plan, branch(i));
    }
    plan.aggregate(vec![1])
}

/// Runs the experiment.
pub fn run() -> Vec<Row> {
    let catalog = Catalog::standard();
    let cost_model = CostModel::default();
    let cluster = ClusterConfig {
        machines: 32,
        ..Default::default()
    };
    let sim = Simulator::with_obs(cluster, Obs::disabled()).expect("valid cluster");

    // History: smaller jobs with varying literals.
    let history: Vec<(StageDag, ExecReport)> = [(8usize, 100i64), (10, 250), (12, 400), (8, 550)]
        .iter()
        .map(|&(b, v)| {
            let dag =
                StageDag::compile(&big_job(b, v), &catalog, &cost_model).expect("plan validates");
            let report = sim
                .run(&dag, &SimOptions::default())
                .expect("simulation succeeds");
            (dag, report)
        })
        .collect();
    let refs: Vec<(&StageDag, &ExecReport)> = history.iter().map(|(d, r)| (d, r)).collect();
    let predictor = StagePredictor::train(&refs).expect("enough stages");

    // Evaluation job: 40 branches ≈ 240 stages.
    let dag = StageDag::compile(&big_job(40, 320), &catalog, &cost_model).expect("plan validates");
    let forecast = predictor.forecast(&dag);
    let config = PhoebeConfig {
        max_cuts: 3,
        hotspot_threshold: 0.05,
        ..Default::default()
    };
    let plan = plan_checkpoints(&dag, &forecast, &config, &Obs::disabled());
    let report =
        evaluate(&dag, &plan, cluster, 0.85, &Obs::disabled()).expect("simulation succeeds");

    vec![
        Row::measured_only("C5", "evaluation DAG stages", dag.len() as f64, "stages"),
        Row::measured_only(
            "C5",
            "stages checkpointed",
            plan.stages.len() as f64,
            "stages",
        ),
        Row::with_paper(
            "C5",
            "hotspot temp freed",
            0.70,
            report.hotspot_reduction,
            "fraction (paper: >0.70)",
        ),
        Row::with_paper(
            "C5",
            "restart speedup",
            0.68,
            report.restart_speedup,
            "fraction",
        ),
        Row::with_paper(
            "C5",
            "runtime slowdown (paper: minimal)",
            0.0,
            report.slowdown,
            "fraction",
        ),
        Row::measured_only(
            "C5",
            "baseline hotspot",
            report.baseline_hotspot / 1e9,
            "GB",
        ),
        Row::measured_only(
            "C5",
            "checkpointed hotspot",
            report.ckpt_hotspot / 1e9,
            "GB",
        ),
        Row::measured_only(
            "C5",
            "baseline recovery",
            report.baseline_recovery,
            "seconds",
        ),
        Row::measured_only(
            "C5",
            "checkpointed recovery",
            report.ckpt_recovery,
            "seconds",
        ),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn c5_phoebe_shape_holds() {
        let rows = super::run();
        let get = |m: &str| {
            rows.iter()
                .find(|r| r.metric.starts_with(m))
                .unwrap()
                .measured
        };
        assert!(get("evaluation DAG stages") >= 200.0);
        assert!(
            get("hotspot temp freed") > 0.5,
            "hotspot freed {}",
            get("hotspot temp freed")
        );
        assert!(
            get("restart speedup") > 0.4,
            "restart speedup {}",
            get("restart speedup")
        );
        assert!(get("runtime slowdown") < 0.1);
    }
}
