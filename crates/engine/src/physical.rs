//! Physical compilation: logical plans to stage DAGs.
//!
//! Cosmos jobs are "compiled into a Direct Acyclic Graph (DAG) of stages
//! that are executed in parallel", with some production jobs "containing
//! thousands of stages" (Sec 4.2, \[52\]). Each logical operator becomes one
//! stage carrying its true and estimated work, output size, and task
//! parallelism; the checkpoint optimizer (Phoebe) and the execution
//! simulator both operate on this structure.

use crate::cardinality::{CardinalityModel, DefaultEstimator, TrueCardinality};
use crate::cost::CostModel;
use crate::{EngineError, Result};
use adas_workload::catalog::Catalog;
use adas_workload::plan::LogicalPlan;
use serde::Serialize;

/// Identifier of a stage within one DAG (index into [`StageDag::stages`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct StageId(pub usize);

/// Bytes per output row charged by the simulator.
pub const BYTES_PER_ROW: f64 = 64.0;

/// Rows of true output one task handles before another task is added.
pub const ROWS_PER_TASK: f64 = 2_000_000.0;

/// Maximum tasks per stage.
pub const MAX_TASKS: usize = 64;

/// One physical stage.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Stage {
    /// Stage identifier (== its index).
    pub id: StageId,
    /// Operator name (for display/features).
    pub op: &'static str,
    /// Upstream stages whose outputs this stage consumes.
    pub inputs: Vec<StageId>,
    /// True work (cost units) — what execution charges.
    pub work: f64,
    /// Estimated work (cost units) — what the optimizer believed.
    pub est_work: f64,
    /// True output rows.
    pub rows: f64,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Output size written to local temp storage, in bytes.
    pub output_bytes: f64,
    /// Task parallelism.
    pub tasks: usize,
}

/// A DAG of stages in topological order (inputs always precede consumers).
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct StageDag {
    stages: Vec<Stage>,
}

impl StageDag {
    /// Compiles a logical plan into a stage DAG, annotating each stage with
    /// true and estimated work from the catalog's cardinality models. Each
    /// model annotates the plan once; both cost breakdowns are built from
    /// those annotations.
    pub fn compile(plan: &LogicalPlan, catalog: &Catalog, cost_model: &CostModel) -> Result<Self> {
        let true_rows = TrueCardinality::new(catalog).annotate(plan)?;
        let est_rows = DefaultEstimator::new(catalog).annotate(plan)?;
        let true_cost = cost_model.breakdown(plan, &true_rows);
        let est_cost = cost_model.breakdown(plan, &est_rows);

        // Walk the plan in pre-order, emitting stages in *post-order* so the
        // vector is topologically sorted (children first).
        let mut stages: Vec<Stage> = Vec::with_capacity(plan.node_count());
        let mut cursor = 0usize;
        fn emit(
            plan: &LogicalPlan,
            cursor: &mut usize,
            true_rows: &[f64],
            est_rows: &[f64],
            true_cost: &[f64],
            est_cost: &[f64],
            stages: &mut Vec<Stage>,
        ) -> StageId {
            let pre_idx = *cursor;
            *cursor += 1;
            let inputs: Vec<StageId> = plan
                .children
                .iter()
                .map(|c| emit(c, cursor, true_rows, est_rows, true_cost, est_cost, stages))
                .collect();
            let rows = true_rows[pre_idx];
            let id = StageId(stages.len());
            let tasks = ((rows / ROWS_PER_TASK).ceil() as usize).clamp(1, MAX_TASKS);
            stages.push(Stage {
                id,
                op: plan.kind.name(),
                inputs,
                work: true_cost[pre_idx],
                est_work: est_cost[pre_idx],
                rows,
                est_rows: est_rows[pre_idx],
                output_bytes: rows * BYTES_PER_ROW,
                tasks,
            });
            id
        }
        emit(
            plan,
            &mut cursor,
            &true_rows,
            &est_rows,
            &true_cost.per_node,
            &est_cost.per_node,
            &mut stages,
        );
        Ok(Self { stages })
    }

    /// Builds a DAG directly from stages (used by tests and the checkpoint
    /// crate's synthetic workloads). Validates topological order and edge
    /// sanity.
    pub fn from_stages(stages: Vec<Stage>) -> Result<Self> {
        for (i, stage) in stages.iter().enumerate() {
            if stage.id.0 != i {
                return Err(EngineError::MalformedDag(format!(
                    "stage at index {i} has id {}",
                    stage.id.0
                )));
            }
            for input in &stage.inputs {
                if input.0 >= i {
                    return Err(EngineError::MalformedDag(format!(
                        "stage {i} depends on later/own stage {}",
                        input.0
                    )));
                }
            }
        }
        Ok(Self { stages })
    }

    /// The stages, topologically ordered.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True when the DAG has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Consumers of each stage (inverse edges).
    pub fn consumers(&self) -> Vec<Vec<StageId>> {
        let mut out = vec![Vec::new(); self.stages.len()];
        for stage in &self.stages {
            for input in &stage.inputs {
                out[input.0].push(stage.id);
            }
        }
        out
    }

    /// Total true work across stages.
    pub fn total_work(&self) -> f64 {
        self.stages.iter().map(|s| s.work).sum()
    }

    /// Length (in work units) of the critical path through the DAG.
    pub fn critical_path_work(&self) -> f64 {
        let mut best = vec![0.0f64; self.stages.len()];
        for (i, stage) in self.stages.iter().enumerate() {
            let input_max = stage
                .inputs
                .iter()
                .map(|s| best[s.0])
                .fold(0.0f64, f64::max);
            best[i] = input_max + stage.work;
        }
        best.into_iter().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_workload::plan::{CmpOp, LogicalPlan, Predicate};

    fn compile(plan: &LogicalPlan) -> StageDag {
        let catalog = Catalog::standard();
        StageDag::compile(plan, &catalog, &CostModel::default()).unwrap()
    }

    #[test]
    fn one_stage_per_node_topologically_ordered() {
        let plan = LogicalPlan::join(
            LogicalPlan::scan("events").filter(Predicate::single(1, CmpOp::Eq, 3)),
            LogicalPlan::scan("users"),
            0,
            0,
        )
        .aggregate(vec![1]);
        let dag = compile(&plan);
        assert_eq!(dag.len(), plan.node_count());
        for (i, s) in dag.stages().iter().enumerate() {
            assert_eq!(s.id.0, i);
            assert!(s.inputs.iter().all(|x| x.0 < i));
        }
        // Root (the aggregate) is last.
        assert_eq!(dag.stages().last().unwrap().op, "Aggregate");
    }

    #[test]
    fn stage_annotations_positive() {
        let plan = LogicalPlan::scan("events")
            .filter(Predicate::single(2, CmpOp::Le, 100))
            .aggregate(vec![1]);
        let dag = compile(&plan);
        for s in dag.stages() {
            assert!(s.work >= 0.0);
            assert!(s.rows >= 1.0);
            assert!(s.output_bytes > 0.0);
            assert!((1..=MAX_TASKS).contains(&s.tasks));
        }
    }

    #[test]
    fn parallelism_scales_with_rows() {
        let big = compile(&LogicalPlan::scan("telemetry"));
        let small = compile(&LogicalPlan::scan("regions"));
        assert!(big.stages()[0].tasks > small.stages()[0].tasks);
        assert_eq!(small.stages()[0].tasks, 1);
    }

    #[test]
    fn critical_path_bounded_by_total() {
        let plan = LogicalPlan::union(
            LogicalPlan::scan("events").aggregate(vec![1]),
            LogicalPlan::scan("sessions").aggregate(vec![1]),
        );
        let dag = compile(&plan);
        let cp = dag.critical_path_work();
        assert!(cp > 0.0);
        assert!(cp <= dag.total_work() + 1e-9);
        // With two parallel branches the critical path is strictly shorter.
        assert!(cp < dag.total_work());
    }

    #[test]
    fn from_stages_validates() {
        let good = vec![
            Stage {
                id: StageId(0),
                op: "Scan",
                inputs: vec![],
                work: 1.0,
                est_work: 1.0,
                rows: 1.0,
                est_rows: 1.0,
                output_bytes: 64.0,
                tasks: 1,
            },
            Stage {
                id: StageId(1),
                op: "Filter",
                inputs: vec![StageId(0)],
                work: 1.0,
                est_work: 1.0,
                rows: 1.0,
                est_rows: 1.0,
                output_bytes: 64.0,
                tasks: 1,
            },
        ];
        assert!(StageDag::from_stages(good.clone()).is_ok());

        let mut bad_id = good.clone();
        bad_id[1].id = StageId(5);
        assert!(StageDag::from_stages(bad_id).is_err());

        let mut forward_edge = good;
        forward_edge[0].inputs = vec![StageId(1)];
        assert!(StageDag::from_stages(forward_edge).is_err());
    }

    #[test]
    fn consumers_invert_inputs() {
        let plan = LogicalPlan::union(LogicalPlan::scan("users"), LogicalPlan::scan("regions"));
        let dag = compile(&plan);
        let consumers = dag.consumers();
        // Both scans feed the union (the last stage).
        let root = StageId(dag.len() - 1);
        assert_eq!(consumers[0], vec![root]);
        assert_eq!(consumers[1], vec![root]);
        assert!(consumers[root.0].is_empty());
    }
}
