//! Operator cost model over cardinality annotations.
//!
//! Costs are abstract work units (≈ row-operations). The same formulas are
//! applied to *estimated* cardinalities (what the optimizer sees) and to
//! *true* cardinalities (what execution charges); the learned cost
//! micromodels in the `learned` crate regress the latter from plan features.

use crate::cardinality::CardinalityModel;
use crate::Result;
use adas_workload::plan::{LogicalPlan, PlanKind};
use serde::{Deserialize, Serialize};

/// Per-operator unit costs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostWeights {
    /// Cost per row scanned.
    pub scan: f64,
    /// Cost per input row filtered.
    pub filter: f64,
    /// Cost per row projected.
    pub project: f64,
    /// Cost per row on the build side of a join.
    pub join_build: f64,
    /// Cost per row on the probe side of a join.
    pub join_probe: f64,
    /// Cost per output row of a join.
    pub join_output: f64,
    /// Cost per input row aggregated.
    pub aggregate: f64,
    /// Cost per row shuffled across the network (joins and aggregates
    /// repartition their inputs).
    pub shuffle: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        Self {
            scan: 1.0,
            filter: 0.2,
            project: 0.05,
            join_build: 1.5,
            join_probe: 0.8,
            join_output: 0.3,
            aggregate: 1.2,
            shuffle: 2.0,
        }
    }
}

/// Cost model parameterized by unit weights and a cardinality model.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel {
    weights: CostWeights,
}

/// Per-node cost annotation, pre-order, plus the total.
#[derive(Debug, Clone, PartialEq)]
pub struct CostBreakdown {
    /// Per-node costs in pre-order.
    pub per_node: Vec<f64>,
    /// Sum of per-node costs.
    pub total: f64,
}

impl CostModel {
    /// Creates a cost model with explicit weights.
    pub fn new(weights: CostWeights) -> Self {
        Self { weights }
    }

    /// Total plan cost under the given cardinality model.
    pub fn total_cost(&self, plan: &LogicalPlan, cards: &dyn CardinalityModel) -> Result<f64> {
        Ok(self.breakdown(plan, &cards.annotate(plan)?).total)
    }

    /// Per-node cost breakdown from `rows`, a pre-order annotation of
    /// `plan` (one estimate per node, as [`CardinalityModel::annotate`]
    /// returns it), so a caller that holds an annotation costs it without
    /// a second estimator pass.
    pub fn breakdown(&self, plan: &LogicalPlan, rows: &[f64]) -> CostBreakdown {
        let mut per_node = vec![0.0; rows.len()];
        let mut cursor = 0usize;
        self.node_cost(plan, rows, &mut cursor, &mut per_node);
        let total = per_node.iter().sum();
        CostBreakdown { per_node, total }
    }

    /// Computes the cost of the node at `*cursor` (pre-order) and recurses.
    /// Returns the node's pre-order index.
    fn node_cost(
        &self,
        plan: &LogicalPlan,
        rows: &[f64],
        cursor: &mut usize,
        out: &mut [f64],
    ) -> usize {
        let idx = *cursor;
        *cursor += 1;
        // Annotation rejects a node whose child count is not its arity (at
        // most two), so these are all the children a cost reads.
        let mut child_indices = [0usize; 2];
        for (slot, child) in child_indices.iter_mut().zip(&plan.children) {
            *slot = self.node_cost(child, rows, cursor, out);
        }
        let w = &self.weights;
        let out_rows = rows[idx];
        let cost = match &plan.kind {
            PlanKind::Scan { .. } => w.scan * out_rows,
            PlanKind::Filter { .. } => w.filter * rows[child_indices[0]],
            PlanKind::Project { .. } => w.project * rows[child_indices[0]],
            PlanKind::Join { .. } => {
                let l = rows[child_indices[0]];
                let r = rows[child_indices[1]];
                // The LEFT input is the build side (hash-join convention:
                // input order is physical). Choosing the build side is the
                // optimizer's job — `Rule::JoinCommute` guided by
                // *estimated* cardinalities, which is exactly the decision
                // rule-hint steering learns to overrule when the estimates
                // mislead.
                w.join_build * l + w.join_probe * r + w.join_output * out_rows + w.shuffle * (l + r)
            }
            PlanKind::Aggregate { .. } => {
                let input = rows[child_indices[0]];
                w.aggregate * input + w.shuffle * input
            }
            PlanKind::Union => 0.0, // concatenation is free in this model
        };
        out[idx] = cost;
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::{DefaultEstimator, TrueCardinality};
    use adas_workload::catalog::Catalog;
    use adas_workload::plan::{CmpOp, LogicalPlan, Predicate};

    #[test]
    fn scan_cost_is_linear_in_rows() {
        let c = Catalog::standard();
        let model = CostModel::default();
        let est = DefaultEstimator::new(&c);
        let small = model
            .total_cost(&LogicalPlan::scan("regions"), &est)
            .unwrap();
        let large = model
            .total_cost(&LogicalPlan::scan("events"), &est)
            .unwrap();
        assert!((small - 60.0).abs() < 1e-9);
        assert!((large - 50_000_000.0).abs() < 1e-3);
    }

    #[test]
    fn filter_reduces_downstream_cost() {
        let c = Catalog::standard();
        let model = CostModel::default();
        let est = DefaultEstimator::new(&c);
        let unfiltered = LogicalPlan::join(
            LogicalPlan::scan("events"),
            LogicalPlan::scan("users"),
            0,
            0,
        );
        let filtered = LogicalPlan::join(
            LogicalPlan::scan("events").filter(Predicate::single(1, CmpOp::Eq, 3)),
            LogicalPlan::scan("users"),
            0,
            0,
        );
        assert!(
            model.total_cost(&filtered, &est).unwrap()
                < model.total_cost(&unfiltered, &est).unwrap()
        );
    }

    #[test]
    fn breakdown_matches_total_and_shape() {
        let c = Catalog::standard();
        let model = CostModel::default();
        let est = DefaultEstimator::new(&c);
        let plan = LogicalPlan::scan("events")
            .filter(Predicate::single(1, CmpOp::Eq, 3))
            .aggregate(vec![3])
            .project(vec![0]);
        let b = model.breakdown(&plan, &est.annotate(&plan).unwrap());
        assert_eq!(b.per_node.len(), plan.node_count());
        assert!((b.per_node.iter().sum::<f64>() - b.total).abs() < 1e-9);
        assert!(b.per_node.iter().all(|&c| c >= 0.0));
    }

    #[test]
    fn estimated_and_true_costs_diverge() {
        let c = Catalog::standard();
        let model = CostModel::default();
        let plan = LogicalPlan::join(
            LogicalPlan::scan("events").filter(Predicate::single(0, CmpOp::Le, 1000)),
            LogicalPlan::scan("users"),
            0,
            0,
        );
        let est = model.total_cost(&plan, &DefaultEstimator::new(&c)).unwrap();
        let truth = model.total_cost(&plan, &TrueCardinality::new(&c)).unwrap();
        assert_ne!(est, truth);
    }

    #[test]
    fn join_cost_is_build_side_sensitive() {
        // Building on the big side is more expensive than probing it:
        // the input order matters, which is what makes JoinCommute a real
        // optimization decision.
        let c = Catalog::standard();
        let model = CostModel::default();
        let est = DefaultEstimator::new(&c);
        let build_big = LogicalPlan::join(
            LogicalPlan::scan("events"),
            LogicalPlan::scan("regions"),
            3,
            0,
        );
        let build_small = LogicalPlan::join(
            LogicalPlan::scan("regions"),
            LogicalPlan::scan("events"),
            0,
            3,
        );
        let big = model.total_cost(&build_big, &est).unwrap();
        let small = model.total_cost(&build_small, &est).unwrap();
        assert!(
            small < big,
            "build-small {small} should beat build-big {big}"
        );
    }
}
