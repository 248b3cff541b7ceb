//! Plan featurization shared by the learned models.
//!
//! Features are deliberately simple and interpretable (Insight 1): the
//! default estimator's own output (log-scaled), basic plan-shape counts, and
//! the leading filter literals. Per-template models see instances of a
//! single plan shape, so a handful of features suffices.

use adas_engine::cardinality::{CardinalityModel, DefaultEstimator};
use adas_engine::cost::CostModel;
use adas_workload::catalog::Catalog;
use adas_workload::plan::{LogicalPlan, PlanKind};

/// Number of leading filter literals included in the feature vector.
pub const N_LITERALS: usize = 4;

/// Total feature-vector width produced by [`featurize`].
pub const WIDTH: usize = 4 + N_LITERALS;

/// Extracts the feature vector for a plan:
/// `[log(default_rows), log(default_cost), node_count, join_count,
/// literal_0..literal_3]` (missing literals are zero).
///
/// Runs the default estimator once; a plan it cannot annotate gets
/// `log(1)` for both estimates.
pub fn featurize(plan: &LogicalPlan, catalog: &Catalog, cost_model: &CostModel) -> Vec<f64> {
    match DefaultEstimator::new(catalog).annotate(plan) {
        Ok(rows) => featurize_annotated(plan, &rows, cost_model),
        Err(_) => features_from(plan, 1.0, 1.0),
    }
}

/// [`featurize`] from `default_rows`, the default estimator's pre-order
/// annotation of `plan`, for callers that already hold it: no estimator
/// pass at all.
pub fn featurize_annotated(
    plan: &LogicalPlan,
    default_rows: &[f64],
    cost_model: &CostModel,
) -> Vec<f64> {
    let cost = cost_model.breakdown(plan, default_rows).total;
    features_from(plan, default_rows[0], cost)
}

fn features_from(plan: &LogicalPlan, rows: f64, cost: f64) -> Vec<f64> {
    let mut features = Vec::with_capacity(WIDTH);
    features.push(rows.max(1.0).ln());
    features.push(cost.max(1.0).ln());
    features.push(plan.node_count() as f64);
    features.push(
        plan.iter()
            .filter(|n| matches!(n.kind, PlanKind::Join { .. }))
            .count() as f64,
    );
    let mut literals = plan
        .iter()
        .filter_map(|n| match &n.kind {
            PlanKind::Filter { predicate } => Some(predicate.clauses.iter().map(|c| c.value)),
            _ => None,
        })
        .flatten();
    for _ in 0..N_LITERALS {
        features.push(literals.next().unwrap_or(0) as f64);
    }
    features
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_workload::plan::{CmpOp, Predicate};

    #[test]
    fn feature_vector_shape_and_content() {
        let catalog = Catalog::standard();
        let cm = CostModel::default();
        let plan = LogicalPlan::join(
            LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Le, 100)),
            LogicalPlan::scan("users"),
            0,
            0,
        );
        let f = featurize(&plan, &catalog, &cm);
        assert_eq!(f.len(), WIDTH);
        assert!(f[0] > 0.0); // log rows
        assert!(f[1] > 0.0); // log cost
        assert_eq!(f[2], 4.0); // node count
        assert_eq!(f[3], 1.0); // join count
        assert_eq!(f[4], 100.0); // first literal
        assert_eq!(f[5], 0.0); // padding
    }

    #[test]
    fn literal_changes_move_features() {
        let catalog = Catalog::standard();
        let cm = CostModel::default();
        let mk = |v| LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Le, v));
        let a = featurize(&mk(100), &catalog, &cm);
        let b = featurize(&mk(500), &catalog, &cm);
        assert_ne!(a[0], b[0]); // default estimate shifts
        assert_ne!(a[4], b[4]); // literal shifts
        assert_eq!(a[2], b[2]); // shape identical
    }
}
