//! Plans with a node whose child count is not its operator's arity.
//! `interchange::import_plan` checks only the document, so it accepts
//! them; costing, optimizing and stage compile must then return
//! `LogicalPlan::validate`'s error instead of panicking on a missing or
//! extra child.

use adas_engine::cardinality::DefaultEstimator;
use adas_engine::cost::CostModel;
use adas_engine::physical::StageDag;
use adas_engine::rules::{Optimizer, RuleSet};
use adas_engine::EngineError;
use adas_workload::catalog::Catalog;
use adas_workload::interchange::{export_plan, import_plan};
use adas_workload::plan::{CmpOp, LogicalPlan, PlanKind, Predicate};

/// One node of every operator kind, with column references that resolve
/// against the `events` table.
fn kinds() -> Vec<PlanKind> {
    vec![
        PlanKind::Scan {
            table: "events".into(),
        },
        PlanKind::Filter {
            predicate: Predicate::single(1, CmpOp::Eq, 3),
        },
        PlanKind::Project { columns: vec![0] },
        PlanKind::Join {
            left_key: 0,
            right_key: 0,
        },
        PlanKind::Aggregate { group_by: vec![1] },
        PlanKind::Union,
    ]
}

/// Every kind with every wrong child count up to one past its arity (too
/// few and too many), at the root and below a well-formed `Project`.
fn malformed() -> Vec<LogicalPlan> {
    let mut plans = Vec::new();
    for kind in kinds() {
        for count in (0..=kind.arity() + 1).filter(|&c| c != kind.arity()) {
            let node = LogicalPlan {
                kind: kind.clone(),
                children: vec![LogicalPlan::scan("events"); count],
            };
            plans.push(node.clone().project(vec![0]));
            plans.push(node);
        }
    }
    plans
}

/// Costing, optimizing and stage compile each return `validate`'s error.
fn assert_rejected(plan: &LogicalPlan, catalog: &Catalog) {
    let want = EngineError::Workload(plan.validate(catalog).expect_err("plan is malformed"));
    assert!(want.to_string().contains("children, has"), "{want}");
    let est = DefaultEstimator::new(catalog);
    assert_eq!(
        CostModel::default().total_cost(plan, &est),
        Err(want.clone()),
        "total_cost of {plan:?}"
    );
    assert_eq!(
        Optimizer::default().optimize(plan, RuleSet::all(), &est),
        Err(want.clone()),
        "optimize of {plan:?}"
    );
    assert_eq!(
        StageDag::compile(plan, catalog, &CostModel::default()),
        Err(want),
        "compile of {plan:?}"
    );
}

#[test]
fn wrong_child_counts_are_errors_at_every_entry_point() {
    let catalog = Catalog::standard();
    let plans = malformed();
    assert_eq!(plans.len(), 2 * 13, "13 wrong (kind, count) pairs");
    for plan in &plans {
        assert_rejected(plan, &catalog);
        let json = export_plan("test", plan).expect("exports");
        let imported = import_plan(&json).expect("interchange checks only the document");
        assert_eq!(&imported, plan, "round trip of {plan:?}");
    }
}
