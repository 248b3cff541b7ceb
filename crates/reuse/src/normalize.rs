//! Canonical plan forms for semantic matching.
//!
//! Two plans are *semantically equivalent* for our algebra when they reduce
//! to the same canonical form:
//!
//! * adjacent filters are merged and their clauses sorted,
//! * union children are ordered by signature (bag union commutes),
//! * everything else is preserved structurally.
//!
//! Hashing the canonical form gives the *normalized signature* that extends
//! CloudViews matching beyond syntactic identity.

use adas_workload::plan::{LogicalPlan, PlanKind, Predicate};
use adas_workload::signature::{strict_signature, Signature};

/// Rewrites a plan into canonical form.
///
/// A node whose child count differs from its operator's arity (which
/// `import_plan` accepts) keeps its shape: only its children are
/// canonicalized, and it is never merged into a filter above it.
pub fn canonicalize(plan: &LogicalPlan) -> LogicalPlan {
    let mut children: Vec<LogicalPlan> = plan.children.iter().map(canonicalize).collect();
    match &plan.kind {
        PlanKind::Filter { predicate } if children.len() == 1 => {
            // Merge with an immediately-below filter.
            let (mut clauses, grand) = match children.remove(0) {
                LogicalPlan {
                    kind: PlanKind::Filter { predicate: inner },
                    children: mut gc,
                } if gc.len() == 1 => (inner.clauses, gc.remove(0)),
                other => (Vec::new(), other),
            };
            clauses.extend(predicate.clauses.iter().copied());
            clauses.sort_by_key(|c| (c.column, c.op.discriminant(), c.value));
            clauses.dedup();
            grand.filter(Predicate::new(clauses))
        }
        PlanKind::Union if children.len() == 2 => {
            children.sort_by_key(strict_signature);
            LogicalPlan {
                kind: PlanKind::Union,
                children,
            }
        }
        kind => LogicalPlan {
            kind: kind.clone(),
            children,
        },
    }
}

/// Signature of the canonical form.
pub fn normalized_signature(plan: &LogicalPlan) -> Signature {
    strict_signature(&canonicalize(plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_workload::interchange::{export_plan, import_plan};
    use adas_workload::plan::{CmpOp, Comparison};

    #[test]
    fn stacked_filters_equal_merged_filter() {
        let stacked = LogicalPlan::scan("events")
            .filter(Predicate::single(1, CmpOp::Eq, 3))
            .filter(Predicate::single(2, CmpOp::Le, 10));
        let merged = LogicalPlan::scan("events").filter(Predicate::new(vec![
            Comparison::new(2, CmpOp::Le, 10),
            Comparison::new(1, CmpOp::Eq, 3),
        ]));
        assert_ne!(strict_signature(&stacked), strict_signature(&merged));
        assert_eq!(
            normalized_signature(&stacked),
            normalized_signature(&merged)
        );
    }

    #[test]
    fn union_commutation_normalizes() {
        let a = LogicalPlan::union(LogicalPlan::scan("events"), LogicalPlan::scan("users"));
        let b = LogicalPlan::union(LogicalPlan::scan("users"), LogicalPlan::scan("events"));
        assert_eq!(normalized_signature(&a), normalized_signature(&b));
    }

    #[test]
    fn different_predicates_stay_different() {
        let a = LogicalPlan::scan("events").filter(Predicate::single(1, CmpOp::Eq, 3));
        let b = LogicalPlan::scan("events").filter(Predicate::single(1, CmpOp::Eq, 4));
        assert_ne!(normalized_signature(&a), normalized_signature(&b));
    }

    #[test]
    fn duplicate_clauses_deduped() {
        let doubled = LogicalPlan::scan("events")
            .filter(Predicate::single(1, CmpOp::Eq, 3))
            .filter(Predicate::single(1, CmpOp::Eq, 3));
        let single = LogicalPlan::scan("events").filter(Predicate::single(1, CmpOp::Eq, 3));
        assert_eq!(
            normalized_signature(&doubled),
            normalized_signature(&single)
        );
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let plan = LogicalPlan::union(
            LogicalPlan::scan("users").filter(Predicate::single(0, CmpOp::Ge, 2)),
            LogicalPlan::scan("events")
                .filter(Predicate::single(1, CmpOp::Eq, 3))
                .filter(Predicate::single(2, CmpOp::Lt, 9)),
        )
        .aggregate(vec![0]);
        let once = canonicalize(&plan);
        let twice = canonicalize(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn join_structure_preserved() {
        // Joins do not commute under normalization (key roles differ).
        let a = LogicalPlan::join(
            LogicalPlan::scan("events"),
            LogicalPlan::scan("users"),
            0,
            0,
        );
        let b = LogicalPlan::join(
            LogicalPlan::scan("users"),
            LogicalPlan::scan("events"),
            0,
            0,
        );
        assert_ne!(normalized_signature(&a), normalized_signature(&b));
    }

    #[test]
    fn wrong_child_counts_keep_their_shape() {
        let scan = || LogicalPlan::scan("events");
        let node = |kind, children| LogicalPlan { kind, children };
        let filter = || PlanKind::Filter {
            predicate: Predicate::single(1, CmpOp::Eq, 3),
        };
        let malformed = [
            node(PlanKind::Union, vec![scan()]),
            node(filter(), vec![]),
            // Under a filter that would merge a well-formed one.
            node(filter(), vec![]).filter(Predicate::single(2, CmpOp::Le, 10)),
            node(
                PlanKind::Union,
                vec![scan(), scan(), node(filter(), vec![scan(), scan()])],
            ),
        ];
        for plan in malformed {
            let json = export_plan("normalize-test", &plan).unwrap();
            let imported = import_plan(&json).unwrap();
            assert_eq!(normalized_signature(&imported), strict_signature(&plan));
        }
        // The children of a malformed node are still canonicalized.
        let stacked = scan()
            .filter(Predicate::single(2, CmpOp::Le, 10))
            .filter(Predicate::single(1, CmpOp::Eq, 3));
        let merged = scan().filter(Predicate::new(vec![
            Comparison::new(1, CmpOp::Eq, 3),
            Comparison::new(2, CmpOp::Le, 10),
        ]));
        let json = export_plan("normalize-test", &node(PlanKind::Union, vec![stacked])).unwrap();
        assert_eq!(
            normalized_signature(&import_plan(&json).unwrap()),
            strict_signature(&node(PlanKind::Union, vec![merged]))
        );
    }
}
