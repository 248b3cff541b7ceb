//! The engine-agnostic logical-plan IR.
//!
//! A deliberately small relational algebra — scans, conjunctive filters,
//! projections, equi-joins, group-by aggregates, unions — rich enough to
//! exhibit everything the paper's engine-layer work needs: recurring
//! templates differing only in literals, shared subexpressions, containment
//! relationships, and multi-stage physical DAGs.

use crate::catalog::Catalog;
use crate::{Result, WorkloadError};
use serde::{Deserialize, Serialize};

/// Comparison operator in a filter clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=` (also spelled `<>` in SQL text)
    Ne,
}

impl CmpOp {
    /// Stable discriminant used by signature hashing. `Ne` was added after
    /// the original five; its discriminant extends the sequence so every
    /// pre-existing signature stays byte-identical.
    pub fn discriminant(self) -> u8 {
        match self {
            Self::Lt => 0,
            Self::Le => 1,
            Self::Gt => 2,
            Self::Ge => 3,
            Self::Eq => 4,
            Self::Ne => 5,
        }
    }

    /// Evaluates the comparison.
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            Self::Lt => lhs < rhs,
            Self::Le => lhs <= rhs,
            Self::Gt => lhs > rhs,
            Self::Ge => lhs >= rhs,
            Self::Eq => lhs == rhs,
            Self::Ne => lhs != rhs,
        }
    }

    /// The operator with its operands swapped: `a op b` ⇔ `b op.mirror() a`.
    /// Used by the SQL front-end to canonicalize literal-on-the-left
    /// comparisons.
    pub fn mirror(self) -> Self {
        match self {
            Self::Lt => Self::Gt,
            Self::Le => Self::Ge,
            Self::Gt => Self::Lt,
            Self::Ge => Self::Le,
            Self::Eq => Self::Eq,
            Self::Ne => Self::Ne,
        }
    }

    /// Canonical SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            Self::Lt => "<",
            Self::Le => "<=",
            Self::Gt => ">",
            Self::Ge => ">=",
            Self::Eq => "=",
            Self::Ne => "!=",
        }
    }
}

/// One clause `column <op> literal`. Column indices refer to the base table
/// feeding the filter (the leftmost scan beneath it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Comparison {
    /// Base-table column ordinal.
    pub column: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal value — the part that varies across instances of a
    /// recurring template.
    pub value: i64,
}

impl Comparison {
    /// Creates a clause.
    pub fn new(column: usize, op: CmpOp, value: i64) -> Self {
        Self { column, op, value }
    }
}

/// A conjunction of comparison clauses.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Predicate {
    /// Conjoined clauses; empty means "true".
    pub clauses: Vec<Comparison>,
}

impl Predicate {
    /// Creates a predicate from clauses.
    pub fn new(clauses: Vec<Comparison>) -> Self {
        Self { clauses }
    }

    /// Single-clause convenience constructor.
    pub fn single(column: usize, op: CmpOp, value: i64) -> Self {
        Self {
            clauses: vec![Comparison::new(column, op, value)],
        }
    }

    /// True when `self` is implied by every row satisfying `other` being a
    /// superset — i.e. `self` is *contained in* `other` (every row passing
    /// `self` also passes `other`). Used by the reuse crate's containment
    /// matching. Conservative: returns `false` when unsure.
    pub fn contained_in(&self, other: &Predicate) -> bool {
        // Every clause of `other` must be implied by some clause of `self`.
        other.clauses.iter().all(|oc| {
            self.clauses.iter().any(|sc| {
                if sc.column != oc.column {
                    return false;
                }
                match (sc.op, oc.op) {
                    (CmpOp::Lt, CmpOp::Lt) | (CmpOp::Le, CmpOp::Le) => sc.value <= oc.value,
                    (CmpOp::Lt, CmpOp::Le) => sc.value <= oc.value + 1,
                    (CmpOp::Le, CmpOp::Lt) => sc.value < oc.value,
                    (CmpOp::Gt, CmpOp::Gt) | (CmpOp::Ge, CmpOp::Ge) => sc.value >= oc.value,
                    (CmpOp::Gt, CmpOp::Ge) => sc.value + 1 >= oc.value,
                    (CmpOp::Ge, CmpOp::Gt) => sc.value > oc.value,
                    (CmpOp::Eq, CmpOp::Eq) => sc.value == oc.value,
                    (CmpOp::Eq, CmpOp::Lt) => sc.value < oc.value,
                    (CmpOp::Eq, CmpOp::Le) => sc.value <= oc.value,
                    (CmpOp::Eq, CmpOp::Gt) => sc.value > oc.value,
                    (CmpOp::Eq, CmpOp::Ge) => sc.value >= oc.value,
                    // `x != w` is implied whenever `self` excludes `w`.
                    (CmpOp::Ne, CmpOp::Ne) => sc.value == oc.value,
                    (CmpOp::Eq, CmpOp::Ne) => sc.value != oc.value,
                    (CmpOp::Lt, CmpOp::Ne) => sc.value <= oc.value,
                    (CmpOp::Le, CmpOp::Ne) => sc.value < oc.value,
                    (CmpOp::Gt, CmpOp::Ne) => sc.value >= oc.value,
                    (CmpOp::Ge, CmpOp::Ne) => sc.value > oc.value,
                    _ => false,
                }
            })
        })
    }
}

/// The operator at a plan node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlanKind {
    /// Leaf scan of a named base table.
    Scan {
        /// Catalog table name.
        table: String,
    },
    /// Conjunctive filter over one child.
    Filter {
        /// Filter predicate.
        predicate: Predicate,
    },
    /// Column projection over one child (no row-count change).
    Project {
        /// Retained column ordinals.
        columns: Vec<usize>,
    },
    /// Equi-join of two children on one key column each.
    Join {
        /// Key ordinal on the left input's base table.
        left_key: usize,
        /// Key ordinal on the right input's base table.
        right_key: usize,
    },
    /// Group-by aggregate over one child.
    Aggregate {
        /// Grouping column ordinals on the base table.
        group_by: Vec<usize>,
    },
    /// Bag union of two children.
    Union,
}

impl PlanKind {
    /// Number of children this operator requires.
    pub fn arity(&self) -> usize {
        match self {
            Self::Scan { .. } => 0,
            Self::Filter { .. } | Self::Project { .. } | Self::Aggregate { .. } => 1,
            Self::Join { .. } | Self::Union => 2,
        }
    }

    /// Short operator name for display and feature encoding.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Scan { .. } => "Scan",
            Self::Filter { .. } => "Filter",
            Self::Project { .. } => "Project",
            Self::Join { .. } => "Join",
            Self::Aggregate { .. } => "Aggregate",
            Self::Union => "Union",
        }
    }
}

/// A logical plan tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LogicalPlan {
    /// Operator at this node.
    pub kind: PlanKind,
    /// Child plans; length must equal `kind.arity()`.
    pub children: Vec<LogicalPlan>,
}

impl LogicalPlan {
    /// Leaf scan.
    pub fn scan(table: &str) -> Self {
        Self {
            kind: PlanKind::Scan {
                table: table.to_string(),
            },
            children: vec![],
        }
    }

    /// Wraps `self` in a filter.
    pub fn filter(self, predicate: Predicate) -> Self {
        Self {
            kind: PlanKind::Filter { predicate },
            children: vec![self],
        }
    }

    /// Wraps `self` in a projection.
    pub fn project(self, columns: Vec<usize>) -> Self {
        Self {
            kind: PlanKind::Project { columns },
            children: vec![self],
        }
    }

    /// Joins two plans on key ordinals.
    pub fn join(left: LogicalPlan, right: LogicalPlan, left_key: usize, right_key: usize) -> Self {
        Self {
            kind: PlanKind::Join {
                left_key,
                right_key,
            },
            children: vec![left, right],
        }
    }

    /// Wraps `self` in a group-by aggregate.
    pub fn aggregate(self, group_by: Vec<usize>) -> Self {
        Self {
            kind: PlanKind::Aggregate { group_by },
            children: vec![self],
        }
    }

    /// Bag union of two plans.
    pub fn union(left: LogicalPlan, right: LogicalPlan) -> Self {
        Self {
            kind: PlanKind::Union,
            children: vec![left, right],
        }
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(LogicalPlan::node_count)
            .sum::<usize>()
    }

    /// Height of the tree (a leaf has height 1).
    pub fn height(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(LogicalPlan::height)
            .max()
            .unwrap_or(0)
    }

    /// Pre-order iterator over all nodes.
    pub fn iter(&self) -> PlanIter<'_> {
        PlanIter { stack: vec![self] }
    }

    /// All subtrees (including `self`), pre-order.
    pub fn subplans(&self) -> Vec<&LogicalPlan> {
        self.iter().collect()
    }

    /// Name of the leftmost base table under this node, if any. Filters and
    /// aggregates resolve their column ordinals against this table.
    pub fn base_table(&self) -> Option<&str> {
        match &self.kind {
            PlanKind::Scan { table } => Some(table),
            _ => self.children.first().and_then(LogicalPlan::base_table),
        }
    }

    /// Applies `f` to every literal in every filter predicate, in pre-order.
    /// This is how template instances are stamped out from a template plan.
    pub fn map_literals(&self, f: &mut impl FnMut(i64) -> i64) -> LogicalPlan {
        let kind = match &self.kind {
            PlanKind::Filter { predicate } => PlanKind::Filter {
                predicate: Predicate::new(
                    predicate
                        .clauses
                        .iter()
                        .map(|c| Comparison::new(c.column, c.op, f(c.value)))
                        .collect(),
                ),
            },
            other => other.clone(),
        };
        LogicalPlan {
            kind,
            children: self.children.iter().map(|c| c.map_literals(f)).collect(),
        }
    }

    /// This node's child count against its operator's arity (children are
    /// not visited). Code that reads a node's children by position calls
    /// this first, so a malformed plan is an error, not a panic.
    pub fn check_arity(&self) -> Result<()> {
        if self.children.len() != self.kind.arity() {
            return Err(WorkloadError::MalformedPlan(format!(
                "{} requires {} children, has {}",
                self.kind.name(),
                self.kind.arity(),
                self.children.len()
            )));
        }
        Ok(())
    }

    /// Structural validation: arity of every node, and every scanned table
    /// (plus every filter/aggregate/join column) exists in the catalog.
    pub fn validate(&self, catalog: &Catalog) -> Result<()> {
        self.check_arity()?;
        match &self.kind {
            PlanKind::Scan { table } => {
                catalog.table(table)?;
            }
            PlanKind::Filter { predicate } => {
                let table = self.base_table().ok_or_else(|| {
                    WorkloadError::MalformedPlan("filter without base table".into())
                })?;
                let meta = catalog.table(table)?;
                for clause in &predicate.clauses {
                    meta.column(clause.column)?;
                }
            }
            PlanKind::Aggregate { group_by } => {
                let table = self.base_table().ok_or_else(|| {
                    WorkloadError::MalformedPlan("aggregate without base table".into())
                })?;
                let meta = catalog.table(table)?;
                for &c in group_by {
                    meta.column(c)?;
                }
            }
            PlanKind::Join {
                left_key,
                right_key,
            } => {
                for (side, key) in [(0usize, *left_key), (1, *right_key)] {
                    let table = self.children[side].base_table().ok_or_else(|| {
                        WorkloadError::MalformedPlan("join side without base table".into())
                    })?;
                    catalog.table(table)?.column(key)?;
                }
            }
            PlanKind::Project { .. } | PlanKind::Union => {}
        }
        for child in &self.children {
            child.validate(catalog)?;
        }
        Ok(())
    }
}

/// Pre-order iterator over plan nodes.
pub struct PlanIter<'a> {
    stack: Vec<&'a LogicalPlan>,
}

impl<'a> Iterator for PlanIter<'a> {
    type Item = &'a LogicalPlan;

    fn next(&mut self) -> Option<Self::Item> {
        let node = self.stack.pop()?;
        // Push children in reverse so the left child is visited first.
        for child in node.children.iter().rev() {
            self.stack.push(child);
        }
        Some(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> LogicalPlan {
        let left = LogicalPlan::scan("events").filter(Predicate::single(1, CmpOp::Eq, 7));
        let right = LogicalPlan::scan("users");
        LogicalPlan::join(left, right, 0, 0)
            .aggregate(vec![1])
            .project(vec![0])
    }

    #[test]
    fn structure_metrics() {
        let p = sample_plan();
        assert_eq!(p.node_count(), 6);
        assert_eq!(p.height(), 5);
        assert_eq!(p.subplans().len(), 6);
    }

    #[test]
    fn preorder_iteration() {
        let p = sample_plan();
        let names: Vec<&str> = p.iter().map(|n| n.kind.name()).collect();
        assert_eq!(
            names,
            vec!["Project", "Aggregate", "Join", "Filter", "Scan", "Scan"]
        );
    }

    #[test]
    fn base_table_is_leftmost() {
        let p = sample_plan();
        assert_eq!(p.base_table(), Some("events"));
        assert_eq!(
            p.children[0].children[0].children[1].base_table(),
            Some("users")
        );
    }

    #[test]
    fn validate_standard_plan() {
        let catalog = Catalog::standard();
        assert!(sample_plan().validate(&catalog).is_ok());
    }

    #[test]
    fn validate_rejects_bad_references() {
        let catalog = Catalog::standard();
        assert!(LogicalPlan::scan("missing").validate(&catalog).is_err());
        let bad_col = LogicalPlan::scan("events").filter(Predicate::single(99, CmpOp::Eq, 1));
        assert!(bad_col.validate(&catalog).is_err());
        let bad_arity = LogicalPlan {
            kind: PlanKind::Union,
            children: vec![LogicalPlan::scan("events")],
        };
        assert!(bad_arity.validate(&catalog).is_err());
    }

    #[test]
    fn map_literals_rewrites_only_filters() {
        let p = sample_plan();
        let shifted = p.map_literals(&mut |v| v + 100);
        let filter = &shifted.children[0].children[0].children[0];
        match &filter.kind {
            PlanKind::Filter { predicate } => assert_eq!(predicate.clauses[0].value, 107),
            other => panic!("expected filter, got {other:?}"),
        }
        // Structure is unchanged.
        assert_eq!(shifted.node_count(), p.node_count());
    }

    #[test]
    fn cmp_op_eval() {
        assert!(CmpOp::Lt.eval(1, 2));
        assert!(CmpOp::Le.eval(2, 2));
        assert!(CmpOp::Gt.eval(3, 2));
        assert!(CmpOp::Ge.eval(2, 2));
        assert!(CmpOp::Eq.eval(2, 2));
        assert!(!CmpOp::Eq.eval(1, 2));
        assert!(CmpOp::Ne.eval(1, 2));
        assert!(!CmpOp::Ne.eval(2, 2));
    }

    #[test]
    fn cmp_op_discriminants_are_stable() {
        // Pinned: these feed signature hashing, so any renumbering would
        // silently invalidate every recorded signature.
        let all = [
            (CmpOp::Lt, 0u8),
            (CmpOp::Le, 1),
            (CmpOp::Gt, 2),
            (CmpOp::Ge, 3),
            (CmpOp::Eq, 4),
            (CmpOp::Ne, 5),
        ];
        for (op, d) in all {
            assert_eq!(op.discriminant(), d);
        }
    }

    #[test]
    fn cmp_op_mirror_preserves_truth() {
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            for a in -2i64..=2 {
                for b in -2i64..=2 {
                    assert_eq!(op.eval(a, b), op.mirror().eval(b, a), "{op:?} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn ne_containment() {
        let ne = |v| Predicate::single(0, CmpOp::Ne, v);
        // x = 3 implies x != 4, not x != 3.
        assert!(Predicate::single(0, CmpOp::Eq, 3).contained_in(&ne(4)));
        assert!(!Predicate::single(0, CmpOp::Eq, 3).contained_in(&ne(3)));
        // x < 5 implies x != 5 and x != 7 but not x != 4.
        assert!(Predicate::single(0, CmpOp::Lt, 5).contained_in(&ne(5)));
        assert!(Predicate::single(0, CmpOp::Lt, 5).contained_in(&ne(7)));
        assert!(!Predicate::single(0, CmpOp::Lt, 5).contained_in(&ne(4)));
        // x <= 5 implies x != 6 but not x != 5.
        assert!(Predicate::single(0, CmpOp::Le, 5).contained_in(&ne(6)));
        assert!(!Predicate::single(0, CmpOp::Le, 5).contained_in(&ne(5)));
        // x > 5 implies x != 5; x >= 5 implies x != 4 but not x != 5.
        assert!(Predicate::single(0, CmpOp::Gt, 5).contained_in(&ne(5)));
        assert!(Predicate::single(0, CmpOp::Ge, 5).contained_in(&ne(4)));
        assert!(!Predicate::single(0, CmpOp::Ge, 5).contained_in(&ne(5)));
        // Ne only implies the same Ne; it is never contained in Eq/ranges.
        assert!(ne(5).contained_in(&ne(5)));
        assert!(!ne(5).contained_in(&ne(6)));
        assert!(!ne(5).contained_in(&Predicate::single(0, CmpOp::Lt, 5)));
    }

    #[test]
    fn predicate_containment() {
        // x < 10 is contained in x < 20.
        let narrow = Predicate::single(0, CmpOp::Lt, 10);
        let wide = Predicate::single(0, CmpOp::Lt, 20);
        assert!(narrow.contained_in(&wide));
        assert!(!wide.contained_in(&narrow));
        // Equality within a range.
        let eq = Predicate::single(0, CmpOp::Eq, 5);
        assert!(eq.contained_in(&wide));
        assert!(eq.contained_in(&Predicate::single(0, CmpOp::Ge, 5)));
        assert!(!eq.contained_in(&Predicate::single(0, CmpOp::Gt, 5)));
        // Different columns never contain.
        assert!(!narrow.contained_in(&Predicate::single(1, CmpOp::Lt, 20)));
        // Anything is contained in "true".
        assert!(narrow.contained_in(&Predicate::default()));
        // Conjunction: (x<10 AND y>3) contained in (x<20).
        let conj = Predicate::new(vec![
            Comparison::new(0, CmpOp::Lt, 10),
            Comparison::new(1, CmpOp::Gt, 3),
        ]);
        assert!(conj.contained_in(&wide));
        assert!(!wide.contained_in(&conj));
    }
}
