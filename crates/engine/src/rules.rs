//! Rule-based rewrite optimizer with a per-rule enable bitmask.
//!
//! SCOPE's optimizer "has 256 rules … which leads to 2^256 rule
//! configurations" (Sec 4.2). This simulator implements a representative
//! twelve-rule rewrite set — enough for a 4096-point configuration space the
//! steering bandit must search with "small incremental steps". The optimizer
//! is cost-guided: a rewrite is accepted only if it lowers cost under the
//! supplied (typically *default*, i.e. error-prone) cardinality model. When
//! the default estimates mislead, an accepted rewrite can *regress* the true
//! cost — the regression that rule-hint steering then learns to avoid
//! per-template.

use crate::cardinality::CardinalityModel;
use crate::cost::CostModel;
use crate::Result;
use adas_obs::Obs;
use adas_workload::plan::{LogicalPlan, PlanKind, Predicate};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Identifier of one rewrite rule (index into [`ALL_RULES`]).
pub type RuleId = usize;

/// A rewrite rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Rule {
    /// `Filter(Filter(x))` → single `Filter` with merged clauses.
    FilterMerge,
    /// `Filter(Join(L, R))` → `Join(Filter(L), R)`.
    FilterPushJoinLeft,
    /// `Filter(Union(A, B))` → `Union(Filter(A), Filter(B))`.
    FilterPushUnion,
    /// `Filter(Project(x))` → `Project(Filter(x))`.
    FilterPushProject,
    /// `Filter(Aggregate(x))` → `Aggregate(Filter(x))`.
    FilterPushAggregate,
    /// `Project(Project(x))` → outer `Project(x)`.
    ProjectMerge,
    /// `Project(Union(A, B))` → `Union(Project(A), Project(B))`.
    ProjectPushUnion,
    /// `Join(L, R)` → `Join(R, L)` (keys swapped).
    JoinCommute,
    /// `Union(A, B)` → `Union(B, A)`.
    UnionCommute,
    /// `Agg(Union(A, B))` → `Agg(Union(Agg(A), Agg(B)))` (partial
    /// aggregation).
    PartialAggregation,
    /// Multi-clause `Filter` → two stacked filters (first clause split out).
    FilterSplit,
    /// `Union(Filter(A, p), Filter(B, p))` → `Filter(Union(A, B), p)`.
    UnionFilterHoist,
}

/// Every rule, in bitmask order.
pub const ALL_RULES: [Rule; 12] = [
    Rule::FilterMerge,
    Rule::FilterPushJoinLeft,
    Rule::FilterPushUnion,
    Rule::FilterPushProject,
    Rule::FilterPushAggregate,
    Rule::ProjectMerge,
    Rule::ProjectPushUnion,
    Rule::JoinCommute,
    Rule::UnionCommute,
    Rule::PartialAggregation,
    Rule::FilterSplit,
    Rule::UnionFilterHoist,
];

impl Rule {
    /// Stable name for metrics labels and steering provenance.
    pub fn name(self) -> &'static str {
        match self {
            Rule::FilterMerge => "filter_merge",
            Rule::FilterPushJoinLeft => "filter_push_join_left",
            Rule::FilterPushUnion => "filter_push_union",
            Rule::FilterPushProject => "filter_push_project",
            Rule::FilterPushAggregate => "filter_push_aggregate",
            Rule::ProjectMerge => "project_merge",
            Rule::ProjectPushUnion => "project_push_union",
            Rule::JoinCommute => "join_commute",
            Rule::UnionCommute => "union_commute",
            Rule::PartialAggregation => "partial_aggregation",
            Rule::FilterSplit => "filter_split",
            Rule::UnionFilterHoist => "union_filter_hoist",
        }
    }

    /// The rewrite of `node` if the rule fires there: the new node, with a
    /// [`hole`] wherever a subtree of `node` moves to, and those moves.
    /// Only the new pattern nodes and the predicates or column lists they
    /// carry are allocated; the subtrees below the pattern are moved by
    /// [`Rule::rewrite_in_place`], never copied.
    fn skeleton(self, node: &LogicalPlan) -> Option<(LogicalPlan, Moves)> {
        let child = || op(&node.children[0]);
        Some(match (self, op(node)?) {
            (Rule::FilterMerge, PlanKind::Filter { predicate: outer }) => {
                let PlanKind::Filter { predicate: inner } = child()? else {
                    return None;
                };
                let mut clauses = inner.clauses.clone();
                clauses.extend(outer.clauses.iter().copied());
                (hole().filter(Predicate::new(clauses)), &[(&[0], &[0, 0])])
            }
            (Rule::FilterPushJoinLeft, PlanKind::Filter { predicate }) => {
                let PlanKind::Join {
                    left_key,
                    right_key,
                } = child()?
                else {
                    return None;
                };
                (
                    LogicalPlan::join(
                        hole().filter(predicate.clone()),
                        hole(),
                        *left_key,
                        *right_key,
                    ),
                    &[(&[0, 0], &[0, 0]), (&[1], &[0, 1])],
                )
            }
            (Rule::FilterPushUnion, PlanKind::Filter { predicate }) => {
                let PlanKind::Union = child()? else {
                    return None;
                };
                (
                    LogicalPlan::union(
                        hole().filter(predicate.clone()),
                        hole().filter(predicate.clone()),
                    ),
                    &[(&[0, 0], &[0, 0]), (&[1, 0], &[0, 1])],
                )
            }
            (Rule::FilterPushProject, PlanKind::Filter { predicate }) => {
                let PlanKind::Project { columns } = child()? else {
                    return None;
                };
                (
                    hole().filter(predicate.clone()).project(columns.clone()),
                    &[(&[0, 0], &[0, 0])],
                )
            }
            (Rule::FilterPushAggregate, PlanKind::Filter { predicate }) => {
                let PlanKind::Aggregate { group_by } = child()? else {
                    return None;
                };
                (
                    hole().filter(predicate.clone()).aggregate(group_by.clone()),
                    &[(&[0, 0], &[0, 0])],
                )
            }
            (Rule::ProjectMerge, PlanKind::Project { columns }) => {
                let PlanKind::Project { .. } = child()? else {
                    return None;
                };
                (hole().project(columns.clone()), &[(&[0], &[0, 0])])
            }
            (Rule::ProjectPushUnion, PlanKind::Project { columns }) => {
                let PlanKind::Union = child()? else {
                    return None;
                };
                (
                    LogicalPlan::union(
                        hole().project(columns.clone()),
                        hole().project(columns.clone()),
                    ),
                    &[(&[0, 0], &[0, 0]), (&[1, 0], &[0, 1])],
                )
            }
            (
                Rule::JoinCommute,
                PlanKind::Join {
                    left_key,
                    right_key,
                },
            ) => (
                LogicalPlan::join(hole(), hole(), *right_key, *left_key),
                &[(&[0], &[1]), (&[1], &[0])],
            ),
            (Rule::UnionCommute, PlanKind::Union) => (
                LogicalPlan::union(hole(), hole()),
                &[(&[0], &[1]), (&[1], &[0])],
            ),
            (Rule::PartialAggregation, PlanKind::Aggregate { group_by }) => {
                let PlanKind::Union = child()? else {
                    return None;
                };
                // Guard against repeated application: only fire when the
                // union inputs are not already aggregates.
                let already = node.children[0]
                    .children
                    .iter()
                    .any(|c| matches!(c.kind, PlanKind::Aggregate { .. }));
                if already {
                    return None;
                }
                (
                    LogicalPlan::union(
                        hole().aggregate(group_by.clone()),
                        hole().aggregate(group_by.clone()),
                    )
                    .aggregate(group_by.clone()),
                    &[(&[0, 0, 0], &[0, 0]), (&[0, 1, 0], &[0, 1])],
                )
            }
            (Rule::FilterSplit, PlanKind::Filter { predicate }) if predicate.clauses.len() >= 2 => {
                let first = Predicate::new(vec![predicate.clauses[0]]);
                let rest = Predicate::new(predicate.clauses[1..].to_vec());
                (hole().filter(first).filter(rest), &[(&[0, 0], &[0])])
            }
            (Rule::UnionFilterHoist, PlanKind::Union) => {
                let (
                    Some(PlanKind::Filter { predicate: pa }),
                    Some(PlanKind::Filter { predicate: pb }),
                ) = (op(&node.children[0]), op(&node.children[1]))
                else {
                    return None;
                };
                if pa != pb {
                    return None;
                }
                (
                    LogicalPlan::union(hole(), hole()).filter(pa.clone()),
                    &[(&[0, 0], &[0, 0]), (&[0, 1], &[1, 0])],
                )
            }
            _ => return None,
        })
    }

    /// Rewrites `plan` in place at the first (pre-order) node where the
    /// rule fires, then asks `keep` about the rewritten plan. If it says
    /// no, the rewrite is undone and `plan` is again equal to what it was.
    /// Returns `None` if the rule fires nowhere, else whether the rewrite
    /// was kept. A borrowed `plan` is copied only when the rule fires.
    fn rewrite_in_place(
        self,
        plan: &mut Cow<'_, LogicalPlan>,
        keep: impl FnOnce(&LogicalPlan) -> bool,
    ) -> Option<bool> {
        // The undo record: the path to the rewritten node, the node it
        // replaced (with a hole at each moved subtree) and the moves.
        // Undoing is the same for every rule: move each subtree back, then
        // put the old node back in place.
        let mut path = Vec::new();
        let (new, moves) = self.first_match(plan, &mut path)?;
        path.reverse();
        let node = at(plan.to_mut(), &path);
        let mut old = std::mem::replace(node, new);
        for &(new_pos, old_pos) in moves {
            *at(node, new_pos) = take(&mut old, old_pos);
        }
        if keep(plan) {
            return Some(true);
        }
        let node = at(plan.to_mut(), &path);
        for &(new_pos, old_pos) in moves {
            *at(&mut old, old_pos) = take(node, new_pos);
        }
        *node = old;
        Some(false)
    }

    /// The [`Rule::skeleton`] of the first pre-order match at or below
    /// `node`. Pushes the child indices that lead to it onto `path`,
    /// deepest first, and only once the match is found, so a search that
    /// finds nothing allocates nothing.
    fn first_match(
        self,
        node: &LogicalPlan,
        path: &mut Vec<usize>,
    ) -> Option<(LogicalPlan, Moves)> {
        if let Some(found) = self.skeleton(node) {
            return Some(found);
        }
        for (i, child) in node.children.iter().enumerate() {
            if let Some(found) = self.first_match(child, path) {
                path.push(i);
                return Some(found);
            }
        }
        None
    }

    /// Applies the rule at the first (pre-order) node where it fires, to a
    /// copy of `plan`. The copy is rewritten in place exactly as
    /// [`Optimizer::optimize`] rewrites its working plan. Every node the
    /// rule's pattern inspects must have as many children as its operator
    /// takes, so a malformed node is skipped rather than read past.
    pub fn apply_once(self, plan: &LogicalPlan) -> Option<LogicalPlan> {
        let mut rewritten = Cow::Borrowed(plan);
        self.rewrite_in_place(&mut rewritten, |_| true)?;
        Some(rewritten.into_owned())
    }
}

/// The subtrees one rewrite moves, as (position in the new node, position
/// in the old node) pairs. A position is the child indices from that node
/// down.
type Moves = &'static [(&'static [usize], &'static [usize])];

/// What a subtree leaves behind when it moves: a childless union, which
/// no valid plan contains and which owns no heap memory.
fn hole() -> LogicalPlan {
    LogicalPlan {
        kind: PlanKind::Union,
        children: Vec::new(),
    }
}

/// The operator at `node`, if `node` has as many children as it takes.
fn op(node: &LogicalPlan) -> Option<&PlanKind> {
    (node.children.len() == node.kind.arity()).then_some(&node.kind)
}

/// The node at child-index path `pos` below `node`.
fn at<'a>(mut node: &'a mut LogicalPlan, pos: &[usize]) -> &'a mut LogicalPlan {
    for &i in pos {
        node = &mut node.children[i];
    }
    node
}

/// Moves the subtree at `pos` below `node` out, leaving a [`hole`].
fn take(node: &mut LogicalPlan, pos: &[usize]) -> LogicalPlan {
    std::mem::replace(at(node, pos), hole())
}

/// A set of enabled rules, as a bitmask over [`ALL_RULES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RuleSet(pub u64);

impl RuleSet {
    /// All rules enabled (the engine default).
    pub fn all() -> Self {
        Self((1u64 << ALL_RULES.len()) - 1)
    }

    /// No rules enabled.
    pub fn none() -> Self {
        Self(0)
    }

    /// Whether rule `id` is enabled.
    pub fn contains(self, id: RuleId) -> bool {
        self.0 & (1 << id) != 0
    }

    /// Returns a copy with rule `id` toggled.
    pub fn toggled(self, id: RuleId) -> Self {
        Self(self.0 ^ (1 << id))
    }

    /// Enabled rule ids in ascending order.
    pub fn enabled(self) -> Vec<RuleId> {
        (0..ALL_RULES.len()).filter(|&i| self.contains(i)).collect()
    }

    /// Hamming distance to another rule set — the "incremental step" size
    /// the production steering work bounds for interpretability.
    pub fn hamming(self, other: RuleSet) -> u32 {
        (self.0 ^ other.0).count_ones()
    }

    /// All rule sets within Hamming distance 1 (including self).
    pub fn neighbors(self) -> Vec<RuleSet> {
        let mut v = vec![self];
        v.extend((0..ALL_RULES.len()).map(|i| self.toggled(i)));
        v
    }
}

/// The cost-guided rewrite optimizer.
#[derive(Debug, Clone)]
pub struct Optimizer {
    cost_model: CostModel,
    max_passes: usize,
    obs: Obs,
}

/// Result of an optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct Optimized {
    /// The final plan.
    pub plan: LogicalPlan,
    /// Estimated cost of the final plan (under the guiding model).
    pub estimated_cost: f64,
    /// Rules applied, in order.
    pub applied: Vec<Rule>,
}

impl Default for Optimizer {
    fn default() -> Self {
        Self {
            cost_model: CostModel::default(),
            max_passes: 32,
            obs: Obs::disabled(),
        }
    }
}

impl Optimizer {
    /// Creates an optimizer with an explicit cost model and pass budget
    /// that records rule firings into `obs`.
    pub fn with_obs(cost_model: CostModel, max_passes: usize, obs: Obs) -> Self {
        Self {
            cost_model,
            max_passes,
            obs,
        }
    }

    /// Greedy first-improvement rewriting: on each pass, the first enabled
    /// rule whose application strictly lowers the estimated cost is
    /// accepted; the loop ends at a fixpoint or after `max_passes`.
    ///
    /// The input plan is borrowed until the first rule fires, then copied
    /// once. Each candidate is that working plan rewritten in place at the
    /// rule's first pre-order match, and a rejected candidate is reverted
    /// by moving the subtrees back. So `cards` sees the same plans, in the
    /// same order, as it would if every candidate were a fresh copy.
    pub fn optimize(
        &self,
        plan: &LogicalPlan,
        rules: RuleSet,
        cards: &dyn CardinalityModel,
    ) -> Result<Optimized> {
        let span = self.obs.span_enter("engine.rules", "optimize", 0.0);
        let mut current = Cow::Borrowed(plan);
        let mut current_cost = match self.cost_model.total_cost(plan, cards) {
            Ok(cost) => cost,
            Err(err) => {
                // Closed here too, so the span never parents later records.
                self.obs.span_exit(span, 0.0);
                return Err(err);
            }
        };
        let initial_cost = current_cost;
        let mut applied = Vec::new();
        for _ in 0..self.max_passes {
            let mut improved = false;
            for (id, rule) in ALL_RULES.iter().enumerate() {
                if !rules.contains(id) {
                    continue;
                }
                let mut cost = current_cost;
                let kept = rule.rewrite_in_place(&mut current, |candidate| {
                    match self.cost_model.total_cost(candidate, cards) {
                        Ok(c) => {
                            cost = c;
                            c < current_cost - 1e-9
                        }
                        // A rewrite can produce a plan whose column
                        // references no longer resolve (e.g. commuting a
                        // join under a filter bound to the old left side).
                        // Such candidates are semantically invalid: reject
                        // the rewrite rather than failing the whole
                        // optimization.
                        Err(_) => {
                            self.obs
                                .counter_add("engine.rules", "rewrite_invalid", &[], 1);
                            false
                        }
                    }
                });
                if kept == Some(true) {
                    self.obs
                        .counter_add("engine.rules", "rule_fired", &[("rule", rule.name())], 1);
                    current_cost = cost;
                    applied.push(*rule);
                    improved = true;
                    break;
                }
            }
            if !improved {
                break;
            }
        }
        if self.obs.is_enabled() {
            // Only the tail is batched: the rewrite loop above calls
            // `total_cost` with a caller-supplied cardinality model that may
            // itself record into this handle (e.g. a served model), so the
            // lock must not be held across it.
            let mut batch = self.obs.batch();
            batch.gauge_set(
                "engine.rules",
                "cost_reduction_ratio",
                &[],
                if initial_cost > 0.0 {
                    current_cost / initial_cost
                } else {
                    1.0
                },
            );
            batch.span_exit(span, 0.0);
        }
        Ok(Optimized {
            plan: current.into_owned(),
            estimated_cost: current_cost,
            applied,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::{DefaultEstimator, TrueCardinality};
    use adas_workload::catalog::Catalog;
    use adas_workload::plan::{CmpOp, Comparison, LogicalPlan, Predicate};
    use proptest::prelude::{prop_oneof, BoxedStrategy, Strategy, TestRunner};
    use std::cell::{Cell, RefCell};

    fn catalog() -> Catalog {
        Catalog::standard()
    }

    #[test]
    fn filter_merge_combines_clauses() {
        let plan = LogicalPlan::scan("events")
            .filter(Predicate::single(1, CmpOp::Eq, 3))
            .filter(Predicate::single(2, CmpOp::Le, 10));
        let merged = Rule::FilterMerge.apply_once(&plan).unwrap();
        match &merged.kind {
            PlanKind::Filter { predicate } => assert_eq!(predicate.clauses.len(), 2),
            other => panic!("expected filter, got {other:?}"),
        }
        assert_eq!(merged.node_count(), 2);
    }

    #[test]
    fn filter_pushdown_moves_below_join() {
        let plan = LogicalPlan::join(
            LogicalPlan::scan("events"),
            LogicalPlan::scan("users"),
            0,
            0,
        )
        .filter(Predicate::single(1, CmpOp::Eq, 3));
        let pushed = Rule::FilterPushJoinLeft.apply_once(&plan).unwrap();
        assert!(matches!(pushed.kind, PlanKind::Join { .. }));
        assert!(matches!(pushed.children[0].kind, PlanKind::Filter { .. }));
    }

    #[test]
    fn rules_fire_on_nested_nodes() {
        // The rewrite target sits below a project root.
        let plan = LogicalPlan::scan("events")
            .filter(Predicate::single(1, CmpOp::Eq, 3))
            .filter(Predicate::single(2, CmpOp::Le, 10))
            .project(vec![0]);
        let rewritten = Rule::FilterMerge.apply_once(&plan).unwrap();
        assert!(matches!(rewritten.kind, PlanKind::Project { .. }));
        assert_eq!(rewritten.node_count(), 3);
    }

    #[test]
    fn split_and_merge_are_inverse_in_spirit() {
        let plan = LogicalPlan::scan("events").filter(Predicate::new(vec![
            Comparison::new(1, CmpOp::Eq, 3),
            Comparison::new(2, CmpOp::Le, 10),
        ]));
        let split = Rule::FilterSplit.apply_once(&plan).unwrap();
        assert_eq!(split.node_count(), 3);
        let merged = Rule::FilterMerge.apply_once(&split).unwrap();
        assert_eq!(merged.node_count(), 2);
    }

    #[test]
    fn partial_aggregation_guard_prevents_loop() {
        let plan = LogicalPlan::union(LogicalPlan::scan("users"), LogicalPlan::scan("users"))
            .aggregate(vec![1]);
        let once = Rule::PartialAggregation.apply_once(&plan).unwrap();
        // A second application at the same node must not fire.
        assert!(Rule::PartialAggregation.skeleton(&once).is_none());
    }

    #[test]
    fn ruleset_bit_operations() {
        let all = RuleSet::all();
        assert_eq!(all.enabled().len(), ALL_RULES.len());
        let none = RuleSet::none();
        assert_eq!(none.enabled().len(), 0);
        let one = none.toggled(3);
        assert!(one.contains(3));
        assert_eq!(one.hamming(none), 1);
        assert_eq!(all.hamming(none), ALL_RULES.len() as u32);
        assert_eq!(none.neighbors().len(), ALL_RULES.len() + 1);
    }

    #[test]
    fn optimizer_reduces_estimated_cost() {
        let c = catalog();
        let est = DefaultEstimator::new(&c);
        let plan = LogicalPlan::join(
            LogicalPlan::scan("events"),
            LogicalPlan::scan("users"),
            0,
            0,
        )
        .filter(Predicate::single(1, CmpOp::Eq, 3));
        let opt = Optimizer::default();
        let before = CostModel::default().total_cost(&plan, &est).unwrap();
        let result = opt.optimize(&plan, RuleSet::all(), &est).unwrap();
        assert!(result.estimated_cost < before);
        assert!(!result.applied.is_empty());
    }

    #[test]
    fn disabled_rules_do_not_fire() {
        let c = catalog();
        let est = DefaultEstimator::new(&c);
        let plan = LogicalPlan::join(
            LogicalPlan::scan("events"),
            LogicalPlan::scan("users"),
            0,
            0,
        )
        .filter(Predicate::single(1, CmpOp::Eq, 3));
        let opt = Optimizer::default();
        let result = opt.optimize(&plan, RuleSet::none(), &est).unwrap();
        assert_eq!(result.plan, plan);
        assert!(result.applied.is_empty());
    }

    #[test]
    fn costing_error_closes_the_optimize_span() {
        let c = catalog();
        let est = DefaultEstimator::new(&c);
        // `regions` has two columns, so costing the input plan fails.
        let plan = LogicalPlan::scan("regions").filter(Predicate::single(3, CmpOp::Eq, 1));
        let obs = Obs::recording();
        let opt = Optimizer::with_obs(CostModel::default(), 32, obs.clone());
        assert!(opt.optimize(&plan, RuleSet::all(), &est).is_err());
        obs.span_enter("test", "after_optimize", 0.0);
        let trace = obs.snapshot();
        let after = trace
            .spans
            .iter()
            .find(|s| s.name == "after_optimize")
            .unwrap();
        assert_eq!(after.parent, None);
    }

    #[test]
    fn optimizer_terminates_on_adversarial_plan() {
        // Deep stack of filters + unions; all rules enabled.
        let c = catalog();
        let est = DefaultEstimator::new(&c);
        let mut plan = LogicalPlan::union(
            LogicalPlan::scan("events").filter(Predicate::single(1, CmpOp::Le, 10)),
            LogicalPlan::scan("events").filter(Predicate::single(1, CmpOp::Le, 10)),
        );
        for i in 0..5 {
            plan = plan.filter(Predicate::single(2, CmpOp::Le, 100 + i));
        }
        let opt = Optimizer::default();
        let result = opt.optimize(&plan, RuleSet::all(), &est).unwrap();
        assert!(result.applied.len() <= 32);
        result.plan.validate(&c).unwrap();
    }

    #[test]
    fn rule_choice_changes_true_cost() {
        // The Bao premise: different rule configurations lead to different
        // *true* costs, and the default (all-rules) choice is not always
        // best. Verify at least that true costs vary across configurations.
        let c = catalog();
        let est = DefaultEstimator::new(&c);
        let truth = TrueCardinality::new(&c);
        let cm = CostModel::default();
        let plan = LogicalPlan::join(
            LogicalPlan::scan("events"),
            LogicalPlan::scan("users"),
            0,
            0,
        )
        .filter(Predicate::single(0, CmpOp::Le, 500_000));
        let opt = Optimizer::default();
        let mut costs = std::collections::BTreeSet::new();
        for mask in [RuleSet::none(), RuleSet::all(), RuleSet::none().toggled(1)] {
            let r = opt.optimize(&plan, mask, &est).unwrap();
            let true_cost = cm.total_cost(&r.plan, &truth).unwrap();
            costs.insert((true_cost * 1000.0) as u64);
        }
        assert!(
            costs.len() >= 2,
            "rule configs should differentiate true cost"
        );
    }

    /// The clone-based rules and optimizer loop that the in-place rewrite
    /// replaced, kept as the reference the properties below compare
    /// against: every candidate is a fresh copy of the plan.
    mod reference {
        use super::*;
        use std::borrow::Cow;

        /// Attempts the rewrite at this exact node.
        fn apply_here(rule: Rule, plan: &LogicalPlan) -> Option<LogicalPlan> {
            match rule {
                Rule::FilterMerge => match (&plan.kind, plan.children.first().map(|c| &c.kind)) {
                    (
                        PlanKind::Filter { predicate: outer },
                        Some(PlanKind::Filter { predicate: inner }),
                    ) => {
                        let mut clauses = inner.clauses.clone();
                        clauses.extend(outer.clauses.iter().copied());
                        Some(
                            plan.children[0].children[0]
                                .clone()
                                .filter(Predicate::new(clauses)),
                        )
                    }
                    _ => None,
                },
                Rule::FilterPushJoinLeft => match &plan.kind {
                    PlanKind::Filter { predicate } => match &plan.children[0].kind {
                        PlanKind::Join {
                            left_key,
                            right_key,
                        } => {
                            let join = &plan.children[0];
                            Some(LogicalPlan::join(
                                join.children[0].clone().filter(predicate.clone()),
                                join.children[1].clone(),
                                *left_key,
                                *right_key,
                            ))
                        }
                        _ => None,
                    },
                    _ => None,
                },
                Rule::FilterPushUnion => match &plan.kind {
                    PlanKind::Filter { predicate } => match &plan.children[0].kind {
                        PlanKind::Union => {
                            let u = &plan.children[0];
                            Some(LogicalPlan::union(
                                u.children[0].clone().filter(predicate.clone()),
                                u.children[1].clone().filter(predicate.clone()),
                            ))
                        }
                        _ => None,
                    },
                    _ => None,
                },
                Rule::FilterPushProject => match &plan.kind {
                    PlanKind::Filter { predicate } => match &plan.children[0].kind {
                        PlanKind::Project { columns } => Some(
                            plan.children[0].children[0]
                                .clone()
                                .filter(predicate.clone())
                                .project(columns.clone()),
                        ),
                        _ => None,
                    },
                    _ => None,
                },
                Rule::FilterPushAggregate => match &plan.kind {
                    PlanKind::Filter { predicate } => match &plan.children[0].kind {
                        PlanKind::Aggregate { group_by } => Some(
                            plan.children[0].children[0]
                                .clone()
                                .filter(predicate.clone())
                                .aggregate(group_by.clone()),
                        ),
                        _ => None,
                    },
                    _ => None,
                },
                Rule::ProjectMerge => match (&plan.kind, plan.children.first().map(|c| &c.kind)) {
                    (PlanKind::Project { columns }, Some(PlanKind::Project { .. })) => Some(
                        plan.children[0].children[0]
                            .clone()
                            .project(columns.clone()),
                    ),
                    _ => None,
                },
                Rule::ProjectPushUnion => match &plan.kind {
                    PlanKind::Project { columns } => match &plan.children[0].kind {
                        PlanKind::Union => {
                            let u = &plan.children[0];
                            Some(LogicalPlan::union(
                                u.children[0].clone().project(columns.clone()),
                                u.children[1].clone().project(columns.clone()),
                            ))
                        }
                        _ => None,
                    },
                    _ => None,
                },
                Rule::JoinCommute => match &plan.kind {
                    PlanKind::Join {
                        left_key,
                        right_key,
                    } => Some(LogicalPlan::join(
                        plan.children[1].clone(),
                        plan.children[0].clone(),
                        *right_key,
                        *left_key,
                    )),
                    _ => None,
                },
                Rule::UnionCommute => match &plan.kind {
                    PlanKind::Union => Some(LogicalPlan::union(
                        plan.children[1].clone(),
                        plan.children[0].clone(),
                    )),
                    _ => None,
                },
                Rule::PartialAggregation => match &plan.kind {
                    PlanKind::Aggregate { group_by } => match &plan.children[0].kind {
                        PlanKind::Union => {
                            let u = &plan.children[0];
                            // Guard against repeated application: only fire when
                            // the union inputs are not already aggregates.
                            let already = u
                                .children
                                .iter()
                                .any(|c| matches!(c.kind, PlanKind::Aggregate { .. }));
                            if already {
                                return None;
                            }
                            Some(
                                LogicalPlan::union(
                                    u.children[0].clone().aggregate(group_by.clone()),
                                    u.children[1].clone().aggregate(group_by.clone()),
                                )
                                .aggregate(group_by.clone()),
                            )
                        }
                        _ => None,
                    },
                    _ => None,
                },
                Rule::FilterSplit => match &plan.kind {
                    PlanKind::Filter { predicate } if predicate.clauses.len() >= 2 => {
                        let first = Predicate::new(vec![predicate.clauses[0]]);
                        let rest = Predicate::new(predicate.clauses[1..].to_vec());
                        Some(plan.children[0].clone().filter(first).filter(rest))
                    }
                    _ => None,
                },
                Rule::UnionFilterHoist => match &plan.kind {
                    PlanKind::Union => match (&plan.children[0].kind, &plan.children[1].kind) {
                        (
                            PlanKind::Filter { predicate: pa },
                            PlanKind::Filter { predicate: pb },
                        ) if pa == pb => Some(
                            LogicalPlan::union(
                                plan.children[0].children[0].clone(),
                                plan.children[1].children[0].clone(),
                            )
                            .filter(pa.clone()),
                        ),
                        _ => None,
                    },
                    _ => None,
                },
            }
        }

        /// Applies the rule at the first (pre-order) node where it fires.
        /// Each level above the rewrite clones only the siblings of the child
        /// it replaces.
        pub(super) fn apply_once(rule: Rule, plan: &LogicalPlan) -> Option<LogicalPlan> {
            if let Some(rewritten) = apply_here(rule, plan) {
                return Some(rewritten);
            }
            for (i, child) in plan.children.iter().enumerate() {
                if let Some(new_child) = apply_once(rule, child) {
                    let mut children = Vec::with_capacity(plan.children.len());
                    children.extend_from_slice(&plan.children[..i]);
                    children.push(new_child);
                    children.extend_from_slice(&plan.children[i + 1..]);
                    return Some(LogicalPlan {
                        kind: plan.kind.clone(),
                        children,
                    });
                }
            }
            None
        }

        /// The optimizer loop over copied candidates, without recording.
        pub(super) fn optimize(
            plan: &LogicalPlan,
            rules: RuleSet,
            cards: &dyn CardinalityModel,
        ) -> Result<Optimized> {
            let cost_model = CostModel::default();
            let mut current = Cow::Borrowed(plan);
            let mut current_cost = cost_model.total_cost(&current, cards)?;
            let mut applied = Vec::new();
            for _ in 0..Optimizer::default().max_passes {
                let mut improved = false;
                for (id, rule) in ALL_RULES.iter().enumerate() {
                    if !rules.contains(id) {
                        continue;
                    }
                    if let Some(candidate) = apply_once(*rule, &current) {
                        let Ok(cost) = cost_model.total_cost(&candidate, cards) else {
                            continue;
                        };
                        if cost < current_cost - 1e-9 {
                            current = Cow::Owned(candidate);
                            current_cost = cost;
                            applied.push(*rule);
                            improved = true;
                            break;
                        }
                    }
                }
                if !improved {
                    break;
                }
            }
            Ok(Optimized {
                plan: current.into_owned(),
                estimated_cost: current_cost,
                applied,
            })
        }
    }

    const TABLES: [&str; 5] = ["events", "sessions", "users", "regions", "telemetry"];
    const OPS: [CmpOp; 6] = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ];

    /// One to three clauses. Columns run past the narrowest table's two,
    /// so some rewrites leave a filter over a table without its column.
    fn arb_predicate() -> impl Strategy<Value = Predicate> {
        proptest::collection::vec((0usize..4, 0..OPS.len(), -5i64..1000), 1..=3).prop_map(
            |clauses| {
                Predicate::new(
                    clauses
                        .into_iter()
                        .map(|(column, op, value)| Comparison::new(column, OPS[op], value))
                        .collect(),
                )
            },
        )
    }

    fn arb_columns() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(0usize..2, 1..=2)
    }

    /// Random plans with somewhere for every rule to fire: beyond single
    /// filters, projects, aggregates, joins and unions (the shape of
    /// `tests/properties.rs`), multi-clause filters and filter stacks
    /// (`FilterSplit`, `FilterMerge`), unions whose branches carry equal
    /// filters (`UnionFilterHoist`), aggregates over unions with and
    /// without inner aggregates (`PartialAggregation` and its guard) and
    /// project stacks.
    fn arb_plan() -> BoxedStrategy<LogicalPlan> {
        let leaf = (0..TABLES.len()).prop_map(|i| LogicalPlan::scan(TABLES[i]));
        leaf.prop_recursive(4, 32, 2, |inner| {
            prop_oneof![
                (inner.clone(), arb_predicate()).prop_map(|(c, p)| c.filter(p)),
                (inner.clone(), arb_predicate(), arb_predicate())
                    .prop_map(|(c, p, q)| c.filter(p).filter(q)),
                (inner.clone(), arb_columns()).prop_map(|(c, cols)| c.project(cols)),
                (inner.clone(), arb_columns(), arb_columns())
                    .prop_map(|(c, a, b)| c.project(a).project(b)),
                (inner.clone(), arb_columns()).prop_map(|(c, g)| c.aggregate(g)),
                (inner.clone(), inner.clone(), 0usize..2, 0usize..2)
                    .prop_map(|(l, r, lk, rk)| LogicalPlan::join(l, r, lk, rk)),
                // A filter over a join: commuting the join can leave the
                // filter over a table without its column, surely so when
                // the right side is the two-column `regions`.
                (inner.clone(), inner.clone(), arb_predicate())
                    .prop_map(|(l, r, p)| LogicalPlan::join(l, r, 0, 0).filter(p)),
                (inner.clone(), arb_predicate()).prop_map(|(l, p)| {
                    LogicalPlan::join(l, LogicalPlan::scan("regions"), 0, 0).filter(p)
                }),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| LogicalPlan::union(l, r)),
                (inner.clone(), inner.clone(), arb_predicate())
                    .prop_map(|(l, r, p)| LogicalPlan::union(l.filter(p.clone()), r.filter(p))),
                // Bit 0 puts an aggregate on the left branch, bit 1 on the
                // right.
                (inner.clone(), inner, arb_columns(), 0u8..4).prop_map(|(l, r, g, inner)| {
                    let l = if inner & 1 != 0 {
                        l.aggregate(g.clone())
                    } else {
                        l
                    };
                    let r = if inner & 2 != 0 {
                        r.aggregate(g.clone())
                    } else {
                        r
                    };
                    LogicalPlan::union(l, r).aggregate(g)
                }),
            ]
        })
    }

    /// The default estimator, logging every plan it annotates and counting
    /// the annotations that fail.
    struct Logged<'a> {
        inner: DefaultEstimator<'a>,
        plans: RefCell<Vec<LogicalPlan>>,
        errors: Cell<usize>,
    }

    impl<'a> Logged<'a> {
        fn new(catalog: &'a Catalog) -> Self {
            Self {
                inner: DefaultEstimator::new(catalog),
                plans: RefCell::default(),
                errors: Cell::default(),
            }
        }
    }

    impl CardinalityModel for Logged<'_> {
        fn annotate(&self, plan: &LogicalPlan) -> Result<Vec<f64>> {
            self.plans.borrow_mut().push(plan.clone());
            let rows = self.inner.annotate(plan);
            self.errors
                .set(self.errors.get() + usize::from(rows.is_err()));
            rows
        }
    }

    /// Runs `optimize` with a fresh logging estimator; returns its result
    /// and the estimator.
    fn run_logged(
        optimize: impl FnOnce(&Logged<'static>) -> Result<Optimized>,
    ) -> (Result<Optimized>, Logged<'static>) {
        static CATALOG: std::sync::OnceLock<Catalog> = std::sync::OnceLock::new();
        let log = Logged::new(CATALOG.get_or_init(catalog));
        (optimize(&log), log)
    }

    /// Cases per rewrite property, and plans the coverage check draws.
    const CASES: u32 = 2048;

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(CASES))]

        /// Every rule's in-place rewrite equals the clone-based reference,
        /// and reverting it restores the input wherever the rule fires.
        #[test]
        fn in_place_rewrites_match_the_clone_reference(plan in arb_plan()) {
            for rule in ALL_RULES {
                let expected = reference::apply_once(rule, &plan);
                proptest::prop_assert_eq!(rule.apply_once(&plan), expected.clone(), "{:?}", rule);
                let mut reverted = Cow::Borrowed(&plan);
                let fired = rule.rewrite_in_place(&mut reverted, |_| false);
                proptest::prop_assert_eq!(fired, expected.map(|_| false), "{:?}", rule);
                proptest::prop_assert_eq!(&*reverted, &plan, "{:?}", rule);
            }
        }

        /// Under any rule mask, `optimize` returns what the clone-based
        /// reference optimizer returns, and its cardinality model is asked
        /// about the same plans in the same order.
        #[test]
        fn optimize_matches_the_clone_reference(
            plan in arb_plan(),
            mask in 0u64..(1 << ALL_RULES.len()),
        ) {
            let rules = RuleSet(mask);
            let (got, log) = run_logged(|cards| Optimizer::default().optimize(&plan, rules, cards));
            let (expected, expected_log) =
                run_logged(|cards| reference::optimize(&plan, rules, cards));
            proptest::prop_assert_eq!(got, expected);
            proptest::prop_assert_eq!(log.plans.into_inner(), expected_log.plans.into_inner());
        }
    }

    #[test]
    fn rewrite_properties_reach_every_rule_and_every_outcome() {
        // The two properties above only compare what their plans exercise:
        // check that the generator makes every rule fire and that
        // `optimize` accepts, rejects and discards invalid candidates.
        let strategy = arb_plan();
        let mut fired = [0usize; ALL_RULES.len()];
        let (mut accepted, mut rejected, mut invalid) = (0, 0, 0);
        for seed in 0..u64::from(CASES) {
            let mut runner = TestRunner::from_seed(seed);
            let plan = strategy.new_value(&mut runner);
            for (count, rule) in fired.iter_mut().zip(ALL_RULES) {
                *count += usize::from(rule.apply_once(&plan).is_some());
            }
            let mask = (0u64..(1 << ALL_RULES.len())).new_value(&mut runner);
            let (result, log) =
                run_logged(|cards| Optimizer::default().optimize(&plan, RuleSet(mask), cards));
            let Ok(out) = result else { continue };
            accepted += usize::from(!out.applied.is_empty());
            // One costing for the input and one per accepted rewrite; the
            // rest were reverted.
            let reverted = log.plans.borrow().len() - 1 - out.applied.len();
            rejected += usize::from(reverted > log.errors.get());
            invalid += usize::from(log.errors.get() > 0);
        }
        for (count, rule) in fired.iter().zip(ALL_RULES) {
            assert!(*count >= 20, "{rule:?} fired on {count} plans");
        }
        assert!(
            accepted >= 100 && rejected >= 100 && invalid >= 10,
            "accepted {accepted}, rejected {rejected}, invalid {invalid}"
        );
    }

    #[test]
    fn rewrites_skip_malformed_nodes() {
        // Each pattern node must have as many children as its operator
        // takes. Every pair below indexed a missing child and panicked in
        // the clone-based rules; now the rule does not fire there.
        let filter = || Predicate::single(1, CmpOp::Eq, 3);
        let bare = |kind| LogicalPlan {
            kind,
            children: Vec::new(),
        };
        let join = || {
            bare(PlanKind::Join {
                left_key: 0,
                right_key: 0,
            })
        };
        let cases = [
            (
                Rule::FilterMerge,
                bare(PlanKind::Filter {
                    predicate: filter(),
                })
                .filter(filter()),
            ),
            (Rule::FilterPushJoinLeft, join().filter(filter())),
            (
                Rule::FilterPushUnion,
                bare(PlanKind::Union).filter(filter()),
            ),
            (
                Rule::FilterPushProject,
                bare(PlanKind::Project { columns: vec![0] }).filter(filter()),
            ),
            (
                Rule::FilterPushAggregate,
                bare(PlanKind::Aggregate { group_by: vec![0] }).filter(filter()),
            ),
            (
                Rule::ProjectMerge,
                bare(PlanKind::Project { columns: vec![0] }).project(vec![0]),
            ),
            (
                Rule::ProjectPushUnion,
                bare(PlanKind::Union).project(vec![0]),
            ),
            (Rule::JoinCommute, join()),
            (Rule::UnionCommute, bare(PlanKind::Union)),
            (
                Rule::PartialAggregation,
                bare(PlanKind::Union).aggregate(vec![0]),
            ),
            (
                Rule::FilterSplit,
                bare(PlanKind::Filter {
                    predicate: Predicate::new(vec![Comparison::new(0, CmpOp::Lt, 1); 2]),
                }),
            ),
            (
                Rule::UnionFilterHoist,
                LogicalPlan::union(
                    bare(PlanKind::Filter {
                        predicate: filter(),
                    }),
                    bare(PlanKind::Filter {
                        predicate: filter(),
                    }),
                ),
            ),
        ];
        for (rule, plan) in &cases {
            assert_eq!(rule.apply_once(plan), None, "{rule:?} on {plan:?}");
            // No rule panics anywhere in these plans either.
            for other in ALL_RULES {
                other.apply_once(plan);
            }
        }
    }
}
