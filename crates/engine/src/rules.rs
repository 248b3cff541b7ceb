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

    /// Attempts the rewrite at this exact node.
    fn apply_here(self, plan: &LogicalPlan) -> Option<LogicalPlan> {
        match self {
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
                    (PlanKind::Filter { predicate: pa }, PlanKind::Filter { predicate: pb })
                        if pa == pb =>
                    {
                        Some(
                            LogicalPlan::union(
                                plan.children[0].children[0].clone(),
                                plan.children[1].children[0].clone(),
                            )
                            .filter(pa.clone()),
                        )
                    }
                    _ => None,
                },
                _ => None,
            },
        }
    }

    /// Applies the rule at the first (pre-order) node where it fires.
    /// Each level above the rewrite clones only the siblings of the child
    /// it replaces.
    pub fn apply_once(self, plan: &LogicalPlan) -> Option<LogicalPlan> {
        if let Some(rewritten) = self.apply_here(plan) {
            return Some(rewritten);
        }
        for (i, child) in plan.children.iter().enumerate() {
            if let Some(new_child) = self.apply_once(child) {
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
    /// accepted; the loop ends at a fixpoint or after `max_passes`. The
    /// input plan is borrowed until a rewrite is accepted.
    pub fn optimize(
        &self,
        plan: &LogicalPlan,
        rules: RuleSet,
        cards: &dyn CardinalityModel,
    ) -> Result<Optimized> {
        let span = self.obs.span_enter("engine.rules", "optimize", 0.0);
        let mut current = Cow::Borrowed(plan);
        let mut current_cost = self.cost_model.total_cost(&current, cards)?;
        let initial_cost = current_cost;
        let mut applied = Vec::new();
        for _ in 0..self.max_passes {
            let mut improved = false;
            for (id, rule) in ALL_RULES.iter().enumerate() {
                if !rules.contains(id) {
                    continue;
                }
                if let Some(candidate) = rule.apply_once(&current) {
                    // A rewrite can produce a plan whose column references no
                    // longer resolve (e.g. commuting a join under a filter
                    // bound to the old left side). Such candidates are
                    // semantically invalid: reject the rewrite rather than
                    // failing the whole optimization.
                    let Ok(cost) = self.cost_model.total_cost(&candidate, cards) else {
                        self.obs
                            .counter_add("engine.rules", "rewrite_invalid", &[], 1);
                        continue;
                    };
                    if cost < current_cost - 1e-9 {
                        self.obs.counter_add(
                            "engine.rules",
                            "rule_fired",
                            &[("rule", rule.name())],
                            1,
                        );
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
        assert!(Rule::PartialAggregation.apply_here_test(&once).is_none());
    }

    impl Rule {
        fn apply_here_test(self, plan: &LogicalPlan) -> Option<LogicalPlan> {
            self.apply_here(plan)
        }
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
}
