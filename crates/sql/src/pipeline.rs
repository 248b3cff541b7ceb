//! The phased rewrite pipeline: `analyze → canonicalize → optimize → lower`.
//!
//! Rewrites are organized as a registry of [`QueryRule`]s, each pinned to
//! one [`RewritePhase`]. The driver walks the phases in order; within a
//! phase it consults [`QueryRule::matches_context`] against an
//! [`AnalysisContext`] recomputed at the phase boundary, and every rule
//! reports one of three [`RuleOutcome`]s:
//!
//! * `NotApplicable` — the context gate said the rule had nothing to do, so
//!   it never ran.
//! * `NoChange` — the rule ran (validation, resolution already done, …)
//!   but left the query untouched.
//! * `Changed` — the rule mutated the query.
//!
//! The pipeline is **idempotent**: re-running the rewrite phases on their
//! own output produces no `Changed` outcome. It is also **order-invariant
//! within a phase**: the rules of one phase touch disjoint parts of the
//! AST, so any permutation (see [`PhaseOrders`]) lowers to the same plan.
//! Determinism rules: rule arrays are `const` and walked in order, context
//! sets are `BTreeSet`s, and nothing iterates a hash map.
//!
//! The lower phase's single rule, [`QueryRule::PlanEmit`], consumes the
//! rewritten AST and emits a [`LogicalPlan`] for the existing engine
//! optimizer, signature hashing, and reuse stack.
//!
//! Every phase runs under an `obs` span (component `sql.frontend`) with a
//! deterministic logical-tick extent — one tick per phase dispatch plus one
//! per executed rule — so `watchtower`'s critical-path profiler can
//! attribute front-end time, and per-rule outcomes are exported as the
//! `rule_outcome` counter.

use crate::ast::{ColumnRef, Condition, FromItem, QueryExpr, SelectBlock, SelectList, Span, Value};
use crate::diag::{ErrorKind, Result, SqlError};
use crate::parser::parse;
use adas_obs::Obs;
use adas_workload::catalog::{Catalog, TableMeta};
use adas_workload::plan::LogicalPlan;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Obs component name for every front-end span and counter.
pub const COMPONENT: &str = "sql.frontend";

/// The pipeline's phases, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RewritePhase {
    /// Validation and annotation: tables exist, parameters bind, columns
    /// resolve to ordinals.
    Analyze,
    /// Shape normalization: desugar `BETWEEN`, mirror flipped comparisons.
    Canonicalize,
    /// Plan-preserving simplification: collapse pass-through derived
    /// tables, elide `ORDER BY`/`LIMIT` (the IR has bag semantics).
    Optimize,
    /// Emit the [`LogicalPlan`].
    Lower,
}

impl RewritePhase {
    /// All phases, in execution order.
    pub const ALL: [RewritePhase; 4] = [
        RewritePhase::Analyze,
        RewritePhase::Canonicalize,
        RewritePhase::Optimize,
        RewritePhase::Lower,
    ];

    /// Stable lowercase name (span names and counter labels).
    pub fn name(self) -> &'static str {
        match self {
            Self::Analyze => "analyze",
            Self::Canonicalize => "canonicalize",
            Self::Optimize => "optimize",
            Self::Lower => "lower",
        }
    }
}

/// What a rule did when the driver reached it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleOutcome {
    /// The context gate rejected the rule; it never ran.
    NotApplicable,
    /// The rule ran and left the query unchanged.
    NoChange,
    /// The rule mutated the query.
    Changed,
}

impl RuleOutcome {
    /// Stable lowercase name (counter label).
    pub fn name(self) -> &'static str {
        match self {
            Self::NotApplicable => "not_applicable",
            Self::NoChange => "no_change",
            Self::Changed => "changed",
        }
    }
}

/// The rewrite-rule registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryRule {
    /// Analyze: every referenced table exists in the catalog.
    RelationDiscovery,
    /// Analyze: bind `?` placeholders to the supplied values.
    ParamBind,
    /// Analyze: resolve column names to base-table ordinals.
    ColumnResolution,
    /// Canonicalize: `a BETWEEN x AND y` → `a >= x AND a <= y`.
    BetweenDesugar,
    /// Canonicalize: `5 < a` → `a > 5` (mirror the operator).
    ComparisonFlip,
    /// Optimize: `FROM (SELECT * FROM x)` → `FROM x`.
    DerivedTableCollapse,
    /// Optimize: drop `ORDER BY` / `LIMIT` — the plan IR is bag-semantic.
    OrderLimitElision,
    /// Lower: emit the logical plan (terminal; always `Changed`).
    PlanEmit,
}

/// Analyze-phase rules, in canonical order.
pub const ANALYZE_RULES: &[QueryRule] = &[
    QueryRule::RelationDiscovery,
    QueryRule::ParamBind,
    QueryRule::ColumnResolution,
];
/// Canonicalize-phase rules, in canonical order.
pub const CANONICALIZE_RULES: &[QueryRule] =
    &[QueryRule::BetweenDesugar, QueryRule::ComparisonFlip];
/// Optimize-phase rules, in canonical order.
pub const OPTIMIZE_RULES: &[QueryRule] = &[
    QueryRule::DerivedTableCollapse,
    QueryRule::OrderLimitElision,
];
/// Lower-phase rules (the terminal plan emission).
pub const LOWER_RULES: &[QueryRule] = &[QueryRule::PlanEmit];

/// The canonical rule list of one phase.
pub fn rules_for_phase(phase: RewritePhase) -> &'static [QueryRule] {
    match phase {
        RewritePhase::Analyze => ANALYZE_RULES,
        RewritePhase::Canonicalize => CANONICALIZE_RULES,
        RewritePhase::Optimize => OPTIMIZE_RULES,
        RewritePhase::Lower => LOWER_RULES,
    }
}

impl QueryRule {
    /// Every rule, grouped by phase in canonical order.
    pub const ALL: [QueryRule; 8] = [
        QueryRule::RelationDiscovery,
        QueryRule::ParamBind,
        QueryRule::ColumnResolution,
        QueryRule::BetweenDesugar,
        QueryRule::ComparisonFlip,
        QueryRule::DerivedTableCollapse,
        QueryRule::OrderLimitElision,
        QueryRule::PlanEmit,
    ];

    /// Stable snake_case name (counter label, reports).
    pub fn name(self) -> &'static str {
        match self {
            Self::RelationDiscovery => "relation_discovery",
            Self::ParamBind => "param_bind",
            Self::ColumnResolution => "column_resolution",
            Self::BetweenDesugar => "between_desugar",
            Self::ComparisonFlip => "comparison_flip",
            Self::DerivedTableCollapse => "derived_table_collapse",
            Self::OrderLimitElision => "order_limit_elision",
            Self::PlanEmit => "plan_emit",
        }
    }

    /// The phase this rule belongs to.
    pub fn phase(self) -> RewritePhase {
        match self {
            Self::RelationDiscovery | Self::ParamBind | Self::ColumnResolution => {
                RewritePhase::Analyze
            }
            Self::BetweenDesugar | Self::ComparisonFlip => RewritePhase::Canonicalize,
            Self::DerivedTableCollapse | Self::OrderLimitElision => RewritePhase::Optimize,
            Self::PlanEmit => RewritePhase::Lower,
        }
    }

    /// Context gate: should this rule run at all? Gated-out rules report
    /// [`RuleOutcome::NotApplicable`] without executing.
    pub fn matches_context(self, cx: &AnalysisContext) -> bool {
        match self {
            Self::RelationDiscovery | Self::ColumnResolution | Self::PlanEmit => true,
            Self::ParamBind => cx.unbound_params > 0,
            Self::BetweenDesugar => cx.has_between,
            Self::ComparisonFlip => cx.has_flipped,
            Self::DerivedTableCollapse => cx.has_passthrough_derived,
            Self::OrderLimitElision => cx.has_order_by || cx.has_limit,
        }
    }

    /// Executes the rule against the query. [`QueryRule::PlanEmit`] is
    /// driven separately (it produces a plan, not a mutation) and returns
    /// `NoChange` here.
    fn apply(
        self,
        query: &mut QueryExpr,
        catalog: &Catalog,
        params: &[i64],
    ) -> Result<RuleOutcome> {
        match self {
            Self::RelationDiscovery => relation_discovery(query, catalog),
            Self::ParamBind => param_bind(query, params),
            Self::ColumnResolution => column_resolution(query, catalog),
            Self::BetweenDesugar => between_desugar(query),
            Self::ComparisonFlip => comparison_flip(query),
            Self::DerivedTableCollapse => derived_table_collapse(query),
            Self::OrderLimitElision => order_limit_elision(query),
            Self::PlanEmit => Ok(RuleOutcome::NoChange),
        }
    }
}

/// Facts about the query, recomputed by the driver at every phase
/// boundary; [`QueryRule::matches_context`] gates on them. Collections are
/// ordered so iteration is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisContext {
    /// Number of `?` placeholders not yet bound to a value.
    pub unbound_params: usize,
    /// Span of the first unbound placeholder, for arity diagnostics.
    pub first_unbound: Option<Span>,
    /// Number of column references not yet resolved to ordinals.
    pub unresolved_columns: usize,
    /// Any block still carries an `ORDER BY`.
    pub has_order_by: bool,
    /// Any block still carries a `LIMIT`.
    pub has_limit: bool,
    /// Any condition is still a `BETWEEN`.
    pub has_between: bool,
    /// Any comparison still has its value on the left.
    pub has_flipped: bool,
    /// Any FROM item is a pass-through `(SELECT * FROM x)` derived table.
    pub has_passthrough_derived: bool,
}

impl AnalysisContext {
    /// Scans the query.
    pub fn scan(query: &QueryExpr) -> Self {
        let mut cx = Self::default();
        query.for_each_block(&mut |block| {
            for item in block_items(block) {
                if is_passthrough_derived(item) {
                    cx.has_passthrough_derived = true;
                }
            }
            for cond in &block.conditions {
                match cond {
                    Condition::Between(b) => {
                        cx.has_between = true;
                        for value in [&b.low, &b.high] {
                            cx.note_value(value);
                        }
                        cx.note_column(&b.column);
                    }
                    Condition::Cmp(c) => {
                        cx.has_flipped |= c.flipped;
                        cx.note_value(&c.value);
                        cx.note_column(&c.column);
                    }
                }
            }
            cx.has_order_by |= !block.order_by.is_empty();
            cx.has_limit |= block.limit.is_some();
            if let SelectList::Columns(columns) = &block.select {
                columns.iter().for_each(|c| cx.note_column(c));
            }
            block.group_by.iter().for_each(|c| cx.note_column(c));
            block
                .order_by
                .iter()
                .for_each(|k| cx.note_column(&k.column));
            if let Some(join) = &block.join {
                cx.note_column(&join.left_key);
                cx.note_column(&join.right_key);
            }
        });
        cx
    }

    fn note_value(&mut self, value: &Value) {
        if let Value::Param {
            bound: None, span, ..
        } = value
        {
            self.unbound_params += 1;
            // Blocks are visited pre-order left-to-right, and so are a
            // block's values, so the first sighting is the lexically first.
            if self.first_unbound.is_none() {
                self.first_unbound = Some(*span);
            }
        }
    }

    fn note_column(&mut self, column: &ColumnRef) {
        if column.resolved.is_none() {
            self.unresolved_columns += 1;
        }
    }
}

/// The FROM items of one block (left item, then join right item).
fn block_items(block: &SelectBlock) -> impl Iterator<Item = &FromItem> {
    std::iter::once(&block.from).chain(block.join.as_ref().map(|j| &j.right))
}

fn is_passthrough_derived(item: &FromItem) -> bool {
    match item {
        FromItem::Derived { query, .. } => match query.as_ref() {
            QueryExpr::Select(b) => is_passthrough(b),
            QueryExpr::Union { .. } => false,
        },
        FromItem::Table { .. } => false,
    }
}

// `ORDER BY`/`LIMIT` do not block pass-through: the IR has bag semantics
// and `OrderLimitElision` discards them unconditionally, so a derived table
// whose only decorations are ordering clauses collapses in the same phase
// pass regardless of which of the two optimize rules runs first (keeping
// the phase idempotent and order-invariant).
fn is_passthrough(block: &SelectBlock) -> bool {
    matches!(block.select, SelectList::Star(_))
        && block.join.is_none()
        && block.conditions.is_empty()
        && block.group_by.is_empty()
}

// ---------------------------------------------------------------------------
// Rule bodies.
// ---------------------------------------------------------------------------

fn relation_discovery(query: &mut QueryExpr, catalog: &Catalog) -> Result<RuleOutcome> {
    let mut missing: Option<(String, Span)> = None;
    query.for_each_block(&mut |block| {
        for item in block_items(block) {
            if let FromItem::Table { name, span } = item {
                if missing.is_none() && catalog.table(name).is_err() {
                    missing = Some((name.clone(), *span));
                }
            }
        }
    });
    match missing {
        Some((name, span)) => Err(SqlError::new(ErrorKind::UnknownTable { name }, span)),
        None => Ok(RuleOutcome::NoChange),
    }
}

fn param_bind(query: &mut QueryExpr, params: &[i64]) -> Result<RuleOutcome> {
    fn bind(value: &mut Value, params: &[i64], bound: &mut usize, error: &mut Option<SqlError>) {
        if let Value::Param {
            index,
            span,
            bound: slot,
        } = value
        {
            if slot.is_some() {
                return;
            }
            match params.get(*index) {
                Some(v) => {
                    *slot = Some(*v);
                    *bound += 1;
                }
                None => {
                    if error.is_none() {
                        *error = Some(SqlError::new(
                            ErrorKind::ParamArity {
                                placeholders: *index + 1,
                                bound: params.len(),
                            },
                            *span,
                        ));
                    }
                }
            }
        }
    }
    let mut bound = 0usize;
    let mut error: Option<SqlError> = None;
    query.for_each_block_mut(&mut |block| {
        for cond in &mut block.conditions {
            match cond {
                Condition::Cmp(c) => bind(&mut c.value, params, &mut bound, &mut error),
                Condition::Between(b) => {
                    bind(&mut b.low, params, &mut bound, &mut error);
                    bind(&mut b.high, params, &mut bound, &mut error);
                }
            }
        }
    });
    if let Some(err) = error {
        return Err(err);
    }
    Ok(if bound > 0 {
        RuleOutcome::Changed
    } else {
        RuleOutcome::NoChange
    })
}

fn column_resolution(query: &mut QueryExpr, catalog: &Catalog) -> Result<RuleOutcome> {
    let mut resolved = 0usize;
    let mut error: Option<SqlError> = None;
    query.for_each_block_mut(&mut |block| {
        let base = block.from.base_table().0;
        let base_meta = catalog.table(base).ok();
        let mut resolve = |column: &mut ColumnRef, base: &str, table: Option<&TableMeta>| {
            if error.is_some() || column.resolved.is_some() {
                return;
            }
            if let Some((qualifier, qspan)) = &column.qualifier {
                if qualifier != base {
                    error = Some(SqlError::new(
                        ErrorKind::QualifierMismatch {
                            qualifier: qualifier.clone(),
                            expected: base.to_string(),
                        },
                        *qspan,
                    ));
                    return;
                }
            }
            let Some(table) = table else {
                error = Some(SqlError::new(
                    ErrorKind::UnknownTable {
                        name: base.to_string(),
                    },
                    column.span,
                ));
                return;
            };
            match table.columns.iter().position(|c| c.name == column.name) {
                Some(ordinal) => {
                    column.resolved = Some(ordinal);
                    resolved += 1;
                }
                None => {
                    error = Some(SqlError::new(
                        ErrorKind::UnknownColumn {
                            table: base.to_string(),
                            column: column.name.clone(),
                        },
                        column.span,
                    ));
                }
            }
        };
        if let SelectList::Columns(columns) = &mut block.select {
            columns.iter_mut().for_each(|c| resolve(c, base, base_meta));
        }
        for cond in &mut block.conditions {
            match cond {
                Condition::Cmp(c) => resolve(&mut c.column, base, base_meta),
                Condition::Between(b) => resolve(&mut b.column, base, base_meta),
            }
        }
        block
            .group_by
            .iter_mut()
            .for_each(|c| resolve(c, base, base_meta));
        block
            .order_by
            .iter_mut()
            .for_each(|k| resolve(&mut k.column, base, base_meta));
        if let Some(join) = &mut block.join {
            let right_base = join.right.base_table().0;
            let right_meta = catalog.table(right_base).ok();
            resolve(&mut join.left_key, base, base_meta);
            resolve(&mut join.right_key, right_base, right_meta);
        }
    });
    if let Some(err) = error {
        return Err(err);
    }
    Ok(if resolved > 0 {
        RuleOutcome::Changed
    } else {
        RuleOutcome::NoChange
    })
}

fn between_desugar(query: &mut QueryExpr) -> Result<RuleOutcome> {
    use adas_workload::plan::CmpOp;
    let mut changed = false;
    query.for_each_block_mut(&mut |block| {
        if !block
            .conditions
            .iter()
            .any(|c| matches!(c, Condition::Between(_)))
        {
            return;
        }
        changed = true;
        block.conditions = block
            .conditions
            .drain(..)
            .flat_map(|cond| match cond {
                Condition::Between(b) => vec![
                    Condition::Cmp(crate::ast::CmpCond {
                        column: b.column.clone(),
                        op: CmpOp::Ge,
                        value: b.low,
                        flipped: false,
                        span: b.span,
                    }),
                    Condition::Cmp(crate::ast::CmpCond {
                        column: b.column,
                        op: CmpOp::Le,
                        value: b.high,
                        flipped: false,
                        span: b.span,
                    }),
                ],
                other => vec![other],
            })
            .collect();
    });
    Ok(outcome_of(changed))
}

fn comparison_flip(query: &mut QueryExpr) -> Result<RuleOutcome> {
    let mut changed = false;
    query.for_each_block_mut(&mut |block| {
        for cond in &mut block.conditions {
            if let Condition::Cmp(c) = cond {
                if c.flipped {
                    c.op = c.op.mirror();
                    c.flipped = false;
                    changed = true;
                }
            }
        }
    });
    Ok(outcome_of(changed))
}

fn derived_table_collapse(query: &mut QueryExpr) -> Result<RuleOutcome> {
    fn collapse_item(item: &mut FromItem) -> bool {
        let mut changed = false;
        while is_passthrough_derived(item) {
            let FromItem::Derived { query, .. } = item else {
                unreachable!("checked by is_passthrough_derived")
            };
            let QueryExpr::Select(block) = query.as_mut() else {
                unreachable!("checked by is_passthrough_derived")
            };
            *item = block.from.clone();
            changed = true;
        }
        changed
    }
    let mut changed = false;
    query.for_each_block_mut(&mut |block| {
        changed |= collapse_item(&mut block.from);
        if let Some(join) = &mut block.join {
            changed |= collapse_item(&mut join.right);
        }
    });
    Ok(outcome_of(changed))
}

fn order_limit_elision(query: &mut QueryExpr) -> Result<RuleOutcome> {
    let mut changed = false;
    query.for_each_block_mut(&mut |block| {
        if !block.order_by.is_empty() {
            block.order_by.clear();
            changed = true;
        }
        if block.limit.is_some() {
            block.limit = None;
            changed = true;
        }
    });
    Ok(outcome_of(changed))
}

fn outcome_of(changed: bool) -> RuleOutcome {
    if changed {
        RuleOutcome::Changed
    } else {
        RuleOutcome::NoChange
    }
}

// ---------------------------------------------------------------------------
// Lowering.
// ---------------------------------------------------------------------------

/// Lowers a fully rewritten query to the plan IR. Residual syntax the
/// rewrite phases should have eliminated (`BETWEEN`, flipped comparisons,
/// unbound parameters, unresolved columns, `ORDER BY`/`LIMIT`) is a typed
/// error, not a panic — it means the phases were skipped.
pub fn lower(query: &QueryExpr) -> Result<LogicalPlan> {
    use adas_workload::plan::{Comparison, Predicate};
    match query {
        QueryExpr::Union { left, right, .. } => Ok(LogicalPlan::union(lower(left)?, lower(right)?)),
        QueryExpr::Select(block) => {
            if let Some(key) = block.order_by.first() {
                return Err(SqlError::new(ErrorKind::Residual("ORDER BY"), key.span));
            }
            if let Some(limit) = block.limit {
                return Err(SqlError::new(ErrorKind::Residual("LIMIT"), limit.span));
            }
            let mut plan = lower_item(&block.from)?;
            if let Some(join) = &block.join {
                let right = lower_item(&join.right)?;
                plan = LogicalPlan::join(
                    plan,
                    right,
                    resolved(&join.left_key)?,
                    resolved(&join.right_key)?,
                );
            }
            if !block.conditions.is_empty() {
                let mut clauses = Vec::with_capacity(block.conditions.len());
                for cond in &block.conditions {
                    let c = match cond {
                        Condition::Cmp(c) => c,
                        Condition::Between(b) => {
                            return Err(SqlError::new(ErrorKind::Residual("BETWEEN"), b.span))
                        }
                    };
                    if c.flipped {
                        return Err(SqlError::new(
                            ErrorKind::Residual("flipped comparison"),
                            c.span,
                        ));
                    }
                    let value = c.value.concrete().ok_or_else(|| {
                        SqlError::new(ErrorKind::Residual("unbound parameter"), c.value.span())
                    })?;
                    clauses.push(Comparison::new(resolved(&c.column)?, c.op, value));
                }
                plan = plan.filter(Predicate::new(clauses));
            }
            if !block.group_by.is_empty() {
                let mut group = Vec::with_capacity(block.group_by.len());
                for column in &block.group_by {
                    group.push(resolved(column)?);
                }
                plan = plan.aggregate(group);
            }
            if let SelectList::Columns(columns) = &block.select {
                let mut ordinals = Vec::with_capacity(columns.len());
                for column in columns {
                    ordinals.push(resolved(column)?);
                }
                plan = plan.project(ordinals);
            }
            Ok(plan)
        }
    }
}

fn lower_item(item: &FromItem) -> Result<LogicalPlan> {
    match item {
        FromItem::Table { name, .. } => Ok(LogicalPlan::scan(name)),
        FromItem::Derived { query, .. } => lower(query),
    }
}

fn resolved(column: &ColumnRef) -> Result<usize> {
    column
        .resolved
        .ok_or_else(|| SqlError::new(ErrorKind::Residual("unresolved column"), column.span))
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

/// One rule's outcome at its position in the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleApplication {
    /// The phase the rule ran in.
    pub phase: RewritePhase,
    /// The rule.
    pub rule: QueryRule,
    /// What it did.
    pub outcome: RuleOutcome,
}

/// The per-rule outcome log of one compilation, in execution order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompileReport {
    /// Every rule application, in execution order.
    pub applications: Vec<RuleApplication>,
}

impl CompileReport {
    /// The outcome of a rule's (last) application, if it ran.
    pub fn outcome(&self, rule: QueryRule) -> Option<RuleOutcome> {
        self.applications
            .iter()
            .rev()
            .find(|a| a.rule == rule)
            .map(|a| a.outcome)
    }

    /// The rules that reported [`RuleOutcome::Changed`], in order.
    pub fn changed(&self) -> Vec<QueryRule> {
        self.applications
            .iter()
            .filter(|a| a.outcome == RuleOutcome::Changed)
            .map(|a| a.rule)
            .collect()
    }

    /// True when any rewrite rule (excluding the terminal plan emission)
    /// reported `Changed`.
    pub fn any_rewrite_changed(&self) -> bool {
        self.applications
            .iter()
            .any(|a| a.rule != QueryRule::PlanEmit && a.outcome == RuleOutcome::Changed)
    }
}

/// A successful compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct Compiled {
    /// The rewritten AST (post-pipeline, pre-lowering).
    pub query: QueryExpr,
    /// The emitted plan.
    pub plan: LogicalPlan,
    /// Per-rule outcomes.
    pub report: CompileReport,
}

/// Per-phase rule orderings for [`Frontend::compile_with_order`]. Each list
/// must be a permutation of that phase's canonical rules; the property
/// tests use this to check order invariance within a phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseOrders {
    /// Analyze-phase order.
    pub analyze: Vec<QueryRule>,
    /// Canonicalize-phase order.
    pub canonicalize: Vec<QueryRule>,
    /// Optimize-phase order.
    pub optimize: Vec<QueryRule>,
}

impl PhaseOrders {
    /// The canonical orders (what [`Frontend::compile`] uses).
    pub fn canonical() -> Self {
        Self {
            analyze: ANALYZE_RULES.to_vec(),
            canonicalize: CANONICALIZE_RULES.to_vec(),
            optimize: OPTIMIZE_RULES.to_vec(),
        }
    }

    /// A `'static` canonical instance, so the hot compile path allocates
    /// no order vectors per query.
    fn canonical_static() -> &'static Self {
        static CANONICAL: OnceLock<PhaseOrders> = OnceLock::new();
        CANONICAL.get_or_init(Self::canonical)
    }

    fn validate(&self) -> Result<()> {
        // Hot path: the canonical orders validate by slice equality alone.
        if self.analyze == ANALYZE_RULES
            && self.canonicalize == CANONICALIZE_RULES
            && self.optimize == OPTIMIZE_RULES
        {
            return Ok(());
        }
        for (phase, order) in [
            (RewritePhase::Analyze, &self.analyze),
            (RewritePhase::Canonicalize, &self.canonicalize),
            (RewritePhase::Optimize, &self.optimize),
        ] {
            let mut canonical = rules_for_phase(phase).to_vec();
            let mut given = order.clone();
            canonical.sort_unstable();
            given.sort_unstable();
            if canonical != given {
                return Err(SqlError::new(
                    ErrorKind::InvalidRuleOrder {
                        phase: phase.name(),
                    },
                    Span::new(0, 0),
                ));
            }
        }
        Ok(())
    }

    fn order_for(&self, phase: RewritePhase) -> &[QueryRule] {
        match phase {
            RewritePhase::Analyze => &self.analyze,
            RewritePhase::Canonicalize => &self.canonicalize,
            RewritePhase::Optimize => &self.optimize,
            RewritePhase::Lower => LOWER_RULES,
        }
    }
}

/// The SQL front-end: parse → analyze → canonicalize → optimize → lower
/// against a fixed catalog.
#[derive(Debug, Clone)]
pub struct Frontend<'a> {
    catalog: &'a Catalog,
}

impl<'a> Frontend<'a> {
    /// Creates a front-end resolving names against `catalog` (through
    /// [`Catalog::table`], the catalog's own name index).
    pub fn new(catalog: &'a Catalog) -> Self {
        Self { catalog }
    }

    /// The catalog this front-end resolves against.
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// Compiles `sql` with `params` bound to its `?` placeholders, without
    /// observability.
    pub fn compile(&self, sql: &str, params: &[i64]) -> Result<Compiled> {
        self.compile_observed(sql, params, &Obs::disabled(), 0.0)
    }

    /// Compiles with every phase instrumented through `obs` starting at
    /// logical time `at`. Span extents are deterministic logical ticks —
    /// one per phase dispatch plus one per executed rule — so the spans
    /// survive critical-path analysis (zero-extent spans would be dropped).
    pub fn compile_observed(
        &self,
        sql: &str,
        params: &[i64],
        obs: &Obs,
        at: f64,
    ) -> Result<Compiled> {
        self.compile_full(sql, params, PhaseOrders::canonical_static(), obs, at)
    }

    /// Compiles with explicit per-phase rule orders (each a permutation of
    /// the canonical order). Exists to let tests prove order invariance.
    pub fn compile_with_order(
        &self,
        sql: &str,
        params: &[i64],
        orders: &PhaseOrders,
    ) -> Result<Compiled> {
        self.compile_full(sql, params, orders, &Obs::disabled(), 0.0)
    }

    fn compile_full(
        &self,
        sql: &str,
        params: &[i64],
        orders: &PhaseOrders,
        obs: &Obs,
        at: f64,
    ) -> Result<Compiled> {
        orders.validate()?;
        let mut tick = at;
        let compile_span = obs.span_enter(COMPONENT, "compile", tick);
        let result = (|| {
            let parse_span = obs.span_enter(COMPONENT, "parse", tick);
            let parsed = parse(sql);
            tick += 1.0;
            obs.span_exit(parse_span, tick);
            let mut query = parsed?;

            let mut report = CompileReport::default();
            self.rewrite_inner(&mut query, params, orders, obs, &mut tick, &mut report)?;

            // Lower phase: the terminal PlanEmit rule consumes the AST.
            let lower_span = obs.span_enter(COMPONENT, RewritePhase::Lower.name(), tick);
            let plan_result = lower(&query);
            tick += 1.0; // the PlanEmit rule's execution tick
            let outcome = if plan_result.is_ok() {
                RuleOutcome::Changed
            } else {
                RuleOutcome::NotApplicable
            };
            obs.counter_add(
                COMPONENT,
                "rule_outcome",
                &[
                    ("phase", RewritePhase::Lower.name()),
                    ("rule", QueryRule::PlanEmit.name()),
                    ("outcome", outcome.name()),
                ],
                1,
            );
            tick += 1.0; // phase dispatch tick
            obs.span_exit(lower_span, tick);
            let plan = plan_result?;
            report.applications.push(RuleApplication {
                phase: RewritePhase::Lower,
                rule: QueryRule::PlanEmit,
                outcome: RuleOutcome::Changed,
            });
            obs.counter_add(COMPONENT, "queries_compiled", &[], 1);
            Ok(Compiled {
                query,
                plan,
                report,
            })
        })();
        tick += 1.0; // the compile span's own dispatch tick
        obs.span_exit(compile_span, tick);
        result
    }

    /// Runs the three rewrite phases (no parse, no lower) on `query`,
    /// mutating it in place. Re-running on a previously rewritten query
    /// with `params = &[]` must produce no `Changed` outcome — the
    /// idempotence contract the property tests pin.
    pub fn rewrite(&self, query: &mut QueryExpr, params: &[i64]) -> Result<CompileReport> {
        let mut report = CompileReport::default();
        let mut tick = 0.0;
        self.rewrite_inner(
            query,
            params,
            PhaseOrders::canonical_static(),
            &Obs::disabled(),
            &mut tick,
            &mut report,
        )?;
        Ok(report)
    }

    fn rewrite_inner(
        &self,
        query: &mut QueryExpr,
        params: &[i64],
        orders: &PhaseOrders,
        obs: &Obs,
        tick: &mut f64,
        report: &mut CompileReport,
    ) -> Result<()> {
        // Parameter arity is a whole-query contract, checked before any
        // rule runs so it fails even when ParamBind is gated out.
        let cx = AnalysisContext::scan(query);
        if cx.unbound_params != params.len() {
            let span = cx.first_unbound.unwrap_or_else(|| query.span());
            return Err(SqlError::new(
                ErrorKind::ParamArity {
                    placeholders: cx.unbound_params,
                    bound: params.len(),
                },
                span,
            ));
        }
        // The arity scan doubles as the analyze phase's boundary context
        // (nothing has mutated the query in between).
        let mut boundary_cx = Some(cx);
        for phase in [
            RewritePhase::Analyze,
            RewritePhase::Canonicalize,
            RewritePhase::Optimize,
        ] {
            let span = obs.span_enter(COMPONENT, phase.name(), *tick);
            let result = (|| {
                let cx = boundary_cx
                    .take()
                    .unwrap_or_else(|| AnalysisContext::scan(query));
                for &rule in orders.order_for(phase) {
                    let outcome = if rule.matches_context(&cx) {
                        *tick += 1.0;
                        rule.apply(query, self.catalog, params)?
                    } else {
                        RuleOutcome::NotApplicable
                    };
                    obs.counter_add(
                        COMPONENT,
                        "rule_outcome",
                        &[
                            ("phase", phase.name()),
                            ("rule", rule.name()),
                            ("outcome", outcome.name()),
                        ],
                        1,
                    );
                    report.applications.push(RuleApplication {
                        phase,
                        rule,
                        outcome,
                    });
                }
                Ok(())
            })();
            *tick += 1.0; // phase dispatch tick
            obs.span_exit(span, *tick);
            result?;
        }
        Ok(())
    }
}

/// A compile cache keyed by SQL text, exploiting template-recurring
/// workloads (the paper's Peregrine premise: most production queries are
/// instances of recurring templates).
///
/// The first sighting of a text pays the full parse → rewrite → lower
/// pipeline and caches the rewritten AST; every later instance re-binds its
/// `?` parameters into a clone of that AST and lowers — skipping the lexer,
/// parser and all rewrite phases. Correctness rests on two pipeline
/// invariants the property tests pin: the rewrite phases are idempotent,
/// and no rewrite rule inspects bound parameter *values* (only whether a
/// slot is bound), so a cached AST re-lowered under different bindings is
/// exactly what a fresh compile would produce.
#[derive(Debug)]
pub struct CachedFrontend<'a> {
    frontend: Frontend<'a>,
    entries: std::cell::RefCell<BTreeMap<String, CacheEntry>>,
    hits: std::cell::Cell<u64>,
    misses: std::cell::Cell<u64>,
}

#[derive(Debug)]
struct CacheEntry {
    /// The fully rewritten AST (parameters present, slots bound to the
    /// first instance's values — rebinding overwrites them).
    query: QueryExpr,
    /// The lowered plan of the first instance; parameter-fed comparison
    /// values are stale and patched on every hit.
    plan: LogicalPlan,
    /// Number of `?` placeholders the text carries.
    n_params: usize,
    /// Span of the first placeholder, for arity diagnostics.
    first_param: Option<Span>,
}

impl CacheEntry {
    /// Arity gate shared by both hit paths.
    fn check_arity(&self, bound: usize) -> Result<()> {
        if self.n_params == bound {
            return Ok(());
        }
        let span = self.first_param.unwrap_or_else(|| self.query.span());
        Err(SqlError::new(
            ErrorKind::ParamArity {
                placeholders: self.n_params,
                bound,
            },
            span,
        ))
    }
}

impl<'a> CachedFrontend<'a> {
    /// Wraps a front-end with an empty template cache.
    pub fn new(frontend: Frontend<'a>) -> Self {
        Self {
            frontend,
            entries: std::cell::RefCell::new(BTreeMap::new()),
            hits: std::cell::Cell::new(0),
            misses: std::cell::Cell::new(0),
        }
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Compiles `sql`, serving repeated texts from the template cache.
    ///
    /// Cache hits return an empty [`CompileReport`] (no rule ran); misses
    /// return the full report of the underlying compile.
    pub fn compile(&self, sql: &str, params: &[i64]) -> Result<Compiled> {
        if let Some(entry) = self.entries.borrow().get(sql) {
            entry.check_arity(params.len())?;
            let mut query = entry.query.clone();
            rebind_params(&mut query, params);
            let plan = lower(&query)?;
            self.hits.set(self.hits.get() + 1);
            return Ok(Compiled {
                query,
                plan,
                report: CompileReport::default(),
            });
        }
        let compiled = self.frontend.compile(sql, params)?;
        let mut first_param = None;
        compiled.query.for_each_block(&mut |block| {
            for cond in &block.conditions {
                let values: [&Value; 2] = match cond {
                    Condition::Cmp(c) => [&c.value, &c.value],
                    Condition::Between(b) => [&b.low, &b.high],
                };
                for value in values {
                    if let Value::Param { span, .. } = value {
                        if first_param.is_none() {
                            first_param = Some(*span);
                        }
                    }
                }
            }
        });
        self.entries.borrow_mut().insert(
            sql.to_string(),
            CacheEntry {
                query: compiled.query.clone(),
                plan: compiled.plan.clone(),
                n_params: params.len(),
                first_param,
            },
        );
        self.misses.set(self.misses.get() + 1);
        Ok(compiled)
    }

    /// Compiles `sql` to just its [`LogicalPlan`] — the steady-state fast
    /// path. A hit clones the cached lowered plan and patches the
    /// parameter-fed comparison values in place, skipping the AST clone and
    /// re-lowering that [`compile`](Self::compile) hits pay; a miss falls
    /// through to the full pipeline and populates the cache.
    pub fn compile_plan(&self, sql: &str, params: &[i64]) -> Result<LogicalPlan> {
        if let Some(entry) = self.entries.borrow().get(sql) {
            entry.check_arity(params.len())?;
            let mut plan = entry.plan.clone();
            patch_params(&entry.query, &mut plan, params);
            self.hits.set(self.hits.get() + 1);
            return Ok(plan);
        }
        self.compile(sql, params).map(|compiled| compiled.plan)
    }
}

/// Walks a cached AST and its lowered plan in lockstep (mirroring
/// [`lower`]'s emission order) and overwrites every comparison value that a
/// `?` parameter feeds. The AST is post-rewrite, so every condition is a
/// plain comparison and block decorations map 1:1 onto plan nodes.
fn patch_params(query: &QueryExpr, plan: &mut LogicalPlan, params: &[i64]) {
    use adas_workload::plan::PlanKind;
    match query {
        QueryExpr::Union { left, right, .. } => {
            let (l, r) = plan.children.split_at_mut(1);
            patch_params(left, &mut l[0], params);
            patch_params(right, &mut r[0], params);
        }
        QueryExpr::Select(block) => {
            let mut node = plan;
            if matches!(block.select, SelectList::Columns(_)) {
                node = &mut node.children[0];
            }
            if !block.group_by.is_empty() {
                node = &mut node.children[0];
            }
            if !block.conditions.is_empty() {
                if let PlanKind::Filter { predicate } = &mut node.kind {
                    for (clause, cond) in predicate.clauses.iter_mut().zip(&block.conditions) {
                        if let Condition::Cmp(c) = cond {
                            if let Value::Param { index, .. } = c.value {
                                clause.value = params[index];
                            }
                        }
                    }
                }
                node = &mut node.children[0];
            }
            if let Some(join) = &block.join {
                let (l, r) = node.children.split_at_mut(1);
                patch_item(&block.from, &mut l[0], params);
                patch_item(&join.right, &mut r[0], params);
            } else {
                patch_item(&block.from, node, params);
            }
        }
    }
}

/// Recurses [`patch_params`] into derived tables; base-table scans carry no
/// parameters.
fn patch_item(item: &FromItem, plan: &mut LogicalPlan, params: &[i64]) {
    if let FromItem::Derived { query, .. } = item {
        patch_params(query, plan, params);
    }
}

/// Overwrites every parameter slot with its value from `params` (indices
/// were assigned lexically at parse time and survive all rewrites).
fn rebind_params(query: &mut QueryExpr, params: &[i64]) {
    query.for_each_block_mut(&mut |block| {
        for cond in &mut block.conditions {
            let values: [&mut Value; 2] = match cond {
                Condition::Cmp(c) => {
                    if let Value::Param { index, bound, .. } = &mut c.value {
                        *bound = Some(params[*index]);
                    }
                    continue;
                }
                Condition::Between(b) => [&mut b.low, &mut b.high],
            };
            for value in values {
                if let Value::Param { index, bound, .. } = value {
                    *bound = Some(params[*index]);
                }
            }
        }
    });
}
