//! Cardinality estimation: the classical default estimator and the
//! ground-truth oracle.
//!
//! The default estimator makes the textbook assumptions — uniform value
//! distributions and independent predicates. The ground truth accounts for
//! column skew and per-subplan correlation effects (derived deterministically
//! from the plan's template signature, standing in for the data correlations
//! a real execution would expose). The systematic, *template-consistent* gap
//! between the two is exactly what makes per-template micromodels (Sec 4.2,
//! \[49\]) effective: instances of one template err the same way.

use crate::Result;
use adas_workload::catalog::{Catalog, ColumnMeta, TableMeta};
use adas_workload::plan::{CmpOp, LogicalPlan, PlanKind, Predicate};
use adas_workload::signature::{template_signature_in, Fnv1a};
use adas_workload::WorkloadError;

/// A model that annotates every node of a plan with an output-row estimate.
pub trait CardinalityModel {
    /// Estimated output rows of the plan root.
    fn estimate(&self, plan: &LogicalPlan) -> Result<f64> {
        Ok(*self
            .annotate(plan)?
            .first()
            .expect("annotation includes the root"))
    }

    /// Per-node estimates in *pre-order* (root first), matching
    /// [`LogicalPlan::iter`].
    fn annotate(&self, plan: &LogicalPlan) -> Result<Vec<f64>>;
}

// Forwarding impls so shared estimators (e.g. a serving-gateway adapter
// behind an `Arc`) plug into `Optimizer::optimize` without re-implementing
// the trait.
impl<T: CardinalityModel + ?Sized> CardinalityModel for &T {
    fn annotate(&self, plan: &LogicalPlan) -> Result<Vec<f64>> {
        (**self).annotate(plan)
    }
}

impl<T: CardinalityModel + ?Sized> CardinalityModel for Box<T> {
    fn annotate(&self, plan: &LogicalPlan) -> Result<Vec<f64>> {
        (**self).annotate(plan)
    }
}

impl<T: CardinalityModel + ?Sized> CardinalityModel for std::sync::Arc<T> {
    fn annotate(&self, plan: &LogicalPlan) -> Result<Vec<f64>> {
        (**self).annotate(plan)
    }
}

/// Fraction of a uniform integer range `[min, max]` selected by `op value`.
fn uniform_selectivity(meta: &ColumnMeta, op: CmpOp, value: i64) -> f64 {
    let span = (meta.max - meta.min) as f64 + 1.0;
    let clamped = value.clamp(meta.min, meta.max);
    let below = (clamped - meta.min) as f64; // values strictly below
    match op {
        CmpOp::Eq => 1.0 / meta.distinct.max(1) as f64,
        CmpOp::Ne => 1.0 - 1.0 / meta.distinct.max(1) as f64,
        CmpOp::Lt => below / span,
        CmpOp::Le => (below + 1.0) / span,
        CmpOp::Gt => (span - below - 1.0) / span,
        CmpOp::Ge => (span - below) / span,
    }
    .clamp(0.0, 1.0)
}

/// Skew-aware true selectivity. For a column with skew `s > 0`, the mass of
/// the bottom fraction `f` of the value range is `f^(1/(1+s))` — low values
/// are disproportionately popular (Zipf-flavoured). Equality selectivity is
/// amplified for low values and damped for high ones.
fn true_selectivity(meta: &ColumnMeta, op: CmpOp, value: i64) -> f64 {
    if meta.skew <= 0.0 {
        return uniform_selectivity(meta, op, value);
    }
    let span = (meta.max - meta.min) as f64 + 1.0;
    let clamped = value.clamp(meta.min, meta.max);
    let exponent = 1.0 / (1.0 + meta.skew);
    let mass_below = |frac: f64| frac.clamp(0.0, 1.0).powf(exponent);
    let frac_below = (clamped - meta.min) as f64 / span;
    let frac_below_incl = ((clamped - meta.min) as f64 + 1.0) / span;
    match op {
        CmpOp::Lt => mass_below(frac_below),
        CmpOp::Le => mass_below(frac_below_incl),
        CmpOp::Gt => 1.0 - mass_below(frac_below_incl),
        CmpOp::Ge => 1.0 - mass_below(frac_below),
        CmpOp::Eq => (mass_below(frac_below_incl) - mass_below(frac_below)).max(1e-12 / span),
        CmpOp::Ne => 1.0 - (mass_below(frac_below_incl) - mass_below(frac_below)).max(1e-12 / span),
    }
    .clamp(0.0, 1.0)
}

fn predicate_selectivity(meta: &TableMeta, predicate: &Predicate, truth: bool) -> Result<f64> {
    let mut sel = 1.0;
    for clause in &predicate.clauses {
        let col = meta.column(clause.column)?;
        sel *= if truth {
            true_selectivity(col, clause.op, clause.value)
        } else {
            uniform_selectivity(col, clause.op, clause.value)
        };
    }
    Ok(sel)
}

/// Deterministic per-subplan correlation multiplier in `[1/6, 6.0]`,
/// keyed by the subplan's template signature (with view scans expanded to
/// the plans they materialize, so the factor — and hence "true" cost — is
/// invariant under view rewrites). Stands in for the data correlations
/// (cross-predicate, join-key) that break the independence assumption in
/// real workloads, while staying identical across instances of one
/// template.
fn correlation_factor(plan: &LogicalPlan, catalog: &Catalog) -> f64 {
    let sig = template_signature_in(plan, catalog).0;
    let mut h = Fnv1a::new();
    h.write_u64(sig);
    h.write(b"corr");
    // Map hash to [-1, 1], then to a multiplier in [1/6, 6].
    let unit = (h.finish() % 10_000) as f64 / 10_000.0 * 2.0 - 1.0;
    6.0f64.powf(unit)
}

/// Annotates `plan` in pre-order into `out` and returns the metadata of its
/// base table ([`LogicalPlan::base_table`]: the leftmost scan). Each table
/// is resolved once, at its scan, and handed up to the filters, join sides
/// and aggregates that read its columns. A node whose child count is not
/// its operator's arity is rejected with [`LogicalPlan::validate`]'s
/// message, so every caller — costing, optimizing, stage compile — gets an
/// error instead of an out-of-bounds child index.
fn annotate_node<'c>(
    catalog: &'c Catalog,
    plan: &LogicalPlan,
    truth: bool,
    out: &mut Vec<f64>,
) -> Result<&'c TableMeta> {
    if plan.children.len() != plan.kind.arity() {
        return Err(WorkloadError::MalformedPlan(format!(
            "{} requires {} children, has {}",
            plan.kind.name(),
            plan.kind.arity(),
            plan.children.len()
        ))
        .into());
    }
    let slot = out.len();
    out.push(0.0);
    let (rows, base) = match &plan.kind {
        PlanKind::Scan { table } => {
            let meta = catalog.table(table)?;
            (meta.rows as f64, meta)
        }
        PlanKind::Filter { predicate } => {
            let child_slot = out.len();
            let base = annotate_node(catalog, &plan.children[0], truth, out)?;
            let child_rows = out[child_slot];
            let sel = predicate_selectivity(base, predicate, truth)?;
            let mut rows = child_rows * sel;
            if truth {
                rows *= correlation_factor(plan, catalog);
            }
            (rows.min(child_rows), base)
        }
        PlanKind::Project { .. } => {
            let child_slot = out.len();
            let base = annotate_node(catalog, &plan.children[0], truth, out)?;
            (out[child_slot], base)
        }
        PlanKind::Join {
            left_key,
            right_key,
        } => {
            let left_slot = out.len();
            let left = annotate_node(catalog, &plan.children[0], truth, out)?;
            let right_slot = out.len();
            let right = annotate_node(catalog, &plan.children[1], truth, out)?;
            let (l, r) = (out[left_slot], out[right_slot]);
            // Strict resolution: a join key that no longer resolves against
            // its side's base table marks the plan invalid, exactly as
            // `LogicalPlan::validate` would — so the optimizer rejects
            // rewrites that rebind columns.
            let l_ndv = left.column(*left_key)?.distinct as f64;
            let r_ndv = right.column(*right_key)?.distinct as f64;
            let mut rows = l * r / l_ndv.max(r_ndv).max(1.0);
            if truth {
                rows *= correlation_factor(plan, catalog);
            }
            (rows.min(l * r), left)
        }
        PlanKind::Aggregate { group_by } => {
            let child_slot = out.len();
            let base = annotate_node(catalog, &plan.children[0], truth, out)?;
            let child_rows = out[child_slot];
            let mut groups = 1.0f64;
            for &c in group_by {
                groups *= base.column(c)?.distinct as f64;
            }
            (groups.min(child_rows).max(1.0), base)
        }
        PlanKind::Union => {
            let left_slot = out.len();
            let left = annotate_node(catalog, &plan.children[0], truth, out)?;
            let right_slot = out.len();
            annotate_node(catalog, &plan.children[1], truth, out)?;
            (out[left_slot] + out[right_slot], left)
        }
    };
    out[slot] = rows.max(1.0);
    Ok(base)
}

/// The classical default estimator (uniformity + independence).
#[derive(Debug, Clone, Copy)]
pub struct DefaultEstimator<'a> {
    catalog: &'a Catalog,
}

impl<'a> DefaultEstimator<'a> {
    /// Creates an estimator over a catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self { catalog }
    }
}

impl CardinalityModel for DefaultEstimator<'_> {
    fn annotate(&self, plan: &LogicalPlan) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(plan.node_count());
        annotate_node(self.catalog, plan, false, &mut out)?;
        Ok(out)
    }
}

/// The ground-truth oracle: skew- and correlation-aware cardinalities, the
/// ones the execution simulator charges for.
#[derive(Debug, Clone, Copy)]
pub struct TrueCardinality<'a> {
    catalog: &'a Catalog,
}

impl<'a> TrueCardinality<'a> {
    /// Creates the oracle over a catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self { catalog }
    }
}

impl CardinalityModel for TrueCardinality<'_> {
    fn annotate(&self, plan: &LogicalPlan) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(plan.node_count());
        annotate_node(self.catalog, plan, true, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_workload::plan::{CmpOp, LogicalPlan, Predicate};

    fn catalog() -> Catalog {
        Catalog::standard()
    }

    #[test]
    fn scan_estimates_table_rows() {
        let c = catalog();
        let plan = LogicalPlan::scan("events");
        assert_eq!(
            DefaultEstimator::new(&c).estimate(&plan).unwrap(),
            50_000_000.0
        );
        assert_eq!(
            TrueCardinality::new(&c).estimate(&plan).unwrap(),
            50_000_000.0
        );
    }

    #[test]
    fn uniform_equality_selectivity() {
        let c = catalog();
        // event_type has 50 distinct values, uniform.
        let plan = LogicalPlan::scan("events").filter(Predicate::single(1, CmpOp::Eq, 10));
        let est = DefaultEstimator::new(&c).estimate(&plan).unwrap();
        assert!((est - 1_000_000.0).abs() < 1.0, "est = {est}");
    }

    #[test]
    fn range_selectivity_monotone_in_literal() {
        let c = catalog();
        let est = |v: i64| {
            DefaultEstimator::new(&c)
                .estimate(&LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Le, v)))
                .unwrap()
        };
        assert!(est(100) < est(500));
        assert!(est(500) < est(719));
        assert!((est(719) - 50_000_000.0).abs() < 1.0);
    }

    #[test]
    fn annotation_preorder_covers_all_nodes() {
        let c = catalog();
        let plan = LogicalPlan::join(
            LogicalPlan::scan("events").filter(Predicate::single(1, CmpOp::Eq, 3)),
            LogicalPlan::scan("users"),
            0,
            0,
        );
        let ann = DefaultEstimator::new(&c).annotate(&plan).unwrap();
        assert_eq!(ann.len(), plan.node_count());
        // Pre-order: [join, filter, scan(events), scan(users)].
        assert_eq!(ann[2], 50_000_000.0);
        assert_eq!(ann[3], 1_000_000.0);
        assert!(ann[1] < ann[2]);
        assert!(ann[0] > 0.0);
    }

    #[test]
    fn truth_differs_from_default_on_skewed_columns() {
        let c = catalog();
        // user_id is skewed (1.1): equality on a low id should carry more
        // mass under the truth than under uniformity.
        let plan = LogicalPlan::scan("events").filter(Predicate::single(0, CmpOp::Eq, 5));
        let default = DefaultEstimator::new(&c).estimate(&plan).unwrap();
        let truth = TrueCardinality::new(&c).estimate(&plan).unwrap();
        assert_ne!(default, truth);
    }

    #[test]
    fn truth_is_template_consistent() {
        // Two instances of one template (different literals) get the same
        // correlation factor, so truth is a smooth function of the literal.
        let c = catalog();
        let mk = |v: i64| LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Le, v));
        let t = TrueCardinality::new(&c);
        let t100 = t.estimate(&mk(100)).unwrap();
        let t200 = t.estimate(&mk(200)).unwrap();
        let t400 = t.estimate(&mk(400)).unwrap();
        assert!(t100 < t200 && t200 < t400);
    }

    #[test]
    fn union_adds_and_aggregate_caps() {
        let c = catalog();
        let u = LogicalPlan::union(LogicalPlan::scan("users"), LogicalPlan::scan("regions"));
        assert_eq!(DefaultEstimator::new(&c).estimate(&u).unwrap(), 1_000_060.0);
        let agg = LogicalPlan::scan("users").aggregate(vec![1]); // segment: 8 distinct
        assert_eq!(DefaultEstimator::new(&c).estimate(&agg).unwrap(), 8.0);
    }

    #[test]
    fn estimates_never_below_one_row() {
        let c = catalog();
        let plan = LogicalPlan::scan("regions")
            .filter(Predicate::new(vec![
                adas_workload::plan::Comparison::new(0, CmpOp::Eq, 1),
                adas_workload::plan::Comparison::new(1, CmpOp::Eq, 2),
            ]))
            .aggregate(vec![1]);
        assert!(DefaultEstimator::new(&c).estimate(&plan).unwrap() >= 1.0);
        assert!(TrueCardinality::new(&c).estimate(&plan).unwrap() >= 1.0);
    }

    #[test]
    fn correlation_factor_bounded_and_deterministic() {
        let c = catalog();
        let plan = LogicalPlan::scan("events").filter(Predicate::single(1, CmpOp::Eq, 3));
        let f1 = correlation_factor(&plan, &c);
        let f2 = correlation_factor(&plan, &c);
        assert_eq!(f1, f2);
        assert!((1.0 / 6.0..=6.0).contains(&f1));
    }

    #[test]
    fn truth_invariant_under_view_rewrite() {
        // Replacing a subtree with a scan of a view registered for it must
        // not change the true cardinality of enclosing nodes.
        let c = catalog();
        let subtree = LogicalPlan::scan("telemetry").filter(Predicate::single(2, CmpOp::Le, 100));
        let original = LogicalPlan::join(subtree.clone(), LogicalPlan::scan("telemetry"), 1, 0);
        let original_rows = TrueCardinality::new(&c).estimate(&original).unwrap();

        let mut extended = c.clone();
        let view_rows = TrueCardinality::new(&c).estimate(&subtree).unwrap();
        extended.add_table(adas_workload::catalog::TableMeta {
            name: "view_t".into(),
            rows: view_rows as u64,
            columns: c.table("telemetry").unwrap().columns.clone(),
        });
        extended.register_view("view_t", subtree);
        let rewritten = LogicalPlan::join(
            LogicalPlan::scan("view_t"),
            LogicalPlan::scan("telemetry"),
            1,
            0,
        );
        let rewritten_rows = TrueCardinality::new(&extended)
            .estimate(&rewritten)
            .unwrap();
        let rel = (rewritten_rows - original_rows).abs() / original_rows;
        assert!(
            rel < 1e-6,
            "view rewrite changed truth: {original_rows} vs {rewritten_rows}"
        );
    }
}
