//! Canonical SQL rendering of logical plans.
//!
//! [`to_sql`] turns any [`LogicalPlan`] into SQL text in the subset grammar
//! the `adas-sql` front-end parses, and [`to_sql_template`] additionally
//! abstracts every filter literal into a `?` placeholder (returning the
//! bound values in placeholder order) — the textual twin of
//! [`template_signature`](crate::signature::template_signature), which
//! abstracts exactly the same literals.
//!
//! The rendering is **canonical** and designed as an exact inverse of the
//! front-end's lowering: `lower(parse(to_sql(plan))) == plan`, node for
//! node, so strict and template signatures survive the round trip
//! byte-identically. That inverse property is what lets the workload
//! generator emit its recurring jobs as SQL templates and have
//! recurring-job detection, shared-subexpression reuse and cloud-views
//! produce results identical to the hand-built plans.
//!
//! Shape mapping (one query block per chain of mergeable operators):
//!
//! | plan nesting (bottom-up) | SQL clause |
//! |---|---|
//! | `Scan` / `Join` | `FROM` (tables or parenthesized subqueries) |
//! | `Filter` directly above | `WHERE` (conjunction, clause order kept) |
//! | `Aggregate` above that | `GROUP BY` |
//! | `Project` on top | explicit `SELECT` list (`*` when absent) |
//! | `Union` | `UNION ALL` (left-associative; right nests in parens) |
//!
//! Any operator arriving out of that order (stacked filters, aggregate over
//! project, …) wraps its input in a parenthesized derived table, which the
//! front-end lowers back to the same nesting.

use crate::catalog::Catalog;
use crate::plan::{LogicalPlan, PlanKind, Predicate};
use crate::{Result, WorkloadError};
use std::fmt::Write as _;

/// Renders a plan to canonical SQL with literals inlined.
pub fn to_sql(plan: &LogicalPlan, catalog: &Catalog) -> Result<String> {
    let mut r = Renderer {
        catalog,
        params: None,
    };
    r.query(plan)
}

/// Renders a plan to a canonical SQL *template*: every filter literal
/// becomes a `?` placeholder and the second return value holds the bound
/// values in placeholder (text) order. Instances of one recurring template
/// render to byte-identical template text, differing only in the bindings.
pub fn to_sql_template(plan: &LogicalPlan, catalog: &Catalog) -> Result<(String, Vec<i64>)> {
    let mut r = Renderer {
        catalog,
        params: Some(Vec::new()),
    };
    let sql = r.query(plan)?;
    Ok((sql, r.params.expect("template mode collects params")))
}

/// One SQL query block under construction. `None` slots render as their
/// defaults (`SELECT *`, no `WHERE`, no `GROUP BY`); a plan operator merges
/// into a slot only when lowering would re-nest it in the original order.
struct Block<'p> {
    /// Rendered FROM clause (a table name, a derived table, or a JOIN).
    from: String,
    /// Base table resolving this block's column ordinals (the leftmost
    /// scan beneath it).
    base: String,
    where_: Option<&'p Predicate>,
    group: Option<&'p [usize]>,
    select: Option<&'p [usize]>,
}

struct Renderer<'a> {
    catalog: &'a Catalog,
    /// `Some` ⇒ template mode: emit `?` for filter literals, collect here.
    params: Option<Vec<i64>>,
}

impl<'a> Renderer<'a> {
    /// Full query text for any plan (the only entry point that handles
    /// `Union` roots).
    fn query(&mut self, plan: &LogicalPlan) -> Result<String> {
        if let PlanKind::Union = plan.kind {
            plan.check_arity()?;
            // Left-associative chains stay flat; a union as the *right*
            // operand needs parentheses to preserve the tree shape.
            let left = &plan.children[0];
            let right = &plan.children[1];
            let left_sql = self.query(left)?;
            let right_sql = if matches!(right.kind, PlanKind::Union) {
                format!("({})", self.query(right)?)
            } else {
                self.query(right)?
            };
            return Ok(format!("{left_sql} UNION ALL {right_sql}"));
        }
        let block = self.block(plan)?;
        self.render_block(block)
    }

    /// Builds the query block for a non-`Union` plan, merging operators
    /// into clause slots where lowering order permits and wrapping in a
    /// derived table where it does not.
    fn block<'p>(&mut self, plan: &'p LogicalPlan) -> Result<Block<'p>> {
        plan.check_arity()?;
        match &plan.kind {
            PlanKind::Scan { table } => {
                self.catalog.table(table)?;
                Ok(Block {
                    from: table.clone(),
                    base: table.clone(),
                    where_: None,
                    group: None,
                    select: None,
                })
            }
            PlanKind::Join {
                left_key,
                right_key,
            } => {
                let left = &plan.children[0];
                let right = &plan.children[1];
                let left_base = base_table_of(left)?;
                let right_base = base_table_of(right)?;
                let left_col = self.column_name(&left_base, *left_key)?;
                // The left item renders before the right so template
                // placeholders stay in text order.
                let left_item = self.render_from(left)?;
                let right_item = self.render_from(right)?;
                let right_col = self.column_name(&right_base, *right_key)?;
                Ok(Block {
                    from: format!(
                        "{left_item} JOIN {right_item} ON {left_base}.{left_col} = \
                         {right_base}.{right_col}"
                    ),
                    base: left_base,
                    where_: None,
                    group: None,
                    select: None,
                })
            }
            PlanKind::Filter { predicate } => {
                if predicate.clauses.is_empty() {
                    return Err(WorkloadError::MalformedPlan(
                        "cannot render an empty (always-true) predicate as SQL".into(),
                    ));
                }
                let child = self.block(&plan.children[0])?;
                let mut b =
                    if child.where_.is_none() && child.group.is_none() && child.select.is_none() {
                        child
                    } else {
                        self.wrap(child)?
                    };
                b.where_ = Some(predicate);
                Ok(b)
            }
            PlanKind::Aggregate { group_by } => {
                if group_by.is_empty() {
                    return Err(WorkloadError::MalformedPlan(
                        "cannot render an aggregate with no grouping columns as SQL".into(),
                    ));
                }
                let child = self.block(&plan.children[0])?;
                let mut b = if child.group.is_none() && child.select.is_none() {
                    child
                } else {
                    self.wrap(child)?
                };
                b.group = Some(group_by);
                Ok(b)
            }
            PlanKind::Project { columns } => {
                if columns.is_empty() {
                    return Err(WorkloadError::MalformedPlan(
                        "cannot render a projection with no columns as SQL".into(),
                    ));
                }
                let child = self.block(&plan.children[0])?;
                let mut b = if child.select.is_none() {
                    child
                } else {
                    self.wrap(child)?
                };
                b.select = Some(columns);
                Ok(b)
            }
            PlanKind::Union => {
                // A union below another operator becomes a derived table.
                let sql = self.query(plan)?;
                Ok(Block {
                    from: format!("({sql})"),
                    base: base_table_of(plan)?,
                    where_: None,
                    group: None,
                    select: None,
                })
            }
        }
    }

    /// Re-renders a finished block as the derived table of a fresh one.
    fn wrap<'p>(&mut self, block: Block<'p>) -> Result<Block<'p>> {
        let base = block.base.clone();
        let sql = self.render_block(block)?;
        Ok(Block {
            from: format!("({sql})"),
            base,
            where_: None,
            group: None,
            select: None,
        })
    }

    /// A FROM-position item: a bare table name for scans, a parenthesized
    /// subquery for anything else.
    fn render_from(&mut self, plan: &LogicalPlan) -> Result<String> {
        match &plan.kind {
            PlanKind::Scan { table } => {
                plan.check_arity()?;
                self.catalog.table(table)?;
                Ok(table.clone())
            }
            _ => Ok(format!("({})", self.query(plan)?)),
        }
    }

    /// Final clause-order assembly. `WHERE` literals are emitted here, after
    /// the (already rendered) FROM text, preserving placeholder text order.
    fn render_block(&mut self, block: Block<'_>) -> Result<String> {
        let mut sql = String::from("SELECT ");
        match block.select {
            None => sql.push('*'),
            Some(columns) => {
                for (i, &c) in columns.iter().enumerate() {
                    if i > 0 {
                        sql.push_str(", ");
                    }
                    sql.push_str(&self.column_name(&block.base, c)?);
                }
            }
        }
        write!(sql, " FROM {}", block.from).expect("infallible");
        if let Some(predicate) = block.where_ {
            sql.push_str(" WHERE ");
            for (i, clause) in predicate.clauses.iter().enumerate() {
                if i > 0 {
                    sql.push_str(" AND ");
                }
                let name = self.column_name(&block.base, clause.column)?;
                write!(sql, "{name} {} ", clause.op.sql()).expect("infallible");
                match &mut self.params {
                    Some(params) => {
                        params.push(clause.value);
                        sql.push('?');
                    }
                    None => write!(sql, "{}", clause.value).expect("infallible"),
                }
            }
        }
        if let Some(group) = block.group {
            sql.push_str(" GROUP BY ");
            for (i, &c) in group.iter().enumerate() {
                if i > 0 {
                    sql.push_str(", ");
                }
                sql.push_str(&self.column_name(&block.base, c)?);
            }
        }
        Ok(sql)
    }

    fn column_name(&self, table: &str, ordinal: usize) -> Result<String> {
        Ok(self.catalog.table(table)?.column(ordinal)?.name.clone())
    }
}

fn base_table_of(plan: &LogicalPlan) -> Result<String> {
    plan.base_table()
        .map(str::to_string)
        .ok_or_else(|| WorkloadError::MalformedPlan("plan has no base table to render".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CmpOp, Comparison, LogicalPlan, Predicate};

    fn catalog() -> Catalog {
        Catalog::standard()
    }

    #[test]
    fn scan_renders_star() {
        assert_eq!(
            to_sql(&LogicalPlan::scan("events"), &catalog()).unwrap(),
            "SELECT * FROM events"
        );
    }

    #[test]
    fn filter_merges_into_scan_block() {
        let plan = LogicalPlan::scan("events").filter(Predicate::new(vec![
            Comparison::new(1, CmpOp::Ge, 3),
            Comparison::new(2, CmpOp::Ne, 100),
        ]));
        assert_eq!(
            to_sql(&plan, &catalog()).unwrap(),
            "SELECT * FROM events WHERE event_type >= 3 AND ts_hour != 100"
        );
    }

    #[test]
    fn stacked_filters_wrap() {
        let plan = LogicalPlan::scan("events")
            .filter(Predicate::single(1, CmpOp::Eq, 3))
            .filter(Predicate::single(2, CmpOp::Le, 10));
        assert_eq!(
            to_sql(&plan, &catalog()).unwrap(),
            "SELECT * FROM (SELECT * FROM events WHERE event_type = 3) WHERE ts_hour <= 10"
        );
    }

    #[test]
    fn join_filter_aggregate_project_share_one_block() {
        let plan = LogicalPlan::join(
            LogicalPlan::scan("events"),
            LogicalPlan::scan("users"),
            0,
            0,
        )
        .filter(Predicate::single(1, CmpOp::Eq, 7))
        .aggregate(vec![3])
        .project(vec![0, 3]);
        assert_eq!(
            to_sql(&plan, &catalog()).unwrap(),
            "SELECT user_id, region_id FROM events JOIN users ON events.user_id = users.user_id \
             WHERE event_type = 7 GROUP BY region_id"
        );
    }

    #[test]
    fn union_is_left_associative_and_right_parenthesized() {
        let a = LogicalPlan::scan("events");
        let b = LogicalPlan::scan("sessions");
        let c = LogicalPlan::scan("users");
        let left_assoc = LogicalPlan::union(LogicalPlan::union(a.clone(), b.clone()), c.clone());
        assert_eq!(
            to_sql(&left_assoc, &catalog()).unwrap(),
            "SELECT * FROM events UNION ALL SELECT * FROM sessions UNION ALL SELECT * FROM users"
        );
        let right_nested = LogicalPlan::union(a, LogicalPlan::union(b, c));
        assert_eq!(
            to_sql(&right_nested, &catalog()).unwrap(),
            "SELECT * FROM events UNION ALL (SELECT * FROM sessions UNION ALL SELECT * FROM users)"
        );
    }

    #[test]
    fn union_below_operator_becomes_derived_table() {
        let plan = LogicalPlan::union(LogicalPlan::scan("events"), LogicalPlan::scan("sessions"))
            .filter(Predicate::single(0, CmpOp::Gt, 5));
        assert_eq!(
            to_sql(&plan, &catalog()).unwrap(),
            "SELECT * FROM (SELECT * FROM events UNION ALL SELECT * FROM sessions) \
             WHERE user_id > 5"
        );
    }

    #[test]
    fn template_mode_abstracts_literals_in_text_order() {
        let plan = LogicalPlan::join(
            LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Ge, 11)),
            LogicalPlan::scan("users"),
            0,
            0,
        )
        .filter(Predicate::single(1, CmpOp::Le, 22));
        let (sql, params) = to_sql_template(&plan, &catalog()).unwrap();
        assert_eq!(
            sql,
            "SELECT * FROM (SELECT * FROM events WHERE ts_hour >= ?) JOIN users \
             ON events.user_id = users.user_id WHERE event_type <= ?"
        );
        assert_eq!(params, vec![11, 22]);
        // Instances of one template render to identical text.
        let other = plan.map_literals(&mut |v| v + 1000);
        let (sql2, params2) = to_sql_template(&other, &catalog()).unwrap();
        assert_eq!(sql, sql2);
        assert_eq!(params2, vec![1011, 1022]);
    }

    #[test]
    fn unrenderable_shapes_error() {
        let c = catalog();
        assert!(to_sql(&LogicalPlan::scan("missing"), &c).is_err());
        let empty_pred = LogicalPlan::scan("events").filter(Predicate::default());
        assert!(to_sql(&empty_pred, &c).is_err());
        let empty_proj = LogicalPlan::scan("events").project(vec![]);
        assert!(to_sql(&empty_proj, &c).is_err());
        let wide = LogicalPlan::scan("regions").project(vec![9]);
        assert!(to_sql(&wide, &c).is_err());
        let mut scan_with_child = LogicalPlan::scan("events");
        scan_with_child.children.push(LogicalPlan::scan("users"));
        let join = LogicalPlan::join(scan_with_child, LogicalPlan::scan("users"), 0, 0);
        assert!(to_sql(&join, &c).is_err());
    }

    #[test]
    fn negative_literals_render() {
        let plan = LogicalPlan::scan("events").filter(Predicate::single(0, CmpOp::Ne, -42));
        assert_eq!(
            to_sql(&plan, &catalog()).unwrap(),
            "SELECT * FROM events WHERE user_id != -42"
        );
    }
}
