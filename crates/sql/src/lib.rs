//! SQL subset front-end for the autonomous-data-services workspace.
//!
//! The paper's autonomy loop (Peregrine workload analysis, recurring-job
//! detection, CloudViews computation reuse) operates on real customer
//! queries; this crate gives the workspace a textual query surface so those
//! components can run on parsed SQL rather than only on hand-built
//! [`LogicalPlan`](adas_workload::plan::LogicalPlan) structures.
//!
//! The pipeline is `parse → analyze → canonicalize → optimize → lower`:
//!
//! * [`parser`] — a hand-written lexer and recursive-descent parser for the
//!   subset grammar (SELECT / FROM with one equi-join per block / WHERE
//!   conjunctions / GROUP BY / ORDER BY / LIMIT / `UNION ALL` /
//!   `?`-template parameters), producing a typed AST ([`ast`]) with
//!   byte-offset spans.
//! * [`pipeline`] — a phased rewrite registry of [`QueryRule`]s with
//!   [`matches_context`](QueryRule::matches_context) gating and
//!   `NotApplicable / NoChange / Changed` outcomes; the lower phase emits a
//!   `LogicalPlan`, so the existing engine optimizer, signature hashing,
//!   recurring-job detection and cloud-views run unchanged on SQL-born
//!   plans.
//! * [`diag`] — every error carries a source span and renders as a
//!   caret-underlined snippet.
//!
//! The front-end is the exact inverse of
//! [`adas_workload::sqltext`]: compiling
//! `sqltext::to_sql(plan)` reproduces `plan` node for node, so strict and
//! template signatures survive the SQL round trip byte-identically.
//!
//! # Example
//!
//! ```
//! use adas_sql::Frontend;
//! use adas_workload::catalog::Catalog;
//! use adas_workload::signature::strict_signature;
//! use adas_workload::sqltext::to_sql;
//!
//! let catalog = Catalog::standard();
//! let frontend = Frontend::new(&catalog);
//! let compiled = frontend
//!     .compile(
//!         "SELECT user_id FROM events WHERE event_type BETWEEN 3 AND ? GROUP BY user_id",
//!         &[9],
//!     )
//!     .unwrap();
//! // The plan round-trips through canonical SQL text.
//! let rendered = to_sql(&compiled.plan, &catalog).unwrap();
//! let again = frontend.compile(&rendered, &[]).unwrap();
//! assert_eq!(
//!     strict_signature(&compiled.plan),
//!     strict_signature(&again.plan)
//! );
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod pipeline;

pub use diag::{ErrorKind, Result, SqlError};
pub use parser::parse;
pub use pipeline::{
    lower, rules_for_phase, AnalysisContext, CachedFrontend, CompileReport, Compiled, Frontend,
    PhaseOrders, QueryRule, RewritePhase, RuleApplication, RuleOutcome, ANALYZE_RULES,
    CANONICALIZE_RULES, COMPONENT, LOWER_RULES, OPTIMIZE_RULES,
};

#[cfg(test)]
mod tests {
    use super::*;
    use adas_obs::Obs;
    use adas_workload::catalog::Catalog;
    use adas_workload::plan::{CmpOp, Comparison, LogicalPlan, Predicate};
    use adas_workload::signature::strict_signature;

    fn frontend_catalog() -> Catalog {
        Catalog::standard()
    }

    #[test]
    fn compiles_to_the_expected_plan() {
        let catalog = frontend_catalog();
        let compiled = Frontend::new(&catalog)
            .compile(
                "SELECT user_id, region_id FROM events JOIN users \
                 ON events.user_id = users.user_id \
                 WHERE event_type = 7 AND ts_hour != 100 GROUP BY region_id",
                &[],
            )
            .unwrap();
        let expected = LogicalPlan::join(
            LogicalPlan::scan("events"),
            LogicalPlan::scan("users"),
            0,
            0,
        )
        .filter(Predicate::new(vec![
            Comparison::new(1, CmpOp::Eq, 7),
            Comparison::new(2, CmpOp::Ne, 100),
        ]))
        .aggregate(vec![3])
        .project(vec![0, 3]);
        assert_eq!(compiled.plan, expected);
    }

    #[test]
    fn canonicalize_normalizes_between_flip_and_ne_spellings() {
        let catalog = frontend_catalog();
        let frontend = Frontend::new(&catalog);
        let a = frontend
            .compile(
                "SELECT * FROM events WHERE ts_hour BETWEEN 5 AND 10 AND event_type <> 3",
                &[],
            )
            .unwrap();
        let b = frontend
            .compile(
                "SELECT * FROM events WHERE 5 <= ts_hour AND 10 >= ts_hour AND event_type != 3",
                &[],
            )
            .unwrap();
        assert_eq!(strict_signature(&a.plan), strict_signature(&b.plan));
        assert_eq!(
            a.report.outcome(QueryRule::BetweenDesugar),
            Some(RuleOutcome::Changed)
        );
        assert_eq!(
            a.report.outcome(QueryRule::ComparisonFlip),
            Some(RuleOutcome::NotApplicable)
        );
        assert_eq!(
            b.report.outcome(QueryRule::ComparisonFlip),
            Some(RuleOutcome::Changed)
        );
    }

    #[test]
    fn params_bind_in_lexical_order() {
        let catalog = frontend_catalog();
        let compiled = Frontend::new(&catalog)
            .compile(
                "SELECT * FROM events WHERE user_id >= ? AND user_id <= ? AND event_type = ?",
                &[10, 20, 3],
            )
            .unwrap();
        let expected = LogicalPlan::scan("events").filter(Predicate::new(vec![
            Comparison::new(0, CmpOp::Ge, 10),
            Comparison::new(0, CmpOp::Le, 20),
            Comparison::new(1, CmpOp::Eq, 3),
        ]));
        assert_eq!(compiled.plan, expected);
        assert_eq!(
            compiled.report.outcome(QueryRule::ParamBind),
            Some(RuleOutcome::Changed)
        );
    }

    #[test]
    fn param_arity_is_checked_both_ways() {
        let catalog = frontend_catalog();
        let frontend = Frontend::new(&catalog);
        let err = frontend
            .compile("SELECT * FROM events WHERE user_id = ?", &[])
            .unwrap_err();
        assert!(matches!(
            err.kind,
            ErrorKind::ParamArity {
                placeholders: 1,
                bound: 0
            }
        ));
        let err = frontend
            .compile("SELECT * FROM events WHERE user_id = 1", &[5])
            .unwrap_err();
        assert!(matches!(
            err.kind,
            ErrorKind::ParamArity {
                placeholders: 0,
                bound: 1
            }
        ));
    }

    #[test]
    fn derived_table_collapse_is_plan_preserving() {
        let catalog = frontend_catalog();
        let frontend = Frontend::new(&catalog);
        let collapsed = frontend
            .compile(
                "SELECT * FROM ((SELECT * FROM events)) WHERE user_id = 1",
                &[],
            )
            .unwrap();
        let direct = frontend
            .compile("SELECT * FROM events WHERE user_id = 1", &[])
            .unwrap();
        assert_eq!(collapsed.plan, direct.plan);
        assert_eq!(
            collapsed.report.outcome(QueryRule::DerivedTableCollapse),
            Some(RuleOutcome::Changed)
        );
    }

    #[test]
    fn order_by_and_limit_are_elided() {
        let catalog = frontend_catalog();
        let compiled = Frontend::new(&catalog)
            .compile(
                "SELECT * FROM events WHERE user_id = 1 ORDER BY ts_hour DESC, user_id LIMIT 50",
                &[],
            )
            .unwrap();
        assert_eq!(
            compiled.plan,
            LogicalPlan::scan("events").filter(Predicate::single(0, CmpOp::Eq, 1))
        );
        assert_eq!(
            compiled.report.outcome(QueryRule::OrderLimitElision),
            Some(RuleOutcome::Changed)
        );
    }

    #[test]
    fn rewrite_is_idempotent_on_its_own_output() {
        let catalog = frontend_catalog();
        let frontend = Frontend::new(&catalog);
        let compiled = frontend
            .compile(
                "SELECT user_id FROM events WHERE ts_hour BETWEEN ? AND ? AND 3 = event_type \
                 ORDER BY user_id LIMIT 5",
                &[1, 2],
            )
            .unwrap();
        assert!(compiled.report.any_rewrite_changed());
        let mut again = compiled.query.clone();
        let report = frontend.rewrite(&mut again, &[]).unwrap();
        assert!(!report.any_rewrite_changed(), "re-run changed: {report:?}");
        assert_eq!(again, compiled.query);
    }

    #[test]
    fn phases_emit_spans_with_nonzero_extent() {
        let catalog = frontend_catalog();
        let obs = Obs::recording();
        Frontend::new(&catalog)
            .compile_observed(
                "SELECT * FROM events WHERE user_id BETWEEN 1 AND 2 ORDER BY ts_hour LIMIT 3",
                &[],
                &obs,
                100.0,
            )
            .unwrap();
        let trace = obs.snapshot();
        let mut seen = std::collections::BTreeMap::new();
        for span in &trace.spans {
            assert_eq!(span.component, COMPONENT);
            let extent = span.end - span.start;
            assert!(extent > 0.0, "zero-extent span {}", span.name);
            seen.insert(span.name.clone(), extent);
        }
        for name in [
            "compile",
            "parse",
            "analyze",
            "canonicalize",
            "optimize",
            "lower",
        ] {
            assert!(seen.contains_key(name), "missing span {name}");
        }
        // Executed rules lengthen their phase: analyze ran 2 of 3 rules
        // (param_bind gated out) → extent 3; canonicalize ran 1 (desugar).
        assert_eq!(seen["analyze"], 3.0);
        assert_eq!(seen["canonicalize"], 2.0);
    }

    #[test]
    fn rule_outcome_counters_are_exported() {
        let catalog = frontend_catalog();
        let obs = Obs::recording();
        Frontend::new(&catalog)
            .compile_observed("SELECT * FROM events WHERE 1 < user_id", &[], &obs, 0.0)
            .unwrap();
        let trace = obs.snapshot();
        let counter = |rule: &str, phase: &str, outcome: &str| {
            trace.metrics.counter(
                COMPONENT,
                "rule_outcome",
                &[("phase", phase), ("rule", rule), ("outcome", outcome)],
            )
        };
        assert_eq!(counter("comparison_flip", "canonicalize", "changed"), 1);
        assert_eq!(counter("relation_discovery", "analyze", "no_change"), 1);
        assert_eq!(counter("param_bind", "analyze", "not_applicable"), 1);
        assert_eq!(counter("column_resolution", "analyze", "changed"), 1);
        assert_eq!(counter("plan_emit", "lower", "changed"), 1);
        assert_eq!(trace.metrics.counter(COMPONENT, "queries_compiled", &[]), 1);
    }

    #[test]
    fn rule_order_permutations_are_validated() {
        let catalog = frontend_catalog();
        let frontend = Frontend::new(&catalog);
        let mut orders = PhaseOrders::canonical();
        orders.analyze.pop();
        let err = frontend
            .compile_with_order("SELECT * FROM events", &[], &orders)
            .unwrap_err();
        assert!(matches!(
            err.kind,
            ErrorKind::InvalidRuleOrder { phase: "analyze" }
        ));
        let mut reversed = PhaseOrders::canonical();
        reversed.analyze.reverse();
        reversed.canonicalize.reverse();
        reversed.optimize.reverse();
        let a = frontend
            .compile_with_order(
                "SELECT * FROM events WHERE 1 < user_id AND ts_hour BETWEEN 2 AND 3",
                &[],
                &reversed,
            )
            .unwrap();
        let b = frontend
            .compile(
                "SELECT * FROM events WHERE 1 < user_id AND ts_hour BETWEEN 2 AND 3",
                &[],
            )
            .unwrap();
        assert_eq!(a.plan, b.plan);
    }

    // ------------------------------------------------------------------
    // Pinned diagnostics: the exact rendered text for five representative
    // bad queries. Treat these strings as a stable output contract.
    // ------------------------------------------------------------------

    #[test]
    fn cached_compile_matches_fresh_compile() {
        let catalog = frontend_catalog();
        let frontend = Frontend::new(&catalog);
        let cached = CachedFrontend::new(frontend.clone());
        let sql = "SELECT * FROM events WHERE user_id BETWEEN ? AND ? AND event_type = ?";
        for params in [[10, 20, 3], [1, 9, 7], [100, 200, 42]] {
            let fresh = frontend.compile(sql, &params).unwrap();
            let hit = cached.compile(sql, &params).unwrap();
            assert_eq!(hit.plan, fresh.plan);
            assert_eq!(strict_signature(&hit.plan), strict_signature(&fresh.plan));
            let patched = cached.compile_plan(sql, &params).unwrap();
            assert_eq!(patched, fresh.plan);
        }
        assert_eq!(cached.stats(), (5, 1));
    }

    #[test]
    fn cached_plan_patching_handles_nested_shapes() {
        let catalog = frontend_catalog();
        let frontend = Frontend::new(&catalog);
        let cached = CachedFrontend::new(frontend.clone());
        let sql = "SELECT user_id FROM \
                   (SELECT * FROM events WHERE ts_hour < ? AND event_type = ?) \
                   JOIN users ON user_id = user_id WHERE user_id > ? GROUP BY user_id \
                   UNION ALL SELECT * FROM sessions WHERE duration_s BETWEEN ? AND ?";
        for params in [[5, 2, 100, 60, 600], [9, 4, 7, 1, 2]] {
            let fresh = frontend.compile(sql, &params).unwrap();
            assert_eq!(cached.compile_plan(sql, &params).unwrap(), fresh.plan);
        }
    }

    #[test]
    fn cached_hit_checks_param_arity() {
        let catalog = frontend_catalog();
        let cached = CachedFrontend::new(Frontend::new(&catalog));
        let sql = "SELECT * FROM events WHERE user_id = ? AND ts_hour < ?";
        cached.compile(sql, &[4, 5]).unwrap();
        let err = cached.compile(sql, &[4]).unwrap_err();
        assert!(matches!(
            err.kind,
            ErrorKind::ParamArity {
                placeholders: 2,
                bound: 1
            }
        ));
        assert!(err.span.start < err.span.end, "arity error keeps a span");
    }

    fn render_err(sql: &str) -> String {
        let catalog = frontend_catalog();
        Frontend::new(&catalog)
            .compile(sql, &[])
            .unwrap_err()
            .render(sql)
    }

    #[test]
    fn diagnostic_unknown_table() {
        let expected = [
            "error: unknown table `evnts`",
            "  |",
            "1 | SELECT * FROM evnts",
            "  |               ^^^^^",
        ]
        .join("\n");
        assert_eq!(render_err("SELECT * FROM evnts"), expected);
    }

    #[test]
    fn diagnostic_unknown_column() {
        let expected = [
            "error: unknown column `usr_id` in table `events`",
            "  |",
            "1 | SELECT * FROM events WHERE usr_id = 3",
            "  |                            ^^^^^^",
        ]
        .join("\n");
        assert_eq!(
            render_err("SELECT * FROM events WHERE usr_id = 3"),
            expected
        );
    }

    #[test]
    fn diagnostic_syntax_error() {
        let expected = [
            "error: expected a value (number or `?`), found `=`",
            "  |",
            "1 | SELECT * FROM events WHERE user_id = = 3",
            "  |                                      ^",
        ]
        .join("\n");
        assert_eq!(
            render_err("SELECT * FROM events WHERE user_id = = 3"),
            expected
        );
    }

    #[test]
    fn diagnostic_unexpected_eof() {
        let expected = [
            "error: expected `)`, found end of input",
            "  |",
            "1 | SELECT * FROM (SELECT * FROM events",
            "  |                                    ^",
        ]
        .join("\n");
        assert_eq!(render_err("SELECT * FROM (SELECT * FROM events"), expected);
    }

    #[test]
    fn diagnostic_nesting_too_deep() {
        let depth = parser::MAX_NESTING_DEPTH + 1;
        let sql = format!(
            "{}SELECT * FROM events{}",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        let expected = [
            "error: queries nest more than 64 levels deep".to_string(),
            "  |".to_string(),
            format!("1 | {sql}"),
            format!("  | {}^", " ".repeat(depth - 1)),
        ]
        .join("\n");
        assert_eq!(render_err(&sql), expected);
    }

    #[test]
    fn diagnostic_qualifier_mismatch() {
        let expected = [
            "error: qualifier `users` does not match the base table `events` resolving this \
             position",
            "  |",
            "1 | SELECT * FROM events WHERE users.user_id = 3",
            "  |                            ^^^^^",
        ]
        .join("\n");
        assert_eq!(
            render_err("SELECT * FROM events WHERE users.user_id = 3"),
            expected
        );
    }
}
