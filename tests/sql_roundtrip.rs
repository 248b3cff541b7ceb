//! The SQL loop closed in both directions: the generator's workload
//! rendered to SQL templates, compiled back through parse → rewrite →
//! lower, must land on byte-identical signatures — and the downstream
//! autonomy stack (recurring-job detection, cloud-views replay) must not
//! be able to tell the two worlds apart.

use autonomous_data_services::reuse::{replay, ReplayConfig};
use autonomous_data_services::sql::parser::MAX_NESTING_DEPTH;
use autonomous_data_services::sql::{Frontend, QueryRule, RuleOutcome};
use autonomous_data_services::workload::analyze::WorkloadAnalysis;
use autonomous_data_services::workload::catalog::Catalog;
use autonomous_data_services::workload::gen::{
    GeneratedWorkload, GeneratorConfig, WorkloadGenerator,
};
use autonomous_data_services::workload::interchange::{export_plan, import_plan};
use autonomous_data_services::workload::job::Trace;
use autonomous_data_services::workload::signature::{strict_signature, template_signature};
use autonomous_data_services::workload::sqltext::{to_sql, to_sql_template};
use autonomous_data_services::workload::TemplateId;

fn workload() -> GeneratedWorkload {
    WorkloadGenerator::new(GeneratorConfig {
        days: 3,
        jobs_per_day: 120,
        n_templates: 16,
        ..Default::default()
    })
    .expect("valid config")
    .generate()
    .expect("generation succeeds")
}

#[test]
fn generator_sql_compiles_to_byte_identical_signatures() {
    let w = workload();
    let frontend = Frontend::new(&w.catalog);
    let sql_jobs = w.sql_jobs().expect("every generated plan renders");
    assert_eq!(sql_jobs.len(), w.trace.len());
    for (job, sql_job) in w.trace.jobs().iter().zip(&sql_jobs) {
        assert_eq!(job.id, sql_job.id);
        let compiled = frontend
            .compile(&sql_job.sql, &sql_job.params)
            .unwrap_or_else(|e| panic!("{} failed to compile: {}", job.id, e.render(&sql_job.sql)));
        // Node-for-node plan equality, hence byte-identical signatures.
        assert_eq!(compiled.plan, job.plan, "{} plan mismatch", job.id);
        assert_eq!(
            strict_signature(&compiled.plan),
            strict_signature(&job.plan)
        );
        assert_eq!(
            template_signature(&compiled.plan),
            template_signature(&job.plan)
        );
    }
}

#[test]
fn literal_sql_round_trip_is_also_exact() {
    let w = workload();
    let frontend = Frontend::new(&w.catalog);
    for job in w.trace.jobs().iter().take(100) {
        let sql = to_sql(&job.plan, &w.catalog).expect("renders");
        let compiled = frontend
            .compile(&sql, &[])
            .unwrap_or_else(|e| panic!("{}", e.render(&sql)));
        assert_eq!(compiled.plan, job.plan);
        // A canonical rendering needs no canonicalization: only analysis
        // rules may report Changed on it.
        assert_eq!(
            compiled.report.outcome(QueryRule::BetweenDesugar),
            Some(RuleOutcome::NotApplicable)
        );
        assert_eq!(
            compiled.report.outcome(QueryRule::ComparisonFlip),
            Some(RuleOutcome::NotApplicable)
        );
        assert_eq!(
            compiled.report.outcome(QueryRule::DerivedTableCollapse),
            Some(RuleOutcome::NotApplicable)
        );
    }
}

#[test]
fn template_text_groups_exactly_like_template_signatures() {
    let w = workload();
    use std::collections::BTreeMap;
    let mut by_text: BTreeMap<String, std::collections::BTreeSet<u64>> = BTreeMap::new();
    for job in w.trace.jobs() {
        if job.template == TemplateId(u64::MAX) {
            continue;
        }
        let (sql, _) = to_sql_template(&job.plan, &w.catalog).expect("renders");
        by_text
            .entry(sql)
            .or_default()
            .insert(template_signature(&job.plan).0);
    }
    // Jobs with the same template text always share one template
    // signature: textual templating is exactly as fine-grained as the
    // signature hash.
    for (text, signatures) in &by_text {
        assert_eq!(signatures.len(), 1, "template text groups split: {text}");
    }
}

#[test]
fn sql_born_trace_is_indistinguishable_downstream() {
    let w = workload();
    let frontend = Frontend::new(&w.catalog);
    let sql_jobs = w.sql_jobs().expect("renders");
    let rebuilt: Vec<_> = w
        .trace
        .jobs()
        .iter()
        .zip(&sql_jobs)
        .map(|(job, sql_job)| {
            let mut clone = job.clone();
            clone.plan = frontend
                .compile(&sql_job.sql, &sql_job.params)
                .expect("compiles")
                .plan;
            clone
        })
        .collect();
    let sql_trace = Trace::new(rebuilt);

    // Recurring-job detection sees the same workload.
    let baseline = WorkloadAnalysis::analyze(&w.trace);
    let from_sql = WorkloadAnalysis::analyze(&sql_trace);
    assert_eq!(baseline, from_sql);
    assert_eq!(baseline.stats(), from_sql.stats());

    // Cloud-views replay selects the same views and reports identical
    // savings.
    let baseline_report =
        replay(&w.trace, &w.catalog, &ReplayConfig::default()).expect("replay runs");
    let sql_report = replay(&sql_trace, &w.catalog, &ReplayConfig::default()).expect("replay runs");
    assert_eq!(baseline_report, sql_report);
}

/// The parser's nesting limit sits far above anything the generator's
/// plans render to, at both recurring fractions the benchmarks use. A
/// query's levels are bounded by its deepest parenthesis plus its
/// `UNION ALL` terms, which count against the same limit.
#[test]
fn generator_sql_nests_well_below_the_parser_limit() {
    let mut deepest = 0usize;
    for recurring_fraction in [0.9, 0.1] {
        let w = WorkloadGenerator::new(GeneratorConfig {
            days: 2,
            jobs_per_day: 200,
            recurring_fraction,
            ..Default::default()
        })
        .expect("valid config")
        .generate()
        .expect("generation succeeds");
        for job in w.sql_jobs().expect("every generated plan renders") {
            let (mut depth, mut parens) = (0usize, 0usize);
            for c in job.sql.chars() {
                match c {
                    '(' => {
                        depth += 1;
                        parens = parens.max(depth);
                    }
                    ')' => depth -= 1,
                    _ => {}
                }
            }
            deepest = deepest.max(parens + job.sql.matches("UNION ALL").count());
        }
    }
    assert!(deepest > 0, "generator plans render nested queries");
    assert!(
        4 * deepest <= MAX_NESTING_DEPTH,
        "generator SQL nests {deepest} deep against a limit of {MAX_NESTING_DEPTH}"
    );
}

/// The deepest queries the parser accepts — the longest `UNION ALL` chain
/// and the deepest stack of filtering derived tables — lower to plans whose
/// interchange JSON nests 132–133 levels deep, past upstream `serde_json`'s
/// 128-level limit; `import_plan` must still read them back exactly.
#[test]
fn deepest_accepted_plans_round_trip_through_interchange() {
    let catalog = Catalog::standard();
    let frontend = Frontend::new(&catalog);
    let union_chain = |terms: usize| vec!["SELECT * FROM events"; terms].join(" UNION ALL ");
    let derived = |levels: usize| {
        (0..levels).fold("SELECT * FROM events".to_string(), |inner, i| {
            format!("SELECT * FROM ({inner}) WHERE event_type != {i}")
        })
    };
    for (longest, too_long) in [
        (
            union_chain(MAX_NESTING_DEPTH + 1),
            union_chain(MAX_NESTING_DEPTH + 2),
        ),
        (derived(MAX_NESTING_DEPTH), derived(MAX_NESTING_DEPTH + 1)),
    ] {
        assert!(
            frontend.compile(&too_long, &[]).is_err(),
            "one level past the deepest"
        );
        let plan = frontend
            .compile(&longest, &[])
            .unwrap_or_else(|e| panic!("{}", e.render(&longest)))
            .plan;
        let json = export_plan("adas-sql", &plan).expect("exports");
        assert_eq!(import_plan(&json).expect("imports"), plan);
    }
}
