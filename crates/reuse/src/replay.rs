//! End-to-end CloudViews replay (experiment C6 / ablation A4).
//!
//! Splits a trace into a training window (view selection) and an evaluation
//! window, then replays the evaluation jobs on the cluster simulator twice —
//! without views and with view-rewritten plans — accumulating job latency
//! and total processing time. Materialization costs (one build run per
//! view) are charged against the reuse side.

use crate::rewrite::{rewrite_plan, MatchPolicy};
use crate::views::{SelectionConfig, ViewCatalog};
use adas_engine::cost::CostModel;
use adas_engine::exec::{ClusterConfig, SimOptions, Simulator};
use adas_engine::physical::StageDag;
use adas_engine::Result;
use adas_obs::Obs;
use adas_workload::catalog::Catalog;
use adas_workload::job::Trace;
use serde::Serialize;

/// Replay parameters.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Fraction of the trace (by job order) used to select views.
    pub train_fraction: f64,
    /// View selection parameters.
    pub selection: SelectionConfig,
    /// Matching policy for the reuse side.
    pub policy: MatchPolicy,
    /// Cluster used for both replays.
    pub cluster: ClusterConfig,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            train_fraction: 0.5,
            selection: SelectionConfig::default(),
            policy: MatchPolicy::full(),
            cluster: ClusterConfig::default(),
        }
    }
}

/// Replay results (the paper's two headline numbers plus diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CloudViewsReport {
    /// Views selected.
    pub views_selected: usize,
    /// Evaluation jobs replayed.
    pub jobs_evaluated: usize,
    /// Jobs with at least one view hit.
    pub jobs_with_hits: usize,
    /// Total view hits (subtree replacements).
    pub total_hits: usize,
    /// Hits that used predicate containment.
    pub containment_hits: usize,
    /// Cumulative job latency without reuse, seconds.
    pub baseline_latency: f64,
    /// Cumulative job latency with reuse (incl. view builds), seconds.
    pub reuse_latency: f64,
    /// Relative cumulative-latency improvement (paper: 0.34).
    pub latency_improvement: f64,
    /// Total processing (CPU) time without reuse, seconds.
    pub baseline_cpu: f64,
    /// Total processing time with reuse (incl. view builds), seconds.
    pub reuse_cpu: f64,
    /// Relative processing-time reduction (paper: 0.37).
    pub cpu_reduction: f64,
    /// Mean relative latency improvement over jobs with a view hit
    /// (unweighted per-job average).
    ///
    /// The cumulative numbers above are dominated by the workload's heavy
    /// tail: a few join-blowup jobs carry almost all the "true" work, and
    /// their expensive subtrees recur only modulo predicate literals, so
    /// views cannot cover them (and for blowup joins a view scan costs more
    /// per row than the join's own output rows, so selection correctly
    /// rejects them). The per-job averages are robust to that tail and
    /// reflect what reuse delivers to the typical matching job.
    pub mean_hit_latency_improvement: f64,
    /// Mean relative processing-time reduction over jobs with a view hit
    /// (unweighted per-job average; see `mean_hit_latency_improvement`).
    pub mean_hit_cpu_reduction: f64,
}

/// Runs the replay.
pub fn replay(trace: &Trace, catalog: &Catalog, config: &ReplayConfig) -> Result<CloudViewsReport> {
    let jobs = trace.jobs();
    let cut = ((jobs.len() as f64) * config.train_fraction) as usize;
    let (train, eval) = jobs.split_at(cut.min(jobs.len()));

    let train_plans: Vec<_> = train.iter().map(|j| j.plan.clone()).collect();
    let views = ViewCatalog::select(&train_plans, catalog, &config.selection);
    let extended = views.extend_catalog(catalog);

    let sim = Simulator::with_obs(config.cluster, Obs::disabled())?;
    let cost_model = CostModel::default();

    // Charge each view's one-time materialization: simulate its build.
    let mut reuse_latency = 0.0;
    let mut reuse_cpu = 0.0;
    for view in views.views() {
        let dag = StageDag::compile(&view.plan, catalog, &cost_model)?;
        let report = sim.run(&dag, &SimOptions::default())?;
        reuse_latency += report.latency;
        reuse_cpu += report.total_cpu_seconds;
    }

    let mut baseline_latency = 0.0;
    let mut baseline_cpu = 0.0;
    let mut jobs_with_hits = 0usize;
    let mut total_hits = 0usize;
    let mut containment_hits = 0usize;
    let mut hit_latency_improvements: Vec<f64> = Vec::new();
    let mut hit_cpu_reductions: Vec<f64> = Vec::new();
    for job in eval {
        let base_dag = StageDag::compile(&job.plan, catalog, &cost_model)?;
        let base = sim.run(&base_dag, &SimOptions::default())?;
        baseline_latency += base.latency;
        baseline_cpu += base.total_cpu_seconds;

        let outcome = rewrite_plan(&job.plan, &views, config.policy);
        if outcome.hits > 0 {
            jobs_with_hits += 1;
            total_hits += outcome.hits;
            containment_hits += outcome.containment_hits;
            let dag = StageDag::compile(&outcome.plan, &extended, &cost_model)?;
            let run = sim.run(&dag, &SimOptions::default())?;
            reuse_latency += run.latency;
            reuse_cpu += run.total_cpu_seconds;
            if base.latency > 0.0 {
                hit_latency_improvements.push((base.latency - run.latency) / base.latency);
            }
            if base.total_cpu_seconds > 0.0 {
                hit_cpu_reductions.push(
                    (base.total_cpu_seconds - run.total_cpu_seconds) / base.total_cpu_seconds,
                );
            }
        } else {
            reuse_latency += base.latency;
            reuse_cpu += base.total_cpu_seconds;
        }
    }

    let rel = |from: f64, to: f64| if from > 0.0 { (from - to) / from } else { 0.0 };
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    Ok(CloudViewsReport {
        views_selected: views.len(),
        jobs_evaluated: eval.len(),
        jobs_with_hits,
        total_hits,
        containment_hits,
        baseline_latency,
        reuse_latency,
        latency_improvement: rel(baseline_latency, reuse_latency),
        baseline_cpu,
        reuse_cpu,
        cpu_reduction: rel(baseline_cpu, reuse_cpu),
        mean_hit_latency_improvement: mean(&hit_latency_improvements),
        mean_hit_cpu_reduction: mean(&hit_cpu_reductions),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_workload::gen::{GeneratorConfig, WorkloadGenerator};

    #[test]
    fn reuse_improves_latency_and_cpu() {
        let w = WorkloadGenerator::new(GeneratorConfig {
            days: 4,
            jobs_per_day: 60,
            n_templates: 12,
            shared_template_fraction: 0.7,
            ..Default::default()
        })
        .unwrap()
        .generate()
        .unwrap();
        let report = replay(&w.trace, &w.catalog, &ReplayConfig::default()).unwrap();
        assert!(report.views_selected > 0, "{report:?}");
        assert!(report.jobs_with_hits > 0, "{report:?}");
        assert!(report.latency_improvement > 0.0, "{report:?}");
        assert!(report.cpu_reduction > 0.0, "{report:?}");
        assert!(report.mean_hit_latency_improvement > 0.0, "{report:?}");
        assert!(report.mean_hit_cpu_reduction > 0.0, "{report:?}");
    }

    #[test]
    fn full_policy_at_least_matches_syntactic() {
        let w = WorkloadGenerator::new(GeneratorConfig {
            days: 4,
            jobs_per_day: 60,
            n_templates: 12,
            shared_template_fraction: 0.7,
            ..Default::default()
        })
        .unwrap()
        .generate()
        .unwrap();
        let syn = replay(
            &w.trace,
            &w.catalog,
            &ReplayConfig {
                policy: MatchPolicy::syntactic_only(),
                ..Default::default()
            },
        )
        .unwrap();
        let full = replay(&w.trace, &w.catalog, &ReplayConfig::default()).unwrap();
        assert!(full.total_hits >= syn.total_hits);
    }

    #[test]
    fn empty_eval_window_is_safe() {
        let w = WorkloadGenerator::new(GeneratorConfig {
            days: 1,
            jobs_per_day: 10,
            ..Default::default()
        })
        .unwrap()
        .generate()
        .unwrap();
        let report = replay(
            &w.trace,
            &w.catalog,
            &ReplayConfig {
                train_fraction: 1.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.jobs_evaluated, 0);
        assert_eq!(report.latency_improvement, 0.0);
    }
}
