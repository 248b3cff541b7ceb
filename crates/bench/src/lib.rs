//! Experiment harness for the paper reproduction.
//!
//! Every figure and quantitative claim in the paper's Sections 4-5 has a
//! module under [`experiments`] that regenerates it against the simulated
//! substrates and returns [`Row`]s comparing the paper's reported value with
//! the measured one. The `experiments` binary
//! (`cargo run -p adas-bench --bin experiments --release`) runs them and
//! prints the tables recorded in `EXPERIMENTS.md`.
//!
//! [`harness`] is the one timing loop behind the budget-gate bins
//! (`obs_bench`, `faultsim_bench`, `des_bench`, `serve_bench`, `sql_bench`
//! and `watchtower_bench`, each writing `BENCH_<name>.json` at the repo
//! root) and the micro-benchmarks of the performance-sensitive primitives in
//! `benches/microbench.rs` (`cargo bench -p adas-bench`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod harness;

use adas_engine::cost::CostModel;
use adas_engine::physical::StageDag;
use adas_workload::gen::{GeneratorConfig, WorkloadGenerator};
use serde::Serialize;

/// The 120-job replay `obs_bench` and `faultsim_bench` time: a generated
/// two-day workload of 60 jobs a day, compiled to stage DAGs.
pub fn replay_dags() -> Vec<StageDag> {
    let workload = WorkloadGenerator::new(GeneratorConfig {
        days: 2,
        jobs_per_day: 60,
        ..Default::default()
    })
    .expect("valid config")
    .generate()
    .expect("generates");
    let cost_model = CostModel::default();
    workload
        .trace
        .jobs()
        .iter()
        .map(|j| StageDag::compile(&j.plan, &workload.catalog, &cost_model).expect("compiles"))
        .collect()
}

/// One paper-vs-measured comparison row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Experiment id (`F1`, `C5`, `A2`, …).
    pub experiment: &'static str,
    /// Metric name.
    pub metric: String,
    /// The paper's reported value, when it reports one.
    pub paper: Option<f64>,
    /// Value measured in this reproduction.
    pub measured: f64,
    /// Unit/shape note (`fraction`, `seconds`, `q-error`, …).
    pub unit: &'static str,
}

impl Row {
    /// Creates a row with a paper reference value.
    pub fn with_paper(
        experiment: &'static str,
        metric: impl Into<String>,
        paper: f64,
        measured: f64,
        unit: &'static str,
    ) -> Self {
        Self {
            experiment,
            metric: metric.into(),
            paper: Some(paper),
            measured,
            unit,
        }
    }

    /// Creates a row the paper has no direct number for (shape-only).
    pub fn measured_only(
        experiment: &'static str,
        metric: impl Into<String>,
        measured: f64,
        unit: &'static str,
    ) -> Self {
        Self {
            experiment,
            metric: metric.into(),
            paper: None,
            measured,
            unit,
        }
    }
}

/// Renders rows as an aligned text table.
pub fn render_table(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<6} {:<52} {:>12} {:>12}  {}\n",
        "id", "metric", "paper", "measured", "unit"
    ));
    out.push_str(&"-".repeat(96));
    out.push('\n');
    for row in rows {
        let paper = row.paper.map_or("-".to_string(), |p| format!("{p:.4}"));
        out.push_str(&format!(
            "{:<6} {:<52} {:>12} {:>12.4}  {}\n",
            row.experiment, row.metric, paper, row.measured, row.unit
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_both_row_kinds() {
        let rows = vec![
            Row::with_paper("C6", "latency improvement", 0.34, 0.31, "fraction"),
            Row::measured_only("F1", "gen3 cpu-vs-containers R2", 0.98, "r2"),
        ];
        let table = render_table(&rows);
        assert!(table.contains("C6"));
        assert!(table.contains("0.3400"));
        assert!(table.contains('-'));
        assert!(table.lines().count() >= 4);
    }
}
