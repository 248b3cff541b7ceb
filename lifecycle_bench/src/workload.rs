//! The three benchmark workloads and the generated inputs they replay.
//!
//! A run's input is `TENANTS` independent traces, each drawn from
//! `WorkloadGenerator` with 64 templates over `DAYS` days under a seed
//! derived from `--seed`. One 64-template trace makes throughput and
//! latency depend on which templates the seed happened to draw; several
//! tenants average that out, so runs on different seeds agree. The first
//! `HISTORY_DAYS` days of each tenant train its cardinality micromodels and
//! are replayed once as warm-up during set-up; the remaining days are the
//! timed jobs. `recurring` and `drift` share their traces per seed, so
//! their per-layer differences isolate what `drift` turns on (recorder,
//! execution faults, model faults, SLO windows).

use adas_workload::gen::{GeneratedWorkload, GeneratorConfig, SqlJob, WorkloadGenerator};
use adas_workload::plan::LogicalPlan;

/// Independent tenant traces per run.
pub const TENANTS: u64 = 8;
/// Simulated days in one tenant's trace.
pub const DAYS: usize = 5;
/// Jobs submitted per simulated day.
pub const JOBS_PER_DAY: usize = 1000;
/// Leading days used for training and the warm-up replay.
pub const HISTORY_DAYS: u64 = 2;
/// Recurring templates in each tenant's generator.
pub const TEMPLATES: usize = 64;

const SECONDS_PER_DAY: u64 = 86_400;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 90% recurring jobs, no faults, recorder off: the paper's steady state.
    Recurring,
    /// 10% recurring jobs, no faults, recorder off: cold compiles and a
    /// catalog of thousands of job-private tables.
    Adhoc,
    /// The `recurring` traces run the production way: shared recorder,
    /// execution faults, model faults and SLO-driven health signals.
    Drift,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Recurring, Workload::Adhoc, Workload::Drift];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Recurring => "recurring",
            Workload::Adhoc => "adhoc",
            Workload::Drift => "drift",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn recurring_fraction(self) -> f64 {
        match self {
            Workload::Adhoc => 0.1,
            Workload::Recurring | Workload::Drift => 0.9,
        }
    }

    /// Whether the program's flight recorder is on.
    pub fn recorder(self) -> bool {
        self == Workload::Drift
    }

    /// Whether execution and model faults are injected.
    pub fn faults(self) -> bool {
        self == Workload::Drift
    }
}

/// One tenant's generated inputs: the program receives only these.
pub struct Tenant {
    /// The tenant's seed, derived from the run's `--seed`.
    pub seed: u64,
    /// Catalog and job trace.
    pub generated: GeneratedWorkload,
    /// Every job rendered as SQL text plus bindings, in trace order.
    pub sql: Vec<SqlJob>,
    /// Jobs `[0, history)` are the training and warm-up days.
    pub history: usize,
    /// Plans of the history jobs, the micromodels' training set.
    pub history_plans: Vec<LogicalPlan>,
}

impl Tenant {
    fn generate(workload: Workload, seed: u64) -> Result<Self, String> {
        let generated = WorkloadGenerator::new(GeneratorConfig {
            days: DAYS,
            jobs_per_day: JOBS_PER_DAY,
            recurring_fraction: workload.recurring_fraction(),
            n_templates: TEMPLATES,
            seed,
            ..GeneratorConfig::default()
        })
        .and_then(|g| g.generate())
        .map_err(|e| format!("workload generation failed: {e}"))?;
        let sql = generated
            .sql_jobs()
            .map_err(|e| format!("rendering jobs as SQL failed: {e}"))?;
        let jobs = generated.trace.jobs();
        let history = jobs
            .iter()
            .take_while(|j| j.submit_time < HISTORY_DAYS * SECONDS_PER_DAY)
            .count();
        if history == 0 || history == jobs.len() {
            return Err(format!(
                "trace of {} jobs has no history/timed split",
                jobs.len()
            ));
        }
        let history_plans = jobs[..history].iter().map(|j| j.plan.clone()).collect();
        Ok(Self {
            seed,
            generated,
            sql,
            history,
            history_plans,
        })
    }

    /// Number of timed jobs.
    pub fn timed(&self) -> usize {
        self.sql.len() - self.history
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    pub tenants: Vec<Tenant>,
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Result<Self, String> {
        let tenants = (0..TENANTS)
            .map(|k| Tenant::generate(workload, adas_faultsim::seed::derive(seed, k)))
            .collect::<Result<_, _>>()?;
        Ok(Self { tenants })
    }

    /// Timed jobs per pass, over all tenants.
    pub fn timed(&self) -> usize {
        self.tenants.iter().map(Tenant::timed).sum()
    }
}
