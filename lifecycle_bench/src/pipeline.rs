//! The system under test for one tenant: set-up and the per-job path.
//!
//! One submitter, one thread, the gateway inline: the next job is submitted
//! when the previous job's feedback step returns. The per-job path is
//!
//! 1. `sql`: `CachedFrontend::compile_plan`;
//! 2. `engine.rules` with `learned` and `serve`: `Optimizer::optimize` with
//!    the `ServedCardinality` that `LearnedCardinality::publish` returned;
//! 3. `engine.physical`: `StageDag::compile`;
//! 4. `engine.exec` on `simkern`: `Simulator::run`, or
//!    `ChaosRunner::run_job` when execution faults are injected;
//! 5. `serve.autonomy`: `ServedCardinality::observe_actual` with the root
//!    stage's true rows, into one `AutonomyController`;
//! 6. on `drift`, at each SLO window boundary: `Obs::snapshot_since`,
//!    `SloEngine::ingest`, `health_signal` and
//!    `AutonomyController::ingest_health` for every supervised model.

use crate::trace::{Costed, Tracer};
use crate::workload::{Tenant, Workload};
use adas_engine::cost::CostModel;
use adas_engine::exec::{ClusterConfig, ExecReport, SimOptions, Simulator};
use adas_engine::physical::StageDag;
use adas_engine::rules::{Optimized, Optimizer, RuleSet};
use adas_faultsim::{ChaosRunner, FaultConfig, FaultInjector, ModelFaults, PoisonProfile};
use adas_learned::cardinality::{LearnedCardinality, TrainConfig};
use adas_learned::serving::{cardinality_model_name, ServedCardinality};
use adas_ml::dataset::Dataset;
use adas_ml::linear::LinearRegression;
use adas_ml::Regressor;
use adas_obs::{Obs, TraceCursor};
use adas_serve::{
    AutonomyAction, AutonomyConfig, AutonomyController, CanaryConfig, Gateway, GatewayConfig,
    GatewayStats, ModelHandle, PoisonScope, RegressorModel, Retrainer, ServableModel, SloPolicy,
};
use adas_simkern::Window;
use adas_watchtower::{default_specs, SloEngine};
use adas_workload::catalog::{Catalog, TableMeta};
use adas_workload::gen::SqlJob;
use adas_workload::job::Job;
use adas_workload::plan::{LogicalPlan, PlanKind};
use adas_workload::signature::{strict_signature, Fnv1a};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Optimizer rewrite-pass budget.
const MAX_PASSES: usize = 32;
/// On `drift`, model faults start this far into the timed jobs.
const MODEL_FAULT_AT: f64 = 0.2;
/// On `drift`, every `MODEL_FAULT_EVERY`-th supervised model gets faults.
const MODEL_FAULT_EVERY: usize = 4;

/// The controller policy every published micromodel is supervised with.
/// Ticks are job submissions.
fn autonomy_config() -> AutonomyConfig {
    AutonomyConfig {
        monitor: adas_core::feedback::LoopConfig {
            window: 12,
            retrain_factor: 1.5,
            rollback_factor: 6.0,
        },
        canary: CanaryConfig {
            traffic_pct: 30,
            shadow_first: true,
            min_decisions: 4,
            promote_streak: 2,
            demote_streak: 2,
            promote_error_factor: 1.2,
            demote_error_factor: 2.0,
            restage_backoff_ticks: 256.0,
            max_restage_backoff_ticks: 2048.0,
        },
        slo: SloPolicy::default(),
        guarded_streak: 4,
        breaker_open_streak: 8,
        retrain_cooldown_ticks: 128.0,
        min_retrain_observations: 12,
    }
}

/// Ridge refit on the controller's buffered `(features, ln rows)` pairs;
/// the claimed error is the mean absolute training residual, floored so a
/// perfect fit does not make every later observation look like drift.
fn refit(history: &[(Vec<f64>, f64)]) -> Option<(Arc<dyn ServableModel>, f64)> {
    let rows = history.iter().map(|(f, _)| f.clone()).collect();
    let targets = history.iter().map(|(_, y)| *y).collect();
    let data = Dataset::new(rows, targets).ok()?;
    let model = LinearRegression::fit_ridge(&data, 1e-6).ok()?;
    let err = history
        .iter()
        .map(|(f, y)| (model.predict(f) - y).abs())
        .sum::<f64>()
        / history.len() as f64;
    Some((Arc::new(RegressorModel(model)), err.max(0.05)))
}

/// Simulated latency and CPU of a timed job's submitted plan, unoptimized,
/// on the fault-free cluster: the yardstick of the `sim_*_ratio` metrics.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    latency: f64,
    cpu: f64,
}

/// The references of every timed job of `tenant`. Each plan is compiled
/// against a catalog of just the tables it scans, which leaves every
/// estimate unchanged and keeps this cheap on catalogs of thousands of
/// tables.
pub fn references(tenant: &Tenant) -> Result<Vec<Reference>, String> {
    let full = &tenant.generated.catalog;
    let index: HashMap<&str, &TableMeta> =
        full.tables().iter().map(|t| (t.name.as_str(), t)).collect();
    let sim = Simulator::with_obs(ClusterConfig::default(), Obs::disabled())
        .map_err(|e| format!("simulator: {e}"))?;
    let cost_model = CostModel::default();
    tenant.generated.trace.jobs()[tenant.history..]
        .iter()
        .map(|job| {
            let mut catalog = Catalog::new();
            for node in job.plan.iter() {
                if let PlanKind::Scan { table } = &node.kind {
                    let meta = index
                        .get(table.as_str())
                        .ok_or_else(|| format!("{} scans unknown table {table}", job.id))?;
                    catalog.add_table((*meta).clone());
                    if let Some(view) = full.view_definition(table) {
                        catalog.register_view(table, view.clone());
                    }
                }
            }
            let report = StageDag::compile(&job.plan, &catalog, &cost_model)
                .and_then(|dag| sim.run(&dag, &SimOptions::default()))
                .map_err(|e| format!("reference run of {}: {e}", job.id))?;
            Ok(Reference {
                latency: report.latency,
                cpu: report.total_cpu_seconds,
            })
        })
        .collect()
}

/// Autonomy actions by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Actions {
    pub retrain_scheduled: u64,
    pub staged: u64,
    pub canary: u64,
    pub promoted: u64,
    pub demoted: u64,
    pub rolled_back: u64,
}

impl Actions {
    fn count(&mut self, actions: &[AutonomyAction]) {
        for a in actions {
            match a {
                AutonomyAction::RetrainScheduled { .. } => self.retrain_scheduled += 1,
                AutonomyAction::CandidateStaged { .. } => self.staged += 1,
                AutonomyAction::CanaryStarted { .. } => self.canary += 1,
                AutonomyAction::Promoted { .. } => self.promoted += 1,
                AutonomyAction::Demoted { .. } => self.demoted += 1,
                AutonomyAction::RolledBack { .. } => self.rolled_back += 1,
            }
        }
    }
}

/// Deterministic counts over the timed jobs, summed over tenants.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub jobs: u64,
    pub failed: u64,
    pub sim_latency_s: f64,
    pub sim_cpu_s: f64,
    /// Σ ln(latency ÷ reference latency) over the timed jobs.
    pub ln_latency_ratio: f64,
    /// Σ ln(CPU ÷ reference CPU) over the timed jobs.
    pub ln_cpu_ratio: f64,
    pub stages: u64,
    pub tasks: u64,
    pub attempts: u64,
    pub faults: u64,
    pub models_faulted: u64,
    pub rules_fired: u64,
    /// Optimizer costings; counted only on traced passes.
    pub costings: u64,
    pub observations: u64,
    pub retrains: u64,
    pub actions: Actions,
    pub windows: u64,
    pub sql_hits: u64,
    pub sql_misses: u64,
    pub requests: u64,
    pub model_calls: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub fallbacks: u64,
    pub stale: u64,
    pub canary_routed: u64,
    pub shadow_serves: u64,
    pub shed: u64,
    pub obs_records: u64,
    pub alerts: u64,
    pub catalog_tables: u64,
}

impl Counts {
    /// Adds another tenant's counts.
    pub fn add(&mut self, o: &Counts) {
        self.jobs += o.jobs;
        self.failed += o.failed;
        self.sim_latency_s += o.sim_latency_s;
        self.sim_cpu_s += o.sim_cpu_s;
        self.ln_latency_ratio += o.ln_latency_ratio;
        self.ln_cpu_ratio += o.ln_cpu_ratio;
        self.stages += o.stages;
        self.tasks += o.tasks;
        self.attempts += o.attempts;
        self.faults += o.faults;
        self.models_faulted += o.models_faulted;
        self.rules_fired += o.rules_fired;
        self.costings += o.costings;
        self.observations += o.observations;
        self.retrains += o.retrains;
        self.actions.retrain_scheduled += o.actions.retrain_scheduled;
        self.actions.staged += o.actions.staged;
        self.actions.canary += o.actions.canary;
        self.actions.promoted += o.actions.promoted;
        self.actions.demoted += o.actions.demoted;
        self.actions.rolled_back += o.actions.rolled_back;
        self.windows += o.windows;
        self.sql_hits += o.sql_hits;
        self.sql_misses += o.sql_misses;
        self.requests += o.requests;
        self.model_calls += o.model_calls;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.fallbacks += o.fallbacks;
        self.stale += o.stale;
        self.canary_routed += o.canary_routed;
        self.shadow_serves += o.shadow_serves;
        self.shed += o.shed;
        self.obs_records += o.obs_records;
        self.alerts += o.alerts;
        self.catalog_tables += o.catalog_tables;
    }

    fn gateway_delta(&mut self, after: &GatewayStats, before: &GatewayStats) {
        self.requests = after.requests - before.requests;
        self.model_calls = after.model_calls - before.model_calls;
        self.cache_hits = after.cache_hits - before.cache_hits;
        self.cache_misses = after.cache_misses - before.cache_misses;
        self.fallbacks = after.fallbacks - before.fallbacks;
        self.stale = after.stale - before.stale;
        self.canary_routed = after.canary_routed - before.canary_routed;
        self.shadow_serves = after.shadow_serves - before.shadow_serves;
        self.shed = after.shed - before.shed;
    }
}

/// Where jobs execute.
enum Exec {
    Plain(Simulator),
    Chaos(ChaosRunner, FaultInjector, usize),
}

/// The SLO loop `drift` runs at every window boundary.
struct SloLoop {
    engine: SloEngine,
    cursor: TraceCursor,
    windows: Vec<Window>,
}

/// One tenant's system: everything set-up builds, plus the digest of its
/// decisions so far.
pub struct Stack<'w> {
    tenant: &'w Tenant,
    reference: &'w [Reference],
    frontend: adas_sql::CachedFrontend<'w>,
    optimizer: Optimizer,
    cost_model: CostModel,
    served: ServedCardinality<'w>,
    gateway: Gateway,
    controller: AutonomyController,
    handles: Vec<ModelHandle>,
    exec: Exec,
    obs: Obs,
    slo: Option<SloLoop>,
    model_fault_tick: Option<usize>,
    tracer: Rc<Tracer>,
    retrains: Rc<Cell<u64>>,
    costings: Cell<u64>,
    digest: Fnv1a,
    pub counts: Counts,
}

/// What one job's path returned, kept for the checks and counts that run
/// after the job's timed window closes.
struct Done {
    plan: LogicalPlan,
    optimized: Optimized,
    dag: StageDag,
    report: ExecReport,
    /// `report.latency`, or the chaos runner's total including restarts.
    sim_latency: f64,
    attempts: usize,
    faults: usize,
    /// Stage outputs that survived aborted attempts.
    survivors: usize,
    actions: Option<Vec<AutonomyAction>>,
    health_actions: Vec<AutonomyAction>,
    window: bool,
}

impl<'w> Stack<'w> {
    /// Set-up: train, publish, supervise, construct the front end and
    /// executor. The warm-up replay is [`Stack::warm_up`].
    pub fn build(
        tenant: &'w Tenant,
        reference: &'w [Reference],
        workload: Workload,
        tracer: Rc<Tracer>,
    ) -> Result<Self, String> {
        let catalog = &tenant.generated.catalog;
        let (learned, _) =
            LearnedCardinality::train(catalog, &tenant.history_plans, TrainConfig::default());
        let obs = if workload.recorder() {
            Obs::recording()
        } else {
            Obs::disabled()
        };
        let gateway = Gateway::with_obs(GatewayConfig::standard(), obs.clone());
        let served = learned.publish(&gateway);
        let mut signatures = learned.signatures();
        signatures.sort();
        let handles = signatures
            .iter()
            .map(|sig| {
                gateway
                    .resolve(&cardinality_model_name(*sig))
                    .ok_or_else(|| format!("published model {sig} does not resolve"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let retrains = Rc::new(Cell::new(0u64));
        let mut controller = AutonomyController::new(gateway.clone(), obs.clone());
        for &handle in &handles {
            let tracer = tracer.clone();
            let retrains = retrains.clone();
            let retrainer: Retrainer = Box::new(move |history| {
                let span = tracer.enter("serve.autonomy.retrain", "retrain");
                let model = refit(history);
                tracer.exit(span);
                retrains.set(retrains.get() + 1);
                model
            });
            controller.supervise(handle, autonomy_config(), retrainer);
        }
        let cluster = ClusterConfig::default();
        let exec = if workload.faults() {
            Exec::Chaos(
                ChaosRunner::with_obs(cluster, f64::INFINITY, obs.clone())
                    .map_err(|e| format!("chaos runner: {e}"))?,
                FaultInjector::new(tenant.seed, FaultConfig::standard()),
                cluster.machines,
            )
        } else {
            Exec::Plain(
                Simulator::with_obs(cluster, obs.clone()).map_err(|e| format!("simulator: {e}"))?,
            )
        };
        let slo = workload.recorder().then(|| {
            let specs = default_specs();
            SloLoop {
                windows: specs.iter().map(|s| Window::new(s.window_ticks)).collect(),
                engine: SloEngine::new(specs),
                cursor: TraceCursor::default(),
            }
        });
        let model_fault_tick = workload
            .faults()
            .then(|| tenant.history + (tenant.timed() as f64 * MODEL_FAULT_AT) as usize);
        Ok(Self {
            tenant,
            reference,
            frontend: adas_sql::CachedFrontend::new(adas_sql::Frontend::new(catalog)),
            optimizer: Optimizer::with_obs(CostModel::default(), MAX_PASSES, obs.clone()),
            cost_model: CostModel::default(),
            served,
            gateway,
            controller,
            handles,
            exec,
            obs,
            slo,
            model_fault_tick,
            tracer,
            retrains,
            costings: Cell::new(0),
            digest: Fnv1a::new(),
            counts: Counts::default(),
        })
    }

    /// Replays the history days through the full path (untimed, untraced).
    pub fn warm_up(&mut self) -> Result<(), String> {
        for i in 0..self.tenant.history {
            self.job(i)?;
        }
        self.counts = Counts::default();
        Ok(())
    }

    /// Runs the timed jobs and returns each job's wall time in µs.
    pub fn run_timed(&mut self) -> Vec<f64> {
        let sql_before = self.frontend.stats();
        let gateway_before = self.gateway.stats();
        self.retrains.set(0);
        self.costings.set(0);
        let mut wall_us = Vec::with_capacity(self.tenant.timed());
        for i in self.tenant.history..self.tenant.sql.len() {
            self.counts.jobs += 1;
            match self.job(i) {
                Ok(us) => wall_us.push(us),
                Err(e) => {
                    self.counts.failed += 1;
                    self.digest.write(e.as_bytes());
                    if self.counts.failed <= 3 {
                        eprintln!("tenant {:x} job {i}: {e}", self.tenant.seed);
                    }
                }
            }
        }
        let sql_after = self.frontend.stats();
        let c = &mut self.counts;
        c.sql_hits = sql_after.0 - sql_before.0;
        c.sql_misses = sql_after.1 - sql_before.1;
        c.gateway_delta(&self.gateway.stats(), &gateway_before);
        c.retrains = self.retrains.get();
        c.costings = self.costings.get();
        wall_us
    }

    /// Counts that need a full recorder snapshot or SLO report, taken after
    /// the timed phase so their cost stays out of it.
    pub fn finish_counts(&mut self) {
        let t = self.obs.snapshot();
        let c = &mut self.counts;
        c.obs_records =
            (t.spans.len() + t.events.len() + t.decisions.len() + t.deployments.len()) as u64;
        c.alerts = self.slo.as_ref().map_or(0, |slo| {
            slo.engine
                .report()
                .specs
                .iter()
                .map(|s| s.alerts.len() as u64)
                .sum()
        });
        c.catalog_tables = self.tenant.generated.catalog.tables().len() as u64;
    }

    /// Digest of every decision made: optimized-plan signatures, simulated
    /// latencies, the autonomy action sequence and the gateway's deployment
    /// state (plus the recorded deployment records on `drift`).
    pub fn digest(&self) -> Result<u64, String> {
        let mut digest = self.digest.clone();
        for &handle in &self.handles {
            let state = (|| -> adas_serve::Result<_> {
                Ok((
                    self.gateway.current_version(handle)?,
                    self.gateway.version_count(handle)?,
                    self.gateway.candidate_status(handle)?,
                    self.gateway.current_deployment_error(handle)?,
                ))
            })()
            .map_err(|e| format!("gateway state of model {}: {e}", handle.index()))?;
            digest.write(format!("{handle:?}{state:?}").as_bytes());
        }
        for record in &self.obs.snapshot().deployments {
            digest.write(format!("{record:?}").as_bytes());
        }
        Ok(digest.finish())
    }

    /// One job through the whole path. Returns its wall time in µs, from
    /// `compile_plan` entry to the return of its feedback step (and of the
    /// SLO window step, when the job closes a window).
    fn job(&mut self, i: usize) -> Result<f64, String> {
        let sql = &self.tenant.sql[i];
        let truth = &self.tenant.generated.trace.jobs()[i];
        if self.model_fault_tick == Some(i) {
            self.inject_model_faults(i as f64)?;
        }
        let start = Instant::now();
        let span = self.tracer.enter_job(i);
        let done = self.path(i, sql);
        self.tracer.exit(span);
        let wall = start.elapsed().as_secs_f64() * 1e6;
        self.settle(i, truth, done?)?;
        Ok(wall)
    }

    fn path(&mut self, i: usize, sql: &SqlJob) -> Result<Done, String> {
        let tick = i as f64;
        let tr = &*self.tracer;

        let span = tr.enter("sql", "compile_plan");
        let plan = self.frontend.compile_plan(&sql.sql, &sql.params);
        tr.exit(span);
        let plan = plan.map_err(|e| format!("compile: {}", e.render(&sql.sql)))?;

        self.served.set_sim_time(tick);
        let span = tr.enter("engine.rules", "optimize");
        let optimized = if tr.armed() {
            let costed = Costed {
                inner: &self.served,
                tracer: tr,
                costings: &self.costings,
            };
            self.optimizer.optimize(&plan, RuleSet::all(), &costed)
        } else {
            self.optimizer.optimize(&plan, RuleSet::all(), &self.served)
        };
        tr.exit(span);
        let optimized = optimized.map_err(|e| format!("optimize: {e}"))?;

        let span = tr.enter("engine.physical", "compile");
        let dag = StageDag::compile(
            &optimized.plan,
            &self.tenant.generated.catalog,
            &self.cost_model,
        );
        tr.exit(span);
        let dag = dag.map_err(|e| format!("stage compile: {e}"))?;

        let (report, sim_latency, attempts, faults, survivors) = match &self.exec {
            Exec::Plain(sim) => {
                let span = tr.enter("engine.exec", "Simulator::run");
                let report = sim.run(&dag, &SimOptions::default());
                tr.exit(span);
                let report = report.map_err(|e| format!("execute: {e}"))?;
                let latency = report.latency;
                (report, latency, 1, 0, 0)
            }
            Exec::Chaos(runner, injector, machines) => {
                let span = tr.enter("engine.exec", "ChaosRunner::run_job");
                let schedule = injector.schedule_for(i as u64, *machines);
                let outcome = runner.run_job(&dag, &HashSet::new(), &schedule);
                tr.exit(span);
                let outcome = outcome.map_err(|e| format!("chaos execute: {e}"))?;
                let survivors = outcome
                    .attempt_failures
                    .iter()
                    .map(|f| f.surviving_stages)
                    .sum();
                (
                    outcome.final_report,
                    outcome.total_latency,
                    outcome.attempts,
                    outcome.injected,
                    survivors,
                )
            }
        };
        let root_rows = dag
            .stages()
            .last()
            .ok_or("stage compile produced an empty DAG")?
            .rows;

        // The pre-optimization plan: rewrites change the template
        // signature the served estimate was stashed under.
        let span = tr.enter("serve.autonomy", "observe_actual");
        let actions = self
            .served
            .observe_actual(&plan, root_rows, &mut self.controller, tick);
        tr.exit(span);

        let (window, health_actions) = self.slo_window(tick)?;

        Ok(Done {
            plan,
            optimized,
            dag,
            report,
            sim_latency,
            attempts,
            faults,
            survivors,
            actions,
            health_actions,
            window,
        })
    }

    /// On `drift`, closes the SLO windows that end at this job: snapshot
    /// the recorder since the last cut, fold it into the SLO engine, and
    /// feed the resulting health signal to every supervised model.
    fn slo_window(&mut self, tick: f64) -> Result<(bool, Vec<AutonomyAction>), String> {
        let Some(slo) = &mut self.slo else {
            return Ok((false, Vec::new()));
        };
        if !slo
            .windows
            .iter()
            .any(|w| w.index_of(tick + 1.0) != w.index_of(tick))
        {
            return Ok((false, Vec::new()));
        }
        let tr = &*self.tracer;
        let span = tr.enter("obs", "snapshot_since");
        let delta = self.obs.snapshot_since(&mut slo.cursor);
        tr.exit(span);
        let span = tr.enter("watchtower", "ingest");
        slo.engine.ingest(&delta);
        let signal = slo.engine.health_signal();
        tr.exit(span);
        let span = tr.enter("serve.autonomy", "ingest_health");
        let mut actions = Vec::new();
        let mut failure = None;
        for &handle in &self.handles {
            match self.controller.ingest_health(handle, &signal, tick) {
                Ok(step) => actions.extend(step),
                Err(e) => {
                    failure = Some(format!("ingest_health: {e}"));
                    break;
                }
            }
        }
        tr.exit(span);
        failure.map_or(Ok((true, actions)), Err)
    }

    /// Output checks and counts for one finished job, outside its timed
    /// window.
    fn settle(&mut self, i: usize, truth: &Job, done: Done) -> Result<(), String> {
        if done.plan != truth.plan {
            return Err(format!(
                "compiled plan of {} differs from its job",
                truth.id
            ));
        }
        if !report_ran_required(&done.dag, &done.report, done.survivors)
            || !done.sim_latency.is_finite()
        {
            return Err(format!("execution report of {} is incomplete", truth.id));
        }
        self.digest
            .write_u64(strict_signature(&done.optimized.plan).0);
        self.digest.write_u64(done.sim_latency.to_bits());
        let cpu = done.report.total_cpu_seconds;
        let c = &mut self.counts;
        if let Some(reference) = i
            .checked_sub(self.tenant.history)
            .and_then(|k| self.reference.get(k))
        {
            c.ln_latency_ratio += (done.sim_latency / reference.latency.max(1e-9)).ln();
            c.ln_cpu_ratio += (cpu / reference.cpu.max(1e-9)).ln();
        }
        c.sim_latency_s += done.sim_latency;
        c.sim_cpu_s += cpu;
        c.stages += done.dag.len() as u64;
        c.tasks += done
            .dag
            .stages()
            .iter()
            .map(|s| s.tasks as u64)
            .sum::<u64>();
        c.attempts += done.attempts as u64;
        c.faults += done.faults as u64;
        c.rules_fired += done.optimized.applied.len() as u64;
        if let Some(actions) = &done.actions {
            c.observations += 1;
            c.actions.count(actions);
            self.digest.write(format!("{actions:?}").as_bytes());
        }
        if done.window {
            c.windows += 1;
            c.actions.count(&done.health_actions);
            self.digest
                .write(format!("{:?}", done.health_actions).as_bytes());
        }
        Ok(())
    }

    /// Poisons the serving version of every `MODEL_FAULT_EVERY`-th
    /// supervised model and attaches timeout and staleness faults. The
    /// poison is scoped to that version, so a retrained version heals it.
    fn inject_model_faults(&mut self, tick: f64) -> Result<(), String> {
        let err = |e: adas_serve::ServeError| format!("model fault injection: {e}");
        for &handle in self.handles.iter().step_by(MODEL_FAULT_EVERY) {
            if let Some(version) = self.gateway.current_version(handle).map_err(err)? {
                self.gateway
                    .set_poison_scope_at(handle, PoisonScope::Version(version), tick)
                    .map_err(err)?;
            }
            let faults = ModelFaults::with_profile(
                adas_faultsim::seed::derive(self.tenant.seed, handle.index() as u64),
                0.1,
                0.05,
                3.0,
                PoisonProfile::Constant,
            );
            self.gateway
                .inject_faults_at(handle, faults, tick)
                .map_err(err)?;
            self.counts.models_faulted += 1;
        }
        Ok(())
    }
}

/// The execution check: the report covers every stage and ran each
/// executed stage after its executed inputs; a stage whose output is needed
/// (a sink, or an input of an executed stage) but did not run must be one of
/// the `survivors` an earlier attempt left behind. Without faults nothing
/// survives, so every stage must have run.
fn report_ran_required(dag: &StageDag, report: &ExecReport, survivors: usize) -> bool {
    let n = dag.len();
    let ran = &report.executed;
    if ran.len() != n || report.stage_start.len() != n || report.stage_finish.len() != n {
        return false;
    }
    let ordered = dag.stages().iter().all(|s| {
        !ran[s.id.0]
            || s.inputs.iter().all(|input| {
                !ran[input.0] || report.stage_start[s.id.0] >= report.stage_finish[input.0]
            })
    });
    let consumers = dag.consumers();
    let needed_but_skipped = (0..n)
        .filter(|&i| !ran[i] && (consumers[i].is_empty() || consumers[i].iter().any(|c| ran[c.0])))
        .count();
    ordered
        && needed_but_skipped <= survivors
        && report.latency.is_finite()
        && report.latency >= 0.0
}
