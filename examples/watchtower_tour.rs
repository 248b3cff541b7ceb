//! Watchtower, end to end: run the autonomy chaos drill, export its trace
//! to JSON the way an operator would (`obs.export_stream` into a file),
//! then analyze it in-process — SLO burn rates, the reconstructed
//! incident, and the critical-path profile.
//!
//! The same file works with the CLI:
//!
//! ```text
//! cargo run --release --example watchtower_tour
//! cargo run --release -p adas-watchtower --bin tracectl -- incidents target/watchtower_tour_trace.json
//! ```
//!
//! Run with: `cargo run --release --example watchtower_tour`

use autonomous_data_services::core::feedback::LoopConfig;
use autonomous_data_services::engine::cost::CostModel;
use autonomous_data_services::engine::exec::{ClusterConfig, SimOptions, Simulator};
use autonomous_data_services::engine::physical::StageDag;
use autonomous_data_services::faultsim::{ModelFaults, PoisonProfile};
use autonomous_data_services::obs::{Obs, DEFAULT_EXPORT_CHUNK};
use autonomous_data_services::serve::{
    AutonomyAction, AutonomyConfig, AutonomyController, CanaryConfig, FnModel, Gateway,
    GatewayConfig, PoisonScope, ServableModel, SloPolicy,
};
use autonomous_data_services::watchtower::{analyze, default_specs};
use autonomous_data_services::workload::gen::{GeneratorConfig, WorkloadGenerator};
use std::io::Write;
use std::sync::Arc;

fn main() {
    // --- Produce: the poison → rollback chaos drill (seed 7). ---
    let obs = Obs::recording();
    let mut config = GatewayConfig::standard();
    config.breaker.guard_factor = 2.0;
    config.breaker.failure_threshold = 4;
    config.breaker.cooldown_ticks = 8.0;
    let gateway = Gateway::with_obs(config, obs.clone());
    let handle = gateway.register("demo/cardinality", |f: &[f64]| f[0]);
    let mut ctl = AutonomyController::new(gateway.clone(), obs.clone());
    ctl.supervise(
        handle,
        AutonomyConfig {
            monitor: LoopConfig {
                window: 20,
                retrain_factor: 1.5,
                rollback_factor: 8.0,
            },
            canary: CanaryConfig {
                traffic_pct: 30,
                shadow_first: true,
                min_decisions: 10,
                promote_streak: 2,
                demote_streak: 2,
                promote_error_factor: 1.2,
                demote_error_factor: 2.0,
                restage_backoff_ticks: 16.0,
                max_restage_backoff_ticks: 128.0,
            },
            slo: SloPolicy::default(),
            guarded_streak: 4,
            breaker_open_streak: 10,
            retrain_cooldown_ticks: 8.0,
            min_retrain_observations: 20,
        },
        Box::new(|history: &[(Vec<f64>, f64)]| {
            let (num, den) = history
                .iter()
                .fold((0.0, 0.0), |(n, d), (f, y)| (n + f[0] * y, d + f[0] * f[0]));
            let a = num / den.max(1e-12);
            Some((
                Arc::new(FnModel(move |f: &[f64]| a * f[0])) as Arc<dyn ServableModel>,
                0.01,
            ))
        }),
    );
    ctl.install(handle, Arc::new(FnModel(|f: &[f64]| 1.05 * f[0])), 0.2, 0.0)
        .expect("bootstrap install");

    let mut promoted = None;
    let mut poisoned = false;
    for t in 0..2000u64 {
        let sim_time = t as f64;
        let features = [1.0 + (t % 5) as f64];
        let p = gateway
            .predict(handle, &features, sim_time)
            .expect("serves");
        let actual = 1.3 * features[0];
        let step = ctl
            .observe(handle, &features, &p, actual, sim_time)
            .expect("observes");
        for a in &step {
            if let AutonomyAction::Promoted { version } = a {
                promoted.get_or_insert(*version);
            }
        }
        if !poisoned {
            if let Some(v) = promoted {
                gateway
                    .set_poison_scope_at(handle, PoisonScope::Version(v), sim_time)
                    .expect("scopes");
                gateway
                    .inject_faults_at(
                        handle,
                        ModelFaults::with_profile(7, 0.05, 0.05, 4.0, PoisonProfile::Constant),
                        sim_time,
                    )
                    .expect("injects");
                poisoned = true;
            }
        }
    }

    // --- A few engine jobs under the same recorder: the gateway drill has
    // no spans, so this gives the critical-path profiler a DAG to walk. ---
    let workload = WorkloadGenerator::new(GeneratorConfig {
        days: 1,
        jobs_per_day: 6,
        ..Default::default()
    })
    .expect("valid config")
    .generate()
    .expect("generates");
    let cost_model = CostModel::default();
    let sim = Simulator::with_obs(ClusterConfig::default(), obs.clone()).expect("valid cluster");
    for job in workload.trace.jobs() {
        let dag = StageDag::compile(&job.plan, &workload.catalog, &cost_model).expect("compiles");
        sim.run(&dag, &SimOptions::default()).expect("simulates");
    }

    // --- Export: stream the trace to a JSON file, chunk by chunk. ---
    let path = "target/watchtower_tour_trace.json";
    std::fs::create_dir_all("target").expect("target dir");
    let mut file = std::io::BufWriter::new(std::fs::File::create(path).expect("creates"));
    obs.export_stream(DEFAULT_EXPORT_CHUNK, |chunk| {
        file.write_all(chunk.as_bytes()).expect("writes");
    });
    file.flush().expect("flushes");
    println!("trace exported to {path}");
    println!("(try: cargo run --release -p adas-watchtower --bin tracectl -- incidents {path})\n");

    // --- Analyze: the same three artifacts tracectl would print. ---
    let trace = obs.snapshot();
    let report = analyze(&trace, &default_specs());

    for spec in &report.slo.specs {
        let burned: Vec<_> = spec.windows.iter().filter(|w| w.burn > 1.0).collect();
        println!(
            "slo {:<22} {} complete windows, {} over budget, {} alerts",
            spec.spec.name,
            spec.windows.len(),
            burned.len(),
            spec.alerts.len()
        );
    }

    for incident in &report.incidents.incidents {
        let resolution = incident
            .resolution
            .as_ref()
            .map(|r| format!("{} v{} ({})", r.kind, r.version, r.cause))
            .unwrap_or_else(|| "unresolved".to_string());
        println!(
            "\nincident #{} on {}: opened t={:.0}, root cause [{}] {}",
            incident.id,
            incident.model,
            incident.opened_at,
            incident.root_cause.stage,
            incident.root_cause.detail
        );
        println!(
            "  {} degraded serves, {} breaker transitions → {}",
            incident.degraded_serves, incident.breaker_transitions, resolution
        );
    }

    let cp = &report.critical_path;
    println!(
        "\ncritical path: {:.0} of {:.0} ticks across {} spans ({:.0} idle)",
        cp.path_ticks,
        cp.total_ticks,
        cp.path.len(),
        cp.idle_ticks
    );
    for c in &cp.self_time {
        println!("  {:<18} {:>8.1} self ticks", c.component, c.self_ticks);
    }
}
