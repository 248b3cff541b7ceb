//! Serving-layer tour: the optimizer behind the model-serving gateway.
//!
//! Trains cardinality micromodels on a recurring workload, publishes them
//! into a [`Gateway`] (versioned, circuit-breaker-guarded), and optimizes
//! plans three ways:
//!
//! 1. healthy serving — every costing of a covered template asks its model;
//! 2. a simulated model outage — timeouts trip the per-model breaker and
//!    the optimizer keeps running on the engine-default fallback;
//! 3. recovery — half-open probes close the breaker and serving resumes.
//!
//! Run with: `cargo run --release --example serving_gateway`

use autonomous_data_services::faultsim::ModelFaults;
use autonomous_data_services::learned::cardinality::{LearnedCardinality, TrainConfig};
use autonomous_data_services::learned::serving::cardinality_model_name;
use autonomous_data_services::obs::Obs;
use autonomous_data_services::serve::{BreakerState, Gateway, GatewayConfig};
use autonomous_data_services::workload::gen::{GeneratorConfig, WorkloadGenerator};
use autonomous_data_services::workload::signature::template_signature;

use autonomous_data_services::engine::rules::{Optimizer, RuleSet};

fn main() {
    let workload = WorkloadGenerator::new(GeneratorConfig {
        days: 6,
        jobs_per_day: 150,
        n_templates: 20,
        ..Default::default()
    })
    .expect("valid config")
    .generate()
    .expect("generation succeeds");
    let plans: Vec<_> = workload
        .trace
        .jobs()
        .iter()
        .map(|j| j.plan.clone())
        .collect();

    // Train the in-process artifact, then publish it: the optimizer only
    // ever sees the gateway from here on.
    let (trained, report) =
        LearnedCardinality::train(&workload.catalog, &plans, TrainConfig::default());
    let obs = Obs::recording();
    let gateway = Gateway::with_obs(GatewayConfig::standard(), obs.clone());
    let served = trained.publish(&gateway);
    println!(
        "published {} cardinality micromodels (of {} templates trained)",
        served.served_count(),
        report.templates_seen
    );

    // --- 1. Healthy serving. Two optimization passes over the same job
    //     set: re-optimizing a recurring job asks its model again.
    let optimizer = Optimizer::default();
    for pass in 0..2 {
        for (i, plan) in plans.iter().take(200).enumerate() {
            served.set_sim_time((pass * 200 + i) as f64);
            optimizer
                .optimize(plan, RuleSet::all(), &served)
                .expect("plan validates");
        }
    }
    let stats = gateway.stats();
    println!(
        "healthy: {} requests, {} model calls",
        stats.requests, stats.model_calls
    );

    // --- 2. Outage: the busiest template's model starts timing out.
    let busiest = plans
        .iter()
        .map(template_signature)
        .find(|sig| gateway.resolve(&cardinality_model_name(*sig)).is_some())
        .expect("at least one covered template");
    let handle = gateway
        .resolve(&cardinality_model_name(busiest))
        .expect("resolved above");
    gateway
        .inject_faults(handle, ModelFaults::new(17, 0.0, 1.0, 1.0))
        .expect("registered");
    let affected: Vec<_> = plans
        .iter()
        .filter(|p| template_signature(p) == busiest)
        .take(40)
        .collect();
    for (i, plan) in affected.iter().enumerate() {
        served.set_sim_time(1_000.0 + i as f64);
        optimizer
            .optimize(plan, RuleSet::all(), &served)
            .expect("degraded optimization still completes");
    }
    println!(
        "outage: breaker {:?}, {} fallback serves, optimization never stopped",
        gateway.breaker_state(handle).expect("registered"),
        gateway.stats().fallbacks
    );

    // --- 3. Recovery: clear the faults; probes close the breaker.
    gateway.clear_faults(handle).expect("registered");
    for (i, plan) in affected.iter().enumerate() {
        served.set_sim_time(2_000.0 + i as f64);
        optimizer
            .optimize(plan, RuleSet::all(), &served)
            .expect("plan validates");
    }
    assert_eq!(
        gateway.breaker_state(handle).expect("registered"),
        BreakerState::Closed
    );
    println!("recovery: breaker closed, serving restored");

    let trace = obs.snapshot();
    let transitions = trace
        .events
        .iter()
        .filter(|e| e.name == "breaker_transition")
        .count();
    let degraded = trace
        .decisions
        .iter()
        .filter(|d| d.decision == "degraded_serve")
        .count();
    println!(
        "flight recorder: {} breaker transitions, {} degraded-serve decisions",
        transitions, degraded
    );
}
