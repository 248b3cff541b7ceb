//! Determinism guarantees: every stochastic component is seed-driven, so
//! whole subsystem runs must be bit-identical across invocations — the
//! property the experiment harness and EXPERIMENTS.md rely on.

use autonomous_data_services::engine::cost::CostModel;
use autonomous_data_services::engine::exec::{ClusterConfig, SimOptions, Simulator};
use autonomous_data_services::engine::physical::{StageDag, StageId};
use autonomous_data_services::faultsim::{ChaosRunner, FaultConfig, FaultInjector};
use autonomous_data_services::infra::machine::{MachineFleet, SkuSpec};
use autonomous_data_services::infra::provision::{
    simulate_provisioning, DemandModel, PoolPolicy, ProvisionConfig,
};
use autonomous_data_services::obs::{Histogram, Obs};
use autonomous_data_services::service::moneyball::{generate_usage, simulate_policy, PausePolicy};
use autonomous_data_services::service::seagull::{
    generate_fleet, schedule_fleet, BackupForecaster,
};
use autonomous_data_services::workload::gen::{GeneratorConfig, WorkloadGenerator};
use proptest::prelude::*;
use std::collections::HashSet;

#[test]
fn workload_generation_is_reproducible() {
    let mk = || {
        WorkloadGenerator::new(GeneratorConfig::default())
            .expect("valid")
            .generate()
            .expect("generates")
    };
    let (a, b) = (mk(), mk());
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.catalog, b.catalog);
}

#[test]
fn execution_simulation_is_reproducible() {
    let w = WorkloadGenerator::new(GeneratorConfig {
        days: 2,
        jobs_per_day: 30,
        ..Default::default()
    })
    .expect("valid")
    .generate()
    .expect("generates");
    let sim = Simulator::with_obs(ClusterConfig::default(), Obs::disabled()).expect("valid");
    let cm = CostModel::default();
    for job in w.trace.jobs().iter().take(10) {
        let dag = StageDag::compile(&job.plan, &w.catalog, &cm).expect("compiles");
        let r1 = sim.run(&dag, &SimOptions::default()).expect("simulates");
        let r2 = sim.run(&dag, &SimOptions::default()).expect("simulates");
        assert_eq!(r1, r2);
    }
}

#[test]
fn service_layer_simulations_are_reproducible() {
    let f1 = generate_fleet(50, 14, 0.6, 0.3, 5);
    let f2 = generate_fleet(50, 14, 0.6, 0.3, 5);
    assert_eq!(f1, f2);
    let s1 = schedule_fleet(&f1, BackupForecaster::MlModel, 2, 0.25, &Obs::disabled());
    let s2 = schedule_fleet(&f2, BackupForecaster::MlModel, 2, 0.25, &Obs::disabled());
    assert_eq!(s1, s2);

    let u1 = generate_usage(100, 14, 0.77, 3);
    let u2 = generate_usage(100, 14, 0.77, 3);
    assert_eq!(u1, u2);
    let p = PausePolicy::Proactive {
        idle_hours: 2,
        threshold: 0.4,
    };
    assert_eq!(simulate_policy(&u1, p), simulate_policy(&u2, p));
}

#[test]
fn infra_simulations_are_reproducible() {
    let fleet = MachineFleet::new(SkuSpec::standard_fleet(), 4);
    assert_eq!(
        fleet.generate_telemetry(48, 0.1, 9),
        fleet.generate_telemetry(48, 0.1, 9)
    );
    let demand = DemandModel::default();
    let config = ProvisionConfig::default();
    let policy = PoolPolicy::Forecast { headroom: 1.2 };
    assert_eq!(
        simulate_provisioning(&demand, policy, &config),
        simulate_provisioning(&demand, policy, &config)
    );
}

/// ISSUE 2: determinism down to the serialized bytes. `assert_eq!` on the
/// structs proves value equality; the chaos harness and recorded baselines
/// additionally rely on the *serialized* form being stable, so compare
/// JSON byte-for-byte.
#[test]
fn fleet_telemetry_serialization_is_byte_identical() {
    let fleet = MachineFleet::new(SkuSpec::standard_fleet(), 4);
    let a = serde_json::to_string(&fleet.generate_telemetry(48, 0.1, 17)).expect("serializes");
    let b = serde_json::to_string(&fleet.generate_telemetry(48, 0.1, 17)).expect("serializes");
    assert_eq!(a, b);
    let c = serde_json::to_string(&fleet.generate_telemetry(48, 0.1, 18)).expect("serializes");
    assert_ne!(a, c);
}

/// Same property for the execution simulator: two runs of the same DAG
/// serialize to identical bytes, across a spread of generated jobs.
#[test]
fn exec_reports_serialize_byte_identical() {
    let w = WorkloadGenerator::new(GeneratorConfig {
        days: 1,
        jobs_per_day: 20,
        ..Default::default()
    })
    .expect("valid")
    .generate()
    .expect("generates");
    let sim = Simulator::with_obs(ClusterConfig::default(), Obs::disabled()).expect("valid");
    let cm = CostModel::default();
    for job in w.trace.jobs().iter().take(8) {
        let dag = StageDag::compile(&job.plan, &w.catalog, &cm).expect("compiles");
        let r1 = sim.run(&dag, &SimOptions::default()).expect("simulates");
        let r2 = sim.run(&dag, &SimOptions::default()).expect("simulates");
        assert_eq!(
            serde_json::to_string(&r1).expect("serializes"),
            serde_json::to_string(&r2).expect("serializes")
        );
    }
}

/// ISSUE 3: the flight recorder itself replays deterministically. Two
/// chaos runs under the same fault seed — spans, fault events, counters,
/// histograms and all — export byte-identical serialized traces, while a
/// different seed diverges somewhere in the trace.
#[test]
fn chaos_flight_recorder_traces_are_byte_identical() {
    let w = WorkloadGenerator::new(GeneratorConfig {
        days: 1,
        jobs_per_day: 12,
        ..Default::default()
    })
    .expect("valid")
    .generate()
    .expect("generates");
    let cm = CostModel::default();
    let cluster = ClusterConfig::default();
    let dags: Vec<StageDag> = w
        .trace
        .jobs()
        .iter()
        .take(8)
        .map(|j| StageDag::compile(&j.plan, &w.catalog, &cm).expect("compiles"))
        .collect();

    let run = |seed: u64| -> String {
        let obs = Obs::recording();
        let runner =
            ChaosRunner::with_obs(cluster, f64::INFINITY, obs.clone()).expect("valid cluster");
        let injector = FaultInjector::new(seed, FaultConfig::standard());
        for (i, dag) in dags.iter().enumerate() {
            let schedule = injector.schedule_for(i as u64, cluster.machines);
            let ckpt: HashSet<StageId> = dag
                .stages()
                .iter()
                .map(|s| s.id)
                .filter(|id| id.0 % 2 == 0)
                .collect();
            runner.run_job(dag, &ckpt, &schedule).expect("runs");
        }
        obs.export_json()
    };

    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "same seed must export byte-identical traces");
    assert_ne!(a, run(43), "different seeds must diverge in the trace");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ISSUE 3: histogram bucket counts are permutation-invariant under
    /// merge — observing a value set in any order, sharded across two
    /// histograms at any split point and merged in either direction, yields
    /// exactly the buckets of observing them directly.
    #[test]
    fn histogram_bucket_counts_are_permutation_invariant_under_merge(
        values in proptest::collection::vec(0.0f64..50.0, 1..64),
        split in 0usize..64,
        rotate in 0usize..64,
    ) {
        let bounds = Histogram::default_bounds();
        let mut direct = Histogram::new(&bounds);
        for &v in &values {
            direct.observe(v);
        }

        let mut permuted = values.clone();
        permuted.rotate_left(rotate % values.len());
        permuted.reverse();
        let split = split % (values.len() + 1);
        let mut left = Histogram::new(&bounds);
        let mut right = Histogram::new(&bounds);
        for (i, &v) in permuted.iter().enumerate() {
            if i < split {
                left.observe(v);
            } else {
                right.observe(v);
            }
        }

        let mut ab = left.clone();
        prop_assert!(ab.merge(&right), "same bounds must merge");
        let mut ba = right.clone();
        prop_assert!(ba.merge(&left), "merge is direction-agnostic");
        prop_assert_eq!(&ab.counts, &direct.counts);
        prop_assert_eq!(&ba.counts, &direct.counts);
        prop_assert_eq!(ab.count, direct.count);
        prop_assert_eq!(ba.count, direct.count);
        // Bucket counts are exact; the running sum is float arithmetic, so
        // permutations may differ by rounding only.
        prop_assert!((ab.sum - direct.sum).abs() <= 1e-9 * direct.sum.abs().max(1.0));
    }
}

#[test]
fn different_seeds_differ() {
    let a = WorkloadGenerator::new(GeneratorConfig {
        seed: 1,
        ..Default::default()
    })
    .expect("valid")
    .generate()
    .expect("generates");
    let b = WorkloadGenerator::new(GeneratorConfig {
        seed: 2,
        ..Default::default()
    })
    .expect("valid")
    .generate()
    .expect("generates");
    assert_ne!(a.trace, b.trace);
}
