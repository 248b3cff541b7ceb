//! Replay equivalence for the flight recorder's batched backend.
//!
//! The batched recorder (`Obs::recording`) earns its speed with ring
//! staging, string interning and pre-resolved handles — none of which may
//! change a single exported byte. This suite drives seeded scenarios
//! through the default staging ring and a tiny ring (forcing many flush
//! boundaries mid-scenario), takes snapshots at arbitrary points, and pins
//! the exported canonical JSON to the golden digests in
//! `tests/fixtures/golden_digests.json`.

mod golden;

use autonomous_data_services::engine::exec::{ClusterConfig, SimOptions, Simulator};
use autonomous_data_services::obs::Obs;
use golden::{digest, drive_obs_scenario, obs_scenario_dags, Goldens};

/// Fresh recorders: the default ring and a 3-record ring that flushes
/// inside nearly every job that records events (spans skip the ring), so
/// flush-ordering bugs cannot hide behind a large ring.
fn backends() -> [(&'static str, Obs); 2] {
    [
        ("default ring", Obs::recording()),
        ("3-slot ring", Obs::recording_with_ring(3)),
    ]
}

#[test]
fn backends_agree_across_interleaved_snapshots() {
    // Snapshots force flushes at arbitrary points; taking one mid-scenario
    // must not perturb what either ring size ultimately exports.
    let dags = obs_scenario_dags();
    let mut exports = Vec::new();
    for (_, obs) in backends() {
        let sim = Simulator::with_obs(ClusterConfig::default(), obs.clone()).expect("valid");
        for (i, dag) in dags.iter().enumerate() {
            sim.run(dag, &SimOptions::default()).expect("simulates");
            if i % 3 == 0 {
                let _ = obs.snapshot();
            }
        }
        exports.push(obs.export_json());
    }
    assert_eq!(exports[0], exports[1]);
    let mut goldens = Goldens::new("obs_interleaved_snapshots");
    goldens.record("trace", &exports[0]);
    goldens.assert_all();
}

#[test]
fn same_seed_replays_are_byte_identical_per_backend() {
    let dags = obs_scenario_dags();
    let pinned = golden::expected("obs_scenario/seed=21/trace").expect("pinned in the fixture");
    for ((name, a), (_, b)) in backends().into_iter().zip(backends()) {
        drive_obs_scenario(&a, &dags, 21);
        drive_obs_scenario(&b, &dags, 21);
        let first = a.export_json();
        assert_eq!(first, b.export_json(), "{name}: same-seed replay diverged");
        assert_eq!(
            digest(&first),
            pinned,
            "{name}: replay left the golden trace"
        );
    }
    let a = Obs::recording();
    let b = Obs::recording();
    drive_obs_scenario(&a, &dags, 21);
    drive_obs_scenario(&b, &dags, 42);
    assert_ne!(
        a.export_json(),
        b.export_json(),
        "different fault seeds must diverge in the trace"
    );
}
