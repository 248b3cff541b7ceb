//! Replay equivalence for the flight recorder.
//!
//! The recorder (`Obs::recording`) earns its speed with compact id-based
//! storage, string interning and pre-resolved handles — none of which may
//! change a single exported byte. This suite drives seeded scenarios, cuts
//! snapshots at arbitrary points, and pins the exported canonical JSON to
//! the golden digests in `tests/fixtures/golden_digests.json`.

mod golden;

use autonomous_data_services::engine::exec::{ClusterConfig, SimOptions, Simulator};
use autonomous_data_services::obs::{Obs, TraceCursor};
use golden::{digest, drive_obs_scenario, obs_scenario_dags, Goldens};

#[test]
fn snapshot_points_do_not_change_the_export() {
    // Full and incremental snapshots resolve the recording mid-scenario;
    // taking them must not perturb what the recorder ultimately exports.
    let dags = obs_scenario_dags();
    let run = |cut: bool| {
        let obs = Obs::recording();
        let sim = Simulator::with_obs(ClusterConfig::default(), obs.clone()).expect("valid");
        let mut cursor = TraceCursor::default();
        for (i, dag) in dags.iter().enumerate() {
            sim.run(dag, &SimOptions::default()).expect("simulates");
            if cut && i % 3 == 0 {
                let _ = obs.snapshot();
                let _ = obs.snapshot_since(&mut cursor);
            }
        }
        obs.export_json()
    };
    let cut = run(true);
    assert_eq!(cut, run(false));
    let mut goldens = Goldens::new("obs_interleaved_snapshots");
    goldens.record("trace", &cut);
    goldens.assert_all();
}

#[test]
fn same_seed_replays_are_byte_identical() {
    let dags = obs_scenario_dags();
    let pinned = golden::expected("obs_scenario/seed=21/trace").expect("pinned in the fixture");
    let [a, b, c] = [Obs::recording(), Obs::recording(), Obs::recording()];
    drive_obs_scenario(&a, &dags, 21);
    drive_obs_scenario(&b, &dags, 21);
    drive_obs_scenario(&c, &dags, 42);
    let first = a.export_json();
    assert_eq!(first, b.export_json(), "same-seed replay diverged");
    assert_eq!(digest(&first), pinned, "replay left the golden trace");
    assert_ne!(
        first,
        c.export_json(),
        "different fault seeds must diverge in the trace"
    );
}
