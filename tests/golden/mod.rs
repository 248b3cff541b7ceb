//! Shared support for the golden-digest suites (`golden_paths.rs`,
//! `obs_equivalence.rs`): FNV-1a digests of serialized reports and
//! exported traces, compared against the checked-in
//! `tests/fixtures/golden_digests.json`, plus the seeded flight-recorder
//! scenario both suites replay.
//!
//! There is deliberately no regeneration switch. A mismatch prints every
//! diverging case key with its expected and actual digest; a deliberate
//! behaviour change edits the fixture by hand.

#![allow(dead_code)]

use autonomous_data_services::engine::cost::CostModel;
use autonomous_data_services::engine::exec::ClusterConfig;
use autonomous_data_services::engine::physical::{StageDag, StageId};
use autonomous_data_services::faultsim::{ChaosRunner, FaultConfig, FaultInjector};
use autonomous_data_services::obs::{DeploymentKind, Obs};
use autonomous_data_services::service::seagull::{
    generate_fleet, schedule_fleet, BackupForecaster,
};
use autonomous_data_services::workload::gen::{GeneratorConfig, WorkloadGenerator};
use autonomous_data_services::workload::signature::Fnv1a;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::OnceLock;

/// The pinned drill seeds.
pub const SEEDS: [u64; 3] = [7, 21, 42];

/// FNV-1a over the UTF-8 bytes of `text`.
pub fn digest(text: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write(text.as_bytes());
    h.finish()
}

/// Digest of a sequence of serialized records. JSON never contains a raw
/// newline, so joining on `\n` keeps record boundaries unambiguous.
pub fn digest_all(parts: &[String]) -> u64 {
    digest(&parts.join("\n"))
}

fn fixture() -> &'static BTreeMap<String, u64> {
    static FIXTURE: OnceLock<BTreeMap<String, u64>> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let raw: BTreeMap<String, String> =
            serde_json::from_str(include_str!("../fixtures/golden_digests.json"))
                .expect("golden_digests.json is a flat string map");
        raw.into_iter()
            .map(|(key, hex)| {
                let value = u64::from_str_radix(hex.trim_start_matches("0x"), 16)
                    .unwrap_or_else(|_| panic!("{key}: digest {hex:?} is not hex"));
                (key, value)
            })
            .collect()
    })
}

/// The checked-in digest for `key`.
pub fn expected(key: &str) -> Option<u64> {
    fixture().get(key).copied()
}

/// Collects one case family's actual digests and compares them all at
/// once, so a deliberate behaviour change sees every key it moved.
pub struct Goldens {
    family: &'static str,
    actual: Vec<(String, u64)>,
}

impl Goldens {
    /// An empty family; its fixture keys are `{family}/...`.
    pub fn new(family: &'static str) -> Self {
        Self {
            family,
            actual: Vec::new(),
        }
    }

    /// Records the digest of `text` under `{family}/{case}`.
    pub fn record(&mut self, case: impl AsRef<str>, text: &str) {
        self.record_digest(case, digest(text));
    }

    /// Records a precomputed digest under `{family}/{case}`.
    pub fn record_digest(&mut self, case: impl AsRef<str>, value: u64) {
        self.actual
            .push((format!("{}/{}", self.family, case.as_ref()), value));
    }

    /// Panics, listing every mismatch, unless each recorded digest equals
    /// its fixture entry and the family has no fixture entry left unchecked.
    pub fn assert_all(self) {
        let mut problems = Vec::new();
        for (key, actual) in &self.actual {
            match expected(key) {
                Some(want) if want == *actual => {}
                Some(want) => problems.push(format!(
                    "{key}: expected {want:#018x}, actual {actual:#018x}"
                )),
                None => problems.push(format!(
                    "{key}: expected <missing from fixture>, actual {actual:#018x}"
                )),
            }
        }
        let checked: BTreeSet<&str> = self.actual.iter().map(|(k, _)| k.as_str()).collect();
        let prefix = format!("{}/", self.family);
        for key in fixture().keys().filter(|k| k.starts_with(&prefix)) {
            if !checked.contains(key.as_str()) {
                problems.push(format!("{key}: in the fixture but never checked"));
            }
        }
        assert!(
            problems.is_empty(),
            "golden digest mismatch in `{}` ({} of {} cases):\n{}",
            self.family,
            problems.len(),
            self.actual.len(),
            problems.join("\n")
        );
    }
}

/// The eight small DAGs the flight-recorder scenario runs.
pub fn obs_scenario_dags() -> Vec<StageDag> {
    let w = WorkloadGenerator::new(GeneratorConfig {
        days: 1,
        jobs_per_day: 12,
        ..Default::default()
    })
    .expect("valid")
    .generate()
    .expect("generates");
    let cm = CostModel::default();
    w.trace
        .jobs()
        .iter()
        .take(8)
        .map(|j| StageDag::compile(&j.plan, &w.catalog, &cm).expect("compiles"))
        .collect()
}

/// One full seeded flight-recorder scenario: chaos-injected job runs
/// (spans, events, counters, histograms), a seagull fleet sweep (decision
/// records), and a deployment triple (deployment records) — every record
/// kind the trace schema has.
pub fn drive_obs_scenario(obs: &Obs, dags: &[StageDag], seed: u64) {
    let cluster = ClusterConfig::default();
    let runner = ChaosRunner::with_obs(cluster, f64::INFINITY, obs.clone()).expect("valid cluster");
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

    let fleet = generate_fleet(20, 14, 0.6, 0.3, seed);
    schedule_fleet(&fleet, BackupForecaster::MlModel, 2, 0.25, obs);

    for (kind, version, cause, t) in [
        (DeploymentKind::Publish, 1, "manual", 0.5),
        (DeploymentKind::CanaryStart, 2, "drift", 1.0),
        (DeploymentKind::Rollback, 2, "guard_trip", 2.0),
    ] {
        obs.record_deployment("serve.gateway", kind, "m", version, cause, t);
    }
}
