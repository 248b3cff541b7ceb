//! Cross-crate chaos suite: the system under seeded fault injection.
//!
//! Four properties, per ISSUE 2:
//! 1. determinism — the same fault seed produces byte-identical outcomes;
//! 2. checkpoint safety — checkpointed stages never recompute after
//!    injected restarts;
//! 3. guardrail safety — `GuardrailSet::check` blocks regressions coming
//!    from poisoned models;
//! 4. graceful degradation — no fault schedule, however hostile or
//!    malformed, panics the stack.
//!
//! Beside them, a restart reference property: `ChaosRunner::run_job`
//! equals, bit for bit, a reference written out below that simulates every
//! attempt anew, so reusing an unchanged attempt's schedule cannot change
//! an outcome.

use autonomous_data_services::core::feedback::{
    FeedbackLoop, LoopConfig, ModelRegistry, MonitorVerdict,
};
use autonomous_data_services::core::guardrails::{Decision, GuardrailSet, Verdict};
use autonomous_data_services::engine::cost::CostModel;
use autonomous_data_services::engine::exec::{ClusterConfig, ExecReport, SimOptions, Simulator};
use autonomous_data_services::engine::physical::{StageDag, StageId};
use autonomous_data_services::faultsim::{
    AttemptFailure, ChaosOutcome, ChaosRunner, DelayedFeedback, FaultCause, FaultConfig,
    FaultEvent, FaultInjector, FaultSchedule, ModelFaults, Served,
};
use autonomous_data_services::infra::machine::{MachineFleet, SkuSpec};
use autonomous_data_services::learned::cost::{CostEnsemble, CostTrainConfig};
use autonomous_data_services::obs::Obs;
use autonomous_data_services::telemetry::schema::SemanticSchema;
use autonomous_data_services::telemetry::TelemetryStore;
use autonomous_data_services::workload::gen::{GeneratorConfig, WorkloadGenerator};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::OnceLock;

fn workload() -> autonomous_data_services::workload::gen::GeneratedWorkload {
    WorkloadGenerator::new(GeneratorConfig {
        days: 2,
        jobs_per_day: 40,
        ..Default::default()
    })
    .expect("valid config")
    .generate()
    .expect("generates")
}

fn dags(w: &autonomous_data_services::workload::gen::GeneratedWorkload, n: usize) -> Vec<StageDag> {
    let cm = CostModel::default();
    w.trace
        .jobs()
        .iter()
        .take(n)
        .map(|j| StageDag::compile(&j.plan, &w.catalog, &cm).expect("compiles"))
        .collect()
}

/// Every fault config the suite builds passes through here, so each one is
/// checked by `FaultConfig::validate` before it injects anything.
fn valid_injector(seed: u64, config: FaultConfig) -> FaultInjector {
    config
        .validate()
        .expect("the suite's fault configs are valid");
    FaultInjector::new(seed, config)
}

// ---------------------------------------------------------------- property 1

/// Same seed ⇒ identical `ExecReport`s, down to the serialized bytes; a
/// different seed diverges somewhere across the job set.
#[test]
fn chaos_same_seed_produces_identical_exec_reports() {
    let w = workload();
    let dags = dags(&w, 12);
    let cluster = ClusterConfig::default();
    let runner =
        ChaosRunner::with_obs(cluster, f64::INFINITY, Obs::disabled()).expect("valid cluster");

    let run_all = |seed: u64| -> Vec<String> {
        let injector = valid_injector(seed, FaultConfig::standard());
        dags.iter()
            .enumerate()
            .map(|(i, dag)| {
                let schedule = injector.schedule_for(i as u64, cluster.machines);
                let checkpointed: HashSet<StageId> = dag.stages().iter().map(|s| s.id).collect();
                let outcome = runner.run_job(dag, &checkpointed, &schedule).expect("runs");
                serde_json::to_string(&outcome).expect("serializes")
            })
            .collect()
    };

    let a = run_all(42);
    let b = run_all(42);
    assert_eq!(a, b, "same seed must replay byte-identically");
    let c = run_all(43);
    assert_ne!(a, c, "different seeds must diverge over 12 jobs");
}

// ---------------------------------------------------------------- property 2

/// A checkpointed stage that completed before a fault is never executed
/// again — across every seed, schedule and checkpoint subset tried.
#[test]
fn chaos_checkpointed_stages_never_recompute_after_restarts() {
    let w = workload();
    let dags = dags(&w, 8);
    let cluster = ClusterConfig::default();
    // Make faults certain so every job actually restarts.
    let config = FaultConfig {
        task_crash_rate: 1.0,
        machine_loss_rate: 1.0,
        ..FaultConfig::standard()
    };
    let runner =
        ChaosRunner::with_obs(cluster, f64::INFINITY, Obs::disabled()).expect("valid cluster");
    for seed in 0..8u64 {
        let injector = valid_injector(seed, config);
        for (i, dag) in dags.iter().enumerate() {
            let schedule = injector.schedule_for(i as u64, cluster.machines);
            // All checkpointed, half checkpointed, none checkpointed.
            let all: HashSet<StageId> = dag.stages().iter().map(|s| s.id).collect();
            let half: HashSet<StageId> = dag
                .stages()
                .iter()
                .map(|s| s.id)
                .filter(|id| id.0 % 2 == 0)
                .collect();
            for ckpt in [&all, &half, &HashSet::new()] {
                let outcome = runner.run_job(dag, ckpt, &schedule).expect("runs");
                assert_eq!(
                    outcome.recomputed_checkpointed, 0,
                    "seed {seed} job {i}: checkpointed stage recomputed"
                );
                if !schedule.is_empty() {
                    assert!(outcome.attempts >= 2, "faults must actually fire");
                }
            }
        }
    }
}

/// ISSUE 3 satellite: the restart loop used to swallow *why* each attempt
/// died. Every injected fault now surfaces as a typed `AttemptFailure`
/// carrying its cause, strike fraction and surviving-stage count, and the
/// causes serialize with the outcome so recorded baselines capture them.
#[test]
fn chaos_attempt_failures_carry_typed_causes() {
    let w = workload();
    let dags = dags(&w, 6);
    let cluster = ClusterConfig::default();
    let config = FaultConfig {
        task_crash_rate: 1.0,
        machine_loss_rate: 1.0,
        ..FaultConfig::standard()
    };
    let runner =
        ChaosRunner::with_obs(cluster, f64::INFINITY, Obs::disabled()).expect("valid cluster");
    let injector = valid_injector(11, config);
    let mut causes_seen: HashSet<&'static str> = HashSet::new();
    for (i, dag) in dags.iter().enumerate() {
        let schedule = injector.schedule_for(i as u64, cluster.machines);
        let all: HashSet<StageId> = dag.stages().iter().map(|s| s.id).collect();
        let outcome = runner.run_job(dag, &all, &schedule).expect("runs");
        assert_eq!(
            outcome.attempt_failures.len(),
            outcome.injected,
            "job {i}: every injected fault must surface its cause"
        );
        for (idx, failure) in outcome.attempt_failures.iter().enumerate() {
            assert_eq!(failure.attempt, idx + 1, "failures arrive in attempt order");
            assert!((0.0..=1.0).contains(&failure.at));
            assert!(failure.surviving_stages <= dag.len());
            causes_seen.insert(failure.cause.kind());
            match failure.cause {
                FaultCause::TaskCrash => {}
                FaultCause::MachineLoss { machine } => assert!(machine < cluster.machines),
                FaultCause::TempExhaustion { hotspot } => assert!(hotspot < cluster.machines),
            }
        }
        let json = serde_json::to_string(&outcome).expect("serializes");
        assert!(json.contains("attempt_failures"));
    }
    assert!(
        causes_seen.contains("task_crash") && causes_seen.contains("machine_loss"),
        "forced crash+loss rates must exercise both causes, saw {causes_seen:?}"
    );
}

/// With everything checkpointed, recovery is never slower than with
/// nothing checkpointed — the paper's reason to checkpoint at all.
#[test]
fn chaos_full_checkpointing_never_hurts_under_faults() {
    let w = workload();
    let dags = dags(&w, 6);
    let cluster = ClusterConfig::default();
    let runner =
        ChaosRunner::with_obs(cluster, f64::INFINITY, Obs::disabled()).expect("valid cluster");
    let injector = valid_injector(
        5,
        FaultConfig {
            task_crash_rate: 1.0,
            ..FaultConfig::standard()
        },
    );
    for (i, dag) in dags.iter().enumerate() {
        let schedule = injector.schedule_for(i as u64, cluster.machines);
        let all: HashSet<StageId> = dag.stages().iter().map(|s| s.id).collect();
        let ckpt = runner.run_job(dag, &all, &schedule).expect("runs");
        let bare = runner
            .run_job(dag, &HashSet::new(), &schedule)
            .expect("runs");
        assert!(ckpt.total_latency <= bare.total_latency + 1e-9, "job {i}");
    }
}

// ------------------------------------------------------- restart reference

/// The restart rules written out plainly: every attempt is simulated anew
/// through `Simulator::run_with_placement`, and the final run through
/// `Simulator::run`.
/// - A task crash keeps the first `floor(n·at)` stages by stable finish
///   order, if checkpointed or precomputed.
/// - A machine loss, or a temp exhaustion that fires (hotspot peak above
///   capacity; the hotspot is the last machine with the highest peak),
///   keeps the stages finished by `latency·at` that are checkpointed,
///   precomputed, or ran entirely off the lost machine.
///
/// Machine indices clamp into the cluster and `at` into `[0, 1]`.
fn reference_outcome(
    sim: &Simulator,
    machines: usize,
    temp_capacity: f64,
    dag: &StageDag,
    checkpointed: &HashSet<StageId>,
    schedule: &FaultSchedule,
) -> ChaosOutcome {
    let mut precomputed: HashSet<StageId> = HashSet::new();
    let mut persisted: HashSet<StageId> = HashSet::new();
    let mut recomputed_checkpointed = 0;
    let mut clock = 0.0;
    let mut attempt_failures = Vec::new();
    for &event in &schedule.events {
        let options = SimOptions {
            checkpointed: checkpointed.clone(),
            precomputed: precomputed.clone(),
        };
        let (report, placement) = sim.run_with_placement(dag, &options);
        recomputed_checkpointed += persisted.iter().filter(|id| report.executed[id.0]).count();
        let at = event.strike_fraction().clamp(0.0, 1.0);
        let stored = |id: &StageId| checkpointed.contains(id) || precomputed.contains(id);
        let losing = |machine: usize| -> HashSet<StageId> {
            (0..dag.len())
                .map(StageId)
                .filter(|id| report.stage_finish[id.0] <= report.latency * at)
                .filter(|id| stored(id) || !placement[id.0].contains(&machine))
                .collect()
        };
        let (survivors, cause) = match event {
            FaultEvent::TaskCrash { .. } => {
                let mut order: Vec<usize> = (0..dag.len()).collect();
                order.sort_by(|&a, &b| {
                    report.stage_finish[a]
                        .partial_cmp(&report.stage_finish[b])
                        .expect("finish times are numbers")
                });
                let completed = (dag.len() as f64 * at).floor() as usize;
                let kept = order[..completed].iter().map(|&i| StageId(i));
                (kept.filter(stored).collect(), FaultCause::TaskCrash)
            }
            FaultEvent::MachineLoss { machine, .. } => {
                let machine = machine.min(machines - 1);
                (losing(machine), FaultCause::MachineLoss { machine })
            }
            FaultEvent::TempExhaustion { .. } => {
                if report.hotspot_peak() <= temp_capacity {
                    continue;
                }
                let mut hotspot = 0;
                for (m, &peak) in report.machine_temp_peak.iter().enumerate() {
                    if peak >= report.machine_temp_peak[hotspot] {
                        hotspot = m;
                    }
                }
                (losing(hotspot), FaultCause::TempExhaustion { hotspot })
            }
        };
        clock += report.latency * at;
        attempt_failures.push(AttemptFailure {
            attempt: attempt_failures.len() + 1,
            cause,
            at,
            surviving_stages: survivors.len(),
        });
        persisted.extend(survivors.iter().filter(|id| checkpointed.contains(id)));
        precomputed.extend(survivors);
    }
    let final_report = sim
        .run(
            dag,
            &SimOptions {
                checkpointed: checkpointed.clone(),
                precomputed,
            },
        )
        .expect("runs");
    recomputed_checkpointed += persisted
        .iter()
        .filter(|id| final_report.executed[id.0])
        .count();
    ChaosOutcome {
        total_latency: clock + final_report.latency,
        final_report,
        attempts: attempt_failures.len() + 1,
        injected: attempt_failures.len(),
        recomputed_checkpointed,
        attempt_failures,
    }
}

/// A report with every float replaced by its bits, so `-0.0` and `0.0`
/// differ and a NaN equals only its own bits.
type ReportBits = (u64, u64, Vec<u64>, Vec<u64>, Vec<u64>, Vec<bool>);

fn report_bits(report: &ExecReport) -> ReportBits {
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    (
        report.latency.to_bits(),
        report.total_cpu_seconds.to_bits(),
        bits(&report.stage_start),
        bits(&report.stage_finish),
        bits(&report.machine_temp_peak),
        report.executed.clone(),
    )
}

fn failure_bits(failures: &[AttemptFailure]) -> Vec<(usize, FaultCause, u64, usize)> {
    failures
        .iter()
        .map(|f| (f.attempt, f.cause, f.at.to_bits(), f.surviving_stages))
        .collect()
}

/// The suite's generated workload, compiled once for every case.
fn suite_dags() -> &'static [StageDag] {
    static DAGS: OnceLock<Vec<StageDag>> = OnceLock::new();
    DAGS.get_or_init(|| dags(&workload(), 24))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `run_job` equals the reference above on every `ChaosOutcome` field,
    /// floats by their bits. The inputs make a repeated attempt certain
    /// (nothing checkpointed and a task crash) as well as attempts that
    /// change the inputs (machine loss with survivors, temp exhaustion that
    /// fires), on clusters where the fault machine is often out of range.
    #[test]
    fn chaos_restarts_match_a_reference_that_simulates_every_attempt(
        job in 0usize..24,
        checkpoint_kind in 0u8..4,
        checkpoint_mask in 0u64..u64::MAX,
        small_cluster in 0u8..2,
        capacity_kind in 0u8..3,
        events in proptest::collection::vec(
            prop_oneof![
                (-0.3f64..1.3).prop_map(|at| FaultEvent::TaskCrash { at }),
                (0usize..24, -0.3f64..1.3)
                    .prop_map(|(machine, at)| FaultEvent::MachineLoss { machine, at }),
                (-0.3f64..1.3).prop_map(|at| FaultEvent::TempExhaustion { at }),
            ],
            0..7,
        ),
    ) {
        let dag = &suite_dags()[job];
        let checkpointed: HashSet<StageId> = dag
            .stages()
            .iter()
            .map(|s| s.id)
            .filter(|id| match checkpoint_kind {
                0 => false,
                1 => true,
                2 => id.0 % 2 == 0,
                _ => checkpoint_mask >> (id.0 % 64) & 1 == 1,
            })
            .collect();
        let cluster = if small_cluster == 1 {
            ClusterConfig {
                machines: 3,
                slots_per_machine: 2,
                ..ClusterConfig::default()
            }
        } else {
            ClusterConfig::default()
        };
        let sim = Simulator::with_obs(cluster, Obs::disabled()).expect("valid cluster");
        // The middle capacity sits at half the fault-free hotspot, so
        // exhaustion fires on a first attempt and may stop firing once
        // survivors shrink the later attempts.
        let temp_capacity = match capacity_kind {
            0 => 1.0,
            1 => f64::INFINITY,
            _ => {
                let plain = sim
                    .run(dag, &SimOptions { checkpointed: checkpointed.clone(), ..SimOptions::default() })
                    .expect("runs");
                plain.hotspot_peak() / 2.0
            }
        };
        let schedule = FaultSchedule { events };
        let runner = ChaosRunner::with_obs(cluster, temp_capacity, Obs::disabled())
            .expect("valid cluster");
        let outcome = runner.run_job(dag, &checkpointed, &schedule).expect("runs");
        let expected = reference_outcome(
            &sim,
            cluster.machines,
            temp_capacity,
            dag,
            &checkpointed,
            &schedule,
        );
        prop_assert_eq!(report_bits(&outcome.final_report), report_bits(&expected.final_report));
        prop_assert_eq!(outcome.attempts, expected.attempts);
        prop_assert_eq!(outcome.injected, expected.injected);
        prop_assert_eq!(outcome.recomputed_checkpointed, expected.recomputed_checkpointed);
        prop_assert_eq!(outcome.total_latency.to_bits(), expected.total_latency.to_bits());
        prop_assert_eq!(
            failure_bits(&outcome.attempt_failures),
            failure_bits(&expected.attempt_failures)
        );
    }
}

// ---------------------------------------------------------------- property 3

/// A poisoned cost model inflates predicted performance; `GuardrailSet`
/// blocks every decision the poison pushes past tolerance, while the same
/// decisions under the clean model pass.
#[test]
fn chaos_guardrails_block_poisoned_model_regressions() {
    let w = workload();
    let history: Vec<_> = w
        .trace
        .jobs()
        .iter()
        .take(60)
        .map(|j| j.plan.clone())
        .collect();
    let (ensemble, _) = CostEnsemble::train(&w.catalog, &history, CostTrainConfig::default());
    let guards = GuardrailSet::standard();
    let faults = ModelFaults::new(3, 0.0, 0.0, FaultConfig::standard().poison_factor);
    assert!(
        faults.poison_factor() > 1.05,
        "poison must exceed regression tolerance"
    );

    let mut clean_allowed = 0usize;
    let mut poisoned_blocked = 0usize;
    let mut evaluated = 0usize;
    for job in w.trace.jobs().iter().skip(60).take(40) {
        let clean = ensemble.predict(&job.plan);
        let baseline = clean; // an honest model predicts the baseline
        let decision = |predicted: f64| Decision {
            predicted_perf: predicted,
            baseline_perf: baseline,
            predicted_cost: 1.0,
            baseline_cost: 1.0,
            group: 0,
        };
        evaluated += 1;
        if guards.check(&decision(clean)) == Verdict::Allow {
            clean_allowed += 1;
        }
        match guards.check(&decision(faults.poisoned(clean))) {
            Verdict::Block(reason) => {
                poisoned_blocked += 1;
                assert!(reason.contains("regression"), "wrong guard fired: {reason}");
            }
            Verdict::Allow => panic!("poisoned regression slipped past the guardrails"),
        }
    }
    assert_eq!(clean_allowed, evaluated, "clean predictions must all pass");
    assert_eq!(poisoned_blocked, evaluated);
}

/// The feedback loop detects a poisoned deployment even when observations
/// arrive late, and rolls back to the clean version.
#[test]
fn chaos_delayed_feedback_still_rolls_back_poisoned_model() {
    let poison = 3.5f64;
    let mut registry = ModelRegistry::new();
    registry.deploy(1.0f64, 0.02); // clean multiplier
    registry.deploy(poison, 0.02); // poisoned deployment with optimistic error
    let mut monitor = FeedbackLoop::with_obs(
        LoopConfig {
            window: 10,
            ..Default::default()
        },
        Obs::disabled(),
    );
    let mut pipe = DelayedFeedback::new(FaultConfig::standard().feedback_delay);

    let mut rolled_back_at = None;
    for step in 0..200usize {
        let current = registry.current().expect("deployed");
        let actual = 1.0; // ground truth unchanged
        let prediction = current.model * actual;
        if let Some((p, a)) = pipe.push(prediction, actual) {
            if monitor.observe(p, a, current.deployment_error) == MonitorVerdict::Rollback {
                registry.rollback();
                monitor.reset();
                rolled_back_at = Some(step);
                break;
            }
        }
    }
    let step = rolled_back_at.expect("monitor must catch the poisoned model");
    // Delay postpones detection past the bare window but cannot prevent it.
    assert!(step >= 10, "rollback cannot precede a full window");
    assert_eq!(registry.current().expect("deployed").model, 1.0);
}

// ---------------------------------------------------------------- property 4

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any schedule — including machine indices far out of range and strike
    /// fractions outside [0, 1] — completes without panicking, fires at
    /// most its own length, and still produces a positive-latency report.
    #[test]
    fn chaos_arbitrary_schedules_never_panic(
        seed in 0u64..1_000,
        events in proptest::collection::vec(
            prop_oneof![
                (0.0f64..1.5).prop_map(|at| FaultEvent::TaskCrash { at }),
                (0usize..64, -0.2f64..1.2)
                    .prop_map(|(machine, at)| FaultEvent::MachineLoss { machine, at }),
                (0.0f64..1.0).prop_map(|at| FaultEvent::TempExhaustion { at }),
            ],
            0..6,
        ),
        capacity_exp in 0u32..12,
    ) {
        let w = WorkloadGenerator::new(GeneratorConfig {
            days: 1,
            jobs_per_day: 10,
            seed,
            ..Default::default()
        })
        .expect("valid config")
        .generate()
        .expect("generates");
        let cm = CostModel::default();
        let job = &w.trace.jobs()[(seed % 10) as usize];
        let dag = StageDag::compile(&job.plan, &w.catalog, &cm).expect("compiles");
        let capacity = 10f64.powi(capacity_exp as i32);
        let runner = ChaosRunner::with_obs(ClusterConfig::default(), capacity, Obs::disabled())
            .expect("valid cluster");
        let schedule = FaultSchedule { events: events.clone() };
        let half: HashSet<StageId> =
            dag.stages().iter().map(|s| s.id).filter(|id| id.0 % 2 == 0).collect();
        let outcome = runner.run_job(&dag, &half, &schedule).expect("never errors");
        prop_assert!(outcome.injected <= events.len());
        prop_assert_eq!(outcome.attempts, outcome.injected + 1);
        prop_assert_eq!(outcome.recomputed_checkpointed, 0);
        // A fault striking at fraction >= 1.0 hits a job that already
        // finished, so the final attempt may legitimately run nothing —
        // but some attempt always did real work.
        prop_assert!(outcome.total_latency > 0.0);
        prop_assert!(outcome.final_report.latency >= 0.0);
        prop_assert!(outcome.total_latency >= outcome.final_report.latency - 1e-9);
    }

    /// Telemetry perturbed under any rate still flows through the semantic
    /// schema into the store without violating its ordering contract, and
    /// the dropout rate observed matches the configured one loosely.
    #[test]
    fn chaos_perturbed_telemetry_always_ingestible(
        seed in 0u64..1_000,
        dropout in 0.0f64..0.9,
        burst_rate in 0.0f64..0.3,
        burst_len in 0usize..8,
    ) {
        let fleet = MachineFleet::new(SkuSpec::standard_fleet(), 3);
        let clean = fleet.generate_telemetry(24, 0.05, seed);
        let injector = valid_injector(
            seed,
            FaultConfig {
                telemetry_dropout: dropout,
                outlier_burst_rate: burst_rate,
                outlier_burst_len: burst_len,
                ..FaultConfig::standard()
            },
        );
        let (perturbed, stats) = injector.telemetry_faults().perturb(&clean, 0);
        prop_assert_eq!(stats.dropped + stats.corrupted + stats.clean, clean.len());
        let store = TelemetryStore::new();
        let written = fleet
            .emit_to_store(&perturbed, &SemanticSchema::standard(), &store)
            .expect("perturbed telemetry must stay ingestible");
        prop_assert_eq!(written, perturbed.len() * 3);
    }

    /// Model serving under any staleness/timeout mix degrades gracefully:
    /// every call yields a usable value via the fallback path, and the
    /// fresh-path values are exact.
    #[test]
    fn chaos_model_serving_always_yields_usable_values(
        seed in 0u64..1_000,
        staleness in 0.0f64..1.0,
        timeout in 0.0f64..1.0,
    ) {
        let mut faults = ModelFaults::new(seed, staleness, timeout, 1.0);
        let fallback = 123.0;
        for i in 0..100 {
            let clean = 1.0 + i as f64;
            let served = faults.serve(clean);
            let value = served.value_or(fallback);
            prop_assert!(value.is_finite() && value > 0.0);
            if let Served::Fresh(v) = served {
                prop_assert_eq!(v, clean);
            }
        }
    }
}

// ---------------------------------------------------------------- property 5

/// Runs the gateway breaker scenario once: heavy injected timeouts open the
/// per-model breaker, the run completes on the heuristic fallback, faults
/// clear, and half-open probes close the breaker again. Returns the
/// serialized flight-recorder trace (breaker transitions included).
fn gateway_breaker_scenario(seed: u64) -> (String, autonomous_data_services::serve::GatewayStats) {
    use autonomous_data_services::obs::Obs;
    use autonomous_data_services::serve::{BreakerState, FnModel, Gateway, GatewayConfig, Source};
    use std::sync::Arc;

    let obs = Obs::recording();
    let mut config = GatewayConfig::standard();
    config.cache_capacity = 0; // every request must face the fault channel
    let gateway = Gateway::with_obs(config, obs.clone());
    let handle = gateway.register("chaos/cardinality", |f: &[f64]| f[0] + 1.0);
    gateway
        .publish(handle, Arc::new(FnModel(|f: &[f64]| f[0] * 2.0)), 0.0)
        .expect("registered");

    // Phase 1: a hostile fault channel — most calls time out or serve
    // stale. The breaker must open; every answer must stay usable.
    gateway
        .inject_faults(handle, ModelFaults::new(seed, 0.3, 0.5, 1.0))
        .expect("registered");
    let mut opened = false;
    for t in 0..120u64 {
        let p = gateway
            .predict(handle, &[(t % 13) as f64], t as f64)
            .expect("registered");
        assert!(p.value.is_finite(), "degraded serving must stay usable");
        if gateway.breaker_state(handle).expect("registered") == BreakerState::Open {
            opened = true;
        }
    }
    assert!(opened, "sustained timeouts must open the breaker");

    // Phase 2: the model recovers. Half-open probes (after the cooldown)
    // must close the breaker and hand serving back to the model.
    gateway.clear_faults(handle).expect("registered");
    let mut last_source = None;
    for t in 200..260u64 {
        let p = gateway
            .predict(handle, &[(t % 13) as f64], t as f64)
            .expect("registered");
        assert!(p.value.is_finite());
        last_source = Some(p.source);
    }
    assert_eq!(
        gateway.breaker_state(handle).expect("registered"),
        BreakerState::Closed,
        "probes against the recovered model must close the breaker"
    );
    assert_eq!(last_source, Some(Source::Model));

    let stats = gateway.stats();
    let trace = obs.snapshot();
    assert!(
        trace
            .events
            .iter()
            .any(|e| e.name == "breaker_transition" && e.field("to") == Some("open")),
        "the trace must record the breaker opening"
    );
    assert!(
        trace
            .events
            .iter()
            .any(|e| e.name == "breaker_transition" && e.field("to") == Some("closed")),
        "the trace must record the breaker closing"
    );
    (
        serde_json::to_string(&trace).expect("trace serializes"),
        stats,
    )
}

/// Injected model timeouts open the circuit breaker, the run completes on
/// the registered heuristic fallback, and the same seed replays a
/// byte-identical trace — breaker transitions included. A different seed
/// draws a different fault pattern.
#[test]
fn chaos_gateway_breaker_trips_and_replays_byte_identically() {
    let (trace_a, stats_a) = gateway_breaker_scenario(7);
    let (trace_b, stats_b) = gateway_breaker_scenario(7);
    assert_eq!(trace_a, trace_b, "same seed must replay byte-identically");
    assert_eq!(stats_a.fallbacks, stats_b.fallbacks);
    assert!(stats_a.fallbacks > 0, "degraded mode must actually engage");
    assert!(stats_a.stale > 0, "staleness channel must actually engage");

    let (trace_c, _) = gateway_breaker_scenario(8);
    assert_ne!(trace_a, trace_c, "a different seed must draw differently");
}
