//! The autonomy controller: closes the feedback loop end to end.
//!
//! The paper's deployability thesis (Zhu et al., §3–4) is that a learned
//! component ships *because* drift detection, guarded serving, and
//! rollback are wired into one unattended cycle. The pieces have existed in
//! this repo for several PRs — `core::feedback::FeedbackLoop` detects
//! drift, the gateway guards and breaks, `ModelRegistry` rolls back — but
//! something still had to call `publish` and `rollback`. This module is
//! that something:
//!
//! ```text
//!            drift / guard trip / breaker streak
//!   Stable ────────────────────────────────────▶ retrain
//!     ▲                                            │ stage
//!     │ promote (promote_streak                    ▼
//!     │  healthy windows)                       Shadow ── 1 healthy window ──▶ Canary
//!     │                                            │                            │
//!     └────────────────────────────────────────────┴──── demote (demote_streak ─┘
//!                                                         unhealthy windows,
//!                                                         doubling restage backoff)
//! ```
//!
//! Hysteresis is the load-bearing part: promotion requires
//! `promote_streak` *consecutive* healthy evaluation windows of at least
//! `min_decisions` observations each, and any unhealthy window resets the
//! streak — so a flapping candidate (healthy window, poisoned window, …)
//! can never accumulate the streak, while a genuinely healthy one promotes
//! after a bounded delay. Every transition is recorded as a typed
//! deployment record with its triggering cause, and all state is driven by
//! simulated time and caller-order observations, so same-seed runs replay
//! byte-identical traces.

use crate::canary::DeployPhase;
use crate::gateway::{FallbackCause, Gateway, Prediction, Source};
use crate::model::{ModelHandle, ServableModel};
use crate::{BreakerState, Result};
use adas_core::feedback::{FeedbackLoop, LoopConfig, MonitorVerdict};
use adas_obs::{digest_f64, Obs, Provenance};
use adas_simkern::{Cooldown, CountWindow};
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

const COMPONENT: &str = "serve.autonomy";

/// Canary/shadow evaluation policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CanaryConfig {
    /// Percentage of live traffic a canary-phase candidate serves (0–100).
    pub traffic_pct: u8,
    /// Stage candidates in shadow phase first; one healthy window advances
    /// them to canary. When false, candidates start directly in canary.
    pub shadow_first: bool,
    /// Minimum candidate observations per evaluation window. Promotion can
    /// never happen from fewer observed decisions than this.
    pub min_decisions: usize,
    /// Consecutive healthy windows required to promote (hysteresis).
    pub promote_streak: u32,
    /// Consecutive unhealthy windows required to demote.
    pub demote_streak: u32,
    /// A window is *healthy* when the candidate's mean absolute error is at
    /// most this factor times the baseline (primary's windowed error, floored
    /// by its deployment-time claim).
    pub promote_error_factor: f64,
    /// A window is *unhealthy* when the candidate's mean absolute error
    /// exceeds this factor times the baseline. Between the two factors the
    /// window is inconclusive: it resets the promote streak but does not
    /// count toward demotion.
    pub demote_error_factor: f64,
    /// Simulated ticks to wait after a demotion before staging the next
    /// candidate.
    pub restage_backoff_ticks: f64,
    /// Cap on the restage backoff (it doubles per consecutive demotion).
    pub max_restage_backoff_ticks: f64,
}

impl Default for CanaryConfig {
    fn default() -> Self {
        Self {
            traffic_pct: 20,
            shadow_first: true,
            min_decisions: 8,
            promote_streak: 2,
            demote_streak: 2,
            promote_error_factor: 1.1,
            demote_error_factor: 2.0,
            restage_backoff_ticks: 32.0,
            max_restage_backoff_ticks: 512.0,
        }
    }
}

/// Aggregate service-health input derived from SLO burn-rate analysis —
/// produced by `watchtower`'s SLO engine over flight-recorder windows (or
/// any other monitor) and fed to [`AutonomyController::ingest_health`].
///
/// A burn rate of 1.0 means the service is consuming its error budget
/// exactly as fast as the SLO allows; 10.0 means the budget burns ten
/// times too fast. The two windows implement the classic multi-window
/// alert: the *fast* window catches a fresh regression quickly, the
/// *slow* window keeps a short blip from triggering, and an action fires
/// only when both agree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HealthSignal {
    /// Error-budget burn rate averaged over the short alert window.
    pub fast_burn: f64,
    /// Error-budget burn rate averaged over the long alert window.
    pub slow_burn: f64,
    /// Complete tumbling windows that informed the signal; signals below
    /// [`SloPolicy::min_windows`] are ignored as warm-up noise.
    pub windows: u32,
}

impl HealthSignal {
    /// The burn rate both alert windows agree on (their minimum) — the
    /// value [`SloPolicy`] thresholds are compared against.
    pub fn sustained_burn(&self) -> f64 {
        self.fast_burn.min(self.slow_burn)
    }
}

/// Maps SLO burn rates to autonomy actions: how hot the error budget must
/// burn before the controller rolls back or schedules a retrain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SloPolicy {
    /// Sustained burn at or above this rolls back the serving version (or
    /// demotes a staged candidate) with cause `slo_burn`.
    pub rollback_burn: f64,
    /// Sustained burn at or above this (but below `rollback_burn`)
    /// schedules a retrain with cause `slo_burn`.
    pub retrain_burn: f64,
    /// Minimum complete SLO windows before a signal is actionable.
    pub min_windows: u32,
    /// Simulated ticks to ignore further health signals after an
    /// SLO-triggered action — trailing windows still contain pre-action
    /// bad events, and acting on them again would thrash the registry.
    pub action_cooldown_ticks: f64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        Self {
            rollback_burn: 8.0,
            retrain_burn: 2.0,
            min_windows: 2,
            action_cooldown_ticks: 32.0,
        }
    }
}

/// Controller tuning for one supervised model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AutonomyConfig {
    /// Drift monitor over primary-served observations.
    pub monitor: LoopConfig,
    /// Candidate evaluation policy.
    pub canary: CanaryConfig,
    /// SLO burn-rate thresholds for [`AutonomyController::ingest_health`].
    pub slo: SloPolicy,
    /// Consecutive poison-guard fallbacks that trigger an automatic
    /// rollback (or candidate demotion when one is staged).
    pub guarded_streak: u32,
    /// Consecutive observations with the breaker open that trigger an
    /// automatic rollback.
    pub breaker_open_streak: u32,
    /// Minimum simulated ticks between retrain attempts.
    pub retrain_cooldown_ticks: f64,
    /// Minimum buffered `(features, actual)` pairs before the retrainer is
    /// invoked.
    pub min_retrain_observations: usize,
}

impl Default for AutonomyConfig {
    fn default() -> Self {
        Self {
            monitor: LoopConfig::default(),
            canary: CanaryConfig::default(),
            slo: SloPolicy::default(),
            guarded_streak: 6,
            breaker_open_streak: 12,
            retrain_cooldown_ticks: 16.0,
            min_retrain_observations: 16,
        }
    }
}

/// One action the controller took autonomously, returned from
/// [`AutonomyController::observe`] so callers (and tests) can audit the
/// loop without reading the trace.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum AutonomyAction {
    /// Serving was rolled back to an earlier version.
    RolledBack {
        /// The new serving version (the redeployed earlier model).
        version: u64,
        /// What triggered it (`monitor_rollback`, `guard_trip_streak`,
        /// `breaker_open_streak`).
        cause: String,
    },
    /// A retrain was scheduled (drift detected, or recovery after an
    /// incident); the retrainer runs once enough observations accumulate
    /// and cooldowns elapse.
    RetrainScheduled {
        /// What triggered it.
        cause: String,
    },
    /// The retrainer produced a model and it was staged as a candidate.
    CandidateStaged {
        /// The candidate's provisional version.
        version: u64,
        /// Phase it was staged in.
        phase: DeployPhase,
    },
    /// A shadow-phase candidate advanced to canary traffic.
    CanaryStarted {
        /// The candidate's provisional version.
        version: u64,
    },
    /// The candidate passed evaluation and is now the serving version.
    Promoted {
        /// The deployed version.
        version: u64,
    },
    /// The candidate failed evaluation and was discarded.
    Demoted {
        /// The discarded candidate's provisional version.
        version: u64,
        /// What triggered it.
        cause: String,
    },
}

/// Produces a fresh model from recent `(features, actual)` observations,
/// with its claimed deployment error. `None` means "not enough signal yet"
/// — the retrain stays scheduled and is retried after the cooldown.
pub type Retrainer = Box<dyn FnMut(&[(Vec<f64>, f64)]) -> Option<(Arc<dyn ServableModel>, f64)>>;

/// Per-model supervision state.
struct Supervised {
    config: AutonomyConfig,
    retrainer: Retrainer,
    monitor: FeedbackLoop,
    /// Recent `(features, actual)` pairs, the retrainer's training set.
    history: VecDeque<(Vec<f64>, f64)>,
    /// Consecutive poison-guard fallbacks.
    guarded_streak: u32,
    /// Consecutive observations with the breaker open.
    breaker_open_streak: u32,
    /// A retrain is wanted but has not produced a staged candidate yet.
    retrain_pending: Option<String>,
    /// No retrain before this tick (cooldown / restage backoff).
    retrain_cooldown: Cooldown,
    /// Current restage backoff (doubles per consecutive demotion).
    restage_backoff: f64,
    /// Candidate absolute errors in the current tumbling window.
    cand_window: CountWindow,
    /// Primary absolute errors (bounded, for the evaluation baseline).
    prim_recent: VecDeque<f64>,
    /// Consecutive healthy candidate windows.
    healthy_windows: u32,
    /// Consecutive unhealthy candidate windows.
    unhealthy_windows: u32,
    /// Shadow samples drained from the gateway, awaiting their actuals.
    pending_shadow: VecDeque<(u64, f64)>,
    /// No SLO-triggered action before this tick (post-action cooldown,
    /// so trailing bad windows don't double-fire).
    slo_action_cooldown: Cooldown,
}

impl Supervised {
    fn new(config: AutonomyConfig, retrainer: Retrainer, obs: Obs) -> Self {
        Self {
            monitor: FeedbackLoop::with_obs(config.monitor, obs),
            retrainer,
            history: VecDeque::new(),
            guarded_streak: 0,
            breaker_open_streak: 0,
            retrain_pending: None,
            retrain_cooldown: Cooldown::ready_now(),
            restage_backoff: config.canary.restage_backoff_ticks,
            cand_window: CountWindow::new(),
            prim_recent: VecDeque::new(),
            healthy_windows: 0,
            unhealthy_windows: 0,
            pending_shadow: VecDeque::new(),
            slo_action_cooldown: Cooldown::ready_now(),
            config,
        }
    }

    /// Resets all serving-quality state after a deployment change — the new
    /// version starts with a clean slate.
    fn reset_after_swap(&mut self) {
        self.monitor.reset();
        self.guarded_streak = 0;
        self.breaker_open_streak = 0;
        self.cand_window.clear();
        self.prim_recent.clear();
        self.healthy_windows = 0;
        self.unhealthy_windows = 0;
        self.pending_shadow.clear();
    }

    fn history_cap(&self) -> usize {
        (2 * self.config.monitor.window).max(self.config.min_retrain_observations)
    }
}

/// Closes the loop for any set of gateway-served models: feed it every
/// `(request, prediction, actual)` triple and it drives drift-triggered
/// retrains, shadow/canary evaluation, hysteretic promotion, and automatic
/// rollbacks — no manual `publish`/`rollback` anywhere.
///
/// All decisions are pure functions of the observation sequence and
/// simulated time, so the whole loop replays byte-identically under one
/// seed.
pub struct AutonomyController {
    gateway: Gateway,
    obs: Obs,
    supervised: HashMap<usize, Supervised>,
}

impl AutonomyController {
    /// Creates a controller over `gateway`, recording its decisions into
    /// `obs`.
    pub fn new(gateway: Gateway, obs: Obs) -> Self {
        Self {
            gateway,
            obs,
            supervised: HashMap::new(),
        }
    }

    /// The supervised gateway.
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// Puts a model under supervision with `config`, using `retrainer` to
    /// produce replacement models when drift or incidents demand one.
    pub fn supervise(&mut self, handle: ModelHandle, config: AutonomyConfig, retrainer: Retrainer) {
        self.supervised.insert(
            handle.index(),
            Supervised::new(config, retrainer, self.obs.clone()),
        );
    }

    /// Bootstrap publish: installs the first version of a supervised model
    /// (cause `bootstrap`). Subsequent versions only arrive through the
    /// loop itself.
    pub fn install(
        &mut self,
        handle: ModelHandle,
        model: Arc<dyn ServableModel>,
        deployment_error: f64,
        sim_time: f64,
    ) -> Result<u64> {
        let version = self.gateway.publish_with_cause(
            handle,
            model,
            deployment_error,
            "bootstrap",
            sim_time,
        )?;
        if let Some(state) = self.supervised.get_mut(&handle.index()) {
            state.reset_after_swap();
        }
        Ok(version)
    }

    /// Feeds one observed outcome through the loop: the request's features,
    /// the prediction the gateway served, and the later-observed actual.
    /// Returns every autonomous action the observation triggered, in order.
    ///
    /// Must be called in request order (the same discipline the gateway's
    /// own determinism contract requires).
    pub fn observe(
        &mut self,
        handle: ModelHandle,
        features: &[f64],
        prediction: &Prediction,
        actual: f64,
        sim_time: f64,
    ) -> Result<Vec<AutonomyAction>> {
        let mut actions = Vec::new();
        if !self.supervised.contains_key(&handle.index()) {
            return Ok(actions);
        }
        let candidate = self.gateway.candidate_status(handle)?;
        let primary_version = self.gateway.current_version(handle)?.unwrap_or(0);
        let deployment_error = self
            .gateway
            .current_deployment_error(handle)?
            .unwrap_or(f64::INFINITY);
        let breaker_open = self.gateway.breaker_state(handle)? == BreakerState::Open;
        let shadow = self.gateway.drain_shadow(handle)?;
        let state = self
            .supervised
            .get_mut(&handle.index())
            .expect("checked above");

        // 1. Bookkeeping: training history, shadow sample pairing.
        state.history.push_back((features.to_vec(), actual));
        while state.history.len() > state.history_cap() {
            state.history.pop_front();
        }
        for s in shadow {
            if state.pending_shadow.len() >= 256 {
                state.pending_shadow.pop_front();
            }
            state.pending_shadow.push_back((s.features_digest, s.value));
        }

        // 2. Incident streaks: guard trips and breaker-open persistence.
        match prediction.source {
            Source::Fallback(FallbackCause::Guarded) => state.guarded_streak += 1,
            Source::Model => state.guarded_streak = 0,
            _ => {}
        }
        if breaker_open {
            state.breaker_open_streak += 1;
        } else {
            state.breaker_open_streak = 0;
        }
        let incident = if state.guarded_streak >= state.config.guarded_streak.max(1) {
            Some("guard_trip_streak")
        } else if state.breaker_open_streak >= state.config.breaker_open_streak.max(1) {
            Some("breaker_open_streak")
        } else {
            None
        };
        if let Some(cause) = incident {
            self.record_loop_decision(handle, prediction, Some(actual), cause, true, sim_time)?;
            if candidate.is_some() {
                let version = self.gateway.demote_candidate(handle, cause, sim_time)?;
                let state = self.state_mut(handle);
                state.schedule_demote_backoff(sim_time);
                state.retrain_pending = Some(cause.to_string());
                actions.push(AutonomyAction::Demoted {
                    version,
                    cause: cause.to_string(),
                });
            } else if let Some(version) =
                self.gateway.rollback_with_cause(handle, cause, sim_time)?
            {
                let state = self.state_mut(handle);
                state.reset_after_swap();
                state.retrain_pending = Some(cause.to_string());
                actions.push(AutonomyAction::RolledBack {
                    version,
                    cause: cause.to_string(),
                });
                actions.push(AutonomyAction::RetrainScheduled {
                    cause: cause.to_string(),
                });
                return Ok(actions); // fresh slate: nothing else to evaluate
            } else {
                // Nothing to roll back to — retraining is the only way out.
                let state = self.state_mut(handle);
                state.guarded_streak = 0;
                state.breaker_open_streak = 0;
                if state.retrain_pending.is_none() {
                    state.retrain_pending = Some(cause.to_string());
                    actions.push(AutonomyAction::RetrainScheduled {
                        cause: cause.to_string(),
                    });
                }
            }
        }

        // 3. Drift monitor over primary-served model-path outcomes. Stale
        // serves are excluded: a stale value is the fault channel's doing
        // and the breaker's job; counting it against the model would let
        // injected staleness thrash an otherwise healthy deployment.
        let candidate_version = candidate.map(|(v, _)| v);
        let model_path = prediction.source == Source::Model;
        let served_by_candidate = model_path && Some(prediction.version) == candidate_version;
        if model_path && prediction.version == primary_version {
            let state = self.state_mut(handle);
            state
                .prim_recent
                .push_back((prediction.value - actual).abs());
            while state.prim_recent.len() > state.config.monitor.window.max(1) {
                state.prim_recent.pop_front();
            }
            match state
                .monitor
                .observe(prediction.value, actual, deployment_error)
            {
                MonitorVerdict::Rollback => {
                    let cause = "monitor_rollback";
                    self.record_loop_decision(
                        handle,
                        prediction,
                        Some(actual),
                        cause,
                        true,
                        sim_time,
                    )?;
                    if let Some(version) =
                        self.gateway.rollback_with_cause(handle, cause, sim_time)?
                    {
                        let state = self.state_mut(handle);
                        state.reset_after_swap();
                        state.retrain_pending = Some(cause.to_string());
                        actions.push(AutonomyAction::RolledBack {
                            version,
                            cause: cause.to_string(),
                        });
                        actions.push(AutonomyAction::RetrainScheduled {
                            cause: cause.to_string(),
                        });
                        return Ok(actions);
                    }
                    let state = self.state_mut(handle);
                    state.monitor.reset();
                    if state.retrain_pending.is_none() {
                        state.retrain_pending = Some(cause.to_string());
                        actions.push(AutonomyAction::RetrainScheduled {
                            cause: cause.to_string(),
                        });
                    }
                }
                MonitorVerdict::Retrain => {
                    let state = self.state_mut(handle);
                    if state.retrain_pending.is_none() && candidate_version.is_none() {
                        state.retrain_pending = Some("drift".to_string());
                        actions.push(AutonomyAction::RetrainScheduled {
                            cause: "drift".to_string(),
                        });
                    }
                }
                MonitorVerdict::Healthy | MonitorVerdict::Warming => {}
            }
        }

        // 4. Candidate evaluation on tumbling windows.
        if let Some((cand_version, phase)) = candidate {
            let state = self.state_mut(handle);
            if served_by_candidate {
                state.cand_window.push((prediction.value - actual).abs());
            } else if phase == DeployPhase::Shadow {
                // Pair the mirrored answer for this request by feature
                // digest, computed here because the serving path skips the
                // digest when the recorder is off.
                let request_digest = digest_f64(features.iter().copied());
                if let Some(pos) = state
                    .pending_shadow
                    .iter()
                    .position(|&(digest, _)| digest == request_digest)
                {
                    let (_, value) = state.pending_shadow.remove(pos).expect("position exists");
                    state.cand_window.push((value - actual).abs());
                }
            }
            if state.cand_window.is_full(state.config.canary.min_decisions) {
                actions.extend(self.evaluate_candidate_window(
                    handle,
                    cand_version,
                    phase,
                    deployment_error,
                    sim_time,
                )?);
            }
        }

        // 5. Execute a pending retrain once cooldowns allow.
        actions.extend(self.maybe_retrain(handle, sim_time)?);
        Ok(actions)
    }

    /// Feeds an SLO burn-rate signal through the loop: sustained burn at or
    /// above [`SloPolicy::rollback_burn`] rolls back (or demotes a staged
    /// candidate), at or above [`SloPolicy::retrain_burn`] schedules a
    /// retrain — so the controller reacts to aggregate service health, not
    /// just raw guard/breaker streaks. Signals with fewer complete windows
    /// than [`SloPolicy::min_windows`], and signals arriving inside the
    /// post-action cooldown, are ignored.
    ///
    /// Like [`AutonomyController::observe`], calls must arrive in
    /// simulated-time order for replays to stay byte-identical.
    pub fn ingest_health(
        &mut self,
        handle: ModelHandle,
        signal: &HealthSignal,
        sim_time: f64,
    ) -> Result<Vec<AutonomyAction>> {
        let mut actions = Vec::new();
        let Some(state) = self.supervised.get_mut(&handle.index()) else {
            return Ok(actions);
        };
        let policy = state.config.slo;
        if signal.windows < policy.min_windows || !state.slo_action_cooldown.ready(sim_time) {
            return Ok(actions);
        }
        let burn = signal.sustained_burn();
        if burn < policy.retrain_burn {
            return Ok(actions);
        }
        let candidate = self.gateway.candidate_status(handle)?;
        let version = self.gateway.current_version(handle)?.unwrap_or(0);
        let cause = "slo_burn";
        if burn >= policy.rollback_burn {
            self.record_health_decision(handle, version, burn, cause, true, sim_time)?;
            if candidate.is_some() {
                let demoted = self.gateway.demote_candidate(handle, cause, sim_time)?;
                let state = self.state_mut(handle);
                state.schedule_demote_backoff(sim_time);
                state.retrain_pending = Some(cause.to_string());
                state
                    .slo_action_cooldown
                    .arm(sim_time, policy.action_cooldown_ticks);
                actions.push(AutonomyAction::Demoted {
                    version: demoted,
                    cause: cause.to_string(),
                });
            } else if let Some(landed) =
                self.gateway.rollback_with_cause(handle, cause, sim_time)?
            {
                let state = self.state_mut(handle);
                state.reset_after_swap();
                state.retrain_pending = Some(cause.to_string());
                state
                    .slo_action_cooldown
                    .arm(sim_time, policy.action_cooldown_ticks);
                actions.push(AutonomyAction::RolledBack {
                    version: landed,
                    cause: cause.to_string(),
                });
                actions.push(AutonomyAction::RetrainScheduled {
                    cause: cause.to_string(),
                });
                return Ok(actions); // fresh slate, same as a streak rollback
            } else {
                // Nothing to roll back to — retraining is the only way out.
                let state = self.state_mut(handle);
                state
                    .slo_action_cooldown
                    .arm(sim_time, policy.action_cooldown_ticks);
                if state.retrain_pending.is_none() {
                    state.retrain_pending = Some(cause.to_string());
                    actions.push(AutonomyAction::RetrainScheduled {
                        cause: cause.to_string(),
                    });
                }
            }
        } else {
            self.record_health_decision(handle, version, burn, cause, false, sim_time)?;
            let state = self.state_mut(handle);
            if state.retrain_pending.is_none() && candidate.is_none() {
                state.retrain_pending = Some(cause.to_string());
                state
                    .slo_action_cooldown
                    .arm(sim_time, policy.action_cooldown_ticks);
                actions.push(AutonomyAction::RetrainScheduled {
                    cause: cause.to_string(),
                });
            }
        }
        actions.extend(self.maybe_retrain(handle, sim_time)?);
        Ok(actions)
    }

    /// Records an SLO-burn incident decision: `predicted` carries the burn
    /// rate so the trace preserves how hot the budget was burning.
    fn record_health_decision(
        &self,
        handle: ModelHandle,
        version: u64,
        burn: f64,
        verdict: &str,
        vetoed: bool,
        sim_time: f64,
    ) -> Result<()> {
        let name = self.gateway.model_name(handle)?;
        self.obs.record_decision(
            COMPONENT,
            "autonomy_incident",
            &Provenance::new(&name, version, 0),
            burn,
            None,
            verdict,
            vetoed,
            0,
            sim_time,
        );
        Ok(())
    }

    /// Evaluates one full candidate window: healthy / unhealthy /
    /// inconclusive, hysteresis streaks, and the resulting phase change.
    fn evaluate_candidate_window(
        &mut self,
        handle: ModelHandle,
        cand_version: u64,
        phase: DeployPhase,
        deployment_error: f64,
        sim_time: f64,
    ) -> Result<Vec<AutonomyAction>> {
        let mut actions = Vec::new();
        let state = self.state_mut(handle);
        let cand_err = state
            .cand_window
            .drain_mean()
            .expect("window evaluated only when full");
        let prim_err = if state.prim_recent.is_empty() {
            deployment_error
        } else {
            state.prim_recent.iter().sum::<f64>() / state.prim_recent.len() as f64
        };
        let baseline = prim_err.max(deployment_error).max(1e-9);
        let healthy = cand_err <= state.config.canary.promote_error_factor * baseline;
        let unhealthy = cand_err > state.config.canary.demote_error_factor * baseline;
        let verdict = if healthy {
            state.healthy_windows += 1;
            state.unhealthy_windows = 0;
            "healthy"
        } else if unhealthy {
            state.unhealthy_windows += 1;
            state.healthy_windows = 0;
            "unhealthy"
        } else {
            state.healthy_windows = 0;
            "inconclusive"
        };
        let promote = healthy
            && phase == DeployPhase::Canary
            && state.healthy_windows >= state.config.canary.promote_streak.max(1);
        let advance = healthy && phase == DeployPhase::Shadow;
        let demote = state.unhealthy_windows >= state.config.canary.demote_streak.max(1);
        let name = self.gateway.model_name(handle)?;
        self.obs.record_decision(
            COMPONENT,
            "canary_outcome",
            &Provenance::new(&name, cand_version, 0),
            cand_err,
            Some(baseline),
            verdict,
            demote,
            0,
            sim_time,
        );
        if demote {
            let cause = "canary_unhealthy";
            let version = self.gateway.demote_candidate(handle, cause, sim_time)?;
            let state = self.state_mut(handle);
            state.schedule_demote_backoff(sim_time);
            state.retrain_pending = Some(cause.to_string());
            state.healthy_windows = 0;
            state.unhealthy_windows = 0;
            actions.push(AutonomyAction::Demoted {
                version,
                cause: cause.to_string(),
            });
        } else if promote {
            // Deploy with the *worse* of measured and claimed error: an
            // exact-fit candidate measuring ~0 would otherwise hand the
            // monitor a baseline so tight that any later noise reads as a
            // rollback-grade regression.
            let claimed = self
                .gateway
                .candidate_deployment_error(handle)?
                .unwrap_or(cand_err);
            let version = self.gateway.promote_candidate(
                handle,
                cand_err.max(claimed),
                "canary_healthy",
                sim_time,
            )?;
            let state = self.state_mut(handle);
            state.reset_after_swap();
            state.restage_backoff = state.config.canary.restage_backoff_ticks;
            actions.push(AutonomyAction::Promoted { version });
        } else if advance {
            let pct = self.state_mut(handle).config.canary.traffic_pct;
            let version =
                self.gateway
                    .advance_candidate(handle, pct, "shadow_healthy", sim_time)?;
            let state = self.state_mut(handle);
            state.healthy_windows = 0; // canary phase earns its own streak
            actions.push(AutonomyAction::CanaryStarted { version });
        }
        Ok(actions)
    }

    /// Runs the retrainer when a retrain is pending, no candidate is
    /// staged, and the cooldown/backoff clock allows it.
    fn maybe_retrain(&mut self, handle: ModelHandle, sim_time: f64) -> Result<Vec<AutonomyAction>> {
        let mut actions = Vec::new();
        if self.gateway.candidate_status(handle)?.is_some() {
            return Ok(actions);
        }
        let state = self.state_mut(handle);
        let Some(cause) = state.retrain_pending.clone() else {
            return Ok(actions);
        };
        if !state.retrain_cooldown.ready(sim_time)
            || state.history.len() < state.config.min_retrain_observations.max(1)
        {
            return Ok(actions);
        }
        state.history.make_contiguous();
        let trained = (state.retrainer)(state.history.as_slices().0);
        state
            .retrain_cooldown
            .arm(sim_time, state.config.retrain_cooldown_ticks);
        let Some((model, claimed_error)) = trained else {
            return Ok(actions); // retry after the cooldown
        };
        let (phase, pct) = if state.config.canary.shadow_first {
            (DeployPhase::Shadow, 0)
        } else {
            (DeployPhase::Canary, state.config.canary.traffic_pct)
        };
        let stage_cause = format!("retrain:{cause}");
        let version = self.gateway.stage_candidate(
            handle,
            model,
            claimed_error,
            phase,
            pct,
            &stage_cause,
            sim_time,
        )?;
        let state = self.state_mut(handle);
        state.retrain_pending = None;
        state.cand_window.clear();
        state.pending_shadow.clear();
        state.healthy_windows = 0;
        state.unhealthy_windows = 0;
        actions.push(AutonomyAction::CandidateStaged { version, phase });
        Ok(actions)
    }

    fn state_mut(&mut self, handle: ModelHandle) -> &mut Supervised {
        self.supervised
            .get_mut(&handle.index())
            .expect("handle is supervised")
    }

    /// Records a loop-level decision (incident or rollback trigger) into
    /// the flight recorder.
    fn record_loop_decision(
        &self,
        handle: ModelHandle,
        prediction: &Prediction,
        observed: Option<f64>,
        verdict: &str,
        vetoed: bool,
        sim_time: f64,
    ) -> Result<()> {
        let name = self.gateway.model_name(handle)?;
        self.obs.record_decision(
            COMPONENT,
            "autonomy_incident",
            &Provenance::new(&name, prediction.version, prediction.features_digest),
            prediction.value,
            observed,
            verdict,
            vetoed,
            0,
            sim_time,
        );
        Ok(())
    }
}

impl Supervised {
    /// After a demotion: push the next restage out by the current backoff,
    /// then double it (capped).
    fn schedule_demote_backoff(&mut self, sim_time: f64) {
        self.retrain_cooldown.arm(sim_time, self.restage_backoff);
        self.restage_backoff = (self.restage_backoff * 2.0).min(
            self.config
                .canary
                .max_restage_backoff_ticks
                .max(self.config.canary.restage_backoff_ticks),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::{GatewayConfig, PoisonScope};
    use crate::model::FnModel;
    use adas_faultsim::ModelFaults;
    use adas_obs::DeploymentKind;

    fn loop_config() -> AutonomyConfig {
        AutonomyConfig {
            monitor: LoopConfig {
                window: 10,
                retrain_factor: 1.5,
                rollback_factor: 8.0,
            },
            canary: CanaryConfig {
                traffic_pct: 50,
                shadow_first: true,
                min_decisions: 5,
                promote_streak: 2,
                demote_streak: 2,
                promote_error_factor: 1.2,
                demote_error_factor: 2.0,
                restage_backoff_ticks: 8.0,
                max_restage_backoff_ticks: 64.0,
            },
            slo: SloPolicy::default(),
            guarded_streak: 3,
            breaker_open_streak: 8,
            retrain_cooldown_ticks: 4.0,
            min_retrain_observations: 10,
        }
    }

    /// Fits a scalar `a` (actual = a * features[0]) from the history — the
    /// simplest honest retrainer.
    fn scalar_retrainer() -> Retrainer {
        Box::new(|history: &[(Vec<f64>, f64)]| {
            let (num, den) = history
                .iter()
                .fold((0.0, 0.0), |(n, d), (f, y)| (n + f[0] * y, d + f[0] * f[0]));
            let a = num / den.max(1e-12);
            Some((
                Arc::new(FnModel(move |f: &[f64]| a * f[0])) as Arc<dyn ServableModel>,
                0.01,
            ))
        })
    }

    fn controller() -> (AutonomyController, ModelHandle, Obs) {
        let obs = Obs::recording();
        let gateway = Gateway::with_obs(GatewayConfig::standard(), obs.clone());
        let handle = gateway.register("m", |f: &[f64]| f[0]);
        let ctl = AutonomyController::new(gateway, obs.clone());
        (ctl, handle, obs)
    }

    #[test]
    fn drift_retrains_shadows_canaries_and_promotes() {
        let (mut ctl, handle, obs) = controller();
        ctl.supervise(handle, loop_config(), scalar_retrainer());
        ctl.install(handle, Arc::new(FnModel(|f: &[f64]| 1.05 * f[0])), 0.2, 0.0)
            .unwrap();
        // The world has drifted: actual = 1.3 * f[0]. v1's error ≈ 0.25·f[0],
        // above retrain_factor · 0.2 for the larger features.
        let mut all = Vec::new();
        for t in 0..400u64 {
            let sim_time = t as f64;
            let features = [1.0 + (t % 5) as f64 * 2.0];
            let p = ctl.gateway().predict(handle, &features, sim_time).unwrap();
            let actual = 1.3 * features[0];
            all.extend(
                ctl.observe(handle, &features, &p, actual, sim_time)
                    .unwrap(),
            );
        }
        let promoted = all
            .iter()
            .any(|a| matches!(a, AutonomyAction::Promoted { .. }));
        assert!(
            all.iter()
                .any(|a| matches!(a, AutonomyAction::RetrainScheduled { .. })),
            "drift must schedule a retrain: {all:?}"
        );
        assert!(promoted, "healthy candidate must promote: {all:?}");
        // The promoted model actually fixed the drift.
        let p = ctl.gateway().predict(handle, &[4.0], 1000.0).unwrap();
        assert!((p.value - 5.2).abs() < 0.05, "got {}", p.value);
        // Full lifecycle appears in the typed deployment trace, and nothing
        // after the bootstrap publish is manual.
        let trace = obs.snapshot();
        let kinds: Vec<DeploymentKind> = trace.deployments.iter().map(|d| d.kind).collect();
        assert!(kinds.contains(&DeploymentKind::ShadowStart));
        assert!(kinds.contains(&DeploymentKind::CanaryStart));
        assert!(kinds.contains(&DeploymentKind::Promote));
        assert!(trace.deployments.iter().all(|d| d.cause != "manual"));
    }

    #[test]
    fn bad_candidate_demotes_with_backoff_and_never_promotes() {
        let (mut ctl, handle, _obs) = controller();
        let mut config = loop_config();
        config.canary.shadow_first = false; // straight to canary: harsher
        ctl.supervise(
            handle,
            config,
            // A retrainer that keeps producing a terrible model.
            Box::new(|_: &[(Vec<f64>, f64)]| {
                Some((
                    Arc::new(FnModel(|f: &[f64]| 40.0 * f[0])) as Arc<dyn ServableModel>,
                    0.01,
                ))
            }),
        );
        ctl.install(handle, Arc::new(FnModel(|f: &[f64]| 1.05 * f[0])), 0.2, 0.0)
            .unwrap();
        let mut all = Vec::new();
        for t in 0..600u64 {
            let sim_time = t as f64;
            let features = [1.0 + (t % 5) as f64 * 2.0];
            let p = ctl.gateway().predict(handle, &features, sim_time).unwrap();
            let actual = 1.3 * features[0]; // drifted ⇒ retrains keep firing
            all.extend(
                ctl.observe(handle, &features, &p, actual, sim_time)
                    .unwrap(),
            );
        }
        assert!(
            !all.iter()
                .any(|a| matches!(a, AutonomyAction::Promoted { .. })),
            "a bad candidate must never promote: {all:?}"
        );
        let demotions = all
            .iter()
            .filter(|a| matches!(a, AutonomyAction::Demoted { .. }))
            .count();
        assert!(demotions >= 2, "bad candidates demote repeatedly: {all:?}");
        // Doubling backoff: consecutive demotions spread further apart, so
        // over 600 ticks the count stays small.
        assert!(
            demotions <= 10,
            "restage backoff must throttle: {demotions}"
        );
        assert_eq!(
            ctl.gateway().current_version(handle).unwrap(),
            Some(1),
            "primary never changed"
        );
    }

    #[test]
    fn slo_burn_signal_rolls_back_and_schedules_retrain() {
        let (mut ctl, handle, obs) = controller();
        ctl.supervise(handle, loop_config(), scalar_retrainer());
        ctl.install(handle, Arc::new(FnModel(|f: &[f64]| f[0])), 0.05, 0.0)
            .unwrap();
        ctl.install(handle, Arc::new(FnModel(|f: &[f64]| f[0])), 0.06, 1.0)
            .unwrap();
        // Warm-up: below min_windows the signal is ignored however hot.
        let warmup = HealthSignal {
            fast_burn: 100.0,
            slow_burn: 100.0,
            windows: 1,
        };
        assert!(ctl.ingest_health(handle, &warmup, 2.0).unwrap().is_empty());
        // Healthy burn is ignored.
        let ok = HealthSignal {
            fast_burn: 0.5,
            slow_burn: 0.4,
            windows: 5,
        };
        assert!(ctl.ingest_health(handle, &ok, 3.0).unwrap().is_empty());
        // A fast-only spike is not sustained: the slow window vetoes it.
        let spike = HealthSignal {
            fast_burn: 50.0,
            slow_burn: 0.2,
            windows: 5,
        };
        assert!(ctl.ingest_health(handle, &spike, 3.5).unwrap().is_empty());
        // Sustained burn over the rollback line rolls back with slo_burn.
        let hot = HealthSignal {
            fast_burn: 20.0,
            slow_burn: 12.0,
            windows: 5,
        };
        let acts = ctl.ingest_health(handle, &hot, 4.0).unwrap();
        assert!(
            acts.iter().any(|a| matches!(
                a,
                AutonomyAction::RolledBack { cause, .. } if cause == "slo_burn"
            )),
            "sustained burn must roll back: {acts:?}"
        );
        assert!(acts
            .iter()
            .any(|a| matches!(a, AutonomyAction::RetrainScheduled { .. })));
        // Post-action cooldown mutes the trailing hot windows.
        assert!(ctl.ingest_health(handle, &hot, 5.0).unwrap().is_empty());
        let trace = obs.snapshot();
        let rb = trace
            .deployments
            .iter()
            .find(|d| d.kind == DeploymentKind::Rollback)
            .expect("typed rollback record");
        assert_eq!(rb.cause, "slo_burn");
    }

    #[test]
    fn guard_trip_streak_rolls_back_automatically() {
        let obs = Obs::recording();
        let mut config = GatewayConfig::standard();
        config.breaker.guard_factor = 1.5;
        let gateway = Gateway::with_obs(config, obs.clone());
        let handle = gateway.register("m", |f: &[f64]| f[0]);
        let mut ctl = AutonomyController::new(gateway, obs.clone());
        ctl.supervise(handle, loop_config(), scalar_retrainer());
        ctl.install(handle, Arc::new(FnModel(|f: &[f64]| f[0])), 0.05, 0.0)
            .unwrap();
        let v2 = ctl
            .install(handle, Arc::new(FnModel(|f: &[f64]| f[0])), 0.06, 1.0)
            .unwrap();
        assert_eq!(v2, 2);
        // Poison only v2: the guard trips on every request.
        ctl.gateway()
            .inject_faults(handle, ModelFaults::new(7, 0.0, 0.0, 4.0))
            .unwrap();
        ctl.gateway()
            .set_poison_scope(handle, PoisonScope::Version(2))
            .unwrap();
        let mut rolled = None;
        for t in 0..20u64 {
            let sim_time = 2.0 + t as f64;
            let p = ctl.gateway().predict(handle, &[3.0], sim_time).unwrap();
            let acts = ctl.observe(handle, &[3.0], &p, 3.0, sim_time).unwrap();
            if let Some(AutonomyAction::RolledBack { version, cause }) = acts
                .iter()
                .find(|a| matches!(a, AutonomyAction::RolledBack { .. }))
            {
                rolled = Some((*version, cause.clone()));
                break;
            }
        }
        let (version, cause) = rolled.expect("guard streak must trigger rollback");
        assert_eq!(version, 3, "v1 redeployed as v3");
        assert_eq!(cause, "guard_trip_streak");
        // The redeployed artifact is v1's (unpoisoned): serving heals.
        let p = ctl.gateway().predict(handle, &[3.0], 50.0).unwrap();
        assert_eq!(p.value, 3.0);
        assert_eq!(p.source, Source::Model);
        let trace = obs.snapshot();
        let rb = trace
            .deployments
            .iter()
            .find(|d| d.kind == DeploymentKind::Rollback)
            .expect("typed rollback record");
        assert_eq!(rb.cause, "guard_trip_streak");
    }
}
