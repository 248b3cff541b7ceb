//! The gateway: one front door for every served model.

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker, Transition};
use crate::canary::{DeployPhase, ShadowSample};
use crate::model::{ModelHandle, ServableModel};
use crate::{Result, ServeError};
use adas_core::feedback::ModelRegistry;
use adas_faultsim::{ModelFaults, Served};
use adas_obs::{digest_f64, DeploymentKind, Obs, Provenance};
use parking_lot::{Mutex, RwLock};
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

const COMPONENT: &str = "serve.gateway";

/// Bounded length of each model's shadow-sample log; the oldest samples are
/// dropped first once a slow consumer lets it fill up.
const SHADOW_LOG_CAP: usize = 256;

/// Gateway tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GatewayConfig {
    /// Per-model circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

impl GatewayConfig {
    /// Production-shaped defaults: breaker and poison guard on.
    pub fn standard() -> Self {
        Self {
            breaker: BreakerConfig::default(),
        }
    }

    /// Pass-through mode: no breaker, no guard. Used to bound the gateway's
    /// overhead over direct model calls.
    pub fn disabled() -> Self {
        Self {
            breaker: BreakerConfig::disabled(),
        }
    }
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// Why a request was answered by the heuristic fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FallbackCause {
    /// The model's circuit breaker is open.
    BreakerOpen,
    /// The (simulated) model call timed out.
    Timeout,
    /// The poison guard rejected a fresh prediction.
    Guarded,
    /// No model version has been published yet.
    NoModel,
}

impl FallbackCause {
    /// Stable lowercase name used in obs labels and traces.
    pub fn name(self) -> &'static str {
        match self {
            FallbackCause::BreakerOpen => "breaker_open",
            FallbackCause::Timeout => "timeout",
            FallbackCause::Guarded => "guarded",
            FallbackCause::NoModel => "no_model",
        }
    }
}

/// Where a prediction's value came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Source {
    /// A fresh model inference.
    Model,
    /// The fault channel served a stale (previous-input) prediction.
    Stale,
    /// The registered heuristic fallback (degraded mode).
    Fallback(FallbackCause),
}

impl Source {
    /// True when the value came from the degraded-mode fallback.
    pub fn is_fallback(self) -> bool {
        matches!(self, Source::Fallback(_))
    }
}

/// One answered request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Prediction {
    /// The scalar prediction (model output space — consumers exponentiate
    /// ln-space values themselves).
    pub value: f64,
    /// Model version that answered (0 when none is published).
    pub version: u64,
    /// Where the value came from.
    pub source: Source,
    /// Digest of the feature vector, computed once per request while the
    /// gateway's recorder is on; 0 when it is off.
    pub features_digest: u64,
}

/// Aggregate gateway counters (process-wide, monotonic).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GatewayStats {
    /// Requests admitted (all outcomes).
    pub requests: u64,
    /// Always 0: the gateway has no prediction cache. This field,
    /// `cache_misses` and `shed` stay for existing readers of the counters.
    pub cache_hits: u64,
    /// Always 0: the gateway has no prediction cache.
    pub cache_misses: u64,
    /// Requests sent through model inference.
    pub model_calls: u64,
    /// Requests answered by the heuristic fallback.
    pub fallbacks: u64,
    /// Always 0: the gateway sheds no request.
    pub shed: u64,
    /// Requests served a stale prediction by the fault channel.
    pub stale: u64,
    /// Requests routed to a canary candidate.
    pub canary_routed: u64,
    /// Requests mirrored through a shadow candidate.
    pub shadow_serves: u64,
}

#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    model_calls: AtomicU64,
    fallbacks: AtomicU64,
    stale: AtomicU64,
    canary_routed: AtomicU64,
    shadow_serves: AtomicU64,
}

/// Immutable serving snapshot: what `predict` reads. Swapped atomically by
/// [`Gateway::publish`]; readers clone the `Arc` under a brief read lock and
/// run inference with no lock held.
pub struct ServingSnapshot {
    version: u64,
    model: Arc<dyn ServableModel>,
}

impl ServingSnapshot {
    /// Deployed version serving this snapshot.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The model behind this snapshot.
    pub fn model(&self) -> &Arc<dyn ServableModel> {
        &self.model
    }
}

/// Which serving versions a poison injection biases.
///
/// Version-scoped poisoning models a corrupted *artifact*: one bad version
/// misbehaves while every other version of the same model stays healthy, so
/// an automatic rollback actually lands somewhere clean. `All` is the
/// legacy whole-serving-path poisoning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum PoisonScope {
    /// No poisoning (the default).
    #[default]
    None,
    /// Every version served through this entry is biased.
    All,
    /// Only the named version's predictions are biased.
    Version(u64),
}

impl PoisonScope {
    /// True when the scope covers `version`.
    pub fn covers(self, version: u64) -> bool {
        match self {
            PoisonScope::None => false,
            PoisonScope::All => true,
            PoisonScope::Version(v) => v == version,
        }
    }
}

#[derive(Default)]
struct FaultChannel {
    source: Option<ModelFaults>,
    poisoned: PoisonScope,
}

/// A staged candidate version: the model, its claimed error, and how much
/// traffic it sees.
struct CandidateState {
    snapshot: Arc<ServingSnapshot>,
    deployment_error: f64,
    phase: DeployPhase,
    traffic_pct: u8,
}

/// Boxed degraded-mode heuristic registered alongside each model.
type Fallback = Box<dyn Fn(&[f64]) -> f64 + Send + Sync>;

struct ModelEntry {
    name: String,
    registry: Mutex<ModelRegistry<Arc<dyn ServableModel>>>,
    snapshot: RwLock<Option<Arc<ServingSnapshot>>>,
    candidate: RwLock<Option<CandidateState>>,
    /// Arrival ticket for deterministic canary routing: request `t` goes to
    /// the candidate iff `t % 100 < traffic_pct`. Reset on every stage.
    canary_ticket: AtomicU64,
    shadow_log: Mutex<VecDeque<ShadowSample>>,
    breaker: Mutex<CircuitBreaker>,
    faults: Mutex<FaultChannel>,
    fallback: Fallback,
}

struct Inner {
    config: GatewayConfig,
    entries: RwLock<Vec<Arc<ModelEntry>>>,
    names: Mutex<HashMap<String, ModelHandle>>,
    obs: Obs,
    counters: Counters,
}

/// The model-serving gateway. Cheap to clone (an `Arc` handle); clones share
/// all state, so the optimizer's estimator and the autonomy controller that
/// supervises its models can hold the same gateway.
#[derive(Clone)]
pub struct Gateway {
    inner: Arc<Inner>,
}

impl Gateway {
    /// Creates a gateway that records every serving decision into `obs`
    /// (pass [`Obs::disabled`] to attach no flight recorder).
    pub fn with_obs(config: GatewayConfig, obs: Obs) -> Self {
        Self {
            inner: Arc::new(Inner {
                config,
                entries: RwLock::new(Vec::new()),
                names: Mutex::new(HashMap::new()),
                obs,
                counters: Counters::default(),
            }),
        }
    }

    /// Registers a model by name with its degraded-mode heuristic fallback
    /// (e.g. the engine's default cardinality estimate). Idempotent: a
    /// second registration under the same name returns the existing handle
    /// and keeps the original fallback.
    pub fn register(
        &self,
        name: &str,
        fallback: impl Fn(&[f64]) -> f64 + Send + Sync + 'static,
    ) -> ModelHandle {
        let mut names = self.inner.names.lock();
        if let Some(&handle) = names.get(name) {
            return handle;
        }
        let mut entries = self.inner.entries.write();
        let id = entries.len();
        entries.push(Arc::new(ModelEntry {
            name: name.to_string(),
            registry: Mutex::new(ModelRegistry::with_obs(self.inner.obs.clone())),
            snapshot: RwLock::new(None),
            candidate: RwLock::new(None),
            canary_ticket: AtomicU64::new(0),
            shadow_log: Mutex::new(VecDeque::new()),
            breaker: Mutex::new(CircuitBreaker::new(self.inner.config.breaker)),
            faults: Mutex::new(FaultChannel::default()),
            fallback: Box::new(fallback),
        }));
        drop(entries);
        let handle = ModelHandle(id);
        names.insert(name.to_string(), handle);
        handle
    }

    /// Resolves a registered name to its handle.
    pub fn resolve(&self, name: &str) -> Option<ModelHandle> {
        self.inner.names.lock().get(name).copied()
    }

    /// Number of registered models.
    pub fn model_count(&self) -> usize {
        self.inner.entries.read().len()
    }

    fn entry(&self, handle: ModelHandle) -> Result<Arc<ModelEntry>> {
        self.inner
            .entries
            .read()
            .get(handle.0)
            .cloned()
            .ok_or_else(|| ServeError::UnknownModel(format!("handle #{}", handle.0)))
    }

    /// Publishes a new model version through the entry's `ModelRegistry`
    /// and atomically swaps the serving snapshot. Concurrent readers see
    /// either the old or the new version, never a torn state. Returns the
    /// deployed version number.
    ///
    /// Equivalent to [`Gateway::publish_with_cause`] with cause `"manual"`
    /// at simulated time 0.
    pub fn publish(
        &self,
        handle: ModelHandle,
        model: Arc<dyn ServableModel>,
        deployment_error: f64,
    ) -> Result<u64> {
        self.publish_with_cause(handle, model, deployment_error, "manual", 0.0)
    }

    /// [`Gateway::publish`] with an explicit triggering cause and simulated
    /// time, recorded as a typed [`DeploymentKind::Publish`] trace record.
    /// Publishing discards any staged candidate (recorded as a demote) and
    /// resets the model's circuit breaker — a fresh version earns a fresh
    /// failure budget.
    pub fn publish_with_cause(
        &self,
        handle: ModelHandle,
        model: Arc<dyn ServableModel>,
        deployment_error: f64,
        cause: &str,
        sim_time: f64,
    ) -> Result<u64> {
        let entry = self.entry(handle)?;
        self.discard_candidate(&entry, "superseded_by_publish", sim_time);
        let version = entry
            .registry
            .lock()
            .deploy(model.clone(), deployment_error);
        *entry.snapshot.write() = Some(Arc::new(ServingSnapshot { version, model }));
        self.swap_epilogue(&entry, DeploymentKind::Publish, version, cause, sim_time);
        Ok(version)
    }

    /// Rolls back to the best-scoring earlier version (redeployed as a new
    /// version, per `ModelRegistry` semantics) and swaps the snapshot.
    /// Returns the new serving version, or `None` when there is no earlier
    /// version to fall back to.
    ///
    /// Equivalent to [`Gateway::rollback_with_cause`] with cause `"manual"`
    /// at simulated time 0.
    pub fn rollback(&self, handle: ModelHandle) -> Result<Option<u64>> {
        self.rollback_with_cause(handle, "manual", 0.0)
    }

    /// [`Gateway::rollback`] with an explicit triggering cause and simulated
    /// time, recorded as a typed [`DeploymentKind::Rollback`] trace record.
    /// Rolling back discards any staged candidate (recorded as a demote)
    /// and resets the model's circuit breaker.
    pub fn rollback_with_cause(
        &self,
        handle: ModelHandle,
        cause: &str,
        sim_time: f64,
    ) -> Result<Option<u64>> {
        let entry = self.entry(handle)?;
        let mut registry = entry.registry.lock();
        let Some(version) = registry.rollback() else {
            return Ok(None);
        };
        let model = registry
            .current()
            .expect("rollback deployed a version")
            .model
            .clone();
        drop(registry);
        self.discard_candidate(&entry, "superseded_by_rollback", sim_time);
        *entry.snapshot.write() = Some(Arc::new(ServingSnapshot { version, model }));
        self.swap_epilogue(&entry, DeploymentKind::Rollback, version, cause, sim_time);
        Ok(Some(version))
    }

    /// Shared tail of every snapshot swap: breaker reset, hot-swap event,
    /// typed deployment record.
    fn swap_epilogue(
        &self,
        entry: &ModelEntry,
        kind: DeploymentKind,
        version: u64,
        cause: &str,
        sim_time: f64,
    ) {
        *entry.breaker.lock() = CircuitBreaker::new(self.inner.config.breaker);
        let mut batch = self.inner.obs.batch();
        batch.event(
            COMPONENT,
            "hot_swap",
            sim_time,
            &[
                ("model", entry.name.as_str()),
                ("version", &version.to_string()),
            ],
        );
        batch.record_deployment(COMPONENT, kind, &entry.name, version, cause, sim_time);
    }

    /// Drops any staged candidate, recording the demote. No-op otherwise.
    fn discard_candidate(&self, entry: &ModelEntry, cause: &str, sim_time: f64) {
        let dropped = entry.candidate.write().take();
        if let Some(c) = dropped {
            entry.shadow_log.lock().clear();
            self.inner.obs.record_deployment(
                COMPONENT,
                DeploymentKind::Demote,
                &entry.name,
                c.snapshot.version,
                cause,
                sim_time,
            );
        }
    }

    /// Stages `model` as a candidate version in `phase`, without deploying
    /// it. The candidate is labelled with the registry's *next* version
    /// number (the one it will get if promoted), which is returned.
    ///
    /// In [`DeployPhase::Shadow`], every request is mirrored through the
    /// candidate (answers logged, never served). In [`DeployPhase::Canary`],
    /// `traffic_pct`% of requests (deterministically, by arrival ticket) are
    /// answered by the candidate. Replaces any previously staged candidate
    /// (recorded as a demote).
    #[allow(clippy::too_many_arguments)]
    pub fn stage_candidate(
        &self,
        handle: ModelHandle,
        model: Arc<dyn ServableModel>,
        deployment_error: f64,
        phase: DeployPhase,
        traffic_pct: u8,
        cause: &str,
        sim_time: f64,
    ) -> Result<u64> {
        let entry = self.entry(handle)?;
        self.discard_candidate(&entry, "restaged", sim_time);
        let version = entry.registry.lock().next_version();
        let kind = match phase {
            DeployPhase::Shadow => DeploymentKind::ShadowStart,
            DeployPhase::Canary => DeploymentKind::CanaryStart,
        };
        entry.canary_ticket.store(0, Relaxed);
        *entry.candidate.write() = Some(CandidateState {
            snapshot: Arc::new(ServingSnapshot { version, model }),
            deployment_error,
            phase,
            traffic_pct: traffic_pct.min(100),
        });
        self.inner
            .obs
            .record_deployment(COMPONENT, kind, &entry.name, version, cause, sim_time);
        Ok(version)
    }

    /// Moves a shadow-phase candidate into canary phase at `traffic_pct`%
    /// of live traffic. Returns the candidate's provisional version, or an
    /// error when no candidate is staged.
    pub fn advance_candidate(
        &self,
        handle: ModelHandle,
        traffic_pct: u8,
        cause: &str,
        sim_time: f64,
    ) -> Result<u64> {
        let entry = self.entry(handle)?;
        let mut candidate = entry.candidate.write();
        let Some(c) = candidate.as_mut() else {
            return Err(ServeError::NoCandidate(entry.name.clone()));
        };
        c.phase = DeployPhase::Canary;
        c.traffic_pct = traffic_pct.min(100);
        let version = c.snapshot.version;
        drop(candidate);
        entry.canary_ticket.store(0, Relaxed);
        self.inner.obs.record_deployment(
            COMPONENT,
            DeploymentKind::CanaryStart,
            &entry.name,
            version,
            cause,
            sim_time,
        );
        Ok(version)
    }

    /// Promotes the staged candidate: deploys it through the registry with
    /// its observed (windowed) error, swaps the serving snapshot, resets
    /// the breaker, and clears the candidate slot. Returns the deployed
    /// version.
    pub fn promote_candidate(
        &self,
        handle: ModelHandle,
        measured_error: f64,
        cause: &str,
        sim_time: f64,
    ) -> Result<u64> {
        let entry = self.entry(handle)?;
        let Some(c) = entry.candidate.write().take() else {
            return Err(ServeError::NoCandidate(entry.name.clone()));
        };
        entry.shadow_log.lock().clear();
        let model = c.snapshot.model.clone();
        let version = entry.registry.lock().deploy(model.clone(), measured_error);
        *entry.snapshot.write() = Some(Arc::new(ServingSnapshot { version, model }));
        self.swap_epilogue(&entry, DeploymentKind::Promote, version, cause, sim_time);
        Ok(version)
    }

    /// Demotes (discards) the staged candidate, recording the demote with
    /// its cause. Returns the demoted candidate's provisional version, or
    /// an error when no candidate is staged.
    pub fn demote_candidate(&self, handle: ModelHandle, cause: &str, sim_time: f64) -> Result<u64> {
        let entry = self.entry(handle)?;
        let Some(c) = entry.candidate.write().take() else {
            return Err(ServeError::NoCandidate(entry.name.clone()));
        };
        entry.shadow_log.lock().clear();
        let version = c.snapshot.version;
        self.inner.obs.record_deployment(
            COMPONENT,
            DeploymentKind::Demote,
            &entry.name,
            version,
            cause,
            sim_time,
        );
        Ok(version)
    }

    /// The staged candidate's provisional version and phase, or `None` when
    /// nothing is staged.
    pub fn candidate_status(&self, handle: ModelHandle) -> Result<Option<(u64, DeployPhase)>> {
        let entry = self.entry(handle)?;
        let candidate = entry.candidate.read();
        Ok(candidate.as_ref().map(|c| (c.snapshot.version, c.phase)))
    }

    /// The staged candidate's claimed deployment error, or `None` when
    /// nothing is staged.
    pub fn candidate_deployment_error(&self, handle: ModelHandle) -> Result<Option<f64>> {
        let entry = self.entry(handle)?;
        let candidate = entry.candidate.read();
        Ok(candidate.as_ref().map(|c| c.deployment_error))
    }

    /// Drains and returns all buffered shadow samples for a model, oldest
    /// first.
    pub fn drain_shadow(&self, handle: ModelHandle) -> Result<Vec<ShadowSample>> {
        let entry = self.entry(handle)?;
        let mut log = entry.shadow_log.lock();
        Ok(log.drain(..).collect())
    }

    /// The registered name of a model.
    pub fn model_name(&self, handle: ModelHandle) -> Result<String> {
        let entry = self.entry(handle)?;
        Ok(entry.name.clone())
    }

    /// The serving version's deployment-time error claim (`None` before the
    /// first publish).
    pub fn current_deployment_error(&self, handle: ModelHandle) -> Result<Option<f64>> {
        let entry = self.entry(handle)?;
        let registry = entry.registry.lock();
        Ok(registry.current().map(|v| v.deployment_error))
    }

    /// Currently served version (`None` before the first publish).
    pub fn current_version(&self, handle: ModelHandle) -> Result<Option<u64>> {
        let entry = self.entry(handle)?;
        let snapshot = entry.snapshot.read();
        Ok(snapshot.as_ref().map(|s| s.version))
    }

    /// Versions deployed through this entry's registry.
    pub fn version_count(&self, handle: ModelHandle) -> Result<usize> {
        let entry = self.entry(handle)?;
        let count = entry.registry.lock().version_count();
        Ok(count)
    }

    /// Current breaker state for a model.
    pub fn breaker_state(&self, handle: ModelHandle) -> Result<BreakerState> {
        let entry = self.entry(handle)?;
        let state = entry.breaker.lock().state();
        Ok(state)
    }

    /// Attaches a `faultsim` model fault channel (timeouts/staleness) to a
    /// model. Draws happen on the caller thread in request order, so traces
    /// stay deterministic.
    pub fn inject_faults(&self, handle: ModelHandle, faults: ModelFaults) -> Result<()> {
        let entry = self.entry(handle)?;
        entry.faults.lock().source = Some(faults);
        Ok(())
    }

    /// [`Gateway::inject_faults`] with an explicit simulated time, recorded
    /// as a `model_fault_injected` trace event — so downstream analysis
    /// (watchtower incident reconstruction) can blame the injection as an
    /// incident's root cause instead of its first symptom.
    pub fn inject_faults_at(
        &self,
        handle: ModelHandle,
        faults: ModelFaults,
        sim_time: f64,
    ) -> Result<()> {
        let entry = self.entry(handle)?;
        entry.faults.lock().source = Some(faults);
        self.inner.obs.event(
            COMPONENT,
            "model_fault_injected",
            sim_time,
            &[("model", entry.name.as_str()), ("kind", "channel")],
        );
        Ok(())
    }

    /// Marks the model's serving path as poisoned for the versions in
    /// `scope`: fresh predictions are biased by the fault channel's poison
    /// profile before the guard sees them. [`PoisonScope::Version`] models
    /// one corrupted artifact, so a rollback to an earlier version actually
    /// heals serving; [`PoisonScope::None`] clears poisoning.
    pub fn set_poison_scope(&self, handle: ModelHandle, scope: PoisonScope) -> Result<()> {
        let entry = self.entry(handle)?;
        entry.faults.lock().poisoned = scope;
        Ok(())
    }

    /// [`Gateway::set_poison_scope`] with an explicit simulated time,
    /// recorded as a `model_fault_injected` trace event carrying the scope
    /// (and poisoned version, when scoped) — the ground-truth root cause
    /// watchtower's incident reconstruction links symptoms back to.
    pub fn set_poison_scope_at(
        &self,
        handle: ModelHandle,
        scope: PoisonScope,
        sim_time: f64,
    ) -> Result<()> {
        let entry = self.entry(handle)?;
        entry.faults.lock().poisoned = scope;
        let (scope_name, version) = match scope {
            PoisonScope::None => ("none", String::new()),
            PoisonScope::All => ("all", String::new()),
            PoisonScope::Version(v) => ("version", v.to_string()),
        };
        self.inner.obs.event(
            COMPONENT,
            "model_fault_injected",
            sim_time,
            &[
                ("model", entry.name.as_str()),
                ("kind", "poison"),
                ("scope", scope_name),
                ("version", version.as_str()),
            ],
        );
        Ok(())
    }

    /// Detaches any fault channel and clears the poison scope.
    pub fn clear_faults(&self, handle: ModelHandle) -> Result<()> {
        let entry = self.entry(handle)?;
        let mut faults = entry.faults.lock();
        faults.source = None;
        faults.poisoned = PoisonScope::None;
        Ok(())
    }

    /// Serves one request on the caller thread: admission, canary or shadow
    /// routing, the breaker, model inference, then the fault channel, poison
    /// guard and breaker accounting, all in request order.
    pub fn predict(
        &self,
        handle: ModelHandle,
        features: &[f64],
        sim_time: f64,
    ) -> Result<Prediction> {
        let entry = self.entry(handle)?;
        Ok(self.serve_one(&entry, features, sim_time))
    }

    /// Picks the snapshot a request is served by: the staged canary
    /// candidate for its deterministic traffic slice, the primary
    /// otherwise. A shadow-phase candidate is mirrored here (inference on
    /// the caller thread, answer logged, primary still served) — both the
    /// ticket advance and the mirror happen in request order, which is what
    /// keeps canary routing byte-identical across replays.
    fn route(
        &self,
        entry: &ModelEntry,
        primary: Arc<ServingSnapshot>,
        features: &[f64],
        sim_time: f64,
    ) -> Arc<ServingSnapshot> {
        let candidate = entry.candidate.read();
        let Some(c) = candidate.as_ref() else {
            return primary;
        };
        match c.phase {
            DeployPhase::Canary => {
                let ticket = entry.canary_ticket.fetch_add(1, Relaxed);
                if ticket % 100 < c.traffic_pct as u64 {
                    self.inner.counters.canary_routed.fetch_add(1, Relaxed);
                    self.inner.obs.counter_add(
                        COMPONENT,
                        "canary_routed",
                        &[("model", entry.name.as_str())],
                        1,
                    );
                    c.snapshot.clone()
                } else {
                    primary
                }
            }
            DeployPhase::Shadow => {
                let shadow = c.snapshot.clone();
                drop(candidate);
                let clean = shadow.model.predict(features);
                let digest = digest_f64(features.iter().copied());
                // The mirror sees version-scoped poison (a corrupted
                // candidate artifact must look corrupted in shadow), but
                // not the staleness/timeout channel — those model the
                // serving path, which shadow traffic never takes.
                let value = {
                    let mut channel = entry.faults.lock();
                    if channel.poisoned.covers(shadow.version) {
                        channel
                            .source
                            .as_mut()
                            .map_or(clean, |faults| faults.apply_poison(clean))
                    } else {
                        clean
                    }
                };
                self.inner.counters.shadow_serves.fetch_add(1, Relaxed);
                let mut batch = self.inner.obs.batch();
                batch.counter_add(
                    COMPONENT,
                    "shadow_serves",
                    &[("model", entry.name.as_str())],
                    1,
                );
                batch.record_decision(
                    COMPONENT,
                    "shadow_serve",
                    &Provenance::new(&entry.name, shadow.version, digest),
                    value,
                    None,
                    "shadow",
                    false,
                    0,
                    sim_time,
                );
                drop(batch);
                let mut log = entry.shadow_log.lock();
                if log.len() >= SHADOW_LOG_CAP {
                    log.pop_front();
                }
                log.push_back(ShadowSample {
                    features_digest: digest,
                    version: shadow.version,
                    value,
                    sim_time,
                });
                primary
            }
        }
    }

    fn serve_one(&self, entry: &ModelEntry, features: &[f64], sim_time: f64) -> Prediction {
        self.admit(entry);
        let digest = if self.inner.obs.is_enabled() {
            digest_f64(features.iter().copied())
        } else {
            0
        };
        let Some(primary) = entry.snapshot.read().clone() else {
            return self.serve_fallback(
                entry,
                0,
                digest,
                features,
                FallbackCause::NoModel,
                sim_time,
            );
        };
        let snapshot = self.route(entry, primary, features, sim_time);
        if !self.breaker_admits(entry, sim_time) {
            return self.serve_fallback(
                entry,
                snapshot.version,
                digest,
                features,
                FallbackCause::BreakerOpen,
                sim_time,
            );
        }
        self.inner.counters.model_calls.fetch_add(1, Relaxed);
        let clean = snapshot.model.predict(features);
        self.settle(entry, &snapshot, features, digest, clean, sim_time)
    }

    fn admit(&self, entry: &ModelEntry) {
        self.inner.counters.requests.fetch_add(1, Relaxed);
        self.inner
            .obs
            .counter_add(COMPONENT, "requests", &[("model", entry.name.as_str())], 1);
    }

    /// Per-model SLO bookkeeping: every answer either meets the objective
    /// (fresh model serves) or consumes error budget (stale values,
    /// fallbacks of any cause). Watchtower's SLO engine and the exported
    /// metrics registry aggregate these.
    fn record_slo(&self, entry: &ModelEntry, good: bool) {
        let name = if good { "slo_good" } else { "slo_bad" };
        self.inner
            .obs
            .counter_add(COMPONENT, name, &[("model", entry.name.as_str())], 1);
    }

    fn breaker_admits(&self, entry: &ModelEntry, sim_time: f64) -> bool {
        if !self.inner.config.breaker.enabled {
            return true;
        }
        let (allowed, transition) = entry.breaker.lock().allow(sim_time);
        if let Some(t) = transition {
            self.record_transition(entry, t, sim_time);
        }
        allowed
    }

    /// Applies fault channels, the poison guard and breaker accounting to a
    /// freshly computed `clean` prediction.
    fn settle(
        &self,
        entry: &ModelEntry,
        snapshot: &ServingSnapshot,
        features: &[f64],
        digest: u64,
        clean: f64,
        sim_time: f64,
    ) -> Prediction {
        let served = {
            let mut channel = entry.faults.lock();
            let biased = if channel.poisoned.covers(snapshot.version) {
                channel
                    .source
                    .as_mut()
                    .map_or(clean, |faults| faults.apply_poison(clean))
            } else {
                clean
            };
            match channel.source.as_mut() {
                Some(faults) => faults.serve(biased),
                None => Served::Fresh(biased),
            }
        };
        match served {
            Served::Timeout => {
                self.breaker_failure(entry, sim_time);
                self.serve_fallback(
                    entry,
                    snapshot.version,
                    digest,
                    features,
                    FallbackCause::Timeout,
                    sim_time,
                )
            }
            Served::Stale(previous) => {
                self.inner.counters.stale.fetch_add(1, Relaxed);
                self.inner.obs.counter_add(
                    COMPONENT,
                    "stale_served",
                    &[("model", entry.name.as_str())],
                    1,
                );
                self.breaker_failure(entry, sim_time);
                self.record_slo(entry, false);
                Prediction {
                    value: previous,
                    version: snapshot.version,
                    source: Source::Stale,
                    features_digest: digest,
                }
            }
            Served::Fresh(value) => {
                let guard = self.inner.config.breaker.guard_factor;
                if self.inner.config.breaker.enabled && guard.is_finite() {
                    let heuristic = (entry.fallback)(features);
                    let ratio = value.abs().max(1e-12) / heuristic.abs().max(1e-12);
                    if ratio > guard || ratio < 1.0 / guard {
                        self.inner.obs.counter_add(
                            COMPONENT,
                            "guard_trips",
                            &[("model", entry.name.as_str())],
                            1,
                        );
                        self.breaker_failure(entry, sim_time);
                        return self.serve_fallback(
                            entry,
                            snapshot.version,
                            digest,
                            features,
                            FallbackCause::Guarded,
                            sim_time,
                        );
                    }
                }
                if self.inner.config.breaker.enabled {
                    if let Some(t) = entry.breaker.lock().on_success() {
                        self.record_transition(entry, t, sim_time);
                    }
                }
                self.record_slo(entry, true);
                Prediction {
                    value,
                    version: snapshot.version,
                    source: Source::Model,
                    features_digest: digest,
                }
            }
        }
    }

    fn breaker_failure(&self, entry: &ModelEntry, sim_time: f64) {
        if !self.inner.config.breaker.enabled {
            return;
        }
        if let Some(t) = entry.breaker.lock().on_failure(sim_time) {
            self.record_transition(entry, t, sim_time);
        }
    }

    fn record_transition(&self, entry: &ModelEntry, transition: Transition, sim_time: f64) {
        let mut batch = self.inner.obs.batch();
        batch.event(
            COMPONENT,
            "breaker_transition",
            sim_time,
            &[
                ("model", entry.name.as_str()),
                ("from", transition.from.name()),
                ("to", transition.to.name()),
            ],
        );
        batch.counter_add(
            COMPONENT,
            "breaker_transitions",
            &[("model", entry.name.as_str()), ("to", transition.to.name())],
            1,
        );
    }

    fn serve_fallback(
        &self,
        entry: &ModelEntry,
        version: u64,
        digest: u64,
        features: &[f64],
        cause: FallbackCause,
        sim_time: f64,
    ) -> Prediction {
        let value = (entry.fallback)(features);
        self.inner.counters.fallbacks.fetch_add(1, Relaxed);
        self.record_slo(entry, false);
        if self.inner.obs.is_enabled() {
            let mut batch = self.inner.obs.batch();
            batch.counter_add(
                COMPONENT,
                "fallbacks",
                &[("model", entry.name.as_str()), ("cause", cause.name())],
                1,
            );
            batch.record_decision(
                COMPONENT,
                "degraded_serve",
                &Provenance::new(&entry.name, version, digest),
                value,
                None,
                cause.name(),
                true,
                0,
                sim_time,
            );
        }
        Prediction {
            value,
            version,
            source: Source::Fallback(cause),
            features_digest: digest,
        }
    }

    /// Aggregate counters.
    pub fn stats(&self) -> GatewayStats {
        let c = &self.inner.counters;
        GatewayStats {
            requests: c.requests.load(Relaxed),
            cache_hits: 0,
            cache_misses: 0,
            model_calls: c.model_calls.load(Relaxed),
            fallbacks: c.fallbacks.load(Relaxed),
            shed: 0,
            stale: c.stale.load(Relaxed),
            canary_routed: c.canary_routed.load(Relaxed),
            shadow_serves: c.shadow_serves.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FnModel;
    use adas_faultsim::ModelFaults;

    fn identity_gateway(config: GatewayConfig) -> (Gateway, ModelHandle) {
        let gateway = Gateway::with_obs(config, Obs::disabled());
        let handle = gateway.register("test/identity", |f: &[f64]| f[0] * 10.0);
        gateway
            .publish(handle, Arc::new(FnModel(|f: &[f64]| f[0] + 1.0)), 0.05)
            .unwrap();
        (gateway, handle)
    }

    #[test]
    fn unregistered_handle_errors() {
        let gateway = Gateway::with_obs(GatewayConfig::standard(), Obs::disabled());
        let err = gateway.predict(ModelHandle(3), &[1.0], 0.0).unwrap_err();
        assert!(matches!(err, ServeError::UnknownModel(_)));
    }

    #[test]
    fn register_is_idempotent() {
        let gateway = Gateway::with_obs(GatewayConfig::standard(), Obs::disabled());
        let a = gateway.register("m", |_| 0.0);
        let b = gateway.register("m", |_| 1.0);
        assert_eq!(a, b);
        assert_eq!(gateway.model_count(), 1);
        assert_eq!(gateway.resolve("m"), Some(a));
    }

    #[test]
    fn unpublished_model_serves_fallback() {
        let gateway = Gateway::with_obs(GatewayConfig::standard(), Obs::disabled());
        let handle = gateway.register("m", |f: &[f64]| f[0] * 2.0);
        let p = gateway.predict(handle, &[3.0], 0.0).unwrap();
        assert_eq!(p.value, 6.0);
        assert_eq!(p.source, Source::Fallback(FallbackCause::NoModel));
        assert_eq!(p.version, 0);
    }

    #[test]
    fn model_path_serves_fresh_inference() {
        let (gateway, handle) = identity_gateway(GatewayConfig::standard());
        let first = gateway.predict(handle, &[2.0], 0.0).unwrap();
        assert_eq!(first.value, 3.0);
        assert_eq!(first.source, Source::Model);
    }

    #[test]
    fn features_digest_is_set_exactly_when_recording() {
        let features = [2.0, 0.5];
        let digest = digest_f64(features.iter().copied());
        assert_ne!(digest, 0);
        for (obs, expected) in [(Obs::recording(), digest), (Obs::disabled(), 0)] {
            let gateway = Gateway::with_obs(GatewayConfig::standard(), obs);
            let handle = gateway.register("m", |f: &[f64]| f[0] + 1.0);
            let fallback = gateway.predict(handle, &features, 0.0).unwrap();
            assert_eq!(fallback.source, Source::Fallback(FallbackCause::NoModel));
            assert_eq!(fallback.features_digest, expected);
            gateway
                .publish(handle, Arc::new(FnModel(|f: &[f64]| f[0] + 1.0)), 0.05)
                .unwrap();
            for sim_time in [1.0, 2.0] {
                let p = gateway.predict(handle, &features, sim_time).unwrap();
                assert_eq!(p.source, Source::Model, "a repeat is inferred again");
                assert_eq!(p.features_digest, expected);
            }
            assert_eq!(gateway.stats().model_calls, 2);
        }
    }

    #[test]
    fn hot_swap_bumps_version() {
        let (gateway, handle) = identity_gateway(GatewayConfig::standard());
        assert_eq!(gateway.current_version(handle).unwrap(), Some(1));
        gateway.predict(handle, &[2.0], 0.0).unwrap();
        let v2 = gateway
            .publish(handle, Arc::new(FnModel(|f: &[f64]| f[0] + 100.0)), 0.01)
            .unwrap();
        assert_eq!(v2, 2);
        let p = gateway.predict(handle, &[2.0], 1.0).unwrap();
        assert_eq!(p.value, 102.0);
        assert_eq!(p.source, Source::Model);
        assert_eq!(p.version, 2);
    }

    #[test]
    fn rollback_restores_earlier_model() {
        let (gateway, handle) = identity_gateway(GatewayConfig::standard());
        gateway
            .publish(handle, Arc::new(FnModel(|f: &[f64]| f[0] + 100.0)), 0.9)
            .unwrap();
        let rolled = gateway.rollback(handle).unwrap().unwrap();
        assert_eq!(rolled, 3, "rollback redeploys as a new version");
        let p = gateway.predict(handle, &[2.0], 0.0).unwrap();
        assert_eq!(p.value, 3.0, "v1 (error 0.05) beat v2 (error 0.9)");
    }

    #[test]
    fn breaker_opens_on_timeouts_and_recovers() {
        let mut config = GatewayConfig::standard();
        config.breaker.failure_threshold = 2;
        config.breaker.cooldown_ticks = 10.0;
        config.breaker.probe_successes = 1;
        let (gateway, handle) = identity_gateway(config);
        gateway
            .inject_faults(handle, ModelFaults::new(7, 0.0, 1.0, 1.0))
            .unwrap();
        let a = gateway.predict(handle, &[1.0], 0.0).unwrap();
        assert_eq!(a.source, Source::Fallback(FallbackCause::Timeout));
        assert_eq!(gateway.breaker_state(handle).unwrap(), BreakerState::Closed);
        let b = gateway.predict(handle, &[1.0], 1.0).unwrap();
        assert_eq!(b.source, Source::Fallback(FallbackCause::Timeout));
        assert_eq!(gateway.breaker_state(handle).unwrap(), BreakerState::Open);
        // While open: fallback without touching the model.
        let c = gateway.predict(handle, &[1.0], 2.0).unwrap();
        assert_eq!(c.source, Source::Fallback(FallbackCause::BreakerOpen));
        assert_eq!(c.value, 10.0);
        // After the cooldown, a clean probe closes the breaker.
        gateway.clear_faults(handle).unwrap();
        let d = gateway.predict(handle, &[1.0], 11.0).unwrap();
        assert_eq!(d.source, Source::Model);
        assert_eq!(gateway.breaker_state(handle).unwrap(), BreakerState::Closed);
    }

    #[test]
    fn poison_guard_trips_to_fallback() {
        let mut config = GatewayConfig::standard();
        config.breaker.guard_factor = 1.5;
        let gateway = Gateway::with_obs(config, Obs::disabled());
        // Fallback heuristic ≈ model output, so an unpoisoned model passes.
        let handle = gateway.register("m", |f: &[f64]| f[0] + 1.0);
        gateway
            .publish(handle, Arc::new(FnModel(|f: &[f64]| f[0] + 1.0)), 0.0)
            .unwrap();
        assert_eq!(
            gateway.predict(handle, &[4.0], 0.0).unwrap().source,
            Source::Model
        );
        // Poison factor 2.0 pushes the ratio past the 1.5 guard.
        gateway
            .inject_faults(handle, ModelFaults::new(7, 0.0, 0.0, 2.0))
            .unwrap();
        gateway.set_poison_scope(handle, PoisonScope::All).unwrap();
        let p = gateway.predict(handle, &[4.0], 1.0).unwrap();
        assert_eq!(p.source, Source::Fallback(FallbackCause::Guarded));
        assert_eq!(p.value, 5.0, "served the heuristic, not the poisoned value");
    }

    #[test]
    fn disabled_gateway_is_pass_through() {
        let (gateway, handle) = identity_gateway(GatewayConfig::disabled());
        let p = gateway.predict(handle, &[9.0], 0.0).unwrap();
        assert_eq!(p.value, 10.0);
        assert_eq!(p.source, Source::Model);
        assert_eq!(p.features_digest, 0, "no digest computed on the fast path");
        let stats = gateway.stats();
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
    }

    #[test]
    fn obs_records_degraded_serve() {
        let obs = Obs::recording();
        let gateway = Gateway::with_obs(GatewayConfig::standard(), obs.clone());
        let handle = gateway.register("m", |f: &[f64]| f[0]);
        gateway.predict(handle, &[2.0], 3.0).unwrap();
        let trace = obs.snapshot();
        assert_eq!(trace.decisions.len(), 1);
        let d = &trace.decisions[0];
        assert_eq!(d.decision, "degraded_serve");
        assert_eq!(d.verdict, "no_model");
        assert!(d.vetoed);
        assert_eq!(d.sim_time, 3.0);
        assert_eq!(
            trace.metrics.counter(
                COMPONENT,
                "fallbacks",
                &[("model", "m"), ("cause", "no_model")]
            ),
            1
        );
    }

    #[test]
    fn canary_routes_deterministic_slice() {
        let (gateway, handle) = identity_gateway(GatewayConfig::standard());
        gateway
            .stage_candidate(
                handle,
                Arc::new(FnModel(|f: &[f64]| f[0] + 50.0)),
                0.01,
                DeployPhase::Canary,
                20,
                "test",
                0.0,
            )
            .unwrap();
        assert_eq!(
            gateway.candidate_status(handle).unwrap(),
            Some((2, DeployPhase::Canary))
        );
        let mut canary = 0;
        for i in 0..200 {
            let p = gateway.predict(handle, &[i as f64], i as f64).unwrap();
            if p.version == 2 {
                canary += 1;
                assert_eq!(p.value, i as f64 + 50.0);
            } else {
                assert_eq!(p.version, 1);
                assert_eq!(p.value, i as f64 + 1.0);
            }
        }
        // Ticket counter: tickets 0–19 of every 100 go to the candidate.
        assert_eq!(canary, 40);
        assert_eq!(gateway.stats().canary_routed, 40);
    }

    #[test]
    fn shadow_mirrors_without_serving() {
        let (gateway, handle) = identity_gateway(GatewayConfig::standard());
        gateway
            .stage_candidate(
                handle,
                Arc::new(FnModel(|f: &[f64]| f[0] * 2.0)),
                0.01,
                DeployPhase::Shadow,
                0,
                "test",
                0.0,
            )
            .unwrap();
        for i in 0..5 {
            let p = gateway.predict(handle, &[i as f64], i as f64).unwrap();
            assert_eq!(p.version, 1, "shadow answers are never served");
            assert_eq!(p.value, i as f64 + 1.0);
        }
        let samples = gateway.drain_shadow(handle).unwrap();
        assert_eq!(samples.len(), 5);
        assert_eq!(samples[2].value, 4.0);
        assert_eq!(samples[2].version, 2);
        assert_eq!(samples[2].sim_time, 2.0);
        assert_eq!(gateway.stats().shadow_serves, 5);
        assert!(gateway.drain_shadow(handle).unwrap().is_empty());
    }

    #[test]
    fn candidate_lifecycle_records_typed_deployments() {
        let obs = Obs::recording();
        let gateway = Gateway::with_obs(GatewayConfig::standard(), obs.clone());
        let handle = gateway.register("m", |f: &[f64]| f[0]);
        gateway
            .publish(handle, Arc::new(FnModel(|f: &[f64]| f[0] + 1.0)), 0.05)
            .unwrap();
        let staged = gateway
            .stage_candidate(
                handle,
                Arc::new(FnModel(|f: &[f64]| f[0] + 2.0)),
                0.02,
                DeployPhase::Shadow,
                0,
                "retrain:drift",
                1.0,
            )
            .unwrap();
        assert_eq!(staged, 2);
        gateway
            .advance_candidate(handle, 25, "shadow_healthy", 2.0)
            .unwrap();
        assert_eq!(
            gateway.candidate_status(handle).unwrap(),
            Some((2, DeployPhase::Canary))
        );
        let promoted = gateway
            .promote_candidate(handle, 0.02, "canary_healthy", 3.0)
            .unwrap();
        assert_eq!(promoted, 2);
        assert_eq!(gateway.candidate_status(handle).unwrap(), None);
        assert_eq!(gateway.current_version(handle).unwrap(), Some(2));
        let p = gateway.predict(handle, &[1.0], 4.0).unwrap();
        assert_eq!(p.value, 3.0, "promoted candidate now serves");
        // A failed candidate: stage then demote.
        gateway
            .stage_candidate(
                handle,
                Arc::new(FnModel(|f: &[f64]| f[0] + 9.0)),
                0.02,
                DeployPhase::Canary,
                10,
                "retrain:drift",
                5.0,
            )
            .unwrap();
        gateway
            .demote_candidate(handle, "canary_unhealthy", 6.0)
            .unwrap();
        assert_eq!(gateway.candidate_status(handle).unwrap(), None);
        let trace = obs.snapshot();
        let got: Vec<(DeploymentKind, String, u64)> = trace
            .deployments
            .iter()
            .map(|d| (d.kind, d.cause.clone(), d.version))
            .collect();
        assert_eq!(
            got,
            vec![
                (DeploymentKind::Publish, "manual".to_string(), 1),
                (DeploymentKind::ShadowStart, "retrain:drift".to_string(), 2),
                (DeploymentKind::CanaryStart, "shadow_healthy".to_string(), 2),
                (DeploymentKind::Promote, "canary_healthy".to_string(), 2),
                (DeploymentKind::CanaryStart, "retrain:drift".to_string(), 3),
                (DeploymentKind::Demote, "canary_unhealthy".to_string(), 3),
            ]
        );
        assert!(trace.deployments.iter().all(|d| d.model_id == "m"));
    }

    #[test]
    fn publish_discards_staged_candidate() {
        let obs = Obs::recording();
        let gateway = Gateway::with_obs(GatewayConfig::standard(), obs.clone());
        let handle = gateway.register("m", |f: &[f64]| f[0]);
        gateway
            .publish(handle, Arc::new(FnModel(|f: &[f64]| f[0] + 1.0)), 0.05)
            .unwrap();
        gateway
            .stage_candidate(
                handle,
                Arc::new(FnModel(|f: &[f64]| f[0] + 2.0)),
                0.02,
                DeployPhase::Shadow,
                0,
                "test",
                1.0,
            )
            .unwrap();
        gateway
            .publish(handle, Arc::new(FnModel(|f: &[f64]| f[0] + 3.0)), 0.01)
            .unwrap();
        assert_eq!(gateway.candidate_status(handle).unwrap(), None);
        let trace = obs.snapshot();
        let demote = trace
            .deployments
            .iter()
            .find(|d| d.kind == DeploymentKind::Demote)
            .expect("implicit demote recorded");
        assert_eq!(demote.cause, "superseded_by_publish");
    }

    #[test]
    fn version_scoped_poison_spares_other_versions() {
        let (gateway, handle) = identity_gateway(GatewayConfig::standard());
        gateway
            .inject_faults(handle, ModelFaults::new(7, 0.0, 0.0, 4.0))
            .unwrap();
        gateway
            .set_poison_scope(handle, PoisonScope::Version(2))
            .unwrap();
        gateway
            .stage_candidate(
                handle,
                Arc::new(FnModel(|f: &[f64]| f[0] + 1.0)),
                0.05,
                DeployPhase::Shadow,
                0,
                "test",
                0.0,
            )
            .unwrap();
        let p = gateway.predict(handle, &[1.0], 0.0).unwrap();
        assert_eq!(p.value, 2.0, "primary v1 is outside the poison scope");
        let samples = gateway.drain_shadow(handle).unwrap();
        assert_eq!(samples[0].value, 8.0, "candidate v2 output is poisoned 4x");
        // Widen to all versions: the primary is now hit too.
        gateway.set_poison_scope(handle, PoisonScope::All).unwrap();
        let p = gateway.predict(handle, &[1.0], 1.0).unwrap();
        assert_eq!(p.value, 8.0);
    }
}
