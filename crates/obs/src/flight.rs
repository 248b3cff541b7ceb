//! The flight recorder: decision provenance for the autonomy loop.
//!
//! Every autonomous decision — a guardrail check, a monitor verdict, a
//! steering hint, a forecast-driven schedule — is logged with the identity
//! of the model that made it, a digest of the inputs it saw, what it
//! predicted, what was later observed, and how the guardrails ruled. This is
//! the audit trail that makes learned-system regressions debuggable: "which
//! model version made which decision, and why".

use crate::span::SpanId;
use serde::{Deserialize, Serialize};

/// Identity of the model behind one decision, supplied by the call site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Provenance<'a> {
    /// Stable model identifier (e.g. `cost-ensemble`, `steering-bandit`).
    pub model_id: &'a str,
    /// Deployed version number (from the model registry).
    pub model_version: u64,
    /// Digest of the input features the model saw (see [`digest_f64`]).
    pub features_digest: u64,
}

impl<'a> Provenance<'a> {
    /// Builds a provenance tag.
    pub fn new(model_id: &'a str, model_version: u64, features_digest: u64) -> Self {
        Self {
            model_id,
            model_version,
            features_digest,
        }
    }
}

/// One autonomy-loop decision, as recorded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Logical sequence number (total order within the trace).
    pub seq: u64,
    /// Enclosing span, if the decision was made inside one.
    pub span: Option<SpanId>,
    /// Simulated time of the decision, seconds.
    pub sim_time: f64,
    /// Deciding subsystem (e.g. `core.guardrails`).
    pub component: String,
    /// What was decided (e.g. `autonomy_decision`, `backup_window`).
    pub decision: String,
    /// Model identifier.
    pub model_id: String,
    /// Model version that produced the prediction.
    pub model_version: u64,
    /// Digest of the input features.
    pub features_digest: u64,
    /// The model's predicted outcome.
    pub predicted: f64,
    /// The observed outcome, when one exists at record time.
    pub observed: Option<f64>,
    /// Guardrail or monitor verdict, verbatim (e.g. `allow`,
    /// `block: regression guard: …`, `rollback`).
    pub verdict: String,
    /// True when the verdict vetoed the decision.
    pub vetoed: bool,
    /// Simulated ticks between the prediction being made and its outcome
    /// being observed (0 when feedback was immediate or absent).
    pub feedback_latency_ticks: u64,
}

impl DecisionRecord {
    /// Ratio of predicted to observed outcome, as a symmetric error factor
    /// `>= 1` (2.0 means the prediction was off by 2x in either direction).
    /// `None` when no outcome was observed or either side is non-positive.
    pub fn error_factor(&self) -> Option<f64> {
        let observed = self.observed?;
        if self.predicted <= 0.0 || observed <= 0.0 {
            return None;
        }
        Some((self.predicted / observed).max(observed / self.predicted))
    }
}

/// What kind of deployment change a [`DeploymentRecord`] captures.
///
/// These are the edges of the serving layer's deployment state machine
/// (Stable → Shadow → Canary → Promote/Demote, plus direct publishes and
/// rollbacks). Recording them as *typed* trace records — rather than
/// free-form events — is what makes every deployment change reproducible
/// and queryable from the flight record alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeploymentKind {
    /// A new version was published and is serving all traffic.
    Publish,
    /// Serving was rolled back to an earlier (redeployed) version.
    Rollback,
    /// A candidate version was staged in shadow mode (mirrored traffic,
    /// answers not served).
    ShadowStart,
    /// A candidate version began serving a slice of live traffic.
    CanaryStart,
    /// A candidate passed evaluation and became the serving version.
    Promote,
    /// A candidate failed evaluation and was discarded.
    Demote,
}

impl DeploymentKind {
    /// Stable lowercase name used in exports and queries.
    pub fn name(self) -> &'static str {
        match self {
            DeploymentKind::Publish => "publish",
            DeploymentKind::Rollback => "rollback",
            DeploymentKind::ShadowStart => "shadow_start",
            DeploymentKind::CanaryStart => "canary_start",
            DeploymentKind::Promote => "promote",
            DeploymentKind::Demote => "demote",
        }
    }
}

/// One deployment change, as recorded in the flight recorder: which model,
/// which version, what happened and *why* (the triggering cause — e.g.
/// `drift`, `guard_trip`, `breaker_open`, `canary_healthy`, `manual`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentRecord {
    /// Logical sequence number (total order within the trace).
    pub seq: u64,
    /// Enclosing span, if any.
    pub span: Option<SpanId>,
    /// Simulated time of the change, seconds.
    pub sim_time: f64,
    /// Subsystem that made the change (e.g. `serve.gateway`).
    pub component: String,
    /// What happened.
    pub kind: DeploymentKind,
    /// Model identifier (gateway registration name).
    pub model_id: String,
    /// Version the change concerns: the newly serving version for
    /// publish/rollback/promote, the candidate version for
    /// shadow/canary/demote.
    pub version: u64,
    /// The triggering cause, verbatim.
    pub cause: String,
}

/// FNV-1a digest over the bit patterns of a feature vector — the cheap,
/// deterministic input fingerprint decision records carry.
pub fn digest_f64(features: impl IntoIterator<Item = f64>) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for f in features {
        for byte in f.to_bits().to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_input_sensitive() {
        let a = digest_f64([1.0, 2.0, 3.0]);
        let b = digest_f64([1.0, 2.0, 3.0]);
        let c = digest_f64([1.0, 2.0, 3.0000001]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn error_factor_is_symmetric() {
        let mut d = DecisionRecord {
            seq: 0,
            span: None,
            sim_time: 0.0,
            component: "t".into(),
            decision: "t".into(),
            model_id: "m".into(),
            model_version: 1,
            features_digest: 0,
            predicted: 10.0,
            observed: Some(5.0),
            verdict: "allow".into(),
            vetoed: false,
            feedback_latency_ticks: 0,
        };
        assert!((d.error_factor().unwrap() - 2.0).abs() < 1e-12);
        d.predicted = 5.0;
        d.observed = Some(10.0);
        assert!((d.error_factor().unwrap() - 2.0).abs() < 1e-12);
        d.observed = None;
        assert!(d.error_factor().is_none());
    }
}
