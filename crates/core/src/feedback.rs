//! The feedback loop: monitoring, drift detection, retraining, rollback
//! (Insight 3).
//!
//! "The dynamic nature of cloud data services … leads to requirements for
//! (1) a thorough monitoring system to spot potential changes in real-time,
//! continually assess, and initiate fine-tuning of the model, and (2) a
//! rollback mechanism that reacts fast and avoids regression."
//!
//! [`ModelRegistry`] keeps every deployed version; [`FeedbackLoop`] streams
//! `(prediction, actual)` pairs, compares recent error against the error the
//! deployed version showed at deployment time, and either requests a
//! retrain or rolls back to the best previous version.

use adas_obs::{Obs, Provenance};
use serde::Serialize;
use std::collections::VecDeque;

/// A deployed model version.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModelVersion<M> {
    /// Monotonically increasing version number.
    pub version: u64,
    /// The model artifact.
    pub model: M,
    /// Validation error recorded when this version was deployed.
    pub deployment_error: f64,
}

/// Versioned model storage with rollback.
#[derive(Debug, Clone, Default)]
pub struct ModelRegistry<M> {
    versions: Vec<ModelVersion<M>>,
    obs: Obs,
}

impl<M: Clone> ModelRegistry<M> {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self {
            versions: Vec::new(),
            obs: Obs::disabled(),
        }
    }

    /// Creates an empty registry that emits `model_deployed` /
    /// `model_rolled_back` trace events into `obs`. The registry has no
    /// simulated clock of its own, so events carry `sim_time` 0; their
    /// sequence numbers still totally order them against the rest of the
    /// trace.
    pub fn with_obs(obs: Obs) -> Self {
        Self {
            versions: Vec::new(),
            obs,
        }
    }

    /// Deploys a new version; returns its version number.
    pub fn deploy(&mut self, model: M, deployment_error: f64) -> u64 {
        let version = self.versions.last().map_or(1, |v| v.version + 1);
        self.versions.push(ModelVersion {
            version,
            model,
            deployment_error,
        });
        self.obs.event(
            "core.feedback",
            "model_deployed",
            0.0,
            &[
                ("version", &version.to_string()),
                ("deployment_error", &format!("{deployment_error}")),
            ],
        );
        version
    }

    /// The currently deployed version.
    pub fn current(&self) -> Option<&ModelVersion<M>> {
        self.versions.last()
    }

    /// Rolls back to the *best* earlier version (lowest deployment error),
    /// redeploying it as a new version. Returns the new version number, or
    /// `None` when there is no earlier version.
    pub fn rollback(&mut self) -> Option<u64> {
        if self.versions.len() < 2 {
            return None;
        }
        let best = self.versions[..self.versions.len() - 1]
            .iter()
            .min_by(|a, b| {
                a.deployment_error
                    .partial_cmp(&b.deployment_error)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("at least one earlier version")
            .clone();
        self.obs.event(
            "core.feedback",
            "model_rolled_back",
            0.0,
            &[("restored_version", &best.version.to_string())],
        );
        Some(self.deploy(best.model, best.deployment_error))
    }

    /// Number of versions ever deployed.
    pub fn version_count(&self) -> usize {
        self.versions.len()
    }

    /// The version number the *next* [`ModelRegistry::deploy`] call will
    /// assign — used to label a staged candidate (shadow/canary) before it
    /// is actually deployed.
    pub fn next_version(&self) -> u64 {
        self.versions.last().map_or(1, |v| v.version + 1)
    }
}

/// What the monitor concluded after an observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MonitorVerdict {
    /// Error is in line with deployment-time behaviour.
    Healthy,
    /// Error drifted above the retrain threshold: fine-tune/retrain.
    Retrain,
    /// Error exceeded the rollback threshold: roll back immediately.
    Rollback,
    /// Not enough recent observations to judge.
    Warming,
}

/// Configuration for [`FeedbackLoop`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LoopConfig {
    /// Sliding window length (observations) for the live error estimate.
    pub window: usize,
    /// Live error above `retrain_factor * deployment_error` requests a
    /// retrain.
    pub retrain_factor: f64,
    /// Live error above `rollback_factor * deployment_error` triggers
    /// rollback (should exceed `retrain_factor`).
    pub rollback_factor: f64,
}

impl Default for LoopConfig {
    fn default() -> Self {
        Self {
            window: 50,
            retrain_factor: 1.5,
            rollback_factor: 3.0,
        }
    }
}

/// The live monitoring half of the feedback loop.
#[derive(Debug, Clone)]
pub struct FeedbackLoop {
    config: LoopConfig,
    recent: VecDeque<f64>,
    obs: Obs,
}

impl FeedbackLoop {
    /// Creates a loop with the given configuration whose
    /// [`FeedbackLoop::observe_recorded`] logs monitor verdicts into `obs`.
    pub fn with_obs(config: LoopConfig, obs: Obs) -> Self {
        Self {
            config,
            recent: VecDeque::with_capacity(config.window),
            obs,
        }
    }

    /// Records one `(prediction, actual)` pair and returns the verdict
    /// against the deployed version's `deployment_error`.
    pub fn observe(
        &mut self,
        prediction: f64,
        actual: f64,
        deployment_error: f64,
    ) -> MonitorVerdict {
        let err = (prediction - actual).abs();
        if self.recent.len() == self.config.window {
            self.recent.pop_front();
        }
        self.recent.push_back(err);
        if self.recent.len() < self.config.window {
            return MonitorVerdict::Warming;
        }
        let live = self.recent.iter().sum::<f64>() / self.recent.len() as f64;
        let baseline = deployment_error.max(1e-12);
        if live > self.config.rollback_factor * baseline {
            MonitorVerdict::Rollback
        } else if live > self.config.retrain_factor * baseline {
            MonitorVerdict::Retrain
        } else {
            MonitorVerdict::Healthy
        }
    }

    /// Like [`FeedbackLoop::observe`], additionally recording the
    /// observation as a flight-recorder decision: the model's provenance,
    /// predicted vs. observed value, the monitor verdict, and the feedback
    /// latency in simulated ticks (how long the outcome took to arrive).
    /// A `Rollback` verdict is recorded as a veto.
    #[allow(clippy::too_many_arguments)]
    pub fn observe_recorded(
        &mut self,
        prediction: f64,
        actual: f64,
        deployment_error: f64,
        provenance: &Provenance<'_>,
        feedback_latency_ticks: u64,
        sim_time: f64,
    ) -> MonitorVerdict {
        let verdict = self.observe(prediction, actual, deployment_error);
        if self.obs.is_enabled() {
            let verdict_str = match verdict {
                MonitorVerdict::Healthy => "healthy",
                MonitorVerdict::Retrain => "retrain",
                MonitorVerdict::Rollback => "rollback",
                MonitorVerdict::Warming => "warming",
            };
            let mut batch = self.obs.batch();
            batch.counter_add("core.feedback", "verdicts", &[("verdict", verdict_str)], 1);
            batch.histogram_observe(
                "core.feedback",
                "feedback_latency_ticks",
                &[],
                feedback_latency_ticks as f64,
            );
            batch.record_decision(
                "core.feedback",
                "monitor_verdict",
                provenance,
                prediction,
                Some(actual),
                verdict_str,
                verdict == MonitorVerdict::Rollback,
                feedback_latency_ticks,
                sim_time,
            );
        }
        verdict
    }

    /// Clears the window (call after a rollback or redeploy so the new
    /// version is judged on its own observations).
    pub fn reset(&mut self) {
        self.recent.clear();
    }

    /// Current live mean absolute error, if the window is full.
    pub fn live_error(&self) -> Option<f64> {
        (self.recent.len() == self.config.window)
            .then(|| self.recent.iter().sum::<f64>() / self.recent.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_versions_monotone() {
        let mut reg = ModelRegistry::new();
        assert!(reg.current().is_none());
        assert_eq!(reg.next_version(), 1);
        assert_eq!(reg.deploy("m1", 0.1), 1);
        assert_eq!(reg.next_version(), 2);
        assert_eq!(reg.deploy("m2", 0.2), 2);
        assert_eq!(reg.current().unwrap().version, 2);
        assert_eq!(reg.version_count(), 2);
        assert_eq!(reg.next_version(), 3);
    }

    #[test]
    fn rollback_restores_best_earlier_version() {
        let mut reg = ModelRegistry::new();
        reg.deploy("ok", 0.2);
        reg.deploy("great", 0.05);
        reg.deploy("bad", 0.9);
        let v = reg.rollback().unwrap();
        assert_eq!(v, 4);
        assert_eq!(reg.current().unwrap().model, "great");
        assert_eq!(reg.current().unwrap().deployment_error, 0.05);
    }

    #[test]
    fn rollback_requires_history() {
        let mut reg: ModelRegistry<&str> = ModelRegistry::new();
        assert!(reg.rollback().is_none());
        reg.deploy("only", 0.1);
        assert!(reg.rollback().is_none());
    }

    #[test]
    fn loop_warms_then_judges() {
        let mut fl = FeedbackLoop::with_obs(
            LoopConfig {
                window: 5,
                ..Default::default()
            },
            Obs::disabled(),
        );
        for _ in 0..4 {
            assert_eq!(fl.observe(1.0, 1.05, 0.05), MonitorVerdict::Warming);
        }
        assert_eq!(fl.observe(1.0, 1.05, 0.05), MonitorVerdict::Healthy);
        assert!(fl.live_error().is_some());
    }

    #[test]
    fn drift_escalates_to_retrain_then_rollback() {
        let config = LoopConfig {
            window: 5,
            retrain_factor: 1.5,
            rollback_factor: 3.0,
        };
        let mut fl = FeedbackLoop::with_obs(config, Obs::disabled());
        // Deployment error 0.1; live error 0.2 → retrain zone.
        for _ in 0..4 {
            fl.observe(0.0, 0.2, 0.1);
        }
        assert_eq!(fl.observe(0.0, 0.2, 0.1), MonitorVerdict::Retrain);
        // Live error 0.5 → rollback zone once the window fills with it.
        for _ in 0..5 {
            fl.observe(0.0, 0.5, 0.1);
        }
        assert_eq!(fl.observe(0.0, 0.5, 0.1), MonitorVerdict::Rollback);
        fl.reset();
        assert_eq!(fl.observe(0.0, 0.5, 0.1), MonitorVerdict::Warming);
    }

    #[test]
    fn end_to_end_loop_with_registry() {
        // A concept-drift scenario: v2 regresses, the loop rolls back.
        let mut reg = ModelRegistry::new();
        reg.deploy(1.0f64, 0.02); // model = constant predictor value
        reg.deploy(5.0f64, 0.02); // bad model deployed with optimistic error
        let mut fl = FeedbackLoop::with_obs(
            LoopConfig {
                window: 10,
                ..Default::default()
            },
            Obs::disabled(),
        );
        let mut rolled_back = false;
        for _ in 0..20 {
            let current = reg.current().unwrap();
            let prediction = current.model;
            let actual = 1.0; // the world still looks like v1
            if fl.observe(prediction, actual, current.deployment_error) == MonitorVerdict::Rollback
            {
                reg.rollback();
                fl.reset();
                rolled_back = true;
                break;
            }
        }
        assert!(rolled_back);
        assert_eq!(reg.current().unwrap().model, 1.0);
    }
}
