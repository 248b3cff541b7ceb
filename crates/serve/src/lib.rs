//! Model-serving gateway for the autonomy loop.
//!
//! The paper's model hierarchy (Zhu et al., SIGMOD 2023, §4) only works in
//! production because every learned model sits behind shared serving
//! machinery: versioned deployment, bounded inference latency, and automatic
//! fallback to engine defaults when a model misbehaves. This crate is that
//! layer for the reproduction — a [`Gateway`] that fronts the optimizer's
//! learned cardinality micromodels (`learned::serving`) and owns:
//!
//! * **one request path**: [`Gateway::predict`] admits a request, routes it
//!   to the serving version or a staged canary or shadow candidate, asks
//!   the model and settles the answer, all on the caller thread,
//! * **per-model circuit breakers** driven by `faultsim`'s model
//!   timeout/staleness/poisoning channels: after N consecutive failures the
//!   breaker opens and the gateway serves the registered heuristic fallback
//!   (the engine's default estimate) while recording a degraded-mode
//!   `DecisionRecord`, closing again via half-open probes,
//! * **versioned hot-swap**: publishing through `core`'s `ModelRegistry`
//!   atomically swaps the serving snapshot under concurrent readers, with no
//!   lock held during inference.
//!
//! # Determinism
//!
//! Every piece of mutable state — fault-channel RNG draws, breaker
//! transitions, canary tickets, obs records — is touched on the caller
//! thread in request order. Same seed, same requests ⇒ byte-identical
//! trace.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod autonomy;
mod breaker;
mod canary;
mod gateway;
mod model;

pub use autonomy::{
    AutonomyAction, AutonomyConfig, AutonomyController, CanaryConfig, HealthSignal, Retrainer,
    SloPolicy,
};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, Transition};
pub use canary::{DeployPhase, ShadowSample};
pub use gateway::{
    FallbackCause, Gateway, GatewayConfig, GatewayStats, PoisonScope, Prediction, ServingSnapshot,
    Source,
};
pub use model::{FnModel, ModelHandle, RegressorModel, ServableModel};

use std::fmt;

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A [`ModelHandle`] did not resolve to a registered model.
    UnknownModel(String),
    /// A candidate operation (advance/promote/demote) found no staged
    /// candidate for the named model.
    NoCandidate(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownModel(which) => write!(f, "unknown model: {which}"),
            ServeError::NoCandidate(which) => {
                write!(f, "no staged candidate for model: {which}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Convenience alias for serving-layer results.
pub type Result<T> = std::result::Result<T, ServeError>;
