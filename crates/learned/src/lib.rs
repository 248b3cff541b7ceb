//! Learned query-engine components.
//!
//! Implements the query-engine-layer learning of Sec 4.2 under its guiding
//! principle — "minimize changes to the existing optimizer and supplement it
//! with learned components", all of them *externalized* from the engine:
//!
//! * [`features`] — plan featurization shared by every model.
//! * [`cardinality`] — per-template cardinality **micromodels** with the
//!   pruning step that retains "only those that would actually improve
//!   performance" (\[49\], CLEO). Falls back to the default estimator for
//!   templates without a model. Trains either from a plan history or from
//!   the engine's execution-feedback store (`train_from_feedback`), the
//!   Peregrine loop closed.
//! * [`cost`] — learned cost micromodels plus the **meta ensemble** "that
//!   corrects and combines predictions from individual models to increase
//!   coverage" (\[46\]).
//! * [`steering`] — rule-hint steering (Bao adapted to production, [35,
//!   51]): a per-template contextual bandit restricted to **small
//!   incremental steps** (Hamming distance 1 in rule-config space) and
//!   guarded by a **validation model** against regressions.
//! * [`serving`] — the gateway-served cardinality estimator: the fitted
//!   micromodels are published into a `serve::Gateway` so the optimizer's
//!   learned cardinalities flow through versioned, breaker-guarded
//!   serving.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cardinality;
pub mod cost;
pub mod features;
pub mod serving;
pub mod steering;

pub use cardinality::{LearnedCardinality, MicromodelReport};
pub use cost::{CostEnsemble, CostEnsembleReport};
pub use serving::ServedCardinality;
pub use steering::{SteeringConfig, SteeringController, SteeringStats};
