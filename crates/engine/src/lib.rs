//! SCOPE-like query engine simulator.
//!
//! The paper's query-engine-layer work (Sec 4.2) runs inside Cosmos' SCOPE
//! engine and Synapse Spark — closed production systems. This crate is the
//! substitute substrate: a deterministic engine simulator exposing exactly
//! the surfaces those learned components attach to:
//!
//! * [`cardinality`] — a *default* estimator that walks a plan with
//!   classical uniformity/independence assumptions, and a *ground-truth*
//!   oracle whose skew- and correlation-aware cardinalities are what the
//!   execution simulator actually charges. The gap between the two is the
//!   signal the learned cardinality micromodels recover.
//! * [`cost`] — an operator cost model over cardinality annotations, with
//!   both estimated and true variants.
//! * [`rules`] — a rule-based rewrite optimizer with a per-rule enable
//!   bitmask ([`rules::RuleSet`]). Rule-hint steering (Bao adapted to
//!   production, Sec 4.2) toggles these bits per template.
//! * [`physical`] — compilation of a logical plan into a DAG of stages with
//!   per-stage work, parallelism and temp-storage footprints (the structure
//!   Phoebe's checkpoint optimizer cuts).
//! * [`exec`] — an event-driven cluster execution simulator: machines with
//!   task slots and bounded local temp storage, list scheduling, and the
//!   precomputed stages a restart skips (`adas_faultsim` owns the restarts).
//! * [`feedback`] — the Peregrine-style workload feedback mechanism:
//!   per-template runtime observations recorded at execution time, the
//!   label source the learned components train from.
//!
//! # Example
//!
//! ```
//! use adas_workload::catalog::Catalog;
//! use adas_workload::plan::{CmpOp, LogicalPlan, Predicate};
//! use adas_engine::cardinality::{CardinalityModel, DefaultEstimator, TrueCardinality};
//!
//! let catalog = Catalog::standard();
//! let plan = LogicalPlan::scan("events")
//!     .filter(Predicate::single(1, CmpOp::Eq, 3))
//!     .aggregate(vec![3]);
//! let default = DefaultEstimator::new(&catalog).estimate(&plan).unwrap();
//! let truth = TrueCardinality::new(&catalog).estimate(&plan).unwrap();
//! assert!(default > 0.0 && truth > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cardinality;
pub mod cost;
mod error;
pub mod exec;
pub mod feedback;
pub mod physical;
pub mod rules;

pub use error::EngineError;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, EngineError>;
