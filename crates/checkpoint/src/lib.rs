//! Phoebe: a learning-based checkpoint optimizer (Sec 4.2, \[52\]).
//!
//! "We trained models to estimate the execution time, output size, and
//! start/end time of each stage taking into account of the inter-stage
//! dependency, then applied a linear programming algorithm to introduce
//! checkpoint 'cut(s)' of the query DAG. With this checkpoint optimizer, we
//! were able to free the temporary storage on hotspots by more than 70% and
//! restart failed jobs 68% faster on average with minimal impact on Cosmos
//! performance."
//!
//! The pipeline here mirrors that structure:
//!
//! 1. [`predict::StagePredictor`] — models trained on *historical runs*
//!    (simulated executions) that estimate per-stage duration and output
//!    size from optimizer-visible features only, then propagate start/end
//!    times through the DAG's dependencies.
//! 2. [`cut::plan_checkpoints`] — selects checkpoint cut(s): temporal
//!    frontiers of the DAG placed at the temp-storage residency peak inside
//!    a progress window. (The paper solves an LP balancing freed storage
//!    against write cost; over the discrete candidate frontier set used
//!    here, exhaustive scoring finds the same optimum — see DESIGN.md
//!    substitutions.)
//! 3. [`cut::evaluate`] — replays the DAG on the cluster simulator with and
//!    without the plan, reporting hotspot temp reduction, restart speedup
//!    under failure injection, and the runtime overhead.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cut;
pub mod predict;

pub use cut::{evaluate, plan_checkpoints, CheckpointPlan, PhoebeConfig, PhoebeReport};
pub use predict::{StageForecast, StagePredictor};
