//! Pipeline optimization and dependency-aware scheduling.
//!
//! "Production workloads not only have many recurrent queries, but also many
//! recurrent query pipelines, where queries are interconnected by their
//! outputs and inputs. For example, 70% of daily SCOPE jobs have inter-job
//! dependencies. We analyzed the interdependency to facilitate job
//! scheduling \[8\] and developed a pipeline optimizer to optimize these
//! recurrent pipelines \[14\], including collecting pipeline-aware statistics
//! and pushing common subexpressions across consumer jobs to their producer
//! job." (Sec 4.2)
//!
//! * [`graph`] — the inter-job dependency graph and pipeline-aware
//!   statistics (pipeline membership, sizes, recurrence).
//! * [`pushdown`] — the Pipemizer transformation: a subexpression computed
//!   by several consumers of one producer is computed once in the producer
//!   and shipped as an extra output.
//! * [`sched`] — dependency-aware job scheduling (Wing, \[8\]): comparing
//!   dependency-blind FIFO with critical-path-aware ordering on a bounded
//!   pool of job slots.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod graph;
pub mod pushdown;
pub mod sched;

pub use graph::{PipelineGraph, PipelineStats};
pub use pushdown::{optimize_pipelines, PushdownReport};
pub use sched::{
    schedule, schedule_pipelined, OptimizerMode, PipelinedReport, Policy, ScheduleReport,
};
