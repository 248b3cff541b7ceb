//! Structured spans over *simulated* time.
//!
//! A span is an interval of simulated seconds with a parent link; because
//! both endpoints come from the deterministic simulators (never the wall
//! clock) and ordering comes from a logical sequence counter, the serialized
//! span tree of a same-seed replay is byte-identical to the original run.

use serde::{Deserialize, Serialize};

/// Identifier of one span within a trace.
///
/// Ids are assigned sequentially by the recorder, which keeps every span,
/// so a span's id is its position in the recording's span list.
/// [`SpanId::NONE`] is the sentinel returned when recording is disabled,
/// and exiting it is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The "not recording" sentinel.
    pub const NONE: SpanId = SpanId(u64::MAX);

    /// True when this id refers to a real recorded span.
    pub fn is_real(self) -> bool {
        self != Self::NONE
    }
}

/// One completed (or still-open) span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// Enclosing span at enter time, if any.
    pub parent: Option<SpanId>,
    /// Subsystem that opened the span (e.g. `engine.exec`).
    pub component: String,
    /// Operation name (e.g. `run_job`, `stage-3`).
    pub name: String,
    /// Simulated time at enter, seconds.
    pub start: f64,
    /// Simulated time at exit, seconds; equals `start` while open.
    pub end: f64,
    /// Logical sequence number of the enter event — the total order every
    /// replay reproduces exactly.
    pub seq: u64,
}

impl SpanRecord {
    /// Span duration in simulated seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}
