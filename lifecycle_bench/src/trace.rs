//! Wall-clock spans around every layer call, for the traced passes.
//!
//! Spans go into a benchmark-owned recorder whose time axis is wall-clock
//! microseconds since the pass started. Each layer call's span is a child
//! of its job's span, so all spans of one job share the job span as their
//! root. Self time is computed by `watchtower::critical_path`, whose
//! per-component self time plus untracked time sums exactly to the trace
//! envelope.

use adas_engine::cardinality::CardinalityModel;
use adas_obs::{Obs, SpanId, Trace};
use adas_workload::plan::LogicalPlan;
use std::cell::Cell;
use std::time::Instant;

/// Span component of the job envelope. Its self time is the benchmark's
/// own glue between layer calls: the unattributed share.
pub const JOB: &str = "job";

/// Layer span components, in per-job path order.
pub const LAYERS: [&str; 9] = [
    "sql",
    "engine.rules",
    "learned",
    "engine.physical",
    "engine.exec",
    "serve.autonomy",
    "serve.autonomy.retrain",
    "obs",
    "watchtower",
];

/// Records layer spans while armed; otherwise every call is a no-op.
pub struct Tracer {
    obs: Obs,
    armed: Cell<bool>,
    t0: Instant,
}

impl Tracer {
    /// A tracer that never records (untraced passes).
    pub fn off() -> Self {
        Self {
            obs: Obs::disabled(),
            armed: Cell::new(false),
            t0: Instant::now(),
        }
    }

    /// A tracer that records once [`Tracer::arm`] is called.
    pub fn recording() -> Self {
        Self {
            obs: Obs::recording(),
            ..Self::off()
        }
    }

    /// Starts recording; time zero stays at construction, so spans of
    /// successive arm/disarm phases never overlap. No-op on an `off`
    /// tracer.
    pub fn arm(&self) {
        self.armed.set(self.obs.is_enabled());
    }

    /// Stops recording; spans recorded so far stay in memory.
    pub fn disarm(&self) {
        self.armed.set(false);
    }

    /// Whether spans are being recorded.
    pub fn armed(&self) -> bool {
        self.armed.get()
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span of `layer`, parented to the innermost open span.
    pub fn enter(&self, layer: &str, op: &str) -> SpanId {
        if !self.armed.get() {
            return SpanId::NONE;
        }
        self.obs.span_enter(layer, op, self.now_us())
    }

    /// Opens the envelope span of job `index`.
    pub fn enter_job(&self, index: usize) -> SpanId {
        if !self.armed.get() {
            return SpanId::NONE;
        }
        self.obs
            .span_enter_indexed(JOB, "job", index, self.now_us())
    }

    /// Closes a span opened by this tracer.
    pub fn exit(&self, span: SpanId) {
        if span.is_real() {
            self.obs.span_exit(span, self.now_us());
        }
    }

    /// Everything recorded so far.
    pub fn snapshot(&self) -> Trace {
        self.obs.snapshot()
    }

    /// Streams the recorded spans as canonical JSON.
    pub fn export_stream(&self, sink: impl FnMut(&str)) {
        self.obs.export_stream(adas_obs::DEFAULT_EXPORT_CHUNK, sink);
    }
}

/// Times every costing the optimizer makes through the served cardinality
/// model, and counts them.
pub struct Costed<'a, M> {
    pub inner: &'a M,
    pub tracer: &'a Tracer,
    pub costings: &'a Cell<u64>,
}

impl<M: CardinalityModel> CardinalityModel for Costed<'_, M> {
    fn annotate(&self, plan: &LogicalPlan) -> adas_engine::Result<Vec<f64>> {
        let span = self.tracer.enter("learned", "annotate");
        let out = self.inner.annotate(plan);
        self.tracer.exit(span);
        self.costings.set(self.costings.get() + 1);
        out
    }
}
