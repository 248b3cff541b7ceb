//! Trace snapshots, the query API over them, and borrowed record visits
//! ([`TraceRecords`]) shared by snapshots and deltas.

use crate::flight::{DecisionRecord, DeploymentKind, DeploymentRecord};
use crate::metrics::MetricsRegistry;
use crate::span::{SpanId, SpanRecord};
use serde::{Deserialize, Serialize};

/// A free-form event attached to the trace (fault injections, deploys,
/// rollbacks, progress marks).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Logical sequence number.
    pub seq: u64,
    /// Enclosing span, if any.
    pub span: Option<SpanId>,
    /// Simulated time, seconds.
    pub sim_time: f64,
    /// Emitting subsystem.
    pub component: String,
    /// Event name (e.g. `fault_injected`).
    pub name: String,
    /// Key/value payload, in emission order.
    pub fields: Vec<(String, String)>,
}

impl EventRecord {
    /// The value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// An immutable snapshot of everything a recorder captured.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Completed and open spans, in id order. In a recorder's full
    /// snapshot each span's id is its position here.
    pub spans: Vec<SpanRecord>,
    /// Free-form events, in sequence order.
    pub events: Vec<EventRecord>,
    /// Flight-recorder decision records, in sequence order.
    pub decisions: Vec<DecisionRecord>,
    /// Typed deployment changes (publish / rollback / shadow / canary /
    /// promote / demote), in sequence order. Defaults to empty when
    /// deserializing traces captured before this field existed.
    #[serde(default)]
    pub deployments: Vec<DeploymentRecord>,
    /// Metrics at snapshot time.
    pub metrics: MetricsRegistry,
}

impl Trace {
    /// Starts a query over this trace.
    pub fn query(&self) -> TraceQuery<'_> {
        TraceQuery {
            trace: self,
            component: None,
            model_id: None,
            vetoed_only: false,
            min_error_factor: None,
            kind: None,
            cause: None,
            version: None,
        }
    }

    /// Events named `name`, across all components.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a EventRecord> {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// Streams this trace as chunked canonical JSON: `sink` receives chunks
    /// of at least `chunk_size` bytes whose concatenation is byte-identical
    /// to [`crate::export::to_json`] of the same trace, without the full
    /// export string ever being materialized.
    pub fn export_stream(&self, chunk_size: usize, mut sink: impl FnMut(&str)) {
        crate::export::write_document(
            chunk_size,
            &mut sink,
            &self.spans,
            &self.events,
            &self.decisions,
            &self.deployments,
            &self.metrics,
        );
    }
}

/// Records that can be read one at a time, borrowed: a [`Trace`], or a
/// [`crate::TraceDelta`] whose strings are still interned in its recorder.
/// Consumers that only fold records (watchtower's SLO engine) take either
/// through this trait, so a delta never has to be resolved into owned
/// strings.
pub trait TraceRecords {
    /// Calls `visit` once per record: spans in id order, then events,
    /// decisions and deployments, each in sequence order. Every string is
    /// borrowed in place.
    ///
    /// A [`crate::TraceDelta`] runs the whole visit under its recorder's
    /// lock, with strings straight from the interner: `visit` must not call
    /// back into that recorder (through any [`crate::Obs`] handle on it), or
    /// it deadlocks.
    fn visit_records(&self, visit: impl FnMut(RecordRef<'_>));
}

/// One record, borrowed, as [`TraceRecords::visit_records`] hands it out.
#[derive(Debug, Clone, Copy)]
pub enum RecordRef<'a> {
    /// A span ([`SpanRecord`]).
    Span(SpanRef<'a>),
    /// A free-form event ([`EventRecord`]).
    Event(EventRef<'a>),
    /// A flight-recorder decision ([`DecisionRecord`]).
    Decision(DecisionRef<'a>),
    /// A typed deployment change ([`DeploymentRecord`]).
    Deployment(DeploymentRef<'a>),
}

/// A borrowed [`SpanRecord`].
#[derive(Debug, Clone, Copy)]
pub struct SpanRef<'a> {
    /// See [`SpanRecord::id`].
    pub id: SpanId,
    /// See [`SpanRecord::parent`].
    pub parent: Option<SpanId>,
    /// See [`SpanRecord::component`].
    pub component: &'a str,
    /// See [`SpanRecord::name`].
    pub name: &'a str,
    /// See [`SpanRecord::start`].
    pub start: f64,
    /// See [`SpanRecord::end`].
    pub end: f64,
    /// See [`SpanRecord::seq`].
    pub seq: u64,
}

/// A borrowed [`EventRecord`].
#[derive(Debug, Clone, Copy)]
pub struct EventRef<'a> {
    /// See [`EventRecord::seq`].
    pub seq: u64,
    /// See [`EventRecord::span`].
    pub span: Option<SpanId>,
    /// See [`EventRecord::sim_time`].
    pub sim_time: f64,
    /// See [`EventRecord::component`].
    pub component: &'a str,
    /// See [`EventRecord::name`].
    pub name: &'a str,
    /// See [`EventRecord::fields`].
    pub fields: &'a [(&'a str, &'a str)],
}

/// A borrowed [`DecisionRecord`].
#[derive(Debug, Clone, Copy)]
pub struct DecisionRef<'a> {
    /// See [`DecisionRecord::seq`].
    pub seq: u64,
    /// See [`DecisionRecord::span`].
    pub span: Option<SpanId>,
    /// See [`DecisionRecord::sim_time`].
    pub sim_time: f64,
    /// See [`DecisionRecord::component`].
    pub component: &'a str,
    /// See [`DecisionRecord::decision`].
    pub decision: &'a str,
    /// See [`DecisionRecord::model_id`].
    pub model_id: &'a str,
    /// See [`DecisionRecord::model_version`].
    pub model_version: u64,
    /// See [`DecisionRecord::features_digest`].
    pub features_digest: u64,
    /// See [`DecisionRecord::predicted`].
    pub predicted: f64,
    /// See [`DecisionRecord::observed`].
    pub observed: Option<f64>,
    /// See [`DecisionRecord::verdict`].
    pub verdict: &'a str,
    /// See [`DecisionRecord::vetoed`].
    pub vetoed: bool,
    /// See [`DecisionRecord::feedback_latency_ticks`].
    pub feedback_latency_ticks: u64,
}

/// A borrowed [`DeploymentRecord`].
#[derive(Debug, Clone, Copy)]
pub struct DeploymentRef<'a> {
    /// See [`DeploymentRecord::seq`].
    pub seq: u64,
    /// See [`DeploymentRecord::span`].
    pub span: Option<SpanId>,
    /// See [`DeploymentRecord::sim_time`].
    pub sim_time: f64,
    /// See [`DeploymentRecord::component`].
    pub component: &'a str,
    /// See [`DeploymentRecord::kind`].
    pub kind: DeploymentKind,
    /// See [`DeploymentRecord::model_id`].
    pub model_id: &'a str,
    /// See [`DeploymentRecord::version`].
    pub version: u64,
    /// See [`DeploymentRecord::cause`].
    pub cause: &'a str,
}

impl TraceRecords for Trace {
    fn visit_records(&self, mut visit: impl FnMut(RecordRef<'_>)) {
        for s in &self.spans {
            visit(RecordRef::Span(SpanRef {
                id: s.id,
                parent: s.parent,
                component: &s.component,
                name: &s.name,
                start: s.start,
                end: s.end,
                seq: s.seq,
            }));
        }
        let mut fields = Vec::new();
        for e in &self.events {
            fields.clear();
            fields.extend(e.fields.iter().map(|(k, v)| (k.as_str(), v.as_str())));
            visit(RecordRef::Event(EventRef {
                seq: e.seq,
                span: e.span,
                sim_time: e.sim_time,
                component: &e.component,
                name: &e.name,
                fields: &fields,
            }));
        }
        for d in &self.decisions {
            visit(RecordRef::Decision(DecisionRef {
                seq: d.seq,
                span: d.span,
                sim_time: d.sim_time,
                component: &d.component,
                decision: &d.decision,
                model_id: &d.model_id,
                model_version: d.model_version,
                features_digest: d.features_digest,
                predicted: d.predicted,
                observed: d.observed,
                verdict: &d.verdict,
                vetoed: d.vetoed,
                feedback_latency_ticks: d.feedback_latency_ticks,
            }));
        }
        for d in &self.deployments {
            visit(RecordRef::Deployment(DeploymentRef {
                seq: d.seq,
                span: d.span,
                sim_time: d.sim_time,
                component: &d.component,
                kind: d.kind,
                model_id: &d.model_id,
                version: d.version,
                cause: &d.cause,
            }));
        }
    }
}

/// A filter-builder over a trace's decision and deployment records.
///
/// ```
/// use adas_obs::Obs;
///
/// let obs = Obs::recording();
/// // … run instrumented subsystems …
/// let trace = obs.snapshot();
/// let suspect = trace
///     .query()
///     .min_error_factor(2.0) // predicted/observed off by >= 2x
///     .decisions();
/// assert!(suspect.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct TraceQuery<'a> {
    trace: &'a Trace,
    component: Option<String>,
    model_id: Option<String>,
    vetoed_only: bool,
    min_error_factor: Option<f64>,
    kind: Option<DeploymentKind>,
    cause: Option<String>,
    version: Option<u64>,
}

impl<'a> TraceQuery<'a> {
    /// Keep only decisions from `component`.
    pub fn component(mut self, component: &str) -> Self {
        self.component = Some(component.to_string());
        self
    }

    /// Keep only decisions made by `model_id`.
    pub fn model(mut self, model_id: &str) -> Self {
        self.model_id = Some(model_id.to_string());
        self
    }

    /// Keep only vetoed decisions (guardrail blocks, rollbacks).
    pub fn vetoed(mut self) -> Self {
        self.vetoed_only = true;
        self
    }

    /// Keep only decisions whose predicted/observed error factor is at
    /// least `factor` (decisions without an observed outcome are dropped).
    pub fn min_error_factor(mut self, factor: f64) -> Self {
        self.min_error_factor = Some(factor);
        self
    }

    /// Keep only deployment records of `kind` (publish, rollback, …).
    /// Applies to [`TraceQuery::deployments`] only.
    pub fn kind(mut self, kind: DeploymentKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Keep only deployment records whose triggering cause is `cause`
    /// (e.g. `guard_trip_streak`, `slo_burn`, `canary_healthy`). Applies to
    /// [`TraceQuery::deployments`] only.
    pub fn cause(mut self, cause: &str) -> Self {
        self.cause = Some(cause.to_string());
        self
    }

    /// Keep only deployment records concerning `version`. Applies to
    /// [`TraceQuery::deployments`] only.
    pub fn version(mut self, version: u64) -> Self {
        self.version = Some(version);
        self
    }

    /// Runs the query over deployment records, honoring the shared
    /// component/model filters plus [`TraceQuery::kind`],
    /// [`TraceQuery::cause`] and [`TraceQuery::version`].
    pub fn deployments(&self) -> Vec<&'a DeploymentRecord> {
        self.trace
            .deployments
            .iter()
            .filter(|d| self.component.as_deref().map_or(true, |c| d.component == c))
            .filter(|d| self.model_id.as_deref().map_or(true, |m| d.model_id == m))
            .filter(|d| self.kind.map_or(true, |k| d.kind == k))
            .filter(|d| self.cause.as_deref().map_or(true, |c| d.cause == c))
            .filter(|d| self.version.map_or(true, |v| d.version == v))
            .collect()
    }

    /// Runs the query.
    pub fn decisions(&self) -> Vec<&'a DecisionRecord> {
        self.trace
            .decisions
            .iter()
            .filter(|d| self.component.as_deref().map_or(true, |c| d.component == c))
            .filter(|d| self.model_id.as_deref().map_or(true, |m| d.model_id == m))
            .filter(|d| !self.vetoed_only || d.vetoed)
            .filter(|d| {
                self.min_error_factor
                    .map_or(true, |f| d.error_factor().is_some_and(|e| e >= f))
            })
            .collect()
    }
}
