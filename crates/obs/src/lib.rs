//! Deterministic flight recorder for the autonomy loop.
//!
//! The paper's closed feedback loop — telemetry feeding models, models
//! making decisions, guardrails vetoing regressions — is only debuggable
//! when the loop can observe *itself*. This crate supplies that layer with
//! zero external dependencies:
//!
//! * **spans** ([`span`]) — structured enter/exit intervals over *simulated*
//!   time with parent links, byte-identical across same-seed replays;
//! * **metrics** ([`metrics`]) — counters, gauges and fixed-bucket
//!   histograms keyed by `(component, name, labels)` in deterministic order;
//! * **flight recorder** ([`flight`]) — every autonomy-loop decision as a
//!   provenance record: model id + version, input-feature digest, predicted
//!   vs. observed outcome, guardrail verdict, feedback latency in ticks;
//! * **export** ([`export`]) — canonical JSON, whole-string or chunked
//!   streaming;
//! * **queries** ([`trace`]) — e.g. "all decisions where predicted/observed
//!   error exceeds 2x".
//!
//! Recording sits behind an [`Obs`] handle threaded through the
//! instrumented constructors — no globals, no wall clock. The disabled
//! handle ([`Obs::disabled`]) reduces every instrumentation site to one
//! branch; `obs_bench` holds that path to < 5% overhead.
//!
//! ## The recording hot path
//!
//! Always-on recording must be budgeted like any other hot-path cost, so
//! the recorder ([`Obs::recording`]) never allocates per record: strings
//! intern to integer ids ([`intern`]), every record appends straight to
//! compact id-based storage, metric updates land in dense slots, and
//! strings are only resolved back at snapshot/export time. Golden digests
//! pin the exported canonical JSON, wherever snapshots cut the recording.
//! Instrumentation sites that emit several records at one point in time
//! should take one [`Obs::batch`] and record through it — one lock
//! acquisition for the whole block instead of one per record.
//! The recorder keeps every span, event, decision and deployment it is
//! handed — the audit trail is whole — and a span's id is its position in
//! the recording. Fleet-scale runs export without ever holding the full
//! JSON in memory ([`Obs::export_stream`]).
//!
//! ```
//! use adas_obs::{Obs, Provenance};
//!
//! let obs = Obs::recording();
//! let span = obs.span_enter("engine.exec", "job-0", 0.0);
//! obs.counter_add("engine.exec", "stages_executed", &[], 4);
//! obs.record_decision(
//!     "core.guardrails",
//!     "autonomy_decision",
//!     &Provenance::new("cost-model", 3, 0xfeed),
//!     12.0,        // predicted
//!     Some(11.5),  // observed
//!     "allow",
//!     false,
//!     0,
//!     1.25,
//! );
//! obs.span_exit(span, 1.25);
//! let trace = obs.snapshot();
//! assert_eq!(trace.spans.len(), 1);
//! assert_eq!(trace.query().vetoed().decisions().len(), 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod export;
pub mod flight;
pub mod intern;
pub mod metrics;
mod recorder;
pub mod span;
pub mod trace;

pub use flight::{digest_f64, DecisionRecord, DeploymentKind, DeploymentRecord, Provenance};
pub use intern::Interner;
pub use metrics::{Histogram, MetricKey, MetricValue, MetricsRegistry};
pub use span::{SpanId, SpanRecord};
pub use trace::{EventRecord, RecordRef, Trace, TraceQuery, TraceRecords};

use parking_lot::Mutex;
use recorder::{CompactRecords, MetricIdKey, Recorder};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::MutexGuard;
use std::sync::{Arc, Weak};

/// Default chunk size for [`Obs::export_stream`] and
/// [`Trace::export_stream`], in bytes. Every caller that streams a trace
/// (chaos runner, gateway, experiments bin, `tracectl`) should use this
/// instead of hardcoding its own size.
pub const DEFAULT_EXPORT_CHUNK: usize = 64 * 1024;

/// Position in a recording for [`Obs::snapshot_since`]: how many records of
/// each kind the caller has already consumed. A fresh (default) cursor's
/// delta holds the full snapshot's records (and, like every delta, no
/// metrics).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraceCursor {
    spans: usize,
    events: usize,
    decisions: usize,
    deployments: usize,
}

/// The records one [`Obs::snapshot_since`] cut took: plain-old-data copies
/// of the recorder's compact records past the cursor, taken at the cut,
/// plus a handle on the recorder whose interner still holds their strings.
/// Nothing is resolved into owned strings until someone asks:
/// [`TraceDelta::resolve`] builds the owned [`Trace`], and
/// [`TraceRecords::visit_records`] lends each record with its strings
/// borrowed from the interner, under the recorder lock.
///
/// Because the copy is taken at the cut, a span still open then keeps
/// `end == start` here even after it closes. A delta of a disabled handle
/// is empty.
#[derive(Default)]
pub struct TraceDelta {
    recorder: Option<Arc<Mutex<Recorder>>>,
    records: CompactRecords,
}

impl TraceDelta {
    /// The delta as owned records: every record past the cursor as the
    /// cut saw it, with an empty metrics registry.
    pub fn resolve(&self) -> Trace {
        match &self.recorder {
            Some(recorder) => recorder.lock().resolve(&self.records),
            None => Trace::default(),
        }
    }
}

impl TraceRecords for TraceDelta {
    fn visit_records(&self, visit: impl FnMut(RecordRef<'_>)) {
        if let Some(recorder) = &self.recorder {
            recorder.lock().visit(&self.records, visit);
        }
    }
}

impl std::fmt::Debug for TraceDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceDelta")
            .field("records", &self.records)
            .finish_non_exhaustive()
    }
}

/// The recording handle.
///
/// Cheap to clone (an `Arc` internally) and thread through constructors.
/// [`Obs::disabled`] carries no recorder at all: every instrumentation call
/// is a single `Option` branch, which is what keeps the always-on
/// production configuration within the overhead budget. When recording,
/// strings are interned and every record appends straight to compact
/// storage (see the crate docs).
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Mutex<Recorder>>>,
}

impl Obs {
    /// A handle that records nothing (the default).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live recorder that keeps every record.
    pub fn recording() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(Recorder::default()))),
        }
    }

    /// True when this handle records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a recording batch: one lock acquisition for a whole block of
    /// records. Instrumentation sites that emit several records at one
    /// point in time should prefer this over repeated [`Obs`] calls.
    ///
    /// The batch holds the recorder lock until dropped — do **not** call
    /// back into the same `Obs` handle (directly or through a callback)
    /// while a batch is open, and keep batches scoped to straight-line
    /// recording code.
    pub fn batch(&self) -> ObsBatch<'_> {
        ObsBatch {
            token: self.token(),
            guard: self.inner.as_ref().map(|i| i.lock()),
        }
    }

    /// Identity of the recorder behind this handle (its allocation address),
    /// 0 when disabled. Handles and span keys compare it with their owner's
    /// address (see [`Interned`]) so their pre-resolved interned ids are only
    /// ever applied to the recorder they came from.
    fn token(&self) -> usize {
        self.inner
            .as_ref()
            .map(|i| Arc::as_ptr(i) as usize)
            .unwrap_or(0)
    }

    /// Creates a pre-resolved span identity for a fixed
    /// `(component, name)`. See [`SpanKey`].
    pub fn span_key(&self, component: &str, name: &str) -> SpanKey {
        SpanKey {
            component: component.to_string(),
            name: name.to_string(),
            fast: Interned::new(self, |rec| rec.intern_pair(component, name)),
        }
    }

    /// Creates a pre-resolved identity for `{base}_{index}`-named spans.
    /// See [`IndexedSpanKey`].
    pub fn indexed_span_key(&self, component: &str, base: &str) -> IndexedSpanKey {
        IndexedSpanKey {
            component: component.to_string(),
            base: base.to_string(),
            fast: Interned::new(self, |rec| rec.intern_pair(component, base)),
        }
    }

    /// Creates a pre-resolved counter handle for a fixed
    /// `(component, name, labels)` identity. See [`CounterHandle`].
    pub fn counter_handle(
        &self,
        component: &str,
        name: &str,
        labels: &[(&str, &str)],
    ) -> CounterHandle {
        CounterHandle(MetricHandle::new(self, component, name, labels))
    }

    /// Creates a pre-resolved gauge handle. See [`GaugeHandle`].
    pub fn gauge_handle(
        &self,
        component: &str,
        name: &str,
        labels: &[(&str, &str)],
    ) -> GaugeHandle {
        GaugeHandle(MetricHandle::new(self, component, name, labels))
    }

    /// Creates a pre-resolved histogram handle over the default latency
    /// buckets. See [`HistogramHandle`].
    pub fn histogram_handle(
        &self,
        component: &str,
        name: &str,
        labels: &[(&str, &str)],
    ) -> HistogramHandle {
        HistogramHandle(MetricHandle::new(self, component, name, labels))
    }

    /// Opens a span at simulated time `sim_time`, parented to the innermost
    /// open span. Returns [`SpanId::NONE`] when disabled.
    pub fn span_enter(&self, component: &str, name: &str, sim_time: f64) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        inner.lock().span_enter(component, name, sim_time)
    }

    /// Opens a span named `{base}_{index}` — the common per-stage /
    /// per-job naming scheme. The recorder formats each distinct
    /// `(base, index)` pair once and reuses the interned name after that,
    /// keeping repeated hot-loop spans allocation-free.
    pub fn span_enter_indexed(
        &self,
        component: &str,
        base: &str,
        index: usize,
        sim_time: f64,
    ) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        inner
            .lock()
            .span_enter_indexed(component, base, index, sim_time)
    }

    /// Closes span `id` at simulated time `sim_time`. Tolerates exits out
    /// of order (pops the stack through `id`) and ignores [`SpanId::NONE`].
    pub fn span_exit(&self, id: SpanId, sim_time: f64) {
        if !id.is_real() {
            return;
        }
        let Some(inner) = &self.inner else { return };
        inner.lock().span_exit(id, sim_time);
    }

    /// Emits a free-form event.
    pub fn event(&self, component: &str, name: &str, sim_time: f64, fields: &[(&str, &str)]) {
        let Some(inner) = &self.inner else { return };
        inner.lock().event(component, name, sim_time, fields);
    }

    /// The most recent event as a JSON line, for streaming progress output
    /// alongside the full trace export.
    pub fn last_event_json(&self) -> Option<String> {
        let inner = self.inner.as_ref()?;
        inner.lock().last_event_json()
    }

    /// Records one autonomy-loop decision into the flight recorder.
    #[allow(clippy::too_many_arguments)]
    pub fn record_decision(
        &self,
        component: &str,
        decision: &str,
        provenance: &Provenance<'_>,
        predicted: f64,
        observed: Option<f64>,
        verdict: &str,
        vetoed: bool,
        feedback_latency_ticks: u64,
        sim_time: f64,
    ) {
        let Some(inner) = &self.inner else { return };
        inner.lock().record_decision(
            component,
            decision,
            provenance,
            predicted,
            observed,
            verdict,
            vetoed,
            feedback_latency_ticks,
            sim_time,
        );
    }

    /// Records one typed deployment change (publish, rollback, shadow or
    /// canary start, promote, demote) with its triggering cause.
    pub fn record_deployment(
        &self,
        component: &str,
        kind: DeploymentKind,
        model_id: &str,
        version: u64,
        cause: &str,
        sim_time: f64,
    ) {
        let Some(inner) = &self.inner else { return };
        inner
            .lock()
            .record_deployment(component, kind, model_id, version, cause, sim_time);
    }

    /// Adds `delta` to a counter.
    pub fn counter_add(&self, component: &str, name: &str, labels: &[(&str, &str)], delta: u64) {
        let Some(inner) = &self.inner else { return };
        inner.lock().counter_add(component, name, labels, delta);
    }

    /// Sets a gauge.
    pub fn gauge_set(&self, component: &str, name: &str, labels: &[(&str, &str)], value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.lock().gauge_set(component, name, labels, value);
    }

    /// Observes into a histogram with the default latency buckets.
    pub fn histogram_observe(
        &self,
        component: &str,
        name: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        let Some(inner) = &self.inner else { return };
        inner
            .lock()
            .histogram_observe(component, name, labels, value);
    }

    /// An immutable snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Trace {
        let Some(inner) = &self.inner else {
            return Trace::default();
        };
        inner.lock().snapshot()
    }

    /// Incremental snapshot: the records appended since `cursor` last saw
    /// this handle, advancing the cursor past them. All four record vectors
    /// are append-only in record order, so each is copied straight from the
    /// cursor's index on and a cut costs O(new records), not O(everything
    /// recorded so far).
    ///
    /// The [`TraceDelta`] holds plain-old-data copies of the compact
    /// records, strings still interned: taking one allocates four vectors
    /// and resolves no string. Fold it borrowed through [`TraceRecords`]
    /// (watchtower's SLO engine does), or [`TraceDelta::resolve`] it into
    /// an owned [`Trace`].
    ///
    /// The delta carries records only: no metrics. Counters and histograms
    /// are running totals, not per-window deltas, so read them from a full
    /// [`Obs::snapshot`].
    ///
    /// Spans are included in the delta when they are *entered*; a span
    /// still open at the cut keeps `end == start` in that delta and is not
    /// re-reported when it later closes. Online consumers doing latency
    /// analysis (watchtower's SLO engine) should therefore take their cuts
    /// after the spans they care about have exited.
    pub fn snapshot_since(&self, cursor: &mut TraceCursor) -> TraceDelta {
        let Some(inner) = &self.inner else {
            return TraceDelta::default();
        };
        TraceDelta {
            records: inner.lock().copy_since(cursor),
            recorder: Some(Arc::clone(inner)),
        }
    }

    /// Canonical JSON export of the current snapshot.
    pub fn export_json(&self) -> String {
        export::to_json(&self.snapshot())
    }

    /// Streams the canonical JSON export in chunks of at least `chunk_size`
    /// bytes (the final chunk may be shorter). The concatenation of the
    /// chunks is byte-identical to [`Obs::export_json`], but the recorder
    /// resolves one record at a time — neither the full `Trace`
    /// clone nor the full export string is ever materialized, which is what
    /// lets a fleet-scale run ship its flight record without holding it in
    /// memory. A disabled handle streams the empty trace.
    pub fn export_stream(&self, chunk_size: usize, mut sink: impl FnMut(&str)) {
        match &self.inner {
            Some(inner) => inner.lock().export_stream(chunk_size, &mut sink),
            None => Trace::default().export_stream(chunk_size, sink),
        }
    }
}

/// Ids interned on one recorder, with that recorder as their owner. The
/// owner is held as a `Weak`, not as its address: the weak count keeps the
/// allocation alive, so while a handle exists no later recorder can be
/// allocated at its owner's address and pass the token check with these
/// ids.
#[derive(Debug, Clone)]
struct Interned<K> {
    owner: Weak<Mutex<Recorder>>,
    ids: K,
}

impl<K> Interned<K> {
    /// Interns through `obs`'s recorder; `None` when `obs` is disabled.
    fn new(obs: &Obs, intern: impl FnOnce(&mut Recorder) -> K) -> Option<Self> {
        obs.inner.as_ref().map(|arc| Self {
            owner: Arc::downgrade(arc),
            ids: intern(&mut arc.lock()),
        })
    }

    /// The ids, when they belong to the recorder behind a batch with
    /// `token`.
    #[inline]
    fn ids_for(&self, token: usize) -> Option<&K> {
        (Weak::as_ptr(&self.owner) as usize == token).then_some(&self.ids)
    }
}

/// Shared innards of the typed metric handles: the full string identity
/// (always kept, so a handle works — more slowly — against any recorder)
/// plus, when the handle was created from a recording `Obs`, that
/// recorder's pre-resolved interned key. The hot-path update through the
/// fast key skips string hashing and comparison entirely; the owner check
/// makes sure interned ids never reach a recorder they don't belong to.
#[derive(Debug)]
struct MetricHandle {
    component: String,
    name: String,
    labels: Vec<(String, String)>,
    fast: Option<Interned<MetricIdKey>>,
    /// Memoized dense slot index on the fast-path recorder, `u32::MAX`
    /// until first use. Only consulted after the `fast` owner check, and
    /// slots are append-only for a recorder's lifetime, so a memoized
    /// index can never go stale or reach the wrong recorder.
    slot: AtomicU32,
}

impl Clone for MetricHandle {
    fn clone(&self) -> Self {
        Self {
            component: self.component.clone(),
            name: self.name.clone(),
            labels: self.labels.clone(),
            fast: self.fast.clone(),
            slot: AtomicU32::new(self.slot.load(Ordering::Relaxed)),
        }
    }
}

impl MetricHandle {
    fn new(obs: &Obs, component: &str, name: &str, labels: &[(&str, &str)]) -> Self {
        // Interns the identity strings but creates no metric slot: a handle
        // that is never used leaves the exported registry untouched, exactly
        // like a string-path call that never happens.
        let fast = Interned::new(obs, |rec| rec.make_metric_key(component, name, labels));
        Self {
            component: component.to_string(),
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            fast,
            slot: AtomicU32::new(u32::MAX),
        }
    }

    fn borrowed_labels(&self) -> Vec<(&str, &str)> {
        self.labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect()
    }

    /// The fast key, when it belongs to the recorder behind `batch`.
    fn key_for(&self, token: usize) -> Option<&MetricIdKey> {
        self.fast.as_ref()?.ids_for(token)
    }
}

/// A pre-resolved `(component, name)` span identity (see [`Obs::span_key`]),
/// with the same fast-path/fallback contract as [`CounterHandle`]: entering
/// through the key skips interning lookups on the recorder the key came
/// from, and degrades to the ordinary string path anywhere else.
#[derive(Debug, Clone)]
pub struct SpanKey {
    component: String,
    name: String,
    fast: Option<Interned<(u32, u32)>>,
}

impl SpanKey {
    /// Opens a span through an open batch (see [`ObsBatch::span_enter`]).
    #[inline]
    pub fn enter(&self, batch: &mut ObsBatch<'_>, sim_time: f64) -> SpanId {
        let token = batch.token;
        let Some(rec) = batch.guard.as_deref_mut() else {
            return SpanId::NONE;
        };
        match self.fast.as_ref().and_then(|f| f.ids_for(token)) {
            Some(&(component, name)) => rec.span_enter_ids(component, name, sim_time),
            None => rec.span_enter(&self.component, &self.name, sim_time),
        }
    }
}

/// A pre-resolved `(component, base)` identity for `{base}_{index}`-named
/// spans (see [`Obs::indexed_span_key`] and the fast-path/fallback contract
/// on [`SpanKey`]).
#[derive(Debug, Clone)]
pub struct IndexedSpanKey {
    component: String,
    base: String,
    fast: Option<Interned<(u32, u32)>>,
}

impl IndexedSpanKey {
    /// Opens a `{base}_{index}` span through an open batch (see
    /// [`ObsBatch::span_enter_indexed`]).
    #[inline]
    pub fn enter(&self, batch: &mut ObsBatch<'_>, index: usize, sim_time: f64) -> SpanId {
        let token = batch.token;
        let Some(rec) = batch.guard.as_deref_mut() else {
            return SpanId::NONE;
        };
        match self.fast.as_ref().and_then(|f| f.ids_for(token)) {
            Some(&(component, base)) => {
                rec.span_enter_indexed_ids(component, base, index, sim_time)
            }
            None => rec.span_enter_indexed(&self.component, &self.base, index, sim_time),
        }
    }
}

/// A pre-resolved counter identity (see [`Obs::counter_handle`]).
///
/// Handles are for instrumentation sites hot enough that even interning
/// lookups matter: creation resolves `(component, name, labels)` once, and
/// each [`CounterHandle::add`] is then a hash-free slot update. A handle
/// used against a recorder other than the one it was created from (after
/// the handle's `Obs` was swapped out, or after its recorder was dropped)
/// silently falls back to the normal string path — same records, just
/// slower — so caching handles (e.g. in a `OnceLock`) can never corrupt a
/// trace.
#[derive(Debug, Clone)]
pub struct CounterHandle(MetricHandle);

impl CounterHandle {
    /// Adds `delta` to the counter through an open batch.
    #[inline]
    pub fn add(&self, batch: &mut ObsBatch<'_>, delta: u64) {
        let token = batch.token;
        let Some(rec) = batch.guard.as_deref_mut() else {
            return;
        };
        if let Some(key) = self.0.key_for(token) {
            match self.0.slot.load(Ordering::Relaxed) {
                u32::MAX => {
                    let slot = rec.counter_add_key(key, delta);
                    self.0.slot.store(slot, Ordering::Relaxed);
                }
                slot => rec.counter_add_slot(slot, delta),
            }
            return;
        }
        rec.counter_add(
            &self.0.component,
            &self.0.name,
            &self.0.borrowed_labels(),
            delta,
        );
    }
}

/// A pre-resolved gauge identity (see [`Obs::gauge_handle`] and the
/// fast-path/fallback contract on [`CounterHandle`]).
#[derive(Debug, Clone)]
pub struct GaugeHandle(MetricHandle);

impl GaugeHandle {
    /// Sets the gauge through an open batch.
    #[inline]
    pub fn set(&self, batch: &mut ObsBatch<'_>, value: f64) {
        let token = batch.token;
        let Some(rec) = batch.guard.as_deref_mut() else {
            return;
        };
        if let Some(key) = self.0.key_for(token) {
            match self.0.slot.load(Ordering::Relaxed) {
                u32::MAX => {
                    let slot = rec.gauge_set_key(key, value);
                    self.0.slot.store(slot, Ordering::Relaxed);
                }
                slot => rec.gauge_set_slot(slot, value),
            }
            return;
        }
        rec.gauge_set(
            &self.0.component,
            &self.0.name,
            &self.0.borrowed_labels(),
            value,
        );
    }
}

/// A pre-resolved histogram identity (see [`Obs::histogram_handle`] and the
/// fast-path/fallback contract on [`CounterHandle`]).
#[derive(Debug, Clone)]
pub struct HistogramHandle(MetricHandle);

impl HistogramHandle {
    /// Observes `value` through an open batch.
    #[inline]
    pub fn observe(&self, batch: &mut ObsBatch<'_>, value: f64) {
        let token = batch.token;
        let Some(rec) = batch.guard.as_deref_mut() else {
            return;
        };
        if let Some(key) = self.0.key_for(token) {
            match self.0.slot.load(Ordering::Relaxed) {
                u32::MAX => {
                    let slot = rec.histogram_observe_key(key, value);
                    self.0.slot.store(slot, Ordering::Relaxed);
                }
                slot => rec.histogram_observe_slot(slot, value),
            }
            return;
        }
        rec.histogram_observe(
            &self.0.component,
            &self.0.name,
            &self.0.borrowed_labels(),
            value,
        );
    }
}

/// A recording batch: holds the recorder lock once for a whole block of
/// records (see [`Obs::batch`]). All methods are no-ops on a disabled
/// handle; `span_enter*` then return [`SpanId::NONE`].
pub struct ObsBatch<'a> {
    token: usize,
    guard: Option<MutexGuard<'a, Recorder>>,
}

impl ObsBatch<'_> {
    /// True when this batch actually records.
    pub fn is_recording(&self) -> bool {
        self.guard.is_some()
    }

    /// Batch equivalent of [`Obs::span_enter`].
    pub fn span_enter(&mut self, component: &str, name: &str, sim_time: f64) -> SpanId {
        match &mut self.guard {
            Some(rec) => rec.span_enter(component, name, sim_time),
            None => SpanId::NONE,
        }
    }

    /// Batch equivalent of [`Obs::span_enter_indexed`].
    pub fn span_enter_indexed(
        &mut self,
        component: &str,
        base: &str,
        index: usize,
        sim_time: f64,
    ) -> SpanId {
        match &mut self.guard {
            Some(rec) => rec.span_enter_indexed(component, base, index, sim_time),
            None => SpanId::NONE,
        }
    }

    /// Batch equivalent of [`Obs::span_exit`].
    #[inline]
    pub fn span_exit(&mut self, id: SpanId, sim_time: f64) {
        if !id.is_real() {
            return;
        }
        if let Some(rec) = &mut self.guard {
            rec.span_exit(id, sim_time);
        }
    }

    /// Batch equivalent of [`Obs::event`].
    pub fn event(&mut self, component: &str, name: &str, sim_time: f64, fields: &[(&str, &str)]) {
        if let Some(rec) = &mut self.guard {
            rec.event(component, name, sim_time, fields);
        }
    }

    /// Batch equivalent of [`Obs::record_decision`].
    #[allow(clippy::too_many_arguments)]
    pub fn record_decision(
        &mut self,
        component: &str,
        decision: &str,
        provenance: &Provenance<'_>,
        predicted: f64,
        observed: Option<f64>,
        verdict: &str,
        vetoed: bool,
        feedback_latency_ticks: u64,
        sim_time: f64,
    ) {
        if let Some(rec) = &mut self.guard {
            rec.record_decision(
                component,
                decision,
                provenance,
                predicted,
                observed,
                verdict,
                vetoed,
                feedback_latency_ticks,
                sim_time,
            );
        }
    }

    /// Batch equivalent of [`Obs::record_deployment`].
    pub fn record_deployment(
        &mut self,
        component: &str,
        kind: DeploymentKind,
        model_id: &str,
        version: u64,
        cause: &str,
        sim_time: f64,
    ) {
        if let Some(rec) = &mut self.guard {
            rec.record_deployment(component, kind, model_id, version, cause, sim_time);
        }
    }

    /// Batch equivalent of [`Obs::counter_add`].
    pub fn counter_add(
        &mut self,
        component: &str,
        name: &str,
        labels: &[(&str, &str)],
        delta: u64,
    ) {
        if let Some(rec) = &mut self.guard {
            rec.counter_add(component, name, labels, delta);
        }
    }

    /// Batch equivalent of [`Obs::gauge_set`].
    pub fn gauge_set(&mut self, component: &str, name: &str, labels: &[(&str, &str)], value: f64) {
        if let Some(rec) = &mut self.guard {
            rec.gauge_set(component, name, labels, value);
        }
    }

    /// Batch equivalent of [`Obs::histogram_observe`].
    pub fn histogram_observe(
        &mut self,
        component: &str,
        name: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        if let Some(rec) = &mut self.guard {
            rec.histogram_observe(component, name, labels, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::disabled();
        let span = obs.span_enter("c", "n", 0.0);
        assert_eq!(span, SpanId::NONE);
        obs.span_exit(span, 1.0);
        obs.counter_add("c", "n", &[], 1);
        obs.event("c", "e", 0.0, &[]);
        let mut batch = obs.batch();
        assert!(!batch.is_recording());
        assert_eq!(batch.span_enter("c", "n", 0.0), SpanId::NONE);
        drop(batch);
        let trace = obs.snapshot();
        assert_eq!(trace, Trace::default());
        assert!(!obs.is_enabled());
    }

    #[test]
    fn spans_nest_and_parent() {
        let obs = Obs::recording();
        let outer = obs.span_enter("engine.exec", "job", 0.0);
        let inner = obs.span_enter("engine.exec", "stage-0", 0.5);
        obs.span_exit(inner, 1.5);
        let sibling = obs.span_enter("engine.exec", "stage-1", 1.5);
        obs.span_exit(sibling, 2.0);
        obs.span_exit(outer, 2.0);
        let trace = obs.snapshot();
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(trace.spans[1].parent, Some(outer));
        assert_eq!(trace.spans[2].parent, Some(outer));
        assert!((trace.spans[1].duration() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn span_exits_land_on_the_stored_span() {
        let obs = Obs::recording();
        let outer = obs.span_enter("c", "outer", 0.0);
        let inner = obs.span_enter("c", "inner", 1.0);
        // Still open at the cut: `end == start`.
        assert_eq!(obs.snapshot().spans[1].end, 1.0);
        obs.span_exit(inner, 2.0);
        obs.span_exit(outer, 3.0);
        // A repeated exit moves the end again; an unknown id changes nothing.
        obs.span_exit(inner, 2.5);
        obs.span_exit(SpanId(99), 9.0);
        let ends: Vec<f64> = obs.snapshot().spans.iter().map(|s| s.end).collect();
        assert_eq!(ends, vec![3.0, 2.5]);
    }

    #[test]
    fn events_and_decisions_attach_to_open_span() {
        let obs = Obs::recording();
        let span = obs.span_enter("faultsim.chaos", "attempt-0", 0.0);
        obs.event(
            "faultsim.chaos",
            "fault_injected",
            0.3,
            &[("kind", "crash")],
        );
        obs.record_decision(
            "core.guardrails",
            "autonomy_decision",
            &Provenance::new("m", 2, 7),
            1.0,
            Some(3.0),
            "block: regression",
            true,
            4,
            0.4,
        );
        obs.span_exit(span, 1.0);
        let trace = obs.snapshot();
        assert_eq!(trace.events[0].span, Some(span));
        assert_eq!(trace.events[0].field("kind"), Some("crash"));
        assert_eq!(trace.decisions[0].span, Some(span));
        assert_eq!(trace.decisions[0].model_version, 2);
        assert_eq!(trace.decisions[0].feedback_latency_ticks, 4);
        let vetoed = trace.query().vetoed().min_error_factor(2.0).decisions();
        assert_eq!(vetoed.len(), 1);
    }

    #[test]
    fn sequence_numbers_total_order_all_records() {
        let obs = Obs::recording();
        let s = obs.span_enter("a", "s", 0.0);
        obs.event("a", "e", 0.1, &[]);
        obs.record_decision(
            "a",
            "d",
            &Provenance::new("m", 1, 0),
            1.0,
            None,
            "allow",
            false,
            0,
            0.2,
        );
        obs.span_exit(s, 0.3);
        let t = obs.snapshot();
        assert_eq!(t.spans[0].seq, 0);
        assert_eq!(t.events[0].seq, 1);
        assert_eq!(t.decisions[0].seq, 2);
    }

    #[test]
    fn export_json_is_deterministic() {
        let run = || {
            let obs = Obs::recording();
            // Touch metrics in scrambled order; export must still agree.
            obs.counter_add("z", "c", &[("l", "2")], 1);
            obs.counter_add("a", "c", &[], 5);
            obs.gauge_set("m", "g", &[], 1.5);
            obs.histogram_observe("m", "h", &[], 0.25);
            let s = obs.span_enter("c", "s", 0.0);
            obs.span_exit(s, 2.0);
            obs.export_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn deployment_records_carry_cause_and_order() {
        let obs = Obs::recording();
        let span = obs.span_enter("serve.gateway", "deploy", 0.0);
        obs.record_deployment(
            "serve.gateway",
            DeploymentKind::Publish,
            "card",
            1,
            "manual",
            0.5,
        );
        obs.record_deployment(
            "serve.gateway",
            DeploymentKind::CanaryStart,
            "card",
            2,
            "drift",
            1.0,
        );
        obs.record_deployment(
            "serve.gateway",
            DeploymentKind::Rollback,
            "card",
            3,
            "guard_trip",
            2.0,
        );
        obs.span_exit(span, 2.5);
        let trace = obs.snapshot();
        assert_eq!(trace.deployments.len(), 3);
        assert_eq!(trace.deployments[0].span, Some(span));
        assert_eq!(trace.deployments[1].kind, DeploymentKind::CanaryStart);
        assert_eq!(trace.deployments[1].kind.name(), "canary_start");
        assert_eq!(trace.deployments[2].cause, "guard_trip");
        // Sequence numbers interleave with the span's.
        assert!(trace.deployments[0].seq > trace.spans[0].seq);
        assert!(trace.deployments[0].seq < trace.deployments[1].seq);
        // Round-trips through canonical JSON, and old traces (without the
        // field) still deserialize.
        let json = obs.export_json();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
        let mut value: serde_json::Value = serde_json::from_str(&json).unwrap();
        if let serde_json::Value::Map(map) = &mut value {
            map.retain(|(k, _)| k != "deployments");
        }
        let legacy: Trace = serde_json::from_value(value).unwrap();
        assert!(legacy.deployments.is_empty());
    }

    #[test]
    fn clones_share_one_recorder() {
        let obs = Obs::recording();
        let clone = obs.clone();
        clone.counter_add("c", "n", &[], 2);
        obs.counter_add("c", "n", &[], 1);
        assert_eq!(obs.snapshot().metrics.counter("c", "n", &[]), 3);
    }

    #[test]
    fn batch_records_like_individual_calls() {
        let individual = {
            let obs = Obs::recording();
            let s = obs.span_enter("c", "block", 0.0);
            obs.event("c", "e", 0.1, &[("k", "v")]);
            obs.counter_add("c", "n", &[], 2);
            obs.gauge_set("c", "g", &[], 1.5);
            obs.histogram_observe("c", "h", &[], 0.02);
            obs.span_exit(s, 0.2);
            obs.export_json()
        };
        let batched = {
            let obs = Obs::recording();
            let mut b = obs.batch();
            assert!(b.is_recording());
            let s = b.span_enter("c", "block", 0.0);
            b.event("c", "e", 0.1, &[("k", "v")]);
            b.counter_add("c", "n", &[], 2);
            b.gauge_set("c", "g", &[], 1.5);
            b.histogram_observe("c", "h", &[], 0.02);
            b.span_exit(s, 0.2);
            drop(b);
            obs.export_json()
        };
        assert_eq!(individual, batched);
    }

    #[test]
    fn indexed_span_names_match_formatted_names() {
        let obs = Obs::recording();
        for i in [0usize, 3, 3, 11] {
            let s = obs.span_enter_indexed("engine.exec", "stage", i, 0.0);
            obs.span_exit(s, 1.0);
        }
        let trace = obs.snapshot();
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["stage_0", "stage_3", "stage_3", "stage_11"]);
    }

    #[test]
    fn metric_handles_record_like_string_calls() {
        let drive_strings = |obs: &Obs| {
            let mut b = obs.batch();
            b.counter_add("c", "hits", &[("shard", "0")], 3);
            b.gauge_set("c", "depth", &[], 2.5);
            b.histogram_observe("c", "lat", &[], 0.004);
        };
        let drive_handles = |obs: &Obs| {
            let hits = obs.counter_handle("c", "hits", &[("shard", "0")]);
            let depth = obs.gauge_handle("c", "depth", &[]);
            let lat = obs.histogram_handle("c", "lat", &[]);
            let mut b = obs.batch();
            hits.add(&mut b, 3);
            depth.set(&mut b, 2.5);
            lat.observe(&mut b, 0.004);
        };

        // Handles and string calls export identically.
        let (strings, handles) = (Obs::recording(), Obs::recording());
        drive_strings(&strings);
        drive_handles(&handles);
        assert_eq!(strings.export_json(), handles.export_json());

        // A handle created from one recorder falls back to the string path
        // against another recorder — same records, no id confusion.
        let origin = Obs::recording();
        let hits = origin.counter_handle("c", "hits", &[("shard", "0")]);
        // Skew the other recorder's interner so equal ids mean different
        // strings across the two recorders.
        let other = Obs::recording();
        other.counter_add("zzz", "unrelated", &[], 1);
        let mut b = other.batch();
        hits.add(&mut b, 7);
        drop(b);
        assert_eq!(
            other
                .snapshot()
                .metrics
                .counter("c", "hits", &[("shard", "0")]),
            7
        );

        // A handle from a disabled Obs still records through the strings.
        let disabled_handle = Obs::disabled().counter_handle("c", "hits", &[]);
        let rec = Obs::recording();
        let mut b = rec.batch();
        disabled_handle.add(&mut b, 2);
        drop(b);
        assert_eq!(rec.snapshot().metrics.counter("c", "hits", &[]), 2);

        // An unused handle creates no metric slot.
        let obs = Obs::recording();
        let _unused = obs.histogram_handle("c", "never_touched", &[]);
        assert!(obs.snapshot().metrics.metrics.is_empty());
    }

    #[test]
    fn handles_that_outlive_their_recorder_record_like_string_calls() {
        // A handle and a span key used once on a recorder that is then
        // dropped. A new recorder, possibly allocated at the same address,
        // holds a gauge in slot 0 and other strings under the dropped
        // recorder's interned ids; the handle and key must record on it
        // exactly as the string path does. Repeated, because whether an
        // address is reused is the allocator's choice.
        for _ in 0..64 {
            let first = Obs::recording();
            let hits = first.counter_handle("c", "hits", &[]);
            let run = first.span_key("c", "run");
            let mut b = first.batch();
            hits.add(&mut b, 1);
            let s = run.enter(&mut b, 0.0);
            b.span_exit(s, 1.0);
            drop(b);
            drop(first);

            let record = |through_handles: bool| {
                let obs = Obs::recording();
                obs.gauge_set("z", "depth", &[], 2.0);
                let mut b = obs.batch();
                let s = if through_handles {
                    hits.add(&mut b, 3);
                    run.enter(&mut b, 5.0)
                } else {
                    b.counter_add("c", "hits", &[], 3);
                    b.span_enter("c", "run", 5.0)
                };
                b.span_exit(s, 6.0);
                drop(b);
                obs.export_json()
            };
            let through_handles = record(true);
            assert_eq!(through_handles, record(false));
        }
    }

    #[test]
    fn export_stream_concatenates_to_export_json() {
        let obs = Obs::recording();
        let s = obs.span_enter("c", "s", 0.0);
        obs.event("c", "e", 0.1, &[("k", "v")]);
        obs.counter_add("c", "n", &[], 1);
        obs.span_exit(s, 1.0);
        for chunk_size in [1usize, 7, 64, 1 << 20] {
            let mut streamed = String::new();
            obs.export_stream(chunk_size, |chunk| streamed.push_str(chunk));
            assert_eq!(streamed, obs.export_json(), "chunk_size {chunk_size}");
        }
        let disabled = Obs::disabled();
        let mut streamed = String::new();
        disabled.export_stream(16, |chunk| streamed.push_str(chunk));
        assert_eq!(streamed, disabled.export_json());
    }

    #[test]
    fn snapshot_since_partitions_records_and_carries_no_metrics() {
        let obs = Obs::recording();
        let mut cursor = TraceCursor::default();

        obs.event("c", "first", 0.0, &[]);
        obs.counter_add("c", "n", &[], 1);
        let d1 = obs.snapshot_since(&mut cursor).resolve();
        assert_eq!(d1.events.len(), 1);
        assert_eq!(d1.events[0].name, "first");
        assert!(d1.metrics.metrics.is_empty(), "deltas carry records only");

        // Nothing new: the delta is empty.
        let d2 = obs.snapshot_since(&mut cursor).resolve();
        assert_eq!(d2, Trace::default());

        let s = obs.span_enter("c", "s", 1.0);
        obs.event("c", "second", 1.5, &[]);
        obs.record_decision(
            "c",
            "d",
            &Provenance::new("m", 1, 0),
            1.0,
            Some(1.0),
            "ok",
            false,
            0,
            1.6,
        );
        obs.counter_add("c", "n", &[], 2);
        obs.span_exit(s, 2.0);
        let d3 = obs.snapshot_since(&mut cursor).resolve();
        assert_eq!(d3.events.len(), 1);
        assert_eq!(d3.events[0].name, "second");
        assert_eq!(d3.spans.len(), 1);
        assert_eq!(d3.decisions.len(), 1);
        assert!(d3.metrics.metrics.is_empty());

        // Deltas partition the full snapshot's records; the full snapshot
        // keeps the cumulative registry.
        let full = obs.snapshot();
        let mut joined = d1.clone();
        for d in [&d2, &d3] {
            joined.spans.extend(d.spans.iter().cloned());
            joined.events.extend(d.events.iter().cloned());
            joined.decisions.extend(d.decisions.iter().cloned());
            joined.deployments.extend(d.deployments.iter().cloned());
        }
        joined.metrics = full.metrics.clone();
        assert_eq!(joined, full, "deltas must be disjoint and exhaustive");
        assert_eq!(full.metrics.counter("c", "n", &[]), 3);

        // A fresh cursor's delta holds every record of the full snapshot.
        let mut fresh = TraceCursor::default();
        let all = obs.snapshot_since(&mut fresh).resolve();
        assert_eq!(
            Trace {
                metrics: full.metrics.clone(),
                ..all
            },
            full
        );
        assert_eq!(fresh, cursor);

        // A disabled handle yields empty deltas and leaves the cursor alone.
        assert_eq!(
            Obs::disabled().snapshot_since(&mut fresh).resolve(),
            Trace::default()
        );
        assert_eq!(fresh, cursor);
    }

    #[test]
    fn delta_is_copied_at_its_cut_and_lends_what_it_resolves() {
        let obs = Obs::recording();
        let mut cursor = TraceCursor::default();
        let open = obs.span_enter("c", "open", 1.0);
        obs.event("c", "e", 1.5, &[("k", "v"), ("", "w")]);
        obs.record_decision(
            "c",
            "d",
            &Provenance::new("m", 2, 7),
            1.0,
            None,
            "ok",
            true,
            3,
            1.6,
        );
        obs.record_deployment("c", DeploymentKind::Rollback, "m", 1, "slo_burn", 1.7);
        let delta = obs.snapshot_since(&mut cursor);
        obs.span_exit(open, 3.0);
        obs.event("c", "after", 3.5, &[]);

        // The span closed after the cut: the delta still reports it open.
        let resolved = delta.resolve();
        assert_eq!(resolved.spans.len(), 1);
        assert_eq!(resolved.spans[0].end, resolved.spans[0].start);
        assert_eq!(obs.snapshot().spans[0].end, 3.0);
        // A later delta does not report the span again.
        let later = obs.snapshot_since(&mut cursor).resolve();
        assert!(later.spans.is_empty());
        assert_eq!(later.events.len(), 1);

        // A visit lends exactly the records `resolve` owns, in its order.
        fn lent(records: &impl TraceRecords) -> Vec<String> {
            let mut lent = Vec::new();
            records.visit_records(|r| lent.push(format!("{r:?}")));
            lent
        }
        assert_eq!(lent(&delta).len(), 4);
        assert_eq!(lent(&delta), lent(&resolved));
        assert!(lent(&Obs::disabled().snapshot_since(&mut cursor)).is_empty());
    }
}
