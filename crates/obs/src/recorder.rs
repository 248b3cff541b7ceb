//! The recorder behind [`crate::Obs`]: interned strings, compact id-based
//! trace storage, and a dense metric table.
//!
//! Hot-path anatomy (what one `span_enter`/`counter_add` costs):
//!
//! 1. strings intern to `u32` ids ([`crate::intern::Interner`]) — a hash
//!    plus a content compare on the hit path, no allocation;
//! 2. every record appends straight to compact storage as plain old data,
//!    ids only, one vector per record kind in record order. A span is the
//!    one record written twice: entering it appends it with `end == start`,
//!    and exiting it overwrites that `end` in place;
//! 3. metrics resolve each distinct `(component, name, labels)` set once
//!    to a dense slot index, and updates land directly in the slot (`u64`
//!    add / `f64` store / bucket increment) — the canonical `BTreeMap`
//!    registry is only materialized by a full snapshot or an export.
//!
//! Strings are resolved only when records leave the recorder: a full
//! snapshot, a delta (which resolves only the records past its cursor) or
//! a streaming export. So the canonical JSON is independent of where
//! snapshots cut the recording: the golden-digest suites pin that.
//!
//! Optional deterministic sampling ([`crate::sample`]) is applied as each
//! record arrives: sequence numbers and span ids are assigned to every
//! record regardless, so a sampled trace is a strict filter of the full
//! trace.

use crate::export;
use crate::flight::{DecisionRecord, DeploymentKind, DeploymentRecord, Provenance};
use crate::intern::{IdentityBuild, Interner, KeyHash, MixBuild};
use crate::metrics::{Histogram, MetricKey, MetricValue, MetricsRegistry};
use crate::sample::SampleConfig;
use crate::span::{SpanId, SpanRecord};
use crate::trace::{EventRecord, Trace};
use crate::TraceCursor;
use std::collections::HashMap;

/// Sentinel in `span_index` for spans dropped by the sampler.
const SAMPLED_OUT: u32 = u32::MAX;

/// Sentinel for "no parent span" in stored spans (span ids are sequential
/// counters, so `u64::MAX` is unreachable). Kept as a bare `u64` instead of
/// `Option<SpanId>` to keep span records small — one is written per stage,
/// so its size is hot-path memory traffic.
const NO_SPAN: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct CompactSpan {
    id: u64,
    /// Parent span id or [`NO_SPAN`].
    parent: u64,
    component: u32,
    name: u32,
    start: f64,
    end: f64,
    seq: u64,
}

#[derive(Debug, Clone, Copy)]
struct CompactEvent {
    seq: u64,
    span: Option<SpanId>,
    time: f64,
    component: u32,
    name: u32,
    fields_start: u32,
    fields_len: u32,
}

#[derive(Debug, Clone, Copy)]
struct CompactDecision {
    seq: u64,
    span: Option<SpanId>,
    time: f64,
    component: u32,
    decision: u32,
    model_id: u32,
    model_version: u64,
    features_digest: u64,
    predicted: f64,
    observed: Option<f64>,
    verdict: u32,
    vetoed: bool,
    feedback_latency_ticks: u64,
}

#[derive(Debug, Clone, Copy)]
struct CompactDeployment {
    seq: u64,
    span: Option<SpanId>,
    time: f64,
    component: u32,
    kind: DeploymentKind,
    model_id: u32,
    version: u64,
    cause: u32,
}

/// Id-based trace storage, one vector per record kind in record order.
/// Event fields live in one shared arena (`event_fields`) addressed by
/// `(fields_start, fields_len)`, so an event costs no allocation of its own.
#[derive(Debug, Default)]
struct CompactStore {
    spans: Vec<CompactSpan>,
    /// `span id -> index into spans`, [`SAMPLED_OUT`] when dropped.
    span_index: Vec<u32>,
    events: Vec<CompactEvent>,
    event_fields: Vec<(u32, u32)>,
    decisions: Vec<CompactDecision>,
    deployments: Vec<CompactDeployment>,
}

/// How a metric slot is created on first touch.
enum SlotInit {
    Counter,
    Gauge(f64),
    Histogram,
}

/// Sorts `order` into canonical label order — indices into `labels`,
/// ordered by the `(key, value)` string pair exactly like `MetricKey::new`
/// sorts its owned pairs — and returns the word-at-a-time hash of the
/// canonical identity. `order` must be `labels.len()` long; its contents
/// are overwritten.
fn canonical_hash(
    component: &str,
    name: &str,
    labels: &[(&str, &str)],
    order: &mut [usize],
) -> u64 {
    for (i, o) in order.iter_mut().enumerate() {
        *o = i;
    }
    order.sort_unstable_by(|&a, &b| labels[a].cmp(&labels[b]));
    let mut kh = KeyHash::new();
    kh.write(component.as_bytes());
    kh.sep();
    kh.write(name.as_bytes());
    kh.sep();
    for &i in order.iter() {
        kh.write(labels[i].0.as_bytes());
        kh.sep();
        kh.write(labels[i].1.as_bytes());
        kh.sep();
    }
    kh.finish()
}

/// An interned metric identity: its [`canonical_hash`] plus ids into the
/// recorder's string interner, labels in canonical order. The metric table
/// keys its slots by it, and handle-based recording ([`crate::CounterHandle`]
/// and friends) resolves one once at handle creation, so hot-path updates
/// skip string hashing and comparison entirely. Ids index this recorder's
/// interner — the handle layer guards against cross-recorder use.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MetricIdKey {
    hash: u64,
    component: u32,
    name: u32,
    labels: Vec<(u32, u32)>,
}

impl MetricIdKey {
    fn new(strings: &mut Interner, component: &str, name: &str, labels: &[(&str, &str)]) -> Self {
        let mut order = vec![0; labels.len()];
        let hash = canonical_hash(component, name, labels, &mut order);
        Self {
            hash,
            component: strings.intern(component),
            name: strings.intern(name),
            labels: order
                .iter()
                .map(|&i| (strings.intern(labels[i].0), strings.intern(labels[i].1)))
                .collect(),
        }
    }
}

/// Dense metric table: one slot per distinct `(component, name, labels)`
/// set, found via a word-at-a-time hash over the canonicalized strings.
#[derive(Debug, Default)]
struct MetricTable {
    keys: Vec<MetricIdKey>,
    slots: Vec<MetricValue>,
    buckets: HashMap<u64, Vec<u32>, IdentityBuild>,
}

impl MetricTable {
    /// Resolves `(component, name, labels)` to a dense slot index, creating
    /// the slot with `init` on first touch. Allocation-free on the hit path.
    fn slot_id(
        &mut self,
        strings: &mut Interner,
        component: &str,
        name: &str,
        labels: &[(&str, &str)],
        init: SlotInit,
    ) -> u32 {
        let mut order_stack = [0usize; 16];
        let mut order_heap;
        let order: &mut [usize] = if labels.len() <= order_stack.len() {
            &mut order_stack[..labels.len()]
        } else {
            order_heap = vec![0; labels.len()];
            &mut order_heap
        };
        let hash = canonical_hash(component, name, labels, order);

        if let Some(bucket) = self.buckets.get(&hash) {
            'candidate: for &id in bucket {
                let key = &self.keys[id as usize];
                if strings.resolve(key.component) != component
                    || strings.resolve(key.name) != name
                    || key.labels.len() != labels.len()
                {
                    continue;
                }
                for (&(k, v), &i) in key.labels.iter().zip(order.iter()) {
                    if strings.resolve(k) != labels[i].0 || strings.resolve(v) != labels[i].1 {
                        continue 'candidate;
                    }
                }
                return id;
            }
        }
        self.push_slot(MetricIdKey::new(strings, component, name, labels), init)
    }

    /// Resolves an interned key to a dense slot index, creating the slot
    /// with `init` on first touch. Probing compares interned ids — equal
    /// ids are equal strings by interner construction, so this finds
    /// exactly the slot [`MetricTable::slot_id`] would.
    fn slot_for_key(&mut self, key: &MetricIdKey, init: SlotInit) -> u32 {
        let found = self
            .buckets
            .get(&key.hash)
            .and_then(|bucket| bucket.iter().find(|&&id| self.keys[id as usize] == *key));
        match found {
            Some(&id) => id,
            None => self.push_slot(key.clone(), init),
        }
    }

    fn push_slot(&mut self, key: MetricIdKey, init: SlotInit) -> u32 {
        let id = u32::try_from(self.keys.len()).expect("metric table capacity exceeded");
        self.buckets.entry(key.hash).or_default().push(id);
        self.keys.push(key);
        self.slots.push(match init {
            SlotInit::Counter => MetricValue::Counter(0),
            SlotInit::Gauge(v) => MetricValue::Gauge(v),
            SlotInit::Histogram => {
                MetricValue::Histogram(Histogram::new(&Histogram::default_bounds()))
            }
        });
        id
    }

    /// Materializes the canonical sorted registry. Sorting happens here, on
    /// resolved strings, so the result is independent of intern order.
    fn to_registry(&self, strings: &Interner) -> MetricsRegistry {
        let mut registry = MetricsRegistry::default();
        for (key, slot) in self.keys.iter().zip(&self.slots) {
            registry.metrics.insert(
                MetricKey {
                    component: strings.resolve(key.component).to_string(),
                    name: strings.resolve(key.name).to_string(),
                    labels: key
                        .labels
                        .iter()
                        .map(|&(k, v)| {
                            (
                                strings.resolve(k).to_string(),
                                strings.resolve(v).to_string(),
                            )
                        })
                        .collect(),
                },
                slot.clone(),
            );
        }
        registry
    }
}

/// The recorder behind [`crate::Obs::recording`].
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    seq: u64,
    next_span_id: u64,
    span_stack: Vec<SpanId>,
    strings: Interner,
    /// `(base name id, index) -> full "{base}_{index}" name id`, so indexed
    /// span names (per-stage, per-job) never re-format on the hot path.
    /// Multiply-rotate hashed — the map compares full keys, so the cheap
    /// hash is safe.
    indexed: HashMap<(u32, u64), u32, MixBuild>,
    metrics: MetricTable,
    store: CompactStore,
    sampler: Option<SampleConfig>,
}

impl Recorder {
    pub(crate) fn new(sampler: Option<SampleConfig>) -> Self {
        Self {
            sampler,
            ..Self::default()
        }
    }

    #[inline]
    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Whether the sampler keeps the record with sampling id `id` (always,
    /// without a sampler).
    #[inline]
    fn keeps(&self, id: u64) -> bool {
        self.sampler.map_or(true, |s| s.keeps(id))
    }

    // -- recording ops -----------------------------------------------------

    pub(crate) fn span_enter(&mut self, component: &str, name: &str, sim_time: f64) -> SpanId {
        let component = self.strings.intern(component);
        let name = self.strings.intern(name);
        self.span_enter_ids(component, name, sim_time)
    }

    pub(crate) fn span_enter_indexed(
        &mut self,
        component: &str,
        base: &str,
        index: usize,
        sim_time: f64,
    ) -> SpanId {
        let component = self.strings.intern(component);
        let name = self.indexed_name(base, index);
        self.span_enter_ids(component, name, sim_time)
    }

    fn indexed_name(&mut self, base: &str, index: usize) -> u32 {
        let base_id = self.strings.intern(base);
        self.indexed_name_ids(base_id, index)
    }

    #[inline]
    fn indexed_name_ids(&mut self, base_id: u32, index: usize) -> u32 {
        let key = (base_id, index as u64);
        if let Some(&id) = self.indexed.get(&key) {
            return id;
        }
        let formatted = format!("{}_{}", self.strings.resolve(base_id), index);
        let id = self.strings.intern(&formatted);
        self.indexed.insert(key, id);
        id
    }

    /// Span entry from pre-interned ids (the [`crate::SpanKey`] fast path).
    /// Appends the span to compact storage (see the module docs), open
    /// until its exit overwrites `end`.
    #[inline]
    pub(crate) fn span_enter_ids(&mut self, component: u32, name: u32, sim_time: f64) -> SpanId {
        let seq = self.next_seq();
        let id = self.next_span_id;
        self.next_span_id += 1;
        let parent = self.span_stack.last().map_or(NO_SPAN, |s| s.0);
        debug_assert_eq!(self.store.span_index.len() as u64, id);
        if self.keeps(id) {
            self.store.span_index.push(self.store.spans.len() as u32);
            self.store.spans.push(CompactSpan {
                id,
                parent,
                component,
                name,
                start: sim_time,
                end: sim_time,
                seq,
            });
        } else {
            self.store.span_index.push(SAMPLED_OUT);
        }
        self.span_stack.push(SpanId(id));
        SpanId(id)
    }

    /// Indexed span entry from pre-interned ids (the
    /// [`crate::IndexedSpanKey`] fast path).
    #[inline]
    pub(crate) fn span_enter_indexed_ids(
        &mut self,
        component: u32,
        base: u32,
        index: usize,
        sim_time: f64,
    ) -> SpanId {
        let name = self.indexed_name_ids(base, index);
        self.span_enter_ids(component, name, sim_time)
    }

    /// Interns a `(component, name)` pair for [`crate::SpanKey`] /
    /// [`crate::IndexedSpanKey`] creation.
    pub(crate) fn intern_pair(&mut self, component: &str, name: &str) -> (u32, u32) {
        (self.strings.intern(component), self.strings.intern(name))
    }

    #[inline]
    pub(crate) fn span_exit(&mut self, id: SpanId, sim_time: f64) {
        if let Some(pos) = self.span_stack.iter().rposition(|&s| s == id) {
            self.span_stack.truncate(pos);
        }
        if let Some(&ix) = self.store.span_index.get(id.0 as usize) {
            if ix != SAMPLED_OUT {
                self.store.spans[ix as usize].end = sim_time;
            }
        }
    }

    pub(crate) fn event(
        &mut self,
        component: &str,
        name: &str,
        sim_time: f64,
        fields: &[(&str, &str)],
    ) {
        let seq = self.next_seq();
        if !self.keeps(seq) {
            return;
        }
        let fields_start = self.store.event_fields.len() as u32;
        for (k, v) in fields {
            let pair = (self.strings.intern(k), self.strings.intern(v));
            self.store.event_fields.push(pair);
        }
        self.store.events.push(CompactEvent {
            seq,
            span: self.span_stack.last().copied(),
            time: sim_time,
            component: self.strings.intern(component),
            name: self.strings.intern(name),
            fields_start,
            fields_len: fields.len() as u32,
        });
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_decision(
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
        let seq = self.next_seq();
        if !self.keeps(seq) {
            return;
        }
        self.store.decisions.push(CompactDecision {
            seq,
            span: self.span_stack.last().copied(),
            time: sim_time,
            component: self.strings.intern(component),
            decision: self.strings.intern(decision),
            model_id: self.strings.intern(provenance.model_id),
            model_version: provenance.model_version,
            features_digest: provenance.features_digest,
            predicted,
            observed,
            verdict: self.strings.intern(verdict),
            vetoed,
            feedback_latency_ticks,
        });
    }

    /// Deployments are audit-critical and rare: never sampled.
    pub(crate) fn record_deployment(
        &mut self,
        component: &str,
        kind: DeploymentKind,
        model_id: &str,
        version: u64,
        cause: &str,
        sim_time: f64,
    ) {
        let seq = self.next_seq();
        self.store.deployments.push(CompactDeployment {
            seq,
            span: self.span_stack.last().copied(),
            time: sim_time,
            component: self.strings.intern(component),
            kind,
            model_id: self.strings.intern(model_id),
            version,
            cause: self.strings.intern(cause),
        });
    }

    pub(crate) fn counter_add(
        &mut self,
        component: &str,
        name: &str,
        labels: &[(&str, &str)],
        delta: u64,
    ) {
        let id = self.metrics.slot_id(
            &mut self.strings,
            component,
            name,
            labels,
            SlotInit::Counter,
        );
        self.counter_add_slot(id, delta);
    }

    pub(crate) fn gauge_set(
        &mut self,
        component: &str,
        name: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        let id = self.metrics.slot_id(
            &mut self.strings,
            component,
            name,
            labels,
            SlotInit::Gauge(value),
        );
        self.gauge_set_slot(id, value);
    }

    pub(crate) fn histogram_observe(
        &mut self,
        component: &str,
        name: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        let id = self.metrics.slot_id(
            &mut self.strings,
            component,
            name,
            labels,
            SlotInit::Histogram,
        );
        self.histogram_observe_slot(id, value);
    }

    /// Builds an interned key for handle-based recording. Paid once at
    /// handle creation.
    pub(crate) fn make_metric_key(
        &mut self,
        component: &str,
        name: &str,
        labels: &[(&str, &str)],
    ) -> MetricIdKey {
        MetricIdKey::new(&mut self.strings, component, name, labels)
    }

    pub(crate) fn counter_add_key(&mut self, key: &MetricIdKey, delta: u64) -> u32 {
        let id = self.metrics.slot_for_key(key, SlotInit::Counter);
        self.counter_add_slot(id, delta);
        id
    }

    #[inline]
    pub(crate) fn counter_add_slot(&mut self, id: u32, delta: u64) {
        match &mut self.metrics.slots[id as usize] {
            MetricValue::Counter(c) => *c += delta,
            _ => debug_assert!(false, "metric kind mismatch: expected counter"),
        }
    }

    pub(crate) fn gauge_set_key(&mut self, key: &MetricIdKey, value: f64) -> u32 {
        let id = self.metrics.slot_for_key(key, SlotInit::Gauge(value));
        self.gauge_set_slot(id, value);
        id
    }

    /// Matches the registry's insert semantics: a gauge write replaces
    /// whatever value (of whatever kind) was there.
    #[inline]
    pub(crate) fn gauge_set_slot(&mut self, id: u32, value: f64) {
        self.metrics.slots[id as usize] = MetricValue::Gauge(value);
    }

    pub(crate) fn histogram_observe_key(&mut self, key: &MetricIdKey, value: f64) -> u32 {
        let id = self.metrics.slot_for_key(key, SlotInit::Histogram);
        self.histogram_observe_slot(id, value);
        id
    }

    #[inline]
    pub(crate) fn histogram_observe_slot(&mut self, id: u32, value: f64) {
        match &mut self.metrics.slots[id as usize] {
            MetricValue::Histogram(h) => h.observe(value),
            _ => debug_assert!(false, "metric kind mismatch: expected histogram"),
        }
    }

    // -- resolution --------------------------------------------------------

    fn resolve_span(&self, s: &CompactSpan) -> SpanRecord {
        SpanRecord {
            id: SpanId(s.id),
            parent: (s.parent != NO_SPAN).then_some(SpanId(s.parent)),
            component: self.strings.resolve(s.component).to_string(),
            name: self.strings.resolve(s.name).to_string(),
            start: s.start,
            end: s.end,
            seq: s.seq,
        }
    }

    fn resolve_event(&self, e: &CompactEvent) -> EventRecord {
        EventRecord {
            seq: e.seq,
            span: e.span,
            sim_time: e.time,
            component: self.strings.resolve(e.component).to_string(),
            name: self.strings.resolve(e.name).to_string(),
            fields: self.store.event_fields
                [e.fields_start as usize..(e.fields_start + e.fields_len) as usize]
                .iter()
                .map(|&(k, v)| {
                    (
                        self.strings.resolve(k).to_string(),
                        self.strings.resolve(v).to_string(),
                    )
                })
                .collect(),
        }
    }

    fn resolve_decision(&self, d: &CompactDecision) -> DecisionRecord {
        DecisionRecord {
            seq: d.seq,
            span: d.span,
            sim_time: d.time,
            component: self.strings.resolve(d.component).to_string(),
            decision: self.strings.resolve(d.decision).to_string(),
            model_id: self.strings.resolve(d.model_id).to_string(),
            model_version: d.model_version,
            features_digest: d.features_digest,
            predicted: d.predicted,
            observed: d.observed,
            verdict: self.strings.resolve(d.verdict).to_string(),
            vetoed: d.vetoed,
            feedback_latency_ticks: d.feedback_latency_ticks,
        }
    }

    fn resolve_deployment(&self, d: &CompactDeployment) -> DeploymentRecord {
        DeploymentRecord {
            seq: d.seq,
            span: d.span,
            sim_time: d.time,
            component: self.strings.resolve(d.component).to_string(),
            kind: d.kind,
            model_id: self.strings.resolve(d.model_id).to_string(),
            version: d.version,
            cause: self.strings.resolve(d.cause).to_string(),
        }
    }

    /// Every record from `from` on: each compact vector is resolved from
    /// the cursor's index (a plain slice; a cursor past the end resolves
    /// nothing), so the cost is O(records resolved), not O(trace). The
    /// metrics registry is left empty.
    pub(crate) fn records_from(&self, from: &TraceCursor) -> Trace {
        /// `v` from index `from` on.
        fn tail<T>(v: &[T], from: usize) -> std::slice::Iter<'_, T> {
            v.get(from..).unwrap_or_default().iter()
        }
        let s = &self.store;
        Trace {
            spans: tail(&s.spans, from.spans)
                .map(|r| self.resolve_span(r))
                .collect(),
            events: tail(&s.events, from.events)
                .map(|r| self.resolve_event(r))
                .collect(),
            decisions: tail(&s.decisions, from.decisions)
                .map(|r| self.resolve_decision(r))
                .collect(),
            deployments: tail(&s.deployments, from.deployments)
                .map(|r| self.resolve_deployment(r))
                .collect(),
            metrics: MetricsRegistry::default(),
        }
    }

    pub(crate) fn snapshot(&self) -> Trace {
        Trace {
            metrics: self.metrics.to_registry(&self.strings),
            ..self.records_from(&TraceCursor::default())
        }
    }

    pub(crate) fn last_event_json(&self) -> Option<String> {
        self.store.events.last().map(|e| {
            serde_json::to_string(&self.resolve_event(e))
                .expect("event serialization is infallible")
        })
    }

    /// Streams the flight record as chunked canonical JSON, resolving one
    /// record at a time — the full `Trace` (and the full output string) are
    /// never materialized.
    pub(crate) fn export_stream(&self, chunk_size: usize, sink: &mut dyn FnMut(&str)) {
        let s = &self.store;
        export::write_document(
            chunk_size,
            sink,
            s.spans.iter().map(|r| self.resolve_span(r)),
            s.events.iter().map(|r| self.resolve_event(r)),
            s.decisions.iter().map(|r| self.resolve_decision(r)),
            s.deployments.iter().map(|r| self.resolve_deployment(r)),
            // Distinct metric identities are few; materializing the sorted
            // registry here is O(metrics), not O(trace).
            &self.metrics.to_registry(&self.strings),
        );
    }
}
