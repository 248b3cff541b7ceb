//! The recorder behind [`crate::Obs`]: preallocated ring staging, interned
//! label sets, and batched flush into compact trace storage.
//!
//! Hot-path anatomy (what one `span_enter`/`counter_add` costs):
//!
//! 1. strings intern to `u32` ids ([`crate::intern::Interner`]) — a hash
//!    plus a content compare on the hit path, no allocation;
//! 2. events, decisions and deployments stage as plain-old-data [`Staged`]
//!    values into a preallocated ring (`Vec` reused across flushes — the
//!    push is a bounds check and a move);
//! 3. spans bypass the ring: entering one appends it straight to compact
//!    storage with `end == start`, and exiting it overwrites that `end` in
//!    place. A span is the hottest record (the executor enters and exits
//!    one per stage) and the only one written twice, so staging it would
//!    copy both halves through the ring only to join them again at flush;
//! 4. metrics bypass the ring entirely: each distinct
//!    `(component, name, labels)` set resolves once to a dense slot index
//!    and updates land directly in the slot (`u64` add / `f64` store /
//!    bucket increment) — the canonical `BTreeMap` registry is only
//!    materialized at snapshot time.
//!
//! When the ring fills (or a snapshot/export forces it), `flush` drains the
//! staged records *in order* into compact, id-based trace storage — still no
//! strings. Each record kind has its own storage vector in record order, so
//! spans skipping the ring leaves every vector's order as it was. Strings
//! are resolved exactly once, at snapshot or streaming export, so the
//! canonical JSON is independent of ring size and flush points: the
//! golden-digest suites pin that.
//!
//! Optional deterministic sampling ([`crate::sample`]) is applied at flush
//! (at entry, for spans): sequence numbers and span ids are assigned to
//! every record regardless, so a sampled trace is a strict filter of the
//! full trace.

use crate::export::ChunkSink;
use crate::flight::{DecisionRecord, DeploymentKind, DeploymentRecord, Provenance};
use crate::intern::{IdentityBuild, Interner, KeyHash, MixBuild};
use crate::metrics::{Histogram, MetricKey, MetricValue, MetricsRegistry};
use crate::sample::SampleConfig;
use crate::span::{SpanId, SpanRecord};
use crate::trace::{EventRecord, Trace};
use std::collections::HashMap;

/// Default staging-ring capacity (records between forced flushes).
pub(crate) const DEFAULT_RING_CAPACITY: usize = 4096;

/// Sentinel in `span_index` for spans dropped by the sampler.
const SAMPLED_OUT: u32 = u32::MAX;

/// Sentinel for "no enclosing span" in staged records and stored spans
/// (span ids are sequential counters, so `u64::MAX` is unreachable). Kept
/// as a bare `u64` instead of `Option<SpanId>` to keep ring slots and span
/// records small — both are written once per record, so their size is
/// hot-path memory traffic.
const NO_SPAN: u64 = u64::MAX;

fn unstage_span(raw: u64) -> Option<SpanId> {
    (raw != NO_SPAN).then_some(SpanId(raw))
}

/// One staged record: plain old data, interned ids only. Rare, wide record
/// kinds (decisions, deployments) keep their payloads in side arenas and
/// stage only an index, so the enum stays at the size of its hot variants.
#[derive(Debug, Clone, Copy)]
enum Staged {
    Event {
        seq: u64,
        /// Enclosing span id or [`NO_SPAN`].
        span: u64,
        time: f64,
        component: u32,
        name: u32,
        fields_start: u32,
        fields_len: u32,
    },
    /// Index into `staged_decisions`.
    Decision(u32),
    /// Index into `staged_deployments`.
    Deployment(u32),
}

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

/// Flushed, id-based trace storage. Event fields live in one shared arena
/// (`event_fields`) addressed by `(fields_start, fields_len)` so flushing an
/// event never allocates.
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
enum SlotInit<'a> {
    Counter,
    Gauge(f64),
    Histogram(Option<&'a [f64]>),
}

/// Interned metric identity: ids into the shared string interner, labels in
/// canonical (sorted-by-string) order.
#[derive(Debug)]
struct CompactMetricKey {
    component: u32,
    name: u32,
    labels: Vec<(u32, u32)>,
}

/// A pre-resolved metric identity for handle-based recording
/// ([`crate::CounterHandle`] and friends): the canonical-order hash plus
/// interned ids, computed once at handle creation so hot-path updates skip
/// string hashing and comparison entirely. Ids index this recorder's
/// interner — the handle layer guards against cross-recorder use.
#[derive(Debug, Clone)]
pub(crate) struct MetricIdKey {
    hash: u64,
    component: u32,
    name: u32,
    labels: Vec<(u32, u32)>,
}

/// Dense metric table: one slot per distinct `(component, name, labels)`
/// set, found via a word-at-a-time hash over the canonicalized strings.
#[derive(Debug, Default)]
struct MetricTable {
    keys: Vec<CompactMetricKey>,
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
        init: SlotInit<'_>,
    ) -> u32 {
        // Canonical label order: sort indices by the (key, value) string
        // pair, exactly like `MetricKey::new` sorts its owned pairs.
        let mut order_stack = [0usize; 16];
        let mut order_heap;
        let order: &mut [usize] = if labels.len() <= order_stack.len() {
            let s = &mut order_stack[..labels.len()];
            for (i, o) in s.iter_mut().enumerate() {
                *o = i;
            }
            s
        } else {
            order_heap = (0..labels.len()).collect::<Vec<_>>();
            &mut order_heap[..]
        };
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
        let hash = kh.finish();

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

        let key = CompactMetricKey {
            component: strings.intern(component),
            name: strings.intern(name),
            labels: order
                .iter()
                .map(|&i| (strings.intern(labels[i].0), strings.intern(labels[i].1)))
                .collect(),
        };
        let id = u32::try_from(self.keys.len()).expect("metric table capacity exceeded");
        self.keys.push(key);
        self.slots.push(match init {
            SlotInit::Counter => MetricValue::Counter(0),
            SlotInit::Gauge(v) => MetricValue::Gauge(v),
            SlotInit::Histogram(bounds) => MetricValue::Histogram(match bounds {
                Some(b) => Histogram::new(b),
                None => Histogram::new(&Histogram::default_bounds()),
            }),
        });
        self.buckets.entry(hash).or_default().push(id);
        id
    }

    /// Resolves a pre-hashed, pre-interned key to a dense slot index,
    /// creating the slot with `init` on first touch. Probing compares
    /// interned ids — equal ids are equal strings by interner construction,
    /// so this finds exactly the slot [`MetricTable::slot_id`] would.
    fn slot_for_key(&mut self, key: &MetricIdKey, init: SlotInit<'_>) -> u32 {
        if let Some(bucket) = self.buckets.get(&key.hash) {
            for &id in bucket {
                let k = &self.keys[id as usize];
                if k.component == key.component && k.name == key.name && k.labels == key.labels {
                    return id;
                }
            }
        }
        let id = u32::try_from(self.keys.len()).expect("metric table capacity exceeded");
        self.keys.push(CompactMetricKey {
            component: key.component,
            name: key.name,
            labels: key.labels.clone(),
        });
        self.slots.push(match init {
            SlotInit::Counter => MetricValue::Counter(0),
            SlotInit::Gauge(v) => MetricValue::Gauge(v),
            SlotInit::Histogram(bounds) => MetricValue::Histogram(match bounds {
                Some(b) => Histogram::new(b),
                None => Histogram::new(&Histogram::default_bounds()),
            }),
        });
        self.buckets.entry(key.hash).or_default().push(id);
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
#[derive(Debug)]
pub(crate) struct BatchedRecorder {
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
    ring: Vec<Staged>,
    ring_capacity: usize,
    staged_fields: Vec<(u32, u32)>,
    staged_decisions: Vec<CompactDecision>,
    staged_deployments: Vec<CompactDeployment>,
    store: CompactStore,
    sampler: Option<SampleConfig>,
}

impl BatchedRecorder {
    pub(crate) fn new(ring_capacity: usize, sampler: Option<SampleConfig>) -> Self {
        let ring_capacity = ring_capacity.max(1);
        Self {
            seq: 0,
            next_span_id: 0,
            span_stack: Vec::with_capacity(16),
            strings: Interner::new(),
            indexed: HashMap::default(),
            metrics: MetricTable::default(),
            ring: Vec::with_capacity(ring_capacity),
            ring_capacity,
            staged_fields: Vec::with_capacity(64),
            staged_decisions: Vec::new(),
            staged_deployments: Vec::new(),
            store: CompactStore::default(),
            sampler,
        }
    }

    #[inline]
    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Drains the staging ring into compact storage, applying the sampler.
    pub(crate) fn flush(&mut self) {
        if self.ring.is_empty() {
            return;
        }
        let mut ring = std::mem::take(&mut self.ring);
        for staged in ring.drain(..) {
            match staged {
                Staged::Event {
                    seq,
                    span,
                    time,
                    component,
                    name,
                    fields_start,
                    fields_len,
                } => {
                    if self.sampler.map_or(true, |s| s.keeps(seq)) {
                        let start = self.store.event_fields.len() as u32;
                        let range = fields_start as usize..(fields_start + fields_len) as usize;
                        self.store
                            .event_fields
                            .extend_from_slice(&self.staged_fields[range]);
                        self.store.events.push(CompactEvent {
                            seq,
                            span: unstage_span(span),
                            time,
                            component,
                            name,
                            fields_start: start,
                            fields_len,
                        });
                    }
                }
                Staged::Decision(index) => {
                    let d = self.staged_decisions[index as usize];
                    if self.sampler.map_or(true, |s| s.keeps(d.seq)) {
                        self.store.decisions.push(d);
                    }
                }
                Staged::Deployment(index) => {
                    // Deployments are audit-critical and rare: never sampled.
                    self.store
                        .deployments
                        .push(self.staged_deployments[index as usize]);
                }
            }
        }
        self.ring = ring;
        self.staged_fields.clear();
        self.staged_decisions.clear();
        self.staged_deployments.clear();
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
        if self.sampler.map_or(true, |s| s.keeps(id)) {
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
        let span = self.span_stack.last().map_or(NO_SPAN, |s| s.0);
        let component = self.strings.intern(component);
        let name = self.strings.intern(name);
        if self.ring.len() >= self.ring_capacity {
            self.flush();
        }
        let fields_start = self.staged_fields.len() as u32;
        for (k, v) in fields {
            let pair = (self.strings.intern(k), self.strings.intern(v));
            self.staged_fields.push(pair);
        }
        self.ring.push(Staged::Event {
            seq,
            span,
            time: sim_time,
            component,
            name,
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
        let span = self.span_stack.last().copied();
        let component = self.strings.intern(component);
        let decision = self.strings.intern(decision);
        let model_id = self.strings.intern(provenance.model_id);
        let verdict = self.strings.intern(verdict);
        // Flush check before touching the side arena: staged indices must
        // stay within the current flush epoch.
        if self.ring.len() >= self.ring_capacity {
            self.flush();
        }
        let index = self.staged_decisions.len() as u32;
        self.staged_decisions.push(CompactDecision {
            seq,
            span,
            time: sim_time,
            component,
            decision,
            model_id,
            model_version: provenance.model_version,
            features_digest: provenance.features_digest,
            predicted,
            observed,
            verdict,
            vetoed,
            feedback_latency_ticks,
        });
        self.ring.push(Staged::Decision(index));
    }

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
        let span = self.span_stack.last().copied();
        let component = self.strings.intern(component);
        let model_id = self.strings.intern(model_id);
        let cause = self.strings.intern(cause);
        if self.ring.len() >= self.ring_capacity {
            self.flush();
        }
        let index = self.staged_deployments.len() as u32;
        self.staged_deployments.push(CompactDeployment {
            seq,
            span,
            time: sim_time,
            component,
            kind,
            model_id,
            version,
            cause,
        });
        self.ring.push(Staged::Deployment(index));
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
        match &mut self.metrics.slots[id as usize] {
            MetricValue::Counter(c) => *c += delta,
            _ => debug_assert!(false, "metric kind mismatch: expected counter"),
        }
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
        // Matches the registry's insert semantics: a gauge write replaces
        // whatever value (of whatever kind) was there.
        self.metrics.slots[id as usize] = MetricValue::Gauge(value);
    }

    pub(crate) fn histogram_observe(
        &mut self,
        component: &str,
        name: &str,
        labels: &[(&str, &str)],
        bounds: Option<&[f64]>,
        value: f64,
    ) {
        let id = self.metrics.slot_id(
            &mut self.strings,
            component,
            name,
            labels,
            SlotInit::Histogram(bounds),
        );
        match &mut self.metrics.slots[id as usize] {
            MetricValue::Histogram(h) => h.observe(value),
            _ => debug_assert!(false, "metric kind mismatch: expected histogram"),
        }
    }

    /// Builds a pre-resolved key for handle-based recording: canonical label
    /// order, the same hash sequence [`MetricTable::slot_id`] computes, and
    /// interned ids. Paid once at handle creation.
    pub(crate) fn make_metric_key(
        &mut self,
        component: &str,
        name: &str,
        labels: &[(&str, &str)],
    ) -> MetricIdKey {
        let mut order: Vec<usize> = (0..labels.len()).collect();
        order.sort_unstable_by(|&a, &b| labels[a].cmp(&labels[b]));
        let mut kh = KeyHash::new();
        kh.write(component.as_bytes());
        kh.sep();
        kh.write(name.as_bytes());
        kh.sep();
        for &i in &order {
            kh.write(labels[i].0.as_bytes());
            kh.sep();
            kh.write(labels[i].1.as_bytes());
            kh.sep();
        }
        MetricIdKey {
            hash: kh.finish(),
            component: self.strings.intern(component),
            name: self.strings.intern(name),
            labels: order
                .iter()
                .map(|&i| {
                    (
                        self.strings.intern(labels[i].0),
                        self.strings.intern(labels[i].1),
                    )
                })
                .collect(),
        }
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

    #[inline]
    pub(crate) fn gauge_set_slot(&mut self, id: u32, value: f64) {
        self.metrics.slots[id as usize] = MetricValue::Gauge(value);
    }

    pub(crate) fn histogram_observe_key(
        &mut self,
        key: &MetricIdKey,
        bounds: Option<&[f64]>,
        value: f64,
    ) -> u32 {
        let id = self.metrics.slot_for_key(key, SlotInit::Histogram(bounds));
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
            parent: unstage_span(s.parent),
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

    pub(crate) fn snapshot(&mut self) -> Trace {
        self.flush();
        Trace {
            spans: self
                .store
                .spans
                .iter()
                .map(|s| self.resolve_span(s))
                .collect(),
            events: self
                .store
                .events
                .iter()
                .map(|e| self.resolve_event(e))
                .collect(),
            decisions: self
                .store
                .decisions
                .iter()
                .map(|d| self.resolve_decision(d))
                .collect(),
            deployments: self
                .store
                .deployments
                .iter()
                .map(|d| self.resolve_deployment(d))
                .collect(),
            metrics: self.metrics.to_registry(&self.strings),
        }
    }

    pub(crate) fn last_event_json(&mut self) -> Option<String> {
        self.flush();
        self.store.events.last().copied().map(|e| {
            serde_json::to_string(&self.resolve_event(&e))
                .expect("event serialization is infallible")
        })
    }

    /// Streams the flight record as chunked canonical JSON, resolving one
    /// record at a time — the full `Trace` (and the full output string) are
    /// never materialized. Concatenated chunks are byte-identical to
    /// [`crate::export::to_json`] of the snapshot.
    pub(crate) fn export_stream(&mut self, chunk_size: usize, sink: &mut dyn FnMut(&str)) {
        self.flush();
        let mut w = ChunkSink::new(chunk_size, sink);
        w.raw("{\"spans\":[");
        for (i, s) in self.store.spans.iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            w.record(&self.resolve_span(s));
        }
        w.raw("],\"events\":[");
        for (i, e) in self.store.events.iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            w.record(&self.resolve_event(e));
        }
        w.raw("],\"decisions\":[");
        for (i, d) in self.store.decisions.iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            w.record(&self.resolve_decision(d));
        }
        w.raw("],\"deployments\":[");
        for (i, d) in self.store.deployments.iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            w.record(&self.resolve_deployment(d));
        }
        w.raw("],\"metrics\":");
        // Distinct metric identities are few; materializing the sorted
        // registry here is O(metrics), not O(trace).
        w.record(&self.metrics.to_registry(&self.strings));
        w.raw("}");
        w.finish();
    }
}
