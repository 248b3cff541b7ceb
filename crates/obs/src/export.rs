//! The export: canonical JSON, as one string or as chunks streamed to a
//! sink.

use crate::metrics::MetricsRegistry;
use crate::trace::Trace;
use serde::Serialize;

/// Serializes a trace to canonical JSON.
///
/// All containers iterate in deterministic order, so two traces of the same
/// seeded run serialize to byte-identical strings — the property the
/// determinism suite asserts.
pub fn to_json(trace: &Trace) -> String {
    serde_json::to_string(trace).expect("trace serialization is infallible")
}

/// Accumulates serialized output and hands it to `sink` in chunks of at
/// least `chunk_size` bytes (the final chunk may be shorter). Chunk
/// boundaries are arbitrary — only the concatenation is meaningful.
struct ChunkSink<'a> {
    buf: String,
    chunk_size: usize,
    sink: &'a mut dyn FnMut(&str),
}

impl ChunkSink<'_> {
    fn raw(&mut self, s: &str) {
        self.buf.push_str(s);
        if self.buf.len() >= self.chunk_size {
            (self.sink)(&self.buf);
            self.buf.clear();
        }
    }

    /// Writes `items` as the body of a JSON array, one record at a time.
    fn records<I>(&mut self, items: I)
    where
        I: IntoIterator,
        I::Item: Serialize,
    {
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.raw(",");
            }
            let s = serde_json::to_string(&item).expect("record serialization is infallible");
            self.raw(&s);
        }
    }
}

/// Writes the canonical trace document — the layout [`to_json`] produces
/// for a [`Trace`] — as chunks of at least `chunk_size` bytes (the final
/// chunk may be shorter). Each record serializes on its own, so the peak
/// allocation is one record plus one chunk buffer: the whole export string
/// never exists in memory. [`Trace::export_stream`] passes its vectors;
/// the recorder passes iterators that resolve one compact record at a time.
pub(crate) fn write_document<S, E, D, P>(
    chunk_size: usize,
    sink: &mut dyn FnMut(&str),
    spans: S,
    events: E,
    decisions: D,
    deployments: P,
    metrics: &MetricsRegistry,
) where
    S: IntoIterator,
    S::Item: Serialize,
    E: IntoIterator,
    E::Item: Serialize,
    D: IntoIterator,
    D::Item: Serialize,
    P: IntoIterator,
    P::Item: Serialize,
{
    let mut w = ChunkSink {
        buf: String::with_capacity(chunk_size.clamp(1, 1 << 20) * 2),
        chunk_size: chunk_size.max(1),
        sink,
    };
    w.raw("{\"spans\":[");
    w.records(spans);
    w.raw("],\"events\":[");
    w.records(events);
    w.raw("],\"decisions\":[");
    w.records(decisions);
    w.raw("],\"deployments\":[");
    w.records(deployments);
    w.raw("],\"metrics\":[");
    w.records(&metrics.metrics);
    w.raw("]}");
    if !w.buf.is_empty() {
        (w.sink)(&w.buf);
    }
}
