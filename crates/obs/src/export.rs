//! Exporters: canonical JSON (whole-string and chunked streaming) and
//! Prometheus text exposition.

use crate::metrics::{MetricKey, MetricValue, MetricsRegistry};
use crate::trace::Trace;
use serde::Serialize;
use std::fmt::Write as _;

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

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize(k), v.replace('"', "\\\"")))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Renders the registry in the Prometheus text exposition format.
///
/// Metric names are `<component>_<name>` with non-alphanumerics folded to
/// `_`; histograms expand to `_bucket{le=…}` / `_sum` / `_count` series
/// with a trailing `+Inf` bucket, exactly as scrapers expect.
pub fn to_prometheus(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (key, value) in &registry.metrics {
        let MetricKey {
            component,
            name,
            labels,
        } = key;
        let base = format!("{}_{}", sanitize(component), sanitize(name));
        match value {
            MetricValue::Counter(c) => {
                let _ = writeln!(out, "# TYPE {base} counter");
                let _ = writeln!(out, "{base}{} {c}", render_labels(labels, None));
            }
            MetricValue::Gauge(g) => {
                let _ = writeln!(out, "# TYPE {base} gauge");
                let _ = writeln!(out, "{base}{} {g}", render_labels(labels, None));
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {base} histogram");
                let mut cumulative = 0u64;
                for (bound, count) in h.bounds.iter().zip(&h.counts) {
                    cumulative += count;
                    let _ = writeln!(
                        out,
                        "{base}_bucket{} {cumulative}",
                        render_labels(labels, Some(("le", format!("{bound}"))))
                    );
                }
                let _ = writeln!(
                    out,
                    "{base}_bucket{} {}",
                    render_labels(labels, Some(("le", "+Inf".to_string()))),
                    h.count
                );
                let _ = writeln!(out, "{base}_sum{} {}", render_labels(labels, None), h.sum);
                let _ = writeln!(
                    out,
                    "{base}_count{} {}",
                    render_labels(labels, None),
                    h.count
                );
            }
        }
    }
    out
}

/// Renders a whole trace in the Prometheus text exposition format: the
/// metrics registry (via [`to_prometheus`]) plus counters synthesized from
/// the trace's typed records — `deployments_total{model,kind}` from
/// deployment records and `autonomy_incidents_total{model,cause}` from
/// `autonomy_incident` decisions — so a scraper sees deployment churn and
/// incident pressure without parsing the JSON export.
///
/// Synthesized series are grouped in sorted `(model, label)` order, so the
/// output is deterministic for a deterministic trace.
pub fn to_prometheus_trace(trace: &Trace) -> String {
    let mut out = to_prometheus(&trace.metrics);
    let mut deployments: std::collections::BTreeMap<(String, String), u64> =
        std::collections::BTreeMap::new();
    for d in &trace.deployments {
        *deployments
            .entry((d.model_id.clone(), d.kind.name().to_string()))
            .or_insert(0) += 1;
    }
    if !deployments.is_empty() {
        let _ = writeln!(out, "# TYPE deployments_total counter");
        for ((model, kind), count) in &deployments {
            let _ = writeln!(
                out,
                "deployments_total{{model=\"{model}\",kind=\"{kind}\"}} {count}"
            );
        }
    }
    let mut incidents: std::collections::BTreeMap<(String, String), u64> =
        std::collections::BTreeMap::new();
    for d in trace
        .decisions
        .iter()
        .filter(|d| d.decision == "autonomy_incident")
    {
        *incidents
            .entry((d.model_id.clone(), d.verdict.clone()))
            .or_insert(0) += 1;
    }
    if !incidents.is_empty() {
        let _ = writeln!(out, "# TYPE autonomy_incidents_total counter");
        for ((model, cause), count) in &incidents {
            let _ = writeln!(
                out,
                "autonomy_incidents_total{{model=\"{model}\",cause=\"{cause}\"}} {count}"
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricKey;

    #[test]
    fn prometheus_renders_all_kinds() {
        let mut reg = MetricsRegistry::default();
        reg.counter_add(MetricKey::new("engine.exec", "restarts", &[]), 3);
        reg.gauge_set(
            MetricKey::new("engine.exec", "hotspot_peak", &[("machine", "0")]),
            12.5,
        );
        reg.histogram_observe(
            MetricKey::new("engine.exec", "stage_latency", &[]),
            &[1.0, 10.0],
            0.5,
        );
        let text = to_prometheus(&reg);
        assert!(text.contains("# TYPE engine_exec_restarts counter"));
        assert!(text.contains("engine_exec_restarts 3"));
        assert!(text.contains("engine_exec_hotspot_peak{machine=\"0\"} 12.5"));
        assert!(text.contains("engine_exec_stage_latency_bucket{le=\"1\"} 1"));
        assert!(text.contains("engine_exec_stage_latency_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("engine_exec_stage_latency_count 1"));
    }

    #[test]
    fn prometheus_trace_output_is_pinned() {
        use crate::flight::{DecisionRecord, DeploymentKind, DeploymentRecord};
        let mut reg = MetricsRegistry::default();
        reg.counter_add(
            MetricKey::new("serve.gateway", "requests", &[("model", "card")]),
            4,
        );
        for v in [0.5, 3.0] {
            reg.histogram_observe(
                MetricKey::new("serve.gateway", "latency", &[]),
                &[1.0, 10.0],
                v,
            );
        }
        let trace = Trace {
            spans: vec![],
            events: vec![],
            decisions: vec![DecisionRecord {
                seq: 5,
                span: None,
                sim_time: 3.0,
                component: "serve.autonomy".into(),
                decision: "autonomy_incident".into(),
                model_id: "card".into(),
                model_version: 2,
                features_digest: 0,
                predicted: 12.0,
                observed: None,
                verdict: "slo_burn".into(),
                vetoed: true,
                feedback_latency_ticks: 0,
            }],
            deployments: vec![
                DeploymentRecord {
                    seq: 1,
                    span: None,
                    sim_time: 0.0,
                    component: "serve.gateway".into(),
                    kind: DeploymentKind::Publish,
                    model_id: "card".into(),
                    version: 1,
                    cause: "bootstrap".into(),
                },
                DeploymentRecord {
                    seq: 9,
                    span: None,
                    sim_time: 4.0,
                    component: "serve.gateway".into(),
                    kind: DeploymentKind::Rollback,
                    model_id: "card".into(),
                    version: 2,
                    cause: "slo_burn".into(),
                },
                DeploymentRecord {
                    seq: 11,
                    span: None,
                    sim_time: 5.0,
                    component: "serve.gateway".into(),
                    kind: DeploymentKind::Publish,
                    model_id: "cost".into(),
                    version: 1,
                    cause: "bootstrap".into(),
                },
            ],
            metrics: reg,
        };
        // The full exposition, byte for byte: conformant cumulative
        // histogram series plus the synthesized deployment/incident
        // counters in sorted group order.
        let expected = "# TYPE serve_gateway_latency histogram\n\
            serve_gateway_latency_bucket{le=\"1\"} 1\n\
            serve_gateway_latency_bucket{le=\"10\"} 2\n\
            serve_gateway_latency_bucket{le=\"+Inf\"} 2\n\
            serve_gateway_latency_sum 3.5\n\
            serve_gateway_latency_count 2\n\
            # TYPE serve_gateway_requests counter\n\
            serve_gateway_requests{model=\"card\"} 4\n\
            # TYPE deployments_total counter\n\
            deployments_total{model=\"card\",kind=\"publish\"} 1\n\
            deployments_total{model=\"card\",kind=\"rollback\"} 1\n\
            deployments_total{model=\"cost\",kind=\"publish\"} 1\n\
            # TYPE autonomy_incidents_total counter\n\
            autonomy_incidents_total{model=\"card\",cause=\"slo_burn\"} 1\n";
        assert_eq!(to_prometheus_trace(&trace), expected);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut reg = MetricsRegistry::default();
        let key = || MetricKey::new("c", "h", &[]);
        for v in [0.5, 0.6, 5.0, 50.0] {
            reg.histogram_observe(key(), &[1.0, 10.0], v);
        }
        let text = to_prometheus(&reg);
        assert!(text.contains("c_h_bucket{le=\"1\"} 2"));
        assert!(text.contains("c_h_bucket{le=\"10\"} 3"));
        assert!(text.contains("c_h_bucket{le=\"+Inf\"} 4"));
    }
}
