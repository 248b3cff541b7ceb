//! Streaming trace export: chunked canonical JSON whose concatenation is
//! byte-identical to the whole-string exporter, so fleet-scale runs can
//! ship their flight record without ever holding it in memory.

use autonomous_data_services::engine::cost::CostModel;
use autonomous_data_services::engine::exec::{ClusterConfig, SimOptions, Simulator};
use autonomous_data_services::engine::physical::StageDag;
use autonomous_data_services::obs::{DeploymentKind, Obs, Provenance, Trace};
use autonomous_data_services::workload::gen::{GeneratorConfig, WorkloadGenerator};

fn collect_stream(obs: &Obs, chunk_size: usize) -> (String, usize) {
    let mut out = String::new();
    let mut chunks = 0usize;
    obs.export_stream(chunk_size, |chunk| {
        assert!(!chunk.is_empty(), "exporter must not emit empty chunks");
        out.push_str(chunk);
        chunks += 1;
    });
    (out, chunks)
}

/// A recorder with every record kind the trace schema has.
fn populated_obs() -> Obs {
    let obs = Obs::recording();
    let root = obs.span_enter("stream", "root", 0.0);
    obs.event("stream", "tick", 0.1, &[("k", "v"), ("n", "2")]);
    obs.counter_add("stream", "ticks", &[("shard", "0")], 3);
    obs.gauge_set("stream", "depth", &[], 1.5);
    obs.histogram_observe("stream", "lat", &[], 0.004);
    obs.record_decision(
        "stream",
        "route",
        &Provenance::new("m", 1, 0xbeef),
        1.0,
        Some(1.25),
        "allow",
        false,
        2,
        0.2,
    );
    obs.record_deployment("stream", DeploymentKind::Publish, "m", 1, "manual", 0.3);
    obs.span_exit(root, 0.5);
    obs
}

#[test]
fn concatenated_chunks_match_export_json_and_parse() {
    let obs = populated_obs();
    let whole = obs.export_json();
    for chunk_size in [1usize, 2, 7, 32, 1024, 1 << 22] {
        let (streamed, chunks) = collect_stream(&obs, chunk_size);
        assert_eq!(streamed, whole, "chunk_size {chunk_size}");
        if chunk_size == 1 {
            assert!(chunks > 1, "a 1-byte chunk size must split the export");
        }
        let parsed: Trace = serde_json::from_str(&streamed).expect("streamed JSON parses");
        assert_eq!(parsed, obs.snapshot());
    }
}

#[test]
fn empty_trace_streams_as_canonical_empty_document() {
    for obs in [Obs::recording(), Obs::disabled()] {
        let (streamed, _) = collect_stream(&obs, 16);
        assert_eq!(streamed, obs.export_json());
        let parsed: Trace = serde_json::from_str(&streamed).expect("parses");
        assert_eq!(parsed, Trace::default());
    }
}

#[test]
fn single_event_trace_streams_byte_identically() {
    let obs = Obs::recording();
    obs.event("stream", "only", 0.0, &[]);
    let (streamed, _) = collect_stream(&obs, 8);
    assert_eq!(streamed, obs.export_json());
    let parsed: Trace = serde_json::from_str(&streamed).expect("parses");
    assert_eq!(parsed.events.len(), 1);
    assert_eq!(parsed.events[0].name, "only");
}

#[test]
fn trace_export_stream_matches_obs_export_stream() {
    let obs = populated_obs();
    let trace = obs.snapshot();
    for chunk_size in [3usize, 64, 4096] {
        let mut from_trace = String::new();
        trace.export_stream(chunk_size, |chunk| from_trace.push_str(chunk));
        let (from_obs, _) = collect_stream(&obs, chunk_size);
        assert_eq!(from_trace, from_obs);
    }
}

#[test]
fn streaming_a_real_workload_trace_round_trips() {
    let w = WorkloadGenerator::new(GeneratorConfig {
        days: 1,
        jobs_per_day: 10,
        ..Default::default()
    })
    .expect("valid")
    .generate()
    .expect("generates");
    let cm = CostModel::default();
    let obs = Obs::recording();
    let sim = Simulator::with_obs(ClusterConfig::default(), obs.clone()).expect("valid cluster");
    for job in w.trace.jobs().iter().take(6) {
        let dag = StageDag::compile(&job.plan, &w.catalog, &cm).expect("compiles");
        sim.run(&dag, &SimOptions::default()).expect("simulates");
    }
    let (streamed, chunks) = collect_stream(&obs, 2048);
    assert_eq!(streamed, obs.export_json());
    assert!(chunks > 1, "a real trace must span multiple 2KiB chunks");
    let parsed: Trace = serde_json::from_str(&streamed).expect("parses");
    assert!(!parsed.spans.is_empty());
    assert!(!parsed.metrics.metrics.is_empty());
}
