//! The `tracectl` binary end to end: every analysis over an exported trace
//! exits 0, also when a string in it escapes a character past the Basic
//! Multilingual Plane as a UTF-16 surrogate pair, and a file that is not a
//! trace exits 1 with a parse error —
//! including one nested far deeper than the JSON parser's recursion could
//! survive without its depth limit. A trace whose clock would need more SLO
//! windows than `tracectl` allows exits 1 too, instead of aborting on the
//! allocation.

use adas_obs::{DeploymentKind, Obs, Provenance};
use adas_watchtower::{analyze, default_specs, to_canonical_json};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tracectl(command: &str, path: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracectl"))
        .arg(command)
        .arg(path)
        .output()
        .expect("tracectl runs")
}

/// Writes `contents` to `name` in this suite's scratch directory.
fn input(name: &str, contents: &[u8]) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("tracectl");
    std::fs::create_dir_all(&dir).expect("creates the scratch dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("writes the input");
    path
}

/// A small poisoning incident: stage spans with a latency histogram, a
/// model fault, vetoed serves and the rollback they trigger.
fn recorded() -> Obs {
    let obs = Obs::recording();
    let job = obs.span_enter("engine.exec", "job", 0.0);
    for stage in 0..3usize {
        let t = stage as f64;
        let s = obs.span_enter_indexed("engine.exec", "stage", stage, t);
        obs.histogram_observe("engine.exec", "stage_latency_seconds", &[], 0.5);
        obs.span_exit(s, t + 0.5);
    }
    obs.event(
        "serve.gateway",
        "model_fault_injected",
        1.0,
        &[("model", "card"), ("kind", "poison"), ("scope", "version")],
    );
    for i in 0..4u64 {
        let vetoed = i % 2 == 0;
        obs.record_decision(
            "serve.gateway",
            if vetoed { "degraded_serve" } else { "serve" },
            &Provenance::new("card", 2, i),
            1.0,
            Some(4.0),
            if vetoed { "degraded" } else { "ok" },
            vetoed,
            1,
            1.5 + i as f64,
        );
    }
    obs.record_deployment(
        "serve.autonomy",
        DeploymentKind::Rollback,
        "card",
        1,
        "guard_trip_streak",
        6.0,
    );
    obs.span_exit(job, 7.0);
    obs
}

#[test]
fn every_analysis_runs_on_an_exported_trace() {
    let obs = recorded();
    let path = input("exported.trace.json", obs.export_json().as_bytes());
    for command in ["slo", "incidents", "critpath", "summary"] {
        let out = tracectl(command, &path);
        assert!(
            out.status.success(),
            "{command}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stdout.is_empty(), "{command} prints its report");
    }
    let summary = tracectl("summary", &path);
    let expected = to_canonical_json(&analyze(&obs.snapshot(), &default_specs())) + "\n";
    assert_eq!(String::from_utf8_lossy(&summary.stdout), expected);
}

#[test]
fn non_traces_exit_1_with_a_parse_error() {
    let exported = recorded().export_json();
    let depth = 200_000;
    let deep = "[".repeat(depth) + &"]".repeat(depth);
    for (name, contents) in [
        ("deep.json", deep.as_bytes()),
        ("truncated.json", &exported.as_bytes()[..exported.len() / 2]),
        ("empty.json", b"".as_slice()),
    ] {
        let out = tracectl("summary", &input(name, contents));
        assert_eq!(out.status.code(), Some(1), "{name}: exit status");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("tracectl: parse"), "{name}: {stderr}");
    }
}

#[test]
fn escaped_surrogate_pairs_in_a_trace_parse() {
    // One span name ends in 🦀, written once as the raw character and once
    // as the UTF-16 surrogate-pair escape that Python's `json.dumps` emits.
    let exported = recorded().export_json();
    let span = "\"name\":\"stage_1\"";
    assert!(exported.contains(span), "{exported}");
    let raw = input(
        "raw-pair.json",
        exported
            .replacen(span, "\"name\":\"stage_1🦀\"", 1)
            .as_bytes(),
    );
    let escaped = input(
        "escaped-pair.json",
        exported
            .replacen(span, r#""name":"stage_1\ud83e\udd80""#, 1)
            .as_bytes(),
    );
    for command in ["incidents", "critpath", "summary"] {
        let out = tracectl(command, &escaped);
        assert!(
            out.status.success(),
            "{command}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.stdout, tracectl(command, &raw).stdout, "{command}");
    }
}

/// An exported one-event trace whose clock is the JSON number `clock`.
fn clock_trace(clock: &str) -> Vec<u8> {
    let obs = Obs::recording();
    obs.event("clock", "tick", 1.0, &[]);
    let exported = obs.export_json();
    assert!(exported.contains("\"sim_time\":1.0,"), "{exported}");
    exported
        .replace("\"sim_time\":1.0,", &format!("\"sim_time\":{clock},"))
        .into_bytes()
}

#[test]
fn clocks_past_the_window_limit_exit_1() {
    // The limit is 1,000,000 complete windows per spec; the default specs'
    // narrowest window is 50 ticks, so it falls at clock 5e7.
    for clock in ["1e12", "1e308", "1e309", "50000050.0"] {
        let path = input(&format!("clock-{clock}.json"), &clock_trace(clock));
        for command in ["slo", "summary", "incidents", "critpath"] {
            let out = tracectl(command, &path);
            assert_eq!(out.status.code(), Some(1), "{command} at {clock}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("trace clock") && out.stdout.is_empty(),
                "{command} at {clock}: {stderr}"
            );
            if clock != "1e309" {
                assert!(
                    stderr.contains("spec `gateway-availability` needs"),
                    "{command} at {clock}: {stderr}"
                );
            }
        }
    }
    // Just under and exactly at the limit, every command runs. `incidents`
    // and `critpath` stand in for the whole set: the clock check precedes
    // every analysis, and `slo` there would print ~2.5M windows.
    for clock in ["49999999.0", "5e7"] {
        let path = input(&format!("clock-{clock}.json"), &clock_trace(clock));
        for command in ["incidents", "critpath"] {
            let out = tracectl(command, &path);
            assert!(
                out.status.success(),
                "{command} at {clock}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}
