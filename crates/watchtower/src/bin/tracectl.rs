//! `tracectl` — watchtower analyses over an exported trace JSON file.
//!
//! ```text
//! tracectl slo <trace.json>                  SLO windows and burn alerts
//! tracectl incidents <trace.json>            reconstructed incidents
//! tracectl critpath <trace.json>             critical-path profile
//! tracectl critpath <trace.json> --collapsed collapsed stacks (flamegraph)
//! tracectl summary <trace.json>              all three, one JSON document
//! ```
//!
//! Traces come from [`Obs::export_json`] or [`Obs::export_stream`]; the
//! analyses use [`adas_watchtower::default_specs`]. All JSON output is
//! canonical — byte-identical for byte-identical traces. A file that is not
//! a trace, or a trace whose clock would need more than [`MAX_WINDOWS`]
//! SLO windows for some spec, exits 1 with the reason on stderr.
//!
//! [`Obs::export_json`]: adas_obs::Obs::export_json
//! [`Obs::export_stream`]: adas_obs::Obs::export_stream

use adas_obs::Trace;
use adas_simkern::Window;
use adas_watchtower::{
    analyze, collapsed_stacks, critical_path, default_specs, evaluate, reconstruct,
    to_canonical_json, SloSpec,
};
use std::process::ExitCode;

const USAGE: &str = "usage: tracectl <slo|incidents|critpath|summary> <trace.json> [--collapsed]";

/// Most complete SLO windows a trace's clock may span for any spec. `slo`
/// and `summary` report every complete window up to the clock, empty ones
/// included, so a one-event trace at tick `1e12` would ask for 2·10¹⁰
/// 50-tick windows and abort on the allocation. The largest clock a trace
/// from this repo reaches is a traced `drift` pass of the lifecycle
/// benchmark, whose wall-clock spans end near 1.9·10⁶ µs on a shared
/// 2-vCPU Xeon host (~38k 50-tick windows; 6.3·10⁶ µs before incremental
/// snapshots); the limit sits at 5·10⁷ ticks for those specs.
const MAX_WINDOWS: u64 = 1_000_000;

fn load_trace(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("tracectl: read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("tracectl: parse {path}: {e:?}"))
}

/// Rejects a trace whose clock — its latest record time, as the SLO engine
/// reads it — is not finite or spans more than [`MAX_WINDOWS`] complete
/// windows of some spec.
fn check_clock(path: &str, trace: &Trace, specs: &[SloSpec]) -> Result<(), String> {
    let clock = (trace.spans.iter().map(|s| s.end))
        .chain(trace.events.iter().map(|e| e.sim_time))
        .chain(trace.decisions.iter().map(|d| d.sim_time))
        .chain(trace.deployments.iter().map(|d| d.sim_time))
        .fold(0.0f64, f64::max);
    if !clock.is_finite() {
        return Err(format!(
            "tracectl: {path}: trace clock {clock} is not finite"
        ));
    }
    for spec in specs {
        if Window::new(spec.window_ticks).complete_before(clock) > MAX_WINDOWS {
            // Counted in f64: the `u64` count saturates far below 1e308.
            let windows = (clock / spec.window_ticks).floor();
            return Err(format!(
                "tracectl: {path}: spec `{}` needs {windows:e} windows of {} ticks to reach \
                 the trace clock {clock:e}, over the limit of {MAX_WINDOWS}",
                spec.name, spec.window_ticks
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let collapsed = args.iter().any(|a| a == "--collapsed");
    let mut positional = args.iter().filter(|a| !a.starts_with("--"));
    let (command, path) = match (positional.next(), positional.next()) {
        (Some(c), Some(p)) => (c.as_str(), p.as_str()),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let specs = default_specs();
    let trace = match load_trace(path).and_then(|t| check_clock(path, &t, &specs).map(|()| t)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match command {
        "slo" => println!("{}", to_canonical_json(&evaluate(&trace, &specs))),
        "incidents" => println!("{}", to_canonical_json(&reconstruct(&trace))),
        "critpath" if collapsed => print!("{}", collapsed_stacks(&trace)),
        "critpath" => println!("{}", to_canonical_json(&critical_path(&trace))),
        "summary" => println!("{}", to_canonical_json(&analyze(&trace, &specs))),
        other => {
            eprintln!("tracectl: unknown command `{other}`\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
