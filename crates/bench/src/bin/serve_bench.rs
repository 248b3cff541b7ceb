//! Throughput and overhead baseline for the model-serving gateway.
//!
//! Serves one synthetic inference-heavy model three ways and records the
//! results into `BENCH_serve.json` at the repo root:
//!
//! * **direct** — single-threaded calls straight into the model function
//!   (the pre-gateway baseline every consumer used to take).
//! * **disabled gateway** — [`GatewayConfig::disabled`] pass-through. The
//!   contract this tracks: the always-on gateway envelope must cost < 5%
//!   versus direct calls.
//! * **canary overhead** — single-threaded serving with a 20% canary
//!   candidate staged vs. the same gateway without one. The routing layer
//!   (arrival ticket + candidate snapshot read) must cost < 5%.

use std::sync::Arc;

use adas_bench::harness::{Config, Gate, Report};
use adas_obs::Obs;
use adas_serve::{DeployPhase, FnModel, Gateway, GatewayConfig, ModelHandle, ServableModel};

/// Feature-vector width.
const FEATURES: usize = 8;
/// Distinct feature vectors in the workload.
const UNIQUE: usize = 2048;
/// How many times each distinct vector recurs (recurring-job workloads of
/// the paper: the same templates arrive again and again).
const REPEATS: usize = 4;
/// Synthetic per-row inference cost (fused multiply-add chain length) —
/// roughly a small gradient-boosting forest's worth of work.
const WORK: usize = 4000;

/// Deterministic synthetic model: a serial FMA chain over the features.
fn infer(features: &[f64]) -> f64 {
    let mut acc = 1.0f64;
    for i in 0..WORK {
        acc = acc.mul_add(0.999_999, features[i % FEATURES] * 1e-6);
    }
    acc
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unique_features(seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed;
    (0..UNIQUE)
        .map(|_| {
            (0..FEATURES)
                .map(|_| (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64)
                .collect()
        })
        .collect()
}

fn gateway_with(config: GatewayConfig) -> (Gateway, ModelHandle) {
    let gateway = Gateway::with_obs(config, Obs::disabled());
    let handle = gateway.register("bench/synthetic", |f: &[f64]| f[0]);
    gateway
        .publish(handle, Arc::new(FnModel(|f: &[f64]| infer(f))), 0.0)
        .expect("freshly registered handle");
    (gateway, handle)
}

fn main() {
    let features = unique_features(0x5_E27E_BE7C);
    // Recurring arrival order: a full pass over the unique set, repeated.
    let order: Vec<usize> = (0..REPEATS).flat_map(|_| 0..UNIQUE).collect();
    let total = order.len();
    // Serves `rows` one request at a time on the caller thread.
    let serve_each = |(gateway, handle): &(Gateway, ModelHandle), rows: &[usize]| -> f64 {
        rows.iter()
            .enumerate()
            .map(|(t, &i)| {
                let p = gateway.predict(*handle, &features[i], t as f64);
                p.expect("registered handle").value
            })
            .sum()
    };

    // The direct baseline calls the same boxed model object the gateway
    // serves, so the comparison isolates the gateway envelope rather than
    // inlining differences in the model body.
    let model: Arc<dyn ServableModel> = Arc::new(FnModel(|f: &[f64]| infer(f)));
    let disabled = gateway_with(GatewayConfig::disabled());

    // Canary routing overhead: the same single-threaded serve loop with and
    // without a 20% canary candidate staged. The candidate runs the
    // identical model, so the delta is purely the routing machinery (ticket
    // + candidate read).
    let canary_base = gateway_with(GatewayConfig::standard());
    let canary = gateway_with(GatewayConfig::standard());
    canary
        .0
        .stage_candidate(
            canary.1,
            Arc::new(FnModel(|f: &[f64]| infer(f))),
            0.0,
            DeployPhase::Canary,
            20,
            "bench",
            0.0,
        )
        .expect("registered handle");

    let mut report = Report::new("serve");
    let t = report.run(
        5,
        vec![
            Config::new("direct", |lap| {
                lap.time(|| {
                    order
                        .iter()
                        .map(|&i| model.predict(&features[i]))
                        .sum::<f64>()
                })
            })
            .rate(total, "requests"),
            Config::new("disabled", |lap| lap.time(|| serve_each(&disabled, &order)))
                .rate(total, "requests"),
            Config::new("canary_baseline", |lap| {
                lap.time(|| serve_each(&canary_base, &order))
            })
            .rate(total, "requests"),
            Config::new("canary", |lap| lap.time(|| serve_each(&canary, &order)))
                .rate(total, "requests"),
        ],
    );
    report.fact("unique_requests", UNIQUE);
    report.fact("repeats", REPEATS);
    report.gate(Gate::overhead("disabled_overhead", &t[1], &t[0], 0.05));
    report.gate(Gate::overhead("canary_overhead", &t[3], &t[2], 0.05));
    report.finish();
}
