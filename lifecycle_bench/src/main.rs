//! Job-lifecycle benchmark: SQL text through the autonomy loop.
//!
//! ```text
//! cargo run --release --offline --manifest-path lifecycle_bench/Cargo.toml -- \
//!     --workload <recurring|adhoc|drift> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats *passes* until `--seconds` is spent. A pass replays every
//! tenant in turn: set-up (train, publish, supervise, construct, warm-up
//! replay of the history days) followed by the timed replay of the
//! remaining jobs, each job submitted when the previous job's feedback step
//! returns. Every pass of a run makes the same decisions, which the digest
//! check enforces.
//!
//! `--trace 0` runs untraced passes only and reports the end-to-end
//! metrics. `--trace 1` alternates untraced and traced passes, reports the
//! per-layer metrics from the traced ones, checks that both kinds made
//! byte-identical decisions and that the layers' self times close on the
//! job envelope, and writes the last traced pass's spans to
//! `lifecycle_bench/out/`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

mod calibrate;
mod pipeline;
mod trace;
mod workload;

use calibrate::Calibrator;
use pipeline::{references, Counts, Reference, Stack};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};
use trace::{Tracer, JOB, LAYERS};
use workload::{Inputs, Workload};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 7;
/// Seed held out while the benchmark was written, for checking claims.
const HELD_OUT_SEED: u64 = 21;
/// Untraced passes a `--trace 0` run makes at least.
const MIN_PASSES: usize = 3;
/// Relative tolerance within which per-layer self times plus the
/// unattributed share must sum to the traced job envelope.
const ATTRIBUTION_TOLERANCE: f64 = 1e-6;
/// Where traced runs write their spans, relative to the checkout root.
const TRACE_DIR: &str = "lifecycle_bench/out";

const USAGE: &str = "usage: lifecycle-bench --workload <recurring|adhoc|drift> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10;
        let mut trace = false;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?.max(1),
                "--trace" => {
                    trace = match number()? {
                        0 => false,
                        1 => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// Layer self times of one traced pass, in µs over its timed jobs.
struct Layers {
    self_us: BTreeMap<String, f64>,
    envelope_us: f64,
    obs_snapshot_max_us: f64,
}

impl Layers {
    fn from_trace(trace: &adas_obs::Trace) -> Self {
        let report = adas_watchtower::critical_path(trace);
        let span_us = |component: &'static str| {
            trace
                .spans
                .iter()
                .filter(move |s| s.component == component)
                .map(|s| s.duration())
        };
        Self {
            self_us: report
                .self_time
                .into_iter()
                .map(|c| (c.component, c.self_ticks))
                .collect(),
            envelope_us: span_us(JOB).sum(),
            obs_snapshot_max_us: span_us("obs").fold(0.0, f64::max),
        }
    }

    fn self_us(&self, component: &str) -> f64 {
        self.self_us.get(component).copied().unwrap_or(0.0)
    }

    /// Relative gap between the job envelope and the layers' self times
    /// plus the job spans' own (unattributed) time. Any span outside the
    /// known layers counts against closure.
    fn closure_error(&self) -> f64 {
        let known = |c: &str| c == JOB || LAYERS.contains(&c);
        let (attributed, stray) = self
            .self_us
            .iter()
            .filter(|(c, _)| c.as_str() != "(untracked)")
            .fold(
                (0.0, 0.0),
                |(a, s), (c, v)| {
                    if known(c) {
                        (a + v, s)
                    } else {
                        (a, s + v)
                    }
                },
            );
        ((attributed - self.envelope_us).abs() + stray) / self.envelope_us.max(1e-9)
    }
}

/// One pass: every tenant's set-up, then its timed jobs.
struct Pass {
    traced: bool,
    setup_s: f64,
    timed_s: f64,
    p50_us: f64,
    p99_us: f64,
    samples: usize,
    /// Median calibration-kernel time during the pass, seconds.
    cal_s: f64,
    counts: Counts,
    digests: Vec<u64>,
    layers: Option<Layers>,
}

impl Pass {
    /// Factor that rescales this pass's wall times to the reference host
    /// speed (see `calibrate`).
    fn scale(&self) -> f64 {
        calibrate::REFERENCE_S / self.cal_s
    }

    /// Timed jobs per second at the reference host speed.
    fn jobs_per_s(&self) -> f64 {
        self.counts.jobs as f64 / (self.timed_s * self.scale())
    }
}

fn run_pass(
    inputs: &Inputs,
    references: &[Vec<Reference>],
    workload: Workload,
    tracer: Rc<Tracer>,
    calibrator: &Calibrator,
) -> Result<Pass, String> {
    let mut cal = Vec::with_capacity(2 * inputs.tenants.len());
    let mut setup_s = 0.0;
    let mut timed_s = 0.0;
    let mut job_us = Vec::with_capacity(inputs.timed());
    let mut counts = Counts::default();
    let mut digests = Vec::with_capacity(inputs.tenants.len());
    let mut traced = false;
    for (tenant, reference) in inputs.tenants.iter().zip(references) {
        let start = Instant::now();
        let mut stack = Stack::build(tenant, reference, workload, tracer.clone())?;
        stack.warm_up()?;
        setup_s += start.elapsed().as_secs_f64();
        cal.push(calibrator.run());
        tracer.arm();
        let start = Instant::now();
        job_us.extend(stack.run_timed());
        timed_s += start.elapsed().as_secs_f64();
        cal.push(calibrator.run());
        traced = tracer.armed();
        tracer.disarm();
        stack.finish_counts();
        counts.add(&stack.counts);
        digests.push(stack.digest()?);
    }
    Ok(Pass {
        traced,
        setup_s,
        timed_s,
        p50_us: quantile(&mut job_us, 0.5),
        p99_us: quantile(&mut job_us, 0.99),
        samples: job_us.len(),
        cal_s: median(&mut cal),
        counts,
        digests,
        layers: traced.then(|| Layers::from_trace(&tracer.snapshot())),
    })
}

fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile; sorts `values` in place.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Which end-to-end metric each layer's metrics should move, and on which
/// workloads the layer is heavy / light. Claims about a layer cite these
/// names.
const LAYER_MAP: &[(&str, &str, &str)] = &[
    ("sql", "jobs_per_s, job_p50_us", "adhoc / recurring"),
    ("engine.rules", "jobs_per_s", "recurring / adhoc"),
    ("learned", "jobs_per_s", "recurring / adhoc"),
    (
        "serve",
        "jobs_per_s; sim_*_ratio on drift",
        "recurring, drift / adhoc",
    ),
    (
        "engine.physical",
        "jobs_per_s, job_p99_us",
        "adhoc / recurring",
    ),
    ("engine.exec", "jobs_per_s", "recurring, drift / adhoc"),
    (
        "faultsim",
        "jobs_per_s, sim_latency_ratio",
        "drift / others",
    ),
    ("serve.autonomy", "job_p99_us", "drift, recurring / adhoc"),
    ("obs", "job_p99_us, jobs_per_s", "drift only"),
    ("watchtower", "job_p99_us", "drift only"),
];

/// The `LAYER_MAP` row of a metric: its longest matching layer prefix.
fn map_row(name: &str) -> Option<&'static (&'static str, &'static str, &'static str)> {
    LAYER_MAP
        .iter()
        .filter(|(layer, _, _)| {
            name.strip_prefix(layer)
                .is_some_and(|rest| rest.starts_with('.'))
        })
        .max_by_key(|(layer, _, _)| layer.len())
}

fn end_to_end(passes: &[Pass], peak_rss: f64) -> Vec<Metric> {
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let over =
        |f: &dyn Fn(&Pass) -> f64| median(&mut untraced.iter().map(|p| f(p)).collect::<Vec<_>>());
    let mut setup: Vec<f64> = passes.iter().map(|p| p.setup_s * p.scale()).collect();
    let attempted: u64 = passes.iter().map(|p| p.counts.jobs).sum();
    let failed: u64 = passes.iter().map(|p| p.counts.failed).sum();
    let c = &passes[0].counts;
    let jobs = c.jobs as f64;
    vec![
        metric("jobs_per_s", over(&|p| p.jobs_per_s()), "jobs/s"),
        metric("job_p50_us", over(&|p| p.p50_us * p.scale()), "us"),
        metric("job_p99_us", over(&|p| p.p99_us * p.scale()), "us"),
        metric("setup_s", median(&mut setup), "s"),
        metric("peak_rss_mb", peak_rss, "MiB"),
        metric(
            "job_success_rate",
            1.0 - ratio(failed as f64, attempted as f64),
            "fraction",
        ),
        metric(
            "sim_latency_ratio",
            ratio(c.ln_latency_ratio, jobs).exp(),
            "ratio",
        ),
        metric("sim_cpu_ratio", ratio(c.ln_cpu_ratio, jobs).exp(), "ratio"),
    ]
}

/// Workload properties and deterministic counts; any pass reports the same.
fn properties(pass: &Pass, workload: Workload, tenants: usize) -> Vec<Metric> {
    let c = &pass.counts;
    let jobs = c.jobs as f64;
    let requests = c.requests as f64;
    let a = &c.actions;
    vec![
        metric("workload.tenants", tenants as f64, "count"),
        metric("workload.timed_jobs", jobs, "count"),
        metric(
            "workload.catalog_tables",
            ratio(c.catalog_tables as f64, tenants as f64),
            "count/tenant",
        ),
        metric(
            "workload.recorder_on",
            f64::from(u8::from(workload.recorder())),
            "bool",
        ),
        metric("workload.models_faulted", c.models_faulted as f64, "count"),
        metric("job_error_rate", ratio(c.failed as f64, jobs), "fraction"),
        metric("sim_latency_s_mean", ratio(c.sim_latency_s, jobs), "sim_s"),
        metric("sim_cpu_s_per_job", ratio(c.sim_cpu_s, jobs), "sim_cpu_s"),
        metric(
            "sql.cache_hit_ratio",
            ratio(c.sql_hits as f64, (c.sql_hits + c.sql_misses) as f64),
            "ratio",
        ),
        metric(
            "engine.physical.stages_per_job",
            ratio(c.stages as f64, jobs),
            "count/job",
        ),
        metric(
            "engine.exec.tasks_per_job",
            ratio(c.tasks as f64, jobs),
            "count/job",
        ),
        metric(
            "faultsim.attempts_per_job",
            ratio(c.attempts as f64, jobs),
            "count/job",
        ),
        metric(
            "faultsim.wasted_attempt_share",
            ratio(c.attempts as f64 - jobs, c.attempts as f64),
            "ratio",
        ),
        metric(
            "faultsim.faults_per_job",
            ratio(c.faults as f64, jobs),
            "count/job",
        ),
        metric("serve.requests_per_job", ratio(requests, jobs), "count/job"),
        metric(
            "serve.model_calls_per_job",
            ratio(c.model_calls as f64, jobs),
            "count/job",
        ),
        metric(
            "serve.cache_hit_ratio",
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
            "ratio",
        ),
        metric(
            "serve.fallback_ratio",
            ratio(c.fallbacks as f64, requests),
            "ratio",
        ),
        metric(
            "serve.stale_ratio",
            ratio(c.stale as f64, requests),
            "ratio",
        ),
        metric(
            "serve.canary_share",
            ratio(c.canary_routed as f64, requests),
            "ratio",
        ),
        metric(
            "serve.shadow_per_job",
            ratio(c.shadow_serves as f64, jobs),
            "count/job",
        ),
        metric("serve.shed", c.shed as f64, "count"),
        metric(
            "serve.autonomy.observations_per_job",
            ratio(c.observations as f64, jobs),
            "count/job",
        ),
        metric("serve.autonomy.retrains", c.retrains as f64, "count"),
        metric(
            "serve.autonomy.retrains_scheduled",
            a.retrain_scheduled as f64,
            "count",
        ),
        metric("serve.autonomy.stagings", a.staged as f64, "count"),
        metric("serve.autonomy.canaries", a.canary as f64, "count"),
        metric("serve.autonomy.promotions", a.promoted as f64, "count"),
        metric("serve.autonomy.demotions", a.demoted as f64, "count"),
        metric("serve.autonomy.rollbacks", a.rolled_back as f64, "count"),
        metric("obs.records", c.obs_records as f64, "count"),
        metric("watchtower.windows", c.windows as f64, "count"),
        metric("watchtower.alerts", c.alerts as f64, "count"),
    ]
}

/// Per-layer metrics from the traced passes (timings are medians over
/// them), plus the workload properties.
fn per_layer(passes: &[Pass], workload: Workload, tenants: usize) -> Result<Vec<Metric>, String> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let first = traced.first().ok_or("no traced pass ran")?;
    let c = &first.counts;
    let jobs = c.jobs as f64;
    let windows = c.windows as f64;
    let timing = |f: &dyn Fn(&Pass, &Layers) -> f64| {
        let mut values: Vec<f64> = traced
            .iter()
            .filter_map(|p| p.layers.as_ref().map(|l| f(p, l)))
            .collect();
        median(&mut values)
    };
    let per_job = |component: &str| timing(&|p, l| l.self_us(component) * p.scale() / jobs);
    let per_window =
        |component: &str| timing(&|p, l| ratio(l.self_us(component) * p.scale(), windows));
    let jps = |traced: bool| {
        let mut v: Vec<f64> = passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(Pass::jobs_per_s)
            .collect();
        median(&mut v)
    };
    let mut out = vec![
        metric("sql.self_us_per_job", per_job("sql"), "us/job"),
        metric(
            "engine.rules.self_us_per_job",
            per_job("engine.rules"),
            "us/job",
        ),
        metric(
            "engine.rules.costings_per_job",
            ratio(c.costings as f64, jobs),
            "count/job",
        ),
        metric(
            "engine.rules.fired_per_costing",
            ratio(c.rules_fired as f64, c.costings as f64),
            "ratio",
        ),
        metric("learned.annotate_us_per_job", per_job("learned"), "us/job"),
        metric(
            "workload.gateway_costing_share",
            ratio(c.requests as f64, c.costings as f64),
            "ratio",
        ),
        metric(
            "engine.physical.self_us_per_job",
            per_job("engine.physical"),
            "us/job",
        ),
        metric(
            "engine.exec.self_us_per_job",
            per_job("engine.exec"),
            "us/job",
        ),
        metric(
            "serve.autonomy.self_us_per_job",
            per_job("serve.autonomy"),
            "us/job",
        ),
        metric(
            "serve.autonomy.retrain_us_per_job",
            per_job("serve.autonomy.retrain"),
            "us/job",
        ),
        metric("obs.snapshot_us_per_window", per_window("obs"), "us/window"),
        metric(
            "obs.snapshot_us_max",
            timing(&|p, l| l.obs_snapshot_max_us * p.scale()),
            "us",
        ),
        metric(
            "watchtower.ingest_us_per_window",
            per_window("watchtower"),
            "us/window",
        ),
        metric(
            "trace.overhead_share",
            1.0 - ratio(jps(true), jps(false)),
            "ratio",
        ),
        metric(
            "trace.unattributed_share",
            timing(&|_, l| ratio(l.self_us(JOB), l.envelope_us)),
            "ratio",
        ),
    ];
    out.extend(properties(first, workload, tenants));
    out.sort_by_key(|m| m.name);
    Ok(out)
}

fn print_table(title: &str, metrics: &[Metric], with_map: bool) {
    println!("{title}");
    for m in metrics {
        match map_row(m.name).filter(|_| with_map) {
            Some((_, moves, heavy)) => println!(
                "  {:<38} {:>14.4} {:<10} moves {:<34} heavy / light: {}",
                m.name, m.value, m.unit, moves, heavy
            ),
            None => println!("  {:<38} {:>14.4} {}", m.name, m.value, m.unit),
        }
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn export_spans(tracer: &Tracer, workload: Workload, seed: u64) -> Result<String, String> {
    use std::io::Write;
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("creating {TRACE_DIR}: {e}"))?;
    let path = format!("{TRACE_DIR}/{}-seed{seed}.trace.json", workload.name());
    let file = std::fs::File::create(&path).map_err(|e| format!("creating {path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    let mut result = Ok(());
    tracer.export_stream(|chunk| {
        if result.is_ok() {
            result = out.write_all(chunk.as_bytes());
        }
    });
    result
        .and_then(|()| out.flush())
        .map_err(|e| format!("writing {path}: {e}"))?;
    Ok(path)
}

fn run(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let inputs = Inputs::generate(args.workload, args.seed)?;
    let references = inputs
        .tenants
        .iter()
        .map(references)
        .collect::<Result<Vec<_>, _>>()?;
    let calibrator = Calibrator::new();
    let prepared_s = started.elapsed().as_secs_f64();
    let budget = Duration::from_secs(args.seconds);
    let mut passes: Vec<Pass> = Vec::new();
    let mut last_tracer = None;
    let mut longest = Duration::ZERO;
    loop {
        let untraced = passes.iter().filter(|p| !p.traced).count();
        let trace_next = args.trace && passes.len() - untraced < untraced;
        let tracer = Rc::new(if trace_next {
            Tracer::recording()
        } else {
            Tracer::off()
        });
        let t = Instant::now();
        passes.push(run_pass(
            &inputs,
            &references,
            args.workload,
            tracer.clone(),
            &calibrator,
        )?);
        longest = longest.max(t.elapsed());
        if trace_next {
            last_tracer = Some(tracer);
        }
        let enough = if args.trace {
            last_tracer.is_some()
        } else {
            passes.len() >= MIN_PASSES
        };
        if enough && started.elapsed() + longest > budget {
            break;
        }
    }
    let peak_rss = peak_rss_mib()?;

    let tenants = inputs.tenants.len();
    println!(
        "lifecycle-bench workload={} seed={} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}): \
         {tenants} tenants, {} timed jobs per pass, inputs and references {prepared_s:.2}s, \
         {} passes in {:.1}s",
        args.workload.name(),
        args.seed,
        inputs.timed(),
        passes.len(),
        started.elapsed().as_secs_f64(),
    );
    println!(
        "  per pass, as measured (calibration kernel {:.2}ms at reference speed):",
        calibrate::REFERENCE_S * 1e3
    );
    for p in &passes {
        println!(
            "    {:<8} {:>8.0} jobs/s  p50 {:>8.1}us  p99 {:>9.1}us  set-up {:.3}s  kernel {:.3}ms",
            if p.traced { "traced" } else { "untraced" },
            p.counts.jobs as f64 / p.timed_s,
            p.p50_us,
            p.p99_us,
            p.setup_s,
            p.cal_s * 1e3,
        );
    }

    // Output checks: per-job checks are counted as failed jobs; every pass
    // must have made byte-identical decisions.
    let mut correct = true;
    if let Some(p) = passes.iter().find(|p| p.digests != passes[0].digests) {
        eprintln!(
            "decision digests differ between passes: {:x?} vs {:x?}",
            passes[0].digests, p.digests
        );
        correct = false;
    }
    let attempted: u64 = passes.iter().map(|p| p.counts.jobs).sum();
    let failed: u64 = passes.iter().map(|p| p.counts.failed).sum();
    if failed > 0 {
        eprintln!("{failed} of {attempted} jobs failed an output check");
        correct = false;
    }

    let e2e = end_to_end(&passes, peak_rss);
    print_table(
        &format!(
            "end-to-end (untraced; times at reference host speed; latency quantiles per pass \
             over {} jobs, median over passes)",
            passes[0].samples
        ),
        &e2e,
        false,
    );
    let metrics = if args.trace {
        for layers in passes.iter().filter_map(|p| p.layers.as_ref()) {
            let err = layers.closure_error();
            if err > ATTRIBUTION_TOLERANCE {
                eprintln!(
                    "layer self times do not close on the job envelope: relative error {err:e} \
                     > {ATTRIBUTION_TOLERANCE:e}"
                );
                correct = false;
            }
        }
        let layers = per_layer(&passes, args.workload, tenants)?;
        print_table(
            "per-layer (traced; per timed job unless the unit says otherwise)",
            &layers,
            true,
        );
        if let Some(tracer) = &last_tracer {
            println!(
                "spans of the last traced pass: {}",
                export_spans(tracer, args.workload, args.seed)?
            );
        }
        layers
    } else {
        print_table(
            "workload properties",
            &properties(&passes[0], args.workload, tenants),
            false,
        );
        e2e
    };
    println!("{}", json_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("lifecycle-bench: {e}");
            std::process::exit(1);
        }
    }
}
