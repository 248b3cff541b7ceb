//! The one timing loop behind the `*_bench` bins and the micro-benches.
//!
//! A bench is a list of [`Config`]s. Each is a closure that does its
//! untimed set-up, then calls [`Lap::time`] around the work it measures.
//! [`run`] calls every configuration once to warm it up and to size its
//! passes, so that one timed sample spans at least [`WINDOW_SECS`]. It then
//! times the configurations round-robin, so background-load drift hits every
//! configuration of a round alike, and summarises each one per pass: best,
//! median and interquartile range over the rounds.
//!
//! A [`Report`] collects workload facts, timings and [`Gate`]s. A timed gate
//! checks the ratio of two configurations' best times against its bound, and
//! carries the median and interquartile range of the same ratio taken round
//! by round, which is what tells drift from noise. [`Report::finish`] writes
//! `BENCH_<name>.json` at the repo root and exits 1 if a gate failed.

use std::fmt;
use std::hint::black_box;
use std::time::Instant;

use serde::{Serialize, Value};

/// Wall time one timed sample spans at least. Shorter samples on a shared
/// host are dominated by scheduler noise.
pub const WINDOW_SECS: f64 = 0.05;

/// Times one call of a configuration; see [`Lap::time`].
pub struct Lap {
    /// Passes to time, or `None` during the warm-up call.
    passes: Option<usize>,
    /// Seconds per pass, once [`Lap::time`] has run.
    per_pass: Option<f64>,
}

impl Lap {
    /// Runs `work` once per pass inside one timed window and returns the
    /// last pass's result. Everything the configuration does outside this
    /// call is untimed set-up. The warm-up call runs one untimed pass, then
    /// timed batches that double in size until they fill [`WINDOW_SECS`].
    /// The fastest batch's time per pass sizes the timed rounds, so a
    /// warm-up slowed by host load does not shorten their windows.
    ///
    /// # Panics
    ///
    /// If called twice in one configuration call.
    pub fn time<R>(&mut self, mut work: impl FnMut() -> R) -> R {
        assert!(
            self.per_pass.is_none(),
            "a configuration calls Lap::time once per call"
        );
        let mut last = None;
        let mut batch = |passes: usize| {
            let start = Instant::now();
            for _ in 0..passes {
                last = Some(black_box(work()));
            }
            start.elapsed().as_secs_f64() / passes as f64
        };
        self.per_pass = Some(match self.passes {
            Some(passes) => batch(passes),
            None => {
                // Untimed: the first pass settles caches and lazy set-up.
                batch(1);
                let (mut size, mut spent, mut fastest) = (1, 0.0, f64::INFINITY);
                while spent < WINDOW_SECS {
                    let per_pass = batch(size);
                    spent += per_pass * size as f64;
                    fastest = fastest.min(per_pass);
                    size *= 2;
                }
                fastest
            }
        });
        last.expect("passes are at least one")
    }
}

/// One measured configuration: a name and the closure [`run`] calls.
pub struct Config<'a> {
    name: String,
    rate: Option<(f64, &'static str)>,
    run: Box<dyn FnMut(&mut Lap) + 'a>,
}

impl<'a> Config<'a> {
    /// A configuration whose calls do any untimed set-up, then call
    /// [`Lap::time`] exactly once around the measured work.
    pub fn new<R>(name: impl Into<String>, mut run: impl FnMut(&mut Lap) -> R + 'a) -> Self {
        Self {
            name: name.into(),
            rate: None,
            run: Box::new(move |lap| {
                black_box(run(lap));
            }),
        }
    }

    /// Also reports throughput, `<unit>_per_sec`: `per_pass` units of work
    /// per pass over the best per-pass time.
    pub fn rate(mut self, per_pass: usize, unit: &'static str) -> Self {
        self.rate = Some((per_pass as f64, unit));
        self
    }
}

/// Passes per round that make one timed sample span at least
/// [`WINDOW_SECS`] at `per_pass` seconds per pass. A batch too fast for the
/// clock to see counts as a nanosecond a pass.
fn passes_for(per_pass: f64) -> usize {
    ((WINDOW_SECS / per_pass.max(1e-9)).ceil() as usize).max(1)
}

/// Seconds per pass of one configuration call.
fn call(config: &mut Config<'_>, passes: Option<usize>) -> f64 {
    let mut lap = Lap {
        passes,
        per_pass: None,
    };
    (config.run)(&mut lap);
    lap.per_pass
        .unwrap_or_else(|| panic!("configuration {} never calls Lap::time", config.name))
}

/// Warms each configuration up once, then times `rounds` rounds of all of
/// them round-robin. Timings come back in configuration order.
pub fn run(rounds: usize, mut configs: Vec<Config<'_>>) -> Vec<Timing> {
    assert!(rounds > 0, "a run needs at least one round");
    let passes: Vec<usize> = configs
        .iter_mut()
        .map(|config| passes_for(call(config, None)))
        .collect();
    let mut samples = vec![Vec::with_capacity(rounds); configs.len()];
    for _ in 0..rounds {
        for ((config, &passes), samples) in configs.iter_mut().zip(&passes).zip(&mut samples) {
            samples.push(call(config, Some(passes)));
        }
    }
    configs
        .into_iter()
        .zip(passes)
        .zip(samples)
        .map(|((config, passes), samples)| Timing {
            name: config.name,
            passes,
            samples,
            rate: config.rate,
        })
        .collect()
}

/// Median and interquartile range of a sample. Quartiles interpolate
/// linearly between order statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spread {
    /// The middle value (mean of the middle two for an even count).
    median: f64,
    /// Third quartile minus first quartile.
    iqr: f64,
}

impl Spread {
    /// Summarises a non-empty sample.
    fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let quantile = |p: f64| {
            let h = (sorted.len() - 1) as f64 * p;
            let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
            sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
        };
        Self {
            median: quantile(0.5),
            iqr: quantile(0.75) - quantile(0.25),
        }
    }
}

/// One configuration's timing: seconds per pass, one sample per round.
#[derive(Debug, Clone)]
pub struct Timing {
    name: String,
    passes: usize,
    samples: Vec<f64>,
    rate: Option<(f64, &'static str)>,
}

impl Timing {
    /// The fastest round's seconds per pass.
    pub fn best(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Median and interquartile range of seconds per pass over the rounds.
    fn spread(&self) -> Spread {
        Spread::of(&self.samples)
    }

    fn to_value(&self) -> Value {
        let spread = self.spread();
        let rate = self
            .rate
            .map(|(per_pass, unit)| (format!("{unit}_per_sec"), per_pass / self.best()));
        let mut entries = vec![
            ("rounds", self.samples.len().to_value()),
            ("passes", self.passes.to_value()),
            ("best_secs", self.best().to_value()),
            ("median_secs", spread.median.to_value()),
            ("iqr_secs", spread.iqr.to_value()),
        ];
        if let Some((key, per_sec)) = &rate {
            entries.push((key, per_sec.to_value()));
        }
        map(entries)
    }
}

/// Renders a duration in seconds with a readable unit.
fn duration(secs: f64) -> String {
    if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

impl fmt::Display for Timing {
    /// `name  median per pass (best, IQR, passes × rounds)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let spread = self.spread();
        write!(
            f,
            "{:<36} {:>12}/pass  (best {}, IQR {}, {} passes x {} rounds)",
            self.name,
            duration(spread.median),
            duration(self.best()),
            duration(spread.iqr),
            self.passes,
            self.samples.len()
        )
    }
}

/// What a gate's value must satisfy.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Bound {
    /// A budget: the value must stay strictly below this.
    Below(f64),
    /// A floor: the value must reach at least this.
    AtLeast(f64),
}

impl Bound {
    /// Whether `value` passes.
    fn admits(self, value: f64) -> bool {
        match self {
            Bound::Below(budget) => value < budget,
            Bound::AtLeast(floor) => value >= floor,
        }
    }
}

/// A checked statistic: exceeding a budget or missing a floor fails the bench.
#[derive(Debug, Clone)]
pub struct Gate {
    name: &'static str,
    value: f64,
    bound: Bound,
    /// The same statistic taken per round on paired samples; `None` for an
    /// untimed value.
    per_round: Option<Spread>,
}

impl Gate {
    /// `cost / base − 1` over best per-pass times: what `cost` adds to
    /// `base`. Must stay below `budget`.
    pub fn overhead(name: &'static str, cost: &Timing, base: &Timing, budget: f64) -> Self {
        Self::paired(name, cost, base, 1.0, Bound::Below(budget))
    }

    /// `part / whole` over best per-pass times. Must stay below `budget`.
    pub fn ratio_below(name: &'static str, part: &Timing, whole: &Timing, budget: f64) -> Self {
        Self::paired(name, part, whole, 0.0, Bound::Below(budget))
    }

    /// `base / fast` over best per-pass times. Must reach at least `floor`.
    pub fn speedup(name: &'static str, fast: &Timing, base: &Timing, floor: f64) -> Self {
        Self::paired(name, base, fast, 0.0, Bound::AtLeast(floor))
    }

    /// An untimed value, such as a simulated makespan ratio. Must reach at
    /// least `floor`.
    pub fn at_least(name: &'static str, value: f64, floor: f64) -> Self {
        Self {
            name,
            value,
            bound: Bound::AtLeast(floor),
            per_round: None,
        }
    }

    /// `num / den − offset` on best times, and per round on paired samples.
    fn paired(name: &'static str, num: &Timing, den: &Timing, offset: f64, bound: Bound) -> Self {
        assert_eq!(
            num.samples.len(),
            den.samples.len(),
            "gate {name} pairs {} and {}, which ran different round counts",
            num.name,
            den.name
        );
        let per_round: Vec<f64> = num
            .samples
            .iter()
            .zip(&den.samples)
            .map(|(n, d)| n / d - offset)
            .collect();
        Self {
            name,
            value: num.best() / den.best() - offset,
            bound,
            per_round: Some(Spread::of(&per_round)),
        }
    }

    /// Whether the gate passes.
    fn ok(&self) -> bool {
        self.bound.admits(self.value)
    }

    fn to_value(&self) -> Value {
        let bound = match self.bound {
            Bound::Below(budget) => ("below", budget.to_value()),
            Bound::AtLeast(floor) => ("at_least", floor.to_value()),
        };
        let mut entries = vec![("value", self.value.to_value()), bound];
        if let Some(spread) = self.per_round {
            entries.push(("round_median", spread.median.to_value()));
            entries.push(("round_iqr", spread.iqr.to_value()));
        }
        entries.push(("ok", self.ok().to_value()));
        map(entries)
    }
}

/// The gates that failed, in declaration order. A non-empty list makes
/// [`Report::finish`] exit 1.
fn failed(gates: &[Gate]) -> Vec<&Gate> {
    gates.iter().filter(|gate| !gate.ok()).collect()
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// Everything one bench bin measured, written as `BENCH_<name>.json`.
pub struct Report {
    name: &'static str,
    facts: Vec<(&'static str, Value)>,
    timings: Vec<Timing>,
    gates: Vec<Gate>,
}

impl Report {
    /// An empty report for `BENCH_<name>.json`.
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            facts: Vec::new(),
            timings: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Records a workload fact (a size, a count, an untimed result).
    pub fn fact(&mut self, key: &'static str, value: impl Serialize) {
        self.facts.push((key, value.to_value()));
    }

    /// [`run`]s the configurations and records their timings.
    pub fn run(&mut self, rounds: usize, configs: Vec<Config<'_>>) -> Vec<Timing> {
        let timings = run(rounds, configs);
        self.timings.extend(timings.iter().cloned());
        timings
    }

    /// Declares a gate.
    pub fn gate(&mut self, gate: Gate) {
        self.gates.push(gate);
    }

    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("bench", self.name.to_value()),
            ("window_secs", WINDOW_SECS.to_value()),
        ];
        entries.extend(self.facts.iter().map(|(key, value)| (*key, value.clone())));
        let configs = self.timings.iter().map(|t| (t.name.as_str(), t.to_value()));
        entries.push(("configs", map(configs.collect())));
        let gates = self.gates.iter().map(|g| (g.name, g.to_value()));
        entries.push(("gates", map(gates.collect())));
        map(entries)
    }

    /// Writes `BENCH_<name>.json` at the repo root and prints it, then
    /// reports each failed gate on stderr and exits 1 if there was one.
    pub fn finish(self) {
        let json = serde_json::to_string_pretty(&self.to_value()).expect("serializes");
        let path = format!(
            "{}/../../BENCH_{}.json",
            env!("CARGO_MANIFEST_DIR"),
            self.name
        );
        std::fs::write(&path, format!("{json}\n"))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("{json}");
        let failed = failed(&self.gates);
        for gate in &failed {
            let detail = serde_json::to_string(&gate.to_value()).expect("serializes");
            eprintln!("{} gate {} failed: {detail}", self.name, gate.name);
        }
        if !failed.is_empty() {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn timing(name: &str, samples: &[f64]) -> Timing {
        Timing {
            name: name.to_string(),
            passes: 1,
            samples: samples.to_vec(),
            rate: None,
        }
    }

    #[test]
    fn spread_of_an_odd_count() {
        // Sorted 1 2 3 4 5: Q1 = 2, median = 3, Q3 = 4.
        let spread = Spread::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(
            spread,
            Spread {
                median: 3.0,
                iqr: 2.0
            }
        );
    }

    #[test]
    fn spread_of_an_even_count() {
        // Sorted 1 2 3 4: median (2 + 3) / 2; Q1 at rank 0.75 is 1.75, Q3
        // at rank 2.25 is 3.25.
        let spread = Spread::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            spread,
            Spread {
                median: 2.5,
                iqr: 1.5
            }
        );
        // Sorted 1..=6: Q1 at rank 1.25 is 2.25, Q3 at rank 3.75 is 4.75.
        let spread = Spread::of(&[6.0, 2.0, 5.0, 1.0, 4.0, 3.0]);
        assert_eq!(
            spread,
            Spread {
                median: 3.5,
                iqr: 2.5
            }
        );
        assert_eq!(
            Spread::of(&[7.0]),
            Spread {
                median: 7.0,
                iqr: 0.0
            }
        );
    }

    #[test]
    fn warm_up_is_untimed_then_rounds_go_round_robin() {
        let log = RefCell::new(Vec::new());
        let config = |name: &'static str| {
            let log = &log;
            Config::new(name, move |lap: &mut Lap| {
                log.borrow_mut().push(name);
                lap.time(|| ())
            })
        };
        let timings = run(3, vec![config("a"), config("b"), config("c")]);
        let order = ["a", "b", "c"];
        let expected: Vec<&str> = order.iter().cycle().take(3 * 4).copied().collect();
        assert_eq!(
            *log.borrow(),
            expected,
            "one warm-up call each, then 3 rounds"
        );
        for (timing, name) in timings.iter().zip(order) {
            assert_eq!(timing.name, name);
            assert_eq!(timing.samples.len(), 3, "the warm-up call is not a sample");
        }
    }

    #[test]
    fn derived_passes_fill_at_least_the_window() {
        for per_pass in [
            1e-9,
            3e-4,
            0.013 / 7.0,
            0.0517 / 1024.0,
            0.049 / 3.0,
            WINDOW_SECS,
        ] {
            let passes = passes_for(per_pass);
            assert!(
                passes as f64 * per_pass >= WINDOW_SECS * (1.0 - 1e-12),
                "{passes} passes of {per_pass}s fall short of the window"
            );
        }
        assert_eq!(passes_for(0.2), 1, "a long pass is one pass per round");
        assert_eq!(
            passes_for(0.0),
            passes_for(1e-9),
            "a zero reading stays finite"
        );
    }

    #[test]
    fn warm_up_fills_the_window_and_sizes_from_the_fastest_batch() {
        let spin = |secs: f64| {
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < secs {}
        };
        // Passes take 1 ms, but the first timed one stalls for 45 ms: the
        // batches run 45, 2 and 4 ms, so the warm-up's average pass is
        // ~7.3 ms while its fastest batch runs at ~1 ms a pass.
        let mut calls = 0;
        let mut lap = Lap {
            passes: None,
            per_pass: None,
        };
        let start = Instant::now();
        lap.time(|| {
            calls += 1;
            spin(if calls == 2 { 0.045 } else { 0.001 });
        });
        assert!(start.elapsed().as_secs_f64() >= WINDOW_SECS);
        let per_pass = lap.per_pass.expect("timed");
        assert!(
            per_pass < 0.004,
            "the stalled batch sized the rounds: {per_pass}"
        );
    }

    #[test]
    fn gate_edges_match_the_strict_budget_and_inclusive_floor() {
        // A budget fails at exactly its bound (`overhead < 0.05`) ...
        assert!(!Bound::Below(0.05).admits(0.05));
        assert!(Bound::Below(0.05).admits(0.049_999));
        // ... and a floor passes at exactly its value (`speedup >= 1.3`).
        assert!(Bound::AtLeast(1.3).admits(1.3));
        assert!(!Bound::AtLeast(1.3).admits(1.299_999));
        assert!(Gate::at_least("speedup", 1.3, 1.3).ok());
    }

    #[test]
    fn timed_gates_take_best_of_rounds_and_paired_round_spread() {
        let base = timing("base", &[1.0, 2.0, 1.0]);
        let cost = timing("cost", &[1.5, 2.2, 1.1]);
        let gate = Gate::overhead("overhead", &cost, &base, 0.05);
        // Best 1.1 over best 1.0.
        assert!((gate.value - 0.1).abs() < 1e-12);
        assert!(!gate.ok());
        // Per round: 0.5, 0.1, 0.1.
        let spread = gate.per_round.expect("timed");
        assert!((spread.median - 0.1).abs() < 1e-12);
        assert!((spread.iqr - 0.2).abs() < 1e-12);

        let fast = timing("fast", &[0.5, 0.4, 0.5]);
        let gate = Gate::speedup("speedup", &fast, &base, 2.0);
        assert!((gate.value - 2.5).abs() < 1e-12 && gate.ok());
        let gate = Gate::ratio_below("share", &fast, &base, 0.4);
        assert!((gate.value - 0.4).abs() < 1e-12 && !gate.ok());
    }

    #[test]
    fn failed_gates_are_a_pure_list_in_declaration_order() {
        let gate = |name, value, bound| Gate {
            name,
            value,
            bound,
            per_round: None,
        };
        let gates = [
            gate("at_budget", 0.05, Bound::Below(0.05)),
            gate("under_budget", 0.01, Bound::Below(0.05)),
            gate("at_floor", 1.3, Bound::AtLeast(1.3)),
            gate("under_floor", 1.2, Bound::AtLeast(1.3)),
        ];
        let names: Vec<&str> = failed(&gates).iter().map(|g| g.name).collect();
        assert_eq!(names, ["at_budget", "under_floor"]);
        assert!(failed(&gates[1..3]).is_empty());
    }

    #[test]
    fn report_json_puts_spread_beside_each_timed_gate() {
        let mut report = Report::new("unit");
        report.fact("jobs", 120usize);
        let base = timing("base", &[1.0, 2.0]);
        let cost = Timing {
            rate: Some((120.0, "jobs")),
            ..timing("cost", &[1.0, 1.0])
        };
        report.timings = vec![base.clone(), cost.clone()];
        report.gate(Gate::overhead("overhead", &cost, &base, 0.05));
        report.gate(Gate::at_least("speedup", 3.0, 1.3));
        let json = serde_json::to_string(&report.to_value()).expect("serializes");
        assert!(json.starts_with(r#"{"bench":"unit","window_secs":0.05,"jobs":120,"#));
        assert!(json.contains(r#""cost":{"rounds":2,"passes":1,"best_secs":1.0,"#));
        assert!(json.contains(r#""jobs_per_sec":120.0}"#));
        assert!(json.contains(
            r#""overhead":{"value":0.0,"below":0.05,"round_median":-0.25,"round_iqr":0.25,"ok":true}"#
        ));
        assert!(json.contains(r#""speedup":{"value":3.0,"at_least":1.3,"ok":true}"#));
    }
}
