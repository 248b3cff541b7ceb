//! Deterministic fault injection for the autonomous-data-services stack.
//!
//! The paper's operational claim is that learned components are deployable
//! *because* they survive real failures behind guardrails and feedback loops.
//! This crate supplies the failures: a single `u64` seed expands into a
//! reproducible composition of
//!
//! * **execution faults** — task crashes, machine loss and temp-storage
//!   exhaustion driven through [`engine::exec`](adas_engine::exec)
//!   ([`chaos::ChaosRunner`]);
//! * **telemetry faults** — counter dropouts and outlier bursts over
//!   [`MachineTelemetry`](adas_infra::machine::MachineTelemetry) streams
//!   ([`telemetry::TelemetryFaults`]);
//! * **model-serving faults** — stale predictions, serving timeouts and
//!   poisoned (systematically biased) models ([`model::ModelFaults`]);
//! * **feedback faults** — delayed `(prediction, actual)` observation
//!   delivery into [`core::feedback`](adas_core::feedback)
//!   ([`feedback::DelayedFeedback`]).
//!
//! Everything is pure and seed-driven: the same seed always produces the
//! same schedule, the same perturbations, the same verdicts. Channels are
//! derived from the master seed with independent SplitMix64 streams
//! ([`seed::channel_rng`]), so adding draws on one channel never perturbs
//! another — a property the chaos test-suite's determinism assertions rely
//! on.
//!
//! ```
//! use adas_faultsim::{FaultConfig, FaultInjector};
//!
//! let injector = FaultInjector::new(42, FaultConfig::standard());
//! let schedule = injector.schedule_for(0, 16);
//! assert_eq!(schedule, injector.schedule_for(0, 16)); // same seed, same faults
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod feedback;
pub mod model;
pub mod schedule;
pub mod seed;
pub mod telemetry;

pub use chaos::{AttemptFailure, ChaosOutcome, ChaosRunner, FaultCause};
pub use feedback::DelayedFeedback;
pub use model::{ModelFaults, PoisonProfile, Served};
pub use schedule::{FaultEvent, FaultSchedule};
pub use seed::{channel_rng, Channel};
pub use telemetry::{TelemetryFaults, TelemetryPerturbation};

use serde::Serialize;
use std::fmt;

/// Fault intensities for every channel. `FaultConfig::disabled()` turns the
/// whole layer off; the injection paths then add no work beyond a branch
/// (the disabled-path overhead bound the bench suite checks).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultConfig {
    /// Master switch; when false no faults are ever generated.
    pub enabled: bool,
    /// Probability that a job run suffers a mid-flight task crash.
    pub task_crash_rate: f64,
    /// Maximum task crashes injected into one job.
    pub max_task_crashes: usize,
    /// Probability that a job run loses a machine mid-flight.
    pub machine_loss_rate: f64,
    /// Local temp capacity per machine, bytes; a run whose hotspot peak
    /// exceeds it loses the hotspot machine ("temp-storage exhaustion").
    /// `f64::INFINITY` disables the channel.
    pub temp_capacity_bytes: f64,
    /// Probability an individual telemetry sample is dropped.
    pub telemetry_dropout: f64,
    /// Probability an outlier burst starts at a given sample.
    pub outlier_burst_rate: f64,
    /// Number of consecutive samples an outlier burst corrupts.
    pub outlier_burst_len: usize,
    /// Multiplier applied to corrupted samples.
    pub outlier_magnitude: f64,
    /// Probability a model serving call returns the previous (stale) answer.
    pub staleness: f64,
    /// Probability a model serving call times out entirely.
    pub timeout_rate: f64,
    /// Systematic multiplicative bias of a poisoned model's predictions.
    pub poison_factor: f64,
    /// Observations by which feedback `(prediction, actual)` pairs lag.
    pub feedback_delay: usize,
}

impl FaultConfig {
    /// All channels off: the injection layer becomes (near-)free.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            task_crash_rate: 0.0,
            max_task_crashes: 0,
            machine_loss_rate: 0.0,
            temp_capacity_bytes: f64::INFINITY,
            telemetry_dropout: 0.0,
            outlier_burst_rate: 0.0,
            outlier_burst_len: 0,
            outlier_magnitude: 1.0,
            staleness: 0.0,
            timeout_rate: 0.0,
            poison_factor: 1.0,
            feedback_delay: 0,
        }
    }

    /// A hostile-but-survivable default used across the chaos suite.
    pub fn standard() -> Self {
        Self {
            enabled: true,
            task_crash_rate: 0.5,
            max_task_crashes: 2,
            machine_loss_rate: 0.3,
            temp_capacity_bytes: f64::INFINITY,
            telemetry_dropout: 0.05,
            outlier_burst_rate: 0.01,
            outlier_burst_len: 4,
            outlier_magnitude: 8.0,
            staleness: 0.1,
            timeout_rate: 0.05,
            poison_factor: 2.0,
            feedback_delay: 5,
        }
    }

    /// Checks every numeric field against the range its channel can use.
    /// Without this, an out-of-range rate is silently clamped and a NaN
    /// rate silently turns its channel off. Rejects a rate that is not a
    /// finite probability in `[0, 1]`, a NaN or non-positive
    /// `temp_capacity_bytes` (`f64::INFINITY` is valid: the channel is
    /// off), a non-finite `outlier_magnitude`, and a non-finite or
    /// non-positive `poison_factor`. Reports the first bad field, rates
    /// first.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        let check = |field, value, ok, expected| {
            if ok {
                Ok(())
            } else {
                Err(FaultConfigError {
                    field,
                    value,
                    expected,
                })
            }
        };
        for (field, rate) in [
            ("task_crash_rate", self.task_crash_rate),
            ("machine_loss_rate", self.machine_loss_rate),
            ("telemetry_dropout", self.telemetry_dropout),
            ("outlier_burst_rate", self.outlier_burst_rate),
            ("staleness", self.staleness),
            ("timeout_rate", self.timeout_rate),
        ] {
            let ok = (0.0..=1.0).contains(&rate);
            check(field, rate, ok, "a finite probability in [0, 1]")?;
        }
        let capacity = self.temp_capacity_bytes;
        check(
            "temp_capacity_bytes",
            capacity,
            capacity > 0.0,
            "a positive size (infinity turns the channel off)",
        )?;
        let magnitude = self.outlier_magnitude;
        check(
            "outlier_magnitude",
            magnitude,
            magnitude.is_finite(),
            "finite",
        )?;
        let poison = self.poison_factor;
        let ok = poison.is_finite() && poison > 0.0;
        check("poison_factor", poison, ok, "finite and positive")
    }
}

/// A [`FaultConfig`] field outside its valid range, returned by
/// [`FaultConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfigError {
    /// The rejected field's name.
    pub field: &'static str,
    /// The rejected value.
    pub value: f64,
    /// What the field must be.
    pub expected: &'static str,
}

impl fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FaultConfig.{} = {} is invalid: must be {}",
            self.field, self.value, self.expected
        )
    }
}

impl std::error::Error for FaultConfigError {}

/// The top-level injector: owns the master seed and derives per-channel,
/// per-job fault sources from it.
#[derive(Debug, Clone, Copy)]
pub struct FaultInjector {
    seed: u64,
    config: FaultConfig,
}

impl FaultInjector {
    /// Creates an injector over a master seed.
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        Self { seed, config }
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The execution-fault schedule for one job on a cluster of `machines`
    /// machines. Distinct jobs draw from distinct derived seeds, so
    /// injecting into one job never shifts another job's faults.
    pub fn schedule_for(&self, job_index: u64, machines: usize) -> FaultSchedule {
        FaultSchedule::generate(seed::derive(self.seed, job_index), &self.config, machines)
    }

    /// The telemetry perturbation source.
    pub fn telemetry_faults(&self) -> TelemetryFaults {
        TelemetryFaults {
            dropout: if self.config.enabled {
                self.config.telemetry_dropout
            } else {
                0.0
            },
            burst_rate: if self.config.enabled {
                self.config.outlier_burst_rate
            } else {
                0.0
            },
            burst_len: self.config.outlier_burst_len,
            magnitude: self.config.outlier_magnitude,
            seed: self.seed,
        }
    }

    /// A model-serving fault source.
    pub fn model_faults(&self) -> ModelFaults {
        ModelFaults::new(
            self.seed,
            if self.config.enabled {
                self.config.staleness
            } else {
                0.0
            },
            if self.config.enabled {
                self.config.timeout_rate
            } else {
                0.0
            },
            if self.config.enabled {
                self.config.poison_factor
            } else {
                1.0
            },
        )
    }

    /// A delayed feedback queue.
    pub fn feedback_delay(&self) -> DelayedFeedback {
        DelayedFeedback::new(if self.config.enabled {
            self.config.feedback_delay
        } else {
            0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_is_deterministic_per_seed() {
        let a = FaultInjector::new(7, FaultConfig::standard());
        let b = FaultInjector::new(7, FaultConfig::standard());
        assert_eq!(a.schedule_for(3, 16), b.schedule_for(3, 16));
        let c = FaultInjector::new(8, FaultConfig::standard());
        // Different master seeds must eventually diverge over a few jobs.
        let differs = (0..16).any(|j| a.schedule_for(j, 16) != c.schedule_for(j, 16));
        assert!(differs);
    }

    #[test]
    fn disabled_config_generates_nothing() {
        let injector = FaultInjector::new(9, FaultConfig::disabled());
        for j in 0..32 {
            assert!(injector.schedule_for(j, 16).events.is_empty());
        }
    }

    #[test]
    fn presets_are_valid() {
        assert_eq!(FaultConfig::standard().validate(), Ok(()));
        assert_eq!(FaultConfig::disabled().validate(), Ok(()));
        let edges = FaultConfig {
            task_crash_rate: 1.0,
            machine_loss_rate: 0.0,
            temp_capacity_bytes: 1.0,
            outlier_magnitude: -3.0,
            poison_factor: 1e-9,
            ..FaultConfig::standard()
        };
        assert_eq!(edges.validate(), Ok(()));
    }

    #[test]
    fn validate_names_each_bad_field() {
        type Set = fn(&mut FaultConfig, f64);
        let rates: [(&str, Set); 6] = [
            ("task_crash_rate", |c, v| c.task_crash_rate = v),
            ("machine_loss_rate", |c, v| c.machine_loss_rate = v),
            ("telemetry_dropout", |c, v| c.telemetry_dropout = v),
            ("outlier_burst_rate", |c, v| c.outlier_burst_rate = v),
            ("staleness", |c, v| c.staleness = v),
            ("timeout_rate", |c, v| c.timeout_rate = v),
        ];
        let mut cases: Vec<(&str, Set, f64)> = Vec::new();
        for (field, set) in rates {
            for bad in [f64::NAN, f64::INFINITY, -0.1, 1.5] {
                cases.push((field, set, bad));
            }
        }
        let capacity: Set = |c, v| c.temp_capacity_bytes = v;
        for bad in [f64::NAN, 0.0, -1.0, f64::NEG_INFINITY] {
            cases.push(("temp_capacity_bytes", capacity, bad));
        }
        let magnitude: Set = |c, v| c.outlier_magnitude = v;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            cases.push(("outlier_magnitude", magnitude, bad));
        }
        let poison: Set = |c, v| c.poison_factor = v;
        for bad in [f64::NAN, f64::INFINITY, 0.0, -2.0] {
            cases.push(("poison_factor", poison, bad));
        }
        for (field, set, bad) in cases {
            let mut config = FaultConfig::standard();
            set(&mut config, bad);
            let err = config.validate().unwrap_err();
            assert_eq!(err.field, field);
            assert_eq!(err.value.to_bits(), bad.to_bits(), "{field}");
            let text = err.to_string();
            assert!(
                text.contains(field) && text.contains(&bad.to_string()),
                "{text}"
            );
        }
    }

    #[test]
    fn jobs_draw_independent_schedules() {
        let injector = FaultInjector::new(11, FaultConfig::standard());
        let schedules: Vec<_> = (0..32).map(|j| injector.schedule_for(j, 16)).collect();
        let distinct = schedules
            .iter()
            .enumerate()
            .any(|(i, s)| schedules[..i].iter().any(|t| t != s) || i == 0);
        assert!(distinct);
    }
}
