//! Telemetry perturbation: counter dropouts and outlier bursts.
//!
//! Operates on [`MachineTelemetry`]
//! streams *before* they reach the store, mimicking the collection-layer
//! failures the paper's Direction 2 models must tolerate: agents that skip
//! reporting intervals and counters that go wild for a stretch of hours.
//! Per-machine timestamp order is preserved (dropping and scaling never
//! reorder), so the perturbed stream still satisfies the telemetry store's
//! append-ordering contract.

use crate::seed::{channel_rng, derive, Channel};
use adas_infra::machine::MachineTelemetry;
use rand::Rng;
use serde::Serialize;

/// What happened to the stream, for assertions and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct TelemetryPerturbation {
    /// Samples dropped entirely.
    pub dropped: usize,
    /// Samples whose `task_seconds` was scaled by the outlier magnitude.
    pub corrupted: usize,
    /// Samples passed through untouched.
    pub clean: usize,
}

/// Seeded dropout/outlier source over machine telemetry.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryFaults {
    /// Per-sample drop probability.
    pub dropout: f64,
    /// Per-sample probability an outlier burst starts.
    pub burst_rate: f64,
    /// Samples corrupted by one burst.
    pub burst_len: usize,
    /// Multiplier applied to `task_seconds` inside a burst.
    pub magnitude: f64,
    /// Master seed; the telemetry channel stream derives from it.
    pub seed: u64,
}

impl TelemetryFaults {
    /// Perturbs a telemetry stream. Pure in `(self, samples)`: the same
    /// faults hit the same samples every time. `epoch` separates repeated
    /// perturbations under one master seed (e.g. successive days).
    pub fn perturb(
        &self,
        samples: &[MachineTelemetry],
        epoch: u64,
    ) -> (Vec<MachineTelemetry>, TelemetryPerturbation) {
        if self.dropout <= 0.0 && self.burst_rate <= 0.0 {
            return (
                samples.to_vec(),
                TelemetryPerturbation {
                    clean: samples.len(),
                    ..Default::default()
                },
            );
        }
        let mut rng = channel_rng(derive(self.seed, epoch), Channel::Telemetry);
        let mut out = Vec::with_capacity(samples.len());
        let mut stats = TelemetryPerturbation::default();
        let mut burst_left = 0usize;
        for sample in samples {
            if rng.gen_bool(self.dropout) {
                stats.dropped += 1;
                continue;
            }
            if burst_left == 0 && rng.gen_bool(self.burst_rate) {
                burst_left = self.burst_len;
            }
            if burst_left > 0 {
                burst_left -= 1;
                stats.corrupted += 1;
                let mut corrupted = *sample;
                corrupted.task_seconds *= self.magnitude.max(0.0);
                out.push(corrupted);
            } else {
                stats.clean += 1;
                out.push(*sample);
            }
        }
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_infra::machine::{MachineFleet, SkuSpec};

    fn faults() -> TelemetryFaults {
        TelemetryFaults {
            dropout: 0.1,
            burst_rate: 0.02,
            burst_len: 3,
            magnitude: 10.0,
            seed: 7,
        }
    }

    fn stream() -> Vec<MachineTelemetry> {
        MachineFleet::new(SkuSpec::standard_fleet(), 4).generate_telemetry(48, 0.05, 1)
    }

    #[test]
    fn perturbation_is_deterministic() {
        let s = stream();
        let f = faults();
        assert_eq!(f.perturb(&s, 0), f.perturb(&s, 0));
        let (a, _) = f.perturb(&s, 0);
        let (b, _) = f.perturb(&s, 1);
        assert_ne!(a, b, "epochs draw different fault positions");
    }

    #[test]
    fn per_machine_hour_order_is_preserved() {
        let s = stream();
        let (out, stats) = faults().perturb(&s, 0);
        assert!(stats.dropped > 0);
        assert!(stats.corrupted > 0);
        let machines: std::collections::HashSet<usize> = out.iter().map(|t| t.machine).collect();
        for m in machines {
            let hours: Vec<u64> = out
                .iter()
                .filter(|t| t.machine == m)
                .map(|t| t.hour)
                .collect();
            assert!(
                hours.windows(2).all(|w| w[0] < w[1]),
                "machine {m} out of order"
            );
        }
    }

    #[test]
    fn zero_rates_pass_through_unchanged() {
        let s = stream();
        let f = TelemetryFaults {
            dropout: 0.0,
            burst_rate: 0.0,
            ..faults()
        };
        let (out, stats) = f.perturb(&s, 0);
        assert_eq!(out, s);
        assert_eq!(stats.clean, s.len());
        assert_eq!(stats.dropped + stats.corrupted, 0);
    }

    #[test]
    fn outliers_scale_task_seconds_only() {
        let s = stream();
        let f = TelemetryFaults {
            dropout: 0.0,
            burst_rate: 0.05,
            ..faults()
        };
        let (out, stats) = f.perturb(&s, 0);
        assert_eq!(out.len(), s.len());
        let mut corrupted_seen = 0usize;
        for (orig, got) in s.iter().zip(&out) {
            assert_eq!(orig.cpu, got.cpu);
            assert_eq!(orig.containers, got.containers);
            if (got.task_seconds - orig.task_seconds).abs() > 1e-12 {
                corrupted_seen += 1;
                assert!((got.task_seconds - orig.task_seconds * 10.0).abs() < 1e-9);
            }
        }
        assert_eq!(corrupted_seen, stats.corrupted);
    }
}
