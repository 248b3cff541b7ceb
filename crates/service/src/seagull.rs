//! Seagull: ML-scheduled backups in low-load windows (Sec 4.3, \[40\]).
//!
//! "To automate the scheduling of backups for PostgreSQL and MySQL servers,
//! we used ML models to forecast user load for each specific server. The
//! system identifies low load windows with 99% accuracy." And from Insight
//! 1: "for PostgreSQL or MySQL servers that follow a stable daily or a
//! weekly pattern, a simple heuristic that predicts the load of a server
//! based on that of the previous day was already sufficient to generate 96%
//! accuracy."
//!
//! The synthetic fleet mixes daily-patterned, weekly-patterned, and noisy
//! servers. Both schedulers forecast the next day hourly and pick the
//! lowest-load `k`-hour window; a placement counts as *accurate* when the
//! true load of the chosen window is within a tolerance of the true optimal
//! window's load.

use adas_ml::forecast::{Forecaster, HoltWinters, HwConfig, SeasonalNaive};
use adas_obs::{digest_f64, Obs, Provenance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hours per day (window scheduling granularity).
pub const HOURS: usize = 24;

/// A server's load archetype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoadPattern {
    /// Same profile every day.
    Daily,
    /// Weekday/weekend distinction.
    Weekly,
    /// No reliable structure.
    Noisy,
}

/// A simulated server with its hourly load history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerLoad {
    /// Pattern generating this server's load.
    pub pattern: LoadPattern,
    /// Hourly load history (len = days * 24), arbitrary load units.
    pub history: Vec<f64>,
    /// The *noise-free* load for the evaluation day (next day after the
    /// history) — the ground truth the scheduler is judged against.
    pub truth_next_day: Vec<f64>,
}

/// Generates a fleet of `n` servers with `days` of history.
///
/// `daily_frac` and `weekly_frac` control the archetype mixture; the rest
/// are noisy.
pub fn generate_fleet(
    n: usize,
    days: usize,
    daily_frac: f64,
    weekly_frac: f64,
    seed: u64,
) -> Vec<ServerLoad> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let u = i as f64 / n as f64;
            let pattern = if u < daily_frac {
                LoadPattern::Daily
            } else if u < daily_frac + weekly_frac {
                LoadPattern::Weekly
            } else {
                LoadPattern::Noisy
            };
            // Per-server profile: a trough at a random night hour, peak
            // during business hours.
            let trough = rng.gen_range(0..6usize);
            let scale = rng.gen_range(50.0..500.0);
            let profile = |hour: usize, weekend: bool| -> f64 {
                let busy = (9..18).contains(&hour);
                let near_trough = (hour as i64 - trough as i64)
                    .rem_euclid(24)
                    .min((trough as i64 - hour as i64).rem_euclid(24))
                    <= 1;
                let mut load = if busy { 1.0 } else { 0.35 };
                if near_trough {
                    load = 0.05;
                }
                if weekend && matches!(pattern, LoadPattern::Weekly) {
                    load *= 0.3;
                }
                load * scale
            };
            let noise_level: f64 = match pattern {
                LoadPattern::Daily | LoadPattern::Weekly => 0.08,
                LoadPattern::Noisy => 0.9,
            };
            let mut history = Vec::with_capacity(days * HOURS);
            for d in 0..days {
                let weekend = d % 7 >= 5;
                for h in 0..HOURS {
                    let base = profile(h, weekend);
                    let jitter = 1.0 + rng.gen_range(-noise_level..=noise_level);
                    history.push((base * jitter).max(0.0));
                }
            }
            let next_weekend = days % 7 >= 5;
            let truth_next_day: Vec<f64> = (0..HOURS).map(|h| profile(h, next_weekend)).collect();
            ServerLoad {
                pattern,
                history,
                truth_next_day,
            }
        })
        .collect()
}

/// Forecasting strategy for the next day's hourly load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackupForecaster {
    /// Previous-day heuristic (seasonal naive, period 24).
    PreviousDay,
    /// Holt-Winters with daily seasonality — the "ML model".
    MlModel,
}

impl BackupForecaster {
    /// Stable model identifier for flight-recorder provenance.
    pub fn model_id(self) -> &'static str {
        match self {
            BackupForecaster::PreviousDay => "seagull-previous-day",
            BackupForecaster::MlModel => "seagull-holt-winters",
        }
    }
}

/// Forecasts the next day's 24 hourly loads for a server.
pub fn forecast_next_day(server: &ServerLoad, method: BackupForecaster) -> Vec<f64> {
    match method {
        BackupForecaster::PreviousDay => SeasonalNaive::fit(&server.history, HOURS)
            .map(|m| m.forecast(HOURS))
            .unwrap_or_else(|_| vec![0.0; HOURS]),
        BackupForecaster::MlModel => HoltWinters::fit(&server.history, HOURS, HwConfig::default())
            .map(|m| m.forecast(HOURS))
            .unwrap_or_else(|_| vec![0.0; HOURS]),
    }
}

/// Index of the lowest-load contiguous `window` hours (non-wrapping).
pub fn lowest_window(loads: &[f64], window: usize) -> usize {
    assert!(
        window >= 1 && window <= loads.len(),
        "window must fit in the day"
    );
    let mut best = 0;
    let mut best_sum = f64::INFINITY;
    for start in 0..=(loads.len() - window) {
        let sum: f64 = loads[start..start + window].iter().sum();
        if sum < best_sum {
            best_sum = sum;
            best = start;
        }
    }
    best
}

/// Scores one placement: `(accurate, chosen/best load ratio, chosen window
/// true load)`, against the accuracy bar [`schedule_fleet`] documents.
fn score_placement(
    server: &ServerLoad,
    chosen: usize,
    window_hours: usize,
    tolerance: f64,
) -> (bool, f64, f64) {
    let load_of = |start: usize| -> f64 {
        server.truth_next_day[start..start + window_hours]
            .iter()
            .sum()
    };
    let best = lowest_window(&server.truth_next_day, window_hours);
    let chosen_load = load_of(chosen);
    let best_load = load_of(best);
    let mean_load = server.truth_next_day.iter().sum::<f64>() / server.truth_next_day.len() as f64;
    let ok = chosen_load <= best_load * (1.0 + tolerance)
        || (chosen_load - best_load) <= 0.05 * mean_load * window_hours as f64;
    let ratio = if best_load > 0.0 {
        chosen_load / best_load
    } else {
        1.0
    };
    (ok, ratio, chosen_load)
}

/// Fleet-level scheduling report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SeagullReport {
    /// Servers evaluated.
    pub servers: usize,
    /// Fraction of servers whose chosen backup window's true load is within
    /// `tolerance` of the optimal window's (the paper's "accuracy").
    pub accuracy: f64,
    /// Mean ratio of chosen-window true load to optimal-window load.
    pub mean_load_ratio: f64,
}

/// Schedules a `window_hours` backup on every server using `method` and
/// scores the placements against ground truth.
///
/// A placement is accurate when `true_load(chosen) <= true_load(best) *
/// (1 + tolerance)` or the absolute excess is negligible relative to the
/// server's mean load.
///
/// Records one flight-recorder decision per server into `obs`: the
/// forecaster's identity, a digest of the load history it saw, the
/// *forecast* load of the chosen window (predicted) vs. its *true* load
/// (observed), and whether the placement met the accuracy bar.
pub fn schedule_fleet(
    fleet: &[ServerLoad],
    method: BackupForecaster,
    window_hours: usize,
    tolerance: f64,
    obs: &Obs,
) -> SeagullReport {
    // The forecasters below are pure, so the whole fleet sweep records
    // through one batch: one lock acquisition instead of several per server.
    let mut batch = obs.batch();
    let span = batch.span_enter("service.seagull", "schedule_fleet", 0.0);
    let mut hits = 0usize;
    let mut ratio_sum = 0.0f64;
    for server in fleet {
        let forecast = forecast_next_day(server, method);
        let chosen = lowest_window(&forecast, window_hours);
        let (ok, ratio, chosen_load) = score_placement(server, chosen, window_hours, tolerance);
        if ok {
            hits += 1;
        }
        ratio_sum += ratio;
        if batch.is_recording() {
            let predicted_load: f64 = forecast[chosen..chosen + window_hours].iter().sum();
            let provenance = Provenance::new(
                method.model_id(),
                1,
                digest_f64(server.history.iter().copied()),
            );
            batch.record_decision(
                "service.seagull",
                "backup_window",
                &provenance,
                predicted_load,
                Some(chosen_load),
                if ok { "accurate" } else { "inaccurate" },
                false,
                HOURS as u64, // outcome observed one simulated day later
                chosen as f64,
            );
            batch.counter_add(
                "service.seagull",
                "placements",
                &[("method", method.model_id())],
                1,
            );
            if ok {
                batch.counter_add(
                    "service.seagull",
                    "accurate_placements",
                    &[("method", method.model_id())],
                    1,
                );
            }
        }
    }
    if batch.is_recording() && !fleet.is_empty() {
        batch.gauge_set(
            "service.seagull",
            "accuracy",
            &[("method", method.model_id())],
            hits as f64 / fleet.len() as f64,
        );
    }
    batch.span_exit(span, HOURS as f64);
    drop(batch);
    SeagullReport {
        servers: fleet.len(),
        accuracy: if fleet.is_empty() {
            0.0
        } else {
            hits as f64 / fleet.len() as f64
        },
        mean_load_ratio: if fleet.is_empty() {
            1.0
        } else {
            ratio_sum / fleet.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet() -> Vec<ServerLoad> {
        // Paper's setting: most servers follow stable daily/weekly patterns.
        generate_fleet(300, 28, 0.6, 0.3, 41)
    }

    /// A 2-hour-window sweep at 25% tolerance, unrecorded.
    fn sweep(fleet: &[ServerLoad], method: BackupForecaster) -> SeagullReport {
        schedule_fleet(fleet, method, 2, 0.25, &Obs::disabled())
    }

    #[test]
    fn ml_model_hits_paper_accuracy() {
        let report = sweep(&fleet(), BackupForecaster::MlModel);
        assert!(report.accuracy >= 0.97, "ML accuracy {}", report.accuracy);
    }

    #[test]
    fn previous_day_heuristic_close_behind() {
        let heuristic = sweep(&fleet(), BackupForecaster::PreviousDay);
        assert!(
            heuristic.accuracy >= 0.90,
            "heuristic accuracy {}",
            heuristic.accuracy
        );
        let ml = sweep(&fleet(), BackupForecaster::MlModel);
        assert!(ml.accuracy >= heuristic.accuracy - 0.02);
    }

    #[test]
    fn lowest_window_finds_trough() {
        let mut loads = vec![10.0; 24];
        loads[3] = 0.1;
        loads[4] = 0.1;
        assert_eq!(lowest_window(&loads, 2), 3);
        assert_eq!(lowest_window(&loads, 1), 3);
    }

    #[test]
    fn patterned_servers_beat_noisy_ones() {
        let patterned = generate_fleet(100, 28, 1.0, 0.0, 5);
        let noisy = generate_fleet(100, 28, 0.0, 0.0, 5);
        let p = sweep(&patterned, BackupForecaster::MlModel);
        let n = sweep(&noisy, BackupForecaster::MlModel);
        assert!(p.accuracy >= n.accuracy);
        assert!(p.mean_load_ratio <= n.mean_load_ratio + 1e-9);
    }

    #[test]
    fn fleet_generation_is_deterministic() {
        let a = generate_fleet(10, 7, 0.5, 0.3, 9);
        let b = generate_fleet(10, 7, 0.5, 0.3, 9);
        assert_eq!(a, b);
        assert_eq!(a[0].history.len(), 7 * 24);
        assert_eq!(a[0].truth_next_day.len(), 24);
    }
}

/// A coordinated fleet schedule: per-server backup window starts plus the
/// per-window assignment counts.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CoordinatedSchedule {
    /// Chosen window start hour per server (same order as the fleet).
    pub starts: Vec<usize>,
    /// Servers whose backup begins in each hour.
    pub per_hour: Vec<usize>,
    /// Mean ratio of each server's chosen-window true load to its optimal
    /// window's load (1.0 = every server got its own optimum).
    pub mean_load_ratio: f64,
}

/// Schedules the whole fleet with a shared-infrastructure constraint: at
/// most `capacity_per_hour` backups may *start* in any hour (backup traffic
/// hits shared storage, so the fleet cannot all pile into the same global
/// trough). Servers are assigned greedily in fleet order to their
/// cheapest-forecast window with remaining capacity.
///
/// This is the fleet-coordination half of Seagull: the per-server
/// forecaster says *where* each server's trough is, and the coordinator
/// spreads the fleet across those troughs.
pub fn schedule_fleet_coordinated(
    fleet: &[ServerLoad],
    method: BackupForecaster,
    window_hours: usize,
    capacity_per_hour: usize,
) -> CoordinatedSchedule {
    assert!(
        capacity_per_hour >= 1,
        "capacity must admit at least one backup per hour"
    );
    let mut per_hour = vec![0usize; HOURS];
    let mut starts = Vec::with_capacity(fleet.len());
    let mut ratio_sum = 0.0f64;
    for server in fleet {
        let forecast = forecast_next_day(server, method);
        // Rank candidate starts by forecast load of their window.
        let mut candidates: Vec<usize> = (0..=(HOURS - window_hours)).collect();
        candidates.sort_by(|&a, &b| {
            let la: f64 = forecast[a..a + window_hours].iter().sum();
            let lb: f64 = forecast[b..b + window_hours].iter().sum();
            la.partial_cmp(&lb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let chosen = candidates
            .iter()
            .copied()
            .find(|&start| per_hour[start] < capacity_per_hour)
            // Capacity exhausted everywhere: fall back to the least-loaded
            // start hour (overload rather than skip the backup).
            .unwrap_or_else(|| {
                (0..=(HOURS - window_hours))
                    .min_by_key(|&s| per_hour[s])
                    .expect("window fits in a day")
            });
        per_hour[chosen] += 1;
        starts.push(chosen);

        let load_of = |start: usize| -> f64 {
            server.truth_next_day[start..start + window_hours]
                .iter()
                .sum()
        };
        let best = lowest_window(&server.truth_next_day, window_hours);
        let (chosen_load, best_load) = (load_of(chosen), load_of(best));
        ratio_sum += if best_load > 0.0 {
            chosen_load / best_load
        } else {
            1.0
        };
    }
    CoordinatedSchedule {
        starts,
        per_hour,
        mean_load_ratio: if fleet.is_empty() {
            1.0
        } else {
            ratio_sum / fleet.len() as f64
        },
    }
}

#[cfg(test)]
mod coordination_tests {
    use super::*;

    #[test]
    fn capacity_respected_and_quality_degrades_gracefully() {
        let fleet = generate_fleet(200, 28, 0.7, 0.2, 51);
        // Troughs cluster in the small hours (the generator places them in
        // 0..6), so capacity 30 keeps the night windows sufficient for the
        // whole fleet while still forcing some spreading.
        let tight = schedule_fleet_coordinated(&fleet, BackupForecaster::MlModel, 2, 30);
        assert!(
            tight.per_hour.iter().all(|&n| n <= 30),
            "{:?}",
            tight.per_hour
        );
        assert_eq!(tight.starts.len(), 200);
        // Quality: bounded degradation versus the uncoordinated ideal.
        let free = schedule_fleet_coordinated(&fleet, BackupForecaster::MlModel, 2, 200);
        assert!(free.mean_load_ratio <= tight.mean_load_ratio + 1e-9);
        assert!(
            tight.mean_load_ratio < 3.0,
            "coordination cost too high: {}",
            tight.mean_load_ratio
        );
    }

    #[test]
    fn unconstrained_matches_per_server_optimum() {
        let fleet = generate_fleet(50, 28, 1.0, 0.0, 13);
        let free = schedule_fleet_coordinated(&fleet, BackupForecaster::MlModel, 2, 50);
        // With pure daily patterns and no contention, everyone lands at (or
        // indistinguishably near) their own trough.
        assert!(free.mean_load_ratio < 1.15, "{}", free.mean_load_ratio);
    }

    #[test]
    fn contention_spreads_the_fleet() {
        // Servers with identical troughs must spill into adjacent windows.
        let fleet = generate_fleet(60, 28, 1.0, 0.0, 13);
        let coordinated = schedule_fleet_coordinated(&fleet, BackupForecaster::MlModel, 2, 4);
        let distinct: std::collections::HashSet<usize> =
            coordinated.starts.iter().copied().collect();
        assert!(
            distinct.len() >= 60 / 4,
            "only {} distinct starts",
            distinct.len()
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let fleet = generate_fleet(2, 28, 1.0, 0.0, 1);
        let _ = schedule_fleet_coordinated(&fleet, BackupForecaster::MlModel, 2, 0);
    }
}
