//! C9 — Seagull backup-window scheduling (Sec 4.3 / Insight 1, \[40\]).
//!
//! Paper numbers: the ML forecaster identifies low-load windows with 99%
//! accuracy; the previous-day heuristic reaches 96% on servers with stable
//! patterns — the flagship "simplicity rules" example.

use crate::Row;
use adas_obs::Obs;
use adas_service::seagull::{generate_fleet, schedule_fleet, BackupForecaster};

/// Runs the experiment.
pub fn run() -> Vec<Row> {
    // 500 servers, 4 weeks of history; mixture dominated by stable patterns
    // as the paper observes for PostgreSQL/MySQL fleets.
    let fleet = generate_fleet(500, 28, 0.6, 0.3, 77);
    let obs = Obs::disabled();
    let ml = schedule_fleet(&fleet, BackupForecaster::MlModel, 2, 0.25, &obs);
    let heuristic = schedule_fleet(&fleet, BackupForecaster::PreviousDay, 2, 0.25, &obs);

    // The heuristic on stable-pattern servers only (the paper's 96% claim
    // is scoped to "servers that follow a stable daily or a weekly pattern").
    let stable = generate_fleet(500, 28, 0.67, 0.33, 78);
    let heuristic_stable = schedule_fleet(&stable, BackupForecaster::PreviousDay, 2, 0.25, &obs);

    vec![
        Row::with_paper(
            "C9",
            "ML low-load window accuracy",
            0.99,
            ml.accuracy,
            "fraction",
        ),
        Row::measured_only(
            "C9",
            "ML mean chosen/optimal load ratio",
            ml.mean_load_ratio,
            "ratio",
        ),
        Row::measured_only(
            "C9",
            "previous-day heuristic accuracy (mixed fleet)",
            heuristic.accuracy,
            "fraction",
        ),
        Row::with_paper(
            "C9",
            "previous-day heuristic accuracy (stable servers)",
            0.96,
            heuristic_stable.accuracy,
            "fraction",
        ),
        Row::measured_only("C9", "servers scheduled", ml.servers as f64, "servers"),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn c9_seagull_shape_holds() {
        let rows = super::run();
        let get = |m: &str| rows.iter().find(|r| r.metric == m).unwrap().measured;
        assert!(get("ML low-load window accuracy") >= 0.97);
        assert!(get("previous-day heuristic accuracy (stable servers)") >= 0.93);
        // ML >= heuristic, matching the paper's ordering.
        assert!(
            get("ML low-load window accuracy")
                >= get("previous-day heuristic accuracy (mixed fleet)") - 0.01
        );
    }
}
