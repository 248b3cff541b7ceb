//! Service layer: automating customer-facing decisions (Sec 4.3).
//!
//! "The primary goal of the autonomous cloud services is to automate as many
//! customer-facing decisions and options as possible." Four deployed systems
//! from the paper, each built on the model-granularity spectrum (global /
//! segment / individual) that Insight 2 discusses:
//!
//! * [`seagull`] — backup-window scheduling for PostgreSQL/MySQL fleets via
//!   per-server (individual) load forecasts; the paper reports 99% low-load
//!   window accuracy, with a simple previous-day heuristic already at 96%.
//! * [`moneyball`] — proactive pause/resume for Azure SQL Serverless; 77%
//!   of usage is predictable, and forecasting it cuts cold-start resumes at
//!   bounded compute cost.
//! * [`doppler`] — SKU recommendation for on-prem→cloud migration using
//!   segment models plus a per-customer price-performance ranking; >95%
//!   recommendation accuracy.
//! * [`sparktune`] — Spark configuration auto-tuning: a global model trained
//!   on benchmarks provides the starting point, fine-tuned per application
//!   as observations accumulate.

//! # Example: Seagull in three lines
//!
//! ```
//! use adas_obs::Obs;
//! use adas_service::seagull::{generate_fleet, schedule_fleet, BackupForecaster};
//!
//! let fleet = generate_fleet(50, 14, 0.7, 0.2, 1);
//! let report = schedule_fleet(&fleet, BackupForecaster::MlModel, 2, 0.25, &Obs::disabled());
//! assert!(report.accuracy > 0.9);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod doppler;
pub mod moneyball;
pub mod seagull;
pub mod sparktune;
