//! # Autonomous Data Services
//!
//! A from-scratch Rust reproduction of *"Towards Building Autonomous Data
//! Services on Azure"* (SIGMOD-Companion 2023, Zhu et al.): the layered
//! architecture of learned components the paper describes across the cloud
//! infrastructure, query engine and service layers, built against
//! deterministic simulated substrates.
//!
//! This facade crate re-exports every workspace crate under one roof. For a
//! guided tour, run the examples:
//!
//! ```text
//! cargo run --release --example quickstart
//! cargo run --release --example recurring_jobs
//! cargo run --release --example serverless_autoscale
//! cargo run --release --example sku_migration
//! ```
//!
//! and regenerate the paper's figures/claims with
//! `cargo run --release -p adas-bench --bin experiments`.
//!
//! ## Layer map (paper Sec 4 → crates)
//!
//! | Layer | Paper system | Crate |
//! |---|---|---|
//! | Infrastructure | machine-behaviour models (Fig 1), KEA, proactive provisioning (Fig 2) | [`infra`] |
//! | Engine | workload analysis (Peregrine) | [`workload`] |
//! | Engine | SQL front-end (parser + phased rewrite pipeline) | [`sql`] |
//! | Engine | engine substrate (plans, optimizer, stage DAGs, cluster sim) | [`engine`] |
//! | Engine | cardinality/cost micromodels, steering | [`learned`] |
//! | Engine | checkpoint optimizer (Phoebe) | [`checkpoint`] |
//! | Engine | computation reuse (CloudViews) | [`reuse`] |
//! | Engine | pipeline optimization (Pipemizer, Wing) | [`pipeline`] |
//! | Service | Seagull, Moneyball, Doppler, Spark auto-tuning | [`service`] |
//! | Cross-cutting | model hierarchy, feedback loop, guardrails, AlgorithmStore, joint optimization | [`core`] |
//! | Substrates | telemetry store & seasonal analysis | [`telemetry`]; ML models: [`ml`] |
//! | Cross-cutting | model-serving gateway (batching, cache, breakers) | [`serve`] |
//! | Validation | deterministic fault injection & chaos testing | [`faultsim`] |
//! | Observability | flight recorder (spans, metrics, decision provenance) | [`obs`] |
//! | Observability | SLO burn rates, incident reconstruction, critical-path profiling | [`watchtower`] |
//! | Substrates | discrete-event simulation kernel (event queue, one owned component, seeded RNG) | [`simkern`] |

#![warn(missing_docs)]

pub use adas_checkpoint as checkpoint;
pub use adas_core as core;
pub use adas_engine as engine;
pub use adas_faultsim as faultsim;
pub use adas_infra as infra;
pub use adas_learned as learned;
pub use adas_ml as ml;
pub use adas_obs as obs;
pub use adas_pipeline as pipeline;
pub use adas_reuse as reuse;
pub use adas_serve as serve;
pub use adas_service as service;
pub use adas_simkern as simkern;
pub use adas_sql as sql;
pub use adas_telemetry as telemetry;
pub use adas_watchtower as watchtower;
pub use adas_workload as workload;
