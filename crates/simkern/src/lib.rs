//! Discrete-event simulation kernel.
//!
//! Layers whose events feed back into what happens next run on this
//! kernel: the pipeline scheduler's dispatch decisions at every arrival
//! and completion, and the fleet models in `des_bench` and the
//! `fleet_sim` example. Layers whose events never feed back (the cluster
//! executor, the chaos runner) are plain loops instead. The pieces:
//!
//! * [`EventQueue`] — a binary-heap event queue keyed `(time, seq)`, so
//!   ties resolve in push order and replays are deterministic. The
//!   serving gateway's deadline flush uses it directly.
//! * [`Simulation`] / [`Component`] / [`Ctx`] — a simulation owns its one
//!   component by value and hands it every event through `on_event`; the
//!   component reads the clock, schedules its own future events with
//!   [`Ctx::emit_self_at`] and draws seeded randomness with [`Ctx::rng`].
//!   [`Simulation::run`] drives the loop and
//!   [`Simulation::into_component`] hands the component back.
//! * [`OrderedTick`] — a totally ordered time value for heap keys.
//! * [`rng`] — the SplitMix64 seed-derivation scheme shared with
//!   `faultsim`'s per-channel streams, plus a registry of independent
//!   seeded streams.
//! * [`Window`] / [`CountWindow`] / [`Cooldown`] — the tumbling-window and
//!   cooldown arithmetic previously duplicated between the serving
//!   autonomy controller and the watchtower SLO engine.
//!
//! # Determinism rules
//!
//! 1. Events fire in ascending `(time, seq)` order; `seq` is assigned at
//!    push time, so two events at the same instant fire in the order
//!    they were scheduled.
//! 2. The clock never moves backwards; an event scheduled in the past
//!    fires at the current instant.
//! 3. Events come only from [`Simulation::schedule_at`] and the
//!    component's own [`Ctx::emit_self_at`], and every scheduled event
//!    fires exactly once.
//! 4. All randomness flows through [`rng::RngRegistry`]: per-salt streams
//!    are insensitive to how many draws other streams make.

pub mod clock;
pub mod queue;
pub mod rng;
pub mod sim;
pub mod window;

pub use clock::OrderedTick;
pub use queue::EventQueue;
pub use sim::{Component, Ctx, Simulation};
pub use window::{Cooldown, CountWindow, Window};
