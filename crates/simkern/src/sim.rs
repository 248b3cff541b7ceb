//! One owned component, its context, and the event loop.
//!
//! A [`Simulation`] owns the one component it runs, by value. The loop
//! pops events in `(time, seq)` order, advances the clock to each event's
//! fire time, and hands the event to [`Component::on_event`] with a
//! [`Ctx`] that can read the clock, schedule further events for the same
//! component, and draw from seeded per-salt RNG streams — nothing else
//! ever moves time. After [`Simulation::run`],
//! [`Simulation::into_component`] hands the component back.

use crate::queue::EventQueue;
use crate::rng::{RngRegistry, SplitMix64};

/// A simulation component: receives every event of its simulation.
pub trait Component<E> {
    /// Handles one event fired at the current simulated time. `ctx` gives
    /// the clock, self-emission and seeded randomness.
    fn on_event(&mut self, event: &E, ctx: &mut Ctx<'_, E>);
}

/// The handler-side view of the kernel.
pub struct Ctx<'a, E> {
    now: f64,
    queue: &'a mut EventQueue<E>,
    rng: &'a mut RngRegistry,
}

impl<E> Ctx<'_, E> {
    /// Current simulated time.
    #[inline]
    pub fn time(&self) -> f64 {
        self.now
    }

    /// Emits `event` to this component at the absolute instant `time`,
    /// clamped to the current instant so the clock stays monotone. The
    /// fire time is taken as an absolute f64 because `now + (t - now)`
    /// does not round-trip exactly in floating point, and a wake that lands
    /// one ulp away from the instant it guards can miss it entirely.
    pub fn emit_self_at(&mut self, event: E, time: f64) {
        debug_assert!(!time.is_nan(), "emit time must not be NaN");
        self.queue.push(time.max(self.now), event);
    }

    /// The seeded stream for `salt` (see [`RngRegistry::stream`]).
    pub fn rng(&mut self, salt: u64) -> &mut SplitMix64 {
        self.rng.stream(salt)
    }
}

/// The discrete-event simulation: one clock, one queue, the component it
/// owns, and the seeded RNG registry.
pub struct Simulation<E, C> {
    now: f64,
    queue: EventQueue<E>,
    component: C,
    rng: RngRegistry,
}

impl<E, C: Component<E>> Simulation<E, C> {
    /// A simulation of `component` at time zero, with all randomness
    /// derived from `master_seed`.
    pub fn new(master_seed: u64, component: C) -> Self {
        Self {
            now: 0.0,
            queue: EventQueue::new(),
            component,
            rng: RngRegistry::new(master_seed),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules `event` at absolute time `time` (clamped to the current
    /// clock so time never runs backwards), from outside the component,
    /// e.g. initial arrivals.
    pub fn schedule_at(&mut self, time: f64, event: E) {
        self.queue.push(time.max(self.now), event);
    }

    /// Dispatches events until none remain and returns how many it
    /// dispatched. The clock stays at the last event's fire time.
    pub fn run(&mut self) -> u64 {
        let mut dispatched = 0;
        while let Some((time, event)) = self.queue.pop() {
            debug_assert!(time >= self.now, "clock must be monotone");
            self.now = time;
            dispatched += 1;
            let mut ctx = Ctx {
                now: time,
                queue: &mut self.queue,
                rng: &mut self.rng,
            };
            self.component.on_event(&event, &mut ctx);
        }
        dispatched
    }

    /// The component, handed back after the run.
    pub fn into_component(self) -> C {
        self.component
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes each received tick into `log` and chains the next one.
    struct Ticker {
        log: Vec<f64>,
        remaining: u32,
    }

    impl Component<u32> for Ticker {
        fn on_event(&mut self, _event: &u32, ctx: &mut Ctx<'_, u32>) {
            self.log.push(ctx.time());
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.emit_self_at(0, ctx.time() + 1.5);
            }
        }
    }

    #[test]
    fn chained_timers_advance_the_clock() {
        let mut sim = Simulation::new(
            0,
            Ticker {
                log: Vec::new(),
                remaining: 3,
            },
        );
        sim.schedule_at(0.0, 0);
        assert_eq!(sim.run(), 4);
        assert_eq!(sim.now(), 4.5);
        assert_eq!(sim.into_component().log, vec![0.0, 1.5, 3.0, 4.5]);
    }

    /// Draws once from stream 5 on every event.
    struct Drawer(Vec<u64>);

    impl Component<()> for Drawer {
        fn on_event(&mut self, _event: &(), ctx: &mut Ctx<'_, ()>) {
            self.0.push(ctx.rng(5).next_u64());
        }
    }

    #[test]
    fn seeded_rng_replays() {
        let draws = |seed| {
            let mut sim = Simulation::new(seed, Drawer(Vec::new()));
            for t in 0..4 {
                sim.schedule_at(t as f64, ());
            }
            sim.run();
            sim.into_component().0
        };
        assert_eq!(draws(77), draws(77));
        assert_ne!(draws(77), draws(78));
    }
}
