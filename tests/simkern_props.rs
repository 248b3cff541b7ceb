//! Property tests for the `simkern` discrete-event kernel: event ordering
//! is a total order (time, then schedule order), and the clock is
//! monotone no matter what the component does.

use autonomous_data_services::simkern::{Component, Ctx, Simulation};
use proptest::prelude::*;

/// Records every dispatch it receives as `(fire_time, payload)`.
#[derive(Default)]
struct DispatchLog {
    log: Vec<(f64, u64)>,
}

impl Component<u64> for DispatchLog {
    fn on_event(&mut self, event: &u64, ctx: &mut Ctx<'_, u64>) {
        self.log.push((ctx.time(), *event));
    }
}

/// Re-emits to itself with the next queued delay on every dispatch, so the
/// event chain is generated *during* the run, not pre-scheduled.
struct Chainer {
    delays: Vec<f64>,
    next: usize,
    times: Vec<f64>,
}

impl Component<()> for Chainer {
    fn on_event(&mut self, _event: &(), ctx: &mut Ctx<'_, ()>) {
        self.times.push(ctx.time());
        if self.next < self.delays.len() {
            let delay = self.delays[self.next];
            self.next += 1;
            ctx.emit_self_at((), ctx.time() + delay);
        }
    }
}

/// Times drawn from a small grid so same-instant ties are common — the
/// interesting case for the (time, seq) total order.
fn grid_times() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((0u32..40).prop_map(|k| k as f64 * 0.5), 1..64)
}

proptest! {
    /// Dispatch order is exactly the stable sort of the scheduled events
    /// by fire time: ties resolve in schedule order, every event fires
    /// exactly once, and the order is a total order (no pair is ever
    /// swapped across runs).
    #[test]
    fn event_ordering_is_a_total_order(times in grid_times()) {
        let mut sim = Simulation::new(1, DispatchLog::default());
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(t, i as u64);
        }
        let processed = sim.run();
        prop_assert_eq!(processed as usize, times.len());
        let log = sim.into_component().log;

        // Expected order: stable sort by time — seq (schedule order)
        // breaks ties.
        let mut expected: Vec<usize> = (0..times.len()).collect();
        expected.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
        let got: Vec<usize> = log.iter().map(|&(_, payload)| payload as usize).collect();
        prop_assert_eq!(got, expected);
        // And each event fired at exactly its scheduled time.
        for &(fire_time, payload) in &log {
            prop_assert_eq!(fire_time.to_bits(), times[payload as usize].to_bits());
        }
    }

    /// The clock never runs backwards: across an arbitrary self-emitting
    /// chain (zero delays included) every observed dispatch time is >= the
    /// previous one, and the driver's clock ends at the last dispatch.
    #[test]
    fn clock_is_monotone(delays in proptest::collection::vec(0.0f64..100.0, 0..64)) {
        let chainer = Chainer {
            delays,
            next: 0,
            times: Vec::new(),
        };
        let mut sim = Simulation::new(1, chainer);
        sim.schedule_at(0.0, ());
        sim.run();
        let now = sim.now();
        let times = sim.into_component().times;
        for pair in times.windows(2) {
            prop_assert!(pair[1] >= pair[0], "clock went backwards: {pair:?}");
        }
        if let Some(&last) = times.last() {
            prop_assert_eq!(now.to_bits(), last.to_bits());
        }
    }
}
