//! Property tests for the `simkern` discrete-event kernel, per ISSUE 9:
//! event ordering is a total order (time, then schedule order), a
//! cancelled event never fires, and the clock is monotone no matter what
//! the components do.

use autonomous_data_services::simkern::{Component, ComponentId, Ctx, Simulation};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

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
            ctx.emit_self((), delay);
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
        let recorder = Rc::new(RefCell::new(DispatchLog::default()));
        let mut sim: Simulation<u64> = Simulation::new(1);
        let id = sim.add_component(recorder.clone());
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(t, id, i as u64);
        }
        let processed = sim.run();
        prop_assert_eq!(processed as usize, times.len());

        // Expected order: stable sort by time — seq (schedule order)
        // breaks ties.
        let mut expected: Vec<usize> = (0..times.len()).collect();
        expected.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
        let got: Vec<usize> = recorder
            .borrow()
            .log
            .iter()
            .map(|&(_, payload)| payload as usize)
            .collect();
        prop_assert_eq!(got, expected);
        // And each event fired at exactly its scheduled time.
        for &(fire_time, payload) in &recorder.borrow().log {
            prop_assert_eq!(fire_time.to_bits(), times[payload as usize].to_bits());
        }
    }

    /// A cancelled event never reaches its component; everything else
    /// still fires exactly once.
    #[test]
    fn cancelled_events_never_fire(
        times in grid_times(),
        cancel_mask in proptest::collection::vec((0u32..2).prop_map(|v| v == 1), 64),
    ) {
        let recorder = Rc::new(RefCell::new(DispatchLog::default()));
        let mut sim: Simulation<u64> = Simulation::new(1);
        let id = sim.add_component(recorder.clone());
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| sim.schedule_at(t, id, i as u64))
            .collect();
        let cancelled: Vec<usize> = (0..times.len()).filter(|&i| cancel_mask[i]).collect();
        for &i in &cancelled {
            prop_assert!(sim.cancel(ids[i]), "live events must cancel");
        }
        // Cancelling twice (or after the fact) is a no-op, not a panic.
        for &i in &cancelled {
            prop_assert!(!sim.cancel(ids[i]));
        }
        sim.run();
        let fired: Vec<usize> = recorder
            .borrow()
            .log
            .iter()
            .map(|&(_, p)| p as usize)
            .collect();
        for &i in &cancelled {
            prop_assert!(!fired.contains(&i), "cancelled event {} fired", i);
        }
        prop_assert_eq!(fired.len(), times.len() - cancelled.len());
    }

    /// The clock never runs backwards: across an arbitrary self-emitting
    /// chain (zero delays included) every observed dispatch time is >= the
    /// previous one, and the driver's clock ends at the last dispatch.
    #[test]
    fn clock_is_monotone(delays in proptest::collection::vec(0.0f64..100.0, 0..64)) {
        let chainer = Rc::new(RefCell::new(Chainer {
            delays,
            next: 0,
            times: Vec::new(),
        }));
        let mut sim: Simulation<()> = Simulation::new(1);
        let id = sim.add_component(chainer.clone());
        prop_assert_eq!(id, ComponentId(0));
        sim.schedule(0.0, id, ());
        sim.run();
        let times = &chainer.borrow().times;
        for pair in times.windows(2) {
            prop_assert!(pair[1] >= pair[0], "clock went backwards: {pair:?}");
        }
        if let Some(&last) = times.last() {
            prop_assert_eq!(sim.now().to_bits(), last.to_bits());
        }
    }
}
