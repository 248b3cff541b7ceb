//! The event queue: a binary heap keyed `(time, seq)`.
//!
//! `seq` is a schedule-order sequence number, so events at the same
//! simulated instant pop in the order they were pushed — the property
//! that makes every replay byte-identical. A pushed event cannot be
//! withdrawn: a caller that no longer needs it ignores it when it pops.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap entry: ordered by `(time, seq)` only, payload never compared.
struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse both keys: BinaryHeap is a max-heap and we want the
        // earliest (time, seq) on top. Times are asserted finite at
        // push time, so total_cmp agrees with the usual order.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic event queue. See the module docs for the ordering
/// contract.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Queues `event` at absolute time `time`. Times must be finite; NaN
    /// or infinite fire times would silently corrupt the heap order, so
    /// they are rejected loudly in all builds.
    pub fn push(&mut self, time: f64, event: E) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Fire time of the next event, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the next event in `(time, seq)` order, with its fire time.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(2.0, "late");
        q.push(1.0, "early-a");
        q.push(1.0, "early-b");
        q.push(0.5, "first");
        assert_eq!(q.peek_time(), Some(0.5));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["first", "early-a", "early-b", "late"]);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_times_rejected() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }
}
