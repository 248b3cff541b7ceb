//! Simulated time as a heap key.

use std::cmp::Ordering;

/// A totally ordered simulated-time value, for use as a heap key (e.g.
/// `BinaryHeap<Reverse<(OrderedTick, slot)>>`). Construction asserts the
/// tick is finite in debug builds — NaN keys would silently corrupt heap
/// order, the failure mode the old `partial_cmp(..).unwrap_or(Equal)`
/// scans tolerated; ordering falls back to `total_cmp` so release builds
/// stay total either way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderedTick(f64);

impl OrderedTick {
    /// Wraps `t`, asserting finiteness in debug builds.
    #[inline]
    pub fn new(t: f64) -> Self {
        debug_assert!(t.is_finite(), "tick must be finite, got {t}");
        Self(t)
    }

    /// The wrapped tick.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for OrderedTick {}

impl Ord for OrderedTick {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for OrderedTick {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_ticks_sort_with_index_tie_break() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((OrderedTick::new(2.0), 0usize)));
        heap.push(Reverse((OrderedTick::new(1.0), 3usize)));
        heap.push(Reverse((OrderedTick::new(1.0), 1usize)));
        let order: Vec<usize> =
            std::iter::from_fn(|| heap.pop().map(|Reverse((_, i))| i)).collect();
        assert_eq!(order, vec![1, 3, 0], "equal ticks pop lowest index first");
    }
}
