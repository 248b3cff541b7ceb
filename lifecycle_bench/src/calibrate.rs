//! Host-speed calibration.
//!
//! The benchmark runs on shared machines whose speed drifts by a quarter or
//! more over minutes, far more than any regression bound worth declaring.
//! Each pass therefore also times a fixed kernel that never changes and is
//! built from the operations the per-job path spends its time in — an
//! event heap, ordered string maps, plan-like tree clones, float math,
//! linear name scans and pointer chasing — and the time metrics are
//! rescaled to the speed the kernel measured when the benchmark was
//! written.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in seconds, on the machine the benchmark was written on
/// (Intel Xeon, 2 vCPUs, median of many passes). Time metrics are reported
/// as if every pass had run at that speed.
pub const REFERENCE_S: f64 = 0.0065;

const EVENTS: usize = 16_384;
const KEYS: usize = 1024;
const TREES: usize = 512;
const TREE_DEPTH: u32 = 5;
const FLOATS: usize = 16_384;
const NAMES: usize = 4096;
const LOOKUPS: usize = 12;
const CHAIN: usize = 1 << 20;
const STEPS: usize = 1 << 14;

/// SplitMix64, so the kernel's inputs never depend on a library's RNG.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Clone)]
struct Node {
    label: String,
    value: i64,
    children: Vec<Node>,
}

fn tree(depth: u32, state: &mut u64) -> Node {
    Node {
        label: format!("n{}", splitmix(state) % 1000),
        value: splitmix(state) as i64,
        children: if depth == 0 {
            Vec::new()
        } else {
            (0..2).map(|_| tree(depth - 1, state)).collect()
        },
    }
}

fn checksum(node: &Node) -> i64 {
    node.children
        .iter()
        .fold(node.value ^ node.label.len() as i64, |acc, c| {
            acc.wrapping_add(checksum(c))
        })
}

/// The fixed kernel and its inputs.
pub struct Calibrator {
    times: Vec<u64>,
    keys: Vec<String>,
    tree: Node,
    floats: Vec<f64>,
    names: Vec<String>,
    next: Vec<u32>,
}

impl Calibrator {
    /// Builds the kernel's inputs (deterministic).
    pub fn new() -> Self {
        let mut state = 0x5eed;
        let times = (0..EVENTS)
            .map(|_| splitmix(&mut state) % 1_000_000)
            .collect();
        let keys = (0..KEYS)
            .map(|_| format!("SELECT * FROM t{} WHERE c = ?", splitmix(&mut state)))
            .collect();
        let tree = tree(TREE_DEPTH, &mut state);
        let floats = (0..FLOATS)
            .map(|_| 1.0 + (splitmix(&mut state) % 1_000_000) as f64)
            .collect();
        let names = (0..NAMES)
            .map(|i| format!("adhoc_table_{:08}", i as u64 * 7919 % 100_000_000))
            .collect();
        // Sattolo's shuffle: one cycle through every slot, so the chase
        // touches distinct cache lines in an unpredictable order.
        let mut next: Vec<u32> = (0..CHAIN as u32).collect();
        for i in (1..CHAIN).rev() {
            let j = (splitmix(&mut state) % i as u64) as usize;
            next.swap(i, j);
        }
        Self {
            times,
            keys,
            tree,
            floats,
            names,
            next,
        }
    }

    /// Runs the kernel once; returns its wall time in seconds.
    pub fn run(&self) -> f64 {
        let start = Instant::now();
        let mut heap = BinaryHeap::with_capacity(EVENTS);
        let mut clock = 0u64;
        for (i, &t) in self.times.iter().enumerate() {
            heap.push(std::cmp::Reverse((t, i)));
            if i % 2 == 1 {
                clock = clock.wrapping_add(heap.pop().map_or(0, |e| e.0 .0));
            }
        }
        let mut map = BTreeMap::new();
        for (i, key) in self.keys.iter().enumerate() {
            map.insert(key.clone(), i);
        }
        let hits = self.keys.iter().filter_map(|k| map.get(k)).sum::<usize>();
        let trees = (0..TREES)
            .map(|_| checksum(&self.tree.clone()))
            .fold(0i64, i64::wrapping_add);
        let logs = self.floats.iter().map(|x| x.ln().exp().sqrt()).sum::<f64>();
        let found = (0..LOOKUPS)
            .filter_map(|k| {
                let target = &self.names[NAMES - 1 - k * (NAMES / LOOKUPS)];
                self.names.iter().position(|n| n == target)
            })
            .sum::<usize>();
        let mut at = 0u32;
        for _ in 0..STEPS {
            at = self.next[at as usize];
        }
        black_box((clock, hits, trees, logs, found, at));
        start.elapsed().as_secs_f64()
    }
}
