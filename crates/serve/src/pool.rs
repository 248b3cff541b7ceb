//! Bounded worker pool and batch result cells.
//!
//! The pool provides *physical* parallelism only: jobs submitted to it are
//! pure batched inference closures whose results land in a [`BatchPromise`].
//! All observable state mutation stays on the caller thread (see the crate
//! docs), so the pool affects wall-clock timing but never results. Uses
//! `std::sync::{Mutex, Condvar}` — the vendored `parking_lot` shim has no
//! condition variables.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

/// Fixed-size thread pool with a bounded job queue.
///
/// [`WorkerPool::submit`] blocks the producer while the queue is full — this
/// is the gateway's physical backpressure. Dropping the pool drains
/// outstanding jobs and joins every worker.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (min 1) behind a queue of `capacity` jobs
    /// (min 1).
    pub fn new(workers: usize, capacity: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Enqueues a job, blocking while the queue is at capacity
    /// (backpressure). Jobs submitted after shutdown are dropped.
    pub fn submit(&self, job: Job) {
        let mut state = self.shared.state.lock().expect("pool lock");
        while state.queue.len() >= self.shared.capacity && !state.shutdown {
            state = self.shared.not_full.wait(state).expect("pool lock");
        }
        if state.shutdown {
            return;
        }
        state.queue.push_back(job);
        drop(state);
        self.shared.not_empty.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            state.shutdown = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool lock");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    shared.not_full.notify_one();
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.not_empty.wait(state).expect("pool lock");
            }
        };
        job();
    }
}

/// One-shot cell a batched inference result is published into.
///
/// The worker calls [`BatchPromise::fill`] exactly once; callers block in
/// [`BatchPromise::get`] until the batch is ready. When the gateway runs
/// with zero workers the promise is filled inline before anyone waits.
pub struct BatchPromise {
    slot: Mutex<Option<Vec<f64>>>,
    ready: Condvar,
}

impl BatchPromise {
    /// Creates an unfilled promise.
    pub fn new() -> Self {
        Self {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// Publishes the batch results (first fill wins).
    pub fn fill(&self, values: Vec<f64>) {
        let mut slot = self.slot.lock().expect("promise lock");
        if slot.is_none() {
            *slot = Some(values);
        }
        drop(slot);
        self.ready.notify_all();
    }

    /// Blocks until the batch is filled, then returns row `index`.
    pub fn get(&self, index: usize) -> f64 {
        let mut slot = self.slot.lock().expect("promise lock");
        while slot.is_none() {
            slot = self.ready.wait(slot).expect("promise lock");
        }
        slot.as_ref().expect("filled")[index]
    }
}

impl Default for BatchPromise {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_all_jobs() {
        let pool = WorkerPool::new(4, 8);
        let counter = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(BatchPromise::new());
        let total = 64;
        for i in 0..total {
            let counter = Arc::clone(&counter);
            let done = Arc::clone(&done);
            pool.submit(Box::new(move || {
                if counter.fetch_add(1, Ordering::SeqCst) + 1 == total {
                    done.fill(vec![i as f64]);
                }
            }));
        }
        done.get(0);
        assert_eq!(counter.load(Ordering::SeqCst), total);
    }

    #[test]
    fn promise_blocks_until_filled() {
        let promise = Arc::new(BatchPromise::new());
        let writer = Arc::clone(&promise);
        let handle = std::thread::spawn(move || writer.fill(vec![2.5, 7.5]));
        assert_eq!(promise.get(1), 7.5);
        handle.join().unwrap();
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(2, 2);
        pool.submit(Box::new(|| {}));
        drop(pool); // must not hang
    }
}
