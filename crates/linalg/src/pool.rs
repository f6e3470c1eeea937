//! A shared, lazily-initialized worker pool for the parallel kernels.
//!
//! The previous design spawned fresh OS threads inside every
//! threaded GEMM call; at GCN-layer sizes the spawn/join cost was a
//! measurable fraction of the kernel itself. This pool starts its
//! workers once (first parallel kernel call) and dispatches borrowed
//! closures to them, rayon-style, so steady-state parallel calls cost
//! two atomics and a channel send per job instead of a thread spawn.
//!
//! Sizing: `LINALG_NUM_THREADS` when set, else
//! `std::thread::available_parallelism()`. With one worker every
//! dispatch runs inline on the caller thread, so single-core machines
//! pay nothing for the abstraction.
//!
//! Scoped-dispatch safety: jobs may borrow stack data even though
//! workers are `'static`. [`ThreadPool::run_scoped`] is sound for the
//! same reason `std::thread::scope` is — it blocks until every
//! submitted job has finished (panicked jobs included) before
//! returning, so no borrow can outlive its owner. That argument needs
//! one lifetime transmute, the only `unsafe` in this crate.

#![allow(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A closure queued onto the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Tracks one `run_scoped` batch: outstanding jobs + panic flag.
struct Batch {
    state: Mutex<(usize, bool)>,
    done: Condvar,
}

impl Batch {
    fn new(jobs: usize) -> Self {
        Self {
            state: Mutex::new((jobs, false)),
            done: Condvar::new(),
        }
    }

    fn complete(&self, panicked: bool) {
        let mut state = self.state.lock().expect("batch state lock");
        state.0 -= 1;
        state.1 |= panicked;
        if state.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every job has run; returns the panic flag.
    fn wait(&self) -> bool {
        let mut state = self.state.lock().expect("batch state lock");
        while state.0 > 0 {
            state = self.done.wait(state).expect("batch state wait");
        }
        state.1
    }
}

/// The shared worker pool. Obtain it with [`global`].
pub struct ThreadPool {
    sender: Sender<Job>,
    workers: usize,
}

impl ThreadPool {
    pub(crate) fn with_workers(workers: usize) -> Self {
        let (sender, receiver) = channel::<Job>();
        if workers > 1 {
            let receiver = Arc::new(Mutex::new(receiver));
            for index in 0..workers {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("linalg-worker-{index}"))
                    .spawn(move || loop {
                        let job = match receiver.lock() {
                            Ok(guard) => guard.recv(),
                            Err(_) => return,
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => return, // pool dropped
                        }
                    })
                    .expect("spawn linalg worker");
            }
        }
        Self { sender, workers }
    }

    /// Number of worker threads (1 means all dispatch is inline).
    pub fn num_threads(&self) -> usize {
        self.workers
    }

    /// Runs every job to completion before returning, executing them on
    /// the pool's workers. Panics in jobs are propagated as a single
    /// panic on the caller after all jobs finish.
    ///
    /// Jobs may borrow the caller's stack (see the module docs for the
    /// soundness argument). Do not call from inside a pool job: workers
    /// blocking on a nested batch can deadlock the pool.
    pub fn run_scoped<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if self.workers <= 1 || jobs.len() <= 1 {
            for job in jobs {
                job();
            }
            return;
        }
        let batch = Arc::new(Batch::new(jobs.len()));
        for job in jobs {
            // SAFETY: `batch.wait()` below blocks this (caller) frame
            // until the worker has executed the closure and called
            // `complete`, even if the closure panics. Every borrow in
            // `job` therefore strictly outlives its execution, which is
            // the invariant the 'static bound exists to guarantee.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
            let batch = Arc::clone(&batch);
            let wrapped: Job = Box::new(move || {
                let panicked = catch_unwind(AssertUnwindSafe(job)).is_err();
                batch.complete(panicked);
            });
            self.sender
                .send(wrapped)
                .expect("pool workers outlive the pool handle");
        }
        if batch.wait() {
            panic!("a linalg thread-pool job panicked");
        }
    }

    /// Splits `data` into `parts` contiguous chunks with the given
    /// boundary offsets (in elements) and runs `f(chunk_index, chunk)`
    /// for each on the pool. `bounds` must start at 0, end at
    /// `data.len()`, and be non-decreasing.
    pub fn run_on_partitions<T, F>(&self, data: &mut [T], bounds: &[usize], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(bounds.first() == Some(&0) && bounds.last() == Some(&data.len()));
        let f = &f;
        let mut rest = data;
        let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        for (index, window) in bounds.windows(2).enumerate() {
            let width = window[1] - window[0];
            let (chunk, tail) = rest.split_at_mut(width);
            rest = tail;
            jobs.push(Box::new(move || f(index, chunk)));
        }
        self.run_scoped(jobs);
    }
}

/// The process-wide pool, created on first use.
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| ThreadPool::with_workers(configured_workers()))
}

/// Worker count of the global pool without forcing initialization cost
/// elsewhere (it initializes the pool, which is cheap).
pub fn num_threads() -> usize {
    global().num_threads()
}

fn configured_workers() -> usize {
    if let Ok(v) = std::env::var("LINALG_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.clamp(1, 256);
        }
    }
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

// Keep the receiver type name referenced so the channel halves stay
// documented together (workers own the sole Receiver via Arc<Mutex<_>>).
#[allow(dead_code)]
type WorkerReceiver = Arc<Mutex<Receiver<Job>>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn test_pool(workers: usize) -> ThreadPool {
        ThreadPool::with_workers(workers)
    }

    #[test]
    fn scoped_jobs_borrow_and_complete() {
        for workers in [1, 4] {
            let pool = test_pool(workers);
            let counter = AtomicUsize::new(0);
            let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..16)
                .map(|_| {
                    let counter = &counter;
                    Box::new(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            pool.run_scoped(jobs);
            assert_eq!(counter.load(Ordering::Relaxed), 16);
        }
    }

    #[test]
    fn partitions_cover_disjoint_chunks() {
        for workers in [1, 3] {
            let pool = test_pool(workers);
            let mut data = vec![0usize; 10];
            pool.run_on_partitions(&mut data, &[0, 4, 4, 7, 10], |index, chunk| {
                for v in chunk {
                    *v = index + 1;
                }
            });
            assert_eq!(data, vec![1, 1, 1, 1, 3, 3, 3, 4, 4, 4]);
        }
    }

    #[test]
    fn panics_propagate_after_batch_completes() {
        let pool = test_pool(4);
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..8)
                .map(|i| {
                    let finished = &finished;
                    Box::new(move || {
                        if i == 3 {
                            panic!("boom");
                        }
                        finished.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            pool.run_scoped(jobs);
        }));
        assert!(result.is_err());
        assert_eq!(finished.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn global_pool_is_usable() {
        assert!(num_threads() >= 1);
        let total = AtomicUsize::new(0);
        global().run_scoped(
            (0..4)
                .map(|i| {
                    let total = &total;
                    Box::new(move || {
                        total.fetch_add(i, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect(),
        );
        assert_eq!(total.load(Ordering::Relaxed), 6);
    }
}
