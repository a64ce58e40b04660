//! Persistent worker pool behind the experiment sweeps.
//!
//! `experiments::sweep::parallel_map` fans independent simulations out
//! across this pool, one job per simulation. Workers are spawned once
//! and parked between batches. A batch is a `Vec` of boxed jobs; workers
//! *and the calling thread* claim jobs with one `fetch_add` on a shared
//! index, so heterogeneous job lengths balance and the caller never
//! blocks on a queue it could drain itself.
//!
//! Parallelism sits at sweep grain on purpose: a simulation's 32 memory
//! partitions are too little work per GPU cycle to pay a per-cycle
//! barrier (DESIGN.md §4f).
//!
//! # Safety model (no `unsafe`, no deps)
//!
//! Jobs are `'static`: callers move owned data in and get it back through
//! whatever channel the closure captured (`parallel_map` writes each
//! result into an `Arc`-shared slot per input index). Nothing borrows
//! across threads, so the whole crate is `#![forbid(unsafe_code)]` like
//! the rest of the workspace.
//!
//! # Nesting and re-entrancy
//!
//! The pool holds at most one active batch. A `run_batch` that finds the
//! slot occupied (a sweep already fanned out, and one of its jobs runs a
//! sweep of its own) simply runs its own jobs inline on the calling
//! thread. That degrades nested parallelism to serial execution instead
//! of deadlocking or oversubscribing the machine, and — because jobs
//! never observe which thread ran them — has no effect on results.
//!
//! # Determinism
//!
//! The pool guarantees only that every job in a batch ran to completion
//! when `run_batch` returns. Callers that need bit-identical results
//! across thread counts must make their jobs mutually independent (sweep
//! jobs are whole simulations).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle, Thread};
use std::time::Duration;

/// A unit of work: owns everything it touches (see crate docs).
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Spin iterations before a waiter parks. A short spin catches batches
/// posted back to back; parking promptly matters more than spinning on
/// machines with few cores.
const SPIN_LIMIT: u32 = 256;

/// Parked threads wake at least this often to re-check for work, so a
/// lost unpark can delay a batch, never hang it.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// One posted batch of jobs.
struct Batch {
    jobs: Vec<Mutex<Option<Job>>>,
    /// Next unclaimed job index (claimed with `fetch_add`).
    next: AtomicUsize,
    /// Jobs finished (claimed indexes past the end count immediately).
    done: AtomicUsize,
    /// First panic payload from any job, rethrown on the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// The thread blocked in `run_batch`, parked until `done == jobs`.
    waiter: Mutex<Option<Thread>>,
}

impl Batch {
    fn new(jobs: Vec<Job>) -> Self {
        Batch {
            jobs: jobs.into_iter().map(|j| Mutex::new(Some(j))).collect(),
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
            waiter: Mutex::new(None),
        }
    }

    /// Claims and runs one job. Returns `false` once every job is
    /// claimed (not necessarily finished).
    fn run_one(&self) -> bool {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        if idx >= self.jobs.len() {
            return false;
        }
        let job = self.jobs[idx]
            .lock()
            .expect("job slot poisoned")
            .take()
            .expect("each job claimed exactly once");
        if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
            let mut first = self.panic.lock().expect("panic slot poisoned");
            first.get_or_insert(payload);
        }
        if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.jobs.len() {
            if let Some(t) = self.waiter.lock().expect("waiter poisoned").take() {
                t.unpark();
            }
        }
        true
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire) >= self.jobs.len()
    }
}

/// State shared between the pool handle and its workers.
struct Shared {
    /// The active batch, if any (one at a time; see crate docs).
    current: Mutex<Option<Arc<Batch>>>,
    /// Bumped whenever a new batch is posted; workers spin on this.
    epoch: AtomicUsize,
    /// Workers registered for an unpark on the next post.
    sleepers: Mutex<Vec<Thread>>,
    shutdown: AtomicBool,
}

impl Shared {
    fn wake_sleepers(&self) {
        for t in self.sleepers.lock().expect("sleepers poisoned").drain(..) {
            t.unpark();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = usize::MAX;
    let mut spins: u32 = 0;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let epoch = shared.epoch.load(Ordering::Acquire);
        if epoch != seen_epoch {
            seen_epoch = epoch;
            spins = 0;
            let batch = shared.current.lock().expect("batch slot poisoned").clone();
            if let Some(batch) = batch {
                while batch.run_one() {}
            }
            continue;
        }
        spins += 1;
        if spins < SPIN_LIMIT {
            std::hint::spin_loop();
            continue;
        }
        // Register, re-check (post happens-before wake), then park.
        shared
            .sleepers
            .lock()
            .expect("sleepers poisoned")
            .push(thread::current());
        if shared.epoch.load(Ordering::Acquire) == seen_epoch
            && !shared.shutdown.load(Ordering::Acquire)
        {
            thread::park_timeout(PARK_TIMEOUT);
        }
        spins = 0;
    }
}

/// A persistent pool of worker threads executing batches of boxed jobs.
///
/// `threads` counts the calling thread: a pool of `threads = n` spawns
/// `n - 1` workers, and the thread inside [`WorkerPool::run_batch`]
/// always claims jobs alongside them. `threads = 1` spawns nothing and
/// runs every batch inline.
pub struct WorkerPool {
    shared: Arc<Shared>,
    threads: usize,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkerPool {
    /// Builds a pool with `threads` total lanes of parallelism (spawning
    /// `threads - 1` workers; zero threads is clamped to one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            current: Mutex::new(None),
            epoch: AtomicUsize::new(0),
            sleepers: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
        });
        let handles = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("pimsim-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            threads,
            handles,
        }
    }

    /// Total lanes of parallelism (workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job to completion, fanning out across the workers.
    ///
    /// The calling thread participates; if the pool is already busy with
    /// another batch (nested or concurrent use), the jobs run inline on
    /// the caller instead — serial, never deadlocked.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic any job raised (after all jobs finished
    /// or were claimed).
    pub fn run_batch(&self, jobs: Vec<Job>) {
        if jobs.is_empty() {
            return;
        }
        if self.handles.is_empty() {
            for job in jobs {
                job();
            }
            return;
        }
        let batch = Arc::new(Batch::new(jobs));
        {
            let mut current = self.shared.current.lock().expect("batch slot poisoned");
            if current.is_some() {
                drop(current);
                // Pool busy: degrade to inline execution (crate docs).
                while batch.run_one() {}
                self.rethrow(&batch);
                return;
            }
            *current = Some(Arc::clone(&batch));
        }
        self.shared.epoch.fetch_add(1, Ordering::Release);
        self.shared.wake_sleepers();
        // Claim alongside the workers until every job is taken…
        while batch.run_one() {}
        // …then wait for stragglers still running their last claim.
        let mut spins: u32 = 0;
        while !batch.is_done() {
            spins += 1;
            if spins < SPIN_LIMIT {
                std::hint::spin_loop();
                continue;
            }
            *batch.waiter.lock().expect("waiter poisoned") = Some(thread::current());
            if !batch.is_done() {
                thread::park_timeout(PARK_TIMEOUT);
            }
            spins = 0;
        }
        *self.shared.current.lock().expect("batch slot poisoned") = None;
        self.rethrow(&batch);
    }

    fn rethrow(&self, batch: &Batch) {
        let payload = batch.panic.lock().expect("panic slot poisoned").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Bump the epoch so spinning workers re-check shutdown promptly.
        self.shared.epoch.fetch_add(1, Ordering::Release);
        self.shared.wake_sleepers();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The `PIMSIM_THREADS` environment override, if set to a positive
/// integer: the global pool's size, and therefore the sweep width.
pub fn env_threads() -> Option<usize> {
    std::env::var("PIMSIM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// The process-wide shared pool: sized by `PIMSIM_THREADS` when set,
/// otherwise by `std::thread::available_parallelism`. Created on first
/// use; workers park between batches.
pub fn global() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let threads = env_threads().unwrap_or_else(|| {
            thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        WorkerPool::new(threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let hits = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Job> = (0..8)
            .map(|_| {
                let hits = Arc::clone(&hits);
                Box::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as Job
            })
            .collect();
        pool.run_batch(jobs);
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn all_jobs_complete_across_workers() {
        let pool = WorkerPool::new(4);
        for round in 0..50 {
            let sum = Arc::new(AtomicUsize::new(0));
            let jobs: Vec<Job> = (0..16)
                .map(|i| {
                    let sum = Arc::clone(&sum);
                    Box::new(move || {
                        sum.fetch_add(i + round, Ordering::Relaxed);
                    }) as Job
                })
                .collect();
            pool.run_batch(jobs);
            assert_eq!(
                sum.load(Ordering::Relaxed),
                (0..16).sum::<usize>() + 16 * round
            );
        }
    }

    #[test]
    fn results_round_trip_through_a_bin() {
        // Move owned state out, get it back through a captured bin.
        let pool = WorkerPool::new(3);
        type Bin = Arc<Mutex<Vec<(usize, Vec<u64>)>>>;
        let bin: Bin = Arc::new(Mutex::new(Vec::new()));
        let jobs: Vec<Job> = (0..6)
            .map(|i| {
                let bin = Arc::clone(&bin);
                let mut owned: Vec<u64> = (0..100).map(|x| x + i as u64).collect();
                Box::new(move || {
                    for v in &mut owned {
                        *v *= 2;
                    }
                    bin.lock().unwrap().push((i, owned));
                }) as Job
            })
            .collect();
        pool.run_batch(jobs);
        let mut shards = Arc::try_unwrap(bin).unwrap().into_inner().unwrap();
        shards.sort_by_key(|(i, _)| *i);
        assert_eq!(shards.len(), 6);
        for (i, data) in shards {
            assert_eq!(data[0], 2 * i as u64);
            assert_eq!(data.len(), 100);
        }
    }

    #[test]
    fn nested_run_batch_degrades_to_inline() {
        let pool = Arc::new(WorkerPool::new(2));
        let outer: Vec<Job> = vec![{
            let hits = Arc::new(AtomicUsize::new(0));
            let hits2 = Arc::clone(&hits);
            Box::new(move || {
                // This inner batch may find the pool busy with the outer
                // one; either way all inner jobs must complete.
                let inner: Vec<Job> = (0..4)
                    .map(|_| {
                        let hits = Arc::clone(&hits2);
                        Box::new(move || {
                            hits.fetch_add(1, Ordering::Relaxed);
                        }) as Job
                    })
                    .collect();
                global().run_batch(inner);
                assert_eq!(hits2.load(Ordering::Relaxed), 4);
            }) as Job
        }];
        pool.run_batch(outer);
    }

    #[test]
    fn job_panics_propagate_to_the_caller() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<Job> = (0..4)
            .map(|i| {
                Box::new(move || {
                    assert!(i != 2, "boom");
                }) as Job
            })
            .collect();
        let err = catch_unwind(AssertUnwindSafe(|| pool.run_batch(jobs)));
        assert!(err.is_err(), "panic must propagate");
        // The pool stays usable afterwards.
        let ok = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ok);
        pool.run_batch(vec![
            Box::new(move || flag.store(true, Ordering::Relaxed)) as Job
        ]);
        assert!(ok.load(Ordering::Relaxed));
    }

    #[test]
    fn env_threads_parses_positive_integers_only() {
        // Not set in the test environment unless the harness exported it;
        // just exercise the parser on the current state.
        let parsed = env_threads();
        if let Some(n) = parsed {
            assert!(n > 0);
        }
    }
}
