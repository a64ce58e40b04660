//! Parallel sweep helper: runs independent simulations across the shared
//! worker pool ([`pimsim_pool::global`]).

use std::sync::{Arc, Mutex};

pub use pimsim_pool::WorkerPool;

/// Applies `f` to every item, fanning out across the process-wide worker
/// pool, and returns results in input order.
///
/// The pool is sized by `PIMSIM_THREADS` when set, else by the machine's
/// available parallelism; at width 1 this degenerates to a plain serial
/// map on the calling thread. See [`parallel_map_on`] for the dispatch.
///
/// # Example
///
/// ```
/// use pimsim_sim::experiments::sweep::parallel_map;
///
/// let squares = parallel_map((0..100u64).collect(), |x| x * x);
/// assert_eq!(squares[7], 49);
/// ```
pub fn parallel_map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send + 'static,
    T: Send + 'static,
    F: Fn(I) -> T + Send + Sync + 'static,
{
    parallel_map_on(pimsim_pool::global(), items, f)
}

/// [`parallel_map`] on an explicit pool, for callers that pin the width.
///
/// Each item is its own pool job: sweep items are whole simulations, so
/// dispatch costs nothing next to them, and per-item claiming keeps every
/// lane busy until the last item starts. Each job writes its output into
/// the slot of its input index. A panic in any job propagates to the
/// caller.
pub fn parallel_map_on<I, T, F>(pool: &WorkerPool, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send + 'static,
    T: Send + 'static,
    F: Fn(I) -> T + Send + Sync + 'static,
{
    if pool.threads().min(items.len()) <= 1 {
        return items.into_iter().map(f).collect();
    }
    let f = Arc::new(f);
    let slots: Arc<Vec<Mutex<Option<T>>>> =
        Arc::new(items.iter().map(|_| Mutex::new(None)).collect());
    let jobs: Vec<pimsim_pool::Job> = items
        .into_iter()
        .enumerate()
        .map(|(i, item)| {
            let f = Arc::clone(&f);
            let slots = Arc::clone(&slots);
            Box::new(move || {
                let out = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            }) as pimsim_pool::Job
        })
        .collect();
    pool.run_batch(jobs); // propagates job panics
    slots
        .iter()
        .map(|slot| {
            slot.lock()
                .expect("result slot poisoned")
                .take()
                .expect("every index filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = parallel_map((0..1000u32).collect(), |x| x + 1);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u32 + 1);
        }
    }

    #[test]
    fn handles_empty_input() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn handles_single_item() {
        let out = parallel_map(vec![41u32], |x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    #[should_panic]
    fn propagates_worker_panics() {
        let _ = parallel_map(vec![0u32, 1, 2, 3], |x| {
            assert!(x != 2, "boom");
            x
        });
    }

    #[test]
    fn balances_heterogeneous_work() {
        // Items with wildly different costs still come back in order.
        let out = parallel_map((0..64u64).collect(), |x| {
            let spin = if x % 8 == 0 { 200_000 } else { 10 };
            let mut acc = x;
            for i in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            x * 2
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn explicit_widths_agree() {
        let serial: Vec<u64> = (0..50u64).map(|x| x * 3 + 1).collect();
        for width in [1, 2, 8] {
            let pool = WorkerPool::new(width);
            let out = parallel_map_on(&pool, (0..50u64).collect(), |x| x * 3 + 1);
            assert_eq!(out, serial, "width {width}");
        }
    }

    #[test]
    fn nests_without_deadlocking() {
        // A sweep whose jobs themselves call parallel_map must complete —
        // inner calls degrade to inline execution.
        let out = parallel_map((0..8u64).collect(), |x| {
            parallel_map((0..8u64).collect(), move |y| x * 8 + y)
                .into_iter()
                .sum::<u64>()
        });
        for (i, v) in out.iter().enumerate() {
            let base = i as u64 * 8;
            assert_eq!(*v, (base..base + 8).sum::<u64>());
        }
    }
}
