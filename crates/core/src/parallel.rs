//! Deterministic contiguous-chunk parallelism, shared by every
//! thread-parallel path of this crate (λ sweeps, the order search) and by
//! the request-serving tier (`ckpt-service`'s batched admission).
//!
//! The pattern is the Monte-Carlo engine's: items are split into contiguous
//! chunks, one per worker; item `i`'s result always lands in slot `i`; and
//! results are consumed in item order — so as long as the work function is
//! a pure function of its arguments (per-worker *scratch* state is fine:
//! its contents must not influence results, only allocations), the output
//! is **bit-identical for every worker count**. The chunking itself is the
//! simulator's [`scatter_trials_with`]: one implementation of the pattern
//! for the whole workspace.
//!
//! Workers live for one call, so a per-worker arena built by `init` dies
//! with it. The crate-private `ScratchPool` keeps arenas across calls instead.

use std::convert::Infallible;
use std::sync::{Mutex, PoisonError};

use ckpt_simulator::scatter_trials_with;

pub use ckpt_simulator::effective_threads;

/// Maps `work(state, index, item)` over `items` across `threads` workers
/// (`0` = one per core) in deterministic contiguous chunks; each worker
/// owns one `init()` state for its whole chunk (a scratch arena, or `()`).
/// Results come back in item order, independent of the worker count.
pub fn chunked_map_with<I, S, T, G, F>(items: &[I], threads: usize, init: G, work: F) -> Vec<T>
where
    I: Sync,
    S: Send,
    T: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &I) -> T + Sync,
{
    scatter_map(items, threads, init, work).0
}

/// [`chunked_map_with`] that also returns the per-worker states.
fn scatter_map<I, S, T, G, F>(items: &[I], threads: usize, init: G, work: F) -> (Vec<T>, Vec<S>)
where
    I: Sync,
    S: Send,
    T: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &I) -> T + Sync,
{
    let (results, states) =
        scatter_trials_with(items.len(), effective_threads(threads), init, |index, state| {
            Ok::<T, Infallible>(work(state, index, &items[index]))
        });
    let results =
        results.into_iter().map(|result| result.unwrap_or_else(|never| match never {})).collect();
    (results, states)
}

/// A free list of per-worker scratch arenas that outlives the calls using
/// it. [`ScratchPool::chunked_map_with`] gives each worker a kept arena (or
/// a fresh one) and takes the arenas back afterwards, keeping at most
/// [`effective_threads(0)`](effective_threads) of them. Arena contents must
/// not influence results, so reuse leaves every output bit-identical; it
/// only spares each call re-allocating, and re-faulting, its buffers.
pub(crate) struct ScratchPool<S> {
    free: Mutex<Vec<S>>,
}

impl<S: Send> ScratchPool<S> {
    /// An empty pool.
    pub(crate) const fn new() -> Self {
        ScratchPool { free: Mutex::new(Vec::new()) }
    }

    /// [`chunked_map_with`] whose workers draw their states from the pool,
    /// calling `init` only when it is empty.
    pub(crate) fn chunked_map_with<I, T, G, F>(
        &self,
        items: &[I],
        threads: usize,
        init: G,
        work: F,
    ) -> Vec<T>
    where
        I: Sync,
        T: Send,
        G: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &I) -> T + Sync,
    {
        let take = || self.lock().pop().unwrap_or_else(&init);
        let (results, states) = scatter_map(items, threads, take, work);
        let mut free = self.lock();
        free.extend(states);
        free.truncate(effective_threads(0));
        results
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<S>> {
        // The lock is never held while a worker runs, so a poisoned pool
        // still holds whole arenas.
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_item_order_at_any_worker_count() {
        let items: Vec<usize> = (0..23).collect();
        let expected: Vec<usize> = items.iter().map(|i| i * i).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let out = chunked_map_with(
                &items,
                threads,
                || (),
                |_, index, &item| {
                    assert_eq!(index, item);
                    item * item
                },
            );
            assert_eq!(out, expected, "differs at {threads} workers");
        }
    }

    #[test]
    fn per_worker_state_is_initialised_per_chunk() {
        // The state is scratch: counters per worker differ across thread
        // counts, but results (which ignore the counter's value) do not.
        let items = [5usize; 17];
        for threads in [1usize, 4] {
            let out = chunked_map_with(
                &items,
                threads,
                || 0usize,
                |count, _, &item| {
                    *count += 1;
                    item
                },
            );
            assert_eq!(out, items.to_vec());
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(chunked_map_with(&empty, 8, || (), |_, _, &x: &u32| x).is_empty());
        assert_eq!(chunked_map_with(&[7u32], 8, || (), |_, _, &x| x + 1), vec![8]);
    }

    #[test]
    fn pooled_states_are_reused_across_calls() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = ScratchPool::new();
        let created = AtomicUsize::new(0);
        let init = || {
            created.fetch_add(1, Ordering::Relaxed);
            Vec::<usize>::new()
        };
        let items: Vec<usize> = (0..6).collect();
        let work = |seen: &mut Vec<usize>, _: usize, &item: &usize| {
            seen.push(item);
            item * 3
        };
        let first = pool.chunked_map_with(&items, 2, init, work);
        assert_eq!(created.load(Ordering::Relaxed), 2);
        let kept = effective_threads(0).min(2);
        assert_eq!(pool.lock().len(), kept);
        // The second call only creates the states the pool could not keep;
        // kept states carry their history, which results never depend on.
        let second = pool.chunked_map_with(&items, 2, init, work);
        assert_eq!(created.load(Ordering::Relaxed), 2 + (2 - kept));
        assert_eq!(first, second);
        assert_eq!(first, chunked_map_with(&items, 3, Vec::new, work));
        assert_eq!(pool.lock().iter().any(|seen| seen.len() > 3), kept > 0);
        // More workers than the pool may keep: the surplus is dropped.
        let _ = pool.chunked_map_with(&items, 6, init, work);
        assert!(pool.lock().len() <= effective_threads(0));
    }

    #[test]
    fn effective_threads_clamps() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(5), 5);
    }
}
