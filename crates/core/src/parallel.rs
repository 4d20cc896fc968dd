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

use std::convert::Infallible;

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
    let (results, _) =
        scatter_trials_with(items.len(), effective_threads(threads), init, |index, state| {
            Ok::<T, Infallible>(work(state, index, &items[index]))
        });
    results.into_iter().map(|result| result.unwrap_or_else(|never| match never {})).collect()
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
    fn effective_threads_clamps() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(5), 5);
    }
}
