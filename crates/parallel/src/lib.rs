//! Scoped-thread fan-out primitives shared by the branch-and-bound
//! solver and the experiment drivers.
//!
//! The crate deliberately exposes a tiny, deterministic surface instead
//! of a general-purpose thread pool:
//!
//! * [`par_map`] — map a function over a slice with a shared work
//!   queue (an atomic cursor), returning results **in input order**
//!   regardless of which worker produced them;
//! * [`par_run`] — the index-only variant for "run these N independent
//!   jobs" fan-outs;
//! * [`par_map_threads`] — [`par_map`] with an explicit worker count,
//!   for callers that sweep thread counts inside one process;
//! * [`thread_count`] — the worker count used by both, derived from
//!   `std::thread::available_parallelism` and overridable with the
//!   `UBIQOS_THREADS` environment variable (handy both for pinning
//!   benchmarks and for exercising the parallel code path on
//!   single-core machines).
//!
//! Worker panics are re-raised on the caller's thread, so a failing
//! closure behaves like it would in a serial loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads [`par_map`] and [`par_run`] spawn.
///
/// `UBIQOS_THREADS` (a positive integer) takes precedence; otherwise
/// the detected hardware parallelism is used, floored at 2 so the
/// concurrent code path is exercised even on single-core hosts.
pub fn thread_count() -> usize {
    if let Ok(forced) = std::env::var("UBIQOS_THREADS") {
        if let Ok(n) = forced.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .max(2)
}

/// Maps `f` over `items` on [`thread_count`] scoped threads.
///
/// Items are claimed from a shared atomic cursor, so imbalanced work
/// distributes itself; results are reassembled in input order, making
/// the output independent of scheduling. With one thread (or at most
/// one item) the map degenerates to a serial loop with no spawning.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_threads(thread_count(), items, f)
}

/// [`par_map`] with an explicit worker count instead of the
/// `UBIQOS_THREADS`-derived default.
///
/// Callers that sweep thread counts inside one process use this to pin
/// the fan-out width per call without mutating the process-global
/// environment. Results are reassembled in input order, so the output
/// is identical at every `workers` value.
pub fn par_map_threads<T, U, F>(workers: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(i, item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });

    let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for (i, value) in buckets.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index claimed twice");
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed by exactly one worker"))
        .collect()
}

/// Runs `f(0), f(1), …, f(jobs - 1)` across [`thread_count`] threads,
/// returning the results in index order.
pub fn par_run<U, F>(jobs: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let indices: Vec<usize> = (0..jobs).collect();
    par_map(&indices, |_, &i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i, x);
            // Uneven work so fast workers overtake slow ones.
            if x % 17 == 0 {
                std::thread::yield_now();
            }
            x * 3
        });
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_run_matches_serial() {
        assert_eq!(
            par_run(9, |i| i * i),
            (0..9).map(|i| i * i).collect::<Vec<_>>()
        );
        assert_eq!(par_run(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_run(1, |i| i + 5), vec![5]);
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            par_run(8, |i| {
                if i == 3 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn thread_count_is_at_least_two_without_override() {
        if std::env::var("UBIQOS_THREADS").is_err() {
            assert!(thread_count() >= 2);
        }
    }

    #[test]
    fn explicit_worker_counts_agree_with_serial() {
        let items: Vec<usize> = (0..100).collect();
        let expect: Vec<usize> = items.iter().map(|x| x + 1).collect();
        for workers in [0, 1, 2, 8, 200] {
            assert_eq!(par_map_threads(workers, &items, |_, &x| x + 1), expect);
        }
        assert_eq!(par_map_threads(4, &[] as &[usize], |_, &x| x), Vec::new());
    }
}
