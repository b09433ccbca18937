//! A minimal scoped thread pool with deterministic result ordering.
//!
//! [`parallel_map`] fans a vector of independent work items over a fixed
//! number of `std::thread` workers that self-schedule from a shared queue
//! (idle workers steal the next pending item), then merges the results
//! **by item index** so the output vector is bit-identical to a serial
//! `items.into_iter().enumerate().map(f).collect()` — provided `f` itself
//! is a pure function of `(index, item)`.
//!
//! That proviso is the whole determinism contract of the experiment
//! runner: every simulation owns its seeded RNG (no shared mutable
//! state), so per-device and per-strategy runs are pure in exactly this
//! sense, and running them through the pool cannot change any reported
//! number — only the wall-clock time.
//!
//! [`join`] is the two-closure form under the same contract: it runs two
//! independent computations (the student and teacher pre-training) at
//! once.
//!
//! No external dependencies: the pool is `std::thread::scope` plus a
//! mutex-guarded queue and an mpsc channel, which is plenty for the
//! coarse-grained work (whole simulations) it schedules.

use std::sync::mpsc;
use std::sync::Mutex;

/// Worker-thread count to use when the caller passes `threads == 0`:
/// the `SHOGGOTH_THREADS` environment variable when set and positive,
/// otherwise [`std::thread::available_parallelism`] (1 if unknown).
pub fn available_threads() -> usize {
    let from_env = std::env::var("SHOGGOTH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0);
    from_env.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// Maps `f` over `items` on `threads` worker threads, returning results
/// in item order (index `i` of the output is `f(i, items[i])`).
///
/// `threads == 0` resolves via [`available_threads`]; a resolved count of
/// one (or at most one item) runs inline on the calling thread with no
/// thread machinery at all. Because results are merged by index and `f`
/// receives each item by value, the output is identical for every thread
/// count — the serial path is the specification, the threaded path is the
/// optimization.
///
/// # Panics
///
/// Propagates a panic from `f` after all worker threads have finished
/// (the underlying [`std::thread::scope`] joins every worker).
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = resolve_threads(threads).min(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            let f = &f;
            scope.spawn(move || loop {
                // Take the next pending item; drop the lock before the
                // (expensive) call so other workers keep stealing work.
                let next = match queue.lock() {
                    Ok(mut guard) => guard.next(),
                    Err(poisoned) => poisoned.into_inner().next(),
                };
                let Some((i, item)) = next else { return };
                let result = f(i, item);
                if tx.send((i, result)).is_err() {
                    return;
                }
            });
        }
        // The workers hold the remaining senders; the receive loop ends
        // when the last worker drops its clone.
        drop(tx);
        let mut results: Vec<(usize, R)> = rx.iter().collect();
        // If a worker panicked, scope re-raises after joining — so when we
        // get here every index is present exactly once.
        results.sort_unstable_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, r)| r).collect()
    })
}

/// Runs two independent closures at once and returns `(a(), b())`: `a` on
/// a scoped worker thread, `b` on the calling thread. When
/// [`available_threads`] resolves to one, both run inline, `a` first.
///
/// The same contract as [`parallel_map`]: when each closure owns its
/// seeded state, the pair is identical to the serial `(a(), b())`.
///
/// # Panics
///
/// Propagates a panic from either closure once both have finished.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
    RA: Send,
{
    join_on(0, a, b)
}

/// [`join`] with an explicit thread count (`0` = auto).
fn join_on<A, B, RA, RB>(threads: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
    RA: Send,
{
    if resolve_threads(threads) <= 1 {
        let ra = a();
        return (ra, b());
    }
    std::thread::scope(|scope| {
        let worker = scope.spawn(a);
        // A panic in `b` unwinds out of this closure; the scope joins the
        // worker before re-raising it.
        let rb = b();
        match worker.join() {
            Ok(ra) => (ra, rb),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// Resolves a requested thread count (`0` = auto) to at least one worker.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        available_threads()
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_index_order() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|&v| v * v).collect();
        for threads in [1, 2, 4, 7] {
            let got = parallel_map(items.clone(), threads, |_, v| v * v);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn index_argument_matches_position() {
        let items = vec!["a", "b", "c", "d"];
        let got = parallel_map(items, 3, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u8> = parallel_map(Vec::<u8>::new(), 4, |_, v| v);
        assert!(got.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let got = parallel_map(vec![41], 8, |_, v| v + 1);
        assert_eq!(got, vec![42]);
    }

    #[test]
    fn join_returns_results_in_order() {
        for threads in [1, 2] {
            let (a, b) = join_on(threads, || "worker", || 7);
            assert_eq!((a, b), ("worker", 7), "threads = {threads}");
        }
    }

    #[test]
    fn join_runs_inline_on_one_thread() {
        let caller = std::thread::current().id();
        let (a, b) = join_on(
            1,
            || std::thread::current().id(),
            || std::thread::current().id(),
        );
        assert_eq!((a, b), (caller, caller));
        let (a, b) = join_on(
            2,
            || std::thread::current().id(),
            || std::thread::current().id(),
        );
        assert_ne!(a, caller);
        assert_eq!(b, caller);
    }

    #[test]
    fn join_propagates_a_panic_from_either_side_after_both_finish() {
        use std::sync::atomic::{AtomicBool, Ordering};
        for threads in [1, 2] {
            for worker_panics in [true, false] {
                let a_done = AtomicBool::new(false);
                let b_done = AtomicBool::new(false);
                let result = std::panic::catch_unwind(|| {
                    join_on(
                        threads,
                        || {
                            a_done.store(true, Ordering::SeqCst);
                            assert!(!worker_panics, "worker side");
                        },
                        || {
                            b_done.store(true, Ordering::SeqCst);
                            assert!(worker_panics, "caller side");
                        },
                    )
                });
                let payload = result.expect_err("the panic propagates");
                let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
                let side = if worker_panics {
                    "worker side"
                } else {
                    "caller side"
                };
                assert_eq!(message, side, "threads = {threads}");
                // Inline, a panicking `a` stops the pair like serial code.
                let b_expected = threads == 2 || !worker_panics;
                assert!(a_done.load(Ordering::SeqCst), "threads = {threads}");
                assert_eq!(
                    b_done.load(Ordering::SeqCst),
                    b_expected,
                    "threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn auto_thread_count_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn parallel_equals_serial_for_stateful_items() {
        // Each item carries its own seed-like state; the pool must not
        // perturb per-item computations regardless of scheduling.
        let items: Vec<u64> = (0..32).map(|i| i * 2654435761).collect();
        let work = |_: usize, seed: u64| {
            let mut x = seed.wrapping_add(0x9E3779B97F4A7C15);
            for _ in 0..1000 {
                x ^= x >> 33;
                x = x.wrapping_mul(0xFF51AFD7ED558CCD);
            }
            x
        };
        let serial = parallel_map(items.clone(), 1, work);
        let threaded = parallel_map(items, 4, work);
        assert_eq!(serial, threaded);
    }
}
