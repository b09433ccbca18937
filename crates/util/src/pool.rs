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
//! once. [`pipeline`] overlaps a producer with its consumer: it pulls an
//! iterator (a simulation's video stream) on a second thread while the
//! calling thread consumes the items in order, and while its queue is
//! full the producer works ahead on the next items with a closure of the
//! caller's (the serving model's inference).
//!
//! Parallelism stays one level deep: a thread the pool spawned runs any
//! nested [`pipeline`] inline, so a pool of simulations never spawns a
//! producer per simulation.
//!
//! No external dependencies: the pool is `std::thread::scope` plus a
//! mutex-guarded queue and mpsc channels, which is plenty for the
//! coarse-grained work (whole simulations, blocks of frames) it schedules.

use std::cell::Cell;
use std::sync::mpsc;
use std::sync::Mutex;

thread_local! {
    /// Set on every thread the pool spawns; [`pipeline`] runs inline there.
    static POOL_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as one the pool spawned.
fn mark_pool_thread() {
    POOL_THREAD.with(|flag| flag.set(true));
}

/// Whether the current thread is one the pool spawned.
fn on_pool_thread() -> bool {
    POOL_THREAD.with(Cell::get)
}

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
            scope.spawn(move || {
                mark_pool_thread();
                loop {
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
        let worker = scope.spawn(|| {
            mark_pool_thread();
            a()
        });
        // A panic in `b` unwinds out of this closure; the scope joins the
        // worker before re-raising it.
        let rb = b();
        match worker.join() {
            Ok(ra) => (ra, rb),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// Blocks waiting in [`pipeline`]'s queue. With the block the consumer
/// holds and the one the producer fills, at most `QUEUED_BLOCKS + 2`
/// blocks exist at once.
const QUEUED_BLOCKS: usize = 1;

/// One hand-off of [`pipeline`]: items in source order, and beside each
/// the look-ahead result the producer had time to make for it.
struct Block<T, A> {
    items: Vec<T>,
    ahead: Vec<Option<A>>,
}

impl<T, A> Block<T, A> {
    fn new() -> Self {
        Self {
            items: Vec::new(),
            ahead: Vec::new(),
        }
    }
}

/// Calls `consume(state, &item, ahead)` for every item of `source`, in
/// order, on the calling thread, and stops at the first error, which it
/// returns.
///
/// When [`available_threads`] resolves to more than one and the calling
/// thread is not one the pool spawned, `source` is pulled on a scoped
/// producer thread, `block` items at a time (a `block` of zero counts as
/// one), so making the next items overlaps consuming these. Consumed
/// blocks go back to the producer, which clears and refills them: every
/// item is dropped on the thread that made it, so the memory a producer
/// allocates stays in its own allocator arena and is reused there.
///
/// The producer also works ahead. `make_ahead(state)` is called once, on
/// the calling thread, just before the producer is spawned, and the
/// closure it returns moves to the producer. While the queue is full the
/// producer calls it on the items of the block it holds, in order, and
/// the consumer gets each result as `Some(&result)` beside its item; an
/// item the producer had no time for comes with `None`. Once every item
/// of its block has a result, the producer waits on the queue, so a
/// queued block is always ready and the consumer never waits on the
/// look-ahead. Results travel and are dropped with their block, on the
/// producer.
///
/// Otherwise, on one thread or inside a [`parallel_map`] or [`join`]
/// worker, it is a plain loop: it spawns nothing, never calls
/// `make_ahead`, and passes `None` for every item.
///
/// The consumer sees the same items in the same order either way, so when
/// `source` owns its seeded state the result does not depend on the
/// thread count. Which items come with a result depends on timing: a
/// consumer that must not depend on it treats a result as a shortcut to
/// what it would compute itself.
///
/// # Errors
///
/// Returns the first error `consume` returns; the producer then stops.
///
/// # Panics
///
/// Propagates a panic from `source`, the look-ahead or `consume` once the
/// producer has finished.
pub fn pipeline<I, S, M, G, A, E, F>(
    source: I,
    block: usize,
    state: &mut S,
    make_ahead: M,
    consume: F,
) -> Result<(), E>
where
    I: Iterator + Send,
    I::Item: Send,
    M: FnOnce(&mut S) -> G,
    G: FnMut(&I::Item) -> A + Send,
    A: Send,
    F: FnMut(&mut S, &I::Item, Option<&A>) -> Result<(), E>,
{
    pipeline_on(0, source, block, state, make_ahead, consume)
}

/// [`pipeline`] with an explicit thread count (`0` = auto).
fn pipeline_on<I, S, M, G, A, E, F>(
    threads: usize,
    mut source: I,
    block: usize,
    state: &mut S,
    make_ahead: M,
    mut consume: F,
) -> Result<(), E>
where
    I: Iterator + Send,
    I::Item: Send,
    M: FnOnce(&mut S) -> G,
    G: FnMut(&I::Item) -> A + Send,
    A: Send,
    F: FnMut(&mut S, &I::Item, Option<&A>) -> Result<(), E>,
{
    if resolve_threads(threads) <= 1 || on_pool_thread() {
        return source.try_for_each(|item| consume(state, &item, None));
    }
    let ahead = make_ahead(state);
    let (full_tx, full_rx) = mpsc::sync_channel::<Block<I::Item, A>>(QUEUED_BLOCKS);
    let (empty_tx, empty_rx) = mpsc::channel::<Block<I::Item, A>>();
    std::thread::scope(|scope| {
        let producer = scope.spawn(move || {
            mark_pool_thread();
            produce(source, block.max(1), ahead, full_tx, empty_rx);
        });
        // The consumer owns `full_rx` and `empty_tx`. However it ends (the
        // queue closed, an error, a panic) dropping them unblocks the
        // producer, so the scope can join it.
        let result = (move || {
            for block in full_rx {
                for (item, ahead) in block.items.iter().zip(&block.ahead) {
                    consume(state, item, ahead.as_ref())?;
                }
                // Fails only when the producer panicked; the block is then
                // dropped here.
                let _ = empty_tx.send(block);
            }
            Ok(())
        })();
        match producer.join() {
            Ok(()) => result,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// [`pipeline`]'s producer: fills blocks from `source` and queues them
/// until it runs dry, taking the consumer's emptied blocks back once
/// `QUEUED_BLOCKS + 2` are out. After the last block it closes the queue
/// and frees the blocks that still come back.
fn produce<I: Iterator, A>(
    mut source: I,
    block: usize,
    mut ahead: impl FnMut(&I::Item) -> A,
    full: mpsc::SyncSender<Block<I::Item, A>>,
    empty: mpsc::Receiver<Block<I::Item, A>>,
) {
    let fresh = std::iter::repeat_with(Block::new).take(QUEUED_BLOCKS + 2);
    for mut next in fresh.chain(&empty) {
        next.items.clear();
        next.ahead.clear();
        next.items.extend(source.by_ref().take(block));
        next.ahead.resize_with(next.items.len(), || None);
        let last = next.items.len() < block;
        if !next.items.is_empty() && queue_working_ahead(&full, next, &mut ahead).is_err() {
            return;
        }
        if last {
            break;
        }
    }
    drop(full);
    empty.iter().for_each(drop);
}

/// Queues `block`. While the queue is full, fills in the look-ahead
/// results of its items one at a time, retrying after each; once every
/// item has one, waits for room. Fails when the consumer has gone.
fn queue_working_ahead<T, A>(
    full: &mpsc::SyncSender<Block<T, A>>,
    mut block: Block<T, A>,
    ahead: &mut impl FnMut(&T) -> A,
) -> Result<(), ()> {
    let mut done = 0;
    loop {
        match full.try_send(block) {
            Ok(()) => return Ok(()),
            Err(mpsc::TrySendError::Disconnected(_)) => return Err(()),
            Err(mpsc::TrySendError::Full(back)) => block = back,
        }
        if done == block.items.len() {
            return full.send(block).map_err(drop);
        }
        block.ahead[done] = Some(ahead(&block.items[done]));
        done += 1;
    }
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

    /// [`pipeline_on`] without a look-ahead: the factory returns a closure
    /// that yields `()`, and `consume` sees only the item.
    fn plain<I, E>(
        threads: usize,
        source: I,
        block: usize,
        mut consume: impl FnMut(&I::Item) -> Result<(), E>,
    ) -> Result<(), E>
    where
        I: Iterator + Send,
        I::Item: Send,
    {
        pipeline_on(
            threads,
            source,
            block,
            &mut (),
            |()| |_: &I::Item| (),
            |(), item, _| consume(item),
        )
    }

    /// Spins, yielding, until `calls` is positive: a consumer that waits
    /// here on its first item holds one block while the producer queues
    /// the next and, with the queue full, works ahead on the one after.
    fn wait_for_look_ahead(calls: &std::sync::atomic::AtomicUsize) {
        while calls.load(std::sync::atomic::Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
    }

    /// The items `pipeline_on(threads, 0..n, block, ..)` consumes.
    fn piped(threads: usize, n: usize, block: usize) -> Vec<usize> {
        let mut seen = Vec::new();
        let result: Result<(), ()> = plain(threads, 0..n, block, |&i| {
            seen.push(i);
            Ok(())
        });
        assert_eq!(result, Ok(()));
        seen
    }

    #[test]
    fn pipeline_consumes_every_item_in_order() {
        let block = 4;
        for threads in [1, 2] {
            for n in [0, 1, block, block + 1, 3 * block + 5] {
                let expect: Vec<usize> = (0..n).collect();
                assert_eq!(piped(threads, n, block), expect, "threads {threads}, n {n}");
            }
        }
        // A zero block counts as one.
        assert_eq!(piped(2, 3, 0), vec![0, 1, 2]);
    }

    #[test]
    fn pipeline_hands_each_item_its_own_look_ahead_result_or_none() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (n, block) = (203, 4);
        for threads in [1, 2] {
            let calls = AtomicUsize::new(0);
            let mut seen = Vec::new();
            let result: Result<(), ()> = pipeline_on(
                threads,
                0..n,
                block,
                &mut seen,
                |_| {
                    |&i: &usize| {
                        calls.fetch_add(1, Ordering::SeqCst);
                        i * 10
                    }
                },
                |seen, &i, ahead| {
                    if threads > 1 && i == 0 {
                        wait_for_look_ahead(&calls);
                    }
                    seen.push((i, ahead.copied()));
                    Ok(())
                },
            );
            assert_eq!(result, Ok(()));
            let items: Vec<usize> = seen.iter().map(|&(i, _)| i).collect();
            assert_eq!(items, (0..n).collect::<Vec<_>>(), "threads {threads}");
            assert!(seen
                .iter()
                .all(|&(i, ahead)| ahead.is_none_or(|a| a == i * 10)));
            let with_result = seen.iter().filter(|(_, ahead)| ahead.is_some()).count();
            if threads == 1 {
                assert_eq!(with_result, 0);
            } else {
                assert!(with_result > 0, "the producer worked ahead");
            }
            // Every result made reached its item: none is lost or reused.
            assert_eq!(
                with_result,
                calls.load(Ordering::SeqCst),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn look_ahead_runs_only_on_the_producer_and_never_inline() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::thread::ThreadId;
        // Runs a pipeline whose look-ahead reports its thread; returns
        // whether the factory was called and the threads the results were
        // made on.
        let run = |threads: usize| {
            let calls = AtomicUsize::new(0);
            let mut ran_on: Vec<ThreadId> = Vec::new();
            let mut built = false;
            let result: Result<(), ()> = pipeline_on(
                threads,
                0..40,
                4,
                &mut built,
                |built| {
                    *built = true;
                    |_: &i32| {
                        calls.fetch_add(1, Ordering::SeqCst);
                        std::thread::current().id()
                    }
                },
                |_, &i, ahead| {
                    if i == 0 && threads > 1 && !on_pool_thread() {
                        wait_for_look_ahead(&calls);
                    }
                    ran_on.extend(ahead.copied());
                    Ok(())
                },
            );
            assert_eq!(result, Ok(()));
            (built, ran_on)
        };
        let caller = std::thread::current().id();
        assert_eq!(run(1), (false, Vec::new()));
        let (built, ran_on) = run(2);
        assert!(built);
        assert!(!ran_on.is_empty());
        assert!(ran_on.iter().all(|&id| id != caller));
        assert!(ran_on.windows(2).all(|w| w[0] == w[1]), "one producer");
        // Inside a pool worker the pipeline is inline: no factory, no
        // results.
        let (joined, ()) = join_on(2, || run(2), || ());
        let workers = parallel_map(vec![(); 2], 2, |_, ()| run(2));
        for inline in workers.into_iter().chain([joined]) {
            assert_eq!(inline, (false, Vec::new()));
        }
    }

    #[test]
    fn pipeline_returns_the_first_error_and_stops_the_producer() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (n, block, k) = (10_000, 8, 20);
        for threads in [1, 2] {
            let pulled = AtomicUsize::new(0);
            let source = (0..n).inspect(|_| {
                pulled.fetch_add(1, Ordering::SeqCst);
            });
            let mut consumed = 0;
            let result = pipeline_on(
                threads,
                source,
                block,
                &mut consumed,
                |_| |&i: &usize| i,
                |consumed, &i, _| {
                    if i == k {
                        return Err(format!("item {i}"));
                    }
                    *consumed += 1;
                    Ok(())
                },
            );
            assert_eq!(result, Err(format!("item {k}")), "threads {threads}");
            assert_eq!(consumed, k, "threads {threads}");
            // The producer stops within the blocks it may hold.
            let pulled = pulled.load(Ordering::SeqCst);
            assert!(
                pulled <= k + 1 + (QUEUED_BLOCKS + 2) * block,
                "threads {threads}: pulled {pulled}"
            );
        }
    }

    #[test]
    fn pipeline_propagates_a_panic_from_either_side() {
        for threads in [1, 2] {
            for producer_panics in [true, false] {
                let result = std::panic::catch_unwind(|| {
                    let source = (0..100).inspect(|&i| {
                        assert!(!(producer_panics && i == 50), "producer side");
                    });
                    plain(threads, source, 8, |&i| {
                        assert!(producer_panics || i != 50, "consumer side");
                        Ok::<(), ()>(())
                    })
                });
                let payload = result.expect_err("the panic propagates");
                let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
                let side = if producer_panics {
                    "producer side"
                } else {
                    "consumer side"
                };
                assert_eq!(message, side, "threads = {threads}");
            }
        }
    }

    #[test]
    fn pipeline_propagates_a_panic_from_the_look_ahead() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(|| {
            pipeline_on(
                2,
                0..100,
                4,
                &mut (),
                |()| {
                    |_: &i32| {
                        calls.fetch_add(1, Ordering::SeqCst);
                        panic!("look-ahead side");
                    }
                },
                |(), &i, _: Option<&()>| {
                    if i == 0 {
                        wait_for_look_ahead(&calls);
                    }
                    Ok::<(), ()>(())
                },
            )
        });
        let payload = result.expect_err("the panic propagates");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "look-ahead side");
    }

    #[test]
    fn pipeline_spawns_a_producer_only_at_the_top_level() {
        let made_on = |threads: usize| {
            let mut ids = Vec::new();
            let source = (0..20).map(|_| std::thread::current().id());
            let result: Result<(), ()> = plain(threads, source, 4, |&id| {
                ids.push(id);
                Ok(())
            });
            assert_eq!(result, Ok(()));
            ids
        };
        let caller = std::thread::current().id();
        assert!(made_on(1).iter().all(|&id| id == caller));
        assert!(made_on(2).iter().all(|&id| id != caller));
        // Inside a pool worker the pipeline runs inline on that worker.
        let on_worker = || (std::thread::current().id(), made_on(2));
        let (joined, _) = join_on(2, on_worker, || ());
        for (worker, ids) in parallel_map(vec![(); 2], 2, |_, ()| on_worker())
            .into_iter()
            .chain([joined])
        {
            assert_ne!(worker, caller);
            assert!(ids.iter().all(|&id| id == worker));
        }
    }

    #[test]
    fn pipeline_drops_every_item_on_the_thread_that_made_it() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::thread::ThreadId;
        /// Records the thread it was made on and the thread it dies on.
        struct Item<'a> {
            made_on: ThreadId,
            log: &'a Mutex<Vec<(ThreadId, ThreadId)>>,
        }
        impl<'a> Item<'a> {
            fn new(log: &'a Mutex<Vec<(ThreadId, ThreadId)>>) -> Self {
                Item {
                    made_on: std::thread::current().id(),
                    log,
                }
            }
        }
        impl Drop for Item<'_> {
            fn drop(&mut self) {
                let dropped_on = std::thread::current().id();
                if let Ok(mut log) = self.log.lock() {
                    log.push((self.made_on, dropped_on));
                }
            }
        }
        let (items, results) = (Mutex::new(Vec::new()), Mutex::new(Vec::new()));
        let calls = AtomicUsize::new(0);
        let source = (0..50).map(|_| Item::new(&items));
        let result: Result<(), ()> = pipeline_on(
            2,
            source,
            4,
            &mut (),
            |()| {
                |_: &Item<'_>| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Item::new(&results)
                }
            },
            |(), _, _| {
                wait_for_look_ahead(&calls);
                Ok(())
            },
        );
        assert_eq!(result, Ok(()));
        let caller = std::thread::current().id();
        for (log, made) in [(items, 50), (results, calls.load(Ordering::SeqCst))] {
            let log = log.into_inner().expect("no thread panicked");
            assert_eq!(log.len(), made);
            assert!(log
                .iter()
                .all(|&(made, dropped)| made == dropped && made != caller));
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
