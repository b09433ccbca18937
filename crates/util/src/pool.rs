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
//! calling thread consumes the items in order, and the producer also works
//! ahead on the items just past the consumer with a closure of the
//! caller's (the serving model's inference), redoing results that went
//! stale.
//!
//! Parallelism stays one level deep: a thread the pool spawned runs any
//! nested [`pipeline`] inline, so a pool of simulations never spawns a
//! producer per simulation.
//!
//! No external dependencies: the pool is `std::thread::scope` plus
//! mutex-guarded queues, mpsc channels and condition variables, which is
//! plenty for the coarse-grained work (whole simulations, blocks of
//! frames) it schedules.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};

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

/// Blocks of items the producer of [`pipeline`] keeps generated past the
/// consumer's next item before it makes look-ahead results.
const LEAD_BLOCKS: usize = 2;

/// Blocks in flight at most: the one the consumer is on and those after
/// it. Past [`LEAD_BLOCKS`] the producer generates only when it has no
/// result to make, so a consumer that stalls (a training session) finds
/// up to this many blocks made when it comes back.
const IN_FLIGHT_BLOCKS: usize = 8;

/// The items after the consumer's next one whose results the producer
/// makes: from `SKIP`, since the consumer reaches the nearer ones before a
/// result started now could be ready, to `RESULT_SPAN`, since a result
/// made further ahead is more likely to go stale before its item is
/// played.
const SKIP: usize = 2;
const RESULT_SPAN: usize = 16;

/// Spins the consumer waits for a result the producer is making before it
/// sleeps: a result is one call of the look-ahead, much shorter than a
/// sleep and a wake-up.
const SPIN_LIMIT: u32 = 1 << 12;

/// What [`pipeline`]'s look-ahead did in one run (all zero for a plain
/// loop).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LookAheadStats {
    /// Items the consumer got with a current result.
    pub used: u64,
    /// Results the producer made again because the one it had made had
    /// gone stale.
    pub redone: u64,
    /// Results that were stale when the consumer reached their item.
    pub stale: u64,
    /// Items at which the consumer waited for the result the producer was
    /// making.
    pub waits: u64,
}

/// The look-ahead result of one item in flight.
enum Slot<A> {
    Empty,
    /// The producer is making it.
    Computing,
    Ready(A),
}

/// What the producer and the consumer share, under one lock.
struct State<T, A> {
    /// Blocks generated and not yet taken by the consumer, in order.
    queued: VecDeque<Arc<Vec<T>>>,
    /// The result slots of the items from `next` to the newest generated.
    slots: VecDeque<Slot<A>>,
    /// The index of the consumer's next item.
    next: usize,
    /// Results the consumer is done with, for the producer to drop.
    spent: Vec<A>,
    /// The source has run dry: no block follows those queued.
    exhausted: bool,
    producer_gone: bool,
    consumer_gone: bool,
    producer_asleep: bool,
    consumer_asleep: bool,
    stats: LookAheadStats,
}

struct Shared<T, A> {
    state: Mutex<State<T, A>>,
    producer_wake: Condvar,
    consumer_wake: Condvar,
    /// Results stored so far; the consumer spins on it before it sleeps.
    stored: AtomicUsize,
}

type Guard<'g, T, A> = MutexGuard<'g, State<T, A>>;

impl<T, A> Shared<T, A> {
    fn new() -> Self {
        Self {
            state: Mutex::new(State {
                queued: VecDeque::new(),
                slots: VecDeque::new(),
                next: 0,
                spent: Vec::new(),
                exhausted: false,
                producer_gone: false,
                consumer_gone: false,
                producer_asleep: false,
                consumer_asleep: false,
                stats: LookAheadStats::default(),
            }),
            producer_wake: Condvar::new(),
            consumer_wake: Condvar::new(),
            stored: AtomicUsize::new(0),
        }
    }

    /// Locks the state. Neither side panics while it holds the lock, so a
    /// poisoned lock still guards consistent state.
    fn lock(&self) -> Guard<'_, T, A> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wake_producer(&self, state: &State<T, A>) {
        if state.producer_asleep {
            self.producer_wake.notify_one();
        }
    }

    fn wake_consumer(&self, state: &State<T, A>) {
        if state.consumer_asleep {
            self.consumer_wake.notify_one();
        }
    }

    fn sleep_producer<'g>(&self, mut state: Guard<'g, T, A>) -> Guard<'g, T, A> {
        state.producer_asleep = true;
        let mut state = self
            .producer_wake
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
        state.producer_asleep = false;
        state
    }

    fn sleep_consumer<'g>(&self, mut state: Guard<'g, T, A>) -> Guard<'g, T, A> {
        state.consumer_asleep = true;
        let mut state = self
            .consumer_wake
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
        state.consumer_asleep = false;
        state
    }
}

/// Calls `consume(state, &item, ahead)` for every item of `source`, in
/// order, on the calling thread, and stops at the first error, which it
/// returns.
///
/// When [`available_threads`] resolves to more than one and the calling
/// thread is not one the pool spawned, `source` is pulled on a scoped
/// producer thread, `block` items at a time (a `block` of zero counts as
/// one), so making the next items overlaps consuming these. At most
/// `IN_FLIGHT_BLOCKS` (8) blocks are in flight: the consumer's and those
/// made after it. The producer frees every item and every look-ahead
/// result, so the memory it allocates stays in its own allocator arena and
/// is reused there.
///
/// The producer also works ahead. `make_ahead(state)` is called once, on
/// the calling thread, just before the producer is spawned. It returns the
/// look-ahead, which moves to the producer, and `current`, which both
/// threads call: `current(&result)` says whether a result is still
/// current. A result must only go stale by a version change that makes
/// every older result stale with it. Each item in flight has a result
/// slot, and the producer, in this order of priority:
///
/// 1. generates until it is `LEAD_BLOCKS` (2) blocks past the consumer;
/// 2. makes a missing or stale result among the items `SKIP` (2) to
///    `RESULT_SPAN` (16) after the consumer's next one: of those due, not
///    the first, which the consumer reaches before a result started now
///    is ready, but the second (so after a version change it redoes the
///    results made with the old version);
/// 3. generates up to the in-flight bound, which is what it does while
///    the consumer stalls;
/// 4. sleeps until the consumer frees a block or moves on to where a
///    result is due.
///
/// The consumer gets `Some(&result)` for an item whose result is current
/// when it reaches it and `None` otherwise; when the producer is making
/// that item's result just then, the consumer waits for it rather than
/// make it a second time.
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
pub fn pipeline<I, S, M, G, C, A, E, F>(
    source: I,
    block: usize,
    state: &mut S,
    make_ahead: M,
    consume: F,
) -> Result<LookAheadStats, E>
where
    I: Iterator + Send,
    I::Item: Send + Sync,
    M: FnOnce(&mut S) -> (G, C),
    G: FnMut(&I::Item) -> A + Send,
    C: Fn(&A) -> bool + Sync,
    A: Send,
    F: FnMut(&mut S, &I::Item, Option<&A>) -> Result<(), E>,
{
    pipeline_on(0, source, block, state, make_ahead, consume)
}

/// [`pipeline`] with an explicit thread count (`0` = auto).
fn pipeline_on<I, S, M, G, C, A, E, F>(
    threads: usize,
    mut source: I,
    block: usize,
    state: &mut S,
    make_ahead: M,
    mut consume: F,
) -> Result<LookAheadStats, E>
where
    I: Iterator + Send,
    I::Item: Send + Sync,
    M: FnOnce(&mut S) -> (G, C),
    G: FnMut(&I::Item) -> A + Send,
    C: Fn(&A) -> bool + Sync,
    A: Send,
    F: FnMut(&mut S, &I::Item, Option<&A>) -> Result<(), E>,
{
    if resolve_threads(threads) <= 1 || on_pool_thread() {
        source.try_for_each(|item| consume(state, &item, None))?;
        return Ok(LookAheadStats::default());
    }
    let (ahead, current) = make_ahead(state);
    let shared = Shared::new();
    std::thread::scope(|scope| {
        let (shared, current) = (&shared, &current);
        let producer = scope.spawn(move || {
            mark_pool_thread();
            Producer::new(shared, current, block.max(1)).run(source, ahead);
        });
        // However the consumer ends (done, an error, a panic), dropping it
        // tells the producer, so the scope can join it.
        let result = Consumer::new(shared).run(state, current, consume);
        match producer.join() {
            Ok(()) => result.map(|()| shared.lock().stats),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// [`pipeline`]'s consumer: the block it is on and the result it holds.
/// Dropping it hands the result back to the producer and tells it that
/// the consumer is gone.
struct Consumer<'s, T, A> {
    shared: &'s Shared<T, A>,
    block: Option<Arc<Vec<T>>>,
    offset: usize,
    held: Option<A>,
}

impl<'s, T, A> Consumer<'s, T, A> {
    fn new(shared: &'s Shared<T, A>) -> Self {
        Self {
            shared,
            block: None,
            offset: 0,
            held: None,
        }
    }

    fn run<S, E>(
        mut self,
        state: &mut S,
        current: impl Fn(&A) -> bool,
        mut consume: impl FnMut(&mut S, &T, Option<&A>) -> Result<(), E>,
    ) -> Result<(), E> {
        loop {
            let mut st = self.shared.lock();
            st.spent.extend(self.held.take());
            if self.block.as_ref().is_none_or(|b| self.offset == b.len()) {
                // Let go of the block played before taking the next, so the
                // producer can refill it.
                self.block = None;
                loop {
                    if let Some(block) = st.queued.pop_front() {
                        self.block = Some(block);
                        self.offset = 0;
                        break;
                    }
                    if st.exhausted || st.producer_gone {
                        return Ok(());
                    }
                    st = self.shared.sleep_consumer(st);
                }
                self.shared.wake_producer(&st);
            }
            st = self.await_result(st);
            let slot = st.slots.pop_front();
            st.next += 1;
            if let Some(Slot::Ready(result)) = slot {
                if current(&result) {
                    st.stats.used += 1;
                    self.held = Some(result);
                } else {
                    st.stats.stale += 1;
                    st.spent.push(result);
                }
            }
            // Moving on, or a version bump in the item played last, can
            // give a sleeping producer a result to make or redo.
            if st.producer_asleep && due(&st.slots, &current).is_some() {
                self.shared.producer_wake.notify_one();
            }
            drop(st);
            let Some(block) = &self.block else {
                return Ok(());
            };
            let item = &block[self.offset];
            self.offset += 1;
            consume(state, item, self.held.as_ref())?;
        }
    }

    /// Waits while the producer makes the result of the consumer's next
    /// item: spinning first, then asleep.
    fn await_result(&self, mut st: Guard<'s, T, A>) -> Guard<'s, T, A> {
        let making = |st: &State<T, A>| {
            matches!(st.slots.front(), Some(Slot::Computing)) && !st.producer_gone
        };
        if !making(&st) {
            return st;
        }
        st.stats.waits += 1;
        // The producer makes one result at a time, so the next one stored
        // is this one.
        let stored = self.shared.stored.load(Ordering::Acquire);
        drop(st);
        for _ in 0..SPIN_LIMIT {
            if self.shared.stored.load(Ordering::Acquire) != stored {
                break;
            }
            std::hint::spin_loop();
        }
        st = self.shared.lock();
        while making(&st) {
            st = self.shared.sleep_consumer(st);
        }
        st
    }
}

impl<T, A> Drop for Consumer<'_, T, A> {
    fn drop(&mut self) {
        self.block = None;
        let held = self.held.take();
        let mut st = self.shared.lock();
        st.spent.extend(held);
        st.consumer_gone = true;
        self.shared.wake_producer(&st);
    }
}

/// The offset from the consumer's next item of the one whose result the
/// producer makes next: of the items `SKIP` to `RESULT_SPAN` after it whose
/// result is missing or stale, the second. The consumer reaches the first
/// before a result started now would be ready and makes it itself, which
/// gives the producer the time to make the second.
fn due<A>(slots: &VecDeque<Slot<A>>, current: &impl Fn(&A) -> bool) -> Option<usize> {
    let to = slots.len().min(RESULT_SPAN);
    (SKIP..to)
        .filter(|&k| match &slots[k] {
            Slot::Empty => true,
            Slot::Computing => false,
            Slot::Ready(result) => !current(result),
        })
        .nth(1)
}

/// What the producer does next.
enum Task {
    Generate,
    Compute(usize),
    Stop,
}

/// Work the producer finished outside the lock, to hand over under it.
enum Made<T, A> {
    Block(Arc<Vec<T>>),
    Result(usize, A),
}

/// [`pipeline`]'s producer: every block in flight, oldest first, beside
/// the index of its first item. Dropping it tells the consumer, and frees
/// what the consumer left.
struct Producer<'s, T, A, C> {
    shared: &'s Shared<T, A>,
    current: &'s C,
    block: usize,
    ring: VecDeque<(usize, Arc<Vec<T>>)>,
    /// Emptied item buffers, to refill.
    spare: Vec<Vec<T>>,
    generated: usize,
    exhausted: bool,
}

impl<'s, T, A, C: Fn(&A) -> bool> Producer<'s, T, A, C> {
    fn new(shared: &'s Shared<T, A>, current: &'s C, block: usize) -> Self {
        Self {
            shared,
            current,
            block,
            ring: VecDeque::new(),
            spare: Vec::new(),
            generated: 0,
            exhausted: false,
        }
    }

    fn run(mut self, mut source: impl Iterator<Item = T>, mut ahead: impl FnMut(&T) -> A) {
        let mut made = None;
        let mut spent = Vec::new();
        let mut passed = Vec::new();
        loop {
            let mut st = self.shared.lock();
            let handed = made.take().map(|m| self.hand_over(&mut st, m, &mut spent));
            if handed.is_some() || self.exhausted != st.exhausted {
                st.exhausted = self.exhausted;
                self.shared.wake_consumer(&st);
            }
            let task = loop {
                if st.consumer_gone {
                    break Task::Stop;
                }
                self.reclaim(st.next, &mut passed);
                if let Some(task) = self.choose(&mut st) {
                    break task;
                }
                st = self.shared.sleep_producer(st);
            };
            spent.append(&mut st.spent);
            drop(st);
            spent.clear();
            for items in passed.drain(..) {
                if let Ok(mut items) = Arc::try_unwrap(items) {
                    items.clear();
                    self.spare.push(items);
                }
            }
            made = match task {
                Task::Stop => return,
                Task::Generate => self.generate(&mut source).map(Made::Block),
                Task::Compute(i) => Some(Made::Result(i, ahead(self.item(i)))),
            };
        }
    }

    /// Queues a new block with empty result slots, or stores a result
    /// unless the consumer has passed its item.
    fn hand_over(&mut self, st: &mut State<T, A>, made: Made<T, A>, spent: &mut Vec<A>) {
        match made {
            Made::Block(items) => {
                let n = items.len();
                st.slots
                    .extend(std::iter::repeat_with(|| Slot::Empty).take(n));
                st.queued.push_back(Arc::clone(&items));
                self.ring.push_back((self.generated, items));
                self.generated += n;
            }
            Made::Result(i, result) => match i.checked_sub(st.next) {
                Some(k) => {
                    st.slots[k] = Slot::Ready(result);
                    self.shared.stored.fetch_add(1, Ordering::Release);
                }
                None => spent.push(result),
            },
        }
    }

    /// Moves the blocks the consumer is done with out of the ring.
    fn reclaim(&mut self, next: usize, passed: &mut Vec<Arc<Vec<T>>>) {
        while let Some((first, items)) = self.ring.front() {
            if first + items.len() > next || Arc::strong_count(items) > 1 {
                break;
            }
            passed.extend(self.ring.pop_front().map(|(_, items)| items));
        }
    }

    /// The next task by the priorities [`pipeline`] lists; `None` when
    /// there is nothing to do.
    fn choose(&mut self, st: &mut State<T, A>) -> Option<Task> {
        let lead = LEAD_BLOCKS * self.block;
        let room = !self.exhausted && self.ring.len() < IN_FLIGHT_BLOCKS;
        if room && self.generated < st.next + lead {
            return Some(Task::Generate);
        }
        if let Some(i) = due(&st.slots, self.current).map(|k| st.next + k) {
            let slot = &mut st.slots[i - st.next];
            if let Slot::Ready(stale) = std::mem::replace(slot, Slot::Computing) {
                st.stats.redone += 1;
                st.spent.push(stale);
            }
            return Some(Task::Compute(i));
        }
        room.then_some(Task::Generate)
    }

    fn generate(&mut self, source: &mut impl Iterator<Item = T>) -> Option<Arc<Vec<T>>> {
        let mut items = self.spare.pop().unwrap_or_default();
        items.extend(source.by_ref().take(self.block));
        self.exhausted = items.len() < self.block;
        if items.is_empty() {
            self.spare.push(items);
            return None;
        }
        Some(Arc::new(items))
    }

    /// Item `i`, which is in flight. Every block but the last is full.
    fn item(&self, i: usize) -> &T {
        let first = self.ring.front().map_or(0, |(first, _)| *first);
        let (first, items) = &self.ring[(i - first) / self.block];
        &items[i - first]
    }
}

impl<T, A, C> Drop for Producer<'_, T, A, C> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.producer_gone = true;
        self.shared.wake_consumer(&st);
        let left = (
            std::mem::take(&mut st.queued),
            std::mem::take(&mut st.slots),
            std::mem::take(&mut st.spent),
        );
        drop(st);
        drop(left);
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
    /// that yields `()`, always current, and `consume` sees only the item.
    fn plain<I, E>(
        threads: usize,
        source: I,
        block: usize,
        mut consume: impl FnMut(&I::Item) -> Result<(), E>,
    ) -> Result<(), E>
    where
        I: Iterator + Send,
        I::Item: Send + Sync,
    {
        pipeline_on(
            threads,
            source,
            block,
            &mut (),
            |()| (|_: &I::Item| (), |&(): &()| true),
            |(), item, _| consume(item),
        )
        .map(drop)
    }

    /// Spins, yielding, until `calls` is positive: a consumer that waits
    /// here on its first item lets the producer generate its lead and then
    /// work ahead on the items after the consumer's.
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
            let result: Result<LookAheadStats, ()> = pipeline_on(
                threads,
                0..n,
                block,
                &mut seen,
                |_| {
                    let ahead = |&i: &usize| {
                        calls.fetch_add(1, Ordering::SeqCst);
                        i * 10
                    };
                    (ahead, |_: &usize| true)
                },
                |seen, &i, ahead| {
                    if threads > 1 && i == 0 {
                        wait_for_look_ahead(&calls);
                    }
                    seen.push((i, ahead.copied()));
                    Ok(())
                },
            );
            let stats = result.expect("no item fails");
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
            assert_eq!(stats.used, with_result as u64, "threads {threads}");
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
            let result: Result<LookAheadStats, ()> = pipeline_on(
                threads,
                0..40,
                4,
                &mut built,
                |built| {
                    *built = true;
                    let ahead = |_: &i32| {
                        calls.fetch_add(1, Ordering::SeqCst);
                        std::thread::current().id()
                    };
                    (ahead, |_: &ThreadId| true)
                },
                |_, &i, ahead| {
                    if i == 0 && threads > 1 && !on_pool_thread() {
                        wait_for_look_ahead(&calls);
                    }
                    ran_on.extend(ahead.copied());
                    Ok(())
                },
            );
            assert!(result.is_ok());
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
                |_| (|&i: &usize| i, |_: &usize| true),
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
                pulled <= k + 1 + IN_FLIGHT_BLOCKS * block,
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
                    let ahead = |_: &i32| {
                        calls.fetch_add(1, Ordering::SeqCst);
                        panic!("look-ahead side");
                    };
                    (ahead, |&(): &()| true)
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
        let result: Result<LookAheadStats, ()> = pipeline_on(
            2,
            source,
            4,
            &mut (),
            |()| {
                let ahead = |_: &Item<'_>| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Item::new(&results)
                };
                (ahead, |_: &Item<'_>| true)
            },
            |(), _, _| {
                wait_for_look_ahead(&calls);
                Ok(())
            },
        );
        assert!(result.is_ok());
        let caller = std::thread::current().id();
        for (log, made) in [(items, 50), (results, calls.load(Ordering::SeqCst))] {
            let log = log.into_inner().expect("no thread panicked");
            assert_eq!(log.len(), made);
            assert!(log
                .iter()
                .all(|&(made, dropped)| made == dropped && made != caller));
        }
    }

    /// Spins, yielding, until `done()` holds; panics after ten seconds, so
    /// a producer that never gets there fails the test instead of hanging it.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let start = std::time::Instant::now();
        while !done() {
            assert!(
                start.elapsed() < std::time::Duration::from_secs(10),
                "timed out waiting until {what}"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn pipeline_never_pulls_past_the_in_flight_bound() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (n, block) = (600, 4);
        // The item the consumer is on, and the most the source ran ahead
        // of it.
        let position = AtomicUsize::new(0);
        let furthest = AtomicUsize::new(0);
        let source = (0..n).inspect(|&i| {
            furthest.fetch_max(i - position.load(Ordering::SeqCst), Ordering::SeqCst);
        });
        let result: Result<LookAheadStats, ()> = pipeline_on(
            2,
            source,
            block,
            &mut (),
            |()| (|&i: &usize| i, |_: &usize| true),
            |(), &i, _| {
                position.store(i, Ordering::SeqCst);
                // Stall now and then, so the producer fills its blocks.
                if i % 50 == 0 {
                    (0..200).for_each(|_| std::thread::yield_now());
                }
                Ok(())
            },
        );
        assert!(result.is_ok());
        let furthest = furthest.load(Ordering::SeqCst);
        assert!(furthest <= IN_FLIGHT_BLOCKS * block, "ran {furthest} ahead");
    }

    #[test]
    fn pipeline_generates_ahead_through_a_stalled_consumer() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (block, k) = (4, 9);
        let pulled = AtomicUsize::new(0);
        let source = (0..200).inspect(|_| {
            pulled.fetch_add(1, Ordering::SeqCst);
        });
        let result: Result<LookAheadStats, ()> = pipeline_on(
            2,
            source,
            block,
            &mut (),
            |()| (|&i: &usize| i, |_: &usize| true),
            |(), &i, _| {
                // Item k + 3 blocks is item number k + 3 * block + 1.
                if i == k {
                    wait_until("the source made item k + 3 blocks", || {
                        pulled.load(Ordering::SeqCst) > k + 3 * block
                    });
                }
                Ok(())
            },
        );
        assert!(result.is_ok());
    }

    /// A version the consumer moves on, and a look-ahead whose results are
    /// `(item, the version they were made at)`; it logs every result.
    #[derive(Default)]
    struct Versions {
        version: std::sync::atomic::AtomicU64,
        made: Mutex<Vec<(usize, u64)>>,
    }

    impl Versions {
        fn make(&self, i: usize) -> (usize, u64) {
            let result = (i, self.now());
            self.made.lock().expect("no panic").push(result);
            result
        }

        fn current(&self, &(_, v): &(usize, u64)) -> bool {
            v == self.now()
        }

        fn now(&self) -> u64 {
            self.version.load(std::sync::atomic::Ordering::SeqCst)
        }

        fn bump(&self) {
            self.version
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }

        /// Results made for item `i` so far, and how many of them are
        /// current.
        fn made_at(&self, i: usize) -> (usize, usize) {
            let now = self.now();
            let made = self.made.lock().expect("no panic");
            let all = made.iter().filter(|&&(j, _)| j == i);
            (all.clone().count(), all.filter(|&&(_, v)| v == now).count())
        }
    }

    #[test]
    fn pipeline_redoes_results_that_went_stale() {
        let (n, block) = (300, 4);
        let versions = Versions::default();
        let mut seen = Vec::new();
        let result: Result<LookAheadStats, ()> = pipeline_on(
            2,
            0..n,
            block,
            &mut seen,
            |_| (|&i: &usize| versions.make(i), |r: &_| versions.current(r)),
            |seen, &i, ahead| {
                seen.push((i, versions.now(), ahead.copied()));
                // Every 40 items: once the producer has made results where
                // it works, invalidate them; at the next item, wait until
                // the producer makes one of them again.
                let span = i + 1 + SKIP..i + 2 + RESULT_SPAN;
                if i % 40 == 10 {
                    wait_until("results past the consumer", || {
                        span.clone().filter(|&j| versions.made_at(j).1 > 0).count() >= 3
                    });
                    versions.bump();
                }
                if i % 40 == 11 {
                    wait_until("a stale result redone", || {
                        span.clone().any(|j| versions.made_at(j).0 > 1)
                    });
                }
                Ok(())
            },
        );
        let stats = result.expect("no error");
        assert_eq!(seen.len(), n);
        for &(i, now, ahead) in &seen {
            assert!(
                ahead.is_none_or(|result| result == (i, now)),
                "item {i} at version {now} got {ahead:?}"
            );
        }
        assert!(stats.redone > 0, "{stats:?}");
    }

    #[test]
    fn pipeline_never_makes_a_result_twice_at_one_version() {
        use std::collections::BTreeSet;
        let (n, block) = (400, 4);
        let versions = Versions::default();
        let result: Result<LookAheadStats, ()> = pipeline_on(
            2,
            0..n,
            block,
            &mut (),
            |()| (|&i: &usize| versions.make(i), |r: &_| versions.current(r)),
            |(), &i, _| {
                if i % 9 == 0 {
                    (0..50).for_each(|_| std::thread::yield_now());
                }
                if i % 25 == 0 {
                    versions.bump();
                }
                Ok(())
            },
        );
        assert!(result.is_ok());
        let made = versions.made.into_inner().expect("no panic");
        let distinct: BTreeSet<(usize, u64)> = made.iter().copied().collect();
        let duplicates = made.len() - distinct.len();
        assert_eq!(duplicates, 0, "{} results", made.len());
        assert!(!made.is_empty());
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
