//! Order-preserving parallel map over a **persistent worker pool**.
//!
//! The workspace builds without crates.io, so instead of rayon this crate
//! provides the one call it needs, [`par_map`] (an order-preserving map over
//! an owned vector), and the [`fork_join_chunks`] primitive beneath it.
//!
//! ## Persistent pool semantics
//!
//! Worker threads are started **once**, on the first parallel call, and then
//! park on a condvar between calls. A fork/join call splits its input into
//! contiguous chunks, publishes the call to a global queue, wakes the
//! workers, and *participates itself*: the calling thread claims and executes
//! its own chunks exactly like a worker until none are left, and then keeps
//! working as a **helper** — it claims chunks of *other* queued calls until
//! the chunks other threads claimed from its own call have finished. The
//! steady-state cost of a fan-out is a queue push, a condvar wake and a few
//! atomic increments, which is what makes per-round parallelism profitable
//! even for very small groups (the repo benchmark's `parallel.fork_join_us`
//! layer metric).
//!
//! ## Nesting rules
//!
//! Fork/join calls may nest arbitrarily: a closure running on a pool worker
//! (or on the caller) can itself call [`fork_join_chunks`] / [`par_map`].
//! Nested calls push to the same global queue, so idle workers **and joining
//! callers** help with them. A thread only parks when its own call's chunks
//! are all claimed and nothing it may help with is queued; it is woken by new
//! work or by the completion of its call (both signals are ordered by the
//! queue lock against the check that precedes parking, so neither wake-up can
//! be lost). A parked thread waits for chunks that are running on other
//! threads' stacks. On a stack, every frame is younger than the frames below
//! it; a chunk is younger than its call; and a parked join is the frame that
//! created its call. A cycle of threads, each parked above a chunk the
//! previous one waits for, would therefore need a chunk older than its own
//! call — there is **no deadlock**, whatever the nesting depth.
//!
//! A joining caller never helps *outwards*: each call records how many
//! fan-out levels enclose it (its depth), and the joiner of a depth-`d` call
//! only claims chunks of calls at depth `≥ d`. The experiment harness relies
//! on this: `run_grid` fans experiment cells over the pool (depth 0) while
//! each cell's training rounds issue per-member fan-outs (depth 1), so a
//! thread waiting inside one cell helps other cells' rounds but never starts
//! a second cell on top of the suspended one — thread-local guards installed
//! per cell (telemetry scope, watchdog deadline) never interleave
//! and at most one system per thread is live in memory.
//!
//! ## Over-decomposed chunking
//!
//! [`par_map`] does **not** split its input into one contiguous chunk per
//! thread: it publishes up to [`chunk_factor`] `×` [`max_threads`]
//! fixed-boundary contiguous chunks (capped by the item count). With one
//! chunk per thread, a single expensive item — a heterogeneous mechanism in
//! an experiment grid, a seed that runs long before hitting
//! `max_virtual_time` — serializes the whole fan-out on the thread that drew
//! it while the others sit idle at the tail. Over-decomposition lets the
//! work-claiming scheduler rebalance: threads that finish their cheap chunks
//! claim the remaining ones, so the tail shrinks from "slowest chunk" towards
//! "slowest single item". The factor trades tail latency against per-chunk
//! queue overhead. Its default, 16, gives uneven experiment grids room to
//! balance and costs the training engine nothing: the engine's map hands the
//! pool one item per training lane, at most `max_threads()` of them, and
//! `min(threads × factor, n) = n` for any factor ≥ 1, so every lane is its
//! own chunk whatever the factor.
//!
//! ## Determinism
//!
//! Two properties keep parallel runs **bit-identical** to sequential runs:
//!
//! * **Fixed chunk → output mapping**: chunks are contiguous input ranges and
//!   each writes its own output slot; [`par_map`] concatenates the slots in
//!   input order. Which thread executes a chunk (or in what order) cannot
//!   affect the result, so a work-claiming scheduler is safe to use — the
//!   *assignment* of items to chunks is deterministic, the *scheduling* of
//!   chunks is free. For the same reason the *number* of chunks is free too:
//!   any `PARALLEL_CHUNKS` × `PARALLEL_THREADS` combination produces the
//!   same concatenation, which this crate's `chunks_x*` tests check on the
//!   map itself and the `scenario` crate's
//!   `every_kind_reproduces_its_pins_on_every_schedule` on whole runs, at
//!   1×1, 2×4, 3×4 and 4×16.
//! * **No shared mutable state**: the mapped closure receives each item by
//!   value; any per-item RNG or scratch state must travel inside the item
//!   itself, which is exactly how the training engine hands each lane its own
//!   scratch model and workspace and the slots (RNG stream, parameter buffer)
//!   of the workers it trains.
//!
//! Thread count defaults to [`std::thread::available_parallelism`] and can be
//! pinned with the `PARALLEL_THREADS` environment variable, read once at
//! first use (``1`` forces fully sequential, in-line execution — no worker
//! threads are ever spawned — useful for profiling; by construction the
//! results are identical either way). The over-decomposition factor is
//! pinned the same way with `PARALLEL_CHUNKS` (``1`` restores
//! one-chunk-per-thread). An unset or empty variable means the default; any
//! other value that is not a non-negative integer panics at first read,
//! naming the variable, instead of quietly running the default schedule.
//!
//! A panic inside a chunk is captured, the remaining chunks still run (so the
//! fork/join protocol stays balanced), and the first panic payload is
//! re-thrown on the calling thread once the call completes.

#![warn(missing_docs)]

use std::sync::{Mutex, OnceLock};

/// A schedule pin: the environment variable `var` as a non-negative integer,
/// `None` when it is unset or empty. Any other value panics, naming the
/// variable and the value.
fn env_pin(var: &str) -> Option<usize> {
    let text = std::env::var_os(var)?.to_string_lossy().into_owned();
    let bad = format!("{var}={text:?} is not a non-negative integer");
    match text.trim() {
        "" => None,
        pin => Some(pin.parse().expect(&bad)),
    }
}

/// Maximum number of threads a fork/join call will use (the calling thread
/// plus [`pool_workers`] persistent workers): `PARALLEL_THREADS` (at least
/// 1), read once at first use, or every available core.
pub fn max_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| match env_pin("PARALLEL_THREADS") {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// Over-decomposition factor: [`par_map`] targets `chunk_factor() ×`
/// [`max_threads`] chunks (capped by the item count). Defaults to 16; pinned
/// with the `PARALLEL_CHUNKS` environment variable (at least 1), read once at
/// first use (`1` gives one contiguous chunk per thread). The factor never
/// affects results — only how finely the scheduler can load-balance.
pub fn chunk_factor() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| env_pin("PARALLEL_CHUNKS").map_or(16, |n| n.max(1)))
}

/// Number of persistent worker threads backing the pool: `max_threads() - 1`
/// (the calling thread is the remaining participant), hence `0` when the
/// pool is configured for sequential execution. Calling this starts the pool
/// if it has not started yet.
pub fn pool_workers() -> usize {
    pool::workers()
}

/// Run `run(0), run(1), …, run(chunks - 1)`, distributing the chunk indices
/// across the persistent pool; returns when every chunk has completed.
///
/// This is the primitive beneath [`par_map`]. The calling thread
/// participates (it claims and executes chunks like a worker), so the call
/// completes even if every pool worker is busy, and nested calls are
/// deadlock-free (see the module docs). While chunks of this call are still
/// running elsewhere, the calling thread may execute chunks of *other* calls
/// at least as deeply nested as this one. With `chunks <= 1` or a sequential
/// pool configuration the chunks run in-line in index order.
///
/// If any chunk panics, the remaining chunks still execute and the first
/// panic is re-thrown on the calling thread afterwards (never on a thread
/// that merely helped with the chunk).
pub fn fork_join_chunks<F: Fn(usize) + Sync>(chunks: usize, run: &F) {
    // Sched plane: a sequential configuration short-circuits `par_map`
    // before it reaches this call, so the fan-out count (like the chunk claims
    // counted inside the pool) describes the schedule, not the program.
    telemetry::metrics::POOL_FORK_JOINS.add(1);
    pool::fork_join(chunks, run)
}

/// The persistent pool internals: the one module that needs `unsafe` (the
/// fork/join protocol sends a lifetime-erased pointer to the stack-allocated
/// call descriptor to the worker threads).
#[expect(unsafe_code, reason = "the fork/join protocol; see the module docs")]
mod pool {
    use super::max_threads;
    use std::any::Any;
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

    thread_local! {
        /// Fan-out levels enclosing the code this thread is running: 0 at top
        /// level, `d + 1` inside a chunk of a depth-`d` call.
        static DEPTH: Cell<usize> = const { Cell::new(0) };
    }

    /// Sets the thread's [`DEPTH`] for a scope; restores it on drop, so a
    /// chunk that unwinds leaves the thread at the depth it was entered at.
    pub(super) struct Level(usize);

    impl Level {
        fn enter(depth: usize) -> Level {
            Level(DEPTH.replace(depth))
        }

        /// One level deeper: for the items a fan-out runs in-line, so depth
        /// counts enclosing fan-outs whether or not they reached the pool.
        pub(super) fn nested() -> Level {
            Level::enter(DEPTH.get() + 1)
        }
    }

    impl Drop for Level {
        fn drop(&mut self) {
            DEPTH.set(self.0);
        }
    }

    /// One fork/join call in flight. Lives on the calling thread's stack for
    /// the whole call: the caller does not return until `done == chunks`.
    struct FanOut {
        /// Type-erased chunk runner: `call(data, chunk_index)` invokes the
        /// caller's `&F` closure. Erasing through a shim function keeps the
        /// unsafe surface to two pointer casts.
        data: *const (),
        call: fn(*const (), usize),
        chunks: usize,
        /// [`DEPTH`] of the calling thread: joiners only help calls at least
        /// as deep as their own (see the module docs).
        depth: usize,
        /// Next chunk index to claim. Only ever advanced **under the pool's
        /// queue lock**, so the removal of an exhausted call from the queue
        /// is atomic with the claim of its final chunk.
        next: AtomicUsize,
        /// Completed-chunk count. The increment that makes it `chunks` frees
        /// the caller to return and pop this struct: whoever performs an
        /// increment touches only the `'static` pool afterwards.
        done: AtomicUsize,
        /// First captured panic payload, stored before the panicking chunk's
        /// `done` increment.
        panic: Mutex<Option<Box<dyn Any + Send>>>,
    }

    fn shim<F: Fn(usize) + Sync>(data: *const (), chunk: usize) {
        // SAFETY: `data` was created from a live `&F` in `fork_join`, and the
        // fork/join protocol guarantees the referent outlives every call
        // (the caller does not return until all chunks complete).
        let f = unsafe { &*(data as *const F) };
        f(chunk);
    }

    /// Queue entry: raw pointer to a stack-owned [`FanOut`].
    struct FanPtr(*const FanOut);
    // SAFETY: a `FanPtr` is only dereferenced while the fork/join protocol
    // keeps its referent alive — see the invariants in `claim`.
    unsafe impl Send for FanPtr {}

    struct Queue {
        fans: VecDeque<FanPtr>,
        /// Joining callers parked on `work_available`. They may be unable to
        /// use the work a targeted wake-up announces (depth rule), so while
        /// any is parked every signal is a broadcast.
        parked_joiners: usize,
    }

    struct Shared {
        queue: Mutex<Queue>,
        /// Workers wait here for work; joining callers for work or for the
        /// completion of their call.
        work_available: Condvar,
        workers: usize,
    }

    impl Shared {
        fn lock(&self) -> MutexGuard<'_, Queue> {
            self.queue.lock().expect("pool queue poisoned")
        }

        fn park<'q>(&self, q: MutexGuard<'q, Queue>) -> MutexGuard<'q, Queue> {
            self.work_available
                .wait(q)
                .expect("pool queue poisoned while parked")
        }
    }

    /// The process-global pool, started lazily on first use. `None` when the
    /// configuration is sequential (`max_threads() == 1`): no worker threads
    /// are ever spawned in that case.
    fn shared() -> Option<&'static Shared> {
        static POOL: OnceLock<Option<&'static Shared>> = OnceLock::new();
        *POOL.get_or_init(|| {
            let workers = max_threads().saturating_sub(1);
            if workers == 0 {
                return None;
            }
            let sh: &'static Shared = Box::leak(Box::new(Shared {
                queue: Mutex::new(Queue {
                    fans: VecDeque::new(),
                    parked_joiners: 0,
                }),
                work_available: Condvar::new(),
                workers,
            }));
            for i in 0..workers {
                std::thread::Builder::new()
                    .name(format!("parallel-{i}"))
                    .spawn(move || worker_loop(sh))
                    .expect("failed to spawn pool worker thread");
            }
            Some(sh)
        })
    }

    pub(super) fn workers() -> usize {
        shared().map_or(0, |s| s.workers)
    }

    /// Worker body: claim a chunk of some queued call, execute it, repeat;
    /// park on the condvar while the queue is empty. Workers are detached and
    /// live until process exit.
    fn worker_loop(sh: &'static Shared) {
        loop {
            let (fan, chunk) = {
                let mut q = sh.lock();
                loop {
                    if let Some(claimed) = claim(&mut q, |_, _| true) {
                        break claimed;
                    }
                    q = sh.park(q);
                }
            };
            execute(sh, fan, chunk);
        }
    }

    /// Under the queue lock: claim the next chunk of the oldest queued call
    /// that is `eligible`, removing the call once its final chunk is claimed.
    ///
    /// Pointer-validity invariant: a call is pushed before its caller claims
    /// any chunk, is removed (under this same lock) together with the claim
    /// of its final chunk, and its caller keeps the `FanOut` alive until
    /// every *claimed* chunk has completed. So any entry observed in the
    /// queue still has unclaimed chunks, and its pointer is live for the
    /// duration of the claimed chunk's execution.
    fn claim(
        q: &mut Queue,
        eligible: impl Fn(*const FanOut, &FanOut) -> bool,
    ) -> Option<(*const FanOut, usize)> {
        // SAFETY: see the invariant above.
        let i = (q.fans.iter()).position(|e| eligible(e.0, unsafe { &*e.0 }))?;
        let p = q.fans[i].0;
        // SAFETY: see the invariant above.
        let fan = unsafe { &*p };
        let c = fan.next.fetch_add(1, Ordering::Relaxed);
        if c + 1 >= fan.chunks {
            q.fans.remove(i);
        }
        Some((p, c))
    }

    /// Execute one claimed chunk and publish its completion. Panics are
    /// captured so the protocol stays balanced; the first payload is
    /// re-thrown by the call's own caller after the join.
    fn execute(sh: &Shared, p: *const FanOut, chunk: usize) {
        // SAFETY: the chunk was claimed under the queue lock and is not yet
        // counted in `done`, so the caller is still inside `fork_join` and
        // the `FanOut` is alive (see `claim`).
        let fan = unsafe { &*p };
        let chunks = fan.chunks;
        telemetry::metrics::POOL_CHUNKS_CLAIMED.add(1);
        let level = Level::enter(fan.depth + 1);
        let result = catch_unwind(AssertUnwindSafe(|| (fan.call)(fan.data, chunk)));
        drop(level);
        if let Err(payload) = result {
            let mut first = fan.panic.lock().expect("fork/join panic slot poisoned");
            first.get_or_insert(payload);
        }
        // Release: the chunk's writes (and payload) happen-before the
        // caller's Acquire load that observes the count. `fan` may be gone
        // the moment the count is complete — only `sh` is used below.
        if fan.done.fetch_add(1, Ordering::AcqRel) + 1 == chunks {
            // The caller checks `done` under the queue lock before parking,
            // so taking the lock here orders this signal after that check.
            let parked = sh.lock().parked_joiners > 0;
            if parked {
                sh.work_available.notify_all();
            }
        }
    }

    pub(super) fn fork_join<F: Fn(usize) + Sync>(chunks: usize, run: &F) {
        let depth = DEPTH.get();
        let Some(sh) = (if chunks <= 1 { None } else { shared() }) else {
            telemetry::metrics::POOL_CHUNKS_CLAIMED.add(chunks as u64);
            let _level = Level::enter(depth + 1);
            for c in 0..chunks {
                run(c);
            }
            return;
        };
        let fan = FanOut {
            data: run as *const F as *const (),
            call: shim::<F>,
            chunks,
            depth,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };
        let me: *const FanOut = &fan;
        let mut q = sh.lock();
        q.fans.push_back(FanPtr(me));
        // Wake only as many workers as there are chunks the caller cannot
        // take itself: the engines' hottest fan-outs are 2–4 chunks, and
        // notify_all would stampede every parked worker into the queue lock
        // just to find the call already drained by the help-first loop below.
        // Signalled under the lock, so `parked_joiners` is exact.
        let wakes = chunks - 1;
        if wakes >= sh.workers || q.parked_joiners > 0 {
            sh.work_available.notify_all();
        } else {
            for _ in 0..wakes {
                sh.work_available.notify_one();
            }
        }
        // Help-first, then helping join: execute our own chunks while any is
        // unclaimed, then chunks of other calls at least as deep, until the
        // chunks other threads claimed from this call have completed.
        while fan.done.load(Ordering::Acquire) < chunks {
            let work = claim(&mut q, |p, _| std::ptr::eq(p, me))
                .or_else(|| claim(&mut q, |_, other| other.depth >= depth));
            if let Some((p, c)) = work {
                drop(q);
                execute(sh, p, c);
                q = sh.lock();
            } else {
                q.parked_joiners += 1;
                q = sh.park(q);
                q.parked_joiners -= 1;
            }
        }
        drop(q);
        let payload = fan.panic.into_inner();
        if let Some(payload) = payload.expect("fork/join panic slot poisoned") {
            resume_unwind(payload);
        }
    }
}

/// Contiguous chunk length for `n ≥ 1` items: [`par_map`] targets `threads ×
/// factor` chunks, capped by the item count.
fn chunk_len(n: usize, threads: usize, factor: usize) -> usize {
    n.div_ceil((threads * factor).min(n))
}

/// Map every item through `f` on the pool and return the results in input
/// order: bit-identical to `items.into_iter().map(f).collect()` on any
/// schedule.
///
/// The items are split into up to [`chunk_factor`] `×` [`max_threads`]
/// contiguous chunks; each runs as one [`fork_join_chunks`] chunk that maps
/// its items in order into its own slot, and the slots are concatenated in
/// input order. A sequential configuration or fewer than two items run
/// in-line, one fan-out level deeper, like a pool chunk. A panic in `f`
/// reaches the caller with its own payload.
pub fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    // Both pins are read (and so checked) by every map, whichever path it takes.
    let (threads, factor) = (max_threads(), chunk_factor());
    if threads <= 1 || n < 2 {
        let _level = pool::Level::nested();
        return items.into_iter().map(f).collect();
    }
    let chunk = chunk_len(n, threads, factor);
    // A chunk's slot holds its input until the chunk takes it, then its
    // output. No lock is held while `f` runs, so a panic cannot poison one.
    let mut items = items.into_iter();
    let slots: Vec<Mutex<(Vec<T>, Vec<R>)>> = (0..n.div_ceil(chunk))
        .map(|_| Mutex::new((items.by_ref().take(chunk).collect(), Vec::new())))
        .collect();
    let slot = |c: usize| slots[c].lock().expect("par map slot poisoned");
    fork_join_chunks(slots.len(), &|c| {
        let input = std::mem::take(&mut slot(c).0);
        let output = input.into_iter().map(&f).collect();
        slot(c).1 = output;
    });
    let mut out = Vec::with_capacity(n);
    for s in slots {
        out.extend(s.into_inner().expect("par map slot poisoned").1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let doubled = par_map((0..1000u64).collect(), |x| x * 2);
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn into_par_map_preserves_order() {
        // par_map consumes its input; an odd length leaves a short last chunk.
        let out = par_map((0..997u64).collect(), |x| x + 1);
        assert_eq!(out, (1..998).collect::<Vec<_>>());
    }

    #[test]
    fn small_inputs_run_sequentially() {
        assert_eq!(par_map(vec![41u32], |x| x + 1), vec![42]);
        assert!(par_map(Vec::<u32>::new(), |x| x).is_empty());
    }

    #[test]
    fn the_factor_keeps_one_lane_per_chunk_and_splits_grids_finely() {
        if env_pin("PARALLEL_CHUNKS").is_none() {
            assert_eq!(chunk_factor(), 16);
        }
        // The engine's map: at most one item per thread, one item per chunk
        // whatever the factor.
        for threads in 1..=8 {
            for n in 1..=threads {
                for factor in [1, 4, 16] {
                    assert_eq!(chunk_len(n, threads, factor), 1);
                }
            }
        }
        // A 60-cell grid on two threads: 32 chunks at 16, 8 at 4, 2 at 1.
        assert_eq!(
            [16, 4, 1].map(|f| 60usize.div_ceil(chunk_len(60, 2, f))),
            [30, 8, 2]
        );
    }

    #[test]
    fn fork_join_runs_every_chunk_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counts: Vec<AtomicUsize> = (0..23).map(|_| AtomicUsize::new(0)).collect();
        fork_join_chunks(counts.len(), &|c| {
            counts[c].fetch_add(1, Ordering::Relaxed);
        });
        for (c, cnt) in counts.iter().enumerate() {
            assert_eq!(cnt.load(Ordering::Relaxed), 1, "chunk {c}");
        }
        // Zero chunks is a no-op.
        fork_join_chunks(0, &|_| panic!("must not run"));
    }

    #[test]
    fn parallel_matches_sequential_float_reduction() {
        // Order preservation means the caller's fold order is fixed, so the
        // floating-point sum is bit-identical however many threads ran.
        let xs: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let mapped = par_map(xs.clone(), |x| x * 1.000001 + 0.5);
        let seq: Vec<f64> = xs.iter().map(|&x| x * 1.000001 + 0.5).collect();
        for (a, b) in mapped.iter().zip(seq.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn nested_fan_out_matches_nested_sequential() {
        // An inner map inside an outer map; compare against the plain
        // nested iterator computation.
        let nested = par_map((0..32u64).collect(), |o| {
            par_map((0..50u64).collect(), |i| i * o).iter().sum::<u64>()
        });
        let expect: Vec<u64> = (0..32).map(|o| (0..50u64).sum::<u64>() * o).collect();
        assert_eq!(nested, expect);
    }
}
