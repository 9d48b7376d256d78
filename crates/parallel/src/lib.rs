//! Rayon-style fork/join parallelism over a **persistent worker pool**.
//!
//! The build container has no crates.io access, so this crate provides the
//! small slice of the rayon API the workspace needs — `par_iter().map(..)
//! .collect()` over slices and owned vectors, plus the raw
//! [`fork_join_chunks`] primitive they are built on — without pulling in a
//! dependency.
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
//! (or on the caller) can itself call [`fork_join_chunks`] / `par_iter`.
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
//! per cell (telemetry scope, cancel token, watchdog budget) never interleave
//! and at most one system per thread is live in memory.
//!
//! ## Over-decomposed chunking
//!
//! A parallel map does **not** split its input into one contiguous chunk per
//! thread: it publishes up to `PARALLEL_CHUNKS × threads` fixed-boundary
//! contiguous chunks (default factor 4, capped by the item count). With one
//! chunk per thread, a single expensive item — a heterogeneous mechanism in
//! an experiment grid, a seed that runs long before hitting
//! `max_virtual_time` — serializes the whole fan-out on the thread that drew
//! it while the others sit idle at the tail. Over-decomposition lets the
//! work-claiming scheduler rebalance: threads that finish their cheap chunks
//! claim the remaining ones, so the tail shrinks from "slowest chunk" towards
//! "slowest single item". The factor trades tail latency against per-chunk
//! queue overhead; 4 keeps the hot 2–4-item engine fan-outs at one item per
//! chunk while giving large experiment grids room to balance. Callers that
//! know their cost profile can override the factor per call with a
//! [`ChunkHint`] (`.map(..).with_chunk_hint(..)`): fine splits for uneven
//! experiment grids. An explicit `PARALLEL_CHUNKS` pin beats every hint;
//! hints are scheduling-only and never change results.
//!
//! ## Determinism
//!
//! Two properties keep parallel runs **bit-identical** to sequential runs:
//!
//! * **Fixed chunk → output mapping**: chunks are contiguous input ranges and
//!   each writes its own output slot; `collect()` concatenates the slots in
//!   input order. Which thread executes a chunk (or in what order) cannot
//!   affect the result, so a work-claiming scheduler is safe to use — the
//!   *assignment* of items to chunks is deterministic, the *scheduling* of
//!   chunks is free. For the same reason the *number* of chunks is free too:
//!   any `PARALLEL_CHUNKS` × `PARALLEL_THREADS` combination produces the
//!   same concatenation, which the CI determinism job cross-checks by
//!   diffing experiment outputs across both knobs.
//! * **No shared mutable state**: the `map` closure receives each item by
//!   value / shared reference; any per-item RNG or scratch state must travel
//!   inside the item itself, which is exactly how the training engine hands
//!   each lane its own scratch model and workspace and the slots (RNG stream,
//!   parameter buffer) of the workers it trains.
//!
//! Thread count defaults to [`std::thread::available_parallelism`] and can be
//! pinned with the `PARALLEL_THREADS` environment variable, read once at
//! first use (``1`` forces fully sequential, in-line execution — no worker
//! threads are ever spawned — useful for profiling; by construction the
//! results are identical either way). The over-decomposition factor is
//! pinned the same way with `PARALLEL_CHUNKS` (``1`` restores
//! one-chunk-per-thread).
//!
//! A panic inside a chunk is captured, the remaining chunks still run (so the
//! fork/join protocol stays balanced), and the first panic payload is
//! re-thrown on the calling thread once the call completes.

#![warn(missing_docs)]

use std::sync::{Mutex, OnceLock};

/// Convenience re-exports mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{ChunkHint, IntoParVec, ParSlice};
}

/// Maximum number of threads a fork/join call will use (the calling thread
/// plus [`pool_workers`] persistent workers).
pub fn max_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        if let Ok(v) = std::env::var("PARALLEL_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The built-in over-decomposition factor used when neither the
/// `PARALLEL_CHUNKS` environment variable nor a per-call [`ChunkHint`]
/// overrides it.
pub(crate) const DEFAULT_CHUNK_FACTOR: usize = 4;

/// The explicitly-pinned over-decomposition factor, if any: the
/// `PARALLEL_CHUNKS` environment variable, read once at first use. An
/// explicit pin takes precedence over per-call [`ChunkHint`]s, so the CI
/// determinism matrix (and profiling runs) can force one factor everywhere.
fn env_chunk_factor() -> Option<usize> {
    static CACHED: OnceLock<Option<usize>> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::env::var("PARALLEL_CHUNKS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|n| n.max(1))
    })
}

/// Over-decomposition factor: a parallel map targets `chunk_factor() ×`
/// [`max_threads`] chunks (capped by the item count). Defaults to 4; pinned
/// with the `PARALLEL_CHUNKS` environment variable, read once at first use
/// (`1` restores the old one-contiguous-chunk-per-thread split). The factor
/// never affects results — only how finely the scheduler can load-balance.
pub fn chunk_factor() -> usize {
    env_chunk_factor().unwrap_or(DEFAULT_CHUNK_FACTOR)
}

/// Per-call hint for how finely a parallel map should over-decompose its
/// input, for callers that know their cost profile: experiment grids with
/// wildly uneven cells want fine splits so the work-claiming scheduler can
/// rebalance.
///
/// Hints are **scheduling-only**: the chunk → output mapping stays fixed, so
/// any hint is bit-identical to any other (and to sequential execution). An
/// explicit `PARALLEL_CHUNKS` environment pin overrides every hint, which
/// keeps the CI determinism matrix able to force one factor everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChunkHint {
    /// Use the global default ([`chunk_factor`]).
    #[default]
    Default,
    /// Known-uneven workloads: split 4× finer than the default (factor 16).
    Fine,
}

impl ChunkHint {
    /// The effective over-decomposition factor for this hint, honouring an
    /// explicit `PARALLEL_CHUNKS` pin over the hint itself.
    pub fn factor(self) -> usize {
        if let Some(pinned) = env_chunk_factor() {
            return pinned;
        }
        match self {
            ChunkHint::Default => DEFAULT_CHUNK_FACTOR,
            ChunkHint::Fine => 4 * DEFAULT_CHUNK_FACTOR,
        }
    }
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
/// This is the primitive beneath `par_iter().map(..).collect()`. The calling
/// thread participates (it claims and executes chunks like a worker), so the
/// call completes even if every pool worker is busy, and nested calls are
/// deadlock-free (see the module docs). While chunks of this call are still
/// running elsewhere, the calling thread may execute chunks of *other* calls
/// at least as deeply nested as this one. With `chunks <= 1` or a sequential
/// pool configuration the chunks run in-line in index order.
///
/// If any chunk panics, the remaining chunks still execute and the first
/// panic is re-thrown on the calling thread afterwards (never on a thread
/// that merely helped with the chunk).
pub fn fork_join_chunks<F: Fn(usize) + Sync>(chunks: usize, run: &F) {
    // Sched plane: a sequential configuration short-circuits parallel maps
    // in `collect_with` before they reach this call, so the fan-out count
    // (like the chunk claims counted inside the pool) describes the
    // schedule, not the program.
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

/// Parallel iteration over slices, mirroring `rayon`'s `par_iter()`.
pub trait ParSlice<T: Sync> {
    /// A parallel iterator over shared references to the elements.
    fn par_iter(&self) -> ParIter<'_, T>;
}

impl<T: Sync> ParSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { items: self }
    }
}

impl<T: Sync> ParSlice<T> for Vec<T> {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { items: self }
    }
}

/// Parallel iteration over owned vectors, mirroring `rayon`'s
/// `into_par_iter()`.
pub trait IntoParVec<T: Send> {
    /// A parallel iterator that consumes the vector.
    fn into_par_iter(self) -> ParIntoIter<T>;
}

impl<T: Send> IntoParVec<T> for Vec<T> {
    fn into_par_iter(self) -> ParIntoIter<T> {
        ParIntoIter { items: self }
    }
}

/// Borrowing parallel iterator (see [`ParSlice::par_iter`]).
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Map every element through `f`, in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
            hint: ChunkHint::Default,
        }
    }
}

/// The result of [`ParIter::map`]; terminate it with `collect()`.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
    hint: ChunkHint,
}

/// Contiguous chunk length for `n` items under over-decomposition: the map
/// targets `hint.factor() × `[`max_threads`] chunks (the factor defaulting to
/// [`chunk_factor`]), capped by the item count, so uneven per-item costs can
/// be rebalanced by the work-claiming scheduler instead of serializing the
/// fan-out on the slowest thread. Boundaries are a pure function of
/// `(n, threads, factor)` — and the output concatenation is
/// chunking-independent, so any setting of any knob is bit-identical to
/// sequential execution.
fn chunk_len(n: usize, hint: ChunkHint) -> usize {
    let target = (max_threads() * hint.factor()).min(n.max(1));
    n.div_ceil(target)
}

impl<'a, T: Sync, F> ParMap<'a, T, F> {
    /// Override the over-decomposition factor for this call (see
    /// [`ChunkHint`]; scheduling-only, never affects the result).
    pub fn with_chunk_hint(mut self, hint: ChunkHint) -> Self {
        self.hint = hint;
        self
    }

    /// Execute the map on the pool and collect the results in input order.
    pub fn collect<R, C>(self) -> C
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
        C: FromOrdered<R>,
    {
        let n = self.items.len();
        let f = &self.f;
        if max_threads() <= 1 || n < 2 {
            let _level = pool::Level::nested();
            return C::from_vec(self.items.iter().map(f).collect());
        }
        let chunk = chunk_len(n, self.hint);
        let nchunks = n.div_ceil(chunk);
        let items = self.items;
        // One output slot per chunk; each chunk locks only its own slot, once.
        let slots: Vec<Mutex<Vec<R>>> = (0..nchunks).map(|_| Mutex::new(Vec::new())).collect();
        fork_join_chunks(nchunks, &|c| {
            let lo = c * chunk;
            let hi = ((c + 1) * chunk).min(n);
            let out: Vec<R> = items[lo..hi].iter().map(f).collect();
            *slots[c].lock().expect("par map slot poisoned") = out;
        });
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            out.extend(slot.into_inner().expect("par map slot poisoned"));
        }
        C::from_vec(out)
    }
}

/// Consuming parallel iterator (see [`IntoParVec::into_par_iter`]).
pub struct ParIntoIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIntoIter<T> {
    /// Map every element through `f`, in parallel, consuming the input.
    pub fn map<R, F>(self, f: F) -> ParIntoMap<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParIntoMap {
            items: self.items,
            f,
            hint: ChunkHint::Default,
        }
    }
}

/// The result of [`ParIntoIter::map`]; terminate it with `collect()`.
pub struct ParIntoMap<T, F> {
    items: Vec<T>,
    f: F,
    hint: ChunkHint,
}

impl<T: Send, F> ParIntoMap<T, F> {
    /// Override the over-decomposition factor for this call (see
    /// [`ChunkHint`]; scheduling-only, never affects the result).
    pub fn with_chunk_hint(mut self, hint: ChunkHint) -> Self {
        self.hint = hint;
        self
    }

    /// Execute the map on the pool and collect the results in input order.
    pub fn collect<R, C>(self) -> C
    where
        R: Send,
        F: Fn(T) -> R + Sync,
        C: FromOrdered<R>,
    {
        let n = self.items.len();
        let f = &self.f;
        if max_threads() <= 1 || n < 2 {
            let _level = pool::Level::nested();
            return C::from_vec(self.items.into_iter().map(f).collect());
        }
        let chunk = chunk_len(n, self.hint);
        // Split the input into per-chunk contiguous vectors, preserving order.
        let mut split: Vec<Vec<T>> = Vec::with_capacity(n.div_ceil(chunk));
        let mut rest = self.items;
        while rest.len() > chunk {
            let tail = rest.split_off(chunk);
            split.push(rest);
            rest = tail;
        }
        split.push(rest);
        let nchunks = split.len();
        // Input handed out through per-chunk slots (each taken exactly once),
        // results returned the same way.
        let inputs: Vec<Mutex<Option<Vec<T>>>> =
            split.into_iter().map(|c| Mutex::new(Some(c))).collect();
        let slots: Vec<Mutex<Vec<R>>> = (0..nchunks).map(|_| Mutex::new(Vec::new())).collect();
        fork_join_chunks(nchunks, &|c| {
            let chunk_items = inputs[c]
                .lock()
                .expect("par map input slot poisoned")
                .take()
                .expect("chunk input taken twice");
            let out: Vec<R> = chunk_items.into_iter().map(f).collect();
            *slots[c].lock().expect("par map slot poisoned") = out;
        });
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            out.extend(slot.into_inner().expect("par map slot poisoned"));
        }
        C::from_vec(out)
    }
}

/// Collection types an ordered parallel map can terminate into.
pub trait FromOrdered<R> {
    /// Build the collection from an already-ordered vector of results.
    fn from_vec(v: Vec<R>) -> Self;
}

impl<R> FromOrdered<R> for Vec<R> {
    fn from_vec(v: Vec<R>) -> Self {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn into_par_map_preserves_order() {
        let xs: Vec<u64> = (0..997).collect();
        let out: Vec<u64> = xs.into_par_iter().map(|x| x + 1).collect();
        assert_eq!(out, (1..998).collect::<Vec<_>>());
    }

    #[test]
    fn small_inputs_run_sequentially() {
        let xs = vec![41u32];
        let out: Vec<u32> = xs.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![42]);
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
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
        let mapped: Vec<f64> = xs.par_iter().map(|&x| x * 1.000001 + 0.5).collect();
        let seq: Vec<f64> = xs.iter().map(|&x| x * 1.000001 + 0.5).collect();
        for (a, b) in mapped.iter().zip(seq.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn chunk_hints_never_change_results() {
        let xs: Vec<f64> = (0..3_001).map(|i| (i as f64 * 0.37).cos()).collect();
        let seq: Vec<f64> = xs.iter().map(|&x| x * 1.5 - 0.25).collect();
        for hint in [ChunkHint::Default, ChunkHint::Fine] {
            let par: Vec<f64> = xs
                .par_iter()
                .map(|&x| x * 1.5 - 0.25)
                .with_chunk_hint(hint)
                .collect();
            for (a, b) in par.iter().zip(seq.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "hint {hint:?}");
            }
            let owned: Vec<f64> = xs
                .clone()
                .into_par_iter()
                .map(|x| x * 1.5 - 0.25)
                .with_chunk_hint(hint)
                .collect();
            assert_eq!(owned.len(), seq.len());
            for (a, b) in owned.iter().zip(seq.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "hint {hint:?} (owned)");
            }
        }
    }

    #[test]
    fn chunk_hint_factors_resolve_as_documented() {
        // An explicit PARALLEL_CHUNKS pin overrides hints; only assert the
        // hint → factor mapping when the environment leaves it in charge.
        if std::env::var("PARALLEL_CHUNKS").is_err() {
            assert_eq!(ChunkHint::Default.factor(), DEFAULT_CHUNK_FACTOR);
            assert_eq!(ChunkHint::Fine.factor(), 4 * DEFAULT_CHUNK_FACTOR);
        } else {
            let pinned = chunk_factor();
            for hint in [ChunkHint::Default, ChunkHint::Fine] {
                assert_eq!(hint.factor(), pinned);
            }
        }
    }

    #[test]
    fn nested_fan_out_matches_nested_sequential() {
        // Inner par_iter inside an outer par_iter; compare against the plain
        // nested iterator computation.
        let outer: Vec<u64> = (0..32).collect();
        let nested: Vec<u64> = outer
            .par_iter()
            .map(|&o| {
                let inner: Vec<u64> = (0..50u64).collect();
                let mapped: Vec<u64> = inner.par_iter().map(|&i| i * o).collect();
                mapped.iter().sum()
            })
            .collect();
        let expect: Vec<u64> = outer.iter().map(|&o| (0..50u64).sum::<u64>() * o).collect();
        assert_eq!(nested, expect);
    }
}
