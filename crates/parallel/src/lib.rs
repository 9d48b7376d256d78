//! Order-preserving parallel map on **scoped threads**.
//!
//! The workspace builds without crates.io, so instead of rayon this crate
//! provides the one call it needs, [`par_map`] (an order-preserving map over
//! an owned vector), and the [`fork_join_chunks`] primitive beneath it.
//!
//! ## Slots and helpers
//!
//! The process has [`max_threads`] slots for threads running chunks. A
//! fork/join call hands its chunk indices out from one atomic counter to its
//! caller and to a **helper** per free slot (at most one per chunk beyond
//! the first), each a thread spawned with [`std::thread::scope`] for this
//! call alone. A caller with no chunk left gives its slot back while it
//! joins, so an idle core serves the next fan-out that finds it free —
//! another cell's training rounds, say — and the last participant to finish
//! hands a slot back to the caller. A fan-out that finds no free slot, or
//! runs at one thread or with one chunk, runs its chunks on its caller in
//! index order; so does one whose helper cannot be spawned. A helper costs a
//! thread spawn, paid only by a fan-out that finds an idle core.
//!
//! Calls may nest arbitrarily. A caller waits only for its own helpers, and
//! they run only its own chunks, so waiting threads form a tree (no
//! deadlock), and thread-local state installed around a chunk (the harness's
//! telemetry scope and watchdog deadline around a grid cell) never
//! interleaves with another chunk's.
//!
//! ## Chunks and determinism
//!
//! [`par_map`] targets [`chunk_factor`] `×` [`max_threads`] fixed-boundary
//! contiguous chunks (capped by the item count), not one per thread, so a
//! single expensive item — a slow mechanism or seed in an experiment grid —
//! does not serialise a whole thread's share: threads that finish early
//! claim the rest. The engine's map has one item per training lane, at most
//! `max_threads()` of them, so every lane is its own chunk whatever the
//! factor. Each chunk maps its items in order into its own output slot and
//! the slots are concatenated in input order, so which thread runs a chunk,
//! when, and how many chunks there are cannot change a bit: any
//! `PARALLEL_THREADS` × `PARALLEL_CHUNKS` gives the sequential result, which
//! the `chunks_x*` tests check on the map and the `scenario` crate's
//! `every_kind_reproduces_its_pins_on_every_schedule` on whole runs. The
//! mapped closure gets each item by value, so per-item RNG or scratch state
//! travels inside the item.
//!
//! A panic inside a chunk is captured, the remaining chunks still run, and
//! the first payload is re-thrown on the call's own caller afterwards.

#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Maximum number of threads running chunks at once, process-wide:
/// `PARALLEL_THREADS` (at least 1; `1` runs everything in-line), read once at
/// first use, or every available core when it is unset or empty. Any other
/// value that is not a non-negative integer panics, naming the variable.
pub fn max_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| match env_pin("PARALLEL_THREADS") {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// Over-decomposition factor: [`par_map`] targets `chunk_factor() ×`
/// [`max_threads`] chunks (capped by the item count). Defaults to 16; pinned
/// with `PARALLEL_CHUNKS` (at least 1; `1` gives one chunk per thread), read
/// and checked like `PARALLEL_THREADS`. The factor never affects results —
/// only how finely the scheduler can load-balance.
pub fn chunk_factor() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| env_pin("PARALLEL_CHUNKS").map_or(16, |n| n.max(1)))
}

/// Slots in use: threads inside a chunk, less callers waiting for helpers. A
/// top-level caller takes one even beyond [`max_threads`]; helpers never do.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread runs inside a chunk, and so already holds a slot.
    static IN_CHUNK: Cell<bool> = const { Cell::new(false) };
}

/// Take up to `want` free slots; returns how many were taken.
fn reserve(want: usize) -> usize {
    let free = |active: usize| want.min(max_threads().saturating_sub(active));
    let prev = ACTIVE.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |a| Some(a + free(a)));
    free(prev.expect("the update always applies"))
}

/// One fork/join call in flight: the chunk counter its participants claim
/// from, how many of them have not yet left, and the first panic.
struct FanOut<'a, F> {
    run: &'a F,
    chunks: usize,
    next: AtomicUsize,
    working: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<F: Fn(usize) + Sync> FanOut<'_, F> {
    /// Claim and run chunks until none is left, then leave.
    fn participate(&self) {
        loop {
            let c = self.next.fetch_add(1, Ordering::Relaxed);
            if c >= self.chunks {
                return self.leave();
            }
            telemetry::metrics::POOL_CHUNKS_CLAIMED.add(1);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.run)(c))) {
                let mut first = self.panic.lock().expect("fork/join panic slot poisoned");
                first.get_or_insert(payload);
            }
        }
    }

    /// Every participant but the last gives its slot back; the last one's
    /// passes to the caller, which resumes with it after the join.
    fn leave(&self) {
        if self.working.fetch_sub(1, Ordering::SeqCst) > 1 {
            ACTIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Run `run(0), run(1), …, run(chunks - 1)` on the calling thread and on up
/// to `chunks - 1` helpers spawned into free slots (see the module docs), and
/// return when every chunk has run. If any chunk panicked, the first panic
/// is re-thrown on the calling thread then.
pub fn fork_join_chunks<F: Fn(usize) + Sync>(chunks: usize, run: &F) {
    // Sched plane: a sequential `par_map` never gets here, so this count
    // (like the chunk count) describes the schedule, not the program.
    telemetry::metrics::POOL_FORK_JOINS.add(1);
    let top_level = !IN_CHUNK.replace(true);
    if top_level {
        ACTIVE.fetch_add(1, Ordering::SeqCst);
    }
    let helpers = reserve(chunks.saturating_sub(1));
    let fan = FanOut {
        run,
        chunks,
        next: AtomicUsize::new(0),
        working: AtomicUsize::new(1 + helpers),
        panic: Mutex::new(None),
    };
    std::thread::scope(|s| {
        for _ in 0..helpers {
            let helper = || {
                IN_CHUNK.set(true);
                fan.participate();
            };
            if std::thread::Builder::new().spawn_scoped(s, helper).is_err() {
                fan.leave();
            }
        }
        fan.participate();
    });
    if top_level {
        ACTIVE.fetch_sub(1, Ordering::SeqCst);
        IN_CHUNK.set(false);
    }
    if let Some(payload) = fan.panic.into_inner().expect("panic slot poisoned") {
        resume_unwind(payload);
    }
}

/// Contiguous chunk length for `n ≥ 1` items in `threads × factor` chunks.
fn chunk_len(n: usize, threads: usize, factor: usize) -> usize {
    n.div_ceil((threads * factor).min(n))
}

/// Map every item through `f` in parallel and return the results in input
/// order: bit-identical to `items.into_iter().map(f).collect()` on any
/// schedule (see the module docs). A sequential configuration or fewer than
/// two items run in-line. A panic in `f` reaches the caller with its own
/// payload.
pub fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    // Both pins are read (and so checked) by every map, whichever path it takes.
    let (threads, factor) = (max_threads(), chunk_factor());
    if threads <= 1 || n < 2 {
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
