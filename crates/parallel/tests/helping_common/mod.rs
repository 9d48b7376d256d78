//! Shared body for the `helping_x*` integration test binaries: the helping
//! join (a caller whose own chunks are all claimed executes chunks of other
//! queued calls instead of blocking) and its depth rule.
//!
//! The pool caches `PARALLEL_THREADS` once per process, so each thread count
//! gets its own binary — 4 like `pool_forced`, and 2 because there the
//! joining caller is the *only* other thread. Each binary holds a single
//! `#[test]` that runs the whole suite, so the test thread is the only
//! top-level caller in the process and every scenario knows exactly which
//! threads exist. Interleavings are forced with barriers and atomics, never
//! with sleeps: a scenario that needs a thread to help cannot finish unless
//! that thread does (a pool that blocks in its join hangs, and the dead-man
//! timer turns the hang into a failure).

use parallel::{fork_join_chunks, max_threads, par_map, pool_workers};
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread::{self, ThreadId};

/// Pin `PARALLEL_THREADS`, arm the dead-man timer and run every scenario.
pub fn run_suite(threads: usize) {
    std::env::set_var("PARALLEL_THREADS", threads.to_string());
    assert_eq!(max_threads(), threads, "thread count cached too early");
    assert_eq!(pool_workers(), threads - 1);
    thread::spawn(|| {
        thread::sleep(std::time::Duration::from_secs(300));
        eprintln!("helping suite still running after 300 s: a join is blocked");
        std::process::exit(1);
    });
    caller_helps_a_siblings_inner_fan_out(threads);
    helped_panic_is_rethrown_on_the_chunks_own_caller(threads);
    if threads >= 3 {
        suspended_joiner_never_takes_a_shallower_chunk(threads, false);
        suspended_joiner_never_takes_a_shallower_chunk(threads, true);
    }
    nested_stress_keeps_counts_and_never_helps_outwards(threads);
}

fn me() -> ThreadId {
    thread::current().id()
}

/// The shape of scenarios (a) and (c): an outer fan-out of `threads` chunks
/// that rendezvous before they start, so the top-level caller and each worker
/// hold exactly one. The caller's chunk and all but one worker's return at
/// once; the remaining worker's chunk is fat — it forks an inner fan-out of
/// `threads` chunks that rendezvous again and then run `inner`. That second
/// rendezvous needs every thread of the process inside an inner chunk at
/// once, so it only opens if the top-level caller, whose own call has no
/// chunk left, helps. Returns what the fat chunk's inner call returned to
/// its own caller (the worker), and on which thread.
fn fat_sibling(threads: usize, inner: impl Fn() + Sync) -> (ThreadId, thread::Result<()>) {
    let caller = me();
    let (outer_gate, inner_gate) = (Barrier::new(threads), Barrier::new(threads));
    let fat_taken = AtomicBool::new(false);
    let outcome = Mutex::new(None);
    fork_join_chunks(threads, &|_| {
        outer_gate.wait();
        if me() == caller || fat_taken.swap(true, Ordering::SeqCst) {
            return;
        }
        let joined = catch_unwind(AssertUnwindSafe(|| {
            fork_join_chunks(threads, &|_| {
                inner_gate.wait();
                inner();
            });
        }));
        *outcome.lock().unwrap() = Some((me(), joined));
    });
    outcome.into_inner().unwrap().expect("no chunk was fat")
}

/// (a) The caller's own chunk is done while a sibling chunk on a worker is
/// still running an inner fan-out: the caller executes one of its chunks.
fn caller_helps_a_siblings_inner_fan_out(threads: usize) {
    let caller = me();
    let ran_inner: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    let (fat_thread, joined) = fat_sibling(threads, || ran_inner.lock().unwrap().push(me()));
    assert!(joined.is_ok());
    assert_ne!(fat_thread, caller);
    let ran_inner = ran_inner.into_inner().unwrap();
    assert_eq!(ran_inner.len(), threads);
    for (k, id) in ran_inner.iter().enumerate() {
        assert!(
            !ran_inner[..k].contains(id),
            "a thread ran two inner chunks"
        );
    }
    assert!(
        ran_inner.contains(&caller),
        "the joining caller must execute a chunk of the worker's inner fan-out"
    );
}

/// (c) The inner chunk that lands on the helping top-level caller panics. The
/// panic belongs to the inner call: it is re-thrown on the worker that issued
/// it, and the helper's own (outer) call completes normally — `fat_sibling`
/// returning at all, instead of unwinding, is that half of the claim.
fn helped_panic_is_rethrown_on_the_chunks_own_caller(threads: usize) {
    let caller = me();
    let (fat_thread, joined) = fat_sibling(threads, || {
        if me() == caller {
            panic!("helped chunk exploded");
        }
    });
    assert_ne!(fat_thread, caller);
    let payload = joined.expect_err("the inner call must re-throw its chunk's panic");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or("?");
    assert!(msg.contains("helped chunk exploded"), "payload: {msg}");
    // The pool is still functional.
    let total = AtomicUsize::new(0);
    fork_join_chunks(8, &|c| {
        total.fetch_add(c, Ordering::Relaxed);
    });
    assert_eq!(total.load(Ordering::Relaxed), 28);
}

thread_local! {
    /// Set while this thread is inside (possibly suspended in) chunk `g0`.
    static IN_G0: Cell<bool> = const { Cell::new(false) };
}

/// (b) A thread suspended in the join of a depth-2 call must not pick up
/// depth-1 chunks that are published while it waits.
///
/// Outer call (depth 0): `P1`, `P2` on two threads. `P1` forks `G1` with a
/// single chunk `g0` — a one-cell grid: it runs in-line (as a one-chunk
/// `fork_join_chunks`, or with `as_map` as a one-item parallel map) and is a
/// level all the same — and `g0` forks `H` (depth 2, two chunks on two
/// threads). The `H` chunk on `g0`'s thread returns, so that thread joins `H`
/// with nothing of its own left while a helper holds the other `H` chunk.
/// Only then does `P2` publish `G2` (depth 1, many chunks): the broadcast
/// wakes the suspended joiner, which must go back to sleep. Needs a thread
/// for `g0`, one for `P2` and one to hold the `H` chunk, hence
/// `threads >= 3` (with a single other thread, oldest-first claiming never
/// leaves a shallower chunk queued behind a deeper one that thread already
/// took).
fn suspended_joiner_never_takes_a_shallower_chunk(threads: usize, as_map: bool) {
    let (outer_gate, h_gate) = (Barrier::new(2), Barrier::new(2));
    let joiner_waiting = AtomicBool::new(false);
    let release_holder = AtomicBool::new(false);
    let g2_inside_g0 = AtomicUsize::new(0);
    let g2_chunks = AtomicUsize::new(0);
    let spin_until = |flag: &AtomicBool| {
        while !flag.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
    };
    let h_chunk = || {
        h_gate.wait();
        if IN_G0.get() {
            // Returning sends this thread into H's join with the other
            // chunk still held: it is now a suspended depth-2 joiner.
            joiner_waiting.store(true, Ordering::SeqCst);
        } else {
            spin_until(&release_holder);
        }
    };
    let g0 = || {
        IN_G0.set(true);
        fork_join_chunks(2, &|_| h_chunk());
        IN_G0.set(false);
    };
    let g2_chunk = || {
        g2_chunks.fetch_add(1, Ordering::SeqCst);
        if IN_G0.get() {
            g2_inside_g0.fetch_add(1, Ordering::SeqCst);
        }
        // Long enough for a woken thread to reach the queue.
        for _ in 0..20_000 {
            std::hint::spin_loop();
        }
    };
    fork_join_chunks(2, &|p| {
        outer_gate.wait();
        if p == 0 && as_map {
            par_map(vec![()], |()| g0());
        } else if p == 0 {
            fork_join_chunks(1, &|_| g0());
        } else {
            spin_until(&joiner_waiting);
            fork_join_chunks(8 * threads, &|_| g2_chunk());
            release_holder.store(true, Ordering::SeqCst);
        }
    });
    assert_eq!(g2_chunks.load(Ordering::SeqCst), 8 * threads);
    assert_eq!(
        g2_inside_g0.load(Ordering::SeqCst),
        0,
        "a thread suspended in a depth-2 join executed depth-1 chunks"
    );
}

thread_local! {
    /// Nesting levels of the chunks this thread is inside, innermost last.
    static LEVELS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// (d) 5 000 fork/joins, three levels deep, uneven chunk counts and uneven
/// chunk costs: everything finishes (no deadlock, no lost wake-up), the
/// sched-plane counters equal the analytic counts (one `pool.fork_joins` per
/// call, one `pool.chunks_claimed` per chunk — helping changes who runs a
/// chunk, never how many there are), and no chunk ever starts on a thread
/// that is suspended inside a chunk of the same or a deeper level.
fn nested_stress_keeps_counts_and_never_helps_outwards(threads: usize) {
    let outward = AtomicUsize::new(0);
    let leaves = AtomicUsize::new(0);
    let enter = |level: usize, body: &dyn Fn()| {
        LEVELS.with_borrow_mut(|l| {
            if l.last().is_some_and(|&top| level <= top) {
                outward.fetch_add(1, Ordering::Relaxed);
            }
            l.push(level);
        });
        body();
        LEVELS.with_borrow_mut(|l| l.pop());
    };
    let inner_chunks = |rep: usize, o: usize| 2 + (rep + o) % 3;
    let leaf_chunks = |rep: usize, i: usize| 2 + (rep + i) % 2;
    let outer_chunks = threads + 1;
    let reps = 5_000 / (1 + outer_chunks);
    let (mut calls, mut chunks, mut expect_leaves) = (0u64, 0u64, 0usize);
    for rep in 0..reps {
        calls += 1 + outer_chunks as u64;
        chunks += outer_chunks as u64;
        for o in 0..outer_chunks {
            chunks += inner_chunks(rep, o) as u64;
            // Every fourth inner chunk forks a third level.
            for i in (0..inner_chunks(rep, o)).filter(|i| (rep + o + i) % 4 == 0) {
                calls += 1;
                chunks += leaf_chunks(rep, i) as u64;
                expect_leaves += leaf_chunks(rep, i);
            }
        }
    }
    telemetry::enable();
    let before = (
        telemetry::metrics::POOL_FORK_JOINS.get(),
        telemetry::metrics::POOL_CHUNKS_CLAIMED.get(),
    );
    for rep in 0..reps {
        fork_join_chunks(outer_chunks, &|o| {
            enter(0, &|| {
                fork_join_chunks(inner_chunks(rep, o), &|i| {
                    enter(1, &|| {
                        // Uneven cost, so joiners run out of own chunks
                        // while other threads still hold theirs.
                        for _ in 0..((o * 7 + i * 13 + rep) % 5) * 300 {
                            std::hint::spin_loop();
                        }
                        if (rep + o + i) % 4 == 0 {
                            fork_join_chunks(leaf_chunks(rep, i), &|_| {
                                enter(2, &|| {
                                    leaves.fetch_add(1, Ordering::Relaxed);
                                });
                            });
                        }
                    });
                });
            });
        });
    }
    telemetry::disable();
    assert_eq!(leaves.load(Ordering::Relaxed), expect_leaves);
    assert_eq!(
        outward.load(Ordering::Relaxed),
        0,
        "a joiner helped outwards"
    );
    assert_eq!(telemetry::metrics::POOL_FORK_JOINS.get() - before.0, calls);
    assert_eq!(
        telemetry::metrics::POOL_CHUNKS_CLAIMED.get() - before.1,
        chunks
    );
}
