//! Shared body for the `fork_join_x*` integration test binaries: helpers are
//! spawned into free slots only, a caller with nothing left frees its slot,
//! and a helper's panic reaches its own fan-out's caller.
//!
//! The crate caches `PARALLEL_THREADS` once per process, so each thread
//! count gets its own binary — 2 (the repo benchmark's setting) and 4. Each
//! binary holds a single `#[test]` that runs the whole suite, so the test
//! thread is the only top-level caller in the process and every scenario
//! knows how many slots are free. Interleavings are forced with barriers and
//! atomics, never with sleeps: a scenario that needs a helper cannot finish
//! unless one was spawned (the barrier never opens, and the dead-man timer
//! turns the hang into a failure).

use parallel::{fork_join_chunks, max_threads};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread::{self, ThreadId};

/// Pin `PARALLEL_THREADS`, arm the dead-man timer and run every scenario.
pub fn run_suite(threads: usize) {
    std::env::set_var("PARALLEL_THREADS", threads.to_string());
    assert_eq!(max_threads(), threads, "thread count cached too early");
    thread::spawn(|| {
        thread::sleep(std::time::Duration::from_secs(300));
        eprintln!("fork/join suite still running after 300 s: a barrier never opened");
        std::process::exit(1);
    });
    every_chunk_of_an_idle_fan_out_gets_a_thread(threads);
    a_fan_out_with_every_slot_busy_runs_on_its_caller(threads);
    every_chunk_of_an_idle_fan_out_gets_a_thread(threads);
    a_helpers_panic_reaches_its_own_fan_outs_caller(threads);
    every_chunk_of_an_idle_fan_out_gets_a_thread(threads);
    nested_stress_keeps_counts_and_never_exceeds_the_slots(threads);
    every_chunk_of_an_idle_fan_out_gets_a_thread(threads);
}

fn me() -> ThreadId {
    thread::current().id()
}

/// (a) With nothing else running, a top-level fan-out of `threads` chunks
/// that meet at a barrier opens it: the caller and `threads - 1` helpers
/// each hold one chunk. Run between the other scenarios, it also shows that
/// they returned every slot they took.
fn every_chunk_of_an_idle_fan_out_gets_a_thread(threads: usize) {
    let gate = Barrier::new(threads);
    let ran: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    fork_join_chunks(threads, &|_| {
        gate.wait();
        ran.lock().unwrap().push(me());
    });
    let ran = ran.into_inner().unwrap();
    assert_eq!(ran.len(), threads);
    for (k, id) in ran.iter().enumerate() {
        assert!(!ran[..k].contains(id), "a thread ran two chunks");
    }
    assert!(ran.contains(&me()), "the caller must run a chunk");
}

/// (c) While every slot is busy — each chunk of a `threads`-chunk fan-out is
/// held at a second barrier — a fan-out issued from one of them runs all its
/// chunks on its caller, in index order.
fn a_fan_out_with_every_slot_busy_runs_on_its_caller(threads: usize) {
    let (all_in, hold) = (Barrier::new(threads), Barrier::new(threads));
    let ran: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());
    let issuer = Mutex::new(None);
    fork_join_chunks(threads, &|c| {
        all_in.wait();
        if c == 0 {
            *issuer.lock().unwrap() = Some(me());
            fork_join_chunks(4 * threads, &|i| ran.lock().unwrap().push((i, me())));
        }
        hold.wait();
    });
    let issuer = issuer.into_inner().unwrap().expect("chunk 0 ran");
    let expect: Vec<_> = (0..4 * threads).map(|i| (i, issuer)).collect();
    assert_eq!(ran.into_inner().unwrap(), expect);
}

/// (d) A chunk that panics on a helper: the panic is re-thrown with its
/// payload on the fan-out's caller once both chunks ran. Nested (with a
/// slot to spare for the inner helper), it reaches the inner fan-out's
/// caller — the outer helper — and the outer call returns normally.
fn a_helpers_panic_reaches_its_own_fan_outs_caller(threads: usize) {
    let caller = me();
    let gate = Barrier::new(2);
    let ran = AtomicUsize::new(0);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        fork_join_chunks(2, &|_| {
            gate.wait();
            ran.fetch_add(1, Ordering::SeqCst);
            if me() != caller {
                panic!("helper chunk exploded");
            }
        })
    }));
    let payload = caught.expect_err("the helper's panic must reach the caller");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"helper chunk exploded")
    );
    assert_eq!(ran.load(Ordering::SeqCst), 2);
    if threads < 3 {
        return;
    }
    let (outer_gate, inner_gate) = (Barrier::new(2), Barrier::new(2));
    let inner_outcome = Mutex::new(None);
    fork_join_chunks(2, &|_| {
        outer_gate.wait();
        if me() == caller {
            return;
        }
        let issuer = me();
        let joined = catch_unwind(AssertUnwindSafe(|| {
            fork_join_chunks(2, &|_| {
                inner_gate.wait();
                if me() != issuer {
                    panic!("inner helper chunk exploded");
                }
            })
        }));
        *inner_outcome.lock().unwrap() = Some(joined);
    });
    let joined = inner_outcome
        .into_inner()
        .unwrap()
        .expect("no outer helper");
    let payload = joined.expect_err("the inner caller must re-throw");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"inner helper chunk exploded")
    );
}

/// Threads inside a chunk and not waiting in a nested join, and their peak.
static BUSY: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn busy(body: impl FnOnce()) {
    let now = BUSY.fetch_add(1, Ordering::SeqCst) + 1;
    PEAK.fetch_max(now, Ordering::SeqCst);
    body();
    BUSY.fetch_sub(1, Ordering::SeqCst);
}

/// A nested fan-out issued from a chunk: the issuing thread waits while
/// its helpers run, so it stops counting as busy until the join returns.
fn nested(chunks: usize, run: &(dyn Fn(usize) + Sync)) {
    BUSY.fetch_sub(1, Ordering::SeqCst);
    fork_join_chunks(chunks, &|c| busy(|| run(c)));
    let now = BUSY.fetch_add(1, Ordering::SeqCst) + 1;
    PEAK.fetch_max(now, Ordering::SeqCst);
}

/// (b) 5 000 fork/joins, three levels deep, uneven chunk counts and uneven
/// chunk costs: everything finishes, the sched-plane counters equal the
/// analytic counts (one `pool.fork_joins` per call, one
/// `pool.chunks_claimed` per chunk — helpers change who runs a chunk, never
/// how many there are), and the threads busy inside chunks at once never
/// exceed `max_threads()`.
fn nested_stress_keeps_counts_and_never_exceeds_the_slots(threads: usize) {
    let leaves = AtomicUsize::new(0);
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
    PEAK.store(0, Ordering::SeqCst);
    for rep in 0..reps {
        fork_join_chunks(outer_chunks, &|o| {
            busy(|| {
                nested(inner_chunks(rep, o), &|i| {
                    // Uneven cost, so callers run out of chunks while
                    // their helpers still hold theirs.
                    for _ in 0..((o * 7 + i * 13 + rep) % 5) * 300 {
                        std::hint::spin_loop();
                    }
                    if (rep + o + i) % 4 == 0 {
                        nested(leaf_chunks(rep, i), &|_| {
                            leaves.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            })
        });
    }
    telemetry::disable();
    assert_eq!(leaves.load(Ordering::Relaxed), expect_leaves);
    let peak = PEAK.load(Ordering::SeqCst);
    assert!(peak <= threads, "{peak} threads busy at once");
    assert_eq!(telemetry::metrics::POOL_FORK_JOINS.get() - before.0, calls);
    assert_eq!(
        telemetry::metrics::POOL_CHUNKS_CLAIMED.get() - before.1,
        chunks
    );
}
