//! Fork/join tests that force a multi-threaded configuration.
//!
//! The CI/sandbox machines may report a single core, in which case no helper
//! is ever spawned and the in-crate unit tests only exercise the in-line
//! path. This integration test binary contains *only* tests that call
//! [`force_threads`] before any fan-out, so the process-wide thread-count
//! cache is guaranteed to be initialised to 4 and chunks genuinely run on
//! helper threads.

use parallel::{fork_join_chunks, max_threads, par_map};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

/// Pin `PARALLEL_THREADS=4` before any fan-out reads it. Every test in this
/// binary must call this first; the `Once` makes the write race-free across
/// the test harness's threads because the first caller wins before any
/// fan-out can cache a different value.
fn force_threads() {
    static FORCE: Once = Once::new();
    FORCE.call_once(|| {
        std::env::set_var("PARALLEL_THREADS", "4");
        assert_eq!(max_threads(), 4, "thread count cached before the tests ran");
    });
}

#[test]
fn forked_map_is_bit_identical_to_sequential() {
    force_threads();
    let xs: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.37).cos()).collect();
    let par = par_map(xs.clone(), |x| x.mul_add(1.25, -0.5).exp());
    let seq: Vec<f64> = xs.iter().map(|&x| x.mul_add(1.25, -0.5).exp()).collect();
    assert_eq!(par.len(), seq.len());
    for (a, b) in par.iter().zip(seq.iter()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn consuming_map_is_bit_identical_to_sequential() {
    force_threads();
    let xs: Vec<u64> = (0..10_001).collect();
    let par = par_map(xs.clone(), |x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7);
    let seq: Vec<u64> = xs
        .into_iter()
        .map(|x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7)
        .collect();
    assert_eq!(par, seq);
}

#[test]
fn fork_join_covers_every_chunk_exactly_once() {
    force_threads();
    for chunks in [2usize, 3, 4, 5, 8, 16, 64] {
        let counts: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
        fork_join_chunks(chunks, &|c| {
            counts[c].fetch_add(1, Ordering::Relaxed);
        });
        for (c, cnt) in counts.iter().enumerate() {
            assert_eq!(cnt.load(Ordering::Relaxed), 1, "chunk {c} of {chunks}");
        }
    }
}

#[test]
fn nested_fan_out_runs_on_the_pool_without_deadlock() {
    force_threads();
    // Outer fan-out of 8 tasks, each issuing an inner fan-out of 8: the inner
    // calls are issued from helpers (and from the caller), and a caller that
    // runs out of chunks frees its slot for them. 500 repetitions to shake
    // out races.
    for _ in 0..500 {
        let sums = par_map((0..8).collect(), |o: usize| {
            par_map((0..8).collect(), |i: usize| o * 100 + i)
                .iter()
                .sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|o| (0..8).map(|i| o * 100 + i).sum()).collect();
        assert_eq!(sums, expect);
    }
}

#[test]
fn deep_nesting_terminates() {
    force_threads();
    fn recurse(depth: usize) -> usize {
        if depth == 0 {
            return 1;
        }
        par_map(vec![depth; 3], |d| recurse(d - 1)).iter().sum()
    }
    // 3^4 leaves across 4 levels of nested fan-out.
    assert_eq!(recurse(4), 81);
}

#[test]
fn chunk_panic_propagates_to_the_caller() {
    force_threads();
    let caught = std::panic::catch_unwind(|| {
        fork_join_chunks(8, &|c| {
            if c == 5 {
                panic!("chunk five exploded");
            }
        });
    });
    let payload = caught.expect_err("panic must propagate");
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .unwrap_or("<non-str payload>");
    assert!(msg.contains("chunk five"), "unexpected payload: {msg}");
    // Fan-outs still work after a propagated panic.
    let out = par_map((0..100u32).collect(), |x| x + 1);
    assert_eq!(out[99], 100);
}

#[test]
fn map_closure_panic_propagates_with_its_own_payload() {
    force_threads();
    let caught = std::panic::catch_unwind(|| {
        par_map((0..64u32).collect(), |i| {
            if i == 37 {
                panic!("item 37 exploded");
            }
            i
        })
    });
    let payload = caught.expect_err("panic must propagate");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or("?");
    assert_eq!(msg, "item 37 exploded");
    assert_eq!(par_map((0..64u32).collect(), |i| i * 2)[63], 126);
}

#[test]
fn many_small_fan_outs_reuse_the_pool() {
    force_threads();
    // Thousands of back-to-back fork/joins: if a call leaked a slot or a
    // thread this would serialise or blow up quickly.
    let total = AtomicUsize::new(0);
    for _ in 0..5_000 {
        fork_join_chunks(4, &|_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
    }
    assert_eq!(total.load(Ordering::Relaxed), 20_000);
}
