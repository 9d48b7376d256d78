//! Shared body for the `chunks_x*` integration test binaries.
//!
//! The crate caches `PARALLEL_THREADS` / `PARALLEL_CHUNKS` once per process,
//! so each over-decomposition factor gets its own test binary: the binary
//! pins the environment before any fan-out, then runs this suite, which
//! checks that every parallel-map shape is **bit-identical** to its
//! sequential counterpart whatever the factor.

use parallel::{chunk_factor, fork_join_chunks, max_threads, par_map};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

/// Pin `PARALLEL_THREADS=4` and `PARALLEL_CHUNKS=<factor>` before the crate
/// reads them. Every test must call this first (the `Once` makes the write
/// race-free across the test harness's threads).
pub fn force(factor: usize) {
    static FORCE: Once = Once::new();
    FORCE.call_once(|| {
        std::env::set_var("PARALLEL_THREADS", "4");
        std::env::set_var("PARALLEL_CHUNKS", factor.to_string());
        assert_eq!(max_threads(), 4, "thread count cached before the tests ran");
        assert_eq!(
            chunk_factor(),
            factor,
            "chunk factor cached before the tests ran"
        );
    });
}

/// The map consumes its input and preserves its order exactly.
pub fn consuming_map_matches_sequential() {
    let xs: Vec<u64> = (0..4_441).collect();
    let par = par_map(xs.clone(), |x| x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 9);
    let seq: Vec<u64> = xs
        .into_iter()
        .map(|x| x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 9)
        .collect();
    assert_eq!(par, seq);
}

/// Nested fan-out (the two-level experiment-grid shape): outer cells issue
/// inner parallel maps; the whole thing must match the nested sequential
/// computation bit for bit.
pub fn nested_fan_out_matches_sequential() {
    let outer: Vec<u64> = (0..13).collect();
    let run_inner = |o: u64| -> f64 {
        let inner: Vec<f64> = (0..37).map(|i| (i as f64 + o as f64 * 0.5).cos()).collect();
        let mapped = par_map(inner, |x| x * 1.000001 + 0.25);
        mapped.iter().sum()
    };
    let par = par_map(outer.clone(), run_inner);
    let seq: Vec<f64> = outer
        .iter()
        .map(|&o| {
            let inner: Vec<f64> = (0..37).map(|i| (i as f64 + o as f64 * 0.5).cos()).collect();
            let mapped: Vec<f64> = inner.iter().map(|&x| x * 1.000001 + 0.25).collect();
            mapped.iter().sum()
        })
        .collect();
    for (a, b) in par.iter().zip(seq.iter()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// Wildly uneven per-item costs (the tail-latency case over-decomposition
/// exists for): results must still be position-exact.
pub fn uneven_item_costs_stay_ordered() {
    let xs: Vec<usize> = (0..97).collect();
    let par = par_map(xs.clone(), |i| {
        // Item cost varies by ~300x across the input.
        let spins = if i % 7 == 0 { 30_000 } else { 100 };
        let mut acc = i as u64;
        for s in 0..spins {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(s);
        }
        acc
    });
    let seq: Vec<u64> = xs
        .iter()
        .map(|&i| {
            let spins = if i % 7 == 0 { 30_000 } else { 100 };
            let mut acc = i as u64;
            for s in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(s);
            }
            acc
        })
        .collect();
    assert_eq!(par, seq);
}

/// A panic inside the mapped closure reaches the caller with its own
/// payload, never as a poisoned slot, and later maps keep working.
pub fn closure_panic_reaches_the_caller() {
    let caught = std::panic::catch_unwind(|| {
        par_map((0..97u32).collect(), |i| {
            if i == 61 {
                panic!("item 61 exploded");
            }
            i
        })
    });
    let payload = caught.expect_err("the panic must propagate");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or("?");
    assert_eq!(msg, "item 61 exploded");
    assert_eq!(par_map((0..97u32).collect(), |i| i + 1)[96], 97);
}

/// `fork_join_chunks` is unaffected by the factor (the caller fixes the chunk
/// count) — every chunk still runs exactly once.
pub fn fork_join_still_covers_every_chunk() {
    for chunks in [2usize, 5, 16, 61] {
        let counts: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
        fork_join_chunks(chunks, &|c| {
            counts[c].fetch_add(1, Ordering::Relaxed);
        });
        for (c, cnt) in counts.iter().enumerate() {
            assert_eq!(cnt.load(Ordering::Relaxed), 1, "chunk {c} of {chunks}");
        }
    }
}

/// Run the whole suite (called by each factor-pinned binary).
pub fn run_suite(factor: usize) {
    force(factor);
    consuming_map_matches_sequential();
    nested_fan_out_matches_sequential();
    uneven_item_costs_stay_ordered();
    closure_panic_reaches_the_caller();
    fork_join_still_covers_every_chunk();
}
