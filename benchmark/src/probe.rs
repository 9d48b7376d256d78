//! Host-speed calibration.
//!
//! This host is shared: the same binary on the same input took 2.6 s, 3.0 s
//! and 3.9 s within one hour, CPU time moving with wall time, because the
//! neighbours' load changes over minutes. No statistic over the operations
//! of one run removes a drift that outlasts the run, so every run also times
//! a fixed kernel of the benchmark's own — never the code under test —
//! interleaved with its operations, and reports its times in seconds of a
//! reference-speed host: measured seconds x (reference slice time / this
//! run's mean slice time). Means on both sides, not medians: a run's
//! operations and its slices then integrate the host's speed over the same
//! twenty seconds. On the raw samples of sixty runs in three of the host's
//! moods (medians, trimmed means, minima, per-operation calibration by the
//! neighbouring slices) nothing was steadier across all of them: run-to-run
//! spread of a 1.5 s operation under heavy neighbour load 34 % raw, 15 %
//! median over median, 11 % mean over mean; its CPU time 33 %, 10 %, 5 %.
//!
//! The kernel runs on two threads at once, as the program under test loads
//! the host: what drifts is the capacity of both vCPUs together (a one-thread
//! kernel read 0.93–1.18 while two-thread operations slowed by 35 %). Two
//! fresh threads can also land on one vCPU and stay there for the whole
//! slice — the guest scheduler's doing, not the host's — which reads exactly
//! twice too long; such a slice shows in its threads' own CPU time (half
//! their wall time) and is timed again.

use crate::{clock, procfs, stats};
use std::hint::black_box;

/// Kernel repetitions per slice, and the slice time that defines speed 1.0
/// (this host when its neighbours are quiet).
const SLICE_ITERS: usize = 24_000;
const REFERENCE_SLICE_S: f64 = 0.2;
/// Share of a measured loop spent in slices.
const SHARE: f64 = 0.2;

/// Threads per slice: the program under test's `PARALLEL_THREADS`.
const THREADS: usize = crate::THREADS;
/// A thread that got less than this share of a CPU during its slice shared
/// one with its sibling; the slice is discarded and timed again, at most
/// this often.
const MIN_CPU_SHARE: f64 = 0.75;
const MAX_RETRIES: usize = 4;

/// FMA-bound axpy and dot over two 64 KB arrays — like the training kernels
/// it lives in L1/L2 and slows down with a busy sibling hyper-thread or a
/// lower clock. Returns the share of a CPU the calling thread got.
fn kernel() -> f64 {
    let cpu_before = procfs::cpu_times("thread-self").map_or(0.0, |c| c.own_s);
    let start = clock::now();
    let mut a = vec![1.000_001_f64; 8192];
    let b = vec![0.999_999_f64; 8192];
    let mut acc = 0.0;
    for it in 0..SLICE_ITERS {
        let alpha = 1e-9 * (it as f64 + 1.0);
        for (x, y) in a.iter_mut().zip(&b) {
            *x = y.mul_add(alpha, *x);
        }
        acc += a.iter().zip(&b).map(|(x, y)| x * y).sum::<f64>();
    }
    black_box(acc);
    let cpu_after = procfs::cpu_times("thread-self").map_or(f64::INFINITY, |c| c.own_s);
    (cpu_after - cpu_before) / clock::secs_since(start)
}

/// One slice: the kernel on every thread at once. Returns its wall time in
/// seconds and whether every thread had a CPU to itself.
fn slice_once() -> (f64, bool) {
    let start = clock::now();
    let clean = std::thread::scope(|s| {
        let threads: Vec<_> = (0..THREADS).map(|_| s.spawn(kernel)).collect();
        threads
            .into_iter()
            .all(|t| t.join().is_ok_and(|share| share >= MIN_CPU_SHARE))
    });
    (clock::secs_since(start), clean)
}

/// One slice with every thread on a CPU of its own, retried if not.
pub fn slice() -> f64 {
    let mut last = 0.0;
    for _ in 0..=MAX_RETRIES {
        let (seconds, clean) = slice_once();
        if clean {
            return seconds;
        }
        last = seconds;
    }
    last
}

/// The slices of one run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    slices_s: Vec<f64>,
}

impl HostSpeed {
    /// Time slices until they make up their share of a loop that has run for
    /// `elapsed_s`; at least one.
    pub fn keep_up(&mut self, elapsed_s: f64) {
        loop {
            self.slices_s.push(slice());
            if self.slices_s.iter().sum::<f64>() >= SHARE * elapsed_s {
                return;
            }
        }
    }

    /// Mean slice time in seconds.
    pub fn slice_s(&self) -> f64 {
        stats::mean(&self.slices_s).unwrap_or(REFERENCE_SLICE_S)
    }

    /// How much slower than the reference the host ran (1.0 = reference).
    pub fn slowdown(&self) -> f64 {
        self.slice_s() / REFERENCE_SLICE_S
    }

    /// Measured times, in seconds of the reference-speed host.
    pub fn calibrate(&self, measured: &[f64]) -> Vec<f64> {
        let slowdown = self.slowdown();
        measured.iter().map(|t| t / slowdown).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_divides_by_the_mean_slowdown() {
        let speed = HostSpeed {
            slices_s: vec![0.3, 0.5],
        };
        assert_eq!(speed.slowdown(), 2.0);
        assert_eq!(speed.calibrate(&[3.0, 1.5]), vec![1.5, 0.75]);
        // No slices, no correction.
        assert_eq!(HostSpeed::default().slowdown(), 1.0);
    }

    #[test]
    fn keep_up_times_at_least_one_slice() {
        let mut speed = HostSpeed::default();
        speed.keep_up(0.0);
        assert_eq!(speed.slices_s.len(), 1);
        assert!(speed.slice_s() > 0.0);
    }
}
