//! The benchmark's only wall-clock read.

use std::time::Instant;

/// The current instant. Every timing in the benchmark goes through here.
pub fn now() -> Instant {
    // detlint: allow(DET-CLOCK) — the benchmark measures host wall time from outside the program; no simulated result depends on it
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    now().duration_since(start).as_secs_f64()
}
