//! Cooperative cancellation for long-running simulation cells.
//!
//! A grid cell is a pure, single-threaded round loop; there is no safe way to
//! preempt it from outside without `unsafe` or process isolation. Instead the
//! engines call [`checkpoint`] at every round boundary, and that is the one
//! place a stop is decided, from one record per scope:
//!
//! * the calling thread's **deadline**, armed for one cell attempt by
//!   [`deadline`] (the `[limits] cell_timeout_secs` watchdog);
//! * the process-wide **cancel flag**, raised by [`cancel_all`] (the job
//!   server's cancel of a running job).
//!
//! Either turns the boundary into a panic, which unwinds into the harness's
//! existing `catch_unwind` isolation and becomes a labelled `CellFailure` —
//! the hung cell dies, the grid completes.
//!
//! The design is cooperative by construction: a cell stuck *inside* a single
//! round (e.g. in member training) is only observed at the next boundary it
//! reaches. Round bodies are short (micro- to milliseconds of host time), so
//! in practice cancellation latency is one round. The checkpoint performs no
//! floating-point work and never touches RNG state, and a deadline that does
//! not expire changes nothing, so instrumented runs stay bit-identical to
//! uninstrumented ones.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

thread_local! {
    /// When the current thread's cell attempt times out (`None`: no
    /// watchdog). A thread runs chunks of no fan-out but the one it entered,
    /// so a thread suspended inside one replicate never starts another, and
    /// deadlines never interleave.
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Process-wide cancellation flag, checked by [`checkpoint`] alongside the
/// thread's deadline. The job server raises it to abort *every* in-flight
/// cell of the current grid (cancel-while-running); batch drivers never set
/// it, so the cost is one relaxed load per round boundary.
static CANCEL_ALL: AtomicBool = AtomicBool::new(false);

/// Request cancellation of every running cell in the process. Cells observe
/// the flag at their next round boundary and panic like a watchdog trip.
pub fn cancel_all() {
    CANCEL_ALL.store(true, Ordering::SeqCst);
}

/// Clear the process-wide cancellation flag (call before starting new work
/// after a [`cancel_all`]).
pub fn reset_cancel_all() {
    CANCEL_ALL.store(false, Ordering::SeqCst);
}

/// Whether a process-wide cancellation is pending.
pub fn cancel_all_requested() -> bool {
    CANCEL_ALL.load(Ordering::SeqCst)
}

/// Guard returned by [`deadline`]; restores the previous deadline (usually
/// none) when dropped, so nested deadlines behave like a stack.
#[derive(Debug)]
pub struct DeadlineGuard {
    prev: Option<Instant>,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        DEADLINE.with(|d| d.set(self.prev));
    }
}

/// Arms a watchdog for the calling thread: once `timeout_secs` wall-clock
/// seconds have passed, its next [`checkpoint`] panics with a "timed out"
/// message. Call at the top of a cell attempt and keep the guard alive for
/// the attempt's duration.
#[expect(
    clippy::disallowed_methods,
    reason = "a timeout is real elapsed time by design; no simulated result reads it"
)]
pub fn deadline(timeout_secs: f64) -> DeadlineGuard {
    assert!(
        timeout_secs > 0.0 && timeout_secs.is_finite(),
        "watchdog timeout must be positive and finite"
    );
    let at = Instant::now() + Duration::from_secs_f64(timeout_secs);
    DeadlineGuard {
        prev: DEADLINE.with(|d| d.replace(Some(at))),
    }
}

/// Round-boundary poll: panics if the job was cancelled or the thread's
/// deadline has passed. Called by the group-async engine and the Dynamic
/// baseline at the top of every round; a no-op otherwise.
pub fn checkpoint(round: usize) {
    // Every engine polls here once per attempted round, which makes this the
    // single place to count rounds for telemetry's logical plane.
    telemetry::metrics::ENGINE_ROUNDS.add(1);
    stop_if_requested(round);
}

/// The stop decision of [`checkpoint`], without counting a round.
#[expect(
    clippy::disallowed_methods,
    reason = "a timeout is real elapsed time by design; no simulated result reads it"
)]
fn stop_if_requested(round: usize) {
    if CANCEL_ALL.load(Ordering::Relaxed) {
        panic!("cancelled: the job was cancelled at the round-{round} boundary");
    }
    if DEADLINE
        .with(Cell::get)
        .is_some_and(|at| Instant::now() >= at)
    {
        telemetry::metrics::WATCHDOG_CANCELS.add(1);
        panic!("timed out: watchdog cancelled the cell at the round-{round} boundary");
    }
}

/// Spin (politely) until the cell is stopped, then panic exactly like
/// [`checkpoint`]. This is the implementation of the *injected hang* test
/// fault: it simulates an infinite loop that the watchdog must break. The
/// spin attempts no round, so it counts none.
///
/// Without a deadline the "hang" would stall the process forever, so it
/// panics immediately with an explanation instead — an injected hang is only
/// meaningful under a `[limits] cell_timeout_secs` watchdog.
pub fn hang_until_cancelled(round: usize) {
    if DEADLINE.with(Cell::get).is_none() {
        panic!(
            "injected hang at round {round} has no watchdog to break it: \
             set [limits] cell_timeout_secs in the scenario"
        );
    }
    loop {
        stop_if_requested(round);
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn armed() -> bool {
        DEADLINE.with(Cell::get).is_some()
    }

    /// Panics `f` must raise, as text.
    fn panic_text(f: impl FnOnce()) -> String {
        let err = catch_unwind(AssertUnwindSafe(f)).unwrap_err();
        err.downcast_ref::<String>().unwrap().clone()
    }

    #[test]
    fn checkpoint_is_a_noop_without_a_token() {
        checkpoint(1);
        assert!(!armed());
    }

    #[test]
    fn cancelled_token_panics_at_the_next_checkpoint() {
        let guard = deadline(0.1);
        checkpoint(3); // live deadline: no panic
        std::thread::sleep(Duration::from_millis(120));
        let msg = panic_text(|| checkpoint(4));
        assert_eq!(
            msg,
            "timed out: watchdog cancelled the cell at the round-4 boundary"
        );
        drop(guard);
        assert!(!armed());
    }

    #[test]
    fn install_guard_restores_the_previous_token() {
        let outer = deadline(0.02);
        {
            let _inner = deadline(3600.0);
            std::thread::sleep(Duration::from_millis(30));
            checkpoint(1); // the inner deadline is the live one
        }
        // The outer deadline is active again, and has passed.
        assert!(panic_text(|| checkpoint(1)).contains("timed out"));
        drop(outer);
        assert!(!armed());
    }

    #[test]
    fn hang_without_a_watchdog_panics_immediately() {
        let msg = panic_text(|| hang_until_cancelled(2));
        assert!(msg.contains("no watchdog"), "message was: {msg}");
    }

    #[test]
    fn hang_breaks_when_the_token_is_cancelled() {
        let handle = std::thread::spawn(|| {
            let _guard = deadline(0.02);
            panic_text(|| hang_until_cancelled(7))
        });
        let msg = handle.join().unwrap();
        assert!(msg.contains("round-7"), "message was: {msg}");
    }

    #[test]
    fn expired_watchdog_trips_the_next_checkpoint() {
        let msg = panic_text(|| {
            let _guard = deadline(0.05);
            // Simulate a hung cell: poll round boundaries until the
            // deadline passes (bounded by the outer test timeout).
            loop {
                checkpoint(9);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        assert!(msg.contains("timed out"), "message was: {msg}");
        assert!(!armed(), "unwinding dropped the guard");
    }

    #[test]
    fn completed_cell_is_never_cancelled() {
        {
            let _guard = deadline(0.1);
            checkpoint(1); // finishes well inside the deadline
        }
        // Long after the deadline would have passed, this thread has no
        // deadline and checkpoints stay no-ops.
        std::thread::sleep(Duration::from_millis(150));
        checkpoint(2);
        assert!(!armed());
    }
}
