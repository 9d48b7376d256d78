//! Cooperative cancellation for long-running simulation cells.
//!
//! A grid cell is a pure, single-threaded round loop; there is no safe way to
//! preempt it from outside without `unsafe` or process isolation. Instead the
//! engines poll a thread-local [`CancelToken`] at every round boundary via
//! [`checkpoint`]: a watchdog (or any monitor) that owns a clone of the token
//! flips it, and the *next* round boundary turns the flip into a panic. The
//! panic unwinds into the harness's existing `catch_unwind` isolation layer
//! and becomes a labelled `CellFailure` — the hung cell dies, the grid
//! completes.
//!
//! The design is cooperative by construction: a cell stuck *inside* a single
//! round (e.g. in member training) is only observed at the next boundary it
//! reaches. Round bodies are short (micro- to milliseconds of host time), so
//! in practice cancellation latency is one round. The checkpoint itself is a
//! thread-local read — it performs no floating-point work and never touches
//! RNG state, so instrumented runs stay bit-identical to uninstrumented ones.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A shared cancellation flag. Clones observe the same flag; flipping it with
/// [`CancelToken::cancel`] asks the cell that installed it to abort at its
/// next round boundary.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; takes effect at the target cell's
    /// next [`checkpoint`].
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Process-wide cancellation flag, checked by [`checkpoint`] alongside the
/// thread-local token. The job server flips it to abort *every* in-flight
/// cell of the current grid (cancel-while-running) without having to reach
/// each pool worker's token; batch drivers never set it, so the cost is one
/// relaxed load per round boundary.
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

/// Guard returned by [`install`]; restores the previously installed token
/// (usually `None`) when dropped, so nested installs behave like a stack.
#[derive(Debug)]
pub struct CancelGuard {
    prev: Option<CancelToken>,
}

/// Installs `token` as the current thread's active cancellation token and
/// returns a guard that restores the previous one on drop. The engines only
/// ever consult the *installed* token, so a cell with no watchdog pays a
/// single `None` check per round.
pub fn install(token: CancelToken) -> CancelGuard {
    let prev = ACTIVE.with(|a| a.borrow_mut().replace(token));
    CancelGuard { prev }
}

impl Drop for CancelGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        ACTIVE.with(|a| *a.borrow_mut() = prev);
    }
}

/// Whether the current thread has an installed, still-pending token.
/// (Diagnostic; the engines use [`checkpoint`].)
pub fn is_installed() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Round-boundary poll: panics if the installed token has been cancelled.
/// Called by the group-async engine and the Dynamic baseline at the top of
/// every round; a no-op when no token is installed or it is still live.
pub fn checkpoint(round: usize) {
    // Every engine polls here once per attempted round, which makes this the
    // single place to count rounds for telemetry's logical plane.
    telemetry::metrics::ENGINE_ROUNDS.add(1);
    if CANCEL_ALL.load(Ordering::Relaxed) {
        panic!("cancelled: the job was cancelled at the round-{round} boundary");
    }
    let cancelled = ACTIVE.with(|a| {
        a.borrow()
            .as_ref()
            .map(CancelToken::is_cancelled)
            .unwrap_or(false)
    });
    if cancelled {
        panic!("timed out: watchdog cancelled the cell at the round-{round} boundary");
    }
}

/// Spin (politely) until the installed token is cancelled, then panic exactly
/// like [`checkpoint`]. This is the implementation of the *injected hang*
/// test fault: it simulates an infinite loop that the watchdog must break.
///
/// If no token is installed the "hang" would stall the process forever, so it
/// panics immediately with an explanation instead — an injected hang is only
/// meaningful under a `[limits] cell_timeout_secs` watchdog.
pub fn hang_until_cancelled(round: usize) {
    if !is_installed() {
        panic!(
            "injected hang at round {round} has no watchdog to break it: \
             set [limits] cell_timeout_secs in the scenario"
        );
    }
    loop {
        checkpoint(round);
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn checkpoint_is_a_noop_without_a_token() {
        checkpoint(1);
        assert!(!is_installed());
    }

    #[test]
    fn cancelled_token_panics_at_the_next_checkpoint() {
        let token = CancelToken::new();
        let guard = install(token.clone());
        checkpoint(3); // live token: no panic
        token.cancel();
        let err = catch_unwind(AssertUnwindSafe(|| checkpoint(4))).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("timed out"), "message was: {msg}");
        assert!(msg.contains("round-4"), "message was: {msg}");
        drop(guard);
        assert!(!is_installed());
    }

    #[test]
    fn install_guard_restores_the_previous_token() {
        let outer = CancelToken::new();
        let g1 = install(outer.clone());
        {
            let inner = CancelToken::new();
            let _g2 = install(inner);
            assert!(is_installed());
        }
        // Outer token is active again: cancelling it trips the checkpoint.
        outer.cancel();
        assert!(catch_unwind(AssertUnwindSafe(|| checkpoint(1))).is_err());
        drop(g1);
    }

    #[test]
    fn hang_without_a_watchdog_panics_immediately() {
        let err = catch_unwind(AssertUnwindSafe(|| hang_until_cancelled(2))).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("no watchdog"), "message was: {msg}");
    }

    #[test]
    fn hang_breaks_when_the_token_is_cancelled() {
        let token = CancelToken::new();
        let handle = {
            let token = token.clone();
            std::thread::spawn(move || {
                let _guard = install(token);
                catch_unwind(AssertUnwindSafe(|| hang_until_cancelled(7))).unwrap_err();
                "broke out"
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        token.cancel();
        assert_eq!(handle.join().unwrap(), "broke out");
    }
}
