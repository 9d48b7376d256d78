//! Wall-clock watchdog for grid cells.
//!
//! [`watch`] installs a [`simcore::cancel`] token on the calling thread and
//! registers a deadline with a lazily started monitor thread. If the cell is
//! still running when the deadline passes, the monitor cancels the token and
//! the cell panics at its next round boundary — the panic unwinds into the
//! harness's `catch_unwind` isolation and becomes a labelled `CellFailure`
//! whose message names the timeout. Dropping the returned guard (the normal
//! completion path) disarms the deadline.
//!
//! The watchdog is entirely out-of-band: it never touches the simulation
//! state, so a cell that finishes in time produces bit-identical output with
//! or without a watchdog. Cancellation is cooperative (round-boundary
//! polling); a cell wedged *inside* one round body is only reaped at the
//! next boundary it reaches.

#![expect(
    clippy::disallowed_methods,
    reason = "a timeout is real elapsed time by design; no simulated result reads it"
)]

use simcore::cancel::{self, CancelToken};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How often the monitor thread scans for expired deadlines. Timeouts are
/// coarse-grained by design (seconds, not milliseconds); the poll interval
/// only bounds how late past the deadline the cancel fires.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

struct Entry {
    deadline: Instant,
    token: CancelToken,
    armed: Arc<AtomicBool>,
}

fn registry() -> &'static Mutex<Vec<Entry>> {
    static REGISTRY: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        std::thread::Builder::new()
            .name("cell-watchdog".into())
            .spawn(monitor_loop)
            .expect("spawn watchdog monitor thread");
        Mutex::new(Vec::new())
    })
}

fn monitor_loop() {
    loop {
        std::thread::sleep(POLL_INTERVAL);
        let now = Instant::now();
        let mut entries = registry().lock().expect("watchdog registry poisoned");
        entries.retain(|e| {
            if !e.armed.load(Ordering::SeqCst) {
                return false; // cell finished; guard disarmed it
            }
            if e.deadline <= now {
                telemetry::metrics::WATCHDOG_CANCELS.add(1);
                e.token.cancel();
                return false;
            }
            true
        });
    }
}

/// Disarms the watchdog (and uninstalls the cancellation token) on drop.
#[derive(Debug)]
pub struct WatchGuard {
    armed: Arc<AtomicBool>,
    _install: cancel::CancelGuard,
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        self.armed.store(false, Ordering::SeqCst);
    }
}

/// Arms a watchdog for the calling thread: if the guard is still alive in
/// `timeout_secs` wall-clock seconds, the thread's cancellation token is
/// cancelled and its next round-boundary checkpoint panics with a
/// "timed out" message. Call at the top of a cell attempt and keep the
/// guard alive for the attempt's duration.
pub fn watch(timeout_secs: f64) -> WatchGuard {
    assert!(
        timeout_secs > 0.0 && timeout_secs.is_finite(),
        "watchdog timeout must be positive and finite"
    );
    let token = CancelToken::new();
    let install = cancel::install(token.clone());
    let armed = Arc::new(AtomicBool::new(true));
    registry()
        .lock()
        .expect("watchdog registry poisoned")
        .push(Entry {
            deadline: Instant::now() + Duration::from_secs_f64(timeout_secs),
            token,
            armed: Arc::clone(&armed),
        });
    WatchGuard {
        armed,
        _install: install,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn expired_watchdog_trips_the_next_checkpoint() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _guard = watch(0.05);
            // Simulate a hung cell: poll round boundaries until the
            // watchdog fires (bounded by the outer test timeout).
            loop {
                cancel::checkpoint(9);
                std::thread::sleep(Duration::from_millis(1));
            }
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("timed out"), "message was: {msg}");
    }

    #[test]
    fn completed_cell_is_never_cancelled() {
        {
            let _guard = watch(0.02);
            cancel::checkpoint(1); // finishes well inside the deadline
        }
        // Long after the deadline would have fired, this thread has no
        // token installed and checkpoints stay no-ops.
        std::thread::sleep(Duration::from_millis(50));
        cancel::checkpoint(2);
        assert!(!cancel::is_installed());
    }
}
