//! Live stderr progress for long grid runs.
//!
//! A [`Reporter`] tracks cells done / cached / failed / retried and renders a
//! throttled single-line status to **stderr only** — stdout stays
//! byte-identical with or without it. Rendering policy ([`ProgressMode`]):
//!
//! * `Auto` (default) — render only when stderr is a TTY, so CI logs and
//!   redirected runs stay clean.
//! * `Force` — render even when stderr is not a TTY (plain newline-terminated
//!   lines instead of carriage-return rewrites).
//! * `Off` — never render.
//!
//! The reporter works independently of the `--telemetry` sink: interactive
//! runs get progress without writing any sidecar files, and its counts come
//! from explicit harness callbacks, not the metrics registry, so it needs no
//! global enable.

use std::io::IsTerminal;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

/// When the reporter is allowed to write to stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressMode {
    /// Render only when stderr is a TTY (the default).
    Auto,
    /// Render even without a TTY.
    Force,
    /// Never render.
    Off,
}

static MODE: AtomicU8 = AtomicU8::new(0);

/// Set the process-wide progress mode (driver flag / scenario `[telemetry]`).
pub fn set_mode(mode: ProgressMode) {
    let v = match mode {
        ProgressMode::Auto => 0,
        ProgressMode::Force => 1,
        ProgressMode::Off => 2,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// Current process-wide progress mode.
pub fn mode() -> ProgressMode {
    match MODE.load(Ordering::Relaxed) {
        1 => ProgressMode::Force,
        2 => ProgressMode::Off,
        _ => ProgressMode::Auto,
    }
}

/// A point-in-time copy of a reporter's counters, handed to the installed
/// [`sink`](set_sink) on every update. Consumers (the job server) read it to
/// stream per-job progress without scraping stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// The reporter's label (e.g. `"cells"`).
    pub label: &'static str,
    /// Total number of cells in the grid.
    pub total: usize,
    /// Cells computed to completion (including permanent failures).
    pub done: usize,
    /// Cells satisfied from the runstore cache.
    pub cached: usize,
    /// Cells that failed for good.
    pub failed: usize,
    /// Retry attempts issued so far.
    pub retried: usize,
    /// True on the final [`Reporter::finish`] notification.
    pub finished: bool,
}

type Sink = Box<dyn Fn(&ProgressSnapshot) + Send + Sync>;

/// Fast-path flag: reporters skip the sink lock entirely while no sink is
/// installed, so batch runs pay one relaxed load per update.
static SINK_SET: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Sink>> = RwLock::new(None);

/// Install a process-wide progress subscriber. Every [`Reporter`] update
/// (cached / done / retried / finish) calls it with a fresh
/// [`ProgressSnapshot`], independent of the stderr rendering mode — rendering
/// policy only governs the stderr line, never the sink.
pub fn set_sink<F>(f: F)
where
    F: Fn(&ProgressSnapshot) + Send + Sync + 'static,
{
    *SINK.write().unwrap_or_else(|e| e.into_inner()) = Some(Box::new(f));
    SINK_SET.store(true, Ordering::Release);
}

/// Remove the installed progress subscriber, if any.
pub fn clear_sink() {
    SINK_SET.store(false, Ordering::Release);
    *SINK.write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Minimum interval between renders (the final render always happens).
const THROTTLE: Duration = Duration::from_millis(200);

struct RenderState {
    last: Option<Instant>,
    rendered: bool,
}

/// Progress tracker for one grid run; all update methods are safe to call
/// from the threads a parallel map runs on.
pub struct Reporter {
    active: bool,
    tty: bool,
    label: &'static str,
    total: usize,
    start: Instant,
    done: AtomicUsize,
    cached: AtomicUsize,
    failed: AtomicUsize,
    retried: AtomicUsize,
    state: Mutex<RenderState>,
}

impl Reporter {
    /// Create a reporter for `total` cells. Inactive reporters (mode `Off`,
    /// or `Auto` without a TTY) cost one atomic load per update.
    pub fn new(label: &'static str, total: usize) -> Self {
        let tty = std::io::stderr().is_terminal();
        let active = match mode() {
            ProgressMode::Auto => tty,
            ProgressMode::Force => true,
            ProgressMode::Off => false,
        };
        Reporter {
            active,
            tty,
            label,
            total,
            start: Instant::now(),
            done: AtomicUsize::new(0),
            cached: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            retried: AtomicUsize::new(0),
            state: Mutex::new(RenderState {
                last: None,
                rendered: false,
            }),
        }
    }

    /// A cell was satisfied from the runstore cache.
    pub fn cached(&self) {
        self.cached.fetch_add(1, Ordering::Relaxed);
        self.notify_sink(false);
        self.maybe_render(false);
    }

    /// A cell finished computing; `ok` is false when it failed for good.
    pub fn done(&self, ok: bool) {
        self.done.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.notify_sink(false);
        self.maybe_render(false);
    }

    /// A failed cell is being retried.
    pub fn retried(&self) {
        self.retried.fetch_add(1, Ordering::Relaxed);
        self.notify_sink(false);
        self.maybe_render(false);
    }

    /// Render the final state; on a TTY this terminates the rewrite line.
    pub fn finish(&self) {
        self.notify_sink(true);
        if !self.active {
            return;
        }
        self.maybe_render(true);
        if self.tty && self.state.lock().is_ok_and(|s| s.rendered) {
            eprintln!();
        }
    }

    /// Snapshot of the current counters (what the sink sees).
    pub fn snapshot(&self, finished: bool) -> ProgressSnapshot {
        ProgressSnapshot {
            label: self.label,
            total: self.total,
            done: self.done.load(Ordering::Relaxed),
            cached: self.cached.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            finished,
        }
    }

    /// Forward the current counters to the installed sink, if any. Runs even
    /// when stderr rendering is off: subscription and rendering are
    /// independent channels.
    fn notify_sink(&self, finished: bool) {
        if !SINK_SET.load(Ordering::Acquire) {
            return;
        }
        let snapshot = self.snapshot(finished);
        if let Ok(sink) = SINK.read() {
            if let Some(sink) = sink.as_ref() {
                sink(&snapshot);
            }
        }
    }

    fn maybe_render(&self, force: bool) {
        if !self.active {
            return;
        }
        let Ok(mut state) = self.state.lock() else {
            return;
        };
        let now = Instant::now();
        if !force {
            if let Some(last) = state.last {
                if now.duration_since(last) < THROTTLE {
                    return;
                }
            }
        }
        state.last = Some(now);
        state.rendered = true;
        let line = self.line(now);
        if self.tty {
            eprint!("\r\x1b[2K{line}");
        } else {
            eprintln!("{line}");
        }
    }

    fn line(&self, now: Instant) -> String {
        let done = self.done.load(Ordering::Relaxed);
        let cached = self.cached.load(Ordering::Relaxed);
        let failed = self.failed.load(Ordering::Relaxed);
        let retried = self.retried.load(Ordering::Relaxed);
        let elapsed = now.duration_since(self.start).as_secs_f64();
        let remaining = self.total.saturating_sub(done + cached);
        // ETA from the mean wall time of cells computed so far.
        let eta = if done > 0 && remaining > 0 {
            format!("{:.0}s", elapsed / done as f64 * remaining as f64)
        } else if remaining == 0 {
            "0s".to_string()
        } else {
            "--".to_string()
        };
        format!(
            "{}: {}/{} done, {} cached, {} failed, {} retried, {:.1}s elapsed, eta {}",
            self.label, done, self.total, cached, failed, retried, elapsed, eta
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_mode_reporter_is_inert() {
        // Tests never run with a TTY stderr, so Auto is inert here too; force
        // Off to make the intent explicit and mode-independent.
        let _guard = crate::test_flag_guard();
        let prev = mode();
        set_mode(ProgressMode::Off);
        let r = Reporter::new("cells", 10);
        assert!(!r.active);
        r.cached();
        r.done(true);
        r.done(false);
        r.retried();
        r.finish();
        set_mode(prev);
    }

    #[test]
    fn line_contents_track_counts() {
        let r = Reporter {
            active: true,
            tty: false,
            label: "cells",
            total: 8,
            start: Instant::now(),
            done: AtomicUsize::new(3),
            cached: AtomicUsize::new(2),
            failed: AtomicUsize::new(1),
            retried: AtomicUsize::new(1),
            state: Mutex::new(RenderState {
                last: None,
                rendered: false,
            }),
        };
        let line = r.line(Instant::now());
        assert!(line.starts_with("cells: 3/8 done, 2 cached, 1 failed, 1 retried"));
        assert!(line.contains("eta"));
    }

    #[test]
    fn sink_sees_every_update_even_when_rendering_is_off() {
        let _guard = crate::test_flag_guard();
        let prev = mode();
        set_mode(ProgressMode::Off);
        let seen: std::sync::Arc<Mutex<Vec<ProgressSnapshot>>> =
            std::sync::Arc::new(Mutex::new(Vec::new()));
        {
            let seen = seen.clone();
            set_sink(move |s| {
                if s.label == "sink_probe" {
                    seen.lock().unwrap().push(*s);
                }
            });
        }
        let r = Reporter::new("sink_probe", 4);
        assert!(!r.active, "Off mode must not render");
        r.cached();
        r.done(true);
        r.done(false);
        r.retried();
        r.finish();
        clear_sink();
        {
            let seen = seen.lock().unwrap();
            assert_eq!(seen.len(), 5);
            let last = seen.last().unwrap();
            assert!(last.finished);
            assert_eq!(
                (
                    last.total,
                    last.done,
                    last.cached,
                    last.failed,
                    last.retried
                ),
                (4, 2, 1, 1, 1)
            );
        }
        // Updates after clear_sink are dropped.
        r.cached();
        assert_eq!(seen.lock().unwrap().len(), 5);
        set_mode(prev);
    }

    #[test]
    fn mode_roundtrip() {
        let _guard = crate::test_flag_guard();
        let prev = mode();
        for m in [ProgressMode::Auto, ProgressMode::Force, ProgressMode::Off] {
            set_mode(m);
            assert_eq!(mode(), m);
        }
        set_mode(prev);
    }
}
