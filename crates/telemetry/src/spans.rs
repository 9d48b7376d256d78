//! Span tracing with deterministic merge order.
//!
//! A [`Span`] guard measures the wall-clock time between its creation and its
//! drop. Every span is recorded under the thread's current *scope* — the
//! `(cell, seed, attempt)` identity installed by the harness around each grid
//! cell / replicate (see [`scope`]) — plus a per-scope sequence number
//! assigned at span *entry*, so parents always sort before their children.
//!
//! Events are buffered in thread-local storage while a scope is live and
//! drained into the global sink when the scope guard drops; the final
//! [`take_sorted`] merge orders everything by `(cell, seed, attempt, seq)`.
//! The result: `spans.jsonl` has the same lines in the same order for any
//! `PARALLEL_THREADS × PARALLEL_CHUNKS` schedule — only the recorded
//! durations differ, because they are wall-clock.
//!
//! Spans outside any scope (the driver's `grid` span) record under the
//! sentinel identity `cell = -1, seed = -1`, which sorts first.

use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

/// One completed span occurrence.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Flat grid-cell index, or -1 outside any cell scope.
    pub cell: i64,
    /// Run seed of the replicate, or -1 when not replicate-scoped.
    pub seed: i64,
    /// Attempt number (0 = first run, 1.. = harness retries).
    pub attempt: u32,
    /// Entry order within the scope; parents sort before children.
    pub seq: u64,
    /// Span name, e.g. `"round"`.
    pub name: &'static str,
    /// Nesting depth within the scope at entry.
    pub depth: u32,
    /// Caller-supplied detail value (e.g. the round index).
    pub detail: u64,
    /// Wall-clock duration, microseconds.
    pub dur_us: u64,
    /// Duration minus time spent in child spans, microseconds.
    pub self_us: u64,
}

#[derive(Default)]
struct Tls {
    cell: i64,
    seed: i64,
    attempt: u32,
    seq: u64,
    depth: u32,
    /// One child-time accumulator per open span on this thread.
    child_us: Vec<u64>,
    buf: Vec<SpanEvent>,
}

thread_local! {
    static TLS: RefCell<Tls> = RefCell::new(Tls {
        cell: -1,
        seed: -1,
        ..Tls::default()
    });
}

/// Completed events drained from per-thread buffers, unsorted.
static SINK: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());

/// Live timing guard returned by [`span`] / [`span!`](crate::span).
pub struct Span {
    start: Option<Instant>,
    name: &'static str,
    detail: u64,
    cell: i64,
    seed: i64,
    attempt: u32,
    seq: u64,
    depth: u32,
}

/// Open a span named `name` with a caller-supplied `detail` value. Inert
/// (one load + branch) when telemetry is disabled.
pub fn span(name: &'static str, detail: u64) -> Span {
    if !crate::enabled() {
        return Span {
            start: None,
            name,
            detail,
            cell: -1,
            seed: -1,
            attempt: 0,
            seq: 0,
            depth: 0,
        };
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        let seq = t.seq;
        t.seq += 1;
        let depth = t.depth;
        t.depth += 1;
        t.child_us.push(0);
        Span {
            start: Some(Instant::now()),
            name,
            detail,
            cell: t.cell,
            seed: t.seed,
            attempt: t.attempt,
            seq,
            depth,
        }
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            let child = t.child_us.pop().unwrap_or(0);
            if let Some(parent) = t.child_us.last_mut() {
                *parent += dur_us;
            }
            t.depth = t.depth.saturating_sub(1);
            let ev = SpanEvent {
                cell: self.cell,
                seed: self.seed,
                attempt: self.attempt,
                seq: self.seq,
                name: self.name,
                depth: self.depth,
                detail: self.detail,
                dur_us,
                self_us: dur_us.saturating_sub(child),
            };
            t.buf.push(ev);
        });
    }
}

/// Open a telemetry span: `let _s = telemetry::span!("round", round);`.
/// The optional second argument is a `u64`-convertible detail value.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::spans::span($name, 0)
    };
    ($name:literal, $detail:expr) => {
        $crate::spans::span($name, $detail as u64)
    };
}

/// Guard installed by the harness around one grid cell / replicate execution;
/// restores the previous identity and drains this thread's event buffer into
/// the global sink on drop.
pub struct Scope {
    armed: bool,
    prev: (i64, i64, u32, u64),
}

/// Install the `(cell, seed, attempt)` identity on the current thread for the
/// lifetime of the returned guard. Sequence numbering restarts at 0. Inert
/// when telemetry is disabled.
pub fn scope(cell: i64, seed: i64, attempt: u32) -> Scope {
    if !crate::enabled() {
        return Scope {
            armed: false,
            prev: (0, 0, 0, 0),
        };
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        let prev = (t.cell, t.seed, t.attempt, t.seq);
        t.cell = cell;
        t.seed = seed;
        t.attempt = attempt;
        t.seq = 0;
        Scope { armed: true, prev }
    })
}

impl Drop for Scope {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let drained: Vec<SpanEvent> = TLS.with(|t| {
            let mut t = t.borrow_mut();
            (t.cell, t.seed, t.attempt, t.seq) = self.prev;
            std::mem::take(&mut t.buf)
        });
        if !drained.is_empty() {
            SINK.lock().expect("span sink poisoned").extend(drained);
        }
    }
}

/// Drain every recorded event (global sink plus the calling thread's buffer)
/// and return them sorted by `(cell, seed, attempt, seq)` — a total order
/// that does not depend on the execution schedule.
pub fn take_sorted() -> Vec<SpanEvent> {
    let mut events = std::mem::take(&mut *SINK.lock().expect("span sink poisoned"));
    TLS.with(|t| events.append(&mut t.borrow_mut().buf));
    events.sort_by_key(|e| (e.cell, e.seed, e.attempt, e.seq));
    events
}

/// Render events as JSON lines (one object per event). Span names are static
/// identifiers, so no string escaping is required.
pub fn to_jsonl(events: &[SpanEvent]) -> String {
    let mut s = String::new();
    for e in events {
        s.push_str(&format!(
            "{{\"cell\": {}, \"seed\": {}, \"attempt\": {}, \"seq\": {}, \"span\": \"{}\", \
             \"depth\": {}, \"detail\": {}, \"dur_us\": {}, \"self_us\": {}}}\n",
            e.cell, e.seed, e.attempt, e.seq, e.name, e.depth, e.detail, e.dur_us, e.self_us
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::test_flag_guard();
        crate::disable();
        {
            let _s = span("round", 1);
        }
        TLS.with(|t| assert!(t.borrow().buf.is_empty()));
    }

    #[test]
    fn nesting_self_time_and_scope_identity() {
        let _guard = crate::test_flag_guard();
        crate::enable();
        {
            let _scope = scope(7, 4242, 1);
            {
                let _outer = span("replicate", 0);
                let _inner = span("round", 3);
            }
        }
        crate::disable();
        let events = take_sorted();
        let ours: Vec<&SpanEvent> = events.iter().filter(|e| e.cell == 7).collect();
        assert_eq!(ours.len(), 2);
        // Parent (seq 0) sorts before child (seq 1).
        assert_eq!(ours[0].name, "replicate");
        assert_eq!(ours[0].depth, 0);
        assert_eq!(ours[1].name, "round");
        assert_eq!(ours[1].depth, 1);
        assert_eq!(ours[1].detail, 3);
        for e in &ours {
            assert_eq!((e.seed, e.attempt), (4242, 1));
            assert!(e.self_us <= e.dur_us);
        }
        // Parent self time excludes the child's duration.
        assert!(ours[0].self_us <= ours[0].dur_us.saturating_sub(ours[1].dur_us) + 1);
    }

    #[test]
    fn jsonl_shape() {
        let ev = SpanEvent {
            cell: -1,
            seed: -1,
            attempt: 0,
            seq: 0,
            name: "grid",
            depth: 0,
            detail: 0,
            dur_us: 5,
            self_us: 5,
        };
        let line = to_jsonl(&[ev]);
        assert!(line.starts_with("{\"cell\": -1, \"seed\": -1,"));
        assert!(line.contains("\"span\": \"grid\""));
        assert!(line.ends_with("}\n"));
    }
}
