//! Deterministic discrete-event queue.
//!
//! Events are ordered by virtual time; ties are broken by insertion order so
//! that simulations are reproducible regardless of the payload type. The
//! mechanisms in `airfedga` and `baselines` drive their round structure off
//! this queue (worker-finished-training, aggregation-complete, …).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry in the event queue: a virtual timestamp plus an opaque payload.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: f64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    #[expect(
        clippy::disallowed_methods,
        reason = "the NaN case is handled (`unwrap_or(Equal)`, then insertion order), \
                  and `total_cmp` would reorder -0.0 and 0.0 timestamps"
    )]
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic min-heap of timestamped events.
///
/// ```
/// use simcore::events::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(2.0, "later");
/// q.push(1.0, "sooner");
/// assert_eq!(q.pop(), Some((1.0, "sooner")));
/// assert_eq!(q.pop(), Some((2.0, "later")));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the virtual clock at zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
        }
    }

    /// Schedule `payload` at absolute virtual time `time` (seconds).
    ///
    /// Panics if `time` is not finite or lies in the past relative to the
    /// last popped event — discrete-event simulations must never schedule
    /// into their own past.
    pub fn push(&mut self, time: f64, payload: E) {
        assert!(time.is_finite(), "event time must be finite");
        assert!(
            time + 1e-12 >= self.now,
            "cannot schedule an event at {time} before the current time {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, payload });
    }

    /// Pop the earliest event, advancing the virtual clock to its timestamp.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|s| {
            self.now = s.time;
            (s.time, s.payload)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5.0, 'c');
        q.push(1.0, 'a');
        q.push(3.0, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(1.0, "first");
        q.push(1.0, "second");
        q.push(1.0, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(2.5, ());
        let (now, ()) = q.pop().unwrap();
        assert_eq!(now, 2.5);
        // Scheduling at the current time is allowed; only the past is not.
        q.push(now, ());
        q.push(now + 1.5, ());
        assert_eq!(q.pop().unwrap().0, 2.5);
        assert_eq!(q.pop().unwrap().0, 4.0);
    }

    #[test]
    #[should_panic(expected = "before the current time")]
    fn rejects_scheduling_into_the_past() {
        let mut q = EventQueue::new();
        q.push(10.0, ());
        q.pop();
        q.push(5.0, ());
    }

    #[test]
    fn supports_many_events() {
        let mut q = EventQueue::new();
        for i in (0..10_000).rev() {
            q.push(i as f64, i);
        }
        let mut last = -1.0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }
}
