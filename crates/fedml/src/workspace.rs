//! Reusable scratch buffers for the batched training engine.
//!
//! Every call into the batched model code (`loss_and_gradient_ws`,
//! `evaluate_ws`, `local_update_ws`) threads a [`Workspace`] through the hot
//! path. The workspace is a small pool of `Vec<f64>` / `Vec<usize>` buffers
//! that are checked out for the duration of one forward/backward pass and
//! returned afterwards, so the steady-state training loop performs **zero
//! heap allocations**: after the first mini-batch every `take` is served from
//! the free list.
//!
//! The pool is deliberately dumb — a handful of buffers, best-fit by
//! capacity — because a training step only ever has ~2·(depth+1) buffers
//! outstanding. **Checkout contents are unspecified** (stale values from the
//! previous user after the first round-trip): every engine caller fully
//! overwrites its buffers, and skipping the zero-fill keeps checkouts
//! O(1) in steady state. New callers must write before reading.

/// A pool of reusable scratch buffers.
///
/// Each training lane owns one (lanes train in parallel); an evaluation
/// creates one for the call.
#[derive(Debug, Default)]
pub struct Workspace {
    free_f64: Vec<Vec<f64>>,
    free_usize: Vec<Vec<usize>>,
}

impl Workspace {
    /// Create an empty workspace. Buffers are allocated lazily on first use
    /// and recycled afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check out an `f64` buffer of exactly `len` elements. **Contents are
    /// unspecified** (zeros on first allocation, stale values from the
    /// previous checkout afterwards): every engine caller fully overwrites
    /// its buffers (GEMM outputs, transposes, gathers), and skipping the
    /// zero-fill keeps the per-batch cost at O(flops), not
    /// O(flops + buffer bytes).
    ///
    /// Picks the smallest pooled buffer whose capacity fits, so repeated
    /// passes with the same layer shapes stabilise onto the same buffers and
    /// stop allocating (and stop touching lengths at all).
    pub(crate) fn take(&mut self, len: usize) -> Vec<f64> {
        let mut best: Option<usize> = None;
        for (i, buf) in self.free_f64.iter().enumerate() {
            if buf.capacity() >= len
                && best.is_none_or(|b| buf.capacity() < self.free_f64[b].capacity())
            {
                best = Some(i);
            }
        }
        let mut buf = match best {
            Some(i) => self.free_f64.swap_remove(i),
            None => Vec::with_capacity(len),
        };
        // Cheap length adjustment: truncation is O(1); growth zero-fills only
        // the newly exposed region, and only until the pool has settled on a
        // same-sized buffer for this call site.
        if buf.len() > len {
            buf.truncate(len);
        } else if buf.len() < len {
            buf.resize(len, 0.0);
        }
        buf
    }

    /// Return an `f64` buffer to the pool.
    pub(crate) fn give(&mut self, buf: Vec<f64>) {
        if buf.capacity() > 0 {
            self.free_f64.push(buf);
        }
    }

    /// Check out an empty `usize` buffer with capacity for at least `len`
    /// elements (length 0; callers push into it).
    pub(crate) fn take_indices(&mut self, len: usize) -> Vec<usize> {
        let mut best: Option<usize> = None;
        for (i, buf) in self.free_usize.iter().enumerate() {
            if buf.capacity() >= len
                && best.is_none_or(|b| buf.capacity() < self.free_usize[b].capacity())
            {
                best = Some(i);
            }
        }
        let mut buf = match best {
            Some(i) => self.free_usize.swap_remove(i),
            None => Vec::with_capacity(len),
        };
        buf.clear();
        buf
    }

    /// Return a `usize` buffer to the pool.
    pub(crate) fn give_indices(&mut self, buf: Vec<usize>) {
        if buf.capacity() > 0 {
            self.free_usize.push(buf);
        }
    }

    /// Number of pooled (idle) `f64` buffers — used by the zero-allocation
    /// tests.
    #[cfg(test)]
    pub(crate) fn pooled_buffers(&self) -> usize {
        self.free_f64.len()
    }

    /// Capacity of the largest pooled `f64` buffer (0 when none is) — used
    /// by the scratch-size tests.
    #[cfg(test)]
    pub(crate) fn largest_buffer(&self) -> usize {
        self.free_f64.iter().map(Vec::capacity).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_buffer_of_requested_len() {
        let mut ws = Workspace::new();
        let mut b = ws.take(8);
        assert_eq!(b.len(), 8);
        assert!(b.iter().all(|&v| v == 0.0), "fresh buffers start zeroed");
        b[0] = 42.0;
        ws.give(b);
        let b2 = ws.take(4);
        assert_eq!(b2.len(), 4);
        // Contents of recycled buffers are unspecified; only the length is
        // guaranteed.
    }

    #[test]
    fn pool_recycles_instead_of_allocating() {
        let mut ws = Workspace::new();
        let b = ws.take(100);
        let cap = b.capacity();
        let ptr = b.as_ptr();
        ws.give(b);
        let b2 = ws.take(100);
        assert_eq!(b2.capacity(), cap);
        assert_eq!(b2.as_ptr(), ptr, "same-size take must reuse the buffer");
        ws.give(b2);
        assert_eq!(ws.pooled_buffers(), 1);
    }

    #[test]
    fn best_fit_prefers_smallest_adequate_buffer() {
        let mut ws = Workspace::new();
        let big = ws.take(1000);
        let small = ws.take(10);
        let small_ptr = small.as_ptr();
        ws.give(big);
        ws.give(small);
        let got = ws.take(10);
        assert_eq!(got.as_ptr(), small_ptr, "should pick the 10-cap buffer");
    }

    #[test]
    fn index_buffers_recycle_too() {
        let mut ws = Workspace::new();
        let mut idx = ws.take_indices(16);
        idx.extend(0..16);
        let ptr = idx.as_ptr();
        ws.give_indices(idx);
        let idx2 = ws.take_indices(8);
        assert!(idx2.is_empty());
        assert_eq!(idx2.as_ptr(), ptr);
    }
}
