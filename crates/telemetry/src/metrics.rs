//! Metrics registry: named counters and log₂-bucket histograms.
//!
//! Every metric is a `static` in this module, so the catalogue below *is* the
//! registry — there is no dynamic registration, no locking, and call sites
//! refer to metrics as plain statics (`metrics::GEMM_NN.add(1)`). Each metric
//! belongs to a [`Plane`]:
//!
//! * [`Plane::Logical`] — increments once per *semantic* event, so the total
//!   is bit-identical across any worker/chunk schedule. These make up the
//!   `metrics.json` export and the determinism fingerprint.
//! * [`Plane::Sched`] — describes the schedule itself (fan-outs issued,
//!   chunks claimed); deterministic for a fixed `PARALLEL_THREADS ×
//!   PARALLEL_CHUNKS` but not across the matrix.
//!
//! Durations are not metrics: the span layer ([`crate::spans`]) records
//! every one, and `profile.json` aggregates them.
//!
//! All updates are relaxed atomics: counters are commutative sums, so no
//! ordering is needed, and when telemetry is disabled every operation is a
//! single load + branch.

use std::sync::atomic::{AtomicU64, Ordering};

/// Determinism class of a metric (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// Schedule-independent semantic counts; bit-identical across matrices.
    Logical,
    /// Properties of the parallel schedule; fixed per configuration only.
    Sched,
}

impl Plane {
    /// Stable lower-case name used in JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            Plane::Logical => "logical",
            Plane::Sched => "sched",
        }
    }
}

/// A monotonically increasing event count.
pub struct Counter {
    name: &'static str,
    plane: Plane,
    value: AtomicU64,
}

impl Counter {
    const fn new(name: &'static str, plane: Plane) -> Self {
        Counter {
            name,
            plane,
            value: AtomicU64::new(0),
        }
    }

    /// Registry name, e.g. `"engine.rounds"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Determinism plane.
    pub fn plane(&self) -> Plane {
        self.plane
    }

    /// Add `n` events. No-op unless telemetry is enabled.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of log₂ buckets: bucket `i` counts values `v` with
/// `floor(log2(v)) == i` (bucket 0 also holds `v == 0`), covering the full
/// `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 64;

#[expect(
    clippy::declare_interior_mutable_const,
    reason = "used only as an array-repeat initialiser: each element becomes its own atomic"
)]
const ZERO: AtomicU64 = AtomicU64::new(0);

/// A fixed log₂-bucket histogram (no allocation, relaxed updates).
pub struct Histogram {
    name: &'static str,
    plane: Plane,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    const fn new(name: &'static str, plane: Plane) -> Self {
        Histogram {
            name,
            plane,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO; HISTOGRAM_BUCKETS],
        }
    }

    /// Registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Determinism plane.
    pub fn plane(&self) -> Plane {
        self.plane
    }

    /// Bucket index for value `v`.
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// Lower bound of bucket `i` (`2^i`, with bucket 0 starting at 0).
    fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Record one value. No-op unless telemetry is enabled.
    #[inline(always)]
    pub fn record(&self, v: u64) {
        if crate::enabled() {
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
            self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Snapshot of all bucket counts.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (o, b) in out.iter_mut().zip(self.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Approximate percentile `p` (0..=100) as the lower bound of the bucket
    /// holding the `p`-th recorded value. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: u64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // Rank of the percentile value, 1-based, clamped into range.
        let rank = ((total as u128 * p as u128).div_ceil(100) as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_floor(i);
            }
        }
        Self::bucket_floor(HISTOGRAM_BUCKETS - 1)
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

// ------------------------------------------------------------- the catalogue

/// Simulation rounds attempted (one per `cancel::checkpoint`), over every
/// engine and replicate.
pub static ENGINE_ROUNDS: Counter = Counter::new("engine.rounds", Plane::Logical);
/// Members scheduled for a round that made it into the aggregation.
pub static ENGINE_PARTICIPANTS: Counter = Counter::new("engine.participants", Plane::Logical);
/// Members scheduled for a round but filtered out by fault injection.
pub static ENGINE_PARTICIPANTS_FILTERED: Counter =
    Counter::new("engine.participants_filtered", Plane::Logical);
/// Rounds skipped because an entire group was down.
pub static ENGINE_GROUP_SKIPS: Counter = Counter::new("engine.group_skips", Plane::Logical);

/// Fork/join fan-outs issued (`parallel::fork_join_chunks`). Sched plane,
/// not logical: a sequential configuration (`PARALLEL_THREADS=1`)
/// short-circuits parallel maps before they fan out at all, so even the
/// fan-out *count* depends on the schedule.
pub static POOL_FORK_JOINS: Counter = Counter::new("pool.fork_joins", Plane::Sched);
/// Chunks executed across all fan-outs. The chunk count is
/// `min(items, threads × chunk_factor)` — a property of the schedule — so
/// this lives in the sched plane and is excluded from `metrics.json`.
pub static POOL_CHUNKS_CLAIMED: Counter = Counter::new("pool.chunks_claimed", Plane::Sched);

/// Runstore replicate loads that hit a decodable cached trace.
pub static RUNSTORE_HITS: Counter = Counter::new("runstore.hits", Plane::Logical);
/// Runstore replicate loads that found no cached file.
pub static RUNSTORE_MISSES: Counter = Counter::new("runstore.misses", Plane::Logical);
/// Runstore files present but undecodable, degraded to recompute.
pub static RUNSTORE_CORRUPT: Counter = Counter::new("runstore.corrupt_degraded", Plane::Logical);

/// Grid-cell retry attempts made by the isolation harness.
pub static HARNESS_RETRIES: Counter = Counter::new("harness.retries", Plane::Logical);
/// Replicates the harness did not run because an identical replicate of the
/// same run (a grid cell differing only in a ξ its mechanism never reads)
/// was computed once and delivered to them too. Grouping follows input
/// order, not completion order, so the count is schedule-independent.
pub static HARNESS_SHARED_REPLICATES: Counter =
    Counter::new("harness.shared_replicates", Plane::Logical);
/// Cell attempts stopped by the watchdog after exceeding their wall-clock
/// budget, counted where the timeout panic is raised. Logical in the sense
/// that a cancel changes the run's *results*: two runs that disagree on this
/// counter already disagree on their failure reports.
pub static WATCHDOG_CANCELS: Counter = Counter::new("watchdog.cancels", Plane::Logical);

/// `A·B` GEMM calls (`fedml::linalg::gemm_nn`).
pub static GEMM_NN: Counter = Counter::new("gemm.nn", Plane::Logical);
/// Accumulating `Aᵀ·B` GEMM calls (`fedml::linalg::gemm_tn_acc`).
pub static GEMM_TN_ACC: Counter = Counter::new("gemm.tn_acc", Plane::Logical);
/// Counters of the three GEMM kernels `fedml` no longer has. Nothing adds to
/// them: they stay registered, reading 0 as they did in every run while the
/// kernels existed, because the repo benchmark reads all five `gemm.*` keys
/// of `metrics.json` by name and a program PR may not edit it. They go with
/// a benchmark-side companion PR (ROADMAP item 5's pruning list).
static GEMM_TN: Counter = Counter::new("gemm.tn", Plane::Logical);
/// See [`GEMM_TN`].
static GEMM_NT: Counter = Counter::new("gemm.nt", Plane::Logical);
/// See [`GEMM_TN`].
static GEMM_NT_PACKED: Counter = Counter::new("gemm.nt_packed", Plane::Logical);

/// Distribution of GEMM problem volumes (`m·n·k`) across all kernels.
pub static GEMM_MNK: Histogram = Histogram::new("gemm.mnk", Plane::Logical);

static ALL_COUNTERS: [&Counter; 17] = [
    &ENGINE_ROUNDS,
    &ENGINE_PARTICIPANTS,
    &ENGINE_PARTICIPANTS_FILTERED,
    &ENGINE_GROUP_SKIPS,
    &POOL_FORK_JOINS,
    &POOL_CHUNKS_CLAIMED,
    &RUNSTORE_HITS,
    &RUNSTORE_MISSES,
    &RUNSTORE_CORRUPT,
    &HARNESS_RETRIES,
    &HARNESS_SHARED_REPLICATES,
    &WATCHDOG_CANCELS,
    &GEMM_NN,
    &GEMM_TN,
    &GEMM_TN_ACC,
    &GEMM_NT,
    &GEMM_NT_PACKED,
];

static ALL_HISTOGRAMS: [&Histogram; 1] = [&GEMM_MNK];

/// Every counter in the registry, in stable export order.
pub fn counters() -> &'static [&'static Counter] {
    &ALL_COUNTERS
}

/// Every histogram in the registry, in stable export order.
pub fn histograms() -> &'static [&'static Histogram] {
    &ALL_HISTOGRAMS
}

/// Reset every metric to zero (tests and in-process re-enables).
pub fn reset() {
    for c in counters() {
        c.reset();
    }
    for h in histograms() {
        h.reset();
    }
}

/// The logical plane as canonical JSON: counters and histograms whose values
/// are bit-identical across `PARALLEL_THREADS × PARALLEL_CHUNKS` schedules
/// for a deterministic run. Sched-plane metrics are deliberately absent.
pub(crate) fn logical_json() -> String {
    let mut s = String::new();
    s.push_str("{\n  \"version\": 1,\n  \"plane\": \"logical\",\n  \"counters\": {\n");
    let logical: Vec<&&Counter> = counters()
        .iter()
        .filter(|c| c.plane() == Plane::Logical)
        .collect();
    for (i, c) in logical.iter().enumerate() {
        let sep = if i + 1 == logical.len() { "" } else { "," };
        s.push_str(&format!("    \"{}\": {}{}\n", c.name(), c.get(), sep));
    }
    s.push_str("  },\n  \"histograms\": {\n");
    let hists: Vec<&&Histogram> = histograms()
        .iter()
        .filter(|h| h.plane() == Plane::Logical)
        .collect();
    for (i, h) in hists.iter().enumerate() {
        let sep = if i + 1 == hists.len() { "" } else { "," };
        let buckets = h.buckets();
        let nonzero: Vec<String> = buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| format!("[{b}, {n}]"))
            .collect();
        s.push_str(&format!(
            "    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}{}\n",
            h.name(),
            h.count(),
            h.sum(),
            nonzero.join(", "),
            sep
        ));
    }
    s.push_str("  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_metrics_do_not_move() {
        let _guard = crate::test_flag_guard();
        crate::disable();
        let before = GEMM_NN.get();
        GEMM_NN.add(5);
        GEMM_MNK.record(100);
        assert_eq!(GEMM_NN.get(), before);
    }

    #[test]
    fn bucket_math() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
        assert_eq!(Histogram::bucket_floor(0), 0);
        assert_eq!(Histogram::bucket_floor(10), 1024);
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = counters().iter().map(|c| c.name()).collect();
        names.extend(histograms().iter().map(|h| h.name()));
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate metric name");
    }

    #[test]
    fn logical_json_excludes_sched_plane() {
        let json = logical_json();
        assert!(json.contains("\"engine.rounds\""));
        assert!(!json.contains("pool.chunks_claimed"));
    }
}
