//! # runstore — content-addressed on-disk store of completed replicates
//!
//! A multi-seed grid is hours of bit-reproducible work; a crash, OOM-kill or
//! power cut should not force any completed (cell, seed) replicate to run
//! again. This crate persists each finished replicate's [`TrainingTrace`] —
//! the full information content of a `RunSummary`, whose every field is
//! derived from the trace — under a content-addressed key, and serves it
//! back on resume:
//!
//! * **Addressing** — a store *spec directory* is named by the FNV-1a-128
//!   hash of the scenario's canonical form (the fully resolved spec, scale
//!   and CLI overrides, see `spec_hash`); inside it each replicate file is
//!   named by the hash of its `(cell index, cell label, run seed, system
//!   seed)` coordinates. Any change to the experiment changes the spec hash,
//!   so stale results can never be served to a different experiment.
//! * **Crash safety** — replicate files are written by
//!   [`telemetry::write_atomic`], the one way a durable file is written
//!   (staged to `<name>.tmp`, fsynced, renamed into place; a file that
//!   already holds the bytes is only fsynced), so a torn write is never
//!   loadable; loads treat unparseable or truncated files as misses (the
//!   replicate just re-runs).
//!   An append-only `journal` records every store in completion order for
//!   post-mortems; the files themselves are the source of truth.
//! * **Bit-exactness** — every `f64` is stored as its IEEE-754 bit pattern
//!   (16 hex digits), so a loaded trace is bit-identical to the stored one
//!   and a resumed grid renders byte-identical tables and CSVs. (The
//!   workspace's offline `serde` stand-in derives no real serialization, so
//!   the codec here is hand-rolled.)
//!
//! [`StoreCache`] adapts a [`RunStore`] to the experiment harness's
//! `ReplicateCache` trait; `airfedga-run --resume` wires it into the
//! isolated runners.

#![warn(missing_docs)]

use experiments::harness::{ReplicateCache, RunSummary};
use simcore::trace::{FaultEvent, FaultEventKind, TracePoint, TrainingTrace};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Format tag at the head of every replicate file; bump on layout changes so
/// old files read as misses instead of garbage.
const FORMAT_HEADER: &str = "air-fedga runstore v1";

/// 128-bit FNV-1a. Not cryptographic — collision resistance here only needs
/// to separate distinct experiment coordinates, and 128 bits of FNV over
/// short structured keys is far beyond accidental-collision range.
#[derive(Debug, Clone)]
pub struct Fnv128(u128);

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

impl Fnv128 {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self(FNV128_OFFSET)
    }

    /// Absorb bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

/// Hash a scenario's canonical form into its store-directory name.
pub(crate) fn spec_hash(canonical_spec: &str) -> u128 {
    let mut h = Fnv128::new();
    h.update(b"airfedga-spec-v1\0");
    h.update(canonical_spec.as_bytes());
    h.finish()
}

/// Hash one replicate's coordinates within a spec directory. The label is
/// included so a reordering of cells (which would silently re-map indices)
/// also re-maps the keys.
fn replicate_key(cell_index: usize, cell_label: &str, run_seed: u64, system_seed: u64) -> u128 {
    let mut h = Fnv128::new();
    h.update(b"airfedga-replicate-v1\0");
    h.update(cell_label.as_bytes());
    h.update(&[0]);
    h.update(&(cell_index as u64).to_le_bytes());
    h.update(&run_seed.to_le_bytes());
    h.update(&system_seed.to_le_bytes());
    h.finish()
}

fn bits_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn parse_bits_hex(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Serialize a trace to the store's line-based text format. Panics if the
/// mechanism or workload label contains a newline (no engine label does).
pub fn encode_trace(trace: &TrainingTrace) -> String {
    assert!(
        !trace.mechanism.contains('\n') && !trace.workload.contains('\n'),
        "trace labels must be single-line"
    );
    let mut out = String::new();
    out.push_str(FORMAT_HEADER);
    out.push('\n');
    out.push_str(&format!("mechanism {}\n", trace.mechanism));
    out.push_str(&format!("workload {}\n", trace.workload));
    out.push_str(&format!(
        "counters {} {} {} {}\n",
        trace.faults.rounds_attempted,
        trace.faults.rounds_aggregated,
        trace.faults.participants_total,
        trace.faults.members_total,
    ));
    out.push_str(&format!("events {}\n", trace.faults.events.len()));
    for e in &trace.faults.events {
        let kind = match e.kind {
            FaultEventKind::GroupSkipped => "group-skipped",
        };
        out.push_str(&format!(
            "e {} {} {} {kind}\n",
            bits_hex(e.time),
            e.round,
            e.group
        ));
    }
    out.push_str(&format!("points {}\n", trace.points().len()));
    for p in trace.points() {
        out.push_str(&format!(
            "p {} {} {} {} {}\n",
            bits_hex(p.time),
            p.round,
            bits_hex(p.loss),
            bits_hex(p.accuracy),
            bits_hex(p.energy),
        ));
    }
    out.push_str("end\n");
    out
}

/// Parse a stored trace. Returns `None` on any malformation — a corrupt or
/// truncated file is treated as a cache miss, never an error.
pub fn decode_trace(text: &str) -> Option<TrainingTrace> {
    let mut lines = text.lines();
    if lines.next()? != FORMAT_HEADER {
        return None;
    }
    let mechanism = lines.next()?.strip_prefix("mechanism ")?.to_string();
    let workload = lines.next()?.strip_prefix("workload ")?.to_string();
    let mut trace = TrainingTrace::new(&mechanism, &workload);

    let counters = lines.next()?.strip_prefix("counters ")?;
    let mut it = counters.split(' ');
    trace.faults.rounds_attempted = it.next()?.parse().ok()?;
    trace.faults.rounds_aggregated = it.next()?.parse().ok()?;
    trace.faults.participants_total = it.next()?.parse().ok()?;
    trace.faults.members_total = it.next()?.parse().ok()?;
    if it.next().is_some() {
        return None;
    }

    let num_events: usize = lines.next()?.strip_prefix("events ")?.parse().ok()?;
    for _ in 0..num_events {
        let mut it = lines.next()?.strip_prefix("e ")?.split(' ');
        let time = parse_bits_hex(it.next()?)?;
        let round = it.next()?.parse().ok()?;
        let group = it.next()?.parse().ok()?;
        let kind = match it.next()? {
            "group-skipped" => FaultEventKind::GroupSkipped,
            _ => return None,
        };
        if it.next().is_some() {
            return None;
        }
        trace.faults.events.push(FaultEvent {
            time,
            round,
            group,
            kind,
        });
    }

    let num_points: usize = lines.next()?.strip_prefix("points ")?.parse().ok()?;
    let mut last_time = f64::NEG_INFINITY;
    for _ in 0..num_points {
        let mut it = lines.next()?.strip_prefix("p ")?.split(' ');
        let time = parse_bits_hex(it.next()?)?;
        let round = it.next()?.parse().ok()?;
        let loss = parse_bits_hex(it.next()?)?;
        let accuracy = parse_bits_hex(it.next()?)?;
        let energy = parse_bits_hex(it.next()?)?;
        if it.next().is_some() {
            return None;
        }
        // Pre-validate what `TrainingTrace::record` asserts, so corrupt
        // bytes degrade to a miss instead of a panic.
        if !time.is_finite() || !loss.is_finite() || time + 1e-9 < last_time {
            return None;
        }
        last_time = time;
        trace.record(TracePoint {
            time,
            round,
            loss,
            accuracy,
            energy,
        });
    }
    if lines.next()? != "end" || lines.next().is_some() {
        return None;
    }
    Some(trace)
}

/// One scenario's slice of the on-disk run store.
///
/// Layout under the store root (default `runstore/` in the working
/// directory — deliberately *not* under `results/`, which `cli_contract`'s
/// replays compare byte for byte with the pins):
///
/// ```text
/// runstore/
///   <spec-hash>/            one directory per distinct experiment
///     spec.txt              the canonical form that hashed to this dir
///     journal               append-only log of completed replicates
///     <replicate-hash>.run  one file per completed (cell, seed) replicate
/// ```
#[derive(Debug)]
pub struct RunStore {
    spec_dir: PathBuf,
}

impl RunStore {
    /// Open (creating if needed) the store slice for `canonical_spec` under
    /// `root`, keeping any replicates a previous run completed.
    pub fn open(root: &Path, canonical_spec: &str) -> io::Result<Self> {
        let spec_dir = root.join(format!("{:032x}", spec_hash(canonical_spec)));
        fs::create_dir_all(&spec_dir)?;
        // Record the canonical form for humans. The directory is named by
        // its hash, so a file already there holds these very bytes and is
        // left in place.
        telemetry::write_atomic(&spec_dir.join("spec.txt"), canonical_spec.as_bytes())?;
        Ok(Self { spec_dir })
    }

    /// Like [`RunStore::open`], but first discards everything this spec had
    /// stored (`--fresh`).
    pub fn fresh(root: &Path, canonical_spec: &str) -> io::Result<Self> {
        let spec_dir = root.join(format!("{:032x}", spec_hash(canonical_spec)));
        if spec_dir.exists() {
            fs::remove_dir_all(&spec_dir)?;
        }
        Self::open(root, canonical_spec)
    }

    /// The directory this spec's replicates live in.
    pub fn spec_dir(&self) -> &Path {
        &self.spec_dir
    }

    fn run_path(&self, key: u128) -> PathBuf {
        self.spec_dir.join(format!("{key:032x}.run"))
    }

    /// Load a previously completed replicate's trace. The two degradation
    /// causes are told apart so callers can report cache effectiveness: an
    /// absent (or unreadable) file is a [`TraceLoad::Miss`], a file that is
    /// present but fails to decode — a torn write survivor or manual edit —
    /// is [`TraceLoad::Corrupt`]. Both degrade to recompute.
    pub fn load_trace_checked(
        &self,
        cell_index: usize,
        cell_label: &str,
        run_seed: u64,
        system_seed: u64,
    ) -> TraceLoad {
        let key = replicate_key(cell_index, cell_label, run_seed, system_seed);
        let Ok(text) = fs::read_to_string(self.run_path(key)) else {
            return TraceLoad::Miss;
        };
        match decode_trace(&text) {
            Some(trace) => TraceLoad::Hit(trace),
            None => TraceLoad::Corrupt,
        }
    }

    /// Persist a completed replicate's trace: written to `<key>.run` by
    /// [`telemetry::write_atomic`], then journalled. A crash at any point
    /// leaves either no entry or a complete one — never a loadable torn file.
    pub fn store_trace(
        &self,
        cell_index: usize,
        cell_label: &str,
        run_seed: u64,
        system_seed: u64,
        trace: &TrainingTrace,
    ) -> io::Result<PathBuf> {
        let key = replicate_key(cell_index, cell_label, run_seed, system_seed);
        let path = self.run_path(key);
        telemetry::write_atomic(&path, encode_trace(trace).as_bytes())?;
        // Advisory completion log; appended *after* the rename so a
        // journal line always refers to a fully stored replicate. One
        // `write` per line: `writeln!` on a `File` issues one per format
        // piece, and lines from concurrent stores would interleave.
        let line = format!(
            "{key:032x} cell={cell_index} run_seed={run_seed} system_seed={system_seed} {cell_label}\n"
        );
        fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.spec_dir.join("journal"))?
            .write_all(line.as_bytes())?;
        Ok(path)
    }

    /// Number of fully stored replicates in this spec directory.
    pub fn completed(&self) -> usize {
        let Ok(entries) = fs::read_dir(&self.spec_dir) else {
            return 0;
        };
        entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "run"))
            .count()
    }

    /// Number of journal lines (completions recorded, in completion order).
    pub fn journal_len(&self) -> usize {
        fs::read_to_string(self.spec_dir.join("journal"))
            .map(|s| s.lines().count())
            .unwrap_or(0)
    }
}

/// Exclusive-writer guard for a whole store root.
///
/// The batch driver and the job server may point at the same `runstore/`
/// root; two *processes* interleaving journal appends in one spec directory
/// would still each be crash-safe (the `.run` files are content-addressed
/// and atomically renamed) but would muddle the journal's completion order
/// and double-compute replicates. The daemon therefore takes a `lock` file
/// at the store root for its lifetime. Locking is advisory and PID-based:
/// the file holds the owner's PID, and a lock whose owner is no longer
/// alive (judged via `/proc/<pid>`; on platforms without procfs any
/// leftover lock is treated as stale) is silently reclaimed, so a
/// SIGKILLed daemon never wedges the store.
#[derive(Debug)]
pub struct StoreLock {
    path: PathBuf,
}

impl StoreLock {
    /// Acquire the lock file at `root/lock`, creating `root` if needed.
    /// Fails with [`io::ErrorKind::WouldBlock`] when a live process holds it.
    pub fn acquire(root: &Path) -> io::Result<Self> {
        fs::create_dir_all(root)?;
        let path = root.join("lock");
        for attempt in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    writeln!(f, "{}", std::process::id())?;
                    f.sync_all()?;
                    return Ok(Self { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists && attempt == 0 => {
                    let owner = fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match owner {
                        Some(pid) if pid != std::process::id() && pid_alive(pid) => {
                            return Err(io::Error::new(
                                io::ErrorKind::WouldBlock,
                                format!(
                                    "store root {} is locked by live pid {pid}",
                                    root.display()
                                ),
                            ));
                        }
                        // Stale (dead owner, our own pid after an exec, or
                        // unparseable): reclaim and retry the create once.
                        _ => fs::remove_file(&path)?,
                    }
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("second create_new attempt returns from the match")
    }

    /// The lock file's path (diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        fs::remove_file(&self.path).ok();
    }
}

/// Best-effort liveness probe for a PID. Procfs-based: on platforms without
/// `/proc` every held lock reads as stale, which errs on the side of
/// availability for this advisory lock.
fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

/// Adapter exposing a [`RunStore`] as the harness's `ReplicateCache`:
/// loads rebuild the `RunSummary` from the stored trace (every summary
/// field is trace-derived, so the round-trip is exact); stores persist the
/// summary's trace and degrade to a stderr warning on I/O errors — a full
/// disk costs durability, never the grid.
#[derive(Debug)]
pub struct StoreCache<'a> {
    store: &'a RunStore,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
}

/// Outcome of one checked replicate load (see
/// [`RunStore::load_trace_checked`]).
#[derive(Debug)]
pub enum TraceLoad {
    /// A decodable cached trace.
    Hit(TrainingTrace),
    /// No file stored under this key (or it could not be read).
    Miss,
    /// A file exists but failed to decode; degraded to recompute.
    Corrupt,
}

/// Cache-effectiveness counters for one grid run. Tracked with plain atomics
/// on the [`StoreCache`] itself — independent of the telemetry enable flag —
/// so the execution report can always surface them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Replicates satisfied from the store.
    pub hits: u64,
    /// Replicates with no stored file (computed fresh).
    pub misses: u64,
    /// Stored files that failed to decode and were recomputed.
    pub corrupt_degraded: u64,
}

impl CacheStats {
    /// One-line human summary for the `--resume` path (stderr).
    pub fn summary(&self) -> String {
        format!(
            "runstore: {} hit(s), {} recomputed, {} corrupt file(s) degraded to recompute",
            self.hits,
            self.misses + self.corrupt_degraded,
            self.corrupt_degraded
        )
    }

    /// Fold another run's counters into this one. The job server accumulates
    /// per-job stats into a daemon-lifetime total this way, so cross-job
    /// dedup (job B hitting replicates job A stored) is visible in one place.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.corrupt_degraded += other.corrupt_degraded;
    }

    /// Whether every replicate was served from the store (a fully deduped
    /// re-run: zero recomputes).
    pub fn all_hits(&self) -> bool {
        self.misses == 0 && self.corrupt_degraded == 0 && self.hits > 0
    }
}

impl<'a> StoreCache<'a> {
    /// Wrap a store slice.
    pub fn new(store: &'a RunStore) -> Self {
        Self {
            store,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }

    /// Snapshot of the hit/miss/corrupt counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt_degraded: self.corrupt.load(Ordering::Relaxed),
        }
    }
}

impl ReplicateCache for StoreCache<'_> {
    fn load(
        &self,
        cell_index: usize,
        cell_label: &str,
        run_seed: u64,
        system_seed: u64,
    ) -> Option<RunSummary> {
        match self
            .store
            .load_trace_checked(cell_index, cell_label, run_seed, system_seed)
        {
            TraceLoad::Hit(trace) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                telemetry::metrics::RUNSTORE_HITS.add(1);
                Some(RunSummary::from_trace(trace))
            }
            TraceLoad::Miss => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                telemetry::metrics::RUNSTORE_MISSES.add(1);
                None
            }
            TraceLoad::Corrupt => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                telemetry::metrics::RUNSTORE_CORRUPT.add(1);
                None
            }
        }
    }

    fn store(
        &self,
        cell_index: usize,
        cell_label: &str,
        run_seed: u64,
        system_seed: u64,
        summary: &RunSummary,
    ) {
        if let Err(e) = self.store.store_trace(
            cell_index,
            cell_label,
            run_seed,
            system_seed,
            &summary.trace,
        ) {
            eprintln!("  (run store write failed for {cell_label} seed {run_seed}: {e})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace a load hit; `None` for a miss or a corrupt file.
    fn hit(load: TraceLoad) -> Option<TrainingTrace> {
        match load {
            TraceLoad::Hit(trace) => Some(trace),
            TraceLoad::Miss | TraceLoad::Corrupt => None,
        }
    }

    fn sample_trace() -> TrainingTrace {
        let mut t = TrainingTrace::new("Air-FedGA", "mnist-like");
        t.faults.rounds_attempted = 5;
        t.faults.rounds_aggregated = 4;
        t.faults.participants_total = 37;
        t.faults.members_total = 40;
        t.faults.events.push(FaultEvent {
            time: 12.125,
            round: 3,
            group: 1,
            kind: FaultEventKind::GroupSkipped,
        });
        for (i, &(time, loss)) in [(0.5, 2.302584), (7.25, 1.0 / 3.0), (19.875, 0.1234e-7)]
            .iter()
            .enumerate()
        {
            t.record(TracePoint {
                time,
                round: i + 1,
                loss,
                accuracy: 0.1 + 0.2 * i as f64,
                energy: 3.5 * (i as f64 + 1.0),
            });
        }
        t
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("runstore_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn cache_stats_merge_and_all_hits() {
        let mut total = CacheStats::default();
        assert!(!total.all_hits(), "empty stats are not a deduped rerun");
        total.merge(&CacheStats {
            hits: 3,
            misses: 0,
            corrupt_degraded: 0,
        });
        assert!(total.all_hits());
        total.merge(&CacheStats {
            hits: 1,
            misses: 2,
            corrupt_degraded: 1,
        });
        assert_eq!(
            total,
            CacheStats {
                hits: 4,
                misses: 2,
                corrupt_degraded: 1,
            }
        );
        assert!(!total.all_hits());
        assert!(total.summary().contains("4 hit(s), 3 recomputed"));
    }

    #[test]
    fn store_lock_excludes_live_owners_and_reclaims_stale_ones() {
        let root = tmp_root("lock");
        let lock = StoreLock::acquire(&root).unwrap();
        assert!(lock.path().exists());
        // A second acquire in the same process sees our own (live) pid but
        // treats a self-owned lock as stale — re-acquiring after a crash of
        // a previous incarnation that recycled our pid must not deadlock.
        // A *different* live pid, however, is refused.
        fs::write(root.join("lock"), "1\n").unwrap(); // pid 1: init, always alive
        let err = StoreLock::acquire(&root).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        // A dead owner is reclaimed silently.
        fs::write(root.join("lock"), "4294000000\n").unwrap();
        let relock = StoreLock::acquire(&root).unwrap();
        drop(relock);
        assert!(!root.join("lock").exists(), "drop removes the lock file");
        drop(lock);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn trace_round_trips_bit_exactly() {
        let t = sample_trace();
        let decoded = decode_trace(&encode_trace(&t)).expect("round trip");
        assert_eq!(decoded.mechanism, t.mechanism);
        assert_eq!(decoded.workload, t.workload);
        assert_eq!(decoded.faults.rounds_attempted, 5);
        assert_eq!(decoded.faults.events.len(), 1);
        assert_eq!(decoded.faults.events[0].time.to_bits(), 12.125f64.to_bits());
        assert_eq!(decoded.points().len(), t.points().len());
        for (a, b) in decoded.points().iter().zip(t.points()) {
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.round, b.round);
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
            assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        }
    }

    #[test]
    fn corrupt_or_truncated_files_decode_to_none() {
        let full = encode_trace(&sample_trace());
        assert!(decode_trace("").is_none());
        assert!(decode_trace("not a runstore file\n").is_none());
        // Every strict prefix (a torn write) is rejected, except the one that
        // drops only the final newline: it is the complete trace.
        for cut in 0..full.len() - 1 {
            assert!(
                decode_trace(&full[..cut]).is_none(),
                "prefix of {cut} bytes must not decode"
            );
        }
        let unterminated = decode_trace(&full[..full.len() - 1]).unwrap();
        assert_eq!(encode_trace(&unterminated), full);
        // Any single byte turned into any other ASCII byte decodes or is
        // refused; it never panics. (Without a checksum, a flipped hex digit
        // decodes to a different trace.)
        for at in 0..full.len() {
            for b in (0..128u8).filter(|&b| b != full.as_bytes()[at]) {
                let mut flipped = full.as_bytes().to_vec();
                flipped[at] = b;
                decode_trace(std::str::from_utf8(&flipped).unwrap());
            }
        }
        // Flipping bits hex into non-finite/garbage is rejected, not panicked.
        let garbled = full.replacen("p ", "p zzzzzzzzzzzzzzzz", 1);
        assert!(decode_trace(&garbled).is_none());
        let nan = full.replacen(
            &bits_hex(0.5),
            &bits_hex(f64::NAN), // NaN time would trip record()'s assert
            1,
        );
        assert!(decode_trace(&nan).is_none());
        assert!(decode_trace(&format!("{full}trailing\n")).is_none());
    }

    #[test]
    fn store_and_load_share_keys_and_ignore_other_coordinates() {
        let root = tmp_root("keys");
        let store = RunStore::open(&root, "spec A").unwrap();
        let t = sample_trace();
        store.store_trace(2, "Air-FedGA", 4242, 42, &t).unwrap();
        assert!(hit(store.load_trace_checked(2, "Air-FedGA", 4242, 42)).is_some());
        // Any changed coordinate is a different replicate.
        assert!(hit(store.load_trace_checked(1, "Air-FedGA", 4242, 42)).is_none());
        assert!(hit(store.load_trace_checked(2, "Dynamic", 4242, 42)).is_none());
        assert!(hit(store.load_trace_checked(2, "Air-FedGA", 4243, 42)).is_none());
        assert!(hit(store.load_trace_checked(2, "Air-FedGA", 4242, 43)).is_none());
        // A different canonical spec lands in a different directory.
        let other = RunStore::open(&root, "spec B").unwrap();
        assert!(hit(other.load_trace_checked(2, "Air-FedGA", 4242, 42)).is_none());
        assert_ne!(store.spec_dir(), other.spec_dir());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn open_keeps_completed_replicates_and_fresh_discards_them() {
        let root = tmp_root("fresh");
        let store = RunStore::open(&root, "spec").unwrap();
        store.store_trace(0, "cell", 1, 2, &sample_trace()).unwrap();
        assert_eq!(store.completed(), 1);
        assert_eq!(store.journal_len(), 1);

        let reopened = RunStore::open(&root, "spec").unwrap();
        assert_eq!(reopened.completed(), 1);
        assert!(hit(reopened.load_trace_checked(0, "cell", 1, 2)).is_some());

        let fresh = RunStore::fresh(&root, "spec").unwrap();
        assert_eq!(fresh.completed(), 0);
        assert!(hit(fresh.load_trace_checked(0, "cell", 1, 2)).is_none());
        assert_eq!(fresh.journal_len(), 0);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn concurrent_stores_journal_one_whole_line_each() {
        let root = tmp_root("journal-threads");
        let store = RunStore::open(&root, "spec").unwrap();
        let trace = sample_trace();
        let (threads, per_thread) = (8usize, 25usize);
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (store, trace, start) = (&store, &trace, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..per_thread {
                        let label = format!("mechanism with spaces {t}");
                        store
                            .store_trace(t * per_thread + i, &label, 4242 + i as u64, 42, trace)
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(store.journal_len(), threads * per_thread);
        // Completion order is free; the set of lines is not.
        let journal = fs::read_to_string(store.spec_dir().join("journal")).unwrap();
        let mut lines: Vec<&str> = journal.lines().collect();
        lines.sort_unstable();
        let mut expected: Vec<String> = (0..threads * per_thread)
            .map(|cell| {
                let label = format!("mechanism with spaces {}", cell / per_thread);
                let run_seed = 4242 + (cell % per_thread) as u64;
                let key = replicate_key(cell, &label, run_seed, 42);
                format!("{key:032x} cell={cell} run_seed={run_seed} system_seed=42 {label}")
            })
            .collect();
        expected.sort_unstable();
        assert_eq!(lines, expected, "a journal line was torn or lost");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn staged_tmp_files_are_never_loadable() {
        let root = tmp_root("staging");
        let store = RunStore::open(&root, "spec").unwrap();
        // Simulate a crash between staging and rename: hand-write the tmp
        // file a store_trace would have used.
        let text = encode_trace(&sample_trace());
        let key_path = {
            store.store_trace(0, "cell", 1, 2, &sample_trace()).unwrap();
            let p = fs::read_dir(store.spec_dir())
                .unwrap()
                .filter_map(|e| e.ok())
                .find(|e| e.path().extension().is_some_and(|x| x == "run"))
                .unwrap()
                .path();
            fs::remove_file(&p).unwrap();
            p
        };
        fs::write(key_path.with_extension("run.tmp"), &text[..text.len() / 2]).unwrap();
        assert!(
            hit(store.load_trace_checked(0, "cell", 1, 2)).is_none(),
            "a staged tmp file must read as a miss"
        );
        assert_eq!(store.completed(), 0);
        fs::remove_dir_all(&root).ok();
    }

    /// A crash inside `write_atomic` leaves no staging file, a partial or a
    /// complete `<key>.run.tmp` beside the old file, or the new file. Each is
    /// built by hand, over a stored trace and over a miss.
    #[test]
    fn every_crash_state_of_a_store_loads_the_old_trace_or_a_miss() {
        let root = tmp_root("crash");
        let store = RunStore::open(&root, "spec").unwrap();
        let old = sample_trace();
        let mut next = sample_trace();
        next.faults.rounds_attempted += 1;
        let new = encode_trace(&next);
        store.store_trace(0, "old", 1, 2, &old).unwrap();
        let loaded =
            |label: &str| hit(store.load_trace_checked(0, label, 1, 2)).map(|t| encode_trace(&t));
        for (label, before) in [("old", Some(encode_trace(&old))), ("none", None)] {
            let tmp = store
                .run_path(replicate_key(0, label, 1, 2))
                .with_extension("run.tmp");
            let check = |state: &str| {
                assert_eq!(loaded(label), before, "{label}: {state}");
                assert_eq!(store.completed(), 1, "{label}: {state}");
            };
            check("no staging file");
            for cut in 0..=new.len() {
                fs::write(&tmp, &new[..cut]).unwrap();
                check(&format!("{cut} bytes staged"));
            }
            store.store_trace(0, label, 1, 2, &next).unwrap();
            assert!(
                !tmp.exists(),
                "the next store must consume the staging file"
            );
            assert_eq!(loaded(label), Some(new.clone()));
        }
        assert_eq!(store.completed(), 2);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn store_cache_round_trips_run_summaries() {
        let root = tmp_root("cache");
        let store = RunStore::open(&root, "spec").unwrap();
        let cache = StoreCache::new(&store);
        let summary = RunSummary::from_trace(sample_trace());
        assert!(cache.load(0, "Air-FedGA", 4242, 42).is_none());
        cache.store(0, "Air-FedGA", 4242, 42, &summary);
        let loaded = cache.load(0, "Air-FedGA", 4242, 42).expect("cache hit");
        assert_eq!(loaded.mechanism, summary.mechanism);
        assert_eq!(
            loaded.final_accuracy.to_bits(),
            summary.final_accuracy.to_bits()
        );
        assert_eq!(loaded.final_loss.to_bits(), summary.final_loss.to_bits());
        assert_eq!(loaded.total_time.to_bits(), summary.total_time.to_bits());
        assert_eq!(
            loaded.total_energy.to_bits(),
            summary.total_energy.to_bits()
        );
        assert_eq!(loaded.rounds_survived, summary.rounds_survived);
        assert_eq!(loaded.trace.to_csv(), summary.trace.to_csv());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn spec_hash_is_stable_and_sensitive() {
        let a = spec_hash("spec");
        assert_eq!(a, spec_hash("spec"), "hash must be deterministic");
        assert_ne!(a, spec_hash("spec "), "any byte change must re-key");
    }
}
