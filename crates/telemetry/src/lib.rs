//! # telemetry — deterministic-aware observability
//!
//! A dependency-free instrumentation layer for the Air-FedGA workspace. It is
//! the *only* crate outside the timing modules allowed to read wall clocks
//! (the crate-level `expect` below), and it is built around one
//! hard invariant: **turning telemetry on or off must not change a single
//! byte of stdout, CSVs, or runstore contents** — everything this crate emits
//! goes to stderr or to the `--telemetry <dir>` sidecar files.
//!
//! Two planes of counts, and one timing record:
//!
//! * **Logical plane** ([`metrics`], [`Plane::Logical`]) — pure counts of
//!   semantic events (rounds run, participants filtered, GEMM calls, runstore
//!   hits). These are bit-identical across any `PARALLEL_THREADS ×
//!   PARALLEL_CHUNKS` schedule, because each counter increments exactly once
//!   per semantic event and addition commutes. Exported as `metrics.json`.
//! * **Scheduling plane** ([`Plane::Sched`]) — counts that *describe* the
//!   schedule (fan-outs issued, chunks claimed). Deterministic per
//!   configuration but not across thread/chunk matrices; excluded from
//!   `metrics.json`.
//! * **Spans** ([`spans`]) — the one record of wall-clock durations. Never
//!   deterministic; only ever written to the sidecar files (`spans.jsonl`,
//!   and their per-name aggregates in `profile.json`).
//!
//! The whole layer is gated on a single relaxed [`enabled`] flag: when off,
//! every instrumentation point is one atomic load and a branch, so the
//! telemetry-off overhead on hot paths (GEMM, pool claims) is noise.
//!
//! Lifecycle: the driver calls [`enable`] before a run and
//! [`flush_to_dir`] after it, which writes `spans.jsonl` (span events merged
//! in deterministic `(cell, seed, attempt, seq)` order), `metrics.json`
//! (logical plane only), and `profile.json`, and returns the rendered
//! profile text for the report path.

#![warn(missing_docs)]
#![expect(
    clippy::disallowed_methods,
    reason = "spans and the progress ETA are wall-clock by definition; \
              the metric planes never read a clock"
)]

pub mod metrics;
mod profile;
pub mod progress;
pub mod spans;

use std::io::{Read as _, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

pub use metrics::Plane;

/// Global recording flag. Off by default; hot-path instrumentation reads it
/// with one relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Serialises tests that toggle the process-global [`ENABLED`] flag.
#[cfg(test)]
pub(crate) static TEST_FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Lock [`TEST_FLAG_LOCK`], surviving poisoning from a failed test.
#[cfg(test)]
pub(crate) fn test_flag_guard() -> std::sync::MutexGuard<'static, ()> {
    TEST_FLAG_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// True when telemetry recording is on.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn telemetry recording on. Counters, histograms and spans start
/// accumulating from their current state; call [`metrics::reset`] first for a
/// clean slate when re-enabling inside one process (tests).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn telemetry recording off again (used by in-process tests; production
/// runs enable once and flush at exit).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Flush all recorded telemetry into `dir`, creating it if needed:
///
/// * `spans.jsonl` — one JSON object per span event, sorted by
///   `(cell, seed, attempt, seq)` so reruns diff cleanly line-for-line
///   (durations still vary — they are wall-clock).
/// * `metrics.json` — the logical plane only: bit-identical across
///   thread/chunk schedules for a deterministic run.
/// * `profile.json` — machine-readable run profile (span aggregates, all
///   counters of both planes, histogram percentiles).
///
/// Returns the rendered human-readable profile table for the report path.
pub fn flush_to_dir(dir: &Path) -> std::io::Result<String> {
    let events = spans::take_sorted();
    std::fs::create_dir_all(dir)?;
    for (name, text) in [
        ("spans.jsonl", spans::to_jsonl(&events)),
        ("metrics.json", metrics::logical_json()),
        ("profile.json", profile::to_json(&events)),
    ] {
        write_atomic(&dir.join(name), text.as_bytes())?;
    }
    Ok(profile::render(&events))
}

/// The workspace's one durable write: `bytes` are staged to `<file name>.tmp`,
/// fsynced and renamed over `path`, so a crash leaves the old or the new file.
/// A `path` already holding `bytes` (same length, then contents) stays in place and is only
/// fsynced, in case its writer did not; a stale `.tmp` is removed, best effort. A crash then
/// leaves old = new, on return `path` durably holds `bytes`, and its mtime does not advance.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let holds = |mut old: &std::fs::File| {
        let mut buf = Vec::new();
        old.metadata().is_ok_and(|m| m.len() == bytes.len() as u64)
            && old.read_to_end(&mut buf).is_ok_and(|_| buf == bytes)
    };
    let (mut file, staged) = match std::fs::File::open(path) {
        Ok(old) if holds(&old) => (old, false),
        _ => (std::fs::File::create(&tmp)?, true),
    };
    if staged {
        file.write_all(bytes)?;
    }
    file.sync_all()?;
    if staged {
        std::fs::rename(&tmp, path)
    } else {
        std::fs::remove_file(&tmp).or(Ok(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_toggles() {
        let _guard = test_flag_guard();
        let was = enabled();
        enable();
        assert!(enabled());
        disable();
        assert!(!enabled());
        if was {
            enable();
        }
    }

    #[test]
    fn flush_writes_all_three_artifacts() {
        let dir = std::env::temp_dir().join("telemetry_flush_test");
        let _ = std::fs::remove_dir_all(&dir);
        let text = flush_to_dir(&dir).expect("flush");
        assert!(dir.join("spans.jsonl").exists());
        assert!(dir.join("metrics.json").exists());
        assert!(dir.join("profile.json").exists());
        assert!(text.contains("run profile"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_overwrites_consumes_a_stale_staging_file_and_creates_no_parent() {
        let dir = std::env::temp_dir().join(format!("telemetry_atomic_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (path, tmp) = (dir.join("x.csv"), dir.join("x.csv.tmp"));
        write_atomic(&path, b"old").unwrap();
        std::fs::write(&tmp, b"torn by a crash").unwrap();
        write_atomic(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert!(!tmp.exists(), "the rename must consume the staging file");
        let orphan = dir.join("missing").join("y.txt");
        assert!(write_atomic(&orphan, b"z").is_err());
        assert!(!dir.join("missing").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_leaves_identical_bytes_in_place_and_replaces_any_other_bytes() {
        use std::os::unix::fs::MetadataExt as _;
        let dir = std::env::temp_dir().join(format!("telemetry_same_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (path, tmp) = (dir.join("x.csv"), dir.join("x.csv.tmp"));
        let ino = |p: &Path| std::fs::metadata(p).unwrap().ino();
        write_atomic(&path, b"a,b\n1,2\n").unwrap();
        let first = ino(&path);
        std::fs::write(&tmp, b"torn by a crash").unwrap();
        write_atomic(&path, b"a,b\n1,2\n").unwrap();
        assert_eq!(ino(&path), first, "identical bytes must not be rewritten");
        assert!(!tmp.exists(), "the skip must consume the staging file");
        assert_eq!(std::fs::read(&path).unwrap(), b"a,b\n1,2\n");
        // Same length, different contents: the length check alone must not skip.
        write_atomic(&path, b"a,b\n1,3\n").unwrap();
        assert_ne!(
            ino(&path),
            first,
            "different bytes must be renamed into place"
        );
        assert_eq!(std::fs::read(&path).unwrap(), b"a,b\n1,3\n");
        assert!(!tmp.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
