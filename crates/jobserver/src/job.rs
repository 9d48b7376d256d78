//! One job's state and its crash-safe on-disk record.
//!
//! A job lives in `<root>/jobs/<id>/`:
//!
//! ```text
//! jobs/3/
//!   spec.toml     the submitted scenario text, verbatim
//!   meta          the state record (this module's codec)
//!   results/      the job's CSV output (`--results-dir`)
//!   report.txt    failure report + cache summary, written at completion
//! ```
//!
//! `meta` is a small line-based `key value` file in the runstore style
//! (hand-rolled, offline `serde` derives nothing). It and `spec.toml` are
//! written by [`telemetry::write_atomic`], the one way a durable file is
//! written, so a killed daemon never leaves a torn record — it reopens the
//! directory and resumes the queue.
//!
//! State machine:
//!
//! ```text
//! queued ──▶ running ──▶ done
//!    │          │    └──▶ failed
//!    │          └───────▶ cancelled      (cooperative, round-boundary)
//!    ├──────────────────▶ cancelled      (cancel-while-queued)
//!    ◀────── running     (daemon killed mid-run: reverts on restart,
//!                         `requeues` increments)
//! ```

use runstore::CacheStats;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Version tag at the head of every `meta` file.
const META_HEADER: &str = "air-fedga job v1";

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue.
    Queued,
    /// Currently executing (at most one job is, daemon-wide).
    Running,
    /// Finished with every replicate intact.
    Done,
    /// Finished with unrecovered replicate failures, or died on a spec or
    /// driver error.
    Failed,
    /// Cancelled (queued or mid-run).
    Cancelled,
}

impl JobState {
    /// Stable wire/disk name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parse a wire/disk name.
    pub fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            _ => return None,
        })
    }

    /// No further transitions out of this state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// One job's persistent record.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Monotonic id (also the directory name).
    pub id: u64,
    /// Submitter-chosen display name.
    pub name: String,
    /// Scheduling priority: higher runs first, FIFO by id within a priority.
    pub priority: i64,
    /// Lifecycle state.
    pub state: JobState,
    /// Times this job was reverted running → queued by a daemon restart.
    pub requeues: u64,
    /// Replicates lost for good in the last execution.
    pub unrecovered: u64,
    /// Run-store statistics of the last execution (`None` before the first,
    /// or for spec kinds that keep no store).
    pub cache: Option<CacheStats>,
    /// Failure report / error text when the job failed or was cancelled.
    pub error: Option<String>,
}

impl JobRecord {
    /// A fresh queued record.
    pub fn new(id: u64, name: String, priority: i64) -> Self {
        Self {
            id,
            name,
            priority,
            state: JobState::Queued,
            requeues: 0,
            unrecovered: 0,
            cache: None,
            error: None,
        }
    }

    /// This job's directory under `jobs_root`.
    pub fn dir(jobs_root: &Path, id: u64) -> PathBuf {
        jobs_root.join(id.to_string())
    }

    /// Encode the record (the `meta` codec).
    pub fn encode(&self) -> String {
        let mut out = format!(
            "{META_HEADER}\nid {}\nname {}\npriority {}\nstate {}\nrequeues {}\nunrecovered {}\n",
            self.id,
            escape(&self.name),
            self.priority,
            self.state.as_str(),
            self.requeues,
            self.unrecovered,
        );
        if let Some(c) = &self.cache {
            out.push_str(&format!(
                "cache {} {} {}\n",
                c.hits, c.misses, c.corrupt_degraded
            ));
        }
        if let Some(e) = &self.error {
            out.push_str(&format!("error {}\n", escape(e)));
        }
        out.push_str("end\n");
        out
    }

    /// Decode a `meta` file; `None` on any malformation (the caller skips
    /// the record — a torn write cannot happen, but a manual edit can).
    pub fn decode(text: &str) -> Option<JobRecord> {
        let mut lines = text.lines();
        if lines.next()? != META_HEADER {
            return None;
        }
        let mut id = None;
        let mut name = None;
        let mut priority = None;
        let mut state = None;
        let mut requeues = 0;
        let mut unrecovered = 0;
        let mut cache = None;
        let mut error = None;
        let mut ended = false;
        for line in lines {
            if ended {
                return None; // trailing garbage
            }
            if line == "end" {
                ended = true;
                continue;
            }
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "id" => id = value.parse().ok(),
                "name" => name = Some(unescape(value)),
                "priority" => priority = value.parse().ok(),
                "state" => state = JobState::parse(value),
                "requeues" => requeues = value.parse().ok()?,
                "unrecovered" => unrecovered = value.parse().ok()?,
                "cache" => {
                    let mut parts = value.split(' ');
                    cache = Some(CacheStats {
                        hits: parts.next()?.parse().ok()?,
                        misses: parts.next()?.parse().ok()?,
                        corrupt_degraded: parts.next()?.parse().ok()?,
                    });
                    if parts.next().is_some() {
                        return None;
                    }
                }
                "error" => error = Some(unescape(value)),
                _ => return None, // unknown key: refuse to guess
            }
        }
        if !ended {
            return None;
        }
        Some(JobRecord {
            id: id?,
            name: name?,
            priority: priority?,
            state: state?,
            requeues,
            unrecovered,
            cache,
            error,
        })
    }

    /// Persist the record to `dir/meta`, atomically.
    pub(crate) fn save(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        telemetry::write_atomic(&dir.join("meta"), self.encode().as_bytes())
    }

    /// Load the record from `dir/meta`, `None` when absent or malformed.
    pub fn load(dir: &Path) -> Option<JobRecord> {
        let text = fs::read_to_string(dir.join("meta")).ok()?;
        JobRecord::decode(&text)
    }
}

/// The `meta` values are single-line fields; escape the two characters that
/// would break the line framing.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobRecord {
        JobRecord {
            id: 7,
            name: "fig3 smoke\nwith newline".to_string(),
            priority: -2,
            state: JobState::Failed,
            requeues: 1,
            unrecovered: 3,
            cache: Some(CacheStats {
                hits: 10,
                misses: 2,
                corrupt_degraded: 1,
            }),
            error: Some("2 replicate(s) panicked:\n  - cell 0".to_string()),
        }
    }

    #[test]
    fn record_round_trips_through_the_codec() {
        let rec = sample();
        assert_eq!(JobRecord::decode(&rec.encode()), Some(rec));
        let minimal = JobRecord::new(1, "j".to_string(), 0);
        assert_eq!(JobRecord::decode(&minimal.encode()), Some(minimal));
    }

    #[test]
    fn malformed_records_decode_to_none() {
        let good = sample().encode();
        assert!(JobRecord::decode("").is_none());
        assert!(JobRecord::decode("wrong header\nend\n").is_none());
        // Every strict prefix loses the end marker or a required field, except
        // the one that drops only the final newline.
        for cut in 0..good.len() - 1 {
            assert!(JobRecord::decode(&good[..cut]).is_none(), "prefix {cut}");
        }
        assert_eq!(JobRecord::decode(&good[..good.len() - 1]), Some(sample()));
        // Any single byte turned into any other ASCII byte decodes or is
        // refused; it never panics.
        for at in 0..good.len() {
            for b in (0..128u8).filter(|&b| b != good.as_bytes()[at]) {
                let mut flipped = good.as_bytes().to_vec();
                flipped[at] = b;
                JobRecord::decode(std::str::from_utf8(&flipped).unwrap());
            }
        }
        assert!(JobRecord::decode(&good.replace("state failed", "state exploded")).is_none());
        assert!(JobRecord::decode(&good.replace("id 7", "mystery 7")).is_none());
        assert!(JobRecord::decode(&format!("{good}trailing\n")).is_none());
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("jobserver_meta_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let rec = sample();
        rec.save(&dir).unwrap();
        assert_eq!(JobRecord::load(&dir), Some(rec));
        assert!(!dir.join("meta.tmp").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn states_and_terminality() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::parse(s.as_str()), Some(s));
        }
        assert_eq!(JobState::parse("nope"), None);
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
    }
}
