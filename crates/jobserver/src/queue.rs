//! The persistent job queue: submission, scheduling order, recovery.
//!
//! The queue is a map of [`JobRecord`]s mirrored to `<root>/jobs/` — every
//! mutation persists before it is visible, so the on-disk state is always a
//! valid queue to resume from. Scheduling picks the highest priority first
//! and FIFO (lowest id) within a priority. On open, jobs found `running`
//! (the previous daemon died mid-run) revert to `queued`: the rerun is cheap
//! because every replicate the dead daemon completed is already in the
//! shared runstore.

use crate::job::{JobRecord, JobState};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The in-memory queue over `<root>/jobs/`.
#[derive(Debug)]
pub struct JobQueue {
    jobs_root: PathBuf,
    jobs: BTreeMap<u64, JobRecord>,
}

impl JobQueue {
    /// Open (creating if needed) the queue at `<root>/jobs`, recovering any
    /// jobs a previous daemon left behind. Unreadable `meta` files are
    /// skipped with a stderr note, never fatal.
    pub fn open(root: &Path) -> io::Result<Self> {
        let jobs_root = root.join("jobs");
        fs::create_dir_all(&jobs_root)?;
        let mut jobs = BTreeMap::new();
        for entry in fs::read_dir(&jobs_root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let Some(rec) = JobRecord::load(&entry.path()) else {
                eprintln!(
                    "airfedga-serve: skipping unreadable job record {}",
                    entry.path().display()
                );
                continue;
            };
            jobs.insert(rec.id, rec);
        }
        let mut queue = Self { jobs_root, jobs };
        // Recovery: a `running` record means the previous daemon was killed
        // mid-job. Requeue it — the runstore already holds its completed
        // replicates, so the rerun is cache-hit-dominated.
        let interrupted: Vec<u64> = queue
            .jobs
            .values()
            .filter(|r| r.state == JobState::Running)
            .map(|r| r.id)
            .collect();
        for id in interrupted {
            queue.mutate(id, |rec| {
                rec.state = JobState::Queued;
                rec.requeues += 1;
            })?;
        }
        Ok(queue)
    }

    /// A job's directory.
    pub(crate) fn job_dir(&self, id: u64) -> PathBuf {
        JobRecord::dir(&self.jobs_root, id)
    }

    /// Submit a job: assign the next id, persist `spec.toml` and the queued
    /// record, return the id. The caller validates the spec text *before*
    /// submission (a syntactically broken spec is refused at the door, not
    /// discovered at execution).
    pub fn submit(&mut self, name: &str, priority: i64, spec_text: &str) -> io::Result<u64> {
        let id = self.jobs.keys().next_back().copied().unwrap_or(0) + 1;
        let dir = self.job_dir(id);
        fs::create_dir_all(&dir)?;
        // Spec first, record second: a record without a spec would be
        // runnable garbage, a spec without a record is invisible.
        telemetry::write_atomic(&dir.join("spec.toml"), spec_text.as_bytes())?;
        let rec = JobRecord::new(id, name.to_string(), priority);
        rec.save(&dir)?;
        self.jobs.insert(id, rec);
        Ok(id)
    }

    /// The stored spec text of a job.
    pub fn spec_text(&self, id: u64) -> io::Result<String> {
        fs::read_to_string(self.job_dir(id).join("spec.toml"))
    }

    /// Next job to run: highest priority, then lowest id. `None` when no
    /// job is queued.
    pub(crate) fn next_runnable(&self) -> Option<u64> {
        self.jobs
            .values()
            .filter(|r| r.state == JobState::Queued)
            .max_by_key(|r| (r.priority, std::cmp::Reverse(r.id)))
            .map(|r| r.id)
    }

    /// A job's record.
    pub fn get(&self, id: u64) -> Option<&JobRecord> {
        self.jobs.get(&id)
    }

    /// All records, in id order.
    pub fn list(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.values()
    }

    /// Number of jobs in a given state.
    pub fn count(&self, state: JobState) -> usize {
        self.jobs.values().filter(|r| r.state == state).count()
    }

    /// Apply `f` to a job's record and persist the result. `Ok(None)` when
    /// the id is unknown.
    pub fn mutate(
        &mut self,
        id: u64,
        f: impl FnOnce(&mut JobRecord),
    ) -> io::Result<Option<&JobRecord>> {
        let Some(rec) = self.jobs.get_mut(&id) else {
            return Ok(None);
        };
        f(rec);
        let dir = JobRecord::dir(&self.jobs_root, id);
        rec.save(&dir)?;
        Ok(Some(&self.jobs[&id]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("jobserver_queue_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn submit_assigns_monotonic_ids_and_persists() {
        let root = tmp_root("submit");
        let mut q = JobQueue::open(&root).unwrap();
        let a = q.submit("a", 0, "[scenario]\n").unwrap();
        let b = q.submit("b", 5, "[scenario]\n").unwrap();
        assert_eq!((a, b), (1, 2));
        assert_eq!(q.spec_text(a).unwrap(), "[scenario]\n");
        // A reopened queue sees both jobs; ids keep growing.
        let mut q2 = JobQueue::open(&root).unwrap();
        assert_eq!(q2.list().count(), 2);
        assert_eq!(q2.submit("c", 0, "x").unwrap(), 3);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn scheduling_is_priority_then_fifo() {
        let root = tmp_root("order");
        let mut q = JobQueue::open(&root).unwrap();
        let low_first = q.submit("low-first", 0, "x").unwrap();
        let high = q.submit("high", 10, "x").unwrap();
        let low_second = q.submit("low-second", 0, "x").unwrap();
        let high_second = q.submit("high-second", 10, "x").unwrap();
        let negative = q.submit("negative", -3, "x").unwrap();

        let mut order = Vec::new();
        while let Some(id) = q.next_runnable() {
            order.push(id);
            q.mutate(id, |r| r.state = JobState::Done).unwrap();
        }
        assert_eq!(
            order,
            vec![high, high_second, low_first, low_second, negative]
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reopen_requeues_interrupted_jobs_only() {
        let root = tmp_root("recover");
        let mut q = JobQueue::open(&root).unwrap();
        let running = q.submit("running", 0, "x").unwrap();
        let done = q.submit("done", 0, "x").unwrap();
        let cancelled = q.submit("cancelled", 0, "x").unwrap();
        q.mutate(running, |r| r.state = JobState::Running).unwrap();
        q.mutate(done, |r| r.state = JobState::Done).unwrap();
        q.mutate(cancelled, |r| r.state = JobState::Cancelled)
            .unwrap();
        drop(q); // "kill" the daemon

        let q = JobQueue::open(&root).unwrap();
        let rec = q.get(running).unwrap();
        assert_eq!(rec.state, JobState::Queued);
        assert_eq!(rec.requeues, 1);
        assert_eq!(q.get(done).unwrap().state, JobState::Done);
        assert_eq!(q.get(cancelled).unwrap().state, JobState::Cancelled);
        assert_eq!(q.next_runnable(), Some(running));
        // And the requeue was persisted, not just in memory.
        let q2 = JobQueue::open(&root).unwrap();
        assert_eq!(q2.get(running).unwrap().requeues, 1);
        fs::remove_dir_all(&root).ok();
    }

    /// A crash inside `write_atomic` leaves no staging file, a partial or a
    /// complete `<name>.tmp` beside the old file, or the new file. Each is
    /// built by hand: job 1's record update and job 2's submission both die
    /// at every prefix length of their new bytes.
    #[test]
    fn every_crash_state_of_a_record_or_spec_write_reopens_the_previous_queue() {
        let root = tmp_root("crash");
        let mut q = JobQueue::open(&root).unwrap();
        let id = q.submit("a", 0, "x").unwrap();
        let old = [q.get(id).cloned().unwrap()];
        let (dir, next) = (q.job_dir(id), q.job_dir(id + 1));
        fs::create_dir_all(&next).unwrap();
        let mut done = old[0].clone();
        done.state = JobState::Done;
        let (meta, spec) = (done.encode(), "[scenario]\nname = \"b\"\n");
        let reopened = || Vec::from_iter(JobQueue::open(&root).unwrap().list().cloned());
        assert_eq!(reopened(), old);
        for cut in 0..=meta.len() {
            fs::write(dir.join("meta.tmp"), &meta[..cut]).unwrap();
            fs::write(next.join("spec.toml.tmp"), &spec[..cut.min(spec.len())]).unwrap();
            assert_eq!(reopened(), old, "cut at {cut}");
        }
        // A spec renamed into place without its record is invisible too.
        fs::write(next.join("spec.toml"), "stale").unwrap();
        assert_eq!(reopened(), old);
        // The next writes consume both staging files.
        let mut q = JobQueue::open(&root).unwrap();
        q.mutate(id, |r| r.state = JobState::Done).unwrap();
        assert_eq!(q.submit("b", 0, spec).unwrap(), id + 1);
        assert!(!dir.join("meta.tmp").exists() && !next.join("spec.toml.tmp").exists());
        assert_eq!(q.spec_text(id + 1).unwrap(), spec);
        assert_eq!(reopened()[0], done);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn mutate_unknown_id_is_none() {
        let root = tmp_root("unknown");
        let mut q = JobQueue::open(&root).unwrap();
        assert!(q.mutate(99, |_| ()).unwrap().is_none());
        assert!(q.get(99).is_none());
        assert_eq!(q.next_runnable(), None);
        fs::remove_dir_all(&root).ok();
    }
}
