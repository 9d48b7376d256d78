//! The daemon: queue + executor + wire protocol.
//!
//! ## Endpoints
//!
//! | method | path                    | body / reply                          |
//! |--------|-------------------------|---------------------------------------|
//! | GET    | `/healthz`              | daemon + queue counters, dedup totals |
//! | GET    | `/jobs`                 | all job records                       |
//! | POST   | `/jobs`                 | `{"name","priority","spec"}` → `{"id"}` |
//! | GET    | `/jobs/<id>`            | one record + live progress            |
//! | POST   | `/jobs/<id>/cancel`     | cancel (queued or running)            |
//! | GET    | `/jobs/<id>/results`    | result file names                     |
//! | GET    | `/jobs/<id>/files/<f>`  | one result file, raw                  |
//! | POST   | `/shutdown`             | stop after the current job            |
//!
//! ## Execution model
//!
//! One executor thread runs jobs strictly one at a time (the grid saturates
//! the machine through the deterministic pool; see the crate docs) through
//! `scenario::run::execute` — the *same* function the batch driver calls —
//! with two overrides, the same for every scenario kind: the run store is
//! `--resume` against the daemon's shared `<root>/runstore` (cross-job
//! dedup), and CSVs go to the job's own `jobs/<id>/results/`. A spec-level
//! panic is caught and recorded as a failed job; the daemon survives.

use crate::http::{read_request, write_response, Request};
use crate::job::{JobRecord, JobState};
use crate::json::Json;
use crate::queue::JobQueue;
use experiments::scale::Scale;
use runstore::{CacheStats, StoreLock};
use scenario::run::ExecutionReport;
use scenario::{CliOverrides, ScenarioSpec, StoreMode};
use std::fs;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use telemetry::progress::ProgressSnapshot;
use telemetry::write_atomic;

/// How the executor waits for work (also bounds shutdown latency while
/// idle).
const EXECUTOR_POLL: Duration = Duration::from_millis(200);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The server root: queue, shared runstore and address file all live
    /// under it.
    pub root: PathBuf,
    /// Scale every job runs at (the daemon's `AIRFEDGA_SCALE`, resolved
    /// once at startup).
    pub scale: Scale,
}

/// Live info about the currently executing job.
#[derive(Debug, Default)]
struct RunningJob {
    id: Option<u64>,
    cancel_requested: bool,
    progress: Option<ProgressSnapshot>,
}

struct Shared {
    config: ServerConfig,
    queue: Mutex<JobQueue>,
    /// Paired with `queue`: submissions notify the executor.
    wake: Condvar,
    running: Mutex<RunningJob>,
    /// Daemon-lifetime cache totals across jobs (cross-job dedup evidence).
    totals: Mutex<CacheStats>,
    shutdown: AtomicBool,
    /// Held for the daemon's lifetime: one writer per shared store root.
    _store_lock: StoreLock,
}

/// The job service. Cheap to clone (an [`Arc`] underneath); one clone per
/// serving thread.
#[derive(Clone)]
pub struct Server {
    shared: Arc<Shared>,
}

impl Server {
    /// Open a server over `config.root`, recovering any persisted queue and
    /// taking the store lock. Fails if another live daemon holds the root.
    pub fn open(config: ServerConfig) -> io::Result<Server> {
        fs::create_dir_all(&config.root)?;
        let store_lock = StoreLock::acquire(&config.root.join("runstore"))?;
        let queue = JobQueue::open(&config.root)?;
        Ok(Server {
            shared: Arc::new(Shared {
                config,
                queue: Mutex::new(queue),
                wake: Condvar::new(),
                running: Mutex::new(RunningJob::default()),
                totals: Mutex::new(CacheStats::default()),
                shutdown: AtomicBool::new(false),
                _store_lock: store_lock,
            }),
        })
    }

    /// The server root.
    pub fn root(&self) -> &Path {
        &self.shared.config.root
    }

    /// Submit a spec. Validation happens here: a spec that does not parse is
    /// refused (the error names the line), never queued.
    pub fn submit(&self, name: &str, priority: i64, spec_text: &str) -> Result<u64, String> {
        ScenarioSpec::parse(spec_text).map_err(|e| e.to_string())?;
        let mut queue = self.lock_queue();
        let id = queue
            .submit(name, priority, spec_text)
            .map_err(|e| format!("cannot persist the job: {e}"))?;
        self.shared.wake.notify_all();
        Ok(id)
    }

    /// Cancel a job. Queued jobs flip to `cancelled` immediately; the
    /// running job is cancelled cooperatively (every in-flight cell aborts
    /// at its next round boundary) and reports `cancelled` once the grid
    /// drains. Terminal jobs are left as they are (idempotent). `None` for
    /// an unknown id.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let mut queue = self.lock_queue();
        let state = queue.get(id)?.state;
        match state {
            JobState::Queued => {
                queue
                    .mutate(id, |r| {
                        r.state = JobState::Cancelled;
                        r.error = Some("cancelled while queued".to_string());
                    })
                    .ok();
                Some(JobState::Cancelled)
            }
            JobState::Running => {
                let mut running = self
                    .shared
                    .running
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                if running.id == Some(id) {
                    running.cancel_requested = true;
                    drop(running);
                    simcore::cancel::cancel_all();
                }
                Some(JobState::Running)
            }
            terminal => Some(terminal),
        }
    }

    /// A job's record (a clone) plus its live progress when it is the one
    /// running.
    pub fn status(&self, id: u64) -> Option<(JobRecord, Option<ProgressSnapshot>)> {
        let queue = self.lock_queue();
        let rec = queue.get(id)?.clone();
        drop(queue);
        let running = self
            .shared
            .running
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let progress = (running.id == Some(id))
            .then_some(running.progress)
            .flatten();
        Some((rec, progress))
    }

    /// All job records, in id order.
    pub fn list(&self) -> Vec<JobRecord> {
        self.lock_queue().list().cloned().collect()
    }

    /// Daemon-lifetime cache totals across jobs.
    pub fn totals(&self) -> CacheStats {
        *self.shared.totals.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Ask every serving loop to stop; the executor finishes the current
    /// job first.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
    }

    /// Whether shutdown was requested.
    fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Spawn the executor thread.
    pub fn start_executor(&self) -> std::thread::JoinHandle<()> {
        let server = self.clone();
        std::thread::spawn(move || server.run_executor())
    }

    /// Poll a job until it reaches a terminal state (test/CI helper).
    pub fn wait_terminal(&self, id: u64, timeout: Duration) -> Option<JobState> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let state = self.status(id)?.0.state;
            if state.is_terminal() {
                return Some(state);
            }
            if std::time::Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // ------------------------------------------------------------------
    // Executor
    // ------------------------------------------------------------------

    /// The executor loop: run queued jobs until shutdown.
    fn run_executor(&self) {
        while let Some(id) = self.next_job() {
            self.run_one(id);
        }
    }

    /// Block until a job is runnable or shutdown is requested.
    fn next_job(&self) -> Option<u64> {
        let mut queue = self.lock_queue();
        loop {
            if self.shutdown_requested() {
                return None;
            }
            if let Some(id) = queue.next_runnable() {
                return Some(id);
            }
            let (guard, _) = self
                .shared
                .wake
                .wait_timeout(queue, EXECUTOR_POLL)
                .unwrap_or_else(|e| e.into_inner());
            queue = guard;
        }
    }

    /// Execute one job end to end: state transitions, cancellation, the
    /// progress sink, the completion report.
    fn run_one(&self, id: u64) {
        // Queued → Running happens atomically with publishing the running-job
        // info: `cancel` serializes on the same queue lock, so a cancellation
        // either lands while the job is still `queued` (state flip, we skip it
        // here) or finds `running.id` already published (cooperative abort).
        // `reset_cancel_all` also lives inside the lock so a concurrent
        // cancel's `cancel_all` can never be wiped out.
        let (spec_text, job_dir) = {
            let mut queue = self.lock_queue();
            if queue.get(id).map(|r| r.state) != Some(JobState::Queued) {
                return; // cancelled (or otherwise resolved) before it started
            }
            simcore::cancel::reset_cancel_all();
            {
                let mut running = self
                    .shared
                    .running
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                *running = RunningJob {
                    id: Some(id),
                    cancel_requested: false,
                    progress: None,
                };
            }
            let spec = queue.spec_text(id);
            queue
                .mutate(id, |r| {
                    r.state = JobState::Running;
                    r.error = None;
                })
                .ok();
            (spec, queue.job_dir(id))
        };
        let sink_shared = self.shared.clone();
        telemetry::progress::set_sink(move |snapshot| {
            let mut running = sink_shared
                .running
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            running.progress = Some(*snapshot);
        });

        let outcome = spec_text
            .map(|text| catch_unwind(AssertUnwindSafe(|| self.execute_spec(&text, &job_dir))));

        telemetry::progress::clear_sink();
        let cancel_requested = {
            let mut running = self
                .shared
                .running
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let requested = running.cancel_requested;
            *running = RunningJob::default();
            requested
        };
        simcore::cancel::reset_cancel_all();

        let (state, unrecovered, cache, harness, error) = match outcome {
            Ok(Ok(Ok(report))) => {
                let unrecovered = report.failures.iter().filter(|f| !f.recovered).count() as u64;
                let failure_text = report.failure_report();
                let state = if cancel_requested {
                    JobState::Cancelled
                } else if report.is_clean() {
                    JobState::Done
                } else {
                    JobState::Failed
                };
                let error = if cancel_requested {
                    Some(format!("cancelled by request\n{failure_text}"))
                } else if failure_text.is_empty() {
                    None
                } else {
                    Some(failure_text)
                };
                let harness: String = report.harness_summary().map(|l| l + "\n").collect();
                (state, unrecovered, report.cache, harness, error)
            }
            Ok(Ok(Err(spec_err))) => {
                let state = if cancel_requested {
                    JobState::Cancelled
                } else {
                    JobState::Failed
                };
                (state, 0, None, String::new(), Some(spec_err.to_string()))
            }
            Ok(Err(panic)) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(|s| s.as_str())
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic payload>");
                (
                    JobState::Failed,
                    0,
                    None,
                    String::new(),
                    Some(format!("driver panicked: {msg}")),
                )
            }
            Err(io_err) => (
                JobState::Failed,
                0,
                None,
                String::new(),
                Some(format!("cannot read the stored spec: {io_err}")),
            ),
        };

        if let Some(stats) = &cache {
            self.shared
                .totals
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .merge(stats);
        }
        let mut report_text = format!("job {id}: {}\n", state.as_str());
        if let Some(stats) = &cache {
            report_text.push_str(&stats.summary());
            report_text.push('\n');
        }
        report_text.push_str(&harness);
        if let Some(error) = &error {
            report_text.push_str(error);
            if !error.ends_with('\n') {
                report_text.push('\n');
            }
        }
        if let Err(e) = write_atomic(&job_dir.join("report.txt"), report_text.as_bytes()) {
            eprintln!("airfedga-serve: cannot write job {id} report: {e}");
        }
        let mut queue = self.lock_queue();
        queue
            .mutate(id, |r| {
                r.state = state;
                r.unrecovered = unrecovered;
                r.cache = cache;
                r.error = error;
            })
            .ok();
    }

    /// The shared driver path: identical to `airfedga-run --resume` on the
    /// same spec up to the two service overrides (store root, results dir).
    fn execute_spec(
        &self,
        spec_text: &str,
        job_dir: &Path,
    ) -> Result<ExecutionReport, scenario::ScenarioError> {
        let spec = ScenarioSpec::parse(spec_text)?;
        let cli = CliOverrides {
            store: StoreMode::Resume,
            store_root: Some(self.shared.config.root.join("runstore")),
            results_dir: Some(job_dir.join("results")),
            ..CliOverrides::default()
        };
        scenario::run::execute(&spec, self.shared.config.scale, &cli)
    }

    // ------------------------------------------------------------------
    // Wire protocol
    // ------------------------------------------------------------------

    /// Serve requests on `listener` until shutdown. Requests are handled
    /// inline — the protocol is tiny and the daemon's heavy work lives on
    /// the executor thread.
    pub fn serve_http(&self, listener: TcpListener) {
        for stream in listener.incoming() {
            match stream {
                Ok(mut stream) => {
                    if let Err(e) = self.handle_connection(&mut stream) {
                        eprintln!("airfedga-serve: connection error: {e}");
                    }
                }
                Err(e) => eprintln!("airfedga-serve: accept failed: {e}"),
            }
            if self.shutdown_requested() {
                break;
            }
        }
    }

    fn handle_connection(&self, stream: &mut TcpStream) -> io::Result<()> {
        let request = match read_request(stream) {
            Ok(request) => request,
            Err(e) => {
                let body = Json::obj(vec![("error", Json::str(e.to_string()))]).encode();
                return write_response(
                    stream,
                    400,
                    "Bad Request",
                    "application/json",
                    body.as_bytes(),
                );
            }
        };
        let (status, reason, content_type, body) = self.route(&request);
        write_response(stream, status, reason, &content_type, &body)
    }

    /// Dispatch one request to (status, reason, content type, body).
    fn route(&self, request: &Request) -> (u16, &'static str, String, Vec<u8>) {
        let json = |status: u16, reason: &'static str, value: Json| {
            (
                status,
                reason,
                "application/json".to_string(),
                value.encode().into_bytes(),
            )
        };
        let error = |status: u16, reason: &'static str, msg: &str| {
            json(status, reason, Json::obj(vec![("error", Json::str(msg))]))
        };
        let segments: Vec<&str> = request
            .path
            .trim_matches('/')
            .split('/')
            .filter(|s| !s.is_empty())
            .collect();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => {
                let queue = self.lock_queue();
                let queued = queue.count(JobState::Queued);
                let running = queue.count(JobState::Running);
                let total = queue.list().count();
                drop(queue);
                let totals = self.totals();
                json(
                    200,
                    "OK",
                    Json::obj(vec![
                        ("status", Json::str("ok")),
                        ("jobs", Json::num(total as u64)),
                        ("queued", Json::num(queued as u64)),
                        ("running", Json::num(running as u64)),
                        ("store_totals", cache_json(&Some(totals))),
                    ]),
                )
            }
            ("GET", ["jobs"]) => {
                let jobs: Vec<Json> = self.list().iter().map(|rec| job_json(rec, None)).collect();
                json(200, "OK", Json::obj(vec![("jobs", Json::Arr(jobs))]))
            }
            ("POST", ["jobs"]) => {
                let body = match Json::parse(&request.body) {
                    Ok(body) => body,
                    Err(e) => return error(400, "Bad Request", &format!("bad JSON body: {e}")),
                };
                let Some(spec) = body.get("spec").and_then(Json::as_str) else {
                    return error(400, "Bad Request", "missing \"spec\" (the scenario text)");
                };
                let name = body.get("name").and_then(Json::as_str).unwrap_or("unnamed");
                let priority = body.get("priority").and_then(Json::as_i64).unwrap_or(0);
                match self.submit(name, priority, spec) {
                    Ok(id) => json(200, "OK", Json::obj(vec![("id", Json::num(id))])),
                    Err(e) => error(400, "Bad Request", &e),
                }
            }
            ("GET", ["jobs", id]) => match id.parse::<u64>().ok().and_then(|id| self.status(id)) {
                Some((rec, progress)) => json(200, "OK", job_json(&rec, progress)),
                None => error(404, "Not Found", "unknown job id"),
            },
            ("POST", ["jobs", id, "cancel"]) => {
                match id.parse::<u64>().ok().and_then(|id| self.cancel(id)) {
                    Some(state) => json(
                        200,
                        "OK",
                        Json::obj(vec![("state", Json::str(state.as_str()))]),
                    ),
                    None => error(404, "Not Found", "unknown job id"),
                }
            }
            ("GET", ["jobs", id, "results"]) => {
                let Some(id) = id
                    .parse::<u64>()
                    .ok()
                    .filter(|&id| self.status(id).is_some())
                else {
                    return error(404, "Not Found", "unknown job id");
                };
                let dir = self.lock_queue().job_dir(id).join("results");
                let mut names: Vec<String> = match fs::read_dir(&dir) {
                    Ok(entries) => entries
                        .filter_map(|e| e.ok())
                        .filter(|e| e.path().is_file())
                        .filter_map(|e| e.file_name().into_string().ok())
                        .collect(),
                    Err(_) => Vec::new(),
                };
                names.sort();
                json(
                    200,
                    "OK",
                    Json::obj(vec![(
                        "files",
                        Json::Arr(names.into_iter().map(Json::Str).collect()),
                    )]),
                )
            }
            ("GET", ["jobs", id, "files", name]) => {
                let Some(id) = id
                    .parse::<u64>()
                    .ok()
                    .filter(|&id| self.status(id).is_some())
                else {
                    return error(404, "Not Found", "unknown job id");
                };
                // One flat component only: no separators, no dot-dot.
                if name.contains(['/', '\\']) || *name == ".." || name.is_empty() {
                    return error(400, "Bad Request", "bad file name");
                }
                let path = self.lock_queue().job_dir(id).join("results").join(name);
                match fs::read(&path) {
                    Ok(bytes) => (200, "OK", "text/plain".to_string(), bytes),
                    Err(_) => error(404, "Not Found", "no such result file"),
                }
            }
            ("POST", ["shutdown"]) => {
                self.request_shutdown();
                json(200, "OK", Json::obj(vec![("ok", Json::Bool(true))]))
            }
            _ => error(404, "Not Found", "no such endpoint"),
        }
    }

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, JobQueue> {
        self.shared.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A job record (+ optional live progress) as wire JSON.
fn job_json(rec: &JobRecord, progress: Option<ProgressSnapshot>) -> Json {
    let progress_json = match progress {
        None => Json::Null,
        Some(p) => Json::obj(vec![
            ("label", Json::str(p.label)),
            ("total", Json::num(p.total as u64)),
            ("done", Json::num(p.done as u64)),
            ("cached", Json::num(p.cached as u64)),
            ("failed", Json::num(p.failed as u64)),
            ("retried", Json::num(p.retried as u64)),
            ("finished", Json::Bool(p.finished)),
        ]),
    };
    Json::obj(vec![
        ("id", Json::num(rec.id)),
        ("name", Json::str(rec.name.clone())),
        ("priority", Json::Num(rec.priority as f64)),
        ("state", Json::str(rec.state.as_str())),
        ("requeues", Json::num(rec.requeues)),
        ("unrecovered", Json::num(rec.unrecovered)),
        ("cache", cache_json(&rec.cache)),
        (
            "error",
            rec.error
                .as_ref()
                .map(|e| Json::str(e.clone()))
                .unwrap_or(Json::Null),
        ),
        ("progress", progress_json),
    ])
}

fn cache_json(cache: &Option<CacheStats>) -> Json {
    match cache {
        None => Json::Null,
        Some(c) => Json::obj(vec![
            ("hits", Json::num(c.hits)),
            ("misses", Json::num(c.misses)),
            ("corrupt", Json::num(c.corrupt_degraded)),
        ]),
    }
}

/// Bind the daemon's listener and record the bound address in
/// `<root>/serve.addr` (how `airfedga-ctl --root` and CI find an
/// OS-assigned port).
pub fn bind_and_record(root: &Path, addr: &str) -> io::Result<(TcpListener, String)> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?.to_string();
    fs::create_dir_all(root)?;
    write_atomic(root.join("serve.addr").as_path(), bound.as_bytes())?;
    Ok((listener, bound))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The JSON decoder is total on the protocol's own documents: every
    /// strict prefix, and every single-byte substitution from a set of
    /// JSON-significant bytes (plus 0xFF, read lossily as U+FFFD), of a submit
    /// body and of a status document returns `Ok` or `Err` — never a panic.
    #[test]
    fn the_json_decoder_never_panics_on_truncated_or_corrupted_documents() {
        const SUBSTITUTES: &[u8] = b"\"{}[]:,\\0-ent\xFF";
        let submit = Json::obj(vec![
            ("name", Json::str("fig3")),
            ("priority", Json::Num(-2.0)),
            (
                "spec",
                Json::str("[scenario]\nname = \"fig3\"\n\n[run]\nxi = [0.5, 1e-3]\n"),
            ),
        ]);
        let mut rec = JobRecord::new(7, "fig3 \"quick\"".to_string(), 1);
        rec.state = JobState::Failed;
        rec.cache = Some(CacheStats {
            hits: 3,
            misses: 1,
            corrupt_degraded: 0,
        });
        rec.error = Some("cell 2: panicked\n".to_string());
        let progress = ProgressSnapshot {
            label: "cells",
            total: 4,
            done: 3,
            cached: 3,
            failed: 1,
            retried: 2,
            finished: true,
        };
        let (mut inputs, mut panics) = (0, Vec::new());
        for doc in [submit, job_json(&rec, Some(progress))] {
            let src = doc.encode().into_bytes();
            assert_eq!(Json::parse(std::str::from_utf8(&src).unwrap()), Ok(doc));
            let prefixes = (0..src.len()).map(|n| src[..n].to_vec());
            let substitutions = (0..src.len()).flat_map(|at| {
                let src = &src;
                SUBSTITUTES.iter().map(move |&b| {
                    let mut bytes = src.clone();
                    bytes[at] = b;
                    bytes
                })
            });
            for bytes in prefixes.chain(substitutions) {
                inputs += 1;
                let text = String::from_utf8_lossy(&bytes);
                if std::panic::catch_unwind(|| Json::parse(&text)).is_err() {
                    panics.push(text.into_owned());
                }
            }
        }
        assert!(inputs > 3_000, "only {inputs} inputs");
        assert!(
            panics.is_empty(),
            "{} of {inputs} panicked, first: {:?}",
            panics.len(),
            panics[0]
        );
    }
}
