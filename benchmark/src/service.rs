//! `service_mix`: jobs submitted to a live `airfedga-serve` through
//! `jobserver::client` — the only path through HTTP/JSON, the persistent
//! queue, the executor wake-up and the shared dedup store.

use crate::metrics::Metrics;
use crate::probe::HostSpeed;
use crate::program::{Daemon, DAEMON_TIMEOUT_S};
use crate::spans::Recorder;
use crate::workloads::{preflight, read_csvs, Batch, Ctx, Kind, Outcome, Outputs, Samples, Tally};
use crate::{clock, procfs, specs, stats};
use jobserver::client;
use jobserver::json::Json;
use jobserver::JobState;
use std::path::Path;
use std::time::Duration;

/// Set-up repetitions after every fresh job but the last: a daemon on a root
/// of its own, started while the session's daemon idles and shut down again,
/// so that set-up sees the host as the jobs do.
const SETUPS_PER_JOB: usize = 2;
/// Duplicates after every fresh job of the untraced pass: the mix the
/// daemon's queue and store see, each one checked, and the workload's warm
/// repeat.
const DUPS_PER_FRESH: usize = 5;
/// Status poll period while a fresh job computes, and while a duplicate
/// (all hits, a few milliseconds) runs.
const FRESH_POLL: Duration = Duration::from_millis(5);
const DUP_POLL: Duration = Duration::from_millis(1);

/// One job, submit to terminal state, as the client saw it.
#[derive(Debug)]
pub struct JobRun {
    pub id: u64,
    pub wall_s: f64,
    pub submit_rtt_s: f64,
    /// Submit acknowledged to the first status that is no longer `queued`.
    pub queue_wait_s: f64,
    /// Round trips of the status polls that found the job still running.
    pub busy_status_rtt_s: Vec<f64>,
    pub state: JobState,
    /// `(hits, misses)` of the job's own store statistics.
    pub cache: Option<(u64, u64)>,
    /// The terminal status document, as served.
    pub status_doc: Json,
}

fn cache_of(doc: &Json, key: &str) -> Option<(u64, u64)> {
    let cache = doc.get(key)?;
    Some((cache.get("hits")?.as_u64()?, cache.get("misses")?.as_u64()?))
}

/// Submit `spec` and poll its status every `poll` until it is terminal.
pub fn run_job(addr: &str, spec: &str, poll: Duration) -> Result<JobRun, String> {
    let start = clock::now();
    let id = client::submit(addr, "bench", 0, spec)?;
    let submit_rtt_s = clock::secs_since(start);
    let mut queue_wait_s = None;
    let mut busy_status_rtt_s = Vec::new();
    while clock::secs_since(start) < DAEMON_TIMEOUT_S {
        let asked = clock::now();
        let doc = client::status(addr, id)?;
        let rtt = clock::secs_since(asked);
        let state = client::state_of(&doc).ok_or("status without a state")?;
        if state != JobState::Queued && queue_wait_s.is_none() {
            queue_wait_s = Some(clock::secs_since(start) - submit_rtt_s);
        }
        if state.is_terminal() {
            return Ok(JobRun {
                id,
                wall_s: clock::secs_since(start),
                submit_rtt_s,
                queue_wait_s: queue_wait_s.unwrap_or_default(),
                busy_status_rtt_s,
                state,
                cache: cache_of(&doc, "cache"),
                status_doc: doc,
            });
        }
        if state == JobState::Running {
            busy_status_rtt_s.push(rtt);
        }
        std::thread::sleep(poll);
    }
    Err(format!("job {id} did not finish in {DAEMON_TIMEOUT_S} s"))
}

/// A job must end `done` with exactly the expected store traffic.
fn verify_job(job: &JobRun, hits: u64, misses: u64) -> Result<(), String> {
    if job.state != JobState::Done {
        return Err(format!("job {} ended {}", job.id, job.state.as_str()));
    }
    if job.cache != Some((hits, misses)) {
        return Err(format!(
            "job {}: expected (hits, misses) = ({hits}, {misses}), daemon says {:?}",
            job.id, job.cache
        ));
    }
    Ok(())
}

fn job_csvs(root: &Path, id: u64) -> Result<Vec<(String, String)>, String> {
    let dir = root.join("jobs").join(id.to_string()).join("results");
    read_csvs(&dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Samples of a service session.
#[derive(Debug, Default)]
pub struct SessionSamples {
    pub fresh_wall_s: Vec<f64>,
    pub fresh_cpu_s: Vec<f64>,
    pub rss_mb: Vec<f64>,
    pub dup_ms: Vec<f64>,
    pub submit_rtt_us: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub busy_status_rtt_us: Vec<f64>,
    /// The last terminal status document, for the JSON parse timing.
    pub status_doc: Option<Json>,
    pub fresh_jobs: u64,
    pub dup_jobs: u64,
    pub first_csvs: Vec<(String, String)>,
}

/// Submit fresh jobs, each followed by `dups_per_fresh` identical ones,
/// while `more(iterations, last_iteration_s)` says so (it may do work of its
/// own between jobs); every job is checked.
pub fn session(
    ctx: &Ctx<'_>,
    daemon: &Daemon,
    root: &Path,
    dups_per_fresh: usize,
    tally: &mut Tally,
    rec: &mut Recorder,
    mut more: impl FnMut(usize, f64, &mut Recorder) -> Result<bool, String>,
) -> Result<SessionSamples, String> {
    let mut s = SessionSamples::default();
    let (mut iters, mut last_iter_s) = (0, 0.0);
    while more(iters, last_iter_s, rec)? {
        let iter_start = clock::now();
        let spec = specs::job(ctx.seed, s.fresh_jobs);
        let cpu_before = daemon.cpu_s();
        let open = rec.enter("jobserver.fresh_job");
        let fresh = run_job(&daemon.addr, &spec, FRESH_POLL)?;
        rec.exit(open);
        s.fresh_jobs += 1;
        let fresh_csvs = job_csvs(root, fresh.id)?;
        if tally.op(verify_job(&fresh, 0, specs::JOB_REPLICATES)) {
            s.fresh_wall_s.push(fresh.wall_s);
            s.fresh_cpu_s.push(daemon.cpu_s() - cpu_before);
            s.rss_mb.extend(procfs::vm_hwm_mb(daemon.pid()));
            s.busy_status_rtt_us
                .extend(fresh.busy_status_rtt_s.iter().map(|r| r * 1e6));
        }
        if s.first_csvs.is_empty() {
            s.first_csvs = fresh_csvs.clone();
        }
        let open = rec.enter("jobserver.duplicate_jobs");
        for _ in 0..dups_per_fresh {
            let dup = run_job(&daemon.addr, &spec, DUP_POLL)?;
            s.dup_jobs += 1;
            let same = verify_job(&dup, specs::JOB_REPLICATES, 0).and_then(|()| {
                if job_csvs(root, dup.id)? == fresh_csvs {
                    Ok(())
                } else {
                    Err(format!(
                        "job {}: results differ from job {}'s",
                        dup.id, fresh.id
                    ))
                }
            });
            if tally.op(same) {
                s.dup_ms.push(dup.wall_s * 1e3);
                s.submit_rtt_us.push(dup.submit_rtt_s * 1e6);
                s.queue_wait_ms.push(dup.queue_wait_s * 1e3);
            }
            s.status_doc = Some(dup.status_doc);
        }
        rec.exit(open);
        s.submit_rtt_us.push(fresh.submit_rtt_s * 1e6);
        s.queue_wait_ms.push(fresh.queue_wait_s * 1e3);
        iters += 1;
        last_iter_s = clock::secs_since(iter_start);
    }
    Ok(s)
}

/// `health` must account for every job and every replicate of the session;
/// returns the store's `(hits, misses)`.
pub fn verify_health(addr: &str, s: &SessionSamples) -> Result<(u64, u64), String> {
    let health = client::healthz(addr)?;
    let jobs = health.get("jobs").and_then(Json::as_u64);
    let totals = cache_of(&health, "store_totals");
    let expected = (
        s.dup_jobs * specs::JOB_REPLICATES,
        s.fresh_jobs * specs::JOB_REPLICATES,
    );
    if jobs != Some(s.fresh_jobs + s.dup_jobs) || totals != Some(expected) {
        return Err(format!(
            "health reports {jobs:?} jobs and store totals {totals:?}; submitted {} jobs, expected (hits, misses) = {expected:?}",
            s.fresh_jobs + s.dup_jobs
        ));
    }
    Ok(expected)
}

/// Scratch root, pre-flight and a daemon answering `health`.
pub fn start_daemon(ctx: &Ctx<'_>, root: &Path, rec: &mut Recorder) -> Result<Daemon, String> {
    std::fs::create_dir_all(root).map_err(|e| e.to_string())?;
    preflight(ctx, root, rec)?;
    let open = rec.enter("jobserver.start");
    let daemon = ctx.program.serve(root);
    rec.exit(open);
    daemon
}

/// The untraced pass of `service_mix`.
pub fn run(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let mut rec = Recorder::new(false);
    let mut out = Outcome::default();

    let root = ctx.dir.join("daemon");
    let started = clock::now();
    let daemon = start_daemon(ctx, &root, &mut rec)?;
    let mut setup_s = vec![clock::secs_since(started)];
    // Set-up time, the extra daemons' shutdowns included, is no part of the
    // time box.
    let mut outside_s = setup_s[0];

    let mut speed = HostSpeed::default();
    let samples = session(
        ctx,
        &daemon,
        &root,
        DUPS_PER_FRESH,
        &mut out.tally,
        &mut rec,
        |iters, last, rec| {
            let elapsed = clock::secs_since(started) - outside_s;
            if !ctx.time_left(elapsed, last, iters) {
                return Ok(false);
            }
            for k in 0..if iters == 0 { 0 } else { SETUPS_PER_JOB } {
                let extra_root = ctx.dir.join(format!("setup{iters}.{k}"));
                let start = clock::now();
                let extra = start_daemon(ctx, &extra_root, rec)?;
                setup_s.push(clock::secs_since(start));
                extra.shutdown()?;
                std::fs::remove_dir_all(&extra_root).ok();
                outside_s += clock::secs_since(start);
            }
            speed.keep_up(clock::secs_since(started));
            Ok(true)
        },
    )?;
    speed.keep_up(clock::secs_since(started));
    out.tally
        .op(verify_health(&daemon.addr, &samples).map(|_| ()));
    out.tally.op(daemon.shutdown());

    // Service == batch: the first job's CSVs against an untimed
    // `airfedga-run` of the same spec.
    let mut batch = Batch::setup(ctx, Kind::ServiceMix, ctx.dir.join("batch"), &mut rec)?;
    let cold = batch
        .invoke("--fresh", ctx.program.threads, None)
        .map_err(|e| e.to_string())?;
    let same = batch.verify(&cold, batch.replicates).and_then(|()| {
        let batch_csvs = &batch
            .reference
            .as_ref()
            .expect("verify stored the reference")
            .csvs;
        if *batch_csvs == samples.first_csvs {
            batch.verify_results()
        } else {
            Err("service_mix: the first job's CSVs differ from the batch run's".into())
        }
    });
    out.tally.op(same);

    out.digest = Outputs {
        stdout: String::new(),
        csvs: samples.first_csvs,
    }
    .digest();
    let rounds = (specs::JOB_REPLICATES * specs::JOB_ROUNDS) as f64;
    out.end_to_end(
        &speed,
        &Samples {
            rounds: vec![rounds; samples.fresh_wall_s.len()],
            wall_s: samples.fresh_wall_s,
            cpu_s: samples.fresh_cpu_s,
            rss_mb: samples.rss_mb,
            warm_ms: samples.dup_ms,
            setup_s,
        },
    );
    Ok(out)
}

/// The traced pass's service session: `dups` duplicates of one fresh job on
/// a daemon of its own, giving the `jobserver.*` layer metrics.
pub fn trace_session(
    ctx: &Ctx<'_>,
    dups: usize,
    metrics: &mut Metrics,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> Result<(), String> {
    let root = ctx.dir.join("service");
    let start = clock::now();
    let daemon = start_daemon(ctx, &root, rec)?;
    metrics.value("jobserver.start_ms", clock::secs_since(start) * 1e3);

    let s = session(ctx, &daemon, &root, dups, tally, rec, |iters, _, _| {
        Ok(iters == 0)
    })?;
    let open = rec.enter("jobserver.status_idle");
    let mut idle_rtt_us = Vec::new();
    for _ in 0..50 {
        let asked = clock::now();
        client::status(&daemon.addr, 1)?;
        idle_rtt_us.push(clock::secs_since(asked) * 1e6);
    }
    rec.exit(open);
    match verify_health(&daemon.addr, &s) {
        Ok((hits, misses)) => {
            tally.op(Ok(()));
            metrics.value(
                "jobserver.dedup_hit_share",
                hits as f64 / (hits + misses) as f64,
            );
        }
        Err(e) => {
            tally.op(Err(e));
        }
    }
    tally.op(daemon.shutdown());

    if let Some(doc) = &s.status_doc {
        let text = doc.encode();
        let open = rec.enter("jobserver.json_parse");
        let parse_us: Vec<f64> = (0..5)
            .map(|_| {
                let start = clock::now();
                for _ in 0..200 {
                    std::hint::black_box(Json::parse(std::hint::black_box(&text)).ok());
                }
                clock::secs_since(start) * 1e6 / 200.0
            })
            .collect();
        rec.exit(open);
        metrics.samples("jobserver.json_parse_us", &parse_us);
    }
    metrics.samples("jobserver.submit_rtt_us", &s.submit_rtt_us);
    metrics.samples("jobserver.status_idle_rtt_us", &idle_rtt_us);
    metrics.samples("jobserver.status_busy_rtt_us", &s.busy_status_rtt_us);
    metrics.samples("jobserver.queue_wait_ms", &s.queue_wait_ms);
    metrics.samples("jobserver.dup_p50_ms", &s.dup_ms);
    if let Some(p90) = stats::percentile(&s.dup_ms, 90.0) {
        metrics.value("jobserver.dup_p90_ms", p90);
    }
    Ok(())
}
