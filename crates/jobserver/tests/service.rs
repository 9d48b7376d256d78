//! End-to-end service tests: wire round trips, queue/cancel semantics over a
//! live executor, and the kill-the-daemon crash-recovery story.
//!
//! The in-process tests share one executor-global surface (the progress
//! sink, the process-wide cancel flag), so they serialize on [`LOCK`]. The kill/restart test drives the real
//! `airfedga-serve` binary in child processes and needs no lock.

#![expect(
    clippy::disallowed_methods,
    reason = "polling a live daemon needs real deadlines"
)]

use jobserver::json::Json;
use jobserver::{client, http};
use jobserver::{JobState, Server, ServerConfig};
use std::fs;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the in-process tests (executor globals; see module docs).
static LOCK: Mutex<()> = Mutex::new(());

/// A small, fast grid: 2 mechanisms × 2 ξ × 2 seeds = 8 replicates.
const TINY_SPEC: &str = r#"
[scenario]
name = "jobsvc_tiny"
kind = "grid"
title = "job service tiny grid"
csv_prefix = "jobsvc_tiny"

[system]
workload = "mnist_lr_quick"

[run]
mechanisms = ["air-fedavg", "air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2
seeds = 2

[sweep]
xi = [0.3, 1.0]
"#;

/// A single cell that hangs at round 2 under a generous watchdog: the only
/// way it ends quickly is a cooperative cancel.
const HANG_SPEC: &str = r#"
[scenario]
name = "jobsvc_hang"
kind = "grid"
title = "job service hang cell"

[system]
workload = "mnist_lr_quick"

[faults]
inject_hang_round = 2

[run]
mechanisms = ["air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2

[sweep]
xi = [1.0]

[limits]
cell_timeout_secs = 120
max_retries = 0
"#;

/// Big enough that a daemon killed right after the first persisted replicate
/// is reliably mid-job (2 mechanisms × 2 ξ × 3 seeds = 12 replicates of 60
/// rounds each), small enough to finish promptly after the restart.
const SLOW_SPEC: &str = r#"
[scenario]
name = "jobsvc_slow"
kind = "grid"
title = "job service kill-restart grid"
csv_prefix = "jobsvc_slow"

[system]
workload = "mnist_lr_quick"

[run]
mechanisms = ["air-fedavg", "air-fedga"]
accuracy_targets = [0.5]
rounds = 60
eval_every = 30
seeds = 3

[sweep]
xi = [0.5, 1.0]
"#;

fn tmp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("jobserver_svc_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

fn open(root: &Path) -> Server {
    Server::open(ServerConfig {
        root: root.to_path_buf(),
        scale: experiments::Scale::Quick,
    })
    .unwrap()
}

/// Bind a loopback listener and serve it on a thread; returns the address.
fn serve(server: &Server) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = server.clone();
    std::thread::spawn(move || server.serve_http(listener));
    addr
}

/// Unblock a `serve_http` accept loop after `request_shutdown`.
fn poke(addr: &str) {
    client::healthz(addr).ok();
}

#[test]
fn http_submit_execute_fetch_and_dedup_round_trip() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let root = tmp_root("http");
    let server = open(&root);
    let executor = server.start_executor();
    let addr = serve(&server);

    assert!(client::healthz(&addr).is_ok());
    // A spec that does not parse is refused at the door, and the refusal
    // names the offending line and key.
    let refused = client::submit(&addr, "broken", 0, "[scenario]\nname = 3\n")
        .expect_err("daemon accepted a broken spec");
    assert!(
        refused.contains("line 2") && refused.contains("`scenario.name`"),
        "refusal was: {refused}"
    );

    let id = client::submit(&addr, "tiny", 0, TINY_SPEC).unwrap();
    assert_eq!(
        server.wait_terminal(id, Duration::from_secs(120)),
        Some(JobState::Done)
    );
    let doc = client::status(&addr, id).unwrap();
    assert_eq!(client::state_of(&doc), Some(JobState::Done));
    let cache = doc.get("cache").expect("done job reports cache stats");
    let misses = cache
        .get("misses")
        .and_then(jobserver::json::Json::as_u64)
        .unwrap();
    assert!(misses > 0, "first run must compute replicates");
    // Air-FedAvg reads no xi: per seed its xi=1.0 cell reuses the xi=0.3
    // training, and the job's report says so as `airfedga-run` would.
    let harness_lines = |id: u64| -> Vec<String> {
        let report = root.join("jobs").join(id.to_string()).join("report.txt");
        let report = fs::read_to_string(report).unwrap();
        let lines = report.lines().filter(|l| l.starts_with("harness: "));
        lines.map(str::to_string).collect()
    };
    assert_eq!(
        harness_lines(id),
        ["harness: 2 of 8 replicate(s) reused an identical replicate computed in this run"]
    );

    // The job's CSVs are in its own results store and fetchable.
    let files = client::result_files(&addr, id).unwrap();
    assert!(
        files.iter().any(|f| f == "jobsvc_tiny_grid.csv"),
        "missing grid CSV in {files:?}"
    );
    let csv = client::fetch_file(&addr, id, "jobsvc_tiny_grid.csv").unwrap();
    assert!(csv.contains("mechanism"), "csv was: {csv}");
    // A result file past the 1 MiB request cap still downloads whole:
    // responses are not capped.
    let big: String = csv
        .lines()
        .cycle()
        .take(200_000)
        .collect::<Vec<_>>()
        .join("\n");
    assert!(big.len() > 1 << 20);
    let results = root.join("jobs").join(id.to_string()).join("results");
    fs::write(results.join("big.csv"), &big).unwrap();
    assert_eq!(client::fetch_file(&addr, id, "big.csv").unwrap(), big);
    fs::remove_file(results.join("big.csv")).unwrap();

    // Duplicate submission: identical spec, zero recomputation.
    let dup = client::submit(&addr, "tiny-again", 0, TINY_SPEC).unwrap();
    assert_ne!(dup, id);
    assert_eq!(
        server.wait_terminal(dup, Duration::from_secs(120)),
        Some(JobState::Done)
    );
    let dup_cache = server.status(dup).unwrap().0.cache.unwrap();
    assert!(
        dup_cache.all_hits(),
        "duplicate submission recomputed: {}",
        dup_cache.summary()
    );
    // All hits: nothing ran, so nothing was shared or copied.
    assert!(harness_lines(dup).is_empty(), "{:?}", harness_lines(dup));
    // The duplicate's CSV is byte-identical to the first job's.
    let dup_csv = client::fetch_file(&addr, dup, "jobsvc_tiny_grid.csv").unwrap();
    assert_eq!(csv, dup_csv);

    // Daemon-lifetime totals saw both jobs.
    let totals = server.totals();
    assert!(totals.hits >= dup_cache.hits && totals.misses >= misses);

    // Unknown ids are 404s, not panics.
    assert!(client::status(&addr, 999).is_err());
    assert!(client::cancel(&addr, 999).is_err());

    client::shutdown(&addr).unwrap();
    poke(&addr);
    executor.join().unwrap();
    fs::remove_dir_all(&root).ok();
}

/// A JSON body of 100,000 `[`, and a valid body whose spec is `name = `
/// followed by 100,000 `[`: each decoder refuses the nesting instead of
/// recursing off the end of the stack, the request gets a 400, and the
/// daemon goes on serving.
#[test]
fn deeply_nested_bodies_get_a_400_and_the_daemon_keeps_serving() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let root = tmp_root("nesting");
    let server = open(&root);
    let addr = serve(&server);
    let deep = "[".repeat(100_000);
    let deep_spec = Json::obj(vec![
        ("name", Json::str("deep")),
        ("spec", Json::str(format!("name = {deep}"))),
    ])
    .encode();
    for body in [&deep, &deep_spec] {
        let resp = http::request(&addr, "POST", "/jobs", Some(body)).unwrap();
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("nested deeper"), "{}", resp.body);
    }
    let health = http::request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    assert!(server.list().is_empty());
    server.request_shutdown();
    poke(&addr);
    fs::remove_dir_all(&root).ok();
}

#[test]
fn cancel_while_queued_flips_the_state_without_running() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let root = tmp_root("cancel_queued");
    let server = open(&root); // no executor: jobs stay queued
    let id = server.submit("parked", 0, TINY_SPEC).unwrap();
    assert_eq!(server.cancel(id), Some(JobState::Cancelled));
    let (rec, _) = server.status(id).unwrap();
    assert_eq!(rec.state, JobState::Cancelled);
    assert_eq!(rec.error.as_deref(), Some("cancelled while queued"));
    assert!(rec.cache.is_none(), "a cancelled-queued job never ran");
    // Idempotent: cancelling again reports the terminal state.
    assert_eq!(server.cancel(id), Some(JobState::Cancelled));
    // A fresh executor has nothing to do — the cancelled job stays put.
    let reopened = JobStateProbe::reopen(&root, id);
    assert_eq!(reopened, JobState::Cancelled);
    fs::remove_dir_all(&root).ok();
}

/// Reopen the persisted queue and read one job's state (crash-safety probe).
struct JobStateProbe;
impl JobStateProbe {
    fn reopen(root: &Path, id: u64) -> JobState {
        jobserver::JobQueue::open(root)
            .unwrap()
            .get(id)
            .unwrap()
            .state
    }
}

#[test]
fn cancel_while_running_drains_cooperatively() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let root = tmp_root("cancel_running");
    let server = open(&root);
    let executor = server.start_executor();
    let id = server.submit("hang", 0, HANG_SPEC).unwrap();

    // Wait until the job is actually running, then cancel it. The hanging
    // cell can only end this fast through the cooperative cancel-all path
    // (its watchdog is 120 s; the hang polls the cancel checkpoint).
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.status(id).unwrap().0.state != JobState::Running {
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.cancel(id);
    let state = server.wait_terminal(id, Duration::from_secs(60));
    assert_eq!(state, Some(JobState::Cancelled));
    let (rec, _) = server.status(id).unwrap();
    assert!(
        rec.error.as_deref().unwrap_or("").contains("cancelled"),
        "error was: {:?}",
        rec.error
    );

    // The daemon survives and runs the next job normally.
    let next = server.submit("after", 0, TINY_SPEC).unwrap();
    assert_eq!(
        server.wait_terminal(next, Duration::from_secs(120)),
        Some(JobState::Done)
    );
    server.request_shutdown();
    executor.join().unwrap();
    fs::remove_dir_all(&root).ok();
}

// ----------------------------------------------------------------------
// Kill/restart: the real daemon binary, SIGKILLed mid-job.
// ----------------------------------------------------------------------

fn spawn_daemon(root: &Path) -> std::process::Child {
    std::process::Command::new(env!("CARGO_BIN_EXE_airfedga-serve"))
        .args(["--root", root.to_str().unwrap()])
        .env("AIRFEDGA_SCALE", "quick")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap()
}

/// A misspelt `AIRFEDGA_SCALE` stops the daemon at startup (it used to serve
/// every job at paper scale): exit 2, the two values on stderr, no root.
#[test]
fn daemon_rejects_an_unrecognised_scale() {
    let root = tmp_root("badscale");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_airfedga-serve"))
        .args(["--root", root.to_str().unwrap()])
        .env("AIRFEDGA_SCALE", "quik")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("airfedga-serve: AIRFEDGA_SCALE must be `full` or `quick`"),
        "{stderr}"
    );
    assert!(!root.exists(), "the daemon opened its root");
}

fn wait_addr(root: &Path) -> String {
    let path = root.join("serve.addr");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(addr) = fs::read_to_string(&path) {
            return addr.trim().to_string();
        }
        assert!(Instant::now() < deadline, "daemon never wrote serve.addr");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Completed replicates persisted under `<root>/runstore` so far.
fn run_files(root: &Path) -> usize {
    let store = root.join("runstore");
    let Ok(specs) = fs::read_dir(&store) else {
        return 0;
    };
    specs
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .flat_map(|e| fs::read_dir(e.path()).into_iter().flatten())
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "run"))
        .count()
}

#[test]
fn killed_daemon_requeues_and_resumes_from_the_runstore() {
    let root = tmp_root("kill");
    fs::create_dir_all(&root).unwrap();
    let mut first = spawn_daemon(&root);
    let addr = wait_addr(&root);
    let id = client::submit(&addr, "slow", 0, SLOW_SPEC).unwrap();

    // Kill the daemon as soon as the first replicates are durably stored —
    // mid-job by construction (the grid is 48 replicates).
    let deadline = Instant::now() + Duration::from_secs(120);
    while run_files(&root) == 0 {
        assert!(Instant::now() < deadline, "no replicate was ever persisted");
        std::thread::sleep(Duration::from_millis(5));
    }
    first.kill().unwrap();
    first.wait().unwrap(); // reap: frees the store lock's stale-pid check
    let survivors = run_files(&root);
    assert!(survivors >= 1);

    // Restart over the same root: the job reverts to queued (requeues = 1)
    // and finishes, replaying every survivor from the store.
    fs::remove_file(root.join("serve.addr")).ok();
    let mut second = spawn_daemon(&root);
    let addr = wait_addr(&root);
    let deadline = Instant::now() + Duration::from_secs(300);
    let doc = loop {
        let doc = client::status(&addr, id).unwrap();
        if client::state_of(&doc).is_some_and(JobState::is_terminal) {
            break doc;
        }
        assert!(Instant::now() < deadline, "resumed job never finished");
        std::thread::sleep(Duration::from_millis(50));
    };
    use jobserver::json::Json;
    assert_eq!(
        client::state_of(&doc),
        Some(JobState::Done),
        "doc: {}",
        doc.encode()
    );
    assert!(
        doc.get("requeues").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "restart did not requeue: {}",
        doc.encode()
    );
    let cache = doc.get("cache").expect("resumed job reports cache stats");
    let hits = cache.get("hits").and_then(Json::as_u64).unwrap_or(0);
    assert!(
        hits as usize >= survivors,
        "expected >= {survivors} cache hits, got {}",
        cache.encode()
    );

    client::shutdown(&addr).unwrap();
    second.wait().unwrap();
    fs::remove_dir_all(&root).ok();
}
