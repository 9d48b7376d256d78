//! End-to-end service tests: wire round trips, service ≡ batch, queue/cancel
//! semantics over a live executor, the `airfedga-ctl` client against the real
//! daemon, and the kill-the-daemon crash-recovery story.
//!
//! The in-process tests share one executor-global surface (the progress
//! sink, the process-wide cancel flag), so they serialize on [`LOCK`]. The
//! tests that drive the real `airfedga-serve` binary in child processes need
//! no lock.

#![expect(
    clippy::disallowed_methods,
    reason = "polling a live daemon needs real deadlines"
)]

use experiments::Scale;
use jobserver::json::Json;
use jobserver::{client, http};
use jobserver::{JobState, Server, ServerConfig};
use scenario::{CliOverrides, ScenarioSpec, StoreMode};
use std::collections::BTreeMap;
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
        scale: Scale::Quick,
    })
    .unwrap()
}

/// Every file under `dir` whose name `keep` accepts (relative path → bytes).
fn files(dir: &Path, keep: fn(&str) -> bool) -> BTreeMap<String, Vec<u8>> {
    fn walk(dir: &Path, base: &Path, keep: fn(&str) -> bool, out: &mut BTreeMap<String, Vec<u8>>) {
        for path in fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
            if path.is_dir() {
                walk(&path, base, keep, out);
            } else if keep(&path.file_name().unwrap().to_string_lossy()) {
                let rel = path.strip_prefix(base).unwrap().to_string_lossy();
                out.insert(rel.into_owned(), fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, keep, &mut out);
    out
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

    // Service ≡ batch: the job's results and the shared store's replicate and
    // spec files are the bytes the batch driver's `--resume` writes for the
    // same spec into a root of its own.
    let batch = tmp_root("http_batch");
    let cli = CliOverrides {
        store: StoreMode::Resume,
        store_root: Some(batch.join("runstore")),
        results_dir: Some(batch.join("results")),
        ..CliOverrides::default()
    };
    let spec = ScenarioSpec::parse(TINY_SPEC).unwrap();
    assert!(scenario::run::execute(&spec, Scale::Quick, &cli)
        .unwrap()
        .is_clean());
    let job_results = root.join("jobs").join(id.to_string()).join("results");
    let all = |_: &str| true;
    let stored = |name: &str| name.ends_with(".run") || name == "spec.txt";
    assert_eq!(files(&job_results, all), files(&batch.join("results"), all));
    let store = files(&root.join("runstore"), stored);
    assert_eq!(store.len(), 9, "{:?}", store.keys());
    assert_eq!(store, files(&batch.join("runstore"), stored));
    fs::remove_dir_all(&batch).ok();

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
    fs::write(job_results.join("big.csv"), &big).unwrap();
    assert_eq!(client::fetch_file(&addr, id, "big.csv").unwrap(), big);
    fs::remove_file(job_results.join("big.csv")).unwrap();

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

/// Submit `TINY_SPEC` with each edit to a live daemon: every one must get a
/// 400 whose body names `key`, with nothing queued and nothing written
/// outside the daemon's root (`<root>/outside` is where an edit points).
fn assert_refused(tag: &str, key: &str, edits: fn(&Path) -> Vec<String>) {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let root = tmp_root(tag);
    let server = open(&root);
    let executor = server.start_executor();
    let addr = serve(&server);
    let outside = root.join("outside");
    for spec in edits(&outside) {
        let body = Json::obj(vec![("name", Json::str(tag)), ("spec", Json::str(&spec))]);
        let resp = http::request(&addr, "POST", "/jobs", Some(&body.encode())).unwrap();
        assert_eq!(resp.status, 400, "{spec}: {}", resp.body);
        assert!(resp.body.contains(key), "{spec}: {}", resp.body);
    }
    assert!(server.list().is_empty());
    assert!(!outside.exists() && !root.join("jobs").join("x_grid.csv").exists());
    client::shutdown(&addr).unwrap();
    poke(&addr);
    executor.join().unwrap();
    fs::remove_dir_all(&root).ok();
}

/// A job writes its CSVs into its own `jobs/<id>/results/`: a CSV prefix
/// that is a path (absolute, or climbing out with `..`) would put them
/// anywhere, so the spec is refused at the door.
#[test]
fn a_csv_prefix_path_gets_a_400_and_nothing_is_written() {
    assert_refused("escape_csv", "csv_prefix", |outside| {
        let line = "csv_prefix = \"jobsvc_tiny\"\n";
        let prefix = |p: &str| TINY_SPEC.replace(line, &format!("csv_prefix = {p:?}\n"));
        vec![
            prefix(&outside.join("x").to_string_lossy()),
            prefix("../../x"),
        ]
    });
}

/// A `[telemetry]` table would have the daemon create a directory of the
/// submitter's choosing and switch the process-wide telemetry on for the
/// job, so any spec that sets one is refused at the door.
#[test]
fn a_telemetry_table_gets_a_400_and_nothing_is_written() {
    assert_refused("escape_telemetry", "[telemetry]", |outside| {
        let dir = format!("[telemetry]\ndir = {:?}\n", outside.to_string_lossy());
        let progress = "[telemetry]\nprogress = \"off\"\n";
        vec![
            format!("{TINY_SPEC}{dir}"),
            format!("{TINY_SPEC}{progress}"),
        ]
    });
}

/// A `name` that is not a string or a `priority` that is not an integer is
/// refused with a 400 naming the field, and nothing is queued; only an
/// absent key takes its default (`"unnamed"`, 0).
#[test]
fn a_malformed_name_or_priority_gets_a_400_and_nothing_is_queued() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let root = tmp_root("bad_fields");
    let server = open(&root); // no executor: a queued job stays queued
    let addr = serve(&server);
    let submit = |field: Option<(&str, Json)>| {
        let mut pairs = vec![("spec", Json::str(TINY_SPEC))];
        pairs.extend(field);
        let body = Json::obj(pairs).encode();
        http::request(&addr, "POST", "/jobs", Some(&body)).unwrap()
    };
    for (key, value, error) in [
        (
            "priority",
            Json::str("9"),
            r#"\"priority\" must be an integer"#,
        ),
        (
            "priority",
            Json::Num(1.5),
            r#"\"priority\" must be an integer"#,
        ),
        ("name", Json::num(7), r#"\"name\" must be a string"#),
    ] {
        let shown = value.encode();
        let resp = submit(Some((key, value)));
        assert_eq!(resp.status, 400, "{key} = {shown}: {}", resp.body);
        assert!(resp.body.contains(error), "{key} = {shown}: {}", resp.body);
    }
    assert!(server.list().is_empty());
    let resp = submit(None);
    assert_eq!(resp.status, 200, "{}", resp.body);
    let jobs = server.list();
    assert_eq!(jobs.len(), 1);
    assert_eq!((jobs[0].name.as_str(), jobs[0].priority), ("unnamed", 0));
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
// The real daemon binary: the ctl client, and SIGKILL mid-job.
// ----------------------------------------------------------------------

/// A running `airfedga-serve`, killed and reaped on drop, so a test that
/// fails before `shutdown` leaves no daemon behind.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

fn spawn_daemon(root: &Path) -> Daemon {
    let child = std::process::Command::new(env!("CARGO_BIN_EXE_airfedga-serve"))
        .args(["--root", root.to_str().unwrap()])
        .env("AIRFEDGA_SCALE", "quick")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    Daemon(child)
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

/// `airfedga-ctl` against the real daemon, found through `<root>/serve.addr`:
/// `health`; `submit`, `watch` (exit 0), `status` and `results` of a job that
/// finishes; `cancel` of a job queued behind a hanging one, whose `watch`
/// exits 3; and `shutdown`, after which the daemon exits and its address file
/// is gone.
#[test]
fn the_ctl_client_drives_the_daemon_through_a_job_s_life() {
    let root = tmp_root("ctl");
    fs::create_dir_all(&root).unwrap();
    let mut daemon = spawn_daemon(&root);
    wait_addr(&root);
    let ctl = |args: &[&str]| -> (Option<i32>, String) {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_airfedga-ctl"))
            .arg("--root")
            .arg(&root)
            .args(args)
            .output()
            .unwrap();
        let stdout = String::from_utf8(out.stdout).unwrap();
        (out.status.code(), stdout)
    };
    let submit = |name: &str, spec: &str| -> String {
        let path = root.join(format!("{name}.toml"));
        fs::write(&path, spec).unwrap();
        let (code, id) = ctl(&["submit", path.to_str().unwrap()]);
        assert_eq!(code, Some(0), "submit {name}");
        id.trim().to_string()
    };

    let (code, health) = ctl(&["health"]);
    assert_eq!(code, Some(0));
    assert!(health.starts_with("daemon ok: "), "{health}");

    let tiny = submit("tiny", TINY_SPEC);
    assert_eq!(ctl(&["watch", &tiny]).0, Some(0));
    let (code, status) = ctl(&["status", &tiny]);
    assert_eq!(code, Some(0));
    assert!(status.contains(": done"), "{status}");
    let (code, results) = ctl(&["results", &tiny]);
    assert_eq!(code, Some(0));
    assert!(
        results.lines().any(|f| f == "jobsvc_tiny_grid.csv"),
        "{results}"
    );

    // The executor runs one job at a time: behind the hanging cell, the next
    // job waits in the queue.
    let hang = submit("hang", HANG_SPEC);
    let queued = submit("queued", TINY_SPEC);
    assert_eq!(ctl(&["cancel", &queued]).0, Some(0));
    let (code, watched) = ctl(&["watch", &queued]);
    assert_eq!(code, Some(3));
    assert!(watched.contains("| cancelled while queued"), "{watched}");
    assert_eq!(ctl(&["cancel", &hang]).0, Some(0));
    assert_eq!(ctl(&["watch", &hang]).0, Some(3));

    assert_eq!(ctl(&["shutdown"]).0, Some(0));
    assert!(daemon.0.wait().unwrap().success());
    assert!(
        !root.join("serve.addr").exists(),
        "serve.addr outlived the daemon"
    );
    fs::remove_dir_all(&root).ok();
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
    first.0.kill().unwrap();
    first.0.wait().unwrap(); // reap: frees the store lock's stale-pid check
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
    second.0.wait().unwrap();
    fs::remove_dir_all(&root).ok();
}
