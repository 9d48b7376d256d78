//! The program under test: building its release binaries, running one
//! `airfedga-run` invocation under measurement, and holding an
//! `airfedga-serve` daemon that is shut down on every exit path.

use crate::{clock, procfs};
use jobserver::client;
use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// How often the peak-memory poller reads `/proc/<pid>/status`.
const RSS_POLL: Duration = Duration::from_millis(5);
/// Longest the harness waits for a daemon to come up, finish a job or exit.
pub const DAEMON_TIMEOUT_S: f64 = 60.0;

/// Where the binaries live and how they are run.
#[derive(Debug, Clone)]
pub struct Program {
    pub run_bin: PathBuf,
    pub serve_bin: PathBuf,
    /// `PARALLEL_THREADS` of the program under test.
    pub threads: usize,
    /// `AIRFEDGA_SCALE=quick` (smoke mode only).
    pub quick: bool,
}

impl Program {
    /// Build `airfedga-run` and `airfedga-serve` in release mode from the
    /// workspace in the current directory and locate them. Compile time is
    /// no part of any metric.
    pub fn build(threads: usize, quick: bool) -> Result<Self, String> {
        if !Path::new("crates/scenario").is_dir() {
            return Err("run from the repository root (no crates/scenario here)".into());
        }
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let status = Command::new(cargo)
            .args(["build", "--release", "-p", "scenario", "-p", "jobserver"])
            .args(["--bin", "airfedga-run", "--bin", "airfedga-serve"])
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building the program under test failed: {status}"));
        }
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
        let release = Path::new(&target).join("release");
        let program = Self {
            run_bin: release.join("airfedga-run"),
            serve_bin: release.join("airfedga-serve"),
            threads,
            quick,
        };
        for bin in [&program.run_bin, &program.serve_bin] {
            if !bin.is_file() {
                return Err(format!("{} was not built", bin.display()));
            }
        }
        Ok(program)
    }

    fn command(&self, bin: &Path, threads: usize) -> Command {
        let mut cmd = Command::new(bin);
        cmd.env("PARALLEL_THREADS", threads.to_string())
            .env_remove("PARALLEL_CHUNKS")
            .env_remove("AIRFEDGA_SCALE")
            .stdin(Stdio::null());
        if self.quick {
            cmd.env("AIRFEDGA_SCALE", "quick");
        }
        cmd
    }

    /// One `airfedga-run` invocation, measured from outside: wall time
    /// around spawn..wait, CPU from this process's waited-children counters,
    /// peak memory polled from `/proc`. Output goes to files under `scratch`
    /// so that a full pipe can never stall the child.
    pub fn run(&self, args: &[&str], threads: usize, scratch: &Path) -> io::Result<Invocation> {
        let out_path = scratch.join("stdout.txt");
        let err_path = scratch.join("stderr.txt");
        let mut cmd = self.command(&self.run_bin, threads);
        cmd.args(args)
            .stdout(File::create(&out_path)?)
            .stderr(File::create(&err_path)?);
        let cpu_before = procfs::cpu_times("self").map_or(0.0, |c| c.children_s);
        let start = clock::now();
        let mut child = cmd.spawn()?;
        let pid = child.id();
        let done = AtomicBool::new(false);
        let (status, wall_s, peak_rss_mb) = std::thread::scope(|s| {
            let poller = s.spawn(|| {
                let mut peak = 0.0f64;
                while !done.load(Ordering::Relaxed) {
                    if let Some(mb) = procfs::vm_hwm_mb(pid) {
                        peak = peak.max(mb);
                    }
                    std::thread::park_timeout(RSS_POLL);
                }
                peak
            });
            let status = child.wait();
            let wall_s = clock::secs_since(start);
            done.store(true, Ordering::Relaxed);
            poller.thread().unpark();
            (status, wall_s, poller.join().unwrap_or(0.0))
        });
        let cpu_after = procfs::cpu_times("self").map_or(0.0, |c| c.children_s);
        let stderr = fs::read_to_string(&err_path)?;
        Ok(Invocation {
            wall_s,
            cpu_s: cpu_after - cpu_before,
            peak_rss_mb,
            ok: status?.success() && !stderr.contains("panicked"),
            stdout: fs::read_to_string(&out_path)?,
            stderr,
        })
    }

    /// Start `airfedga-serve --root <root>` on an OS-assigned port and wait
    /// for the first OK `health`.
    pub fn serve(&self, root: &Path) -> Result<Daemon, String> {
        fs::create_dir_all(root).map_err(|e| e.to_string())?;
        let log = |name: &str| File::create(root.join(name)).map_err(|e| e.to_string());
        let mut cmd = self.command(&self.serve_bin, self.threads);
        cmd.arg("--root")
            .arg(root)
            .stdout(log("daemon.stdout.txt")?)
            .stderr(log("daemon.stderr.txt")?);
        let start = clock::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        while clock::secs_since(start) < DAEMON_TIMEOUT_S {
            if let Ok(addr) = client::resolve_addr(None, root) {
                if client::healthz(&addr).is_ok() {
                    daemon.addr = addr;
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("the daemon exited at start-up: {status}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("the daemon did not answer `health` in time".into())
    }
}

/// What one `airfedga-run` invocation did.
#[derive(Debug, Clone)]
pub struct Invocation {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Exit code 0 and no "panicked" on stderr.
    pub ok: bool,
    pub stdout: String,
    pub stderr: String,
}

/// A running `airfedga-serve`. Dropping it kills the process, so no exit
/// path of the benchmark leaves a daemon behind.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// utime + stime of the daemon so far, in seconds.
    pub fn cpu_s(&self) -> f64 {
        procfs::cpu_times(&self.pid().to_string()).map_or(0.0, |c| c.own_s)
    }

    /// Ask the daemon to shut down and wait until it has exited.
    pub fn shutdown(mut self) -> Result<(), String> {
        client::shutdown(&self.addr)?;
        let start = clock::now();
        while clock::secs_since(start) < DAEMON_TIMEOUT_S {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("the daemon exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("the daemon did not exit after `shutdown`".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.child.kill().ok();
        }
        self.child.wait().ok();
    }
}
