//! `airfedga-ctl` — client for the scenario job daemon.
//!
//! ```text
//! airfedga-ctl [--root DIR] [--addr HOST:PORT] <command> [args]
//! ```
//!
//! The daemon address comes from `--addr`, or from `<root>/serve.addr`
//! (default root `.`) — the file `airfedga-serve` writes at startup.

use jobserver::client;
use jobserver::json::Json;
use jobserver::JobState;
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

const USAGE: &str = "usage: airfedga-ctl [--root DIR] [--addr HOST:PORT] <command> [args]\n\
                     commands:\n\
                     \u{20} submit <spec.toml> [--name NAME] [--priority N]  queue a scenario, print its id\n\
                     \u{20} status <id>                                      one job's state + progress\n\
                     \u{20} watch <id>                                       poll until the job finishes\n\
                     \u{20} results <id> [--out DIR]                         list result files (or download)\n\
                     \u{20} cancel <id>                                      cancel a queued or running job\n\
                     \u{20} list                                             all jobs\n\
                     \u{20} health                                           daemon + dedup counters\n\
                     \u{20} shutdown                                         stop the daemon\n\
                     exit status: 0 ok (watch: job done); 1 errors (watch: job failed);\n\
                     \u{20}            2 usage or connection errors; 3 watch: job cancelled";

const EXIT_OK: i32 = 0;
const EXIT_FAILED: i32 = 1;
const EXIT_USAGE: i32 = 2;
const EXIT_CANCELLED: i32 = 3;

/// `watch` poll cadence.
const WATCH_POLL: Duration = Duration::from_millis(200);

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut addr_flag: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(EXIT_OK);
            }
            "--root" => match it.next() {
                Some(v) => root = PathBuf::from(v),
                None => usage_error("--root requires a directory"),
            },
            "--addr" => match it.next() {
                Some(v) => addr_flag = Some(v),
                None => usage_error("--addr requires HOST:PORT"),
            },
            other => {
                if let Some(v) = other.strip_prefix("--root=") {
                    root = PathBuf::from(v);
                } else if let Some(v) = other.strip_prefix("--addr=") {
                    addr_flag = Some(v.to_string());
                } else {
                    rest.push(other.to_string());
                }
            }
        }
    }
    let Some(command) = rest.first().cloned() else {
        usage_error("missing command");
    };
    let addr = match client::resolve_addr(addr_flag.as_deref(), &root) {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("airfedga-ctl: {e}");
            exit(EXIT_USAGE);
        }
    };
    let args = &rest[1..];
    let outcome = match command.as_str() {
        "submit" => cmd_submit(&addr, args),
        "status" => cmd_status(&addr, args),
        "watch" => cmd_watch(&addr, args),
        "results" => cmd_results(&addr, args),
        "cancel" => cmd_cancel(&addr, args),
        "list" => cmd_list(&addr, args),
        "health" => cmd_health(&addr, args),
        "shutdown" => cmd_shutdown(&addr, args),
        other => usage_error(&format!("unknown command {other:?}")),
    };
    match outcome {
        Ok(code) => exit(code),
        Err(e) => {
            eprintln!("airfedga-ctl: {e}");
            exit(EXIT_USAGE);
        }
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("airfedga-ctl: {msg}\n{USAGE}");
    exit(EXIT_USAGE);
}

fn parse_id(args: &[String]) -> Result<u64, String> {
    args.first()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "expected a numeric job id".to_string())
}

fn cmd_submit(addr: &str, args: &[String]) -> Result<i32, String> {
    let Some(spec_path) = args.first() else {
        return Err("submit requires a spec file".to_string());
    };
    let mut name = PathBuf::from(spec_path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("unnamed")
        .to_string();
    let mut priority = 0i64;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--name" => {
                name = it.next().ok_or("--name requires a value")?.clone();
            }
            "--priority" => {
                priority = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--priority requires an integer")?;
            }
            other => return Err(format!("unknown submit argument {other:?}")),
        }
    }
    let spec_text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let id = client::submit(addr, &name, priority, &spec_text)?;
    println!("{id}");
    Ok(EXIT_OK)
}

fn cmd_status(addr: &str, args: &[String]) -> Result<i32, String> {
    let id = parse_id(args)?;
    let doc = client::status(addr, id)?;
    print!("{}", render_status(&doc));
    Ok(EXIT_OK)
}

fn cmd_watch(addr: &str, args: &[String]) -> Result<i32, String> {
    let id = parse_id(args)?;
    let mut last_line = String::new();
    loop {
        let doc = client::status(addr, id)?;
        let state = client::state_of(&doc).ok_or("daemon returned no job state")?;
        let line = progress_line(id, &doc, state);
        if line != last_line {
            eprintln!("{line}");
            last_line = line;
        }
        if state.is_terminal() {
            print!("{}", render_status(&doc));
            return Ok(match state {
                JobState::Done => EXIT_OK,
                JobState::Cancelled => EXIT_CANCELLED,
                _ => EXIT_FAILED,
            });
        }
        std::thread::sleep(WATCH_POLL);
    }
}

fn cmd_results(addr: &str, args: &[String]) -> Result<i32, String> {
    let id = parse_id(args)?;
    let mut out_dir: Option<PathBuf> = None;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out_dir = Some(PathBuf::from(
                    it.next().ok_or("--out requires a directory")?,
                ))
            }
            other => return Err(format!("unknown results argument {other:?}")),
        }
    }
    let files = client::result_files(addr, id)?;
    match out_dir {
        None => {
            for f in &files {
                println!("{f}");
            }
        }
        Some(dir) => {
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            for f in &files {
                let body = client::fetch_file(addr, id, f)?;
                let dest = dir.join(f);
                telemetry::write_atomic(&dest, body.as_bytes())
                    .map_err(|e| format!("cannot write {}: {e}", dest.display()))?;
                println!("{}", dest.display());
            }
        }
    }
    Ok(EXIT_OK)
}

fn cmd_cancel(addr: &str, args: &[String]) -> Result<i32, String> {
    let id = parse_id(args)?;
    let state = client::cancel(addr, id)?;
    println!("{state}");
    Ok(EXIT_OK)
}

fn cmd_list(addr: &str, args: &[String]) -> Result<i32, String> {
    if !args.is_empty() {
        return Err("list takes no arguments".to_string());
    }
    let doc = client::list(addr)?;
    let Some(Json::Arr(jobs)) = doc.get("jobs") else {
        return Err("daemon returned no job list".to_string());
    };
    println!("{:>4}  {:<9}  {:>8}  name", "id", "state", "priority");
    for job in jobs {
        println!(
            "{:>4}  {:<9}  {:>8}  {}",
            job.get("id").and_then(Json::as_u64).unwrap_or(0),
            job.get("state").and_then(Json::as_str).unwrap_or("?"),
            job.get("priority").and_then(Json::as_i64).unwrap_or(0),
            job.get("name").and_then(Json::as_str).unwrap_or("?"),
        );
    }
    Ok(EXIT_OK)
}

fn cmd_health(addr: &str, args: &[String]) -> Result<i32, String> {
    if !args.is_empty() {
        return Err("health takes no arguments".to_string());
    }
    let doc = client::healthz(addr)?;
    println!(
        "daemon ok: {} job(s), {} queued, {} running",
        doc.get("jobs").and_then(Json::as_u64).unwrap_or(0),
        doc.get("queued").and_then(Json::as_u64).unwrap_or(0),
        doc.get("running").and_then(Json::as_u64).unwrap_or(0),
    );
    if let Some(totals) = doc.get("store_totals") {
        println!("store totals: {}", render_cache(totals));
    }
    Ok(EXIT_OK)
}

fn cmd_shutdown(addr: &str, args: &[String]) -> Result<i32, String> {
    if !args.is_empty() {
        return Err("shutdown takes no arguments".to_string());
    }
    client::shutdown(addr)?;
    println!("shutdown requested");
    Ok(EXIT_OK)
}

/// One-line live progress (watch output, stderr).
fn progress_line(id: u64, doc: &Json, state: JobState) -> String {
    let mut line = format!("job {id} [{}]", state.as_str());
    if let Some(p) = doc.get("progress").filter(|p| **p != Json::Null) {
        let done = p.get("done").and_then(Json::as_u64).unwrap_or(0);
        let cached = p.get("cached").and_then(Json::as_u64).unwrap_or(0);
        let failed = p.get("failed").and_then(Json::as_u64).unwrap_or(0);
        let total = p.get("total").and_then(Json::as_u64).unwrap_or(0);
        line.push_str(&format!(
            " {}/{total} done, {cached} cached, {failed} failed",
            done + cached
        ));
    }
    line
}

/// Full human-readable status block (status / watch final output, stdout).
fn render_status(doc: &Json) -> String {
    let mut out = String::new();
    let id = doc.get("id").and_then(Json::as_u64).unwrap_or(0);
    let name = doc.get("name").and_then(Json::as_str).unwrap_or("?");
    let state = doc.get("state").and_then(Json::as_str).unwrap_or("?");
    out.push_str(&format!("job {id} ({name}): {state}\n"));
    let priority = doc.get("priority").and_then(Json::as_i64).unwrap_or(0);
    let requeues = doc.get("requeues").and_then(Json::as_u64).unwrap_or(0);
    out.push_str(&format!("  priority {priority}, requeues {requeues}\n"));
    if let Some(cache) = doc.get("cache").filter(|c| **c != Json::Null) {
        out.push_str(&format!("  store: {}\n", render_cache(cache)));
    }
    let unrecovered = doc.get("unrecovered").and_then(Json::as_u64).unwrap_or(0);
    if unrecovered > 0 {
        out.push_str(&format!("  unrecovered failures: {unrecovered}\n"));
    }
    if let Some(error) = doc.get("error").and_then(Json::as_str) {
        for line in error.lines() {
            out.push_str(&format!("  | {line}\n"));
        }
    }
    out
}

fn render_cache(cache: &Json) -> String {
    format!(
        "{} hit(s), {} miss(es), {} corrupt",
        cache.get("hits").and_then(Json::as_u64).unwrap_or(0),
        cache.get("misses").and_then(Json::as_u64).unwrap_or(0),
        cache.get("corrupt").and_then(Json::as_u64).unwrap_or(0),
    )
}
