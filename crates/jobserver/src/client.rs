//! Client-side RPC helpers (`airfedga-ctl`'s plumbing).
//!
//! Every helper performs one short-lived request against a daemon address
//! and maps protocol errors (non-2xx replies carry `{"error": "..."}`) into
//! `Err(String)` ready for the CLI to print.

use crate::http;
use crate::job::JobState;
use crate::json::Json;
use std::path::Path;

/// Resolve the daemon address: an explicit `--addr` wins, otherwise the
/// `<root>/serve.addr` file the daemon wrote at startup.
pub fn resolve_addr(explicit: Option<&str>, root: &Path) -> Result<String, String> {
    if let Some(addr) = explicit {
        return Ok(addr.to_string());
    }
    let path = root.join("serve.addr");
    match std::fs::read_to_string(&path) {
        Ok(addr) => Ok(addr.trim().to_string()),
        Err(e) => Err(format!(
            "no daemon address: pass --addr HOST:PORT or point --root at a \
             running daemon's root ({}: {e})",
            path.display()
        )),
    }
}

/// One round trip: the body of a 2xx reply; otherwise `Err` with the text of
/// the daemon's `{"error": "..."}` reply.
fn send(addr: &str, method: &str, path: &str, body: Option<&str>) -> Result<String, String> {
    let resp = http::request(addr, method, path, body)
        .map_err(|e| format!("cannot reach the daemon at {addr}: {e}"))?;
    if resp.is_ok() {
        return Ok(resp.body);
    }
    Err(Json::parse(&resp.body)
        .ok()
        .and_then(|j| j.get("error").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_else(|| "request refused".to_string()))
}

/// One JSON round trip; protocol-level errors become `Err`.
fn call(addr: &str, method: &str, path: &str, body: Option<&str>) -> Result<Json, String> {
    let body = send(addr, method, path, body)?;
    Json::parse(&body).map_err(|e| format!("malformed response from {addr}: {e}"))
}

/// Submit a spec; returns the assigned job id.
pub fn submit(addr: &str, name: &str, priority: i64, spec_text: &str) -> Result<u64, String> {
    let body = Json::obj(vec![
        ("name", Json::str(name)),
        ("priority", Json::Num(priority as f64)),
        ("spec", Json::str(spec_text)),
    ])
    .encode();
    call(addr, "POST", "/jobs", Some(&body))?
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| "daemon accepted the job but returned no id".to_string())
}

/// One job's status document.
pub fn status(addr: &str, id: u64) -> Result<Json, String> {
    call(addr, "GET", &format!("/jobs/{id}"), None)
}

/// All jobs.
pub fn list(addr: &str) -> Result<Json, String> {
    call(addr, "GET", "/jobs", None)
}

/// Daemon health + queue counters + dedup totals.
pub fn healthz(addr: &str) -> Result<Json, String> {
    call(addr, "GET", "/healthz", None)
}

/// Cancel a job; returns the state the daemon reported after the request
/// (`cancelled` for a queued job, `running` while a running job drains).
pub fn cancel(addr: &str, id: u64) -> Result<String, String> {
    call(addr, "POST", &format!("/jobs/{id}/cancel"), None)?
        .get("state")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| "daemon returned no state".to_string())
}

/// Names of a job's result files.
pub fn result_files(addr: &str, id: u64) -> Result<Vec<String>, String> {
    let doc = call(addr, "GET", &format!("/jobs/{id}/results"), None)?;
    match doc.get("files") {
        Some(Json::Arr(items)) => Ok(items
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect()),
        _ => Err("daemon returned no file list".to_string()),
    }
}

/// One result file's raw contents.
pub fn fetch_file(addr: &str, id: u64, name: &str) -> Result<String, String> {
    send(addr, "GET", &format!("/jobs/{id}/files/{name}"), None)
}

/// Ask the daemon to shut down after the current job.
pub fn shutdown(addr: &str) -> Result<(), String> {
    call(addr, "POST", "/shutdown", None).map(|_| ())
}

/// The job state out of a status document.
pub fn state_of(doc: &Json) -> Option<JobState> {
    doc.get("state")
        .and_then(Json::as_str)
        .and_then(JobState::parse)
}
