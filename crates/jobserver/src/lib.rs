//! # jobserver — a long-lived, deduplicating job service over `airfedga-run`
//!
//! The batch driver (`airfedga-run`) runs one scenario per process. This
//! crate turns it into a service: `airfedga-serve` is a daemon that accepts
//! scenario specs from multiple submitters, queues them crash-safely, and
//! executes them one at a time through the *same* driver path
//! (`scenario::run::execute`) — so a job's CSVs and runstore contents are
//! byte-identical to a batch run of the same spec
//! (`http_submit_execute_fetch_and_dedup_round_trip` compares them).
//! `airfedga-ctl` is the client.
//!
//! Design points, in the workspace's house style:
//!
//! * **No crates.io** — the wire protocol is hand-rolled HTTP/1.1 + JSON on
//!   a localhost `std::net::TcpListener` ([`http`], [`json`]), the same
//!   discipline as `crates/compat`.
//! * **Crash-safe queue** — every job persists under `<root>/jobs/<id>/`
//!   (`spec.toml` + a `meta` state file, both written by
//!   [`telemetry::write_atomic`], which leaves a file that already holds its
//!   bytes in place). A killed daemon reopens its root and
//!   resumes: jobs that were mid-run revert to the queue and re-execute
//!   against the shared runstore, where every replicate the previous
//!   incarnation completed is a cache hit.
//! * **Cross-job dedup** — all jobs run `--resume` against one shared store
//!   root (`<root>/runstore`, guarded by a `runstore::StoreLock`).
//!   Re-submitting an identical spec re-runs zero replicates; editing one
//!   cell of a grid re-runs only the changed cells. Per-job and
//!   daemon-lifetime hit totals are reported over the wire.
//! * **One job at a time** — a grid already saturates the machine through
//!   the deterministic `parallel` map; running jobs concurrently would only
//!   interleave their nondeterministic *completion* order. Priorities
//!   (higher first) with FIFO within a priority decide what runs next.
//! * **Cancellation** — a queued job is cancelled by a state flip; a running
//!   job is cancelled cooperatively via `simcore::cancel::cancel_all`, the
//!   process-wide flag every engine reads at round boundaries beside the
//!   watchdog's deadline.
//! * **Progress** — the daemon subscribes to `telemetry::progress` snapshots
//!   (the PR-9 reporter's new sink hook) and serves them per job, so
//!   `airfedga-ctl watch` streams live counts without scraping stderr.
//!
//! The daemon's own timing (poll loops, socket timeouts) reads wall clocks —
//! that is allowed here by design (the crate-level `expect` below): nothing
//! the daemon serves or stores feeds the bit-identity invariants, which are
//! carried entirely by the scenario driver underneath.

#![warn(missing_docs)]
#![expect(
    clippy::disallowed_methods,
    reason = "poll loops, socket timeouts and watch deadlines are wall-clock \
              plumbing around the deterministic driver, never inputs to it"
)]

pub mod client;
pub mod http;
pub mod job;
pub mod json;
pub mod queue;
pub mod server;

pub use job::{JobRecord, JobState};
pub use queue::JobQueue;
pub use server::{Server, ServerConfig};
