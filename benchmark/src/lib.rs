//! The repo benchmark: four workloads over the real `airfedga-run` and
//! `airfedga-serve` binaries, six end-to-end metrics measured with tracing
//! off, and one table of per-crate layer metrics from a traced pass. See
//! `README.md` for the glossary and `../BENCHMARK.json` for the contract.

#![forbid(unsafe_code)]

pub mod clock;
pub mod layers;
pub mod metrics;
pub mod probe;
pub mod procfs;
pub mod program;
pub mod result;
pub mod service;
pub mod spans;
pub mod specs;
pub mod stats;
pub mod workloads;

/// Time box of one run's measured loop when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// `PARALLEL_THREADS` of the program under test: the host's two cores.
pub const THREADS: usize = 2;
