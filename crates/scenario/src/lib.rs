//! # scenario — declarative experiment specs and the `airfedga-run` driver
//!
//! Experiments are **data, not code**: a scenario file (a TOML subset, see
//! [`toml`]) names a workload, mechanisms, seeds and sweep axes, and one
//! driver executes it through the one replicate runner of the `experiments`
//! crate (`harness::run_mechanism_cells`). The pieces:
//!
//! * [`toml`] — the self-contained TOML-subset parser (no crates.io access,
//!   so hand-rolled like the `crates/compat` stand-ins), with line-numbered
//!   errors and hard duplicate-key rejection.
//! * [`registry`] — the string-keyed component catalogue (datasets, models,
//!   partitioners, heterogeneity, channel presets, mechanisms, workload
//!   presets) scenario files compose from.
//! * [`spec`] — the typed [`spec::ScenarioSpec`]: validation, defaulting,
//!   and the deterministic sweep-axis → grid-cell expansion.
//! * [`run`] — executing a spec of any kind through the shared figure/sweep
//!   drivers, and the CLI glue ([`CliOverrides::parse`]: `--seeds` /
//!   `--system-seeds` override the spec's keys; `--resume` / `--fresh`
//!   select the crash-safe run store). The [`ExecutionReport`] says what
//!   failed, what the store did, and how many replicates reused an identical
//!   one trained in the same run (a `grid`'s ξ-less mechanisms, repeated per
//!   ξ value).
//!
//! One binary: `airfedga-run <scenario.toml>` runs any spec file, and the
//! committed `scenarios/fig{3,4,5,6,8,9,9_cifar,10}.toml` are how the
//! paper's figures are run — there are no per-figure binaries.

#![warn(missing_docs)]

pub mod registry;
pub mod run;
pub mod spec;
pub mod toml;

pub use run::{CliOverrides, ExecutionReport, StoreMode};
pub use spec::{RunLimits, ScenarioKind, ScenarioSpec};

/// An error from parsing or validating a scenario, with the 1-based source
/// line when one is known.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioError {
    /// 1-based line in the scenario file, when attributable.
    pub line: Option<usize>,
    /// Human-readable description.
    pub msg: String,
}

impl ScenarioError {
    /// An error without a source line (registry lookups, cross-key checks).
    pub fn new(msg: String) -> Self {
        Self { line: None, msg }
    }

    /// An error at a specific source line.
    pub fn at(line: usize, msg: String) -> Self {
        Self {
            line: Some(line),
            msg,
        }
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for ScenarioError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_includes_the_line_when_known() {
        assert_eq!(
            ScenarioError::at(7, "boom".to_string()).to_string(),
            "line 7: boom"
        );
        assert_eq!(ScenarioError::new("boom".to_string()).to_string(), "boom");
    }
}
