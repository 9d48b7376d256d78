//! # air-fedga — umbrella crate
//!
//! Re-exports the whole Air-FedGA reproduction workspace behind a single
//! dependency, so downstream users (and the `examples/` directory) can write
//! `use air_fedga::baselines::MechanismChoice;` without naming each internal
//! crate. See the individual crates for detailed documentation:
//!
//! * [`fedml`] — ML substrate (models, datasets, Non-IID partitioning, SGD).
//! * [`wireless`] — AirComp/OMA channel models, power control, energy.
//! * [`simcore`] — discrete-event simulation engine and trace recording.
//! * [`grouping`] — EMD, the grouping objective and Algorithm 3.
//! * [`airfedga`] — the Air-FedGA mechanism (Algorithm 1) and Theorem-1 bound.
//! * [`baselines`] — the mechanism table (FedAvg, TiFL, Air-FedAvg, Dynamic
//!   and Air-FedGA as grouping rule × aggregation back-end) and Dynamic's loop.
//! * [`faults`] — deterministic fault injection (churn, stragglers, outages).
//! * [`experiments`] — the shared figure/sweep drivers and replication stats.
//! * [`scenario`] — declarative scenario specs (TOML subset + component
//!   registry) behind the `airfedga-run` driver binary.

pub use airfedga;
pub use baselines;
pub use experiments;
pub use faults;
pub use fedml;
pub use grouping;
pub use scenario;
pub use simcore;
pub use wireless;

/// Workspace version string, shared by all member crates.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }
}
