//! Experiment scale selection.
//!
//! The paper's experiments use 100 workers and thousands of seconds of
//! virtual training. Re-running everything at that scale takes minutes per
//! figure on a laptop; CI and the test suites need seconds. The
//! `AIRFEDGA_SCALE` environment variable switches between the two without
//! touching the experiment code: `full` (default for the binaries) or
//! `quick`. (Replication — `--seeds N`, `--system-seeds` — is parsed by the
//! `scenario` crate's `CliOverrides::parse`, the one place that reads the
//! command line.)

use airfedga::system::FlSystemConfig;

/// How big an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-like scale: 100 workers, hundreds of rounds.
    Full,
    /// Smoke-test scale: tens of workers, tens of rounds.
    Quick,
}

impl Scale {
    /// Read the scale from the `AIRFEDGA_SCALE` environment variable
    /// (`"quick"` selects [`Scale::Quick`]; anything else, or unset, selects
    /// [`Scale::Full`]).
    pub fn from_env() -> Self {
        match std::env::var("AIRFEDGA_SCALE") {
            Ok(v) if v.eq_ignore_ascii_case("quick") => Scale::Quick,
            _ => Scale::Full,
        }
    }

    /// Number of workers for standard comparisons.
    pub fn num_workers(self) -> usize {
        match self {
            Scale::Full => 100,
            Scale::Quick => 20,
        }
    }

    /// Number of global rounds for standard comparisons.
    pub fn total_rounds(self) -> usize {
        match self {
            Scale::Full => 400,
            Scale::Quick => 60,
        }
    }

    /// Evaluation cadence (rounds between test-set evaluations).
    pub fn eval_every(self) -> usize {
        match self {
            Scale::Full => 10,
            Scale::Quick => 5,
        }
    }

    /// Adapt a workload preset to this scale (worker count and, at quick
    /// scale, smaller shards).
    pub fn apply(self, mut cfg: FlSystemConfig) -> FlSystemConfig {
        cfg.num_workers = self.num_workers();
        if self == Scale::Quick {
            cfg.dataset.samples_per_class = (cfg.dataset.samples_per_class / 3).max(20);
            cfg.test_per_class = (cfg.test_per_class / 2).max(5);
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_shrinks_the_system() {
        let full = Scale::Full.apply(FlSystemConfig::mnist_lr());
        let quick = Scale::Quick.apply(FlSystemConfig::mnist_lr());
        assert_eq!(full.num_workers, 100);
        assert_eq!(quick.num_workers, 20);
        assert!(quick.dataset.samples_per_class < full.dataset.samples_per_class);
        assert!(Scale::Quick.total_rounds() < Scale::Full.total_rounds());
    }

    #[test]
    fn env_parsing_defaults_to_full() {
        // Cannot mutate the environment safely in parallel tests, so only
        // check the default path plus the accessors.
        assert!(Scale::Full.num_workers() >= Scale::Quick.num_workers());
        assert!(Scale::Full.eval_every() >= Scale::Quick.eval_every());
    }
}
