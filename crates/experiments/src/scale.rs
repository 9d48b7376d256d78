//! Experiment scale selection.
//!
//! The paper's experiments use 100 workers and thousands of seconds of
//! virtual training. Re-running everything at that scale takes minutes per
//! figure on a laptop; CI and the test suites need seconds. The
//! `AIRFEDGA_SCALE` environment variable switches between the two without
//! touching the experiment code: `full` (the default when unset) or
//! `quick`; any other value is a usage error, so a misspelt `quick` cannot
//! turn a seconds-long run into a paper-scale one. (Replication —
//! `--seeds N`, `--system-seeds` — is parsed by the `scenario` crate's
//! `CliOverrides::parse`, the one place that reads the command line.)

use crate::harness::SeedPlan;
use crate::stats::replication_seeds;
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
    /// The scale a value of `AIRFEDGA_SCALE` names: `quick` or `full`, in
    /// any case; unset is [`Scale::Full`]. Anything else is an error naming
    /// the accepted values.
    fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None => Ok(Scale::Full),
            Some(v) if v.eq_ignore_ascii_case("full") => Ok(Scale::Full),
            Some(v) if v.eq_ignore_ascii_case("quick") => Ok(Scale::Quick),
            Some(v) => Err(format!(
                "AIRFEDGA_SCALE must be `full` or `quick` (unset means `full`), got {v:?}"
            )),
        }
    }

    /// Read the scale from the `AIRFEDGA_SCALE` environment variable for a
    /// binary's `main`. A value that names no scale is a usage error: the
    /// accepted values go to stderr under `program`'s name and the process
    /// exits with status 2 before anything runs.
    pub fn from_env_or_exit(program: &str) -> Self {
        let value = std::env::var_os("AIRFEDGA_SCALE").map(|v| v.to_string_lossy().into_owned());
        Self::parse(value.as_deref()).unwrap_or_else(|e| {
            eprintln!("{program}: {e}");
            std::process::exit(2);
        })
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

/// The run-RNG seed every figure historically used; replicate `r`
/// runs with `FIGURE_RUN_SEED + r`.
const FIGURE_RUN_SEED: u64 = 4242;

/// The system-construction seed shared by the figures.
const FIGURE_SYSTEM_SEED: u64 = 42;

/// Everything a run needs beyond the workload itself: scale, replication,
/// seeds (including the `--system-seeds` axis: re-sample the system per
/// replicate) and the run-shape overrides a scenario file may set. The
/// `Default` value is the historical single-seed full-scale run.
#[derive(Debug, Clone)]
pub struct FigureParams {
    /// Experiment scale (worker counts, round budgets, shard sizes).
    pub scale: Scale,
    /// Replication count; 1 reproduces the historical single-seed output
    /// byte for byte.
    pub num_seeds: usize,
    /// Re-sample the system per replicate (the `--system-seeds` axis).
    pub vary_system: bool,
    /// Base run seed (replicate `r` runs with `run_seed + r`).
    pub run_seed: u64,
    /// Base system-construction seed.
    pub system_seed: u64,
    /// Override the scaled worker count (a scenario file's explicit
    /// `num_workers` wins over the scale preset).
    pub num_workers: Option<usize>,
    /// Override the scale's round budget.
    pub total_rounds: Option<usize>,
    /// Override the scale's evaluation cadence.
    pub eval_every: Option<usize>,
    /// Optional virtual-time budget (seconds).
    pub max_virtual_time: Option<f64>,
}

impl Default for FigureParams {
    fn default() -> Self {
        Self {
            scale: Scale::Full,
            num_seeds: 1,
            vary_system: false,
            run_seed: FIGURE_RUN_SEED,
            system_seed: FIGURE_SYSTEM_SEED,
            num_workers: None,
            total_rounds: None,
            eval_every: None,
            max_virtual_time: None,
        }
    }
}

impl FigureParams {
    /// The seed plan these parameters describe.
    pub fn plan(&self) -> SeedPlan {
        SeedPlan {
            system_seed: self.system_seed,
            run_seeds: replication_seeds(self.run_seed, self.num_seeds.max(1)),
            vary_system: self.vary_system,
        }
    }

    /// Effective round budget (explicit override or the scale default).
    pub fn rounds(&self) -> usize {
        self.total_rounds
            .unwrap_or_else(|| self.scale.total_rounds())
    }

    /// Effective evaluation cadence.
    pub fn eval(&self) -> usize {
        self.eval_every.unwrap_or_else(|| self.scale.eval_every())
    }

    /// Scale a workload preset, then apply the explicit worker-count
    /// override, if any.
    pub fn apply(&self, workload: FlSystemConfig) -> FlSystemConfig {
        let mut cfg = self.scale.apply(workload);
        if let Some(n) = self.num_workers {
            cfg.num_workers = n;
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
        // Cannot mutate the environment safely in parallel tests, so check
        // the value parser (`cli_contract.rs` and `service.rs` drive the
        // variable through the real binaries) plus the accessors.
        assert_eq!(Scale::parse(None), Ok(Scale::Full));
        assert_eq!(Scale::parse(Some("full")), Ok(Scale::Full));
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("QUICK")), Ok(Scale::Quick));
        for typo in ["quik", "", "quick "] {
            let e = Scale::parse(Some(typo)).unwrap_err();
            assert!(e.contains("`full` or `quick`") && e.contains(&format!("{typo:?}")));
        }
        assert!(Scale::Full.num_workers() >= Scale::Quick.num_workers());
        assert!(Scale::Full.eval_every() >= Scale::Quick.eval_every());
    }

    #[test]
    fn figure_params_resolve_overrides() {
        let p = FigureParams {
            scale: Scale::Quick,
            num_workers: Some(7),
            total_rounds: Some(11),
            ..FigureParams::default()
        };
        assert_eq!(p.rounds(), 11);
        assert_eq!(p.eval(), Scale::Quick.eval_every());
        assert_eq!(p.apply(FlSystemConfig::mnist_lr()).num_workers, 7);
        let plan = p.plan();
        assert_eq!(plan.run_seeds, vec![FIGURE_RUN_SEED]);
        assert_eq!(plan.system_seed, FIGURE_SYSTEM_SEED);
        assert!(!plan.vary_system);
    }
}
