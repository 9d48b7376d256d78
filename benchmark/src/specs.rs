//! Scenario specs generated from the workload seed. The program under test
//! only ever sees these files.
//!
//! The seed drives the run seed (mini-batch order, channel noise, Dynamic's
//! worker selection) and the harness's own choices (which replicates a
//! resume loses, the distinct seeds of service jobs). The system seed stays
//! at the committed figures' 42: re-drawing the system changes the amount of
//! simulated work per run by about ±12 % (group sizes, shard sizes), which
//! would read as host-time noise across seeds.

/// The system every workload runs on (the committed `scenarios/*.toml` use
/// the same one).
pub const SYSTEM_SEED: u64 = 42;

/// Round budget of the fig3 spec: the first 100 of the figure's 400 rounds.
/// All three mechanisms pass 90 % accuracy within them, and an op of 1.5 s
/// instead of 5 s lets a run interleave six to ten ops with its calibration
/// slices, which halved the run-to-run spread.
pub const FIG3_ROUNDS: u64 = 100;
/// Round budget and replicate count of the grid spec.
pub const GRID_ROUNDS: u64 = 20;
pub const GRID_REPLICATES: u64 = 60;
/// Round budget and replicate count of one service job.
pub const JOB_ROUNDS: u64 = 20;
pub const JOB_REPLICATES: u64 = 12;

/// `[run] seed` for workload seed `seed`; 42 gives the figures' 4242.
pub fn run_seed(seed: u64) -> u64 {
    100 * seed + 42
}

/// `scenarios/fig3.toml` with its seeds written out and a round budget: the
/// paper's headline time-accuracy figure (N = 100 at full scale).
pub fn fig3(seed: u64) -> String {
    format!(
        r#"[scenario]
name = "fig3"
kind = "time_accuracy"
title = "Fig. 3: LR on MNIST-like (loss/accuracy vs time)"
csv_prefix = "fig3"

[system]
workload = "mnist_lr"
seed = {SYSTEM_SEED}

[run]
mechanisms = ["dynamic", "air-fedavg", "air-fedga"]
accuracy_targets = [0.8, 0.85, 0.9]
speedup_target = 0.8
seed = {}
rounds = {FIG3_ROUNDS}
"#,
        run_seed(seed)
    )
}

const CHURN: &str = r#"[faults]
preset = "churn:0.002"
straggler_fraction = 0.3
straggler_slowdown = 3.0
"#;

/// Many small cells: all five mechanisms x three xi x two worker counts x
/// two seeds under churn and stragglers, so the fault path, the OMA
/// back-end, per-cell system builds and 60 fsynced store writes all run.
pub fn grid(seed: u64) -> String {
    format!(
        r#"[scenario]
name = "bench_grid"
kind = "grid"
title = "Benchmark grid: five mechanisms x xi x N under churn"
csv_prefix = "bench_grid"

[system]
workload = "mnist_lr"
seed = {SYSTEM_SEED}

{CHURN}
[run]
mechanisms = ["fedavg", "tifl", "dynamic", "air-fedavg", "air-fedga"]
accuracy_targets = [0.8]
rounds = {GRID_ROUNDS}
eval_every = 5
seed = {}
seeds = 2

[sweep]
xi = [0.1, 0.3, 0.8]
num_workers = [10, 20]
"#,
        run_seed(seed)
    )
}

/// The `index`-th job of a service session: a 12-replicate grid whose run
/// seed differs per job, so no two fresh jobs share a replicate.
pub fn job(seed: u64, index: u64) -> String {
    format!(
        r#"[scenario]
name = "bench_job"
kind = "grid"
title = "Benchmark service job"
csv_prefix = "bench_job"

[system]
workload = "mnist_lr"
seed = {SYSTEM_SEED}

{CHURN}
[run]
mechanisms = ["fedavg", "air-fedavg", "air-fedga"]
accuracy_targets = [0.8]
rounds = {JOB_ROUNDS}
eval_every = 5
seed = {}
seeds = 2

[sweep]
xi = [0.3, 0.8]
num_workers = [20]
"#,
        run_seed(seed) + 10 * index
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::spec::expand_grid;
    use scenario::ScenarioSpec;

    #[test]
    fn default_seed_resolves_to_the_committed_fig3() {
        // `[run]` is the committed file's last section: the round budget is
        // the one key the benchmark adds.
        let committed = format!(
            "{}rounds = {FIG3_ROUNDS}\n",
            include_str!("../../scenarios/fig3.toml")
        );
        let ours = ScenarioSpec::parse(&fig3(42)).unwrap();
        let theirs = ScenarioSpec::parse(&committed).unwrap();
        assert_eq!((ours.system_seed, ours.run_seed), (42, 4242));
        assert_eq!(format!("{ours:?}"), format!("{theirs:?}"));
        assert_ne!(
            format!("{:?}", ScenarioSpec::parse(&fig3(7)).unwrap()),
            format!("{theirs:?}")
        );
    }

    #[test]
    fn generated_specs_have_the_documented_shape() {
        for seed in [1, 42, 1_000_003] {
            let grid = ScenarioSpec::parse(&grid(seed)).unwrap();
            let replicates = (expand_grid(&grid).len() * grid.num_seeds) as u64;
            assert_eq!(replicates, GRID_REPLICATES);
            assert_eq!(grid.rounds, Some(GRID_ROUNDS as usize));
            assert!(!grid.base_config.faults.is_none());
            assert_eq!((grid.system_seed, grid.run_seed), (42, run_seed(seed)));

            let job0 = ScenarioSpec::parse(&job(seed, 0)).unwrap();
            let job1 = ScenarioSpec::parse(&job(seed, 1)).unwrap();
            let replicates = (expand_grid(&job0).len() * job0.num_seeds) as u64;
            assert_eq!(replicates, JOB_REPLICATES);
            assert_eq!(job0.rounds, Some(JOB_ROUNDS as usize));
            // Replicate r runs with run_seed + r: jobs must not overlap.
            assert!(job1.run_seed >= job0.run_seed + job0.num_seeds as u64);
        }
    }
}
