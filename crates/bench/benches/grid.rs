//! Benchmarks of the experiment-level parallelism layers: `run_grid` and the
//! replicate runner (`run_replicated_isolated_plan`).
//!
//! * `grid/run_grid_8cells` — 8 independent (seed, mechanism) cells fanned
//!   across the persistent worker pool through
//!   `experiments::harness::run_grid`. Each cell is a short Air-FedAvg run
//!   with its own RNG stream.
//! * `grid/sequential_8cells` — the same cells run through a plain
//!   sequential loop; both entries compute byte-identical results.
//! * `replicated/run_replicated_4cells_x3seeds` — the multi-seed layer: 4
//!   mechanism-style cells × 3 replication seeds fanned as one flat
//!   12-replicate grid (the over-decomposed pool schedule's target shape:
//!   replicate costs are uneven because different seeds converge at
//!   different round counts) through the replicate runner (no cache,
//!   default policy), folded into per-eval-point Welford stats.
//! * `replicated/sequential_4cells_x3seeds` — the same product as the
//!   sequential double loop plus the same fold; bit-identical results.
//!
//! On a multi-core host the fanned entries should be ≥ 3× faster than their
//! sequential twins; on a single-core host (`PARALLEL_THREADS=1` or one CPU)
//! the pool falls back to in-line execution and each pair coincides up to
//! noise — the committed baseline records which case it measured.
//!
//! These live in their own bench binary (not `engine.rs`) so the engine
//! bench's code layout — and therefore its kernel medians — stays comparable
//! with committed baselines that predate the `experiments` dependency.
//!
//! Run with `cargo bench --bench grid`; the JSON report lands in
//! `target/bench-json/grid.json`.

use airfedga::system::FlMechanism;
use airfedga::system::FlSystemConfig;
use baselines::{AirFedAvg, BaselineOptions};
use bench::bench_system;
use criterion::{criterion_group, criterion_main, Criterion};
use experiments::harness::{
    run_grid, run_replicated_isolated_plan, NoCache, RunPolicy, RunSummary, SeedPlan,
};
use experiments::stats::CellStats;
use fedml::rng::Rng64;
use std::hint::black_box;

fn bench_grid(c: &mut Criterion) {
    let system = bench_system(FlSystemConfig::mnist_lr_quick(), 8, 21);
    let opts = BaselineOptions {
        total_rounds: 2,
        eval_every: 2,
        max_virtual_time: None,
        parallel: true,
    };
    let cell = |seed: u64| {
        let mech = AirFedAvg::new(opts);
        mech.run(&system, &mut Rng64::seed_from(seed)).final_loss()
    };
    let mut group = c.benchmark_group("grid");
    group.bench_function("run_grid_8cells", |b| {
        b.iter(|| black_box(run_grid((0..8u64).collect(), cell)))
    });
    group.bench_function("sequential_8cells", |b| {
        b.iter(|| black_box((0..8u64).map(cell).collect::<Vec<f64>>()))
    });
    group.finish();
}

fn bench_replicated(c: &mut Criterion) {
    let system = bench_system(FlSystemConfig::mnist_lr_quick(), 8, 21);
    let opts = BaselineOptions {
        total_rounds: 2,
        eval_every: 2,
        max_virtual_time: None,
        parallel: true,
    };
    // Cells are distinguished by a base offset folded into the run seed, so
    // every (cell, seed) replicate draws a distinct RNG stream — the same
    // shape the figures use.
    let run_one = |cell: u64, seed: u64| {
        let mech = AirFedAvg::new(opts);
        RunSummary::from_trace(mech.run(&system, &mut Rng64::seed_from(cell * 1000 + seed)))
    };
    let seeds = [4242u64, 4243, 4244];
    let plan = SeedPlan::fixed_system(21, seeds.to_vec());
    let mut group = c.benchmark_group("replicated");
    group.bench_function("run_replicated_4cells_x3seeds", |b| {
        b.iter(|| {
            black_box(run_replicated_isolated_plan(
                (0..4u64).collect(),
                &plan,
                |i, _| format!("cell {i}"),
                &RunPolicy::default(),
                &NoCache,
                |&cell, s| run_one(cell, s),
            ))
        })
    });
    group.bench_function("sequential_4cells_x3seeds", |b| {
        b.iter(|| {
            let cells: Vec<CellStats> = (0..4u64)
                .map(|cell| {
                    let per_seed: Vec<RunSummary> =
                        seeds.iter().map(|&s| run_one(cell, s)).collect();
                    CellStats::from_summaries(seeds.to_vec(), per_seed)
                })
                .collect();
            black_box(cells)
        })
    });
    group.finish();
}

criterion_group! {
    name = grid;
    config = Criterion::default()
        .sample_size(15)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_grid, bench_replicated
}
criterion_main!(grid);
