//! Benchmarks of the batched training engine.
//!
//! * `gemm` — the GEMM kernels at layer shapes the workloads train,
//!   including the packed `nt` variant (`nt_packed`, pack + `gemm_nn`
//!   micro-kernel) against the dot-product-layout `nt` kernel.
//! * `local_step` — the MLP local-training step (one epoch of mini-batch SGD
//!   over a worker shard, batch 32): the batched zero-alloc engine vs. the
//!   per-sample reference trainer from `bench::reference`. The quotient of
//!   the two medians is the headline speedup this repo tracks (≥ 5× floor);
//!   both medians are recorded in the JSON report.
//! * `evaluate` — batched loss+accuracy evaluation vs. per-sample predict.
//! * `full_round` — a short end-to-end run (4 rounds) of each of the five
//!   mechanisms on a 12-worker system, plus `air_fedga_churn` /
//!   `dynamic_churn` variants under ~10% worker churn with stragglers and a
//!   deadline (the fault-path bookkeeping overhead).
//! * `pool` — fork/join overhead of the persistent pool vs. the old
//!   spawn-per-call design (8-task no-op fan-out; ≥ 5× floor), plus the
//!   latency of a small-group parallel training round, the case the
//!   persistent pool was built for.
//!
//! The experiment-level `run_grid` benchmarks live in `benches/grid.rs` (a
//! separate binary so this one's code layout — and therefore its kernel
//! medians — stays comparable across baselines that predate the
//! `experiments` crate dependency).
//!
//! Run with `cargo bench --bench engine`; the JSON report lands in
//! `target/bench-json/engine.json` (committed baselines live in the repo root
//! as `BENCH_*.json`).

use airfedga::mechanism::{AirFedGa, AirFedGaConfig};
use airfedga::system::{FlMechanism, FlSystemConfig};
use airfedga::worker_pool::WorkerPool;
use baselines::{AirFedAvg, BaselineOptions, Dynamic, DynamicConfig, FedAvg, TiFl};
use bench::bench_system;
use bench::reference::{fork_join_chunks_spawned, mlp_local_update_reference};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use faults::FaultSpec;
use fedml::dataset::SyntheticSpec;
use fedml::linalg::{gemm_nn, gemm_nt, gemm_nt_packed, gemm_tn};
use fedml::model::{Mlp, Model};
use fedml::optimizer::{local_update_ws, SgdConfig};
use fedml::rng::Rng64;
use fedml::workspace::Workspace;
use std::hint::black_box;

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for &(m, n, k) in &[(32usize, 64usize, 64usize), (32, 128, 64), (256, 64, 128)] {
        let a: Vec<f64> = (0..m * k).map(|i| (i % 17) as f64 * 0.1).collect();
        let bt: Vec<f64> = (0..n * k).map(|i| (i % 13) as f64 * 0.1).collect();
        let b: Vec<f64> = (0..k * n).map(|i| (i % 13) as f64 * 0.1).collect();
        let at: Vec<f64> = (0..k * m).map(|i| (i % 17) as f64 * 0.1).collect();
        let mut out = vec![0.0; m * n];
        let mut pack = vec![0.0; k * n];
        group.bench_with_input(
            BenchmarkId::new("nt", format!("{m}x{n}x{k}")),
            &0,
            |be, _| {
                be.iter(|| {
                    gemm_nt(&a, &bt, &mut out, m, n, k);
                    black_box(out[0])
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("nt_packed", format!("{m}x{n}x{k}")),
            &0,
            |be, _| {
                be.iter(|| {
                    gemm_nt_packed(&a, &bt, &mut out, m, n, k, &mut pack);
                    black_box(out[0])
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("nn", format!("{m}x{n}x{k}")),
            &0,
            |be, _| {
                be.iter(|| {
                    gemm_nn(&a, &b, &mut out, m, n, k);
                    black_box(out[0])
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("tn", format!("{m}x{n}x{k}")),
            &0,
            |be, _| {
                be.iter(|| {
                    gemm_tn(&at, &b, &mut out, m, n, k);
                    black_box(out[0])
                })
            },
        );
    }
    group.finish();
}

/// The shard + SGD configuration of the headline local-step comparison.
fn local_step_fixture() -> (fedml::dataset::Dataset, SgdConfig, Mlp) {
    let mut rng = Rng64::seed_from(7);
    let shard = SyntheticSpec::mnist_like()
        .with_samples_per_class(16) // 160 samples -> 5 full minibatches of 32
        .generate(&mut rng);
    let cfg = SgdConfig {
        learning_rate: 0.05,
        batch_size: 32,
        local_epochs: 1,
    };
    let model = Mlp::paper_lr(shard.num_features(), shard.num_classes(), &mut rng);
    (shard, cfg, model)
}

fn bench_local_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_step");
    {
        let (shard, cfg, model) = local_step_fixture();
        let mut m = model.clone();
        let mut ws = Workspace::new();
        group.bench_function("mlp_batched_b32", |b| {
            b.iter(|| {
                let mut rng = Rng64::seed_from(1);
                black_box(local_update_ws(&mut m, &shard, &cfg, &mut rng, &mut ws))
            })
        });
    }
    {
        let (shard, cfg, model) = local_step_fixture();
        let mut m = model.clone();
        group.bench_function("mlp_per_sample_reference_b32", |b| {
            b.iter(|| {
                let mut rng = Rng64::seed_from(1);
                black_box(mlp_local_update_reference(&mut m, &shard, &cfg, &mut rng))
            })
        });
    }
    group.finish();
}

fn bench_evaluate(c: &mut Criterion) {
    let mut rng = Rng64::seed_from(11);
    let data = SyntheticSpec::mnist_like()
        .with_samples_per_class(60)
        .generate(&mut rng);
    let model = Mlp::paper_lr(data.num_features(), data.num_classes(), &mut rng);
    let mut group = c.benchmark_group("evaluate");
    let mut ws = Workspace::new();
    group.bench_function("batched_evaluate_ws", |b| {
        b.iter(|| black_box(model.evaluate_ws(&data, &mut ws)))
    });
    group.bench_function("per_sample_predict", |b| {
        b.iter(|| {
            let correct = (0..data.len())
                .filter(|&i| model.predict(data.sample(i)) == data.label(i))
                .count();
            black_box(correct)
        })
    });
    group.finish();
}

fn bench_full_round(c: &mut Criterion) {
    let system = bench_system(FlSystemConfig::mnist_lr_quick(), 12, 42);
    let opts = BaselineOptions {
        total_rounds: 4,
        eval_every: 4,
        max_virtual_time: None,
        parallel: true,
    };
    let mut group = c.benchmark_group("full_round");
    group.bench_function("air_fedga", |b| {
        let mech = AirFedGa::new(AirFedGaConfig {
            total_rounds: 4,
            eval_every: 4,
            ..AirFedGaConfig::default()
        });
        b.iter(|| black_box(mech.run(&system, &mut Rng64::seed_from(3))))
    });
    group.bench_function("air_fedavg", |b| {
        let mech = AirFedAvg::new(opts);
        b.iter(|| black_box(mech.run(&system, &mut Rng64::seed_from(3))))
    });
    group.bench_function("dynamic", |b| {
        let mech = Dynamic::new(DynamicConfig {
            options: opts,
            ..DynamicConfig::default()
        });
        b.iter(|| black_box(mech.run(&system, &mut Rng64::seed_from(3))))
    });
    group.bench_function("fedavg", |b| {
        let mech = FedAvg::new(opts);
        b.iter(|| black_box(mech.run(&system, &mut Rng64::seed_from(3))))
    });
    group.bench_function("tifl", |b| {
        let mech = TiFl::new(opts);
        b.iter(|| black_box(mech.run(&system, &mut Rng64::seed_from(3))))
    });

    // The same end-to-end rounds under ~10% worker churn (steady-state
    // unavailability at dropout 0.002/s with 60 s mean downtime), stragglers
    // and a deadline — the price of the fault-path bookkeeping: dispatch-time
    // tracking, participant filtering and weight re-normalization.
    let mut churn_cfg = FlSystemConfig::mnist_lr_quick();
    churn_cfg.faults = FaultSpec {
        dropout_rate: 0.002,
        mean_downtime: 60.0,
        straggler_fraction: 0.3,
        straggler_slowdown: 3.0,
        deadline: Some(400.0),
        ..FaultSpec::none()
    };
    let churn_system = bench_system(churn_cfg, 12, 42);
    group.bench_function("air_fedga_churn", |b| {
        let mech = AirFedGa::new(AirFedGaConfig {
            total_rounds: 4,
            eval_every: 4,
            ..AirFedGaConfig::default()
        });
        b.iter(|| black_box(mech.run(&churn_system, &mut Rng64::seed_from(3))))
    });
    group.bench_function("dynamic_churn", |b| {
        let mech = Dynamic::new(DynamicConfig {
            options: opts,
            ..DynamicConfig::default()
        });
        b.iter(|| black_box(mech.run(&churn_system, &mut Rng64::seed_from(3))))
    });
    group.finish();
}

/// Fork/join overhead: the persistent pool vs. the old spawn-per-call
/// design, on an 8-task no-op fan-out (pure scheduling cost), plus the
/// latency of one small-group parallel training round — the workload whose
/// per-round cost the spawn-per-call design dominated.
///
/// The `pool` entry measures whatever `fork_join_chunks` costs at the
/// host's thread configuration: on a multi-core host that is the
/// queue-push + wake + latch protocol (order of microseconds); on a
/// single-core host (or `PARALLEL_THREADS=1`) the pool spawns no workers
/// and the entry measures the in-line fallback (order of nanoseconds).
/// Both are the true cost the engines pay per fan-out on that host —
/// the spawn-per-call entry, by contrast, pays thread start/join either
/// way. Committed baselines record which case they measured (see the
/// host note in the baseline's ROADMAP entry).
fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool");
    // Touch the pool once so worker-thread startup is not measured.
    parallel::fork_join_chunks(8, &|i| {
        black_box(i);
    });
    group.bench_function("fork_join_noop_8/pool", |b| {
        b.iter(|| {
            parallel::fork_join_chunks(8, &|i| {
                black_box(i);
            })
        })
    });
    group.bench_function("fork_join_noop_8/spawn_per_call", |b| {
        b.iter(|| {
            fork_join_chunks_spawned(8, &|i| {
                black_box(i);
            })
        })
    });

    // Small-group round latency: two members training in parallel, the
    // smallest fan-out the engines issue.
    let system = bench_system(FlSystemConfig::mnist_lr_quick(), 4, 7);
    let dispatch = system.template.params();
    let mut pool = WorkerPool::new(&system, &mut Rng64::seed_from(11));
    group.bench_function("small_group_round_2", |b| {
        b.iter(|| {
            pool.train_members(&[0, 1], &dispatch, &system, true);
            black_box(pool.last_loss(0))
        })
    });
    group.finish();
}

criterion_group! {
    name = engine;
    config = Criterion::default()
        .sample_size(15)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_gemm, bench_local_step, bench_evaluate, bench_full_round,
        bench_pool
}
criterion_main!(engine);
