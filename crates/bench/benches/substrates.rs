//! Microbenchmarks of the substrate building blocks.
//!
//! These quantify the per-round overhead that the Air-FedGA mechanism adds on
//! top of plain local training: the over-the-air aggregation itself, the
//! Algorithm-2 power-control solve, the Algorithm-3 grouping (run once per
//! training job), EMD evaluation and the event queue.

use bench::reference::air_aggregate;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fedml::dataset::SyntheticSpec;
use fedml::model::{Mlp, Model};
use fedml::optimizer::{local_update, SgdConfig};
use fedml::params::FlatParams;
use fedml::rng::Rng64;
use grouping::emd::average_group_emd;
use grouping::greedy::{greedy_grouping, GreedyGroupingConfig};
use grouping::objective::{GroupingObjective, ObjectiveConstants};
use grouping::tifl::tifl_grouping;
use grouping::worker_info::{Grouping, WorkerInfo};
use simcore::events::EventQueue;
use std::hint::black_box;
use wireless::aircomp::AirAggregationInput;
use wireless::power::{optimize_power, PowerControlConfig};

fn synthetic_workers(n: usize, classes: usize) -> Vec<WorkerInfo> {
    (0..n)
        .map(|i| {
            let mut counts = vec![0usize; classes];
            counts[i * classes / n] = 50;
            WorkerInfo::new(i, 8.0 + ((i * 29) % 54) as f64, 50, counts)
        })
        .collect()
}

fn bench_aircomp_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("aircomp_aggregation");
    let dim = 10_000;
    for &workers in &[4usize, 16, 64] {
        let params: Vec<FlatParams> = (0..workers)
            .map(|w| FlatParams(vec![0.01 * w as f64; dim]))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &_n| {
            b.iter(|| {
                let inputs: Vec<AirAggregationInput<'_>> = params
                    .iter()
                    .map(|p| AirAggregationInput {
                        data_size: 30.0,
                        channel_gain: 0.8,
                        params: p,
                    })
                    .collect();
                let mut rng = Rng64::seed_from(7);
                black_box(air_aggregate(&inputs, 0.5, 0.25, 1e-5, &mut rng))
            });
        });
    }
    group.finish();
}

fn bench_power_control(c: &mut Criterion) {
    let mut group = c.benchmark_group("power_control_alg2");
    for &workers in &[8usize, 32, 128] {
        let sizes: Vec<f64> = (0..workers).map(|i| 20.0 + i as f64).collect();
        let gains: Vec<f64> = (0..workers).map(|i| 0.3 + 0.01 * i as f64).collect();
        let cfg = PowerControlConfig::for_group(12.0, &sizes, &gains);
        group.bench_with_input(BenchmarkId::from_parameter(workers), &cfg, |b, cfg| {
            b.iter(|| black_box(optimize_power(cfg)));
        });
    }
    group.finish();
}

fn bench_grouping_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("worker_grouping");
    for &n in &[20usize, 50, 100] {
        let workers = synthetic_workers(n, 10);
        let cfg = GreedyGroupingConfig::new(GroupingObjective::new(
            0.5,
            0.3,
            ObjectiveConstants::default(),
        ));
        group.bench_with_input(
            BenchmarkId::new("algorithm3_greedy", n),
            &workers,
            |b, ws| b.iter(|| black_box(greedy_grouping(ws, &cfg))),
        );
        group.bench_with_input(BenchmarkId::new("tifl_tiers", n), &workers, |b, ws| {
            b.iter(|| black_box(tifl_grouping(ws, 7)))
        });
    }
    group.finish();
}

fn bench_emd(c: &mut Criterion) {
    let workers = synthetic_workers(100, 10);
    let grouping = Grouping::new(
        (0..10).map(|j| (j * 10..(j + 1) * 10).collect()).collect(),
        100,
    );
    c.bench_function("average_group_emd_100_workers", |b| {
        b.iter(|| black_box(average_group_emd(&grouping, &workers)))
    });
}

fn bench_local_training(c: &mut Criterion) {
    let mut rng = Rng64::seed_from(3);
    let data = SyntheticSpec::mnist_like()
        .with_samples_per_class(20)
        .generate(&mut rng);
    let mut model = Mlp::paper_lr(data.num_features(), data.num_classes(), &mut rng);
    let cfg = SgdConfig {
        learning_rate: 0.1,
        batch_size: 16,
        local_epochs: 1,
    };
    c.bench_function("local_update_paper_lr_200_samples", |b| {
        b.iter(|| {
            black_box(local_update(&mut model, &data, &cfg, &mut rng));
        })
    });
    c.bench_function("full_loss_paper_lr_200_samples", |b| {
        b.iter(|| black_box(model.loss(&data)))
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u32 {
                q.push(((i * 2654435761u32) % 100_000) as f64, i);
            }
            let mut count = 0;
            while q.pop().is_some() {
                count += 1;
            }
            black_box(count)
        })
    });
}

criterion_group! {
    name = substrates;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_aircomp_aggregation,
              bench_power_control,
              bench_grouping_algorithms,
              bench_emd,
              bench_local_training,
              bench_event_queue
}
criterion_main!(substrates);
