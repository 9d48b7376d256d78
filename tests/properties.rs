//! Property-based tests over the core invariants of the reproduction:
//! partitioning, over-the-air aggregation, power control, EMD, the grouping
//! constraint, the Lemma-1/Theorem-1 bounds, and the batched training
//! engine's equivalence to the per-sample reference.
//!
//! The build environment has no crates.io access (so no `proptest`); instead
//! each property samples its inputs from a seeded [`Rng64`], which keeps the
//! cases deterministic and the failures reproducible — rerun with the case
//! index printed in the assertion message.

use air_fedga::airfedga::mechanism::{run_group_async, AggregationMode, EngineOptions};
use air_fedga::airfedga::mechanism::{AirFedGa, AirFedGaConfig};
use air_fedga::airfedga::system::FlSystemConfig;
use air_fedga::airfedga::worker_pool::WorkerPool;
use air_fedga::baselines::MechanismChoice;
use air_fedga::fedml::dataset::{Dataset, SyntheticSpec};
use air_fedga::fedml::model::Mlp;
use air_fedga::fedml::params::FlatParams;
use air_fedga::fedml::partition::{LabelDistribution, Partitioner};
use air_fedga::fedml::rng::Rng64;
use air_fedga::fedml::workspace::Workspace;
use air_fedga::grouping::emd::average_group_emd;
use air_fedga::grouping::greedy::greedy_grouping;
use air_fedga::grouping::objective::{GroupingObjective, ObjectiveConstants};
use air_fedga::grouping::worker_info::{Grouping, WorkerInfo};
use air_fedga::wireless::aircomp::{
    air_aggregate_indexed_into, air_aggregate_into, air_fold, fold_group, global_update,
    AirAggregationInput, AirAggregationScratch,
};
use air_fedga::wireless::power::{optimize_power, transmit_power, PowerControlConfig};
use reference::{
    air_aggregate, exact_aggregate, group_update, lemma1_envelope, lemma1_recursion, mlp_evaluate,
    mlp_local_update_reference, mlp_loss_and_gradient,
};

mod reference;

const CASES: usize = 24;

fn label_skew_workers(n: usize, latencies: &[f64]) -> Vec<WorkerInfo> {
    (0..n)
        .map(|i| {
            let mut counts = vec![0usize; 10];
            counts[i * 10 / n] = 40;
            WorkerInfo::new(i, latencies[i % latencies.len()].max(0.1), 40, counts)
        })
        .collect()
}

/// Every partitioner produces a true partition: shards are disjoint, cover
/// the dataset, and are non-empty.
#[test]
fn partitioners_produce_true_partitions() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from(1000 + case as u64);
        let num_workers = 1 + rng.index(39);
        let which = rng.index(3);
        let data = SyntheticSpec::mnist_like()
            .with_samples_per_class(12)
            .generate(&mut rng);
        let partitioner = match which {
            0 => Partitioner::LabelSkew,
            1 => Partitioner::Iid,
            _ => Partitioner::Dirichlet { alpha: 0.5 },
        };
        let shards = partitioner.partition(&data, num_workers, &mut rng);
        assert_eq!(shards.len(), num_workers, "case {case}");
        let mut all: Vec<usize> = shards.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all.len(), data.len(), "case {case}: not covering");
        all.dedup();
        assert_eq!(all.len(), data.len(), "case {case}: overlapping shards");
        assert!(
            shards.iter().all(|s| !s.is_empty()),
            "case {case}: empty shard"
        );
    }
}

/// With a noiseless channel and matched factors (sigma = sqrt(eta)), the
/// over-the-air estimate equals the ideal weighted average, and the global
/// update is the exact convex combination of Eq. (8).
#[test]
fn noiseless_aircomp_is_exact() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from(2000 + case as u64);
        let dims = 1 + rng.index(63);
        let n = 1 + rng.index(5);
        let sizes: Vec<f64> = (0..n).map(|_| rng.uniform_range(1.0, 200.0)).collect();
        let scale = rng.uniform_range(0.1, 4.0);
        let params: Vec<FlatParams> = (0..n)
            .map(|i| FlatParams(vec![0.02 * (i as f64 + 1.0); dims]))
            .collect();
        let inputs: Vec<AirAggregationInput<'_>> = params
            .iter()
            .zip(sizes.iter())
            .map(|(p, &d)| AirAggregationInput {
                data_size: d,
                channel_gain: 0.7,
                params: p,
            })
            .collect();
        let res = air_aggregate(&inputs, scale, scale * scale, 0.0, &mut rng);
        assert!(res.error_norm_sq < 1e-16, "case {case}");
        let total: f64 = sizes.iter().sum();
        let mut updated = FlatParams::zeros(dims);
        global_update(&mut updated, total, total * 2.0)(0, res.group_estimate.as_slice());
        // Half weight: every coordinate equals half the ideal average.
        for (u, i) in updated.0.iter().zip(res.ideal_group_model.0.iter()) {
            assert!((u - 0.5 * i).abs() < 1e-12, "case {case}");
        }
    }
}

/// Algorithm 2 always converges and never violates any worker's energy
/// budget, regardless of channel gains, data sizes or budget magnitudes.
#[test]
fn power_control_respects_energy_budgets() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from(3000 + case as u64);
        let norm = rng.uniform_range(0.5, 50.0);
        let n = 1 + rng.index(7);
        let sizes: Vec<f64> = (0..n).map(|_| rng.uniform_range(1.0, 500.0)).collect();
        let gains: Vec<f64> = (0..n).map(|_| rng.uniform_range(0.05, 2.0)).collect();
        let budget = rng.uniform_range(0.01, 100.0);
        let mut cfg = PowerControlConfig::for_group(norm, &sizes, &gains);
        cfg.energy_budgets = vec![budget; n];
        let sol = optimize_power(&cfg);
        assert!(sol.sigma > 0.0 && sol.eta > 0.0, "case {case}");
        assert!(sol.cost.is_finite(), "case {case}");
        for ((&d, &h), &e) in sizes
            .iter()
            .zip(gains.iter())
            .zip(cfg.energy_budgets.iter())
        {
            let p = transmit_power(d, sol.sigma, h);
            assert!(p * p * norm * norm <= e * (1.0 + 1e-6), "case {case}");
        }
    }
}

/// The average group EMD is always within [0, 2], and grouping everyone
/// together always achieves EMD 0.
#[test]
fn emd_is_bounded_and_full_grouping_is_iid() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from(4000 + case as u64);
        let n = 2 + rng.index(58);
        let latencies: Vec<f64> = (0..n).map(|_| rng.uniform_range(5.0, 60.0)).collect();
        let workers = label_skew_workers(n, &latencies);
        let singles = Grouping::singletons(n);
        let single_group = Grouping::single_group(n);
        let e_singles = average_group_emd(&singles, &workers);
        let e_all = average_group_emd(&single_group, &workers);
        assert!((0.0..=2.0 + 1e-9).contains(&e_singles), "case {case}");
        assert!(e_all < 1e-9, "case {case}");
        assert!(e_singles >= e_all, "case {case}");
    }
}

/// Algorithm 3 always yields a valid partition that satisfies the
/// ξ-constraint, and never does worse on the objective than the
/// fully-asynchronous singleton grouping.
#[test]
fn greedy_grouping_invariants() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from(5000 + case as u64);
        let n = 2 + rng.index(38);
        let xi = rng.uniform();
        let latencies: Vec<f64> = (0..n).map(|_| rng.uniform_range(5.0, 60.0)).collect();
        let workers = label_skew_workers(n, &latencies);
        let objective = GroupingObjective::new(0.5, xi, ObjectiveConstants::default());
        let grouping = greedy_grouping(&workers, &objective);
        assert_eq!(grouping.num_workers(), n, "case {case}");
        assert!(objective.satisfies_xi(&grouping, &workers), "case {case}");
        let singles = Grouping::singletons(n);
        assert!(
            objective.evaluate(&grouping, &workers)
                <= objective.evaluate(&singles, &workers) + 1e-9,
            "case {case}"
        );
    }
}

/// Lemma 1: the closed-form envelope dominates the worst-case recursion for
/// any admissible (x, y, z, tau).
#[test]
fn lemma1_envelope_dominates() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from(6000 + case as u64);
        let x = rng.uniform_range(0.0, 0.7);
        let y = rng.uniform() * (0.99 - x).max(0.0);
        let z = rng.uniform_range(0.0, 0.5);
        let q0 = rng.uniform_range(0.0, 10.0);
        let tau = rng.index(8);
        let seq = lemma1_recursion(x, y, z, q0, tau, 120);
        for (t, q) in seq.iter().enumerate() {
            assert!(
                *q <= lemma1_envelope(x, y, z, q0, tau, t) + 1e-7,
                "case {case}, t = {t}"
            );
        }
    }
}

/// Merging label distributions is equivalent to computing the distribution
/// of the union (checked via counts).
#[test]
fn label_distribution_merge_is_consistent() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from(7000 + case as u64);
        let counts_a: Vec<usize> = (0..5).map(|_| rng.index(50)).collect();
        let counts_b: Vec<usize> = (0..5).map(|_| rng.index(50)).collect();
        if counts_a.iter().sum::<usize>() == 0 || counts_b.iter().sum::<usize>() == 0 {
            continue;
        }
        let a = LabelDistribution::from_counts(&counts_a);
        let b = LabelDistribution::from_counts(&counts_b);
        let merged = LabelDistribution::merge(&[&a, &b]);
        let combined: Vec<usize> = counts_a
            .iter()
            .zip(counts_b.iter())
            .map(|(x, y)| x + y)
            .collect();
        let expected = LabelDistribution::from_counts(&combined);
        assert!(merged.l1_distance(&expected) < 1e-9, "case {case}");
    }
}

/// The batched engine against the per-sample reference on one model and one
/// random batch: the mean loss and every gradient coordinate to 1e-10, then
/// an evaluation of the whole dataset (loss to 1e-10, accuracy exactly — the
/// reference's argmax prediction per sample).
fn assert_matches_per_sample_reference(case: usize, model: &Mlp, data: &Dataset, rng: &mut Rng64) {
    let bsz = 1 + rng.index(data.len());
    let indices = rng.sample_indices(data.len(), bsz);
    let (loss_ref, grad_ref) = mlp_loss_and_gradient(model, data, &indices);
    let (loss, grad) = model.loss_and_gradient(data, &indices);
    assert!(
        (loss - loss_ref).abs() < 1e-10,
        "case {case}: loss {loss} vs reference {loss_ref}"
    );
    for (c, (a, b)) in grad.0.iter().zip(grad_ref.0.iter()).enumerate() {
        assert!(
            (a - b).abs() < 1e-10,
            "case {case}: grad coord {c}: {a} vs reference {b}"
        );
    }
    let stats = model.evaluate_ws(data, &mut Workspace::new());
    let (eval_loss_ref, accuracy_ref) = mlp_evaluate(model, data);
    assert!(
        (stats.loss - eval_loss_ref).abs() < 1e-10,
        "case {case}: evaluated loss {} vs reference {eval_loss_ref}",
        stats.loss
    );
    assert_eq!(stats.accuracy, accuracy_ref, "case {case}");
}

/// Either no regularisation or a random strength: both sides of the `l2 > 0`
/// branches.
fn random_l2(rng: &mut Rng64) -> f64 {
    if rng.uniform() < 0.5 {
        0.0
    } else {
        rng.uniform_range(1e-4, 0.1)
    }
}

/// The batched GEMM engine reproduces the per-sample reference on logistic
/// regression (the zero-hidden-layer `Mlp`, with and without L2) from random
/// parameters, on random batches and batch sizes.
#[test]
fn batched_logreg_matches_per_sample_reference() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from(8000 + case as u64);
        let data = SyntheticSpec::mnist_like()
            .with_samples_per_class(4 + rng.index(6))
            .generate(&mut rng);
        let l2 = random_l2(&mut rng);
        let mut model =
            Mlp::logistic_regression(data.num_features(), data.num_classes()).with_l2(l2);
        for v in model.params_mut().0.iter_mut() {
            *v = rng.gaussian_with(0.0, 0.3);
        }
        assert_matches_per_sample_reference(case, &model, &data, &mut rng);
    }
}

/// The batched GEMM engine reproduces the per-sample reference on
/// random-depth MLPs, with and without L2 on every layer's weights, on random
/// batches.
#[test]
fn batched_mlp_matches_per_sample_reference() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from(9000 + case as u64);
        let data = SyntheticSpec::mnist_like()
            .with_samples_per_class(4 + rng.index(6))
            .generate(&mut rng);
        let depth = rng.index(3);
        let hidden: Vec<usize> = (0..depth).map(|_| 3 + rng.index(20)).collect();
        let model = Mlp::new(data.num_features(), &hidden, data.num_classes(), &mut rng)
            .with_l2(random_l2(&mut rng));
        assert_matches_per_sample_reference(case, &model, &data, &mut rng);
    }
}

/// A whole local update — three epochs of shuffled mini-batches with a ragged
/// last batch — through the batched engine (`local_update_ws`) lands on the
/// same mean loss and the same parameters as the per-sample reference trainer
/// run from the same model, shard, `SgdConfig` and `Rng64` seed, for a
/// one-hidden-layer MLP and for `Mlp::paper_lr`.
///
/// Tolerance 1e-10: the two differentials above hold each step's gradient to
/// 1e-10, and a step moves the parameters by γ = 0.1 times that, so nine
/// steps stay inside 1e-10 unless the loss curvature amplifies the drift by
/// more than 10× (observed: below 1e-14). One update is ~1e-2, so a skipped,
/// repeated or mis-sized batch cannot hide under it.
#[test]
fn batched_local_step_matches_per_sample_reference() {
    use air_fedga::fedml::optimizer::{local_update_ws, SgdConfig};
    const TOL: f64 = 1e-10;
    let mut rng = Rng64::seed_from(7109);
    let data = SyntheticSpec::mnist_like()
        .with_samples_per_class(7)
        .generate(&mut rng);
    let cfg = SgdConfig {
        learning_rate: 0.1,
        batch_size: 32,
        local_epochs: 3,
    };
    assert_eq!(data.len() % cfg.batch_size, 6, "last mini-batch is ragged");
    let (features, classes) = (data.num_features(), data.num_classes());
    let models = [
        (
            "one hidden layer",
            Mlp::new(features, &[16], classes, &mut rng),
        ),
        ("paper_lr", Mlp::paper_lr(features, classes, &mut rng)),
    ];
    for (name, start) in models {
        let mut batched = start.clone();
        let mut reference = start;
        let loss = local_update_ws(
            &mut batched,
            &data,
            &cfg,
            &mut Rng64::seed_from(7110),
            &mut Workspace::new(),
        );
        let loss_ref =
            mlp_local_update_reference(&mut reference, &data, &cfg, &mut Rng64::seed_from(7110));
        assert!(
            (loss - loss_ref).abs() < TOL,
            "{name}: mean loss {loss} vs reference {loss_ref}"
        );
        let (got, want) = (batched.params(), reference.params());
        assert_eq!(got.dim(), want.dim(), "{name}");
        for (c, (a, b)) in got.0.iter().zip(want.0.iter()).enumerate() {
            assert!(
                (a - b).abs() < TOL,
                "{name}: param {c}: {a} vs reference {b}"
            );
        }
    }
}

/// Parallel worker rounds produce bit-identical training traces to
/// sequential execution for fixed seeds, across aggregation back-ends: the
/// traces here, on the host's training lanes, equal those a child process of
/// this test binary computes with `PARALLEL_THREADS=1`, where the worker pool
/// has one lane and every map runs in-line (the pool reads its thread pin
/// once per process, hence the child). The child reruns this test and,
/// finding `ENGINE_SEQUENTIAL_CHILD` set, writes its traces to the file
/// named there instead.
#[test]
fn parallel_rounds_are_bit_identical_to_sequential() {
    let mut cfg = FlSystemConfig::mnist_lr_quick();
    cfg.num_workers = 8;
    let system = cfg.build(&mut Rng64::seed_from(42));
    let groupings = [
        Grouping::single_group(system.num_workers()),
        Grouping::new(vec![vec![0, 2, 4, 6], vec![1, 3, 5, 7]], 8),
    ];
    let opts = EngineOptions {
        total_rounds: 12,
        eval_every: 1,
        max_virtual_time: None,
    };
    let mut here = String::new();
    for grouping in &groupings {
        for aggregation in [AggregationMode::AirComp, AggregationMode::OmaIdeal] {
            let rng = &mut Rng64::seed_from(9);
            let trace = run_group_async(&system, grouping, aggregation, &opts, "run", rng);
            here.push_str(&runstore::encode_trace(&trace));
        }
    }
    if let Ok(path) = std::env::var("ENGINE_SEQUENTIAL_CHILD") {
        std::fs::write(path, here).unwrap();
        return;
    }
    let path = std::env::temp_dir().join(format!("properties_rounds_{}", std::process::id()));
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["parallel_rounds_are_bit_identical_to_sequential", "--exact"])
        .env("ENGINE_SEQUENTIAL_CHILD", &path)
        .env("PARALLEL_THREADS", "1")
        .env("PARALLEL_CHUNKS", "1")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "sequential child failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let sequential = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(here, sequential);
}

/// Every GEMM variant — `gemm_nn` and `gemm_tn_acc`, the latter both as the
/// plain product (α = 1 over a zero fill) and accumulating at a random α —
/// computes the same product as a naive triple loop on degenerate sizes
/// (0 and 1), on sizes one below / at / one above the micro-kernel's register
/// tile (4 rows × 4 k-steps × `LANES` = 8 columns), on three layer shapes the
/// workloads train (32×64×64, 32×128×64, 256×64×128) and on a seeded ragged
/// sweep. `gemm_nn`'s output starts as NaN, so leaving an element unwritten
/// (say at `k = 0`) fails too.
///
/// Tolerance per element: `4 (k + 2) ε · Σ|x||y|`, the standard forward
/// error bound of a length-`k` dot product under any summation order (twice,
/// for the two orders compared, with room for `gemm_tn_acc`'s alpha scaling
/// and final add) — beyond it a difference is a wrong sum, not rounding.
#[test]
fn every_gemm_variant_matches_a_naive_triple_loop() {
    use air_fedga::fedml::linalg::{gemm_nn, gemm_tn_acc};
    let mut shapes = vec![(32, 64, 64), (32, 128, 64), (256, 64, 128)];
    for m in [0, 1, 3, 4, 5] {
        for n in [0, 1, 7, 8, 9] {
            for k in [0, 1, 3, 4, 5] {
                shapes.push((m, n, k));
            }
        }
    }
    let mut rng = Rng64::seed_from(7111);
    for _ in 0..CASES {
        shapes.push((rng.index(41), rng.index(41), rng.index(61)));
    }
    for (m, n, k) in shapes {
        let mut fill =
            |len: usize| -> Vec<f64> { (0..len).map(|_| rng.uniform_range(-1.0, 1.0)).collect() };
        // One product C = X · Y (X is m×k, Y is k×n), X also in the
        // transposed layout the `t` side of a kernel reads.
        let (x, y, c0) = (fill(m * k), fill(k * n), fill(m * n));
        let alpha = 2.0 * fill(1)[0];
        let xt: Vec<f64> = (0..k * m).map(|i| x[(i % m) * k + i / m]).collect();
        let mut want = vec![0.0; m * n];
        let mut bound = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for l in 0..k {
                    want[i * n + j] += x[i * k + l] * y[l * n + j];
                    bound[i * n + j] += (x[i * k + l] * y[l * n + j]).abs();
                }
            }
        }
        let check = |kernel: &str, got: &[f64], want: &[f64], bound: &[f64]| {
            for (e, ((g, w), b)) in got.iter().zip(want).zip(bound).enumerate() {
                let tol = 4.0 * (k as f64 + 2.0) * f64::EPSILON * b;
                assert!(
                    (g - w).abs() <= tol,
                    "{kernel} {m}x{n}x{k}: element ({}, {}) is {g}, naive {w}",
                    e / n,
                    e % n
                );
            }
        };
        let mut c = vec![f64::NAN; m * n];
        gemm_nn(&x, &y, &mut c, m, n, k);
        check("gemm_nn", &c, &want, &bound);
        c.fill(0.0);
        gemm_tn_acc(&xt, &y, &mut c, m, n, k, 1.0);
        check("gemm_tn_acc at 1", &c, &want, &bound);
        c.copy_from_slice(&c0);
        gemm_tn_acc(&xt, &y, &mut c, m, n, k, alpha);
        let want_acc: Vec<f64> = c0.iter().zip(&want).map(|(c, w)| c + alpha * w).collect();
        let bound_acc: Vec<f64> = c0
            .iter()
            .zip(&bound)
            .map(|(c, b)| c.abs() + alpha.abs() * b)
            .collect();
        check("gemm_tn_acc", &c, &want_acc, &bound_acc);
    }
}

/// The zero-alloc `air_aggregate_into` is bit-identical to the allocating
/// `air_aggregate` on random groups, factors and noise levels — including
/// when its buffers are reused (dirty) across calls of different dimensions.
#[test]
fn air_aggregate_into_is_bit_identical_to_allocating_path() {
    let mut rng = Rng64::seed_from(7102);
    let mut estimate = FlatParams::zeros(0);
    let mut scratch = AirAggregationScratch::new();
    for case in 0..CASES {
        let dim = 1 + rng.index(64);
        let group = 1 + rng.index(6);
        let params: Vec<FlatParams> = (0..group)
            .map(|_| FlatParams((0..dim).map(|_| rng.gaussian()).collect()))
            .collect();
        let inputs: Vec<AirAggregationInput<'_>> = params
            .iter()
            .map(|p| AirAggregationInput {
                data_size: rng.uniform_range(1.0, 50.0),
                channel_gain: rng.uniform_range(0.05, 2.0),
                params: p,
            })
            .collect();
        let sigma = rng.uniform_range(0.1, 2.0);
        let eta = rng.uniform_range(0.1, 4.0);
        let noise = if rng.uniform() < 0.5 {
            0.0
        } else {
            rng.uniform_range(0.0, 1.0)
        };
        let seed = 9000 + case as u64;
        let res = air_aggregate(&inputs, sigma, eta, noise, &mut Rng64::seed_from(seed));
        let stats = air_aggregate_into(
            &inputs,
            sigma,
            eta,
            noise,
            &mut Rng64::seed_from(seed),
            &mut estimate,
            &mut scratch,
        );
        assert_eq!(
            stats.error_norm_sq.to_bits(),
            res.error_norm_sq.to_bits(),
            "case {case}"
        );
        assert_eq!(
            stats.group_data_size.to_bits(),
            res.group_data_size.to_bits()
        );
        for (x, y) in estimate.0.iter().zip(res.group_estimate.0.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "case {case}: estimate diverged");
        }
        for (x, y) in scratch.ideal.0.iter().zip(res.ideal_group_model.0.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "case {case}: ideal diverged");
        }
        assert_eq!(scratch.per_worker_energy, res.per_worker_energy);
    }
}

/// The engines' aggregation core (`air_fold`, fed a cached norm² and sunk
/// straight into the global model by `global_update`) is bit-identical to the
/// public `air_aggregate_indexed_into` followed by Eq. (10) on the whole
/// estimate — global model, per-worker energies, group size and the RNG
/// stream left behind — for odd and even dimensions, with and without noise,
/// from one member to a hundred.
#[test]
fn engine_core_is_bit_identical_to_the_public_aggregate() {
    let mut rng = Rng64::seed_from(7103);
    let mut estimate = FlatParams::zeros(0);
    let mut scratch = AirAggregationScratch::new();
    let mut core_energies: Vec<f64> = Vec::new();
    let groups = [1usize, 2, 3, 7, 30, 100];
    for case in 0..CASES {
        let dim = 1 + rng.index(96) + case % 2; // both parities occur
        let group = groups[case % groups.len()];
        let params: Vec<FlatParams> = (0..group)
            .map(|_| FlatParams((0..dim).map(|_| rng.gaussian()).collect()))
            .collect();
        let sizes: Vec<f64> = (0..group).map(|_| rng.uniform_range(1.0, 50.0)).collect();
        let gains: Vec<f64> = (0..group).map(|_| rng.uniform_range(0.05, 2.0)).collect();
        let norms: Vec<f64> = params.iter().map(FlatParams::norm_sq).collect();
        let global = FlatParams((0..dim).map(|_| rng.gaussian()).collect());
        let input = |k: usize| AirAggregationInput {
            data_size: sizes[k],
            channel_gain: gains[k],
            params: &params[k],
        };
        let sigma = rng.uniform_range(0.1, 2.0);
        let eta = rng.uniform_range(0.1, 4.0);
        let noise = if case % 3 == 0 {
            0.0
        } else {
            rng.uniform_range(0.0, 1.0)
        };
        let total: f64 = sizes.iter().sum::<f64>() * 1.5;
        let mut rng_public = Rng64::seed_from(9100 + case as u64);
        let mut rng_core = Rng64::seed_from(9100 + case as u64);
        let stats = air_aggregate_indexed_into(
            group,
            input,
            sigma,
            eta,
            noise,
            &mut rng_public,
            &mut estimate,
            &mut scratch,
        );
        let mut public_global = global.clone();
        global_update(&mut public_global, stats.group_data_size, total)(0, estimate.as_slice());
        let mut core_global = global.clone();
        let group_size = air_fold(
            group,
            input,
            |k| norms[k],
            sigma,
            eta,
            noise,
            &mut rng_core,
            &mut core_energies,
            global_update(&mut core_global, stats.group_data_size, total),
        );
        let tag = format!("case {case}: dim {dim}, {group} members, noise {noise}");
        assert_eq!(
            group_size.to_bits(),
            stats.group_data_size.to_bits(),
            "{tag}"
        );
        for (x, y) in core_global.0.iter().zip(public_global.0.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{tag}: global diverged");
        }
        assert_eq!(core_energies.len(), group, "{tag}");
        for (x, y) in core_energies.iter().zip(scratch.per_worker_energy.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{tag}: energy diverged");
        }
        assert_eq!(
            rng_core.next_u64(),
            rng_public.next_u64(),
            "{tag}: RNG draws"
        );
    }
}

/// The blocked fold agrees bit for bit with the whole-vector reference —
/// fill, per-member axpy, noise over the whole vector, denoising, then
/// Eq. (10) — on each side of the block edges (q = 1, 511, 512, 513, 1,025)
/// and at the four workloads' model sizes, with noise on and off, and with
/// the exact (OMA) weights `D_i / D_j`. The RNG stream it leaves behind is
/// the reference's too.
#[test]
fn the_blocked_fold_matches_the_whole_vector_reference() {
    // q of mnist_lr, cnn_mnist, cnn_cifar and imagenet_vgg.
    let dims = [1usize, 511, 512, 513, 1025, 8_970, 17_226, 31_946, 80_676];
    let mut rng = Rng64::seed_from(7106);
    for (case, &dim) in dims.iter().enumerate() {
        let group = 1 + case % 4;
        let params: Vec<FlatParams> = (0..group)
            .map(|_| FlatParams((0..dim).map(|_| rng.gaussian()).collect()))
            .collect();
        let sizes: Vec<f64> = (0..group).map(|_| rng.uniform_range(1.0, 50.0)).collect();
        let gains: Vec<f64> = (0..group).map(|_| rng.uniform_range(0.05, 2.0)).collect();
        let global = FlatParams((0..dim).map(|_| rng.gaussian()).collect());
        let inputs: Vec<AirAggregationInput<'_>> = (0..group)
            .map(|k| AirAggregationInput {
                data_size: sizes[k],
                channel_gain: gains[k],
                params: &params[k],
            })
            .collect();
        let (sigma, eta) = (rng.uniform_range(0.1, 2.0), rng.uniform_range(0.1, 4.0));
        let group_data: f64 = sizes.iter().sum();
        let total = group_data * 1.25;
        let same_bits = |a: &FlatParams, b: &FlatParams, what: &str| {
            assert_eq!(a.dim(), b.dim(), "q {dim}: {what}");
            for (i, (x, y)) in a.0.iter().zip(&b.0).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "q {dim}: {what} at {i}");
            }
        };
        for noise in [0.0, 0.7] {
            let seed = 9200 + case as u64;
            let (mut rng_ref, mut rng_fold) = (Rng64::seed_from(seed), Rng64::seed_from(seed));
            let (mut rng_pub, mut estimate) = (Rng64::seed_from(seed), FlatParams::zeros(3));
            let want = air_aggregate(&inputs, sigma, eta, noise, &mut rng_ref);
            let mut want_global = global.clone();
            group_update(&mut want_global, &want.group_estimate, group_data, total);

            let mut folded = global.clone();
            let mut energies = Vec::new();
            air_fold(
                group,
                |k| inputs[k].clone(),
                |k| params[k].norm_sq(),
                sigma,
                eta,
                noise,
                &mut rng_fold,
                &mut energies,
                global_update(&mut folded, group_data, total),
            );
            same_bits(&folded, &want_global, "AirComp global");
            assert_eq!(energies, want.per_worker_energy, "q {dim}");
            assert_eq!(rng_fold.next_u64(), rng_ref.next_u64(), "q {dim}: RNG");

            let mut scratch = AirAggregationScratch::new();
            let stats = air_aggregate_into(
                &inputs,
                sigma,
                eta,
                noise,
                &mut rng_pub,
                &mut estimate,
                &mut scratch,
            );
            same_bits(&estimate, &want.group_estimate, "estimate");
            same_bits(&scratch.ideal, &want.ideal_group_model, "ideal model");
            assert_eq!(stats.error_norm_sq.to_bits(), want.error_norm_sq.to_bits());
            assert_eq!(stats.group_data_size.to_bits(), group_data.to_bits());
        }
        let members: Vec<(f64, &FlatParams)> = sizes.iter().copied().zip(&params).collect();
        let mut want_global = global.clone();
        group_update(
            &mut want_global,
            &exact_aggregate(&members),
            group_data,
            total,
        );
        let mut folded = global.clone();
        let weight = |k: usize| (sizes[k] / group_data, &params[k]);
        fold_group(
            group,
            weight,
            None,
            1.0,
            global_update(&mut folded, group_data, total),
        );
        same_bits(&folded, &want_global, "OMA global");
    }
}

/// `WorkerPool` caches each member's `‖w_i‖²` inside the parallel local
/// update; the cache is the same bits as recomputing it for every member,
/// round after round.
#[test]
fn worker_pool_norm_cache_matches_recomputation() {
    let system = FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(7104));
    let n = system.num_workers();
    let mut pool = WorkerPool::new(&system, &mut Rng64::seed_from(7105));
    let mut dispatch = system.template.params().clone();
    let mut rng = Rng64::seed_from(7106);
    for round in 0..4 {
        let members: Vec<usize> = (0..n).filter(|_| rng.uniform() < 0.6).collect();
        pool.train_members(&members, &dispatch, &system);
        for &w in &members {
            assert_eq!(
                pool.local_norm_sq(w).to_bits(),
                pool.local(w).norm_sq().to_bits(),
                "round {round}, worker {w}"
            );
        }
        if let Some(&w) = members.first() {
            dispatch.clone_from(pool.local(w));
        }
    }
}

/// Whatever buffers `WorkerPool` keeps a round's locals in, each member's
/// `local(w)` and `local_norm_sq(w)` are the bits of a direct
/// `set_params` + `local_update_ws` from the dispatched model on the worker's own
/// stream — forked as `WorkerPool::new` forks it (`fork(w)` in worker order)
/// and advanced only by the rounds the worker trained in — over random member
/// subsets, at the lane count `PARALLEL_THREADS` gives.
#[test]
fn worker_pool_locals_match_direct_updates_on_own_streams() {
    use air_fedga::fedml::optimizer::local_update_ws;
    let system = FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(7130));
    let n = system.num_workers();
    let sgd = &system.config.sgd;
    let mut pool = WorkerPool::new(&system, &mut Rng64::seed_from(7131));
    let mut fork_rng = Rng64::seed_from(7131);
    let mut streams: Vec<Rng64> = (0..n).map(|w| fork_rng.fork(w as u64)).collect();
    let (mut model, mut ws) = (system.fresh_model(), Workspace::new());
    let mut dispatch = system.template.params().clone();
    let mut rng = Rng64::seed_from(7132);
    for round in 0..5 {
        let mut members: Vec<usize> = (0..n).filter(|_| rng.uniform() < 0.5).collect();
        rng.shuffle(&mut members);
        pool.train_members(&members, &dispatch, &system);
        for &w in &members {
            let shard = &system.shards[w];
            let stream = &mut streams[w];
            model.set_params(&dispatch);
            local_update_ws(&mut model, shard, sgd, stream, &mut ws);
            let want = model.params();
            let tag = format!("round {round}, worker {w}");
            assert_eq!(
                pool.local_norm_sq(w).to_bits(),
                want.norm_sq().to_bits(),
                "{tag}: norm²"
            );
            for (c, (x, y)) in pool.local(w).0.iter().zip(want.0.iter()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{tag}: param {c}");
            }
        }
        if let Some(&w) = members.last() {
            dispatch.clone_from(pool.local(w));
        }
    }
}

/// A model instance and a `Workspace` are pure training scratch: the update
/// starts with `set_params`, which overwrites every weight and bias, and every
/// `Workspace` caller overwrites what it checks out. So scratch that just
/// trained worker `a` and evaluated the test set trains worker `b` to the
/// bits fresh scratch gives — for every model kind, and across shards of
/// different lengths (the stale buffers have other shapes). `WorkerPool`
/// rests on this invariant: a row's model trains whichever member holds the
/// row this round, and a lane's workspace serves every member of its run.
#[test]
fn reused_training_scratch_gives_the_bits_of_fresh_scratch() {
    use air_fedga::fedml::model::ModelKind;
    use air_fedga::fedml::optimizer::local_update_ws;
    for kind in [
        ModelKind::PaperLr,
        ModelKind::CnnMnist,
        ModelKind::CnnCifar,
        ModelKind::Vgg16,
        ModelKind::ConvexLr,
    ] {
        let mut cfg = FlSystemConfig::mnist_lr_quick();
        cfg.model = kind;
        cfg.partitioner = Partitioner::Dirichlet { alpha: 0.5 };
        let system = cfg.build(&mut Rng64::seed_from(7120));
        let sgd = &system.config.sgd;
        // `a` trains from another start than `b`, so `b`'s `set_params` has
        // something to overwrite.
        let start_b = system.template.params().clone();
        let start_a = FlatParams(start_b.0.iter().map(|x| 0.5 * x + 0.01).collect());
        // Worker `w`'s update from `start`, drawing from `w`'s own stream.
        let train = |model: &mut Mlp, start: &FlatParams, w: usize, ws: &mut Workspace| {
            let rng = &mut Rng64::seed_from(7121 + w as u64);
            model.set_params(start);
            let loss = local_update_ws(model, &system.shards[w], sgd, rng, ws);
            (loss, model.params().clone())
        };
        let pairs: Vec<(usize, usize)> = (0..4)
            .flat_map(|a| (0..4).map(move |b| (a, b)))
            .filter(|&(a, b)| system.shards[a].len() != system.shards[b].len())
            .collect();
        assert!(pairs.len() >= 6, "{kind:?}: too few uneven pairs");
        for (a, b) in pairs {
            let (mut reused, mut ws) = (system.fresh_model(), Workspace::new());
            train(reused.as_mut(), &start_a, a, &mut ws);
            reused.evaluate_ws(&system.test, &mut ws);
            let (loss, local) = train(reused.as_mut(), &start_b, b, &mut ws);
            let (want_loss, want) = train(
                system.fresh_model().as_mut(),
                &start_b,
                b,
                &mut Workspace::new(),
            );
            let tag = format!("{kind:?}: worker {b} after worker {a}");
            assert_eq!(loss.to_bits(), want_loss.to_bits(), "{tag}: loss");
            for (c, (x, y)) in local.0.iter().zip(want.0.iter()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{tag}: param {c}");
            }
        }
    }
}

/// 25 rounds of Air-FedGA, Air-FedAvg and Dynamic, fault-free and churned,
/// in the run store's bit-exact text encoding, against the traces the engines
/// produced before the aggregation was split into core + ideal layer and the
/// norm² cache was introduced (`tests/golden/engine_traces_25r.txt`, written
/// by this same code at the commit before that change).
#[test]
fn engine_traces_match_the_pinned_golden_file() {
    assert_eq!(
        render_engine_traces(),
        include_str!("golden/engine_traces_25r.txt"),
        "an engine's 25-round trace changed bits"
    );
}

fn render_engine_traces() -> String {
    let churn = air_fedga::faults::FaultSpec {
        dropout_rate: 0.002,
        mean_downtime: 60.0,
        straggler_fraction: 0.3,
        straggler_slowdown: 3.0,
        outage_rate: 0.001,
        outage_duration: 20.0,
        deadline: Some(400.0),
        ..air_fedga::faults::FaultSpec::none()
    };
    let mechanisms = [
        MechanismChoice::AirFedGa,
        MechanismChoice::AirFedAvg,
        MechanismChoice::Dynamic,
    ]
    .map(|choice| choice.build(25, 1, None));
    let mut out = String::new();
    for faults in [air_fedga::faults::FaultSpec::none(), churn] {
        let mut cfg = FlSystemConfig::mnist_lr_quick();
        cfg.faults = faults;
        let system = cfg.build(&mut Rng64::seed_from(7107));
        for mechanism in &mechanisms {
            let trace = mechanism.run(&system, &mut Rng64::seed_from(7108));
            out.push_str(&runstore::encode_trace(&trace));
        }
    }
    out
}

/// `run_grid` (experiment-level parallelism) returns exactly what the
/// sequential loop over the same cells returns, bit for bit, including when
/// every cell runs a full engine round with inner member parallelism (the
/// nested two-level fan-out of the scalability sweep).
#[test]
fn run_grid_with_nested_rounds_matches_sequential_loop() {
    let mut cfg = FlSystemConfig::mnist_lr_quick();
    cfg.num_workers = 6;
    let system = cfg.build(&mut Rng64::seed_from(4));
    let grouping = Grouping::new(vec![vec![0, 1, 2], vec![3, 4, 5]], 6);
    let run_cell = |seed: u64| -> Vec<u64> {
        let opts = EngineOptions {
            total_rounds: 6,
            eval_every: 2,
            max_virtual_time: None,
        };
        run_group_async(
            &system,
            &grouping,
            AggregationMode::AirComp,
            &opts,
            "cell",
            &mut Rng64::seed_from(seed),
        )
        .points()
        .iter()
        .flat_map(|p| {
            [
                p.loss.to_bits(),
                p.accuracy.to_bits(),
                p.time.to_bits(),
                p.energy.to_bits(),
            ]
        })
        .collect()
    };
    let cells: Vec<u64> = (100..108).collect();
    let grid = experiments::harness::run_grid(cells.clone(), run_cell);
    let seq: Vec<Vec<u64>> = cells.into_iter().map(run_cell).collect();
    assert_eq!(grid, seq);
}

/// A fault plan that is enabled yet can never bite — no churn, no straggler,
/// no outage, and a deadline no round reaches — must leave every mechanism's
/// trace exactly as the empty plan leaves it: a round's wait and participants
/// are computed one way, through the plan, and only the fault log tells the
/// two runs apart. Fails if a second, fault-free schedule ever comes back and
/// drifts from the first.
#[test]
fn a_harmless_fault_plan_changes_no_bit_of_any_mechanism() {
    use air_fedga::faults::FaultSpec;
    let harmless = FaultSpec {
        deadline: Some(1e9),
        ..FaultSpec::none()
    };
    let [clean, armed] = [FaultSpec::none(), harmless].map(|faults| {
        let mut cfg = FlSystemConfig::mnist_lr_quick();
        cfg.faults = faults;
        cfg.build(&mut Rng64::seed_from(7112))
    });
    assert!(!clean.faults.enabled() && armed.faults.enabled());
    for choice in MechanismChoice::all() {
        let mechanism = choice.build(20, 1, None);
        let a = mechanism.run(&clean, &mut Rng64::seed_from(7113));
        let b = mechanism.run(&armed, &mut Rng64::seed_from(7113));
        let name = choice.label();
        assert_eq!(a.points().len(), 21, "{name}");
        assert_eq!(b.points().len(), 21, "{name}");
        for (pa, pb) in a.points().iter().zip(b.points()) {
            assert_eq!(pa.round, pb.round, "{name}");
            assert_eq!(pa.time.to_bits(), pb.time.to_bits(), "{name}");
            assert_eq!(pa.loss.to_bits(), pb.loss.to_bits(), "{name}");
            assert_eq!(pa.accuracy.to_bits(), pb.accuracy.to_bits(), "{name}");
            assert_eq!(pa.energy.to_bits(), pb.energy.to_bits(), "{name}");
        }
        assert!(a.faults.is_empty(), "{name}: a fault-free run logged");
        assert_eq!(b.faults.rounds_attempted, 20, "{name}");
        assert_eq!(b.faults.participation_rate(), 1.0, "{name}");
        assert!(b.faults.events.is_empty(), "{name}");
    }
}

/// One round of [`replay_group_async`]: which group aggregated, when it was
/// dispatched and closed, and who delivered an update.
struct ReplayedRound {
    group: usize,
    dispatch: f64,
    ready: f64,
    participants: Vec<usize>,
}

/// The group-asynchronous schedule under the system's fault plan, worked out
/// from the public plan queries alone — an oracle for the engine's scheduling
/// with the AirComp back-end (upload latency independent of the group). Every
/// shard of the quick system holds data, so a round is skipped exactly when
/// nobody delivers.
fn replay_group_async(
    system: &air_fedga::airfedga::system::FlSystem,
    grouping: &Grouping,
    rounds: usize,
) -> Vec<ReplayedRound> {
    let faults = &system.faults;
    let upload = system.aircomp_aggregation_time();
    let broadcast = system.config.wireless.broadcast_latency;
    let work = |w: usize| system.local_training_time(w) * faults.slowdown(w);
    // How long a group dispatched at `t` stays open: until its slowest member
    // that is up at `t` finishes (all members when nobody is up), or the
    // deadline.
    let wait = |j: usize, t: f64| {
        let slowest = |up_only: bool| {
            let members = grouping.group(j).iter().copied();
            members
                .filter(|&w| !up_only || faults.available(w, t))
                .map(work)
                .fold(0.0, f64::max)
        };
        let up = slowest(true);
        let open = if up > 0.0 { up } else { slowest(false) };
        faults.deadline().map_or(open, |d| open.min(d))
    };
    let mut queue = air_fedga::simcore::events::EventQueue::new();
    for j in 0..grouping.num_groups() {
        queue.push(wait(j, 0.0), (j, 0.0));
    }
    let mut replayed = Vec::new();
    for _ in 0..rounds {
        let (ready, (group, dispatch)) = queue.pop().expect("every group is always pending");
        let members = grouping.group(group).iter().copied();
        let participants: Vec<usize> = members
            .filter(|&w| {
                faults.available(w, dispatch)
                    && faults.available(w, ready)
                    && !faults.in_outage(w, ready)
                    && dispatch + work(w) <= ready + 1e-9
            })
            .collect();
        let closed = if participants.is_empty() {
            ready
        } else {
            ready + upload
        };
        let next = closed + broadcast;
        queue.push(next + wait(group, next), (group, next));
        replayed.push(ReplayedRound {
            group,
            dispatch,
            ready,
            participants,
        });
    }
    replayed
}

/// Fault-path invariants of the engine on a churned system, against the
/// replayed schedule: no round consumes a worker the plan marks down when its
/// group is dispatched or when it aggregates (or whose channel is out then),
/// the `FaultLog` totals are the sums over the rounds, every skipped round is
/// logged at the instant it closed, and every aggregation lands at the
/// replayed time, bit for bit.
#[test]
fn churned_rounds_never_consume_a_down_worker_and_the_fault_log_adds_up() {
    const ROUNDS: usize = 60;
    let mut cfg = FlSystemConfig::mnist_lr_quick();
    cfg.faults = air_fedga::faults::FaultSpec {
        dropout_rate: 0.004,
        mean_downtime: 150.0,
        straggler_fraction: 0.3,
        straggler_slowdown: 3.0,
        outage_rate: 0.002,
        outage_duration: 30.0,
        deadline: Some(120.0),
        ..air_fedga::faults::FaultSpec::none()
    };
    let system = cfg.build(&mut Rng64::seed_from(7114));
    let mechanism = AirFedGa::new(AirFedGaConfig {
        total_rounds: ROUNDS,
        eval_every: 1,
        ..AirFedGaConfig::default()
    });
    let groupings = [
        mechanism.grouping_for(&system),
        Grouping::single_group(system.num_workers()),
    ];
    let upload = system.aircomp_aggregation_time();
    for grouping in &groupings {
        let rounds = replay_group_async(&system, grouping, ROUNDS);
        for (r, round) in rounds.iter().enumerate() {
            for &w in &round.participants {
                for t in [round.dispatch, round.ready] {
                    assert!(system.faults.available(w, t), "round {r}: {w} down at {t}");
                }
                assert!(!system.faults.in_outage(w, round.ready), "round {r}: {w}");
            }
        }
        let trace = mechanism.run_with_grouping(&system, grouping, &mut Rng64::seed_from(7115));
        let log = &trace.faults;
        let delivered = |r: &&ReplayedRound| !r.participants.is_empty();
        let members = |r: &ReplayedRound| grouping.group(r.group).len();
        assert_eq!(log.rounds_attempted, ROUNDS);
        assert_eq!(
            log.rounds_aggregated,
            rounds.iter().filter(delivered).count()
        );
        assert_eq!(
            log.participants_total,
            rounds.iter().map(|r| r.participants.len()).sum::<usize>()
        );
        assert_eq!(log.members_total, rounds.iter().map(members).sum::<usize>());
        assert!(
            log.participants_total < log.members_total,
            "the churn never bit: the property checked nothing"
        );
        let skipped: Vec<(u64, usize, usize)> = (rounds.iter().zip(1..))
            .filter(|(r, _)| r.participants.is_empty())
            .map(|(r, number)| (r.ready.to_bits(), number, r.group))
            .collect();
        let logged: Vec<(u64, usize, usize)> = (log.events.iter())
            .map(|e| (e.time.to_bits(), e.round, e.group))
            .collect();
        assert_eq!(logged, skipped);
        // Round 0 is the initial model; with `eval_every = 1` every round
        // that aggregated has a point, and a skipped one has none.
        let aggregated: Vec<(usize, u64)> = (rounds.iter().zip(1..))
            .filter(|(r, _)| !r.participants.is_empty())
            .map(|(r, number)| (number, (r.ready + upload).to_bits()))
            .collect();
        let traced: Vec<(usize, u64)> = (trace.points()[1..].iter())
            .map(|p| (p.round, p.time.to_bits()))
            .collect();
        assert_eq!(traced, aggregated);
    }
}
