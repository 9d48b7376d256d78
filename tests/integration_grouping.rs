//! Integration tests for the grouping pipeline: Table III's EMD ordering,
//! Fig. 7's latency-clustering property and Table I's training-free
//! proxies, exercised through the public API exactly the way the examples
//! use it.

use air_fedga::airfedga::mechanism::{AirFedGa, AirFedGaConfig};
use air_fedga::airfedga::system::{FlSystem, FlSystemConfig};
use air_fedga::fedml::rng::Rng64;
use air_fedga::grouping::emd::average_group_emd;
use air_fedga::grouping::objective::{GroupingObjective, ObjectiveConstants};
use air_fedga::grouping::tifl::{default_tier_count, tifl_grouping};
use air_fedga::grouping::worker_info::{Grouping, WorkerInfo};

fn paper_like_system(num_workers: usize, seed: u64) -> FlSystem {
    let mut cfg = FlSystemConfig::mnist_cnn();
    cfg.num_workers = num_workers;
    cfg.dataset.samples_per_class = 10 * num_workers / cfg.dataset.num_classes;
    cfg.test_per_class = 10;
    cfg.build(&mut Rng64::seed_from(seed))
}

#[test]
fn table3_emd_ordering_original_tifl_airfedga() {
    let system = paper_like_system(100, 42);
    let workers = &system.worker_infos;

    let original = average_group_emd(&Grouping::singletons(100), workers);
    let tifl = average_group_emd(&tifl_grouping(workers, default_tier_count(100)), workers);
    let airfedga_grouping = AirFedGa::new(AirFedGaConfig::default()).grouping_for(&system);
    let airfedga = average_group_emd(&airfedga_grouping, workers);

    // Paper values: 1.8 / 0.69 / 0.21. We assert the ordering and the rough
    // magnitudes rather than the exact numbers.
    assert!((original - 1.8).abs() < 1e-6, "original EMD {original}");
    assert!(
        tifl < original && tifl > airfedga,
        "expected airfedga ({airfedga:.3}) < tifl ({tifl:.3}) < original ({original:.3})"
    );
    assert!(
        airfedga < 0.5,
        "Air-FedGA grouping EMD {airfedga:.3} should be well below the original 1.8"
    );
}

#[test]
fn fig7_groups_cluster_similar_latencies_at_xi_03() {
    let system = paper_like_system(100, 7);
    let mech = AirFedGa::new(AirFedGaConfig {
        xi: 0.3,
        ..AirFedGaConfig::default()
    });
    let grouping = mech.grouping_for(&system);
    assert!(grouping.num_groups() > 1);

    let spread = WorkerInfo::latency_spread(&system.worker_infos);
    for j in 0..grouping.num_groups() {
        let lat: Vec<f64> = grouping
            .group(j)
            .iter()
            .map(|&w| system.local_training_time(w))
            .collect();
        let max = lat.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = lat.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max - min <= 0.3 * spread + 1e-9,
            "group {j} spans {min:.1}..{max:.1}s which violates xi = 0.3 (spread {spread:.1})"
        );
    }
    // And the constraint checker agrees.
    let objective = GroupingObjective::new(
        system.aircomp_aggregation_time(),
        0.3,
        ObjectiveConstants::default(),
    );
    assert!(objective.satisfies_xi(&grouping, &system.worker_infos));
}

/// The two Table I columns that need no training, computed as the
/// `table1_comparison` example computes them: AirComp's upload air-time
/// beats OMA's per tier, which beats OMA's with everyone uploading; and the
/// median worker idles less inside its Air-FedGA group than in a
/// synchronous round that waits for the slowest worker.
#[test]
fn table1_aircomp_uploads_fastest_and_grouping_cuts_idle_time() {
    let n = 60;
    let system = paper_like_system(n, 42);
    let workers = &system.worker_infos;

    let dim = system.model_dim();
    let wireless = &system.config.wireless;
    let aircomp = wireless.aircomp_aggregation_time(dim);
    let oma_tier = wireless.oma_round_upload_time(dim, n / default_tier_count(n).max(1));
    let oma_full = wireless.oma_round_upload_time(dim, n);
    assert!(
        aircomp < oma_tier && oma_tier < oma_full,
        "upload air-time: AirComp {aircomp:.3}s, OMA tier {oma_tier:.3}s, OMA full {oma_full:.3}s"
    );

    let mut latencies: Vec<f64> = (0..n).map(|i| system.local_training_time(i)).collect();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let idle_sync = 1.0 - latencies[n / 2] / latencies[n - 1];
    let grouping = AirFedGa::new(AirFedGaConfig::default()).grouping_for(&system);
    let mut fractions: Vec<f64> = (0..grouping.num_groups())
        .flat_map(|j| {
            let slowest = grouping.group_max_latency(j, workers);
            grouping
                .group(j)
                .iter()
                .map(move |&w| 1.0 - workers[w].local_training_time / slowest)
        })
        .collect();
    fractions.sort_by(|a, b| a.total_cmp(b));
    let idle_airfedga = fractions[fractions.len() / 2];
    assert!(
        idle_airfedga < idle_sync,
        "median idle fraction: Air-FedGA {idle_airfedga:.3}, synchronous {idle_sync:.3}"
    );
}

#[test]
fn xi_extremes_change_group_count_as_in_fig8() {
    // xi = 0 forces (near-)singleton groups; xi = 1 allows few, large groups.
    let system = paper_like_system(60, 9);
    let tight = AirFedGa::new(AirFedGaConfig {
        xi: 0.0,
        ..AirFedGaConfig::default()
    })
    .grouping_for(&system);
    let loose = AirFedGa::new(AirFedGaConfig {
        xi: 1.0,
        ..AirFedGaConfig::default()
    })
    .grouping_for(&system);
    assert!(
        tight.num_groups() > loose.num_groups(),
        "xi=0 produced {} groups, xi=1 produced {}",
        tight.num_groups(),
        loose.num_groups()
    );
    assert_eq!(tight.num_groups(), 60, "xi = 0 should isolate every worker");
}

#[test]
fn grouping_objective_prefers_algorithm3_over_naive_groupings() {
    let system = paper_like_system(50, 13);
    let objective = GroupingObjective::new(
        system.aircomp_aggregation_time(),
        0.3,
        ObjectiveConstants::default(),
    );
    let alg3 = AirFedGa::new(AirFedGaConfig::default()).grouping_for(&system);
    let singletons = Grouping::singletons(50);
    let value_alg3 = objective.evaluate(&alg3, &system.worker_infos);
    let value_singletons = objective.evaluate(&singletons, &system.worker_infos);
    assert!(value_alg3.is_finite());
    assert!(
        value_alg3 <= value_singletons,
        "Algorithm 3 ({value_alg3:.1}) should not be worse than singletons ({value_singletons:.1})"
    );
}
