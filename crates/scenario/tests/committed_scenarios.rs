//! Every committed scenario under `scenarios/` must parse, validate, and
//! carry the shape its figure (or novel workload) expects — a spec that
//! drifts from the registry or the format fails here, not at run time in CI.

use airfedga::system::FlSystemConfig;
use experiments::harness::MechanismChoice;
use scenario::spec::expand_grid;
use scenario::{ScenarioKind, ScenarioSpec};
use std::fs;
use std::path::Path;

const FIG3: &str = include_str!("../../../scenarios/fig3.toml");
const FIG4: &str = include_str!("../../../scenarios/fig4.toml");
const FIG5: &str = include_str!("../../../scenarios/fig5.toml");
const FIG6: &str = include_str!("../../../scenarios/fig6.toml");
const FIG8: &str = include_str!("../../../scenarios/fig8.toml");
const FIG9: &str = include_str!("../../../scenarios/fig9.toml");
const FIG9_CIFAR: &str = include_str!("../../../scenarios/fig9_cifar.toml");
const FIG10: &str = include_str!("../../../scenarios/fig10.toml");
const JOINT: &str = include_str!("../../../scenarios/joint_xi_workers.toml");
const DIRICHLET: &str = include_str!("../../../scenarios/dirichlet_cifar_all.toml");
const WATCHDOG: &str = include_str!("../../../scenarios/watchdog_smoke.toml");

/// The directory, not a list: a spec is covered the day it is committed.
#[test]
fn every_committed_scenario_parses_and_validates() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut names = Vec::new();
    for path in fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        if path.extension().is_none_or(|e| e != "toml") {
            continue;
        }
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let spec = ScenarioSpec::parse(&fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("scenarios/{name}.toml failed to parse: {e}"));
        assert_eq!(spec.name, name, "scenario name must match its file name");
        names.push(name);
    }
    assert!(names.len() >= 13, "only {names:?}");
}

#[test]
fn fig3_spec_matches_the_historical_binary_shape() {
    let spec = ScenarioSpec::parse(FIG3).unwrap();
    assert_eq!(spec.kind, ScenarioKind::TimeAccuracy);
    assert_eq!(
        spec.title,
        "Fig. 3: LR on MNIST-like (loss/accuracy vs time)"
    );
    assert_eq!(spec.csv_prefix, "fig3");
    // The historical aircomp trio, in the paper's comparison order.
    assert_eq!(
        spec.mechanisms,
        vec![
            MechanismChoice::Dynamic,
            MechanismChoice::AirFedAvg,
            MechanismChoice::AirFedGa
        ]
    );
    assert_eq!(spec.accuracy_targets, vec![0.8, 0.85, 0.9]);
    assert_eq!(spec.speedup_target, Some(0.8));
    // Historical seeds: system 42, run 4242, single replicate.
    assert_eq!(spec.system_seed, 42);
    assert_eq!(spec.run_seed, 4242);
    assert_eq!(spec.num_seeds, 1);
    assert!(!spec.vary_system);
    // The workload preset is the paper's headline config.
    assert_eq!(spec.base_config.num_workers, 100);
    assert_eq!(spec.base_config.dataset.name, "mnist-like");
}

/// Figs. 4–6 were binaries until the one-runner refactor; their specs carry
/// the binaries' titles, workloads, targets, CSV prefixes and speed-up
/// targets verbatim.
#[test]
fn fig4_to_fig6_specs_match_the_historical_binary_shapes() {
    let expected = [
        (
            FIG4,
            "Fig. 4: CNN on MNIST-like (loss/accuracy vs time)",
            "fig4",
            FlSystemConfig::mnist_cnn(),
            [0.8, 0.85, 0.9],
            0.8,
        ),
        (
            FIG5,
            "Fig. 5: CNN on CIFAR-10-like (loss/accuracy vs time)",
            "fig5",
            FlSystemConfig::cifar_cnn(),
            [0.45, 0.5, 0.55],
            0.5,
        ),
        (
            FIG6,
            "Fig. 6: VGG-16 surrogate on ImageNet-100-like (loss/accuracy vs time)",
            "fig6",
            FlSystemConfig::imagenet_vgg(),
            [0.3, 0.4, 0.5],
            0.4,
        ),
    ];
    for (src, title, csv_prefix, workload, targets, speedup) in expected {
        let spec = ScenarioSpec::parse(src).unwrap();
        assert_eq!(spec.kind, ScenarioKind::TimeAccuracy);
        assert_eq!(spec.title, title);
        assert_eq!(spec.csv_prefix, csv_prefix);
        assert_eq!(spec.mechanisms, MechanismChoice::aircomp_trio());
        assert_eq!(spec.accuracy_targets, targets);
        assert_eq!(spec.speedup_target, Some(speedup));
        assert!(spec.energy_targets.is_empty());
        // Historical seeds and replication, and the preset untouched.
        assert_eq!((spec.system_seed, spec.run_seed), (42, 4242));
        assert_eq!(spec.num_seeds, 1);
        assert!(!spec.vary_system);
        assert_eq!(spec.num_workers, None);
        assert_eq!(spec.base_config.dataset.name, workload.dataset.name);
        assert_eq!(spec.base_config.model, workload.model);
        assert_eq!(spec.base_config.num_workers, workload.num_workers);
    }
}

#[test]
fn fig9_specs_match_the_historical_binary_panels() {
    let mnist = ScenarioSpec::parse(FIG9).unwrap();
    let cifar = ScenarioSpec::parse(FIG9_CIFAR).unwrap();
    for spec in [&mnist, &cifar] {
        assert_eq!(spec.kind, ScenarioKind::TimeAccuracy);
        // The historical trio, and the energy table over the same targets
        // the figure itself tracks.
        assert_eq!(
            spec.mechanisms,
            vec![
                MechanismChoice::Dynamic,
                MechanismChoice::AirFedAvg,
                MechanismChoice::AirFedGa
            ]
        );
        assert_eq!(spec.energy_targets, spec.accuracy_targets);
        assert!(spec.speedup_target.is_none());
        assert_eq!(spec.num_seeds, 1);
    }
    // The historical panel labels, titles and CSV prefixes, verbatim.
    assert_eq!(mnist.accuracy_targets, vec![0.8, 0.85, 0.9]);
    assert_eq!(mnist.energy_label.as_deref(), Some("CNN on MNIST-like"));
    assert_eq!(mnist.csv_prefix, "fig9_cnn_on_mnist_like");
    assert_eq!(
        mnist.title,
        "Fig. 9 (CNN on MNIST-like): energy to reach target accuracy"
    );
    assert_eq!(cifar.accuracy_targets, vec![0.45, 0.5, 0.55]);
    assert_eq!(cifar.energy_label.as_deref(), Some("CNN on CIFAR-10-like"));
    assert_eq!(cifar.csv_prefix, "fig9_cnn_on_cifar_10_like");
    assert_eq!(
        cifar.title,
        "Fig. 9 (CNN on CIFAR-10-like): energy to reach target accuracy"
    );
}

#[test]
fn fig8_and_fig10_keep_scale_dependent_default_grids() {
    let fig8 = ScenarioSpec::parse(FIG8).unwrap();
    assert_eq!(fig8.kind, ScenarioKind::XiSweep);
    assert!(
        fig8.sweep_xi.is_none(),
        "fig8 must use the scale default grid"
    );
    assert!(fig8.mechanisms.is_empty());

    let fig10 = ScenarioSpec::parse(FIG10).unwrap();
    assert_eq!(fig10.kind, ScenarioKind::Scalability);
    assert!(fig10.sweep_num_workers.is_none());
    assert_eq!(fig10.mechanisms.len(), 5);
    assert_eq!(fig10.mechanisms[0], MechanismChoice::FedAvg);
    assert_eq!(fig10.accuracy_targets, vec![0.8]);
    assert_eq!(fig10.per_worker_samples, 30);
}

#[test]
fn novel_scenarios_cover_combinations_no_binary_exposes() {
    let joint = ScenarioSpec::parse(JOINT).unwrap();
    assert_eq!(joint.kind, ScenarioKind::Grid);
    let cells = expand_grid(&joint);
    // 2 worker counts x 3 xi x 2 mechanisms, N outermost.
    assert_eq!(cells.len(), 12);
    assert_eq!(cells[0].num_workers, Some(10));
    assert_eq!(cells[11].num_workers, Some(16));
    assert_eq!(cells[11].xi, Some(0.8));
    assert_eq!(cells[11].mechanism, MechanismChoice::AirFedGa);

    let dirichlet = ScenarioSpec::parse(DIRICHLET).unwrap();
    assert_eq!(dirichlet.kind, ScenarioKind::TimeAccuracy);
    assert_eq!(dirichlet.mechanisms.len(), 5);
    assert_eq!(
        dirichlet.base_config.partitioner,
        fedml::partition::Partitioner::Dirichlet { alpha: 0.3 }
    );
}

#[test]
fn watchdog_smoke_hangs_with_a_small_timeout_and_no_retry() {
    let spec = ScenarioSpec::parse(WATCHDOG).unwrap();
    assert_eq!(spec.kind, ScenarioKind::Grid);
    assert_eq!(spec.base_config.faults.inject_hang_round, Some(2));
    assert_eq!(expand_grid(&spec).len(), 1);
    let limits = spec.limits.expect("watchdog smoke needs [limits]");
    // The timeout must be small (CI waits it out) and retries disabled (a
    // hang would just hang again). The run itself is the watchdog smoke of
    // the `committed-specs` job in `.github/workflows/ci.yml`, which asserts
    // a single timely failure.
    let timeout = limits
        .cell_timeout_secs
        .expect("watchdog smoke needs a cell timeout");
    assert!(timeout <= 5.0, "keep the smoke timeout CI-friendly");
    assert_eq!(limits.max_retries, Some(0));
}

/// The spec decoder is total: every strict prefix of every committed spec, and
/// single-byte substitutions from a set of TOML-significant bytes (plus 0xFF,
/// read lossily as U+FFFD), return `Ok` or `Err` — never a panic. The byte set
/// is subsampled to keep tier-1 fast: position `i` takes the 2 of its 12 bytes
/// starting at `2·i mod 12`, so every byte lands on every sixth position. The
/// full sweep (all 12 bytes everywhere, 110,136 inputs) takes ≈ 6 s unoptimised
/// and passes too.
#[test]
fn the_spec_decoder_never_panics_on_truncated_or_corrupted_committed_specs() {
    const SUBSTITUTES: &[u8] = b"\"[]=\n0-.e# \xFF";
    const PER_POSITION: usize = 2;
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let (mut inputs, mut panics) = (0, Vec::new());
    for path in fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        if path.extension().is_none_or(|e| e != "toml") {
            continue;
        }
        let src = fs::read(&path).unwrap();
        let prefixes = (0..src.len()).map(|n| src[..n].to_vec());
        let substitutions = (0..src.len()).flat_map(|at| {
            let src = &src;
            (0..PER_POSITION).map(move |k| {
                let mut bytes = src.clone();
                bytes[at] = SUBSTITUTES[(PER_POSITION * at + k) % SUBSTITUTES.len()];
                bytes
            })
        });
        for bytes in prefixes.chain(substitutions) {
            inputs += 1;
            let text = String::from_utf8_lossy(&bytes);
            if std::panic::catch_unwind(|| ScenarioSpec::parse(&text)).is_err() {
                panics.push(format!("{}: {text:?}", path.display()));
            }
        }
    }
    assert!(inputs > 25_000, "only {inputs} inputs");
    assert!(
        panics.is_empty(),
        "{} of {inputs} panicked, first: {}",
        panics.len(),
        panics[0]
    );
}
