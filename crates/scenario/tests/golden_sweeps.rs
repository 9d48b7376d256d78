//! The two sweep kinds and a small grid replayed against CSV bytes pinned
//! under `golden/`.
//!
//! The golden files were written by `airfedga-run --results-dir` at the
//! commit *before* the change they guard (quick scale; seeds 1, seeds 2, and
//! seeds 2 with `--system-seeds`): `xi_sweep` and `scalability` before they
//! moved from the aborting inline path onto the one replicate runner, `grid`
//! before the runner began training each distinct replicate once. So this
//! test is what says those changes — and any later one to the runner, the
//! drivers or the flattened cell layout — left the output alone.

use experiments::scale::Scale;
use scenario::run::execute;
use scenario::{CliOverrides, ScenarioSpec, StoreMode};
use std::path::Path;

const XI_SWEEP: &str = include_str!("golden/xi_sweep.toml");
const SCALABILITY: &str = include_str!("golden/scalability.toml");
const GRID: &str = include_str!("golden/grid.toml");

/// The `.run` files under a store root holding one spec.
fn run_files(store_root: &Path) -> Vec<std::path::PathBuf> {
    let spec_dir = std::fs::read_dir(store_root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.is_dir())
        .expect("one spec directory");
    let mut files: Vec<_> = std::fs::read_dir(spec_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "run"))
        .collect();
    files.sort();
    files
}

/// The file of the stored replicate of `(cell, run_seed)`, found through the
/// journal's `<key> cell=<ci> run_seed=<seed> …` line.
fn replicate_file(store_root: &Path, cell: usize, run_seed: u64) -> std::path::PathBuf {
    let spec_dir = run_files(store_root)[0].parent().unwrap().to_path_buf();
    let journal = std::fs::read_to_string(spec_dir.join("journal")).unwrap();
    let needle = format!(" cell={cell} run_seed={run_seed} ");
    let line = journal
        .lines()
        .find(|l| l.contains(&needle))
        .expect("replicate was journalled");
    let key = line.split(' ').next().unwrap();
    spec_dir.join(format!("{key}.run"))
}

#[test]
fn sweep_kinds_reproduce_the_pinned_csv_bytes() {
    let out = std::env::temp_dir().join(format!("scenario_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let variants: [(&str, Option<usize>, bool); 3] = [
        ("s1", None, false),
        ("s2", Some(2), false),
        ("s2sys", Some(2), true),
    ];
    for (kind, src, csv) in [
        ("xi_sweep", XI_SWEEP, "golden_xi_xi_sweep.csv"),
        ("scalability", SCALABILITY, "golden_scal_scalability.csv"),
        ("grid", GRID, "golden_grid_grid.csv"),
    ] {
        let spec = ScenarioSpec::parse(src).unwrap();
        for (variant, seeds, system_seeds) in variants {
            let cli = CliOverrides {
                seeds,
                system_seeds,
                results_dir: Some(out.clone()),
                ..CliOverrides::default()
            };
            let report = execute(&spec, Scale::Quick, &cli).unwrap();
            assert!(report.is_clean(), "{}", report.failure_report());
            let golden = format!(
                "{}/tests/golden/{kind}_{variant}.csv",
                env!("CARGO_MANIFEST_DIR")
            );
            assert_eq!(
                String::from_utf8(std::fs::read(out.join(csv)).unwrap()).unwrap(),
                std::fs::read_to_string(&golden).unwrap(),
                "{kind} ({variant}) no longer matches {golden}"
            );
        }
    }

    // The grid again with a run store. Its cells are N=10 × xi {0.3, 0.8} ×
    // {FedAvg, Air-FedAvg, Air-FedGA}: FedAvg (cells 0, 3) and Air-FedAvg
    // (cells 1, 4) have no xi, so per seed the first of each pair leads and
    // the second takes its result — and the store must not be able to tell.
    let spec = ScenarioSpec::parse(GRID).unwrap();
    let store_root = out.join("store");
    let golden = format!("{}/tests/golden/grid_s2.csv", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(golden).unwrap();
    let run = |store: StoreMode| {
        let cli = CliOverrides {
            seeds: Some(2),
            store,
            store_root: Some(store_root.clone()),
            results_dir: Some(out.clone()),
            ..CliOverrides::default()
        };
        let report = execute(&spec, Scale::Quick, &cli).unwrap();
        assert!(report.is_clean(), "{}", report.failure_report());
        let csv = std::fs::read_to_string(out.join("golden_grid_grid.csv")).unwrap();
        assert_eq!(
            csv, golden,
            "grid ({store:?}) no longer matches grid_s2.csv"
        );
        let stats = report.cache.expect("store was active");
        (
            (stats.hits, stats.misses, report.shared_replicates),
            stats.corrupt_degraded,
            report.copied_replicates,
        )
    };
    // Every `.run` file's path and bytes.
    let files = || -> Vec<(std::path::PathBuf, Vec<u8>)> {
        let files = run_files(&store_root).into_iter();
        files
            .map(|f| (f.clone(), std::fs::read(f).unwrap()))
            .collect()
    };
    assert_eq!(run(StoreMode::Fresh), ((0, 12, 4), 0, 0));
    let fresh = files();
    assert_eq!(fresh.len(), 12);
    // Lose one follower (FedAvg at xi=0.8, first seed) and one leader
    // (Air-FedAvg at xi=0.3, second seed): each is copied from its stored
    // twin, and nothing trains.
    std::fs::remove_file(replicate_file(&store_root, 3, 4242)).unwrap();
    std::fs::remove_file(replicate_file(&store_root, 1, 4243)).unwrap();
    assert_eq!(run_files(&store_root).len(), 10);
    assert_eq!(run(StoreMode::Resume), ((10, 2, 0), 0, 2));
    assert_eq!(files(), fresh);
    assert_eq!(run(StoreMode::Resume), ((12, 0, 0), 0, 0));
    // A corrupt file with an intact twin heals the same way: truncate
    // FedAvg at xi=0.8, first seed; the store degrades it to a miss, the
    // runner copies its twin over it, and nothing trains.
    let truncated = replicate_file(&store_root, 3, 4242);
    let bytes = std::fs::read(&truncated).unwrap();
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    assert_eq!(run(StoreMode::Resume), ((11, 0, 0), 1, 1));
    assert_eq!(files(), fresh);

    std::fs::remove_dir_all(&out).ok();
}
