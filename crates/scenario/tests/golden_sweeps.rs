//! The two sweep kinds replayed against CSV bytes pinned under `golden/`.
//!
//! The golden files were written by `airfedga-run --results-dir` at the
//! commit *before* `xi_sweep` and `scalability` moved from the aborting
//! inline path onto the one replicate runner (quick scale; seeds 1, seeds 2,
//! and seeds 2 with `--system-seeds`), so this test is what says the move —
//! and any later change to the runner, the sweep drivers or the flattened
//! `(N × mechanism)` cell layout — left their output alone.
//!
//! One `#[test]` on purpose: `--results-dir` is a process-wide redirect.

use experiments::scale::Scale;
use scenario::run::execute;
use scenario::{CliOverrides, ScenarioSpec};

const XI_SWEEP: &str = include_str!("golden/xi_sweep.toml");
const SCALABILITY: &str = include_str!("golden/scalability.toml");

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
    std::fs::remove_dir_all(&out).ok();
}
