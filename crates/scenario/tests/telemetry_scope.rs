//! Telemetry is scoped to one `execute`: the process-global switch and
//! counters it uses must not carry anything from one run into the next — the
//! job server runs many specs in one process, and the logical plane of
//! `metrics.json` is contractually a function of the run alone.
//!
//! One `#[test]` on purpose: the switch is process-wide.

use experiments::scale::Scale;
use scenario::run::execute;
use scenario::{CliOverrides, ScenarioSpec};

const SPEC: &str = r#"
[scenario]
name = "telemetry_scope"
kind = "grid"
title = "telemetry scope"

[system]
workload = "mnist_lr_quick"

[run]
mechanisms = ["air-fedavg", "air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2

[sweep]
xi = [0.3, 1.0]
"#;

#[test]
fn telemetry_state_does_not_outlive_an_execute() {
    let root =
        std::env::temp_dir().join(format!("scenario_telemetry_scope_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let spec = ScenarioSpec::parse(SPEC).unwrap();
    let cli = |telemetry: &std::path::Path| CliOverrides {
        telemetry: Some(telemetry.display().to_string()),
        results_dir: Some(root.join("results")),
        ..CliOverrides::default()
    };

    // The same spec twice in one process: the second run's logical counts
    // are its own, not the sum of both.
    let metrics = |dir: &str| {
        let dir = root.join(dir);
        let report = execute(&spec, Scale::Quick, &cli(&dir)).unwrap();
        assert!(report.is_clean());
        assert!(!telemetry::enabled(), "a finished run leaves telemetry off");
        std::fs::read_to_string(dir.join("metrics.json")).unwrap()
    };
    let first = metrics("first");
    assert!(first.contains("\"engine.rounds\": 12"), "{first}");
    assert_eq!(metrics("second"), first);

    // A run that cannot write its artifacts (the directory's parent is a
    // regular file) is an error — and still switches telemetry off.
    let blocker = root.join("blocker");
    std::fs::write(&blocker, "not a directory").unwrap();
    let error = execute(&spec, Scale::Quick, &cli(&blocker.join("telemetry"))).unwrap_err();
    assert!(
        error
            .to_string()
            .contains("cannot write telemetry artifacts"),
        "{error}"
    );
    assert!(!telemetry::enabled(), "a failed run leaves telemetry off");

    // …so the next run starts clean, with none of the failed run's counts.
    assert_eq!(metrics("third"), first);
    std::fs::remove_dir_all(&root).ok();
}
