//! End-to-end harness smoke: a grid with deliberately panicking replicates
//! must finish, retry each once, and report the failures with their
//! (cell, seed) labels — instead of aborting and losing every completed
//! cell.

use experiments::harness::{
    run_mechanism_cells, run_replicated_isolated_plan, MechanismCell, MechanismChoice, NoCache,
    ReplicatedOutcome, RunPolicy, RunSummary, SeedPlan,
};
use experiments::report::write_csv_in;
use fedml::rng::Rng64;

use airfedga::mechanism::EngineOptions;
use airfedga::system::FlSystemConfig;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `mechanisms × seeds` on the quick LR system through the one runner
/// (default policy: one retry; no cache); `sabotage` runs first in every
/// attempt and may panic.
fn run_sabotaged(
    mechanisms: Vec<MechanismChoice>,
    seeds: &[u64],
    sabotage: impl Fn(MechanismChoice, u64) + Sync,
) -> ReplicatedOutcome {
    let system = FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(5));
    run_replicated_isolated_plan(
        mechanisms,
        &SeedPlan::fixed_system(5, seeds.to_vec()),
        |_, choice| choice.label().to_string(),
        &RunPolicy::default(),
        &NoCache,
        |&choice, seed| {
            sabotage(choice, seed);
            let mech = choice.build(3, 1, None);
            RunSummary::from_trace(mech.run(&system, &mut Rng64::seed_from(seed)))
        },
    )
}

#[test]
fn grid_with_a_panicking_cell_completes_with_a_failure_report() {
    let retries = AtomicUsize::new(0);
    let outcome = run_sabotaged(
        MechanismChoice::aircomp_trio(),
        &[4242, 4243],
        |choice, seed| {
            if choice == MechanismChoice::Dynamic && seed == 4243 {
                retries.fetch_add(1, Ordering::SeqCst);
                panic!("deliberately injected cell failure");
            }
        },
    );

    // The grid finished: every healthy cell kept all replicates, the wounded
    // cell kept its surviving seed.
    assert_eq!(outcome.cells.len(), 3);
    for (ci, cell) in outcome.cells.iter().enumerate() {
        let cell = cell.as_ref().expect("every cell has a surviving replicate");
        let expected = if ci == 0 {
            vec![4242]
        } else {
            vec![4242, 4243]
        };
        assert_eq!(cell.seeds, expected, "cell {ci} kept the wrong seeds");
        for s in &cell.per_seed {
            assert!(s.final_loss.is_finite());
        }
    }

    // The failing replicate was attempted exactly twice (one retry).
    assert_eq!(retries.load(Ordering::SeqCst), 2);

    // The failure report names the (cell, seed) pair and the panic message.
    assert_eq!(outcome.failures.len(), 1);
    let failure = &outcome.failures[0];
    assert_eq!(failure.label, "Dynamic seed 4243");
    assert!(!failure.recovered);
    assert!(failure.message.contains("deliberately injected"));
    let report = outcome.failure_report();
    assert!(report.contains("Dynamic seed 4243"));
    assert!(report.contains("FAILED after one retry"));
    assert!(!outcome.is_complete());
}

/// A replicate that fails once and then succeeds costs the grid nothing: the
/// sequential retry fills its slot, every cell keeps every seed, and the
/// blip is still reported (as recovered) so flaky cells don't go unnoticed.
#[test]
fn transient_cell_failures_recover_on_retry() {
    let attempts = AtomicUsize::new(0);
    let outcome = run_sabotaged(
        vec![MechanismChoice::AirFedAvg, MechanismChoice::AirFedGa],
        &[4242, 4243],
        |choice, seed| {
            if choice == MechanismChoice::AirFedGa
                && seed == 4242
                && attempts.fetch_add(1, Ordering::SeqCst) == 0
            {
                panic!("transient blip");
            }
        },
    );
    assert!(
        outcome.is_complete(),
        "retry should have recovered the replicate"
    );
    for cell in &outcome.cells {
        assert_eq!(cell.as_ref().expect("cell survives").seeds, [4242, 4243]);
    }
    assert_eq!(attempts.load(Ordering::SeqCst), 2);
    assert_eq!(outcome.failures.len(), 1);
    let failure = &outcome.failures[0];
    assert!(failure.recovered);
    assert_eq!(failure.attempts, 2);
    assert_eq!(failure.message, "transient blip");
    assert!(outcome.failure_report().contains("recovered on retry"));
}

/// Several (cell, seed) pairs die on *both* attempts: the report lists them
/// in flat cell-major input order, a cell that loses every replicate folds
/// to `None`, and the survivors are untouched.
#[test]
fn multiple_dead_replicates_report_in_input_order() {
    let outcome = run_sabotaged(
        vec![MechanismChoice::AirFedAvg, MechanismChoice::AirFedGa],
        &[4242, 4243],
        |choice, seed| {
            let dead = (choice == MechanismChoice::AirFedAvg && seed == 4243)
                || choice == MechanismChoice::AirFedGa;
            if dead {
                panic!("always dies ({}, {seed})", choice.label());
            }
        },
    );

    // Cell 0 keeps one replicate; cell 1 lost both and folds to None.
    assert_eq!(
        outcome.cells[0].as_ref().expect("cell 0 survives").seeds,
        vec![4242]
    );
    assert!(outcome.cells[1].is_none());
    assert!(!outcome.is_complete());

    // Both attempts ran for every dead pair, and the failures arrive in
    // flat cell-major order regardless of parallel completion order.
    let labels: Vec<&str> = outcome.failures.iter().map(|f| f.label.as_str()).collect();
    assert_eq!(
        labels,
        vec![
            "Air-FedAvg seed 4243",
            "Air-FedGA seed 4242",
            "Air-FedGA seed 4243"
        ]
    );
    for f in &outcome.failures {
        assert!(!f.recovered);
        assert_eq!(f.attempts, 2);
    }
    let report = outcome.failure_report();
    assert!(report.starts_with("3 replicate(s) panicked:"));
    let pos = |needle: &str| report.find(needle).expect(needle);
    assert!(pos("Air-FedAvg seed 4243") < pos("Air-FedGA seed 4242"));
    assert!(pos("Air-FedGA seed 4242") < pos("Air-FedGA seed 4243"));
}

/// Mixed success/failure still produces a CSV — containing exactly the
/// surviving cells' rows, never a row for a cell that lost every replicate.
#[test]
fn mixed_success_and_failure_yields_a_partial_csv() {
    let outcome = run_sabotaged(MechanismChoice::aircomp_trio(), &[4242], |choice, _| {
        if choice == MechanismChoice::AirFedAvg {
            panic!("dead mechanism");
        }
    });

    // Render the survivors the way the grid driver does: one row per cell
    // that still has statistics.
    let mut csv = String::from("mechanism,final_acc\n");
    for stat in outcome.cells.iter().flatten() {
        csv.push_str(&format!(
            "{},{:.4}\n",
            stat.mechanism,
            stat.first().final_accuracy
        ));
    }
    let dir = std::env::temp_dir().join(format!("fault_isolation_{}", std::process::id()));
    let path = write_csv_in(&dir, "test_partial_fault_grid.csv", &csv).unwrap();
    let text = std::fs::read_to_string(path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(text.lines().count(), 3, "header + two survivors:\n{text}");
    assert!(text.contains("Dynamic"));
    assert!(text.contains("Air-FedGA"));
    assert!(!text.contains("Air-FedAvg"));
}

/// A group of identical replicates that dies — FedAvg repeated per ξ, killed
/// by `inject_panic_round` with retries off — is reported as a runner that
/// shares nothing would: one dead failure per member, under the member's own
/// flat index and label, in flat order although the group was handled as one.
#[test]
fn a_dead_shared_group_reports_every_member() {
    let mut cfg = FlSystemConfig::mnist_lr_quick();
    cfg.faults.inject_panic_round = Some(2);
    let cells: Vec<MechanismCell> = [0.3, 0.8]
        .into_iter()
        .flat_map(|xi| {
            [MechanismChoice::FedAvg, MechanismChoice::AirFedGa].map(|mechanism| MechanismCell {
                config: 0,
                mechanism,
                xi: Some(xi),
                label: format!("xi={xi} {}", mechanism.label()),
            })
        })
        .collect();
    let policy = RunPolicy {
        max_retries: 0,
        ..RunPolicy::default()
    };
    let plan = SeedPlan::fixed_system(5, vec![4242, 4243]);
    let options = EngineOptions {
        total_rounds: 3,
        eval_every: 1,
        max_virtual_time: None,
    };
    let outcome = run_mechanism_cells(&[cfg], cells, &options, &plan, &policy, &NoCache);

    assert!(outcome.cells.iter().all(Option::is_none));
    assert_eq!(outcome.shared, 0, "nobody was handed a result");
    let reported: Vec<(usize, &str)> = outcome
        .failures
        .iter()
        .map(|f| (f.index, f.label.as_str()))
        .collect();
    assert_eq!(
        reported,
        [
            (0, "xi=0.3 FedAvg seed 4242"),
            (1, "xi=0.3 FedAvg seed 4243"),
            (2, "xi=0.3 Air-FedGA seed 4242"),
            (3, "xi=0.3 Air-FedGA seed 4243"),
            (4, "xi=0.8 FedAvg seed 4242"),
            (5, "xi=0.8 FedAvg seed 4243"),
            (6, "xi=0.8 Air-FedGA seed 4242"),
            (7, "xi=0.8 Air-FedGA seed 4243"),
        ]
    );
    for f in &outcome.failures {
        assert!(!f.recovered);
        assert_eq!(f.attempts, 1);
        assert!(f.message.contains("injected fault"), "{}", f.message);
    }
    let report = outcome.failure_report();
    assert!(report.starts_with("8 replicate(s) panicked:"));
    let lines: Vec<&str> = report.lines().skip(1).collect();
    for (flat, line) in lines.iter().enumerate() {
        let head = format!("  - cell {flat} [");
        assert!(line.starts_with(&head) && line.contains("FAILED (no retry)"));
    }
}
