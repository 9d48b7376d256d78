//! Cross-crate integration tests: every mechanism trains end-to-end on the
//! same simulated system and the qualitative relationships the paper reports
//! hold (who converges, whose rounds are shorter, who wins time-to-accuracy
//! under heterogeneity).

use air_fedga::airfedga::system::{FlSystem, FlSystemConfig};
use air_fedga::baselines::MechanismChoice::{AirFedAvg, AirFedGa, Dynamic, FedAvg, TiFl};
use air_fedga::baselines::{Mechanism, MechanismChoice};
use air_fedga::fedml::rng::Rng64;

fn small_system(seed: u64) -> FlSystem {
    let mut cfg = FlSystemConfig::mnist_lr();
    cfg.num_workers = 20;
    cfg.dataset.samples_per_class = 60;
    cfg.test_per_class = 20;
    cfg.build(&mut Rng64::seed_from(seed))
}

/// `choice` at a budget of `rounds` rounds, evaluated every five.
fn mech(choice: MechanismChoice, rounds: usize) -> Mechanism {
    choice.build(rounds, 5, None)
}

#[test]
fn all_five_mechanisms_learn_above_chance() {
    let system = small_system(1);
    let budgets = [
        (FedAvg, 30),
        (TiFl, 80),
        (AirFedAvg, 30),
        (Dynamic, 80),
        (AirFedGa, 80),
    ];
    for (choice, rounds) in budgets {
        let trace = mech(choice, rounds).run(&system, &mut Rng64::seed_from(7));
        assert!(
            trace.final_accuracy() > 0.5,
            "{} only reached accuracy {}",
            choice.label(),
            trace.final_accuracy()
        );
        assert!(
            trace.final_loss() < trace.points()[0].loss,
            "{} did not reduce the loss",
            choice.label()
        );
        assert!(trace.total_time() > 0.0);
    }
}

#[test]
fn aircomp_rounds_are_shorter_than_oma_rounds() {
    // Fig. 10 (left): with synchronous participation, the OMA upload time
    // grows with N while AirComp's does not.
    let system = small_system(2);
    let fedavg = mech(FedAvg, 5).run(&system, &mut Rng64::seed_from(3));
    let air_fedavg = mech(AirFedAvg, 5).run(&system, &mut Rng64::seed_from(3));
    assert!(air_fedavg.average_round_time() < fedavg.average_round_time());
}

#[test]
fn airfedga_rounds_are_much_shorter_than_synchronous_aircomp() {
    // The grouping means a round waits only for one group's slowest worker.
    let system = small_system(3);
    let ga = mech(AirFedGa, 30).run(&system, &mut Rng64::seed_from(4));
    let avg = mech(AirFedAvg, 30).run(&system, &mut Rng64::seed_from(4));
    assert!(
        ga.average_round_time() < 0.8 * avg.average_round_time(),
        "Air-FedGA round {} not shorter than Air-FedAvg round {}",
        ga.average_round_time(),
        avg.average_round_time()
    );
}

#[test]
fn airfedga_beats_dynamic_in_time_to_accuracy() {
    // Fig. 3 shape: Air-FedGA reaches a stable target accuracy earlier than
    // the Dynamic scheduling baseline on a heterogeneous Non-IID system.
    let system = small_system(4);
    let rounds = 250;
    let ga = mech(AirFedGa, rounds).run(&system, &mut Rng64::seed_from(5));
    let dynamic = mech(Dynamic, rounds).run(&system, &mut Rng64::seed_from(5));
    let target = 0.75;
    let t_ga = ga.time_to_accuracy(target);
    let t_dyn = dynamic.time_to_accuracy(target);
    assert!(t_ga.is_some(), "Air-FedGA never reached {target}");
    match (t_ga, t_dyn) {
        (Some(a), Some(d)) => assert!(
            a < d,
            "Air-FedGA ({a}s) should reach {target} before Dynamic ({d}s)"
        ),
        (Some(_), None) => {} // Dynamic never got there at all — also consistent.
        _ => unreachable!(),
    }
}

#[test]
fn traces_are_reproducible_across_runs() {
    let system = small_system(6);
    let mechanism = AirFedGa.build(20, 4, None);
    let a = mechanism.run(&system, &mut Rng64::seed_from(9));
    let b = mechanism.run(&system, &mut Rng64::seed_from(9));
    assert_eq!(a.len(), b.len());
    for (x, y) in a.points().iter().zip(b.points()) {
        assert_eq!(x.loss.to_bits(), y.loss.to_bits());
        assert_eq!(x.accuracy.to_bits(), y.accuracy.to_bits());
        assert_eq!(x.energy.to_bits(), y.energy.to_bits());
    }
}

#[test]
fn energy_is_only_spent_by_aircomp_mechanisms() {
    let system = small_system(7);
    let fedavg = mech(FedAvg, 5).run(&system, &mut Rng64::seed_from(1));
    let tifl = mech(TiFl, 5).run(&system, &mut Rng64::seed_from(1));
    let air = mech(AirFedAvg, 5).run(&system, &mut Rng64::seed_from(1));
    assert_eq!(fedavg.total_energy(), 0.0);
    assert_eq!(tifl.total_energy(), 0.0);
    assert!(air.total_energy() > 0.0);
}
