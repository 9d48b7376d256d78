//! TiFL — tier-based asynchronous federated learning over OMA.
//!
//! Chai et al. (reference \[26\] of the paper) group workers into latency tiers
//! and let tiers update the global model asynchronously, which removes the
//! straggler problem without AirComp. Two differences from Air-FedGA explain
//! why it loses in the paper's evaluation: uploads are digital OMA (latency
//! grows with the tier size), and tiering ignores the data distribution, so
//! the inter-tier EMD stays high (Table III: 0.69 vs Air-FedGA's 0.21) and
//! Non-IID drift slows convergence.
//!
//! In the mechanism table: latency tiers (`grouping::tifl::tifl_grouping` at
//! `default_tier_count(N)`, about one tier per latency decile) × OMA.

#[cfg(test)]
mod tests {
    use crate::MechanismChoice::{FedAvg, TiFl};
    use airfedga::system::{FlSystem, FlSystemConfig};
    use fedml::rng::Rng64;
    use grouping::tifl::{default_tier_count, tifl_grouping};
    use grouping::worker_info::Grouping;

    fn quick_system(seed: u64) -> FlSystem {
        FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(seed))
    }

    /// The tiers the TiFL row runs on: two, for the quick system's ten
    /// workers.
    fn tiers_of(system: &FlSystem) -> Grouping {
        let tiers = default_tier_count(system.num_workers());
        tifl_grouping(&system.worker_infos, tiers)
    }

    #[test]
    fn tifl_converges_and_uses_multiple_tiers() {
        let system = quick_system(1);
        assert_eq!(tiers_of(&system).num_groups(), 2);
        let mech = TiFl.build(60, 10, None);
        let trace = mech.run(&system, &mut Rng64::seed_from(2));
        assert!(
            trace.final_accuracy() > 0.6,
            "acc {}",
            trace.final_accuracy()
        );
    }

    /// Per-tier `(min, max)` latency ranges sorted fastest tier first.
    ///
    /// A NaN latency poisons its tier's range, and the sort uses
    /// `f64::total_cmp` so poisoned tiers order deterministically after
    /// every finite one instead of panicking — the same NaN-safety
    /// contract as the PR-3 fix in `grouping::tifl`.
    fn tier_latency_ranges(grouping: &Grouping, latency: impl Fn(usize) -> f64) -> Vec<(f64, f64)> {
        let mut ranges: Vec<(f64, f64)> = (0..grouping.num_groups())
            .map(|j| {
                grouping
                    .group(j)
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &w| {
                        let l = latency(w);
                        if l.is_nan() || lo.is_nan() {
                            (f64::NAN, f64::NAN)
                        } else {
                            (lo.min(l), hi.max(l))
                        }
                    })
            })
            .collect();
        ranges.sort_by(|a, b| a.0.total_cmp(&b.0));
        ranges
    }

    #[test]
    fn tiers_are_latency_homogeneous() {
        let system = quick_system(3);
        let grouping = tiers_of(&system);
        // Fast tier's slowest member is no slower than slow tier's fastest.
        let tier_ranges = tier_latency_ranges(&grouping, |w| system.local_training_time(w));
        for pair in tier_ranges.windows(2) {
            assert!(pair[0].1 <= pair[1].0 + 1e-9);
        }
    }

    #[test]
    fn nan_latency_sorts_last_instead_of_panicking() {
        // Regression for the NaN-sort bug class: the tier-range sort used
        // `partial_cmp(..).unwrap()`, the exact pattern whose NaN panic
        // PR 3 fixed in `grouping::tifl`. With `total_cmp` a poisoned
        // tier lands deterministically in the slowest position.
        let system = quick_system(3);
        let grouping = tiers_of(&system);
        let poisoned = grouping.group(0)[0];
        let ranges = tier_latency_ranges(&grouping, |w| {
            if w == poisoned {
                f64::NAN
            } else {
                system.local_training_time(w)
            }
        });
        assert_eq!(ranges.len(), 2);
        assert!(ranges[1].0.is_nan());
        assert!(ranges[0].0.is_finite() && ranges[0].1.is_finite());
    }

    #[test]
    fn tifl_average_round_is_shorter_than_fedavg() {
        let system = quick_system(4);
        let tifl = TiFl
            .build(8, 1, None)
            .run(&system, &mut Rng64::seed_from(5));
        let fedavg = FedAvg
            .build(8, 1, None)
            .run(&system, &mut Rng64::seed_from(5));
        assert!(tifl.average_round_time() < fedavg.average_round_time());
    }
}
