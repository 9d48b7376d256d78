//! Deterministic fault injection for the federated-learning simulation.
//!
//! Real federations lose workers (device churn), slow them down (stragglers)
//! and lose uploads to deep fades (channel outages); the paper's
//! group-asynchronous design exists precisely to tolerate them. This crate
//! turns those failure modes into a *deterministic, seeded* system axis:
//! a [`FaultSpec`] describes the failure statistics, and
//! [`FaultPlan::compile`] expands it — from a dedicated RNG stream forked
//! off the system seed — into per-worker virtual-time availability traces
//! that every mechanism can query (`available`, `slowdown`, `in_outage`)
//! without drawing any randomness of its own. Compilation happens once at
//! system-build time, so fault queries during a run are pure lookups:
//! traces stay bit-identical at any thread count or chunk factor, and a
//! trivial spec ([`FaultSpec::none`]) compiles to an empty plan without
//! touching the RNG at all. The round loops have no fault-free path of their
//! own: they always schedule through the plan, and the empty plan answers
//! every query with the neutral value (slowdown exactly 1.0, available, no
//! outage, no deadline), so a zero-fault run is byte-identical to a build
//! that has never heard of faults. The one thing [`FaultPlan::enabled`]
//! still decides is whether a run keeps participation counters in its fault
//! log.
//!
//! ## The fault model
//!
//! * **Churn** — each worker drops out as a Poisson process with rate
//!   [`FaultSpec::dropout_rate`] (per virtual second) and stays away for an
//!   exponential downtime with mean [`FaultSpec::mean_downtime`], then
//!   rejoins. A worker that is down at dispatch time sits the round out; a
//!   worker that drops before its group aggregates is excluded and the
//!   group weight is re-normalised over the survivors.
//! * **Stragglers** — a [`FaultSpec::straggler_fraction`] of workers draw a
//!   permanent latency multiplier `~ U[1, straggler_slowdown]`; combined
//!   with [`FaultSpec::deadline`] they exercise partial aggregation (the
//!   group stops waiting at the deadline and aggregates whoever finished).
//! * **Outages** — bursts of channel unavailability arrive per worker as a
//!   Poisson process with rate [`FaultSpec::outage_rate`] and last
//!   [`FaultSpec::outage_duration`] seconds; a worker in outage at its
//!   group's aggregation instant cannot upload and is excluded from that
//!   round like a dropped member.

use fedml::rng::Rng64;
use serde::{Deserialize, Serialize};

/// Default virtual-time horizon (seconds) fault traces are compiled up to.
/// Past the horizon every worker is reported healthy; the committed
/// scenarios run well inside it.
const DEFAULT_HORIZON: f64 = 200_000.0;

/// Statistical description of the injected faults (the `[faults]` table of
/// a scenario file). [`FaultSpec::none`] — the default — injects nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Per-second Poisson rate at which a healthy worker drops out.
    pub dropout_rate: f64,
    /// Mean seconds a dropped worker stays away (exponential downtime).
    pub mean_downtime: f64,
    /// Fraction of workers that are permanent stragglers.
    pub straggler_fraction: f64,
    /// Straggler latency multiplier upper bound (`~ U[1, slowdown]`, ≥ 1).
    pub straggler_slowdown: f64,
    /// Per-second Poisson rate at which a channel-outage burst starts.
    pub outage_rate: f64,
    /// Length of each outage burst (seconds).
    pub outage_duration: f64,
    /// Per-round straggler deadline (seconds): a group aggregates at most
    /// this long after dispatch, excluding members that have not finished.
    pub deadline: Option<f64>,
    /// Virtual-time horizon traces are compiled up to.
    pub horizon: f64,
    /// Test fault: panic at the start of this round (1-based) in every cell.
    /// Exercises the harness's panic isolation and retry machinery end to
    /// end; never set by the statistical presets.
    pub inject_panic_round: Option<usize>,
    /// Test fault: simulate an infinite loop at the start of this round
    /// (1-based). The cell spins until its watchdog deadline passes (or the
    /// job is cancelled) — meaningful only under a `[limits]
    /// cell_timeout_secs` watchdog.
    pub inject_hang_round: Option<usize>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultSpec {
    /// The trivial spec: no churn, no stragglers, no outages, no deadline.
    pub fn none() -> Self {
        Self {
            dropout_rate: 0.0,
            mean_downtime: 0.0,
            straggler_fraction: 0.0,
            straggler_slowdown: 1.0,
            outage_rate: 0.0,
            outage_duration: 0.0,
            deadline: None,
            horizon: DEFAULT_HORIZON,
            inject_panic_round: None,
            inject_hang_round: None,
        }
    }

    /// True when this spec injects nothing: the plan it compiles to is empty
    /// and the RNG is never touched.
    pub fn is_none(&self) -> bool {
        self.dropout_rate == 0.0
            && self.straggler_fraction == 0.0
            && self.outage_rate == 0.0
            && self.deadline.is_none()
            && self.inject_panic_round.is_none()
            && self.inject_hang_round.is_none()
    }

    /// Panic on statistically nonsensical values.
    pub fn validate(&self) {
        assert!(
            self.dropout_rate >= 0.0 && self.dropout_rate.is_finite(),
            "dropout_rate must be a finite non-negative rate"
        );
        if self.dropout_rate > 0.0 {
            assert!(
                self.mean_downtime > 0.0 && self.mean_downtime.is_finite(),
                "mean_downtime must be positive when dropout_rate is"
            );
        }
        assert!(
            (0.0..=1.0).contains(&self.straggler_fraction),
            "straggler_fraction must lie in [0, 1]"
        );
        assert!(
            self.straggler_slowdown >= 1.0 && self.straggler_slowdown.is_finite(),
            "straggler_slowdown must be at least 1"
        );
        assert!(
            self.outage_rate >= 0.0 && self.outage_rate.is_finite(),
            "outage_rate must be a finite non-negative rate"
        );
        if self.outage_rate > 0.0 {
            assert!(
                self.outage_duration > 0.0 && self.outage_duration.is_finite(),
                "outage_duration must be positive when outage_rate is"
            );
        }
        if let Some(d) = self.deadline {
            assert!(d > 0.0 && d.is_finite(), "deadline must be positive");
        }
        assert!(self.horizon > 0.0, "horizon must be positive");
        if let Some(r) = self.inject_panic_round {
            assert!(r >= 1, "inject_panic_round is 1-based");
        }
        if let Some(r) = self.inject_hang_round {
            assert!(r >= 1, "inject_hang_round is 1-based");
        }
    }
}

/// One worker's compiled fault trace: sorted, disjoint down/outage
/// intervals (`[start, end)` in virtual seconds) plus its latency
/// multiplier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct WorkerFaults {
    /// Latency multiplier (exactly 1.0 for non-stragglers).
    slowdown: f64,
    /// Dropout intervals, sorted by start, disjoint.
    down: Box<[(f64, f64)]>,
    /// Channel-outage intervals, sorted by start, disjoint.
    outages: Box<[(f64, f64)]>,
}

/// Compiled per-worker fault traces. All engine-side queries are pure
/// lookups into the compiled intervals — no RNG, no interior mutability —
/// so a plan shared across threads answers identically everywhere.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    spec: FaultSpec,
    workers: Vec<WorkerFaults>,
}

/// True when `intervals` (sorted by start, disjoint) covers time `t`.
fn covered(intervals: &[(f64, f64)], t: f64) -> bool {
    // Index of the first interval starting strictly after t; the only
    // candidate containing t is the one before it.
    let idx = intervals.partition_point(|&(start, _)| start <= t);
    idx > 0 && t < intervals[idx - 1].1
}

/// Poisson arrivals at `rate` with per-event lengths from `draw_len`,
/// merged into sorted disjoint intervals up to `horizon`, stored at their
/// exact count (a plan lives as long as its system).
fn sample_intervals(
    rate: f64,
    horizon: f64,
    rng: &mut Rng64,
    mut draw_len: impl FnMut(&mut Rng64) -> f64,
) -> Box<[(f64, f64)]> {
    let mut out = Vec::new();
    if rate <= 0.0 {
        return out.into_boxed_slice();
    }
    let mut t = 0.0;
    loop {
        let start = t + rng.exponential(rate);
        if start >= horizon {
            return out.into_boxed_slice();
        }
        let end = start + draw_len(rng).max(f64::MIN_POSITIVE);
        out.push((start, end));
        t = end;
    }
}

impl FaultPlan {
    /// The empty plan: every worker healthy forever — slowdown 1.0,
    /// available, no outage, no deadline. Allocation-free and RNG-free.
    pub fn none() -> Self {
        Self {
            spec: FaultSpec::none(),
            workers: Vec::new(),
        }
    }

    /// Compile per-worker fault traces from `spec`, drawing everything from
    /// `rng` (callers fork it off the system seed so the fault stream never
    /// perturbs the rest of the system build). Worker `w`'s trace comes from
    /// its own forked child stream, so traces are stable per worker and the
    /// compilation order is irrelevant.
    pub fn compile(spec: &FaultSpec, num_workers: usize, rng: &mut Rng64) -> Self {
        spec.validate();
        if spec.is_none() {
            return Self::none();
        }
        let workers = (0..num_workers)
            .map(|w| {
                let mut wrng = rng.fork(w as u64);
                let slowdown =
                    if spec.straggler_fraction > 0.0 && wrng.uniform() < spec.straggler_fraction {
                        1.0 + wrng.uniform() * (spec.straggler_slowdown - 1.0)
                    } else {
                        1.0
                    };
                let down = sample_intervals(spec.dropout_rate, spec.horizon, &mut wrng, |r| {
                    r.exponential(1.0 / spec.mean_downtime)
                });
                let outages = sample_intervals(spec.outage_rate, spec.horizon, &mut wrng, |_| {
                    spec.outage_duration
                });
                WorkerFaults {
                    slowdown,
                    down,
                    outages,
                }
            })
            .collect();
        Self {
            spec: spec.clone(),
            workers,
        }
    }

    /// True when this plan can ever alter a run. The round loops schedule
    /// through the plan either way; they only log a round's participation
    /// when this is true, so a fault-free run carries an empty fault log.
    pub fn enabled(&self) -> bool {
        !self.spec.is_none()
    }

    /// The per-round straggler deadline, if any.
    pub fn deadline(&self) -> Option<f64> {
        self.spec.deadline
    }

    /// Number of workers with compiled traces (0 for the empty plan).
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Worker `w`'s latency multiplier (1.0 unless it is a straggler).
    pub fn slowdown(&self, w: usize) -> f64 {
        self.workers.get(w).map_or(1.0, |f| f.slowdown)
    }

    /// True when worker `w` is up (not dropped out) at virtual time `t`.
    pub fn available(&self, w: usize, t: f64) -> bool {
        self.workers.get(w).is_none_or(|f| !covered(&f.down, t))
    }

    /// True when worker `w`'s channel is in an outage burst at time `t`.
    pub fn in_outage(&self, w: usize, t: f64) -> bool {
        self.workers.get(w).is_some_and(|f| covered(&f.outages, t))
    }

    /// Fire any injected *test* fault scheduled for `round`: a configured
    /// panic round panics here, a configured hang round spins until a
    /// watchdog deadline or a cancel breaks it (see [`simcore::cancel`]). The
    /// round loops call this at every round boundary; a plan without
    /// injected rounds returns immediately.
    pub fn injected_fault(&self, round: usize) {
        if self.spec.inject_panic_round == Some(round) {
            panic!("injected fault: panic at round {round}");
        }
        if self.spec.inject_hang_round == Some(round) {
            simcore::cancel::hang_until_cancelled(round);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn churn_spec() -> FaultSpec {
        FaultSpec {
            dropout_rate: 0.01,
            mean_downtime: 40.0,
            straggler_fraction: 0.3,
            straggler_slowdown: 3.0,
            outage_rate: 0.005,
            outage_duration: 15.0,
            deadline: Some(500.0),
            horizon: 5_000.0,
            ..FaultSpec::none()
        }
    }

    #[test]
    fn none_spec_compiles_without_touching_the_rng() {
        let mut rng = Rng64::seed_from(7);
        let mut before = rng.clone();
        let plan = FaultPlan::compile(&FaultSpec::none(), 10, &mut rng);
        assert_eq!(
            rng.next_u64(),
            before.next_u64(),
            "zero-fault compile must not draw"
        );
        assert!(!plan.enabled());
        assert_eq!(plan.num_workers(), 0);
        assert_eq!(plan, FaultPlan::none());
        // Queries on the empty plan report perfect health for any worker.
        assert!(plan.available(3, 123.0));
        assert!(!plan.in_outage(3, 123.0));
        assert_eq!(plan.slowdown(3), 1.0);
        assert_eq!(plan.deadline(), None);
    }

    #[test]
    fn compile_is_deterministic_for_a_seed() {
        let spec = churn_spec();
        let a = FaultPlan::compile(&spec, 25, &mut Rng64::seed_from(9));
        let b = FaultPlan::compile(&spec, 25, &mut Rng64::seed_from(9));
        assert_eq!(a, b);
        let c = FaultPlan::compile(&spec, 25, &mut Rng64::seed_from(10));
        assert_ne!(a, c, "different fault seeds must give different traces");
    }

    #[test]
    fn intervals_are_sorted_disjoint_and_inside_the_horizon() {
        let spec = churn_spec();
        let plan = FaultPlan::compile(&spec, 40, &mut Rng64::seed_from(3));
        let mut saw_down = false;
        for w in 0..40 {
            let f = &plan.workers[w];
            for ivs in [&f.down, &f.outages] {
                for pair in ivs.windows(2) {
                    assert!(pair[0].1 <= pair[1].0, "overlapping intervals: {pair:?}");
                }
                for &(s, e) in ivs.iter() {
                    assert!(s < e, "empty interval ({s}, {e})");
                    assert!(s < spec.horizon, "interval starts past the horizon");
                }
            }
            saw_down |= !f.down.is_empty();
            assert!(f.slowdown >= 1.0 && f.slowdown <= spec.straggler_slowdown);
        }
        assert!(saw_down, "churn rate 0.01 over 5000s drew no dropouts");
    }

    #[test]
    fn straggler_fraction_is_roughly_respected() {
        let spec = FaultSpec {
            straggler_fraction: 0.5,
            straggler_slowdown: 4.0,
            ..FaultSpec::none()
        };
        let plan = FaultPlan::compile(&spec, 400, &mut Rng64::seed_from(4));
        let stragglers = (0..400).filter(|&w| plan.slowdown(w) > 1.0).count();
        assert!(
            (120..=280).contains(&stragglers),
            "expected ~200 stragglers of 400, got {stragglers}"
        );
    }

    #[test]
    fn availability_queries_match_the_compiled_intervals() {
        let spec = FaultSpec {
            dropout_rate: 0.05,
            mean_downtime: 30.0,
            horizon: 2_000.0,
            ..FaultSpec::none()
        };
        let plan = FaultPlan::compile(&spec, 8, &mut Rng64::seed_from(5));
        let w = (0..8)
            .find(|&w| !plan.workers[w].down.is_empty())
            .expect("some worker drops at rate 0.05");
        let (start, end) = plan.workers[w].down[0];
        assert!(plan.available(w, start - 1e-6));
        assert!(!plan.available(w, start));
        assert!(!plan.available(w, (start + end) / 2.0));
        assert!(plan.available(w, end));
        // Past the horizon everything is healthy.
        assert!(plan.available(w, spec.horizon + 1.0));
    }

    #[test]
    fn outage_bursts_have_the_configured_length() {
        let spec = FaultSpec {
            outage_rate: 0.02,
            outage_duration: 12.5,
            horizon: 3_000.0,
            ..FaultSpec::none()
        };
        let plan = FaultPlan::compile(&spec, 6, &mut Rng64::seed_from(6));
        let mut seen = 0;
        for w in 0..6 {
            for &(s, e) in &plan.workers[w].outages {
                assert!((e - s - 12.5).abs() < 1e-9);
                assert!(plan.in_outage(w, s + 1.0));
                assert!(!plan.in_outage(w, e + 1e-6));
                seen += 1;
            }
        }
        assert!(seen > 0, "outage rate 0.02 over 3000s drew no bursts");
    }

    #[test]
    fn deadline_alone_counts_as_enabled() {
        let spec = FaultSpec {
            deadline: Some(100.0),
            ..FaultSpec::none()
        };
        assert!(!spec.is_none());
        let plan = FaultPlan::compile(&spec, 4, &mut Rng64::seed_from(1));
        assert!(plan.enabled());
        assert_eq!(plan.deadline(), Some(100.0));
        // No stochastic faults: every worker is healthy, just deadlined.
        assert!(plan.available(2, 50.0));
        assert_eq!(plan.slowdown(2), 1.0);
    }

    #[test]
    fn inject_rounds_make_the_spec_active_and_fire_on_schedule() {
        let spec = FaultSpec {
            inject_panic_round: Some(2),
            ..FaultSpec::none()
        };
        assert!(!spec.is_none(), "inject-only specs must reach the plan");
        let plan = FaultPlan::compile(&spec, 4, &mut Rng64::seed_from(1));
        assert!(plan.enabled());
        plan.injected_fault(1); // other rounds are no-ops
        plan.injected_fault(3);
        let err = std::panic::catch_unwind(|| plan.injected_fault(2)).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(
            msg.contains("injected fault: panic at round 2"),
            "message was: {msg}"
        );
    }

    #[test]
    fn injected_hang_without_a_watchdog_panics_instead_of_stalling() {
        let spec = FaultSpec {
            inject_hang_round: Some(1),
            ..FaultSpec::none()
        };
        let plan = FaultPlan::compile(&spec, 2, &mut Rng64::seed_from(1));
        let err = std::panic::catch_unwind(|| plan.injected_fault(1)).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("no watchdog"), "message was: {msg}");
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn rejects_round_zero_injection() {
        FaultSpec {
            inject_panic_round: Some(0),
            ..FaultSpec::none()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "straggler_slowdown")]
    fn rejects_sub_unit_slowdown() {
        FaultSpec {
            straggler_slowdown: 0.5,
            ..FaultSpec::none()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "mean_downtime")]
    fn rejects_dropouts_without_downtime() {
        FaultSpec {
            dropout_rate: 0.1,
            mean_downtime: 0.0,
            ..FaultSpec::none()
        }
        .validate();
    }
}
