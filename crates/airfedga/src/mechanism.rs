//! Algorithm 1 — grouping asynchronous federated learning via AirComp.
//!
//! The heart of the crate is [`run_group_async`], a virtual-time simulation
//! engine for *group-asynchronous* federated learning: groups of workers
//! train locally, a group aggregates as soon as all of its members are ready
//! (the intra-group alignment of Algorithm 1, lines 17–29), the global model
//! is updated with that group's contribution only (Eq. (10)), and the group
//! immediately receives the new model and starts its next local round. A
//! mechanism is two choices on top of it — how the workers are grouped, and
//! how a group's models are combined:
//!
//! * [`AggregationMode::AirComp`] — analog over-the-air aggregation over the
//!   noisy fading MAC, with per-round power control (Algorithm 2). Used by
//!   Air-FedGA itself and by the Air-FedAvg baseline (single group).
//! * [`AggregationMode::OmaIdeal`] — digital orthogonal uploads: aggregation
//!   is exact but the upload latency grows linearly with the group size.
//!   Used by the FedAvg and TiFL baselines.
//!
//! [`AirFedGa`] is the paper's pair of choices — the worker-grouping
//! Algorithm 3 at ξ, and AirComp — with the paper's default hyper-parameters.
//! The comparators' pairs are the rows of the `baselines` crate's mechanism
//! table.

use crate::server::Server;
use crate::system::FlSystem;
use crate::worker_pool::WorkerPool;
use fedml::params::FlatParams;
use fedml::rng::Rng64;
use grouping::greedy::greedy_grouping;
use grouping::objective::{GroupingObjective, ObjectiveConstants};
use grouping::worker_info::Grouping;
use simcore::events::EventQueue;
use simcore::trace::{FaultEvent, FaultEventKind, TrainingTrace};

/// How a group's local models are combined into the group estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregationMode {
    /// Analog over-the-air aggregation (Eq. (9)/(10)): Algorithm 2's power
    /// control each round, over the AWGN of the system's
    /// `wireless.noise_variance`.
    AirComp,
    /// Ideal digital aggregation over orthogonal channels: exact weighted
    /// average, upload latency linear in the group size.
    OmaIdeal,
}

/// The round budget of one training run — the one struct that carries it
/// from the experiment runner to the round loops (this engine and the Dynamic
/// baseline's), whatever the mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOptions {
    /// Number of global aggregation rounds `T` to simulate.
    pub total_rounds: usize,
    /// Evaluate the global model on the test set every this many rounds.
    pub eval_every: usize,
    /// Stop early once the virtual clock passes this time (seconds).
    pub max_virtual_time: Option<f64>,
    /// Run each round's per-member local updates on the persistent worker pool.
    /// Traces are bit-identical either way (each worker owns its RNG stream
    /// and parameter buffer, training scratch is fully overwritten by every
    /// update, and the reduction order is fixed); `false` is the tests'
    /// in-process sequential reference.
    pub parallel: bool,
}

impl EngineOptions {
    /// Panic on a budget no loop can run. Each round loop calls this before
    /// anything else: the one place inside the program that checks the
    /// budget (the scenario parser rejects the same values, with a line
    /// number, where they arrive from outside).
    pub fn validate(&self) {
        assert!(self.total_rounds > 0, "need at least one round");
        assert!(self.eval_every > 0, "eval_every must be positive");
        if let Some(t) = self.max_virtual_time {
            assert!(t > 0.0, "max_virtual_time must be positive");
        }
    }
}

/// How long the group `members` dispatched at `dispatch` stays open under the
/// system's fault plan: until its slowest *up-at-dispatch* member finishes,
/// slowdown-scaled, capped at the straggler deadline. When nobody is up at
/// dispatch the group still waits a full (slowdown-scaled) round — it only
/// discovers it has nothing to aggregate when its ready event fires. Under
/// the empty plan (everyone up, slowdown exactly 1.0, no deadline) this is
/// the slowest member's training time, bit for bit.
fn group_latency(system: &FlSystem, members: &[usize], dispatch: f64) -> f64 {
    let faults = &system.faults;
    let scaled = |w: usize| system.local_training_time(w) * faults.slowdown(w);
    let mut raw = members
        .iter()
        .copied()
        .filter(|&w| faults.available(w, dispatch))
        .map(scaled)
        .fold(0.0_f64, f64::max);
    if raw == 0.0 {
        raw = members.iter().copied().map(scaled).fold(0.0_f64, f64::max);
    }
    match faults.deadline() {
        Some(d) => raw.min(d),
        None => raw,
    }
}

/// Members of the group dispatched at `dispatch` that actually deliver an
/// update at `ready`: up at dispatch, up and outage-free at the aggregation
/// instant, and finished (slowdown included) before the group closed. Under
/// the empty plan that is every member.
fn delivering_members(
    system: &FlSystem,
    members: &[usize],
    dispatch: f64,
    ready: f64,
    out: &mut Vec<usize>,
) {
    let faults = &system.faults;
    out.clear();
    out.extend(members.iter().copied().filter(|&w| {
        faults.available(w, dispatch)
            && faults.available(w, ready)
            && !faults.in_outage(w, ready)
            && dispatch + system.local_training_time(w) * faults.slowdown(w) <= ready + 1e-9
    }));
}

/// Simulate group-asynchronous federated learning over `system` with the
/// given `grouping` and aggregation back-end, returning the training trace.
///
/// The simulation is event-driven in virtual time: each group's "ready" event
/// fires when its slowest member finishes local training; aggregation then
/// takes the (mode-dependent) upload latency, the global model is updated and
/// the group is re-dispatched. With a single group the schedule degenerates to
/// synchronous FL, so the same engine also powers the FedAvg / Air-FedAvg
/// baselines.
///
/// There is one schedule: a round's wait and its participants always come
/// from the system's fault plan, whose empty form answers every query with
/// the neutral value. Only the fault log's participation counters depend on
/// the plan being enabled — a fault-free run carries an empty log.
///
/// The local-training hot path allocates nothing per member in steady state:
/// every worker owns a persistent [`WorkerPool`] RNG stream, the round's
/// members write their local parameters and cached `‖w_i‖²` into the pool's
/// rows (grown to the largest round, then reused), each training lane owns
/// one scratch model and workspace, and the per-group dispatch vectors and
/// the [`Server`]'s power-control, AirComp estimate/energy and evaluation
/// buffers are all reused across rounds. With `opts.parallel` the members of the
/// aggregating group train concurrently, one contiguous run per lane on the
/// persistent worker pool — bit-identical to the sequential schedule.
pub fn run_group_async(
    system: &FlSystem,
    grouping: &Grouping,
    aggregation: AggregationMode,
    opts: &EngineOptions,
    mechanism_name: &str,
    rng: &mut Rng64,
) -> TrainingTrace {
    opts.validate();
    assert_eq!(
        grouping.num_workers(),
        system.num_workers(),
        "grouping does not match the system's worker count"
    );
    let mut trace = TrainingTrace::new(mechanism_name, &system.workload_label());
    let mut server = Server::new(system);
    let model_dim = system.model_dim();
    let wireless = &system.config.wireless;

    let m = grouping.num_groups();
    let mut dispatch_params: Vec<FlatParams> = vec![server.global().clone(); m];
    let mut dispatch_times: Vec<f64> = vec![0.0; m];
    let mut pool = WorkerPool::new(system, rng);
    let mut participants: Vec<usize> = Vec::new();

    // Initial dispatch: every group starts local training on w_0 at time 0.
    let mut queue: EventQueue<usize> = EventQueue::new();
    for j in 0..m {
        queue.push(group_latency(system, grouping.group(j), 0.0), j);
    }

    // Record the starting point (round 0).
    server.evaluate(0.0, 0, &mut trace);

    for round in 1..=opts.total_rounds {
        let _round_span = telemetry::span!("round", round);
        // Round boundary: honour a watchdog cancellation (no-op without an
        // installed token) and any injected test fault. Neither touches
        // floats or RNG state, so instrumented runs stay bit-identical.
        simcore::cancel::checkpoint(round);
        system.faults.injected_fault(round);
        let Some((ready_time, j)) = queue.pop() else {
            break;
        };
        let members = grouping.group(j);

        // Who actually delivers an update this round: the members that were
        // up at dispatch, finished before the group closed (deadline and
        // slowdown included) and can upload at aggregation time.
        delivering_members(
            system,
            members,
            dispatch_times[j],
            ready_time,
            &mut participants,
        );
        if system.faults.enabled() {
            trace.faults.record_round(participants.len(), members.len());
        }

        let group_data = server.weigh(&participants);

        // Graceful degradation: when nothing can be aggregated — every member
        // dropped, deadlined or in outage, or the surviving members hold no
        // data — skip the global update (no zero-division, no new model
        // version), log the event and re-dispatch the group.
        if participants.is_empty() || group_data <= 0.0 {
            trace.faults.record_event(FaultEvent {
                time: ready_time,
                round,
                group: j,
                kind: FaultEventKind::GroupSkipped,
            });
            if let Some(limit) = opts.max_virtual_time {
                if ready_time > limit {
                    break;
                }
            }
            dispatch_params[j].clone_from(server.global());
            let next_dispatch = ready_time + wireless.broadcast_latency;
            dispatch_times[j] = next_dispatch;
            queue.push(
                next_dispatch + group_latency(system, members, next_dispatch),
                j,
            );
            continue;
        }

        // Upload latency depends on the aggregation back-end (and, for OMA,
        // on how many members actually upload).
        let upload_latency = match aggregation {
            AggregationMode::AirComp => wireless.aircomp_aggregation_time(model_dim),
            AggregationMode::OmaIdeal => {
                wireless.oma_round_upload_time(model_dim, participants.len())
            }
        };
        let aggregation_time = ready_time + upload_latency;
        if let Some(limit) = opts.max_virtual_time {
            if aggregation_time > limit {
                break;
            }
        }

        // Local training: every participating member trains from the model
        // version its group received at dispatch time, in parallel across the
        // group's members when enabled.
        {
            let _train_span = telemetry::span!("train", participants.len());
            pool.train_members(&participants, &dispatch_params[j], system, opts.parallel);
        }

        // Aggregate the group's local models into the group estimate.
        let agg_span = telemetry::span!("aggregate", participants.len());
        match aggregation {
            AggregationMode::AirComp => server.aggregate_over_the_air(
                &pool,
                &participants,
                |w, rng| system.channel.draw_worker(w, rng),
                round,
                rng,
            ),
            // Exact weighted average of the participants' local models.
            // Weights are re-normalised over the survivors (`group_data > 0`
            // is guaranteed by the skip guard above).
            AggregationMode::OmaIdeal => server.aggregate_exact(&pool, &participants),
        };
        drop(agg_span);

        // Periodic evaluation.
        if round % opts.eval_every == 0 || round == opts.total_rounds {
            let _eval_span = telemetry::span!("eval", round);
            server.evaluate(aggregation_time, round, &mut trace);
        }

        // Re-dispatch the fresh global model to the group and schedule its
        // next ready event.
        let _dispatch_span = telemetry::span!("dispatch", j);
        dispatch_params[j].clone_from(server.global());
        let next_dispatch = aggregation_time + wireless.broadcast_latency;
        dispatch_times[j] = next_dispatch;
        queue.push(
            next_dispatch + group_latency(system, members, next_dispatch),
            j,
        );
    }
    trace
}

/// Configuration of the Air-FedGA mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct AirFedGaConfig {
    /// Number of global aggregation rounds `T`.
    pub total_rounds: usize,
    /// Evaluate the global model every this many rounds.
    pub eval_every: usize,
    /// The ξ parameter of constraint (36d) controlling intra-group latency
    /// similarity (the paper finds ξ ≈ 0.3 optimal, Fig. 8).
    pub xi: f64,
    /// Optional virtual-time budget (seconds).
    pub max_virtual_time: Option<f64>,
}

impl Default for AirFedGaConfig {
    fn default() -> Self {
        Self {
            total_rounds: 300,
            eval_every: 5,
            xi: 0.3,
            max_virtual_time: None,
        }
    }
}

/// The Air-FedGA mechanism (Algorithm 1 + Algorithm 2 + Algorithm 3).
#[derive(Debug, Clone)]
pub struct AirFedGa {
    config: AirFedGaConfig,
}

impl AirFedGa {
    /// The mechanism's name in traces, figures and tables.
    pub const NAME: &'static str = "Air-FedGA";

    /// Create the mechanism with the given configuration.
    pub fn new(config: AirFedGaConfig) -> Self {
        assert!((0.0..=1.0).contains(&config.xi), "xi must lie in [0,1]");
        Self { config }
    }

    /// The grouping Algorithm 3 produces for this system at the configured ξ.
    pub fn grouping_for(&self, system: &FlSystem) -> Grouping {
        let objective = GroupingObjective::new(
            system.aircomp_aggregation_time(),
            self.config.xi,
            ObjectiveConstants::default(),
        );
        greedy_grouping(&system.worker_infos, &objective)
    }

    /// Run Air-FedGA's engine (AirComp under Algorithm 2) with an explicit
    /// grouping instead of Algorithm 3's — the ablations' entry point.
    pub fn run_with_grouping(
        &self,
        system: &FlSystem,
        grouping: &Grouping,
        rng: &mut Rng64,
    ) -> TrainingTrace {
        let opts = EngineOptions {
            total_rounds: self.config.total_rounds,
            eval_every: self.config.eval_every,
            max_virtual_time: self.config.max_virtual_time,
            parallel: true,
        };
        let aggregation = AggregationMode::AirComp;
        run_group_async(system, grouping, aggregation, &opts, Self::NAME, rng)
    }

    /// Simulate one full training run over the given system and return its
    /// trace. All run-specific randomness comes from `rng`, so runs are
    /// reproducible.
    pub fn run(&self, system: &FlSystem, rng: &mut Rng64) -> TrainingTrace {
        let grouping = self.grouping_for(system);
        self.run_with_grouping(system, &grouping, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::AggregationMode::{AirComp, OmaIdeal};
    use super::*;
    use crate::system::FlSystemConfig;

    fn quick_system(seed: u64) -> FlSystem {
        let mut rng = Rng64::seed_from(seed);
        FlSystemConfig::mnist_lr_quick().build(&mut rng)
    }

    fn quick_config(rounds: usize) -> AirFedGaConfig {
        AirFedGaConfig {
            total_rounds: rounds,
            eval_every: 2,
            ..AirFedGaConfig::default()
        }
    }

    /// A budget of `rounds` rounds, evaluated after each.
    fn engine_options(rounds: usize, parallel: bool) -> EngineOptions {
        EngineOptions {
            total_rounds: rounds,
            eval_every: 1,
            max_virtual_time: None,
            parallel,
        }
    }

    #[test]
    fn airfedga_trains_and_reduces_loss() {
        let system = quick_system(1);
        let mech = AirFedGa::new(quick_config(60));
        let mut rng = Rng64::seed_from(2);
        let trace = mech.run(&system, &mut rng);
        assert!(trace.len() > 5);
        let initial = trace.points()[0].loss;
        assert!(
            trace.final_loss() < initial * 0.8,
            "loss {} did not drop from {initial}",
            trace.final_loss()
        );
        assert!(trace.final_accuracy() > 0.3);
        assert!(trace.total_time() > 0.0);
        assert!(trace.total_energy() > 0.0);
    }

    #[test]
    fn grouping_respects_xi_and_covers_workers() {
        let system = quick_system(3);
        let mech = AirFedGa::new(quick_config(10));
        let grouping = mech.grouping_for(&system);
        assert_eq!(grouping.num_workers(), system.num_workers());
        let objective = GroupingObjective::new(
            system.aircomp_aggregation_time(),
            AirFedGaConfig::default().xi,
            ObjectiveConstants::default(),
        );
        assert!(objective.satisfies_xi(&grouping, &system.worker_infos));
    }

    #[test]
    fn single_group_behaves_synchronously() {
        let system = quick_system(4);
        let mech = AirFedGa::new(quick_config(10));
        let grouping = Grouping::single_group(system.num_workers());
        let trace = mech.run_with_grouping(&system, &grouping, &mut Rng64::seed_from(5));
        // Synchronous: every round takes at least the slowest worker's time.
        let slowest = (0..system.num_workers())
            .map(|i| system.local_training_time(i))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(trace.total_time() >= slowest * (trace.total_rounds() as f64) * 0.99);
    }

    #[test]
    fn noiseless_run_outperforms_or_matches_noisy_run() {
        // The same system twice, the second over a noiseless channel.
        let noisy_system = quick_system(6);
        let mut clean_cfg = FlSystemConfig::mnist_lr_quick();
        clean_cfg.wireless.noise_variance = 0.0;
        let clean_system = clean_cfg.build(&mut Rng64::seed_from(6));
        let mech = AirFedGa::new(quick_config(40));
        let noisy = mech.run(&noisy_system, &mut Rng64::seed_from(7));
        let clean = mech.run(&clean_system, &mut Rng64::seed_from(7));
        assert!(clean.final_loss() <= noisy.final_loss() * 1.15);
    }

    #[test]
    fn runs_are_reproducible() {
        let system = quick_system(8);
        let mech = AirFedGa::new(quick_config(15));
        let a = mech.run(&system, &mut Rng64::seed_from(9));
        let b = mech.run(&system, &mut Rng64::seed_from(9));
        assert_eq!(a.points().len(), b.points().len());
        for (pa, pb) in a.points().iter().zip(b.points()) {
            assert_eq!(pa.loss.to_bits(), pb.loss.to_bits());
            assert_eq!(pa.time.to_bits(), pb.time.to_bits());
        }
    }

    #[test]
    fn parallel_and_sequential_engines_produce_identical_traces() {
        let system = quick_system(20);
        let grouping = AirFedGa::new(quick_config(1)).grouping_for(&system);
        let [par, seq] = [true, false].map(|parallel| {
            let opts = engine_options(25, parallel);
            let rng = &mut Rng64::seed_from(21);
            run_group_async(&system, &grouping, AirComp, &opts, "run", rng)
        });
        assert_eq!(par.points().len(), seq.points().len());
        for (a, b) in par.points().iter().zip(seq.points()) {
            assert_eq!(a.round, b.round);
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        }
    }

    fn churn_system(seed: u64) -> FlSystem {
        let mut cfg = FlSystemConfig::mnist_lr_quick();
        cfg.faults = faults::FaultSpec {
            dropout_rate: 0.002,
            mean_downtime: 60.0,
            straggler_fraction: 0.3,
            straggler_slowdown: 3.0,
            outage_rate: 0.001,
            outage_duration: 20.0,
            deadline: Some(400.0),
            ..faults::FaultSpec::none()
        };
        cfg.build(&mut Rng64::seed_from(seed))
    }

    #[test]
    fn churn_run_is_bit_identical_parallel_vs_sequential() {
        let system = churn_system(30);
        let grouping = AirFedGa::new(quick_config(1)).grouping_for(&system);
        let [par, seq] = [true, false].map(|parallel| {
            let opts = engine_options(30, parallel);
            let rng = &mut Rng64::seed_from(31);
            run_group_async(&system, &grouping, AirComp, &opts, "run", rng)
        });
        assert_eq!(par.points().len(), seq.points().len());
        for (a, b) in par.points().iter().zip(seq.points()) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        }
        assert_eq!(par.faults, seq.faults);
    }

    #[test]
    fn churn_reduces_participation_but_training_survives() {
        let system = churn_system(32);
        let mech = AirFedGa::new(quick_config(40));
        let trace = mech.run(&system, &mut Rng64::seed_from(33));
        assert_eq!(trace.faults.rounds_attempted, 40);
        assert!(
            trace.faults.participation_rate() < 1.0,
            "churn at rate 0.002 over a long run should drop someone"
        );
        assert!(trace.faults.participation_rate() > 0.2);
        assert!(trace.faults.rounds_survived() > 0);
        let initial = trace.points()[0].loss;
        assert!(
            trace.final_loss() < initial,
            "training under churn should still make progress"
        );
    }

    #[test]
    fn fault_free_system_logs_no_faults() {
        let system = quick_system(34);
        let mech = AirFedGa::new(quick_config(10));
        let trace = mech.run(&system, &mut Rng64::seed_from(35));
        assert!(trace.faults.is_empty());
        assert_eq!(trace.faults.participation_rate(), 1.0);
    }

    #[test]
    fn zero_data_group_is_skipped_instead_of_dividing_by_zero() {
        // Regression: an isolated worker whose shard is empty used to hit
        // `data_sizes[k] / group_data` with `group_data == 0` on the OMA path.
        let mut system = quick_system(36);
        let shard = &system.shards[0];
        let features = fedml::linalg::Matrix::zeros(0, shard.num_features());
        let (classes, name) = (shard.num_classes(), shard.name());
        system.shards[0] = fedml::dataset::Dataset::new(features, vec![], classes, name);
        system.worker_infos[0].data_size = 0;
        let n = system.num_workers();
        // Grouping that isolates the empty worker in its own group.
        let grouping = Grouping::new(vec![vec![0], (1..n).collect()], n);
        let opts = engine_options(8, false);
        let rng = &mut Rng64::seed_from(37);
        let trace = run_group_async(&system, &grouping, OmaIdeal, &opts, "oma", rng);
        assert!(
            trace
                .faults
                .events
                .iter()
                .any(|e| e.kind == FaultEventKind::GroupSkipped && e.group == 0),
            "the empty group should be skipped with a trace event"
        );
        for p in trace.points() {
            assert!(p.loss.is_finite(), "zero-data group poisoned the model");
        }
    }

    #[test]
    fn max_virtual_time_caps_the_run() {
        let system = quick_system(10);
        let mut cfg = quick_config(500);
        cfg.max_virtual_time = Some(100.0);
        let mech = AirFedGa::new(cfg);
        let trace = mech.run(&system, &mut Rng64::seed_from(11));
        assert!(trace.total_time() <= 100.0 + 1e-9);
    }

    #[test]
    fn oma_engine_single_group_is_slower_per_round_than_aircomp() {
        let system = quick_system(12);
        let grouping = Grouping::single_group(system.num_workers());
        let opts = engine_options(5, true);
        let [air, dig] = [AirComp, OmaIdeal].map(|aggregation| {
            let rng = &mut Rng64::seed_from(13);
            run_group_async(&system, &grouping, aggregation, &opts, "run", rng)
        });
        assert!(dig.average_round_time() > air.average_round_time());
    }
}
