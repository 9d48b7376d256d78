//! Dynamic — AirComp-based synchronous FL with per-round worker scheduling.
//!
//! Sun et al. (reference \[31\] of the paper) schedule, at the start of every
//! round, a subset of workers to participate in the over-the-air aggregation
//! based on their instantaneous channel state and energy constraints; the
//! rest stay idle. This keeps the per-round energy in check and the round
//! latency independent of `N`, but — as the paper points out in §VI.B.1 —
//! the selection ignores the data distribution, so under label-skew Non-IID
//! data each round's update is biased towards the selected workers' classes:
//! the loss/accuracy curves jitter and more rounds are needed to converge,
//! which is why Dynamic trails both Air-FedAvg and Air-FedGA in Figs. 3–6
//! and consumes the most aggregation energy in Fig. 9.
//!
//! It is the one row of the mechanism table with a loop of its own: who
//! takes part is decided afresh every round from that round's channel gains,
//! which no fixed grouping expresses. The loop shares the parameter server's
//! round steps ([`airfedga::server::Server`]) and the round budget
//! ([`EngineOptions`]) with the group-asynchronous engine.
//!
//! It cannot become a grouping rule of that engine (one group re-selected
//! each round) at equal bytes, for three reasons:
//!
//! * it draws all `N` channel gains from the run stream at dispatch, while
//!   the engine draws one gain per participant inside the aggregation, so
//!   every later draw of the run stream would move;
//! * it evaluates at aggregation + broadcast, while the engine evaluates at
//!   the aggregation instant, so every trace time would move by one
//!   `broadcast_latency`;
//! * its `max_virtual_time` check counts the broadcast too, so a budgeted
//!   run would stop at a different round.

use airfedga::mechanism::{delivering_members, group_latency, EngineOptions};
use airfedga::server::Server;
use airfedga::system::FlSystem;
use airfedga::worker_pool::WorkerPool;
use fedml::rng::Rng64;
use simcore::trace::{FaultEvent, FaultEventKind, TrainingTrace};

/// Fraction of workers scheduled per round (the paper's comparator schedules
/// a channel/energy-driven subset; 0.3 mirrors its setup).
const SELECT_FRACTION: f64 = 0.3;

/// Channel-aware scheduling: among the workers that are `up` when the round
/// opens, pick the `k` with the best instantaneous channel gains (they can
/// meet the energy budget with the largest power-scaling factor). Ties break
/// by worker index; the selection overwrites `order`, in worker order.
fn select_workers(gains: &[f64], k: usize, up: impl Fn(usize) -> bool, order: &mut Vec<usize>) {
    order.clear();
    order.extend((0..gains.len()).filter(|&w| up(w)));
    // total_cmp, not partial_cmp(..).expect(): a NaN gain orders
    // deterministically instead of panicking mid-round. The index tie-break
    // makes the order total, so an unstable (in-place) sort gives the one
    // order a stable sort would.
    order.sort_unstable_by(|&a, &b| gains[b].total_cmp(&gains[a]).then(a.cmp(&b)));
    order.truncate(k);
    order.sort_unstable();
}

/// Simulate Dynamic over `system` for the budget `opts`, tracing under
/// `mechanism_name`. As in the engine there is one schedule: selection, the
/// round's wait and its participants always go through the system's fault
/// plan (whose empty form is neutral), and only the fault log's
/// participation counters depend on the plan being enabled. Like the engine,
/// a round allocates nothing but an evaluation's scratch: the gains and the
/// selection live in buffers the run reuses.
pub(crate) fn run(
    system: &FlSystem,
    opts: &EngineOptions,
    mechanism_name: &str,
    rng: &mut Rng64,
) -> TrainingTrace {
    opts.validate();
    let mut trace = TrainingTrace::new(mechanism_name, &system.workload_label());
    let mut server = Server::new(system);
    let wireless = &system.config.wireless;
    let faults = &system.faults;
    let aggregation_latency = system.aircomp_aggregation_time();
    let n = system.num_workers();
    let k = ((n as f64 * SELECT_FRACTION).ceil() as usize).max(1);
    let everyone: Vec<usize> = (0..n).collect();
    let mut pool = WorkerPool::new(system, rng);
    let mut participants: Vec<usize> = Vec::new();
    let mut gains: Vec<f64> = Vec::with_capacity(n);
    let mut selected: Vec<usize> = Vec::with_capacity(n);

    server.evaluate(0.0, 0, &mut trace);

    let mut now = 0.0;
    for round in 1..=opts.total_rounds {
        let _round_span = telemetry::span!("round", round);
        // Round boundary: honour a cancel or an expired watchdog and any
        // injected test fault (see the group-async engine).
        simcore::cancel::checkpoint(round);
        faults.injected_fault(round);
        // The scheduler observes this round's channel gains and selects
        // the best-channel subset among the workers that are up.
        let dispatch_span = telemetry::span!("dispatch", round);
        gains.clear();
        gains.extend((0..n).map(|w| system.channel.draw_worker(w, rng)));
        let dispatch = now;
        let up = |w| faults.available(w, dispatch);
        select_workers(&gains, k, up, &mut selected);

        // Synchronous round, timed like an engine group: it lasts as long as
        // the slowest scheduled worker, slowdown-scaled and deadline-capped.
        // When nobody is up the server still waits a full round of the whole
        // population before discovering it has nothing to aggregate.
        let waited_on = if selected.is_empty() {
            &everyone
        } else {
            &selected
        };
        let round_wait = group_latency(system, waited_on, dispatch);
        let ready = dispatch + round_wait;

        // Who actually delivers an update: still up and outage-free at
        // aggregation time and finished before the deadline closed.
        delivering_members(system, &selected, dispatch, ready, &mut participants);
        if faults.enabled() {
            trace
                .faults
                .record_round(participants.len(), selected.len());
        }
        drop(dispatch_span);

        let group_data = server.weigh(&participants);

        // Graceful degradation: nothing to aggregate this round.
        if participants.is_empty() || group_data <= 0.0 {
            trace.faults.record_event(FaultEvent {
                time: ready,
                round,
                group: 0,
                kind: FaultEventKind::GroupSkipped,
            });
            now += round_wait + wireless.broadcast_latency;
            if let Some(limit) = opts.max_virtual_time {
                if now > limit {
                    break;
                }
            }
            continue;
        }

        // Participating workers train from the current global model, in
        // parallel.
        {
            let _train_span = telemetry::span!("train", participants.len());
            pool.train_members(&participants, server.global(), system);
        }
        let agg_span = telemetry::span!("aggregate", participants.len());
        now += round_wait + aggregation_latency + wireless.broadcast_latency;
        if let Some(limit) = opts.max_virtual_time {
            if now > limit {
                break;
            }
        }

        // Over-the-air aggregation of the participating subset, over the
        // gains the scheduler saw.
        server.aggregate_over_the_air(&pool, &participants, |w, _| gains[w], round, rng);
        drop(agg_span);

        if round % opts.eval_every == 0 || round == opts.total_rounds {
            let _eval_span = telemetry::span!("eval", round);
            server.evaluate(now, round, &mut trace);
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MechanismChoice::{AirFedAvg, Dynamic};
    use airfedga::system::FlSystemConfig;

    fn quick_system(seed: u64) -> FlSystem {
        FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(seed))
    }

    #[test]
    fn dynamic_converges_eventually() {
        let system = quick_system(1);
        let mech = Dynamic.build(80, 10, None);
        let trace = mech.run(&system, &mut Rng64::seed_from(2));
        assert!(
            trace.final_accuracy() > 0.5,
            "acc {}",
            trace.final_accuracy()
        );
        assert!(trace.total_energy() > 0.0);
    }

    #[test]
    fn selection_picks_best_channels() {
        let gains = vec![0.2, 0.9, 0.5, 1.4, 0.1];
        let select = |k, up: fn(usize) -> bool| {
            let mut order = vec![7; 9]; // stale contents are overwritten
            select_workers(&gains, k, up, &mut order);
            order
        };
        assert_eq!(select(2, |_| true), vec![1, 3]);
        assert_eq!(select(10, |_| true).len(), 5);
        // Only workers that are up are candidates.
        assert_eq!(select(2, |w| w != 3), vec![1, 2]);
    }

    #[test]
    fn subset_rounds_are_no_slower_than_full_participation() {
        // Selecting a subset can only reduce the per-round straggler wait
        // relative to Air-FedAvg on the same system and seed.
        let system = quick_system(3);
        let dynamic = Dynamic
            .build(10, 1, None)
            .run(&system, &mut Rng64::seed_from(4));
        let air_fedavg = AirFedAvg
            .build(10, 1, None)
            .run(&system, &mut Rng64::seed_from(4));
        assert!(dynamic.average_round_time() <= air_fedavg.average_round_time() + 1e-9);
    }

    #[test]
    fn churn_filters_participants_deterministically() {
        let mut cfg = FlSystemConfig::mnist_lr_quick();
        cfg.faults = faults::FaultSpec {
            dropout_rate: 0.002,
            mean_downtime: 80.0,
            straggler_fraction: 0.4,
            straggler_slowdown: 4.0,
            deadline: Some(300.0),
            ..faults::FaultSpec::none()
        };
        let system = cfg.build(&mut Rng64::seed_from(40));
        let mech = Dynamic.build(40, 5, None);
        let a = mech.run(&system, &mut Rng64::seed_from(41));
        let b = mech.run(&system, &mut Rng64::seed_from(41));
        assert_eq!(a.faults, b.faults, "fault log must be deterministic");
        assert_eq!(a.faults.rounds_attempted, 40);
        assert!(
            a.faults.participation_rate() <= 1.0 && a.faults.rounds_survived() > 0,
            "churned Dynamic should still aggregate some rounds"
        );
        for (pa, pb) in a.points().iter().zip(b.points()) {
            assert_eq!(pa.loss.to_bits(), pb.loss.to_bits());
            assert_eq!(pa.time.to_bits(), pb.time.to_bits());
        }
    }

    /// A round in which every worker is down at dispatch: nobody is
    /// selectable, so the server waits the slowest (slowdown-scaled,
    /// deadline-capped) round of the whole population and skips. The churned
    /// replays may never reach that fallback; this pins a trace that does.
    #[test]
    fn an_all_down_dispatch_waits_a_full_round_and_the_trace_is_pinned() {
        let mut cfg = FlSystemConfig::mnist_lr_quick();
        cfg.faults = faults::FaultSpec {
            dropout_rate: 0.01,
            mean_downtime: 400.0,
            straggler_fraction: 0.3,
            straggler_slowdown: 3.0,
            deadline: Some(300.0),
            ..faults::FaultSpec::none()
        };
        let system = cfg.build(&mut Rng64::seed_from(43));
        let trace = Dynamic
            .build(40, 1, None)
            .run(&system, &mut Rng64::seed_from(44));
        let n = system.num_workers();
        let scaled = |w: usize| system.local_training_time(w) * system.faults.slowdown(w);
        let full_wait = (0..n).map(scaled).fold(0.0_f64, f64::max).min(300.0);
        let all_down = trace.faults.events.iter().filter(|e| {
            let dispatch = e.time - full_wait;
            (0..n).all(|w| !system.faults.available(w, dispatch))
        });
        assert_eq!(all_down.count(), 9, "dispatches with every worker down");
        // FNV-1a over every float of the trace, points then skip times.
        let points = trace.points().iter();
        let floats = points.flat_map(|p| [p.time, p.loss, p.accuracy, p.energy]);
        let floats = floats.chain(trace.faults.events.iter().map(|e| e.time));
        let digest = floats.fold(0xcbf2_9ce4_8422_2325_u64, |h, x| {
            (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
        });
        let log = &trace.faults;
        let counts = [
            trace.points().len(),
            log.events.len(),
            log.rounds_attempted,
            log.rounds_aggregated,
            log.participants_total,
            log.members_total,
        ];
        assert_eq!(
            (digest, counts),
            (0xfb8d_ed6e_9b95_fddb, [16, 25, 40, 15, 17, 59])
        );
    }

    /// A diverged run stops with the round-labelled message under Dynamic as
    /// it does under the engine's mechanisms (both share the server's check):
    /// a learning rate near 1e160 keeps every parameter finite while `‖w‖²`
    /// overflows, which Dynamic's own copy of the step used to let through.
    #[test]
    fn diverged_local_models_stop_the_run_with_a_labelled_panic() {
        let mut cfg = FlSystemConfig::mnist_lr_quick();
        cfg.sgd.learning_rate = 1e160;
        let system = cfg.build(&mut Rng64::seed_from(7));
        for choice in [AirFedAvg, Dynamic] {
            let run = std::panic::AssertUnwindSafe(|| {
                choice
                    .build(3, 1, None)
                    .run(&system, &mut Rng64::seed_from(8));
            });
            let panic = std::panic::catch_unwind(run).expect_err("a diverged run must panic");
            let message = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(
                message.contains("local model norms diverged at round 1"),
                "{}: {message}",
                choice.label()
            );
        }
    }
}
