//! Dynamic — AirComp-based synchronous FL with per-round worker scheduling.
//!
//! Sun et al. (reference [31] of the paper) schedule, at the start of every
//! round, a subset of workers to participate in the over-the-air aggregation
//! based on their instantaneous channel state and energy constraints; the
//! rest stay idle. This keeps the per-round energy in check and the round
//! latency independent of `N`, but — as the paper points out in §VI.B.1 —
//! the selection ignores the data distribution, so under label-skew Non-IID
//! data each round's update is biased towards the selected workers' classes:
//! the loss/accuracy curves jitter and more rounds are needed to converge,
//! which is why Dynamic trails both Air-FedAvg and Air-FedGA in Figs. 3–6
//! and consumes the most aggregation energy in Fig. 9.

use crate::BaselineOptions;
use airfedga::server::Server;
use airfedga::system::{FlMechanism, FlSystem};
use airfedga::worker_pool::WorkerPool;
use fedml::rng::Rng64;
use simcore::trace::{FaultEvent, FaultEventKind, TrainingTrace};

/// Configuration of the Dynamic baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicConfig {
    /// Shared run-length options.
    pub options: BaselineOptions,
    /// Fraction of workers scheduled per round (the paper's comparator
    /// schedules a channel/energy-driven subset; 0.3 mirrors its setup).
    pub select_fraction: f64,
    /// Run Algorithm-2-style power control over the selected subset.
    pub power_control: bool,
    /// Simulate channel noise.
    pub channel_noise: bool,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        Self {
            options: BaselineOptions::default(),
            select_fraction: 0.3,
            power_control: true,
            channel_noise: true,
        }
    }
}

impl DynamicConfig {
    /// Panic on nonsensical values.
    pub fn validate(&self) {
        self.options.validate();
        assert!(
            self.select_fraction > 0.0 && self.select_fraction <= 1.0,
            "select_fraction must lie in (0, 1]"
        );
    }
}

/// The Dynamic baseline.
#[derive(Debug, Clone)]
pub struct Dynamic {
    config: DynamicConfig,
}

impl Dynamic {
    /// Create the mechanism.
    pub fn new(config: DynamicConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// Access the configuration.
    pub fn config(&self) -> &DynamicConfig {
        &self.config
    }

    /// Channel-aware scheduling: pick the `k` workers with the best
    /// instantaneous channel gains (they can meet the energy budget with the
    /// largest power-scaling factor). Ties break by worker index.
    fn select_workers(gains: &[f64], k: usize) -> Vec<usize> {
        let all: Vec<usize> = (0..gains.len()).collect();
        Self::select_workers_among(&all, gains, k)
    }

    /// [`Dynamic::select_workers`] restricted to a candidate set — under
    /// fault injection the scheduler only sees workers that are up when the
    /// round opens.
    fn select_workers_among(candidates: &[usize], gains: &[f64], k: usize) -> Vec<usize> {
        let mut order: Vec<usize> = candidates.to_vec();
        // total_cmp, not partial_cmp(..).expect(): a NaN gain orders
        // deterministically instead of panicking mid-round.
        order.sort_by(|&a, &b| gains[b].total_cmp(&gains[a]).then(a.cmp(&b)));
        order.truncate(k.min(candidates.len()));
        order.sort_unstable();
        order
    }
}

impl FlMechanism for Dynamic {
    fn name(&self) -> &'static str {
        "Dynamic"
    }

    fn run(&self, system: &FlSystem, rng: &mut Rng64) -> TrainingTrace {
        let cfg = &self.config;
        let mut trace = TrainingTrace::new(self.name(), &system.workload_label());
        let mut server = Server::new(system);
        let wireless = &system.config.wireless;
        let aggregation_latency = system.aircomp_aggregation_time();
        let k = ((system.num_workers() as f64 * cfg.select_fraction).ceil() as usize).max(1);
        let mut pool = WorkerPool::new(system, rng);

        server.evaluate(0.0, 0, &mut trace);

        // Fault bookkeeping (see `run_group_async`): a disabled plan takes
        // the historical code path bit-for-bit.
        let fault_on = system.faults.enabled();
        let mut participants_buf: Vec<usize> = Vec::new();

        let mut now = 0.0;
        for round in 1..=cfg.options.total_rounds {
            let _round_span = telemetry::span!("round", round);
            // Round boundary: honour a watchdog cancellation and any
            // injected test fault (see the group-async engine).
            simcore::cancel::checkpoint(round);
            if fault_on {
                system.faults.injected_fault(round);
            }
            // The scheduler observes this round's channel gains and selects
            // the best-channel subset (among the workers that are up, under
            // fault injection).
            let dispatch_span = telemetry::span!("dispatch", round);
            let gains = system.channel.draw_round(rng);
            let dispatch = now;
            let selected = if fault_on {
                let up: Vec<usize> = (0..system.num_workers())
                    .filter(|&w| system.faults.available(w, dispatch))
                    .collect();
                Self::select_workers_among(&up, &gains, k)
            } else {
                Self::select_workers(&gains, k)
            };

            // Synchronous round: the round lasts as long as the slowest
            // scheduled worker (slowdown-scaled and deadline-capped under
            // faults; when nobody is up the server still waits a full round
            // before discovering it has nothing to aggregate).
            let round_wait = if fault_on {
                let faults = &system.faults;
                let scaled = |w: usize| system.local_training_time(w) * faults.slowdown(w);
                let mut wait = selected.iter().copied().map(scaled).fold(0.0_f64, f64::max);
                if wait == 0.0 {
                    wait = (0..system.num_workers())
                        .map(scaled)
                        .fold(0.0_f64, f64::max);
                }
                match faults.deadline() {
                    Some(d) => wait.min(d),
                    None => wait,
                }
            } else {
                selected
                    .iter()
                    .map(|&w| system.local_training_time(w))
                    .fold(f64::NEG_INFINITY, f64::max)
            };
            let ready = dispatch + round_wait;

            // Who actually delivers an update: still up and outage-free at
            // aggregation time and finished before the deadline closed.
            let participants: &[usize] = if fault_on {
                let faults = &system.faults;
                participants_buf.clear();
                participants_buf.extend(selected.iter().copied().filter(|&w| {
                    faults.available(w, ready)
                        && !faults.in_outage(w, ready)
                        && dispatch + system.local_training_time(w) * faults.slowdown(w)
                            <= ready + 1e-9
                }));
                trace
                    .faults
                    .record_round(participants_buf.len(), selected.len());
                &participants_buf
            } else {
                &selected
            };
            drop(dispatch_span);

            let group_data = server.weigh(participants);

            // Graceful degradation: nothing to aggregate this round.
            if participants.is_empty() || group_data <= 0.0 {
                trace.faults.record_event(FaultEvent {
                    time: ready,
                    round,
                    group: 0,
                    kind: FaultEventKind::GroupSkipped,
                });
                now += round_wait + wireless.broadcast_latency;
                if let Some(limit) = cfg.options.max_virtual_time {
                    if now > limit {
                        break;
                    }
                }
                continue;
            }

            // Participating workers train from the current global model (in
            // parallel when enabled).
            {
                let _train_span = telemetry::span!("train", participants.len());
                pool.train_members(participants, server.global(), system, cfg.options.parallel);
            }
            let agg_span = telemetry::span!("aggregate", participants.len());
            now += round_wait + aggregation_latency + wireless.broadcast_latency;
            if let Some(limit) = cfg.options.max_virtual_time {
                if now > limit {
                    break;
                }
            }

            // Over-the-air aggregation of the participating subset.
            server.aggregate_over_the_air(
                &pool,
                participants,
                |w, _| gains[w],
                cfg.power_control,
                cfg.channel_noise,
                round,
                rng,
            );
            drop(agg_span);

            if round % cfg.options.eval_every == 0 || round == cfg.options.total_rounds {
                let _eval_span = telemetry::span!("eval", round);
                server.evaluate(now, round, &mut trace);
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airfedga::system::FlSystemConfig;

    fn quick_system(seed: u64) -> FlSystem {
        FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(seed))
    }

    #[test]
    fn dynamic_converges_eventually() {
        let system = quick_system(1);
        let mech = Dynamic::new(DynamicConfig {
            options: BaselineOptions {
                total_rounds: 80,
                eval_every: 10,
                max_virtual_time: None,
                parallel: true,
            },
            ..DynamicConfig::default()
        });
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
        assert_eq!(Dynamic::select_workers(&gains, 2), vec![1, 3]);
        assert_eq!(Dynamic::select_workers(&gains, 10).len(), 5);
    }

    #[test]
    fn subset_rounds_are_no_slower_than_full_participation() {
        // Selecting a subset can only reduce the per-round straggler wait
        // relative to Air-FedAvg on the same system and seed.
        let system = quick_system(3);
        let dynamic = Dynamic::new(DynamicConfig {
            options: BaselineOptions {
                total_rounds: 10,
                eval_every: 1,
                max_virtual_time: None,
                parallel: true,
            },
            select_fraction: 0.3,
            ..DynamicConfig::default()
        })
        .run(&system, &mut Rng64::seed_from(4));
        let air_fedavg = crate::air_fedavg::AirFedAvg::new(BaselineOptions {
            total_rounds: 10,
            eval_every: 1,
            max_virtual_time: None,
            parallel: true,
        })
        .run(&system, &mut Rng64::seed_from(4));
        assert!(dynamic.average_round_time() <= air_fedavg.average_round_time() + 1e-9);
    }

    #[test]
    fn full_fraction_selects_everyone() {
        let system = quick_system(5);
        let mech = Dynamic::new(DynamicConfig {
            options: BaselineOptions {
                total_rounds: 3,
                eval_every: 1,
                max_virtual_time: None,
                parallel: true,
            },
            select_fraction: 1.0,
            ..DynamicConfig::default()
        });
        let trace = mech.run(&system, &mut Rng64::seed_from(6));
        // With everyone participating every round the energy ledger touches
        // all workers.
        assert!(trace.total_energy() > 0.0);
        assert_eq!(trace.total_rounds(), 3);
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
        let mech = Dynamic::new(DynamicConfig {
            options: BaselineOptions {
                total_rounds: 40,
                eval_every: 5,
                max_virtual_time: None,
                parallel: true,
            },
            ..DynamicConfig::default()
        });
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

    /// A diverged run stops with the round-labelled message under Dynamic as
    /// it does under the engine's mechanisms (both share the server's check):
    /// a learning rate near 1e160 keeps every parameter finite while `‖w‖²`
    /// overflows, which Dynamic's own copy of the step used to let through.
    #[test]
    fn diverged_local_models_stop_the_run_with_a_labelled_panic() {
        let mut cfg = FlSystemConfig::mnist_lr_quick();
        cfg.sgd.learning_rate = 1e160;
        let system = cfg.build(&mut Rng64::seed_from(7));
        let options = BaselineOptions {
            total_rounds: 3,
            eval_every: 1,
            max_virtual_time: None,
            parallel: true,
        };
        let mechanisms: [Box<dyn FlMechanism>; 2] = [
            Box::new(crate::air_fedavg::AirFedAvg::new(options)),
            Box::new(Dynamic::new(DynamicConfig {
                options,
                ..DynamicConfig::default()
            })),
        ];
        for mechanism in mechanisms {
            let run = std::panic::AssertUnwindSafe(|| {
                mechanism.run(&system, &mut Rng64::seed_from(8));
            });
            let panic = std::panic::catch_unwind(run).expect_err("a diverged run must panic");
            let message = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(
                message.contains("local model norms diverged at round 1"),
                "{}: {message}",
                mechanism.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "select_fraction")]
    fn rejects_zero_fraction() {
        Dynamic::new(DynamicConfig {
            select_fraction: 0.0,
            ..DynamicConfig::default()
        });
    }
}
