//! The parameter server's half of a round: over-the-air aggregation of the
//! participants' local models into the global model, and the periodic
//! evaluation recorded in the trace.
//!
//! Both training loops — the event-driven engine
//! ([`run_group_async`](crate::mechanism::run_group_async)) and the Dynamic
//! baseline's synchronous one — do these two steps the same way, so they are
//! written once here; *when* a round happens, who takes part and which channel
//! gains they see is scheduling, and stays with the loops. [`Server`] carries
//! the global model and every buffer the steps reuse across rounds, so a
//! round allocates nothing; an evaluation checks out its scratch for the call
//! (its layer transposes and activations) and frees it on return, so no
//! evaluation buffer is held between evaluations.
//!
//! A group is folded straight into the global model: the aggregation forms
//! its estimate one block of the parameter vector at a time and applies
//! Eq. (10) to each block as it is formed ([`fold_group`]), so the server
//! holds no estimate buffer.

use crate::system::FlSystem;
use crate::worker_pool::WorkerPool;
use fedml::model::Mlp;
use fedml::params::FlatParams;
use fedml::rng::Rng64;
use fedml::workspace::Workspace;
use simcore::trace::{TracePoint, TrainingTrace};
use wireless::aircomp::{air_fold, fold_group, global_update, AirAggregationInput};
use wireless::energy::EnergyLedger;
use wireless::power::{optimize_power, PowerControlConfig};

/// The global model, the energy ledger and the round-persistent buffers of
/// one training run. The global is its only model-sized buffer.
pub struct Server<'a> {
    system: &'a FlSystem,
    /// The global model `w_t`: Eq. (10) updates its parameters in place and
    /// [`Server::evaluate`] runs it as it stands.
    global: Mlp,
    /// The ledger of every participant's transmit energy.
    ledger: EnergyLedger,
    /// The participants' data sizes `D_i` and their sum `D_j`, filled by
    /// [`Server::weigh`].
    data_sizes: Vec<f64>,
    group_data: f64,
    /// The participants' channel gains this round.
    gains: Vec<f64>,
    /// The system's total data size `D` (the denominator of `β_j`).
    total_data: f64,
    /// The participants' transmit energies this round.
    energies: Vec<f64>,
    /// Algorithm 2's inputs, refilled per aggregating group.
    power: PowerControlConfig,
}

impl<'a> Server<'a> {
    /// A server for one run over `system`, holding its initial model `w_0`.
    pub fn new(system: &'a FlSystem) -> Self {
        Self {
            system,
            global: *system.fresh_model(),
            ledger: EnergyLedger::default(),
            data_sizes: Vec::new(),
            gains: Vec::new(),
            group_data: 0.0,
            total_data: system.total_data() as f64,
            energies: Vec::new(),
            power: PowerControlConfig::for_group(1.0, &[1.0], &[1.0]),
        }
    }

    /// The global model `w_t`.
    pub fn global(&self) -> &FlatParams {
        self.global.params()
    }

    /// Record the round's participants: their data sizes, and the sum `D_j`,
    /// which is returned (0 when there is nothing to aggregate).
    pub fn weigh(&mut self, participants: &[usize]) -> f64 {
        let shards = &self.system.shards;
        self.data_sizes.clear();
        self.data_sizes
            .extend(participants.iter().map(|&w| shards[w].len() as f64));
        self.group_data = self.data_sizes.iter().sum();
        self.group_data
    }

    /// Evaluate the global model on the test set (batched loss + accuracy in
    /// one pass) and record the point in `trace`. The evaluation's scratch
    /// lives for this call only.
    pub fn evaluate(&mut self, time: f64, round: usize, trace: &mut TrainingTrace) {
        let stats = self
            .global
            .evaluate_ws(&self.system.test, &mut Workspace::new());
        trace.record(TracePoint {
            time,
            round,
            loss: stats.loss,
            accuracy: stats.accuracy,
            energy: self.ledger.total(),
        });
    }

    /// Aggregate the participants' local models (in `pool`, after their local
    /// update) exactly — the ideal OMA upload, which costs no transmit energy
    /// here — and fold the result into the global model. The weights `D_i /
    /// D_j` are over the participants last [weighed](Self::weigh), whose
    /// `D_j` must be positive.
    pub(crate) fn aggregate_exact(&mut self, pool: &WorkerPool, participants: &[usize]) {
        let (data_sizes, group_data) = (&self.data_sizes, self.group_data);
        let member = |k: usize| (data_sizes[k] / group_data, pool.local(participants[k]));
        // Eq. (10), applied to each block of the estimate as it is formed.
        let sink = global_update(self.global.params_mut(), group_data, self.total_data);
        fold_group(participants.len(), member, None, 1.0, sink);
    }

    /// Aggregate the participants' local models (in `pool`, after their local
    /// update) over the noisy fading MAC and fold the result into the global
    /// model: take each participant's channel gain from `gain_of(worker,
    /// rng)`, bound the local norms, run Algorithm 2 for `(σ_t, η_t)`,
    /// superpose with the AWGN of Eq. (9) at the system's
    /// `wireless.noise_variance`, charge each participant's transmit energy
    /// to the ledger, then apply Eq. (10). Expects `participants`
    /// [weighed](Self::weigh).
    ///
    /// Panics, naming the round, when a local model's `‖w‖²` is not finite —
    /// a diverged run must stop rather than trace `inf` / NaN. Each cached
    /// norm is checked on its own: folding them first would lose a NaN
    /// (`f64::max` drops it).
    pub fn aggregate_over_the_air(
        &mut self,
        pool: &WorkerPool,
        participants: &[usize],
        mut gain_of: impl FnMut(usize, &mut Rng64) -> f64,
        round: usize,
        rng: &mut Rng64,
    ) {
        self.gains.clear();
        self.gains
            .extend(participants.iter().map(|&w| gain_of(w, rng)));
        let wireless = &self.system.config.wireless;
        let mut norm_bound = 0.0_f64;
        for &w in participants {
            let norm_sq = pool.local_norm_sq(w);
            assert!(
                norm_sq.is_finite(),
                "local model norms diverged at round {round}; \
                 check the learning rate / channel-noise calibration"
            );
            norm_bound = norm_bound.max(norm_sq.sqrt());
        }
        let norm_bound = norm_bound.max(1e-9);
        self.power.set_group(
            norm_bound,
            &self.data_sizes,
            &self.gains,
            wireless.energy_budget,
        );
        self.power.noise_variance = wireless.noise_variance;
        let power = optimize_power(&self.power);
        // Gather straight from the round-persistent buffers (no per-round
        // Vec<AirAggregationInput>), one pass over each local model: its
        // norm² was cached by the local update. Eq. (10) is applied to each
        // block of the estimate as it is formed.
        let (data_sizes, gains) = (&self.data_sizes, &self.gains);
        air_fold(
            participants.len(),
            |k| AirAggregationInput {
                data_size: data_sizes[k],
                channel_gain: gains[k],
                params: pool.local(participants[k]),
            },
            |k| pool.local_norm_sq(participants[k]),
            power.sigma,
            power.eta,
            wireless.noise_variance,
            rng,
            &mut self.energies,
            global_update(self.global.params_mut(), self.group_data, self.total_data),
        );
        for &energy in &self.energies {
            self.ledger.record(energy);
        }
    }
}
