//! Per-worker training state and the (optionally parallel) local-training
//! round.
//!
//! Every mechanism simulation owns a [`WorkerPool`]: one slot per simulated
//! worker holding that worker's model instance, its private deterministic RNG
//! stream, its scratch [`Workspace`] and the buffer its local parameters are
//! written into. Keeping the state per-worker has two payoffs:
//!
//! * **Zero steady-state allocation** — model, workspace and parameter buffer
//!   are reused across every round the worker participates in.
//! * **Deterministic parallelism** — a round's members touch only their own
//!   slots, so the per-member local updates can run on the persistent worker pool
//!   ([`parallel`]) and still produce traces **bit-identical** to sequential
//!   execution: each member draws from its own pre-forked RNG stream, and the
//!   aggregation that follows reads the slots in fixed member order.

use fedml::model::Model;
use fedml::optimizer::local_update_from_ws;
use fedml::params::FlatParams;
use fedml::rng::Rng64;
use fedml::workspace::Workspace;
use parallel::prelude::*;

use crate::system::FlSystem;

/// One simulated worker's private training state.
struct WorkerSlot {
    /// The worker's model instance (used as the gradient-evaluation
    /// template; its parameters are overwritten from the dispatched global
    /// model at the start of every local update).
    model: Box<dyn Model>,
    /// The worker's private RNG stream (mini-batch shuffling).
    rng: Rng64,
    /// The worker's scratch buffer pool.
    ws: Workspace,
    /// The local parameters produced by the worker's most recent update.
    local: FlatParams,
    /// `local.norm_sq()`, computed once at the end of the update (inside the
    /// parallel fan-out) for the power-control bound and the transmit energy.
    local_norm_sq: f64,
}

/// One slot per worker, plus the scratch needed to hand a round's members to
/// the thread pool.
pub struct WorkerPool {
    slots: Vec<WorkerSlot>,
    sorted_members: Vec<usize>,
}

impl WorkerPool {
    /// Create one slot per worker of `system`. Forks one child RNG stream per
    /// worker from `rng` (in worker order, so the construction itself is
    /// deterministic).
    pub fn new(system: &FlSystem, rng: &mut Rng64) -> Self {
        let q = system.model_dim();
        let slots = (0..system.num_workers())
            .map(|w| WorkerSlot {
                model: system.fresh_model(),
                rng: rng.fork(w as u64),
                ws: Workspace::new(),
                local: FlatParams::zeros(q),
                local_norm_sq: 0.0,
            })
            .collect();
        Self {
            slots,
            sorted_members: Vec::new(),
        }
    }

    /// Run one local update for every worker in `members`, each starting from
    /// `dispatch`, writing the results into the members' slots.
    ///
    /// With `parallel` the members are mapped over the persistent worker pool;
    /// the result is bit-identical to the sequential path because every
    /// member only touches its own slot and RNG stream.
    pub fn train_members(
        &mut self,
        members: &[usize],
        dispatch: &FlatParams,
        system: &FlSystem,
        parallel: bool,
    ) {
        self.sorted_members.clear();
        self.sorted_members.extend_from_slice(members);
        self.sorted_members.sort_unstable();
        let sgd = &system.config.sgd;
        let train_one = |w: usize, slot: &mut WorkerSlot| {
            local_update_from_ws(
                slot.model.as_mut(),
                dispatch,
                &system.shards[w],
                sgd,
                &mut slot.rng,
                &mut slot.ws,
                &mut slot.local,
            );
            slot.local_norm_sq = slot.local.norm_sq();
        };
        let muts = parallel::disjoint_muts(&mut self.slots, &self.sorted_members);
        let jobs: Vec<(usize, &mut WorkerSlot)> =
            self.sorted_members.iter().copied().zip(muts).collect();
        if parallel {
            // A round's member updates are a uniform micro fan-out (similar
            // shard sizes, identical model work), so one contiguous chunk per
            // thread minimises queue overhead — every thread with nothing
            // else to do, joining callers included, takes one. The hint is
            // scheduling-only and keeps the trace bit-identical (see the
            // parallel crate).
            let _: Vec<()> = jobs
                .into_par_iter()
                .map(|(w, slot)| train_one(w, slot))
                .with_chunk_hint(ChunkHint::Coarse)
                .collect();
        } else {
            for (w, slot) in jobs {
                train_one(w, slot);
            }
        }
    }

    /// The local parameters worker `w` produced in its most recent update.
    pub fn local(&self, w: usize) -> &FlatParams {
        &self.slots[w].local
    }

    /// `‖local(w)‖²`, bit-identical to `local(w).norm_sq()`.
    pub fn local_norm_sq(&self, w: usize) -> f64 {
        self.slots[w].local_norm_sq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::FlSystemConfig;

    #[test]
    fn parallel_and_sequential_training_are_bit_identical() {
        let system = FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(3));
        let members: Vec<usize> = (0..system.num_workers()).collect();
        let dispatch = system.template.params();

        let mut par = WorkerPool::new(&system, &mut Rng64::seed_from(7));
        par.train_members(&members, &dispatch, &system, true);
        let mut seq = WorkerPool::new(&system, &mut Rng64::seed_from(7));
        seq.train_members(&members, &dispatch, &system, false);

        for &w in &members {
            for (a, b) in par.local(w).0.iter().zip(seq.local(w).0.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "worker {w} diverged");
            }
        }
    }

    #[test]
    fn members_can_be_an_unsorted_subset() {
        let system = FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(4));
        let dispatch = system.template.params();
        let mut pool = WorkerPool::new(&system, &mut Rng64::seed_from(8));
        pool.train_members(&[5, 1, 3], &dispatch, &system, true);
        assert!(pool.local(1).norm_sq() > 0.0);
        assert!(pool.local(3).norm_sq() > 0.0);
        assert!(pool.local(5).norm_sq() > 0.0);
        // Untouched worker keeps its zeroed buffer.
        assert_eq!(pool.local(0).norm_sq(), 0.0);
    }
}
