//! Per-worker training state and the parallel local-training round.
//!
//! Every mechanism simulation owns a [`WorkerPool`]. Per simulated worker it
//! keeps only what outlives a round: the worker's private deterministic RNG
//! stream. A round's local models and their cached `‖w_i‖²` are read only by
//! the aggregation that immediately follows the round (Algorithm 1 trains
//! and aggregates a group in the same round), so they live in one pool-owned
//! buffer of *rows*, row `k` holding the k-th sorted member of the latest
//! [`WorkerPool::train_members`] call. A row *is* a model: the member's
//! update loads the dispatched parameters into it, trains it in place and
//! caches its norm, and the aggregation reads its parameters where they lie.
//! The rows grow to the largest round seen and are reused after that; they
//! are the only models the pool holds. Lanes own no model: a **lane** —
//! there are `min(`[`parallel::max_threads`]`, N)` of them, built once with
//! the pool — is a scratch [`Workspace`]. A round's sorted members are split
//! into contiguous runs, one per lane, and each lane trains its run's rows
//! member after member with its own workspace.
//!
//! A training cell holds no other model than these rows, the server's
//! global model, and a dispatch snapshot per model version the global has
//! moved past while a group still trains from it: none under a single group
//! (FedAvg, Air-FedAvg, Dynamic), at most `m − 1` under `m` groups (see
//! [`run_group_async`](crate::mechanism::run_group_async)). The members
//! read the global model itself whenever it still is their dispatch.
//!
//! * **Zero steady-state allocation** — per member nothing: workspaces, RNG
//!   streams and rows are reused across every round (the rows grow only
//!   while rounds keep getting larger). Per round the parallel fan-out
//!   allocates its O(lanes) bookkeeping (the lane list and the map's
//!   per-chunk slots).
//! * **Deterministic parallelism** — results are **bit-identical** to
//!   sequential execution, at any lane count, because nothing a member
//!   computes depends on which lane ran it or what that lane ran before:
//!   each member draws from its own pre-forked RNG stream and trains only its
//!   own row; an update starts with `set_params`, which overwrites every
//!   weight and bias of the row, whoever trained it last; and [`Workspace`]
//!   checkouts are overwritten by every caller. Lane boundaries are a pure
//!   function of (members, lanes), and the aggregation that follows reads
//!   the rows in fixed member order.

use fedml::model::Mlp;
use fedml::optimizer::local_update_ws;
use fedml::params::FlatParams;
use fedml::rng::Rng64;
use fedml::workspace::Workspace;

use crate::system::FlSystem;

/// What one simulated worker keeps between rounds.
struct WorkerSlot {
    /// The worker's private RNG stream (mini-batch shuffling).
    rng: Rng64,
}

/// One member's model of the latest round.
struct LocalRow {
    /// The model the member's update trained, in place, from the dispatch.
    model: Mlp,
    /// `model.params().norm_sq()`, computed once at the end of the update
    /// (inside the parallel fan-out) for the power-control bound and the
    /// transmit energy.
    norm_sq: f64,
}

/// One contiguous run of a round's sorted members, the workspace it trains
/// with, the window of slots it spans (`slots[0]` is worker `first`) and the
/// rows its members train (`rows[i]` is `run[i]`'s).
struct Lane<'a> {
    run: &'a [usize],
    ws: &'a mut Workspace,
    first: usize,
    slots: &'a mut [WorkerSlot],
    rows: &'a mut [LocalRow],
}

/// One slot per worker, one workspace per lane, one row per member of the
/// largest round so far, plus the scratch needed to hand a round's members to
/// the thread pool.
pub struct WorkerPool {
    slots: Vec<WorkerSlot>,
    workspaces: Vec<Workspace>,
    /// The latest round's members, sorted; row `k` is `sorted_members[k]`'s.
    sorted_members: Vec<usize>,
    rows: Vec<LocalRow>,
}

impl WorkerPool {
    /// Create one slot per worker of `system` and one workspace per lane.
    /// Forks one child RNG stream per worker from `rng` (in worker order, so
    /// the construction itself is deterministic). Rows are allocated by the
    /// first rounds, not here.
    pub fn new(system: &FlSystem, rng: &mut Rng64) -> Self {
        let n = system.num_workers();
        let slots = (0..n)
            .map(|w| WorkerSlot {
                rng: rng.fork(w as u64),
            })
            .collect();
        let workspaces = (0..parallel::max_threads().min(n))
            .map(|_| Workspace::new())
            .collect();
        Self {
            slots,
            workspaces,
            sorted_members: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Grow the rows to `m`, each a model of `system`'s shape (its
    /// parameters are overwritten before it trains).
    fn grow_rows(&mut self, m: usize, system: &FlSystem) {
        if self.rows.len() < m {
            self.rows.resize_with(m, || LocalRow {
                model: *system.fresh_model(),
                norm_sq: 0.0,
            });
        }
    }

    /// Run one local update for every worker in `members` (distinct), each
    /// starting from `dispatch`, training this round's rows. The previous
    /// round's results are no longer readable afterwards.
    ///
    /// The sorted members are split into one contiguous run per lane and the
    /// runs are mapped in parallel ([`parallel::par_map`]); the bits do not
    /// depend on the lane count (see the module docs).
    pub fn train_members(&mut self, members: &[usize], dispatch: &FlatParams, system: &FlSystem) {
        self.sorted_members.clear();
        self.sorted_members.extend_from_slice(members);
        self.sorted_members.sort_unstable();
        assert!(
            self.sorted_members.windows(2).all(|p| p[0] < p[1]),
            "a round's members must be distinct"
        );
        let m = self.sorted_members.len();
        self.grow_rows(m, system);
        let sgd = &system.config.sgd;
        let train_lane = |lane: Lane| {
            for (&w, row) in lane.run.iter().zip(lane.rows) {
                row.model.set_params(dispatch);
                let rng = &mut lane.slots[w - lane.first].rng;
                local_update_ws(&mut row.model, &system.shards[w], sgd, rng, lane.ws);
                row.norm_sq = row.model.params().norm_sq();
            }
        };
        // Runs of ⌈m / lanes⌉ members: at most `lanes` of them, each paired
        // with its own workspace, the (disjoint) window of slots it spans and
        // the (disjoint) window of rows its members own.
        let lanes = self.workspaces.len();
        let run_len = m.div_ceil(lanes).max(1);
        let mut rest: &mut [WorkerSlot] = &mut self.slots;
        let mut first = 0;
        let mut work: Vec<Lane> = Vec::with_capacity(lanes);
        let runs = self.sorted_members.chunks(run_len);
        let row_windows = self.rows[..m].chunks_mut(run_len);
        for ((run, rows), ws) in runs.zip(row_windows).zip(&mut self.workspaces) {
            let end = run[run.len() - 1] + 1;
            let (slots, tail) = std::mem::take(&mut rest).split_at_mut(end - first);
            work.push(Lane {
                run,
                ws,
                first,
                slots,
                rows,
            });
            (rest, first) = (tail, end);
        }
        // One map item per lane, so one lane per chunk (a map targets at
        // least `max_threads()` chunks, and there are no more lanes than
        // that); a single lane runs in-line.
        parallel::par_map(work, train_lane);
    }

    /// Worker `w`'s row of the latest round. Panics if `w` did not train in
    /// the latest [`train_members`](Self::train_members) call.
    fn row(&self, w: usize) -> &LocalRow {
        match self.sorted_members.binary_search(&w) {
            Ok(k) => &self.rows[k],
            Err(_) => panic!("worker {w} did not train in the latest round"),
        }
    }

    /// The local parameters worker `w` produced in the latest round. Panics
    /// if `w` was not a member of it.
    pub fn local(&self, w: usize) -> &FlatParams {
        self.row(w).model.params()
    }

    /// `‖local(w)‖²`, bit-identical to `local(w).norm_sq()`. Panics if `w`
    /// was not a member of the latest round.
    pub fn local_norm_sq(&self, w: usize) -> f64 {
        self.row(w).norm_sq
    }

    /// Rows this pool holds — its only models, since a lane holds a
    /// workspace alone: one per member of its largest round so far.
    #[cfg(test)]
    fn rows_held(&self) -> usize {
        self.rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::FlSystemConfig;

    #[test]
    fn members_can_be_an_unsorted_subset() {
        let system = FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(4));
        let dispatch = system.template.params();
        let mut pool = WorkerPool::new(&system, &mut Rng64::seed_from(8));
        pool.train_members(&[5, 1, 3], dispatch, &system);
        assert!(pool.local(1).norm_sq() > 0.0);
        assert!(pool.local(3).norm_sq() > 0.0);
        assert!(pool.local(5).norm_sq() > 0.0);
    }

    #[test]
    #[should_panic(expected = "worker 2 did not train in the latest round")]
    fn a_worker_absent_from_the_latest_round_is_unreadable() {
        let system = FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(4));
        let dispatch = system.template.params();
        let mut pool = WorkerPool::new(&system, &mut Rng64::seed_from(8));
        pool.train_members(&[2, 6], dispatch, &system);
        pool.train_members(&[6, 1], dispatch, &system);
        pool.local(2);
    }

    #[test]
    fn rows_grow_to_the_largest_round_and_no_further() {
        let system = FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(4));
        let dispatch = system.template.params();
        let mut pool = WorkerPool::new(&system, &mut Rng64::seed_from(8));
        assert_eq!(pool.rows_held(), 0);
        for size in [3, 7, 5] {
            let members: Vec<usize> = (0..size).rev().collect();
            pool.train_members(&members, dispatch, &system);
        }
        assert_eq!(pool.rows_held(), 7);
    }

    #[test]
    #[should_panic(expected = "must be distinct")]
    fn repeated_members_are_rejected() {
        let system = FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(4));
        let dispatch = system.template.params();
        let mut pool = WorkerPool::new(&system, &mut Rng64::seed_from(8));
        pool.train_members(&[2, 6, 2], dispatch, &system);
    }

    #[test]
    fn a_pool_holds_no_model_besides_its_rows() {
        let mut cfg = FlSystemConfig::mnist_lr_quick();
        cfg.num_workers = 100;
        let system = cfg.build(&mut Rng64::seed_from(5));
        let dispatch = system.template.params();
        let mut pool = WorkerPool::new(&system, &mut Rng64::seed_from(9));
        assert_eq!(pool.rows_held(), 0, "a fresh pool holds no model");
        pool.train_members(&[40, 2, 71], dispatch, &system);
        assert_eq!(pool.rows_held(), 3);
    }
}
