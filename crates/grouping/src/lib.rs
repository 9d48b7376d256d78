//! # grouping — worker grouping for Air-FedGA
//!
//! Implements §V of the paper:
//!
//! * [`emd`] — the earth-mover distance `Λ_j = Σ_k |λ_k − β_j^k|` between a
//!   group's label distribution and the global one (Eq. (11)), the quantity
//!   Corollary 1 ties to the convergence residual and Table III reports.
//! * [`objective`] — the training-time objective `L(x)·(1 + τ̂_max)·log_B A`
//!   of problem (P2)/(P4) (Eq. (33)–(35), (39), (40a)) and the ξ-constraint
//!   of Eq. (36d). It holds the repo's one evaluator of Theorem 1,
//!   [`objective::theorem1_bound`]: the contraction base
//!   `B = 1 − (2µγ − µ/L) Σ_j ψ_j β_j` and the residual `δ`, from per-group
//!   terms `(ψ_j, β_j, Λ_j)` and one set of constants,
//!   [`objective::ObjectiveConstants`]; Eq. (38)'s round count is
//!   [`objective::ObjectiveConstants::rounds_to_epsilon`].
//! * [`greedy`] — Algorithm 3: the greedy worker-grouping heuristic that
//!   assigns workers (sorted by data size) to the group minimising the
//!   current objective, opening a new group when that is better.
//! * [`tifl`] — the TiFL-style latency-tier grouping used as a baseline.
//!
//! The central data types are [`worker_info::WorkerInfo`] (what the grouping
//! algorithms know about a worker: latency, data size, label counts) and
//! [`worker_info::Grouping`] (a validated partition of workers into groups).

#![warn(missing_docs)]

pub mod emd;
pub mod greedy;
pub mod objective;
pub mod tifl;
pub mod worker_info;
