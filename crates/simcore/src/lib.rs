//! # simcore — discrete-event simulation engine
//!
//! The paper evaluates federated-learning mechanisms on *wall-clock training
//! time* under edge heterogeneity. Its own methodology (§VI.A.2) is a
//! simulation: 100 virtual workers share one workstation, their local-training
//! times are scaled by heterogeneity factors `κ_i ~ U[1, 10]`, and a
//! "dynamically maintained list" of completion times decides when each group
//! aggregates. This crate provides that machinery in virtual time:
//!
//! * [`events`] — a deterministic discrete-event queue keyed on virtual time.
//! * [`worker`] — the heterogeneity factors `κ_i` and the
//!   `l_i = κ_i · l̂_i` latency of every worker.
//! * [`trace`] — time-series recording of loss/accuracy/energy so that the
//!   experiment harness can regenerate the paper's figures.
//! * [`cancel`] — cooperative cancellation read at round boundaries (a
//!   per-attempt deadline and a process-wide flag), so a watchdog or the
//!   job server can break a hung grid cell without preemption.
//!
//! Virtual time makes runs deterministic and lets a laptop sweep worker
//! populations that the paper needed a GPU workstation for.

#![warn(missing_docs)]

pub mod cancel;
pub mod events;
pub mod trace;
pub mod worker;
