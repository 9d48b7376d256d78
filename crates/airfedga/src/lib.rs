//! # airfedga — the Air-FedGA mechanism
//!
//! This crate implements the paper's primary contribution:
//!
//! * [`system`] — the simulated federated-learning system shared by
//!   Air-FedGA and every baseline: synthetic dataset + Non-IID partition,
//!   per-worker shards, heterogeneous worker latencies (`κ_i ~ U[1,10]`),
//!   and the wireless configuration of §VI.A.2.
//! * [`mechanism`] — Algorithm 1: grouping asynchronous federated learning
//!   via over-the-air computation, driven in virtual time. One engine,
//!   parameterised by a grouping and an aggregation back-end; Air-FedGA is
//!   Algorithm 3's grouping with AirComp, and the `baselines` crate's table
//!   lists the other pairs.
//! * [`server`] — the parameter server's half of a round (over-the-air
//!   aggregation into the global model, periodic evaluation), shared by the
//!   engine and the Dynamic baseline's own loop.
//! * [`worker_pool`] — per-worker RNG streams, one reused buffer of the
//!   latest round's local parameters (one row per member) and per-lane
//!   training scratch (a workspace); a round's members train in parallel,
//!   one run per lane, on as many cores as are idle, with
//!   bit-identical-to-sequential results.
//!
//! ## Quickstart
//!
//! ```
//! use airfedga::mechanism::{AirFedGa, AirFedGaConfig};
//! use airfedga::system::FlSystemConfig;
//! use fedml::rng::Rng64;
//!
//! let mut cfg = FlSystemConfig::mnist_lr_quick();
//! cfg.num_workers = 10;
//! let system = cfg.build(&mut Rng64::seed_from(1));
//! let mech = AirFedGa::new(AirFedGaConfig {
//!     total_rounds: 20,
//!     ..AirFedGaConfig::default()
//! });
//! let trace = mech.run(&system, &mut Rng64::seed_from(2));
//! assert!(trace.final_loss() < 2.4);
//! ```

#![warn(missing_docs)]

pub mod mechanism;
pub mod server;
pub mod system;
pub mod worker_pool;
