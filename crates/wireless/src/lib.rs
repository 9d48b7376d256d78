//! # wireless — over-the-air computation substrate
//!
//! Models the wireless multiple-access channel (MAC) that Air-FedGA aggregates
//! over, together with the orthogonal (OMA) transmission schemes used by the
//! FedAvg/TiFL baselines:
//!
//! * [`channel`] — per-round block-fading channel gains `h_i^t`.
//! * [`aircomp`] — the analog superposition of Eq. (9) and the denoised group
//!   estimate of Eq. (10), plus aggregation-error metrics.
//! * [`power`] — Algorithm 2: alternating optimisation of the power-scaling
//!   factor `σ_t` and the denoising factor `η_t` under per-worker energy
//!   budgets (Eq. (44) and Eq. (47)).
//! * [`energy`] — transmit-energy accounting `E_i^t = ‖p_i^t w_i^t‖²` (Eq. (7)).
//! * [`timing`] — the AirComp aggregation latency `L_u = (q/R)·L_s` (Eq. (33))
//!   and the OMA upload-latency model used by the non-AirComp baselines.
//!
//! The constants of §VI.A.2 (bandwidth 1 MHz, noise variance σ₀² = 1 W, energy
//! budget Ê_i = 10 J) are the defaults of [`timing::WirelessConfig`].

#![warn(missing_docs)]

pub mod aircomp;
pub mod channel;
pub mod energy;
pub mod power;
pub mod timing;

// The crate-root paths the repo benchmark imports; everything else is named
// by its module.
pub use aircomp::{air_aggregate_indexed_into, AirAggregationInput, AirAggregationScratch};
pub use power::{optimize_power, PowerControlConfig};
