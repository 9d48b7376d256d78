//! Communication latency models.
//!
//! Two families of schemes appear in the evaluation:
//!
//! * **AirComp** (Air-FedGA, Air-FedAvg, Dynamic): every participating worker
//!   transmits simultaneously, so the aggregation latency is independent of
//!   the number of participants — Eq. (33): `L_u = (q / R) · L_s` where `q` is
//!   the model dimension, `R` the number of sub-channels and `L_s` the OFDM
//!   symbol duration.
//! * **OMA** (FedAvg, TiFL): workers upload their models one at a time (TDMA)
//!   or by splitting the band (OFDMA); either way the total upload latency of
//!   a round grows linearly with the number of uploaders, which is the
//!   scalability bottleneck Fig. 10 demonstrates.

use serde::{Deserialize, Serialize};

/// Physical-layer constants shared by all mechanisms. Defaults follow
/// §VI.A.2 of the paper: bandwidth `B = 1 MHz`, noise variance `σ₀² = 1 W`,
/// per-round energy budget `Ê_i = 10 J`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WirelessConfig {
    /// Channel bandwidth in Hz.
    pub bandwidth_hz: f64,
    /// AWGN variance σ₀² at the parameter server (W).
    pub noise_variance: f64,
    /// Per-worker, per-round energy budget Ê_i (J).
    pub energy_budget: f64,
    /// Number of OFDM sub-channels `R` used by AirComp aggregation.
    pub subchannels: usize,
    /// OFDM symbol duration `L_s` (seconds).
    pub symbol_duration: f64,
    /// Bits used to encode one model parameter in OMA digital uploads.
    pub bits_per_param: f64,
    /// Spectral efficiency of OMA digital uploads (bits/s/Hz).
    pub spectral_efficiency: f64,
    /// Latency of broadcasting the global model back to a group (seconds).
    /// The downlink is a broadcast channel, so this is independent of the
    /// number of receivers; the paper folds it into the round time.
    pub broadcast_latency: f64,
}

impl Default for WirelessConfig {
    fn default() -> Self {
        Self {
            bandwidth_hz: 1.0e6,
            noise_variance: 1.0,
            energy_budget: 10.0,
            subchannels: 256,
            symbol_duration: 1.0e-3,
            bits_per_param: 32.0,
            spectral_efficiency: 1.0,
            broadcast_latency: 0.05,
        }
    }
}

impl WirelessConfig {
    /// Named physical-layer presets, the string-keyed channel components of
    /// the scenario registry. Returns `None` for an unknown name (see
    /// [`WirelessConfig::preset_names`]).
    ///
    /// * `"paper"` — the paper's §VI.A.2 constants verbatim (`σ₀² = 1 W`).
    /// * `"calibrated"` — the paper's constants with the noise variance
    ///   scaled to `10⁻⁵ W`, matching the surrogate-model calibration the
    ///   figure workloads use (see `FlSystemConfig::mnist_lr`).
    /// * `"noisy"` — the calibrated preset with 100× the noise power, for
    ///   stress scenarios probing AirComp error sensitivity.
    /// * `"wideband"` — 10× bandwidth and 4× sub-channels, shrinking both
    ///   OMA upload and AirComp aggregation latencies.
    pub fn preset(name: &str) -> Option<WirelessConfig> {
        match name {
            "paper" => Some(Self::default()),
            "calibrated" => Some(Self {
                noise_variance: 1.0e-5,
                ..Self::default()
            }),
            "noisy" => Some(Self {
                noise_variance: 1.0e-3,
                ..Self::default()
            }),
            "wideband" => Some(Self {
                bandwidth_hz: 1.0e7,
                subchannels: 1024,
                ..Self::default()
            }),
            _ => None,
        }
    }

    /// The names [`WirelessConfig::preset`] accepts.
    pub fn preset_names() -> &'static [&'static str] {
        &["paper", "calibrated", "noisy", "wideband"]
    }

    /// Panic with a descriptive message on inconsistent constants.
    pub fn validate(&self) {
        assert!(self.bandwidth_hz > 0.0, "bandwidth must be positive");
        assert!(self.noise_variance >= 0.0, "noise variance must be >= 0");
        assert!(self.energy_budget > 0.0, "energy budget must be positive");
        assert!(self.subchannels > 0, "subchannel count must be positive");
        assert!(
            self.symbol_duration > 0.0,
            "symbol duration must be positive"
        );
        assert!(
            self.bits_per_param > 0.0,
            "bits per parameter must be positive"
        );
        assert!(
            self.spectral_efficiency > 0.0,
            "spectral efficiency must be positive"
        );
        assert!(
            self.broadcast_latency >= 0.0,
            "broadcast latency must be >= 0"
        );
    }

    /// AirComp aggregation latency `L_u = (q / R) · L_s` (Eq. (33)). The
    /// ceiling accounts for the last partially-filled OFDM symbol.
    pub fn aircomp_aggregation_time(&self, model_dim: usize) -> f64 {
        assert!(model_dim > 0, "model dimension must be positive");
        let symbols = (model_dim as f64 / self.subchannels as f64).ceil();
        symbols * self.symbol_duration
    }

    /// Total upload latency of one OMA round in which `num_uploaders` workers
    /// each upload `model_dim` parameters digitally. TDMA serialises the
    /// uploads at the full link rate and OFDMA runs them side by side on
    /// `1/n` of the band each: either way the aggregate air-time is the same,
    /// so the round completion time scales linearly with the number of
    /// uploaders.
    pub fn oma_round_upload_time(&self, model_dim: usize, num_uploaders: usize) -> f64 {
        assert!(model_dim > 0, "model dimension must be positive");
        assert!(num_uploaders > 0, "need at least one uploader");
        let bits = model_dim as f64 * self.bits_per_param;
        let single = bits / (self.bandwidth_hz * self.spectral_efficiency);
        single * num_uploaders as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = WirelessConfig::default();
        c.validate();
        assert_eq!(c.bandwidth_hz, 1.0e6);
        assert_eq!(c.noise_variance, 1.0);
        assert_eq!(c.energy_budget, 10.0);
    }

    #[test]
    fn presets_cover_every_listed_name_and_validate() {
        for name in WirelessConfig::preset_names() {
            let c = WirelessConfig::preset(name)
                .unwrap_or_else(|| panic!("listed preset {name:?} missing"));
            c.validate();
        }
        assert_eq!(
            WirelessConfig::preset("paper"),
            Some(WirelessConfig::default())
        );
        assert_eq!(
            WirelessConfig::preset("calibrated").unwrap().noise_variance,
            1.0e-5
        );
        assert!(WirelessConfig::preset("nonsense").is_none());
    }

    #[test]
    fn aircomp_time_is_independent_of_uploaders() {
        let c = WirelessConfig::default();
        let t = c.aircomp_aggregation_time(10_000);
        // (10000 / 256).ceil() = 40 symbols of 1 ms.
        assert!((t - 0.040).abs() < 1e-12);
    }

    #[test]
    fn oma_time_scales_linearly_with_workers() {
        let c = WirelessConfig::default();
        let one = c.oma_round_upload_time(10_000, 1);
        let hundred = c.oma_round_upload_time(10_000, 100);
        assert!((hundred / one - 100.0).abs() < 1e-9);
        // 10k params * 32 bits / 1 Mbit/s = 0.32 s.
        assert!((one - 0.32).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "model dimension must be positive")]
    fn rejects_zero_dimension() {
        let c = WirelessConfig::default();
        let _ = c.aircomp_aggregation_time(0);
    }
}
