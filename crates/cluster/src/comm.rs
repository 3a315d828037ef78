//! The interconnect's cost model.
//!
//! Message delivery is real (the combine step really moves the
//! histograms over channels); the *cost* of each message on the cluster
//! interconnect is modeled by [`NetworkModel`] and accounted into the
//! simulated wall-clock, the same way the paper's measured runtimes "did
//! include MPI communication times".

use crate::error::{ClusterError, ClusterResult};
use serde::Serialize;

/// Interconnect cost model: fixed per-message latency plus bandwidth.
/// Defaults approximate Titan's Gemini network for the multi-megabyte
/// histogram messages this workload sends.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct NetworkModel {
    pub latency_secs: f64,
    pub bandwidth_gbps: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            latency_secs: 10e-6,
            bandwidth_gbps: 5.0,
        }
    }
}

impl NetworkModel {
    /// Construct a validated model.
    pub fn new(latency_secs: f64, bandwidth_gbps: f64) -> ClusterResult<Self> {
        let m = NetworkModel {
            latency_secs,
            bandwidth_gbps,
        };
        m.validate()?;
        Ok(m)
    }

    /// Reject models that would produce `inf`/NaN message costs
    /// downstream (zero or negative bandwidth, negative latency).
    pub fn validate(&self) -> ClusterResult<()> {
        if !self.bandwidth_gbps.is_finite() || self.bandwidth_gbps <= 0.0 {
            return Err(ClusterError::InvalidConfig(format!(
                "bandwidth_gbps must be finite and > 0, got {}",
                self.bandwidth_gbps
            )));
        }
        if !self.latency_secs.is_finite() || self.latency_secs < 0.0 {
            return Err(ClusterError::InvalidConfig(format!(
                "latency_secs must be finite and >= 0, got {}",
                self.latency_secs
            )));
        }
        Ok(())
    }

    /// Seconds to move one `bytes`-sized message.
    pub fn message_secs(&self, bytes: u64) -> f64 {
        self.latency_secs + bytes as f64 / (self.bandwidth_gbps * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_model_costs() {
        let n = NetworkModel::default();
        // 62 MB of histograms: latency-negligible, ~12.4 ms at 5 GB/s.
        let t = n.message_secs(62_000_000);
        assert!((t - 0.01241).abs() < 1e-4, "got {t}");
        // Empty message costs exactly the latency.
        assert_eq!(n.message_secs(0), 10e-6);
    }

    #[test]
    fn network_model_validation() {
        assert!(NetworkModel::new(10e-6, 5.0).is_ok());
        assert!(NetworkModel::new(10e-6, 0.0).is_err(), "zero bandwidth");
        assert!(
            NetworkModel::new(10e-6, -1.0).is_err(),
            "negative bandwidth"
        );
        assert!(NetworkModel::new(-1e-6, 5.0).is_err(), "negative latency");
        assert!(NetworkModel::new(f64::NAN, 5.0).is_err(), "NaN latency");
        assert!(
            NetworkModel::new(0.0, f64::INFINITY).is_err(),
            "infinite bandwidth"
        );
    }
}
