//! MPI-like message passing between simulated nodes.
//!
//! Each node holds a [`Comm`] endpoint with `send`/`recv` semantics over
//! channels. Message delivery is real (the combine step really moves the
//! histograms); the *cost* of each message on the cluster interconnect is
//! modeled by [`NetworkModel`] and accounted into the simulated
//! wall-clock, the same way the paper's measured runtimes "did include
//! MPI communication times".
//!
//! All endpoint operations are fallible and return [`ClusterError`]
//! instead of panicking: a dropped peer is an event the fault-tolerant
//! runner observes and recovers from, not a process abort.

use crate::error::{ClusterError, ClusterResult};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use serde::Serialize;
use std::time::Duration;

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

/// One node's communication endpoint.
pub struct Comm<T> {
    rank: usize,
    size: usize,
    senders: Vec<Sender<(usize, T)>>,
    receiver: Receiver<(usize, T)>,
}

impl<T: Send> Comm<T> {
    /// This endpoint's rank (0 is the master by convention).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of endpoints in the cluster.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send `msg` to `dest` (non-blocking, unbounded buffering). Errors
    /// if `dest` is out of range or its endpoint has been dropped — e.g.
    /// the peer crashed or already exited.
    pub fn try_send(&self, dest: usize, msg: T) -> ClusterResult<()> {
        let sender = self.senders.get(dest).ok_or(ClusterError::SendFailed {
            from: self.rank,
            to: dest,
        })?;
        sender
            .send((self.rank, msg))
            .map_err(|_| ClusterError::SendFailed {
                from: self.rank,
                to: dest,
            })
    }

    /// Block until a message arrives; returns `(source_rank, message)`.
    /// Errors when every peer endpoint has been dropped.
    pub fn recv(&self) -> ClusterResult<(usize, T)> {
        self.receiver
            .recv()
            .map_err(|_| ClusterError::Disconnected { rank: self.rank })
    }

    /// Block for at most `timeout`. A timeout is the failure detector's
    /// raw signal: somebody who should have reported has not.
    pub fn recv_timeout(&self, timeout: Duration) -> ClusterResult<(usize, T)> {
        self.receiver.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => ClusterError::RecvTimeout {
                rank: self.rank,
                waited: timeout,
            },
            RecvTimeoutError::Disconnected => ClusterError::Disconnected { rank: self.rank },
        })
    }

    /// Receive exactly one message from every other rank (the master's
    /// fault-free gather). Fails on disconnect; fault-tolerant gathers
    /// drive [`Comm::recv_timeout`] directly instead.
    pub fn gather_all(&self) -> ClusterResult<Vec<(usize, T)>> {
        (0..self.size - 1).map(|_| self.recv()).collect()
    }
}

/// A set of wired-up endpoints, one per rank.
pub struct Cluster;

impl Cluster {
    /// Create `n` endpoints with all-to-all connectivity.
    #[allow(clippy::new_ret_no_self)] // factory for wired Comm endpoints
    pub fn new<T: Send>(n: usize) -> ClusterResult<Vec<Comm<T>>> {
        if n == 0 {
            return Err(ClusterError::InvalidConfig(
                "cluster needs at least one node".into(),
            ));
        }
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (s, r) = unbounded();
            senders.push(s);
            receivers.push(r);
        }
        Ok(receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| Comm {
                rank,
                size: n,
                senders: senders.clone(),
                receiver,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point() {
        let mut comms = Cluster::new::<u32>(2).unwrap();
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        assert_eq!(c0.rank(), 0);
        assert_eq!(c1.rank(), 1);
        c1.try_send(0, 42).unwrap();
        let (from, v) = c0.recv().unwrap();
        assert_eq!((from, v), (1, 42));
    }

    #[test]
    fn gather_from_workers() {
        let comms = Cluster::new::<usize>(5).unwrap();
        std::thread::scope(|s| {
            let mut iter = comms.into_iter();
            let master = iter.next().unwrap();
            for c in iter {
                s.spawn(move || c.try_send(0, c.rank() * 10).unwrap());
            }
            let mut got = master.gather_all().unwrap();
            got.sort_unstable();
            assert_eq!(got, vec![(1, 10), (2, 20), (3, 30), (4, 40)]);
        });
    }

    #[test]
    fn bidirectional_threads() {
        let mut comms = Cluster::new::<String>(2).unwrap();
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                let (_, ping) = c1.recv().unwrap();
                c1.try_send(0, format!("{ping}-pong")).unwrap();
            });
            c0.try_send(1, "ping".into()).unwrap();
            let (_, reply) = c0.recv().unwrap();
            assert_eq!(reply, "ping-pong");
        });
    }

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

    #[test]
    fn empty_cluster_rejected() {
        assert!(matches!(
            Cluster::new::<u32>(0),
            Err(ClusterError::InvalidConfig(_))
        ));
    }

    #[test]
    fn send_to_dropped_peer_is_an_error_not_a_panic() {
        let mut comms = Cluster::new::<u32>(2).unwrap();
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        drop(c1); // peer "crashes"
        assert_eq!(
            c0.try_send(1, 5).unwrap_err(),
            ClusterError::SendFailed { from: 0, to: 1 }
        );
        // Out-of-range destination is also a typed error.
        assert!(c0.try_send(7, 5).is_err());
    }

    #[test]
    fn recv_timeout_reports_timeout() {
        let comms = Cluster::new::<u32>(2).unwrap();
        let err = comms[0].recv_timeout(Duration::from_millis(5)).unwrap_err();
        assert!(matches!(err, ClusterError::RecvTimeout { rank: 0, .. }));
    }
}
