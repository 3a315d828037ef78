//! Typed serving errors: every way the service declines or fails a
//! request, so callers (and the load generator) can tell backpressure
//! from bugs.

use std::fmt;

/// Why a query was not answered.
///
/// The two shedding variants — [`ServeError::QueueFull`] and
/// [`ServeError::Saturated`] — are *expected* under overload: they are
/// the service degrading predictably instead of collapsing. Clients
/// should treat them as retryable.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The bounded admission queue is at capacity; the request was shed
    /// without being enqueued.
    QueueFull { depth: usize, capacity: usize },
    /// Admitting the request would push the estimated simulated-device
    /// occupancy past the configured limit (see
    /// `AdmissionController`); the request was shed at the door.
    Saturated {
        /// Estimated simulated seconds of device work already admitted
        /// and not yet completed.
        outstanding_sim_secs: f64,
        /// The cost model's estimate for this request.
        estimate_sim_secs: f64,
        /// The configured occupancy ceiling.
        limit_sim_secs: f64,
    },
    /// The query failed validation against the store (zone id out of
    /// range, unknown band, zero bins, ...). Not retryable.
    InvalidQuery(String),
    /// The service is shutting down (or shut down while the request was
    /// queued); no answer will come.
    ShuttingDown,
    /// The batch answering the request panicked (a failing tile source,
    /// say); the message is the panic's. The worker keeps serving.
    Internal(String),
}

impl ServeError {
    /// Was the request shed by backpressure (retryable) rather than
    /// rejected or failed?
    pub fn is_shed(&self) -> bool {
        matches!(
            self,
            ServeError::QueueFull { .. } | ServeError::Saturated { .. }
        )
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { depth, capacity } => {
                write!(f, "admission queue full ({depth}/{capacity})")
            }
            ServeError::Saturated {
                outstanding_sim_secs,
                estimate_sim_secs,
                limit_sim_secs,
            } => write!(
                f,
                "device saturated: {outstanding_sim_secs:.3}s outstanding + \
                 {estimate_sim_secs:.3}s estimated > {limit_sim_secs:.3}s limit"
            ),
            ServeError::InvalidQuery(why) => write!(f, "invalid query: {why}"),
            ServeError::ShuttingDown => write!(f, "service shutting down"),
            ServeError::Internal(why) => write!(f, "internal error: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_classification() {
        assert!(ServeError::QueueFull {
            depth: 4,
            capacity: 4
        }
        .is_shed());
        assert!(ServeError::Saturated {
            outstanding_sim_secs: 1.0,
            estimate_sim_secs: 0.5,
            limit_sim_secs: 1.2
        }
        .is_shed());
        assert!(!ServeError::InvalidQuery("x".into()).is_shed());
        assert!(!ServeError::ShuttingDown.is_shed());
        assert!(!ServeError::Internal("x".into()).is_shed());
    }

    #[test]
    fn display_is_informative() {
        let e = ServeError::QueueFull {
            depth: 8,
            capacity: 8,
        };
        assert!(e.to_string().contains("8/8"));
        let e = ServeError::InvalidQuery("zone 99 out of range".into());
        assert!(e.to_string().contains("zone 99"));
    }
}
