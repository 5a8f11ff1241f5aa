//! Error type for the inference layer.

use qni_model::ids::{EventId, QueueId};
use std::fmt;

/// Errors raised by the Gibbs sampler, initialization, and StEM.
#[derive(Debug)]
pub enum InferenceError {
    /// A move was requested for an event that does not support it (e.g.
    /// resampling the arrival of an initial event).
    BadMoveTarget {
        /// The offending event.
        event: EventId,
        /// What was wrong.
        what: &'static str,
    },
    /// A conditional's support was empty — the state violates the
    /// deterministic constraints.
    EmptySupport {
        /// The event being resampled.
        event: EventId,
        /// Computed lower bound.
        lower: f64,
        /// Computed upper bound.
        upper: f64,
    },
    /// The network is not M/M/1 (the Gibbs sampler requires exponential
    /// service everywhere).
    NotExponential,
    /// Rates vector shape does not match the number of queues.
    RateShapeMismatch {
        /// Expected entries.
        expected: usize,
        /// Provided entries.
        actual: usize,
    },
    /// A rate was not finite and strictly positive: the exponential
    /// conditionals are undefined for it.
    BadRate {
        /// The queue the rate belongs to (queue 0 carries λ).
        queue: QueueId,
        /// The offending value.
        value: f64,
    },
    /// Initialization failed to find a feasible completion.
    InitFailed(qni_lp::LpError),
    /// An option value was invalid.
    BadOptions {
        /// What was wrong.
        what: &'static str,
    },
    /// `burn_in >= iterations`: every iteration would be discarded and
    /// the kept-sample window (point estimate, diagnostics) would be
    /// empty.
    EmptyKeptWindow {
        /// Requested burn-in iterations.
        burn_in: usize,
        /// Requested total iterations.
        iterations: usize,
    },
    /// A model-layer error bubbled up.
    Model(qni_model::ModelError),
    /// A statistics-layer error bubbled up.
    Stats(qni_stats::StatsError),
    /// A trace-layer error bubbled up (windowing, serialization).
    Trace(qni_trace::TraceError),
}

impl fmt::Display for InferenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferenceError::BadMoveTarget { event, what } => {
                write!(f, "bad move target {event}: {what}")
            }
            InferenceError::EmptySupport {
                event,
                lower,
                upper,
            } => write!(f, "empty support for event {event}: [{lower}, {upper}]"),
            InferenceError::NotExponential => {
                write!(f, "Gibbs sampling requires exponential (M/M/1) service")
            }
            InferenceError::RateShapeMismatch { expected, actual } => {
                write!(f, "expected {expected} rates, got {actual}")
            }
            InferenceError::BadRate { queue, value } => write!(
                f,
                "bad rate for queue {queue}: {value} (rates must be finite and positive)"
            ),
            InferenceError::InitFailed(e) => write!(f, "initialization failed: {e}"),
            InferenceError::BadOptions { what } => write!(f, "bad options: {what}"),
            InferenceError::EmptyKeptWindow {
                burn_in,
                iterations,
            } => write!(
                f,
                "burn-in ({burn_in}) must be smaller than iterations ({iterations}): \
                 no post-burn-in samples would be kept for the estimate"
            ),
            InferenceError::Model(e) => write!(f, "model error: {e}"),
            InferenceError::Stats(e) => write!(f, "stats error: {e}"),
            InferenceError::Trace(e) => write!(f, "trace error: {e}"),
        }
    }
}

impl std::error::Error for InferenceError {}

impl From<qni_model::ModelError> for InferenceError {
    fn from(e: qni_model::ModelError) -> Self {
        InferenceError::Model(e)
    }
}

impl From<qni_stats::StatsError> for InferenceError {
    fn from(e: qni_stats::StatsError) -> Self {
        InferenceError::Stats(e)
    }
}

impl From<qni_lp::LpError> for InferenceError {
    fn from(e: qni_lp::LpError) -> Self {
        InferenceError::InitFailed(e)
    }
}

impl From<qni_trace::TraceError> for InferenceError {
    fn from(e: qni_trace::TraceError) -> Self {
        InferenceError::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = InferenceError::EmptySupport {
            event: EventId(2),
            lower: 1.0,
            upper: 0.5,
        };
        assert!(e.to_string().contains("e2"));
        assert!(InferenceError::NotExponential.to_string().contains("M/M/1"));
        let e = InferenceError::BadRate {
            queue: QueueId(1),
            value: -1.0,
        };
        assert!(e.to_string().contains("q1") && e.to_string().contains("-1"));
    }

    #[test]
    fn conversions() {
        let e: InferenceError = qni_lp::LpError::Infeasible.into();
        assert!(matches!(e, InferenceError::InitFailed(_)));
    }
}
