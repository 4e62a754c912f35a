//! Error types for the bcm model crate.

use std::fmt;

use crate::bounds::MAX_BOUND;
use crate::net::ProcessId;
use crate::time::Time;

/// Errors produced when building networks, simulating, or validating runs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BcmError {
    /// A channel endpoint refers to a process that does not exist.
    UnknownProcess(ProcessId),
    /// A channel was declared twice.
    DuplicateChannel {
        /// Channel source.
        from: ProcessId,
        /// Channel destination.
        to: ProcessId,
    },
    /// A self-loop channel `(i, i)` was requested; the paper's network graph
    /// has channels only between distinct processes (actions that take time
    /// are modelled separately).
    SelfLoop(ProcessId),
    /// Bounds violate `1 <= L <= U <= MAX_BOUND` (see
    /// [`crate::bounds::MAX_BOUND`]).
    InvalidBounds {
        /// Channel source.
        from: ProcessId,
        /// Channel destination.
        to: ProcessId,
        /// Declared lower bound.
        lower: u64,
        /// Declared upper bound.
        upper: u64,
    },
    /// A message was (or would be) delivered outside its channel bounds.
    DeliveryOutOfBounds {
        /// Channel source.
        from: ProcessId,
        /// Channel destination.
        to: ProcessId,
        /// When the message was sent.
        sent_at: Time,
        /// When it was delivered.
        delivered_at: Time,
    },
    /// A scheduler returned a delivery time in the past of the send.
    SchedulerMisbehaved {
        /// Explanation of the violation.
        detail: String,
    },
    /// A path mentions a channel missing from the network.
    MissingChannel {
        /// Channel source.
        from: ProcessId,
        /// Channel destination.
        to: ProcessId,
    },
    /// A process-name sequence is not a path (empty, or broken channel hop).
    InvalidPath {
        /// Explanation of the violation.
        detail: String,
    },
    /// The network has no processes.
    EmptyNetwork,
    /// Run validation failed.
    IllegalRun {
        /// Explanation of the violation.
        detail: String,
    },
    /// A referenced node does not exist in the run.
    UnknownNode {
        /// Explanation of the reference that failed.
        detail: String,
    },
    /// An external input was scheduled for a nonexistent process or at time 0
    /// (the paper's processes cannot act at time 0).
    InvalidExternal {
        /// Explanation of the violation.
        detail: String,
    },
}

impl fmt::Display for BcmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BcmError::UnknownProcess(p) => write!(f, "unknown process {p}"),
            BcmError::DuplicateChannel { from, to } => {
                write!(f, "duplicate channel ({from}, {to})")
            }
            BcmError::SelfLoop(p) => write!(f, "self-loop channel on process {p}"),
            BcmError::InvalidBounds {
                from,
                to,
                lower,
                upper,
            } => write!(
                f,
                "invalid bounds on ({from}, {to}): need 1 <= L <= U <= {MAX_BOUND}, \
                 got L={lower}, U={upper}"
            ),
            BcmError::DeliveryOutOfBounds {
                from,
                to,
                sent_at,
                delivered_at,
            } => write!(
                f,
                "delivery on ({from}, {to}) sent at {sent_at} delivered at {delivered_at} violates bounds"
            ),
            BcmError::SchedulerMisbehaved { detail } => {
                write!(f, "scheduler misbehaved: {detail}")
            }
            BcmError::MissingChannel { from, to } => {
                write!(f, "channel ({from}, {to}) is not in the network")
            }
            BcmError::InvalidPath { detail } => write!(f, "invalid network path: {detail}"),
            BcmError::EmptyNetwork => write!(f, "network has no processes"),
            BcmError::IllegalRun { detail } => write!(f, "illegal run: {detail}"),
            BcmError::UnknownNode { detail } => write!(f, "unknown node: {detail}"),
            BcmError::InvalidExternal { detail } => write!(f, "invalid external input: {detail}"),
        }
    }
}

impl std::error::Error for BcmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            BcmError::UnknownProcess(ProcessId::new(3)),
            BcmError::SelfLoop(ProcessId::new(0)),
            BcmError::EmptyNetwork,
            BcmError::IllegalRun { detail: "x".into() },
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }
}
