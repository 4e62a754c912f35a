//! The facade's single error type.
//!
//! Callers of [`crate::ZigzagService`] match one `Error` instead of three
//! layer errors. Conversion is non-lossy: every wrapped layer error is
//! kept whole and exposed through [`std::error::Error::source`], so a
//! caller (or a log formatter walking the chain) sees exactly the failure
//! the layer reported.

use std::fmt;

use zigzag_bcm::BcmError;
use zigzag_coord::CoordError;
use zigzag_core::CoreError;

use crate::service::SessionId;

/// Errors produced by the `zigzag::api` facade.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// An underlying model-layer error (network, simulation, run
    /// recording, codec).
    Bcm(BcmError),
    /// An underlying causality-layer error (knowledge engine, graphs,
    /// constructions, incremental pipeline).
    Core(CoreError),
    /// An underlying coordination-layer error (specs, scenarios,
    /// streaming decisions).
    Coord(CoordError),
    /// The session id does not name an open session.
    UnknownSession {
        /// The offending id.
        id: SessionId,
    },
    /// A `CoordDecision` query was dispatched to a session whose
    /// [`crate::SessionConfig`] carries no coordination spec.
    NoSpec,
    /// A wire document could not be decoded.
    Wire {
        /// 1-based line at which decoding failed (0 when unknown).
        line: usize,
        /// Explanation of the malformation.
        detail: String,
    },
    /// A service-level operation ([`crate::Query::Stats`],
    /// [`crate::Query::Append`], [`crate::Query::Export`], …) reached a
    /// bare session — nested inside a [`crate::Query::QueryBatch`], or
    /// through a direct [`crate::StreamSession::dispatch`] — where only
    /// the service can answer it.
    ServiceLevelQuery,
    /// A [`crate::net`] worker's bounded queue was full when the frame
    /// arrived: the deterministic backpressure verdict (reject now,
    /// rather than buffer without bound).
    Overloaded {
        /// The worker whose queue rejected the frame.
        worker: usize,
    },
    /// The server survived a condition that should be impossible — a
    /// panic caught on a dispatch path, or a lock poisoned by one — and
    /// answered with an error document instead of dying.
    Internal {
        /// What happened, for the log line.
        detail: String,
    },
    /// The durable session store failed: an I/O error on a log or
    /// snapshot file, a malformed on-disk document, or a store operation
    /// addressed to a session it does not manage.
    Store {
        /// What happened (I/O errors are rendered in, since
        /// `std::io::Error` is neither `Clone` nor `PartialEq`).
        detail: String,
    },
    /// A client-side transport failure: the connection dropped, reset, or
    /// timed out before a complete answer arrived. The request *may or may
    /// not* have reached the server — which is why this variant is
    /// retryable for idempotent queries but appends must probe first (see
    /// [`crate::client::ResilientClient`]).
    Transport {
        /// What happened (I/O errors are rendered in, since
        /// `std::io::Error` is neither `Clone` nor `PartialEq`).
        detail: String,
    },
}

impl Error {
    /// Whether a client may safely retry the request that produced this
    /// error.
    ///
    /// The taxonomy is deliberately conservative — retryable means "the
    /// failure is transient *and* retrying cannot corrupt state":
    ///
    /// | Variant | Retryable | Why |
    /// |---|---|---|
    /// | [`Error::Transport`] | yes | connection-level; the server state is intact |
    /// | [`Error::Overloaded`] | yes | deterministic backpressure; back off and resend |
    /// | [`Error::Internal`] | no | the server caught a panic; state is suspect |
    /// | [`Error::Store`] | no | durability failed; blind resend risks duplicates |
    /// | everything else | no | the request itself is wrong; resending cannot help |
    ///
    /// Note the transport/append caveat: a transport failure leaves it
    /// unknown whether an append landed, so [`crate::ResilientClient`]
    /// retries appends only after an event-count probe confirms the event
    /// is absent.
    pub fn is_retryable(&self) -> bool {
        matches!(self, Error::Transport { .. } | Error::Overloaded { .. })
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Bcm(e) => write!(f, "model layer: {e}"),
            Error::Core(e) => write!(f, "causality layer: {e}"),
            Error::Coord(e) => write!(f, "coordination layer: {e}"),
            Error::UnknownSession { id } => write!(f, "unknown session {id}"),
            Error::NoSpec => write!(
                f,
                "coordination decision requested on a session configured without a spec"
            ),
            Error::Wire { line, detail } => write!(f, "wire: line {line}: {detail}"),
            Error::ServiceLevelQuery => write!(
                f,
                "stats is a service-level query; it cannot be nested in a batch \
                 or dispatched on a bare session"
            ),
            Error::Overloaded { worker } => {
                write!(f, "server overloaded: worker {worker} queue is full")
            }
            Error::Internal { detail } => write!(f, "internal server error: {detail}"),
            Error::Store { detail } => write!(f, "session store: {detail}"),
            Error::Transport { detail } => write!(f, "transport: {detail}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Bcm(e) => Some(e),
            Error::Core(e) => Some(e),
            Error::Coord(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BcmError> for Error {
    fn from(e: BcmError) -> Self {
        Error::Bcm(e)
    }
}

impl From<CoreError> for Error {
    fn from(e: CoreError) -> Self {
        Error::Core(e)
    }
}

impl From<CoordError> for Error {
    fn from(e: CoordError) -> Self {
        Error::Coord(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_and_source_chains_are_non_lossy() {
        let bcm: Error = BcmError::EmptyNetwork.into();
        assert!(bcm.to_string().contains("model layer"));
        assert!(bcm.source().is_some());

        let core: Error = CoreError::PositiveCycle.into();
        assert!(core.source().is_some());
        // The wrapped error is kept whole, not re-rendered.
        assert_eq!(
            core.source().unwrap().to_string(),
            CoreError::PositiveCycle.to_string()
        );

        // A two-deep chain stays walkable: Coord wraps Core wraps nothing.
        let coord: Error = CoordError::Core(CoreError::PositiveCycle).into();
        let inner = coord.source().unwrap();
        assert!(inner.source().is_some(), "inner chain was flattened");

        for e in [
            Error::UnknownSession {
                id: SessionId::from_raw(7),
            },
            Error::NoSpec,
            Error::Wire {
                line: 3,
                detail: "x".into(),
            },
            Error::ServiceLevelQuery,
            Error::Overloaded { worker: 2 },
            Error::Internal {
                detail: "caught panic".into(),
            },
            Error::Store {
                detail: "log unreadable".into(),
            },
            Error::Transport {
                detail: "connection reset".into(),
            },
        ] {
            assert!(!e.to_string().is_empty());
            assert!(e.source().is_none());
        }
    }

    #[test]
    fn retryable_taxonomy_is_exact() {
        assert!(Error::Transport {
            detail: "eof".into()
        }
        .is_retryable());
        assert!(Error::Overloaded { worker: 0 }.is_retryable());
        for e in [
            Error::Bcm(BcmError::EmptyNetwork),
            Error::UnknownSession {
                id: SessionId::from_raw(1),
            },
            Error::NoSpec,
            Error::Wire {
                line: 1,
                detail: "x".into(),
            },
            Error::ServiceLevelQuery,
            Error::Internal { detail: "p".into() },
            Error::Store { detail: "d".into() },
        ] {
            assert!(!e.is_retryable(), "{e} must not be retryable");
        }
    }
}
