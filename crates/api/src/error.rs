//! The facade's single error type.
//!
//! Callers of [`crate::ZigzagService`] match one `Error` instead of three
//! layer errors. Conversion is non-lossy: every wrapped layer error is
//! kept whole and exposed through [`std::error::Error::source`], so a
//! caller (or a log formatter walking the chain) sees exactly the failure
//! the layer reported.
//!
//! An error crosses the wire as a code: one table here writes and reads
//! the line a `zigzag-error v2` document carries (see [`Error`]), and
//! `Display` is for logs only.

use std::fmt;

use zigzag_bcm::codec::escape_token;
use zigzag_bcm::BcmError;
use zigzag_coord::CoordError;
use zigzag_core::CoreError;

use crate::service::SessionId;
use crate::wire::Tokens;

/// Errors produced by the `zigzag::api` facade.
///
/// # Wire codes
///
/// A `zigzag-error v2` document ([`crate::serve::encode_error`]) carries
/// one line: the variant's code, then its fields. Free text is one
/// [`escape_token`]-escaped token.
///
/// | Variant | Line |
/// |---|---|
/// | [`Error::Bcm`] | `bcm <text>` |
/// | [`Error::Core`] | `core <text>` |
/// | [`Error::Coord`] | `coord <text>` |
/// | [`Error::UnknownSession`] | `unknown-session <raw id>` |
/// | [`Error::NoSpec`] | `no-spec` |
/// | [`Error::Wire`] | `wire <line> <detail>` |
/// | [`Error::ServiceLevelQuery`] | `service-level` |
/// | [`Error::Overloaded`] | `overloaded <worker>` |
/// | [`Error::Internal`] | `internal <detail>` |
/// | [`Error::Store`] | `store <detail>` |
/// | [`Error::Transport`] | `transport <detail>` |
///
/// The three layer errors carry their `Display` text and are read back
/// as [`Error::Internal`] with that text: rebuilding them would need a
/// codec per layer error. Every other variant reads back equal, so
/// [`Error::is_retryable`] survives the wire.
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
    /// snapshot file, a malformed on-disk document, a store operation
    /// addressed to a session whose log it does not hold, or an append
    /// to a durable session whose log an earlier failure broke.
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

    /// Writes the error's wire line, without its newline: the code and
    /// its fields (see the [table](Error#wire-codes)).
    pub(crate) fn write_code<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        let text =
            |out: &mut W, code: &str, text: &str| write!(out, "{code} {}", escape_token(text));
        match self {
            Error::Bcm(_) => text(out, "bcm", &self.to_string()),
            Error::Core(_) => text(out, "core", &self.to_string()),
            Error::Coord(_) => text(out, "coord", &self.to_string()),
            Error::UnknownSession { id } => write!(out, "unknown-session {}", id.raw()),
            Error::NoSpec => out.write_str("no-spec"),
            Error::Wire { line, detail } => write!(out, "wire {line} {}", escape_token(detail)),
            Error::ServiceLevelQuery => out.write_str("service-level"),
            Error::Overloaded { worker } => write!(out, "overloaded {worker}"),
            Error::Internal { detail } => text(out, "internal", detail),
            Error::Store { detail } => text(out, "store", detail),
            Error::Transport { detail } => text(out, "transport", detail),
        }
    }

    /// Reads a line [`Error::write_code`] wrote.
    pub(crate) fn read_code(t: &mut Tokens<'_>) -> Result<Error, Error> {
        let e = match t.next()? {
            "bcm" | "core" | "coord" | "internal" => Error::Internal { detail: t.name()? },
            "unknown-session" => Error::UnknownSession {
                id: SessionId::from_raw(t.num()?),
            },
            "no-spec" => Error::NoSpec,
            "wire" => Error::Wire {
                line: t.num()?,
                detail: t.name()?,
            },
            "service-level" => Error::ServiceLevelQuery,
            "overloaded" => Error::Overloaded { worker: t.num()? },
            "store" => Error::Store { detail: t.name()? },
            "transport" => Error::Transport { detail: t.name()? },
            other => return Err(t.bad(format!("unknown error code {other:?}"))),
        };
        t.done()?;
        Ok(e)
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
                "service-level operations cannot be nested in a batch \
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

    /// The error after `e` in a walk over one error of each variant, with
    /// `detail` as its free text. The match has no wildcard, so a new
    /// variant does not compile until it joins the walk, and the walk
    /// checks that it has a wire code.
    fn after(e: &Error, detail: &str) -> Option<Error> {
        let detail = detail.to_string();
        Some(match e {
            Error::Bcm(_) => Error::Core(CoreError::PositiveCycle),
            Error::Core(_) => Error::Coord(CoordError::Core(CoreError::PositiveCycle)),
            Error::Coord(_) => Error::UnknownSession {
                id: SessionId::from_raw(42),
            },
            Error::UnknownSession { .. } => Error::NoSpec,
            Error::NoSpec => Error::Wire { line: 3, detail },
            Error::Wire { .. } => Error::ServiceLevelQuery,
            Error::ServiceLevelQuery => Error::Overloaded { worker: 7 },
            Error::Overloaded { .. } => Error::Internal { detail },
            Error::Internal { .. } => Error::Store { detail },
            Error::Store { .. } => Error::Transport { detail },
            Error::Transport { .. } => return None,
        })
    }

    #[test]
    fn error_documents_round_trip_every_variant() {
        use crate::serve::{decode_error, encode_error, is_error_document};

        for detail in ["a  b 100% #1\nnext", "", "plain"] {
            let first = Error::Bcm(BcmError::EmptyNetwork);
            let all: Vec<Error> =
                std::iter::successors(Some(first), |e| after(e, detail)).collect();
            assert_eq!(all.len(), 11);
            for e in &all {
                let doc = encode_error(e);
                assert!(is_error_document(&doc), "{doc:?}");
                assert_eq!(doc.lines().count(), 2, "{doc:?}");
                // The layer errors come back as Internal with their text.
                let want = match e {
                    Error::Bcm(_) | Error::Core(_) | Error::Coord(_) => Error::Internal {
                        detail: e.to_string(),
                    },
                    other => other.clone(),
                };
                let back = decode_error(&doc);
                assert_eq!(back, want, "{doc:?}");
                assert_eq!(back.is_retryable(), e.is_retryable(), "{e}");
            }
        }

        // Another version, an unknown code, a missing, extra or
        // non-numeric field, or a stray line: a non-retryable Internal.
        for doc in [
            "zigzag-error v1\nserver overloaded: worker 3 queue is full\n",
            "zigzag-error v2\nteapot 1\n",
            "zigzag-error v2\noverloaded\n",
            "zigzag-error v2\noverloaded 3 4\n",
            "zigzag-error v2\noverloaded three\n",
            "zigzag-error v2\nwire 3\n",
            "zigzag-error v2\nstore %zz\n",
            "zigzag-error v2\nno-spec\nno-spec\n",
            "zigzag-error v2\n",
            "",
        ] {
            let e = decode_error(doc);
            assert!(matches!(e, Error::Internal { .. }), "{doc:?} -> {e:?}");
            assert!(!e.is_retryable());
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
