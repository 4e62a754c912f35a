//! Error types for the causality layer.

use std::fmt;

use zigzag_bcm::{BcmError, NodeId};

/// Errors produced by zigzag/knowledge analyses.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// An underlying model error (invalid path, unknown node, …).
    Bcm(BcmError),
    /// A general node does not appear in the run under analysis
    /// (its base is missing or its message chain leaves the horizon).
    NodeNotInRun {
        /// Explanation of the failed resolution.
        detail: String,
    },
    /// A zigzag pattern violates Definition 6 (fork composition, process
    /// mismatch or ordering between adjacent forks).
    MalformedPattern {
        /// Explanation of the violation.
        detail: String,
    },
    /// A fork's legs do not start at the base node's process.
    MalformedFork {
        /// Explanation of the violation.
        detail: String,
    },
    /// The bounds graph contains a positive cycle — impossible for graphs
    /// derived from actual runs; indicates corrupted input. Only the dense
    /// Bellman–Ford references detect it: a traversal refuses a graph with
    /// one as [`CoreError::ClockFails`].
    PositiveCycle,
    /// A graph's clock — the run's recorded times, by Lemma 8 a valid
    /// timing of every legal run's bounds graph — is no feasible potential
    /// for its longest-path traversal: it fails `T(from) + w ≤ T(to)` on
    /// an edge (a delivery outside its channel bounds, an in-flight
    /// message no extension can deliver, or times saturated at
    /// `i64::MAX`), or the span of its times and its least weight could
    /// take a key to `u64::MAX`, which no bounds graph's can. Every
    /// traversal of the graph refuses with it.
    ClockFails {
        /// The first failing edge, as `from --weight--> to`; for a key
        /// that could overflow, the lightest edge.
        edge: String,
        /// How the clock fails on it.
        detail: String,
    },
    /// A graph outgrew the `u32` interior index space (more than 2³² − 1
    /// vertices or edges); the hot core stores all indices as `u32` and
    /// checks every narrowing conversion instead of truncating.
    IndexOverflow {
        /// Which quantity overflowed, and its value.
        detail: String,
    },
    /// A knowledge query was posed at a node that does not recognize the
    /// queried nodes (their bases are outside `past(r, σ)`).
    NotRecognized {
        /// The observer node `σ`.
        observer: NodeId,
        /// Explanation of which node is not σ-recognized.
        detail: String,
    },
    /// A knowledge query involved an initial node (`time_r(θ) = 0`), which
    /// Theorems 2 and 4 exclude.
    InitialNode {
        /// Explanation of the offending node.
        detail: String,
    },
    /// A timing function is not valid for the graph it was checked against.
    InvalidTiming {
        /// Explanation of the violated edge constraint.
        detail: String,
    },
    /// The run's horizon is too small for the requested construction (a
    /// needed message chain leaves the recorded prefix).
    HorizonTooSmall {
        /// Explanation of what fell off the prefix.
        detail: String,
    },
    /// A numeric parameter of a construction is so large that the times
    /// it implies overflow (a fast run's `gamma` or `extra_horizon` near
    /// `u64::MAX`). The request itself is wrong: resending cannot help.
    ParameterOutOfRange {
        /// The parameter, as the query names it.
        parameter: &'static str,
        /// The rejected value.
        value: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Bcm(e) => write!(f, "{e}"),
            CoreError::NodeNotInRun { detail } => {
                write!(f, "node does not appear in the run: {detail}")
            }
            CoreError::MalformedPattern { detail } => {
                write!(f, "malformed zigzag pattern: {detail}")
            }
            CoreError::MalformedFork { detail } => write!(f, "malformed two-legged fork: {detail}"),
            CoreError::PositiveCycle => write!(f, "bounds graph contains a positive cycle"),
            CoreError::ClockFails { edge, detail } => {
                write!(f, "the run's clock fails on {edge}: {detail}")
            }
            CoreError::IndexOverflow { detail } => {
                write!(f, "graph exceeds the u32 index space: {detail}")
            }
            CoreError::NotRecognized { observer, detail } => {
                write!(f, "node not recognized at {observer}: {detail}")
            }
            CoreError::InitialNode { detail } => {
                write!(f, "initial nodes are excluded from this analysis: {detail}")
            }
            CoreError::InvalidTiming { detail } => write!(f, "invalid timing function: {detail}"),
            CoreError::HorizonTooSmall { detail } => write!(f, "horizon too small: {detail}"),
            CoreError::ParameterOutOfRange { parameter, value } => write!(
                f,
                "parameter out of range: {parameter} = {value} overflows the construction's times"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Bcm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BcmError> for CoreError {
    fn from(e: BcmError) -> Self {
        CoreError::Bcm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zigzag_bcm::ProcessId;

    #[test]
    fn display_variants() {
        let errors: Vec<CoreError> = vec![
            BcmError::EmptyNetwork.into(),
            CoreError::PositiveCycle,
            CoreError::ClockFails {
                edge: "x".into(),
                detail: "x".into(),
            },
            CoreError::NodeNotInRun { detail: "x".into() },
            CoreError::MalformedPattern { detail: "x".into() },
            CoreError::MalformedFork { detail: "x".into() },
            CoreError::NotRecognized {
                observer: NodeId::new(ProcessId::new(0), 1),
                detail: "x".into(),
            },
            CoreError::InitialNode { detail: "x".into() },
            CoreError::IndexOverflow { detail: "x".into() },
            CoreError::InvalidTiming { detail: "x".into() },
            CoreError::HorizonTooSmall { detail: "x".into() },
            CoreError::ParameterOutOfRange {
                parameter: "gamma",
                value: u64::MAX,
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn source_chains_for_bcm() {
        use std::error::Error as _;
        let e: CoreError = BcmError::EmptyNetwork.into();
        assert!(e.source().is_some());
        assert!(CoreError::PositiveCycle.source().is_none());
    }
}
