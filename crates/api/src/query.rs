//! The closed query family of the facade.
//!
//! Theorem 4 reduces every knowledge question in the model to a small
//! family of decidable queries — exact thresholds (`max_x`), the
//! knowledge predicate (`knows`), certifying witnesses, refuting fast
//! runs, plus the global tight bounds of `GB(r)` and the Protocol 2
//! coordination decision. [`Query`] names that family as data: a typed,
//! serializable request any session can answer through one
//! [`crate::ZigzagService::dispatch`] code path, whether the session is a
//! batch run or a live stream. [`Response`] is the matching answer
//! family; both round-trip losslessly through [`crate::wire`].

use zigzag_bcm::{NodeId, Run, Time};
use zigzag_core::{GeneralNode, MaxXMatrix};

/// One request of the facade's closed query family.
///
/// All node and general-node parameters use the same vocabulary as the
/// underlying engines (`σ` observers, `θ` general nodes); a query
/// dispatched to a session answers exactly as the corresponding direct
/// engine call on that session's run or stream prefix would — pinned
/// byte-for-byte by the differential oracle.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Query {
    /// The exact knowledge threshold: the largest `x` with
    /// `K_σ(θ1 --x--> θ2)`, or `None` if no `x` is known.
    MaxX {
        /// The observer node `σ`.
        sigma: NodeId,
        /// The earlier node `θ1`.
        theta1: GeneralNode,
        /// The later node `θ2`.
        theta2: GeneralNode,
    },
    /// The knowledge predicate `K_σ(θ1 --x--> θ2)`.
    Knows {
        /// The observer node `σ`.
        sigma: NodeId,
        /// The earlier node `θ1`.
        theta1: GeneralNode,
        /// The later node `θ2`.
        theta2: GeneralNode,
        /// The required separation.
        x: i64,
    },
    /// The σ-visible zigzag witness certifying the threshold
    /// (Corollary 1), or `None` when no knowledge holds.
    Witness {
        /// The observer node `σ`.
        sigma: NodeId,
        /// The earlier node `θ1`.
        theta1: GeneralNode,
        /// The later node `θ2`.
        theta2: GeneralNode,
    },
    /// The dense all-pairs threshold matrix over the non-initial nodes of
    /// `past(r, σ)`.
    MaxXMatrix {
        /// The observer node `σ`.
        sigma: NodeId,
    },
    /// The tight bound on `time(to) − time(from)` supported by the global
    /// bounds graph `GB(r)`.
    TightBound {
        /// The source node.
        from: NodeId,
        /// The target node.
        to: NodeId,
    },
    /// The γ-fast run of `θ` at observer `σ` — the extremal
    /// indistinguishable run behind the engine's answers (Definition 24),
    /// which doubles as the refutation artifact for claims above the
    /// threshold.
    FastRun {
        /// The observer node `σ` whose past is preserved.
        sigma: NodeId,
        /// The anchor node `θ`.
        theta: GeneralNode,
        /// The γ parameter (how much earlier than tight the anchor runs).
        gamma: u64,
        /// Extra recording horizon beyond the run's own.
        extra_horizon: u64,
    },
    /// Protocol 2's coordination verdict for the session's configured
    /// spec: the earliest `B`-node at which the required knowledge holds,
    /// under the session's probe semantics.
    CoordDecision,
    /// The service's serving counters (latency histogram, observer-cache
    /// hit/miss/eviction totals, per-shard session counts, per-worker
    /// queue depths). Service-level: the frame's session line is used for
    /// worker routing only and need not name an open session, and the
    /// query cannot appear inside a [`Query::QueryBatch`] (a batch is
    /// answered by one session, which has no service-wide view).
    Stats,
    /// A batch of queries answered through one dispatch, positionally
    /// aligned with its responses. Single calls, batches and the bench
    /// harness share the same per-query code path.
    QueryBatch(
        /// The queries, answered in order.
        Vec<Query>,
    ),
    /// Serializes the addressed stream session's full state — run prefix,
    /// configuration, coordination progress, warm-observer manifest —
    /// into a portable [`crate::store::SessionSnapshot`]: the log-shipping
    /// half of live migration. Service-level like [`Query::Stats`]
    /// (cannot nest in a batch or hit a bare session), but the frame's
    /// session line addresses the session to export.
    Export,
    /// Installs a shipped [`crate::store::SessionSnapshot`] as a *new*
    /// stream session of the receiving service and answers its id: the
    /// receiving half of live migration. Service-level; the frame's
    /// session line is used for worker routing only.
    Import(
        /// The snapshot to install.
        Box<crate::store::SessionSnapshot>,
    ),
    /// Appends one event to the addressed stream session over the wire.
    /// Service-level like [`Query::Export`] (cannot nest in a batch or
    /// hit a bare session): the service hands it to the session's one
    /// append path, [`crate::ZigzagService::append`], so a durable
    /// session logs a wire append exactly like an in-process one.
    /// Answered by [`Response::Appended`] carrying the session's event
    /// count *after* the append — the anchor for the client's
    /// exactly-once probe.
    Append(
        /// The event to append.
        Box<zigzag_bcm::RunEvent>,
    ),
    /// The addressed stream session's current event count. Service-level;
    /// this is the idempotent probe [`crate::ResilientClient`] uses to
    /// decide whether an append whose answer was lost actually landed.
    EventCount,
    /// Asks the service's attached [`crate::SessionSupervisor`] to sweep
    /// its store directory and recover every session log no live session
    /// of its store holds. Service-level; the frame's session line is
    /// used for worker routing only. Answers [`Response::Recovered`] with
    /// the (name, id) pairs recovered by *this* call, so it is not
    /// idempotent: a second sweep answers without what the first
    /// attached.
    Recover,
}

/// The witness half of a positive [`Query::Witness`] answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessReport {
    /// The witness's weight — exactly the `max_x` threshold.
    pub weight: i64,
    /// The σ-visible zigzag, rendered for display/logging (single
    /// line). Callers who need to *revalidate* the structured artifact
    /// against a run (Corollary 1's independent certificate) should call
    /// `KnowledgeEngine::witness` on the engine layer, which returns the
    /// `zigzag_core::VisibleZigzag` itself; the facade keeps responses
    /// serializable.
    pub pattern: String,
}

/// The constructed run of a [`Query::FastRun`] answer.
#[derive(Debug, Clone, PartialEq)]
pub struct FastRunReport {
    /// The observer `σ` whose past is preserved (`run ~σ r`).
    pub sigma: NodeId,
    /// The γ parameter.
    pub gamma: u64,
    /// `time(θ)` in the constructed run.
    pub theta_time: Time,
    /// The constructed run itself — a complete, validatable [`Run`]
    /// (wire-encoded as a `zigzag-run v2` document).
    pub run: Run,
}

/// The coordination half of a [`Query::CoordDecision`] answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordReport {
    /// The earliest `B`-node at which the spec's knowledge held, if any —
    /// where Protocol 2 performs `b`.
    pub first_known: Option<NodeId>,
    /// The trigger node `σ_C`, if the trigger has arrived.
    pub sigma_c: Option<NodeId>,
}

/// One answer of the facade's response family, positionally matching its
/// [`Query`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Response {
    /// Answer to [`Query::MaxX`]: the threshold, or `None` when
    /// unreachable.
    MaxX(Option<i64>),
    /// Answer to [`Query::Knows`].
    Knows(bool),
    /// Answer to [`Query::Witness`]: `None` when no knowledge holds.
    Witness(Option<WitnessReport>),
    /// Answer to [`Query::MaxXMatrix`].
    MaxXMatrix(MaxXMatrix),
    /// Answer to [`Query::TightBound`]: `None` when no path constrains
    /// the pair.
    TightBound(Option<i64>),
    /// Answer to [`Query::FastRun`].
    FastRun(FastRunReport),
    /// Answer to [`Query::CoordDecision`].
    CoordDecision(CoordReport),
    /// Answer to [`Query::Stats`].
    Stats(Box<crate::stats::StatsReport>),
    /// Answer to [`Query::QueryBatch`], positionally aligned.
    ResponseBatch(
        /// The answers, in query order.
        Vec<Response>,
    ),
    /// Answer to [`Query::Export`]: the serialized session.
    Exported(Box<crate::store::SessionSnapshot>),
    /// Answer to [`Query::Import`]: the id the receiving service
    /// assigned to the installed session.
    Imported(crate::service::SessionId),
    /// Answer to [`Query::Append`]: the session's event count after the
    /// append. With a single writer this is exact (previous count + 1);
    /// with concurrent writers it is the count observed at append time.
    Appended(u64),
    /// Answer to [`Query::EventCount`]: the session's current event
    /// count.
    EventCount(u64),
    /// Answer to [`Query::Recover`]: the sessions recovered by this call,
    /// as (store name, assigned session id) pairs, sorted by name.
    Recovered(Vec<(String, crate::service::SessionId)>),
}
