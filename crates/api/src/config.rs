//! Session and serving configuration: cache policy, probe semantics,
//! coordination spec, and the socket front end's transport knobs.
//!
//! A session has two knobs:
//!
//! * the **LRU bound** on per-observer analysis states — a serving
//!   deployment querying millions of observers per stream must not hold
//!   one warm `ObserverState` per observer forever. Only queries fill
//!   the cache: a coordination decision builds its state and drops it.
//!   The bound is a policy, not semantics: any bound answers every query
//!   byte-identically to the unbounded default (pinned by the LRU tests)
//!   and trades memory against rebuild cost only;
//! * **probe semantics** — whether coordination decisions at a node see
//!   the node's own FFIP sends (see
//!   [`zigzag_coord::stream::ProbeSemantics`]).

use std::time::Duration;

use zigzag_coord::{ProbeSemantics, TimedCoordination};

/// Bounded-cache policy for a session; see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CachePolicy {
    /// Maximum number of per-observer analysis states kept warm
    /// (`None` = unbounded, the default; `Some(0)` disables retention —
    /// states are built per query and dropped). Eviction is
    /// least-recently-used; an evicted observer's next query rebuilds a
    /// state that answers byte-identically.
    pub max_observers: Option<usize>,
}

impl CachePolicy {
    /// The unbounded default (every queried observer kept warm) — the
    /// pre-facade engine behavior.
    pub fn unbounded() -> Self {
        CachePolicy::default()
    }

    /// Bounds the observer-state cache (builder style).
    pub fn max_observers(mut self, cap: usize) -> Self {
        self.max_observers = Some(cap);
        self
    }
}

/// Per-session configuration carried by every [`crate::ZigzagService`]
/// session handle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionConfig {
    /// The observer-cache policy (the LRU bound).
    pub cache: CachePolicy,
    /// Probe semantics for coordination decisions. The default,
    /// [`ProbeSemantics::IncludeOwnSends`], is the paper's `GE(r, σ)`
    /// (maximal sound evidence); `ExcludeOwnSends` reproduces the
    /// in-simulation probe exactly on every topology.
    pub probe: ProbeSemantics,
    /// The timed-coordination spec evaluated by
    /// [`crate::Query::CoordDecision`] (`None` = coordination queries are
    /// refused with [`crate::Error::NoSpec`]).
    pub spec: Option<TimedCoordination>,
}

impl SessionConfig {
    /// The default configuration: unbounded caches, include-own-sends
    /// probe, no coordination spec.
    pub fn new() -> Self {
        SessionConfig::default()
    }

    /// Sets the cache policy (builder style).
    pub fn cache(mut self, cache: CachePolicy) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the probe semantics (builder style).
    pub fn probe(mut self, probe: ProbeSemantics) -> Self {
        self.probe = probe;
        self
    }

    /// Attaches a coordination spec (builder style).
    pub fn spec(mut self, spec: TimedCoordination) -> Self {
        self.spec = Some(spec);
        self
    }
}

/// Tuning knobs for a [`crate::net::NetServer`]. They are policies, not
/// semantics: every configuration answers every frame byte-identically
/// (pinned by the loopback tests). None of them is a clock the server
/// polls on: connections block in the kernel until bytes, answers or a
/// shutdown arrive, and only [`NetConfig::drain_timeout`] is a duration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Number of dispatch workers (clamped to at least 1). Frames are
    /// routed to workers by session shard, exactly as in
    /// [`crate::serve::serve`].
    pub workers: usize,
    /// Bound on each worker's queue (clamped to at least 1). A frame
    /// arriving at a full queue is rejected with
    /// [`crate::Error::Overloaded`].
    pub queue_capacity: usize,
    /// Largest accepted envelope payload, in bytes. A declared length
    /// above this is answered with an error envelope and the connection
    /// is closed, before any allocation.
    pub max_frame_bytes: usize,
    /// Most frames one connection may have outstanding — accepted but
    /// not yet written back — before its reader stops reading the
    /// socket (clamped to at least 1). This is the transport's
    /// backpressure bound: a client that pipelines frames without ever
    /// reading its replies stalls (its writes eventually block on the
    /// kernel buffers) instead of growing the server's reply heap
    /// without limit. Pipelining clients should keep their in-flight
    /// window below this.
    pub max_inflight_frames: usize,
    /// Bound on the whole drain of [`crate::net::NetServer::shutdown`]:
    /// how long it waits for its connections to answer the frames they
    /// read (`None` = wait forever). A client that stops reading its
    /// replies can otherwise hang the drain on a full kernel buffer; the
    /// connections still running at the deadline are shut down both
    /// ways, and their unsent answers are dropped.
    pub drain_timeout: Option<Duration>,
    /// Deterministic chaos hook ([`crate::FaultPlan`]): when set, the
    /// server's per-connection reads and writes consult the plan (short
    /// reads/writes, injected resets, injected latency). `None` (the
    /// default) costs one never-taken branch per I/O call — the
    /// zero-allocation steady state is unaffected.
    pub faults: Option<std::sync::Arc<crate::fault::FaultPlan>>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 4,
            queue_capacity: 64,
            max_frame_bytes: 16 << 20,
            max_inflight_frames: 1024,
            drain_timeout: Some(Duration::from_secs(30)),
            faults: None,
        }
    }
}

impl NetConfig {
    /// The default configuration.
    pub fn new() -> Self {
        NetConfig::default()
    }

    /// Sets the worker count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-worker queue bound.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the largest accepted envelope payload.
    pub fn max_frame_bytes(mut self, bytes: usize) -> Self {
        self.max_frame_bytes = bytes;
        self
    }

    /// Sets the per-connection in-flight frame bound.
    pub fn max_inflight_frames(mut self, frames: usize) -> Self {
        self.max_inflight_frames = frames;
        self
    }

    /// Sets the shutdown drain deadline (`None` = wait forever).
    pub fn drain_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.drain_timeout = timeout;
        self
    }

    /// Arms the server's network I/O with a deterministic fault plan.
    /// Chaos-testing hook; production servers never call this.
    pub fn faults(mut self, plan: std::sync::Arc<crate::fault::FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }
}
