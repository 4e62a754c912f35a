//! The incremental streaming knowledge engine: append events, delta-update
//! the causal analyses, answer queries online.
//!
//! The paper's central claim is that processes extract timing knowledge
//! *as a run unfolds* — zigzag causality lets a node know facts about
//! remote events long before any full-run transcript exists. A batch
//! pipeline (a [`KnowledgeEngine`] per observer over a complete [`Run`])
//! inverts that: any change to the run means rebuilding the bounds graphs
//! and every derived engine from scratch.
//! [`IncrementalEngine`] is the append-only form: a run is grown
//! one [`RunEvent`] at a time ([`IncrementalEngine::append_event`]) and
//! every analysis layer is **delta-updated** — after each append,
//! `max_x` / `knows` / `max_x_basic_matrix` / `fast_run_of` answer
//! exactly as a freshly built batch engine on the same prefix would (the
//! prefix-differential oracle in `tests/oracle.rs` pins this
//! byte-for-byte).
//!
//! # The catch-up invariant
//!
//! Two structural facts make per-append cost proportional to the change
//! rather than to the run, and both are load-bearing for correctness:
//!
//! 1. **Monotone growth of the global graph.** Appending an event only
//!    *adds* — a vertex and successor edge to `GB(r)`, and a `±` edge
//!    pair per delivery, weighted from the context's one bounds table
//!    ([`zigzag_bcm::Bounds`]). The run's own message records are the
//!    only message table: nothing mirrors them. Nothing is removed or
//!    re-weighted, so every memoized longest-path result remains a valid
//!    lower bound and any strictly better path must use a new edge. The
//!    graph layer therefore keeps its memoized results across appends
//!    and catches a stale result up on its next query — a Dijkstra under
//!    the run's clock seeded at the heads the appended edges improve,
//!    which settles each improved vertex once over the live adjacency
//!    rows (see [`crate::graph`]) — instead of invalidate-and-rebuild.
//!
//! 2. **Observer stability.** `past(r, σ)` is determined the moment σ's
//!    receipts are delivered, and a message sent inside that past whose
//!    delivery σ has not seen can only be delivered at a node *outside*
//!    the past — so the "seen delivery" classification behind the
//!    `E''`-edges of `GE(r, σ)` (Definition 16) never changes as the run
//!    extends. An observer's state is a view over the engine's own
//!    `GB(r)` (see [`crate::extended_graph`]): σ's past as a frontier,
//!    the `ψ` clock and the `E''` overlay, all fixed at σ's creation, and
//!    the part of `GB(r)` inside the frontier, which no append touches —
//!    every edge an append adds has the new node, outside the frontier,
//!    as an endpoint, and the clock on every past node is its recorded
//!    time. So the view, its distance memos, canonical rewrites, fast
//!    timings and chain layouts never go stale: the engine builds each
//!    queried observer's state **once**, in O(|past| + n) time and space
//!    without copying an edge, keeps it warm in a cache
//!    ([`IncrementalEngine::engine`]), and serves every later query from
//!    it with zero invalidation.
//!
//! A coordination decision is asked once per node, so it is the one
//! reader the cache does not serve: [`IncrementalEngine::uncached_engine`]
//! builds the same view, in either [`ObserverMode`], for one decision,
//! and the state goes when the caller drops the engine. The cache holds
//! the states queries read, and nothing else.
//!
//! Together: appends touch O(event) state, queries at known observers hit
//! warm caches, and the only per-observer cost is the one-time state
//! build on first query — orders of magnitude below the per-event
//! rebuild the batch pipeline would pay (measured in `benches/online.rs`,
//! recorded in `BENCH_pr3.json`).
//!
//! A rejected event changes nothing. [`StreamingRun::append`] checks the
//! whole event before applying any of it, and the derived layers grow
//! only after it applied, so an engine that refuses an event keeps
//! answering and appending as if the event was never offered.
//!
//! # Example
//!
//! ```
//! # use zigzag_bcm::{Network, SimConfig, Simulator, Time, NodeId, RunCursor};
//! # use zigzag_bcm::protocols::Ffip;
//! # use zigzag_bcm::scheduler::EagerScheduler;
//! use zigzag_core::incremental::IncrementalEngine;
//! use zigzag_core::knowledge::KnowledgeEngine;
//! use zigzag_core::GeneralNode;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let mut b = Network::builder();
//! # let c = b.add_process("C");
//! # let a = b.add_process("A");
//! # let bb = b.add_process("B");
//! # b.add_channel(c, a, 1, 3)?;
//! # b.add_channel(c, bb, 7, 9)?;
//! # let ctx = b.build()?;
//! # let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(40)));
//! # sim.external(Time::new(2), c, "go");
//! # let run = sim.run(&mut Ffip::new(), &mut EagerScheduler)?;
//! // Feed a recorded schedule event-by-event; answers stay current.
//! let mut cursor = RunCursor::new(&run);
//! let mut engine = IncrementalEngine::new(run.context_arc(), run.horizon());
//! while let Some(ev) = cursor.next_event() {
//!     let node = engine.append_event(&ev)?;
//!     // Query at the node that just arose — same answer a fresh batch
//!     // engine on this prefix would give.
//!     let here = GeneralNode::basic(node);
//!     let _ = engine.engine(node)?.max_x(&here, &here)?;
//! }
//! // Figure 1's knowledge threshold, online:
//! let sigma_c = engine.run().external_receipt_node(c, "go").unwrap();
//! let theta_a = GeneralNode::chain(sigma_c, &[a])?;
//! let theta_b = GeneralNode::chain(sigma_c, &[bb])?;
//! let sigma = theta_b.resolve(engine.run())?;
//! assert_eq!(engine.max_x(sigma, &theta_a, &theta_b)?, Some(4));
//! let batch = KnowledgeEngine::new(engine.run(), sigma)?;
//! assert_eq!(batch.max_x(&theta_a, &theta_b)?, Some(4));
//! # Ok(())
//! # }
//! ```

use std::sync::{Arc, Mutex};

use zigzag_bcm::stream::RunEvent;
use zigzag_bcm::{Context, NodeId, Run, RunCursor, StreamingRun, Time};

use crate::bounds_graph::BoundsGraph;
use crate::construct::FastRun;
use crate::error::CoreError;
use crate::knowledge::{KnowledgeEngine, MaxXMatrix, ObserverCache, ObserverMode, ObserverState};
use crate::node::GeneralNode;

/// The append-only streaming form of the knowledge pipeline; see the
/// [module docs](self).
#[derive(Debug)]
pub struct IncrementalEngine {
    stream: StreamingRun,
    /// The global basic bounds graph `GB(r)`, grown monotonically; its
    /// memoized longest paths catch up across appends, and every
    /// observer state is a view over it.
    gb: BoundsGraph,
    /// One lazily built, append-stable analysis state per queried
    /// observer, optionally LRU-bounded (see
    /// [`IncrementalEngine::set_observer_cap`]).
    observers: Mutex<ObserverCache>,
}

impl IncrementalEngine {
    /// Starts an empty stream over `context` (initial nodes only),
    /// recording up to `horizon`: [`IncrementalEngine::from_prefix`] of
    /// the skeleton run.
    pub fn new(context: impl Into<Arc<Context>>, horizon: Time) -> Self {
        Self::from_prefix(Run::skeleton(context, horizon))
    }

    /// Resumes streaming on top of an already-recorded run prefix — the
    /// snapshot-restore path of a durable session store, and how a
    /// facade batch session opens over a complete recorded run (the last
    /// prefix of its own event stream). `GB(r)` is batch-built over the
    /// prefix in one pass (O(prefix), no per-event engine maintenance and
    /// no knowledge queries), and the batch builder is
    /// continuation-compatible with the append path: subsequent
    /// [`IncrementalEngine::append_event`] calls grow it exactly as if the
    /// prefix had been streamed in event by event (pinned by the recovery
    /// oracle tier).
    pub fn from_prefix(run: Run) -> Self {
        let gb = BoundsGraph::of_run(&run);
        IncrementalEngine {
            stream: StreamingRun::adopt(run),
            gb,
            observers: Mutex::new(ObserverCache::new(None)),
        }
    }

    /// The observer of every currently cached analysis state, from least
    /// to most recently used — the warm-set manifest a session snapshot
    /// records so recovery can pre-build the same states in the same
    /// recency.
    pub fn observer_keys(&self) -> Vec<NodeId> {
        self.observers
            .lock()
            .expect("observer cache lock")
            .keys()
            .collect()
    }

    /// Bounds the observer-state cache to at most `cap` states, evicting
    /// least-recently-used states on overflow (`None` = unbounded, the
    /// default). Eviction is sound: a re-queried observer's state is
    /// rebuilt warm and answers byte-identically (observer stability —
    /// see [`ObserverCache`]).
    pub fn set_observer_cap(&mut self, cap: Option<usize>) {
        self.observers
            .lock()
            .expect("observer cache lock")
            .set_cap(cap);
    }

    /// Total observer states evicted so far under the LRU bound.
    pub fn observer_evictions(&self) -> u64 {
        self.observers
            .lock()
            .expect("observer cache lock")
            .evictions()
    }

    /// Observer-cache counters `(hits, misses, evictions)` — the
    /// serving-observability triple surfaced by `zigzag-api`'s `Stats`
    /// query (see [`ObserverCache::hits`] / [`ObserverCache::misses`] /
    /// [`ObserverCache::evictions`]).
    pub fn observer_cache_counters(&self) -> (u64, u64, u64) {
        let cache = self.observers.lock().expect("observer cache lock");
        (cache.hits(), cache.misses(), cache.evictions())
    }

    /// Convenience: streams an already-recorded run through a fresh
    /// engine (the replay path — equivalent to appending every event of
    /// [`RunCursor::new`]`(run)` in order).
    ///
    /// # Errors
    ///
    /// Fails if the recorded run is internally inconsistent.
    pub fn ingest(run: &Run) -> Result<Self, CoreError> {
        let mut engine = Self::new(run.context_arc(), run.horizon());
        let mut cursor = RunCursor::new(run);
        while let Some(ev) = cursor.next_event() {
            engine.append_event(&ev)?;
        }
        Ok(engine)
    }

    /// Appends one event: grows the run by its node, the deliveries it
    /// observes and the messages it sends, and extends `GB(r)` — all
    /// O(event). Derived observer states are *not* invalidated (they
    /// cannot go stale; see the [module docs](self)). Returns the created
    /// node.
    ///
    /// # Errors
    ///
    /// Fails if [`StreamingRun::append`] rejects the event as
    /// inconsistent with the grown prefix. A rejected event changes
    /// nothing: the engine keeps answering and appending as if it was
    /// never offered.
    pub fn append_event(&mut self, ev: &RunEvent) -> Result<NodeId, CoreError> {
        let node = self.stream.append(ev)?;
        self.gb.append_node(self.stream.run(), node);
        Ok(node)
    }

    /// The run as grown so far — a genuine [`Run`] prefix, usable by any
    /// batch analysis without cloning.
    pub fn run(&self) -> &Run {
        self.stream.run()
    }

    /// Number of events appended.
    pub fn event_count(&self) -> usize {
        self.stream.event_count()
    }

    /// The global basic bounds graph `GB(r)` of the grown prefix. Its
    /// `longest_*_cached` queries catch up across appends instead of
    /// recomputing.
    pub fn bounds_graph(&self) -> &BoundsGraph {
        &self.gb
    }

    /// The tight bound on `time(to) − time(from)` supported by the grown
    /// prefix's `GB(r)` — the streaming form of
    /// [`BoundsGraph::longest_path`], served from the caught-up
    /// per-source memo.
    ///
    /// # Errors
    ///
    /// Fails with [`CoreError::NodeNotInRun`] naming `from` or `to` if
    /// the prefix does not hold it, or with [`CoreError::ClockFails`] if
    /// the run's clock fails on `GB(r)` (see [`crate::graph`]).
    pub fn tight_bound(&self, from: NodeId, to: NodeId) -> Result<Option<i64>, CoreError> {
        self.gb.index(from)?;
        let to = self.gb.index(to)?;
        Ok(self.gb.longest_from_cached(from)?.weight(to))
    }

    /// Number of observer states built so far.
    pub fn observer_count(&self) -> usize {
        self.observers.lock().expect("observer cache lock").len()
    }

    /// The knowledge engine observing at `sigma`, wrapped around the
    /// current prefix — the query path. The observer-scoped analysis (the
    /// full-mode view of `GB(r)`, its distance memos, rewrite/timing/chain
    /// caches, construction arena) is built on first request and reused
    /// verbatim after every later append (until LRU-evicted, if a cap is
    /// set — a rebuilt state answers identically).
    ///
    /// # Errors
    ///
    /// Fails if `sigma` has not (yet) appeared in the stream.
    pub fn engine(&self, sigma: NodeId) -> Result<KnowledgeEngine<'_>, CoreError> {
        let run = self.stream.run();
        let state = self
            .observers
            .lock()
            .expect("observer cache lock")
            .get_or_build(sigma, || {
                ObserverState::view(run, &self.gb, sigma, ObserverMode::Full)
            })?;
        Ok(KnowledgeEngine::over(run, &self.gb, state))
    }

    /// The knowledge engine at `sigma` under `mode`, on a view of `GB(r)`
    /// built for this call alone — the decision path. The cache is not
    /// consulted, filled or counted, and the state is dropped with the
    /// engine. `ExcludeOwnSends` gives `GE(r, σ)` minus σ's own sends,
    /// what an in-simulation probe at σ sees; the prefix-differential
    /// oracle pins both modes byte-identical to a fresh
    /// [`ObserverState::build_mode`] after every append.
    ///
    /// # Errors
    ///
    /// Fails if `sigma` has not (yet) appeared in the stream.
    pub fn uncached_engine(
        &self,
        sigma: NodeId,
        mode: ObserverMode,
    ) -> Result<KnowledgeEngine<'_>, CoreError> {
        let run = self.stream.run();
        let state = ObserverState::view(run, &self.gb, sigma, mode)?;
        Ok(KnowledgeEngine::over(run, &self.gb, Arc::new(state)))
    }

    /// Convenience: the exact knowledge threshold `max_x` at observer
    /// `sigma` on the current prefix.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KnowledgeEngine::max_x`] plus an unknown
    /// observer.
    pub fn max_x(
        &self,
        sigma: NodeId,
        theta1: &GeneralNode,
        theta2: &GeneralNode,
    ) -> Result<Option<i64>, CoreError> {
        self.engine(sigma)?.max_x(theta1, theta2)
    }

    /// Convenience: decides `K_σ(θ1 --x--> θ2)` on the current prefix.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IncrementalEngine::max_x`].
    pub fn knows(
        &self,
        sigma: NodeId,
        theta1: &GeneralNode,
        theta2: &GeneralNode,
        x: i64,
    ) -> Result<bool, CoreError> {
        self.engine(sigma)?.knows(theta1, theta2, x)
    }

    /// Convenience: the dense all-pairs threshold matrix at `sigma` on
    /// the current prefix.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KnowledgeEngine::max_x_basic_matrix`] plus an
    /// unknown observer.
    pub fn max_x_basic_matrix(&self, sigma: NodeId) -> Result<MaxXMatrix, CoreError> {
        self.engine(sigma)?.max_x_basic_matrix()
    }

    /// Convenience: constructs the γ-fast run of `theta` at observer
    /// `sigma` against the current prefix, reusing the observer's warm
    /// canonicalization, timing and arena state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KnowledgeEngine::fast_run_of`] plus an
    /// unknown observer.
    pub fn fast_run_of(
        &self,
        sigma: NodeId,
        theta: &GeneralNode,
        gamma: u64,
        extra_horizon: u64,
    ) -> Result<FastRun, CoreError> {
        self.engine(sigma)?.fast_run_of(theta, gamma, extra_horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zigzag_bcm::protocols::Ffip;
    use zigzag_bcm::scheduler::RandomScheduler;
    use zigzag_bcm::stream::ReceiptEvent;
    use zigzag_bcm::{Network, ProcessId, SimConfig, Simulator};

    fn tri_run(seed: u64, horizon: u64) -> Run {
        let mut b = Network::builder();
        let i = b.add_process("i");
        let j = b.add_process("j");
        let k = b.add_process("k");
        b.add_bidirectional(i, j, 2, 5).unwrap();
        b.add_bidirectional(j, k, 1, 4).unwrap();
        b.add_bidirectional(i, k, 3, 7).unwrap();
        let ctx = b.build().unwrap();
        let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(horizon)));
        sim.external(Time::new(1), i, "kick");
        sim.run(&mut Ffip::new(), &mut RandomScheduler::seeded(seed))
            .unwrap()
    }

    #[test]
    fn every_prefix_answers_like_a_fresh_batch_engine() {
        for seed in 0..4 {
            let run = tri_run(seed, 28);
            let mut cursor = RunCursor::new(&run);
            let mut inc = IncrementalEngine::new(run.context_arc(), run.horizon());
            while let Some(ev) = cursor.next_event() {
                let node = inc.append_event(&ev).unwrap();
                // The appended node is always a legal observer, and its
                // matrix matches the batch engine on the same prefix.
                let online = inc.max_x_basic_matrix(node).unwrap();
                let batch = KnowledgeEngine::new(inc.run(), node)
                    .unwrap()
                    .max_x_basic_matrix()
                    .unwrap();
                assert_eq!(online, batch, "seed {seed}: diverged at {node}");
            }
            assert_eq!(inc.run(), &run, "seed {seed}: grown run diverged");
            assert_eq!(inc.event_count(), run.node_count() - 3);
        }
    }

    #[test]
    fn observer_states_survive_appends_and_stay_exact() {
        let run = tri_run(1, 40);
        let events = RunCursor::new(&run).collect_events();
        let mut inc = IncrementalEngine::new(run.context_arc(), run.horizon());
        let split = events.len() / 2;
        let mut early_nodes = Vec::new();
        for ev in &events[..split] {
            early_nodes.push(inc.append_event(ev).unwrap());
        }
        // Build (and warm) an early observer's state, answering once.
        let sigma = *early_nodes.last().unwrap();
        let before = inc.max_x_basic_matrix(sigma).unwrap();
        assert_eq!(inc.observer_count(), 1);
        // Grow the run; the state is reused, not rebuilt, and the answers
        // still match a scratch batch engine on the longer prefix.
        for ev in &events[split..] {
            inc.append_event(ev).unwrap();
        }
        assert_eq!(inc.observer_count(), 1);
        let after = inc.max_x_basic_matrix(sigma).unwrap();
        assert_eq!(before, after, "append changed a fixed observer's answers");
        let batch = KnowledgeEngine::new(inc.run(), sigma)
            .unwrap()
            .max_x_basic_matrix()
            .unwrap();
        assert_eq!(after, batch);
        // Fast runs through the warm state equal the free construction.
        let theta = GeneralNode::basic(sigma);
        let online = inc.fast_run_of(sigma, &theta, 0, 15).unwrap();
        let free = crate::construct::fast_run(inc.run(), sigma, &theta, 0, 15).unwrap();
        assert_eq!(online.theta_time, free.theta_time);
        assert_eq!(online.run.node_count(), free.run.node_count());
        for rec in free.run.nodes() {
            assert_eq!(online.run.time(rec.id()), Some(rec.time()));
        }
    }

    #[test]
    fn tight_bounds_delta_relax_across_appends() {
        let run = tri_run(2, 35);
        let events = RunCursor::new(&run).collect_events();
        let i1 = NodeId::new(ProcessId::new(0), 1);
        let half = events.len() / 2;
        let mut prefix = StreamingRun::new(run.context_arc(), run.horizon());
        for ev in &events[..half] {
            prefix.append(ev).unwrap();
        }
        // Keep the cached source warm so each append catches up.
        let check = |inc: &IncrementalEngine, node: NodeId| {
            if !inc.run().appears(i1) {
                return;
            }
            let got = inc.tight_bound(i1, node).unwrap();
            let batch = BoundsGraph::of_run(inc.run());
            let want = batch.longest_path(i1, node).unwrap().map(|(w, _)| w);
            assert_eq!(got, want, "delta GB bound diverged at {node}");
        };
        // Grown from the empty run, and from a bulk-built prefix whose
        // source is cached before its first append.
        for (mut inc, rest) in [
            (
                IncrementalEngine::new(run.context_arc(), run.horizon()),
                &events[..],
            ),
            (
                IncrementalEngine::from_prefix(prefix.finish()),
                &events[half..],
            ),
        ] {
            check(&inc, i1);
            for ev in rest {
                let node = inc.append_event(ev).unwrap();
                check(&inc, node);
            }
        }
    }

    #[test]
    fn lru_bound_caps_states_and_rebuilds_identically() {
        let run = tri_run(3, 40);
        let events = RunCursor::new(&run).collect_events();
        let mut inc = IncrementalEngine::new(run.context_arc(), run.horizon());
        inc.set_observer_cap(Some(2));
        let mut nodes = Vec::new();
        for ev in &events {
            nodes.push(inc.append_event(ev).unwrap());
        }
        // Query many observers; the cache never holds more than 2 states.
        let mut first_answers = Vec::new();
        for &sigma in &nodes {
            first_answers.push(inc.max_x_basic_matrix(sigma).unwrap());
            assert!(inc.observer_count() <= 2, "cap violated at {sigma}");
        }
        assert!(inc.observer_evictions() > 0, "nothing was ever evicted");
        // Re-querying an evicted observer rebuilds a state that answers
        // byte-identically to the evicted one and to a scratch engine.
        for (&sigma, before) in nodes.iter().zip(&first_answers) {
            let again = inc.max_x_basic_matrix(sigma).unwrap();
            assert_eq!(&again, before, "rebuilt state diverged at {sigma}");
            let batch = KnowledgeEngine::new(inc.run(), sigma)
                .unwrap()
                .max_x_basic_matrix()
                .unwrap();
            assert_eq!(again, batch);
            assert!(inc.observer_count() <= 2);
        }
        // cap 0 disables retention entirely; answers are unaffected.
        inc.set_observer_cap(Some(0));
        assert_eq!(inc.observer_count(), 0);
        let sigma = *nodes.last().unwrap();
        assert_eq!(
            inc.max_x_basic_matrix(sigma).unwrap(),
            first_answers[nodes.len() - 1]
        );
        assert_eq!(inc.observer_count(), 0);
    }

    #[test]
    fn unknown_observers_and_bad_events_error() {
        let run = tri_run(0, 25);
        let mut inc = IncrementalEngine::new(run.context_arc(), run.horizon());
        assert!(inc.engine(NodeId::new(ProcessId::new(0), 1)).is_err());
        assert_eq!(inc.observer_count(), 0);
        // Before every event, offer one delivering a message nobody sent:
        // each is rejected and changes nothing, so the engine keeps
        // appending and ends up answering like a clean replay of the run.
        let twin = IncrementalEngine::ingest(&run).unwrap();
        let i1 = NodeId::new(ProcessId::new(0), 1);
        for ev in RunCursor::new(&run) {
            let bad = RunEvent {
                receipts: vec![ReceiptEvent::Message(zigzag_bcm::MessageId::new(999))],
                ..ev.clone()
            };
            let (events, prefix) = (inc.event_count(), inc.run().clone());
            assert!(matches!(inc.append_event(&bad), Err(CoreError::Bcm(_))));
            assert_eq!(inc.event_count(), events);
            assert_eq!(inc.run(), &prefix);
            let node = inc.append_event(&ev).unwrap();
            assert_eq!(
                inc.max_x_basic_matrix(node).unwrap(),
                twin.max_x_basic_matrix(node).unwrap()
            );
            inc.tight_bound(i1, node).unwrap();
        }
        assert_eq!(inc.run(), &run);
        for rec in run.nodes() {
            let n = rec.id();
            assert_eq!(inc.tight_bound(i1, n), twin.tight_bound(i1, n));
        }
        // Ingest replays a whole run in one call.
        assert_eq!(twin.run(), &run);
        assert_eq!(twin.bounds_graph().node_count(), run.node_count());
    }
}
