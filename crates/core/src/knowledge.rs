//! The knowledge engine: deciding `K_σ(θ1 --x--> θ2)` (Theorem 4).
//!
//! A process at basic node `σ` *knows* a timed precedence iff the
//! precedence holds in **every** run indistinguishable from the current one
//! at `σ`. Quantifying over that infinite set directly is hopeless; the
//! proof of Theorem 4 replaces it with a single extremal construction — the
//! γ-fast run of Definition 24 — plus reachability in the extended bounds
//! graph `GE(r, σ)`:
//!
//! * if `θ2`'s base is **unreachable** from `θ1`'s base in `GE(r, σ)`,
//!   knowledge fails for *every* `x` (the γ parameter pushes `θ2`
//!   arbitrarily early in some indistinguishable run);
//! * otherwise the 0-fast run of `θ1` realizes the **minimal** gap
//!   `time(θ2) − time(θ1)` over all indistinguishable runs, so
//!   `K_σ(θ1 --x--> θ2)` holds iff `x <=` that gap ([`KnowledgeEngine::max_x`]).
//!
//! Every positive answer comes with a checkable σ-visible zigzag witness of
//! exactly the max-x weight ([`KnowledgeEngine::witness`], Corollary 1);
//! every negative answer with a legal indistinguishable run in which the
//! precedence fails ([`KnowledgeEngine::refute`]).
//!
//! # One traversal per base
//!
//! The 0-fast timing gives every vertex reachable from `θ1`'s base `σ'`
//! its forward distance `d(σ', v)` plus one shift (Definition 23), so the
//! gap `time(θ2) − time(θ1)` is a difference of distances and the shift
//! cancels. `max_x`, `knows`, `witness` and `refute`'s yes/no step
//! therefore read the forward lane of `σ'` alone (`timing::fast_lane`),
//! lay `θ1`'s chain out and walk `θ2`'s as offsets from it, and run one
//! distance traversal per distinct base. A full
//! [`crate::timing::FastTiming`], with its traversal to the observer, is
//! built only for a constructed run: [`KnowledgeEngine::fast_run_of`]
//! and `refute`'s counterexample.

#![deny(clippy::cast_possible_wrap)]

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use zigzag_bcm::run::Past;
use zigzag_bcm::{NetPath, NodeId, ProcessId, Run};

use crate::bounds_graph::{hop_weights, BoundsGraph, NodeLayout};
use crate::construct::{chain_layout, Extension, FastRun, RunArena};
use crate::error::CoreError;
use crate::extended_graph::{ExtVertex, GeFrontier, GeView};
use crate::extract::{anchor_tail, extend_head, zigzag_from_ge_walk};
use crate::fork::TwoLeggedFork;
use crate::fx::FxBuild;
use crate::graph::{Distances, Edge};
use crate::node::GeneralNode;
use crate::pattern::ZigzagPattern;
use crate::timing::{fast_lane, fast_timing, FastTiming};
use crate::visible::VisibleZigzag;

/// How one hop of a node's message chain is delivered in the 0-fast run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FastHop {
    /// Condition 3, lower bound binding: delivered at `t + L`.
    Lower,
    /// Condition 3, frontier binding: delivered at `T(ψ_j)`.
    Psi,
    /// Condition 2: the hop coincides with `θ1`'s chain (pinned to `t + U`);
    /// the payload is the chain position reached.
    ChainUpper(usize),
}

/// `θ1`'s chain layout in the 0-fast run: position offsets and the
/// condition-2 delivery prescriptions. Every offset is a time in that run
/// less the timing's shift, so its base `σ'` sits at `d(σ') = 0`.
#[derive(Debug)]
struct ChainInfo {
    /// `(sending process, send offset, destination) → (arrival offset,
    /// position)`.
    map: BTreeMap<(ProcessId, i64, ProcessId), (i64, usize)>,
    /// Arrival offset of the full chain: `time(θ1)` in the 0-fast run,
    /// less the shift.
    arrival: i64,
}

/// The memoized `max_x` answer table: per-`θ1` rows of per-`θ2` final
/// answers (see [`QueryCache::answers`]).
type AnswerRows = HashMap<GeneralNode, HashMap<GeneralNode, Option<i64>, FxBuild>, FxBuild>;

/// Memoized per-query state shared by `knows` / `max_x` / `witness` /
/// `refute` / `fast_run_of` on the same engine: canonical node rewrites,
/// the checked forward lane per anchor base and `θ1` chain layouts, which
/// the answers read, and the γ-fast timings constructions read. All
/// derived purely from the immutable `(run, σ)` pair, so entries never go
/// stale.
#[derive(Debug, Default)]
struct QueryCache {
    canonical: Mutex<HashMap<GeneralNode, GeneralNode, FxBuild>>,
    /// The forward distance lane of each canonical `θ1` base, each
    /// checked against Lemma 17 once ([`fast_lane`]); the view's memo
    /// holds the same lane.
    lanes: Mutex<HashMap<NodeId, Arc<Distances>, FxBuild>>,
    /// Keyed by canonical `θ1`: the layout is in offsets from its base's
    /// lane, which no γ moves.
    chains: Mutex<HashMap<GeneralNode, Arc<ChainInfo>, FxBuild>>,
    /// The γ-fast timing per `(base, γ)`, for constructions only
    /// ([`KnowledgeEngine::fast_run_of`] and `refute`'s counterexample).
    timings: Mutex<HashMap<(NodeId, u64), Arc<FastTiming>, FxBuild>>,
    /// Final `max_x` answers per `(θ1, θ2)` (uncanonicalized, so repeat
    /// queries skip even the canonical rewrite). Sound for the same
    /// reason the state itself is reusable across appends: the answer is
    /// a pure function of the immutable `(GE(r, σ), θ1, θ2)` triple.
    /// Nested so the hot lookup borrows both keys and clones nothing.
    answers: Mutex<AnswerRows>,
}

/// The value `memo` holds for `key`, built with `build` on a miss. The
/// lock is released while building, so racing misses may each build; the
/// value is a pure function of the key, so either result is the same.
fn memoized<K: Eq + Hash + Clone, V: Clone>(
    memo: &Mutex<HashMap<K, V, FxBuild>>,
    key: &K,
    build: impl FnOnce() -> Result<V, CoreError>,
) -> Result<V, CoreError> {
    if let Some(hit) = memo.lock().expect("query cache lock").get(key) {
        return Ok(hit.clone());
    }
    let value = build()?;
    memo.lock()
        .expect("query cache lock")
        .insert(key.clone(), value.clone());
    Ok(value)
}

/// Which edge set an [`ObserverState`]'s `GE(r, σ)` carries. Queries read
/// the full graph; the own-sends-excluded one is the probe view of
/// `zigzag_coord`'s `ExcludeOwnSends` decisions, which a session builds
/// per decision and never caches (see [`ObserverCache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ObserverMode {
    /// The paper's full `GE(r, σ)`: σ's own FFIP sends contribute their
    /// unseen-delivery `E''` edges ([`ObserverState::build`]).
    #[default]
    Full,
    /// σ's own sends excluded
    /// ([`ObserverState::build_excluding_own_sends`]): the in-simulation
    /// probe view behind `zigzag_coord`'s `ExcludeOwnSends` semantics.
    ExcludeOwnSends,
}

impl ObserverMode {
    /// The node whose sends contribute no edge to `sigma`'s graph.
    fn excluded(self, sigma: NodeId) -> Option<NodeId> {
        match self {
            ObserverMode::Full => None,
            ObserverMode::ExcludeOwnSends => Some(sigma),
        }
    }
}

/// Everything observer-scoped the decision procedure derives from a run:
/// `GE(r, σ)` as a view over a bounds graph, the memoized query caches,
/// and the construction arena.
///
/// The view is a frontier, not a copy (see [`crate::extended_graph`]):
/// σ's causal past, the cut it makes, the `n` values of the `ψ` clock,
/// the `E''` overlay, and the memoized distance lanes. Its rows are those
/// of a bounds graph: the session's `GB(r)` for a state an
/// [`crate::incremental::IncrementalEngine`] builds, which therefore
/// holds no edges of its own, or `GB(r, σ)` (Definition 14), built once
/// and owned by a standalone state ([`ObserverState::build`]). A witness
/// path is read off the memoized distances by a pass over the view's
/// rows, so a state that has answered a witness holds no edges either.
///
/// Split out of [`KnowledgeEngine`] so append-only consumers can keep it
/// alive across run growth: by the *observer-stability invariant*
/// (documented at [`crate::incremental`]), nothing in here changes when
/// events are appended to the run — `past(r, σ)` is fixed at σ's
/// creation, and a message sent inside that past whose delivery σ has
/// not seen can only be delivered at a node *outside* the past. A state
/// built on any prefix containing σ therefore answers every later query
/// exactly as a state rebuilt from scratch would — which is also what
/// makes LRU *eviction* sound ([`ObserverCache`]): a dropped state
/// rebuilt later answers byte-identically.
///
/// The invariant covers both [`ObserverMode`]s: σ's sends are recorded
/// with σ's own event, so the `E''` edges the exclude mode leaves out are
/// fixed the moment σ exists. A session nonetheless caches full-mode
/// states only, the ones queries name; a coordination decision builds its
/// state, of either mode, and drops it (see [`crate::incremental`]).
#[derive(Debug)]
pub struct ObserverState {
    past: Past,
    frontier: GeFrontier,
    /// The graph a standalone state's view reads; `None` for a session's
    /// state, which views the session's `GB(r)`. Boxed, so a session's
    /// retained state stays small.
    local: Option<Box<BoundsGraph>>,
    cache: QueryCache,
    /// Delivery-queue scratch recycled across `fast_run_of`/`refute`
    /// constructions at this observer.
    arena: Mutex<RunArena>,
}

impl ObserverState {
    /// `past(r, σ)` and its layout: the frontier every state of `sigma`
    /// is cut at.
    ///
    /// # Errors
    ///
    /// Fails if `sigma` does not appear in `run`.
    fn past_of(run: &Run, sigma: NodeId) -> Result<(Past, NodeLayout), CoreError> {
        if !run.appears(sigma) {
            return Err(CoreError::NodeNotInRun {
                detail: format!("observer {sigma} does not appear in the run"),
            });
        }
        let past = run.past(sigma);
        let layout = NodeLayout::of_past(&past, run.context().network().len());
        Ok((past, layout))
    }

    fn assemble(past: Past, frontier: GeFrontier, local: Option<Box<BoundsGraph>>) -> Self {
        ObserverState {
            past,
            frontier,
            local,
            cache: QueryCache::default(),
            arena: Mutex::new(RunArena::new()),
        }
    }

    /// Builds a standalone state for observer `sigma` on `run` under
    /// `mode`: the view reads `GB(r, σ)`, built here in one pass and owned
    /// by the state, and the sends in σ's past from `run`'s message
    /// records. The one construction site behind [`ObserverState::build`]
    /// and [`ObserverState::build_excluding_own_sends`].
    ///
    /// # Errors
    ///
    /// Fails if `sigma` does not appear in `run`.
    pub fn build_mode(run: &Run, sigma: NodeId, mode: ObserverMode) -> Result<Self, CoreError> {
        let (past, layout) = Self::past_of(run, sigma)?;
        let local = BoundsGraph::local(run, &past);
        let frontier = GeFrontier::new(run, &local, layout, mode.excluded(sigma));
        Ok(Self::assemble(past, frontier, Some(Box::new(local))))
    }

    /// A session's state for observer `sigma`: a view over the session's
    /// `gb` (`GB(r)` of `run`), holding no edges of its own. Read it
    /// through [`KnowledgeEngine::over`] with the same graph.
    ///
    /// # Errors
    ///
    /// Fails if `sigma` does not appear in `run`.
    pub(crate) fn view(
        run: &Run,
        gb: &BoundsGraph,
        sigma: NodeId,
        mode: ObserverMode,
    ) -> Result<Self, CoreError> {
        let (past, layout) = Self::past_of(run, sigma)?;
        let frontier = GeFrontier::new(run, gb, layout, mode.excluded(sigma));
        Ok(Self::assemble(past, frontier, None))
    }

    /// Builds the state for observer `sigma` on `run`.
    ///
    /// # Errors
    ///
    /// Fails if `sigma` does not appear in `run`.
    pub fn build(run: &Run, sigma: NodeId) -> Result<Self, CoreError> {
        Self::build_mode(run, sigma, ObserverMode::Full)
    }

    /// Builds the state for observer `sigma` with `sigma`'s **own sends
    /// excluded** from `GE(r, σ)` — the `ExcludeOwnSends` probe semantics
    /// of `zigzag_coord::stream::ProbeSemantics`: the graph a strategy
    /// probed mid-simulation sees, where the node exists but its FFIP
    /// sends are not yet recorded.
    ///
    /// # Errors
    ///
    /// Fails if `sigma` does not appear in `run`.
    pub fn build_excluding_own_sends(run: &Run, sigma: NodeId) -> Result<Self, CoreError> {
        Self::build_mode(run, sigma, ObserverMode::ExcludeOwnSends)
    }

    /// The observer node `σ` the state was built for.
    pub fn observer(&self) -> NodeId {
        self.past.of()
    }
}

/// A bounded, least-recently-used cache of [`ObserverState`]s — the
/// per-observer cache of [`crate::incremental::IncrementalEngine`],
/// keyed by observer. It holds the full-mode states queries read, and
/// nothing else: coordination decisions build their states outside it.
///
/// Unbounded per-observer caching is right for analyses that revisit a
/// handful of observers, but a deployment answering queries at millions
/// of observers per stream needs a cap: `ObserverCache` keeps at most
/// `cap` states, evicting the least recently used on overflow. Eviction
/// never changes an answer — by the observer-stability invariant (see
/// [`ObserverState`]) a rebuilt state is byte-identical to the evicted
/// one — it only trades the rebuild cost back in.
#[derive(Debug)]
pub struct ObserverCache {
    /// `None` = unbounded (the pre-policy behavior). `Some(0)` disables
    /// retention entirely: states are built per request and never stored.
    cap: Option<usize>,
    tick: u64,
    /// Each state with the tick of its last use.
    map: HashMap<NodeId, (Arc<ObserverState>, u64), FxBuild>,
    /// Recency index under a cap: tick → observer, kept in lockstep with
    /// `map` so eviction pops the oldest tick in O(log n) instead of
    /// scanning the whole map per miss (ticks are unique, so this is a
    /// faithful LRU order). Empty while unbounded.
    recency: BTreeMap<u64, NodeId>,
    evictions: u64,
    hits: u64,
    misses: u64,
}

impl ObserverCache {
    /// Creates a cache holding at most `cap` states (`None` = unbounded).
    pub fn new(cap: Option<usize>) -> Self {
        ObserverCache {
            cap,
            tick: 0,
            map: HashMap::default(),
            recency: BTreeMap::new(),
            evictions: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The configured bound.
    pub fn cap(&self) -> Option<usize> {
        self.cap
    }

    /// Re-bounds the cache, evicting least-recently-used states
    /// immediately if the new bound is tighter than the current
    /// population. The recency index is rebuilt from each state's last
    /// use, which an unbounded cache records without indexing.
    pub fn set_cap(&mut self, cap: Option<usize>) {
        self.cap = cap;
        self.recency.clear();
        if cap.is_some() {
            let ticks = self.map.iter().map(|(&sigma, &(_, used))| (used, sigma));
            self.recency.extend(ticks);
        }
        self.enforce();
    }

    /// Number of states currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The observer of every retained state, from least to most recently
    /// used — the warm-set manifest durable-session snapshots record, so
    /// warming it in order rebuilds the same recency.
    pub fn keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        let mut by_use: Vec<(u64, NodeId)> = self
            .map
            .iter()
            .map(|(&sigma, &(_, used))| (used, sigma))
            .collect();
        by_use.sort_unstable();
        by_use.into_iter().map(|(_, sigma)| sigma)
    }

    /// Total number of states evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of lookups served from a retained state.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that had to build a state (including builds the
    /// cache then declined to retain under `Some(0)`), whether or not the
    /// build succeeded.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The state for `sigma`, built with `build` on a miss. On a hit the
    /// entry's recency is refreshed; on a miss the built state is
    /// retained (evicting the least recently used entry if the bound
    /// would overflow).
    ///
    /// # Errors
    ///
    /// Propagates the builder's error on a miss.
    pub fn get_or_build(
        &mut self,
        sigma: NodeId,
        build: impl FnOnce() -> Result<ObserverState, CoreError>,
    ) -> Result<Arc<ObserverState>, CoreError> {
        self.tick += 1;
        // An unbounded cache never evicts, so it only stamps the tick —
        // no BTreeMap churn on the hot hit path — and `set_cap` indexes
        // the stamps if a cap arrives later.
        let track = self.cap.is_some();
        if let Some((state, used)) = self.map.get_mut(&sigma) {
            self.hits += 1;
            if track {
                self.recency.remove(used);
                self.recency.insert(self.tick, sigma);
            }
            *used = self.tick;
            return Ok(state.clone());
        }
        self.misses += 1;
        let built = Arc::new(build()?);
        if self.cap == Some(0) {
            return Ok(built); // retention disabled: never stored
        }
        self.map.insert(sigma, (built.clone(), self.tick));
        if track {
            self.recency.insert(self.tick, sigma);
            self.enforce();
        }
        Ok(built)
    }

    fn enforce(&mut self) {
        let Some(cap) = self.cap else { return };
        while self.map.len() > cap {
            let (_, lru) = self
                .recency
                .pop_first()
                .expect("recency tracks every retained state");
            self.map.remove(&lru);
            self.evictions += 1;
        }
    }
}

/// The dense all-pairs knowledge-threshold matrix of
/// [`KnowledgeEngine::max_x_basic_matrix`]: one flat row-major allocation
/// over the non-initial nodes of `past(r, σ)` in ascending [`NodeId`]
/// order. Cell `(a, b)` holds the largest `x` with `K_σ(a --x--> b)`, or
/// `None` when `b` is unreachable from `a` in `GE(r, σ)`.
///
/// Batch consumers index by position ([`MaxXMatrix::at`]) or by node
/// ([`MaxXMatrix::get`], a binary search — no per-cell map walk, no
/// per-call tree allocation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxXMatrix {
    nodes: Vec<NodeId>,
    /// Row-major: `data[i * n + j]` = threshold for `nodes[i] → nodes[j]`.
    data: Vec<Option<i64>>,
}

impl MaxXMatrix {
    /// Reassembles a matrix from its parts — the inverse of reading
    /// [`MaxXMatrix::nodes`] and row-major cells out of
    /// [`MaxXMatrix::iter`], used by wire decoders.
    ///
    /// # Errors
    ///
    /// Fails if `data` is not `nodes.len()²` cells or `nodes` is not
    /// strictly ascending.
    pub fn from_parts(nodes: Vec<NodeId>, data: Vec<Option<i64>>) -> Result<Self, CoreError> {
        if data.len() != nodes.len() * nodes.len() {
            return Err(CoreError::InvalidTiming {
                detail: format!("matrix needs {}² cells, got {}", nodes.len(), data.len()),
            });
        }
        if nodes.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CoreError::InvalidTiming {
                detail: "matrix nodes must be strictly ascending".into(),
            });
        }
        Ok(MaxXMatrix { nodes, data })
    }

    /// The row/column nodes, in ascending order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of rows (= columns).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the matrix is empty (an observer whose past holds only
    /// initial nodes).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The dense row/column position of `node`, if present.
    pub fn index_of(&self, node: NodeId) -> Option<usize> {
        self.nodes.binary_search(&node).ok()
    }

    /// Cell by dense position.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn at(&self, i: usize, j: usize) -> Option<i64> {
        assert!(
            i < self.len() && j < self.len(),
            "matrix index out of range"
        );
        self.data[i * self.nodes.len() + j]
    }

    /// Cell by node pair: `Some(threshold)` if both nodes are in the
    /// matrix, `None` otherwise. The inner `Option` is the threshold
    /// (`None` = unreachable, no `x` is known).
    pub fn get(&self, a: NodeId, b: NodeId) -> Option<Option<i64>> {
        let (i, j) = (self.index_of(a)?, self.index_of(b)?);
        Some(self.data[i * self.nodes.len() + j])
    }

    /// Iterates every cell as `(a, b, threshold)`, row-major.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, Option<i64>)> + '_ {
        let n = self.nodes.len();
        self.data
            .iter()
            .enumerate()
            .map(move |(k, &v)| (self.nodes[k / n], self.nodes[k % n], v))
    }
}

impl std::ops::Index<(NodeId, NodeId)> for MaxXMatrix {
    type Output = Option<i64>;

    fn index(&self, (a, b): (NodeId, NodeId)) -> &Self::Output {
        let (i, j) = (
            self.index_of(a).expect("row node not in matrix"),
            self.index_of(b).expect("column node not in matrix"),
        );
        &self.data[i * self.nodes.len() + j]
    }
}

/// Decision procedure for knowledge of timed precedence at a basic node,
/// realizing Theorem 4 and Protocols 1/2.
///
/// The engine inspects only `past(r, σ)` and the common-knowledge channel
/// bounds — exactly the information the paper's model grants a process —
/// so its answers are legitimate *protocol* decisions, not analyses that
/// peek at hidden state.
///
/// # Examples
///
/// ```
/// # use zigzag_bcm::{Network, SimConfig, Simulator, Time, NodeId};
/// # use zigzag_bcm::protocols::Ffip;
/// # use zigzag_bcm::scheduler::EagerScheduler;
/// use zigzag_core::knowledge::KnowledgeEngine;
/// use zigzag_core::GeneralNode;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mut b = Network::builder();
/// # let c = b.add_process("C");
/// # let a = b.add_process("A");
/// # let bb = b.add_process("B");
/// # b.add_channel(c, a, 1, 3)?;
/// # b.add_channel(c, bb, 7, 9)?;
/// # let ctx = b.build()?;
/// # let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(40)));
/// # sim.external(Time::new(2), c, "go");
/// # let run = sim.run(&mut Ffip::new(), &mut EagerScheduler)?;
/// // Figure 1: once B hears C's message it knows A acted ≥ L_CB − U_CA
/// // = 4 ticks earlier.
/// let sigma_c = run.external_receipt_node(c, "go").unwrap();
/// let theta_b = GeneralNode::chain(sigma_c, &[bb])?; // where B hears C
/// let theta_a = GeneralNode::chain(sigma_c, &[a])?;  // where A acts
/// let sigma = theta_b.resolve(&run)?;
/// let engine = KnowledgeEngine::new(&run, sigma)?;
/// assert_eq!(engine.max_x(&theta_a, &theta_b)?, Some(4));
/// assert!(engine.knows(&theta_a, &theta_b, 4)?);
/// assert!(!engine.knows(&theta_a, &theta_b, 5)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct KnowledgeEngine<'r> {
    run: &'r Run,
    /// The session's `GB(r)`, for a state that views it rather than a
    /// graph of its own.
    session: Option<&'r BoundsGraph>,
    /// The observer-scoped analysis, shareable across engine views: the
    /// incremental layer keeps one state per observer alive while the run
    /// grows and wraps it around the current prefix per query.
    state: Arc<ObserverState>,
}

impl<'r> KnowledgeEngine<'r> {
    /// Creates the engine for the observer node `sigma`.
    ///
    /// Building many engines over the same run, or growing the run
    /// event-by-event? Use a [`crate::incremental::IncrementalEngine`]
    /// instead, which shares the run-level analysis across observers and
    /// keeps observer states warm across appends.
    ///
    /// # Errors
    ///
    /// Fails if `sigma` does not appear in `run`.
    pub fn new(run: &'r Run, sigma: NodeId) -> Result<Self, CoreError> {
        let state = ObserverState::build(run, sigma)?;
        Ok(Self::with_state(run, Arc::new(state)))
    }

    /// Wraps a (possibly long-lived) standalone observer state — one
    /// [`ObserverState::build`] made, which carries its own graph —
    /// around a run: `run` must contain the prefix the state was built
    /// on (sound by the observer-stability invariant documented at
    /// [`ObserverState`]).
    pub fn with_state(run: &'r Run, state: Arc<ObserverState>) -> Self {
        KnowledgeEngine {
            run,
            session: None,
            state,
        }
    }

    /// Wraps a session's state around the session's current prefix and
    /// the `GB(r)` its view reads — the append-only path used by
    /// [`crate::incremental::IncrementalEngine`].
    pub(crate) fn over(run: &'r Run, gb: &'r BoundsGraph, state: Arc<ObserverState>) -> Self {
        KnowledgeEngine {
            run,
            session: Some(gb),
            state,
        }
    }

    /// The observer node `σ`.
    pub fn observer(&self) -> NodeId {
        self.state.observer()
    }

    /// The extended bounds graph `GE(r, σ)` backing the decisions, as a
    /// view over the bounds graph it is cut from.
    pub fn ge(&self) -> GeView<'_> {
        let gb = self.state.local.as_deref().or(self.session);
        let gb = gb.expect("a session's state is read with its session's GB(r)");
        GeView::new(gb, &self.state.frontier, &self.state.past)
    }

    /// Rewrites `θ = ⟨σ', p⟩` into the equivalent node whose chain never
    /// re-enters `past(r, σ)`: hops whose deliveries `σ` has seen are
    /// folded into the base. In every run indistinguishable at `σ` the two
    /// forms resolve to the same basic node, so knowledge queries are
    /// invariant under this rewriting.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NotRecognized`] if the base is outside the past;
    /// * [`CoreError::InitialNode`] if the node is an initial node or its
    ///   chain leaves one (initial nodes never send, and Theorem 4 excludes
    ///   `time = 0` nodes);
    /// * [`CoreError::NodeNotInRun`] if a hop is not a channel.
    fn canonicalize(&self, theta: &GeneralNode) -> Result<GeneralNode, CoreError> {
        memoized(&self.state.cache.canonical, theta, || {
            let (past, sigma) = (&self.state.past, self.observer());
            crate::construct::canonicalize_in_past(self.run, past, sigma, theta)
        })
    }

    /// The memoized γ-fast timing anchored at `base`, computed once per
    /// distinct `(base, γ)` for the lifetime of the engine, for
    /// constructions. Its two distance traversals are memoized by the
    /// view, so every γ at one base shares them, and the forward one with
    /// the answers' lane; each is a Dijkstra under the run's clock (see
    /// [`crate::extended_graph`]).
    fn timing(&self, base: NodeId, gamma: u64) -> Result<Arc<FastTiming>, CoreError> {
        memoized(&self.state.cache.timings, &(base, gamma), || {
            fast_timing(self.ge(), base, gamma).map(Arc::new)
        })
    }

    /// The memoized forward lane of a canonical base, checked against
    /// Lemma 17 on its first use (see the [module docs](self)).
    fn lane(&self, base: NodeId) -> Result<Arc<Distances>, CoreError> {
        memoized(&self.state.cache.lanes, &base, || {
            fast_lane(self.ge(), base)
        })
    }

    /// The memoized chain layout of a canonical `θ1` in the 0-fast run.
    fn chain_info_cached(&self, theta: &GeneralNode) -> Result<Arc<ChainInfo>, CoreError> {
        memoized(&self.state.cache.chains, theta, || {
            self.chain_info(theta).map(Arc::new)
        })
    }

    /// Lays out a canonical node's chain at upper bounds (Definition 24
    /// condition 2), in offsets from its base at 0: the layout of the
    /// construction ([`chain_layout`]), keyed for the walk.
    fn chain_info(&self, theta: &GeneralNode) -> Result<ChainInfo, CoreError> {
        let mut map = BTreeMap::new();
        let mut arrival = 0;
        let layout = chain_layout(self.run.context().bounds(), theta)?;
        for (m, (hop, send, arrive)) in layout.into_iter().enumerate() {
            map.insert((hop.from, send, hop.to), (arrive, m + 1));
            arrival = arrive;
        }
        Ok(ChainInfo { map, arrival })
    }

    /// Resolves a canonical node's arrival offset in the 0-fast run of
    /// `θ1` from its base's offset `start`, without materializing the
    /// run: condition-2 hops follow `θ1`'s pinned chain, all other hops
    /// land at `max(t + L, d(ψ))`, where an unreached `ψ` never binds.
    fn walk(
        &self,
        lane: &Distances,
        chain: &ChainInfo,
        theta2: &GeneralNode,
        start: i64,
    ) -> Result<(i64, Vec<FastHop>), CoreError> {
        let ge = self.ge();
        let bounds = self.run.context().bounds();
        let mut t = start;
        let mut hops = Vec::new();
        for hop in theta2.path().hops() {
            let (lower, _) = hop_weights(bounds, hop)?;
            if let Some(&(tn, pos)) = chain.map.get(&(hop.from, t, hop.to)) {
                t = tn;
                hops.push(FastHop::ChainUpper(pos));
                continue;
            }
            let low = t + lower;
            let psi = ge.index_of(ExtVertex::Aux(hop.to));
            match lane.weight(psi.expect("every process has ψ")) {
                Some(psi) if psi > low => {
                    t = psi;
                    hops.push(FastHop::Psi);
                }
                _ => {
                    t = low;
                    hops.push(FastHop::Lower);
                }
            }
        }
        Ok((t, hops))
    }

    /// The 0-fast gap `time(θ2) − time(θ1)` of two canonical nodes and
    /// the hops of `θ2`'s chain, or `None` when `θ2`'s base is unreachable
    /// from `θ1`'s in `GE(r, σ)`.
    fn gap(
        &self,
        t1c: &GeneralNode,
        t2c: &GeneralNode,
    ) -> Result<Option<(i64, Vec<FastHop>)>, CoreError> {
        let lane = self.lane(t1c.base())?;
        let base2 = self.ge().index_of(ExtVertex::Node(t2c.base()));
        let Some(start) = base2.and_then(|i| lane.weight(i)) else {
            return Ok(None);
        };
        let chain = self.chain_info_cached(t1c)?;
        let (t2, hops) = self.walk(&lane, &chain, t2c, start)?;
        Ok(Some((t2 - chain.arrival, hops)))
    }

    /// The exact knowledge threshold: the largest `x` for which
    /// `K_σ(θ1 --x--> θ2)` holds, or `None` if no `x` is known (Theorem 4's
    /// unreachable case).
    ///
    /// # Errors
    ///
    /// Fails if a node's base is not σ-recognized, a node is initial, or a
    /// chain hop is not a channel.
    pub fn max_x(
        &self,
        theta1: &GeneralNode,
        theta2: &GeneralNode,
    ) -> Result<Option<i64>, CoreError> {
        if let Some(hit) = self
            .state
            .cache
            .answers
            .lock()
            .expect("answer cache lock")
            .get(theta1)
            .and_then(|row| row.get(theta2))
        {
            return Ok(*hit);
        }
        let answer = self.max_x_uncached(theta1, theta2)?;
        self.state
            .cache
            .answers
            .lock()
            .expect("answer cache lock")
            .entry(theta1.clone())
            .or_default()
            .insert(theta2.clone(), answer);
        Ok(answer)
    }

    fn max_x_uncached(
        &self,
        theta1: &GeneralNode,
        theta2: &GeneralNode,
    ) -> Result<Option<i64>, CoreError> {
        let t1c = self.canonicalize(theta1)?;
        let t2c = self.canonicalize(theta2)?;
        Ok(self.gap(&t1c, &t2c)?.map(|(gap, _)| gap))
    }

    /// Batched [`KnowledgeEngine::max_x`]: answers every `(θ1, θ2)` query
    /// in one call, sharing canonicalization, distance lanes and chain
    /// layouts across queries (queries with a common `θ1` cost one
    /// distance traversal total). Results are positionally aligned with
    /// `queries`.
    ///
    /// # Errors
    ///
    /// Fails on the first query that [`KnowledgeEngine::max_x`] would fail
    /// on.
    pub fn max_x_batch(
        &self,
        queries: &[(GeneralNode, GeneralNode)],
    ) -> Result<Vec<Option<i64>>, CoreError> {
        queries
            .iter()
            .map(|(theta1, theta2)| self.max_x(theta1, theta2))
            .collect()
    }

    /// Decides `K_σ(θ1 --x--> θ2)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KnowledgeEngine::max_x`].
    pub fn knows(
        &self,
        theta1: &GeneralNode,
        theta2: &GeneralNode,
        x: i64,
    ) -> Result<bool, CoreError> {
        Ok(self.max_x(theta1, theta2)?.is_some_and(|m| x <= m))
    }

    /// Produces the σ-visible zigzag witness of Corollary 1: a pattern from
    /// `θ1` to `θ2` whose weight equals [`KnowledgeEngine::max_x`] exactly.
    /// Returns `None` when no knowledge holds (unreachable case).
    ///
    /// The witness is an independent artifact: re-validating it against the
    /// run (or any indistinguishable run) via
    /// [`VisibleZigzag::validate`] certifies the knowledge claim without
    /// trusting this engine.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KnowledgeEngine::max_x`], plus internal
    /// inconsistencies reported as [`CoreError::InvalidTiming`].
    pub fn witness(
        &self,
        theta1: &GeneralNode,
        theta2: &GeneralNode,
    ) -> Result<Option<(i64, VisibleZigzag)>, CoreError> {
        let t1c = self.canonicalize(theta1)?;
        let t2c = self.canonicalize(theta2)?;
        let Some((max_x, hops)) = self.gap(&t1c, &t2c)? else {
            return Ok(None);
        };

        let ge = self.ge();
        let vertex = |i| ge.vertex(i);
        let split = hops.iter().rposition(|h| !matches!(h, FastHop::Lower));
        let pattern = match split {
            // The whole chain runs at lower bounds: GB/GE path to the base,
            // head extended along the full chain (Lemma 14 + Lemma 16).
            None => {
                let edges = self.ge_path(t1c.base(), ExtVertex::Node(t2c.base()))?;
                let z = zigzag_from_ge_walk(&vertex, t1c.base(), &edges)?;
                let z = extend_head(z, t2c.path())?;
                anchor_tail(z, &t1c)?
            }
            Some(k) => match hops[k] {
                FastHop::ChainUpper(pos) => {
                    // The chains merge (Lemma 13, "type 4"): one fork whose
                    // tail is θ1's chain suffix and head θ2's.
                    let base = GeneralNode::new(t1c.base(), t1c.path().prefix(pos + 1))?;
                    let fork =
                        TwoLeggedFork::new(base, t2c.path().suffix(k + 1), t1c.path().suffix(pos))?;
                    ZigzagPattern::single(fork)
                }
                FastHop::Psi => {
                    // The chain is held back by the frontier of `hop k`'s
                    // process (Lemma 12/15, "type 3"): boundary fork whose
                    // tail chains through the ψ trail.
                    let j = t2c.path().procs()[k + 1];
                    let edges = self.ge_path(t1c.base(), ExtVertex::Aux(j))?;
                    let last_node = edges.iter().rposition(|e| ge.vertex(e.to).node().is_some());
                    let (prefix, suffix) = edges.split_at(last_node.map_or(0, |c| c + 1));
                    let z = zigzag_from_ge_walk(&vertex, t1c.base(), prefix)?;
                    let mut trail: Vec<ProcessId> =
                        suffix.iter().map(|e| ge.vertex(e.to).proc()).collect();
                    trail.reverse(); // [j, …, l1]
                    let q = NetPath::new(trail).map_err(CoreError::Bcm)?;
                    let base = GeneralNode::new(t2c.base(), t2c.path().prefix(k + 2))?;
                    let top = TwoLeggedFork::new(base, t2c.path().suffix(k + 1), q)?;
                    let z = z.concat(ZigzagPattern::single(top))?;
                    anchor_tail(z, &t1c)?
                }
                FastHop::Lower => unreachable!("split index is a non-Lower hop"),
            },
        };
        Ok(Some((max_x, VisibleZigzag::new(pattern, self.observer()))))
    }

    /// All-pairs knowledge thresholds over the (non-initial) nodes of
    /// `past(r, σ)`, restricted to basic-node queries: entry `(a, b)` is
    /// the largest `x` with `K_σ(a --x--> b)`, or `None` when unreachable.
    ///
    /// One distance traversal per source node (a Dijkstra under the
    /// run's clock) — far cheaper than quadratically many
    /// [`KnowledgeEngine::max_x`] calls — and the result is a dense
    /// node-indexed [`MaxXMatrix`] (one flat allocation, O(1) cell reads)
    /// rather than a per-call `BTreeMap`. Used by the protocol-analysis
    /// experiments and benchmarks.
    ///
    /// # Errors
    ///
    /// Fails with [`CoreError::ClockFails`] if the run's clock fails on
    /// the view (impossible for legal runs).
    pub fn max_x_basic_matrix(&self) -> Result<MaxXMatrix, CoreError> {
        let ge = self.ge();
        // Past iteration is in (process, index) order — ascending NodeId —
        // so MaxXMatrix lookups can binary-search.
        let nodes: Vec<NodeId> = ge.past().iter().filter(|n| !n.is_initial()).collect();
        // Resolve each column's dense index once instead of per cell.
        let cols: Vec<Option<usize>> = nodes
            .iter()
            .map(|&b| ge.index_of(ExtVertex::Node(b)))
            .collect();
        let n = nodes.len();
        let mut data = vec![None; n * n];
        for (i, &a) in nodes.iter().enumerate() {
            let lp = ge.distances_from(ExtVertex::Node(a))?;
            let row = &mut data[i * n..(i + 1) * n];
            for (cell, &bi) in row.iter_mut().zip(&cols) {
                *cell = bi.and_then(|i| lp.weight(i));
            }
        }
        Ok(MaxXMatrix { nodes, data })
    }

    /// The canonical maximum-weight `GE(r, σ)` path from `from` to a
    /// vertex its lane reaches ([`GeView::longest_path`]), read off that
    /// memoized lane.
    fn ge_path(&self, from: NodeId, to: ExtVertex) -> Result<Vec<Edge>, CoreError> {
        let path = self.ge().longest_path(ExtVertex::Node(from), to)?;
        path.map(|(_, edges)| edges)
            .ok_or_else(|| CoreError::InvalidTiming {
                detail: format!("{to} is reached from {from} but has no path — model bug"),
            })
    }

    /// Constructs the γ-fast run of `θ1` — the extremal indistinguishable
    /// run behind the engine's answers.
    ///
    /// Unlike the free function [`crate::construct::fast_run`], this path
    /// shares the engine's view of `GE(r, σ)` and its memoized canonical
    /// rewrites and fast timings, so repeated constructions (`refute`
    /// sweeps, protocol analyses) pay neither the graph build nor the
    /// distance traversals again.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::construct::fast_run`].
    pub fn fast_run_of(
        &self,
        theta1: &GeneralNode,
        gamma: u64,
        extra_horizon: u64,
    ) -> Result<FastRun, CoreError> {
        self.fast_run_with_extension(theta1, gamma, Extension::Requested(extra_horizon))
    }

    /// [`KnowledgeEngine::fast_run_of`] with the extension `refute`
    /// derives, or the caller's.
    fn fast_run_with_extension(
        &self,
        theta1: &GeneralNode,
        gamma: u64,
        extension: Extension,
    ) -> Result<FastRun, CoreError> {
        let canonical = self.canonicalize(theta1)?;
        let ft = self.timing(canonical.base(), gamma)?;
        // The clone pulls the memoized timing out of the shared cache; the
        // construction consumes it. The observer's arena recycles the
        // delivery-queue storage across constructions; it is taken out of
        // the lock for the construction's duration so concurrent callers
        // never serialize on it (a racing call just uses a fresh arena).
        let mut arena = std::mem::take(&mut *self.state.arena.lock().expect("arena lock"));
        let result = crate::construct::fast_run_from_timing(
            self.run,
            self.ge().past(),
            &canonical,
            (*ft).clone(),
            extension,
            &mut arena,
        );
        *self.state.arena.lock().expect("arena lock") = arena;
        result
    }

    /// Produces a *refutation run* for a knowledge claim: a legal run
    /// indistinguishable from the current one at `σ` in which
    /// `θ1 --x--> θ2` fails. Returns `None` iff the knowledge actually
    /// holds (then no such run exists, by Theorem 4).
    ///
    /// # Errors
    ///
    /// Same conditions as [`KnowledgeEngine::max_x`].
    pub fn refute(
        &self,
        theta1: &GeneralNode,
        theta2: &GeneralNode,
        x: i64,
    ) -> Result<Option<FastRun>, CoreError> {
        let t1c = self.canonicalize(theta1)?;
        let t2c = self.canonicalize(theta2)?;
        let bounds = self.run.context().bounds();
        let u2 = bounds.path_upper(t2c.path()).map_err(CoreError::Bcm)?;
        let l1 = bounds.path_lower(t1c.path()).map_err(CoreError::Bcm)?;
        // Long enough for θ2 to resolve in the refutation run.
        let extra =
            Extension::Derived(u2 + bounds.path_upper(t1c.path()).map_err(CoreError::Bcm)? + 2);

        if let Some((m, _)) = self.gap(&t1c, &t2c)? {
            if x <= m {
                return Ok(None);
            }
            return self.fast_run_with_extension(&t1c, 0, extra).map(Some);
        }
        // γ = max(0, U(p2) − L(p1) − x), exact in i128; one too large for
        // the fast timing meets its range check.
        let gamma = (i128::from(u2) - i128::from(l1) - i128::from(x)).max(0);
        let gamma = u64::try_from(gamma).unwrap_or(u64::MAX);
        self.fast_run_with_extension(&t1c, gamma, extra).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precedence::satisfies;
    use zigzag_bcm::protocols::Ffip;
    use zigzag_bcm::scheduler::{EagerScheduler, RandomScheduler};
    use zigzag_bcm::validate::{validate_run, Strictness};
    use zigzag_bcm::{Network, SimConfig, Simulator, Time};

    /// Figure 1 context: C → A `[1,3]`, C → B `[7,9]`.
    fn fig1_run() -> (Run, ProcessId, ProcessId, ProcessId) {
        let mut b = Network::builder();
        let c = b.add_process("C");
        let a = b.add_process("A");
        let bb = b.add_process("B");
        b.add_channel(c, a, 1, 3).unwrap();
        b.add_channel(c, bb, 7, 9).unwrap();
        let ctx = b.build().unwrap();
        let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(40)));
        sim.external(Time::new(2), c, "go");
        let run = sim.run(&mut Ffip::new(), &mut EagerScheduler).unwrap();
        (run, c, a, bb)
    }

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
    fn fig1_fork_knowledge_threshold() {
        let (run, c, a, bb) = fig1_run();
        let sigma_c = run.external_receipt_node(c, "go").unwrap();
        let theta_a = GeneralNode::chain(sigma_c, &[a]).unwrap();
        let theta_b = GeneralNode::chain(sigma_c, &[bb]).unwrap();
        let sigma = theta_b.resolve(&run).unwrap();
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        // B knows a --x--> b exactly up to L_CB − U_CA = 4.
        assert_eq!(engine.max_x(&theta_a, &theta_b).unwrap(), Some(4));
        assert!(engine.knows(&theta_a, &theta_b, 4).unwrap());
        assert!(engine.knows(&theta_a, &theta_b, -10).unwrap());
        assert!(!engine.knows(&theta_a, &theta_b, 5).unwrap());
        // And the reverse direction: b --x--> a only for x <= U_CB… no:
        // max_x(b, a) = −L_CB + U_CA = threshold for "b at most that after a".
        let m = engine.max_x(&theta_b, &theta_a).unwrap().unwrap();
        assert_eq!(m, -(9 - 1)); // b −(−8)→ a: a at most 8 before… tight.
    }

    #[test]
    fn witnesses_match_max_x_exactly() {
        let (run, c, a, bb) = fig1_run();
        let sigma_c = run.external_receipt_node(c, "go").unwrap();
        let theta_a = GeneralNode::chain(sigma_c, &[a]).unwrap();
        let theta_b = GeneralNode::chain(sigma_c, &[bb]).unwrap();
        let sigma = theta_b.resolve(&run).unwrap();
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        let (m, vz) = engine.witness(&theta_a, &theta_b).unwrap().unwrap();
        assert_eq!(m, 4);
        let report = vz.validate(&run).unwrap();
        assert_eq!(report.weight, m);
        assert_eq!(report.from, theta_a.resolve(&run).unwrap());
        assert_eq!(report.to, theta_b.resolve(&run).unwrap());
    }

    #[test]
    fn max_x_agrees_with_constructed_fast_run() {
        // The graph walk and the materialized Definition 24 run agree.
        for seed in 0..10 {
            let run = tri_run(seed, 50);
            let sigma = NodeId::new(ProcessId::new(1), 2);
            if !run.appears(sigma) {
                continue;
            }
            let engine = KnowledgeEngine::new(&run, sigma).unwrap();
            let past = run.past(sigma);
            let anchors: Vec<NodeId> = past.iter().filter(|n| !n.is_initial()).collect();
            for &a in &anchors {
                for &b in &anchors {
                    let (ta, tb) = (GeneralNode::basic(a), GeneralNode::basic(b));
                    let Some(m) = engine.max_x(&ta, &tb).unwrap() else {
                        continue;
                    };
                    let fr = engine.fast_run_of(&ta, 0, 30).unwrap();
                    validate_run(&fr.run, Strictness::Strict).unwrap();
                    let gap = fr.run.time(b).unwrap().diff(fr.run.time(a).unwrap());
                    assert_eq!(gap, m, "seed {seed}: walk vs fast run at {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn witnesses_validate_across_random_runs() {
        let mut validated = 0usize;
        for seed in 0..8 {
            let run = tri_run(seed, 60);
            let sigma = NodeId::new(ProcessId::new(2), 2);
            if !run.appears(sigma) {
                continue;
            }
            let engine = KnowledgeEngine::new(&run, sigma).unwrap();
            let past = run.past(sigma);
            let nodes: Vec<NodeId> = past.iter().filter(|n| !n.is_initial()).collect();
            for &a in &nodes {
                for &b in &nodes {
                    let (ta, tb) = (GeneralNode::basic(a), GeneralNode::basic(b));
                    let Some((m, vz)) = engine.witness(&ta, &tb).unwrap() else {
                        continue;
                    };
                    match vz.validate(&run) {
                        Ok(report) => {
                            assert_eq!(report.weight, m, "seed {seed} {a}->{b}");
                            validated += 1;
                        }
                        Err(CoreError::HorizonTooSmall { .. }) => {}
                        Err(e) => panic!("seed {seed} {a}->{b}: {e}"),
                    }
                }
            }
        }
        assert!(validated > 10, "only {validated} witnesses validated");
    }

    #[test]
    fn general_node_queries_and_chain_merging() {
        let run = tri_run(3, 60);
        let sigma = NodeId::new(ProcessId::new(1), 3);
        if !run.appears(sigma) {
            return;
        }
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        let i1 = run
            .external_receipt_node(ProcessId::new(0), "kick")
            .unwrap();
        if !run.past(sigma).contains(i1) {
            return;
        }
        let theta1 = GeneralNode::chain(i1, &[ProcessId::new(2)]).unwrap();
        // θ2 extends θ1's own chain: knowledge must reflect the shared
        // prefix (condition-2 merging), and the witness must validate.
        let theta2 = GeneralNode::chain(i1, &[ProcessId::new(2), ProcessId::new(1)]).unwrap();
        let m = engine.max_x(&theta1, &theta2).unwrap().unwrap();
        // θ2 is θ1 plus one hop k → j with bounds [1, 4]: at least L = 1
        // (exactly L unless the ψ frontier of j binds, which depends on
        // the sampled schedule), and never more than U = 4.
        assert!(
            (1..=4).contains(&m),
            "chain-extension threshold {m} outside [L, U]"
        );
        let (mw, vz) = engine.witness(&theta1, &theta2).unwrap().unwrap();
        assert_eq!(mw, m);
        match vz.validate(&run) {
            Ok(report) => assert_eq!(report.weight, m),
            Err(CoreError::HorizonTooSmall { .. }) => {}
            Err(e) => panic!("{e}"),
        }
    }

    #[test]
    fn refutations_are_legal_indistinguishable_counterexamples() {
        for seed in 0..6 {
            let run = tri_run(seed, 50);
            let sigma = NodeId::new(ProcessId::new(1), 2);
            if !run.appears(sigma) {
                continue;
            }
            let engine = KnowledgeEngine::new(&run, sigma).unwrap();
            let past = run.past(sigma);
            let nodes: Vec<NodeId> = past.iter().filter(|n| !n.is_initial()).collect();
            let mut refuted = 0;
            for &a in &nodes {
                for &b in &nodes {
                    let (ta, tb) = (GeneralNode::basic(a), GeneralNode::basic(b));
                    let m = engine.max_x(&ta, &tb).unwrap();
                    // Query one past the threshold (or an arbitrary x for
                    // the unreachable case).
                    let x = m.map_or(0, |m| m + 1);
                    let fr = engine
                        .refute(&ta, &tb, x)
                        .unwrap()
                        .expect("x above threshold must be refutable");
                    validate_run(&fr.run, Strictness::Strict).unwrap();
                    // Indistinguishable at σ: σ appears with its past intact.
                    assert!(fr.run.appears(sigma));
                    // The precedence fails in the refutation run.
                    assert!(
                        !satisfies(&fr.run, &ta, &tb, x).unwrap(),
                        "seed {seed}: refutation does not refute {a} --{x}--> {b}"
                    );
                    refuted += 1;
                    // And at or below the threshold, no refutation exists.
                    if let Some(m) = m {
                        assert!(engine.refute(&ta, &tb, m).unwrap().is_none());
                    }
                }
            }
            assert!(refuted > 0, "seed {seed}: nothing refuted");
        }
    }

    #[test]
    fn refutations_of_long_chains_extend_past_the_caller_cap() {
        // θ2's chain is 200 hops over [2, 5] channels on a horizon-12
        // run: the extension refute derives, U(p2) + U(p1) + 2 = 1002, is
        // past the cap a caller's `extra_horizon` gets, and refute still
        // builds the refutation run.
        let run = tri_run(0, 12);
        let (i, j) = (ProcessId::new(0), ProcessId::new(1));
        let sigma = run
            .nodes()
            .filter(|r| r.id().proc() == j)
            .last()
            .unwrap()
            .id();
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        let ta = GeneralNode::basic(NodeId::new(i, 1));
        let hops: Vec<ProcessId> = (0..200).map(|h| if h % 2 == 0 { i } else { j }).collect();
        let tb = GeneralNode::chain(sigma, &hops).unwrap();
        let x = engine.max_x(&ta, &tb).unwrap().expect("θ1 reaches σ") + 1;
        assert!(matches!(
            engine.fast_run_of(&ta, 0, 1002),
            Err(CoreError::ParameterOutOfRange {
                parameter: "extra_horizon",
                value: 1002
            })
        ));
        let fr = engine
            .refute(&ta, &tb, x)
            .unwrap()
            .expect("x is above max_x");
        validate_run(&fr.run, Strictness::Strict).unwrap();
        assert!(fr.run.appears(sigma));
        assert!(!satisfies(&fr.run, &ta, &tb, x).unwrap());
    }

    #[test]
    fn upper_bound_knowledge_through_receive_edges() {
        // Even with one-way channels, B's receipt of C's message bounds
        // A's action from below: a >= b − U_CB + L_CA. The engine reports
        // exactly that threshold.
        let (run, c, a, bb) = fig1_run();
        let sigma_c = run.external_receipt_node(c, "go").unwrap();
        let theta_a = GeneralNode::chain(sigma_c, &[a]).unwrap();
        let theta_b = GeneralNode::chain(sigma_c, &[bb]).unwrap();
        let sigma = theta_b.resolve(&run).unwrap();
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        let theta_sigma = GeneralNode::basic(sigma);
        // max_x = L_CA − U_CB = 1 − 9.
        assert_eq!(engine.max_x(&theta_sigma, &theta_a).unwrap(), Some(-8));
        let (m, vz) = engine.witness(&theta_sigma, &theta_a).unwrap().unwrap();
        assert_eq!(m, -8);
        let report = vz.validate(&run).unwrap();
        assert_eq!(report.weight, -8);
    }

    #[test]
    fn unreachable_nodes_are_never_known() {
        // C → B and D → B, with B hearing D strictly before C. From B's
        // later node there is no constraint path to σ_D: D's action could
        // have happened arbitrarily early, so B knows *no* lower bound on
        // time(σ_D) − time(σ) for any x.
        let mut b = Network::builder();
        let c = b.add_process("C");
        let d = b.add_process("D");
        let bb = b.add_process("B");
        b.add_channel(c, bb, 7, 9).unwrap();
        b.add_channel(d, bb, 2, 4).unwrap();
        let ctx = b.build().unwrap();
        let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(40)));
        sim.external(Time::new(2), c, "go");
        sim.external(Time::new(1), d, "kick");
        let run = sim.run(&mut Ffip::new(), &mut EagerScheduler).unwrap();
        let sigma_d = run.external_receipt_node(d, "kick").unwrap();
        let sigma_c = run.external_receipt_node(c, "go").unwrap();
        let sigma = GeneralNode::chain(sigma_c, &[bb])
            .unwrap()
            .resolve(&run)
            .unwrap();
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        let theta_sigma = GeneralNode::basic(sigma);
        let theta_d = GeneralNode::basic(sigma_d);
        assert!(run.past(sigma).contains(sigma_d), "B heard D");
        // σ_D is unreachable from σ in GE(r, σ): no knowledge for any x.
        assert_eq!(engine.max_x(&theta_sigma, &theta_d).unwrap(), None);
        assert!(engine.witness(&theta_sigma, &theta_d).unwrap().is_none());
        assert!(!engine.knows(&theta_sigma, &theta_d, -1000).unwrap());
        // …and every such claim is refutable with a concrete run.
        let fr = engine
            .refute(&theta_sigma, &theta_d, -1000)
            .unwrap()
            .unwrap();
        validate_run(&fr.run, Strictness::Strict).unwrap();
        assert!(!satisfies(&fr.run, &theta_sigma, &theta_d, -1000).unwrap());
        // No claim wraps at either end of i64: refuting at x = i64::MIN
        // needs a γ past any representable timing, and no gap reaches
        // i64::MAX.
        assert!(matches!(
            engine.refute(&theta_sigma, &theta_d, i64::MIN),
            Err(CoreError::ParameterOutOfRange {
                parameter: "gamma",
                ..
            })
        ));
        assert!(!satisfies(&run, &theta_d, &theta_sigma, i64::MAX).unwrap());
        assert!(satisfies(&run, &theta_sigma, &theta_d, i64::MIN).unwrap());
        // The reverse direction *is* known: σ_D precedes σ by ≥ L_DB + 1.
        assert_eq!(engine.max_x(&theta_d, &theta_sigma).unwrap(), Some(3));
    }

    #[test]
    fn rejects_unrecognized_and_initial_nodes() {
        let (run, c, a, bb) = fig1_run();
        let sigma_c = run.external_receipt_node(c, "go").unwrap();
        let theta_b = GeneralNode::chain(sigma_c, &[bb]).unwrap();
        let sigma = theta_b.resolve(&run).unwrap();
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        // A's node is not σ-recognized as a *base* (B never hears from A).
        let a1 = NodeId::new(a, 1);
        let theta_a1 = GeneralNode::basic(a1);
        assert!(matches!(
            engine.max_x(&theta_a1, &theta_b),
            Err(CoreError::NotRecognized { .. })
        ));
        // Initial nodes are excluded.
        let init = GeneralNode::basic(NodeId::initial(c));
        assert!(matches!(
            engine.max_x(&init, &theta_b),
            Err(CoreError::InitialNode { .. })
        ));
        let init_chain = GeneralNode::chain(NodeId::initial(c), &[a]).unwrap();
        assert!(matches!(
            engine.max_x(&init_chain, &theta_b),
            Err(CoreError::InitialNode { .. })
        ));
        // Unknown observer.
        assert!(KnowledgeEngine::new(&run, NodeId::new(bb, 9)).is_err());
    }

    #[test]
    fn warm_queries_match_cold_and_batch() {
        // Repeated queries on one engine (memoized lanes, canonical and
        // chain caches) must answer exactly like a fresh engine per query
        // — the seed behavior — and like the batched API.
        for seed in 0..4 {
            let run = tri_run(seed, 50);
            let sigma = NodeId::new(ProcessId::new(1), 2);
            if !run.appears(sigma) {
                continue;
            }
            let warm = KnowledgeEngine::new(&run, sigma).unwrap();
            let nodes: Vec<NodeId> = run.past(sigma).iter().filter(|n| !n.is_initial()).collect();
            let queries: Vec<(GeneralNode, GeneralNode)> = nodes
                .iter()
                .flat_map(|&a| nodes.iter().map(move |&b| (a.into(), b.into())))
                .collect();
            let batched = warm.max_x_batch(&queries).unwrap();
            for (k, (ta, tb)) in queries.iter().enumerate() {
                let cold = KnowledgeEngine::new(&run, sigma)
                    .unwrap()
                    .max_x(ta, tb)
                    .unwrap();
                // Twice on the warm engine: first touch fills the caches,
                // second is served from them.
                assert_eq!(warm.max_x(ta, tb).unwrap(), cold, "seed {seed} {ta}->{tb}");
                assert_eq!(
                    warm.max_x(ta, tb).unwrap(),
                    cold,
                    "seed {seed} {ta}->{tb} (warm)"
                );
                assert_eq!(batched[k], cold, "seed {seed} {ta}->{tb} (batch)");
            }
        }
    }

    #[test]
    fn dense_matrix_matches_pairwise_and_indexes() {
        let run = tri_run(2, 50);
        let sigma = NodeId::new(ProcessId::new(1), 2);
        if !run.appears(sigma) {
            return;
        }
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        let m = engine.max_x_basic_matrix().unwrap();
        assert!(!m.is_empty());
        assert_eq!(m.nodes().len(), m.len());
        assert!(
            m.nodes().windows(2).all(|w| w[0] < w[1]),
            "matrix nodes not in ascending order"
        );
        let mut cells = 0usize;
        for (a, b, v) in m.iter() {
            let pairwise = engine
                .max_x(&GeneralNode::basic(a), &GeneralNode::basic(b))
                .unwrap();
            assert_eq!(v, pairwise, "matrix disagrees with max_x at {a}->{b}");
            assert_eq!(m.get(a, b), Some(v));
            assert_eq!(m[(a, b)], v);
            let (i, j) = (m.index_of(a).unwrap(), m.index_of(b).unwrap());
            assert_eq!(m.at(i, j), v);
            cells += 1;
        }
        assert_eq!(cells, m.len() * m.len());
        // Nodes outside the matrix answer None, not panic.
        assert_eq!(m.get(NodeId::new(ProcessId::new(0), 99), sigma), None);
        assert_eq!(m.index_of(NodeId::new(ProcessId::new(0), 99)), None);
    }

    #[test]
    fn shared_ge_fast_run_matches_free_construction() {
        // The engine path (shared GE + cached canonicalization/timings)
        // must construct byte-for-byte the same extremal run as the free
        // function that rebuilds everything per call.
        use crate::construct::fast_run;
        for seed in 0..4 {
            let run = tri_run(seed, 50);
            let sigma = NodeId::new(ProcessId::new(1), 2);
            if !run.appears(sigma) {
                continue;
            }
            let engine = KnowledgeEngine::new(&run, sigma).unwrap();
            let anchors: Vec<NodeId> = run.past(sigma).iter().filter(|n| !n.is_initial()).collect();
            for &a in &anchors {
                for gamma in [0u64, 5] {
                    let theta = GeneralNode::basic(a);
                    // Twice through the engine: the second construction is
                    // served entirely from warm caches.
                    let warm1 = engine.fast_run_of(&theta, gamma, 20).unwrap();
                    let warm2 = engine.fast_run_of(&theta, gamma, 20).unwrap();
                    let free = fast_run(&run, sigma, &theta, gamma, 20).unwrap();
                    for fr in [&warm1, &warm2] {
                        assert_eq!(fr.sigma, free.sigma);
                        assert_eq!(fr.gamma, free.gamma);
                        assert_eq!(fr.theta_time, free.theta_time);
                        assert_eq!(fr.run.node_count(), free.run.node_count());
                        for rec in free.run.nodes() {
                            assert_eq!(
                                fr.run.time(rec.id()),
                                Some(rec.time()),
                                "seed {seed}: engine fast run diverged at {}",
                                rec.id()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn knowledge_is_monotone_in_x() {
        let run = tri_run(1, 50);
        let sigma = NodeId::new(ProcessId::new(0), 2);
        if !run.appears(sigma) {
            return;
        }
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        let past = run.past(sigma);
        let nodes: Vec<NodeId> = past.iter().filter(|n| !n.is_initial()).collect();
        for &a in &nodes {
            for &b in &nodes {
                let (ta, tb) = (GeneralNode::basic(a), GeneralNode::basic(b));
                if let Some(m) = engine.max_x(&ta, &tb).unwrap() {
                    for dx in [-3i64, -1, 0] {
                        assert!(engine.knows(&ta, &tb, m + dx).unwrap());
                    }
                    for dx in [1i64, 2, 10] {
                        assert!(!engine.knows(&ta, &tb, m + dx).unwrap());
                    }
                }
            }
        }
    }
}
