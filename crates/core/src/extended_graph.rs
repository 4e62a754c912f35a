//! The extended local bounds graph `GE(r, σ)` (paper Definition 16,
//! Figure 8).
//!
//! `GB(r, σ)` — the part of the bounds graph σ can see — misses timing
//! information that σ *does* have: a message sent inside `past(r, σ)` whose
//! delivery σ has not seen must be delivered **after** σ's boundary on the
//! receiving timeline, and within its upper bound. `GE(r, σ)` captures this
//! by adding one *auxiliary node* `ψ_i` per process — "the earliest
//! beyond-the-horizon delivery point on `i`'s timeline" — and three edge
//! families:
//!
//! * `E'`: `boundary_i --1--> ψ_i` (the unseen region starts strictly after
//!   the boundary);
//! * `E''`: `ψ_j --(−U_ij)--> σ_i` for every message sent at a past node
//!   `σ_i` to `j` and not received within the past;
//! * `E'''`: `ψ_i --(−U_ji)--> ψ_j` for every channel `(j, i)` — under
//!   FFIP, whatever is delivered beyond the horizon is immediately
//!   re-flooded.
//!
//! # Vertex layout
//!
//! `GE(r, σ)`'s vertex indices are fixed by arithmetic: the past nodes in
//! `(process, index)` order — `(p, k)` at `start(p) + k`, where
//! `start(p)` counts the past nodes of the processes before `p` — then
//! one `ψ_p` per process at `|past(r, σ)| + p`. That is the order of
//! [`Past::iter`] followed by the processes, and also the `Ord` of
//! [`ExtVertex`], so dense-index order is sorted vertex order.
//! [`GeView::index_of`] and the fast timing's lanes
//! ([`crate::timing::FastTiming`]) resolve vertices by the same
//! arithmetic.
//!
//! # A view over `GB(r)`
//!
//! `past(r, σ)` is downward closed on every timeline, so it is a
//! frontier: one prefix length per process, σ's vector clock
//! ([`Past`]). Definition 16's `GE(r, σ)` is `GB(r)` restricted to that
//! frontier plus the `ψ` vertices and their small edge families, so an
//! observer does not copy the graph. Its frontier holds the past,
//! the `n` values of the `ψ` clock (below) and an `E''` overlay: the
//! messages sent inside the frontier and not delivered inside it, less
//! σ's own under `ExcludeOwnSends`, read from the run's own message
//! records. A [`GeView`] pairs it with the
//! [`BoundsGraph`] it is cut from: the session's `GB(r)`, or a
//! standalone engine's `GB(r, σ)` (Definition 14). A distance traversal
//! over the view reads the graph's live rows, skips every edge that
//! leaves the frontier, and adds the overlay, the `E'` edges and the
//! `E'''` channel edges, which it reads from the network's sorted
//! adjacency and the context's bounds table. Its lanes come out in the
//! layout above.
//!
//! The view is append-stable: every edge a run adds after σ has a new
//! node as an endpoint, which lies outside the frontier, and a message
//! in the overlay stays undelivered inside it. So a view built on any
//! prefix containing σ reads the same graph on every extension (see
//! [`crate::incremental`]).
//!
//! # The run's clock
//!
//! By Lemma 8 the recorded times of a legal run are a valid timing of
//! its bounds graph, which checks them once per edge
//! ([`BoundsGraph::clock_holds`]). On the past nodes they are the
//! potential of the view's potential-reweighted Dijkstra
//! ([`crate::graph`]); each `ψ_p` gets the least value its `E′`/`E‴`
//! in-edges allow (a fixpoint over the `n` auxiliary vertices, settled
//! in decreasing order since every `E‴` weight is `−U ≤ 0`). The `E″`
//! upper bounds then hold whenever the run's FFIP deliveries respect
//! `[L, U]`: a message σ has not seen reaches its receiver `j` within
//! `U` of its send, and each FFIP re-flood from there reaches the next
//! process within that channel's `U`; each arrival lies after the
//! receiving process's boundary (or beyond the horizon), or σ would have
//! seen the message. The view checks the overlay in one scan when it is
//! built. A clock that fails anywhere — a hand-built run with a delivery
//! outside its channel bounds, say — leaves the view's traversals on the
//! same walk run label-correcting ([`GeView::has_potential`] tells
//! which).
//!
//! # Witness paths
//!
//! A witness path is the canonical maximum-weight path of
//! [`crate::graph`], read off the view's memoized distances by a hop pass
//! over its rows, so row order decides no served byte. [`ExtendedGraph`]
//! and the frontier graph of [`crate::construct`] materialize a closed
//! graph for drawings and constructions; a closed graph's paths
//! ([`ExtendedGraph::longest_path`]) follow the same rule over the same
//! vertex layout.

#![deny(clippy::cast_possible_wrap)]

use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};

use zigzag_bcm::run::Past;
use zigzag_bcm::{Context, NodeId, ProcessId, Run};

use crate::bounds_graph::{
    weights, BoundsGraph, NodeLayout, Slot, LABEL_RECV, LABEL_SEND, LABEL_SUCCESSOR,
};
use crate::error::CoreError;
use crate::fx::FxBuild;
use crate::graph::{canonical_path, CsrTopology, Direction, Distances, Edge, GraphWork, Rows};

/// Edge label: `E'` boundary-to-auxiliary edge (weight 1).
pub const LABEL_BOUNDARY: u32 = 3;
/// Edge label: `E''` auxiliary-to-sender edge for an unseen delivery
/// (weight `−U_ij`).
pub const LABEL_UNSEEN: u32 = 4;
/// Edge label: `E'''` auxiliary-to-auxiliary channel edge (weight `−U_ji`).
pub const LABEL_AUX_CHAN: u32 = 5;

/// A vertex of `GE(r, σ)`: an original past node or an auxiliary node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExtVertex {
    /// An original basic node from `past(r, σ)`.
    Node(NodeId),
    /// The auxiliary node `ψ_i` of process `i`.
    Aux(ProcessId),
}

impl ExtVertex {
    /// The original node, if any.
    pub fn node(self) -> Option<NodeId> {
        match self {
            ExtVertex::Node(n) => Some(n),
            ExtVertex::Aux(_) => None,
        }
    }

    /// The auxiliary node's process, if any.
    pub fn aux(self) -> Option<ProcessId> {
        match self {
            ExtVertex::Aux(p) => Some(p),
            ExtVertex::Node(_) => None,
        }
    }

    /// The process whose timeline the vertex constrains.
    pub fn proc(self) -> ProcessId {
        match self {
            ExtVertex::Node(n) => n.proc(),
            ExtVertex::Aux(p) => p,
        }
    }
}

impl fmt::Display for ExtVertex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtVertex::Node(n) => write!(f, "{n}"),
            ExtVertex::Aux(p) => write!(f, "ψ({p})"),
        }
    }
}

impl NodeLayout {
    /// The dense index of `v` in a graph closed by auxiliary vertices: a
    /// node by the layout, `ψ_p` at `nodes() + p`.
    pub(crate) fn ext_index(&self, v: ExtVertex) -> Option<usize> {
        match v {
            ExtVertex::Node(n) => self.index(n),
            ExtVertex::Aux(p) => (p.index() < self.procs()).then(|| self.nodes() + p.index()),
        }
    }

    /// The vertex at dense index `i` of a graph closed by auxiliary
    /// vertices (the inverse of [`NodeLayout::ext_index`]).
    pub(crate) fn ext_vertex(&self, i: usize) -> ExtVertex {
        match i.checked_sub(self.nodes()) {
            Some(p) => ExtVertex::Aux(ProcessId::new(p as u32)),
            None => ExtVertex::Node(self.node(i)),
        }
    }
}

/// The edges of a [`ClosedGraph`] over `layout`, in its row order: per
/// process its successor edges, then its `E'` edge; per message its `±`
/// pair or its `E''` edge; then the `E'''` edges. A message sent at
/// `exclude_src` contributes no edge.
fn closed_edges(run: &Run, layout: &NodeLayout, exclude_src: Option<NodeId>) -> Vec<Edge> {
    let (net, bounds) = (run.context().network(), run.context().bounds());
    let n = net.len();
    let psi = |p: ProcessId| layout.nodes() + p.index();
    let mut edges = Vec::with_capacity(
        layout.nodes() + 2 * n + net.channels().len() + 2 * run.messages().len(),
    );
    let mut push = |from, to, weight, label| edges.push(Edge::new(from, to, weight, label));
    for p in net.processes() {
        let range = layout.range(p.index());
        if range.is_empty() {
            continue;
        }
        for i in range.start + 1..range.end {
            push(i - 1, i, 1, LABEL_SUCCESSOR);
        }
        push(range.end - 1, psi(p), 1, LABEL_BOUNDARY);
    }
    for m in run.messages() {
        let Some(si) = layout.index(m.src()) else {
            continue;
        };
        if Some(m.src()) == exclude_src {
            continue;
        }
        let c = m.channel();
        let (lower, upper) = weights(bounds, c.from, c.to);
        match m.delivery().and_then(|d| layout.index(d.node)) {
            Some(di) => {
                push(si, di, lower, LABEL_SEND);
                push(di, si, -upper, LABEL_RECV);
            }
            None => push(psi(c.to), si, -upper, LABEL_UNSEEN),
        }
    }
    for (ch, _) in bounds.iter() {
        let upper = weights(bounds, ch.from, ch.to).1;
        push(psi(ch.to), psi(ch.from), -upper, LABEL_AUX_CHAN);
    }
    edges
}

/// `(j, U_jp)` for every channel `j → p`, in `j` order: the `E'''` edges
/// out of `ψ_p`.
fn channels_into(context: &Context, p: usize) -> impl Iterator<Item = (usize, i64)> + '_ {
    let p = ProcessId::new(p as u32);
    let ends = context.network().in_neighbors(p).iter();
    ends.map(move |&j| (j.index(), weights(context.bounds(), j, p).1))
}

/// `(i, U_pi)` for every channel `p → i`, in `i` order: the `E'''` edges
/// into `ψ_p`.
fn channels_out_of(context: &Context, p: usize) -> impl Iterator<Item = (usize, i64)> + '_ {
    let p = ProcessId::new(p as u32);
    let ends = context.network().out_neighbors(p).iter();
    ends.map(move |&i| (i.index(), weights(context.bounds(), p, i).1))
}

/// One `E''` edge of a frontier's overlay, `ψ_to --weight--> src`: the
/// unseen delivery of a message sent at view index `src`.
#[derive(Debug, Clone, Copy)]
struct Unseen {
    src: u32,
    to: u32,
    weight: i64,
}

/// The observer-scoped part of `GE(r, σ)` as a view over a bounds graph
/// (see the [module docs](self)): the frontier `past(r, σ)`, the `ψ`
/// clock, the `E''` overlay, and the view's distance results. Its size
/// is O(|past| + n + |E''|), plus the memoized lanes.
#[derive(Debug)]
pub(crate) struct GeFrontier {
    past: Past,
    layout: NodeLayout,
    /// The bounds-graph index of each past node, by view index.
    nodes: Vec<u32>,
    /// The `ψ` clock, one value per process.
    psi: Vec<i64>,
    /// The `E''` overlay, in sender order.
    unseen: Vec<Unseen>,
    /// `by_psi[psi_at[p]..psi_at[p + 1]]` are the overlay positions of
    /// the `E''` edges leaving `ψ_p`.
    psi_at: Vec<u32>,
    by_psi: Vec<u32>,
    /// Whether traversals run Dijkstra under the clock.
    dijkstra: bool,
    /// Distance results keyed by `(source, direction)`.
    dists: Mutex<HashMap<(u32, Direction), Arc<Distances>, FxBuild>>,
}

impl GeFrontier {
    /// Cuts `GE(r, σ)` at `past` = `past(r, σ)` out of `gb`, a bounds
    /// graph of `run` (or of a prefix of it) that holds every past node,
    /// reading the sends in the past from `run`'s message records. A
    /// message sent at `exclude_src` contributes no edge. Reads `gb`'s
    /// clock, never its rows.
    pub(crate) fn new(
        run: &Run,
        gb: &BoundsGraph,
        past: Past,
        exclude_src: Option<NodeId>,
    ) -> Self {
        const UNSET: i64 = i64::MIN;
        let context = run.context();
        let n = context.network().len();
        let layout = NodeLayout::of_past(&past, n);
        let mut nodes = Vec::with_capacity(layout.nodes());
        for p in 0..n {
            nodes.extend_from_slice(&gb.timeline(p)[..layout.range(p).len()]);
        }
        let boundary = |p: usize| {
            let range = layout.range(p);
            (!range.is_empty()).then(|| nodes[range.end - 1] as usize)
        };

        let mut unseen = Vec::new();
        for p in 0..n {
            let range = layout.range(p);
            let timeline = &run.timeline(ProcessId::new(p as u32))[..range.len()];
            for (k, rec) in timeline.iter().enumerate() {
                if Some(rec.id()) == exclude_src {
                    continue;
                }
                for &m in rec.sent() {
                    let m = run.message(m);
                    if m.delivery().is_some_and(|d| past.contains(d.node)) {
                        continue;
                    }
                    let c = m.channel();
                    unseen.push(Unseen {
                        src: (range.start + k) as u32,
                        to: c.to.index() as u32,
                        weight: -weights(context.bounds(), c.from, c.to).1,
                    });
                }
            }
        }
        // Group the overlay by receiving process: count, sum, then place
        // back to front so each group keeps sender order.
        let mut psi_at = vec![0u32; n + 1];
        for e in &unseen {
            psi_at[e.to as usize] += 1;
        }
        for p in 1..=n {
            psi_at[p] += psi_at[p - 1];
        }
        let mut by_psi = vec![0u32; unseen.len()];
        for (i, e) in unseen.iter().enumerate().rev() {
            psi_at[e.to as usize] -= 1;
            by_psi[psi_at[e.to as usize] as usize] = i as u32;
        }

        // The ψ clock: one past each boundary, then settled in decreasing
        // order along the E''' edges `ψ_v --(−U)--> ψ_j` of the channels
        // `j → v`. A ψ with neither kind of in-edge gets the least value of
        // the clock, which its out-edges (weights −U ≤ 0) allow too.
        let mut psi: Vec<i64> = (0..n)
            .map(|p| boundary(p).map_or(UNSET, |b| gb.clock(b).saturating_add(1)))
            .collect();
        let mut queue: BinaryHeap<(i64, usize)> = (0..n)
            .filter(|&v| psi[v] != UNSET)
            .map(|v| (psi[v], v))
            .collect();
        while let Some((t, v)) = queue.pop() {
            if t != psi[v] {
                continue; // superseded by a later raise
            }
            for (j, upper) in channels_into(context, v) {
                let raised = t.saturating_sub(upper);
                if raised > psi[j] {
                    psi[j] = raised;
                    queue.push((raised, j));
                }
            }
        }
        let firsts = (0..n).filter(|&p| boundary(p).is_some());
        let least = firsts
            .map(|p| gb.clock(nodes[layout.range(p).start] as usize))
            .chain(psi.iter().copied().filter(|&t| t != UNSET))
            .min()
            .unwrap_or(0);
        for t in psi.iter_mut().filter(|t| **t == UNSET) {
            *t = least;
        }

        // The clock over the overlay, E' and E''': every slack
        // `π(head) − π(tail) − w` must be non-negative, and the largest
        // (with GB's own) must keep every Dijkstra key below `u64::MAX`.
        let mut feasible = gb.clock_holds();
        let mut max_slack = gb.max_slack();
        let mut note = |head: i64, tail: i64, weight: i64| match head
            .checked_sub(tail)
            .and_then(|d| d.checked_sub(weight))
        {
            Some(s) if s >= 0 => max_slack = max_slack.max(s as u64),
            _ => feasible = false,
        };
        for p in 0..n {
            if let Some(b) = boundary(p) {
                note(psi[p], gb.clock(b), 1);
            }
            for (j, upper) in channels_into(context, p) {
                note(psi[j], psi[p], -upper);
            }
        }
        for e in &unseen {
            note(
                gb.clock(nodes[e.src as usize] as usize),
                psi[e.to as usize],
                e.weight,
            );
        }
        let vertices = layout.nodes() + n;
        let dijkstra =
            feasible && u128::from(max_slack) * (vertices as u128) < u128::from(u64::MAX);
        GeFrontier {
            past,
            layout,
            nodes,
            psi,
            unseen,
            psi_at,
            by_psi,
            dijkstra,
            dists: Mutex::new(HashMap::default()),
        }
    }
}

/// `GE(r, σ)` read through the bounds graph it is cut from: an
/// observer's frontier paired with the session's `GB(r)` or a standalone
/// engine's `GB(r, σ)` (see the [module docs](self)). Obtained from
/// [`crate::knowledge::KnowledgeEngine::ge`]; cheap to copy.
#[derive(Debug, Clone, Copy)]
pub struct GeView<'a> {
    gb: &'a BoundsGraph,
    frontier: &'a GeFrontier,
}

impl<'a> GeView<'a> {
    /// Pairs `frontier` with the graph it was cut from.
    pub(crate) fn new(gb: &'a BoundsGraph, frontier: &'a GeFrontier) -> Self {
        GeView { gb, frontier }
    }

    /// The observer node `σ`.
    pub fn observer(&self) -> NodeId {
        self.frontier.past.of()
    }

    /// The causal past the view was cut at.
    pub fn past(&self) -> &'a Past {
        &self.frontier.past
    }

    /// Number of vertices: the past nodes and one `ψ` per process.
    pub fn vertex_count(&self) -> usize {
        self.frontier.layout.nodes() + self.frontier.layout.procs()
    }

    /// Dense index of a vertex, if present: index arithmetic over the
    /// vertex layout (see the [module docs](self)).
    pub fn index_of(&self, v: ExtVertex) -> Option<usize> {
        self.frontier.layout.ext_index(v)
    }

    /// The vertex at dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`GeView::vertex_count`].
    pub fn vertex(&self, i: usize) -> ExtVertex {
        assert!(i < self.vertex_count(), "vertex index {i} out of range");
        self.frontier.layout.ext_vertex(i)
    }

    /// Whether the view's distance traversals run Dijkstra under the
    /// run's clock, rather than the label-correcting walk (see the
    /// [module docs](self)).
    pub fn has_potential(&self) -> bool {
        self.frontier.dijkstra
    }

    /// The traversal work done on the bounds graph's rows, by this view
    /// and every other view over the same graph.
    pub fn work(&self) -> GraphWork {
        self.gb.graph().work()
    }

    /// Every edge of `GE(r, σ)`, in dense indices, out-row by out-row.
    pub fn edges(&self) -> Vec<Edge> {
        let (walk, mut edges) = (self.walk(), Vec::new());
        for v in 0..self.vertex_count() {
            walk.scan(v, Direction::Forward, |w, weight, _, label| {
                edges.push(Edge::new(v, w, weight, label));
            });
        }
        edges
    }

    /// Longest-path weights from `v` to every vertex, memoized per
    /// source (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// Fails if `v` is not a vertex, or on a positive cycle (impossible
    /// for graphs of legal runs).
    pub fn distances_from(&self, v: ExtVertex) -> Result<Arc<Distances>, CoreError> {
        self.distances(v, Direction::Forward)
    }

    /// Longest-path weights from every vertex to `v`; see
    /// [`GeView::distances_from`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`GeView::distances_from`].
    pub fn distances_to(&self, v: ExtVertex) -> Result<Arc<Distances>, CoreError> {
        self.distances(v, Direction::Backward)
    }

    fn distances(&self, v: ExtVertex, dir: Direction) -> Result<Arc<Distances>, CoreError> {
        let src = self.index_of(v).ok_or_else(|| CoreError::InvalidTiming {
            detail: format!("distance root {v} is not a vertex of GE(r, σ)"),
        })?;
        let key = (src as u32, dir);
        let memo = &self.frontier.dists;
        if let Some(hit) = memo.lock().expect("distance memo lock").get(&key) {
            return Ok(hit.clone());
        }
        let dist =
            self.gb
                .graph()
                .distances_over(&self.walk(), src, dir, self.frontier.dijkstra)?;
        let dist = Arc::new(dist);
        memo.lock()
            .expect("distance memo lock")
            .insert(key, dist.clone());
        Ok(dist)
    }

    /// The vertex layout the dense indices follow.
    pub(crate) fn layout(&self) -> &'a NodeLayout {
        &self.frontier.layout
    }

    /// One walk over the view's rows.
    pub(crate) fn walk(&self) -> Walk<'a> {
        let mut slots = self.gb.take_slots();
        for (v, &g) in self.frontier.nodes.iter().enumerate() {
            let pi = self.gb.clock(g as usize);
            slots[g as usize] = Slot { view: v as u32, pi };
        }
        Walk {
            gb: self.gb,
            frontier: self.frontier,
            slots,
        }
    }
}

/// A bounds graph closed by one auxiliary vertex per process and the
/// `E'`/`E''`/`E'''` edge families, materialized once in its bulk build's
/// row order as CSR lanes: `GE(r, σ)` over the nodes of `past(r, σ)` (an
/// [`ExtendedGraph`]) and the horizon-closed
/// [`crate::construct::FrontierGraph`] over every recorded node.
#[derive(Debug, Clone)]
pub(crate) struct ClosedGraph {
    layout: NodeLayout,
    csr: CsrTopology,
}

impl ClosedGraph {
    /// The closed graph over `layout`'s nodes of `run` and one `ψ` per
    /// process. A message sent at `exclude_src` contributes no edge.
    pub(crate) fn build(run: &Run, layout: NodeLayout, exclude_src: Option<NodeId>) -> Self {
        let edges = closed_edges(run, &layout, exclude_src);
        let n = layout.nodes() + layout.procs();
        ClosedGraph {
            csr: CsrTopology::from_edges(n, &edges)
                .expect("a closed graph fits the u32 index space"),
            layout,
        }
    }

    /// Number of vertices: the nodes and one `ψ` per process.
    pub(crate) fn vertex_count(&self) -> usize {
        self.layout.nodes() + self.layout.procs()
    }

    /// Dense index of a vertex, if present.
    pub(crate) fn index_of(&self, v: ExtVertex) -> Option<usize> {
        self.layout.ext_index(v)
    }

    /// The vertex at dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`ClosedGraph::vertex_count`].
    pub(crate) fn vertex(&self, i: usize) -> ExtVertex {
        assert!(i < self.vertex_count(), "vertex index {i} out of range");
        self.layout.ext_vertex(i)
    }

    /// The dense index of `v`, or an error naming it.
    fn root(&self, v: ExtVertex) -> Result<usize, CoreError> {
        self.index_of(v).ok_or_else(|| CoreError::InvalidTiming {
            detail: format!("root {v} is not a vertex of the closed graph"),
        })
    }

    /// Longest-path weights from (or, backward, to) `v`: a fresh
    /// traversal.
    ///
    /// # Errors
    ///
    /// Fails if `v` is not a vertex, or on a positive cycle.
    pub(crate) fn longest(&self, v: ExtVertex, dir: Direction) -> Result<Distances, CoreError> {
        self.csr.distances(self.root(v)?, dir)
    }
}

/// One walk over a [`GeView`]'s rows (see [`GeView::walk`]): what its
/// distance traversals, witness paths and the Lemma 17 check read.
pub(crate) struct Walk<'a> {
    gb: &'a BoundsGraph,
    frontier: &'a GeFrontier,
    /// Each bounds-graph vertex's view index and potential, or
    /// [`Slot::OUTSIDE`] past the frontier.
    slots: Vec<Slot>,
}

impl Drop for Walk<'_> {
    fn drop(&mut self) {
        for &g in &self.frontier.nodes {
            self.slots[g as usize] = Slot::OUTSIDE;
        }
        self.gb.put_slots(std::mem::take(&mut self.slots));
    }
}

impl Walk<'_> {
    /// The dense index, in the bounds graph, of past node `v`.
    fn gb_index(&self, v: usize) -> usize {
        self.frontier.nodes[v] as usize
    }
}

impl Rows for Walk<'_> {
    fn vertex_count(&self) -> usize {
        self.frontier.layout.nodes() + self.frontier.layout.procs()
    }

    fn potential(&self, v: usize) -> i64 {
        match v.checked_sub(self.frontier.layout.nodes()) {
            Some(p) => self.frontier.psi[p],
            None => self.gb.clock(self.gb_index(v)),
        }
    }

    /// The bounds graph's row cut at the frontier, then the overlay, `E'`
    /// and `E'''` edges at `v`.
    #[inline(always)]
    fn scan(&self, v: usize, dir: Direction, mut f: impl FnMut(usize, i64, i64, u32)) {
        let fr = self.frontier;
        let nodes = fr.layout.nodes();
        if v < nodes {
            let graph = self.gb.graph();
            let g = self.gb_index(v);
            let edges = match dir {
                Direction::Forward => graph.edges_from(g),
                Direction::Backward => graph.edges_to(g),
            };
            for e in edges {
                let other = match dir {
                    Direction::Forward => e.to,
                    Direction::Backward => e.from,
                };
                let slot = self.slots[other];
                if slot.view != Slot::OUTSIDE.view {
                    f(slot.view as usize, e.weight, slot.pi, e.label);
                }
            }
            match dir {
                Direction::Forward => {
                    let p = graph.vertex(g).proc().index();
                    if v + 1 == fr.layout.range(p).end {
                        f(nodes + p, 1, fr.psi[p], LABEL_BOUNDARY);
                    }
                }
                Direction::Backward => {
                    let first = fr.unseen.partition_point(|e| (e.src as usize) < v);
                    for e in fr.unseen[first..]
                        .iter()
                        .take_while(|e| e.src as usize == v)
                    {
                        let to = e.to as usize;
                        f(nodes + to, e.weight, fr.psi[to], LABEL_UNSEEN);
                    }
                }
            }
            return;
        }
        let p = v - nodes;
        match dir {
            Direction::Forward => {
                for &i in &fr.by_psi[fr.psi_at[p] as usize..fr.psi_at[p + 1] as usize] {
                    let e = fr.unseen[i as usize];
                    let src = e.src as usize;
                    f(
                        src,
                        e.weight,
                        self.gb.clock(self.gb_index(src)),
                        LABEL_UNSEEN,
                    );
                }
                // E''' out of ψ_p: one per channel j → p.
                for (j, upper) in channels_into(self.gb.context(), p) {
                    f(nodes + j, -upper, fr.psi[j], LABEL_AUX_CHAN);
                }
            }
            Direction::Backward => {
                let range = fr.layout.range(p);
                if !range.is_empty() {
                    let b = range.end - 1;
                    f(b, 1, self.gb.clock(self.gb_index(b)), LABEL_BOUNDARY);
                }
                // E''' into ψ_p: one per channel p → i.
                for (i, upper) in channels_out_of(self.gb.context(), p) {
                    f(nodes + i, -upper, fr.psi[i], LABEL_AUX_CHAN);
                }
            }
        }
    }
}

/// The extended local bounds graph `GE(r, σ)`, materialized: the bulk
/// build that drawings read. Distances come from a [`GeView`], and
/// witness paths from its distances (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct ExtendedGraph {
    observer: NodeId,
    past: Past,
    graph: ClosedGraph,
}

impl ExtendedGraph {
    /// Builds `GE(r, σ)` for the observer node `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` does not appear in `run`.
    pub fn new(run: &Run, sigma: NodeId) -> Self {
        Self::with_exclusion(run, sigma, None)
    }

    /// [`ExtendedGraph::new`], skipping every message sent at
    /// `exclude_src`. Passing `Some(σ)` builds the graph a strategy
    /// probed mid-simulation sees — the node exists but its own FFIP
    /// sends are not yet recorded, so their unseen-delivery `E''` edges
    /// are absent (the `ExcludeOwnSends` probe semantics of
    /// `zigzag_coord::stream`).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` does not appear in `run`.
    pub fn with_exclusion(run: &Run, sigma: NodeId, exclude_src: Option<NodeId>) -> Self {
        let past = run.past(sigma);
        let layout = NodeLayout::of_past(&past, run.context().network().len());
        ExtendedGraph {
            observer: sigma,
            past,
            graph: ClosedGraph::build(run, layout, exclude_src),
        }
    }

    /// The observer node `σ`.
    pub fn observer(&self) -> NodeId {
        self.observer
    }

    /// The causal past the graph was built from.
    pub fn past(&self) -> &Past {
        &self.past
    }

    /// Number of vertices: the past nodes and one `ψ` per process.
    pub fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.graph.csr.edge_count()
    }

    /// The vertex at dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`ExtendedGraph::vertex_count`].
    pub fn vertex(&self, i: usize) -> ExtVertex {
        self.graph.vertex(i)
    }

    /// Dense index of a vertex, if present: index arithmetic over the
    /// vertex layout (see the [module docs](self)), no interning lookup.
    pub fn index_of(&self, v: ExtVertex) -> Option<usize> {
        self.graph.index_of(v)
    }

    /// Outgoing edges of vertex index `i`, in row order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn edges_from(&self, i: usize) -> impl Iterator<Item = Edge> + '_ {
        self.graph.csr.row_edges(i, Direction::Forward)
    }

    /// Incoming edges of vertex index `i`, in row order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn edges_to(&self, i: usize) -> impl Iterator<Item = Edge> + '_ {
        self.graph.csr.row_edges(i, Direction::Backward)
    }

    /// Longest-path weights from `v` to every vertex.
    ///
    /// # Errors
    ///
    /// Fails if `v` is not a vertex, or on a positive cycle.
    pub fn longest_from(&self, v: ExtVertex) -> Result<Distances, CoreError> {
        self.graph.longest(v, Direction::Forward)
    }

    /// Longest-path weights from every vertex to `v`.
    ///
    /// # Errors
    ///
    /// Fails if `v` is not a vertex, or on a positive cycle.
    pub fn longest_to(&self, v: ExtVertex) -> Result<Distances, CoreError> {
        self.graph.longest(v, Direction::Backward)
    }

    /// The longest path from `from` to `to`, as `(weight, edges)` in
    /// dense indices; `Ok(None)` if no path exists. The path is the
    /// canonical one a witness reads off a view (see the
    /// [module docs](self)).
    ///
    /// # Errors
    ///
    /// Fails if either endpoint is not a vertex, or on a positive cycle.
    pub fn longest_path(
        &self,
        from: ExtVertex,
        to: ExtVertex,
    ) -> Result<Option<(i64, Vec<Edge>)>, CoreError> {
        let (s, t) = (self.graph.root(from)?, self.graph.root(to)?);
        let csr = &self.graph.csr;
        let dist = csr.distances(s, Direction::Forward)?;
        Ok(dist.weight(t).zip(canonical_path(csr, &dist, s, t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zigzag_bcm::protocols::Ffip;
    use zigzag_bcm::scheduler::RandomScheduler;
    use zigzag_bcm::{Network, SimConfig, Simulator, Time};

    fn tri_run(seed: u64) -> Run {
        let mut b = Network::builder();
        let i = b.add_process("i");
        let j = b.add_process("j");
        let k = b.add_process("k");
        b.add_bidirectional(i, j, 2, 5).unwrap();
        b.add_bidirectional(j, k, 1, 4).unwrap();
        b.add_bidirectional(i, k, 3, 7).unwrap();
        let ctx = b.build().unwrap();
        let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(50)));
        sim.external(Time::new(1), i, "kick");
        sim.run(&mut Ffip::new(), &mut RandomScheduler::seeded(seed))
            .unwrap()
    }

    #[test]
    fn structure_matches_definition_16() {
        let run = tri_run(0);
        let j1 = NodeId::new(ProcessId::new(1), 1);
        let ge = ExtendedGraph::new(&run, j1);
        let past = ge.past();
        // Aux vertices exist for all 3 processes.
        for p in run.context().network().processes() {
            assert!(ge.index_of(ExtVertex::Aux(p)).is_some());
        }
        // E' edges: one per process with a boundary node.
        let mut e_prime = 0;
        let mut e_unseen = 0;
        let mut e_aux = 0;
        for vi in 0..ge.vertex_count() {
            for e in ge.edges_from(vi) {
                match e.label {
                    LABEL_BOUNDARY => {
                        e_prime += 1;
                        assert_eq!(e.weight, 1);
                        // from boundary node to its own aux.
                        let from = ge.vertex(e.from);
                        let to = ge.vertex(e.to);
                        assert_eq!(Some(past.boundary(to.proc()).unwrap()), from.node());
                    }
                    LABEL_UNSEEN => {
                        e_unseen += 1;
                        assert!(e.weight < 0);
                        assert!(ge.vertex(e.from).aux().is_some());
                        assert!(ge.vertex(e.to).node().is_some());
                    }
                    LABEL_AUX_CHAN => {
                        e_aux += 1;
                        assert!(ge.vertex(e.from).aux().is_some());
                        assert!(ge.vertex(e.to).aux().is_some());
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(e_prime, past.boundaries().count());
        // i#1 flooded to j and k; j's receipt is in past, k's may not be.
        assert!(e_unseen >= 1);
        assert_eq!(e_aux, run.context().network().channels().len());
        assert_eq!(ge.observer(), j1);
    }

    #[test]
    fn section_5_1_unseen_delivery_constraint() {
        // §5.1 example: σ_i sends to j, delivery unseen by σ. Then
        // GE contains a path from ψ_j (hence from σ's boundary on j... )
        // giving σ_j --(1 − U_ij)--> σ_i knowledge. We verify the edge
        // composition: boundary_j --1--> ψ_j --(−U_ij)--> σ_i.
        let run = tri_run(1);
        // Observer: i's second node (after hearing back from someone).
        let i = ProcessId::new(0);
        let sigma = NodeId::new(i, 2);
        if !run.appears(sigma) {
            return; // schedule did not produce it; other seeds cover
        }
        let ge = ExtendedGraph::new(&run, sigma);
        // Find any E'' edge and check a path from the receiving process's
        // boundary to the sender exists with weight 1 − U.
        let mut checked = false;
        for vi in 0..ge.vertex_count() {
            for e in ge.edges_from(vi) {
                if e.label != LABEL_UNSEEN {
                    continue;
                }
                let psi = ge.vertex(e.from);
                let sender = ge.vertex(e.to);
                let Some(boundary) = ge.past().boundary(psi.proc()) else {
                    continue;
                };
                let lp = ge.longest_from(ExtVertex::Node(boundary)).unwrap();
                let w = lp.weight(ge.index_of(sender).unwrap()).unwrap();
                // At least the two-edge path boundary -> ψ -> sender.
                assert!(w > e.weight);
                checked = true;
            }
        }
        let _ = checked;
    }

    #[test]
    fn every_past_node_reaches_observer() {
        // Needed by the fast timing: f(·) is defined for all past nodes.
        for seed in 0..5 {
            let run = tri_run(seed);
            let j1 = NodeId::new(ProcessId::new(1), 1);
            let ge = ExtendedGraph::new(&run, j1);
            let lp = ge.longest_to(ExtVertex::Node(j1)).unwrap();
            for n in ge.past().iter() {
                assert!(
                    lp.reaches(ge.index_of(ExtVertex::Node(n)).unwrap()),
                    "past node {n} has no path to observer"
                );
            }
        }
    }

    #[test]
    fn ext_vertex_accessors() {
        let n = ExtVertex::Node(NodeId::new(ProcessId::new(1), 2));
        let a = ExtVertex::Aux(ProcessId::new(0));
        assert_eq!(n.node(), Some(NodeId::new(ProcessId::new(1), 2)));
        assert_eq!(n.aux(), None);
        assert_eq!(a.aux(), Some(ProcessId::new(0)));
        assert_eq!(a.node(), None);
        assert_eq!(n.proc(), ProcessId::new(1));
        assert_eq!(a.proc(), ProcessId::new(0));
        assert_eq!(a.to_string(), "ψ(p0)");
        assert!(n.to_string().contains("p1#2"));
    }

    #[test]
    fn views_equal_the_materialized_graph_and_run_on_the_clock() {
        // Figure 1's C → A, C → B: at C's first node, A and B are outside
        // the past and have no outgoing channels, so ψ_A and ψ_B have no
        // in-edges at all and take the clock's least value.
        let mut b = Network::builder();
        let c = b.add_process("C");
        let a = b.add_process("A");
        let bb = b.add_process("B");
        b.add_channel(c, a, 1, 3).unwrap();
        b.add_channel(c, bb, 7, 9).unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SimConfig::with_horizon(Time::new(30)));
        sim.external(Time::new(2), c, "go");
        let fig1 = sim
            .run(&mut Ffip::new(), &mut RandomScheduler::seeded(3))
            .unwrap();
        let runs = (0..4).map(tri_run).chain([fig1]);
        for run in runs {
            // Append-order rows, bulk-order rows, and the local graph.
            let stream = crate::incremental::IncrementalEngine::ingest(&run).unwrap();
            let batch = BoundsGraph::of_run(&run);
            let nodes: Vec<NodeId> = run.nodes().map(|r| r.id()).collect();
            let firsts = nodes.iter().filter(|n| n.index() == 1).copied();
            for sigma in firsts.chain(nodes.last().copied()) {
                let local = BoundsGraph::local(&run, &run.past(sigma));
                for exclude in [None, Some(sigma)] {
                    let ge = ExtendedGraph::with_exclusion(&run, sigma, exclude);
                    let mut want: Vec<(usize, usize, i64, u32)> = (0..ge.vertex_count())
                        .flat_map(|v| ge.edges_from(v))
                        .map(|e| (e.from, e.to, e.weight, e.label))
                        .collect();
                    want.sort_unstable();
                    let root = ExtVertex::Node(sigma);
                    let spfa = ge.longest_to(root).unwrap();
                    for gb in [stream.bounds_graph(), &batch, &local] {
                        let frontier = GeFrontier::new(&run, gb, run.past(sigma), exclude);
                        let view = GeView::new(gb, &frontier);
                        assert!(view.has_potential(), "clock rejected at {sigma}");
                        let mut got: Vec<(usize, usize, i64, u32)> = view
                            .edges()
                            .into_iter()
                            .map(|e| (e.from, e.to, e.weight, e.label))
                            .collect();
                        got.sort_unstable();
                        assert_eq!(got, want, "edges of the view at {sigma}");
                        let dist = view.distances_to(root).unwrap();
                        for i in 0..view.vertex_count() {
                            assert_eq!(dist.weight(i), spfa.weight(i));
                        }
                    }
                }
            }
        }
    }

    /// Asserts that the views of `GE(r, σ)` over `GB(r)` and `GB(r, σ)`
    /// take Dijkstra iff `dijkstra`, and that both match SPFA over the
    /// materialized graph from and to σ.
    fn assert_views_match_spfa(run: &Run, sigma: NodeId, dijkstra: bool) {
        let ge = ExtendedGraph::new(run, sigma);
        let root = ExtVertex::Node(sigma);
        let (from, to) = (ge.longest_from(root).unwrap(), ge.longest_to(root).unwrap());
        let local = BoundsGraph::local(run, &run.past(sigma));
        for gb in [&BoundsGraph::of_run(run), &local] {
            let frontier = GeFrontier::new(run, gb, run.past(sigma), None);
            let view = GeView::new(gb, &frontier);
            assert_eq!(view.has_potential(), dijkstra, "traversal at {sigma}");
            let (d_from, d_to) = (
                view.distances_from(root).unwrap(),
                view.distances_to(root).unwrap(),
            );
            for i in 0..view.vertex_count() {
                assert_eq!(d_from.weight(i), from.weight(i), "from {sigma} to {i}");
                assert_eq!(d_to.weight(i), to.weight(i), "from {i} to {sigma}");
            }
            let work = view.work();
            let ran = if dijkstra { work.dijkstra } else { work.spfa };
            assert_eq!(ran.traversals, 2);
        }
    }

    /// A two-process run with a message each way and one late node on
    /// `i` at `late`; the last node of `i` is returned with the run.
    fn run_with_late_node(late: u64) -> (Run, NodeId) {
        use zigzag_bcm::builder::RunBuilder;
        let mut nb = Network::builder();
        let i = nb.add_process("i");
        let j = nb.add_process("j");
        nb.add_bidirectional(i, j, 1, 3).unwrap();
        let mut rb = RunBuilder::new(nb.build().unwrap(), Time::new(late + 1));
        let i1 = rb.add_node(i, Time::new(1)).unwrap();
        let to_j = rb.send(i1, j, Time::new(2)).unwrap();
        let j1 = rb.add_node(j, Time::new(2)).unwrap();
        rb.deliver(to_j, j1).unwrap();
        let to_i = rb.send(j1, i, Time::new(4)).unwrap();
        let i2 = rb.add_node(i, Time::new(4)).unwrap();
        rb.deliver(to_i, i2).unwrap();
        let i3 = rb.add_node(i, Time::new(late)).unwrap();
        (rb.finish(), i3)
    }

    #[test]
    fn clocks_that_overflow_fall_back_to_the_label_correcting_walk() {
        // Recorded times past i64::MAX saturate there on the clock, where
        // the graph's edges still hold; but `ψ_i` lies one past the
        // boundary `i3`, beyond i64::MAX, so the views refuse the clock.
        let (run, sigma) = run_with_late_node(i64::MAX as u64 + 2);
        assert!(BoundsGraph::of_run(&run).clock_holds());
        assert_views_match_spfa(&run, sigma, false);
        // Every slack fits, but the largest (~2^62, into `i3` and `ψ_j`)
        // times |V| = 8 reaches u64::MAX: a Dijkstra key could overflow,
        // so the views walk label-correcting on a clock that holds.
        let (run, sigma) = run_with_late_node(1 << 62);
        assert!(BoundsGraph::of_run(&run).clock_holds());
        assert_views_match_spfa(&run, sigma, false);
        // At ~2^59 the keys fit, and the views run Dijkstra.
        let (run, sigma) = run_with_late_node(1 << 59);
        assert_views_match_spfa(&run, sigma, true);
    }

    #[test]
    fn repeated_view_queries_share_one_traversal() {
        let run = tri_run(2);
        let gb = BoundsGraph::of_run(&run);
        let sigma = run.nodes().last().unwrap().id();
        let frontier = GeFrontier::new(&run, &gb, run.past(sigma), None);
        let view = GeView::new(&gb, &frontier);
        let root = ExtVertex::Node(sigma);
        let (from, to) = (
            view.distances_from(root).unwrap(),
            view.distances_to(root).unwrap(),
        );
        let work = view.work();
        assert_eq!(work.dijkstra.traversals, 2);
        assert!(Arc::ptr_eq(&from, &view.distances_from(root).unwrap()));
        assert!(Arc::ptr_eq(&to, &view.distances_to(root).unwrap()));
        assert_eq!(view.work(), work, "a memo hit does no work");
        // Another view over the same graph has a memo of its own.
        let again = GeFrontier::new(&run, &gb, run.past(sigma), None);
        let other = GeView::new(&gb, &again);
        assert!(!Arc::ptr_eq(&from, &other.distances_from(root).unwrap()));
        assert_eq!(other.work().dijkstra.traversals, 3);
    }

    #[test]
    fn no_positive_cycles() {
        for seed in 0..5 {
            let run = tri_run(seed);
            let j1 = NodeId::new(ProcessId::new(1), 1);
            let ge = ExtendedGraph::new(&run, j1);
            assert!(ge.longest_from(ExtVertex::Node(j1)).is_ok());
        }
    }
}
