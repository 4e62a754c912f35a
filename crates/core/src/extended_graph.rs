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
//! frontier: one prefix length per process, σ's vector clock. Definition
//! 16's `GE(r, σ)` is `GB(r)` restricted to that frontier plus the `ψ`
//! vertices and their small edge families, so an observer does not copy
//! the graph. Its frontier holds the cut, the `n` values of the `ψ` clock
//! (below) and an `E''` overlay: the messages sent inside the frontier
//! and not delivered inside it, less σ's own under `ExcludeOwnSends`,
//! read from the run's own message records. A [`GeView`] pairs it with
//! σ's [`Past`] and the [`BoundsGraph`] it is cut from: the session's
//! `GB(r)`, or a standalone engine's `GB(r, σ)` (Definition 14). A
//! distance traversal over the view reads the graph's live rows, skips
//! every edge that leaves the frontier, and adds the overlay, the `E'`
//! edges and the `E'''` channel edges, which it reads from the network's
//! sorted adjacency and the context's bounds table. Its lanes come out in
//! the layout above.
//!
//! The same construction cut at the recording horizon, every recorded
//! node inside the frontier, is the frontier graph of
//! [`crate::construct`]: `GB(r)` closed at the end of a finite prefix.
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
//! its bounds graph, whose [`crate::graph::WeightedDigraph`] checks them
//! once per edge. On the past nodes they are the potential of the view's
//! potential-reweighted Dijkstra ([`crate::graph`]); each `ψ_p` gets the
//! least value its `E′`/`E‴` in-edges allow (a fixpoint over the `n`
//! auxiliary vertices, settled in decreasing order since every `E‴`
//! weight is `−U ≤ 0`). The `E″` upper bounds then hold whenever the
//! run's FFIP deliveries respect `[L, U]` and every in-flight message can
//! still be delivered: a message σ has not seen reaches its receiver `j`
//! within `U` of its send, and each FFIP re-flood from there reaches the
//! next process within that channel's `U`; each arrival lies after the
//! receiving process's boundary (or beyond the horizon), or σ would have
//! seen the message. The view checks the overlay in one scan when it is
//! built. A clock that fails anywhere — a hand-built run with a delivery
//! outside its channel bounds, a feed that strands a message behind its
//! receiver's latest node, or a boundary at `i64::MAX`, past which `ψ`
//! has no room, say — leaves the view with no traversal, as would a span
//! of times too wide for the keys (see [`crate::graph`]): every distance
//! query refuses with [`CoreError::ClockFails`] naming the first failing
//! edge.
//!
//! # Witness paths
//!
//! A witness path is the canonical maximum-weight path of
//! [`crate::graph`], read off the view's memoized distances by a hop pass
//! over its rows, so row order decides no served byte.
//! [`GeView::longest_path`] reads the path of any pair the same way, for
//! drawings, extraction and tests.

#![deny(clippy::cast_possible_wrap)]

use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};

use zigzag_bcm::run::Past;
use zigzag_bcm::{Context, NodeId, ProcessId, Run};

use crate::bounds_graph::{weights, BoundsGraph, NodeLayout, Slot};
use crate::error::CoreError;
use crate::fx::FxBuild;
use crate::graph::{canonical_path, ClockCheck, Direction, Distances, Edge, Rows, TraversalWork};

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

/// A frontier's distance results keyed by `(source, direction)`. A clone
/// starts empty.
#[derive(Debug, Default)]
struct DistanceMemo(Mutex<HashMap<(u32, Direction), Arc<Distances>, FxBuild>>);

impl Clone for DistanceMemo {
    fn clone(&self) -> Self {
        DistanceMemo::default()
    }
}

/// A bounds graph closed at a per-process cut (see the
/// [module docs](self)): the cut's layout, the `ψ` clock, the `E''`
/// overlay, and the distance results of the views over it. Its size is
/// O(|cut| + n + |E''|), plus the memoized lanes.
#[derive(Debug, Clone)]
pub(crate) struct GeFrontier {
    layout: NodeLayout,
    /// The bounds-graph index of each node inside the cut, by view index.
    nodes: Vec<u32>,
    /// The `ψ` clock, one value per process.
    psi: Vec<i64>,
    /// The `E''` overlay, in sender order.
    unseen: Vec<Unseen>,
    /// `by_psi[psi_at[p]..psi_at[p + 1]]` are the overlay positions of
    /// the `E''` edges leaving `ψ_p`.
    psi_at: Vec<u32>,
    by_psi: Vec<u32>,
    /// Why traversals may not run Dijkstra under the clock, if they may
    /// not: every distance query answers it.
    refusal: Option<CoreError>,
    dists: DistanceMemo,
}

impl GeFrontier {
    /// Closes `gb`, a bounds graph of `run` (or of a prefix of it), at
    /// the cut `layout`: its first `layout.range(p).len()` nodes of each
    /// process `p`, which `gb` must hold — `past(r, σ)` for `GE(r, σ)`,
    /// every recorded node for the frontier graph. A message sent inside
    /// the cut and not delivered inside it is unseen, read from `run`'s
    /// message records; one sent at `exclude_src` contributes no edge.
    /// Reads `gb`'s clock, never its rows.
    pub(crate) fn new(
        run: &Run,
        gb: &BoundsGraph,
        layout: NodeLayout,
        exclude_src: Option<NodeId>,
    ) -> Self {
        const UNSET: i64 = i64::MIN;
        let context = run.context();
        let n = context.network().len();
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
                    if m.delivery().is_some_and(|d| layout.index(d.node).is_some()) {
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
            .map(|p| boundary(p).map_or(UNSET, |b| gb.graph().clock(b).saturating_add(1)))
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
            .map(|p| gb.graph().clock(nodes[layout.range(p).start] as usize))
            .chain(psi.iter().copied().filter(|&t| t != UNSET))
            .min()
            .unwrap_or(0);
        for t in psi.iter_mut().filter(|t| **t == UNSET) {
            *t = least;
        }

        // The clock over the overlay, E' and E''': every slack
        // `π(head) − π(tail) − w` must be non-negative, and the span and
        // least weight of these edges and GB's must keep every Dijkstra
        // key below `u64::MAX` at the view's vertex count. The overlay's
        // edges are noted in view indices. An edge of GB the clock fails
        // on refuses the view wherever it lies: telling whether it lies
        // inside the cut would scan the cut's rows.
        let vertices = layout.nodes() + n;
        let time = |v: usize| match v.checked_sub(layout.nodes()) {
            Some(p) => psi[p],
            None => gb.graph().clock(nodes[v] as usize),
        };
        let mut check = ClockCheck::default();
        let mut note = |e: Edge| check.note(e, (time(e.from), time(e.to)));
        for p in 0..n {
            let psi_p = layout.nodes() + p;
            if !layout.range(p).is_empty() {
                note(Edge::new(layout.range(p).end - 1, psi_p, 1, LABEL_BOUNDARY));
            }
            for (j, upper) in channels_into(context, p) {
                note(Edge::new(psi_p, layout.nodes() + j, -upper, LABEL_AUX_CHAN));
            }
        }
        for e in &unseen {
            let psi_to = layout.nodes() + e.to as usize;
            note(Edge::new(psi_to, e.src as usize, e.weight, LABEL_UNSEEN));
        }
        check.widen(gb.graph().clock_check());
        let refusal = gb
            .graph()
            .clock_refusal(vertices)
            .or_else(|| check.refusal(vertices, |v| layout.ext_vertex(v), time));
        GeFrontier {
            layout,
            nodes,
            psi,
            unseen,
            psi_at,
            by_psi,
            refusal,
            dists: DistanceMemo::default(),
        }
    }

    /// Number of vertices: the nodes inside the cut and one `ψ` per
    /// process.
    pub(crate) fn vertex_count(&self) -> usize {
        self.layout.nodes() + self.layout.procs()
    }

    /// The vertex layout the dense indices follow.
    pub(crate) fn layout(&self) -> &NodeLayout {
        &self.layout
    }

    /// The vertex at dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`GeFrontier::vertex_count`].
    pub(crate) fn vertex(&self, i: usize) -> ExtVertex {
        assert!(i < self.vertex_count(), "vertex index {i} out of range");
        self.layout.ext_vertex(i)
    }

    /// One walk over `gb`'s rows cut at this frontier; `gb` must be the
    /// graph the frontier was cut from.
    pub(crate) fn walk<'a>(&'a self, gb: &'a BoundsGraph) -> Walk<'a> {
        let mut slots = gb.take_slots();
        for (v, &g) in self.nodes.iter().enumerate() {
            let pi = gb.graph().clock(g as usize);
            slots[g as usize] = Slot { view: v as u32, pi };
        }
        Walk {
            gb,
            frontier: self,
            slots,
        }
    }

    /// Longest-path weights from (or, backward, to) dense vertex `src`
    /// over [`GeFrontier::walk`], by Dijkstra under the clock. Not
    /// memoized.
    ///
    /// # Errors
    ///
    /// Returns the frontier's [`CoreError::ClockFails`] refusal if the
    /// clock fails on one of its edges or its keys could overflow.
    pub(crate) fn distances(
        &self,
        gb: &BoundsGraph,
        src: usize,
        dir: Direction,
    ) -> Result<Distances, CoreError> {
        match &self.refusal {
            Some(e) => Err(e.clone()),
            None => Ok(gb.graph().distances_over(&self.walk(gb), src, dir)),
        }
    }
}

/// `GE(r, σ)` read through the bounds graph it is cut from: an
/// observer's frontier and past paired with the session's `GB(r)` or a
/// standalone engine's `GB(r, σ)` (see the [module docs](self)).
/// Obtained from [`crate::knowledge::KnowledgeEngine::ge`]; cheap to
/// copy.
#[derive(Debug, Clone, Copy)]
pub struct GeView<'a> {
    gb: &'a BoundsGraph,
    frontier: &'a GeFrontier,
    past: &'a Past,
}

impl<'a> GeView<'a> {
    /// Pairs `frontier`, cut at `past`, with the graph it was cut from.
    pub(crate) fn new(gb: &'a BoundsGraph, frontier: &'a GeFrontier, past: &'a Past) -> Self {
        GeView { gb, frontier, past }
    }

    /// The observer node `σ`.
    pub fn observer(&self) -> NodeId {
        self.past.of()
    }

    /// The causal past the view was cut at.
    pub fn past(&self) -> &'a Past {
        self.past
    }

    /// Number of vertices: the past nodes and one `ψ` per process.
    pub fn vertex_count(&self) -> usize {
        self.frontier.vertex_count()
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
        self.frontier.vertex(i)
    }

    /// The traversal work done on the bounds graph's rows, by this view
    /// and every other view over the same graph.
    pub fn work(&self) -> TraversalWork {
        self.gb.graph().work()
    }

    /// Every edge of `GE(r, σ)`, in dense indices, out-row by out-row.
    pub fn edges(&self) -> Vec<Edge> {
        (0..self.vertex_count())
            .flat_map(|v| self.edges_from(v))
            .collect()
    }

    /// The edges leaving vertex index `i`, in dense indices and row
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`GeView::vertex_count`].
    pub fn edges_from(&self, i: usize) -> Vec<Edge> {
        self.row(i, Direction::Forward)
    }

    /// The edges entering vertex index `i`, in dense indices and row
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`GeView::vertex_count`].
    pub fn edges_to(&self, i: usize) -> Vec<Edge> {
        self.row(i, Direction::Backward)
    }

    fn row(&self, i: usize, dir: Direction) -> Vec<Edge> {
        assert!(i < self.vertex_count(), "vertex index {i} out of range");
        let mut row = Vec::new();
        self.walk().scan(i, dir, |w, weight, _, label| {
            let (from, to) = match dir {
                Direction::Forward => (i, w),
                Direction::Backward => (w, i),
            };
            row.push(Edge::new(from, to, weight, label));
        });
        row
    }

    /// Longest-path weights from `v` to every vertex, memoized per
    /// source (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// Fails if `v` is not a vertex, or with [`CoreError::ClockFails`] if
    /// the run's clock fails on the view (see the [module docs](self)).
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

    /// The longest path from `from` to `to`, as `(weight, edges)` in
    /// dense indices; `Ok(None)` if no path exists. The path is the
    /// canonical one of [`crate::graph`], read off the memoized
    /// [`GeView::distances_from`] lane: a served witness is this path
    /// between its canonical bases.
    ///
    /// # Errors
    ///
    /// Fails if either endpoint is not a vertex, or with
    /// [`CoreError::ClockFails`].
    pub fn longest_path(
        &self,
        from: ExtVertex,
        to: ExtVertex,
    ) -> Result<Option<(i64, Vec<Edge>)>, CoreError> {
        let (s, t) = (self.root(from)?, self.root(to)?);
        let dist = self.distances_from(from)?;
        Ok(dist
            .weight(t)
            .zip(canonical_path(&self.walk(), &dist, s, t)))
    }

    /// The dense index of `v`, or an error naming it.
    fn root(&self, v: ExtVertex) -> Result<usize, CoreError> {
        self.index_of(v).ok_or_else(|| CoreError::InvalidTiming {
            detail: format!("{v} is not a vertex of GE(r, σ)"),
        })
    }

    fn distances(&self, v: ExtVertex, dir: Direction) -> Result<Arc<Distances>, CoreError> {
        let src = self.root(v)?;
        let key = (src as u32, dir);
        let memo = &self.frontier.dists.0;
        if let Some(hit) = memo.lock().expect("distance memo lock").get(&key) {
            return Ok(hit.clone());
        }
        let dist = Arc::new(self.frontier.distances(self.gb, src, dir)?);
        memo.lock()
            .expect("distance memo lock")
            .insert(key, dist.clone());
        Ok(dist)
    }

    /// The vertex layout the dense indices follow.
    pub(crate) fn layout(&self) -> &'a NodeLayout {
        self.frontier.layout()
    }

    /// One walk over the view's rows.
    pub(crate) fn walk(&self) -> Walk<'a> {
        self.frontier.walk(self.gb)
    }
}

/// One walk over a [`GeFrontier`]'s rows (see [`GeFrontier::walk`]):
/// what its distance traversals, paths and the Lemma 17 check read.
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
    /// The dense index, in the bounds graph, of node `v` inside the cut.
    fn gb_index(&self, v: usize) -> usize {
        self.frontier.nodes[v] as usize
    }

    /// The time of node `v` inside the cut on the run's clock.
    fn node_time(&self, v: usize) -> i64 {
        self.gb.graph().clock(self.gb_index(v))
    }
}

impl Rows for Walk<'_> {
    fn vertex_count(&self) -> usize {
        self.frontier.vertex_count()
    }

    fn potential(&self, v: usize) -> i64 {
        match v.checked_sub(self.frontier.layout.nodes()) {
            Some(p) => self.frontier.psi[p],
            None => self.node_time(v),
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
                    f(src, e.weight, self.node_time(src), LABEL_UNSEEN);
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
                    f(b, 1, self.node_time(b), LABEL_BOUNDARY);
                }
                // E''' into ψ_p: one per channel p → i.
                for (i, upper) in channels_out_of(self.gb.context(), p) {
                    f(nodes + i, -upper, fr.psi[i], LABEL_AUX_CHAN);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::KnowledgeEngine;
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
        let engine = KnowledgeEngine::new(&run, j1).unwrap();
        let ge = engine.ge();
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
            let mut incoming = ge.edges_to(vi);
            for e in &incoming {
                assert_eq!(e.to, vi);
            }
            let mut found = Vec::new();
            for u in 0..ge.vertex_count() {
                found.extend(ge.edges_from(u).into_iter().filter(|e| e.to == vi));
            }
            let key = |e: &Edge| (e.from, e.weight, e.label);
            incoming.sort_unstable_by_key(key);
            found.sort_unstable_by_key(key);
            assert_eq!(incoming, found, "in-row of {}", ge.vertex(vi));
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
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        let ge = engine.ge();
        // Find any E'' edge and check a path from the receiving process's
        // boundary to the sender exists with weight 1 − U.
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
                let lp = ge.distances_from(ExtVertex::Node(boundary)).unwrap();
                let w = lp.weight(ge.index_of(sender).unwrap()).unwrap();
                // At least the two-edge path boundary -> ψ -> sender.
                assert!(w > e.weight);
            }
        }
    }

    #[test]
    fn every_past_node_reaches_observer() {
        // Needed by the fast timing: f(·) is defined for all past nodes.
        for seed in 0..5 {
            let run = tri_run(seed);
            let j1 = NodeId::new(ProcessId::new(1), 1);
            let engine = KnowledgeEngine::new(&run, j1).unwrap();
            let ge = engine.ge();
            let lp = ge.distances_to(ExtVertex::Node(j1)).unwrap();
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
    fn repeated_view_queries_share_one_traversal() {
        let run = tri_run(2);
        let gb = BoundsGraph::of_run(&run);
        let sigma = run.nodes().last().unwrap().id();
        let past = run.past(sigma);
        let cut = || NodeLayout::of_past(&past, run.context().network().len());
        let frontier = GeFrontier::new(&run, &gb, cut(), None);
        let view = GeView::new(&gb, &frontier, &past);
        let root = ExtVertex::Node(sigma);
        let (from, to) = (
            view.distances_from(root).unwrap(),
            view.distances_to(root).unwrap(),
        );
        let work = view.work();
        assert_eq!(work.traversals, 2);
        assert!(Arc::ptr_eq(&from, &view.distances_from(root).unwrap()));
        assert!(Arc::ptr_eq(&to, &view.distances_to(root).unwrap()));
        // A path reads the memoized lane.
        let (w, _) = view.longest_path(root, root).unwrap().unwrap();
        assert_eq!(w, 0);
        assert_eq!(view.work(), work, "a memo hit does no work");
        // Another view over the same graph has a memo of its own.
        let again = GeFrontier::new(&run, &gb, cut(), None);
        let other = GeView::new(&gb, &again, &past);
        assert!(!Arc::ptr_eq(&from, &other.distances_from(root).unwrap()));
        assert_eq!(other.work().traversals, 3);
    }

    #[test]
    fn legal_views_keep_the_clock() {
        for seed in 0..5 {
            let run = tri_run(seed);
            let j1 = NodeId::new(ProcessId::new(1), 1);
            let engine = KnowledgeEngine::new(&run, j1).unwrap();
            assert!(engine.ge().distances_from(ExtVertex::Node(j1)).is_ok());
        }
    }
}
