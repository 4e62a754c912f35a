//! The basic bounds graph `GB(r)` (paper Definition 8) and its local
//! restriction `GB(r, σ)` (Definition 14).
//!
//! Vertices are the basic nodes of the run. Edges encode the timing
//! constraints the context imposes:
//!
//! * `σ --1--> succ(σ)` — successive nodes of a process are ≥ 1 apart;
//! * `send --L_ij--> recv` — a message takes at least `L_ij`;
//! * `recv --(−U_ij)--> send` — equivalently, the send happened at most
//!   `U_ij` before the receive.
//!
//! The weights come from the context's one bounds table
//! ([`zigzag_bcm::Bounds`]), looked up per message. A graph keeps its
//! run's context, not a copy of the bounds: the views of
//! [`crate::extended_graph`] read their `E'''` edges from it too.
//!
//! Every path weight is a sound timed-precedence bound between its
//! endpoints (Lemma 1); the **longest** path is the tight one (proof of
//! Theorem 2); and every path induces a zigzag pattern of equal weight
//! (Lemma 5, implemented in [`crate::extract`]). So a tight bound needs
//! only distances, and [`BoundsGraph::longest_path`] reports the
//! canonical maximum-weight path of [`crate::graph`], read off them.
//!
//! # The run's clock
//!
//! By Lemma 8 the recorded times of a legal run are a valid timing of
//! its bounds graph: `T(u) + w ≤ T(v)` on every edge. A [`BoundsGraph`]
//! hands those times to its [`WeightedDigraph`] as the clock, which checks
//! the inequality once per edge, as the bulk builder lays the edges out
//! and as [`BoundsGraph::append_node`] adds them, and runs every
//! longest-path query as a Dijkstra under it (see [`crate::graph`]). The
//! views of [`crate::extended_graph`] read the same clock as the
//! potential of theirs. A hand-built run with a delivery outside its
//! channel bounds fails the check, and every traversal refuses it with
//! [`CoreError::ClockFails`]. A recorded time beyond `i64::MAX` saturates
//! there: any clock values that pass the check are a feasible potential,
//! so answers never depend on how an unrepresentable time converts.

#![deny(clippy::cast_possible_wrap)]

use std::sync::{Arc, Mutex};

use zigzag_bcm::run::Past;
use zigzag_bcm::{Bounds, Channel, Context, MessageId, NodeId, ProcessId, Run, Time};

use crate::error::CoreError;
use crate::graph::{Distances, Edge, WeightedDigraph};

/// Edge label: a timeline-successor edge (weight 1).
pub const LABEL_SUCCESSOR: u32 = 0;
/// Edge label: sender-to-receiver edge (weight `+L`).
pub const LABEL_SEND: u32 = 1;
/// Edge label: receiver-back-to-sender edge (weight `−U`).
pub const LABEL_RECV: u32 = 2;

/// The basic bounds graph of a run (or of a node's causal past).
#[derive(Debug, Clone)]
pub struct BoundsGraph {
    graph: WeightedDigraph<NodeId>,
    /// Number of send/recv edges, two per delivered message. The message
    /// behind one is re-derived from its endpoints
    /// ([`BoundsGraph::message_between`]).
    message_edges: usize,
    /// The run's context: the channel bounds every added edge and every
    /// view's `E'''` edges read, and the network's adjacency.
    context: Arc<Context>,
    /// `timelines[p][k]` is the dense index of node `(p, k)`: layout
    /// arithmetic after a bulk build, recording order after appends. The
    /// last entry of a timeline is its latest node, the source of the
    /// next successor edge — no interning lookup needed on append.
    timelines: Vec<Vec<u32>>,
    /// Spare slot lanes for the walks of views over this graph.
    slots: SlotPool,
}

/// `(L_ij, U_ij)` of channel `i → j` of a validated run, as edge weights:
/// the one conversion of a bound into a weight. A context caps every
/// bound at [`zigzag_bcm::MAX_BOUND`], so it always fits.
pub(crate) fn weights(bounds: &Bounds, from: ProcessId, to: ProcessId) -> (i64, i64) {
    let b = bounds
        .get(Channel::new(from, to))
        .expect("validated runs have bounds for every channel");
    let weight = |ticks: u64| i64::try_from(ticks).expect("contexts cap bounds at MAX_BOUND");
    (weight(b.lower()), weight(b.upper()))
}

/// `(L, U)` of hop `c` of a general node's chain as edge weights, or the
/// error naming a hop that is not a channel: a chain past the observer's
/// past comes from the caller unchecked.
pub(crate) fn hop_weights(bounds: &Bounds, c: Channel) -> Result<(i64, i64), CoreError> {
    if bounds.get(c).is_none() {
        return Err(CoreError::Bcm(zigzag_bcm::BcmError::MissingChannel {
            from: c.from,
            to: c.to,
        }));
    }
    Ok(weights(bounds, c.from, c.to))
}

/// A recorded time on the run's clock, saturating at `i64::MAX` (see the
/// [module docs](self)).
fn clock_time(t: Time) -> i64 {
    i64::try_from(t.ticks()).unwrap_or(i64::MAX)
}

/// One vertex's slot in a view walk's lane: its index in the view
/// (`Slot::OUTSIDE` past the frontier) and its potential.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    pub(crate) view: u32,
    pub(crate) pi: i64,
}

impl Slot {
    /// The slot of a vertex outside the view.
    pub(crate) const OUTSIDE: Slot = Slot {
        view: u32::MAX,
        pi: 0,
    };
}

/// Slot lanes recycled across view walks, each all [`Slot::OUTSIDE`]
/// while pooled. A clone starts empty. A walk that instead placed each
/// far end by its `(p, k)` against the frontier, with no lane, served
/// ~5% fewer perfbench `cold-observer-read` requests (2 vCPUs, release
/// build).
#[derive(Debug, Default)]
struct SlotPool(Mutex<Vec<Vec<Slot>>>);

impl Clone for SlotPool {
    fn clone(&self) -> Self {
        SlotPool::default()
    }
}

/// The dense vertex layout of a per-process node prefix of a run: node
/// `(p, k)` sits at index `start[p] + k` for every `k` below the prefix
/// length of `p` — timeline after timeline, the order of [`Run::nodes`],
/// of [`Past::iter`] and of `NodeId`'s `Ord`. Graphs with one auxiliary
/// vertex per process place `ψ_p` right after the nodes (see
/// [`crate::extended_graph`]). The bulk builders locate every edge
/// endpoint by this arithmetic instead of an interning lookup.
#[derive(Debug, Clone)]
pub(crate) struct NodeLayout {
    /// `start[p]` is the index of `(p, 0)`; the last entry is the node
    /// count.
    start: Vec<usize>,
}

impl NodeLayout {
    /// Every recorded node of `run`.
    pub(crate) fn of_run(run: &Run) -> Self {
        let net = run.context().network();
        Self::from_lens(net.processes().map(|p| run.timeline(p).len()))
    }

    /// The nodes of `past`, over a network of `procs` processes.
    pub(crate) fn of_past(past: &Past, procs: usize) -> Self {
        Self::from_lens((0..procs).map(|p| {
            past.boundary(ProcessId::new(p as u32))
                .map_or(0, |b| b.index() as usize + 1)
        }))
    }

    /// The layout holding the first `lens[p]` nodes of each process `p`.
    fn from_lens(lens: impl Iterator<Item = usize>) -> Self {
        let mut start = vec![0];
        let mut total = 0;
        for len in lens {
            total += len;
            start.push(total);
        }
        NodeLayout { start }
    }

    /// Number of processes.
    pub(crate) fn procs(&self) -> usize {
        self.start.len() - 1
    }

    /// Number of nodes.
    pub(crate) fn nodes(&self) -> usize {
        self.start[self.procs()]
    }

    /// The index range of process `p`'s nodes.
    pub(crate) fn range(&self, p: usize) -> std::ops::Range<usize> {
        self.start[p]..self.start[p + 1]
    }

    /// The dense index of `n`, if it is in the layout.
    pub(crate) fn index(&self, n: NodeId) -> Option<usize> {
        let p = n.proc().index();
        let (lo, hi) = (*self.start.get(p)?, *self.start.get(p + 1)?);
        let i = lo + n.index() as usize;
        (i < hi).then_some(i)
    }

    /// The node at dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`NodeLayout::nodes`].
    pub(crate) fn node(&self, i: usize) -> NodeId {
        assert!(i < self.nodes(), "node index {i} out of range");
        // The last process starting at or before `i`: empty processes
        // share their start with the next one and are skipped.
        let p = self.start.partition_point(|&s| s <= i) - 1;
        NodeId::new(ProcessId::new(p as u32), (i - self.start[p]) as u32)
    }

    /// Every node, in index order.
    pub(crate) fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.procs()).flat_map(move |p| {
            let proc = ProcessId::new(p as u32);
            (0..self.range(p).len() as u32).map(move |k| NodeId::new(proc, k))
        })
    }
}

impl BoundsGraph {
    /// Builds `GB(r)` over every recorded basic node.
    pub fn of_run(run: &Run) -> Self {
        Self::build(run, NodeLayout::of_run(run))
    }

    /// Builds the local bounds graph `GB(r, σ)`: the subgraph induced by
    /// `past(r, σ)` (Definition 14). Only edges with **both** endpoints in
    /// the past are present.
    pub fn local(run: &Run, past: &Past) -> Self {
        Self::build(
            run,
            NodeLayout::of_past(past, run.context().network().len()),
        )
    }

    /// The one bulk build behind [`BoundsGraph::of_run`] and
    /// [`BoundsGraph::local`]: the nodes of `layout` as vertices, then
    /// (a) the successor edges down each timeline and (b) the `±` pair of
    /// every delivered message with both endpoints in the layout, each
    /// endpoint located arithmetically.
    fn build(run: &Run, layout: NodeLayout) -> Self {
        let (context, procs) = (run.context_arc(), layout.procs());
        let mut clock = Vec::with_capacity(layout.nodes());
        let mut timelines = Vec::with_capacity(procs);
        for p in 0..procs {
            let range = layout.range(p);
            let past = &run.timeline(ProcessId::new(p as u32))[..range.len()];
            clock.extend(past.iter().map(|r| clock_time(r.time())));
            timelines.push(range.map(|i| i as u32).collect());
        }
        let mut edges = Vec::with_capacity(layout.nodes() + 2 * run.messages().len());
        for p in 0..procs {
            let range = layout.range(p);
            for i in range.start + 1..range.end {
                edges.push(Edge::new(i - 1, i, 1, LABEL_SUCCESSOR));
            }
        }
        let mut message_edges = 0usize;
        for m in run.messages() {
            let Some(d) = m.delivery() else { continue };
            let (Some(si), Some(di)) = (layout.index(m.src()), layout.index(d.node)) else {
                continue;
            };
            let c = m.channel();
            let (lower, upper) = weights(context.bounds(), c.from, c.to);
            edges.push(Edge::new(si, di, lower, LABEL_SEND));
            edges.push(Edge::new(di, si, -upper, LABEL_RECV));
            message_edges += 2;
        }
        BoundsGraph {
            graph: WeightedDigraph::from_edges(layout.node_ids().collect(), clock, &edges),
            message_edges,
            context,
            timelines,
            slots: SlotPool::default(),
        }
    }

    /// Appends one just-recorded node of `run` to the grown graph: its
    /// vertex and recorded time, the successor edge from its timeline
    /// predecessor, and the `±` edge pair of every message delivered *at*
    /// the node, each checked against the clock. Because `GB(r)` only
    /// ever gains vertices and edges as a run extends, this is a monotone
    /// delta — the graph's memoized longest-path results survive and
    /// catch up (see [`crate::graph`]). At every prefix the grown graph
    /// has the same vertices, edges and longest paths as
    /// [`BoundsGraph::of_run`] on that prefix, and an empty stream's graph
    /// is [`BoundsGraph::of_run`] of its skeleton run.
    ///
    /// Must be called once per non-initial node, in recording order, with
    /// the node (and its receipts) already present in `run`.
    pub fn append_node(&mut self, run: &Run, node: NodeId) {
        let rec = run.node(node).expect("appended nodes are recorded");
        // Intern the new node once; every other endpoint below is an
        // earlier node, found on its timeline.
        let ni = self.graph.add_vertex(node, clock_time(rec.time()));
        let timeline = &mut self.timelines[node.proc().index()];
        let pi = *timeline
            .last()
            .expect("timelines start at their initial node") as usize;
        debug_assert_eq!(
            self.graph.vertex(pi),
            &NodeId::new(node.proc(), node.index() - 1),
            "append_node out of recording order"
        );
        timeline.push(ni as u32);
        self.graph.add_edge_indexed(pi, ni, 1, LABEL_SUCCESSOR);
        for receipt in rec.receipts() {
            let Some(m) = receipt.internal() else {
                continue;
            };
            let mr = run.message(m);
            let c = mr.channel();
            let (lower, upper) = weights(self.context.bounds(), c.from, c.to);
            let src = mr.src();
            let si = self.timelines[src.proc().index()][src.index() as usize] as usize;
            self.graph.add_edge_indexed(si, ni, lower, LABEL_SEND);
            self.graph.add_edge_indexed(ni, si, -upper, LABEL_RECV);
            self.message_edges += 2;
        }
    }

    /// The dense indices of process `p`'s nodes, in timeline order.
    pub(crate) fn timeline(&self, p: usize) -> &[u32] {
        &self.timelines[p]
    }

    /// A slot lane for a view walk: one [`Slot::OUTSIDE`] per vertex.
    /// Hand it back with [`BoundsGraph::put_slots`] once every slot is
    /// outside again.
    pub(crate) fn take_slots(&self) -> Vec<Slot> {
        let spare = self.slots.0.lock().expect("slot pool lock").pop();
        let mut slots = spare.unwrap_or_default();
        slots.resize(self.graph.vertex_count(), Slot::OUTSIDE);
        slots
    }

    /// Returns a slot lane, all [`Slot::OUTSIDE`], to the pool.
    pub(crate) fn put_slots(&self, slots: Vec<Slot>) {
        self.slots.0.lock().expect("slot pool lock").push(slots);
    }

    /// The context of the run the graph was built from.
    pub(crate) fn context(&self) -> &Context {
        &self.context
    }

    /// The underlying weighted digraph.
    pub fn graph(&self) -> &WeightedDigraph<NodeId> {
        &self.graph
    }

    /// The dense index of node `n`.
    ///
    /// # Errors
    ///
    /// Fails with [`CoreError::NodeNotInRun`] naming `n` if the graph does
    /// not hold it.
    pub(crate) fn index(&self, n: NodeId) -> Result<usize, CoreError> {
        self.graph
            .index_of(&n)
            .ok_or_else(|| CoreError::NodeNotInRun {
                detail: format!("{n} is not in the bounds graph"),
            })
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Number of edges (successor + 2 per delivered message).
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Number of message-derived edges.
    pub fn message_edge_count(&self) -> usize {
        self.message_edges
    }

    /// Longest-path weights from every vertex **to** `sigma` — the map
    /// `d(·)` of Definition 13. The connected set is the σ-precedence set
    /// `V_σ` (Definition 12).
    ///
    /// # Errors
    ///
    /// Fails if `sigma` is not a vertex, or with [`CoreError::ClockFails`]
    /// if the run's clock fails on an edge (impossible for legal runs
    /// whose times stay below `i64::MAX`; see
    /// [`WeightedDigraph::check_clock`]).
    pub fn longest_to(&self, sigma: NodeId) -> Result<Distances, CoreError> {
        self.graph.longest_to(&sigma)
    }

    /// Longest-path weights from `sigma` to every vertex.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BoundsGraph::longest_to`].
    pub fn longest_from(&self, sigma: NodeId) -> Result<Distances, CoreError> {
        self.graph.longest_from(&sigma)
    }

    /// Memoized [`BoundsGraph::longest_from`]: the result is kept per
    /// source, 8 bytes per vertex, and on a graph grown with
    /// [`BoundsGraph::append_node`] a stale one catches up from just the
    /// appended edges instead of being recomputed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BoundsGraph::longest_from`].
    pub fn longest_from_cached(
        &self,
        sigma: NodeId,
    ) -> Result<std::sync::Arc<Distances>, CoreError> {
        self.graph.longest_from_cached(&sigma)
    }

    /// The longest path from `from` to `to`, as `(weight, edges)`;
    /// `Ok(None)` if no path exists.
    ///
    /// By Lemma 1, `from --weight--> to` holds in the run; by the proof of
    /// Theorem 2 this is the **tight** such bound over all runs with this
    /// bounds graph. The path is the canonical one of
    /// [`WeightedDigraph::longest_path`]: the fewest edges, each hop's
    /// least `(label, tail index)` tight in-edge, where the index is the
    /// `NodeId` order for a bulk-built graph and the recording order for
    /// a grown one.
    ///
    /// # Errors
    ///
    /// Fails with [`CoreError::NodeNotInRun`] naming an endpoint that is
    /// not a vertex, or with [`CoreError::ClockFails`].
    pub fn longest_path(
        &self,
        from: NodeId,
        to: NodeId,
    ) -> Result<Option<(i64, Vec<Edge>)>, CoreError> {
        self.index(from)?;
        self.index(to)?;
        self.graph.longest_path(&from, &to)
    }

    /// The σ-precedence set `V_σ` (Definition 12): all vertices with a path
    /// to `sigma`, as node ids.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BoundsGraph::longest_to`].
    pub fn v_sigma(&self, sigma: NodeId) -> Result<Vec<NodeId>, CoreError> {
        let lp = self.longest_to(sigma)?;
        Ok(lp.connected().map(|i| *self.graph.vertex(i)).collect())
    }

    /// Resolves the message behind a send/recv edge (by its endpoints).
    ///
    /// For a [`LABEL_SEND`] edge pass `(edge.from, edge.to)`; for a
    /// [`LABEL_RECV`] edge pass `(edge.to, edge.from)`.
    pub fn message_between(run: &Run, src: NodeId, dst: NodeId) -> Option<MessageId> {
        run.node(src)?
            .sent()
            .iter()
            .copied()
            .find(|&m| run.message(m).delivery().map(|d| d.node) == Some(dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zigzag_bcm::protocols::Ffip;
    use zigzag_bcm::scheduler::{EagerScheduler, RandomScheduler};
    use zigzag_bcm::{Network, ProcessId, SimConfig, Simulator, Time};

    fn two_proc_run(seed: u64, horizon: u64) -> Run {
        let mut b = Network::builder();
        let i = b.add_process("i");
        let j = b.add_process("j");
        b.add_bidirectional(i, j, 2, 5).unwrap();
        let ctx = b.build().unwrap();
        let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(horizon)));
        sim.external(Time::new(1), i, "kick");
        sim.run(&mut Ffip::new(), &mut RandomScheduler::seeded(seed))
            .unwrap()
    }

    #[test]
    fn figure6_edge_semantics() {
        // A single delivered message i#1 -> j#1 creates the two edges of
        // Figure 6 plus successor edges.
        let run = two_proc_run(0, 8);
        let gb = BoundsGraph::of_run(&run);
        let i1 = NodeId::new(ProcessId::new(0), 1);
        let j1 = NodeId::new(ProcessId::new(1), 1);
        let gi = gb.graph();
        let e_fwd = gi
            .edges_from(gi.index_of(&i1).unwrap())
            .iter()
            .find(|e| *gi.vertex(e.to) == j1 && e.label == LABEL_SEND)
            .copied()
            .unwrap();
        assert_eq!(e_fwd.weight, 2);
        let e_bwd = gi
            .edges_from(gi.index_of(&j1).unwrap())
            .iter()
            .find(|e| *gi.vertex(e.to) == i1 && e.label == LABEL_RECV)
            .copied()
            .unwrap();
        assert_eq!(e_bwd.weight, -5);
        assert!(gb.message_edge_count() >= 2);
        assert_eq!(
            BoundsGraph::message_between(&run, i1, j1),
            Some(
                run.timeline(ProcessId::new(1))[1].receipts()[0]
                    .internal()
                    .unwrap()
            )
        );
    }

    #[test]
    fn lemma1_path_weights_are_sound() {
        // Every longest-path weight lower-bounds the actual time gap.
        for seed in 0..10 {
            let run = two_proc_run(seed, 40);
            let gb = BoundsGraph::of_run(&run);
            let nodes: Vec<NodeId> = run.nodes().map(|r| r.id()).collect();
            for &a in &nodes {
                let lp = gb.longest_from(a).unwrap();
                for &b in &nodes {
                    if let Some(w) = lp.weight(gb.graph().index_of(&b).unwrap()) {
                        let gap = run.time(b).unwrap().diff(run.time(a).unwrap());
                        assert!(
                            gap >= w,
                            "seed {seed}: path weight {w} exceeds gap {gap} ({a} -> {b})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn local_graph_is_induced_by_past() {
        let run = two_proc_run(3, 40);
        let j2 = NodeId::new(ProcessId::new(1), 2);
        let past = run.past(j2);
        let local = BoundsGraph::local(&run, &past);
        let full = BoundsGraph::of_run(&run);
        assert!(local.node_count() < full.node_count());
        assert_eq!(local.node_count(), past.len());
        // All local vertices are past nodes.
        for v in local.graph().vertices() {
            assert!(past.contains(*v));
        }
    }

    #[test]
    fn v_sigma_contains_future_echoes() {
        // Under FFIP, V_σ contains nodes later than σ (paper §B remark):
        // receivers of σ's floods have backward edges to σ.
        let run = two_proc_run(1, 40);
        let gb = BoundsGraph::of_run(&run);
        let i1 = NodeId::new(ProcessId::new(0), 1);
        let vs = gb.v_sigma(i1).unwrap();
        let t1 = run.time(i1).unwrap();
        assert!(
            vs.iter().any(|n| run.time(*n).unwrap() > t1),
            "V_σ misses future nodes"
        );
        assert!(vs.contains(&i1));
    }

    #[test]
    fn longest_path_tightness_shape() {
        // i#1 -> j#1 -> i#2 with eager delivery: longest path from i#1 to
        // i#2 is L+L = 4; gap with eager scheduling is exactly 4.
        let mut b = Network::builder();
        let i = b.add_process("i");
        let j = b.add_process("j");
        b.add_bidirectional(i, j, 2, 5).unwrap();
        let ctx = b.build().unwrap();
        let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(20)));
        sim.external(Time::new(1), i, "kick");
        let run = sim.run(&mut Ffip::new(), &mut EagerScheduler).unwrap();
        let gb = BoundsGraph::of_run(&run);
        let i1 = NodeId::new(i, 1);
        let i2 = NodeId::new(i, 2);
        let (w, edges) = gb.longest_path(i1, i2).unwrap().unwrap();
        assert_eq!(w, 4);
        assert_eq!(edges.len(), 2);
        assert_eq!(run.time(i2).unwrap().diff(run.time(i1).unwrap()), 4);
        // Missing endpoints error.
        assert!(gb.longest_path(i1, NodeId::new(i, 99)).is_err());
    }

    #[test]
    fn grown_graph_matches_batch_rebuild_at_every_prefix() {
        use zigzag_bcm::{RunCursor, StreamingRun};
        for seed in 0..4 {
            let run = two_proc_run(seed, 30);
            let mut cursor = RunCursor::new(&run);
            let mut stream = StreamingRun::new(run.context_arc(), run.horizon());
            let mut grown = BoundsGraph::of_run(stream.run());
            // Keep a warm cached query alive across appends so every
            // append exercises the catch-up path.
            let i1 = NodeId::new(ProcessId::new(0), 1);
            while let Some(ev) = cursor.next_event() {
                let node = stream.append(&ev).unwrap();
                grown.append_node(stream.run(), node);
                let batch = BoundsGraph::of_run(stream.run());
                assert_eq!(grown.node_count(), batch.node_count());
                assert_eq!(grown.edge_count(), batch.edge_count());
                assert_eq!(grown.message_edge_count(), batch.message_edge_count());
                if !stream.run().appears(i1) {
                    continue;
                }
                let warm = grown.longest_from_cached(i1).unwrap();
                let cold = batch.longest_from(i1).unwrap();
                for rec in stream.run().nodes() {
                    let (gi, bi) = (
                        grown.graph().index_of(&rec.id()).unwrap(),
                        batch.graph().index_of(&rec.id()).unwrap(),
                    );
                    assert_eq!(
                        warm.weight(gi),
                        cold.weight(bi),
                        "seed {seed}: grown GB diverged at {} after {node}",
                        rec.id()
                    );
                }
            }
        }
    }

    #[test]
    fn legal_runs_keep_their_clock() {
        for seed in 0..10 {
            let run = two_proc_run(seed, 60);
            let gb = BoundsGraph::of_run(&run);
            let i1 = NodeId::new(ProcessId::new(0), 1);
            gb.graph().check_clock().unwrap();
            assert!(gb.longest_to(i1).is_ok());
            assert!(gb.longest_from(i1).is_ok());
        }
    }
}
