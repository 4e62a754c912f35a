//! Run constructions (paper Lemma 8 and Definition 24).
//!
//! The necessity halves of Theorems 2 and 4 are proved by *building*
//! alternative runs: given a valid timing function over a bounds graph,
//! there is a legal run realizing exactly those times. This module provides
//! three constructions, each returning a [`Run`] that the caller can (and
//! tests do) certify with [`zigzag_bcm::validate::validate_run`]:
//!
//! * [`run_by_timing`] — the generic Lemma 8 construction `r[T]` from a
//!   valid timing function over a p-closed node set;
//! * [`slow_run`] — the Theorem 2 witness: every node of the σ-precedence
//!   set is delayed as much as possible relative to `σ`, making
//!   longest-path bounds tight;
//! * [`fast_run`] — the `γ`-fast run `fast_γ^σ(r, θ')` of Definition 24,
//!   the Theorem 4 witness in which everything reachable from `θ'`'s base
//!   is squeezed as early as possible.
//!
//! # Finite horizons and the frontier
//!
//! The paper's runs are infinite, so its basic bounds graph `GB(r)` covers
//! every delivery. A recorded prefix instead has *in-flight* messages at
//! the horizon, whose (mandatory, within `U`) future deliveries constrain
//! how late the recorded nodes may be pushed. [`FrontierGraph`] closes
//! `GB(r)` under the horizon exactly the way `GE(r, σ)` closes `GB(r, σ)`
//! under the observer's knowledge horizon (Definition 16): one auxiliary
//! vertex per process ("the earliest beyond-the-prefix delivery point"),
//! plus the `E'`/`E''`/`E'''` edge families. It is built the same way
//! too: `GB(r)` cut at every recorded node by the construction behind
//! every observer's view of `GE(r, σ)`. Slow runs are tight with
//! respect to frontier longest paths; for node pairs well inside the
//! prefix these coincide with plain `GB(r)` longest paths.

#![deny(clippy::cast_possible_wrap)]

use std::collections::BTreeMap;

use zigzag_bcm::builder::RunBuilder;
use zigzag_bcm::run::Past;
use zigzag_bcm::{Bounds, Channel, ExternalId, NodeId, ProcessId, Run, Time};

use crate::bounds_graph::{hop_weights, weights, BoundsGraph, NodeLayout};
use crate::error::CoreError;
use crate::extended_graph::{ExtVertex, GeFrontier, GeView};
use crate::graph::{Direction, Distances};
use crate::node::GeneralNode;
use crate::timing::{fast_timing, FastTiming, NodeTiming};

/// The horizon-closed bounds graph of a full recorded run: `GB(r)` plus one
/// frontier vertex `ω_i` per process and the Definition-16 edge families
/// applied at the recording horizon instead of an observer's past.
///
/// * `E'`: `last_i --1--> ω_i` — the unrecorded region of `i`'s timeline
///   starts strictly after its last recorded node;
/// * `E''`: `ω_j --(−U_ij)--> σ_i` for every in-flight message from a
///   recorded node `σ_i` to `j` — it must be delivered within `U_ij`, at or
///   after `ω_j`;
/// * `E'''`: `ω_i --(−U_ji)--> ω_j` for every channel `(j, i)` — FFIP
///   re-floods whatever is delivered beyond the prefix.
///
/// It is `GB(r)` cut at every recorded node by the construction that
/// cuts an observer's `GE(r, σ)` (see [`crate::extended_graph`]), so its
/// traversals run Dijkstra under the run's clock, and refuse a run whose
/// clock fails.
#[derive(Debug, Clone)]
pub struct FrontierGraph {
    gb: BoundsGraph,
    frontier: GeFrontier,
}

impl FrontierGraph {
    /// Builds the frontier graph of `run`: `GB(r)` with every recorded
    /// node inside the cut, so a message is "seen" exactly when it was
    /// delivered.
    pub fn of_run(run: &Run) -> Self {
        let gb = BoundsGraph::of_run(run);
        let frontier = GeFrontier::new(run, &gb, NodeLayout::of_run(run), None);
        FrontierGraph { gb, frontier }
    }

    /// Number of vertices: the recorded nodes and one `ω` per process.
    pub fn vertex_count(&self) -> usize {
        self.frontier.vertex_count()
    }

    /// The vertex at dense index `i`: a recorded node, or the `ω` of a
    /// process as [`ExtVertex::Aux`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`FrontierGraph::vertex_count`].
    pub fn vertex(&self, i: usize) -> ExtVertex {
        self.frontier.vertex(i)
    }

    /// Dense index of a vertex, if present.
    pub fn index_of(&self, v: ExtVertex) -> Option<usize> {
        self.frontier.layout().ext_index(v)
    }

    /// The dense index of recorded node `n`, or
    /// [`CoreError::NodeNotInRun`] naming it.
    fn node(&self, n: NodeId) -> Result<usize, CoreError> {
        self.index_of(ExtVertex::Node(n))
            .ok_or_else(|| CoreError::NodeNotInRun {
                detail: format!("{n} is not a recorded node"),
            })
    }

    /// Longest-path weights from every vertex **to** `sigma` (the tight
    /// precedence bounds of the finite-prefix model), by a fresh backward
    /// traversal.
    ///
    /// # Errors
    ///
    /// Fails with [`CoreError::NodeNotInRun`] if `sigma` is not a
    /// recorded node, or with [`CoreError::ClockFails`] if the run's clock
    /// fails on the frontier graph (impossible for legal runs).
    pub fn longest_to(&self, sigma: NodeId) -> Result<Distances, CoreError> {
        let s = self.node(sigma)?;
        self.frontier.distances(&self.gb, s, Direction::Backward)
    }

    /// The tight bound on `time(to) − time(from)` over all runs sharing
    /// this prefix structure: the longest `from → to` path weight, or
    /// `None` if no path constrains the pair.
    ///
    /// # Errors
    ///
    /// Fails with [`CoreError::NodeNotInRun`] naming a node that is not
    /// recorded, or with [`CoreError::ClockFails`].
    pub fn tight_bound(&self, from: NodeId, to: NodeId) -> Result<Option<i64>, CoreError> {
        let s = self.node(from)?;
        let t = self.node(to)?;
        let lp = self.frontier.distances(&self.gb, s, Direction::Forward)?;
        Ok(lp.weight(t))
    }
}

/// Everything the prescribed-run engine needs to lay a run out.
#[derive(Debug)]
struct Prescription {
    /// `T(σ')` for every kept non-initial node, one lane per process in
    /// timeline order: the kept prefix of `p` is its initial node plus
    /// nodes `1..=kept[p].len()`.
    kept: Vec<Vec<Time>>,
    /// `T(ω_p)` / `T(ψ_p)`: the earliest time fresh deliveries may land on
    /// each timeline.
    frontier: Vec<Time>,
    /// Definition 24 condition 2: deliveries pinned to the upper bound,
    /// keyed by `(sending process, sending time, destination)` — the triple
    /// uniquely identifies a message in the run under construction.
    chain_upper: BTreeMap<(ProcessId, Time, ProcessId), Time>,
    /// Record the constructed run up to this time.
    horizon: Time,
}

impl Prescription {
    fn kept(&self, node: NodeId) -> bool {
        node.index() as usize <= self.kept[node.proc().index()].len()
    }

    /// The prescribed time of a kept non-initial node.
    fn time(&self, node: NodeId) -> Option<Time> {
        let k = (node.index() as usize).checked_sub(1)?;
        self.kept[node.proc().index()].get(k).copied()
    }
}

/// The kept lanes of a prefix-checked timing: [`NodeTiming`] iterates in
/// `(process, index)` order, so each lane fills in timeline order.
fn kept_lanes(timing: &NodeTiming, processes: usize) -> Vec<Vec<Time>> {
    let mut kept = vec![Vec::new(); processes];
    for (node, &t) in timing.iter().filter(|(node, _)| !node.is_initial()) {
        kept[node.proc().index()].push(t);
    }
    kept
}

/// What a queued delivery hands its node: an external input of the
/// source run (by id, so queue entries stay small and cheap to move) or a
/// message of the run under construction.
#[derive(Debug, Clone, Copy)]
enum PendingReceipt {
    External(ExternalId),
    Message(zigzag_bcm::MessageId),
}

/// The layout engine's pending deliveries, bucketed by delivery time and
/// recycled across constructions.
///
/// The layout engine runs once per constructed run — and the knowledge
/// engine constructs runs in batches (`refute` sweeps, fast-run
/// batteries). An arena threaded through the construction
/// ([`crate::knowledge::KnowledgeEngine::fast_run_of`] holds one per
/// observer) keeps the buckets' storage, so later calls reuse what the
/// first one grew.
///
/// Every delivery lands at least `L ≥ 1` tick after its send, so a node at
/// time `t` only queues deliveries for later times and a bucket is complete
/// once the engine reaches it. Sorting a bucket by `(proc, push number)`
/// yields each `(time, proc)` batch in push order — the order of a
/// `(time, proc, push number)` priority queue, at one map step per
/// delivery instead of a heap's sift. Pending times never span more than
/// the largest `U`, so the map stays small.
#[derive(Debug, Default)]
pub struct RunArena {
    /// Pending deliveries by time, each keyed by `proc << 32 | push number`.
    pending: BTreeMap<Time, Vec<(u64, PendingReceipt)>>,
    /// Emptied buckets, kept for reuse.
    spare: Vec<Vec<(u64, PendingReceipt)>>,
    /// Deliveries pushed so far in this construction.
    pushed: u32,
}

impl RunArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        RunArena::default()
    }

    fn push(&mut self, time: Time, proc: ProcessId, receipt: PendingReceipt) {
        let key = (proc.index() as u64) << 32 | u64::from(self.pushed);
        self.pushed += 1;
        let spare = &mut self.spare;
        self.pending
            .entry(time)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push((key, receipt));
    }

    /// The earliest bucket, sorted into `(proc, push order)`.
    fn pop_first(&mut self) -> Option<(Time, Vec<(u64, PendingReceipt)>)> {
        let (time, mut bucket) = self.pending.pop_first()?;
        bucket.sort_unstable_by_key(|&(key, _)| key);
        Some((time, bucket))
    }

    fn recycle(&mut self, mut bucket: Vec<(u64, PendingReceipt)>) {
        bucket.clear();
        self.spare.push(bucket);
    }
}

/// Lays out a run according to a prescription, replaying the kept prefix of
/// `source` at the prescribed times and handling fresh deliveries per the
/// Definition 24 rules. Queue storage is recycled through `arena` (see
/// [`RunArena`]). Fails with [`CoreError::InvalidTiming`] if the
/// prescription is internally inconsistent (a delivery would fall outside
/// its channel window or inside a kept prefix).
fn prescribed_run(source: &Run, p: &Prescription, arena: &mut RunArena) -> Result<Run, CoreError> {
    let result = prescribed_run_in(source, p, arena);
    // Hand what is still queued back on every path — error returns
    // (routine for refutation probing) must not cost the arena its
    // storage.
    while let Some((_, bucket)) = arena.pending.pop_first() {
        arena.recycle(bucket);
    }
    arena.pushed = 0;
    result
}

fn prescribed_run_in(
    source: &Run,
    p: &Prescription,
    arena: &mut RunArena,
) -> Result<Run, CoreError> {
    let ctx = source.context();
    let mut rb = RunBuilder::new(source.context_arc(), p.horizon);

    // Externals of the source run received at kept nodes, retimed; queued
    // first, so each leads its batch.
    for e in source.externals() {
        if !p.kept(e.node()) {
            continue;
        }
        let t = p.time(e.node()).ok_or_else(|| CoreError::InvalidTiming {
            detail: format!("kept node {} has no prescribed time", e.node()),
        })?;
        if t > p.horizon {
            continue;
        }
        arena.push(t, e.proc(), PendingReceipt::External(e.id()));
    }

    while let Some((time, bucket)) = arena.pop_first() {
        // One node per process with deliveries at `time`, in process order.
        for batch in bucket.chunk_by(|a, b| a.0 >> 32 == b.0 >> 32) {
            let proc = ProcessId::new((batch[0].0 >> 32) as u32);
            let node = rb
                .add_node(proc, time)
                .map_err(|e| CoreError::InvalidTiming {
                    detail: format!("prescription breaks timeline monotonicity: {e}"),
                })?;
            if p.kept(node) {
                // The kept prefix must reproduce exactly.
                let expected = p.time(node);
                if expected != Some(time) {
                    return Err(CoreError::InvalidTiming {
                        detail: format!(
                            "kept node {node} materialized at {time}, prescribed {expected:?}"
                        ),
                    });
                }
            }
            for &(_, receipt) in batch {
                match receipt {
                    PendingReceipt::External(e) => {
                        let name = source.externals()[e.index()].name();
                        rb.add_external(node, name).map_err(CoreError::Bcm)?;
                    }
                    PendingReceipt::Message(m) => {
                        rb.deliver(m, node).map_err(CoreError::Bcm)?;
                    }
                }
            }

            // FFIP flooding with prescribed delivery times.
            for &dst in ctx.network().out_neighbors(proc) {
                let cb = ctx
                    .bounds()
                    .get(Channel::new(proc, dst))
                    .expect("network channels always have bounds");
                let deliver_at = delivery_time(source, p, node, time, dst, cb.lower());
                // Internal-consistency checks (Lemma 17 / Lemma 18 guarantees).
                if deliver_at < time + cb.lower() || deliver_at > time + cb.upper() {
                    return Err(CoreError::InvalidTiming {
                        detail: format!(
                            "prescribed delivery of {node} → {dst} at {deliver_at} outside \
                             [{}, {}]",
                            time + cb.lower(),
                            time + cb.upper()
                        ),
                    });
                }
                let m = rb.send(node, dst, deliver_at).map_err(CoreError::Bcm)?;
                if deliver_at <= p.horizon {
                    arena.push(deliver_at, dst, PendingReceipt::Message(m));
                }
            }
        }
        arena.recycle(bucket);
    }

    Ok(rb.finish())
}

/// The Definition 24 delivery rule (generalized to also serve Lemma 8):
/// condition 1 (kept-to-kept replay), then condition 2 (pinned-to-upper
/// chain deliveries), then condition 3 (as early as the frontier allows).
fn delivery_time(
    source: &Run,
    p: &Prescription,
    src: NodeId,
    sent_at: Time,
    dst: ProcessId,
    lower: u64,
) -> Time {
    if p.kept(src) {
        if let Some(m) = source.message_from_to(src, dst) {
            if let Some(d) = source.message(m).delivery() {
                if let Some(t) = p.time(d.node) {
                    return t;
                }
            }
        }
    }
    if let Some(&t) = p.chain_upper.get(&(src.proc(), sent_at, dst)) {
        return t;
    }
    (sent_at + lower).max(p.frontier[dst.index()])
}

/// Derives per-process boundary indices from an explicit kept-node timing,
/// checking that the kept set is a per-timeline prefix.
fn boundaries_of(run: &Run, timing: &NodeTiming) -> Result<Vec<u32>, CoreError> {
    let n = run.context().network().len();
    let mut boundary = vec![0u32; n];
    for node in timing.keys() {
        if !run.appears(*node) {
            return Err(CoreError::NodeNotInRun {
                detail: format!("timed node {node} does not appear in the source run"),
            });
        }
        let b = &mut boundary[node.proc().index()];
        *b = (*b).max(node.index());
    }
    for (pi, &b) in boundary.iter().enumerate() {
        for k in 1..=b {
            let node = NodeId::new(ProcessId::new(pi as u32), k);
            if !timing.contains_key(&node) {
                return Err(CoreError::InvalidTiming {
                    detail: format!(
                        "kept set is not a per-timeline prefix: {node} missing \
                         below kept index {b}"
                    ),
                });
            }
        }
    }
    Ok(boundary)
}

/// Minimal feasible frontier times for an explicit timing: `ω_p` is at
/// least one past the kept boundary, closed under the `E'''` channel
/// constraints `ω_i <= ω_j + U_ji`, and must not violate any in-flight
/// upper bound `ω_j <= T(σ_i) + U_ij` (Lemma 8's legality condition at the
/// horizon). Computed in `i128`, so no `u64` time wraps.
fn frontier_for_timing(
    run: &Run,
    timing: &NodeTiming,
    boundary: &[u32],
) -> Result<Vec<Time>, CoreError> {
    let net = run.context().network();
    let bounds = run.context().bounds();
    let n = net.len();
    let ticks = |node: &NodeId| timing.get(node).map(|t| i128::from(t.ticks()));
    let mut omega: Vec<i128> = (0..n)
        .map(|pi| match boundary[pi] {
            0 => 1,
            b => ticks(&NodeId::new(ProcessId::new(pi as u32), b)).map_or(1, |t| t + 1),
        })
        .collect();
    // Longest-path (lower-bound) propagation over ω_b >= ω_a − U_ba.
    for _ in 0..=n {
        let mut changed = false;
        for ch in net.channels() {
            let u = i128::from(weights(bounds, ch.from, ch.to).1);
            // Constraint ω_{ch.to} <= ω_{ch.from} + U, i.e.
            // ω_{ch.from} >= ω_{ch.to} − U.
            let need = omega[ch.to.index()] - u;
            if omega[ch.from.index()] < need {
                omega[ch.from.index()] = need;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // In-flight upper bounds: messages from kept nodes whose delivery is
    // not kept must be deliverable at or after ω of their destination.
    for m in run.messages() {
        let src = m.src();
        if src.index() > boundary[src.proc().index()] {
            continue;
        }
        let kept_delivery = m
            .delivery()
            .map(|d| d.node.index() <= boundary[d.node.proc().index()])
            .unwrap_or(false);
        if kept_delivery {
            continue;
        }
        let t_src = ticks(&src).unwrap_or(0);
        let u = i128::from(weights(bounds, m.channel().from, m.channel().to).1);
        if omega[m.channel().to.index()] > t_src + u {
            return Err(CoreError::InvalidTiming {
                detail: format!(
                    "timing infeasible at the frontier: message {} from {src} must be \
                     delivered by {} but {}'s unrecorded region starts at {}",
                    m.id(),
                    t_src + u,
                    m.channel().to,
                    omega[m.channel().to.index()]
                ),
            });
        }
    }
    omega
        .into_iter()
        .map(|t| {
            u64::try_from(t.max(0))
                .map(Time::new)
                .map_err(|_| CoreError::InvalidTiming {
                    detail: format!("a frontier time {t} exceeds the u64 clock"),
                })
        })
        .collect()
}

/// Constructs the run `r[T]` of Lemma 8 from a valid timing function over a
/// p-closed, per-timeline-prefix set of nodes of `run`.
///
/// The constructed run contains exactly the timed nodes (at their
/// prescribed times, with the same receipts and node identities as in
/// `run`), the initial nodes, and whatever fresh over-the-frontier nodes
/// mandatory deliveries force into the recorded window.
///
/// # Errors
///
/// * [`CoreError::InvalidTiming`] if `timing` violates a `GB(r)` edge
///   constraint (Definition 10), the kept set is not a per-timeline prefix,
///   is not p-closed, or an in-flight message cannot be legally delayed
///   past the kept region;
/// * [`CoreError::NodeNotInRun`] if a timed node is not recorded.
pub fn run_by_timing(run: &Run, timing: &NodeTiming) -> Result<Run, CoreError> {
    let gb = BoundsGraph::of_run(run);
    crate::timing::check_valid_timing(&gb, timing)?;
    let boundary = boundaries_of(run, timing)?;
    // p-closedness: every receipt of a kept node comes from a kept node,
    // and every delivered message from a kept node lands on a kept node.
    for m in run.messages() {
        let Some(d) = m.delivery() else { continue };
        let src_kept = m.src().index() <= boundary[m.src().proc().index()];
        let dst_kept = d.node.index() <= boundary[d.node.proc().index()];
        if src_kept != dst_kept {
            return Err(CoreError::InvalidTiming {
                detail: format!(
                    "kept set is not p-closed: message {} crosses the kept boundary",
                    m.id()
                ),
            });
        }
    }
    let frontier = frontier_for_timing(run, timing, &boundary)?;
    let horizon = timing.values().copied().max().unwrap_or(Time::ZERO);
    let p = Prescription {
        kept: kept_lanes(timing, boundary.len()),
        frontier,
        chain_upper: BTreeMap::new(),
        horizon,
    };
    prescribed_run(run, &p, &mut RunArena::new())
}

/// The slow run of a node (Theorem 2's tightness witness).
#[derive(Debug)]
pub struct SlowRun {
    /// The constructed run, with every node of the σ-precedence set delayed
    /// as much as the bounds allow relative to `σ`.
    pub run: Run,
    /// The anchor node `σ`.
    pub sigma: NodeId,
    /// The realized timing of every kept node.
    pub timing: NodeTiming,
    /// `d(σ')`: the frontier-graph longest-path weight from each kept node
    /// to `σ`. In the slow run, `time(σ) − time(σ') = d(σ')` exactly.
    pub d: BTreeMap<NodeId, i64>,
}

/// Constructs the slow run of `sigma` (Definition 13 + Lemma 8): a legal
/// run with the same structure as `run` over the σ-precedence set, in which
/// `time(σ) − time(σ')` equals the longest-path weight `d(σ')` for *every*
/// node `σ'` with a (frontier-graph) path to `σ`. Nodes without such a path
/// do not appear.
///
/// This realizes the proof of Theorem 2: the longest-path bound is tight,
/// so any supported precedence `σ' --x--> σ` forces `d(σ') >= x`, and by
/// Lemma 5 a zigzag of that weight exists (see
/// [`crate::extract::zigzag_from_gb_path`]).
///
/// # Errors
///
/// Fails if `sigma` does not appear in `run`, or on internal inconsistency
/// (reported as [`CoreError::InvalidTiming`] — indicates a model bug).
pub fn slow_run(run: &Run, sigma: NodeId) -> Result<SlowRun, CoreError> {
    if !run.appears(sigma) {
        return Err(CoreError::NodeNotInRun {
            detail: format!("{sigma} does not appear in the run"),
        });
    }
    let fg = FrontierGraph::of_run(run);
    let lp = fg.longest_to(sigma)?;
    let n = run.context().network().len();
    let d_max = lp.max_weight().unwrap_or(0);

    let mut times = NodeTiming::new();
    let mut d = BTreeMap::new();
    let mut boundary = vec![0u32; n];
    let mut frontier: Vec<Option<Time>> = vec![None; n];
    let mut assigned_max = Time::ZERO;
    for vi in lp.connected() {
        let w = lp.weight(vi).expect("connected");
        let t = Time::new((d_max - w) as u64);
        assigned_max = assigned_max.max(t);
        match fg.vertex(vi) {
            ExtVertex::Node(node) => {
                d.insert(node, w);
                if !node.is_initial() {
                    times.insert(node, t);
                    let b = &mut boundary[node.proc().index()];
                    *b = (*b).max(node.index());
                } else {
                    // Initial nodes stay at time 0 (paper: V^{r,0}); their
                    // only outgoing constraint is the +1 successor edge,
                    // which time 0 always satisfies.
                    d.insert(node, w);
                }
            }
            ExtVertex::Aux(p) => frontier[p.index()] = Some(t),
        }
    }
    // Frontier vertices with no path to σ are unconstrained from below by
    // anything that appears; park them after everything assigned. (They can
    // never be the target of a fresh delivery: cascades only reach
    // connected frontiers — see DESIGN.md.)
    let park = assigned_max + 1;
    let frontier: Vec<Time> = frontier.into_iter().map(|t| t.unwrap_or(park)).collect();

    // The kept set must be a per-timeline prefix (successor edges guarantee
    // it); double-check cheaply.
    for (pi, &b) in boundary.iter().enumerate() {
        for k in 1..=b {
            let node = NodeId::new(ProcessId::new(pi as u32), k);
            if !times.contains_key(&node) {
                return Err(CoreError::InvalidTiming {
                    detail: format!("σ-precedence set is not prefix-closed at {node}"),
                });
            }
        }
    }

    let horizon = times.values().copied().max().unwrap_or(Time::ZERO);
    let p = Prescription {
        kept: kept_lanes(&times, n),
        frontier,
        chain_upper: BTreeMap::new(),
        horizon,
    };
    let constructed = prescribed_run(run, &p, &mut RunArena::new())?;
    Ok(SlowRun {
        run: constructed,
        sigma,
        timing: times,
        d,
    })
}

/// Rewrites `θ = ⟨σ', p⟩` into the equivalent node whose chain never
/// re-enters `past`: hops whose deliveries the observer has seen are
/// folded into the base. In every run indistinguishable at the observer
/// the two forms resolve to the same basic node.
pub(crate) fn canonicalize_in_past(
    run: &Run,
    past: &Past,
    observer: NodeId,
    theta: &GeneralNode,
) -> Result<GeneralNode, CoreError> {
    if !past.contains(theta.base()) {
        return Err(CoreError::NotRecognized {
            observer,
            detail: format!("base {} of {theta} is outside past(r, σ)", theta.base()),
        });
    }
    let procs = theta.path().procs();
    let mut cur = theta.base();
    let mut k = 0usize;
    while k + 1 < procs.len() {
        if cur.is_initial() {
            return Err(CoreError::InitialNode {
                detail: format!("{theta}: chain leaves initial node {cur}, which never sends"),
            });
        }
        let dst = procs[k + 1];
        let m = run
            .message_from_to(cur, dst)
            .ok_or_else(|| CoreError::NodeNotInRun {
                detail: format!("{theta}: no channel {} → {dst}", cur.proc()),
            })?;
        match run.message(m).delivery() {
            Some(d) if past.contains(d.node) => {
                cur = d.node;
                k += 1;
            }
            _ => break,
        }
    }
    if k + 1 == procs.len() && cur.is_initial() {
        return Err(CoreError::InitialNode {
            detail: format!("{theta} denotes an initial node (time 0)"),
        });
    }
    GeneralNode::new(
        cur,
        zigzag_bcm::NetPath::new(procs[k..].to_vec()).map_err(CoreError::Bcm)?,
    )
}

/// The γ-fast run of a σ-recognized node (Definition 24).
#[derive(Debug)]
pub struct FastRun {
    /// The constructed run `fast_γ^σ(r, θ')`.
    pub run: Run,
    /// The observer `σ` whose past is preserved (`run ~σ r`).
    pub sigma: NodeId,
    /// The γ parameter.
    pub gamma: u64,
    /// The fast timing the run realizes on `past(r, σ)`.
    pub timing: FastTiming,
    /// `time(θ')` in the constructed run (the anchor's chain runs at upper
    /// bounds, Definition 24 condition 2).
    pub theta_time: Time,
}

/// The Definition 24 condition-2 layout of a canonical node's chain:
/// [`canonicalize_in_past`] folded every hop whose delivery the observer
/// has seen into the base, so the chain leaves the past there and every
/// hop is pinned to its channel's upper bound. Each hop's channel with its
/// send and arrival offsets from the base at 0, in chain order; the
/// construction adds `T(base)`, and the knowledge answers read the
/// offsets as they are.
///
/// # Errors
///
/// Fails with [`zigzag_bcm::BcmError::MissingChannel`] naming a hop that
/// is not a channel.
pub(crate) fn chain_layout(
    bounds: &Bounds,
    theta: &GeneralNode,
) -> Result<Vec<(Channel, i64, i64)>, CoreError> {
    let mut t = 0;
    theta
        .path()
        .hops()
        .map(|hop| {
            let (_, upper) = hop_weights(bounds, hop)?;
            let send = t;
            t += upper;
            Ok((hop, send, t))
        })
        .collect()
}

/// Constructs the γ-fast run `fast_γ^σ(r, θ')` of Definition 24.
///
/// The result is indistinguishable from `run` at `sigma` (its past is
/// reproduced exactly, at the fast-timing times), `theta`'s chain is pushed
/// as *late* as the bounds allow (upper-bound deliveries), and every other
/// beyond-the-past delivery lands as *early* as possible. With `gamma > 0`,
/// nodes of the past unreachable from `theta`'s base are additionally
/// pushed `gamma` ticks earlier still — this is how Theorem 4 refutes
/// knowledge claims about unreachable nodes.
///
/// `extra_horizon` extends the recording window past the last prescribed
/// time (callers resolving another node `θ2` in the result should allow at
/// least `U(p2)`), by at most [`MAX_EXTENSION`] times the longer of the
/// source run's horizon and that time.
/// [`crate::knowledge::KnowledgeEngine::refute`] derives its extension
/// from the paths it refutes instead, and is not capped.
///
/// The free function builds `GB(r, σ)` and its `GE(r, σ)` view on every
/// call; [`crate::knowledge::KnowledgeEngine::fast_run_of`] shares them
/// across constructions.
///
/// # Errors
///
/// Fails if `sigma` does not appear, `theta`'s base is not σ-recognized or
/// `theta`'s chain cannot exist (initial base), with
/// [`CoreError::ParameterOutOfRange`] if `gamma` or `extra_horizon` is so
/// large that the run's times overflow or `extra_horizon` exceeds its
/// cap, or on internal inconsistency ([`CoreError::InvalidTiming`] — a
/// model bug).
pub fn fast_run(
    run: &Run,
    sigma: NodeId,
    theta: &GeneralNode,
    gamma: u64,
    extra_horizon: u64,
) -> Result<FastRun, CoreError> {
    let engine = crate::knowledge::KnowledgeEngine::new(run, sigma)?;
    fast_run_with(run, engine.ge(), theta, gamma, extra_horizon)
}

/// [`fast_run`] against an already-built view of `GE(r, σ)`.
///
/// # Errors
///
/// Same conditions as [`fast_run`].
pub fn fast_run_with(
    run: &Run,
    ge: GeView<'_>,
    theta: &GeneralNode,
    gamma: u64,
    extra_horizon: u64,
) -> Result<FastRun, CoreError> {
    // Anchor the fast timing at the *canonical* base: the deepest point of
    // θ's chain the observer has seen. (With a non-canonical anchor,
    // condition-1 deliveries along the chain prefix would override the
    // condition-2 upper-bound pinning and the run would not realize the
    // Theorem 4 extremal gap.)
    let canonical = canonicalize_in_past(run, ge.past(), ge.observer(), theta)?;
    let ft = fast_timing(ge, canonical.base(), gamma)?;
    fast_run_from_timing(
        run,
        ge.past(),
        &canonical,
        ft,
        Extension::Requested(extra_horizon),
        &mut RunArena::new(),
    )
}

/// The cap on a fast run's `extra_horizon`, as a multiple of the longer
/// of the source run's horizon and the fast run's last prescribed time:
/// the construction floods FFIP messages up to its horizon, so its work
/// grows with the extension.
pub const MAX_EXTENSION: u64 = 16;

/// How far a fast run records past its last prescribed time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Extension {
    /// A caller's `extra_horizon`, refused above [`MAX_EXTENSION`] times
    /// the longer of the source run's horizon and the last prescribed
    /// time.
    Requested(u64),
    /// The extension `refute` derives from the paths it refutes, long
    /// enough for their nodes to resolve: bounded by those paths, not by
    /// the cap.
    Derived(u64),
}

/// Assembles the γ-fast run from pre-resolved parts: the canonical anchor
/// and its (possibly cached) fast timing. `canonical` must be the
/// [`canonicalize_in_past`] rewriting of the anchor and `ft` the fast
/// timing of its base over the observer's `GE(r, σ)`, whose causal past
/// is `past` — the knowledge engine supplies both from its per-query
/// caches, along with its per-observer [`RunArena`] so repeated
/// constructions recycle the delivery-queue storage. Takes `ft` by value
/// so the free-function path moves its freshly built timing into the
/// result instead of cloning.
pub(crate) fn fast_run_from_timing(
    run: &Run,
    past: &Past,
    canonical: &GeneralNode,
    ft: FastTiming,
    extension: Extension,
    arena: &mut RunArena,
) -> Result<FastRun, CoreError> {
    let sigma = past.of();
    let gamma = ft.gamma;
    let base = ft
        .node_time(canonical.base())
        .ok_or_else(|| CoreError::NotRecognized {
            observer: sigma,
            detail: format!("{} is not in past(r, σ)", canonical.base()),
        })?;
    // Offsets are sums of upper bounds, so never negative.
    let at = |offset: i64| base + offset.unsigned_abs();
    let mut chain_upper = BTreeMap::new();
    let mut theta_time = base;
    for (hop, send, arrive) in chain_layout(run.context().bounds(), canonical)? {
        chain_upper.insert((hop.from, at(send), hop.to), at(arrive));
        theta_time = at(arrive);
    }

    // The past is a per-timeline prefix and iterates in timeline order.
    let mut kept = vec![Vec::new(); run.context().network().len()];
    for node in past.iter().filter(|node| !node.is_initial()) {
        let t = ft.node_time(node).expect("past nodes are timed");
        kept[node.proc().index()].push(t);
    }
    let frontier: Vec<Time> = run
        .context()
        .network()
        .processes()
        .map(|p| ft.aux_time(p).expect("every process has an auxiliary node"))
        .collect();

    let last = ft.max_time().max(theta_time).ticks();
    let (extra_horizon, cap) = match extension {
        Extension::Requested(extra) => (
            extra,
            MAX_EXTENSION.saturating_mul(last.max(run.horizon().ticks())),
        ),
        Extension::Derived(extra) => (extra, u64::MAX),
    };
    let horizon = last
        .checked_add(extra_horizon)
        .filter(|_| extra_horizon <= cap)
        .map(Time::new)
        .ok_or(CoreError::ParameterOutOfRange {
            parameter: "extra_horizon",
            value: extra_horizon,
        })?;
    let p = Prescription {
        kept,
        frontier,
        chain_upper,
        horizon,
    };
    let constructed = prescribed_run(run, &p, arena)?;
    Ok(FastRun {
        run: constructed,
        sigma,
        gamma,
        timing: ft,
        theta_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::check_valid_timing;
    use zigzag_bcm::protocols::Ffip;
    use zigzag_bcm::scheduler::RandomScheduler;
    use zigzag_bcm::validate::{validate_run, Strictness};
    use zigzag_bcm::{Network, Receipt, SimConfig, Simulator};

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
    fn frontier_graph_extends_gb() {
        let run = tri_run(0, 40);
        let fg = FrontierGraph::of_run(&run);
        let gb = BoundsGraph::of_run(&run);
        // Frontier graph has one extra vertex per process.
        assert_eq!(
            fg.vertex_count(),
            gb.node_count() + run.context().network().len()
        );
        // Every GB tight bound is at most the frontier tight bound.
        let i1 = NodeId::new(ProcessId::new(0), 1);
        let j1 = NodeId::new(ProcessId::new(1), 1);
        let gb_w = gb.longest_path(i1, j1).unwrap().map(|(w, _)| w);
        let fg_w = fg.tight_bound(i1, j1).unwrap();
        match (gb_w, fg_w) {
            (Some(g), Some(f)) => assert!(f >= g),
            (Some(_), None) => panic!("frontier graph lost a GB path"),
            _ => {}
        }
        // A legal run's clock holds at the horizon too: one Dijkstra ran.
        assert_eq!(fg.gb.graph().work().traversals, 1);
    }

    /// A node the run does not record is refused by name, at either end
    /// of a tight bound and as a `longest_to` root: beyond its
    /// timeline, or on a process the network does not have.
    #[test]
    fn frontier_graph_refuses_unrecorded_nodes() {
        let run = tri_run(0, 40);
        let fg = FrontierGraph::of_run(&run);
        let i1 = NodeId::new(ProcessId::new(0), 1);
        for missing in [
            NodeId::new(ProcessId::new(1), 1_000_000),
            NodeId::new(ProcessId::new(7), 1),
        ] {
            for got in [
                fg.tight_bound(i1, missing).map(drop),
                fg.tight_bound(missing, i1).map(drop),
                fg.longest_to(missing).map(drop),
            ] {
                assert!(
                    matches!(&got, Err(CoreError::NodeNotInRun { detail }) if detail.contains(&missing.to_string())),
                    "{missing}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn slow_run_is_legal_and_tight() {
        for seed in 0..8 {
            let run = tri_run(seed, 40);
            let sigma = NodeId::new(ProcessId::new(1), 2);
            if !run.appears(sigma) {
                continue;
            }
            let sr = slow_run(&run, sigma).unwrap();
            validate_run(&sr.run, Strictness::Strict).unwrap();
            let t_sigma = sr.run.time(sigma).expect("σ appears in its slow run");
            // Tightness: time(σ) − time(σ') == d(σ') for every kept node.
            for (&node, &t) in &sr.timing {
                assert_eq!(sr.run.time(node), Some(t), "seed {seed}: {node} mis-timed");
                let gap = t_sigma.diff(t);
                assert_eq!(
                    gap, sr.d[&node],
                    "seed {seed}: slow run not tight at {node}"
                );
            }
            // The slow timing is valid for the *constructed* run's GB too.
            let gb2 = BoundsGraph::of_run(&sr.run);
            check_valid_timing(&gb2, &sr.timing).unwrap();
        }
    }

    #[test]
    fn slow_run_preserves_kept_structure() {
        let run = tri_run(3, 40);
        let sigma = NodeId::new(ProcessId::new(2), 1);
        if !run.appears(sigma) {
            return;
        }
        let sr = slow_run(&run, sigma).unwrap();
        // Kept nodes have the same receipts (same shape) as in the source.
        for &node in sr.timing.keys() {
            let src_receipts = run.node(node).unwrap().receipts().len();
            let dst_receipts = sr.run.node(node).unwrap().receipts().len();
            assert_eq!(src_receipts, dst_receipts, "receipt mismatch at {node}");
        }
    }

    #[test]
    fn run_by_timing_replays_actual_times() {
        // The run's own times over the full node set are a valid timing;
        // run_by_timing must reproduce a legal run with those times, and
        // every node's receipts in the source run's order.
        let receipts = |run: &Run, node: NodeId| -> Vec<String> {
            let rec = run.node(node).expect("node appears");
            rec.receipts()
                .iter()
                .map(|r| match *r {
                    Receipt::External(e) => run.external(e).name().to_string(),
                    Receipt::Internal(m) => run.message(m).src().to_string(),
                })
                .collect()
        };
        let mut batched = 0;
        for seed in 0..8 {
            let run = tri_run(seed, 30);
            let timing: NodeTiming = run
                .nodes()
                .filter(|r| !r.id().is_initial())
                .map(|r| (r.id(), r.time()))
                .collect();
            let r2 = run_by_timing(&run, &timing).unwrap();
            validate_run(&r2, Strictness::Strict).unwrap();
            for (&node, &t) in &timing {
                assert_eq!(r2.time(node), Some(t));
                assert_eq!(
                    receipts(&r2, node),
                    receipts(&run, node),
                    "seed {seed}: {node}"
                );
                batched += usize::from(receipts(&run, node).len() > 1);
            }
        }
        assert!(batched > 0, "no node received a batch");
    }

    #[test]
    fn run_by_timing_rejects_invalid_timings() {
        let run = tri_run(1, 30);
        let mut timing: NodeTiming = run
            .nodes()
            .filter(|r| !r.id().is_initial())
            .map(|r| (r.id(), r.time()))
            .collect();
        // Violate a lower bound: receiver at the sender's time.
        let m = run
            .messages()
            .iter()
            .find(|m| m.is_delivered())
            .expect("some delivery");
        timing.insert(m.delivery().unwrap().node, m.sent_at());
        assert!(matches!(
            run_by_timing(&run, &timing),
            Err(CoreError::InvalidTiming { .. })
        ));
    }

    #[test]
    fn run_by_timing_rejects_non_prefix_sets() {
        let run = tri_run(2, 30);
        let j2 = NodeId::new(ProcessId::new(1), 2);
        if !run.appears(j2) {
            return;
        }
        let mut timing = NodeTiming::new();
        timing.insert(j2, run.time(j2).unwrap()); // j1 missing below it
        assert!(matches!(
            run_by_timing(&run, &timing),
            Err(CoreError::InvalidTiming { .. })
        ));
    }

    /// What `node` sees in `run`: its causal past's boundary per process
    /// and its receipts — each message by sender node and channel, each
    /// external by name — as a sorted multiset.
    fn local_view(run: &Run, node: NodeId) -> (Vec<Option<NodeId>>, Vec<String>) {
        let past = run.past(node);
        let net = run.context().network();
        let boundaries = net.processes().map(|p| past.boundary(p)).collect();
        let mut receipts: Vec<String> = run
            .node(node)
            .expect("the node appears")
            .receipts()
            .iter()
            .map(|r| match *r {
                Receipt::Internal(m) => {
                    let m = run.message(m);
                    format!("message from {} on {}", m.src(), m.channel())
                }
                Receipt::External(e) => format!("external {}", run.external(e).name()),
            })
            .collect();
        receipts.sort_unstable();
        (boundaries, receipts)
    }

    #[test]
    fn fast_run_is_legal_and_indistinguishable_at_sigma() {
        for seed in 0..8 {
            let run = tri_run(seed, 50);
            let sigma = NodeId::new(ProcessId::new(1), 2);
            if !run.appears(sigma) {
                continue;
            }
            let past = run.past(sigma);
            let anchor = past
                .iter()
                .find(|n| !n.is_initial() && *n != sigma)
                .unwrap_or(sigma);
            let theta = GeneralNode::basic(anchor);
            let fr = fast_run(&run, sigma, &theta, 0, 20).unwrap();
            validate_run(&fr.run, Strictness::Strict).unwrap();
            // σ's past is reproduced node for node, each node seeing the
            // same boundaries and receipts: the runs are indistinguishable
            // at σ.
            for node in past.iter() {
                assert!(fr.run.appears(node), "past node {node} missing in fast run");
                assert_eq!(
                    local_view(&fr.run, node),
                    local_view(&run, node),
                    "seed {seed}: {node}"
                );
                if !node.is_initial() {
                    assert_eq!(
                        fr.run.time(node),
                        fr.timing.node_time(node),
                        "seed {seed}: fast run mis-times {node}"
                    );
                }
            }
            assert_eq!(fr.theta_time, fr.run.time(anchor).unwrap());
            assert_eq!(fr.sigma, sigma);
            assert_eq!(fr.gamma, 0);
        }
    }

    #[test]
    fn fast_run_chain_runs_at_upper_bounds() {
        let run = tri_run(4, 60);
        let sigma = NodeId::new(ProcessId::new(1), 3);
        if !run.appears(sigma) {
            return;
        }
        let i = ProcessId::new(0);
        let k = ProcessId::new(2);
        let sigma_i = run.external_receipt_node(i, "kick").unwrap();
        if !run.past(sigma).contains(sigma_i) {
            return;
        }
        // θ = ⟨σ_i, [i, k]⟩: if the chain leaves the past, its delivery is
        // pinned to the upper bound U_ik = 7.
        let theta = GeneralNode::chain(sigma_i, &[k]).unwrap();
        let fr = fast_run(&run, sigma, &theta, 0, 30).unwrap();
        validate_run(&fr.run, Strictness::Strict).unwrap();
        let resolved_t = theta.time_in(&fr.run).unwrap();
        assert_eq!(resolved_t, fr.theta_time);
    }

    #[test]
    fn fast_run_gamma_pushes_unreachable_nodes_early() {
        // With γ > 0 every unreachable past node sits more than γ before
        // every reachable one — verified on the constructed run itself.
        for seed in 0..6 {
            let run = tri_run(seed, 50);
            let sigma = NodeId::new(ProcessId::new(1), 2);
            if !run.appears(sigma) {
                continue;
            }
            let anchor = sigma; // reachable from itself
            let theta = GeneralNode::basic(anchor);
            let fr = fast_run(&run, sigma, &theta, 9, 10).unwrap();
            validate_run(&fr.run, Strictness::Strict).unwrap();
            let past = run.past(sigma);
            for a in past.iter().filter(|n| !n.is_initial()) {
                for b in past.iter().filter(|n| !n.is_initial()) {
                    let (ra, rb) = (
                        fr.timing.is_reachable(ExtVertex::Node(a)),
                        fr.timing.is_reachable(ExtVertex::Node(b)),
                    );
                    if !ra && rb {
                        let (ta, tb) = (
                            fr.run.time(a).unwrap().ticks(),
                            fr.run.time(b).unwrap().ticks(),
                        );
                        assert!(ta + 9 < tb, "seed {seed}: γ separation violated");
                    }
                }
            }
        }
    }

    #[test]
    fn constructions_reject_missing_nodes() {
        let run = tri_run(0, 30);
        let ghost = NodeId::new(ProcessId::new(0), 99);
        assert!(slow_run(&run, ghost).is_err());
        assert!(fast_run(&run, ghost, &GeneralNode::basic(ghost), 0, 5).is_err());
        let sigma = NodeId::new(ProcessId::new(1), 1);
        if run.appears(sigma) {
            assert!(matches!(
                fast_run(&run, sigma, &GeneralNode::basic(ghost), 0, 5),
                Err(CoreError::NotRecognized { .. })
            ));
        }
    }
}
