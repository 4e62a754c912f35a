//! Witness extraction: bounds-graph paths ⇒ zigzag patterns.
//!
//! The necessity theorems assert that zigzag patterns *exist*; this module
//! makes them concrete. [`zigzag_from_gb_path`] implements Lemma 5 (every
//! path in `GB(r)` induces a zigzag of equal weight) and
//! [`zigzag_from_ge_path`] its `GE(r, σ)` generalization underlying
//! Lemmas 10–16 (paths through auxiliary nodes induce *σ-visible* zigzags
//! of equal weight). The extracted patterns are independent objects that
//! can be re-validated against the run — the theorem test-suites do exactly
//! that, closing the loop between graph reasoning and communication
//! patterns.

use zigzag_bcm::{NetPath, NodeId, ProcessId, Run};

use crate::bounds_graph::{BoundsGraph, LABEL_RECV, LABEL_SEND, LABEL_SUCCESSOR};
use crate::error::CoreError;
use crate::extended_graph::{ExtVertex, GeView, LABEL_AUX_CHAN, LABEL_BOUNDARY, LABEL_UNSEEN};
use crate::fork::TwoLeggedFork;
use crate::graph::Edge;
use crate::node::GeneralNode;
use crate::pattern::ZigzagPattern;

/// One resolved step of a bounds-graph path, in walk order.
#[derive(Debug, Clone)]
enum PathStep {
    /// A `+1` timeline-successor edge between consecutive nodes.
    Succ { from: NodeId },
    /// A `+L` edge: a message from `from` delivered at `to`.
    Send { from: NodeId, to_proc: ProcessId },
    /// A `−U` edge: `from` received a message sent at `to` (walking from
    /// receiver back to sender).
    Recv { from: NodeId },
    /// An auxiliary interlude `σ_b → ψ_{l1} → … → ψ_{lk} → σ_s`
    /// (`E' · E'''* · E''`): the boundary node `σ_b` precedes the unseen
    /// delivery of `σ_s`'s message chain along `q = [s, lk, …, l1]`.
    Interlude {
        boundary: NodeId,
        sender: NodeId,
        q: NetPath,
    },
}

fn vertex_node<V: std::hash::Hash + Eq + Copy + std::fmt::Display>(
    g: &crate::graph::WeightedDigraph<V>,
    i: usize,
) -> V {
    *g.vertex(i)
}

/// Builds the zigzag by the backward induction of Lemma 5 (extended with
/// interlude forks per Lemma 11). Maintains the invariant that the front
/// fork's tail resolves to the current walk position.
fn zigzag_from_steps(end: NodeId, steps: &[PathStep]) -> Result<ZigzagPattern, CoreError> {
    let mut forks: Vec<TwoLeggedFork> = vec![TwoLeggedFork::trivial(GeneralNode::basic(end))];
    for step in steps.iter().rev() {
        match step {
            PathStep::Succ { from } => {
                forks.insert(0, TwoLeggedFork::trivial(GeneralNode::basic(*from)));
            }
            PathStep::Send { from, to_proc } => {
                let head = NetPath::new(vec![from.proc(), *to_proc]).map_err(CoreError::Bcm)?;
                forks.insert(
                    0,
                    TwoLeggedFork::new(
                        GeneralNode::basic(*from),
                        head,
                        NetPath::singleton(from.proc()),
                    )?,
                );
            }
            PathStep::Recv { from } => {
                // Extend the front fork's tail by one hop: the tail
                // currently resolves to the sender; the message lands at
                // `from`.
                let front = forks.remove(0);
                let tail = front
                    .tail_path()
                    .extended(from.proc())
                    .map_err(CoreError::Bcm)?;
                forks.insert(
                    0,
                    TwoLeggedFork::new(front.base().clone(), front.head_path().clone(), tail)?,
                );
                forks.insert(0, TwoLeggedFork::trivial(GeneralNode::basic(*from)));
            }
            PathStep::Interlude {
                boundary,
                sender,
                q,
            } => {
                forks.insert(
                    0,
                    TwoLeggedFork::new(
                        GeneralNode::basic(*sender),
                        NetPath::singleton(sender.proc()),
                        q.clone(),
                    )?,
                );
                // Restore the invariant: the walk position is the boundary
                // node on `q`'s last process. The trivial fork makes the
                // (necessarily non-joined, +1) junction explicit — this +1
                // is exactly the `E'` edge's weight.
                forks.insert(0, TwoLeggedFork::trivial(GeneralNode::basic(*boundary)));
            }
        }
    }
    ZigzagPattern::new(forks)
}

/// Converts a `GB(r)` edge path (as returned by
/// [`BoundsGraph::longest_path`]) into steps.
fn gb_steps(gb: &BoundsGraph, edges: &[Edge]) -> Result<Vec<PathStep>, CoreError> {
    let g = gb.graph();
    edges
        .iter()
        .map(|e| {
            let from = vertex_node(g, e.from);
            let to = vertex_node(g, e.to);
            match e.label {
                LABEL_SUCCESSOR => Ok(PathStep::Succ { from }),
                LABEL_SEND => Ok(PathStep::Send {
                    from,
                    to_proc: to.proc(),
                }),
                LABEL_RECV => Ok(PathStep::Recv { from }),
                other => Err(CoreError::MalformedPattern {
                    detail: format!("unexpected GB edge label {other}"),
                }),
            }
        })
        .collect()
}

/// Lemma 5: converts a path in the basic bounds graph into a zigzag
/// pattern of **equal weight** between the same endpoints.
///
/// `edges` must be a contiguous walk starting at `from` (as produced by
/// [`BoundsGraph::longest_path`]); an empty walk yields the trivial
/// single-fork pattern at `from`.
///
/// # Errors
///
/// Returns [`CoreError::MalformedPattern`] if the edges do not form a GB
/// walk.
pub fn zigzag_from_gb_path(
    gb: &BoundsGraph,
    from: NodeId,
    edges: &[Edge],
) -> Result<ZigzagPattern, CoreError> {
    let end = edges
        .last()
        .map(|e| vertex_node(gb.graph(), e.to))
        .unwrap_or(from);
    let steps = gb_steps(gb, edges)?;
    zigzag_from_steps(end, &steps)
}

/// The tight precedence between two nodes together with its zigzag
/// witness: computes the canonical longest `from → to` path in `GB(r)`
/// ([`BoundsGraph::longest_path`]) and extracts the Lemma 5 pattern.
/// Returns `Ok(None)` if no path constrains the pair.
///
/// By Theorem 2, whenever the system supports `from --x--> to` the
/// returned weight is at least `x`.
///
/// # Errors
///
/// Fails if either node is missing from the graph or with
/// [`CoreError::ClockFails`] if the run's clock fails on it.
pub fn zigzag_for_pair(
    run: &Run,
    from: NodeId,
    to: NodeId,
) -> Result<Option<(i64, ZigzagPattern)>, CoreError> {
    let gb = BoundsGraph::of_run(run);
    match gb.longest_path(from, to)? {
        Some((w, edges)) => {
            let z = zigzag_from_gb_path(&gb, from, &edges)?;
            Ok(Some((w, z)))
        }
        None => Ok(None),
    }
}

/// Converts a `GE(r, σ)` edge path into steps, grouping auxiliary
/// interludes (`E' · E'''* · E''`) into single [`PathStep::Interlude`]s.
///
/// Both endpoints must be original (basic) vertices.
fn ge_steps(
    vertex: &impl Fn(usize) -> ExtVertex,
    edges: &[Edge],
) -> Result<Vec<PathStep>, CoreError> {
    let mut steps = Vec::new();
    let mut i = 0;
    while i < edges.len() {
        let e = edges[i];
        let from = vertex(e.from);
        let to = vertex(e.to);
        match e.label {
            LABEL_SUCCESSOR => {
                steps.push(PathStep::Succ {
                    from: from.node().expect("successor edges join basic nodes"),
                });
                i += 1;
            }
            LABEL_SEND => {
                steps.push(PathStep::Send {
                    from: from.node().expect("send edges join basic nodes"),
                    to_proc: to.proc(),
                });
                i += 1;
            }
            LABEL_RECV => {
                steps.push(PathStep::Recv {
                    from: from.node().expect("recv edges join basic nodes"),
                });
                i += 1;
            }
            LABEL_BOUNDARY => {
                // E' into aux-land; walk E'''* until the E'' exit.
                let boundary = from.node().expect("E' edges leave basic nodes");
                let mut procs_rev = vec![to.proc()]; // l1
                let mut j = i + 1;
                loop {
                    let Some(e2) = edges.get(j) else {
                        return Err(CoreError::MalformedPattern {
                            detail: "GE path ends inside an auxiliary interlude".into(),
                        });
                    };
                    match e2.label {
                        LABEL_AUX_CHAN => {
                            procs_rev.push(vertex(e2.to).proc());
                            j += 1;
                        }
                        LABEL_UNSEEN => {
                            let sender =
                                vertex(e2.to).node().expect("E'' edges end at basic nodes");
                            // q = [s, lk, …, l1].
                            let mut procs = vec![sender.proc()];
                            procs.extend(procs_rev.iter().rev().copied());
                            let q = NetPath::new(procs).map_err(CoreError::Bcm)?;
                            steps.push(PathStep::Interlude {
                                boundary,
                                sender,
                                q,
                            });
                            i = j + 1;
                            break;
                        }
                        other => {
                            return Err(CoreError::MalformedPattern {
                                detail: format!("unexpected label {other} inside interlude"),
                            })
                        }
                    }
                }
            }
            other => {
                return Err(CoreError::MalformedPattern {
                    detail: format!("unexpected GE edge label {other} outside interlude"),
                })
            }
        }
    }
    Ok(steps)
}

/// Lemmas 10–16 (basic-endpoint case): converts a path in `GE(r, σ)`
/// between two past nodes into a **σ-visible** zigzag pattern of equal
/// weight.
///
/// Segments through auxiliary nodes become boundary forks whose tails are
/// beyond-the-past message chains; by construction every fork head below
/// the top lies in `past(r, σ)`, so the result satisfies Definition 7 (see
/// [`crate::visible::VisibleZigzag`]).
///
/// # Errors
///
/// Returns [`CoreError::MalformedPattern`] if the edges are not a GE walk
/// between original vertices.
pub fn zigzag_from_ge_path(
    ge: GeView<'_>,
    from: NodeId,
    edges: &[Edge],
) -> Result<ZigzagPattern, CoreError> {
    zigzag_from_ge_walk(&|i| ge.vertex(i), from, edges)
}

/// [`zigzag_from_ge_path`] over a walk whose dense indices `vertex`
/// resolves.
pub(crate) fn zigzag_from_ge_walk(
    vertex: &impl Fn(usize) -> ExtVertex,
    from: NodeId,
    edges: &[Edge],
) -> Result<ZigzagPattern, CoreError> {
    let end = match edges.last() {
        Some(e) => vertex(e.to)
            .node()
            .ok_or_else(|| CoreError::MalformedPattern {
                detail: "GE path for zigzag extraction must end at a basic node".into(),
            })?,
        None => from,
    };
    let steps = ge_steps(vertex, edges)?;
    zigzag_from_steps(end, &steps)
}

/// Lemma 16: extends the head of a pattern's top fork along `ext`,
/// producing a pattern to `to_node() · ext` whose weight grows by
/// `L(ext)`. The forks below the top move into the result.
///
/// # Errors
///
/// Fails if `ext` does not start at the current head's process.
pub fn extend_head(pattern: ZigzagPattern, ext: &NetPath) -> Result<ZigzagPattern, CoreError> {
    if ext.is_singleton() {
        return Ok(pattern);
    }
    let mut forks = pattern.into_forks();
    let top = forks.pop().expect("patterns are non-empty");
    let head = top.head_path().compose(ext).map_err(CoreError::Bcm)?;
    forks.push(TwoLeggedFork::new(
        top.base().clone(),
        head,
        top.tail_path().clone(),
    )?);
    ZigzagPattern::new(forks)
}

/// Prepends the Lemma 10 "type 1" fork anchoring a pattern at a general
/// node `θ1 = ⟨σ1, p1⟩` whose chain weight is `−U(p1)`: a fork with base
/// and head at `σ1` and tail `θ1`. If `p1` is a singleton this is the
/// identity. The pattern's forks move into the result.
///
/// # Errors
///
/// Fails if the pattern's first fork does not sit at `σ1`'s process.
pub fn anchor_tail(
    pattern: ZigzagPattern,
    theta1: &GeneralNode,
) -> Result<ZigzagPattern, CoreError> {
    if theta1.is_basic() {
        return Ok(pattern);
    }
    let fork = TwoLeggedFork::new(
        GeneralNode::basic(theta1.base()),
        NetPath::singleton(theta1.base().proc()),
        theta1.path().clone(),
    )?;
    ZigzagPattern::single(fork).concat(pattern)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::slow_run;
    use crate::extended_graph::ExtVertex;
    use zigzag_bcm::protocols::Ffip;
    use zigzag_bcm::scheduler::RandomScheduler;
    use zigzag_bcm::{Network, SimConfig, Simulator, Time};

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
    fn lemma5_weight_equality_across_pairs() {
        // Every GB longest path converts to a zigzag that validates with
        // exactly the path's weight.
        for seed in 0..6 {
            let run = tri_run(seed, 35);
            let gb = BoundsGraph::of_run(&run);
            let nodes: Vec<NodeId> = run
                .nodes()
                .map(|r| r.id())
                .filter(|n| !n.is_initial())
                .collect();
            let mut checked = 0;
            for &a in &nodes {
                for &b in &nodes {
                    let Some((w, edges)) = gb.longest_path(a, b).unwrap() else {
                        continue;
                    };
                    let z = zigzag_from_gb_path(&gb, a, &edges).unwrap();
                    let report = match z.validate(&run) {
                        Ok(rep) => rep,
                        // Chains may leave the recorded horizon.
                        Err(CoreError::HorizonTooSmall { .. }) => continue,
                        Err(e) => panic!("seed {seed} {a}->{b}: {e}"),
                    };
                    assert_eq!(report.weight, w, "seed {seed}: weight mismatch {a}->{b}");
                    assert_eq!(report.from, a);
                    assert_eq!(report.to, b);
                    checked += 1;
                }
            }
            assert!(checked > 0, "seed {seed}: nothing checked");
        }
    }

    #[test]
    fn empty_path_is_trivial_pattern() {
        let run = tri_run(0, 30);
        let gb = BoundsGraph::of_run(&run);
        let i1 = NodeId::new(ProcessId::new(0), 1);
        let z = zigzag_from_gb_path(&gb, i1, &[]).unwrap();
        let report = z.validate(&run).unwrap();
        assert_eq!(report.from, i1);
        assert_eq!(report.to, i1);
        assert_eq!(report.weight, 0);
    }

    #[test]
    fn zigzag_for_pair_agrees_with_slow_run_gap() {
        // Theorem 2 round trip: the extracted zigzag weight equals the GB
        // longest path, and the slow run realizes at least that gap
        // exactly when the frontier does not bind (interior pairs).
        for seed in 0..5 {
            let run = tri_run(seed, 40);
            let sigma = NodeId::new(ProcessId::new(1), 2);
            if !run.appears(sigma) {
                continue;
            }
            let sr = slow_run(&run, sigma).unwrap();
            for (&node, &dd) in &sr.d {
                if node.is_initial() || node == sigma {
                    continue;
                }
                if let Some((w, _z)) = zigzag_for_pair(&run, node, sigma).unwrap() {
                    // GB path weight is a sound lower bound on the
                    // frontier-tight gap realized by the slow run.
                    assert!(w <= dd, "seed {seed}: GB weight {w} exceeds tight {dd}");
                }
            }
        }
    }

    #[test]
    fn ge_paths_extract_visible_zigzags() {
        use crate::visible::VisibleZigzag;
        for seed in 0..6 {
            let run = tri_run(seed, 60);
            let sigma = NodeId::new(ProcessId::new(1), 2);
            if !run.appears(sigma) {
                continue;
            }
            let engine = crate::knowledge::KnowledgeEngine::new(&run, sigma).unwrap();
            let ge = engine.ge();
            let past = run.past(sigma);
            let sources: Vec<NodeId> = past.iter().filter(|n| !n.is_initial()).collect();
            let mut checked = 0;
            for &a in &sources {
                for &b in &sources {
                    let ends = (ExtVertex::Node(a), ExtVertex::Node(b));
                    let Some((w, edges)) = ge.longest_path(ends.0, ends.1).unwrap() else {
                        continue;
                    };
                    let z = zigzag_from_ge_path(ge, a, &edges).unwrap();
                    let vz = VisibleZigzag::new(z, sigma);
                    let report = match vz.validate(&run) {
                        Ok(rep) => rep,
                        Err(CoreError::HorizonTooSmall { .. }) => continue,
                        Err(e) => panic!("seed {seed} {a}->{b}: {e}"),
                    };
                    assert_eq!(report.weight, w, "seed {seed}: {a}->{b} weight mismatch");
                    assert_eq!((report.from, report.to), (a, b));
                    checked += 1;
                }
            }
            assert!(checked > 0, "seed {seed}: no GE extractions checked");
        }
    }

    #[test]
    fn anchor_and_extend() {
        let run = tri_run(2, 50);
        let gb = BoundsGraph::of_run(&run);
        let i = ProcessId::new(0);
        let j = ProcessId::new(1);
        let i1 = NodeId::new(i, 1);
        let j1 = NodeId::new(j, 1);
        let Some((w, edges)) = gb.longest_path(i1, j1).unwrap() else {
            return;
        };
        let z = zigzag_from_gb_path(&gb, i1, &edges).unwrap();
        // Anchor the tail at θ1 = ⟨i1, [i, j]⟩ (weight −U_ij = −5)…
        let theta1 = GeneralNode::chain(i1, &[j]).unwrap();
        let anchored = anchor_tail(z.clone(), &theta1).unwrap();
        // …and extend the head by one hop j → k (weight +L_jk = +1).
        let ext = NetPath::new(vec![j, ProcessId::new(2)]).unwrap();
        let extended = extend_head(anchored, &ext).unwrap();
        match extended.validate(&run) {
            Ok(rep) => {
                assert_eq!(rep.weight, w - 5 + 1);
                assert_eq!(rep.from.proc(), j); // tail is θ1, a j-node
                assert_eq!(rep.to.proc(), ProcessId::new(2));
            }
            Err(CoreError::HorizonTooSmall { .. }) => {}
            Err(e) => panic!("{e}"),
        }
        // Basic anchors and singleton extensions are identities.
        assert_eq!(anchor_tail(z.clone(), &GeneralNode::basic(i1)).unwrap(), z);
        assert_eq!(extend_head(z.clone(), &NetPath::singleton(j)).unwrap(), z);
    }
}
