//! Timing functions over bounds graphs (paper Definitions 9–13 and 23).
//!
//! A *valid timing function* assigns a time to each vertex so that every
//! edge constraint `T(v1) + w(v1, v2) <= T(v2)` holds; such assignments are
//! exactly the node timings of legal runs (Lemma 8). Two canonical timings
//! drive the necessity proofs:
//!
//! * the **slow timing** of a node `σ` (Definition 13): every node of the
//!   σ-precedence set is delayed as much as possible relative to `σ`,
//!   making longest-path bounds tight (Theorem 2);
//! * the **fast timing** of a σ-recognized node `θ'` over `GE(r, σ)`
//!   (Definition 23): everything reachable from `θ'`'s base is squeezed as
//!   early as possible (and everything unreachable pushed `γ` earlier
//!   still), realizing the minimal knowledge-consistent gap (Theorem 4).
//!
//! # Fast-timing lanes
//!
//! A [`FastTiming`] is built for each γ-fast run a caller constructs
//! ([`crate::construct::fast_run`],
//! [`crate::knowledge::KnowledgeEngine::fast_run_of`] and `refute`'s
//! counterexample), so it is stored densely: a `times` lane and a
//! `reachable` lane, each indexed by `GE(r, σ)` vertex index. The index
//! follows the graph's vertex layout (see [`crate::extended_graph`]) —
//! past nodes in `(process, index)` order, then `ψ_0, ψ_1, …` — so a
//! vertex lookup is index arithmetic plus one load, and
//! [`FastTiming::iter`] walks the lanes front to back, which yields the
//! vertices in ascending [`ExtVertex`] order. [`fast_timing`] fills both
//! lanes in one pass over two distance-only traversals of the observer's
//! view of `GB(r)` — longest paths from `θ'`'s base and to the observer,
//! each a Dijkstra under the run's own clock ([`GeView::distances_from`]
//! / [`GeView::distances_to`]) — and checks Lemma 17 in one linear scan
//! over the same rows the traversals read: `GB(r)`'s, cut at the
//! frontier, plus the view's overlay.
//!
//! A knowledge answer needs no absolute time. Every vertex reachable
//! from `σ'` gets `d(v)` plus one shift, `1 + F1 − F2 + γ − D`, and the
//! 0-fast run's gaps between such vertices are differences of `d`, so
//! the answers read the forward lane alone (`fast_lane`): one
//! traversal, and none to the observer. Its Lemma 17 check covers the
//! reached region the answers read, by the same scan.

#![deny(clippy::cast_possible_wrap)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use zigzag_bcm::{NodeId, Time};

use crate::bounds_graph::{BoundsGraph, NodeLayout};
use crate::error::CoreError;
use crate::extended_graph::{ExtVertex, GeView};
use crate::graph::{Direction, Distances, Rows};

/// A timing assignment for a subset of the basic nodes of a run.
pub type NodeTiming = BTreeMap<NodeId, Time>;

/// Checks Definition 10: for every edge of `gb` with both endpoints in the
/// domain of `t`, `T(v1) + w <= T(v2)`, compared without wrapping at any
/// `u64` time.
///
/// # Errors
///
/// Returns [`CoreError::InvalidTiming`] naming the first violated edge.
pub fn check_valid_timing(gb: &BoundsGraph, t: &NodeTiming) -> Result<(), CoreError> {
    let g = gb.graph();
    for vi in 0..g.vertex_count() {
        let from = *g.vertex(vi);
        let Some(&tf) = t.get(&from) else { continue };
        for e in g.edges_from(vi) {
            let to = *g.vertex(e.to);
            let Some(&tt) = t.get(&to) else { continue };
            if i128::from(tf.ticks()) + i128::from(e.weight) > i128::from(tt.ticks()) {
                return Err(CoreError::InvalidTiming {
                    detail: format!(
                        "edge {from} --{}--> {to} violated: T({from})={tf}, T({to})={tt}",
                        e.weight
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Checks Definition 11: `set` is precedence-closed w.r.t. `gb` — for every
/// edge `(v1, v2)` with `v2 ∈ set`, also `v1 ∈ set`.
pub fn is_p_closed(gb: &BoundsGraph, set: &std::collections::BTreeSet<NodeId>) -> bool {
    let g = gb.graph();
    for vi in 0..g.vertex_count() {
        let to = *g.vertex(vi);
        if !set.contains(&to) {
            continue;
        }
        for e in g.edges_to(vi) {
            if !set.contains(g.vertex(e.from)) {
                return false;
            }
        }
    }
    true
}

/// The slow timing of `sigma` (Definition 13), together with its domain —
/// the σ-precedence set `V_σ`.
#[derive(Debug, Clone)]
pub struct SlowTiming {
    /// The node everything is delayed relative to.
    pub sigma: NodeId,
    /// `D`: the weight of the longest path in `GB(r)` ending at `sigma`.
    pub d_max: i64,
    /// `T(σ') = D − d(σ')` for every `σ' ∈ V_σ`.
    pub timing: NodeTiming,
}

/// Computes the slow timing function `T^θ_r` of Definition 13 over the
/// σ-precedence set of `sigma`.
///
/// # Errors
///
/// Fails if `sigma` is not a vertex of `gb`, or with
/// [`CoreError::ClockFails`] if the run's clock fails on it.
pub fn slow_timing(gb: &BoundsGraph, sigma: NodeId) -> Result<SlowTiming, CoreError> {
    let lp = gb.longest_to(sigma)?;
    let d_max = lp.max_weight().unwrap_or(0);
    let mut timing = NodeTiming::new();
    for vi in lp.connected() {
        let node = *gb.graph().vertex(vi);
        let d = lp.weight(vi).expect("connected");
        let t = d_max - d;
        debug_assert!(t >= 0, "slow timing below zero");
        timing.insert(node, Time::new(t as u64));
    }
    Ok(SlowTiming {
        sigma,
        d_max,
        timing,
    })
}

/// The fast timing `T_γ[r, σ, θ']` of Definition 23 over `GE(r, σ)`,
/// stored as dense lanes (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct FastTiming {
    /// The γ parameter (how much earlier unreachable nodes are pushed).
    pub gamma: u64,
    /// The `GE(r, σ)` vertex layout the lanes follow.
    layout: NodeLayout,
    /// Timing of every vertex of `GE(r, σ)`, by dense index.
    times: Vec<Time>,
    /// Whether each vertex is reachable from `θ'`'s base in `GE(r, σ)`
    /// (the sets `V_σ^r(σ')` / `A_σ^r(σ')`), by dense index.
    reachable: Vec<bool>,
}

impl FastTiming {
    /// The assigned time of a vertex.
    pub fn time(&self, v: ExtVertex) -> Option<Time> {
        self.layout.ext_index(v).map(|i| self.times[i])
    }

    /// The assigned time of an original past node.
    pub fn node_time(&self, n: NodeId) -> Option<Time> {
        self.time(ExtVertex::Node(n))
    }

    /// The assigned time of the auxiliary node `ψ_p`.
    pub fn aux_time(&self, p: zigzag_bcm::ProcessId) -> Option<Time> {
        self.time(ExtVertex::Aux(p))
    }

    /// Whether `v` lies in the reachable region `V_σ^r(σ')` / `A_σ^r(σ')`.
    pub fn is_reachable(&self, v: ExtVertex) -> bool {
        self.layout.ext_index(v).is_some_and(|i| self.reachable[i])
    }

    /// The largest assigned time (useful for choosing horizons).
    pub fn max_time(&self) -> Time {
        self.times.iter().copied().max().unwrap_or(Time::ZERO)
    }

    /// Iterator over `(vertex, time)` pairs, in ascending vertex order.
    pub fn iter(&self) -> impl Iterator<Item = (ExtVertex, Time)> + '_ {
        self.times
            .iter()
            .enumerate()
            .map(|(i, &t)| (self.layout.ext_vertex(i), t))
    }
}

/// `sigma_prime` as a vertex of `ge`, or the error naming it outside the
/// observer's past.
fn anchor(ge: &GeView<'_>, sigma_prime: NodeId) -> Result<ExtVertex, CoreError> {
    let start = ExtVertex::Node(sigma_prime);
    match ge.index_of(start) {
        Some(_) => Ok(start),
        None => Err(CoreError::NotRecognized {
            observer: ge.observer(),
            detail: format!("{sigma_prime} is not in past(r, σ)"),
        }),
    }
}

/// Lemma 17's check in one linear scan over `ge`'s rows: every edge
/// `u --w--> v` leaving a vertex `u` that `t` assigns satisfies
/// `t(u) + w ≤ t(v)`, and one into a vertex `t` leaves unassigned is a
/// violation. `what` names the assignment in the error.
///
/// # Errors
///
/// Returns [`CoreError::InvalidTiming`] naming the first violated edge.
fn check_lemma_17(
    ge: &GeView<'_>,
    what: fmt::Arguments<'_>,
    t: impl Fn(usize) -> Option<i64>,
) -> Result<(), CoreError> {
    let walk = ge.walk();
    for u in 0..walk.vertex_count() {
        let Some(tu) = t(u) else { continue };
        let mut violated = None;
        walk.scan(u, Direction::Forward, |v, weight, _, _| {
            let tv = t(v);
            let holds = tv.is_some_and(|tv| i128::from(tu) + i128::from(weight) <= i128::from(tv));
            if !holds && violated.is_none() {
                violated = Some((v, weight, tv));
            }
        });
        if let Some((v, weight, tv)) = violated {
            let layout = ge.layout();
            let tv = tv.map_or_else(|| "unreached".to_owned(), |tv| tv.to_string());
            return Err(CoreError::InvalidTiming {
                detail: format!(
                    "{what} violates {} --{weight}--> {} (T={tu} vs T={tv})",
                    layout.ext_vertex(u),
                    layout.ext_vertex(v)
                ),
            });
        }
    }
    Ok(())
}

/// The forward distance lane from `sigma_prime` in `GE(r, σ)`: the
/// 0-fast timing of Definition 23 on the vertices reachable from
/// `sigma_prime`, less its shift (see the [module docs](self)). `None`
/// marks an unreachable vertex. Lemma 17 is checked on the reached
/// region: `d(u) + w ≤ d(v)` on every edge leaving a reached vertex,
/// whose head must be reached too.
///
/// # Errors
///
/// Fails if `sigma_prime` is not a past node of the graph's observer,
/// with [`CoreError::ClockFails`] if the run's clock fails on the view,
/// or with [`CoreError::InvalidTiming`] if the lane
/// violates an edge.
pub(crate) fn fast_lane(ge: GeView<'_>, sigma_prime: NodeId) -> Result<Arc<Distances>, CoreError> {
    let lane = ge.distances_from(anchor(&ge, sigma_prime)?)?;
    check_lemma_17(
        &ge,
        format_args!("the 0-fast lane from {sigma_prime}"),
        |v| lane.weight(v),
    )?;
    Ok(lane)
}

/// Computes the γ-fast timing of `sigma_prime` (the base of `θ'`) in
/// `GE(r, σ)` per Definition 23:
///
/// * reachable vertices get `1 + F1 − F2 + γ − D + d(v)`, where `d` is the
///   longest-path weight from `σ'`;
/// * unreachable original vertices get `F1 − f(v)`, where `f` is the
///   longest-path weight to the observer `σ`;
/// * unreachable auxiliary vertices get `0`.
///
/// The result satisfies every `GE` edge constraint (Lemma 17); this is
/// checked and any internal inconsistency reported as an error.
///
/// # Errors
///
/// Fails if `sigma_prime` is not a past node of the graph's observer,
/// with [`CoreError::ClockFails`] if the run's clock fails on the view,
/// or with [`CoreError::ParameterOutOfRange`] if
/// `gamma` pushes a time past `i64::MAX`.
pub fn fast_timing(
    ge: GeView<'_>,
    sigma_prime: NodeId,
    gamma: u64,
) -> Result<FastTiming, CoreError> {
    let lp_from = ge.distances_from(anchor(&ge, sigma_prime)?)?;
    let lp_to_sigma = ge.distances_to(ExtVertex::Node(ge.observer()))?;
    let layout = ge.layout();
    // Dense indices below `originals` are past nodes, the rest are ψs.
    let originals = layout.nodes();
    let n = ge.vertex_count();

    // Pass 1: collect d over the reachable region and f over unreachable
    // originals.
    let mut f1 = i64::MIN;
    let mut f2 = i64::MAX;
    let mut d_min = i64::MAX;
    let mut any_unreachable = false;
    for vi in 0..n {
        match lp_from.weight(vi) {
            Some(d) => d_min = d_min.min(d),
            None if vi < originals => {
                let f = lp_to_sigma
                    .weight(vi)
                    .ok_or_else(|| CoreError::InvalidTiming {
                        detail: "past node with no path to the observer (corrupt graph)".into(),
                    })?;
                any_unreachable = true;
                f1 = f1.max(f);
                f2 = f2.min(f);
            }
            None => {}
        }
    }
    if !any_unreachable {
        f1 = 0;
        f2 = 0;
    }
    debug_assert!(d_min <= 0, "d(σ') = 0 so the minimum is at most 0");

    // Pass 2: assign times. γ arrives unvalidated from callers (and the
    // wire), so the only unbounded term is added with overflow checks.
    let out_of_range = || CoreError::ParameterOutOfRange {
        parameter: "gamma",
        value: gamma,
    };
    let reach_base = i64::try_from(gamma)
        .ok()
        .and_then(|gamma| gamma.checked_add(1 + f1 - f2 - d_min))
        .ok_or_else(out_of_range)?;
    let mut times = Vec::with_capacity(n);
    let mut reachable = Vec::with_capacity(n);
    for vi in 0..n {
        let t = match lp_from.weight(vi) {
            Some(d) => reach_base.checked_add(d).ok_or_else(out_of_range)?,
            None if vi < originals => f1 - lp_to_sigma.weight(vi).expect("checked in pass 1"),
            None => 0,
        };
        debug_assert!(t >= 0);
        times.push(Time::new(t as u64));
        reachable.push(lp_from.reaches(vi));
    }

    // Lemma 17 check: every GE edge constraint holds. Times lie in
    // [0, i64::MAX], so each converts back exactly.
    check_lemma_17(&ge, format_args!("fast timing"), |v| {
        i64::try_from(times[v].ticks()).ok()
    })?;
    Ok(FastTiming {
        gamma,
        layout: layout.clone(),
        times,
        reachable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::KnowledgeEngine;
    use std::collections::BTreeSet;
    use zigzag_bcm::protocols::Ffip;
    use zigzag_bcm::scheduler::RandomScheduler;
    use zigzag_bcm::{Network, ProcessId, Run, SimConfig, Simulator};

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
    fn actual_times_are_a_valid_timing() {
        // The run's own times satisfy every GB constraint (Lemma 1's dual).
        for seed in 0..5 {
            let run = tri_run(seed);
            let gb = BoundsGraph::of_run(&run);
            let t: NodeTiming = run.nodes().map(|r| (r.id(), r.time())).collect();
            check_valid_timing(&gb, &t).unwrap();
        }
    }

    /// A time past `i64::MAX` is compared as the number it is: on a
    /// two-process FFIP run, `T(p0#1) = 2^63 + 5` and `T(p0#2) = 10`
    /// violate the successor edge `p0#1 --1--> p0#2`, however the times
    /// would wrap as `i64`.
    #[test]
    fn times_past_i64_max_do_not_wrap() {
        let mut b = Network::builder();
        let i = b.add_process("i");
        let j = b.add_process("j");
        b.add_bidirectional(i, j, 1, 2).unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SimConfig::with_horizon(Time::new(20)));
        sim.external(Time::new(1), i, "kick");
        let run = sim
            .run(&mut Ffip::new(), &mut RandomScheduler::seeded(0))
            .unwrap();
        let (i1, i2) = (NodeId::new(i, 1), NodeId::new(i, 2));
        assert!(run.appears(i2));
        let t: NodeTiming = [(i1, Time::new((1 << 63) + 5)), (i2, Time::new(10))].into();
        let gb = BoundsGraph::of_run(&run);
        assert!(matches!(
            check_valid_timing(&gb, &t),
            Err(CoreError::InvalidTiming { detail }) if detail.contains("p0#1 --1--> p0#2")
        ));
        assert!(crate::construct::run_by_timing(&run, &t).is_err());
    }

    #[test]
    fn perturbed_times_are_invalid() {
        let run = tri_run(0);
        let gb = BoundsGraph::of_run(&run);
        let mut t: NodeTiming = run.nodes().map(|r| (r.id(), r.time())).collect();
        // Move one delivered receiver before its sender's lower bound.
        let m = run
            .messages()
            .iter()
            .find(|m| m.is_delivered())
            .expect("some delivery");
        let d = m.delivery().unwrap();
        t.insert(d.node, m.sent_at());
        assert!(check_valid_timing(&gb, &t).is_err());
    }

    #[test]
    fn v_sigma_is_p_closed() {
        let run = tri_run(1);
        let gb = BoundsGraph::of_run(&run);
        let sigma = NodeId::new(ProcessId::new(1), 1);
        let vs: BTreeSet<NodeId> = gb.v_sigma(sigma).unwrap().into_iter().collect();
        assert!(is_p_closed(&gb, &vs));
        // Removing an interior node breaks p-closedness whenever some
        // member still has an edge to it.
        let mut broken = vs.clone();
        broken.remove(&sigma);
        let g = gb.graph();
        let has_member_pointing_at_sigma = (0..g.vertex_count()).any(|vi| {
            g.edges_from(vi)
                .iter()
                .any(|e| *g.vertex(e.to) == sigma && broken.contains(g.vertex(e.from)))
        });
        if has_member_pointing_at_sigma {
            assert!(!is_p_closed(&gb, &broken));
        }
    }

    #[test]
    fn slow_timing_is_valid_and_maximal_at_sigma() {
        for seed in 0..5 {
            let run = tri_run(seed);
            let gb = BoundsGraph::of_run(&run);
            let sigma = NodeId::new(ProcessId::new(2), 1);
            if !run.appears(sigma) {
                continue;
            }
            let st = slow_timing(&gb, sigma).unwrap();
            check_valid_timing(&gb, &st.timing).unwrap();
            assert_eq!(
                st.timing.get(&sigma).copied(),
                Some(Time::new(st.d_max as u64))
            );
            // The defining property: T(σ) − T(σ') equals the longest-path
            // weight d(σ').
            let lp = gb.longest_to(sigma).unwrap();
            for (&n, &t) in &st.timing {
                let d = lp.weight(gb.graph().index_of(&n).unwrap()).unwrap();
                assert_eq!(st.d_max - d, i64::try_from(t.ticks()).unwrap());
            }
        }
    }

    #[test]
    fn fast_timing_satisfies_lemma_17() {
        for seed in 0..5 {
            let run = tri_run(seed);
            let sigma = NodeId::new(ProcessId::new(1), 1);
            if !run.appears(sigma) {
                continue;
            }
            let engine = KnowledgeEngine::new(&run, sigma).unwrap();
            let ge = engine.ge();
            let sp = run
                .external_receipt_node(ProcessId::new(0), "kick")
                .unwrap();
            if !ge.past().contains(sp) {
                continue;
            }
            for gamma in [0u64, 3, 10] {
                let ft = fast_timing(ge, sp, gamma).unwrap();
                assert!(ft.is_reachable(ExtVertex::Node(sp)));
                assert!(ft.node_time(sp).is_some());
                assert!(ft.max_time() >= ft.node_time(sp).unwrap());
                assert_eq!(ft.gamma, gamma);
                // Claim 4 of Lemma 17: every unreachable original is more
                // than γ before every reachable original.
                for (v, t) in ft.iter() {
                    if matches!(v, ExtVertex::Node(_)) && !ft.is_reachable(v) {
                        for (v2, t2) in ft.iter() {
                            if matches!(v2, ExtVertex::Node(_)) && ft.is_reachable(v2) {
                                assert!(
                                    t.ticks() + gamma < t2.ticks(),
                                    "unreachable {v} at {t} not {gamma}-before {v2} at {t2}"
                                );
                            }
                        }
                    }
                }
                // Aux times are queryable.
                let _ = ft.aux_time(ProcessId::new(0));
            }
        }
    }

    #[test]
    fn fast_timing_rejects_foreign_nodes() {
        let run = tri_run(0);
        let sigma = NodeId::new(ProcessId::new(1), 1);
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        let foreign = NodeId::new(ProcessId::new(0), 40);
        assert!(matches!(
            fast_timing(engine.ge(), foreign, 0),
            Err(CoreError::NotRecognized { .. })
        ));
    }
}
