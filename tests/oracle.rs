//! The differential test oracle: a naive, allocation-heavy reference
//! implementation of the Theorem 4 decision procedure, cross-checked
//! against the optimized [`KnowledgeEngine`] on proptest-generated random
//! topologies and schedules.
//!
//! The reference rebuilds `GE(r, σ)` straight from Definition 16 into
//! `BTreeMap` adjacency (no dense indices, no interning), runs a textbook dense
//! Bellman–Ford per source (no heap, no memoization, fresh maps per
//! call), and answers basic-node `max_x` queries as plain longest-path
//! weights. Anything the engine amortizes — shared `GE`, cached traversals,
//! the dense all-pairs matrix, the GE-sharing `fast_run_of`/`refute`
//! path — must produce *exactly* these answers:
//!
//! * `max_x`/`knows` per pair, warm and cold;
//! * `max_x_basic_matrix` cell-for-cell;
//! * the materialized 0-fast run's realized gap per reachable pair;
//! * `refute`: `None` iff the claim is within the threshold, and returned
//!   counterexample runs validate and actually violate the claim.
//!
//! A third, **prefix-differential** block streams each run through the
//! incremental engine and holds it to the batch answers after *every*
//! append: `max_x` / `knows` / `max_x_basic_matrix` byte-for-byte on a
//! fresh `KnowledgeEngine` over the same prefix, `GB(r)` tight bounds
//! against a scratch `BoundsGraph`, and exact reconstruction of the
//! source run once the feed drains. Every witness it serves, and that
//! engine's, must equal the reference's wire bytes: the canonical
//! maximum-weight path (fewest edges, then each hop's least
//! `(label, vertex)` tight in-edge), computed from the naive graph and
//! its dense Bellman–Ford and rendered by the public extraction
//! functions.
//!
//! Since the `zigzag::api` facade landed, the first and third blocks
//! additionally route every comparison through
//! `ZigzagService::dispatch` — a batch session alongside the direct
//! batch engine, and a stream session alongside the direct incremental
//! engine, checked at **every** prefix — so the facade's one shared
//! dispatch path is pinned byte-identical to the direct calls on the
//! same oracle case set.
//!
//! Since the sharded serving layer landed (PR 5), two more tiers pin the
//! throughput path:
//!
//! * **sharded dispatch**: [`zigzag::api::serve::serve`] over random
//!   session mixes (batch + replayed stream sessions on sharded tables)
//!   must return responses byte-identical to the serial
//!   decode-dispatch-encode loop at worker counts 1, 2 and 8 — error
//!   documents included;
//! * **exclude-mode decision state**: the incremental engine's
//!   own-sends-excluded views of its `GB(r)` (`uncached_engine`) must
//!   answer exactly like a fresh
//!   `ObserverState::build_excluding_own_sends` on the same prefix after
//!   **every** append — for the newest node and for a long-lived
//!   observer, whose cached full-mode state crosses many appends — and
//!   the streaming driver's exclude-mode Protocol 2 decisions must equal
//!   fresh per-prefix rebuilds on a feedback (B-with-outgoing-channels)
//!   topology.
//!
//! Six proptest blocks × (128 + 96 + 100 + 64 + 32 + 48) cases ≥ the
//! 200-random-case floor (and the 100-case prefix floor); every
//! run-level case is a fresh `(topology, schedule)` pair.
//!
//! A **layout tier** pins the hot core's one traversal directly at sizes
//! where the layout matters: random raw graphs on a clock at
//! n ∈ {64, 256} (each edge weighs `t(v) − t(u) − slack`) hold the cold
//! Dijkstra in both directions, the memoized hit and the append-log
//! catch-up to a textbook dense Bellman–Ford, and the path to every
//! vertex of the final graph to the naive canonical reference, summing
//! to its weight. On the graph shape of `benches/layout.rs` a counter
//! test pins a cold traversal at one pop per reached vertex and one scan
//! per reached edge, and each catch-up at one pop per vertex it raises.
//! A bulk-built
//! `GB(r)`'s `longest_path` is held to the same reference over the naive
//! Definition 8 graph, and a counting-allocator test asserts the warm
//! memoized query loop performs zero heap allocations.
//!
//! A **frontier tier** holds the frontier graph of `construct`, `GB(r)`
//! closed at the recording horizon, to Definition 16 closed there, on the
//! first block's cases and the out-of-bounds run below: `longest_to(σ)`
//! at every vertex and `tight_bound` from a spread of roots, against the
//! dense Bellman–Ford. A second counting-allocator test gates the cold
//! path: a cold standalone `ObserverState::build` allocates at most
//! `2·|V| + 64` times and the first `max_x` on it a size-independent
//! number of times, and on a session, building a state and answering
//! its first `max_x` allocates a constant number of times whatever |V|.
//!
//! A **view tier** holds `GE(r, σ)` as a view — over a standalone
//! engine's `GB(r, σ)`, a batch session's `GB(r)` (bulk-order rows) and
//! a stream session's (append-order rows), in both observer modes — to
//! the naive graph on the first block's cases and on feedback-topology
//! streams: its vertex set, the `(endpoint, weight, label)` multiset of
//! every out-row and in-row, its forward and backward distance lanes
//! against the dense Bellman–Ford, and its dense `FastTiming` against a
//! naive Definition 23 evaluation for γ ∈ {0, 5}. Each view runs
//! Dijkstra under the run's own clock, and so do Figure 1's run, whose
//! `ψ` vertices have no in-edges, and a run with a late node whose keys
//! fit. A later node, whose `ψ` or keys would overflow, a hand-built run
//! with a delivery outside its channel bounds, and a feed that strands a
//! message behind its receiver's latest node fail the clock: `GB(r)`
//! (where its own edges fail) and every view refuse each traversal —
//! cold, memoized, caught up — with `CoreError::ClockFails`, and do no
//! traversal work. Every `B`-node decision on the feedback streams runs
//! zero traversals or one, scanning at most `|E|` edges and popping at
//! most `|E| + 1` vertices (the work counters on the session's graph).
//! A decision state kept after its decision holds no
//! edges, and neither does a query state that has answered a witness:
//! their live bytes are bounded by their vertex count (a per-thread
//! live-bytes counter in the same allocator).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;
use zigzag::api::{serve, wire, Query, Response, SessionConfig, WitnessReport, ZigzagService};
use zigzag::bcm::protocols::Ffip;
use zigzag::bcm::scheduler::RandomScheduler;
use zigzag::bcm::stream::{ReceiptEvent, RunEvent, SendEvent};
use zigzag::bcm::validate::{validate_run, Strictness};
use zigzag::bcm::{
    topology, MessageId, NodeId, ProcessId, Run, RunCursor, SimConfig, Simulator, Time,
};
use zigzag::core::bounds_graph::{BoundsGraph, LABEL_RECV, LABEL_SEND, LABEL_SUCCESSOR};
use zigzag::core::construct::FrontierGraph;
use zigzag::core::extended_graph::{
    ExtVertex, GeView, LABEL_AUX_CHAN, LABEL_BOUNDARY, LABEL_UNSEEN,
};
use zigzag::core::extract::{anchor_tail, zigzag_from_ge_path};
use zigzag::core::graph::{Distances, Edge, TraversalWork, WeightedDigraph};
use zigzag::core::incremental::IncrementalEngine;
use zigzag::core::knowledge::{KnowledgeEngine, ObserverMode, ObserverState};
use zigzag::core::precedence::satisfies;
use zigzag::core::timing::fast_timing;
use zigzag::core::{CoreError, GeneralNode, VisibleZigzag};

/// A pass-through [`System`] wrapper counting this thread's heap
/// allocations, backing the layout tier's zero-allocation assertion on
/// the warm memoized query loop, and the bytes this thread holds: each
/// allocation adds its size, each free subtracts it. Frees are not
/// counted as allocations: the hit path hands out refcounted results,
/// so dropping one never frees either.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Heap allocations performed by the current thread so far.
fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Bytes allocated minus bytes freed by the current thread so far.
fn thread_live_bytes() -> i64 {
    THREAD_LIVE.with(Cell::get)
}

fn add_live(bytes: i64) {
    THREAD_LIVE.with(|c| c.set(c.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        add_live(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        add_live(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One naive row: `(other endpoint, weight, label)` per edge.
type NaiveRow<V = ExtVertex> = Vec<(V, i64, u32)>;

/// A naive graph: `BTreeMap` adjacency, one entry per vertex, no dense
/// indices, rebuilt from scratch per use.
struct NaiveGraph<V> {
    vertices: BTreeSet<V>,
    edges: BTreeMap<V, NaiveRow<V>>,
}

/// The naive Definition 16 graph, rebuilt per observer.
type NaiveGe = NaiveGraph<ExtVertex>;

/// Definition 16's closure of a per-timeline cut of `run`: `cut[p]` is
/// the last node of process `p` inside it, if any. `GE(r, σ)` cuts at
/// `past(r, σ)` ([`naive_ge`]), and the frontier graph at every recorded
/// node ([`naive_frontier`]). `exclude_src = Some(σ)` drops the `E''`
/// edges of σ's own sends (the own-sends-excluded probe graph).
fn naive_closure(run: &Run, cut: &[Option<NodeId>], exclude_src: Option<NodeId>) -> NaiveGe {
    let inside = |n: NodeId| cut[n.proc().index()].is_some_and(|b| n.index() <= b.index());
    let net = run.context().network();
    let bounds = run.context().bounds();
    let mut vertices: BTreeSet<ExtVertex> = BTreeSet::new();
    let mut edges: BTreeMap<ExtVertex, NaiveRow> = BTreeMap::new();
    let add = |edges: &mut BTreeMap<ExtVertex, NaiveRow>,
               from: ExtVertex,
               to: ExtVertex,
               w: i64,
               label: u32| {
        edges.entry(from).or_default().push((to, w, label));
    };

    for p in net.processes() {
        vertices.insert(ExtVertex::Aux(p));
        // The cut's nodes and successor edges, then E' boundary → ψ_p.
        if let Some(boundary) = cut[p.index()] {
            vertices.insert(ExtVertex::Node(NodeId::new(p, 0)));
            for k in 1..=boundary.index() {
                vertices.insert(ExtVertex::Node(NodeId::new(p, k)));
                add(
                    &mut edges,
                    ExtVertex::Node(NodeId::new(p, k - 1)),
                    ExtVertex::Node(NodeId::new(p, k)),
                    1,
                    LABEL_SUCCESSOR,
                );
            }
            add(
                &mut edges,
                ExtVertex::Node(boundary),
                ExtVertex::Aux(p),
                1,
                LABEL_BOUNDARY,
            );
        }
    }
    // Message edges: pairs inside the cut get ±bound edges; sends whose
    // delivery lies outside it get E'' edges from ψ of the receiver.
    for m in run.messages() {
        if !inside(m.src()) || Some(m.src()) == exclude_src {
            continue;
        }
        let cb = bounds.get(m.channel()).expect("bounds cover channels");
        let seen = m.delivery().map(|d| inside(d.node)).unwrap_or(false);
        if seen {
            let d = m.delivery().expect("checked").node;
            add(
                &mut edges,
                ExtVertex::Node(m.src()),
                ExtVertex::Node(d),
                cb.lower() as i64,
                LABEL_SEND,
            );
            add(
                &mut edges,
                ExtVertex::Node(d),
                ExtVertex::Node(m.src()),
                -(cb.upper() as i64),
                LABEL_RECV,
            );
        } else {
            add(
                &mut edges,
                ExtVertex::Aux(m.channel().to),
                ExtVertex::Node(m.src()),
                -(cb.upper() as i64),
                LABEL_UNSEEN,
            );
        }
    }
    // E''' edges between auxiliary vertices: (ψ_i, ψ_j) for (j, i) ∈ Chans.
    for ch in net.channels() {
        add(
            &mut edges,
            ExtVertex::Aux(ch.to),
            ExtVertex::Aux(ch.from),
            -(bounds.get(*ch).expect("covered").upper() as i64),
            LABEL_AUX_CHAN,
        );
    }
    NaiveGe { vertices, edges }
}

/// `GE(r, σ)` per Definition 16.
fn naive_ge(run: &Run, sigma: NodeId, exclude_src: Option<NodeId>) -> NaiveGe {
    let past = run.past(sigma);
    let cut: Vec<Option<NodeId>> = run
        .context()
        .network()
        .processes()
        .map(|p| past.boundary(p))
        .collect();
    naive_closure(run, &cut, exclude_src)
}

/// The frontier graph: Definition 16 closed at the recording horizon.
fn naive_frontier(run: &Run) -> NaiveGe {
    let net = run.context().network();
    let last = |p| run.timeline(p).last().map(|r| r.id());
    let cut: Vec<Option<NodeId>> = net.processes().map(last).collect();
    naive_closure(run, &cut, None)
}

/// Textbook dense Bellman–Ford for longest paths: `|V| − 1` full rounds
/// over the whole edge multiset, distances in a fresh `BTreeMap`.
fn naive_longest_from<V: Ord + Copy>(ge: &NaiveGraph<V>, src: V) -> BTreeMap<V, i64> {
    let mut dist: BTreeMap<V, i64> = BTreeMap::new();
    dist.insert(src, 0);
    for _ in 1..ge.vertices.len().max(1) {
        let mut changed = false;
        for (from, outs) in &ge.edges {
            let Some(&df) = dist.get(from) else { continue };
            for &(to, w, _) in outs {
                let cand = df + w;
                if dist.get(&to).is_none_or(|&dt| cand > dt) {
                    dist.insert(to, cand);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

/// The same graph with every edge reversed: its out-rows are the
/// original's in-rows, and longest paths *from* `v` in it are longest
/// paths *to* `v` in the original.
fn reversed<V: Ord + Copy>(ge: &NaiveGraph<V>) -> NaiveGraph<V> {
    let mut edges: BTreeMap<V, NaiveRow<V>> = BTreeMap::new();
    for (&from, outs) in &ge.edges {
        for &(to, w, label) in outs {
            edges.entry(to).or_default().push((from, w, label));
        }
    }
    NaiveGraph {
        vertices: ge.vertices.clone(),
        edges,
    }
}

/// The γ-fast timing (Definition 23) evaluated straight from its formula:
/// `(time, reachable)` per vertex, with `d` the longest paths from the
/// anchor, `f` the longest paths to the observer, `F1`/`F2` the max/min
/// of `f` over unreachable originals and `D` the min of `d`.
fn naive_fast_timing(
    ge: &NaiveGe,
    d: &BTreeMap<ExtVertex, i64>,
    f: &BTreeMap<ExtVertex, i64>,
    gamma: i64,
) -> BTreeMap<ExtVertex, (i64, bool)> {
    let unreachable_f: Vec<i64> = ge
        .vertices
        .iter()
        .filter(|v| v.node().is_some() && !d.contains_key(v))
        .map(|v| f[v])
        .collect();
    let f1 = unreachable_f.iter().copied().max().unwrap_or(0);
    let f2 = unreachable_f.iter().copied().min().unwrap_or(0);
    let d_min = d
        .values()
        .copied()
        .min()
        .expect("the anchor reaches itself");
    ge.vertices
        .iter()
        .map(|&v| {
            let t = match (d.get(&v), v) {
                (Some(dv), _) => 1 + f1 - f2 + gamma - d_min + dv,
                (None, ExtVertex::Node(_)) => f1 - f[&v],
                (None, ExtVertex::Aux(_)) => 0,
            };
            (v, (t, d.contains_key(&v)))
        })
        .collect()
}

/// Sorted `(other endpoint, weight, label)` multiset of one row of a
/// view.
fn row_multiset(view: GeView<'_>, edges: Vec<Edge>, outgoing: bool) -> NaiveRow {
    let mut row: NaiveRow = edges
        .into_iter()
        .map(|e| {
            let other = if outgoing { e.to } else { e.from };
            (view.vertex(other), e.weight, e.label)
        })
        .collect();
    row.sort_unstable();
    row
}

/// View tier: `GE(r, σ)` as a view over a standalone engine's
/// `GB(r, σ)`, over a batch session's `GB(r)` (bulk-order rows) and over
/// a stream session's (append-order rows; a run that is no legal stream
/// has none), in both modes, has the naive vertex set and the naive
/// `(endpoint, weight, label)` multiset in every out-row and in-row; its
/// distance lanes — forward from each anchor, backward to σ — equal the
/// dense Bellman–Ford at every vertex; and the dense `FastTiming` over
/// it equals the naive Definition 23 evaluation at every vertex, in
/// `BTreeMap` order, for γ ∈ {0, 5} at a spread of anchors, its
/// traversals counted on the bounds graph. Unless `clock`, the rows are
/// still the naive ones, but every distance query, path, fast timing and
/// `max_x` refuses with one `CoreError::ClockFails`, and nothing
/// traverses.
fn assert_ge_and_fast_timing_match_naive(run: &Run, sigma: NodeId, clock: bool) {
    let past: Vec<NodeId> = run.past(sigma).iter().filter(|k| !k.is_initial()).collect();
    let anchors: Vec<NodeId> = past
        .iter()
        .copied()
        .step_by((past.len() / 3).max(1))
        .chain([sigma])
        .collect();
    let batch = IncrementalEngine::from_prefix(run.clone());
    let stream = IncrementalEngine::ingest(run).ok();
    assert!(
        stream.is_some() || !clock,
        "{sigma}: a run on its clock streams"
    );
    let sorted = |row: Option<&NaiveRow>| {
        let mut row = row.cloned().unwrap_or_default();
        row.sort_unstable();
        row
    };
    for mode in [ObserverMode::Full, ObserverMode::ExcludeOwnSends] {
        let exclude = (mode == ObserverMode::ExcludeOwnSends).then_some(sigma);
        let naive = naive_ge(run, sigma, exclude);
        let naive_rev = reversed(&naive);
        let f = naive_longest_from(&naive_rev, ExtVertex::Node(sigma));

        let standalone = KnowledgeEngine::with_state(
            run,
            Arc::new(ObserverState::build_mode(run, sigma, mode).unwrap()),
        );
        let mut engines = vec![("standalone", standalone)];
        engines.push(("batch session", batch.uncached_engine(sigma, mode).unwrap()));
        if let Some(stream) = &stream {
            engines.push((
                "stream session",
                stream.uncached_engine(sigma, mode).unwrap(),
            ));
        }
        for (what, engine) in &engines {
            let view = engine.ge();
            let n = view.vertex_count();
            let vertices: BTreeSet<ExtVertex> = (0..n).map(|i| view.vertex(i)).collect();
            assert_eq!(
                vertices, naive.vertices,
                "GE vertex set at {sigma} ({what})"
            );
            assert_eq!(n, naive.vertices.len(), "duplicate vertices ({what})");
            for &v in &naive.vertices {
                let i = view.index_of(v).expect("vertex sets agree");
                assert_eq!(view.vertex(i), v, "layout round trip ({what})");
                assert_eq!(
                    row_multiset(view, view.edges_from(i), true),
                    sorted(naive.edges.get(&v)),
                    "out-row of {v} at {sigma} ({what}, {mode:?})"
                );
                assert_eq!(
                    row_multiset(view, view.edges_to(i), false),
                    sorted(naive_rev.edges.get(&v)),
                    "in-row of {v} at {sigma} ({what}, {mode:?})"
                );
            }
            let lanes_match = |lane: &Distances, dense: &BTreeMap<ExtVertex, i64>, dir: &str| {
                for i in 0..n {
                    assert_eq!(
                        lane.weight(i),
                        dense.get(&view.vertex(i)).copied(),
                        "{dir} lane at {} (σ = {sigma}, {what}, {mode:?})",
                        view.vertex(i)
                    );
                }
            };
            let before = view.work();
            let observer = ExtVertex::Node(sigma);
            if !clock {
                let refusal = view.distances_to(observer).unwrap_err();
                assert!(
                    matches!(refusal, CoreError::ClockFails { .. }),
                    "{refusal} at {sigma} ({what}, {mode:?})"
                );
                let same = |got: Result<(), CoreError>, query: &str| {
                    assert_eq!(got, Err(refusal.clone()), "{query} at {sigma} ({what})");
                };
                let basic = |n: NodeId| GeneralNode::basic(n);
                for &anchor in &anchors {
                    let v = ExtVertex::Node(anchor);
                    same(view.distances_from(v).map(drop), "distances_from");
                    same(view.longest_path(v, observer).map(drop), "longest_path");
                    same(fast_timing(view, anchor, 0).map(drop), "fast_timing");
                    let max_x = engine.max_x(&basic(anchor), &basic(sigma));
                    same(max_x.map(drop), "max_x");
                }
                assert_eq!(view.work(), before, "{what} traversed at {sigma}");
                continue;
            }
            lanes_match(&view.distances_to(observer).unwrap(), &f, "backward");
            for &anchor in &anchors {
                let anchor = ExtVertex::Node(anchor);
                lanes_match(
                    &view.distances_from(anchor).unwrap(),
                    &naive_longest_from(&naive, anchor),
                    "forward",
                );
            }
            let work = view.work();
            assert!(work.traversals > before.traversals, "{what} at {sigma}");
            for &anchor in &anchors {
                let d = naive_longest_from(&naive, ExtVertex::Node(anchor));
                for gamma in [0u64, 5] {
                    let ft = fast_timing(view, anchor, gamma).unwrap();
                    let want = naive_fast_timing(&naive, &d, &f, gamma as i64);
                    let got: Vec<(ExtVertex, (i64, bool))> = ft
                        .iter()
                        .map(|(v, t)| (v, (t.ticks() as i64, ft.is_reachable(v))))
                        .collect();
                    let want: Vec<(ExtVertex, (i64, bool))> = want.into_iter().collect();
                    assert_eq!(
                        got, want,
                        "fast timing of {anchor} at {sigma}, γ = {gamma} ({what}, {mode:?})"
                    );
                    for (v, (t, _)) in want {
                        assert_eq!(ft.time(v).map(|t| t.ticks() as i64), Some(t));
                    }
                }
            }
        }
    }
}

/// The frontier graph of `run` against [`naive_frontier`]: its vertex
/// set and layout, `longest_to(σ)` at every vertex for each of `sigmas`,
/// and `tight_bound` from a spread of roots to every recorded node,
/// against the dense Bellman–Ford.
fn assert_frontier_graph_matches_naive(run: &Run, sigmas: &[NodeId]) {
    let fg = FrontierGraph::of_run(run);
    let naive = naive_frontier(run);
    let n = fg.vertex_count();
    let vertices: BTreeSet<ExtVertex> = (0..n).map(|i| fg.vertex(i)).collect();
    assert_eq!(vertices, naive.vertices, "frontier vertex set");
    assert_eq!(n, naive.vertices.len(), "duplicate frontier vertices");
    let naive_rev = reversed(&naive);
    for &sigma in sigmas {
        let lane = fg.longest_to(sigma).unwrap();
        let want = naive_longest_from(&naive_rev, ExtVertex::Node(sigma));
        for i in 0..n {
            let v = fg.vertex(i);
            assert_eq!(fg.index_of(v), Some(i), "frontier layout at {v}");
            assert_eq!(lane.weight(i), want.get(&v).copied(), "{v} to {sigma}");
        }
    }
    let nodes: Vec<NodeId> = run.nodes().map(|r| r.id()).collect();
    for &root in nodes.iter().step_by((nodes.len() / 4).max(1)) {
        let want = naive_longest_from(&naive, ExtVertex::Node(root));
        for &to in &nodes {
            assert_eq!(
                fg.tight_bound(root, to).unwrap(),
                want.get(&ExtVertex::Node(to)).copied(),
                "tight bound from {root} to {to}"
            );
        }
    }
}

/// The reference answer: `max_x(a, b)` for basic σ-recognized nodes is
/// the longest-path weight `a → b` in `GE(r, σ)`, `None` if unreachable.
fn naive_max_x_table(
    run: &Run,
    sigma: NodeId,
    nodes: &[NodeId],
) -> BTreeMap<(NodeId, NodeId), Option<i64>> {
    let ge = naive_ge(run, sigma, None);
    let mut out = BTreeMap::new();
    for &a in nodes {
        let dist = naive_longest_from(&ge, ExtVertex::Node(a));
        for &b in nodes {
            out.insert((a, b), dist.get(&ExtVertex::Node(b)).copied());
        }
    }
    out
}

/// A naive path: `(tail, head, weight, label)` per edge, in walk order.
type NaivePath<V> = Vec<(V, V, i64, u32)>;

/// The canonical maximum-weight paths from `src`, straight from their
/// definition: a hop BFS from `src` over the tight edges
/// (`d(u) + w = d(v)` under the dense Bellman–Ford `d`), then, back from
/// each target, every vertex's least `(label, vertex)` tight in-edge
/// from the previous hop level. `V`'s order stands for the graph's
/// dense-index order: `GE(r, σ)`'s layout for an `ExtVertex`, a bulk
/// build's for a `NodeId`. `None` for an unreachable target.
fn naive_canonical_paths<V: Ord + Copy>(
    ge: &NaiveGraph<V>,
    d: &BTreeMap<V, i64>,
    src: V,
    targets: &[V],
) -> Vec<Option<NaivePath<V>>> {
    let tight = |u: &V, w: i64, v: &V| match (d.get(u), d.get(v)) {
        (Some(&du), Some(&dv)) => du.checked_add(w) == Some(dv),
        _ => false,
    };
    let mut level: BTreeMap<V, usize> = BTreeMap::from([(src, 0)]);
    let mut queue = std::collections::VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        for &(v, w, _) in ge.edges.get(&u).into_iter().flatten() {
            if !level.contains_key(&v) && tight(&u, w, &v) {
                level.insert(v, level[&u] + 1);
                queue.push_back(v);
            }
        }
    }
    let rev = reversed(ge);
    let path_to = |mut v: V| {
        let mut path = Vec::new();
        while v != src {
            let want = level.get(&v)?.checked_sub(1)?;
            let (label, u, w) = rev.edges[&v]
                .iter()
                .filter(|(u, w, _)| level.get(u) == Some(&want) && tight(u, *w, &v))
                .map(|&(u, w, label)| (label, u, w))
                .min()
                .expect("a vertex past the root has a tight in-edge from the level below");
            path.push((u, v, w, label));
            v = u;
        }
        path.reverse();
        Some(path)
    };
    targets.iter().map(|&t| path_to(t)).collect()
}

/// The wire bytes of the reference answer to `Query::Witness` at `sigma`
/// for each basic pair `(a, b)` in `pairs`: the naive canonical path from
/// `a` to `b`, rendered by the public `zigzag_from_ge_path` and
/// `anchor_tail`, weighing the dense Bellman–Ford distance.
fn naive_witness_bytes(
    run: &Run,
    sigma: NodeId,
    pairs: &[(NodeId, NodeId)],
) -> BTreeMap<(NodeId, NodeId), String> {
    let naive = naive_ge(run, sigma, None);
    let engine = KnowledgeEngine::new(run, sigma).unwrap();
    let ge = engine.ge();
    let mut by_anchor: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    for &(a, b) in pairs {
        by_anchor.entry(a).or_default().push(b);
    }
    let mut out = BTreeMap::new();
    for (a, targets) in by_anchor {
        let (from, theta1) = (ExtVertex::Node(a), GeneralNode::basic(a));
        let d = naive_longest_from(&naive, from);
        let ends: Vec<ExtVertex> = targets.iter().map(|&b| ExtVertex::Node(b)).collect();
        for (&b, path) in targets
            .iter()
            .zip(naive_canonical_paths(&naive, &d, from, &ends))
        {
            let witness = path.map(|path| {
                let index = |v| ge.index_of(v).expect("vertex sets agree");
                let (weight, edges) = indexed_path(d[&ExtVertex::Node(b)], &path, index);
                let z = zigzag_from_ge_path(ge, a, &edges).unwrap();
                let z = anchor_tail(z, &theta1).unwrap();
                WitnessReport {
                    weight,
                    pattern: VisibleZigzag::new(z, sigma).to_string(),
                }
            });
            out.insert((a, b), wire::encode_response(&Response::Witness(witness)));
        }
    }
    out
}

/// The first and the last three of `nodes`.
fn corners(nodes: &[NodeId]) -> (&[NodeId], &[NodeId]) {
    let n = nodes.len();
    (&nodes[..n.min(3)], &nodes[n.saturating_sub(3)..])
}

/// Each of the first three of `nodes` to each of the last three.
fn corner_pairs(nodes: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let (first, last) = corners(nodes);
    let pairs = first.iter().map(|&a| last.iter().map(move |&b| (a, b)));
    pairs.flatten().collect()
}

/// The witness pairs sampled over `nodes`: every node to each of the
/// last three, and each of the first three to every node — the long
/// paths, where maximum-weight paths tie.
fn witness_pairs(nodes: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let (first, last) = corners(nodes);
    let mut pairs: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    for &a in nodes {
        pairs.extend(last.iter().map(|&b| (a, b)));
        pairs.extend(first.iter().map(|&f| (f, a)));
    }
    pairs.into_iter().collect()
}

/// The response a `Query::Witness` gets from a standalone engine at its
/// observer.
fn standalone_witness(engine: &KnowledgeEngine<'_>, q: &Query) -> Response {
    let Query::Witness { theta1, theta2, .. } = q else {
        unreachable!("witness queries only");
    };
    let witness = engine.witness(theta1, theta2).unwrap();
    Response::Witness(witness.map(|(weight, vz)| WitnessReport {
        weight,
        pattern: vz.to_string(),
    }))
}

fn random_run(n: usize, density: u8, topo_seed: u64, sched_seed: u64, horizon: u64) -> Run {
    let ctx = topology::random(n, density as f64 / 10.0, 1, 6, topo_seed).unwrap();
    let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(horizon)));
    sim.external(Time::new(1), ProcessId::new(0), "kick");
    sim.run(&mut Ffip::new(), &mut RandomScheduler::seeded(sched_seed))
        .unwrap()
}

fn observers(run: &Run) -> Vec<NodeId> {
    // The deepest node (largest past) plus the shallowest non-initial one
    // (smallest past, most in-flight messages) — both regimes matter.
    let non_initial: Vec<NodeId> = run
        .nodes()
        .map(|r| r.id())
        .filter(|k| !k.is_initial())
        .collect();
    let mut picks = Vec::new();
    if let Some(&last) = non_initial.last() {
        picks.push(last);
    }
    if let Some(&first) = non_initial.first() {
        if Some(first) != picks.first().copied() {
            picks.push(first);
        }
    }
    picks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Engine answers — pointwise, matrix, and knows — equal the naive
    /// reference on random (topology, schedule) cases.
    #[test]
    fn engine_matches_naive_reference(
        n in 3usize..7,
        density in 0u8..=10,
        topo_seed in 0u64..10_000,
        sched_seed in 0u64..10_000,
    ) {
        let run = random_run(n, density, topo_seed, sched_seed, 22);
        let service = ZigzagService::new();
        let session = service.open_batch(run.clone(), SessionConfig::new());
        assert_frontier_graph_matches_naive(&run, &observers(&run));
        for sigma in observers(&run) {
            assert_ge_and_fast_timing_match_naive(&run, sigma, true);
            let past = run.past(sigma);
            let nodes: Vec<NodeId> = past.iter().filter(|k| !k.is_initial()).collect();
            let reference = naive_max_x_table(&run, sigma, &nodes);
            let engine = KnowledgeEngine::new(&run, sigma).unwrap();
            let matrix = engine.max_x_basic_matrix().unwrap();
            prop_assert_eq!(matrix.len(), nodes.len());
            // The facade's batch session dispatches the same matrix,
            // byte-for-byte.
            let Response::MaxXMatrix(served) = service
                .dispatch(session, &Query::MaxXMatrix { sigma })
                .unwrap()
            else {
                unreachable!("matrix queries return matrices");
            };
            prop_assert_eq!(&served, &matrix, "dispatched matrix diverged at {}", sigma);
            for &a in &nodes {
                for &b in &nodes {
                    let want = reference[&(a, b)];
                    let (ta, tb) = (GeneralNode::basic(a), GeneralNode::basic(b));
                    // Warm engine (first touch fills the caches)...
                    let got = engine.max_x(&ta, &tb).unwrap();
                    prop_assert_eq!(got, want, "max_x({}, {}) diverged", a, b);
                    // ...and again from the caches.
                    prop_assert_eq!(engine.max_x(&ta, &tb).unwrap(), want);
                    // The dense matrix agrees cell-for-cell.
                    prop_assert_eq!(matrix[(a, b)], want, "matrix({}, {})", a, b);
                    // knows is the threshold predicate.
                    if let Some(m) = want {
                        prop_assert!(engine.knows(&ta, &tb, m).unwrap());
                        prop_assert!(engine.knows(&ta, &tb, m - 2).unwrap());
                        prop_assert!(!engine.knows(&ta, &tb, m + 1).unwrap());
                    } else {
                        prop_assert!(!engine.knows(&ta, &tb, -1_000).unwrap());
                    }
                }
            }
            // A cold engine (fresh caches) answers identically on a sample,
            // and so does the facade — max_x, knows and a QueryBatch (the
            // batched path is the same code path, positionally aligned).
            if let (Some(&a), Some(&b)) = (nodes.first(), nodes.last()) {
                let cold = KnowledgeEngine::new(&run, sigma).unwrap();
                let (ta, tb) = (GeneralNode::basic(a), GeneralNode::basic(b));
                prop_assert_eq!(cold.max_x(&ta, &tb).unwrap(), reference[&(a, b)]);
                let x = reference[&(a, b)].unwrap_or(0);
                let batch = Query::QueryBatch(vec![
                    Query::MaxX {
                        sigma,
                        theta1: ta.clone(),
                        theta2: tb.clone(),
                    },
                    Query::Knows {
                        sigma,
                        theta1: ta.clone(),
                        theta2: tb.clone(),
                        x,
                    },
                ]);
                let Response::ResponseBatch(rs) = service.dispatch(session, &batch).unwrap()
                else {
                    unreachable!("batch queries return batch responses");
                };
                prop_assert_eq!(&rs[0], &Response::MaxX(reference[&(a, b)]));
                prop_assert_eq!(&rs[1], &Response::Knows(engine.knows(&ta, &tb, x).unwrap()));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Prefix-differential tier: stream random runs event-by-event and
    /// hold the incremental engine to the batch answers at EVERY prefix.
    #[test]
    fn incremental_engine_matches_batch_on_every_prefix(
        n in 3usize..6,
        density in 0u8..=10,
        topo_seed in 0u64..10_000,
        sched_seed in 0u64..10_000,
    ) {
        let run = random_run(n, density, topo_seed, sched_seed, 14);
        let mut cursor = RunCursor::new(&run);
        let mut inc = IncrementalEngine::new(run.context_arc(), run.horizon());
        // The same feed drives a facade stream session in lockstep; every
        // dispatched answer must equal the direct engine call at every
        // prefix.
        let service = ZigzagService::new();
        let session = service.open_stream(run.context_arc(), run.horizon(), SessionConfig::new());
        // A persistent observer: the first node whose past holds
        // non-initial nodes of two processes, so its samples hold pairs of
        // distinct nodes. Its state is built once and must stay exact
        // across all later appends.
        let mut tracked: Option<NodeId> = None;
        while let Some(ev) = cursor.next_event() {
            let node = inc.append_event(&ev).unwrap();
            prop_assert_eq!(service.append(session, &ev).unwrap().node, node);
            let prefix = inc.run();
            if tracked.is_none() {
                let past = prefix.past(node);
                let procs: BTreeSet<ProcessId> =
                    past.iter().filter(|k| !k.is_initial()).map(|k| k.proc()).collect();
                tracked = (procs.len() > 1).then_some(node);
            }

            // The appended node's all-pairs matrix, byte-for-byte —
            // direct, batch-engine, and dispatched forms.
            let online = inc.max_x_basic_matrix(node).unwrap();
            let batch = KnowledgeEngine::new(prefix, node).unwrap();
            prop_assert_eq!(&online, &batch.max_x_basic_matrix().unwrap(),
                "matrix diverged at {}", node);
            let Response::MaxXMatrix(served) = service
                .dispatch(session, &Query::MaxXMatrix { sigma: node })
                .unwrap()
            else {
                unreachable!("matrix queries return matrices");
            };
            prop_assert_eq!(&served, &online, "dispatched matrix diverged at {}", node);
            // Its witnesses, served on the stream session's append-order
            // rows and on the batch engine's, equal the reference bytes.
            let nodes: Vec<NodeId> = prefix.past(node).iter().filter(|k| !k.is_initial()).collect();
            let reference = naive_witness_bytes(prefix, node, &corner_pairs(&nodes));
            for (&(a, b), want) in &reference {
                let q = Query::Witness {
                    sigma: node,
                    theta1: GeneralNode::basic(a),
                    theta2: GeneralNode::basic(b),
                };
                prop_assert_eq!(
                    &wire::encode_response(&service.dispatch(session, &q).unwrap()),
                    want,
                    "dispatched witness diverged on {:?}", q
                );
                prop_assert_eq!(
                    &wire::encode_response(&standalone_witness(&batch, &q)),
                    want,
                    "standalone witness diverged on {:?}", q
                );
            }

            // The long-lived observer: sampled max_x/knows against a
            // fresh batch engine on the same prefix.
            let Some(tracked_sigma) = tracked else { continue };
            let cold = KnowledgeEngine::new(prefix, tracked_sigma).unwrap();
            let warm = inc.engine(tracked_sigma).unwrap();
            let nodes: Vec<NodeId> = prefix
                .past(tracked_sigma)
                .iter()
                .filter(|k| !k.is_initial())
                .collect();
            let pairs = corner_pairs(&nodes);
            prop_assert!(pairs.iter().any(|(a, b)| a != b), "trivial sample at {}", tracked_sigma);
            let reference = naive_witness_bytes(prefix, tracked_sigma, &pairs);
            for &(a, b) in &pairs {
                let (ta, tb) = (GeneralNode::basic(a), GeneralNode::basic(b));
                let want = cold.max_x(&ta, &tb).unwrap();
                prop_assert_eq!(warm.max_x(&ta, &tb).unwrap(), want,
                    "max_x({}, {}) diverged at observer {}", a, b, tracked_sigma);
                prop_assert_eq!(
                    inc.knows(tracked_sigma, &ta, &tb, want.unwrap_or(0)).unwrap(),
                    cold.knows(&ta, &tb, want.unwrap_or(0)).unwrap()
                );
                // The stream session serves the identical threshold...
                prop_assert_eq!(
                    service
                        .dispatch(session, &Query::MaxX {
                            sigma: tracked_sigma,
                            theta1: ta.clone(),
                            theta2: tb.clone(),
                        })
                        .unwrap(),
                    Response::MaxX(want),
                    "dispatched max_x diverged at {}", node
                );
                // ...and the reference witness, byte for byte, as does
                // the standalone engine.
                let q = Query::Witness {
                    sigma: tracked_sigma,
                    theta1: ta,
                    theta2: tb,
                };
                let want = &reference[&(a, b)];
                prop_assert_eq!(
                    &wire::encode_response(&service.dispatch(session, &q).unwrap()),
                    want,
                    "dispatched witness diverged at {}", node
                );
                prop_assert_eq!(
                    &wire::encode_response(&standalone_witness(&cold, &q)),
                    want,
                    "standalone witness diverged at {}", node
                );
            }

            // Global GB(r) tight bounds, delta-relaxed vs from-scratch vs
            // dispatched.
            let scratch = BoundsGraph::of_run(prefix);
            let want = scratch
                .longest_path(tracked_sigma, node)
                .unwrap()
                .map(|(w, _)| w);
            prop_assert_eq!(inc.tight_bound(tracked_sigma, node).unwrap(), want,
                "GB tight bound diverged at {}", node);
            prop_assert_eq!(
                service
                    .dispatch(session, &Query::TightBound {
                        from: tracked_sigma,
                        to: node,
                    })
                    .unwrap(),
                Response::TightBound(want),
                "dispatched tight bound diverged at {}", node
            );
        }
        // The drained feed reconstructed the recorded run exactly, in
        // both the direct engine and the facade session.
        prop_assert_eq!(inc.run(), &run);
        prop_assert_eq!(inc.event_count(), run.node_count() - n);
        prop_assert!(service.with_run(session, |grown| grown == &run).unwrap());

        // A batch session over the full run answers every sampled query
        // exactly like the fully-grown stream session.
        let batch_session = service.open_batch(run.clone(), SessionConfig::new());
        if let Some(sigma) = tracked {
            for q in [
                Query::MaxXMatrix { sigma },
                Query::TightBound {
                    from: sigma,
                    to: sigma,
                },
            ] {
                prop_assert_eq!(
                    service.dispatch(batch_session, &q).unwrap(),
                    service.dispatch(session, &q).unwrap(),
                    "batch and stream sessions diverged on {:?}", q
                );
            }
        }
        // Both sessions, and a standalone engine, serve the reference
        // witness bytes for the sampled pairs of basic nodes at the
        // deepest and the shallowest observer.
        for sigma in observers(&run) {
            let cold = KnowledgeEngine::new(&run, sigma).unwrap();
            let nodes: Vec<NodeId> = run.past(sigma).iter().filter(|k| !k.is_initial()).collect();
            let pairs = witness_pairs(&nodes);
            let reference = naive_witness_bytes(&run, sigma, &pairs);
            for &(a, b) in &pairs {
                let q = Query::Witness {
                    sigma,
                    theta1: GeneralNode::basic(a),
                    theta2: GeneralNode::basic(b),
                };
                let want = &reference[&(a, b)];
                prop_assert_eq!(
                    &wire::encode_response(&standalone_witness(&cold, &q)),
                    want,
                    "standalone witness diverged on {:?}", q
                );
                for id in [batch_session, session] {
                    prop_assert_eq!(
                        &wire::encode_response(&service.dispatch(id, &q).unwrap()),
                        want,
                        "served witness diverged on {:?}", q
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The engine-shared constructions agree with the naive reference:
    /// the materialized 0-fast run realizes exactly the naive longest-path
    /// gap, and `refute` is a decision procedure for the naive threshold.
    #[test]
    fn constructions_match_naive_reference(
        n in 3usize..6,
        density in 0u8..=10,
        topo_seed in 0u64..10_000,
        sched_seed in 0u64..10_000,
    ) {
        let run = random_run(n, density, topo_seed, sched_seed, 20);
        let Some(&sigma) = observers(&run).first() else { return Ok(()) };
        let past = run.past(sigma);
        let nodes: Vec<NodeId> = past.iter().filter(|k| !k.is_initial()).collect();
        if nodes.is_empty() {
            return Ok(());
        }
        let reference = naive_max_x_table(&run, sigma, &nodes);
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        // Sample anchor: the observer itself plus the earliest node.
        let anchors = [nodes[0], sigma];
        for &a in &anchors {
            let ta = GeneralNode::basic(a);
            let fr = engine.fast_run_of(&ta, 0, 25).unwrap();
            validate_run(&fr.run, Strictness::Strict).unwrap();
            prop_assert!(fr.run.appears(sigma), "fast run lost the observer");
            for &b in &nodes {
                let Some(want) = reference[&(a, b)] else { continue };
                let gap = fr.run.time(b).unwrap().diff(fr.run.time(a).unwrap());
                prop_assert_eq!(
                    gap, want,
                    "0-fast run of {} realizes gap {} to {}, naive says {}",
                    a, gap, b, want
                );
            }
            // Refutation tier, on a bounded sample per case.
            for &b in nodes.iter().take(3) {
                let tb = GeneralNode::basic(b);
                let m = reference[&(a, b)];
                let x_over = m.map_or(-5, |m| m + 1);
                let fr = engine.refute(&ta, &tb, x_over).unwrap();
                let fr = fr.expect("claims above the naive threshold must be refutable");
                validate_run(&fr.run, Strictness::Strict).unwrap();
                prop_assert!(
                    !satisfies(&fr.run, &ta, &tb, x_over).unwrap(),
                    "refutation run does not refute {} --{}--> {}", a, x_over, b
                );
                if let Some(m) = m {
                    prop_assert!(
                        engine.refute(&ta, &tb, m).unwrap().is_none(),
                        "engine refuted a claim the naive oracle certifies"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exclude-mode tier: the incremental engine's own-sends-excluded
    /// views of its `GB(r)` equal fresh `build_excluding_own_sends`
    /// states after EVERY append — at the newest node and at a long-lived
    /// observer, whose cached full-mode state was built many appends ago
    /// and never invalidated. Random strongly-connected topologies mean
    /// every observer has outgoing channels, the regime where the two
    /// modes differ.
    #[test]
    fn warm_exclude_mode_states_match_fresh_builds_on_every_prefix(
        n in 3usize..6,
        density in 0u8..=10,
        topo_seed in 0u64..10_000,
        sched_seed in 0u64..10_000,
    ) {
        let run = random_run(n, density, topo_seed, sched_seed, 13);
        let mut cursor = RunCursor::new(&run);
        let mut inc = IncrementalEngine::new(run.context_arc(), run.horizon());
        let mut tracked: Option<NodeId> = None;
        while let Some(ev) = cursor.next_event() {
            let node = inc.append_event(&ev).unwrap();
            let tracked_sigma = *tracked.get_or_insert(node);
            let prefix = inc.run();
            for sigma in [node, tracked_sigma] {
                let view = inc.uncached_engine(sigma, ObserverMode::ExcludeOwnSends).unwrap();
                let fresh_state = ObserverState::build_excluding_own_sends(prefix, sigma).unwrap();
                let fresh = KnowledgeEngine::with_state(prefix, Arc::new(fresh_state));
                prop_assert_eq!(
                    view.max_x_basic_matrix().unwrap(),
                    fresh.max_x_basic_matrix().unwrap(),
                    "exclude-mode view diverged from a fresh build at {} (prefix of {})",
                    sigma,
                    node
                );
                // The cached full-mode state still equals its fresh build
                // beside the per-call exclude-mode views.
                let full_state = ObserverState::build(prefix, sigma).unwrap();
                let full = KnowledgeEngine::with_state(prefix, Arc::new(full_state));
                prop_assert_eq!(
                    inc.engine(sigma).unwrap().max_x_basic_matrix().unwrap(),
                    full.max_x_basic_matrix().unwrap(),
                    "full-mode state diverged beside the exclude-mode views at {}",
                    sigma
                );
            }
        }
        prop_assert_eq!(inc.run(), &run);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sharded serving tier: `serve::serve` over a random session mix
    /// (sharded table, batch + replayed-stream sessions, hostile frames
    /// included) is byte-identical to the serial
    /// decode → dispatch → encode loop at worker counts 1, 2 and 8.
    #[test]
    fn sharded_serve_is_byte_identical_to_serial_dispatch(
        n in 3usize..6,
        density in 0u8..=10,
        topo_seed in 0u64..10_000,
        sched_seed in 0u64..10_000,
        shards in 1usize..6,
    ) {
        let run = random_run(n, density, topo_seed, sched_seed, 16);
        let service = ZigzagService::sharded(shards);
        prop_assert_eq!(service.shard_count(), shards);
        let batch_a = service.open_batch(run.clone(), SessionConfig::new());
        let (stream, _) = service.open_replay(&run, SessionConfig::new()).unwrap();
        let batch_b = service.open_batch(run.clone(), SessionConfig::new());
        let sessions = [batch_a, stream, batch_b];

        let nodes: Vec<NodeId> = run
            .nodes()
            .map(|r| r.id())
            .filter(|k| !k.is_initial())
            .collect();
        let mut frames: Vec<String> = Vec::new();
        for (k, &sigma) in nodes.iter().enumerate() {
            let id = sessions[k % sessions.len()];
            frames.push(serve::encode_frame(id, &Query::MaxXMatrix { sigma }));
            frames.push(serve::encode_frame(
                id,
                &Query::QueryBatch(vec![
                    Query::MaxX {
                        sigma,
                        theta1: GeneralNode::basic(nodes[0]),
                        theta2: GeneralNode::basic(sigma),
                    },
                    Query::TightBound {
                        from: nodes[0],
                        to: sigma,
                    },
                ]),
            ));
            // A deterministic failure (no spec configured) every few
            // frames: error documents obey the same identity contract.
            if k % 3 == 0 {
                frames.push(serve::encode_frame(id, &Query::CoordDecision));
            }
        }
        frames.push(serve::encode_frame(
            zigzag::api::SessionId::from_raw(9_999),
            &Query::MaxXMatrix { sigma: nodes[0] },
        ));
        frames.push("zigzag-frame v1\nsession ?\n".to_string());

        // The reference: one frame at a time, decoded, dispatched through
        // the ordinary single-caller path, re-encoded.
        let reference: Vec<String> = frames
            .iter()
            .map(|f| match serve::decode_frame(f) {
                Ok((id, q)) => match service.dispatch(id, &q) {
                    Ok(r) => wire::encode_response(&r),
                    Err(e) => serve::encode_error(&e),
                },
                Err(e) => serve::encode_error(&e),
            })
            .collect();
        for workers in [1usize, 2, 8] {
            prop_assert_eq!(
                &serve::serve(&service, &frames, workers),
                &reference,
                "sharded serving diverged at shards={} workers={}",
                shards,
                workers
            );
        }

        // Stats tier: the serving counters are exact over the passes
        // above — the reference loop plus three serve passes each
        // dispatched every frame that reached a session (all but the two
        // hostile tails), and the unbounded cache policy never evicted.
        let report = service.stats();
        let dispatched = 4 * (frames.len() as u64 - 2);
        prop_assert_eq!(report.queries, dispatched);
        prop_assert_eq!(report.latency.count(), dispatched);
        prop_assert!(report.observer_misses > 0, "no cache misses recorded");
        prop_assert!(report.observer_hits > 0, "no cache hits recorded");
        prop_assert_eq!(report.observer_evictions, 0);
        prop_assert_eq!(report.sessions_per_shard.len(), shards);
        prop_assert_eq!(report.sessions_per_shard.iter().sum::<u64>(), 3);
        prop_assert!(report.queue_depths.is_empty());
        // The Stats answer round-trips the wire byte-exactly: a Stats
        // frame through the serving loop (not itself a dispatch, so the
        // counters are frozen) decodes back to the same report.
        let stats_doc = serve::serve(
            &service,
            &[serve::encode_frame(sessions[0], &Query::Stats)],
            1,
        );
        match wire::decode_response(&stats_doc[0]) {
            Ok(Response::Stats(wired)) => prop_assert_eq!(*wired, report),
            other => prop_assert!(false, "stats frame misanswered: {other:?}"),
        }
    }
}

/// Exclude-mode Protocol 2 decisions on a feedback topology (B has
/// outgoing channels, including a B ⇄ D cycle — the regime where
/// exclude-mode differs from the paper's full `GE(r, σ)`): after every
/// append, the streaming driver's decision on its session graph equals a fresh
/// `decide_at` (rebuilding the own-sends-excluded graph from scratch) on
/// the same prefix, and the final verdict equals the in-simulation
/// protocol and the batch helper.
#[test]
fn warm_exclude_decisions_on_feedback_topology_match_fresh_builds() {
    use zigzag::coord::{
        decide_at, first_knowledge, OptimalStrategy, ProbeSemantics, StreamDriver,
    };

    for (x, l_bd, u_bd) in FEEDBACK_BOUNDS {
        let (spec, sc) = feedback_scenario(x, l_bd, u_bd, 45);
        for seed in 0..4 {
            let (run, verdict) = sc
                .run_verified(&mut OptimalStrategy, &mut RandomScheduler::seeded(seed))
                .unwrap();
            let mut driver = StreamDriver::new(spec.clone(), run.context_arc(), run.horizon())
                .with_probe(ProbeSemantics::ExcludeOwnSends);
            let mut cursor = RunCursor::new(&run);
            let mut decisions = 0usize;
            while let Some(ev) = cursor.next_event() {
                let report = driver.step(&ev).unwrap();
                let Some(knows) = report.b_knows else {
                    continue;
                };
                let fresh = decide_at(
                    &spec,
                    driver.engine().run(),
                    report.node,
                    ProbeSemantics::ExcludeOwnSends,
                )
                .unwrap();
                assert_eq!(
                    knows, fresh,
                    "x={x} [{l_bd},{u_bd}] seed {seed}: exclude decision \
                     diverged from the fresh rebuild at {}",
                    report.node
                );
                decisions += 1;
            }
            assert!(decisions > 0, "no B decisions exercised");
            // The streamed verdict is the protocol's: equal to the
            // in-simulation action node and to the batch helper.
            assert_eq!(driver.first_known(), verdict.b_node, "x={x} seed {seed}");
            let (first, sigma_c) =
                first_knowledge(&spec, &run, ProbeSemantics::ExcludeOwnSends).unwrap();
            assert_eq!(first, driver.first_known());
            assert_eq!(sigma_c, driver.sigma_c());
        }
    }
}

/// `(x, L_BD, U_BD)` of the feedback-topology cases.
const FEEDBACK_BOUNDS: [(i64, u64, u64); 3] = [(4, 1, 1), (4, 1, 9), (5, 1, 1)];

/// The C/A/B/D feedback topology — C triggers A, B and D, and B ⇄ D
/// gives B outgoing channels — with a `Late { x }` spec between A and B,
/// as a scenario recorded up to `horizon`.
fn feedback_scenario(
    x: i64,
    l_bd: u64,
    u_bd: u64,
    horizon: u64,
) -> (zigzag::coord::TimedCoordination, zigzag::coord::Scenario) {
    use zigzag::bcm::Network;
    use zigzag::coord::{CoordKind, Scenario, TimedCoordination};

    let mut nb = Network::builder();
    let c = nb.add_process("C");
    let a = nb.add_process("A");
    let b = nb.add_process("B");
    let d = nb.add_process("D");
    nb.add_channel(c, a, 2, 5).unwrap();
    nb.add_channel(c, b, 9, 12).unwrap();
    nb.add_channel(c, d, 1, 2).unwrap();
    nb.add_channel(b, d, l_bd, u_bd).unwrap();
    nb.add_channel(d, b, 1, 3).unwrap();
    let ctx = nb.build().unwrap();
    let spec = TimedCoordination::new(CoordKind::Late { x }, a, b, c);
    let sc = Scenario::new(spec.clone(), ctx, Time::new(3), Time::new(horizon)).unwrap();
    (spec, sc)
}

// ---------------------------------------------------------------------------
// Distance tier: the potential-reweighted Dijkstra on the run's own
// clock, and the refusal where that clock is not a valid timing.
// ---------------------------------------------------------------------------

/// Every `B`-node decision of the streaming driver on feedback-topology
/// streams (`Late` spec, `ExcludeOwnSends`) runs on the run's clock. The
/// decision made zero Dijkstra traversals or one, the forward lane its
/// `knows` reads, and each scanned at most `|E|` edges and popped at
/// most `|E| + 1` entries.
/// The work counters live on the session's `GB(r)`, so the driver's
/// decision is read as the change they show across its step. A Dijkstra
/// pops every vertex its root reaches once and scans each one's whole
/// row, so its counts do not depend on row order: the same decision
/// made alone on a fresh batch session over the same prefix shows the
/// same totals, and its counters give the per-traversal maxima. The
/// view's distance lanes equal the dense Bellman–Ford in both modes.
#[test]
fn feedback_decisions_run_dijkstra_on_the_run_clock() {
    use zigzag::coord::{knows_required, OptimalStrategy, ProbeSemantics, StreamDriver};

    let mut decided = 0;
    for (x, l_bd, u_bd) in FEEDBACK_BOUNDS {
        for horizon in [45, 90] {
            let (spec, sc) = feedback_scenario(x, l_bd, u_bd, horizon);
            let run = sc
                .run(&mut OptimalStrategy, &mut RandomScheduler::seeded(horizon))
                .unwrap();
            let mut driver = StreamDriver::new(spec.clone(), run.context_arc(), run.horizon())
                .with_probe(ProbeSemantics::ExcludeOwnSends);
            let mut cursor = RunCursor::new(&run);
            while let Some(ev) = cursor.next_event() {
                let before = driver.engine().bounds_graph().graph().work();
                let sigma = driver.step(&ev).unwrap().node;
                if sigma.proc() != spec.b {
                    continue;
                }
                let engine = driver
                    .engine()
                    .uncached_engine(sigma, ObserverMode::ExcludeOwnSends)
                    .unwrap();
                let ge = engine.ge();
                let edges = ge.edges().len() as u64;
                let work = ge.work();
                let traversals = work.traversals - before.traversals;
                assert!(
                    matches!(traversals, 0 | 1),
                    "{traversals} traversals at {sigma}"
                );

                let prefix = driver.engine().run();
                let alone = IncrementalEngine::from_prefix(prefix.clone());
                let fresh = alone
                    .uncached_engine(sigma, ObserverMode::ExcludeOwnSends)
                    .unwrap();
                if let Some(theta_a) = driver.sigma_c().and_then(|c| spec.theta_a(c).ok()) {
                    let theta_b = GeneralNode::basic(sigma);
                    let _ = knows_required(&fresh, spec.kind, &theta_a, &theta_b);
                }
                let single = fresh.ge().work();
                assert_eq!(single.traversals, traversals, "decision at {sigma}");
                assert_eq!(
                    single.scans,
                    work.scans - before.scans,
                    "edge scans of the decision at {sigma}"
                );
                assert_eq!(
                    single.pops,
                    work.pops - before.pops,
                    "pops of the decision at {sigma}"
                );
                assert!(
                    single.max_scans <= edges && single.max_pops <= edges + 1,
                    "decision at {sigma} (|E| = {edges}): {single:?}"
                );
                decided += traversals;
                assert_ge_and_fast_timing_match_naive(prefix, sigma, true);
            }
        }
    }
    assert!(decided > 0, "no decision traversed its graph");
}

/// A two-process run with a message each way and one late node on `i`
/// at `late`; the last node of `i` is returned with the run.
fn run_with_late_node(late: u64) -> (Run, NodeId) {
    use zigzag::bcm::builder::RunBuilder;
    use zigzag::bcm::Network;

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

/// Asserts that `run`'s `GB(r)` refuses every traversal with one
/// `CoreError::ClockFails` naming its first failing edge: cold forward,
/// backward and path queries, the memo (twice: a refusal is never
/// memoized as a success), and the catch-up of a graph grown node by
/// node in time order, whose memo at the first recorded node was warm
/// before the failing edge arrived. Nothing traverses.
fn assert_gb_refuses(run: &Run) {
    let gb = BoundsGraph::of_run(run);
    let refusal = gb.graph().check_clock().unwrap_err();
    assert!(matches!(refusal, CoreError::ClockFails { .. }), "{refusal}");
    let mut nodes: Vec<(Time, NodeId)> = run
        .nodes()
        .filter(|r| !r.id().is_initial())
        .map(|r| (r.time(), r.id()))
        .collect();
    nodes.sort_unstable();
    let root = nodes[0].1;
    let same = |got: Result<(), CoreError>, path: &str| {
        assert_eq!(got, Err(refusal.clone()), "{path}");
    };
    same(gb.longest_from(root).map(drop), "cold forward");
    same(gb.longest_to(root).map(drop), "cold backward");
    same(gb.longest_path(root, root).map(drop), "path");
    same(gb.longest_from_cached(root).map(drop), "memo");
    same(gb.longest_from_cached(root).map(drop), "memo again");
    assert_eq!(gb.graph().work(), TraversalWork::default());

    let mut grown = BoundsGraph::of_run(&Run::skeleton(run.context_arc(), run.horizon()));
    let mut warm = false;
    for &(_, node) in &nodes {
        grown.append_node(run, node);
        if grown.graph().check_clock().is_ok() {
            grown.longest_from_cached(root).unwrap();
            warm = true;
        }
    }
    assert!(warm, "the memo was warm before the clock failed");
    let caught = grown.longest_from_cached(root).unwrap_err();
    assert!(matches!(caught, CoreError::ClockFails { .. }), "{caught}");
    assert_eq!(caught, grown.graph().check_clock().unwrap_err(), "catch-up");
}

/// The view tier at the edges of the run's clock, on hand-built cases.
/// Figure 1's C → A, C → B: at C's first node, A and B are outside the
/// past and have no outgoing channels, so ψ_A and ψ_B have no in-edges
/// at all and take the clock's least value; the views keep the clock at
/// each process's first node and at the last node. A run with one late
/// node on `i` keeps its clock at 2^59 and 2^62, where its `GB(r)`
/// equals the dense Bellman–Ford from every node; past `i64::MAX` the
/// node's time saturates and `GB(r)` still keeps it, but `ψ_i` lies
/// beyond it, so every view refuses on the `E'` edge into `ψ_i`. And a feed
/// that strands a message behind its receiver's latest node is no legal
/// prefix: its `GB(r)` keeps the clock, but the views whose overlay holds
/// the stranded message refuse.
#[test]
fn views_keep_or_refuse_the_clock_at_its_edges() {
    use zigzag::bcm::Network;

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
    let nodes: Vec<NodeId> = fig1.nodes().map(|r| r.id()).collect();
    let firsts = nodes.iter().filter(|n| n.index() == 1);
    for &sigma in firsts.chain(nodes.last()) {
        assert_ge_and_fast_timing_match_naive(&fig1, sigma, true);
    }

    for (late, clock) in [
        // Recorded times past i64::MAX saturate there on the clock, where
        // the graph's edges still hold; but `ψ_i` lies one past the
        // boundary `i3`, beyond i64::MAX, so its `E'` edge fails.
        (i64::MAX as u64 + 2, false),
        // The clock spans less than 2^63 and the least weight is −3, so
        // every key fits.
        (1 << 62, true),
        (1 << 59, true),
    ] {
        let (run, sigma) = run_with_late_node(late);
        let gb = BoundsGraph::of_run(&run);
        gb.graph().check_clock().unwrap();
        for r in run.nodes().filter(|r| !r.id().is_initial()) {
            let (lane, dense) = (
                gb.longest_from(r.id()).unwrap(),
                gb.graph().longest_from_dense(&r.id()).unwrap(),
            );
            let lane: Vec<Option<i64>> = (0..dense.len()).map(|i| lane.weight(i)).collect();
            assert_eq!(lane, dense, "GB(r) from {} (late node at {late})", r.id());
        }
        assert_ge_and_fast_timing_match_naive(&run, sigma, clock);
    }
    let (saturated, sigma) = run_with_late_node(i64::MAX as u64 + 2);
    let engine = KnowledgeEngine::new(&saturated, sigma).unwrap();
    let refused = engine.ge().distances_to(ExtVertex::Node(sigma));
    assert!(
        matches!(&refused, Err(CoreError::ClockFails { edge, .. }) if edge == "p0#3 --1--> ψ(p0)"),
        "{refused:?}"
    );

    // B@5, then A@2 sending to B on a [1, 3] channel: the message's
    // window closes at 5, which B's latest node does not precede. A's
    // node at 7 sees B@5, and its view holds the stranded message.
    let mut nb = Network::builder();
    let a = nb.add_process("A");
    let bb = nb.add_process("B");
    nb.add_channel(a, bb, 1, 3).unwrap();
    nb.add_channel(bb, a, 1, 3).unwrap();
    let mut engine = IncrementalEngine::new(nb.build().unwrap(), Time::new(20));
    for (proc, time, to, at) in [(bb, 5, a, 7), (a, 2, bb, 4)] {
        engine
            .append_event(&RunEvent {
                proc,
                time: Time::new(time),
                receipts: vec![ReceiptEvent::External("kick".into())],
                sends: vec![SendEvent {
                    to,
                    deliver_at: Time::new(at),
                }],
                actions: Vec::new(),
            })
            .unwrap();
    }
    let sigma = engine
        .append_event(&RunEvent {
            proc: a,
            time: Time::new(7),
            receipts: vec![ReceiptEvent::Message(MessageId::new(0))],
            sends: Vec::new(),
            actions: Vec::new(),
        })
        .unwrap();
    let stranded = engine.run().clone();
    assert!(validate_run(&stranded, Strictness::Prefix).is_err());
    engine.bounds_graph().graph().check_clock().unwrap();
    assert_ge_and_fast_timing_match_naive(&stranded, sigma, false);
    let refused = engine.max_x_basic_matrix(sigma);
    assert!(
        matches!(&refused, Err(CoreError::ClockFails { edge, .. }) if edge == "ψ(p1) ---3--> p0#1"),
        "{refused:?}"
    );
}

/// A legal feed answers on any clock origin: a random run streamed with
/// every time shifted by an epoch-nanosecond origin (~1.7 · 10^18)
/// serves, after every append, the tight bounds between all its nodes,
/// the new node's `max_x` matrix and its `knows` verdicts of the same
/// run streamed from zero; only the span of the times and the weights
/// bound a key, not the times themselves.
#[test]
fn epoch_nanosecond_feeds_answer_as_from_zero() {
    const EPOCH: u64 = 1_700_000_000_000_000_000;
    let run = random_run(4, 10, 7, 7, 22);
    let events: Vec<RunEvent> = RunCursor::new(&run).collect();
    assert!(events.len() >= 11, "{} events", events.len());
    let shift = |t: Time| Time::new(t.ticks() + EPOCH);
    let mut zero = IncrementalEngine::new(run.context_arc(), run.horizon());
    let mut epoch = IncrementalEngine::new(run.context_arc(), shift(run.horizon()));
    for ev in &events {
        let mut shifted = ev.clone();
        shifted.time = shift(ev.time);
        for send in &mut shifted.sends {
            send.deliver_at = shift(send.deliver_at);
        }
        let sigma = zero.append_event(ev).unwrap();
        assert_eq!(epoch.append_event(&shifted).unwrap(), sigma);
        let nodes: Vec<NodeId> = zero
            .run()
            .nodes()
            .map(|r| r.id())
            .filter(|k| !k.is_initial())
            .collect();
        for &a in &nodes {
            for &b in &nodes {
                let want = zero.tight_bound(a, b).unwrap();
                assert_eq!(epoch.tight_bound(a, b).unwrap(), want, "{a} → {b}");
            }
        }
        let matrix = zero.max_x_basic_matrix(sigma).unwrap();
        assert_eq!(
            epoch.max_x_basic_matrix(sigma).unwrap(),
            matrix,
            "at {sigma}"
        );
        for (a, b, x) in matrix.iter() {
            let Some(x) = x else { continue };
            let (a, b) = (GeneralNode::basic(a), GeneralNode::basic(b));
            assert!(epoch.knows(sigma, &a, &b, x).unwrap());
            assert!(!epoch.knows(sigma, &a, &b, x + 1).unwrap());
        }
    }
}

/// A hand-built run with one delivery later than its channel's upper
/// bound. Its recorded times are no valid timing, so `GB(r)` refuses
/// every traversal with `CoreError::ClockFails` naming the delivery's
/// `−U` edge — cold, memoized and caught up — and so do the frontier
/// graph and every observer's view whose past holds the delivery: their
/// distance lanes, paths, fast timings and `max_x`/`knows` answers.
/// Nothing traverses.
#[test]
fn out_of_bounds_delivery_is_refused_on_every_path() {
    use zigzag::bcm::builder::RunBuilder;
    use zigzag::bcm::Network;

    let mut nb = Network::builder();
    let i = nb.add_process("i");
    let j = nb.add_process("j");
    let k = nb.add_process("k");
    for (from, to) in [(i, j), (j, i), (j, k), (k, j)] {
        nb.add_channel(from, to, 2, 4).unwrap();
    }
    let mut rb = RunBuilder::new(nb.build().unwrap(), Time::new(30));
    let i1 = rb.add_node(i, Time::new(1)).unwrap();
    rb.add_external(i1, "kick").unwrap();
    // Due within [3, 5]; delivered at 9.
    let late = rb.send(i1, j, Time::new(9)).unwrap();
    let j1 = rb.add_node(j, Time::new(9)).unwrap();
    rb.deliver(late, j1).unwrap();
    let to_k = rb.send(j1, k, Time::new(12)).unwrap();
    let to_i = rb.send(j1, i, Time::new(13)).unwrap();
    let k1 = rb.add_node(k, Time::new(12)).unwrap();
    rb.deliver(to_k, k1).unwrap();
    let back = rb.send(k1, j, Time::new(15)).unwrap();
    let i2 = rb.add_node(i, Time::new(13)).unwrap();
    rb.deliver(to_i, i2).unwrap();
    let j2 = rb.add_node(j, Time::new(15)).unwrap();
    rb.deliver(back, j2).unwrap();
    let run = rb.finish();
    assert!(validate_run(&run, Strictness::Strict).is_err());
    assert!(IncrementalEngine::ingest(&run).is_err(), "no legal stream");

    assert_gb_refuses(&run);
    let refusal = BoundsGraph::of_run(&run).graph().check_clock().unwrap_err();
    assert!(
        matches!(&refusal, CoreError::ClockFails { edge, .. } if edge == "p1#1 ---4--> p0#1"),
        "{refusal}"
    );
    let fg = FrontierGraph::of_run(&run);
    assert_eq!(fg.longest_to(j2).unwrap_err(), refusal);
    assert_eq!(fg.tight_bound(i1, j2).unwrap_err(), refusal);

    for sigma in [j1, k1, i2, j2] {
        assert_ge_and_fast_timing_match_naive(&run, sigma, false);
        let nodes: Vec<NodeId> = run.past(sigma).iter().filter(|n| !n.is_initial()).collect();
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        for &a in &nodes {
            for &b in &nodes {
                let (ta, tb) = (GeneralNode::basic(a), GeneralNode::basic(b));
                assert_eq!(
                    engine.max_x(&ta, &tb),
                    Err(refusal.clone()),
                    "max_x({a}, {b})"
                );
                assert_eq!(engine.knows(&ta, &tb, 0), Err(refusal.clone()));
            }
        }
        assert_eq!(engine.ge().work(), TraversalWork::default());
    }
}

// ---------------------------------------------------------------------------
// Layout tier: the hot core's one traversal — cold, memoized and caught
// up forward, cold backward — against a textbook dense Bellman–Ford on
// raw edge lists on a clock, at sizes where the layout matters, its work
// counted on the bench's graph shape, and every path the graphs report
// against a naive canonical reference.
// ---------------------------------------------------------------------------

/// Textbook longest-path Bellman–Ford over a raw edge list: `n − 1`
/// full relaxation rounds; no queue, no reuse. The graphs it is given
/// have a clock, so no positive cycle.
fn naive_longest_paths(n: usize, edges: &[(usize, usize, i64)], src: usize) -> Vec<Option<i64>> {
    let mut dist: Vec<Option<i64>> = vec![None; n];
    dist[src] = Some(0);
    for _ in 1..n.max(1) {
        let mut changed = false;
        for &(u, v, w) in edges {
            let Some(du) = dist[u] else { continue };
            let cand = du + w;
            if dist[v].is_none_or(|dv| cand > dv) {
                dist[v] = Some(cand);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

/// Holds one engine answer (cold, memoized hit, or catch-up) to the
/// naive reference: the same weight at every vertex.
fn assert_matches_naive(got: &Distances, naive: &[Option<i64>], stage: &str) {
    for (i, &expected) in naive.iter().enumerate() {
        assert_eq!(
            got.weight(i),
            expected,
            "{stage}: dist diverged at vertex {i}"
        );
    }
}

/// `(weight, edges)` of a naive path, in the dense indices `index`
/// assigns: the form `longest_path` answers in.
fn indexed_path<V: Copy>(
    weight: i64,
    path: &NaivePath<V>,
    index: impl Fn(V) -> usize,
) -> (i64, Vec<Edge>) {
    let edges = path.iter().map(|&(u, v, weight, label)| Edge {
        from: index(u),
        to: index(v),
        weight,
        label,
    });
    (weight, edges.collect())
}

/// Asserts that `got`, a `longest_path` answer, is `want` and that its
/// edges sum to its weight.
fn assert_path(got: Option<(i64, Vec<Edge>)>, want: Option<(i64, Vec<Edge>)>, what: &str) {
    if let Some((w, edges)) = &got {
        assert_eq!(edges.iter().map(|e| e.weight).sum::<i64>(), *w, "{what}");
    }
    assert_eq!(got, want, "{what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The one traversal — cold and memoized, and as the append-log
    /// catch-up, forward; cold, backward — answers exactly like the
    /// textbook dense Bellman–Ford on random raw graphs on a clock at
    /// n ∈ {64, 256}: each edge `u → v` weighs `t(v) − t(u) − slack` for
    /// a random clock `t` and `slack ∈ [0, 10]`, backward against the
    /// reference over reversed edges. On the final graph, the path to
    /// every vertex is the naive canonical reference's.
    #[test]
    fn layout_dijkstra_and_catch_up_match_dense_bellman_ford(
        big in any::<bool>(),
        dag_only in any::<bool>(),
        clock in collection::vec(0i64..1024, 256),
        raw in collection::vec((0u16..=u16::MAX, 0u16..=u16::MAX, 0i64..=10), 64..=512),
        src_pick in 0u16..=u16::MAX,
    ) {
        let n = if big { 256usize } else { 64 };
        // Vertices 0..n at their times (key = dense index), so the edge
        // split below never references an unknown endpoint.
        let mut g: WeightedDigraph<usize> = WeightedDigraph::new();
        for (i, &t) in clock.iter().enumerate().take(n) {
            g.add_vertex(i, t);
        }
        // `dag_only` forces u < v (acyclic by construction); otherwise
        // arbitrary endpoints close cycles, every one non-positive under
        // the clock. An edge's label is its position in `edges`.
        let mut edges: Vec<(usize, usize, i64)> = Vec::new();
        for &(a, b, slack) in &raw {
            let (mut u, mut v) = (a as usize % n, b as usize % n);
            if u == v {
                continue;
            }
            if dag_only && u > v {
                std::mem::swap(&mut u, &mut v);
            }
            edges.push((u, v, clock[v] - clock[u] - slack));
        }
        let src = src_pick as usize % n;
        let reversed = |edges: &[(usize, usize, i64)]| -> Vec<(usize, usize, i64)> {
            edges.iter().map(|&(u, v, w)| (v, u, w)).collect()
        };

        // Stream the first half in and query: a cold Dijkstra that seeds
        // the memo.
        let half = edges.len() / 2;
        for (i, &(u, v, w)) in edges[..half].iter().enumerate() {
            g.add_edge(&u, &v, w, i as u32);
        }
        let cached = g.longest_from_cached(&src).unwrap();
        assert_matches_naive(&cached, &naive_longest_paths(n, &edges[..half], src), "prefix");
        let naive_half_to = naive_longest_paths(n, &reversed(&edges[..half]), src);
        assert_matches_naive(&g.longest_to(&src).unwrap(), &naive_half_to, "prefix to");

        // Append the rest and re-query: the memoized result catches up
        // over the append log.
        for (i, &(u, v, w)) in edges[half..].iter().enumerate() {
            g.add_edge(&u, &v, w, (half + i) as u32);
        }
        let naive = naive_longest_paths(n, &edges, src);
        assert_matches_naive(&g.longest_from_cached(&src).unwrap(), &naive, "catch-up");
        let naive_full_to = naive_longest_paths(n, &reversed(&edges), src);
        assert_matches_naive(&g.longest_to(&src).unwrap(), &naive_full_to, "fresh to");

        // A fresh unmemoized Dijkstra and the in-tree dense ablation
        // baseline agree on the final graph too, and every vertex's path
        // is the canonical one.
        let fresh = g.longest_from(&src).unwrap();
        let dense = g.longest_from_dense(&src).unwrap();
        for (i, &expected) in naive.iter().enumerate() {
            prop_assert_eq!(fresh.weight(i), expected);
            prop_assert_eq!(dense[i], expected);
        }
        let mut graph = NaiveGraph {
            vertices: (0..n).collect(),
            edges: BTreeMap::new(),
        };
        for (label, &(u, v, w)) in edges.iter().enumerate() {
            graph.edges.entry(u).or_default().push((v, w, label as u32));
        }
        let d: BTreeMap<usize, i64> = naive
            .iter()
            .enumerate()
            .filter_map(|(i, w)| Some((i, (*w)?)))
            .collect();
        let targets: Vec<usize> = (0..n).collect();
        let paths = naive_canonical_paths(&graph, &d, src, &targets);
        for (t, path) in paths.iter().enumerate() {
            let want = path.as_ref().map(|p| indexed_path(d[&t], p, |v| v));
            let got = g.longest_path(&src, &t).unwrap();
            assert_path(got, want, &format!("path {src} -> {t}"));
        }
    }
}

/// The work counters on the graph shape of `benches/layout.rs`: vertices
/// `0..n` at times `4v`, a successor chain and `4n` random chords, each
/// edge weighing `4v − 4u − slack`. A cold Dijkstra from 0 pops each of
/// the `n` vertices once and scans each of the `5n − 1` edges once
/// (128 / 639 at n = 128, 256 / 1279 at n = 256). Replaying the last 16
/// edges one append at a time, each query's catch-up pops exactly the
/// vertices whose distance it raised, and the result equals the dense
/// Bellman–Ford.
#[test]
fn layout_traversals_pop_each_vertex_they_settle_once() {
    for n in [128u32, 256] {
        let mut state = 0x5EED_0000 + u64::from(n);
        let mut below = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let t = |v: u32| i64::from(v) * 4;
        let mut edges: Vec<(u32, u32, i64)> = (0..n - 1)
            .map(|v| (v, v + 1, 4 - below(3) as i64))
            .collect();
        for _ in 0..4 * n {
            let u = below(u64::from(n)) as u32;
            let v = (u + 1 + below(u64::from(n) - 1) as u32) % n;
            edges.push((u, v, t(v) - t(u) - below(8) as i64));
        }
        let build = |edges: &[(u32, u32, i64)]| {
            let mut g: WeightedDigraph<u32> = WeightedDigraph::new();
            for v in 0..n {
                g.add_vertex(v, t(v));
            }
            for (k, &(u, v, w)) in edges.iter().enumerate() {
                g.add_edge(&u, &v, w, k as u32);
            }
            g
        };
        let full = build(&edges);
        full.longest_from(&0).unwrap();
        let cold = full.work();
        assert_eq!(
            (cold.pops, cold.scans),
            (u64::from(n), 5 * u64::from(n) - 1)
        );

        let split = edges.len() - 16;
        let mut g = build(&edges[..split]);
        let mut last = g.longest_from_cached(&0).unwrap();
        for (k, &(u, v, w)) in edges.iter().enumerate().skip(split) {
            g.add_edge(&u, &v, w, k as u32);
            let before = g.work();
            let now = g.longest_from_cached(&0).unwrap();
            let raised = (0..n as usize).filter(|&i| now.weight(i) != last.weight(i));
            let pops = g.work().pops - before.pops;
            assert_eq!(pops, raised.count() as u64, "n = {n}, append {k}");
            last = now;
        }
        let dense = g.longest_from_dense(&0).unwrap();
        for (i, want) in dense.into_iter().enumerate() {
            assert_eq!(last.weight(i), want, "n = {n}: vertex {i}");
        }
    }
}

/// `GB(r)` per Definition 8: a successor edge down each timeline and the
/// `±` pair of every delivered message.
fn naive_gb(run: &Run) -> NaiveGraph<NodeId> {
    let bounds = run.context().bounds();
    let vertices: BTreeSet<NodeId> = run.nodes().map(|r| r.id()).collect();
    let mut edges: BTreeMap<NodeId, NaiveRow<NodeId>> = BTreeMap::new();
    let mut add = |from, to, w, label| edges.entry(from).or_default().push((to, w, label));
    for &n in vertices.iter().filter(|n| !n.is_initial()) {
        add(NodeId::new(n.proc(), n.index() - 1), n, 1, LABEL_SUCCESSOR);
    }
    for m in run.messages() {
        let Some(d) = m.delivery() else { continue };
        let cb = bounds.get(m.channel()).expect("bounds cover channels");
        add(m.src(), d.node, cb.lower() as i64, LABEL_SEND);
        add(d.node, m.src(), -(cb.upper() as i64), LABEL_RECV);
    }
    NaiveGraph { vertices, edges }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A bulk-built `GB(r)` reports canonical paths: from each of the
    /// first and the last three nodes to every node,
    /// `BoundsGraph::longest_path` answers the weight and the path of the
    /// naive reference over the Definition 8 graph, with ties broken in
    /// `NodeId` order, the bulk build's dense-index order.
    #[test]
    fn bounds_graph_paths_match_naive_canonical_paths(
        n in 3usize..7,
        density in 0u8..=10,
        topo_seed in 0u64..10_000,
        sched_seed in 0u64..10_000,
    ) {
        let run = random_run(n, density, topo_seed, sched_seed, 22);
        let gb = BoundsGraph::of_run(&run);
        let naive = naive_gb(&run);
        let nodes: Vec<NodeId> = naive.vertices.iter().copied().collect();
        let index = |v: NodeId| gb.graph().index_of(&v).expect("vertex sets agree");
        let (first, last) = corners(&nodes);
        for &a in first.iter().chain(last) {
            let d = naive_longest_from(&naive, a);
            for (&b, path) in nodes.iter().zip(naive_canonical_paths(&naive, &d, a, &nodes)) {
                let want = path.map(|p| indexed_path(d[&b], &p, index));
                let got = gb.longest_path(a, b).unwrap();
                assert_path(got, want, &format!("path {a} -> {b}"));
            }
        }
    }
}

/// The warm memoized query loop is allocation-free: after the first
/// `longest_from_cached` runs Dijkstra and grows the shared scratch arena,
/// every later hit on the unmodified graph is a lock, a hash probe, and
/// a refcount bump — zero heap traffic, counted by the thread-local
/// [`CountingAlloc`] this test binary installs.
#[test]
fn warm_query_loop_allocates_nothing() {
    let mut g: WeightedDigraph<usize> = WeightedDigraph::new();
    for i in 0..128usize {
        g.add_vertex(i, i as i64);
    }
    for i in 0..127usize {
        g.add_edge(&i, &(i + 1), 1, i as u32);
    }
    for i in (0..120usize).step_by(7) {
        g.add_edge(&i, &(i + 5), 3, 1000 + i as u32);
    }
    let src = 0usize;
    let first = g.longest_from_cached(&src).expect("acyclic chain");
    assert!(first.reaches(127));
    drop(first);

    let before = thread_allocs();
    for _ in 0..64 {
        let lp = g.longest_from_cached(&src).expect("acyclic chain");
        std::hint::black_box(lp.weight(127));
    }
    let grew = thread_allocs() - before;
    assert_eq!(grew, 0, "warm longest_from_cached hits must not allocate");
}

/// The cold path's allocation gate, a deterministic work counter. A
/// cold standalone `ObserverState::build` builds `GB(r, σ)`, so it
/// allocates at most twice per `GE(r, σ)` vertex (its out and in rows,
/// each allocated once) plus a constant, and the first basic-node
/// `max_x` on a fresh state allocates a size-independent count — it
/// reads one dense distance lane, not per-vertex map nodes. A session's
/// state is a view over the session's `GB(r)`: building it and answering
/// a first `max_x` on it allocates at most a constant number of times,
/// whatever |V|, on a stream session and a batch session alike.
///
/// The same cold reads as traversals, the work counters of the session's
/// `GB(r)` read as deltas: a cold `max_x`, `knows` and `witness` at a new
/// state each run exactly one Dijkstra traversal, the forward lane from
/// θ1's base; a fast run at the witness's state then adds
/// exactly one, the backward lane to the observer.
#[test]
fn cold_observer_build_allocations_are_bounded() {
    let run = random_run(12, 3, 11, 1, 60);
    let sessions = [
        IncrementalEngine::ingest(&run).unwrap(),
        IncrementalEngine::from_prefix(run.clone()),
    ];
    let procs = run.context().network().len();
    let ge_vertices = |sigma: NodeId| run.past(sigma).len() + procs;
    let nodes: Vec<NodeId> = run
        .nodes()
        .map(|r| r.id())
        .filter(|k| !k.is_initial())
        .collect();
    let small = *nodes
        .iter()
        .find(|&&s| ge_vertices(s) >= 100)
        .expect("a mid-sized observer");
    let large = *nodes
        .iter()
        .max_by_key(|&&s| ge_vertices(s))
        .expect("observers exist");
    let anchor = GeneralNode::basic(nodes[0]);
    let mut first_query = Vec::new();
    for sigma in [small, large] {
        let v = ge_vertices(sigma) as u64;
        let before = thread_allocs();
        let state = ObserverState::build(&run, sigma).unwrap();
        let built = thread_allocs() - before;
        assert!(
            built <= 2 * v + 64,
            "cold build at {sigma} (|V| = {v}) allocated {built} times"
        );
        let engine = KnowledgeEngine::with_state(&run, Arc::new(state));
        let theta2 = GeneralNode::basic(sigma);
        let before = thread_allocs();
        engine.max_x(&anchor, &theta2).unwrap();
        first_query.push((v, thread_allocs() - before));
        for session in &sessions {
            let before = thread_allocs();
            session
                .engine(sigma)
                .unwrap()
                .max_x(&anchor, &theta2)
                .unwrap();
            let read = thread_allocs() - before;
            assert!(
                read <= SESSION_READ_ALLOCS,
                "cold session read at {sigma} (|V| = {v}) allocated {read} times"
            );
        }
    }
    let [(v_small, small_allocs), (v_large, large_allocs)] = first_query[..] else {
        unreachable!("two observers measured");
    };
    assert!(
        v_large >= 3 * v_small,
        "observers too close in size: |V| = {v_small} vs {v_large}"
    );
    assert!(
        small_allocs.abs_diff(large_allocs) <= 8,
        "first max_x allocated {small_allocs} times at |V| = {v_small} \
         but {large_allocs} at |V| = {v_large}"
    );

    let fresh: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|&s| s != small && s != large && run.past(s).contains(nodes[0]))
        .take(3)
        .collect();
    let [at_max_x, at_knows, at_witness] = fresh[..] else {
        panic!("three more observers see the anchor");
    };
    for session in &sessions {
        let work = || session.bounds_graph().graph().work();
        let one_traversal = |before: TraversalWork, what: &str| {
            let traversals = work().traversals - before.traversals;
            assert_eq!(traversals, 1, "{what} ran {traversals} traversals");
        };
        let before = work();
        let theta2 = GeneralNode::basic(at_max_x);
        session.max_x(at_max_x, &anchor, &theta2).unwrap();
        one_traversal(before, "a cold max_x");
        let before = work();
        let theta2 = GeneralNode::basic(at_knows);
        session.knows(at_knows, &anchor, &theta2, 0).unwrap();
        one_traversal(before, "a cold knows");
        let before = work();
        let engine = session.engine(at_witness).unwrap();
        let theta2 = GeneralNode::basic(at_witness);
        assert!(engine.witness(&anchor, &theta2).unwrap().is_some());
        one_traversal(before, "a cold witness");
        let before = work();
        engine.fast_run_of(&anchor, 0, 0).unwrap();
        one_traversal(before, "a fast run after the witness");
    }
}

/// The allocations a cold read on a session may make: the view's build
/// and a first `max_x`, whatever the observer's |V|.
const SESSION_READ_ALLOCS: u64 = 64;

/// The feedback-topology stream the retained-state tests read: its spec,
/// its run, and its `B` nodes past the initial one, the observers.
fn retained_state_stream() -> (zigzag::coord::TimedCoordination, Run, Vec<NodeId>) {
    use zigzag::coord::OptimalStrategy;

    let (spec, sc) = feedback_scenario(4, 1, 9, 640);
    let run = sc
        .run(&mut OptimalStrategy, &mut RandomScheduler::seeded(640))
        .unwrap();
    let observers = run.timeline(spec.b)[1..].iter().map(|r| r.id()).collect();
    (spec, run, observers)
}

/// Builds, answers and holds one state per observer with `answer` (as a
/// caller holding its engine would), and asserts that each keeps at most
/// `RETAINED_BYTES_PER_VERTEX · (|past(r, σ)| + n)` bytes plus a
/// constant, with no term in the view's edge count. The session graph's
/// own buffers — its scratch arena and its walks' slot lane — are sized
/// by one answer at the last observer first, so the count is the state's.
fn assert_held_states_hold_no_edges<'s>(
    what: &str,
    observers: &[NodeId],
    answer: impl Fn(NodeId) -> KnowledgeEngine<'s>,
) {
    drop(answer(*observers.last().unwrap()));
    let mut widest = 0;
    for &sigma in observers {
        let before = thread_live_bytes();
        let held = answer(sigma);
        let bytes = thread_live_bytes() - before;
        let (vertices, edges) = (held.ge().vertex_count(), held.ge().edges().len());
        assert!(
            bytes <= (RETAINED_BYTES_PER_VERTEX * vertices + RETAINED_BYTES_FIXED) as i64,
            "{what} state at {sigma} (|V| = {vertices}, |E| = {edges}) holds {bytes} bytes"
        );
        widest = widest.max(edges);
    }
    assert!(
        widest >= 500,
        "{what} graphs too small to tell: |E| ≤ {widest}"
    );
}

/// A decision state holds no edges: each `ExcludeOwnSends` decision of
/// the feedback stream, made on the session's `GB(r)` and then held,
/// stays within the retained-state bound.
#[test]
fn retained_decision_states_hold_no_edges() {
    use zigzag::coord::knows_required;

    let (spec, run, observers) = retained_state_stream();
    let session = IncrementalEngine::ingest(&run).unwrap();
    let theta_a = spec
        .theta_a(run.external_receipt_node(spec.c, &spec.go_name).unwrap())
        .unwrap();
    assert_held_states_hold_no_edges("decision", &observers, |sigma| {
        let engine = session
            .uncached_engine(sigma, ObserverMode::ExcludeOwnSends)
            .unwrap();
        let _ = knows_required(&engine, spec.kind, &theta_a, &GeneralNode::basic(sigma));
        engine
    });
}

/// A query state that has answered a witness holds no edges either: the
/// witness path is read off the view's distances, not a materialized
/// `GE(r, σ)`. Each full-mode state of the feedback stream, built on the
/// session's `GB(r)`, answers a `Witness` from C's go node to σ, and is
/// then held within the retained-state bound.
#[test]
fn retained_witness_states_hold_no_edges() {
    let (spec, run, observers) = retained_state_stream();
    let session = IncrementalEngine::ingest(&run).unwrap();
    let go = run.external_receipt_node(spec.c, &spec.go_name).unwrap();
    let observers: Vec<NodeId> = observers
        .into_iter()
        .filter(|&sigma| run.past(sigma).contains(go))
        .collect();
    assert!(
        observers.len() >= 8,
        "{} observers know the go",
        observers.len()
    );
    assert_held_states_hold_no_edges("witness", &observers, |sigma| {
        let engine = session.uncached_engine(sigma, ObserverMode::Full).unwrap();
        let witness = engine.witness(&GeneralNode::basic(go), &GeneralNode::basic(sigma));
        assert!(witness.unwrap().is_some(), "σ = {sigma} saw the go node");
        engine
    });
}

/// Bytes a held decision or witness state may hold per `GE(r, σ)`
/// vertex: its frontier's node index (4) and the one distance lane its
/// answer read (8) are 12. A fast timing's lanes and the backward lane
/// would add 17.
const RETAINED_BYTES_PER_VERTEX: usize = 16;

/// Bytes a held decision or witness state may hold whatever its size:
/// the state's fixed parts and its small maps (~2.5 KB).
const RETAINED_BYTES_FIXED: usize = 4096;

// ---------------------------------------------------------------------
// Durability tier (PR 9): kill/recover at EVERY append boundary.
// ---------------------------------------------------------------------

/// A fresh scratch directory for one durability case, unique per case
/// parameters so shrinking reruns never collide with a stale tree.
fn durable_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "zigzag-oracle-durable-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The query set recovery is held byte-identical on: pointwise `max_x`,
/// the dense matrix at the newest observer, a `GB(r)` tight bound, and
/// the Protocol 2 coordination decision.
fn durable_probes(prefix_nodes: &[NodeId]) -> Vec<Query> {
    let mut probes = vec![Query::CoordDecision];
    if let (Some(&first), Some(&last)) = (prefix_nodes.first(), prefix_nodes.last()) {
        probes.push(Query::MaxXMatrix { sigma: last });
        probes.push(Query::MaxX {
            sigma: last,
            theta1: GeneralNode::basic(first),
            theta2: GeneralNode::basic(last),
        });
        probes.push(Query::TightBound {
            from: first,
            to: last,
        });
    }
    probes
}

/// Number of ways [`mutant`] can make an event illegal.
const MUTANT_KINDS: usize = 8;

/// An illegal variant of `ev`, the next event of a simulator-produced
/// run's feed after the legal `prefix` (so stream-scoped message ids are
/// the run's own). `kind` picks the fault: an unknown message, one
/// message delivered twice in the event, an already-delivered message,
/// a non-increasing time, an unknown process, a send on a missing
/// channel, an off-channel delivery, or a delivery outside its
/// channel's bounds. A fault the prefix cannot express (no message
/// delivered yet, say) falls back to the unknown message.
fn mutant(run: &Run, prefix: &[RunEvent], ev: &RunEvent, kind: usize) -> RunEvent {
    let sent = prefix.iter().map(|e| e.sends.len()).sum::<usize>();
    let received = |e: &RunEvent| -> Vec<MessageId> {
        e.receipts
            .iter()
            .filter_map(|r| match r {
                ReceiptEvent::Message(m) => Some(*m),
                ReceiptEvent::External(_) => None,
            })
            .collect()
    };
    let delivered: BTreeSet<MessageId> = prefix.iter().flat_map(received).collect();
    let own = received(ev);
    let in_flight_away = (0..sent as u32)
        .map(MessageId::new)
        .find(|m| !delivered.contains(m) && run.message(*m).channel().to != ev.proc);
    let mut bad = ev.clone();
    match kind {
        1 if !own.is_empty() => bad.receipts.push(ReceiptEvent::Message(own[0])),
        2 if !delivered.is_empty() => {
            let m = *delivered.iter().next().unwrap();
            bad.receipts.push(ReceiptEvent::Message(m));
        }
        3 => {
            bad.time = prefix
                .iter()
                .rfind(|e| e.proc == ev.proc)
                .map_or(Time::ZERO, |e| e.time);
        }
        4 => bad.proc = ProcessId::new(run.context().network().len() as u32),
        5 => bad.sends.push(SendEvent {
            to: ev.proc,
            deliver_at: ev.time + 1,
        }),
        6 if in_flight_away.is_some() => {
            bad.receipts
                .push(ReceiptEvent::Message(in_flight_away.unwrap()));
        }
        7 if !own.is_empty() => {
            // Late past the channel's U; the event's sends shift along
            // and stay legal.
            let m = run.message(own[0]);
            let ch = m.channel();
            let upper = run
                .context()
                .channel_bounds(ch.from, ch.to)
                .unwrap()
                .upper();
            bad.time = m.sent_at() + upper + 1;
            for s in &mut bad.sends {
                s.deliver_at += bad.time.ticks() - ev.time.ticks();
            }
        }
        7 if !ev.sends.is_empty() => bad.sends[0].deliver_at = ev.time,
        _ => bad
            .receipts
            .push(ReceiptEvent::Message(MessageId::new(sent as u32))),
    }
    bad
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Durability tier: stream random (topology, schedule) runs through a
    /// durable session and, after EVERY append, crash (drop nothing
    /// gracefully — just re-read the files) and recover into a fresh
    /// service. Every recovered answer must equal the uninterrupted
    /// session's at the same prefix, with and without snapshots and
    /// observer re-warming; the final state must also survive an
    /// export/import migration. Before every legal event the durable
    /// session is offered a [`mutant`] of it, which must be refused and
    /// change nothing: no log byte is written, and the session keeps
    /// answering like the reference, which never saw a mutant.
    #[test]
    fn recovery_at_every_append_boundary_is_byte_identical(
        n in 3usize..6,
        density in 0u8..=10,
        topo_seed in 0u64..10_000,
        sched_seed in 0u64..10_000,
        snap_every in 0u64..4,
        warm in any::<bool>(),
        mutants in collection::vec(0..MUTANT_KINDS, 1..=16),
    ) {
        use zigzag::api::{CoordKind, SessionStore, StoreConfig, TimedCoordination};

        let run = random_run(n, density, topo_seed, sched_seed, 12);
        let events: Vec<_> = RunCursor::new(&run).collect();
        let config = SessionConfig::new().spec(TimedCoordination::new(
            CoordKind::Late { x: 3 },
            ProcessId::new(1),
            ProcessId::new((n - 1) as u32),
            ProcessId::new(0),
        ));
        // snap_every == 0 means log-only durability; otherwise snapshots
        // land every 1..=3 appends, so most boundaries recover through
        // snapshot + tail.
        let store_config = if snap_every == 0 {
            StoreConfig::new()
        } else {
            StoreConfig::new().snapshot_every(snap_every)
        }
        .warm_observers(warm);
        let dir = durable_dir(&format!(
            "{n}-{density}-{topo_seed}-{sched_seed}-{snap_every}-{warm}"
        ));
        let log_len = || std::fs::metadata(dir.join("feed.log")).unwrap().len();

        // The uninterrupted reference session, fed in lockstep.
        let reference = ZigzagService::new();
        let ref_id = reference.open_stream(run.context_arc(), run.horizon(), config.clone());

        let writer = ZigzagService::new();
        let store = SessionStore::open(&dir, store_config).unwrap();
        let id = store
            .open_stream(&writer, "feed", run.context_arc(), run.horizon(), config.clone())
            .unwrap();

        // Each appended event creates exactly one timeline node on its
        // process (index = events so far on that process, initial = 0).
        let mut next_idx = vec![0u32; n];
        let mut prefix_nodes: Vec<NodeId> = Vec::new();
        for (k, ev) in events.iter().enumerate() {
            let bad = mutant(&run, &events[..k], ev, mutants[k % mutants.len()]);
            let len = log_len();
            prop_assert!(
                store.append(&writer, id, &bad).is_err(),
                "boundary {}: mutant {:?} accepted", k, bad
            );
            prop_assert_eq!(log_len(), len, "boundary {}: a refused event was logged", k);
            prop_assert_eq!(writer.stats().store.events_logged, k as u64);
            store.append(&writer, id, ev).unwrap();
            reference.append(ref_id, ev).unwrap();
            next_idx[ev.proc.index()] += 1;
            prefix_nodes.push(NodeId::new(ev.proc, next_idx[ev.proc.index()]));

            // Crash here: recover the on-disk state into a fresh service.
            let recovered = ZigzagService::new();
            let rec_store = SessionStore::open(&dir, store_config).unwrap();
            let rec = rec_store.recover(&recovered, "feed").unwrap();
            prop_assert_eq!(
                rec.restored_events + rec.replayed_events,
                (k + 1) as u64,
                "boundary {}: wrong recovered event count", k
            );
            prop_assert!(!rec.truncated, "boundary {}: clean log flagged torn", k);
            for q in durable_probes(&prefix_nodes) {
                let want = reference.dispatch(ref_id, &q);
                prop_assert_eq!(
                    &writer.dispatch(id, &q), &want,
                    "boundary {}: {:?} diverged after a refused event", k, q
                );
                let got = recovered.dispatch(rec.id, &q);
                prop_assert_eq!(
                    &got, &want,
                    "boundary {}: {:?} diverged after recovery", k, q
                );
                // Byte-identical on the wire too, not just structurally.
                if let (Ok(want), Ok(got)) = (&want, &got) {
                    prop_assert_eq!(
                        wire::encode_response(got),
                        wire::encode_response(want),
                        "boundary {}: wire bytes diverged", k
                    );
                }
            }
        }

        // The fully-fed session also survives migration: export from the
        // writer, import into a fresh service, answers unchanged.
        let snap = writer.export(id).unwrap();
        let target = ZigzagService::new();
        let moved = target.import(snap);
        for q in durable_probes(&prefix_nodes) {
            prop_assert_eq!(
                &target.dispatch(moved, &q),
                &reference.dispatch(ref_id, &q),
                "{:?} diverged after migration", q
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Supervised-recovery tier (PR 10): kill/recover at every append
// boundary while a second thread serves queries concurrently.
// ---------------------------------------------------------------------

/// Kill-at-every-append-boundary oracle under concurrent serving: while
/// the main thread appends through the supervised wire path
/// (`Query::Append` → durable store) and crash-recovers at every
/// boundary, a second thread hammers the *live* service with queries.
/// Required: the querier only ever sees success or a typed error —
/// never `Error::Internal` (a poisoned lock or caught panic escaping) —
/// and every post-recovery answer is byte-identical to the
/// uninterrupted reference session's.
#[test]
fn concurrent_queries_never_poison_recovery_at_any_boundary() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use zigzag::api::{
        CoordKind, Error, SessionStore, SessionSupervisor, StoreConfig, TimedCoordination,
    };

    let run = random_run(4, 6, 42, 43, 12);
    let events: Vec<_> = RunCursor::new(&run).collect();
    let config = SessionConfig::new().spec(TimedCoordination::new(
        CoordKind::Late { x: 3 },
        ProcessId::new(1),
        ProcessId::new(3),
        ProcessId::new(0),
    ));
    let store_config = StoreConfig::new().snapshot_every(2);
    let dir = durable_dir("concurrent");

    // The uninterrupted reference, fed in lockstep.
    let reference = ZigzagService::new();
    let ref_id = reference.open_stream(run.context_arc(), run.horizon(), config.clone());

    let writer = Arc::new(ZigzagService::new());
    let store = Arc::new(SessionStore::open(&dir, store_config).unwrap());
    let (sup, swept) = SessionSupervisor::bind(Arc::clone(&writer), Arc::clone(&store)).unwrap();
    assert!(swept.is_empty());
    let id = store
        .open_stream(
            &writer,
            "feed",
            run.context_arc(),
            run.horizon(),
            config.clone(),
        )
        .unwrap();

    // The concurrent querier: cheap and heavy queries against the live
    // service for the whole oracle run. Typed errors are legitimate
    // (e.g. CoordDecision racing an empty prefix); Internal is not.
    let stop = Arc::new(AtomicBool::new(false));
    let querier = {
        let service = Arc::clone(&writer);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || -> u64 {
            let mut served = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for q in [Query::EventCount, Query::CoordDecision] {
                    match service.dispatch(id, &q) {
                        Ok(_) => served += 1,
                        Err(Error::Internal { detail }) => {
                            panic!("internal error escaped to a concurrent reader: {detail}")
                        }
                        Err(_) => served += 1,
                    }
                }
            }
            served
        })
    };

    let mut next_idx = [0u32; 4];
    let mut prefix_nodes: Vec<NodeId> = Vec::new();
    for (k, ev) in events.iter().enumerate() {
        // Append through the supervised wire path, so the durable hook
        // itself runs under concurrency.
        let appended = writer
            .dispatch(id, &Query::Append(Box::new(ev.clone())))
            .unwrap();
        assert_eq!(appended, Response::Appended((k + 1) as u64));
        reference.append(ref_id, ev).unwrap();
        next_idx[ev.proc.index()] += 1;
        prefix_nodes.push(NodeId::new(ev.proc, next_idx[ev.proc.index()]));

        // Crash here: bind a fresh supervisor over the same directory —
        // the startup sweep must reattach the session and answer the
        // probe set byte-identically to the uninterrupted reference.
        let recovered = Arc::new(ZigzagService::new());
        let rec_store = Arc::new(SessionStore::open(&dir, store_config).unwrap());
        let (_rec_sup, recs) = SessionSupervisor::bind(Arc::clone(&recovered), rec_store).unwrap();
        assert_eq!(recs.len(), 1, "boundary {k}: sweep missed the session");
        assert_eq!(recs[0].0, "feed");
        let rec = &recs[0].1;
        assert_eq!(
            rec.restored_events + rec.replayed_events,
            (k + 1) as u64,
            "boundary {k}: wrong recovered event count"
        );
        for q in durable_probes(&prefix_nodes) {
            let want = reference.dispatch(ref_id, &q);
            let got = recovered.dispatch(rec.id, &q);
            assert_eq!(got, want, "boundary {k}: {q:?} diverged after recovery");
            if let (Ok(want), Ok(got)) = (&want, &got) {
                assert_eq!(
                    wire::encode_response(got),
                    wire::encode_response(want),
                    "boundary {k}: wire bytes diverged"
                );
            }
        }
    }

    stop.store(true, Ordering::Relaxed);
    let served = querier
        .join()
        .expect("the concurrent querier panicked — a poisoned lock escaped");
    assert!(served > 0, "the querier never got a single answer through");
    drop(sup);
    let _ = std::fs::remove_dir_all(&dir);
}
