//! A weighted directed multigraph on a clock, with longest-path queries.
//!
//! Bounds graphs (paper §5) contain cycles (every delivered message
//! contributes a forward `+L` edge and a backward `−U` edge) but no
//! positive cycles: by Lemma 8 a legal run's recorded times are a valid
//! timing of its bounds graph, `T(u) + w ≤ T(v)` on every edge. A
//! [`WeightedDigraph`] keeps such a clock, one time per vertex, and checks
//! it on every edge it adds.
//!
//! # One traversal
//!
//! Every longest-path query is a **potential-reweighted Dijkstra** under
//! the clock: Johnson reweighting turns every edge into a non-negative
//! slack `T(v) − T(u) − w`, so each vertex settles once and each edge is
//! scanned at most once. A traversal reads a graph through the
//! crate-internal `Rows` trait: a vertex count, a potential, and a scan
//! of one vertex's row yielding each edge's far end, weight and label
//! and the far end's potential. A [`WeightedDigraph`] is rows over its
//! adjacency, and a bounds graph closed by auxiliary vertices — an
//! observer's view of `GE(r, σ)`, or the frontier graph of
//! [`crate::construct`] — rows over the `GB(r)` it is cut from, filtered
//! at the cut, plus a small overlay (see [`crate::extended_graph`]).
//!
//! A graph whose clock fails on an edge, or whose slack keys could reach
//! `u64::MAX`, has no traversal: every query refuses with
//! [`CoreError::ClockFails`] naming the first failing edge, or else the
//! lightest ([`WeightedDigraph::check_clock`]). The span of the times at
//! the graph's edges plus its vertex count times its least weight's
//! magnitude bounds every key, and no bounds graph's keys reach that
//! limit, so among runs only illegal ones (hand-built, or fed with a
//! stranded message) and those whose recorded times reach `i64::MAX`,
//! where the clock saturates, are refused. An edge never changes once
//! added, so a refusal stays. The dense Bellman–Ford references
//! ([`WeightedDigraph::longest_from_dense`]) ignore the clock; they are
//! the oracle every traversal is tested against, and the one place a
//! positive cycle is still detected ([`CoreError::PositiveCycle`]).
//!
//! Every traversal returns [`Distances`], one weight per vertex and
//! nothing else. Traversals over a graph's rows, or a closed graph cut
//! from them, count their queue pops and edge scans on that graph
//! ([`WeightedDigraph::work`]) and borrow its scratch arena.
//!
//! # Paths
//!
//! A path is defined by the graph, not by a traversal's tie-breaks:
//! among the maximum-weight paths from the root, the one with the fewest
//! edges, each vertex entered by its least `(label, tail index)` tight
//! in-edge (`d(u) + w = d(v)`) from the previous hop level, where the
//! index is the dense one. `canonical_path` reads it off any traversal's
//! distances with one breadth-first pass over the tight edges and one
//! backward scan along the path; the hop levels keep the zero-weight
//! cycles of channels with `L = U` from looping. `GB(r)`'s paths
//! ([`WeightedDigraph::longest_path`]) and those of `GE(r, σ)`
//! ([`crate::extended_graph::GeView::longest_path`]), which the
//! witnesses of `crate::knowledge` are, all follow this one rule.
//!
//! # Shared analysis
//!
//! Causal-order queries are the hot path of the knowledge engine, and
//! batched queries revisit the same sources. So every forward result over
//! a graph's rows can be memoized per source and shared as an [`Arc`]:
//! repeated queries against an unmodified graph are O(1) — and
//! allocation-free — after first touch
//! ([`WeightedDigraph::longest_from_cached`]). Backward traversals are
//! not memoized, and a view of `GE(r, σ)` memoizes its distance results
//! itself.
//!
//! The memo survives mutation **monotonically**: the only mutations the
//! graph supports are additions ([`WeightedDigraph::add_vertex`] /
//! [`WeightedDigraph::add_edge`]), and adding vertices or edges can only
//! *raise* longest-path weights — every old path still exists, new edges
//! merely offer new ones. So instead of dropping memoized results on
//! mutation, the graph logs the edges appended since each result was
//! computed and catches a stale result up on its next query with a
//! Dijkstra seeded at the heads the logged edges improve (Ramalingam &
//! Reps, *J. Algorithms* 21, 1996): a vertex's key is its slack from the
//! root, `T(v) − T(root) − d(v)`, which only falls as `d(v)` rises, so
//! each improved vertex settles once and the converged bulk of the old
//! result is never visited. This is what makes append-only consumers
//! (`crate::incremental`) pay per-append cost proportional to the
//! change, not the graph.
//!
//! # Data layout
//!
//! The core has one graph layout, adjacency rows, and its hot lanes are
//! over `u32` indices:
//!
//! * A [`WeightedDigraph`] keeps one adjacency row of [`Edge`] records
//!   per vertex and direction, which its traversals and every closed
//!   graph cut from it scan in place, and its clock as one `i64` lane;
//!   [`WeightedDigraph::from_edges`] allocates each row once.
//! * [`Distances`] is one sentinel-coded lane: `Vec<i64>` with
//!   [`i64::MIN`] meaning *unreachable* (no `Option` tag bytes), 8 bytes
//!   per vertex. A path is rebuilt from it on demand (see *Paths*), so no
//!   result keeps a predecessor forest.
//! * All interior vertex ids are `u32`; the `HashMap<V, usize>` interner
//!   stays at the boundary, and every narrowing conversion funnels
//!   through one checked helper (`checked_u32`) that reports
//!   [`CoreError::IndexOverflow`] instead of silently truncating.
//!
//! # Scratch arena and the radix heap
//!
//! The transient state of a traversal, its Dijkstra queue, lives in a
//! scratch arena owned by the graph's analysis cache. A cold query takes
//! it out under the lock, traverses outside the lock, and puts it back,
//! and a catch-up uses it under the lock, reading the append log in
//! place, so steady-state serving recycles the same warm allocations
//! across queries (the result lanes themselves are freshly allocated:
//! they outlive the query inside the memo).
//!
//! The Dijkstra queue is a radix heap keyed by slack. Slack keys only
//! grow as vertices settle, so a key's bucket is the highest bit in which
//! it differs from the last key popped; its cost depends on the bit
//! length of slack differences, not on how large the timestamps are.
//! Buckets are intrusive doubly linked lists threaded through per-vertex
//! lanes, so a lowered key relinks its vertex in O(1), each vertex is
//! queued at most once, and the whole queue is a few lanes recycled with
//! the arena. A traversal pops every vertex it queues, so it leaves the
//! lanes ready for the next one: they grow with the graph and are never
//! cleared, and a catch-up touches only the vertices it queues.
//!
//! Everything lives behind a [`Mutex`] so graphs (and the engines built
//! on them) stay `Send + Sync` for the parallel sweep layer.

#![deny(clippy::cast_possible_wrap)]

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use crate::error::CoreError;
use crate::fx::FxBuild;

/// Sentinel distance: the vertex is unreachable from the query root.
const UNREACHABLE: i64 = i64::MIN;

/// Narrows a `usize` into the graph's interior `u32` index space.
///
/// This is the single checked-conversion site for the hot core: vertex
/// counts and interned vertex ids funnel through it.
/// Infallible public signatures (`add_vertex`, `from_edges`) unwrap the
/// result; fallible builders propagate it.
///
/// # Errors
///
/// Returns [`CoreError::IndexOverflow`] if `value` does not fit in
/// `u32`.
fn checked_u32(value: usize, what: &str) -> Result<u32, CoreError> {
    u32::try_from(value).map_err(|_| CoreError::IndexOverflow {
        detail: format!("{what} ({value}) exceeds the u32 index space"),
    })
}

/// An edge of the graph, with a caller-defined `label` used by the
/// extraction layer to remember what the edge encodes (successor hop,
/// message send, message reverse, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source vertex index.
    pub from: usize,
    /// Target vertex index.
    pub to: usize,
    /// Edge weight (a timing constraint `T(from) + weight <= T(to)`).
    pub weight: i64,
    /// Caller-defined tag.
    pub label: u32,
}

impl Edge {
    pub(crate) const fn new(from: usize, to: usize, weight: i64, label: u32) -> Self {
        Edge {
            from,
            to,
            weight,
            label,
        }
    }
}

/// What the clock says about a set of edges: the first edge it fails on,
/// an edge of least weight, and the span of the times at the edges' ends.
/// The last two bound every Dijkstra key (see [`ClockCheck::refusal`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClockCheck {
    fails: Option<Edge>,
    /// The first noted edge of least weight.
    lightest: Option<Edge>,
    /// The least weight of the noted edges and of those
    /// [`ClockCheck::widen`] joined.
    least: i64,
    /// The least and greatest time at an end of those edges.
    span: (i64, i64),
}

impl Default for ClockCheck {
    fn default() -> Self {
        ClockCheck {
            fails: None,
            lightest: None,
            least: i64::MAX,
            span: (i64::MAX, i64::MIN),
        }
    }
}

impl ClockCheck {
    /// Checks the clock on one edge whose ends have times `t`: its slack
    /// `T(to) − T(from) − weight` must be non-negative.
    pub(crate) fn note(&mut self, e: Edge, t: (i64, i64)) {
        if i128::from(t.1) - i128::from(t.0) < i128::from(e.weight) {
            self.fails.get_or_insert(e);
        }
        if e.weight < self.least {
            self.least = e.weight;
            self.lightest = Some(e);
        }
        self.span = (self.span.0.min(t.0.min(t.1)), self.span.1.max(t.0.max(t.1)));
    }

    /// Joins the span and the least weight of `other`'s edges into this
    /// check's bound, for a graph whose edges are this check's and some
    /// of `other`'s; `other`'s failing edge, named in its own indices,
    /// stays its own.
    pub(crate) fn widen(&mut self, other: &ClockCheck) {
        self.least = self.least.min(other.least);
        self.span = (self.span.0.min(other.span.0), self.span.1.max(other.span.1));
    }

    /// Why a traversal over these edges, in a graph of `vertices`
    /// vertices named by `name` and timed by `time`, may not run: the
    /// first edge the clock fails on, or else, if a key could reach
    /// `u64::MAX`, the lightest edge. Every vertex a traversal reaches
    /// besides its root ends a noted edge, and its key is the slack of
    /// a walk from the root of at most `vertices` edges (a longest path
    /// and one edge more), so it is at most the span plus `vertices`
    /// times the least weight's magnitude. A bounds graph's clock lies
    /// in `[0, i64::MAX]` and its weights are at least `−MAX_BOUND`
    /// (`−2^31`) over fewer than `2^32` vertices, so its keys never
    /// reach that.
    pub(crate) fn refusal<N: fmt::Display>(
        &self,
        vertices: usize,
        name: impl Fn(usize) -> N,
        time: impl Fn(usize) -> i64,
    ) -> Option<CoreError> {
        let refuse = |e: Edge, detail: String| CoreError::ClockFails {
            edge: format!("{} --{}--> {}", name(e.from), e.weight, name(e.to)),
            detail,
        };
        if let Some(e) = self.fails {
            let (from, to) = (time(e.from), time(e.to));
            return Some(refuse(
                e,
                format!("its ends' times {from} and {to} violate it"),
            ));
        }
        let e = self.lightest?;
        let span = self.span.1.abs_diff(self.span.0);
        let depth = u128::from(self.least.min(0).unsigned_abs()) * vertices as u128;
        if u128::from(span) + depth < u128::from(u64::MAX) {
            return None;
        }
        let detail = format!(
            "the clock spans {span} and edges weigh down to {}: over {vertices} vertices a key \
             could overflow",
            self.least
        );
        Some(refuse(e, detail))
    }
}

/// One append-log entry: an edge with its endpoints shrunk to the `u32`
/// interior index width and no label, which no catch-up reads (16 bytes
/// instead of [`Edge`]'s 32). The log is one push per appended edge on
/// the hot mutation path, kept only while memoized results exist, and
/// read in place when a stale result catches up. Nothing trims it while
/// they exist, so it can hold one entry per edge appended since the
/// first: at most a quarter of the two 32-byte adjacency rows each such
/// edge also fills.
#[derive(Debug, Clone, Copy)]
struct LogEdge {
    from: u32,
    to: u32,
    weight: i64,
}

/// The work of one traversal: queue pops and edge scans.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    pops: u64,
    scans: u64,
}

/// The cumulative traversal work done on one graph, read with
/// [`WeightedDigraph::work`]: cold traversals, catch-ups and the
/// traversals of views over its rows alike. A pop settles a vertex for
/// good; memo hits do no work and count nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalWork {
    /// Traversals run.
    pub traversals: u64,
    /// Queue pops, over all traversals.
    pub pops: u64,
    /// Edge scans, over all traversals.
    pub scans: u64,
    /// The most pops a single traversal made.
    pub max_pops: u64,
    /// The most edge scans a single traversal made.
    pub max_scans: u64,
}

impl TraversalWork {
    fn record(&mut self, t: Tally) {
        self.traversals += 1;
        self.pops += t.pops;
        self.scans += t.scans;
        self.max_pops = self.max_pops.max(t.pops);
        self.max_scans = self.max_scans.max(t.scans);
    }
}

/// Buckets of the radix heap: a slack key first differs from the last
/// popped key in one of 64 bits (bucket = that bit + 1), or not at all
/// (bucket 0).
const BUCKETS: usize = 65;

/// Sentinel link: the end of a bucket list.
const NIL: u32 = u32::MAX;

/// Sentinel bucket: the vertex is not queued.
const UNQUEUED: u8 = u8::MAX;

/// The Dijkstra queue: a monotone radix heap of vertices keyed by slack
/// (see the [module docs](self)). Each bucket is a doubly linked list
/// threaded through the `next`/`prev` lanes; `key` holds each queued
/// vertex's key, and a popped vertex's last one.
#[derive(Debug)]
struct RadixHeap {
    last: u64,
    heads: [u32; BUCKETS],
    key: Vec<u64>,
    next: Vec<u32>,
    prev: Vec<u32>,
    bucket: Vec<u8>,
}

impl Default for RadixHeap {
    fn default() -> Self {
        RadixHeap {
            last: 0,
            heads: [NIL; BUCKETS],
            key: Vec::new(),
            next: Vec::new(),
            prev: Vec::new(),
            bucket: Vec::new(),
        }
    }
}

impl RadixHeap {
    /// Readies the empty heap for a graph of `n` vertices, growing its
    /// lanes if they are shorter. A traversal pops every vertex it
    /// queues, which leaves each bucket list empty and each vertex
    /// unqueued, and a key or link is written before it is read, so
    /// nothing else needs clearing: the cost is in the growth, not in
    /// `n`.
    fn fit(&mut self, n: usize) {
        debug_assert!(
            self.heads.iter().all(|&h| h == NIL),
            "a traversal empties its heap"
        );
        self.last = 0;
        if self.bucket.len() < n {
            self.key.resize(n, 0);
            self.bucket.resize(n, UNQUEUED);
            self.next.resize(n, NIL);
            self.prev.resize(n, NIL);
        }
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        (u64::BITS - (key ^ self.last).leading_zeros()) as usize
    }

    #[inline]
    fn link(&mut self, v: u32, b: usize) {
        let head = self.heads[b];
        self.bucket[v as usize] = b as u8;
        self.prev[v as usize] = NIL;
        self.next[v as usize] = head;
        if head != NIL {
            self.prev[head as usize] = v;
        }
        self.heads[b] = v;
    }

    #[inline]
    fn unlink(&mut self, v: u32) {
        let (p, n) = (self.prev[v as usize], self.next[v as usize]);
        if p == NIL {
            self.heads[self.bucket[v as usize] as usize] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        }
    }

    /// Queues `v` at `key`, or lowers its key if it is queued. Keys never
    /// go below the last popped key (Dijkstra's monotonicity).
    #[inline]
    fn push(&mut self, v: u32, key: u64) {
        debug_assert!(key >= self.last, "radix heap keys are monotone");
        self.key[v as usize] = key;
        let b = self.bucket_of(key);
        match self.bucket[v as usize] {
            UNQUEUED => {}
            // A lowered key often stays in its bucket.
            old if old as usize == b => return,
            _ => self.unlink(v),
        }
        self.link(v, b);
    }

    /// Removes a vertex of least key, if any. When bucket 0 is empty the
    /// first non-empty bucket is spread out below its least key, which
    /// becomes the new `last`.
    fn pop(&mut self) -> Option<u32> {
        if self.heads[0] == NIL {
            let b = self.heads.iter().position(|&h| h != NIL)?;
            let mut v = self.heads[b];
            let mut least = u64::MAX;
            while v != NIL {
                least = least.min(self.key[v as usize]);
                v = self.next[v as usize];
            }
            self.last = least;
            let mut v = std::mem::replace(&mut self.heads[b], NIL);
            while v != NIL {
                let next = self.next[v as usize];
                self.link(v, self.bucket_of(self.key[v as usize]));
                v = next;
            }
        }
        let v = self.heads[0];
        self.unlink(v);
        self.bucket[v as usize] = UNQUEUED;
        Some(v)
    }
}

/// One memoized forward result, tagged with the graph generation it is
/// current at: results from older generations catch up instead of being
/// recomputed (see the [module docs](self)).
#[derive(Debug, Clone)]
struct CachedDistances {
    /// Vertex count the result is current at.
    vertices: usize,
    /// Edge count the result is current at.
    edges: usize,
    dist: Arc<Distances>,
}

/// Memoized analysis state: the forward results computed so far keyed by
/// source, the append log that lets stale results catch up
/// incrementally, the scratch arena the traversals recycle, and the work
/// counters.
#[derive(Debug, Default)]
struct AnalysisCache {
    memo: HashMap<u32, CachedDistances, FxBuild>,
    /// Edges appended since `log_base`, in insertion order. Maintained
    /// only while memoized results exist (reset whenever `memo` is
    /// empty), so pure construction phases log nothing; see [`LogEdge`]
    /// for its size.
    log: Vec<LogEdge>,
    /// Edge count at the start of `log`.
    log_base: usize,
    /// The reusable traversal arena, everything a traversal needs besides
    /// its result lane; `None` while a query has it out.
    scratch: Option<Box<RadixHeap>>,
    work: TraversalWork,
}

impl AnalysisCache {
    /// Puts a borrowed arena back and counts the traversal's work. A
    /// concurrent query may have parked its own arena meanwhile; one is
    /// kept.
    fn park(&mut self, scratch: Box<RadixHeap>, tally: Tally) {
        if self.scratch.is_none() {
            self.scratch = Some(scratch);
        }
        self.work.record(tally);
    }
}

/// A weighted directed multigraph over vertices of type `V`, each with a
/// time on the graph's clock.
///
/// Vertices are interned to dense indices when added; parallel edges are
/// allowed (bounds graphs need them: two processes exchanging messages
/// produce edges of both signs between the same node pair).
///
/// Longest-path queries run Dijkstra under the clock and are memoized:
/// see the [module docs](self) and
/// [`WeightedDigraph::longest_from_cached`].
#[derive(Debug)]
pub struct WeightedDigraph<V> {
    index: HashMap<V, usize, FxBuild>,
    vertices: Vec<V>,
    /// Each vertex's time, by dense index.
    clock: Vec<i64>,
    out: Vec<Vec<Edge>>,
    r#in: Vec<Vec<Edge>>,
    edge_count: usize,
    check: ClockCheck,
    cache: Mutex<AnalysisCache>,
}

impl<V: Clone> Clone for WeightedDigraph<V> {
    fn clone(&self) -> Self {
        // Cached Arcs describe the same topology; sharing them is safe and
        // keeps a clone-then-query pattern warm. The scratch arena is not
        // shared — each graph warms its own.
        let shared = {
            let cache = self.cache.lock().expect("cache lock");
            AnalysisCache {
                memo: cache.memo.clone(),
                log: cache.log.clone(),
                log_base: cache.log_base,
                scratch: None,
                work: cache.work,
            }
        };
        WeightedDigraph {
            index: self.index.clone(),
            vertices: self.vertices.clone(),
            clock: self.clock.clone(),
            out: self.out.clone(),
            r#in: self.r#in.clone(),
            edge_count: self.edge_count,
            check: self.check,
            cache: Mutex::new(shared),
        }
    }
}

impl<V: Hash + Eq + Clone + fmt::Display> Default for WeightedDigraph<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Hash + Eq + Clone + fmt::Display> WeightedDigraph<V> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::from_edges(Vec::new(), Vec::new(), &[])
    }

    /// Builds a graph in one pass from its vertices, in dense-index order,
    /// their times on the clock, and an edge list over those indices —
    /// the bulk constructor behind every bounds-graph builder. Degrees are
    /// counted first, so each adjacency row is allocated once, at its
    /// exact size or four edges if larger, and each row holds its edges in
    /// list order: the result is the graph that
    /// [`WeightedDigraph::add_edge`] calls in list order would build. The
    /// clock is checked on every edge.
    ///
    /// # Panics
    ///
    /// Panics if a vertex repeats, if `clock` and `vertices` differ in
    /// length, if an edge endpoint is not below `vertices.len()`, or if
    /// the graph exceeds the `u32` index space.
    pub fn from_edges(vertices: Vec<V>, clock: Vec<i64>, edges: &[Edge]) -> Self {
        let n = vertices.len();
        checked_u32(n, "vertex count").expect("graph exceeds the u32 index space");
        assert_eq!(clock.len(), n, "from_edges: one time per vertex");
        let mut index = HashMap::with_capacity_and_hasher(n, FxBuild::default());
        for (i, v) in vertices.iter().enumerate() {
            let fresh = index.insert(v.clone(), i).is_none();
            assert!(fresh, "from_edges: vertex {i} repeats an earlier vertex");
        }
        let mut degrees = vec![(0usize, 0usize); n];
        let mut check = ClockCheck::default();
        for &e in edges {
            degrees[e.from].0 += 1;
            degrees[e.to].1 += 1;
            check.note(e, (clock[e.from], clock[e.to]));
        }
        // A non-empty row holds at least four edges (128 bytes), the
        // capacity a first push would give it. Smaller blocks land in
        // glibc malloc's fast bins, which are never coalesced: with rows
        // of one to three edges, freed observer states fragmented the
        // heap and a durable serving run's peak RSS swung by ~25%
        // between runs.
        let row = |degree: usize| Vec::with_capacity(if degree == 0 { 0 } else { degree.max(4) });
        let mut out: Vec<Vec<Edge>> = degrees.iter().map(|d| row(d.0)).collect();
        let mut r#in: Vec<Vec<Edge>> = degrees.iter().map(|d| row(d.1)).collect();
        for &e in edges {
            out[e.from].push(e);
            r#in[e.to].push(e);
        }
        WeightedDigraph {
            index,
            vertices,
            clock,
            out,
            r#in,
            edge_count: edges.len(),
            check,
            // The log starts after the bulk edges, so a result cached
            // before the first append catches up from the right entry.
            cache: Mutex::new(AnalysisCache {
                log_base: edges.len(),
                ..AnalysisCache::default()
            }),
        }
    }

    /// Records a mutation: memoized results are *kept* and the appended
    /// edge (if any) is logged so they can catch up on their next query.
    fn note_mutation(&mut self, appended: Option<Edge>) {
        let edge_count = self.edge_count;
        let cache = self.cache.get_mut().expect("cache lock");
        if cache.memo.is_empty() {
            // Nothing to catch up: restart the log here so construction
            // phases (thousands of adds before any query) log nothing.
            cache.log.clear();
            cache.log_base = edge_count;
        } else if let Some(e) = appended {
            // Endpoints are dense indices, which `add_vertex` already
            // guarantees fit in u32.
            cache.log.push(LogEdge {
                from: e.from as u32,
                to: e.to as u32,
                weight: e.weight,
            });
        }
    }

    /// Interns `v` at `time` on the clock, returning its dense index; a
    /// vertex already interned keeps its index and time. Memoized
    /// longest-path results survive (a fresh vertex is unreachable until
    /// an edge arrives) and are resized on their next query.
    ///
    /// # Panics
    ///
    /// Panics if the graph already holds `u32::MAX` vertices (interior
    /// indices are `u32`; see the [module docs](self)).
    pub fn add_vertex(&mut self, v: V, time: i64) -> usize {
        if let Some(&i) = self.index.get(&v) {
            return i;
        }
        let i = self.vertices.len();
        checked_u32(i + 1, "vertex count").expect("graph exceeds the u32 index space");
        self.index.insert(v.clone(), i);
        self.vertices.push(v);
        self.clock.push(time);
        self.out.push(Vec::new());
        self.r#in.push(Vec::new());
        self.note_mutation(None);
        i
    }

    /// Adds the edge `from --weight--> to` with a label and checks the
    /// clock on it. Memoized longest-path results survive and catch up
    /// over the new edge on their next query (see the
    /// [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not a vertex: add it, with its time, first.
    pub fn add_edge(&mut self, from: &V, to: &V, weight: i64, label: u32) {
        let vertex = |v: &V| {
            self.index_of(v)
                .expect("add_edge: endpoint is not a vertex")
        };
        let (f, t) = (vertex(from), vertex(to));
        self.add_edge_indexed(f, t, weight, label);
    }

    /// Adds an edge between two already-interned dense indices (as
    /// returned by [`WeightedDigraph::add_vertex`]). The streaming append
    /// path uses this to intern each endpoint once per appended node
    /// instead of once per edge.
    pub(crate) fn add_edge_indexed(&mut self, from: usize, to: usize, weight: i64, label: u32) {
        let e = Edge::new(from, to, weight, label);
        self.out[from].push(e);
        self.r#in[to].push(e);
        self.edge_count += 1;
        self.check.note(e, (self.clock[from], self.clock[to]));
        self.note_mutation(Some(e));
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The dense index of `v`, if interned.
    pub fn index_of(&self, v: &V) -> Option<usize> {
        self.index.get(v).copied()
    }

    /// The vertex at dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn vertex(&self, i: usize) -> &V {
        &self.vertices[i]
    }

    /// The time of dense vertex `i` on the clock.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn clock(&self, i: usize) -> i64 {
        self.clock[i]
    }

    /// Why a traversal over this graph's rows, or over a view of them
    /// with `vertices` vertices, may not run (see [`ClockCheck`]).
    pub(crate) fn clock_refusal(&self, vertices: usize) -> Option<CoreError> {
        self.check
            .refusal(vertices, |i| &self.vertices[i], |i| self.clock[i])
    }

    /// What the clock says about this graph's edges.
    pub(crate) fn clock_check(&self) -> &ClockCheck {
        &self.check
    }

    /// Whether the graph's traversals may run: the clock holds on every
    /// edge and no slack key can overflow (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ClockFails`] naming the first edge the clock
    /// fails on, or else the edge of largest slack when the keys could
    /// overflow.
    pub fn check_clock(&self) -> Result<(), CoreError> {
        self.clock_refusal(self.vertices.len()).map_or(Ok(()), Err)
    }

    /// Whether `v` has been interned.
    pub fn contains(&self, v: &V) -> bool {
        self.index.contains_key(v)
    }

    /// The dense index of a query root, or `detail` as the error.
    fn root(&self, v: &V, detail: &str) -> Result<usize, CoreError> {
        self.index_of(v).ok_or_else(|| CoreError::InvalidTiming {
            detail: detail.into(),
        })
    }

    /// Outgoing edges of vertex index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn edges_from(&self, i: usize) -> &[Edge] {
        &self.out[i]
    }

    /// Incoming edges of vertex index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn edges_to(&self, i: usize) -> &[Edge] {
        &self.r#in[i]
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = &V> + '_ {
        self.vertices.iter()
    }

    /// Longest-path weights from `src` to every vertex (`None` =
    /// unreachable), via a fresh Dijkstra over the adjacency rows.
    ///
    /// Each call traverses afresh — it neither consults nor populates the
    /// per-source result memo, so one-shot callers pay exactly one
    /// traversal and retain no result (the traversal borrows the shared
    /// scratch arena like every other query). On hot paths that revisit
    /// sources, prefer [`WeightedDigraph::longest_from_cached`], which
    /// shares one memoized traversal across repeated queries.
    ///
    /// # Errors
    ///
    /// Fails if `src` is not a vertex, or with [`CoreError::ClockFails`]
    /// (see [`WeightedDigraph::check_clock`]).
    pub fn longest_from(&self, src: &V) -> Result<Distances, CoreError> {
        let s = self.root(src, "longest_from: source vertex not in graph")?;
        self.check_clock()?;
        Ok(self.distances_over(self, s, Direction::Forward))
    }

    /// Longest-path weights from every vertex *to* `dst` (`None` =
    /// no path), via a fresh Dijkstra over the incoming rows, never
    /// memoized.
    ///
    /// # Errors
    ///
    /// Same conditions as [`WeightedDigraph::longest_from`].
    pub fn longest_to(&self, dst: &V) -> Result<Distances, CoreError> {
        let s = self.root(dst, "longest_to: destination vertex not in graph")?;
        self.check_clock()?;
        Ok(self.distances_over(self, s, Direction::Backward))
    }

    /// The longest path from `from` to `to` as `(weight, edges)`, the
    /// edges in walk order; `Ok(None)` if no path exists. The path is the
    /// canonical one (see the [module docs](self)), read off a fresh
    /// [`WeightedDigraph::longest_from`] traversal.
    ///
    /// # Errors
    ///
    /// Fails if either endpoint is not a vertex, or with
    /// [`CoreError::ClockFails`].
    pub fn longest_path(&self, from: &V, to: &V) -> Result<Option<(i64, Vec<Edge>)>, CoreError> {
        let s = self.root(from, "longest_path: source vertex not in graph")?;
        let t = self.root(to, "longest_path: target vertex not in graph")?;
        self.check_clock()?;
        let dist = self.distances_over(self, s, Direction::Forward);
        Ok(dist.weight(t).zip(canonical_path(self, &dist, s, t)))
    }

    /// Memoized [`WeightedDigraph::longest_from`]: the first query per
    /// source runs Dijkstra, every later query on the unmodified graph
    /// returns the shared result in O(1) without allocating, and a query
    /// after appends catches the result up in place (see the
    /// [module docs](self)). A refusal is never memoized: every query
    /// checks the clock first.
    ///
    /// # Errors
    ///
    /// Same conditions as [`WeightedDigraph::longest_from`].
    pub fn longest_from_cached(&self, src: &V) -> Result<Arc<Distances>, CoreError> {
        let s = self.root(src, "longest_from: source vertex not in graph")?;
        self.check_clock()?;
        let (vcount, ecount) = (self.vertices.len(), self.edge_count);
        let key = s as u32;
        {
            // Current hits return immediately. A stale hit catches up *in
            // place, under the lock*: the catch-up is proportional to the
            // appended edges and the vertices they improve, so the steady
            // streaming loop pays one lock round and zero memo churn per
            // append batch.
            let mut cache = self.cache.lock().expect("cache lock");
            let cache = &mut *cache;
            match cache.memo.get_mut(&key) {
                Some(hit) if hit.vertices == vcount && hit.edges == ecount => {
                    return Ok(hit.dist.clone());
                }
                // The log begins no later than any surviving entry's
                // generation (it restarts only while no entry exists);
                // guard anyway and fall back to a fresh traversal.
                Some(hit) if hit.edges >= cache.log_base => {
                    let heap = cache.scratch.get_or_insert_default();
                    let delta = &cache.log[hit.edges - cache.log_base..];
                    let mut tally = Tally::default();
                    // In the steady streaming state the memo holds the
                    // only strong reference, so this catches up with no
                    // O(n) copy; external holders force one clone.
                    let dist = Arc::make_mut(&mut hit.dist);
                    catch_up(self, s, dist, delta, heap, &mut tally);
                    cache.work.record(tally);
                    (hit.vertices, hit.edges) = (vcount, ecount);
                    return Ok(hit.dist.clone());
                }
                _ => {}
            }
        }
        // Cold traversal outside the lock: concurrent first touches may
        // duplicate work but never block each other.
        let dist = Arc::new(self.distances_over(self, s, Direction::Forward));
        let cached = CachedDistances {
            vertices: vcount,
            edges: ecount,
            dist: dist.clone(),
        };
        self.cache
            .lock()
            .expect("cache lock")
            .memo
            .insert(key, cached);
        Ok(dist)
    }
}

impl<V> WeightedDigraph<V> {
    /// The traversal work this graph has done, including the distance
    /// traversals of every view over its rows (see [`TraversalWork`]).
    pub fn work(&self) -> TraversalWork {
        self.cache.lock().expect("cache lock").work
    }

    /// Longest-path weights from (or, backward, to) `src` over `rows` —
    /// this graph's rows or a view over them — by the potential-reweighted
    /// Dijkstra. The caller vouches that the rows' potential is feasible
    /// on every edge they yield and keeps every key below `u64::MAX` (see
    /// [`WeightedDigraph::check_clock`]). Borrows this graph's scratch
    /// arena and counts its work here.
    pub(crate) fn distances_over<R: Rows>(
        &self,
        rows: &R,
        src: usize,
        dir: Direction,
    ) -> Distances {
        let mut heap = self
            .cache
            .lock()
            .expect("cache lock")
            .scratch
            .take()
            .unwrap_or_default();
        let mut tally = Tally::default();
        let mut lane = vec![UNREACHABLE; rows.vertex_count()];
        lane[src] = 0;
        heap.fit(lane.len());
        heap.push(src as u32, 0);
        let root = dir.sign().wrapping_mul(rows.potential(src));
        settle(rows, dir, root, &mut lane, &mut heap, &mut tally);
        self.cache.lock().expect("cache lock").park(heap, tally);
        Distances { lane }
    }
}

/// What a traversal reads: a graph given row by row. A
/// [`WeightedDigraph`] is rows over its adjacency, and a closed graph's
/// walk rows over the `GB(r)` it is cut from (see
/// [`crate::extended_graph`]).
pub(crate) trait Rows {
    /// Number of vertices; traversals index them `0..vertex_count()`.
    fn vertex_count(&self) -> usize;

    /// The potential `π(v)`: the vertex's time on the clock.
    fn potential(&self, v: usize) -> i64;

    /// Calls `f(w, weight, π(w), label)` for every edge of `v`'s row, in
    /// row order: the edges leaving `v` when `dir` is forward (`w` is the
    /// head), the edges entering it when backward (`w` is the tail).
    fn scan(&self, v: usize, dir: Direction, f: impl FnMut(usize, i64, i64, u32));
}

impl<V> Rows for WeightedDigraph<V> {
    fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    fn potential(&self, v: usize) -> i64 {
        self.clock[v]
    }

    #[inline(always)]
    fn scan(&self, v: usize, dir: Direction, mut f: impl FnMut(usize, i64, i64, u32)) {
        let clock = &self.clock;
        match dir {
            Direction::Forward => self.out[v]
                .iter()
                .for_each(|e| f(e.to, e.weight, clock[e.to], e.label)),
            Direction::Backward => self.r#in[v]
                .iter()
                .for_each(|e| f(e.from, e.weight, clock[e.from], e.label)),
        }
    }
}

/// Catches a converged forward result from `src` over `rows` up with the
/// appended edges `delta`, **in place**: relaxing each appended edge
/// queues exactly the heads it improves, and [`settle`] settles them
/// and the vertices they improve in turn over the live rows, which hold
/// old and new edges alike (see the [module docs](self)). A vertex the
/// catch-up does not improve is never popped.
///
/// Correct because mutations are append-only: every path the old result
/// accounted for still exists, so its weights are valid lower bounds and
/// converged over the old edges, and any strictly better path uses at
/// least one new edge — which is exactly what gets seeded.
fn catch_up<R: Rows>(
    rows: &R,
    src: usize,
    dist: &mut Distances,
    delta: &[LogEdge],
    heap: &mut RadixHeap,
    tally: &mut Tally,
) {
    let root = rows.potential(src);
    let lane = &mut dist.lane;
    lane.resize(rows.vertex_count(), UNREACHABLE);
    heap.fit(lane.len());
    tally.scans += delta.len() as u64;
    for e in delta {
        let du = lane[e.from as usize];
        if du != UNREACHABLE {
            let (v, pv) = (e.to as usize, rows.potential(e.to as usize));
            relax(lane, heap, root, v, pv, du.wrapping_add(e.weight));
        }
    }
    settle(rows, Direction::Forward, root, lane, heap, tally);
}

/// Potential-reweighted Dijkstra for longest paths over `rows` (see the
/// [module docs](self)), from the vertices queued in `heap` with their
/// distances in `lane`: a cold traversal queues its root at distance 0,
/// a catch-up the heads its new edges improve. Under the signed
/// potential `π′` ([`Direction::sign`]) every edge's slack
/// `π′(head) − π′(tail) − w` is non-negative, which the caller vouched
/// for, and `root` is `π′` of the root.
fn settle<R: Rows>(
    rows: &R,
    dir: Direction,
    root: i64,
    lane: &mut [i64],
    heap: &mut RadixHeap,
    tally: &mut Tally,
) {
    let sign = dir.sign();
    let mut scans = 0;
    while let Some(u) = heap.pop() {
        tally.pops += 1;
        let du = lane[u as usize];
        rows.scan(u as usize, dir, |t, w, pt, _| {
            scans += 1;
            let (pt, d) = (sign.wrapping_mul(pt), du.wrapping_add(w));
            relax(lane, heap, root, t, pt, d);
        });
    }
    tally.scans += scans;
}

/// Offers distance `d` to vertex `v`, whose signed potential is `pv`:
/// if it is longer than `v`'s, `v` takes it and is queued (or its key
/// lowered) at its slack from the root, `pv − root − d`, which falls as
/// `d` rises. Keys are compared rather than distances, in wrapping
/// arithmetic: exact, as the clock check keeps every key below
/// `u64::MAX`, so the settling order holds even where a distance would
/// wrap.
#[inline(always)]
fn relax(lane: &mut [i64], heap: &mut RadixHeap, root: i64, v: usize, pv: i64, d: i64) {
    let key = |d: i64| pv.wrapping_sub(root).wrapping_sub(d).cast_unsigned();
    let k = key(d);
    if lane[v] == UNREACHABLE || k < key(lane[v]) {
        lane[v] = d;
        heap.push(v as u32, k);
    }
}

/// The canonical maximum-weight path from `src` to `dst` over `rows`,
/// given `dist`, the longest-path weights from `src` (see the
/// [module docs](self)), as edges in walk order; `None` if `dst` is
/// unreachable. The hop pass stops at `dst`'s level: every lower level
/// is complete by then. Sums are checked, so a wrapped one never reads
/// as tight.
pub(crate) fn canonical_path<R: Rows>(
    rows: &R,
    dist: &Distances,
    src: usize,
    dst: usize,
) -> Option<Vec<Edge>> {
    let d = &dist.lane;
    // `u` is always a reached vertex here; `v` need not be.
    let tight =
        |u: usize, w: i64, v: usize| d[v] != UNREACHABLE && d[u].checked_add(w) == Some(d[v]);
    let mut level = vec![u32::MAX; rows.vertex_count()];
    let mut queue = vec![src as u32];
    level[src] = 0;
    let mut head = 0;
    while level[dst] == u32::MAX {
        let u = *queue.get(head)? as usize;
        head += 1;
        let next = level[u] + 1;
        rows.scan(u, Direction::Forward, |v, w, _, _| {
            if level[v] == u32::MAX && tight(u, w, v) {
                level[v] = next;
                queue.push(v as u32);
            }
        });
    }
    let mut path = Vec::with_capacity(level[dst] as usize);
    let mut v = dst;
    while v != src {
        let (want, mut best) = (level[v] - 1, None);
        rows.scan(v, Direction::Backward, |u, w, _, label| {
            if level[u] == want
                && tight(u, w, v)
                && best.is_none_or(|(l, b, _)| (label, u) < (l, b))
            {
                best = Some((label, u, w));
            }
        });
        let (label, u, w) =
            best.expect("a vertex at hop level k > 0 has a tight in-edge from k − 1");
        path.push(Edge::new(u, v, w, label));
        v = u;
    }
    path.reverse();
    Some(path)
}

impl<V: Hash + Eq + Clone + fmt::Display> WeightedDigraph<V> {
    /// Longest-path weights from `src` via the classic dense Bellman–Ford
    /// (`|V| − 1` full relaxation rounds plus a detection round), which
    /// reads no clock.
    ///
    /// Functionally identical to [`WeightedDigraph::longest_from`] on a
    /// graph whose clock holds; kept as the ablation baseline for the
    /// Dijkstra the bounds-graph queries use (see the `graphs` and
    /// `layout` benchmarks), and as the reference the traversals are
    /// tested against.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PositiveCycle`] if a positive cycle is
    /// reachable from `src`.
    pub fn longest_from_dense(&self, src: &V) -> Result<Vec<Option<i64>>, CoreError> {
        let s = self.root(src, "longest_from_dense: source vertex not in graph")?;
        self.dense(s, Direction::Forward)
    }

    /// Longest-path weights from every vertex to `dst` via the dense
    /// Bellman–Ford: [`WeightedDigraph::longest_from_dense`] over the
    /// reversed edges.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PositiveCycle`] if a positive cycle reaches
    /// `dst`.
    pub fn longest_to_dense(&self, dst: &V) -> Result<Vec<Option<i64>>, CoreError> {
        let s = self.root(dst, "longest_to_dense: destination vertex not in graph")?;
        self.dense(s, Direction::Backward)
    }

    fn dense(&self, root: usize, dir: Direction) -> Result<Vec<Option<i64>>, CoreError> {
        let n = self.vertices.len();
        let mut dist: Vec<Option<i64>> = vec![None; n];
        dist[root] = Some(0);
        let relax = |dist: &mut Vec<Option<i64>>| {
            let mut changed = false;
            for e in self.out.iter().flatten() {
                let (u, v) = match dir {
                    Direction::Forward => (e.from, e.to),
                    Direction::Backward => (e.to, e.from),
                };
                let Some(du) = dist[u] else { continue };
                let cand = du + e.weight;
                if dist[v].is_none_or(|dv| cand > dv) {
                    dist[v] = Some(cand);
                    changed = true;
                }
            }
            changed
        };
        for _ in 1..n.max(1) {
            if !relax(&mut dist) {
                return Ok(dist);
            }
        }
        if relax(&mut dist) {
            return Err(CoreError::PositiveCycle);
        }
        Ok(dist)
    }
}

/// Which way a traversal walks: along edges (longest paths *from* its
/// root) or against them (longest paths *to* it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Direction {
    Forward,
    Backward,
}

impl Direction {
    /// The sign a traversal this way puts on the clock: a backward one
    /// walks each edge against its direction, so it reweights under `−π`.
    fn sign(self) -> i64 {
        match self {
            Direction::Forward => 1,
            Direction::Backward => -1,
        }
    }
}

/// Longest-path weights from (or to) one root: one sentinel-coded lane
/// (see the [module docs](self)). The result of every traversal, cold,
/// memoized or caught up, over a graph's rows or a view of them.
#[derive(Debug, Clone)]
pub struct Distances {
    /// `UNREACHABLE` (= `i64::MIN`) marks disconnected vertices.
    lane: Vec<i64>,
}

impl Distances {
    /// The longest-path weight to vertex index `i` (`None` if no path).
    ///
    /// For a forward query this is the weight from the source to `i`;
    /// for a backward query, from `i` to the destination.
    pub fn weight(&self, i: usize) -> Option<i64> {
        self.lane.get(i).copied().filter(|&d| d != UNREACHABLE)
    }

    /// Whether vertex index `i` is connected to the query root.
    pub fn reaches(&self, i: usize) -> bool {
        self.weight(i).is_some()
    }

    /// The maximum weight over all connected vertices.
    pub fn max_weight(&self) -> Option<i64> {
        self.lane
            .iter()
            .copied()
            .filter(|&d| d != UNREACHABLE)
            .max()
    }

    /// The minimum weight over all connected vertices.
    pub fn min_weight(&self) -> Option<i64> {
        self.lane
            .iter()
            .copied()
            .filter(|&d| d != UNREACHABLE)
            .min()
    }

    /// Indices of all connected vertices.
    pub fn connected(&self) -> impl Iterator<Item = usize> + '_ {
        self.lane
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| (d != UNREACHABLE).then_some(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A graph over `vertices`, each at its time, with `edges` added in
    /// order.
    fn clocked<'a>(
        vertices: &[(&'a str, i64)],
        edges: &[(&'a str, &'a str, i64, u32)],
    ) -> WeightedDigraph<&'a str> {
        let mut g = WeightedDigraph::new();
        for &(v, t) in vertices {
            g.add_vertex(v, t);
        }
        for &(u, v, w, l) in edges {
            g.add_edge(&u, &v, w, l);
        }
        g
    }

    fn diamond() -> WeightedDigraph<&'static str> {
        // a -> b (2), a -> c (5), b -> d (4), c -> d (−1), d -> a (−100),
        // on a clock that leaves room for an `a -> d (100)` append.
        clocked(
            &[("a", 0), ("b", 2), ("c", 5), ("d", 100)],
            &[
                ("a", "b", 2, 0),
                ("a", "c", 5, 0),
                ("b", "d", 4, 0),
                ("c", "d", -1, 0),
                ("d", "a", -100, 0),
            ],
        )
    }

    #[test]
    fn forward_longest_paths() {
        let g = diamond();
        let lp = g.longest_from(&"a").unwrap();
        let idx = |v: &str| g.index_of(&v).unwrap();
        assert_eq!(lp.weight(idx("a")), Some(0));
        assert_eq!(lp.weight(idx("b")), Some(2));
        assert_eq!(lp.weight(idx("c")), Some(5));
        assert_eq!(lp.weight(idx("d")), Some(6)); // via b
        let (w, path) = g.longest_path(&"a", &"d").unwrap().unwrap();
        assert_eq!(w, 6);
        assert_eq!(path.len(), 2);
        assert_eq!(g.vertex(path[0].to), &"b");
        assert_eq!(lp.max_weight(), Some(6));
        assert_eq!(lp.min_weight(), Some(0)); // the d->a edge (−100) never improves a
        assert_eq!(lp.connected().count(), 4);
        assert!(lp.reaches(idx("d")));
    }

    #[test]
    fn backward_longest_paths() {
        let g = diamond();
        let lp = g.longest_to(&"d").unwrap();
        let idx = |v: &str| g.index_of(&v).unwrap();
        assert_eq!(lp.weight(idx("d")), Some(0));
        assert_eq!(lp.weight(idx("b")), Some(4));
        assert_eq!(lp.weight(idx("c")), Some(-1));
        assert_eq!(lp.weight(idx("a")), Some(6));
    }

    #[test]
    fn unreachable_vertices() {
        let mut g = diamond();
        g.add_vertex("z", 0);
        let lp = g.longest_from(&"a").unwrap();
        assert_eq!(lp.weight(g.index_of(&"z").unwrap()), None);
        assert_eq!(g.longest_path(&"a", &"z").unwrap(), None);
        assert!(g.longest_path(&"a", &"nope").is_err());
        assert!(!lp.reaches(g.index_of(&"z").unwrap()));
    }

    /// A graph whose clock fails on an edge refuses every traversal,
    /// naming that edge, while the dense reference reports the positive
    /// cycle the failure comes from.
    #[test]
    fn a_failing_clock_refuses_every_traversal() {
        // b -> a closes a cycle of weight +1, which no clock satisfies.
        let g = clocked(&[("a", 0), ("b", 1)], &[("a", "b", 1, 0), ("b", "a", 0, 0)]);
        let refused = |got: Result<(), CoreError>| {
            assert!(
                matches!(&got, Err(CoreError::ClockFails { edge, .. }) if edge == "b --0--> a"),
                "{got:?}"
            );
        };
        refused(g.check_clock());
        refused(g.longest_from(&"a").map(drop));
        refused(g.longest_to(&"a").map(drop));
        refused(g.longest_path(&"a", &"b").map(drop));
        refused(g.longest_from_cached(&"a").map(drop));
        refused(g.longest_from_cached(&"a").map(drop));
        assert_eq!(g.work(), TraversalWork::default(), "nothing traversed");
        assert!(matches!(
            g.longest_from_dense(&"a"),
            Err(CoreError::PositiveCycle)
        ));
    }

    /// A clock whose span, with the vertex count times the least weight,
    /// could take a Dijkstra key to `u64::MAX` refuses too, naming the
    /// lightest edge; one a tick narrower answers, and so does a clock
    /// at epoch-nanosecond times.
    #[test]
    fn slack_keys_that_could_overflow_are_refused() {
        let wide = |lo: i64| {
            clocked(
                &[("a", lo), ("b", 0), ("c", i64::MAX)],
                &[("a", "b", 1, 0), ("b", "c", -3, 0)],
            )
        };
        // At lo = i64::MIN + k the span is u64::MAX − k, and three
        // vertices times weight −3 add 9.
        assert!(matches!(
            wide(i64::MIN + 9).longest_from(&"a"),
            Err(CoreError::ClockFails { edge, .. }) if edge == "b ---3--> c"
        ));
        let fits = wide(i64::MIN + 10);
        let lp = fits.longest_from(&"a").unwrap();
        assert_eq!((lp.weight(1), lp.weight(2)), (Some(1), Some(-2)));
        let epoch = 1_700_000_000_000_000_000;
        let g = clocked(
            &[("a", epoch), ("b", epoch + 3), ("c", epoch + 9)],
            &[("a", "b", 2, 0), ("b", "c", -1, 0), ("c", "a", -9, 0)],
        );
        assert_eq!(g.longest_to(&"c").unwrap().weight(0), Some(1));
    }

    #[test]
    fn zero_cycles_are_fine() {
        let g = clocked(
            &[("a", 0), ("b", 3), ("c", 4)],
            &[("a", "b", 3, 0), ("b", "a", -3, 0), ("b", "c", 1, 0)],
        );
        let lp = g.longest_from(&"a").unwrap();
        assert_eq!(lp.weight(g.index_of(&"c").unwrap()), Some(4));
    }

    #[test]
    fn parallel_edges_kept() {
        let g = clocked(&[("a", 0), ("b", 5)], &[("a", "b", 1, 7), ("a", "b", 5, 8)]);
        assert_eq!(g.edge_count(), 2);
        let lp = g.longest_from(&"a").unwrap();
        let b = g.index_of(&"b").unwrap();
        assert_eq!(lp.weight(b), Some(5));
        assert_eq!(g.longest_path(&"a", &"b").unwrap().unwrap().1[0].label, 8);
        assert_eq!(g.edges_from(g.index_of(&"a").unwrap()).len(), 2);
        assert_eq!(g.edges_to(b).len(), 2);
    }

    /// Dijkstra from every root of the diamond, both ways, equals the
    /// dense Bellman–Ford, settling each vertex once and scanning each
    /// edge at most once.
    #[test]
    fn traversals_from_every_root_match_dense_bellman_ford() {
        let g = diamond();
        for root in ["a", "b", "c", "d"] {
            let fwd = g.longest_from(&root).unwrap();
            let bwd = g.longest_to(&root).unwrap();
            let (dense_fwd, dense_bwd) = (
                g.longest_from_dense(&root).unwrap(),
                g.longest_to_dense(&root).unwrap(),
            );
            for i in 0..g.vertex_count() {
                assert_eq!(fwd.weight(i), dense_fwd[i], "{root} -> {i}");
                assert_eq!(bwd.weight(i), dense_bwd[i], "{i} -> {root}");
            }
        }
        let work = g.work();
        assert_eq!(work.traversals, 8);
        assert!(work.max_scans <= g.edge_count() as u64);
        assert!(work.max_pops <= g.vertex_count() as u64);
        assert!(g.longest_from_dense(&"nope").is_err());
    }

    #[test]
    fn canonical_paths_take_fewest_hops_then_least_label_and_tail() {
        // a = 0 reaches f by two 2-hop paths of weight 3 (labels 2 via b,
        // 1 via c) and g by two of weight 2 (label 1 via b and via c);
        // e at weight 3 by a 3-hop path and a 2-hop one through d; a ⇄ b
        // is a zero-weight cycle. The clock is the distances from a.
        let edges = [
            (0, 1, 1, 0),  // a → b
            (1, 0, -1, 2), // b → a
            (0, 2, 2, 0),  // a → c
            (1, 3, 1, 0),  // b → d
            (2, 3, 0, 0),  // c → d
            (0, 3, 2, 9),  // a → d
            (3, 4, 1, 0),  // d → e
            (1, 5, 2, 2),  // b → f
            (2, 5, 1, 1),  // c → f
            (1, 6, 1, 1),  // b → g
            (2, 6, 0, 1),  // c → g
        ]
        .map(|(u, v, w, l)| Edge::new(u, v, w, l));
        let clock = vec![0, 1, 2, 2, 3, 3, 2, 0];
        let mut reversed = edges;
        reversed.reverse();
        let expect = |t: usize, want: &[(usize, usize, u32)]| {
            for list in [&edges[..], &reversed[..]] {
                let g = WeightedDigraph::from_edges((0..7).collect(), clock[..7].to_vec(), list);
                let (w, path) = g.longest_path(&0, &t).unwrap().unwrap();
                let got: Vec<_> = path.iter().map(|e| (e.from, e.to, e.label)).collect();
                assert_eq!(got, want, "path to {t}");
                assert_eq!(path.iter().map(|e| e.weight).sum::<i64>(), w);
            }
        };
        expect(0, &[]);
        expect(1, &[(0, 1, 0)]);
        expect(4, &[(0, 3, 9), (3, 4, 0)]);
        expect(5, &[(0, 2, 0), (2, 5, 1)]);
        expect(6, &[(0, 1, 0), (1, 6, 1)]);
        let g = WeightedDigraph::from_edges((0..8).collect(), clock, &edges);
        assert_eq!(g.longest_path(&0, &7).unwrap(), None, "7 is unreachable");
    }

    #[test]
    fn checked_conversion_reports_overflow() {
        assert_eq!(checked_u32(0, "x").unwrap(), 0);
        assert_eq!(checked_u32(42, "x").unwrap(), 42);
        assert_eq!(checked_u32(u32::MAX as usize, "x").unwrap(), u32::MAX);
        let err = checked_u32(usize::MAX, "edge count").unwrap_err();
        assert!(matches!(err, CoreError::IndexOverflow { .. }));
        assert!(err.to_string().contains("edge count"));
    }

    #[test]
    fn scratch_arena_is_recycled() {
        // The parked arena and its lanes.
        let parked = |g: &WeightedDigraph<&str>| {
            let cache = g.cache.lock().unwrap();
            let heap = cache.scratch.as_ref().expect("a query parks its arena");
            let arena: *const RadixHeap = &**heap;
            let key = (heap.key.as_ptr(), heap.key.capacity());
            (arena, key, heap.next.as_ptr(), heap.bucket.as_ptr())
        };
        let g = diamond();
        // The first cold query allocates the arena and parks it.
        let _ = g.longest_from(&"a").unwrap();
        let before = parked(&g);
        assert!(before.1 .1 > 0, "{before:?}");
        // A later cold query from another root runs on the same buffers:
        // same allocations, capacities kept.
        let _ = g.longest_from(&"b").unwrap();
        assert_eq!(parked(&g), before);
    }

    #[test]
    fn cached_queries_share_one_traversal() {
        let mut g = diamond();
        let a1 = g.longest_from_cached(&"a").unwrap();
        let a2 = g.longest_from_cached(&"a").unwrap();
        assert!(Arc::ptr_eq(&a1, &a2), "second query re-ran the traversal");
        assert_eq!(a1.weight(g.index_of(&"d").unwrap()), Some(6));
        // Mutation invalidates: the next query sees the new edge. (a1 is
        // still held here, so the catch-up clones rather than mutating
        // the shared result in place.)
        g.add_edge(&"a", &"d", 100, 9);
        let a3 = g.longest_from_cached(&"a").unwrap();
        assert!(!Arc::ptr_eq(&a1, &a3), "mutation did not invalidate");
        assert_eq!(a3.weight(g.index_of(&"d").unwrap()), Some(100));
        // The superseded result is unchanged.
        assert_eq!(a1.weight(g.index_of(&"d").unwrap()), Some(6));
    }

    #[test]
    fn clones_share_warm_caches() {
        let g = diamond();
        let warm = g.longest_from_cached(&"a").unwrap();
        let clone = g.clone();
        let from_clone = clone.longest_from_cached(&"a").unwrap();
        assert!(Arc::ptr_eq(&warm, &from_clone), "clone lost the warm cache");
    }

    #[test]
    fn delta_after_clone_does_not_disturb_the_sibling() {
        // Two graphs sharing warm cache Arcs: a catch-up on one must leave
        // the other's cached answers untouched (copy-on-write).
        let mut g = diamond();
        let _ = g.longest_from_cached(&"a").unwrap();
        let sibling = g.clone();
        g.add_edge(&"a", &"d", 100, 9);
        let grown = g.longest_from_cached(&"a").unwrap();
        let kept = sibling.longest_from_cached(&"a").unwrap();
        assert_eq!(grown.weight(g.index_of(&"d").unwrap()), Some(100));
        assert_eq!(kept.weight(sibling.index_of(&"d").unwrap()), Some(6));
    }

    #[test]
    fn caught_up_caches_equal_fresh_traversals() {
        // Grow a graph edge by edge with warm caches alive the whole time;
        // after every append the caught-up results must equal what a
        // freshly built graph computes from scratch, for every source.
        let vertices = [("a", 0), ("b", 5), ("c", 4), ("d", 7), ("e", 5)];
        let additions: Vec<(&str, &str, i64, u32)> = vec![
            ("a", "b", 2, 0),
            ("b", "c", -1, 0),
            ("c", "a", -5, 0),
            ("a", "c", 4, 0),
            ("c", "d", 3, 0),
            ("d", "b", -2, 0),
            ("e", "a", -6, 0),
            ("d", "e", -4, 0),
            ("b", "e", 0, 0),
        ];
        let mut grown = clocked(&vertices, &additions[..1]);
        // Warm several sources so every later append must catch up.
        let _ = grown.longest_from_cached(&"a").unwrap();
        let _ = grown.longest_from_cached(&"b").unwrap();
        for k in 1..additions.len() {
            let (f, t, w, l) = additions[k];
            grown.add_edge(&f, &t, w, l);
            let fresh = clocked(&vertices, &additions[..=k]);
            for (src, _) in vertices {
                let warm = grown.longest_from_cached(&src).unwrap();
                let cold = fresh.longest_from(&src).unwrap();
                let s = grown.index_of(&src).unwrap();
                for i in 0..vertices.len() {
                    assert_eq!(
                        warm.weight(i),
                        cold.weight(i),
                        "catch-up diverged at step {k}, {src} -> {i}"
                    );
                    // Paths read off the caught-up lane realize its weights.
                    if let Some(w) = warm.weight(i) {
                        let path = canonical_path(&grown, &warm, s, i).unwrap();
                        assert_eq!(path.iter().map(|e| e.weight).sum::<i64>(), w);
                    }
                }
            }
        }
    }

    /// An appended edge the clock fails on refuses the memoized source
    /// too, on every later query, and memoizes nothing.
    #[test]
    fn a_late_edge_the_clock_fails_refuses_the_memo() {
        let mut g = clocked(
            &[("a", 0), ("b", 1), ("c", 2)],
            &[("a", "b", 1, 0), ("b", "c", 1, 0)],
        );
        let warm = g.longest_from_cached(&"a").unwrap();
        assert_eq!(warm.weight(g.index_of(&"c").unwrap()), Some(2));
        // The closing edge makes a positive cycle reachable from "a".
        g.add_edge(&"c", &"a", 0, 0);
        for _ in 0..2 {
            assert!(matches!(
                g.longest_from_cached(&"a"),
                Err(CoreError::ClockFails { edge, .. }) if edge == "c --0--> a"
            ));
        }
        assert!(g.longest_from(&"a").is_err());
    }

    #[test]
    fn new_vertices_extend_cached_results() {
        let mut g = diamond();
        let warm = g.longest_from_cached(&"a").unwrap();
        g.add_vertex("z", 103);
        // Still answerable; z is unreachable until an edge arrives.
        let after = g.longest_from_cached(&"a").unwrap();
        assert_eq!(after.weight(g.index_of(&"z").unwrap()), None);
        g.add_edge(&"d", &"z", 3, 0);
        let connected = g.longest_from_cached(&"a").unwrap();
        assert_eq!(connected.weight(g.index_of(&"z").unwrap()), Some(9));
        assert_eq!(
            warm.weight(g.index_of(&"d").unwrap()),
            connected.weight(g.index_of(&"d").unwrap())
        );
    }

    /// Dijkstra cold, memoized and caught up, forward and backward,
    /// against the dense Bellman–Ford on random clocked graphs at
    /// n ∈ {64, 256}: each edge `u → v` weighs `t(v) − t(u) − slack` for
    /// a random clock `t` and `slack ≥ 0`. Each cold traversal scans every
    /// edge at most once, and each catch-up pops only the vertices whose
    /// distance it raised.
    #[test]
    fn traversals_match_dense_bellman_ford_on_random_clocked_graphs() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for case in 0..48 {
            let n = if case % 2 == 0 { 64usize } else { 256 };
            let clock: Vec<i64> = (0..n).map(|_| next(4 * n as u64).cast_signed()).collect();
            let mut g: WeightedDigraph<usize> =
                WeightedDigraph::from_edges((0..n).collect(), clock.clone(), &[]);
            let m = 64 + next(449) as usize;
            let mut edges = Vec::new();
            for k in 0..m {
                let (u, v) = (next(n as u64) as usize, next(n as u64) as usize);
                let slack = next(8).cast_signed();
                edges.push((u, v, clock[v] - clock[u] - slack, k as u32));
            }
            let src = next(n as u64) as usize;
            let half = m / 2;
            for &(u, v, w, l) in &edges[..half] {
                g.add_edge(&u, &v, w, l);
            }
            let before = g.longest_from_cached(&src).unwrap();
            for &(u, v, w, l) in &edges[half..] {
                g.add_edge(&u, &v, w, l);
            }
            let work = g.work();
            let warm = g.longest_from_cached(&src).unwrap();
            let caught_up = g.work().pops - work.pops;
            let raised = (0..n)
                .filter(|&i| warm.weight(i) != before.weight(i))
                .count();
            assert_eq!(caught_up, raised as u64, "case {case}: catch-up pops");
            let (dense_fwd, dense_bwd) = (
                g.longest_from_dense(&src).unwrap(),
                g.longest_to_dense(&src).unwrap(),
            );
            let cold = g.work();
            let (fwd, bwd) = (g.longest_from(&src).unwrap(), g.longest_to(&src).unwrap());
            let scans = g.work().scans - cold.scans;
            assert!(
                scans <= 2 * g.edge_count() as u64,
                "case {case}: {scans} scans"
            );
            for i in 0..n {
                assert_eq!(warm.weight(i), dense_fwd[i], "case {case}: {src} -> {i}");
                assert_eq!(fwd.weight(i), dense_fwd[i], "case {case}: {src} -> {i}");
                assert_eq!(bwd.weight(i), dense_bwd[i], "case {case}: {i} -> {src}");
            }
        }
    }

    #[test]
    fn radix_heap_pops_in_key_order_and_lowers_keys() {
        let mut heap = RadixHeap::default();
        heap.fit(6);
        for (v, key) in [(0, 9), (1, 3), (2, 1 << 40), (3, 3), (4, 17), (5, 64)] {
            heap.push(v, key);
        }
        heap.push(2, 5); // lowered while queued
        let mut popped = Vec::new();
        while let Some(v) = heap.pop() {
            popped.push(heap.key[v as usize]);
            if v == 1 {
                heap.push(4, 4); // lowered after a pop, still above it
            }
        }
        assert_eq!(popped, [3, 3, 4, 5, 9, 64]);
    }

    #[test]
    fn missing_roots_error() {
        let g = diamond();
        assert!(g.longest_from(&"nope").is_err());
        assert!(g.longest_to(&"nope").is_err());
        assert!(g.contains(&"a"));
        assert!(!g.contains(&"nope"));
        assert_eq!(g.vertices().count(), 4);
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.clock(g.index_of(&"d").unwrap()), 100);
    }
}
