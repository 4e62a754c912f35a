//! A weighted directed multigraph with longest-path queries.
//!
//! Bounds graphs (paper §5) contain cycles (every delivered message
//! contributes a forward `+L` edge and a backward `−U` edge) but **no
//! positive cycles** — a positive cycle would force a node to occur later
//! than itself. Longest paths are therefore well-defined; a positive
//! cycle is reported as [`CoreError::PositiveCycle`] and indicates
//! corrupted input.
//!
//! # Two traversals
//!
//! A traversal reads a graph through the crate-internal `Rows` trait: a
//! vertex count, a potential, and a scan of one vertex's row yielding
//! each edge's far end, weight and label and the far end's potential.
//! A [`WeightedDigraph`] is rows over its adjacency, and a bounds graph
//! closed by auxiliary vertices — an observer's view of `GE(r, σ)`, or
//! the frontier graph of [`crate::construct`] — rows over the `GB(r)`
//! it is cut from, filtered at the cut, plus a small overlay (see
//! [`crate::extended_graph`]).
//!
//! * **Label-correcting SPFA** (a queue-based Bellman–Ford) needs
//!   nothing but the rows. It serves `GB(r)`'s tight bounds, and walks a
//!   closed graph whose clock fails. One function runs it two ways:
//!   seeded at a root for a cold query, and seeded by the edges appended
//!   since a memoized result for that result's catch-up (below).
//! * **Potential-reweighted Dijkstra** answers a closed graph's distance
//!   queries when its potential is *feasible* — `π(u) + w ≤ π(v)` on
//!   every edge the rows yield: Johnson reweighting turns every edge into
//!   a non-negative slack `π(v) − π(u) − w`, so each vertex settles once
//!   and each edge is scanned at most once. A valid timing is exactly
//!   such a potential (Lemma 8), and the run's own recorded times are
//!   one; rows without a clock yield potential 0.
//!
//! Either returns [`Distances`], one weight per vertex and nothing
//! else. Both are tested against a dense Bellman–Ford
//! ([`WeightedDigraph::longest_from_dense`]). Traversals over a graph's
//! rows, or a closed graph cut from them, count their queue pops and
//! edge scans on that graph ([`WeightedDigraph::work`]) and borrow its
//! scratch arena.
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
//! Causal-order queries are the hot path of the knowledge engine: a single
//! `max_x`/`witness`/`refute` round trips over the same graph many times,
//! and batched queries (all-pairs matrices, protocol sweeps) revisit the
//! same sources. So every forward SPFA result over a graph's rows can be
//! memoized per source and shared as an [`Arc`]: repeated queries against
//! an unmodified graph are O(1) — and allocation-free — after first touch
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
//! computed and **delta-relaxes** a stale result on its next query: the
//! new edges seed the label-correcting traversal, which cascades over the
//! live rows from exactly the vertices they improve (the frontier),
//! leaving the converged bulk of the old result untouched. Nothing is
//! frozen per generation, so an append never forces a rebuild. This is
//! what makes append-only consumers (`crate::incremental`) pay per-append
//! cost proportional to the change, not the graph.
//!
//! # Data layout
//!
//! The core has one graph layout, adjacency rows, and its hot lanes are
//! over `u32` indices:
//!
//! * A [`WeightedDigraph`] keeps one adjacency row of [`Edge`] records
//!   per vertex and direction, which its traversals and every closed
//!   graph cut from it scan in place; [`WeightedDigraph::from_edges`]
//!   allocates each row once.
//! * [`Distances`] is one sentinel-coded lane: `Vec<i64>` with
//!   [`i64::MIN`] meaning *unreachable* (no `Option` tag bytes), 8 bytes
//!   per vertex. A path is rebuilt from it on demand (see *Paths*), so no
//!   result keeps a predecessor forest.
//! * All interior vertex ids are `u32`; the `HashMap<V, usize>` interner
//!   stays at the boundary, and every narrowing conversion funnels
//!   through one checked helper (`checked_u32`) that reports
//!   [`CoreError::IndexOverflow`] instead of silently truncating.
//!
//! # Scratch arena and blocked relaxation
//!
//! The transient state of a traversal — the `u64`-word in-queue bitset,
//! both frontier generations, the delta staging buffer, and the Dijkstra
//! queue — lives in a `SpfaScratch` arena owned by the graph's analysis
//! cache. A query takes the arena out under the lock, traverses outside
//! the lock, and puts the buffers back, so steady-state serving recycles
//! the same warm allocations across queries (the result lanes themselves
//! are freshly allocated: they outlive the query inside the memo). SPFA
//! relaxation is *blocked*: the frontier drains in generations (two
//! `Vec<u32>` swapped per round, deduplicated through the bitset), each
//! generation scanning whole rows.
//! Positive cycles are detected by the generation count — with no
//! positive cycle a run converges within `|V|` drains (every improvement
//! chain longer than `|V|` revisits a vertex with a strictly larger
//! distance, i.e. a positive cycle) — which matches the dense
//! Bellman–Ford verdict exactly.
//!
//! The Dijkstra queue is a radix heap keyed by slack. Slack keys only
//! grow as vertices settle, so a key's bucket is the highest bit in which
//! it differs from the last key popped; its cost depends on the bit
//! length of slack differences, not on how large the timestamps are.
//! Buckets are intrusive doubly linked lists threaded through per-vertex
//! lanes, so a lowered key relinks its vertex in O(1), each vertex is
//! queued at most once, and the whole queue is a few lanes sized once
//! per traversal and recycled with the arena.
//!
//! Everything lives behind a [`Mutex`] so graphs (and the engines built
//! on them) stay `Send + Sync` for the parallel sweep layer.

use std::collections::HashMap;
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

/// One append-log entry: an edge with its endpoints shrunk to the `u32`
/// interior index width and no label, which no catch-up reads (16 bytes
/// instead of [`Edge`]'s 32). The log is one push per appended edge on
/// the hot mutation path, kept only while memoized results exist, and
/// copied into [`SpfaScratch::delta`] when a stale result catches up.
/// Nothing trims it while they exist, so it can hold one entry per edge
/// appended since the first: at most a quarter of the two 32-byte
/// adjacency rows each such edge also fills.
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

/// The cumulative work of one traversal kind on one graph (see
/// [`GraphWork`]).
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

/// The traversal work a graph has done, read with
/// [`WeightedDigraph::work`]. Memo hits do no work and count nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphWork {
    /// SPFA — cold, delta catch-ups, and label-correcting walks over a
    /// view's rows alike: a pop drains one frontier entry, so a vertex
    /// may be popped once per generation.
    pub spfa: TraversalWork,
    /// Potential-reweighted Dijkstra over a view's rows: a pop settles a
    /// vertex for good.
    pub dijkstra: TraversalWork,
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
/// threaded through the `next`/`prev` lanes; `key` holds each vertex's
/// best slack so far (`u64::MAX` = not reached).
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
    /// Empties the heap for a graph of `n` vertices.
    fn reset(&mut self, n: usize) {
        self.last = 0;
        self.heads = [NIL; BUCKETS];
        self.key.clear();
        self.key.resize(n, u64::MAX);
        self.bucket.clear();
        self.bucket.resize(n, UNQUEUED);
        // Links are written before they are read.
        self.next.resize(n, NIL);
        self.prev.resize(n, NIL);
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

/// Reusable traversal working state: everything a traversal needs
/// besides the result lanes themselves. Owned by the analysis cache and
/// recycled across queries (taken out under the lock, used outside it,
/// put back), so a steady-state serving loop reallocates nothing per
/// traversal.
#[derive(Debug, Default)]
struct SpfaScratch {
    /// In-frontier bitset, one bit per vertex in `u64` words.
    in_queue: Vec<u64>,
    /// Current frontier generation.
    frontier: Vec<u32>,
    /// Next frontier generation (swapped with `frontier` per drain).
    next: Vec<u32>,
    /// Staging buffer for the appended edges a catch-up relaxes over.
    delta: Vec<LogEdge>,
    /// The Dijkstra queue.
    heap: RadixHeap,
}

impl SpfaScratch {
    /// Resets the bitset and frontiers for a graph of `n` vertices.
    fn reset(&mut self, n: usize) {
        let words = n.div_ceil(64);
        self.in_queue.clear();
        self.in_queue.resize(words, 0);
        self.frontier.clear();
        self.next.clear();
    }

    /// Queues `v` for the next generation, unless it is queued already.
    #[inline]
    fn enqueue(&mut self, v: u32) {
        let (w, b) = ((v / 64) as usize, v % 64);
        if self.in_queue[w] & (1 << b) == 0 {
            self.in_queue[w] |= 1 << b;
            self.next.push(v);
        }
    }
}

/// One memoized forward result, tagged with the graph generation it is
/// current at: results from older generations are delta-relaxed forward
/// instead of recomputed (see the [module docs](self)).
#[derive(Debug, Clone)]
struct CachedDistances {
    /// Vertex count the result is current at.
    vertices: usize,
    /// Edge count the result is current at.
    edges: usize,
    dist: Arc<Distances>,
}

/// Memoized analysis state: the forward SPFA results computed so far
/// keyed by source, the append log that lets stale results catch up
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
    /// The reusable traversal arena; `None` while a query has it out.
    scratch: Option<Box<SpfaScratch>>,
    work: GraphWork,
}

impl AnalysisCache {
    /// Puts a borrowed arena back. A concurrent query may have parked
    /// its own meanwhile; one is kept.
    fn park(&mut self, scratch: Box<SpfaScratch>) {
        if self.scratch.is_none() {
            self.scratch = Some(scratch);
        }
    }
}

/// A weighted directed multigraph over vertices of type `V`.
///
/// Vertices are interned to dense indices on first use; parallel edges are
/// allowed (bounds graphs need them: two processes exchanging messages
/// produce edges of both signs between the same node pair).
///
/// Longest-path queries are memoized: see the [module docs](self) and
/// [`WeightedDigraph::longest_from_cached`].
#[derive(Debug)]
pub struct WeightedDigraph<V> {
    index: HashMap<V, usize, FxBuild>,
    vertices: Vec<V>,
    out: Vec<Vec<Edge>>,
    r#in: Vec<Vec<Edge>>,
    edge_count: usize,
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
            out: self.out.clone(),
            r#in: self.r#in.clone(),
            edge_count: self.edge_count,
            cache: Mutex::new(shared),
        }
    }
}

impl<V: Hash + Eq + Clone> Default for WeightedDigraph<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Hash + Eq + Clone> WeightedDigraph<V> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        WeightedDigraph {
            index: HashMap::default(),
            vertices: Vec::new(),
            out: Vec::new(),
            r#in: Vec::new(),
            edge_count: 0,
            cache: Mutex::new(AnalysisCache::default()),
        }
    }

    /// Builds a graph in one pass from its vertices, in dense-index order,
    /// and an edge list over those indices — the bulk constructor behind
    /// every bounds-graph builder. Degrees are counted first, so each
    /// adjacency row is allocated once, at its exact size or four edges
    /// if larger, and each row holds its edges in list order: the result
    /// is the graph that [`WeightedDigraph::add_edge`] calls in list order
    /// would build.
    ///
    /// # Panics
    ///
    /// Panics if a vertex repeats, if an edge endpoint is not below
    /// `vertices.len()`, or if the graph exceeds the `u32` index space.
    pub fn from_edges(vertices: Vec<V>, edges: &[Edge]) -> Self {
        let n = vertices.len();
        checked_u32(n, "vertex count").expect("graph exceeds the u32 index space");
        let mut index = HashMap::with_capacity_and_hasher(n, FxBuild::default());
        for (i, v) in vertices.iter().enumerate() {
            let fresh = index.insert(v.clone(), i).is_none();
            assert!(fresh, "from_edges: vertex {i} repeats an earlier vertex");
        }
        let mut degrees = vec![(0usize, 0usize); n];
        for e in edges {
            degrees[e.from].0 += 1;
            degrees[e.to].1 += 1;
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
            out,
            r#in,
            edge_count: edges.len(),
            // The log starts after the bulk edges, so a result cached
            // before the first append catches up from the right entry.
            cache: Mutex::new(AnalysisCache {
                log_base: edges.len(),
                ..AnalysisCache::default()
            }),
        }
    }

    /// Records a mutation: memoized SPFA results are *kept* and the
    /// appended edge (if any) is logged so they can delta-relax on their
    /// next query.
    fn note_mutation(&mut self, appended: Option<Edge>) {
        let edge_count = self.edge_count;
        let cache = self.cache.get_mut().expect("cache lock");
        if cache.memo.is_empty() {
            // Nothing to catch up: restart the log here so construction
            // phases (thousands of adds before any query) log nothing.
            cache.log.clear();
            cache.log_base = edge_count;
        } else if let Some(e) = appended {
            // Endpoints were interned through `add_vertex`, which already
            // guarantees they fit in u32.
            cache.log.push(LogEdge {
                from: e.from as u32,
                to: e.to as u32,
                weight: e.weight,
            });
        }
    }

    /// Interns `v`, returning its dense index. Memoized longest-path
    /// results survive (a fresh vertex is unreachable until an edge
    /// arrives) and are resized on their next query.
    ///
    /// # Panics
    ///
    /// Panics if the graph already holds `u32::MAX` vertices (interior
    /// indices are `u32`; see the [module docs](self)).
    pub fn add_vertex(&mut self, v: V) -> usize {
        if let Some(&i) = self.index.get(&v) {
            return i;
        }
        let i = self.vertices.len();
        checked_u32(i + 1, "vertex count").expect("graph exceeds the u32 index space");
        self.index.insert(v.clone(), i);
        self.vertices.push(v);
        self.out.push(Vec::new());
        self.r#in.push(Vec::new());
        self.note_mutation(None);
        i
    }

    /// Adds the edge `from --weight--> to` with a label. Memoized
    /// longest-path results survive and delta-relax over the new edge on
    /// their next query (see the [module docs](self)).
    pub fn add_edge(&mut self, from: V, to: V, weight: i64, label: u32) {
        let f = self.add_vertex(from);
        let t = self.add_vertex(to);
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
    /// unreachable), via a fresh SPFA over the adjacency rows.
    ///
    /// Each call traverses afresh — it neither consults nor populates the
    /// per-source result memo, so one-shot callers pay exactly one SPFA
    /// and retain no result (the traversal borrows the shared scratch
    /// arena like every other query). On hot paths that revisit sources,
    /// prefer [`WeightedDigraph::longest_from_cached`], which shares one
    /// memoized traversal across repeated queries.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PositiveCycle`] if a positive cycle is
    /// reachable from `src`.
    pub fn longest_from(&self, src: &V) -> Result<Distances, CoreError> {
        let s = self.root(src, "longest_from: source vertex not in graph")?;
        self.distances_over(self, s, Direction::Forward, false)
    }

    /// Longest-path weights from every vertex *to* `dst` (`None` =
    /// no path), via a fresh SPFA over the incoming rows, never memoized.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PositiveCycle`] if a positive cycle reaches
    /// `dst`.
    pub fn longest_to(&self, dst: &V) -> Result<Distances, CoreError> {
        let s = self.root(dst, "longest_to: destination vertex not in graph")?;
        self.distances_over(self, s, Direction::Backward, false)
    }

    /// The longest path from `from` to `to` as `(weight, edges)`, the
    /// edges in walk order; `Ok(None)` if no path exists. The path is the
    /// canonical one (see the [module docs](self)), read off a fresh
    /// [`WeightedDigraph::longest_from`] traversal.
    ///
    /// # Errors
    ///
    /// Fails if either endpoint is not a vertex, or with
    /// [`CoreError::PositiveCycle`] if a positive cycle is reachable from
    /// `from`.
    pub fn longest_path(&self, from: &V, to: &V) -> Result<Option<(i64, Vec<Edge>)>, CoreError> {
        let s = self.root(from, "longest_path: source vertex not in graph")?;
        let t = self.root(to, "longest_path: target vertex not in graph")?;
        let dist = self.distances_over(self, s, Direction::Forward, false)?;
        Ok(dist.weight(t).zip(canonical_path(self, &dist, s, t)))
    }

    /// Memoized [`WeightedDigraph::longest_from`]: the first query per
    /// source runs SPFA, every later query on the unmodified graph returns
    /// the shared result in O(1) without allocating, and a query after
    /// appends catches the result up in place (see the
    /// [module docs](self)).
    ///
    /// # Errors
    ///
    /// Same conditions as [`WeightedDigraph::longest_from`].
    pub fn longest_from_cached(&self, src: &V) -> Result<Arc<Distances>, CoreError> {
        let s = self.root(src, "longest_from: source vertex not in graph")?;
        let (vcount, ecount) = (self.vertices.len(), self.edge_count);
        let key = s as u32;
        {
            // Current hits return immediately. A stale hit catches up *in
            // place, under the lock*: the delta pass is proportional to
            // the appended edges and the vertices they improve, so the
            // steady streaming loop pays one lock round and zero memo
            // churn per append batch.
            let mut cache = self.cache.lock().expect("cache lock");
            let AnalysisCache {
                memo,
                log,
                log_base,
                scratch: scratch_slot,
                work,
            } = &mut *cache;
            match memo.get_mut(&key) {
                Some(hit) if hit.vertices == vcount && hit.edges == ecount => {
                    return Ok(hit.dist.clone());
                }
                // The log begins no later than any surviving entry's
                // generation (it restarts only while no entry exists);
                // guard anyway and fall back to a fresh traversal.
                Some(hit) if hit.edges >= *log_base => {
                    let start = hit.edges - *log_base;
                    let mut scratch = scratch_slot.take().unwrap_or_default();
                    scratch.delta.clear();
                    scratch.delta.extend_from_slice(&log[start..]);
                    let mut tally = Tally::default();
                    // In the steady streaming state the memo holds the
                    // only strong reference, so this catches up with no
                    // O(n) copy; external holders force one clone.
                    let result =
                        catch_up(self, Arc::make_mut(&mut hit.dist), &mut scratch, &mut tally);
                    work.spfa.record(tally);
                    if scratch_slot.is_none() {
                        *scratch_slot = Some(scratch);
                    }
                    return match result {
                        Ok(()) => {
                            hit.vertices = vcount;
                            hit.edges = ecount;
                            Ok(hit.dist.clone())
                        }
                        // Drop the partially-relaxed entry: the next
                        // query re-runs cold and reports the same
                        // verdict.
                        Err(e) => {
                            memo.remove(&key);
                            Err(e)
                        }
                    };
                }
                _ => {}
            }
        }
        // Cold traversal outside the lock: concurrent first touches may
        // duplicate work but never block each other.
        let dist = Arc::new(self.distances_over(self, s, Direction::Forward, false)?);
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

    fn take_scratch(&self) -> Box<SpfaScratch> {
        self.cache
            .lock()
            .expect("cache lock")
            .scratch
            .take()
            .unwrap_or_default()
    }

    /// The traversal work this graph has done, including the distance
    /// traversals of every view over its rows (see [`GraphWork`]).
    pub fn work(&self) -> GraphWork {
        self.cache.lock().expect("cache lock").work
    }

    /// Longest-path weights from (or, backward, to) `src` over `rows` —
    /// this graph's rows or a view over them: the potential-reweighted
    /// Dijkstra when `dijkstra` (the caller vouches that the rows'
    /// potential is feasible on every edge they yield and keeps every key
    /// below `u64::MAX`), otherwise the label-correcting traversal.
    /// Either borrows this graph's scratch arena and counts its work
    /// here.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PositiveCycle`] if the label-correcting
    /// traversal finds one.
    pub(crate) fn distances_over<R: Rows>(
        &self,
        rows: &R,
        src: usize,
        dir: Direction,
        dijkstra: bool,
    ) -> Result<Distances, CoreError> {
        let mut scratch = self.take_scratch();
        let mut tally = Tally::default();
        let result = if dijkstra {
            Ok(dijkstra_over(rows, src, dir, &mut scratch.heap, &mut tally))
        } else {
            label_correcting_from(rows, src, dir, &mut scratch, &mut tally)
        };
        let mut cache = self.cache.lock().expect("cache lock");
        cache.park(scratch);
        match dijkstra {
            true => cache.work.dijkstra.record(tally),
            false => cache.work.spfa.record(tally),
        }
        result
    }
}

/// What a traversal reads: a graph given row by row. A
/// [`WeightedDigraph`] is rows over its adjacency, and a closed graph's
/// walk rows over the `GB(r)` it is cut from (see
/// [`crate::extended_graph`]).
pub(crate) trait Rows {
    /// Number of vertices; traversals index them `0..vertex_count()`.
    fn vertex_count(&self) -> usize;

    /// The potential `π(v)`; 0 for rows without a clock, which only the
    /// label-correcting traversal walks.
    fn potential(&self, _v: usize) -> i64 {
        0
    }

    /// Calls `f(w, weight, π(w), label)` for every edge of `v`'s row, in
    /// row order: the edges leaving `v` when `dir` is forward (`w` is the
    /// head), the edges entering it when backward (`w` is the tail).
    fn scan(&self, v: usize, dir: Direction, f: impl FnMut(usize, i64, i64, u32));
}

impl<V> Rows for WeightedDigraph<V> {
    fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    #[inline(always)]
    fn scan(&self, v: usize, dir: Direction, mut f: impl FnMut(usize, i64, i64, u32)) {
        match dir {
            Direction::Forward => self.out[v]
                .iter()
                .for_each(|e| f(e.to, e.weight, 0, e.label)),
            Direction::Backward => self.r#in[v]
                .iter()
                .for_each(|e| f(e.from, e.weight, 0, e.label)),
        }
    }
}

/// Longest-path weights from (or, backward, to) `src` over `rows`: the
/// label-correcting traversal seeded at the root.
fn label_correcting_from<R: Rows>(
    rows: &R,
    src: usize,
    dir: Direction,
    scratch: &mut SpfaScratch,
    tally: &mut Tally,
) -> Result<Distances, CoreError> {
    let mut lane = vec![UNREACHABLE; rows.vertex_count()];
    scratch.reset(lane.len());
    lane[src] = 0;
    scratch.enqueue(src as u32);
    label_correcting(rows, dir, &mut lane, scratch, tally)?;
    Ok(Distances { lane })
}

/// Catches a converged forward result over `rows` up with the edges
/// staged in `scratch.delta`, **in place**: relaxing each staged edge
/// queues exactly the vertices it improves, and the label-correcting
/// traversal cascades from them over the live rows (which hold old and
/// new edges alike), so the converged bulk of the result is never
/// revisited.
///
/// Correct because mutations are append-only: every path the old result
/// accounted for still exists, so its weights are valid lower bounds,
/// and any strictly better path uses at least one new edge — which is
/// exactly what gets seeded.
fn catch_up<R: Rows>(
    rows: &R,
    dist: &mut Distances,
    scratch: &mut SpfaScratch,
    tally: &mut Tally,
) -> Result<(), CoreError> {
    let n = rows.vertex_count();
    let dist = &mut dist.lane;
    dist.resize(n, UNREACHABLE);
    scratch.reset(n);
    tally.scans += scratch.delta.len() as u64;
    for k in 0..scratch.delta.len() {
        let e = scratch.delta[k];
        let du = dist[e.from as usize];
        if du != UNREACHABLE && du + e.weight > dist[e.to as usize] {
            dist[e.to as usize] = du + e.weight;
            scratch.enqueue(e.to);
        }
    }
    label_correcting(rows, Direction::Forward, dist, scratch, tally)
}

/// The label-correcting traversal (a queue-based Bellman–Ford, "SPFA")
/// over `rows`, from the frontier its caller queued in `scratch`. Each
/// generation drains the frontier, scanning every queued vertex's row in
/// row order; a strict improvement records the vertex's distance in
/// `dist` and queues the vertex for the next generation. A graph with no
/// positive cycle converges within `|V|` generations (the longest simple
/// path has `|V| − 1` edges), so a traversal that needs more has found
/// one.
fn label_correcting<R: Rows>(
    rows: &R,
    dir: Direction,
    dist: &mut [i64],
    scratch: &mut SpfaScratch,
    tally: &mut Tally,
) -> Result<(), CoreError> {
    let n = rows.vertex_count();
    // Borrow the bitset and the frontiers apart, so the scan's closure
    // holds them directly instead of reaching them through the arena on
    // every edge.
    let SpfaScratch {
        in_queue,
        frontier,
        next,
        ..
    } = scratch;
    std::mem::swap(frontier, next);
    let mut drains = 0usize;
    while !frontier.is_empty() {
        drains += 1;
        if drains > n {
            return Err(CoreError::PositiveCycle);
        }
        tally.pops += frontier.len() as u64;
        let mut scans = 0;
        for &u in frontier.iter() {
            let (w, b) = ((u / 64) as usize, u % 64);
            in_queue[w] &= !(1 << b);
            let du = dist[u as usize];
            rows.scan(u as usize, dir, |v, weight, _, _| {
                scans += 1;
                let cand = du + weight;
                if cand > dist[v] {
                    dist[v] = cand;
                    let (w, b) = (v / 64, v % 64);
                    if in_queue[w] & (1 << b) == 0 {
                        in_queue[w] |= 1 << b;
                        next.push(v as u32);
                    }
                }
            });
        }
        tally.scans += scans;
        frontier.clear();
        std::mem::swap(frontier, next);
    }
    Ok(())
}

/// Potential-reweighted Dijkstra for longest paths over `rows` (see the
/// [module docs](self)). A backward scan walks each edge against its
/// direction, so it reweights under `−π`; either way an edge's slack is
/// `π(head) − π(tail) − w ≥ 0`, which the caller vouched for. A vertex's
/// slack key is the root-to-vertex slack, so its distance is
/// `π′(v) − π′(root) − slack` under the signed potential `π′`, computed
/// in wrapping arithmetic: exact whenever the distance fits in `i64`,
/// which is when SPFA's own sums do not overflow either. A reached
/// vertex's lane holds `π′(v)` until it settles, so the potential is read
/// once per edge, where the scan supplies it.
fn dijkstra_over<R: Rows>(
    rows: &R,
    src: usize,
    dir: Direction,
    heap: &mut RadixHeap,
    tally: &mut Tally,
) -> Distances {
    let n = rows.vertex_count();
    let sign: i64 = match dir {
        Direction::Forward => 1,
        Direction::Backward => -1,
    };
    let root = sign.wrapping_mul(rows.potential(src));
    let mut lane = vec![UNREACHABLE; n];
    lane[src] = root;
    heap.reset(n);
    heap.push(src as u32, 0);
    let mut scans = 0;
    while let Some(u) = heap.pop() {
        let u = u as usize;
        let slack = heap.key[u];
        let pu = lane[u];
        lane[u] = pu.wrapping_sub(root).wrapping_sub(slack as i64);
        tally.pops += 1;
        rows.scan(u, dir, |t, w, pt, _| {
            scans += 1;
            let pt = sign.wrapping_mul(pt);
            let cand = slack + pt.wrapping_sub(pu).wrapping_sub(w) as u64;
            if cand < heap.key[t] {
                lane[t] = pt;
                heap.push(t as u32, cand);
            }
        });
    }
    tally.scans += scans;
    Distances { lane }
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

impl<V: Hash + Eq + Clone> WeightedDigraph<V> {
    /// Longest-path weights from `src` via the classic dense Bellman–Ford
    /// (`|V| − 1` full relaxation rounds plus a detection round).
    ///
    /// Functionally identical to [`WeightedDigraph::longest_from`]; kept
    /// as the ablation baseline for the queue-based SPFA the bounds-graph
    /// queries use (see the `graphs` and `layout` benchmarks), and as the
    /// reference the traversals are tested against.
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

    fn diamond() -> WeightedDigraph<&'static str> {
        // a -> b (2), a -> c (5), b -> d (4), c -> d (−1), d -> a (−100)
        let mut g = WeightedDigraph::new();
        g.add_edge("a", "b", 2, 0);
        g.add_edge("a", "c", 5, 0);
        g.add_edge("b", "d", 4, 0);
        g.add_edge("c", "d", -1, 0);
        g.add_edge("d", "a", -100, 0);
        g
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
        g.add_vertex("z");
        let lp = g.longest_from(&"a").unwrap();
        assert_eq!(lp.weight(g.index_of(&"z").unwrap()), None);
        assert_eq!(g.longest_path(&"a", &"z").unwrap(), None);
        assert!(g.longest_path(&"a", &"nope").is_err());
        assert!(!lp.reaches(g.index_of(&"z").unwrap()));
    }

    #[test]
    fn positive_cycle_detected() {
        let mut g = WeightedDigraph::new();
        g.add_edge("a", "b", 1, 0);
        g.add_edge("b", "a", 0, 0); // cycle weight +1
        assert!(matches!(
            g.longest_from(&"a"),
            Err(CoreError::PositiveCycle)
        ));
        assert!(matches!(g.longest_to(&"a"), Err(CoreError::PositiveCycle)));
    }

    #[test]
    fn zero_cycles_are_fine() {
        let mut g = WeightedDigraph::new();
        g.add_edge("a", "b", 3, 0);
        g.add_edge("b", "a", -3, 0);
        g.add_edge("b", "c", 1, 0);
        let lp = g.longest_from(&"a").unwrap();
        assert_eq!(lp.weight(g.index_of(&"c").unwrap()), Some(4));
    }

    #[test]
    fn parallel_edges_kept() {
        let mut g = WeightedDigraph::new();
        g.add_edge("a", "b", 1, 7);
        g.add_edge("a", "b", 5, 8);
        assert_eq!(g.edge_count(), 2);
        let lp = g.longest_from(&"a").unwrap();
        let b = g.index_of(&"b").unwrap();
        assert_eq!(lp.weight(b), Some(5));
        assert_eq!(g.longest_path(&"a", &"b").unwrap().unwrap().1[0].label, 8);
        assert_eq!(g.edges_from(g.index_of(&"a").unwrap()).len(), 2);
        assert_eq!(g.edges_to(b).len(), 2);
    }

    #[test]
    fn dense_bellman_ford_agrees_with_spfa() {
        let g = diamond();
        let lp = g.longest_from(&"a").unwrap();
        let dense = g.longest_from_dense(&"a").unwrap();
        for (i, d) in dense.iter().enumerate() {
            assert_eq!(lp.weight(i), *d);
        }
        // Positive cycles are detected by both.
        let mut bad = WeightedDigraph::new();
        bad.add_edge("a", "b", 1, 0);
        bad.add_edge("b", "a", 0, 0);
        assert!(matches!(
            bad.longest_from_dense(&"a"),
            Err(CoreError::PositiveCycle)
        ));
        assert!(g.longest_from_dense(&"nope").is_err());
    }

    #[test]
    fn canonical_paths_take_fewest_hops_then_least_label_and_tail() {
        // a = 0 reaches f by two 2-hop paths of weight 3 (labels 2 via b,
        // 1 via c) and g by two of weight 2 (label 1 via b and via c);
        // e at weight 3 by a 3-hop path and a 2-hop one through d; a ⇄ b
        // is a zero-weight cycle.
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
        let mut reversed = edges;
        reversed.reverse();
        let expect = |t: usize, want: &[(usize, usize, u32)]| {
            for list in [&edges[..], &reversed[..]] {
                let g = WeightedDigraph::from_edges((0..7).collect(), list);
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
        let g = WeightedDigraph::from_edges((0..8).collect(), &edges);
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
        // The parked arena and its buffers: the two frontier generations
        // swap roles per drain, so they are compared as a sorted pair.
        let parked = |g: &WeightedDigraph<&str>| {
            let cache = g.cache.lock().unwrap();
            let s = cache.scratch.as_ref().expect("a query parks its arena");
            let mut frontiers = [
                (s.frontier.as_ptr(), s.frontier.capacity()),
                (s.next.as_ptr(), s.next.capacity()),
            ];
            frontiers.sort_unstable();
            let arena: *const SpfaScratch = &**s;
            (arena, s.in_queue.as_ptr(), s.in_queue.capacity(), frontiers)
        };
        let g = diamond();
        // The first cold query allocates the arena and parks it.
        let _ = g.longest_from(&"a").unwrap();
        let before = parked(&g);
        assert!(before.3.iter().all(|&(_, cap)| cap > 0), "{before:?}");
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
        assert!(Arc::ptr_eq(&a1, &a2), "second query re-ran SPFA");
        assert_eq!(a1.weight(g.index_of(&"d").unwrap()), Some(6));
        // Mutation invalidates: the next query sees the new edge. (a1 is
        // still held here, so the delta pass clones rather than mutating
        // the shared result in place.)
        g.add_edge("a", "d", 100, 9);
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
        // Two graphs sharing warm cache Arcs: a delta on one must leave
        // the other's cached answers untouched (copy-on-write).
        let mut g = diamond();
        let _ = g.longest_from_cached(&"a").unwrap();
        let sibling = g.clone();
        g.add_edge("a", "d", 100, 9);
        let grown = g.longest_from_cached(&"a").unwrap();
        let kept = sibling.longest_from_cached(&"a").unwrap();
        assert_eq!(grown.weight(g.index_of(&"d").unwrap()), Some(100));
        assert_eq!(kept.weight(sibling.index_of(&"d").unwrap()), Some(6));
    }

    #[test]
    fn delta_relaxed_caches_equal_fresh_traversals() {
        // Grow a graph edge by edge with warm caches alive the whole time;
        // after every append the delta-relaxed results must equal what a
        // freshly built graph computes from scratch, for every source.
        let additions: Vec<(&str, &str, i64)> = vec![
            ("a", "b", 2),
            ("b", "c", -1),
            ("c", "a", -5),
            ("a", "c", 4),
            ("c", "d", 3),
            ("d", "b", -2),
            ("e", "a", -6),
            ("d", "e", -4),
            ("b", "e", 0),
        ];
        let mut grown: WeightedDigraph<&str> = WeightedDigraph::new();
        grown.add_edge("a", "b", 2, 0);
        // Warm several sources so every later append must delta-relax.
        let _ = grown.longest_from_cached(&"a").unwrap();
        let _ = grown.longest_from_cached(&"b").unwrap();
        for k in 1..additions.len() {
            let (f, t, w) = additions[k];
            grown.add_edge(f, t, w, 0);
            let mut fresh: WeightedDigraph<&str> = WeightedDigraph::new();
            for &(f, t, w) in &additions[..=k] {
                fresh.add_edge(f, t, w, 0);
            }
            for src in ["a", "b", "c", "d", "e"] {
                if !fresh.contains(&src) {
                    continue;
                }
                let warm = grown.longest_from_cached(&src).unwrap();
                let cold = fresh.longest_from(&src).unwrap();
                let s = grown.index_of(&src).unwrap();
                for v in ["a", "b", "c", "d", "e"] {
                    let (gi, fi) = match (grown.index_of(&v), fresh.index_of(&v)) {
                        (Some(gi), Some(fi)) => (gi, fi),
                        _ => continue,
                    };
                    assert_eq!(
                        warm.weight(gi),
                        cold.weight(fi),
                        "delta diverged at step {k}, {src} -> {v}"
                    );
                    // Paths read off the caught-up lane realize its weights.
                    if let Some(w) = warm.weight(gi) {
                        let path = canonical_path(&grown, &warm, s, gi).unwrap();
                        assert_eq!(path.iter().map(|e| e.weight).sum::<i64>(), w);
                    }
                }
            }
        }
    }

    #[test]
    fn delta_relaxation_detects_late_positive_cycles() {
        let mut g = WeightedDigraph::new();
        g.add_edge("a", "b", 1, 0);
        g.add_edge("b", "c", 1, 0);
        let warm = g.longest_from_cached(&"a").unwrap();
        assert_eq!(warm.weight(g.index_of(&"c").unwrap()), Some(2));
        // The closing edge creates a positive cycle reachable from "a":
        // the delta pass must report it, not spin.
        g.add_edge("c", "a", 0, 0);
        assert!(matches!(
            g.longest_from_cached(&"a"),
            Err(CoreError::PositiveCycle)
        ));
        // And it keeps reporting it on retry (the evicted entry re-runs
        // cold), matching the uncached verdict.
        assert!(matches!(
            g.longest_from_cached(&"a"),
            Err(CoreError::PositiveCycle)
        ));
        assert!(matches!(
            g.longest_from(&"a"),
            Err(CoreError::PositiveCycle)
        ));
    }

    #[test]
    fn new_vertices_extend_cached_results() {
        let mut g = diamond();
        let warm = g.longest_from_cached(&"a").unwrap();
        g.add_vertex("z");
        // Still answerable; z is unreachable until an edge arrives.
        let after = g.longest_from_cached(&"a").unwrap();
        assert_eq!(after.weight(g.index_of(&"z").unwrap()), None);
        g.add_edge("d", "z", 3, 0);
        let connected = g.longest_from_cached(&"a").unwrap();
        assert_eq!(connected.weight(g.index_of(&"z").unwrap()), Some(9));
        assert_eq!(
            warm.weight(g.index_of(&"d").unwrap()),
            connected.weight(g.index_of(&"d").unwrap())
        );
    }

    /// A feasible potential of [`diamond`]: the longest distances from
    /// `a`, in index order `a, b, c, d`.
    const DIAMOND_CLOCK: [i64; 4] = [0, 2, 5, 6];

    /// A graph's own rows under a given potential: the [`Rows`] these
    /// tests drive the distance traversals with.
    struct Whole<'a, V> {
        g: &'a WeightedDigraph<V>,
        clock: &'a [i64],
    }

    impl<V> Rows for Whole<'_, V> {
        fn vertex_count(&self) -> usize {
            self.g.vertices.len()
        }

        fn potential(&self, v: usize) -> i64 {
            self.clock[v]
        }

        fn scan(&self, v: usize, dir: Direction, mut f: impl FnMut(usize, i64, i64, u32)) {
            self.g.scan(v, dir, |w, weight, _, label| {
                f(w, weight, self.clock[w], label)
            });
        }
    }

    #[test]
    fn row_traversals_equal_spfa_from_every_root() {
        let g = diamond();
        let rows = Whole {
            g: &g,
            clock: &DIAMOND_CLOCK,
        };
        let edges = g.edge_count() as u64;
        for root in ["a", "b", "c", "d"] {
            let r = g.index_of(&root).unwrap();
            let spfa_fwd = g.longest_from(&root).unwrap();
            let spfa_bwd = g.longest_to(&root).unwrap();
            for dijkstra in [true, false] {
                let fwd = g.distances_over(&rows, r, Direction::Forward, dijkstra);
                let bwd = g.distances_over(&rows, r, Direction::Backward, dijkstra);
                let (fwd, bwd) = (fwd.unwrap(), bwd.unwrap());
                for i in 0..g.vertex_count() {
                    assert_eq!(fwd.weight(i), spfa_fwd.weight(i), "{root} -> {i}");
                    assert_eq!(bwd.weight(i), spfa_bwd.weight(i), "{i} -> {root}");
                }
                assert_eq!(fwd.max_weight(), spfa_fwd.max_weight());
                assert_eq!(bwd.min_weight(), spfa_bwd.min_weight());
                assert!(fwd.connected().eq(spfa_fwd.connected()));
            }
        }
        // Each Dijkstra settles a vertex once and scans an edge once; the
        // label-correcting walks count as SPFA, beside the 8 above.
        let work = g.work();
        assert_eq!(work.dijkstra.traversals, 8);
        assert_eq!(work.spfa.traversals, 16);
        assert!(work.dijkstra.max_scans <= edges);
        assert!(work.dijkstra.max_pops <= g.vertex_count() as u64);
    }

    #[test]
    fn the_label_correcting_walk_reports_positive_cycles() {
        let mut g = WeightedDigraph::new();
        g.add_edge("a", "b", 1, 0);
        g.add_edge("b", "a", 0, 0); // cycle weight +1
        g.add_edge("b", "c", 2, 0);
        let rows = Whole {
            g: &g,
            clock: &[0, 0, 0],
        };
        for dir in [Direction::Forward, Direction::Backward] {
            assert!(matches!(
                g.distances_over(&rows, 0, dir, false),
                Err(CoreError::PositiveCycle)
            ));
        }
    }

    /// The distance traversals against the dense Bellman–Ford on random
    /// graphs at n ∈ {64, 256}: with a feasible potential (longest paths
    /// from a virtual root with a 0-edge to every vertex, which exists
    /// exactly when no positive cycle does) Dijkstra and the
    /// label-correcting walk give the dense lanes in both directions,
    /// each Dijkstra scanning every edge at most once; without one, the
    /// walk reports the reachable cycle the dense reference finds.
    #[test]
    fn row_traversals_match_dense_bellman_ford_on_random_graphs() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let (mut feasible, mut cyclic) = (0, 0);
        for case in 0..48 {
            let n = if case % 2 == 0 { 64usize } else { 256 };
            let dag_only = case % 3 == 0;
            let mut g: WeightedDigraph<usize> = WeightedDigraph::new();
            for i in 0..n {
                g.add_vertex(i);
            }
            let m = 64 + next(449) as usize;
            for k in 0..m {
                let (mut u, mut v) = (next(n as u64) as usize, next(n as u64) as usize);
                if u == v {
                    continue;
                }
                if dag_only && u > v {
                    std::mem::swap(&mut u, &mut v);
                }
                g.add_edge(u, v, next(21) as i64 - 10, k as u32);
            }
            let src = next(n as u64) as usize;
            let mut rooted = g.clone();
            for v in 0..n {
                rooted.add_edge(n, v, 0, 0);
            }
            match rooted.longest_from_dense(&n) {
                Ok(clock) => {
                    feasible += 1;
                    let clock: Vec<i64> = clock[..n].iter().map(|t| t.unwrap()).collect();
                    let rows = Whole {
                        g: &g,
                        clock: &clock,
                    };
                    let fwd = g.longest_from_dense(&src).unwrap();
                    let bwd = g.longest_to_dense(&src).unwrap();
                    let before = g.work().dijkstra.traversals;
                    for dijkstra in [true, false] {
                        let got_fwd = g.distances_over(&rows, src, Direction::Forward, dijkstra);
                        let got_bwd = g.distances_over(&rows, src, Direction::Backward, dijkstra);
                        let (got_fwd, got_bwd) = (got_fwd.unwrap(), got_bwd.unwrap());
                        for i in 0..n {
                            assert_eq!(got_fwd.weight(i), fwd[i], "case {case}: {src} -> {i}");
                            assert_eq!(got_bwd.weight(i), bwd[i], "case {case}: {i} -> {src}");
                        }
                    }
                    let work = g.work().dijkstra;
                    assert_eq!(work.traversals, before + 2);
                    assert!(work.max_scans <= g.edge_count() as u64);
                }
                Err(CoreError::PositiveCycle) => {
                    cyclic += 1;
                    let rows = Whole {
                        g: &g,
                        clock: &vec![0; n],
                    };
                    let walked = g.distances_over(&rows, src, Direction::Forward, false);
                    match (g.longest_from_dense(&src), walked) {
                        (Ok(dense), Ok(got)) => {
                            for (i, want) in dense.into_iter().enumerate() {
                                assert_eq!(got.weight(i), want, "case {case}: {src} -> {i}");
                            }
                        }
                        (Err(CoreError::PositiveCycle), Err(CoreError::PositiveCycle)) => {}
                        (dense, got) => panic!(
                            "case {case}: verdicts diverged (dense err {}, walk err {})",
                            dense.is_err(),
                            got.is_err()
                        ),
                    }
                }
                Err(e) => panic!("case {case}: {e}"),
            }
        }
        assert!(
            feasible > 0 && cyclic > 0,
            "{feasible} feasible, {cyclic} cyclic"
        );
    }

    #[test]
    fn radix_heap_pops_in_key_order_and_lowers_keys() {
        let mut heap = RadixHeap::default();
        heap.reset(6);
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
    }
}
