//! B10 — the data-layout tier: the hot core's one traversal, Dijkstra
//! under the graph's clock, measured in isolation.
//!
//! Three rows per vertex count n ∈ {24, 128, 256}, on a synthetic
//! bounds-shaped digraph whose clock `t(v) = 4v` holds on every edge,
//! like the recorded times of every real timed run (Lemma 8):
//!
//! * `layout/cold-build/n` — intern n vertices at their times, insert ~5n
//!   edges and run one cold Dijkstra over the adjacency rows
//!   (`longest_from`). This is the path a batch `BoundsGraph::of_run`
//!   pays once per run.
//! * `layout/warm-query/n` — the memoized hit: `longest_from_cached` on
//!   an already-analyzed graph (lock, map probe, `Arc` clone, one read).
//!   The counting-allocator test in `tests/oracle.rs` pins this loop to
//!   zero allocations; this row pins its latency.
//! * `layout/append-delta/n` — the streaming shape: resume from a warm
//!   snapshot (clone shares the analysis cache), append 16 edges one at
//!   a time, re-query the cached source after every append so each
//!   answer is served by the catch-up over the append log: a Dijkstra
//!   seeded at the heads the appended edge improves.
//!
//! Every row is answer-checked against the dense Bellman–Ford baseline
//! (`longest_from_dense`) before anything is timed, so old- and
//! new-layout numbers recorded under the same names are directly
//! comparable — `BENCH_pr6.json` keeps the pre-rewrite medians under
//! `layout/*-old/n` names next to the fresh rows.
//!
//! Run with `CRITERION_JSON=BENCH_pr6.json cargo bench --bench layout`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zigzag_core::graph::WeightedDigraph;

/// Splitmix-style deterministic generator; no external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The clock of the synthetic graphs: vertex `v` at time `4v`.
fn t(v: u32) -> i64 {
    i64::from(v) * 4
}

/// A bounds-shaped edge list over vertices `0..n`: a successor chain plus
/// random chords. Every edge `u → v` carries weight
/// `t(v) − t(u) − slack` for the clock `t` and `slack ≥ 0`, so the clock
/// holds on every edge — the certificate a valid timing function gives a
/// real bounds graph (Lemma 17 shape). Backward chords are strongly
/// negative, forward chords can be positive; the mix matches
/// `BoundsGraph`'s ±(L, U) message pairs.
fn edge_list(n: u32, seed: u64) -> Vec<(u32, u32, i64, u32)> {
    let mut rng = Rng(seed);
    let mut edges = Vec::new();
    for v in 0..n.saturating_sub(1) {
        edges.push((v, v + 1, t(v + 1) - t(v) - (rng.below(3) as i64), 0));
    }
    for k in 0..4 * u64::from(n) {
        let u = rng.below(u64::from(n)) as u32;
        let mut v = rng.below(u64::from(n)) as u32;
        if v == u {
            v = (v + 1) % n;
        }
        let slack = rng.below(8) as i64;
        edges.push((u, v, t(v) - t(u) - slack, 1 + (k % 2) as u32));
    }
    edges
}

fn build(n: u32, edges: &[(u32, u32, i64, u32)]) -> WeightedDigraph<u32> {
    let mut g = WeightedDigraph::new();
    for v in 0..n {
        g.add_vertex(v, t(v));
    }
    for &(u, v, w, l) in edges {
        g.add_edge(&u, &v, w, l);
    }
    g
}

/// How many trailing edges the append-delta row replays one at a time.
const TAIL: usize = 16;

fn layout_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("layout");
    for n in [24u32, 128, 256] {
        let edges = edge_list(n, 0xC0FF_EE00 + u64::from(n));
        let src = 0u32;

        // Answer-check once before timing: the engine's Dijkstra vs dense
        // Bellman–Ford on the full graph.
        let full = build(n, &edges);
        let lp = full.longest_from(&src).expect("the clock holds");
        let dense = full.longest_from_dense(&src).expect("no positive cycle");
        for (i, &expected) in dense.iter().enumerate() {
            assert_eq!(
                lp.weight(i),
                expected,
                "Dijkstra diverged from dense at {i}"
            );
        }

        group.bench_with_input(BenchmarkId::new("cold-build", n), &edges, |b, edges| {
            b.iter(|| {
                let g = build(n, edges);
                g.longest_from(&src).expect("the clock holds").max_weight()
            });
        });

        let warm = build(n, &edges);
        warm.longest_from_cached(&src).expect("the clock holds");
        group.bench_with_input(BenchmarkId::new("warm-query", n), &warm, |b, warm| {
            b.iter(|| {
                warm.longest_from_cached(&src)
                    .expect("the clock holds")
                    .max_weight()
            });
        });

        // The delta loop resumes from a warm snapshot missing the last
        // TAIL edges and replays them one at a time, querying after each
        // append — the `IncrementalEngine::append_event` shape.
        let split = edges.len() - TAIL;
        let base = build(n, &edges[..split]);
        base.longest_from_cached(&src).expect("the clock holds");
        let tail = &edges[split..];

        // Answer-check the delta path against the fresh full graph.
        let delta_lp = {
            let mut g = base.clone();
            let mut last = None;
            for &(u, v, w, l) in tail {
                g.add_edge(&u, &v, w, l);
                last = Some(g.longest_from_cached(&src).expect("the clock holds"));
            }
            last.expect("non-empty tail")
        };
        for (i, &expected) in dense.iter().enumerate() {
            assert_eq!(
                delta_lp.weight(i),
                expected,
                "caught-up answers diverged from dense at {i}"
            );
        }

        group.bench_with_input(
            BenchmarkId::new("append-delta", n),
            &(base, tail),
            |b, (base, tail)| {
                b.iter(|| {
                    let mut g = base.clone();
                    let mut acc = 0i64;
                    for &(u, v, w, l) in *tail {
                        g.add_edge(&u, &v, w, l);
                        let lp = g.longest_from_cached(&src).expect("the clock holds");
                        acc ^= lp.max_weight().unwrap_or(0);
                    }
                    acc
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, layout_rows);
criterion_main!(benches);
