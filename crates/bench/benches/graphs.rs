//! B2/B3 — bounds-graph machinery: `GB(r)` and `GE(r, σ)` construction
//! and longest-path queries, scaling in run size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zigzag_bcm::ProcessId;
use zigzag_bench::{kicked_run, scaled_context};
use zigzag_core::bounds_graph::BoundsGraph;
use zigzag_core::construct::FrontierGraph;
use zigzag_core::extended_graph::ExtVertex;
use zigzag_core::knowledge::{KnowledgeEngine, ObserverMode};
use zigzag_core::IncrementalEngine;

fn graph_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph-construction");
    for n in [4usize, 8, 16] {
        let ctx = scaled_context(n, 0.3, 7);
        let run = kicked_run(&ctx, ProcessId::new(0), 1, 60, 3);
        let sigma = run
            .nodes()
            .map(|r| r.id())
            .filter(|k| !k.is_initial())
            .last()
            .unwrap();
        group.bench_with_input(BenchmarkId::new("GB", n), &run, |b, run| {
            b.iter(|| BoundsGraph::of_run(run));
        });
        // A standalone GE(r, σ): GB(r, σ) and its view.
        group.bench_with_input(BenchmarkId::new("GE", n), &run, |b, run| {
            b.iter(|| KnowledgeEngine::new(run, sigma).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("frontier", n), &run, |b, run| {
            b.iter(|| FrontierGraph::of_run(run));
        });
    }
    group.finish();
}

fn longest_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("longest-path");
    for n in [4usize, 8, 16] {
        let ctx = scaled_context(n, 0.3, 7);
        let run = kicked_run(&ctx, ProcessId::new(0), 1, 60, 3);
        let sigma = run
            .nodes()
            .map(|r| r.id())
            .filter(|k| !k.is_initial())
            .last()
            .unwrap();
        let gb = BoundsGraph::of_run(&run);
        group.bench_with_input(BenchmarkId::new("GB-to-sigma", n), &gb, |b, gb| {
            b.iter(|| gb.longest_to(sigma).unwrap());
        });
        // A view memoizes its distances, so each iteration cuts a fresh
        // view of a session's GB(r) and runs one traversal on it.
        let session = IncrementalEngine::from_prefix(run.clone());
        let anchor = run.past(sigma).iter().find(|k| !k.is_initial()).unwrap();
        group.bench_with_input(BenchmarkId::new("GE-from-anchor", n), &session, |b, s| {
            b.iter(|| {
                let engine = s.uncached_engine(sigma, ObserverMode::Full).unwrap();
                engine.ge().distances_from(ExtVertex::Node(anchor)).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, graph_construction, longest_paths);
criterion_main!(benches);
