//! B4/B5 — the knowledge engine: max-x decision, witness extraction, and
//! the fast-run construction ablation (graph walk vs materialized run).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zigzag_bcm::ProcessId;
use zigzag_bench::{kicked_run, scaled_context};
use zigzag_core::knowledge::KnowledgeEngine;
use zigzag_core::GeneralNode;

fn knowledge_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("knowledge");
    for n in [4usize, 8, 16] {
        let ctx = scaled_context(n, 0.3, 11);
        let run = kicked_run(&ctx, ProcessId::new(0), 1, 60, 5);
        let sigma = run
            .nodes()
            .map(|r| r.id())
            .filter(|k| !k.is_initial())
            .last()
            .unwrap();
        let past = run.past(sigma);
        let nodes: Vec<_> = past.iter().filter(|k| !k.is_initial()).collect();
        let (x, y) = (nodes[0], nodes[nodes.len() / 2]);
        let (tx, ty) = (GeneralNode::basic(x), GeneralNode::basic(y));

        group.bench_with_input(BenchmarkId::new("engine-build", n), &run, |b, run| {
            b.iter(|| KnowledgeEngine::new(run, sigma).unwrap());
        });
        // One engine across iterations: these measure the *warm* query
        // path (memoized distances + answer caches); a warm witness still
        // re-runs its path pass. Cold-vs-warm is isolated in
        // benches/engine.rs.
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        group.bench_with_input(BenchmarkId::new("max-x", n), &engine, |b, e| {
            b.iter(|| e.max_x(&tx, &ty).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("witness", n), &engine, |b, e| {
            b.iter(|| e.witness(&tx, &ty).unwrap());
        });
        // A fresh engine per iteration: the cold witness a serving miss
        // pays — the observer build, one distance lane and the path pass.
        group.bench_with_input(BenchmarkId::new("witness-cold", n), &run, |b, run| {
            b.iter(|| {
                let e = KnowledgeEngine::new(run, sigma).unwrap();
                e.witness(&tx, &ty).unwrap()
            });
        });
        // Ablation: the materialized Definition 24 run vs the graph walk.
        group.bench_with_input(BenchmarkId::new("fast-run", n), &engine, |b, e| {
            b.iter(|| e.fast_run_of(&tx, 0, 20).unwrap());
        });
        // Batch all-pairs thresholds (one traversal per source).
        group.bench_with_input(BenchmarkId::new("max-x-matrix", n), &engine, |b, e| {
            b.iter(|| e.max_x_basic_matrix().unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, knowledge_queries);
criterion_main!(benches);
