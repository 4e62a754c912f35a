//! B6 — the shared-analysis query engine: cold (fresh engine per query,
//! the seed behavior) vs warm (one engine, memoized lanes + answer caches)
//! `max_x` queries, plus batched thresholds, on `scaled_context`
//! topologies of n ∈ {6, 12, 24} processes.
//!
//! Run with `CRITERION_JSON=BENCH_pr1.json cargo bench --bench engine`
//! to record per-query nanoseconds for CI.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zigzag_bcm::ProcessId;
use zigzag_bench::{kicked_run, scaled_context};
use zigzag_core::knowledge::KnowledgeEngine;
use zigzag_core::GeneralNode;

fn cold_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    for n in [6usize, 12, 24] {
        let ctx = scaled_context(n, 0.3, 11);
        let run = kicked_run(&ctx, ProcessId::new(0), 1, 60, 5);
        let sigma = run
            .nodes()
            .map(|r| r.id())
            .filter(|k| !k.is_initial())
            .last()
            .unwrap();
        let past = run.past(sigma);
        // Cap the anchor set: large pasts would make the all-pairs batch
        // quadratically huge, and 32² queries already exercise every cache.
        let mut nodes: Vec<_> = past.iter().filter(|k| !k.is_initial()).collect();
        nodes.truncate(32);
        let queries: Vec<(GeneralNode, GeneralNode)> = nodes
            .iter()
            .flat_map(|&a| nodes.iter().map(move |&b| (a.into(), b.into())))
            .collect();

        // Seed behavior: a fresh engine per query, every traversal from scratch.
        group.bench_with_input(BenchmarkId::new("cold-max-x", n), &run, |b, run| {
            let mut k = 0usize;
            b.iter(|| {
                let (ta, tb) = &queries[k % queries.len()];
                k += 1;
                let engine = KnowledgeEngine::new(run, sigma).unwrap();
                engine.max_x(ta, tb).unwrap()
            });
        });

        // Shared-analysis behavior: one engine, memoized distance lanes
        // and answers shared across queries.
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        for (ta, tb) in &queries {
            let _ = engine.max_x(ta, tb).unwrap(); // warm the caches
        }
        group.bench_with_input(BenchmarkId::new("warm-max-x", n), &engine, |b, e| {
            let mut k = 0usize;
            b.iter(|| {
                let (ta, tb) = &queries[k % queries.len()];
                k += 1;
                e.max_x(ta, tb).unwrap()
            });
        });

        // Batched thresholds on a fresh engine: `GB(r, σ)`, its `GE`
        // view and the whole batch per iteration.
        group.bench_with_input(BenchmarkId::new("batch-max-x", n), &run, |b, run| {
            b.iter(|| {
                let engine = KnowledgeEngine::new(run, sigma).unwrap();
                engine.max_x_batch(&queries).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, cold_vs_warm);
criterion_main!(benches);
