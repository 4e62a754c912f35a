//! B7 — family-level execution: the scenario-family harness and the
//! engine-shared constructions it exercises.
//!
//! * `family/render-serial` vs `family/render-parallel` — one whole
//!   experiment family (E1 at the smoke profile) rendered through the
//!   harness with 1 worker vs the machine's worker count. Output is
//!   byte-identical by construction (asserted here); on multi-core hosts
//!   the parallel render is the family-level speedup, on single-core CI
//!   the two measure the fan-out's overhead (≈ none).
//! * `family/fastrun-cold/n` vs `family/fastrun-warm/n` — constructing a
//!   γ-fast run the seed way (fresh `GE(r, σ)` and traversals per call, the old
//!   `refute`/`fast_run_of` behavior) vs through the engine's shared
//!   graph and memoized timings.
//! * `family/matrix-dense/n` — the dense all-pairs `max_x` matrix on a
//!   warm engine (the batch-consumer path that replaced the per-call
//!   `BTreeMap`).
//!
//! Run with `CRITERION_JSON=BENCH_pr2.json cargo bench --bench family`
//! to record per-iteration nanoseconds for CI.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zigzag_bcm::par::thread_count;
use zigzag_bcm::ProcessId;
use zigzag_bench::experiments::{fig1_fork, Profile};
use zigzag_bench::harness::ExperimentHarness;
use zigzag_bench::{kicked_run, scaled_context};
use zigzag_core::construct::fast_run;
use zigzag_core::knowledge::KnowledgeEngine;
use zigzag_core::GeneralNode;

fn family_render(c: &mut Criterion) {
    let mut group = c.benchmark_group("family");
    let harness = || ExperimentHarness::new().experiment(fig1_fork::experiment(Profile::Smoke));
    // The differential guarantee, checked before anything is timed.
    assert_eq!(
        harness().render_with(1),
        harness().render_with(8),
        "family-parallel output diverged from serial"
    );
    group.bench_function(BenchmarkId::from_parameter("render-serial"), |b| {
        let h = harness();
        b.iter(|| h.render_with(1));
    });
    group.bench_function(BenchmarkId::from_parameter("render-parallel"), |b| {
        let h = harness();
        let workers = thread_count();
        b.iter(|| h.render_with(workers));
    });
    group.finish();
}

fn fast_run_sharing(c: &mut Criterion) {
    let mut group = c.benchmark_group("family");
    for n in [6usize, 12] {
        let ctx = scaled_context(n, 0.3, 11);
        let run = kicked_run(&ctx, ProcessId::new(0), 1, 45, 5);
        let sigma = run
            .nodes()
            .map(|r| r.id())
            .filter(|k| !k.is_initial())
            .last()
            .unwrap();
        let anchors: Vec<GeneralNode> = run
            .past(sigma)
            .iter()
            .filter(|k| !k.is_initial())
            .take(8)
            .map(GeneralNode::basic)
            .collect();

        // Seed behavior: every construction re-materializes GE(r, σ) and
        // re-runs the fast timing's traversal pair.
        group.bench_with_input(BenchmarkId::new("fastrun-cold", n), &run, |b, run| {
            let mut k = 0usize;
            b.iter(|| {
                let theta = &anchors[k % anchors.len()];
                k += 1;
                fast_run(run, sigma, theta, 0, 10).unwrap()
            });
        });

        // Shared-analysis behavior: the engine's GE plus memoized
        // canonicalization and timings feed the same construction.
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        for theta in &anchors {
            let _ = engine.fast_run_of(theta, 0, 10).unwrap(); // warm caches
        }
        group.bench_with_input(BenchmarkId::new("fastrun-warm", n), &engine, |b, e| {
            let mut k = 0usize;
            b.iter(|| {
                let theta = &anchors[k % anchors.len()];
                k += 1;
                e.fast_run_of(theta, 0, 10).unwrap()
            });
        });

        // The dense all-pairs matrix on a warm engine.
        group.bench_with_input(BenchmarkId::new("matrix-dense", n), &engine, |b, e| {
            b.iter(|| e.max_x_basic_matrix().unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, family_render, fast_run_sharing);
criterion_main!(benches);
