//! B8 — the online tier: per-append delta updates vs full rebuilds.
//!
//! The streaming serving loop is "append one event, answer the standing
//! queries": a fixed observer's knowledge threshold (the paper's `B`
//! tracking `K_σ(θ_a → σ)` as evidence arrives) plus a global `GB(r)`
//! tight bound to the newest node. Two implementations of that loop:
//!
//! * `online/append-delta/n` — the serving path as deployed: a
//!   [`ZigzagService`] stream session, events appended and every query
//!   dispatched through the facade's [`Query`] family (backed by the
//!   delta-updating `IncrementalEngine` — the facade adds one session
//!   lookup and one enum dispatch per query, which this bench keeps
//!   honest against the CI gate).
//! * `online/append-rebuild/n` — the seed pipeline's behavior: any change
//!   invalidates everything, so every event pays a fresh
//!   [`KnowledgeEngine`] (graph + traversals) and a fresh [`BoundsGraph`] on
//!   the grown prefix.
//!
//! Both sides answer identically (asserted before timing). CI gates the
//! per-event ratio at ≥ 5× (`BENCH_pr3.json`); the measured margin is
//! orders of magnitude (see ROADMAP.md).
//!
//! * `online/fastrun-cold/n` vs `online/fastrun-warm/n` — the γ-fast-run
//!   construction, re-measured with the PR 3 delivery-queue arena: warm
//!   engine constructions now recycle the queue storage
//!   ([`zigzag_core::construct::RunArena`]); compare against
//!   `family/fastrun-warm/n` in `BENCH_pr2.json` for the arena's win.
//!
//! Run with `CRITERION_JSON=BENCH_pr3.json cargo bench --bench online`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zigzag_api::{Query, Response, SessionConfig, ZigzagService};
use zigzag_bcm::stream::RunEvent;
use zigzag_bcm::{NodeId, ProcessId, Run, RunCursor, StreamingRun};
use zigzag_bench::{kicked_run, scaled_context};
use zigzag_core::bounds_graph::BoundsGraph;
use zigzag_core::construct::fast_run;
use zigzag_core::knowledge::KnowledgeEngine;
use zigzag_core::GeneralNode;

/// One streaming workload: the recorded feed, the standing observer
/// (chosen a quarter of the way in, so most appends serve warm queries),
/// and the anchor every query mentions (the kick node, causally before
/// everything).
struct Feed {
    run: Run,
    events: Vec<RunEvent>,
    sigma: NodeId,
    sigma_at: usize,
    anchor: NodeId,
}

fn feed(n: usize, horizon: u64) -> Feed {
    let ctx = scaled_context(n, 0.3, 11);
    let run = kicked_run(&ctx, ProcessId::new(0), 1, horizon, 5);
    let events = RunCursor::new(&run).collect_events();
    let sigma_at = events.len() / 4;
    // Replay to the pick point to learn which node arises there.
    let mut stream = StreamingRun::new(run.context_arc(), run.horizon());
    let mut sigma = None;
    for ev in &events[..=sigma_at] {
        sigma = Some(stream.append(ev).expect("legal feed"));
    }
    Feed {
        anchor: NodeId::new(ProcessId::new(0), 1),
        run,
        events,
        sigma: sigma.expect("at least one event"),
        sigma_at,
    }
}

/// The streaming loop, facade form: a stream session fed event-by-event,
/// every standing query dispatched through `ZigzagService::dispatch` as a
/// `QueryBatch`. Returns the answer stream (for the equality assertion)
/// so the compiler cannot elide the queries.
fn serve_delta(f: &Feed) -> Vec<(Option<i64>, Option<i64>)> {
    let service = ZigzagService::new();
    let session = service.open_stream(f.run.context_arc(), f.run.horizon(), SessionConfig::new());
    let theta_a = GeneralNode::basic(f.anchor);
    let theta_s = GeneralNode::basic(f.sigma);
    let mut answers = Vec::with_capacity(f.events.len());
    for (k, ev) in f.events.iter().enumerate() {
        let report = service.append(session, ev).expect("legal feed");
        if k < f.sigma_at {
            continue;
        }
        let batch = Query::QueryBatch(vec![
            Query::MaxX {
                sigma: f.sigma,
                theta1: theta_a.clone(),
                theta2: theta_s.clone(),
            },
            Query::TightBound {
                from: f.anchor,
                to: report.node,
            },
        ]);
        let Response::ResponseBatch(rs) = service.dispatch(session, &batch).expect("recognized")
        else {
            unreachable!("batch queries return batch responses");
        };
        let (Response::MaxX(m), Response::TightBound(b)) = (&rs[0], &rs[1]) else {
            unreachable!("positionally aligned responses");
        };
        answers.push((*m, *b));
    }
    answers
}

/// The streaming loop, seed form: rebuild the engine and the bounds
/// graph from scratch on every append.
fn serve_rebuild(f: &Feed) -> Vec<(Option<i64>, Option<i64>)> {
    let mut stream = StreamingRun::new(f.run.context_arc(), f.run.horizon());
    let theta_a = GeneralNode::basic(f.anchor);
    let theta_s = GeneralNode::basic(f.sigma);
    let mut answers = Vec::with_capacity(f.events.len());
    for (k, ev) in f.events.iter().enumerate() {
        let node = stream.append(ev).expect("legal feed");
        if k < f.sigma_at {
            continue;
        }
        let engine = KnowledgeEngine::new(stream.run(), f.sigma).expect("observer exists");
        let m = engine.max_x(&theta_a, &theta_s).expect("recognized");
        let gb = BoundsGraph::of_run(stream.run());
        let b = gb
            .longest_path(f.anchor, node)
            .expect("anchor recorded")
            .map(|(w, _)| w);
        answers.push((m, b));
    }
    answers
}

fn append_loops(c: &mut Criterion) {
    let mut group = c.benchmark_group("online");
    for (n, horizon) in [(6usize, 40u64), (12, 30)] {
        let f = feed(n, horizon);
        // The differential guarantee, checked before anything is timed.
        assert_eq!(
            serve_delta(&f),
            serve_rebuild(&f),
            "delta answers diverged from rebuild at n = {n}"
        );
        group.bench_with_input(BenchmarkId::new("append-delta", n), &f, |b, f| {
            b.iter(|| serve_delta(f));
        });
        group.bench_with_input(BenchmarkId::new("append-rebuild", n), &f, |b, f| {
            b.iter(|| serve_rebuild(f));
        });
    }
    group.finish();
}

fn fast_run_arena(c: &mut Criterion) {
    let mut group = c.benchmark_group("online");
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
        group.bench_with_input(BenchmarkId::new("fastrun-cold", n), &run, |b, run| {
            let mut k = 0usize;
            b.iter(|| {
                let theta = &anchors[k % anchors.len()];
                k += 1;
                fast_run(run, sigma, theta, 0, 10).unwrap()
            });
        });
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        for theta in &anchors {
            let _ = engine.fast_run_of(theta, 0, 10).unwrap(); // warm caches + arena
        }
        group.bench_with_input(BenchmarkId::new("fastrun-warm", n), &engine, |b, e| {
            let mut k = 0usize;
            b.iter(|| {
                let theta = &anchors[k % anchors.len()];
                k += 1;
                e.fast_run_of(theta, 0, 10).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, append_loops, fast_run_arena);
criterion_main!(benches);
