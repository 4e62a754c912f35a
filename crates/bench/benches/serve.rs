//! B9 — the serving tier: sharded wire dispatch and warm exclude-mode
//! coordination.
//!
//! Three claims, measured on the workloads a high-rate `zigzag::api`
//! deployment actually serves (every pair is asserted answer-equal
//! before anything is timed):
//!
//! * `serve/wire-loop/w` — the sharded wire loop of
//!   [`zigzag_api::serve::serve`]: a fixed batch of 128 frames (256
//!   queries as two-query `QueryBatch`es) over 8 batch sessions on an
//!   8-shard service, decoded, dispatched and re-encoded end to end at
//!   `w` workers. Single-CPU CI measures the fan-out at parity (the
//!   byte-identity across worker counts is the gated claim; wall-clock
//!   scaling needs a multi-core host), and ns/iter ÷ 256 is the
//!   per-query wire cost either way.
//! * `serve/coord-warm/h` vs `serve/coord-rebuild/h` — online
//!   `ExcludeOwnSends` coordination on a feedback topology (B has
//!   outgoing channels, including a B ⇄ D cycle) with recording horizon
//!   `h`: append every event of a recorded schedule and answer
//!   `CoordDecision` after each one. Warm = the serving path (a
//!   spec-configured stream session whose driver decides each new
//!   `B`-node once, on an own-sends-excluded view of the session's
//!   `GB(r)` that it then drops). Rebuild = the batch helper per
//!   poll (`first_knowledge`: one fresh own-sends-excluded `GE` per
//!   `B`-node, per append) — the only way to serve this online before
//!   decisions ran on the session graph. The gap widens with the length
//!   of `B`'s timeline; CI gates ≥ 5×.
//! * `serve/append-delta/n` vs `serve/append-rebuild/n` — the PR 3/4
//!   streaming delta loop, re-recorded through the (now sharded) facade
//!   for regression tracking against `BENCH_pr3.json`/`BENCH_pr4.json`;
//!   the ≥ 5× CI gate still applies.
//!
//! Run with `CRITERION_JSON=BENCH_pr5.json cargo bench --bench serve`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zigzag_api::{
    serve, CoordKind, ProbeSemantics, Query, Response, SessionConfig, TimedCoordination,
    ZigzagService,
};
use zigzag_bcm::scheduler::RandomScheduler;
use zigzag_bcm::stream::RunEvent;
use zigzag_bcm::{Network, NodeId, ProcessId, Run, RunCursor, StreamingRun, Time};
use zigzag_bench::{kicked_run, scaled_context};
use zigzag_coord::{first_knowledge, OptimalStrategy, Scenario};
use zigzag_core::bounds_graph::BoundsGraph;
use zigzag_core::knowledge::KnowledgeEngine;
use zigzag_core::GeneralNode;

/// The wire-loop workload: an 8-shard service, 8 batch sessions over one
/// recorded run, and 128 two-query `QueryBatch` frames round-robined
/// across the sessions.
fn wire_workload() -> (ZigzagService, Vec<String>) {
    let ctx = scaled_context(6, 0.3, 11);
    let run = kicked_run(&ctx, ProcessId::new(0), 1, 40, 5);
    let service = ZigzagService::sharded(8);
    let sessions: Vec<_> = (0..8)
        .map(|_| service.open_batch(run.clone(), SessionConfig::new()))
        .collect();
    let nodes: Vec<NodeId> = run
        .nodes()
        .map(|r| r.id())
        .filter(|n| !n.is_initial())
        .collect();
    let anchor = nodes[0];
    let mut frames = Vec::new();
    for k in 0..128usize {
        let sigma = nodes[k % nodes.len()];
        let id = sessions[k % sessions.len()];
        frames.push(serve::encode_frame(
            id,
            &Query::QueryBatch(vec![
                Query::MaxX {
                    sigma,
                    theta1: GeneralNode::basic(anchor),
                    theta2: GeneralNode::basic(sigma),
                },
                Query::TightBound {
                    from: anchor,
                    to: sigma,
                },
            ]),
        ));
    }
    assert_eq!(frames.len(), 128, "CI derives queries/sec from 256 queries");
    (service, frames)
}

fn wire_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    let (service, frames) = wire_workload();
    // The tentpole contract, asserted before timing: any worker count
    // returns the serial loop's bytes.
    let reference = serve::serve(&service, &frames, 1);
    for workers in [2usize, 4, 8] {
        assert_eq!(
            serve::serve(&service, &frames, workers),
            reference,
            "sharded serving diverged at {workers} workers"
        );
    }
    assert!(reference.iter().all(|r| !serve::is_error_document(r)));
    for workers in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("wire-loop", workers), &workers, |b, &w| {
            b.iter(|| serve::serve(&service, &frames, w));
        });
    }
    group.finish();
}

/// The feedback-topology coordination workload: a recorded Protocol 2
/// run (B ⇄ D cycle keeps B's timeline long) plus the spec the serving
/// loop polls. The run is recorded at the feasible `x = 4`; the standing
/// poll asks for a separation no prefix of the horizon can certify
/// (`x = 2·horizon`) — the worst-case regime a standing poll lives in
/// while the precedence is not yet known, where per-poll cost is real:
/// `first_knowledge` scans `B`'s whole timeline on every poll until the
/// knowledge appears, so a server that rebuilds per node pays
/// quadratically in the timeline length while the warm path builds each
/// `B`-node's state once.
fn coord_workload(horizon: u64) -> (TimedCoordination, Run, Vec<RunEvent>) {
    let mut nb = Network::builder();
    let c = nb.add_process("C");
    let a = nb.add_process("A");
    let b = nb.add_process("B");
    let d = nb.add_process("D");
    nb.add_channel(c, a, 2, 5).unwrap();
    nb.add_channel(c, b, 9, 12).unwrap();
    nb.add_channel(c, d, 1, 2).unwrap();
    nb.add_channel(b, d, 1, 4).unwrap();
    nb.add_channel(d, b, 1, 3).unwrap();
    let ctx = nb.build().unwrap();
    let record_spec = TimedCoordination::new(CoordKind::Late { x: 4 }, a, b, c);
    let sc = Scenario::new(record_spec, ctx, Time::new(3), Time::new(horizon)).unwrap();
    let (run, _) = sc
        .run_verified(&mut OptimalStrategy, &mut RandomScheduler::seeded(7))
        .expect("legal scenario");
    let events = RunCursor::new(&run).collect_events();
    let poll_spec = TimedCoordination::new(
        CoordKind::Late {
            x: 2 * horizon as i64,
        },
        a,
        b,
        c,
    );
    (poll_spec, run, events)
}

/// Warm serving loop: append each event into a spec-configured
/// exclude-mode stream session and dispatch `CoordDecision` after every
/// append. Returns the verdict stream (for the equality assertion).
fn coord_warm(spec: &TimedCoordination, run: &Run, events: &[RunEvent]) -> Vec<Option<NodeId>> {
    let service = ZigzagService::new();
    let session = service.open_stream(
        run.context_arc(),
        run.horizon(),
        SessionConfig::new()
            .spec(spec.clone())
            .probe(ProbeSemantics::ExcludeOwnSends),
    );
    let mut verdicts = Vec::with_capacity(events.len());
    for ev in events {
        service.append(session, ev).expect("legal feed");
        let Response::CoordDecision(report) = service
            .dispatch(session, &Query::CoordDecision)
            .expect("spec configured")
        else {
            unreachable!("coordination queries return coordination reports");
        };
        verdicts.push(report.first_known);
    }
    verdicts
}

/// Per-node-rebuild baseline: grow the prefix and answer each poll with
/// the batch helper — a fresh own-sends-excluded `GE` per B-node, per
/// append.
fn coord_rebuild(spec: &TimedCoordination, run: &Run, events: &[RunEvent]) -> Vec<Option<NodeId>> {
    let mut stream = StreamingRun::new(run.context_arc(), run.horizon());
    let mut verdicts = Vec::with_capacity(events.len());
    for ev in events {
        stream.append(ev).expect("legal feed");
        let (first, _) = first_knowledge(spec, stream.run(), ProbeSemantics::ExcludeOwnSends)
            .expect("legal prefix");
        verdicts.push(first);
    }
    verdicts
}

fn coord_loops(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    for horizon in [60u64, 100] {
        let (spec, run, events) = coord_workload(horizon);
        let b_nodes = run
            .timeline(spec.b)
            .iter()
            .filter(|r| !r.id().is_initial())
            .count();
        assert!(b_nodes >= 4, "B timeline too short to exercise the cache");
        // The differential guarantee, checked before anything is timed.
        assert_eq!(
            coord_warm(&spec, &run, &events),
            coord_rebuild(&spec, &run, &events),
            "warm exclude-mode verdicts diverged from per-node rebuilds at h={horizon}"
        );
        group.bench_with_input(
            BenchmarkId::new("coord-warm", horizon),
            &events,
            |b, events| {
                b.iter(|| coord_warm(&spec, &run, events));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("coord-rebuild", horizon),
            &events,
            |b, events| {
                b.iter(|| coord_rebuild(&spec, &run, events));
            },
        );
    }
    group.finish();
}

/// One streaming delta-loop workload (the PR 3/4 shape): the recorded
/// feed, a standing observer a quarter of the way in, and the anchor
/// every query mentions.
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

fn delta_loops(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    for (n, horizon) in [(6usize, 40u64), (12, 30)] {
        let f = feed(n, horizon);
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

criterion_group!(benches, wire_loop, coord_loops, delta_loops);
criterion_main!(benches);
