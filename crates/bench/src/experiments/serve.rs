//! V (PR 5): the sharded serving layer — wire dispatch over worker
//! fleets and warm exclude-mode coordination.
//!
//! Two claims, each checked per cell (the golden snapshot pins the
//! counts; the assertions give the binary teeth):
//!
//! * **V1 — sharded wire dispatch**: a fixed batch of
//!   [`zigzag_api::serve`] request frames over a session mix (batch +
//!   replayed-stream sessions on a sharded table, hostile frames
//!   included) returns byte-identical response documents at every worker
//!   count, equal to the serial decode → dispatch → encode loop;
//! * **V2 — warm exclude-mode coordination**: replaying Protocol 2
//!   schedules on a feedback topology (`B` has outgoing channels,
//!   including a `B ⇄ D` cycle) through a spec-configured
//!   `ExcludeOwnSends` stream session, every per-event `B` decision —
//!   made on an own-sends-excluded view of the session's `GB(r)` —
//!   equals a fresh per-prefix rebuild
//!   (`decide_at`: a new excluded `GE`), and the final
//!   `CoordDecision` equals the in-simulation protocol's action node;
//! * **V3 — serving observability (PR 7)**: after a warm frame mix, a
//!   wire-encoded `stats` frame reports exactly the dispatch count the
//!   mix implies (hostile frames and the `stats` query itself do not
//!   count), a latency histogram with one sample per dispatch, and the
//!   observer-cache hit/miss/eviction counters — all deterministic
//!   because frames of one session are served in order by one worker.
//!
//! All report text is byte-deterministic in both profiles (counts and
//! times only — raw latency buckets never appear, and wall-clock
//! comparisons live in `benches/serve.rs` and `benches/net.rs`).

use zigzag_api::{
    serve, wire, ProbeSemantics, Query, Response, SessionConfig, SessionId, ZigzagService,
};
use zigzag_bcm::scheduler::RandomScheduler;
use zigzag_bcm::{Network, NodeId, ProcessId, RunCursor, Time};
use zigzag_coord::{
    decide_at, CoordKind, OptimalStrategy, Scenario, StreamDriver, TimedCoordination,
};
use zigzag_core::GeneralNode;

use super::Profile;
use crate::harness::{CellOutput, Experiment, Section};
use crate::{format_header, format_row, kicked_run, scaled_context};

const V1_WIDTHS: [usize; 6] = [3, 7, 9, 7, 8, 10];

/// One V1 row: serve a frame batch over a sharded session mix at worker
/// counts 1/2/8 and hold every output byte to the serial reference.
fn v1_row(n: usize, shards: usize, seed: u64, horizon: u64) -> CellOutput {
    let ctx = scaled_context(n, 0.3, seed);
    let run = kicked_run(&ctx, ProcessId::new(0), 1, horizon, seed);
    let service = ZigzagService::sharded(shards);
    let batch_a = service.open_batch(run.clone(), SessionConfig::new());
    let (stream, _) = service
        .open_replay(&run, SessionConfig::new())
        .expect("legal replay");
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
    }
    // Deterministic failures ride along: an unknown session and an
    // unparsable frame must produce identical error documents too.
    frames.push(serve::encode_frame(
        SessionId::from_raw(4_242),
        &Query::CoordDecision,
    ));
    frames.push("zigzag-frame v1\nsession ?\n".to_string());

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
        assert_eq!(
            serve::serve(&service, &frames, workers),
            reference,
            "n={n} shards={shards} seed {seed}: sharded serving diverged at {workers} workers"
        );
    }
    let errors = reference
        .iter()
        .filter(|r| serve::is_error_document(r))
        .count();
    assert_eq!(errors, 2, "exactly the two hostile frames fail");
    CellOutput::with_metrics(
        format_row(
            &V1_WIDTHS,
            &[
                n.to_string(),
                shards.to_string(),
                sessions.len().to_string(),
                frames.len().to_string(),
                errors.to_string(),
                "identical".into(),
            ],
        ),
        vec![frames.len() as i64],
    )
}

const V2_WIDTHS: [usize; 6] = [4, 6, 10, 10, 10, 7];

/// The feedback scenario: `B` has outgoing channels, including a
/// `B ⇄ D` cycle — the regime where exclude-mode differs from the full
/// `GE(r, σ)`.
fn feedback_scenario(x: i64, u_bd: u64, horizon: u64) -> Scenario {
    let mut nb = Network::builder();
    let c = nb.add_process("C");
    let a = nb.add_process("A");
    let b = nb.add_process("B");
    let d = nb.add_process("D");
    nb.add_channel(c, a, 2, 5).unwrap();
    nb.add_channel(c, b, 9, 12).unwrap();
    nb.add_channel(c, d, 1, 2).unwrap();
    nb.add_channel(b, d, 1, u_bd).unwrap();
    nb.add_channel(d, b, 1, 3).unwrap();
    let ctx = nb.build().unwrap();
    let spec = TimedCoordination::new(CoordKind::Late { x }, a, b, c);
    Scenario::new(spec, ctx, Time::new(3), Time::new(horizon)).unwrap()
}

/// One V2 row: warm exclude-mode decisions vs fresh per-prefix rebuilds,
/// plus the facade `CoordDecision` vs the in-simulation protocol.
fn v2_row(x: i64, u_bd: u64, seed: u64, horizon: u64) -> CellOutput {
    let sc = feedback_scenario(x, u_bd, horizon);
    let spec = sc.spec().clone();
    let (run, verdict) = sc
        .run_verified(&mut OptimalStrategy, &mut RandomScheduler::seeded(seed))
        .expect("legal scenario");

    // The serving path: a spec-configured exclude-mode stream session.
    let service = ZigzagService::new();
    let (session, _) = service
        .open_replay(
            &run,
            SessionConfig::new()
                .spec(spec.clone())
                .probe(ProbeSemantics::ExcludeOwnSends),
        )
        .expect("legal replay");
    let Response::CoordDecision(coord) = service
        .dispatch(session, &Query::CoordDecision)
        .expect("spec configured")
    else {
        unreachable!("coordination queries return coordination reports");
    };
    assert_eq!(
        coord.first_known, verdict.b_node,
        "x={x} seed {seed}: warm exclude-mode verdict diverged from the protocol"
    );

    // Every per-event warm decision equals a fresh rebuild on the prefix.
    let mut driver = StreamDriver::new(spec.clone(), run.context_arc(), run.horizon())
        .with_probe(ProbeSemantics::ExcludeOwnSends);
    let mut cursor = RunCursor::new(&run);
    let mut decisions = 0usize;
    while let Some(ev) = cursor.next_event() {
        let report = driver.step(&ev).expect("legal feed");
        let Some(knows) = report.b_knows else {
            continue;
        };
        let fresh = decide_at(
            &spec,
            driver.engine().run(),
            report.node,
            ProbeSemantics::ExcludeOwnSends,
        )
        .expect("legal prefix");
        assert_eq!(
            knows, fresh,
            "x={x} seed {seed}: warm decision diverged from the fresh rebuild at {}",
            report.node
        );
        decisions += 1;
    }
    assert_eq!(driver.first_known(), verdict.b_node);

    let show = |t: Option<Time>| t.map_or("abstains".to_string(), |t| t.to_string());
    CellOutput::with_metrics(
        format_row(
            &V2_WIDTHS,
            &[
                x.to_string(),
                format!("s{seed}"),
                show(coord.first_known.and_then(|n| run.time(n))),
                show(verdict.b_time),
                decisions.to_string(),
                "agree".into(),
            ],
        ),
        vec![decisions as i64],
    )
}

const V3_WIDTHS: [usize; 7] = [3, 7, 8, 6, 7, 6, 8];

/// One V3 row: serve a warm frame mix at `workers`, then read the
/// serving counters back through a wire-encoded `stats` frame and hold
/// them to the arithmetic the mix implies.
fn v3_row(n: usize, seed: u64, horizon: u64, workers: usize) -> CellOutput {
    let ctx = scaled_context(n, 0.3, seed);
    let run = kicked_run(&ctx, ProcessId::new(0), 1, horizon, seed);
    let service = ZigzagService::sharded(4);
    let batch = service.open_batch(run.clone(), SessionConfig::new());
    let (stream, _) = service
        .open_replay(&run, SessionConfig::new())
        .expect("legal replay");
    let sessions = [batch, stream];

    let nodes: Vec<NodeId> = run
        .nodes()
        .map(|r| r.id())
        .filter(|k| !k.is_initial())
        .collect();
    let mut frames: Vec<String> = nodes
        .iter()
        .enumerate()
        .map(|(k, &sigma)| serve::encode_frame(sessions[k % 2], &Query::MaxXMatrix { sigma }))
        .collect();
    // One hostile frame: answered with an error document, and therefore
    // absent from the dispatch and latency counters.
    frames.push(serve::encode_frame(
        SessionId::from_raw(9_999),
        &Query::CoordDecision,
    ));
    // Two passes of the same mix: the first populates the observer
    // caches (all misses), the second is served from them (all hits).
    for pass in 0..2 {
        let answers = serve::serve(&service, &frames, workers);
        assert_eq!(
            answers
                .iter()
                .filter(|r| serve::is_error_document(r))
                .count(),
            1,
            "n={n} seed {seed} pass {pass}: exactly the hostile frame fails"
        );
    }

    // Observability is itself a wire query; it must not count itself.
    let stats_frame = serve::encode_frame(SessionId::from_raw(0), &Query::Stats);
    let doc = serve::serve(&service, &[stats_frame], workers);
    let report = match wire::decode_response(&doc[0]) {
        Ok(Response::Stats(report)) => report,
        other => panic!("n={n} seed {seed}: stats frame misanswered: {other:?}"),
    };
    let dispatched = 2 * (frames.len() - 1) as u64;
    assert_eq!(
        report.queries, dispatched,
        "n={n} seed {seed}: dispatch counter off"
    );
    assert_eq!(
        report.latency.count(),
        dispatched,
        "n={n} seed {seed}: one latency sample per dispatch"
    );
    assert!(
        report.observer_misses > 0,
        "n={n} seed {seed}: the first pass must populate the observer cache"
    );
    assert!(
        report.observer_hits > 0,
        "n={n} seed {seed}: the second pass must be served from the cache"
    );
    assert_eq!(
        report.sessions_per_shard.iter().sum::<u64>(),
        sessions.len() as u64,
        "n={n} seed {seed}: every open session is visible per shard"
    );
    assert!(
        report.queue_depths.is_empty(),
        "the in-process loop has no worker queues to report"
    );
    CellOutput::with_metrics(
        format_row(
            &V3_WIDTHS,
            &[
                n.to_string(),
                frames.len().to_string(),
                report.queries.to_string(),
                report.observer_hits.to_string(),
                report.observer_misses.to_string(),
                report.observer_evictions.to_string(),
                "counted".into(),
            ],
        ),
        vec![report.queries as i64],
    )
}

/// Builds the serving experiment family.
pub fn experiment(p: Profile) -> Experiment {
    let v1_cases: Vec<(usize, usize, u64, u64)> = p.pick(
        vec![
            (4, 1, 0, 24),
            (4, 3, 1, 24),
            (6, 8, 0, 26),
            (6, 16, 2, 26),
            (9, 4, 1, 22),
        ],
        vec![(4, 1, 0, 16), (5, 4, 1, 14)],
    );
    let mut v1 = Section::new(format!(
        "V — the sharded serving layer\n\n\
         V1 — wire dispatch over worker fleets (responses at workers 1/2/8 vs serial):\n{}",
        format_header(
            &V1_WIDTHS,
            &["n", "shards", "sessions", "frames", "errors", "verdict"]
        ),
    ));
    for (n, shards, seed, horizon) in v1_cases {
        v1 = v1.cell(move || v1_row(n, shards, seed, horizon));
    }
    let v1 = v1.footer(|cells| {
        let frames: i64 = cells.iter().map(|c| c.metrics[0]).sum();
        format!("all {frames} frames byte-identical at every worker count\n\n")
    });

    let v2_cases: Vec<(i64, u64, u64, u64)> = p.pick(
        vec![
            (4, 4, 0, 60),
            (4, 4, 1, 60),
            (4, 9, 2, 60),
            (5, 4, 0, 60),
            (0, 2, 3, 45),
        ],
        vec![(4, 4, 0, 40), (5, 4, 1, 40)],
    );
    let mut v2 = Section::new(format!(
        "V2 — warm exclude-mode coordination (decisions on session views vs fresh rebuilds):\n{}",
        format_header(
            &V2_WIDTHS,
            &["x", "seed", "t(warm)", "t(sim)", "decisions", "verdict"]
        ),
    ));
    for (x, u_bd, seed, horizon) in v2_cases {
        v2 = v2.cell(move || v2_row(x, u_bd, seed, horizon));
    }
    let v2 = v2.footer(|cells| {
        let decisions: i64 = cells.iter().map(|c| c.metrics[0]).sum();
        format!("all {decisions} B-node decisions on session views equal their fresh rebuilds\n\n")
    });

    let v3_cases: Vec<(usize, u64, u64, usize)> = p.pick(
        vec![(4, 0, 24, 1), (6, 1, 26, 2), (9, 2, 22, 8)],
        vec![(4, 0, 16, 2)],
    );
    let mut v3 = Section::new(format!(
        "V3 — serving observability (a wire `stats` frame after a warm mix):\n{}",
        format_header(
            &V3_WIDTHS,
            &["n", "frames", "queries", "hits", "misses", "evict", "verdict"]
        ),
    ));
    for (n, seed, horizon, workers) in v3_cases {
        v3 = v3.cell(move || v3_row(n, seed, horizon, workers));
    }
    let v3 = v3.footer(|cells| {
        let queries: i64 = cells.iter().map(|c| c.metrics[0]).sum();
        format!(
            "all {queries} dispatches counted, one latency sample each\n\n\
             Sessions hash to shards, workers own shards, and the warm\n\
             GB(r) of a session backs each online Protocol 2 decision's view;\n\
             every byte equals the single-threaded, rebuild-everything baseline,\n\
             and the serving counters reconcile with the frames served.\n"
        )
    });

    Experiment::new("serve").section(v1).section(v2).section(v3)
}
