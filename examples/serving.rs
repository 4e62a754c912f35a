//! High-throughput serving: the sharded wire loop and exclude-mode
//! coordination.
//!
//! A `ZigzagService` with a sharded session table serves a batch of
//! wire-encoded request frames through `zigzag::api::serve` — first on
//! one worker, then on four, with byte-identical responses (sessions
//! hash to shards, each worker owns its shards, answers come back in
//! per-session arrival order). A second part streams a feedback-topology
//! schedule into a spec-configured `ExcludeOwnSends` session: each
//! Protocol 2 decision runs on an own-sends-excluded view of the
//! session's `GB(r)`, built for that decision and dropped after it
//! instead of rebuilding an excluded `GE(r, σ)` from the run, so the
//! session's observer cache stays empty.
//!
//! ```text
//! cargo run --example serving
//! ```

use zigzag::api::{
    serve, CoordKind, ProbeSemantics, Query, Response, SessionConfig, TimedCoordination,
    ZigzagService,
};
use zigzag::bcm::protocols::Ffip;
use zigzag::bcm::scheduler::RandomScheduler;
use zigzag::bcm::{Network, RunCursor, SimConfig, Simulator, Time};
use zigzag::core::GeneralNode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A feedback topology: C fans out to A, B, D; B ⇄ D cycle, so B has
    // outgoing channels — the regime where exclude-mode probing differs
    // from the paper's full GE(r, σ).
    let mut nb = Network::builder();
    let c = nb.add_process("C");
    let a = nb.add_process("A");
    let b = nb.add_process("B");
    let d = nb.add_process("D");
    nb.add_channel(c, a, 2, 5)?;
    nb.add_channel(c, b, 9, 12)?;
    nb.add_channel(c, d, 1, 2)?;
    nb.add_channel(b, d, 1, 4)?;
    nb.add_channel(d, b, 1, 3)?;
    let ctx = nb.build()?;

    let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(50)));
    sim.external(Time::new(3), c, "go");
    let run = sim.run(&mut Ffip::new(), &mut RandomScheduler::seeded(9))?;

    // ── Part 1: the sharded wire loop ──────────────────────────────────
    let service = ZigzagService::sharded(8);
    println!(
        "── sharded wire dispatch ({} shards) ──────────────────────",
        service.shard_count()
    );

    let sessions: Vec<_> = (0..4)
        .map(|_| service.open_batch(run.clone(), SessionConfig::new()))
        .collect();
    let nodes: Vec<_> = run
        .nodes()
        .map(|r| r.id())
        .filter(|n| !n.is_initial())
        .collect();
    let mut frames = Vec::new();
    for (k, &sigma) in nodes.iter().enumerate() {
        let id = sessions[k % sessions.len()];
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
    let serial = serve::serve(&service, &frames, 1);
    let fleet = serve::serve(&service, &frames, 4);
    assert_eq!(serial, fleet, "worker fleets must not change a byte");
    println!(
        "{} frames × {} sessions: 1-worker and 4-worker responses identical",
        frames.len(),
        sessions.len()
    );
    println!(
        "first frame answers:\n{}",
        serial[0].lines().take(2).collect::<Vec<_>>().join("\n")
    );

    // ── Part 2: exclude-mode coordination ──────────────────────────────
    println!("\n── exclude-mode coordination (probe view, B ⇄ D) ──────────");
    let spec = TimedCoordination::new(CoordKind::Late { x: 4 }, a, b, c);
    let session = service.open_stream(
        run.context_arc(),
        run.horizon(),
        SessionConfig::new()
            .spec(spec)
            .probe(ProbeSemantics::ExcludeOwnSends),
    );
    let mut cursor = RunCursor::new(&run);
    let mut decisions = 0usize;
    while let Some(ev) = cursor.next_event() {
        let report = service.append(session, &ev)?;
        if let Some(knows) = report.b_knows {
            decisions += 1;
            if knows && decisions > 0 {
                println!(
                    "B can act at {} (t={}): decided on an exclude-mode view of GB(r)",
                    report.node, report.time
                );
                break;
            }
        }
    }
    let Response::CoordDecision(coord) = service.dispatch(session, &Query::CoordDecision)? else {
        unreachable!("coordination queries return coordination reports");
    };
    println!(
        "{} B-node decisions before it fired; verdict node: {}",
        decisions,
        coord
            .first_known
            .map_or("(abstains)".to_string(), |n| n.to_string()),
    );
    let kept = service.observer_count(session)?;
    assert_eq!(kept, 0, "decisions keep no observer state");
    println!("observer states the decisions left in the session cache: {kept}");
    Ok(())
}
