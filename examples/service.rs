//! The service facade end to end: batch and streaming sessions side by
//! side, cache policies, coordination decisions, and the wire encoding.
//!
//! One `ZigzagService` serves the same Figure 1 knowledge workload two
//! ways — a batch session over the complete recorded run, and a stream
//! session fed the identical schedule one event at a time (with an LRU
//! bound on the observer states its queries build). Every answer agrees
//! byte-for-byte; the streaming session additionally reports the
//! Protocol 2 coordination verdict after every event, deciding on views
//! of its graph that it does not keep.
//!
//! ```text
//! cargo run --example service
//! ```

use zigzag::api::{
    wire, CachePolicy, CoordKind, Query, Response, SessionConfig, TimedCoordination, ZigzagService,
};
use zigzag::bcm::protocols::Ffip;
use zigzag::bcm::scheduler::RandomScheduler;
use zigzag::bcm::{Network, RunCursor, SimConfig, Simulator, Time};
use zigzag::core::GeneralNode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Figure 1: C → A [2,5], C → B [9,12].
    let mut nb = Network::builder();
    let c = nb.add_process("C");
    let a = nb.add_process("A");
    let b = nb.add_process("B");
    nb.add_channel(c, a, 2, 5)?;
    nb.add_channel(c, b, 9, 12)?;
    let ctx = nb.build()?;

    let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(60)));
    sim.external(Time::new(3), c, "go");
    let run = sim.run(&mut Ffip::new(), &mut RandomScheduler::seeded(5))?;

    let service = ZigzagService::new();
    let spec = TimedCoordination::new(CoordKind::Late { x: 4 }, a, b, c);

    // ── Batch session: the complete recorded run ───────────────────────
    let batch = service.open_batch(run.clone(), SessionConfig::new().spec(spec.clone()));

    // ── Stream session: same schedule, event by event, bounded cache ───
    let config = SessionConfig::new()
        .spec(spec)
        .cache(CachePolicy::unbounded().max_observers(4));
    let stream = service.open_stream(run.context_arc(), run.horizon(), config);

    let sigma_c = run.external_receipt_node(c, "go").expect("go arrived");
    let theta_a = GeneralNode::chain(sigma_c, &[a])?;
    let theta_b = GeneralNode::chain(sigma_c, &[b])?;
    let sigma_b = theta_b.resolve(&run)?;
    let threshold = Query::MaxX {
        sigma: sigma_b,
        theta1: theta_a,
        theta2: theta_b,
    };

    println!("── streaming the schedule through the service ─────────────");
    let mut cursor = RunCursor::new(&run);
    let mut served = 0usize;
    while let Some(ev) = cursor.next_event() {
        let report = service.append(stream, &ev)?;
        if let Some(knows) = report.b_knows {
            println!(
                "t={:>3}  B node {}: {}",
                report.time.ticks(),
                report.node,
                if knows { "knows — acts" } else { "abstains" }
            );
        }
        // Once B's decision node exists, the standing threshold query is
        // answerable — and identical on both sessions at every prefix.
        if service.with_run(stream, |r| r.appears(sigma_b))? {
            let online = service.dispatch(stream, &threshold)?;
            served += 1;
            assert!(service.observer_count(stream)? <= 4, "LRU bound violated");
            if cursor.remaining() == 0 {
                let offline = service.dispatch(batch, &threshold)?;
                assert_eq!(online, offline, "sessions diverged");
                println!("threshold answered identically by both sessions: {online:?}");
            }
        }
    }
    println!("served {served} streaming threshold queries\n");

    // ── Coordination verdicts agree across session shapes ──────────────
    let on = service.dispatch(stream, &Query::CoordDecision)?;
    let off = service.dispatch(batch, &Query::CoordDecision)?;
    assert_eq!(on, off);
    let Response::CoordDecision(report) = on else {
        unreachable!()
    };
    println!(
        "Protocol 2 verdict (both sessions): first_known = {:?}",
        report.first_known
    );

    // ── The wire encoding round-trips queries and responses ────────────
    let text = wire::encode_query(&threshold);
    println!("── wire form of the threshold query ───────────────────────");
    print!("{text}");
    let decoded = wire::decode_query(&text)?;
    assert_eq!(decoded, threshold);
    let response = service.dispatch(batch, &decoded)?;
    let rtext = wire::encode_response(&response);
    assert_eq!(wire::decode_response(&rtext)?, response);
    println!("decoded and dispatched: {response:?}");

    service.close(stream)?;
    service.close(batch)?;
    assert_eq!(service.session_count(), 0);
    Ok(())
}
