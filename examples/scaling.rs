//! Scaling the streaming facade: a 256-process feedback ring served
//! append-by-append.
//!
//! The layout of the Dijkstra hot core (sentinel-coded distance lanes,
//! a recycled radix-heap arena, u32 interior ids, catch-ups seeded at
//! the appended edges over live rows) is aimed at runs
//! whose graphs grow to hundreds of processes while appends stay
//! µs-scale. This example makes that visible from the public entry
//! point: a bidirectional ring of n = 256 processes — every process
//! sits on feedback cycles in both directions — is simulated once, then
//! replayed through a `ZigzagService` stream session. Every appended
//! event is followed by a `TightBound` query at the brand-new node, so
//! each answer catches the memoized longest-path state up over just the
//! appended edges, settling only the vertices they raise, instead of
//! traversing the whole `GB(r)` again.
//! A final `MaxX` query at the deepest observer exercises the `GE(r, σ)`
//! construction and the knowledge walk on the grown prefix.
//!
//! ```text
//! cargo run --release --example scaling
//! ```

use std::sync::Arc;
use std::time::Instant;

use zigzag::api::{Query, Response, SessionConfig, ZigzagService};
use zigzag::bcm::protocols::Ffip;
use zigzag::bcm::scheduler::RandomScheduler;
use zigzag::bcm::{topology, NodeId, ProcessId, RunCursor, SimConfig, Simulator, Time};
use zigzag::core::GeneralNode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 256usize;
    let ctx = Arc::new(topology::ring(n, 1, 3)?);
    let mut sim = Simulator::new(Arc::clone(&ctx), SimConfig::with_horizon(Time::new(40)));
    sim.external(Time::new(1), ProcessId::new(0), "kick");
    let run = sim.run(&mut Ffip::new(), &mut RandomScheduler::seeded(7))?;
    println!(
        "feedback ring n={n}: {} nodes, {} messages over horizon {}",
        run.node_count(),
        run.messages().len(),
        run.horizon()
    );

    // Replay the whole schedule through the facade: one stream session,
    // one TightBound query per appended event, answered at the node the
    // append just created.
    let service = ZigzagService::new();
    let session = service.open_stream(run.context_arc(), run.horizon(), SessionConfig::new());
    let anchor = NodeId::initial(ProcessId::new(0));
    let events: Vec<_> = RunCursor::new(&run).collect();

    let started = Instant::now();
    let mut bounded = 0usize;
    let mut first = None;
    let mut sigma = None;
    for ev in &events {
        let report = service.append(session, ev)?;
        first.get_or_insert(report.node);
        let Response::TightBound(b) = service.dispatch(
            session,
            &Query::TightBound {
                from: anchor,
                to: report.node,
            },
        )?
        else {
            unreachable!("TightBound queries return TightBound responses");
        };
        if b.is_some() {
            bounded += 1;
        }
        sigma = Some(report.node);
    }
    let elapsed = started.elapsed();
    println!(
        "appended {} events, each followed by a TightBound query \
         ({bounded} causally bounded) in {:.1} ms — {:.1} µs per append+query",
        events.len(),
        elapsed.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e6 / events.len() as f64
    );

    // One knowledge query at the deepest observer: builds GE(r, σ) over
    // the grown prefix and walks it for the exact threshold, from the
    // kick node (the first appended event) to the observer itself.
    let sigma = sigma.expect("the kicked ring produces events");
    let kick = first.expect("the kicked ring produces events");
    let started = Instant::now();
    let Response::MaxX(x) = service.dispatch(
        session,
        &Query::MaxX {
            sigma,
            theta1: GeneralNode::basic(kick),
            theta2: GeneralNode::basic(sigma),
        },
    )?
    else {
        unreachable!("MaxX queries return MaxX responses");
    };
    println!(
        "max_x({kick} -> {sigma}) = {x:?} at observer {sigma} ({:.1} ms cold)",
        started.elapsed().as_secs_f64() * 1e3
    );
    Ok(())
}
