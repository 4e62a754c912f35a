//! Regenerate the paper's Figure 6–8 drawings from a live run.
//!
//! Writes Graphviz DOT files for the Figure 2b network, its basic bounds
//! graph `GB(r)` and the extended graph `GE(r, σ)` at `B`'s decision node,
//! plus the ASCII space–time diagram.
//!
//! ```text
//! cargo run --example visualize
//! dot -Tsvg target/figures/ge.dot -o ge.svg   # if graphviz is installed
//! ```

use std::fs;
use std::path::Path;

use zigzag::api::{Query, Response, SessionConfig, ZigzagService};
use zigzag::bcm::protocols::Ffip;
use zigzag::bcm::scheduler::RandomScheduler;
use zigzag::bcm::{diagram, Network, SimConfig, Simulator, Time};
use zigzag::core::bounds_graph::BoundsGraph;
use zigzag::core::dot;
use zigzag::core::KnowledgeEngine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Figure 2b network.
    let mut nb = Network::builder();
    let a = nb.add_process("A");
    let b = nb.add_process("B");
    let c = nb.add_process("C");
    let d = nb.add_process("D");
    let e = nb.add_process("E");
    nb.add_channel(c, a, 1, 3)?;
    nb.add_channel(c, d, 6, 8)?;
    nb.add_channel(e, d, 1, 2)?;
    nb.add_channel(e, b, 4, 7)?;
    nb.add_channel(d, b, 1, 5)?;
    let ctx = nb.build()?;

    let mut sim = Simulator::new(ctx.clone(), SimConfig::with_horizon(Time::new(45)));
    sim.external(Time::new(2), c, "go_c");
    sim.external(Time::new(18), e, "go_e");
    let run = sim.run(&mut Ffip::new(), &mut RandomScheduler::seeded(11))?;

    println!("── space–time diagram (Figure 2b) ─────────────────────────");
    println!("{}", diagram::render(&run));

    let out_dir = Path::new("target/figures");
    fs::create_dir_all(out_dir)?;

    let net_dot = dot::network_dot(ctx.network(), ctx.bounds());
    fs::write(out_dir.join("network.dot"), &net_dot)?;

    let gb = BoundsGraph::of_run(&run);
    let gb_dot = dot::bounds_graph_dot(&gb, &run);
    fs::write(out_dir.join("gb.dot"), &gb_dot)?;

    // σ = B's last recorded node (where the protocol would decide).
    let sigma = run.timeline(b).last().unwrap().id();
    // A standalone engine's view of GE(r, σ).
    let engine = KnowledgeEngine::new(&run, sigma)?;
    let ge = engine.ge();
    let ge_dot = dot::extended_graph_dot(ge, &run);
    fs::write(out_dir.join("ge.dot"), &ge_dot)?;

    println!("wrote target/figures/{{network,gb,ge}}.dot");
    println!(
        "GB(r): {} vertices, {} edges · GE(r, {sigma}): {} vertices, {} edges",
        gb.node_count(),
        gb.edge_count(),
        ge.vertex_count(),
        ge.edges().len(),
    );
    println!("render with: dot -Tsvg target/figures/ge.dot -o ge.svg");

    // The same GE powers the service facade's knowledge answers: the
    // all-pairs threshold matrix at σ summarizes what B knows here.
    let service = ZigzagService::new();
    let session = service.open_batch(run.clone(), SessionConfig::new());
    let Response::MaxXMatrix(matrix) = service.dispatch(session, &Query::MaxXMatrix { sigma })?
    else {
        unreachable!()
    };
    let known = matrix.iter().filter(|(_, _, v)| v.is_some()).count();
    println!(
        "knowledge at {sigma}: {}×{} threshold matrix, {known} reachable pairs",
        matrix.len(),
        matrix.len(),
    );
    Ok(())
}
