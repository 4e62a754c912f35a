//! Graphviz (DOT) exports for the analysis graphs.
//!
//! The bounds graphs are the paper's central technical device (Figures
//! 6–8 are drawings of them); these exporters reproduce those drawings
//! from live data:
//!
//! ```text
//! cargo run --example quickstart   # or any harness producing a Run
//! # then, in code:
//! println!("{}", zigzag_core::dot::bounds_graph_dot(&gb, &run));
//! # dot -Tsvg graph.dot > graph.svg
//! ```
//!
//! Edge styling follows the paper: solid `+L` send edges, dashed `−U`
//! reverse edges, dotted `+1` successor edges; auxiliary `ψ` vertices are
//! drawn as diamonds.

use std::fmt::Write as _;

use zigzag_bcm::{Network, Run};

use crate::bounds_graph::{BoundsGraph, LABEL_RECV, LABEL_SEND, LABEL_SUCCESSOR};
use crate::extended_graph::{ExtVertex, GeView, LABEL_AUX_CHAN, LABEL_BOUNDARY, LABEL_UNSEEN};

fn style(label: u32) -> &'static str {
    match label {
        LABEL_SUCCESSOR => "style=dotted color=gray40",
        LABEL_SEND => "style=solid color=black",
        LABEL_RECV => "style=dashed color=firebrick",
        LABEL_BOUNDARY => "style=dotted color=blue",
        LABEL_UNSEEN => "style=dashed color=blue",
        LABEL_AUX_CHAN => "style=dashed color=blue4",
        _ => "",
    }
}

/// Renders the communication network with its `[L, U]` channel bounds.
pub fn network_dot(net: &Network, bounds: &zigzag_bcm::Bounds) -> String {
    let mut out = String::from("digraph net {\n  rankdir=LR;\n  node [shape=circle];\n");
    for p in net.processes() {
        let _ = writeln!(out, "  p{} [label=\"{}\"];", p.index(), net.name(p));
    }
    for ch in net.channels() {
        let cb = bounds.get(*ch).expect("covered channels");
        let _ = writeln!(
            out,
            "  p{} -> p{} [label=\"[{},{}]\"];",
            ch.from.index(),
            ch.to.index(),
            cb.lower(),
            cb.upper()
        );
    }
    out.push_str("}\n");
    out
}

/// Renders `GB(r)` in the style of the paper's Figure 6/7: one horizontal
/// rank per process timeline, time flowing left to right.
pub fn bounds_graph_dot(gb: &BoundsGraph, run: &Run) -> String {
    let mut out = String::from("digraph gb {\n  rankdir=LR;\n  node [shape=box fontsize=10];\n");
    let g = gb.graph();
    for p in run.context().network().processes() {
        let _ = writeln!(out, "  subgraph cluster_p{} {{", p.index());
        let _ = writeln!(
            out,
            "    label=\"{}\"; color=gray80;",
            run.context().network().name(p)
        );
        for rec in run.timeline(p) {
            if g.contains(&rec.id()) {
                let _ = writeln!(
                    out,
                    "    n{}_{} [label=\"{}\\n t={}\"];",
                    p.index(),
                    rec.id().index(),
                    rec.id(),
                    rec.time()
                );
            }
        }
        out.push_str("  }\n");
    }
    for vi in 0..g.vertex_count() {
        for e in g.edges_from(vi) {
            let from = g.vertex(e.from);
            let to = g.vertex(e.to);
            let _ = writeln!(
                out,
                "  n{}_{} -> n{}_{} [label=\"{}\" {}];",
                from.proc().index(),
                from.index(),
                to.proc().index(),
                to.index(),
                e.weight,
                style(e.label)
            );
        }
    }
    out.push_str("}\n");
    out
}

/// Renders `GE(r, σ)` in the style of the paper's Figure 8, with the
/// auxiliary `ψ` vertices as diamonds on the right.
pub fn extended_graph_dot(ge: GeView<'_>, run: &Run) -> String {
    let mut out = String::from("digraph ge {\n  rankdir=LR;\n  node [shape=box fontsize=10];\n");
    let name_of = |v: ExtVertex| match v {
        ExtVertex::Node(n) => format!("n{}_{}", n.proc().index(), n.index()),
        ExtVertex::Aux(p) => format!("psi{}", p.index()),
    };
    for vi in 0..ge.vertex_count() {
        let v = ge.vertex(vi);
        match v {
            ExtVertex::Node(n) => {
                let marker = if n == ge.observer() { " (σ)" } else { "" };
                let _ = writeln!(out, "  {} [label=\"{}{}\"];", name_of(v), n, marker);
            }
            ExtVertex::Aux(p) => {
                let _ = writeln!(
                    out,
                    "  {} [shape=diamond color=blue label=\"ψ({})\"];",
                    name_of(v),
                    run.context().network().name(p)
                );
            }
        }
    }
    for e in ge.edges() {
        let _ = writeln!(
            out,
            "  {} -> {} [label=\"{}\" {}];",
            name_of(ge.vertex(e.from)),
            name_of(ge.vertex(e.to)),
            e.weight,
            style(e.label)
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::KnowledgeEngine;
    use zigzag_bcm::protocols::Ffip;
    use zigzag_bcm::scheduler::EagerScheduler;
    use zigzag_bcm::{NodeId, ProcessId, SimConfig, Simulator, Time};

    fn run() -> Run {
        let mut b = zigzag_bcm::Network::builder();
        let i = b.add_process("i");
        let j = b.add_process("j");
        b.add_bidirectional(i, j, 2, 5).unwrap();
        let ctx = b.build().unwrap();
        let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(15)));
        sim.external(Time::new(1), i, "kick");
        sim.run(&mut Ffip::new(), &mut EagerScheduler).unwrap()
    }

    #[test]
    fn network_dot_lists_channels_with_bounds() {
        let r = run();
        let dot = network_dot(r.context().network(), r.context().bounds());
        assert!(dot.starts_with("digraph net {"));
        assert!(dot.contains("p0 -> p1 [label=\"[2,5]\"]"));
        assert!(dot.contains("p1 -> p0 [label=\"[2,5]\"]"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn gb_dot_has_all_three_edge_styles() {
        let r = run();
        let gb = BoundsGraph::of_run(&r);
        let dot = bounds_graph_dot(&gb, &r);
        assert!(dot.contains("style=dotted")); // successor
        assert!(dot.contains("style=solid")); // +L
        assert!(dot.contains("style=dashed")); // −U
        assert!(dot.contains("cluster_p0"));
        assert!(dot.matches(" -> ").count() >= gb.edge_count());
    }

    #[test]
    fn ge_dot_marks_observer_and_auxes() {
        let r = run();
        let sigma = NodeId::new(ProcessId::new(1), 1);
        let engine = KnowledgeEngine::new(&r, sigma).unwrap();
        let dot = extended_graph_dot(engine.ge(), &r);
        assert!(dot.contains("(σ)"));
        assert!(dot.contains("shape=diamond"));
        assert!(dot.contains("ψ(i)") && dot.contains("ψ(j)"));
    }
}
