//! E7 (Figure 8 / §5.1): the extended bounds graph captures knowledge the
//! local graph misses. For random observers, counts the node pairs whose
//! best precedence certificate in `GE(r, σ)` strictly beats the best path
//! in the induced local graph `GB(r, σ)` — i.e. knowledge derived from
//! *unseen deliveries* and frontier reasoning.

use zigzag_bcm::{NodeId, ProcessId};
use zigzag_core::bounds_graph::BoundsGraph;
use zigzag_core::extended_graph::ExtVertex;
use zigzag_core::knowledge::KnowledgeEngine;

use super::Profile;
use crate::harness::{CellOutput, Experiment, Section};
use crate::{format_header, format_row, kicked_run, scaled_context};

const WIDTHS: [usize; 5] = [6, 9, 11, 12, 12];

/// Builds the E7 family: one cell per network size.
pub fn experiment(p: Profile) -> Experiment {
    let seeds = p.pick(10u64, 5);
    let ns: Vec<usize> = p.pick(vec![3, 5, 8], vec![3, 5]);
    let mut section = Section::new(format!(
        "E7 / Figure 8 — GE(r, σ) vs the induced local graph GB(r, σ)\n\n{}",
        format_header(
            &WIDTHS,
            &["procs", "pairs", "GB == GE", "GE strictly+", "GE-only"],
        ),
    ));
    for n in ns {
        section = section.cell(move || {
            let mut equal = 0u64;
            let mut stronger = 0u64;
            let mut ge_only = 0u64;
            let mut pairs = 0u64;
            for seed in 0..seeds {
                let ctx = scaled_context(n, 0.4, seed + 500);
                let run = kicked_run(&ctx, ProcessId::new(0), 2, 40, seed);
                // Observers at several depths: early observers have small
                // pasts and many in-flight messages — where GE shines.
                let mut by_time: Vec<NodeId> = run
                    .nodes()
                    .map(|r| r.id())
                    .filter(|k| !k.is_initial())
                    .collect();
                by_time.sort_by_key(|k| run.time(*k));
                let picks: Vec<NodeId> = [1, 2, 4]
                    .iter()
                    .filter_map(|&q| by_time.get(by_time.len() * q / 8).copied())
                    .collect();
                for sigma in picks {
                    let past = run.past(sigma);
                    let local = BoundsGraph::local(&run, &past);
                    let engine = KnowledgeEngine::new(&run, sigma).unwrap();
                    let ge = engine.ge();
                    let nodes: Vec<NodeId> =
                        past.iter().filter(|k| !k.is_initial()).take(8).collect();
                    for &x in &nodes {
                        let lp_local = local.longest_from(x).unwrap();
                        let lp_ge = ge.distances_from(ExtVertex::Node(x)).unwrap();
                        for &y in &nodes {
                            if x == y {
                                continue;
                            }
                            pairs += 1;
                            let wl = local.graph().index_of(&y).and_then(|i| lp_local.weight(i));
                            let wg = ge
                                .index_of(ExtVertex::Node(y))
                                .and_then(|i| lp_ge.weight(i));
                            match (wl, wg) {
                                (Some(l), Some(g)) if g > l => stronger += 1,
                                (Some(l), Some(g)) => {
                                    assert!(g == l, "GE weaker than its subgraph?!");
                                    equal += 1;
                                }
                                (None, Some(_)) => ge_only += 1,
                                (Some(_), None) => panic!("GE lost a local path"),
                                (None, None) => {}
                            }
                        }
                    }
                }
            }
            assert!(
                stronger + ge_only > 0,
                "the extension never mattered at n={n} — suspicious"
            );
            CellOutput::text(format_row(
                &WIDTHS,
                &[
                    n.to_string(),
                    pairs.to_string(),
                    equal.to_string(),
                    stronger.to_string(),
                    ge_only.to_string(),
                ],
            ))
        });
    }
    Experiment::new("fig8_extended").section(section.footer(|_| {
        "\nSeries shape: GE never loses information (no 'GB-only' column can\n\
         exist) and regularly adds strictly stronger certificates — the\n\
         §5.1 '1 − U_ij from an unseen delivery' effect at scale.\n"
            .into()
    }))
}
