//! Mechanical verification of the paper's theorems on randomized
//! workloads: Theorem 1 (zigzag sufficiency), Theorem 2 (zigzag necessity
//! via slow-run tightness and Lemma 5 extraction) and Theorem 4 (knowledge
//! ⇔ σ-visible zigzag, via witnesses and refutation runs).

mod common;

use common::workloads;
use proptest::prelude::*;
use zigzag::bcm::validate::{validate_run, Strictness};
use zigzag::bcm::{NodeId, Receipt, Run};
use zigzag::core::bounds_graph::BoundsGraph;
use zigzag::core::construct::{slow_run, FrontierGraph};
use zigzag::core::extract::{zigzag_for_pair, zigzag_from_gb_path};
use zigzag::core::knowledge::KnowledgeEngine;
use zigzag::core::precedence::satisfies;
use zigzag::core::CoreError;
use zigzag::core::GeneralNode;

/// What `node` sees in `run`: its causal past's boundary on each process,
/// and its receipts — each message by sender node and channel, each
/// external by name — as a sorted multiset. A run is indistinguishable
/// from another at σ when every node of σ's past sees the same in both.
fn local_view(run: &Run, node: NodeId) -> (Vec<Option<NodeId>>, Vec<String>) {
    let past = run.past(node);
    let net = run.context().network();
    let boundaries = net.processes().map(|p| past.boundary(p)).collect();
    let rec = run.node(node).expect("the node appears");
    let mut receipts: Vec<String> = rec
        .receipts()
        .iter()
        .map(|r| match *r {
            Receipt::Internal(m) => {
                let m = run.message(m);
                format!("message from {} on {}", m.src(), m.channel())
            }
            Receipt::External(e) => format!("external {}", run.external(e).name()),
        })
        .collect();
    receipts.sort_unstable();
    (boundaries, receipts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 1: every GB path sums to its weight, the zigzag extracted
    /// from it validates at that weight, and the realized gap dominates
    /// the weight in the generating run.
    #[test]
    fn theorem1_zigzag_sufficiency(w in workloads()) {
        let run = w.run();
        validate_run(&run, Strictness::Strict).unwrap();
        let gb = BoundsGraph::of_run(&run);
        let nodes: Vec<NodeId> = run
            .nodes()
            .map(|r| r.id())
            .filter(|n| !n.is_initial())
            .collect();
        for &a in nodes.iter().take(6) {
            for &b in nodes.iter().take(6) {
                let Some((weight, edges)) = gb.longest_path(a, b).unwrap() else { continue };
                prop_assert_eq!(edges.iter().map(|e| e.weight).sum::<i64>(), weight);
                let z = zigzag_from_gb_path(&gb, a, &edges).unwrap();
                match z.validate(&run) {
                    Ok(report) => {
                        prop_assert_eq!(report.weight, weight);
                        prop_assert!(report.gap >= report.weight,
                            "Theorem 1 violated: gap {} < weight {}", report.gap, report.weight);
                    }
                    Err(CoreError::HorizonTooSmall { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                }
            }
        }
    }

    /// Theorem 2: the slow run of σ is a legal run in which every
    /// frontier-graph longest-path bound is achieved exactly; the
    /// extracted GB zigzag soundly lower-bounds it.
    #[test]
    fn theorem2_slow_run_tightness(w in workloads()) {
        let run = w.run();
        let sigma = run
            .nodes()
            .map(|r| r.id())
            .filter(|n| !n.is_initial())
            .last();
        let Some(sigma) = sigma else { return Ok(()) };
        let sr = slow_run(&run, sigma).unwrap();
        validate_run(&sr.run, Strictness::Strict).unwrap();
        let t_sigma = sr.run.time(sigma).unwrap();
        let fg = FrontierGraph::of_run(&run);
        for (&node, &t) in sr.timing.iter().take(10) {
            // Tight: gap equals the frontier longest-path weight.
            let gap = t_sigma.diff(t);
            prop_assert_eq!(gap, sr.d[&node]);
            let tb = fg.tight_bound(node, sigma).unwrap().unwrap();
            prop_assert_eq!(tb, gap);
            // Lemma 5 witness from GB is sound (may be weaker than the
            // frontier bound at the horizon edge).
            if let Some((wz, z)) = zigzag_for_pair(&run, node, sigma).unwrap() {
                prop_assert!(wz <= gap);
                match z.validate(&run) {
                    Ok(report) => prop_assert_eq!(report.weight, wz),
                    Err(CoreError::HorizonTooSmall { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                }
            }
        }
    }

    /// Theorem 4, positive direction: max-x answers come with σ-visible
    /// zigzag witnesses of exactly that weight, valid in the run *and* in
    /// the extremal fast run.
    #[test]
    fn theorem4_witnesses(w in workloads()) {
        let run = w.run();
        let sigma = run
            .nodes()
            .map(|r| r.id())
            .filter(|n| !n.is_initial())
            .last();
        let Some(sigma) = sigma else { return Ok(()) };
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        let past = run.past(sigma);
        let nodes: Vec<NodeId> = past.iter().filter(|n| !n.is_initial()).collect();
        for &a in nodes.iter().take(5) {
            for &b in nodes.iter().take(5) {
                let (ta, tb) = (GeneralNode::basic(a), GeneralNode::basic(b));
                let Some((m, vz)) = engine.witness(&ta, &tb).unwrap() else { continue };
                prop_assert_eq!(Some(m), engine.max_x(&ta, &tb).unwrap());
                match vz.validate(&run) {
                    Ok(report) => {
                        prop_assert_eq!(report.weight, m);
                        prop_assert_eq!((report.from, report.to), (a, b));
                    }
                    Err(CoreError::HorizonTooSmall { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                }
            }
        }
    }

    /// Theorem 4, negative direction: any claim one past the threshold is
    /// refuted by a legal run indistinguishable at σ: every node of
    /// `past(r, σ)` appears in it and sees the same boundaries and
    /// receipts there as in the source.
    #[test]
    fn theorem4_refutations(w in workloads()) {
        let run = w.run();
        let sigma = run
            .nodes()
            .map(|r| r.id())
            .filter(|n| !n.is_initial())
            .last();
        let Some(sigma) = sigma else { return Ok(()) };
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        let past = run.past(sigma);
        let nodes: Vec<NodeId> = past.iter().filter(|n| !n.is_initial()).collect();
        for &a in nodes.iter().take(4) {
            for &b in nodes.iter().take(4) {
                let (ta, tb) = (GeneralNode::basic(a), GeneralNode::basic(b));
                let m = engine.max_x(&ta, &tb).unwrap();
                let x = m.map_or(-5, |m| m + 1);
                let fr = engine.refute(&ta, &tb, x).unwrap().expect("refutable");
                validate_run(&fr.run, Strictness::Strict).unwrap();
                // Indistinguishability at σ: the entire past is reproduced,
                // each node with what it saw.
                for n in past.iter() {
                    prop_assert!(fr.run.appears(n), "past node {} lost", n);
                    prop_assert_eq!(local_view(&fr.run, n), local_view(&run, n), "at {}", n);
                }
                prop_assert!(!satisfies(&fr.run, &ta, &tb, x).unwrap(),
                    "refutation run satisfies {} --{}--> {}", a, x, b);
                // At the threshold there is no refutation.
                if let Some(m) = m {
                    prop_assert!(engine.refute(&ta, &tb, m).unwrap().is_none());
                }
            }
        }
    }

    /// Theorem 4 with *general* nodes: queries whose chains leave the
    /// observer's past (exercising the ψ-clamped and chain-merged witness
    /// shapes). Witness weights still equal max-x, and witnesses still
    /// validate.
    #[test]
    fn theorem4_general_node_witnesses(w in workloads()) {
        let run = w.run();
        let sigma = run
            .nodes()
            .map(|r| r.id())
            .filter(|n| !n.is_initial())
            .last();
        let Some(sigma) = sigma else { return Ok(()) };
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        let past = run.past(sigma);
        let net = run.context().network().clone();
        let bases: Vec<NodeId> = past.iter().filter(|n| !n.is_initial()).collect();
        // All one-hop general nodes over past bases.
        let mut thetas: Vec<GeneralNode> = Vec::new();
        for &b in bases.iter().take(4) {
            thetas.push(GeneralNode::basic(b));
            for &j in net.out_neighbors(b.proc()) {
                thetas.push(GeneralNode::chain(b, &[j]).unwrap());
            }
        }
        let mut checked = 0u32;
        for t1 in thetas.iter().take(6) {
            for t2 in thetas.iter().take(6) {
                let Ok(m) = engine.max_x(t1, t2) else { continue };
                let Some(m) = m else { continue };
                let (mw, vz) = engine.witness(t1, t2).unwrap().expect("witness");
                prop_assert_eq!(mw, m);
                match vz.validate(&run) {
                    Ok(report) => {
                        prop_assert_eq!(report.weight, m,
                            "general witness weight off for {} -> {}", t1, t2);
                        checked += 1;
                    }
                    Err(CoreError::HorizonTooSmall { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                }
                // The fast run realizes the threshold for general nodes too.
                let fr = engine.fast_run_of(t1, 0, 40).unwrap();
                validate_run(&fr.run, Strictness::Strict).unwrap();
                let g1 = t1.time_in(&fr.run);
                let g2 = t2.time_in(&fr.run);
                if let (Ok(g1), Ok(g2)) = (g1, g2) {
                    prop_assert_eq!(g2.diff(g1), m,
                        "fast run gap off for {} -> {}", t1, t2);
                }
            }
        }
        let _ = checked;
    }

    /// Knowledge is monotone in the observer: as a process advances along
    /// its timeline (its past grows), its threshold for any fixed pair of
    /// recognized nodes never decreases — information is never lost.
    #[test]
    fn knowledge_monotonicity(w in workloads()) {
        let run = w.run();
        // Pick the process with the longest timeline and two successive
        // observers on it.
        let net = run.context().network().clone();
        let Some(p) = net
            .processes()
            .max_by_key(|&p| run.timeline(p).len())
        else { return Ok(()) };
        let tl = run.timeline(p);
        if tl.len() < 3 {
            return Ok(());
        }
        let sigma_early = tl[tl.len() - 2].id();
        let sigma_late = tl[tl.len() - 1].id();
        let e_early = KnowledgeEngine::new(&run, sigma_early).unwrap();
        let e_late = KnowledgeEngine::new(&run, sigma_late).unwrap();
        let past_early = run.past(sigma_early);
        let nodes: Vec<NodeId> = past_early.iter().filter(|n| !n.is_initial()).collect();
        for &a in nodes.iter().take(5) {
            for &b in nodes.iter().take(5) {
                let (ta, tb) = (GeneralNode::basic(a), GeneralNode::basic(b));
                let m1 = e_early.max_x(&ta, &tb).unwrap();
                let m2 = e_late.max_x(&ta, &tb).unwrap();
                match (m1, m2) {
                    (Some(m1), Some(m2)) => prop_assert!(
                        m2 >= m1,
                        "knowledge lost at {}: {} -> {} fell {} -> {}",
                        sigma_late, a, b, m1, m2
                    ),
                    (Some(m1), None) => return Err(TestCaseError::fail(format!(
                        "reachability lost for {a} -> {b} (had {m1})"
                    ))),
                    _ => {}
                }
            }
        }
    }

    /// The all-pairs threshold matrix agrees with pairwise queries.
    #[test]
    fn knowledge_matrix_consistency(w in workloads()) {
        let run = w.run();
        let sigma = run
            .nodes()
            .map(|r| r.id())
            .filter(|n| !n.is_initial())
            .last();
        let Some(sigma) = sigma else { return Ok(()) };
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        let matrix = engine.max_x_basic_matrix().unwrap();
        let past = run.past(sigma);
        let nodes: Vec<NodeId> = past.iter().filter(|n| !n.is_initial()).collect();
        for &a in nodes.iter().take(5) {
            for &b in nodes.iter().take(5) {
                let pairwise = engine
                    .max_x(&GeneralNode::basic(a), &GeneralNode::basic(b))
                    .unwrap();
                prop_assert_eq!(matrix[(a, b)], pairwise,
                    "matrix disagrees with pairwise at {}->{}", a, b);
            }
        }
    }

    /// Knowledge decisions depend only on past(r, σ): recomputing against
    /// the σ-fast run (which agrees with r exactly on the past) yields the
    /// same thresholds.
    #[test]
    fn knowledge_is_local_to_the_past(w in workloads()) {
        let run = w.run();
        let sigma = run
            .nodes()
            .map(|r| r.id())
            .filter(|n| !n.is_initial())
            .last();
        let Some(sigma) = sigma else { return Ok(()) };
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        let past = run.past(sigma);
        let nodes: Vec<NodeId> = past.iter().filter(|n| !n.is_initial()).collect();
        let Some(&anchor) = nodes.first() else { return Ok(()) };
        let fr = engine.fast_run_of(&GeneralNode::basic(anchor), 0, 20).unwrap();
        let engine2 = KnowledgeEngine::new(&fr.run, sigma).unwrap();
        for &a in nodes.iter().take(4) {
            for &b in nodes.iter().take(4) {
                let (ta, tb) = (GeneralNode::basic(a), GeneralNode::basic(b));
                let m1 = engine.max_x(&ta, &tb).unwrap();
                let m2 = engine2.max_x(&ta, &tb).unwrap();
                prop_assert_eq!(m1, m2,
                    "knowledge changed across indistinguishable runs at {}->{}", a, b);
            }
        }
    }
}
