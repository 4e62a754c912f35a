//! Figure-by-figure reproduction of the paper's worked scenarios.
//!
//! Each test lays out one of Figures 1–8 (or the construction it
//! illustrates) and checks the quantitative claim made in the text.

use zigzag::bcm::protocols::Ffip;
use zigzag::bcm::scheduler::{EagerScheduler, PerChannelScheduler, RandomScheduler};
use zigzag::bcm::validate::{validate_run, Strictness};
use zigzag::bcm::{Channel, NetPath, Network, NodeId, ProcessId, Run, SimConfig, Simulator, Time};
use zigzag::core::bounds_graph::{BoundsGraph, LABEL_RECV, LABEL_SEND};
use zigzag::core::construct::slow_run;
use zigzag::core::extended_graph::ExtVertex;
use zigzag::core::knowledge::KnowledgeEngine;
use zigzag::core::visible::VisibleZigzag;
use zigzag::core::{GeneralNode, TwoLeggedFork, ZigzagPattern};

/// Figure 1: the simple fork. `L_CB >= U_CA + x` guarantees `a --x--> b`
/// with no A↔B communication, across every legal schedule.
#[test]
fn figure1_simple_fork() {
    let mut nb = Network::builder();
    let c = nb.add_process("C");
    let a = nb.add_process("A");
    let b = nb.add_process("B");
    nb.add_channel(c, a, 2, 5).unwrap();
    nb.add_channel(c, b, 9, 12).unwrap();
    let ctx = nb.build().unwrap();
    let x = 9i64 - 5; // L_CB − U_CA
    for seed in 0..40 {
        let mut sim = Simulator::new(ctx.clone(), SimConfig::with_horizon(Time::new(40)));
        sim.external(Time::new(3), c, "go");
        let run = sim
            .run(&mut Ffip::new(), &mut RandomScheduler::seeded(seed))
            .unwrap();
        let sigma_c = run.external_receipt_node(c, "go").unwrap();
        let ta = GeneralNode::chain(sigma_c, &[a])
            .unwrap()
            .time_in(&run)
            .unwrap();
        let tb = GeneralNode::chain(sigma_c, &[b])
            .unwrap()
            .time_in(&run)
            .unwrap();
        assert!(
            tb.diff(ta) >= x,
            "seed {seed}: fork guarantee broken (gap {})",
            tb.diff(ta)
        );
    }
}

/// Figure 2a network with Equation (1)'s bounds.
struct Fig2 {
    a: ProcessId,
    b: ProcessId,
    c: ProcessId,
    d: ProcessId,
    e: ProcessId,
    ctx: zigzag::bcm::Context,
}

fn fig2(with_report_channel: bool) -> Fig2 {
    let mut nb = Network::builder();
    let a = nb.add_process("A");
    let b = nb.add_process("B");
    let c = nb.add_process("C");
    let d = nb.add_process("D");
    let e = nb.add_process("E");
    nb.add_channel(c, a, 1, 3).unwrap(); // U_CA = 3
    nb.add_channel(c, d, 6, 8).unwrap(); // L_CD = 6
    nb.add_channel(e, d, 1, 2).unwrap(); // U_ED = 2
    nb.add_channel(e, b, 4, 7).unwrap(); // L_EB = 4
    if with_report_channel {
        nb.add_channel(d, b, 1, 5).unwrap();
    }
    Fig2 {
        a,
        b,
        c,
        d,
        e,
        ctx: nb.build().unwrap(),
    }
}

fn fig2_run(f: &Fig2, tc: u64, te: u64, seed: u64) -> Run {
    let mut sim = Simulator::new(f.ctx.clone(), SimConfig::with_horizon(Time::new(90)));
    sim.external(Time::new(tc), f.c, "go_c");
    sim.external(Time::new(te), f.e, "go_e");
    sim.run(&mut Ffip::new(), &mut RandomScheduler::seeded(seed))
        .unwrap()
}

fn fig2_pattern(f: &Fig2, run: &Run) -> ZigzagPattern {
    let sigma_c = run.external_receipt_node(f.c, "go_c").unwrap();
    let sigma_e = run.external_receipt_node(f.e, "go_e").unwrap();
    let lower = TwoLeggedFork::new(
        GeneralNode::basic(sigma_c),
        NetPath::new(vec![f.c, f.d]).unwrap(),
        NetPath::new(vec![f.c, f.a]).unwrap(),
    )
    .unwrap();
    let upper = TwoLeggedFork::new(
        GeneralNode::basic(sigma_e),
        NetPath::new(vec![f.e, f.b]).unwrap(),
        NetPath::new(vec![f.e, f.d]).unwrap(),
    )
    .unwrap();
    ZigzagPattern::new(vec![lower, upper]).unwrap()
}

/// Figure 2a + Equation (1): whenever D hears C before E, the zigzag
/// guarantees `t_b > t_a + x` for `x = −U_CA + L_CD − U_ED + L_EB`.
#[test]
fn figure2a_equation1() {
    let f = fig2(false);
    let eq1 = -3i64 + 6 - 2 + 4; // = 5
    let mut checked = 0;
    for seed in 0..40 {
        let run = fig2_run(&f, 2, 18, seed);
        let z = fig2_pattern(&f, &run);
        let Ok(report) = z.validate(&run) else {
            continue; // D heard E first: not a zigzag in this run
        };
        // wt(Z) = Eq(1) + S(Z); the junction at D is separated by >= 1.
        assert!(report.separations >= 1);
        assert_eq!(report.weight, eq1 + report.separations as i64);
        assert!(report.gap > eq1, "seed {seed}: t_b <= t_a + x");
        checked += 1;
    }
    assert!(checked > 20, "only {checked} zigzag runs");
}

/// Figure 2b: with the D → B report the pattern becomes σ-visible at B,
/// and B's knowledge engine certifies `Late⟨a --x--> b⟩` for the Eq. (1)
/// weight; without the report channel the same node knows strictly less.
#[test]
fn figure2b_visibility_gap() {
    let f = fig2(true);
    let run = fig2_run(&f, 2, 18, 11);
    let z = fig2_pattern(&f, &run);
    let sigma_c = run.external_receipt_node(f.c, "go_c").unwrap();
    // B's first node that heard C (through D's report), E and D's order.
    let sigma = run
        .timeline(f.b)
        .iter()
        .map(|r| r.id())
        .find(|&n| {
            let past = run.past(n);
            past.contains(sigma_c)
                && past.contains(NodeId::new(f.d, 1))
                && past.contains(run.external_receipt_node(f.e, "go_e").unwrap())
        })
        .expect("report reaches B");
    let vz = VisibleZigzag::new(z, sigma);
    let report = vz.validate(&run).unwrap();
    assert!(report.weight >= 6); // Eq (1) + separation

    // The knowledge engine agrees: K_σ(θ_a --x--> σ_E·B) for x = weight.
    // (σ_E·B is expressed as a general node: its resolved basic node lies
    // outside σ's past, but its base σ_E is σ-recognized.)
    let engine = KnowledgeEngine::new(&run, sigma).unwrap();
    let theta_a = GeneralNode::chain(sigma_c, &[f.a]).unwrap();
    let sigma_e = run.external_receipt_node(f.e, "go_e").unwrap();
    let theta_b = GeneralNode::chain(sigma_e, &[f.b]).unwrap();
    let m = engine.max_x(&theta_a, &theta_b).unwrap().unwrap();
    assert!(
        m >= report.weight,
        "knowledge {m} below witness weight {}",
        report.weight
    );
}

/// Without the report, B cannot know the zigzag exists: its knowledge
/// about A's node is limited to single-fork evidence through E — which is
/// *negative* here (E's path to B has small bounds).
#[test]
fn figure2a_without_report_b_knows_less() {
    let f_with = fig2(true);
    let f_without = fig2(false);
    let threshold = |f: &Fig2| -> Option<i64> {
        let run = fig2_run(f, 2, 18, 5);
        let sigma_c = run.external_receipt_node(f.c, "go_c").unwrap();
        let theta_a = GeneralNode::chain(sigma_c, &[f.a]).unwrap();
        // Observe at B's last recorded node.
        let sigma = run.timeline(f.b).last().unwrap().id();
        if !run.past(sigma).contains(sigma_c) {
            return None;
        }
        let engine = KnowledgeEngine::new(&run, sigma).unwrap();
        engine.max_x(&theta_a, &GeneralNode::basic(sigma)).unwrap()
    };
    let with = threshold(&f_with).expect("report gives B knowledge of σ_C");
    assert!(with >= 6, "with report: {with}");
    // Without the channel, B never even hears of σ_C: the query is not
    // σ-recognized (Theorem 3 forbids acting at all).
    assert_eq!(threshold(&f_without), None);
}

/// Figure 3 is the general two-legged fork; checked via longer legs.
#[test]
fn figure3_long_legged_fork() {
    let mut nb = Network::builder();
    let p: Vec<ProcessId> = (0..5).map(|i| nb.add_process(format!("p{i}"))).collect();
    // Base p0; head leg p0→p1→p2 (slow lowers), tail leg p0→p3→p4 (fast uppers).
    nb.add_channel(p[0], p[1], 5, 7).unwrap();
    nb.add_channel(p[1], p[2], 6, 9).unwrap();
    nb.add_channel(p[0], p[3], 1, 2).unwrap();
    nb.add_channel(p[3], p[4], 1, 3).unwrap();
    let ctx = nb.build().unwrap();
    let fork = TwoLeggedFork::new(
        GeneralNode::basic(NodeId::new(p[0], 1)),
        NetPath::new(vec![p[0], p[1], p[2]]).unwrap(),
        NetPath::new(vec![p[0], p[3], p[4]]).unwrap(),
    )
    .unwrap();
    for seed in 0..20 {
        let mut sim = Simulator::new(ctx.clone(), SimConfig::with_horizon(Time::new(60)));
        sim.external(Time::new(2), p[0], "go");
        let run = sim
            .run(&mut Ffip::new(), &mut RandomScheduler::seeded(seed))
            .unwrap();
        assert_eq!(
            fork.weight(run.context().bounds()).unwrap(),
            (5 + 6) - (2 + 3)
        );
        let gap = fork.check_guarantee(&run).unwrap();
        assert!(gap >= 6, "seed {seed}: fork gap {gap}");
    }
}

/// Figure 6: the two bound edges a single delivery adds to `GB(r)`.
#[test]
fn figure6_bound_edges() {
    let mut nb = Network::builder();
    let i = nb.add_process("i");
    let j = nb.add_process("j");
    nb.add_channel(i, j, 3, 8).unwrap();
    nb.add_channel(j, i, 3, 8).unwrap();
    let ctx = nb.build().unwrap();
    let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(12)));
    sim.external(Time::new(1), i, "go");
    let run = sim.run(&mut Ffip::new(), &mut EagerScheduler).unwrap();
    let gb = BoundsGraph::of_run(&run);
    let g = gb.graph();
    let i1 = NodeId::new(i, 1);
    let j1 = NodeId::new(j, 1);
    let fwd = g
        .edges_from(g.index_of(&i1).unwrap())
        .iter()
        .find(|e| e.label == LABEL_SEND && *g.vertex(e.to) == j1)
        .unwrap()
        .weight;
    let bwd = g
        .edges_from(g.index_of(&j1).unwrap())
        .iter()
        .find(|e| e.label == LABEL_RECV && *g.vertex(e.to) == i1)
        .unwrap()
        .weight;
    assert_eq!((fwd, bwd), (3, -8));
}

/// Figure 7: the GB path justifying Equation (1) exists and its weight
/// matches; the slow run realizes the tight bound.
#[test]
fn figure7_bounds_graph_path() {
    let f = fig2(false);
    // Force the Figure 2a schedule exactly: D hears C at tc+8, E at te+2.
    let mut sim = Simulator::new(f.ctx.clone(), SimConfig::with_horizon(Time::new(90)));
    sim.external(Time::new(2), f.c, "go_c");
    sim.external(Time::new(20), f.e, "go_e");
    let mut sched = PerChannelScheduler::new(0.0);
    sched.set_delay(Channel::new(f.c, f.d), 8);
    sched.set_delay(Channel::new(f.e, f.d), 2);
    let run = sim.run(&mut Ffip::new(), &mut sched).unwrap();
    validate_run(&run, Strictness::Strict).unwrap();

    let sigma_c = run.external_receipt_node(f.c, "go_c").unwrap();
    let sigma_a = GeneralNode::chain(sigma_c, &[f.a])
        .unwrap()
        .resolve(&run)
        .unwrap();
    let sigma_b = GeneralNode::chain(run.external_receipt_node(f.e, "go_e").unwrap(), &[f.b])
        .unwrap()
        .resolve(&run)
        .unwrap();
    let gb = BoundsGraph::of_run(&run);
    let (w, edges) = gb
        .longest_path(sigma_a, sigma_b)
        .unwrap()
        .expect("Fig 7 path");
    // The path composes −U_CA, +L_CD, (+1 at D), −U_ED, +L_EB at least.
    assert!(w >= -3 + 6 + 1 - 2 + 4, "path weight {w}");
    assert!(!edges.is_empty());
    // The slow run of σ_B realizes the tight frontier bound.
    let sr = slow_run(&run, sigma_b).unwrap();
    validate_run(&sr.run, Strictness::Strict).unwrap();
    let gap = sr
        .run
        .time(sigma_b)
        .unwrap()
        .diff(sr.run.time(sigma_a).unwrap());
    assert_eq!(gap, sr.d[&sigma_a]);
    assert!(gap >= w);
}

/// Figure 8 / §5.1: an unseen delivery forces `σ_j --(1 − U_ij)--> σ_i`,
/// and that knowledge is available at σ via the extended graph.
#[test]
fn figure8_unseen_delivery_constraint() {
    let mut nb = Network::builder();
    let i = nb.add_process("i");
    let j = nb.add_process("j");
    nb.add_channel(i, j, 2, 6).unwrap();
    nb.add_channel(j, i, 2, 6).unwrap();
    let ctx = nb.build().unwrap();
    // i kicks at 1, floods j (delivery at 7, lazy); j kicks at 3 and
    // floods i (delivery at 5, eager-ish). Observer: i's node at 5.
    let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(30)));
    sim.external(Time::new(1), i, "kick_i");
    sim.external(Time::new(3), j, "kick_j");
    let mut sched = PerChannelScheduler::new(0.0);
    sched.set_delay(Channel::new(i, j), 6); // i's msgs to j: slow
    sched.set_delay(Channel::new(j, i), 2); // j's msgs to i: fast
    let run = sim.run(&mut Ffip::new(), &mut sched).unwrap();
    let sigma_i1 = run.external_receipt_node(i, "kick_i").unwrap();
    let sigma_j1 = run.external_receipt_node(j, "kick_j").unwrap();
    let sigma = run
        .node_at(i, Time::new(5))
        .expect("j's flood arrives at 5");
    let past = run.past(sigma);
    assert!(past.contains(sigma_j1) && !past.contains(NodeId::new(j, 2)));

    // σ has NOT seen the delivery of σ_i1's message to j, yet knows
    // σ_j1 --(1 − U_ij)--> σ_i1 … wait: the unseen delivery lands *after*
    // j's boundary σ_j1, so σ_i1 >= σ_j1 + 1 − U_ij.
    let engine = KnowledgeEngine::new(&run, sigma).unwrap();
    let (w, path) = engine
        .ge()
        .longest_path(ExtVertex::Node(sigma_j1), ExtVertex::Node(sigma_i1))
        .unwrap()
        .expect("constraint path exists");
    assert_eq!(path.iter().map(|e| e.weight).sum::<i64>(), w);
    assert!(w >= 1 - 6, "σ_j1 --({w})--> σ_i1 weaker than 1 − U_ij");
    // And the knowledge engine exposes exactly this as a max-x answer.
    let m = engine
        .max_x(&GeneralNode::basic(sigma_j1), &GeneralNode::basic(sigma_i1))
        .unwrap()
        .expect("known");
    assert_eq!(m, w.max(1 - 6));
}

/// Figures 4–5 shape: the knowledge witness for the Late protocol pattern
/// has its top fork based at a σ-recognized node and all lower heads in
/// the observer's past — checked structurally on Figure 2b.
#[test]
fn figures4_5_witness_shape() {
    let f = fig2(true);
    let run = fig2_run(&f, 2, 18, 3);
    let sigma_c = run.external_receipt_node(f.c, "go_c").unwrap();
    let sigma = run.timeline(f.b).last().unwrap().id();
    if !run.past(sigma).contains(sigma_c) {
        return;
    }
    let engine = KnowledgeEngine::new(&run, sigma).unwrap();
    let theta_a = GeneralNode::chain(sigma_c, &[f.a]).unwrap();
    let Some((_, vz)) = engine
        .witness(&theta_a, &GeneralNode::basic(sigma))
        .unwrap()
    else {
        return;
    };
    vz.check_visibility(&run).unwrap();
    let past = run.past(sigma);
    let forks = vz.pattern().forks();
    for fork in &forks[..forks.len() - 1] {
        let head = fork.head().resolve(&run).unwrap();
        assert!(past.contains(head), "non-top head outside the past");
    }
    assert!(past.contains(forks.last().unwrap().base().base()));
}
