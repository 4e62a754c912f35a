//! The artifact pipeline: everything a user does with a run *besides*
//! analyzing it — statistics, serialization, deterministic replay, and
//! figure export — composed end to end.

use zigzag::bcm::protocols::Ffip;
use zigzag::bcm::scheduler::{RandomScheduler, ReplayScheduler};
use zigzag::bcm::validate::{validate_run, Strictness};
use zigzag::bcm::{codec, diagram, Network, RunStats, SimConfig, Simulator, Time};
use zigzag::core::bounds_graph::BoundsGraph;
use zigzag::core::dot;
use zigzag::core::knowledge::KnowledgeEngine;
use zigzag::core::GeneralNode;

fn fig2b_run(seed: u64) -> zigzag::bcm::Run {
    let mut nb = Network::builder();
    let a = nb.add_process("A");
    let b = nb.add_process("B");
    let c = nb.add_process("C");
    let d = nb.add_process("D");
    let e = nb.add_process("E");
    nb.add_channel(c, a, 1, 3).unwrap();
    nb.add_channel(c, d, 6, 8).unwrap();
    nb.add_channel(e, d, 1, 2).unwrap();
    nb.add_channel(e, b, 4, 7).unwrap();
    nb.add_channel(d, b, 1, 5).unwrap();
    let ctx = nb.build().unwrap();
    let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(60)));
    sim.external(Time::new(2), c, "go_c");
    sim.external(Time::new(18), e, "go_e");
    sim.run(&mut Ffip::new(), &mut RandomScheduler::seeded(seed))
        .unwrap()
}

#[test]
fn pipeline_simulate_encode_decode_replay() {
    for seed in [0u64, 7, 23] {
        let run = fig2b_run(seed);
        validate_run(&run, Strictness::Strict).unwrap();
        let stats = RunStats::of(&run);
        assert!(stats.nodes > 5 && stats.externals == 2);

        // Serialize → parse: identity.
        let text = codec::encode(&run);
        let back = codec::decode(&text).unwrap();
        assert_eq!(run, back);

        // Deterministic replay through the simulator: identity again.
        let mut sched = ReplayScheduler::from_run(&run);
        let mut sim = Simulator::new(
            run.context().clone(),
            SimConfig::with_horizon(run.horizon()),
        );
        let c = run.context().network().process_by_name("C").unwrap();
        let e = run.context().network().process_by_name("E").unwrap();
        sim.external(Time::new(2), c, "go_c");
        sim.external(Time::new(18), e, "go_e");
        let replayed = sim.run(&mut Ffip::new(), &mut sched).unwrap();
        assert_eq!(run, replayed, "seed {seed}: replay diverged");
    }
}

#[test]
fn knowledge_answers_survive_the_round_trip() {
    // A knowledge claim computed on the original run holds verbatim on the
    // decoded copy — the codec loses nothing the engine needs.
    let run = fig2b_run(11);
    let net = run.context().network();
    let c = net.process_by_name("C").unwrap();
    let a = net.process_by_name("A").unwrap();
    let b = net.process_by_name("B").unwrap();
    let sigma_c = run.external_receipt_node(c, "go_c").unwrap();
    let sigma = run.timeline(b).last().unwrap().id();
    if !run.past(sigma).contains(sigma_c) {
        return;
    }
    let theta_a = GeneralNode::chain(sigma_c, &[a]).unwrap();
    let theta_b = GeneralNode::basic(sigma);

    let engine1 = KnowledgeEngine::new(&run, sigma).unwrap();
    let m1 = engine1.max_x(&theta_a, &theta_b).unwrap();

    let back = codec::decode(&codec::encode(&run)).unwrap();
    let engine2 = KnowledgeEngine::new(&back, sigma).unwrap();
    let m2 = engine2.max_x(&theta_a, &theta_b).unwrap();
    assert_eq!(m1, m2);

    // Witnesses extracted from one copy validate against the other.
    if let Some((w, vz)) = engine1.witness(&theta_a, &theta_b).unwrap() {
        let report = vz.validate(&back).unwrap();
        assert_eq!(report.weight, w);
    }
}

#[test]
fn figure_exports_cover_the_run() {
    let run = fig2b_run(3);
    let net_dot = dot::network_dot(run.context().network(), run.context().bounds());
    assert_eq!(net_dot.matches(" -> ").count(), 5); // one per channel

    let gb = BoundsGraph::of_run(&run);
    let gb_dot = dot::bounds_graph_dot(&gb, &run);
    // Every vertex and edge is drawn.
    assert_eq!(gb_dot.matches(" -> ").count(), gb.edge_count());
    for p in run.context().network().processes() {
        assert!(gb_dot.contains(&format!("cluster_p{}", p.index())));
    }

    let sigma = run
        .timeline(run.context().network().process_by_name("B").unwrap())
        .last()
        .unwrap()
        .id();
    let engine = KnowledgeEngine::new(&run, sigma).unwrap();
    let ge = engine.ge();
    let ge_dot = dot::extended_graph_dot(ge, &run);
    assert_eq!(ge_dot.matches("shape=diamond").count(), 5); // one ψ per process
    assert_eq!(ge_dot.matches(" -> ").count(), ge.edges().len());

    // The ASCII diagram shows every process and every delivered message.
    let art = diagram::render(&run);
    for p in run.context().network().processes() {
        assert!(art.contains(run.context().network().name(p)));
    }
}
