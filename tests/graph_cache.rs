//! Property tests for the shared-analysis graph layer: the memoized
//! longest-path results must be indistinguishable from a fresh Dijkstra
//! and from the dense Bellman–Ford reference on random inputs, and a
//! positive cycle, which no clock satisfies, must be refused on every
//! traversal path while the dense reference reports it.

use proptest::prelude::*;
use zigzag::bcm::protocols::Ffip;
use zigzag::bcm::scheduler::RandomScheduler;
use zigzag::bcm::{topology, ProcessId, SimConfig, Simulator, Time};
use zigzag::core::bounds_graph::BoundsGraph;
use zigzag::core::error::CoreError;
use zigzag::core::graph::WeightedDigraph;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On bounds graphs of runs over `topology::random` networks, every
    /// source agrees across cached, fresh and dense computations —
    /// and cached results are genuinely shared.
    #[test]
    fn cached_equals_fresh_equals_dense(
        n in 3usize..7,
        density in 0u8..=10,
        topo_seed in 0u64..1000,
        sched_seed in 0u64..1000,
    ) {
        let ctx = topology::random(n, density as f64 / 10.0, 3, 5, topo_seed).unwrap();
        let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(25)));
        sim.external(Time::new(1), ProcessId::new(0), "kick");
        let run = sim
            .run(&mut Ffip::new(), &mut RandomScheduler::seeded(sched_seed))
            .unwrap();
        let gb = BoundsGraph::of_run(&run);
        let g = gb.graph();
        let sources: Vec<_> = run.nodes().map(|r| r.id()).collect();
        for src in sources {
            let cached = g.longest_from_cached(&src).unwrap();
            let again = g.longest_from_cached(&src).unwrap();
            prop_assert!(
                std::sync::Arc::ptr_eq(&cached, &again),
                "repeated query was not served from the cache"
            );
            let fresh = g.longest_from(&src).unwrap();
            let dense = g.longest_from_dense(&src).unwrap();
            for (i, d) in dense.iter().enumerate() {
                prop_assert_eq!(cached.weight(i), fresh.weight(i));
                prop_assert_eq!(cached.weight(i), *d);
            }
        }
    }

    /// A random positive cycle fails every clock, so the cached path and
    /// the uncached traversal in both directions refuse it with
    /// `ClockFails` naming the cycle's closing edge, the refusal is not
    /// memoized as a success afterwards, and the dense reference reports
    /// the cycle as `PositiveCycle`.
    #[test]
    fn positive_cycles_error_on_every_path(
        len in 2usize..6,
        weight in 1i64..5,
        extra in 0i64..3,
    ) {
        let mut g = WeightedDigraph::new();
        for k in 0..=len {
            g.add_vertex(k, (k as i64) * weight);
        }
        for k in 0..len {
            // Cycle of total weight `weight` > 0 plus benign chords.
            let w = if k == 0 { weight } else { 0 };
            g.add_edge(&k, &((k + 1) % len), w, 0);
            g.add_edge(&k, &len, -extra, 1); // sink chord, harmless
        }
        let refused = |got: Result<(), CoreError>| {
            matches!(got, Err(CoreError::ClockFails { edge, .. }) if edge.contains("--> 0"))
        };
        prop_assert!(refused(g.longest_from_cached(&0).map(drop)));
        prop_assert!(refused(g.longest_from(&0).map(drop)));
        prop_assert!(refused(g.longest_to(&0).map(drop)));
        prop_assert!(matches!(
            g.longest_from_dense(&0),
            Err(CoreError::PositiveCycle)
        ));
        // Still an error on the second (would-be cached) attempt.
        prop_assert!(refused(g.longest_from_cached(&0).map(drop)));
    }
}
