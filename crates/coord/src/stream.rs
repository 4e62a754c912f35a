//! The streaming scenario driver: timed coordination evaluated *online*.
//!
//! The batch harness ([`crate::scenario::Scenario`]) records a complete
//! run and only then asks whether `B` could act. This module drives the
//! same Definition 1 analysis the way the paper describes it happening —
//! as the run unfolds: a recorded schedule is replayed as an event feed
//! ([`zigzag_bcm::RunCursor`]) through an incremental knowledge engine
//! ([`zigzag_core::incremental::IncrementalEngine`]), and after **every**
//! appended event the driver reports whether `B`, standing at its newest
//! node, already knows the required timed precedence. The earliest such
//! node is exactly where Protocol 2 fires.
//!
//! Because the incremental engine answers byte-identically to a batch
//! engine on every prefix, the per-event verdicts are the protocol's real
//! decisions, not approximations. What "the prefix" contains at the
//! deciding node is a genuine semantic choice, pinned by
//! [`ProbeSemantics`]:
//!
//! * [`ProbeSemantics::IncludeOwnSends`] (the default) evaluates a node's
//!   knowledge on the prefix *including* the node's own FFIP sends — the
//!   paper's `GE(r, σ)`, where σ's sends exist the moment σ does. Extra
//!   (unseen-send) edges can only raise thresholds, so on topologies
//!   where `B` has outgoing channels this verdict may hold at a node
//!   where an in-simulation probe still abstains — never the reverse.
//! * [`ProbeSemantics::ExcludeOwnSends`] evaluates on the prefix
//!   *without* the deciding node's own sends — exactly what a strategy
//!   probed mid-simulation sees (its node exists, its sends are not yet
//!   recorded), making the streaming verdict protocol-equivalent on
//!   *every* topology.
//!
//! Where `B` has no outgoing channels (Figures 1 and 2b) the two modes
//! coincide exactly; both are sound either way, since extra own-send
//! evidence is evidence `B` legitimately has.
//!
//! The driver decides once per `B`-node, on a view of the stream's own
//! `GB(r)` built for that decision and dropped after it
//! ([`IncrementalEngine::uncached_engine`]): the engine's observer cache
//! keeps only the states queries read. The fresh references
//! ([`decide_at`], [`first_knowledge`]) build a standalone state per
//! decision instead. Either reads the sends in σ's past from the run's
//! own message records; nothing indexes the run for it. A spec whose `B`
//! is not a process of the run has no `B`-nodes, so every verdict
//! abstains.

use std::sync::Arc;

use zigzag_bcm::stream::RunEvent;
use zigzag_bcm::{Context, NodeId, NodeRecord, Run, RunCursor, Time};
use zigzag_core::incremental::IncrementalEngine;
use zigzag_core::knowledge::{ObserverMode, ObserverState};
use zigzag_core::{GeneralNode, KnowledgeEngine};

use crate::error::CoordError;
use crate::spec::TimedCoordination;

/// Which prefix a coordination decision at node σ is evaluated on; see
/// the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProbeSemantics {
    /// Decide on the prefix including σ's own FFIP sends (the paper's
    /// `GE(r, σ)`). The default: maximal sound evidence, may fire earlier
    /// than an in-simulation probe where `B` has outgoing channels.
    #[default]
    IncludeOwnSends,
    /// Decide on the prefix excluding σ's own sends — the in-simulation
    /// probe's view; protocol-equivalent on every topology.
    ExcludeOwnSends,
}

impl ProbeSemantics {
    /// The [`ObserverMode`] whose `GE(r, σ)` this probe decides on — the
    /// bridge into the core layer's observer states.
    pub fn mode(self) -> ObserverMode {
        match self {
            ProbeSemantics::IncludeOwnSends => ObserverMode::Full,
            ProbeSemantics::ExcludeOwnSends => ObserverMode::ExcludeOwnSends,
        }
    }
}

/// The Protocol 2 decision at `sigma` under the given probe semantics, on
/// any run containing `sigma`, built from scratch: a fresh decision state
/// reading the run's own message records. This is the reference the
/// streaming driver's decisions on its session graph are held to. Returns `false`
/// (abstain) when the trigger is absent or the required evidence is not
/// σ-recognized, exactly like the in-protocol strategy.
///
/// # Errors
///
/// Fails only on model-level inconsistencies (`sigma` not in `run`).
pub fn decide_at(
    spec: &TimedCoordination,
    run: &Run,
    sigma: NodeId,
    probe: ProbeSemantics,
) -> Result<bool, CoordError> {
    let Some(sigma_c) = run.external_receipt_node(spec.c, &spec.go_name) else {
        return Ok(false);
    };
    decide_fresh(spec, run, sigma_c, sigma, probe)
}

/// One fresh-build decision at `sigma`, given the trigger node.
fn decide_fresh(
    spec: &TimedCoordination,
    run: &Run,
    sigma_c: NodeId,
    sigma: NodeId,
    probe: ProbeSemantics,
) -> Result<bool, CoordError> {
    let state = ObserverState::build_mode(run, sigma, probe.mode())?;
    let engine = KnowledgeEngine::with_state(run, Arc::new(state));
    decide_with(spec, &engine, sigma_c, sigma)
}

/// The shared decision core: `B` acts at `sigma` iff the spec's
/// precedence is known there (Protocol 1's knowledge test, via
/// [`crate::optimal::knows_required`]).
fn decide_with(
    spec: &TimedCoordination,
    engine: &KnowledgeEngine<'_>,
    sigma_c: NodeId,
    sigma: NodeId,
) -> Result<bool, CoordError> {
    let Ok(theta_a) = spec.theta_a(sigma_c) else {
        return Ok(false);
    };
    let theta_b = GeneralNode::basic(sigma);
    // An unrecognized or initial anchor means the evidence simply is not
    // there: abstain, exactly like the in-protocol strategy.
    Ok(crate::optimal::knows_required(engine, spec.kind, &theta_a, &theta_b).unwrap_or(false))
}

/// The batch form of the streaming driver's verdict: the earliest
/// `B`-node of `run` at which the spec's precedence is known under
/// `probe`, plus the trigger node, with every decision built from
/// scratch. By observer stability (each node's decision depends only on
/// its own past), this equals the [`StreamDriver`]'s `first_known` after
/// replaying `run` with the same probe semantics — and under
/// [`ProbeSemantics::ExcludeOwnSends`] it equals the in-simulation
/// Protocol 2 action node on every topology.
///
/// # Errors
///
/// Fails only on model-level inconsistencies in `run`.
pub fn first_knowledge(
    spec: &TimedCoordination,
    run: &Run,
    probe: ProbeSemantics,
) -> Result<(Option<NodeId>, Option<NodeId>), CoordError> {
    let Some(sigma_c) = run.external_receipt_node(spec.c, &spec.go_name) else {
        return Ok((None, None));
    };
    for rec in b_nodes(spec, run) {
        if decide_fresh(spec, run, sigma_c, rec.id(), probe)? {
            return Ok((Some(rec.id()), Some(sigma_c)));
        }
    }
    Ok((None, Some(sigma_c)))
}

/// The non-initial nodes of `B` in `run`: none when the spec names a `B`
/// outside the run's network.
fn b_nodes<'r>(spec: &TimedCoordination, run: &'r Run) -> &'r [NodeRecord] {
    if run.context().network().contains(spec.b) {
        &run.timeline(spec.b)[1..]
    } else {
        &[]
    }
}

/// What one appended event meant for the coordination problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// The node the event created.
    pub node: NodeId,
    /// Its time.
    pub time: Time,
    /// `Some(decision)` when the node is a `B`-node: whether `B` knows
    /// the spec's precedence right there; `None` for non-`B` nodes.
    pub b_knows: Option<bool>,
}

/// Replays schedules as event feeds and answers the coordination question
/// after every event; see the [module docs](self).
#[derive(Debug)]
pub struct StreamDriver {
    spec: TimedCoordination,
    engine: IncrementalEngine,
    probe: ProbeSemantics,
    sigma_c: Option<NodeId>,
    first_known: Option<NodeId>,
}

impl StreamDriver {
    /// Starts a driver for `spec` over an empty stream, deciding with the
    /// default [`ProbeSemantics::IncludeOwnSends`].
    pub fn new(spec: TimedCoordination, context: Arc<Context>, horizon: Time) -> Self {
        Self::over(spec, IncrementalEngine::new(context, horizon))
    }

    /// Wraps a driver around an already-configured (but still empty)
    /// incremental engine — the facade path, where cache policy is set on
    /// the engine before streaming begins.
    pub fn over(spec: TimedCoordination, engine: IncrementalEngine) -> Self {
        StreamDriver {
            spec,
            engine,
            probe: ProbeSemantics::default(),
            sigma_c: None,
            first_known: None,
        }
    }

    /// Resumes a driver over an engine already holding a run prefix,
    /// seeding the decision state a snapshot recorded: the trigger node
    /// `σ_C` (if it streamed past before the snapshot) and the earliest
    /// `B`-node whose knowledge held. Both are pure functions of the
    /// prefix, so a resumed driver steps exactly like one that streamed
    /// the prefix itself.
    pub fn resume(
        spec: TimedCoordination,
        engine: IncrementalEngine,
        probe: ProbeSemantics,
        sigma_c: Option<NodeId>,
        first_known: Option<NodeId>,
    ) -> Self {
        StreamDriver {
            spec,
            engine,
            probe,
            sigma_c,
            first_known,
        }
    }

    /// Starts a driver over an engine already holding a run prefix whose
    /// decision state nobody recorded — a complete recorded run, say. The
    /// trigger node is looked up once and every `B`-node of the prefix is
    /// decided in timeline order through the driver's own decision path,
    /// stopping at the first that knows; each decision's state is dropped
    /// after it, so the engine's observer cache is left as it was. By
    /// observer stability each verdict depends only on its node's past,
    /// so the driver steps on exactly like one that streamed the prefix
    /// itself. A spec whose `B` is not a process of the run has no
    /// `B`-nodes: its driver abstains.
    ///
    /// # Errors
    ///
    /// Fails only where [`StreamDriver::step`]'s decisions would: on an
    /// observer the prefix does not hold, which its own `B`-nodes never
    /// are.
    pub fn of_prefix(
        spec: TimedCoordination,
        engine: IncrementalEngine,
        probe: ProbeSemantics,
    ) -> Result<Self, CoordError> {
        let sigma_c = engine.run().external_receipt_node(spec.c, &spec.go_name);
        let mut driver = Self::resume(spec, engine, probe, sigma_c, None);
        // Without the trigger every decision abstains before building
        // anything.
        let mut first_known = None;
        for rec in b_nodes(&driver.spec, driver.engine.run()) {
            if driver.decide_at(rec.id())? {
                first_known = Some(rec.id());
                break;
            }
        }
        driver.first_known = first_known;
        Ok(driver)
    }

    /// Selects the probe semantics (builder style); see the
    /// [module docs](self).
    pub fn with_probe(mut self, probe: ProbeSemantics) -> Self {
        self.probe = probe;
        self
    }

    /// The probe semantics decisions are evaluated under.
    pub fn probe(&self) -> ProbeSemantics {
        self.probe
    }

    /// The specification being evaluated.
    pub fn spec(&self) -> &TimedCoordination {
        &self.spec
    }

    /// The underlying incremental engine (and through it, the grown run).
    pub fn engine(&self) -> &IncrementalEngine {
        &self.engine
    }

    /// The earliest `B`-node at which the required knowledge held, if it
    /// has — where Protocol 2 performs `b`.
    pub fn first_known(&self) -> Option<NodeId> {
        self.first_known
    }

    /// The trigger node `σ_C`, once it has streamed past.
    pub fn sigma_c(&self) -> Option<NodeId> {
        self.sigma_c
    }

    /// Appends one event and evaluates `B`'s knowledge if the event is a
    /// `B`-node.
    ///
    /// # Errors
    ///
    /// Fails if the event is inconsistent with the grown prefix.
    pub fn step(&mut self, ev: &RunEvent) -> Result<StepReport, CoordError> {
        let node = self.engine.append_event(ev)?;
        if self.sigma_c.is_none() {
            self.sigma_c = self
                .engine
                .run()
                .external_receipt_node(self.spec.c, &self.spec.go_name);
        }
        let b_knows = (node.proc() == self.spec.b)
            .then(|| self.decide_at(node))
            .transpose()?;
        if b_knows == Some(true) && self.first_known.is_none() {
            self.first_known = Some(node);
        }
        Ok(StepReport {
            node,
            time: ev.time,
            b_knows,
        })
    }

    /// Protocol 2's decision at `sigma` on the current prefix: act iff
    /// the spec's precedence is known. Mirrors
    /// [`crate::optimal::OptimalStrategy`] on a view of the engine's
    /// `GB(r)` in the probe's mode, which
    /// [`IncrementalEngine::uncached_engine`] builds for this decision
    /// alone: the driver never decides at a node twice, so no state is
    /// kept for it. The view copies no edge of `GB(r)`.
    fn decide_at(&self, sigma: NodeId) -> Result<bool, CoordError> {
        let Some(sigma_c) = self.sigma_c else {
            return Ok(false); // no trigger yet: nothing to know
        };
        let engine = self.engine.uncached_engine(sigma, self.probe.mode())?;
        decide_with(&self.spec, &engine, sigma_c, sigma)
    }

    /// Replays a whole recorded run through a fresh driver, returning the
    /// per-event reports and the driver (holding the grown engine and the
    /// earliest-knowledge verdict).
    ///
    /// # Errors
    ///
    /// Fails if the recorded run is internally inconsistent.
    pub fn replay(
        spec: TimedCoordination,
        run: &Run,
    ) -> Result<(Vec<StepReport>, Self), CoordError> {
        Self::replay_with(spec, run, ProbeSemantics::default())
    }

    /// [`StreamDriver::replay`] under explicit probe semantics.
    ///
    /// # Errors
    ///
    /// Fails if the recorded run is internally inconsistent.
    pub fn replay_with(
        spec: TimedCoordination,
        run: &Run,
        probe: ProbeSemantics,
    ) -> Result<(Vec<StepReport>, Self), CoordError> {
        let mut driver = Self::new(spec, run.context_arc(), run.horizon()).with_probe(probe);
        let mut cursor = RunCursor::new(run);
        let mut reports = Vec::with_capacity(cursor.remaining());
        while let Some(ev) = cursor.next_event() {
            reports.push(driver.step(&ev)?);
        }
        Ok((reports, driver))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::OptimalStrategy;
    use crate::scenario::Scenario;
    use crate::spec::CoordKind;
    use zigzag_bcm::scheduler::{EagerScheduler, RandomScheduler};
    use zigzag_bcm::Network;
    use zigzag_core::KnowledgeEngine;

    /// Figure 1: C → A `[2,5]`, C → B `[9,12]` (fork weight 4); B has no
    /// outgoing channels, so the streaming verdict and the in-simulation
    /// strategy coincide exactly.
    fn fig1(x: i64) -> Scenario {
        let mut nb = Network::builder();
        let c = nb.add_process("C");
        let a = nb.add_process("A");
        let b = nb.add_process("B");
        nb.add_channel(c, a, 2, 5).unwrap();
        nb.add_channel(c, b, 9, 12).unwrap();
        let ctx = nb.build().unwrap();
        let spec = TimedCoordination::new(CoordKind::Late { x }, a, b, c);
        Scenario::new(spec, ctx, Time::new(3), Time::new(80)).unwrap()
    }

    #[test]
    fn streaming_decision_matches_the_batch_protocol() {
        for (x, seeds) in [(4i64, 0..8u64), (5, 0..4)] {
            let sc = fig1(x);
            for seed in seeds {
                let (run, verdict) = sc
                    .run_verified(&mut OptimalStrategy, &mut RandomScheduler::seeded(seed))
                    .unwrap();
                let (reports, driver) = StreamDriver::replay(sc.spec().clone(), &run).unwrap();
                assert_eq!(
                    driver.first_known(),
                    verdict.b_node,
                    "x={x} seed {seed}: online decision diverged from the protocol"
                );
                assert_eq!(reports.len(), run.node_count() - 3);
                // Every B verdict is a genuine prefix decision: replaying
                // the prefix through a batch engine gives the same bit.
                assert!(reports
                    .iter()
                    .all(|r| (r.node.proc() == sc.spec().b) == r.b_knows.is_some()));
            }
        }
    }

    #[test]
    fn online_knowledge_fires_at_the_go_receipt_under_eager_delivery() {
        let sc = fig1(4);
        let (run, _) = sc
            .run_verified(&mut OptimalStrategy, &mut EagerScheduler)
            .unwrap();
        let (reports, driver) = StreamDriver::replay(sc.spec().clone(), &run).unwrap();
        // B hears C at 3 + 9 = 12 and knows immediately.
        let first = driver.first_known().expect("feasible at the fork weight");
        assert_eq!(run.time(first), Some(Time::new(12)));
        assert_eq!(
            driver.sigma_c(),
            run.external_receipt_node(sc.spec().c, "go")
        );
        // Before that node, every B verdict is false; after, true.
        for r in &reports {
            if let Some(knows) = r.b_knows {
                assert_eq!(knows, r.time >= Time::new(12), "verdict flip at {}", r.node);
            }
        }
        // The driver's grown run is the recorded run.
        assert_eq!(driver.engine().run(), &run);
    }

    /// A topology where `B` has outgoing channels (including a B ⇄ D
    /// cycle): the regime where the two probe semantics can diverge.
    fn feedback_scenario(x: i64, l_bd: u64, u_bd: u64) -> Scenario {
        let mut nb = Network::builder();
        let c = nb.add_process("C");
        let a = nb.add_process("A");
        let b = nb.add_process("B");
        let d = nb.add_process("D");
        nb.add_channel(c, a, 2, 5).unwrap();
        nb.add_channel(c, b, 9, 12).unwrap();
        nb.add_channel(c, d, 1, 2).unwrap();
        nb.add_channel(b, d, l_bd, u_bd).unwrap();
        nb.add_channel(d, b, 1, 3).unwrap();
        let ctx = nb.build().unwrap();
        let spec = TimedCoordination::new(CoordKind::Late { x }, a, b, c);
        Scenario::new(spec, ctx, Time::new(3), Time::new(60)).unwrap()
    }

    #[test]
    fn probe_semantics_pin_protocol_equivalence_with_outgoing_channels() {
        // The currently-open ROADMAP divergence, pinned both ways:
        //
        // * ExcludeOwnSends replays are protocol-equivalent — the
        //   streaming verdict fires exactly where the in-simulation
        //   Protocol 2 strategy acted — on every topology, including ones
        //   where B has outgoing channels;
        // * IncludeOwnSends verdicts are pointwise monotone above them
        //   (extra own-send edges only ever add knowledge), so the
        //   default can fire earlier but never later;
        // * both replay modes agree with the batch `first_knowledge`
        //   helper on the same run.
        for (x, l_bd, u_bd) in [(4i64, 1u64, 1u64), (4, 1, 9), (5, 1, 1), (0, 2, 4)] {
            let sc = feedback_scenario(x, l_bd, u_bd);
            for seed in 0..6 {
                let (run, verdict) = sc
                    .run_verified(&mut OptimalStrategy, &mut RandomScheduler::seeded(seed))
                    .unwrap();
                let spec = sc.spec().clone();

                let (ex_reports, ex) =
                    StreamDriver::replay_with(spec.clone(), &run, ProbeSemantics::ExcludeOwnSends)
                        .unwrap();
                assert_eq!(ex.probe(), ProbeSemantics::ExcludeOwnSends);
                assert_eq!(
                    ex.first_known(),
                    verdict.b_node,
                    "x={x} [{l_bd},{u_bd}] seed {seed}: exclude-mode replay \
                     diverged from the in-simulation protocol"
                );

                let (in_reports, inc) =
                    StreamDriver::replay_with(spec.clone(), &run, ProbeSemantics::IncludeOwnSends)
                        .unwrap();
                // Pointwise monotonicity: wherever the probe view knows,
                // the full view knows too.
                for (e, i) in ex_reports.iter().zip(&in_reports) {
                    assert_eq!(e.node, i.node);
                    if e.b_knows == Some(true) {
                        assert_eq!(
                            i.b_knows,
                            Some(true),
                            "x={x} seed {seed}: default semantics lost knowledge at {}",
                            e.node
                        );
                    }
                }
                // Hence the default verdict is never later.
                match (inc.first_known(), ex.first_known()) {
                    (Some(fi), Some(fe)) => {
                        assert!(run.time(fi).unwrap() <= run.time(fe).unwrap())
                    }
                    (None, Some(fe)) => {
                        panic!("x={x} seed {seed}: default semantics missed the verdict at {fe}")
                    }
                    _ => {}
                }

                // The batch helper, and a driver started over the whole
                // recorded run, agree with both replay modes.
                for (probe, driver) in [
                    (ProbeSemantics::ExcludeOwnSends, &ex),
                    (ProbeSemantics::IncludeOwnSends, &inc),
                ] {
                    let (first, sigma_c) = first_knowledge(&spec, &run, probe).unwrap();
                    assert_eq!(first, driver.first_known(), "x={x} seed {seed} {probe:?}");
                    assert_eq!(sigma_c, driver.sigma_c());
                    let engine = IncrementalEngine::from_prefix(run.clone());
                    let restored = StreamDriver::of_prefix(spec.clone(), engine, probe).unwrap();
                    assert_eq!(restored.first_known(), driver.first_known());
                    assert_eq!(restored.sigma_c(), driver.sigma_c());
                }
            }
        }
    }

    #[test]
    fn default_probe_semantics_is_include_own_sends() {
        let sc = fig1(4);
        let driver = StreamDriver::new(
            sc.spec().clone(),
            Arc::new(sc.context().clone()),
            Time::new(60),
        );
        assert_eq!(driver.probe(), ProbeSemantics::IncludeOwnSends);
        assert_eq!(ProbeSemantics::default(), ProbeSemantics::IncludeOwnSends);
    }

    #[test]
    fn verdicts_match_batch_engines_on_every_prefix() {
        let sc = fig1(4);
        let (run, _) = sc
            .run_verified(&mut OptimalStrategy, &mut RandomScheduler::seeded(3))
            .unwrap();
        let spec = sc.spec().clone();
        let mut driver = StreamDriver::new(spec.clone(), run.context_arc(), run.horizon());
        let mut cursor = RunCursor::new(&run);
        while let Some(ev) = cursor.next_event() {
            let report = driver.step(&ev).unwrap();
            let Some(knows) = report.b_knows else {
                continue;
            };
            let Some(sigma_c) = driver.sigma_c() else {
                assert!(!knows);
                continue;
            };
            let batch = KnowledgeEngine::new(driver.engine().run(), report.node).unwrap();
            let want = batch
                .knows(
                    &spec.theta_a(sigma_c).unwrap(),
                    &GeneralNode::basic(report.node),
                    spec.kind.x(),
                )
                .unwrap_or(false);
            assert_eq!(knows, want, "online verdict diverged at {}", report.node);
        }
    }
}
