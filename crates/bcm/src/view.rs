//! The clockless local view of a process at one of its nodes.
//!
//! A [`View`] is handed to [`crate::Protocol`] code whenever a process
//! transitions to a new node. It exposes exactly what the paper's model
//! allows a process to observe under a full-information protocol: the
//! *structure* of its causal past (who received what from whom, in which
//! local order) — and **no real-time information whatsoever**. There is
//! deliberately no method on `View` that returns a [`crate::Time`].
//!
//! A view computes `past(r, σ)` the first time a query reads it, not when
//! it is built: the breadth-first walk over the receipts in the past
//! costs O(size of the past), and the simulator builds a view at every
//! event. A protocol pays for its past only at the events where it reads
//! it; [`crate::protocols::Ffip`] never does.

use std::sync::OnceLock;

use crate::event::{ActionRecord, Receipt};
use crate::message::{ExternalId, MessageId};
use crate::net::{Context, ProcessId};
use crate::run::{NodeId, Past, Run};

/// The view of process `view.proc()` at its current node `view.node()`.
///
/// All query methods are restricted to `past(r, σ)`; asking about anything
/// else returns `None`/`false`. Protocol decisions made through a `View`
/// are therefore functions of the local state, as the model requires.
#[derive(Debug)]
pub struct View<'r> {
    run: &'r Run,
    node: NodeId,
    /// `past(r, σ)`, computed on first read.
    past: OnceLock<Past>,
}

impl<'r> View<'r> {
    /// Creates the view of `node` in `run`.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not appear in `run`.
    pub fn new(run: &'r Run, node: NodeId) -> Self {
        assert!(run.appears(node), "view of a node that does not appear");
        View {
            run,
            node,
            past: OnceLock::new(),
        }
    }

    /// The current basic node `σ`.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The process this view belongs to.
    pub fn proc(&self) -> ProcessId {
        self.node.proc()
    }

    /// The bounded context (network + bounds). Bounds are common knowledge
    /// in the bcm model, so protocols may consult them freely.
    pub fn context(&self) -> &'r Context {
        self.run.context()
    }

    /// The causal past of the current node, computed on the first call.
    pub fn past(&self) -> &Past {
        self.past.get_or_init(|| self.run.past(self.node))
    }

    /// Whether `node` is in the causal past (σ-recognized base).
    pub fn knows_node(&self, node: NodeId) -> bool {
        self.past().contains(node)
    }

    /// Receipts observed at the current node.
    pub fn current_receipts(&self) -> &'r [Receipt] {
        self.run
            .node(self.node)
            .map(|r| r.receipts())
            .unwrap_or(&[])
    }

    /// Receipts observed at `node`, if `node` is in the past.
    pub fn receipts_at(&self, node: NodeId) -> Option<&'r [Receipt]> {
        self.past()
            .contains(node)
            .then(|| self.run.node(node).map(|r| r.receipts()))
            .flatten()
    }

    /// Actions performed at `node`, if `node` is in the past.
    pub fn actions_at(&self, node: NodeId) -> Option<&'r [ActionRecord]> {
        self.past()
            .contains(node)
            .then(|| self.run.node(node).map(|r| r.actions()))
            .flatten()
    }

    /// The sending node of message `m`, if the send is in the past.
    ///
    /// Message headers identify their sender (and, under FFIP, the entire
    /// sending history), so this is locally observable.
    pub fn sender(&self, m: MessageId) -> Option<NodeId> {
        let src = self.run.message(m).src();
        self.past().contains(src).then_some(src)
    }

    /// Where the message `m` sent from within the past was delivered, if
    /// that delivery is itself in the past. (A process cannot observe
    /// deliveries outside its past.)
    pub fn delivery_of(&self, m: MessageId) -> Option<NodeId> {
        let past = self.past();
        let rec = self.run.message(m);
        if !past.contains(rec.src()) {
            return None;
        }
        rec.delivery().map(|d| d.node).filter(|n| past.contains(*n))
    }

    /// Messages sent by `node` (with their destination processes), if
    /// `node` is in the past. Under FFIP every non-initial node sends to
    /// every out-neighbor, and the sends are part of the sender's history.
    pub fn sent_by(&self, node: NodeId) -> Option<Vec<(MessageId, ProcessId)>> {
        if !self.past().contains(node) {
            return None;
        }
        let rec = self.run.node(node)?;
        Some(
            rec.sent()
                .iter()
                .map(|&m| (m, self.run.message(m).channel().to))
                .collect(),
        )
    }

    /// The node of `proc` that received an external input named `name`,
    /// if that receipt is in the past.
    pub fn external_node(&self, proc: ProcessId, name: &str) -> Option<NodeId> {
        let node = self.run.external_receipt_node(proc, name)?;
        self.past().contains(node).then_some(node)
    }

    /// The name of external input `e`, if its receipt is in the past.
    pub fn external_name(&self, e: ExternalId) -> Option<&'r str> {
        let rec = self.run.external(e);
        self.past().contains(rec.node()).then(|| rec.name())
    }

    /// Whether process `self.proc()` has already performed an action named
    /// `name` at or before the current node.
    pub fn already_acted(&self, name: &str) -> bool {
        let tl = self.run.timeline(self.proc());
        tl.iter()
            .take(self.node.index() as usize + 1)
            .any(|rec| rec.actions().iter().any(|a| a.name() == name))
    }

    /// Analysis escape hatch: the underlying run.
    ///
    /// This exists so that the causality layer (`zigzag-core`) can build
    /// bounds graphs and knowledge queries for the node. Those algorithms
    /// provably consult only `past(r, σ)` plus the common-knowledge bounds;
    /// application protocol code must use the restricted queries above
    /// instead. (The property-test suite checks that knowledge decisions
    /// are invariant under changes outside the past.)
    pub fn run_for_analysis(&self) -> &'r Run {
        self.run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Network;
    use crate::protocols::{Ffip, ScriptedActions};
    use crate::scheduler::{EagerScheduler, RandomScheduler};
    use crate::sim::{SimConfig, Simulator};
    use crate::time::Time;

    fn relay_run() -> Run {
        // c -> a -> b line, plus c -> b direct.
        let mut b = Network::builder();
        let c = b.add_process("c");
        let a = b.add_process("a");
        let bb = b.add_process("b");
        b.add_channel(c, a, 1, 2).unwrap();
        b.add_channel(a, bb, 1, 2).unwrap();
        b.add_channel(c, bb, 5, 9).unwrap();
        let ctx = b.build().unwrap();
        let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(30)));
        sim.external(Time::new(2), c, "go");
        sim.run(&mut Ffip::new(), &mut EagerScheduler).unwrap()
    }

    #[test]
    fn view_restricts_to_past() {
        let run = relay_run();
        let c = ProcessId::new(0);
        let a = ProcessId::new(1);
        let b = ProcessId::new(2);
        let sigma_c = run.external_receipt_node(c, "go").unwrap();
        let a1 = NodeId::new(a, 1);
        let view_a1 = View::new(&run, a1);
        assert_eq!(view_a1.proc(), a);
        assert!(view_a1.knows_node(sigma_c));
        assert_eq!(view_a1.external_node(c, "go"), Some(sigma_c));
        // a's first node knows nothing of b's non-initial nodes.
        assert!(!view_a1.knows_node(NodeId::new(b, 1)));
        assert!(view_a1.receipts_at(NodeId::new(b, 1)).is_none());
        // Receipt and sender inspection.
        let receipts = view_a1.current_receipts();
        assert_eq!(receipts.len(), 1);
        let m = receipts[0].internal().unwrap();
        assert_eq!(view_a1.sender(m), Some(sigma_c));
        // c's sends are visible from a (they are part of c's history).
        let sent = view_a1.sent_by(sigma_c).unwrap();
        assert_eq!(sent.len(), 2); // to a and to b
                                   // But the delivery of c's message to b is not in a1's past.
        let (m_cb, _) = sent.iter().find(|(_, d)| *d == b).copied().unwrap();
        assert!(view_a1.delivery_of(m_cb).is_none());
        assert!(!view_a1.already_acted("a"));
    }

    #[test]
    fn external_name_visibility() {
        let run = relay_run();
        let c = ProcessId::new(0);
        let sigma_c = run.external_receipt_node(c, "go").unwrap();
        let view_c = View::new(&run, sigma_c);
        let e = view_c.current_receipts()[0].external().unwrap();
        assert_eq!(view_c.external_name(e), Some("go"));
        // The initial node of c has the external outside its past.
        let view_c0 = View::new(&run, NodeId::initial(c));
        assert_eq!(view_c0.external_name(e), None);
        assert_eq!(view_c0.external_node(c, "go"), None);
    }

    #[test]
    #[should_panic(expected = "does not appear")]
    fn a_view_of_a_node_that_does_not_appear_panics() {
        let run = relay_run();
        View::new(&run, NodeId::new(ProcessId::new(1), 99));
    }

    /// The lazily computed past keeps a view shareable across threads.
    #[test]
    fn views_are_send_and_sync() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<View<'_>>();
    }

    /// The past a view computes on first read is `run.past`, whichever
    /// query reads it first, and the restricted queries answer from it.
    #[test]
    fn views_answer_from_the_runs_past() {
        let run = {
            let mut b = Network::builder();
            let c = b.add_process("c");
            let a = b.add_process("a");
            let bb = b.add_process("b");
            b.add_bidirectional(c, a, 1, 3).unwrap();
            b.add_bidirectional(a, bb, 2, 4).unwrap();
            b.add_channel(c, bb, 4, 7).unwrap();
            let mut sim =
                Simulator::new(b.build().unwrap(), SimConfig::with_horizon(Time::new(25)));
            sim.external(Time::new(2), c, "go");
            let mut script = ScriptedActions::new();
            script.on_external(c, "go", "send_go");
            script.on_hear(bb, NodeId::new(c, 1), "b");
            sim.run(&mut script, &mut RandomScheduler::seeded(5))
                .unwrap()
        };
        assert!(run.action_node(ProcessId::new(2), "b").is_some());
        let nodes: Vec<NodeId> = run.nodes().map(|r| r.id()).collect();
        for &n in &nodes {
            let past = run.past(n);
            assert_eq!(View::new(&run, n).past(), &past, "{n}");
            let view = View::new(&run, n);
            for &other in &nodes {
                assert_eq!(view.knows_node(other), past.contains(other), "{n}: {other}");
            }
            for msg in run.messages() {
                let src = msg.src();
                let known = past.contains(src);
                assert_eq!(view.sender(msg.id()), known.then_some(src), "{n}");
                let delivered = msg.delivery().map(|d| d.node);
                assert_eq!(
                    view.delivery_of(msg.id()),
                    delivered.filter(|&d| known && past.contains(d)),
                    "{n}"
                );
            }
            assert_eq!(view.past(), &past, "{n}");
        }
    }
}
