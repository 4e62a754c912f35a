//! Event streams over runs: grow a run one observed event at a time.
//!
//! The paper's whole point is that timing knowledge is extracted *as a
//! run unfolds* — a node of the system exists the moment its receipts are
//! delivered, not when a full-run transcript is closed. This module gives
//! runs that shape:
//!
//! * a [`RunEvent`] is one basic node's worth of system activity — the
//!   receipts that create the node, the FFIP sends it emits (with the
//!   environment's committed delivery times), and its local actions;
//! * a [`RunCursor`] replays a recorded [`Run`] as an ordered event feed
//!   without cloning the run: events borrow nothing and are emitted in
//!   global `(time, process)` order as far as the run's own message
//!   numbering allows — for simulator-produced runs exactly the order the
//!   simulator created the nodes;
//! * a [`StreamingRun`] grows a [`Run`] from such a feed, append-only.
//!
//! Feeding a cursor's events into a streaming run reconstructs the source
//! run **exactly** (same node records, message table, externals, times) —
//! the reconstruction invariant the prefix-differential oracle pins. The
//! incremental knowledge engine (`zigzag_core::incremental`) consumes
//! this feed to keep its analyses current after every append.
//!
//! # Message identity
//!
//! Events reference messages by *stream-scoped* [`MessageId`]s: the `k`-th
//! send emitted by the feed is message `k`. The cursor keeps the run's
//! own numbering whenever some feed order does: at each step it emits the
//! `(time, process)`-least ready node whose sends take the next stream
//! ids. A run grown from any feed (a session's apply order, even one out
//! of `(time, process)` order) therefore replays with its ids intact, and
//! a simulator-produced run replays in plain `(time, process)` order. Only
//! a hand-built run whose ids follow no feed order is renumbered, then
//! transparently.

use crate::builder::RunBuilder;
use crate::error::BcmError;
use crate::event::Receipt;
use crate::message::MessageId;
use crate::net::{Channel, Context, ProcessId};
use crate::run::{NodeId, NodeRecord, Run};
use crate::time::Time;

/// One receipt of a [`RunEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReceiptEvent {
    /// A spontaneous external input with this name arrived.
    External(String),
    /// An internal message arrived. The id is stream-scoped: the `k`-th
    /// [`SendEvent`] of the feed is message `k`.
    Message(MessageId),
}

/// One message sent by the event's node, with the environment's committed
/// delivery time (which may lie beyond any recording horizon).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendEvent {
    /// The receiving process.
    pub to: ProcessId,
    /// The committed delivery time.
    pub deliver_at: Time,
}

/// One basic node's worth of system activity: the unit of the event feed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunEvent {
    /// The process whose timeline grows by one node.
    pub proc: ProcessId,
    /// The node's time (strictly increasing per timeline).
    pub time: Time,
    /// The receipts that create the node, in observation order.
    pub receipts: Vec<ReceiptEvent>,
    /// FFIP sends emitted at the node, in emission order (this order
    /// defines the stream-scoped message numbering).
    pub sends: Vec<SendEvent>,
    /// Local actions performed at the node.
    pub actions: Vec<String>,
}

/// Replays a recorded run as an ordered event feed; see the
/// [module docs](self).
#[derive(Debug)]
pub struct RunCursor<'r> {
    run: &'r Run,
    /// Per process, the timeline index of its next node to emit.
    next: Vec<usize>,
    /// Events emitted so far.
    pos: usize,
    /// Events in the whole feed (the run's non-initial nodes).
    len: usize,
    /// Source-run message id → stream-scoped id, set as sends are
    /// emitted (identity while the feed keeps the run's numbering).
    renumber: Vec<Option<MessageId>>,
    emitted_sends: u32,
}

impl<'r> RunCursor<'r> {
    /// Positions a cursor at the start of `run`'s event feed.
    pub fn new(run: &'r Run) -> Self {
        let procs = run.context().network().len();
        RunCursor {
            run,
            next: vec![1; procs],
            pos: 0,
            len: run.node_count() - procs,
            renumber: vec![None; run.messages().len()],
            emitted_sends: 0,
        }
    }

    /// The run being replayed.
    pub fn run(&self) -> &'r Run {
        self.run
    }

    /// Number of events already emitted.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Number of events not yet emitted.
    pub fn remaining(&self) -> usize {
        self.len - self.pos
    }

    /// The node the next event grows: among the timelines' next nodes
    /// whose delivered messages are all emitted, the `(time,
    /// process)`-least one whose sends take the next stream ids, or —
    /// when none does, and the feed must renumber — the least one.
    fn pick(&self) -> NodeId {
        let mut keeps: Option<&NodeRecord> = None;
        let mut least: Option<&NodeRecord> = None;
        for (p, &k) in self.next.iter().enumerate() {
            let Some(rec) = self.run.timeline(ProcessId::new(p as u32)).get(k) else {
                continue;
            };
            let ready = rec.receipts().iter().all(|r| match r {
                Receipt::External(_) => true,
                Receipt::Internal(m) => self.renumber[m.index()].is_some(),
            });
            if !ready {
                continue;
            }
            // Timelines are scanned in process order, so a strict `<`
            // keeps the lower process on a time tie.
            let before = |best: Option<&NodeRecord>| best.is_none_or(|b| rec.time() < b.time());
            if before(least) {
                least = Some(rec);
            }
            let numbered = (self.emitted_sends..)
                .zip(rec.sent())
                .all(|(k, m)| m.index() == k as usize);
            if numbered && before(keeps) {
                keeps = Some(rec);
            }
        }
        keeps
            .or(least)
            .expect("sends precede deliveries in a recorded run")
            .id()
    }

    /// Emits the next event of the feed, or `None` when the run is fully
    /// replayed.
    #[allow(clippy::should_implement_trait)]
    pub fn next_event(&mut self) -> Option<RunEvent> {
        if self.remaining() == 0 {
            return None;
        }
        let node = self.pick();
        self.next[node.proc().index()] += 1;
        self.pos += 1;
        let rec = self.run.node(node).expect("picked nodes are recorded");
        let receipts = rec
            .receipts()
            .iter()
            .map(|r| match r {
                Receipt::External(e) => {
                    ReceiptEvent::External(self.run.external(*e).name().to_string())
                }
                Receipt::Internal(m) => {
                    ReceiptEvent::Message(self.renumber[m.index()].expect("picked nodes are ready"))
                }
            })
            .collect();
        let sends = rec
            .sent()
            .iter()
            .map(|&m| {
                self.renumber[m.index()] = Some(MessageId::new(self.emitted_sends));
                self.emitted_sends += 1;
                let mr = self.run.message(m);
                SendEvent {
                    to: mr.channel().to,
                    deliver_at: mr.scheduled_at(),
                }
            })
            .collect();
        let actions = rec.actions().iter().map(|a| a.name().to_string()).collect();
        Some(RunEvent {
            proc: node.proc(),
            time: rec.time(),
            receipts,
            sends,
            actions,
        })
    }

    /// Drains the whole feed into a vector.
    pub fn collect_events(mut self) -> Vec<RunEvent> {
        let mut out = Vec::with_capacity(self.remaining());
        while let Some(ev) = self.next_event() {
            out.push(ev);
        }
        out
    }
}

impl Iterator for RunCursor<'_> {
    type Item = RunEvent;

    fn next(&mut self) -> Option<RunEvent> {
        self.next_event()
    }
}

/// A run grown append-only from an event feed; see the [module docs](self).
#[derive(Debug)]
pub struct StreamingRun {
    rb: RunBuilder,
    events: usize,
}

impl StreamingRun {
    /// Starts from the skeleton run (initial nodes only) of `context`.
    pub fn new(context: impl Into<std::sync::Arc<Context>>, horizon: Time) -> Self {
        StreamingRun {
            rb: RunBuilder::new(context, horizon),
            events: 0,
        }
    }

    /// Resumes streaming on top of an already-recorded run — the
    /// snapshot-restore path: a durable-store recovery decodes a run
    /// prefix and continues appending the log tail to it. The event count
    /// resumes at the number of non-initial nodes (one event grew each),
    /// and stream-scoped message numbering continues from the run's
    /// message table, so a feed whose ids coincide with the run's (every
    /// canonical-order feed) appends exactly as if never interrupted.
    pub fn adopt(run: Run) -> Self {
        let events = run.nodes().filter(|rec| !rec.id().is_initial()).count();
        StreamingRun {
            rb: RunBuilder::adopt(run),
            events,
        }
    }

    /// The run as grown so far — a genuine [`Run`] prefix, usable by every
    /// batch analysis without cloning.
    pub fn run(&self) -> &Run {
        self.rb.run()
    }

    /// Number of events appended.
    pub fn event_count(&self) -> usize {
        self.events
    }

    /// Appends one event: creates the node, wires its receipts (stream-id
    /// deliveries must reference earlier sends), records its sends and
    /// actions. Returns the created node's id.
    ///
    /// # Errors
    ///
    /// Fails if the event is inconsistent with the run so far: time not
    /// increasing on the timeline, an unknown process or channel, a
    /// delivered message that is unknown, already delivered (before or
    /// in this event) or off its channel, or a message delivered or
    /// scheduled outside its channel's `[L, U]`. The whole event is
    /// checked before any of it is applied, so a rejected event changes
    /// nothing.
    pub fn append(&mut self, ev: &RunEvent) -> Result<NodeId, BcmError> {
        let node = self.check(ev)?;
        self.rb.push_node(node, ev.time);
        for r in &ev.receipts {
            match r {
                ReceiptEvent::External(name) => {
                    self.rb.push_external(node, ev.time, name.clone());
                }
                ReceiptEvent::Message(m) => self.rb.push_delivery(*m, node, ev.time),
            }
        }
        for s in &ev.sends {
            self.rb.push_send(node, ev.time, s.to, s.deliver_at);
        }
        for a in &ev.actions {
            self.rb.push_action(node, a.clone());
        }
        self.events += 1;
        Ok(node)
    }

    /// Checks the whole of `ev` against the run so far, changing nothing,
    /// and returns the node it would create: the checks of
    /// [`RunBuilder::add_node`], [`RunBuilder::deliver`] and
    /// [`RunBuilder::send`], once each, plus the per-message rules of
    /// [`validate_run`](crate::validate::validate_run).
    fn check(&self, ev: &RunEvent) -> Result<NodeId, BcmError> {
        let node = self.rb.next_node(ev.proc, ev.time)?;
        for (k, receipt) in ev.receipts.iter().enumerate() {
            let ReceiptEvent::Message(m) = receipt else {
                continue;
            };
            let msg = self.rb.undelivered(*m)?;
            let ch = msg.channel();
            if ev.receipts[..k].contains(receipt) {
                return Err(BcmError::IllegalRun {
                    detail: format!("message {m} delivered twice"),
                });
            }
            if ch.to != ev.proc {
                return Err(BcmError::IllegalRun {
                    detail: format!("message {m} delivered to {node} off-channel {ch}"),
                });
            }
            self.rb
                .channel_bounds(ch.from, ch.to)?
                .check_arrival(ch, msg.sent_at(), ev.time)?;
        }
        for s in &ev.sends {
            let ch = Channel::new(ev.proc, s.to);
            self.rb
                .channel_bounds(ch.from, ch.to)?
                .check_arrival(ch, ev.time, s.deliver_at)?;
        }
        Ok(node)
    }

    /// Finalizes the grown run.
    pub fn finish(self) -> Run {
        self.rb.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Network;
    use crate::protocols::Ffip;
    use crate::scheduler::RandomScheduler;
    use crate::sim::{SimConfig, Simulator};
    use crate::validate::{validate_run, Strictness};

    fn tri_run(seed: u64, horizon: u64) -> Run {
        let mut b = Network::builder();
        let i = b.add_process("i");
        let j = b.add_process("j");
        let k = b.add_process("k");
        b.add_bidirectional(i, j, 2, 5).unwrap();
        b.add_bidirectional(j, k, 1, 4).unwrap();
        b.add_bidirectional(i, k, 3, 7).unwrap();
        let ctx = b.build().unwrap();
        let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(horizon)));
        sim.external(Time::new(1), i, "kick");
        sim.run(&mut Ffip::new(), &mut RandomScheduler::seeded(seed))
            .unwrap()
    }

    #[test]
    fn replay_reconstructs_the_run_exactly() {
        for seed in 0..6 {
            let run = tri_run(seed, 35);
            let mut cursor = RunCursor::new(&run);
            let mut stream = StreamingRun::new(run.context_arc(), run.horizon());
            assert_eq!(cursor.remaining(), run.node_count() - 3);
            while let Some(ev) = cursor.next_event() {
                stream.append(&ev).unwrap();
            }
            assert_eq!(cursor.remaining(), 0);
            assert_eq!(stream.event_count(), cursor.position());
            let rebuilt = stream.finish();
            assert_eq!(rebuilt, run, "seed {seed}: replay diverged from source");
            validate_run(&rebuilt, Strictness::Strict).unwrap();
        }
    }

    #[test]
    fn every_prefix_is_a_valid_run() {
        let run = tri_run(3, 30);
        let mut cursor = RunCursor::new(&run);
        let mut stream = StreamingRun::new(run.context_arc(), run.horizon());
        while let Some(ev) = cursor.next_event() {
            let node = stream.append(&ev).unwrap();
            assert_eq!(stream.run().time(node), Some(ev.time));
            validate_run(stream.run(), Strictness::Prefix).unwrap();
        }
    }

    #[test]
    fn cursor_renumbers_hand_built_runs() {
        // Build a run whose send order disagrees with (time, proc) node
        // order: the later node's message is recorded first.
        let mut b = Network::builder();
        let i = b.add_process("i");
        let j = b.add_process("j");
        b.add_bidirectional(i, j, 1, 8).unwrap();
        let ctx = b.build().unwrap();
        let mut rb = RunBuilder::new(ctx.clone(), Time::new(12));
        let ni = rb.add_node(i, Time::new(5)).unwrap();
        rb.add_external(ni, "late_kick").unwrap();
        let m_late = rb.send(ni, j, Time::new(7)).unwrap();
        let nj = rb.add_node(j, Time::new(2)).unwrap();
        rb.add_external(nj, "early_kick").unwrap();
        let m_early = rb.send(nj, i, Time::new(9)).unwrap();
        let nj2 = rb.add_node(j, Time::new(7)).unwrap();
        rb.deliver(m_late, nj2).unwrap();
        let ni2 = rb.add_node(i, Time::new(9)).unwrap();
        rb.deliver(m_early, ni2).unwrap();
        let run = rb.finish();

        let replay = |run: &Run| {
            let mut stream = StreamingRun::new(run.context_arc(), run.horizon());
            let nodes: Vec<NodeId> = RunCursor::new(run)
                .map(|ev| stream.append(&ev).unwrap())
                .collect();
            (nodes, stream.finish())
        };
        // i@5 goes first: its send takes stream id 0, which is the run's
        // own id for it, while j@2's would not be. The feed keeps the
        // run's numbering, so the replay is exact.
        let (nodes, rebuilt) = replay(&run);
        assert_eq!(nodes, vec![ni, nj, nj2, ni2]);
        assert_eq!(rebuilt, run);

        // Here i@5 both receives j@2's message and sends the run's
        // message 0: no feed order keeps the numbering, so the cursor
        // falls back to (time, proc) order — j@2, i@5, j@7 — and
        // renumbers.
        let mut rb = RunBuilder::new(ctx, Time::new(12));
        let ni = rb.add_node(i, Time::new(5)).unwrap();
        let m_late = rb.send(ni, j, Time::new(7)).unwrap();
        let nj = rb.add_node(j, Time::new(2)).unwrap();
        rb.add_external(nj, "early_kick").unwrap();
        let m_early = rb.send(nj, i, Time::new(5)).unwrap();
        rb.deliver(m_early, ni).unwrap();
        let nj2 = rb.add_node(j, Time::new(7)).unwrap();
        rb.deliver(m_late, nj2).unwrap();
        let run = rb.finish();
        let (nodes, rebuilt) = replay(&run);
        assert_eq!(nodes, vec![nj, ni, nj2]);
        // Message *content* is identical even though ids are renumbered.
        assert_ne!(rebuilt, run);
        assert_eq!(rebuilt.node_count(), run.node_count());
        for rec in run.nodes() {
            assert_eq!(rebuilt.time(rec.id()), Some(rec.time()));
            let b = rebuilt.node(rec.id()).unwrap();
            assert_eq!(b.receipts().len(), rec.receipts().len());
            assert_eq!(b.sent().len(), rec.sent().len());
        }
        let mut sched: Vec<Time> = run.messages().iter().map(|m| m.scheduled_at()).collect();
        let mut resched: Vec<Time> = rebuilt
            .messages()
            .iter()
            .map(|m| m.scheduled_at())
            .collect();
        sched.sort();
        resched.sort();
        assert_eq!(resched, sched);
    }

    #[test]
    fn adoption_resumes_a_feed_exactly() {
        for seed in 0..4 {
            let run = tri_run(seed, 35);
            let events = RunCursor::new(&run).collect_events();
            for cut in 0..=events.len() {
                let mut first = StreamingRun::new(run.context_arc(), run.horizon());
                for ev in &events[..cut] {
                    first.append(ev).unwrap();
                }
                let mut resumed = StreamingRun::adopt(first.finish());
                assert_eq!(resumed.event_count(), cut);
                for ev in &events[cut..] {
                    resumed.append(ev).unwrap();
                }
                assert_eq!(
                    resumed.finish(),
                    run,
                    "seed {seed}: adoption at event {cut} diverged"
                );
            }
        }
    }

    #[test]
    fn append_rejects_inconsistent_events() {
        let run = tri_run(0, 25);
        let events = RunCursor::new(&run).collect_events();
        let mut stream = StreamingRun::new(run.context_arc(), run.horizon());
        // Delivering a message nobody sent yet fails...
        let bad = RunEvent {
            proc: events[0].proc,
            time: events[0].time,
            receipts: vec![ReceiptEvent::Message(MessageId::new(7))],
            sends: Vec::new(),
            actions: Vec::new(),
        };
        assert!(stream.append(&bad).is_err());
        // ...and changes nothing: the whole feed still rebuilds the run.
        for ev in &events {
            stream.append(ev).unwrap();
        }
        assert_eq!(stream.finish(), run);
        // Cursor doubles as an iterator.
        let collected: Vec<RunEvent> = RunCursor::new(&run).collect();
        assert_eq!(collected, events);
    }
}
