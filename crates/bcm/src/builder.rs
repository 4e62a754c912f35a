//! Direct construction of run records.
//!
//! The causality layer builds alternative runs from valid timing functions
//! (paper Lemma 8) node by node rather than through the simulator; tests
//! also use this to lay out the paper's figures exactly. A built run
//! carries no guarantees by itself — pass it to
//! [`crate::validate::validate_run`] to certify legality.

use crate::bounds::ChannelBounds;
use crate::error::BcmError;
use crate::event::{ActionRecord, Receipt};
use crate::message::{ExternalId, ExternalRecord, MessageId, MessageRecord};
use crate::net::{Channel, Context, ProcessId};
use crate::run::{NodeId, NodeRecord, Run};
use crate::time::Time;

/// Incremental constructor for [`Run`]s.
///
/// # Examples
///
/// ```
/// use zigzag_bcm::{Network, Time};
/// use zigzag_bcm::builder::RunBuilder;
/// use zigzag_bcm::validate::{validate_run, Strictness};
/// # fn main() -> Result<(), zigzag_bcm::BcmError> {
/// let mut nb = Network::builder();
/// let i = nb.add_process("i");
/// let j = nb.add_process("j");
/// nb.add_channel(i, j, 2, 4)?;
/// nb.add_channel(j, i, 2, 4)?;
/// let ctx = nb.build()?;
///
/// let mut rb = RunBuilder::new(ctx, Time::new(10));
/// let ni = rb.add_node(i, Time::new(1))?;
/// rb.add_external(ni, "kick")?;
/// let m = rb.send(ni, j, Time::new(3))?;
/// let nj = rb.add_node(j, Time::new(3))?;
/// rb.deliver(m, nj)?;
/// let m2 = rb.send(nj, i, Time::new(7))?; // due beyond... delivered below
/// let ni2 = rb.add_node(i, Time::new(7))?;
/// rb.deliver(m2, ni2)?;
/// let m3 = rb.send(ni2, j, Time::new(11))?; // due beyond horizon
/// let run = rb.finish();
/// # let _ = m3;
/// validate_run(&run, Strictness::Strict)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RunBuilder {
    run: Run,
}

impl RunBuilder {
    /// Starts from the skeleton run (initial nodes only) of `context`.
    pub fn new(context: impl Into<std::sync::Arc<Context>>, horizon: Time) -> Self {
        RunBuilder {
            run: Run::skeleton(context, horizon),
        }
    }

    /// Resumes construction on top of an already-recorded run. The
    /// builder keeps no state beyond the run itself (next message and
    /// external ids are the table lengths, timelines carry their own
    /// last-node times), so adoption is exact: appends continue precisely
    /// as if the run had been grown through this builder from the start.
    pub fn adopt(run: Run) -> Self {
        RunBuilder { run }
    }

    /// Read access to the run under construction.
    pub fn run(&self) -> &Run {
        &self.run
    }

    /// Appends a node on `proc`'s timeline at `time`, returning its id.
    ///
    /// # Errors
    ///
    /// Fails if `proc` is unknown or `time` does not strictly exceed the
    /// previous node's time.
    pub fn add_node(&mut self, proc: ProcessId, time: Time) -> Result<NodeId, BcmError> {
        let id = self.next_node(proc, time)?;
        self.push_node(id, time);
        Ok(id)
    }

    /// The id [`RunBuilder::add_node`] would give a node on `proc`'s
    /// timeline at `time`; its check, changing nothing.
    pub(crate) fn next_node(&self, proc: ProcessId, time: Time) -> Result<NodeId, BcmError> {
        if !self.run.context().network().contains(proc) {
            return Err(BcmError::UnknownProcess(proc));
        }
        let tl = self.run.timeline(proc);
        let last = tl.last().expect("skeleton guarantees an initial node");
        if time <= last.time() {
            return Err(BcmError::IllegalRun {
                detail: format!(
                    "node time {time} on {proc} does not exceed previous {}",
                    last.time()
                ),
            });
        }
        Ok(NodeId::new(proc, tl.len() as u32))
    }

    pub(crate) fn push_node(&mut self, id: NodeId, time: Time) {
        self.run.push_node(NodeRecord::new(id, time));
    }

    /// Records an external input named `name` arriving at `node`.
    ///
    /// # Errors
    ///
    /// Fails if `node` does not exist or is an initial node.
    pub fn add_external(
        &mut self,
        node: NodeId,
        name: impl Into<String>,
    ) -> Result<ExternalId, BcmError> {
        let time = self.run.node_checked(node)?.time();
        if node.is_initial() {
            return Err(BcmError::InvalidExternal {
                detail: "external input at an initial node".into(),
            });
        }
        Ok(self.push_external(node, time, name))
    }

    pub(crate) fn push_external(
        &mut self,
        node: NodeId,
        time: Time,
        name: impl Into<String>,
    ) -> ExternalId {
        let eid = ExternalId::new(self.run.externals().len() as u32);
        self.run
            .push_external(ExternalRecord::new(eid, name, node.proc(), time, node));
        self.run.node_mut(node).push_receipt(Receipt::External(eid));
        eid
    }

    /// Records that `src` sends a message to `dst`, with the environment
    /// committing to delivery at `scheduled`.
    ///
    /// # Errors
    ///
    /// Fails if `src` does not exist or the channel is missing.
    /// (Bounds violations are left to the validator so that tests can
    /// construct deliberately illegal runs.)
    pub fn send(
        &mut self,
        src: NodeId,
        dst: ProcessId,
        scheduled: Time,
    ) -> Result<MessageId, BcmError> {
        let sent_at = self.run.node_checked(src)?.time();
        // A context's bounds cover exactly its network's channels, so the
        // sorted adjacency answers this without a bounds lookup.
        if !self.run.context().network().has_channel(src.proc(), dst) {
            return Err(BcmError::MissingChannel {
                from: src.proc(),
                to: dst,
            });
        }
        Ok(self.push_send(src, sent_at, dst, scheduled))
    }

    /// The bounds of channel `(from, to)`; [`RunBuilder::send`]'s channel
    /// check.
    pub(crate) fn channel_bounds(
        &self,
        from: ProcessId,
        to: ProcessId,
    ) -> Result<ChannelBounds, BcmError> {
        self.run
            .context()
            .channel_bounds(from, to)
            .ok_or(BcmError::MissingChannel { from, to })
    }

    pub(crate) fn push_send(
        &mut self,
        src: NodeId,
        sent_at: Time,
        dst: ProcessId,
        scheduled: Time,
    ) -> MessageId {
        let mid = MessageId::new(self.run.messages().len() as u32);
        let channel = Channel::new(src.proc(), dst);
        self.run
            .push_message(MessageRecord::new(mid, src, channel, sent_at, scheduled));
        self.run.node_mut(src).push_sent(mid);
        mid
    }

    /// Records delivery of `msg` at `node` (whose time becomes the
    /// delivery time).
    ///
    /// # Errors
    ///
    /// Fails if the message or node is unknown, or the message was already
    /// delivered.
    pub fn deliver(&mut self, msg: MessageId, node: NodeId) -> Result<(), BcmError> {
        let time = self.run.node_checked(node)?.time();
        self.undelivered(msg)?;
        self.push_delivery(msg, node, time);
        Ok(())
    }

    /// The record of `msg` if it exists and is not delivered yet;
    /// [`RunBuilder::deliver`]'s message check.
    pub(crate) fn undelivered(&self, msg: MessageId) -> Result<&MessageRecord, BcmError> {
        let Some(rec) = self.run.messages().get(msg.index()) else {
            return Err(BcmError::UnknownNode {
                detail: format!("message {msg} does not exist"),
            });
        };
        if rec.is_delivered() {
            return Err(BcmError::IllegalRun {
                detail: format!("message {msg} delivered twice"),
            });
        }
        Ok(rec)
    }

    pub(crate) fn push_delivery(&mut self, msg: MessageId, node: NodeId, time: Time) {
        self.run.message_mut(msg).set_delivery(node, time);
        self.run.node_mut(node).push_receipt(Receipt::Internal(msg));
    }

    /// Records an action named `name` at `node`.
    ///
    /// # Errors
    ///
    /// Fails if `node` does not exist.
    pub fn act(&mut self, node: NodeId, name: impl Into<String>) -> Result<(), BcmError> {
        self.run.node_checked(node)?;
        self.push_action(node, name);
        Ok(())
    }

    pub(crate) fn push_action(&mut self, node: NodeId, name: impl Into<String>) {
        self.run.node_mut(node).push_action(ActionRecord::new(name));
    }

    /// Adjusts the recorded horizon.
    pub fn set_horizon(&mut self, horizon: Time) {
        self.run.set_horizon(horizon);
    }

    /// Finalizes the run.
    pub fn finish(self) -> Run {
        self.run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Network;
    use crate::validate::{validate_run, Strictness};

    fn ctx() -> Context {
        let mut nb = Network::builder();
        let i = nb.add_process("i");
        let j = nb.add_process("j");
        nb.add_bidirectional(i, j, 1, 3).unwrap();
        nb.build().unwrap()
    }

    #[test]
    fn build_and_validate_round_trip() {
        let i = ProcessId::new(0);
        let j = ProcessId::new(1);
        let mut rb = RunBuilder::new(ctx(), Time::new(8));
        let ni = rb.add_node(i, Time::new(1)).unwrap();
        rb.add_external(ni, "kick").unwrap();
        let m_ij = rb.send(ni, j, Time::new(2)).unwrap();
        let nj = rb.add_node(j, Time::new(2)).unwrap();
        rb.deliver(m_ij, nj).unwrap();
        let m_ji = rb.send(nj, i, Time::new(5)).unwrap();
        let ni2 = rb.add_node(i, Time::new(5)).unwrap();
        rb.deliver(m_ji, ni2).unwrap();
        let _due_late = rb.send(ni2, j, Time::new(8)).unwrap();
        let nj2 = rb.add_node(j, Time::new(8)).unwrap();
        rb.deliver(_due_late, nj2).unwrap();
        let _beyond = rb.send(nj2, i, Time::new(9)).unwrap();
        rb.act(ni2, "a").unwrap();
        let run = rb.finish();
        validate_run(&run, Strictness::Strict).unwrap();
        assert_eq!(run.action_node(i, "a"), Some(ni2));
    }

    #[test]
    fn builder_rejects_bad_ops() {
        let i = ProcessId::new(0);
        let mut rb = RunBuilder::new(ctx(), Time::new(8));
        assert!(rb.add_node(ProcessId::new(9), Time::new(1)).is_err());
        let ni = rb.add_node(i, Time::new(2)).unwrap();
        assert!(rb.add_node(i, Time::new(2)).is_err()); // not increasing
        assert!(rb.add_external(NodeId::initial(i), "bad").is_err());
        assert!(rb.send(ni, ProcessId::new(0), Time::new(3)).is_err()); // self-loop channel missing
        let m = rb.send(ni, ProcessId::new(1), Time::new(3)).unwrap();
        let nj = rb.add_node(ProcessId::new(1), Time::new(3)).unwrap();
        rb.deliver(m, nj).unwrap();
        assert!(rb.deliver(m, nj).is_err()); // double delivery
        assert!(rb.act(NodeId::new(i, 9), "x").is_err());
        rb.set_horizon(Time::new(3));
        assert_eq!(rb.run().horizon(), Time::new(3));
    }

    #[test]
    fn builder_allows_illegal_bounds_for_validator_tests() {
        // Deliveries violating bounds are constructible, then caught.
        let i = ProcessId::new(0);
        let j = ProcessId::new(1);
        let mut rb = RunBuilder::new(ctx(), Time::new(20));
        let ni = rb.add_node(i, Time::new(1)).unwrap();
        rb.add_external(ni, "kick").unwrap();
        let m = rb.send(ni, j, Time::new(10)).unwrap(); // U = 3, too late
        let _ = rb.send(ni, j, Time::new(2)); // second send to same dst is fine for builder
        let nj = rb.add_node(j, Time::new(10)).unwrap();
        rb.deliver(m, nj).unwrap();
        let run = rb.finish();
        assert!(validate_run(&run, Strictness::Prefix).is_err());
    }
}
