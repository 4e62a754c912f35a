//! The discrete-event simulation engine producing recorded [`Run`]s.
//!
//! The engine plays the system dynamics of paper §2.1: processes are
//! event-driven; the environment (a [`Scheduler`]) chooses delivery times
//! within channel bounds; every receipt triggers FFIP flooding to all
//! out-neighbors; the application [`Protocol`] chooses local actions.
//!
//! An event costs its receipts, its sends and their event-queue
//! operations, so a run takes time linear in its events and messages (up
//! to the queue's logarithm). The [`View`] handed to the protocol at each
//! event computes `past(r, σ)` only when the protocol reads it, and that
//! read walks the whole past: a protocol that reads its past at every
//! event makes the run quadratic, one that never does
//! ([`crate::protocols::Ffip`]) keeps it linear.

use std::collections::BTreeMap;

use crate::error::BcmError;
use crate::event::Receipt;
use crate::message::{ExternalId, ExternalRecord, MessageId, MessageRecord};
use crate::net::{Channel, Context, ProcessId};
use crate::process::Protocol;
use crate::run::{NodeId, NodeRecord, Run};
use crate::scheduler::{PendingSend, Scheduler};
use crate::time::Time;
use crate::view::View;

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Record the run up to (and including) this time.
    pub horizon: Time,
}

impl SimConfig {
    /// Creates a configuration recording up to `horizon`.
    pub fn with_horizon(horizon: Time) -> Self {
        SimConfig { horizon }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            horizon: Time::new(100),
        }
    }
}

#[derive(Debug, Default)]
struct Batch {
    messages: Vec<MessageId>,
    externals: Vec<usize>,
}

/// The simulator: a context, a horizon, and scheduled external inputs.
///
/// # Examples
///
/// ```
/// use zigzag_bcm::{Simulator, SimConfig, Network, Time};
/// use zigzag_bcm::protocols::Ffip;
/// use zigzag_bcm::scheduler::RandomScheduler;
/// # fn main() -> Result<(), zigzag_bcm::BcmError> {
/// let mut b = Network::builder();
/// let i = b.add_process("i");
/// let j = b.add_process("j");
/// b.add_bidirectional(i, j, 1, 4)?;
/// let ctx = b.build()?;
/// let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(50)));
/// sim.external(Time::new(1), i, "kick");
/// let run = sim.run(&mut Ffip::new(), &mut RandomScheduler::seeded(7))?;
/// assert!(run.node_count() > 2); // flooding ping-pong filled the horizon
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator {
    context: std::sync::Arc<Context>,
    config: SimConfig,
    externals: Vec<(Time, ProcessId, String)>,
}

impl Simulator {
    /// Creates a simulator for `context` (owned, or shared as an
    /// `Arc<Context>` so batch workloads don't deep-copy the network per
    /// simulator).
    pub fn new(context: impl Into<std::sync::Arc<Context>>, config: SimConfig) -> Self {
        Simulator {
            context: context.into(),
            config,
            externals: Vec::new(),
        }
    }

    /// Schedules a spontaneous external input named `name` to be delivered
    /// to `proc` at time `time`.
    ///
    /// External deliveries at time 0 are rejected at run time (processes
    /// cannot act at time 0, paper §2.1 footnote 4).
    pub fn external(&mut self, time: Time, proc: ProcessId, name: impl Into<String>) -> &mut Self {
        self.externals.push((time, proc, name.into()));
        self
    }

    /// The context the simulator operates in.
    pub fn context(&self) -> &Context {
        &self.context
    }

    /// Runs the system, producing a recorded run prefix.
    ///
    /// # Errors
    ///
    /// Fails if an external input is invalid (time 0, unknown process) or if
    /// the scheduler returns an out-of-window delivery time.
    pub fn run(
        &self,
        protocol: &mut dyn Protocol,
        scheduler: &mut dyn Scheduler,
    ) -> Result<Run, BcmError> {
        let horizon = self.config.horizon;
        let mut run = Run::skeleton(self.context.clone(), horizon);

        // (time, proc) -> batch of receipts, deterministic order.
        let mut queue: BTreeMap<(Time, ProcessId), Batch> = BTreeMap::new();

        // Register external inputs.
        let mut ext_records: Vec<(Time, ProcessId, String)> = self.externals.clone();
        ext_records.sort();
        for (k, (t, p, name)) in ext_records.iter().enumerate() {
            if t.is_zero() {
                return Err(BcmError::InvalidExternal {
                    detail: format!("external '{name}' scheduled at time 0"),
                });
            }
            if !self.context.network().contains(*p) {
                return Err(BcmError::InvalidExternal {
                    detail: format!("external '{name}' targets unknown process {p}"),
                });
            }
            if *t > horizon {
                continue;
            }
            queue.entry((*t, *p)).or_default().externals.push(k);
        }

        while let Some((&(time, proc), _)) = queue.iter().next() {
            let batch = queue.remove(&(time, proc)).expect("key just observed");
            debug_assert!(time <= horizon);

            // Create the new basic node observing this batch.
            let index = run.timeline(proc).len() as u32;
            let node = NodeId::new(proc, index);
            let mut rec = NodeRecord::new(node, time);
            for m in &batch.messages {
                rec.push_receipt(Receipt::Internal(*m));
            }
            for &k in &batch.externals {
                let (t, p, name) = &ext_records[k];
                debug_assert_eq!((*t, *p), (time, proc));
                let eid = ExternalId::new(run.externals().len() as u32);
                rec.push_receipt(Receipt::External(eid));
                run.push_external(ExternalRecord::new(eid, name.clone(), proc, time, node));
            }
            run.push_node(rec);
            for m in &batch.messages {
                run.message_mut(*m).set_delivery(node, time);
            }

            // Application actions.
            let actions = {
                let view = View::new(&run, node);
                protocol.on_event(&view)
            };
            for a in actions {
                run.node_mut(node)
                    .push_action(crate::event::ActionRecord::new(a.into_name()));
            }

            // FFIP flooding: send full-information messages to all
            // out-neighbors.
            let neighbors: Vec<ProcessId> = self.context.network().out_neighbors(proc).to_vec();
            for dst in neighbors {
                let channel = Channel::new(proc, dst);
                let bounds = self
                    .context
                    .bounds()
                    .get(channel)
                    .expect("network channels always have bounds");
                let send = PendingSend {
                    src: node,
                    channel,
                    sent_at: time,
                    bounds,
                };
                let deliver_at = scheduler.schedule(&run, send);
                if deliver_at < send.earliest() || deliver_at > send.latest() {
                    return Err(BcmError::SchedulerMisbehaved {
                        detail: format!(
                            "channel {channel}: sent at {time}, scheduled {deliver_at}, window [{}, {}]",
                            send.earliest(),
                            send.latest()
                        ),
                    });
                }
                let mid = MessageId::new(run.messages().len() as u32);
                run.push_message(MessageRecord::new(mid, node, channel, time, deliver_at));
                run.node_mut(node).push_sent(mid);
                if deliver_at <= horizon {
                    queue
                        .entry((deliver_at, dst))
                        .or_default()
                        .messages
                        .push(mid);
                }
            }
        }

        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Network;
    use crate::protocols::Ffip;
    use crate::scheduler::{EagerScheduler, FnScheduler, LazyScheduler};
    use crate::validate::{validate_run, Strictness};

    fn pair() -> Context {
        let mut b = Network::builder();
        let i = b.add_process("i");
        let j = b.add_process("j");
        b.add_bidirectional(i, j, 2, 5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn quiescent_without_externals() {
        let sim = Simulator::new(pair(), SimConfig::with_horizon(Time::new(50)));
        let run = sim.run(&mut Ffip::new(), &mut EagerScheduler).unwrap();
        assert_eq!(run.node_count(), 2); // only initial nodes
        assert!(run.messages().is_empty());
    }

    #[test]
    fn flooding_ping_pong() {
        let ctx = pair();
        let i = ProcessId::new(0);
        let j = ProcessId::new(1);
        let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(20)));
        sim.external(Time::new(1), i, "kick");
        let run = sim.run(&mut Ffip::new(), &mut EagerScheduler).unwrap();
        // i acts at 1, sends to j (arrives 3), j replies (arrives 5), ...
        assert_eq!(run.time(NodeId::new(i, 1)), Some(Time::new(1)));
        assert_eq!(run.time(NodeId::new(j, 1)), Some(Time::new(3)));
        assert_eq!(run.time(NodeId::new(i, 2)), Some(Time::new(5)));
        validate_run(&run, Strictness::Strict).unwrap();
        // With eager delivery, nodes appear every 2 ticks until the horizon.
        assert!(run.timeline(i).len() >= 5);
    }

    #[test]
    fn lazy_schedule_validates() {
        let mut sim = Simulator::new(pair(), SimConfig::with_horizon(Time::new(23)));
        sim.external(Time::new(2), ProcessId::new(1), "kick");
        let run = sim.run(&mut Ffip::new(), &mut LazyScheduler).unwrap();
        validate_run(&run, Strictness::Strict).unwrap();
        assert_eq!(
            run.time(NodeId::new(ProcessId::new(0), 1)),
            Some(Time::new(7))
        );
    }

    #[test]
    fn rejects_time_zero_external() {
        let mut sim = Simulator::new(pair(), SimConfig::default());
        sim.external(Time::ZERO, ProcessId::new(0), "bad");
        let err = sim.run(&mut Ffip::new(), &mut EagerScheduler).unwrap_err();
        assert!(matches!(err, BcmError::InvalidExternal { .. }));
    }

    #[test]
    fn rejects_unknown_external_target() {
        let mut sim = Simulator::new(pair(), SimConfig::default());
        sim.external(Time::new(1), ProcessId::new(9), "bad");
        let err = sim.run(&mut Ffip::new(), &mut EagerScheduler).unwrap_err();
        assert!(matches!(err, BcmError::InvalidExternal { .. }));
    }

    #[test]
    fn rejects_misbehaving_scheduler() {
        let mut sim = Simulator::new(pair(), SimConfig::default());
        sim.external(Time::new(1), ProcessId::new(0), "kick");
        let mut bad = FnScheduler(|_: &Run, send: PendingSend| send.sent_at); // too early
        let err = sim.run(&mut Ffip::new(), &mut bad).unwrap_err();
        assert!(matches!(err, BcmError::SchedulerMisbehaved { .. }));
    }

    #[test]
    fn externals_beyond_horizon_are_dropped() {
        let mut sim = Simulator::new(pair(), SimConfig::with_horizon(Time::new(5)));
        sim.external(Time::new(9), ProcessId::new(0), "late");
        let run = sim.run(&mut Ffip::new(), &mut EagerScheduler).unwrap();
        assert!(run.externals().is_empty());
        assert_eq!(run.node_count(), 2);
    }

    #[test]
    fn simultaneous_deliveries_form_one_node() {
        // Two externals to the same process at the same time: one node.
        let mut sim = Simulator::new(pair(), SimConfig::with_horizon(Time::new(10)));
        sim.external(Time::new(3), ProcessId::new(0), "x");
        sim.external(Time::new(3), ProcessId::new(0), "y");
        let run = sim.run(&mut Ffip::new(), &mut EagerScheduler).unwrap();
        let tl = run.timeline(ProcessId::new(0));
        assert_eq!(tl[1].receipts().len(), 2);
        validate_run(&run, Strictness::Strict).unwrap();
    }
}
