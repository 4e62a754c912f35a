//! # zigzag-coord — timed coordination without clocks
//!
//! The application layer of the reproduction of Dan, Manohar and Moses,
//! *On Using Time Without Clocks via Zigzag Causality* (PODC 2017): the
//! two timed-coordination problems of Definition 1 and the protocols that
//! solve them.
//!
//! * [`spec`] — `Early⟨b --x--> a⟩` / `Late⟨a --x--> b⟩` specifications
//!   and run verification;
//! * [`scenario`] — the Definition 1 harness (`C` relays a spontaneous
//!   trigger, `A` acts on receipt, `B` consults a pluggable strategy);
//! * [`optimal`] — **Protocol 2**: act exactly when a σ-visible zigzag of
//!   sufficient weight is known to exist (via
//!   [`zigzag_core::knowledge::KnowledgeEngine`]);
//! * [`baseline`] — the asynchronous message-chain strategy (Lamport) and
//!   the simple-fork strategy (Figure 1), which zigzag causality strictly
//!   generalizes;
//! * [`compare`] — quantitative comparisons across strategies and
//!   schedules (how much earlier can `B` act?);
//! * [`family`] — scenario-family batch execution: whole experiment
//!   families ([`Battery`] grids, [`ThresholdJob`] sweeps, heterogeneous
//!   [`CompareJob`] strategy tables) fused into one parallel grid with
//!   folds bit-identical to the serial sequence;
//! * [`stream`] — the online form: replay a schedule as an event feed
//!   through the incremental knowledge engine and report, after every
//!   event, whether `B` already knows enough to act.
//!
//! ## Example
//!
//! ```
//! use zigzag_bcm::{Network, Time};
//! use zigzag_bcm::scheduler::EagerScheduler;
//! use zigzag_coord::{CoordKind, OptimalStrategy, Scenario, TimedCoordination};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Figure 1: C → A [2,5], C → B [9,12]; B may act 4 ticks "after" A
//! // without ever exchanging a message with it.
//! let mut nb = Network::builder();
//! let c = nb.add_process("C");
//! let a = nb.add_process("A");
//! let b = nb.add_process("B");
//! nb.add_channel(c, a, 2, 5)?;
//! nb.add_channel(c, b, 9, 12)?;
//! let ctx = nb.build()?;
//!
//! let spec = TimedCoordination::new(CoordKind::Late { x: 4 }, a, b, c);
//! let scenario = Scenario::new(spec, ctx, Time::new(3), Time::new(60))?;
//! let (run, verdict) = scenario.run_verified(&mut OptimalStrategy::new(), &mut EagerScheduler)?;
//! assert!(verdict.ok);
//! assert!(verdict.b_node.is_some()); // B acted, with the guarantee intact
//! # let _ = run;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod compare;
pub mod error;
pub mod family;
pub mod optimal;
pub mod scenario;
pub mod spec;
pub mod stream;
pub mod sweep;

pub use baseline::{AsyncChainStrategy, SimpleForkStrategy};
pub use compare::{compare_strategies, StrategySummary};
pub use error::CoordError;
pub use family::{
    compare_grid, compare_grid_with, run_batteries, thresholds, Battery, BatteryOutcome,
    CompareJob, StrategyFactory, ThresholdJob,
};
pub use optimal::{knows_required, OptimalStrategy, PatternStrategy};
pub use scenario::{BStrategy, NeverStrategy, RecklessStrategy, Scenario};
pub use spec::{verify, CoordKind, TimedCoordination, Verdict};
pub use stream::{decide_at, first_knowledge, ProbeSemantics, StepReport, StreamDriver};
pub use sweep::{threshold, SweepFamily, Threshold};
