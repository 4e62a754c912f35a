//! # zigzag-bcm — the bounded communication model without clocks
//!
//! This crate implements the **bcm** model of Dan, Manohar and Moses,
//! *On Using Time Without Clocks via Zigzag Causality* (PODC 2017), §2:
//! a directed network of event-driven processes with **no clocks**, where
//! every channel `(i, j)` carries known integer bounds
//! `1 <= L_ij <= U_ij < ∞` on message transmission times.
//!
//! The crate provides:
//!
//! * [`Network`] / [`Bounds`] / [`Context`] — the time-bounded network
//!   `((Net, L, U), G_0)` in which protocols operate,
//! * [`Protocol`] implementations, most importantly the **flooding
//!   full-information protocol** ([`protocols::Ffip`]) used throughout the
//!   paper,
//! * [`Scheduler`] policies playing the role of the nondeterministic
//!   environment (eager, lazy, seeded-random, replay-driven, …),
//! * a discrete-event [`Simulator`] producing recorded [`Run`]s,
//! * run [`validate`](validate::validate_run)-ion certifying that a run is a
//!   legal member of `R(P, γ)`,
//! * causality queries on runs (`happens-before`, `past(r, σ)`, boundary
//!   nodes) and ASCII space–time [`diagram`]s,
//! * event [`stream`]s: replay recorded runs as ordered event feeds and
//!   grow runs append-only — the input of the incremental knowledge
//!   engine (`zigzag_core::incremental`),
//! * deterministic data-parallel helpers ([`par`]) used by the sweep and
//!   experiment layers to fan `(parameter, seed)` grids across threads
//!   with order-preserving results.
//!
//! Time is identified with the naturals (`u64` ticks); a process observes
//! **only** the events delivered to it, never the time — exactly as in the
//! paper's clockless model.
//!
//! ## Example
//!
//! ```
//! use zigzag_bcm::{Context, Network, Simulator, SimConfig, Time, ProcessId};
//! use zigzag_bcm::scheduler::EagerScheduler;
//! use zigzag_bcm::protocols::Ffip;
//!
//! # fn main() -> Result<(), zigzag_bcm::BcmError> {
//! // A three-process relay C -> A, C -> B with bounds [2,5] and [7,9].
//! let mut net = Network::builder();
//! let c = net.add_process("C");
//! let a = net.add_process("A");
//! let b = net.add_process("B");
//! net.add_channel(c, a, 2, 5)?;
//! net.add_channel(c, b, 7, 9)?;
//! let context = net.build()?;
//!
//! let mut sim = Simulator::new(context, SimConfig::with_horizon(Time::new(40)));
//! sim.external(Time::new(3), c, "go");
//! let run = sim.run(&mut Ffip::new(), &mut EagerScheduler)?;
//! assert!(run.timeline(a).len() > 1); // A heard from C
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod builder;
pub mod codec;
pub mod diagram;
pub mod error;
pub mod event;
pub mod message;
pub mod net;
pub mod par;
pub mod path;
pub mod process;
pub mod protocols;
pub mod run;
pub mod scheduler;
pub mod sim;
pub mod stats;
pub mod stream;
pub mod time;
pub mod topology;
pub mod validate;
pub mod view;

pub use bounds::{Bounds, ChannelBounds, MAX_BOUND};
pub use error::BcmError;
pub use event::{ActionRecord, Receipt};
pub use message::{ExternalId, ExternalRecord, MessageId, MessageRecord};
pub use net::{Channel, Context, Network, NetworkBuilder, ProcessId};
pub use path::NetPath;
pub use process::{Action, Protocol};
pub use run::{NodeId, NodeRecord, Run};
pub use scheduler::Scheduler;
pub use sim::{SimConfig, Simulator};
pub use stats::RunStats;
pub use stream::{ReceiptEvent, RunCursor, RunEvent, SendEvent, StreamingRun};
pub use time::Time;
pub use view::View;
