//! # zigzag-api — the unified service facade
//!
//! The single public entry point over the zigzag-causality engines: a
//! [`ZigzagService`] owns [`StreamSession`]s — opened over a complete
//! recorded run (a **batch** session: the run restored as the last
//! prefix of its own event stream) or over an empty live event feed —
//! and answers one serializable [`Query`] family through one
//! [`ZigzagService::dispatch`] code path. The paper's Theorem 4 reduces
//! every knowledge question to this closed family (thresholds, the
//! knowledge predicate, witnesses, fast-run refutations, tight bounds,
//! the Protocol 2 coordination decision), which is exactly the shape of a
//! typed request/response serving API.
//!
//! Sessions carry an explicit [`SessionConfig`]:
//!
//! * [`CachePolicy`] — an LRU bound on the warm per-observer analysis
//!   states queries build (a memory knob for serving deployments; answers
//!   are byte-identical under any bound);
//! * [`ProbeSemantics`] — whether coordination decisions at a node see
//!   the node's own FFIP sends;
//! * an optional [`TimedCoordination`] spec enabling
//!   [`Query::CoordDecision`].
//!
//! Every answer is byte-identical to the corresponding direct engine call
//! (`KnowledgeEngine`, `IncrementalEngine`, `coord`) however the session
//! was opened and at every stream prefix — pinned by the differential
//! oracle.
//! [`wire`] gives queries and responses a stable line-oriented text
//! encoding (embedding runs as `zigzag-run v2` documents), and
//! [`serve`] runs the high-throughput form: the session table is sharded
//! ([`ZigzagService::sharded`]), and [`serve::serve`] fans wire-encoded
//! request frames across N worker threads, each owning its shards — no
//! cross-worker locking, per-session arrival order, responses
//! byte-identical to the serial loop at any worker count.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use zigzag_api::{Query, Response, SessionConfig, ZigzagService};
//! use zigzag_bcm::protocols::Ffip;
//! use zigzag_bcm::scheduler::EagerScheduler;
//! use zigzag_bcm::{Network, RunCursor, SimConfig, Simulator, Time};
//! use zigzag_core::GeneralNode;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Figure 1: C → A [1,3], C → B [7,9].
//! let mut b = Network::builder();
//! let c = b.add_process("C");
//! let a = b.add_process("A");
//! let bb = b.add_process("B");
//! b.add_channel(c, a, 1, 3)?;
//! b.add_channel(c, bb, 7, 9)?;
//! let ctx = b.build()?;
//! let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(40)));
//! sim.external(Time::new(2), c, "go");
//! let run = sim.run(&mut Ffip::new(), &mut EagerScheduler)?;
//!
//! let service = ZigzagService::new();
//!
//! // Batch session over the recorded run...
//! let batch = service.open_batch(run.clone(), SessionConfig::new());
//! let sigma_c = run.external_receipt_node(c, "go").unwrap();
//! let theta_a = GeneralNode::chain(sigma_c, &[a])?;
//! let theta_b = GeneralNode::chain(sigma_c, &[bb])?;
//! let sigma = theta_b.resolve(&run)?;
//! let q = Query::MaxX { sigma, theta1: theta_a, theta2: theta_b };
//! assert_eq!(service.dispatch(batch, &q)?, Response::MaxX(Some(4)));
//!
//! // ...and a stream session fed the same schedule event-by-event
//! // answers identically at the full prefix.
//! let stream = service.open_stream(run.context_arc(), run.horizon(), SessionConfig::new());
//! let mut cursor = RunCursor::new(&run);
//! while let Some(ev) = cursor.next_event() {
//!     service.append(stream, &ev)?;
//! }
//! assert_eq!(service.dispatch(stream, &q)?, Response::MaxX(Some(4)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod config;
pub mod error;
pub mod fault;
pub mod net;
pub mod query;
pub mod serve;
pub mod service;
pub mod session;
pub mod stats;
pub mod store;
pub mod supervisor;
pub mod wire;

pub use client::{ClientConfig, ResilientClient};
pub use config::{CachePolicy, SessionConfig};
pub use error::Error;
pub use fault::{FaultPlan, FaultRates, LogFault, NetFault};
pub use net::{EnvelopeScanner, NetConfig, NetServer, ScanError};
pub use query::{CoordReport, FastRunReport, Query, Response, WitnessReport};
pub use service::{SessionId, ZigzagService};
pub use session::{AppendReport, StreamSession};
pub use stats::{LatencyHistogram, StatsReport, StoreCounters, TransportCounters, LATENCY_BUCKETS};
pub use store::{FsyncPolicy, Recovered, SessionSnapshot, SessionStore, StoreConfig};
pub use supervisor::SessionSupervisor;

// Re-exported so facade callers configure sessions without importing the
// coordination crate directly.
pub use zigzag_coord::{CoordKind, ProbeSemantics, TimedCoordination};
