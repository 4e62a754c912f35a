//! # zigzag — umbrella crate for the zigzag-causality reproduction
//!
//! A reproduction of Dan, Manohar, Moses, *On Using Time Without Clocks via
//! Zigzag Causality* (PODC 2017). This crate re-exports the four layers of
//! the workspace:
//!
//! * [`api`] — **the recommended entry point**: the unified service
//!   facade. A `ZigzagService` owns sessions (opened over recorded runs
//!   or live streams) and answers one serializable `Query` family —
//!   thresholds, the knowledge predicate, witnesses, fast-run
//!   refutations, `GB(r)` tight bounds, Protocol 2 coordination
//!   decisions — through one `dispatch` code path, with an explicit
//!   cache policy (LRU-bounded observer states) and probe semantics.
//!   `api::serve` fans wire-encoded
//!   frames across a sharded worker fleet, `api::net` puts that loop on
//!   a TCP or Unix socket (length-delimited envelopes, backpressure,
//!   graceful drain), and a `Stats` query reports latency histograms
//!   and cache counters from the wire;
//! * [`bcm`] — the bounded communication model without clocks: networks,
//!   transmission-time bounds, event-driven processes, the flooding
//!   full-information protocol, schedulers, discrete-event simulation, run
//!   recording/validation, event streams and space–time diagrams;
//! * [`core`] — zigzag causality: basic/general nodes, happens-before,
//!   two-legged forks, zigzag patterns, timed precedence, bounds graphs
//!   (`GB(r)`, `GB(r,σ)`, `GE(r,σ)`), timing functions, run
//!   constructions, the knowledge engine of Theorem 4, and its shared,
//!   incremental serving form (`IncrementalEngine`), built in one pass
//!   over a recorded run or grown event by event;
//! * [`coord`] — the timed-coordination layer: the `Early⟨b →x a⟩` /
//!   `Late⟨a →x b⟩` problems, the paper's optimal Protocol 2, baselines,
//!   and the streaming coordination driver.
//!
//! See `README.md` for a tour (including the migration table from the
//! pre-facade entry points) and `crates/bench/README.md` for the
//! experiment harness and testing strategy.
//!
//! ## Quickstart
//!
//! Simulate the paper's Figure 1, open one batch session and one live
//! stream session over the same schedule, and ask both what `B` knows —
//! the answers are byte-identical:
//!
//! ```
//! use zigzag::api::{Query, Response, SessionConfig, ZigzagService};
//! use zigzag::bcm::protocols::Ffip;
//! use zigzag::bcm::scheduler::RandomScheduler;
//! use zigzag::bcm::{Network, RunCursor, SimConfig, Simulator, Time};
//! use zigzag::core::GeneralNode;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Figure 1: C sends to A (bounds [2,5]) and to B (bounds [9,12]).
//! let mut b = Network::builder();
//! let c = b.add_process("C");
//! let a = b.add_process("A");
//! let bb = b.add_process("B");
//! b.add_channel(c, a, 2, 5)?;
//! b.add_channel(c, bb, 9, 12)?;
//! let ctx = b.build()?;
//!
//! let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(60)));
//! sim.external(Time::new(3), c, "go");
//! let run = sim.run(&mut Ffip::new(), &mut RandomScheduler::seeded(1))?;
//!
//! // When B receives C's message it *knows* A received it >= 4 earlier.
//! let sigma_c = run.external_receipt_node(c, "go").unwrap();
//! let theta_a = GeneralNode::chain(sigma_c, &[a])?;
//! let theta_b = GeneralNode::chain(sigma_c, &[bb])?;
//! let query = Query::MaxX {
//!     sigma: theta_b.resolve(&run)?,
//!     theta1: theta_a,
//!     theta2: theta_b,
//! };
//!
//! let service = ZigzagService::new();
//! // Batch: a session over the complete recorded run.
//! let batch = service.open_batch(run.clone(), SessionConfig::new());
//! assert_eq!(service.dispatch(batch, &query)?, Response::MaxX(Some(9 - 5)));
//!
//! // Streaming: the same schedule fed event-by-event; the session
//! // answers after every append, and at the full prefix it agrees with
//! // the batch session exactly.
//! let stream = service.open_stream(run.context_arc(), run.horizon(), SessionConfig::new());
//! let mut cursor = RunCursor::new(&run);
//! while let Some(ev) = cursor.next_event() {
//!     service.append(stream, &ev)?;
//! }
//! assert_eq!(service.dispatch(stream, &query)?, Response::MaxX(Some(4)));
//! # Ok(())
//! # }
//! ```

pub use zigzag_api as api;
pub use zigzag_bcm as bcm;
pub use zigzag_coord as coord;
pub use zigzag_core as core;
