//! # zigzag-core — zigzag causality and knowledge of timed precedence
//!
//! This crate implements the contribution of Dan, Manohar and Moses,
//! *On Using Time Without Clocks via Zigzag Causality* (PODC 2017), on top
//! of the [`zigzag_bcm`] substrate:
//!
//! * [`node`] — basic and general nodes `⟨σ, p⟩` and their resolution
//!   `basic(θ, r)` (Definitions 3–4);
//! * [`fork`] / [`pattern`] — two-legged forks and zigzag patterns with
//!   their weights (Definitions 5–6);
//! * [`precedence`] — the timed-precedence relation `θ --x--> θ'`;
//! * [`graph`] — a weighted digraph on a clock with longest-path
//!   computation (one traversal: Dijkstra reweighted by the clock, which
//!   for a bounds graph is the run's recorded times, a valid timing by
//!   Lemma 8) and per-source memoization of results that catch up across
//!   appends;
//! * [`bounds_graph`] — the basic bounds graph `GB(r)` and its local
//!   restriction `GB(r, σ)` (Definitions 8, 14);
//! * [`extended_graph`] — the extended local bounds graph `GE(r, σ)` with
//!   per-process auxiliary nodes (Definition 16);
//! * [`timing`] — valid timing functions, p-closed node sets, the
//!   σ-precedence set `V_σ`, slow timing (Definition 13) and fast timing
//!   (Definition 23);
//! * [`construct`] — run constructions: `r[T]` from a valid timing
//!   (Lemma 8) and the fast run `fast_γ^σ(r, θ')` (Definition 24);
//! * [`visible`] — σ-visible zigzag patterns (Definition 7) and their
//!   validation;
//! * [`extract`] — witnesses: converting bounds-graph paths into zigzag
//!   patterns (Lemma 5) and `GE` constraint-paths into σ-visible zigzags
//!   (Lemmas 10–16);
//! * [`knowledge`] — the decision procedure for `K_σ(θ1 --x--> θ2)`
//!   realizing Theorem 4, with exact max-`x` queries (single and batched)
//!   and checkable witnesses, memoizing shared traversals across queries;
//! * [`incremental`] — run-level shared analysis in its append-only
//!   form: build the per-run state (`GB(r)`) once — over
//!   a whole recorded run in one pass, or event by event — delta-update
//!   it on append, and keep every queried observer's analysis warm in an
//!   LRU-able cache (byte-identical to the batch engine at every
//!   prefix);
//! * [`enumerate`] — exhaustive fork/zigzag enumeration on small runs,
//!   cross-checking the longest-path certificates by brute force;
//! * [`dot`] — Graphviz exports reproducing the paper's Figure 6–8
//!   drawings from live runs.
//!
//! The crate's theorems-as-APIs:
//!
//! | Paper | API |
//! |-------|-----|
//! | Theorem 1 (sufficiency) | [`pattern::ZigzagPattern::validate`] + [`precedence::satisfies`] |
//! | Theorem 2 (necessity) | [`bounds_graph::BoundsGraph::longest_path`] (the canonical maximum-weight path, read off distances) + [`extract::zigzag_from_gb_path`] + [`construct::slow_run`] |
//! | Theorem 4 (visible zigzag) | [`knowledge::KnowledgeEngine`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds_graph;
pub mod construct;
pub mod dot;
pub mod enumerate;
pub mod error;
pub mod extended_graph;
pub mod extract;
pub mod fork;
pub mod fx;
pub mod graph;
pub mod incremental;
pub mod knowledge;
pub mod node;
pub mod pattern;
pub mod precedence;
pub mod timing;
pub mod visible;

pub use error::CoreError;
pub use fork::TwoLeggedFork;
pub use incremental::IncrementalEngine;
pub use knowledge::{KnowledgeEngine, MaxXMatrix, ObserverCache, ObserverMode, ObserverState};
pub use node::GeneralNode;
pub use pattern::ZigzagPattern;
pub use visible::VisibleZigzag;
