//! Zigzag patterns (paper Definition 6) and their weights, with the
//! Theorem 1 guarantee as a checkable API.

use std::fmt;

use zigzag_bcm::{Bounds, NodeId, Run};

use crate::error::CoreError;
use crate::fork::TwoLeggedFork;
use crate::node::GeneralNode;

/// A zigzag pattern `Z = (F_1, …, F_c)`: a sequence of two-legged forks
/// where, for each adjacent pair, `head(F_k)` and `tail(F_{k+1})` lie on
/// the same process timeline with
/// `time_r(head(F_k)) <= time_r(tail(F_{k+1}))`.
///
/// The pattern runs *from* `tail(F_1)` *to* `head(F_c)` and guarantees
/// `tail(F_1) --wt(Z)--> head(F_c)` (Theorem 1), where
/// `wt(Z) = Σ wt(F_k) + S(Z)` and `S(Z)` counts adjacent pairs that are
/// **not** joined at the same basic node (each such pair contributes at
/// least one extra tick, since distinct nodes on a timeline are ≥ 1 apart).
///
/// Whether adjacent forks are joined depends on the run, so the weight is
/// computed by [`ZigzagPattern::validate`], which returns a [`ZigzagReport`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ZigzagPattern {
    forks: Vec<TwoLeggedFork>,
}

/// The result of validating a zigzag pattern in a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZigzagReport {
    /// `basic(tail(F_1), r)` — the *from* endpoint.
    pub from: NodeId,
    /// `basic(head(F_c), r)` — the *to* endpoint.
    pub to: NodeId,
    /// `wt(Z)` as realized in the run (fork weights plus separation count).
    pub weight: i64,
    /// `S(Z)`: how many adjacent fork pairs are not joined.
    pub separations: u32,
    /// The actual time gap `time_r(to) − time_r(from)` (always `>= weight`
    /// by Theorem 1).
    pub gap: i64,
}

impl ZigzagPattern {
    /// Creates a pattern from a non-empty fork sequence.
    ///
    /// Structural conditions that do not depend on a run are checked here:
    /// `head(F_k)` and `tail(F_{k+1})` must lie on the same process.
    /// Run-dependent conditions (ordering of the junction nodes) are
    /// checked by [`ZigzagPattern::validate`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedPattern`] on an empty sequence or a
    /// junction process mismatch.
    pub fn new(forks: Vec<TwoLeggedFork>) -> Result<Self, CoreError> {
        if forks.is_empty() {
            return Err(CoreError::MalformedPattern {
                detail: "empty fork sequence".into(),
            });
        }
        for (k, pair) in forks.windows(2).enumerate() {
            let head = pair[0].head();
            let tail = pair[1].tail();
            if head.proc() != tail.proc() {
                return Err(CoreError::MalformedPattern {
                    detail: format!(
                        "junction {k}: head on {} but next tail on {}",
                        head.proc(),
                        tail.proc()
                    ),
                });
            }
        }
        Ok(ZigzagPattern { forks })
    }

    /// The single-fork pattern.
    pub fn single(fork: TwoLeggedFork) -> Self {
        ZigzagPattern { forks: vec![fork] }
    }

    /// The forks `F_1, …, F_c`.
    pub fn forks(&self) -> &[TwoLeggedFork] {
        &self.forks
    }

    /// The forks `F_1, …, F_c`, by value.
    pub(crate) fn into_forks(self) -> Vec<TwoLeggedFork> {
        self.forks
    }

    /// Number of forks `c`.
    pub fn len(&self) -> usize {
        self.forks.len()
    }

    /// Patterns are never empty; always `false`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The *from* endpoint `tail(F_1)` as a general node.
    pub fn from_node(&self) -> GeneralNode {
        self.forks[0].tail()
    }

    /// The *to* endpoint `head(F_c)` as a general node.
    pub fn to_node(&self) -> GeneralNode {
        self.forks[self.forks.len() - 1].head()
    }

    /// Sum of fork weights (run-independent part of `wt(Z)`).
    ///
    /// # Errors
    ///
    /// Fails if a leg uses a channel missing from `bounds`.
    pub fn fork_weight_sum(&self, bounds: &Bounds) -> Result<i64, CoreError> {
        self.forks.iter().map(|f| f.weight(bounds)).sum()
    }

    /// Validates the pattern in `run` per Definition 6 and computes
    /// `wt(Z)`; also reports the achieved time gap (Theorem 1 asserts
    /// `gap >= weight` — this method checks it and treats a violation as a
    /// model bug via `debug_assert`, while still reporting honestly).
    ///
    /// # Errors
    ///
    /// Fails if any fork endpoint does not appear in the run, or if a
    /// junction violates `time(head(F_k)) <= time(tail(F_{k+1}))`.
    pub fn validate(&self, run: &Run) -> Result<ZigzagReport, CoreError> {
        let bounds = run.context().bounds();
        let mut weight = 0i64;
        let mut separations = 0u32;

        let mut resolved: Vec<(NodeId, NodeId)> = Vec::with_capacity(self.forks.len());
        for f in &self.forks {
            weight += f.weight(bounds)?;
            resolved.push(f.resolve(run)?);
        }
        for (k, pair) in resolved.windows(2).enumerate() {
            let (_, head_k) = pair[0];
            let (tail_next, _) = pair[1];
            debug_assert_eq!(head_k.proc(), tail_next.proc());
            let t_head = run.time(head_k).expect("resolved");
            let t_tail = run.time(tail_next).expect("resolved");
            if t_head > t_tail {
                return Err(CoreError::MalformedPattern {
                    detail: format!(
                        "junction {k}: head(F_{}) at {t_head} after tail(F_{}) at {t_tail}",
                        k + 1,
                        k + 2
                    ),
                });
            }
            if head_k != tail_next {
                separations += 1;
            }
        }
        weight += separations as i64;

        let from = resolved[0].0;
        let to = resolved[resolved.len() - 1].1;
        let gap = run
            .time(to)
            .expect("resolved")
            .diff(run.time(from).expect("resolved"));
        debug_assert!(gap >= weight, "Theorem 1 violated: gap {gap} < wt {weight}");
        Ok(ZigzagReport {
            from,
            to,
            weight,
            separations,
            gap,
        })
    }

    /// Concatenates two patterns whose junction satisfies the structural
    /// condition (`head` of `self`'s last fork and `tail` of `other`'s
    /// first fork on the same process), moving the forks of both.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedPattern`] on a junction mismatch.
    pub fn concat(self, other: ZigzagPattern) -> Result<ZigzagPattern, CoreError> {
        let mut forks = self.forks;
        forks.extend(other.forks);
        ZigzagPattern::new(forks)
    }
}

impl fmt::Display for ZigzagPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "zigzag[{} fork(s): ", self.forks.len())?;
        for (k, fork) in self.forks.iter().enumerate() {
            if k > 0 {
                write!(f, " ; ")?;
            }
            write!(f, "{fork}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zigzag_bcm::protocols::Ffip;
    use zigzag_bcm::scheduler::{PerChannelScheduler, RandomScheduler};
    use zigzag_bcm::{Channel, NetPath, Network, ProcessId, SimConfig, Simulator, Time};

    /// Figure 2a topology: processes A, B, C, D, E.
    /// C -> A, C -> D, E -> D, E -> B.
    /// Bounds chosen so Equation (1) gives −U_CA + L_CD − U_ED + L_EB = x.
    struct Fig2 {
        a: ProcessId,
        b: ProcessId,
        c: ProcessId,
        d: ProcessId,
        e: ProcessId,
        ctx: zigzag_bcm::Context,
    }

    fn fig2() -> Fig2 {
        let mut nb = Network::builder();
        let a = nb.add_process("A");
        let b = nb.add_process("B");
        let c = nb.add_process("C");
        let d = nb.add_process("D");
        let e = nb.add_process("E");
        nb.add_channel(c, a, 1, 3).unwrap(); // U_CA = 3
        nb.add_channel(c, d, 6, 8).unwrap(); // L_CD = 6
        nb.add_channel(e, d, 1, 2).unwrap(); // U_ED = 2
        nb.add_channel(e, b, 4, 7).unwrap(); // L_EB = 4
        let ctx = nb.build().unwrap();
        Fig2 { a, b, c, d, e, ctx }
    }

    /// Eq (1): −3 + 6 − 2 + 4 = 5, so a --5--> b whenever E's message to D
    /// arrives after C's.
    fn fig2_pattern(f: &Fig2, run: &Run) -> ZigzagPattern {
        let sigma_c = run.external_receipt_node(f.c, "go_c").unwrap();
        let sigma_e = run.external_receipt_node(f.e, "go_e").unwrap();
        let lower = TwoLeggedFork::new(
            GeneralNode::basic(sigma_c),
            NetPath::new(vec![f.c, f.d]).unwrap(),
            NetPath::new(vec![f.c, f.a]).unwrap(),
        )
        .unwrap();
        let upper = TwoLeggedFork::new(
            GeneralNode::basic(sigma_e),
            NetPath::new(vec![f.e, f.b]).unwrap(),
            NetPath::new(vec![f.e, f.d]).unwrap(),
        )
        .unwrap();
        ZigzagPattern::new(vec![lower, upper]).unwrap()
    }

    fn fig2_run(f: &Fig2, tc: u64, te: u64, seed: u64) -> Run {
        let mut sim = Simulator::new(f.ctx.clone(), SimConfig::with_horizon(Time::new(60)));
        sim.external(Time::new(tc), f.c, "go_c");
        sim.external(Time::new(te), f.e, "go_e");
        sim.run(&mut Ffip::new(), &mut RandomScheduler::seeded(seed))
            .unwrap()
    }

    #[test]
    fn fig2_weight_matches_equation_1() {
        let f = fig2();
        // Choose send times so that D surely hears C before E:
        // C's message to D arrives by tc+8; E's to D no earlier than te+1.
        let run = fig2_run(&f, 1, 20, 7);
        let z = fig2_pattern(&f, &run);
        let report = z.validate(&run).unwrap();
        // Both forks contribute −U + L; junction at D is (almost surely)
        // not joined, adding S(Z) = 1. wt = (6-3) + (4-2) + 1 = 6? No:
        // lower fork: head = C->D leg (L=6), tail = C->A leg (U=3): +3.
        // upper fork: head = E->B leg (L=4), tail = E->D leg (U=2): +2.
        // separations: 1 -> total 6. Eq (1) gives 5 + S.
        assert_eq!(report.separations, 1);
        assert_eq!(report.weight, 6);
        assert!(report.gap >= report.weight);
        assert_eq!(report.from.proc(), f.a);
        assert_eq!(report.to.proc(), f.b);
    }

    #[test]
    fn fig2_guarantee_across_seeds() {
        let f = fig2();
        for seed in 0..25 {
            let run = fig2_run(&f, 2, 15, seed);
            let z = fig2_pattern(&f, &run);
            let report = z.validate(&run).unwrap();
            assert!(
                report.gap >= report.weight,
                "Theorem 1 violated at seed {seed}: {report:?}"
            );
        }
    }

    #[test]
    fn junction_order_violation_detected() {
        let f = fig2();
        // Send E's message early and force C's to D to arrive *after* E's:
        // then head(F_1) (C's arrival at D) > tail(F_2) (E's arrival at D),
        // and the pattern is not a zigzag in this run.
        let mut sim = Simulator::new(f.ctx.clone(), SimConfig::with_horizon(Time::new(60)));
        sim.external(Time::new(10), f.c, "go_c");
        sim.external(Time::new(1), f.e, "go_e");
        let mut sched = PerChannelScheduler::new(0.5);
        sched.set_delay(Channel::new(f.c, f.d), 8);
        sched.set_delay(Channel::new(f.e, f.d), 1);
        let run = sim.run(&mut Ffip::new(), &mut sched).unwrap();
        let z = fig2_pattern(&f, &run);
        assert!(matches!(
            z.validate(&run),
            Err(CoreError::MalformedPattern { .. })
        ));
    }

    #[test]
    fn structural_checks_at_construction() {
        assert!(ZigzagPattern::new(vec![]).is_err());
        let f = fig2();
        let run = fig2_run(&f, 1, 20, 0);
        let sigma_c = run.external_receipt_node(f.c, "go_c").unwrap();
        let sigma_e = run.external_receipt_node(f.e, "go_e").unwrap();
        // Junction mismatch: lower head ends at D, upper tail at B.
        let lower = TwoLeggedFork::new(
            GeneralNode::basic(sigma_c),
            NetPath::new(vec![f.c, f.d]).unwrap(),
            NetPath::new(vec![f.c, f.a]).unwrap(),
        )
        .unwrap();
        let upper_bad = TwoLeggedFork::new(
            GeneralNode::basic(sigma_e),
            NetPath::new(vec![f.e, f.d]).unwrap(),
            NetPath::new(vec![f.e, f.b]).unwrap(),
        )
        .unwrap();
        assert!(ZigzagPattern::new(vec![lower, upper_bad]).is_err());
    }

    #[test]
    fn single_and_concat() {
        let f = fig2();
        let run = fig2_run(&f, 1, 20, 3);
        let z = fig2_pattern(&f, &run);
        let first = ZigzagPattern::single(z.forks()[0].clone());
        let second = ZigzagPattern::single(z.forks()[1].clone());
        let joined = first.concat(second.clone()).unwrap();
        assert_eq!(joined.len(), 2);
        assert!(!joined.is_empty());
        assert_eq!(joined.validate(&run).unwrap(), z.validate(&run).unwrap());
        assert!(joined.to_string().contains("zigzag[2 fork(s)"));
        // from/to accessors
        assert_eq!(joined.from_node().proc(), f.a);
        assert_eq!(joined.to_node().proc(), f.b);
        // Mismatched concat fails.
        assert!(second.clone().concat(second).is_err());
    }
}
