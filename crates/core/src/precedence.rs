//! The timed-precedence relation `θ --x--> θ'` (paper §3, after Moses–Bloom \[30\]):
//! "`θ` occurs at least `x` time units before `θ'`".
//!
//! `x` may be negative: `θ --(-y)--> θ'` states that `θ'` occurs at most
//! `y` units *before* `θ` — i.e. an upper bound on how much later `θ` is.

use zigzag_bcm::Run;

use crate::error::CoreError;
use crate::node::GeneralNode;

/// A timed-precedence statement `from --x--> to`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Precedence {
    /// The earlier node `θ`.
    pub from: GeneralNode,
    /// The later node `θ'`.
    pub to: GeneralNode,
    /// The required separation `x` (possibly negative).
    pub x: i64,
}

impl Precedence {
    /// Creates the statement `from --x--> to`.
    pub fn new(from: GeneralNode, to: GeneralNode, x: i64) -> Self {
        Precedence { from, to, x }
    }

    /// Whether the statement holds in `run`; see [`satisfies`].
    ///
    /// # Errors
    ///
    /// Fails if a node's chain leaves the recorded horizon.
    pub fn holds_in(&self, run: &Run) -> Result<bool, CoreError> {
        satisfies(run, &self.from, &self.to, self.x)
    }
}

impl std::fmt::Display for Precedence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} --{}--> {}", self.from, self.x, self.to)
    }
}

/// Decides `(R, r) |= θ1 --x--> θ2`: both nodes appear in `r` and
/// `time_r(θ1) + x <= time_r(θ2)`.
///
/// Returns `Ok(false)` when a node's base is missing from the run (the
/// statement simply does not hold), and an error only when resolution is
/// cut off by the horizon (the truth value is genuinely unknown).
///
/// # Errors
///
/// Returns [`CoreError::HorizonTooSmall`] if a chain leaves the prefix.
pub fn satisfies(
    run: &Run,
    theta1: &GeneralNode,
    theta2: &GeneralNode,
    x: i64,
) -> Result<bool, CoreError> {
    let t1 = match theta1.time_in(run) {
        Ok(t) => t,
        Err(CoreError::HorizonTooSmall { detail }) => {
            return Err(CoreError::HorizonTooSmall { detail })
        }
        Err(_) => return Ok(false),
    };
    let t2 = match theta2.time_in(run) {
        Ok(t) => t,
        Err(CoreError::HorizonTooSmall { detail }) => {
            return Err(CoreError::HorizonTooSmall { detail })
        }
        Err(_) => return Ok(false),
    };
    // Compare the gap with `x`, never add `x` to a time.
    let gap = i128::from(t2.ticks()) - i128::from(t1.ticks());
    Ok(gap >= i128::from(x))
}

/// The exact separation `time_r(θ2) − time_r(θ1)`, i.e. the largest `x`
/// for which `θ1 --x--> θ2` holds in this particular run.
///
/// # Errors
///
/// Fails if either node does not appear in the run.
pub fn gap(run: &Run, theta1: &GeneralNode, theta2: &GeneralNode) -> Result<i64, CoreError> {
    let t1 = theta1.time_in(run)?;
    let t2 = theta2.time_in(run)?;
    Ok(t2.diff(t1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zigzag_bcm::protocols::Ffip;
    use zigzag_bcm::scheduler::EagerScheduler;
    use zigzag_bcm::{Network, NodeId, ProcessId, SimConfig, Simulator, Time};

    fn run() -> Run {
        let mut b = Network::builder();
        let i = b.add_process("i");
        let j = b.add_process("j");
        b.add_bidirectional(i, j, 3, 6).unwrap();
        let ctx = b.build().unwrap();
        let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(30)));
        sim.external(Time::new(2), i, "kick");
        sim.run(&mut Ffip::new(), &mut EagerScheduler).unwrap()
    }

    #[test]
    fn gap_and_satisfies_agree() {
        let r = run();
        let i1: GeneralNode = NodeId::new(ProcessId::new(0), 1).into(); // t=2
        let j1: GeneralNode = NodeId::new(ProcessId::new(1), 1).into(); // t=5
        assert_eq!(gap(&r, &i1, &j1).unwrap(), 3);
        assert!(satisfies(&r, &i1, &j1, 3).unwrap());
        assert!(!satisfies(&r, &i1, &j1, 4).unwrap());
        // Negative x: j1 occurs at most 3 after i1... i.e. j1 --(-3)--> i1.
        assert!(satisfies(&r, &j1, &i1, -3).unwrap());
        assert!(!satisfies(&r, &j1, &i1, -2).unwrap());
    }

    #[test]
    fn missing_node_means_not_satisfied() {
        let r = run();
        let ghost: GeneralNode = NodeId::new(ProcessId::new(0), 99).into();
        let i1: GeneralNode = NodeId::new(ProcessId::new(0), 1).into();
        assert!(!satisfies(&r, &ghost, &i1, 0).unwrap());
        assert!(!satisfies(&r, &i1, &ghost, 0).unwrap());
        assert!(gap(&r, &ghost, &i1).is_err());
    }

    #[test]
    fn horizon_cutoff_is_an_error() {
        let r = run();
        // Chain that pings far beyond the horizon.
        let mut theta: GeneralNode = NodeId::new(ProcessId::new(0), 1).into();
        for _ in 0..20 {
            theta = theta.hop(ProcessId::new(1)).unwrap();
            theta = theta.hop(ProcessId::new(0)).unwrap();
        }
        let i1: GeneralNode = NodeId::new(ProcessId::new(0), 1).into();
        assert!(matches!(
            satisfies(&r, &theta, &i1, 0),
            Err(CoreError::HorizonTooSmall { .. })
        ));
    }

    #[test]
    fn precedence_struct() {
        let r = run();
        let i1: GeneralNode = NodeId::new(ProcessId::new(0), 1).into();
        let j1: GeneralNode = NodeId::new(ProcessId::new(1), 1).into();
        let p = Precedence::new(i1.clone(), j1.clone(), 2);
        assert!(p.holds_in(&r).unwrap());
        assert!(p.to_string().contains("--2-->"));
    }
}
