//! Deterministic fault injection for the serving and durability layers.
//!
//! A [`FaultPlan`] is a seeded, schedule-driven chaos source threaded
//! behind the existing I/O seams: the counted socket halves in
//! [`crate::net`] and the log/snapshot write paths in [`crate::store`].
//! Every seam consults the plan through an `Option<Arc<FaultPlan>>`; when
//! the option is `None` (the default everywhere) the check is a single
//! branch on a niche-optimized pointer — no allocation, no lock, no rand
//! call — so the zero-allocation steady-state and throughput gates hold
//! with the hooks compiled in but disarmed.
//!
//! Determinism has two layers. Each injection *site* (network read,
//! network write, log write, fsync, snapshot write) owns its own
//! sub-generator, seeded from the plan seed and a fixed per-site tag, so
//! the fault sequence seen by one site does not depend on how the other
//! sites' calls interleave across threads. On top of that, an optional
//! *budget* caps the total number of injected faults; once spent, the plan
//! goes quiescent and the system must converge — this is what lets the
//! chaos oracle in `tests/chaos.rs` assert liveness (every request
//! eventually succeeds or surfaces a typed error) rather than racing an
//! adversary forever.

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Probability knobs for one [`FaultPlan`], in parts per 1000 per
/// injection opportunity.
///
/// All rates default to zero; a plan with all-zero rates injects nothing
/// regardless of seed, which is occasionally useful as a control arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultRates {
    /// Per-read chance (‰) of a short read: the read is truncated to one
    /// byte, exercising the scanner's partial-frame resumption.
    pub short_read: u32,
    /// Per-read chance (‰) of a connection reset surfaced as
    /// [`io::ErrorKind::ConnectionReset`].
    pub read_reset: u32,
    /// Per-write chance (‰) of a short write: only one byte is accepted,
    /// exercising `write_all` resumption and coalescing paths.
    pub short_write: u32,
    /// Per-write chance (‰) of a broken pipe surfaced as
    /// [`io::ErrorKind::ConnectionReset`].
    pub write_reset: u32,
    /// Per-I/O-call chance (‰) of injected latency (a short sleep) before
    /// the call proceeds, reordering timing without corrupting data.
    pub delay: u32,
    /// Per-log-append chance (‰) of a torn write: a strict prefix of the
    /// record reaches the file, then the append fails.
    pub torn_log_write: u32,
    /// Per-fsync chance (‰) of a failed `sync_all`.
    pub fsync_fail: u32,
    /// Per-snapshot-write chance (‰) of a disk-full failure before the
    /// temp file is renamed into place.
    pub snapshot_full: u32,
}

impl FaultRates {
    /// A moderately hostile all-fault profile used by the chaos tests:
    /// every fault class armed at a few percent per opportunity.
    pub fn hostile() -> Self {
        FaultRates {
            short_read: 60,
            read_reset: 25,
            short_write: 60,
            write_reset: 25,
            delay: 30,
            torn_log_write: 40,
            fsync_fail: 40,
            snapshot_full: 40,
        }
    }
}

/// One independent per-site fault stream: its own generator plus a count
/// of the opportunities consulted.
struct Site {
    rng: Mutex<StdRng>,
    consulted: AtomicU64,
}

impl Site {
    fn new(seed: u64, tag: u64) -> Self {
        // Mix the site tag into the seed with SplitMix64's odd constant so
        // sites draw unrelated streams from one plan seed.
        Site {
            rng: Mutex::new(StdRng::seed_from_u64(
                seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )),
            consulted: AtomicU64::new(0),
        }
    }

    /// Draws one per-mille roll from this site's stream.
    fn roll(&self) -> u32 {
        self.consulted.fetch_add(1, Ordering::Relaxed);
        self.rng
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .gen_range(0u32..1000)
    }
}

/// A seeded, schedule-driven fault injector shared by the network and
/// store seams. See the [module docs](self) for the determinism model.
pub struct FaultPlan {
    seed: u64,
    rates: FaultRates,
    /// Remaining fault budget; `u64::MAX` means unlimited.
    budget: AtomicU64,
    injected: AtomicU64,
    net_read: Site,
    net_write: Site,
    log_write: Site,
    fsync: Site,
    snapshot: Site,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("rates", &self.rates)
            .field("injected", &self.injected.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Verdict for one network I/O opportunity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Proceed normally.
    None,
    /// Truncate this read/write to a single byte.
    Short,
    /// Fail with a connection reset.
    Reset,
    /// Sleep for the given duration, then proceed normally.
    Delay(Duration),
}

/// Verdict for one log-append opportunity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFault {
    /// Proceed normally.
    None,
    /// Write only the given number of bytes (a strict prefix), then fail.
    Torn(usize),
}

impl FaultPlan {
    /// Creates a plan with the given seed and rates and no fault budget
    /// (faults keep firing forever).
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        Self::with_budget(seed, rates, u64::MAX)
    }

    /// Creates a plan that quiesces after injecting `budget` faults in
    /// total (across all sites). The chaos oracle relies on this to bound
    /// adversarial behavior: after the budget is spent the system must
    /// converge.
    pub fn with_budget(seed: u64, rates: FaultRates, budget: u64) -> Self {
        FaultPlan {
            seed,
            rates,
            budget: AtomicU64::new(budget),
            injected: AtomicU64::new(0),
            net_read: Site::new(seed, 1),
            net_write: Site::new(seed, 2),
            log_write: Site::new(seed, 3),
            fsync: Site::new(seed, 4),
            snapshot: Site::new(seed, 5),
        }
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total faults injected so far (all sites).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// How many fsyncs have consulted the plan so far, failed or not.
    pub fn fsyncs_consulted(&self) -> u64 {
        self.fsync.consulted.load(Ordering::Relaxed)
    }

    /// Tries to spend one unit of budget; returns `false` once exhausted.
    fn spend(&self) -> bool {
        let mut cur = self.budget.load(Ordering::Relaxed);
        loop {
            if cur == u64::MAX {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            if cur == 0 {
                return false;
            }
            match self.budget.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.injected.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Consults the plan before a network read.
    pub fn on_net_read(&self) -> NetFault {
        self.net_io(&self.net_read, self.rates.short_read, self.rates.read_reset)
    }

    /// Consults the plan before a network write.
    pub fn on_net_write(&self) -> NetFault {
        self.net_io(
            &self.net_write,
            self.rates.short_write,
            self.rates.write_reset,
        )
    }

    fn net_io(&self, site: &Site, short: u32, reset: u32) -> NetFault {
        // One roll decides among {short, reset, delay, none}: the bands are
        // disjoint so per-site streams stay deterministic regardless of
        // which fault classes are armed.
        let roll = site.roll();
        let fault = if roll < short {
            NetFault::Short
        } else if roll < short + reset {
            NetFault::Reset
        } else if roll < short + reset + self.rates.delay {
            NetFault::Delay(Duration::from_micros(50 + 137 * u64::from(roll % 7)))
        } else {
            return NetFault::None;
        };
        if self.spend() {
            fault
        } else {
            NetFault::None
        }
    }

    /// Consults the plan before appending a `record_len`-byte record to a
    /// session log.
    pub fn on_log_write(&self, record_len: usize) -> LogFault {
        let roll = self.log_write.roll();
        if roll < self.rates.torn_log_write && record_len > 1 && self.spend() {
            // Tear at a roll-derived strict prefix, never the full record.
            LogFault::Torn(1 + (roll as usize) % (record_len - 1))
        } else {
            LogFault::None
        }
    }

    /// Returns `true` if this fsync should fail.
    pub fn on_fsync(&self) -> bool {
        self.fsync.roll() < self.rates.fsync_fail && self.spend()
    }

    /// Returns `true` if this snapshot temp-file write should fail with
    /// disk-full.
    pub fn on_snapshot_write(&self) -> bool {
        self.snapshot.roll() < self.rates.snapshot_full && self.spend()
    }

    /// The `io::Error` used for injected connection resets.
    pub fn reset_error() -> io::Error {
        io::Error::new(io::ErrorKind::ConnectionReset, "injected connection reset")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn count_faults(plan: &FaultPlan, n: usize) -> usize {
        (0..n)
            .filter(|_| !matches!(plan.on_net_read(), NetFault::None))
            .count()
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::new(42, FaultRates::hostile());
        let b = FaultPlan::new(42, FaultRates::hostile());
        let seq_a: Vec<NetFault> = (0..500).map(|_| a.on_net_read()).collect();
        let seq_b: Vec<NetFault> = (0..500).map(|_| b.on_net_read()).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|f| !matches!(f, NetFault::None)));
    }

    #[test]
    fn sites_are_independent() {
        // Interleaving draws on one site must not perturb another site's
        // stream: that is the whole point of per-site sub-generators.
        let a = FaultPlan::new(7, FaultRates::hostile());
        let b = FaultPlan::new(7, FaultRates::hostile());
        let writes_a: Vec<NetFault> = (0..100).map(|_| a.on_net_write()).collect();
        for _ in 0..57 {
            let _ = b.on_net_read(); // extra reads interleaved
        }
        let writes_b: Vec<NetFault> = (0..100).map(|_| b.on_net_write()).collect();
        assert_eq!(writes_a, writes_b);
    }

    #[test]
    fn budget_quiesces_the_plan() {
        let plan = FaultPlan::with_budget(3, FaultRates::hostile(), 5);
        let fired = count_faults(&plan, 10_000);
        assert_eq!(fired, 5);
        assert_eq!(plan.injected(), 5);
        // Once spent, every later opportunity is a no-op.
        assert_eq!(count_faults(&plan, 1000), 0);
    }

    #[test]
    fn budget_is_thread_safe() {
        let plan = Arc::new(FaultPlan::with_budget(9, FaultRates::hostile(), 100));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&plan);
                thread::spawn(move || count_faults(&p, 5000))
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn torn_writes_are_strict_prefixes() {
        let plan = FaultPlan::new(11, FaultRates::hostile());
        let mut saw_torn = false;
        for _ in 0..500 {
            if let LogFault::Torn(n) = plan.on_log_write(64) {
                assert!((1..64).contains(&n), "tear point {n} out of range");
                saw_torn = true;
            }
        }
        assert!(saw_torn, "hostile rates never tore a write in 500 tries");
        // Records too short to tear are never torn.
        for _ in 0..500 {
            assert_eq!(plan.on_log_write(1), LogFault::None);
        }
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let plan = FaultPlan::new(1234, FaultRates::default());
        assert_eq!(count_faults(&plan, 2000), 0);
        assert!(!plan.on_fsync());
        assert!(!plan.on_snapshot_write());
        assert_eq!(plan.on_log_write(32), LogFault::None);
        assert_eq!(plan.injected(), 0);
    }
}
