//! Serving observability: latency histograms and the [`StatsReport`]
//! answered by [`crate::Query::Stats`].
//!
//! A serving deployment needs its load problems diagnosable *from the
//! wire*: a client that can send queries must be able to ask where the
//! time goes without shelling into the host. The `Stats` query surfaces
//! four signals through the ordinary wire encoding:
//!
//! * **per-query latency** — a fixed, log-spaced histogram
//!   ([`LatencyHistogram`]) of dispatch wall times, recorded by every
//!   service-level dispatch path ([`crate::ZigzagService::dispatch`] and
//!   the [`crate::serve`] / [`crate::net`] loops);
//! * **observer-cache effectiveness** — hit/miss/eviction counters
//!   aggregated over every open session's
//!   [`zigzag_core::knowledge::ObserverCache`];
//! * **load placement** — open sessions per table shard, and (when
//!   serving through [`crate::net`]) the current per-worker queue
//!   depths;
//! * **transport amortization** — when serving through [`crate::net`],
//!   the [`TransportCounters`]: bytes and syscalls in each direction,
//!   frames scanned per read and coalesced per writer flush, so the
//!   syscall-lean fast path's batching is observable from the wire.
//!
//! Everything here is `std`-only and allocation-free on the record path:
//! the histogram is a fixed array of atomic counters bumped with one
//! `fetch_add` per dispatch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A point-in-time snapshot of a [`crate::net`] server's transport
/// counters — the amortization ledger of the syscall-lean data path. All
/// fields are monotone over the server's lifetime.
///
/// The interesting quantities are the *ratios*: `frames_in /
/// read_syscalls` is how many frames each reader wakeup slurped out of
/// one `read`, `frames_out / writer_flushes` is how many replies each
/// writer wakeup coalesced into one batched write, and `bytes_out /
/// write_syscalls` is the payload a single write carried. A server
/// stuck at ~1 frame per syscall is paying PR 7's two-syscalls-per-
/// envelope tax; a pipelining client should push both ratios well
/// above one. A reader's `read` is billed as it starts, so each open
/// connection's reader counts the one it is blocked in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportCounters {
    /// Payload + envelope-header bytes read off client sockets.
    pub bytes_in: u64,
    /// Payload + envelope-header bytes written back to client sockets.
    pub bytes_out: u64,
    /// `read` calls issued on client sockets, billed as each starts
    /// (including reads that returned no data: end-of-stream probes).
    pub read_syscalls: u64,
    /// `write` calls issued on client sockets (the kernel may split a
    /// very large batched write; each server-issued call counts once).
    pub write_syscalls: u64,
    /// Complete request envelopes scanned out of the read buffers.
    pub frames_in: u64,
    /// Response envelopes batched for delivery (errors included),
    /// counted as each is copied into the outgoing batch — *before* its
    /// bytes reach the socket — so a client that has read a reply
    /// always finds it already counted here.
    pub frames_out: u64,
    /// Writer wakeups that flushed at least one coalesced batch —
    /// `frames_out / writer_flushes` is the frames-per-wakeup ratio.
    pub writer_flushes: u64,
    /// Connections accepted and successfully set up.
    pub connections: u64,
    /// Connections refused during setup (e.g. the socket could not be
    /// cloned for the writer half); each was answered with one
    /// deterministic error envelope before closing.
    pub conn_failures: u64,
}

/// The shared-state form of [`TransportCounters`]: one relaxed atomic
/// per counter, bumped by every reader/writer/accept thread of a
/// [`crate::net`] server without locks, snapshotted for [`StatsReport`].
#[derive(Debug, Default)]
pub struct TransportStats {
    /// See [`TransportCounters::bytes_in`].
    pub bytes_in: AtomicU64,
    /// See [`TransportCounters::bytes_out`].
    pub bytes_out: AtomicU64,
    /// See [`TransportCounters::read_syscalls`].
    pub read_syscalls: AtomicU64,
    /// See [`TransportCounters::write_syscalls`].
    pub write_syscalls: AtomicU64,
    /// See [`TransportCounters::frames_in`].
    pub frames_in: AtomicU64,
    /// See [`TransportCounters::frames_out`].
    pub frames_out: AtomicU64,
    /// See [`TransportCounters::writer_flushes`].
    pub writer_flushes: AtomicU64,
    /// See [`TransportCounters::connections`].
    pub connections: AtomicU64,
    /// See [`TransportCounters::conn_failures`].
    pub conn_failures: AtomicU64,
}

impl TransportStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        TransportStats::default()
    }

    /// A point-in-time copy of the counters (relaxed loads: each counter
    /// is monotone and independently meaningful).
    pub fn snapshot(&self) -> TransportCounters {
        TransportCounters {
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            read_syscalls: self.read_syscalls.load(Ordering::Relaxed),
            write_syscalls: self.write_syscalls.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            writer_flushes: self.writer_flushes.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            conn_failures: self.conn_failures.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of a service's durable-store counters — the
/// persistence ledger of [`crate::store::SessionStore`] plus the
/// migration traffic answered by `Query::Export` / `Query::Import`. All
/// fields are monotone over the service's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreCounters {
    /// Event records appended to session logs.
    pub events_logged: u64,
    /// Bytes written to session logs and snapshots (headers included,
    /// and logs that recovery regenerates).
    pub bytes_written: u64,
    /// Session snapshots written (cadence-triggered and explicit).
    pub snapshots: u64,
    /// Sessions recovered from disk ([`crate::store::SessionStore::recover`]).
    pub recoveries: u64,
    /// Migration operations answered: exports serialized plus imports
    /// installed, in-process or over the wire.
    pub migrations: u64,
}

/// The shared-state form of [`StoreCounters`]: one relaxed atomic per
/// counter, billed into by the service's durable sessions' logs, by
/// [`crate::store::SessionStore`] operations on the service and by the
/// service's own export/import path, snapshotted for [`StatsReport`].
#[derive(Debug, Default)]
pub struct StoreStats {
    /// See [`StoreCounters::events_logged`].
    pub events_logged: AtomicU64,
    /// See [`StoreCounters::bytes_written`].
    pub bytes_written: AtomicU64,
    /// See [`StoreCounters::snapshots`].
    pub snapshots: AtomicU64,
    /// See [`StoreCounters::recoveries`].
    pub recoveries: AtomicU64,
    /// See [`StoreCounters::migrations`].
    pub migrations: AtomicU64,
}

impl StoreStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        StoreStats::default()
    }

    /// A point-in-time copy of the counters (relaxed loads: each counter
    /// is monotone and independently meaningful).
    pub fn snapshot(&self) -> StoreCounters {
        StoreCounters {
            events_logged: self.events_logged.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            migrations: self.migrations.load(Ordering::Relaxed),
        }
    }
}

/// Number of histogram buckets. Bucket `i` counts latencies in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also absorbs 0 ns); the last
/// bucket absorbs everything from `2^31` ns (~2.1 s) up.
pub const LATENCY_BUCKETS: usize = 32;

/// A fixed log-spaced latency histogram: bucket `i` counts samples whose
/// wall time in nanoseconds satisfies `2^i <= ns < 2^(i+1)` (bucket 0
/// additionally holds 0–1 ns, the final bucket holds everything
/// ≥ `2^31` ns). Log-spaced fixed buckets keep the wire encoding stable
/// and the record path branch-free — no configuration handshake, no
/// dynamic re-bucketing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    /// Per-bucket sample counts; see [`LatencyHistogram::bucket_bounds`].
    pub buckets: [u64; LATENCY_BUCKETS],
}

/// The bucket index for a sample of `ns` nanoseconds.
fn bucket_of(ns: u128) -> usize {
    // floor(log2(ns)) clamped into [0, LATENCY_BUCKETS): 0 and 1 ns land
    // in bucket 0, and everything >= 2^(LATENCY_BUCKETS - 1) ns lands in
    // the final bucket.
    let ns = ns.max(1);
    ((127 - ns.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, elapsed: Duration) {
        self.buckets[bucket_of(elapsed.as_nanos())] += 1;
    }

    /// Total number of samples across all buckets.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The half-open nanosecond range `[lo, hi)` counted by bucket `i`
    /// (the final bucket's `hi` saturates at `u64::MAX`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= LATENCY_BUCKETS`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < LATENCY_BUCKETS, "bucket {i} out of range");
        let lo = if i == 0 { 0 } else { 1u64 << i };
        let hi = if i + 1 == LATENCY_BUCKETS {
            u64::MAX
        } else {
            1u64 << (i + 1)
        };
        (lo, hi)
    }
}

/// The shared-state form of [`LatencyHistogram`]: one atomic counter per
/// bucket, recorded into concurrently by every dispatch path of a
/// service without locks, snapshotted into a plain histogram for
/// [`StatsReport`].
#[derive(Debug, Default)]
pub struct LatencyRecorder {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        LatencyRecorder::default()
    }

    /// Records one sample (relaxed ordering: counters are monotone and
    /// independently meaningful; no cross-counter invariant is read).
    pub fn record(&self, elapsed: Duration) {
        self.buckets[bucket_of(elapsed.as_nanos())].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::new();
        for (o, b) in out.buckets.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

/// The answer to [`crate::Query::Stats`]: a point-in-time snapshot of a
/// service's serving counters. All counters are monotone over the
/// service's lifetime except [`StatsReport::sessions_per_shard`] and
/// [`StatsReport::queue_depths`], which are instantaneous gauges.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsReport {
    /// Dispatches recorded so far: every query (or whole `QueryBatch`)
    /// evaluated against a resolved session through a service-level path
    /// — [`crate::ZigzagService::dispatch`], [`crate::serve::serve`] or
    /// the [`crate::net`] loop — whether it succeeded or returned an
    /// error. Frames that never reach a session (undecodable, unknown
    /// session) are not dispatches.
    pub queries: u64,
    /// Wall-time histogram over those dispatches.
    pub latency: LatencyHistogram,
    /// Observer-state cache lookups served warm, summed over every open
    /// session (closed sessions take their counters with them).
    pub observer_hits: u64,
    /// Observer-state cache lookups that built a state, summed over
    /// every open session.
    pub observer_misses: u64,
    /// Observer states evicted under the sessions' LRU bounds, summed
    /// over every open session.
    pub observer_evictions: u64,
    /// Open sessions per table shard (gauge; indexed by shard).
    pub sessions_per_shard: Vec<u64>,
    /// Frames queued per worker right now (gauge; indexed by worker).
    /// Empty unless the report was answered by a [`crate::net`] server,
    /// whose bounded worker queues are the only queues that exist.
    pub queue_depths: Vec<u64>,
    /// Transport counters of the answering [`crate::net`] server: bytes
    /// and syscalls each way, frames scanned and written, and the
    /// coalescing ratios they imply (see [`TransportCounters`]). All
    /// zero when the report was answered in-process.
    pub transport: TransportCounters,
    /// Durability counters of the answering service: events logged,
    /// bytes persisted, snapshots, recoveries and migrations (see
    /// [`StoreCounters`]). All zero while the service has held no
    /// durable session and served no migration.
    pub store: StoreCounters,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log_spaced_and_clamped() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1_023), 9);
        assert_eq!(bucket_of(1_024), 10);
        assert_eq!(bucket_of(u128::MAX), LATENCY_BUCKETS - 1);
        for i in 0..LATENCY_BUCKETS {
            let (lo, hi) = LatencyHistogram::bucket_bounds(i);
            assert!(lo < hi, "bucket {i} bounds inverted");
            assert_eq!(bucket_of(lo.max(1) as u128), i);
            if i + 1 < LATENCY_BUCKETS {
                assert_eq!(bucket_of(hi as u128), i + 1);
            }
        }
    }

    #[test]
    fn recorder_snapshots_match_serial_histogram() {
        let recorder = LatencyRecorder::new();
        let mut serial = LatencyHistogram::new();
        for ns in [0u64, 1, 2, 500, 1_000, 1_000_000, u64::MAX] {
            let d = Duration::from_nanos(ns);
            recorder.record(d);
            serial.record(d);
        }
        assert_eq!(recorder.snapshot(), serial);
        assert_eq!(serial.count(), 7);
    }
}
