//! The chaos oracle (PR 10): deterministic fault schedules against a
//! live server + [`ResilientClient`], and against the durable store +
//! [`SessionSupervisor`].
//!
//! Every case arms a seeded, budget-bounded
//! [`FaultPlan`](zigzag::api::FaultPlan) — the budget guarantees the
//! plan eventually quiesces, so every case terminates — and holds the
//! serving stack to the resilience contract:
//!
//! * every client-visible outcome is a **typed error or byte-identical**
//!   to the fault-free reference run — never silent corruption;
//! * appends are **exactly-once**: the final event count equals the
//!   number of events fed, no matter how many resets, torn writes, or
//!   ambiguous failures the schedule injected;
//! * **no hangs**: requests carry deadlines, retries are capped, the
//!   shutdown drain is deadline-bounded, and the fault budget bounds the
//!   schedule itself.
//!
//! Two entry points: proptest-generated `(seed, budget)` cases, and the
//! `chaos_fixed_seed_net_and_store` test whose whole schedule is pinned
//! by the `CHAOS_SEED` environment variable — CI runs it under two fixed
//! seeds with a wall-clock guard (a hang is a failure, not a timeout to
//! shrug at).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use zigzag::api::supervisor::RecoverySweep;
use zigzag::api::{
    ClientConfig, CoordKind, Error, FaultPlan, FaultRates, FsyncPolicy, NetConfig, NetServer,
    Query, ResilientClient, Response, SessionConfig, SessionId, SessionStore, SessionSupervisor,
    StoreConfig, TimedCoordination, ZigzagService,
};
use zigzag::bcm::protocols::Ffip;
use zigzag::bcm::scheduler::RandomScheduler;
use zigzag::bcm::{NodeId, ProcessId, Run, RunCursor, SimConfig, Simulator, Time};

/// Per-case-unique scratch path (socket or store directory).
fn scratch(kind: &str, seed: u64) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "zigzag-chaos-{kind}-{}-{seed}-{n}",
        std::process::id()
    ))
}

/// A three-process feedback run (so coordination decides) with a seeded
/// random schedule — the chaos workload.
fn chaos_run(seed: u64) -> Run {
    let mut b = zigzag::bcm::Network::builder();
    let c = b.add_process("C");
    let a = b.add_process("A");
    let bb = b.add_process("B");
    b.add_channel(c, a, 1, 3).unwrap();
    b.add_channel(c, bb, 7, 9).unwrap();
    b.add_channel(bb, c, 2, 4).unwrap();
    let ctx = b.build().unwrap();
    let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(30)));
    sim.external(Time::new(2), c, "go");
    sim.run(&mut Ffip::new(), &mut RandomScheduler::seeded(seed))
        .unwrap()
}

fn coord_config() -> SessionConfig {
    SessionConfig::new().spec(TimedCoordination::new(
        CoordKind::Late { x: 4 },
        ProcessId::new(1),
        ProcessId::new(2),
        ProcessId::new(0),
    ))
}

/// The probe set answers are held byte-identical on.
fn probes(prefix_nodes: &[NodeId]) -> Vec<Query> {
    let mut probes = vec![Query::CoordDecision, Query::EventCount];
    if let (Some(&first), Some(&last)) = (prefix_nodes.first(), prefix_nodes.last()) {
        probes.push(Query::MaxXMatrix { sigma: last });
        probes.push(Query::TightBound {
            from: first,
            to: last,
        });
    }
    probes
}

/// Retries `op` until it succeeds, asserting every intermediate failure
/// is a typed retryable error. The fault budget guarantees quiescence;
/// the attempt cap turns a liveness bug into a loud failure, not a hang.
fn eventually<T>(what: &str, mut op: impl FnMut() -> Result<T, Error>) -> T {
    for _ in 0..500 {
        match op() {
            Ok(v) => return v,
            Err(e) => assert!(e.is_retryable(), "{what}: non-retryable {e}"),
        }
    }
    panic!("{what}: no success within 500 attempts — the fault plan failed to quiesce");
}

/// Retries `op` past transient (retryable) failures until it settles on
/// a stable outcome: success, or a typed non-retryable error (which some
/// queries — e.g. `CoordDecision` on a sparse prefix — return
/// legitimately, fault-free).
fn settle<T>(what: &str, mut op: impl FnMut() -> Result<T, Error>) -> Result<T, Error> {
    for _ in 0..500 {
        match op() {
            Err(e) if e.is_retryable() => {}
            stable => return stable,
        }
    }
    panic!("{what}: no stable outcome within 500 attempts — the fault plan failed to quiesce");
}

// ---------------------------------------------------------------------
// Test A: network faults against a live server + ResilientClient.
// ---------------------------------------------------------------------

/// Network chaos: short reads/writes, injected resets, and injected
/// latency on every server-side connection, budget-bounded. The
/// resilient client appends the full run and interleaves knowledge
/// queries; every answer is typed-error or byte-identical to the
/// fault-free reference, appends are exactly-once, and the final state
/// matches the reference completely.
///
/// Returns how many faults the plan actually injected, so deterministic
/// callers can assert the storm was real.
fn net_chaos_case(seed: u64, budget: u64) -> u64 {
    let run = chaos_run(seed);
    let events: Vec<_> = RunCursor::new(&run).collect();
    let config = coord_config();

    // Fault-free reference, fed in lockstep with the chaos client.
    let reference = ZigzagService::new();
    let ref_id = reference.open_stream(run.context_arc(), run.horizon(), config.clone());

    let service = Arc::new(ZigzagService::sharded(4));
    let id = service.open_stream(run.context_arc(), run.horizon(), config);
    let rates = FaultRates {
        short_read: 80,
        read_reset: 30,
        short_write: 80,
        write_reset: 30,
        delay: 30,
        ..FaultRates::default()
    };
    let plan = Arc::new(FaultPlan::with_budget(seed, rates, budget));
    let path = scratch("net", seed).with_extension("sock");
    let server = NetServer::bind_unix(
        &path,
        Arc::clone(&service),
        NetConfig::new()
            .workers(2)
            .drain_timeout(Some(Duration::from_millis(500)))
            .faults(Arc::clone(&plan)),
    )
    .unwrap();
    let mut client = ResilientClient::connect_unix(
        &path,
        ClientConfig::new()
            .request_deadline(Duration::from_secs(2))
            .max_retries(4)
            .backoff(Duration::from_micros(200), Duration::from_millis(2))
            .jitter_seed(seed),
    );

    let mut next_idx = [0u32; 3];
    let mut prefix_nodes: Vec<NodeId> = Vec::new();
    for (k, ev) in events.iter().enumerate() {
        // Exactly-once append under chaos. client.append already probes
        // on ambiguity; if even its retry budget drains mid-storm, the
        // event must still land exactly once before we move on.
        let target = (k + 1) as u64;
        loop {
            match client.append(id, ev) {
                Ok(n) => {
                    assert_eq!(n, target, "event {k}: duplicated or lost append");
                    break;
                }
                Err(e) => {
                    assert!(e.is_retryable(), "event {k}: non-retryable {e}");
                    let n = eventually("post-failure probe", || client.event_count(id));
                    assert!(n <= target, "event {k}: duplicated append (count {n})");
                    if n == target {
                        break;
                    }
                }
            }
        }
        reference.append(ref_id, ev).unwrap();
        next_idx[ev.proc.index()] += 1;
        prefix_nodes.push(NodeId::new(ev.proc, next_idx[ev.proc.index()]));

        // Interleaved reads: typed-error or byte-identical, nothing else.
        // Some probes (e.g. CoordDecision on a sparse prefix) return a
        // typed error even fault-free — then the chaos answer must be an
        // error too, never a fabricated success.
        if k % 3 == 0 {
            for q in probes(&prefix_nodes) {
                match (client.query(id, &q), reference.dispatch(ref_id, &q)) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(got, want, "event {k}: {q:?} diverged under faults");
                    }
                    (Ok(got), Err(want)) => {
                        panic!("event {k}: {q:?} invented {got:?} where fault-free gives {want}")
                    }
                    (Err(e), _) if e.is_retryable() => {}
                    (Err(_), Err(_)) => {}
                    (Err(e), Ok(_)) => {
                        panic!("event {k}: {q:?} gave non-retryable {e} on a healthy query")
                    }
                }
            }
        }
    }

    // The budget guarantees quiescence: eventually every answer settles
    // and matches the reference byte for byte.
    let n = eventually("final count", || client.event_count(id));
    assert_eq!(n, events.len() as u64, "lost or duplicated appends");
    for q in probes(&prefix_nodes) {
        let got = settle("final probe", || client.query(id, &q));
        match (got, reference.dispatch(ref_id, &q)) {
            (Ok(got), Ok(want)) => assert_eq!(
                zigzag::api::wire::encode_response(&got),
                zigzag::api::wire::encode_response(&want),
                "{q:?}: final wire bytes diverged"
            ),
            (Err(_), Err(_)) => {}
            (got, want) => panic!("{q:?}: settled on {got:?} but fault-free gives {want:?}"),
        }
    }

    // Shutdown must not hang even with the plan still armed.
    server.shutdown();
    let _ = std::fs::remove_file(&path);
    plan.injected()
}

// ---------------------------------------------------------------------
// Test B: store faults with crash + supervised recovery.
// ---------------------------------------------------------------------

/// One process life over a store directory: a fresh service, a store
/// (armed with `plan`, if any), and a supervisor whose startup sweep
/// recovers whatever the previous life left behind.
fn store_life(
    dir: &Path,
    config: StoreConfig,
    plan: Option<&Arc<FaultPlan>>,
) -> (Arc<ZigzagService>, Arc<SessionSupervisor>, RecoverySweep) {
    let service = Arc::new(ZigzagService::new());
    let mut store = SessionStore::open(dir, config).unwrap();
    if let Some(plan) = plan {
        store = store.with_faults(Arc::clone(plan));
    }
    let (sup, swept) = SessionSupervisor::bind(Arc::clone(&service), Arc::new(store)).unwrap();
    (service, sup, swept)
}

/// Store chaos: torn log writes, failed fsyncs, and disk-full snapshots,
/// budget-bounded, under the given fsync policy. A store failure breaks
/// the session's log: the live session must refuse the next event with
/// [`Error::Store`] and stay unchanged. Then the process crashes — the
/// service is dropped and a fresh [`SessionSupervisor::bind`] recovers
/// the directory — after which an event-count probe resolves the
/// did-it-land ambiguity and appending resumes. Opening the durable session can fail too (under
/// [`FsyncPolicy::Always`] its header is synced): that is a crash like
/// any other, and the sweep recovers the log that holds only a header.
/// The fully-fed state must answer byte-identically to the fault-free
/// reference.
///
/// Returns how many faults the plan injected, and how many of the store
/// failures were injected fsync failures.
fn store_chaos_case(seed: u64, budget: u64, fsync: FsyncPolicy) -> (u64, u64) {
    let run = chaos_run(seed ^ 0x9E37_79B9);
    let events: Vec<_> = RunCursor::new(&run).collect();
    let config = coord_config();
    let dir = scratch("store", seed);

    // Fault-free reference over the full run.
    let reference = ZigzagService::new();
    let ref_id = reference.open_stream(run.context_arc(), run.horizon(), config.clone());
    let mut next_idx = [0u32; 3];
    let mut prefix_nodes: Vec<NodeId> = Vec::new();
    for ev in &events {
        reference.append(ref_id, ev).unwrap();
        next_idx[ev.proc.index()] += 1;
        prefix_nodes.push(NodeId::new(ev.proc, next_idx[ev.proc.index()]));
    }

    // The fsync site has its own fault stream and is only consulted when
    // the policy syncs, so its rate shapes the `Always` storm alone: high
    // enough that a short feed still sees its fsyncs fail.
    let rates = FaultRates {
        torn_log_write: 120,
        fsync_fail: 300,
        snapshot_full: 150,
        ..FaultRates::default()
    };
    let plan = Arc::new(FaultPlan::with_budget(seed, rates, budget));
    let store_config = StoreConfig::new().snapshot_every(3).fsync(fsync);

    // First life.
    let (mut service, mut sup, swept) = store_life(&dir, store_config, Some(&plan));
    assert!(swept.is_empty());

    let mut id: Option<SessionId> = None; // the feed, once opened
    let mut done = 0usize; // events durably landed, probe-confirmed
    let mut lives = 0u32;
    let mut fsync_failures = 0u64;
    while done < events.len() {
        let step = match id {
            None => sup
                .store()
                .open_stream(
                    &service,
                    "feed",
                    run.context_arc(),
                    run.horizon(),
                    config.clone(),
                )
                .map(|opened| id = Some(opened)),
            Some(feed) => {
                match service.dispatch(feed, &Query::Append(Box::new(events[done].clone()))) {
                    Ok(Response::Appended(n)) => {
                        assert_eq!(n, done as u64 + 1, "duplicated or lost append");
                        done += 1;
                        Ok(())
                    }
                    Ok(other) => panic!("append answered with {other:?}"),
                    Err(e) => Err(e),
                }
            }
        };
        match step {
            Ok(()) => {}
            Err(Error::Store { detail }) => {
                // A store failure breaks the session's log (the in-memory
                // state may be ahead of it): the live session refuses the
                // next event unchanged. Crash and recover.
                assert!(detail.contains("injected"), "real store failure: {detail}");
                if detail.contains("injected fsync failure") {
                    fsync_failures += 1;
                }
                if let Some(feed) = id {
                    let count = service.event_count(feed).unwrap();
                    if let Some(next) = events.get(count as usize) {
                        let offered =
                            service.dispatch(feed, &Query::Append(Box::new(next.clone())));
                        assert!(
                            matches!(offered, Err(Error::Store { .. })),
                            "life {lives}: a broken log answered {offered:?}"
                        );
                        assert_eq!(service.event_count(feed).unwrap(), count);
                    }
                }
                lives += 1;
                assert!(
                    lives <= budget as u32 + 2,
                    "more crashes than injected faults — recovery is not making progress"
                );
                drop(sup);
                let recs;
                (service, sup, recs) = store_life(&dir, store_config, Some(&plan));
                assert_eq!(recs.len(), 1, "life {lives}: sweep missed the session");
                assert_eq!(recs[0].0, "feed");
                let feed = recs[0].1.id;
                id = Some(feed);
                // The exactly-once probe: a failed fsync may leave the
                // event durable even though the append errored. Trust
                // the recovered count, never a blind resend.
                let n = service.event_count(feed).unwrap() as usize;
                assert!(
                    n == done || n == done + 1,
                    "life {lives}: recovered count {n} after {done} confirmed appends"
                );
                done = n;
            }
            Err(e) => panic!("store operation gave unexpected error: {e}"),
        }
    }
    let mut id = id.expect("the feed was opened");

    // Fully fed: byte-identical to the fault-free reference, and one
    // final crash/recover must preserve that.
    for crash_once_more in [false, true] {
        if crash_once_more {
            drop(sup);
            let recs;
            (service, sup, recs) = store_life(&dir, store_config, None);
            assert_eq!(recs.len(), 1);
            id = recs[0].1.id;
        }
        assert_eq!(service.event_count(id).unwrap(), events.len() as u64);
        for q in probes(&prefix_nodes) {
            match (service.dispatch(id, &q), reference.dispatch(ref_id, &q)) {
                (Ok(got), Ok(want)) => assert_eq!(
                    zigzag::api::wire::encode_response(&got),
                    zigzag::api::wire::encode_response(&want),
                    "{q:?} diverged (crashed_again={crash_once_more})"
                ),
                (Err(got), Err(want)) => assert_eq!(
                    got.to_string(),
                    want.to_string(),
                    "{q:?}: error text diverged (crashed_again={crash_once_more})"
                ),
                (got, want) => panic!("{q:?}: {got:?} but fault-free gives {want:?}"),
            }
        }
    }
    drop(sup);
    let _ = std::fs::remove_dir_all(&dir);
    (plan.injected(), fsync_failures)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn net_chaos_oracle(seed in 0u64..10_000, budget in 10u64..60) {
        net_chaos_case(seed, budget);
    }

    #[test]
    fn store_chaos_oracle(seed in 0u64..10_000, budget in 5u64..40) {
        for fsync in [FsyncPolicy::Never, FsyncPolicy::Always] {
            store_chaos_case(seed, budget, fsync);
        }
    }
}

/// The CI entry point: `CHAOS_SEED` pins the entire schedule — run
/// topology, fault plan, and client jitter — so two CI invocations with
/// different seeds are two fully deterministic, reproducible storms.
#[test]
fn chaos_fixed_seed_net_and_store() {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1u64);
    // The storm must be real: a schedule that injected nothing would
    // pass the oracle vacuously.
    assert!(
        net_chaos_case(seed, 40) > 0,
        "seed {seed}: the net fault plan never fired"
    );
    // Under `Never` no fsync is ever issued; under `Always` every append
    // (and the log header) is synced, so injected fsync failures must
    // reach the oracle.
    let (injected, _) = store_chaos_case(seed, 25, FsyncPolicy::Never);
    assert!(
        injected > 0,
        "seed {seed}: the store fault plan never fired"
    );
    let (_, fsync_failures) = store_chaos_case(seed, 25, FsyncPolicy::Always);
    assert!(
        fsync_failures > 0,
        "seed {seed}: no fsync failure was injected under FsyncPolicy::Always"
    );
}
