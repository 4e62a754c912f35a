//! B11 — durable sessions: what the event log costs over a pure
//! in-memory stream, what a snapshot costs to write, and what snapshots
//! buy at recovery time.
//!
//! One workload shared by every row: a 6-process random network
//! (`scaled_context(6, 0.3, 11)`), one recorded run to horizon 400
//! (~2300 events), fed event-by-event into a stream session. Before
//! anything is timed, a logged session is killed, recovered, and every
//! probe answer is asserted byte-identical to the never-killed
//! in-memory session — the durability contract gates the timing.
//!
//! * `store/append-memory/64` — 64 warm appends into a plain
//!   [`ZigzagService`] stream session. The floor. Session opens are
//!   amortized out: one session absorbs the whole feed, 64 events per
//!   iteration, and is re-opened only when the feed is exhausted.
//! * `store/append-logged/64` — the same warm appends through
//!   [`SessionStore`] with `FsyncPolicy::Never`: the floor plus one
//!   encoded line and one buffered write per event. CI gates the
//!   logged/memory ratio (the log's write amplification), not absolute
//!   time.
//! * `store/snapshot-write/N` — one [`SessionStore::snapshot`] of the
//!   fully-fed N-event session: freeze, replay-verify, atomic
//!   tmp-write + rename install.
//! * `store/recover-replay/N` — [`SessionStore::recover`] from the log
//!   alone (no snapshot on disk): full decode + replay of all N events.
//! * `store/recover-snapshot/N` — recover with a snapshot covering the
//!   whole run: surface-scan the log, restore the prefix in bulk,
//!   replay a zero-event tail. Both paths share the decode-and-validate
//!   floor, so the snapshot wins modestly (~1.2× here), never 10×; CI
//!   gates that restore does not *lose* to replay.
//!
//! `ns/iter ÷ 64` prices one event for the `append-*` rows
//! (`STORE_EVENTS_PER_ITER` in `bench_report` renders the derived
//! column). Run with `CRITERION_JSON=BENCH_pr9.json cargo bench --bench
//! store`.

use std::sync::atomic::{AtomicUsize, Ordering};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zigzag_api::{
    Query, Response, SessionConfig, SessionId, SessionStore, StoreConfig, ZigzagService,
};
use zigzag_bcm::{NodeId, ProcessId, Run, RunCursor, RunEvent};
use zigzag_bench::{kicked_run, scaled_context};
use zigzag_core::GeneralNode;

/// Every `store/append-*` row appends exactly this many events per
/// iteration; `bench_report` divides by it to price one append.
const STORE_EVENTS_PER_ITER: usize = 64;

/// A fresh scratch directory per call, cleaned of any previous debris.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("zigzag-bench-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The shared feed: one recorded run and its event sequence.
fn feed() -> (Run, Vec<RunEvent>) {
    let ctx = scaled_context(6, 0.3, 11);
    let run = kicked_run(&ctx, ProcessId::new(0), 1, 400, 5);
    let mut events = Vec::new();
    let mut cursor = RunCursor::new(&run);
    while let Some(ev) = cursor.next_event() {
        events.push(ev);
    }
    assert!(
        events.len() >= 4 * STORE_EVENTS_PER_ITER,
        "feed too short: {} events",
        events.len()
    );
    (run, events)
}

/// The probe battery answered on a fully-fed session — asserts the
/// durability contract before anything is timed.
fn probe_answers(service: &ZigzagService, id: SessionId, run: &Run) -> Vec<Response> {
    let nodes: Vec<NodeId> = run
        .nodes()
        .map(|r| r.id())
        .filter(|n| !n.is_initial())
        .collect();
    let (&first, &last) = (nodes.first().unwrap(), nodes.last().unwrap());
    [
        Query::MaxXMatrix { sigma: last },
        Query::MaxX {
            sigma: last,
            theta1: GeneralNode::basic(first),
            theta2: GeneralNode::basic(last),
        },
        Query::TightBound {
            from: first,
            to: last,
        },
    ]
    .iter()
    .map(|q| service.dispatch(id, q).expect("probe answers"))
    .collect()
}

/// Feed a full durable session named `s` into `dir`, optionally capping
/// with a snapshot, then drop everything (the "crash").
fn persist(dir: &std::path::Path, run: &Run, events: &[RunEvent], with_snapshot: bool) {
    let store = SessionStore::open(dir, StoreConfig::new()).unwrap();
    let service = ZigzagService::new();
    let id = store
        .open_stream(
            &service,
            "s",
            run.context_arc(),
            run.horizon(),
            SessionConfig::new(),
        )
        .unwrap();
    for ev in events {
        store.append(&service, id, ev).unwrap();
    }
    if with_snapshot {
        assert!(store.snapshot(&service, id).unwrap(), "snapshot skipped");
    }
}

fn store_costs(c: &mut Criterion) {
    let (run, events) = feed();
    let n = STORE_EVENTS_PER_ITER;
    let total = events.len();

    // The contract gate: kill a logged session mid-cadence, recover it,
    // and the recovered answers must be byte-identical to the
    // uninterrupted in-memory session before any row is timed.
    let reference = {
        let service = ZigzagService::new();
        let id = service.open_stream(run.context_arc(), run.horizon(), SessionConfig::new());
        for ev in &events {
            service.append(id, ev).expect("in-memory append");
        }
        probe_answers(&service, id, &run)
    };
    {
        let dir = scratch("gate");
        let store = SessionStore::open(&dir, StoreConfig::new().snapshot_every(256)).unwrap();
        let service = ZigzagService::new();
        let id = store
            .open_stream(
                &service,
                "gate",
                run.context_arc(),
                run.horizon(),
                SessionConfig::new(),
            )
            .unwrap();
        for ev in &events {
            store.append(&service, id, ev).expect("logged append");
        }
        drop((service, store)); // the crash
        let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
        let service = ZigzagService::new();
        let rec = store.recover(&service, "gate").expect("recover");
        assert!(!rec.truncated, "clean log reported torn");
        assert_eq!(
            probe_answers(&service, rec.id, &run),
            reference,
            "recovered session diverged from the uninterrupted one"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut group = c.benchmark_group("store");

    // Both append rows price 64 *warm* appends: one session absorbs the
    // feed 64 events at a time and is re-opened only on exhaustion
    // (~every 35 iterations), so the open cost amortizes away and the
    // logged/memory ratio isolates exactly the per-event log write.
    group.bench_with_input(BenchmarkId::new("append-memory", n), &n, |b, &n| {
        let mut state: Option<(ZigzagService, SessionId, usize)> = None;
        b.iter(|| {
            if state.as_ref().is_none_or(|(_, _, pos)| pos + n > total) {
                let service = ZigzagService::new();
                let id =
                    service.open_stream(run.context_arc(), run.horizon(), SessionConfig::new());
                state = Some((service, id, 0));
            }
            let (service, id, pos) = state.as_mut().unwrap();
            for ev in &events[*pos..*pos + n] {
                service.append(*id, ev).unwrap();
            }
            *pos += n;
        });
    });

    let append_dir = scratch("append");
    {
        let store = SessionStore::open(&append_dir, StoreConfig::new()).unwrap();
        // Logs refuse to clobber, so each re-open gets a fresh name.
        let next = AtomicUsize::new(0);
        group.bench_with_input(BenchmarkId::new("append-logged", n), &n, |b, &n| {
            let mut state: Option<(ZigzagService, SessionId, usize)> = None;
            b.iter(|| {
                if state.as_ref().is_none_or(|(_, _, pos)| pos + n > total) {
                    let service = ZigzagService::new();
                    let name = format!("s{}", next.fetch_add(1, Ordering::Relaxed));
                    let id = store
                        .open_stream(
                            &service,
                            &name,
                            run.context_arc(),
                            run.horizon(),
                            SessionConfig::new(),
                        )
                        .unwrap();
                    state = Some((service, id, 0));
                }
                let (service, id, pos) = state.as_mut().unwrap();
                for ev in &events[*pos..*pos + n] {
                    store.append(service, *id, ev).unwrap();
                }
                *pos += n;
            });
        });
    }
    let _ = std::fs::remove_dir_all(&append_dir);

    // Snapshot cost over a fully-fed session; each iteration re-installs
    // the snapshot through the same tmp-write + rename path.
    let snap_write_dir = scratch("snapwrite");
    {
        let store = SessionStore::open(&snap_write_dir, StoreConfig::new()).unwrap();
        let service = ZigzagService::new();
        let id = store
            .open_stream(
                &service,
                "s",
                run.context_arc(),
                run.horizon(),
                SessionConfig::new(),
            )
            .unwrap();
        for ev in &events {
            store.append(&service, id, ev).unwrap();
        }
        group.bench_with_input(BenchmarkId::new("snapshot-write", total), &total, |b, _| {
            b.iter(|| {
                assert!(store.snapshot(&service, id).unwrap(), "snapshot skipped");
            });
        });
    }
    let _ = std::fs::remove_dir_all(&snap_write_dir);

    // Two persisted states, prepared once: a log-only directory and a
    // snapshot-covered one. Recovery reads, replays, and installs into
    // a fresh service each iteration.
    let replay_dir = scratch("recover-replay");
    let snap_dir = scratch("recover-snap");
    persist(&replay_dir, &run, &events, false);
    persist(&snap_dir, &run, &events, true);

    group.bench_with_input(BenchmarkId::new("recover-replay", total), &total, |b, _| {
        b.iter(|| {
            let store = SessionStore::open(&replay_dir, StoreConfig::new()).unwrap();
            let service = ZigzagService::new();
            let rec = store.recover(&service, "s").unwrap();
            assert_eq!(rec.replayed_events as usize, total);
        });
    });

    group.bench_with_input(
        BenchmarkId::new("recover-snapshot", total),
        &total,
        |b, _| {
            b.iter(|| {
                let store = SessionStore::open(&snap_dir, StoreConfig::new()).unwrap();
                let service = ZigzagService::new();
                let rec = store.recover(&service, "s").unwrap();
                assert!(rec.from_snapshot && rec.replayed_events == 0, "{rec:?}");
            });
        },
    );

    group.finish();
    let _ = std::fs::remove_dir_all(&replay_dir);
    let _ = std::fs::remove_dir_all(&snap_dir);
}

criterion_group!(benches, store_costs);
criterion_main!(benches);
