//! `durable-coord`: writes beside reads, the paper's online use.
//!
//! Eight durable stream sessions on the C/A/B/D feedback topology, each
//! configured with a `Late` spec under `ExcludeOwnSends` and fed its own
//! seeded schedule, are owned by a `SessionSupervisor` (snapshot every
//! 256 appends, `FsyncPolicy::Never`). Two `ResilientClient`s own four
//! sessions each and send a `CoordDecision` poll after every append.
//! When every feed is in, the server, service and store are dropped —
//! the crash — and `SessionSupervisor::bind` is timed as it recovers
//! every session from disk.
//!
//! One pass is that whole cycle on a fresh store; a run repeats passes
//! until its time is up.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use zigzag_api::net::{read_envelope, write_envelope};
use zigzag_api::supervisor::RecoverySweep;
use zigzag_api::{
    serve, wire, ClientConfig, CoordKind, FsyncPolicy, NetConfig, NetServer, ProbeSemantics, Query,
    ResilientClient, Response, SessionConfig, SessionId, SessionStore, SessionSupervisor,
    StoreConfig, TimedCoordination, ZigzagService,
};
use zigzag_bcm::scheduler::RandomScheduler;
use zigzag_bcm::stream::RunEvent;
use zigzag_bcm::{Context, Network, NodeId, Time};
use zigzag_coord::{OptimalStrategy, Scenario};

use crate::report::{self, median_ns, percentile, LatencyHist, Metrics};
use crate::trace::Trace;
use crate::{Args, Checks, Outcome, Phase, Window, RUN_DIR};

/// Durable sessions.
const SESSIONS: usize = 8;
/// Client threads (one connection each); each owns `SESSIONS / CLIENTS`.
const CLIENTS: usize = 2;
/// Recording horizon of every schedule.
const HORIZON: u64 = 1000;
/// Events served per session: a fixed prefix of its schedule.
const FEED_EVENTS: usize = 400;
/// Snapshot cadence, in appends.
const SNAPSHOT_EVERY: u64 = 256;
/// Exchanges timed each way for the client-overhead comparison.
const OVERHEAD_SAMPLES: usize = 2000;

/// One session's generated schedule and its recovery probe.
struct Feed {
    name: String,
    context: Arc<Context>,
    events: Vec<RunEvent>,
    /// `TightBound` probe endpoints: the first and last recorded nodes.
    probe: (NodeId, NodeId),
}

struct Inputs {
    feeds: Vec<Feed>,
    config: SessionConfig,
}

/// The feedback topology of `benches/serve.rs`: C triggers A and B, and
/// B ⇄ D keeps B's timeline long. Each session's schedule is recorded
/// under Protocol 2 at the feasible `x = 4`; the served spec asks for a
/// separation no prefix can certify (`x = 2·horizon`), the standing-poll
/// regime where every B-node is evaluated.
fn inputs(seed: u64) -> Inputs {
    let mut nb = Network::builder();
    let c = nb.add_process("C");
    let a = nb.add_process("A");
    let b = nb.add_process("B");
    let d = nb.add_process("D");
    for (from, to, lo, hi) in [
        (c, a, 2, 5),
        (c, b, 9, 12),
        (c, d, 1, 2),
        (b, d, 1, 4),
        (d, b, 1, 3),
    ] {
        nb.add_channel(from, to, lo, hi).expect("valid bounds");
    }
    let context: Arc<Context> = nb.build().expect("non-empty network").into();
    let record = TimedCoordination::new(CoordKind::Late { x: 4 }, a, b, c);
    let feeds = (0..SESSIONS as u64)
        .map(|i| {
            let scenario = Scenario::new(
                record.clone(),
                Arc::clone(&context),
                Time::new(3),
                Time::new(HORIZON),
            )
            .expect("legal scenario");
            let run = scenario
                .run(
                    &mut OptimalStrategy,
                    &mut RandomScheduler::seeded(seed.wrapping_mul(1_000_003).wrapping_add(i)),
                )
                .expect("legal scenario");
            let (_, events, nodes) = crate::prefix(&run, FEED_EVENTS);
            Feed {
                name: format!("coord{i}"),
                context: Arc::clone(&context),
                events,
                probe: (nodes[0], nodes[FEED_EVENTS - 1]),
            }
        })
        .collect();
    let poll = TimedCoordination::new(
        CoordKind::Late {
            x: 2 * HORIZON as i64,
        },
        a,
        b,
        c,
    );
    let config = SessionConfig::new()
        .spec(poll)
        .probe(ProbeSemantics::ExcludeOwnSends);
    Inputs { feeds, config }
}

fn store_config() -> StoreConfig {
    StoreConfig::new()
        .snapshot_every(SNAPSHOT_EVERY)
        .fsync(FsyncPolicy::Never)
}

/// The serving system of one pass.
struct Live {
    service: Arc<ZigzagService>,
    /// Held only to keep durable routing attached: the service keeps a
    /// weak reference to its supervisor.
    _supervisor: Arc<SessionSupervisor>,
    server: NetServer,
    ids: Vec<SessionId>,
}

fn set_up(inputs: &Inputs, dir: &Path, sock: &Path) -> Live {
    let _ = fs::remove_dir_all(dir);
    let store = SessionStore::open(dir, store_config()).expect("opening the store");
    let service = Arc::new(ZigzagService::sharded(8));
    let (supervisor, swept) =
        SessionSupervisor::bind(Arc::clone(&service), Arc::new(store)).expect("empty store binds");
    assert!(swept.is_empty(), "a fresh store holds no sessions");
    let ids = inputs
        .feeds
        .iter()
        .map(|f| {
            supervisor
                .store()
                .open_stream(
                    &service,
                    &f.name,
                    Arc::clone(&f.context),
                    Time::new(HORIZON),
                    inputs.config.clone(),
                )
                .expect("opening a durable session")
        })
        .collect();
    let _ = fs::remove_file(sock);
    let server = NetServer::bind_unix(sock, Arc::clone(&service), NetConfig::new().workers(2))
        .expect("binding the benchmark socket");
    Live {
        service,
        _supervisor: supervisor,
        server,
        ids,
    }
}

/// Request id of event `k` of session `s` (the decide poll after it
/// shares the id).
fn req_id(s: usize, k: usize) -> u64 {
    ((s as u64) << 32) | k as u64
}

/// What one client thread observed.
#[derive(Default)]
struct ClientOutcome {
    appends: u64,
    decides: u64,
    failed: u64,
    append_ns: Vec<u64>,
    decide_ns: Vec<u64>,
    trace: Option<Trace>,
    /// `(request id, index of the client.append span)`.
    append_spans: Vec<(u64, usize)>,
    /// `(request id, index of the client.decide span)`.
    decide_spans: Vec<(u64, usize)>,
}

fn drive(
    sock: &Path,
    inputs: &Inputs,
    ids: &[SessionId],
    owned: &[usize],
    epoch: Option<Instant>,
) -> ClientOutcome {
    let mut client = ResilientClient::connect_unix(sock, ClientConfig::new());
    let mut out = ClientOutcome {
        trace: epoch.map(Trace::new),
        ..Default::default()
    };
    let mut next = vec![0usize; owned.len()];
    loop {
        let mut progressed = false;
        for (j, &s) in owned.iter().enumerate() {
            let k = next[j];
            let Some(ev) = inputs.feeds[s].events.get(k) else {
                continue;
            };
            progressed = true;
            next[j] += 1;
            let t0 = Instant::now();
            let appended = client.append(ids[s], ev);
            let t1 = Instant::now();
            let decided = client.query(ids[s], &Query::CoordDecision);
            let t2 = Instant::now();
            out.appends += 1;
            out.decides += 1;
            if appended.ok() != Some(k as u64 + 1) {
                out.failed += 1;
            }
            if !matches!(decided, Ok(Response::CoordDecision(_))) {
                out.failed += 1;
            }
            out.append_ns.push(t1.duration_since(t0).as_nanos() as u64);
            out.decide_ns.push(t2.duration_since(t1).as_nanos() as u64);
            if let Some(tr) = &mut out.trace {
                let req = req_id(s, k);
                let a = tr.push("client.append", "client", t0, t1, None, req);
                let d = tr.push("client.decide", "client", t1, t2, None, req);
                out.append_spans.push((req, a));
                out.decide_spans.push((req, d));
            }
        }
        if !progressed {
            return out;
        }
    }
}

/// The recovered sessions' probe answers, by session name.
type Probes = BTreeMap<String, Vec<String>>;

fn probe(service: &ZigzagService, id: SessionId, feed: &Feed) -> Vec<String> {
    [
        Query::CoordDecision,
        Query::TightBound {
            from: feed.probe.0,
            to: feed.probe.1,
        },
    ]
    .iter()
    .map(|q| match service.dispatch(id, q) {
        Ok(r) => wire::encode_response(&r),
        Err(e) => serve::encode_error(&e),
    })
    .collect()
}

/// One pass's measurements.
struct Pass {
    phase: Phase,
    append_ns: Vec<u64>,
    decide_ns: Vec<u64>,
    recover_s: f64,
    replayed_events: u64,
    probes: Probes,
    events_logged: u64,
    bytes_written: u64,
    snapshots: u64,
    frames_in: u64,
    appends: u64,
    decides: u64,
    trace: Option<Trace>,
    append_spans: Vec<(u64, usize)>,
    decide_spans: Vec<(u64, usize)>,
    /// Traced passes: `ResilientClient` overhead per exchange, in ns.
    client_overhead: Option<f64>,
    /// Traced passes: the recovery split.
    split: Option<RecoverySplit>,
}

/// The recoveries a pass runs after its crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Recovery {
    /// The timed warm recovery only (untraced passes).
    Warm,
    /// The warm recovery, then a cold one of the same files.
    WarmThenCold,
    /// A cold recovery of the files, then the warm one.
    ColdThenWarm,
}

/// A traced pass's warm and cold recoveries of the same files.
struct RecoverySplit {
    /// Recovery as served, re-warming observer states.
    warm_ns: u64,
    /// Recovery without re-warming observer states.
    cold_ns: u64,
    /// Events the cold recovery restored or replayed.
    events: u64,
    /// Log-tail events each session replayed, by session name.
    tails: Vec<(String, u64)>,
    /// Explicit `SessionStore::snapshot` of each recovered session.
    snapshot_ns: Vec<u64>,
}

/// Opens the store in `dir` on a fresh service and recovers every
/// session, timed from opening the store to the end of the sweep.
fn recover(
    dir: &Path,
    warm: bool,
) -> (
    u64,
    Arc<ZigzagService>,
    Arc<SessionSupervisor>,
    RecoverySweep,
) {
    let service = Arc::new(ZigzagService::sharded(8));
    let t = Instant::now();
    let store =
        SessionStore::open(dir, store_config().warm_observers(warm)).expect("reopening the store");
    let (supervisor, swept) =
        SessionSupervisor::bind(Arc::clone(&service), Arc::new(store)).expect("recovery");
    (t.elapsed().as_nanos() as u64, service, supervisor, swept)
}

/// One pass on `live`, freshly set up on an empty store in `dir`.
fn pass(
    args: &Args,
    inputs: &Inputs,
    live: Live,
    dir: &Path,
    sock: &Path,
    recovery: Recovery,
    checks: &mut Checks,
) -> Pass {
    let traced = recovery != Recovery::Warm;
    let epoch = traced.then_some(args.epoch);

    let before = live.service.stats();
    let cpu0 = report::cpu_seconds();
    let start = Instant::now();
    let per_client = SESSIONS / CLIENTS;
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let owned: Vec<usize> = (c * per_client..(c + 1) * per_client).collect();
                let ids = &live.ids;
                s.spawn(move || drive(sock, inputs, ids, &owned, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = report::cpu_seconds() - cpu0;
    let after = live.service.stats();
    let transport = live.server.transport();

    let appends: u64 = outcomes.iter().map(|o| o.appends).sum();
    let decides: u64 = outcomes.iter().map(|o| o.decides).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let mut append_ns: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.append_ns.iter().copied())
        .collect();
    let mut decide_ns: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.decide_ns.iter().copied())
        .collect();
    let mut latency = LatencyHist::default();
    append_ns
        .iter()
        .chain(&decide_ns)
        .for_each(|&ns| latency.record(ns));
    append_ns.sort_unstable();
    decide_ns.sort_unstable();

    for (feed, id) in inputs.feeds.iter().zip(&live.ids) {
        checks.check(
            "each session's final EventCount equals its feed length",
            live.service.event_count(*id).ok() == Some(feed.events.len() as u64),
        );
    }
    let counters = after.store;
    checks.check(
        "Stats.queries equals the CoordDecision frames sent",
        after.queries - before.queries == decides,
    );
    checks.check(
        "frames_in equals the frames sent: client.frames_per_append is exactly 2, plus one per poll",
        transport.frames_in == 2 * appends + decides,
    );
    checks.check(
        "events_logged equals the appends",
        counters.events_logged == appends,
    );
    checks.check("no connection failed", transport.conn_failures == 0);

    let client_overhead = traced.then(|| client_overhead(sock, &live.ids));

    let mut trace = epoch.map(Trace::new);
    let mut append_spans = Vec::new();
    let mut decide_spans = Vec::new();
    for o in outcomes {
        if let (Some(t), Some(ot)) = (&mut trace, o.trace) {
            let offset = t.absorb(ot);
            append_spans.extend(o.append_spans.iter().map(|(r, i)| (*r, i + offset)));
            decide_spans.extend(o.decide_spans.iter().map(|(r, i)| (*r, i + offset)));
        }
    }

    // The crash: server, supervisor, service and store all go away with
    // only the files left behind.
    drop(live);
    // Traced passes also recover the same files without re-warming, to
    // split recovery time. The order alternates across traced passes, so
    // the second recovery does not always find the page cache and the
    // allocator warmed by the first.
    let mut cold = None;
    if recovery == Recovery::ColdThenWarm {
        let (ns, _, _, swept) = recover(dir, false);
        cold = Some((ns, swept));
    }
    let (warm_ns, mut service, mut supervisor, swept) = recover(dir, true);
    let recover_s = warm_ns as f64 / 1e9;
    checks.check("every session was recovered", swept.len() == SESSIONS);
    let mut probes = Probes::new();
    let mut replayed_events = 0;
    for (name, rec) in &swept {
        replayed_events += rec.replayed_events;
        if let Some(feed) = inputs.feeds.iter().find(|f| &f.name == name) {
            probes.insert(name.clone(), probe(&service, rec.id, feed));
        }
    }
    let mut live_ids: Vec<SessionId> = swept.iter().map(|(_, r)| r.id).collect();
    if recovery == Recovery::WarmThenCold {
        drop((supervisor, service));
        let (ns, s, sup, swept) = recover(dir, false);
        live_ids = swept.iter().map(|(_, r)| r.id).collect();
        (service, supervisor) = (s, sup);
        cold = Some((ns, swept));
    }
    // An explicit snapshot of each session rewrites the snapshot files,
    // so it is priced last, on whichever recovery is still live.
    let split = cold.map(|(cold_ns, swept)| RecoverySplit {
        warm_ns,
        cold_ns,
        events: swept
            .iter()
            .map(|(_, r)| r.restored_events + r.replayed_events)
            .sum(),
        tails: swept
            .iter()
            .map(|(name, r)| (name.clone(), r.replayed_events))
            .collect(),
        snapshot_ns: live_ids
            .iter()
            .map(|id| {
                let t = Instant::now();
                supervisor
                    .store()
                    .snapshot(&service, *id)
                    .expect("explicit snapshot");
                t.elapsed().as_nanos() as u64
            })
            .collect(),
    });
    drop((supervisor, service));
    let _ = fs::remove_dir_all(dir);

    Pass {
        phase: Phase {
            requests: appends + decides,
            failed,
            wall_s,
            latency: latency.clone(),
            windows: vec![Window {
                wall_s,
                cpu_s,
                latency,
            }],
        },
        append_ns,
        decide_ns,
        recover_s,
        replayed_events,
        probes,
        events_logged: counters.events_logged,
        bytes_written: counters.bytes_written,
        snapshots: counters.snapshots,
        frames_in: transport.frames_in,
        appends,
        decides,
        trace,
        append_spans,
        decide_spans,
        client_overhead,
        split,
    }
}

/// `ResilientClient::query` against a raw `write_envelope` /
/// `read_envelope` exchange of the same frame: the median difference of
/// back-to-back pairs, in ns.
fn client_overhead(sock: &Path, ids: &[SessionId]) -> f64 {
    let q = Query::EventCount;
    let frame = serve::encode_frame(ids[0], &q);
    let mut client = ResilientClient::connect_unix(sock, ClientConfig::new());
    let mut raw = UnixStream::connect(sock).expect("connecting to the benchmark socket");
    let mut diffs = Vec::with_capacity(OVERHEAD_SAMPLES);
    // Alternate which goes first, so neither side always finds the
    // server's threads freshly woken.
    for i in 0..OVERHEAD_SAMPLES {
        let mut pair = [0f64; 2];
        for side in [i % 2, 1 - i % 2] {
            let t = Instant::now();
            if side == 0 {
                std::hint::black_box(client.query(ids[0], &q).expect("event count"));
            } else {
                write_envelope(&mut raw, &frame).expect("raw write");
                let reply = read_envelope(&mut raw, 1 << 20).expect("raw read");
                std::hint::black_box(reply.map(|r| wire::decode_response(&r)));
            }
            pair[side] = t.elapsed().as_nanos() as f64;
        }
        diffs.push(pair[0] - pair[1]);
    }
    let _ = raw.flush();
    report::median(&diffs)
}

/// Durable appends to spec-less sessions: `SessionStore::append` minus
/// the in-memory append `core_ns` measured on the same events — the
/// store's own cost per event (log record and snapshot cadence).
fn log_costs(inputs: &Inputs, core_ns: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let dir = PathBuf::from(RUN_DIR).join(format!("durable-coord-{}-mirror", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let service = ZigzagService::sharded(8);
    let store = SessionStore::open(&dir, store_config()).expect("opening the mirror store");
    let out = inputs
        .feeds
        .iter()
        .zip(core_ns)
        .map(|(feed, core)| {
            let id = store
                .open_stream(
                    &service,
                    &feed.name,
                    Arc::clone(&feed.context),
                    Time::new(HORIZON),
                    SessionConfig::new(),
                )
                .expect("opening a mirror session");
            feed.events
                .iter()
                .zip(core)
                .map(|(ev, &core)| {
                    let t = Instant::now();
                    store.append(&service, id, ev).expect("mirror append");
                    (t.elapsed().as_nanos() as u64).saturating_sub(core)
                })
                .collect()
        })
        .collect();
    drop(store);
    let _ = fs::remove_dir_all(&dir);
    out
}

/// Never-crashed in-memory replay of every feed (append, then poll, as
/// the clients did): the reference the recovered sessions must match.
/// Returns its probe answers and per-event append and poll times.
fn reference(inputs: &Inputs, config: &SessionConfig) -> (Probes, Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let service = ZigzagService::sharded(8);
    let mut probes = Probes::new();
    let mut append_ns = Vec::new();
    let mut decide_ns = Vec::new();
    for feed in &inputs.feeds {
        let id = service.open_stream(
            Arc::clone(&feed.context),
            Time::new(HORIZON),
            config.clone(),
        );
        let mut a = Vec::with_capacity(feed.events.len());
        let mut d = Vec::with_capacity(feed.events.len());
        for ev in &feed.events {
            let t = Instant::now();
            service.append(id, ev).expect("recorded feeds replay");
            let t1 = Instant::now();
            if config.spec.is_some() {
                std::hint::black_box(
                    service
                        .dispatch(id, &Query::CoordDecision)
                        .expect("spec set"),
                );
            }
            let t2 = Instant::now();
            a.push(t1.duration_since(t).as_nanos() as u64);
            d.push(t2.duration_since(t1).as_nanos() as u64);
        }
        if config.spec.is_some() {
            probes.insert(feed.name.clone(), probe(&service, id, feed));
        }
        append_ns.push(a);
        decide_ns.push(d);
    }
    (probes, append_ns, decide_ns)
}

/// Runs `durable-coord`; see the module docs.
pub fn run(args: &Args) -> Outcome {
    let name = "durable-coord";
    let pid = std::process::id();
    let dir = PathBuf::from(RUN_DIR).join(format!("{name}-{pid}-store"));
    let sock = PathBuf::from(RUN_DIR).join(format!("{name}-{pid}.sock"));
    let mut checks = Checks::default();

    // Untraced passes until the time is up (half of it when tracing),
    // then, when tracing, traced passes for the other half.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // Set-up, input generation included, is timed once per run. Without
    // the inputs it is half a millisecond of file and thread creation,
    // too short to repeat across runs. The first pass serves the last
    // instance timed; later passes set up a fresh store of their own.
    let (setup_s, (inputs, timed)) = crate::timed_set_ups(|| {
        let inputs = inputs(args.seed);
        let live = set_up(&inputs, &dir, &sock);
        (inputs, live)
    });
    let mut live = Some(timed);
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < budget {
        let fresh = live.take().unwrap_or_else(|| set_up(&inputs, &dir, &sock));
        passes.push(pass(
            args,
            &inputs,
            fresh,
            &dir,
            &sock,
            Recovery::Warm,
            &mut checks,
        ));
    }
    let peak_rss = report::peak_rss_mb();
    let mut traced = Vec::new();
    if args.trace {
        // At least one traced pass in each recovery order.
        let start = Instant::now();
        while traced.len() < 2 || start.elapsed().as_secs_f64() < budget {
            let order = if traced.len() % 2 == 0 {
                Recovery::WarmThenCold
            } else {
                Recovery::ColdThenWarm
            };
            let fresh = set_up(&inputs, &dir, &sock);
            traced.push(pass(args, &inputs, fresh, &dir, &sock, order, &mut checks));
        }
    }

    // Recovery gate: every pass's recovered sessions answer like a
    // never-crashed replay of the same feeds.
    let (expected, coord_ns, decide_ref_ns) = reference(&inputs, &inputs.config);
    for p in passes.iter().chain(&traced) {
        checks.check(
            "recovered sessions answer the probe like a never-crashed replay",
            p.probes == expected,
        );
    }

    let all: Vec<&Pass> = passes.iter().collect();
    let attempted: u64 = passes.iter().chain(&traced).map(|p| p.phase.requests).sum();
    let failed: u64 = passes.iter().chain(&traced).map(|p| p.phase.failed).sum();

    let phase = merged(&all);
    let mut metrics = Metrics::default();
    crate::end_to_end(&mut metrics, &setup_s, &phase, peak_rss);
    let user = user_facing(&all);
    for (n, v, u) in user.items() {
        metrics.set(n, *v, u);
    }

    let mut layers = Metrics::default();
    if args.trace {
        layers = trace_layers(
            args,
            &inputs,
            &all,
            &traced,
            &phase,
            &coord_ns,
            &decide_ref_ns,
        );
        for (n, v, u) in user.items() {
            layers.set(n, *v, u);
        }
    }
    let _ = fs::remove_dir_all(&dir);
    Outcome {
        name,
        metrics,
        layers,
        attempted,
        failed,
        checks: checks.0,
    }
}

/// The passes' ingest phases as one phase, one window per pass.
fn merged(passes: &[&Pass]) -> Phase {
    let mut phase = Phase::default();
    for p in passes {
        phase.requests += p.phase.requests;
        phase.failed += p.phase.failed;
        phase.wall_s += p.phase.wall_s;
        phase.latency.merge(&p.phase.latency);
        for w in &p.phase.windows {
            phase.windows.push(Window {
                wall_s: w.wall_s,
                cpu_s: w.cpu_s,
                latency: w.latency.clone(),
            });
        }
    }
    phase
}

/// The user-facing durable metrics of untraced passes: append and poll
/// latency, recovery time and write amplification.
fn user_facing(passes: &[&Pass]) -> Metrics {
    let mut append: Vec<u64> = passes
        .iter()
        .flat_map(|p| p.append_ns.iter().copied())
        .collect();
    let mut decide: Vec<u64> = passes
        .iter()
        .flat_map(|p| p.decide_ns.iter().copied())
        .collect();
    append.sort_unstable();
    decide.sort_unstable();
    let recover: Vec<f64> = passes.iter().map(|p| p.recover_s).collect();
    let logged: u64 = passes.iter().map(|p| p.events_logged).sum();
    let written: u64 = passes.iter().map(|p| p.bytes_written).sum();
    let mut m = Metrics::default();
    m.set(
        "client.append_p50_us",
        percentile(&append, 50.0) / 1e3,
        "us",
    );
    m.set(
        "client.append_p99_us",
        percentile(&append, 99.0) / 1e3,
        "us",
    );
    m.set(
        "client.decide_p50_us",
        percentile(&decide, 50.0) / 1e3,
        "us",
    );
    m.set(
        "client.decide_p99_us",
        percentile(&decide, 99.0) / 1e3,
        "us",
    );
    m.set("store.recover_s", report::median(&recover), "s");
    m.set(
        "store.write_bytes_per_event",
        written as f64 / logged.max(1) as f64,
        "B",
    );
    m
}

/// Builds the per-layer ledger: replays the feeds through each layer's
/// public functions, attaches the replayed spans under the traced
/// passes' client spans, and splits recovery.
///
/// Per append request the tree is `client.append` → `store.log` (the
/// store's own cost) and `client.append` → `coord.append` (the
/// spec-configured in-memory append) → `core.append` (the same event on
/// a spec-less stream); per poll it is `client.decide` →
/// `service.decide`.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    args: &Args,
    inputs: &Inputs,
    untraced: &[&Pass],
    traced: &[Pass],
    untraced_phase: &Phase,
    coord_ns: &[Vec<u64>],
    decide_ns: &[Vec<u64>],
) -> Metrics {
    let (_, core_ns, _) = reference(inputs, &SessionConfig::new());
    let log_ns = log_costs(inputs, &core_ns);

    let mut tr = Trace::new(args.epoch);
    let at = |ns: u64| args.epoch + Duration::from_nanos(ns);
    let traced_phase = merged(&traced.iter().collect::<Vec<_>>());
    for p in traced {
        let Some(pt) = &p.trace else { continue };
        let base = tr.absorb(pt.clone());
        let child = |tr: &mut Trace, name, layer, parent: usize, req: u64, ns: u64| {
            let start = tr.spans()[parent].end_ns;
            tr.push(name, layer, at(start), at(start + ns), Some(parent), req)
        };
        for (req, span) in &p.append_spans {
            let (s, k) = ((req >> 32) as usize, (req & 0xffff_ffff) as usize);
            let root = base + span;
            child(&mut tr, "store.log", "store", root, *req, log_ns[s][k]);
            let co = child(&mut tr, "coord.append", "coord", root, *req, coord_ns[s][k]);
            child(&mut tr, "core.append", "core", co, *req, core_ns[s][k]);
        }
        for (req, span) in &p.decide_spans {
            let (s, k) = ((req >> 32) as usize, (req & 0xffff_ffff) as usize);
            child(
                &mut tr,
                "service.decide",
                "service",
                base + span,
                *req,
                decide_ns[s][k],
            );
        }
    }
    let path = Path::new(RUN_DIR).join("durable-coord-spans.csv");
    if let Err(e) = tr.write_csv(&path) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }

    let flat = |v: &[Vec<u64>]| -> Vec<u64> {
        let mut f: Vec<u64> = v.iter().flatten().copied().collect();
        f.sort_unstable();
        f
    };
    let (log_all, coord_all, core_all, decide_all) = (
        flat(&log_ns),
        flat(coord_ns),
        flat(&core_ns),
        flat(decide_ns),
    );

    let mut m = Metrics::default();
    m.set(
        "service.dispatch_coord_ns",
        percentile(&decide_all, 50.0),
        "ns",
    );
    m.set("core.append_ns", percentile(&core_all, 50.0), "ns");
    m.set("core.append_p99_ns", percentile(&core_all, 99.0), "ns");
    m.set("coord.append_ns", percentile(&coord_all, 50.0), "ns");
    m.set("coord.append_p99_ns", percentile(&coord_all, 99.0), "ns");
    m.set("coord.decide_ns", percentile(&decide_all, 50.0), "ns");
    m.set(
        "store.log_ns_per_event",
        log_all.iter().sum::<u64>() as f64 / log_all.len().max(1) as f64,
        "ns",
    );
    m.set("store.log_p99_ns", percentile(&log_all, 99.0), "ns");
    let last = untraced.last().expect("at least one untraced pass");
    m.set("store.events_logged", last.events_logged as f64, "count");
    m.set("store.bytes_written", last.bytes_written as f64, "B");
    m.set("store.snapshots", last.snapshots as f64, "count");
    m.set(
        "store.replayed_events",
        last.replayed_events as f64,
        "count",
    );
    recovery_split(&mut m, inputs, traced, coord_ns, &core_ns);
    m.set(
        "client.frames_per_append",
        (last.frames_in - last.decides) as f64 / last.appends.max(1) as f64,
        "ratio",
    );
    let overheads: Vec<f64> = traced.iter().filter_map(|p| p.client_overhead).collect();
    let overhead = report::median(&overheads);
    m.set("client.overhead_ns_per_req", overhead, "ns");
    m.set(
        "service.dispatches",
        untraced.iter().map(|p| p.decides).sum::<u64>() as f64,
        "count",
    );
    // A client span's self time is everything outside the server's
    // in-process work: the client library, the socket round trips and the
    // wait behind the other connection. The library's part is its
    // measured overhead per exchange (1.5 exchanges per request: two per
    // append, one per poll); the rest is billed to `net`.
    let r = tr.rollup();
    let outside =
        r.self_ns.get("client").copied().unwrap_or(0) as f64 / r.roots.max(1) as f64 / 1e3;
    let exchanges =
        (2 * last.appends + last.decides) as f64 / (last.appends + last.decides).max(1) as f64;
    let library = (overhead * exchanges / 1e3).clamp(0.0, outside);
    crate::rollup_metrics(&mut m, &r, library, untraced_phase, &traced_phase);
    m.set("client.self_us_per_req", library, "us");
    m.set("net.self_us_per_req", outside - library, "us");
    m
}

/// The recovery split of every traced pass, each figure the median over
/// the passes.
///
/// The coordination driver's share is priced from the reference replay:
/// its per-event cost above a spec-less append, on exactly the log-tail
/// events each session replayed.
fn recovery_split(
    m: &mut Metrics,
    inputs: &Inputs,
    traced: &[Pass],
    coord_ns: &[Vec<u64>],
    core_ns: &[Vec<u64>],
) {
    let splits: Vec<&RecoverySplit> = traced.iter().filter_map(|p| p.split.as_ref()).collect();
    if splits.is_empty() {
        return;
    }
    let rewarm = |s: &RecoverySplit| s.warm_ns.saturating_sub(s.cold_ns) as f64;
    let coord = |s: &RecoverySplit| {
        let mut ns = 0u64;
        for (name, tail) in &s.tails {
            if let Some(i) = inputs.feeds.iter().position(|f| &f.name == name) {
                let n = coord_ns[i].len();
                ns += (n - *tail as usize..n)
                    .map(|k| coord_ns[i][k].saturating_sub(core_ns[i][k]))
                    .sum::<u64>();
            }
        }
        ns as f64
    };
    let share =
        |f: &dyn Fn(&RecoverySplit) -> f64, s: &RecoverySplit| f(s) / s.warm_ns.max(1) as f64;
    let median = |f: &dyn Fn(&RecoverySplit) -> f64| {
        report::median(&splits.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    let snapshot_ns: Vec<u64> = splits
        .iter()
        .flat_map(|s| s.snapshot_ns.iter().copied())
        .collect();
    m.set("store.snapshot_ns", median_ns(&snapshot_ns), "ns");
    m.set(
        "store.recover_ns_per_event",
        median(&|s| s.cold_ns as f64 / s.events.max(1) as f64),
        "ns",
    );
    m.set("store.rewarm_ns", median(&rewarm), "ns");
    m.set(
        "store.recover_replay_share",
        median(&|s| (1.0 - share(&rewarm, s) - share(&coord, s)).max(0.0)),
        "ratio",
    );
    m.set(
        "coord.recover_share",
        median(&|s| share(&coord, s)),
        "ratio",
    );
    m.set(
        "store.rewarm_share",
        median(&|s| share(&rewarm, s)),
        "ratio",
    );
}
