//! The two read workloads, served by a `NetServer` over a Unix socket to
//! two pipelining connections.
//!
//! * `warm-read` — 8 batch sessions over one small run, every observer
//!   state warmed before timing: the engine answers from cache, so the
//!   time is in `net`, `wire` and `serve`.
//! * `cold-observer-read` — 4 stream sessions over a 12-process run with
//!   an observer cache of 4; queries stride across observers, so nearly
//!   every one builds an observer state and the time is in `core`.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zigzag_api::{
    serve, wire, CachePolicy, NetConfig, NetServer, Query, SessionConfig, SessionId, StatsReport,
    ZigzagService,
};
use zigzag_bcm::{NodeId, ProcessId, Run, RunCursor};
use zigzag_core::incremental::IncrementalEngine;
use zigzag_core::GeneralNode;

use crate::pipe::{self, Plan};
use crate::report::{self, median_ns, LatencyHist, Metrics};
use crate::trace::Trace;
use crate::{Args, Checks, Outcome, Phase, Window, RUN_DIR};

/// Which read workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `warm-read`.
    Warm,
    /// `cold-observer-read`.
    Cold,
}

/// Connections driving the server.
const CONNS: usize = 2;
/// Frames per connection per pass.
const PASS_FRAMES: usize = 256;
/// One `Stats` frame per this many frames in the traced phase.
const STATS_EVERY: u64 = 512;
/// Length of a measurement window, in seconds.
const WINDOW_S: f64 = 1.0;

impl Kind {
    fn in_flight(self) -> usize {
        match self {
            Kind::Warm => 8,
            Kind::Cold => 2,
        }
    }

    /// Record one traced round trip in this many: a few thousand per
    /// traced phase, each replayed through every layer afterwards.
    fn sample_every(self) -> u64 {
        match self {
            Kind::Warm => 128,
            Kind::Cold => 8,
        }
    }

    fn cache_cap(self) -> Option<usize> {
        match self {
            Kind::Warm => None,
            Kind::Cold => Some(4),
        }
    }
}

/// The generated inputs: the run the sessions serve and one pass of
/// frames per connection.
struct Inputs {
    run: Run,
    frames: Vec<Vec<String>>,
}

/// Topology seed: the network is the same on every run; `--seed`
/// drives the schedule.
const TOPOLOGY_SEED: u64 = 11;

fn inputs(kind: Kind, seed: u64) -> Inputs {
    let (n, horizon, events, sessions) = match kind {
        Kind::Warm => (6, 60, 192, 8u64),
        Kind::Cold => (12, 80, 640, 4u64),
    };
    let ctx = zigzag_bench::scaled_context(n, 0.3, TOPOLOGY_SEED);
    let recorded = zigzag_bench::kicked_run(&ctx, ProcessId::new(0), 1, horizon, seed);
    let (run, _, nodes) = crate::prefix(&recorded, events);
    let anchor = nodes[0];
    let maxx = |sigma: NodeId| Query::MaxX {
        sigma,
        theta1: GeneralNode::basic(anchor),
        theta2: GeneralNode::basic(sigma),
    };
    // Sessions are opened first on a fresh service, so their handles are
    // 0..sessions.
    let frames = (0..CONNS)
        .map(|c| {
            (0..PASS_FRAMES)
                .map(|f| match kind {
                    Kind::Warm => {
                        let k = f + c * PASS_FRAMES / 2;
                        let sigma = nodes[k % nodes.len()];
                        let q = Query::QueryBatch(vec![
                            maxx(sigma),
                            Query::TightBound {
                                from: anchor,
                                to: sigma,
                            },
                        ]);
                        serve::encode_frame(SessionId::from_raw(k as u64 % sessions), &q)
                    }
                    Kind::Cold => {
                        // Each connection owns two sessions, so each
                        // session's queries arrive in one order.
                        let session = 2 * c + f % 2;
                        let t = f / 2;
                        let stride = stride_for(nodes.len());
                        let sigma = nodes[(t * stride + session * 37) % nodes.len()];
                        let q = match t % 3 {
                            0 => maxx(sigma),
                            1 => Query::Knows {
                                sigma,
                                theta1: GeneralNode::basic(anchor),
                                theta2: GeneralNode::basic(sigma),
                                x: 1,
                            },
                            _ => Query::Witness {
                                sigma,
                                theta1: GeneralNode::basic(anchor),
                                theta2: GeneralNode::basic(sigma),
                            },
                        };
                        serve::encode_frame(SessionId::from_raw(session as u64), &q)
                    }
                })
                .collect()
        })
        .collect();
    Inputs { run, frames }
}

/// A step through the observers that is coprime with their count, so a
/// session revisits an observer only after touching all the others.
fn stride_for(n: usize) -> usize {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    (n / 3..n).find(|&s| gcd(s, n) == 1).unwrap_or(1)
}

/// Opens the workload's sessions on a fresh 8-shard service.
fn open(kind: Kind, inputs: &Inputs) -> ZigzagService {
    let service = ZigzagService::sharded(8);
    let mut config = SessionConfig::new();
    if let Some(cap) = kind.cache_cap() {
        config = config.cache(CachePolicy::unbounded().max_observers(cap));
    }
    match kind {
        Kind::Warm => {
            for _ in 0..8 {
                service.open_batch(inputs.run.clone(), config.clone());
            }
        }
        Kind::Cold => {
            let events = RunCursor::new(&inputs.run).collect_events();
            for _ in 0..4 {
                let id = service.open_stream(
                    inputs.run.context_arc(),
                    inputs.run.horizon(),
                    config.clone(),
                );
                for ev in &events {
                    service.append(id, ev).expect("recorded feeds replay");
                }
            }
        }
    }
    service
}

fn all_frames(inputs: &Inputs) -> Vec<&str> {
    inputs.frames.iter().flatten().map(String::as_str).collect()
}

/// The serving system, ready for load.
struct Live {
    service: Arc<ZigzagService>,
    server: NetServer,
    sock: std::path::PathBuf,
    /// `warm-read` warms by answering every frame once in-process; the
    /// answers are the expected replies.
    warm_answers: Option<Vec<String>>,
}

fn set_up(kind: Kind, inputs: &Inputs, sock: &Path) -> Live {
    let service = Arc::new(open(kind, inputs));
    let warm_answers = (kind == Kind::Warm).then(|| serve::serve(&service, &all_frames(inputs), 1));
    let _ = std::fs::remove_file(sock);
    let server = NetServer::bind_unix(sock, Arc::clone(&service), NetConfig::new().workers(2))
        .expect("binding the benchmark socket");
    Live {
        service,
        server,
        sock: sock.to_path_buf(),
        warm_answers,
    }
}

/// One load phase: both connections run their plans concurrently while
/// this thread samples the process's CPU time at every window boundary.
fn load(
    kind: Kind,
    live: &Live,
    envelopes: &[Vec<Vec<u8>>],
    expected: &[Vec<String>],
    in_flight: usize,
    seconds: f64,
    traced: bool,
) -> (Phase, Vec<pipe::Outcome>) {
    let windows = ((seconds / WINDOW_S).floor() as usize).max(1);
    let window_len = Duration::from_secs_f64(seconds / windows as f64);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut cpu = vec![(start, report::cpu_seconds())];
    let outcomes: Vec<pipe::Outcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let plan = Plan {
                    envelopes: &envelopes[c],
                    expected: &expected[c],
                    in_flight,
                    start,
                    window_len,
                    windows,
                    deadline,
                    sample_every: traced.then_some(kind.sample_every()),
                    stats_every: traced.then_some(STATS_EVERY),
                };
                let sock = &live.sock;
                s.spawn(move || pipe::drive(sock, &plan))
            })
            .collect();
        for k in 1..=windows {
            let boundary = start + window_len * k as u32;
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            cpu.push((Instant::now(), report::cpu_seconds()));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join().expect("load thread panicked").unwrap_or_else(|e| {
                    eprintln!("perfbench: connection failed: {e}");
                    pipe::Outcome {
                        mismatched: 1,
                        ..Default::default()
                    }
                })
            })
            .collect()
    });
    let mut latency = LatencyHist::default();
    let mut phase_windows: Vec<Window> = cpu
        .windows(2)
        .map(|w| Window {
            wall_s: w[1].0.duration_since(w[0].0).as_secs_f64(),
            cpu_s: w[1].1 - w[0].1,
            latency: LatencyHist::default(),
        })
        .collect();
    for o in &outcomes {
        latency.merge(&o.latency);
        for (w, h) in phase_windows.iter_mut().zip(&o.windows) {
            w.latency.merge(h);
        }
    }
    let phase = Phase {
        requests: outcomes.iter().map(|o| o.sent).sum(),
        failed: outcomes.iter().map(|o| o.mismatched).sum(),
        wall_s: start.elapsed().as_secs_f64(),
        latency,
        windows: phase_windows,
    };
    (phase, outcomes)
}

/// The observers a frame's queries look up, in order.
fn observers(q: &Query, out: &mut Vec<NodeId>) {
    match q {
        Query::MaxX { sigma, .. } | Query::Knows { sigma, .. } | Query::Witness { sigma, .. } => {
            out.push(*sigma)
        }
        Query::QueryBatch(qs) => qs.iter().for_each(|q| observers(q, out)),
        _ => {}
    }
}

/// Observer-cache `(hits, misses, evictions)` an LRU of `cap` predicts
/// when each connection's pass is answered `passes[c]` times in order.
fn predict_cache(inputs: &Inputs, passes: &[u64], cap: Option<usize>) -> (u64, u64, u64) {
    let mut lru: HashMap<u64, VecDeque<NodeId>> = HashMap::new();
    let (mut hits, mut misses, mut evictions) = (0, 0, 0);
    let mut sigmas = Vec::new();
    for (c, frames) in inputs.frames.iter().enumerate() {
        let decoded: Vec<(SessionId, Query)> = frames
            .iter()
            .map(|f| serve::decode_frame(f).expect("generated frames decode"))
            .collect();
        for _ in 0..passes[c] {
            for (id, q) in &decoded {
                sigmas.clear();
                observers(q, &mut sigmas);
                let order = lru.entry(id.raw()).or_default();
                for sigma in &sigmas {
                    if let Some(pos) = order.iter().position(|s| s == sigma) {
                        hits += 1;
                        let s = order.remove(pos).expect("position is in range");
                        order.push_back(s);
                    } else {
                        misses += 1;
                        order.push_back(*sigma);
                        if cap.is_some_and(|cap| order.len() > cap) {
                            order.pop_front();
                            evictions += 1;
                        }
                    }
                }
            }
        }
    }
    (hits, misses, evictions)
}

/// Runs a read workload; see the module docs.
pub fn run(kind: Kind, args: &Args) -> Outcome {
    let name = match kind {
        Kind::Warm => "warm-read",
        Kind::Cold => "cold-observer-read",
    };
    let sock = Path::new(RUN_DIR).join(format!("{name}-{}.sock", std::process::id()));
    let (setup_s, (inputs, live)) = crate::timed_set_ups(|| {
        let inputs = inputs(kind, args.seed);
        let live = set_up(kind, &inputs, &sock);
        (inputs, live)
    });
    let mut checks = Checks::default();

    // Correctness gate: the expected replies are the in-process serving
    // loop's answers on the same service, and none may be an error.
    let flat = all_frames(&inputs);
    let answers = match &live.warm_answers {
        Some(a) => a.clone(),
        None => serve::serve(&live.service, &flat, 1),
    };
    checks.check(
        "every expected reply is an answer, not an error document",
        answers.iter().all(|a| !serve::is_error_document(a)),
    );
    let expected: Vec<Vec<String>> = answers
        .chunks(PASS_FRAMES)
        .map(<[String]>::to_vec)
        .collect();
    let envelopes: Vec<Vec<Vec<u8>>> = inputs.frames.iter().map(|f| pipe::envelopes(f)).collect();
    let in_flight = kind.in_flight();

    // One untimed pass per connection warms the socket path.
    let (warmup, warm_outcomes) = load(kind, &live, &envelopes, &expected, in_flight, 0.0, false);
    let mut passes: Vec<u64> = vec![1; CONNS]; // the in-process gate pass
    let mut sent = warmup.requests;
    let mut failed = warmup.failed;
    let mut stats_frames = 0;
    add_passes(&mut passes, &warm_outcomes);

    let phase_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let before = live.service.stats();
    let transport0 = live.server.transport();
    let (phase, outcomes) = load(
        kind, &live, &envelopes, &expected, in_flight, phase_s, false,
    );
    let peak_rss = report::peak_rss_mb();
    let after = live.service.stats();
    sent += phase.requests;
    failed += phase.failed;
    add_passes(&mut passes, &outcomes);

    let mut metrics = Metrics::default();
    crate::end_to_end(&mut metrics, &setup_s, &phase, peak_rss);

    let mut layers = Metrics::default();
    if args.trace {
        let (traced, traced_outcomes) =
            load(kind, &live, &envelopes, &expected, in_flight, phase_s, true);
        sent += traced.requests;
        failed += traced.failed;
        stats_frames += traced_outcomes.iter().map(|o| o.stats_frames).sum::<u64>();
        add_passes(&mut passes, &traced_outcomes);
        layers = trace_layers(
            kind,
            args,
            name,
            &inputs,
            &expected,
            &phase,
            &traced,
            &traced_outcomes,
        );
        let t1 = live.server.transport();
        let frames = (t1.frames_in - transport0.frames_in).max(1) as f64;
        layers.set(
            "net.read_syscalls_per_frame",
            (t1.read_syscalls - transport0.read_syscalls) as f64 / frames,
            "ratio",
        );
        layers.set(
            "net.frames_per_flush",
            (t1.frames_out - transport0.frames_out) as f64
                / (t1.writer_flushes - transport0.writer_flushes).max(1) as f64,
            "ratio",
        );
        layers.set(
            "net.bytes_per_frame_in",
            (t1.bytes_in - transport0.bytes_in) as f64 / frames,
            "B",
        );
        layers.set(
            "net.bytes_per_frame_out",
            (t1.bytes_out - transport0.bytes_out) as f64 / frames,
            "B",
        );
        layers.set("net.conn_failures", t1.conn_failures as f64, "count");
        let queue_max = traced_outcomes
            .iter()
            .map(|o| o.queue_depth_max)
            .max()
            .unwrap_or(0);
        layers.set("net.queue_depth_max", queue_max as f64, "count");
    }

    // Counter reconciliation against what was sent.
    let end = live.service.stats();
    let transport = live.server.transport();
    let dispatch_frames: u64 = passes.iter().sum::<u64>() * PASS_FRAMES as u64;
    checks.check(
        "Stats.queries equals the dispatch frames sent",
        end.queries == dispatch_frames,
    );
    checks.check(
        "frames_in equals the frames sent",
        transport.frames_in == sent + stats_frames,
    );
    let (hits, misses, evictions) = predict_cache(&inputs, &passes, kind.cache_cap());
    checks.check(
        "observer hits, misses and evictions equal the LRU's prediction",
        (
            end.observer_hits,
            end.observer_misses,
            end.observer_evictions,
        ) == (hits, misses, evictions),
    );
    checks.check("no connection failed", transport.conn_failures == 0);
    checks.check("every reply matched", failed == 0);

    let cache = cache_delta(&before, &after);
    if args.trace {
        layers.set("core.observer_hits", cache.0 as f64, "count");
        layers.set("core.observer_misses", cache.1 as f64, "count");
        layers.set("core.observer_evictions", cache.2 as f64, "count");
        layers.set(
            "core.observer_hit_ratio",
            cache.0 as f64 / (cache.0 + cache.1).max(1) as f64,
            "ratio",
        );
        layers.set(
            "service.dispatches",
            (after.queries - before.queries) as f64,
            "count",
        );
        layers.set(
            "service.server_dispatch_p50_ns",
            report::histogram_percentile(&before.latency, &after.latency, 50.0),
            "ns",
        );
    }
    drop(live);
    Outcome {
        name,
        metrics,
        layers,
        attempted: sent,
        failed,
        checks: checks.0,
    }
}

fn add_passes(passes: &mut [u64], outcomes: &[pipe::Outcome]) {
    for (c, o) in outcomes.iter().enumerate() {
        passes[c] += o.sent / PASS_FRAMES as u64;
    }
}

fn cache_delta(before: &StatsReport, after: &StatsReport) -> (u64, u64, u64) {
    (
        after.observer_hits - before.observer_hits,
        after.observer_misses - before.observer_misses,
        after.observer_evictions - before.observer_evictions,
    )
}

/// The engine work of a query on a core-level mirror of the session.
fn core_query(engine: &IncrementalEngine, q: &Query) -> i64 {
    let knowledge = |sigma: &NodeId| engine.engine(*sigma).expect("observer recorded");
    match q {
        Query::MaxX {
            sigma,
            theta1,
            theta2,
        } => knowledge(sigma)
            .max_x(theta1, theta2)
            .expect("answerable")
            .unwrap_or(0),
        Query::Knows {
            sigma,
            theta1,
            theta2,
            x,
        } => i64::from(
            knowledge(sigma)
                .knows(theta1, theta2, *x)
                .expect("answerable"),
        ),
        Query::Witness {
            sigma,
            theta1,
            theta2,
        } => knowledge(sigma)
            .witness(theta1, theta2)
            .expect("answerable")
            .map_or(0, |(w, _)| w),
        Query::TightBound { from, to } => engine
            .tight_bound(*from, *to)
            .expect("answerable")
            .unwrap_or(0),
        Query::QueryBatch(qs) => qs.iter().map(|q| core_query(engine, q)).sum(),
        _ => 0,
    }
}

fn kind_of(q: &Query) -> &'static str {
    match q {
        Query::MaxX { .. } => "maxx",
        Query::Knows { .. } => "knows",
        Query::Witness { .. } => "witness",
        Query::TightBound { .. } => "tightbound",
        Query::QueryBatch(_) => "batch",
        Query::CoordDecision => "coord",
        _ => "other",
    }
}

/// Replays the traced phase's sampled frames through each layer's public
/// functions on mirrors of the live service, builds the span tree under
/// each sampled round trip, and rolls it up.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    kind: Kind,
    args: &Args,
    name: &str,
    inputs: &Inputs,
    expected: &[Vec<String>],
    untraced: &Phase,
    traced: &Phase,
    outcomes: &[pipe::Outcome],
) -> Metrics {
    let mut tr = Trace::new(args.epoch);
    // Mirrors: one service per replayed layer, so each sees the same
    // cache history as the live one; and one core engine per session.
    let serve_mirror = open(kind, inputs);
    let dispatch_mirror = open(kind, inputs);
    let sessions = match kind {
        Kind::Warm => 8,
        Kind::Cold => 4,
    };
    let cores: Vec<IncrementalEngine> = (0..sessions)
        .map(|_| {
            let mut e = IncrementalEngine::ingest(&inputs.run).expect("recorded runs ingest");
            e.set_observer_cap(kind.cache_cap());
            e
        })
        .collect();
    if kind == Kind::Warm {
        let flat = all_frames(inputs);
        serve::serve(&serve_mirror, &flat, 1);
        serve::serve(&dispatch_mirror, &flat, 1);
        for f in &flat {
            let (id, q) = serve::decode_frame(f).expect("generated frames decode");
            core_query(&cores[id.raw() as usize], &q);
        }
    }

    let mut kinds: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut builds = Vec::new();
    let mut encode_frame = Vec::new();
    let mut decode_response = Vec::new();
    let mut frame_bytes = 0usize;
    let mut samples: Vec<(usize, pipe::Sample)> = outcomes
        .iter()
        .enumerate()
        .flat_map(|(c, o)| o.samples.iter().map(move |s| (c, *s)))
        .collect();
    samples.sort_by_key(|(_, (_, sent, _))| *sent);
    for (req, (c, (i, sent, got))) in samples.iter().enumerate() {
        let req = req as u64;
        let frame = &inputs.frames[*c][*i];
        frame_bytes += frame.len();
        let root = tr.push("net.round_trip", "net", *sent, *got, None, req);
        let (_, serve_span) = tr.time("serve.frame", "serve", Some(root), req, || {
            serve::serve(&serve_mirror, &[frame.as_str()], 1)
        });
        let ((id, q), _) = tr.time("wire.decode_frame", "wire", Some(serve_span), req, || {
            serve::decode_frame(frame).expect("generated frames decode")
        });
        let misses = dispatch_mirror.stats().observer_misses;
        let (response, dispatch_span) =
            tr.time("service.dispatch", "service", Some(serve_span), req, || {
                dispatch_mirror.dispatch(id, &q).expect("answerable")
            });
        let dispatch_ns = tr.spans()[dispatch_span].end_ns - tr.spans()[dispatch_span].start_ns;
        kinds.entry(kind_of(&q)).or_default().push(dispatch_ns);
        if dispatch_mirror.stats().observer_misses > misses {
            builds.push(dispatch_ns);
        }
        tr.time("core.query", "core", Some(dispatch_span), req, || {
            core_query(&cores[id.raw() as usize], &q)
        });
        tr.time(
            "wire.encode_response",
            "wire",
            Some(serve_span),
            req,
            || wire::encode_response(&response),
        );
        // Client-side codec costs, outside the request tree.
        let t = Instant::now();
        std::hint::black_box(serve::encode_frame(id, &q));
        encode_frame.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        std::hint::black_box(wire::decode_response(&expected[*c][*i]).expect("answers decode"));
        decode_response.push(t.elapsed().as_nanos() as u64);
        // Members of a batch, dispatched alone, price each query kind.
        if let Query::QueryBatch(members) = &q {
            for m in members {
                let t = Instant::now();
                std::hint::black_box(dispatch_mirror.dispatch(id, m).expect("answerable"));
                kinds
                    .entry(kind_of(m))
                    .or_default()
                    .push(t.elapsed().as_nanos() as u64);
            }
        }
    }
    let path = Path::new(RUN_DIR).join(format!("{name}-spans.csv"));
    if let Err(e) = tr.write_csv(&path) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }

    let mut m = Metrics::default();
    let rtt = median_ns(&tr.durations("net.round_trip"));
    let serve_ns = median_ns(&tr.durations("serve.frame"));
    m.set("net.transport_us_per_req", (rtt - serve_ns) / 1e3, "us");
    m.set("serve.frame_us", serve_ns / 1e3, "us");
    m.set("wire.encode_frame_ns", median_ns(&encode_frame), "ns");
    m.set(
        "wire.decode_frame_ns",
        median_ns(&tr.durations("wire.decode_frame")),
        "ns",
    );
    m.set(
        "wire.encode_response_ns",
        median_ns(&tr.durations("wire.encode_response")),
        "ns",
    );
    m.set("wire.decode_response_ns", median_ns(&decode_response), "ns");
    m.set(
        "wire.frame_bytes",
        frame_bytes as f64 / samples.len().max(1) as f64,
        "B",
    );
    for (k, v) in &kinds {
        if *k != "other" {
            m.set(&format!("service.dispatch_{k}_ns"), median_ns(v), "ns");
        }
    }
    m.set("core.observer_build_ns", median_ns(&builds), "ns");
    m.set(
        "core.query_ns",
        median_ns(&tr.durations("core.query")),
        "ns",
    );
    crate::rollup_metrics(&mut m, &tr.rollup(), 0.0, untraced, traced);
    m
}
