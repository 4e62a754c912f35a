//! Facade-level behavior tests: the cache policy (LRU bound + warm
//! rebuild) and what a session keeps, session lifecycle and error surface,
//! a concurrency stress test holding interleaved multi-threaded traffic
//! to the serial replay, and the wire encoding's round-trip guarantee
//! (encode → decode → identical dispatch result, writer-based encoders
//! byte-identical to the `String`-returning ones) as a property test
//! over random runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use proptest::prelude::*;
use zigzag::api::{
    serve, store, wire, CachePolicy, CoordKind, Error, ProbeSemantics, Query, Response,
    SessionConfig, SessionId, SessionStore, StoreConfig, TimedCoordination, ZigzagService,
};
use zigzag::bcm::protocols::Ffip;
use zigzag::bcm::scheduler::RandomScheduler;
use zigzag::bcm::stream::{ReceiptEvent, RunEvent};
use zigzag::bcm::{
    topology, BcmError, NodeId, ProcessId, Run, RunCursor, SimConfig, Simulator, StreamingRun, Time,
};
use zigzag::core::{CoreError, GeneralNode, IncrementalEngine};

fn tri_run(seed: u64, horizon: u64) -> Run {
    let mut b = zigzag::bcm::Network::builder();
    let i = b.add_process("i");
    let j = b.add_process("j");
    let k = b.add_process("k");
    b.add_bidirectional(i, j, 2, 5).unwrap();
    b.add_bidirectional(j, k, 1, 4).unwrap();
    b.add_bidirectional(i, k, 3, 7).unwrap();
    let ctx = b.build().unwrap();
    let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(horizon)));
    sim.external(Time::new(1), i, "kick");
    sim.run(&mut Ffip::new(), &mut RandomScheduler::seeded(seed))
        .unwrap()
}

/// With the LRU bound set to k, a streaming session never holds more
/// than k observer states — asserted after every query — and an evicted
/// observer's next query rebuilds a state that answers byte-identically.
#[test]
fn lru_bounded_stream_session_caps_states_and_rebuilds_identically() {
    const K: usize = 2;
    let run = tri_run(3, 40);
    let service = ZigzagService::new();
    let bounded = service.open_stream(
        run.context_arc(),
        run.horizon(),
        SessionConfig::new().cache(CachePolicy::unbounded().max_observers(K)),
    );
    // An unbounded twin answers in lockstep: the policy must never change
    // an answer.
    let unbounded = service.open_stream(run.context_arc(), run.horizon(), SessionConfig::new());

    let mut cursor = RunCursor::new(&run);
    let mut nodes = Vec::new();
    while let Some(ev) = cursor.next_event() {
        nodes.push(service.append(bounded, &ev).unwrap().node);
        service.append(unbounded, &ev).unwrap();
    }
    assert!(nodes.len() > K, "need more observers than the bound");

    let mut first = Vec::new();
    for &sigma in &nodes {
        let q = Query::MaxXMatrix { sigma };
        first.push(service.dispatch(bounded, &q).unwrap());
        assert!(
            service.observer_count(bounded).unwrap() <= K,
            "bounded session exceeded {K} observer states at {sigma}"
        );
        assert_eq!(
            first.last().unwrap(),
            &service.dispatch(unbounded, &q).unwrap(),
            "LRU policy changed an answer at {sigma}"
        );
    }
    // The unbounded twin kept everything; the bounded one evicted.
    assert_eq!(service.observer_count(unbounded).unwrap(), nodes.len());
    // Revisit every observer (most were evicted): answers identical.
    for (&sigma, before) in nodes.iter().zip(&first) {
        let again = service
            .dispatch(bounded, &Query::MaxXMatrix { sigma })
            .unwrap();
        assert_eq!(&again, before, "warm rebuild diverged at {sigma}");
        assert!(service.observer_count(bounded).unwrap() <= K);
    }
}

/// Batch sessions honor the same LRU bound.
#[test]
fn lru_bounded_batch_session_caps_states() {
    let run = tri_run(1, 40);
    let service = ZigzagService::new();
    let session = service.open_batch(
        run.clone(),
        SessionConfig::new().cache(CachePolicy::unbounded().max_observers(1)),
    );
    let nodes: Vec<NodeId> = run
        .nodes()
        .map(|r| r.id())
        .filter(|n| !n.is_initial())
        .collect();
    let mut answers = Vec::new();
    for &sigma in &nodes {
        answers.push(
            service
                .dispatch(session, &Query::MaxXMatrix { sigma })
                .unwrap(),
        );
        assert_eq!(service.observer_count(session).unwrap(), 1);
    }
    for (&sigma, before) in nodes.iter().zip(&answers) {
        assert_eq!(
            &service
                .dispatch(session, &Query::MaxXMatrix { sigma })
                .unwrap(),
            before
        );
    }
}

/// A snapshot's observer cap applies before its manifest is warmed, so
/// a restore builds at most as many states as the cap keeps, and the
/// manifest runs from least to most recently used, so a restore keeps
/// the states and the LRU order the source had. Over wire frames, for
/// every ordered pair (x, y) of the first eight observers of a cap-2
/// session queried at x, then y: the export lists x, then y. An `Import`
/// whose snapshot caps its cache at 1 builds one state, y's, and a query
/// at y hits. Imported as exported, a third observer evicts x, its repeat
/// query and a query at y hit, and x is rebuilt. A store's recovery with
/// `warm_observers(true)` of a cap-1 snapshot over two `obs` lines builds
/// one state too, the later line's.
#[test]
fn imported_caps_keep_the_lru_order_of_warmed_states() {
    let run = tri_run(2, 30);
    let sigmas = observers_of(&run);
    let answer = |target: &ZigzagService, frame: &str| {
        let reply = serve::serve(target, &[frame], 1);
        wire::decode_response(&reply[0]).unwrap_or_else(|e| panic!("{e}: {}", reply[0]))
    };
    // (hits, misses, evictions) over every session of `target`.
    let counters = |target: &ZigzagService| {
        let stats = serve::encode_frame(SessionId::from_raw(0), &Query::Stats);
        let Response::Stats(report) = answer(target, &stats) else {
            panic!("stats answers Stats");
        };
        let r = *report;
        (r.observer_hits, r.observer_misses, r.observer_evictions)
    };
    let import = |target: &ZigzagService, frame: &str| match answer(target, frame) {
        Response::Imported(id) => id,
        other => panic!("import answered {other:?}"),
    };
    let query =
        |id: SessionId, sigma: NodeId| serve::encode_frame(id, &Query::MaxXMatrix { sigma });

    let capped = SessionConfig::new().cache(CachePolicy::unbounded().max_observers(2));
    let firsts = &sigmas[..8];
    for (&x, &y) in firsts
        .iter()
        .flat_map(|x| firsts.iter().map(move |y| (x, y)))
    {
        if x == y {
            continue;
        }
        let z = *firsts.iter().find(|&&z| z != x && z != y).unwrap();
        let source = ZigzagService::new();
        let session = source.open_batch(run.clone(), capped.clone());
        for sigma in [x, y] {
            source
                .dispatch(session, &Query::MaxXMatrix { sigma })
                .unwrap();
        }
        let Response::Exported(snap) = source.dispatch(session, &Query::Export).unwrap() else {
            panic!("export answers Exported");
        };
        assert_eq!(snap.observers, [x, y], "manifest after {x}, {y}");
        let frame = serve::encode_frame(session, &Query::Import(snap));
        assert!(frame.contains("\ncache 2\n"), "{frame}");

        let target = ZigzagService::new();
        let id = import(&target, &frame.replacen("\ncache 2\n", "\ncache 1\n", 1));
        assert_eq!(target.observer_count(id).unwrap(), 1);
        assert_eq!(counters(&target), (0, 1, 0));
        answer(&target, &query(id, y));
        assert_eq!(counters(&target), (1, 1, 0), "cap 1 after {x}, {y}");

        let target = ZigzagService::new();
        let id = import(&target, &frame);
        for (sigma, want) in [
            (z, (0, 3, 1)),
            (z, (1, 3, 1)),
            (y, (2, 3, 1)),
            (x, (2, 4, 2)),
        ] {
            answer(&target, &query(id, sigma));
            assert_eq!(counters(&target), want, "at {sigma} after {x}, {y}");
        }
        assert_eq!(target.observer_count(id).unwrap(), 2);
    }

    // A durable cap-1 session's snapshot, with a second `obs` line added
    // to its manifest.
    let dir = std::env::temp_dir().join(format!("zigzag-capped-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
    let writer = ZigzagService::new();
    let one = SessionConfig::new().cache(CachePolicy::unbounded().max_observers(1));
    let id = store
        .open_stream(&writer, "capped", run.context_arc(), run.horizon(), one)
        .unwrap();
    for ev in RunCursor::new(&run) {
        store.append(&writer, id, &ev).unwrap();
    }
    writer
        .dispatch(id, &Query::MaxXMatrix { sigma: sigmas[0] })
        .unwrap();
    assert!(store.snapshot(&writer, id).unwrap(), "snapshot refused");
    writer.close(id).unwrap();
    let obs = |sigma: NodeId| format!("obs {} {}\n", sigma.proc().index(), sigma.index());
    let path = store.snap_path("capped");
    let snap = std::fs::read_to_string(&path).unwrap();
    let two = obs(sigmas[0]) + &obs(sigmas[1]);
    let snap = snap.replacen(
        &format!("observers 1\n{}", obs(sigmas[0])),
        &format!("observers 2\n{two}"),
        1,
    );
    assert!(snap.contains(&two), "{snap}");
    std::fs::write(&path, snap).unwrap();

    let target = ZigzagService::new();
    let warm = SessionStore::open(&dir, StoreConfig::new().warm_observers(true)).unwrap();
    let rec = warm.recover(&target, "capped").unwrap();
    assert!(rec.from_snapshot);
    assert_eq!(target.observer_count(rec.id).unwrap(), 1);
    assert_eq!(counters(&target), (0, 1, 0));
    answer(&target, &query(rec.id, sigmas[1]));
    assert_eq!(counters(&target), (1, 1, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The facade's session lifecycle and error surface: batch sessions
/// that keep streaming, unknown sessions, missing specs.
#[test]
fn session_lifecycle_and_error_surface() {
    let run = tri_run(2, 30);
    let service = ZigzagService::new();
    let id = service.open_batch(run.clone(), SessionConfig::new());
    assert_eq!(service.session_count(), 1);

    // A batch session is its run restored as the last prefix of its own
    // stream. Opened over the first half of a feed, it takes the rest as
    // appends and then answers like a replay of the whole run — with or
    // without a spec, under either probe — and so does an Export → Import
    // of a batch session over the whole run.
    let events = RunCursor::new(&run).collect_events();
    let half = events.len() / 2;
    let mut prefix = StreamingRun::new(run.context_arc(), run.horizon());
    for ev in &events[..half] {
        prefix.append(ev).unwrap();
    }
    let prefix = prefix.finish();
    let nodes = observers_of(&run);
    let (first, last) = (nodes[0], *nodes.last().unwrap());
    let probes = [
        Query::MaxXMatrix { sigma: last },
        Query::TightBound {
            from: first,
            to: last,
        },
        Query::EventCount,
        Query::CoordDecision,
    ];
    // The kick at `i` relayed to `j`, against `k`'s knowledge.
    let (i, j, k) = (ProcessId::new(0), ProcessId::new(1), ProcessId::new(2));
    let mut spec = TimedCoordination::new(CoordKind::Late { x: 1 }, j, k, i);
    spec.go_name = "kick".into();
    let shapes = ZigzagService::new();
    let answers = |id| {
        probes
            .iter()
            .map(|q| shapes.dispatch(id, q))
            .collect::<Vec<_>>()
    };
    for config in [
        SessionConfig::new(),
        SessionConfig::new().spec(spec.clone()),
        SessionConfig::new()
            .spec(spec)
            .probe(ProbeSemantics::ExcludeOwnSends),
    ] {
        let (replayed, _) = shapes.open_replay(&run, config.clone()).unwrap();
        let want = answers(replayed);
        let batch = shapes.open_batch(prefix.clone(), config.clone());
        assert_eq!(shapes.event_count(batch).unwrap(), half as u64);
        // A bound cached before the first append catches up after it.
        let (from, to) = (first, first);
        shapes
            .dispatch(batch, &Query::TightBound { from, to })
            .unwrap();
        for ev in &events[half..] {
            shapes.append(batch, ev).unwrap();
        }
        assert_eq!(answers(batch), want, "{config:?}: append after open_batch");

        let whole = shapes.open_batch(run.clone(), config.clone());
        let Response::Exported(snap) = shapes.dispatch(whole, &Query::Export).unwrap() else {
            panic!("export answers Exported");
        };
        let Response::Imported(moved) = shapes.dispatch(whole, &Query::Import(snap)).unwrap()
        else {
            panic!("import answers Imported");
        };
        assert_eq!(answers(whole), want, "{config:?}: open_batch");
        assert_eq!(answers(moved), want, "{config:?}: export → import");
    }
    // Coordination queries need a spec.
    assert!(matches!(
        service.dispatch(id, &Query::CoordDecision),
        Err(Error::NoSpec)
    ));
    let stream = service.open_stream(run.context_arc(), run.horizon(), SessionConfig::new());
    assert!(matches!(
        service.dispatch(stream, &Query::CoordDecision),
        Err(Error::NoSpec)
    ));
    // Closing invalidates the handle.
    service.close(id).unwrap();
    assert!(matches!(
        service.dispatch(id, &Query::CoordDecision),
        Err(Error::UnknownSession { .. })
    ));
    assert!(matches!(
        service.close(id),
        Err(Error::UnknownSession { .. })
    ));
    assert_eq!(service.session_count(), 1);

    // Underlying engine errors surface through the facade with their
    // layer error intact (non-lossy source chain).
    let missing = NodeId::new(ProcessId::new(0), 99);
    let err = service
        .dispatch(stream, &Query::MaxXMatrix { sigma: missing })
        .unwrap_err();
    assert!(matches!(err, Error::Core(_)));
    assert!(std::error::Error::source(&err).is_some());

    // A tight bound with an endpoint the run does not record — beyond a
    // timeline, or on a process the network lacks — is refused naming
    // it, at either end; served as a frame, it answers the error
    // document.
    let batch = service.open_batch(run, SessionConfig::new());
    let p0 = NodeId::new(ProcessId::new(0), 1);
    let far = NodeId::new(ProcessId::new(1), 1_000_000);
    let foreign = NodeId::new(ProcessId::new(7), 1);
    for (from, to, missing) in [(p0, far, far), (p0, foreign, foreign), (far, p0, far)] {
        let q = Query::TightBound { from, to };
        let err = service.dispatch(batch, &q).unwrap_err();
        assert!(
            matches!(&err, Error::Core(CoreError::NodeNotInRun { detail })
                if detail.contains(&missing.to_string())),
            "{q:?}: {err:?}"
        );
        if missing == foreign {
            let served = serve::serve(&service, &[serve::encode_frame(batch, &q)], 1);
            assert_eq!(served, vec![serve::encode_error(&err)]);
        }
    }
}

/// `FastRun`'s `gamma` and `extra_horizon` arrive from the wire as
/// unvalidated `u64`s. Where they would overflow the construction's time
/// arithmetic, the answer is a typed, non-retryable error naming the
/// parameter — in process and through a served frame alike — never a run
/// built from wrapped times.
#[test]
fn fast_run_parameters_that_overflow_are_refused_by_name() {
    let run = tri_run(2, 30);
    let service = ZigzagService::new();
    let session = service.open_batch(run.clone(), SessionConfig::new());
    let sigma = run.nodes().map(|r| r.id()).last().unwrap();
    let theta = GeneralNode::basic(NodeId::new(ProcessId::new(0), 1));
    let fast_run = |gamma, extra_horizon| Query::FastRun {
        sigma,
        theta: theta.clone(),
        gamma,
        extra_horizon,
    };
    assert!(matches!(
        service.dispatch(session, &fast_run(0, 12)),
        Ok(Response::FastRun(_))
    ));
    for (gamma, extra_horizon, parameter, value) in [
        (1u64 << 63, 12, "gamma", 1u64 << 63),
        (u64::MAX, 12, "gamma", u64::MAX),
        (0, u64::MAX, "extra_horizon", u64::MAX),
    ] {
        let q = fast_run(gamma, extra_horizon);
        let err = service.dispatch(session, &q).unwrap_err();
        assert_eq!(
            err,
            Error::Core(CoreError::ParameterOutOfRange { parameter, value })
        );
        assert!(!err.is_retryable());
        let served = serve::serve(&service, &[serve::encode_frame(session, &q)], 1);
        assert_eq!(served, vec![serve::encode_error(&err)]);
        // A client reads the refusal back with the parameter named.
        let Error::Internal { detail } = serve::decode_error(&served[0]) else {
            panic!("a causality-layer error reads back as Internal");
        };
        assert!(
            detail.contains(&format!("{parameter} = {value}")),
            "{detail}"
        );
    }
}

/// A `FastRun` whose `extra_horizon` fits in the times but exceeds the
/// cap (`MAX_EXTENSION` times the longer of the run's horizon and the
/// fast run's last prescribed time) is refused with the same typed
/// error, in process and over the wire, instead of flooding FFIP
/// messages up to that horizon; an extension at the cap is built.
#[test]
fn fast_run_horizon_extensions_beyond_the_cap_are_refused() {
    use zigzag::core::construct::MAX_EXTENSION;

    let run = tri_run(2, 30);
    let service = ZigzagService::new();
    let session = service.open_batch(run.clone(), SessionConfig::new());
    let sigma = run.nodes().map(|r| r.id()).last().unwrap();
    let theta = GeneralNode::basic(NodeId::new(ProcessId::new(0), 1));
    let fast_run = |extra_horizon| Query::FastRun {
        sigma,
        theta: theta.clone(),
        gamma: 0,
        extra_horizon,
    };
    let Ok(Response::FastRun(built)) = service.dispatch(session, &fast_run(0)) else {
        panic!("the unextended fast run is built");
    };
    let cap = MAX_EXTENSION * built.run.horizon().ticks().max(run.horizon().ticks());
    assert!(matches!(
        service.dispatch(session, &fast_run(cap)),
        Ok(Response::FastRun(_))
    ));
    for extra_horizon in [cap + 1, 20_000] {
        let q = fast_run(extra_horizon);
        let err = service.dispatch(session, &q).unwrap_err();
        assert_eq!(
            err,
            Error::Core(CoreError::ParameterOutOfRange {
                parameter: "extra_horizon",
                value: extra_horizon,
            })
        );
        let served = serve::serve(&service, &[serve::encode_frame(session, &q)], 1);
        assert_eq!(served, vec![serve::encode_error(&err)]);
    }
}

/// An `Append` frame delivering a message off its channel, or outside
/// its channel's bounds, is answered with a typed error document and
/// changes nothing: afterwards the session answers and appends exactly
/// like a twin that never received it.
#[test]
fn refused_appends_over_the_wire_change_nothing() {
    let run = tri_run(4, 30);
    let (i, j, k) = (ProcessId::new(0), ProcessId::new(1), ProcessId::new(2));
    let mut spec = TimedCoordination::new(CoordKind::Late { x: 1 }, j, k, i);
    spec.go_name = "kick".into();
    let config = SessionConfig::new().spec(spec);
    let service = ZigzagService::new();
    let session = service.open_stream(run.context_arc(), run.horizon(), config.clone());
    let twin = service.open_stream(run.context_arc(), run.horizon(), config);
    let append = |id, ev: &RunEvent| serve::encode_frame(id, &Query::Append(Box::new(ev.clone())));
    let refused = |e: BcmError| serve::encode_error(&Error::Coord(CoreError::Bcm(e).into()));

    // The legal prefix, grown alongside, names the in-flight messages.
    let mut prefix = StreamingRun::new(run.context_arc(), run.horizon());
    let (mut off_channel, mut out_of_bounds) = (0, 0);
    for ev in RunCursor::new(&run) {
        let grown = prefix.run();
        let node = NodeId::new(ev.proc, grown.timeline(ev.proc).len() as u32);
        let mut bad = Vec::new();
        if let Some(m) = grown
            .messages()
            .iter()
            .find(|m| !m.is_delivered() && m.channel().to != ev.proc)
        {
            let mut e = ev.clone();
            e.receipts.push(ReceiptEvent::Message(m.id()));
            let (id, ch) = (m.id(), m.channel());
            let detail = format!("message {id} delivered to {node} off-channel {ch}");
            bad.push((e, BcmError::IllegalRun { detail }));
            off_channel += 1;
        }
        if let Some(ReceiptEvent::Message(m)) = ev.receipts.first() {
            let m = grown.message(*m);
            let ch = m.channel();
            let upper = run
                .context()
                .channel_bounds(ch.from, ch.to)
                .unwrap()
                .upper();
            let e = RunEvent {
                time: m.sent_at() + upper + 1,
                ..ev.clone()
            };
            let err = BcmError::DeliveryOutOfBounds {
                from: ch.from,
                to: ch.to,
                sent_at: m.sent_at(),
                delivered_at: e.time,
            };
            bad.push((e, err));
            out_of_bounds += 1;
        }
        for (e, err) in bad {
            let served = serve::serve(&service, &[append(session, &e)], 1);
            assert_eq!(served, [refused(err)]);
        }

        let served = serve::serve(&service, &[append(session, &ev), append(twin, &ev)], 1);
        assert_eq!(served[0], served[1]);
        assert!(!serve::is_error_document(&served[0]), "{}", served[0]);
        let node = prefix.append(&ev).unwrap();
        let probes = [
            Query::MaxXMatrix { sigma: node },
            Query::TightBound {
                from: NodeId::new(i, 1),
                to: node,
            },
            Query::EventCount,
            Query::CoordDecision,
        ];
        let answers = |id| {
            let frames: Vec<String> = probes.iter().map(|q| serve::encode_frame(id, q)).collect();
            serve::serve(&service, &frames, 1)
        };
        assert_eq!(answers(session), answers(twin), "diverged at {node}");
    }
    assert!(off_channel > 0 && out_of_bounds > 0);
}

/// A session fed out of `(time, process)` order keeps its message ids
/// when it moves: B@5 sends m0 to A, then A@2 sends m1 to B, due by 8
/// on a `[1, 6]` channel, so B can still receive it after its node at 5
/// and the prefix stays legal. Exported and imported through wire
/// frames, the moved session accepts the next append — A@7 receiving
/// m0 — and answers like the source; a snapshot of it is written, and
/// recovery restores it and replays that append.
#[test]
fn out_of_order_feeds_keep_their_message_ids_across_migration_and_snapshots() {
    use zigzag::bcm::stream::SendEvent;
    use zigzag::bcm::MessageId;

    let mut b = zigzag::bcm::Network::builder();
    let a = b.add_process("A");
    let bb = b.add_process("B");
    b.add_channel(a, bb, 1, 6).unwrap();
    b.add_channel(bb, a, 1, 3).unwrap();
    let context = std::sync::Arc::new(b.build().unwrap());
    let event = |proc, time, receipt, send: Option<(ProcessId, u64)>| RunEvent {
        proc,
        time: Time::new(time),
        receipts: vec![receipt],
        sends: send
            .map(|(to, at)| SendEvent {
                to,
                deliver_at: Time::new(at),
            })
            .into_iter()
            .collect(),
        actions: Vec::new(),
    };
    let kick = || ReceiptEvent::External("kick".into());
    let feed = [
        event(bb, 5, kick(), Some((a, 7))),
        event(a, 2, kick(), Some((bb, 7))),
    ];
    let next = event(a, 7, ReceiptEvent::Message(MessageId::new(0)), None);

    let dir = std::env::temp_dir().join(format!("zigzag-swapped-ids-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let served = |service: &ZigzagService, id, q: Query| {
        let out = serve::serve(service, &[serve::encode_frame(id, &q)], 1);
        wire::decode_response(&out[0]).unwrap_or_else(|e| panic!("{q:?}: {e}: {}", out[0]))
    };
    let append = |ev: &RunEvent| Query::Append(Box::new(ev.clone()));
    {
        let source = ZigzagService::new();
        let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
        let id = store
            .open_stream(
                &source,
                "swapped",
                std::sync::Arc::clone(&context),
                Time::new(20),
                SessionConfig::new(),
            )
            .unwrap();
        for ev in &feed {
            served(&source, id, append(ev));
        }
        let Response::Exported(snap) = served(&source, id, Query::Export) else {
            panic!("export answers Exported");
        };
        let target = ZigzagService::new();
        let any = zigzag::api::SessionId::from_raw(0);
        let Response::Imported(moved) = served(&target, any, Query::Import(snap)) else {
            panic!("import answers Imported");
        };
        assert!(store.snapshot(&source, id).unwrap(), "snapshot refused");

        assert_eq!(served(&source, id, append(&next)), Response::Appended(3));
        assert_eq!(served(&target, moved, append(&next)), Response::Appended(3));
        let sigma = NodeId::new(a, 2);
        for q in [
            Query::MaxXMatrix { sigma },
            Query::TightBound {
                from: NodeId::new(bb, 1),
                to: sigma,
            },
        ] {
            assert_eq!(served(&source, id, q.clone()), served(&target, moved, q));
        }
    }
    // After a crash the snapshot restores the first two events, and the
    // third replays on top of it.
    let service = ZigzagService::new();
    let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
    let rec = store.recover(&service, "swapped").unwrap();
    assert!(rec.from_snapshot);
    assert_eq!((rec.restored_events, rec.replayed_events), (2, 1));
    assert!(!rec.truncated);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An `Append` frame whose event names a process beyond `u32` is a wire
/// error, not the event of the process 2³² below it: served, it answers
/// the frame's decode error document and the session's event count does
/// not move.
#[test]
fn appends_naming_processes_beyond_u32_are_refused() {
    // Process 2³² sending to 2³² + 1, which narrowing would read as
    // process 0 sending to 1.
    let narrowed = RunEvent {
        proc: ProcessId::new(0),
        time: Time::new(3),
        receipts: vec![ReceiptEvent::External("go".into())],
        sends: vec![zigzag::bcm::stream::SendEvent {
            to: ProcessId::new(1),
            deliver_at: Time::new(9),
        }],
        actions: Vec::new(),
    };
    let doc = wire::encode_query(&Query::Append(Box::new(narrowed.clone())));
    let line = zigzag::bcm::codec::encode_event(&narrowed);
    assert_eq!(line, "ev 0 3 1 ego 1 1 9 0");
    let wide = doc.replace(&line, "ev 4294967296 3 1 ego 1 4294967297 9 0");
    assert!(matches!(wire::decode_query(&wide), Err(Error::Wire { .. })));

    let run = tri_run(2, 30);
    let service = ZigzagService::new();
    let session = service.open_stream(run.context_arc(), run.horizon(), SessionConfig::new());
    for (k, ev) in RunCursor::new(&run).enumerate() {
        let frame = serve::encode_frame(session, &Query::Append(Box::new(ev.clone())));
        let p = ev.proc.index() as u64;
        let widened = frame.replacen(&format!("ev {p} "), &format!("ev {} ", p + (1 << 32)), 1);
        assert_ne!(widened, frame);
        let err = serve::decode_frame(&widened).unwrap_err();
        assert!(matches!(err, Error::Wire { .. }), "{err}");
        let served = serve::serve(&service, &[widened], 1);
        assert_eq!(served, vec![serve::encode_error(&err)]);
        assert_eq!(service.event_count(session).unwrap(), k as u64);
        service.append(session, &ev).unwrap();
    }
}

/// An `Import` frame whose snapshot declares a channel bound above
/// `MAX_BOUND`, which no edge weight can carry, is a wire error: served,
/// it answers the frame's decode error document and opens no session.
#[test]
fn imports_with_bounds_beyond_the_cap_are_refused() {
    let service = ZigzagService::new();
    let session = service.open_batch(tri_run(2, 30), SessionConfig::new());
    let Response::Exported(snap) = service.dispatch(session, &Query::Export).unwrap() else {
        panic!("export answers Exported");
    };
    let frame = serve::encode_frame(session, &Query::Import(snap));
    assert!(frame.contains("chan 0 1 2 5\n"));
    let hostile = frame.replacen("chan 0 1 2 5\n", "chan 0 1 2 9223372036854775808\n", 1);
    let err = serve::decode_frame(&hostile).unwrap_err();
    assert!(matches!(err, Error::Wire { .. }), "{err}");
    let served = serve::serve(&service, &[hostile], 1);
    assert_eq!(served, vec![serve::encode_error(&err)]);
    assert_eq!(service.session_count(), 1);
}

/// A coordination spec whose `B` is not a process of the run decides
/// nothing: a batch session opened over the run and a stream session fed
/// it both answer `CoordDecision` with no `first_known`.
#[test]
fn specs_naming_processes_outside_the_run_abstain() {
    let run = tri_run(2, 30);
    let (i, j) = (ProcessId::new(0), ProcessId::new(1));
    let mut spec = TimedCoordination::new(CoordKind::Late { x: 1 }, j, ProcessId::new(7), i);
    spec.go_name = "kick".into();
    let config = SessionConfig::new().spec(spec);
    let service = ZigzagService::new();
    let batch = service.open_batch(run.clone(), config.clone());
    let stream = service.open_stream(run.context_arc(), run.horizon(), config);
    for ev in RunCursor::new(&run) {
        assert_eq!(service.append(stream, &ev).unwrap().b_knows, None);
    }
    for id in [batch, stream] {
        let Response::CoordDecision(report) = service.dispatch(id, &Query::CoordDecision).unwrap()
        else {
            panic!("CoordDecision answers a report");
        };
        assert_eq!(report.first_known, None);
        assert!(report.sigma_c.is_some(), "the trigger still arrives");
    }
}

/// A chain hop to a process outside the network is a missing channel,
/// whatever the bounds table's layout. On a complete network a
/// `from · n + to` index with `to` in `n..2n` would land on another
/// channel's bounds; every knowledge query naming such a hop instead
/// answers `MissingChannel` for it, in process and served.
#[test]
fn chain_hops_outside_the_network_are_missing_channels() {
    const N: u32 = 3;
    let mut b = zigzag::bcm::Network::builder();
    let procs = b.add_processes(N as usize);
    for (x, &p) in procs.iter().enumerate() {
        for &q in &procs[x + 1..] {
            b.add_bidirectional(p, q, 1, 3).unwrap();
        }
    }
    let mut sim = Simulator::new(b.build().unwrap(), SimConfig::with_horizon(Time::new(20)));
    sim.external(Time::new(1), procs[0], "kick");
    let run = sim
        .run(&mut Ffip::new(), &mut RandomScheduler::seeded(5))
        .unwrap();
    let service = ZigzagService::new();
    let batch = service.open_batch(run.clone(), SessionConfig::new());
    let (stream, _) = service.open_replay(&run, SessionConfig::new()).unwrap();
    // σ on p1 sends to p2 at once, outside its past; the chain then
    // hops p2 → p0 → r.
    let sigma = run.timeline(procs[1])[1].id();
    let theta2 = GeneralNode::basic(sigma);
    for r in N..2 * N {
        let theta1 = GeneralNode::chain(sigma, &[procs[2], procs[0], ProcessId::new(r)]).unwrap();
        let missing = Error::Core(CoreError::Bcm(BcmError::MissingChannel {
            from: procs[0],
            to: ProcessId::new(r),
        }));
        let queries = [
            Query::MaxX {
                sigma,
                theta1: theta1.clone(),
                theta2: theta2.clone(),
            },
            Query::Knows {
                sigma,
                theta1: theta1.clone(),
                theta2: theta2.clone(),
                x: 0,
            },
            Query::Witness {
                sigma,
                theta1,
                theta2: theta2.clone(),
            },
        ];
        for id in [batch, stream] {
            for q in &queries {
                assert_eq!(service.dispatch(id, q).unwrap_err(), missing, "{q:?}");
                let served = serve::serve(&service, &[serve::encode_frame(id, q)], 1);
                assert_eq!(served, vec![serve::encode_error(&missing)]);
            }
        }
    }
}

/// Streaming coordination through the facade agrees with the batch
/// session's `CoordDecision` on the same run: on Figure 1, and on a
/// feedback topology where `B` has outgoing channels (a B ⇄ D cycle) —
/// the regime where the two probe semantics decide on different graphs —
/// under both probes.
#[test]
fn coordination_decisions_agree_across_session_shapes() {
    let mut nb = zigzag::bcm::Network::builder();
    let c = nb.add_process("C");
    let a = nb.add_process("A");
    let b = nb.add_process("B");
    nb.add_channel(c, a, 2, 5).unwrap();
    nb.add_channel(c, b, 9, 12).unwrap();
    let ctx = nb.build().unwrap();
    let spec = TimedCoordination::new(CoordKind::Late { x: 4 }, a, b, c);
    for seed in 0..4 {
        let sc =
            zigzag::coord::Scenario::new(spec.clone(), ctx.clone(), Time::new(3), Time::new(80))
                .unwrap();
        let (run, verdict) = sc
            .run_verified(
                &mut zigzag::coord::OptimalStrategy,
                &mut RandomScheduler::seeded(seed),
            )
            .unwrap();
        let service = ZigzagService::new();
        let config = SessionConfig::new().spec(spec.clone());
        let (stream, reports) = service.open_replay(&run, config.clone()).unwrap();
        let batch = service.open_batch(run.clone(), config);
        let on = service.dispatch(stream, &Query::CoordDecision).unwrap();
        let off = service.dispatch(batch, &Query::CoordDecision).unwrap();
        assert_eq!(on, off, "seed {seed}: session shapes diverged");
        let Response::CoordDecision(report) = on else {
            unreachable!()
        };
        // Figure 1: B has no outgoing channels, so both probe semantics
        // coincide with the in-simulation protocol.
        assert_eq!(report.first_known, verdict.b_node, "seed {seed}");
        assert_eq!(reports.len(), run.node_count() - 3);
    }

    let mut graphs_differed = false;
    for (x, l_bd, u_bd) in [(4i64, 1u64, 1u64), (4, 1, 9), (5, 1, 1)] {
        let sc = feedback_scenario(x, l_bd, u_bd);
        let spec = sc.spec().clone();
        let b = spec.b;
        for seed in 0..4 {
            let (run, verdict) = sc
                .run_verified(
                    &mut zigzag::coord::OptimalStrategy,
                    &mut RandomScheduler::seeded(seed),
                )
                .unwrap();
            let mut verdicts = Vec::new();
            for probe in [
                ProbeSemantics::IncludeOwnSends,
                ProbeSemantics::ExcludeOwnSends,
            ] {
                let service = ZigzagService::new();
                let config = SessionConfig::new().spec(spec.clone()).probe(probe);
                let (stream, _) = service.open_replay(&run, config.clone()).unwrap();
                let batch = service.open_batch(run.clone(), config);
                let on = service.dispatch(stream, &Query::CoordDecision).unwrap();
                let off = service.dispatch(batch, &Query::CoordDecision).unwrap();
                assert_eq!(
                    on, off,
                    "x={x} [{l_bd},{u_bd}] seed {seed} {probe:?}: session shapes diverged"
                );
                let Response::CoordDecision(report) = on else {
                    unreachable!()
                };
                verdicts.push(report.first_known);
            }
            // The exclude probe is the in-simulation protocol's view.
            assert_eq!(verdicts[1], verdict.b_node, "x={x} seed {seed}");
            // B's own sends are what the exclude probe leaves out of
            // `GE(r, σ)`, so here the two probes decide on different
            // graphs.
            let engine = IncrementalEngine::from_prefix(run.clone());
            graphs_differed |= run.timeline(b)[1..].iter().any(|rec| {
                let edges = |probe: ProbeSemantics| {
                    let decider = engine.uncached_engine(rec.id(), probe.mode()).unwrap();
                    decider.ge().edges().len()
                };
                edges(ProbeSemantics::IncludeOwnSends) != edges(ProbeSemantics::ExcludeOwnSends)
            });
        }
    }
    assert!(
        graphs_differed,
        "the feedback topology never separated the two probes' graphs"
    );
}

/// `Late⟨a →x b⟩` on the B ⇄ D feedback topology: C → A `[2,5]`,
/// C → B `[9,12]`, C → D `[1,2]`, B → D `[l_bd,u_bd]`, D → B `[1,3]`.
fn feedback_scenario(x: i64, l_bd: u64, u_bd: u64) -> zigzag::coord::Scenario {
    let mut nb = zigzag::bcm::Network::builder();
    let c = nb.add_process("C");
    let a = nb.add_process("A");
    let b = nb.add_process("B");
    let d = nb.add_process("D");
    nb.add_channel(c, a, 2, 5).unwrap();
    nb.add_channel(c, b, 9, 12).unwrap();
    nb.add_channel(c, d, 1, 2).unwrap();
    nb.add_channel(b, d, l_bd, u_bd).unwrap();
    nb.add_channel(d, b, 1, 3).unwrap();
    let spec = TimedCoordination::new(CoordKind::Late { x }, a, b, c);
    zigzag::coord::Scenario::new(spec, nb.build().unwrap(), Time::new(3), Time::new(45)).unwrap()
}

/// A batch session with a spec decides `CoordDecision` at open, under
/// either probe, and retains nothing: its observer cache is empty and
/// counted no miss, answering the query builds nothing, and the decision
/// equals the fresh-build `first_knowledge`.
#[test]
fn batch_sessions_decide_coordination_at_open() {
    let sc = feedback_scenario(4, 1, 9);
    let (run, _) = sc
        .run_verified(
            &mut zigzag::coord::OptimalStrategy,
            &mut RandomScheduler::seeded(1),
        )
        .unwrap();
    for probe in [
        ProbeSemantics::IncludeOwnSends,
        ProbeSemantics::ExcludeOwnSends,
    ] {
        let service = ZigzagService::new();
        let config = SessionConfig::new().spec(sc.spec().clone()).probe(probe);
        let batch = service.open_batch(run.clone(), config);
        assert_eq!(service.observer_count(batch).unwrap(), 0, "{probe:?}");
        let Response::CoordDecision(report) =
            service.dispatch(batch, &Query::CoordDecision).unwrap()
        else {
            panic!("CoordDecision answers a report");
        };
        let (first_known, sigma_c) =
            zigzag::coord::first_knowledge(sc.spec(), &run, probe).unwrap();
        assert!(first_known.is_some(), "{probe:?}: B never knew");
        assert_eq!((report.first_known, report.sigma_c), (first_known, sigma_c));
        assert_eq!(service.observer_count(batch).unwrap(), 0, "{probe:?}");
        assert_eq!(service.stats().observer_misses, 0, "{probe:?}");
    }
}

/// A session's observer cache holds the states queries read and counts
/// their misses, and nothing for coordination decisions: on a stream
/// session that decided at every `B`-node and was polled after every
/// append, and on a batch session that decided at open, under either
/// probe, `MaxX` at three observers leaves three states, three misses
/// and a three-observer export manifest.
#[test]
fn sessions_keep_and_count_query_states_only() {
    let sc = feedback_scenario(4, 1, 9);
    let (run, _) = sc
        .run_verified(
            &mut zigzag::coord::OptimalStrategy,
            &mut RandomScheduler::seeded(1),
        )
        .unwrap();
    let nodes = observers_of(&run);
    let queried = [nodes[0], nodes[nodes.len() / 2], *nodes.last().unwrap()];
    for probe in [
        ProbeSemantics::IncludeOwnSends,
        ProbeSemantics::ExcludeOwnSends,
    ] {
        let config = SessionConfig::new().spec(sc.spec().clone()).probe(probe);
        let streamed = ZigzagService::new();
        let stream = streamed.open_stream(run.context_arc(), run.horizon(), config.clone());
        let mut decided = 0;
        for ev in RunCursor::new(&run) {
            decided += usize::from(streamed.append(stream, &ev).unwrap().b_knows.is_some());
            streamed.dispatch(stream, &Query::CoordDecision).unwrap();
        }
        assert!(decided > 3, "{probe:?}: too few decisions to tell");
        let batched = ZigzagService::new();
        let batch = batched.open_batch(run.clone(), config);
        for (service, id) in [(&streamed, stream), (&batched, batch)] {
            for &sigma in &queried {
                let here = GeneralNode::basic(sigma);
                let q = Query::MaxX {
                    sigma,
                    theta1: here.clone(),
                    theta2: here,
                };
                service.dispatch(id, &q).unwrap();
            }
            assert_eq!(service.observer_count(id).unwrap(), 3, "{probe:?}");
            assert_eq!(service.stats().observer_misses, 3, "{probe:?}");
            let mut manifest = service.export(id).unwrap().observers;
            manifest.sort();
            assert_eq!(manifest, queried, "{probe:?}");
        }
    }
}

/// Store documents of versions 1 and 2 are refused, not misread:
/// `recover` refuses such a log with `Error::Store` and leaves its files
/// as they were, and such a snapshot is refused by the snapshot decoder
/// and, embedded in a served `Import` frame, answers the frame's error
/// document and opens no session.
#[test]
fn version_1_store_documents_are_refused() {
    // A v2 document: the v2 headers and a `zigzag-run v1` embed holding
    // the skeleton alone; a snapshot also has an `events` line, and its
    // `ev` lines follow the embed.
    let to_v2 = |doc: &str| -> String {
        let events = doc.lines().filter(|l| l.starts_with("ev ")).count();
        let snap = doc.contains("zigzag-snap v3\n");
        doc.lines()
            .map(|l| match l {
                "zigzag-log v3" => "zigzag-log v2\n".to_string(),
                "zigzag-snap v3" => format!("zigzag-snap v2\nevents {events}\n"),
                "zigzag-run v2" => "zigzag-run v1\n".to_string(),
                _ => match (l.strip_prefix("run "), l.strip_prefix("snaplines ")) {
                    (Some(k), _) if snap => {
                        format!("run {}\n", k.parse::<usize>().unwrap() - events)
                    }
                    (_, Some(k)) => format!("snaplines {}\n", k.parse::<usize>().unwrap() + 1),
                    _ => format!("{l}\n"),
                },
            })
            .collect()
    };
    // A v1 document: a v2 one with the v1 headers, a compaction cadence
    // on the `cache` line, and a mode on every `obs` line.
    let to_v1 = |doc: &str| -> String {
        to_v2(doc)
            .replacen("zigzag-log v2\n", "zigzag-log v1\n", 1)
            .replacen("zigzag-snap v2\n", "zigzag-snap v1\n", 1)
            .replacen("cache .\n", "cache . .\n", 1)
            .lines()
            .map(|l| match l.starts_with("obs ") {
                true => format!("{l} full\n"),
                false => format!("{l}\n"),
            })
            .collect()
    };
    let run = tri_run(2, 30);
    let sigma = observers_of(&run)[0];
    for (version, convert) in [("v1", &to_v1 as &dyn Fn(&str) -> String), ("v2", &to_v2)] {
        let dir =
            std::env::temp_dir().join(format!("zigzag-{version}-refusal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = ZigzagService::new();
        let store = SessionStore::open(&dir, StoreConfig::new().snapshot_every(4)).unwrap();
        let id = store
            .open_stream(
                &service,
                "feed",
                run.context_arc(),
                run.horizon(),
                SessionConfig::new(),
            )
            .unwrap();
        for ev in RunCursor::new(&run) {
            store.append(&service, id, &ev).unwrap();
            // A queried observer puts an `obs` line in every snapshot.
            service.dispatch(id, &Query::MaxXMatrix { sigma }).unwrap();
        }
        let mut files = Vec::new();
        for path in [store.log_path("feed"), store.snap_path("feed")] {
            let old = convert(&std::fs::read_to_string(&path).unwrap());
            assert!(old.contains(&format!(" {version}\n")), "{old}");
            assert!(old.contains("zigzag-run v1\n"), "{old}");
            assert!(version == "v2" || old.contains("cache . .\n"), "{old}");
            std::fs::write(&path, &old).unwrap();
            files.push((path, old));
        }
        // Recovered by a restarted process's store: this store's live
        // session holds the log.
        let restarted = SessionStore::open(&dir, StoreConfig::new()).unwrap();
        let err = restarted.recover(&service, "feed").unwrap_err();
        assert!(
            matches!(&err, Error::Store { detail } if detail.contains("bad header")),
            "{version}: {err}"
        );
        for (path, old) in &files {
            assert_eq!(&std::fs::read_to_string(path).unwrap(), old, "{path:?}");
        }

        let Response::Exported(snap) = service.dispatch(id, &Query::Export).unwrap() else {
            panic!("export answers Exported");
        };
        assert_eq!(snap.observers, vec![sigma]);
        let old = convert(&store::encode_snapshot(&snap));
        assert!(matches!(
            store::decode_snapshot(&old),
            Err(Error::Store { .. })
        ));
        let frame = serve::encode_frame(id, &Query::Import(snap));
        let hostile = convert(&frame);
        assert!(hostile.contains(&format!("zigzag-snap {version}\n")));
        assert!(version == "v2" || hostile.contains(" full\n"));
        let err = serve::decode_frame(&hostile).unwrap_err();
        assert!(matches!(err, Error::Wire { .. }), "{version}: {err}");
        let sessions = service.session_count();
        let served = serve::serve(&service, &[hostile], 1);
        assert_eq!(served, vec![serve::encode_error(&err)]);
        assert_eq!(service.session_count(), sessions);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn observers_of(run: &Run) -> Vec<NodeId> {
    run.nodes()
        .map(|r| r.id())
        .filter(|n| !n.is_initial())
        .collect()
}

/// The concurrency stress tier: interleaved queries + appends fired at
/// one `ZigzagService` from many threads must each equal the serial
/// replay — the per-session-lock claim of the facade, exercised
/// genuinely multi-threaded.
///
/// Two stream sessions grow concurrently (one appender thread each, so
/// each session's feed stays ordered) while three query threads hammer
/// both sessions with observer-anchored queries at racing prefixes. By
/// observer stability, every such answer — including engine errors for
/// unrecognized anchors — is prefix-independent once the observer
/// exists, so each recorded `(session, query) → result` must equal a
/// fresh serial service that appended everything first.
#[test]
fn concurrent_queries_and_appends_match_serial_replay() {
    let runs = [tri_run(5, 45), tri_run(8, 45)];
    let events: Vec<Vec<_>> = runs
        .iter()
        .map(|r| RunCursor::new(r).collect_events())
        .collect();
    let service = ZigzagService::new();
    let sessions: Vec<_> = runs
        .iter()
        .map(|r| service.open_stream(r.context_arc(), r.horizon(), SessionConfig::new()))
        .collect();

    // Appended-node logs, shared with the query threads.
    let appended: Vec<Mutex<Vec<NodeId>>> = runs.iter().map(|_| Mutex::new(Vec::new())).collect();
    let done = AtomicBool::new(false);
    type Recorded = (usize, Query, Result<Response, Error>);

    let recorded: Vec<Recorded> = std::thread::scope(|scope| {
        for (i, events) in events.iter().enumerate() {
            let (service, session, log) = (&service, sessions[i], &appended[i]);
            scope.spawn(move || {
                for ev in events {
                    let node = service.append(session, ev).expect("legal feed").node;
                    log.lock().unwrap().push(node);
                }
            });
        }
        let queriers: Vec<_> = (0..3)
            .map(|w| {
                let (service, sessions, appended, done) = (&service, &sessions, &appended, &done);
                scope.spawn(move || {
                    let mut recorded: Vec<Recorded> = Vec::new();
                    let mut k = w;
                    loop {
                        // Flag read before the query: each thread keeps
                        // querying while the appenders race, and issues a
                        // floor of queries overall so the fully-grown
                        // prefix is covered even when the feeds drain
                        // quickly.
                        let drained = done.load(Ordering::Acquire) && recorded.len() >= 40;
                        if drained {
                            break;
                        }
                        let i = k % sessions.len();
                        let nodes = appended[i].lock().unwrap().clone();
                        if nodes.is_empty() {
                            std::thread::yield_now();
                            continue;
                        }
                        let sigma = nodes[k % nodes.len()];
                        let anchor = nodes[k / 2 % nodes.len()];
                        let query = match k % 3 {
                            0 => Query::MaxXMatrix { sigma },
                            1 => Query::MaxX {
                                sigma,
                                theta1: GeneralNode::basic(anchor),
                                theta2: GeneralNode::basic(sigma),
                            },
                            _ => Query::QueryBatch(vec![
                                Query::Knows {
                                    sigma,
                                    theta1: GeneralNode::basic(anchor),
                                    theta2: GeneralNode::basic(sigma),
                                    x: -2,
                                },
                                Query::MaxXMatrix { sigma },
                            ]),
                        };
                        let result = service.dispatch(sessions[i], &query);
                        recorded.push((i, query, result));
                        k += 1;
                    }
                    recorded
                })
            })
            .collect();
        // The appender handles: scope joins them automatically, but the
        // done flag must flip only after both feeds drain — join
        // explicitly by watching the logs.
        while appended
            .iter()
            .zip(&events)
            .any(|(log, evs)| log.lock().unwrap().len() < evs.len())
        {
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);
        queriers
            .into_iter()
            .flat_map(|h| h.join().expect("query thread panicked"))
            .collect()
    });
    assert!(
        recorded.len() > 50,
        "stress test recorded too little traffic ({})",
        recorded.len()
    );

    // Serial replay: append everything first, then re-ask every recorded
    // query — responses (and errors) must be identical.
    let serial = ZigzagService::new();
    let serial_sessions: Vec<_> = runs
        .iter()
        .map(|r| serial.open_stream(r.context_arc(), r.horizon(), SessionConfig::new()))
        .collect();
    for (i, events) in events.iter().enumerate() {
        for ev in events {
            serial.append(serial_sessions[i], ev).unwrap();
        }
    }
    for (i, query, result) in &recorded {
        assert_eq!(
            &serial.dispatch(serial_sessions[*i], query),
            result,
            "concurrent answer diverged from the serial replay on {query:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Wire round-trip: every query survives encode → decode unchanged
    /// and the decoded query dispatches to the identical response; every
    /// response (fast runs and matrices included) survives encode →
    /// decode unchanged.
    #[test]
    fn wire_round_trip_preserves_queries_and_dispatch_results(
        n in 3usize..6,
        density in 0u8..=10,
        topo_seed in 0u64..10_000,
        sched_seed in 0u64..10_000,
    ) {
        let ctx = topology::random(n, density as f64 / 10.0, 1, 6, topo_seed).unwrap();
        let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(18)));
        // `#` and doubled spaces in the name survive the run documents
        // that fast-run responses embed.
        sim.external(Time::new(1), ProcessId::new(0), "kick #1  now");
        let run = sim
            .run(&mut Ffip::new(), &mut RandomScheduler::seeded(sched_seed))
            .unwrap();
        let nodes = observers_of(&run);
        let Some(&sigma) = nodes.last() else { return Ok(()) };
        let anchor = nodes[0];
        let (ta, tb) = (GeneralNode::basic(anchor), GeneralNode::basic(sigma));

        let queries = vec![
            Query::MaxX { sigma, theta1: ta.clone(), theta2: tb.clone() },
            Query::Knows { sigma, theta1: ta.clone(), theta2: tb.clone(), x: -3 },
            Query::Witness { sigma, theta1: ta.clone(), theta2: tb.clone() },
            Query::MaxXMatrix { sigma },
            Query::TightBound { from: anchor, to: sigma },
            Query::FastRun { sigma, theta: tb.clone(), gamma: 1, extra_horizon: 12 },
            Query::QueryBatch(vec![
                Query::MaxX { sigma, theta1: ta.clone(), theta2: tb.clone() },
                Query::TightBound { from: anchor, to: sigma },
            ]),
        ];

        let service = ZigzagService::new();
        let session = service.open_batch(run.clone(), SessionConfig::new());
        for q in &queries {
            // The query itself round-trips...
            let encoded = wire::encode_query(q);
            let decoded = wire::decode_query(&encoded).unwrap();
            prop_assert_eq!(&decoded, q);
            // ...the writer-based encoder streams the identical bytes...
            let mut streamed = String::new();
            wire::encode_query_to(&mut streamed, q).unwrap();
            prop_assert_eq!(&streamed, &encoded, "encode_query_to diverged");
            // ...and the decoded form dispatches to the identical result.
            let direct = service.dispatch(session, q).unwrap();
            let via_wire = service.dispatch(session, &decoded).unwrap();
            prop_assert_eq!(&via_wire, &direct, "wire dispatch diverged");
            // The response round-trips too (fast runs reuse the run
            // codec), and its writer-based encoder is byte-identical.
            let encoded = wire::encode_response(&direct);
            let back = wire::decode_response(&encoded).unwrap();
            prop_assert_eq!(&back, &direct, "response round trip changed the answer");
            let mut streamed = String::new();
            wire::encode_response_to(&mut streamed, &direct).unwrap();
            prop_assert_eq!(&streamed, &encoded, "encode_response_to diverged");
            // Serving frames wrap the same documents losslessly.
            let frame = serve::encode_frame(session, q);
            prop_assert_eq!(serve::decode_frame(&frame).unwrap(), (session, q.clone()));
        }
    }
}

/// Stats documents round-trip the wire byte-exactly — query and
/// response sides, writer-based encoders included — and malformed stats
/// documents (wrong bucket counts, overclaimed gauge counts, truncation)
/// are rejected with wire errors, never panics or misdecodes.
#[test]
fn stats_documents_round_trip_and_reject_malformation() {
    use zigzag::api::{StatsReport, LATENCY_BUCKETS};

    let qdoc = wire::encode_query(&Query::Stats);
    assert_eq!(wire::decode_query(&qdoc).unwrap(), Query::Stats);
    let mut streamed = String::new();
    wire::encode_query_to(&mut streamed, &Query::Stats).unwrap();
    assert_eq!(streamed, qdoc);

    let mut report = StatsReport {
        queries: 42,
        observer_hits: 7,
        observer_misses: 5,
        observer_evictions: 2,
        sessions_per_shard: vec![3, 0, 1],
        queue_depths: vec![2, 5],
        ..StatsReport::default()
    };
    for (i, b) in report.latency.buckets.iter_mut().enumerate() {
        *b = (i as u64) * 3;
    }
    let doc = wire::encode_response(&Response::Stats(Box::new(report.clone())));
    assert_eq!(
        wire::decode_response(&doc).unwrap(),
        Response::Stats(Box::new(report.clone()))
    );
    let mut streamed = String::new();
    wire::encode_response_to(&mut streamed, &Response::Stats(Box::new(report.clone()))).unwrap();
    assert_eq!(streamed, doc);
    // Empty gauges (the in-process shape) round-trip too.
    report.sessions_per_shard.clear();
    report.queue_depths.clear();
    let doc = wire::encode_response(&Response::Stats(Box::new(report.clone())));
    assert_eq!(
        wire::decode_response(&doc).unwrap(),
        Response::Stats(Box::new(report))
    );

    let lat_ok = {
        let mut s = String::from("lat");
        for _ in 0..LATENCY_BUCKETS {
            s.push_str(" 0");
        }
        s
    };
    let lat_short = {
        let mut s = String::from("lat");
        for _ in 0..LATENCY_BUCKETS - 1 {
            s.push_str(" 0");
        }
        s
    };
    let hostile = [
        // Counter line truncated.
        "zigzag-response v1\nstats 1 2 3\n".to_string(),
        // Missing / short / overlong latency lines.
        "zigzag-response v1\nstats 1 2 3 4\n".to_string(),
        format!("zigzag-response v1\nstats 1 2 3 4\n{lat_short}\nshards 0\nqueues 0\n"),
        format!("zigzag-response v1\nstats 1 2 3 4\n{lat_ok} 0\nshards 0\nqueues 0\n"),
        // Gauge lines promising more values than the line carries — the
        // count is rejected before any allocation for it.
        format!("zigzag-response v1\nstats 1 2 3 4\n{lat_ok}\nshards 4000000000 1\nqueues 0\n"),
        format!("zigzag-response v1\nstats 1 2 3 4\n{lat_ok}\nshards 0\nqueues 17 1 2\n"),
        // Wrong tags and non-numeric values.
        format!("zigzag-response v1\nstats 1 2 3 4\n{lat_ok}\nqueues 0\nshards 0\n"),
        format!("zigzag-response v1\nstats 1 2 3 4\n{lat_ok}\nshards 1 x\nqueues 0\n"),
        // Trailing garbage after a complete document.
        format!("zigzag-response v1\nstats 1 2 3 4\n{lat_ok}\nshards 0\nqueues 0\nextra\n"),
    ];
    for doc in &hostile {
        assert!(
            matches!(wire::decode_response(doc), Err(Error::Wire { .. })),
            "accepted hostile stats doc: {doc:?}"
        );
    }
}

/// Stats is service-level: the service answers it for any routing
/// handle, a bare session refuses it, and nesting it in a batch is the
/// same refusal encoded as an error response.
#[test]
fn stats_is_service_level_only() {
    let run = tri_run(2, 24);
    let service = ZigzagService::new();
    let id = service.open_batch(run.clone(), SessionConfig::new());
    service
        .dispatch(
            id,
            &Query::MaxXMatrix {
                sigma: run
                    .nodes()
                    .map(|r| r.id())
                    .find(|n| !n.is_initial())
                    .unwrap(),
            },
        )
        .unwrap();

    // Service dispatch answers, even for a handle naming no session.
    let Response::Stats(report) = service
        .dispatch(zigzag::api::SessionId::from_raw(700), &Query::Stats)
        .unwrap()
    else {
        panic!("service-level stats dispatch returned a non-stats answer");
    };
    assert_eq!(report.queries, 1);
    assert_eq!(report.latency.count(), 1);
    assert_eq!(report.observer_misses, 1);
    // Stats itself is not a dispatch: asking again reports the same.
    let Response::Stats(again) = service.dispatch(id, &Query::Stats).unwrap() else {
        panic!("non-stats answer");
    };
    assert_eq!(again, report);

    // Nested in a batch, the whole dispatch fails with the typed error,
    // for every service-level operation, and its text names none of them.
    for q in [Query::Stats, Query::EventCount] {
        let err = service
            .dispatch(id, &Query::QueryBatch(vec![q]))
            .unwrap_err();
        assert!(matches!(err, Error::ServiceLevelQuery), "{err:?}");
        assert!(!err.to_string().contains("stats"), "{err}");
    }
}
