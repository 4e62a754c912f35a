//! Durability: log, crash, recover, and migrate a live session.
//!
//! Feeds a stream session through a [`SessionStore`] that logs every
//! append and installs a snapshot on cadence, then kills the process
//! state, tears the log mid-record the way a real crash does, and
//! recovers: the torn tail is dropped, the snapshot restores the prefix
//! in bulk, and the log tail replays through the normal append path.
//! The recovered session's probe answers are asserted byte-identical to
//! a session that never crashed.
//!
//! The second act moves the recovered session between two *live*
//! processes: two `NetServer`s on Unix sockets, a `Query::Export` frame
//! on one, the returned `zigzag-snap v3` document fed to the other as a
//! `Query::Import` frame, and the same probe asked of both — the
//! answers come back identical down to the byte.
//!
//! ```text
//! cargo run --example durable
//! ```

#[cfg(unix)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;

    use zigzag::api::net::{read_envelope, write_envelope, NetConfig, NetServer};
    use zigzag::api::{
        serve, wire, Query, Response, SessionConfig, SessionId, SessionStore, StoreConfig,
        ZigzagService,
    };
    use zigzag::bcm::protocols::Ffip;
    use zigzag::bcm::scheduler::RandomScheduler;
    use zigzag::bcm::{Network, RunCursor, SimConfig, Simulator, Time};
    use zigzag::core::GeneralNode;

    // Figure 1's shape: C fans out to A (fast) and B (slow).
    let mut nb = Network::builder();
    let c = nb.add_process("C");
    let a = nb.add_process("A");
    let b = nb.add_process("B");
    nb.add_channel(c, a, 2, 5)?;
    nb.add_channel(c, b, 9, 12)?;
    let ctx = nb.build()?;
    let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(60)));
    sim.external(Time::new(3), c, "go");
    // A steady drip of later signals so the feed is long enough for the
    // snapshot cadence to engage.
    for (i, t) in (8..45).step_by(4).enumerate() {
        sim.external(Time::new(t), c, format!("tick-{i}"));
    }
    let run = sim.run(&mut Ffip::new(), &mut RandomScheduler::seeded(1))?;
    let events: Vec<_> = {
        let mut cursor = RunCursor::new(&run);
        let mut events = Vec::new();
        while let Some(ev) = cursor.next_event() {
            events.push(ev);
        }
        events
    };

    // The probe both acts re-ask: how far apart can A's and B's views of
    // the same "go" signal drift?
    let sigma_c = run.external_receipt_node(c, "go").unwrap();
    let theta_a = GeneralNode::chain(sigma_c, &[a])?;
    let theta_b = GeneralNode::chain(sigma_c, &[b])?;
    let sigma = theta_b.resolve(&run)?;
    let probe = Query::MaxX {
        sigma,
        theta1: theta_a,
        theta2: theta_b,
    };

    // The reference: a session that never crashes.
    let reference = {
        let service = ZigzagService::new();
        let id = service.open_stream(run.context_arc(), run.horizon(), SessionConfig::new());
        for ev in &events {
            service.append(id, ev)?;
        }
        service.dispatch(id, &probe)?
    };

    // ── Act 1: log every append, snapshot on cadence, crash, recover ──
    let root = std::env::temp_dir().join(format!("zigzag-durable-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    {
        let store = SessionStore::open(&root, StoreConfig::new().snapshot_every(16))?;
        let service = ZigzagService::new();
        let id = store.open_stream(
            &service,
            "flight",
            run.context_arc(),
            run.horizon(),
            SessionConfig::new(),
        )?;
        for ev in &events {
            store.append(&service, id, ev)?;
        }
        println!("fed {} events into {}", events.len(), root.display());
        // The crash: every in-memory structure dies with this scope.
    }
    // A real crash can also tear the last record in half.
    {
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(root.join("flight.log"))?;
        log.write_all(b"ev d 1 tor")?; // no newline: a torn record
    }

    let store = SessionStore::open(&root, StoreConfig::new())?;
    let service = Arc::new(ZigzagService::sharded(4));
    let rec = store.recover(&service, "flight")?;
    println!(
        "recovered: snapshot={} restored={} replayed={} torn-tail-dropped={}",
        rec.from_snapshot, rec.restored_events, rec.replayed_events, rec.truncated
    );
    assert!(rec.truncated, "the torn record should have been dropped");
    let answer = service.dispatch(rec.id, &probe)?;
    assert_eq!(answer, reference, "recovery changed an answer");
    println!("probe after recovery matches the uncrashed session: {answer:?}");

    // ── Act 2: migrate the recovered session between live servers ──
    let sock = |tag: &str| {
        std::env::temp_dir().join(format!("zigzag-durable-{tag}-{}.sock", std::process::id()))
    };
    let (path_a, path_b) = (sock("a"), sock("b"));
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
    let cfg = || NetConfig::new().workers(2);
    let server_a = NetServer::bind_unix(&path_a, Arc::clone(&service), cfg())?;
    let service_b = Arc::new(ZigzagService::sharded(4));
    let server_b = NetServer::bind_unix(&path_b, Arc::clone(&service_b), cfg())?;

    let mut conn_a = UnixStream::connect(&path_a)?;
    let mut conn_b = UnixStream::connect(&path_b)?;

    // Export from A: the session becomes one self-contained document.
    write_envelope(&mut conn_a, &serve::encode_frame(rec.id, &Query::Export))?;
    let doc = read_envelope(&mut conn_a, 1 << 22)?.expect("server A closed early");
    let Response::Exported(snap) = wire::decode_response(&doc)? else {
        panic!("export answered with a non-snapshot document");
    };
    println!(
        "exported a {}-event snapshot from server A",
        RunCursor::new(&snap.run).remaining()
    );

    // Import into B: any session line routes an import frame.
    write_envelope(
        &mut conn_b,
        &serve::encode_frame(SessionId::from_raw(0), &Query::Import(snap)),
    )?;
    let doc = read_envelope(&mut conn_b, 1 << 22)?.expect("server B closed early");
    let Response::Imported(moved) = wire::decode_response(&doc)? else {
        panic!("import answered without a session handle");
    };

    // The same probe against both servers: byte-identical envelopes.
    write_envelope(&mut conn_a, &serve::encode_frame(rec.id, &probe))?;
    write_envelope(&mut conn_b, &serve::encode_frame(moved, &probe))?;
    let doc_a = read_envelope(&mut conn_a, 1 << 22)?.expect("server A closed early");
    let doc_b = read_envelope(&mut conn_b, 1 << 22)?.expect("server B closed early");
    assert_eq!(doc_a, doc_b, "the probe diverged across the migration");
    println!("probe answers on both servers are byte-identical");

    drop((conn_a, conn_b));
    server_a.shutdown();
    server_b.shutdown();
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
    let _ = std::fs::remove_dir_all(&root);
    println!("done");
    Ok(())
}

#[cfg(not(unix))]
fn main() {
    eprintln!("this example needs Unix-domain sockets");
}
