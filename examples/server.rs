//! Network serving: the socket front end, end to end over a Unix socket.
//!
//! Binds a `NetServer` on a Unix-domain socket over a warm
//! `ZigzagService`, connects a client, and speaks the length-delimited
//! `zigzag-frame v1` envelope *pipelined*, the way the transport is
//! built to be used: every request envelope is encoded into one buffer
//! and written with a single syscall, and the replies are scanned back
//! in order through a reusable `EnvelopeScanner`. The frames cover
//! knowledge queries, a query batch, and a deliberately hostile frame
//! (answered with a deterministic `zigzag-error v2` document in its
//! arrival slot); a final `stats` query shows the serving counters —
//! latency histogram, observer-cache hits/misses, queue depths, and the
//! transport counters proving the syscall amortization — all read from
//! the wire. Ends with a graceful drain.
//!
//! ```text
//! cargo run --example server
//! ```

#[cfg(unix)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;

    use zigzag::api::net::{
        encode_envelope_into, write_envelope, EnvelopeScanner, NetConfig, NetServer,
    };
    use zigzag::api::{serve, wire, Query, Response, SessionConfig, SessionId, ZigzagService};
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
    let run = sim.run(&mut Ffip::new(), &mut RandomScheduler::seeded(1))?;

    // A service with one batch session and one stream session replaying
    // the same schedule — the socket serves both alike.
    let service = Arc::new(ZigzagService::sharded(8));
    let batch = service.open_batch(run.clone(), SessionConfig::new());
    let stream = service.open_stream(run.context_arc(), run.horizon(), SessionConfig::new());
    let mut cursor = RunCursor::new(&run);
    while let Some(ev) = cursor.next_event() {
        service.append(stream, &ev)?;
    }

    let path =
        std::env::temp_dir().join(format!("zigzag-server-example-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = NetServer::bind_unix(&path, Arc::clone(&service), NetConfig::new().workers(2))?;
    println!(
        "── serving on {} (2 workers) ───────────────────────",
        path.display()
    );

    let mut conn = UnixStream::connect(&path)?;

    // The same knowledge question as the quickstart, now over the wire.
    let sigma_c = run.external_receipt_node(c, "go").unwrap();
    let theta_a = GeneralNode::chain(sigma_c, &[a])?;
    let theta_b = GeneralNode::chain(sigma_c, &[b])?;
    let sigma = theta_b.resolve(&run)?;
    let frames = [
        serve::encode_frame(
            batch,
            &Query::MaxX {
                sigma,
                theta1: theta_a.clone(),
                theta2: theta_b.clone(),
            },
        ),
        serve::encode_frame(
            stream,
            &Query::QueryBatch(vec![
                Query::MaxX {
                    sigma,
                    theta1: theta_a,
                    theta2: theta_b,
                },
                Query::Knows {
                    sigma,
                    theta1: GeneralNode::basic(sigma_c),
                    theta2: GeneralNode::basic(sigma),
                    x: 5,
                },
            ]),
        ),
        // A hostile frame: a session nobody opened. The server answers
        // with a deterministic error document instead of dropping the
        // connection.
        serve::encode_frame(SessionId::from_raw(424242), &Query::MaxXMatrix { sigma }),
    ];
    // Pipelined: all three envelopes in one buffer, one write syscall.
    // The server answers in arrival order — the hostile frame's error
    // document lands in its slot, not out of band.
    let mut request = Vec::new();
    for frame in &frames {
        encode_envelope_into(&mut request, frame)?;
    }
    conn.write_all(&request)?;
    let mut scanner = EnvelopeScanner::new(1 << 22);
    for _ in 0..frames.len() {
        let answer = scanner.recv(&mut conn)?.expect("server closed early");
        let tag = if serve::is_error_document(answer) {
            "error"
        } else {
            "ok"
        };
        println!("[{tag}] {}", answer.lines().nth(1).unwrap_or(""));
    }

    // Serving observability, from the wire: the session line of a Stats
    // frame is routing-only, so any handle will do.
    write_envelope(
        &mut conn,
        &serve::encode_frame(SessionId::from_raw(0), &Query::Stats),
    )?;
    let answer = scanner.recv(&mut conn)?.expect("server closed early");
    let Response::Stats(stats) = wire::decode_response(answer)? else {
        panic!("stats frame answered with a non-stats document");
    };
    println!("── stats over the wire ─────────────────────────────");
    println!(
        "dispatches {:>3}   latency samples {:>3}",
        stats.queries,
        stats.latency.count()
    );
    println!(
        "observer cache: {} hits / {} misses / {} evictions",
        stats.observer_hits, stats.observer_misses, stats.observer_evictions
    );
    println!(
        "sessions across {} shards: {}   worker queue depths: {:?}",
        stats.sessions_per_shard.len(),
        stats.sessions_per_shard.iter().sum::<u64>(),
        stats.queue_depths
    );
    let t = &stats.transport;
    println!(
        "transport: {} frames in over {} reads, {} frames out over {} flushes",
        t.frames_in, t.read_syscalls, t.frames_out, t.writer_flushes
    );
    println!(
        "           {} bytes in / {} bytes out on {} connection(s)",
        t.bytes_in, t.bytes_out, t.connections
    );
    // The pipelined burst is why reads undercut frames: one syscall
    // slurped several envelopes.
    assert!(
        t.read_syscalls < t.frames_in,
        "pipelined reads were not amortized"
    );
    assert!(stats.latency.count() > 0, "warm run recorded no latencies");
    assert!(
        stats.observer_misses > 0,
        "warm run recorded no cache traffic"
    );

    drop(conn);
    server.shutdown();
    println!("── drained and stopped; socket unlinked ────────────");
    Ok(())
}

#[cfg(not(unix))]
fn main() {
    println!("the server example demonstrates Unix-domain sockets; on this platform use NetServer::bind_tcp instead");
}
