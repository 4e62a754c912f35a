//! Socket front-end integration tests: byte-identity of Unix-socket
//! serving with the in-process loop, graceful drain (no accepted frame
//! lost), hostile envelopes, per-frame session resolution, and the Stats
//! observability query end to end over a live socket.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use zigzag::api::net::{
    encode_envelope_into, read_envelope, write_envelope, EnvelopeScanner, NetConfig, NetServer,
};
use zigzag::api::{serve, wire, Error, Query, Response, SessionConfig, SessionId, ZigzagService};
use zigzag::bcm::protocols::Ffip;
use zigzag::bcm::scheduler::RandomScheduler;
use zigzag::bcm::{Run, RunCursor, SimConfig, Simulator, Time};
use zigzag::core::GeneralNode;

/// Alphabet random scanner documents draw from: ASCII, whitespace the
/// line-oriented documents care about, and multi-byte UTF-8.
const ALPHABET: [char; 12] = ['a', 'b', 'z', ' ', '\n', '0', '9', 'λ', '∑', 'é', '.', '-'];
const ALPHABET_LEN: usize = ALPHABET.len();

/// Per-process-unique socket path (tests share one process).
fn socket_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("zigzag-net-{}-{tag}-{n}.sock", std::process::id()))
}

fn tri_run(seed: u64) -> Run {
    let mut b = zigzag::bcm::Network::builder();
    let i = b.add_process("i");
    let j = b.add_process("j");
    let k = b.add_process("k");
    b.add_bidirectional(i, j, 2, 5).unwrap();
    b.add_bidirectional(j, k, 1, 4).unwrap();
    b.add_bidirectional(i, k, 3, 7).unwrap();
    let ctx = b.build().unwrap();
    let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(30)));
    sim.external(Time::new(1), i, "kick");
    sim.run(&mut Ffip::new(), &mut RandomScheduler::seeded(seed))
        .unwrap()
}

/// A service with a batch session, a stream session replaying the same
/// run, and a frame mix covering plain queries, query batches, error
/// paths (unknown session, undecodable frame) — the in-process oracle's
/// workload shape.
fn service_and_frames(seed: u64) -> (Arc<ZigzagService>, Vec<String>) {
    let run = tri_run(seed);
    let service = Arc::new(ZigzagService::sharded(8));
    let batch = service.open_batch(run.clone(), SessionConfig::new());
    let stream = service.open_stream(run.context_arc(), run.horizon(), SessionConfig::new());
    let mut cursor = RunCursor::new(&run);
    while let Some(ev) = cursor.next_event() {
        service.append(stream, &ev).unwrap();
    }
    let nodes: Vec<_> = run
        .nodes()
        .map(|r| r.id())
        .filter(|n| !n.is_initial())
        .collect();
    let mut frames = Vec::new();
    for (i, &sigma) in nodes.iter().enumerate() {
        let id = if i % 2 == 0 { batch } else { stream };
        frames.push(serve::encode_frame(id, &Query::MaxXMatrix { sigma }));
        frames.push(serve::encode_frame(
            id,
            &Query::QueryBatch(vec![
                Query::MaxX {
                    sigma,
                    theta1: GeneralNode::basic(nodes[0]),
                    theta2: GeneralNode::basic(sigma),
                },
                Query::TightBound {
                    from: nodes[0],
                    to: sigma,
                },
            ]),
        ));
    }
    // Deterministic error documents: a session nobody opened, a frame
    // that does not decode, and a spec-less coordination ask.
    frames.push(serve::encode_frame(
        SessionId::from_raw(4096),
        &Query::CoordDecision,
    ));
    frames.push("zigzag-frame v1\nsession zero\n".to_string());
    frames.push(serve::encode_frame(batch, &Query::CoordDecision));
    (service, frames)
}

/// The tentpole contract: a Unix-socket client gets byte-identical
/// responses to the in-process serving loop, frame for frame, on a mixed
/// batch/stream session workload with hostile frames in the mix.
#[test]
fn unix_socket_responses_are_byte_identical_to_in_process_serve() {
    for seed in [3, 17] {
        let (service, frames) = service_and_frames(seed);
        let reference = serve::serve(&service, &frames, 1);

        let path = socket_path("ident");
        let server =
            NetServer::bind_unix(&path, Arc::clone(&service), NetConfig::new().workers(3)).unwrap();
        let mut conn = UnixStream::connect(&path).unwrap();
        for frame in &frames {
            write_envelope(&mut conn, frame).unwrap();
        }
        for (i, expected) in reference.iter().enumerate() {
            let got = read_envelope(&mut conn, 1 << 22).unwrap().unwrap();
            assert_eq!(&got, expected, "seed={seed} frame={i}");
        }
        drop(conn);
        server.shutdown();
        assert!(!path.exists(), "socket file not unlinked on shutdown");
    }
}

/// Graceful drain: every frame fully written before shutdown is answered
/// with exactly one response envelope; the connection then closes
/// cleanly at an envelope boundary.
#[test]
fn shutdown_drains_every_accepted_frame() {
    let (service, frames) = service_and_frames(5);
    let reference = serve::serve(&service, &frames, 1);

    let path = socket_path("drain");
    let server =
        NetServer::bind_unix(&path, Arc::clone(&service), NetConfig::new().workers(2)).unwrap();
    let mut conn = UnixStream::connect(&path).unwrap();
    for frame in &frames {
        write_envelope(&mut conn, frame).unwrap();
    }
    // Reading the first answer pins the race: the connection is
    // accepted and every remaining frame is already buffered on the
    // server side. Shutting down now exercises the drain guarantee —
    // each buffered frame is still answered, in order. (Connections
    // still waiting in the listener backlog are not "accepted" and hold
    // no frames to lose.)
    let first = read_envelope(&mut conn, 1 << 22).unwrap().unwrap();
    assert_eq!(&first, &reference[0]);
    // Shut down concurrently with the reads: drain completion requires
    // the client to keep consuming its socket (the writer blocks on a
    // full socket buffer), exactly as a live client would.
    let drainer = std::thread::spawn(move || server.shutdown());
    for (i, expected) in reference.iter().enumerate().skip(1) {
        let got = read_envelope(&mut conn, 1 << 22).unwrap().unwrap();
        assert_eq!(&got, expected, "frame={i}");
    }
    drainer.join().unwrap();
    assert!(
        read_envelope(&mut conn, 1 << 22).unwrap().is_none(),
        "connection did not close cleanly after the drained answers"
    );
}

/// The drain over TCP: after a read shutdown a TCP socket keeps queueing
/// what the peer sends (a Unix socket refuses it), so the reader stops at
/// the first empty queue — still after every frame already received.
#[test]
fn tcp_shutdown_drains_every_accepted_frame() {
    let (service, frames) = service_and_frames(5);
    let reference = serve::serve(&service, &frames, 1);
    let server = NetServer::bind_tcp(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig::new().workers(2),
    )
    .unwrap();
    let mut conn = std::net::TcpStream::connect(server.local_addr().unwrap()).unwrap();
    conn.set_nodelay(true).unwrap();
    let mut request_bytes = Vec::new();
    for frame in &frames {
        encode_envelope_into(&mut request_bytes, frame).unwrap();
    }
    conn.write_all(&request_bytes).unwrap();
    // As in the Unix drain test: the first answer pins that the
    // connection is accepted with every frame on the server's side.
    let first = read_envelope(&mut conn, 1 << 22).unwrap().unwrap();
    assert_eq!(&first, &reference[0]);
    let drainer = std::thread::spawn(move || server.shutdown());
    for (i, expected) in reference.iter().enumerate().skip(1) {
        let got = read_envelope(&mut conn, 1 << 22).unwrap().unwrap();
        assert_eq!(&got, expected, "frame={i}");
    }
    drainer.join().unwrap();
    assert!(
        read_envelope(&mut conn, 1 << 22).unwrap().is_none(),
        "connection did not close cleanly after the drained answers"
    );
}

/// A client that never stops sending cannot hold the drain open: the
/// read shutdown ends its stream, `shutdown` returns promptly while the
/// client is still sending, and every frame whose write succeeded is
/// answered before the connection closes.
#[test]
fn shutdown_returns_while_a_client_keeps_sending() {
    let (service, _) = service_and_frames(31);
    let path = socket_path("busy");
    let server =
        NetServer::bind_unix(&path, Arc::clone(&service), NetConfig::new().workers(2)).unwrap();
    let mut envelope = Vec::new();
    let stats = serve::encode_frame(SessionId::from_raw(0), &Query::Stats);
    encode_envelope_into(&mut envelope, &stats).unwrap();
    let mut conn = UnixStream::connect(&path).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let client = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Bounded, so a drain that waits on the client fails the
            // test below instead of hanging it.
            let give_up = Instant::now() + Duration::from_secs(3);
            let (mut written, mut answered) = (0u64, 0u64);
            while !stop.load(Ordering::Relaxed) && Instant::now() < give_up {
                if conn.write_all(&envelope).is_err() {
                    break;
                }
                written += 1;
                match read_envelope(&mut conn, 1 << 22) {
                    Ok(Some(doc)) => {
                        assert!(!serve::is_error_document(&doc), "{doc:?}");
                        answered += 1;
                    }
                    _ => break,
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            (written, answered)
        })
    };
    let warm = Instant::now() + Duration::from_secs(5);
    while server.transport().frames_out < 20 && Instant::now() < warm {
        std::thread::sleep(Duration::from_millis(1));
    }
    let started = Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    let (written, answered) = client.join().unwrap();
    assert!(
        elapsed < Duration::from_secs(1),
        "shutdown took {elapsed:?} against a client that keeps sending"
    );
    assert!(written >= 20, "the client barely ran: {written} frames");
    assert_eq!(answered, written, "a written frame went unanswered");
}

/// An idle connection costs no syscalls: its reader blocks in one `read`
/// until bytes or end of stream arrive, with no timeout to wake it.
#[test]
fn idle_connections_make_no_read_syscalls() {
    let (service, _) = service_and_frames(37);
    let path = socket_path("idle");
    let server = NetServer::bind_unix(&path, service, NetConfig::new().workers(1)).unwrap();
    let mut envelope = Vec::new();
    let stats = serve::encode_frame(SessionId::from_raw(0), &Query::Stats);
    encode_envelope_into(&mut envelope, &stats).unwrap();
    let mut conn = UnixStream::connect(&path).unwrap();
    conn.write_all(&envelope).unwrap();
    read_envelope(&mut conn, 1 << 22).unwrap().unwrap();
    // One read returned the frame; the second, billed as it starts, is
    // the one the reader now blocks in.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.transport().read_syscalls < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let before = server.transport().read_syscalls;
    assert_eq!(before, 2);
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        server.transport().read_syscalls,
        before,
        "an idle connection kept reading"
    );
    drop(conn);
    server.shutdown();
}

/// Hostile envelopes: an oversized declared length and a non-UTF-8
/// payload are each answered with one zigzag-error v2 envelope and a
/// closed connection — no allocation from the hostile header, no panic.
#[test]
fn hostile_envelopes_get_one_error_document_then_close() {
    let (service, _) = service_and_frames(7);
    let path = socket_path("hostile");
    let server = NetServer::bind_unix(
        &path,
        service,
        NetConfig::new().workers(1).max_frame_bytes(1 << 16),
    )
    .unwrap();

    // Oversized: a 4 GiB-ish declared length against a 64 KiB bound.
    let mut conn = UnixStream::connect(&path).unwrap();
    conn.write_all(&u32::MAX.to_be_bytes()).unwrap();
    conn.flush().unwrap();
    let doc = read_envelope(&mut conn, 1 << 16).unwrap().unwrap();
    assert!(serve::is_error_document(&doc), "{doc:?}");
    assert!(doc.contains("exceeds"), "{doc:?}");
    assert!(read_envelope(&mut conn, 1 << 16).unwrap().is_none());

    // Non-UTF-8 payload of a well-formed envelope.
    let mut conn = UnixStream::connect(&path).unwrap();
    conn.write_all(&2u32.to_be_bytes()).unwrap();
    conn.write_all(&[0xff, 0xfe]).unwrap();
    conn.flush().unwrap();
    let doc = read_envelope(&mut conn, 1 << 16).unwrap().unwrap();
    assert!(serve::is_error_document(&doc), "{doc:?}");
    assert!(doc.contains("UTF-8"), "{doc:?}");
    assert!(read_envelope(&mut conn, 1 << 16).unwrap().is_none());

    server.shutdown();
}

/// Sessions are resolved per frame on the socket path: a session closed
/// between two frames of one connection answers the second with the
/// unknown-session error, never from a stale handle.
#[test]
fn closed_sessions_are_not_served_stale() {
    let run = tri_run(11);
    let service = Arc::new(ZigzagService::sharded(4));
    let id = service.open_batch(run.clone(), SessionConfig::new());
    let sigma = run
        .nodes()
        .map(|r| r.id())
        .find(|n| !n.is_initial())
        .unwrap();
    let frame = serve::encode_frame(id, &Query::MaxXMatrix { sigma });

    let path = socket_path("close");
    let server =
        NetServer::bind_unix(&path, Arc::clone(&service), NetConfig::new().workers(1)).unwrap();
    let mut conn = UnixStream::connect(&path).unwrap();
    write_envelope(&mut conn, &frame).unwrap();
    let first = read_envelope(&mut conn, 1 << 22).unwrap().unwrap();
    assert!(!serve::is_error_document(&first));

    service.close(id).unwrap();
    write_envelope(&mut conn, &frame).unwrap();
    let second = read_envelope(&mut conn, 1 << 22).unwrap().unwrap();
    assert!(serve::is_error_document(&second), "{second:?}");
    assert_eq!(serve::decode_error(&second), Error::UnknownSession { id });
    server.shutdown();
}

/// The acceptance criterion for serving observability: after a warm run
/// over the socket, a wire Stats query returns nonzero latency-histogram
/// counts, nonzero observer-cache hit and miss counters, the open
/// sessions, and one queue-depth gauge per worker.
#[test]
fn stats_query_over_the_socket_reports_warm_counters() {
    let (service, frames) = service_and_frames(13);
    let path = socket_path("stats");
    let workers = 2;
    let server = NetServer::bind_unix(
        &path,
        Arc::clone(&service),
        NetConfig::new().workers(workers),
    )
    .unwrap();
    let mut conn = UnixStream::connect(&path).unwrap();
    for frame in &frames {
        write_envelope(&mut conn, frame).unwrap();
        read_envelope(&mut conn, 1 << 22).unwrap().unwrap();
    }
    // The Stats frame's session line is routing-only; any handle works.
    write_envelope(
        &mut conn,
        &serve::encode_frame(SessionId::from_raw(0), &Query::Stats),
    )
    .unwrap();
    let doc = read_envelope(&mut conn, 1 << 22).unwrap().unwrap();
    assert!(!serve::is_error_document(&doc), "{doc:?}");
    let Response::Stats(report) = wire::decode_response(&doc).unwrap() else {
        panic!("stats frame answered with a non-stats response: {doc:?}");
    };
    // Three frames of the mix never reach a session (unknown session,
    // undecodable); everything else is a counted dispatch.
    assert!(report.queries >= (frames.len() as u64).saturating_sub(3));
    assert_eq!(report.latency.count(), report.queries);
    assert!(report.observer_misses > 0, "{report:?}");
    assert!(report.observer_hits > 0, "{report:?}");
    assert_eq!(report.sessions_per_shard.iter().sum::<u64>(), 2);
    assert_eq!(report.queue_depths.len(), workers);
    server.shutdown();
}

/// Backpressure is a policy, not semantics: with the in-flight window
/// clamped to two frames, a client that pipelines every frame up front
/// still reads back byte-identical responses in order — the reader
/// simply stalls at the window until the client's reads release room,
/// instead of buffering replies without bound.
#[test]
fn tiny_inflight_window_still_answers_pipelined_clients_in_order() {
    let (service, frames) = service_and_frames(29);
    let reference = serve::serve(&service, &frames, 1);
    let path = socket_path("window");
    let server = NetServer::bind_unix(
        &path,
        Arc::clone(&service),
        NetConfig::new().workers(2).max_inflight_frames(2),
    )
    .unwrap();
    let mut request_bytes = Vec::new();
    for frame in &frames {
        encode_envelope_into(&mut request_bytes, frame).unwrap();
    }
    let mut conn = UnixStream::connect(&path).unwrap();
    conn.write_all(&request_bytes).unwrap();
    for (i, expected) in reference.iter().enumerate() {
        let got = read_envelope(&mut conn, 1 << 22).unwrap().unwrap();
        assert_eq!(&got, expected, "frame={i}");
    }
    server.shutdown();
}

/// The server is transport-generic: the same byte-identity holds over
/// loopback TCP.
#[test]
fn tcp_responses_match_in_process_serve() {
    let (service, frames) = service_and_frames(19);
    let reference = serve::serve(&service, &frames, 1);
    let server = NetServer::bind_tcp(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig::new().workers(2),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    for frame in &frames {
        write_envelope(&mut conn, frame).unwrap();
    }
    for (i, expected) in reference.iter().enumerate() {
        let got = read_envelope(&mut conn, 1 << 22).unwrap().unwrap();
        assert_eq!(&got, expected, "frame={i}");
    }
    server.shutdown();
}

/// A reader that hands out `data` in a prescribed sequence of chunk
/// sizes (cycled), so tests control exactly where the kernel's read
/// boundaries fall.
struct ChunkedReader<'a> {
    data: &'a [u8],
    pos: usize,
    sizes: &'a [usize],
    k: usize,
}

impl<'a> ChunkedReader<'a> {
    fn new(data: &'a [u8], sizes: &'a [usize]) -> Self {
        ChunkedReader {
            data,
            pos: 0,
            sizes,
            k: 0,
        }
    }
}

impl std::io::Read for ChunkedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.data.len() {
            return Ok(0);
        }
        let want = if self.sizes.is_empty() {
            buf.len()
        } else {
            let s = self.sizes[self.k % self.sizes.len()].max(1);
            self.k += 1;
            s
        };
        let n = want.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Drains a byte stream through a scanner with the given read
/// fragmentation, collecting every yielded document.
fn scan_all(bytes: &[u8], sizes: &[usize], max_frame: usize, chunk: usize) -> Vec<String> {
    let mut r = ChunkedReader::new(bytes, sizes);
    let mut scanner = EnvelopeScanner::with_chunk(max_frame, chunk);
    let mut out = Vec::new();
    while let Some(doc) = scanner.recv(&mut r).unwrap() {
        out.push(doc.to_string());
    }
    assert!(scanner.is_empty(), "bytes left after a clean EOF");
    out
}

/// Frames split at **every** byte boundary: for each split point of the
/// encoded stream, delivering the bytes as exactly two reads yields the
/// same documents — no boundary between header bytes, inside a payload,
/// or between envelopes confuses the scanner. The 1-byte trickle is the
/// degenerate all-boundaries case.
#[test]
fn scanner_reassembles_frames_split_at_every_byte_boundary() {
    let docs = ["a", "", "hello\nworld\n", "λ∑ unicode"];
    let mut bytes = Vec::new();
    for d in docs {
        encode_envelope_into(&mut bytes, d).unwrap();
    }
    for split in 0..=bytes.len() {
        let sizes = [split.max(1), bytes.len() - split + 1];
        assert_eq!(
            scan_all(&bytes, &sizes, 1 << 10, 32),
            docs,
            "split at byte {split}"
        );
    }
    // 1-byte trickle reads: every boundary at once.
    assert_eq!(scan_all(&bytes, &[1], 1 << 10, 32), docs);
}

/// Back-to-back pipelined frames delivered in **one** read are all
/// scanned out with no further fill — the read-side amortization the
/// transport counters advertise.
#[test]
fn scanner_drains_pipelined_frames_from_a_single_read() {
    let docs = ["first", "second\n", "third"];
    let mut bytes = Vec::new();
    for d in docs {
        encode_envelope_into(&mut bytes, d).unwrap();
    }
    let mut scanner = EnvelopeScanner::with_chunk(1 << 10, 1 << 10);
    let mut r = std::io::Cursor::new(&bytes);
    assert_eq!(
        scanner.fill_from(&mut r).unwrap(),
        bytes.len(),
        "one fill slurps the whole pipeline"
    );
    for d in docs {
        assert_eq!(scanner.next().unwrap(), Some(d));
    }
    assert_eq!(scanner.next().unwrap(), None);
    assert!(scanner.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random document batches under random read fragmentation: the
    /// scanner yields exactly the encoded documents, in order, for any
    /// placement of read boundaries — including boundaries inside the
    /// 4-byte header, inside payloads, and runs of whole frames landing
    /// in one read.
    #[test]
    fn scanner_is_boundary_oblivious(
        raw_docs in collection::vec(collection::vec(0usize..ALPHABET_LEN, 0..40), 0..6),
        sizes in collection::vec(1usize..48, 0..24),
        chunk in 16usize..256,
    ) {
        let docs: Vec<String> = raw_docs
            .iter()
            .map(|ix| ix.iter().map(|&i| ALPHABET[i]).collect())
            .collect();
        let mut bytes = Vec::new();
        for d in &docs {
            encode_envelope_into(&mut bytes, d).unwrap();
        }
        let got = scan_all(&bytes, &sizes, 1 << 12, chunk);
        prop_assert_eq!(got, docs);
    }

    /// A hostile declared length is refused by the scanner before any
    /// buffer growth toward it: the scan buffer never exceeds the
    /// configured chunk, no matter how large the header claims the
    /// payload is — and a refusal is what the stream ends with.
    #[test]
    fn scanner_rejects_oversized_lengths_before_allocating(
        excess in 1u32..1_000_000,
        max_frame in 64usize..4096,
        trickle in 1usize..5,
    ) {
        let declared = (max_frame as u32).saturating_add(excess);
        let mut bytes = declared.to_be_bytes().to_vec();
        // Some payload bytes behind the hostile header; the scanner
        // must refuse before wanting them.
        bytes.extend_from_slice(&[b'x'; 32]);
        let chunk = 32usize;
        let mut scanner = EnvelopeScanner::with_chunk(max_frame, chunk);
        let sizes = [trickle];
        let mut r = ChunkedReader::new(&bytes, &sizes);
        let err = loop {
            match scanner.recv(&mut r) {
                Ok(Some(_)) => prop_assert!(false, "hostile frame yielded a document"),
                Ok(None) => prop_assert!(false, "hostile frame ended cleanly"),
                Err(e) => break e,
            }
        };
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // The buffer holds at most the bytes that arrived before the
        // refusal plus one chunk of slack — never anything sized by the
        // hostile declared length.
        prop_assert!(
            scanner.buffer_bytes() <= chunk + 8 && scanner.buffer_bytes() < declared as usize,
            "scanner grew toward a hostile length: {} bytes",
            scanner.buffer_bytes()
        );
    }
}

/// The pipelined client shape end to end: every request envelope written
/// as one buffer, replies scanned back through a reusable buffer —
/// byte-identical to the in-process loop — and the server's transport
/// counters prove the amortization (fewer read syscalls than frames,
/// fewer writer flushes than responses) and the accounting (all request
/// bytes in, one connection, no setup failures).
#[test]
fn pipelined_client_is_byte_identical_and_counters_prove_amortization() {
    let (service, frames) = service_and_frames(23);
    let reference = serve::serve(&service, &frames, 1);
    let path = socket_path("pipeline");
    let server = NetServer::bind_unix(
        &path,
        Arc::clone(&service),
        NetConfig::new().workers(2).queue_capacity(2 * frames.len()),
    )
    .unwrap();
    let mut request_bytes = Vec::new();
    for frame in &frames {
        encode_envelope_into(&mut request_bytes, frame).unwrap();
    }
    let mut conn = UnixStream::connect(&path).unwrap();
    conn.write_all(&request_bytes).unwrap();
    let mut scanner = EnvelopeScanner::new(1 << 22);
    for (i, expected) in reference.iter().enumerate() {
        let got = scanner.recv(&mut conn).unwrap().unwrap();
        assert_eq!(got, expected, "frame={i}");
    }

    // The server's own snapshot, after every reply has been read.
    // Frame counts are billed *before* reply bytes can reach the client
    // (asserted exactly below), but byte counts are billed as each
    // write returns — on a single core the writer can still owe that
    // bookkeeping when the last reply lands, so give it a beat.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let t = loop {
        let t = server.transport();
        if t.bytes_out > 0 || std::time::Instant::now() > deadline {
            break t;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let n = frames.len() as u64;
    assert_eq!(t.connections, 1, "{t:?}");
    assert_eq!(t.conn_failures, 0, "{t:?}");
    assert_eq!(t.frames_in, n, "{t:?}");
    assert_eq!(t.frames_out, n, "{t:?}");
    assert_eq!(t.bytes_in, request_bytes.len() as u64, "{t:?}");
    assert!(t.bytes_out > 0, "{t:?}");
    assert!(t.read_syscalls >= 1, "{t:?}");
    assert!(
        t.read_syscalls < t.frames_in,
        "pipelined reads not amortized: {t:?}"
    );
    assert!(t.writer_flushes >= 1, "{t:?}");
    assert!(t.writer_flushes <= t.frames_out, "{t:?}");

    // The same counters are observable from the wire: a Stats frame
    // answered over this very connection carries a transport snapshot
    // at least as advanced as what we have already observed.
    write_envelope(
        &mut conn,
        &serve::encode_frame(SessionId::from_raw(0), &Query::Stats),
    )
    .unwrap();
    let doc = read_envelope(&mut conn, 1 << 22).unwrap().unwrap();
    let Response::Stats(report) = wire::decode_response(&doc).unwrap() else {
        panic!("stats frame answered with a non-stats response: {doc:?}");
    };
    assert_eq!(report.transport.connections, 1, "{report:?}");
    assert_eq!(report.transport.conn_failures, 0, "{report:?}");
    assert_eq!(report.transport.frames_in, n + 1, "{report:?}");
    assert!(report.transport.bytes_in > request_bytes.len() as u64);
    assert!(report.transport.frames_out >= t.frames_out, "{report:?}");
    server.shutdown();
}

/// Live migration between two running socket servers (PR 9): a
/// coordination-laden stream session is exported out of server A's
/// socket as a `Query::Export` frame, imported into server B's socket as
/// a `Query::Import` frame, and every probe query afterwards answers
/// byte-identically on both live servers.
#[test]
fn live_migration_between_two_net_servers_answers_byte_identically() {
    use zigzag::api::{CoordKind, TimedCoordination};
    use zigzag::bcm::ProcessId;

    let run = tri_run(11);
    let config = SessionConfig::new().spec(TimedCoordination::new(
        CoordKind::Late { x: 3 },
        ProcessId::new(1),
        ProcessId::new(2),
        ProcessId::new(0),
    ));
    let service_a = Arc::new(ZigzagService::new());
    let stream = service_a.open_stream(run.context_arc(), run.horizon(), config);
    let mut cursor = RunCursor::new(&run);
    while let Some(ev) = cursor.next_event() {
        service_a.append(stream, &ev).unwrap();
    }
    let service_b = Arc::new(ZigzagService::new());

    let (path_a, path_b) = (socket_path("mig-a"), socket_path("mig-b"));
    let net = || NetConfig::new().workers(2);
    let server_a = NetServer::bind_unix(&path_a, Arc::clone(&service_a), net()).unwrap();
    let server_b = NetServer::bind_unix(&path_b, Arc::clone(&service_b), net()).unwrap();
    let mut conn_a = UnixStream::connect(&path_a).unwrap();
    let mut conn_b = UnixStream::connect(&path_b).unwrap();

    // Ship the session A → B entirely over the two sockets.
    write_envelope(&mut conn_a, &serve::encode_frame(stream, &Query::Export)).unwrap();
    let doc = read_envelope(&mut conn_a, 1 << 22).unwrap().unwrap();
    let Response::Exported(snap) = wire::decode_response(&doc).unwrap() else {
        panic!("export frame answered with: {doc:?}");
    };
    write_envelope(
        &mut conn_b,
        &serve::encode_frame(SessionId::from_raw(0), &Query::Import(snap)),
    )
    .unwrap();
    let doc = read_envelope(&mut conn_b, 1 << 22).unwrap().unwrap();
    let Response::Imported(moved) = wire::decode_response(&doc).unwrap() else {
        panic!("import frame answered with: {doc:?}");
    };

    // Identical queries to both live servers: byte-identical documents.
    let nodes: Vec<_> = run
        .nodes()
        .map(|r| r.id())
        .filter(|n| !n.is_initial())
        .collect();
    let (&first, &last) = (nodes.first().unwrap(), nodes.last().unwrap());
    let probes = vec![
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
        Query::CoordDecision,
    ];
    for q in &probes {
        write_envelope(&mut conn_a, &serve::encode_frame(stream, q)).unwrap();
        write_envelope(&mut conn_b, &serve::encode_frame(moved, q)).unwrap();
        let doc_a = read_envelope(&mut conn_a, 1 << 22).unwrap().unwrap();
        let doc_b = read_envelope(&mut conn_b, 1 << 22).unwrap().unwrap();
        assert_eq!(doc_a, doc_b, "{q:?} diverged across the migration");
    }

    drop(conn_a);
    drop(conn_b);
    server_a.shutdown();
    server_b.shutdown();
}

/// The shutdown drain is deadline-bounded: a client that pipelines far
/// more reply bytes than any kernel socket buffer holds and then stops
/// reading entirely would — before `NetConfig::drain_timeout` — hang
/// `NetServer::shutdown` forever on the full buffer. With the deadline
/// the stalled connection is abandoned and the drain returns.
#[test]
fn shutdown_is_bounded_when_a_client_stops_reading() {
    let (service, _) = service_and_frames(13);
    let path = socket_path("drain-deadline");
    let server = NetServer::bind_unix(
        &path,
        Arc::clone(&service),
        NetConfig::new()
            .workers(2)
            .drain_timeout(Some(Duration::from_millis(200))),
    )
    .unwrap();

    // 2000 Stats frames: the requests fit the kernel buffers going out
    // (so this write_all completes), but the answers are far larger than
    // what comes back fits — the server's writer must stall against a
    // client that never reads.
    let conn = UnixStream::connect(&path).unwrap();
    let frame = serve::encode_frame(SessionId::from_raw(0), &Query::Stats);
    let mut batch = Vec::new();
    for _ in 0..2000 {
        encode_envelope_into(&mut batch, &frame).unwrap();
    }
    {
        let mut w = &conn;
        w.write_all(&batch).unwrap();
        w.flush().unwrap();
    }
    // Give the server a moment to accept, serve, and wedge its writer
    // against the full socket buffer.
    std::thread::sleep(Duration::from_millis(100));

    // The connection stays open (the client "stopped reading", it did
    // not go away) for the whole shutdown.
    let started = std::time::Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    drop(conn);
    assert!(
        elapsed < Duration::from_secs(10),
        "drain-deadline shutdown took {elapsed:?}; the stalled connection was not abandoned"
    );
}
