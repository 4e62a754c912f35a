//! B10 — the socket front end: what the wire transport costs over the
//! in-process serving loop.
//!
//! Two measurements over the same workload (the B9 wire-loop shape: an
//! 8-shard service, 8 batch sessions, 128 two-query `QueryBatch`
//! frames), with byte-identity between the two serving paths asserted
//! before anything is timed:
//!
//! * `net/in-process/2` — [`zigzag_api::serve::serve`] at 2 workers:
//!   frames in memory, responses in memory — the floor the socket path
//!   is measured against.
//! * `net/unix-socket/2` — the same frames through a
//!   [`zigzag_api::net::NetServer`] over a Unix-domain socket at 2
//!   workers, pipelined the way the transport is built to be used: the
//!   client encodes all 128 envelopes into one buffer and writes it
//!   once, and reads the reply stream through a reusable
//!   [`EnvelopeScanner`]; the server slurps the batch in a handful of
//!   reads and answers through coalesced batched writes. The delta over
//!   `in-process` is the whole front-end overhead — envelope framing,
//!   two socket copies per frame, the reader/worker/writer hand-offs —
//!   and ns/iter ÷ 128 prices one round-tripped frame.
//!
//! The server is bound once outside the timing loop (binding and
//! joining threads is shutdown cost, not per-frame cost); each
//! iteration opens a fresh client connection, so accept + per-frame
//! costs are measured, steady-state. The queue capacity is raised to
//! 256 because a pipelined burst of 128 frames can land on a worker
//! faster than it drains — backpressure rejections would break the
//! byte-identity contract, not just the timing.
//!
//! Run with `CRITERION_JSON=BENCH_pr8.json cargo bench --bench net`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zigzag_api::net::{encode_envelope_into, EnvelopeScanner, NetConfig, NetServer};
use zigzag_api::{serve, Query, SessionConfig, ZigzagService};
use zigzag_bcm::{NodeId, ProcessId};
use zigzag_bench::{kicked_run, scaled_context};
use zigzag_core::GeneralNode;

/// The B9 wire-loop workload, shared so the two paths answer the same
/// frames: an 8-shard service, 8 batch sessions over one recorded run,
/// 128 two-query `QueryBatch` frames round-robined across the sessions.
fn workload() -> (Arc<ZigzagService>, Vec<String>) {
    let ctx = scaled_context(6, 0.3, 11);
    let run = kicked_run(&ctx, ProcessId::new(0), 1, 40, 5);
    let service = Arc::new(ZigzagService::sharded(8));
    let sessions: Vec<_> = (0..8)
        .map(|_| service.open_batch(run.clone(), SessionConfig::new()))
        .collect();
    let nodes: Vec<NodeId> = run
        .nodes()
        .map(|r| r.id())
        .filter(|n| !n.is_initial())
        .collect();
    let anchor = nodes[0];
    let mut frames = Vec::new();
    for k in 0..128usize {
        let sigma = nodes[k % nodes.len()];
        let id = sessions[k % sessions.len()];
        frames.push(serve::encode_frame(
            id,
            &Query::QueryBatch(vec![
                Query::MaxX {
                    sigma,
                    theta1: GeneralNode::basic(anchor),
                    theta2: GeneralNode::basic(sigma),
                },
                Query::TightBound {
                    from: anchor,
                    to: sigma,
                },
            ]),
        ));
    }
    assert_eq!(frames.len(), 128, "CI derives frames/sec from 128 frames");
    (service, frames)
}

/// One pipelined pass: all request envelopes written as a single
/// pre-encoded buffer, replies scanned back in order through a reusable
/// buffer — one connection, a handful of syscalls each way.
#[cfg(unix)]
fn socket_pass(path: &std::path::Path, request_bytes: &[u8], count: usize) -> Vec<String> {
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    let mut conn = UnixStream::connect(path).expect("server is listening");
    conn.write_all(request_bytes)
        .expect("server accepts frames");
    conn.flush().expect("flush");
    let mut scanner = EnvelopeScanner::new(1 << 22);
    (0..count)
        .map(|_| {
            scanner
                .recv(&mut conn)
                .expect("server answers")
                .expect("one answer per frame")
                .to_string()
        })
        .collect()
}

fn net_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("net");
    let (service, frames) = workload();
    let workers = 2usize;
    let reference = serve::serve(&service, &frames, workers);
    assert!(reference.iter().all(|r| !serve::is_error_document(r)));

    group.bench_with_input(
        BenchmarkId::new("in-process", workers),
        &workers,
        |b, &w| {
            b.iter(|| serve::serve(&service, &frames, w));
        },
    );

    #[cfg(unix)]
    {
        let mut request_bytes = Vec::new();
        for frame in &frames {
            encode_envelope_into(&mut request_bytes, frame).expect("frames fit u32 envelopes");
        }
        let path =
            std::env::temp_dir().join(format!("zigzag-bench-net-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let server = NetServer::bind_unix(
            &path,
            Arc::clone(&service),
            NetConfig::new().workers(workers).queue_capacity(256),
        )
        .expect("bind unix socket");
        // The tentpole contract before timing: the socket path returns
        // the in-process loop's bytes, frame for frame.
        assert_eq!(
            socket_pass(&path, &request_bytes, frames.len()),
            reference,
            "socket serving diverged from the in-process loop"
        );
        group.bench_with_input(
            BenchmarkId::new("unix-socket", workers),
            &workers,
            |b, _| {
                b.iter(|| socket_pass(&path, &request_bytes, frames.len()));
            },
        );
        // The amortization the fast path exists for, visible in the
        // server's own counters: far fewer syscalls than frames.
        let t = server.transport();
        assert!(t.frames_in >= 256, "{t:?}");
        assert!(t.read_syscalls < t.frames_in, "reads not amortized: {t:?}");
        assert!(
            t.writer_flushes < t.frames_out,
            "writes not coalesced: {t:?}"
        );
        server.shutdown();
    }
    group.finish();
}

criterion_group!(benches, net_overhead);
criterion_main!(benches);
