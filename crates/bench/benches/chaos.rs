//! B11 — what resilience costs when nothing goes wrong: the
//! [`zigzag_api::ResilientClient`] against a raw framed client on the
//! same fault-free server.
//!
//! Two measurements over the same workload (one batch session over a
//! recorded run, 64 single-query request/reply round trips per
//! iteration, strictly one in flight — the resilient client's shape):
//!
//! * `chaos/raw-client/64` — a plain `UnixStream` driving
//!   [`write_envelope`]/[`read_envelope`] directly: the floor, no retry
//!   bookkeeping, no error classification, no deadline plumbing.
//! * `chaos/resilient-client/64` — the same 64 queries through
//!   [`ResilientClient::query`]: per-request deadlines armed, retry
//!   gating and typed-error classification on every reply, reconnect
//!   machinery ready — all of which must stay within **1.3×** of the raw
//!   client (gated in CI), because the fault hooks and the retry loop
//!   are designed to cost nothing until something actually fails.
//!
//! Byte-identity between the two clients' answers is asserted before
//! anything is timed. The server runs with fault injection **disarmed**
//! (`NetConfig::faults` unset), so this also prices the never-taken
//! chaos branch on the server's read/write seams.
//!
//! Run with `CRITERION_JSON=BENCH_pr10.json cargo bench --bench chaos`.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zigzag_api::net::{read_envelope, write_envelope, NetConfig, NetServer};
use zigzag_api::{serve, ClientConfig, Query, ResilientClient, SessionConfig, ZigzagService};
use zigzag_bcm::{NodeId, ProcessId};
use zigzag_bench::{kicked_run, scaled_context};
use zigzag_core::GeneralNode;

const ROUND_TRIPS: usize = 64;

/// The workload: one batch session over a recorded run and 64 pointwise
/// `MaxX` queries walking the run's nodes — cheap enough that the
/// client-side overhead is what the numbers move on.
fn workload() -> (Arc<ZigzagService>, Vec<(zigzag_api::SessionId, Query)>) {
    let ctx = scaled_context(6, 0.3, 11);
    let run = kicked_run(&ctx, ProcessId::new(0), 1, 40, 5);
    let service = Arc::new(ZigzagService::sharded(4));
    let id = service.open_batch(run.clone(), SessionConfig::new());
    let nodes: Vec<NodeId> = run
        .nodes()
        .map(|r| r.id())
        .filter(|n| !n.is_initial())
        .collect();
    let anchor = nodes[0];
    let queries = (0..ROUND_TRIPS)
        .map(|k| {
            let sigma = nodes[k % nodes.len()];
            (
                id,
                Query::MaxX {
                    sigma,
                    theta1: GeneralNode::basic(anchor),
                    theta2: GeneralNode::basic(sigma),
                },
            )
        })
        .collect();
    (service, queries)
}

/// One pass of the raw client: a single connection, one frame encoded
/// and written and one reply read and decoded per query — the same
/// strictly-sequential, fully-decoded shape the resilient client
/// presents, minus its deadline/retry/classification machinery.
fn raw_pass(
    conn: &mut UnixStream,
    queries: &[(zigzag_api::SessionId, Query)],
) -> Vec<zigzag_api::Response> {
    queries
        .iter()
        .map(|(id, q)| {
            let frame = serve::encode_frame(*id, q);
            write_envelope(conn, &frame).expect("server accepts frames");
            let doc = read_envelope(conn, 1 << 22)
                .expect("server answers")
                .expect("one answer per frame");
            assert!(!serve::is_error_document(&doc), "fault-free query failed");
            zigzag_api::wire::decode_response(&doc).expect("well-formed reply")
        })
        .collect()
}

fn resilience_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("chaos");
    let (service, queries) = workload();

    let path = std::env::temp_dir().join(format!("zigzag-bench-chaos-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = NetServer::bind_unix(&path, Arc::clone(&service), NetConfig::new().workers(2))
        .expect("bind unix socket");

    let mut raw = UnixStream::connect(&path).expect("server is listening");
    let mut resilient = ResilientClient::connect_unix(&path, ClientConfig::new());

    // The contract before timing: both clients return the same answers.
    let reference = raw_pass(&mut raw, &queries);
    for ((id, q), want) in queries.iter().zip(&reference) {
        let got = resilient.query(*id, q).expect("fault-free query succeeds");
        assert_eq!(&got, want, "resilient client diverged from the raw client");
    }

    group.bench_with_input(
        BenchmarkId::new("raw-client", ROUND_TRIPS),
        &ROUND_TRIPS,
        |b, _| {
            b.iter(|| raw_pass(&mut raw, &queries));
        },
    );
    group.bench_with_input(
        BenchmarkId::new("resilient-client", ROUND_TRIPS),
        &ROUND_TRIPS,
        |b, _| {
            b.iter(|| {
                queries
                    .iter()
                    .map(|(id, q)| resilient.query(*id, q).expect("fault-free query succeeds"))
                    .count()
            });
        },
    );

    raw.flush().expect("flush");
    drop(raw);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
    group.finish();
}

criterion_group!(benches, resilience_overhead);
criterion_main!(benches);
