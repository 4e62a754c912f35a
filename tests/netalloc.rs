//! The transport fast path's allocation contract: a **warm** framed
//! round-trip over a live Unix-socket server performs **zero**
//! server-side heap allocations.
//!
//! The steady-state design the tentpole claims: the reader's
//! `EnvelopeScanner` buffer is at its high-water mark, frame documents
//! travel in pooled `String`s (reader → worker → pool), responses are
//! encoded into pooled `String`s (worker → writer → pool), the reply
//! rail's heap and the writer's batch/output buffers hold their warm
//! capacity, the worker's session memo is cleared (not dropped), and the
//! warm observer-cache dispatch underneath was already pinned
//! allocation-free by the PR 6 layout tier. This test pins the whole
//! stack at once with a process-global counting allocator: the server is
//! multi-threaded, so unlike `tests/oracle.rs`'s thread-local counter
//! this one counts every thread — which is exactly the claim: *nobody*
//! in the process allocates during the measured window. The client side
//! of the window is engineered allocation-free too (pre-encoded request
//! bytes, replies scanned through a reusable buffer and compared as
//! borrowed `&str`), so the only thing that could move the counter is a
//! leak in the steady-state story.

#![cfg(unix)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use zigzag::api::net::{encode_envelope_into, EnvelopeScanner, NetConfig, NetServer};
use zigzag::api::{serve, Query, SessionConfig, ZigzagService};
use zigzag::bcm::protocols::Ffip;
use zigzag::bcm::scheduler::RandomScheduler;
use zigzag::bcm::{Network, SimConfig, Simulator, Time};

/// A pass-through [`System`] wrapper counting heap allocations across
/// **all** threads (the server's reader, worker and writer included).
/// Frees are not counted; the steady-state claim is about acquisition.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn warm_framed_round_trips_allocate_nothing() {
    // A small run and a batch session; everything heavy happens here,
    // before the measured window.
    let mut b = Network::builder();
    let i = b.add_process("i");
    let j = b.add_process("j");
    let k = b.add_process("k");
    b.add_bidirectional(i, j, 2, 5).unwrap();
    b.add_bidirectional(j, k, 1, 4).unwrap();
    let ctx = b.build().unwrap();
    let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(30)));
    sim.external(Time::new(1), i, "kick");
    let run = sim
        .run(&mut Ffip::new(), &mut RandomScheduler::seeded(9))
        .unwrap();
    let service = Arc::new(ZigzagService::sharded(4));
    let session = service.open_batch(run.clone(), SessionConfig::new());
    let nodes: Vec<_> = run
        .nodes()
        .map(|r| r.id())
        .filter(|n| !n.is_initial())
        .collect();
    // A TightBound frame: two plain node operands, so decoding borrows
    // everything (a GeneralNode operand would heap-allocate its path
    // vector by construction), the dispatch hits the session's memoized
    // longest-path cache warm, and the response encodes into the pooled
    // buffer — the fully allocation-free steady-state query shape.
    let frame = serve::encode_frame(
        session,
        &Query::TightBound {
            from: nodes[0],
            to: nodes[1],
        },
    );
    let mut request_bytes = Vec::new();
    encode_envelope_into(&mut request_bytes, &frame).unwrap();

    let path = std::env::temp_dir().join(format!("zigzag-netalloc-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server =
        NetServer::bind_unix(&path, Arc::clone(&service), NetConfig::new().workers(1)).unwrap();
    let mut conn = UnixStream::connect(&path).unwrap();
    let mut scanner = EnvelopeScanner::new(1 << 20);

    // Warm-up: fills the buffer pools to their steady population, grows
    // the scanner and rail to their high-water marks, faults in every
    // lazy thread-local, and warms the session's observer cache.
    let mut expected = String::new();
    for _ in 0..64 {
        conn.write_all(&request_bytes).unwrap();
        let got = scanner.recv(&mut conn).unwrap().unwrap();
        if expected.is_empty() {
            expected = got.to_string();
            assert!(!serve::is_error_document(&expected), "{expected:?}");
        } else {
            assert_eq!(got, expected);
        }
    }

    // The measured window: 64 more identical round-trips. Nothing in
    // the process — reader, worker, writer, or this client — may touch
    // the heap.
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..64 {
        conn.write_all(&request_bytes).unwrap();
        let got = scanner.recv(&mut conn).unwrap().unwrap();
        assert!(got == expected, "response changed under a warm server");
    }
    let during = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(
        during, 0,
        "a warm framed round-trip allocated ({during} allocations over 64 round-trips)"
    );

    drop(conn);
    server.shutdown();
}
