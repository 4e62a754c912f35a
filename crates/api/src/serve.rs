//! The sharded wire-serving loop: N workers, each owning a slice of the
//! session table, dispatching [`crate::wire`] frames.
//!
//! [`crate::ZigzagService`] answers queries synchronously for one caller.
//! This module is the throughput layer the ROADMAP's serving system runs
//! on: a batch of **request frames** — each a [`wire`]-encoded query
//! addressed to a session — is fanned across `workers` threads such that
//! every frame is handled by the worker *owning* its session's shard
//! (`shard_of(session) % workers`). Consequences, by construction rather
//! than by locking discipline:
//!
//! * **no cross-worker locking on the steady path** — a shard's handle
//!   map is only ever touched by its owning worker during the loop, so
//!   its mutex never contends, and dispatch itself runs on the resolved
//!   session outside any table lock;
//! * **per-session arrival order** — all frames of one session land on
//!   one worker, which processes its frames in arrival order; responses
//!   are written back into the arrival-order slot of the output, so each
//!   session sees its answers in exactly the order it asked;
//! * **one lookup per frame** — a worker resolves each frame's session
//!   through its shard's (uncontended) lock, so a session closed between
//!   two frames answers the second with [`Error::UnknownSession`]; every
//!   query inside a [`crate::Query::QueryBatch`] frame shares that one
//!   lookup.
//!
//! Byte-identity is the contract: for a fixed frame batch against a fixed
//! session table, [`serve`] returns the same `Vec<String>` at **every**
//! worker count — equal to the serial loop decoding, dispatching and
//! re-encoding one frame at a time (pinned at worker counts 1/2/8 by the
//! differential oracle in `tests/oracle.rs`). Frames that fail to decode,
//! or whose dispatch fails, produce a deterministic `zigzag-error v2`
//! document in their slot; the loop never panics on hostile input.
//!
//! # Frame format
//!
//! ```text
//! zigzag-frame v1
//! session 3
//! zigzag-query v1
//! maxx 1 2 0 1 1 2 1 2 0
//! ```
//!
//! — the frame header, the target session's raw handle, then a complete
//! [`wire::encode_query`] document. Responses are plain
//! [`wire::encode_response`] documents; failures are
//! [`encode_error`] documents:
//!
//! ```text
//! zigzag-error v2
//! unknown-session 3
//! ```
//!
//! — the error header, then the error's code and its typed fields, free
//! text escaped as one token (the codes are listed on [`Error`]).
//! Round-tripping is lossless ([`decode_frame`], [`decode_error`]),
//! except that the model, causality and coordination layers' errors come
//! back as [`Error::Internal`] carrying their text.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::Error;
use crate::query::Query;
use crate::service::{SessionId, ZigzagService};
use crate::stats::TransportStats;
use crate::wire::{self, Lines};

/// Header line of a request frame.
const FRAME_HEADER: &str = "zigzag-frame v1";
/// Header line of an error response document.
const ERROR_HEADER: &str = "zigzag-error v2";

/// Writer-based form of [`encode_frame`]; see [`wire::encode_query_to`]
/// for the writer-based encoder convention.
///
/// # Errors
///
/// Propagates `out`'s write error (encoding itself cannot fail).
pub fn encode_frame_to<W: fmt::Write>(out: &mut W, session: SessionId, q: &Query) -> fmt::Result {
    writeln!(out, "{FRAME_HEADER}")?;
    writeln!(out, "session {}", session.raw())?;
    wire::encode_query_to(out, q)
}

/// Encodes a request frame: `q` addressed to `session`, in the
/// `zigzag-frame v1` text format (see the [module docs](self)).
pub fn encode_frame(session: SessionId, q: &Query) -> String {
    let mut out = String::new();
    encode_frame_to(&mut out, session, q).expect("writing to a String is infallible");
    out
}

/// Decodes a `zigzag-frame v1` document into its target session and
/// query — the inverse of [`encode_frame`].
///
/// # Errors
///
/// Returns [`Error::Wire`] on malformed input, with line numbers
/// relative to the whole frame.
pub fn decode_frame(text: &str) -> Result<(SessionId, Query), Error> {
    let mut lines = Lines::new(text);
    let session = read_session(&mut lines)?;
    Ok((session, wire::read_query(&mut lines)?))
}

/// Reads a frame's header and session lines — the cheap routing parse,
/// which stops there: the query is decoded later, on the owning worker.
fn read_session(lines: &mut Lines<'_>) -> Result<SessionId, Error> {
    lines.header(FRAME_HEADER)?;
    let mut t = lines.tokens()?;
    t.tag("session")?;
    let raw = t.num()?;
    t.done()?;
    Ok(SessionId::from_raw(raw))
}

/// Writer-based form of [`encode_error`].
///
/// # Errors
///
/// Propagates `out`'s write error (encoding itself cannot fail).
pub fn encode_error_to<W: fmt::Write>(out: &mut W, e: &Error) -> fmt::Result {
    writeln!(out, "{ERROR_HEADER}")?;
    e.write_code(out)?;
    out.write_str("\n")
}

/// Encodes a failed frame's answer: the `zigzag-error v2` document
/// carrying the error's code and fields (see the [module docs](self)).
/// Deterministic for a given error, so error slots participate in the
/// serving loop's byte-identity contract like any response.
pub fn encode_error(e: &Error) -> String {
    let mut out = String::new();
    encode_error_to(&mut out, e).expect("writing to a String is infallible");
    out
}

/// Decodes a `zigzag-error v2` document back into the [`Error`] it
/// carries. The model, causality and coordination layers' errors come
/// back as [`Error::Internal`] carrying their text. So does a document
/// that does not decode (another version, an unknown code, a missing or
/// extra field), carrying the reason. None of these is retryable.
pub fn decode_error(text: &str) -> Error {
    read_error(&mut Lines::new(text)).unwrap_or_else(|e| Error::Internal {
        detail: format!("undecodable error document: {e}"),
    })
}

fn read_error(lines: &mut Lines<'_>) -> Result<Error, Error> {
    lines.header(ERROR_HEADER)?;
    let e = Error::read_code(&mut lines.tokens()?)?;
    lines.end()?;
    Ok(e)
}

/// Whether a serving-loop output slot holds a `zigzag-error v2`
/// document (as opposed to a `zigzag-response v1` answer).
pub fn is_error_document(text: &str) -> bool {
    Lines::new(text)
        .try_next()
        .is_some_and(|l| l.trim() == ERROR_HEADER)
}

/// The live gauges a [`crate::net`] server hands its workers so a
/// [`Query::Stats`] frame answered on the socket path can report them:
/// the per-worker queue depths and the transport counters.
pub(crate) struct NetView<'a> {
    /// Per-worker queue-depth gauges.
    pub queues: &'a [AtomicUsize],
    /// The server's transport counters.
    pub transport: &'a TransportStats,
}

/// Answers one frame into `out` (cleared first): decode, resolve the
/// session through its shard's lock, dispatch, encode — *the* per-frame
/// code path shared by the serial loop, every worker, and the
/// [`crate::net`] front end, which is what makes [`serve`]
/// worker-count-invariant (and the socket server byte-identical to it).
/// Writing into a caller-recycled `String` keeps the warm socket path
/// allocation-free (pinned by `tests/netalloc.rs`).
///
/// Three serving concerns live here so every caller gets them for free:
///
/// * **Service-level interception** — routing goes through
///   `ZigzagService::route`, the same `match` in-process dispatch uses,
///   so Stats, migration, appends, event counts and recovery work
///   identically in-process and over a socket. A [`Query::Stats`] frame
///   is answered from the service's counters before any session is
///   resolved (its session line is routing information only); `net`
///   supplies the queue-depth gauges and transport counters of a
///   [`crate::net`] server, `None` reports neither.
/// * **Latency accounting** — each dispatch against a resolved session is
///   timed into the service's histogram by the same routing.
/// * **Panic containment** — a panic anywhere in decode or dispatch is
///   caught and answered as a deterministic [`Error::Internal`] document,
///   so one hostile or buggy frame cannot take down the worker (or, under
///   [`serve`]'s join, the whole batch).
pub(crate) fn respond_into(
    service: &ZigzagService,
    frame: &str,
    net: Option<&NetView<'_>>,
    out: &mut String,
) {
    let answer = catch_unwind(AssertUnwindSafe(|| {
        decode_frame(frame).and_then(|(id, query)| {
            let stats = || {
                let (depths, transport) = net
                    .map(|v| {
                        let depths: Vec<u64> = v
                            .queues
                            .iter()
                            .map(|q| q.load(Ordering::Relaxed) as u64)
                            .collect();
                        (depths, v.transport.snapshot())
                    })
                    .unwrap_or_default();
                service.stats_with_net(&depths, transport)
            };
            service.route(id, &query, stats)
        })
    }))
    .unwrap_or_else(|_| {
        Err(Error::Internal {
            detail: "panic while answering a frame".into(),
        })
    });
    out.clear();
    match answer {
        Ok(response) => wire::encode_response_to(out, &response),
        Err(e) => encode_error_to(out, &e),
    }
    .expect("writing to a String is infallible");
}

/// [`respond_into`] for the in-process loop, which has no worker queues
/// or transport counters to report and collects owned documents anyway.
fn respond(service: &ZigzagService, frame: &str) -> String {
    let mut out = String::new();
    respond_into(service, frame, None, &mut out);
    out
}

/// The worker a frame belongs to: the owner of its session's shard. It
/// reads the frame's two header lines only, so routing costs the same
/// for any frame size. A frame whose session line cannot even be parsed
/// has no shard; worker 0 answers it (with the wire error), keeping the
/// assignment total and deterministic.
pub(crate) fn owner_of(service: &ZigzagService, frame: &str, workers: usize) -> usize {
    match read_session(&mut Lines::new(frame)) {
        Ok(id) => service.shard_of(id) % workers.max(1),
        Err(_) => 0,
    }
}

/// Serves a batch of request frames with `workers` threads, returning
/// one response document per frame, **in arrival order** — see the
/// [module docs](self) for the sharding, ordering and byte-identity
/// contract. The session table is treated as fixed for the duration of
/// the call: concurrent `open`/`close` from other threads may race
/// individual lookups (exactly as they would against the serial loop run
/// at the same moment).
///
/// # Worker-count clamping
///
/// `workers` is a parallelism *hint*, clamped into
/// `[1, max(frames.len(), 1)]`: `workers == 0` (a natural result of
/// sizing off `available_parallelism() - k` or an empty CPU mask) means
/// the serial loop, never a division by zero in shard routing; anything
/// above the frame count is wasted threads and is clamped down. The
/// clamp cannot change any answer — byte-identity holds at every worker
/// count — so it is always safe to apply.
pub fn serve<S: AsRef<str> + Sync>(
    service: &ZigzagService,
    frames: &[S],
    workers: usize,
) -> Vec<String> {
    let workers = workers.max(1).min(frames.len().max(1));
    if workers <= 1 {
        return frames
            .iter()
            .map(|f| respond(service, f.as_ref()))
            .collect();
    }
    // Route once on the calling thread (one header parse per frame),
    // then let each worker index the owner table instead of re-parsing
    // every frame per worker.
    let owners: Vec<usize> = frames
        .iter()
        .map(|f| owner_of(service, f.as_ref(), workers))
        .collect();
    let owners = &owners;
    let mut batches: Vec<Vec<(usize, String)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    frames
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| owners[*i] == w)
                        .map(|(i, f)| (i, respond(service, f.as_ref())))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let mut slots: Vec<Option<String>> = Vec::with_capacity(frames.len());
    slots.resize_with(frames.len(), || None);
    for batch in &mut batches {
        for (i, out) in batch.drain(..) {
            slots[i] = Some(out);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every frame is owned by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SessionConfig;
    use crate::query::Response;
    use zigzag_bcm::protocols::Ffip;
    use zigzag_bcm::scheduler::EagerScheduler;
    use zigzag_bcm::{Network, Run, SimConfig, Simulator, Time};
    use zigzag_core::GeneralNode;

    fn fig1_run() -> Run {
        let mut b = Network::builder();
        let c = b.add_process("C");
        let a = b.add_process("A");
        let bb = b.add_process("B");
        b.add_channel(c, a, 1, 3).unwrap();
        b.add_channel(c, bb, 7, 9).unwrap();
        let ctx = b.build().unwrap();
        let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(40)));
        sim.external(Time::new(2), c, "go");
        sim.run(&mut Ffip::new(), &mut EagerScheduler).unwrap()
    }

    #[test]
    fn frames_round_trip_and_reject_malformed_documents() {
        let sigma = zigzag_bcm::NodeId::new(zigzag_bcm::ProcessId::new(1), 2);
        let q = Query::MaxXMatrix { sigma };
        let id = SessionId::from_raw(7);
        let text = encode_frame(id, &q);
        assert_eq!(decode_frame(&text).unwrap(), (id, q.clone()));
        // Writer-based encoding is byte-identical.
        let mut streamed = String::new();
        encode_frame_to(&mut streamed, id, &q).unwrap();
        assert_eq!(streamed, text);

        for bad in [
            "",
            "zigzag-frame v1",
            "zigzag-frame v1\n",
            "nope\nsession 1\nzigzag-query v1\ncoord\n",
            "zigzag-frame v1\nsession\nzigzag-query v1\ncoord\n",
            "zigzag-frame v1\nsession x\nzigzag-query v1\ncoord\n",
            "zigzag-frame v1\nsession 1 2\nzigzag-query v1\ncoord\n",
            "zigzag-frame v1\nsession 1\nbogus\ncoord\n",
        ] {
            assert!(
                matches!(decode_frame(bad), Err(Error::Wire { .. })),
                "{bad:?}"
            );
        }
        // Body-decode failures report frame-relative line numbers: the
        // bad wire header sits on frame line 3 (after the two frame
        // header lines), not on "line 1" of the embedded document.
        let err = decode_frame("zigzag-frame v1\nsession 1\nbogus\ncoord\n").unwrap_err();
        assert!(
            matches!(err, Error::Wire { line: 3, .. }),
            "body error not re-anchored: {err}"
        );
    }

    /// A snapshot embedded in an `Import` frame is read in place, so a
    /// malformed one reports the frame line it breaks on.
    #[test]
    fn embedded_snapshot_errors_point_at_frame_lines() {
        let service = ZigzagService::new();
        let id = service.open_batch(fig1_run(), SessionConfig::new());
        let snap = service.export(id).unwrap();
        let frame = encode_frame(id, &Query::Import(Box::new(snap)));
        let line_of = |prefix: &str| frame.lines().position(|l| l.starts_with(prefix)).unwrap() + 1;
        // Frame, session, query header, `import`, `snaplines`, then the
        // snapshot's header and its probe line.
        assert_eq!(line_of("probe "), 7);
        for (from, to, line) in [
            ("probe include", "probe sideways", 7),
            ("zigzag-run v2", "zigzag-run v1", line_of("run ")),
        ] {
            let err = decode_frame(&frame.replacen(from, to, 1)).unwrap_err();
            assert!(
                matches!(err, Error::Wire { line: l, .. } if l == line),
                "{from}: {err}"
            );
        }
    }

    #[test]
    fn serve_matches_the_serial_loop_and_flags_errors_in_place() {
        let run = fig1_run();
        let service = ZigzagService::sharded(4);
        let nodes: Vec<_> = run
            .nodes()
            .map(|r| r.id())
            .filter(|n| !n.is_initial())
            .collect();
        let sessions: Vec<_> = (0..3)
            .map(|_| service.open_batch(run.clone(), SessionConfig::new()))
            .collect();
        let mut frames = Vec::new();
        for (k, &sigma) in nodes.iter().enumerate() {
            let id = sessions[k % sessions.len()];
            frames.push(encode_frame(id, &Query::MaxXMatrix { sigma }));
            frames.push(encode_frame(
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
        // An unknown session and an undecodable frame: deterministic
        // error documents in their arrival slots, not panics.
        frames.push(encode_frame(
            SessionId::from_raw(999),
            &Query::CoordDecision,
        ));
        frames.push("zigzag-frame v1\nsession zero\n".to_string());

        let serial = serve(&service, &frames, 1);
        assert_eq!(serial.len(), frames.len());
        for workers in [2, 3, 8] {
            assert_eq!(
                serve(&service, &frames, workers),
                serial,
                "workers={workers}"
            );
        }
        // The error slots are flagged as such; the rest decode as
        // responses equal to direct dispatch.
        assert!(is_error_document(&serial[serial.len() - 2]));
        assert!(is_error_document(&serial[serial.len() - 1]));
        let (id, q) = decode_frame(&frames[0]).unwrap();
        let direct = service.dispatch(id, &q).unwrap();
        assert!(!is_error_document(&serial[0]));
        assert_eq!(wire::decode_response(&serial[0]).unwrap(), direct);
        let Response::MaxXMatrix(_) = direct else {
            panic!("matrix queries return matrices");
        };
    }

    #[test]
    fn zero_workers_means_serial_not_division_by_zero() {
        // Regression: `workers == 0` falls out naturally of sizing off
        // `available_parallelism() - k`; it must mean "serial loop", not
        // panic in `shard_of(id) % workers`.
        let run = fig1_run();
        let service = ZigzagService::sharded(4);
        let id = service.open_batch(run.clone(), SessionConfig::new());
        let sigma = run
            .nodes()
            .map(|r| r.id())
            .find(|n| !n.is_initial())
            .unwrap();
        let frames = vec![encode_frame(id, &Query::MaxXMatrix { sigma })];
        let zero = serve(&service, &frames, 0);
        assert_eq!(zero, serve(&service, &frames, 1));
        assert_eq!(zero, serve(&service, &frames, usize::MAX));
        // Degenerate extremes: no frames at all, at both clamp edges.
        assert!(serve(&service, &[] as &[&str], 0).is_empty());
        assert!(serve(&service, &[] as &[&str], 7).is_empty());
        // The routing helper is total even for workers == 0.
        assert_eq!(owner_of(&service, &frames[0], 0), 0);
    }

    #[test]
    fn hostile_frames_become_error_documents_not_panics() {
        let run = fig1_run();
        let service = ZigzagService::sharded(4);
        let id = service.open_batch(run, SessionConfig::new());
        let hostile = [
            // Oversized counts: a batch that promises more queries /
            // theta path tokens than the document carries.
            format!(
                "zigzag-frame v1\nsession {}\nzigzag-query v1\nbatch 4000000000\ncoord\n",
                id.raw()
            ),
            format!(
                "zigzag-frame v1\nsession {}\nzigzag-query v1\nmaxx 0 0 0 1 99999999 0 1 0 2 0\n",
                id.raw()
            ),
            // Embedded blank / short lines where documents are promised.
            format!("zigzag-frame v1\nsession {}\nzigzag-query v1\n\n", id.raw()),
            // Trailing garbage after a complete query document.
            format!(
                "zigzag-frame v1\nsession {}\nzigzag-query v1\ncoord\ntrailing garbage\n",
                id.raw()
            ),
            // Stats cannot nest in a batch: service-level error document.
            format!(
                "zigzag-frame v1\nsession {}\nzigzag-query v1\nbatch 1\nstats\n",
                id.raw()
            ),
            // No trailing newline on the session line at all.
            "zigzag-frame v1\nsession 1".to_string(),
        ];
        for workers in [0, 1, 3] {
            let out = serve(&service, &hostile, workers);
            assert_eq!(out.len(), hostile.len());
            for (frame, doc) in hostile.iter().zip(&out) {
                assert!(
                    is_error_document(doc),
                    "workers={workers}: {frame:?} -> {doc:?}"
                );
            }
        }
        // Dispatching Stats on a bare session (not through the service)
        // is refused with the typed service-level error.
        let session = service.session(id).unwrap();
        assert!(matches!(
            session.dispatch(&Query::Stats),
            Err(Error::ServiceLevelQuery)
        ));
    }

    #[test]
    fn stats_frames_are_answered_from_service_counters() {
        let run = fig1_run();
        let service = ZigzagService::sharded(4);
        let id = service.open_batch(run.clone(), SessionConfig::new());
        let sigma = run
            .nodes()
            .map(|r| r.id())
            .find(|n| !n.is_initial())
            .unwrap();
        let work = vec![encode_frame(id, &Query::MaxXMatrix { sigma }); 5];
        serve(&service, &work, 2);
        // The session line of a Stats frame is routing-only: a handle
        // that names no open session still gets the service-wide answer.
        let stats_frame = encode_frame(SessionId::from_raw(999), &Query::Stats);
        let out = serve(&service, &[stats_frame], 1);
        let Response::Stats(report) = wire::decode_response(&out[0]).unwrap() else {
            panic!(
                "stats frame answered with a non-stats document: {:?}",
                out[0]
            );
        };
        assert_eq!(report.queries, 5);
        assert_eq!(report.latency.count(), 5);
        assert!(report.observer_misses >= 1);
        assert!(report.observer_hits >= 4);
        assert_eq!(report.sessions_per_shard.iter().sum::<u64>(), 1);
        assert!(report.queue_depths.is_empty());
    }
}
