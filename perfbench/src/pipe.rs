//! The read workloads' load generator: one Unix-socket connection that
//! keeps a fixed window of pre-encoded frames in flight. It is a closed
//! loop — a new frame goes out only when a reply comes back — and it
//! checks every reply byte for byte against the expected document.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use zigzag_api::net::{encode_envelope_into, EnvelopeScanner};
use zigzag_api::{serve, wire, Query, Response, SessionId};

use crate::report::LatencyHist;

/// Largest reply accepted, in bytes.
const MAX_REPLY_BYTES: usize = 16 << 20;

/// What one connection sends: a pass of frames, repeated until the
/// deadline has passed at a pass boundary.
pub struct Plan<'a> {
    /// The frames of one pass, each already wrapped in its envelope.
    pub envelopes: &'a [Vec<u8>],
    /// The expected reply document for each frame of the pass.
    pub expected: &'a [String],
    /// Frames kept in flight.
    pub in_flight: usize,
    /// Start of the first measurement window.
    pub start: Instant,
    /// Length of each measurement window.
    pub window_len: Duration,
    /// Number of measurement windows; replies after the last are counted
    /// in the totals only.
    pub windows: usize,
    /// No new pass starts after this instant (the first always does).
    pub deadline: Instant,
    /// Record the round trip of every this-many-th frame.
    pub sample_every: Option<u64>,
    /// Send a `Stats` frame after every this-many frames, to sample the
    /// server's queue depths.
    pub stats_every: Option<u64>,
}

/// A sampled round trip: the frame's index in the pass, sent, received.
pub type Sample = (usize, Instant, Instant);

/// What one connection observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload frames sent (and answered).
    pub sent: u64,
    /// Replies that differed from the expected document.
    pub mismatched: u64,
    /// Round-trip time of every workload frame.
    pub latency: LatencyHist,
    /// Round-trip times by the measurement window the reply fell in.
    pub windows: Vec<LatencyHist>,
    /// Sampled round trips, for the trace.
    pub samples: Vec<Sample>,
    /// `Stats` frames sent.
    pub stats_frames: u64,
    /// Largest per-worker queue depth any `Stats` reply reported.
    pub queue_depth_max: u64,
}

enum Slot {
    Frame(usize, Instant),
    Stats,
}

/// Connects to `sock` and runs `plan` to completion.
pub fn drive(sock: &Path, plan: &Plan<'_>) -> io::Result<Outcome> {
    let mut stream = UnixStream::connect(sock)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let stats_env = {
        let mut env = Vec::new();
        let frame = serve::encode_frame(SessionId::from_raw(0), &Query::Stats);
        encode_envelope_into(&mut env, &frame)?;
        env
    };
    let pass = plan.envelopes.len();
    let mut scanner = EnvelopeScanner::new(MAX_REPLY_BYTES);
    let mut inflight: VecDeque<Slot> = VecDeque::with_capacity(plan.in_flight + 1);
    let mut out = Outcome {
        windows: vec![LatencyHist::default(); plan.windows],
        ..Default::default()
    };
    let mut buf = Vec::new();
    let mut next = 0u64;
    let mut stopping = false;
    loop {
        buf.clear();
        let now = Instant::now();
        while !stopping && inflight.len() < plan.in_flight {
            let i = (next % pass as u64) as usize;
            if i == 0 && next > 0 && now >= plan.deadline {
                stopping = true;
                break;
            }
            if plan
                .stats_every
                .is_some_and(|k| next > 0 && next.is_multiple_of(k))
            {
                buf.extend_from_slice(&stats_env);
                inflight.push_back(Slot::Stats);
                out.stats_frames += 1;
            }
            buf.extend_from_slice(&plan.envelopes[i]);
            inflight.push_back(Slot::Frame(i, now));
            next += 1;
        }
        if !buf.is_empty() {
            stream.write_all(&buf)?;
        }
        if inflight.is_empty() {
            return Ok(out);
        }
        if scanner.fill_from(&mut stream)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection with frames in flight",
            ));
        }
        let got = Instant::now();
        let window = (got.saturating_duration_since(plan.start).as_nanos()
            / plan.window_len.as_nanos().max(1)) as usize;
        while let Some(doc) = scanner.next().map_err(io::Error::from)? {
            match inflight.pop_front() {
                Some(Slot::Frame(i, sent)) => {
                    if doc != plan.expected[i] {
                        out.mismatched += 1;
                    }
                    let ns = got.duration_since(sent).as_nanos() as u64;
                    out.latency.record(ns);
                    if let Some(w) = out.windows.get_mut(window) {
                        w.record(ns);
                    }
                    if plan
                        .sample_every
                        .is_some_and(|k| out.sent.is_multiple_of(k))
                    {
                        out.samples.push((i, sent, got));
                    }
                    out.sent += 1;
                }
                Some(Slot::Stats) => match wire::decode_response(doc) {
                    Ok(Response::Stats(report)) => {
                        let deepest = report.queue_depths.iter().copied().max().unwrap_or(0);
                        out.queue_depth_max = out.queue_depth_max.max(deepest);
                    }
                    _ => out.mismatched += 1,
                },
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "reply with no request in flight",
                    ))
                }
            }
        }
    }
}

/// Wraps each frame in its length-delimited envelope.
pub fn envelopes(frames: &[String]) -> Vec<Vec<u8>> {
    frames
        .iter()
        .map(|f| {
            let mut env = Vec::with_capacity(f.len() + 4);
            encode_envelope_into(&mut env, f).expect("frames fit the u32 envelope length");
            env
        })
        .collect()
}
