//! The resilient client: a reconnecting, retrying wrapper over the
//! framed envelope protocol of [`crate::net`].
//!
//! [`ResilientClient`] speaks the same length-delimited `zigzag-frame v1`
//! envelopes as the raw [`crate::net::write_envelope`] /
//! [`crate::net::read_envelope`] pair, and adds the failure handling a
//! caller facing a faulty network otherwise reimplements badly:
//!
//! * **One `write` per request** — each request is encoded, header and
//!   document, into a buffer the client keeps and sent with one write,
//!   so the server's reader never wakes on a bare header. Replies are
//!   read through an [`EnvelopeScanner`] that lives and dies with the
//!   connection; bytes after the one expected reply are a transport
//!   failure.
//!
//! * **Typed errors** — every server `zigzag-error v2` document is read
//!   back into the [`Error`] its code names ([`crate::serve::decode_error`]),
//!   and every connection-level failure (EOF, reset, timeout) becomes
//!   [`Error::Transport`], so the caller matches one enum instead of
//!   string-scraping.
//! * **Retry, gated on [`Error::is_retryable`]** — idempotent queries are
//!   retried transparently across reconnects with capped exponential
//!   backoff and deterministic jitter (seeded, so a chaos run replays
//!   byte-identically).
//! * **Exactly-once appends** — [`ResilientClient::append`] never
//!   blind-resends after an ambiguous transport failure: it probes the
//!   session's event count ([`crate::Query::EventCount`]) and resends
//!   only if the event provably did not land. An [`Error::Overloaded`]
//!   rejection *is* resent blindly — the server rejects before enqueueing,
//!   so the append cannot have happened.
//! * **Per-request deadlines** — [`ClientConfig::request_deadline`]
//!   bounds connection establishment and each socket read; a server that
//!   stops answering surfaces a typed [`Error::Transport`] instead of a
//!   hang. (A server trickling bytes can extend a single request beyond
//!   the deadline; each individual read is bounded.)
//!
//! The client is deliberately synchronous and single-connection — one
//! request in flight at a time — because that is the shape the retry and
//! exactly-once reasoning needs. Pipelining callers should use the raw
//! envelope helpers and own their error handling.
//!
//! # What the client never retries
//!
//! Non-idempotent queries ([`crate::Query::Append`] outside the probed
//! [`ResilientClient::append`] path, [`crate::Query::Import`],
//! [`crate::Query::Recover`]) are sent at most once per call; everything
//! non-retryable
//! ([`Error::is_retryable`] is `false`) surfaces immediately.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::path::{Path, PathBuf};
use std::time::Duration;

use rand::{Rng, SeedableRng, StdRng};
use zigzag_bcm::stream::RunEvent;

use crate::error::Error;
use crate::net::{encode_envelope_into, Conn, EnvelopeScanner};
use crate::query::{Query, Response};
use crate::serve;
use crate::service::SessionId;
use crate::wire;

/// Tuning knobs for a [`ResilientClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConfig {
    /// Largest accepted reply envelope, in bytes (mirror of the server's
    /// [`crate::NetConfig::max_frame_bytes`]).
    pub max_frame_bytes: usize,
    /// Bound on connection establishment and on each socket read while
    /// waiting for a reply. A request that exceeds it surfaces
    /// [`Error::Transport`] and the connection is discarded.
    pub request_deadline: Duration,
    /// Most retries after the initial attempt (so a request is sent at
    /// most `max_retries + 1` times).
    pub max_retries: u32,
    /// First backoff delay; doubles per attempt up to
    /// [`ClientConfig::backoff_cap`].
    pub backoff_base: Duration,
    /// Ceiling on one backoff delay (before jitter halves it downward).
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter. Two clients with the
    /// same seed sleep the same jittered delays — the property the chaos
    /// oracle replays.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_frame_bytes: 16 << 20,
            request_deadline: Duration::from_secs(5),
            max_retries: 8,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(500),
            jitter_seed: 0x5A5A_5A5A_5A5A_5A5A,
        }
    }
}

impl ClientConfig {
    /// The default configuration.
    pub fn new() -> Self {
        ClientConfig::default()
    }

    /// Sets the largest accepted reply envelope.
    pub fn max_frame_bytes(mut self, bytes: usize) -> Self {
        self.max_frame_bytes = bytes;
        self
    }

    /// Sets the per-request deadline.
    pub fn request_deadline(mut self, deadline: Duration) -> Self {
        self.request_deadline = deadline;
        self
    }

    /// Sets the retry budget (retries after the initial attempt).
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Sets the backoff base and cap.
    pub fn backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Sets the jitter seed.
    pub fn jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }
}

/// Where the client (re)connects.
#[derive(Debug, Clone)]
enum Target {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Spare room each reply read asks the kernel for: a reply up to this
/// size takes one read, a larger one a second read sized to its rest.
const REPLY_CHUNK_BYTES: usize = 4096;

/// An open connection and the scanner its replies are read through,
/// dropped together: a discarded connection leaves no buffered bytes.
#[derive(Debug)]
struct Link {
    conn: Conn,
    replies: EnvelopeScanner,
}

/// A reconnecting, retrying client for a [`crate::net::NetServer`]; see
/// the [module docs](self) for the retry and exactly-once semantics.
#[derive(Debug)]
pub struct ResilientClient {
    target: Target,
    config: ClientConfig,
    link: Option<Link>,
    /// The request envelope being sent, reused across requests.
    request: Vec<u8>,
    rng: StdRng,
}

impl ResilientClient {
    /// Creates a client for a TCP server. The address is resolved now;
    /// the connection itself is established lazily on the first request
    /// (and re-established transparently after any transport failure).
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Transport`] if `addr` does not resolve.
    pub fn connect_tcp<A: ToSocketAddrs>(
        addr: A,
        config: ClientConfig,
    ) -> Result<ResilientClient, Error> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| Error::Transport {
                detail: format!("resolving server address: {e}"),
            })?
            .next()
            .ok_or_else(|| Error::Transport {
                detail: "server address resolved to no socket address".into(),
            })?;
        Ok(ResilientClient::with_target(Target::Tcp(addr), config))
    }

    /// Creates a client for a Unix-domain-socket server; like
    /// [`ResilientClient::connect_tcp`], the connection is lazy.
    #[cfg(unix)]
    pub fn connect_unix<P: AsRef<Path>>(path: P, config: ClientConfig) -> ResilientClient {
        ResilientClient::with_target(Target::Unix(path.as_ref().to_path_buf()), config)
    }

    fn with_target(target: Target, config: ClientConfig) -> ResilientClient {
        let rng = StdRng::seed_from_u64(config.jitter_seed);
        ResilientClient {
            target,
            config,
            link: None,
            request: Vec::new(),
            rng,
        }
    }

    /// The client's configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// Dispatches one query and returns the typed response.
    ///
    /// Idempotent queries (everything except [`Query::Append`],
    /// [`Query::Import`] and [`Query::Recover`]) are retried across
    /// reconnects on any [retryable](Error::is_retryable) failure, up to
    /// [`ClientConfig::max_retries`]; non-idempotent queries are sent at
    /// most once — use [`ResilientClient::append`] for the probed,
    /// exactly-once append path. (A retried `Recover` would answer
    /// without the sessions a lost first answer attached.)
    ///
    /// # Errors
    ///
    /// Any [`Error`]: server-reported errors arrive typed, transport
    /// failures as [`Error::Transport`].
    pub fn query(&mut self, id: SessionId, q: &Query) -> Result<Response, Error> {
        let idempotent = !matches!(q, Query::Append(_) | Query::Import(_) | Query::Recover);
        let frame = serve::encode_frame(id, q);
        let mut attempt = 0u32;
        loop {
            match self.exchange(&frame) {
                Ok(resp) => return Ok(resp),
                Err(e) if idempotent && e.is_retryable() && attempt < self.config.max_retries => {
                    self.backoff(attempt);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Appends one event to a stream session, **exactly once**, even
    /// across transport failures that leave the first attempt's fate
    /// unknown. Returns the session's event count after the append.
    ///
    /// The protocol: probe the event count, send the append, and on a
    /// transport failure re-probe — a count above the baseline means the
    /// append landed (single-writer sessions; concurrent appenders to the
    /// *same* session would make the probe ambiguous, and callers must
    /// serialize per session). Only a probe-confirmed miss is resent.
    /// [`Error::Overloaded`] rejections are resent without a probe: the
    /// server rejects before enqueueing, so nothing happened.
    ///
    /// # Errors
    ///
    /// Any [`Error`]; if the retry budget runs out while the outcome is
    /// still ambiguous, the last [`Error::Transport`] surfaces.
    pub fn append(&mut self, id: SessionId, ev: &RunEvent) -> Result<u64, Error> {
        let baseline = self.event_count(id)?;
        let frame = serve::encode_frame(id, &Query::Append(Box::new(ev.clone())));
        let mut attempt = 0u32;
        loop {
            match self.exchange(&frame) {
                Ok(Response::Appended(n)) => return Ok(n),
                Ok(other) => {
                    return Err(Error::Wire {
                        line: 0,
                        detail: format!("expected an appended response, got {other:?}"),
                    })
                }
                Err(e) if e.is_retryable() && attempt < self.config.max_retries => {
                    let ambiguous = matches!(e, Error::Transport { .. });
                    self.backoff(attempt);
                    attempt += 1;
                    if ambiguous {
                        // The send may or may not have landed: ask.
                        let now = self.event_count(id)?;
                        if now > baseline {
                            return Ok(now);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The session's current event count — the idempotent probe behind
    /// [`ResilientClient::append`], exposed because chaos harnesses and
    /// fleet controllers want it too.
    ///
    /// # Errors
    ///
    /// Any [`Error`], including the mismatched-response guard.
    pub fn event_count(&mut self, id: SessionId) -> Result<u64, Error> {
        match self.query(id, &Query::EventCount)? {
            Response::EventCount(n) => Ok(n),
            other => Err(Error::Wire {
                line: 0,
                detail: format!("expected an event-count response, got {other:?}"),
            }),
        }
    }

    /// Triggers the server's supervised recovery sweep
    /// ([`crate::Query::Recover`]) and returns what it attached. The
    /// frame still addresses a session (any id routes it); pass the id of
    /// any session, or `SessionId::from_raw(0)`. The sweep is sent at
    /// most once: after a lost answer, its sessions may be attached
    /// already, and a second sweep would not list them.
    ///
    /// # Errors
    ///
    /// Any [`Error`]; [`Error::Store`] if the server has no supervisor,
    /// and [`Error::Transport`] if the answer was lost — the sweep may
    /// have run.
    pub fn recover(&mut self, id: SessionId) -> Result<Vec<(String, SessionId)>, Error> {
        match self.query(id, &Query::Recover)? {
            Response::Recovered(list) => Ok(list),
            other => Err(Error::Wire {
                line: 0,
                detail: format!("expected a recovered response, got {other:?}"),
            }),
        }
    }

    /// One request/reply exchange on the current connection (establishing
    /// it if needed), returning the decoded reply. A transport failure
    /// discards the connection — after a timeout, a torn read or an
    /// unexpected byte the stream may be desynchronized mid-envelope and
    /// can never be trusted again; a server error document keeps it.
    fn exchange(&mut self, frame: &str) -> Result<Response, Error> {
        let out = self.round_trip(frame);
        if out.is_err() {
            self.link = None;
        }
        out?
    }

    /// Sends `frame` as one envelope in one write and reads the one reply
    /// it gets; the outer error is the transport's.
    fn round_trip(&mut self, frame: &str) -> Result<Result<Response, Error>, Error> {
        self.request.clear();
        encode_envelope_into(&mut self.request, frame).map_err(|e| Error::Transport {
            detail: format!("sending request: {e}"),
        })?;
        self.ensure_link()?;
        let link = self.link.as_mut().expect("just ensured");
        link.conn
            .write_all(&self.request)
            .map_err(|e| Error::Transport {
                detail: format!("sending request: {e}"),
            })?;
        let doc = link
            .replies
            .recv(&mut link.conn)
            .map_err(|e| Error::Transport {
                detail: format!("reading reply: {e}"),
            })?
            .ok_or_else(|| Error::Transport {
                detail: "server closed the connection before answering".into(),
            })?;
        let reply = decode_reply(doc);
        if !link.replies.is_empty() {
            return Err(Error::Transport {
                detail: format!(
                    "{} bytes arrived after the reply",
                    link.replies.pending_bytes()
                ),
            });
        }
        Ok(reply)
    }

    fn ensure_link(&mut self) -> Result<(), Error> {
        if self.link.is_none() {
            let connect_err = |e: io::Error| Error::Transport {
                detail: format!("connecting: {e}"),
            };
            let conn = match &self.target {
                Target::Tcp(addr) => Conn::Tcp(
                    TcpStream::connect_timeout(addr, self.config.request_deadline)
                        .map_err(connect_err)?,
                ),
                #[cfg(unix)]
                Target::Unix(path) => Conn::Unix(UnixStream::connect(path).map_err(connect_err)?),
            };
            // Mirror the server: no Nagle stall on small frames.
            conn.set_nodelay().map_err(connect_err)?;
            conn.set_read_timeout(Some(self.config.request_deadline))
                .map_err(connect_err)?;
            let replies =
                EnvelopeScanner::with_chunk(self.config.max_frame_bytes, REPLY_CHUNK_BYTES);
            self.link = Some(Link { conn, replies });
        }
        Ok(())
    }

    /// The delay before retry number `attempt` (0-based): exponential
    /// from [`ClientConfig::backoff_base`], capped at
    /// [`ClientConfig::backoff_cap`], then jittered uniformly into the
    /// upper half of the window — deterministic per
    /// [`ClientConfig::jitter_seed`].
    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        let base = self.config.backoff_base.max(Duration::from_micros(1));
        let exp = base.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.config.backoff_cap.max(base));
        let nanos = capped.as_nanos() as u64;
        let jittered = nanos / 2 + self.rng.gen_range(0..nanos / 2 + 1);
        Duration::from_nanos(jittered)
    }

    fn backoff(&mut self, attempt: u32) {
        std::thread::sleep(self.backoff_delay(attempt));
    }
}

/// Decodes one reply document: a `zigzag-error v2` document becomes the
/// typed [`Error`] it carries, anything else parses as a response.
fn decode_reply(doc: &str) -> Result<Response, Error> {
    if serve::is_error_document(doc) {
        Err(serve::decode_error(doc))
    } else {
        wire::decode_response(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use zigzag_bcm::protocols::Ffip;
    use zigzag_bcm::scheduler::EagerScheduler;
    use zigzag_bcm::{RunCursor, SimConfig, Simulator, Time};
    use zigzag_core::GeneralNode;

    use crate::config::SessionConfig;
    use crate::net::{NetConfig, NetServer};
    use crate::service::ZigzagService;

    fn fig_run() -> zigzag_bcm::Run {
        let mut b = zigzag_bcm::Network::builder();
        let c = b.add_process("C");
        let a = b.add_process("A");
        let bb = b.add_process("B");
        b.add_channel(c, a, 1, 3).unwrap();
        b.add_channel(c, bb, 7, 9).unwrap();
        b.add_channel(bb, c, 2, 4).unwrap();
        let ctx = b.build().unwrap();
        let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(40)));
        sim.external(Time::new(2), c, "go");
        sim.run(&mut Ffip::new(), &mut EagerScheduler).unwrap()
    }

    fn fast_config() -> ClientConfig {
        ClientConfig::new()
            .max_retries(2)
            .backoff(Duration::from_millis(1), Duration::from_millis(4))
            .request_deadline(Duration::from_millis(500))
    }

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let config = ClientConfig::new()
            .backoff(Duration::from_millis(2), Duration::from_millis(50))
            .jitter_seed(99);
        let mut a = ResilientClient::connect_tcp("127.0.0.1:1", config.clone()).unwrap();
        let mut b = ResilientClient::connect_tcp("127.0.0.1:1", config).unwrap();
        let da: Vec<Duration> = (0..10).map(|k| a.backoff_delay(k)).collect();
        let db: Vec<Duration> = (0..10).map(|k| b.backoff_delay(k)).collect();
        assert_eq!(da, db, "same seed must give the same jitter schedule");
        for (k, d) in da.iter().enumerate() {
            assert!(*d <= Duration::from_millis(50), "attempt {k} above the cap");
            // Jitter keeps at least half the exponential window.
            let exp = Duration::from_millis(2 << k.min(16)).min(Duration::from_millis(50));
            assert!(*d >= exp / 2, "attempt {k} below half its window");
        }
        // A different seed gives a different schedule.
        let mut c = ResilientClient::connect_tcp(
            "127.0.0.1:1",
            ClientConfig::new()
                .backoff(Duration::from_millis(2), Duration::from_millis(50))
                .jitter_seed(100),
        )
        .unwrap();
        let dc: Vec<Duration> = (0..10).map(|k| c.backoff_delay(k)).collect();
        assert_ne!(da, dc);
    }

    #[test]
    fn loopback_queries_appends_and_typed_errors() {
        let service = Arc::new(ZigzagService::new());
        let run = fig_run();
        let events: Vec<_> = RunCursor::new(&run).collect();
        let id = service.open_stream(run.context_arc(), run.horizon(), SessionConfig::new());

        let server = NetServer::bind_tcp(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetConfig::new().workers(2),
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = ResilientClient::connect_tcp(addr, fast_config()).unwrap();

        // Appends are exactly-once and report the running count.
        assert_eq!(client.event_count(id).unwrap(), 0);
        for (k, ev) in events.iter().enumerate() {
            assert_eq!(client.append(id, ev).unwrap(), k as u64 + 1);
        }

        // A knowledge query answers byte-identically to the in-process
        // dispatch on the same session.
        let net = run.context().network();
        let c = net.process_by_name("C").unwrap();
        let a = net.process_by_name("A").unwrap();
        let bb = net.process_by_name("B").unwrap();
        let sigma_c = run.external_receipt_node(c, "go").unwrap();
        let theta_a = GeneralNode::chain(sigma_c, &[a]).unwrap();
        let theta_b = GeneralNode::chain(sigma_c, &[bb]).unwrap();
        let q = Query::MaxX {
            sigma: theta_b.resolve(&run).unwrap(),
            theta1: theta_a,
            theta2: theta_b,
        };
        assert_eq!(
            client.query(id, &q).unwrap(),
            service.dispatch(id, &q).unwrap()
        );

        // Server-side errors arrive typed, not as transport failures.
        let missing = SessionId::from_raw(9999);
        let err = client.query(missing, &Query::EventCount).unwrap_err();
        assert_eq!(err, Error::UnknownSession { id: missing });

        // With the server gone, the retry budget drains into a typed,
        // retryable transport error — never a hang.
        server.shutdown();
        let err = client.query(id, &Query::EventCount).unwrap_err();
        assert!(matches!(err, Error::Transport { .. }), "got {err}");
        assert!(err.is_retryable());
    }

    #[cfg(unix)]
    fn socket_path(tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "zigzag-client-test-{}-{tag}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Each request is one envelope in one `write`, so the server's
    /// reader takes every frame in one `read`: N sequential queries add
    /// exactly N frames and N reads to its counters. A header written
    /// apart from its document would now and then wake the reader on
    /// the bare header and cost it a second read.
    #[cfg(unix)]
    #[test]
    fn sequential_queries_cost_the_server_one_read_each() {
        const N: u64 = 5000;
        let service = Arc::new(ZigzagService::new());
        let id = service.open_batch(fig_run(), SessionConfig::new());
        let path = socket_path("one-read");
        let server =
            NetServer::bind_unix(&path, Arc::clone(&service), NetConfig::new().workers(1)).unwrap();
        // The reader bills a read as it starts, so once it blocks for the
        // next frame the counters hold still.
        let settled = |reads: u64| {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while server.transport().read_syscalls < reads && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(20));
            server.transport()
        };
        let mut client = ResilientClient::connect_unix(&path, fast_config());
        // The first query connects; the reader then blocks in its second
        // read.
        let events = client.event_count(id).unwrap();
        let before = settled(2);
        assert_eq!((before.frames_in, before.read_syscalls), (1, 2));
        for _ in 0..N {
            assert_eq!(client.event_count(id).unwrap(), events);
        }
        let after = settled(before.read_syscalls + N);
        assert_eq!(after.frames_in - before.frames_in, N);
        assert_eq!(after.read_syscalls - before.read_syscalls, N);
        drop(client);
        server.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    /// Bytes after the one expected reply desynchronize the stream: the
    /// exchange fails as a transport error and the next request
    /// reconnects.
    #[cfg(unix)]
    #[test]
    fn bytes_after_the_reply_discard_the_connection() {
        use crate::net::read_envelope;
        use std::os::unix::net::UnixListener;

        let path = socket_path("trailing");
        let listener = UnixListener::bind(&path).unwrap();
        let server = std::thread::spawn(move || {
            let reply = wire::encode_response(&Response::EventCount(3));
            for extra in [true, false] {
                let (mut conn, _) = listener.accept().unwrap();
                read_envelope(&mut conn, 1 << 20).unwrap().unwrap();
                let mut out = Vec::new();
                encode_envelope_into(&mut out, &reply).unwrap();
                if extra {
                    encode_envelope_into(&mut out, &reply).unwrap();
                }
                conn.write_all(&out).unwrap();
                // Hold the connection until the client drops it.
                assert!(read_envelope(&mut conn, 1 << 20).unwrap().is_none());
            }
        });
        let mut client = ResilientClient::connect_unix(&path, fast_config().max_retries(0));
        let id = SessionId::from_raw(0);
        let err = client.event_count(id).unwrap_err();
        assert!(
            matches!(&err, Error::Transport { detail } if detail.contains("after the reply")),
            "got {err}"
        );
        assert_eq!(client.event_count(id).unwrap(), 3);
        drop(client);
        server.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    /// A `Recover` whose answer is lost is not resent: the lost sweep
    /// attached the session, and a resent one would answer without it.
    #[test]
    fn a_recover_whose_answer_is_lost_is_not_resent() {
        use crate::fault::{FaultPlan, FaultRates};
        use crate::store::{SessionStore, StoreConfig};
        use crate::supervisor::SessionSupervisor;

        let dir =
            std::env::temp_dir().join(format!("zigzag-client-test-{}-recover", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = fig_run();
        let service = Arc::new(ZigzagService::new());
        let store = Arc::new(SessionStore::open(&dir, StoreConfig::new()).unwrap());
        let (_sup, swept) = SessionSupervisor::bind(Arc::clone(&service), store).unwrap();
        assert!(swept.is_empty());
        // A log another process left behind after the sweep at bind.
        {
            let other = ZigzagService::new();
            let id = SessionStore::open(&dir, StoreConfig::new())
                .unwrap()
                .open_stream(
                    &other,
                    "feed",
                    run.context_arc(),
                    run.horizon(),
                    SessionConfig::new(),
                )
                .unwrap();
            for ev in RunCursor::new(&run) {
                other.append(id, &ev).unwrap();
            }
        }

        // The server's first write, the sweep's answer, is reset.
        let rates = FaultRates {
            write_reset: 1000,
            ..FaultRates::default()
        };
        let plan = Arc::new(FaultPlan::with_budget(1, rates, 1));
        let server = NetServer::bind_tcp(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetConfig::new().workers(2).faults(plan),
        )
        .unwrap();
        let mut client =
            ResilientClient::connect_tcp(server.local_addr().unwrap(), fast_config()).unwrap();
        let any = SessionId::from_raw(0);
        let err = client.recover(any).unwrap_err();
        assert!(matches!(err, Error::Transport { .. }), "got {err}");
        assert_eq!(service.session_count(), 1, "the lost sweep attached it");
        // The plan is spent, and nothing is left to attach.
        assert_eq!(client.recover(any).unwrap(), Vec::new());
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
