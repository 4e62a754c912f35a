//! The socket front end: a TCP / Unix-socket accept loop feeding the
//! [`crate::serve`] frame path through a syscall-lean, allocation-free
//! steady-state data path.
//!
//! [`crate::serve::serve`] answers a *batch* of frames in one call; a
//! [`NetServer`] serves the same frames off a stream transport, one
//! length-delimited envelope at a time, through the same per-frame code
//! path — so a socket client's responses are **byte-identical** to the
//! in-process loop's on the same frame sequence (pinned by
//! `tests/net.rs`).
//!
//! # Envelope
//!
//! Both directions carry `zigzag-frame v1` / `zigzag-response v1` /
//! `zigzag-error v2` documents in the length-delimited envelope
//! specified in [`crate::wire`]'s module docs: a 4-byte big-endian
//! length followed by that many bytes of UTF-8. [`write_envelope`] /
//! [`read_envelope`] are the one-at-a-time client halves;
//! [`encode_envelope_into`] + [`EnvelopeScanner`] are the batched,
//! buffer-reusing halves a pipelining client (and the server itself)
//! uses. An envelope whose declared length exceeds
//! [`NetConfig::max_frame_bytes`], or whose bytes are not UTF-8, is
//! answered with one `zigzag-error v2` envelope and the connection is
//! closed — the declared length is never trusted before the bound
//! check, so a hostile header cannot make the server allocate.
//!
//! # Architecture
//!
//! ```text
//! accept loop ──▶ per-connection reader ──▶ bounded worker queues ──▶ workers
//!                  │ (slurps large reads,                               │
//!                  │  scans frames, routes by shard)                    ▼
//!                  ▼                                       reply rail (ring of slots)
//!          per-connection writer ◀── coalesced batched writes ◀─────────┘
//! ```
//!
//! * **Syscall-lean reads** — each reader owns a reusable
//!   [`EnvelopeScanner`]: one `read` slurps up to 64 KiB and *every*
//!   complete envelope in the buffer is scanned out and routed before
//!   the next syscall, with frames split across arbitrary read
//!   boundaries reassembled in place. A pipelining client's N frames
//!   cost a handful of reads, not 2·N.
//! * **Coalesced writes** — worker answers land on a per-connection
//!   reply rail, a ring of answer slots indexed by arrival sequence;
//!   each writer wakeup pops *every* filled slot at the front and writes
//!   the answers as one batched envelope run with a single flush (one
//!   `write` per 256 KiB accumulated). `TCP_NODELAY` is set on accepted
//!   TCP sockets so batching never trades throughput for Nagle latency.
//! * **Allocation-free steady state** — frame and response documents
//!   live in pooled `String` buffers recycled reader → worker → writer
//!   → pool; a warm framed round-trip performs zero server-side heap
//!   allocations (pinned by `tests/netalloc.rs`).
//! * **Session affinity** — each frame is routed to the worker owning
//!   its session's shard (the same `shard % workers` rule as
//!   [`crate::serve`]), and each worker processes its queue in FIFO
//!   order, so one session's frames are answered in arrival order no
//!   matter how many connections or workers exist.
//! * **Backpressure** — worker queues are bounded
//!   ([`NetConfig::queue_capacity`]): a frame arriving at a full queue
//!   is rejected *immediately* with a deterministic
//!   [`Error::Overloaded`] document in its arrival slot. Each
//!   connection's outstanding answers are bounded too
//!   ([`NetConfig::max_inflight_frames`]): a client that pipelines
//!   frames without reading replies stalls its reader at the window —
//!   its own writes eventually block on the kernel buffers — instead of
//!   growing the reply rail. Nothing buffers without bound.
//! * **Ordering** — the reader issues every accepted frame the next
//!   slot on its connection's reply rail; the writer pops slots in
//!   exactly that order, so each connection reads its responses in the
//!   order it wrote its requests (rejections included).
//! * **Event-driven lifecycle** — readers and writers block in the
//!   kernel with no socket timeouts and never poll: a reader wakes only
//!   for bytes or end of stream, a writer only for answers. A writer
//!   shuts its socket down when its connection is done, so the client
//!   sees end of stream right after its last answer.
//! * **Graceful drain** — [`NetServer::shutdown`] stops accepting new
//!   connections and shuts every live socket down for reading: a
//!   blocked `read` wakes, still returns the bytes the kernel already
//!   holds, then reports end of stream. So every frame the server has
//!   received is answered, and a client that keeps sending cannot hold
//!   the drain open: a Unix socket refuses its later writes, and over
//!   TCP the reader stops the first time it finds no unread bytes.
//!   Every frame read off a socket gets exactly one response envelope.
//!   A connection that fails setup (e.g. the socket cannot be cloned)
//!   is answered with one deterministic error envelope and counted,
//!   never dropped silently. The drain is bounded as a whole
//!   ([`NetConfig::drain_timeout`]): connections still running at the
//!   deadline — a client that stopped reading its replies — are shut
//!   down both ways and their unsent answers dropped, instead of
//!   hanging the shutdown.
//! * **Observability** — per-worker queue depths are kept as atomic
//!   gauges and every reader/writer bumps the server's
//!   [`TransportStats`] (bytes and syscalls each way, frames per read,
//!   frames per writer flush); a [`crate::Query::Stats`] frame is
//!   answered with [`crate::ZigzagService::stats_with_net`], so the
//!   histogram, cache counters, queue depths and transport amortization
//!   are all readable *from the wire*.
//!
//! # Example
//!
//! ```no_run
//! use std::net::TcpStream;
//! use std::sync::Arc;
//! use zigzag_api::net::{read_envelope, write_envelope, NetConfig, NetServer};
//! use zigzag_api::{serve, Query, SessionId, ZigzagService};
//!
//! # fn main() -> std::io::Result<()> {
//! let service = Arc::new(ZigzagService::new());
//! let server = NetServer::bind_tcp("127.0.0.1:0", Arc::clone(&service), NetConfig::new())?;
//! let addr = server.local_addr().unwrap();
//!
//! let mut conn = TcpStream::connect(addr)?;
//! conn.set_nodelay(true)?; // mirror the server: no Nagle stall on small frames
//! let frame = serve::encode_frame(SessionId::from_raw(0), &Query::Stats);
//! write_envelope(&mut conn, &frame)?;
//! let answer = read_envelope(&mut conn, 1 << 20)?.unwrap();
//! println!("{answer}");
//!
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

pub use crate::config::NetConfig;
use crate::error::Error;
use crate::fault::{FaultPlan, NetFault};
use crate::serve;
use crate::service::ZigzagService;
use crate::stats::{TransportCounters, TransportStats};

/// Writes one length-delimited envelope: 4-byte big-endian length, then
/// the document bytes — the one-at-a-time client-side sending half of
/// the transport. A pipelining client batches instead: accumulate
/// several envelopes with [`encode_envelope_into`] and write the buffer
/// once.
///
/// # Errors
///
/// Fails on the underlying write, or if `doc` exceeds `u32::MAX` bytes.
pub fn write_envelope<W: Write>(w: &mut W, doc: &str) -> io::Result<()> {
    let len = u32::try_from(doc.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "document exceeds the u32 envelope length",
        )
    })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(doc.as_bytes())?;
    w.flush()
}

/// Appends one length-delimited envelope to `buf` — the batching form
/// of [`write_envelope`]: a client pipelining N frames encodes them all
/// into one buffer and pays one `write` syscall, the shape the server's
/// readers amortize best (see [`TransportCounters`]).
///
/// # Errors
///
/// Fails if `doc` exceeds `u32::MAX` bytes; `buf` is unchanged then.
pub fn encode_envelope_into(buf: &mut Vec<u8>, doc: &str) -> io::Result<()> {
    let len = u32::try_from(doc.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "document exceeds the u32 envelope length",
        )
    })?;
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(doc.as_bytes());
    Ok(())
}

/// Reads one length-delimited envelope, returning `None` on a clean EOF
/// at an envelope boundary — the one-at-a-time client-side receiving
/// half of the transport (allocating a `String` per envelope; a
/// pipelining client reads through a reusable [`EnvelopeScanner`]
/// instead). `max_len` bounds the accepted payload (the declared length
/// is checked before any allocation).
///
/// # Errors
///
/// Fails on the underlying read, on EOF mid-envelope, on a declared
/// length above `max_len`, or on non-UTF-8 payload bytes.
pub fn read_envelope<R: Read>(r: &mut R, max_len: usize) -> io::Result<Option<String>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            return if filled == 0 {
                Ok(None)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside an envelope header",
                ))
            };
        }
        filled += n;
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("envelope length {len} exceeds the {max_len}-byte bound"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "envelope is not UTF-8"))
}

/// Why an [`EnvelopeScanner`] refused the stream. Both are
/// unrecoverable for the connection: after either, the byte stream can
/// no longer be re-synchronized to an envelope boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanError {
    /// An envelope header declared `len` payload bytes against a
    /// `max`-byte bound. Raised *before* any buffer growth: a hostile
    /// header cannot make the scanner allocate.
    Oversized {
        /// The declared payload length.
        len: usize,
        /// The configured bound it exceeded.
        max: usize,
    },
    /// A complete envelope's payload is not valid UTF-8.
    NotUtf8,
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Oversized { len, max } => {
                write!(f, "envelope length {len} exceeds the {max}-byte bound")
            }
            ScanError::NotUtf8 => f.write_str("envelope is not UTF-8"),
        }
    }
}

impl std::error::Error for ScanError {}

impl From<ScanError> for io::Error {
    fn from(e: ScanError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// A reusable buffer that turns a byte stream into length-delimited
/// envelope documents without per-frame allocation: large reads are
/// slurped into a growable scratch buffer ([`EnvelopeScanner::fill_from`],
/// one syscall each) and complete frames are scanned out of it as
/// borrowed `&str` slices ([`EnvelopeScanner::next`]), with envelopes
/// split across arbitrary read boundaries reassembled in place. The
/// buffer grows to the high-water mark of `read_chunk + largest frame`
/// and is then reused forever — the steady state performs no heap
/// allocation (pinned by `tests/netalloc.rs`) and no copies beyond the
/// kernel's.
///
/// The server's per-connection readers run on this; it is public so
/// pipelining *clients* can read reply streams the same way (see the
/// README's pipelining example and `benches/net.rs`).
#[derive(Debug)]
pub struct EnvelopeScanner {
    /// Scratch storage; always fully initialized to its length.
    buf: Vec<u8>,
    /// First unconsumed byte.
    start: usize,
    /// One past the last filled byte.
    end: usize,
    /// Largest accepted payload; checked before any growth.
    max_frame: usize,
    /// Spare room each fill guarantees — the per-syscall slurp size.
    chunk: usize,
}

impl EnvelopeScanner {
    /// A scanner accepting payloads up to `max_frame_bytes`, slurping
    /// up to 64 KiB per fill.
    pub fn new(max_frame_bytes: usize) -> Self {
        EnvelopeScanner::with_chunk(max_frame_bytes, READ_CHUNK_BYTES)
    }

    /// A scanner with an explicit per-fill slurp size (clamped to at
    /// least 16 bytes). Nothing is allocated until the first fill.
    pub fn with_chunk(max_frame_bytes: usize, read_chunk_bytes: usize) -> Self {
        EnvelopeScanner {
            buf: Vec::new(),
            start: 0,
            end: 0,
            max_frame: max_frame_bytes,
            chunk: read_chunk_bytes.max(16),
        }
    }

    /// Whether the scanner holds no bytes at all — i.e. the stream is
    /// at an envelope boundary and an EOF now would be clean.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Bytes buffered but not yet scanned out (a nonzero value at EOF
    /// means the peer truncated mid-envelope).
    pub fn pending_bytes(&self) -> usize {
        self.end - self.start
    }

    /// Current scratch-buffer size, in bytes — exposed so tests can pin
    /// that hostile headers are rejected *before* any growth.
    pub fn buffer_bytes(&self) -> usize {
        self.buf.len()
    }

    /// The declared payload length at the front of the buffer, if a
    /// complete header is available.
    fn declared_len(&self) -> Option<usize> {
        if self.pending_bytes() < 4 {
            return None;
        }
        let header: [u8; 4] = self.buf[self.start..self.start + 4]
            .try_into()
            .expect("4 pending bytes");
        Some(u32::from_be_bytes(header) as usize)
    }

    /// Classifies the buffered bytes without handing out a borrow:
    /// `Ok(true)` iff [`EnvelopeScanner::next`] would yield a frame (or
    /// a UTF-8 refusal) right now.
    fn frame_buffered(&self) -> Result<bool, ScanError> {
        match self.declared_len() {
            None => Ok(false),
            Some(len) if len > self.max_frame => Err(ScanError::Oversized {
                len,
                max: self.max_frame,
            }),
            Some(len) => Ok(self.pending_bytes() - 4 >= len),
        }
    }

    /// Makes room for the next fill: at least `chunk` spare bytes, plus
    /// whatever a partially received frame still needs — compacting the
    /// consumed prefix away first, growing only to the high-water mark.
    /// Called only with no borrow outstanding, and only after the
    /// declared length (if visible) passed the bound check.
    fn make_room(&mut self) {
        let pending = self.end - self.start;
        // How much more the frame at the front still needs, beyond what
        // is already buffered (0 if no complete header yet).
        let frame_deficit = self
            .declared_len()
            .map_or(0, |len| (len + 4).saturating_sub(pending));
        let need = self.chunk.max(frame_deficit);
        if self.buf.len() - self.end >= need {
            return;
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end = pending;
            self.start = 0;
        }
        if self.buf.len() - self.end < need {
            self.buf.resize(self.end + need, 0);
        }
    }

    /// Performs **one** read into the buffer (growing it only as the
    /// validated frame at the front requires) and returns the byte
    /// count — `Ok(0)` is the peer's EOF. Every read-side error of `r`
    /// (including `WouldBlock` timeouts) is propagated untouched, so
    /// callers keep their own retry/shutdown policy.
    ///
    /// # Errors
    ///
    /// Whatever `r.read` fails with.
    pub fn fill_from<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        // A hostile declared length must be refused by `next` before
        // the buffer grows toward it; never make room for one.
        if !matches!(self.declared_len(), Some(len) if len > self.max_frame) {
            self.make_room();
        }
        if self.buf.len() == self.end {
            // Oversized frame pending refusal: read nothing for it.
            return Ok(0);
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Scans the next complete envelope out of the buffer as a borrowed
    /// document slice (valid until the next scanner call), `Ok(None)`
    /// if more bytes are needed first.
    ///
    /// # Errors
    ///
    /// [`ScanError::Oversized`] if the frame at the front declares a
    /// payload above the bound — raised before any allocation — and
    /// [`ScanError::NotUtf8`] if a complete payload is not UTF-8.
    // Not `Iterator`: each item borrows the scanner's buffer (a lending
    // iterator), which the trait's `next` signature cannot express.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<&str>, ScanError> {
        if !self.frame_buffered()? {
            return Ok(None);
        }
        let len = self.declared_len().expect("frame_buffered saw a header");
        let doc_start = self.start + 4;
        self.start = doc_start + len;
        match std::str::from_utf8(&self.buf[doc_start..doc_start + len]) {
            Ok(doc) => Ok(Some(doc)),
            Err(_) => Err(ScanError::NotUtf8),
        }
    }

    /// Blocking client-side receive: fills from `r` until one complete
    /// envelope is buffered and returns it borrowed; `Ok(None)` on a
    /// clean EOF at an envelope boundary.
    ///
    /// # Errors
    ///
    /// Fails on the underlying read, on EOF mid-envelope, and on
    /// oversized or non-UTF-8 envelopes (as [`io::ErrorKind::InvalidData`]).
    pub fn recv<R: Read>(&mut self, r: &mut R) -> io::Result<Option<&str>> {
        loop {
            if self.frame_buffered()? {
                break;
            }
            let n = self.fill_from(r)?;
            if n == 0 {
                return if self.is_empty() {
                    Ok(None)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "EOF inside an envelope",
                    ))
                };
            }
        }
        match self.next()? {
            Some(doc) => Ok(Some(doc)),
            None => Err(io::Error::other("scanner lost a buffered frame")),
        }
    }
}

/// One accepted frame on its way to a worker. The document buffer is
/// pooled: it came from the server's [`BufPool`] and the worker returns
/// it there after decoding.
struct Job {
    frame: String,
    /// Its slot on the connection's reply rail: its arrival position.
    seq: u64,
    /// The connection's reply rail.
    rail: Arc<ReplyRail>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").field("seq", &self.seq).finish()
    }
}

/// A shared pool of recycled `String` buffers: frame documents travel
/// reader → worker → pool, response documents worker → writer → pool,
/// so the steady state allocates nothing. Bounded so a burst cannot pin
/// memory forever.
#[derive(Debug, Default)]
struct BufPool {
    bufs: Mutex<Vec<String>>,
}

/// Most buffers the pool retains; beyond this, returned buffers are
/// simply dropped (in-flight count is transient burst state).
const MAX_POOLED_BUFS: usize = 1024;

/// Spare room each connection reader keeps in its scan buffer — the most
/// one `read` syscall can slurp. Larger chunks amortize more pipelined
/// frames per syscall at the cost of per-connection memory.
const READ_CHUNK_BYTES: usize = 64 << 10;

/// Soft bound on one coalesced write: a writer flushing a batch of
/// replies issues a `write` whenever this many bytes have accumulated,
/// then keeps batching.
const WRITE_COALESCE_BYTES: usize = 256 << 10;

impl BufPool {
    /// An empty (cleared, capacity-retaining) buffer.
    fn get(&self) -> String {
        self.bufs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default()
    }

    fn put(&self, mut s: String) {
        s.clear();
        let mut bufs = self.bufs.lock().unwrap_or_else(PoisonError::into_inner);
        if bufs.len() < MAX_POOLED_BUFS {
            bufs.push(s);
        }
    }
}

/// The per-connection reply rail: a ring of answer slots indexed by
/// sequence number. The reader issues a slot per accepted frame
/// ([`ReplyRail::issue`]), a worker or a rejection fills it
/// ([`ReplyRail::fill`]), and the writer pops the filled prefix — every
/// answer that is ready in arrival order, the unit of write coalescing
/// ([`ReplyRail::pop_ready`]). Allocation-free when warm.
struct ReplyRail {
    inner: Mutex<RailInner>,
    /// Signalled when the front slot is filled or the rail closes — what
    /// the writer waits for.
    ready: Condvar,
    /// Signalled when the writer pops slots — what a reader blocked on
    /// the in-flight window waits for.
    released: Condvar,
}

struct RailInner {
    /// Issued slots not yet popped: `slots[i]` answers sequence number
    /// `next + i`.
    slots: VecDeque<Option<String>>,
    /// The sequence number of the front slot.
    next: u64,
    /// The reader is done issuing slots.
    closed: bool,
}

impl ReplyRail {
    fn new() -> Self {
        ReplyRail {
            inner: Mutex::new(RailInner {
                slots: VecDeque::new(),
                next: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            released: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RailInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Issues the next slot and returns its sequence number, first
    /// blocking while `window` slots are outstanding — the reader's
    /// backpressure gate. A client that pipelines frames without reading
    /// its replies stalls its reader here (so its own writes eventually
    /// block on the kernel buffers) instead of growing the ring without
    /// bound.
    fn issue(&self, window: usize) -> u64 {
        let mut inner = self.lock();
        while inner.slots.len() >= window {
            inner = self
                .released
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        inner.slots.push_back(None);
        inner.next + inner.slots.len() as u64 - 1
    }

    /// Fills slot `seq` with its answer (exactly once per issued slot —
    /// the drain guarantee's bookkeeping). The writer is woken only when
    /// this is the front slot it is blocked on: a later slot cannot
    /// unblock it, and skipping the wake keeps in-order bursts from
    /// paying one futex syscall per reply.
    fn fill(&self, seq: u64, doc: String) {
        let mut inner = self.lock();
        let at = (seq - inner.next) as usize;
        inner.slots[at] = Some(doc);
        drop(inner);
        if at == 0 {
            self.ready.notify_one();
        }
    }

    /// The reader is done issuing slots. Once every issued slot has been
    /// popped the writer exits.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_one();
    }

    /// Blocks until the front slot is filled, then moves **all** answers
    /// of the filled prefix into `batch` (cleared first is the caller's
    /// job). Returns `false` — without touching `batch` — once the rail
    /// is closed and every issued slot has been popped.
    fn pop_ready(&self, batch: &mut Vec<String>) -> bool {
        let mut inner = self.lock();
        loop {
            while let Some(doc) = inner.slots.front_mut().and_then(Option::take) {
                inner.slots.pop_front();
                inner.next += 1;
                batch.push(doc);
            }
            if !batch.is_empty() {
                // Slots were popped: a reader stalled on the in-flight
                // window may now have room.
                self.released.notify_one();
                return true;
            }
            if inner.closed && inner.slots.is_empty() {
                return false;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Either stream transport, behind one read/write surface — the
/// server's connections and [`crate::ResilientClient`]'s.
#[derive(Debug)]
pub(crate) enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    pub(crate) fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(d),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(d),
        }
    }

    /// Disables Nagle on TCP so coalesced writes leave immediately;
    /// Unix sockets have no Nagle and accept trivially.
    pub(crate) fn set_nodelay(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nodelay(true),
            #[cfg(unix)]
            Conn::Unix(_) => Ok(()),
        }
    }

    /// Shuts the socket down — every handle on it, clones included. For
    /// reading: a blocked `read` wakes, returns the bytes the kernel
    /// already holds, then `Ok(0)`. Both ways: additionally the client
    /// observes end of stream and a blocked `write` fails.
    fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(how),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(how),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A [`Conn`] half that bills every `read`/`write` call and its byte
/// count to the server's [`TransportStats`] — the source of the
/// syscalls-per-frame ratios [`crate::Query::Stats`] reports. Error
/// returns still count the call (they were syscalls).
///
/// This is also the chaos seam: when a [`FaultPlan`] is armed
/// ([`NetConfig::faults`]), each call first consults the plan — a
/// `Short` fault caps the operation at one byte (a legal partial I/O
/// every caller must already tolerate), a `Reset` returns an injected
/// `ConnectionReset` without touching the socket, and a `Delay` sleeps
/// before proceeding. Injected resets are *not* billed as syscalls
/// (they never reached the kernel). Disarmed, the hook is one
/// never-taken branch per call.
struct CountedConn {
    conn: Conn,
    stats: Arc<TransportStats>,
    faults: Option<Arc<FaultPlan>>,
}

impl Read for CountedConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut buf = buf;
        if let Some(plan) = &self.faults {
            match plan.on_net_read() {
                NetFault::None => {}
                NetFault::Short => {
                    if !buf.is_empty() {
                        buf = &mut buf[..1];
                    }
                }
                NetFault::Reset => return Err(FaultPlan::reset_error()),
                NetFault::Delay(d) => std::thread::sleep(d),
            }
        }
        self.stats.read_syscalls.fetch_add(1, Ordering::Relaxed);
        let n = self.conn.read(buf)?;
        self.stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl Write for CountedConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut buf = buf;
        if let Some(plan) = &self.faults {
            match plan.on_net_write() {
                NetFault::None => {}
                NetFault::Short => {
                    if !buf.is_empty() {
                        buf = &buf[..1];
                    }
                }
                NetFault::Reset => return Err(FaultPlan::reset_error()),
                NetFault::Delay(d) => std::thread::sleep(d),
            }
        }
        self.stats.write_syscalls.fetch_add(1, Ordering::Relaxed);
        let n = self.conn.write(buf)?;
        self.stats.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.conn.flush()
    }
}

/// Either listening transport.
#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        Ok(match self {
            Listener::Tcp(l) => Conn::Tcp(l.accept()?.0),
            #[cfg(unix)]
            Listener::Unix(l) => Conn::Unix(l.accept()?.0),
        })
    }

    /// A second handle to the same underlying socket — kept by
    /// [`NetServer`] so `stop` can flip the listener nonblocking even
    /// though the accept loop owns this one.
    fn try_clone(&self) -> io::Result<Listener> {
        Ok(match self {
            Listener::Tcp(l) => Listener::Tcp(l.try_clone()?),
            #[cfg(unix)]
            Listener::Unix(l) => Listener::Unix(l.try_clone()?),
        })
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nb),
        }
    }
}

/// Routes one accepted frame into its owning worker's bounded queue, or
/// rejects it in place with a deterministic error document in its rail
/// slot. The gauge is raised before the send and lowered again on
/// rejection, so it never under-counts a queued frame; a rejected
/// frame's buffer goes straight back to the pool.
fn route_frame(
    service: &ZigzagService,
    txs: &[SyncSender<Job>],
    depths: &[AtomicUsize],
    pool: &BufPool,
    frame: String,
    seq: u64,
    rail: &Arc<ReplyRail>,
) {
    let worker = serve::owner_of(service, &frame, txs.len());
    depths[worker].fetch_add(1, Ordering::Relaxed);
    match txs[worker].try_send(Job {
        frame,
        seq,
        rail: Arc::clone(rail),
    }) {
        Ok(()) => {}
        Err(err) => {
            depths[worker].fetch_sub(1, Ordering::Relaxed);
            let (e, job) = match err {
                TrySendError::Full(job) => (Error::Overloaded { worker }, job),
                TrySendError::Disconnected(job) => (
                    Error::Internal {
                        detail: format!("worker {worker} queue closed"),
                    },
                    job,
                ),
            };
            pool.put(job.frame);
            rail.fill(seq, serve::encode_error(&e));
        }
    }
}

/// The per-connection reader: slurps large reads into its
/// [`EnvelopeScanner`] and routes every complete frame in the buffer,
/// each in the next rail slot, before the next syscall. It blocks in
/// `read` until bytes or end of stream arrive — a shut-down socket
/// reports the latter once the bytes already received are read — then
/// closes the rail so the writer can drain.
fn reader_loop(
    mut conn: CountedConn,
    service: Arc<ZigzagService>,
    txs: Vec<SyncSender<Job>>,
    depths: Arc<Vec<AtomicUsize>>,
    config: NetConfig,
    rail: Arc<ReplyRail>,
    pool: Arc<BufPool>,
) {
    let stats = Arc::clone(&conn.stats);
    let mut scanner = EnvelopeScanner::new(config.max_frame_bytes);
    let window = config.max_inflight_frames.max(1);
    'serve: loop {
        // Drain every complete envelope already buffered before paying
        // for another syscall — the read-side amortization.
        loop {
            match scanner.next() {
                Ok(Some(frame)) => {
                    // Backpressure: never hold more than the in-flight
                    // window of answers for a client that is not
                    // reading them — the writer's progress (the
                    // client's reads) releases room.
                    let seq = rail.issue(window);
                    stats.frames_in.fetch_add(1, Ordering::Relaxed);
                    let mut owned = pool.get();
                    owned.push_str(frame);
                    route_frame(&service, &txs, &depths, &pool, owned, seq, &rail);
                }
                Ok(None) => break,
                Err(e) => {
                    // Unrecoverable stream: one deterministic error
                    // envelope in this frame's arrival slot, then close.
                    let err = Error::Wire {
                        line: 0,
                        detail: match e {
                            ScanError::Oversized { len, max } => format!(
                                "frame envelope of {len} bytes exceeds the {max}-byte bound"
                            ),
                            ScanError::NotUtf8 => "frame envelope is not valid UTF-8".into(),
                        },
                    };
                    rail.fill(rail.issue(window), serve::encode_error(&err));
                    break 'serve;
                }
            }
        }
        match scanner.fill_from(&mut conn) {
            // EOF: clean at a boundary; mid-envelope the partial frame
            // was never fully received, so it was never accepted.
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    rail.close();
}

/// The per-connection writer: per rail wakeup, writes **every** answer
/// that is ready in arrival order ([`write_batch`]). A write failure or
/// an unframeable (>4 GiB) document breaks the connection: the stream
/// can no longer be kept in sync, so the socket is shut down both ways —
/// the client observes EOF instead of waiting forever for replies that
/// will never arrive, and this connection's reader unblocks with `Ok(0)`
/// and exits. The rail is still drained (its reader may be waiting on
/// the in-flight window) but nothing more is written. When the rail is
/// done the writer shuts the socket down too, so the client sees end of
/// stream after its last answer even though [`NetServer`] still holds a
/// handle on the socket. It holds `_done` until it returns: that is how
/// [`NetServer`]'s drain waits for it.
fn writer_loop(mut conn: CountedConn, rail: Arc<ReplyRail>, pool: Arc<BufPool>, _done: Sender<()>) {
    let mut batch: Vec<String> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    let mut broken = false;
    while rail.pop_ready(&mut batch) {
        if broken {
            batch.drain(..).for_each(|doc| pool.put(doc));
        } else if write_batch(&mut conn, &mut batch, &mut out, &pool).is_err() {
            broken = true;
            let _ = conn.conn.shutdown(Shutdown::Both);
        }
    }
    let _ = conn.conn.shutdown(Shutdown::Both);
}

/// Writes `batch` as one run of envelopes — one coalesced `write` per
/// `WRITE_COALESCE_BYTES` accumulated in `out`, one flush — leaving
/// `batch` empty. Each document buffer is recycled the moment its bytes
/// are copied into `out`, *before* they reach the socket: once the
/// client reads an answer it may immediately send its next frame, and
/// the reader and worker must find warm buffers in the pool rather than
/// racing this thread for the return.
///
/// # Errors
///
/// Fails on a write or flush error, or on a document too large to frame
/// (whose bytes and those after it are then never written).
fn write_batch(
    conn: &mut CountedConn,
    batch: &mut Vec<String>,
    out: &mut Vec<u8>,
    pool: &BufPool,
) -> io::Result<()> {
    out.clear();
    for doc in batch.drain(..) {
        let framed = encode_envelope_into(out, &doc);
        pool.put(doc);
        framed?;
        // Counted *before* the bytes can reach the client, so any
        // counter snapshot taken after reading a reply already includes
        // that reply.
        conn.stats.frames_out.fetch_add(1, Ordering::Relaxed);
        if out.len() >= WRITE_COALESCE_BYTES {
            conn.write_all(out)?;
            out.clear();
        }
    }
    // Same ordering rule as the per-reply count above.
    conn.stats.writer_flushes.fetch_add(1, Ordering::Relaxed);
    conn.write_all(out)?;
    conn.flush()
}

/// Sets `TCP_NODELAY` and clones the socket twice: the writer's half,
/// and the handle [`NetServer`] keeps to shut the connection down. Any
/// failure aborts setup — the caller then refuses the connection loudly
/// instead of dropping it.
fn prepare_connection(conn: &Conn) -> io::Result<(Conn, Conn)> {
    conn.set_nodelay()?;
    Ok((conn.try_clone()?, conn.try_clone()?))
}

/// Answers a connection that failed setup with one deterministic error
/// envelope (best-effort — the socket may be the broken part) and
/// counts it, so a failed `try_clone` is observable instead of a
/// silently vanished connection.
fn refuse_connection<W: Write>(conn: &mut W, stats: &TransportStats) {
    stats.conn_failures.fetch_add(1, Ordering::Relaxed);
    let doc = serve::encode_error(&Error::Internal {
        detail: "connection setup failed; closing before serving any frame".into(),
    });
    let _ = write_envelope(conn, &doc);
}

/// One live connection as [`NetServer`] tracks it: a handle on its
/// socket, which shutdown closes for reading, and its two threads.
#[derive(Debug)]
struct Connection {
    socket: Conn,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

/// The accept loop: **blocking** accepts — a fresh connection is served
/// the instant the kernel hands it over, with no poll-interval latency
/// in the connection path. [`NetServer::stop`] unblocks the loop by
/// flipping the shutdown flag and making one throwaway connection to
/// the listener itself; the loop drops any connection accepted after
/// the flag (including that dummy) and exits. Each writer holds a clone
/// of `done`, so the channel disconnects once every connection is done.
#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: Listener,
    service: Arc<ZigzagService>,
    txs: Vec<SyncSender<Job>>,
    depths: Arc<Vec<AtomicUsize>>,
    config: NetConfig,
    shutdown: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<Connection>>>,
    pool: Arc<BufPool>,
    stats: Arc<TransportStats>,
    done: Sender<()>,
) {
    loop {
        match listener.accept() {
            Ok(_) | Err(_) if shutdown.load(Ordering::Relaxed) => break,
            Ok(mut conn) => {
                let (writer_conn, socket) = match prepare_connection(&conn) {
                    Ok(halves) => halves,
                    Err(_) => {
                        refuse_connection(&mut conn, &stats);
                        continue;
                    }
                };
                stats.connections.fetch_add(1, Ordering::Relaxed);
                let rail = Arc::new(ReplyRail::new());
                let writer = {
                    let conn = CountedConn {
                        conn: writer_conn,
                        stats: Arc::clone(&stats),
                        faults: config.faults.clone(),
                    };
                    let rail = Arc::clone(&rail);
                    let pool = Arc::clone(&pool);
                    let done = done.clone();
                    std::thread::spawn(move || writer_loop(conn, rail, pool, done))
                };
                let reader = {
                    let conn = CountedConn {
                        conn,
                        stats: Arc::clone(&stats),
                        faults: config.faults.clone(),
                    };
                    let service = Arc::clone(&service);
                    let txs = txs.clone();
                    let depths = Arc::clone(&depths);
                    let config = config.clone();
                    let pool = Arc::clone(&pool);
                    std::thread::spawn(move || {
                        reader_loop(conn, service, txs, depths, config, rail, pool)
                    })
                };
                let mut live = conns.lock().unwrap_or_else(PoisonError::into_inner);
                // Reap connections that already finished so the vector
                // tracks *live* connections, not total churn.
                live.retain(|c| !(c.reader.is_finished() && c.writer.is_finished()));
                live.push(Connection {
                    socket,
                    reader,
                    writer,
                });
            }
            // Transient accept failures (EINTR, a connection aborted in
            // the backlog); a brief pause avoids a hot error loop.
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// A running socket server over a [`ZigzagService`]; see the
/// [module docs](self) for the protocol and serving guarantees.
///
/// Dropping the server performs the same graceful drain as
/// [`NetServer::shutdown`].
#[derive(Debug)]
pub struct NetServer {
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<Connection>>>,
    /// Disconnects once the accept loop and every connection's writer
    /// are done; nothing is ever sent on it.
    done: Receiver<()>,
    drain_timeout: Option<Duration>,
    workers: Vec<JoinHandle<()>>,
    worker_txs: Vec<SyncSender<Job>>,
    transport: Arc<TransportStats>,
    /// A clone of the listening socket, kept so `stop` can flip it
    /// nonblocking — the wake path that does not depend on the host
    /// being able to connect to its own bind address.
    wake: Option<Listener>,
    tcp_addr: Option<SocketAddr>,
    #[cfg(unix)]
    unix_path: Option<PathBuf>,
}

impl NetServer {
    /// Binds a TCP listener (use port 0 for an ephemeral port, then
    /// [`NetServer::local_addr`]) and starts serving `service`.
    /// Accepted sockets get `TCP_NODELAY`; clients should set it too
    /// (see the module example).
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound or the threads cannot spawn.
    pub fn bind_tcp<A: ToSocketAddrs>(
        addr: A,
        service: Arc<ZigzagService>,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let mut server = NetServer::start(Listener::Tcp(listener), service, config)?;
        server.tcp_addr = Some(local);
        Ok(server)
    }

    /// Binds a Unix-domain socket at `path` (which must not already
    /// exist; it is unlinked again on shutdown) and starts serving
    /// `service`.
    ///
    /// # Errors
    ///
    /// Fails if the socket cannot be bound or the threads cannot spawn.
    #[cfg(unix)]
    pub fn bind_unix<P: AsRef<Path>>(
        path: P,
        service: Arc<ZigzagService>,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        let path = path.as_ref().to_path_buf();
        let listener = UnixListener::bind(&path)?;
        let mut server = NetServer::start(Listener::Unix(listener), service, config)?;
        server.unix_path = Some(path);
        Ok(server)
    }

    fn start(
        listener: Listener,
        service: Arc<ZigzagService>,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        let worker_count = config.workers.max(1);
        let capacity = config.queue_capacity.max(1);
        let depths: Arc<Vec<AtomicUsize>> =
            Arc::new((0..worker_count).map(|_| AtomicUsize::new(0)).collect());
        let shutdown = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(BufPool::default());
        let transport = Arc::new(TransportStats::new());
        let mut worker_txs = Vec::with_capacity(worker_count);
        let mut workers = Vec::with_capacity(worker_count);
        for w in 0..worker_count {
            let (tx, rx) = mpsc::sync_channel::<Job>(capacity);
            worker_txs.push(tx);
            let service = Arc::clone(&service);
            let depths = Arc::clone(&depths);
            let pool = Arc::clone(&pool);
            let transport = Arc::clone(&transport);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("zigzag-net-worker-{w}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            depths[w].fetch_sub(1, Ordering::Relaxed);
                            let mut out = pool.get();
                            serve::respond_into(
                                &service,
                                &job.frame,
                                Some(&serve::NetView {
                                    queues: &depths,
                                    transport: &transport,
                                }),
                                &mut out,
                            );
                            pool.put(job.frame);
                            job.rail.fill(job.seq, out);
                        }
                    })?,
            );
        }
        let conns = Arc::new(Mutex::new(Vec::new()));
        let wake = listener.try_clone().ok();
        let drain_timeout = config.drain_timeout;
        let (done_tx, done) = mpsc::channel();
        let accept = {
            let service = Arc::clone(&service);
            let txs = worker_txs.clone();
            let depths = Arc::clone(&depths);
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            let pool = Arc::clone(&pool);
            let stats = Arc::clone(&transport);
            std::thread::Builder::new()
                .name("zigzag-net-accept".into())
                .spawn(move || {
                    accept_loop(
                        listener, service, txs, depths, config, shutdown, conns, pool, stats,
                        done_tx,
                    )
                })?
        };
        Ok(NetServer {
            shutdown,
            accept: Some(accept),
            conns,
            done,
            drain_timeout,
            workers,
            worker_txs,
            transport,
            wake,
            tcp_addr: None,
            #[cfg(unix)]
            unix_path: None,
        })
    }

    /// The bound TCP address (`None` for Unix-socket servers).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// A point-in-time snapshot of the server's transport counters —
    /// the same numbers a wire [`crate::Query::Stats`] frame reports.
    pub fn transport(&self) -> TransportCounters {
        self.transport.snapshot()
    }

    /// Gracefully drains and stops the server: no new connections are
    /// accepted, every live socket is shut down for reading, every frame
    /// the server received is answered, worker queues are drained, all
    /// threads are joined, and (for Unix servers) the socket file is
    /// unlinked. A client that keeps sending cannot hold the drain open:
    /// on a Unix socket its writes fail after the read shutdown, and over
    /// TCP, where the kernel still takes its bytes, the reader stops the
    /// first time it finds none unread — so a TCP client holds the drain
    /// only while it keeps that queue from ever emptying, and at most
    /// until the deadline below.
    ///
    /// Delivery blocks on the clients, but only up to
    /// [`NetConfig::drain_timeout`], a bound on the whole drain: a
    /// connection whose client stops reading holds its pending answers
    /// in the socket buffer, and the drain waits until they fit, the
    /// client goes away, or the deadline passes — after which the
    /// connections still running are shut down both ways and their
    /// unsent answers dropped. With `drain_timeout: None` the drain
    /// waits forever.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Makes one best-effort throwaway connection to the listener to
    /// pop the accept loop out of its blocking `accept`. Wildcard binds
    /// (`0.0.0.0` / `::`) are not connectable addresses on every
    /// platform, so those aim at the loopback of the same family.
    fn wake_accept(&self) {
        if let Some(addr) = self.tcp_addr {
            let target = if addr.ip().is_unspecified() {
                let ip = if addr.is_ipv4() {
                    IpAddr::V4(Ipv4Addr::LOCALHOST)
                } else {
                    IpAddr::V6(Ipv6Addr::LOCALHOST)
                };
                SocketAddr::new(ip, addr.port())
            } else {
                addr
            };
            let _ = TcpStream::connect_timeout(&target, Duration::from_millis(100));
        }
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            let _ = UnixStream::connect(path);
        }
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            // The accept loop blocks in the kernel. Flip the listener
            // nonblocking first so any accept it *enters from now on*
            // returns immediately, then pop it out of the accept it may
            // already be parked in with a throwaway connection —
            // retrying on a short cadence until the thread exits, so
            // one failed wake connect degrades into a brief poll loop,
            // never a hung join.
            if let Some(wake) = &self.wake {
                let _ = wake.set_nonblocking(true);
            }
            loop {
                self.wake_accept();
                if h.is_finished() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
                if h.is_finished() {
                    break;
                }
            }
            let _ = h.join();
        }
        // Readers read what the kernel already holds, then see end of
        // stream; writers exit once every answer for their connection
        // has been delivered.
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for c in &conns {
            let _ = c.socket.shutdown(Shutdown::Read);
        }
        // Nothing is ever sent on `done`: both waits end when the last
        // writer drops its sender, or at the deadline.
        let _ = match self.drain_timeout {
            None => self.done.recv().ok(),
            Some(limit) => self.done.recv_timeout(limit).ok(),
        };
        // Past the deadline, a writer blocked on a client that stopped
        // reading fails its write and drains its rail unwritten.
        for c in conns {
            let _ = c.socket.shutdown(Shutdown::Both);
            let _ = c.reader.join();
            let _ = c.writer.join();
        }
        // With every reader gone, dropping the senders lets each worker
        // drain whatever is still queued and exit.
        self.worker_txs.clear();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        #[cfg(unix)]
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelopes_round_trip_and_reject_hostile_lengths() {
        let mut buf = Vec::new();
        write_envelope(&mut buf, "hello\nworld\n").unwrap();
        assert_eq!(&buf[..4], &12u32.to_be_bytes());
        let mut r = io::Cursor::new(buf.clone());
        assert_eq!(
            read_envelope(&mut r, 1 << 10).unwrap().unwrap(),
            "hello\nworld\n"
        );
        // Clean EOF at a boundary is None, not an error.
        assert!(read_envelope(&mut r, 1 << 10).unwrap().is_none());
        // The batching encoder writes the same bytes as write_envelope.
        let mut batched = Vec::new();
        encode_envelope_into(&mut batched, "hello\nworld\n").unwrap();
        assert_eq!(batched, buf);

        // A declared length above the bound fails before allocation.
        let hostile = u32::MAX.to_be_bytes().to_vec();
        let err = read_envelope(&mut io::Cursor::new(hostile), 1 << 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Truncated header and truncated payload both fail loudly.
        let err = read_envelope(&mut io::Cursor::new(vec![0u8, 0]), 1 << 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let mut truncated = 8u32.to_be_bytes().to_vec();
        truncated.extend_from_slice(b"abc");
        assert!(read_envelope(&mut io::Cursor::new(truncated), 1 << 10).is_err());
        // Non-UTF-8 payloads are refused.
        let mut bad = 2u32.to_be_bytes().to_vec();
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert!(read_envelope(&mut io::Cursor::new(bad), 1 << 10).is_err());
    }

    #[test]
    fn scanner_matches_read_envelope_on_a_pipelined_stream() {
        let docs = ["first\n", "second frame\n", "", "third\nwith\nlines\n"];
        let mut bytes = Vec::new();
        for d in docs {
            encode_envelope_into(&mut bytes, d).unwrap();
        }
        let mut scanner = EnvelopeScanner::new(1 << 10);
        let mut r = io::Cursor::new(bytes);
        for d in docs {
            assert_eq!(scanner.recv(&mut r).unwrap(), Some(d));
        }
        assert_eq!(scanner.recv(&mut r).unwrap(), None);
        assert!(scanner.is_empty());
    }

    #[test]
    fn scanner_rejects_oversized_headers_before_growing() {
        let mut scanner = EnvelopeScanner::with_chunk(1 << 10, 64);
        let mut r = io::Cursor::new(u32::MAX.to_be_bytes().to_vec());
        assert!(scanner.fill_from(&mut r).unwrap() > 0);
        let grown_for_header = scanner.buffer_bytes();
        assert!(
            grown_for_header <= 64,
            "header fill grew past the chunk: {grown_for_header}"
        );
        assert_eq!(
            scanner.next(),
            Err(ScanError::Oversized {
                len: u32::MAX as usize,
                max: 1 << 10,
            })
        );
        // Even an explicit refill attempt will not grow toward the
        // hostile length.
        let _ = scanner.fill_from(&mut r);
        assert_eq!(scanner.buffer_bytes(), grown_for_header);
    }

    #[test]
    fn full_queues_reject_with_a_deterministic_overload_document() {
        // The real enqueue path against a capacity-1 queue nobody
        // drains: first frame queues, second is rejected in place.
        let service = ZigzagService::sharded(4);
        let (tx, _rx) = mpsc::sync_channel::<Job>(1);
        let txs = vec![tx];
        let depths = vec![AtomicUsize::new(0)];
        let pool = BufPool::default();
        let rail = Arc::new(ReplyRail::new());
        let frame = serve::encode_frame(
            crate::service::SessionId::from_raw(3),
            &crate::query::Query::CoordDecision,
        );
        let (first, second) = (rail.issue(2), rail.issue(2));
        route_frame(&service, &txs, &depths, &pool, frame.clone(), first, &rail);
        assert_eq!(depths[0].load(Ordering::Relaxed), 1);
        route_frame(&service, &txs, &depths, &pool, frame, second, &rail);
        assert_eq!(
            depths[0].load(Ordering::Relaxed),
            1,
            "rejected frame left in gauge"
        );
        // The rejected frame's answer sits in its arrival slot (seq 1);
        // seq 0 is still owed by the queued job, so nothing is ready.
        let inner = rail.lock();
        assert_eq!(inner.next, 0);
        assert_eq!(inner.slots.len(), 2);
        assert!(inner.slots[0].is_none());
        let doc = inner.slots[1].as_deref().unwrap();
        assert!(serve::is_error_document(doc));
        assert_eq!(doc, serve::encode_error(&Error::Overloaded { worker: 0 }));
    }

    #[test]
    fn refused_connections_answer_one_deterministic_envelope_and_count() {
        let stats = TransportStats::new();
        let mut sink = Vec::new();
        refuse_connection(&mut sink, &stats);
        assert_eq!(stats.conn_failures.load(Ordering::Relaxed), 1);
        let doc = read_envelope(&mut io::Cursor::new(sink), 1 << 16)
            .unwrap()
            .unwrap();
        assert!(serve::is_error_document(&doc), "{doc:?}");
        assert_eq!(
            doc,
            serve::encode_error(&Error::Internal {
                detail: "connection setup failed; closing before serving any frame".into(),
            })
        );
        // Refusing twice is deterministic and keeps counting.
        let mut again = Vec::new();
        refuse_connection(&mut again, &stats);
        assert_eq!(stats.conn_failures.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn reply_rail_releases_in_arrival_order_and_drains_on_close() {
        let rail = ReplyRail::new();
        let issued: Vec<u64> = (0..3).map(|_| rail.issue(8)).collect();
        assert_eq!(issued, [0, 1, 2]);
        rail.fill(1, "b".into());
        rail.fill(2, "c".into());
        // Nothing is ready while slot 0 is unfilled: a writer blocked in
        // pop_ready cannot have answered before the fill below.
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel();
            let rail = &rail;
            s.spawn(move || {
                let mut batch = Vec::new();
                assert!(rail.pop_ready(&mut batch));
                tx.send(batch).unwrap();
            });
            assert!(rx.try_recv().is_err());
            rail.fill(0, "a".into());
            // One wakeup released everything that became ready, in order.
            assert_eq!(rx.recv().unwrap(), ["a", "b", "c"]);
        });
        let mut batch = Vec::new();
        assert_eq!((rail.issue(8), rail.issue(8)), (3, 4));
        rail.fill(3, "d".into());
        rail.close();
        assert!(rail.pop_ready(&mut batch));
        assert_eq!(batch, ["d"]);
        batch.clear();
        rail.fill(4, "e".into());
        assert!(rail.pop_ready(&mut batch));
        assert_eq!(batch, ["e"]);
        batch.clear();
        // Closed and every issued slot popped: the writer is told to exit.
        assert!(!rail.pop_ready(&mut batch));
        assert!(batch.is_empty());
    }

    #[test]
    fn reply_rail_window_stalls_full_connections_and_releases_on_drain() {
        let rail = ReplyRail::new();
        // Nothing outstanding: the first `window` slots issue at once.
        assert_eq!(rail.issue(2), 0);
        assert_eq!(rail.issue(2), 1);
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel();
            let rail = &rail;
            // A third slot would put 3 answers in flight against a
            // window of 2: the reader blocks until the writer pops.
            s.spawn(move || tx.send(rail.issue(2)).unwrap());
            assert!(rx.try_recv().is_err());
            // Filled answers still occupy the window until popped.
            rail.fill(0, "a".into());
            rail.fill(1, "b".into());
            assert!(rx.try_recv().is_err());
            let mut batch = Vec::new();
            assert!(rail.pop_ready(&mut batch));
            assert_eq!(batch, ["a", "b"]);
            assert_eq!(rx.recv().unwrap(), 2);
        });
    }
}
