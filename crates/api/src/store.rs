//! Durable sessions: per-session event logs, snapshots, crash recovery
//! and live migration.
//!
//! A stream session that [`SessionStore::open_stream`] opens or
//! [`SessionStore::recover`] rebuilds is **durable**: it owns its log.
//! Each [`RunEvent`] it applies — whichever path offered it:
//! [`ZigzagService::append`], a wire [`crate::Query::Append`] or
//! [`SessionStore::append`] — is written as one self-delimiting record to
//! its append-only log, and every [`StoreConfig::snapshot_every`] appends
//! the session's full state — run prefix, configuration, coordination
//! progress, warm-observer manifest — is serialized into an
//! atomically-replaced snapshot file. After a crash,
//! [`SessionStore::recover`] rebuilds the session from snapshot + log
//! tail (or from the log alone), **byte-identical** to the uninterrupted
//! session at the last durable append — pinned at every append boundary
//! by the recovery oracle tier (`tests/oracle.rs`).
//!
//! # One writer per log
//!
//! The session applies each event and then writes its record (and any
//! cadence snapshot) under one per-session append lock, so the log holds
//! the events the session acknowledged, in the order it applied them.
//! Queries take only the engine's read lock and never wait on a write or
//! an `fsync`. A failed record write, `fsync` or snapshot **breaks** the
//! log: the session keeps answering queries, but refuses every later
//! append with [`Error::Store`] — its memory may be one event ahead of
//! its log — until recovery replaces it. A store instance holds the name
//! of every log a live session of it owns, and releases it when that
//! session drops (after [`ZigzagService::close`], or with its service):
//! [`SessionStore::recover`] refuses a held name, and
//! [`SessionStore::recover_all`] skips it.
//!
//! The same snapshot document doubles as the **migration envelope**:
//! [`crate::Query::Export`] serializes a live session into a
//! [`SessionSnapshot`], [`crate::Query::Import`] installs one as a new
//! session of the receiving service — in-process or between two live
//! [`crate::net::NetServer`] processes over the ordinary wire encoding.
//! That is the router tier's rebalancing primitive.
//!
//! # On-disk formats
//!
//! Both files are line-oriented text with versioned headers, decoded with
//! the same hostile-input discipline as [`crate::wire`] (counts validated
//! against the data actually present, no panics on arbitrary bytes):
//!
//! ```text
//! zigzag-log v3                 zigzag-snap v3
//! probe include                 probe include
//! cache 32                      cache 32
//! spec late 4 1 2 0 go a b      spec late 4 1 2 0 go a b
//! run 6                         coord . . 0 1
//! zigzag-run v2                 observers 1
//! horizon 40                    obs 1 1
//! proc 0 C                      run 8
//! proc 1 A                      zigzag-run v2
//! proc 2 B                      horizon 40
//! chan 0 1 2 5                  proc 0 C
//! ev 0 3 1 ego 1 1 8 0          proc 1 A
//! ev 1 8 1 m0 0 1 act           proc 2 B
//!                               chan 0 1 2 5
//!                               ev 0 3 1 ego 1 1 8 0
//!                               ev 1 8 1 m0 0 1 act
//! ```
//!
//! The `cache` line holds the observer cap (`.` = unbounded), and each
//! `obs` line an observer whose state the session's cache held — the
//! warm-set manifest, which lists query states only (coordination
//! decisions keep none), from least to most recently used. A restore
//! warms its last `cache` entries in order, so the session keeps the
//! states and the recency the source had; a manifest in any other order
//! still reads.
//!
//! Both documents embed a `bcm::codec` run document behind a `run
//! <lines>` count. The log header embeds the session's *skeleton* run
//! (context + horizon, no events), and the log then appends one `ev`
//! record per event ([`zigzag_bcm::codec::encode_event`]) as it arrives.
//! A snapshot embeds its whole run prefix, whose `ev` lines are the same
//! records; decoding replays them through the same append the live path
//! uses, so a decoded snapshot is the run the writer froze. Documents of
//! versions 1 and 2, whose embedded runs were `zigzag-run v1` record
//! tables, are refused, and recovery leaves their files as they are. A
//! torn final record, a truncated tail, non-UTF-8 bytes or an
//! overclaimed count never panic: recovery keeps the longest prefix of
//! records that parse *and* apply, and truncates the log back to
//! exactly that prefix before appending resumes.
//!
//! # Recovery
//!
//! [`SessionStore::recover`] is one loop: restore a base, then replay the
//! log records past it through the normal append path, stopping at the
//! first record that does not apply. The base is the installed snapshot,
//! or else the log header read as an empty snapshot (its skeleton, no
//! events, no coordination progress). A record that does not apply
//! changes nothing, so the session at that point is exactly the session
//! after the records before it. Two rules pick between the bases: a
//! snapshot whose log tail does not apply falls back to the empty base
//! (the log wins), and a snapshot that outlived the log — covering
//! records the log lost — regenerates the log from its run.
//!
//! A snapshot and a regenerated log are installed the same way: written
//! to `<file>.tmp`, synced, renamed over the file, and the directory
//! synced. A crash leaves the old file or the new one, plus at most an
//! orphaned temp file, which recovery deletes.
//!
//! # Fsync policy
//!
//! By default ([`FsyncPolicy::Never`]) records are written (one `write`
//! per append) but never explicitly synced: a crash of the *process*
//! loses nothing the kernel accepted, a crash of the *host* may lose the
//! tail — which recovery then trims to the last good record.
//! [`FsyncPolicy::OnSnapshot`] syncs log and snapshot at every snapshot
//! point; [`FsyncPolicy::Always`] syncs the log after every append. Both
//! sync every file the store installs, regenerated logs included.
//!
//! # Recovery speed
//!
//! Replaying a long log onto the empty base pays the full per-append
//! incremental maintenance (and, with a coordination spec, a knowledge
//! evaluation at every `B`-node). With a spec, those re-evaluated
//! decisions are most of the replay: on perfbench's `durable-coord`
//! sessions they were ~80–98% of recovery while each decision solved
//! its two longest-path problems with SPFA. Decisions now run a Dijkstra
//! on the run's own clock (see `zigzag_core::graph`), and the same
//! recovery takes about a quarter of the time (0.54 s → 0.12 s per pass
//! on a 2-vCPU container). A snapshot base instead batch-builds
//! the engine over the prefix in one pass
//! ([`IncrementalEngine::from_prefix`]), skips decoding the covered log
//! records entirely (a surface scan suffices), and replays only the tail
//! since the last snapshot. Both bases share
//! the same floor — parsing one `ev` line and validating one append per
//! event — and this engine's incremental replay is already within ~2× of
//! that floor, so snapshots buy a measured ~1.2× on recovery time, not
//! an order of magnitude. Their real value is bounding *work after the
//! snapshot* (the decoded tail) and surviving torn or lost log suffixes;
//! `benches/store.rs` prices both paths and gates that restore never
//! loses to replay.
//!
//! A decoded number too wide for the id or count it names is refused,
//! never narrowed to another id, and a coordination spec must name
//! processes of the embedded run's network.

#![deny(clippy::cast_possible_truncation)]

use std::collections::HashSet;
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use zigzag_bcm::codec::{self, decode_event, encode_event, escape_token};
use zigzag_bcm::stream::{RunEvent, StreamingRun};
use zigzag_bcm::{Context, NodeId, ProcessId, Run, RunCursor, Time};
use zigzag_coord::{CoordKind, ProbeSemantics, TimedCoordination};
use zigzag_core::incremental::IncrementalEngine;

use crate::config::{CachePolicy, SessionConfig};
use crate::error::Error;
use crate::fault::{FaultPlan, LogFault};
use crate::service::{SessionId, ZigzagService};
use crate::session::{AppendReport, StreamSession};
use crate::stats::StoreStats;
use crate::wire::{push_embed, Lines};

/// Version header of the per-session event log. Logs of versions 1 and
/// 2 are refused (see the [module docs](self)).
pub const LOG_HEADER: &str = "zigzag-log v3";
/// Version header of the session snapshot / migration document.
/// Documents of versions 1 and 2 are refused.
pub const SNAP_HEADER: &str = "zigzag-snap v3";

fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Store {
        detail: format!("{what} {}: {e}", path.display()),
    }
}

/// When the store issues `fsync`; see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Never sync explicitly (the default): one buffered `write` per
    /// record, durability bounded by the kernel's writeback.
    #[default]
    Never,
    /// Sync the log and the snapshot file at every snapshot point.
    OnSnapshot,
    /// Sync the log after every append (and files at snapshot points).
    Always,
}

/// Durability policy for a [`SessionStore`], mirroring
/// [`CachePolicy`]'s builder style. Like the cache knobs, everything
/// here is policy, not semantics: recovery is byte-identical at any
/// setting (the knobs trade write amplification and recovery time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Write a snapshot every this many appends (`None` = never, the
    /// default: recovery replays the whole log).
    pub snapshot_every: Option<u64>,
    /// When to `fsync`; see [`FsyncPolicy`].
    pub fsync: FsyncPolicy,
    /// Whether recovery pre-builds the observer states named by the
    /// snapshot's warm-set manifest (the default), so the recovered
    /// session answers its working set warm like the one that crashed.
    /// It builds at most as many as the snapshot's cache cap keeps.
    /// Cache warmth never changes answers.
    pub warm_observers: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            snapshot_every: None,
            fsync: FsyncPolicy::default(),
            warm_observers: true,
        }
    }
}

impl StoreConfig {
    /// The default policy: log-only durability, no explicit syncs.
    pub fn new() -> Self {
        StoreConfig::default()
    }

    /// Enables periodic snapshots (builder style; clamped to ≥ 1).
    pub fn snapshot_every(mut self, appends: u64) -> Self {
        self.snapshot_every = Some(appends.max(1));
        self
    }

    /// Sets the fsync policy (builder style).
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Sets whether recovery re-warms snapshotted observer states
    /// (builder style).
    pub fn warm_observers(mut self, warm: bool) -> Self {
        self.warm_observers = warm;
        self
    }
}

/// A portable, serializable copy of one session's full state — what
/// [`StreamSession::freeze`] extracts, what a snapshot file holds, and
/// what [`crate::Query::Export`] / [`crate::Query::Import`] ship between
/// services.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The session's configuration (cache policy, probe semantics,
    /// coordination spec).
    pub config: SessionConfig,
    /// The coordination driver's earliest known `B`-node, if any.
    pub first_known: Option<NodeId>,
    /// The coordination driver's trigger node `σ_C`, if seen.
    pub sigma_c: Option<NodeId>,
    /// The warm-set manifest: the observers whose query states the
    /// session's cache held, from least to most recently used.
    pub observers: Vec<NodeId>,
    /// The grown run prefix, context included.
    pub run: Run,
}

// ---------------------------------------------------------------------
// Text encoding shared by the log header and the snapshot document.
// ---------------------------------------------------------------------

fn push_config_lines(out: &mut String, config: &SessionConfig) {
    let probe = match config.probe {
        ProbeSemantics::IncludeOwnSends => "include",
        ProbeSemantics::ExcludeOwnSends => "exclude",
    };
    let _ = writeln!(out, "probe {probe}");
    let cap = config.cache.max_observers;
    let _ = writeln!(out, "cache {}", cap.map_or(".".into(), |n| n.to_string()));
    match &config.spec {
        None => {
            let _ = writeln!(out, "spec .");
        }
        Some(spec) => {
            let kind = match spec.kind {
                CoordKind::Early { x } => format!("early {x}"),
                CoordKind::Late { x } => format!("late {x}"),
                CoordKind::Window { after, within } => format!("window {after} {within}"),
            };
            let _ = writeln!(
                out,
                "spec {kind} {} {} {} {} {} {}",
                spec.a.index(),
                spec.b.index(),
                spec.c.index(),
                escape_token(&spec.go_name),
                escape_token(&spec.a_action),
                escape_token(&spec.b_action),
            );
        }
    }
}

/// Reads the `probe` / `cache` / `spec` line triple.
fn read_config_lines(lines: &mut Lines<'_>) -> Result<SessionConfig, Error> {
    let mut t = lines.tokens()?;
    t.tag("probe")?;
    let probe = match t.next()? {
        "include" => ProbeSemantics::IncludeOwnSends,
        "exclude" => ProbeSemantics::ExcludeOwnSends,
        other => return Err(t.bad(format!("bad probe {other:?}"))),
    };
    t.done()?;

    let mut t = lines.tokens()?;
    t.tag("cache")?;
    let max_observers = t.opt()?;
    t.done()?;

    let mut t = lines.tokens()?;
    t.tag("spec")?;
    let kind = match t.next()? {
        "." => None,
        "early" => Some(CoordKind::Early { x: t.num()? }),
        "late" => Some(CoordKind::Late { x: t.num()? }),
        "window" => Some(CoordKind::Window {
            after: t.num()?,
            within: t.num()?,
        }),
        other => return Err(t.bad(format!("bad spec kind {other:?}"))),
    };
    let spec = match kind {
        None => None,
        Some(kind) => {
            let (a, b, c) = (t.num()?, t.num()?, t.num()?);
            let mut spec = TimedCoordination::new(
                kind,
                ProcessId::new(a),
                ProcessId::new(b),
                ProcessId::new(c),
            );
            spec.go_name = t.name()?;
            spec.a_action = t.name()?;
            spec.b_action = t.name()?;
            Some(spec)
        }
    };
    t.done()?;

    Ok(SessionConfig {
        cache: CachePolicy { max_observers },
        probe,
        spec,
    })
}

fn push_opt_node(out: &mut String, n: Option<NodeId>) {
    match n {
        Some(n) => {
            let _ = write!(out, " {} {}", n.proc().index(), n.index());
        }
        None => out.push_str(" . ."),
    }
}

/// A reader error as the store reports it: [`Error::Store`], with the
/// line.
fn store_error(e: Error) -> Error {
    match e {
        Error::Wire { line, detail } => Error::Store {
            detail: format!("line {line}: {detail}"),
        },
        other => other,
    }
}

/// Encodes a [`SessionSnapshot`] into the `zigzag-snap v3` document:
/// metadata, then the run prefix as an embedded run document (see the
/// [module docs](self)).
pub fn encode_snapshot(snap: &SessionSnapshot) -> String {
    let run = codec::encode(&snap.run);
    let mut out = String::with_capacity(run.len() + 256);
    let _ = writeln!(out, "{SNAP_HEADER}");
    push_config_lines(&mut out, &snap.config);
    out.push_str("coord");
    push_opt_node(&mut out, snap.first_known);
    push_opt_node(&mut out, snap.sigma_c);
    out.push('\n');
    let _ = writeln!(out, "observers {}", snap.observers.len());
    for sigma in &snap.observers {
        let _ = writeln!(out, "obs {} {}", sigma.proc().index(), sigma.index());
    }
    let _ = push_embed(&mut out, "run", &run);
    out
}

/// Decodes a `zigzag-snap v3` document.
///
/// # Errors
///
/// Fails with [`Error::Store`] on any malformation: wrong header,
/// overclaimed counts, bad tokens, or an embedded run that does not
/// decode.
pub fn decode_snapshot(text: &str) -> Result<SessionSnapshot, Error> {
    read_snapshot(&mut Lines::new(text)).map_err(store_error)
}

/// Reads a `zigzag-snap v3` document from `lines` — a file's, or one
/// embedded in a migration frame, whose errors then point at the frame's
/// lines. Its errors are [`Error::Wire`].
pub(crate) fn read_snapshot(lines: &mut Lines<'_>) -> Result<SessionSnapshot, Error> {
    lines.header(SNAP_HEADER)?;
    let config = read_config_lines(lines)?;

    let mut t = lines.tokens()?;
    t.tag("coord")?;
    // An absent node is written `. .`, two tokens like a present one.
    let mut opt_node = || {
        let node = t.opt_node()?;
        if node.is_none() {
            t.tag(".")?;
        }
        Ok::<_, Error>(node)
    };
    let (first_known, sigma_c) = (opt_node()?, opt_node()?);
    t.done()?;

    let mut t = lines.tokens()?;
    t.tag("observers")?;
    let k = lines.expect_lines(t.num()?, "observer manifest")?;
    t.done()?;
    let mut observers = Vec::with_capacity(k);
    for _ in 0..k {
        let mut t = lines.tokens()?;
        t.tag("obs")?;
        observers.push(t.node()?);
        t.done()?;
    }

    let run = lines.run("run")?;
    if let Some(spec) = &config.spec {
        let net = run.context().network();
        if let Some(p) = [spec.a, spec.b, spec.c]
            .into_iter()
            .find(|&p| !net.contains(p))
        {
            return Err(Error::Wire {
                line: lines.line_no(),
                detail: format!("spec names {p}, not a process of the embedded run"),
            });
        }
    }
    lines.end()?;
    Ok(SessionSnapshot {
        config,
        first_known,
        sigma_c,
        observers,
        run,
    })
}

/// Builds a live [`StreamSession`] from a snapshot: batch-build the
/// engine over the prefix, seed the coordination progress and the append
/// counter, and optionally pre-warm the manifest's observer states, at
/// most as many as the snapshot's cache cap keeps.
pub(crate) fn restore(snap: SessionSnapshot) -> StreamSession {
    restore_with(snap, true)
}

fn restore_with(snap: SessionSnapshot, warm: bool) -> StreamSession {
    let keep = snap.config.cache.max_observers.unwrap_or(usize::MAX);
    let engine = IncrementalEngine::from_prefix(snap.run);
    let session = StreamSession::resume(snap.config, engine, snap.first_known, snap.sigma_c);
    if warm {
        // The session has applied its cap: warming past it would build
        // states only to evict them. The manifest runs from least to most
        // recently used, so its last `keep` entries, warmed in order, are
        // the states the source kept last, in its recency; any order
        // still reads. A fresh session is never poisoned.
        let skip = snap.observers.len().saturating_sub(keep);
        let _ = session.with_engine(|engine| {
            for &sigma in &snap.observers[skip..] {
                // Warmth is answer-invariant; a manifest entry naming a
                // node outside the prefix (hostile input) is simply
                // skipped.
                let _ = engine.engine(sigma);
            }
        });
    }
    session
}

// ---------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------

/// What [`SessionStore::recover`] rebuilt; see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovered {
    /// The handle the service assigned to the recovered session.
    pub id: SessionId,
    /// Whether a snapshot was used (`false` = full log replay).
    pub from_snapshot: bool,
    /// Events restored wholesale from the snapshot.
    pub restored_events: u64,
    /// Log-tail events replayed through the normal append path.
    pub replayed_events: u64,
    /// Whether a torn/corrupt log tail was dropped (and the log file
    /// truncated back to the last good record).
    pub truncated: bool,
}

/// A store instance's hold on one name, taken by
/// [`SessionStore::open_stream`] and [`SessionStore::recover`] and kept
/// by the name's [`Log`]: dropping it releases the name. It carries a
/// handle on its store, which the log writes through.
#[derive(Debug)]
struct Claim {
    store: SessionStore,
    name: String,
}

impl Drop for Claim {
    fn drop(&mut self) {
        self.store.held().remove(&self.name);
    }
}

/// A durable session's log, owned by its [`StreamSession`] (see
/// [One writer per log](self#one-writer-per-log)). It bills the
/// counters of the service the session was opened or recovered on.
#[derive(Debug)]
pub(crate) struct Log {
    claim: Claim,
    path: PathBuf,
    stats: Arc<StoreStats>,
    /// The append lock.
    writer: Mutex<Writer>,
}

/// The state behind a [`Log`]'s append lock.
#[derive(Debug)]
pub(crate) struct Writer {
    file: File,
    /// Events in the log (drives the snapshot cadence).
    events: u64,
    /// The failure that broke the log, if one did.
    broken: Option<String>,
}

impl Writer {
    /// Passes `out` through, breaking the log if it is a failure.
    fn break_on<T>(&mut self, out: Result<T, Error>) -> Result<T, Error> {
        if let Err(e) = &out {
            self.broken = Some(e.to_string());
        }
        out
    }
}

impl Log {
    /// Takes the append lock.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Store`] once a failed write broke the log.
    pub(crate) fn lock(&self) -> Result<MutexGuard<'_, Writer>, Error> {
        let refuse = |cause: &str| Error::Store {
            detail: format!(
                "the log of {} broke ({cause}); recover the session to append again",
                self.claim.name
            ),
        };
        // An append that panicked holding the lock may have applied an
        // event it never logged.
        let writer = self
            .writer
            .lock()
            .map_err(|_| refuse("an append panicked"))?;
        match &writer.broken {
            None => Ok(writer),
            Some(cause) => Err(refuse(cause)),
        }
    }

    /// Writes the record of an event `session` just applied, then —
    /// every [`StoreConfig::snapshot_every`] records — a snapshot. A
    /// failure breaks the log.
    pub(crate) fn record(
        &self,
        writer: &mut Writer,
        ev: &RunEvent,
        session: &StreamSession,
    ) -> Result<(), Error> {
        let out = self.write_record(writer, ev, session);
        writer.break_on(out)
    }

    fn write_record(
        &self,
        writer: &mut Writer,
        ev: &RunEvent,
        session: &StreamSession,
    ) -> Result<(), Error> {
        let store = &self.claim.store;
        let mut line = encode_event(ev);
        line.push('\n');
        if let Some(plan) = &store.faults {
            if let LogFault::Torn(cut) = plan.on_log_write(line.len()) {
                // A torn write: a strict prefix of the record reaches the
                // file, then the append fails. Recovery truncates the torn
                // record away.
                let _ = writer.file.write_all(&line.as_bytes()[..cut]);
                return Err(Error::Store {
                    detail: format!(
                        "injected torn write ({cut}/{} bytes) on {}",
                        line.len(),
                        self.path.display()
                    ),
                });
            }
        }
        writer
            .file
            .write_all(line.as_bytes())
            .map_err(|e| io_err("appending to log", &self.path, e))?;
        if store.config.fsync == FsyncPolicy::Always {
            store.sync_file(&writer.file, &self.path)?;
        }
        writer.events += 1;
        self.stats.events_logged.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_written
            .fetch_add(line.len() as u64, Ordering::Relaxed);
        match store.config.snapshot_every {
            Some(every) if writer.events.is_multiple_of(every) => {
                self.write_snapshot(writer, session).map(|_| ())
            }
            _ => Ok(()),
        }
    }

    /// Snapshot write shared by the cadence path and the explicit API.
    /// Atomic: written to a temp file, synced per policy, renamed over
    /// the live snapshot.
    fn write_snapshot(&self, writer: &Writer, session: &StreamSession) -> Result<bool, Error> {
        let snap = session.freeze()?;
        // A snapshot is only trusted if replaying the run's own cursor
        // events onto a fresh skeleton rebuilds it exactly — decoding
        // replays the embedded run's `ev` lines the same way, so this
        // check (one cheap engine-less replay) guarantees the restored
        // run is the frozen one byte for byte. A session's run was grown
        // by appends, and the cursor keeps the numbering of any run some
        // feed grew, so this passes; were it to fail, the session would
        // degrade to log-only durability instead of restoring a subtly
        // renumbered run.
        let mut rebuilt =
            StreamingRun::adopt(Run::skeleton(snap.run.context_arc(), snap.run.horizon()));
        let mut cursor = RunCursor::new(&snap.run);
        let mut exact = true;
        while let Some(ev) = cursor.next_event() {
            if rebuilt.append(&ev).is_err() {
                exact = false;
                break;
            }
        }
        if !exact || rebuilt.run() != &snap.run {
            return Ok(false);
        }
        let text = encode_snapshot(&snap);

        let store = &self.claim.store;
        if store.config.fsync != FsyncPolicy::Never {
            // The snapshot claims coverage of every logged event below
            // its count; make the log at least that durable first.
            store.sync_file(&writer.file, &self.path)?;
        }
        let disk_full = store.faults.as_ref().is_some_and(|p| p.on_snapshot_write());
        store.install(&store.snap_path(&self.claim.name), &text, disk_full)?;

        self.stats.snapshots.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_written
            .fetch_add(text.len() as u64, Ordering::Relaxed);
        Ok(true)
    }
}

/// The per-session durable store; see the [module docs](self).
///
/// A store manages a directory of `<name>.log` / `<name>.snap` file
/// pairs. Its operations take the [`ZigzagService`] whose session table
/// they act on: the sessions it opens or recovers there own their logs
/// and bill that service's [`ZigzagService::store_stats`].
#[derive(Debug)]
pub struct SessionStore {
    root: PathBuf,
    config: StoreConfig,
    /// The names whose logs live sessions of this store hold, shared
    /// with their [`Claim`]s.
    held: Arc<Mutex<HashSet<String>>>,
    /// Deterministic chaos hook ([`crate::FaultPlan`]); `None` (the
    /// default) is a single never-taken branch on every write seam.
    faults: Option<Arc<FaultPlan>>,
}

impl SessionStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Store`] if the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>, config: StoreConfig) -> Result<Self, Error> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_err("creating store root", &root, e))?;
        Ok(SessionStore {
            root,
            config,
            held: Arc::default(),
            faults: None,
        })
    }

    /// Arms this store with a deterministic fault plan: log appends may
    /// tear, fsyncs may fail, snapshot writes may hit disk-full —
    /// exactly as scheduled by the plan — in the logs it opens or
    /// recovers from now on. Chaos-testing hook; production stores never
    /// call this.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The store's policy.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The log file backing durable session `name`.
    pub fn log_path(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.log"))
    }

    /// The snapshot file backing durable session `name`.
    pub fn snap_path(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.snap"))
    }

    fn held(&self) -> MutexGuard<'_, HashSet<String>> {
        self.held.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `sync_all` with the fault plan's fsync site consulted first — the
    /// seam every durability-relevant sync in this store goes through.
    fn sync_file(&self, file: &File, path: &Path) -> Result<(), Error> {
        if let Some(plan) = &self.faults {
            if plan.on_fsync() {
                return Err(Error::Store {
                    detail: format!("injected fsync failure on {}", path.display()),
                });
            }
        }
        file.sync_all().map_err(|e| io_err("syncing", path, e))
    }

    /// Syncs the store directory, through [`SessionStore::sync_file`]: a
    /// created file or a rename is durable only once its parent
    /// directory is synced.
    fn sync_root(&self) -> Result<(), Error> {
        let dir = File::open(&self.root).map_err(|e| io_err("opening", &self.root, e))?;
        self.sync_file(&dir, &self.root)
    }

    /// Replaces the file at `path` with `text` atomically: written to
    /// `<path>.tmp`, synced unless the policy is [`FsyncPolicy::Never`],
    /// renamed over `path`, then the directory synced. With `disk_full`
    /// (an injected fault) half of `text` reaches the temp file and the
    /// write fails, leaving the orphan a crashed writer would — exactly
    /// what recovery sweeps — and `path` untouched.
    fn install(&self, path: &Path, text: &str, disk_full: bool) -> Result<(), Error> {
        let tmp_path = tmp_path_of(path);
        let mut tmp = File::create(&tmp_path).map_err(|e| io_err("creating", &tmp_path, e))?;
        if disk_full {
            let _ = tmp.write_all(&text.as_bytes()[..text.len() / 2]);
            return Err(Error::Store {
                detail: format!("injected disk-full writing {}", tmp_path.display()),
            });
        }
        tmp.write_all(text.as_bytes())
            .map_err(|e| io_err("writing", &tmp_path, e))?;
        if self.config.fsync != FsyncPolicy::Never {
            self.sync_file(&tmp, &tmp_path)?;
        }
        drop(tmp);
        fs::rename(&tmp_path, path).map_err(|e| io_err("installing", path, e))?;
        if self.config.fsync != FsyncPolicy::Never {
            self.sync_root()?;
        }
        Ok(())
    }

    /// Claims `name` for a live session of this store.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Store`] if a live session holds it already.
    fn claim(&self, name: &str) -> Result<Claim, Error> {
        if !self.held().insert(name.to_string()) {
            return Err(Error::Store {
                detail: format!("a live session of this store holds the log of {name}"),
            });
        }
        let store = SessionStore {
            root: self.root.clone(),
            config: self.config,
            held: Arc::clone(&self.held),
            faults: self.faults.clone(),
        };
        Ok(Claim {
            store,
            name: name.to_string(),
        })
    }

    /// The log `file` as `claim`'s name's log, billing `service`.
    fn log(&self, service: &ZigzagService, claim: Claim, file: File, events: u64) -> Log {
        Log {
            path: self.log_path(&claim.name),
            claim,
            stats: service.shared_store_stats(),
            writer: Mutex::new(Writer {
                file,
                events,
                broken: None,
            }),
        }
    }

    /// Session `id`'s log, if this store holds it.
    fn log_of<'s>(&self, session: &'s StreamSession, id: SessionId) -> Result<&'s Log, Error> {
        session
            .log()
            .filter(|log| Arc::ptr_eq(&log.claim.store.held, &self.held))
            .ok_or_else(|| Error::Store {
                detail: format!("session {id} is not a durable session of this store"),
            })
    }

    /// Opens a **durable** stream session: a fresh session on `service`
    /// that owns a fresh event log seeded with the session's header
    /// (config + embedded skeleton run). Fails if a log for `name`
    /// already exists — recover or delete it explicitly instead of
    /// silently clobbering history.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Store`] on an invalid name, an existing log,
    /// or file-system errors.
    pub fn open_stream(
        &self,
        service: &ZigzagService,
        name: &str,
        context: Arc<Context>,
        horizon: Time,
        config: SessionConfig,
    ) -> Result<SessionId, Error> {
        validate_name(name)?;
        let claim = self.claim(name)?;
        let path = self.log_path(name);
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| io_err("creating log", &path, e))?;

        let header = log_header(&config, &Run::skeleton(context.clone(), horizon));
        file.write_all(header.as_bytes())
            .map_err(|e| io_err("writing log header", &path, e))?;
        if self.config.fsync == FsyncPolicy::Always {
            self.sync_file(&file, &path)?;
            self.sync_root()?;
        }
        service
            .store_stats()
            .bytes_written
            .fetch_add(header.len() as u64, Ordering::Relaxed);

        let session = StreamSession::new(context, horizon, config);
        Ok(service.install(session.logged(self.log(service, claim, file, 0))))
    }

    /// Appends one event to durable session `id` through
    /// [`ZigzagService::append`]'s path: apply, then one log record,
    /// then — every [`StoreConfig::snapshot_every`] records — a
    /// snapshot. An inconsistent event is rejected before any byte is
    /// written and changes nothing.
    ///
    /// # Errors
    ///
    /// Fails as [`ZigzagService::append`] does, or with [`Error::Store`]
    /// if this store does not hold `id`'s log. After a failed write the
    /// session refuses every append until [`SessionStore::recover`]
    /// replaces it.
    pub fn append(
        &self,
        service: &ZigzagService,
        id: SessionId,
        ev: &RunEvent,
    ) -> Result<AppendReport, Error> {
        let session = service.session(id)?;
        self.log_of(&session, id)?;
        session.append(ev)
    }

    /// Writes a snapshot of durable session `id` right now, regardless of
    /// cadence. Returns `false` (writing nothing) when the session's run
    /// does not round-trip the canonical codec — possible only for
    /// hand-built non-chronological feeds — in which case recovery
    /// replays the (always complete) log instead.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Store`] if this store does not hold `id`'s
    /// log, if the log is broken, or on file-system errors (which break
    /// it), and with [`Error::Internal`] if the session is poisoned.
    pub fn snapshot(&self, service: &ZigzagService, id: SessionId) -> Result<bool, Error> {
        let session = service.session(id)?;
        let log = self.log_of(&session, id)?;
        let mut writer = log.lock()?;
        let out = log.write_snapshot(&writer, &session);
        writer.break_on(out)
    }

    /// Recovers durable session `name` into a fresh session of
    /// `service`, byte-identical to the uninterrupted session at the
    /// last durable append — see the [module docs](self) for the one
    /// recovery loop. A torn or corrupt log tail is dropped — the file is
    /// truncated back to the longest prefix of records that parse *and*
    /// apply — and the recovered session owns the log from there.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Store`] if a live session of this store holds
    /// `name`'s log, if the log is missing, or if its header (through the
    /// embedded skeleton run) is unreadable or of another version —
    /// without a context there is no last-good state to recover to. A
    /// refused log's files are left as they are.
    pub fn recover(&self, service: &ZigzagService, name: &str) -> Result<Recovered, Error> {
        validate_name(name)?;
        let claim = self.claim(name)?;
        self.recover_claimed(service, claim)
    }

    /// [`SessionStore::recover`] of a name this store just claimed.
    fn recover_claimed(&self, service: &ZigzagService, claim: Claim) -> Result<Recovered, Error> {
        let log_path = self.log_path(&claim.name);
        let snap_path = self.snap_path(&claim.name);
        let bytes = fs::read(&log_path).map_err(|e| io_err("reading log", &log_path, e))?;
        let mut snapshot = fs::read(&snap_path)
            .ok()
            .and_then(|b| String::from_utf8(b).ok())
            .and_then(|text| decode_snapshot(&text).ok());
        // The first pass tries the installed snapshot as the base, the
        // second (and last) the log header as an empty snapshot.
        loop {
            // The records the base covers, one per non-initial node of its
            // run, are only surface-scanned; the tail past them is decoded.
            let covered = snapshot
                .as_ref()
                .map_or(0, |s| s.run.node_count() - s.run.context().network().len());
            let parsed = parse_log(&bytes, covered)?;
            let from_snapshot = snapshot.is_some();
            let base = match snapshot.take() {
                Some(snap) if snap.config == parsed.config => snap,
                // A snapshot of another configuration is not this log's.
                Some(_) => continue,
                None => parsed.empty_base(),
            };
            let session = restore_with(base, self.config.warm_observers);
            let mut applied = 0;
            for (ev, _) in &parsed.events {
                if session.append(ev).is_err() {
                    break;
                }
                applied += 1;
            }
            if from_snapshot && applied < parsed.events.len() {
                // Snapshot and log tail disagree (corruption that still
                // parses): the log wins.
                continue;
            }

            // A log that lost records the snapshot covers is regenerated
            // from the snapshot's run; any other log is truncated back
            // to the records that applied.
            let outlived = parsed.skipped < covered;
            if outlived {
                let text = rebuild_log_text(&parsed, &session)?;
                self.install(&log_path, &text, false)?;
                service
                    .store_stats()
                    .bytes_written
                    .fetch_add(text.len() as u64, Ordering::Relaxed);
            }
            let file = OpenOptions::new()
                .append(true)
                .open(&log_path)
                .map_err(|e| io_err("reopening log", &log_path, e))?;
            let good_len = parsed.events[..applied]
                .last()
                .map_or(parsed.covered_len, |&(_, end)| end);
            if !outlived && good_len < bytes.len() as u64 {
                file.set_len(good_len)
                    .map_err(|e| io_err("truncating log", &log_path, e))?;
            }

            // Sweep the temp files a crash between tmp write and rename
            // leaves behind: each is at best a complete file that was
            // never installed, at worst a torn one — either way the
            // durable state is the installed snapshot + log, never a
            // tmp. A log this store refuses keeps its files as they are.
            for path in [&snap_path, &log_path] {
                let _ = fs::remove_file(tmp_path_of(path));
            }
            let events = session.event_count()? as u64;
            let log = self.log(service, claim, file, events);
            let id = service.install(session.logged(log));
            service
                .store_stats()
                .recoveries
                .fetch_add(1, Ordering::Relaxed);
            return Ok(Recovered {
                id,
                from_snapshot,
                restored_events: covered as u64,
                replayed_events: applied as u64,
                truncated: outlived || parsed.truncated || applied < parsed.events.len(),
            });
        }
    }

    /// Recovers every `<name>.log` in the store directory whose log no
    /// live session of this store holds — the supervisor's startup sweep
    /// and the implementation of [`crate::Query::Recover`]. Orphaned
    /// `<name>.snap.tmp` and `<name>.log.tmp` files whose log is gone are
    /// deleted along the way (those with a log are swept by the per-name
    /// recovery). Returns the recovered sessions sorted by name.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Store`] if the directory cannot be listed or
    /// any individual recovery fails (already-recovered sessions stay
    /// attached).
    pub fn recover_all(&self, service: &ZigzagService) -> Result<Vec<(String, Recovered)>, Error> {
        let root = &self.root;
        let mut names = Vec::new();
        let entries = fs::read_dir(root).map_err(|e| io_err("listing store root", root, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("listing store root", root, e))?;
            let fname = entry.file_name();
            let Some(fname) = fname.to_str() else {
                continue;
            };
            if let Some(stem) = fname.strip_suffix(".log") {
                if validate_name(stem).is_ok() {
                    names.push(stem.to_string());
                }
            } else if let Some(stem) = fname
                .strip_suffix(".snap.tmp")
                .or_else(|| fname.strip_suffix(".log.tmp"))
            {
                if !self.log_path(stem).exists() {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        names.sort();
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            // A name a live session holds is skipped.
            if let Ok(claim) = self.claim(&name) {
                let rec = self.recover_claimed(service, claim)?;
                out.push((name, rec));
            }
        }
        Ok(out)
    }
}

/// The temp file `path` is written to before it is renamed into place.
fn tmp_path_of(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    tmp.into()
}

/// The log header: its version, the session's configuration and its
/// skeleton run (context and horizon, no events).
fn log_header(config: &SessionConfig, skeleton: &Run) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{LOG_HEADER}");
    push_config_lines(&mut out, config);
    let _ = push_embed(&mut out, "run", &codec::encode(skeleton));
    out
}

/// Reads the header [`log_header`] writes.
fn read_log_header(lines: &mut Lines<'_>) -> Result<(SessionConfig, Run), Error> {
    lines.header(LOG_HEADER)?;
    Ok((read_config_lines(lines)?, lines.run("run")?))
}

/// Regenerates a complete log document (header + one record per event)
/// from a recovered session's run — used when the snapshot outlived the
/// log tail.
fn rebuild_log_text(parsed: &ParsedLog, session: &StreamSession) -> Result<String, Error> {
    let mut out = log_header(&parsed.config, &parsed.skeleton);
    session.with_engine(|engine| {
        for ev in RunCursor::new(engine.run()) {
            out.push_str(&encode_event(&ev));
            out.push('\n');
        }
    })?;
    Ok(out)
}

/// A parsed event log: header plus the longest prefix of records that
/// parse, with byte offsets for truncate-to-last-good.
#[derive(Debug)]
struct ParsedLog {
    config: SessionConfig,
    skeleton: Run,
    /// Records before `decode_from`, surface-validated (complete `ev`
    /// lines) but not decoded — a trusted snapshot covers them.
    skipped: usize,
    /// Each decoded event with the byte offset of its record's end.
    events: Vec<(RunEvent, u64)>,
    /// End of the header and the skipped records, in bytes.
    covered_len: u64,
    /// Whether anything after the last parse-good record was dropped.
    truncated: bool,
}

impl ParsedLog {
    /// The log header as a snapshot: its skeleton, no events, no
    /// coordination progress — the base of a full log replay.
    fn empty_base(&self) -> SessionSnapshot {
        SessionSnapshot {
            config: self.config.clone(),
            first_known: None,
            sigma_c: None,
            observers: Vec::new(),
            run: self.skeleton.clone(),
        }
    }
}

/// Parses raw log bytes; see the torn-record rules in the
/// [module docs](self). The first `decode_from` records are only
/// surface-validated (complete, `ev`-tagged lines) without decoding —
/// recovery passes the trusted snapshot's coverage there, so restoring
/// from a snapshot does not pay a full-log parse.
fn parse_log(bytes: &[u8], decode_from: usize) -> Result<ParsedLog, Error> {
    // Non-UTF-8 tails never panic: keep the valid prefix only.
    let (text, utf8_cut) = match std::str::from_utf8(bytes) {
        Ok(t) => (t, false),
        Err(e) => (
            std::str::from_utf8(&bytes[..e.valid_up_to()]).expect("valid prefix"),
            true,
        ),
    };
    // Records are whole lines; a final line without its newline is torn.
    let complete = match text.rfind('\n') {
        Some(last) => &text[..last + 1],
        None => "",
    };
    let torn_tail = utf8_cut || complete.len() < bytes.len();

    // The header (through the embedded skeleton run) must be intact.
    let mut lines = Lines::new(complete);
    let (config, skeleton) = read_log_header(&mut lines).map_err(store_error)?;

    // Everything after the header is event records; a record ends where
    // the rest after it begins.
    let end = |lines: &Lines<'_>| (complete.len() - lines.rest().len()) as u64;
    let mut covered_len = end(&lines);
    let mut skipped = 0usize;
    let mut events = Vec::new();
    let mut truncated = torn_tail;
    while let Some(line) = lines.try_next() {
        if skipped < decode_from {
            // Covered by the snapshot: a complete `ev`-tagged line is
            // enough — its content was validated when it was written and
            // is never replayed on this path.
            if !line.starts_with("ev ") {
                truncated = true;
                break;
            }
            skipped += 1;
            covered_len = end(&lines);
        } else {
            match decode_event(line) {
                Ok(ev) => events.push((ev, end(&lines))),
                Err(_) => {
                    // First malformed record: everything from here on is
                    // untrusted (later records' stream-scoped message ids
                    // assume the dropped ones were applied).
                    truncated = true;
                    break;
                }
            }
        }
    }
    Ok(ParsedLog {
        config,
        skeleton,
        skipped,
        events,
        covered_len,
        truncated,
    })
}

/// Durable session names become file names: restrict them to a safe
/// portable alphabet.
fn validate_name(name: &str) -> Result<(), Error> {
    let ok = !name.is_empty()
        && name.len() <= 100
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(())
    } else {
        Err(Error::Store {
            detail: format!(
                "invalid session name {name:?} (want 1-100 chars of [A-Za-z0-9._-], \
                 not starting with '.')"
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Query, Response};
    use zigzag_bcm::protocols::Ffip;
    use zigzag_bcm::scheduler::EagerScheduler;
    use zigzag_bcm::{Network, SimConfig, Simulator};

    /// The Fig. 1 network with a feedback `B → C` channel (so knowledge
    /// actually flows and coordination decides), driven by FFIP.
    fn fig_run() -> Run {
        fig_run_named(["C", "A", "B"])
    }

    /// [`fig_run`] with processes `C`, `A`, `B` named `names`.
    fn fig_run_named([c, a, bb]: [&str; 3]) -> Run {
        let mut b = Network::builder();
        let c = b.add_process(c);
        let a = b.add_process(a);
        let bb = b.add_process(bb);
        b.add_channel(c, a, 1, 3).unwrap();
        b.add_channel(c, bb, 7, 9).unwrap();
        b.add_channel(bb, c, 2, 4).unwrap();
        let ctx = b.build().unwrap();
        let mut sim = Simulator::new(ctx, SimConfig::with_horizon(Time::new(40)));
        sim.external(Time::new(2), c, "go");
        sim.run(&mut Ffip::new(), &mut EagerScheduler).unwrap()
    }

    fn coord_config() -> SessionConfig {
        SessionConfig::new().spec(TimedCoordination::new(
            CoordKind::Late { x: 4 },
            ProcessId::new(1),
            ProcessId::new(2),
            ProcessId::new(0),
        ))
    }

    fn events_of(run: &Run) -> Vec<RunEvent> {
        RunCursor::new(run).collect()
    }

    /// A fresh per-test scratch directory under the system temp dir.
    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("zigzag-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The probe queries recovery and migration are held byte-identical
    /// on.
    fn probes(run: &Run) -> Vec<Query> {
        let sigma = run
            .nodes()
            .map(|r| r.id())
            .filter(|n| !n.is_initial())
            .last()
            .unwrap();
        let first = run
            .nodes()
            .map(|r| r.id())
            .find(|n| !n.is_initial())
            .unwrap();
        vec![
            Query::MaxXMatrix { sigma },
            Query::TightBound {
                from: first,
                to: sigma,
            },
            Query::CoordDecision,
        ]
    }

    fn answers(service: &ZigzagService, id: SessionId, probes: &[Query]) -> Vec<Response> {
        probes
            .iter()
            .map(|q| service.dispatch(id, q).unwrap())
            .collect()
    }

    /// Opens durable session `name` over `run`'s context.
    fn open_durable(
        store: &SessionStore,
        service: &ZigzagService,
        name: &str,
        run: &Run,
    ) -> SessionId {
        store
            .open_stream(
                service,
                name,
                run.context_arc(),
                run.horizon(),
                coord_config(),
            )
            .unwrap()
    }

    /// The events a fresh store instance in `dir` — the next process
    /// after a crash — recovers from `name`'s log.
    fn recovered_events(dir: &Path, name: &str) -> u64 {
        let service = ZigzagService::new();
        let store = SessionStore::open(dir, StoreConfig::new()).unwrap();
        let rec = store.recover(&service, name).unwrap();
        rec.restored_events + rec.replayed_events
    }

    #[test]
    fn snapshot_documents_round_trip() {
        let run = fig_run();
        let service = ZigzagService::new();
        let config = coord_config()
            .cache(CachePolicy::default().max_observers(8))
            .probe(ProbeSemantics::ExcludeOwnSends);
        let mut spec_config = config.clone();
        if let Some(spec) = spec_config.spec.as_mut() {
            // Names with spaces, '%' and non-ASCII must survive the
            // token escaping.
            spec.go_name = "go now".into();
            spec.a_action = "100% ü".into();
            spec.b_action = String::new();
        }
        let (id, _) = service.open_replay(&run, spec_config).unwrap();
        let snap = service.export(id).unwrap();
        let text = encode_snapshot(&snap);
        assert_eq!(decode_snapshot(&text).unwrap(), snap);
        // The empty snapshot (no events yet) round-trips too.
        let empty = service.open_stream(run.context_arc(), run.horizon(), coord_config());
        let snap = service.export(empty).unwrap();
        assert_eq!(RunCursor::new(&snap.run).remaining(), 0);
        assert_eq!(decode_snapshot(&encode_snapshot(&snap)).unwrap(), snap);
    }

    #[test]
    fn hostile_snapshot_documents_are_rejected_without_panic() {
        let run = fig_run();
        let service = ZigzagService::new();
        let (id, _) = service.open_replay(&run, coord_config()).unwrap();
        let good = encode_snapshot(&service.export(id).unwrap());

        // Every single-line deletion and every truncation of the
        // document must fail cleanly (or, for deletions past the run
        // section, possibly still parse — never panic).
        for cut in 0..good.lines().count() {
            let doc: String = good
                .lines()
                .enumerate()
                .filter(|(k, _)| *k != cut)
                .map(|(_, l)| format!("{l}\n"))
                .collect();
            let _ = decode_snapshot(&doc);
        }
        // Every byte-truncation must fail cleanly whenever it loses a
        // whole line. (A cut inside the *final token* of the last line
        // can legitimately still parse — trailing name fields are
        // free-form — but must never panic.)
        let full_lines = good.lines().count();
        for cut in 0..good.len() {
            if let Some(prefix) = good.get(..cut) {
                let verdict = decode_snapshot(prefix);
                if prefix.lines().count() < full_lines {
                    assert!(verdict.is_err(), "truncation at {cut}");
                }
            }
        }

        // Targeted malformations.
        let tamper = |from: &str, to: &str| good.replacen(from, to, 1);
        assert!(good.contains(" m0 "));
        for doc in [
            tamper(SNAP_HEADER, "zigzag-snap v1"),
            tamper(SNAP_HEADER, "zigzag-snap v2"),
            tamper("zigzag-run v2", "zigzag-run v1"),
            // Overclaimed counts must be refused before allocation.
            tamper("observers ", "observers 4000000000 "),
            tamper("run ", &format!("run {} ", u64::MAX)),
            // An embedded event that does not replay.
            tamper(" m0 ", " m99 "),
            // A line after the run section.
            format!("{good}obs 0 1\n"),
            tamper("probe ", "probe sideways "),
            tamper("coord", "coord zz"),
        ] {
            assert!(
                matches!(decode_snapshot(&doc), Err(Error::Store { .. })),
                "{doc}"
            );
        }
        assert!(decode_snapshot("").is_err());
        assert!(decode_snapshot(SNAP_HEADER).is_err());
    }

    /// A spec naming a process outside the embedded run's network is
    /// refused, and so is a process or node index on the `spec`, `coord`
    /// or `obs` lines too wide for `u32`, which would otherwise alias
    /// the id 2³² below it.
    #[test]
    fn snapshot_ids_outside_the_run_are_refused() {
        let run = fig_run();
        let service = ZigzagService::new();
        let (id, _) = service.open_replay(&run, coord_config()).unwrap();
        // A queried observer gives the manifest its `obs` line.
        service.dispatch(id, &probes(&run)[0]).unwrap();
        let snap = service.export(id).unwrap();
        assert_eq!(snap.observers.len(), 1);
        let good = encode_snapshot(&snap);
        assert_eq!(decode_snapshot(&good).unwrap(), snap);

        // B as process 7 of a 3-process run.
        let mut hostile = snap.clone();
        hostile.config.spec.as_mut().unwrap().b = ProcessId::new(7);
        assert!(matches!(
            decode_snapshot(&encode_snapshot(&hostile)),
            Err(Error::Store { .. })
        ));

        // Token `k` of the first line tagged `tag`, plus 2³².
        let widen = |tag: &str, k: usize| {
            let mut widened = false;
            let doc: String = good
                .lines()
                .map(|line| {
                    let mut toks: Vec<String> = line.split(' ').map(String::from).collect();
                    if !widened && toks[0] == tag {
                        if let Ok(v) = toks[k].parse::<u64>() {
                            toks[k] = (v + (1 << 32)).to_string();
                            widened = true;
                        }
                    }
                    toks.join(" ") + "\n"
                })
                .collect();
            widened.then_some(doc)
        };
        let sites = [
            ("spec", 3),
            ("spec", 4),
            ("spec", 5),
            ("coord", 1),
            ("coord", 2),
            ("coord", 3),
            ("coord", 4),
            ("obs", 1),
            ("obs", 2),
        ];
        for (tag, k) in sites {
            let doc = widen(tag, k).unwrap_or_else(|| panic!("no {tag} token {k}"));
            assert!(
                matches!(decode_snapshot(&doc), Err(Error::Store { .. })),
                "{tag} token {k}: {doc}"
            );
        }
    }

    #[test]
    fn invalid_names_and_clobbering_opens_are_refused() {
        let run = fig_run();
        let service = ZigzagService::new();
        let store = SessionStore::open(tmpdir("names"), StoreConfig::new()).unwrap();
        for name in ["", ".hidden", "a/b", "a b", "ü", &"x".repeat(101)] {
            assert!(
                store
                    .open_stream(
                        &service,
                        name,
                        run.context_arc(),
                        run.horizon(),
                        SessionConfig::new(),
                    )
                    .is_err(),
                "{name:?}"
            );
        }
        let ok = store.open_stream(
            &service,
            "feed-1",
            run.context_arc(),
            run.horizon(),
            SessionConfig::new(),
        );
        assert!(ok.is_ok());
        // A second open of the same name must not clobber the log.
        assert!(store
            .open_stream(
                &service,
                "feed-1",
                run.context_arc(),
                run.horizon(),
                SessionConfig::new(),
            )
            .is_err());
        // An append to a session the store does not manage is refused
        // and leaves the session as it was.
        let plain = service.open_stream(run.context_arc(), run.horizon(), SessionConfig::new());
        let err = store.append(&service, plain, &events_of(&run)[0]);
        assert!(matches!(err, Err(Error::Store { .. })), "{err:?}");
        assert_eq!(service.event_count(plain).unwrap(), 0);
    }

    /// A created log and an installed snapshot are durable only once the
    /// store directory is synced: `open_stream` under `Always` syncs the
    /// log and the directory, and a snapshot install under `OnSnapshot`
    /// or `Always` syncs the log, the temp file and, after the rename,
    /// the directory — every sync through the fault seam.
    #[test]
    fn created_logs_and_installed_snapshots_sync_the_directory() {
        use crate::fault::{FaultPlan, FaultRates};

        let run = fig_run();
        for (policy, at_open, at_snapshot) in [
            (FsyncPolicy::Never, 0, 0),
            (FsyncPolicy::OnSnapshot, 0, 3),
            (FsyncPolicy::Always, 2, 3),
        ] {
            let dir = tmpdir(&format!("dir-sync-{policy:?}"));
            let service = ZigzagService::new();
            let plan = Arc::new(FaultPlan::new(1, FaultRates::default()));
            let store = SessionStore::open(&dir, StoreConfig::new().fsync(policy))
                .unwrap()
                .with_faults(plan.clone());
            let id = store
                .open_stream(
                    &service,
                    "feed",
                    run.context_arc(),
                    run.horizon(),
                    SessionConfig::new(),
                )
                .unwrap();
            assert_eq!(plan.fsyncs_consulted(), at_open, "{policy:?} open");
            assert!(store.snapshot(&service, id).unwrap());
            assert_eq!(
                plan.fsyncs_consulted() - at_open,
                at_snapshot,
                "{policy:?} snapshot"
            );
        }
    }

    #[test]
    fn header_sync_failures_surface_from_open_stream() {
        use crate::fault::{FaultPlan, FaultRates};

        let run = fig_run();
        let dir = tmpdir("header-sync");
        let service = ZigzagService::new();
        let rates = FaultRates {
            fsync_fail: 1000,
            ..FaultRates::default()
        };
        let store = SessionStore::open(&dir, StoreConfig::new().fsync(FsyncPolicy::Always))
            .unwrap()
            .with_faults(Arc::new(FaultPlan::new(3, rates)));
        let err = store
            .open_stream(
                &service,
                "feed",
                run.context_arc(),
                run.horizon(),
                coord_config(),
            )
            .unwrap_err();
        assert!(
            matches!(&err, Error::Store { detail } if detail.contains("injected fsync failure")),
            "got {err}"
        );
        // Nothing was opened; the log holds only its header, which
        // recovery restores as an empty session.
        assert_eq!(service.session_count(), 0);
        let rec = SessionStore::open(&dir, StoreConfig::new())
            .unwrap()
            .recover(&service, "feed")
            .unwrap();
        assert_eq!(rec.restored_events + rec.replayed_events, 0);
        assert_eq!(service.event_count(rec.id).unwrap(), 0);
    }

    /// Process names a run document must escape to keep: one holding
    /// `#`, and the empty name.
    const ODD_NAMES: [&str; 3] = ["C#1", "", "B"];

    /// A crashed session's log replays to the exact run and answers,
    /// whatever its processes are named.
    #[test]
    fn recovery_replays_the_log_byte_identically() {
        for (k, names) in [["C", "A", "B"], ODD_NAMES].into_iter().enumerate() {
            let run = fig_run_named(names);
            let events = events_of(&run);
            let probes = probes(&run);
            let dir = tmpdir(&format!("recover-log-{k}"));

            // The uninterrupted reference.
            let reference = ZigzagService::new();
            let (ref_id, _) = reference.open_replay(&run, coord_config()).unwrap();
            let expected = answers(&reference, ref_id, &probes);

            // A durable session, crashed after the last append (drop
            // without any shutdown protocol).
            {
                let service = ZigzagService::new();
                let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
                let id = store
                    .open_stream(
                        &service,
                        "feed",
                        run.context_arc(),
                        run.horizon(),
                        coord_config(),
                    )
                    .unwrap();
                for ev in &events {
                    store.append(&service, id, ev).unwrap();
                }
            }

            let service = ZigzagService::new();
            let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
            let rec = store.recover(&service, "feed").unwrap();
            assert!(!rec.from_snapshot);
            assert!(!rec.truncated);
            assert_eq!(rec.replayed_events, events.len() as u64);
            assert_eq!(answers(&service, rec.id, &probes), expected);
            assert_eq!(service.stats().store.recoveries, 1);
            assert_eq!(service.export(rec.id).unwrap().run, run, "{names:?}");
        }
    }

    #[test]
    fn orphaned_snapshot_tmp_files_are_swept_on_recovery() {
        use crate::fault::{FaultPlan, FaultRates};
        use std::sync::Arc;

        let run = fig_run();
        let events = events_of(&run);
        let probes = probes(&run);
        let dir = tmpdir("orphan-tmp");

        let reference = ZigzagService::new();
        let (ref_id, _) = reference.open_replay(&run, coord_config()).unwrap();
        let expected = answers(&reference, ref_id, &probes);

        // First life: a fault plan forces disk-full exactly once, mid
        // snapshot — the crash-between-tmp-write-and-rename shape. A
        // torn `feed.snap.tmp` stays behind; every log record had already
        // landed, so recovery loses nothing.
        {
            let service = ZigzagService::new();
            let rates = FaultRates {
                snapshot_full: 1000,
                ..FaultRates::default()
            };
            let plan = Arc::new(FaultPlan::with_budget(7, rates, 1));
            let store = SessionStore::open(&dir, StoreConfig::new())
                .unwrap()
                .with_faults(plan);
            let id = store
                .open_stream(
                    &service,
                    "feed",
                    run.context_arc(),
                    run.horizon(),
                    coord_config(),
                )
                .unwrap();
            for ev in &events {
                store.append(&service, id, ev).unwrap();
            }
            let err = store.snapshot(&service, id).unwrap_err();
            assert!(
                matches!(&err, Error::Store { detail } if detail.contains("injected disk-full")),
                "got {err}"
            );
            assert!(
                dir.join("feed.snap.tmp").exists(),
                "the torn tmp file should have been left behind"
            );
        }
        // A second orphan with *no* sibling log — a session whose log was
        // deleted mid-crash — must be swept by the directory sweep too.
        fs::write(dir.join("ghost.snap.tmp"), b"torn bytes").unwrap();

        // Second life: the sweep removes both orphans and recovery is
        // byte-identical to the uninterrupted reference.
        let service = ZigzagService::new();
        let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
        let recovered = store.recover_all(&service).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].0, "feed");
        assert!(!dir.join("feed.snap.tmp").exists(), "orphan not swept");
        assert!(
            !dir.join("ghost.snap.tmp").exists(),
            "logless orphan not swept"
        );
        assert_eq!(
            recovered[0].1.restored_events + recovered[0].1.replayed_events,
            events.len() as u64
        );
        assert_eq!(answers(&service, recovered[0].1.id, &probes), expected);
    }

    /// A snapshot plus the log tail past it recovers the exact run and
    /// answers, whatever its processes are named.
    #[test]
    fn recovery_from_snapshot_plus_tail_is_byte_identical() {
        for (k, names) in [["C", "A", "B"], ODD_NAMES].into_iter().enumerate() {
            let run = fig_run_named(names);
            let events = events_of(&run);
            let probes = probes(&run);
            let dir = tmpdir(&format!("recover-snap-{k}"));

            let reference = ZigzagService::new();
            let (ref_id, _) = reference.open_replay(&run, coord_config()).unwrap();
            let expected = answers(&reference, ref_id, &probes);

            {
                let service = ZigzagService::new();
                let store = SessionStore::open(&dir, StoreConfig::new().snapshot_every(3)).unwrap();
                let id = store
                    .open_stream(
                        &service,
                        "feed",
                        run.context_arc(),
                        run.horizon(),
                        coord_config(),
                    )
                    .unwrap();
                for ev in &events {
                    store.append(&service, id, ev).unwrap();
                }
                assert!(store.snap_path("feed").exists());
                assert!(service.stats().store.snapshots >= 1);
            }

            let service = ZigzagService::new();
            let store = SessionStore::open(&dir, StoreConfig::new().snapshot_every(3)).unwrap();
            let rec = store.recover(&service, "feed").unwrap();
            assert!(rec.from_snapshot);
            assert_eq!(
                rec.restored_events + rec.replayed_events,
                events.len() as u64
            );
            // The snapshot covered a multiple of 3; only the tail replays.
            assert!(rec.replayed_events < 3);
            assert_eq!(answers(&service, rec.id, &probes), expected);
            assert_eq!(service.export(rec.id).unwrap().run, run, "{names:?}");

            // The recovered session keeps appending durably: a second crash
            // and recovery still matches a fresh full replay.
            let run2 = fig_run_named(names);
            assert_eq!(run2, run, "FFIP under the eager scheduler is deterministic");
        }
    }

    #[test]
    fn torn_and_corrupt_log_tails_recover_to_the_last_good_record() {
        let run = fig_run();
        let events = events_of(&run);
        let dir = tmpdir("torn");

        {
            let service = ZigzagService::new();
            let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
            let id = store
                .open_stream(
                    &service,
                    "feed",
                    run.context_arc(),
                    run.horizon(),
                    coord_config(),
                )
                .unwrap();
            for ev in &events {
                store.append(&service, id, ev).unwrap();
            }
        }
        let pristine = fs::read(dir.join("feed.log")).unwrap();

        // (tail bytes appended to the pristine log, expected drop count)
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("torn final record", b"ev 2 9 1".to_vec()),
            ("garbage line", b"not an event\nev 0 1 0 0 0\n".to_vec()),
            ("non-utf8 tail", vec![0xff, 0xfe, 0xfd]),
            (
                "overclaimed receipt count",
                b"ev 0 39 4000000000 0 0\n".to_vec(),
            ),
            // Parses fine, but delivers a message that does not exist:
            // dropped by the replay pass, not the parser.
            (
                "semantically impossible record",
                b"ev 0 39 1 m4000 0 0\n".to_vec(),
            ),
        ];
        for (what, tail) in cases {
            let mut bytes = pristine.clone();
            bytes.extend_from_slice(&tail);
            fs::write(dir.join("feed.log"), &bytes).unwrap();

            let service = ZigzagService::new();
            let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
            let rec = store.recover(&service, "feed").unwrap();
            assert!(rec.truncated, "{what}: tail not flagged");
            assert_eq!(
                rec.restored_events + rec.replayed_events,
                events.len() as u64,
                "{what}: wrong surviving prefix"
            );
            // The file itself was trimmed back to the good prefix…
            assert_eq!(
                fs::read(dir.join("feed.log")).unwrap(),
                pristine,
                "{what}: log not truncated to last good record"
            );
            // …and the recovered session accepts further durable appends.
            let more = RunEvent {
                proc: ProcessId::new(0),
                time: Time::new(39),
                receipts: vec![],
                sends: vec![],
                actions: vec!["ping".into()],
            };
            store.append(&service, rec.id, &more).unwrap();
            fs::write(dir.join("feed.log"), &pristine).unwrap();
        }

        // A log whose *header* is gone has no last-good state.
        fs::write(dir.join("feed.log"), b"zigzag-log v9\n").unwrap();
        let service = ZigzagService::new();
        let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
        assert!(store.recover(&service, "feed").is_err());
        assert!(store.recover(&service, "no-such-session").is_err());
    }

    /// Two services share one store and both number their first session
    /// 0: each session's appends still land in its own log.
    #[test]
    fn sessions_of_two_services_keep_their_own_logs() {
        let run = fig_run();
        let events = events_of(&run);
        let dir = tmpdir("two-services");
        {
            let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
            let (a, b) = (ZigzagService::new(), ZigzagService::new());
            let id = open_durable(&store, &a, "a", &run);
            assert_eq!(open_durable(&store, &b, "b", &run), id);
            for ev in &events {
                store.append(&a, id, ev).unwrap();
            }
        }
        assert_eq!(recovered_events(&dir, "a"), events.len() as u64);
        assert_eq!(recovered_events(&dir, "b"), 0);
    }

    /// A durable session logs what every append path acknowledges: wire
    /// `Append`s on a service with no supervisor bound, and
    /// `ZigzagService::append` mixed with `SessionStore::append`.
    #[test]
    fn every_append_path_logs_a_durable_session() {
        let run = fig_run();
        let events = events_of(&run);
        let dir = tmpdir("append-paths");
        {
            let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
            let service = ZigzagService::new();
            let wire = open_durable(&store, &service, "wire", &run);
            let mixed = open_durable(&store, &service, "mixed", &run);
            for (k, ev) in events.iter().enumerate() {
                let append = Query::Append(Box::new(ev.clone()));
                assert_eq!(
                    service.dispatch(wire, &append).unwrap(),
                    Response::Appended(k as u64 + 1)
                );
                if k == 0 {
                    service.append(mixed, ev).unwrap();
                } else {
                    store.append(&service, mixed, ev).unwrap();
                }
            }
        }
        for name in ["wire", "mixed"] {
            assert_eq!(recovered_events(&dir, name), events.len() as u64, "{name}");
        }
    }

    /// After a failed record write the session refuses every later append,
    /// by every path, and an explicit snapshot, while it keeps answering
    /// queries; recovery holds every acknowledged append.
    #[test]
    fn a_broken_log_refuses_appends_until_recovery() {
        use crate::fault::{FaultPlan, FaultRates};

        let run = fig_run();
        let events = events_of(&run);
        let dir = tmpdir("broken");
        let acked = 5;
        {
            let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
            let service = ZigzagService::new();
            let id = open_durable(&store, &service, "feed", &run);
            for ev in &events[..acked] {
                store.append(&service, id, ev).unwrap();
            }
        }
        {
            // The next life tears its first record write.
            let rates = FaultRates {
                torn_log_write: 1000,
                ..FaultRates::default()
            };
            let store = SessionStore::open(&dir, StoreConfig::new())
                .unwrap()
                .with_faults(Arc::new(FaultPlan::with_budget(5, rates, 1)));
            let service = ZigzagService::new();
            let id = store.recover(&service, "feed").unwrap().id;
            let torn = store.append(&service, id, &events[acked]).unwrap_err();
            assert!(
                matches!(&torn, Error::Store { detail } if detail.contains("injected torn write")),
                "{torn}"
            );
            // The torn event is in memory only.
            let count = service.event_count(id).unwrap();
            assert_eq!(count, acked as u64 + 1);
            for ev in &events[acked + 1..] {
                for refused in [
                    store.append(&service, id, ev).map(|_| ()),
                    service.append(id, ev).map(|_| ()),
                    service
                        .dispatch(id, &Query::Append(Box::new(ev.clone())))
                        .map(|_| ()),
                ] {
                    assert!(matches!(refused, Err(Error::Store { .. })), "{refused:?}");
                }
                assert_eq!(service.event_count(id).unwrap(), count);
            }
            let snapshot = store.snapshot(&service, id);
            assert!(matches!(snapshot, Err(Error::Store { .. })), "{snapshot:?}");
            assert!(service.dispatch(id, &Query::CoordDecision).is_ok());
        }
        assert_eq!(recovered_events(&dir, "feed"), acked as u64);
    }

    /// A live session's log is held: `recover` refuses its name and
    /// `recover_all` skips it. Closing the session releases the log, and
    /// the sweep then recovers it.
    #[test]
    fn live_logs_are_held_and_closed_ones_recovered() {
        let run = fig_run();
        let events = events_of(&run);
        let dir = tmpdir("held");
        let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
        let service = ZigzagService::new();
        let id = open_durable(&store, &service, "feed", &run);
        for ev in &events {
            store.append(&service, id, ev).unwrap();
        }

        let err = store.recover(&service, "feed").unwrap_err();
        assert!(matches!(err, Error::Store { .. }), "{err}");
        assert!(store.recover_all(&service).unwrap().is_empty());
        assert_eq!(service.session_count(), 1);

        service.close(id).unwrap();
        let swept = store.recover_all(&service).unwrap();
        assert_eq!(swept.len(), 1);
        assert_eq!(swept[0].0, "feed");
        assert_eq!(swept[0].1.replayed_events, events.len() as u64);
        assert!(!swept[0].1.truncated);
        assert_eq!(service.session_count(), 1);
    }

    /// The store's byte counter adds up to the bytes it writes: a log's
    /// header and records, a snapshot, and a log regenerated because the
    /// snapshot outlived it.
    #[test]
    fn store_counters_add_up_to_the_bytes_written() {
        let run = fig_run();
        let events = events_of(&run);
        let dir = tmpdir("billing");
        let log = dir.join("feed.log");
        let len = |path: &Path| fs::metadata(path).unwrap().len();
        {
            let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
            let service = ZigzagService::new();
            let id = open_durable(&store, &service, "feed", &run);
            for ev in &events {
                store.append(&service, id, ev).unwrap();
            }
            assert_eq!(service.stats().store.bytes_written, len(&log));
            assert!(store.snapshot(&service, id).unwrap());
            assert_eq!(
                service.stats().store.bytes_written,
                len(&log) + len(&dir.join("feed.snap"))
            );
        }
        // The log loses its last record, which the snapshot covers.
        let full = fs::read(&log).unwrap();
        let cut = full[..full.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap();
        fs::write(&log, &full[..=cut]).unwrap();
        let service = ZigzagService::new();
        let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
        let rec = store.recover(&service, "feed").unwrap();
        assert!(rec.from_snapshot && rec.truncated);
        assert_eq!(fs::read(&log).unwrap(), full, "the log was not regenerated");
        assert_eq!(service.stats().store.bytes_written, full.len() as u64);
    }

    /// A log regenerated because the snapshot outlived it is installed
    /// like a snapshot: under `Always` its temp file and the directory
    /// are synced through the fault seam, and an orphaned `.log.tmp` a
    /// crash left mid-rewrite is swept.
    #[test]
    fn regenerated_logs_are_synced_and_installed_atomically() {
        use crate::fault::{FaultPlan, FaultRates};

        let run = fig_run();
        let events = events_of(&run);
        let dir = tmpdir("regenerate");
        let log = dir.join("feed.log");
        {
            let store = SessionStore::open(&dir, StoreConfig::new()).unwrap();
            let service = ZigzagService::new();
            let id = open_durable(&store, &service, "feed", &run);
            for ev in &events {
                store.append(&service, id, ev).unwrap();
            }
            assert!(store.snapshot(&service, id).unwrap());
        }
        // The log loses its last record, which the snapshot covers, and
        // a torn temp file of an earlier rewrite lies beside it.
        let full = fs::read(&log).unwrap();
        let cut = full[..full.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap();
        fs::write(&log, &full[..=cut]).unwrap();
        fs::write(dir.join("feed.log.tmp"), b"zigzag-log").unwrap();
        fs::write(dir.join("ghost.log.tmp"), b"torn bytes").unwrap();

        let plan = Arc::new(FaultPlan::new(1, FaultRates::default()));
        let store = SessionStore::open(&dir, StoreConfig::new().fsync(FsyncPolicy::Always))
            .unwrap()
            .with_faults(plan.clone());
        let service = ZigzagService::new();
        let recovered = store.recover_all(&service).unwrap();
        assert_eq!(recovered.len(), 1);
        assert!(recovered[0].1.from_snapshot && recovered[0].1.truncated);
        assert_eq!(plan.fsyncs_consulted(), 2, "temp file and directory");
        assert_eq!(fs::read(&log).unwrap(), full, "the log was not regenerated");
        for orphan in ["feed.log.tmp", "ghost.log.tmp"] {
            assert!(!dir.join(orphan).exists(), "{orphan} not swept");
        }
    }

    #[test]
    fn migration_between_services_preserves_every_answer() {
        let run = fig_run();
        let probes = probes(&run);

        let source = ZigzagService::new();
        let (id, _) = source.open_replay(&run, coord_config()).unwrap();
        let expected = answers(&source, id, &probes);

        // In-process export/import…
        let snap = source.export(id).unwrap();
        let target = ZigzagService::new();
        let moved = target.import(snap.clone());
        assert_eq!(answers(&target, moved, &probes), expected);

        // …and through the dispatch layer (what the socket path uses).
        let Response::Exported(shipped) = source.dispatch(id, &Query::Export).unwrap() else {
            panic!("export answers Exported");
        };
        assert_eq!(*shipped, snap);
        let target2 = ZigzagService::new();
        let Response::Imported(moved2) = target2
            .dispatch(SessionId::from_raw(0), &Query::Import(shipped))
            .unwrap()
        else {
            panic!("import answers Imported");
        };
        assert_eq!(answers(&target2, moved2, &probes), expected);
        assert!(source.stats().store.migrations >= 2);

        // The migrated session is live: it accepts appends.
        let ev = RunEvent {
            proc: ProcessId::new(0),
            time: Time::new(39),
            receipts: vec![],
            sends: vec![],
            actions: vec!["post-move".into()],
        };
        target.append(moved, &ev).unwrap();
    }
}
