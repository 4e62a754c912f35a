//! The front door: a [`ZigzagService`] owning sessions and routing
//! queries.
//!
//! The service is the single public entry point the ROADMAP's serving
//! system builds on: callers open sessions (over recorded runs or live
//! streams), append events, and dispatch [`Query`]s — no hand-wiring of
//! `Simulator` / `KnowledgeEngine` / `IncrementalEngine` / `StreamDriver`
//! lifetimes. Every later scaling layer (sharded
//! services, async front ends, networked serving over the wire encoding)
//! is a deployment of this surface.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::time::Instant;

use zigzag_bcm::stream::RunEvent;
use zigzag_bcm::{Context, Run, RunCursor, Time};
use zigzag_core::incremental::IncrementalEngine;

use crate::config::SessionConfig;
use crate::error::Error;
use crate::query::{Query, Response};
use crate::session::{AppendReport, StreamSession};
use crate::stats::{LatencyRecorder, StatsReport, StoreStats, TransportCounters};
use crate::store::SessionSnapshot;
use crate::supervisor::SessionSupervisor;

/// An opaque handle naming one open session of a [`ZigzagService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// Reconstructs a handle from its raw value (wire decoding, logs).
    pub fn from_raw(raw: u64) -> Self {
        SessionId(raw)
    }

    /// The raw value (wire encoding, logs).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Default number of session-table shards; see [`ZigzagService::sharded`].
const DEFAULT_SHARDS: usize = 16;

/// One shard of the session table: a slice of the handle space with its
/// own lock, so handle resolution on one shard never contends with
/// another — and so the [`crate::serve`] workers can each *own* a set of
/// shards outright.
#[derive(Debug, Default)]
struct Shard {
    sessions: Mutex<HashMap<u64, Arc<StreamSession>>>,
}

/// The service's monotone serving counters; see [`crate::stats`].
#[derive(Debug, Default)]
struct Metrics {
    /// Dispatches against a resolved session (success or error).
    dispatches: AtomicU64,
    /// Wall-time histogram over those dispatches.
    latency: LatencyRecorder,
    /// Durability counters, billed into by the logs of this service's
    /// durable sessions, by [`crate::store::SessionStore`] and by
    /// export/import.
    store: Arc<StoreStats>,
}

/// The unified service facade; see the [module docs](self) and the
/// crate-level example.
///
/// The session table is **sharded**: handles map to shards by
/// `id % shard_count` ([`ZigzagService::shard_of`]), and each shard's own
/// lock is held only for handle resolution (lookup/insert/remove) —
/// never across query evaluation or appends. Each session synchronizes
/// individually (see [`crate::session`]'s locking notes), so slow work on
/// one session does not block another, and traffic on different shards
/// does not even share a resolution lock. The sharding is invisible to
/// answers: every dispatch is byte-identical at any shard count (the
/// shards only partition the handle map).
#[derive(Debug)]
pub struct ZigzagService {
    shards: Box<[Shard]>,
    next: AtomicU64,
    metrics: Metrics,
    /// The [`SessionSupervisor`] whose store answers [`Query::Recover`] —
    /// the hook's only reader. Only a [`Weak`] reference: the supervisor
    /// owns the service, never the other way around, so dropping the
    /// supervisor detaches it without a cycle.
    supervisor: Mutex<Option<Weak<SessionSupervisor>>>,
}

impl Default for ZigzagService {
    fn default() -> Self {
        ZigzagService::sharded(DEFAULT_SHARDS)
    }
}

impl ZigzagService {
    /// Creates an empty service with the default shard count.
    pub fn new() -> Self {
        ZigzagService::default()
    }

    /// Creates an empty service whose session table is split into
    /// `shards` independently locked shards (clamped to at least 1).
    /// Handles are dealt round-robin across shards, so a shard owns every
    /// `shards`-th session — the partition [`crate::serve`]'s worker
    /// threads dispatch over without cross-worker locking.
    pub fn sharded(shards: usize) -> Self {
        let mut table = Vec::new();
        table.resize_with(shards.max(1), Shard::default);
        ZigzagService {
            shards: table.into_boxed_slice(),
            next: AtomicU64::new(0),
            metrics: Metrics::default(),
            supervisor: Mutex::new(None),
        }
    }

    /// Registers (or replaces) the supervisor. `Weak`: the service must
    /// never keep its supervisor alive.
    pub(crate) fn set_supervisor(&self, sup: Weak<SessionSupervisor>) {
        *self
            .supervisor
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(sup);
    }

    /// The currently attached supervisor, if it is still alive.
    fn supervisor(&self) -> Option<Arc<SessionSupervisor>> {
        self.supervisor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .and_then(Weak::upgrade)
    }

    /// Number of session-table shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `id` — stable for the life of the service:
    /// `id.raw() % shard_count`.
    pub fn shard_of(&self, id: SessionId) -> usize {
        (id.0 % self.shards.len() as u64) as usize
    }

    /// The service's durability counters — billed into by its durable
    /// sessions' logs, by [`crate::store::SessionStore`] operations and
    /// by the export/import path, surfaced by [`Query::Stats`].
    pub fn store_stats(&self) -> &StoreStats {
        &self.metrics.store
    }

    /// The durability counters, for a durable session's log to bill.
    pub(crate) fn shared_store_stats(&self) -> Arc<StoreStats> {
        Arc::clone(&self.metrics.store)
    }

    /// Serializes a live session into a portable [`SessionSnapshot`] —
    /// the sending half of live migration (and the in-process form of
    /// [`Query::Export`]). The session keeps serving; the snapshot is a
    /// consistent point-in-time copy.
    ///
    /// # Errors
    ///
    /// Fails on unknown sessions, or if the session is poisoned.
    pub fn export(&self, id: SessionId) -> Result<SessionSnapshot, Error> {
        let snap = self.session(id)?.freeze()?;
        self.metrics
            .store
            .migrations
            .fetch_add(1, Ordering::Relaxed);
        Ok(snap)
    }

    /// Installs a shipped [`SessionSnapshot`] as a new session of this
    /// service, answering the handle it was assigned — the
    /// receiving half of live migration (and the in-process form of
    /// [`Query::Import`]). The restored session answers every query
    /// byte-identically to the exported one and accepts further appends.
    pub fn import(&self, snap: SessionSnapshot) -> SessionId {
        let session = crate::store::restore(snap);
        self.metrics
            .store
            .migrations
            .fetch_add(1, Ordering::Relaxed);
        self.install(session)
    }

    /// Installs an already-built session under a fresh handle — every
    /// open path, import, and the store's recovery path.
    pub(crate) fn install(&self, session: StreamSession) -> SessionId {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        // Table locks guard pure HashMap operations that cannot be
        // interrupted by a panic mid-mutation, so a poisoned lock (left
        // by a panic elsewhere while the lock was held on that stack) is
        // recovered rather than cascaded into every later caller.
        self.shards[(id % self.shards.len() as u64) as usize]
            .sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, Arc::new(session));
        SessionId(id)
    }

    /// Resolves a handle to its session, holding only the owning shard's
    /// lock, and only for the lookup.
    pub(crate) fn session(&self, id: SessionId) -> Result<Arc<StreamSession>, Error> {
        self.shards[self.shard_of(id)]
            .sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id.0)
            .cloned()
            .ok_or(Error::UnknownSession { id })
    }

    /// Opens a batch session over a complete recorded run: the run is
    /// restored as the last prefix of its own event stream
    /// (`IncrementalEngine::from_prefix`, one pass), so the session
    /// answers exactly like [`ZigzagService::open_replay`] of the same run
    /// and accepts further appends. With a coordination spec, the
    /// `CoordDecision` verdict is decided here, at open.
    pub fn open_batch(&self, run: Run, config: SessionConfig) -> SessionId {
        self.install(StreamSession::of_run(run, config))
    }

    /// Opens a stream session over an empty stream on `context`,
    /// recording up to `horizon`. Feed it with
    /// [`ZigzagService::append`].
    pub fn open_stream(
        &self,
        context: Arc<Context>,
        horizon: Time,
        config: SessionConfig,
    ) -> SessionId {
        self.install(StreamSession::new(context, horizon, config))
    }

    /// Opens a stream session and replays a recorded run into it event by
    /// event — the facade form of `IncrementalEngine::ingest` /
    /// `StreamDriver::replay`, returning the session and the per-event
    /// reports.
    ///
    /// # Errors
    ///
    /// Fails if the recorded run is internally inconsistent.
    pub fn open_replay(
        &self,
        run: &Run,
        config: SessionConfig,
    ) -> Result<(SessionId, Vec<AppendReport>), Error> {
        let session = StreamSession::new(run.context_arc(), run.horizon(), config);
        let mut cursor = RunCursor::new(run);
        let mut reports = Vec::with_capacity(cursor.remaining());
        while let Some(ev) = cursor.next_event() {
            reports.push(session.append(&ev)?);
        }
        Ok((self.install(session), reports))
    }

    /// Appends one event to a session — the one append path, which a wire
    /// [`Query::Append`] and [`crate::SessionStore::append`] reach too.
    /// Only that session's own locks are taken; queries on other
    /// sessions proceed. A durable session logs the event.
    ///
    /// # Errors
    ///
    /// Fails on unknown sessions, or as [`StreamSession::append`] does.
    pub fn append(&self, id: SessionId, ev: &RunEvent) -> Result<AppendReport, Error> {
        self.session(id)?.append(ev)
    }

    /// A session's current event count — the idempotent probe behind
    /// [`Query::EventCount`] and the client's exactly-once append.
    ///
    /// # Errors
    ///
    /// Fails on unknown sessions, or if the session is poisoned.
    pub fn event_count(&self, id: SessionId) -> Result<u64, Error> {
        Ok(self.session(id)?.event_count()? as u64)
    }

    /// The recovery sweep behind [`Query::Recover`]: delegates to the
    /// attached supervisor.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Store`] when no supervisor is attached, or
    /// propagates the first recovery failure.
    pub(crate) fn recover_routed(&self) -> Result<Vec<(String, SessionId)>, Error> {
        match self.supervisor() {
            Some(sup) => Ok(sup
                .store()
                .recover_all(self)?
                .into_iter()
                .map(|(name, rec)| (name, rec.id))
                .collect()),
            None => Err(Error::Store {
                detail: "no supervisor is attached to this service".into(),
            }),
        }
    }

    /// Answers one query (or a whole [`Query::QueryBatch`]) against a
    /// session — *the* code path every caller shares, byte-identical to
    /// the corresponding direct engine calls (pinned by the differential
    /// oracle). Evaluation happens outside the session table's lock.
    ///
    /// # Errors
    ///
    /// Fails on unknown sessions or on the underlying engine error of the
    /// failing query.
    pub fn dispatch(&self, id: SessionId, query: &Query) -> Result<Response, Error> {
        self.route(id, query, || self.stats())
    }

    /// Routes one query addressed to `id` — the one `match` shared by
    /// [`ZigzagService::dispatch`] and the [`crate::serve`] /
    /// [`crate::net`] loops, which differ only in the `stats` hook that
    /// builds the [`Query::Stats`] answer (a socket server attaches its
    /// queue gauges and transport counters). Every query resolves its
    /// session through the live table, once.
    ///
    /// Service-level operations are answered here, before any session is
    /// resolved, and are not counted as dispatches (they measure or move
    /// the serving load, they aren't part of it). For Stats, Import and
    /// Recover the id is routing information only; Export, Append and
    /// EventCount act on its session. Every other query is a session
    /// query, timed into the service's histogram.
    pub(crate) fn route(
        &self,
        id: SessionId,
        query: &Query,
        stats: impl FnOnce() -> StatsReport,
    ) -> Result<Response, Error> {
        match query {
            Query::Stats => Ok(Response::Stats(Box::new(stats()))),
            Query::Export => Ok(Response::Exported(Box::new(self.export(id)?))),
            Query::Import(snap) => Ok(Response::Imported(self.import((**snap).clone()))),
            Query::Append(ev) => {
                let session = self.session(id)?;
                session.append(ev)?;
                Ok(Response::Appended(session.event_count()? as u64))
            }
            Query::EventCount => Ok(Response::EventCount(self.event_count(id)?)),
            Query::Recover => Ok(Response::Recovered(self.recover_routed()?)),
            _ => {
                let session = self.session(id)?;
                let start = Instant::now();
                let out = session.dispatch(query);
                self.metrics.dispatches.fetch_add(1, Ordering::Relaxed);
                self.metrics.latency.record(start.elapsed());
                out
            }
        }
    }

    /// A point-in-time [`StatsReport`] with no queue gauges and no
    /// transport counters — the answer [`ZigzagService::dispatch`] gives
    /// [`Query::Stats`]. A [`crate::net`] server answers with
    /// [`ZigzagService::stats_with_net`] instead.
    pub fn stats(&self) -> StatsReport {
        self.stats_with_net(&[], TransportCounters::default())
    }

    /// A point-in-time [`StatsReport`] carrying the caller's per-worker
    /// queue-depth gauges and transport counters — the form a
    /// [`crate::net`] server answers [`Query::Stats`] with. Cache
    /// counters are summed over every open session; each shard's lock is
    /// held only long enough to copy its handle list, never across
    /// counter collection.
    pub fn stats_with_net(
        &self,
        queue_depths: &[u64],
        transport: TransportCounters,
    ) -> StatsReport {
        let mut sessions_per_shard = Vec::with_capacity(self.shards.len());
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        for shard in self.shards.iter() {
            let sessions: Vec<Arc<StreamSession>> = shard
                .sessions
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .values()
                .cloned()
                .collect();
            sessions_per_shard.push(sessions.len() as u64);
            for session in &sessions {
                // A poisoned session reports zeros: its cache is
                // unreachable and will never be served from again.
                let (h, m, e) = session
                    .with_engine(IncrementalEngine::observer_cache_counters)
                    .unwrap_or((0, 0, 0));
                hits += h;
                misses += m;
                evictions += e;
            }
        }
        StatsReport {
            queries: self.metrics.dispatches.load(Ordering::Relaxed),
            latency: self.metrics.latency.snapshot(),
            observer_hits: hits,
            observer_misses: misses,
            observer_evictions: evictions,
            sessions_per_shard,
            queue_depths: queue_depths.to_vec(),
            transport,
            store: self.metrics.store.snapshot(),
        }
    }

    /// Runs `f` over a session's grown run without cloning it. The
    /// closure must not call back into the *same* session (it holds that
    /// session's read lock); calls on other sessions are fine.
    ///
    /// # Errors
    ///
    /// Fails on unknown sessions, or with [`Error::Internal`] on a
    /// session poisoned by a panicked append.
    pub fn with_run<T>(&self, id: SessionId, f: impl FnOnce(&Run) -> T) -> Result<T, Error> {
        self.session(id)?.with_engine(|engine| f(engine.run()))
    }

    /// Number of observer states a session currently holds warm — the
    /// quantity bounded by [`crate::CachePolicy::max_observers`]. A
    /// poisoned session reports 0.
    ///
    /// # Errors
    ///
    /// Fails on unknown sessions.
    pub fn observer_count(&self, id: SessionId) -> Result<usize, Error> {
        Ok(self
            .session(id)?
            .with_engine(IncrementalEngine::observer_count)
            .unwrap_or(0))
    }

    /// Number of open sessions (summed across shards).
    pub fn session_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.sessions
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .len()
            })
            .sum()
    }

    /// Closes a session, releasing its state. A durable session's log is
    /// released with it (once no in-flight request still holds the
    /// session), so its store may recover the log again.
    ///
    /// # Errors
    ///
    /// Fails on unknown sessions.
    pub fn close(&self, id: SessionId) -> Result<(), Error> {
        self.shards[self.shard_of(id)]
            .sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id.0)
            .map(|_| ())
            .ok_or(Error::UnknownSession { id })
    }
}
