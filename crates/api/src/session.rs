//! Session handles: one live, append-only run per session.
//!
//! A [`StreamSession`] is the facade's unit of state: an
//! [`IncrementalEngine`] (driven by a [`zigzag_coord::StreamDriver`] when
//! the config carries a coordination spec) that grows one [`RunEvent`] at
//! a time. A **batch** session over a complete recorded [`Run`] is the
//! same thing restored from its run: what σ knows depends only on
//! `past(r, σ)` (`GE(r, σ)`, Definition 16; Theorem 4), so a complete run
//! is just the last prefix of its own event stream, and
//! [`IncrementalEngine::from_prefix`] builds its `GB(r)` in one pass
//! (observer states read the run's own message records). Every session
//! therefore answers the whole
//! [`Query`] family through one dispatch path and accepts further
//! appends, however it was opened. Byte-identity of every answer with the
//! corresponding direct engine call is pinned by the differential oracle
//! (`tests/oracle.rs`).
//!
//! # Locking
//!
//! Sessions synchronize **individually**, never through a shared lock:
//! each session guards its growing engine with one `RwLock` — queries
//! share read access, appends take the write side. One slow query on one
//! session never blocks traffic on another. A durable session also holds
//! its log's append lock across each append, but the write side only
//! while it applies the event (see [`crate::store`]). The only
//! re-entrancy hazard is a [`crate::ZigzagService::with_run`] closure
//! calling back into the *same* session (read-read recursion on its
//! `RwLock`), which the method docs forbid.

use std::sync::{Arc, RwLock, RwLockReadGuard};

use zigzag_bcm::stream::RunEvent;
use zigzag_bcm::{Context, NodeId, Run, Time};
use zigzag_coord::{ProbeSemantics, StreamDriver, TimedCoordination};
use zigzag_core::incremental::IncrementalEngine;

use crate::config::SessionConfig;
use crate::error::Error;
use crate::query::{CoordReport, FastRunReport, Query, Response, WitnessReport};
use crate::store::{Log, SessionSnapshot};

/// What one appended event meant for a stream session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendReport {
    /// The node the event created.
    pub node: NodeId,
    /// Its time.
    pub time: Time,
    /// For sessions with a coordination spec: `Some(decision)` when the
    /// node belongs to `B` (whether `B` knows enough to act right there),
    /// `None` otherwise. Always `None` without a spec.
    pub b_knows: Option<bool>,
}

/// The stream session's engine, with or without a coordination driver.
#[derive(Debug)]
enum StreamInner {
    /// No spec configured: the bare incremental engine.
    Plain(IncrementalEngine),
    /// Spec configured: a [`StreamDriver`] evaluating Protocol 2 online
    /// after every append, wrapping (and owning) the engine.
    Coord(StreamDriver),
}

impl StreamInner {
    fn engine(&self) -> &IncrementalEngine {
        match self {
            StreamInner::Plain(engine) => engine,
            StreamInner::Coord(driver) => driver.engine(),
        }
    }

    /// Answers one query on the current prefix — *the* dispatch code
    /// path of single calls, batches and the bench harness.
    fn dispatch(&self, query: &Query) -> Result<Response, Error> {
        let engine = self.engine();
        match query {
            Query::MaxX {
                sigma,
                theta1,
                theta2,
            } => Ok(Response::MaxX(
                engine.engine(*sigma)?.max_x(theta1, theta2)?,
            )),
            Query::Knows {
                sigma,
                theta1,
                theta2,
                x,
            } => Ok(Response::Knows(
                engine.engine(*sigma)?.knows(theta1, theta2, *x)?,
            )),
            Query::Witness {
                sigma,
                theta1,
                theta2,
            } => Ok(Response::Witness(
                engine
                    .engine(*sigma)?
                    .witness(theta1, theta2)?
                    .map(|(weight, vz)| WitnessReport {
                        weight,
                        pattern: vz.to_string(),
                    }),
            )),
            Query::MaxXMatrix { sigma } => Ok(Response::MaxXMatrix(
                engine.engine(*sigma)?.max_x_basic_matrix()?,
            )),
            Query::TightBound { from, to } => {
                Ok(Response::TightBound(engine.tight_bound(*from, *to)?))
            }
            Query::FastRun {
                sigma,
                theta,
                gamma,
                extra_horizon,
            } => {
                let fr = engine
                    .engine(*sigma)?
                    .fast_run_of(theta, *gamma, *extra_horizon)?;
                Ok(Response::FastRun(FastRunReport {
                    sigma: fr.sigma,
                    gamma: fr.gamma,
                    theta_time: fr.theta_time,
                    run: fr.run,
                }))
            }
            Query::CoordDecision => match self {
                StreamInner::Plain(_) => Err(Error::NoSpec),
                StreamInner::Coord(driver) => Ok(Response::CoordDecision(CoordReport {
                    first_known: driver.first_known(),
                    sigma_c: driver.sigma_c(),
                })),
            },
            // Service-level: a bare session has no service-wide counters
            // to answer Stats with, cannot export its own handle or
            // install an import, takes appends through its own `append`
            // and never inside a batch (where the exactly-once probe
            // could not tell which member landed), and cannot sweep
            // the store directory. `ZigzagService::route` answers them
            // before any session is resolved.
            Query::Stats
            | Query::Export
            | Query::Import(_)
            | Query::Append(_)
            | Query::EventCount
            | Query::Recover => Err(Error::ServiceLevelQuery),
            Query::QueryBatch(queries) => queries
                .iter()
                .map(|q| self.dispatch(q))
                .collect::<Result<Vec<_>, _>>()
                .map(Response::ResponseBatch),
        }
    }
}

/// A session: a live, append-only run wrapped around an
/// [`IncrementalEngine`] (plus a [`StreamDriver`] when a coordination
/// spec is configured), under the session's [`CachePolicy`]. The engine
/// sits behind a session-local `RwLock`: queries share read access,
/// appends take the write side — no cross-session lock exists. A durable
/// session also owns its log; see the [module docs](self).
///
/// [`CachePolicy`]: crate::CachePolicy
#[derive(Debug)]
pub struct StreamSession {
    inner: RwLock<StreamInner>,
    config: SessionConfig,
    log: Option<Log>,
}

impl StreamSession {
    /// Opens a session over an empty stream on `context`, recording up to
    /// `horizon`.
    pub fn new(context: Arc<Context>, horizon: Time, config: SessionConfig) -> Self {
        Self::of_prefix(IncrementalEngine::new(context, horizon), config)
    }

    /// Opens a session over a complete recorded run — the batch form: the
    /// run restored as the last prefix of its own stream.
    pub(crate) fn of_run(run: Run, config: SessionConfig) -> Self {
        Self::of_prefix(IncrementalEngine::from_prefix(run), config)
    }

    /// Opens a session over an engine holding a prefix nobody recorded a
    /// decision state for. With a spec, the coordination progress is
    /// decided once, here; each decision's state is dropped after it, so
    /// the session opens with an empty observer cache.
    fn of_prefix(engine: IncrementalEngine, config: SessionConfig) -> Self {
        Self::assemble(config, engine, |spec, engine, probe| {
            // The progress walk decides at the prefix's own `B`-nodes
            // only, and an engine holds every node of its prefix, so it
            // cannot fail.
            StreamDriver::of_prefix(spec, engine, probe).expect("a prefix holds its own B-nodes")
        })
    }

    /// Resumes a session over an engine already holding a recovered (or
    /// imported) run prefix, seeding the coordination progress a snapshot
    /// recorded — the restore path of [`crate::store`].
    pub(crate) fn resume(
        config: SessionConfig,
        engine: IncrementalEngine,
        first_known: Option<NodeId>,
        sigma_c: Option<NodeId>,
    ) -> Self {
        Self::assemble(config, engine, |spec, engine, probe| {
            StreamDriver::resume(spec, engine, probe, sigma_c, first_known)
        })
    }

    /// Applies `config`'s observer cap to `engine` and wraps it in a
    /// coordination driver when `config` has a spec.
    fn assemble(
        config: SessionConfig,
        mut engine: IncrementalEngine,
        driver: impl FnOnce(TimedCoordination, IncrementalEngine, ProbeSemantics) -> StreamDriver,
    ) -> Self {
        engine.set_observer_cap(config.cache.max_observers);
        let inner = match &config.spec {
            Some(spec) => StreamInner::Coord(driver(spec.clone(), engine, config.probe)),
            None => StreamInner::Plain(engine),
        };
        StreamSession {
            inner: RwLock::new(inner),
            config,
            log: None,
        }
    }

    /// This session, made durable: it logs every append to `log`.
    pub(crate) fn logged(self, log: Log) -> Self {
        StreamSession {
            log: Some(log),
            ..self
        }
    }

    /// The log of a durable session.
    pub(crate) fn log(&self) -> Option<&Log> {
        self.log.as_ref()
    }

    /// A point-in-time [`SessionSnapshot`] of everything a durable
    /// snapshot (or a migration export) needs, extracted under **one**
    /// read-lock acquisition so the run prefix, coordination progress and
    /// warm-observer manifest are mutually consistent even under
    /// concurrent appends.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Internal`] if the session is poisoned.
    pub fn freeze(&self) -> Result<SessionSnapshot, Error> {
        let inner = self.read()?;
        let engine = inner.engine();
        let (first_known, sigma_c) = match &*inner {
            StreamInner::Plain(_) => (None, None),
            StreamInner::Coord(driver) => (driver.first_known(), driver.sigma_c()),
        };
        Ok(SessionSnapshot {
            config: self.config.clone(),
            first_known,
            sigma_c,
            observers: engine.observer_keys(),
            run: engine.run().clone(),
        })
    }

    /// A poisoned session lock is *not* recovered: only the write side
    /// (an append) can poison it in practice, and an append that panicked
    /// mid-step may have left the engine's incremental state
    /// half-updated. Refusing with a typed error (instead of cascading
    /// the panic into every later caller) keeps the server alive while
    /// quarantining the session.
    fn read(&self) -> Result<RwLockReadGuard<'_, StreamInner>, Error> {
        self.inner.read().map_err(|_| Error::Internal {
            detail: "stream session poisoned by a panicked append".into(),
        })
    }

    /// Runs `f` over the underlying incremental engine (shared read
    /// access: concurrent queries proceed, appends wait).
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Internal`] if an earlier append panicked
    /// mid-step and poisoned the session.
    pub fn with_engine<T>(&self, f: impl FnOnce(&IncrementalEngine) -> T) -> Result<T, Error> {
        Ok(f(self.read()?.engine()))
    }

    /// Number of events appended so far (for a batch-opened session, the
    /// recorded run's events count as appended).
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Internal`] if the session is poisoned.
    pub fn event_count(&self) -> Result<usize, Error> {
        self.with_engine(IncrementalEngine::event_count)
    }

    /// Appends one event, evaluating the coordination decision when a
    /// spec is configured. A durable session then logs it, under its
    /// append lock (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// Fails if the event is inconsistent with the grown prefix, as
    /// [`IncrementalEngine::append_event`] documents. A rejected event
    /// changes nothing: the session keeps answering and appending as if
    /// it was never offered. A durable session fails with
    /// [`Error::Store`] if the log write fails, and from then on refuses
    /// every append with [`Error::Store`].
    pub fn append(&self, ev: &RunEvent) -> Result<AppendReport, Error> {
        let Some(log) = &self.log else {
            return self.apply(ev);
        };
        let mut writer = log.lock()?;
        let report = self.apply(ev)?;
        log.record(&mut writer, ev, self)?;
        Ok(report)
    }

    /// Applies one event to the engine, under the write lock.
    fn apply(&self, ev: &RunEvent) -> Result<AppendReport, Error> {
        let mut inner = self.inner.write().map_err(|_| Error::Internal {
            detail: "stream session poisoned by a panicked append".into(),
        })?;
        Ok(match &mut *inner {
            StreamInner::Plain(engine) => {
                let node = engine.append_event(ev)?;
                AppendReport {
                    node,
                    time: ev.time,
                    b_knows: None,
                }
            }
            StreamInner::Coord(driver) => {
                let step = driver.step(ev)?;
                AppendReport {
                    node: step.node,
                    time: step.time,
                    b_knows: step.b_knows,
                }
            }
        })
    }

    /// Answers one query on the current prefix (shared read access).
    /// Service-level operations ([`Query::Stats`], [`Query::Append`], …)
    /// are refused with [`Error::ServiceLevelQuery`]; the service
    /// answers those itself.
    ///
    /// # Errors
    ///
    /// Propagates the underlying engine error for the failing query.
    pub fn dispatch(&self, query: &Query) -> Result<Response, Error> {
        self.read()?.dispatch(query)
    }
}
