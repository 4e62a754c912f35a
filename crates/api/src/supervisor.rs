//! Supervised recovery: a [`SessionSupervisor`] binds a
//! [`SessionStore`] to a [`ZigzagService`] so crash recovery is a serving
//! property, not a manual chore.
//!
//! [`SessionStore::recover`] rebuilds one session on demand, but after a
//! crash someone has to list the store directory and call it for each
//! log. The supervisor does that:
//!
//! * **On startup** ([`SessionSupervisor::bind`]) every `<name>.log` in
//!   the store directory whose log no live session of the store holds is
//!   recovered and reattached, and orphaned `<name>.snap.tmp` files (a
//!   crash between snapshot write and rename) are swept.
//! * **On demand** a [`crate::Query::Recover`] frame — over a socket or
//!   in-process — triggers the same sweep and answers which sessions it
//!   attached, so a fleet controller can drive recovery remotely.
//!
//! Appends need no supervisor: a durable session owns its log (see
//! [`crate::store`]), so a wire [`crate::Query::Append`] is logged like
//! any other append, whether or not a supervisor is bound.
//!
//! Ownership is deliberately one-way: the supervisor holds `Arc`s to the
//! service and store; the service holds only a [`std::sync::Weak`] hook
//! back, which only [`crate::Query::Recover`] reads. Dropping the
//! supervisor detaches the hook — no reference cycle, and a service can
//! outlive (or never have) its supervisor.

use std::sync::Arc;

use crate::error::Error;
use crate::service::ZigzagService;
use crate::store::{Recovered, SessionStore};

/// What a recovery sweep reattached: `(name, recovery report)` pairs,
/// sorted by name.
pub type RecoverySweep = Vec<(String, Recovered)>;

/// Binds a [`SessionStore`] to a [`ZigzagService`]; see the
/// [module docs](self).
#[derive(Debug)]
pub struct SessionSupervisor {
    service: Arc<ZigzagService>,
    store: Arc<SessionStore>,
}

impl SessionSupervisor {
    /// Binds `store` to `service`, registers the recovery hook, and runs
    /// the startup recovery sweep: every log in the store directory that
    /// no live session of `store` holds is recovered and reattached.
    /// Returns the supervisor and what the sweep recovered (sorted by
    /// name).
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Store`] if the sweep fails; sessions recovered
    /// before the failure stay attached, and the hook is *not*
    /// registered (the caller holds no supervisor to keep it alive).
    pub fn bind(
        service: Arc<ZigzagService>,
        store: Arc<SessionStore>,
    ) -> Result<(Arc<Self>, RecoverySweep), Error> {
        let recovered = store.recover_all(&service)?;
        let sup = Arc::new(SessionSupervisor { service, store });
        sup.service.set_supervisor(Arc::downgrade(&sup));
        Ok((sup, recovered))
    }

    /// The supervised service.
    pub fn service(&self) -> &Arc<ZigzagService> {
        &self.service
    }

    /// The supervised store.
    pub fn store(&self) -> &Arc<SessionStore> {
        &self.store
    }

    /// Runs the recovery sweep now — the in-process form of
    /// [`crate::Query::Recover`].
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Store`] if listing or any recovery fails.
    pub fn recover_now(&self) -> Result<RecoverySweep, Error> {
        self.store.recover_all(&self.service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::Arc;

    use zigzag_bcm::protocols::Ffip;
    use zigzag_bcm::scheduler::EagerScheduler;
    use zigzag_bcm::{RunCursor, SimConfig, Simulator, Time};

    use crate::config::SessionConfig;
    use crate::query::{Query, Response};
    use crate::store::StoreConfig;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "zigzag-supervisor-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

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

    #[test]
    fn bind_recovers_every_log_and_registers_the_hook() {
        let dir = tmpdir("bind");
        let run = fig_run();
        let events: Vec<_> = RunCursor::new(&run).collect();

        // First life: two durable sessions, then "crash" (drop all).
        {
            let service = ZigzagService::new();
            let store = SessionStore::open(&dir, StoreConfig::default()).unwrap();
            for name in ["alpha", "beta"] {
                let id = store
                    .open_stream(
                        &service,
                        name,
                        run.context_arc(),
                        run.horizon(),
                        SessionConfig::new(),
                    )
                    .unwrap();
                for ev in &events {
                    store.append(&service, id, ev).unwrap();
                }
            }
        }

        // Second life: bind recovers both automatically.
        let service = Arc::new(ZigzagService::new());
        let store = Arc::new(SessionStore::open(&dir, StoreConfig::default()).unwrap());
        let (sup, recovered) = SessionSupervisor::bind(service.clone(), store.clone()).unwrap();
        let names: Vec<&str> = recovered.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "beta"]);
        for (_, rec) in &recovered {
            assert_eq!(
                service.event_count(rec.id).unwrap(),
                events.len() as u64,
                "recovered session lost events"
            );
        }

        // The recovered sessions serve wire-level queries.
        let id = recovered[0].1.id;
        let Response::EventCount(n) = service.dispatch(id, &Query::EventCount).unwrap() else {
            panic!("wrong response variant");
        };
        assert_eq!(n, events.len() as u64);

        // Recover again: everything already attached, so the sweep is
        // empty — and the same holds through the Query::Recover path.
        assert!(sup.recover_now().unwrap().is_empty());
        let Response::Recovered(list) = service.dispatch(id, &Query::Recover).unwrap() else {
            panic!("wrong response variant");
        };
        assert!(list.is_empty());

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_the_supervisor_detaches_the_hook() {
        let dir = tmpdir("drop");
        let service = Arc::new(ZigzagService::new());
        let store = Arc::new(SessionStore::open(&dir, StoreConfig::default()).unwrap());
        let (sup, _) = SessionSupervisor::bind(service.clone(), store.clone()).unwrap();

        let run = fig_run();
        let id = service.open_replay(&run, SessionConfig::new()).unwrap().0;
        // With the supervisor attached, Recover answers (even if empty).
        assert!(service.dispatch(id, &Query::Recover).is_ok());
        drop(sup);
        // Detached: Recover now surfaces the typed no-supervisor error.
        let err = service.dispatch(id, &Query::Recover).unwrap_err();
        assert!(matches!(err, Error::Store { .. }), "got {err}");

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wire_appends_route_through_the_store() {
        let dir = tmpdir("route");
        let run = fig_run();
        let events: Vec<_> = RunCursor::new(&run).collect();

        let service = Arc::new(ZigzagService::new());
        let store = Arc::new(SessionStore::open(&dir, StoreConfig::default()).unwrap());
        let (_sup, _) = SessionSupervisor::bind(service.clone(), store.clone()).unwrap();
        let id = store
            .open_stream(
                &service,
                "gamma",
                run.context_arc(),
                run.horizon(),
                SessionConfig::new(),
            )
            .unwrap();

        for (k, ev) in events.iter().enumerate() {
            let Response::Appended(n) = service
                .dispatch(id, &Query::Append(Box::new(ev.clone())))
                .unwrap()
            else {
                panic!("wrong response variant");
            };
            assert_eq!(n, k as u64 + 1);
        }

        // The appends hit the log: once the session is closed, which
        // releases its log, a fresh service recovers all of them.
        drop(_sup);
        service.close(id).unwrap();
        let fresh = ZigzagService::new();
        let rec = store.recover(&fresh, "gamma").unwrap();
        assert_eq!(
            rec.restored_events + rec.replayed_events,
            events.len() as u64
        );
        assert!(!rec.truncated);

        let _ = fs::remove_dir_all(&dir);
    }
}
