//! The heartbeat function (§3.6).
//!
//! ZooKeeper keeps sessions alive through heartbeats on the TCP
//! connection; FaaSKeeper replaces them with a *scheduled* function that
//! periodically scans the session table, pings every client in parallel,
//! and starts an eviction for sessions that stop answering — placing a
//! deregistration request in the processing queue so that ephemeral-node
//! cleanup flows through the ordinary ordered write path.

use crate::follower::INTERNAL_REQUEST;
use crate::messages::{ClientNotification, ClientRequest, WriteOp};
use crate::notify::ClientBus;
use crate::replica::CommittedFloors;
use crate::system_store::SystemStore;
use fk_cloud::queue::Queue;
use fk_cloud::trace::Ctx;
use fk_cloud::CloudResult;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Outcome of one heartbeat round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeartbeatReport {
    /// Sessions found in the table scan.
    pub scanned: usize,
    /// Sessions pinged.
    pub pinged: usize,
    /// Sessions that failed the ping and were queued for eviction.
    pub evicted: Vec<String>,
}

/// The heartbeat function body.
pub struct Heartbeat {
    system: SystemStore,
    bus: ClientBus,
    write_queue: Queue,
    /// Monotone round counter carried in each ping.
    round: AtomicU64,
    /// The leader tier's distributed-txid high-water publication, when
    /// deployed: each ping piggybacks `floors.committed()` (the min
    /// over shard groups) so an idle session's MRD keeps advancing —
    /// and its cache/replica hits stay eligible — without a write.
    floors: Option<Arc<CommittedFloors>>,
}

impl Heartbeat {
    /// Creates the function body.
    pub fn new(system: SystemStore, bus: ClientBus, write_queue: Queue) -> Self {
        Heartbeat {
            system,
            bus,
            write_queue,
            round: AtomicU64::new(0),
            floors: None,
        }
    }

    /// Builder: piggyback the leaders' distributed high-water marks onto
    /// every ping ([`CommittedFloors`]).
    pub fn with_floors(mut self, floors: Arc<CommittedFloors>) -> Self {
        self.floors = Some(floors);
        self
    }

    /// One scheduled round: scan, parallel ping, evict non-responders.
    pub fn run(&self, ctx: &Ctx) -> CloudResult<HeartbeatReport> {
        let sessions = ctx.span("scan_sessions", || self.system.list_sessions(ctx));
        let mut report = HeartbeatReport {
            scanned: sessions.len(),
            ..HeartbeatReport::default()
        };
        // "The function sends in parallel heartbeat messages to clients":
        // the round trips overlap, but building and dispatching each ping
        // is CPU work on the function's (memory-scaled) allocation.
        let round = self.round.fetch_add(1, Ordering::SeqCst) + 1;
        let committed = self
            .floors
            .as_ref()
            .map(|floors| floors.committed())
            .unwrap_or(0);
        let mut forks = Vec::with_capacity(sessions.len());
        let mut dead = Vec::new();
        ctx.span("ping_clients", || {
            for (id, _item) in &sessions {
                ctx.charge(fk_cloud::ops::Op::FnCompute, 16 * 1024);
                let child = ctx.fork();
                report.pinged += 1;
                let ping = ClientNotification::Ping { round, committed };
                if !self.bus.ping_with(&child, id, ping) {
                    dead.push(id.clone());
                }
                forks.push(child);
            }
        });
        ctx.join(&forks);
        for id in dead {
            let request = ClientRequest {
                session_id: id.clone(),
                request_id: INTERNAL_REQUEST,
                op: WriteOp::CloseSession,
            };
            // A duplicate CloseSession is absorbed by the follower's
            // internal-request handling.
            ctx.span("evict", || {
                self.write_queue.send(ctx, &id, request.encode())
            })?;
            report.evicted.push(id);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fk_cloud::metering::Meter;
    use fk_cloud::{KvStore, QueueKind, Region};

    fn setup() -> (Heartbeat, SystemStore, ClientBus, Queue, Ctx) {
        let kv = KvStore::new("sys", Region::US_EAST_1, Meter::new());
        let system = SystemStore::new(kv, 1000);
        let bus = ClientBus::new();
        let queue = Queue::new("writes", QueueKind::Fifo, Region::US_EAST_1, Meter::new());
        let hb = Heartbeat::new(system.clone(), bus.clone(), queue.clone());
        (hb, system, bus, queue, Ctx::disabled())
    }

    #[test]
    fn responsive_clients_stay_alive() {
        let (hb, system, bus, queue, ctx) = setup();
        system.register_session(&ctx, "s1", 0).unwrap();
        let (_rx, _alive) = bus.register("s1");
        let report = hb.run(&ctx).unwrap();
        assert_eq!(report.scanned, 1);
        assert_eq!(report.pinged, 1);
        assert!(report.evicted.is_empty());
        assert_eq!(queue.pending(), 0);
    }

    #[test]
    fn silent_clients_are_evicted_via_queue() {
        let (hb, system, bus, queue, ctx) = setup();
        system.register_session(&ctx, "s1", 0).unwrap();
        system.register_session(&ctx, "s2", 0).unwrap();
        let (_rx1, _alive1) = bus.register("s1");
        let (_rx2, alive2) = bus.register("s2");
        alive2.store(false, std::sync::atomic::Ordering::SeqCst);

        let report = hb.run(&ctx).unwrap();
        assert_eq!(report.evicted, vec!["s2".to_owned()]);
        // The eviction is an ordinary CloseSession request on the session's
        // own ordering group.
        let batch = queue
            .receive(10, std::time::Duration::from_secs(5))
            .unwrap();
        let req = ClientRequest::decode(&batch.messages[0].body).unwrap();
        assert_eq!(req.session_id, "s2");
        assert_eq!(req.op, WriteOp::CloseSession);
        assert_eq!(&*batch.messages[0].group, "s2");
    }

    #[test]
    fn unregistered_endpoint_counts_as_dead() {
        let (hb, system, _bus, queue, ctx) = setup();
        system.register_session(&ctx, "ghost", 0).unwrap();
        let report = hb.run(&ctx).unwrap();
        assert_eq!(report.evicted, vec!["ghost".to_owned()]);
        assert_eq!(queue.pending(), 1);
    }

    #[test]
    fn pings_piggyback_committed_floor() {
        let kv = KvStore::new("sys", Region::US_EAST_1, Meter::new());
        let system = SystemStore::new(kv, 1000);
        let bus = ClientBus::new();
        let queue = Queue::new("writes", QueueKind::Fifo, Region::US_EAST_1, Meter::new());
        let floors = Arc::new(CommittedFloors::new(1));
        floors.publish(0, 17);
        let hb = Heartbeat::new(system.clone(), bus.clone(), queue).with_floors(floors.clone());
        let ctx = Ctx::disabled();
        system.register_session(&ctx, "s1", 0).unwrap();
        let (rx, _alive) = bus.register("s1");
        hb.run(&ctx).unwrap();
        assert_eq!(
            rx.try_recv().unwrap(),
            ClientNotification::Ping {
                round: 1,
                committed: 17
            }
        );
        // The floor advances between rounds; so does the round counter.
        floors.publish(0, 23);
        hb.run(&ctx).unwrap();
        assert_eq!(
            rx.try_recv().unwrap(),
            ClientNotification::Ping {
                round: 2,
                committed: 23
            }
        );
    }

    #[test]
    fn empty_table_is_a_noop() {
        let (hb, _system, _bus, queue, ctx) = setup();
        let report = hb.run(&ctx).unwrap();
        assert_eq!(report, HeartbeatReport::default());
        assert_eq!(queue.pending(), 0);
    }
}
