//! The watch function (§3.4, §4.1).
//!
//! Watch delivery is decoupled from the leader into a separate free
//! function: "since hundreds of clients can register a single watch,
//! using a serverless function allows us to adjust resource allocation to
//! the workload". The function pushes the event to every subscribed
//! session in parallel and then removes the watch id from each region's
//! epoch counter (Algorithm 2 ➏) — only after that may clients read data
//! versions newer than the triggering transaction (Z4).

use crate::api::WatchEvent;
use crate::messages::ClientNotification;
use crate::notify::ClientBus;
use crate::system_store::SystemStore;
use bytes::Bytes;
use fk_cloud::trace::Ctx;
use fk_cloud::value::Value;
use fk_cloud::{CloudResult, Region};

/// A delivery task handed from the leader to the watch function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchTask {
    /// Watch instance id (already added to the epoch counters).
    pub watch_id: u64,
    /// Sessions to notify.
    pub sessions: Vec<String>,
    /// The event to deliver.
    pub event: WatchEvent,
    /// Regions whose epoch counters hold the id.
    pub regions: Vec<u8>,
}

impl WatchTask {
    /// Serializes for function invocation (binary frame,
    /// [`crate::codec`]).
    pub fn encode(&self) -> Bytes {
        crate::codec::encode_watch_task(self)
    }

    /// Deserializes from an invocation payload; `None` if it is not an
    /// exact watch-task frame.
    pub fn decode(body: &[u8]) -> Option<Self> {
        crate::codec::decode_watch_task(body)
    }
}

/// The watch function body.
pub struct WatchFunction {
    system: SystemStore,
    bus: ClientBus,
}

impl WatchFunction {
    /// Creates the function body.
    pub fn new(system: SystemStore, bus: ClientBus) -> Self {
        WatchFunction { system, bus }
    }

    /// Delivers the event and clears the epoch marks.
    pub fn run(&self, ctx: &Ctx, task: &WatchTask) -> CloudResult<()> {
        // Parallel fan-out to subscribers.
        let mut forks = Vec::with_capacity(task.sessions.len());
        for session in &task.sessions {
            let child = ctx.fork();
            self.bus.notify(
                &child,
                session,
                ClientNotification::Watch(task.event.clone()),
            );
            forks.push(child);
        }
        ctx.join(&forks);
        // ➏ epoch[region] -= w: delivery complete, reads may proceed.
        for region in &task.regions {
            self.system
                .epoch(Region(*region))
                .remove(ctx, vec![Value::Num(task.watch_id as i64)])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::WatchEventType;
    use fk_cloud::metering::Meter;
    use fk_cloud::KvStore;

    fn task() -> WatchTask {
        WatchTask {
            watch_id: 7,
            sessions: vec!["s1".into(), "s2".into()],
            event: WatchEvent {
                watch_id: 7,
                path: "/n".into(),
                event_type: WatchEventType::NodeDataChanged,
                txid: 42,
                children: None,
            },
            regions: vec![Region::US_EAST_1.0],
        }
    }

    #[test]
    fn task_roundtrip() {
        let t = task();
        assert_eq!(WatchTask::decode(&t.encode()).unwrap(), t);
        assert!(WatchTask::decode(b"junk").is_none());
    }

    #[test]
    fn delivers_to_all_sessions_and_clears_epoch() {
        let kv = KvStore::new("sys", Region::US_EAST_1, Meter::new());
        let system = SystemStore::new(kv, 1000);
        let bus = ClientBus::new();
        let ctx = Ctx::disabled();
        let (rx1, _) = bus.register("s1");
        let (rx2, _) = bus.register("s2");
        // Pre-mark the epoch as the leader would.
        system
            .epoch(Region::US_EAST_1)
            .append(&ctx, vec![Value::Num(7)])
            .unwrap();

        let f = WatchFunction::new(system.clone(), bus);
        f.run(&ctx, &task()).unwrap();

        for rx in [rx1, rx2] {
            match rx.try_recv().unwrap() {
                ClientNotification::Watch(ev) => {
                    assert_eq!(ev.path, "/n");
                    assert_eq!(ev.txid, 42);
                }
                other => panic!("unexpected notification {other:?}"),
            }
        }
        assert!(system.epoch_marks(&ctx, Region::US_EAST_1).is_empty());
    }

    #[test]
    fn gone_sessions_do_not_block_delivery() {
        let kv = KvStore::new("sys", Region::US_EAST_1, Meter::new());
        let system = SystemStore::new(kv, 1000);
        let bus = ClientBus::new();
        let ctx = Ctx::disabled();
        let f = WatchFunction::new(system.clone(), bus);
        // No sessions registered at all: delivery succeeds vacuously and
        // the epoch is still cleared.
        system
            .epoch(Region::US_EAST_1)
            .append(&ctx, vec![Value::Num(7)])
            .unwrap();
        f.run(&ctx, &task()).unwrap();
        assert!(system.epoch_marks(&ctx, Region::US_EAST_1).is_empty());
    }
}
