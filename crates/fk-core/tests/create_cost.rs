//! A create pays for its own name, not for its siblings'.
//!
//! A create locks its parent's `node:` item and commits to it. That item
//! keeps a child count and a short pending children log, never the
//! children's names, so the lock and the commit bill the same key-value
//! write units under 10 siblings as under 5,000 (DynamoDB bills a write
//! per 1 kB of the item), and the item stays under 1 kB however many
//! children the node has.
//!
//! `cargo test -q -p fk-core --test create_cost -- --nocapture` prints
//! both creates' key-value bill.

use fk_cloud::trace::Ctx;
use fk_core::api::CreateMode;
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::follower::Follower;
use fk_core::leader::Leader;
use fk_core::messages::{ClientRequest, Payload, WriteOp};
use std::cell::Cell;
use std::time::Duration;

/// A one-lane deployment driven end to end by one session.
struct Rig {
    deployment: Deployment,
    follower: Follower,
    leader: Leader,
    ctx: Ctx,
    requests: Cell<u64>,
    _endpoint: crossbeam::channel::Receiver<fk_core::messages::ClientNotification>,
}

impl Rig {
    fn new() -> Rig {
        let deployment = Deployment::direct(DeploymentConfig::aws());
        let ctx = Ctx::disabled();
        deployment.system().register_session(&ctx, "s", 0).unwrap();
        Rig {
            follower: deployment.make_follower(),
            leader: deployment.make_leader_inline(),
            _endpoint: deployment.bus().register("s").0,
            requests: Cell::new(0),
            ctx,
            deployment,
        }
    }

    /// Creates `paths`: every request through the follower, then every
    /// record through the leader.
    fn create(&self, paths: impl IntoIterator<Item = String>) {
        let queue = self.deployment.write_queue();
        for path in paths {
            self.requests.set(self.requests.get() + 1);
            let request = ClientRequest {
                session_id: "s".into(),
                request_id: self.requests.get(),
                op: WriteOp::Create {
                    path,
                    payload: Payload::inline(b"x"),
                    mode: CreateMode::Persistent,
                },
            };
            queue.send(&self.ctx, "s", request.encode()).unwrap();
        }
        while let Some(batch) = queue.receive(10, Duration::from_secs(5)) {
            let done = self.follower.process_messages(&self.ctx, &batch.messages);
            assert!(done.is_ok(), "{done:?}");
            queue.ack(batch.receipt);
        }
        let lane = self.deployment.leader_queue();
        while self.leader.drain_queue(&self.ctx, lane).unwrap() > 0 {}
    }

    /// The key-value write units and requests one create of `path`
    /// bills, end to end.
    fn bill_of_create(&self, path: &str) -> (u64, u64) {
        let meter = self.deployment.meter();
        let before = meter.snapshot();
        self.create([path.to_owned()]);
        let used = meter.snapshot().since(&before);
        (used.kv_write_units, used.kv_ops)
    }

    /// The stored size of `path`'s `node:` item.
    fn item_bytes(&self, path: &str) -> usize {
        let item = self.deployment.system().get_node(&self.ctx, path);
        item.expect("the node's item").size_bytes()
    }
}

#[test]
fn create_cost_does_not_grow_with_siblings() {
    let rig = Rig::new();
    rig.create(["/few".to_owned(), "/many".to_owned()]);
    rig.create((0..10).map(|i| format!("/few/c{i}")));
    for thousand in 0..5 {
        rig.create((thousand * 1000..(thousand + 1) * 1000).map(|i| format!("/many/c{i}")));
        let bytes = rig.item_bytes("/many");
        let children = (thousand + 1) * 1000;
        assert!(
            bytes < 1024,
            "the parent item is {bytes} B after {children} creates"
        );
    }
    let few = rig.bill_of_create("/few/x");
    let many = rig.bill_of_create("/many/x");
    println!("(kv write units, kv requests): 10 siblings {few:?}, 5000 siblings {many:?}");
    assert_eq!(
        few, many,
        "a create under 5,000 siblings bills what one under 10 does"
    );
    let violations = fk_core::consistency::check_tree_integrity(
        &rig.ctx,
        rig.deployment.system(),
        rig.deployment.user_store().as_ref(),
    );
    assert!(violations.is_empty(), "{violations:#?}");
}
