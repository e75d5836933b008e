use super::plan::{mutated_paths, Held, Rule};
use super::*;
use crate::deploy::{Deployment, DeploymentConfig};
use crate::messages::{ClientRequest, MultiSub, Payload, WriteOp};
use crate::user_store::{FrameStore, NodeRecord};
use crate::CreateMode;
use fk_cloud::objectstore::{Precondition, Tag};
use fk_cloud::CloudResult;
use std::time::Duration;

#[test]
fn merge_fires_dedups_paths_and_merges_kinds() {
    let fire = |path, event| Fire { path, event };
    let fires = [
        fire("/n", WatchEventType::NodeDataChanged),
        fire("/p", WatchEventType::NodeChildrenChanged),
        fire("/n", WatchEventType::NodeChildrenChanged),
    ];
    let merged = merge_fires(&fires);
    assert_eq!(merged.len(), 2, "two distinct paths");
    let (path, kinds, events) = &merged[0];
    assert_eq!(*path, "/n");
    assert_eq!(
        kinds,
        &vec![WatchKind::Data, WatchKind::Exists, WatchKind::Children]
    );
    assert_eq!(
        events,
        &vec![
            WatchEventType::NodeDataChanged,
            WatchEventType::NodeChildrenChanged
        ]
    );
    assert_eq!(merged[1].0, "/p");
    // Attribution: a Children instance maps to the first event whose
    // matrix covers Children — the NodeChildrenChanged fire.
    let attributed = events
        .iter()
        .copied()
        .find(|et| kinds_for(*et).contains(&WatchKind::Children));
    assert_eq!(attributed, Some(WatchEventType::NodeChildrenChanged));
}

#[test]
fn merge_fires_keeps_single_fire_untouched() {
    let merged = merge_fires(&[Fire {
        path: "/n",
        event: WatchEventType::NodeCreated,
    }]);
    assert_eq!(merged.len(), 1);
    assert_eq!(merged[0].1, vec![WatchKind::Exists]);
}

/// The drain window is `max_batch`: a backlog of 40 records drains in
/// three calls of 16, 16 and 8, the first as wide as the backlog allows.
#[test]
fn drain_queue_takes_the_backlog_up_to_max_batch() {
    let deployment = Deployment::direct(
        DeploymentConfig::aws().with_distributor(crate::distributor::DistributorConfig::new(2, 16)),
    );
    let follower = deployment.make_follower();
    let leader = deployment.make_leader_inline();
    let ctx = fk_cloud::trace::Ctx::disabled();
    deployment.system().register_session(&ctx, "s", 0).unwrap();
    let _endpoint = deployment.bus().register("s");
    let mut rid = 0u64;
    let mut submit = |op: WriteOp| {
        rid += 1;
        let request = ClientRequest {
            session_id: "s".into(),
            request_id: rid,
            op,
        };
        deployment
            .write_queue()
            .send(&ctx, "s", request.encode())
            .unwrap();
    };
    submit(WriteOp::Create {
        path: "/n".into(),
        payload: Payload::inline(b"x"),
        mode: CreateMode::Persistent,
    });
    for _ in 0..39 {
        submit(WriteOp::SetData {
            path: "/n".into(),
            payload: Payload::inline(b"y"),
            expected_version: -1,
        });
    }
    while let Some(batch) = deployment.write_queue().receive(10, Duration::from_secs(5)) {
        follower.process_messages(&ctx, &batch.messages).unwrap();
        deployment.write_queue().ack(batch.receipt);
    }

    assert_eq!(deployment.leader_queue().pending(), 40);
    let drains: Vec<usize> =
        std::iter::from_fn(|| Some(leader.drain_queue(&ctx, deployment.leader_queue()).unwrap()))
            .take_while(|&n| n > 0)
            .collect();
    assert_eq!(drains, vec![16, 16, 8]);
}

/// An *abandoned* record only advances the session's distribution
/// high-water mark if its txid was recorded as the session's
/// `last_txid` — an unrecorded orphan (left behind when a follower's
/// commit errored retryably and the redelivered request re-allocated)
/// must be skipped, or a successor could bypass the hold-back while
/// recorded predecessors are still undistributed. Its failed
/// `TryCommit` publishes no mark either: the leader can reach it before
/// the request's re-executed copy hands over, while the copy's txid
/// (below 500 here) is the one the session's next write will name.
#[test]
fn abandoned_orphan_does_not_advance_session_mark() {
    use crate::messages::{CommitItem, MultiSub, SerValue, SystemCommit};
    let deployment = Deployment::direct(DeploymentConfig::aws().with_shard_groups(2));
    let leader = deployment.make_leader_inline();
    let ctx = fk_cloud::trace::Ctx::disabled();
    deployment.system().register_session(&ctx, "s", 0).unwrap();
    let _endpoint = deployment.bus().register("s");

    let abandoned_record = |txid: u64| LeaderRecord {
        session_id: "s".into(),
        request_id: 1,
        txid,
        prev_txid: 0,
        // A commit guarded on a lock that was never held: execute
        // fails with ConditionFailed, the txid never lands in the
        // node's txq, and the leader classifies the record abandoned.
        commit: SystemCommit {
            items: vec![CommitItem {
                key: crate::system_store::keys::node("/orphaned"),
                lock_ts: 12345,
                sets: vec![("version".into(), SerValue::Txid)],
                appends: vec![],
                removes: vec![],
            }],
        },
        deregister_session: false,
        ops: vec![MultiSub {
            path: "/orphaned".into(),
            user_update: UserUpdate::DeleteNode {
                path: "/orphaned".into(),
            },
            fires: vec![],
            is_delete: true,
            outcome: OpOutcome::Deleted {
                path: "/orphaned".into(),
            },
        }],
    };
    // One queue message carrying the record, as the follower pushes it.
    let abandoned = |txid: u64| Message {
        seq: 1,
        group: "s".into(),
        body: abandoned_record(txid).encode(),
        sent_vt_ns: 0,
        attempt: 1,
    };

    // The session's recorded chain stops at 100; txid 500 is an
    // unrecorded orphan.
    let system = deployment.system();
    system.hand_over(&ctx, "s", 0, 100).unwrap();
    leader.process_messages(&ctx, &[abandoned(500)]).unwrap();
    assert_eq!(
        system.session_applied_txid(&ctx, "s"),
        0,
        "orphan must not advance the mark"
    );
    assert_eq!(system.session_last_txid(&ctx, "s"), 100, "nor the chain");
    assert_eq!(system.session_request_watermark(&ctx, "s"), 0);

    // Once the txid *is* recorded (the handed-over-then-lost case a
    // successor will name as prev), the abandoned resolution must
    // advance the mark — that is what keeps the session live.
    system.hand_over(&ctx, "s", 0, 500).unwrap();
    leader.process_messages(&ctx, &[abandoned(500)]).unwrap();
    assert_eq!(system.session_applied_txid(&ctx, "s"), 500);
}

/// A direct deployment on virtual time: its follower, one leader per
/// shard group, and the clock they all run on.
struct Lanes {
    deployment: Deployment,
    follower: crate::follower::Follower,
    leaders: Vec<Leader>,
    ctx: Ctx,
}

type Endpoint = crossbeam::channel::Receiver<ClientNotification>;

impl Lanes {
    fn new(groups: usize) -> Self {
        Self::with_replicas(groups, crate::replica::ReplicaConfig::disabled())
    }

    /// [`Self::new`] with a replica tier, which every leader feeds.
    fn with_replicas(groups: usize, replicas: crate::replica::ReplicaConfig) -> Self {
        use fk_cloud::trace::LatencyMode;
        // A 32-record window: the largest budget epoch is 30 records.
        let distributor = DistributorConfig {
            max_batch: 32,
            ..DistributorConfig::default()
        };
        let deployment = Deployment::direct(
            DeploymentConfig::aws()
                .with_distributor(distributor)
                .with_shard_groups(groups)
                .with_replicas(replicas)
                .with_mode(LatencyMode::Virtual, 7),
        );
        Lanes {
            follower: deployment.make_follower(),
            leaders: (0..groups)
                .map(|_| deployment.make_leader_inline())
                .collect(),
            ctx: Ctx::new(Arc::clone(deployment.model()), LatencyMode::Virtual, 7),
            deployment,
        }
    }

    fn session(&self, id: &str) -> Endpoint {
        self.deployment
            .system()
            .register_session(&self.ctx, id, 0)
            .unwrap();
        self.deployment.bus().register(id).0
    }

    fn submit(&self, session: &str, request_id: u64, op: WriteOp) {
        let request = ClientRequest {
            session_id: session.into(),
            request_id,
            op,
        };
        self.deployment
            .write_queue()
            .send(&self.ctx, session, request.encode())
            .unwrap();
    }

    /// Runs the follower over everything in the write queue.
    fn run_follower(&self) {
        let queue = self.deployment.write_queue();
        while let Some(batch) = queue.receive(10, Duration::from_secs(5)) {
            self.follower
                .process_messages(&self.ctx, &batch.messages)
                .unwrap();
            queue.ack(batch.receipt);
        }
    }

    fn lane(&self, group: usize) -> &Queue {
        self.deployment.leader_queues().queue(group)
    }

    /// One invocation of `group`'s leader over its lane.
    fn drain(&self, group: usize) -> Result<usize, FnError> {
        self.leaders[group].drain_queue(&self.ctx, self.lane(group))
    }

    /// `session`'s chain head in lane 0 and its successor in lane 1,
    /// which stays held until lane 0 has run. Returns the two paths.
    fn held_chain(&self, session: &str) -> (String, String) {
        let (first, second) = (path_on(0, 0), path_on(1, 0));
        self.submit(session, 1, create(&first));
        self.submit(session, 2, create(&second));
        (first, second)
    }

    fn stored(&self, path: &str) -> Option<NodeRecord> {
        self.deployment
            .user_store()
            .read_node(&self.ctx, path)
            .unwrap()
    }

    /// The deployment's inline watch dispatcher.
    fn inline_dispatcher(&self) -> crate::deploy::InlineDispatcher {
        crate::deploy::InlineDispatcher::new(
            Arc::new(self.deployment.make_watch_fn()),
            self.deployment.config().watch_fn,
        )
    }

    /// A leader of this deployment over a stand-in user store and
    /// watch dispatcher, feeding the deployment's replica tier.
    fn leader_over(
        &self,
        store: Arc<dyn UserStore>,
        dispatcher: Arc<dyn WatchDispatcher>,
    ) -> Leader {
        let mut leader = Leader::with_config(
            self.deployment.system().clone(),
            vec![store],
            self.deployment.staging().clone(),
            self.deployment.bus().clone(),
            dispatcher,
            self.deployment.config().distributor,
        );
        if !self.deployment.replicas().is_empty() {
            leader.attach_replicas(self.deployment.replicas().clone());
        }
        leader
    }

    /// `f`'s result and every charge made while it ran, in charge
    /// order.
    fn charges_of<T>(&self, f: impl FnOnce() -> T) -> (T, Vec<fk_cloud::trace::SpanRecord>) {
        self.ctx.take_spans();
        let out = f();
        (out, self.ctx.take_spans())
    }
}

/// The `nth` path of the form `/n<i>` that routes to `group` of 2.
fn path_on(group: usize, nth: usize) -> String {
    (0..)
        .map(|i| format!("/n{i}"))
        .filter(|p| fk_cloud::queue::group_of(p, 2) == group)
        .nth(nth)
        .expect("paths hash to both groups")
}

fn create(path: &str) -> WriteOp {
    WriteOp::Create {
        path: path.into(),
        payload: Payload::inline(b"x"),
        mode: CreateMode::Persistent,
    }
}

fn set(path: &str, data: &[u8]) -> WriteOp {
    WriteOp::SetData {
        path: path.into(),
        payload: Payload::inline(data),
        expected_version: -1,
    }
}

/// `(request id, txid)` of every successful write result waiting on
/// `endpoint`, in arrival order.
fn acked(endpoint: &Endpoint) -> Vec<(u64, u64)> {
    std::iter::from_fn(|| endpoint.try_recv().ok())
        .filter_map(|n| match n {
            ClientNotification::WriteResult {
                request_id,
                result,
                txid,
            } => {
                assert!(result.is_ok(), "{result:?}");
                Some((request_id, txid))
            }
            _ => None,
        })
        .collect()
}

fn request_ids(acks: &[(u64, u64)]) -> Vec<u64> {
    acks.iter().map(|(request_id, _)| *request_id).collect()
}

/// The hold-back decides once: a batch whose head names a
/// predecessor still queued in the other group's lane defers at
/// index 0 for the price of a single strong read of the session
/// mark — no polling, no waiting inside the invocation — and the
/// same batch goes through once the predecessor's mark has landed.
#[test]
fn held_head_defers_after_exactly_one_mark_read() {
    let tier = Lanes::new(2);
    let ctx = &tier.ctx;
    let endpoint = tier.session("s");
    tier.held_chain("s");
    tier.run_follower();

    // Group 1 runs first: its head's predecessor sits in group 0.
    let before = tier.deployment.meter().snapshot();
    ctx.take_spans();
    let started = ctx.now();
    let err = tier.drain(1).unwrap_err();
    let elapsed = ctx.now().saturating_sub(started);
    assert!(err.deferred, "held, not failed: {err:?}");
    assert_eq!(err.failed_index, 0);
    let used = tier.deployment.meter().snapshot().since(&before);
    assert_eq!(used.per_op["kv_read"], 1, "one mark read per deferral");
    assert_eq!(used.kv_ops, 1, "and no other storage request");
    let spans = ctx.take_spans();
    let time_in = |wanted: fn(&Op) -> bool| -> Duration {
        let of_kind = spans.iter().filter(|span| wanted(&span.op));
        of_kind.map(|span| span.duration).sum()
    };
    let read = time_in(|op| matches!(op, Op::KvGet));
    let dispatch = time_in(|op| matches!(op, Op::QueueDispatch(_)));
    assert!(
        read > Duration::ZERO && elapsed < dispatch + 2 * read,
        "a deferral costs dispatch ({dispatch:?}) + one strong read ({read:?}), not {elapsed:?}"
    );
    assert_eq!(tier.lane(1).pending(), 1, "the batch went back whole");

    // The predecessor distributes; the redelivered batch goes through.
    assert_eq!(tier.drain(0).unwrap(), 1);
    assert_eq!(tier.drain(1).unwrap(), 1);
    assert_eq!(
        request_ids(&acked(&endpoint)),
        vec![1, 2],
        "acked in submission order"
    );
}

/// The mark wave's budget: a lane-1 batch whose three records each
/// name a predecessor still queued in lane 0 reads the three session
/// marks together, so the deferral costs dispatch plus the *slowest*
/// read, not the sum of the three.
#[test]
fn round_trip_budget_mark_wave_is_one_round_trip() {
    let tier = Lanes::new(2);
    let ctx = &tier.ctx;
    let sessions = ["a", "b", "c"];
    let _endpoints = sessions.map(|id| tier.session(id));
    for (nth, session) in sessions.iter().enumerate() {
        tier.submit(session, 1, create(&path_on(0, nth)));
        tier.submit(session, 2, create(&path_on(1, nth)));
    }
    tier.run_follower();
    assert_eq!(tier.lane(1).pending(), 3);

    let before = tier.deployment.meter().snapshot();
    let started = ctx.now();
    let (err, charges) = tier.charges_of(|| tier.drain(1).unwrap_err());
    let elapsed = ctx.now().saturating_sub(started);
    assert!(err.deferred && err.failed_index == 0, "{err:?}");
    let used = tier.deployment.meter().snapshot().since(&before);
    assert_eq!(used.kv_ops, 3, "one mark read per session, nothing else");

    let (reads, others): (Vec<_>, Vec<_>) = charges.iter().partition(|s| matches!(s.op, Op::KvGet));
    print_chain(
        "mark wave (the three session-mark reads start together):",
        &reads,
    );
    assert_eq!(reads.len(), 3);
    assert!(reads.iter().all(|s| s.start == reads[0].start), "one wave");
    let slowest = reads.iter().map(|s| s.duration).max().unwrap();
    let sum: Duration = reads.iter().map(|s| s.duration).sum();
    let rest: Duration = others.iter().map(|s| s.duration).sum();
    println!("  wave costs {slowest:?} (the slowest read); serial it would cost {sum:?}");
    assert_eq!(
        elapsed,
        rest + slowest,
        "a deferral costs dispatch + the slowest mark read, not the sum {sum:?}"
    );
}

/// Skip-ahead: a record of another session on another path, queued
/// behind a held head, distributes at once. The batch still defers
/// whole (the head was not processed), and the record's redelivery
/// with the deferred suffix is free: no storage request, no second
/// notification. Its txid joins the group's committed floor only
/// when its message leaves the queue behind the head.
#[test]
fn record_behind_a_held_head_distributes_and_its_redelivery_is_free() {
    let tier = Lanes::new(2);
    let ctx = &tier.ctx;
    let (a, b) = (tier.session("a"), tier.session("b"));
    tier.held_chain("a");
    let other = path_on(1, 1);
    tier.submit("b", 1, create(&other));
    tier.run_follower();

    let err = tier.drain(1).unwrap_err();
    assert!(err.deferred && err.failed_index == 0, "{err:?}");
    assert_eq!(tier.lane(1).pending(), 2, "the batch went back whole");
    let b_acks = acked(&b);
    assert_eq!(request_ids(&b_acks), vec![1], "b's write went ahead");
    let b_txid = b_acks[0].1;
    assert_eq!(tier.stored(&other).unwrap().modified_txid, b_txid);
    assert_eq!(tier.leaders[1].applied_ahead(), 1);
    let floor = |tier: &Lanes| tier.deployment.floors().snapshot()[1];
    assert!(floor(&tier) < b_txid, "the floor speaks for the prefix");

    // Redelivered while the head is still held: the head's one mark
    // read is everything the invocation costs.
    let before = tier.deployment.meter().snapshot();
    ctx.take_spans();
    let err = tier.drain(1).unwrap_err();
    assert!(err.deferred && err.failed_index == 0, "{err:?}");
    let used = tier.deployment.meter().snapshot().since(&before);
    assert_eq!(used.kv_ops, 1, "the held head's mark read, nothing for b");
    assert_eq!(used.obj_puts + used.obj_gets, 0, "no user-store access");
    let replies = ctx.take_spans();
    let replies = replies.iter().filter(|s| matches!(s.op, Op::TcpReply));
    assert_eq!(replies.count(), 0, "no second notification");

    // The head's predecessor lands; the head goes through and b's
    // record is acknowledged behind it without being touched again.
    assert_eq!(tier.drain(0).unwrap(), 1);
    assert_eq!(tier.drain(1).unwrap(), 2);
    assert_eq!(tier.leaders[1].applied_ahead(), 0);
    assert!(floor(&tier) >= b_txid, "acknowledged in a prefix");
    assert_eq!(request_ids(&acked(&a)), vec![1, 2]);
    assert!(acked(&b).is_empty(), "exactly one result for b's write");
}

/// Rule (b): a later record of a held record's session stays held
/// with it (and costs no mark read of its own).
#[test]
fn same_session_successor_stays_held_behind_a_held_record() {
    let tier = Lanes::new(2);
    let endpoint = tier.session("a");
    tier.held_chain("a");
    let third = path_on(1, 1);
    tier.submit("a", 3, create(&third));
    tier.run_follower();

    let before = tier.deployment.meter().snapshot();
    let err = tier.drain(1).unwrap_err();
    assert!(err.deferred && err.failed_index == 0, "{err:?}");
    let used = tier.deployment.meter().snapshot().since(&before);
    assert_eq!(used.kv_ops, 1, "one mark read for the session");
    assert_eq!(tier.leaders[1].applied_ahead(), 0);
    assert!(tier.stored(&third).is_none(), "the successor did not run");

    assert_eq!(tier.drain(0).unwrap(), 1);
    assert_eq!(tier.drain(1).unwrap(), 2);
    assert_eq!(request_ids(&acked(&endpoint)), vec![1, 2, 3]);
}

/// The `txq` rule on the batch alone: a record that mutates a node a
/// held record mutates stays held behind it — as a plain write and as
/// a `multi` sub — so the node's `txq` pops in order; an unrelated
/// record in the same batch still goes ahead.
#[test]
fn same_path_records_stay_held_behind_a_held_record() {
    use crate::messages::MultiOp;
    let tier = Lanes::new(2);
    let endpoints = ["a", "b", "c", "d"].map(|id| tier.session(id));
    let (_, contended) = tier.held_chain("a");
    tier.submit("b", 1, set(&contended, b"plain"));
    tier.submit(
        "c",
        1,
        WriteOp::Multi {
            ops: vec![
                MultiOp::Create {
                    path: path_on(1, 1),
                    payload: Payload::inline(b"x"),
                    mode: CreateMode::Persistent,
                },
                MultiOp::SetData {
                    path: contended.clone(),
                    payload: Payload::inline(b"multi"),
                    expected_version: -1,
                },
            ],
        },
    );
    tier.submit("d", 1, create(&path_on(1, 2)));
    tier.run_follower();
    assert_eq!(tier.lane(1).pending(), 4, "all four share lane 1");

    let err = tier.drain(1).unwrap_err();
    assert!(err.deferred && err.failed_index == 0, "{err:?}");
    let [a, b, c, d] = &endpoints;
    assert_eq!(request_ids(&acked(d)), vec![1], "the unrelated one ran");
    assert!(
        acked(b).is_empty() && acked(c).is_empty(),
        "held by the txq"
    );
    assert_eq!(tier.leaders[1].applied_ahead(), 1);
    assert!(tier.stored(&contended).is_none());

    assert_eq!(tier.drain(0).unwrap(), 1);
    assert_eq!(tier.drain(1).unwrap(), 4);
    let txid_of = |endpoint: &Endpoint| acked(endpoint).last().unwrap().1;
    let (a, b, c) = (txid_of(a), txid_of(b), txid_of(c));
    assert!(a < b && b < c, "txq order on the contended node");
    let node = tier.stored(&contended).unwrap();
    assert_eq!((&node.data[..], node.modified_txid), (&b"multi"[..], c));
    let violations = crate::consistency::check_tree_integrity(
        &tier.ctx,
        tier.deployment.system(),
        tier.deployment.user_store().as_ref(),
    );
    assert!(violations.is_empty(), "{violations:#?}");
}

/// The `txq` rule across lanes: a `multi` routed to lane A by its first
/// sub also deletes `/m/c`, whose own writes route to lane B, and a
/// later `create /m/c` sits in lane B. Lane B runs first. The create is
/// held behind the multi's txid in `/m/c`'s `txq` (lane B's FIFO cannot
/// see it), so the two apply in txid order: the node exists at the
/// create's txid, and every `txq` drains.
#[test]
fn a_multi_on_another_lanes_node_applies_in_txq_order() {
    use crate::messages::MultiOp;
    let tier = Lanes::new(2);
    let node = "/m/c";
    let lane_b = fk_cloud::queue::group_of(node, 2);
    let (lane_a, a) = (1 - lane_b, path_on(1 - lane_b, 0));
    let endpoints = ["setup", "multi", "create"].map(|id| tier.session(id));
    for (request_id, path) in [(1, "/m"), (2, node), (3, &a)] {
        tier.submit("setup", request_id, create(path));
    }
    tier.run_follower();
    while tier.drain(0).unwrap() + tier.drain(1).unwrap() > 0 {}
    assert_eq!(acked(&endpoints[0]).len(), 3);

    let set_and_delete = vec![
        MultiOp::SetData {
            path: a.clone(),
            payload: Payload::inline(b"multi"),
            expected_version: -1,
        },
        MultiOp::Delete {
            path: node.into(),
            expected_version: -1,
        },
    ];
    tier.submit(
        "multi",
        1,
        WriteOp::Multi {
            ops: set_and_delete,
        },
    );
    tier.submit("create", 1, create(node));
    tier.run_follower();
    assert_eq!(
        (tier.lane(lane_a).pending(), tier.lane(lane_b).pending()),
        (1, 1)
    );

    let lane_b_first = tier.drain(lane_b);
    assert_eq!(tier.drain(lane_a).unwrap(), 1);
    while tier.lane(lane_b).pending() > 0 {
        let _ = tier.drain(lane_b);
    }
    let [_, multi, created] = &endpoints;
    let (multi, created) = (acked(multi), acked(created));
    assert!(
        multi[0].1 < created[0].1,
        "txid order: {multi:?} {created:?}"
    );
    let stored = tier.stored(node).expect("the create applied last");
    assert_eq!(stored.modified_txid, created[0].1);
    assert_eq!(txq_len(&tier, node), 0, "the txq drained");
    assert_eq!(txq_len(&tier, &a), 0);
    for leader in &tier.leaders {
        assert_eq!(leader.applied_ahead(), 0);
    }
    let violations = crate::consistency::check_tree_integrity(
        &tier.ctx,
        tier.deployment.system(),
        tier.deployment.user_store().as_ref(),
    );
    assert!(violations.is_empty(), "{violations:#?}");
    let err = lane_b_first.unwrap_err();
    assert!(err.deferred && err.failed_index == 0, "{err:?}");
}

/// A user store that runs `on_put` with the path before each write and
/// refuses the write when it fails: a test stands in a store that fails,
/// or one that acts between the leader's ➊ reads and its ➌ writes.
struct TappedStore {
    inner: Arc<dyn UserStore>,
    on_put: OnPut,
}

type OnPut = Box<dyn Fn(&str) -> CloudResult<()> + Send + Sync>;

impl FrameStore for TappedStore {
    fn get_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<(Bytes, Tag)>> {
        self.inner.get_frame(ctx, path)
    }
    fn put_frame(
        &self,
        ctx: &Ctx,
        path: &str,
        frame: Bytes,
        precondition: Option<Precondition>,
    ) -> CloudResult<Tag> {
        (self.on_put)(path)?;
        self.inner.put_frame(ctx, path, frame, precondition)
    }
    fn delete_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<()> {
        self.inner.delete_frame(ctx, path)
    }
    fn scan_frames(&self, ctx: &Ctx, root: &str) -> CloudResult<Vec<(String, Bytes)>> {
        self.inner.scan_frames(ctx, root)
    }
    fn region(&self) -> fk_cloud::Region {
        self.inner.region()
    }
}

/// What one race between a watch-arming `get_data` and a write saw: the
/// version the read returned, the write's txid, the txid of the watch
/// event the watcher got for it (if any), and the read's waits.
struct ArmingRace {
    returned: u64,
    written: u64,
    fired: Option<u64>,
    waits: u64,
}

/// `/w` is created (txid 1) and then set by a writer. While the set's
/// leader is between its ➊ registry read and its ➌ write of `/w`, a
/// second session arms a data watch with `FkClient::get_data("/w",
/// true)`. The hook lets the leader go on once the read has answered or
/// is waiting on the write's pending txid.
fn arming_read_race(replicas: crate::replica::ReplicaConfig) -> ArmingRace {
    let tier = Lanes::with_replicas(1, replicas);
    let writer = tier.session("writer");
    tier.submit("writer", 1, create("/w"));
    tier.run_follower();
    assert_eq!(tier.drain(0).unwrap(), 1);
    let watcher = Arc::new(
        tier.deployment
            .connect_with(crate::ClientConfig::new("watcher"))
            .unwrap(),
    );
    let meter = tier.deployment.meter().clone();
    let waits = move || {
        meter
            .snapshot()
            .per_op
            .get("arm:wait")
            .copied()
            .unwrap_or(0)
    };
    let read = Arc::new(parking_lot::Mutex::new(None));
    let hook = {
        let (watcher, read, waits) = (Arc::clone(&watcher), Arc::clone(&read), waits.clone());
        move || {
            let handle = watcher.submit_get_data("/w", true).unwrap();
            // Up to 10 s, in 1 ms steps of the handle's own timed wait.
            let settled = (0..10_000)
                .any(|_| waits() > 0 || handle.wait_timeout(Duration::from_millis(1)).is_ok());
            assert!(
                settled || handle.is_done(),
                "the read neither answered nor waited"
            );
            *read.lock() = Some(handle);
        }
    };
    let hook = parking_lot::Mutex::new(Some(hook));
    let store = Arc::new(TappedStore {
        inner: Arc::clone(tier.deployment.user_store()),
        on_put: Box::new(move |path| {
            let hook = hook.lock().take_if(|_| path == "/w");
            if let Some(hook) = hook {
                hook();
            }
            Ok(())
        }),
    });
    let leader = tier.leader_over(store, Arc::new(tier.inline_dispatcher()));
    tier.submit("writer", 2, set("/w", b"2"));
    tier.run_follower();
    assert_eq!(leader.drain_queue(&tier.ctx, tier.lane(0)).unwrap(), 1);
    let written = acked(&writer)[1].1;
    let handle = read.lock().take().expect("the hook ran");
    let (_, stat) = handle.wait().expect("the arming read answers");
    let fired = watcher
        .watch_events()
        .recv_timeout(Duration::from_secs(1))
        .ok()
        .map(|event| event.txid);
    ArmingRace {
        returned: stat.modified_txid,
        written,
        fired,
        waits: waits(),
    }
}

/// The lost watch: the set's leader read `/w`'s registry before the
/// watch was registered, so it will not fire it, and the arming read
/// ran before the set's storage write. The read must not answer with
/// the old version: it finds the set's txid pending in `/w`'s `txq`,
/// waits until the pop has taken it out, and reads storage after it.
#[test]
fn an_arming_read_between_the_registry_read_and_the_write_sees_the_write_or_fires() {
    let race = arming_read_race(crate::replica::ReplicaConfig::disabled());
    assert!(
        race.returned >= race.written || race.fired == Some(race.written),
        "read txid {} while txid {} was pending, and no event fired",
        race.returned,
        race.written
    );
    assert!(race.waits >= 1, "the read waited on the pending txid");
}

/// The replica twin: a replica at the feed head still holds the old
/// version, which passes the session's MRD gate. The node's pending
/// txid raises the floor above it, so the read waits and reads storage
/// instead of answering from the replica.
#[test]
fn a_replica_arming_read_between_the_registry_read_and_the_write_sees_the_write_or_fires() {
    let race = arming_read_race(crate::replica::ReplicaConfig::with_count(1));
    assert!(
        race.returned >= race.written || race.fired == Some(race.written),
        "read txid {} while txid {} was pending, and no event fired",
        race.returned,
        race.written
    );
    assert!(race.waits >= 1, "the read waited on the pending txid");
}

/// A retryable failure in a later epoch reports the first *held*
/// index, not its own first message: the held record before it was
/// never processed. The epoch that completed before the failure —
/// including a record it distributed from behind the held one — is
/// not applied again on redelivery.
#[test]
fn failure_behind_a_held_record_reports_the_held_index() {
    let tier = Lanes::new(2);
    let (d, a, b) = (tier.session("d"), tier.session("a"), tier.session("b"));
    // Lane 1: d's create (eligible), a's held successor (index 1),
    // then b's create and a child under it — the child starts a
    // second epoch (its parent is written by the first).
    tier.submit("d", 1, create(&path_on(1, 1)));
    tier.held_chain("a");
    let parent = path_on(1, 2);
    let child = (0..)
        .map(|i| format!("{parent}/k{i}"))
        .find(|p| fk_cloud::queue::group_of(p, 2) == 1)
        .unwrap();
    tier.submit("b", 1, create(&parent));
    tier.submit("b", 2, create(&child));
    tier.run_follower();
    assert_eq!(tier.lane(1).pending(), 4);

    // Lane 1's leader over a store that refuses the child.
    let poisoned = Arc::new(parking_lot::Mutex::new(Some(child.clone())));
    let store = TappedStore {
        inner: Arc::clone(tier.deployment.user_store()),
        on_put: Box::new({
            let poisoned = Arc::clone(&poisoned);
            move |path| match poisoned.lock().as_deref() == Some(path) {
                true => Err(CloudError::ServiceStopped),
                false => Ok(()),
            }
        }),
    };
    let leader = tier.leader_over(Arc::new(store), Arc::new(tier.inline_dispatcher()));
    let drain = || leader.drain_queue(&tier.ctx, tier.lane(1));

    let err = drain().unwrap_err();
    assert!(err.retryable && !err.deferred, "a failure: {err:?}");
    assert_eq!(err.failed_index, 1, "the held record, not the epoch");
    assert_eq!(tier.lane(1).pending(), 3, "d's create left the queue");
    assert_eq!(request_ids(&acked(&d)), vec![1]);
    assert_eq!(request_ids(&acked(&b)), vec![1]);
    assert_eq!(leader.applied_ahead(), 1, "b's first epoch");

    // Repaired; the redelivery runs only the epoch that failed.
    *poisoned.lock() = None;
    let err = drain().unwrap_err();
    assert!(err.deferred && err.failed_index == 0, "{err:?}");
    assert_eq!(request_ids(&acked(&b)), vec![2], "b's parent is not redone");
    assert_eq!(leader.applied_ahead(), 2);

    assert_eq!(tier.drain(0).unwrap(), 1);
    assert_eq!(drain().unwrap(), 3);
    assert_eq!(leader.applied_ahead(), 0);
    assert_eq!(request_ids(&acked(&a)), vec![1, 2]);
    assert!(acked(&b).is_empty());
}

/// Exactly-once never depends on the warm state: a fresh instance
/// handed a record its predecessor distributed ahead resolves it as
/// already processed — no second user-store version.
#[test]
fn cold_instance_resolves_an_applied_ahead_record_as_already_processed() {
    let tier = Lanes::new(2);
    let (_a, b) = (tier.session("a"), tier.session("b"));
    tier.held_chain("a");
    let other = path_on(1, 1);
    tier.submit("b", 1, create(&other));
    tier.run_follower();
    tier.drain(1).unwrap_err();
    let b_txid = acked(&b)[0].1;

    let cold = tier.deployment.make_leader_inline();
    let before = tier.deployment.meter().snapshot();
    let err = cold.drain_queue(&tier.ctx, tier.lane(1)).unwrap_err();
    assert!(err.deferred && err.failed_index == 0, "{err:?}");
    let used = tier.deployment.meter().snapshot().since(&before);
    assert_eq!(used.obj_puts, 0, "one user-store version");
    assert_eq!(tier.stored(&other).unwrap().modified_txid, b_txid);
    // The cold path re-notifies (idempotent for the client, which
    // releases a request once) and then remembers the record too.
    assert_eq!(acked(&b), vec![(1, b_txid)]);
    assert_eq!(cold.applied_ahead(), 1);
}

/// The read wave reads the registry item of each distinct *path* of
/// the batch once — one item answers every class on the path — and no
/// registry item is read again in that batch: segmentation runs before
/// any epoch consumes, so the wave's answer holds for every record.
/// Each write still cuts its own epoch; the first epoch's consume fires
/// the one watch, and the later consumes find nothing.
#[test]
fn watch_wave_reads_each_path_once_per_batch() {
    let tier = Lanes::new(1);
    let endpoint = tier.session("s");
    tier.submit("s", 1, create("/w"));
    tier.run_follower();
    assert_eq!(tier.drain(0).unwrap(), 1);
    tier.deployment
        .system()
        .register_watch(&tier.ctx, "/w", WatchKind::Data, "s")
        .unwrap();

    for (request_id, data) in [(2, b"1"), (3, b"2"), (4, b"3")] {
        tier.submit("s", request_id, set("/w", data));
    }
    tier.run_follower();
    tier.ctx.take_spans();
    assert_eq!(tier.drain(0).unwrap(), 3);
    let spans = tier.ctx.take_spans();
    let registry_reads = spans
        .iter()
        .filter(|s| s.phase.ends_with("query_watches") && matches!(s.op, Op::KvGet));
    // The wave: `/w` (data changed + subtree) and `/` (subtree), one
    // read each, and nothing after it.
    assert_eq!(registry_reads.count(), 2);
    let (results, events) = received(&endpoint);
    assert_eq!(results, vec![1, 2, 3, 4]);
    assert_eq!(events.len(), 1, "the three writes fire the watch once");
    assert_eq!(
        (events[0].path.as_str(), events[0].event_type),
        ("/w", WatchEventType::NodeDataChanged)
    );
}

/// One leader batch of plain overwrites: `n` sessions each rewrite a
/// node of their own, all in lane 0 of a 2-group tier. Returns the
/// charge records of that one invocation and its KV read count.
fn overwrite_batch(n: usize) -> (Vec<fk_cloud::trace::SpanRecord>, u64) {
    let tier = Lanes::new(2);
    let sessions: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
    let _endpoints: Vec<Endpoint> = sessions.iter().map(|s| tier.session(s)).collect();
    for (i, session) in sessions.iter().enumerate() {
        tier.submit(session, 1, create(&path_on(0, i)));
    }
    tier.run_follower();
    assert_eq!(tier.drain(0).unwrap(), n);
    for (i, session) in sessions.iter().enumerate() {
        tier.submit(session, 2, set(&path_on(0, i), b"y"));
    }
    tier.run_follower();
    let before = tier.deployment.meter().snapshot();
    let (processed, charges) = tier.charges_of(|| tier.drain(0).unwrap());
    assert_eq!(processed, n, "one leader batch");
    let used = tier.deployment.meter().snapshot().since(&before);
    (charges, used.per_op["kv_read"])
}

/// Prints a chain of charges relative to its first one (shown by the
/// CI `leader round-trip budget` step).
fn print_chain(title: &str, chain: &[&fk_cloud::trace::SpanRecord]) {
    println!("{title}");
    let origin = chain.iter().map(|s| s.start).min().unwrap_or_default();
    for charge in chain {
        let at = charge.start - origin;
        println!(
            "  +{at:>12?} {:>12?}  {:<24} {:?}",
            charge.duration, charge.phase, charge.op
        );
    }
}

/// The read wave's budget: an N-record batch reads exactly N node
/// items, one registry item per distinct fired path and one epoch
/// list per region, and all of it costs the *slowest* read, not the
/// sum. (A wholly held batch issues none of it — one mark read, see
/// `held_head_defers_after_exactly_one_mark_read`.)
#[test]
fn round_trip_budget_read_wave_is_one_round_trip() {
    let n = 6;
    let (charges, kv_reads) = overwrite_batch(n);
    let reads_in = |phase: &str| -> Vec<&fk_cloud::trace::SpanRecord> {
        let reads = charges.iter().filter(|s| matches!(s.op, Op::KvGet));
        reads.filter(|s| s.phase == phase).collect()
    };
    let nodes = reads_in("get_node");
    let registry = reads_in("query_watches");
    let marks = reads_in("update_user_storage");
    let wave = [&nodes[..], &registry[..], &marks[..]].concat();
    print_chain("read wave (all three kinds of read start together):", &wave);
    assert_eq!(nodes.len(), n, "one node read per record");
    assert_eq!(
        registry.len(),
        n + 1,
        "one registry read per path: n nodes + /"
    );
    assert_eq!(marks.len(), 1, "one epoch-mark read per region");
    assert_eq!(kv_reads as usize, wave.len(), "and no other KV read");

    let start = wave[0].start;
    assert!(wave.iter().all(|s| s.start == start), "one wave");
    let slowest = wave.iter().map(|s| s.duration).max().unwrap();
    let sum: Duration = wave.iter().map(|s| s.duration).sum();
    let resumed = charges.iter().map(|s| s.start).filter(|at| *at > start);
    println!("  wave costs {slowest:?} (the slowest read); serial it would cost {sum:?}");
    assert_eq!(
        resumed.min(),
        Some(start + slowest),
        "the invocation resumes when the slowest read returns, not after {sum:?}"
    );
}

/// The bookkeeping wave's budget: the epoch's marks transaction and
/// its pop transaction go out together, and the notifications start
/// when the slower of the two has landed.
#[test]
fn round_trip_budget_bookkeeping_wave_is_max_of_marks_and_pops() {
    let (charges, _) = overwrite_batch(6);
    let in_phase = |phase: &str| -> Vec<&fk_cloud::trace::SpanRecord> {
        charges.iter().filter(|s| s.phase == phase).collect()
    };
    let (marks, pops) = (in_phase("advance_session_marks"), in_phase("pop_updates"));
    let notify = in_phase("notify_client");
    print_chain(
        "bookkeeping wave (marks || pops, then the first notification):",
        &[&marks[..], &pops[..], &notify[..1]].concat(),
    );
    let (&[marks], &[pops]) = (&marks[..], &pops[..]) else {
        panic!("one marks transaction and one pop transaction per epoch");
    };
    assert_eq!(marks.start, pops.start, "one wave");
    let (slower, sum) = (
        marks.duration.max(pops.duration),
        marks.duration + pops.duration,
    );
    println!("  wave costs {slower:?} (the slower of the two); serial it would cost {sum:?}");
    assert_eq!(
        notify[0].start,
        marks.start + slower,
        "notifications wait for max(marks, pops), not their sum {sum:?}"
    );
}

/// The bookkeeping wave's budget in requests: an epoch pops at most 25
/// nodes, in one write, so a batch of N sessions over N distinct paths
/// runs in ⌈N/25⌉ epochs, each writing the system store once for its
/// marks and once for its pops.
#[test]
fn round_trip_budget_bookkeeping_is_one_write_per_25_items() {
    for (n, requests) in [(16, 1 + 1), (30, 2 + 2)] {
        let (charges, _) = overwrite_batch(n);
        let bookkeeping = charges
            .iter()
            .filter(|s| s.phase == "advance_session_marks" || s.phase == "pop_updates");
        assert_eq!(bookkeeping.count(), requests, "{n} sessions x {n} paths");
    }
}

/// A dispatcher that runs `hook` at dispatch time — inside ➍, after
/// the epoch append — and then delivers through `deliver`, or not at
/// all (the fired id then stays in the region's epoch list).
struct HookedDispatcher<F> {
    hook: F,
    deliver: Option<crate::deploy::InlineDispatcher>,
}

impl<F: Fn(&WatchTask) + Send + Sync> WatchDispatcher for HookedDispatcher<F> {
    fn dispatch(&self, ctx: &Ctx, task: WatchTask) -> WatchHandle {
        (self.hook)(&task);
        match &self.deliver {
            Some(inline) => inline.dispatch(ctx, task),
            None => WatchHandle {
                forked: None,
                rx: None,
            },
        }
    }
}

/// Request ids of the write results and the watch events waiting on
/// `endpoint`.
fn received(endpoint: &Endpoint) -> (Vec<u64>, Vec<WatchEvent>) {
    let (mut results, mut events) = (Vec::new(), Vec::new());
    for notification in std::iter::from_fn(|| endpoint.try_recv().ok()) {
        match notification {
            ClientNotification::WriteResult { request_id, .. } => results.push(request_id),
            ClientNotification::Watch(event) => events.push(event),
            ClientNotification::Ping { .. } => {}
        }
    }
    (results, events)
}

/// A 2-group tier with one node in lane 0, created by session `s`,
/// which also holds a data watch on it.
fn watched_node() -> (Lanes, Endpoint, String) {
    let tier = Lanes::new(2);
    let endpoint = tier.session("s");
    let node = path_on(0, 0);
    tier.submit("s", 1, create(&node));
    tier.run_follower();
    assert_eq!(tier.drain(0).unwrap(), 1);
    assert_eq!(received(&endpoint).0, vec![1]);
    tier.deployment
        .system()
        .register_watch(&tier.ctx, &node, WatchKind::Data, "s")
        .unwrap();
    (tier, endpoint, node)
}

/// Length of `path`'s pending-transaction queue in system storage.
fn txq_len(tier: &Lanes, path: &str) -> usize {
    let item = tier.deployment.system().get_node(&tier.ctx, path);
    let txq = item.as_ref().and_then(|item| item.list(node_attr::TXQ));
    txq.map_or(0, |txq| txq.len())
}

/// A plan under which one store refuses `kind` exactly as often as
/// it tries `calls` operations (5 attempts each, `fk_cloud::retry`):
/// the first `calls` calls fail for good, everything after them
/// succeeds.
fn exhausted_retries(
    calls: u64,
    arm: impl FnOnce(&mut fk_cloud::chaos::FaultPlan, fk_cloud::chaos::FaultSpec),
) -> Arc<fk_cloud::chaos::Chaos> {
    use fk_cloud::chaos::{Chaos, FaultPlan, FaultSpec};
    let mut plan = FaultPlan::disabled();
    arm(&mut plan, FaultSpec::new(1.0, 5 * calls));
    Chaos::from_plan(plan).expect("one fault point armed")
}

/// Why the pops follow ➍: a retryable failure while consuming the
/// registrations leaves the transaction in its node's `txq`, so the
/// redelivery resolves it as *committed*, distributes it again
/// (idempotent) and fires the watch — exactly once.
#[test]
fn failure_while_firing_keeps_the_txq_and_the_redelivery_fires_once() {
    let (tier, endpoint, node) = watched_node();
    tier.submit("s", 2, set(&node, b"new"));
    tier.run_follower();
    // The invocation's first KV *write* is ➍'s registry consumption
    // (the read wave reads, ➌ writes the user store).
    let kv = tier.deployment.system().kv();
    kv.install_chaos(exhausted_retries(1, |plan, spec| plan.kv_error = spec));

    let err = tier.drain(0).unwrap_err();
    assert!(err.retryable && !err.deferred, "{err:?}");
    assert_eq!(txq_len(&tier, &node), 1, "not popped: still committed");
    assert_eq!(received(&endpoint), (vec![], vec![]), "nothing fired yet");

    assert_eq!(tier.drain(0).unwrap(), 1);
    let (results, events) = received(&endpoint);
    assert_eq!(results, vec![2]);
    assert_eq!(events.len(), 1, "the watch fired exactly once");
    assert_eq!(events[0].path, node);
    assert_eq!(txq_len(&tier, &node), 0);
    assert_eq!(&tier.stored(&node).unwrap().data[..], b"new");
}

/// The other side of ➎: an invocation that dies after its pops
/// landed and before it notified is redelivered as *already
/// processed* — the client gets its one result then, and the watch
/// (dispatched before the crash) does not fire again.
#[test]
fn crash_between_pops_and_notifications_acks_exactly_once() {
    let (tier, endpoint, node) = watched_node();
    let staging = tier.deployment.staging();
    let payload = Payload::Staged {
        key: "staged/s/2".into(),
        len: 3,
    };
    staging
        .put(&tier.ctx, "staged/s/2", Bytes::from_static(b"big"))
        .unwrap();
    let staged_set = WriteOp::SetData {
        path: node.clone(),
        payload,
        expected_version: -1,
    };
    tier.submit("s", 2, staged_set);
    tier.run_follower();
    // From the moment the watch dispatches (➍), the staging bucket
    // refuses the delete that follows ➎'s wave until its retries are
    // spent: the invocation fails with its pops landed, before any
    // notification.
    let flaky = staging.clone();
    let leader = tier.leader_over(
        Arc::clone(tier.deployment.user_store()),
        Arc::new(HookedDispatcher {
            hook: move |_: &WatchTask| {
                flaky.install_chaos(exhausted_retries(1, |plan, spec| plan.obj_error = spec))
            },
            deliver: Some(tier.inline_dispatcher()),
        }),
    );
    let drain = || leader.drain_queue(&tier.ctx, tier.lane(0));

    let err = drain().unwrap_err();
    assert!(err.retryable && !err.deferred, "{err:?}");
    assert_eq!(txq_len(&tier, &node), 0, "the pops landed");
    let (results, events) = received(&endpoint);
    assert_eq!((results, events.len()), (vec![], 1), "fired, not yet acked");

    assert_eq!(drain().unwrap(), 1);
    assert_eq!(
        received(&endpoint),
        (vec![2], vec![]),
        "one result, no refire"
    );
    assert_eq!(&tier.stored(&node).unwrap().data[..], b"big");
}

/// A `multi` whose epoch pop is cancelled (an exhausted retry) stays
/// queued on every node it mutates. The redelivery applies it once,
/// under the later `set_data` of its epoch, and pops both nodes.
#[test]
fn a_multi_whose_pop_is_cancelled_stays_queued_on_every_node() {
    use crate::messages::MultiOp;
    let tier = Lanes::new(1);
    let endpoint = tier.session("s");
    for (request_id, path) in (1..).zip(["/x", "/y"]) {
        tier.submit("s", request_id, create(path));
    }
    tier.run_follower();
    assert_eq!(tier.drain(0).unwrap(), 2);

    let set_both = ["/x", "/y"].map(|path| MultiOp::SetData {
        path: path.into(),
        payload: Payload::inline(b"multi"),
        expected_version: -1,
    });
    tier.submit(
        "s",
        3,
        WriteOp::Multi {
            ops: set_both.into(),
        },
    );
    tier.submit("s", 4, set("/x", b"later x"));
    tier.run_follower();
    let kv = tier.deployment.system().kv();
    kv.install_chaos(exhausted_retries(1, |plan, spec| plan.kv_cancel = spec));
    let err = tier.drain(0).unwrap_err();
    assert!(err.retryable && err.failed_index == 0, "{err:?}");
    assert_eq!((txq_len(&tier, "/x"), txq_len(&tier, "/y")), (2, 1));
    assert_eq!(request_ids(&acked(&endpoint)), [1, 2], "nothing answered");

    assert_eq!(tier.drain(0).unwrap(), 2);
    assert_eq!((txq_len(&tier, "/x"), txq_len(&tier, "/y")), (0, 0));
    assert_eq!(&tier.stored("/x").unwrap().data[..], b"later x");
    assert_eq!(&tier.stored("/y").unwrap().data[..], b"multi");
    assert_eq!(request_ids(&acked(&endpoint)), [3, 4], "answered once");
    assert_eq!(tier.leaders[0].applied_ahead(), 0);
}

/// `watched_node`, overwritten once through the pipeline (its node
/// item carries the object tag of that write) and watched again.
fn tagged_watched_node() -> (Lanes, Endpoint, String) {
    let (tier, endpoint, node) = watched_node();
    tier.submit("s", 2, set(&node, b"a"));
    tier.run_follower();
    assert_eq!(tier.drain(0).unwrap(), 1);
    assert_eq!(received(&endpoint).0, vec![2]);
    let tags = ObjTags::of(tier.deployment.system().get_node(&tier.ctx, &node).as_ref());
    assert!(!tags.is_empty(), "the overwrite left a tag");
    tier.deployment
        .system()
        .register_watch(&tier.ctx, &node, WatchKind::Data, "s")
        .unwrap();
    (tier, endpoint, node)
}

/// Two writes of one tagged node in one batch, cut into two epochs
/// by the first one's watch. Both name the tag the read wave found:
/// the first lands, the second — stale now — costs one 412 and falls
/// back to the read-merge-write, whose tag the pop records.
#[test]
fn a_later_epoch_of_the_batch_falls_back_after_one_412() {
    let (tier, endpoint, node) = tagged_watched_node();
    tier.submit("s", 3, set(&node, b"b"));
    tier.submit("s", 4, set(&node, b"c"));
    tier.run_follower();
    let before = tier.deployment.meter().snapshot();
    assert_eq!(tier.drain(0).unwrap(), 2, "one batch");
    let used = tier.deployment.meter().snapshot().since(&before);
    assert_eq!(used.per_op.get("obj_put_412"), Some(&1));
    assert_eq!(
        (used.obj_gets, used.obj_puts),
        (1, 3),
        "tagged PUT; 412, GET + PUT"
    );
    let (results, events) = received(&endpoint);
    assert_eq!((results, events.len()), (vec![3, 4], 1));
    assert_eq!(&tier.stored(&node).unwrap().data[..], b"c");

    tier.submit("s", 5, set(&node, b"d"));
    tier.run_follower();
    let before = tier.deployment.meter().snapshot();
    assert_eq!(tier.drain(0).unwrap(), 1);
    let used = tier.deployment.meter().snapshot().since(&before);
    assert_eq!((used.obj_gets, used.obj_puts), (0, 1), "tagged again");
}

/// A crash after the tagged PUT and before the pop: the node item
/// still names the tag the PUT replaced. The redelivery's `If-Match`
/// fails once (412), the read-merge-write converges on the same
/// record, the client gets exactly one result and the watch — fired
/// and consumed before the crash — does not fire again.
#[test]
fn crash_between_tagged_put_and_pop_costs_one_412_and_acks_once() {
    let (tier, endpoint, node) = tagged_watched_node();
    tier.submit("s", 3, set(&node, b"new"));
    tier.run_follower();
    // From the moment the watch dispatches (➍, after the tagged PUT
    // of ➌), the system store refuses writes until the pop's retries
    // are spent: the invocation fails with its txid still queued. The
    // delivery's epoch-counter removal is the first refused write, the
    // pop the second.
    let kv = tier.deployment.system().kv().clone();
    let leader = tier.leader_over(
        Arc::clone(tier.deployment.user_store()),
        Arc::new(HookedDispatcher {
            hook: move |_: &WatchTask| {
                kv.install_chaos(exhausted_retries(2, |plan, spec| plan.kv_error = spec))
            },
            deliver: Some(tier.inline_dispatcher()),
        }),
    );
    let drain = || leader.drain_queue(&tier.ctx, tier.lane(0));
    let failed_puts = |tier: &Lanes| {
        let used = tier.deployment.meter().snapshot();
        used.per_op.get("obj_put_412").copied().unwrap_or(0)
    };

    let before = tier.deployment.meter().snapshot();
    let err = drain().unwrap_err();
    assert!(err.retryable && !err.deferred, "{err:?}");
    let used = tier.deployment.meter().snapshot().since(&before);
    assert_eq!((used.obj_gets, used.obj_puts), (0, 1), "one tagged PUT");
    assert_eq!(txq_len(&tier, &node), 1, "not popped");
    let (results, events) = received(&endpoint);
    assert_eq!((results, events.len()), (vec![], 1), "fired, not acked");

    let (before, failed) = (tier.deployment.meter().snapshot(), failed_puts(&tier));
    assert_eq!(drain().unwrap(), 1);
    let used = tier.deployment.meter().snapshot().since(&before);
    assert_eq!(failed_puts(&tier) - failed, 1, "one 412");
    assert_eq!(
        (used.obj_gets, used.obj_puts),
        (1, 2),
        "412, then GET + PUT"
    );
    assert_eq!(
        received(&endpoint),
        (vec![3], vec![]),
        "one result, no refire"
    );
    assert_eq!(txq_len(&tier, &node), 0);
    assert_eq!(&tier.stored(&node).unwrap().data[..], b"new");

    // The pop recorded the fallback's tag: the next write names it.
    tier.submit("s", 4, set(&node, b"next"));
    tier.run_follower();
    let before = tier.deployment.meter().snapshot();
    assert_eq!(drain().unwrap(), 1);
    let used = tier.deployment.meter().snapshot().since(&before);
    assert_eq!((used.obj_gets, used.obj_puts), (0, 1));
}

/// An injected object-store error on a conditional PUT rolls before
/// the precondition: the retry names the same tag and lands — no
/// 412, no read.
#[test]
fn obj_error_on_a_tagged_put_is_retried_with_the_same_tag() {
    let tier = Lanes::new(2);
    let _endpoint = tier.session("s");
    let bucket = ObjectStore::new(
        "user",
        fk_cloud::Region::US_EAST_1,
        tier.deployment.meter().clone(),
    );
    let store = Arc::new(bucket.clone());
    let leader = tier.leader_over(store, Arc::new(tier.inline_dispatcher()));
    let node = path_on(0, 0);
    for (request_id, op) in [(1, create(&node)), (2, set(&node, b"a"))] {
        tier.submit("s", request_id, op);
        tier.run_follower();
        assert_eq!(leader.drain_queue(&tier.ctx, tier.lane(0)).unwrap(), 1);
    }

    // One object-store error, on the next request: the tagged PUT.
    let mut plan = fk_cloud::chaos::FaultPlan::disabled();
    plan.obj_error = fk_cloud::chaos::FaultSpec::new(1.0, 1);
    bucket.install_chaos(fk_cloud::chaos::Chaos::from_plan(plan).expect("armed"));
    tier.submit("s", 3, set(&node, b"b"));
    tier.run_follower();
    let before = tier.deployment.meter().snapshot();
    assert_eq!(leader.drain_queue(&tier.ctx, tier.lane(0)).unwrap(), 1);
    let used = tier.deployment.meter().snapshot().since(&before);
    assert_eq!(used.per_op["fault:obj_error"], 1);
    assert_eq!(used.per_op["retry:obj.put"], 1);
    assert_eq!(used.per_op.get("obj_put_412"), None, "no 412");
    assert_eq!((used.obj_gets, used.obj_puts), (0, 1), "no read");
    let stored = bucket.get(&tier.ctx, &node).unwrap().0;
    assert_eq!(&crate::codec::decode_node(&stored).unwrap().data[..], b"b");
}

/// The `n`th path of the form `<parent>/k<i>` that routes to lane 0.
fn child_on_lane_0(parent: &str, nth: usize) -> String {
    (0..)
        .map(|i| format!("{parent}/k{i}"))
        .filter(|p| fk_cloud::queue::group_of(p, 2) == 0)
        .nth(nth)
        .expect("children hash to both groups")
}

fn multi_create(path: &str) -> crate::messages::MultiOp {
    crate::messages::MultiOp::Create {
        path: path.into(),
        payload: Payload::inline(b"x"),
        mode: CreateMode::Persistent,
    }
}

/// The one epoch-cut rule, seen through what an epoch costs (one
/// epoch-mark read and one marks transaction each): a conflict-free
/// multi shares its neighbours' epoch; a multi that creates a child
/// under a node another of its subs creates is alone in its epoch; a
/// multi whose parent target was written earlier in the epoch starts
/// the next one.
#[test]
fn multi_joins_its_neighbours_epoch_unless_a_parent_conflict_cuts_it() {
    use crate::messages::MultiOp;
    let tier = Lanes::new(2);
    let endpoints = ["a", "b", "c"].map(|id| tier.session(id));
    let [x, y, z] = [0, 1, 2].map(|nth| path_on(0, nth));
    for (session, node) in [("a", &x), ("b", &y), ("c", &z)] {
        tier.submit(session, 1, create(node));
    }
    tier.run_follower();
    assert_eq!(tier.drain(0).unwrap(), 3);

    // The epochs of one lane-0 batch `a: set x, b: <multi>, c: set z`.
    let mut request_id = 1;
    let mut epochs_of = |ops: Vec<MultiOp>| -> usize {
        request_id += 1;
        tier.submit("a", request_id, set(&x, b"a"));
        tier.submit("b", request_id, WriteOp::Multi { ops });
        tier.submit("c", request_id, set(&z, b"c"));
        tier.run_follower();
        let (processed, charges) = tier.charges_of(|| tier.drain(0).unwrap());
        assert_eq!(processed, 3, "one leader batch");
        let marks_transactions = charges
            .iter()
            .filter(|s| s.phase == "advance_session_marks")
            .count();
        let mark_reads = charges
            .iter()
            .filter(|s| s.phase == "update_user_storage")
            .filter(|s| matches!(s.op, Op::KvGet))
            .count();
        assert_eq!(mark_reads, marks_transactions, "one of each per epoch");
        marks_transactions
    };

    let check_and_set = vec![
        MultiOp::Check {
            path: z.clone(),
            expected_version: -1,
        },
        MultiOp::SetData {
            path: y.clone(),
            payload: Payload::inline(b"b"),
            expected_version: -1,
        },
    ];
    assert_eq!(epochs_of(check_and_set), 1, "conflict-free: one epoch");

    let parent = path_on(0, 3);
    let nested = vec![
        multi_create(&parent),
        multi_create(&child_on_lane_0(&parent, 0)),
    ];
    assert_eq!(epochs_of(nested), 3, "internal conflict: isolated");

    // `x` is written by the record before the multi.
    let under_x = vec![multi_create(&child_on_lane_0(&x, 0))];
    assert_eq!(epochs_of(under_x), 2, "starts the next epoch, joined by c");

    for endpoint in &endpoints {
        assert_eq!(request_ids(&acked(endpoint)), vec![1, 2, 3, 4]);
    }
    let violations = crate::consistency::check_tree_integrity(
        &tier.ctx,
        tier.deployment.system(),
        tier.deployment.user_store().as_ref(),
    );
    assert!(violations.is_empty(), "{violations:#?}");
}

/// Why the marks follow ➍'s epoch append: a successor on another
/// lane is released by its predecessor's mark, so by the time the
/// mark is visible the predecessor's fired watch id must already be
/// in the region's epoch list — the successor's record carries it.
#[test]
fn successor_released_by_a_mark_carries_the_predecessors_fired_watch_id() {
    let (tier, _endpoint, node) = watched_node();
    let successor = path_on(1, 0);
    tier.submit("s", 2, set(&node, b"new"));
    tier.submit("s", 3, create(&successor));
    tier.run_follower();
    assert!(tier.drain(1).unwrap_err().deferred, "held by the set");

    // Lane 0's leader never delivers, so the fired id stays in the
    // epoch list; at dispatch time (the id is published) it looks at
    // the session's mark.
    let system = tier.deployment.system().clone();
    let ctx = Ctx::disabled();
    let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let seen_at_dispatch = Arc::clone(&seen);
    let leader = tier.leader_over(
        Arc::clone(tier.deployment.user_store()),
        Arc::new(HookedDispatcher {
            hook: move |task: &WatchTask| {
                let mark = system.session_applied_txid(&ctx, "s");
                seen_at_dispatch
                    .lock()
                    .push((task.watch_id, task.event.txid, mark));
            },
            deliver: None,
        }),
    );
    assert_eq!(leader.drain_queue(&tier.ctx, tier.lane(0)).unwrap(), 1);
    let [(watch_id, set_txid, mark_at_dispatch)] = seen.lock()[..] else {
        panic!("the data watch fired once");
    };
    assert!(
        mark_at_dispatch < set_txid,
        "the mark ({mark_at_dispatch}) was advanced before the fired id was published"
    );
    let system = tier.deployment.system();
    assert_eq!(system.session_applied_txid(&tier.ctx, "s"), set_txid);

    assert_eq!(tier.drain(1).unwrap(), 1, "released by the mark");
    let record = tier.stored(&successor).unwrap();
    assert!(
        record.epoch_marks.contains(&watch_id),
        "{:?} lacks the predecessor's watch id {watch_id}",
        record.epoch_marks
    );
}

/// DES model of the cross-shard hold-back's *liveness* under
/// skip-ahead: shard groups drain on independent clocks, a window of
/// their lane at a time; each session's writes chain across groups
/// (write k waits for k-1, wherever it landed) and every third one
/// targets a hot node all sessions share, so one lane interleaves
/// every session's records on one `txq`. Some others are `multi`s that
/// route by a private node to any lane and also mutate the hot node, so
/// its `txq` is fed from every lane. An invocation applies what rules
/// (a), (b) and the `txq` rule allow, acknowledges up to the first held
/// record and remembers what it applied behind it. Every wait-for edge
/// points at an earlier-pushed record, and the earliest-pushed pending
/// record heads every `txq` it is in, so no schedule can deadlock: the
/// simulation must always fully drain, in session order and in per-node
/// push order, and forget everything it applied ahead. (The safety half
/// on the real pipeline is the `multi_leader_properties` suite.)
#[test]
fn multi_leader_holdback_always_converges_in_des() {
    use std::collections::VecDeque;

    const GROUPS: usize = 4;
    const SESSIONS: usize = 6;
    const WRITES_PER_SESSION: usize = 8;
    const WINDOW: usize = 4;
    /// The node every session writes; it lives in group 0's lane.
    const HOT: usize = 0;
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    struct Write {
        session: usize,
        seq: usize,
        node: usize,
        /// The hot node, when the write is a `multi` that also mutates it.
        also: Option<usize>,
    }
    impl Write {
        fn nodes(self) -> impl Iterator<Item = usize> {
            std::iter::once(self.node).chain(self.also)
        }
    }
    struct Sim {
        /// Per group: queued writes in push order.
        queues: Vec<VecDeque<Write>>,
        /// Per node: its `txq`, the unapplied writes that mutate it, in
        /// push order.
        txqs: HashMap<usize, VecDeque<Write>>,
        /// Per group: writes applied from behind a held one whose
        /// messages are still queued.
        ahead: Vec<HashSet<Write>>,
        /// Per session: writes applied so far (the mark).
        applied: Vec<usize>,
        /// Per node: the writes applied to it, in apply order.
        node_log: HashMap<usize, Vec<Write>>,
        deferrals: usize,
        skipped_ahead: usize,
        /// LCG state for per-group cadence jitter (the seed varies the
        /// queue routing; this varies the clocks).
        jitter: u64,
    }
    impl Sim {
        fn next_jitter(&mut self) -> u64 {
            self.jitter = self
                .jitter
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.jitter >> 33) % 4 + 1) * 1_000_000
        }
        /// One invocation over the head window of `group`'s lane.
        fn invoke(&mut self, group: usize) {
            let window: Vec<Write> = self.queues[group].iter().take(WINDOW).copied().collect();
            let mut first_held = None;
            let mut held_sessions = HashSet::new();
            for (index, write) in window.iter().enumerate() {
                if self.ahead[group].contains(write) {
                    continue;
                }
                // Earlier eligible records of the batch applied (and
                // popped) already, so the mark also covers rule (a)'s
                // in-batch case, and heading a `txq` means every write
                // ahead was an earlier eligible record's.
                let heads = write
                    .nodes()
                    .all(|node| self.txqs[&node].front() == Some(write));
                if held_sessions.contains(&write.session)
                    || !heads
                    || self.applied[write.session] < write.seq
                {
                    first_held.get_or_insert(index);
                    held_sessions.insert(write.session);
                    continue;
                }
                assert_eq!(self.applied[write.session], write.seq, "session order");
                self.applied[write.session] += 1;
                for node in write.nodes() {
                    self.txqs.get_mut(&node).and_then(VecDeque::pop_front);
                    self.node_log.entry(node).or_default().push(*write);
                }
                if first_held.is_some() {
                    self.ahead[group].insert(*write);
                    self.skipped_ahead += 1;
                }
            }
            self.deferrals += usize::from(first_held.is_some());
            for write in self.queues[group].drain(..first_held.unwrap_or(window.len())) {
                self.ahead[group].remove(&write);
            }
        }
    }
    let (mut skipped_ahead, mut cross_lane) = (0, 0);
    for seed in 0..20u64 {
        let mut queues: Vec<VecDeque<Write>> = vec![VecDeque::new(); GROUPS];
        // Global push order: sessions round-robin; a write goes to
        // the hot node or to a node of its own in a pseudo-random
        // group (the path hash), and one in four of the latter (about
        // one in six of all writes) is a `multi` that also mutates the
        // hot node.
        let mut route = 0xD15Cu64.wrapping_add(seed);
        let mut pushed: HashMap<usize, Vec<Write>> = HashMap::new();
        for seq in 0..WRITES_PER_SESSION {
            for session in 0..SESSIONS {
                route = route
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let private = 1 + seq * SESSIONS + session;
                let (node, group) = match (seq + session) % 3 {
                    0 => (HOT, 0),
                    _ => (private, (route >> 33) as usize % GROUPS),
                };
                let also = (node != HOT && route >> 40 & 3 == 0).then_some(HOT);
                let write = Write {
                    session,
                    seq,
                    node,
                    also,
                };
                queues[group].push_back(write);
                for node in write.nodes() {
                    pushed.entry(node).or_default().push(write);
                }
            }
        }
        let txqs = pushed
            .iter()
            .map(|(node, writes)| (*node, writes.iter().copied().collect()));
        let mut sim = Sim {
            queues,
            txqs: txqs.collect(),
            ahead: vec![HashSet::new(); GROUPS],
            applied: vec![0; SESSIONS],
            node_log: HashMap::new(),
            deferrals: 0,
            skipped_ahead: 0,
            jitter: seed ^ 0x5EED,
        };
        // Each group has at most one drain pending, as (virtual ns,
        // schedule order): the earliest runs next, ties in the order
        // they were scheduled. A group drains again while any lane
        // holds work, after a jittered cadence, so schedules interleave
        // differently every seed.
        let mut next: Vec<Option<(u64, u64)>> = (0..GROUPS as u64)
            .map(|group| Some((1_000_000, group)))
            .collect();
        let mut scheduled = GROUPS as u64;
        while let Some((group, (now, _))) = (next.iter().enumerate())
            .filter_map(|(group, slot)| slot.map(|at| (group, at)))
            .min_by_key(|&(_, at)| at)
        {
            if now > 60_000_000_000 {
                break; // 60 virtual seconds — far beyond need
            }
            sim.invoke(group);
            next[group] = None;
            if sim.queues.iter().any(|q| !q.is_empty()) {
                next[group] = Some((now + sim.next_jitter(), scheduled));
                scheduled += 1;
            }
        }
        assert_eq!(
            sim.applied,
            vec![WRITES_PER_SESSION; SESSIONS],
            "seed {seed}: tier wedged with {} deferrals",
            sim.deferrals
        );
        assert_eq!(sim.node_log, pushed, "seed {seed}: per-node push order");
        assert!(
            sim.ahead.iter().all(HashSet::is_empty),
            "seed {seed}: applied-ahead state outlived its messages"
        );
        skipped_ahead += sim.skipped_ahead;
        cross_lane += (pushed[&HOT].iter())
            .filter(|write| write.also.is_some())
            .count();
    }
    eprintln!(
        "over 20 seeds: {skipped_ahead} records applied ahead, {cross_lane} cross-lane multis"
    );
    assert!(skipped_ahead > 0, "the schedules never skipped ahead");
    assert!(cross_lane > 0, "no multi mutated the hot node");
}

/// Create-heavy batch, no live watches: each fired path's registry
/// item is read once per batch instead of once per transaction and
/// class — for N creates under one parent, N + 2 registry reads.
#[test]
fn segmentation_dedups_watch_registry_reads_across_batch() {
    let deployment = Deployment::direct(DeploymentConfig::aws());
    let follower = deployment.make_follower();
    let leader = deployment.make_leader_inline();
    let ctx = fk_cloud::trace::Ctx::disabled();
    deployment.system().register_session(&ctx, "s", 0).unwrap();
    let _endpoint = deployment.bus().register("s");

    let submit = |rid: u64, path: &str| {
        let request = ClientRequest {
            session_id: "s".into(),
            request_id: rid,
            op: WriteOp::Create {
                path: path.to_owned(),
                payload: Payload::inline(b"x"),
                mode: CreateMode::Persistent,
            },
        };
        deployment
            .write_queue()
            .send(&ctx, "s", request.encode())
            .unwrap();
    };
    let drain_follower = || {
        while let Some(batch) = deployment.write_queue().receive(10, Duration::from_secs(5)) {
            follower.process_messages(&ctx, &batch.messages).unwrap();
            deployment.write_queue().ack(batch.receipt);
        }
    };

    // Setup: the parent exists before the measured batch.
    submit(1, "/p");
    drain_follower();
    while leader.drain_queue(&ctx, deployment.leader_queue()).unwrap() > 0 {}

    let n = 8u64;
    for i in 0..n {
        submit(2 + i, &format!("/p/c{i}"));
    }
    drain_follower();

    let before = deployment.meter().snapshot();
    let processed = leader.drain_queue(&ctx, deployment.leader_queue()).unwrap();
    assert_eq!(processed as u64, n, "one leader batch");
    let reads = deployment.meter().snapshot().since(&before).per_op["kv_read"];
    // Per batch, all in the one read wave: N node reads + one read of
    // the shared parent's item (its pending children log) + one
    // registry read per distinct fired path (N child paths, the
    // shared parent /p, the shared root — the point classes and the
    // subtree candidates of a path share its one item) + 1
    // epoch-mark read. The unmemoized leader paid 2 N point reads
    // alone, the per-class wave (N + 1) + (N + 2).
    assert_eq!(
        reads,
        n + 1 + (n + 2) + 1,
        "registry reads deduped across the batch"
    );
}

// The planner on data alone: `plan::{mark_probes, hold_back, segment}`
// over hand-built records, with no deployment.

/// A sub that mutates `path` (a delete).
fn mutate(path: &str) -> MultiSub {
    sub(path, UserUpdate::DeleteNode { path: path.into() })
}

/// A version check on `path`: it mutates nothing.
fn check(path: &str) -> MultiSub {
    sub(path, UserUpdate::None)
}

/// A write of node `path`; a create names the `parent` whose children
/// it joins.
fn write_node(path: &str, parent: Option<&str>) -> MultiSub {
    assert!(parent.is_none() || parent == crate::path::parent(path));
    sub(
        path,
        UserUpdate::WriteNode {
            path: path.into(),
            payload: Payload::inline(b"x"),
            created_txid: 0,
            version: 0,
            has_children: false,
            ephemeral_owner: None,
            joins_parent: parent.is_some(),
        },
    )
}

fn sub(path: &str, user_update: UserUpdate) -> MultiSub {
    MultiSub {
        path: path.into(),
        user_update,
        fires: Vec::new(),
        is_delete: false,
        outcome: OpOutcome::Deleted { path: path.into() },
    }
}

/// A record of `session` with its own txid and its session predecessor.
fn record(session: &str, txid: u64, prev_txid: u64, ops: Vec<MultiSub>) -> LeaderRecord {
    LeaderRecord {
        session_id: session.into(),
        request_id: txid,
        txid,
        prev_txid,
        commit: crate::messages::SystemCommit { items: Vec::new() },
        deregister_session: false,
        ops,
    }
}

fn deregistration(session: &str, txid: u64, prev_txid: u64) -> LeaderRecord {
    LeaderRecord {
        deregister_session: true,
        ..record(session, txid, prev_txid, Vec::new())
    }
}

/// The records as one decoded queue batch, in order.
fn decoded(records: Vec<LeaderRecord>) -> Vec<Decoded> {
    let indexed = records.into_iter().enumerate();
    indexed.map(|(i, r)| (i, r.txid, r)).collect()
}

fn warm(marks: &[(&str, u64)], ahead: &[u64]) -> Warm {
    let mut warm = Warm::default();
    for (session, mark) in marks {
        warm.note_mark(session, *mark);
    }
    warm.ahead.extend(ahead);
    warm
}

/// `hold_back`'s verdict: (eligible indices, held, applied-ahead
/// indices).
type Verdict = (Vec<usize>, Vec<Held>, Vec<usize>);

fn verdict(batch: &[Decoded], warm: &Warm, txqs: &[(&'static str, Vec<u64>)]) -> Verdict {
    let sequenced = hold_back(batch, warm, &txqs.iter().cloned().collect());
    let eligible = sequenced.eligible.iter().map(|(i, _, _)| *i).collect();
    let ahead = sequenced.applied_ahead.iter().map(|(i, _)| *i).collect();
    (eligible, sequenced.held, ahead)
}

fn held(index: usize, rule: Rule) -> Held {
    Held { index, rule }
}

/// One row per hold-back rule, each with the rule that held, over the
/// `txq`s the read wave found (none before it).
#[test]
fn hold_back_table() {
    use Rule::*;
    let (x, y) = (|| vec![mutate("/x")], || vec![mutate("/y")]);
    type Row = (
        &'static str,
        Vec<LeaderRecord>,
        Warm,
        Vec<(&'static str, Vec<u64>)>,
        Verdict,
    );
    let rows: Vec<Row> = vec![
        (
            "(a) an unknown predecessor holds; a remembered mark or an earlier eligible record covers",
            vec![
                record("s", 10, 5, x()),
                record("t", 11, 7, y()),
                record("t", 12, 11, vec![mutate("/z")]),
            ],
            warm(&[("t", 7)], &[]),
            vec![],
            (vec![1, 2], vec![held(0, Predecessor)], vec![]),
        ),
        (
            "(b) a later record of a held session stays held",
            vec![record("s", 10, 5, x()), record("s", 12, 10, y())],
            warm(&[], &[]),
            vec![],
            (vec![], vec![held(0, Predecessor), held(1, Session)], vec![]),
        ),
        (
            "txq, the batch alone: a record on a held node stays held, as a plain write and as a multi sub; a check does not",
            vec![
                record("s", 10, 5, x()),
                record("t", 11, 0, x()),
                record("u", 12, 0, vec![check("/y"), mutate("/x")]),
                record("v", 13, 0, vec![check("/x"), mutate("/w")]),
            ],
            warm(&[], &[]),
            vec![],
            (vec![3], vec![held(0, Predecessor), held(1, Txq), held(2, Txq)], vec![]),
        ),
        (
            "txq, as read: a foreign txid ahead holds, on any node a multi mutates; eligible txids ahead and any txid behind do not",
            vec![
                record("s", 10, 0, x()),
                record("t", 12, 0, vec![mutate("/w"), mutate("/y")]),
                record("u", 14, 0, vec![mutate("/z"), mutate("/x")]),
            ],
            warm(&[], &[]),
            vec![("/x", vec![10, 14]), ("/y", vec![9, 12]), ("/z", vec![14, 16])],
            (vec![0, 2], vec![held(1, Txq)], vec![]),
        ),
        (
            "a deregistration never skips ahead of a held record",
            vec![
                deregistration("t", 9, 3),
                record("s", 10, 5, x()),
                deregistration("u", 11, 0),
            ],
            warm(&[("t", 3)], &[]),
            vec![],
            (vec![0], vec![held(1, Predecessor), held(2, Deregistration)], vec![]),
        ),
        (
            "a record applied ahead is skipped, and its mark covers its successor",
            vec![
                record("s", 10, 5, x()),
                record("t", 11, 0, y()),
                record("t", 12, 11, vec![mutate("/z")]),
            ],
            warm(&[("t", 11)], &[11]),
            vec![],
            (vec![2], vec![held(0, Predecessor)], vec![1]),
        ),
        (
            "a single-group batch (no txid, no predecessor) holds nothing",
            vec![record("s", 0, 0, x()), record("t", 0, 0, x())],
            warm(&[], &[]),
            vec![],
            (vec![0, 1], vec![], vec![]),
        ),
    ];
    for (name, records, warm, txqs, want) in rows {
        assert_eq!(verdict(&decoded(records), &warm, &txqs), want, "{name}");
    }
}

/// ROADMAP item 17's torn read, on data alone: the read wave finds the
/// txid of `multi[create /p/c, set_data /p]` on one node only (its
/// commit, or its pop, landed between the reads). The `txq` rule holds
/// it — it does not head the other node — instead of its create being
/// dropped as already popped. A re-read that agrees classifies it.
#[test]
fn a_multi_read_committed_on_one_node_only_is_held_not_dropped() {
    let multi = vec![write_node("/p/c", Some("/p")), write_node("/p", None)];
    let batch = decoded(vec![record("s", 7, 0, multi)]);
    let none = warm(&[], &[]);
    for torn in [
        [("/p", vec![7]), ("/p/c", vec![])],
        [("/p", vec![]), ("/p/c", vec![7])],
    ] {
        let want = (vec![], vec![held(0, Rule::Txq)], vec![]);
        assert_eq!(verdict(&batch, &none, &torn), want, "{torn:?}");
    }
    use CommitState::*;
    let (_, txid, multi) = &batch[0];
    let state = |txqs: [(&'static str, Vec<u64>); 2], version| {
        assert_eq!(verdict(&batch, &none, &txqs).0, [0], "{txqs:?}: eligible");
        commit_state(*txid, multi, version, &txqs.into_iter().collect())
    };
    let both = [("/p", vec![7]), ("/p/c", vec![7])];
    let neither = [("/p", vec![]), ("/p/c", vec![])];
    assert_eq!(state(both, Some(3)), Committed);
    assert_eq!(state(neither.clone(), Some(3)), Missing);
    assert_eq!(state(neither, Some(7)), AlreadyProcessed);
    // A check-only `multi` mutates no node: no `txq` speaks for it.
    let checked = record("s", 8, 0, vec![check("/p")]);
    assert_eq!(commit_state(8, &checked, None, &Txqs::new()), Missing);
}

/// The mark wave reads each session at most once, and only where no
/// earlier record of the batch, no remembered mark and no applied-ahead
/// skip answers.
#[test]
fn mark_probes_table() {
    let x = || vec![mutate("/x")];
    let rows: Vec<(&str, Vec<LeaderRecord>, Warm, Vec<&str>)> = vec![
        (
            "one read per unresolved session, in first-need order",
            vec![
                record("t", 10, 4, x()),
                record("s", 11, 5, x()),
                record("t", 12, 9, x()),
            ],
            warm(&[], &[]),
            vec!["t", "s"],
        ),
        (
            "covered by an earlier record of the batch or a remembered mark",
            vec![
                record("s", 10, 0, x()),
                record("s", 12, 10, x()),
                record("t", 13, 6, x()),
            ],
            warm(&[("t", 6)], &[]),
            vec![],
        ),
        (
            "a record applied ahead needs no mark",
            vec![record("s", 10, 5, x())],
            warm(&[], &[10]),
            vec![],
        ),
        (
            "a single-group batch reads nothing",
            vec![record("s", 0, 0, x()), record("t", 0, 0, x())],
            warm(&[], &[]),
            vec![],
        ),
    ];
    for (name, records, warm, want) in rows {
        assert_eq!(mark_probes(&decoded(records), &warm), want, "{name}");
    }
}

/// Each epoch of `segment` over `records` as its records' txids, with
/// `watched` (path, kind) registrations live; a firing epoch is marked
/// with a `!` after its last txid.
fn epochs_of(records: Vec<LeaderRecord>, watched: &[(&str, WatchKind)]) -> Vec<String> {
    let batch = decoded(records);
    let eligible: Vec<&Decoded> = batch.iter().collect();
    let fires = BatchFires::of(&eligible);
    let committed = eligible.iter().map(|(index, txid, record)| {
        let tx = CommittedTx {
            msg_index: *index,
            txid: *txid,
            record,
            data: vec![Bytes::new(); record.ops.len()],
            ahead: false,
            tags: ObjTags::default(),
        };
        (tx, fires.of_record(*index))
    });
    let live: HashMap<&str, KindSet> = watched
        .iter()
        .map(|(path, kind)| {
            let instance = WatchInstance {
                id: 1,
                kind: *kind,
                sessions: Vec::new(),
            };
            (*path, KindSet::of(&[instance]))
        })
        .collect();
    let epochs = segment(committed.collect(), &live);
    let shown = epochs.iter().map(|epoch| {
        let txids: Vec<String> = epoch.items.iter().map(|tx| tx.txid.to_string()).collect();
        txids.join(" ") + if epoch.fires.is_some() { "!" } else { "" }
    });
    shown.collect()
}

/// One row per epoch-cut rule.
#[test]
fn segment_table() {
    let set = |path: &str| MultiSub {
        fires: vec![crate::messages::FiredWatch {
            watch_path: path.into(),
            event_type: WatchEventType::NodeDataChanged,
        }],
        ..write_node(path, None)
    };
    let create_under = |path: &str, parent: &str| write_node(path, Some(parent));
    let conflict = vec![
        record("s", 1, 0, vec![create_under("/p", "/")]),
        record("t", 2, 0, vec![set("/q")]),
        record("u", 3, 0, vec![create_under("/p/c", "/p")]),
        record("v", 4, 0, vec![set("/r")]),
    ];
    assert_eq!(
        epochs_of(conflict, &[]),
        ["1 2", "3 4"],
        "a child's create under a node the epoch wrote starts the next epoch"
    );
    let multi = vec![
        record("s", 1, 0, vec![set("/a")]),
        record(
            "t",
            2,
            0,
            vec![create_under("/m", "/"), create_under("/m/c", "/m")],
        ),
        record("u", 3, 0, vec![set("/b")]),
    ];
    assert_eq!(
        epochs_of(multi, &[]),
        ["1", "2", "3"],
        "a multi with an internal parent/child conflict is alone in its epoch"
    );
    let watched = || {
        vec![
            record("s", 1, 0, vec![set("/a")]),
            record("t", 2, 0, vec![set("/w")]),
            record("u", 3, 0, vec![set("/b")]),
            record("v", 4, 0, vec![set("/w")]),
        ]
    };
    assert_eq!(epochs_of(watched(), &[]), ["1 2 3 4"], "nothing live");
    assert_eq!(
        epochs_of(watched(), &[("/w", WatchKind::Data)]),
        ["1 2!", "3 4!"],
        "a firing record ends its epoch; the wave's answer holds for the batch"
    );
    assert_eq!(
        epochs_of(watched(), &[("/w", WatchKind::Children)]),
        ["1 2 3 4"],
        "a data change does not fire a children watch"
    );
    assert_eq!(
        epochs_of(watched(), &[("/", WatchKind::Subtree)]),
        ["1!", "2!", "3!", "4!"],
        "a subtree watch on an ancestor fires for every write below it"
    );
    // A create pops its node and its parent: 13 under 13 parents pop 26.
    let create = |i: u64| create_under(&format!("/p{i}/c"), &format!("/p{i}"));
    let spread = (1..=13).map(|i| record(&format!("s{i}"), i, 0, vec![create(i)]));
    let want = ["1 2 3 4 5 6 7 8 9 10 11 12", "13"];
    assert_eq!(epochs_of(spread.collect(), &[]), want, "past 25 pops");
    let lone = vec![
        record("s", 1, 0, vec![set("/a")]),
        record("t", 2, 0, (10..25).map(create).collect()),
        record("u", 3, 0, vec![set("/b")]),
    ];
    assert_eq!(epochs_of(lone, &[]), ["1", "2", "3"], "30 pops alone");
    let same_node = (1..=30).map(|i| record(&format!("s{i}"), i, 0, vec![set("/a")]));
    assert_eq!(epochs_of(same_node.collect(), &[]).len(), 1, "one node");
}

/// A random lane-0 batch of a 2-group tier and the facts about it: each
/// session's mark in system storage, each node's `txq` (lane 1's
/// pending txids among the batch's), and what the warm instance
/// remembers (a lower bound of each mark, and some txids applied
/// ahead).
struct Case {
    batch: Vec<Decoded>,
    store: HashMap<String, u64>,
    txqs: HashMap<String, Vec<u64>>,
    warm: Warm,
}

impl Case {
    fn random(rng: &mut rand::rngs::SmallRng) -> Case {
        use rand::Rng;
        let sessions: Vec<String> = (0..rng.gen_range(2..=3usize))
            .map(|s| format!("s{s}"))
            .collect();
        let len = rng.gen_range(1..=10usize);
        let paths = ["/a", "/b", "/c", "/d"];
        // Pushes in global order, each to lane 0 or 1; the batch is
        // lane 0's. `history` is each session's txid chain.
        let mut history: HashMap<&str, Vec<u64>> = HashMap::new();
        let (mut records, mut txid) = (Vec::new(), 0);
        let mut txqs: HashMap<String, Vec<u64>> = HashMap::new();
        while records.len() < len {
            let session = &sessions[rng.gen_range(0..sessions.len())];
            txid += rng.gen_range(1..=3u64);
            let chain = history.entry(session).or_default();
            let prev = chain.last().copied().unwrap_or(0);
            chain.push(txid);
            let record = if rng.gen_bool(0.1) {
                deregistration(session, txid, prev)
            } else {
                let ops = (0..rng.gen_range(1..=3usize)).map(|_| {
                    let path = paths[rng.gen_range(0..paths.len())];
                    if rng.gen_bool(0.2) {
                        check(path)
                    } else {
                        mutate(path)
                    }
                });
                record(session, txid, prev, ops.collect())
            };
            // A lane-0 record's commit may not have landed yet; a
            // lane-1 record may be distributed already; and a read wave
            // may read a record's nodes across its commit or its pop,
            // finding it on some of them only.
            let (in_batch, queued) = (rng.gen_bool(0.6), rng.gen_bool(0.7));
            if queued {
                let mut paths: Vec<&str> = mutated_paths(&record).collect();
                if rng.gen_bool(0.1) {
                    let torn = paths.last().copied();
                    paths.retain(|path| Some(*path) != torn);
                }
                for path in paths {
                    txqs.entry(path.to_owned()).or_default().push(txid);
                }
            }
            if in_batch {
                records.push(record);
            }
        }
        // A mark is a prefix of the session's chain, the remembered one
        // a shorter prefix (or none).
        let (mut store, mut warm) = (HashMap::new(), Warm::default());
        for (session, chain) in &history {
            let prefix = |len: usize| len.checked_sub(1).map_or(0, |last| chain[last]);
            let distributed = rng.gen_range(0..=chain.len());
            store.insert(session.to_string(), prefix(distributed));
            if rng.gen_bool(0.5) {
                warm.note_mark(session, prefix(rng.gen_range(0..=distributed)));
            }
        }
        for record in &records {
            if rng.gen_bool(0.15) {
                // Applied ahead: distributed, so popped.
                warm.ahead.insert(record.txid);
                txqs.values_mut()
                    .for_each(|txq| txq.retain(|t| *t != record.txid));
            }
        }
        Case {
            batch: decoded(records),
            store,
            txqs,
            warm,
        }
    }

    /// True if `eligible` (a bit per batch record) is what the rules,
    /// each read as a predicate over that set, call eligible: a record
    /// not applied ahead is eligible iff no rule holds it, and only such
    /// records are.
    fn satisfies(&self, eligible: u32) -> bool {
        let is_eligible = |j: usize| eligible & 1 << j != 0;
        let ahead = |j: usize| self.warm.ahead.contains(&self.batch[j].1);
        (0..self.batch.len()).all(|i| {
            let (_, _, r) = &self.batch[i];
            if ahead(i) {
                return !is_eligible(i);
            }
            let earlier = || (0..i).filter(|&j| !ahead(j)).map(|j| (j, &self.batch[j].2));
            let held = || earlier().filter(|(j, _)| !is_eligible(*j)).map(|(_, q)| q);
            let session = |q: &&LeaderRecord| q.session_id == r.session_id;
            // A txid ahead of r's in the txq of a node r mutates: stored,
            // or an earlier record's of the batch.
            let ahead = |path: &str| {
                let stored = self.txqs.get(path).into_iter().flatten().copied();
                let mutates = |q: &LeaderRecord| mutated_paths(q).any(|p| p == path);
                let batch = earlier().filter(|(_, q)| mutates(q)).map(|(_, q)| q.txid);
                stored
                    .chain(batch)
                    .filter(|t| *t < r.txid)
                    .collect::<Vec<_>>()
            };
            let eligible_txid = |t: u64| earlier().any(|(j, q)| is_eligible(j) && q.txid == t);
            let mark = self.store[&r.session_id];
            let known = r.prev_txid == 0
                || mark >= r.prev_txid
                || earlier().any(|(j, q)| is_eligible(j) && session(&q) && q.txid >= r.prev_txid);
            let deregistration = r.deregister_session && held().next().is_some();
            let by_session = held().any(|q| session(&q));
            let queued = |p: &str| self.txqs.get(p).is_some_and(|txq| txq.contains(&r.txid));
            let torn = mutated_paths(r).any(queued) && !mutated_paths(r).all(queued);
            let by_txq =
                torn || mutated_paths(r).any(|p| ahead(p).into_iter().any(|t| !eligible_txid(t)));
            let holds = !known || by_session || by_txq || deregistration;
            is_eligible(i) != holds
        })
    }
}

/// `hold_back`, as the shell runs it — after the mark wave over
/// `mark_probes` on the batch alone, then again over the `txq`s the read
/// wave finds on the nodes its eligible records mutate — against a
/// brute-force reference: over every subset of a random batch, exactly
/// one satisfies the declarative definition of "eligible", and it is
/// `hold_back`'s eligible set. The batch alone misses foreign txids, so
/// its verdict fails the reference in some cases.
#[test]
fn hold_back_matches_the_brute_force_reference() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(14);
    let mut rules: HashMap<Rule, usize> = HashMap::new();
    let (mut probed, mut skipped, mut batch_alone_wrong) = (0, 0, 0);
    let set_of = |eligible: &[&Decoded]| eligible.iter().fold(0u32, |set, (i, _, _)| set | 1 << i);
    for case_no in 0..2_000 {
        let mut case = Case::random(&mut rng);
        // The shell: one wave over the probes, noted as marks.
        for session in mark_probes(&case.batch, &case.warm) {
            case.warm.note_mark(session, case.store[session]);
            probed += 1;
        }
        let before = hold_back(&case.batch, &case.warm, &HashMap::new());
        let read: HashMap<&str, Vec<u64>> = before
            .eligible
            .iter()
            .flat_map(|(_, _, record)| mutated_paths(record))
            .map(|path| (path, case.txqs.get(path).cloned().unwrap_or_default()))
            .collect();
        let sequenced = hold_back(&case.batch, &case.warm, &read);
        for held in &before.held {
            let still = sequenced.held.iter().any(|h| h.index == held.index);
            assert!(still, "case {case_no}: the wave only holds more");
        }
        batch_alone_wrong += usize::from(!case.satisfies(set_of(&before.eligible)));
        let chosen = set_of(&sequenced.eligible);
        let fixed_points: Vec<u32> = (0..1u32 << case.batch.len())
            .filter(|set| case.satisfies(*set))
            .collect();
        assert_eq!(fixed_points, [chosen], "case {case_no}: {:#?}", case.batch);
        let held: u32 = sequenced.held.iter().fold(0, |set, h| set | 1 << h.index);
        let ahead = sequenced
            .applied_ahead
            .iter()
            .fold(0u32, |set, (i, _)| set | 1 << i);
        assert_eq!(
            chosen | held | ahead,
            (1 << case.batch.len()) - 1,
            "case {case_no}"
        );
        assert_eq!(
            (chosen & held) | (chosen & ahead) | (held & ahead),
            0,
            "case {case_no}"
        );
        for h in &sequenced.held {
            *rules.entry(h.rule).or_default() += 1;
        }
        skipped += sequenced.applied_ahead.len();
    }
    println!(
        "rules held {rules:?}; {probed} marks probed, {skipped} records skipped ahead; \
         the batch alone was wrong in {batch_alone_wrong} cases"
    );
    assert_eq!(rules.len(), 4, "every rule held some record: {rules:?}");
    assert!(probed > 0 && skipped > 0 && batch_alone_wrong > 0);
}
