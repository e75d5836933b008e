//! The distributor's epoch apply, pinned from outside at both tier
//! widths the storm workload and the paper run (1 and 2 shard groups):
//!
//! * `epoch_request_budget_*` — the storage requests one
//!   `Distributor::apply_epoch` issues for a fixed epoch, by operation
//!   and meter label, printed under `--nocapture`. One constant holds at
//!   both widths. The width-2 constants were captured at `49694f9` (the
//!   last commit that dealt a multi-group epoch's paths to path-hash
//!   shards) and held until `ec750ef`, the last commit without object
//!   tags: `ObjGet=10 ObjPut=10` for 8 `set_data` + a create,
//!   `ObjGet=2 ObjPut=2 ObjDelete=1` for a create + delete. Since, a
//!   create is one `If-None-Match` PUT and a write whose object tag is
//!   on record one `If-Match` PUT: `ObjGet` falls by exactly the number
//!   of creates and tagged writes and `ObjPut` does not move. The
//!   key-value store held `kv_read=10 kv_write=10` until `501bc2e`, the
//!   last commit whose items carried no tag; its reads now fall the same
//!   way. At width 1, `6da5245` (the last commit with a separate
//!   single-group apply, shard batches flushed in
//!   three barrier-separated waves) read `ObjGet=11 ObjPut=10` for
//!   8 `set_data` + a create, `ObjGet=3 ObjPut=2 ObjDelete=1` for a
//!   create + delete, `kv_read=1 kv_write=1 kv_transact=3` on the
//!   key-value store, and the same `ObjGet=1 ObjPut=1` for
//!   `[check, set_data]`: a standalone parent rewrite paid a base read
//!   plus the object store's own pre-write GET, and the key-value store
//!   committed each shard batch as one transaction. Scheduling may move
//!   *when* a request goes out, never *which* requests go out.
//!
//! * `visibility_*`, `cap_*`, `*_rmw_rounds`, `*_regions_*` — the order
//!   and the overlap of the apply's store operations, read off a
//!   recording store: a parent's children rewrite starts after the writes
//!   of the children the epoch's creates added to it, a delete after its
//!   parent's rewrite, no region has more than `shards` operations in
//!   flight, and on a fixed-latency model the epoch costs exactly its
//!   list schedule — ⌈N/S⌉ read-modify-write rounds for N independent
//!   writes on S workers, the slower region's time for two regions.
//!
//! * `nested_creates_*`, `first_create_under_the_root_*` — what the
//!   leader's epoch cut and the seeded root record guarantee end to end.
//!
//! * `a_batch_needing_30_pop_items_*` — an epoch's pops are one write of
//!   at most 25 nodes, so the leader cuts a batch that needs more into
//!   epochs, each popping in one transaction.
//!
//! * `tagged_*` — the fallbacks of a conditional write: a stale tag
//!   (the object was rewritten behind the leader) costs one 412 and then
//!   the read-merge-write, with the bytes the read-merge-write alone
//!   stores; a child's create removes its parent's tag, so the parent's
//!   next write fails no precondition; a create over a cross-group stub
//!   fails its `If-None-Match` and keeps the stub's children; a write
//!   whose object already holds a newer children list than the record
//!   does not name the tag at all.
//!
//! Every epoch is produced by the real follower on a direct deployment
//! (virtual time, fixed seed) over a tree seeded through the real
//! pipeline; the records are then handed to a distributor of that
//! deployment directly, so the measured requests are the apply's alone.

use bytes::Bytes;
use fk_cloud::expr::{Condition, Update};
use fk_cloud::faas::FunctionConfig;
use fk_cloud::latency::{LatencyModel, LatencySpec};
use fk_cloud::metering::UsageSnapshot;
use fk_cloud::objectstore::{Precondition, Tag};
use fk_cloud::ops::Op;
use fk_cloud::queue::group_of;
use fk_cloud::trace::{Ctx, LatencyMode, SpanRecord};
use fk_cloud::{CloudResult, Region};
use fk_core::api::CreateMode;
use fk_core::deploy::{Deployment, DeploymentConfig, InlineDispatcher};
use fk_core::distributor::{ChildLogs, CommittedTx, Distributor, DistributorConfig};
use fk_core::follower::Follower;
use fk_core::leader::Leader;
use fk_core::messages::{ClientRequest, LeaderRecord, MultiOp, Payload, UserUpdate, WriteOp};
use fk_core::system_store::{node_attr, ChildLog, ObjTags};
use fk_core::{FrameStore, NodeRecord, UserStore};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SESSION: &str = "s";
const SEED: u64 = 7;
/// The tier widths every test runs at: the paper's single leader and
/// the storm workload's 2 lanes.
const WIDTHS: [usize; 2] = [1, 2];
/// The storm workload's 3 storage workers.
const SHARDS: usize = 3;

/// A direct deployment of some width on virtual time with one
/// registered session, its follower and one inline leader per lane.
struct Rig {
    deployment: Deployment,
    follower: Follower,
    leaders: Vec<Leader>,
    ctx: Ctx,
    next_request: std::cell::Cell<u64>,
    _endpoint: crossbeam::channel::Receiver<fk_core::messages::ClientNotification>,
}

impl Rig {
    fn new(config: DeploymentConfig, groups: usize) -> Rig {
        let deployment = Deployment::direct(
            config
                .with_shard_groups(groups)
                .with_mode(LatencyMode::Virtual, SEED),
        );
        let ctx = Ctx::new(Arc::clone(deployment.model()), LatencyMode::Virtual, SEED);
        deployment
            .system()
            .register_session(&ctx, SESSION, 0)
            .unwrap();
        Rig {
            follower: deployment.make_follower(),
            leaders: (0..groups)
                .map(|_| deployment.make_leader_inline())
                .collect(),
            _endpoint: deployment.bus().register(SESSION).0,
            ctx,
            next_request: std::cell::Cell::new(0),
            deployment,
        }
    }

    /// A rig whose tree holds `/f` with children `k0`…`k7` and `/g` with
    /// child `b`, written through the full pipeline.
    fn seeded(config: DeploymentConfig, groups: usize) -> Rig {
        let rig = Rig::new(config, groups);
        let mut ops = vec![create("/f"), create("/g"), create("/g/b")];
        ops.extend((0..8).map(|i| create(&format!("/f/k{i}"))));
        for op in ops {
            rig.commit(op);
        }
        rig
    }

    /// Runs `op` through follower and leaders until it is distributed.
    fn commit(&self, op: WriteOp) {
        self.push(op);
        for _ in 0..16 {
            let lanes = self.deployment.leader_queues();
            if (0..self.groups()).all(|g| lanes.queue(g).pending() == 0) {
                return;
            }
            for (group, leader) in self.leaders.iter().enumerate() {
                let _ = leader.drain_queue(&self.ctx, lanes.queue(group));
            }
        }
        panic!("the seeding pipeline did not drain");
    }

    /// Runs `op` through the follower only: it commits to system storage
    /// and pushes its leader record to a lane.
    fn push(&self, op: WriteOp) {
        let request_id = self.next_request.get() + 1;
        self.next_request.set(request_id);
        let request = ClientRequest {
            session_id: SESSION.into(),
            request_id,
            op,
        };
        self.follower.process_request(&self.ctx, &request).unwrap();
    }

    /// The tier width.
    fn groups(&self) -> usize {
        self.leaders.len()
    }

    /// The records of `ops`, committed by the follower and taken off the
    /// lanes instead of reaching a leader, in txid order.
    fn epoch(&self, ops: Vec<WriteOp>) -> Vec<LeaderRecord> {
        for op in ops {
            self.push(op);
        }
        let lanes = self.deployment.leader_queues();
        let mut records = Vec::new();
        for group in 0..self.groups() {
            while let Some(batch) = lanes.queue(group).receive(10, Duration::from_secs(5)) {
                for message in &batch.messages {
                    let mut record = LeaderRecord::decode(&message.body).expect("a leader record");
                    // A single-group follower allocates no txid: the
                    // lane's sequence number is the txid, as the leader
                    // reads it.
                    if record.txid == 0 {
                        record.txid = message.seq;
                    }
                    records.push(record);
                }
                lanes.queue(group).ack(batch.receipt);
            }
        }
        records.sort_by_key(|record| record.txid);
        records
    }

    /// The distributor geometry of this rig: its width, `SHARDS` workers.
    fn config(&self) -> DistributorConfig {
        DistributorConfig::new(SHARDS, 16).with_groups(self.groups())
    }

    /// A distributor of this deployment over `stores`.
    fn distributor(&self, stores: Vec<Arc<dyn UserStore>>) -> Distributor {
        Distributor::new(self.deployment.system().clone(), stores, self.config())
    }

    /// A leader of this deployment over `stores`, with inline watch
    /// dispatch.
    fn leader(&self, stores: Vec<Arc<dyn UserStore>>) -> Leader {
        let watch = Arc::new(self.deployment.make_watch_fn());
        Leader::with_config(
            self.deployment.system().clone(),
            stores,
            self.deployment.staging().clone(),
            self.deployment.bus().clone(),
            Arc::new(InlineDispatcher::new(watch, FunctionConfig::default_2048())),
            self.config(),
        )
    }
}

fn create(path: &str) -> WriteOp {
    WriteOp::Create {
        path: path.into(),
        payload: Payload::inline(b"v0"),
        mode: CreateMode::Persistent,
    }
}

fn set_data(path: &str) -> WriteOp {
    WriteOp::SetData {
        path: path.into(),
        payload: Payload::inline(b"v1"),
        expected_version: -1,
    }
}

fn delete(path: &str) -> WriteOp {
    WriteOp::Delete {
        path: path.into(),
        expected_version: -1,
    }
}

/// The payload a leader would resolve for `update` (inline only).
fn data_of(update: &UserUpdate) -> Bytes {
    match update {
        UserUpdate::WriteNode {
            payload: Payload::Inline { data },
            ..
        } => data.clone(),
        _ => Bytes::new(),
    }
}

/// `records` as one epoch of committed transactions, each with the
/// object tags its node item has on record, as the leader's read wave
/// would find them.
fn committed<'r>(ctx: &Ctx, rig: &Rig, records: &'r [LeaderRecord]) -> Vec<CommittedTx<'r>> {
    records
        .iter()
        .enumerate()
        .map(|(msg_index, record)| CommittedTx {
            msg_index,
            txid: record.txid,
            record,
            data: record
                .ops
                .iter()
                .map(|sub| data_of(&sub.user_update))
                .collect(),
            ahead: false,
            tags: ObjTags::of(
                rig.deployment
                    .system()
                    .get_node(ctx, record.path())
                    .as_ref(),
            ),
        })
        .collect()
}

/// What one `apply_epoch` did, seen from outside the distributor.
struct Applied {
    used: UsageSnapshot,
    charges: Vec<SpanRecord>,
    elapsed: Duration,
}

/// Applies `records` as one epoch through `distributor` on `ctx`, then
/// pops them from their nodes' queues, recording the tags the apply
/// left (not measured).
fn apply(ctx: &Ctx, rig: &Rig, distributor: &Distributor, records: &[LeaderRecord]) -> Applied {
    let items = committed(ctx, rig, records);
    let marks = distributor.epoch_marks(ctx);
    // The children logs the leader's read wave would read: every node
    // the records write and every parent they change.
    let updates = records
        .iter()
        .flat_map(|r| r.ops.iter().map(|s| &s.user_update));
    let paths = updates.flat_map(|update| {
        let parent = update.child_delta().map(|(parent, _, _)| parent);
        let own = match update {
            UserUpdate::WriteNode { path, .. } | UserUpdate::DeleteNode { path } => {
                Some(path.as_str())
            }
            UserUpdate::None => None,
        };
        own.into_iter().chain(parent)
    });
    let system = rig.deployment.system();
    let logs: ChildLogs<'_> = paths
        .map(|path| (path, ChildLog::of(system.get_node(ctx, path).as_ref())))
        .collect();
    let before = rig.deployment.meter().snapshot();
    ctx.take_spans();
    let started = ctx.now();
    let applied = distributor.apply_epoch(ctx, &items, &marks, &logs).unwrap();
    let elapsed = ctx.now() - started;
    let charges = ctx.take_spans();
    let used = rig.deployment.meter().snapshot().since(&before);
    distributor
        .finalize_epoch(ctx, &items, &applied.tags, &logs)
        .unwrap();
    Applied {
        used,
        charges,
        elapsed,
    }
}

/// The epoch's requests: object operations by kind (from the charges)
/// and the non-zero KV counters (from the meter), `label=count`.
fn requests(applied: &Applied) -> String {
    let count = |wanted: fn(&Op) -> bool| applied.charges.iter().filter(|s| wanted(&s.op)).count();
    let mut out = vec![
        format!("ObjGet={}", count(|op| matches!(op, Op::ObjGet))),
        format!("ObjPut={}", count(|op| matches!(op, Op::ObjPut))),
        format!("ObjDelete={}", count(|op| matches!(op, Op::ObjDelete))),
    ];
    for label in ["kv_read", "kv_write", "kv_transact"] {
        let count = applied.used.per_op.get(label).copied().unwrap_or(0);
        if count > 0 {
            out.push(format!("{label}={count}"));
        }
    }
    out.join(" ")
}

/// Prints an epoch's charges relative to its first one.
fn print_chain(title: &str, applied: &Applied) {
    println!("{title}: {} in {:?}", requests(applied), applied.elapsed);
    let origin = applied.charges.iter().map(|s| s.start).min();
    for charge in &applied.charges {
        let at = charge.start - origin.unwrap_or_default();
        println!(
            "  +{at:>12?} {:>12?}  {:<20} {:?}",
            charge.duration, charge.phase, charge.op
        );
    }
}

/// One request budget: `ops` as one epoch on a rig seeded over `config`
/// must issue exactly `expected` at every width (see the module docs).
fn assert_budget_on(config: DeploymentConfig, title: &str, ops: Vec<WriteOp>, expected: &str) {
    for groups in WIDTHS {
        let rig = Rig::seeded(config.clone(), groups);
        let records = rig.epoch(ops.clone());
        let distributor = rig.distributor(rig.deployment.user_stores().to_vec());
        let applied = apply(&rig.ctx, &rig, &distributor, &records);
        let title = format!("{title}, width {groups}");
        print_chain(&title, &applied);
        assert_eq!(requests(&applied), expected, "{title}");
    }
}

/// [`assert_budget_on`] over the default object-storage user store.
fn assert_budget(title: &str, ops: Vec<WriteOp>, expected: &str) {
    assert_budget_on(DeploymentConfig::aws(), title, ops, expected);
}

/// Eight overwrites and one create under one parent: a read-modify-write
/// per written node plus one for the parent's children list.
fn eight_set_data_and_a_create() -> Vec<WriteOp> {
    let mut ops: Vec<WriteOp> = (0..8).map(|i| set_data(&format!("/f/k{i}"))).collect();
    ops.push(create("/f/new"));
    ops
}

/// A [`Rig::seeded`] rig whose `/f/k0`…`/f/k7` were each overwritten
/// once through the full pipeline: their node items carry the tags of
/// those writes.
fn tagged(config: DeploymentConfig, groups: usize) -> Rig {
    let rig = Rig::seeded(config, groups);
    for i in 0..8 {
        rig.commit(set_data(&format!("/f/k{i}")));
    }
    rig
}

/// [`assert_budget_on`] over a [`tagged`] rig.
fn assert_tagged_budget_on(
    config: DeploymentConfig,
    title: &str,
    ops: Vec<WriteOp>,
    expected: &str,
) {
    for groups in WIDTHS {
        let rig = tagged(config.clone(), groups);
        let records = rig.epoch(ops.clone());
        let distributor = rig.distributor(rig.deployment.user_stores().to_vec());
        let applied = apply(&rig.ctx, &rig, &distributor, &records);
        let title = format!("{title}, width {groups}");
        print_chain(&title, &applied);
        assert_eq!(requests(&applied), expected, "{title}");
    }
}

/// The `obj_put_412` count of an epoch.
fn failed_preconditions(applied: &Applied) -> u64 {
    applied.used.per_op.get("obj_put_412").copied().unwrap_or(0)
}

#[test]
fn epoch_request_budget_eight_set_data_and_a_create_under_one_parent() {
    // The create is one `If-None-Match` PUT; no write has a tag yet.
    assert_budget(
        "8 set_data + create under /f",
        eight_set_data_and_a_create(),
        "ObjGet=9 ObjPut=10 ObjDelete=0",
    );
}

#[test]
fn epoch_request_budget_eight_tagged_set_data_and_a_create_under_one_parent() {
    // Eight `If-Match` PUTs and an `If-None-Match` PUT; only the parent's
    // children rewrite reads.
    assert_tagged_budget_on(
        DeploymentConfig::aws(),
        "8 tagged set_data + create under /f",
        eight_set_data_and_a_create(),
        "ObjGet=1 ObjPut=10 ObjDelete=0",
    );
}

#[test]
fn epoch_request_budget_on_a_key_value_user_store() {
    // The object store's budgets in item requests: the create is one
    // `ItemNotExists` write, and once the nodes carry the tags of their
    // last writes, only the parent's children rewrite reads.
    let kv = || DeploymentConfig::aws().with_user_store(fk_core::UserStoreKind::KeyValue);
    assert_budget_on(
        kv(),
        "8 set_data + create under /f (key-value store)",
        eight_set_data_and_a_create(),
        "ObjGet=0 ObjPut=0 ObjDelete=0 kv_read=9 kv_write=10",
    );
    assert_tagged_budget_on(
        kv(),
        "8 tagged set_data + create under /f (key-value store)",
        eight_set_data_and_a_create(),
        "ObjGet=0 ObjPut=0 ObjDelete=0 kv_read=1 kv_write=10",
    );
}

#[test]
fn epoch_request_budget_create_and_delete_under_one_parent() {
    assert_budget(
        "create + delete under /g",
        vec![create("/g/a"), delete("/g/b")],
        "ObjGet=1 ObjPut=2 ObjDelete=1",
    );
}

#[test]
fn epoch_request_budget_check_then_set_data() {
    let cas = WriteOp::Multi {
        ops: vec![
            MultiOp::Check {
                path: "/f/k0".into(),
                expected_version: -1,
            },
            MultiOp::SetData {
                path: "/f/k0".into(),
                payload: Payload::inline(b"v1"),
                expected_version: -1,
            },
        ],
    };
    assert_budget(
        "[check, set_data]",
        vec![cas.clone()],
        "ObjGet=1 ObjPut=1 ObjDelete=0",
    );
    assert_tagged_budget_on(
        DeploymentConfig::aws(),
        "[check, set_data] on a tagged node",
        vec![cas],
        "ObjGet=0 ObjPut=1 ObjDelete=0",
    );
}

// ----------------------------------------------------------------------
// Order and overlap, on a recording store
// ----------------------------------------------------------------------

/// What a store call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Put,
    Delete,
}

/// One user-store call: its region, path and kind, and when it ran —
/// virtual start and end on the calling worker's clock, and its position
/// in host order (the index in the log).
struct Call {
    region: usize,
    path: String,
    kind: Kind,
    start: Duration,
    end: Duration,
}

/// The calls of every region's recording store, in host order.
type Log = Arc<Mutex<Vec<Call>>>;

/// A user store that logs every call into a log shared by all regions.
struct Recording {
    inner: Arc<dyn UserStore>,
    region: usize,
    log: Log,
}

impl Recording {
    fn record<T>(&self, ctx: &Ctx, path: &str, kind: Kind, call: impl FnOnce() -> T) -> T {
        let start = ctx.now();
        let out = call();
        self.log.lock().unwrap().push(Call {
            region: self.region,
            path: path.to_owned(),
            kind,
            start,
            end: ctx.now(),
        });
        out
    }
}

impl FrameStore for Recording {
    fn get_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<(Bytes, Tag)>> {
        self.record(ctx, path, Kind::Read, || self.inner.get_frame(ctx, path))
    }
    fn put_frame(
        &self,
        ctx: &Ctx,
        path: &str,
        frame: Bytes,
        precondition: Option<Precondition>,
    ) -> CloudResult<Tag> {
        self.record(ctx, path, Kind::Put, || {
            self.inner.put_frame(ctx, path, frame, precondition)
        })
    }
    fn delete_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<()> {
        self.record(ctx, path, Kind::Delete, || {
            self.inner.delete_frame(ctx, path)
        })
    }
    fn scan_frames(&self, ctx: &Ctx, root: &str) -> CloudResult<Vec<(String, Bytes)>> {
        self.inner.scan_frames(ctx, root)
    }
    fn region(&self) -> Region {
        self.inner.region()
    }
}

/// Recording wrappers of `rig`'s user stores, and their shared log.
fn recording_stores(rig: &Rig) -> (Vec<Arc<dyn UserStore>>, Log) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let stores = rig.deployment.user_stores().iter().enumerate();
    let stores = stores.map(|(region, inner)| {
        Arc::new(Recording {
            inner: Arc::clone(inner),
            region,
            log: Arc::clone(&log),
        }) as Arc<dyn UserStore>
    });
    (stores.collect(), log)
}

/// A distributor of `rig` over recording wrappers of its user stores,
/// and the shared log.
fn recorded(rig: &Rig) -> (Distributor, Log) {
    let (stores, log) = recording_stores(rig);
    (rig.distributor(stores), log)
}

/// One store operation of an epoch in one region: the span of its calls
/// (an operation is a read-modify-write, a rewrite or a delete on one
/// path, and an epoch has one per path and region).
#[derive(Debug, Clone, Copy)]
struct Span {
    start: Duration,
    end: Duration,
    /// Host order of its first and last call.
    first: usize,
    last: usize,
}

/// The operations of `region`, by path.
fn operations(log: &[Call], region: usize) -> HashMap<&str, Span> {
    let mut spans: HashMap<&str, Span> = HashMap::new();
    for (at, call) in log.iter().enumerate().filter(|(_, c)| c.region == region) {
        let span = spans.entry(&call.path).or_insert(Span {
            start: call.start,
            end: call.end,
            first: at,
            last: at,
        });
        span.start = span.start.min(call.start);
        span.end = span.end.max(call.end);
        span.last = at;
    }
    spans
}

/// `(before, after)` path pairs the two rules order in `records`: a
/// created child before its parent's rewrite, a parent's rewrite before
/// a deleted child.
fn dependencies(records: &[LeaderRecord]) -> Vec<(String, String)> {
    let updates = records
        .iter()
        .flat_map(|r| r.ops.iter().map(|s| &s.user_update));
    let mut pairs = Vec::new();
    for update in updates {
        match update.child_delta() {
            Some((parent, path, true)) => pairs.push((path.to_owned(), parent.to_owned())),
            Some((parent, path, false)) => pairs.push((parent.to_owned(), path.to_owned())),
            None => {}
        }
    }
    pairs
}

/// Asserts both rules for every pair of `records` in every region, in
/// virtual time and in host order.
fn assert_rules(log: &[Call], regions: usize, records: &[LeaderRecord]) {
    let pairs = dependencies(records);
    assert!(!pairs.is_empty(), "the epoch has something to order");
    for region in 0..regions {
        let ops = operations(log, region);
        for (before, after) in &pairs {
            let (b, a) = (ops[before.as_str()], ops[after.as_str()]);
            assert!(
                a.start >= b.end,
                "region {region}: {after} started at {:?}, before {before} ended at {:?}",
                a.start,
                b.end
            );
            assert!(
                a.first > b.last,
                "region {region}: {after} ran on the host before {before}"
            );
        }
    }
}

/// Asserts every operation is one read-modify-write (a read, then a
/// put), one conditional put (a create) or one delete: scheduling moves
/// requests, it never adds one.
fn assert_one_shape_per_operation(log: &[Call]) {
    let mut calls: HashMap<(usize, &str), Vec<Kind>> = HashMap::new();
    for call in log {
        let kinds = calls.entry((call.region, call.path.as_str())).or_default();
        kinds.push(call.kind);
    }
    for ((region, path), kinds) in calls {
        assert!(
            kinds == [Kind::Read, Kind::Put] || kinds == [Kind::Put] || kinds == [Kind::Delete],
            "region {region}: {path} ran {kinds:?}"
        );
    }
}

/// The most operations of `region` in flight at one virtual instant (an
/// operation ending at `t` and one starting at `t` do not overlap).
fn peak_in_flight(log: &[Call], region: usize) -> usize {
    let mut events: Vec<(Duration, i32)> = Vec::new();
    for span in operations(log, region).values() {
        events.push((span.start, 1));
        events.push((span.end, -1));
    }
    events.sort();
    let (mut now, mut peak) = (0i32, 0i32);
    for (_, delta) in events {
        now += delta;
        peak = peak.max(now);
    }
    peak as usize
}

/// A mixed epoch: overwrites under `/f`, creates under `/f` and `/g`, a
/// delete under `/g`, a top-level create and a `multi` creating a parent
/// and its child (a chain: `/` waits for `/m`, which waits for `/m/c`).
fn mixed_epoch() -> Vec<WriteOp> {
    let mut ops: Vec<WriteOp> = (0..8).map(|i| set_data(&format!("/f/k{i}"))).collect();
    ops.extend([
        create("/f/new"),
        create("/g/a"),
        delete("/g/b"),
        create("/h"),
        WriteOp::Multi {
            ops: vec![
                MultiOp::Create {
                    path: "/m".into(),
                    payload: Payload::inline(b"v0"),
                    mode: CreateMode::Persistent,
                },
                MultiOp::Create {
                    path: "/m/c".into(),
                    payload: Payload::inline(b"v0"),
                    mode: CreateMode::Persistent,
                },
            ],
        },
    ]);
    ops
}

fn two_regions() -> DeploymentConfig {
    DeploymentConfig::aws().with_regions(vec![Region::US_EAST_1, Region::US_WEST_2])
}

#[test]
fn visibility_rules_hold_in_virtual_time_and_host_order() {
    for groups in WIDTHS {
        for ops in [
            eight_set_data_and_a_create(),
            vec![create("/g/a"), delete("/g/b")],
            mixed_epoch(),
        ] {
            let rig = Rig::seeded(two_regions(), groups);
            let (distributor, log) = recorded(&rig);
            let records = rig.epoch(ops);
            apply(&rig.ctx, &rig, &distributor, &records);
            let log = log.lock().unwrap();
            assert_one_shape_per_operation(&log);
            assert_rules(&log, 2, &records);
        }
    }
}

#[test]
fn cap_at_most_shards_operations_in_flight_per_region() {
    for groups in WIDTHS {
        let rig = Rig::seeded(two_regions(), groups);
        let (distributor, log) = recorded(&rig);
        let records = rig.epoch(mixed_epoch());
        apply(&rig.ctx, &rig, &distributor, &records);
        let log = log.lock().unwrap();
        for region in 0..2 {
            let ops = operations(&log, region).len();
            let peak = peak_in_flight(&log, region);
            println!("width {groups}, region {region}: {ops} operations, at most {peak} in flight");
            // 13 written paths, the rewrites of `/f`, `/g` and `/`, 1 delete.
            assert_eq!(ops, 17, "width {groups}: one operation per path");
            assert_eq!(
                peak, SHARDS,
                "width {groups}, region {region}: the workers fill, and no more"
            );
        }
    }
}

/// A latency model where every object read takes exactly `GET` and every
/// object write `PUT`, plus `CROSS` each from another region; everything
/// else is free.
const GET: Duration = Duration::from_millis(10);
const PUT: Duration = Duration::from_millis(20);
const CROSS: Duration = Duration::from_millis(5);

fn fixed_latency() -> Ctx {
    let fixed = |at: Duration| {
        LatencySpec::new(at.as_secs_f64() * 1e3, 0.0)
            .sigma(0.0)
            .tail(0.0, 1.0)
            .cross(CROSS.as_secs_f64() * 1e3, 0.0)
    };
    let mut model = LatencyModel::zero();
    model.obj_get = fixed(GET);
    model.obj_put = fixed(PUT);
    Ctx::new(Arc::new(model), LatencyMode::Virtual, SEED)
}

/// N independent writes on S workers take ⌈N/S⌉ rounds: of a
/// read-modify-write each the first time, of one conditional PUT each
/// once their tags are on record.
#[test]
fn independent_writes_take_ceil_n_over_s_rmw_rounds() {
    for groups in WIDTHS {
        for n in 1..=8u32 {
            let rig = Rig::seeded(DeploymentConfig::aws(), groups);
            let distributor = rig.distributor(rig.deployment.user_stores().to_vec());
            let ctx = fixed_latency();
            let rounds = n.div_ceil(SHARDS as u32);
            let writes = || (0..n).map(|i| set_data(&format!("/f/k{i}"))).collect();
            for (round, expected) in [("untagged", GET + PUT), ("tagged", PUT)] {
                let applied = apply(&ctx, &rig, &distributor, &rig.epoch(writes()));
                println!(
                    "width {groups}, {n} {round} writes: {:?} = {rounds} rounds",
                    applied.elapsed
                );
                assert_eq!(
                    applied.elapsed,
                    expected * rounds,
                    "width {groups}, {n} {round} writes"
                );
            }
        }
    }
}

#[test]
fn two_regions_cost_the_slower_region_not_the_sum() {
    let rig = Rig::seeded(two_regions(), 2);
    let distributor = rig.distributor(rig.deployment.user_stores().to_vec());
    let ctx = fixed_latency();
    let records = rig.epoch((0..6).map(|i| set_data(&format!("/f/k{i}"))).collect());
    let applied = apply(&ctx, &rig, &distributor, &records);
    // The second region's store is remote from the caller.
    let (near, far) = (GET + PUT, GET + PUT + 2 * CROSS);
    println!("6 writes x 2 regions: {:?}", applied.elapsed);
    assert_eq!(
        applied.elapsed,
        far * 2,
        "max of {:?} and {:?}",
        near * 2,
        far * 2
    );
}

// ----------------------------------------------------------------------
// The leader's epoch cut and the seeded root, end to end
// ----------------------------------------------------------------------

/// Nested creates `/a` and `/a/<c>` on one lane reach the leader as one
/// batch. The child's rewrite of `/a` targets a node the epoch already
/// writes, so the leader cuts the epoch before the child: `/a`'s own
/// write ends before `/a/<c>`'s write starts, in every region. Without
/// the cut the two share one epoch, `/a`'s create becomes a
/// children-bearing write that lists `<c>`, and the child → parent edge
/// runs `/a/<c>`'s write first: a reader could find the child while its
/// parent does not exist yet.
#[test]
fn nested_creates_in_one_batch_write_the_parent_before_the_child() {
    for groups in WIDTHS {
        let rig = Rig::new(two_regions(), groups);
        let (stores, log) = recording_stores(&rig);
        let leader = rig.leader(stores);
        let lane = group_of("/a", groups);
        let child = (b'b'..=b'z')
            .map(|name| format!("/a/{}", name as char))
            .find(|path| group_of(path, groups) == lane)
            .expect("a child name on the parent's lane");
        rig.push(create("/a"));
        rig.push(create(&child));
        let queue = rig.deployment.leader_queues().queue(lane);
        assert_eq!(queue.pending(), 2, "width {groups}: both on one lane");
        let drained = leader.drain_queue(&rig.ctx, queue).unwrap();
        assert_eq!(drained, 2, "width {groups}: one leader batch");

        let log = log.lock().unwrap();
        for region in 0..2 {
            let first_put = |path: &str| {
                log.iter()
                    .enumerate()
                    .find(|(_, call)| {
                        call.region == region && call.path == path && call.kind == Kind::Put
                    })
                    .unwrap_or_else(|| panic!("width {groups}, region {region}: {path} written"))
            };
            let (parent_at, parent) = first_put("/a");
            let (child_at, child_put) = first_put(&child);
            assert!(
                child_put.start >= parent.end,
                "width {groups}, region {region}: {child} started at {:?}, before /a ended at {:?}",
                child_put.start,
                parent.end
            );
            assert!(
                child_at > parent_at,
                "width {groups}, region {region}: {child} ran on the host before /a"
            );
        }
    }
}

/// An epoch's pops are one write of at most 25 nodes
/// (`TRANSACT_MAX_ITEMS`). One leader batch of 15 creates under 15
/// parents needs 30 pop items — a create pops its own node and its
/// parent's children log — so the leader cuts it into two epochs (12
/// creates popping 24 nodes, then 3), and each pops in one transaction.
#[test]
fn a_batch_needing_30_pop_items_pops_in_two_epochs_of_one_transaction_each() {
    let system_item = |rig: &Rig, path: &str| rig.deployment.system().get_node(&rig.ctx, path);
    for groups in WIDTHS {
        let rig = Rig::new(DeploymentConfig::aws(), groups);
        let parents: Vec<String> = (0..15).map(|i| format!("/q{i}")).collect();
        let children: Vec<String> = parents
            .iter()
            .map(|parent| {
                rig.commit(create(parent));
                (b'a'..=b'z')
                    .map(|name| format!("{parent}/{}", name as char))
                    .find(|path| group_of(path, groups) == 0)
                    .expect("a child name on lane 0")
            })
            .collect();
        for child in &children {
            rig.push(create(child));
        }
        let queue = rig.deployment.leader_queues().queue(0);
        let leader = rig.leader(rig.deployment.user_stores().to_vec());
        let before = rig.deployment.meter().snapshot();
        rig.ctx.take_spans();
        let drained = leader.drain_queue(&rig.ctx, queue).unwrap();
        assert_eq!(drained, 15, "width {groups}: one leader batch");
        let used = rig.deployment.meter().snapshot().since(&before);
        let charges = rig.ctx.take_spans();
        let pops: Vec<&SpanRecord> = charges
            .iter()
            .filter(|s| s.phase == "pop_updates")
            .collect();
        assert_eq!(pops.len(), 2, "width {groups}: one pop per epoch");
        assert!(pops.iter().all(|s| matches!(s.op, Op::KvTransact)));
        assert_eq!(used.per_op["kv_transact"], 2, "width {groups}");
        for (parent, child) in parents.iter().zip(&children) {
            let txq = system_item(&rig, child).and_then(|i| i.list(node_attr::TXQ).map(<[_]>::len));
            assert_eq!(txq, Some(0), "width {groups}: {child} popped");
            let log = ChildLog::of(system_item(&rig, parent).as_ref());
            assert!(
                log.entries.is_empty(),
                "width {groups}: {parent}'s log popped"
            );
        }
    }
}

/// At width 1 a txid is the lane's raw sequence number, so the first
/// create under `/` can carry txid 1. The seeded root's children list
/// was written by no transaction (`children_txid` 0), so that create's
/// rewrite of `/` wins the merge in every region.
#[test]
fn first_create_under_the_root_is_listed_in_every_region_at_width_1() {
    let rig = Rig::new(two_regions(), 1);
    rig.commit(create("/p"));
    for store in rig.deployment.user_stores() {
        let root = store.read_node(&rig.ctx, "/").unwrap().expect("the root");
        assert_eq!(*root.children, ["p"], "region {:?}", store.region());
    }
}

// ----------------------------------------------------------------------
// Conditional writes: the fallbacks
// ----------------------------------------------------------------------

/// The object tags `path`'s node item has on record.
fn tags_of(rig: &Rig, path: &str) -> ObjTags {
    ObjTags::of(rig.deployment.system().get_node(&rig.ctx, path).as_ref())
}

/// `/f/k0` as its object stands, with a children list a concurrent
/// rewrite from another lane added behind the leader (a larger
/// `children_txid` than any the rig allocated).
fn rewritten_behind(rig: &Rig) -> NodeRecord {
    let store = rig.deployment.user_store();
    let mut record = store.read_node(&rig.ctx, "/f/k0").unwrap().unwrap();
    record.children = Arc::new(vec!["behind".into()]);
    record.children_txid = 1 << 40;
    store.write_node(&rig.ctx, &record).unwrap();
    record
}

/// A stale tag: the object was rewritten behind the leader. The
/// `If-Match` fails once (412), then the read-merge-write stores exactly
/// what it stores with no tag on record.
#[test]
fn tagged_write_over_a_stale_tag_fails_once_then_merges_the_same_bytes() {
    for groups in WIDTHS {
        let title = format!("stale tag, width {groups}");
        let stored = [true, false].map(|tag_on_record| {
            let rig = tagged(DeploymentConfig::aws(), groups);
            rewritten_behind(&rig);
            let records = rig.epoch(vec![set_data("/f/k0")]);
            if !tag_on_record {
                // The twin without a tag: the read-merge-write alone.
                let forget = Update::new().remove(node_attr::TAGS);
                let system = rig.deployment.system().kv();
                system
                    .update(&rig.ctx, "node:/f/k0", &forget, Condition::Always)
                    .unwrap();
                assert!(tags_of(&rig, "/f/k0").is_empty());
            }
            let distributor = rig.distributor(rig.deployment.user_stores().to_vec());
            let applied = apply(&rig.ctx, &rig, &distributor, &records);
            print_chain(
                &format!("{title}, tag on record: {tag_on_record}"),
                &applied,
            );
            let (expected, failed) = if tag_on_record {
                ("ObjGet=1 ObjPut=2 ObjDelete=0", 1)
            } else {
                ("ObjGet=1 ObjPut=1 ObjDelete=0", 0)
            };
            assert_eq!(requests(&applied), expected, "{title}");
            assert_eq!(failed_preconditions(&applied), failed, "{title}");
            let store = rig.deployment.user_store();
            let record = store.read_node(&rig.ctx, "/f/k0").unwrap().unwrap();
            assert_eq!(*record.children, ["behind"], "{title}: the merge kept it");
            record
        });
        assert_eq!(stored[0], stored[1], "{title}: the same bytes either way");
    }
}

/// A child's create commits under a tagged node: the follower's commit
/// removes the node's tag, so the node's next write reads its object
/// (no 412) and records a fresh tag. The node now has children, so the
/// write after folds its list from the stored one: a read-merge-write
/// again, which fails nothing either.
#[test]
fn tagged_node_loses_its_tag_to_a_child_create_and_its_next_write_fails_nothing() {
    for groups in WIDTHS {
        let title = format!("child create under a tagged node, width {groups}");
        let rig = Rig::seeded(DeploymentConfig::aws(), groups);
        rig.commit(set_data("/g"));
        assert!(!tags_of(&rig, "/g").is_empty(), "{title}: tagged");
        rig.push(create("/g/c"));
        assert!(
            tags_of(&rig, "/g").is_empty(),
            "{title}: the commit removed it"
        );

        let distributor = rig.distributor(rig.deployment.user_stores().to_vec());
        let records = rig.epoch(vec![set_data("/g")]);
        let applied = apply(&rig.ctx, &rig, &distributor, &records);
        print_chain(&title, &applied);
        // `/g/c` is one `If-None-Match` PUT, `/g` (its write and the
        // children rewrite, one op) a read-merge-write.
        assert_eq!(
            requests(&applied),
            "ObjGet=1 ObjPut=2 ObjDelete=0",
            "{title}"
        );
        assert_eq!(failed_preconditions(&applied), 0, "{title}");
        let store = rig.deployment.user_store();
        let g = store.read_node(&rig.ctx, "/g").unwrap().unwrap();
        let mut children = (*g.children).clone();
        children.sort();
        assert_eq!(children, ["b", "c"], "{title}");
        assert!(!tags_of(&rig, "/g").is_empty(), "{title}: tagged again");

        let applied = apply(
            &rig.ctx,
            &rig,
            &distributor,
            &rig.epoch(vec![set_data("/g")]),
        );
        assert_eq!(
            requests(&applied),
            "ObjGet=1 ObjPut=1 ObjDelete=0",
            "{title}"
        );
        assert_eq!(failed_preconditions(&applied), 0, "{title}");
    }
}

/// A create over a cross-group stub (a child's rewrite of the node
/// landed first and materialized a children-only record): the
/// `If-None-Match` fails, and the read-merge-write keeps the stub's
/// children.
#[test]
fn tagged_create_over_a_stub_fails_if_none_match_and_keeps_its_children() {
    for groups in WIDTHS {
        let title = format!("create over a stub, width {groups}");
        let rig = Rig::seeded(DeploymentConfig::aws(), groups);
        let store = rig.deployment.user_store();
        let stub = NodeRecord {
            path: "/s".into(),
            data: Bytes::new(),
            created_txid: 0,
            modified_txid: 1 << 40,
            version: 0,
            children: Arc::new(vec!["early".into()]),
            children_txid: 1 << 40,
            ephemeral_owner: None,
            epoch_marks: Arc::default(),
        };
        store.write_node(&rig.ctx, &stub).unwrap();

        let distributor = rig.distributor(rig.deployment.user_stores().to_vec());
        let applied = apply(&rig.ctx, &rig, &distributor, &rig.epoch(vec![create("/s")]));
        print_chain(&title, &applied);
        // `/s`: the failed `If-None-Match`, then its read-merge-write; `/`:
        // the children rewrite.
        assert_eq!(
            requests(&applied),
            "ObjGet=2 ObjPut=3 ObjDelete=0",
            "{title}"
        );
        assert_eq!(failed_preconditions(&applied), 1, "{title}");
        let node = store.read_node(&rig.ctx, "/s").unwrap().unwrap();
        assert_eq!(*node.children, ["early"], "{title}");
        assert_eq!(&node.data[..], b"v0", "{title}");
        assert!(
            !tags_of(&rig, "/s").is_empty(),
            "{title}: it replaced an object"
        );
    }
}

/// The floor: `/g`'s writes `t1 < t2` commit, then a child's create `c`
/// commits under `/g` (removing no tag — none is on record yet). The
/// child's lane applies first, so `t1`'s read-merge-write stores `c`'s
/// list and its pop records a tag. `t2`'s own list predates `c`: naming
/// the tag would land and drop the child, so `t2` reads instead.
#[test]
fn tagged_write_older_than_a_merged_children_rewrite_reads_its_object() {
    for groups in WIDTHS {
        let title = format!("older than the stored list, width {groups}");
        let rig = Rig::seeded(DeploymentConfig::aws(), groups);
        let distributor = rig.distributor(rig.deployment.user_stores().to_vec());
        let records = rig.epoch(vec![set_data("/g"), set_data("/g"), create("/g/c")]);
        let [t1, t2, child] = &records[..] else {
            panic!("{title}: three records");
        };
        assert_eq!(child.path(), "/g/c", "{title}: the child commits last");
        apply(&rig.ctx, &rig, &distributor, std::slice::from_ref(child));
        apply(&rig.ctx, &rig, &distributor, std::slice::from_ref(t1));
        assert!(!tags_of(&rig, "/g").is_empty(), "{title}: t1 left a tag");

        let applied = apply(&rig.ctx, &rig, &distributor, std::slice::from_ref(t2));
        print_chain(&title, &applied);
        assert_eq!(
            requests(&applied),
            "ObjGet=1 ObjPut=1 ObjDelete=0",
            "{title}"
        );
        let store = rig.deployment.user_store();
        let g = store.read_node(&rig.ctx, "/g").unwrap().unwrap();
        let mut children = (*g.children).clone();
        children.sort();
        assert_eq!(children, ["b", "c"], "{title}: the child survives");
        assert_eq!(g.modified_txid, child.txid.max(t2.txid), "{title}");
    }
}
