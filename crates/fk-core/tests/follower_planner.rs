//! The follower's write planner (Algorithm 1 ➀–➁), pinned from outside:
//!
//! * `wire_vectors_*` — the leader-record frame a fault-free single
//!   write pushes, byte for byte, against vectors captured at the first
//!   commit with one record shape (the one after `54293e5`);
//! * `one_op_frames_*` — the frame bytes of one op against the parent
//!   `54293e5`'s two record shapes;
//! * `follower_request_budget_*` — the storage and queue requests one
//!   `process_request` issues, by meter label and by phase label,
//!   printed charge by charge under `--nocapture` (the follower's
//!   counterpart of `leader::tests::round_trip_budget*`);
//! * `follower_round_trip_budget_*` — the same invocation on a
//!   fixed-latency model: which requests overlap, and how long it lasts;
//! * `one_verdict_per_case_whatever_the_shape` — op `X` sent as a
//!   `WriteOp` and as `Multi[X]` is the same transaction: the same
//!   verdict, the same requests, the same frame;
//! * `one_push_mark_per_session_per_wave`, `try_commit_replay_*`,
//!   `close_session_deregisters_after_its_ephemeral_deletes` — the
//!   session's hand-over sets its marks once per wave, between the
//!   pushes and the commits, and never lowers them; the record writes
//!   no `seq:` item;
//! * `crash_*`, `failed_push_hands_nothing_over`,
//!   `a_copy_that_outruns_the_leader_*` — one crash window each around
//!   the push, the hand-over and the commit: what lands, who answers,
//!   and that a re-received copy is dropped or pushed;
//! * `alloc_txid_speculative_*` — when the `ADD` drawn beside the locks
//!   is taken as the txid, and what a burned value leaves behind.
//! * `commit_faults_cost_one_retry_each_at_one_level` — a create
//!   commit's transient failures are retried once each, inside the
//!   store.
//!
//! Everything runs a 2-group direct deployment on virtual time with a
//! fixed seed, so txids, request counts and frames repeat exactly. The
//! one wall-clock value a frame carries — the lock timestamp guarding
//! each commit item (`Follower::now_ms`) — is zeroed before comparing.

use fk_cloud::expr::{Condition, Update};
use fk_cloud::latency::{LatencyModel, LatencySpec};
use fk_cloud::metering::UsageSnapshot;
use fk_cloud::ops::Op;
use fk_cloud::queue::{group_of, Message};
use fk_cloud::trace::{Ctx, LatencyMode, SpanRecord};
use fk_core::api::{CreateMode, FkError};
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::follower::{Follower, LEADER_GROUP};
use fk_core::leader::Leader;
use fk_core::messages::{
    ClientNotification, ClientRequest, LeaderRecord, MultiOp, Payload, WriteOp,
};
use fk_core::system_store::{keys, node_attr, txid, MAX_LOCK_HOLD_MS};
use fk_sync::LOCK_ATTR;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const SESSION: &str = "s";
const SEED: u64 = 7;

/// A 2-group direct deployment on virtual time, its follower, and the
/// one registered session's notification endpoint.
struct Rig {
    deployment: Deployment,
    follower: Follower,
    ctx: Ctx,
    endpoint: crossbeam::channel::Receiver<ClientNotification>,
}

/// What one `process_request` did, seen from outside the follower.
struct Step {
    /// Records pushed to the leader lanes, decoded.
    pushed: Vec<LeaderRecord>,
    /// Notifications the follower itself sent to the session.
    notified: Vec<ClientNotification>,
    /// Meter delta of the call.
    used: UsageSnapshot,
    /// Every charge of the call, in charge order.
    charges: Vec<SpanRecord>,
    /// Virtual time the call took.
    elapsed: Duration,
}

impl Rig {
    fn new() -> Rig {
        let deployment = Deployment::direct(
            DeploymentConfig::aws()
                .with_shard_groups(2)
                .with_mode(LatencyMode::Virtual, SEED),
        );
        let ctx = Ctx::new(Arc::clone(deployment.model()), LatencyMode::Virtual, SEED);
        deployment
            .system()
            .register_session(&ctx, SESSION, 0)
            .unwrap();
        Rig {
            follower: deployment.make_follower(),
            endpoint: deployment.bus().register(SESSION).0,
            ctx,
            deployment,
        }
    }

    /// A rig holding `/p`, `/p/c` and the session's ephemeral `/e`
    /// (request ids 1–3).
    fn seeded() -> Rig {
        Rig::seeded_with_records().0
    }

    /// [`Rig::seeded`] and the records its three writes pushed.
    fn seeded_with_records() -> (Rig, Vec<LeaderRecord>) {
        let rig = Rig::new();
        let mut records = Vec::new();
        for (request_id, op) in [
            (1, create("/p", CreateMode::Persistent)),
            (2, create("/p/c", CreateMode::Persistent)),
            (3, create("/e", CreateMode::Ephemeral)),
        ] {
            let pushed = rig.process(request_id, op).pushed;
            assert_eq!(pushed.len(), 1);
            records.extend(pushed);
        }
        (rig, records)
    }

    /// Sends one request through `Follower::process_request` (no write
    /// queue in front of it: a repeated request id reaches the planner,
    /// which is what a redelivery past the watermark filter looks like).
    fn process(&self, request_id: u64, op: WriteOp) -> Step {
        self.process_as(SESSION, request_id, op)
    }

    /// [`Rig::process`] for any session's request.
    fn process_as(&self, session: &str, request_id: u64, op: WriteOp) -> Step {
        let request = ClientRequest {
            session_id: session.into(),
            request_id,
            op,
        };
        self.step(|| self.follower.process_request(&self.ctx, &request).unwrap())
    }

    /// Sends `ops` (request ids from `first` on) through the write queue
    /// and hands them to `Follower::process_messages` as one batch:
    /// requests with pairwise disjoint lock sets make one wave.
    fn process_batch(&self, first: u64, ops: Vec<WriteOp>) -> Step {
        let quiet = Ctx::disabled();
        let queue = self.deployment.write_queue();
        for (request_id, op) in (first..).zip(ops) {
            let request = ClientRequest {
                session_id: SESSION.into(),
                request_id,
                op,
            };
            queue.send(&quiet, SESSION, request.encode()).unwrap();
        }
        let batch = queue.receive(10, Duration::from_secs(5)).unwrap();
        let step = self.step(|| {
            self.follower
                .process_messages(&self.ctx, &batch.messages)
                .unwrap()
        });
        queue.ack(batch.receipt);
        step
    }

    /// Runs `call` and collects what it did: the meter delta, the
    /// charges, the virtual time, the records it pushed (taken off the
    /// leader lanes) and the notifications it sent the session.
    fn step(&self, call: impl FnOnce()) -> Step {
        let before = self.deployment.meter().snapshot();
        self.ctx.take_spans();
        let start = self.ctx.now();
        call();
        let elapsed = self.ctx.now() - start;
        let charges = self.ctx.take_spans();
        let used = self.deployment.meter().snapshot().since(&before);
        let lanes = self.deployment.leader_queues();
        let mut pushed = Vec::new();
        for group in 0..lanes.shards() {
            while let Some(batch) = lanes.queue(group).receive(10, Duration::from_secs(5)) {
                for message in &batch.messages {
                    pushed.push(LeaderRecord::decode(&message.body).expect("a leader record"));
                }
                lanes.queue(group).ack(batch.receipt);
            }
        }
        Step {
            pushed,
            notified: std::iter::from_fn(|| self.endpoint.try_recv().ok()).collect(),
            used,
            charges,
            elapsed,
        }
    }
}

fn payload(op: &str) -> Payload {
    Payload::inline(op.as_bytes())
}

/// A payload over every provider's node limit, without allocating it.
fn oversized() -> Payload {
    Payload::Staged {
        key: "staged/big".into(),
        len: 64 << 20,
    }
}

fn create(path: &str, mode: CreateMode) -> WriteOp {
    WriteOp::Create {
        path: path.into(),
        payload: payload("v0"),
        mode,
    }
}

fn set_data(path: &str, data: Payload, expected_version: i32) -> WriteOp {
    WriteOp::SetData {
        path: path.into(),
        payload: data,
        expected_version,
    }
}

fn delete(path: &str, expected_version: i32) -> WriteOp {
    WriteOp::Delete {
        path: path.into(),
        expected_version,
    }
}

/// `op` as the one-op `multi` carrying it.
fn as_multi(op: &WriteOp) -> WriteOp {
    let sub = match op.clone() {
        WriteOp::Create {
            path,
            payload,
            mode,
        } => MultiOp::Create {
            path,
            payload,
            mode,
        },
        WriteOp::SetData {
            path,
            payload,
            expected_version,
        } => MultiOp::SetData {
            path,
            payload,
            expected_version,
        },
        WriteOp::Delete {
            path,
            expected_version,
        } => MultiOp::Delete {
            path,
            expected_version,
        },
        WriteOp::CloseSession | WriteOp::Multi { .. } => panic!("not a single write: {op:?}"),
    };
    WriteOp::Multi { ops: vec![sub] }
}

/// `record` with every lock timestamp zeroed (the only wall-clock value
/// of a frame).
fn without_clock(record: &LeaderRecord) -> LeaderRecord {
    let mut record = record.clone();
    for item in &mut record.commit.items {
        item.lock_ts = 0;
    }
    record
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The non-zero request counters of a meter delta, `label=count` in
/// label order.
fn requests(used: &UsageSnapshot) -> String {
    let labels = [
        "kv_read",
        "kv_write",
        "kv_transact",
        "kv_transact_items",
        "queue_send",
    ];
    let counts = labels.iter().filter_map(|label| {
        let count = used.per_op.get(*label).copied().unwrap_or(0);
        (count > 0).then(|| format!("{label}={count}"))
    });
    counts.collect::<Vec<_>>().join(" ")
}

/// Charges per phase label, `phase=count` in first-charge order.
fn phases(charges: &[SpanRecord]) -> String {
    let mut order: Vec<&str> = Vec::new();
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for charge in charges {
        if !order.contains(&charge.phase.as_str()) {
            order.push(&charge.phase);
        }
        *counts.entry(&charge.phase).or_insert(0) += 1;
    }
    let rendered = order.iter().map(|phase| {
        let label = if phase.is_empty() { "-" } else { phase };
        format!("{label}={}", counts[phase])
    });
    rendered.collect::<Vec<_>>().join(" ")
}

/// Prints a step's charges relative to its first one (shown by the CI
/// `follower planner` step).
fn print_chain(title: &str, step: &Step) {
    println!("{title}: {}", requests(&step.used));
    let origin = step.charges.iter().map(|s| s.start).min();
    for charge in &step.charges {
        let at = charge.start - origin.unwrap_or_default();
        println!(
            "  +{at:>12?} {:>12?}  {:<16} {:?}",
            charge.duration, charge.phase, charge.op
        );
    }
}

// ----------------------------------------------------------------------
// Wire vectors
// ----------------------------------------------------------------------

/// Frames pushed by the seven fault-free single writes below, in order,
/// on a fresh rig (request ids 1–7), lock timestamps zeroed: each is the
/// one-op record of the write (frame version 6). Captured by this very
/// test at the commit after `54293e5` that gave every leader record one
/// shape. Frame bytes at `54293e5` (the single-op shape) → then:
/// create persistent 181 → 185, create ephemeral 209 → 215, create
/// sequential 276 → 293, set_data unconditional 137 → 141, set_data
/// versioned 137 → 141, delete 225 → 236, delete ephemeral 168 → 168.
/// Recaptured when creates and deletes began removing the object tags
/// on record (`node_attr::TAGS`) from the created node's and the
/// parent's commit items: 5 B per item (`04 74616773`), so +10 B per
/// create and +5 B per delete; the `set_data` frames did not move.
/// Recaptured at frame version 6, when the parent's commit item stopped
/// carrying children names: a create or delete sets the parent's child
/// count (`nchildren`) and appends one pending children-log entry
/// (`child_log`, the name and its sign) where it appended or removed
/// the name in `children`; every commit item lost its empty
/// list-removal vector (1 B); and the record's update carries two flags
/// (the node has children; the node joins its parent) where it carried
/// the node's and the parent's lists. Recaptured when the commit stopped
/// carrying the session's `seq:` item (the request watermark moved to
/// the hand-over, `SystemStore::hand_over`): 25 B less per frame.
const WIRE_VECTORS: [(&str, &str); 7] = [
    (
        "create persistent",
        "fb06020173018080040002076e6f64653a2f6100040763726561746564040776657273696f6e040676636f756e740000077265715f7461670103732331010374787105020764656c657465640474616773066e6f64653a2f0002096e6368696c6472656e00020d6368696c6472656e5f747869640401096368696c645f6c6f67060161010104746167730001022f6100022f6100027630000000000102022f6100012f030000022f61000000000200",
    ),
    (
        "create ephemeral",
        "fb060201730280800880800402096e6f64653a2f612f6500050763726561746564040776657273696f6e040676636f756e740000077265715f7461670103732332096570685f6f776e6572010173010374787105020764656c657465640474616773076e6f64653a2f610002096e6368696c6472656e00020d6368696c6472656e5f747869640401096368696c645f6c6f67060165010104746167730001042f612f6500042f612f65000276300000000101730102042f612f6500022f61030000042f612f65000000000201",
    ),
    (
        "create sequential",
        "fb060201730381800c80800802146e6f64653a2f612f732d3030303030303030303000040763726561746564040776657273696f6e040676636f756e740000077265715f7461670103732333010374787105020764656c657465640474616773076e6f64653a2f6100030b7365715f636f756e7465720002096e6368696c6472656e00040d6368696c6472656e5f747869640401096368696c645f6c6f67060c732d303030303030303030300101047461677300010f2f612f732d30303030303030303030000f2f612f732d30303030303030303030000276300000000001020f2f612f732d3030303030303030303000022f610300000f2f612f732d30303030303030303030000000000200",
    ),
    (
        "set_data unconditional",
        "fb060201730480801081800c01076e6f64653a2f6100030776657273696f6e040676636f756e740002077265715f7461670103732334010374787105000001022f6100022f61000276318080040201000001022f61010001022f618080040002020200",
    ),
    (
        "set_data versioned",
        "fb060201730580801480801001076e6f64653a2f6100030776657273696f6e040676636f756e740004077265715f7461670103732335010374787105000001022f6100022f61000276328080040401000001022f61010001022f618080040004020200",
    ),
    (
        "delete",
        "fb060201730681801880801402146e6f64653a2f612f732d3030303030303030303000030764656c6574656400020776657273696f6e04077265715f746167010373233601037478710500076e6f64653a2f610002096e6368696c6472656e00020d6368696c6472656e5f747869640401096368696c645f6c6f67060c732d303030303030303030300001047461677300010f2f612f732d30303030303030303030010f2f612f732d30303030303030303030020f2f612f732d3030303030303030303002022f610301020f2f612f732d30303030303030303030",
    ),
    (
        "delete ephemeral",
        "fb060201730780801c81801802096e6f64653a2f612f6500030764656c6574656400020776657273696f6e04077265715f746167010373233701037478710500076e6f64653a2f610002096e6368696c6472656e00000d6368696c6472656e5f747869640401096368696c645f6c6f67060165000104746167730001042f612f6501042f612f6502042f612f6502022f61030102042f612f65",
    ),
];

#[test]
fn wire_vectors_of_single_writes_are_unchanged() {
    let rig = Rig::new();
    let ops = [
        create("/a", CreateMode::Persistent),
        create("/a/e", CreateMode::Ephemeral),
        create("/a/s-", CreateMode::PersistentSequential),
        set_data("/a", payload("v1"), -1),
        set_data("/a", payload("v2"), 1),
        delete("/a/s-0000000000", -1),
        delete("/a/e", -1),
    ];
    let mut moved = Vec::new();
    for (i, (op, (name, expected))) in ops.into_iter().zip(WIRE_VECTORS).enumerate() {
        let step = rig.process(i as u64 + 1, op);
        assert!(step.notified.is_empty(), "{name}: {:?}", step.notified);
        let [record] = &step.pushed[..] else {
            panic!("{name}: one record, got {:?}", step.pushed);
        };
        let frame = hex(&without_clock(record).encode());
        println!("{name}: {frame}");
        if frame != expected {
            moved.push(name);
        }
    }
    assert!(moved.is_empty(), "frames moved: {moved:?}");
}

/// `(op, bytes at 54293e5 as a single-op record, as a one-op multi
/// record, bytes now)` of one op on a seeded rig (request id 4, lock
/// timestamps zeroed). The parent carried a single write's one sub in
/// the record's own fields, and a one-op `multi` paid the own fields
/// empty beside its sub. Creates and deletes carry the object-tag
/// removal since (5 B per created node or rewritten parent), and the
/// parent's child count and one children-log entry in place of the
/// children names since frame version 6 (which also dropped the commit
/// items' empty list-removal vector), and no `seq:` item since the
/// hand-over took the request watermark out of the commit (−25 B each).
const FRAME_BYTES: [(&str, usize, usize, usize); 6] = [
    ("create", 196, 216, 189),
    ("ephemeral create", 211, 231, 204),
    ("sequential create", 276, 318, 269),
    ("set_data", 130, 150, 109),
    ("set_data 128 B", 258, 278, 237),
    ("delete", 168, 182, 153),
];

#[test]
fn one_op_frames_are_no_larger_than_the_parents_one_op_multi() {
    let ops = [
        create("/p/n", CreateMode::Persistent),
        create("/p/n", CreateMode::Ephemeral),
        create("/p/s-", CreateMode::PersistentSequential),
        set_data("/p/c", payload("v1"), -1),
        set_data("/p/c", Payload::inline(&[7; 128]), -1),
        delete("/p/c", -1),
    ];
    for (op, (name, single, multi, now)) in ops.into_iter().zip(FRAME_BYTES) {
        let step = Rig::seeded().process(4, op);
        let [record] = &step.pushed[..] else {
            panic!("{name}: one record, got {:?}", step.pushed);
        };
        let bytes = without_clock(record).encode().len();
        println!("{name}: {bytes} B (at 54293e5: {single} B single, {multi} B one-op multi)");
        assert!(bytes <= multi, "{name}: {bytes} B");
        assert_eq!(bytes, now, "{name}");
    }
}

// ----------------------------------------------------------------------
// Request budgets
// ----------------------------------------------------------------------

/// One fault-free budget: the meter delta and the charges per phase of
/// `op` on a seeded rig must equal the constants below. Unlabelled (`-`)
/// are the membership read, the session-mark read and the speculative
/// `ADD` on the routed group's counter, which all ride the lock wave.
/// After the push, the session's hand-over is one plain update
/// (`hand_over`), and the commit writes only node items: one conditional
/// update for a one-node write, a node+parent transaction for a create
/// or delete. The create takes the `ADD`'s value (`/p/n` shares its
/// group with `/e`, the session's last write, so the counter is above
/// the floor) and labels nothing `alloc_txid`. Every op on `/p/c` finds
/// the value at the floor's epoch (the seeding writes left its group's
/// counter one behind the session) and allocates once more: one
/// conditional `ADD`, labelled `alloc_txid`.
///
/// At the parent `0c09504` every budget paid one `kv_write` more, the
/// push mark's own write: create `kv_write=4`, phases `lock_node=2 -=3
/// alloc_txid=1`; `set_data` and `[check, set_data]` `kv_write=4`,
/// phases `lock_node=1 -=3 alloc_txid=2`; delete `kv_write=5`, phases
/// `lock_node=2 -=3 alloc_txid=2`. While the commit carried the
/// session's `seq:` item (its request watermark and push mark) it was
/// one item larger and had no `hand_over` write: create `kv_write=3
/// kv_transact_items=3`; `set_data` and `[check, set_data]` `kv_write=3
/// kv_transact=1 kv_transact_items=2` (4 write units where the update
/// now bills 1); delete `kv_write=4 kv_transact_items=3`.
fn assert_budget(title: &str, op: WriteOp, meter: &str, by_phase: &str) {
    let rig = Rig::seeded();
    let step = rig.process(4, op);
    print_chain(title, &step);
    assert_eq!(step.pushed.len(), 1, "{title}: pushed");
    assert_eq!(requests(&step.used), meter, "{title}: requests by label");
    assert_eq!(phases(&step.charges), by_phase, "{title}: charges by phase");
}

#[test]
fn follower_request_budget_create() {
    assert_budget(
        "create",
        create("/p/n", CreateMode::Persistent),
        "kv_read=2 kv_write=4 kv_transact=1 kv_transact_items=2 queue_send=1",
        "lock_node=2 -=3 push_to_leader=1 hand_over=1 commit=1",
    );
}

#[test]
fn follower_request_budget_set_data() {
    assert_budget(
        "set_data",
        set_data("/p/c", payload("v1"), -1),
        "kv_read=2 kv_write=5 queue_send=1",
        "lock_node=1 -=3 alloc_txid=1 push_to_leader=1 hand_over=1 commit=1",
    );
}

#[test]
fn follower_request_budget_delete() {
    assert_budget(
        "delete",
        delete("/p/c", -1),
        "kv_read=2 kv_write=5 kv_transact=1 kv_transact_items=2 queue_send=1",
        "lock_node=2 -=3 alloc_txid=1 push_to_leader=1 hand_over=1 commit=1",
    );
}

#[test]
fn follower_request_budget_check_then_set_data() {
    let cas = WriteOp::Multi {
        ops: vec![
            MultiOp::Check {
                path: "/p/c".into(),
                expected_version: 0,
            },
            MultiOp::SetData {
                path: "/p/c".into(),
                payload: payload("v1"),
                expected_version: 0,
            },
        ],
    };
    assert_budget(
        "[check, set_data]",
        cas,
        "kv_read=2 kv_write=5 queue_send=1",
        "lock_node=1 -=3 alloc_txid=1 push_to_leader=1 hand_over=1 commit=1",
    );
}

/// An error path's budget: `op` is refused with `verdict` after exactly
/// `locks` lock round trips (and as many releases).
fn assert_refusal_budget(title: &str, op: WriteOp, verdict: &FkError, locks: u64, before: &str) {
    let rig = Rig::seeded();
    let step = rig.process(4, op);
    print_chain(title, &step);
    assert!(step.pushed.is_empty(), "{title}: pushed");
    let [ClientNotification::WriteResult { result, .. }] = &step.notified[..] else {
        panic!("{title}: one result, got {:?}", step.notified);
    };
    assert_eq!(result.as_ref().unwrap_err(), verdict, "{title}");
    let writes = step.used.per_op.get("kv_write").copied().unwrap_or(0);
    assert_eq!(
        writes,
        2 * locks,
        "{title}: lock + release round trips ({before})"
    );
}

#[test]
fn follower_request_budget_oversized_set_data_takes_no_lock() {
    let limit = fk_core::follower::MAX_NODE_BYTES;
    assert_refusal_budget(
        "oversized set_data",
        set_data("/p/c", oversized(), -1),
        &FkError::TooLarge {
            size: oversized().byte_len(),
            limit,
        },
        0,
        "at 58387b3: 1 lock, reject, 1 release",
    );
}

#[test]
fn follower_request_budget_sequential_under_ephemeral_locks_the_parent_only() {
    assert_refusal_budget(
        "sequential create under an ephemeral",
        create("/e/s-", CreateMode::PersistentSequential),
        &FkError::NoChildrenForEphemerals,
        1,
        "at 58387b3: parent + generated name, 2 releases",
    );
}

// ----------------------------------------------------------------------
// Round-trip budgets
// ----------------------------------------------------------------------

/// Latencies of a fixed-latency model: every request of a kind takes
/// exactly its constant, and nothing else costs anything.
const READ: Duration = Duration::from_millis(9);
const COND: Duration = Duration::from_millis(7);
const WRITE: Duration = Duration::from_millis(5);
const TRANSACT: Duration = Duration::from_millis(11);
const SEND: Duration = Duration::from_millis(13);

fn fixed_latency() -> Ctx {
    let fixed = |at: Duration| {
        LatencySpec::new(at.as_secs_f64() * 1e3, 0.0)
            .sigma(0.0)
            .tail(0.0, 1.0)
    };
    let mut model = LatencyModel::zero();
    model.kv_get_strong = fixed(READ);
    model.kv_write_cond = fixed(COND);
    model.kv_write = fixed(WRITE);
    model.kv_transact = fixed(TRANSACT);
    model.q_send_fifo = fixed(SEND);
    Ctx::new(Arc::new(model), LatencyMode::Virtual, SEED)
}

/// `op` on a seeded 2-group rig with fixed latencies: the membership
/// read, the session-mark read, the speculative `ADD` and the first lock
/// start together, and the invocation lasts exactly `max(lock, read,
/// ADD) + alloc + push + hand-over + commit`, where `alloc` is the
/// allocation behind a rejected `ADD` (zero when it is accepted), the
/// hand-over one plain update and `commit` the commit's request.
fn assert_round_trips(title: &str, op: WriteOp, lock: Duration, alloc: Duration, commit: Duration) {
    let mut rig = Rig::seeded();
    rig.ctx = fixed_latency();
    let step = rig.process(4, op);
    print_chain(title, &step);
    let origin = step.charges.iter().map(|c| c.start).min().unwrap();
    let reads: Vec<&SpanRecord> = step
        .charges
        .iter()
        .filter(|c| matches!(c.op, Op::KvGet))
        .collect();
    assert_eq!(reads.len(), 2, "{title}: membership + session mark");
    assert!(reads.iter().all(|c| c.start == origin), "{title}: reads");
    let first_lock = step.charges.iter().find(|c| c.phase == "lock_node");
    assert_eq!(first_lock.map(|c| c.start), Some(origin), "{title}: lock");
    let add = step
        .charges
        .iter()
        .find(|c| c.phase.is_empty() && matches!(c.op, Op::KvUpdate { conditional: true }));
    assert_eq!(
        add.map(|c| c.start),
        Some(origin),
        "{title}: speculative ADD"
    );
    let expected = lock.max(READ).max(COND) + alloc + SEND + WRITE + commit;
    assert_eq!(step.elapsed, expected, "{title}");
}

/// The group's counter is above the floor: two locks outlast the reads
/// and the `ADD`, whose value is taken, and the commit is a node+parent
/// transaction. 43 ms; 38 ms while the commit carried the session's
/// `seq:` item (no hand-over), 50 ms at the parent `0c09504` (the `ADD`
/// ran after the locks, the mark after the commit).
#[test]
fn follower_round_trip_budget_create() {
    let op = create("/p/n", CreateMode::Persistent);
    assert_round_trips("create", op, 2 * COND, Duration::ZERO, TRANSACT);
}

/// The group's counter is behind the floor: the reads outlast the one
/// lock and the `ADD`, whose value is rejected, and the allocation
/// behind it is one more `ADD`; the commit is one conditional update.
/// 41 ms; 40 ms while the commit was a transaction with the session's
/// `seq:` item (no hand-over), 52 ms at the parent `0c09504` (the failed
/// `ADD` plus the `SET` after the locks, the mark after the commit).
#[test]
fn follower_round_trip_budget_set_data_behind_the_floor() {
    let op = set_data("/p/c", payload("v1"), -1);
    assert_round_trips("set_data", op, COND, COND, COND);
}

// ----------------------------------------------------------------------
// One verdict per case
// ----------------------------------------------------------------------

/// The follower's own verdict on a refused request, unwrapped from the
/// `MultiFailed { index: 0 }` a multi reports it under.
fn refusal(step: &Step, wrapped: bool) -> Option<FkError> {
    let [ClientNotification::WriteResult { result, txid, .. }] = &step.notified[..] else {
        assert!(step.notified.is_empty(), "{:?}", step.notified);
        return None;
    };
    assert_eq!(*txid, 0);
    let err = result
        .clone()
        .expect_err("the follower only reports refusals");
    Some(match err {
        FkError::MultiFailed { index: 0, cause } if wrapped => *cause,
        bare if !wrapped => bare,
        other => panic!("a one-op multi fails at index 0: {other:?}"),
    })
}

/// `single` and `multi` are the same transaction: the same verdict, the
/// same requests and — when it pushes — the same frame.
fn assert_same_transaction(case: &str, single: &Step, multi: &Step) {
    assert_eq!(refusal(single, false), refusal(multi, true), "{case}");
    assert_eq!(
        requests(&single.used),
        requests(&multi.used),
        "{case}: requests"
    );
    assert_eq!(single.pushed.len(), multi.pushed.len(), "{case}: pushed");
    let (Some(s), Some(m)) = (single.pushed.first(), multi.pushed.first()) else {
        return;
    };
    let (s, m) = (without_clock(s), without_clock(m));
    assert_eq!(s, m, "{case}: record");
    assert_eq!(hex(&s.encode()), hex(&m.encode()), "{case}: frame");
}

#[test]
fn one_verdict_per_case_whatever_the_shape() {
    use CreateMode::{Ephemeral, EphemeralSequential, Persistent, PersistentSequential};
    // (case, op, refused?) on a rig seeded with /p, /p/c and ephemeral /e.
    let cases = [
        ("create", create("/p/n", Persistent), false),
        ("create ephemeral", create("/p/n", Ephemeral), false),
        (
            "create sequential",
            create("/p/s-", PersistentSequential),
            false,
        ),
        (
            "create ephemeral sequential",
            create("/p/s-", EphemeralSequential),
            false,
        ),
        (
            "set_data unconditional",
            set_data("/p/c", payload("v1"), -1),
            false,
        ),
        (
            "set_data versioned",
            set_data("/p/c", payload("v1"), 0),
            false,
        ),
        (
            "set_data on the root",
            set_data("/", payload("v1"), -1),
            false,
        ),
        ("delete", delete("/p/c", -1), false),
        ("delete versioned", delete("/p/c", 0), false),
        ("delete ephemeral", delete("/e", -1), false),
        (
            "create: missing parent",
            create("/missing/n", Persistent),
            true,
        ),
        ("create: existing node", create("/p/c", Persistent), true),
        ("create: ephemeral parent", create("/e/n", Persistent), true),
        (
            "create sequential: ephemeral parent",
            create("/e/s-", PersistentSequential),
            true,
        ),
        (
            "create sequential: missing parent",
            create("/missing/s-", PersistentSequential),
            true,
        ),
        ("create: root", create("/", Persistent), true),
        ("create: bad path", create("/p//n", Persistent), true),
        (
            "create: oversize",
            WriteOp::Create {
                path: "/p/big".into(),
                payload: oversized(),
                mode: Persistent,
            },
            true,
        ),
        (
            "set_data: missing node",
            set_data("/p/x", payload("v1"), -1),
            true,
        ),
        (
            "set_data: bad version",
            set_data("/p/c", payload("v1"), 7),
            true,
        ),
        (
            "set_data: oversize",
            set_data("/p/c", oversized(), -1),
            true,
        ),
        (
            "set_data: oversize on a missing node",
            set_data("/p/x", oversized(), -1),
            true,
        ),
        ("delete: missing node", delete("/p/x", -1), true),
        ("delete: bad version", delete("/p/c", 7), true),
        ("delete: not empty", delete("/p", -1), true),
        ("delete: root", delete("/", -1), true),
    ];
    for (case, op, refused) in cases {
        let (single, multi) = (Rig::seeded(), Rig::seeded());
        let (s, m) = (
            single.process(4, op.clone()),
            multi.process(4, as_multi(&op)),
        );
        assert_eq!(s.pushed.is_empty(), refused, "{case}: {:?}", s.notified);
        assert_same_transaction(case, &s, &m);
    }
}

/// A redelivered copy of a committed create / versioned `set_data` /
/// delete is recognised by the request tag its commit left on the node:
/// it pushes nothing and tells the client nothing, in both shapes. (An
/// unconditional `set_data` leaves no evidence a second copy could be
/// told from; that one is the request watermark's job.)
#[test]
fn redelivered_copy_of_a_committed_write_is_dropped_in_both_shapes() {
    let cases = [
        ("create", create("/p/n", CreateMode::Persistent)),
        ("create ephemeral", create("/p/n", CreateMode::Ephemeral)),
        ("set_data versioned", set_data("/p/c", payload("v1"), 0)),
        ("delete", delete("/p/c", -1)),
    ];
    for (case, op) in cases {
        let (single, multi) = (Rig::seeded(), Rig::seeded());
        let first = (
            single.process(4, op.clone()),
            multi.process(4, as_multi(&op)),
        );
        assert_eq!(first.0.pushed.len(), 1, "{case}");
        assert_same_transaction(case, &first.0, &first.1);
        let again = (
            single.process(4, op.clone()),
            multi.process(4, as_multi(&op)),
        );
        for (shape, step) in [("single", &again.0), ("multi", &again.1)] {
            assert!(step.pushed.is_empty(), "{case} ({shape}): pushed again");
            assert!(
                step.notified.is_empty(),
                "{case} ({shape}): {:?}",
                step.notified
            );
        }
        assert_eq!(
            requests(&again.0.used),
            requests(&again.1.used),
            "{case}: requests of the redelivery"
        );
    }
}

// ----------------------------------------------------------------------
// Hand-over and crash windows
// ----------------------------------------------------------------------

/// The session's push mark as stored.
fn push_mark(rig: &Rig) -> u64 {
    let system = rig.deployment.system();
    system.session_last_txid(&Ctx::disabled(), SESSION)
}

/// The session's request watermark as stored.
fn watermark(rig: &Rig) -> u64 {
    let system = rig.deployment.system();
    system.session_request_watermark(&Ctx::disabled(), SESSION)
}

/// True if `record`'s commit (what the leader's `TryCommit` replays)
/// writes the session's `seq:` item.
fn sets_push_mark(record: &LeaderRecord) -> bool {
    let seq = keys::session_seq(&record.session_id);
    record.commit.items.iter().any(|item| item.key == seq)
}

/// Charges of `step` under the phase `label`.
fn charges_under(step: &Step, label: &str) -> usize {
    step.charges.iter().filter(|c| c.phase == label).count()
}

/// Puts `records` back on their lanes in order and drains the lanes
/// with one inline leader per group until no lane moves.
fn replay(rig: &Rig, records: &[LeaderRecord]) -> Vec<Leader> {
    let quiet = Ctx::disabled();
    let lanes = rig.deployment.leader_queues();
    for record in records {
        let lane = lanes.queue(txid::group_of(record.txid));
        lane.send(&quiet, LEADER_GROUP, record.encode()).unwrap();
    }
    let leaders: Vec<Leader> = (0..lanes.shards())
        .map(|_| rig.deployment.make_leader_inline())
        .collect();
    let mut moved = true;
    while moved {
        moved = false;
        for (group, leader) in leaders.iter().enumerate() {
            let lane = lanes.queue(group);
            let before = lane.pending();
            let _ = leader.drain_queue(&quiet, lane);
            moved |= lane.pending() < before;
        }
    }
    leaders
}

/// Hands the follower a re-received copy of the session's request
/// (`attempt` 2, as a redelivery or a duplicated send arrives), so the
/// request watermark filters it.
fn redeliver(rig: &Rig, request_id: u64, op: WriteOp) -> Step {
    let request = ClientRequest {
        session_id: SESSION.into(),
        request_id,
        op,
    };
    let copy = Message {
        seq: 0,
        group: SESSION.into(),
        body: request.encode(),
        sent_vt_ns: 0,
        attempt: 2,
    };
    rig.step(|| rig.follower.process_messages(&rig.ctx, &[copy]).unwrap())
}

/// The results the leaders sent the session for `request_id`.
fn answers(rig: &Rig, request_id: u64) -> Vec<ClientNotification> {
    let all = std::iter::from_fn(|| rig.endpoint.try_recv().ok());
    let of_request = |n: &ClientNotification| matches!(n, ClientNotification::WriteResult { request_id: r, .. } if *r == request_id);
    all.filter(of_request).collect()
}

/// W1's commit is skipped (its follower "dies" after the hand-over),
/// W2 then commits on the other group, and the leader repairs W1 by
/// replaying its record (`TryCommit`: its hand-over, then its commit).
/// The replay lowers neither mark W2 left: the record's commit writes
/// no `seq:` item, and its hand-over's guard fails against W2's.
#[test]
fn try_commit_replay_never_lowers_the_push_mark() {
    let (rig, mut records) = Rig::seeded_with_records();
    rig.follower.skip_next_commits(1);
    let w1 = rig.process(4, set_data("/p/c", payload("w1"), -1));
    let w2 = rig.process(5, create("/p/n", CreateMode::Persistent));
    let ([r1], [r2]) = (&w1.pushed[..], &w2.pushed[..]) else {
        panic!("one record each: {:?} / {:?}", w1.pushed, w2.pushed);
    };
    assert_ne!(txid::group_of(r1.txid), txid::group_of(r2.txid));
    assert_eq!(r2.prev_txid, r1.txid);
    assert!(!sets_push_mark(r1), "W1's frame writes no seq: item");
    assert_eq!(push_mark(&rig), r2.txid);

    records.extend([r1.clone(), r2.clone()]);
    let leaders = replay(&rig, &records);
    assert!(leaders.iter().all(|leader| leader.applied_ahead() == 0));
    let quiet = Ctx::disabled();
    let system = rig.deployment.system();
    let repaired = system.get_node(&quiet, "/p/c").unwrap();
    assert_eq!(
        repaired.num(node_attr::VERSION),
        Some(r1.txid as i64),
        "the leader replayed W1's commit"
    );
    assert_eq!(system.session_applied_txid(&quiet, SESSION), r2.txid);
    assert_eq!(push_mark(&rig), r2.txid, "the replay left the mark at W2");
    assert_eq!(watermark(&rig), 5, "and the watermark");
}

/// The request-watermark twin of the test above, with an unconditional
/// W2 that leaves no request tag a copy could be told from: W1's commit
/// is skipped, W2 lands on another node, the leader's `TryCommit`
/// repairs W1, and then a re-received copy of W2 arrives. The watermark
/// must still read W2, so the copy is dropped. While the watermark rode
/// each commit unguarded, the replay set it back to W1 and the copy
/// applied W2 a second time.
#[test]
fn a_try_commit_replay_never_lowers_the_request_watermark() {
    let (rig, mut records) = Rig::seeded_with_records();
    rig.follower.skip_next_commits(1);
    records.extend(rig.process(4, set_data("/p/c", payload("w1"), -1)).pushed);
    records.extend(rig.process(5, set_data("/p", payload("w2"), -1)).pushed);
    assert_eq!(records.len(), 5, "W1 and W2 pushed");
    replay(&rig, &records);
    let repaired = rig.deployment.system().get_node(&Ctx::disabled(), "/p/c");
    let version = repaired.and_then(|item| item.num(node_attr::VERSION));
    assert_eq!(version, Some(records[3].txid as i64), "W1 repaired");
    assert_eq!(watermark(&rig), 5, "the replay kept W2's watermark");
    assert_eq!(answers(&rig, 5).len(), 1, "W2 answered");
    let copy = redeliver(&rig, 5, set_data("/p", payload("w2"), -1));
    assert!(copy.pushed.is_empty(), "the copy of W2 applied again");
    assert!(copy.notified.is_empty());
}

/// Three requests of one session in one wave: one hand-over, after the
/// pushes and before the commits, sets the watermark to the last
/// request and the mark to the wave's highest txid. Skipped commits do
/// not move it: the records the leader may replay write no `seq:` item.
#[test]
fn one_push_mark_per_session_per_wave() {
    for skipped in [0, 2, 3] {
        let rig = Rig::seeded();
        let before = push_mark(&rig);
        rig.follower.skip_next_commits(skipped);
        let step = rig.process_batch(
            4,
            vec![
                set_data("/p", payload("a"), -1),
                set_data("/p/c", payload("b"), -1),
                set_data("/e", payload("c"), -1),
            ],
        );
        let case = format!("{skipped} commits skipped");
        assert_eq!(step.pushed.len(), 3, "{case}: one wave, three records");
        let commits = charges_under(&step, "commit");
        assert_eq!(commits, 3 - skipped as usize, "{case}: commits");
        assert_eq!(charges_under(&step, "hand_over"), 1, "{case}: hand-over");
        let highest = step.pushed.iter().map(|r| r.txid).max().unwrap();
        assert!(step.pushed.iter().all(|r| r.txid > before), "{case}");
        assert!(!step.pushed.iter().any(sets_push_mark), "{case}: frames");
        assert_eq!(push_mark(&rig), highest, "{case}: the mark");
        assert_eq!(watermark(&rig), 6, "{case}: the watermark");
    }
}

/// A `CloseSession` deletes the session's ephemerals as internal
/// requests, which carry no request id: their wave's hand-over sets the
/// push mark alone. The deregistration then floors on the delete, so no
/// leader deregisters the session ahead of it.
#[test]
fn close_session_deregisters_after_its_ephemeral_deletes() {
    let rig = Rig::seeded();
    let step = rig.process(4, WriteOp::CloseSession);
    let (dereg, deletes): (Vec<&LeaderRecord>, Vec<&LeaderRecord>) =
        step.pushed.iter().partition(|r| r.deregister_session);
    let ([dereg], [delete]) = (&dereg[..], &deletes[..]) else {
        panic!("a delete of /e and a deregistration: {:?}", step.pushed);
    };
    assert_eq!(delete.request_id, fk_core::follower::INTERNAL_REQUEST);
    assert!(!sets_push_mark(delete), "the delete's frame sets no mark");
    assert_eq!(dereg.prev_txid, delete.txid);
    assert_eq!(push_mark(&rig), dereg.txid);
}

/// Crash window: the follower dies after its push and before its
/// hand-over. Its commit never runs and the batch redelivers; the
/// leader's `TryCommit` hands the request over and commits it, so the
/// re-received copy is dropped and the client hears one answer, the
/// leader's. (Were the commit before the hand-over, it would land here,
/// the leader would find nothing to repair, and the copy would apply
/// the write twice.)
#[test]
fn crash_between_push_and_hand_over_leaves_the_answer_to_the_leader() {
    let (rig, mut records) = Rig::seeded_with_records();
    rig.follower.skip_next_hand_overs(1);
    let request = ClientRequest {
        session_id: SESSION.into(),
        request_id: 4,
        op: set_data("/p/c", payload("w"), -1),
    };
    let crashed = rig.step(|| {
        let result = rig.follower.process_request(&rig.ctx, &request);
        assert!(result.is_err(), "the batch redelivers");
    });
    let [record] = &crashed.pushed[..] else {
        panic!("the push landed: {:?}", crashed.pushed);
    };
    assert_eq!(watermark(&rig), 3, "nothing handed over");
    records.push(record.clone());
    replay(&rig, &records);
    let [ClientNotification::WriteResult { result, .. }] = &answers(&rig, 4)[..] else {
        panic!("one answer");
    };
    assert!(result.is_ok(), "{result:?}");
    let copy = redeliver(&rig, 4, request.op.clone());
    assert!(
        copy.pushed.is_empty(),
        "the copy is dropped, or applies twice"
    );
    assert!(copy.notified.is_empty());
    let node = rig.deployment.system().get_node(&Ctx::disabled(), "/p/c");
    let version = node.and_then(|item| item.num(node_attr::VERSION));
    assert_eq!(version, Some(record.txid as i64), "the leader committed");
    assert_eq!(watermark(&rig), 4, "the leader handed it over");
    assert_eq!(push_mark(&rig), record.txid);
}

/// Crash window: the follower dies after its hand-over and before its
/// commit. The leader's `TryCommit` commits (its hand-over is a no-op),
/// and the re-received copy is dropped.
#[test]
fn crash_between_hand_over_and_commit_leaves_the_commit_to_the_leader() {
    let (rig, mut records) = Rig::seeded_with_records();
    rig.follower.skip_next_commits(1);
    let op = set_data("/p/c", payload("w"), -1);
    let crashed = rig.process(4, op.clone());
    assert_eq!(charges_under(&crashed, "commit"), 0, "no commit");
    assert_eq!(watermark(&rig), 4, "handed over before the crash");
    records.extend(crashed.pushed);
    replay(&rig, &records);
    let node = rig.deployment.system().get_node(&Ctx::disabled(), "/p/c");
    let version = node.and_then(|item| item.num(node_attr::VERSION));
    assert_eq!(
        version,
        Some(records[3].txid as i64),
        "the leader committed"
    );
    assert_eq!(answers(&rig, 4).len(), 1, "one answer");
    let copy = redeliver(&rig, 4, op);
    assert!(copy.pushed.is_empty(), "the copy is dropped");
    assert!(copy.notified.is_empty());
}

/// Crash window: the follower dies after its commit and before the
/// queue's ack. The re-received copy is dropped on one read of the
/// watermark: no lock, no push, no write.
#[test]
fn crash_after_commit_before_ack_drops_the_copy() {
    let rig = Rig::seeded();
    let op = set_data("/p/c", payload("w"), -1);
    assert_eq!(rig.process(4, op.clone()).pushed.len(), 1);
    let copy = redeliver(&rig, 4, op);
    assert!(copy.pushed.is_empty(), "the copy is dropped");
    assert!(copy.notified.is_empty());
    assert_eq!(requests(&copy.used), "kv_read=1", "the watermark read");
}

/// Ages the lock on `path` by the lease, as if its holder had taken it
/// [`MAX_LOCK_HOLD_MS`] earlier: another follower may now take it.
fn expire_lock(rig: &Rig, path: &str) {
    let (quiet, key) = (Ctx::disabled(), keys::node(path));
    let kv = rig.deployment.system().kv();
    let stamp = kv.get(&quiet, &key).and_then(|item| item.num(LOCK_ATTR));
    let aged = Update::new().set(LOCK_ATTR, stamp.expect("held") - MAX_LOCK_HOLD_MS);
    kv.update(&quiet, &key, &aged, Condition::Always).unwrap();
}

/// Crash window, the copy first: the follower dies after its push and
/// before its hand-over, the lease on its lock runs out, and the
/// re-received copy takes the lock and runs the request again before
/// any leader reaches the first record. That record is an orphan: its
/// `TryCommit` fails and publishes no mark, so the session's chain is
/// the copy's, and the session's next write is held behind the copy's
/// record. The write lands once, at the copy's txid, and the client
/// hears success. (The orphan's txid is below the copy's, so the leader
/// takes it for already processed and answers it too, with its own
/// txid.)
#[test]
fn a_copy_that_outruns_the_leader_leaves_an_orphan_that_publishes_nothing() {
    let (rig, mut records) = Rig::seeded_with_records();
    rig.follower.skip_next_hand_overs(1);
    let op = set_data("/p/c", payload("w"), -1);
    let request = ClientRequest {
        session_id: SESSION.into(),
        request_id: 4,
        op: op.clone(),
    };
    let crashed = rig.step(|| {
        let result = rig.follower.process_request(&rig.ctx, &request);
        assert!(result.is_err(), "the batch redelivers");
    });
    let [orphan] = &crashed.pushed[..] else {
        panic!("the push landed: {:?}", crashed.pushed);
    };
    expire_lock(&rig, "/p/c");
    let copy = redeliver(&rig, 4, op);
    let [rerun] = &copy.pushed[..] else {
        panic!("the copy runs the request again: {:?}", copy.pushed);
    };
    assert_eq!(watermark(&rig), 4, "the copy handed it over");
    assert_eq!(push_mark(&rig), rerun.txid);
    let [next] = &rig.process(5, set_data("/p", payload("n"), -1)).pushed[..] else {
        panic!("request 5 pushed one record");
    };
    assert_eq!(next.prev_txid, rerun.txid, "the next write names the copy");

    records.extend([orphan.clone(), rerun.clone(), next.clone()]);
    let leaders = replay(&rig, &records);
    assert!(leaders.iter().all(|leader| leader.applied_ahead() == 0));
    let quiet = Ctx::disabled();
    let system = rig.deployment.system();
    let node = system.get_node(&quiet, "/p/c");
    let version = node.and_then(|item| item.num(node_attr::VERSION));
    assert_eq!(version, Some(rerun.txid as i64), "the copy's write, once");
    assert_eq!(push_mark(&rig), next.txid, "the orphan published no mark");
    assert_eq!(system.session_applied_txid(&quiet, SESSION), next.txid);
    let answered = answers(&rig, 4);
    let ok =
        |n: &ClientNotification| matches!(n, ClientNotification::WriteResult { result: Ok(_), .. });
    assert!(answered.iter().all(ok), "{answered:?}");
    let at_rerun = |n: &&ClientNotification| matches!(n, ClientNotification::WriteResult { txid, .. } if *txid == rerun.txid);
    assert!(answered.iter().any(|n| at_rerun(&n)), "{answered:?}");
}

/// A push that fails hands nothing over: the batch redelivers, and the
/// re-received copy is pushed and committed. (Were the hand-over before
/// the push, it would have landed, and the copy would be dropped with
/// no record for any leader to answer: the request would be lost.)
#[test]
fn failed_push_hands_nothing_over() {
    use fk_cloud::chaos::{Chaos, FaultPlan, FaultSpec};
    let rig = Rig::seeded();
    let mut plan = FaultPlan::disabled();
    plan.queue_error = FaultSpec::new(1.0, 5);
    let chaos = Chaos::from_plan(plan).expect("one fault point armed");
    rig.deployment.leader_queues().install_chaos(&chaos);
    let request = ClientRequest {
        session_id: SESSION.into(),
        request_id: 4,
        op: set_data("/p/c", payload("w"), -1),
    };
    let failed = rig.step(|| {
        let result = rig.follower.process_request(&rig.ctx, &request);
        assert!(result.is_err(), "the batch redelivers");
    });
    assert!(failed.pushed.is_empty());
    let copy = redeliver(&rig, 4, request.op.clone());
    assert_eq!(
        copy.pushed.len(),
        1,
        "the copy is pushed, or the request is lost"
    );
    assert_eq!(watermark(&rig), 4);
}

// ----------------------------------------------------------------------
// Speculative allocation
// ----------------------------------------------------------------------

/// The epoch `group`'s counter stands at.
fn counter(rig: &Rig, group: usize) -> i64 {
    let key = keys::txseq(group);
    let item = rig.deployment.system().kv().get(&Ctx::disabled(), &key);
    item.and_then(|item| item.num("value")).unwrap_or(0)
}

/// A rival commit on the node above the request's speculative `ADD`:
/// the value is rejected against the floor read under the lock, and the
/// request allocates above the rival. In this model a wave's jobs run
/// one after another on one thread, the locks first, so a rival cannot
/// literally land between the `ADD` and the lock. Its commit is placed
/// before the request instead, with a txid the `ADD` cannot reach (the
/// other group's, at an epoch far above this group's counter): the node
/// read under the lock then carries a commit above the `ADD`'s value,
/// which is the race's outcome.
#[test]
fn alloc_txid_speculative_add_below_a_rival_commit_is_rejected() {
    let rig = Rig::seeded();
    let quiet = Ctx::disabled();
    let group = group_of("/p/c", 2);
    let rival_path = (0..)
        .map(|i| format!("/r{i}"))
        .find(|path| group_of(path, 2) != group)
        .unwrap();
    let system = rig.deployment.system();
    system.register_session(&quiet, "rival", 0).unwrap();
    let ahead = txid::compose(50, group);
    system.hand_over(&quiet, "rival", 0, ahead).unwrap();
    let rival = WriteOp::Multi {
        ops: vec![
            MultiOp::Create {
                path: rival_path,
                payload: payload("rival"),
                mode: CreateMode::Persistent,
            },
            MultiOp::SetData {
                path: "/p/c".into(),
                payload: payload("rival"),
                expected_version: -1,
            },
        ],
    };
    let [rival] = &rig.process_as("rival", 1, rival).pushed[..] else {
        panic!("the rival pushes one record");
    };
    assert_ne!(txid::group_of(rival.txid), group);
    assert!(txid::epoch_of(rival.txid) > counter(&rig, group) as u64 + 1);

    let step = rig.process(4, set_data("/p/c", payload("v1"), -1));
    let [record] = &step.pushed[..] else {
        panic!("one record, got {:?}", step.pushed);
    };
    print_chain("set_data after a rival commit", &step);
    assert!(record.txid > rival.txid, "above the rival's commit");
    assert_eq!(txid::group_of(record.txid), group);
    assert!(
        step.charges.iter().any(|c| c.phase == "alloc_txid"),
        "the ADD's value was rejected: the floored allocation ran"
    );
}

/// A request refused under its locks has drawn its `ADD` already: the
/// value is burned — one `kv_write` beside the lock and its release —
/// and nothing is pushed.
#[test]
fn alloc_txid_speculative_add_of_a_refused_request_is_burned() {
    let rig = Rig::seeded();
    let group = group_of("/p/c", 2);
    let before = counter(&rig, group);
    let step = rig.process(4, set_data("/p/c", payload("v1"), 7));
    print_chain("set_data refused under its lock", &step);
    assert!(step.pushed.is_empty());
    let [ClientNotification::WriteResult { result, .. }] = &step.notified[..] else {
        panic!("one result, got {:?}", step.notified);
    };
    assert_eq!(result.as_ref().unwrap_err(), &FkError::BadVersion);
    assert_eq!(
        requests(&step.used),
        "kv_read=2 kv_write=3",
        "lock, ADD, release"
    );
    assert_eq!(counter(&rig, group), before + 1, "one value burned");
}

/// Runs the seeding writes, optionally a request refused under its
/// lock (which burns an `ADD`), then a `set_data` and a create, and
/// replays every record through the leaders. Returns the records and
/// the committed floors the leaders published.
fn burn_then_write(burn: bool) -> (Vec<LeaderRecord>, Vec<u64>, Rig) {
    let (rig, mut records) = Rig::seeded_with_records();
    let mut write = |request_id: u64, op: WriteOp| {
        records.extend(rig.process(request_id, op).pushed);
    };
    if burn {
        write(4, set_data("/p/c", payload("v1"), 7));
    }
    write(5, set_data("/p/c", payload("v1"), -1));
    write(6, create("/p/n", CreateMode::Persistent));
    let leaders = replay(&rig, &records);
    assert!(leaders.iter().all(|leader| leader.applied_ahead() == 0));
    let floors = rig.deployment.floors().snapshot();
    (records, floors, rig)
}

/// The next writes after a burned value take the txids, `prev_txid`s
/// and frames they take when the refused request never ran; the leaders
/// hold nothing back, and every group's committed floor reaches the
/// highest txid pushed to it — no floor waits for the burned value.
#[test]
fn alloc_txid_speculative_burned_value_is_a_gap_no_one_waits_for() {
    let (burned, burned_floors, rig) = burn_then_write(true);
    let (clean, clean_floors, _) = burn_then_write(false);
    assert_eq!(burned.len(), 5);
    let frames = |records: &[LeaderRecord]| -> Vec<String> {
        let frames = records.iter().map(|r| hex(&without_clock(r).encode()));
        frames.collect()
    };
    assert_eq!(frames(&burned), frames(&clean), "the same records");
    assert_eq!(burned_floors, clean_floors, "the same committed floors");
    for (group, floor) in burned_floors.iter().enumerate() {
        let pushed = burned.iter().map(|r| r.txid);
        let highest = pushed.filter(|t| txid::group_of(*t) == group).max();
        assert_eq!(Some(*floor), highest, "group {group}'s floor");
    }
    let last = burned.last().unwrap().txid;
    let system = rig.deployment.system();
    assert_eq!(system.session_applied_txid(&Ctx::disabled(), SESSION), last);
}

/// An instance that has read no membership record yet draws no `ADD`:
/// its first wave allocates under its locks, and the next wave, routed
/// by the record the first one read, draws its `ADD` beside the locks.
#[test]
fn alloc_txid_speculative_add_waits_for_a_membership_read() {
    let rig = Rig::new();
    let add =
        |c: &&SpanRecord| c.phase.is_empty() && matches!(c.op, Op::KvUpdate { conditional: true });
    let adds = |step: &Step| step.charges.iter().filter(add).count();
    let cold = rig.process(1, create("/p", CreateMode::Persistent));
    assert_eq!(adds(&cold), 0, "cold: no speculative ADD");
    assert!(cold.charges.iter().any(|c| c.phase == "alloc_txid"));
    let warm = rig.process(2, create("/q", CreateMode::Persistent));
    assert_eq!(adds(&warm), 1, "warm: one speculative ADD");
}

/// A create's commit is one node+parent `transact` that the store
/// retries and nothing above it retries again: k ≤ 4 injected
/// cancellations cost exactly k retries and the commit lands; a fifth
/// spends the store's one budget after 4 retries, and the commit is left
/// to the leader's `TryCommit`. (A `set_data` commit is one update,
/// which cancellations do not reach.)
#[test]
fn commit_faults_cost_one_retry_each_at_one_level() {
    use fk_cloud::chaos::{Chaos, FaultPlan, FaultSpec};
    for k in 1..=5u64 {
        let rig = Rig::seeded();
        let mut plan = FaultPlan::disabled();
        plan.kv_cancel = FaultSpec::new(1.0, k);
        let system = rig.deployment.system();
        system
            .kv()
            .install_chaos(Chaos::from_plan(plan).expect("one fault point armed"));
        let step = rig.process(4, create("/p/n", CreateMode::Persistent));
        assert_eq!(step.used.per_op["fault:kv_cancel"], k, "k = {k}");
        assert_eq!(step.used.retries, k.min(4), "k = {k}");
        assert_eq!(step.used.per_op["retry:kv.transact"], k.min(4), "k = {k}");
        let node = system.get_node(&rig.ctx, "/p/n");
        let landed = fk_core::system_store::SystemStore::node_exists(node.as_ref());
        assert_eq!(landed, k <= 4, "k = {k}: the commit landed");
    }
}
