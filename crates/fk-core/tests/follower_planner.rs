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
//! * `one_push_mark_per_session_per_wave`,
//!   `try_commit_replay_never_lowers_the_push_mark`,
//!   `close_session_deregisters_after_its_ephemeral_deletes` — the
//!   session's push mark rides the commit of its last pushed write,
//!   never the record;
//! * `alloc_txid_speculative_*` — when the `ADD` drawn beside the locks
//!   is taken as the txid, and what a burned value leaves behind.
//! * `commit_faults_cost_one_retry_each_at_one_level` — the commit's
//!   transient failures are retried once each, inside the store.
//!
//! Everything runs a 2-group direct deployment on virtual time with a
//! fixed seed, so txids, request counts and frames repeat exactly. The
//! one wall-clock value a frame carries — the lock timestamp guarding
//! each commit item (`Follower::now_ms`) — is zeroed before comparing.

use fk_cloud::latency::{LatencyModel, LatencySpec};
use fk_cloud::metering::UsageSnapshot;
use fk_cloud::ops::Op;
use fk_cloud::queue::group_of;
use fk_cloud::trace::{Ctx, LatencyMode, SpanRecord};
use fk_core::api::{CreateMode, FkError};
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::follower::{Follower, LEADER_GROUP};
use fk_core::leader::Leader;
use fk_core::messages::{
    ClientNotification, ClientRequest, LeaderRecord, MultiOp, Payload, WriteOp,
};
use fk_core::system_store::{keys, node_attr, session_attr, txid};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
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
/// one-op record of the write (frame version 5). Captured by this very
/// test at the commit after `54293e5` that gave every leader record one
/// shape. Frame bytes at `54293e5` (the single-op shape) → then:
/// create persistent 181 → 185, create ephemeral 209 → 215, create
/// sequential 276 → 293, set_data unconditional 137 → 141, set_data
/// versioned 137 → 141, delete 225 → 236, delete ephemeral 168 → 168.
/// Recaptured when creates and deletes began removing the object tags
/// on record (`node_attr::TAGS`) from the created node's and the
/// parent's commit items: 5 B per item (`04 74616773`), so +10 B per
/// create and +5 B per delete; the `set_data` frames did not move.
const WIRE_VECTORS: [(&str, &str); 7] = [
    (
        "create persistent",
        "fb05020173018080040003076e6f64653a2f6100040763726561746564040776657273696f6e040676636f756e740000077265715f7461670103732331010374787105020764656c65746564047461677300066e6f64653a2f00010d6368696c6472656e5f747869640401086368696c6472656e0201016101047461677300057365713a7300010c6c6173745f7265717565737400020000000001022f6100022f61000276300000000001012f01016102022f6100012f030000022f61000000000200",
    ),
    (
        "create ephemeral",
        "fb050201730280800880800403096e6f64653a2f612f6500050763726561746564040776657273696f6e040676636f756e740000077265715f7461670103732332096570685f6f776e6572010173010374787105020764656c65746564047461677300076e6f64653a2f6100010d6368696c6472656e5f747869640401086368696c6472656e0201016501047461677300057365713a7300010c6c6173745f7265717565737400040000000001042f612f6500042f612f650002763000000001017301022f6101016502042f612f6500022f61030000042f612f65000000000201",
    ),
    (
        "create sequential",
        "fb050201730381800c80800803146e6f64653a2f612f732d3030303030303030303000040763726561746564040776657273696f6e040676636f756e740000077265715f7461670103732333010374787105020764656c65746564047461677300076e6f64653a2f6100020b7365715f636f756e74657200020d6368696c6472656e5f747869640401086368696c6472656e02010c732d3030303030303030303001047461677300057365713a7300010c6c6173745f72657175657374000600000000010f2f612f732d30303030303030303030000f2f612f732d30303030303030303030000276300000000001022f610201650c732d30303030303030303030020f2f612f732d3030303030303030303000022f610300000f2f612f732d30303030303030303030000000000200",
    ),
    (
        "set_data unconditional",
        "fb050201730480801081800c02076e6f64653a2f6100030776657273696f6e040676636f756e740002077265715f74616701037323340103747871050000057365713a7300010c6c6173745f7265717565737400080000000001022f6100022f6100027631808004020201650c732d30303030303030303030000001022f61010001022f618080040002020200",
    ),
    (
        "set_data versioned",
        "fb050201730580801480801002076e6f64653a2f6100030776657273696f6e040676636f756e740004077265715f74616701037323350103747871050000057365713a7300010c6c6173745f72657175657374000a0000000001022f6100022f6100027632808004040201650c732d30303030303030303030000001022f61010001022f618080040004020200",
    ),
    (
        "delete",
        "fb050201730681801880801403146e6f64653a2f612f732d3030303030303030303000030764656c6574656400020776657273696f6e04077265715f74616701037323360103747871050000076e6f64653a2f6100010d6368696c6472656e5f74786964040001047461677301086368696c6472656e02010c732d30303030303030303030057365713a7300010c6c6173745f72657175657374000c00000000010f2f612f732d30303030303030303030010f2f612f732d3030303030303030303001022f61010165020f2f612f732d3030303030303030303002022f610301020f2f612f732d30303030303030303030",
    ),
    (
        "delete ephemeral",
        "fb050201730780801c81801803096e6f64653a2f612f6500030764656c6574656400020776657273696f6e04077265715f74616701037323370103747871050000076e6f64653a2f6100010d6368696c6472656e5f74786964040001047461677301086368696c6472656e02010165057365713a7300010c6c6173745f72657175657374000e0000000001042f612f6501042f612f6501022f610002042f612f6502022f61030102042f612f65",
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
/// removal since (5 B per created node or rewritten parent).
const FRAME_BYTES: [(&str, usize, usize, usize); 6] = [
    ("create", 196, 216, 212),
    ("ephemeral create", 211, 231, 227),
    ("sequential create", 276, 318, 303),
    ("set_data", 130, 150, 136),
    ("set_data 128 B", 258, 278, 264),
    ("delete", 168, 182, 173),
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
/// `ADD` on the routed group's counter, which all ride the lock wave;
/// the push mark rides the commit. The create takes the `ADD`'s value
/// (`/p/n` shares its group with `/e`, the session's last write, so the
/// counter is above the floor) and labels nothing `alloc_txid`. Every op
/// on `/p/c` finds the value at the floor's epoch (the seeding writes
/// left its group's counter one behind the session) and allocates once
/// more: one conditional `ADD`, labelled `alloc_txid`.
///
/// At the parent `0c09504` every budget paid one `kv_write` more, the
/// push mark's own write: create `kv_write=4`, phases `lock_node=2 -=3
/// alloc_txid=1`; `set_data` and `[check, set_data]` `kv_write=4`,
/// phases `lock_node=1 -=3 alloc_txid=2`; delete `kv_write=5`, phases
/// `lock_node=2 -=3 alloc_txid=2`.
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
        "kv_read=2 kv_write=3 kv_transact=1 kv_transact_items=3 queue_send=1",
        "lock_node=2 -=3 push_to_leader=1 commit=1",
    );
}

#[test]
fn follower_request_budget_set_data() {
    assert_budget(
        "set_data",
        set_data("/p/c", payload("v1"), -1),
        "kv_read=2 kv_write=3 kv_transact=1 kv_transact_items=2 queue_send=1",
        "lock_node=1 -=3 alloc_txid=1 push_to_leader=1 commit=1",
    );
}

#[test]
fn follower_request_budget_delete() {
    assert_budget(
        "delete",
        delete("/p/c", -1),
        "kv_read=2 kv_write=4 kv_transact=1 kv_transact_items=3 queue_send=1",
        "lock_node=2 -=3 alloc_txid=1 push_to_leader=1 commit=1",
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
        "kv_read=2 kv_write=3 kv_transact=1 kv_transact_items=2 queue_send=1",
        "lock_node=1 -=3 alloc_txid=1 push_to_leader=1 commit=1",
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
/// ADD) + alloc + push + commit`, where `alloc` is the allocation behind
/// a rejected `ADD` (zero when it is accepted). The push mark rides the
/// commit.
fn assert_round_trips(title: &str, op: WriteOp, lock: Duration, alloc: Duration) {
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
    let expected = lock.max(READ).max(COND) + alloc + SEND + TRANSACT;
    assert_eq!(step.elapsed, expected, "{title}");
}

/// The group's counter is above the floor: two locks outlast the reads
/// and the `ADD`, whose value is taken. 38 ms; 50 ms at the parent
/// `0c09504` (the `ADD` ran after the locks, the mark after the commit).
#[test]
fn follower_round_trip_budget_create() {
    let op = create("/p/n", CreateMode::Persistent);
    assert_round_trips("create", op, 2 * COND, Duration::ZERO);
}

/// The group's counter is behind the floor: the reads outlast the one
/// lock and the `ADD`, whose value is rejected, and the allocation
/// behind it is one more `ADD`. 40 ms; 52 ms at the parent `0c09504`
/// (the failed `ADD` plus the `SET` after the locks, the mark after the
/// commit).
#[test]
fn follower_round_trip_budget_set_data_behind_the_floor() {
    let op = set_data("/p/c", payload("v1"), -1);
    assert_round_trips("set_data", op, COND, COND);
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
// Push marks
// ----------------------------------------------------------------------

/// The session's push mark as stored.
fn push_mark(rig: &Rig) -> u64 {
    let system = rig.deployment.system();
    system.session_last_txid(&Ctx::disabled(), SESSION)
}

/// True if `record`'s commit (what the leader's `TryCommit` replays)
/// sets the push mark.
fn sets_push_mark(record: &LeaderRecord) -> bool {
    let mut sets = record.commit.items.iter().flat_map(|item| &item.sets);
    sets.any(|(attr, _)| attr == session_attr::LAST_TXID)
}

/// Writes the follower issued with no condition: the push mark's own
/// write is the only one a `set_data` wave can issue.
fn unconditional_writes(step: &Step) -> usize {
    let unconditional = |c: &&SpanRecord| matches!(c.op, Op::KvUpdate { conditional: false });
    step.charges.iter().filter(unconditional).count()
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

/// W1's commit is skipped (its follower "dies" between push and
/// commit), W2 then commits on the other group, and the leader repairs
/// W1 by replaying its record's commit (`TryCommit`). The replay must
/// not lower the mark W2 left, so W1's record carries no mark: the
/// follower's own commit sets it, and the record stays what it was when
/// the mark was a separate write.
#[test]
fn try_commit_replay_never_lowers_the_push_mark() {
    let (rig, mut records) = Rig::seeded_with_records();
    rig.follower
        .config()
        .skip_commits
        .store(1, Ordering::SeqCst);
    let w1 = rig.process(4, set_data("/p/c", payload("w1"), -1));
    let w2 = rig.process(5, create("/p/n", CreateMode::Persistent));
    let ([r1], [r2]) = (&w1.pushed[..], &w2.pushed[..]) else {
        panic!("one record each: {:?} / {:?}", w1.pushed, w2.pushed);
    };
    assert_ne!(txid::group_of(r1.txid), txid::group_of(r2.txid));
    assert_eq!(r2.prev_txid, r1.txid);
    assert!(!sets_push_mark(r1), "W1's frame sets no last_txid");
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
}

/// Three requests of one session in one wave: the mark is written once,
/// by the commit of the last, to the wave's highest txid — the records
/// the leader may replay carry none. Skipping the first two commits
/// leaves the last one to set it alone; skipping all three sends the
/// mark through its one fallback write.
#[test]
fn one_push_mark_per_session_per_wave() {
    for (skipped, fallbacks) in [(0, 0), (2, 0), (3, 1)] {
        let rig = Rig::seeded();
        let before = push_mark(&rig);
        rig.follower
            .config()
            .skip_commits
            .store(skipped, Ordering::SeqCst);
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
        let commits = step.charges.iter().filter(|c| c.op == Op::KvTransact);
        assert_eq!(commits.count(), 3 - skipped as usize, "{case}: commits");
        let highest = step.pushed.iter().map(|r| r.txid).max().unwrap();
        assert!(step.pushed.iter().all(|r| r.txid > before), "{case}");
        assert!(!step.pushed.iter().any(sets_push_mark), "{case}: frames");
        assert_eq!(
            unconditional_writes(&step),
            fallbacks,
            "{case}: mark writes"
        );
        assert_eq!(push_mark(&rig), highest, "{case}: the mark");
    }
}

/// A `CloseSession` deletes the session's ephemerals as internal
/// requests, whose commits write no request watermark: the mark rides
/// them as a `seq:` item of its own. The deregistration then floors on
/// the delete, so no leader deregisters the session ahead of it.
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
    system.record_session_push(&quiet, "rival", ahead).unwrap();
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

/// The commit is one `transact` that the store retries and nothing
/// above it retries again: k ≤ 4 injected cancellations cost exactly k
/// retries and the commit lands; a fifth spends the store's one budget
/// after 4 retries, and the commit is left to the leader's `TryCommit`.
#[test]
fn commit_faults_cost_one_retry_each_at_one_level() {
    use fk_cloud::chaos::{Chaos, FaultPlan, FaultSpec};
    for k in 1..=5u64 {
        let rig = Rig::seeded();
        let mut plan = FaultPlan::disabled();
        plan.kv_cancel = FaultSpec::new(1.0, k);
        let kv = rig.deployment.system().kv();
        kv.install_chaos(Chaos::from_plan(plan).expect("one fault point armed"));
        let step = rig.process(4, set_data("/p", payload("v"), -1));
        assert_eq!(step.used.per_op["fault:kv_cancel"], k, "k = {k}");
        assert_eq!(step.used.retries, k.min(4), "k = {k}");
        assert_eq!(step.used.per_op["retry:kv.transact"], k.min(4), "k = {k}");
        let watermark = kv
            .get(&rig.ctx, &keys::session_seq(SESSION))
            .and_then(|item| item.num(session_attr::LAST_REQUEST));
        assert_eq!(watermark == Some(4), k <= 4, "k = {k}: the commit landed");
    }
}
