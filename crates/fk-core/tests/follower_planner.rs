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
//!   verdict, the same requests, the same frame.
//!
//! Everything runs a 2-group direct deployment on virtual time with a
//! fixed seed, so txids, request counts and frames repeat exactly. The
//! one wall-clock value a frame carries — the lock timestamp guarding
//! each commit item (`Follower::now_ms`) — is zeroed before comparing.

use fk_cloud::latency::{LatencyModel, LatencySpec};
use fk_cloud::metering::UsageSnapshot;
use fk_cloud::ops::Op;
use fk_cloud::trace::{Ctx, LatencyMode, SpanRecord};
use fk_core::api::{CreateMode, FkError};
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::follower::Follower;
use fk_core::messages::{
    ClientNotification, ClientRequest, LeaderRecord, MultiOp, Payload, WriteOp,
};
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
        let rig = Rig::new();
        for (request_id, op) in [
            (1, create("/p", CreateMode::Persistent)),
            (2, create("/p/c", CreateMode::Persistent)),
            (3, create("/e", CreateMode::Ephemeral)),
        ] {
            assert_eq!(rig.process(request_id, op).pushed.len(), 1);
        }
        rig
    }

    /// Sends one request through `Follower::process_request` (no write
    /// queue in front of it: a repeated request id reaches the planner,
    /// which is what a redelivery past the watermark filter looks like).
    fn process(&self, request_id: u64, op: WriteOp) -> Step {
        let request = ClientRequest {
            session_id: SESSION.into(),
            request_id,
            op,
        };
        let before = self.deployment.meter().snapshot();
        self.ctx.take_spans();
        let start = self.ctx.now();
        self.follower.process_request(&self.ctx, &request).unwrap();
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
/// are the membership and session-mark reads, which ride the lock wave,
/// and the push mark. The allocation is one conditional `ADD` when the
/// group's counter is at or above the floor's epoch (the create: `/p/n`
/// shares its group with `/e`, the session's last write), and the `ADD`'s
/// failed guard plus one `SET` when the counter is behind it (every op
/// on `/p/c`, whose group the seeding writes left behind the session).
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
        "kv_read=2 kv_write=4 kv_transact=1 kv_transact_items=3 queue_send=1",
        "lock_node=2 -=3 alloc_txid=1 push_to_leader=1 commit=1",
    );
}

#[test]
fn follower_request_budget_set_data() {
    assert_budget(
        "set_data",
        set_data("/p/c", payload("v1"), -1),
        "kv_read=2 kv_write=4 kv_transact=1 kv_transact_items=2 queue_send=1",
        "lock_node=1 -=3 alloc_txid=2 push_to_leader=1 commit=1",
    );
}

#[test]
fn follower_request_budget_delete() {
    assert_budget(
        "delete",
        delete("/p/c", -1),
        "kv_read=2 kv_write=5 kv_transact=1 kv_transact_items=3 queue_send=1",
        "lock_node=2 -=3 alloc_txid=2 push_to_leader=1 commit=1",
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
        "kv_read=2 kv_write=4 kv_transact=1 kv_transact_items=2 queue_send=1",
        "lock_node=1 -=3 alloc_txid=2 push_to_leader=1 commit=1",
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
    let limit = fk_core::follower::FollowerConfig::default().max_node_bytes;
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
/// read, the session-mark read and the first lock start together, and
/// the invocation lasts exactly `max(lock, read) + alloc + push + commit
/// + mark`.
fn assert_round_trips(title: &str, op: WriteOp, lock: Duration, alloc: Duration) {
    let mut rig = Rig::seeded();
    rig.ctx = fixed_latency();
    let step = rig.process(4, op);
    print_chain(title, &step);
    let origin = step.charges.iter().map(|c| c.start).min().unwrap();
    let reads: Vec<&SpanRecord> = step
        .charges
        .iter()
        .filter(|c| matches!(c.op, Op::KvGet { .. }))
        .collect();
    assert_eq!(reads.len(), 2, "{title}: membership + session mark");
    assert!(reads.iter().all(|c| c.start == origin), "{title}: reads");
    let first_lock = step.charges.iter().find(|c| c.phase == "lock_node");
    assert_eq!(first_lock.map(|c| c.start), Some(origin), "{title}: lock");
    let expected = lock.max(READ) + alloc + SEND + TRANSACT + WRITE;
    assert_eq!(step.elapsed, expected, "{title}");
}

/// The group's counter is at or above the floor: two locks outlast the
/// reads, and the allocation is one `ADD`.
#[test]
fn follower_round_trip_budget_create() {
    let op = create("/p/n", CreateMode::Persistent);
    assert_round_trips("create", op, 2 * COND, COND);
}

/// The group's counter is behind the floor: the reads outlast the one
/// lock, and the allocation is the failed `ADD` plus the `SET`.
#[test]
fn follower_round_trip_budget_set_data_behind_the_floor() {
    let op = set_data("/p/c", payload("v1"), -1);
    assert_round_trips("set_data", op, COND, 2 * COND);
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
