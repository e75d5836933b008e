//! The follower's write planner (Algorithm 1 ➀–➁), pinned from outside:
//!
//! * `wire_vectors_*` — the leader-record frame a fault-free single
//!   write pushes, byte for byte, against vectors captured at commit
//!   `58387b3` (the last one with a planner per request shape);
//! * `follower_request_budget_*` — the storage and queue requests one
//!   `process_request` issues, by meter label and by phase label,
//!   printed charge by charge under `--nocapture` (the follower's
//!   counterpart of `leader::tests::round_trip_budget*`);
//! * `one_verdict_per_case_whatever_the_shape` — op `X` sent as a
//!   `WriteOp` and as `Multi[X]` is the same transaction.
//!
//! Everything runs a 2-group direct deployment on virtual time with a
//! fixed seed, so txids, request counts and frames repeat exactly. The
//! one wall-clock value a frame carries — the lock timestamp guarding
//! each commit item (`Follower::now_ms`) — is zeroed before comparing.

use fk_cloud::metering::UsageSnapshot;
use fk_cloud::trace::{Ctx, LatencyMode, SpanRecord};
use fk_core::api::{CreateMode, FkError, Stat};
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::follower::Follower;
use fk_core::messages::{
    ClientNotification, ClientRequest, LeaderRecord, MultiOp, OpOutcome, Payload, WriteOp,
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
        self.follower.process_request(&self.ctx, &request).unwrap();
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
/// on a fresh rig (request ids 1–7), lock timestamps zeroed. Captured at
/// `58387b3` by this very test.
const WIRE_VECTORS: [(&str, &str); 7] = [
    (
        "create persistent",
        "fb040201730180800400022f6103076e6f64653a2f6100040763726561746564040776657273696f6e040676636f756e740000077265715f7461670103732331010374787105010764656c6574656400066e6f64653a2f00010d6368696c6472656e5f747869640401086368696c6472656e020101610000057365713a7300010c6c6173745f72657175657374000200000000022f61000276300000000001012f01016100000000020002022f6100012f03000000",
    ),
    (
        "create ephemeral",
        "fb0402017302808008808004042f612f6503096e6f64653a2f612f6500050763726561746564040776657273696f6e040676636f756e740000077265715f7461670103732332096570685f6f776e6572010173010374787105010764656c6574656400076e6f64653a2f6100010d6368696c6472656e5f747869640401086368696c6472656e020101650000057365713a7300010c6c6173745f72657175657374000400000000042f612f650002763000000001017301022f6101016500000000020102042f612f6500022f6103000000",
    ),
    (
        "create sequential",
        "fb040201730381800c8080080f2f612f732d3030303030303030303003146e6f64653a2f612f732d3030303030303030303000040763726561746564040776657273696f6e040676636f756e740000077265715f7461670103732333010374787105010764656c6574656400076e6f64653a2f6100020b7365715f636f756e74657200020d6368696c6472656e5f747869640401086368696c6472656e02010c732d303030303030303030300000057365713a7300010c6c6173745f726571756573740006000000000f2f612f732d30303030303030303030000276300000000001022f610201650c732d30303030303030303030000000000200020f2f612f732d3030303030303030303000022f6103000000",
    ),
    (
        "set_data unconditional",
        "fb040201730480801081800c022f6102076e6f64653a2f6100030776657273696f6e040676636f756e740002077265715f74616701037323340103747871050000057365713a7300010c6c6173745f72657175657374000800000000022f6100027631808004020201650c732d303030303030303030300000808004000202020001022f6101000000",
    ),
    (
        "set_data versioned",
        "fb0402017305808014808010022f6102076e6f64653a2f6100030776657273696f6e040676636f756e740004077265715f74616701037323350103747871050000057365713a7300010c6c6173745f72657175657374000a00000000022f6100027632808004040201650c732d303030303030303030300000808004000402020001022f6101000000",
    ),
    (
        "delete",
        "fb04020173068180188080140f2f612f732d3030303030303030303003146e6f64653a2f612f732d3030303030303030303000030764656c6574656400020776657273696f6e04077265715f74616701037323360103747871050000076e6f64653a2f6100010d6368696c6472656e5f7478696404000001086368696c6472656e02010c732d30303030303030303030057365713a7300010c6c6173745f72657175657374000c000000010f2f612f732d3030303030303030303001022f61010165000000000000020f2f612f732d3030303030303030303002022f6103010000",
    ),
    (
        "delete ephemeral",
        "fb040201730780801c818018042f612f6503096e6f64653a2f612f6500030764656c6574656400020776657273696f6e04077265715f74616701037323370103747871050000076e6f64653a2f6100010d6368696c6472656e5f7478696404000001086368696c6472656e02010165057365713a7300010c6c6173745f72657175657374000e00000001042f612f6501022f610000000000000002042f612f6502022f6103010000",
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
        assert!(record.ops.is_empty(), "{name}: a single-op record");
        let frame = hex(&without_clock(record).encode());
        println!("{name}: {frame}");
        if frame != expected {
            moved.push(name);
        }
    }
    assert!(moved.is_empty(), "frames moved: {moved:?}");
}

// ----------------------------------------------------------------------
// Request budgets
// ----------------------------------------------------------------------

/// One fault-free budget: the meter delta and the charges per phase of
/// `op` on a seeded rig must equal the constants captured at `58387b3`.
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
        "kv_read=3 kv_write=4 kv_transact=1 kv_transact_items=3 queue_send=1",
        "-=2 lock_node=2 alloc_txid=3 push_to_leader=1 commit=1",
    );
}

#[test]
fn follower_request_budget_set_data() {
    assert_budget(
        "set_data",
        set_data("/p/c", payload("v1"), -1),
        "kv_read=3 kv_write=3 kv_transact=1 kv_transact_items=2 queue_send=1",
        "-=2 lock_node=1 alloc_txid=3 push_to_leader=1 commit=1",
    );
}

#[test]
fn follower_request_budget_delete() {
    assert_budget(
        "delete",
        delete("/p/c", -1),
        "kv_read=3 kv_write=4 kv_transact=1 kv_transact_items=3 queue_send=1",
        "-=2 lock_node=2 alloc_txid=3 push_to_leader=1 commit=1",
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
        "kv_read=3 kv_write=3 kv_transact=1 kv_transact_items=2 queue_send=1",
        "-=2 lock_node=1 alloc_txid=3 push_to_leader=1 commit=1",
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
// One verdict per case
// ----------------------------------------------------------------------

/// The stat a single-op record carries for `outcome`.
fn outcome_stat(outcome: &OpOutcome) -> Stat {
    match outcome {
        OpOutcome::Created { stat, .. }
        | OpOutcome::Set { stat, .. }
        | OpOutcome::Checked { stat } => *stat,
        OpOutcome::Deleted { .. } => Stat::default(),
    }
}

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

/// `single` and `multi` are the same transaction in two shapes.
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
    let [sub] = &m.ops[..] else {
        panic!("{case}: a one-op multi carries one sub: {m:?}");
    };
    assert!(s.ops.is_empty(), "{case}: a single-op record has no subs");
    assert_eq!((s.txid, s.prev_txid), (m.txid, m.prev_txid), "{case}");
    assert_eq!(s.path, m.path, "{case}");
    assert_eq!(
        without_clock(s).commit,
        without_clock(m).commit,
        "{case}: commit"
    );
    assert_eq!(s.user_update, sub.user_update, "{case}: user_update");
    assert_eq!(s.fires, sub.fires, "{case}: fires");
    assert_eq!(s.is_delete, sub.is_delete, "{case}: is_delete");
    assert_eq!(s.stat, outcome_stat(&sub.outcome), "{case}: stat");
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
