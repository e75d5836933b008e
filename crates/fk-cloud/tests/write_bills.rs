//! Every write API's bill and charge, pinned for every outcome.
//!
//! Each case runs one call of the key-value table's `put`, `update`,
//! `delete` or `transact` on a fresh table under a seeded virtual-time
//! context, and records what the call cost: the meter's per-label
//! counts, write units and stored bytes, and the context's virtual
//! time. The outcomes are an applied write, a refused condition, a
//! write the durable engine refuses, an oversized or ill-typed write,
//! and one injected fault at each of the table's fault points
//! (`kv_throttle` and `kv_error` for one item, `kv_cancel` for a
//! transaction). A change to any of these numbers is a change to the
//! bill of every workload, so it has to show up here first.
//!
//! The last test pins that `Queue::send` is `send_batch` of one body:
//! same sequence numbers, same meter, same virtual time and the same
//! delivered stream under one seeded chaos plan.

use bytes::Bytes;
use fk_cloud::{
    Chaos, CloudResult, Condition, Ctx, FaultPlan, FaultSpec, Item, KvStore, LatencyMode,
    LatencyModel, Meter, Queue, QueueKind, Region, TransactOp, Update, UsageSnapshot,
};
use fk_store::{Lsm, LsmConfig, SimStorage};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 7;

fn seeded_ctx() -> Ctx {
    Ctx::new(Arc::new(LatencyModel::aws()), LatencyMode::Virtual, SEED)
}

/// How a case's table is set up before its call.
#[derive(Clone, Copy)]
enum Setup {
    Plain,
    /// Backed by a durable engine that keeps working.
    Durable,
    /// Backed by a durable engine whose device dies on its next write.
    DeadDisk,
    /// With one fault point armed to fire once.
    Fault(fn(&mut FaultPlan, FaultSpec)),
}

/// A table holding `k` (`v` = 1, 1 kB payload) and `d` (`v` = 2).
fn table(setup: Setup) -> (KvStore, Meter, Option<SimStorage>) {
    let meter = Meter::new();
    let kv = KvStore::new("t", Region::US_EAST_1, meter.clone());
    let dev = match setup {
        Setup::Durable | Setup::DeadDisk => {
            let dev = SimStorage::new();
            let lsm = Lsm::open(Arc::new(dev.clone()), LsmConfig::default()).unwrap();
            kv.attach_durable(lsm).unwrap();
            Some(dev)
        }
        _ => None,
    };
    let ctx = Ctx::disabled();
    let k = Item::new().with("v", 1i64).with("p", vec![0u8; 1024]);
    kv.put(&ctx, "k", k, Condition::Always).unwrap();
    kv.put(&ctx, "d", Item::new().with("v", 2i64), Condition::Always)
        .unwrap();
    match setup {
        Setup::DeadDisk => dev.as_ref().unwrap().arm_kill(1, 7),
        Setup::Fault(arm) => {
            let mut plan = FaultPlan::disabled();
            arm(&mut plan, FaultSpec::new(1.0, 1));
            kv.install_chaos(Chaos::from_plan(plan).unwrap());
        }
        _ => {}
    }
    (kv, meter, dev)
}

/// The meter's difference, in one line: changed per-label counts, write
/// units and the change of stored bytes.
fn bill(before: &UsageSnapshot, after: &UsageSnapshot) -> String {
    let diff = after.since(before);
    let mut out = String::new();
    for (label, count) in diff.per_op.iter().filter(|(_, n)| **n > 0) {
        write!(out, "{label}={count} ").unwrap();
    }
    let stored = after.kv_bytes_stored as i64 - before.kv_bytes_stored as i64;
    write!(out, "wu={} stored={stored:+}", diff.kv_write_units).unwrap();
    out
}

type Call = fn(&KvStore, &Ctx) -> CloudResult<()>;

fn put(kv: &KvStore, ctx: &Ctx, cond: Condition) -> CloudResult<()> {
    let item = Item::new().with("v", 5i64).with("p", vec![1u8; 1500]);
    kv.put(ctx, "k", item, cond).map(drop)
}

fn update(kv: &KvStore, ctx: &Ctx, cond: Condition) -> CloudResult<()> {
    let update = Update::new().add("v", 1).set("w", "x");
    kv.update(ctx, "k", &update, cond).map(drop)
}

/// A put, an update, a delete and a check; `ok` decides the check.
fn transaction(kv: &KvStore, ctx: &Ctx, ok: bool) -> CloudResult<()> {
    let ops = [
        TransactOp::Put {
            key: "n".into(),
            item: Item::new().with("v", 9i64).with("p", vec![2u8; 3000]),
            condition: Condition::ItemNotExists,
        },
        TransactOp::Update {
            key: "k".into(),
            update: Update::new().add("v", 1),
            condition: Condition::ItemExists,
        },
        TransactOp::Delete {
            key: "d".into(),
            condition: Condition::eq("v", 2i64),
        },
        TransactOp::Check {
            key: "k".into(),
            condition: Condition::eq("v", if ok { 1i64 } else { 0 }),
        },
    ];
    kv.transact(ctx, &ops)
}

fn cases() -> Vec<(&'static str, Setup, Call)> {
    let throttle: fn(&mut FaultPlan, FaultSpec) = |p, s| p.kv_throttle = s;
    let error: fn(&mut FaultPlan, FaultSpec) = |p, s| p.kv_error = s;
    let cancel: fn(&mut FaultPlan, FaultSpec) = |p, s| p.kv_cancel = s;
    let put_ok: Call = |kv, ctx| put(kv, ctx, Condition::ItemExists);
    let update_ok: Call = |kv, ctx| update(kv, ctx, Condition::eq("v", 1i64));
    let delete_ok: Call = |kv, ctx| kv.delete(ctx, "k", Condition::ItemExists).map(drop);
    let transact_ok: Call = |kv, ctx| transaction(kv, ctx, true);
    vec![
        ("put applied", Setup::Plain, put_ok),
        ("put applied, durable", Setup::Durable, put_ok),
        ("put blind", Setup::Plain, |kv, ctx| {
            put(kv, ctx, Condition::Always)
        }),
        ("put refused", Setup::Plain, |kv, ctx| {
            put(kv, ctx, Condition::ItemNotExists)
        }),
        ("put dead disk", Setup::DeadDisk, put_ok),
        ("put throttled once", Setup::Fault(throttle), put_ok),
        ("put errs once", Setup::Fault(error), put_ok),
        ("put too large", Setup::Fault(throttle), |kv, ctx| {
            let big = Item::new().with("p", vec![0u8; 500 * 1024]);
            kv.put(ctx, "k", big, Condition::Always).map(drop)
        }),
        ("update applied", Setup::Plain, update_ok),
        ("update applied, durable", Setup::Durable, update_ok),
        ("update upserts", Setup::Plain, |kv, ctx| {
            let update = Update::new().add("n", 1);
            kv.update(ctx, "new", &update, Condition::Always).map(drop)
        }),
        ("update refused", Setup::Plain, |kv, ctx| {
            update(kv, ctx, Condition::eq("v", 0i64))
        }),
        ("update ill-typed", Setup::Plain, |kv, ctx| {
            let update = Update::new().add("p", 1);
            kv.update(ctx, "k", &update, Condition::Always).map(drop)
        }),
        ("update dead disk", Setup::DeadDisk, update_ok),
        ("update throttled once", Setup::Fault(throttle), update_ok),
        ("update errs once", Setup::Fault(error), update_ok),
        ("delete applied", Setup::Plain, delete_ok),
        ("delete applied, durable", Setup::Durable, delete_ok),
        ("delete absent", Setup::Plain, |kv, ctx| {
            kv.delete(ctx, "none", Condition::Always).map(drop)
        }),
        ("delete refused", Setup::Plain, |kv, ctx| {
            kv.delete(ctx, "k", Condition::ItemNotExists).map(drop)
        }),
        ("delete dead disk", Setup::DeadDisk, delete_ok),
        ("delete throttled once", Setup::Fault(throttle), delete_ok),
        ("delete errs once", Setup::Fault(error), delete_ok),
        ("transact applied", Setup::Plain, transact_ok),
        ("transact applied, durable", Setup::Durable, transact_ok),
        ("transact refused", Setup::Plain, |kv, ctx| {
            transaction(kv, ctx, false)
        }),
        ("transact dead disk", Setup::DeadDisk, transact_ok),
        ("transact cancelled once", Setup::Fault(cancel), transact_ok),
    ]
}

/// Each case's outcome, bill and virtual time (ns), as recorded.
const RECORDED: &[&str] = &[
    "put applied: ok | kv_write=1 wu=2 stored=+476 | vt=7290416",
    "put applied, durable: ok | kv_write=1 wu=2 stored=+476 | vt=7290416",
    "put blind: ok | kv_write=1 wu=2 stored=+476 | vt=4887256",
    "put refused: ConditionFailed | kv_write=1 wu=2 stored=+0 | vt=7290416",
    "put dead disk: StorageFailed | kv_write=5 retry:kv.put=4 wu=10 stored=+0 | vt=316889828",
    "put throttled once: ok | fault:kv_throttle=1 kv_write=2 retry:kv.put=1 wu=3 stored=+476 | vt=35989400",
    "put errs once: ok | fault:kv_error=1 kv_write=2 retry:kv.put=1 wu=3 stored=+476 | vt=35989400",
    "put too large: PayloadTooLarge | wu=0 stored=+0 | vt=0",
    "update applied: ok | kv_write=1 wu=2 stored=+2 | vt=6841435",
    "update applied, durable: ok | kv_write=1 wu=2 stored=+2 | vt=6841435",
    "update upserts: ok | kv_write=1 wu=1 stored=+9 | vt=3433078",
    "update refused: ConditionFailed | kv_write=1 wu=1 stored=+0 | vt=5920740",
    "update ill-typed: InvalidOperation | wu=0 stored=+0 | vt=0",
    "update dead disk: StorageFailed | kv_write=5 retry:kv.update=4 wu=5 stored=+0 | vt=309930960",
    "update throttled once: ok | fault:kv_throttle=1 kv_write=2 retry:kv.update=1 wu=3 stored=+2 | vt=35514308",
    "update errs once: ok | fault:kv_error=1 kv_write=2 retry:kv.update=1 wu=3 stored=+2 | vt=35514308",
    "delete applied: ok | kv_write=1 wu=2 stored=-1034 | vt=4426104",
    "delete applied, durable: ok | kv_write=1 wu=2 stored=-1034 | vt=4426104",
    "delete absent: ok | kv_write=1 wu=1 stored=+0 | vt=3425328",
    "delete refused: ConditionFailed | kv_write=1 wu=1 stored=+0 | vt=5920740",
    "delete dead disk: StorageFailed | kv_write=5 retry:kv.delete=4 wu=5 stored=+0 | vt=309930960",
    "delete throttled once: ok | fault:kv_throttle=1 kv_write=2 retry:kv.delete=1 wu=3 stored=-1034 | vt=32877759",
    "delete errs once: ok | fault:kv_error=1 kv_write=2 retry:kv.delete=1 wu=3 stored=-1034 | vt=32877759",
    "transact applied: ok | kv_transact=1 kv_transact_items=3 wu=12 stored=+3001 | vt=13557525",
    "transact applied, durable: ok | kv_transact=1 kv_transact_items=3 wu=12 stored=+3001 | vt=13557525",
    "transact refused: TransactionCancelled | kv_transact=1 kv_transact_items=4 wu=12 stored=+0 | vt=12638569",
    "transact dead disk: StorageFailed | kv_transact=5 kv_transact_items=20 retry:kv.transact=4 wu=60 stored=+0 | vt=344674219",
    "transact cancelled once: ok | fault:kv_cancel=1 kv_transact=2 kv_transact_items=7 retry:kv.transact=1 wu=24 stored=+3001 | vt=49782168",
];

#[test]
fn every_write_api_bills_and_charges_as_recorded() {
    let mut rows = Vec::new();
    for (name, setup, call) in cases() {
        let (kv, meter, _dev) = table(setup);
        let ctx = seeded_ctx();
        let before = meter.snapshot();
        let outcome = match call(&kv, &ctx) {
            Ok(()) => "ok".to_owned(),
            Err(e) => format!("{e:?}")
                .split([' ', '{', '('])
                .next()
                .unwrap()
                .to_owned(),
        };
        let row = format!(
            "{name}: {outcome} | {} | vt={}",
            bill(&before, &meter.snapshot()),
            ctx.now_ns()
        );
        println!("{row}");
        rows.push(row);
    }
    assert_eq!(rows, RECORDED);
}

/// A queue's chaos plan: every send-side fault point fires often.
fn chaotic(queue: &Queue) {
    let mut plan = FaultPlan::disabled();
    plan.queue_error = FaultSpec::new(0.3, 6);
    plan.queue_duplicate = FaultSpec::new(0.3, 6);
    plan.queue_delay = FaultSpec::new(0.3, 6);
    queue.install_chaos(Chaos::from_plan(plan).unwrap());
}

/// Everything the queue delivers: (seq, group, body, attempt).
fn drain(queue: &Queue) -> Vec<(u64, String, Bytes, u32)> {
    let mut out = Vec::new();
    while let Some(batch) = queue.receive_up_to(100, Duration::from_secs(60)) {
        for m in &batch.messages {
            out.push((m.seq, m.group.to_string(), m.body.clone(), m.attempt));
        }
        queue.ack(batch.receipt);
    }
    out
}

#[test]
fn a_send_is_a_batch_of_one() {
    let meters = [Meter::new(), Meter::new()];
    let queues = meters
        .clone()
        .map(|m| Queue::new("q", QueueKind::Fifo, Region::US_EAST_1, m));
    let ctxs = [seeded_ctx(), seeded_ctx()];
    for queue in &queues {
        chaotic(queue);
    }
    for i in 0..40 {
        let group = format!("g{}", i % 3);
        let body = Bytes::from(vec![i as u8; 100 * (i + 1)]);
        let one = queues[0].send(&ctxs[0], &group, body.clone());
        let batch = queues[1].send_batch(&ctxs[1], &group, vec![body]);
        assert_eq!(one, batch.map(|seqs| seqs[0]), "send {i}");
        assert_eq!(ctxs[0].now_ns(), ctxs[1].now_ns(), "send {i}");
    }
    let mut snapshots = meters.map(|m| m.snapshot());
    let retries = snapshots[1].per_op.remove("retry:queue.send_batch");
    assert_eq!(snapshots[0].per_op.remove("retry:queue.send"), retries);
    assert!(retries.is_some(), "the plan made a send retry");
    assert!(snapshots[0].per_op.contains_key("fault:queue_duplicate"));
    assert!(snapshots[0].per_op.contains_key("fault:queue_delay"));
    assert_eq!(snapshots[0], snapshots[1]);
    assert_eq!(drain(&queues[0]), drain(&queues[1]));
}
