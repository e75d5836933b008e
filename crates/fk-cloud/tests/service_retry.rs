//! Every operation that can fail transiently retries inside its service,
//! at exactly one level, under the one policy of `fk_cloud::retry`
//! (5 attempts), metered as `retry:<service>.<op>`:
//!
//! * one injected fault costs one retry and the call succeeds (the
//!   key-value table's single-item writes at both of their fault
//!   points, `kv_throttle` and `kv_error`);
//! * five faults exhaust the budget: the error surfaces after exactly 4
//!   retries and the stored state is unchanged;
//! * a failed condition, a cancelled transaction or a 412 is never
//!   retried.

use bytes::Bytes;
use fk_cloud::kvstore::TransactOp;
use fk_cloud::objectstore::{Precondition, Tag};
use fk_cloud::{
    Chaos, CloudError, CloudResult, Condition, Ctx, FaultPlan, FaultSpec, Item, KvStore, Meter,
    ObjectStore, Queue, QueueKind, Region, Update,
};

/// One table, one bucket and one queue on one meter, holding the key
/// `k` (`v` = 1) and the object `o` (`a`, tagged `tag`).
struct Services {
    kv: KvStore,
    os: ObjectStore,
    queue: Queue,
    meter: Meter,
    tag: Tag,
}

impl Services {
    fn seeded() -> Services {
        let (meter, ctx) = (Meter::new(), Ctx::disabled());
        let kv = KvStore::new("t", Region::US_EAST_1, meter.clone());
        let os = ObjectStore::new("b", Region::US_EAST_1, meter.clone());
        let queue = Queue::new("q", QueueKind::Fifo, Region::US_EAST_1, meter.clone());
        kv.put(&ctx, "k", Item::new().with("v", 1i64), Condition::Always)
            .unwrap();
        let tag = os.put(&ctx, "o", Bytes::from_static(b"a")).unwrap();
        Services {
            kv,
            os,
            queue,
            meter,
            tag,
        }
    }

    /// Everything the services store, in one comparable string.
    fn state(&self) -> String {
        let ctx = Ctx::disabled();
        let objects: Vec<(String, Bytes)> = self.os.get_prefix(&ctx, "").unwrap();
        let items = self.kv.scan_prefix(&ctx, "");
        format!("{items:?} {objects:?} {}", self.queue.pending())
    }

    fn install(&self, plan: FaultPlan) {
        let chaos = Chaos::from_plan(plan).expect("one fault point armed");
        self.kv.install_chaos(chaos.clone());
        self.os.install_chaos(chaos.clone());
        self.queue.install_chaos(chaos);
    }
}

/// A wrapped operation: its retry label, the fault point that fails it,
/// and the call.
struct Case {
    label: &'static str,
    fault: &'static str,
    arm: fn(&mut FaultPlan, FaultSpec),
    call: fn(&Services, &Ctx) -> CloudResult<()>,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            label: "kv.put",
            fault: "kv_error",
            arm: |plan, spec| plan.kv_error = spec,
            call: |s, ctx| {
                let item = Item::new().with("v", 2i64);
                s.kv.put(ctx, "k", item, Condition::Always).map(drop)
            },
        },
        Case {
            label: "kv.update",
            fault: "kv_error",
            arm: |plan, spec| plan.kv_error = spec,
            call: |s, ctx| {
                let update = Update::new().add("v", 1);
                s.kv.update(ctx, "k", &update, Condition::Always).map(drop)
            },
        },
        Case {
            label: "kv.delete",
            fault: "kv_error",
            arm: |plan, spec| plan.kv_error = spec,
            call: |s, ctx| s.kv.delete(ctx, "k", Condition::Always).map(drop),
        },
        Case {
            label: "kv.put",
            fault: "kv_throttle",
            arm: |plan, spec| plan.kv_throttle = spec,
            call: |s, ctx| {
                let item = Item::new().with("v", 2i64);
                s.kv.put(ctx, "k", item, Condition::Always).map(drop)
            },
        },
        Case {
            label: "kv.update",
            fault: "kv_throttle",
            arm: |plan, spec| plan.kv_throttle = spec,
            call: |s, ctx| {
                let update = Update::new().add("v", 1);
                s.kv.update(ctx, "k", &update, Condition::Always).map(drop)
            },
        },
        Case {
            label: "kv.delete",
            fault: "kv_throttle",
            arm: |plan, spec| plan.kv_throttle = spec,
            call: |s, ctx| s.kv.delete(ctx, "k", Condition::Always).map(drop),
        },
        Case {
            label: "kv.transact",
            fault: "kv_cancel",
            arm: |plan, spec| plan.kv_cancel = spec,
            call: |s, ctx| {
                let put = TransactOp::Put {
                    key: "k2".into(),
                    item: Item::new().with("v", 3i64),
                    condition: Condition::ItemNotExists,
                };
                let update = TransactOp::Update {
                    key: "k".into(),
                    update: Update::new().add("v", 1),
                    condition: Condition::ItemExists,
                };
                s.kv.transact(ctx, &[put, update])
            },
        },
        Case {
            label: "obj.put",
            fault: "obj_error",
            arm: |plan, spec| plan.obj_error = spec,
            call: |s, ctx| s.os.put(ctx, "o", Bytes::from_static(b"b")).map(drop),
        },
        Case {
            label: "obj.put",
            fault: "obj_error",
            arm: |plan, spec| plan.obj_error = spec,
            call: |s, ctx| {
                let data = Bytes::from_static(b"b");
                s.os.put_if(ctx, "o", data, Precondition::IfMatch(s.tag))
                    .map(drop)
            },
        },
        Case {
            label: "obj.get",
            fault: "obj_error",
            arm: |plan, spec| plan.obj_error = spec,
            call: |s, ctx| s.os.get(ctx, "o").map(drop),
        },
        Case {
            label: "obj.delete",
            fault: "obj_error",
            arm: |plan, spec| plan.obj_error = spec,
            call: |s, ctx| s.os.delete(ctx, "o"),
        },
        Case {
            label: "obj.get_prefix",
            fault: "obj_error",
            arm: |plan, spec| plan.obj_error = spec,
            call: |s, ctx| s.os.get_prefix(ctx, "").map(drop),
        },
        Case {
            label: "queue.send",
            fault: "queue_error",
            arm: |plan, spec| plan.queue_error = spec,
            call: |s, ctx| s.queue.send(ctx, "g", Bytes::from_static(b"m")).map(drop),
        },
        Case {
            label: "queue.send_batch",
            fault: "queue_error",
            arm: |plan, spec| plan.queue_error = spec,
            call: |s, ctx| {
                let bodies = vec![Bytes::from_static(b"m1"), Bytes::from_static(b"m2")];
                s.queue.send_batch(ctx, "g", bodies).map(drop)
            },
        },
    ]
}

/// Runs `case` on fresh services under `budget` faults at its fault
/// point: the outcome, the services, and the retries and faults the
/// call cost by label.
fn run(case: &Case, budget: u64) -> (CloudResult<()>, Services, u64, u64) {
    let services = Services::seeded();
    let mut plan = FaultPlan::disabled();
    (case.arm)(&mut plan, FaultSpec::new(1.0, budget));
    services.install(plan);
    let outcome = (case.call)(&services, &Ctx::disabled());
    let counts = services.meter.snapshot().per_op;
    let count = |label: String| counts.get(&label).copied().unwrap_or(0);
    let retries = count(format!("retry:{}", case.label));
    let faults = count(format!("fault:{}", case.fault));
    (outcome, services, retries, faults)
}

#[test]
fn one_fault_costs_one_retry_and_the_call_succeeds() {
    for case in cases() {
        let (outcome, services, retries, faults) = run(&case, 1);
        assert!(outcome.is_ok(), "{}: {outcome:?}", case.label);
        assert_eq!((faults, retries), (1, 1), "{}", case.label);
        assert_eq!(services.meter.snapshot().retries, 1, "{}", case.label);
    }
}

#[test]
fn five_faults_surface_after_four_retries_and_change_nothing() {
    for case in cases() {
        let untouched = Services::seeded().state();
        let (outcome, services, retries, faults) = run(&case, 5);
        let err = outcome.expect_err(case.label);
        assert!(err.is_retryable(), "{}: {err}", case.label);
        assert_eq!((faults, retries), (5, 4), "{}", case.label);
        assert_eq!(services.state(), untouched, "{}", case.label);
    }
}

#[test]
fn failed_conditions_cancellations_and_412s_are_never_retried() {
    let services = Services::seeded();
    let ctx = Ctx::disabled();
    let refused = || Condition::eq("v", 9i64);
    let check = TransactOp::Check {
        key: "k".into(),
        condition: refused(),
    };
    let stale = Precondition::IfMatch(services.tag + 1);
    let data = Bytes::from_static(b"b");
    let (kv, os) = (&services.kv, &services.os);
    let condition_failures = [
        kv.put(&ctx, "k", Item::new(), Condition::ItemNotExists)
            .map(drop),
        kv.update(&ctx, "k", &Update::new().add("v", 1), refused())
            .map(drop),
        kv.delete(&ctx, "k", refused()).map(drop),
        os.put_if(&ctx, "o", data, stale).map(drop),
    ];
    for outcome in condition_failures {
        let err = outcome.unwrap_err();
        assert!(err.is_condition_failed(), "{err}");
    }
    let cancelled = kv.transact(&ctx, &[check]).unwrap_err();
    assert!(
        matches!(cancelled, CloudError::TransactionCancelled { .. }),
        "{cancelled}"
    );
    let used = services.meter.snapshot();
    assert_eq!((used.retries, used.per_op["obj_put_412"]), (0, 1));
}

/// A single-item write rolls the throttle before the injected error:
/// with both armed to fire on every attempt, every attempt is throttled.
#[test]
fn a_write_rolls_the_throttle_first() {
    for case in cases().iter().filter(|c| c.fault == "kv_throttle") {
        let services = Services::seeded();
        let mut plan = FaultPlan::disabled();
        plan.kv_throttle = FaultSpec::new(1.0, 5);
        plan.kv_error = FaultSpec::new(1.0, 5);
        services.install(plan);
        let err = (case.call)(&services, &Ctx::disabled()).unwrap_err();
        assert!(
            matches!(err, CloudError::Throttled),
            "{}: {err}",
            case.label
        );
        let counts = services.meter.snapshot().per_op;
        assert_eq!(counts["fault:kv_throttle"], 5, "{}", case.label);
        assert!(!counts.contains_key("fault:kv_error"), "{}", case.label);
    }
}
