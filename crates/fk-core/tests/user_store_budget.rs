//! The request and charge budget of every user-store call, per back-end.
//!
//! Each back-end runs one fixed sequence of calls on a seeded
//! virtual-time context. Every call's meter delta (object GETs, PUTs and
//! 412s, key-value read and write units, memory operations) and
//! virtual-clock delta is pinned to a constant: the benchmark's modeled
//! rows are sums of exactly these charges, so a refactor of the user
//! store that keeps this table keeps them.

use bytes::Bytes;
use fk_cloud::objectstore::Precondition;
use fk_cloud::trace::Ctx;
use fk_cloud::{LatencyMode, LatencyModel, Meter, Region};
use fk_core::{NodeRecord, UserStore};
use std::sync::Arc;

/// One call's cost: object GETs, PUTs and 412s, key-value read and
/// write units, memory operations, and virtual nanoseconds.
type Cost = (u64, u64, u64, f64, u64, u64, u64);

/// The calls, in the order each back-end runs them.
const CALLS: [&str; 8] = [
    "write_node",
    "read hit",
    "read miss",
    "read_tagged",
    "write_node_if match",
    "write_node_if 412",
    "scan_subtree",
    "delete_node",
];

fn node(path: &str, size: usize) -> NodeRecord {
    NodeRecord {
        path: path.to_owned(),
        data: Bytes::from(vec![7u8; size]),
        created_txid: 1,
        modified_txid: 2,
        version: 1,
        children: Arc::new(vec!["a".into(), "b".into()]),
        children_txid: 2,
        ephemeral_owner: None,
        epoch_marks: Arc::new(vec![42]),
    }
}

/// Runs [`CALLS`] on `store` and returns each call's cost. The subtree
/// `/t` holds three nodes of 64-byte payloads, so the hybrid that
/// offloads above 16 bytes keeps every frame in its object tier.
fn run(store: &dyn UserStore, meter: &Meter) -> Vec<Cost> {
    let ctx = Ctx::new(Arc::new(LatencyModel::aws()), LatencyMode::Virtual, 7);
    ctx.set_region(Region::US_EAST_1);
    store.write_node(&ctx, &node("/t/a", 64)).unwrap();
    store.write_node(&ctx, &node("/t/b", 64)).unwrap();
    let mut costs = Vec::new();
    let mut tag = 0;
    for call in CALLS {
        let (before, start) = (meter.snapshot(), ctx.now());
        match call {
            "write_node" => store.write_node(&ctx, &node("/t", 64)).unwrap(),
            "read hit" => assert!(store.read_node(&ctx, "/t").unwrap().is_some()),
            "read miss" => assert!(store.read_node(&ctx, "/missing").unwrap().is_none()),
            "read_tagged" => tag = store.read_tagged(&ctx, "/t").unwrap().unwrap().1,
            "write_node_if match" => {
                let precondition = Precondition::IfMatch(tag);
                store
                    .write_node_if(&ctx, &node("/t", 80), precondition)
                    .unwrap();
            }
            "write_node_if 412" => {
                let precondition = Precondition::IfMatch(tag);
                let lost = store.write_node_if(&ctx, &node("/t", 96), precondition);
                assert!(lost.unwrap_err().is_condition_failed());
            }
            "scan_subtree" => assert_eq!(store.scan_subtree(&ctx, "/t").unwrap().len(), 3),
            "delete_node" => store.delete_node(&ctx, "/t").unwrap(),
            _ => unreachable!(),
        }
        let used = meter.snapshot().since(&before);
        costs.push((
            used.obj_gets,
            used.obj_puts,
            used.per_op.get("obj_put_412").copied().unwrap_or(0),
            used.kv_read_units,
            used.kv_write_units,
            used.mem_ops,
            (ctx.now() - start).as_nanos() as u64,
        ));
    }
    costs
}

/// Each back-end's cost of each of [`CALLS`].
#[rustfmt::skip]
const BUDGET: [(&str, [Cost; CALLS.len()]); 6] = [
    (
        "object",
        [
            (0, 1, 0, 0.0, 0, 0, 23632428),
            (1, 0, 0, 0.0, 0, 0, 9173413),
            (1, 0, 0, 0.0, 0, 0, 10458535),
            (1, 0, 0, 0.0, 0, 0, 9098899),
            (0, 1, 0, 0.0, 0, 0, 28753008),
            (0, 1, 1, 0.0, 0, 0, 29747733),
            (4, 0, 0, 0.0, 0, 0, 89413497),
            (0, 0, 0, 0.0, 0, 0, 32629606),
        ],
    ),
    (
        "key-value",
        [
            (0, 0, 0, 0.0, 1, 0, 3375966),
            (0, 0, 0, 1.0, 0, 0, 2269098),
            (0, 0, 0, 1.0, 0, 0, 2488805),
            (0, 0, 0, 1.0, 0, 0, 2255917),
            (0, 0, 0, 0.0, 1, 0, 5954012),
            (0, 0, 0, 0.0, 1, 0, 6029363),
            (0, 0, 0, 2.0, 0, 0, 21832908),
            (0, 0, 0, 0.0, 1, 0, 3445512),
        ],
    ),
    (
        "hybrid",
        [
            (0, 0, 0, 0.0, 1, 0, 3375966),
            (0, 0, 0, 1.0, 0, 0, 2269098),
            (0, 0, 0, 1.0, 0, 0, 2488805),
            (0, 0, 0, 1.0, 0, 0, 2255917),
            (0, 0, 0, 0.0, 1, 0, 5954012),
            (0, 0, 0, 0.0, 1, 0, 6029363),
            (0, 0, 0, 2.0, 0, 0, 21832908),
            (0, 0, 0, 0.0, 1, 0, 3445512),
        ],
    ),
    (
        "hybrid-16",
        [
            (0, 1, 0, 0.0, 1, 0, 40189630),
            (1, 0, 0, 1.0, 0, 0, 11375561),
            (0, 0, 0, 1.0, 0, 0, 17927260),
            (1, 0, 0, 1.0, 0, 0, 10458367),
            (0, 1, 0, 0.0, 1, 0, 48272054),
            (0, 1, 0, 0.0, 1, 0, 80125602),
            (3, 0, 0, 2.0, 0, 0, 32717015),
            (0, 0, 0, 0.0, 1, 0, 27039495),
        ],
    ),
    (
        "memory",
        [
            (0, 0, 0, 0.0, 0, 1, 456822),
            (0, 0, 0, 0.0, 0, 1, 467160),
            (0, 0, 0, 0.0, 0, 1, 521792),
            (0, 0, 0, 0.0, 0, 1, 463905),
            (0, 0, 0, 0.0, 0, 1, 508615),
            (0, 0, 0, 0.0, 0, 1, 518357),
            (0, 0, 0, 0.0, 0, 2, 1000097),
            (0, 0, 0, 0.0, 0, 1, 603153),
        ],
    ),
    (
        "durable",
        [
            (0, 0, 0, 0.0, 0, 1, 456822),
            (0, 0, 0, 0.0, 0, 1, 467160),
            (0, 0, 0, 0.0, 0, 1, 521792),
            (0, 0, 0, 0.0, 0, 1, 463905),
            (0, 0, 0, 0.0, 0, 1, 508615),
            (0, 0, 0, 0.0, 0, 1, 518357),
            (0, 0, 0, 0.0, 0, 1, 570750),
            (0, 0, 0, 0.0, 0, 1, 477739),
        ],
    ),
];

#[test]
fn every_call_keeps_its_request_and_charge_budget() {
    let meter = Meter::new();
    let stores = fk_testkit::user_stores(&meter);
    assert_eq!(stores.len(), BUDGET.len());
    for ((name, store), (budgeted, budget)) in stores.into_iter().zip(BUDGET) {
        assert_eq!(name, budgeted);
        let costs = run(store.as_ref(), &meter);
        for ((call, cost), want) in CALLS.iter().zip(&costs).zip(&budget) {
            println!("{name:>9} {call:<20} {cost:?}");
            assert_eq!(cost, want, "{name}: {call}");
        }
    }
}
