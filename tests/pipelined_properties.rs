//! Z1 pipelined-FIFO property suite.
//!
//! FaaSKeeper's Z1 guarantee is defined over a *pipeline* of in-flight
//! requests per session. The handle-based client makes that pipeline
//! real, so these properties pin the observable contract:
//!
//! * **completion order = submission order**, per session, for writes —
//!   at every pipeline depth, across every shard-group geometry, no
//!   matter how the multi-leader tier interleaves result delivery;
//! * **txid order = submission order**, per session (Z2's client-visible
//!   face);
//! * the pending-op table **re-orders early arrivals** rather than
//!   completing out of order (exercised deterministically by injecting
//!   out-of-order results straight into the notification bus).

use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::distributor::DistributorConfig;
use fk_core::messages::{ClientNotification, OpOutcome, WriteResultData};
use fk_core::{CreateMode, Stat};
use fk_testkit::geometry;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One session's pipelined workload: `writes` set_datas to its own node
/// (zipf-ish mix over two paths), all in flight at once.
#[derive(Debug, Clone)]
struct SessionPlan {
    writes: usize,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// N in-flight submits per session, random shard-group counts:
    /// completions arrive in submission order with strictly increasing
    /// txids, per session.
    #[test]
    fn pipelined_writes_complete_in_submission_order(
        plans in proptest::collection::vec(
            (3usize..8).prop_map(|writes| SessionPlan { writes }),
            1..4,
        ),
        groups in geometry::pow2_groups(),
        shards in geometry::pow2_shards(),
    ) {
        let deployment = Deployment::start(
            DeploymentConfig::aws().with_distributor(
                DistributorConfig::new(shards, 16).with_groups(groups),
            ),
        );
        let completions: Arc<Mutex<Vec<(usize, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut clients = Vec::new();
        for (s, plan) in plans.iter().enumerate() {
            let client = deployment.connect(format!("pipe-{s}")).unwrap();
            // The node every write of this session targets.
            client
                .create(&format!("/pipe{s}"), b"seed", CreateMode::Persistent)
                .unwrap();
            let mut handles = Vec::new();
            // The pipeline: every write is in flight before any completes.
            for op in 0..plan.writes {
                // Alternate between the session's two paths so batches mix
                // conflicting (same-path) and independent requests — the
                // wave machinery must preserve order through both.
                let path = if op % 3 == 2 {
                    client
                        .create(&format!("/pipe{s}-alt{op}"), b"x", CreateMode::Persistent)
                        .map(|_| format!("/pipe{s}-alt{op}"))
                        .unwrap_or_else(|_| format!("/pipe{s}"));
                    format!("/pipe{s}-alt{op}")
                } else {
                    format!("/pipe{s}")
                };
                let handle = client
                    .submit_set_data(&path, format!("v{op}").as_bytes(), -1)
                    .unwrap();
                let log = Arc::clone(&completions);
                handle.on_complete(move |_| log.lock().unwrap().push((s, op)));
                handles.push(handle);
            }
            // Every write must succeed, and per-session txids must
            // strictly increase in submission order (Z2).
            let mut last_txid = 0u64;
            for handle in &handles {
                let stat = handle.wait_timeout(Duration::from_secs(20)).unwrap();
                prop_assert!(
                    stat.modified_txid > last_txid,
                    "session {s}: txid regressed ({} after {last_txid})",
                    stat.modified_txid
                );
                last_txid = stat.modified_txid;
            }
            clients.push(client);
        }
        // Z1 observable: per session, the completion log is exactly the
        // submission order.
        let log = completions.lock().unwrap().clone();
        for (s, plan) in plans.iter().enumerate() {
            let seen: Vec<usize> = log
                .iter()
                .filter(|(session, _)| *session == s)
                .map(|(_, op)| *op)
                .collect();
            prop_assert_eq!(
                &seen,
                &(0..plan.writes).collect::<Vec<_>>(),
                "session {} completed out of submission order (groups={}, shards={})",
                s, groups, shards
            );
        }
        for client in clients {
            let _ = client.close();
        }
        deployment.shutdown();
    }
}

/// The pending-op table's re-order buffer, exercised deterministically:
/// results injected out of submission order must complete in submission
/// order, and the reorder counter must record the early arrival.
#[test]
fn out_of_order_results_complete_in_submission_order() {
    // Direct deployment: no triggers run, so the submitted writes stay
    // unprocessed and the test fully controls result delivery.
    let deployment = Deployment::direct(DeploymentConfig::aws());
    let client = deployment.connect("reorder").unwrap();
    let ctx = fk_cloud::trace::Ctx::disabled();

    let order: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let h1 = client.submit_set_data("/a", b"1", -1).unwrap();
    let h2 = client.submit_set_data("/b", b"2", -1).unwrap();
    assert_eq!(client.in_flight(), 2);
    for (rid, handle) in [(1u64, &h1), (2u64, &h2)] {
        let log = Arc::clone(&order);
        handle.on_complete(move |_| log.lock().unwrap().push(rid));
    }

    let result_for = |rid: u64, txid: u64| ClientNotification::WriteResult {
        request_id: rid,
        result: Ok(WriteResultData {
            op_results: vec![OpOutcome::Set {
                path: format!("/n{rid}"),
                stat: Stat::default(),
            }],
        }),
        txid,
    };
    // Request 2's result arrives first: it must be buffered, not
    // completed.
    deployment.bus().notify(&ctx, "reorder", result_for(2, 20));
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while client.reordered_results() == 0 {
        assert!(std::time::Instant::now() < deadline, "arrival not observed");
        std::thread::yield_now();
    }
    assert!(!h2.is_done(), "successor buffered behind its predecessor");
    assert!(order.lock().unwrap().is_empty());

    // Request 1's result releases both, in submission order.
    deployment.bus().notify(&ctx, "reorder", result_for(1, 10));
    assert!(h1.wait_timeout(Duration::from_secs(5)).is_ok());
    assert!(h2.wait_timeout(Duration::from_secs(5)).is_ok());
    assert_eq!(
        order.lock().unwrap().as_slice(),
        &[1, 2],
        "Z1 completion order"
    );
    assert_eq!(client.reordered_results(), 1);
    assert_eq!(client.in_flight(), 0);
    // MRD advanced to the highest observed txid either way.
    assert_eq!(client.mrd(), 20);
    deployment.shutdown();
}

/// Reads may overtake in-flight writes (Z3 permits it): a submitted read
/// completes while a write sits unprocessed in the pipeline.
#[test]
fn reads_overtake_stalled_writes() {
    let deployment = Deployment::direct(DeploymentConfig::aws());
    let client = deployment.connect("overtake").unwrap();
    // The root exists in storage; a write to it sits unprocessed (no
    // follower runs in a direct deployment).
    let write = client.submit_set_data("/never", b"stuck", -1).unwrap();
    let read = client.submit_get_children("/", false).unwrap();
    let children = read.wait_timeout(Duration::from_secs(5)).unwrap();
    assert!(children.is_empty(), "fresh root has no children");
    assert!(
        !write.is_done(),
        "write still in flight while read finished"
    );
    deployment.shutdown();
}

/// A held leader lane waits in its trigger, not by re-invoking the
/// function: one session pipelines writes whose consecutive paths
/// alternate between the two shard groups, so every record's
/// predecessor is in the *other* lane. The acks must still arrive in
/// submission order with rising txids (Z1/Z2), and the leader tier may
/// not spin — a deferred batch is re-offered when some trigger made
/// progress (or the poll interval passed), which bounds invocations by
/// a small multiple of the writes.
#[test]
fn held_lane_waits_in_the_trigger_without_spinning_invocations() {
    use fk_core::deploy::fn_names;
    const WRITES: usize = 32;
    let deployment = Deployment::start(
        DeploymentConfig::aws().with_distributor(DistributorConfig::new(2, 16).with_groups(2)),
    );
    let client = deployment.connect("alternating").unwrap();
    let paths: Vec<String> = (0..2)
        .map(|group| {
            (0..64)
                .map(|i| format!("/lane{i}"))
                .find(|p| fk_cloud::queue::group_of(p, 2) == group)
                .expect("some path hashes to each group")
        })
        .collect();
    for path in &paths {
        client
            .create(path, b"seed", CreateMode::Persistent)
            .unwrap();
    }
    let leader_invocations = || -> u64 {
        (0..2)
            .map(|group| {
                let (cold, warm) = deployment
                    .runtime()
                    .start_counts(&fn_names::leader(group))
                    .unwrap();
                cold + warm
            })
            .sum()
    };
    let invocations_before = leader_invocations();

    let completions: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let handles: Vec<_> = (0..WRITES)
        .map(|op| {
            let handle = client
                .submit_set_data(&paths[op % 2], format!("v{op}").as_bytes(), -1)
                .unwrap();
            let log = Arc::clone(&completions);
            handle.on_complete(move |_| log.lock().unwrap().push(op));
            handle
        })
        .collect();
    let mut last_txid = 0u64;
    for (op, handle) in handles.iter().enumerate() {
        let stat = handle.wait_timeout(Duration::from_secs(20)).unwrap();
        assert!(
            stat.modified_txid > last_txid,
            "write {op}: txid regressed ({} after {last_txid})",
            stat.modified_txid
        );
        last_txid = stat.modified_txid;
    }
    assert_eq!(
        *completions.lock().unwrap(),
        (0..WRITES).collect::<Vec<_>>(),
        "acks in submission order"
    );
    let invocations = leader_invocations() - invocations_before;
    assert!(
        invocations <= 8 * WRITES as u64,
        "{invocations} leader invocations for {WRITES} writes: a held lane is spinning its trigger"
    );
    let _ = client.close();
    deployment.shutdown();
}
