//! Chaos property suite: the paper's consistency guarantees (§3.2) under
//! a hostile cloud.
//!
//! Every test here drives a *live* deployment (client → write queue →
//! follower functions → leader queue → leader → user stores →
//! notifications, on real threads) with a seeded [`FaultPlan`] installed:
//! KV writes fail and throttle, transactions get cancelled, queue sends
//! fail, messages duplicate and lag, function sandboxes crash before and
//! after their side effects. The properties checked:
//!
//! * **No lost acknowledged writes** — every write the client API
//!   returned `Ok` for is present in the final tree with the exact data
//!   and version the acknowledgement promised.
//! * **Z1/Z2 (ordered, atomic writes)** — per-node versions count every
//!   committed write exactly once, in session order; a `multi` lands
//!   all-or-nothing even when the sandbox crashes mid-flight.
//! * **Z3 (reads may overtake, never regress)** — concurrent readers
//!   observe monotonically non-decreasing `modified_txid`s throughout
//!   the fault schedule.
//! * **Z4 (epoch-gated watches)** — armed one-shot watches fire exactly
//!   once despite crashes and duplicated deliveries.
//! * **Convergence** — the surviving tree is identical (data, versions,
//!   children, ephemeral owners) to a fault-free twin running the same
//!   workload on the same geometry. Transaction ids are excluded from
//!   the comparison: a crash redelivery legitimately re-allocates them
//!   (abandoned txids are documented orphans), which is invisible to the
//!   ZooKeeper API surface the guarantee is stated over.
//! * **Bounded amplification** — every retry is accounted to an injected
//!   fault (`retries ≤ faults_injected`) and both dead-letter queues
//!   drain empty.
//!
//! Each seed names its schedule: a failing run prints
//! `chaos seed 0x…` and the same seed + geometry replays the same fault
//! decisions (see `docs/fault_tolerance.md` for the replay how-to).

use fk_cloud::{FaultPlan, FaultSpec};
use fk_core::api::CreateMode;
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::{DistributorConfig, Op, ReplicaConfig};
use std::collections::BTreeMap;
use std::time::Duration;

const SESSIONS: usize = 4;
const NODES_PER_SESSION: usize = 2;
const SETS_PER_NODE: usize = 3;

/// The eight fixed fault schedules the suite replays. Chosen so the
/// derived geometries cover single- and multi-group tiers, 2–4 shards,
/// and deployments with and without a replica tier.
const SEEDS: [u64; 8] = [0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88];

/// Deterministic deployment geometry for a seed: leader-tier width,
/// distributor shards and replica count all derive from it, so one seed
/// names both the fault schedule and the topology it ran on.
fn geometry(seed: u64) -> (DeploymentConfig, String) {
    let groups = 1 + (seed % 3) as usize;
    let shards = 2 + ((seed / 4) % 3) as usize;
    let replicas = ((seed / 16) % 2) as usize;
    let mut config = DeploymentConfig::aws()
        .with_distributor(DistributorConfig::new(shards, 16))
        .with_shard_groups(groups);
    if replicas > 0 {
        config = config.with_replicas(ReplicaConfig::with_count(replicas));
    }
    let describe = format!("groups={groups} shards={shards} replicas={replicas}");
    (config, describe)
}

/// What the workload was *acknowledged*: path → (final data, version).
struct Acked {
    expect: BTreeMap<String, (Vec<u8>, i64)>,
}

/// Runs the deterministic multi-session workload: parallel subtree
/// creates, a `multi` per session, armed watches, parallel sets with a
/// concurrent monotone reader, and session closes. Panics on any
/// unacknowledged write — under the bounded standard plan every
/// operation must eventually succeed through the retry layer.
fn run_workload(fk: &Deployment) -> Acked {
    let root = fk.connect("chaos-root").expect("connect root");
    root.create("/chaos", b"", CreateMode::Persistent)
        .expect("create root");
    let mut expect = BTreeMap::new();
    expect.insert("/chaos".to_owned(), (Vec::new(), 0));

    // Phase A: each session creates its subtree (distinct paths, safely
    // parallel) and lands one atomic multi.
    let mut sessions: Vec<_> = (0..SESSIONS)
        .map(|s| fk.connect(format!("chaos-s{s}")).expect("connect"))
        .collect();
    let mut handles = Vec::new();
    for (s, client) in sessions.drain(..).enumerate() {
        handles.push(std::thread::spawn(move || {
            let mut expect = BTreeMap::new();
            let base = format!("/chaos/s{s}");
            client
                .create(&base, b"base", CreateMode::Persistent)
                .expect("create base");
            expect.insert(base.clone(), (b"base".to_vec(), 0));
            for n in 0..NODES_PER_SESSION {
                let path = format!("{base}/n{n}");
                client
                    .create(&path, b"v0", CreateMode::Persistent)
                    .expect("create node");
                expect.insert(path, (b"v0".to_vec(), 0));
            }
            // One atomic multi: a new sibling plus a set on the subtree
            // root, committed under one txid or not at all.
            let mpath = format!("{base}/multi");
            client
                .multi(vec![
                    Op::Create {
                        path: mpath.clone(),
                        data: b"m0".to_vec(),
                        mode: CreateMode::Persistent,
                    },
                    Op::SetData {
                        path: base.clone(),
                        data: b"mset".to_vec(),
                        expected_version: -1,
                    },
                ])
                .expect("multi");
            expect.insert(mpath, (b"m0".to_vec(), 0));
            expect.insert(base, (b"mset".to_vec(), 1));
            (client, expect)
        }));
    }
    let mut clients = Vec::new();
    for handle in handles {
        let (client, partial) = handle.join().expect("phase A session");
        expect.extend(partial);
        clients.push(client);
    }

    // Z4: arm a one-shot data watch on every session's n0.
    let watcher = fk.connect("chaos-watcher").expect("connect watcher");
    for s in 0..SESSIONS {
        watcher
            .get_data(&format!("/chaos/s{s}/n0"), true)
            .expect("arm watch");
    }

    // Z3: a concurrent reader must never observe a regressing txid on
    // the hot node while the fault schedule plays out.
    let reader = fk.connect("chaos-reader").expect("connect reader");
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop_reader = std::sync::Arc::clone(&stop);
    let read_thread = std::thread::spawn(move || {
        let mut last = 0;
        while !stop_reader.load(std::sync::atomic::Ordering::Relaxed) {
            let (_, stat) = reader.get_data("/chaos/s0/n0", false).expect("read");
            assert!(
                stat.modified_txid >= last,
                "Z3 violated: txid regressed {} < {last}",
                stat.modified_txid
            );
            last = stat.modified_txid;
        }
    });

    // Phase B: parallel sets; the acknowledged final value/version per
    // node is fully determined by the per-session program.
    let mut handles = Vec::new();
    for (s, client) in clients.drain(..).enumerate() {
        handles.push(std::thread::spawn(move || {
            let mut expect = BTreeMap::new();
            for n in 0..NODES_PER_SESSION {
                let path = format!("/chaos/s{s}/n{n}");
                let mut last = Vec::new();
                for v in 1..=SETS_PER_NODE {
                    let value = format!("s{s}n{n}v{v}").into_bytes();
                    client.set_data(&path, &value, -1).expect("set_data");
                    last = value;
                }
                expect.insert(path, (last, SETS_PER_NODE as i64));
            }
            client.close().expect("close");
            expect
        }));
    }
    for handle in handles {
        expect.extend(handle.join().expect("phase B session"));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    read_thread.join().expect("reader");

    // Every armed watch fires exactly once (one-shot), despite crashes
    // and duplicated deliveries along the dispatch path.
    let mut events = Vec::new();
    while let Ok(event) = watcher.watch_events().recv_timeout(Duration::from_secs(5)) {
        events.push(event.path.clone());
        if events.len() == SESSIONS {
            break;
        }
    }
    assert_eq!(
        events.len(),
        SESSIONS,
        "every armed watch fired: {events:?}"
    );
    assert!(
        watcher
            .watch_events()
            .recv_timeout(Duration::from_millis(200))
            .is_err(),
        "one-shot watches must not fire twice"
    );

    Acked { expect }
}

/// Reads one node through the deployment's user store, absorbing any
/// still-armed chaos on the read path.
fn read_node_retry(fk: &Deployment, path: &str) -> Option<fk_core::NodeRecord> {
    let ctx = fk.client_ctx();
    for _ in 0..50 {
        match fk.user_store().read_node(&ctx, path) {
            Ok(record) => return record,
            Err(_) => continue,
        }
    }
    panic!("read of {path} failed 50 times");
}

/// Fingerprints the tree over `paths`: data, version, sorted children
/// and ephemeral owner per node — the ZooKeeper-visible state. With
/// `include_txids` the (deployment-deterministic) transaction ids join
/// the fingerprint, which only byte-identity tests assert.
fn fingerprint(fk: &Deployment, paths: &[String], include_txids: bool) -> BTreeMap<String, String> {
    paths
        .iter()
        .map(|path| {
            let desc = match read_node_retry(fk, path) {
                None => "absent".to_owned(),
                Some(record) => {
                    let mut children = (*record.children).clone();
                    children.sort();
                    let mut desc = format!(
                        "data={:?} v={} children={:?} eph={:?}",
                        record.data, record.version, children, record.ephemeral_owner
                    );
                    if include_txids {
                        desc.push_str(&format!(
                            " ctxid={} mtxid={}",
                            record.created_txid, record.modified_txid
                        ));
                    }
                    desc
                }
            };
            (path.clone(), desc)
        })
        .collect()
}

/// Checks every acknowledged write against the final tree.
fn assert_no_lost_acks(fk: &Deployment, acked: &Acked) {
    for (path, (data, version)) in &acked.expect {
        let record =
            read_node_retry(fk, path).unwrap_or_else(|| panic!("acknowledged node {path} lost"));
        assert_eq!(
            record.data.as_ref(),
            &data[..],
            "acknowledged data lost on {path}"
        );
        assert_eq!(
            i64::from(record.version),
            *version,
            "acknowledged version lost on {path}"
        );
    }
}

/// Z1–Z4, no lost acknowledged writes, convergence with the fault-free
/// twin, bounded retry amplification and drained DLQs — across eight
/// seeded fault schedules on eight derived geometries.
#[test]
fn z_guarantees_survive_standard_chaos_across_seeds() {
    let mut tag_races = 0;
    for seed in SEEDS {
        let (config, describe) = geometry(seed);
        println!("chaos seed {seed:#x}: plan=standard {describe}");

        let fk = Deployment::start(config.clone().with_chaos(FaultPlan::standard(seed)));
        let acked = run_workload(&fk);
        assert_no_lost_acks(&fk, &acked);
        let chaos = fk.chaos().expect("engine installed").clone();
        let snapshot = fk.meter().snapshot();
        assert!(
            chaos.total_fired() > 0,
            "seed {seed:#x}: schedule never fired — the run proved nothing"
        );
        let races = chaos.fired(fk_cloud::FaultKind::ObjTagRace);
        println!("chaos seed {seed:#x}: {races} tag races");
        tag_races += races;
        assert!(
            snapshot.retries <= snapshot.faults_injected,
            "seed {seed:#x}: retry amplification {} exceeds injected faults {}",
            snapshot.retries,
            snapshot.faults_injected
        );
        assert!(
            fk.write_queue().drain_dead_letters().is_empty(),
            "seed {seed:#x}: write-queue DLQ not empty"
        );
        assert!(
            fk.leader_queues().drain_dead_letters().is_empty(),
            "seed {seed:#x}: leader-queue DLQ not empty"
        );
        let violations = fk_core::consistency::check_tree_integrity(
            &fk.client_ctx(),
            fk.system(),
            fk.user_store().as_ref(),
        );
        assert!(violations.is_empty(), "seed {seed:#x}: {violations:#?}");
        let paths: Vec<String> = acked.expect.keys().cloned().collect();
        let chaotic_tree = fingerprint(&fk, &paths, false);
        fk.shutdown();

        // The fault-free twin: same geometry, same workload, no chaos.
        let twin = Deployment::start(config);
        let twin_acked = run_workload(&twin);
        let twin_tree = fingerprint(&twin, &paths, false);
        assert_eq!(
            chaotic_tree, twin_tree,
            "seed {seed:#x}: chaotic tree diverged from fault-free twin"
        );
        assert_eq!(acked.expect, twin_acked.expect);
        twin.shutdown();
    }
    // Each race fails a conditional write, whose retry re-reads the
    // record: the suite must have taken that path.
    assert!(tag_races > 0, "obj_tag_race never fired");
}

/// A `FaultPlan::disabled()` deployment must be byte-identical to one
/// that never heard of chaos: no engine installed, no retries, no fault
/// meters, and the exact same tree *including* transaction ids.
#[test]
fn disabled_chaos_is_byte_identical_to_untouched_deployment() {
    fn sequential_workload(fk: &Deployment) -> Vec<String> {
        let client = fk.connect("solo").expect("connect");
        client
            .create("/solo", b"", CreateMode::Persistent)
            .expect("create root");
        let mut paths = vec!["/solo".to_owned()];
        for n in 0..3 {
            let path = format!("/solo/n{n}");
            client
                .create(&path, b"v0", CreateMode::Persistent)
                .expect("create");
            for v in 1..=2 {
                client
                    .set_data(&path, format!("v{v}").as_bytes(), -1)
                    .expect("set");
            }
            paths.push(path);
        }
        client
            .multi(vec![
                Op::Create {
                    path: "/solo/m".to_owned(),
                    data: b"m0".to_vec(),
                    mode: CreateMode::Persistent,
                },
                Op::SetData {
                    path: "/solo/n0".to_owned(),
                    data: b"vm".to_vec(),
                    expected_version: -1,
                },
            ])
            .expect("multi");
        paths.push("/solo/m".to_owned());
        client.delete("/solo/n2", -1).expect("delete");
        client.close().expect("close");
        paths
    }

    let configured = Deployment::start(DeploymentConfig::aws().with_chaos(FaultPlan::disabled()));
    assert!(
        configured.chaos().is_none(),
        "disabled plan installs nothing"
    );
    let paths = sequential_workload(&configured);
    let configured_tree = fingerprint(&configured, &paths, true);
    let configured_meter = configured.meter().snapshot();
    configured.shutdown();

    let untouched = Deployment::start(DeploymentConfig::aws());
    let untouched_paths = sequential_workload(&untouched);
    let untouched_tree = fingerprint(&untouched, &untouched_paths, true);
    let untouched_meter = untouched.meter().snapshot();
    untouched.shutdown();

    assert_eq!(paths, untouched_paths);
    assert_eq!(
        configured_tree, untouched_tree,
        "trees (txids included) must match byte for byte"
    );
    for snapshot in [&configured_meter, &untouched_meter] {
        assert_eq!(snapshot.retries, 0);
        assert_eq!(snapshot.faults_injected, 0);
        assert_eq!(snapshot.queue_dead_letters, 0);
        assert!(
            !snapshot
                .per_op
                .keys()
                .any(|k| k.starts_with("retry:") || k.starts_with("fault:")),
            "no chaos bookkeeping may appear in a disabled run"
        );
    }
}

/// Sandbox crashes around a `multi`: invocations crash *before* any work
/// (redelivery must retry them) and *after* their side effects landed
/// (redelivery must deduplicate them). The multi stays atomic and
/// exactly-once either way.
#[test]
fn crash_mid_multi_preserves_atomicity() {
    let mut plan = FaultPlan::disabled();
    plan.seed = 0xC4A5;
    plan.fn_crash_before = FaultSpec::new(1.0, 2);
    plan.fn_crash_after = FaultSpec::new(1.0, 2);
    println!("chaos seed {:#x}: plan=crash-mid-multi", plan.seed);

    let fk = Deployment::start(DeploymentConfig::aws().with_chaos(plan));
    let client = fk.connect("crash").expect("connect");
    client
        .create("/atomic", b"", CreateMode::Persistent)
        .expect("create root");
    client
        .create("/atomic/guard", b"g", CreateMode::Persistent)
        .expect("create guard");
    let results = client
        .multi(vec![
            Op::Check {
                path: "/atomic/guard".to_owned(),
                expected_version: 0,
            },
            Op::Create {
                path: "/atomic/pair-a".to_owned(),
                data: b"a".to_vec(),
                mode: CreateMode::Persistent,
            },
            Op::Create {
                path: "/atomic/pair-b".to_owned(),
                data: b"b".to_vec(),
                mode: CreateMode::Persistent,
            },
        ])
        .expect("multi commits despite crashes");
    assert_eq!(results.len(), 3);

    // Exactly-once: both siblings exist at version 0 (a replayed commit
    // would have bumped versions or duplicated children entries).
    let a = read_node_retry(&fk, "/atomic/pair-a").expect("pair-a");
    let b = read_node_retry(&fk, "/atomic/pair-b").expect("pair-b");
    assert_eq!((a.data.as_ref(), a.version), (b"a".as_slice(), 0));
    assert_eq!((b.data.as_ref(), b.version), (b"b".as_slice(), 0));
    let root = read_node_retry(&fk, "/atomic").expect("root");
    let mut children = (*root.children).clone();
    children.sort();
    assert_eq!(children, vec!["guard", "pair-a", "pair-b"]);
    let chaos = fk.chaos().expect("engine installed");
    assert!(chaos.total_fired() > 0, "crash schedule never fired");
    assert!(fk.write_queue().drain_dead_letters().is_empty());
    assert!(fk.leader_queues().drain_dead_letters().is_empty());
    fk.shutdown();
}

/// Every queue send duplicated (at-least-once delivery at 100%): the
/// follower deduplicates redelivered client requests, the leader
/// deduplicates replayed commit records ("already processed"), and the
/// final tree matches a duplicate-free twin exactly.
#[test]
fn duplicated_deliveries_are_absorbed_end_to_end() {
    let mut plan = FaultPlan::disabled();
    plan.seed = 0xD0B1;
    plan.queue_duplicate = FaultSpec::new(1.0, 1000);
    println!("chaos seed {:#x}: plan=duplicate-everything", plan.seed);
    let config = DeploymentConfig::aws()
        .with_distributor(DistributorConfig::new(2, 16))
        .with_shard_groups(2);

    let fk = Deployment::start(config.clone().with_chaos(plan));
    let acked = run_workload(&fk);
    assert_no_lost_acks(&fk, &acked);
    let chaos = fk.chaos().expect("engine installed");
    assert!(
        chaos.fired(fk_cloud::FaultKind::QueueDuplicate) > 0,
        "duplication never fired"
    );
    assert!(fk.write_queue().drain_dead_letters().is_empty());
    assert!(fk.leader_queues().drain_dead_letters().is_empty());
    let paths: Vec<String> = acked.expect.keys().cloned().collect();
    let chaotic_tree = fingerprint(&fk, &paths, false);
    fk.shutdown();

    let twin = Deployment::start(config);
    run_workload(&twin);
    let twin_tree = fingerprint(&twin, &paths, false);
    assert_eq!(
        chaotic_tree, twin_tree,
        "duplicated deliveries changed the tree"
    );
    twin.shutdown();
}
