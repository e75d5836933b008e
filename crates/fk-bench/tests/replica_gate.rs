//! Acceptance gate for the shared regional read-replica tier: a
//! 64-session fleet on a zipf read mix must hit backing storage at
//! least 5× less often reading through the replica than with
//! per-session caches alone (the tier absorbs the fleet's cold misses
//! once per unique path instead of once per session × path), replica
//! hits are metered but never billed, and a deployment whose tier is
//! *disabled* behaves byte-identically to one that never had the knob.
//! An `exists` on an absent child of a resident parent is proven absent
//! by the replica with no storage GET, and waits, like any read, for the
//! session's own watch deliveries its proof is marked with (Z4). A
//! watch-arming `get_data` of a resident node is served by the replica
//! after one read of the node's item, with no storage GET, and answers
//! the last acknowledged version even from a lagging replica.

use fk_bench::replica_bench::{compare_replica_reads, run_replica_reads, ReplicaRunConfig};
use fk_cloud::trace::{Ctx, LatencyMode};
use fk_cloud::Region;
use fk_core::api::{WatchEvent, WatchEventType};
use fk_core::codec::encode_node;
use fk_core::consistency::{HEvent, HistoryRecorder};
use fk_core::deploy::{Deployment, DeploymentConfig, Provider};
use fk_core::messages::ClientNotification;
use fk_core::read_cache::ReadCacheConfig;
use fk_core::replica::{EpochDelta, ReplicaConfig, ReplicaOp, ReplicaSet};
use fk_core::user_store::NodeRecord;
use fk_core::{ClientConfig, CreateMode};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replay stamp for failure messages, in the `chaos soak seed 0x…`
/// idiom: the printed seed + geometry reproduce the exact run.
fn stamp(config: &ReplicaRunConfig) -> String {
    format!(
        "replica gate seed {:#x} sessions {} reads {} nodes {} theta {} store {:?} provider {:?}",
        config.seed,
        config.sessions,
        config.reads_per_session,
        config.nodes,
        config.theta,
        config.store,
        config.provider
    )
}

#[test]
fn replica_tier_cuts_fleet_storage_round_trips_5x_on_zipf_workload() {
    let base = ReplicaRunConfig::standard(ReplicaConfig::with_count(1));
    let (caches_only, replicated, trips, speedup) = compare_replica_reads(&base);
    println!(
        "aws: caches-alone {} trips / replicated {} trips = {trips:.1}x; \
         {} replica hits; {:?} vs {:?} = {speedup:.1}x",
        caches_only.storage_round_trips,
        replicated.storage_round_trips,
        replicated.replica_hits,
        caches_only.virtual_time,
        replicated.virtual_time,
    );
    assert!(
        trips >= 5.0,
        "{}: expected ≥5x fewer round trips: caches-alone {} vs replicated {} ({trips:.1}x)",
        stamp(&base),
        caches_only.storage_round_trips,
        replicated.storage_round_trips,
    );
    assert!(
        replicated.replica_hits > 0,
        "{}: the tier should have absorbed the fleet's cold misses",
        stamp(&base),
    );
    assert!(
        speedup >= 2.0,
        "{}: in-memory replica serves should drop the fleet's modeled read time: {:?} vs {:?} ({speedup:.1}x)",
        stamp(&base),
        caches_only.virtual_time,
        replicated.virtual_time,
    );
}

/// GCP's slower storage makes the shared tier matter more, not less.
#[test]
fn gcp_profile_also_clears_5x() {
    let base = ReplicaRunConfig {
        provider: Provider::Gcp,
        ..ReplicaRunConfig::standard(ReplicaConfig::with_count(1))
    };
    let (caches_only, replicated, trips, speedup) = compare_replica_reads(&base);
    println!(
        "gcp: caches-alone {} trips / replicated {} trips = {trips:.1}x; speedup {speedup:.1}x",
        caches_only.storage_round_trips, replicated.storage_round_trips,
    );
    assert!(
        trips >= 5.0,
        "{}: caches-alone {} vs replicated {} round trips ({trips:.1}x)",
        stamp(&base),
        caches_only.storage_round_trips,
        replicated.storage_round_trips,
    );
}

/// More replicas per region spread sessions without losing the win:
/// every replica sees the full epoch stream, so each serves its pinned
/// sessions' hot set independently.
#[test]
fn multiple_replicas_per_region_also_clear_5x() {
    let base = ReplicaRunConfig {
        sessions: 32,
        ..ReplicaRunConfig::standard(ReplicaConfig::with_count(3))
    };
    let (_, replicated, trips, _) = compare_replica_reads(&base);
    assert!(
        trips >= 5.0,
        "{}: 3-replica tier factor {trips:.1}",
        stamp(&base),
    );
    assert!(replicated.replica_hits > 0, "{}", stamp(&base));
}

/// A replica whose feed lags behind never serves stale data — it serves
/// nothing, and the fleet pays exactly the caches-alone storage bill.
#[test]
fn lagging_tier_never_beats_nor_corrupts_the_baseline() {
    let small = ReplicaRunConfig {
        sessions: 8,
        reads_per_session: 6,
        nodes: 8,
        ..ReplicaRunConfig::standard(ReplicaConfig::with_count(1).with_feed_lag(10_000))
    };
    let lagged = run_replica_reads(&small);
    let baseline = run_replica_reads(&ReplicaRunConfig {
        replicas: ReplicaConfig::disabled(),
        ..small
    });
    assert_eq!(lagged.replica_hits, 0, "{}", stamp(&small));
    assert_eq!(
        lagged.storage_round_trips,
        baseline.storage_round_trips,
        "{}",
        stamp(&small)
    );
}

/// Read-path fingerprint of one fixed workload: writes first, then a
/// metered read section (cache hits, cold misses, a post-overwrite
/// refetch). Only read-path counters and the read loop's virtual time
/// go into the fingerprint — write-side batching under live triggers is
/// timing-dependent (epoch splits vary run to run), but the read path
/// is deterministic and is the only thing the replica knob can touch.
fn read_fingerprint(
    config: DeploymentConfig,
) -> (u64, u64, u64, u64, u64, u64, std::time::Duration) {
    let deployment = Deployment::start(config);
    let client = deployment.connect("gate-fixed").expect("connect");
    for i in 0..6 {
        client
            .create(
                &format!("/fx-{i}"),
                &vec![0x11; 256],
                CreateMode::Persistent,
            )
            .expect("create");
    }
    client
        .set_data("/fx-0", &vec![0x22; 256], -1)
        .expect("overwrite");
    // Let straggling post-notify work (epoch-mark coalescing, watch
    // forks) drain before fencing off the read section.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let before = deployment.meter().snapshot();
    let time_before = client.elapsed();
    for _ in 0..3 {
        for i in 0..6 {
            client.get_data(&format!("/fx-{i}"), false).expect("read");
        }
    }
    let usage = deployment.meter().snapshot().since(&before);
    let elapsed = client.elapsed() - time_before;
    drop(client);
    deployment.shutdown();
    (
        usage.obj_gets,
        usage.mem_ops,
        usage.per_op.get("kv_read").copied().unwrap_or(0),
        usage.cache_hits,
        usage.cache_misses,
        usage.replica_hits,
        elapsed,
    )
}

/// The disabled tier is not "a tier with zero hits" — it is *absent*:
/// the read path's storage traffic, cache counters and modeled time are
/// identical to a deployment built without touching the replica knob.
#[test]
fn disabled_tier_is_byte_identical_to_an_untouched_deployment() {
    let untouched = read_fingerprint(
        DeploymentConfig::aws()
            .with_mode(LatencyMode::Virtual, 0xD15A)
            .with_read_cache(ReadCacheConfig::with_capacity(16)),
    );
    let disabled = read_fingerprint(
        DeploymentConfig::aws()
            .with_mode(LatencyMode::Virtual, 0xD15A)
            .with_read_cache(ReadCacheConfig::with_capacity(16))
            .with_replicas(ReplicaConfig::disabled()),
    );
    assert_eq!(untouched, disabled, "identical read-path fingerprints");
    assert_eq!(untouched.5, 0, "no replica hits anywhere");
}

/// `exists` on absent children of a resident parent: the replica proves
/// each absence from the parent's children list, so the calls cost no
/// user-store GET with a replica and one GET each without one.
#[test]
fn absent_children_of_a_resident_parent_cost_no_storage_get() {
    const CALLS: u64 = 32;
    let run = |replicas: ReplicaConfig| {
        let deployment = Deployment::start(
            DeploymentConfig::aws()
                .with_mode(LatencyMode::Virtual, 0xAB5E)
                .with_read_cache(ReadCacheConfig::disabled())
                .with_replicas(replicas),
        );
        let seeder = deployment.connect("absent-seeder").expect("connect");
        seeder
            .create("/dir", b"", CreateMode::Persistent)
            .expect("create");
        for i in 0..4 {
            seeder
                .create(&format!("/dir/c{i}"), b"v", CreateMode::Persistent)
                .expect("create");
        }
        // The feed trails the acks: wait until every replica holds the
        // parent's full list.
        let deadline = Instant::now() + Duration::from_secs(10);
        for replica in deployment.replicas().region(0) {
            while replica.peek("/dir").map(|dir| dir.children.len()) != Some(4) {
                assert!(Instant::now() < deadline, "the feed never delivered /dir");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let reader = deployment.connect("absent-reader").expect("connect");
        let before = deployment.meter().snapshot();
        for i in 0..CALLS {
            let stat = reader
                .exists(&format!("/dir/missing-{i}"), false)
                .expect("exists");
            assert!(stat.is_none(), "missing-{i} does not exist");
        }
        let gets = deployment.meter().snapshot().since(&before).obj_gets;
        let proven: u64 = deployment
            .replicas()
            .region(0)
            .iter()
            .map(|replica| replica.stats().proven_absent)
            .sum();
        drop(reader);
        drop(seeder);
        deployment.shutdown();
        (gets, proven)
    };
    let (replicated_gets, proven) = run(ReplicaConfig::with_count(1));
    let (bare_gets, _) = run(ReplicaConfig::disabled());
    println!(
        "{CALLS} absent exists: {replicated_gets} GETs with a replica \
         ({proven} proven absent), {bare_gets} without"
    );
    assert_eq!(replicated_gets, 0, "every absence proven by the replica");
    assert_eq!(proven, CALLS);
    assert_eq!(
        bare_gets, CALLS,
        "one GET per absent exists without a replica"
    );
}

/// A proven absence runs the Z4 epoch stall on its proving parent: when
/// the parent carries the mark of the session's own undelivered watch,
/// the "no node" answer waits for that watch's delivery.
#[test]
fn an_absence_proven_by_a_marked_parent_waits_for_the_watch_delivery() {
    let deployment =
        Deployment::start(DeploymentConfig::aws().with_read_cache(ReadCacheConfig::disabled()));
    let root = deployment.connect("z4-root").expect("connect");
    root.create("/w", b"", CreateMode::Persistent)
        .expect("create");
    root.create("/w/a", b"v", CreateMode::Persistent)
        .expect("create");
    // A replica fed by hand, so the parent's marks are the test's to set.
    let replicas = ReplicaSet::build(ReplicaConfig::with_count(1), &[Region::US_EAST_1], 1, None);
    let recorder = HistoryRecorder::new();
    let reader = deployment
        .connect_with(ClientConfig {
            replica: replicas.replica_for("z4-reader"),
            ..ClientConfig::new("z4-reader").with_recorder(recorder.clone())
        })
        .expect("connect");
    reader.exists("/w/a", true).expect("arm an exists watch");
    let watch = *reader
        .my_watch_ids()
        .iter()
        .next()
        .expect("one watch registered");
    let txid = reader.mrd().max(1);
    let parent = NodeRecord {
        path: "/w".into(),
        data: Default::default(),
        created_txid: 1,
        modified_txid: txid,
        version: 0,
        children: Arc::new(vec!["a".into()]),
        children_txid: txid,
        ephemeral_owner: None,
        epoch_marks: Arc::new(vec![watch]),
    };
    let ctx = Ctx::disabled();
    replicas.feed(
        &ctx,
        0,
        &EpochDelta {
            ops: Arc::new(vec![ReplicaOp::Write {
                path: "/w".into(),
                frame: encode_node(&parent),
            }]),
            marks: Arc::new(vec![watch]),
            high_water: Arc::new(vec![(0, txid)]),
            seq: 0,
        },
    );
    let answer = reader.submit_exists("/w/b", false).expect("submit");
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        !answer.is_done(),
        "the absence was answered before the watch it is marked with was delivered"
    );
    deployment.bus().notify(
        &ctx,
        "z4-reader",
        ClientNotification::Watch(WatchEvent {
            watch_id: watch,
            path: "/w/a".into(),
            event_type: WatchEventType::NodeDataChanged,
            txid,
            children: None,
        }),
    );
    assert_eq!(answer.wait().expect("delivery releases the read"), None);
    let replica = replicas.replica_for("z4-reader").expect("one replica");
    assert_eq!(replica.stats().proven_absent, 1);
    let events = recorder.events();
    let delivered = events
        .iter()
        .position(
            |event| matches!(event, HEvent::WatchDelivered { watch_id, .. } if *watch_id == watch),
        )
        .expect("delivery recorded");
    let absent = events
        .iter()
        .position(|event| {
            matches!(event, HEvent::ReadAbsent { path, proven_txid, .. }
                if path == "/w/b" && *proven_txid == txid)
        })
        .expect("the proven absence is recorded");
    assert!(delivered < absent, "delivery precedes the absent answer");
    drop(reader);
    drop(root);
    deployment.shutdown();
}

/// A watch-arming `get_data` on a resident node: beside the
/// registration's two writes it reads the node's item once, pulls the
/// lagging replica to the feed head and answers from it, so it costs no
/// user-store GET and never waits on a quiescent node. At `feed_lag` 2
/// the replica trails the last acknowledged write before the read, and
/// the answer is that write all the same.
#[test]
fn an_arming_read_of_a_resident_node_costs_one_kv_read_and_no_storage_get() {
    for lag in [0, 2] {
        let deployment = Deployment::start(
            DeploymentConfig::aws()
                .with_mode(LatencyMode::Virtual, 0xA2)
                .with_read_cache(ReadCacheConfig::disabled())
                .with_replicas(ReplicaConfig::with_count(1).with_feed_lag(lag)),
        );
        let writer = deployment.connect("arm-writer").expect("connect");
        writer
            .create("/a", b"v0", CreateMode::Persistent)
            .expect("create");
        let mut last = 0;
        for i in 1..=3 {
            last = writer
                .set_data("/a", format!("v{i}").as_bytes(), -1)
                .expect("set")
                .modified_txid;
        }
        let replica = deployment
            .replicas()
            .replica_for("arm-reader")
            .expect("one replica");
        let trailing = replica.peek("/a").map(|record| record.modified_txid) != Some(last);
        let reader = deployment.connect("arm-reader").expect("connect");
        let before = deployment.meter().snapshot();
        let (data, stat) = reader.get_data("/a", true).expect("arming read");
        let used = deployment.meter().snapshot().since(&before);
        let count = |label: &str| used.per_op.get(label).copied().unwrap_or(0);
        println!(
            "feed_lag {lag}: replica trailing {trailing}; {} GETs, {} KV reads, {} KV writes, \
             arm:replica {} arm:storage {} arm:wait {}",
            used.obj_gets,
            count("kv_read"),
            count("kv_write"),
            count("arm:replica"),
            count("arm:storage"),
            count("arm:wait"),
        );
        assert_eq!(
            &data[..],
            b"v3",
            "feed_lag {lag}: the last acknowledged version"
        );
        assert_eq!(stat.modified_txid, last);
        assert_eq!(used.obj_gets, 0, "feed_lag {lag}: no user-store GET");
        assert_eq!(
            count("kv_read"),
            1,
            "feed_lag {lag}: one read of the node's item"
        );
        assert_eq!(count("arm:replica"), 1);
        assert_eq!(count("arm:storage"), 0);
        assert_eq!(count("arm:wait"), 0, "a quiescent node has nothing pending");
        if lag > 0 {
            assert!(trailing, "the replica trailed the head before the read");
        }
        drop(reader);
        drop(writer);
        deployment.shutdown();
    }
}
