//! End-to-end tests of a live FaaSKeeper deployment: client → write queue
//! → follower functions → leader queue → leader function → user stores →
//! notifications, all running on real threads through the simulated cloud.

use fk_core::api::{CreateMode, FkError, WatchEventType};
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::user_store::UserStoreKind;
use std::time::Duration;

fn deployment() -> Deployment {
    Deployment::start(DeploymentConfig::aws())
}

#[test]
fn create_and_read_roundtrip() {
    let fk = deployment();
    let client = fk.connect("s1").unwrap();
    let path = client
        .create("/config", b"cluster-settings", CreateMode::Persistent)
        .unwrap();
    assert_eq!(path, "/config");
    let (data, stat) = client.get_data("/config", false).unwrap();
    assert_eq!(data.as_ref(), b"cluster-settings");
    assert_eq!(stat.version, 0);
    assert!(stat.created_txid > 0);
    assert_eq!(stat.modified_txid, stat.created_txid);
    fk.shutdown();
}

/// The full client API against a *multi-leader* deployment: three shard
/// groups, each with its own live leader function instance, serving
/// concurrent sessions whose writes and watches span the tier.
#[test]
fn multi_leader_deployment_serves_full_api() {
    let fk = Deployment::start(DeploymentConfig::aws().with_shard_groups(3));
    let a = fk.connect("alice").unwrap();
    let b = fk.connect("bob").unwrap();
    a.create("/app", b"", CreateMode::Persistent).unwrap();
    // Writes from one session across many paths — routed to different
    // shard groups — must commit in order and stay readable.
    let mut created = Vec::new();
    for i in 0..9 {
        created.push(
            a.create(&format!("/app/n{i}"), b"v0", CreateMode::Persistent)
                .unwrap(),
        );
    }
    let mut children = a.get_children("/app", false).unwrap();
    children.sort();
    assert_eq!(children.len(), 9);
    // A watch armed by bob fires for a change alice commits via another
    // shard group's leader.
    let (data, _) = b.get_data("/app/n3", true).unwrap();
    assert_eq!(data.as_ref(), b"v0");
    a.set_data("/app/n3", b"v1", -1).unwrap();
    let event = b
        .watch_events()
        .recv_timeout(Duration::from_secs(5))
        .expect("watch fires across the tier");
    assert_eq!(event.path, "/app/n3");
    assert_eq!(event.event_type, WatchEventType::NodeDataChanged);
    // Deletes flow back through the parent's children list.
    a.delete("/app/n8", -1).unwrap();
    let children = a.get_children("/app", false).unwrap();
    assert_eq!(children.len(), 8);
    assert_eq!(b.get_data("/app/n8", false).unwrap_err(), FkError::NoNode);
    a.close().unwrap();
    b.close().unwrap();
    fk.shutdown();
}

/// The live runtime's leader queue trigger rides the per-group adaptive
/// drain window (ROADMAP follow-up from the multi-leader PR): a deployment
/// whose distributor is adaptive must serve a burst of writes end to end
/// through the runtime-attached triggers, across several shard groups.
#[test]
fn adaptive_leader_trigger_serves_bursts_end_to_end() {
    use fk_core::distributor::DistributorConfig;
    let fk = Deployment::start(
        DeploymentConfig::aws()
            .with_distributor(DistributorConfig::new(4, 16).with_adaptive_batch(2))
            .with_shard_groups(2),
    );
    let client = fk.connect("bursty").unwrap();
    client
        .create("/burst", b"", CreateMode::Persistent)
        .unwrap();
    for i in 0..24 {
        client
            .create(&format!("/burst/n{i}"), b"x", CreateMode::Persistent)
            .unwrap();
    }
    for i in 0..24 {
        client.set_data(&format!("/burst/n{i}"), b"y", -1).unwrap();
    }
    let children = client.get_children("/burst", false).unwrap();
    assert_eq!(children.len(), 24, "every burst write distributed");
    let (data, stat) = client.get_data("/burst/n7", false).unwrap();
    assert_eq!(data.as_ref(), b"y");
    assert_eq!(stat.version, 1);
    client.close().unwrap();
    fk.shutdown();
}

#[test]
fn set_data_bumps_version_and_txid() {
    let fk = deployment();
    let client = fk.connect("s1").unwrap();
    client.create("/n", b"v0", CreateMode::Persistent).unwrap();
    let stat = client.set_data("/n", b"v1", -1).unwrap();
    assert_eq!(stat.version, 1);
    let (data, stat2) = client.get_data("/n", false).unwrap();
    assert_eq!(data.as_ref(), b"v1");
    assert_eq!(stat2.version, 1);
    assert!(stat2.modified_txid > stat2.created_txid);
    fk.shutdown();
}

#[test]
fn conditional_set_data_enforces_version() {
    let fk = deployment();
    let client = fk.connect("s1").unwrap();
    client.create("/n", b"v0", CreateMode::Persistent).unwrap();
    assert_eq!(
        client.set_data("/n", b"x", 5).unwrap_err(),
        FkError::BadVersion
    );
    client.set_data("/n", b"v1", 0).unwrap();
    assert_eq!(
        client.set_data("/n", b"v2", 0).unwrap_err(),
        FkError::BadVersion
    );
    client.set_data("/n", b"v2", 1).unwrap();
    fk.shutdown();
}

#[test]
fn create_duplicate_fails_and_missing_parent_fails() {
    let fk = deployment();
    let client = fk.connect("s1").unwrap();
    client.create("/a", b"", CreateMode::Persistent).unwrap();
    assert_eq!(
        client
            .create("/a", b"", CreateMode::Persistent)
            .unwrap_err(),
        FkError::NodeExists
    );
    assert_eq!(
        client
            .create("/missing/child", b"", CreateMode::Persistent)
            .unwrap_err(),
        FkError::NoNode
    );
    fk.shutdown();
}

#[test]
fn children_tracked_in_parent_metadata() {
    let fk = deployment();
    let client = fk.connect("s1").unwrap();
    client.create("/app", b"", CreateMode::Persistent).unwrap();
    client
        .create("/app/b", b"", CreateMode::Persistent)
        .unwrap();
    client
        .create("/app/a", b"", CreateMode::Persistent)
        .unwrap();
    assert_eq!(client.get_children("/app", false).unwrap(), vec!["a", "b"]);
    client.delete("/app/a", -1).unwrap();
    assert_eq!(client.get_children("/app", false).unwrap(), vec!["b"]);
    // Deleting a non-empty node is rejected.
    assert_eq!(client.delete("/app", -1).unwrap_err(), FkError::NotEmpty);
    client.delete("/app/b", -1).unwrap();
    client.delete("/app", -1).unwrap();
    assert_eq!(client.exists("/app", false).unwrap(), None);
    fk.shutdown();
}

#[test]
fn sequential_creates_generate_ordered_names() {
    let fk = deployment();
    let client = fk.connect("s1").unwrap();
    client
        .create("/locks", b"", CreateMode::Persistent)
        .unwrap();
    let p1 = client
        .create("/locks/lock-", b"", CreateMode::PersistentSequential)
        .unwrap();
    let p2 = client
        .create("/locks/lock-", b"", CreateMode::PersistentSequential)
        .unwrap();
    let p3 = client
        .create("/locks/lock-", b"", CreateMode::EphemeralSequential)
        .unwrap();
    assert_eq!(p1, "/locks/lock-0000000000");
    assert_eq!(p2, "/locks/lock-0000000001");
    assert_eq!(p3, "/locks/lock-0000000002");
    let children = client.get_children("/locks", false).unwrap();
    assert_eq!(children.len(), 3);
    fk.shutdown();
}

#[test]
fn watches_fire_once_in_order() {
    let fk = deployment();
    let writer = fk.connect("writer").unwrap();
    let watcher = fk.connect("watcher").unwrap();
    writer.create("/w", b"v0", CreateMode::Persistent).unwrap();

    let (_, _) = watcher.get_data("/w", true).unwrap();
    writer.set_data("/w", b"v1", -1).unwrap();

    let event = watcher
        .watch_events()
        .recv_timeout(Duration::from_secs(5))
        .unwrap();
    assert_eq!(event.path, "/w");
    assert_eq!(event.event_type, WatchEventType::NodeDataChanged);

    // One-shot: a second write does not fire the consumed watch.
    writer.set_data("/w", b"v2", -1).unwrap();
    assert!(watcher
        .watch_events()
        .recv_timeout(Duration::from_millis(300))
        .is_err());
    fk.shutdown();
}

#[test]
fn exists_watch_fires_on_creation() {
    let fk = deployment();
    let writer = fk.connect("writer").unwrap();
    let watcher = fk.connect("watcher").unwrap();
    assert_eq!(watcher.exists("/future", true).unwrap(), None);
    writer
        .create("/future", b"", CreateMode::Persistent)
        .unwrap();
    let event = watcher
        .watch_events()
        .recv_timeout(Duration::from_secs(5))
        .unwrap();
    assert_eq!(event.event_type, WatchEventType::NodeCreated);
    assert_eq!(event.path, "/future");
    fk.shutdown();
}

#[test]
fn child_watch_fires_on_child_changes() {
    let fk = deployment();
    let writer = fk.connect("writer").unwrap();
    let watcher = fk.connect("watcher").unwrap();
    writer.create("/dir", b"", CreateMode::Persistent).unwrap();
    watcher.get_children("/dir", true).unwrap();
    writer
        .create("/dir/kid", b"", CreateMode::Persistent)
        .unwrap();
    let event = watcher
        .watch_events()
        .recv_timeout(Duration::from_secs(5))
        .unwrap();
    assert_eq!(event.event_type, WatchEventType::NodeChildrenChanged);
    assert_eq!(event.path, "/dir");
    fk.shutdown();
}

#[test]
fn get_subtree_enumerates_and_children_with_data_lists_one_level() {
    let fk = deployment();
    let client = fk.connect("scanner").unwrap();
    client
        .create("/svc", b"root", CreateMode::Persistent)
        .unwrap();
    client
        .create("/svc/a", b"va", CreateMode::Persistent)
        .unwrap();
    client
        .create("/svc/a/deep", b"vd", CreateMode::Persistent)
        .unwrap();
    client
        .create("/svc/b", b"vb", CreateMode::Persistent)
        .unwrap();
    // A sibling sharing the name prefix must not leak into the scan.
    client
        .create("/svcx", b"no", CreateMode::Persistent)
        .unwrap();

    let entries = client.get_subtree("/svc", false).unwrap();
    let paths: Vec<&str> = entries.iter().map(|e| e.path.as_str()).collect();
    assert_eq!(paths, ["/svc", "/svc/a", "/svc/a/deep", "/svc/b"]);
    assert_eq!(entries[1].data.as_ref(), b"va");
    assert_eq!(entries[1].stat.num_children, 1);

    let kids = client.get_children_with_data("/svc", false).unwrap();
    let kid_paths: Vec<&str> = kids.iter().map(|e| e.path.as_str()).collect();
    assert_eq!(kid_paths, ["/svc/a", "/svc/b"], "one level only");
    assert_eq!(kids[1].data.as_ref(), b"vb");
    assert_eq!(
        client.get_children_with_data("/absent", false).unwrap_err(),
        FkError::NoNode
    );
    fk.shutdown();
}

#[test]
fn subtree_watch_fires_on_descendant_change() {
    let fk = deployment();
    let writer = fk.connect("writer").unwrap();
    let watcher = fk.connect("watcher").unwrap();
    writer.create("/tree", b"", CreateMode::Persistent).unwrap();
    writer
        .create("/tree/leaf", b"v0", CreateMode::Persistent)
        .unwrap();

    let entries = watcher.get_subtree("/tree", true).unwrap();
    assert_eq!(entries.len(), 2);
    // A deep descendant change fires the subtree watch at the root.
    writer.set_data("/tree/leaf", b"v1", -1).unwrap();
    let event = watcher
        .watch_events()
        .recv_timeout(Duration::from_secs(5))
        .unwrap();
    assert_eq!(event.event_type, WatchEventType::SubtreeChanged);
    assert_eq!(event.path, "/tree", "event names the watch root");

    // One-shot: a second change does not fire the consumed watch.
    writer.set_data("/tree/leaf", b"v2", -1).unwrap();
    assert!(watcher
        .watch_events()
        .recv_timeout(Duration::from_millis(300))
        .is_err());

    // A sibling outside the subtree never fires a re-armed watch.
    watcher.get_subtree("/tree", true).unwrap();
    writer
        .create("/elsewhere", b"", CreateMode::Persistent)
        .unwrap();
    assert!(watcher
        .watch_events()
        .recv_timeout(Duration::from_millis(300))
        .is_err());
    fk.shutdown();
}

#[test]
fn ephemeral_nodes_vanish_on_close() {
    let fk = deployment();
    let owner = fk.connect("owner").unwrap();
    let observer = fk.connect("observer").unwrap();
    owner
        .create("/services", b"", CreateMode::Persistent)
        .unwrap();
    owner
        .create("/services/worker", b"addr", CreateMode::Ephemeral)
        .unwrap();
    assert!(observer
        .exists("/services/worker", false)
        .unwrap()
        .is_some());
    owner.close().unwrap();
    // The close travels the ordered write path; poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match observer.exists("/services/worker", false).unwrap() {
            None => break,
            Some(_) if std::time::Instant::now() > deadline => {
                panic!("ephemeral node survived session close")
            }
            Some(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    assert_eq!(observer.get_children("/services", false).unwrap().len(), 0);
    fk.shutdown();
}

#[test]
fn per_session_fifo_order_holds_under_concurrency() {
    let fk = deployment();
    let client = fk.connect("s1").unwrap();
    client.create("/ctr", b"0", CreateMode::Persistent).unwrap();
    // Pipeline many writes from one session; FIFO ⇒ final value is last.
    let mut last_stat = None;
    for i in 1..=30 {
        last_stat = Some(
            client
                .set_data("/ctr", format!("{i}").as_bytes(), -1)
                .unwrap(),
        );
    }
    let (data, stat) = client.get_data("/ctr", false).unwrap();
    assert_eq!(data.as_ref(), b"30");
    assert_eq!(stat.version, 30);
    assert_eq!(stat.modified_txid, last_stat.unwrap().modified_txid);
    fk.shutdown();
}

#[test]
fn concurrent_sessions_on_distinct_nodes_all_commit() {
    let fk = deployment();
    let root = fk.connect("root").unwrap();
    root.create("/jobs", b"", CreateMode::Persistent).unwrap();
    let mut handles = Vec::new();
    for c in 0..4 {
        let client = fk.connect(format!("client-{c}")).unwrap();
        handles.push(std::thread::spawn(move || {
            let path = format!("/jobs/job-{c}");
            client
                .create(&path, b"payload", CreateMode::Persistent)
                .unwrap();
            for v in 0..5 {
                client
                    .set_data(&path, format!("v{v}").as_bytes(), v)
                    .unwrap();
            }
            client
        }));
    }
    for handle in handles {
        let client = handle.join().unwrap();
        drop(client);
    }
    let children = root.get_children("/jobs", false).unwrap();
    assert_eq!(children.len(), 4);
    for c in 0..4 {
        let (data, stat) = root.get_data(&format!("/jobs/job-{c}"), false).unwrap();
        assert_eq!(data.as_ref(), b"v4");
        assert_eq!(stat.version, 5);
    }
    fk.shutdown();
}

#[test]
fn contended_writes_to_same_node_serialize() {
    let fk = deployment();
    let root = fk.connect("root").unwrap();
    root.create("/hot", b"", CreateMode::Persistent).unwrap();
    let mut handles = Vec::new();
    for c in 0..4 {
        let client = fk.connect(format!("w{c}")).unwrap();
        handles.push(std::thread::spawn(move || {
            for _ in 0..10 {
                client.set_data("/hot", b"x", -1).unwrap();
            }
            drop(client);
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    let (_, stat) = root.get_data("/hot", false).unwrap();
    assert_eq!(stat.version, 40, "all 40 writes must be applied");
    fk.shutdown();
}

#[test]
fn large_nodes_travel_through_staging() {
    let fk = deployment();
    let client = fk.connect("s1").unwrap();
    let big = vec![0xAB; 300 * 1024]; // > 256 kB queue cap
    client.create("/big", &big, CreateMode::Persistent).unwrap();
    let (data, _) = client.get_data("/big", false).unwrap();
    assert_eq!(data.len(), big.len());
    assert_eq!(data.as_ref(), &big[..]);
    // The staging object is deleted after distribution. Cleanup is
    // deliberately *after* the client notification (the result signals
    // commit, not cleanup), so poll briefly instead of racing the
    // leader's trigger thread.
    let ctx = fk.client_ctx();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !fk.staging().list(&ctx, "staging/").is_empty() {
        assert!(
            std::time::Instant::now() < deadline,
            "staging object not cleaned up: {:?}",
            fk.staging().list(&ctx, "staging/")
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    fk.shutdown();
}

#[test]
fn hybrid_store_end_to_end() {
    let fk =
        Deployment::start(DeploymentConfig::aws().with_user_store(UserStoreKind::hybrid_default()));
    let client = fk.connect("s1").unwrap();
    client
        .create("/small", b"tiny", CreateMode::Persistent)
        .unwrap();
    let big = vec![1u8; 50 * 1024];
    client
        .create("/large", &big, CreateMode::Persistent)
        .unwrap();
    assert_eq!(
        client.get_data("/small", false).unwrap().0.as_ref(),
        b"tiny"
    );
    assert_eq!(client.get_data("/large", false).unwrap().0.len(), big.len());
    fk.shutdown();
}

#[test]
fn gcp_profile_end_to_end() {
    let fk = Deployment::start(DeploymentConfig::gcp());
    let client = fk.connect("s1").unwrap();
    client
        .create("/gcp", b"datastore", CreateMode::Persistent)
        .unwrap();
    assert_eq!(
        client.get_data("/gcp", false).unwrap().0.as_ref(),
        b"datastore"
    );
    fk.shutdown();
}

#[test]
fn heartbeat_evicts_dead_session_and_cleans_ephemerals() {
    let fk = deployment();
    let owner = fk.connect("owner").unwrap();
    let observer = fk.connect("observer").unwrap();
    owner.create("/eph", b"", CreateMode::Ephemeral).unwrap();

    // The owner stops answering pings (silent death).
    owner
        .responsive_flag()
        .store(false, std::sync::atomic::Ordering::SeqCst);

    let heartbeat = fk.make_heartbeat();
    let ctx = fk.client_ctx();
    let report = heartbeat.run(&ctx).unwrap();
    assert!(report.evicted.contains(&"owner".to_owned()));

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if observer.exists("/eph", false).unwrap().is_none() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "ephemeral not cleaned after eviction"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    fk.shutdown();
}

#[test]
fn follower_crashes_are_recovered_by_redelivery() {
    let fk = deployment();
    // Crash the follower's next 2 invocations *before* any work happens;
    // queue redelivery retries and the write still succeeds.
    fk.runtime()
        .inject_crashes(fk_core::deploy::fn_names::FOLLOWER, 2)
        .unwrap();
    let client = fk.connect("s1").unwrap();
    client
        .create("/recover", b"ok", CreateMode::Persistent)
        .unwrap();
    assert_eq!(
        client.get_data("/recover", false).unwrap().0.as_ref(),
        b"ok"
    );
    fk.shutdown();
}

#[test]
fn reads_never_observe_regressing_versions() {
    let fk = deployment();
    let writer = fk.connect("writer").unwrap();
    writer
        .create("/mono", b"0", CreateMode::Persistent)
        .unwrap();
    let reader = fk.connect("reader").unwrap();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop2 = std::sync::Arc::clone(&stop);
    let read_thread = std::thread::spawn(move || {
        let mut last = 0;
        while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
            let (_, stat) = reader.get_data("/mono", false).unwrap();
            assert!(
                stat.modified_txid >= last,
                "version regressed: {} < {last}",
                stat.modified_txid
            );
            last = stat.modified_txid;
        }
        drop(reader);
    });
    for i in 1..=20 {
        writer
            .set_data("/mono", format!("{i}").as_bytes(), -1)
            .unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    read_thread.join().unwrap();
    fk.shutdown();
}

#[test]
fn watch_arming_read_bypasses_stale_cache_entry() {
    use fk_core::read_cache::ReadCacheConfig;
    let fk = Deployment::start(
        DeploymentConfig::aws().with_read_cache(ReadCacheConfig::with_capacity(16)),
    );
    let writer = fk.connect("writer").unwrap();
    let reader = fk.connect("reader").unwrap();
    writer
        .create("/cfg", b"v1", CreateMode::Persistent)
        .unwrap();

    // Reader caches v1. The writer's next change does not notify the
    // reader (no watch armed), so the reader's MRD cannot advance and a
    // plain read may legitimately serve the cached v1...
    let (v1, _) = reader.get_data("/cfg", false).unwrap();
    assert_eq!(v1.as_ref(), b"v1");
    writer.set_data("/cfg", b"v2", -1).unwrap();

    // ...but a watch-ARMING read must postdate its registration: it has
    // to see v2, otherwise the v1→v2 change would neither be returned
    // nor ever fire the watch (it happened before registration).
    let (at_arm, _) = reader.get_data("/cfg", true).unwrap();
    assert_eq!(at_arm.as_ref(), b"v2", "watch-arming read must be fresh");

    // And the armed watch reports the next change.
    writer.set_data("/cfg", b"v3", -1).unwrap();
    let event = reader
        .watch_events()
        .recv_timeout(Duration::from_secs(5))
        .expect("watch fires for v3");
    assert_eq!(event.path, "/cfg");
    assert_eq!(event.event_type, WatchEventType::NodeDataChanged);
    fk.shutdown();
}

#[test]
fn explicitly_disabled_client_cache_wins_over_deployment_default() {
    use fk_core::read_cache::ReadCacheConfig;
    use fk_core::ClientConfig;
    let fk = Deployment::start(
        DeploymentConfig::aws().with_read_cache(ReadCacheConfig::with_capacity(64)),
    );
    // An inheriting client caches...
    let cached = fk.connect("cached").unwrap();
    cached.create("/n", b"x", CreateMode::Persistent).unwrap();
    cached.get_data("/n", false).unwrap();
    cached.get_data("/n", false).unwrap();
    assert!(cached.cache_stats().hits > 0, "deployment default applies");
    // ...while an explicitly pinned uncached control client never does.
    let control = fk
        .connect_with(ClientConfig::new("control").with_read_cache(ReadCacheConfig::disabled()))
        .unwrap();
    control.get_data("/n", false).unwrap();
    control.get_data("/n", false).unwrap();
    let stats = control.cache_stats();
    assert_eq!(stats.hits, 0, "explicit opt-out is honoured");
    assert_eq!(stats.misses, 0, "passthrough records nothing");
    fk.shutdown();
}

/// A body no decoder accepts — text, or a frame of another version —
/// is consumed once, metered and answered by nothing; the request
/// queued behind it in the same session is served.
#[test]
fn undecodable_write_queue_bodies_are_dropped_and_metered() {
    use bytes::Bytes;
    use fk_core::messages::{ClientNotification, ClientRequest, Payload, WriteOp};
    let fk = deployment();
    let ctx = fk.client_ctx();
    fk.system().register_session(&ctx, "raw", 0).unwrap();
    let (endpoint, _) = fk.bus().register("raw");
    let valid = ClientRequest {
        session_id: "raw".into(),
        request_id: 1,
        op: WriteOp::Create {
            path: "/after".into(),
            payload: Payload::inline(b"v"),
            mode: CreateMode::Persistent,
        },
    }
    .encode();
    let mut older = valid.to_vec();
    older[1] = fk_core::codec::VERSION - 1;

    let before = fk.meter().snapshot();
    let json = Bytes::from_static(br#"{"path":"/x"}"#);
    for body in [json, Bytes::from(older), valid] {
        fk.write_queue().send(&ctx, "raw", body).unwrap();
    }
    let answer = endpoint
        .recv_timeout(Duration::from_secs(10))
        .expect("the valid request is answered");
    let ClientNotification::WriteResult {
        request_id, result, ..
    } = answer
    else {
        panic!("a write result, not {answer:?}");
    };
    assert_eq!(request_id, 1);
    assert!(result.is_ok(), "{result:?}");
    let reader = fk.connect("reader").unwrap();
    assert_eq!(reader.get_data("/after", false).unwrap().0.as_ref(), b"v");

    let used = fk.meter().snapshot().since(&before);
    assert_eq!(used.per_op["drop:follower.undecodable"], 2, "once each");
    assert!(fk.write_queue().drain_dead_letters().is_empty());
    assert!(endpoint.try_recv().is_err(), "nothing else on the bus");
    fk.shutdown();
}
