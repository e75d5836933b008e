//! End-to-end tests of the ZooKeeper baseline: quorum replication,
//! watches, sessions, ephemeral cleanup, failures and re-election.

use fk_cloud::trace::Ctx;
use fk_zk::types::{CreateMode, ZkError, ZkEventType};
use fk_zk::ZkEnsemble;
use std::time::Duration;

fn wait_until(mut cond: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "condition timed out");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn write_on_one_server_visible_on_all() {
    let ens = ZkEnsemble::start(3);
    let c0 = ens.connect(0, Ctx::disabled()).unwrap();
    c0.create("/a", b"hello", CreateMode::Persistent).unwrap();
    // Replication to every local replica.
    for id in 0..3 {
        let c = ens.connect(id, Ctx::disabled()).unwrap();
        wait_until(|| c.get_data("/a", false).is_ok());
        assert_eq!(c.get_data("/a", false).unwrap().0.as_ref(), b"hello");
    }
}

#[test]
fn writes_from_any_server_are_totally_ordered() {
    let ens = ZkEnsemble::start(3);
    let c0 = ens.connect(0, Ctx::disabled()).unwrap();
    let c1 = ens.connect(1, Ctx::disabled()).unwrap();
    c0.create("/n", b"0", CreateMode::Persistent).unwrap();
    let mut zxids = Vec::new();
    for i in 0..10 {
        let stat = if i % 2 == 0 {
            c0.set_data("/n", b"x", -1).unwrap()
        } else {
            c1.set_data("/n", b"y", -1).unwrap()
        };
        zxids.push(stat.mzxid);
    }
    // Total order: strictly increasing commit ids regardless of entry server.
    for pair in zxids.windows(2) {
        assert!(pair[1] > pair[0]);
    }
}

#[test]
fn conditional_ops_enforce_versions() {
    let ens = ZkEnsemble::start(3);
    let c = ens.connect(0, Ctx::disabled()).unwrap();
    c.create("/v", b"0", CreateMode::Persistent).unwrap();
    assert_eq!(c.set_data("/v", b"1", 5).unwrap_err(), ZkError::BadVersion);
    c.set_data("/v", b"1", 0).unwrap();
    assert_eq!(c.delete("/v", 0).unwrap_err(), ZkError::BadVersion);
    c.delete("/v", 1).unwrap();
    assert_eq!(c.get_data("/v", false).unwrap_err(), ZkError::NoNode);
}

#[test]
fn sequential_creates_are_globally_unique() {
    let ens = ZkEnsemble::start(3);
    let c0 = ens.connect(0, Ctx::disabled()).unwrap();
    let c1 = ens.connect(1, Ctx::disabled()).unwrap();
    c0.create("/q", b"", CreateMode::Persistent).unwrap();
    let mut names = std::collections::HashSet::new();
    for i in 0..10 {
        let c = if i % 2 == 0 { &c0 } else { &c1 };
        let path = c
            .create("/q/item-", b"", CreateMode::PersistentSequential)
            .unwrap();
        assert!(names.insert(path), "duplicate sequential name");
    }
    assert_eq!(names.len(), 10);
}

#[test]
fn watch_fires_on_the_watching_server() {
    let ens = ZkEnsemble::start(3);
    let writer = ens.connect(0, Ctx::disabled()).unwrap();
    let watcher = ens.connect(2, Ctx::disabled()).unwrap();
    writer.create("/w", b"0", CreateMode::Persistent).unwrap();
    wait_until(|| watcher.exists("/w", false).unwrap().is_some());
    watcher.get_data("/w", true).unwrap();
    writer.set_data("/w", b"1", -1).unwrap();
    let event = watcher
        .events()
        .recv_timeout(Duration::from_secs(5))
        .unwrap();
    assert_eq!(event.event_type, ZkEventType::NodeDataChanged);
    assert_eq!(event.path, "/w");
    // One-shot.
    writer.set_data("/w", b"2", -1).unwrap();
    assert!(watcher
        .events()
        .recv_timeout(Duration::from_millis(200))
        .is_err());
}

#[test]
fn ephemerals_vanish_on_close_and_expiry() {
    let ens = ZkEnsemble::start(3);
    let owner = ens.connect(1, Ctx::disabled()).unwrap();
    let observer = ens.connect(0, Ctx::disabled()).unwrap();
    owner.create("/e1", b"", CreateMode::Ephemeral).unwrap();
    owner.create("/p", b"", CreateMode::Persistent).unwrap();
    // Server 0 must have applied both creates first: before it has,
    // "/e1 is absent there" holds without the close doing anything.
    wait_until(|| {
        observer.exists("/e1", false).unwrap().is_some()
            && observer.exists("/p", false).unwrap().is_some()
    });
    owner.close().unwrap();
    wait_until(|| observer.exists("/e1", false).unwrap().is_none());
    assert!(observer.exists("/p", false).unwrap().is_some());

    // Expiry path: a session that stops pinging is evicted.
    let lazy = ens.connect(1, Ctx::disabled()).unwrap();
    lazy.create("/e2", b"", CreateMode::Ephemeral).unwrap();
    wait_until(|| observer.exists("/e2", false).unwrap().is_some());
    ens.expire_sessions(0, i64::MAX); // everything is expired
    wait_until(|| observer.exists("/e2", false).unwrap().is_none());
}

#[test]
fn leader_crash_triggers_reelection_and_no_data_loss() {
    let ens = ZkEnsemble::start(3);
    let leader = ens.leader_id().unwrap();
    let follower = (0..3u32).find(|id| *id != leader).unwrap();
    let c = ens.connect(follower, Ctx::disabled()).unwrap();
    c.create("/durable", b"keep", CreateMode::Persistent)
        .unwrap();

    ens.crash(leader);
    let new_leader = ens.elect().unwrap();
    assert_ne!(new_leader, leader);

    // The surviving quorum serves reads and writes.
    let c2 = ens.connect(follower, Ctx::disabled()).unwrap();
    assert_eq!(c2.get_data("/durable", false).unwrap().0.as_ref(), b"keep");
    c2.create("/after-failover", b"new", CreateMode::Persistent)
        .unwrap();

    // The crashed server recovers from its durable log and catches up.
    ens.restart(leader);
    ens.elect();
    let c3 = ens.connect(leader, Ctx::disabled()).unwrap();
    wait_until(|| {
        c3.exists("/after-failover", false)
            .unwrap_or(None)
            .is_some()
    });
}

#[test]
fn crashed_server_rejects_clients() {
    let ens = ZkEnsemble::start(3);
    let victim = (0..3u32).find(|id| Some(*id) != ens.leader_id()).unwrap();
    ens.crash(victim);
    assert!(matches!(
        ens.connect(victim, Ctx::disabled()),
        Err(ZkError::ConnectionLoss)
    ));
    let ok_server = (0..3u32).find(|id| *id != victim).unwrap();
    let c = ens.connect(ok_server, Ctx::disabled()).unwrap();
    c.create("/still-works", b"", CreateMode::Persistent)
        .unwrap();
}

#[test]
fn single_server_ensemble_works() {
    let ens = ZkEnsemble::start(1);
    let c = ens.connect(0, Ctx::disabled()).unwrap();
    c.create("/solo", b"1", CreateMode::Persistent).unwrap();
    assert_eq!(c.get_data("/solo", false).unwrap().0.as_ref(), b"1");
}

#[test]
fn per_session_fifo_pipelining() {
    let ens = ZkEnsemble::start(3);
    let c = ens.connect(0, Ctx::disabled()).unwrap();
    c.create("/seq", b"", CreateMode::Persistent).unwrap();
    for i in 0..25 {
        c.set_data("/seq", format!("{i}").as_bytes(), i).unwrap();
    }
    let (data, stat) = c.get_data("/seq", false).unwrap();
    assert_eq!(data.as_ref(), b"24");
    assert_eq!(stat.version, 25);
}
