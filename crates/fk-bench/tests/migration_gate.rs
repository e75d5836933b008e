//! Acceptance gate for checkpoint/state-transfer and live membership
//! changes (`BENCH_migration.json` records the numbers):
//!
//! * A read replica bootstrapped **mid-run** — a copy of a live peer at
//!   the feed head, while writers keep committing — must cost no
//!   storage request and converge **byte-identical** (via
//!   [`fk_core::codec::encode_node`]) to the replica that streamed the
//!   same epochs from genesis.
//! * A live 4 → 8 scale-out followed by a hot-group drain, all under a
//!   seeded standard fault plan, must lose zero acknowledged writes,
//!   keep the tree integral, and leave every dead-letter queue empty.

use fk_cloud::FaultPlan;
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::system_store::txid;
use fk_core::{codec, CreateMode, DistributorConfig, ReplicaConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Polls until every replica in region 0 sits at the same feed
/// position (the writers have stopped, so the positions are final).
/// Each poll first quiesces the tier: a replica a trailing chaos-dropped
/// or delayed notification left behind has no later one to pull it, so
/// only the reconcile brings it to the head.
fn await_feed_quiesce(fk: &Deployment, ctx: &fk_cloud::trace::Ctx, stamp: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        fk.replicas().reconcile(ctx);
        let replicas = fk.replicas().region(0);
        let positions: Vec<u64> = replicas.iter().map(|r| r.feed_position()).collect();
        if positions.windows(2).all(|w| w[0] == w[1]) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{stamp}: replica feed positions never converged: {positions:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Polls until the deployment is idle: no queued message, and no store,
/// queue or function request metered across five polls in a row (a
/// chaos-redelivered message may still run after its client's ack).
fn await_idle(fk: &Deployment, stamp: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let requests = |fk: &Deployment| {
        let usage = fk.meter().snapshot();
        (
            usage.kv_ops,
            usage.obj_gets + usage.obj_puts + usage.obj_deletes,
            usage.queue_messages,
            usage.fn_invocations,
        )
    };
    let mut last = requests(fk);
    let mut quiet = 0;
    while quiet < 5 {
        assert!(
            Instant::now() < deadline,
            "{stamp}: the deployment never went idle"
        );
        std::thread::sleep(Duration::from_millis(20));
        let now = requests(fk);
        let queued = fk.write_queue().pending() + fk.leader_queues().pending();
        quiet = if now == last && queued == 0 {
            quiet + 1
        } else {
            0
        };
        last = now;
    }
}

/// A replica joined mid-run from a live peer must cost no storage
/// request and end byte-identical to the genesis-streamed replica: same
/// codec frame for every node the genesis replica holds, despite writes
/// landing before and after the join — all under the standard fault
/// plan (dropped/duplicated/delayed feed frames armed).
#[test]
fn mid_run_bootstrap_converges_byte_identical_to_genesis_replica() {
    let seed = 0xB007u64;
    let stamp = format!("migration gate seed {seed:#x}: bootstrap groups=2 shards=2 replicas=1");
    println!("{stamp}");
    let fk = Deployment::start(
        DeploymentConfig::aws()
            .with_distributor(DistributorConfig::new(2, 16))
            .with_shard_groups(2)
            .with_replicas(ReplicaConfig::with_count(1).with_byte_budget(64 << 20))
            .with_chaos(FaultPlan::standard(seed)),
    );
    let ctx = fk.client_ctx();
    let client = fk.connect("boot").expect("connect");

    // Phase 1: state the joiner copies from its peer.
    client
        .create("/boot", b"", CreateMode::Persistent)
        .expect("create root");
    for n in 0..12 {
        client
            .create(
                &format!("/boot/n{n}"),
                &vec![0x5A; 512],
                CreateMode::Persistent,
            )
            .expect("create");
    }
    for n in 0..6 {
        client
            .set_data(&format!("/boot/n{n}"), &vec![0x5B; 256], -1)
            .expect("set");
    }

    await_idle(&fk, &stamp);
    let before = fk.meter().snapshot();
    let joiner = fk.bootstrap_replica(&ctx, 0);
    let used = fk.meter().snapshot().since(&before);
    let boot = joiner
        .resident_paths()
        .iter()
        .filter(|path| path.starts_with("/boot"))
        .count();
    println!(
        "bootstrap join: {} object GETs, {} KV requests, {boot} /boot records copied",
        used.obj_gets, used.kv_ops
    );
    assert_eq!(used.obj_gets, 0, "{stamp}: the join read the object store");
    assert_eq!(used.kv_ops, 0, "{stamp}: the join read the key-value store");
    assert!(
        boot >= 13,
        "{stamp}: the joiner missed the phase-1 tree ({boot} nodes)"
    );

    // Phase 2: commits both replicas see live.
    for n in 0..6 {
        client
            .set_data(&format!("/boot/n{n}"), format!("suffix-{n}").as_bytes(), -1)
            .expect("post-join set");
    }
    for l in 0..4 {
        client
            .create(&format!("/boot/late{l}"), b"late", CreateMode::Persistent)
            .expect("post-join create");
    }
    client
        .set_data("/boot/late0", b"late-v2", -1)
        .expect("post-join set");
    client
        .create("/boot/tail", b"tail", CreateMode::Persistent)
        .expect("post-join create");
    client.close().expect("close");

    await_feed_quiesce(&fk, &ctx, &stamp);
    // Close any chaos-dropped trailing feed gap before comparing.
    fk.replicas().reconcile(&ctx);

    let genesis = fk
        .replicas()
        .region(0)
        .into_iter()
        .find(|r| !Arc::ptr_eq(r, &joiner))
        .expect("genesis replica still registered");
    let resident = genesis.resident_paths();
    assert!(
        resident.iter().any(|p| p.starts_with("/boot")),
        "{stamp}: genesis replica holds no workload state — comparison would be vacuous"
    );
    for path in resident {
        let expected = genesis.peek(&path).expect("resident on genesis");
        let actual = joiner
            .peek(&path)
            .unwrap_or_else(|| panic!("{stamp}: joiner missing {path}"));
        assert_eq!(
            codec::encode_node(&expected),
            codec::encode_node(&actual),
            "{stamp}: joiner diverged from genesis on {path}"
        );
    }
    fk.shutdown();
}

/// Live resharding end to end under the standard fault plan: scale out
/// 4 → 8 groups mid-workload, then drain a hot group into a successor,
/// with every acknowledged write verified afterwards. Prints the gate
/// numbers recorded in `BENCH_migration.json`.
#[test]
fn live_resharding_loses_nothing_and_records_gate_numbers() {
    let seed = 0x4D16u64;
    let stamp = format!("migration gate seed {seed:#x}: reshard groups=4/8 shards=2 replicas=1");
    println!("{stamp}");
    let fk = Deployment::start(
        DeploymentConfig::aws()
            .with_distributor(DistributorConfig::new(2, 16))
            .with_shard_groups(8)
            .with_active_groups(4)
            .with_replicas(ReplicaConfig::with_count(1).with_byte_budget(64 << 20))
            .with_chaos(FaultPlan::standard(seed)),
    );
    let ctx = fk.client_ctx();
    let client = fk.connect("reshard").expect("connect");
    let mut expect = Vec::new();

    client
        .create("/live", b"", CreateMode::Persistent)
        .expect("create root");
    for n in 0..24 {
        let path = format!("/live/a{n}");
        client
            .create(&path, b"a0", CreateMode::Persistent)
            .expect("create");
        client.set_data(&path, b"a1", -1).expect("set");
        expect.push((path, b"a1".to_vec(), 1i64));
    }

    // Scale out while the next write round is about to land: keys
    // re-hash across the doubled width from the followers' next batch.
    let t0 = Instant::now();
    let seed_floors = fk.scale_out(&ctx, 8).expect("scale out");
    let scale_out_ms = t0.elapsed().as_secs_f64() * 1e3;
    // Every txid a joining group issues sorts after everything committed
    // before it joined: its published floor sits above the seed floors.
    let ceiling = seed_floors.iter().copied().max().unwrap_or(0);
    let published = fk.floors().snapshot();
    assert!(
        (4..8).all(|g| published[g] > ceiling),
        "{stamp}: a joining group's floor sits at or below {ceiling}: {published:?}"
    );

    for n in 0..24 {
        let path = format!("/live/b{n}");
        client
            .create(&path, b"b0", CreateMode::Persistent)
            .expect("create post-scale-out");
        client
            .set_data(&path, b"b1", -1)
            .expect("set post-scale-out");
        expect.push((path, b"b1".to_vec(), 1));
    }

    // Drain group 2 into group 3, finish the in-flight suffix, retire
    // the floor, and keep writing through the permanent redirect.
    fk.begin_drain(&ctx, 2, 3).expect("begin drain");
    for n in 0..12 {
        let path = format!("/live/c{n}");
        client
            .create(&path, b"c0", CreateMode::Persistent)
            .expect("create while draining");
        expect.push((path, b"c0".to_vec(), 0));
    }
    client.close().expect("close");
    let t1 = Instant::now();
    let deadline = t1 + Duration::from_secs(20);
    loop {
        match fk.complete_drain(&ctx, 2) {
            Ok(()) => break,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "{stamp}: drain never completed: {e:?}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    let drain_ms = t1.elapsed().as_secs_f64() * 1e3;

    let mut joined_writes = 0;
    for (path, data, version) in &expect {
        let record = (0..50)
            .find_map(|_| fk.user_store().read_node(&ctx, path).ok().flatten())
            .unwrap_or_else(|| panic!("{stamp}: acknowledged node {path} lost"));
        if txid::group_of(record.created_txid) >= 4 {
            joined_writes += 1;
            assert!(
                record.created_txid > ceiling,
                "{stamp}: {path} was created by a joining group at or below {ceiling}"
            );
        }
        assert_eq!(
            record.data.as_ref(),
            &data[..],
            "{stamp}: data lost on {path}"
        );
        assert_eq!(
            i64::from(record.version),
            *version,
            "{stamp}: version lost on {path}"
        );
    }
    assert!(
        joined_writes > 0,
        "{stamp}: no create landed on a joining group"
    );
    let violations =
        fk_core::consistency::check_tree_integrity(&ctx, fk.system(), fk.user_store().as_ref());
    assert!(violations.is_empty(), "{stamp}: {violations:#?}");
    assert!(
        fk.write_queue().drain_dead_letters().is_empty()
            && fk.leader_queues().drain_dead_letters().is_empty(),
        "{stamp}: dead letters after migration"
    );

    let snapshot = fk.meter().snapshot();
    assert!(
        snapshot.retries <= snapshot.faults_injected,
        "{stamp}: retry amplification {} exceeds injected faults {}",
        snapshot.retries,
        snapshot.faults_injected
    );
    println!(
        "migration gate numbers: acked_writes={} scale_out_ms={scale_out_ms:.1} \
         drain_ms={drain_ms:.1} retries={} faults_injected={} obj_puts={} dead_letters=0",
        expect.len(),
        snapshot.retries,
        snapshot.faults_injected,
        snapshot.obj_puts,
    );
    fk.shutdown();
}
