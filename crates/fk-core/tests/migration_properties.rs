//! Migration property suite: membership changes that lose no writes.
//!
//! Every test drives a *live* deployment under a seeded [`FaultPlan`]
//! and fires a membership change at a seed-derived random point in the
//! middle of a concurrent multi-session workload:
//!
//! * **Scale-out (4 → 8 groups)** — the deployment starts with four of
//!   eight provisioned shard groups accepting writes; mid-workload a
//!   coordinator seeds the joining groups' txid counters past the
//!   committed floors ([`fk_core::Deployment::scale_out`]) and
//!   publishes the widened membership. Followers re-hash across the new
//!   width from their next batch, so roughly half the keys migrate
//!   groups while their sessions are still writing.
//! * **Hot-group drain** — mid-workload one group is marked draining
//!   toward a successor; new submissions re-route from the followers'
//!   next batch while everything already queued finishes under the
//!   normal Z2 hold-back. Once the queue empties the drain completes:
//!   the replica feed reconciles and the group's committed floor
//!   retires from the cluster-wide min.
//!
//! Properties checked in both scenarios: no acknowledged write is lost
//! (exact data and version), Z1/Z2 via the per-node version programs
//! and the tree-integrity validator, Z3 via a concurrent monotone
//! reader spanning the migration, Z4 via armed one-shot watches,
//! bounded retry amplification, drained dead-letter queues, and
//! convergence with a fault-free twin running the same workload and the
//! same migration point on the same geometry.
//!
//! Each case prints a `migration seed 0x…` replay stamp naming the
//! seed, geometry and migration point; `FK_MIGRATION_CASES` scales the
//! number of cases per scenario (CI runs the default; soaks crank it).

use fk_cloud::FaultPlan;
use fk_core::api::CreateMode;
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::system_store::txid;
use fk_core::{DistributorConfig, ReplicaConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const SESSIONS: usize = 4;
const NODES_PER_SESSION: usize = 2;
const SETS_PER_NODE: usize = 3;
const TOTAL_SETS: usize = SESSIONS * NODES_PER_SESSION * SETS_PER_NODE;

/// Reads the per-scenario case count from the `FK_MIGRATION_CASES`
/// environment knob (mirrors `FK_FLEET_SESSIONS`), falling back to
/// `default`.
fn cases_from_env(default: usize) -> usize {
    std::env::var("FK_MIGRATION_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Deterministic seed for a (scenario, case) pair: one seed names the
/// fault schedule, the geometry and the migration point together.
fn seed_for(scenario_tag: u64, case: usize) -> u64 {
    0x4D10 + scenario_tag * 0x1000 + (case as u64) * 0x29
}

/// The membership change a case fires mid-workload.
#[derive(Clone, Copy)]
enum Scenario {
    /// Widen the write-accepting tier to `to` of the provisioned groups.
    ScaleOut { to: usize },
    /// Drain `hot` toward `successor`, completing once its queue empties.
    Drain { hot: usize, successor: usize },
}

impl Scenario {
    fn name(&self) -> &'static str {
        match self {
            Scenario::ScaleOut { .. } => "scale-out",
            Scenario::Drain { .. } => "drain",
        }
    }
}

/// Geometry for a scale-out case: eight provisioned groups, four
/// initially active, with seed-varied distributor shards and replica
/// tier.
fn scale_out_geometry(seed: u64) -> (DeploymentConfig, Scenario, String) {
    let shards = 2 + ((seed / 3) % 2) as usize;
    let replicas = ((seed / 8) % 2) as usize;
    let mut config = DeploymentConfig::aws()
        .with_distributor(DistributorConfig::new(shards, 16))
        .with_shard_groups(8)
        .with_active_groups(4);
    if replicas > 0 {
        config = config.with_replicas(ReplicaConfig::with_count(replicas));
    }
    let describe = format!("groups=4/8 shards={shards} replicas={replicas}");
    (config, Scenario::ScaleOut { to: 8 }, describe)
}

/// Geometry for a drain case: 2–4 fully active groups with a
/// seed-picked hot group and successor, seed-varied shards and replica
/// tier.
fn drain_geometry(seed: u64) -> (DeploymentConfig, Scenario, String) {
    let groups = 2 + (seed % 3) as usize;
    let shards = 2 + ((seed / 3) % 2) as usize;
    let replicas = ((seed / 8) % 2) as usize;
    let hot = (seed / 16) as usize % groups;
    let successor = (hot + 1) % groups;
    let mut config = DeploymentConfig::aws()
        .with_distributor(DistributorConfig::new(shards, 16))
        .with_shard_groups(groups);
    if replicas > 0 {
        config = config.with_replicas(ReplicaConfig::with_count(replicas));
    }
    let describe =
        format!("groups={groups} shards={shards} replicas={replicas} hot={hot}->{successor}");
    (config, Scenario::Drain { hot, successor }, describe)
}

/// What the workload was *acknowledged*: path → (final data, version).
struct Acked {
    expect: BTreeMap<String, (Vec<u8>, i64)>,
}

/// Fires the case's membership change; called once the acknowledged-set
/// counter crosses the seed-derived migration point. A scale-out returns
/// the first joining group and the highest committed floor before it.
fn apply_migration(fk: &Deployment, scenario: Scenario, stamp: &str) -> Option<(usize, u64)> {
    let ctx = fk.client_ctx();
    match scenario {
        Scenario::ScaleOut { to } => {
            let before = fk
                .membership(&ctx)
                .expect("multi-group tier has membership")
                .active_groups;
            let seed_floors = fk
                .scale_out(&ctx, to)
                .unwrap_or_else(|e| panic!("{stamp}: scale_out failed: {e:?}"));
            let ceiling = seed_floors.iter().copied().max().unwrap_or(0);
            let published = fk.floors().snapshot();
            assert!(
                (before..to).all(|g| published[g] > ceiling),
                "{stamp}: a joining group's floor sits at or below {ceiling}: {published:?}"
            );
            let membership = fk
                .membership(&ctx)
                .expect("multi-group tier has membership");
            assert_eq!(
                membership.active_groups, to,
                "{stamp}: widened membership not published"
            );
            Some((before, ceiling))
        }
        Scenario::Drain { hot, successor } => {
            fk.begin_drain(&ctx, hot, successor)
                .unwrap_or_else(|e| panic!("{stamp}: begin_drain failed: {e:?}"));
            let membership = fk
                .membership(&ctx)
                .expect("multi-group tier has membership");
            assert!(
                membership.is_draining(hot),
                "{stamp}: drain mark not published"
            );
            None
        }
    }
}

/// Runs the migrating workload: parallel subtree creates, armed
/// watches, a concurrent monotone reader, parallel sets with the
/// membership change triggered after `migrate_after` acknowledged sets,
/// a post-migration write round on every session, and (for drains) the
/// drain completion plus a post-completion write through the redirect.
fn run_migration_workload(
    fk: &Deployment,
    scenario: Scenario,
    migrate_after: usize,
    stamp: &str,
) -> Acked {
    let root = fk.connect("mig-root").expect("connect root");
    root.create("/mig", b"", CreateMode::Persistent)
        .expect("create root");
    let mut expect = BTreeMap::new();
    expect.insert("/mig".to_owned(), (Vec::new(), 0i64));

    let acked_sets = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut scaled_out = None;

    let mut clients = Vec::new();
    std::thread::scope(|scope| {
        // Phase A: each session creates its subtree (distinct paths,
        // safely parallel) before the migration can fire.
        let mut handles = Vec::new();
        for s in 0..SESSIONS {
            handles.push(scope.spawn(move || {
                let client = fk.connect(format!("mig-s{s}")).expect("connect");
                let mut expect = BTreeMap::new();
                let base = format!("/mig/s{s}");
                client
                    .create(&base, b"base", CreateMode::Persistent)
                    .expect("create base");
                expect.insert(base.clone(), (b"base".to_vec(), 0i64));
                for n in 0..NODES_PER_SESSION {
                    let path = format!("{base}/n{n}");
                    client
                        .create(&path, b"v0", CreateMode::Persistent)
                        .expect("create node");
                    expect.insert(path, (b"v0".to_vec(), 0));
                }
                (client, expect)
            }));
        }
        for handle in handles {
            let (client, partial) = handle.join().expect("phase A session");
            expect.extend(partial);
            clients.push(client);
        }

        // Z4: arm a one-shot data watch on every session's n0 before the
        // migration can re-route the nodes' writes.
        let watcher = fk.connect("mig-watcher").expect("connect watcher");
        for s in 0..SESSIONS {
            watcher
                .get_data(&format!("/mig/s{s}/n0"), true)
                .expect("arm watch");
        }

        // Z3: a concurrent reader must never observe a regressing txid
        // on a node whose writes migrate groups mid-stream.
        let reader = fk.connect("mig-reader").expect("connect reader");
        let stop_ref = &stop;
        let read_thread = scope.spawn(move || {
            let mut last = 0;
            while !stop_ref.load(Ordering::Relaxed) {
                let (_, stat) = reader.get_data("/mig/s0/n0", false).expect("read");
                assert!(
                    stat.modified_txid >= last,
                    "{stamp}: Z3 violated across migration: txid regressed {} < {last}",
                    stat.modified_txid
                );
                last = stat.modified_txid;
            }
        });

        // The migration coordinator: waits for the workload to cross the
        // seed-derived point, then changes membership while sessions are
        // still writing.
        let acked_ref = &acked_sets;
        let migration_thread = scope.spawn(move || {
            while acked_ref.load(Ordering::Relaxed) < migrate_after {
                std::thread::sleep(Duration::from_millis(1));
            }
            apply_migration(fk, scenario, stamp)
        });

        // Phase B: parallel sets spanning the membership change. The
        // acknowledged final value/version per node is fully determined
        // by the per-session program.
        let mut handles = Vec::new();
        for (s, client) in clients.drain(..).enumerate() {
            let acked_ref = &acked_sets;
            handles.push(scope.spawn(move || {
                let mut expect = BTreeMap::new();
                for n in 0..NODES_PER_SESSION {
                    let path = format!("/mig/s{s}/n{n}");
                    let mut last = Vec::new();
                    for v in 1..=SETS_PER_NODE {
                        let value = format!("s{s}n{n}v{v}").into_bytes();
                        client.set_data(&path, &value, -1).expect("set_data");
                        acked_ref.fetch_add(1, Ordering::Relaxed);
                        last = value;
                    }
                    expect.insert(path, (last, SETS_PER_NODE as i64));
                }
                (client, expect)
            }));
        }
        for handle in handles {
            let (client, partial) = handle.join().expect("phase B session");
            expect.extend(partial);
            clients.push(client);
        }
        scaled_out = migration_thread.join().expect("migration coordinator");

        // Phase C: strictly post-migration writes — fresh paths hash
        // over the changed membership, existing sessions keep their Z2
        // ordering through the re-route.
        for (s, client) in clients.iter().enumerate() {
            let path = format!("/mig/post{s}");
            client
                .create(&path, b"p0", CreateMode::Persistent)
                .expect("post-migration create");
            client
                .set_data(&path, b"p1", -1)
                .expect("post-migration set");
            expect.insert(path, (b"p1".to_vec(), 1));
        }
        for client in clients.drain(..) {
            client.close().expect("close");
        }
        stop.store(true, Ordering::Relaxed);
        read_thread.join().expect("monotone reader");

        // Every armed watch fires exactly once despite the migration.
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
            "{stamp}: every armed watch fires across the migration: {events:?}"
        );
    });

    // Drain epilogue: the hot group's queue must empty under its own
    // leader (Z2 hold-back finishes the in-flight suffix), its DLQ must
    // be clean, and the retired group's keys must stay writable through
    // the permanent redirect.
    if let Scenario::Drain { hot, successor } = scenario {
        let ctx = fk.client_ctx();
        let redriven = fk.leader_queues().queue(hot).redrive_dead_letters();
        assert_eq!(
            redriven, 0,
            "{stamp}: draining group parked messages in its DLQ"
        );
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match fk.complete_drain(&ctx, hot) {
                Ok(()) => break,
                Err(e) => {
                    assert!(
                        Instant::now() < deadline,
                        "{stamp}: drain never completed: {e:?}"
                    );
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        let membership = fk
            .membership(&ctx)
            .expect("multi-group tier has membership");
        assert_eq!(
            membership.route(hot),
            successor,
            "{stamp}: drain redirect must persist after completion"
        );
        let late = fk.connect("mig-late").expect("connect late");
        late.create("/mig/final", b"f0", CreateMode::Persistent)
            .expect("post-drain create");
        late.set_data("/mig/final", b"f1", -1)
            .expect("post-drain set");
        late.close().expect("close late");
        expect.insert("/mig/final".to_owned(), (b"f1".to_vec(), 1));
    }

    // Every txid a joining group issued sorts after everything committed
    // before it joined.
    if let Some((first_joiner, ceiling)) = scaled_out {
        for path in expect.keys() {
            let created = read_node_retry(fk, path).map_or(0, |record| record.created_txid);
            assert!(
                txid::group_of(created) < first_joiner || created > ceiling,
                "{stamp}: {path} was created by a joining group at or below {ceiling}"
            );
        }
    }

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
/// and ephemeral owner per node — the ZooKeeper-visible state (txids
/// excluded: crash redeliveries legitimately re-allocate them).
fn fingerprint(fk: &Deployment, paths: &[String]) -> BTreeMap<String, String> {
    paths
        .iter()
        .map(|path| {
            let desc = match read_node_retry(fk, path) {
                None => "absent".to_owned(),
                Some(record) => {
                    let mut children = (*record.children).clone();
                    children.sort();
                    format!(
                        "data={:?} v={} children={:?} eph={:?}",
                        record.data, record.version, children, record.ephemeral_owner
                    )
                }
            };
            (path.clone(), desc)
        })
        .collect()
}

/// Checks every acknowledged write against the final tree.
fn assert_no_lost_acks(fk: &Deployment, acked: &Acked, stamp: &str) {
    for (path, (data, version)) in &acked.expect {
        let record = read_node_retry(fk, path)
            .unwrap_or_else(|| panic!("{stamp}: acknowledged node {path} lost"));
        assert_eq!(
            record.data.as_ref(),
            &data[..],
            "{stamp}: acknowledged data lost on {path}"
        );
        assert_eq!(
            i64::from(record.version),
            *version,
            "{stamp}: acknowledged version lost on {path}"
        );
    }
}

/// One full case: the chaotic run (all properties) followed by the
/// fault-free twin on the same geometry and migration point, and the
/// convergence comparison between the two.
fn run_case(seed: u64, config: DeploymentConfig, scenario: Scenario, describe: &str) {
    let migrate_after = 1 + (seed as usize / 5) % TOTAL_SETS;
    let stamp = format!(
        "migration seed {seed:#x}: scenario={} {describe} migrate_after={migrate_after}",
        scenario.name()
    );
    println!("{stamp} plan=standard");

    let fk = Deployment::start(config.clone().with_chaos(FaultPlan::standard(seed)));
    let acked = run_migration_workload(&fk, scenario, migrate_after, &stamp);
    assert_no_lost_acks(&fk, &acked, &stamp);
    let chaos = fk.chaos().expect("engine installed").clone();
    assert!(
        chaos.total_fired() > 0,
        "{stamp}: schedule never fired — the run proved nothing"
    );
    let snapshot = fk.meter().snapshot();
    assert!(
        snapshot.retries <= snapshot.faults_injected,
        "{stamp}: retry amplification {} exceeds injected faults {}",
        snapshot.retries,
        snapshot.faults_injected
    );
    assert!(
        fk.write_queue().drain_dead_letters().is_empty(),
        "{stamp}: write-queue DLQ not empty"
    );
    assert!(
        fk.leader_queues().drain_dead_letters().is_empty(),
        "{stamp}: leader-queue DLQ not empty"
    );
    let violations = fk_core::consistency::check_tree_integrity(
        &fk.client_ctx(),
        fk.system(),
        fk.user_store().as_ref(),
    );
    assert!(violations.is_empty(), "{stamp}: {violations:#?}");
    let paths: Vec<String> = acked.expect.keys().cloned().collect();
    let chaotic_tree = fingerprint(&fk, &paths);
    fk.shutdown();

    // The fault-free twin: same geometry, same workload, same migration
    // point, no chaos.
    let twin = Deployment::start(config);
    let twin_acked = run_migration_workload(&twin, scenario, migrate_after, &stamp);
    let twin_tree = fingerprint(&twin, &paths);
    assert_eq!(
        chaotic_tree, twin_tree,
        "{stamp}: chaotic tree diverged from fault-free twin"
    );
    assert_eq!(acked.expect, twin_acked.expect);
    twin.shutdown();
}

/// 4 → 8 group scale-out at a random point mid-workload under seeded
/// chaos: no acked write lost, Z1–Z4 hold, widened membership sticks.
#[test]
fn scale_out_migrates_half_the_keyspace_without_losing_writes() {
    for case in 0..cases_from_env(2) {
        let seed = seed_for(1, case);
        let (config, scenario, describe) = scale_out_geometry(seed);
        run_case(seed, config, scenario, &describe);
    }
}

/// Hot-group drain at a random point mid-workload under seeded chaos:
/// in-flight writes finish under Z2 hold-back, re-routed writes land in
/// the successor, the drained queue and DLQ end empty, and the redirect
/// outlives the drain.
#[test]
fn hot_group_drain_finishes_in_flight_writes_and_reroutes_new_ones() {
    for case in 0..cases_from_env(2) {
        let seed = seed_for(2, case);
        let (config, scenario, describe) = drain_geometry(seed);
        run_case(seed, config, scenario, &describe);
    }
}
