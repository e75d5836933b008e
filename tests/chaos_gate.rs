//! Acceptance gate for the chaos soak: eight distinct seeded fault
//! schedules played against the 64-session zipf write mix, each judged
//! against one fault-free twin of the same deterministic workload.
//!
//! Per schedule the gate demands **zero acknowledged-write loss** (every
//! `Ok` the client API returned is in the final tree with the promised
//! data and version), **convergence** (the surviving tree — data,
//! versions, children, ephemeral owners — is identical to the twin's),
//! **bounded retry amplification** (`retries ≤ faults_injected`: every
//! retry is accounted to an injected fault), **drained dead-letter
//! queues** and a **clean Z1 integrity sweep**. A failing schedule
//! prints its `chaos soak seed 0x…`; the same seed replays the same
//! fault decisions (see `docs/fault_tolerance.md`).
//!
//! The soak drives a live deployment while a seeded [`FaultPlan`] fires
//! at every service boundary.
//!
//! The workload is issued in a single deterministic global order (writes
//! round-robin across the fleet, each acknowledged before the next is
//! submitted), so the acknowledged final tree — data, versions,
//! children, ephemeral owners — is a pure function of the workload seed.
//! A chaotic run must therefore reproduce the twin's tree *exactly*: any
//! lost acknowledged write, double-applied redelivery or stranded commit
//! shows up as a fingerprint mismatch. Transaction ids are excluded (a
//! crash redelivery legitimately re-allocates them, invisible to the
//! ZooKeeper API surface).
//!
//! The interesting numbers besides convergence are **retry
//! amplification** (every retry must be accounted to an injected fault),
//! **dead-letter depth** (the soak must drain clean) and the **write
//! latency distribution** under faults versus the fault-free baseline
//! (the price of the retry/backoff layer when the cloud misbehaves).

use fk_cloud::FaultPlan;
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::{CreateMode, DistributorConfig};
use fk_workloads::SeededZipf;
use std::collections::BTreeMap;
use std::time::Instant;

/// The gate's fleet: 64 sessions, 3 acknowledged zipf writes each over
/// 24 nodes of 128 B. The deployment geometry — a two-group leader tier
/// with a three-shard distributor — is fixed too (it is part of what a
/// fault schedule replays against), so one fault-free twin baselines
/// every schedule.
const SESSIONS: usize = 64;
const WRITES_PER_SESSION: usize = 3;
const NODES: u64 = 24;
const NODE_SIZE: usize = 128;
/// Zipf skew of the node choice (YCSB default 0.99).
const THETA: f64 = 0.99;
/// Seed of the zipf workload stream (not of the fault schedule).
const WORKLOAD_SEED: u64 = 0x50AC;
const GROUPS: usize = 2;
const SHARDS: usize = 3;

/// The sorted sample at the rounded rank `p` of `samples` (ms).
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
    samples[((samples.len() - 1) as f64 * p).round() as usize]
}

/// The ZooKeeper-visible state of one surviving node: data, version,
/// sorted children and ephemeral owner. Transaction ids are deliberately
/// absent — see the module docs.
type NodeFingerprint = (Vec<u8>, i64, Vec<String>, Option<String>);

/// Result of one soak run (chaotic or fault-free).
struct ChaosSoakResult {
    /// Total acknowledged writes across the fleet.
    writes: usize,
    /// What the workload was *acknowledged*: path → (final data, version).
    acked: BTreeMap<String, (Vec<u8>, i64)>,
    /// The surviving tree over the acknowledged paths.
    tree: BTreeMap<String, NodeFingerprint>,
    /// Retries the unified retry layer performed.
    retries: u64,
    /// Faults the chaos engine injected (0 on a fault-free run).
    faults_injected: u64,
    /// Messages found on the write- and leader-queue DLQs at drain time.
    dead_letters: usize,
    /// Z1 structural violations found by the integrity checker.
    integrity_violations: usize,
    /// Wall-clock p50 and p99 of the acknowledged writes (ms).
    latency_ms: (f64, f64),
}

impl ChaosSoakResult {
    /// Paths of every acknowledged write that is missing from the final
    /// tree or present with different data or version — empty on a
    /// healthy run.
    fn lost_acks(&self) -> Vec<String> {
        self.acked
            .iter()
            .filter(|(path, (data, version))| match self.tree.get(*path) {
                Some((d, v, _, _)) => d != data || v != version,
                None => true,
            })
            .map(|(path, _)| path.clone())
            .collect()
    }
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

/// Runs the soak: seeds the tree, connects the fleet, plays the
/// deterministic zipf write mix (round-robin across sessions, each write
/// acknowledged before the next is issued), closes every session, then
/// drains the DLQs, runs the integrity checker and fingerprints the
/// surviving tree. `sessions` sessions issue `writes_per_session`
/// acknowledged writes each over `nodes` nodes. `chaos_seed` installs
/// [`FaultPlan::standard`] with that seed; `None` runs the fault-free
/// twin.
fn run_chaos_soak(
    sessions: usize,
    writes_per_session: usize,
    nodes: u64,
    chaos_seed: Option<u64>,
) -> ChaosSoakResult {
    let mut deployment_config = DeploymentConfig::aws()
        .with_distributor(DistributorConfig::new(SHARDS, 16))
        .with_shard_groups(GROUPS);
    if let Some(seed) = chaos_seed {
        deployment_config = deployment_config.with_chaos(FaultPlan::standard(seed));
    }
    let fk = Deployment::start(deployment_config);

    let seeder = fk.connect("soak-seeder").expect("connect seeder");
    seeder
        .create("/soak", b"", CreateMode::Persistent)
        .expect("create root");
    let mut acked = BTreeMap::new();
    acked.insert("/soak".to_owned(), (Vec::new(), 0));
    let paths: Vec<String> = (0..nodes).map(|i| format!("/soak/n{i}")).collect();
    for path in &paths {
        seeder
            .create(path, &[0x5A; NODE_SIZE], CreateMode::Persistent)
            .expect("create node");
        acked.insert(path.clone(), (vec![0x5A; NODE_SIZE], 0));
    }

    let clients: Vec<_> = (0..sessions)
        .map(|i| fk.connect(format!("soak-{i}")).expect("connect session"))
        .collect();

    // The mix: one shared zipf stream, writes issued round-robin across
    // the fleet. Serializing on each acknowledgement makes the final
    // per-node (data, version) deterministic — the property the twin
    // comparison is stated over — while still exercising every session's
    // own queue group, watermark and close path.
    let mut zipf = SeededZipf::with_theta(nodes, THETA, WORKLOAD_SEED);
    let total = sessions * writes_per_session;
    let mut samples = Vec::with_capacity(total);
    for w in 0..total {
        let client = &clients[w % sessions];
        let node = zipf.next_key() as usize;
        let value = format!("w{w}-n{node}").into_bytes();
        let started = Instant::now();
        client
            .set_data(&paths[node], &value, -1)
            .expect("acknowledged write");
        samples.push(started.elapsed().as_secs_f64() * 1e3);
        let slot = acked.get_mut(&paths[node]).expect("seeded node");
        *slot = (value, slot.1 + 1);
    }
    for (i, client) in clients.into_iter().enumerate() {
        if let Err(e) = client.close() {
            let wdlq = fk.write_queue().drain_dead_letters();
            let ldlq = fk.leader_queues().drain_dead_letters();
            for m in &wdlq {
                eprintln!(
                    "write DLQ: attempt={} group={:?} req={:?}",
                    m.attempt,
                    m.group,
                    fk_core::messages::ClientRequest::decode(&m.body).map(|r| (
                        r.session_id,
                        r.request_id,
                        format!("{:?}", r.op)
                    ))
                );
            }
            for m in &ldlq {
                let r = fk_core::messages::LeaderRecord::decode(&m.body);
                eprintln!(
                    "leader DLQ: attempt={} group={:?} rec={:?}",
                    m.attempt,
                    m.group,
                    r.as_ref().map(|r| (
                        &r.session_id,
                        r.request_id,
                        r.txid,
                        r.prev_txid,
                        r.deregister_session,
                        r.path()
                    ))
                );
            }
            panic!(
                "close session {i} failed: {e:?}; write DLQ {} msgs, leader DLQ {} msgs, meter {:?}",
                wdlq.len(),
                ldlq.len(),
                fk.meter().snapshot().per_op
            );
        }
    }
    seeder.close().expect("close seeder");

    let dead_letters =
        fk.write_queue().drain_dead_letters().len() + fk.leader_queues().drain_dead_letters().len();
    let integrity_violations = fk_core::consistency::check_tree_integrity(
        &fk.client_ctx(),
        fk.system(),
        fk.user_store().as_ref(),
    )
    .len();
    let tree = acked
        .keys()
        .map(|path| {
            let fingerprint = match read_node_retry(&fk, path) {
                None => (Vec::new(), -1, Vec::new(), None),
                Some(record) => {
                    let mut children = (*record.children).clone();
                    children.sort();
                    (
                        record.data.as_ref().to_vec(),
                        i64::from(record.version),
                        children,
                        record.ephemeral_owner.clone(),
                    )
                }
            };
            (path.clone(), fingerprint)
        })
        .collect();
    let snapshot = fk.meter().snapshot();
    fk.shutdown();

    ChaosSoakResult {
        writes: total,
        acked,
        tree,
        retries: snapshot.retries,
        faults_injected: snapshot.faults_injected,
        dead_letters,
        integrity_violations,
        latency_ms: (
            percentile(&mut samples, 0.50),
            percentile(&mut samples, 0.99),
        ),
    }
}

#[test]
fn fault_free_soak_is_deterministic_and_clean() {
    let a = run_chaos_soak(6, 2, 6, None);
    let b = run_chaos_soak(6, 2, 6, None);
    assert_eq!(a.writes, 12);
    assert_eq!(a.acked, b.acked, "seeded workload reproduces");
    assert_eq!(a.tree, b.tree);
    assert!(a.lost_acks().is_empty(), "{:?}", a.lost_acks());
    assert_eq!(a.retries, 0);
    assert_eq!(a.faults_injected, 0);
    assert_eq!(a.dead_letters, 0);
    assert_eq!(a.integrity_violations, 0);
}

#[test]
fn chaotic_soak_converges_to_fault_free_twin() {
    let chaotic = run_chaos_soak(6, 2, 6, Some(0x0DD5));
    let twin = run_chaos_soak(6, 2, 6, None);
    assert!(chaotic.lost_acks().is_empty(), "{:?}", chaotic.lost_acks());
    assert_eq!(chaotic.tree, twin.tree, "chaos changed the tree");
    assert!(chaotic.retries <= chaotic.faults_injected);
    assert_eq!(chaotic.dead_letters, 0);
    assert_eq!(chaotic.integrity_violations, 0);
}

/// The eight fixed fault schedules the gate replays, all against the
/// same geometry and workload seed so one twin baselines every run.
const SEEDS: [u64; 8] = [
    0x0A11, 0x0B22, 0x0C33, 0x0D44, 0x0E55, 0x0F66, 0x1077, 0x1188,
];

#[test]
fn soak_survives_eight_seeded_fault_schedules() {
    let twin = run_chaos_soak(SESSIONS, WRITES_PER_SESSION, NODES, None);
    println!(
        "fault-free twin: {} writes, p50 {:.2} ms, p99 {:.2} ms",
        twin.writes, twin.latency_ms.0, twin.latency_ms.1
    );
    assert!(
        twin.lost_acks().is_empty(),
        "twin lost {:?}",
        twin.lost_acks()
    );
    assert_eq!(twin.retries, 0, "fault-free run must not retry");
    assert_eq!(twin.faults_injected, 0);
    assert_eq!(twin.dead_letters, 0);
    assert_eq!(twin.integrity_violations, 0);

    for seed in SEEDS {
        let chaotic = run_chaos_soak(SESSIONS, WRITES_PER_SESSION, NODES, Some(seed));
        println!(
            "chaos soak seed {seed:#x}: {} retries / {} faults, \
             p50 {:.2} ms, p99 {:.2} ms (twin p99 {:.2} ms)",
            chaotic.retries,
            chaotic.faults_injected,
            chaotic.latency_ms.0,
            chaotic.latency_ms.1,
            twin.latency_ms.1,
        );
        assert!(
            chaotic.faults_injected > 0,
            "chaos soak seed {seed:#x}: schedule never fired — the run proved nothing"
        );
        let lost = chaotic.lost_acks();
        assert!(
            lost.is_empty(),
            "chaos soak seed {seed:#x}: acknowledged writes lost on {lost:?}"
        );
        assert_eq!(
            chaotic.acked, twin.acked,
            "chaos soak seed {seed:#x}: acknowledged workload diverged from the twin"
        );
        assert_eq!(
            chaotic.tree, twin.tree,
            "chaos soak seed {seed:#x}: surviving tree diverged from the fault-free twin"
        );
        assert!(
            chaotic.retries <= chaotic.faults_injected,
            "chaos soak seed {seed:#x}: retry amplification {} exceeds injected faults {}",
            chaotic.retries,
            chaotic.faults_injected
        );
        assert_eq!(
            chaotic.dead_letters, 0,
            "chaos soak seed {seed:#x}: dead letters left behind"
        );
        assert_eq!(
            chaotic.integrity_violations, 0,
            "chaos soak seed {seed:#x}: Z1 integrity violations"
        );
    }
}
