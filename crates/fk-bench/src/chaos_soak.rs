//! Chaos soak: a 64-session zipf write mix driven through a live
//! deployment while a seeded [`FaultPlan`] fires at
//! every service boundary, versus a fault-free twin of the same
//! workload.
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

use crate::stats::{self, Summary};
use fk_cloud::FaultPlan;
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::{CreateMode, DistributorConfig};
use fk_workloads::SeededZipf;
use std::collections::BTreeMap;
use std::time::Instant;

/// One chaos-soak measurement configuration. The deployment geometry is
/// fixed (it is part of what the fault schedule replays against); only
/// the chaos seed varies between gate runs, so a single fault-free twin
/// serves as the convergence baseline for every schedule.
#[derive(Debug, Clone)]
pub struct ChaosSoakConfig {
    /// Number of concurrently connected writer sessions.
    pub sessions: usize,
    /// Acknowledged writes issued per session.
    pub writes_per_session: usize,
    /// Number of distinct target nodes (zipf-skewed selection).
    pub nodes: u64,
    /// Zipf skew of the node choice (YCSB default 0.99).
    pub theta: f64,
    /// Payload size of the seeded nodes.
    pub node_size: usize,
    /// Seed for the zipf workload stream (not the fault schedule).
    pub workload_seed: u64,
    /// Leader-tier shard groups.
    pub groups: usize,
    /// Distributor shards.
    pub shards: usize,
}

impl ChaosSoakConfig {
    /// The gate shape: 64 sessions, 3 acknowledged zipf writes each over
    /// 24 nodes, on a two-group leader tier with a three-shard
    /// distributor.
    pub fn standard() -> Self {
        ChaosSoakConfig {
            sessions: 64,
            writes_per_session: 3,
            nodes: 24,
            theta: 0.99,
            node_size: 128,
            workload_seed: 0x50AC,
            groups: 2,
            shards: 3,
        }
    }

    fn deployment(&self) -> DeploymentConfig {
        DeploymentConfig::aws()
            .with_distributor(DistributorConfig::new(self.shards, 16))
            .with_shard_groups(self.groups)
    }
}

/// The ZooKeeper-visible state of one surviving node: data, version,
/// sorted children and ephemeral owner. Transaction ids are deliberately
/// absent — see the module docs.
pub type NodeFingerprint = (Vec<u8>, i64, Vec<String>, Option<String>);

/// Result of one soak run (chaotic or fault-free).
#[derive(Debug, Clone)]
pub struct ChaosSoakResult {
    /// Total acknowledged writes across the fleet.
    pub writes: usize,
    /// What the workload was *acknowledged*: path → (final data, version).
    pub acked: BTreeMap<String, (Vec<u8>, i64)>,
    /// The surviving tree over the acknowledged paths.
    pub tree: BTreeMap<String, NodeFingerprint>,
    /// Retries the unified retry layer performed.
    pub retries: u64,
    /// Faults the chaos engine injected (0 on a fault-free run).
    pub faults_injected: u64,
    /// Messages found on the write- and leader-queue DLQs at drain time.
    pub dead_letters: usize,
    /// Z1 structural violations found by the integrity checker.
    pub integrity_violations: usize,
    /// Wall-clock latency distribution of the acknowledged writes (ms).
    pub latency: Summary,
}

impl ChaosSoakResult {
    /// Paths of every acknowledged write that is missing from the final
    /// tree or present with different data or version — empty on a
    /// healthy run.
    pub fn lost_acks(&self) -> Vec<String> {
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
/// surviving tree. `chaos_seed` installs [`FaultPlan::standard`] with
/// that seed; `None` runs the fault-free twin.
pub fn run_chaos_soak(config: &ChaosSoakConfig, chaos_seed: Option<u64>) -> ChaosSoakResult {
    let mut deployment_config = config.deployment();
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
    let paths: Vec<String> = (0..config.nodes).map(|i| format!("/soak/n{i}")).collect();
    for path in &paths {
        seeder
            .create(path, &vec![0x5A; config.node_size], CreateMode::Persistent)
            .expect("create node");
        acked.insert(path.clone(), (vec![0x5A; config.node_size], 0));
    }

    let clients: Vec<_> = (0..config.sessions)
        .map(|i| fk.connect(format!("soak-{i}")).expect("connect session"))
        .collect();

    // The mix: one shared zipf stream, writes issued round-robin across
    // the fleet. Serializing on each acknowledgement makes the final
    // per-node (data, version) deterministic — the property the twin
    // comparison is stated over — while still exercising every session's
    // own queue group, watermark and close path.
    let mut zipf = SeededZipf::with_theta(config.nodes, config.theta, config.workload_seed);
    let total = config.sessions * config.writes_per_session;
    let mut samples = Vec::with_capacity(total);
    for w in 0..total {
        let client = &clients[w % config.sessions];
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
        latency: stats::summarize(&samples),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ChaosSoakConfig {
        ChaosSoakConfig {
            sessions: 6,
            writes_per_session: 2,
            nodes: 6,
            ..ChaosSoakConfig::standard()
        }
    }

    #[test]
    fn fault_free_soak_is_deterministic_and_clean() {
        let config = small();
        let a = run_chaos_soak(&config, None);
        let b = run_chaos_soak(&config, None);
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
        let config = small();
        let chaotic = run_chaos_soak(&config, Some(0x0DD5));
        let twin = run_chaos_soak(&config, None);
        assert!(chaotic.lost_acks().is_empty(), "{:?}", chaotic.lost_acks());
        assert_eq!(chaotic.tree, twin.tree, "chaos changed the tree");
        assert!(chaotic.retries <= chaotic.faults_injected);
        assert_eq!(chaotic.dead_letters, 0);
        assert_eq!(chaotic.integrity_violations, 0);
    }
}
