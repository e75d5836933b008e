//! The zipf read driver of the two read gates (`read_path_gate.rs`,
//! `replica_gate.rs`): sessions with private read caches, reading
//! through the shared regional read-replica tier or not, on a zipf read
//! mix under the calibrated virtual-time latency model.
//!
//! The interesting numbers are **storage round trips** (billable
//! requests the user store actually served — cache and replica hits are
//! metered but never billed) and the sessions' summed **virtual time**
//! over the read loops. A hit costs no round trip and only the client's
//! bookkeeping or the replica's in-memory serve, so both collapse
//! together as the hit ratio rises.

use fk_cloud::trace::LatencyMode;
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::{ClientConfig, CreateMode};
use fk_workloads::SeededZipf;
use std::time::Duration;

/// Seed of the zipf streams and latency sampling.
pub const SEED: u64 = 0x5EED;
/// Zipf skew of the key choice (YCSB default 0.99).
pub const THETA: f64 = 0.99;
/// Payload size per node.
const NODE_SIZE: usize = 1024;

/// Result of one read run.
pub struct ReadRunResult {
    /// Reads performed across all sessions.
    pub reads: usize,
    /// Billable storage requests the user store served for them.
    pub storage_round_trips: u64,
    /// Replica hits over the measured reads (metered, never billed).
    pub replica_hits: u64,
    /// Virtual time summed over every session's read loop.
    pub virtual_time: Duration,
    /// Read-cache hit ratio over every session's reads (0.0 when the
    /// cache is disabled).
    pub hit_ratio: f64,
}

/// Runs `sessions × reads_per_session` zipf-skewed `get_data` calls over
/// `nodes` nodes through a live deployment of `config` — one
/// independently seeded zipf stream per session, reads interleaved
/// round-robin across the sessions — and measures storage round trips,
/// replica hits, the cache hit ratio and summed client virtual time over
/// the read loops only (setup writes are excluded by snapshotting).
pub fn run_reads(
    config: DeploymentConfig,
    sessions: usize,
    reads_per_session: usize,
    nodes: u64,
) -> ReadRunResult {
    let deployment = Deployment::start(config.with_mode(LatencyMode::Virtual, SEED));

    // Seed the tree through an ordinary session: the leader's epoch
    // stream populates the replicas as a side effect of distribution,
    // exactly as it would in production.
    let seeder = deployment.connect("read-seeder").expect("connect");
    let paths: Vec<String> = (0..nodes).map(|i| format!("/rp-n{i}")).collect();
    for path in &paths {
        seeder
            .create(path, &[0x5A; NODE_SIZE], CreateMode::Persistent)
            .expect("create node");
    }

    let clients: Vec<_> = (0..sessions)
        .map(|i| {
            deployment
                .connect_with(ClientConfig::new(format!("reader-{i}")).with_read_workers(1))
                .expect("connect session")
        })
        .collect();
    let mut streams: Vec<SeededZipf> = (0..sessions)
        .map(|i| SeededZipf::with_theta(nodes, THETA, SEED ^ (i as u64 + 1)))
        .collect();

    let meter_before = deployment.meter().snapshot();
    let time_before: Vec<Duration> = clients.iter().map(|c| c.elapsed()).collect();
    for _ in 0..reads_per_session {
        for (client, zipf) in clients.iter().zip(streams.iter_mut()) {
            let path = &paths[zipf.next_key() as usize];
            client.get_data(path, false).expect("read node");
        }
    }
    let virtual_time = clients
        .iter()
        .zip(&time_before)
        .map(|(c, before)| c.elapsed() - *before)
        .sum();
    let usage = deployment.meter().snapshot().since(&meter_before);
    // Every user-store backend serves a read with KV gets, object gets,
    // or cache ops; sum what actually happened during the loop.
    let storage_round_trips =
        usage.obj_gets + usage.mem_ops + usage.per_op.get("kv_read").copied().unwrap_or(0);
    let (hits, served) = clients.iter().fold((0, 0), |(hits, served), c| {
        let stats = c.cache_stats();
        let avoided = stats.hits + stats.coalesced;
        (hits + avoided, served + avoided + stats.misses)
    });
    let result = ReadRunResult {
        reads: sessions * reads_per_session,
        storage_round_trips,
        replica_hits: usage.replica_hits,
        virtual_time,
        hit_ratio: if served == 0 {
            0.0
        } else {
            hits as f64 / served as f64
        },
    };
    drop(clients);
    drop(seeder);
    deployment.shutdown();
    result
}

/// Runs `baseline` and `config` on the same seeded workload; returns
/// `(baseline, run, round-trip factor, speedup)` — factor = baseline
/// round trips / the run's round trips, speedup = baseline virtual time
/// / the run's virtual time.
pub fn compare(
    baseline: DeploymentConfig,
    config: DeploymentConfig,
    sessions: usize,
    reads_per_session: usize,
    nodes: u64,
) -> (ReadRunResult, ReadRunResult, f64, f64) {
    let base = run_reads(baseline, sessions, reads_per_session, nodes);
    let run = run_reads(config, sessions, reads_per_session, nodes);
    let trips = base.storage_round_trips as f64 / run.storage_round_trips.max(1) as f64;
    let speedup = base.virtual_time.as_secs_f64() / run.virtual_time.as_secs_f64().max(1e-12);
    for (label, r) in [("baseline", &base), ("run", &run)] {
        println!(
            "{label}: {} reads, {} round trips, {} replica hits, hit ratio {:.2}, {:?}",
            r.reads, r.storage_round_trips, r.replica_hits, r.hit_ratio, r.virtual_time
        );
    }
    println!("round-trip factor {trips:.1}x, speedup {speedup:.1}x");
    (base, run, trips, speedup)
}
