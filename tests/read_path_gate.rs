//! Acceptance gate for the client read cache: on a zipf-skewed
//! read-heavy workload the cached client must do at least 5× fewer
//! storage round trips than the uncached baseline, with a matching drop
//! in modeled read latency, and Z1–Z4 stay intact (checked separately by
//! `tests/consistency_properties.rs` with the cache enabled). One
//! session reads through the zipf read driver with the replica tier off.

mod zipf_reads;

use fk_core::deploy::DeploymentConfig;
use fk_core::read_cache::ReadCacheConfig;
use fk_core::UserStoreKind;
use zipf_reads::{compare, run_reads, ReadRunResult, SEED, THETA};

/// The gate's shape: one session, 400 zipf reads over 24 nodes of 1 kB
/// (the paper's standard read configuration).
const READS: usize = 400;
const NODES: u64 = 24;

/// Replay stamp for failure messages, in the `chaos soak seed 0x…`
/// idiom: the printed seed + geometry reproduce the exact run.
fn stamp(config: &DeploymentConfig, nodes: u64) -> String {
    format!(
        "read gate seed {SEED:#x} nodes {nodes} theta {THETA} store {:?} provider {:?}",
        config.user_store, config.provider
    )
}

/// The uncached baseline against `config`'s cache, one session.
fn compare_reads(config: DeploymentConfig, nodes: u64) -> (ReadRunResult, ReadRunResult, f64, f64) {
    let uncached = config.clone().with_read_cache(ReadCacheConfig::disabled());
    compare(uncached, config, 1, READS, nodes)
}

#[test]
fn read_run_is_deterministic() {
    let config = DeploymentConfig::aws().with_read_cache(ReadCacheConfig::with_capacity(16));
    let a = run_reads(config.clone(), 1, 40, 8);
    let b = run_reads(config, 1, 40, 8);
    assert_eq!(a.virtual_time, b.virtual_time, "seeded runs reproduce");
    assert_eq!(a.storage_round_trips, b.storage_round_trips);
    assert_eq!(a.reads, 40);
}

#[test]
fn uncached_baseline_pays_one_round_trip_per_read() {
    let result = run_reads(DeploymentConfig::aws(), 1, 30, 6);
    assert_eq!(result.storage_round_trips, 30);
    assert_eq!(result.hit_ratio, 0.0);
}

#[test]
fn cached_reads_cut_storage_round_trips_5x_on_zipf_workload() {
    let base = DeploymentConfig::aws().with_read_cache(ReadCacheConfig::with_capacity(64));
    let stamp = stamp(&base, NODES);
    let (uncached, cached, trips, speedup) = compare_reads(base, NODES);
    assert_eq!(
        uncached.storage_round_trips, uncached.reads as u64,
        "{stamp}: baseline pays one round trip per read",
    );
    assert!(
        trips >= 5.0,
        "{stamp}: expected ≥5x fewer round trips: uncached {} vs cached {} ({trips:.1}x)",
        uncached.storage_round_trips,
        cached.storage_round_trips,
    );
    assert!(
        speedup >= 5.0,
        "{stamp}: modeled latency should drop with the round trips: {:?} vs {:?} ({speedup:.1}x)",
        uncached.virtual_time,
        cached.virtual_time,
    );
    assert!(
        cached.hit_ratio >= 0.8,
        "{stamp}: read-heavy zipf workload should mostly hit ({:.2})",
        cached.hit_ratio
    );
}

/// A cache smaller than the key space still wins on zipf skew: the hot
/// head stays resident while the cold tail churns through the LRU.
#[test]
fn small_cache_still_wins_under_skew() {
    let base = DeploymentConfig::aws().with_read_cache(ReadCacheConfig::with_capacity(12));
    let stamp = stamp(&base, 48);
    let (uncached, cached, trips, _) = compare_reads(base, 48);
    assert!(
        cached.storage_round_trips < uncached.storage_round_trips / 2,
        "{stamp}: hot-head residency should halve round trips: {} vs {}",
        uncached.storage_round_trips,
        cached.storage_round_trips,
    );
    assert!(trips > 2.0, "{stamp}: round-trip factor {trips:.1}");
}

/// The KV backend gains the same way (the gate is backend-agnostic).
#[test]
fn kv_backend_also_clears_5x() {
    let base = DeploymentConfig::aws()
        .with_user_store(UserStoreKind::KeyValue)
        .with_read_cache(ReadCacheConfig::with_capacity(64));
    let stamp = stamp(&base, NODES);
    let (uncached, cached, trips, _) = compare_reads(base, NODES);
    assert!(
        trips >= 5.0,
        "{stamp}: uncached {} vs cached {} round trips",
        uncached.storage_round_trips,
        cached.storage_round_trips,
    );
}

/// GCP's slower storage makes the cache matter more, not less.
#[test]
fn gcp_profile_also_clears_5x() {
    let base = DeploymentConfig::gcp().with_read_cache(ReadCacheConfig::with_capacity(64));
    let stamp = stamp(&base, NODES);
    let (_, cached, trips, speedup) = compare_reads(base, NODES);
    assert!(trips >= 5.0, "{stamp}: round-trip factor {trips:.1}");
    assert!(speedup >= 5.0, "{stamp}: latency factor {speedup:.1}");
    assert!(
        cached.hit_ratio >= 0.8,
        "{stamp}: hit ratio {:.2}",
        cached.hit_ratio
    );
}

/// Negative caching: polling `exists` on an absent path pays one round
/// trip total instead of one per poll.
#[test]
fn negative_cache_absorbs_exists_polling() {
    use fk_cloud::trace::LatencyMode;
    use fk_core::deploy::Deployment;

    let deployment = Deployment::start(
        DeploymentConfig::aws()
            .with_mode(LatencyMode::Virtual, 0xAB5)
            .with_read_cache(ReadCacheConfig::with_capacity(16)),
    );
    let client = deployment.connect("poller").expect("connect");
    let before = deployment.meter().snapshot();
    for _ in 0..20 {
        assert!(client.exists("/not-there", false).expect("poll").is_none());
    }
    let usage = deployment.meter().snapshot().since(&before);
    assert_eq!(
        usage.obj_gets + usage.per_op.get("kv_read").copied().unwrap_or(0),
        1,
        "one confirming round trip, nineteen negative hits"
    );
    assert_eq!(client.cache_stats().hits, 19);
    drop(client);
    deployment.shutdown();
}
