//! Shared property-test strategies for the FaaSKeeper suites.
//!
//! Every property suite explores the same configuration space — how
//! many shards, how wide the leader tier, how big the cache, how the
//! replica tier lags, which faults fire — and before this crate each
//! suite carried its own copy of those ranges. The ranges *are* the
//! contract ("geometry must be semantically invisible"), so they live
//! here once: a suite that needs a random pipeline asks for
//! [`geometry::distributor_config`] and automatically covers the same
//! space every other suite covers, including whatever the space grows
//! to later.
//!
//! The numeric ranges are deliberately small: each proptest case spins
//! a full deployment with real threads, so the value of a case comes
//! from *combining* dimensions, not from deep values in one dimension.

pub use proptest;

use fk_cloud::Meter;
use fk_core::UserStore;

/// Every user-store back-end, named: `object`, `key-value`, `hybrid` (the
/// paper's 4 kB split), `hybrid-16` (a hybrid that offloads every frame
/// whose payload is above 16 B), `memory` and `durable` — each over fresh
/// services metering to `meter`.
///
/// A macro so that fk-core's own unit tests, which name fk-core `crate`,
/// build the same list: `$core` is fk-core's name where it expands.
/// Everywhere else, call [`user_stores`].
#[macro_export]
macro_rules! user_store_backends {
    ($core:ident, $meter:expr) => {{
        use ::fk_cloud::{KvStore, MemStore, ObjectStore, Region};
        use $core::user_store::KvUserStore;
        let (meter, region): (&::fk_cloud::Meter, _) = ($meter, Region::US_EAST_1);
        let table = || KvStore::new("u", region, meter.clone());
        let bucket = || ObjectStore::new("u", region, meter.clone());
        let hybrid = |threshold| KvUserStore::hybrid(table(), bucket(), threshold);
        let durable = $core::durable::DurableUserStore::open_sim(region, meter.clone(), None);
        let stores: Vec<(&'static str, Box<dyn $core::UserStore>)> = vec![
            ("object", Box::new(bucket())),
            ("key-value", Box::new(KvUserStore::new(table()))),
            ("hybrid", Box::new(hybrid(4096))),
            ("hybrid-16", Box::new(hybrid(16))),
            ("memory", Box::new(MemStore::new(region, meter.clone()))),
            ("durable", Box::new(durable.expect("a fresh device opens"))),
        ];
        stores
    }};
}

/// Every user-store back-end, named ([`user_store_backends!`]).
pub fn user_stores(meter: &Meter) -> Vec<(&'static str, Box<dyn UserStore>)> {
    user_store_backends!(fk_core, meter)
}

/// Deployment/pipeline geometry strategies.
pub mod geometry {
    use fk_cloud::chaos::{FaultPlan, FaultSpec};
    use fk_core::distributor::DistributorConfig;
    use fk_core::read_cache::ReadCacheConfig;
    use fk_core::replica::ReplicaConfig;
    use proptest::prelude::*;

    /// Distributor shard counts (`1..9`).
    pub fn shards() -> impl Strategy<Value = usize> {
        1usize..9
    }

    /// Epoch batch sizes (`1..33`).
    pub fn epoch_batch() -> impl Strategy<Value = usize> {
        1usize..33
    }

    /// Leader-tier widths including the single-leader degenerate case
    /// (`1..5`).
    pub fn leader_groups() -> impl Strategy<Value = usize> {
        1usize..5
    }

    /// Leader-tier widths that force a *multi*-leader tier (`2..7`) —
    /// for suites whose subject is cross-group interleaving.
    pub fn multi_leader_groups() -> impl Strategy<Value = usize> {
        2usize..7
    }

    /// Power-of-two leader-tier widths (`1 | 2 | 4`) — for suites whose
    /// deployments are heavy enough that the sweep must stay coarse.
    pub fn pow2_groups() -> impl Strategy<Value = usize> {
        prop_oneof![Just(1usize), Just(2), Just(4)]
    }

    /// Power-of-two shard counts (`1 | 4`) for the same coarse sweeps.
    pub fn pow2_shards() -> impl Strategy<Value = usize> {
        prop_oneof![Just(1usize), Just(4)]
    }

    /// Client read-cache capacities, including 0 (exact passthrough)
    /// and values small enough to thrash the LRU (`0..17`).
    pub fn cache_capacity() -> impl Strategy<Value = usize> {
        0usize..17
    }

    /// Replica counts per region (`1..4`).
    pub fn replica_count() -> impl Strategy<Value = usize> {
        1usize..4
    }

    /// Replica byte budgets: thrashing, tight, and effectively
    /// unbounded.
    pub fn byte_budget() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(2 * 1024usize),
            Just(64 * 1024usize),
            Just(64 * 1024 * 1024usize),
        ]
    }

    /// Injected replica feed lag, in epochs (`0..6`).
    pub fn feed_lag() -> impl Strategy<Value = usize> {
        0usize..6
    }

    /// Injected crash counts for one function role (`0..3`).
    pub fn crash_count() -> impl Strategy<Value = u64> {
        0u64..3
    }

    /// Seeds for deterministic schedules and zipf generators
    /// (`0..10_000`).
    pub fn schedule_seed() -> impl Strategy<Value = u64> {
        0u64..10_000
    }

    /// A full random distributor pipeline: shards × epoch batch ×
    /// leader groups.
    pub fn distributor_config() -> impl Strategy<Value = DistributorConfig> {
        (shards(), epoch_batch(), leader_groups())
            .prop_map(|(s, b, g)| DistributorConfig::new(s, b).with_groups(g))
    }

    /// A random client read-cache configuration (its capacity).
    pub fn cache_config() -> impl Strategy<Value = ReadCacheConfig> {
        cache_capacity().prop_map(ReadCacheConfig::with_capacity)
    }

    /// A random replica-tier configuration (count × byte budget ×
    /// feed lag).
    pub fn replica_config() -> impl Strategy<Value = ReplicaConfig> {
        (replica_count(), byte_budget(), feed_lag()).prop_map(|(count, budget, lag)| {
            ReplicaConfig::with_count(count)
                .with_byte_budget(budget)
                .with_feed_lag(lag)
        })
    }

    /// A random seeded chaos plan in the soak band the chaos gate uses:
    /// low-probability bounded faults on every service class, or
    /// disabled entirely.
    pub fn fault_plan() -> impl Strategy<Value = FaultPlan> {
        prop_oneof![
            Just(FaultPlan::disabled()),
            (1u64..10_000, 1u64..4, 1u64..4).prop_map(|(seed, kv, obj)| {
                let mut plan = FaultPlan::disabled();
                plan.seed = seed;
                plan.kv_error = FaultSpec::new(0.02, kv);
                plan.obj_error = FaultSpec::new(0.02, obj);
                plan.queue_error = FaultSpec::new(0.01, 2);
                plan
            }),
        ]
    }

    /// A random small znode tree, as a parent-closed path list in
    /// creation order (every parent precedes its children). Built from
    /// a spec of `(parent_pick, name)` pairs: each node attaches under
    /// one of the previously created nodes (or the root level), so
    /// arbitrary shapes — chains, stars, mixed fan-out — all appear.
    pub fn tree_paths() -> impl Strategy<Value = Vec<String>> {
        proptest::collection::vec((0usize..64, 0u8..5), 1..16).prop_map(spec_to_tree)
    }

    fn spec_to_tree(spec: Vec<(usize, u8)>) -> Vec<String> {
        let mut paths: Vec<String> = Vec::new();
        for (pick, name) in spec {
            // slot 0 = top level, 1..=len = under paths[slot - 1].
            let slot = pick % (paths.len() + 1);
            let parent = if slot == 0 {
                String::new()
            } else {
                paths[slot - 1].clone()
            };
            let path = format!("{parent}/n{name}");
            if !paths.contains(&path) {
                paths.push(path);
            }
        }
        paths
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use proptest::test_runner::TestRng;

        #[test]
        fn tree_paths_are_parent_closed() {
            for case in 0..64u64 {
                let mut rng = TestRng::for_case(case);
                let paths = tree_paths().generate(&mut rng);
                assert!(!paths.is_empty());
                for (i, path) in paths.iter().enumerate() {
                    assert!(path.starts_with('/'));
                    if let Some(idx) = path.rfind('/') {
                        if idx > 0 {
                            let parent = &path[..idx];
                            assert!(
                                paths[..i].iter().any(|p| p == parent),
                                "parent {parent} of {path} must precede it"
                            );
                        }
                    }
                }
            }
        }

        #[test]
        fn composite_configs_generate() {
            for case in 0..32u64 {
                let mut rng = TestRng::for_case(case);
                let d = distributor_config().generate(&mut rng);
                assert!(d.shards >= 1 && d.shards < 9);
                let r = replica_config().generate(&mut rng);
                assert!(r.enabled());
                let _ = cache_config().generate(&mut rng);
                let _ = fault_plan().generate(&mut rng);
            }
        }
    }
}
