//! Property-based consistency validation: randomized concurrent workloads
//! against a live FaaSKeeper deployment, checked against the Z1–Z4
//! validators (Appendix A/B), including under injected function crashes,
//! under randomized sharded, epoch-batched distribution pipelines with
//! zipf-skewed key choice, and — since the read-cache refactor — with the
//! client read cache enabled at random capacities (capacity 0 being the
//! exact uncached passthrough), and — since the replica tier — with
//! shared regional read replicas at random geometry (count × byte
//! budget × injected feed lag), which must likewise be semantically
//! invisible.

use fk_core::consistency::{check_history, check_tree_integrity, HEvent, HistoryRecorder};
use fk_core::deploy::{fn_names, Deployment, DeploymentConfig};
use fk_core::distributor::{shard_of, DistributorConfig};
use fk_core::read_cache::ReadCacheConfig;
use fk_core::replica::ReplicaConfig;
use fk_core::{ClientConfig, CreateMode};
use fk_testkit::geometry;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// A randomized client action.
#[derive(Debug, Clone)]
enum Action {
    Create { node: u8, size: u16 },
    SetData { node: u8, size: u16 },
    Delete { node: u8 },
    Read { node: u8 },
    ReadWithWatch { node: u8 },
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u8..6, 0u16..2048).prop_map(|(node, size)| Action::Create { node, size }),
        (0u8..6, 0u16..2048).prop_map(|(node, size)| Action::SetData { node, size }),
        (0u8..6).prop_map(|node| Action::Delete { node }),
        (0u8..6).prop_map(|node| Action::Read { node }),
        (0u8..6).prop_map(|node| Action::ReadWithWatch { node }),
    ]
}

/// Crash-injection plan for one run.
#[derive(Debug, Clone, Copy, Default)]
struct Crashes {
    follower: u64,
    leader: u64,
}

/// Starts a deployment with `crashes` injected into its functions.
fn start_with_crashes(config: DeploymentConfig, crashes: Crashes) -> Deployment {
    let fk = Deployment::start(config);
    if crashes.follower > 0 {
        fk.runtime()
            .inject_crashes(fn_names::FOLLOWER, crashes.follower)
            .unwrap();
    }
    if crashes.leader > 0 {
        fk.runtime()
            .inject_crashes(fn_names::LEADER, crashes.leader)
            .unwrap();
    }
    fk
}

/// Waits for the pipeline to quiesce, then validates structural
/// integrity (Z1) too.
fn quiesce(fk: &Deployment) {
    let ctx = fk_cloud::trace::Ctx::disabled();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let violations = check_tree_integrity(&ctx, fk.system(), fk.user_store().as_ref());
        if violations.is_empty() || std::time::Instant::now() > deadline {
            assert!(violations.is_empty(), "tree integrity: {violations:#?}");
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

fn run_workload(
    actions_per_client: Vec<Vec<Action>>,
    crashes: Crashes,
    distributor: DistributorConfig,
    cache: ReadCacheConfig,
    replicas: ReplicaConfig,
) -> (
    Vec<fk_core::consistency::HEvent>,
    HashMap<String, HashSet<u64>>,
) {
    let config = DeploymentConfig::aws()
        .with_distributor(distributor)
        .with_read_cache(cache)
        .with_replicas(replicas);
    let fk = start_with_crashes(config, crashes);
    let recorder = HistoryRecorder::new();
    let root = fk.connect("root").unwrap();
    root.create("/p", b"", CreateMode::Persistent).unwrap();

    let mut watch_ids = HashMap::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (c, actions) in actions_per_client.into_iter().enumerate() {
            let config = ClientConfig::new(format!("client-{c}")).with_recorder(recorder.clone());
            let client = fk.connect_with(config).unwrap();
            handles.push(scope.spawn(move || {
                for action in actions {
                    let path = |n: u8| format!("/p/n{n}");
                    match action {
                        Action::Create { node, size } => {
                            let _ = client.create(
                                &path(node),
                                &vec![node; size as usize],
                                CreateMode::Persistent,
                            );
                        }
                        Action::SetData { node, size } => {
                            let _ = client.set_data(&path(node), &vec![node; size as usize], -1);
                        }
                        Action::Delete { node } => {
                            let _ = client.delete(&path(node), -1);
                        }
                        Action::Read { node } => {
                            let _ = client.get_data(&path(node), false);
                        }
                        Action::ReadWithWatch { node } => {
                            let _ = client.get_data(&path(node), true);
                        }
                    }
                }
                (client.session_id().to_owned(), client.my_watch_ids())
            }));
        }
        for handle in handles {
            let (session, ids) = handle.join().unwrap();
            watch_ids.insert(session, ids);
        }
    });

    quiesce(&fk);
    fk.shutdown();
    (recorder.events(), watch_ids)
}

/// The completion wait of a submitted write, whatever it resolves to.
fn waiter<T: Clone + Send + Sync + 'static>(
    submitted: fk_core::FkResult<fk_core::OpHandle<T>>,
) -> Box<dyn FnOnce()> {
    let handle = submitted.expect("session open");
    Box::new(move || drop(handle.wait()))
}

/// Pipelined sessions whose writes mix multis with single writes on
/// sibling (`/p/n<k>`) and parent/child (`/p/n<k>/c<j>`) paths, so the
/// leader's batches hold multis *between* their neighbours: each of
/// `clients` sessions keeps up to eight writes in flight and reads (half
/// the time arming a watch) in between. The op mix is a pure function of
/// `seed`.
///
/// A session writes two nodes of its own and their children, and reads
/// everyone's: followers of different sessions then never spin on one
/// node lock, which on a loaded box can exhaust a request's deliveries
/// and strand the pipelined session behind the lost result (ROADMAP
/// item 4's flake class). A child is named into its parent's leader
/// lane, so every multi mutates nodes of one lane (a node's writes are
/// ordered by its own lane only).
fn run_pipelined_multis(
    seed: u64,
    clients: usize,
    ops: usize,
    distributor: DistributorConfig,
    crashes: Crashes,
) -> (Vec<HEvent>, HashMap<String, HashSet<u64>>) {
    use fk_cloud::queue::group_of;
    use fk_core::ops::Op;
    let fk = start_with_crashes(
        DeploymentConfig::aws().with_distributor(distributor),
        crashes,
    );
    let recorder = HistoryRecorder::new();
    let root = fk.connect("root").unwrap();
    root.create("/p", b"", CreateMode::Persistent).unwrap();
    let node = |n: usize| format!("/p/n{n}");
    for n in 0..2 * clients {
        root.create(&node(n), b"", CreateMode::Persistent).unwrap();
    }
    let child = |n: usize, j: usize| -> String {
        let parent = node(n);
        let mut names = (0..).map(|salt| format!("{parent}/c{j}v{salt}"));
        let same_lane = |name: &String| group_of(name, 4) == group_of(&parent, 4);
        names.find(same_lane).expect("some name shares the lane")
    };

    let mut watch_ids = HashMap::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let config = ClientConfig::new(format!("client-{c}")).with_recorder(recorder.clone());
            let client = fk.connect_with(config).unwrap();
            handles.push(scope.spawn(move || {
                let mut zipf =
                    fk_workloads::SeededZipf::new(2 * clients as u64, seed.wrapping_add(c as u64));
                // Completion waits of the writes in flight, oldest first.
                let mut in_flight: std::collections::VecDeque<Box<dyn FnOnce()>> =
                    std::collections::VecDeque::new();
                for i in 0..ops {
                    let any = zipf.next_key() as usize;
                    let (n, j, data) = (2 * c + any % 2, i % 2, vec![any as u8; 64 + i]);
                    let create = |path: String| Op::create(path, &data, CreateMode::Persistent);
                    let multi = |ops: Vec<Op>| waiter(client.submit_multi(ops));
                    // A rejected op (no node, node exists) is part of the
                    // mix: it fails alone or fails its multi.
                    let wait = match (seed as usize + i + c) % 10 {
                        // Conflict-free: joins its neighbours' epoch.
                        0 | 1 => multi(vec![
                            Op::check(node(n), -1),
                            Op::set_data(node(n), &data, -1),
                        ]),
                        // A child under a node the same multi writes.
                        2 => multi(vec![Op::set_data(node(n), &data, -1), create(child(n, j))]),
                        // A child under a node a neighbour may just have
                        // written, next to a sibling's overwrite.
                        3 => multi(vec![
                            create(child(n, j)),
                            Op::set_data(child(n, 1 - j), &data, -1),
                        ]),
                        4 => waiter(client.submit_set_data(&node(n), &data, -1)),
                        5 => waiter(client.submit_set_data(&child(n, j), &data, -1)),
                        6 => waiter(client.submit_create(
                            &child(n, j),
                            &data,
                            CreateMode::Persistent,
                        )),
                        7 => waiter(client.submit_delete(&child(n, j), -1)),
                        // Reads go anywhere, other sessions' nodes included.
                        arm => {
                            let path = if arm == 8 { child(any, j) } else { node(any) };
                            let _ = client.get_data(&path, i % 2 == 0);
                            continue;
                        }
                    };
                    in_flight.push_back(wait);
                    while in_flight.len() > 8 {
                        in_flight.pop_front().unwrap()();
                    }
                }
                for wait in in_flight {
                    wait();
                }
                (client.session_id().to_owned(), client.my_watch_ids())
            }));
        }
        for handle in handles {
            let (session, ids) = handle.join().unwrap();
            watch_ids.insert(session, ids);
        }
    });
    quiesce(&fk);
    fk.shutdown();
    (recorder.events(), watch_ids)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case spins a full deployment with threads
        .. ProptestConfig::default()
    })]

    /// Z1–Z4 hold for arbitrary concurrent workloads (default pipeline:
    /// 4 shards × 16-transaction epoch batches).
    #[test]
    fn consistency_holds_under_random_concurrency(
        actions in proptest::collection::vec(
            proptest::collection::vec(action_strategy(), 1..12),
            1..4,
        )
    ) {
        let (events, watch_ids) = run_workload(
            actions,
            Crashes::default(),
            DistributorConfig::default(),
            ReadCacheConfig::disabled(),
            ReplicaConfig::disabled(),
        );
        let violations = check_history(&events, &watch_ids);
        prop_assert!(violations.is_empty(), "violations: {violations:#?}");
    }

    /// The guarantees survive follower crashes (queue redelivery + leader
    /// TryCommit + timed-lock expiry).
    #[test]
    fn consistency_holds_under_follower_crashes(
        actions in proptest::collection::vec(
            proptest::collection::vec(action_strategy(), 1..10),
            1..3,
        ),
        crashes in 1u64..4,
    ) {
        let (events, watch_ids) = run_workload(
            actions,
            Crashes { follower: crashes, leader: 0 },
            DistributorConfig::default(),
            ReadCacheConfig::disabled(),
            ReplicaConfig::disabled(),
        );
        let violations = check_history(&events, &watch_ids);
        prop_assert!(violations.is_empty(), "violations: {violations:#?}");
    }

    /// Z1–Z4 hold under *every* distributor geometry: random shard
    /// counts, epoch batch sizes, **and leader-tier widths** (shard
    /// groups, each a live concurrent leader instance), concurrent
    /// sessions. Geometry must be semantically invisible — only
    /// throughput may change.
    #[test]
    fn consistency_holds_under_sharded_batched_distribution(
        actions in proptest::collection::vec(
            proptest::collection::vec(action_strategy(), 1..12),
            1..4,
        ),
        shards in geometry::shards(),
        batch in geometry::epoch_batch(),
        groups in geometry::leader_groups(),
    ) {
        let (events, watch_ids) = run_workload(
            actions,
            Crashes::default(),
            DistributorConfig::new(shards, batch).with_groups(groups),
            ReadCacheConfig::disabled(),
            ReplicaConfig::disabled(),
        );
        let violations = check_history(&events, &watch_ids);
        prop_assert!(
            violations.is_empty(),
            "violations with {shards} shards, batch {batch}, {groups} groups: {violations:#?}"
        );
    }

    /// Z1–Z4 hold with the client read cache enabled at *every*
    /// capacity, including 0 (exact passthrough) and capacities small
    /// enough to thrash the LRU, under concurrent sessions and watches.
    /// The cache must be semantically invisible — only round trips may
    /// change.
    #[test]
    fn consistency_holds_with_read_cache_at_random_capacities(
        actions in proptest::collection::vec(
            proptest::collection::vec(action_strategy(), 1..12),
            1..4,
        ),
        capacity in geometry::cache_capacity(),
        negative_seed in 0u8..2,
    ) {
        let cache = ReadCacheConfig {
            capacity,
            negative: negative_seed == 1,
            ..ReadCacheConfig::default()
        };
        let (events, watch_ids) = run_workload(
            actions,
            Crashes::default(),
            DistributorConfig::default(),
            cache,
            ReplicaConfig::disabled(),
        );
        let violations = check_history(&events, &watch_ids);
        prop_assert!(
            violations.is_empty(),
            "violations with cache capacity {capacity}: {violations:#?}"
        );
    }

    /// The cache composes with everything else at once: random pipeline
    /// geometry, zipf skew, follower/leader crashes, random capacities.
    #[test]
    fn consistency_holds_with_cache_under_crashes_and_skew(
        seed in geometry::schedule_seed(),
        ops in 6usize..20,
        clients in 1usize..4,
        capacity in geometry::cache_capacity(),
        follower_crashes in geometry::crash_count(),
        leader_crashes in geometry::crash_count(),
    ) {
        let mut zipf = fk_workloads::SeededZipf::new(6, seed);
        let actions: Vec<Vec<Action>> = (0..clients)
            .map(|c| {
                (0..ops)
                    .map(|i| {
                        let node = zipf.next_key() as u8;
                        let size = ((seed >> 2) % 900) as u16;
                        match (seed as usize + i + c) % 6 {
                            0 => Action::Create { node, size },
                            1 => Action::SetData { node, size },
                            2 => Action::Delete { node },
                            3 => Action::ReadWithWatch { node },
                            _ => Action::Read { node },
                        }
                    })
                    .collect()
            })
            .collect();
        let (events, watch_ids) = run_workload(
            actions,
            Crashes { follower: follower_crashes, leader: leader_crashes },
            DistributorConfig::default(),
            ReadCacheConfig::with_capacity(capacity).negative(capacity.is_multiple_of(2)),
            ReplicaConfig::disabled(),
        );
        let violations = check_history(&events, &watch_ids);
        prop_assert!(
            violations.is_empty(),
            "violations with cache {capacity}, crashes f{follower_crashes}/l{leader_crashes}: \
             {violations:#?}"
        );
    }

    /// Zipf-skewed key choice concentrates traffic on hot shards; the
    /// epoch batches then contain many transactions for the same node,
    /// exercising the distributor's per-path coalescing. The guarantees
    /// must hold regardless, including under leader crashes (full-batch
    /// redelivery of partially distributed epochs).
    #[test]
    fn consistency_holds_under_zipf_skew_and_leader_crashes(
        seed in geometry::schedule_seed(),
        ops in 6usize..24,
        clients in 1usize..4,
        shards in geometry::shards(),
        groups in 1usize..4,
        leader_crashes in geometry::crash_count(),
    ) {
        let mut zipf = fk_workloads::SeededZipf::new(6, seed);
        let actions: Vec<Vec<Action>> = (0..clients)
            .map(|c| {
                (0..ops)
                    .map(|i| {
                        let node = zipf.next_key() as u8;
                        let size = ((seed >> 3) % 1500) as u16;
                        match (seed as usize + i + c) % 6 {
                            0 => Action::Create { node, size },
                            1 | 2 => Action::SetData { node, size },
                            3 => Action::Delete { node },
                            4 => Action::ReadWithWatch { node },
                            _ => Action::Read { node },
                        }
                    })
                    .collect()
            })
            .collect();
        let (events, watch_ids) = run_workload(
            actions,
            // Crash injection targets group 0's leader; the other shard
            // groups keep running, exercising redelivery against a
            // partially-alive tier.
            Crashes { follower: 0, leader: leader_crashes },
            DistributorConfig::new(shards, 16).with_groups(groups),
            ReadCacheConfig::disabled(),
            ReplicaConfig::disabled(),
        );
        let violations = check_history(&events, &watch_ids);
        prop_assert!(
            violations.is_empty(),
            "violations with zipf seed {seed}, {shards} shards, {groups} groups: {violations:#?}"
        );
    }

    /// Z1–Z4 hold with the shared regional read-replica tier enabled at
    /// *every* geometry: replica counts, byte budgets small enough to
    /// thrash the LRU, injected feed lag (a lagging replica must fall
    /// through to storage, never serve stale bytes), and multi-group
    /// leader tiers (the serve gate takes the min over per-group
    /// committed floors). The tier must be semantically invisible —
    /// only storage round trips may change.
    #[test]
    fn consistency_holds_with_replica_tier_at_random_geometry(
        actions in proptest::collection::vec(
            proptest::collection::vec(action_strategy(), 1..12),
            1..4,
        ),
        count in geometry::replica_count(),
        budget in geometry::byte_budget(),
        feed_lag in geometry::feed_lag(),
        groups in 1usize..4,
        capacity in 0usize..9,
    ) {
        let (events, watch_ids) = run_workload(
            actions,
            Crashes::default(),
            DistributorConfig::default().with_groups(groups),
            ReadCacheConfig::with_capacity(capacity),
            ReplicaConfig::with_count(count)
                .with_byte_budget(budget)
                .with_feed_lag(feed_lag),
        );
        let violations = check_history(&events, &watch_ids);
        prop_assert!(
            violations.is_empty(),
            "violations with {count} replicas, {budget} B budget, lag {feed_lag}, \
             {groups} groups: {violations:#?}"
        );
    }

    /// Multis between single writes in the leader's batches: pipelined
    /// sessions (eight writes in flight each) on sibling and
    /// parent/child paths, epoch batches of eight or more, 1 / 2 / 4
    /// shard groups, follower and leader crashes. A multi now shares
    /// its neighbours' epoch unless a parent/child conflict cuts it;
    /// Z1–Z4 and tree integrity must not notice.
    #[test]
    fn consistency_holds_with_multis_sharing_epochs(
        seed in geometry::schedule_seed(),
        ops in 12usize..32,
        clients in 1usize..4,
        shards in geometry::shards(),
        batch in 8usize..17,
        groups in geometry::pow2_groups(),
        follower_crashes in geometry::crash_count(),
        leader_crashes in geometry::crash_count(),
    ) {
        let (events, watch_ids) = run_pipelined_multis(
            seed,
            clients,
            ops,
            DistributorConfig::new(shards, batch).with_groups(groups),
            Crashes { follower: follower_crashes, leader: leader_crashes },
        );
        let violations = check_history(&events, &watch_ids);
        prop_assert!(
            violations.is_empty(),
            "violations with seed {seed}, {shards} shards, batch {batch}, {groups} groups, \
             crashes f{follower_crashes}/l{leader_crashes}: {violations:#?}"
        );
    }

}

/// Runs one action list through a fresh deployment with the given cache
/// bounds on a single sequential client, returning the recorded history
/// (watch-delivery events excluded — their position in the observation
/// order depends on async dispatch timing, identically in both runs) and
/// a byte-level transcript of every API result.
fn run_sequential(
    actions: &[Action],
    cache: ReadCacheConfig,
    replicas: ReplicaConfig,
) -> (Vec<HEvent>, Vec<String>) {
    let fk = Deployment::start(
        DeploymentConfig::aws()
            .with_read_cache(cache)
            .with_replicas(replicas),
    );
    let recorder = HistoryRecorder::new();
    let root = fk.connect("root").unwrap();
    root.create("/p", b"", CreateMode::Persistent).unwrap();
    let client = fk
        .connect_with(ClientConfig::new("det-client").with_recorder(recorder.clone()))
        .unwrap();
    let mut transcript = Vec::new();
    for action in actions {
        let path = |n: &u8| format!("/p/n{n}");
        let line = match action {
            Action::Create { node, size } => format!(
                "create {node}: {:?}",
                client.create(
                    &path(node),
                    &vec![*node; *size as usize],
                    CreateMode::Persistent
                )
            ),
            Action::SetData { node, size } => format!(
                "set {node}: {:?}",
                client.set_data(&path(node), &vec![*node; *size as usize], -1)
            ),
            Action::Delete { node } => format!("del {node}: {:?}", client.delete(&path(node), -1)),
            Action::Read { node } => {
                format!("read {node}: {:?}", client.get_data(&path(node), false))
            }
            Action::ReadWithWatch { node } => {
                format!("readw {node}: {:?}", client.get_data(&path(node), true))
            }
        };
        transcript.push(line);
    }
    drop(client);
    drop(root);
    fk.shutdown();
    let events = recorder
        .events()
        .into_iter()
        .filter(|e| !matches!(e, HEvent::WatchDelivered { .. }))
        .collect();
    (events, transcript)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// For a sequential client the cache must be *observationally
    /// invisible* at every capacity: the recorded history and the
    /// byte-level result of every call are identical to the uncached
    /// client's. (Single-session sequential execution is the setting
    /// where FaaSKeeper's guarantees pin down reads exactly: every own
    /// write advances MRD past all cached watermarks, so a hit can only
    /// serve what a storage read would have returned anyway.)
    #[test]
    fn cached_client_history_is_byte_identical_to_uncached(
        actions in proptest::collection::vec(action_strategy(), 1..32),
        capacity in prop_oneof![Just(0usize), 1usize..32],
    ) {
        let (uncached_events, uncached_transcript) =
            run_sequential(&actions, ReadCacheConfig::disabled(), ReplicaConfig::disabled());
        let (cached_events, cached_transcript) = run_sequential(
            &actions,
            ReadCacheConfig::with_capacity(capacity),
            ReplicaConfig::disabled(),
        );
        prop_assert_eq!(
            &uncached_transcript,
            &cached_transcript,
            "API results diverged at capacity {}",
            capacity
        );
        prop_assert_eq!(
            uncached_events,
            cached_events,
            "recorded histories diverged at capacity {}",
            capacity
        );
    }

    /// The replica tier is likewise observationally invisible to a
    /// sequential client at every geometry — including feed lag, where
    /// the watermark gate forces every read to fall through to storage
    /// rather than serve a stale resident record. Transcripts and
    /// histories must be byte-identical to a replica-free deployment.
    #[test]
    fn replica_tier_is_observationally_invisible_to_a_sequential_client(
        actions in proptest::collection::vec(action_strategy(), 1..32),
        count in 1usize..3,
        budget in prop_oneof![
            Just(2 * 1024usize),
            Just(64 * 1024usize),
            Just(64 * 1024 * 1024usize),
        ],
        feed_lag in 0usize..8,
    ) {
        let (bare_events, bare_transcript) = run_sequential(
            &actions,
            ReadCacheConfig::with_capacity(8),
            ReplicaConfig::disabled(),
        );
        let (replicated_events, replicated_transcript) = run_sequential(
            &actions,
            ReadCacheConfig::with_capacity(8),
            ReplicaConfig::with_count(count)
                .with_byte_budget(budget)
                .with_feed_lag(feed_lag),
        );
        prop_assert_eq!(
            &bare_transcript,
            &replicated_transcript,
            "API results diverged with {} replicas, {} B budget, lag {}",
            count,
            budget,
            feed_lag
        );
        prop_assert_eq!(
            bare_events,
            replicated_events,
            "recorded histories diverged with {} replicas, {} B budget, lag {}",
            count,
            budget,
            feed_lag
        );
    }

    /// Every record resident in a replica is **byte-identical** to what
    /// backing storage holds for that path, once the feed has drained.
    /// Single-group sequential runs make this exact: every write frame
    /// carries the full children snapshot taken under the follower's
    /// path lock, so even after eviction churn a re-admitted record
    /// converges to the storage bytes. (Absence is allowed — eviction is
    /// not deletion — but a resident record must never diverge.)
    #[test]
    fn resident_replica_records_are_byte_identical_to_storage(
        actions in proptest::collection::vec(action_strategy(), 1..32),
        budget in prop_oneof![
            Just(2 * 1024usize),
            Just(64 * 1024usize),
            Just(64 * 1024 * 1024usize),
        ],
    ) {
        let fk = Deployment::start(
            DeploymentConfig::aws()
                .with_replicas(ReplicaConfig::with_count(2).with_byte_budget(budget)),
        );
        let root = fk.connect("root").unwrap();
        root.create("/p", b"", CreateMode::Persistent).unwrap();
        let client = fk.connect_with(ClientConfig::new("byte-id-client")).unwrap();
        for action in &actions {
            let path = |n: &u8| format!("/p/n{n}");
            match action {
                Action::Create { node, size } => {
                    let _ = client.create(
                        &path(node),
                        &vec![*node; *size as usize],
                        CreateMode::Persistent,
                    );
                }
                Action::SetData { node, size } => {
                    let _ = client.set_data(&path(node), &vec![*node; *size as usize], -1);
                }
                Action::Delete { node } => {
                    let _ = client.delete(&path(node), -1);
                }
                Action::Read { node } => {
                    let _ = client.get_data(&path(node), false);
                }
                Action::ReadWithWatch { node } => {
                    let _ = client.get_data(&path(node), true);
                }
            }
        }
        // Quiesce the pipeline, then drain any buffered feed deltas.
        let ctx = fk_cloud::trace::Ctx::disabled();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let violations = check_tree_integrity(&ctx, fk.system(), fk.user_store().as_ref());
            if violations.is_empty() || std::time::Instant::now() > deadline {
                prop_assert!(violations.is_empty(), "tree integrity: {:#?}", violations);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let mut mismatches = Vec::new();
        for region_idx in 0..fk.config().regions.len() {
            for replica in fk.replicas().region(region_idx) {
                replica.catch_up(&ctx);
                for path in replica.resident_paths() {
                    let resident = replica.peek(&path).expect("resident path peeks");
                    let stored = fk
                        .user_store()
                        .read_node(&ctx, &path)
                        .expect("storage read");
                    match stored {
                        None => mismatches.push(format!(
                            "{path}: resident in replica {region_idx} but absent in storage"
                        )),
                        Some(stored) => {
                            let replica_bytes = fk_core::codec::encode_node(&resident);
                            let storage_bytes = fk_core::codec::encode_node(&stored);
                            if replica_bytes != storage_bytes {
                                mismatches.push(format!(
                                    "{path}: replica {region_idx} bytes diverge from storage \
                                     (replica mzxid {}, storage mzxid {})",
                                    resident.modified_txid, stored.modified_txid
                                ));
                            }
                        }
                    }
                }
            }
        }
        drop(client);
        drop(root);
        fk.shutdown();
        prop_assert!(mismatches.is_empty(), "divergent records: {:#?}", mismatches);
    }
}

#[test]
fn shard_assignment_stability_and_coverage() {
    // Stability: repeated hashing of the same key agrees, across calls
    // and shard counts.
    for shards in 1..=16 {
        for i in 0..200 {
            let path = format!("/p/node-{i}");
            let first = shard_of(&path, shards);
            assert!(first < shards, "in range");
            assert_eq!(first, shard_of(&path, shards), "stable");
        }
    }
    // Coverage: enough distinct paths reach every shard.
    for shards in [2usize, 4, 8, 13] {
        let mut hit = vec![false; shards];
        for i in 0..2000 {
            hit[shard_of(&format!("/cover/{i}"), shards)] = true;
        }
        assert!(hit.iter().all(|&h| h), "all {shards} shards covered");
    }
}

/// A sequential client that deletes a node and re-creates it at once
/// races the leader's epilogue: the delete is acknowledged before its
/// tombstone is purged, so the follower may already hold the create's
/// lock on that tombstone when the purge runs. The purge must leave a
/// locked tombstone alone — removing it strands the create (its commit
/// guard names a lock that no longer exists) and the parent lock with it.
#[test]
fn delete_then_recreate_races_the_tombstone_purge_safely() {
    let fk = Deployment::start(DeploymentConfig::aws());
    let config = ClientConfig {
        timeout: std::time::Duration::from_secs(5),
        ..ClientConfig::new("recreate")
    };
    let client = fk.connect_with(config).unwrap();
    for round in 0..2000 {
        client
            .create("/again", b"x", CreateMode::Persistent)
            .unwrap_or_else(|e| panic!("round {round}: create failed: {e:?}"));
        client
            .delete("/again", -1)
            .unwrap_or_else(|e| panic!("round {round}: delete failed: {e:?}"));
    }
    let _ = client.close();
    fk.shutdown();
}
