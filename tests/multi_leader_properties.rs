//! Z2 under the multi-leader tier (ISSUE 3 tentpole): one session's
//! writes interleaved across several shard groups, drained under a
//! random leader schedule, must still commit in a per-session total
//! order with globally unique txids.
//!
//! The synchronous client never has two writes in flight, so these tests
//! drive the pipeline directly: all of a session's requests are pushed
//! through the follower *before* any leader runs, which is exactly the
//! many-in-flight shape the cross-shard sequencing rule (prev_txid
//! hold-back + epoch-prefixed txid allocation) exists for.

use fk_cloud::queue::group_of;
use fk_core::consistency::check_tree_integrity;
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::distributor::DistributorConfig;
use fk_core::messages::{ClientNotification, ClientRequest, Payload, WriteOp};
use fk_core::CreateMode;
use fk_testkit::geometry;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// A committed write observed on the notification channel, in arrival
/// (= distribution) order.
#[derive(Debug)]
struct Committed {
    session: String,
    request_id: u64,
    txid: u64,
}

/// The node every session also writes each round when a geometry asks
/// for it: all its records share one lane and one `txq`, interleaved
/// with every session's cross-group chain.
const HOT: &str = "/p/hot";

/// Runs `sessions × (creates + rounds×set_data)` through the follower —
/// plus, with `hot`, one `set_data` on [`HOT`] per session and round —
/// then drains the leader tier in a seeded random group order, one batch
/// at a time (tolerating hold-back deferrals). Returns the committed
/// writes in distribution order plus the number of distinct shard groups
/// the paths actually landed on.
fn run_random_schedule(
    groups: usize,
    sessions: usize,
    paths_per_session: usize,
    rounds: usize,
    hot: bool,
    schedule_seed: u64,
) -> (Vec<Committed>, usize, Deployment) {
    let deployment = Deployment::direct(
        DeploymentConfig::aws().with_distributor(DistributorConfig::new(2, 8).with_groups(groups)),
    );
    let follower = deployment.make_follower();
    let leaders: Vec<_> = (0..groups)
        .map(|_| deployment.make_leader_inline())
        .collect();
    let ctx = fk_cloud::trace::Ctx::disabled();

    let session_ids: Vec<String> = (0..sessions).map(|s| format!("sess-{s}")).collect();
    let mut endpoints = Vec::new();
    let mut next_request: HashMap<String, u64> = HashMap::new();
    for id in &session_ids {
        deployment.system().register_session(&ctx, id, 0).unwrap();
        endpoints.push(deployment.bus().register(id).0);
        next_request.insert(id.clone(), 1);
    }
    let submit = |next_request: &mut HashMap<String, u64>, session: &str, op: WriteOp| {
        let request_id = next_request[session];
        next_request.insert(session.to_owned(), request_id + 1);
        let request = ClientRequest {
            session_id: session.to_owned(),
            request_id,
            op,
        };
        deployment
            .write_queue()
            .send(&ctx, session, request.encode())
            .unwrap();
    };
    let drain_follower = || {
        while let Some(batch) = deployment
            .write_queue()
            .receive(10, Duration::from_secs(30))
        {
            follower.process_messages(&ctx, &batch.messages).unwrap();
            deployment.write_queue().ack(batch.receipt);
        }
    };
    let drain_leaders_fully = |leaders: &[fk_core::leader::Leader]| {
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (g, leader) in leaders.iter().enumerate() {
                match leader.drain_queue(&ctx, deployment.leader_queues().queue(g)) {
                    Ok(0) => {}
                    _ => progressed = true,
                }
            }
        }
    };

    // Setup: the shared parent (and the hot node), fully distributed
    // before the measured interleaving starts.
    for path in ["/p", HOT].iter().take(1 + usize::from(hot)) {
        submit(
            &mut next_request,
            &session_ids[0],
            WriteOp::Create {
                path: (*path).into(),
                payload: Payload::inline(b""),
                mode: CreateMode::Persistent,
            },
        );
    }
    drain_follower();
    drain_leaders_fully(&leaders);

    // Each session creates its paths, then writes them round-robin —
    // all pushed through the follower before any leader runs, so every
    // session has many transactions in flight across the tier at once.
    // Path names are salted so each session's set provably spans at
    // least two shard groups (the scenario under test).
    let mut groups_hit = HashSet::new();
    let mut session_paths: Vec<Vec<String>> = Vec::new();
    for s in 0..sessions {
        let first = format!("/p/s{s}x0");
        let first_group = group_of(&first, groups);
        let mut paths = vec![first];
        for p in 1..paths_per_session {
            let mut path = format!("/p/s{s}x{p}");
            if p == 1 {
                // Salt until this path lands off the first path's group.
                for salt in 0..256 {
                    path = format!("/p/s{s}x{p}v{salt}");
                    if group_of(&path, groups) != first_group {
                        break;
                    }
                }
            }
            paths.push(path);
        }
        for path in &paths {
            groups_hit.insert(group_of(path, groups));
        }
        session_paths.push(paths);
    }
    for (id, paths) in session_ids.iter().zip(&session_paths) {
        for path in paths {
            submit(
                &mut next_request,
                id,
                WriteOp::Create {
                    path: path.clone(),
                    payload: Payload::inline(b"v0"),
                    mode: CreateMode::Persistent,
                },
            );
        }
    }
    // (session, request id) → payload of every write to the hot node.
    let mut hot_writes: HashMap<(String, u64), String> = HashMap::new();
    for round in 0..rounds {
        for (s, id) in session_ids.iter().enumerate() {
            let path = session_paths[s][round % paths_per_session].clone();
            submit(
                &mut next_request,
                id,
                WriteOp::SetData {
                    path,
                    payload: Payload::inline(format!("r{round}").as_bytes()),
                    expected_version: -1,
                },
            );
            if hot {
                let payload = format!("s{s}r{round}");
                hot_writes.insert((id.clone(), next_request[id]), payload.clone());
                submit(
                    &mut next_request,
                    id,
                    WriteOp::SetData {
                        path: HOT.into(),
                        payload: Payload::inline(payload.as_bytes()),
                        expected_version: -1,
                    },
                );
            }
        }
    }
    drain_follower();

    // Random leader schedule: one batch from a random group at a time.
    // Hold-back deferrals nack without burning attempts, so any schedule
    // converges; bound it anyway.
    let stored_hot = || deployment.user_store().read_node(&ctx, HOT).unwrap();
    let mut rng = SmallRng::seed_from_u64(schedule_seed);
    let mut spins = 0;
    let mut hot_txid = 0;
    while deployment.leader_queues().pending() > 0 {
        let g = rng.gen_range(0..groups);
        let _ = leaders[g].drain_queue(&ctx, deployment.leader_queues().queue(g));
        spins += 1;
        assert!(spins < 20_000, "leader tier failed to converge");
        if hot {
            // Per-node apply order: the hot node only moves forward.
            let now = stored_hot().expect("created in setup").modified_txid;
            assert!(now >= hot_txid, "hot node went back: {hot_txid} -> {now}");
            hot_txid = now;
        }
    }
    for (g, leader) in leaders.iter().enumerate() {
        let ahead = leader.applied_ahead();
        assert_eq!(ahead, 0, "group {g} still remembers {ahead} queued records");
    }

    let mut committed = Vec::new();
    for (id, endpoint) in session_ids.iter().zip(&endpoints) {
        let mut last_request = 0;
        while let Ok(notification) = endpoint.try_recv() {
            if let ClientNotification::WriteResult {
                request_id,
                result,
                txid,
            } = notification
            {
                assert!(result.is_ok(), "write failed: {result:?}");
                // Per-session apply order: results reach the endpoint in
                // distribution order, which must be submission order.
                assert!(
                    request_id > last_request,
                    "session {id}: request {request_id} acked after {last_request}"
                );
                last_request = request_id;
                committed.push(Committed {
                    session: id.clone(),
                    request_id,
                    txid,
                });
            }
        }
    }
    if hot {
        // The hot node holds its last write (by txid) and nothing newer.
        let last = committed
            .iter()
            .filter(|c| hot_writes.contains_key(&(c.session.clone(), c.request_id)))
            .max_by_key(|c| c.txid)
            .expect("hot writes committed");
        let node = stored_hot().expect("created in setup");
        assert_eq!(node.modified_txid, last.txid);
        let payload = &hot_writes[&(last.session.clone(), last.request_id)];
        assert_eq!(&node.data[..], payload.as_bytes());
    }
    (committed, groups_hit.len(), deployment)
}

/// Per-session: request ids in submission order must map to strictly
/// increasing txids (Z2); globally: every txid unique (Z3 part 1).
fn assert_z2_z3(committed: &[Committed], expected: usize) {
    assert_eq!(committed.len(), expected, "every write answered");
    let mut per_session: HashMap<&str, Vec<(u64, u64)>> = HashMap::new();
    for c in committed {
        per_session
            .entry(c.session.as_str())
            .or_default()
            .push((c.request_id, c.txid));
    }
    for (session, mut writes) in per_session {
        writes.sort_by_key(|(rid, _)| *rid);
        for pair in writes.windows(2) {
            assert!(
                pair[1].1 > pair[0].1,
                "session {session}: request {} (txid {}) not after request {} (txid {})",
                pair[1].0,
                pair[1].1,
                pair[0].0,
                pair[0].1,
            );
        }
    }
    let distinct: HashSet<u64> = committed.iter().map(|c| c.txid).collect();
    assert_eq!(distinct.len(), committed.len(), "txids globally unique");
}

/// Random leader schedules replayed per generated geometry. A deferral
/// is one storage read and no wall clock, so a schedule costs
/// milliseconds; the seeds are consecutive from the generated one.
const SCHEDULES_PER_GEOMETRY: u64 = 4;

/// Runs one geometry under [`SCHEDULES_PER_GEOMETRY`] drain schedules and
/// checks Z2/Z3 and tree integrity after each (per-session ack order,
/// the hot node's apply order and the leaders' applied-ahead state are
/// checked inside the run).
fn check_geometry(
    groups: usize,
    sessions: usize,
    paths: usize,
    rounds: usize,
    hot: bool,
    schedule_seed: u64,
) {
    for schedule in 0..SCHEDULES_PER_GEOMETRY {
        let seed = schedule_seed.wrapping_add(schedule);
        let (committed, hit, deployment) =
            run_random_schedule(groups, sessions, paths, rounds, hot, seed);
        assert!(hit >= 2, "paths must span at least two shard groups");
        // setup creates + per session: paths creates + rounds set_data
        // (twice with the hot node).
        let per_round = 1 + usize::from(hot);
        assert_z2_z3(
            &committed,
            per_round + sessions * (paths + per_round * rounds),
        );
        let ctx = fk_cloud::trace::Ctx::disabled();
        let violations =
            check_tree_integrity(&ctx, deployment.system(), deployment.user_store().as_ref());
        assert!(
            violations.is_empty(),
            "schedule seed {seed}: {violations:#?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case spins a full deployment per schedule
        .. ProptestConfig::default()
    })]

    /// One session, writes spread over several paths (and so over
    /// several shard groups), random drain schedules: per-session total
    /// order and global txid uniqueness must hold at every shard-group
    /// count.
    #[test]
    fn z2_one_session_interleaved_across_groups(
        groups in geometry::multi_leader_groups(),
        rounds in 1usize..8,
        schedule_seed in geometry::schedule_seed(),
    ) {
        check_geometry(groups, 1, 6, rounds, false, schedule_seed);
    }

    /// Several sessions at once: the same guarantees, plus cross-session
    /// txid uniqueness from independent per-group allocators.
    #[test]
    fn z2_many_sessions_interleaved_across_groups(
        groups in 2usize..6,
        sessions in 2usize..4,
        rounds in 1usize..5,
        schedule_seed in geometry::schedule_seed(),
    ) {
        check_geometry(groups, sessions, 3, rounds, false, schedule_seed);
    }

    /// Skip-ahead's geometry: at least three pipelined sessions whose
    /// cross-group chains interleave on the hot node's lane, so held
    /// heads, records applied from behind them and same-node successors
    /// meet in one batch under every schedule.
    #[test]
    fn z2_pipelined_sessions_share_a_hot_node(
        groups in 2usize..5,
        sessions in 3usize..6,
        rounds in 2usize..6,
        schedule_seed in geometry::schedule_seed(),
    ) {
        check_geometry(groups, sessions, 3, rounds, true, schedule_seed);
    }
}
