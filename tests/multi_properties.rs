//! `multi` atomicity property suite.
//!
//! A multi commits as one unit under one txid, or not at all:
//!
//! * **random geometry property** — random op mixes over a small tree,
//!   at random shard/group geometry, compared against a reference model
//!   that predicts success (all ops applied, one shared txid) or the
//!   exact failing index (nothing applied);
//! * **crash mid-multi** — fault injection skips the follower's commit
//!   (the state a crash between push ➂ and commit ➃ leaves behind); the
//!   leader's `TryCommit` must land the *whole* multi atomically;
//! * **cancelled mid-multi** — the same crash state with the locks
//!   stolen before the leader runs: `TryCommit` fails its guard, the
//!   multi is abandoned, and **no** sub-op is visible anywhere (system
//!   store or any user-store replica);
//! * **shared epochs** — multis interleaved with single writes on sibling
//!   and parent/child paths, all queued before any leader runs, so a
//!   multi distributes in one epoch *with* its neighbours (it is isolated
//!   only on an internal parent/child conflict). Random leader schedules
//!   at 1, 2 and 4 shard groups, with the crash and lock-steal endings
//!   above, against a tree-shaped reference model.

use fk_cloud::queue::group_of;
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::distributor::DistributorConfig;
use fk_core::messages::{ClientNotification, ClientRequest, MultiOp, Payload, WriteOp};
use fk_core::ops::{multi_error_results, Op, OpResult};
use fk_core::{CreateMode, FkError};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::LazyLock;
use std::time::Duration;

// ----------------------------------------------------------------------
// Random-geometry property with a reference model
// ----------------------------------------------------------------------

/// Generated multi ops over a fixed pool of paths under `/m`.
#[derive(Debug, Clone)]
enum GenOp {
    Create(usize),
    /// `(path, correct_version)` — wrong versions use `7777`.
    Set(usize, bool),
    Delete(usize, bool),
    Check(usize, bool),
}

fn gen_op() -> impl Strategy<Value = GenOp> {
    let slot = 0usize..4;
    prop_oneof![
        slot.clone().prop_map(GenOp::Create),
        (slot.clone(), 0u8..2).prop_map(|(s, ok)| GenOp::Set(s, ok == 1)),
        (slot.clone(), 0u8..2).prop_map(|(s, ok)| GenOp::Delete(s, ok == 1)),
        (slot, 0u8..2).prop_map(|(s, ok)| GenOp::Check(s, ok == 1)),
    ]
}

/// Reference model: which ops succeed, and the first failing index.
/// Mirrors the follower exactly: a pre-lock pass rejects duplicate
/// mutating paths first (whatever later validation would say), then the
/// ops validate in order against an overlay where each op observes its
/// predecessors' effects. "ok" ops carry expected version 0 (the version
/// every node in this workload starts at), so an op whose target was
/// already bumped by an earlier sub-op correctly fails.
fn model_outcome(existing: &BTreeMap<usize, i32>, ops: &[GenOp]) -> Result<(), usize> {
    // Pre-pass: duplicate mutating paths abort before any validation.
    let mut mutated: Vec<usize> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let slot = match op {
            GenOp::Create(s) | GenOp::Set(s, _) | GenOp::Delete(s, _) | GenOp::Check(s, _) => *s,
        };
        if !matches!(op, GenOp::Check(..)) {
            if mutated.contains(&slot) {
                return Err(i);
            }
            mutated.push(slot);
        }
    }
    let expected = |ok: bool| if ok { 0i32 } else { 7777 };
    let mut state: BTreeMap<usize, i32> = existing.clone();
    for (i, op) in ops.iter().enumerate() {
        match op {
            GenOp::Create(s) => {
                if state.contains_key(s) {
                    return Err(i); // NodeExists
                }
                state.insert(*s, 0);
            }
            GenOp::Set(s, ok) => match state.get_mut(s) {
                Some(v) if *v == expected(*ok) => *v += 1,
                Some(_) => return Err(i), // BadVersion
                None => return Err(i),    // NoNode
            },
            GenOp::Delete(s, ok) => match state.get(s) {
                Some(v) if *v == expected(*ok) => {
                    state.remove(s);
                }
                Some(_) => return Err(i),
                None => return Err(i),
            },
            GenOp::Check(s, ok) => match state.get(s) {
                Some(v) if *v == expected(*ok) => {}
                Some(_) => return Err(i),
                None => return Err(i),
            },
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn multi_is_all_or_nothing_at_random_geometry(
        preexisting_raw in proptest::collection::vec(0usize..4, 0..4),
        ops in proptest::collection::vec(gen_op(), 1..6),
        groups in prop_oneof![Just(1usize), Just(2), Just(3)],
    ) {
        let deployment = Deployment::start(
            DeploymentConfig::aws()
                .with_distributor(DistributorConfig::new(4, 16).with_groups(groups)),
        );
        let preexisting: std::collections::BTreeSet<usize> =
            preexisting_raw.into_iter().collect();
        let client = deployment.connect("multi-prop").unwrap();
        client.create("/m", b"", CreateMode::Persistent).unwrap();
        let mut existing: BTreeMap<usize, i32> = BTreeMap::new();
        for slot in &preexisting {
            client
                .create(&format!("/m/n{slot}"), b"seed", CreateMode::Persistent)
                .unwrap();
            existing.insert(*slot, 0);
        }

        let path_of = |slot: usize| format!("/m/n{slot}");
        let version = |ok: bool| if ok { 0 } else { 7777 };
        let wire_ops: Vec<Op> = ops
            .iter()
            .map(|op| match op {
                GenOp::Create(s) => Op::create(path_of(*s), b"new", CreateMode::Persistent),
                GenOp::Set(s, ok) => Op::set_data(path_of(*s), b"set", version(*ok)),
                GenOp::Delete(s, ok) => Op::delete(path_of(*s), version(*ok)),
                GenOp::Check(s, ok) => Op::check(path_of(*s), version(*ok)),
            })
            .collect();

        let before: BTreeMap<usize, Option<i32>> = (0..4)
            .map(|slot| {
                let stat = client.exists(&path_of(slot), false).unwrap();
                (slot, stat.map(|s| s.version))
            })
            .collect();
        let result = client.multi(wire_ops.clone());
        match model_outcome(&existing, &ops) {
            Ok(()) => {
                let results = result.expect("model says the multi commits");
                prop_assert_eq!(results.len(), ops.len());
                // One txid stamps every mutating outcome (the visible
                // all-or-nothing contract).
                let txids: Vec<u64> = results
                    .iter()
                    .filter_map(|r| match r {
                        OpResult::Create { stat, .. } | OpResult::SetData { stat } => {
                            Some(stat.modified_txid)
                        }
                        _ => None,
                    })
                    .collect();
                prop_assert!(txids.windows(2).all(|w| w[0] == w[1]),
                    "sub-ops carry one txid: {:?}", txids);
                // Every op's final effect is visible.
                let mut state: BTreeMap<usize, i32> = existing.clone();
                for op in &ops {
                    match op {
                        GenOp::Create(s) => { state.insert(*s, 0); }
                        GenOp::Set(s, _) => { *state.get_mut(s).unwrap() += 1; }
                        GenOp::Delete(s, _) => { state.remove(s); }
                        GenOp::Check(..) => {}
                    }
                }
                for slot in 0..4 {
                    let stat = client.exists(&path_of(slot), false).unwrap();
                    prop_assert_eq!(
                        stat.map(|s| s.version),
                        state.get(&slot).copied(),
                        "slot {} diverged from the model", slot
                    );
                }
            }
            Err(expected_index) => {
                let err = result.expect_err("model says the multi aborts");
                let FkError::MultiFailed { index, cause } = &err else {
                    panic!("expected MultiFailed, got {err:?}");
                };
                prop_assert_eq!(*index as usize, expected_index,
                    "failing index (cause {:?})", cause);
                // ZooKeeper-shaped per-op expansion.
                let expanded = multi_error_results(ops.len(), &err);
                prop_assert!(matches!(expanded[expected_index], OpResult::Error(_)));
                prop_assert!(expanded
                    .iter()
                    .enumerate()
                    .all(|(i, r)| i == expected_index || *r == OpResult::RolledBack));
                // Nothing changed, anywhere.
                for slot in 0..4 {
                    let stat = client.exists(&path_of(slot), false).unwrap();
                    prop_assert_eq!(
                        &stat.map(|s| s.version),
                        before.get(&slot).unwrap(),
                        "aborted multi leaked state into slot {}", slot
                    );
                }
            }
        }
        let _ = client.close();
        deployment.shutdown();
    }
}

// ----------------------------------------------------------------------
// Crash / cancel mid-multi (direct drive, fault injection)
// ----------------------------------------------------------------------

/// Builds a deployment + follower + leaders and seeds `/m` and `/m/b`.
fn crash_rig(groups: usize) -> (Deployment, fk_core::follower::Follower) {
    let deployment = Deployment::direct(
        DeploymentConfig::aws().with_distributor(DistributorConfig::new(2, 8).with_groups(groups)),
    );
    let follower = deployment.make_follower();
    let ctx = fk_cloud::trace::Ctx::disabled();
    deployment.system().register_session(&ctx, "s", 0).unwrap();
    for (rid, path) in [(1u64, "/m"), (2, "/m/b")] {
        let request = ClientRequest {
            session_id: "s".into(),
            request_id: rid,
            op: WriteOp::Create {
                path: path.into(),
                payload: Payload::inline(b"seed"),
                mode: CreateMode::Persistent,
            },
        };
        deployment
            .write_queue()
            .send(&ctx, "s", request.encode())
            .unwrap();
    }
    while let Some(batch) = deployment.write_queue().receive(10, Duration::from_secs(5)) {
        follower.process_messages(&ctx, &batch.messages).unwrap();
        deployment.write_queue().ack(batch.receipt);
    }
    let leaders: Vec<_> = (0..groups)
        .map(|_| deployment.make_leader_inline())
        .collect();
    let mut progressed = true;
    while progressed {
        progressed = false;
        for (g, leader) in leaders.iter().enumerate() {
            while leader
                .drain_queue(&ctx, deployment.leader_queues().queue(g))
                .unwrap()
                > 0
            {
                progressed = true;
            }
        }
    }
    (deployment, follower)
}

/// The multi under test: create `/m/a` + set `/m/b` + check `/m`.
fn crash_multi() -> ClientRequest {
    ClientRequest {
        session_id: "s".into(),
        request_id: 9,
        op: WriteOp::Multi {
            ops: vec![
                MultiOp::Create {
                    path: "/m/a".into(),
                    payload: Payload::inline(b"atomic"),
                    mode: CreateMode::Persistent,
                },
                MultiOp::SetData {
                    path: "/m/b".into(),
                    payload: Payload::inline(b"updated"),
                    expected_version: 0,
                },
                MultiOp::Check {
                    path: "/m".into(),
                    expected_version: -1,
                },
            ],
        },
    }
}

/// Drives the crash state: the follower pushes the multi but its commit
/// is skipped (fault injection), exactly a crash between ➂ and ➃.
fn push_without_commit(deployment: &Deployment, follower: &fk_core::follower::Follower) {
    let ctx = fk_cloud::trace::Ctx::disabled();
    deployment
        .write_queue()
        .send(&ctx, "s", crash_multi().encode())
        .unwrap();
    follower.config().skip_commits.store(1, Ordering::SeqCst);
    let batch = deployment
        .write_queue()
        .receive(10, Duration::from_secs(5))
        .unwrap();
    follower.process_messages(&ctx, &batch.messages).unwrap();
    deployment.write_queue().ack(batch.receipt);
    // The commit really was skipped: no node item carries the multi yet.
    let sys = deployment.system();
    assert!(
        !fk_core::system_store::SystemStore::node_exists(sys.get_node(&ctx, "/m/a").as_ref()),
        "commit skipped: /m/a not in system storage"
    );
}

fn drain_leaders(deployment: &Deployment, groups: usize) {
    let ctx = fk_cloud::trace::Ctx::disabled();
    let leaders: Vec<_> = (0..groups)
        .map(|_| deployment.make_leader_inline())
        .collect();
    let mut progressed = true;
    while progressed {
        progressed = false;
        for (g, leader) in leaders.iter().enumerate() {
            let queue = deployment.leader_queues().queue(g);
            let before = queue.pending();
            let _ = leader.drain_queue(&ctx, queue);
            if queue.pending() < before {
                progressed = true;
            }
        }
    }
}

#[test]
fn follower_crash_mid_multi_is_repaired_atomically() {
    for groups in [1usize, 2] {
        let (deployment, follower) = crash_rig(groups);
        let (notifications, _alive) = deployment.bus().register("s");
        push_without_commit(&deployment, &follower);

        // The leader finds the commit missing and TryCommits the whole
        // multi on the crashed follower's behalf.
        drain_leaders(&deployment, groups);
        let ctx = fk_cloud::trace::Ctx::disabled();
        let store = deployment.user_store();
        let a = store.read_node(&ctx, "/m/a").unwrap().expect("created");
        assert_eq!(a.data.as_ref(), b"atomic");
        let b = store.read_node(&ctx, "/m/b").unwrap().expect("updated");
        assert_eq!(b.data.as_ref(), b"updated");
        assert_eq!(a.modified_txid, b.modified_txid, "one txid, one unit");
        // The client was notified success with per-op results.
        let mut saw_success = false;
        while let Ok(notification) = notifications.try_recv() {
            if let ClientNotification::WriteResult {
                request_id: 9,
                result: Ok(data),
                ..
            } = notification
            {
                assert_eq!(data.op_results.len(), 3);
                saw_success = true;
            }
        }
        assert!(saw_success, "groups={groups}: client notified");
        deployment.shutdown();
    }
}

#[test]
fn cancelled_multi_leaves_no_partial_state() {
    for groups in [1usize, 2] {
        let (deployment, follower) = crash_rig(groups);
        let (notifications, _alive) = deployment.bus().register("s");
        push_without_commit(&deployment, &follower);

        // Steal every lock the multi holds before the leader runs: the
        // TryCommit's guard must fail and the multi must abandon.
        let ctx = fk_cloud::trace::Ctx::disabled();
        let far_future = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_millis() as i64
            + 10_000_000;
        for path in ["/m/a", "/m/b", "/m"] {
            deployment
                .system()
                .locks()
                .acquire(&ctx, &fk_core::system_store::keys::node(path), far_future)
                .expect("steal expired lock");
        }
        drain_leaders(&deployment, groups);

        // Z3 visibility: no replica shows any sub-op's effect.
        for store in deployment.user_stores() {
            assert!(
                store.read_node(&ctx, "/m/a").unwrap().is_none(),
                "groups={groups}: aborted create leaked into a replica"
            );
            let b = store
                .read_node(&ctx, "/m/b")
                .unwrap()
                .expect("pre-existing");
            assert_eq!(b.data.as_ref(), b"seed", "aborted set leaked");
            assert_eq!(b.version, 0);
        }
        // System storage: the create never materialized.
        let sys = deployment.system();
        assert!(
            !fk_core::system_store::SystemStore::node_exists(sys.get_node(&ctx, "/m/a").as_ref()),
            "groups={groups}: aborted create reached system storage"
        );
        // The client was told the transaction failed.
        let mut saw_error = false;
        while let Ok(notification) = notifications.try_recv() {
            if let ClientNotification::WriteResult {
                request_id: 9,
                result: Err(_),
                ..
            } = notification
            {
                saw_error = true;
            }
        }
        assert!(saw_error, "groups={groups}: client notified of the abort");
        deployment.shutdown();
    }
}

/// A multi's watch fan-out: one NodeChildrenChanged per watched parent,
/// stamped with the multi's txid.
#[test]
fn multi_fires_watches_with_the_shared_txid() {
    let deployment = Deployment::start(DeploymentConfig::aws());
    let writer = deployment.connect("multi-writer").unwrap();
    writer.create("/w", b"", CreateMode::Persistent).unwrap();
    let watcher = deployment.connect("multi-watcher").unwrap();
    watcher.get_children("/w", true).unwrap();

    let results = writer
        .multi(vec![
            Op::create("/w/a", b"1", CreateMode::Persistent),
            Op::create("/w/b", b"2", CreateMode::Persistent),
        ])
        .unwrap();
    let txid = match &results[0] {
        OpResult::Create { stat, .. } => stat.modified_txid,
        other => panic!("unexpected {other:?}"),
    };
    let event = watcher
        .watch_events()
        .recv_timeout(Duration::from_secs(5))
        .expect("children watch fires");
    assert_eq!(event.path, "/w");
    assert_eq!(event.txid, txid, "event stamped with the multi's txid");

    let _ = writer.close();
    let _ = watcher.close();
    deployment.shutdown();
}

// ----------------------------------------------------------------------
// Multis sharing epochs with single writes (direct drive, random leader
// schedules, crash / lock-steal endings)
// ----------------------------------------------------------------------

/// Number of slots in [`TREE`].
const SLOTS: usize = 6;

/// The family — a parent with its children, or the childless sibling —
/// each [`TREE`] slot belongs to.
const FAMILY: [usize; SLOTS] = [0, 1, 0, 0, 1, 2];

/// The tree the interleaved workload plays on, all under `/m`: parents
/// `a` and `b` (slots 0, 1), children `a/x`, `a/y`, `b/x` (2, 3, 4) and
/// a childless sibling `c` (5). Children are named so that a family
/// shares one leader lane at 2 and 4 shard groups.
static TREE: LazyLock<[String; SLOTS]> = LazyLock::new(|| {
    let beside = |parent: &str, stem: &str| -> String {
        let mut names = (0..).map(|i| format!("{parent}/{stem}{i}"));
        let same_lane = |name: &String| group_of(name, 4) == group_of(parent, 4);
        names.find(same_lane).expect("some name shares the lane")
    };
    [
        "/m/a".to_owned(),
        "/m/b".to_owned(),
        beside("/m/a", "x"),
        beside("/m/a", "y"),
        beside("/m/b", "x"),
        "/m/c".to_owned(),
    ]
});

fn parent_of(path: &str) -> &str {
    &path[..path.rfind('/').expect("absolute path")]
}

/// One op on a [`TREE`] slot, unconditional on versions.
#[derive(Debug, Clone, Copy)]
enum TreeOp {
    Create(usize),
    Set(usize),
    Delete(usize),
    Check(usize),
}

impl TreeOp {
    fn slot(self) -> usize {
        match self {
            TreeOp::Create(s) | TreeOp::Set(s) | TreeOp::Delete(s) | TreeOp::Check(s) => s,
        }
    }
}

/// A generated op: its kind, and which of the slots the kind is valid
/// on *when its turn comes* (`valid`) — or, for a minority, one of the
/// others — it picks. Resolved against the model at submission time, so
/// most generated writes commit and multis build on their own subs
/// (create a parent, then a child under it).
#[derive(Debug, Clone, Copy)]
struct GenTreeOp {
    kind: u8,
    pick: usize,
    valid: bool,
}

/// A generated write: one op, or a multi of several.
#[derive(Debug, Clone)]
enum TreeWrite {
    Single(GenTreeOp),
    Multi(Vec<GenTreeOp>),
}

fn tree_op(kinds: u8) -> impl Strategy<Value = GenTreeOp> {
    (0..kinds, 0usize..64, 0u8..8).prop_map(|(kind, pick, roll)| GenTreeOp {
        kind,
        pick,
        valid: roll > 0,
    })
}

fn tree_write() -> impl Strategy<Value = TreeWrite> {
    prop_oneof![
        tree_op(3).prop_map(TreeWrite::Single),
        tree_op(3).prop_map(TreeWrite::Single),
        proptest::collection::vec(tree_op(4), 2..4).prop_map(TreeWrite::Multi),
    ]
}

/// How the run ends: cleanly, or with one more multi whose follower
/// died between push and commit — repaired by the leader's `TryCommit`
/// (`Crash`), or abandoned because its locks were stolen first (`Steal`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ending {
    Clean,
    Crash,
    Steal,
}

/// Reference model of the tree: path → payload of its last write.
#[derive(Debug, Clone, Default)]
struct TreeModel {
    nodes: BTreeMap<String, String>,
}

impl TreeModel {
    fn has_children(&self, path: &str) -> bool {
        self.nodes.keys().any(|other| parent_of(other) == path)
    }

    /// The concrete op `gen` stands for in the current state, picked
    /// from `family`'s slots only when one is given.
    fn resolve(&self, gen: GenTreeOp, family: Option<usize>) -> TreeOp {
        let op = |slot| match gen.kind {
            0 => TreeOp::Create(slot),
            1 => TreeOp::Set(slot),
            2 => TreeOp::Delete(slot),
            _ => TreeOp::Check(slot),
        };
        let allowed = |slot: &usize| family.is_none_or(|family| FAMILY[*slot] == family);
        let fits = |slot: &usize| self.clone().apply(op(*slot), "").is_ok() == gen.valid;
        let allowed: Vec<usize> = (0..SLOTS).filter(allowed).collect();
        let fitting: Vec<usize> = allowed.iter().copied().filter(fits).collect();
        let from = if fitting.is_empty() { allowed } else { fitting };
        op(from[gen.pick % from.len()])
    }

    /// Applies one op with payload `tag`; `Err` leaves the model as is.
    fn apply(&mut self, op: TreeOp, tag: &str) -> Result<(), ()> {
        let path = TREE[op.slot()].as_str();
        let exists = self.nodes.contains_key(path);
        match op {
            TreeOp::Create(_) if !exists && self.nodes.contains_key(parent_of(path)) => {
                self.nodes.insert(path.to_owned(), tag.to_owned());
            }
            TreeOp::Set(_) if exists => {
                self.nodes.insert(path.to_owned(), tag.to_owned());
            }
            TreeOp::Delete(_) if exists && !self.has_children(path) => {
                self.nodes.remove(path);
            }
            TreeOp::Check(_) if exists => {}
            _ => return Err(()),
        }
        Ok(())
    }

    /// Resolves a multi's ops in order, each against the state its
    /// predecessors would leave, and applies them all-or-nothing: a
    /// second mutation of one path is rejected up front, then the ops
    /// validate in order against the overlay. With `one_lane`, every
    /// mutating sub stays in the first one's family. Returns the
    /// concrete ops and whether the multi commits.
    fn apply_multi(&mut self, ops: &[GenTreeOp], tag: &str, one_lane: bool) -> (Vec<TreeOp>, bool) {
        let mut overlay = self.clone();
        let (mut concrete, mut mutated, mut valid) = (Vec::new(), Vec::new(), true);
        let mut family = None;
        for (i, gen) in ops.iter().enumerate() {
            let mutates = gen.kind < 3;
            let op = overlay.resolve(*gen, family.filter(|_| mutates));
            if mutates {
                valid &= !mutated.contains(&op.slot());
                mutated.push(op.slot());
                family = family.or(one_lane.then_some(FAMILY[op.slot()]));
            }
            // A failed sub leaves the overlay as is; later subs still
            // resolve against something sensible.
            valid &= overlay.apply(op, &format!("{tag}.{i}")).is_ok();
            concrete.push(op);
        }
        if valid {
            *self = overlay;
        }
        (concrete, valid)
    }
}

fn wire_multi(ops: &[TreeOp], tag: &str) -> WriteOp {
    let ops = ops.iter().enumerate().map(|(i, op)| {
        let path = TREE[op.slot()].clone();
        let payload = Payload::inline(format!("{tag}.{i}").as_bytes());
        match op {
            TreeOp::Create(_) => MultiOp::Create {
                path,
                payload,
                mode: CreateMode::Persistent,
            },
            TreeOp::Set(_) => MultiOp::SetData {
                path,
                payload,
                expected_version: -1,
            },
            TreeOp::Delete(_) => MultiOp::Delete {
                path,
                expected_version: -1,
            },
            TreeOp::Check(_) => MultiOp::Check {
                path,
                expected_version: -1,
            },
        }
    });
    WriteOp::Multi { ops: ops.collect() }
}

fn wire_single(op: TreeOp, tag: &str) -> WriteOp {
    let path = TREE[op.slot()].clone();
    let payload = Payload::inline(tag.as_bytes());
    match op {
        TreeOp::Create(_) => WriteOp::Create {
            path,
            payload,
            mode: CreateMode::Persistent,
        },
        TreeOp::Set(_) => WriteOp::SetData {
            path,
            payload,
            expected_version: -1,
        },
        TreeOp::Delete(_) => WriteOp::Delete {
            path,
            expected_version: -1,
        },
        TreeOp::Check(_) => unreachable!("checks only ride in multis"),
    }
}

/// Runs `writes` (three sessions round-robin) through the follower one
/// request at a time — so validation order is submission order — with
/// no leader running, then drains the lanes in a seeded random group
/// order and compares everything observable with the model.
///
/// In a multi-group tier every mutating sub of a multi stays in one
/// lane (one [`FAMILY`]): a node's writes are ordered by its own lane
/// only, so a multi that mutates another lane's node is not ordered
/// against that node's own records (ROADMAP item 3 — it predates this
/// suite, which found it).
fn run_interleaved(
    groups: usize,
    batch: usize,
    seeded: &[usize],
    writes: &[TreeWrite],
    ending: Ending,
    schedule_seed: u64,
) {
    const SESSIONS: [&str; 3] = ["w0", "w1", "w2"];
    let deployment = Deployment::direct(
        DeploymentConfig::aws()
            .with_distributor(DistributorConfig::new(3, batch).with_groups(groups)),
    );
    let follower = deployment.make_follower();
    let leaders: Vec<_> = (0..groups)
        .map(|_| deployment.make_leader_inline())
        .collect();
    let ctx = fk_cloud::trace::Ctx::disabled();
    let endpoints: Vec<_> = SESSIONS
        .iter()
        .map(|id| {
            deployment.system().register_session(&ctx, id, 0).unwrap();
            deployment.bus().register(id).0
        })
        .collect();

    // Submits one request and runs the follower over it.
    let mut next_request = [1u64; 3];
    let mut push = |session: usize, op: WriteOp| -> (usize, u64) {
        let request_id = next_request[session];
        next_request[session] += 1;
        let request = ClientRequest {
            session_id: SESSIONS[session].into(),
            request_id,
            op,
        };
        let queue = deployment.write_queue();
        queue
            .send(&ctx, SESSIONS[session], request.encode())
            .unwrap();
        let batch = queue.receive(10, Duration::from_secs(5)).unwrap();
        follower.process_messages(&ctx, &batch.messages).unwrap();
        queue.ack(batch.receipt);
        (session, request_id)
    };
    let mut rng = SmallRng::seed_from_u64(schedule_seed);
    let mut drain_random = || {
        let mut spins = 0;
        while deployment.leader_queues().pending() > 0 {
            let g = rng.gen_range(0..groups);
            let _ = leaders[g].drain_queue(&ctx, deployment.leader_queues().queue(g));
            spins += 1;
            assert!(spins < 20_000, "leader tier failed to converge");
        }
    };

    // Setup, fully distributed before the interleaving starts.
    let mut model = TreeModel::default();
    model.nodes.insert("/m".into(), "root".into());
    let create_root = WriteOp::Create {
        path: "/m".into(),
        payload: Payload::inline(b"root"),
        mode: CreateMode::Persistent,
    };
    let mut setup = vec![push(0, create_root)];
    for &slot in seeded {
        if model.apply(TreeOp::Create(slot), "seed").is_ok() {
            setup.push(push(0, wire_single(TreeOp::Create(slot), "seed")));
        }
    }
    drain_random();

    // The interleaving: every write is queued in its lane before any
    // leader runs. `commits` holds the model's verdict per request,
    // `multis` the request behind each multi's payload tag.
    let mut commits: HashMap<(usize, u64), bool> = HashMap::new();
    let mut multis: HashMap<String, (usize, u64)> = HashMap::new();
    for (i, write) in writes.iter().enumerate() {
        let (session, tag) = (i % SESSIONS.len(), format!("w{i}"));
        match write {
            TreeWrite::Single(gen) => {
                let op = model.resolve(*gen, None);
                let request = push(session, wire_single(op, &tag));
                commits.insert(request, model.apply(op, &tag).is_ok());
            }
            TreeWrite::Multi(gens) => {
                let (ops, valid) = model.apply_multi(gens, &tag, groups > 1);
                let request = push(session, wire_multi(&ops, &tag));
                commits.insert(request, valid);
                multis.insert(tag, request);
            }
        }
    }

    // The ending: one more multi on sibling and parent/child paths of
    // everything queued above — an overwrite of some surviving node, a
    // fresh child of `/m` in that node's lane, a check of the parent —
    // whose follower dies before its commit.
    let victim = model.nodes.keys().find(|path| *path != "/m").cloned();
    let lane = victim.as_deref().map_or(0, |path| group_of(path, 4));
    let mut fresh = (0..).map(|i| format!("/m/z{i}"));
    let fresh = fresh.find(|path| group_of(path, 4) == lane).unwrap();
    if ending != Ending::Clean {
        let mut ops: Vec<MultiOp> = Vec::new();
        ops.extend(victim.iter().map(|path| MultiOp::SetData {
            path: path.clone(),
            payload: Payload::inline(b"end.0"),
            expected_version: -1,
        }));
        ops.push(MultiOp::Create {
            path: fresh.clone(),
            payload: Payload::inline(b"end.1"),
            mode: CreateMode::Persistent,
        });
        ops.push(MultiOp::Check {
            path: "/m".into(),
            expected_version: -1,
        });
        follower.config().skip_commits.store(1, Ordering::SeqCst);
        let request = push(0, WriteOp::Multi { ops });
        multis.insert("end".into(), request);
        commits.insert(request, ending == Ending::Crash);
        if ending == Ending::Crash {
            model.nodes.insert(fresh.clone(), "end.1".into());
            if let Some(path) = &victim {
                model.nodes.insert(path.clone(), "end.0".into());
            }
        } else {
            let far_future = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_millis() as i64
                + 10_000_000;
            for path in [fresh.as_str(), "/m"].into_iter().chain(victim.as_deref()) {
                let key = fk_core::system_store::keys::node(path);
                let stolen = deployment.system().locks().acquire(&ctx, &key, far_future);
                stolen.expect("steal expired lock");
            }
        }
    }
    drain_random();
    for (g, leader) in leaders.iter().enumerate() {
        let ahead = leader.applied_ahead();
        assert_eq!(ahead, 0, "group {g} still remembers {ahead} queued records");
    }

    // Every request answered exactly once, success exactly where the
    // model commits; the committed ones reach their endpoint in
    // submission order with rising txids (a rejection, like a check-only
    // multi, is answered by the follower at once and without a txid,
    // ahead of queued predecessors — the client's pending table is what
    // re-orders those).
    let mut txid_of: HashMap<(usize, u64), u64> = HashMap::new();
    for (session, endpoint) in endpoints.iter().enumerate() {
        let mut answered = Vec::new();
        let (mut last_committed, mut last_txid) = (0, 0);
        while let Ok(notification) = endpoint.try_recv() {
            let ClientNotification::WriteResult {
                request_id,
                result,
                txid,
            } = notification
            else {
                continue;
            };
            answered.push(request_id);
            let request = (session, request_id);
            let commits = setup.contains(&request) || commits[&request];
            assert_eq!(result.is_ok(), commits, "request {request:?}: {result:?}");
            if commits && txid > 0 {
                assert!(request_id > last_committed, "session {session}: ack order");
                assert!(txid > last_txid, "session {session}: txid order");
                (last_committed, last_txid) = (request_id, txid);
                txid_of.insert(request, txid);
            }
        }
        answered.sort_unstable();
        let submitted: Vec<u64> = (1..next_request[session]).collect();
        assert_eq!(
            answered, submitted,
            "session {session}: one answer per request"
        );
    }

    // The tree is the model's, in every replica, and every node whose
    // last writer is a multi carries that multi's one txid (a later
    // children rewrite may have moved a parent's `modified_txid` on; it
    // then also moved `children_txid`).
    for store in deployment.user_stores() {
        for path in TREE.iter().map(String::as_str).chain(["/m", &fresh]) {
            let stored = store.read_node(&ctx, path).unwrap();
            let data = stored
                .as_ref()
                .map(|node| String::from_utf8_lossy(&node.data).into_owned());
            assert_eq!(data.as_ref(), model.nodes.get(path), "{path} vs the model");
            let Some(node) = stored else { continue };
            let mut children: Vec<&str> = node.children.iter().map(String::as_str).collect();
            children.sort_unstable();
            let below = model.nodes.keys().filter(|other| parent_of(other) == path);
            let modeled: Vec<&str> = below.map(|other| &other[path.len() + 1..]).collect();
            assert_eq!(children, modeled, "children of {path}");
            if let Some((tag, _)) = data.as_deref().and_then(|data| data.split_once('.')) {
                let txid = txid_of[&multis[tag]];
                assert!(
                    node.modified_txid == txid || node.children_txid > txid,
                    "{path}: mzxid {} is not its multi's txid {txid}",
                    node.modified_txid
                );
            }
        }
    }
    let violations = fk_core::consistency::check_tree_integrity(
        &ctx,
        deployment.system(),
        deployment.user_store().as_ref(),
    );
    assert!(violations.is_empty(), "{violations:#?}");
    deployment.shutdown();
}

/// Random leader schedules replayed per generated case (consecutive
/// seeds from the generated one), as in `multi_leader_properties`.
const SCHEDULES_PER_CASE: u64 = 4;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Multis interleaved with single writes on sibling and parent/child
    /// paths, eight or more writes queued per run before any leader
    /// starts: the outcome of every request, the final tree in every
    /// replica, tree integrity (Z1), per-endpoint ack and txid order,
    /// and one `mzxid` per multi all match the sequential model —
    /// whatever the lane schedule, at 1, 2 and 4 shard groups, and
    /// through a crashed or lock-stolen multi at the end.
    #[test]
    fn multis_share_epochs_with_single_writes_at_random_geometry(
        groups in prop_oneof![Just(1usize), Just(2), Just(4)],
        batch in 8usize..17,
        seeded in proptest::collection::vec(0usize..SLOTS, 0..5),
        writes in proptest::collection::vec(tree_write(), 8..20),
        ending in prop_oneof![Just(Ending::Clean), Just(Ending::Crash), Just(Ending::Steal)],
        schedule_seed in 0u64..10_000,
    ) {
        for schedule in 0..SCHEDULES_PER_CASE {
            let seed = schedule_seed.wrapping_add(schedule);
            run_interleaved(groups, batch, &seeded, &writes, ending, seed);
        }
    }
}
