//! Checkpoint / state-transfer: consistent snapshots of the user-store
//! tree plus log-suffix catch-up, the machinery behind membership
//! changes that lose no writes.
//!
//! A membership change — scaling the shard-group tier out, draining a
//! hot group, or bootstrapping a fresh regional read replica mid-run —
//! needs a way to hand a *joiner* the current state without stopping
//! the write path. The protocol here is the classic checkpoint +
//! log-suffix replay (cf. CST in BFT-SMaRt/febft): cut a snapshot at a
//! known point of the committed epoch stream and let the joiner replay
//! the retained epoch-delta log from the cut point forward.
//!
//! A [`Checkpoint`] lives in memory: the joiner is a replica in the same
//! process, and it must read the in-process feed log after the snapshot
//! anyway. Its [`FeedCut`]s register it as a reader of each region's log,
//! so the log keeps the suffix after the cut for as long as the
//! checkpoint is held, and a join from it cannot fail.
//!
//! ## Why the cut is consistent
//!
//! [`cut_checkpoint`] records the transfer coordinates **first** — the
//! per-group committed-txid floors ([`CommittedFloors::snapshot`]) and
//! one cut per region ([`ReplicaSet::cuts`]) — and only then walks the
//! tree. The distributor feeds replicas strictly *after* the storage
//! operations of an epoch complete, so every epoch with a feed sequence
//! ≤ the cut is already fully visible in the user store when the walk
//! starts. Anything that lands *during* the walk is newer than the cut;
//! the joiner replays it from the log, and replay is idempotent because
//! installs merge by the same monotone rules as the feed (`modified_txid`
//! max, `children_txid`-winning lists —
//! [`ReadReplica::install_snapshot`]). A record the walk caught early or
//! twice therefore converges to the same bytes. The user store retries
//! its own transient failures ([`fk_cloud::retry`]).

use crate::replica::{CommittedFloors, FeedCut, ReadReplica, ReplicaSet};
use crate::system_store::{txid, SystemStore};
use crate::user_store::{NodeRecord, UserStore};
use fk_cloud::error::CloudResult;
use fk_cloud::trace::Ctx;
use std::collections::VecDeque;
use std::sync::Arc;

/// A consistent checkpoint: everything a joiner needs to install the
/// snapshot and replay the log suffix. Holding it holds its cuts.
pub struct Checkpoint {
    /// Per-shard-group committed-txid floors at the cut
    /// ([`CommittedFloors::snapshot`]).
    pub floors: Vec<u64>,
    /// One cut per region of the replica tier, in region order (none
    /// when the tier is disabled): a replica joining region `r` pulls
    /// from `cuts[r].seq() + 1`.
    pub cuts: Vec<FeedCut>,
    /// The tree reachable from `"/"`, in breadth-first order.
    pub records: Vec<NodeRecord>,
}

/// Cuts a consistent checkpoint of `store`'s tree.
///
/// Records the transfer coordinates (committed floors, then one cut per
/// region) *before* walking, then BFS-walks the tree from `"/"`
/// following children lists (see module docs for the consistency
/// argument).
pub fn cut_checkpoint(
    ctx: &Ctx,
    store: &Arc<dyn UserStore>,
    floors: &CommittedFloors,
    replicas: &ReplicaSet,
) -> CloudResult<Checkpoint> {
    // Coordinates first: every epoch at or below these marks is fully
    // in storage before the walk reads its first record.
    let floors = floors.snapshot();
    let cuts = replicas.cuts();

    let mut records = Vec::new();
    let mut queue: VecDeque<String> = VecDeque::new();
    queue.push_back("/".to_string());
    while let Some(path) = queue.pop_front() {
        let record = store.read_node(ctx, &path)?;
        // A child listed at the cut but deleted during the walk is a
        // post-cut change; the log suffix carries the delete, so the
        // snapshot simply omits it.
        let Some(record) = record else { continue };
        for child in record.children.iter() {
            queue.push_back(crate::path::join(&path, child));
        }
        records.push(record);
    }
    Ok(Checkpoint {
        floors,
        cuts,
        records,
    })
}

/// Bootstraps a new [`ReadReplica`] into `region_idx` from `checkpoint`:
/// installs its records and floors and replays the retained feed-log
/// suffix after the region's cut ([`ReplicaSet::join_replica`]).
///
/// # Panics
///
/// If the checkpoint holds no cut for `region_idx`.
pub fn bootstrap_replica(
    ctx: &Ctx,
    region_idx: usize,
    checkpoint: &Checkpoint,
    replicas: &ReplicaSet,
) -> Arc<ReadReplica> {
    replicas.join_replica(
        ctx,
        &checkpoint.cuts[region_idx],
        &checkpoint.records,
        &checkpoint.floors,
    )
}

/// Activates shard group `group` as a write-path joiner: seeds its
/// txid-sequence counter past every epoch of the committed floors
/// `seed_floors` (so fresh txids always sort after everything committed
/// before it joined) and publishes an initial committed floor, keeping
/// the group from dragging the cluster-wide committed watermark
/// ([`CommittedFloors::committed`]) back to zero. Returns the txid the
/// floor was published at.
///
/// Publishing a floor for an empty group is sound: the floor claims
/// every transaction of `group` with a smaller txid is distributed,
/// which is vacuously true — the group has issued none.
pub fn activate_group(
    ctx: &Ctx,
    group: usize,
    system: &SystemStore,
    floors: &CommittedFloors,
    seed_floors: &[u64],
) -> CloudResult<u64> {
    let seed_floor = seed_floors.iter().copied().max().unwrap_or(0);
    let seeded = system.alloc_txid(ctx, group, seed_floor)?;
    debug_assert_eq!(txid::group_of(seeded), group);
    floors.publish(group, seeded);
    Ok(seeded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::replica::{EpochDelta, ReplicaConfig, ReplicaOp};
    use crate::user_store::KvUserStore;
    use bytes::Bytes;
    use fk_cloud::chaos::{Chaos, FaultPlan, FaultSpec};
    use fk_cloud::objectstore::ObjectStore;
    use fk_cloud::{KvStore, Meter, Region};

    fn record(path: &str, data: &[u8], txid: u64, children: &[&str]) -> NodeRecord {
        NodeRecord {
            path: path.to_string(),
            data: Bytes::copy_from_slice(data),
            created_txid: txid,
            modified_txid: txid,
            version: 0,
            children: Arc::new(children.iter().map(|c| c.to_string()).collect()),
            children_txid: txid,
            ephemeral_owner: None,
            epoch_marks: Arc::new(Vec::new()),
        }
    }

    fn kv_store() -> Arc<dyn UserStore> {
        Arc::new(KvUserStore::new(KvStore::new(
            "user",
            Region::US_EAST_1,
            Meter::new(),
        )))
    }

    fn seed(ctx: &Ctx, store: Arc<dyn UserStore>) -> Arc<dyn UserStore> {
        store
            .write_node(ctx, &record("/", b"", 1, &["a", "b"]))
            .unwrap();
        store
            .write_node(ctx, &record("/a", b"alpha", 2, &["c"]))
            .unwrap();
        store
            .write_node(ctx, &record("/a/c", b"gamma", 3, &[]))
            .unwrap();
        store
            .write_node(ctx, &record("/b", b"beta", 4, &[]))
            .unwrap();
        // Unreachable from "/" (no children entry): the walk must skip it.
        store
            .write_node(ctx, &record("/orphan", b"lost", 5, &[]))
            .unwrap();
        store
    }

    fn seeded_store(ctx: &Ctx) -> Arc<dyn UserStore> {
        seed(ctx, kv_store())
    }

    #[test]
    fn checkpoint_roundtrip_carries_the_reachable_tree() {
        let ctx = Ctx::disabled();
        let store = seeded_store(&ctx);
        let floors = CommittedFloors::new(2);
        floors.publish(0, 16);
        floors.publish(1, 17);
        let replicas =
            ReplicaSet::build(ReplicaConfig::with_count(1), &[Region::US_EAST_1], 2, None);

        let checkpoint = cut_checkpoint(&ctx, &store, &floors, &replicas).unwrap();
        assert_eq!(checkpoint.records.len(), 4, "orphan is unreachable");
        assert_eq!(checkpoint.floors, vec![16, 17]);
        assert_eq!(checkpoint.cuts.len(), 1, "one cut per region");
        assert_eq!(checkpoint.cuts[0].seq(), 0);
        let mut paths: Vec<&str> = checkpoint.records.iter().map(|r| r.path.as_str()).collect();
        paths.sort_unstable();
        assert_eq!(paths, vec!["/", "/a", "/a/c", "/b"]);
        let a = checkpoint.records.iter().find(|r| r.path == "/a").unwrap();
        assert_eq!(a.data.as_ref(), b"alpha");
        assert_eq!(a.modified_txid, 2);
        let none = cut_checkpoint(&ctx, &store, &floors, &ReplicaSet::default()).unwrap();
        assert!(none.cuts.is_empty(), "a disabled tier has no log to cut");
    }

    #[test]
    fn the_walk_returns_the_tree_breadth_first() {
        let ctx = Ctx::disabled();
        let store = kv_store();
        let children: Vec<String> = (0..24).map(|i| format!("n{i:02}")).collect();
        let child_refs: Vec<&str> = children.iter().map(|s| s.as_str()).collect();
        store
            .write_node(&ctx, &record("/", b"", 1, &child_refs))
            .unwrap();
        let blob = vec![0x5A_u8; 8 * 1024];
        for (i, name) in children.iter().enumerate() {
            store
                .write_node(&ctx, &record(&format!("/{name}"), &blob, 2 + i as u64, &[]))
                .unwrap();
        }
        let floors = CommittedFloors::new(1);
        let records = cut_checkpoint(&ctx, &store, &floors, &ReplicaSet::default())
            .unwrap()
            .records;
        assert_eq!(records.len(), 25);
        // BFS order: root first, then the children in list order.
        assert_eq!(records[0].path, "/");
        assert_eq!(records[1].path, "/n00");
        assert_eq!(records[24].path, "/n23");
    }

    #[test]
    fn cut_checkpoint_rides_out_injected_store_faults() {
        let ctx = Ctx::disabled();
        let bucket = ObjectStore::new("fk-user", Region::US_EAST_1, Meter::new());
        let store = seed(&ctx, Arc::new(bucket.clone()));
        let mut plan = FaultPlan::disabled();
        plan.obj_error = FaultSpec::new(0.4, 6);
        bucket.install_chaos(Chaos::from_plan(plan).unwrap());
        let floors = CommittedFloors::new(1);
        let checkpoint = cut_checkpoint(&ctx, &store, &floors, &ReplicaSet::default()).unwrap();
        assert_eq!(checkpoint.records.len(), 4);
    }

    #[test]
    fn bootstrap_replica_installs_snapshot_and_replays_the_suffix() {
        let ctx = Ctx::disabled();
        let store = seeded_store(&ctx);
        let floors = CommittedFloors::new(1);
        floors.publish(0, 3);
        let replicas =
            ReplicaSet::build(ReplicaConfig::with_count(1), &[Region::US_EAST_1], 1, None);

        let checkpoint = cut_checkpoint(&ctx, &store, &floors, &replicas).unwrap();

        // A post-cut epoch lands in the feed before the joiner arrives.
        let post_cut = record("/a", b"alpha-v2", 9, &["c"]);
        let delta = EpochDelta {
            ops: Arc::new(vec![ReplicaOp::Write {
                path: post_cut.path.clone(),
                frame: codec::encode_node(&post_cut),
            }]),
            marks: Arc::new(Vec::new()),
            high_water: Arc::new(vec![(0, 9)]),
            seq: 0,
        };
        replicas.feed(&ctx, 0, &delta);

        let joiner = bootstrap_replica(&ctx, 0, &checkpoint, &replicas);
        replicas.reconcile(&ctx);
        let a = joiner.peek("/a").expect("installed and replayed");
        assert_eq!(a.data.as_ref(), b"alpha-v2", "log suffix won");
        assert_eq!(a.modified_txid, 9);
        let c = joiner.peek("/a/c").expect("from the snapshot");
        assert_eq!(c.data.as_ref(), b"gamma");
        assert_eq!(replicas.region(0).len(), 2, "joiner registered");
    }

    #[test]
    fn activate_group_seeds_fresh_txids_past_the_checkpoint() {
        let ctx = Ctx::disabled();
        let system = SystemStore::new(KvStore::new("sys", Region::US_EAST_1, Meter::new()));
        let floors = CommittedFloors::new(8);
        for g in 0..4 {
            floors.publish(g, txid::compose(100 + g as u64, g));
        }
        for g in 4..8 {
            floors.set_active(g, false);
        }
        assert_eq!(txid::epoch_of(floors.committed()), 100);

        let seeded = activate_group(&ctx, 5, &system, &floors, &floors.snapshot()).unwrap();
        assert_eq!(txid::group_of(seeded), 5);
        assert!(
            txid::epoch_of(seeded) > 103,
            "seeded past the checkpoint's highest epoch"
        );
        assert!(floors.is_active(5));
        assert_eq!(
            txid::epoch_of(floors.committed()),
            100,
            "the joiner's floor does not drag the committed min down"
        );
    }
}
