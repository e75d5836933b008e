//! Checkpoint / state-transfer: consistent snapshots of the user-store
//! tree plus log-suffix catch-up, the machinery behind membership
//! changes that lose no writes.
//!
//! A membership change — scaling the shard-group tier out, draining a
//! hot group, or bootstrapping a fresh regional read replica mid-run —
//! needs a way to hand a *joiner* the current state without stopping
//! the write path. The protocol here is the classic checkpoint +
//! log-suffix replay (cf. CST in BFT-SMaRt/febft): cut a snapshot at a
//! known point of the committed epoch stream, ship it through the
//! object store in codec-framed chunks, and let the joiner replay the
//! retained epoch-delta log from the cut point forward.
//!
//! ## Why the cut is consistent
//!
//! [`cut_checkpoint`] records the transfer coordinates **first** — the
//! per-group committed-txid floors ([`CommittedFloors::snapshot`]) and
//! each region's feed sequence ([`ReplicaSet::feed_seq`]) — and only
//! then walks the tree. The distributor feeds replicas strictly *after*
//! the storage operations of an epoch complete, so every epoch with a feed
//! sequence ≤ the recorded cut is already fully visible in the user
//! store when the walk starts. Anything that lands *during* the walk is
//! newer than the cut; the joiner replays it from the log, and replay
//! is idempotent because installs merge by the same monotone rules as
//! the feed (`modified_txid` max, `children_txid`-winning lists —
//! [`ReadReplica::install_snapshot`]). A record the walk caught early
//! or twice therefore converges to the same bytes.
//!
//! ## Wire format
//!
//! Node records travel as [`codec::encode_node`] frames packed into
//! [`codec::encode_checkpoint_chunk`] chunks of roughly
//! [`CHUNK_TARGET_BYTES`], stored under `ckpt/{id:016x}/chunk-*`; the
//! [`CheckpointManifest`] (floors, per-region feed cut, chunk and node
//! counts) is sealed last under `.../manifest`, so a reader that can
//! see the manifest can see every chunk. The staging bucket is a chaos
//! fault point; it retries its own transient failures
//! ([`fk_cloud::retry`]), and so does the user store the walk reads.

use crate::codec;
use crate::replica::{CommittedFloors, ReadReplica, ReplicaSet};
use crate::system_store::{txid, SystemStore};
use crate::user_store::{NodeRecord, UserStore};
use bytes::Bytes;
use fk_cloud::error::{CloudError, CloudResult};
use fk_cloud::objectstore::ObjectStore;
use fk_cloud::trace::Ctx;
use std::collections::VecDeque;
use std::sync::Arc;

/// Soft chunk size: a chunk is sealed once its encoded frames pass this
/// threshold, keeping every object comfortably inside provider payload
/// limits while amortizing per-object billing.
pub const CHUNK_TARGET_BYTES: usize = 64 * 1024;

/// The summary record sealed after a checkpoint's chunks: everything a
/// joiner needs to install the snapshot and replay the log suffix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointManifest {
    /// Checkpoint id (object keys live under `ckpt/{id:016x}/`).
    pub id: u64,
    /// Per-shard-group committed-txid floors at the cut
    /// ([`CommittedFloors::snapshot`]): the joiner replays committed
    /// deltas from these floors forward.
    pub floors: Vec<u64>,
    /// Per-region feed sequence at the cut ([`ReplicaSet::feed_seq`]):
    /// a replica joining region `r` starts log-suffix replay at
    /// `feed_seq[r] + 1`.
    pub feed_seq: Vec<u64>,
    /// Number of chunk objects under the checkpoint prefix.
    pub chunks: u64,
    /// Total node records across all chunks.
    pub nodes: u64,
}

impl CheckpointManifest {
    /// The object-store prefix all of this checkpoint's objects share.
    pub fn prefix(&self) -> String {
        prefix_of(self.id)
    }
}

fn prefix_of(id: u64) -> String {
    format!("ckpt/{id:016x}/")
}

fn chunk_key(id: u64, index: u64) -> String {
    format!("ckpt/{id:016x}/chunk-{index:06}")
}

fn manifest_key(id: u64) -> String {
    format!("ckpt/{id:016x}/manifest")
}

/// Cuts a consistent checkpoint of `store`'s tree into `staging`.
///
/// Records the transfer coordinates (committed floors, per-region feed
/// sequences) *before* walking, then BFS-walks the tree from `"/"`
/// following children lists, packing [`codec::encode_node`] frames into
/// chunks (see module docs for the consistency argument). Returns the
/// sealed manifest; the manifest object is written last.
pub fn cut_checkpoint(
    ctx: &Ctx,
    id: u64,
    store: &Arc<dyn UserStore>,
    staging: &ObjectStore,
    floors: &CommittedFloors,
    replicas: &ReplicaSet,
    regions: usize,
) -> CloudResult<CheckpointManifest> {
    // Coordinates first: every epoch at or below these marks is fully
    // in storage before the walk reads its first record.
    let floor_snapshot = floors.snapshot();
    let feed_seq: Vec<u64> = (0..regions).map(|r| replicas.feed_seq(r)).collect();

    let mut frames: Vec<Bytes> = Vec::new();
    let mut frames_bytes = 0usize;
    let mut chunks = 0u64;
    let mut nodes = 0u64;

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
        let frame = codec::encode_node(&record);
        frames_bytes += frame.len();
        frames.push(frame);
        nodes += 1;
        if frames_bytes >= CHUNK_TARGET_BYTES {
            flush_chunk(ctx, id, staging, &mut frames, &mut chunks)?;
            frames_bytes = 0;
        }
    }
    if !frames.is_empty() {
        flush_chunk(ctx, id, staging, &mut frames, &mut chunks)?;
    }

    let manifest = CheckpointManifest {
        id,
        floors: floor_snapshot,
        feed_seq,
        chunks,
        nodes,
    };
    let encoded = codec::encode_checkpoint_manifest(&manifest);
    staging.put(ctx, &manifest_key(id), encoded)?;
    Ok(manifest)
}

fn flush_chunk(
    ctx: &Ctx,
    id: u64,
    staging: &ObjectStore,
    frames: &mut Vec<Bytes>,
    chunks: &mut u64,
) -> CloudResult<()> {
    let encoded = codec::encode_checkpoint_chunk(frames);
    staging.put(ctx, &chunk_key(id, *chunks), encoded)?;
    frames.clear();
    *chunks += 1;
    Ok(())
}

/// Loads a checkpoint's manifest from `staging`.
pub fn load_manifest(ctx: &Ctx, id: u64, staging: &ObjectStore) -> CloudResult<CheckpointManifest> {
    let (bytes, _) = staging.get(ctx, &manifest_key(id))?;
    codec::decode_checkpoint_manifest(&bytes).ok_or_else(|| CloudError::InvalidOperation {
        detail: format!("checkpoint {id:#x}: undecodable manifest"),
    })
}

/// Loads every node record of checkpoint `manifest` from `staging`, in
/// chunk order. Fails if any chunk is missing, undecodable, or the
/// total record count disagrees with the manifest.
pub fn load_records(
    ctx: &Ctx,
    manifest: &CheckpointManifest,
    staging: &ObjectStore,
) -> CloudResult<Vec<NodeRecord>> {
    let mut records = Vec::with_capacity(manifest.nodes as usize);
    for index in 0..manifest.chunks {
        let (bytes, _) = staging.get(ctx, &chunk_key(manifest.id, index))?;
        let frames =
            codec::decode_checkpoint_chunk(&bytes).ok_or_else(|| CloudError::InvalidOperation {
                detail: format!("checkpoint {:#x}: undecodable chunk {index}", manifest.id),
            })?;
        for frame in frames {
            let record =
                codec::decode_node(&frame).ok_or_else(|| CloudError::InvalidOperation {
                    detail: format!(
                        "checkpoint {:#x}: undecodable node frame in chunk {index}",
                        manifest.id
                    ),
                })?;
            records.push(record);
        }
    }
    if records.len() as u64 != manifest.nodes {
        return Err(CloudError::InvalidOperation {
            detail: format!(
                "checkpoint {:#x}: manifest promises {} nodes, chunks carry {}",
                manifest.id,
                manifest.nodes,
                records.len()
            ),
        });
    }
    Ok(records)
}

/// Deletes every object of checkpoint `id` (chunks then manifest).
/// Best-effort cleanup after a joiner finishes; errors on individual
/// deletes are swallowed — a leaked chunk costs storage, not safety.
pub fn delete_checkpoint(ctx: &Ctx, id: u64, staging: &ObjectStore) {
    for key in staging.list(ctx, &prefix_of(id)) {
        let _ = staging.delete(ctx, &key);
    }
}

/// Bootstraps a new [`ReadReplica`] into `region_idx` from checkpoint
/// `id`: loads manifest and records, installs them, and replays the
/// retained feed-log suffix from the manifest's cut point
/// ([`ReplicaSet::join_replica`]).
///
/// Returns `Ok(None)` when the region's feed log no longer retains the
/// suffix — the caller must cut a fresh checkpoint and try again.
pub fn bootstrap_replica(
    ctx: &Ctx,
    id: u64,
    region_idx: usize,
    staging: &ObjectStore,
    replicas: &ReplicaSet,
) -> CloudResult<Option<Arc<ReadReplica>>> {
    let manifest = load_manifest(ctx, id, staging)?;
    let records = load_records(ctx, &manifest, staging)?;
    let from_seq =
        manifest
            .feed_seq
            .get(region_idx)
            .copied()
            .ok_or_else(|| CloudError::InvalidOperation {
                detail: format!(
                    "checkpoint {:#x} covers {} regions, replica wants region {region_idx}",
                    manifest.id,
                    manifest.feed_seq.len()
                ),
            })?;
    Ok(replicas.join_replica(ctx, region_idx, records, &manifest.floors, from_seq))
}

/// Activates shard group `group` as a write-path joiner: seeds its
/// txid-sequence counter past every epoch the checkpoint has seen (so
/// fresh txids always sort after checkpointed state) and publishes an
/// initial committed floor, keeping the group from dragging the
/// cluster-wide committed watermark ([`CommittedFloors::committed`])
/// back to zero. Returns the txid the floor was published at.
///
/// Publishing a floor for an empty group is sound: the floor claims
/// every transaction of `group` with a smaller txid is distributed,
/// which is vacuously true — the group has issued none.
pub fn activate_group(
    ctx: &Ctx,
    group: usize,
    system: &SystemStore,
    floors: &CommittedFloors,
    manifest: &CheckpointManifest,
) -> CloudResult<u64> {
    let seed_floor = manifest.floors.iter().copied().max().unwrap_or(0);
    let seeded = system.alloc_txid(ctx, group, seed_floor)?;
    debug_assert_eq!(txid::group_of(seeded), group);
    floors.publish(group, seeded);
    Ok(seeded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::{EpochDelta, ReplicaConfig, ReplicaOp};
    use crate::user_store::KvUserStore;
    use fk_cloud::chaos::{Chaos, FaultPlan, FaultSpec};
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

    fn staging_bucket() -> ObjectStore {
        ObjectStore::new("fk-staging", Region::US_EAST_1, Meter::new())
    }

    fn seeded_store(ctx: &Ctx) -> Arc<dyn UserStore> {
        let store: Arc<dyn UserStore> = Arc::new(KvUserStore::new(KvStore::new(
            "user",
            Region::US_EAST_1,
            Meter::new(),
        )));
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

    #[test]
    fn checkpoint_roundtrip_carries_the_reachable_tree() {
        let ctx = Ctx::disabled();
        let staging = staging_bucket();
        let store = seeded_store(&ctx);
        let floors = CommittedFloors::new(2);
        floors.publish(0, 16);
        floors.publish(1, 17);
        let replicas = ReplicaSet::default();

        let manifest =
            cut_checkpoint(&ctx, 0xC0DE, &store, &staging, &floors, &replicas, 1).unwrap();
        assert_eq!(manifest.nodes, 4, "orphan is unreachable");
        assert_eq!(manifest.floors, vec![16, 17]);
        assert_eq!(manifest.feed_seq, vec![0]);
        assert_eq!(manifest.chunks, 1, "four small records fit one chunk");

        let loaded = load_manifest(&ctx, 0xC0DE, &staging).unwrap();
        assert_eq!(loaded, manifest);
        let records = load_records(&ctx, &manifest, &staging).unwrap();
        let mut paths: Vec<&str> = records.iter().map(|r| r.path.as_str()).collect();
        paths.sort_unstable();
        assert_eq!(paths, vec!["/", "/a", "/a/c", "/b"]);
        let a = records.iter().find(|r| r.path == "/a").unwrap();
        assert_eq!(a.data.as_ref(), b"alpha");
        assert_eq!(a.modified_txid, 2);

        delete_checkpoint(&ctx, 0xC0DE, &staging);
        assert!(staging.list(&ctx, "ckpt/").is_empty());
    }

    #[test]
    fn chunking_splits_large_trees_and_reassembles_in_order() {
        let ctx = Ctx::disabled();
        let staging = staging_bucket();
        let store: Arc<dyn UserStore> = Arc::new(KvUserStore::new(KvStore::new(
            "user",
            Region::US_EAST_1,
            Meter::new(),
        )));
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
        let manifest = cut_checkpoint(
            &ctx,
            1,
            &store,
            &staging,
            &floors,
            &ReplicaSet::default(),
            1,
        )
        .unwrap();
        assert_eq!(manifest.nodes, 25);
        assert!(manifest.chunks > 1, "24 × 8 KiB must split");
        let records = load_records(&ctx, &manifest, &staging).unwrap();
        assert_eq!(records.len(), 25);
        // BFS order: root first, then the children in list order.
        assert_eq!(records[0].path, "/");
        assert_eq!(records[1].path, "/n00");
        assert_eq!(records[24].path, "/n23");
    }

    #[test]
    fn transfer_rides_out_injected_staging_faults() {
        let ctx = Ctx::disabled();
        let staging = staging_bucket();
        let mut plan = FaultPlan::disabled();
        plan.obj_error = FaultSpec::new(0.4, 6);
        staging.install_chaos(Chaos::from_plan(plan).unwrap());
        let store = seeded_store(&ctx);
        let floors = CommittedFloors::new(1);
        let manifest = cut_checkpoint(
            &ctx,
            2,
            &store,
            &staging,
            &floors,
            &ReplicaSet::default(),
            1,
        )
        .unwrap();
        let records = load_records(&ctx, &manifest, &staging).unwrap();
        assert_eq!(records.len() as u64, manifest.nodes);
    }

    #[test]
    fn bootstrap_replica_installs_snapshot_and_replays_the_suffix() {
        let ctx = Ctx::disabled();
        let staging = staging_bucket();
        let store = seeded_store(&ctx);
        let floors = CommittedFloors::new(1);
        floors.publish(0, 3);
        let replicas =
            ReplicaSet::build(ReplicaConfig::with_count(1), &[Region::US_EAST_1], 1, None);

        cut_checkpoint(&ctx, 3, &store, &staging, &floors, &replicas, 1).unwrap();

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

        let joiner = bootstrap_replica(&ctx, 3, 0, &staging, &replicas)
            .unwrap()
            .expect("suffix retained");
        joiner.catch_up(&ctx);
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
        let system = SystemStore::new(KvStore::new("sys", Region::US_EAST_1, Meter::new()), 60_000);
        let floors = CommittedFloors::new(8);
        for g in 0..4 {
            floors.publish(g, txid::compose(100 + g as u64, g));
        }
        for g in 4..8 {
            floors.set_active(g, false);
        }
        assert_eq!(txid::epoch_of(floors.committed()), 100);

        let manifest = CheckpointManifest {
            id: 1,
            floors: floors.snapshot(),
            feed_seq: vec![0],
            chunks: 0,
            nodes: 0,
        };
        let seeded = activate_group(&ctx, 5, &system, &floors, &manifest).unwrap();
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
