//! Conditional user-store writes, on every backend.
//!
//! * `conditional_writes_*` — the tagged surface itself: `If-None-Match`
//!   and `If-Match` land only over what they name, a failed one writes
//!   nothing, and a delete is unconditional.
//! * `a_rewrite_landing_between_*` — two leaders, one record. A child's
//!   create, applied by one leader, rewrites a parent's children list
//!   between another leader's read of the parent and its write. Each
//!   leader is a `Distributor::new` of its own, so nothing in process
//!   memory is shared, as between two real function instances: only the
//!   user store can keep the rewrite. The late write fails its
//!   precondition exactly once, reads the rewrite, merges it, and stores
//!   the bytes the serial order (the write, then the rewrite) stores.
//! * `a_write_that_loses_every_round_*` — the loop's bound.
//! * `hybrid_reads_racing_deletes_*` — a hybrid read that finds an item
//!   whose offloaded frame is already gone reads the item again.

use bytes::Bytes;
use fk_cloud::objectstore::{Precondition, Tag};
use fk_cloud::trace::Ctx;
use fk_cloud::{CloudResult, KvStore, Meter, ObjectStore, Region};
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::distributor::{CommittedTx, Distributor, DistributorConfig, MERGE_ROUNDS};
use fk_core::messages::{LeaderRecord, MultiSub, OpOutcome, Payload, SystemCommit, UserUpdate};
use fk_core::system_store::ObjTags;
use fk_core::user_store::KvUserStore;
use fk_core::{FrameStore, NodeRecord, UserStore, UserStoreKind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const PARENT: &str = "/p";

/// Every backend; the hybrid once with the parent inline and once with
/// it above the threshold.
const KINDS: [UserStoreKind; 6] = [
    UserStoreKind::Object,
    UserStoreKind::KeyValue,
    UserStoreKind::Hybrid { threshold: 4096 },
    UserStoreKind::Hybrid { threshold: 16 },
    UserStoreKind::Cached,
    UserStoreKind::Durable,
];

type Rival = Box<dyn FnOnce() + Send>;

/// A user store that runs `rival` once, right after the first tagged
/// read of [`PARENT`] returns, and counts the conditional writes that
/// failed their precondition.
struct Raced {
    inner: Arc<dyn UserStore>,
    rival: Mutex<Option<Rival>>,
    failed: AtomicUsize,
}

impl FrameStore for Raced {
    fn get_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<(Bytes, Tag)>> {
        let read = self.inner.get_frame(ctx, path);
        let rival = self.rival.lock().unwrap().take_if(|_| path == PARENT);
        if let Some(rival) = rival {
            rival();
        }
        read
    }
    fn put_frame(
        &self,
        ctx: &Ctx,
        path: &str,
        frame: Bytes,
        precondition: Option<Precondition>,
    ) -> CloudResult<Tag> {
        let written = self.inner.put_frame(ctx, path, frame, precondition);
        if written.as_ref().is_err_and(|e| e.is_condition_failed()) {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        written
    }
    fn delete_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<()> {
        self.inner.delete_frame(ctx, path)
    }
    fn scan_frames(&self, ctx: &Ctx, root: &str) -> CloudResult<Vec<(String, Bytes)>> {
        self.inner.scan_frames(ctx, root)
    }
    fn region(&self) -> Region {
        self.inner.region()
    }
}

/// A one-op record writing `path` at `txid`.
fn record(txid: u64, path: &str, user_update: UserUpdate) -> LeaderRecord {
    LeaderRecord {
        session_id: "s".into(),
        request_id: txid,
        txid,
        prev_txid: 0,
        commit: SystemCommit::default(),
        deregister_session: false,
        ops: vec![MultiSub {
            path: path.into(),
            user_update,
            fires: vec![],
            is_delete: false,
            outcome: OpOutcome::Created {
                path: path.into(),
                stat: Default::default(),
            },
        }],
    }
}

/// `set_data` of the parent at txid 20, its children snapshot `[a]`.
fn overwrite() -> LeaderRecord {
    let update = UserUpdate::WriteNode {
        path: PARENT.into(),
        payload: Payload::inline(&[0xAB; 64]),
        created_txid: 10,
        version: 1,
        children: vec!["a".into()],
        ephemeral_owner: None,
        parent_children: None,
    };
    record(20, PARENT, update)
}

/// The create of `/p/b` at txid 30, which rewrites the parent's list.
fn child_create() -> LeaderRecord {
    let update = UserUpdate::WriteNode {
        path: "/p/b".into(),
        payload: Payload::inline(b"b"),
        created_txid: 0,
        version: 0,
        children: vec![],
        ephemeral_owner: None,
        parent_children: Some((PARENT.into(), vec!["a".into(), "b".into()])),
    };
    record(30, "/p/b", update)
}

/// Applies `record` as one epoch, with no object tag on record.
fn apply(distributor: &Distributor, record: &LeaderRecord) -> CloudResult<()> {
    let ctx = Ctx::disabled();
    let data = match &record.ops[0].user_update {
        UserUpdate::WriteNode {
            payload: Payload::Inline { data },
            ..
        } => data.clone(),
        _ => Bytes::new(),
    };
    let item = CommittedTx {
        msg_index: 0,
        txid: record.txid,
        record,
        data: vec![Some(data)],
        ahead: false,
        tags: ObjTags::default(),
    };
    let marks = distributor.epoch_marks(&ctx);
    let items = std::slice::from_ref(&item);
    distributor.apply_epoch(&ctx, items, &marks).map(drop)
}

/// A deployment of `kind` whose user store holds the parent with child
/// `a`, written by txid 10.
fn seeded(kind: UserStoreKind) -> Deployment {
    let deployment = Deployment::direct(DeploymentConfig::aws().with_user_store(kind));
    let parent = NodeRecord {
        path: PARENT.into(),
        data: Bytes::from_static(&[0x11; 64]),
        created_txid: 10,
        modified_txid: 10,
        version: 0,
        children: Arc::new(vec!["a".into()]),
        children_txid: 10,
        ephemeral_owner: None,
        epoch_marks: Arc::default(),
    };
    let ctx = Ctx::disabled();
    deployment.user_store().write_node(&ctx, &parent).unwrap();
    deployment
}

/// A leader's distributor over `store`, sharing nothing with any other.
fn leader(deployment: &Deployment, store: Arc<dyn UserStore>) -> Distributor {
    let config = DistributorConfig::new(2, 16);
    Distributor::new(deployment.system().clone(), vec![store], config)
}

/// The parent's stored frame.
fn stored(deployment: &Deployment) -> Bytes {
    let ctx = Ctx::disabled();
    let parent = deployment.user_store().read_node(&ctx, PARENT).unwrap();
    fk_core::codec::encode_node(&parent.expect("the parent"))
}

#[test]
fn a_rewrite_landing_between_a_read_and_its_write_is_merged_not_lost() {
    for kind in KINDS {
        let serial = seeded(kind);
        let store = Arc::clone(serial.user_store());
        apply(&leader(&serial, Arc::clone(&store)), &overwrite()).unwrap();
        apply(&leader(&serial, store), &child_create()).unwrap();

        let raced = seeded(kind);
        let rival = leader(&raced, Arc::clone(raced.user_store()));
        let store = Arc::new(Raced {
            inner: Arc::clone(raced.user_store()),
            rival: Mutex::new(Some(Box::new(move || {
                apply(&rival, &child_create()).unwrap()
            }))),
            failed: AtomicUsize::new(0),
        });
        apply(&leader(&raced, Arc::clone(&store) as _), &overwrite()).unwrap();

        assert!(store.rival.lock().unwrap().is_none(), "{kind:?}: raced");
        assert_eq!(store.failed.load(Ordering::Relaxed), 1, "{kind:?}: one 412");
        let ctx = Ctx::disabled();
        let parent = raced.user_store().read_node(&ctx, PARENT).unwrap().unwrap();
        assert_eq!(*parent.children, ["a", "b"], "{kind:?}: the rewrite kept");
        assert_eq!(
            stored(&raced),
            stored(&serial),
            "{kind:?}: the serial bytes"
        );
    }
}

/// An object store whose every tagged read of a record is followed by
/// another writer's rewrite of it: every conditional write then loses.
struct Contended(Arc<dyn UserStore>);

impl FrameStore for Contended {
    fn get_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<(Bytes, Tag)>> {
        let read = self.0.get_frame(ctx, path)?;
        if let Some((frame, _)) = &read {
            self.0.put_frame(ctx, path, frame.clone(), None)?;
        }
        Ok(read)
    }
    fn put_frame(
        &self,
        ctx: &Ctx,
        path: &str,
        frame: Bytes,
        precondition: Option<Precondition>,
    ) -> CloudResult<Tag> {
        self.0.put_frame(ctx, path, frame, precondition)
    }
    fn delete_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<()> {
        self.0.delete_frame(ctx, path)
    }
    fn scan_frames(&self, ctx: &Ctx, root: &str) -> CloudResult<Vec<(String, Bytes)>> {
        self.0.scan_frames(ctx, root)
    }
    fn region(&self) -> Region {
        self.0.region()
    }
}

/// The write loop is bounded: a write that loses `MERGE_ROUNDS` rounds
/// in a row fails retryably, so its batch is redelivered, and writes
/// nothing.
#[test]
fn a_write_that_loses_every_round_fails_retryably() {
    let deployment = seeded(UserStoreKind::Object);
    let before = stored(&deployment);
    let store = Arc::new(Contended(Arc::clone(deployment.user_store())));
    let err = apply(&leader(&deployment, store), &overwrite()).unwrap_err();
    assert!(err.is_retryable(), "{err}");
    let lost = deployment.meter().snapshot().per_op["obj_put_412"];
    assert_eq!(lost, MERGE_ROUNDS as u64);
    assert_eq!(stored(&deployment), before);
}

/// A record of `path` with a `size`-byte payload.
fn node(path: &str, size: usize) -> NodeRecord {
    NodeRecord {
        path: path.to_owned(),
        data: Bytes::from(vec![7u8; size]),
        created_txid: 1,
        modified_txid: 2,
        version: 1,
        children: Arc::new(vec!["a".into(), "b".into()]),
        children_txid: 2,
        ephemeral_owner: Some("s1".into()),
        epoch_marks: Arc::new(vec![42]),
    }
}

#[test]
fn conditional_writes_on_all_backends() {
    let ctx = Ctx::disabled();
    for (kind, store) in fk_testkit::user_stores(&Meter::new()) {
        let (first, second) = (node("/n", 40), node("/n", 50));
        let tag = store
            .write_node_if(&ctx, &first, Precondition::IfNoneMatch)
            .unwrap();
        assert_eq!(
            store.read_tagged(&ctx, "/n").unwrap(),
            Some((first.clone(), tag))
        );
        for precondition in [Precondition::IfNoneMatch, Precondition::IfMatch(tag + 1)] {
            let lost = store.write_node_if(&ctx, &second, precondition);
            assert!(lost.unwrap_err().is_condition_failed(), "{kind}");
            assert_eq!(store.read_node(&ctx, "/n").unwrap(), Some(first.clone()));
        }
        let next = store
            .write_node_if(&ctx, &second, Precondition::IfMatch(tag))
            .unwrap();
        assert_ne!(next, tag, "{kind}: new bytes, new tag");
        assert_eq!(
            store.read_tagged(&ctx, "/n").unwrap(),
            Some((second.clone(), next))
        );
        // A delete is unconditional, and a write racing it fails.
        store.delete_node(&ctx, "/n").unwrap();
        let after = store.write_node_if(&ctx, &second, Precondition::IfMatch(next));
        assert!(after.unwrap_err().is_condition_failed(), "{kind}");
        assert_eq!(store.read_tagged(&ctx, "/n").unwrap(), None);
    }
}

/// A read or scan racing an offloaded node's writes and deletes
/// finds the node or its absence, never an item naming a payload that
/// is gone. The threads' interleaving is not forced: the writer's
/// 20 000 rounds give the reader many chances to land between a
/// delete's item request and its object request.
#[test]
fn hybrid_reads_racing_deletes_find_the_node_or_nothing() {
    let meter = Meter::new();
    let store = KvUserStore::hybrid(
        KvStore::new("t", Region::US_EAST_1, meter.clone()),
        ObjectStore::new("b", Region::US_EAST_1, meter),
        16,
    );
    let big = node("/r/big", 64);
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let ctx = Ctx::disabled();
            for _ in 0..20_000 {
                store.write_node(&ctx, &big).unwrap();
                store.delete_node(&ctx, &big.path).unwrap();
            }
        });
        let ctx = Ctx::disabled();
        while !writer.is_finished() {
            if let Some(got) = store.read_node(&ctx, &big.path).unwrap() {
                assert_eq!(got, big);
            }
            for entry in store.scan_subtree(&ctx, "/r").unwrap() {
                assert_eq!(entry.data, big.data);
            }
        }
    });
}
