//! User storage (§4.2).
//!
//! The user store serves client reads directly — FaaSKeeper removes
//! functions from the read path entirely. It has two layers:
//!
//! * [`FrameStore`] keeps one opaque frame per path, named by a tag
//!   ([`Tag`]) that changes whenever the stored bytes do: read a frame
//!   and its tag, put one under an optional [`Precondition`], delete
//!   one, scan a subtree. Four frame stores reproduce the paper's
//!   comparison (Fig 8/9/11) and add a durable tier:
//!   * [`ObjectStore`] — S3-style, one object per node, tagged by its
//!     ETag; no partial writes, so an update rewrites the whole object.
//!   * [`KvUserStore`] — DynamoDB-style, one item `{frame, tag}` per
//!     node; cheap for small nodes, per-kB billing explodes for large
//!     ones (Fig 4a). As the hybrid ([`KvUserStore::hybrid`], §4.2) a
//!     large node's frame moves to the object store, so only large
//!     nodes pay a second request.
//!   * [`MemStore`] — Redis-style cache, matching ZooKeeper's latency
//!     (Fig 8) but provisioned (Requirement #8); tagged by the frame's
//!     hash ([`content_tag`]).
//!   * [`crate::durable::DurableUserStore`] — the embedded LSM engine,
//!     also tagged by hash.
//! * [`UserStore`] — node records over any frame store, implemented
//!   once: the [`crate::codec`] frame is encoded and decoded there and
//!   nowhere else, and a stored frame that does not decode fails a
//!   point read, a tagged read or a scan with
//!   [`CloudError::StorageFailed`] naming its path.
//!
//! A conditional write ([`UserStore::write_node_if`]) lands only over the
//! tag its writer names: that, not a lock in the writer, is what makes
//! the distributor's read-merge-writes atomic. The backends stay
//! cache-oblivious: every `read_node` they serve is a genuine (billed,
//! metered) storage round trip, whatever the client's read cache
//! ([`crate::read_cache`]) answers first.

use crate::api::Stat;
use crate::codec;
use bytes::Bytes;
use fk_cloud::expr::Condition;
use fk_cloud::kvstore::KvStore;
use fk_cloud::objectstore::{content_tag, ObjectStore, Precondition, Tag};
use fk_cloud::trace::Ctx;
use fk_cloud::value::Item;
use fk_cloud::{CloudError, CloudResult, MemStore, Region};
use std::sync::Arc;

/// A node as stored in (and read from) the user store.
///
/// The payload-bearing fields (`data`, `children`, `epoch_marks`) are
/// reference-counted: the distributor materializes one record per
/// committed transaction and every region's fan-out worker, RMW
/// merge and cache insertion *shares* those buffers instead of deep-
/// copying them — cloning a record copies only the path and owner
/// strings (see `clone-free fan-out` in [`crate::distributor`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRecord {
    /// Node path.
    pub path: String,
    /// Payload (raw bytes in storage and in memory — see
    /// [`crate::codec`]).
    pub data: Bytes,
    /// Creation txid (czxid).
    pub created_txid: u64,
    /// Last-modification txid (mzxid).
    pub modified_txid: u64,
    /// Data version counter.
    pub version: i32,
    /// Child node names (kept in the parent's metadata so `get_children`
    /// needs no scan, §4.2).
    pub children: Arc<Vec<String>>,
    /// Txid of the transaction whose view of `children` this record
    /// carries. Children lists are rewritten both by the node's own
    /// writes and — possibly from a *different* shard group — by its
    /// children's creates and deletes; the distributor merges concurrent
    /// rewrites by keeping the list with the larger `children_txid`
    /// (a node's children changes commit in txid order under its
    /// follower lock, so the list at the larger txid is the current
    /// truth).
    pub children_txid: u64,
    /// Owning session for ephemeral nodes.
    pub ephemeral_owner: Option<String>,
    /// Watch-notification ids that were pending when this version was
    /// written (the epoch mechanism ordering reads after notifications,
    /// §3.4 / Z4).
    pub epoch_marks: Arc<Vec<u64>>,
}

impl NodeRecord {
    /// The `Stat` a client observes for this record.
    pub fn stat(&self) -> Stat {
        Stat {
            created_txid: self.created_txid,
            modified_txid: self.modified_txid,
            version: self.version,
            num_children: self.children.len() as u32,
            data_length: self.data.len() as u32,
            ephemeral: self.ephemeral_owner.is_some(),
        }
    }
}

/// A node surfaced by a subtree scan ([`UserStore::scan_subtree`]):
/// path, payload and metadata, decoded from the stored frame *without*
/// full deserialization ([`crate::codec::decode_node_summary`] skips
/// over the children list and borrows the payload out of the raw buffer
/// zero-copy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanEntry {
    /// Node path.
    pub path: String,
    /// Payload (shares the stored frame's buffer).
    pub data: Bytes,
    /// The node's `Stat` as of the scanned version.
    pub stat: Stat,
    /// Pending watch-notification marks — the same Z4 staleness signal
    /// point reads carry, so scan consumers can apply the MRD rule per
    /// entry.
    pub epoch_marks: Arc<Vec<u64>>,
}

impl From<crate::codec::NodeSummary> for ScanEntry {
    fn from(summary: crate::codec::NodeSummary) -> Self {
        ScanEntry {
            stat: summary.stat(),
            path: summary.path,
            data: summary.data,
            epoch_marks: summary.epoch_marks,
        }
    }
}

/// True if `path` is `root` itself or a descendant of it — the
/// membership predicate [`UserStore::scan_subtree`] enumerates by
/// (exported so reference models can share it).
pub fn in_subtree(root: &str, path: &str) -> bool {
    path == root
        || (root == "/" && path.starts_with('/'))
        || (path.len() > root.len()
            && path.starts_with(root)
            && path.as_bytes()[root.len()] == b'/')
}

/// `root`'s own entry, read by `get`, followed by its descendants', read
/// by `scan` of their key prefix (`/`'s prefix covers `/` itself): the
/// one subtree sweep every frame store runs, whatever it sweeps.
pub(crate) fn root_and_descendants<T>(
    root: &str,
    get: impl FnOnce(&str) -> CloudResult<Option<T>>,
    scan: impl FnOnce(&str) -> CloudResult<Vec<(String, T)>>,
) -> CloudResult<Vec<(String, T)>> {
    let (mut entries, prefix) = match root {
        "/" => (Vec::new(), "/".to_owned()),
        _ => {
            let own = get(root)?.map(|entry| (root.to_owned(), entry));
            (own.into_iter().collect(), format!("{root}/"))
        }
    };
    entries.extend(scan(&prefix)?);
    Ok(entries)
}

/// Which backend a deployment uses for user data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UserStoreKind {
    /// Object storage only (the paper's "standard" configuration).
    Object,
    /// Key-value storage only.
    KeyValue,
    /// Hybrid split at `threshold` bytes (paper default: 4 kB).
    Hybrid {
        /// Size above which payloads move to the object store.
        threshold: usize,
    },
    /// In-memory cache.
    Cached,
    /// Embedded LSM engine ([`crate::durable`]): WAL-backed, crash-
    /// recoverable local storage — the native durability tier.
    Durable,
}

impl UserStoreKind {
    /// The paper's hybrid default (4 kB threshold).
    pub fn hybrid_default() -> Self {
        UserStoreKind::Hybrid { threshold: 4096 }
    }
}

/// A place that keeps one frame per path (one instance per replica
/// region). A tag changes whenever a path's stored bytes change and is
/// never reused for different bytes of that path.
pub trait FrameStore: Send + Sync {
    /// Reads `path`'s frame and its tag; `Ok(None)` if absent.
    fn get_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<(Bytes, Tag)>>;
    /// Stores `frame` under `path` and returns its new tag. Under a
    /// `precondition`, only if the stored frame satisfies it, in one
    /// request with no read; otherwise it fails with
    /// [`CloudError::ConditionFailed`] (412) with nothing stored.
    fn put_frame(
        &self,
        ctx: &Ctx,
        path: &str,
        frame: Bytes,
        precondition: Option<Precondition>,
    ) -> CloudResult<Tag>;
    /// Deletes `path`'s frame (idempotent).
    fn delete_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<()>;
    /// The frames of `root` (if stored) and every descendant, sorted by
    /// path. One logical storage scan (a prefix Query / LIST+GET sweep,
    /// not N point reads): the read path stays function-free even for
    /// whole-subtree access (§3.5).
    fn scan_frames(&self, ctx: &Ctx, root: &str) -> CloudResult<Vec<(String, Bytes)>>;
    /// The store's region.
    fn region(&self) -> Region;
}

/// Node records over a [`FrameStore`]. The bodies below are the only
/// implementation: every frame store gets them through the blanket impl,
/// which leaves no back-end room to encode, decode or scan records its
/// own way.
///
/// The tagged surface (`read_tagged`, `write_node_if`) is what the
/// distributor applies epochs with: a conditional write names the tag
/// of the stored record it replaces (or that there is none), and a
/// write that lost a race to another writer fails with
/// [`CloudError::ConditionFailed`] (412), having written nothing.
pub trait UserStore: FrameStore {
    /// Writes (creates or replaces) a node record unconditionally.
    fn write_node(&self, ctx: &Ctx, record: &NodeRecord) -> CloudResult<()> {
        let frame = codec::encode_node(record);
        self.put_frame(ctx, &record.path, frame, None).map(drop)
    }

    /// Reads a node record; `Ok(None)` if absent.
    fn read_node(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<NodeRecord>> {
        Ok(self.read_tagged(ctx, path)?.map(|(record, _)| record))
    }

    /// Reads a node record and its tag; `Ok(None)` if absent.
    fn read_tagged(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<(NodeRecord, Tag)>> {
        let Some((frame, tag)) = self.get_frame(ctx, path)? else {
            return Ok(None);
        };
        let record = codec::decode_node(&frame).ok_or_else(|| undecodable(path))?;
        Ok(Some((record, tag)))
    }

    /// Writes `record` only if its path's stored record satisfies
    /// `precondition` (one conditional request, no read) and returns the
    /// new tag, or fails with [`CloudError::ConditionFailed`] (412) with
    /// nothing written.
    fn write_node_if(
        &self,
        ctx: &Ctx,
        record: &NodeRecord,
        precondition: Precondition,
    ) -> CloudResult<Tag> {
        let frame = codec::encode_node(record);
        self.put_frame(ctx, &record.path, frame, Some(precondition))
    }

    /// Deletes a node record (idempotent).
    fn delete_node(&self, ctx: &Ctx, path: &str) -> CloudResult<()> {
        self.delete_frame(ctx, path)
    }

    /// Enumerates the subtree rooted at `root` — the root node (if
    /// present) and every descendant — sorted by path, as lightweight
    /// [`ScanEntry`] summaries, from one [`FrameStore::scan_frames`].
    fn scan_subtree(&self, ctx: &Ctx, root: &str) -> CloudResult<Vec<ScanEntry>> {
        let frames = self.scan_frames(ctx, root)?;
        let entries = frames.into_iter().map(|(path, frame)| {
            let summary = codec::decode_node_summary(&frame).ok_or_else(|| undecodable(&path));
            summary.map(ScanEntry::from)
        });
        entries.collect()
    }
}

impl<S: FrameStore> UserStore for S {}

/// The error of a stored frame at `path` that is not a node frame.
fn undecodable(path: &str) -> CloudError {
    CloudError::StorageFailed {
        detail: format!("undecodable node frame at {path:?}"),
    }
}

/// `frame` and its tag in a store that keeps no tags: its hash.
pub(crate) fn hashed(frame: Bytes) -> (Bytes, Tag) {
    let tag = content_tag(&frame);
    (frame, tag)
}

/// `read`, with a missing key as `None`.
fn found<T>(read: CloudResult<T>) -> CloudResult<Option<T>> {
    match read {
        Ok(value) => Ok(Some(value)),
        Err(CloudError::NotFound { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

// ----------------------------------------------------------------------
// Object store
// ----------------------------------------------------------------------

impl FrameStore for ObjectStore {
    fn get_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<(Bytes, Tag)>> {
        found(self.get(ctx, path))
    }

    fn put_frame(
        &self,
        ctx: &Ctx,
        path: &str,
        frame: Bytes,
        precondition: Option<Precondition>,
    ) -> CloudResult<Tag> {
        match precondition {
            Some(precondition) => self.put_if(ctx, path, frame, precondition),
            None => self.put(ctx, path, frame),
        }
    }

    fn delete_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<()> {
        self.delete(ctx, path)
    }

    fn scan_frames(&self, ctx: &Ctx, root: &str) -> CloudResult<Vec<(String, Bytes)>> {
        root_and_descendants(
            root,
            |root| Ok(found(self.get(ctx, root))?.map(|(frame, _)| frame)),
            |prefix| self.get_prefix(ctx, prefix),
        )
    }

    fn region(&self) -> Region {
        ObjectStore::region(self)
    }
}

// ----------------------------------------------------------------------
// Key-value and hybrid store
// ----------------------------------------------------------------------

/// Attribute names of user-store KV items: a node's item holds its frame
/// and a tag the writer drew from the table ([`KvStore::fresh_tag`]).
/// The hybrid stores a frame whose payload is above its threshold as an
/// object named by that tag ([`payload_key`]) instead, and marks the
/// item `offloaded`.
mod kv_attr {
    pub use fk_cloud::kvstore::TAG_ATTR as TAG;
    pub const FRAME: &str = "frame";
    pub const OFFLOADED: &str = "offloaded";
}

/// The object key of an offloaded frame. Tags are unique, so the object
/// is written once, before the item that names it, and never overwritten.
fn payload_key(path: &str, tag: Tag) -> String {
    format!("{path}#{tag}")
}

fn item_tag(item: &Item) -> Tag {
    item.num(kv_attr::TAG).unwrap_or(0) as Tag
}

/// DynamoDB-style store: one item per node holding its frame and tag.
/// As the hybrid, large frames live in object storage and the item, the
/// point at which a write becomes visible, names them.
pub struct KvUserStore {
    table: KvStore,
    /// The hybrid's object tier, and the payload size above which a
    /// frame moves there.
    offload: Option<(ObjectStore, usize)>,
}

impl KvUserStore {
    /// Wraps a table.
    pub fn new(table: KvStore) -> Self {
        KvUserStore {
            table,
            offload: None,
        }
    }

    /// The paper's hybrid split: nodes whose payload is above
    /// `threshold` bytes keep their frame in `bucket`.
    pub fn hybrid(table: KvStore, bucket: ObjectStore, threshold: usize) -> Self {
        KvUserStore {
            table,
            offload: Some((bucket, threshold)),
        }
    }

    fn bucket(&self) -> Option<&ObjectStore> {
        self.offload.as_ref().map(|(bucket, _)| bucket)
    }

    /// Deletes the object a replaced or deleted item `old` named, if
    /// any. Best effort: a leftover object is named by no item, so no
    /// reader ever finds it; it costs storage only.
    fn drop_payload(&self, ctx: &Ctx, path: &str, old: Option<&Item>) {
        if let (Some(bucket), Some(old)) = (self.bucket(), old) {
            if old.contains(kv_attr::OFFLOADED) {
                let _ = bucket.delete(ctx, &payload_key(path, item_tag(old)));
            }
        }
    }

    /// The frame `item` holds or names; `None` if its object is gone —
    /// a writer replaced or deleted the item since it was read.
    fn frame_of(&self, ctx: &Ctx, path: &str, item: &Item) -> CloudResult<Option<Bytes>> {
        match (item.bin(kv_attr::FRAME), self.bucket()) {
            (None, Some(bucket)) => {
                let object = found(bucket.get(ctx, &payload_key(path, item_tag(item))))?;
                Ok(object.map(|(frame, _)| frame))
            }
            (frame, _) => Ok(Some(frame.cloned().unwrap_or_default())),
        }
    }
}

impl FrameStore for KvUserStore {
    /// "The client library begins by reading data from key-value
    /// storage, and only the infrequent large nodes incur the performance
    /// and cost penalty of a second storage request". An object gone by
    /// the second request means the item changed in between, so the item
    /// is read again.
    fn get_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<(Bytes, Tag)>> {
        loop {
            let Some(item) = self.table.get(ctx, path) else {
                return Ok(None);
            };
            if let Some(frame) = self.frame_of(ctx, path, &item)? {
                return Ok(Some((frame, item_tag(&item))));
            }
        }
    }

    /// One guarded item write; a large frame's object goes first.
    fn put_frame(
        &self,
        ctx: &Ctx,
        path: &str,
        frame: Bytes,
        precondition: Option<Precondition>,
    ) -> CloudResult<Tag> {
        let condition = match precondition {
            None => Condition::Always,
            Some(Precondition::IfMatch(tag)) => Condition::eq(kv_attr::TAG, tag as i64),
            Some(Precondition::IfNoneMatch) => Condition::ItemNotExists,
        };
        let tag = self.table.fresh_tag();
        let item = Item::new().with(kv_attr::TAG, tag as i64);
        let offload = self.offload.as_ref().filter(|(_, threshold)| {
            codec::node_payload_len(&frame).is_some_and(|len| len > *threshold)
        });
        let item = match offload {
            Some((bucket, _)) => {
                bucket.put(ctx, &payload_key(path, tag), frame)?;
                item.with(kv_attr::OFFLOADED, true)
            }
            None => item.with(kv_attr::FRAME, frame),
        };
        let stored = self.table.put(ctx, path, item, condition);
        match (&stored, offload) {
            (Ok(old), _) => self.drop_payload(ctx, path, old.as_ref()),
            // The item was not stored, so nothing names the object.
            (Err(_), Some((bucket, _))) => {
                let _ = bucket.delete(ctx, &payload_key(path, tag));
            }
            (Err(_), None) => {}
        }
        stored.map(|_| tag)
    }

    fn delete_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<()> {
        let old = match self.table.delete(ctx, path, Condition::ItemExists) {
            Ok(old) => old,
            Err(CloudError::ConditionFailed { .. }) => None,
            Err(e) => return Err(e),
        };
        self.drop_payload(ctx, path, old.as_ref());
        Ok(())
    }

    /// One sweep over the KV tier; only offloaded (large) entries pay a
    /// second, per-object request — the same small/large split point
    /// reads enjoy (§4.2).
    fn scan_frames(&self, ctx: &Ctx, root: &str) -> CloudResult<Vec<(String, Bytes)>> {
        let items = root_and_descendants(
            root,
            |root| Ok(self.table.get(ctx, root)),
            |prefix| Ok(self.table.scan_prefix(ctx, prefix)),
        )?;
        let mut frames = Vec::with_capacity(items.len());
        for (path, item) in items {
            // An item that changed since the sweep is read alone.
            let frame = match self.frame_of(ctx, &path, &item)? {
                None => self.get_frame(ctx, &path)?.map(|(frame, _)| frame),
                frame => frame,
            };
            frames.extend(frame.map(|frame| (path, frame)));
        }
        Ok(frames)
    }

    fn region(&self) -> Region {
        self.table.region()
    }
}

// ----------------------------------------------------------------------
// In-memory store
// ----------------------------------------------------------------------

/// Redis-style store (Fig 8's "FaaSKeeper, Redis" series). It keeps no
/// tags: a frame's tag is its hash.
impl FrameStore for MemStore {
    fn get_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<(Bytes, Tag)>> {
        Ok(found(self.get(ctx, path))?.map(hashed))
    }

    fn put_frame(
        &self,
        ctx: &Ctx,
        path: &str,
        frame: Bytes,
        precondition: Option<Precondition>,
    ) -> CloudResult<Tag> {
        match precondition {
            Some(precondition) => self.put_if(ctx, path, frame, precondition),
            None => {
                let (frame, tag) = hashed(frame);
                self.put(ctx, path, frame);
                Ok(tag)
            }
        }
    }

    fn delete_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<()> {
        self.delete(ctx, path);
        Ok(())
    }

    fn scan_frames(&self, ctx: &Ctx, root: &str) -> CloudResult<Vec<(String, Bytes)>> {
        root_and_descendants(
            root,
            |root| found(self.get(ctx, root)),
            |prefix| Ok(self.scan_prefix(ctx, prefix)),
        )
    }

    fn region(&self) -> Region {
        MemStore::region(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fk_cloud::metering::Meter;

    fn record(path: &str, size: usize) -> NodeRecord {
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

    fn backends() -> Vec<(&'static str, Box<dyn UserStore>)> {
        fk_testkit::user_store_backends!(crate, &Meter::new())
    }

    /// A hybrid at the paper's 4 kB split, its object tier and its meter.
    fn hybrid() -> (KvUserStore, ObjectStore, Meter) {
        let meter = Meter::new();
        let bucket = ObjectStore::new("b", Region::US_EAST_1, meter.clone());
        let table = KvStore::new("t", Region::US_EAST_1, meter.clone());
        (
            KvUserStore::hybrid(table, bucket.clone(), 4096),
            bucket,
            meter,
        )
    }

    #[test]
    fn roundtrip_on_all_backends() {
        let ctx = Ctx::disabled();
        for (name, store) in backends() {
            let rec = record("/n", 100);
            store.write_node(&ctx, &rec).unwrap();
            let got = store.read_node(&ctx, "/n").unwrap().unwrap();
            assert_eq!(got, rec, "backend {name}");
            assert_eq!(got.stat().data_length, 100);
            store.delete_node(&ctx, "/n").unwrap();
            assert!(store.read_node(&ctx, "/n").unwrap().is_none());
            // Idempotent delete.
            store.delete_node(&ctx, "/n").unwrap();
        }
    }

    #[test]
    fn missing_node_reads_none() {
        let ctx = Ctx::disabled();
        for (name, store) in backends() {
            assert!(
                store.read_node(&ctx, "/missing").unwrap().is_none(),
                "{name}"
            );
            assert!(
                store.read_tagged(&ctx, "/missing").unwrap().is_none(),
                "{name}"
            );
        }
    }

    /// A stored frame that is not a node frame fails every read of it,
    /// naming its path: it is neither absent nor skipped.
    #[test]
    fn undecodable_frames_fail_reads_and_scans_on_all_backends() {
        let ctx = Ctx::disabled();
        for (name, store) in backends() {
            store.write_node(&ctx, &record("/g/ok", 8)).unwrap();
            let garbage = Bytes::from_static(b"not a node frame, not even close");
            store.put_frame(&ctx, "/g", garbage, None).unwrap();
            let failures = [
                store.read_node(&ctx, "/g").map(drop).unwrap_err(),
                store.read_tagged(&ctx, "/g").map(drop).unwrap_err(),
                store.scan_subtree(&ctx, "/g").map(drop).unwrap_err(),
                store.scan_subtree(&ctx, "/").map(drop).unwrap_err(),
            ];
            for err in failures {
                assert!(
                    matches!(err, CloudError::StorageFailed { .. }),
                    "{name}: {err}"
                );
                assert!(err.to_string().contains("\"/g\""), "{name}: {err}");
            }
            assert_eq!(
                store.scan_subtree(&ctx, "/g/ok").unwrap().len(),
                1,
                "{name}"
            );
        }
    }

    #[test]
    fn hybrid_keeps_small_nodes_in_kv() {
        let (store, bucket, meter) = hybrid();
        let ctx = Ctx::disabled();
        store.write_node(&ctx, &record("/small", 100)).unwrap();
        assert_eq!(bucket.len(), 0, "small node must not hit object store");
        let before_gets = meter.snapshot().obj_gets;
        let got = store.read_node(&ctx, "/small").unwrap().unwrap();
        assert_eq!(got.data.len(), 100);
        assert_eq!(meter.snapshot().obj_gets, before_gets, "no second request");
    }

    #[test]
    fn hybrid_offloads_large_nodes() {
        let (store, bucket, _) = hybrid();
        let ctx = Ctx::disabled();
        store.write_node(&ctx, &record("/big", 100_000)).unwrap();
        assert_eq!(bucket.len(), 1);
        let got = store.read_node(&ctx, "/big").unwrap().unwrap();
        assert_eq!(got.data.len(), 100_000);
        // Shrinking back cleans the object up.
        store.write_node(&ctx, &record("/big", 10)).unwrap();
        assert_eq!(bucket.len(), 0);
        assert_eq!(
            store.read_node(&ctx, "/big").unwrap().unwrap().data.len(),
            10
        );
    }

    #[test]
    fn hybrid_delete_cleans_offloaded_object() {
        let (store, bucket, _) = hybrid();
        let ctx = Ctx::disabled();
        store.write_node(&ctx, &record("/big", 50_000)).unwrap();
        store.delete_node(&ctx, "/big").unwrap();
        assert_eq!(bucket.len(), 0);
    }

    #[test]
    fn object_backend_rewrites_whole_object() {
        let meter = Meter::new();
        let store = ObjectStore::new("b", Region::US_EAST_1, meter.clone());
        let ctx = Ctx::disabled();
        store.write_node(&ctx, &record("/n", 10)).unwrap();
        store.write_node(&ctx, &record("/n", 20)).unwrap();
        // An unconditional write is one whole-object PUT and no read.
        let snap = meter.snapshot();
        assert_eq!((snap.obj_gets, snap.obj_puts), (0, 2));
        assert_eq!(store.read_node(&ctx, "/n").unwrap().unwrap().data.len(), 20);
    }

    /// The durable store's group commit, with the meter it charges.
    fn group_commit() -> (crate::durable::DurableUserStore, Meter) {
        let meter = Meter::new();
        let store =
            crate::durable::DurableUserStore::open_sim(Region::US_EAST_1, meter.clone(), None);
        (store.unwrap(), meter)
    }

    /// One group commit of a batch leaves the record that writing it one
    /// record at a time leaves on every backend: the last per path.
    #[test]
    fn write_batch_coalesces_to_final_record_on_all_backends() {
        let ctx = Ctx::disabled();
        let versions: Vec<NodeRecord> = (1..=3)
            .map(|v| NodeRecord {
                version: v,
                ..record("/n", 10 * v as usize)
            })
            .collect();
        let (batched, meter) = group_commit();
        batched.write_batch(&ctx, &versions).unwrap();
        assert_eq!(meter.snapshot().mem_ops, 1, "one operation per batch");
        let got = batched.read_node(&ctx, "/n").unwrap().unwrap();
        assert_eq!((got.version, got.data.len()), (3, 30), "last write wins");
        for (name, store) in backends() {
            for rec in &versions {
                store.write_node(&ctx, rec).unwrap();
            }
            let one_by_one = store.read_node(&ctx, "/n").unwrap();
            assert_eq!(one_by_one.as_ref(), Some(&got), "backend {name}");
        }
    }

    /// Coalescing keeps every path's own final record, and a delete batch
    /// is deduplicated and idempotent.
    #[test]
    fn write_batch_preserves_cross_path_content() {
        let ctx = Ctx::disabled();
        let batch = [record("/x", 5), record("/y", 7), record("/x", 9)];
        let (batched, meter) = group_commit();
        batched.write_batch(&ctx, &batch).unwrap();
        for (name, store) in backends() {
            for rec in &batch {
                store.write_node(&ctx, rec).unwrap();
            }
            for path in ["/x", "/y"] {
                let want = batched.read_node(&ctx, path).unwrap();
                assert_eq!(
                    store.read_node(&ctx, path).unwrap(),
                    want,
                    "{path} on {name}"
                );
            }
        }
        assert_eq!(
            batched.read_node(&ctx, "/x").unwrap().unwrap().data.len(),
            9
        );
        assert_eq!(
            batched.read_node(&ctx, "/y").unwrap().unwrap().data.len(),
            7
        );
        let paths = ["/x", "/x", "/y"].map(str::to_owned);
        let before = meter.snapshot().mem_ops;
        batched.delete_batch(&ctx, &paths).unwrap();
        batched.delete_batch(&ctx, &paths).unwrap();
        assert_eq!(
            meter.snapshot().mem_ops - before,
            2,
            "one operation per batch"
        );
        assert!(batched.read_node(&ctx, "/x").unwrap().is_none());
        assert!(batched.read_node(&ctx, "/y").unwrap().is_none());
    }

    #[test]
    fn record_serialization_roundtrip() {
        let store = MemStore::new(Region::US_EAST_1, Meter::new());
        let ctx = Ctx::disabled();
        let rec = record("/x", 33);
        store.write_node(&ctx, &rec).unwrap();
        let (frame, tag) = store.get_frame(&ctx, "/x").unwrap().unwrap();
        assert_eq!(frame, codec::encode_node(&rec), "writers store the frame");
        assert_eq!(frame[0], codec::MAGIC);
        assert_eq!(codec::node_payload_len(&frame), Some(33));
        assert_eq!(store.read_tagged(&ctx, "/x").unwrap(), Some((rec, tag)));
    }

    #[test]
    fn scan_subtree_on_all_backends() {
        let ctx = Ctx::disabled();
        for (name, store) in backends() {
            for path in ["/a", "/a/x", "/a/x/deep", "/a/y", "/ab", "/b"] {
                store.write_node(&ctx, &record(path, 8)).unwrap();
            }
            let entries = store.scan_subtree(&ctx, "/a").unwrap();
            let paths: Vec<&str> = entries.iter().map(|e| e.path.as_str()).collect();
            assert_eq!(
                paths,
                ["/a", "/a/x", "/a/x/deep", "/a/y"],
                "sibling /ab excluded ({name})"
            );
            for entry in &entries {
                assert_eq!(entry.data.as_ref(), &[7u8; 8][..]);
                assert_eq!(entry.stat.num_children, 2);
                assert!(entry.stat.ephemeral);
                assert_eq!(entry.epoch_marks.as_slice(), &[42]);
            }
            assert_eq!(store.scan_subtree(&ctx, "/").unwrap().len(), 6);
            assert!(store.scan_subtree(&ctx, "/missing").unwrap().is_empty());
        }
    }

    #[test]
    fn hybrid_scan_fetches_offloaded_payloads() {
        let (store, _, meter) = hybrid();
        let ctx = Ctx::disabled();
        store.write_node(&ctx, &record("/t", 10)).unwrap();
        store.write_node(&ctx, &record("/t/big", 50_000)).unwrap();
        store.write_node(&ctx, &record("/t/small", 20)).unwrap();
        let gets_before = meter.snapshot().obj_gets;
        let entries = store.scan_subtree(&ctx, "/t").unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[1].path, "/t/big");
        assert_eq!(entries[1].data.len(), 50_000);
        assert_eq!(entries[1].stat.data_length, 50_000);
        assert_eq!(
            meter.snapshot().obj_gets,
            gets_before + 1,
            "only the offloaded entry pays an object GET"
        );
    }

    #[test]
    fn subtree_membership() {
        assert!(in_subtree("/", "/a"));
        assert!(in_subtree("/a", "/a"));
        assert!(in_subtree("/a", "/a/b/c"));
        assert!(!in_subtree("/a", "/ab"));
        assert!(!in_subtree("/a/b", "/a"));
    }

    #[test]
    fn stat_reflects_record() {
        let rec = record("/x", 5);
        let stat = rec.stat();
        assert_eq!(stat.num_children, 2);
        assert_eq!(stat.data_length, 5);
        assert!(stat.ephemeral);
        assert_eq!(stat.modified_txid, 2);
    }
}
