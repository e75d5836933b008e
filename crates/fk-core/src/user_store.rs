//! User storage backends (§4.2).
//!
//! The user store serves client reads directly — FaaSKeeper removes
//! functions from the read path entirely. Five backends reproduce the
//! paper's comparison (Fig 8/9/11) and add a durable tier:
//!
//! * [`ObjUserStore`] — S3-style: one object per node. No partial writes,
//!   so an update rewrites the whole object (§3.2): one conditional PUT
//!   when the writer knows the object's tag, a read-modify-write when it
//!   does not.
//! * [`KvUserStore`] — DynamoDB-style: one item per node; cheap and fast
//!   for small nodes but per-kB billing explodes for large ones (Fig 4a).
//! * The hybrid ([`KvUserStore::hybrid`]) — the paper's optimization
//!   (§4.2): nodes ≤ 4 kB live in the KV item; a larger node's frame
//!   moves to the object store. Reads start at the KV store and only
//!   large nodes pay the second request. Improves read latency by >50 %
//!   and cost by 37.5 %.
//! * [`MemUserStore`] — Redis-style cache, matching ZooKeeper's latency
//!   (Fig 8) but requiring provisioned resources (Requirement #8).
//! * [`crate::durable::DurableUserStore`] — the embedded LSM engine.
//!
//! Every backend stores a node as one binary frame ([`crate::codec`])
//! and names what it stores with a tag ([`Tag`]) that changes whenever
//! the stored bytes do — an object's ETag, a KV item's `tag` attribute,
//! or, in the node-local stores, a hash of the frame. A conditional
//! write ([`UserStore::write_node_if`]) lands only over the tag its
//! writer names: that, not a lock in the writer, is what makes the
//! distributor's read-merge-writes atomic.
//!
//! Client reads may be answered by the session-local, watermark-validated
//! read cache ([`crate::read_cache`]) before they ever reach a backend;
//! the backends stay cache-oblivious — every `read_node` they serve is a
//! genuine (billed, metered) storage round trip, which is exactly what
//! the read-path gate counts.

use crate::api::Stat;
use bytes::Bytes;
use fk_cloud::expr::Condition;
use fk_cloud::kvstore::KvStore;
use fk_cloud::objectstore::{content_tag, ObjectStore, Precondition, Tag};
use fk_cloud::trace::Ctx;
use fk_cloud::value::Item;
use fk_cloud::{CloudError, CloudResult, Consistency, MemStore, Region};
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
    /// (lists grow cumulatively under the parent's follower lock, so the
    /// larger txid is always the superset-of-truth).
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

    /// Serializes into the frame every backend stores
    /// ([`crate::codec`]).
    fn to_bytes(&self) -> Bytes {
        crate::codec::encode_node(self)
    }

    /// Deserializes from a stored frame; `None` if it is not an exact
    /// node frame.
    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        crate::codec::decode_node(bytes)
    }
}

/// A node surfaced by a subtree scan ([`UserStore::scan_subtree`]):
/// path, payload and metadata, decoded from the stored frame *without*
/// full deserialization — blob backends go through
/// [`crate::codec::decode_node_summary`], which skips over the children
/// list and borrows the payload out of the raw buffer zero-copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanEntry {
    /// Node path.
    pub path: String,
    /// Payload (shares the stored buffer on blob backends).
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

/// The store-key prefix that covers the *strict* descendants of `root`.
pub(crate) fn descendant_prefix(root: &str) -> String {
    if root == "/" {
        "/".to_owned()
    } else {
        format!("{root}/")
    }
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

/// Keeps only the last record per path, preserving first-touch order —
/// the coalescing contract of the batched write surface.
pub(crate) fn coalesce_last_per_path(records: &[NodeRecord]) -> Vec<&NodeRecord> {
    let mut order: Vec<&str> = Vec::new();
    let mut last: std::collections::HashMap<&str, &NodeRecord> = std::collections::HashMap::new();
    for record in records {
        if last.insert(record.path.as_str(), record).is_none() {
            order.push(record.path.as_str());
        }
    }
    order.into_iter().map(|p| last[p]).collect()
}

pub(crate) fn dedupe_paths(paths: &[String]) -> Vec<&String> {
    let mut seen = std::collections::HashSet::new();
    paths.iter().filter(|p| seen.insert(p.as_str())).collect()
}

/// Interface of a user-data backend (one instance per replica region).
///
/// The batched surface (`write_batch` / `delete_batch`) takes a run of
/// operations in apply order and may coalesce repeated writes to one
/// path (last record wins) and collapse round trips. The defaults fall
/// back to per-record calls; the durable backend overrides them to
/// commit a whole batch as one WAL record.
///
/// The tagged surface (`read_tagged`, `write_node_if`) is what the
/// distributor applies epochs with: a conditional write names the tag
/// of the stored record it replaces (or that there is none), and a
/// write that lost a race to another writer fails with
/// [`CloudError::ConditionFailed`] (412), having written nothing. A
/// tag changes whenever a path's stored bytes change and is never
/// reused for different bytes of that path.
pub trait UserStore: Send + Sync {
    /// Writes (creates or replaces) a node record unconditionally.
    fn write_node(&self, ctx: &Ctx, record: &NodeRecord) -> CloudResult<()>;
    /// Reads a node record; `Ok(None)` if absent. Default: the tagged
    /// read without its tag.
    fn read_node(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<NodeRecord>> {
        Ok(self.read_tagged(ctx, path)?.map(|(record, _)| record))
    }
    /// Reads a node record and its tag; `Ok(None)` if absent.
    fn read_tagged(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<(NodeRecord, Tag)>>;
    /// Writes `record` only if its path's stored record satisfies
    /// `precondition` (one conditional request, no read) and returns the
    /// new tag, or fails with [`CloudError::ConditionFailed`] (412) with
    /// nothing written.
    fn write_node_if(
        &self,
        ctx: &Ctx,
        record: &NodeRecord,
        precondition: Precondition,
    ) -> CloudResult<Tag>;
    /// Deletes a node record (idempotent).
    fn delete_node(&self, ctx: &Ctx, path: &str) -> CloudResult<()>;

    /// Writes a batch of records in order, coalescing to the final record
    /// per path. Default: coalesce, then per-record `write_node`.
    fn write_batch(&self, ctx: &Ctx, records: &[NodeRecord]) -> CloudResult<()> {
        for record in coalesce_last_per_path(records) {
            self.write_node(ctx, record)?;
        }
        Ok(())
    }

    /// Deletes a batch of paths (deduplicated, idempotent). Default:
    /// per-path `delete_node`.
    fn delete_batch(&self, ctx: &Ctx, paths: &[String]) -> CloudResult<()> {
        for path in dedupe_paths(paths) {
            self.delete_node(ctx, path)?;
        }
        Ok(())
    }

    /// Enumerates the subtree rooted at `root` — the root node (if
    /// present) and every descendant — sorted by path, as lightweight
    /// [`ScanEntry`] summaries. One logical storage scan (a prefix
    /// Query / LIST+GET sweep, not N point reads): the read path stays
    /// function-free even for whole-subtree access (§3.5).
    fn scan_subtree(&self, ctx: &Ctx, root: &str) -> CloudResult<Vec<ScanEntry>>;

    /// The replica's region.
    fn region(&self) -> Region;
    /// The backend kind.
    fn kind(&self) -> UserStoreKind;
}

/// `read`, with a missing key as `None`.
fn found<T>(read: CloudResult<T>) -> CloudResult<Option<T>> {
    match read {
        Ok(value) => Ok(Some(value)),
        Err(CloudError::NotFound { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// The record and tag of a stored frame, if it is one.
fn decode_tagged((frame, tag): (Bytes, Tag)) -> Option<(NodeRecord, Tag)> {
    Some((NodeRecord::from_bytes(&frame)?, tag))
}

/// The scan entries of a subtree's stored frames (the root's own frame is
/// not under the `root/` prefix, so blob stores read it separately).
fn summaries(frames: impl IntoIterator<Item = Bytes>) -> Vec<ScanEntry> {
    let entries = frames
        .into_iter()
        .map(|f| crate::codec::decode_node_summary(&f));
    entries.flatten().map(ScanEntry::from).collect()
}

// ----------------------------------------------------------------------
// Object-store backend
// ----------------------------------------------------------------------

/// S3-style backend: one serialized object per node.
pub struct ObjUserStore {
    bucket: ObjectStore,
}

impl ObjUserStore {
    /// Wraps a bucket.
    pub fn new(bucket: ObjectStore) -> Self {
        ObjUserStore { bucket }
    }
}

impl UserStore for ObjUserStore {
    fn write_node(&self, ctx: &Ctx, record: &NodeRecord) -> CloudResult<()> {
        self.bucket.put(ctx, &record.path, record.to_bytes())?;
        Ok(())
    }

    fn write_node_if(
        &self,
        ctx: &Ctx,
        record: &NodeRecord,
        precondition: Precondition,
    ) -> CloudResult<Tag> {
        self.bucket
            .put_if(ctx, &record.path, record.to_bytes(), precondition)
    }

    fn read_tagged(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<(NodeRecord, Tag)>> {
        Ok(found(self.bucket.get(ctx, path))?.and_then(decode_tagged))
    }

    fn delete_node(&self, ctx: &Ctx, path: &str) -> CloudResult<()> {
        self.bucket.delete(ctx, path)
    }

    fn scan_subtree(&self, ctx: &Ctx, root: &str) -> CloudResult<Vec<ScanEntry>> {
        let own = match root {
            "/" => None,
            _ => found(self.bucket.get(ctx, root))?.map(|(frame, _)| frame),
        };
        let rest = self.bucket.get_prefix(ctx, &descendant_prefix(root))?;
        Ok(summaries(
            own.into_iter()
                .chain(rest.into_iter().map(|(_, frame)| frame)),
        ))
    }

    fn region(&self) -> Region {
        self.bucket.region()
    }

    fn kind(&self) -> UserStoreKind {
        UserStoreKind::Object
    }
}

// ----------------------------------------------------------------------
// Key-value and hybrid backend
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

/// DynamoDB-style backend: one item per node holding its frame and tag.
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

    /// Stores `record`'s item under `condition`, a large frame's object
    /// first. Returns the item's tag.
    fn write_item(&self, ctx: &Ctx, record: &NodeRecord, condition: Condition) -> CloudResult<Tag> {
        let tag = self.table.fresh_tag();
        let frame = record.to_bytes();
        let item = Item::new().with(kv_attr::TAG, tag as i64);
        let offload = self
            .offload
            .as_ref()
            .filter(|(_, threshold)| record.data.len() > *threshold);
        let item = match offload {
            Some((bucket, _)) => {
                bucket.put(ctx, &payload_key(&record.path, tag), frame)?;
                item.with(kv_attr::OFFLOADED, true)
            }
            None => item.with(kv_attr::FRAME, frame),
        };
        let stored = self.table.put(ctx, &record.path, item, condition);
        match (&stored, offload) {
            (Ok(old), _) => self.drop_payload(ctx, &record.path, old.as_ref()),
            // The item was not stored, so nothing names the object.
            (Err(_), Some((bucket, _))) => {
                let _ = bucket.delete(ctx, &payload_key(&record.path, tag));
            }
            (Err(_), None) => {}
        }
        stored.map(|_| tag)
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

    /// Reads `path`'s frame and tag: "the client library begins by
    /// reading data from key-value storage, and only the infrequent large
    /// nodes incur the performance and cost penalty of a second storage
    /// request". An object gone by the second request means the item
    /// changed in between, so the item is read again.
    fn read_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<(Bytes, Tag)>> {
        loop {
            let Some(item) = self.table.get(ctx, path, Consistency::Strong) else {
                return Ok(None);
            };
            if let Some(frame) = self.frame_of(ctx, path, &item)? {
                return Ok(Some((frame, item_tag(&item))));
            }
        }
    }
}

impl UserStore for KvUserStore {
    fn write_node(&self, ctx: &Ctx, record: &NodeRecord) -> CloudResult<()> {
        self.write_item(ctx, record, Condition::Always).map(drop)
    }

    fn write_node_if(
        &self,
        ctx: &Ctx,
        record: &NodeRecord,
        precondition: Precondition,
    ) -> CloudResult<Tag> {
        let condition = match precondition {
            Precondition::IfMatch(tag) => Condition::eq(kv_attr::TAG, tag as i64),
            Precondition::IfNoneMatch => Condition::ItemNotExists,
        };
        self.write_item(ctx, record, condition)
    }

    fn read_tagged(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<(NodeRecord, Tag)>> {
        Ok(self.read_frame(ctx, path)?.and_then(decode_tagged))
    }

    fn delete_node(&self, ctx: &Ctx, path: &str) -> CloudResult<()> {
        let old = match self.table.delete(ctx, path, Condition::ItemExists) {
            Ok(old) => old,
            Err(CloudError::ConditionFailed { .. }) => None,
            Err(e) => return Err(e),
        };
        self.drop_payload(ctx, path, old.as_ref());
        Ok(())
    }

    fn scan_subtree(&self, ctx: &Ctx, root: &str) -> CloudResult<Vec<ScanEntry>> {
        // One sweep over the KV tier; only offloaded (large) entries pay a
        // second, per-object request — the same small/large split point
        // reads enjoy (§4.2).
        let mut items: Vec<(String, Item)> = Vec::new();
        if root != "/" {
            if let Some(item) = self.table.get(ctx, root, Consistency::Strong) {
                items.push((root.to_owned(), item));
            }
        }
        items.extend(self.table.scan_prefix(ctx, &descendant_prefix(root)));
        let mut frames = Vec::with_capacity(items.len());
        for (path, item) in items {
            match self.frame_of(ctx, &path, &item)? {
                Some(frame) => frames.push(frame),
                // The item changed since the sweep: read it alone.
                None => frames.extend(self.read_frame(ctx, &path)?.map(|(frame, _)| frame)),
            }
        }
        Ok(summaries(frames))
    }

    fn region(&self) -> Region {
        self.table.region()
    }

    fn kind(&self) -> UserStoreKind {
        match self.offload {
            Some((_, threshold)) => UserStoreKind::Hybrid { threshold },
            None => UserStoreKind::KeyValue,
        }
    }
}

// ----------------------------------------------------------------------
// In-memory backend
// ----------------------------------------------------------------------

/// Redis-style backend (Fig 8's "FaaSKeeper, Redis" series).
pub struct MemUserStore {
    cache: MemStore,
}

impl MemUserStore {
    /// Wraps a cache.
    pub fn new(cache: MemStore) -> Self {
        MemUserStore { cache }
    }
}

impl UserStore for MemUserStore {
    fn write_node(&self, ctx: &Ctx, record: &NodeRecord) -> CloudResult<()> {
        self.cache.put(ctx, &record.path, record.to_bytes());
        Ok(())
    }

    fn write_node_if(
        &self,
        ctx: &Ctx,
        record: &NodeRecord,
        precondition: Precondition,
    ) -> CloudResult<Tag> {
        self.cache
            .put_if(ctx, &record.path, record.to_bytes(), precondition)
    }

    fn read_node(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<NodeRecord>> {
        Ok(found(self.cache.get(ctx, path))?.and_then(|frame| NodeRecord::from_bytes(&frame)))
    }

    fn read_tagged(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<(NodeRecord, Tag)>> {
        let tagged = found(self.cache.get(ctx, path))?.map(|frame| {
            let tag = content_tag(&frame);
            (frame, tag)
        });
        Ok(tagged.and_then(decode_tagged))
    }

    fn delete_node(&self, ctx: &Ctx, path: &str) -> CloudResult<()> {
        self.cache.delete(ctx, path);
        Ok(())
    }

    fn scan_subtree(&self, ctx: &Ctx, root: &str) -> CloudResult<Vec<ScanEntry>> {
        let own = match root {
            "/" => None,
            _ => found(self.cache.get(ctx, root))?,
        };
        let rest = self.cache.scan_prefix(ctx, &descendant_prefix(root));
        Ok(summaries(
            own.into_iter()
                .chain(rest.into_iter().map(|(_, frame)| frame)),
        ))
    }

    fn region(&self) -> Region {
        self.cache.region()
    }

    fn kind(&self) -> UserStoreKind {
        UserStoreKind::Cached
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

    fn backends() -> Vec<Box<dyn UserStore>> {
        let meter = Meter::new();
        let region = Region::US_EAST_1;
        vec![
            Box::new(ObjUserStore::new(ObjectStore::new(
                "u",
                region,
                meter.clone(),
            ))),
            Box::new(KvUserStore::new(KvStore::new("u", region, meter.clone()))),
            Box::new(KvUserStore::hybrid(
                KvStore::new("u", region, meter.clone()),
                ObjectStore::new("ub", region, meter.clone()),
                4096,
            )),
            Box::new(MemUserStore::new(MemStore::new(region, meter))),
        ]
    }

    #[test]
    fn roundtrip_on_all_backends() {
        let ctx = Ctx::disabled();
        for store in backends() {
            let rec = record("/n", 100);
            store.write_node(&ctx, &rec).unwrap();
            let got = store.read_node(&ctx, "/n").unwrap().unwrap();
            assert_eq!(got, rec, "backend {:?}", store.kind());
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
        for store in backends() {
            assert!(store.read_node(&ctx, "/missing").unwrap().is_none());
        }
    }

    #[test]
    fn hybrid_keeps_small_nodes_in_kv() {
        let meter = Meter::new();
        let bucket = ObjectStore::new("b", Region::US_EAST_1, meter.clone());
        let store = KvUserStore::hybrid(
            KvStore::new("t", Region::US_EAST_1, meter.clone()),
            bucket.clone(),
            4096,
        );
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
        let meter = Meter::new();
        let bucket = ObjectStore::new("b", Region::US_EAST_1, meter.clone());
        let store = KvUserStore::hybrid(
            KvStore::new("t", Region::US_EAST_1, meter.clone()),
            bucket.clone(),
            4096,
        );
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
        let meter = Meter::new();
        let bucket = ObjectStore::new("b", Region::US_EAST_1, meter.clone());
        let store = KvUserStore::hybrid(
            KvStore::new("t", Region::US_EAST_1, meter),
            bucket.clone(),
            4096,
        );
        let ctx = Ctx::disabled();
        store.write_node(&ctx, &record("/big", 50_000)).unwrap();
        store.delete_node(&ctx, "/big").unwrap();
        assert_eq!(bucket.len(), 0);
    }

    #[test]
    fn object_backend_rewrites_whole_object() {
        let meter = Meter::new();
        let bucket = ObjectStore::new("b", Region::US_EAST_1, meter.clone());
        let store = ObjUserStore::new(bucket);
        let ctx = Ctx::disabled();
        store.write_node(&ctx, &record("/n", 10)).unwrap();
        store.write_node(&ctx, &record("/n", 20)).unwrap();
        // An unconditional write is one whole-object PUT and no read.
        let snap = meter.snapshot();
        assert_eq!((snap.obj_gets, snap.obj_puts), (0, 2));
        assert_eq!(store.read_node(&ctx, "/n").unwrap().unwrap().data.len(), 20);
    }

    #[test]
    fn write_batch_coalesces_to_final_record_on_all_backends() {
        let ctx = Ctx::disabled();
        for store in backends() {
            let versions: Vec<NodeRecord> = (1..=3)
                .map(|v| {
                    let mut rec = record("/n", 10 * v);
                    rec.version = v as i32;
                    rec
                })
                .collect();
            store.write_batch(&ctx, &versions).unwrap();
            let got = store.read_node(&ctx, "/n").unwrap().unwrap();
            assert_eq!(got.version, 3, "last write wins ({:?})", store.kind());
            assert_eq!(got.data.len(), 30);
        }
    }

    #[test]
    fn obj_write_batch_pays_one_put_per_distinct_path() {
        let meter = Meter::new();
        let store = ObjUserStore::new(ObjectStore::new("b", Region::US_EAST_1, meter.clone()));
        let ctx = Ctx::disabled();
        let batch: Vec<NodeRecord> = (0..6)
            .map(|i| record(if i % 2 == 0 { "/a" } else { "/b" }, 8 + i))
            .collect();
        store.write_batch(&ctx, &batch).unwrap();
        let snap = meter.snapshot();
        assert_eq!(snap.obj_puts, 2, "six writes, two distinct paths");
        assert_eq!(snap.obj_gets, 0, "blind writes read nothing");
    }

    #[test]
    fn kv_write_batch_and_delete_batch_round_trip() {
        let store = KvUserStore::new(KvStore::new("u", Region::US_EAST_1, Meter::new()));
        let ctx = Ctx::disabled();
        let batch: Vec<NodeRecord> = (0..4).map(|i| record(&format!("/n{i}"), 16)).collect();
        store.write_batch(&ctx, &batch).unwrap();
        for i in 0..4 {
            assert!(store.read_node(&ctx, &format!("/n{i}")).unwrap().is_some());
        }
        // Batched deletes stay idempotent.
        let paths: Vec<String> = (0..4).map(|i| format!("/n{i}")).collect();
        store.delete_batch(&ctx, &paths).unwrap();
        store.delete_batch(&ctx, &paths).unwrap();
        for path in &paths {
            assert!(store.read_node(&ctx, path).unwrap().is_none());
        }
    }

    #[test]
    fn hybrid_write_batch_skips_intermediate_offloads() {
        let meter = Meter::new();
        let bucket = ObjectStore::new("b", Region::US_EAST_1, meter.clone());
        let store = KvUserStore::hybrid(
            KvStore::new("t", Region::US_EAST_1, meter.clone()),
            bucket.clone(),
            4096,
        );
        let ctx = Ctx::disabled();
        // Large intermediate version coalesced away by a small final one:
        // the object store is never touched.
        store
            .write_batch(&ctx, &[record("/n", 100_000), record("/n", 64)])
            .unwrap();
        assert_eq!(bucket.len(), 0, "intermediate offload skipped");
        assert_eq!(store.read_node(&ctx, "/n").unwrap().unwrap().data.len(), 64);
        // Multiple final offloads: every payload uploads.
        store
            .write_batch(&ctx, &[record("/big1", 50_000), record("/big2", 60_000)])
            .unwrap();
        assert_eq!(bucket.len(), 2);
        assert_eq!(
            store.read_node(&ctx, "/big2").unwrap().unwrap().data.len(),
            60_000
        );
    }

    #[test]
    fn write_batch_preserves_cross_path_content() {
        let ctx = Ctx::disabled();
        for store in backends() {
            let batch = vec![record("/x", 5), record("/y", 7), record("/x", 9)];
            store.write_batch(&ctx, &batch).unwrap();
            assert_eq!(store.read_node(&ctx, "/x").unwrap().unwrap().data.len(), 9);
            assert_eq!(store.read_node(&ctx, "/y").unwrap().unwrap().data.len(), 7);
            store
                .delete_batch(&ctx, &["/x".to_owned(), "/x".to_owned(), "/y".to_owned()])
                .unwrap();
            assert!(store.read_node(&ctx, "/x").unwrap().is_none());
            assert!(store.read_node(&ctx, "/y").unwrap().is_none());
        }
    }

    #[test]
    fn record_serialization_roundtrip() {
        let rec = record("/x", 33);
        let bytes = rec.to_bytes();
        assert_eq!(bytes[0], crate::codec::MAGIC, "writers emit the frame");
        assert_eq!(NodeRecord::from_bytes(&bytes).unwrap(), rec);
    }

    #[test]
    fn scan_subtree_on_all_backends() {
        let ctx = Ctx::disabled();
        for store in backends() {
            for path in ["/a", "/a/x", "/a/x/deep", "/a/y", "/ab", "/b"] {
                store.write_node(&ctx, &record(path, 8)).unwrap();
            }
            let entries = store.scan_subtree(&ctx, "/a").unwrap();
            let paths: Vec<&str> = entries.iter().map(|e| e.path.as_str()).collect();
            assert_eq!(
                paths,
                ["/a", "/a/x", "/a/x/deep", "/a/y"],
                "sibling /ab excluded ({:?})",
                store.kind()
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
        let meter = Meter::new();
        let store = KvUserStore::hybrid(
            KvStore::new("t", Region::US_EAST_1, meter.clone()),
            ObjectStore::new("b", Region::US_EAST_1, meter.clone()),
            4096,
        );
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
