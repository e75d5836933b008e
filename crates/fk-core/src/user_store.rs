//! User storage backends (§4.2).
//!
//! The user store serves client reads directly — FaaSKeeper removes
//! functions from the read path entirely. Four backends reproduce the
//! paper's comparison (Fig 8/9/11):
//!
//! * [`ObjUserStore`] — S3-style: one object per node. No partial writes,
//!   so updates are a read-modify-write of the whole object (§3.2).
//! * [`KvUserStore`] — DynamoDB-style: one item per node, updated with a
//!   single expression; cheap and fast for small nodes but per-kB billing
//!   explodes for large ones (Fig 4a).
//! * [`HybridUserStore`] — the paper's optimization (§4.2): nodes ≤ 4 kB
//!   live in the KV item; larger payloads split metadata (KV) from data
//!   (object store). Reads start at the KV store and only large nodes pay
//!   the second request. Improves read latency by >50 % and cost by 37.5 %.
//! * [`MemUserStore`] — Redis-style cache, matching ZooKeeper's latency
//!   (Fig 8) but requiring provisioned resources (Requirement #8).
//!
//! Client reads may be answered by the session-local, watermark-validated
//! read cache ([`crate::read_cache`]) before they ever reach a backend;
//! the backends stay cache-oblivious — every `read_node` they serve is a
//! genuine (billed, metered) storage round trip, which is exactly what
//! the read-path gate counts.

use crate::api::Stat;
use bytes::Bytes;
use fk_cloud::expr::{Condition, Update};
use fk_cloud::kvstore::KvStore;
use fk_cloud::objectstore::ObjectStore;
use fk_cloud::trace::Ctx;
use fk_cloud::value::{Item, Value};
use fk_cloud::{CloudError, CloudResult, Consistency, MemStore, Region};
use std::sync::Arc;

/// A node as stored in (and read from) the user store.
///
/// The payload-bearing fields (`data`, `children`, `epoch_marks`) are
/// reference-counted: the distributor materializes one record per
/// committed transaction and every (region × shard) fan-out worker, RMW
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

    /// Serializes for blob-shaped backends (binary frame,
    /// [`crate::codec`]).
    fn to_bytes(&self) -> Bytes {
        crate::codec::encode_node(self)
    }

    /// Deserializes from a stored blob; `None` if it is not an exact
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
/// The batched surface (`write_batch` / `delete_batch`) is the
/// distributor's entry point: callers pass one shard-worth of operations
/// in apply order, and backends may coalesce repeated writes to one path
/// (last record wins) and collapse round trips (e.g. one KV transaction
/// for a whole batch). The defaults fall back to per-record calls, so a
/// backend only overrides what it can genuinely batch.
pub trait UserStore: Send + Sync {
    /// Writes (creates or replaces) a node record.
    fn write_node(&self, ctx: &Ctx, record: &NodeRecord) -> CloudResult<()>;
    /// Reads a node record; `Ok(None)` if absent.
    fn read_node(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<NodeRecord>>;
    /// Deletes a node record (idempotent).
    fn delete_node(&self, ctx: &Ctx, path: &str) -> CloudResult<()>;

    /// Writes a record whose current stored state the caller has *just
    /// read* (the put half of a read-modify-write): backends that prefix
    /// `write_node` with a read of their own (the object store's
    /// whole-object rewrite) skip it here — a real S3 conditional RMW is
    /// one GET plus one If-Match PUT, not two GETs. Default: plain
    /// `write_node`.
    fn replace_node(&self, ctx: &Ctx, record: &NodeRecord) -> CloudResult<()> {
        self.write_node(ctx, record)
    }

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
        // No partial updates in object storage (Requirement #6): even
        // though we hold the complete record, a real leader must download
        // the current object before replacing it, and so do we — this is
        // the dominant cost in the leader's profile (Table 3 Update Node).
        // A missing object is expected (creates); any other failure of
        // the pre-write read (throttling, stopped service) must propagate
        // rather than being silently swallowed before the put.
        match self.bucket.get(ctx, &record.path) {
            Ok(_) | Err(CloudError::NotFound { .. }) => {}
            Err(e) => return Err(e),
        }
        self.bucket.put(ctx, &record.path, record.to_bytes())
    }

    fn replace_node(&self, ctx: &Ctx, record: &NodeRecord) -> CloudResult<()> {
        // The caller just performed the read half of the RMW; the PUT
        // stands alone (the conditional-put leg of a GET + If-Match PUT).
        self.bucket.put(ctx, &record.path, record.to_bytes())
    }

    fn read_node(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<NodeRecord>> {
        match self.bucket.get(ctx, path) {
            Ok(bytes) => Ok(NodeRecord::from_bytes(&bytes)),
            Err(CloudError::NotFound { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn delete_node(&self, ctx: &Ctx, path: &str) -> CloudResult<()> {
        self.bucket.delete(ctx, path)
    }

    fn scan_subtree(&self, ctx: &Ctx, root: &str) -> CloudResult<Vec<ScanEntry>> {
        let mut out = Vec::new();
        if root != "/" {
            // The root itself is not under the `root/` key prefix.
            match self.bucket.get(ctx, root) {
                Ok(bytes) => out.extend(crate::codec::decode_node_summary(&bytes).map(Into::into)),
                Err(CloudError::NotFound { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        for (_, bytes) in self.bucket.get_prefix(ctx, &descendant_prefix(root))? {
            out.extend(crate::codec::decode_node_summary(&bytes).map(ScanEntry::from));
        }
        Ok(out)
    }

    fn region(&self) -> Region {
        self.bucket.region()
    }

    fn kind(&self) -> UserStoreKind {
        UserStoreKind::Object
    }
}

// ----------------------------------------------------------------------
// Key-value backend
// ----------------------------------------------------------------------

/// Attribute names of user-store KV items.
mod kv_attr {
    pub const DATA: &str = "data";
    pub const CREATED: &str = "created";
    pub const MODIFIED: &str = "modified";
    pub const VERSION: &str = "version";
    pub const CHILDREN: &str = "children";
    pub const CHILDREN_TXID: &str = "children_txid";
    pub const EPH: &str = "eph_owner";
    pub const EPOCH: &str = "epoch";
    /// Marker: payload lives in the object store (hybrid mode).
    pub const OFFLOADED: &str = "offloaded";
}

fn record_to_update(record: &NodeRecord, data: Option<&Bytes>, offloaded: bool) -> Update {
    let mut update = Update::new()
        .set(kv_attr::CREATED, record.created_txid as i64)
        .set(kv_attr::MODIFIED, record.modified_txid as i64)
        .set(kv_attr::VERSION, record.version as i64)
        .set(
            kv_attr::CHILDREN,
            Value::List(
                record
                    .children
                    .iter()
                    .map(|c| Value::from(c.as_str()))
                    .collect(),
            ),
        )
        .set(kv_attr::CHILDREN_TXID, record.children_txid as i64)
        .set(
            kv_attr::EPOCH,
            Value::List(
                record
                    .epoch_marks
                    .iter()
                    .map(|m| Value::Num(*m as i64))
                    .collect(),
            ),
        );
    update = match &record.ephemeral_owner {
        Some(owner) => update.set(kv_attr::EPH, owner.as_str()),
        None => update.remove(kv_attr::EPH),
    };
    update = match data {
        Some(data) => update.set(kv_attr::DATA, data.clone()),
        None => update.remove(kv_attr::DATA),
    };
    if offloaded {
        update.set(kv_attr::OFFLOADED, true)
    } else {
        update.remove(kv_attr::OFFLOADED)
    }
}

fn entry_from_item(path: &str, item: &Item, data_override: Option<Bytes>) -> ScanEntry {
    let record = record_from_item(path, item, data_override);
    ScanEntry {
        stat: record.stat(),
        path: record.path,
        data: record.data,
        epoch_marks: record.epoch_marks,
    }
}

fn record_from_item(path: &str, item: &Item, data_override: Option<Bytes>) -> NodeRecord {
    NodeRecord {
        path: path.to_owned(),
        data: data_override
            .or_else(|| item.bin(kv_attr::DATA).cloned())
            .unwrap_or_default(),
        created_txid: item.num(kv_attr::CREATED).unwrap_or(0) as u64,
        modified_txid: item.num(kv_attr::MODIFIED).unwrap_or(0) as u64,
        version: item.num(kv_attr::VERSION).unwrap_or(0) as i32,
        children: Arc::new(
            item.list(kv_attr::CHILDREN)
                .map(|l| {
                    l.iter()
                        .filter_map(|v| v.as_str().map(str::to_owned))
                        .collect()
                })
                .unwrap_or_default(),
        ),
        children_txid: item.num(kv_attr::CHILDREN_TXID).unwrap_or(0) as u64,
        ephemeral_owner: item.str(kv_attr::EPH).map(str::to_owned),
        epoch_marks: Arc::new(
            item.list(kv_attr::EPOCH)
                .map(|l| {
                    l.iter()
                        .filter_map(|v| v.as_num().map(|n| n as u64))
                        .collect()
                })
                .unwrap_or_default(),
        ),
    }
}

/// DynamoDB-style backend: one item per node, single-expression updates.
pub struct KvUserStore {
    table: KvStore,
}

impl KvUserStore {
    /// Wraps a table.
    pub fn new(table: KvStore) -> Self {
        KvUserStore { table }
    }
}

impl UserStore for KvUserStore {
    fn write_node(&self, ctx: &Ctx, record: &NodeRecord) -> CloudResult<()> {
        let update = record_to_update(record, Some(&record.data), false);
        self.table
            .update(ctx, &record.path, &update, Condition::Always)?;
        Ok(())
    }

    fn read_node(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<NodeRecord>> {
        Ok(self
            .table
            .get(ctx, path, Consistency::Strong)
            .map(|item| record_from_item(path, &item, None)))
    }

    fn delete_node(&self, ctx: &Ctx, path: &str) -> CloudResult<()> {
        match self.table.delete(ctx, path, Condition::ItemExists) {
            Ok(_) => Ok(()),
            Err(CloudError::ConditionFailed { .. }) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// DynamoDB-style batching: the whole (coalesced) batch commits as a
    /// single multi-item transaction — one round trip instead of one per
    /// node, which is where the distributor's KV throughput comes from.
    fn write_batch(&self, ctx: &Ctx, records: &[NodeRecord]) -> CloudResult<()> {
        let finals = coalesce_last_per_path(records);
        match finals.as_slice() {
            [] => Ok(()),
            [single] => self.write_node(ctx, single),
            many => {
                let ops: Vec<fk_cloud::TransactOp> = many
                    .iter()
                    .map(|record| fk_cloud::TransactOp::Update {
                        key: record.path.clone(),
                        update: record_to_update(record, Some(&record.data), false),
                        condition: Condition::Always,
                    })
                    .collect();
                self.table.transact(ctx, &ops)
            }
        }
    }

    fn delete_batch(&self, ctx: &Ctx, paths: &[String]) -> CloudResult<()> {
        let paths = dedupe_paths(paths);
        match paths.as_slice() {
            [] => Ok(()),
            [single] => self.delete_node(ctx, single),
            many => {
                let ops: Vec<fk_cloud::TransactOp> = many
                    .iter()
                    .map(|path| fk_cloud::TransactOp::Delete {
                        key: (*path).clone(),
                        // Unconditional: batch deletes stay idempotent
                        // even when some nodes are already gone.
                        condition: Condition::Always,
                    })
                    .collect();
                self.table.transact(ctx, &ops)
            }
        }
    }

    fn scan_subtree(&self, ctx: &Ctx, root: &str) -> CloudResult<Vec<ScanEntry>> {
        let mut out = Vec::new();
        if root != "/" {
            if let Some(item) = self.table.get(ctx, root, Consistency::Strong) {
                out.push(entry_from_item(root, &item, None));
            }
        }
        for (path, item) in self.table.scan_prefix(ctx, &descendant_prefix(root)) {
            out.push(entry_from_item(&path, &item, None));
        }
        Ok(out)
    }

    fn region(&self) -> Region {
        self.table.region()
    }

    fn kind(&self) -> UserStoreKind {
        UserStoreKind::KeyValue
    }
}

// ----------------------------------------------------------------------
// Hybrid backend
// ----------------------------------------------------------------------

/// The paper's hybrid split: metadata + small payloads in KV, large
/// payloads offloaded to object storage.
pub struct HybridUserStore {
    table: KvStore,
    bucket: ObjectStore,
    threshold: usize,
}

impl HybridUserStore {
    /// Creates a hybrid store splitting at `threshold` bytes.
    pub fn new(table: KvStore, bucket: ObjectStore, threshold: usize) -> Self {
        HybridUserStore {
            table,
            bucket,
            threshold,
        }
    }
}

impl UserStore for HybridUserStore {
    fn write_node(&self, ctx: &Ctx, record: &NodeRecord) -> CloudResult<()> {
        let offload = record.data.len() > self.threshold;
        if offload {
            self.bucket.put(ctx, &record.path, record.data.clone())?;
            let update = record_to_update(record, None, true);
            let out = self
                .table
                .update(ctx, &record.path, &update, Condition::Always)?;
            // A shrink from large to small never leaves stale objects
            // behind because offloaded stays set; nothing to clean here.
            let _ = out;
        } else {
            let update = record_to_update(record, Some(&record.data), false);
            let out = self
                .table
                .update(ctx, &record.path, &update, Condition::Always)?;
            // If the node shrank out of the object store, drop the object.
            if out
                .old
                .as_ref()
                .map(|o| o.contains(kv_attr::OFFLOADED))
                .unwrap_or(false)
            {
                self.bucket.delete(ctx, &record.path)?;
            }
        }
        Ok(())
    }

    fn read_node(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<NodeRecord>> {
        // "The client library begins by reading data from key-value
        // storage, and only the infrequent large nodes incur the
        // performance and cost penalty of a second storage request."
        let Some(item) = self.table.get(ctx, path, Consistency::Strong) else {
            return Ok(None);
        };
        let data = if item.contains(kv_attr::OFFLOADED) {
            Some(self.bucket.get(ctx, path)?)
        } else {
            None
        };
        Ok(Some(record_from_item(path, &item, data)))
    }

    fn delete_node(&self, ctx: &Ctx, path: &str) -> CloudResult<()> {
        let offloaded = match self.table.delete(ctx, path, Condition::ItemExists) {
            Ok(old) => old.map(|o| o.contains(kv_attr::OFFLOADED)).unwrap_or(false),
            Err(CloudError::ConditionFailed { .. }) => false,
            Err(e) => return Err(e),
        };
        if offloaded {
            self.bucket.delete(ctx, path)?;
        }
        Ok(())
    }

    /// Hybrid coalescing: only the *final* record per path materializes,
    /// so intermediate large versions never touch the object store at
    /// all. Offloaded payloads upload individually (object stores have no
    /// batch PUT) but their metadata items commit in one KV transaction;
    /// inline records go through `write_node`, which also cleans up an
    /// object left behind by a pre-batch large version.
    fn write_batch(&self, ctx: &Ctx, records: &[NodeRecord]) -> CloudResult<()> {
        let finals = coalesce_last_per_path(records);
        let (offloaded, inline): (Vec<&&NodeRecord>, Vec<&&NodeRecord>) = finals
            .iter()
            .partition(|record| record.data.len() > self.threshold);
        for record in &inline {
            self.write_node(ctx, record)?;
        }
        match offloaded.as_slice() {
            [] => {}
            [single] => self.write_node(ctx, single)?,
            many => {
                let mut meta_ops = Vec::with_capacity(many.len());
                for record in many {
                    self.bucket.put(ctx, &record.path, record.data.clone())?;
                    meta_ops.push(fk_cloud::TransactOp::Update {
                        key: record.path.clone(),
                        update: record_to_update(record, None, true),
                        condition: Condition::Always,
                    });
                }
                self.table.transact(ctx, &meta_ops)?;
            }
        }
        Ok(())
    }

    fn scan_subtree(&self, ctx: &Ctx, root: &str) -> CloudResult<Vec<ScanEntry>> {
        // One metadata sweep over the KV tier; only the infrequent
        // offloaded (large) entries pay a second, per-object request —
        // the same small/large split point reads enjoy (§4.2).
        let mut metas: Vec<(String, Item)> = Vec::new();
        if root != "/" {
            if let Some(item) = self.table.get(ctx, root, Consistency::Strong) {
                metas.push((root.to_owned(), item));
            }
        }
        metas.extend(self.table.scan_prefix(ctx, &descendant_prefix(root)));
        let mut out = Vec::with_capacity(metas.len());
        for (path, item) in metas {
            let data = if item.contains(kv_attr::OFFLOADED) {
                Some(self.bucket.get(ctx, &path)?)
            } else {
                None
            };
            out.push(entry_from_item(&path, &item, data));
        }
        Ok(out)
    }

    fn region(&self) -> Region {
        self.table.region()
    }

    fn kind(&self) -> UserStoreKind {
        UserStoreKind::Hybrid {
            threshold: self.threshold,
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

    fn read_node(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<NodeRecord>> {
        match self.cache.get(ctx, path) {
            Ok(bytes) => Ok(NodeRecord::from_bytes(&bytes)),
            Err(CloudError::NotFound { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn delete_node(&self, ctx: &Ctx, path: &str) -> CloudResult<()> {
        self.cache.delete(ctx, path);
        Ok(())
    }

    fn scan_subtree(&self, ctx: &Ctx, root: &str) -> CloudResult<Vec<ScanEntry>> {
        let mut out = Vec::new();
        if root != "/" {
            match self.cache.get(ctx, root) {
                Ok(bytes) => out.extend(crate::codec::decode_node_summary(&bytes).map(Into::into)),
                Err(CloudError::NotFound { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        for (_, bytes) in self.cache.scan_prefix(ctx, &descendant_prefix(root)) {
            out.extend(crate::codec::decode_node_summary(&bytes).map(ScanEntry::from));
        }
        Ok(out)
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
            Box::new(HybridUserStore::new(
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
        let store = HybridUserStore::new(
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
        let store = HybridUserStore::new(
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
        let store = HybridUserStore::new(
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
        let gets_before = meter.snapshot().obj_gets;
        store.write_node(&ctx, &record("/n", 20)).unwrap();
        // Read-modify-write: the update performed a GET first.
        assert_eq!(meter.snapshot().obj_gets, gets_before + 1);
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
        assert_eq!(snap.obj_gets, 2, "one read-modify-write GET per path");
    }

    #[test]
    fn kv_write_batch_commits_as_one_transaction() {
        let meter = Meter::new();
        let store = KvUserStore::new(KvStore::new("u", Region::US_EAST_1, meter.clone()));
        let ctx = Ctx::disabled();
        let batch: Vec<NodeRecord> = (0..4).map(|i| record(&format!("/n{i}"), 16)).collect();
        store.write_batch(&ctx, &batch).unwrap();
        let snap = meter.snapshot();
        assert_eq!(
            snap.per_op.get("kv_transact").copied().unwrap_or(0),
            1,
            "one transaction request"
        );
        assert_eq!(
            snap.per_op.get("kv_transact_items").copied().unwrap_or(0),
            4,
            "four items inside it"
        );
        assert_eq!(
            snap.per_op.get("kv_write").copied().unwrap_or(0),
            0,
            "no per-item updates"
        );
        for i in 0..4 {
            assert!(store.read_node(&ctx, &format!("/n{i}")).unwrap().is_some());
        }
        // Batched deletes are also one transaction and stay idempotent.
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
        let store = HybridUserStore::new(
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
        // Multiple final offloads: payloads upload, metadata commits once.
        let before = meter
            .snapshot()
            .per_op
            .get("kv_write")
            .copied()
            .unwrap_or(0);
        store
            .write_batch(&ctx, &[record("/big1", 50_000), record("/big2", 60_000)])
            .unwrap();
        assert_eq!(bucket.len(), 2);
        let after = meter
            .snapshot()
            .per_op
            .get("kv_write")
            .copied()
            .unwrap_or(0);
        assert_eq!(
            after, before,
            "offload metadata went through the transaction path"
        );
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
        let store = HybridUserStore::new(
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
