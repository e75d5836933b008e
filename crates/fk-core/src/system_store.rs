//! System storage layout (§3.3).
//!
//! "System storage contains the current timestamp, all active sessions,
//! and the list of all data nodes to allow locking by follower functions."
//! One key-value table holds:
//!
//! * `node:<path>` — per-node control item: creation/modification txids,
//!   data-version counter, child count, the txid of the last children
//!   change, the **pending children log**, sequential-name counter,
//!   ephemeral owner, the per-node pending-transaction queue (`txq`,
//!   Algorithm 2 ➊/➎), the user-store object tags of the leader's last
//!   write ([`ObjTags`]) and the timed-lock timestamp. **No node payload** —
//!   data travels through the leader queue to the user store, which is
//!   why the paper's commit latency is flat in node size (Table 3).
//!   **No children names either**: a child's name lives in its own item
//!   and in the parent's user-store record. A create or delete adds one
//!   `(txid, ±name)` entry to the parent's pending log
//!   ([`node_attr::PENDING_CHILDREN`], [`ChildEntry`]) and moves its
//!   count, in the commit that releases the parent's lock; the leader
//!   folds the entries into the stored list ([`ChildLog`]) and removes
//!   them with the epoch's pops. The locked item, and so the write units
//!   every child's create pays on it, stays the same size however many
//!   children the node has.
//! * `session:<id>` — active sessions and their ephemeral nodes.
//! * `watch:<path>` — watch instances (one id per path × kind, shared by
//!   all subscribed sessions, §3.4).
//! * `epoch:<region>` — the region epoch counters: ids of watch
//!   notifications still in flight (§3.4).
//! * `counter:*` — atomic counters (watch-instance ids, committed txid).
//!   `counter:watch_ids` is advanced a block at a time: each `ADD`
//!   reserves 1,024 watch ids for the handle that drew it.

use crate::api::WatchKind;
use fk_cloud::expr::{Condition, Operand, Update};
use fk_cloud::kvstore::KvStore;
use fk_cloud::trace::Ctx;
use fk_cloud::value::{Item, Value};
use fk_cloud::{CloudResult, Region, TransactOp};
use fk_sync::{AtomicCounter, AtomicList, TimedLockManager};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;

/// Attribute names of `node:` items.
pub mod node_attr {
    /// Creation txid; present iff the node exists.
    pub const CREATED: &str = "created";
    /// Last-modification txid (mzxid).
    pub const VERSION: &str = "version";
    /// Data-version counter (ZooKeeper `version`).
    pub const VCOUNT: &str = "vcount";
    /// Number of children: `Stat.num_children`, and the delete's
    /// `NotEmpty` check.
    pub const NUM_CHILDREN: &str = "nchildren";
    /// The pending children log: one [`super::ChildEntry`] per child
    /// added or removed by a committed transaction the leader has not
    /// yet distributed, in txid order.
    pub const PENDING_CHILDREN: &str = "child_log";
    /// Owner session of an ephemeral node.
    pub const EPH_OWNER: &str = "eph_owner";
    /// Counter naming sequential children.
    pub const SEQ: &str = "seq_counter";
    /// Pending transaction queue.
    pub const TXQ: &str = "txq";
    /// Tombstone marker for deletions awaiting leader propagation.
    pub const DELETED: &str = "deleted";
    /// Txid of the last committed children-list rewrite (set on the
    /// parent by child creates/deletes). Feeds the follower's txid
    /// allocation floor so that, across shard groups, a later children
    /// rewrite always carries a larger txid than every earlier one.
    pub const CHILDREN_TXID: &str = "children_txid";
    /// The user-store object tags the leader's last write of the node
    /// left, one per region ([`super::ObjTags`]). Set by the leader's
    /// pop, in the update that pops the `txq`; removed by every follower
    /// commit that creates the node or rewrites its children.
    pub const TAGS: &str = "tags";
}

/// The user-store object tags a node item keeps on record
/// ([`node_attr::TAGS`]: one tag per region, recorded only when the
/// leader's last write of the node replaced an existing object), with
/// the floor a write must reach to name them.
///
/// A later write of the node names a region's tag in an `If-Match` PUT
/// instead of downloading the object ([`ObjTags::tag_for`]). The PUT
/// lands only if the object is exactly what that earlier write stored;
/// the floor check makes the read-merge-write it replaces return the
/// record unchanged (`docs/consistency.md` § Z1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjTags {
    /// A bound on the `children_txid` and `modified_txid` the tagged
    /// objects hold: the node item's `children_txid` (every children
    /// rewrite merged into an object had committed, and set it, first).
    pub floor: u64,
    /// One tag per region, aligned with the distributor's regions; 0
    /// where that region's write recorded none.
    pub tags: Vec<fk_cloud::objectstore::Tag>,
}

impl ObjTags {
    /// The tags on record in a node item, floored by its
    /// `children_txid` (none if the item or the attribute is absent).
    pub fn of(item: Option<&Item>) -> Self {
        let Some(item) = item else {
            return ObjTags::default();
        };
        let values = item.list(node_attr::TAGS).unwrap_or_default();
        ObjTags {
            floor: item.num(node_attr::CHILDREN_TXID).unwrap_or(0) as u64,
            tags: values
                .iter()
                .filter_map(|v| v.as_num())
                .map(|n| n as u64)
                .collect(),
        }
    }

    /// True if no region has a tag on record.
    pub fn is_empty(&self) -> bool {
        self.tags.iter().all(|tag| *tag == 0)
    }

    /// The tag of `region` that a write of `record` may name in an
    /// `If-Match`: only if the record's `children_txid` and
    /// `modified_txid` both reach the floor, so the stored object holds
    /// nothing newer than the record.
    pub fn tag_for(
        &self,
        region: usize,
        record: &crate::user_store::NodeRecord,
    ) -> Option<fk_cloud::objectstore::Tag> {
        let tag = self.tags.get(region).copied().filter(|tag| *tag != 0)?;
        (record.children_txid >= self.floor && record.modified_txid >= self.floor).then_some(tag)
    }
}

/// One entry of a node's pending children log
/// ([`node_attr::PENDING_CHILDREN`]): the transaction `txid` added
/// (`added`) or removed the child `name`. Stored as the list
/// `[txid, name, added]`; the follower's commit appends it with the txid
/// substituted ([`crate::messages::SerValue::TxidChild`]), and the
/// leader's pop removes it by value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildEntry {
    /// The transaction that changed the children.
    pub txid: u64,
    /// The child's name.
    pub name: String,
    /// `true` for a create, `false` for a delete.
    pub added: bool,
}

impl ChildEntry {
    /// The stored form of the entry.
    pub fn to_value(&self) -> Value {
        Value::List(vec![
            Value::Num(self.txid as i64),
            Value::Str(self.name.clone()),
            Value::Bool(self.added),
        ])
    }

    /// Parses a stored entry.
    pub fn from_value(value: &Value) -> Option<Self> {
        match value.as_list()? {
            [txid, name, added] => Some(ChildEntry {
                txid: txid.as_num()? as u64,
                name: name.as_str()?.to_owned(),
                added: added.as_bool()?,
            }),
            _ => None,
        }
    }
}

/// What the leader reads off a node item to settle the node's children
/// list: the node's current incarnation and its pending children log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChildLog {
    /// Creation txid of the node's current incarnation (0 if the item
    /// never recorded one).
    pub created: u64,
    /// The node exists: created, and not tombstoned.
    pub exists: bool,
    /// The pending entries, in txid order (a stable sort keeps one
    /// transaction's entries in op order).
    pub entries: Vec<ChildEntry>,
}

impl ChildLog {
    /// The children log of a node item (empty if the item is absent).
    pub fn of(item: Option<&Item>) -> Self {
        let Some(item) = item else {
            return ChildLog::default();
        };
        let values = item.list(node_attr::PENDING_CHILDREN).unwrap_or_default();
        let mut entries: Vec<ChildEntry> =
            values.iter().filter_map(ChildEntry::from_value).collect();
        entries.sort_by_key(|entry| entry.txid);
        ChildLog {
            created: item.num(node_attr::CREATED).unwrap_or(0) as u64,
            exists: SystemStore::node_exists(Some(item)),
            entries,
        }
    }
}

/// `update` extended to leave exactly `tags` (one per region, 0 where
/// none) on record as the node item's [`node_attr::TAGS`]: set them, or
/// remove the attribute when no region has one.
pub fn record_tags(tags: &[fk_cloud::objectstore::Tag], update: Update) -> Update {
    if tags.iter().all(|tag| *tag == 0) {
        return update.remove(node_attr::TAGS);
    }
    let tags = tags.iter().map(|tag| Value::Num(*tag as i64));
    update.set(node_attr::TAGS, Value::List(tags.collect()))
}

/// Attribute names of `session:` items.
pub mod session_attr {
    /// Registration wall-clock time (ms).
    pub const CREATED_MS: &str = "created_ms";
    /// Paths of ephemeral nodes owned by the session.
    pub const EPHEMERALS: &str = "ephemerals";
    /// Heartbeat liveness flag.
    pub const ALIVE: &str = "alive";
    /// Txid of the session's most recently pushed write, stored on the
    /// session's `seq:` item ([`super::keys::session_seq`]). The
    /// follower reads it as the floor for the next allocation —
    /// per-session txids are strictly increasing (Z2) — and stamps it
    /// into the next record as `prev_txid`. Set in a multi-group tier by
    /// the session's hand-over, and by nothing else: the follower's
    /// ([`super::SystemStore::hand_over`]), once per session per wave, to
    /// the wave's highest pushed txid; or a leader's `TryCommit` of a
    /// record whose follower died before its hand-over
    /// ([`super::SystemStore::hand_over_op`]), in the one transaction
    /// with the record's commit, so only with a commit that lands. The
    /// follower's hand-overs rise because the write queue's FIFO group
    /// serializes the session's follower work; the leader's lands only
    /// if it raises both marks, and a copy of its request re-received
    /// after it is dropped at the watermark.
    pub const LAST_TXID: &str = "last_txid";
    /// Highest txid of this session whose transaction a shard-group
    /// leader has fully distributed (or terminally resolved), on the
    /// `seq:` item. The cross-shard sequencing rule: a leader holds a
    /// transaction back until `applied_txid >= prev_txid`.
    pub const APPLIED_TXID: &str = "applied_txid";
    /// Highest client request id of this session that was handed over
    /// to the leader, on the `seq:` item: set by the same hand-over as
    /// [`LAST_TXID`], after the request was pushed and before its
    /// commit, so a request at or below it is the leader's to answer
    /// (its commit landed, or the leader's `TryCommit` lands it or finds
    /// it abandoned). The follower drops any re-received delivery at or below
    /// this watermark: an at-least-once queue's duplicate (or a crash
    /// redelivery) would otherwise re-execute an unconditional write.
    /// Unlike the txid marks this resets on registration — a
    /// reincarnated session id restarts its request counter at 1.
    pub const LAST_REQUEST: &str = "last_request";
}

/// Epoch-prefixed transaction ids for the multi-leader tier.
///
/// With one leader per shard group there is no single queue whose
/// sequence numbers can serve as the global txid. Instead every shard
/// group allocates from its own epoch counter and composes
/// `txid = (epoch << GROUP_BITS) | group`:
///
/// * **global uniqueness** — the group id occupies the low bits, and each
///   group's epoch counter is strictly increasing;
/// * **per-session total order** — allocation takes a *floor* txid (the
///   session's previous txid and the locked nodes' last txids) and bumps
///   the group's epoch past the floor's epoch, Lamport-style, so any
///   causally later transaction gets a numerically larger txid even when
///   the two live on different shard groups.
pub mod txid {
    /// Low bits reserved for the shard-group id.
    pub const GROUP_BITS: u32 = 16;
    /// Maximum number of shard groups the scheme can address.
    pub const MAX_GROUPS: usize = 1 << GROUP_BITS;

    /// Composes a txid from an epoch counter value and a shard group.
    pub fn compose(epoch: u64, group: usize) -> u64 {
        debug_assert!(group < MAX_GROUPS);
        (epoch << GROUP_BITS) | group as u64
    }

    /// The epoch prefix of a txid.
    pub fn epoch_of(id: u64) -> u64 {
        id >> GROUP_BITS
    }

    /// The shard group a txid was allocated by.
    pub fn group_of(id: u64) -> usize {
        (id & ((1 << GROUP_BITS) - 1)) as usize
    }
}

/// Maximum items per multi-item transaction (DynamoDB's
/// `TransactWriteItems` cap): the nodes one epoch pops, and the chunk
/// size of the batched session-mark advancement.
pub const TRANSACT_MAX_ITEMS: usize = 25;

/// Key prefixes of the system table.
pub mod keys {
    /// Node control items.
    pub fn node(path: &str) -> String {
        format!("node:{path}")
    }
    /// Session items.
    pub fn session(id: &str) -> String {
        format!("session:{id}")
    }
    /// Watch registries.
    pub fn watch(path: &str) -> String {
        format!("watch:{path}")
    }
    /// Region epoch counters.
    pub fn epoch(region: fk_cloud::Region) -> String {
        format!("epoch:{}", region.0)
    }
    /// Per-shard-group txid epoch counters.
    pub fn txseq(group: usize) -> String {
        format!("counter:txseq:{group}")
    }
    /// Per-session sequencing marks (`last_txid` / `applied_txid`).
    /// Deliberately *not* part of the `session:` item: the marks must
    /// stay monotone across deregistration and re-registration of the
    /// same session id — a reincarnated session floors its first
    /// allocation above its previous life's txids, which is what keeps
    /// every leader's memoized lower bound sound forever.
    pub fn session_seq(id: &str) -> String {
        format!("seq:{id}")
    }
    /// The shard-group membership record (single item, strong reads).
    pub fn membership() -> String {
        "membership".to_string()
    }
}

fn kind_tag(kind: WatchKind) -> &'static str {
    match kind {
        WatchKind::Data => "data",
        WatchKind::Exists => "exists",
        WatchKind::Children => "children",
        WatchKind::Subtree => "subtree",
    }
}

/// A registered watch instance on one path × kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchInstance {
    /// Globally unique watch id.
    pub id: u64,
    /// Watch kind.
    pub kind: WatchKind,
    /// Sessions subscribed to this instance.
    pub sessions: Vec<String>,
}

/// Timed-lock maximum holding time: a lock older than this may be taken
/// over by another writer.
pub const MAX_LOCK_HOLD_MS: i64 = 5_000;

/// Watch ids one `ADD` on `counter:watch_ids` reserves: a handle draws
/// one block per this many registrations.
const WATCH_ID_BLOCK: u64 = 1_024;

/// Handle to the system table with the paper's layout on top.
#[derive(Clone)]
pub struct SystemStore {
    kv: KvStore,
    locks: TimedLockManager,
    watch_ids: AtomicCounter,
    /// The unused rest of the watch-id block this handle last reserved,
    /// shared by its clones.
    watch_block: Arc<Mutex<Range<u64>>>,
}

impl SystemStore {
    /// Wraps a KV table; locks expire after [`MAX_LOCK_HOLD_MS`].
    pub fn new(kv: KvStore) -> Self {
        SystemStore {
            locks: TimedLockManager::new(kv.clone(), MAX_LOCK_HOLD_MS),
            watch_ids: AtomicCounter::new(kv.clone(), "counter:watch_ids"),
            watch_block: Arc::new(Mutex::new(0..0)),
            kv,
        }
    }

    /// The underlying table.
    pub fn kv(&self) -> &KvStore {
        &self.kv
    }

    /// The timed-lock manager over node items.
    pub fn locks(&self) -> &TimedLockManager {
        &self.locks
    }

    /// Reads a node control item.
    pub fn get_node(&self, ctx: &Ctx, path: &str) -> Option<Item> {
        self.kv.get(ctx, &keys::node(path))
    }

    /// True if the item state says the node exists (created, not
    /// tombstoned).
    pub fn node_exists(item: Option<&Item>) -> bool {
        item.map(|i| i.contains(node_attr::CREATED) && !i.contains(node_attr::DELETED))
            .unwrap_or(false)
    }

    // ------------------------------------------------------------------
    // Txid allocation (multi-leader shard groups)
    // ------------------------------------------------------------------

    /// Allocates the next txid for `group`, Lamport-bumped past `floor`,
    /// as [`txid::compose`]`(epoch, group)` with no read. With
    /// `fe = epoch_of(floor)`, the group's epoch counter takes one
    /// `ADD 1` guarded by `value >= fe` (a missing counter passes when
    /// `fe == 0`), which returns the new value. Only a counter behind
    /// the floor fails that guard; it is then `SET` to `fe + 1`, guarded
    /// by `value < fe` (or missing), and a lost race starts over. The two
    /// guards split the counter's values, and every success strictly
    /// raises it: allocations are unique per group and above `floor`.
    pub fn alloc_txid(&self, ctx: &Ctx, group: usize, floor: u64) -> CloudResult<u64> {
        use fk_cloud::expr::Cmp;
        use fk_cloud::CloudError;
        assert!(group < txid::MAX_GROUPS, "shard group out of range");
        let key = keys::txseq(group);
        let attr = "value";
        let fe = txid::epoch_of(floor) as i64;
        let missing = || Condition::NotExists(attr.into());
        let mut at_floor = Condition::Compare(Cmp::Ge, attr.into(), Value::Num(fe));
        if fe == 0 {
            at_floor = missing().or(at_floor);
        }
        loop {
            match self
                .kv
                .update(ctx, &key, &Update::new().add(attr, 1), at_floor.clone())
            {
                Ok(out) => {
                    let epoch = out.new.num(attr).expect("the ADD wrote the counter");
                    return Ok(txid::compose(epoch as u64, group));
                }
                Err(CloudError::ConditionFailed { .. }) => {}
                Err(e) => return Err(e),
            }
            let behind = missing().or(Condition::lt(attr, fe));
            match self
                .kv
                .update(ctx, &key, &Update::new().set(attr, fe + 1), behind)
            {
                Ok(_) => return Ok(txid::compose(fe as u64 + 1, group)),
                Err(CloudError::ConditionFailed { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Removes a fully-drained tombstone item (leader cleanup after the
    /// last pending transaction pops). A *locked* tombstone stays: the
    /// delete was acknowledged before this cleanup, so a follower may
    /// already be re-creating the node on it, and purging the item would
    /// take the lock its commit is guarded on along with it.
    pub fn purge_tombstone(&self, ctx: &Ctx, path: &str) -> CloudResult<()> {
        use fk_cloud::CloudError;
        let cond = Condition::Exists(node_attr::DELETED.into())
            .and(Condition::Compare(
                fk_cloud::expr::Cmp::Eq,
                node_attr::TXQ.into(),
                Value::List(vec![]),
            ))
            .and(Condition::NotExists(fk_sync::LOCK_ATTR.into()));
        match self.kv.delete(ctx, &keys::node(path), cond) {
            Ok(_) => Ok(()),
            // More transactions pending, or one about to be.
            Err(CloudError::ConditionFailed { .. }) => Ok(()),
            Err(e) => Err(e),
        }
    }

    // ------------------------------------------------------------------
    // Sessions
    // ------------------------------------------------------------------

    /// Registers a session.
    pub fn register_session(&self, ctx: &Ctx, id: &str, now_ms: i64) -> CloudResult<()> {
        let item = Item::new()
            .with(session_attr::CREATED_MS, now_ms)
            .with(session_attr::EPHEMERALS, Vec::<Value>::new())
            .with(session_attr::ALIVE, true);
        // A `ConditionFailed` from the put is not absorbed: a duplicate
        // live registration stays an error.
        self.kv
            .put(ctx, &keys::session(id), item, Condition::ItemNotExists)?;
        // The request watermark is scoped to one session lifetime (a new
        // connection restarts its request counter at 1), unlike the txid
        // marks on the same item, which deliberately survive
        // reincarnation.
        self.kv.update(
            ctx,
            &keys::session_seq(id),
            &Update::new().remove(session_attr::LAST_REQUEST),
            Condition::Always,
        )?;
        Ok(())
    }

    /// Reads a session item.
    pub fn get_session(&self, ctx: &Ctx, id: &str) -> Option<Item> {
        self.kv.get(ctx, &keys::session(id))
    }

    /// Removes a session item (idempotent).
    pub fn remove_session(&self, ctx: &Ctx, id: &str) -> CloudResult<()> {
        use fk_cloud::CloudError;
        match self
            .kv
            .delete(ctx, &keys::session(id), Condition::ItemExists)
        {
            Ok(_) => Ok(()),
            Err(CloudError::ConditionFailed { .. }) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Adds an ephemeral node to a session's cleanup list.
    pub fn add_session_ephemeral(&self, ctx: &Ctx, id: &str, path: &str) -> CloudResult<()> {
        self.kv.update(
            ctx,
            &keys::session(id),
            &Update::new().list_append(session_attr::EPHEMERALS, vec![Value::from(path)]),
            Condition::ItemExists,
        )?;
        Ok(())
    }

    /// Removes an ephemeral node from a session's cleanup list.
    pub fn remove_session_ephemeral(&self, ctx: &Ctx, id: &str, path: &str) -> CloudResult<()> {
        use fk_cloud::CloudError;
        match self.kv.update(
            ctx,
            &keys::session(id),
            &Update::new().list_remove(session_attr::EPHEMERALS, vec![Value::from(path)]),
            Condition::ItemExists,
        ) {
            Ok(_) => Ok(()),
            Err(CloudError::ConditionFailed { .. }) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// The txid of the session's most recently pushed write (0 if none):
    /// the floor for the session's next allocation and the `prev_txid`
    /// stamped into its next record. Survives deregistration (see
    /// [`keys::session_seq`]), so a re-registered session id continues
    /// its txid chain instead of restarting below its old marks.
    pub fn session_last_txid(&self, ctx: &Ctx, id: &str) -> u64 {
        self.kv
            .get(ctx, &keys::session_seq(id))
            .and_then(|item| item.num(session_attr::LAST_TXID))
            .unwrap_or(0) as u64
    }

    /// Hands the session's pushed requests over to the leader: one
    /// update of its `seq:` item that sets [`session_attr::LAST_REQUEST`]
    /// to `request` and [`session_attr::LAST_TXID`] to `txid`, each only
    /// if non-zero; a hand-over of nothing (internal requests in a
    /// single-group tier) issues no request. The follower runs it after
    /// a wave's pushes and before their commits, and on its own for an
    /// already-committed redelivery and a `CloseSession`'s
    /// deregistration: the write queue's FIFO group serializes the
    /// session's follower work, so its marks only rise and it needs no
    /// guard. The leader's `TryCommit` hands over with
    /// [`Self::hand_over_op`] instead.
    pub fn hand_over(&self, ctx: &Ctx, id: &str, request: u64, txid: u64) -> CloudResult<()> {
        if let Some((update, _)) = hand_over_update(request, txid) {
            let key = keys::session_seq(id);
            self.kv.update(ctx, &key, &update, Condition::Always)?;
        }
        Ok(())
    }

    /// The hand-over of [`Self::hand_over`] as one item of the
    /// transaction of a leader's `TryCommit`
    /// ([`crate::commit::try_commit`]), guarded so that it lands only if
    /// every mark it sets rises: the leader may reach a record after the
    /// session's later hand-overs. Riding the commit, the marks land
    /// exactly when the commit does, so a record whose commit fails (an
    /// orphan, whose locks a re-executed copy took) publishes nothing.
    /// `None` for a hand-over of nothing.
    pub fn hand_over_op(id: &str, request: u64, txid: u64) -> Option<TransactOp> {
        let (update, rises) = hand_over_update(request, txid)?;
        Some(TransactOp::Update {
            key: keys::session_seq(id),
            update,
            condition: rises,
        })
    }

    /// The session's distribution high-water mark: the largest txid a
    /// leader has fully distributed (or terminally resolved) for it.
    /// Survives deregistration, like [`SystemStore::session_last_txid`].
    pub fn session_applied_txid(&self, ctx: &Ctx, id: &str) -> u64 {
        self.kv
            .get(ctx, &keys::session_seq(id))
            .and_then(|item| item.num(session_attr::APPLIED_TXID))
            .unwrap_or(0) as u64
    }

    /// The session's request watermark: the highest client request id
    /// handed over to the leader (0 if none; see
    /// [`session_attr::LAST_REQUEST`]). The follower drops redelivered
    /// or duplicated requests at or below it.
    pub fn session_request_watermark(&self, ctx: &Ctx, id: &str) -> u64 {
        self.kv
            .get(ctx, &keys::session_seq(id))
            .and_then(|item| item.num(session_attr::LAST_REQUEST))
            .unwrap_or(0) as u64
    }

    /// Monotonically advances the session's distribution high-water mark
    /// to `txid`. Leaders of *different* shard groups may race here after
    /// a crash redelivery, so the update is guarded to never regress; a
    /// stale advance is a no-op.
    pub fn advance_session_applied(&self, ctx: &Ctx, id: &str, txid: u64) -> CloudResult<()> {
        use fk_cloud::CloudError;
        let guard = Condition::NotExists(session_attr::APPLIED_TXID.into())
            .or(Condition::lt(session_attr::APPLIED_TXID, txid as i64));
        match self.kv.update(
            ctx,
            &keys::session_seq(id),
            &Update::new().set(session_attr::APPLIED_TXID, txid as i64),
            guard,
        ) {
            Ok(_) | Err(CloudError::ConditionFailed { .. }) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Advances many sessions' distribution high-water marks in chunked
    /// multi-item transactions instead of one conditional update per
    /// session — the epoch-coalesced session-mark path of the leader's
    /// epilogue. N sessions touched by an epoch cost ⌈N/25⌉ write
    /// requests (25 = [`TRANSACT_MAX_ITEMS`], DynamoDB's transactional
    /// cap) instead of N.
    ///
    /// Every item keeps its **own monotone guard**
    /// (`attribute_not_exists(applied) OR applied < txid`), which is what
    /// preserves the Z2 high-water-mark argument: the mark for a session
    /// can only move forward, exactly as in the per-session
    /// [`SystemStore::advance_session_applied`]. A transaction is
    /// all-or-nothing, so a single *stale* mark (a crash-redelivery race
    /// where another group already advanced further) cancels its chunk;
    /// a guard failing *means* the store already holds a mark ≥ `txid`,
    /// the exact condition the per-session path treats as a benign
    /// no-op, so the chunk falls back to plain per-session conditional
    /// updates for its remaining items — bounded cost (one cancelled
    /// transaction plus ≤ 24 cheap updates) even when *every* mark of a
    /// redelivered epoch is stale, instead of re-sending shrinking
    /// transactions. Chunks are independent and run on forked
    /// virtual-time workers, so the epilogue's wall-clock stays one
    /// storage round trip in the common race-free case.
    pub fn advance_sessions_applied_batch(
        &self,
        ctx: &Ctx,
        marks: &[(&str, u64)],
    ) -> CloudResult<()> {
        let chunks: Vec<&[(&str, u64)]> = marks.chunks(TRANSACT_MAX_ITEMS).collect();
        crate::distributor::fan_out(ctx, chunks.len(), |i, child| {
            self.advance_marks_chunk(child, chunks[i])
        })
    }

    /// One ≤ 25-item chunk of the batched mark advancement.
    fn advance_marks_chunk(&self, ctx: &Ctx, chunk: &[(&str, u64)]) -> CloudResult<()> {
        use fk_cloud::CloudError;
        match chunk {
            [] => Ok(()),
            [(id, txid)] => {
                // A single mark is cheaper as a plain conditional update
                // (transactions bill 2x per item).
                self.advance_session_applied(ctx, id, *txid)
            }
            many => {
                let ops: Vec<TransactOp> = many
                    .iter()
                    .map(|(id, txid)| TransactOp::Update {
                        key: keys::session_seq(id),
                        update: Update::new().set(session_attr::APPLIED_TXID, *txid as i64),
                        condition: Condition::NotExists(session_attr::APPLIED_TXID.into())
                            .or(Condition::lt(session_attr::APPLIED_TXID, *txid as i64)),
                    })
                    .collect();
                match self.kv.transact(ctx, &ops) {
                    Ok(()) => Ok(()),
                    Err(CloudError::TransactionCancelled { index, .. }) => {
                        // A stale mark cancelled the chunk (benign: that
                        // session's mark already sits at or past its txid).
                        // Finish the rest with parallel per-session updates
                        // whose own failures are the monotone no-op.
                        let rest: Vec<(&str, u64)> = many
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| *i != index)
                            .map(|(_, mark)| *mark)
                            .collect();
                        crate::distributor::fan_out(ctx, rest.len(), |i, child| {
                            let (id, txid) = rest[i];
                            self.advance_session_applied(child, id, txid)
                        })
                    }
                    Err(e) => Err(e),
                }
            }
        }
    }

    /// Scans all sessions (the heartbeat function's session-table scan,
    /// §3.6): a query of the `session:` items, billed by their bytes
    /// alone, so a heartbeat round costs the same however large the tree.
    pub fn list_sessions(&self, ctx: &Ctx) -> Vec<(String, Item)> {
        self.kv
            .scan_prefix(ctx, "session:")
            .into_iter()
            .filter_map(|(k, item)| k.strip_prefix("session:").map(|id| (id.to_owned(), item)))
            .collect()
    }

    // ------------------------------------------------------------------
    // Watches
    // ------------------------------------------------------------------

    /// Registers `session` on the watch instance for `path` × `kind`,
    /// creating the instance id on first use. Returns the instance id.
    /// One registry update, plus one `ADD` when the handle's block of
    /// reserved ids is spent.
    pub fn register_watch(
        &self,
        ctx: &Ctx,
        path: &str,
        kind: WatchKind,
        session: &str,
    ) -> CloudResult<u64> {
        let candidate = self.next_watch_id(ctx)?;
        let tag = kind_tag(kind);
        let id_attr = format!("{tag}_id");
        let sess_attr = format!("{tag}_sessions");
        let update = Update::new()
            .set_expr(
                id_attr.clone(),
                Operand::IfNotExists(id_attr.clone(), Box::new(Operand::lit(candidate as i64))),
            )
            .list_append(sess_attr, vec![Value::from(session)]);
        let out = self
            .kv
            .update(ctx, &keys::watch(path), &update, Condition::Always)?;
        Ok(out.new.num(&id_attr).map_or(candidate, |id| id as u64))
    }

    /// The next id of the handle's reserved block. An empty block is
    /// refilled by one `ADD` of [`WATCH_ID_BLOCK`] on
    /// `counter:watch_ids`, which reserves the ids up to the value it
    /// returns (counted as `watch_ids:block`). Every `ADD` lands on one
    /// item, so no two blocks overlap, across handles, processes and
    /// restarts; a retried `ADD` whose first reply was lost only skips
    /// a block. The lock is held across the refill, so the clones of a
    /// handle draw one block at a time.
    fn next_watch_id(&self, ctx: &Ctx) -> CloudResult<u64> {
        let mut block = self.watch_block.lock();
        if block.is_empty() {
            let end = self.watch_ids.add(ctx, WATCH_ID_BLOCK as i64)? as u64;
            self.kv.meter().watch_id_block();
            *block = end + 1 - WATCH_ID_BLOCK..end + 1;
        }
        Ok(block.next().expect("a refilled block holds ids"))
    }

    /// Reads the watch instances on `path` restricted to `kinds`.
    pub fn query_watches(&self, ctx: &Ctx, path: &str, kinds: &[WatchKind]) -> Vec<WatchInstance> {
        let Some(item) = self.kv.get(ctx, &keys::watch(path)) else {
            return Vec::new();
        };
        Self::instances_from(&item, kinds)
    }

    fn instances_from(item: &Item, kinds: &[WatchKind]) -> Vec<WatchInstance> {
        let mut out = Vec::new();
        for &kind in kinds {
            let tag = kind_tag(kind);
            let Some(id) = item.num(&format!("{tag}_id")) else {
                continue;
            };
            let sessions: Vec<String> = item
                .list(&format!("{tag}_sessions"))
                .map(|l| {
                    l.iter()
                        .filter_map(|v| v.as_str().map(str::to_owned))
                        .collect()
                })
                .unwrap_or_default();
            if !sessions.is_empty() {
                out.push(WatchInstance {
                    id: id as u64,
                    kind,
                    sessions,
                });
            }
        }
        out
    }

    /// Reads *and clears* the watch instances on `path` × `kinds` in one
    /// conditional update (ZooKeeper watches are one-shot).
    pub fn consume_watches(
        &self,
        ctx: &Ctx,
        path: &str,
        kinds: &[WatchKind],
    ) -> CloudResult<Vec<WatchInstance>> {
        use fk_cloud::CloudError;
        let mut update = Update::new();
        for &kind in kinds {
            let tag = kind_tag(kind);
            update = update
                .remove(format!("{tag}_id"))
                .remove(format!("{tag}_sessions"));
        }
        match self
            .kv
            .update(ctx, &keys::watch(path), &update, Condition::ItemExists)
        {
            Ok(out) => Ok(out
                .old
                .as_ref()
                .map(|item| Self::instances_from(item, kinds))
                .unwrap_or_default()),
            Err(CloudError::ConditionFailed { .. }) => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    /// Removes a single session from a watch instance (deregistration).
    pub fn unregister_watch(
        &self,
        ctx: &Ctx,
        path: &str,
        kind: WatchKind,
        session: &str,
    ) -> CloudResult<()> {
        use fk_cloud::CloudError;
        let tag = kind_tag(kind);
        match self.kv.update(
            ctx,
            &keys::watch(path),
            &Update::new().list_remove(format!("{tag}_sessions"), vec![Value::from(session)]),
            Condition::ItemExists,
        ) {
            Ok(_) => Ok(()),
            Err(CloudError::ConditionFailed { .. }) => Ok(()),
            Err(e) => Err(e),
        }
    }

    // ------------------------------------------------------------------
    // Epoch counters (§3.4)
    // ------------------------------------------------------------------

    /// The epoch counter of a region: watch-notification ids pending
    /// delivery while transactions commit.
    pub fn epoch(&self, region: Region) -> AtomicList {
        AtomicList::new(self.kv.clone(), keys::epoch(region))
    }

    /// Current epoch-mark set of a region as plain ids.
    pub fn epoch_marks(&self, ctx: &Ctx, region: Region) -> Vec<u64> {
        self.epoch(region)
            .read(ctx)
            .iter()
            .filter_map(|v| v.as_num().map(|n| n as u64))
            .collect()
    }

    // ------------------------------------------------------------------
    // Shard-group membership (checkpoint / state-transfer tentpole)
    // ------------------------------------------------------------------

    /// Publishes the shard-group membership record (last writer wins —
    /// membership changes are driven by one operator at a time).
    pub fn write_membership(&self, ctx: &Ctx, membership: &Membership) -> CloudResult<()> {
        let draining: Vec<Value> = membership
            .draining
            .iter()
            .map(|(group, successor)| Value::Num((group * txid::MAX_GROUPS + successor) as i64))
            .collect();
        self.kv.put(
            ctx,
            &keys::membership(),
            Item::new()
                .with(membership_attr::ACTIVE, membership.active_groups as i64)
                .with(membership_attr::DRAINING, Value::List(draining)),
            Condition::Always,
        )?;
        Ok(())
    }

    /// Reads the membership record with a strong read. `None` when no
    /// record was ever published (static single-group deployments).
    pub fn read_membership(&self, ctx: &Ctx) -> Option<Membership> {
        let item = self.kv.get(ctx, &keys::membership())?;
        let active_groups = item.num(membership_attr::ACTIVE)? as usize;
        let draining = item
            .list(membership_attr::DRAINING)
            .map(|values| {
                values
                    .iter()
                    .filter_map(Value::as_num)
                    .map(|packed| {
                        let packed = packed as usize;
                        (packed / txid::MAX_GROUPS, packed % txid::MAX_GROUPS)
                    })
                    .collect()
            })
            .unwrap_or_default();
        Some(Membership {
            active_groups,
            draining,
        })
    }
}

/// The update of a session's hand-over ([`SystemStore::hand_over`]): it
/// sets [`session_attr::LAST_REQUEST`] to `request` and
/// [`session_attr::LAST_TXID`] to `txid`, each only if non-zero; and the
/// condition that every mark it sets rises. `None` if it sets nothing.
fn hand_over_update(request: u64, txid: u64) -> Option<(Update, Condition)> {
    let marks = [
        (session_attr::LAST_REQUEST, request),
        (session_attr::LAST_TXID, txid),
    ];
    let marks = marks.into_iter().filter(|(_, mark)| *mark > 0);
    marks.fold(None, |acc, (attr, mark)| {
        let rises = Condition::NotExists(attr.into()).or(Condition::lt(attr, mark as i64));
        let (update, guard) = match acc {
            None => (Update::new(), rises),
            Some((update, guard)) => (update, Condition::and(guard, rises)),
        };
        Some((update.set(attr, mark as i64), guard))
    })
}

/// Attribute names of the membership item.
pub mod membership_attr {
    /// Number of shard groups accepting new submissions.
    pub const ACTIVE: &str = "active";
    /// Drain redirects, packed `group × MAX_GROUPS + successor`.
    pub const DRAINING: &str = "draining";
}

/// The shard-group membership record: how many groups accept new
/// submissions and which groups are draining toward a successor.
/// Followers consult it per batch to re-route submissions away from
/// draining groups while their in-flight transactions finish under the
/// Z2 hold-back ([`crate::follower`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Membership {
    /// Groups `0..active_groups` accept new submissions (minus any
    /// currently in `draining`).
    pub active_groups: usize,
    /// Drain redirects as `(group, successor)` pairs. A redirect chain
    /// (successor itself draining) is followed transitively, bounded by
    /// the chain length.
    pub draining: Vec<(usize, usize)>,
}

impl Membership {
    /// A static membership over `groups` groups with nothing draining.
    pub fn all_active(groups: usize) -> Self {
        Membership {
            active_groups: groups,
            draining: Vec::new(),
        }
    }

    /// True when `group` is currently draining.
    pub fn is_draining(&self, group: usize) -> bool {
        self.draining.iter().any(|(g, _)| *g == group)
    }

    /// Resolves where a submission hashed to `group` must actually go,
    /// following drain redirects transitively. Hop count is bounded by
    /// the number of redirects, so a (misconfigured) redirect cycle
    /// terminates at the last group reached rather than spinning.
    pub fn route(&self, group: usize) -> usize {
        let mut current = group;
        for _ in 0..=self.draining.len() {
            match self.draining.iter().find(|(g, _)| *g == current) {
                Some((_, successor)) if *successor != current => current = *successor,
                _ => return current,
            }
        }
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fk_cloud::metering::Meter;

    fn store() -> (SystemStore, Ctx) {
        let kv = KvStore::new("system", Region::US_EAST_1, Meter::new());
        (SystemStore::new(kv), Ctx::disabled())
    }

    #[test]
    fn session_lifecycle() {
        let (sys, ctx) = store();
        sys.register_session(&ctx, "s1", 100).unwrap();
        assert!(sys.get_session(&ctx, "s1").is_some());
        sys.add_session_ephemeral(&ctx, "s1", "/e1").unwrap();
        sys.add_session_ephemeral(&ctx, "s1", "/e2").unwrap();
        sys.remove_session_ephemeral(&ctx, "s1", "/e1").unwrap();
        let item = sys.get_session(&ctx, "s1").unwrap();
        let eph: Vec<&str> = item
            .list(session_attr::EPHEMERALS)
            .unwrap()
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(eph, vec!["/e2"]);
        sys.remove_session(&ctx, "s1").unwrap();
        assert!(sys.get_session(&ctx, "s1").is_none());
        // Idempotent removal.
        sys.remove_session(&ctx, "s1").unwrap();
    }

    #[test]
    fn membership_roundtrips_and_routes_through_drain_chains() {
        let (sys, ctx) = store();
        assert!(sys.read_membership(&ctx).is_none(), "never published");
        let m = Membership {
            active_groups: 8,
            draining: vec![(1, 5), (5, 6)],
        };
        sys.write_membership(&ctx, &m).unwrap();
        assert_eq!(sys.read_membership(&ctx), Some(m.clone()));
        assert!(m.is_draining(1) && m.is_draining(5) && !m.is_draining(6));
        // Redirects chain: 1 → 5 → 6; healthy groups route to themselves.
        assert_eq!(m.route(1), 6);
        assert_eq!(m.route(5), 6);
        assert_eq!(m.route(0), 0);
        // A (misconfigured) cycle terminates instead of spinning.
        let cyclic = Membership {
            active_groups: 2,
            draining: vec![(0, 1), (1, 0)],
        };
        let routed = cyclic.route(0);
        assert!(routed == 0 || routed == 1);
        assert_eq!(Membership::all_active(4).route(3), 3);
    }

    #[test]
    fn duplicate_session_rejected() {
        let (sys, ctx) = store();
        sys.register_session(&ctx, "s1", 100).unwrap();
        assert!(sys.register_session(&ctx, "s1", 200).is_err());
    }

    #[test]
    fn list_sessions_filters_prefix() {
        let (sys, ctx) = store();
        sys.register_session(&ctx, "a", 1).unwrap();
        sys.register_session(&ctx, "b", 2).unwrap();
        // Unrelated keys must not leak into the session list.
        sys.kv()
            .put(
                &ctx,
                "node:/x",
                Item::new().with("created", 1i64),
                Condition::Always,
            )
            .unwrap();
        let ids: Vec<String> = sys
            .list_sessions(&ctx)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(ids, vec!["a".to_owned(), "b".to_owned()]);
    }

    /// The heartbeat's scan reads the session items alone: its read
    /// units and its `KvScan` charge do not grow with the tree.
    #[test]
    fn list_sessions_bills_the_same_however_large_the_tree() {
        let bill = |nodes: usize| {
            let (sys, setup) = store();
            for id in ["a", "b"] {
                sys.register_session(&setup, id, 1).unwrap();
            }
            for i in 0..nodes {
                let item = Item::new().with("data", vec![0u8; 1024]);
                sys.kv()
                    .put(
                        &setup,
                        &keys::node(&format!("/n{i}")),
                        item,
                        Condition::Always,
                    )
                    .unwrap();
            }
            let model = std::sync::Arc::new(fk_cloud::LatencyModel::aws());
            let ctx = Ctx::new(model, fk_cloud::LatencyMode::Virtual, 3);
            let before = sys.kv().meter().snapshot();
            assert_eq!(sys.list_sessions(&ctx).len(), 2);
            let used = sys.kv().meter().snapshot().since(&before);
            (used.kv_read_units, used.per_op["kv_scan"], ctx.now_ns())
        };
        assert_eq!(bill(0), bill(1000));
    }

    #[test]
    fn watch_registration_shares_instance_id() {
        let (sys, ctx) = store();
        let id1 = sys
            .register_watch(&ctx, "/n", WatchKind::Data, "s1")
            .unwrap();
        let id2 = sys
            .register_watch(&ctx, "/n", WatchKind::Data, "s2")
            .unwrap();
        assert_eq!(id1, id2, "same path×kind → same instance");
        let id3 = sys
            .register_watch(&ctx, "/n", WatchKind::Children, "s1")
            .unwrap();
        assert_ne!(id1, id3, "different kind → different instance");
        let watches = sys.query_watches(&ctx, "/n", &[WatchKind::Data]);
        assert_eq!(watches.len(), 1);
        assert_eq!(watches[0].sessions, vec!["s1".to_owned(), "s2".to_owned()]);
    }

    #[test]
    fn two_handles_on_one_table_hand_out_distinct_watch_ids_past_a_block() {
        let kv = KvStore::new("system", Region::US_EAST_1, Meter::new());
        let (a, b) = (SystemStore::new(kv.clone()), SystemStore::new(kv));
        let ctx = Ctx::disabled();
        let mut ids = std::collections::HashSet::new();
        for i in 0..WATCH_ID_BLOCK + 5 {
            for (name, sys) in [("a", &a), ("b", &b)] {
                let id = sys
                    .register_watch(&ctx, &format!("/{name}{i}"), WatchKind::Data, "s")
                    .unwrap();
                assert!(ids.insert(id), "id {id} handed out twice");
            }
        }
    }

    #[test]
    fn concurrent_registrations_on_one_handle_get_distinct_watch_ids() {
        let (sys, ctx) = store();
        let ids: Vec<u64> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let (sys, ctx) = (&sys, &ctx);
                    scope.spawn(move || {
                        (0..600)
                            .map(|i| {
                                sys.register_watch(ctx, &format!("/t{t}/{i}"), WatchKind::Data, "s")
                                    .unwrap()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|worker| worker.join().unwrap())
                .collect()
        });
        let distinct: std::collections::HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), 2_400, "every registration got its own id");
        let refills = sys.kv().meter().snapshot().per_op["watch_ids:block"];
        assert_eq!(
            refills, 3,
            "2,400 ids take three blocks of {WATCH_ID_BLOCK}"
        );
    }

    #[test]
    fn a_warm_registration_is_one_kv_write_and_a_refill_adds_one() {
        let (sys, ctx) = store();
        let meter = sys.kv().meter().clone();
        let count = |since: &fk_cloud::metering::UsageSnapshot, label: &str| {
            meter
                .snapshot()
                .since(since)
                .per_op
                .get(label)
                .copied()
                .unwrap_or(0)
        };
        for i in 0..=WATCH_ID_BLOCK {
            let before = meter.snapshot();
            sys.register_watch(&ctx, &format!("/n{i}"), WatchKind::Data, "s")
                .unwrap();
            let refill = i % WATCH_ID_BLOCK == 0;
            assert_eq!(
                count(&before, "kv_write"),
                1 + u64::from(refill),
                "registration {i}"
            );
            assert_eq!(
                count(&before, "watch_ids:block"),
                u64::from(refill),
                "registration {i}"
            );
        }
    }

    #[test]
    fn consume_watches_is_one_shot() {
        let (sys, ctx) = store();
        sys.register_watch(&ctx, "/n", WatchKind::Data, "s1")
            .unwrap();
        sys.register_watch(&ctx, "/n", WatchKind::Exists, "s2")
            .unwrap();
        let fired = sys
            .consume_watches(&ctx, "/n", &[WatchKind::Data, WatchKind::Exists])
            .unwrap();
        assert_eq!(fired.len(), 2);
        // Second consume returns nothing.
        assert!(sys
            .consume_watches(&ctx, "/n", &[WatchKind::Data, WatchKind::Exists])
            .unwrap()
            .is_empty());
        assert!(sys.query_watches(&ctx, "/n", &[WatchKind::Data]).is_empty());
    }

    #[test]
    fn consume_on_unwatched_path_is_empty() {
        let (sys, ctx) = store();
        assert!(sys
            .consume_watches(&ctx, "/none", &[WatchKind::Data])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn unregister_watch_removes_only_that_session() {
        let (sys, ctx) = store();
        sys.register_watch(&ctx, "/n", WatchKind::Data, "s1")
            .unwrap();
        sys.register_watch(&ctx, "/n", WatchKind::Data, "s2")
            .unwrap();
        sys.unregister_watch(&ctx, "/n", WatchKind::Data, "s1")
            .unwrap();
        let w = sys.query_watches(&ctx, "/n", &[WatchKind::Data]);
        assert_eq!(w[0].sessions, vec!["s2".to_owned()]);
    }

    #[test]
    fn txid_compose_roundtrip() {
        let id = txid::compose(42, 7);
        assert_eq!(txid::epoch_of(id), 42);
        assert_eq!(txid::group_of(id), 7);
        assert!(
            txid::compose(42, 7) < txid::compose(43, 0),
            "epoch dominates"
        );
    }

    #[test]
    fn alloc_txid_is_unique_and_monotone_per_group() {
        let (sys, ctx) = store();
        let a = sys.alloc_txid(&ctx, 0, 0).unwrap();
        let b = sys.alloc_txid(&ctx, 0, 0).unwrap();
        let c = sys.alloc_txid(&ctx, 1, 0).unwrap();
        assert!(b > a, "per-group counter strictly increases");
        assert_ne!(a, c, "different groups never collide");
        assert_eq!(txid::group_of(a), 0);
        assert_eq!(txid::group_of(c), 1);
    }

    #[test]
    fn alloc_txid_lamport_bumps_past_floor() {
        let (sys, ctx) = store();
        // Group 5 is far ahead; group 0 must jump past its txid when the
        // floor says the session (or node) already observed it.
        let mut ahead = 0;
        for _ in 0..10 {
            ahead = sys.alloc_txid(&ctx, 5, 0).unwrap();
        }
        let behind = sys.alloc_txid(&ctx, 0, ahead).unwrap();
        assert!(behind > ahead, "floored allocation exceeds the floor");
        // And stays monotone afterwards without a floor.
        let next = sys.alloc_txid(&ctx, 0, 0).unwrap();
        assert!(next > behind);
    }

    /// A counter at or above the floor's epoch allocates with one
    /// conditional update and no read.
    #[test]
    fn alloc_txid_at_or_above_the_floor_is_one_conditional_add() {
        let (sys, ctx) = store();
        let meter = sys.kv().meter().clone();
        // A missing counter under a zero floor, then a counter at the
        // floor's epoch, then one above it.
        for (floor, epoch) in [(0, 1), (txid::compose(1, 1), 2), (txid::compose(1, 0), 3)] {
            let before = meter.snapshot();
            let id = sys.alloc_txid(&ctx, 0, floor).unwrap();
            let used = meter.snapshot().since(&before);
            assert_eq!(id, txid::compose(epoch, 0), "floor {floor}");
            assert_eq!(used.per_op.get("kv_read"), None, "floor {floor}: no read");
            assert_eq!(
                used.per_op.get("kv_write"),
                Some(&1),
                "floor {floor}: one ADD"
            );
        }
    }

    /// A counter behind the floor's epoch, or a missing one under a
    /// non-zero floor, fails the ADD's guard and is set to the floor's
    /// epoch plus one.
    #[test]
    fn alloc_txid_behind_the_floor_takes_the_floors_epoch_plus_one() {
        let (sys, ctx) = store();
        let meter = sys.kv().meter().clone();
        sys.alloc_txid(&ctx, 1, 0).unwrap();
        // Group 0's counter is missing; group 1's is at epoch 1.
        for (group, floor_epoch) in [(0, 7), (1, 9)] {
            let floor = txid::compose(floor_epoch, 1 - group);
            let before = meter.snapshot();
            let id = sys.alloc_txid(&ctx, group, floor).unwrap();
            let used = meter.snapshot().since(&before);
            assert_eq!(id, txid::compose(floor_epoch + 1, group), "group {group}");
            assert_eq!(used.per_op.get("kv_read"), None, "group {group}: no read");
            assert_eq!(
                used.per_op.get("kv_write"),
                Some(&2),
                "group {group}: the failed ADD, then the SET"
            );
        }
        // Both counters now sit at their floor's epoch plus one.
        assert_eq!(sys.alloc_txid(&ctx, 0, 0).unwrap(), txid::compose(9, 0));
        assert_eq!(sys.alloc_txid(&ctx, 1, 0).unwrap(), txid::compose(11, 1));
    }

    /// Allocators racing over two groups, each flooring every allocation
    /// at its own previous txid and at a random one, as a session's
    /// follower does: every txid is unique, above its floor's epoch, and
    /// each allocator's txids increase.
    #[test]
    fn alloc_txid_races_stay_unique_above_the_floor_and_ordered() {
        const THREADS: u64 = 6;
        const PER_THREAD: usize = 200;
        let (sys, _) = store();
        let runs: Vec<Vec<u64>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let sys = &sys;
                    s.spawn(move || {
                        let ctx = Ctx::disabled();
                        let mut rng = 0x9E37_79B9_7F4A_7C15 ^ (t + 1);
                        let mut prev = 0;
                        let mut txids = Vec::with_capacity(PER_THREAD);
                        for i in 0..PER_THREAD {
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            let random = txid::compose(rng % 400, (rng >> 32) as usize % 2);
                            let floor = prev.max(random);
                            let id = sys.alloc_txid(&ctx, i % 2, floor).unwrap();
                            assert!(
                                txid::epoch_of(id) > txid::epoch_of(floor),
                                "{id} above the floor {floor}"
                            );
                            txids.push(id);
                            prev = id;
                        }
                        txids
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for txids in &runs {
            assert!(txids.windows(2).all(|w| w[0] < w[1]), "increasing");
        }
        let distinct: std::collections::HashSet<u64> = runs.iter().flatten().copied().collect();
        assert_eq!(distinct.len(), THREADS as usize * PER_THREAD, "unique");
    }

    /// A transient fault on the ADD rolls before it applies, so the
    /// store's retry of the `ADD` skips no value.
    #[test]
    fn alloc_txid_retried_after_a_fault_skips_no_value() {
        use fk_cloud::chaos::{Chaos, FaultPlan, FaultSpec};
        let (sys, ctx) = store();
        let first = sys.alloc_txid(&ctx, 0, 0).unwrap();
        let mut plan = FaultPlan::disabled();
        plan.kv_error = FaultSpec::new(1.0, 1);
        sys.kv().install_chaos(Chaos::from_plan(plan).unwrap());
        let meter = sys.kv().meter().clone();
        let retried = sys.alloc_txid(&ctx, 0, 0).unwrap();
        let counts = meter.snapshot().per_op;
        assert_eq!(
            counts.get("fault:kv_error"),
            Some(&1),
            "the ADD failed once"
        );
        assert_eq!(counts.get("retry:kv.update"), Some(&1));
        assert_eq!(retried, txid::compose(txid::epoch_of(first) + 1, 0));
    }

    #[test]
    fn session_hwm_is_monotone_and_survives_reincarnation() {
        let (sys, ctx) = store();
        sys.register_session(&ctx, "s", 0).unwrap();
        assert_eq!(sys.session_last_txid(&ctx, "s"), 0);
        assert_eq!(sys.session_applied_txid(&ctx, "s"), 0);
        sys.hand_over(&ctx, "s", 0, 100).unwrap();
        assert_eq!(sys.session_last_txid(&ctx, "s"), 100);
        sys.advance_session_applied(&ctx, "s", 100).unwrap();
        // A stale advance (crash-redelivery race) never regresses.
        sys.advance_session_applied(&ctx, "s", 50).unwrap();
        assert_eq!(sys.session_applied_txid(&ctx, "s"), 100);
        // The marks outlive the session item: a re-registered id must
        // continue its chain above the old marks, or a leader's memoized
        // lower bound from the previous life could bypass the Z2
        // hold-back for the new one.
        sys.remove_session(&ctx, "s").unwrap();
        assert!(sys.get_session(&ctx, "s").is_none());
        assert_eq!(sys.session_last_txid(&ctx, "s"), 100);
        assert_eq!(sys.session_applied_txid(&ctx, "s"), 100);
        sys.register_session(&ctx, "s", 1).unwrap();
        assert_eq!(
            sys.session_last_txid(&ctx, "s"),
            100,
            "reincarnation floors on the previous life's marks"
        );
    }

    #[test]
    fn batched_mark_advance_is_monotone_and_chunked() {
        let (sys, ctx) = store();
        let meter = sys.kv().meter().clone();
        // 64 sessions, one epoch: the marks land in ⌈64/25⌉ = 3 write
        // requests instead of 64 conditional updates.
        let ids: Vec<String> = (0..64).map(|i| format!("s{i}")).collect();
        let marks: Vec<(&str, u64)> = ids.iter().map(|id| (id.as_str(), 100)).collect();
        let before = meter.snapshot();
        sys.advance_sessions_applied_batch(&ctx, &marks).unwrap();
        let diff = meter.snapshot().since(&before);
        let write_requests = diff.per_op.get("kv_transact").copied().unwrap_or(0)
            + diff.per_op.get("kv_write").copied().unwrap_or(0);
        assert_eq!(write_requests, 3, "chunked: 64 marks → 3 transactions");
        for id in &ids {
            assert_eq!(sys.session_applied_txid(&ctx, id), 100);
        }
    }

    #[test]
    fn batched_mark_advance_skips_stale_marks_without_blocking_fresh() {
        let (sys, ctx) = store();
        // s1 is already ahead (another group's leader advanced it); its
        // stale entry must not cancel the fresh ones in the same chunk.
        sys.advance_session_applied(&ctx, "s1", 500).unwrap();
        sys.advance_sessions_applied_batch(&ctx, &[("s0", 100), ("s1", 100), ("s2", 100)])
            .unwrap();
        assert_eq!(sys.session_applied_txid(&ctx, "s0"), 100);
        assert_eq!(sys.session_applied_txid(&ctx, "s1"), 500, "never regresses");
        assert_eq!(sys.session_applied_txid(&ctx, "s2"), 100);
        // All stale: a pure no-op.
        sys.advance_sessions_applied_batch(&ctx, &[("s0", 50), ("s1", 50), ("s2", 50)])
            .unwrap();
        assert_eq!(sys.session_applied_txid(&ctx, "s0"), 100);
        // Empty and singleton batches work (singleton takes the plain
        // conditional-update path).
        sys.advance_sessions_applied_batch(&ctx, &[]).unwrap();
        sys.advance_sessions_applied_batch(&ctx, &[("s0", 200)])
            .unwrap();
        assert_eq!(sys.session_applied_txid(&ctx, "s0"), 200);
    }

    #[test]
    fn epoch_marks_roundtrip() {
        let (sys, ctx) = store();
        let epoch = sys.epoch(Region::US_EAST_1);
        epoch
            .append(&ctx, vec![Value::Num(11), Value::Num(12)])
            .unwrap();
        assert_eq!(sys.epoch_marks(&ctx, Region::US_EAST_1), vec![11, 12]);
        epoch.remove(&ctx, vec![Value::Num(11)]).unwrap();
        assert_eq!(sys.epoch_marks(&ctx, Region::US_EAST_1), vec![12]);
        // Regions are independent.
        assert!(sys.epoch_marks(&ctx, Region::US_WEST_2).is_empty());
    }

    #[test]
    fn node_existence_semantics() {
        let (sys, ctx) = store();
        assert!(!SystemStore::node_exists(None));
        let locked_only = Item::new().with("_lock_ts", 5i64);
        assert!(!SystemStore::node_exists(Some(&locked_only)));
        let created = Item::new().with(node_attr::CREATED, 3i64);
        assert!(SystemStore::node_exists(Some(&created)));
        let tombstone = Item::new()
            .with(node_attr::CREATED, 3i64)
            .with(node_attr::DELETED, true);
        assert!(!SystemStore::node_exists(Some(&tombstone)));
        drop((sys, ctx));
    }

    #[test]
    fn object_tags_round_trip_floored_by_the_children_txid() {
        use crate::user_store::NodeRecord;
        let (sys, ctx) = store();
        let key = keys::node("/n");
        let update = record_tags(&[7, 0], Update::new().set(node_attr::CHILDREN_TXID, 30i64));
        sys.kv()
            .update(&ctx, &key, &update, Condition::Always)
            .unwrap();
        let read = ObjTags::of(sys.get_node(&ctx, "/n").as_ref());
        assert_eq!((read.floor, &read.tags[..]), (30, &[7, 0][..]));
        assert!(!read.is_empty());

        let record = |txid: u64| NodeRecord {
            path: "/n".into(),
            data: Default::default(),
            created_txid: 1,
            modified_txid: txid,
            version: 1,
            children: Default::default(),
            children_txid: txid,
            ephemeral_owner: None,
            epoch_marks: Default::default(),
        };
        assert_eq!(read.tag_for(0, &record(31)), Some(7));
        assert_eq!(read.tag_for(0, &record(30)), Some(7), "the floor itself");
        assert_eq!(read.tag_for(0, &record(29)), None, "below the floor");
        assert_eq!(read.tag_for(1, &record(31)), None, "no tag in region 1");
        assert_eq!(read.tag_for(2, &record(31)), None, "no region 2");

        // Nothing to record removes the attribute.
        let update = record_tags(&[0, 0], Update::new());
        sys.kv()
            .update(&ctx, &key, &update, Condition::Always)
            .unwrap();
        let item = sys.get_node(&ctx, "/n").unwrap();
        assert!(!item.contains(node_attr::TAGS));
        assert!(ObjTags::of(Some(&item)).is_empty());
        assert!(ObjTags::of(None).is_empty());
    }

    #[test]
    fn purge_tombstone_requires_drained_txq() {
        let (sys, ctx) = store();
        let key = keys::node("/t");
        sys.kv()
            .put(
                &ctx,
                &key,
                Item::new()
                    .with(node_attr::CREATED, 1i64)
                    .with(node_attr::DELETED, true)
                    .with(node_attr::TXQ, vec![Value::Num(9)]),
                Condition::Always,
            )
            .unwrap();
        sys.purge_tombstone(&ctx, "/t").unwrap();
        assert!(sys.get_node(&ctx, "/t").is_some(), "txq non-empty → keep");
        sys.kv()
            .update(
                &ctx,
                &key,
                &Update::new().list_pop_front(node_attr::TXQ, 1),
                Condition::Always,
            )
            .unwrap();
        sys.purge_tombstone(&ctx, "/t").unwrap();
        assert!(sys.get_node(&ctx, "/t").is_none());
    }
}
