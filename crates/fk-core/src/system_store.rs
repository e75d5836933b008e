//! System storage layout (§3.3).
//!
//! "System storage contains the current timestamp, all active sessions,
//! and the list of all data nodes to allow locking by follower functions."
//! One key-value table holds:
//!
//! * `node:<path>` — per-node control item: creation/modification txids,
//!   data-version counter, children list, sequential-name counter,
//!   ephemeral owner, the per-node pending-transaction queue (`txq`,
//!   Algorithm 2 ➊/➎) and the timed-lock timestamp. **No node payload** —
//!   data travels through the leader queue to the user store, which is
//!   why the paper's commit latency is flat in node size (Table 3).
//! * `session:<id>` — active sessions and their ephemeral nodes.
//! * `watch:<path>` — watch instances (one id per path × kind, shared by
//!   all subscribed sessions, §3.4).
//! * `epoch:<region>` — the region epoch counters: ids of watch
//!   notifications still in flight (§3.4).
//! * `counter:*` — atomic counters (watch-instance ids, committed txid).

use crate::api::WatchKind;
use fk_cloud::expr::{Condition, Operand, Update};
use fk_cloud::kvstore::KvStore;
use fk_cloud::trace::Ctx;
use fk_cloud::value::{Item, Value};
use fk_cloud::{CloudResult, Consistency, Region};
use fk_sync::{AtomicCounter, AtomicList, TimedLockManager};

/// Attribute names of `node:` items.
pub mod node_attr {
    /// Creation txid; present iff the node exists.
    pub const CREATED: &str = "created";
    /// Last-modification txid (mzxid).
    pub const VERSION: &str = "version";
    /// Data-version counter (ZooKeeper `version`).
    pub const VCOUNT: &str = "vcount";
    /// Children names.
    pub const CHILDREN: &str = "children";
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
}

/// Attribute names of `session:` items.
pub mod session_attr {
    /// Registration wall-clock time (ms).
    pub const CREATED_MS: &str = "created_ms";
    /// Paths of ephemeral nodes owned by the session.
    pub const EPHEMERALS: &str = "ephemerals";
    /// Heartbeat liveness flag.
    pub const ALIVE: &str = "alive";
    /// Txid of the session's most recently pushed (committed-or-handed-
    /// over) write, stored on the session's `seq:` item
    /// ([`super::keys::session_seq`]). The follower reads it as the
    /// floor for the next allocation — per-session txids are strictly
    /// increasing (Z2) — and stamps it into the next record as
    /// `prev_txid`.
    pub const LAST_TXID: &str = "last_txid";
    /// Highest txid of this session whose transaction a shard-group
    /// leader has fully distributed (or terminally resolved), on the
    /// `seq:` item. The cross-shard sequencing rule: a leader holds a
    /// transaction back until `applied_txid >= prev_txid`.
    pub const APPLIED_TXID: &str = "applied_txid";
    /// Highest client request id of this session whose commit has
    /// executed, on the `seq:` item. Set *inside* the commit transaction
    /// (an unguarded [`crate::messages::CommitItem`]), so it advances
    /// exactly when the write's effects land — whether the follower or a
    /// repairing leader ran the commit. The follower drops any delivery
    /// at or below this watermark: an at-least-once queue's duplicate
    /// (or a crash redelivery of a fully committed batch) would
    /// otherwise re-execute an unconditional write. Unlike the txid
    /// marks this resets on registration — a reincarnated session id
    /// restarts its request counter at 1.
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
/// `TransactWriteItems` cap), the chunk size of the batched session-mark
/// advancement.
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

/// Handle to the system table with the paper's layout on top.
#[derive(Clone)]
pub struct SystemStore {
    kv: KvStore,
    locks: TimedLockManager,
    watch_ids: AtomicCounter,
    committed: AtomicCounter,
}

impl SystemStore {
    /// Wraps a KV table; locks expire after `max_lock_hold_ms`.
    pub fn new(kv: KvStore, max_lock_hold_ms: i64) -> Self {
        SystemStore {
            locks: TimedLockManager::new(kv.clone(), max_lock_hold_ms),
            watch_ids: AtomicCounter::new(kv.clone(), "counter:watch_ids"),
            committed: AtomicCounter::new(kv.clone(), "counter:committed_txid"),
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

    /// The highest txid the leader has fully distributed (drives the
    /// client's MRD bookkeeping).
    pub fn committed_txid(&self) -> &AtomicCounter {
        &self.committed
    }

    /// Reads a node control item.
    pub fn get_node(&self, ctx: &Ctx, path: &str) -> Option<Item> {
        self.kv.get(ctx, &keys::node(path), Consistency::Strong)
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

    /// Allocates the next txid for `group`, Lamport-bumped past `floor`:
    /// the group's epoch counter advances to
    /// `max(current, epoch_of(floor)) + 1` in one conditional update, and
    /// the result is [`txid::compose`]`(epoch, group)`. Optimistic
    /// concurrency: a lost race re-reads and retries, exactly like a
    /// DynamoDB conditional-write loop.
    pub fn alloc_txid(&self, ctx: &Ctx, group: usize, floor: u64) -> CloudResult<u64> {
        use fk_cloud::CloudError;
        assert!(group < txid::MAX_GROUPS, "shard group out of range");
        let key = keys::txseq(group);
        let attr = "value";
        loop {
            let current = self
                .kv
                .get(ctx, &key, Consistency::Strong)
                .and_then(|item| item.num(attr))
                .unwrap_or(0) as u64;
            let next = current.max(txid::epoch_of(floor)) + 1;
            let guard = if current == 0 {
                Condition::NotExists(attr.into()).or(Condition::eq(attr, current as i64))
            } else {
                Condition::eq(attr, current as i64)
            };
            match self
                .kv
                .update(ctx, &key, &Update::new().set(attr, next as i64), guard)
            {
                Ok(_) => return Ok(txid::compose(next, group)),
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
        // Each leg retries transient faults internally (fault points roll
        // before any mutation, so a failed attempt landed nothing). A
        // `ConditionFailed` from the put is *not* retried or absorbed: a
        // duplicate live registration stays an error.
        use fk_cloud::retry::{with_retry, RetryPolicy};
        with_retry(
            ctx,
            self.kv.meter(),
            &RetryPolicy::standard(),
            "session.register",
            || {
                self.kv.put(
                    ctx,
                    &keys::session(id),
                    item.clone(),
                    Condition::ItemNotExists,
                )
            },
        )?;
        // The request watermark is scoped to one session lifetime (a new
        // connection restarts its request counter at 1), unlike the txid
        // marks on the same item, which deliberately survive
        // reincarnation.
        with_retry(
            ctx,
            self.kv.meter(),
            &RetryPolicy::standard(),
            "session.watermark_reset",
            || {
                self.kv.update(
                    ctx,
                    &keys::session_seq(id),
                    &Update::new().remove(session_attr::LAST_REQUEST),
                    Condition::Always,
                )
            },
        )?;
        Ok(())
    }

    /// Reads a session item.
    pub fn get_session(&self, ctx: &Ctx, id: &str) -> Option<Item> {
        self.kv.get(ctx, &keys::session(id), Consistency::Strong)
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
            .get(ctx, &keys::session_seq(id), Consistency::Strong)
            .and_then(|item| item.num(session_attr::LAST_TXID))
            .unwrap_or(0) as u64
    }

    /// Records that the session's write with `id` was pushed and
    /// committed (or handed over to the leader). Called by the follower,
    /// whose invocations for one session are serialized by the write
    /// queue's FIFO group, so a plain set is monotone.
    pub fn record_session_push(&self, ctx: &Ctx, id: &str, txid: u64) -> CloudResult<()> {
        self.kv.update(
            ctx,
            &keys::session_seq(id),
            &Update::new().set(session_attr::LAST_TXID, txid as i64),
            Condition::Always,
        )?;
        Ok(())
    }

    /// The session's distribution high-water mark: the largest txid a
    /// leader has fully distributed (or terminally resolved) for it.
    /// Survives deregistration, like [`SystemStore::session_last_txid`].
    pub fn session_applied_txid(&self, ctx: &Ctx, id: &str) -> u64 {
        self.kv
            .get(ctx, &keys::session_seq(id), Consistency::Strong)
            .and_then(|item| item.num(session_attr::APPLIED_TXID))
            .unwrap_or(0) as u64
    }

    /// The session's committed request watermark: the highest client
    /// request id whose commit transaction has executed (0 if none).
    /// Advanced by the commit itself (see
    /// [`session_attr::LAST_REQUEST`]); the follower drops redelivered
    /// or duplicated requests at or below it.
    pub fn session_request_watermark(&self, ctx: &Ctx, id: &str) -> u64 {
        self.kv
            .get(ctx, &keys::session_seq(id), Consistency::Strong)
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
        use fk_cloud::TransactOp;
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

    /// Scans all sessions (the heartbeat function's table scan, §5.3.3).
    pub fn list_sessions(&self, ctx: &Ctx) -> Vec<(String, Item)> {
        self.kv
            .scan(ctx)
            .into_iter()
            .filter_map(|(k, item)| k.strip_prefix("session:").map(|id| (id.to_owned(), item)))
            .collect()
    }

    // ------------------------------------------------------------------
    // Watches
    // ------------------------------------------------------------------

    /// Registers `session` on the watch instance for `path` × `kind`,
    /// creating the instance id on first use. Returns the instance id.
    pub fn register_watch(
        &self,
        ctx: &Ctx,
        path: &str,
        kind: WatchKind,
        session: &str,
    ) -> CloudResult<u64> {
        let candidate = self.watch_ids.increment(ctx)?;
        let tag = kind_tag(kind);
        let id_attr = format!("{tag}_id");
        let sess_attr = format!("{tag}_sessions");
        let update = Update::new()
            .set_expr(
                id_attr.clone(),
                Operand::IfNotExists(id_attr.clone(), Box::new(Operand::lit(candidate))),
            )
            .list_append(sess_attr, vec![Value::from(session)]);
        let out = self
            .kv
            .update(ctx, &keys::watch(path), &update, Condition::Always)?;
        Ok(out.new.num(&id_attr).unwrap_or(candidate) as u64)
    }

    /// Reads the watch instances on `path` restricted to `kinds`.
    pub fn query_watches(&self, ctx: &Ctx, path: &str, kinds: &[WatchKind]) -> Vec<WatchInstance> {
        let Some(item) = self.kv.get(ctx, &keys::watch(path), Consistency::Strong) else {
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
        let item = self.kv.get(ctx, &keys::membership(), Consistency::Strong)?;
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
        (SystemStore::new(kv, 5000), Ctx::disabled())
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

    #[test]
    fn session_hwm_is_monotone_and_survives_reincarnation() {
        let (sys, ctx) = store();
        sys.register_session(&ctx, "s", 0).unwrap();
        assert_eq!(sys.session_last_txid(&ctx, "s"), 0);
        assert_eq!(sys.session_applied_txid(&ctx, "s"), 0);
        sys.record_session_push(&ctx, "s", 100).unwrap();
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
