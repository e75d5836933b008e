//! Execution of system-storage commits.
//!
//! A [`SystemCommit`] describes the conditional writes that commit a
//! transaction to system storage: one update per node item it touches,
//! each guarded by the item's timed-lock timestamp, so an expired and
//! re-acquired lock makes the whole commit fail atomically, and the
//! request is reported as failed without corrupting newer state. A
//! one-node write commits with one conditional update (the paper's
//! commit); a create or delete is a node+parent transaction.
//!
//! A commit carries only node items: the session's marks are handed
//! over before it ([`crate::system_store::SystemStore::hand_over`]). The
//! leader, finding a node uncommitted (Algorithm 2 ➋), runs
//! [`try_commit`] from the pushed record, which makes a follower crash
//! anywhere after the push harmless.

use crate::messages::{CommitItem, SystemCommit};
use crate::system_store::{keys, node_attr, record_tags};
use fk_cloud::expr::{Condition, Update};
use fk_cloud::kvstore::{KvStore, TransactOp};
use fk_cloud::objectstore::Tag;
use fk_cloud::trace::Ctx;
use fk_cloud::value::{Item, Value};
use fk_cloud::{CloudError, CloudResult};
use fk_sync::LOCK_ATTR;

fn item_update(item: &CommitItem, txid: u64) -> Update {
    let mut update = Update::new();
    for (attr, value) in &item.sets {
        update = update.set(attr.clone(), value.to_value(txid));
    }
    for (attr, value) in &item.appends {
        let values = match value.to_value(txid) {
            Value::List(l) => l,
            single => vec![single],
        };
        update = update.list_append(attr.clone(), values);
    }
    for attr in &item.removes {
        update = update.remove(attr.clone());
    }
    // Committing releases the lock in the same write (Algorithm 1 ➃).
    update.remove(LOCK_ATTR)
}

/// The commit's items as transaction operations, guarded by their locks.
fn item_ops(commit: &SystemCommit, txid: u64) -> impl Iterator<Item = TransactOp> + '_ {
    commit.items.iter().map(move |item| TransactOp::Update {
        key: item.key.clone(),
        update: item_update(item, txid),
        condition: Condition::eq(LOCK_ATTR, item.lock_ts),
    })
}

/// Executes the commit atomically: a single conditional update for
/// single-item transactions (the common `set_data` case — one write unit),
/// or a multi-item transaction for operations that touch the parent too
/// (create/delete — Z1's all-or-nothing requirement).
pub fn execute(commit: &SystemCommit, txid: u64, ctx: &Ctx, kv: &KvStore) -> CloudResult<()> {
    one_write(kv, ctx, &item_ops(commit, txid).collect::<Vec<_>>())
}

/// The leader's `TryCommit` (Algorithm 2 ➋): the session's guarded
/// hand-over ([`crate::system_store::SystemStore::hand_over_op`]) and the
/// record's commit in one transaction, so the marks land exactly when
/// the commit does. If the hand-over's guard fails, the session handed
/// the request over already: the commit runs alone.
pub fn try_commit(
    commit: &SystemCommit,
    txid: u64,
    hand_over: Option<TransactOp>,
    ctx: &Ctx,
    kv: &KvStore,
) -> CloudResult<()> {
    let handed = hand_over.is_some();
    let ops: Vec<TransactOp> = hand_over
        .into_iter()
        .chain(item_ops(commit, txid))
        .collect();
    match one_write(kv, ctx, &ops) {
        Err(CloudError::TransactionCancelled { index: 0, .. }) if handed => {
            execute(commit, txid, ctx, kv)
        }
        result => result,
    }
}

/// Applies `ops` as one update, or as one transaction if there are more.
fn one_write(kv: &KvStore, ctx: &Ctx, ops: &[TransactOp]) -> CloudResult<()> {
    match ops {
        [] => Ok(()),
        [TransactOp::Update {
            key,
            update,
            condition,
        }] => kv.update(ctx, key, update, condition.clone()).map(drop),
        _ => kv.transact(ctx, ops),
    }
}

/// One node's share of an epoch's pops.
#[derive(Debug, Clone, Copy)]
pub struct Pop<'a> {
    /// The node.
    pub path: &'a str,
    /// The txids to pop off its `txq`, in queue order.
    pub txids: &'a [u64],
    /// The object tags the epoch's write of the node left (one per
    /// region), which the update that pops `txids` records
    /// ([`record_tags`]).
    pub tags: &'a [Tag],
    /// The entries of the node's pending children log the epoch folded
    /// into its list ([`crate::system_store::ChildEntry`]), removed by
    /// value, idempotently.
    pub folded: &'a [Value],
}

impl Pop<'_> {
    /// True if the pop changes nothing.
    fn is_empty(&self) -> bool {
        self.txids.is_empty() && self.folded.is_empty()
    }
}

/// The txids in a node item's pending-transaction queue, in queue
/// order.
pub fn txq_of(item: Option<&Item>) -> Vec<u64> {
    let txq = item.and_then(|item| item.list(node_attr::TXQ));
    let txids = txq.unwrap_or_default().iter().filter_map(Value::as_num);
    txids.map(|txid| txid as u64).collect()
}

/// Pops an epoch's transactions off their nodes' pending-transaction
/// queues (Algorithm 2 ➎) in **one** conditional write, as [`execute`]
/// commits them: one node's pop is a single update, more are one
/// transaction. Each node's pop takes its txids off the front of its
/// `txq`, guarded by the queue head, leaves its tags on record
/// ([`record_tags`]) and removes its folded children-log entries. The
/// leader applies a record only once it heads the `txq` of every node it
/// mutates, so the txids head their queues; a stale head cancels the
/// whole write, touching nothing, and the epoch fails retryably. No
/// record is ever popped off some of its nodes and not the others.
pub fn pop_pending(kv: &KvStore, ctx: &Ctx, pops: &[Pop<'_>]) -> CloudResult<()> {
    let pops = pops.iter().filter(|pop| !pop.is_empty());
    let ops: Vec<TransactOp> = pops
        .map(|pop| TransactOp::Update {
            key: keys::node(pop.path),
            update: pop_update(pop),
            condition: pop_guard(pop),
        })
        .collect();
    one_write(kv, ctx, &ops)
}

/// The update of `pop`: pop its txids off the front of the node's `txq`
/// and record its tags (if it pops any), and remove its folded
/// children-log entries.
fn pop_update(pop: &Pop<'_>) -> Update {
    let mut update = Update::new();
    if !pop.txids.is_empty() {
        update = update.list_pop_front(node_attr::TXQ, pop.txids.len());
        update = record_tags(pop.tags, update);
    }
    if !pop.folded.is_empty() {
        update = update.list_remove(node_attr::PENDING_CHILDREN, pop.folded.to_vec());
    }
    update
}

/// The guard of `pop`: its first txid heads the node's `txq`. A pop of
/// no txid only removes entries, which is idempotent; its guard only
/// keeps the update from recreating an item a tombstone purge removed.
fn pop_guard(pop: &Pop<'_>) -> Condition {
    match pop.txids.first() {
        Some(head) => Condition::ListHeadEq(node_attr::TXQ.into(), Value::Num(*head as i64)),
        None => Condition::ItemExists,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::SerValue;
    use fk_cloud::metering::Meter;
    use fk_cloud::value::{Item, Value};
    use fk_cloud::CloudError;
    use fk_cloud::Region;
    use fk_sync::TimedLockManager;

    /// No object tags to record.
    const NONE: &[Tag] = &[];

    /// A pop of `txids` that records `tags` and folds no children entry.
    fn pop<'a>(path: &'a str, txids: &'a [u64], tags: &'a [Tag]) -> Pop<'a> {
        Pop {
            path,
            txids,
            tags,
            folded: &[],
        }
    }

    fn setup() -> (KvStore, TimedLockManager, Ctx) {
        let kv = KvStore::new("sys", Region::US_EAST_1, Meter::new());
        let locks = TimedLockManager::new(kv.clone(), 1000);
        (kv, locks, Ctx::disabled())
    }

    fn commit_item(key: &str, lock_ts: i64) -> CommitItem {
        CommitItem {
            key: key.into(),
            lock_ts,
            sets: vec![("version".into(), SerValue::Txid)],
            appends: vec![("txq".into(), SerValue::TxidList)],
            removes: vec![],
        }
    }

    #[test]
    fn single_item_commit_applies_and_unlocks() {
        let (kv, locks, ctx) = setup();
        let acq = locks.acquire(&ctx, "node:/a", 100).unwrap();
        let commit = SystemCommit {
            items: vec![commit_item("node:/a", acq.token.timestamp)],
        };
        execute(&commit, 7, &ctx, &kv).unwrap();
        let item = kv.get(&ctx, "node:/a").unwrap();
        assert_eq!(item.num("version"), Some(7));
        assert_eq!(item.list("txq").unwrap(), &[Value::Num(7)]);
        assert!(!item.contains(LOCK_ATTR));
    }

    #[test]
    fn commit_fails_after_lock_stolen() {
        let (kv, locks, ctx) = setup();
        let old = locks.acquire(&ctx, "node:/a", 100).unwrap();
        locks.acquire(&ctx, "node:/a", 2000).unwrap(); // steal after expiry
        let commit = SystemCommit {
            items: vec![commit_item("node:/a", old.token.timestamp)],
        };
        let err = execute(&commit, 7, &ctx, &kv).unwrap_err();
        assert!(err.is_condition_failed());
        let item = kv.get(&ctx, "node:/a").unwrap();
        assert!(!item.contains("version"), "no partial state");
    }

    #[test]
    fn multi_item_commit_is_atomic() {
        let (kv, locks, ctx) = setup();
        let node = locks.acquire(&ctx, "node:/p/c", 100).unwrap();
        let parent = locks.acquire(&ctx, "node:/p", 100).unwrap();
        let mut parent_item = commit_item("node:/p", parent.token.timestamp);
        let child = SerValue::TxidChild {
            name: "c".into(),
            added: true,
        };
        parent_item.appends = vec![(node_attr::PENDING_CHILDREN.into(), child)];
        let commit = SystemCommit {
            items: vec![commit_item("node:/p/c", node.token.timestamp), parent_item],
        };
        execute(&commit, 7, &ctx, &kv).unwrap();
        let p = kv.get(&ctx, "node:/p").unwrap();
        let entries = p.list(node_attr::PENDING_CHILDREN).unwrap();
        let entry = crate::system_store::ChildEntry::from_value(&entries[0]).unwrap();
        assert_eq!(
            (entry.txid, entry.name.as_str(), entry.added),
            (7, "c", true)
        );
        assert!(!p.contains(LOCK_ATTR));
    }

    #[test]
    fn multi_item_commit_rolls_back_on_one_stolen_lock() {
        let (kv, locks, ctx) = setup();
        let node = locks.acquire(&ctx, "node:/p/c", 100).unwrap();
        let parent = locks.acquire(&ctx, "node:/p", 100).unwrap();
        // Parent lock is stolen.
        locks.acquire(&ctx, "node:/p", 5000).unwrap();
        let commit = SystemCommit {
            items: vec![
                commit_item("node:/p/c", node.token.timestamp),
                commit_item("node:/p", parent.token.timestamp),
            ],
        };
        assert!(execute(&commit, 7, &ctx, &kv).is_err());
        let child = kv.get(&ctx, "node:/p/c").unwrap();
        assert!(!child.contains("version"), "child must not commit alone");
    }

    /// A node item per path whose `txq` holds `txids`, on a metered store.
    fn pending(paths: &[(&str, &[i64])]) -> (KvStore, Meter, Ctx) {
        use crate::system_store::{keys, node_attr};
        let meter = Meter::new();
        let kv = KvStore::new("sys", Region::US_EAST_1, meter.clone());
        let ctx = Ctx::disabled();
        for (path, txids) in paths {
            let txq: Vec<Value> = txids.iter().map(|t| Value::Num(*t)).collect();
            let item = Item::new().with(node_attr::TXQ, txq);
            kv.put(&ctx, &keys::node(path), item, Condition::Always)
                .unwrap();
        }
        (kv, meter, ctx)
    }

    fn txq_of(kv: &KvStore, ctx: &Ctx, path: &str) -> Vec<Value> {
        use crate::system_store::{keys, node_attr};
        let item = kv.get(ctx, &keys::node(path)).unwrap();
        item.list(node_attr::TXQ).unwrap().to_vec()
    }

    #[test]
    fn pop_pending_coalesces_in_order() {
        let (kv, meter, ctx) = pending(&[("/n", &[3, 4, 5, 9])]);
        // Batched pop of a contiguous head run: single update.
        let before = meter.snapshot().kv_ops;
        pop_pending(&kv, &ctx, &[pop("/n", &[3, 4, 5], NONE)]).unwrap();
        assert_eq!(meter.snapshot().kv_ops - before, 1, "one coalesced update");
        assert_eq!(txq_of(&kv, &ctx, "/n"), [Value::Num(9)]);
    }

    /// A redelivered pop of a txid an earlier delivery popped fails its
    /// head guard and changes nothing: the queue and its tags stay as
    /// they are.
    #[test]
    fn pop_pending_of_an_already_popped_txid_changes_nothing() {
        use crate::system_store::{keys, ObjTags};
        let (kv, _meter, ctx) = pending(&[("/n", &[5, 6])]);
        let err = pop_pending(&kv, &ctx, &[pop("/n", &[3], &[41])]).unwrap_err();
        assert!(err.is_condition_failed(), "{err:?}");
        assert_eq!(txq_of(&kv, &ctx, "/n"), [Value::Num(5), Value::Num(6)]);
        let item = kv.get(&ctx, &keys::node("/n"));
        assert!(
            ObjTags::of(item.as_ref()).tags.is_empty(),
            "no tags recorded"
        );
    }

    /// A txid queued behind another head is never popped, alone or
    /// beside another node's pop: the write fails, touching nothing.
    #[test]
    fn pop_pending_of_a_txid_behind_another_head_is_an_error() {
        let (kv, _meter, ctx) = pending(&[("/a", &[1]), ("/n", &[2, 3])]);
        assert!(pop_pending(&kv, &ctx, &[pop("/n", &[3], NONE)]).is_err());
        let entries: [Pop<'_>; 2] = [pop("/a", &[1], NONE), pop("/n", &[3], NONE)];
        assert!(pop_pending(&kv, &ctx, &entries).is_err());
        assert_eq!(txq_of(&kv, &ctx, "/a"), [Value::Num(1)]);
        assert_eq!(txq_of(&kv, &ctx, "/n"), [Value::Num(2), Value::Num(3)]);
    }

    #[test]
    fn pop_pending_batch_request_budget() {
        let paths: Vec<String> = (0..crate::system_store::TRANSACT_MAX_ITEMS)
            .map(|i| format!("/n{i}"))
            .collect();
        let stored: Vec<(&str, &[i64])> =
            paths.iter().map(|p| (p.as_str(), &[7, 99][..])).collect();
        let (kv, meter, ctx) = pending(&stored);
        let entries: Vec<Pop<'_>> = paths.iter().map(|p| pop(p, &[7], NONE)).collect();

        // A full epoch's pops are one transaction and nothing else.
        let before = meter.snapshot();
        pop_pending(&kv, &ctx, &entries).unwrap();
        let used = meter.snapshot().since(&before);
        assert_eq!(used.per_op["kv_transact"], 1);
        assert_eq!(used.per_op["kv_write"], 0);
        for path in &paths {
            assert_eq!(txq_of(&kv, &ctx, path), [Value::Num(99)]);
        }

        // No entries (or only empty ones): no request at all.
        let before = meter.snapshot();
        pop_pending(&kv, &ctx, &[]).unwrap();
        pop_pending(&kv, &ctx, &[pop("/n0", &[], NONE), pop("/n1", &[], NONE)]).unwrap();
        assert_eq!(meter.snapshot().since(&before).kv_ops, 0);

        // One effective entry: the single-path conditional update.
        let before = meter.snapshot();
        pop_pending(&kv, &ctx, &[pop("/n0", &[99], NONE), pop("/n1", &[], NONE)]).unwrap();
        let used = meter.snapshot().since(&before);
        assert_eq!(used.per_op["kv_write"], 1);
        assert_eq!(used.per_op["kv_transact"], 0);
        assert_eq!(txq_of(&kv, &ctx, "/n0"), []);
    }

    /// One stale head (`/b`'s 4 is gone) cancels the whole pop: one billed
    /// transaction, no read, no other write, every `txq` as it was.
    #[test]
    fn a_stale_head_cancels_the_whole_pop() {
        let (kv, meter, ctx) = pending(&[("/a", &[3, 8]), ("/b", &[6]), ("/c", &[5, 7])]);
        let entries: [Pop<'_>; 3] = [
            pop("/a", &[3], NONE),
            pop("/b", &[4, 6], NONE),
            pop("/c", &[5], NONE),
        ];
        let before = meter.snapshot();
        let err = pop_pending(&kv, &ctx, &entries).unwrap_err();
        assert!(
            matches!(err, CloudError::TransactionCancelled { index: 1, .. }),
            "{err:?}"
        );
        let used = meter.snapshot().since(&before);
        assert_eq!(used.per_op["kv_transact"], 1, "the cancelled transaction");
        let count = |label: &str| used.per_op.get(label).copied().unwrap_or(0);
        assert_eq!(count("kv_write"), 0, "no per-path pop");
        assert_eq!(count("kv_read"), 0, "no read of a queue");
        assert_eq!(txq_of(&kv, &ctx, "/a"), [Value::Num(3), Value::Num(8)]);
        assert_eq!(txq_of(&kv, &ctx, "/b"), [Value::Num(6)]);
        assert_eq!(txq_of(&kv, &ctx, "/c"), [Value::Num(5), Value::Num(7)]);
    }

    /// The pop records the tags its epoch's write left — in the
    /// coalesced update and in a transaction item — and an empty set
    /// removes older ones, all without a request of its own.
    #[test]
    fn pops_record_the_tags_without_extra_requests() {
        use crate::system_store::{keys, node_attr, ObjTags};
        let tagged: &[Tag] = &[41];
        let tags_of = |kv: &KvStore, ctx: &Ctx, path: &str| {
            ObjTags::of(kv.get(ctx, &keys::node(path)).as_ref()).tags
        };
        let (kv, meter, ctx) = pending(&[("/a", &[3, 4]), ("/b", &[5]), ("/c", &[6, 7])]);
        let before = meter.snapshot();
        pop_pending(&kv, &ctx, &[pop("/a", &[3], tagged)]).unwrap();
        pop_pending(
            &kv,
            &ctx,
            &[pop("/b", &[5], tagged), pop("/c", &[6], tagged)],
        )
        .unwrap();
        let used = meter.snapshot().since(&before);
        assert_eq!(used.kv_ops, 2, "one update and one transaction");
        for path in ["/a", "/b", "/c"] {
            assert_eq!(tags_of(&kv, &ctx, path), [41], "{path}");
        }
        // Nothing to record: the pop removes what was there.
        pop_pending(&kv, &ctx, &[pop("/c", &[7], NONE)]).unwrap();
        let item = kv.get(&ctx, &keys::node("/c")).unwrap();
        assert!(!item.contains(node_attr::TAGS));
    }

    /// The folded children-log entries leave by value: beside a `txq`
    /// pop or alone, once or again. A pop of no txid never recreates an
    /// item a tombstone purge removed: alone or beside another node's
    /// pop, it fails and writes nothing.
    #[test]
    fn pops_remove_folded_children_entries_and_recreate_no_item() {
        use crate::system_store::{keys, node_attr, ChildEntry};
        let entry = |txid: u64, name: &str| {
            let name = name.to_owned();
            ChildEntry {
                txid,
                name,
                added: true,
            }
            .to_value()
        };
        let (kv, _meter, ctx) = pending(&[("/p", &[]), ("/p/a", &[3]), ("/p/b", &[5])]);
        let log = vec![entry(3, "a"), entry(5, "b")];
        let append = Update::new().list_append(node_attr::PENDING_CHILDREN, log);
        kv.update(&ctx, &keys::node("/p"), &append, Condition::Always)
            .unwrap();
        let logged = |kv: &KvStore| {
            let item = kv.get(&ctx, &keys::node("/p")).unwrap();
            item.list(node_attr::PENDING_CHILDREN).unwrap().to_vec()
        };
        let folded = [entry(3, "a")];
        let parent = Pop {
            folded: &folded,
            ..pop("/p", &[], NONE)
        };
        pop_pending(&kv, &ctx, &[parent, pop("/p/a", &[3], NONE)]).unwrap();
        assert_eq!(logged(&kv), [entry(5, "b")]);
        assert_eq!(txq_of(&kv, &ctx, "/p/a"), []);
        pop_pending(&kv, &ctx, &[parent]).unwrap();
        assert_eq!(logged(&kv), [entry(5, "b")], "again: no change");

        let gone = Pop {
            path: "/gone",
            ..parent
        };
        assert!(pop_pending(&kv, &ctx, &[gone]).is_err());
        assert!(pop_pending(&kv, &ctx, &[gone, pop("/p/b", &[5], NONE)]).is_err());
        assert!(kv.get(&ctx, &keys::node("/gone")).is_none());
        assert_eq!(txq_of(&kv, &ctx, "/p/b"), [Value::Num(5)], "nothing landed");
    }

    #[test]
    fn empty_commit_is_noop() {
        let (kv, _locks, ctx) = setup();
        execute(&SystemCommit::default(), 1, &ctx, &kv).unwrap();
        assert!(kv.is_empty());
    }
}
