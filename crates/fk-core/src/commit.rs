//! Execution of system-storage commits.
//!
//! A [`SystemCommit`] describes the conditional writes that commit a
//! transaction to system storage. The follower executes it right after
//! pushing to the leader queue (Algorithm 1 ➃); the leader re-executes the
//! *same* description when it finds the node uncommitted (Algorithm 2 ➋,
//! `TryCommit`) — this is what makes a follower crash between push and
//! commit harmless.
//!
//! Every item is guarded by its timed-lock timestamp, so an expired and
//! re-acquired lock makes the whole commit fail atomically, and the
//! request is reported as failed without corrupting newer state.

use crate::messages::{CommitItem, SystemCommit};
use fk_cloud::expr::{Condition, Update};
use fk_cloud::kvstore::{KvStore, TransactOp};
use fk_cloud::trace::Ctx;
use fk_cloud::CloudResult;
use fk_sync::LOCK_ATTR;

/// Lock-timestamp sentinel for commit items on keys that are *not* under
/// a timed lock (the session request watermark rides the commit this
/// way): the item applies unconditionally and releases no lock. Real
/// lock timestamps are wall-clock milliseconds, so 0 is never a live
/// lock.
pub const UNGUARDED: i64 = 0;

fn item_update(item: &CommitItem, txid: u64) -> Update {
    let mut update = Update::new();
    for (attr, value) in &item.sets {
        update = update.set(attr.clone(), value.to_value(txid));
    }
    for (attr, value) in &item.appends {
        let values = match value.to_value(txid) {
            fk_cloud::Value::List(l) => l,
            single => vec![single],
        };
        update = update.list_append(attr.clone(), values);
    }
    for attr in &item.removes {
        update = update.remove(attr.clone());
    }
    for (attr, value) in &item.list_removes {
        let values = match value.to_value(txid) {
            fk_cloud::Value::List(l) => l,
            single => vec![single],
        };
        update = update.list_remove(attr.clone(), values);
    }
    if item.lock_ts == UNGUARDED {
        return update;
    }
    // Committing releases the lock in the same write (Algorithm 1 ➃).
    update.remove(LOCK_ATTR)
}

fn item_condition(item: &CommitItem) -> Condition {
    if item.lock_ts == UNGUARDED {
        Condition::Always
    } else {
        Condition::eq(LOCK_ATTR, item.lock_ts)
    }
}

/// Executes the commit atomically: a single conditional update for
/// single-item transactions (the common `set_data` case — one write unit),
/// or a multi-item transaction for operations that touch the parent too
/// (create/delete — Z1's all-or-nothing requirement).
pub fn execute(commit: &SystemCommit, txid: u64, ctx: &Ctx, kv: &KvStore) -> CloudResult<()> {
    match commit.items.as_slice() {
        [] => Ok(()),
        [single] => {
            kv.update(
                ctx,
                &single.key,
                &item_update(single, txid),
                item_condition(single),
            )?;
            Ok(())
        }
        items => {
            let ops: Vec<TransactOp> = items
                .iter()
                .map(|item| TransactOp::Update {
                    key: item.key.clone(),
                    update: item_update(item, txid),
                    condition: item_condition(item),
                })
                .collect();
            kv.transact(ctx, &ops)
        }
    }
}

/// Pops `txids` from the front of a node's pending-transaction queue
/// (Algorithm 2 ➎) with batch coalescing: when the queue head matches the
/// first txid — the common case, since per-node txq order equals txid
/// order — all entries pop in a single conditional update instead of one
/// round trip per transaction. After a partial redelivery the head may
/// already be past some txids; the fallback then pops each remaining txid
/// individually and idempotently, exactly like the sequential leader.
pub fn pop_pending(kv: &KvStore, ctx: &Ctx, path: &str, txids: &[u64]) -> CloudResult<()> {
    use crate::system_store::{keys, node_attr};
    use fk_cloud::value::Value;
    use fk_cloud::CloudError;
    if txids.is_empty() {
        return Ok(());
    }
    let key = keys::node(path);
    let head = Condition::ListHeadEq(node_attr::TXQ.into(), Value::Num(txids[0] as i64));
    let pop_all = Update::new().list_pop_front(node_attr::TXQ, txids.len());
    match kv.update(ctx, &key, &pop_all, head) {
        Ok(_) => return Ok(()),
        Err(CloudError::ConditionFailed { .. }) => {}
        Err(e) => return Err(e),
    }
    // Redelivery fallback: pop whichever of our txids is still at the
    // head, one at a time; already-popped entries fail the guard and are
    // skipped (idempotent).
    for txid in txids {
        let one = Update::new().list_pop_front(node_attr::TXQ, 1);
        let cond = Condition::ListHeadEq(node_attr::TXQ.into(), Value::Num(*txid as i64));
        match kv.update(ctx, &key, &one, cond) {
            Ok(_) | Err(CloudError::ConditionFailed { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Pops many paths' pending-transaction queues in **one** multi-item
/// conditional transaction (the chunked counterpart of [`pop_pending`],
/// capped at [`crate::system_store::TRANSACT_MAX_ITEMS`] entries by the
/// caller): each item pops its path's txids guarded by its own
/// queue-head condition — the same guard the per-path pop uses, so the
/// Z-invariants are unchanged. In the common case the whole epoch's
/// pops cost one write request. A single stale head (a redelivered
/// epoch whose earlier delivery already popped) cancels the chunk; the
/// fallback then runs the per-path pops, whose per-txid legs are
/// idempotent.
pub fn pop_pending_batch(kv: &KvStore, ctx: &Ctx, entries: &[(&str, &[u64])]) -> CloudResult<()> {
    use crate::system_store::{keys, node_attr};
    use fk_cloud::value::Value;
    use fk_cloud::CloudError;
    let entries: Vec<&(&str, &[u64])> = entries.iter().filter(|(_, t)| !t.is_empty()).collect();
    match entries.as_slice() {
        [] => Ok(()),
        [(path, txids)] => pop_pending(kv, ctx, path, txids),
        many => {
            let ops: Vec<TransactOp> = many
                .iter()
                .map(|(path, txids)| TransactOp::Update {
                    key: keys::node(path),
                    update: Update::new().list_pop_front(node_attr::TXQ, txids.len()),
                    condition: Condition::ListHeadEq(
                        node_attr::TXQ.into(),
                        Value::Num(txids[0] as i64),
                    ),
                })
                .collect();
            match kv.transact(ctx, &ops) {
                Ok(()) => Ok(()),
                Err(CloudError::TransactionCancelled { .. }) => {
                    // At least one path's head is already past its first
                    // txid (partial redelivery). Nothing was applied —
                    // finish with per-path pops, which skip
                    // already-popped txids idempotently.
                    for (path, txids) in many {
                        pop_pending(kv, ctx, path, txids)?;
                    }
                    Ok(())
                }
                Err(e) => Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::SerValue;
    use fk_cloud::metering::Meter;
    use fk_cloud::value::{Item, Value};
    use fk_cloud::{Consistency, Region};
    use fk_sync::TimedLockManager;

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
            list_removes: vec![],
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
        let item = kv.get(&ctx, "node:/a", Consistency::Strong).unwrap();
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
        let item = kv.get(&ctx, "node:/a", Consistency::Strong).unwrap();
        assert!(!item.contains("version"), "no partial state");
    }

    #[test]
    fn multi_item_commit_is_atomic() {
        let (kv, locks, ctx) = setup();
        let node = locks.acquire(&ctx, "node:/p/c", 100).unwrap();
        let parent = locks.acquire(&ctx, "node:/p", 100).unwrap();
        let mut parent_item = commit_item("node:/p", parent.token.timestamp);
        parent_item.appends = vec![("children".into(), SerValue::StrList(vec!["c".into()]))];
        let commit = SystemCommit {
            items: vec![commit_item("node:/p/c", node.token.timestamp), parent_item],
        };
        execute(&commit, 7, &ctx, &kv).unwrap();
        let p = kv.get(&ctx, "node:/p", Consistency::Strong).unwrap();
        assert_eq!(p.list("children").unwrap(), &[Value::from("c")]);
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
        let child = kv.get(&ctx, "node:/p/c", Consistency::Strong).unwrap();
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
        let item = kv.get(ctx, &keys::node(path), Consistency::Strong).unwrap();
        item.list(node_attr::TXQ).unwrap().to_vec()
    }

    #[test]
    fn pop_pending_coalesces_in_order() {
        let (kv, meter, ctx) = pending(&[("/n", &[3, 4, 5, 9])]);
        // Batched pop of a contiguous head run: single update.
        let before = meter.snapshot().kv_ops;
        pop_pending(&kv, &ctx, "/n", &[3, 4, 5]).unwrap();
        assert_eq!(meter.snapshot().kv_ops - before, 1, "one coalesced update");
        assert_eq!(txq_of(&kv, &ctx, "/n"), [Value::Num(9)]);
    }

    #[test]
    fn pop_pending_falls_back_after_partial_redelivery() {
        // Head 3 already popped by the pre-crash delivery; 4 and 5 remain.
        let (kv, _meter, ctx) = pending(&[("/n", &[4, 5])]);
        pop_pending(&kv, &ctx, "/n", &[3, 4, 5]).unwrap();
        assert_eq!(txq_of(&kv, &ctx, "/n"), []);
        // Fully popped already: a second call is a no-op.
        pop_pending(&kv, &ctx, "/n", &[3, 4, 5]).unwrap();
    }

    #[test]
    fn pop_pending_batch_request_budget() {
        let paths: Vec<String> = (0..crate::system_store::TRANSACT_MAX_ITEMS)
            .map(|i| format!("/n{i}"))
            .collect();
        let stored: Vec<(&str, &[i64])> =
            paths.iter().map(|p| (p.as_str(), &[7, 99][..])).collect();
        let (kv, meter, ctx) = pending(&stored);
        let entries: Vec<(&str, &[u64])> = paths.iter().map(|p| (p.as_str(), &[7][..])).collect();

        // A full chunk is one transaction and nothing else.
        let before = meter.snapshot();
        pop_pending_batch(&kv, &ctx, &entries).unwrap();
        let used = meter.snapshot().since(&before);
        assert_eq!(used.per_op["kv_transact"], 1);
        assert_eq!(used.per_op["kv_write"], 0);
        for path in &paths {
            assert_eq!(txq_of(&kv, &ctx, path), [Value::Num(99)]);
        }

        // No entries (or only empty ones): no request at all.
        let before = meter.snapshot();
        pop_pending_batch(&kv, &ctx, &[]).unwrap();
        pop_pending_batch(&kv, &ctx, &[("/n0", &[]), ("/n1", &[])]).unwrap();
        assert_eq!(meter.snapshot().since(&before).kv_ops, 0);

        // One effective entry: the single-path conditional update.
        let before = meter.snapshot();
        pop_pending_batch(&kv, &ctx, &[("/n0", &[99]), ("/n1", &[])]).unwrap();
        let used = meter.snapshot().since(&before);
        assert_eq!(used.per_op["kv_write"], 1);
        assert_eq!(used.per_op["kv_transact"], 0);
        assert_eq!(txq_of(&kv, &ctx, "/n0"), []);
    }

    #[test]
    fn pop_pending_batch_falls_back_on_a_stale_head() {
        // `/b`'s 4 was popped by an earlier delivery of the same epoch.
        let (kv, meter, ctx) = pending(&[("/a", &[3, 8]), ("/b", &[6]), ("/c", &[5, 7])]);
        let entries: [(&str, &[u64]); 3] = [("/a", &[3]), ("/b", &[4, 6]), ("/c", &[5])];
        let before = meter.snapshot();
        pop_pending_batch(&kv, &ctx, &entries).unwrap();
        let used = meter.snapshot().since(&before);
        assert_eq!(used.per_op["kv_transact"], 1, "the cancelled chunk");
        // `/a` and `/c` pop at once; `/b`'s coalesced pop fails its head
        // guard, then its per-txid legs skip 4 and pop 6.
        assert_eq!(used.per_op["kv_write"], 2 + 3, "per-path fallback");
        assert_eq!(txq_of(&kv, &ctx, "/a"), [Value::Num(8)]);
        assert_eq!(txq_of(&kv, &ctx, "/b"), []);
        assert_eq!(txq_of(&kv, &ctx, "/c"), [Value::Num(7)]);

        // Everything already popped: a repeat changes nothing.
        pop_pending_batch(&kv, &ctx, &entries).unwrap();
        assert_eq!(txq_of(&kv, &ctx, "/a"), [Value::Num(8)]);
        assert_eq!(txq_of(&kv, &ctx, "/b"), []);
        assert_eq!(txq_of(&kv, &ctx, "/c"), [Value::Num(7)]);
    }

    #[test]
    fn empty_commit_is_noop() {
        let (kv, _locks, ctx) = setup();
        execute(&SystemCommit::default(), 1, &ctx, &kv).unwrap();
        assert!(kv.is_empty());
    }

    #[test]
    fn list_removes_apply() {
        let (kv, locks, ctx) = setup();
        kv.put(
            &ctx,
            "node:/p",
            Item::new().with("children", vec![Value::from("a"), Value::from("b")]),
            Condition::Always,
        )
        .unwrap();
        let acq = locks.acquire(&ctx, "node:/p", 100).unwrap();
        let commit = SystemCommit {
            items: vec![CommitItem {
                key: "node:/p".into(),
                lock_ts: acq.token.timestamp,
                sets: vec![],
                appends: vec![],
                removes: vec![],
                list_removes: vec![("children".into(), SerValue::StrList(vec!["a".into()]))],
            }],
        };
        execute(&commit, 8, &ctx, &kv).unwrap();
        let p = kv.get(&ctx, "node:/p", Consistency::Strong).unwrap();
        assert_eq!(p.list("children").unwrap(), &[Value::from("b")]);
    }
}
