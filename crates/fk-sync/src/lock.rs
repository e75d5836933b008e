//! Timed locks over cloud storage (§2.1, §3.3).
//!
//! A timed lock extends a regular lock with a bounded holding time, like a
//! lease: this is what prevents a crashed follower function from
//! deadlocking the whole system. The lock is a timestamp attribute on the
//! item itself:
//!
//! * **acquire** — conditional update: succeeds if no timestamp is present
//!   or the stored one is older than the maximum holding time; sets the
//!   timestamp to the caller's clock value and returns the item's previous
//!   state (the follower needs `oldData` for validation, Algorithm 1 ➀);
//! * **guarded updates** — every update under the lock is conditioned on
//!   the stored timestamp still matching, so a function that lost its
//!   lock to expiry cannot accidentally overwrite a newer owner's work;
//! * **release** — removes the timestamp, again guarded by a match. The
//!   commit-and-unlock of Algorithm 1 ➃ is a *single* conditional write.
//!
//! Each operation is one write to one item, as the paper requires.

use fk_cloud::expr::{Condition, Update};
use fk_cloud::kvstore::{KvStore, UpdateOutput};
use fk_cloud::trace::Ctx;
use fk_cloud::value::Item;
use fk_cloud::{CloudError, CloudResult};

/// Attribute name used to store lock timestamps.
pub const LOCK_ATTR: &str = "_lock_ts";

/// Proof of lock ownership: key + the timestamp written at acquisition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockToken {
    /// The locked item's key.
    pub key: String,
    /// Timestamp stored in the item when the lock was taken.
    pub timestamp: i64,
}

/// Outcome of a lock acquisition.
#[derive(Debug, Clone, PartialEq)]
pub struct Acquired {
    /// Ownership token for subsequent guarded updates.
    pub token: LockToken,
    /// Item state observed at acquisition (`None` if the item was created
    /// by the acquisition itself).
    pub old: Option<Item>,
}

/// Manager for timed locks on one table.
#[derive(Clone)]
pub struct TimedLockManager {
    kv: KvStore,
    max_hold_ms: i64,
}

impl TimedLockManager {
    /// Creates a manager; locks older than `max_hold_ms` may be stolen.
    pub fn new(kv: KvStore, max_hold_ms: i64) -> Self {
        assert!(max_hold_ms > 0, "max holding time must be positive");
        TimedLockManager { kv, max_hold_ms }
    }

    /// Maximum holding time in milliseconds.
    pub fn max_hold_ms(&self) -> i64 {
        self.max_hold_ms
    }

    /// The condition under which a lock at `now_ms` may be taken.
    fn acquirable(&self, now_ms: i64) -> Condition {
        Condition::NotExists(LOCK_ATTR.into())
            .or(Condition::le(LOCK_ATTR, now_ms - self.max_hold_ms))
    }

    /// The condition that the lock is still held by `token`.
    fn held(token: &LockToken) -> Condition {
        Condition::eq(LOCK_ATTR, token.timestamp)
    }

    /// Attempts to acquire the lock on `key` at caller time `now_ms`.
    ///
    /// Creates the item if it does not exist (the follower locks nodes
    /// that are only being created now). Fails with `ConditionFailed` when
    /// the lock is validly held by someone else.
    pub fn acquire(&self, ctx: &Ctx, key: &str, now_ms: i64) -> CloudResult<Acquired> {
        let update = Update::new().set(LOCK_ATTR, now_ms);
        let UpdateOutput { old, .. } =
            self.kv.update(ctx, key, &update, self.acquirable(now_ms))?;
        Ok(Acquired {
            token: LockToken {
                key: key.to_owned(),
                timestamp: now_ms,
            },
            old,
        })
    }

    /// Applies `update` to the locked item while *keeping* the lock.
    /// Fails if the lock has been lost (expired and re-acquired).
    pub fn update_locked(
        &self,
        ctx: &Ctx,
        token: &LockToken,
        update: &Update,
    ) -> CloudResult<UpdateOutput> {
        self.kv.update(ctx, &token.key, update, Self::held(token))
    }

    /// Atomically applies `update` and releases the lock in one
    /// conditional write (Algorithm 1's commit-and-unlock ➃).
    pub fn commit_unlock(
        &self,
        ctx: &Ctx,
        token: &LockToken,
        update: Update,
    ) -> CloudResult<UpdateOutput> {
        let mut update = update;
        update
            .actions
            .push(fk_cloud::expr::Action::Remove(LOCK_ATTR.into()));
        self.kv.update(ctx, &token.key, &update, Self::held(token))
    }

    /// Releases the lock without further changes. Returns `false` if the
    /// lock had already been lost (which is not an error: the work was
    /// simply taken over or discarded by a newer owner).
    pub fn release(&self, ctx: &Ctx, token: &LockToken) -> CloudResult<bool> {
        let update = Update::new().remove(LOCK_ATTR);
        match self.kv.update(ctx, &token.key, &update, Self::held(token)) {
            Ok(_) => Ok(true),
            Err(CloudError::ConditionFailed { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// True if `key` currently stores an unexpired lock as of `now_ms`.
    pub fn is_locked(&self, ctx: &Ctx, key: &str, now_ms: i64) -> bool {
        self.live_stamp(self.kv.get(ctx, key).as_ref(), now_ms)
            .is_some()
    }

    /// The stamp of the lock `item` holds, unless it has expired by
    /// `now_ms` (held for `max_hold_ms` or longer).
    pub fn live_stamp(&self, item: Option<&Item>, now_ms: i64) -> Option<i64> {
        let stamp = item?.num(LOCK_ATTR)?;
        (now_ms - stamp < self.max_hold_ms).then_some(stamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fk_cloud::metering::Meter;
    use fk_cloud::region::Region;

    fn setup(max_hold: i64) -> (TimedLockManager, KvStore, Ctx) {
        let kv = KvStore::new("sys", Region::US_EAST_1, Meter::new());
        (
            TimedLockManager::new(kv.clone(), max_hold),
            kv,
            Ctx::disabled(),
        )
    }

    #[test]
    fn acquire_and_release() {
        let (locks, _kv, ctx) = setup(1000);
        let acq = locks.acquire(&ctx, "/node/a", 100).unwrap();
        assert!(acq.old.is_none());
        assert!(locks.is_locked(&ctx, "/node/a", 150));
        assert!(locks.release(&ctx, &acq.token).unwrap());
        assert!(!locks.is_locked(&ctx, "/node/a", 150));
    }

    #[test]
    fn second_acquire_fails_while_held() {
        let (locks, _kv, ctx) = setup(1000);
        locks.acquire(&ctx, "k", 100).unwrap();
        let err = locks.acquire(&ctx, "k", 200).unwrap_err();
        assert!(err.is_condition_failed());
    }

    #[test]
    fn expired_lock_can_be_stolen() {
        let (locks, _kv, ctx) = setup(1000);
        let old = locks.acquire(&ctx, "k", 100).unwrap();
        // 1100 - 100 >= 1000 → expired.
        let new = locks.acquire(&ctx, "k", 1100).unwrap();
        assert_eq!(new.token.timestamp, 1100);
        // The old owner can no longer touch the item.
        let err = locks
            .update_locked(&ctx, &old.token, &Update::new().set("v", 1i64))
            .unwrap_err();
        assert!(err.is_condition_failed());
        // Nor release the new owner's lock.
        assert!(!locks.release(&ctx, &old.token).unwrap());
        assert!(locks.is_locked(&ctx, "k", 1200));
    }

    #[test]
    fn acquire_returns_previous_item_state() {
        let (locks, kv, ctx) = setup(1000);
        kv.put(
            &ctx,
            "k",
            Item::new().with("data", "old"),
            Condition::Always,
        )
        .unwrap();
        let acq = locks.acquire(&ctx, "k", 100).unwrap();
        assert_eq!(acq.old.unwrap().str("data"), Some("old"));
    }

    #[test]
    fn commit_unlock_is_single_atomic_step() {
        let (locks, kv, ctx) = setup(1000);
        let acq = locks.acquire(&ctx, "k", 100).unwrap();
        locks
            .commit_unlock(&ctx, &acq.token, Update::new().set("v", 42i64))
            .unwrap();
        let item = kv.get(&ctx, "k").unwrap();
        assert_eq!(item.num("v"), Some(42));
        assert!(!item.contains(LOCK_ATTR));
        // After release, the commit guard no longer matches.
        let err = locks
            .commit_unlock(&ctx, &acq.token, Update::new().set("v", 1i64))
            .unwrap_err();
        assert!(err.is_condition_failed());
    }

    #[test]
    fn update_locked_keeps_the_lock() {
        let (locks, _kv, ctx) = setup(1000);
        let acq = locks.acquire(&ctx, "k", 100).unwrap();
        locks
            .update_locked(&ctx, &acq.token, &Update::new().set("a", 1i64))
            .unwrap();
        assert!(locks.is_locked(&ctx, "k", 500));
    }

    #[test]
    fn reacquire_after_release() {
        let (locks, _kv, ctx) = setup(1000);
        let a = locks.acquire(&ctx, "k", 100).unwrap();
        locks.release(&ctx, &a.token).unwrap();
        let b = locks.acquire(&ctx, "k", 101).unwrap();
        assert_eq!(b.token.timestamp, 101);
    }

    #[test]
    fn contended_acquire_has_single_winner() {
        let (locks, _kv, _ctx) = setup(10_000);
        let winners = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let locks = locks.clone();
                let winners = &winners;
                s.spawn(move || {
                    let ctx = Ctx::disabled();
                    if locks.acquire(&ctx, "hot", 100).is_ok() {
                        winners.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(winners.load(std::sync::atomic::Ordering::SeqCst), 1);
    }
}
