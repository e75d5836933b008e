//! Atomic counters over cloud storage (§2.1, §3.3).
//!
//! "An atomic counter supports single-step updates": one `ADD` update
//! expression per modification, no read-modify-write cycle. FaaSKeeper
//! uses one for the system state counter `txid` that defines the total
//! order of transactions.

use fk_cloud::expr::{Condition, Update};
use fk_cloud::kvstore::KvStore;
use fk_cloud::trace::Ctx;
use fk_cloud::CloudResult;

/// Attribute holding the counter value.
pub const COUNTER_ATTR: &str = "value";

/// A named atomic counter stored as a single KV item.
#[derive(Clone)]
pub struct AtomicCounter {
    kv: KvStore,
    key: String,
}

impl AtomicCounter {
    /// Binds a counter to `key` in `kv`. The item is created lazily on the
    /// first update (starting from zero).
    pub fn new(kv: KvStore, key: impl Into<String>) -> Self {
        AtomicCounter {
            kv,
            key: key.into(),
        }
    }

    /// The counter's item key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Atomically adds `delta`, returning the post-update value.
    pub fn add(&self, ctx: &Ctx, delta: i64) -> CloudResult<i64> {
        let out = self.kv.update(
            ctx,
            &self.key,
            &Update::new().add(COUNTER_ATTR, delta),
            Condition::Always,
        )?;
        Ok(out.new.num(COUNTER_ATTR).unwrap_or(0))
    }

    /// Atomically increments by one, returning the new value.
    pub fn increment(&self, ctx: &Ctx) -> CloudResult<i64> {
        self.add(ctx, 1)
    }

    /// Reads the current value with a strongly consistent read.
    pub fn get(&self, ctx: &Ctx) -> i64 {
        self.kv
            .get(ctx, &self.key)
            .and_then(|item| item.num(COUNTER_ATTR))
            .unwrap_or(0)
    }

    /// Conditionally advances the counter to `target` only if it currently
    /// holds `expected` (compare-and-set; used for fencing).
    pub fn compare_and_set(&self, ctx: &Ctx, expected: i64, target: i64) -> CloudResult<bool> {
        let cond = if expected == 0 {
            Condition::NotExists(COUNTER_ATTR.into()).or(Condition::eq(COUNTER_ATTR, expected))
        } else {
            Condition::eq(COUNTER_ATTR, expected)
        };
        match self.kv.update(
            ctx,
            &self.key,
            &Update::new().set(COUNTER_ATTR, target),
            cond,
        ) {
            Ok(_) => Ok(true),
            Err(fk_cloud::CloudError::ConditionFailed { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fk_cloud::metering::Meter;
    use fk_cloud::region::Region;

    fn counter() -> (AtomicCounter, Ctx) {
        let kv = KvStore::new("sys", Region::US_EAST_1, Meter::new());
        (AtomicCounter::new(kv, "txid"), Ctx::disabled())
    }

    #[test]
    fn starts_at_zero_and_increments() {
        let (c, ctx) = counter();
        assert_eq!(c.get(&ctx), 0);
        assert_eq!(c.increment(&ctx).unwrap(), 1);
        assert_eq!(c.add(&ctx, 5).unwrap(), 6);
        assert_eq!(c.get(&ctx), 6);
    }

    #[test]
    fn negative_deltas() {
        let (c, ctx) = counter();
        c.add(&ctx, 10).unwrap();
        assert_eq!(c.add(&ctx, -3).unwrap(), 7);
    }

    #[test]
    fn compare_and_set_fences() {
        let (c, ctx) = counter();
        c.add(&ctx, 5).unwrap();
        assert!(!c.compare_and_set(&ctx, 4, 10).unwrap());
        assert_eq!(c.get(&ctx), 5);
        assert!(c.compare_and_set(&ctx, 5, 10).unwrap());
        assert_eq!(c.get(&ctx), 10);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let kv = KvStore::new("sys", Region::US_EAST_1, Meter::new());
        let c = AtomicCounter::new(kv, "ctr");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    let ctx = Ctx::disabled();
                    for _ in 0..250 {
                        c.increment(&ctx).unwrap();
                    }
                });
            }
        });
        assert_eq!(c.get(&Ctx::disabled()), 2000);
    }

    #[test]
    fn concurrent_increments_yield_unique_values() {
        // The txid counter must give every transaction a distinct value.
        let kv = KvStore::new("sys", Region::US_EAST_1, Meter::new());
        let c = AtomicCounter::new(kv, "txid");
        let seen = parking_lot::Mutex::new(std::collections::HashSet::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                let seen = &seen;
                s.spawn(move || {
                    let ctx = Ctx::disabled();
                    for _ in 0..100 {
                        let v = c.increment(&ctx).unwrap();
                        assert!(seen.lock().insert(v), "duplicate txid {v}");
                    }
                });
            }
        });
        assert_eq!(seen.lock().len(), 400);
    }
}
