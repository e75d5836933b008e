//! Atomic lists over cloud storage (§2.1, §3.3).
//!
//! "An atomic list provides safe expansion and truncation": one update
//! expression per modification. FaaSKeeper represents the region *epoch
//! counters* (the sets of in-flight watch notification ids, §3.4) and the
//! per-node pending-transaction queues as atomic lists.

use fk_cloud::expr::{Condition, Update};
use fk_cloud::kvstore::KvStore;
use fk_cloud::trace::Ctx;
use fk_cloud::value::Value;
use fk_cloud::CloudResult;

/// Attribute holding the list contents.
pub const LIST_ATTR: &str = "items";

/// A named atomic list stored as a single KV item.
#[derive(Clone)]
pub struct AtomicList {
    kv: KvStore,
    key: String,
}

impl AtomicList {
    /// Binds a list to `key` in `kv`; created lazily, starting empty.
    pub fn new(kv: KvStore, key: impl Into<String>) -> Self {
        AtomicList {
            kv,
            key: key.into(),
        }
    }

    /// The list's item key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Atomically appends `values`; returns the new length.
    pub fn append(&self, ctx: &Ctx, values: Vec<Value>) -> CloudResult<usize> {
        let out = self.kv.update(
            ctx,
            &self.key,
            &Update::new().list_append(LIST_ATTR, values),
            Condition::Always,
        )?;
        Ok(out.new.list(LIST_ATTR).map(<[Value]>::len).unwrap_or(0))
    }

    /// Atomically removes all occurrences of `values`; returns the new
    /// length.
    pub fn remove(&self, ctx: &Ctx, values: Vec<Value>) -> CloudResult<usize> {
        let out = self.kv.update(
            ctx,
            &self.key,
            &Update::new().list_remove(LIST_ATTR, values),
            Condition::Always,
        )?;
        Ok(out.new.list(LIST_ATTR).map(<[Value]>::len).unwrap_or(0))
    }

    /// Atomically removes the first `n` elements (queue truncation).
    pub fn pop_front(&self, ctx: &Ctx, n: usize) -> CloudResult<usize> {
        let out = self.kv.update(
            ctx,
            &self.key,
            &Update::new().list_pop_front(LIST_ATTR, n),
            Condition::Always,
        )?;
        Ok(out.new.list(LIST_ATTR).map(<[Value]>::len).unwrap_or(0))
    }

    /// Strongly consistent read of the whole list.
    pub fn read(&self, ctx: &Ctx) -> Vec<Value> {
        self.kv
            .get(ctx, &self.key)
            .and_then(|item| item.list(LIST_ATTR).map(<[Value]>::to_vec))
            .unwrap_or_default()
    }

    /// True if the list currently contains `value`.
    pub fn contains(&self, ctx: &Ctx, value: &Value) -> bool {
        self.read(ctx).contains(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fk_cloud::metering::Meter;
    use fk_cloud::region::Region;

    fn list() -> (AtomicList, Ctx) {
        let kv = KvStore::new("sys", Region::US_EAST_1, Meter::new());
        (AtomicList::new(kv, "epoch:us-east-1"), Ctx::disabled())
    }

    #[test]
    fn append_read_remove() {
        let (l, ctx) = list();
        assert_eq!(
            l.append(&ctx, vec![Value::Num(1), Value::Num(2)]).unwrap(),
            2
        );
        assert_eq!(l.append(&ctx, vec![Value::Num(3)]).unwrap(), 3);
        assert!(l.contains(&ctx, &Value::Num(2)));
        assert_eq!(l.remove(&ctx, vec![Value::Num(2)]).unwrap(), 2);
        assert_eq!(l.read(&ctx), vec![Value::Num(1), Value::Num(3)]);
    }

    #[test]
    fn empty_list_reads_empty() {
        let (l, ctx) = list();
        assert!(l.read(&ctx).is_empty());
        assert!(!l.contains(&ctx, &Value::Num(1)));
        assert_eq!(l.remove(&ctx, vec![Value::Num(9)]).unwrap(), 0);
    }

    #[test]
    fn pop_front_truncates_in_order() {
        let (l, ctx) = list();
        l.append(&ctx, (1..=5).map(Value::Num).collect()).unwrap();
        assert_eq!(l.pop_front(&ctx, 2).unwrap(), 3);
        assert_eq!(
            l.read(&ctx),
            vec![Value::Num(3), Value::Num(4), Value::Num(5)]
        );
    }

    #[test]
    fn duplicate_values_all_removed() {
        let (l, ctx) = list();
        l.append(&ctx, vec![Value::Num(7), Value::Num(7), Value::Num(8)])
            .unwrap();
        assert_eq!(l.remove(&ctx, vec![Value::Num(7)]).unwrap(), 1);
    }

    #[test]
    fn concurrent_appends_lose_nothing() {
        let kv = KvStore::new("sys", Region::US_EAST_1, Meter::new());
        let l = AtomicList::new(kv, "watches");
        std::thread::scope(|s| {
            for t in 0..8i64 {
                let l = l.clone();
                s.spawn(move || {
                    let ctx = Ctx::disabled();
                    for i in 0..50 {
                        l.append(&ctx, vec![Value::Num(t * 1000 + i)]).unwrap();
                    }
                });
            }
        });
        assert_eq!(l.read(&Ctx::disabled()).len(), 400);
    }
}
