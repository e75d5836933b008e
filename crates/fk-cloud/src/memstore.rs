//! Simulated in-memory cache (Redis / ElastiCache equivalent).
//!
//! Used as the low-latency user-data store variant in Figure 8, where
//! "FaaSKeeper with an in-memory cache is on par with self-hosted
//! ZooKeeper". The paper notes such stores are *not* serverless today
//! (Requirement #8) — they require a provisioned VM, which the cost model
//! accounts for separately.

use crate::error::{CloudError, CloudResult};
use crate::metering::Meter;
use crate::objectstore::{content_tag, Precondition, Tag};
use crate::ops::Op;
use crate::region::Region;
use crate::trace::Ctx;
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

struct Inner {
    region: Region,
    meter: Meter,
    map: RwLock<HashMap<String, Bytes>>,
}

/// A shared in-memory key-value cache. Cloning shares the cache.
#[derive(Clone)]
pub struct MemStore {
    inner: Arc<Inner>,
}

impl MemStore {
    /// Creates an empty cache.
    pub fn new(region: Region, meter: Meter) -> Self {
        MemStore {
            inner: Arc::new(Inner {
                region,
                meter,
                map: RwLock::new(HashMap::new()),
            }),
        }
    }

    /// Region the cache VM runs in.
    pub fn region(&self) -> Region {
        self.inner.region
    }

    /// Stores a value.
    pub fn put(&self, ctx: &Ctx, key: &str, data: Bytes) {
        let size = data.len();
        self.inner.map.write().insert(key.to_owned(), data);
        self.inner.meter.mem_op();
        ctx.charge_to(Op::MemPut, size, self.inner.region);
    }

    /// Fetches a value.
    pub fn get(&self, ctx: &Ctx, key: &str) -> CloudResult<Bytes> {
        let data = self.inner.map.read().get(key).cloned();
        self.inner.meter.mem_op();
        match data {
            Some(bytes) => {
                ctx.charge_to(Op::MemGet, bytes.len(), self.inner.region);
                Ok(bytes)
            }
            None => {
                ctx.charge_to(Op::MemGet, 1, self.inner.region);
                Err(CloudError::NotFound {
                    key: key.to_owned(),
                })
            }
        }
    }

    /// Stores a value if `precondition` holds for the stored one, whose
    /// tag is its hash ([`content_tag`]), and returns the new value's
    /// tag; otherwise [`CloudError::ConditionFailed`] with nothing stored.
    /// One metered operation either way.
    pub fn put_if(
        &self,
        ctx: &Ctx,
        key: &str,
        data: Bytes,
        precondition: Precondition,
    ) -> CloudResult<Tag> {
        let (size, tag) = (data.len(), content_tag(&data));
        let mut map = self.inner.map.write();
        let current = map.get(key).map(|stored| content_tag(stored));
        let holds = precondition.holds(current);
        if holds {
            map.insert(key.to_owned(), data);
        }
        drop(map);
        self.inner.meter.mem_op();
        ctx.charge_to(Op::MemPut, size, self.inner.region);
        if !holds {
            let detail = format!("{precondition:?} on {key} (stored: {current:?})");
            return Err(CloudError::ConditionFailed { detail });
        }
        Ok(tag)
    }

    /// Deletes a value (idempotent).
    pub fn delete(&self, ctx: &Ctx, key: &str) {
        self.inner.map.write().remove(key);
        self.inner.meter.mem_op();
        ctx.charge_to(Op::MemPut, 1, self.inner.region);
    }

    /// Fetches every entry whose key starts with `prefix`, sorted by
    /// key (Redis `SCAN MATCH prefix*` equivalent — one metered
    /// operation, charged for the matched bytes).
    pub fn scan_prefix(&self, ctx: &Ctx, prefix: &str) -> Vec<(String, Bytes)> {
        let mut out: Vec<(String, Bytes)> = self
            .inner
            .map
            .read()
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        self.inner.meter.mem_op();
        let total: usize = out.iter().map(|(_, b)| b.len()).sum();
        ctx.charge_to(Op::MemGet, total.max(1), self.inner.region);
        out
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.map.read().len()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_delete() {
        let ms = MemStore::new(Region::US_EAST_1, Meter::new());
        let ctx = Ctx::disabled();
        ms.put(&ctx, "k", Bytes::from_static(b"v"));
        assert_eq!(ms.get(&ctx, "k").unwrap().as_ref(), b"v");
        ms.delete(&ctx, "k");
        assert!(ms.get(&ctx, "k").unwrap_err().is_not_found());
        assert!(ms.is_empty());
    }

    #[test]
    fn ops_are_metered() {
        let meter = Meter::new();
        let ms = MemStore::new(Region::US_EAST_1, meter.clone());
        let ctx = Ctx::disabled();
        ms.put(&ctx, "k", Bytes::from_static(b"v"));
        let _ = ms.get(&ctx, "k");
        assert_eq!(meter.snapshot().mem_ops, 2);
    }
}
