//! Simulated object store (S3 / Cloud Storage equivalent).
//!
//! Whole-object PUT/GET with strong read-after-write consistency — modern
//! object stores guarantee it (§2.1) and FaaSKeeper's Z3 depends on it.
//! Crucially there are **no partial updates** (Requirement #6): updating a
//! single node field rewrites the whole object.
//!
//! Every stored object carries a [`Tag`], a fresh value per PUT (an S3
//! ETag, a Cloud Storage generation), returned by [`ObjectStore::put`]
//! and [`ObjectStore::get`]. A conditional PUT ([`ObjectStore::put_if`])
//! writes only if the stored object still has the tag the writer names
//! (`If-Match`), or only if there is no object yet (`If-None-Match: *`);
//! otherwise it fails with 412 and changes nothing. A writer that knows
//! the current tag therefore needs no download to replace an object
//! safely; one that does not must download it first — the read half of
//! the leader's read-modify-write in Figure 9 and Table 3.
//!
//! A tag changes whenever a key's stored bytes change and is never
//! reused for different bytes of that key: that is all `If-Match`
//! needs. Here tags are per-bucket counters; a node-local store can
//! instead name its bytes by their hash ([`content_tag`]), since equal
//! tags then mean equal bytes.

use crate::chaos::{Chaos, FaultKind};
use crate::error::{CloudError, CloudResult};
use crate::metering::Meter;
use crate::ops::Op;
use crate::region::Region;
use crate::trace::Ctx;
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// An object's entity tag: unique per PUT within its bucket, never 0.
pub type Tag = u64;

/// The tag a store that keeps no tag of its own gives `bytes`: a 64-bit
/// hash of them (FNV-1a), never 0. It is a pure function of the bytes,
/// so it survives a restart and changes no stored byte.
pub fn content_tag(bytes: &[u8]) -> Tag {
    crate::queue::fnv1a(bytes, 0).max(1)
}

/// The precondition of a conditional PUT ([`ObjectStore::put_if`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precondition {
    /// `If-Match`: the stored object carries this tag.
    IfMatch(Tag),
    /// `If-None-Match: *`: no object is stored under the key.
    IfNoneMatch,
}

impl Precondition {
    /// True if the precondition holds for a key whose stored value has
    /// tag `current` (`None`: nothing stored).
    pub fn holds(self, current: Option<Tag>) -> bool {
        match self {
            Precondition::IfMatch(tag) => current == Some(tag),
            Precondition::IfNoneMatch => current.is_none(),
        }
    }
}

struct Inner {
    name: String,
    region: Region,
    meter: Meter,
    objects: RwLock<BTreeMap<String, (Bytes, Tag)>>,
    /// The last tag handed out: every PUT of the bucket takes the next.
    last_tag: AtomicU64,
    max_object_bytes: usize,
    chaos: OnceLock<Arc<Chaos>>,
}

/// A bucket in the simulated object store. Cloning shares the bucket.
#[derive(Clone)]
pub struct ObjectStore {
    inner: Arc<Inner>,
}

impl ObjectStore {
    /// Creates a bucket (S3-like 5 TB object limit — effectively unbounded
    /// for ZooKeeper nodes, which the paper caps at 1 MB).
    pub fn new(name: impl Into<String>, region: Region, meter: Meter) -> Self {
        ObjectStore {
            inner: Arc::new(Inner {
                name: name.into(),
                region,
                meter,
                objects: RwLock::new(BTreeMap::new()),
                last_tag: AtomicU64::new(0),
                max_object_bytes: 5 * 1024 * 1024 * 1024,
                chaos: OnceLock::new(),
            }),
        }
    }

    /// Installs the chaos engine on this bucket (at most once).
    pub fn install_chaos(&self, chaos: Arc<Chaos>) {
        let _ = self.inner.chaos.set(chaos);
    }

    /// The bucket's usage meter.
    pub fn meter(&self) -> &Meter {
        &self.inner.meter
    }

    /// Rolls the transient-error fault point; a firing request is still
    /// billed and charged (the round trip happened, the service said
    /// 503), and no object state changed.
    fn chaos_error(&self, ctx: &Ctx, op: Op) -> CloudResult<()> {
        let Some(chaos) = self.inner.chaos.get() else {
            return Ok(());
        };
        if chaos.fire(ctx, FaultKind::ObjError) {
            self.inner.meter.fault_injected(FaultKind::ObjError.label());
            ctx.charge_to(op, 1, self.inner.region);
            return Err(chaos.error(FaultKind::ObjError));
        }
        Ok(())
    }

    /// Bucket name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Region the bucket lives in.
    pub fn region(&self) -> Region {
        self.inner.region
    }

    /// Stores a whole object (create or replace); returns its new tag.
    pub fn put(&self, ctx: &Ctx, key: &str, data: Bytes) -> CloudResult<Tag> {
        self.store(ctx, key, data, None)
    }

    /// Stores a whole object if `precondition` holds and returns its new
    /// tag. A failed precondition (412) is
    /// [`CloudError::ConditionFailed`]: the object is unchanged, and the
    /// request is billed and charged as a PUT, counted under
    /// `obj_put_412`. Injected faults roll before the precondition is
    /// evaluated, as for every other request: `obj_error` fails the
    /// request, and `obj_tag_race` lands a rival PUT of the same bytes
    /// first, so the object the precondition sees has a fresh tag.
    pub fn put_if(
        &self,
        ctx: &Ctx,
        key: &str,
        data: Bytes,
        precondition: Precondition,
    ) -> CloudResult<Tag> {
        self.store(ctx, key, data, Some(precondition))
    }

    fn store(
        &self,
        ctx: &Ctx,
        key: &str,
        data: Bytes,
        precondition: Option<Precondition>,
    ) -> CloudResult<Tag> {
        if data.len() > self.inner.max_object_bytes {
            return Err(CloudError::PayloadTooLarge {
                size: data.len(),
                limit: self.inner.max_object_bytes,
            });
        }
        self.chaos_error(ctx, Op::ObjPut)?;
        let size = data.len();
        let mut objects = self.inner.objects.write();
        if let (Some(chaos), Some(_)) = (self.inner.chaos.get(), precondition) {
            let raced = objects.get_mut(key);
            if let Some(object) = raced.filter(|_| chaos.fire(ctx, FaultKind::ObjTagRace)) {
                let label = FaultKind::ObjTagRace.label();
                self.inner.meter.fault_injected(label);
                object.1 = self.next_tag();
            }
        }
        let current = objects.get(key).map(|(_, tag)| *tag);
        if precondition.is_some_and(|precondition| !precondition.holds(current)) {
            drop(objects);
            self.inner.meter.obj_put_failed();
            ctx.charge_to(Op::ObjPut, size, self.inner.region);
            return Err(CloudError::ConditionFailed {
                detail: format!(
                    "412 {precondition:?} on {}/{key} (stored: {current:?})",
                    self.inner.name
                ),
            });
        }
        let tag = self.next_tag();
        let old = objects.insert(key.to_owned(), (data, tag));
        drop(objects);
        let old_size = old.map(|(b, _)| b.len()).unwrap_or(0);
        self.inner.meter.obj_put();
        self.inner
            .meter
            .obj_stored_delta(size as i64 - old_size as i64);
        ctx.charge_to(Op::ObjPut, size, self.inner.region);
        Ok(tag)
    }

    fn next_tag(&self) -> Tag {
        self.inner.last_tag.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Fetches a whole object and its tag.
    pub fn get(&self, ctx: &Ctx, key: &str) -> CloudResult<(Bytes, Tag)> {
        self.chaos_error(ctx, Op::ObjGet)?;
        let object = self.inner.objects.read().get(key).cloned();
        self.inner.meter.obj_get();
        match object {
            Some((bytes, tag)) => {
                ctx.charge_to(Op::ObjGet, bytes.len(), self.inner.region);
                Ok((bytes, tag))
            }
            None => {
                ctx.charge_to(Op::ObjGet, 1, self.inner.region);
                Err(CloudError::NotFound {
                    key: format!("{}/{key}", self.inner.name),
                })
            }
        }
    }

    /// Deletes an object (idempotent, like S3). Metered as a DELETE,
    /// which object stores do not bill.
    pub fn delete(&self, ctx: &Ctx, key: &str) -> CloudResult<()> {
        self.chaos_error(ctx, Op::ObjDelete)?;
        let old = self.inner.objects.write().remove(key);
        let old_size = old.map(|(b, _)| b.len()).unwrap_or(0);
        self.inner.meter.obj_delete();
        self.inner.meter.obj_stored_delta(-(old_size as i64));
        ctx.charge_to(Op::ObjDelete, old_size.max(1), self.inner.region);
        Ok(())
    }

    /// Lists keys with the given prefix.
    pub fn list(&self, ctx: &Ctx, prefix: &str) -> Vec<String> {
        let keys: Vec<String> = self
            .inner
            .objects
            .read()
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect();
        self.inner.meter.obj_get();
        ctx.charge_to(
            Op::ObjGet,
            keys.iter().map(String::len).sum::<usize>().max(1),
            self.inner.region,
        );
        keys
    }

    /// Fetches every object whose key starts with `prefix`, sorted by
    /// key: one LIST round trip plus one GET per matched object (the
    /// billing shape of an S3 prefix sweep). Fault injection rolls once,
    /// like a single GET — the sweep is one logical storage operation to
    /// the retry layer.
    pub fn get_prefix(&self, ctx: &Ctx, prefix: &str) -> CloudResult<Vec<(String, Bytes)>> {
        self.chaos_error(ctx, Op::ObjGet)?;
        let matched: Vec<(String, Bytes)> = self
            .inner
            .objects
            .read()
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, (v, _))| (k.clone(), v.clone()))
            .collect();
        // The LIST.
        self.inner.meter.obj_get();
        ctx.charge_to(
            Op::ObjGet,
            matched.iter().map(|(k, _)| k.len()).sum::<usize>().max(1),
            self.inner.region,
        );
        // One GET per object.
        for (_, bytes) in &matched {
            self.inner.meter.obj_get();
            ctx.charge_to(Op::ObjGet, bytes.len().max(1), self.inner.region);
        }
        Ok(matched)
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.inner.objects.read().len()
    }

    /// True if the bucket is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bucket() -> (ObjectStore, Ctx, Meter) {
        let meter = Meter::new();
        (
            ObjectStore::new("user-data", Region::US_EAST_1, meter.clone()),
            Ctx::disabled(),
            meter,
        )
    }

    #[test]
    fn put_get_roundtrip() {
        let (os, ctx, _) = bucket();
        os.put(&ctx, "/node/a", Bytes::from_static(b"hello"))
            .unwrap();
        assert_eq!(os.get(&ctx, "/node/a").unwrap().0.as_ref(), b"hello");
    }

    #[test]
    fn get_missing_is_not_found() {
        let (os, ctx, _) = bucket();
        assert!(os.get(&ctx, "/nope").unwrap_err().is_not_found());
    }

    #[test]
    fn put_replaces_whole_object() {
        let (os, ctx, _) = bucket();
        os.put(&ctx, "k", Bytes::from_static(b"aaaa")).unwrap();
        os.put(&ctx, "k", Bytes::from_static(b"b")).unwrap();
        assert_eq!(os.get(&ctx, "k").unwrap().0.as_ref(), b"b");
    }

    #[test]
    fn delete_is_idempotent() {
        let (os, ctx, _) = bucket();
        os.put(&ctx, "k", Bytes::from_static(b"x")).unwrap();
        os.delete(&ctx, "k").unwrap();
        os.delete(&ctx, "k").unwrap();
        assert!(os.get(&ctx, "k").unwrap_err().is_not_found());
    }

    #[test]
    fn list_by_prefix() {
        let (os, ctx, _) = bucket();
        for k in ["/a/1", "/a/2", "/b/1"] {
            os.put(&ctx, k, Bytes::from_static(b"x")).unwrap();
        }
        assert_eq!(
            os.list(&ctx, "/a/"),
            vec!["/a/1".to_owned(), "/a/2".to_owned()]
        );
        assert_eq!(os.list(&ctx, "/c/").len(), 0);
    }

    #[test]
    fn metering_tracks_ops_and_footprint() {
        let (os, ctx, meter) = bucket();
        os.put(&ctx, "k", Bytes::from(vec![0u8; 100])).unwrap();
        os.get(&ctx, "k").unwrap();
        os.put(&ctx, "k", Bytes::from(vec![0u8; 40])).unwrap();
        let s = meter.snapshot();
        assert_eq!(s.obj_puts, 2);
        assert_eq!(s.obj_gets, 1);
        assert_eq!(s.obj_bytes_stored, 40);
    }

    #[test]
    fn every_put_gets_a_fresh_tag_and_get_returns_it() {
        let (os, ctx, _) = bucket();
        let first = os.put(&ctx, "k", Bytes::from_static(b"a")).unwrap();
        let other = os.put(&ctx, "j", Bytes::from_static(b"a")).unwrap();
        let second = os.put(&ctx, "k", Bytes::from_static(b"a")).unwrap();
        assert!(first != 0 && first != second && other != second);
        assert_eq!(
            os.get(&ctx, "k").unwrap(),
            (Bytes::from_static(b"a"), second)
        );
    }

    #[test]
    fn if_match_writes_only_over_the_named_tag() {
        let (os, ctx, meter) = bucket();
        let tag = os.put(&ctx, "k", Bytes::from_static(b"a")).unwrap();
        let next = os
            .put_if(
                &ctx,
                "k",
                Bytes::from_static(b"b"),
                Precondition::IfMatch(tag),
            )
            .unwrap();
        assert_eq!(os.get(&ctx, "k").unwrap(), (Bytes::from_static(b"b"), next));

        // The stale tag: 412, the object is unchanged, and the request is
        // billed as a PUT under its own label.
        let before = meter.snapshot();
        let stale = Precondition::IfMatch(tag);
        let err = os
            .put_if(&ctx, "k", Bytes::from_static(b"c"), stale)
            .unwrap_err();
        assert!(err.is_condition_failed(), "{err}");
        assert_eq!(os.get(&ctx, "k").unwrap(), (Bytes::from_static(b"b"), next));
        let used = meter.snapshot().since(&before);
        assert_eq!(used.obj_puts, 1, "a 412 bills as a PUT");
        assert_eq!(used.per_op["obj_put_412"], 1);
        assert_eq!(used.per_op.get("obj_put").copied().unwrap_or(0), 0);
        // A missing object matches no tag.
        let missing = os.put_if(&ctx, "m", Bytes::new(), Precondition::IfMatch(next));
        assert!(missing.unwrap_err().is_condition_failed());
        assert!(os.get(&ctx, "m").unwrap_err().is_not_found());
    }

    #[test]
    fn if_none_match_creates_only() {
        let (os, ctx, _) = bucket();
        let tag = os
            .put_if(
                &ctx,
                "k",
                Bytes::from_static(b"a"),
                Precondition::IfNoneMatch,
            )
            .unwrap();
        let again = os.put_if(
            &ctx,
            "k",
            Bytes::from_static(b"b"),
            Precondition::IfNoneMatch,
        );
        assert!(again.unwrap_err().is_condition_failed());
        assert_eq!(os.get(&ctx, "k").unwrap(), (Bytes::from_static(b"a"), tag));
        // After a delete the key is free again.
        os.delete(&ctx, "k").unwrap();
        os.put_if(
            &ctx,
            "k",
            Bytes::from_static(b"c"),
            Precondition::IfNoneMatch,
        )
        .unwrap();
    }

    #[test]
    fn injected_faults_roll_before_the_precondition() {
        use crate::chaos::{FaultPlan, FaultSpec};
        let (os, ctx, meter) = bucket();
        let tag = os.put(&ctx, "k", Bytes::from_static(b"a")).unwrap();
        let mut plan = FaultPlan::disabled();
        plan.obj_error = FaultSpec::new(1.0, 1);
        os.install_chaos(Chaos::from_plan(plan).expect("one fault point armed"));
        let put = || {
            os.put_if(
                &ctx,
                "k",
                Bytes::from_static(b"b"),
                Precondition::IfMatch(tag),
            )
        };
        let err = put().unwrap_err();
        assert!(err.is_retryable() && !err.is_condition_failed(), "{err}");
        assert_eq!(meter.snapshot().per_op.get("obj_put_412"), None);
        // The retry names the same tag and lands: the fault changed nothing.
        put().unwrap();
        assert_eq!(os.get(&ctx, "k").unwrap().0.as_ref(), b"b");
    }

    #[test]
    fn a_delete_is_metered_as_a_delete_not_a_put() {
        let (os, ctx, meter) = bucket();
        os.put(&ctx, "k", Bytes::from_static(b"x")).unwrap();
        let before = meter.snapshot();
        os.delete(&ctx, "k").unwrap();
        os.delete(&ctx, "k").unwrap();
        let used = meter.snapshot().since(&before);
        assert_eq!((used.obj_deletes, used.obj_puts), (2, 0));
    }
}
