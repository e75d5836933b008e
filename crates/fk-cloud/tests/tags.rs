//! Tags and conditional writes across the stores: the object store's
//! tag-race fault point, the memory cache's hash tags, and the key-value
//! table's tag counter across a durable recovery.

use bytes::Bytes;
use fk_cloud::objectstore::{content_tag, Precondition};
use fk_cloud::{
    Chaos, Condition, Ctx, FaultPlan, FaultSpec, Item, KvStore, MemStore, Meter, ObjectStore,
    Region,
};
use std::sync::Arc;

#[test]
fn a_tag_race_restamps_the_same_bytes_and_fails_the_if_match() {
    let (meter, ctx) = (Meter::new(), Ctx::disabled());
    let os = ObjectStore::new("b", Region::US_EAST_1, meter.clone());
    let tag = os.put(&ctx, "k", Bytes::from_static(b"a")).unwrap();
    let mut plan = FaultPlan::disabled();
    plan.obj_tag_race = FaultSpec::new(1.0, 1);
    os.install_chaos(Chaos::from_plan(plan).expect("one fault point armed"));
    let put = |key: &str, data: &'static [u8], precondition| {
        os.put_if(&ctx, key, Bytes::from_static(data), precondition)
    };
    // No stored object, nothing to race: the roll is not drawn.
    put("new", b"", Precondition::IfNoneMatch).unwrap();
    let err = put("k", b"b", Precondition::IfMatch(tag)).unwrap_err();
    assert!(err.is_condition_failed(), "{err}");
    let (bytes, fresh) = os.get(&ctx, "k").unwrap();
    assert_eq!((bytes.as_ref(), fresh != tag), (&b"a"[..], true));
    assert_eq!(meter.snapshot().per_op["fault:obj_tag_race"], 1);
    // The writer re-reads and names the fresh tag.
    put("k", b"b", Precondition::IfMatch(fresh)).unwrap();
    assert_eq!(os.get(&ctx, "k").unwrap().0.as_ref(), b"b");
}

#[test]
fn the_cache_checks_the_stored_bytes_hash() {
    let (ms, ctx) = (
        MemStore::new(Region::US_EAST_1, Meter::new()),
        Ctx::disabled(),
    );
    let put = |data: &'static [u8], precondition| {
        ms.put_if(&ctx, "k", Bytes::from_static(data), precondition)
    };
    let tag = put(b"a", Precondition::IfNoneMatch).unwrap();
    assert_eq!(tag, content_tag(b"a"));
    assert!(put(b"b", Precondition::IfNoneMatch).is_err());
    let next = put(b"b", Precondition::IfMatch(tag)).unwrap();
    let stale = put(b"c", Precondition::IfMatch(tag)).unwrap_err();
    assert!(stale.is_condition_failed());
    assert_eq!(
        (ms.get(&ctx, "k").unwrap().as_ref(), next),
        (&b"b"[..], content_tag(b"b"))
    );
}

#[test]
fn fresh_tags_resume_above_the_recovered_ones() {
    let dev = fk_store::SimStorage::new();
    let open = || {
        let lsm = fk_store::Lsm::open(Arc::new(dev.clone()), Default::default()).unwrap();
        let kv = KvStore::new("durable", Region::US_EAST_1, Meter::new());
        kv.attach_durable(lsm).unwrap();
        kv
    };
    let kv = open();
    assert_eq!((kv.fresh_tag(), kv.fresh_tag()), (1, 2));
    let item = Item::new().with(fk_cloud::kvstore::TAG_ATTR, 7i64);
    kv.put(&Ctx::disabled(), "a", item, Condition::Always)
        .unwrap();
    drop(kv);
    dev.crash();
    assert_eq!(open().fresh_tag(), 8);
}
