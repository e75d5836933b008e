//! Mixed-version store integration: user stores populated with legacy
//! JSON records **mid-run** keep serving reads, RMW merges, client
//! sessions and distributor epochs — and converge to the binary frame as
//! records are rewritten. This is the system-level half of the codec's
//! no-flag-day claim (the pointwise half is `codec_properties.rs`).

use bytes::Bytes;
use fk_cloud::metering::Meter;
use fk_cloud::trace::Ctx;
use fk_cloud::{KvStore, MemStore, ObjectStore, Region};
use fk_core::codec;
use fk_core::distributor::{CommittedTx, Distributor, DistributorConfig};
use fk_core::messages::{LeaderRecord, Payload, SystemCommit, UserUpdate};
use fk_core::system_store::{keys, node_attr, SystemStore};
use fk_core::user_store::{MemUserStore, NodeRecord, ObjUserStore, UserStore};
use std::sync::Arc;

fn legacy_record(path: &str, data: &[u8], children: Vec<String>, txid: u64) -> NodeRecord {
    NodeRecord {
        path: path.to_owned(),
        data: Bytes::copy_from_slice(data),
        created_txid: 1,
        modified_txid: txid,
        version: 0,
        children: Arc::new(children),
        children_txid: txid,
        ephemeral_owner: None,
        epoch_marks: Arc::new(vec![]),
    }
}

/// Seeds `record` into `bucket` in the **legacy JSON encoding**, exactly
/// as a pre-codec deployment left it.
fn seed_legacy(ctx: &Ctx, bucket: &ObjectStore, record: &NodeRecord) {
    let json = codec::encode_node_json(record);
    assert!(!codec::is_binary(&json));
    bucket.put(ctx, &record.path, json).unwrap();
}

#[test]
fn object_store_reads_and_rewrites_legacy_records() {
    let ctx = Ctx::disabled();
    let meter = Meter::new();
    let bucket = ObjectStore::new("mixed", Region::US_EAST_1, meter);
    let store = ObjUserStore::new(bucket.clone());

    let old = legacy_record("/cfg", b"pre-upgrade", vec!["a".into()], 7);
    seed_legacy(&ctx, &bucket, &old);

    // Mid-run read of the legacy blob decodes transparently.
    let read = store.read_node(&ctx, "/cfg").unwrap().unwrap();
    assert_eq!(read, old);

    // A rewrite (the object backend's RMW) re-encodes as a binary frame.
    let mut newer = read.clone();
    newer.data = Bytes::from_static(b"post-upgrade");
    newer.modified_txid = 9;
    store.write_node(&ctx, &newer).unwrap();
    let stored = bucket.get(&ctx, "/cfg").unwrap();
    assert!(codec::is_binary(&stored), "rewrites converge to the frame");
    assert_eq!(store.read_node(&ctx, "/cfg").unwrap().unwrap(), newer);
}

#[test]
fn distributor_epoch_merges_into_a_mixed_store() {
    let ctx = Ctx::disabled();
    let meter = Meter::new();
    let system_kv = KvStore::new("system", Region::US_EAST_1, meter.clone());
    let system = SystemStore::new(system_kv, 5_000);
    let bucket = ObjectStore::new("user-obj", Region::US_EAST_1, meter.clone());
    let stores: Vec<Arc<dyn UserStore>> = vec![
        Arc::new(ObjUserStore::new(bucket.clone())),
        Arc::new(MemUserStore::new(MemStore::new(
            Region::US_WEST_2,
            meter.clone(),
        ))),
    ];

    // Both replicas hold the parent as a pre-codec JSON record; the mem
    // replica through its own put path.
    let parent = legacy_record("/app", b"root", vec!["old".into()], 3);
    seed_legacy(&ctx, &bucket, &parent);
    stores[1].write_node(&ctx, &parent).unwrap();
    // The parent exists in system storage (the stub-resurrection check
    // consults it).
    system
        .kv()
        .put(
            &ctx,
            &keys::node("/app"),
            fk_cloud::Item::new().with(node_attr::CREATED, 3i64),
            fk_cloud::Condition::Always,
        )
        .unwrap();

    // One committed create of /app/new distributes: the child's record
    // is written fresh and the *legacy* parent record is read, its
    // children list rewritten, and stored back — across both replicas.
    let record = LeaderRecord {
        session_id: "s".into(),
        request_id: 1,
        txid: 10,
        prev_txid: 0,
        path: "/app/new".into(),
        commit: SystemCommit::default(),
        user_update: UserUpdate::WriteNode {
            path: "/app/new".into(),
            payload: Payload::inline(b"fresh"),
            created_txid: 0,
            version: 0,
            children: vec![],
            ephemeral_owner: None,
            parent_children: Some(("/app".into(), vec!["old".into(), "new".into()])),
        },
        stat: fk_core::Stat::default(),
        fires: vec![],
        is_delete: false,
        deregister_session: false,
        ops: vec![],
    };
    let distributor = Distributor::new(system, stores.clone(), DistributorConfig::new(2, 8));
    let tx = CommittedTx {
        msg_index: 0,
        txid: 10,
        record: &record,
        data: Bytes::from_static(b"fresh"),
        multi_data: vec![],
        ahead: false,
    };
    let marks = distributor.epoch_marks(&ctx);
    distributor.apply_epoch(&ctx, &[tx], &marks).unwrap();

    for store in &stores {
        let child = store.read_node(&ctx, "/app/new").unwrap().unwrap();
        assert_eq!(child.data.as_ref(), b"fresh");
        let merged = store.read_node(&ctx, "/app").unwrap().unwrap();
        assert_eq!(
            *merged.children,
            vec!["old".to_owned(), "new".to_owned()],
            "legacy parent's list rewritten in place"
        );
        assert_eq!(merged.data.as_ref(), b"root", "legacy payload preserved");
        assert_eq!(merged.children_txid, 10);
    }
    // The object replica's parent now carries the binary frame.
    assert!(codec::is_binary(&bucket.get(&ctx, "/app").unwrap()));
}

#[test]
fn client_session_reads_legacy_records_through_the_cache() {
    use fk_core::notify::ClientBus;
    use fk_core::read_cache::ReadCacheConfig;
    use fk_core::{ClientConfig, FkClient};

    let ctx = Ctx::disabled();
    let meter = Meter::new();
    let system = SystemStore::new(
        KvStore::new("system", Region::US_EAST_1, meter.clone()),
        5_000,
    );
    let bucket = ObjectStore::new("user", Region::US_EAST_1, meter.clone());
    let legacy = legacy_record("/legacy", b"written-before-the-upgrade", vec![], 5);
    seed_legacy(&ctx, &bucket, &legacy);

    let client = FkClient::connect(
        ClientConfig::new("mixed-session").with_read_cache(ReadCacheConfig::with_capacity(8)),
        ctx.fork(),
        system,
        Arc::new(ObjUserStore::new(bucket)),
        ObjectStore::new("staging", Region::US_EAST_1, meter.clone()),
        fk_cloud::Queue::new(
            "writes",
            fk_cloud::QueueKind::Fifo,
            Region::US_EAST_1,
            meter,
        ),
        ClientBus::new(),
    )
    .unwrap();

    let (data, stat) = client.get_data("/legacy", false).unwrap();
    assert_eq!(data.as_ref(), b"written-before-the-upgrade");
    assert_eq!(stat.modified_txid, 5);
    // Second read is a cache hit over the decoded record — same answer.
    let (again, _) = client.get_data("/legacy", false).unwrap();
    assert_eq!(again, data);
    assert!(client.cache_stats().hits >= 1);
}
