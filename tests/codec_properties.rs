//! Property-based round-trip suite for the binary codec (`fk_core::codec`).
//!
//! Arbitrary records (empty and megabyte data payloads, deep children
//! lists, ephemeral owners, extreme txids, unicode paths) encode to the
//! varint frame and decode back bit-identically, for every record kind
//! the codec covers; a frame truncated anywhere decodes to `None`.

use bytes::Bytes;
use fk_core::api::{CreateMode, Stat, WatchEvent, WatchEventType};
use fk_core::codec;
use fk_core::messages::{
    ClientRequest, CommitItem, FiredWatch, LeaderRecord, MultiOp, MultiSub, OpOutcome, Payload,
    SerValue, SystemCommit, UserUpdate, WriteOp,
};
use fk_core::user_store::NodeRecord;
use fk_core::watch_fn::WatchTask;
use proptest::prelude::*;
use std::sync::Arc;

// ----------------------------------------------------------------------
// Strategies
// ----------------------------------------------------------------------

/// Lowercase names of bounded length (node names, session ids).
fn name() -> impl Strategy<Value = String> {
    collection::vec(0u8..26, 1..12)
        .prop_map(|v| v.into_iter().map(|c| (b'a' + c) as char).collect())
}

/// Paths: a few segments, occasionally unicode.
fn path() -> impl Strategy<Value = String> {
    prop_oneof![
        collection::vec(name(), 1..5).prop_map(|segs| format!("/{}", segs.join("/"))),
        Just("/ünïcode/☃/päth".to_owned()),
        Just("/".to_owned()),
    ]
}

/// Data payloads: empty, small random, and the 1 MB extreme.
fn data() -> impl Strategy<Value = Bytes> {
    prop_oneof![
        Just(Bytes::new()),
        (1usize..4096, 0u8..=255).prop_map(|(len, fill)| {
            // Patterned but position-dependent bytes, so truncation or
            // offset bugs cannot cancel out.
            Bytes::from((0..len).map(|i| fill ^ (i as u8)).collect::<Vec<u8>>())
        }),
        (0u8..=255).prop_map(|fill| Bytes::from(vec![fill; 1 << 20])),
    ]
}

/// Children lists, up to deep ones.
fn children() -> impl Strategy<Value = Vec<String>> {
    prop_oneof![
        Just(Vec::new()),
        collection::vec(name(), 1..8),
        collection::vec(name(), 48..96),
    ]
}

fn txid() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1000, Just(u64::MAX), Just((1 << 40) | 7)]
}

fn node_record() -> impl Strategy<Value = NodeRecord> {
    (
        (path(), data(), txid(), txid()),
        (-3i32..1000, children(), txid()),
        (
            prop_oneof![Just(None), name().prop_map(Some)],
            collection::vec(txid(), 0..6),
        ),
    )
        .prop_map(
            |(
                (path, data, created_txid, modified_txid),
                (version, children, children_txid),
                (ephemeral_owner, epoch_marks),
            )| NodeRecord {
                path,
                data,
                created_txid,
                modified_txid,
                version,
                children: Arc::new(children),
                children_txid,
                ephemeral_owner,
                epoch_marks: Arc::new(epoch_marks),
            },
        )
}

fn payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        data().prop_map(|data| Payload::Inline { data }),
        (name(), 0usize..1_000_000).prop_map(|(key, len)| Payload::Staged {
            key: format!("staging/{key}"),
            len,
        }),
    ]
}

fn ser_value() -> impl Strategy<Value = SerValue> {
    prop_oneof![
        (-1_000_000i64..1_000_000).prop_map(SerValue::Num),
        Just(SerValue::Num(i64::MIN)),
        name().prop_map(SerValue::Str),
        collection::vec(-50i64..50, 0..6).prop_map(SerValue::NumList),
        Just(SerValue::Txid),
        Just(SerValue::TxidList),
        (name(), prop_oneof![Just(false), Just(true)])
            .prop_map(|(name, added)| SerValue::TxidChild { name, added }),
    ]
}

fn commit() -> impl Strategy<Value = SystemCommit> {
    collection::vec(
        (
            (path(), -5000i64..5000),
            collection::vec((name(), ser_value()), 0..4),
            collection::vec((name(), ser_value()), 0..3),
            collection::vec(name(), 0..3),
        )
            .prop_map(|((key, lock_ts), sets, appends, removes)| CommitItem {
                key: format!("node:{key}"),
                lock_ts,
                sets,
                appends,
                removes,
            }),
        0..4,
    )
    .prop_map(|items| SystemCommit { items })
}

fn event_type() -> impl Strategy<Value = WatchEventType> {
    prop_oneof![
        Just(WatchEventType::NodeCreated),
        Just(WatchEventType::NodeDataChanged),
        Just(WatchEventType::NodeDeleted),
        Just(WatchEventType::NodeChildrenChanged),
    ]
}

fn create_mode() -> impl Strategy<Value = CreateMode> {
    prop_oneof![
        Just(CreateMode::Persistent),
        Just(CreateMode::Ephemeral),
        Just(CreateMode::PersistentSequential),
        Just(CreateMode::EphemeralSequential),
    ]
}

fn user_update() -> impl Strategy<Value = UserUpdate> {
    prop_oneof![
        (
            (path(), payload(), txid(), -1i32..500),
            (
                prop_oneof![Just(false), Just(true)],
                prop_oneof![Just(None), name().prop_map(Some)],
                prop_oneof![Just(false), Just(true)],
            ),
        )
            .prop_map(
                |(
                    (path, payload, created_txid, version),
                    (has_children, ephemeral_owner, joins_parent),
                )| UserUpdate::WriteNode {
                    path,
                    payload,
                    created_txid,
                    version,
                    has_children,
                    ephemeral_owner,
                    joins_parent,
                },
            ),
        path().prop_map(|path| UserUpdate::DeleteNode { path }),
        Just(UserUpdate::None),
    ]
}

fn stat() -> impl Strategy<Value = Stat> {
    ((txid(), txid()), (-2i32..500, 0u32..64, 0u32..1_000_000)).prop_map(
        |((created_txid, modified_txid), (version, num_children, data_length))| Stat {
            created_txid,
            modified_txid,
            version,
            num_children,
            data_length,
            ephemeral: (data_length & 1) == 1,
        },
    )
}

fn op_outcome() -> impl Strategy<Value = OpOutcome> {
    prop_oneof![
        (path(), stat()).prop_map(|(path, stat)| OpOutcome::Created { path, stat }),
        (path(), stat()).prop_map(|(path, stat)| OpOutcome::Set { path, stat }),
        path().prop_map(|path| OpOutcome::Deleted { path }),
        stat().prop_map(|stat| OpOutcome::Checked { stat }),
    ]
}

fn multi_sub() -> impl Strategy<Value = MultiSub> {
    (
        (path(), user_update(), (0u8..2).prop_map(|b| b == 1)),
        (collection::vec((path(), event_type()), 0..3), op_outcome()),
    )
        .prop_map(
            |((path, user_update, is_delete), (fires, outcome))| MultiSub {
                path,
                user_update,
                fires: fires
                    .into_iter()
                    .map(|(watch_path, event_type)| FiredWatch {
                        watch_path,
                        event_type,
                    })
                    .collect(),
                is_delete,
                outcome,
            },
        )
}

/// The one record shape: 0..N subs, no node fields beside them.
fn leader_record() -> impl Strategy<Value = LeaderRecord> {
    (
        (name(), txid(), txid(), txid()),
        (
            commit(),
            (0u8..2).prop_map(|b| b == 1),
            collection::vec(multi_sub(), 0..4),
        ),
    )
        .prop_map(
            |((session_id, request_id, txid, prev_txid), (commit, deregister_session, ops))| {
                LeaderRecord {
                    session_id,
                    request_id,
                    txid,
                    prev_txid,
                    commit,
                    deregister_session,
                    ops,
                }
            },
        )
}

fn multi_op() -> impl Strategy<Value = MultiOp> {
    prop_oneof![
        (path(), payload(), create_mode()).prop_map(|(path, payload, mode)| MultiOp::Create {
            path,
            payload,
            mode,
        }),
        (path(), payload(), -1i32..100).prop_map(|(path, payload, expected_version)| {
            MultiOp::SetData {
                path,
                payload,
                expected_version,
            }
        }),
        (path(), -1i32..100).prop_map(|(path, expected_version)| MultiOp::Delete {
            path,
            expected_version,
        }),
        (path(), -1i32..100).prop_map(|(path, expected_version)| MultiOp::Check {
            path,
            expected_version,
        }),
    ]
}

fn client_request() -> impl Strategy<Value = ClientRequest> {
    let op = prop_oneof![
        (path(), payload(), create_mode()).prop_map(|(path, payload, mode)| WriteOp::Create {
            path,
            payload,
            mode,
        }),
        (path(), payload(), -1i32..100).prop_map(|(path, payload, expected_version)| {
            WriteOp::SetData {
                path,
                payload,
                expected_version,
            }
        }),
        (path(), -1i32..100).prop_map(|(path, expected_version)| WriteOp::Delete {
            path,
            expected_version,
        }),
        Just(WriteOp::CloseSession),
        collection::vec(multi_op(), 0..5).prop_map(|ops| WriteOp::Multi { ops }),
    ];
    (name(), txid(), op).prop_map(|(session_id, request_id, op)| ClientRequest {
        session_id,
        request_id,
        op,
    })
}

fn watch_task() -> impl Strategy<Value = WatchTask> {
    (
        (txid(), collection::vec(name(), 0..10)),
        (path(), event_type(), txid()),
        collection::vec(0u8..8, 0..4),
        prop_oneof![Just(None), collection::vec(name(), 0..6).prop_map(Some),],
    )
        .prop_map(
            |((watch_id, sessions), (path, event_type, txid), regions, children)| WatchTask {
                watch_id,
                sessions,
                event: WatchEvent {
                    watch_id,
                    path,
                    event_type,
                    txid,
                    children,
                },
                regions,
            },
        )
}

// ----------------------------------------------------------------------
// Properties
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn node_record_roundtrips(rec in node_record()) {
        let bin = codec::encode_node(&rec);
        prop_assert_eq!(codec::decode_node(&bin).as_ref(), Some(&rec));
    }

    /// Truncating a frame anywhere decodes to `None`, never a panic or a
    /// silently wrong record. (Boundaries sampled, all for small frames.)
    #[test]
    fn truncated_node_frames_fail_cleanly(rec in node_record()) {
        let bin = codec::encode_node(&rec);
        let step = (bin.len() / 64).max(1);
        for cut in (0..bin.len()).step_by(step) {
            prop_assert!(codec::decode_node(&bin[..cut]).is_none());
        }
    }

    #[test]
    fn leader_record_roundtrips(rec in leader_record()) {
        let bin = rec.encode();
        prop_assert_eq!(LeaderRecord::decode(&bin).as_ref(), Some(&rec));
    }

    #[test]
    fn client_request_roundtrips(req in client_request()) {
        let bin = req.encode();
        prop_assert_eq!(ClientRequest::decode(&bin).as_ref(), Some(&req));
    }

    #[test]
    fn watch_task_roundtrips(task in watch_task()) {
        let bin = task.encode();
        prop_assert_eq!(WatchTask::decode(&bin).as_ref(), Some(&task));
    }
}
