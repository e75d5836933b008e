//! Wire messages between the client, follower, leader and watch functions.
//!
//! Clients submit [`ClientRequest`]s to the session write queue; followers
//! transform them into [`LeaderRecord`]s pushed down the leader FIFO queue
//! (Algorithm 1 ➂). The record carries everything the leader needs to
//! *re-execute* the system-storage commit if the follower crashed between
//! push and commit (Algorithm 2 ➋, `TryCommit`) — lock tokens included.

use crate::api::{CreateMode, FkError, Stat};

/// A write operation submitted by a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// Create a node.
    Create {
        /// Requested path (sequential suffix not yet applied).
        path: String,
        /// Payload.
        payload: Payload,
        /// Creation mode.
        mode: CreateMode,
    },
    /// Replace a node's data.
    SetData {
        /// Node path.
        path: String,
        /// Payload.
        payload: Payload,
        /// Expected version (`-1` = unconditional).
        expected_version: i32,
    },
    /// Delete a node.
    Delete {
        /// Node path.
        path: String,
        /// Expected version (`-1` = unconditional).
        expected_version: i32,
    },
    /// Tear down the session: delete its ephemeral nodes, deregister it.
    /// Issued by the client on close and by the heartbeat function on
    /// eviction (§3.6).
    CloseSession,
    /// A ZooKeeper-style `multi` transaction: every op commits or none
    /// does, under one transaction id. The follower acquires all touched
    /// node locks as a sorted set, validates the ops in order against the
    /// locked state (each op observing its predecessors' effects), and
    /// commits the merged per-item updates in a single multi-item
    /// conditional transaction.
    Multi {
        /// The ops, applied in order.
        ops: Vec<MultiOp>,
    },
}

/// One operation of a `multi` transaction (ZooKeeper's `Op` set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiOp {
    /// Create a node.
    Create {
        /// Requested path (sequential suffix not yet applied).
        path: String,
        /// Payload.
        payload: Payload,
        /// Creation mode.
        mode: CreateMode,
    },
    /// Replace a node's data.
    SetData {
        /// Node path.
        path: String,
        /// Payload.
        payload: Payload,
        /// Expected version (`-1` = unconditional).
        expected_version: i32,
    },
    /// Delete a node.
    Delete {
        /// Node path.
        path: String,
        /// Expected version (`-1` = unconditional).
        expected_version: i32,
    },
    /// Assert a node's version without modifying it (ZooKeeper `check`).
    Check {
        /// Node path.
        path: String,
        /// Expected version (`-1` = existence only).
        expected_version: i32,
    },
}

impl MultiOp {
    /// The path this op targets.
    pub fn path(&self) -> &str {
        match self {
            MultiOp::Create { path, .. }
            | MultiOp::SetData { path, .. }
            | MultiOp::Delete { path, .. }
            | MultiOp::Check { path, .. } => path,
        }
    }
}

impl WriteOp {
    /// The primary path this operation touches (empty for CloseSession;
    /// the first op's path for a multi).
    pub fn path(&self) -> &str {
        match self {
            WriteOp::Create { path, .. }
            | WriteOp::SetData { path, .. }
            | WriteOp::Delete { path, .. } => path,
            WriteOp::CloseSession => "",
            WriteOp::Multi { ops } => ops.first().map(MultiOp::path).unwrap_or(""),
        }
    }
}

/// A client request as sent to the session write queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientRequest {
    /// Originating session.
    pub session_id: String,
    /// Client-assigned, per-session monotonic request id.
    pub request_id: u64,
    /// The operation.
    pub op: WriteOp,
}

impl ClientRequest {
    /// Serializes for the queue (binary frame, [`crate::codec`]).
    pub fn encode(&self) -> bytes::Bytes {
        crate::codec::encode_client_request(self)
    }

    /// Deserializes from a queue message body; `None` if it is not an
    /// exact client-request frame.
    pub fn decode(body: &[u8]) -> Option<Self> {
        crate::codec::decode_client_request(body)
    }
}

/// Serializable value subset used in commit descriptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerValue {
    /// Number.
    Num(i64),
    /// String.
    Str(String),
    /// List of numbers.
    NumList(Vec<i64>),
    /// Placeholder for the record's transaction id. Commits are serialized
    /// *before* the queue assigns the sequence number that becomes the
    /// txid (Algorithm 1 ➂), so txid-valued attributes use this marker and
    /// both the follower and a retrying leader substitute the real value.
    Txid,
    /// Placeholder for a single-element list holding the txid (the `txq`
    /// pending-transaction append).
    TxidList,
    /// Placeholder for a single-element list holding one pending
    /// children-log entry of the txid (the parent's
    /// [`crate::system_store::node_attr::PENDING_CHILDREN`] append).
    TxidChild {
        /// The child's name.
        name: String,
        /// `true` for a create, `false` for a delete.
        added: bool,
    },
}

impl SerValue {
    /// Converts to a cloud store value, substituting `txid` placeholders.
    pub fn to_value(&self, txid: u64) -> fk_cloud::Value {
        match self {
            SerValue::Num(n) => fk_cloud::Value::Num(*n),
            SerValue::Str(s) => fk_cloud::Value::Str(s.clone()),
            SerValue::NumList(l) => {
                fk_cloud::Value::List(l.iter().map(|n| fk_cloud::Value::Num(*n)).collect())
            }
            SerValue::Txid => fk_cloud::Value::Num(txid as i64),
            SerValue::TxidList => fk_cloud::Value::List(vec![fk_cloud::Value::Num(txid as i64)]),
            SerValue::TxidChild { name, added } => {
                let entry = crate::system_store::ChildEntry {
                    txid,
                    name: name.clone(),
                    added: *added,
                };
                fk_cloud::Value::List(vec![entry.to_value()])
            }
        }
    }
}

/// Node payload on the wire: inline bytes for normal nodes, or a pointer
/// to a temporary staging object for payloads exceeding queue message
/// limits — the paper's workaround for the 256 kB SQS cap (§4.4:
/// "splitting larger nodes and using temporary S3 objects").
///
/// Inline payloads are **raw bytes** in memory and in the binary queue
/// frame ([`crate::codec`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Payload carried in the message itself.
    Inline {
        /// The raw payload bytes (shared, not copied, across the
        /// follower → leader → distributor pipeline).
        data: bytes::Bytes,
    },
    /// Payload staged in the temporary-object bucket.
    Staged {
        /// Staging object key.
        key: String,
        /// Decoded payload length in bytes.
        len: usize,
    },
}

impl Payload {
    /// Builds an inline payload from raw bytes.
    pub fn inline(data: &[u8]) -> Self {
        Payload::Inline {
            data: bytes::Bytes::copy_from_slice(data),
        }
    }

    /// Payload length in bytes.
    pub fn byte_len(&self) -> usize {
        match self {
            Payload::Inline { data } => data.len(),
            Payload::Staged { len, .. } => *len,
        }
    }

    /// Approximate on-the-wire size in bytes (binary frame).
    pub fn wire_len(&self) -> usize {
        match self {
            Payload::Inline { data } => data.len(),
            Payload::Staged { key, .. } => key.len() + 16,
        }
    }
}

/// One item of a system-storage commit: a conditional update guarded by
/// the lock timestamp (the commit-and-unlock of Algorithm 1 ➃).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitItem {
    /// System-store key.
    pub key: String,
    /// Lock timestamp guarding the update.
    pub lock_ts: i64,
    /// Attributes to set.
    pub sets: Vec<(String, SerValue)>,
    /// List attributes to append to.
    pub appends: Vec<(String, SerValue)>,
    /// Attributes to remove (the lock itself is removed implicitly).
    pub removes: Vec<String>,
}

/// The full multi-item commit for one transaction (Z1: all items commit or
/// none — creates touch the node *and* its parent).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SystemCommit {
    /// The items, committed atomically.
    pub items: Vec<CommitItem>,
}

/// What the leader writes to the user store for this transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UserUpdate {
    /// Write (create or replace) the node record.
    WriteNode {
        /// Node path.
        path: String,
        /// Payload.
        payload: Payload,
        /// czxid; `0` means "this transaction" (creates).
        created_txid: u64,
        /// Data version counter after this change.
        version: i32,
        /// The node has children: the leader folds its list from the
        /// stored one and the node's pending children log. Otherwise it
        /// has none (every create, and a write of a childless node).
        has_children: bool,
        /// Owner session for ephemerals.
        ephemeral_owner: Option<String>,
        /// A create: the node joins its parent's children, a one-name
        /// delta ([`UserUpdate::child_delta`]).
        joins_parent: bool,
    },
    /// Delete the node record; the node leaves its parent's children.
    DeleteNode {
        /// Node path.
        path: String,
    },
    /// No user-store change (session deregistration records).
    None,
}

impl UserUpdate {
    /// The one-name change this update makes to its parent's children:
    /// `(parent, child path, added)`. A create adds its node, a delete
    /// removes it, anything else changes no list.
    pub fn child_delta(&self) -> Option<(&str, &str, bool)> {
        let (path, added) = match self {
            UserUpdate::WriteNode {
                path,
                joins_parent: true,
                ..
            } => (path, true),
            UserUpdate::DeleteNode { path } => (path, false),
            _ => return None,
        };
        Some((crate::path::parent(path)?, path, added))
    }
}

/// Per-op result data of one `multi` sub-operation, assembled by the
/// follower at validation time; the leader substitutes the transaction
/// id into the stats before notifying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome {
    /// A create succeeded.
    Created {
        /// Final path (sequential suffix applied).
        path: String,
        /// Node stat after the create (txids filled by the leader).
        stat: Stat,
    },
    /// A set_data succeeded.
    Set {
        /// Node path.
        path: String,
        /// Node stat after the write (modification txid filled by the
        /// leader).
        stat: Stat,
    },
    /// A delete succeeded.
    Deleted {
        /// Node path.
        path: String,
    },
    /// A version check passed (the observed stat, unmodified).
    Checked {
        /// The stat the check validated against.
        stat: Stat,
    },
}

/// One sub-operation of a committed write, carried in the leader
/// record: the user-store effect, the watches it fires, and the per-op
/// result reported back to the client. All subs share the record's
/// single transaction id — the distributor applies them as one
/// epoch-atomic unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiSub {
    /// Final path this sub touches.
    pub path: String,
    /// User-store effect (`None` for checks).
    pub user_update: UserUpdate,
    /// Watch classes this sub fires.
    pub fires: Vec<FiredWatch>,
    /// True if this sub deletes its node.
    pub is_delete: bool,
    /// Per-op result data for the client notification.
    pub outcome: OpOutcome,
}

impl MultiSub {
    /// True if this sub changes its node — every op but a version
    /// check. Only mutating subs enter their node's `txq`.
    pub fn mutates(&self) -> bool {
        !matches!(self.user_update, UserUpdate::None)
    }
}

/// A confirmed change pushed from a follower to the leader queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaderRecord {
    /// Originating session.
    pub session_id: String,
    /// Client request id (for the result notification).
    pub request_id: u64,
    /// The transaction id. A multi-group follower allocates it from the
    /// target shard group's epoch counter ([`crate::system_store::txid`])
    /// before the push, so the same id is committed to system storage
    /// and used by whichever leader instance distributes the record. A
    /// single-group follower sends `0`: its one queue totally orders
    /// every write, and the leader reads the txid off the message's
    /// sequence number.
    pub txid: u64,
    /// Txid of this session's previous write (`0` if none). A shard-group
    /// leader holds the record back until the session's distribution
    /// high-water mark reaches this value — the per-session cross-shard
    /// sequencing rule (Z2).
    pub prev_txid: u64,
    /// System-store commit to verify / retry.
    pub commit: SystemCommit,
    /// Session item to remove once processed (CloseSession final record).
    pub deregister_session: bool,
    /// The transaction's ops, in submission order: one for a single
    /// `create` / `set_data` / `delete`, one per op for a `multi`, none
    /// for a session deregistration. The distributor expands them into
    /// one epoch-atomic unit of effects.
    pub ops: Vec<MultiSub>,
}

/// A watch class fired by a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredWatch {
    /// Path whose watch registry should fire.
    pub watch_path: String,
    /// The event delivered to subscribers.
    pub event_type: crate::api::WatchEventType,
}

impl LeaderRecord {
    /// Serializes for the leader queue (binary frame, [`crate::codec`]).
    pub fn encode(&self) -> bytes::Bytes {
        crate::codec::encode_leader_record(self)
    }

    /// Deserializes from a queue message body; `None` if it is not an
    /// exact leader-record frame.
    pub fn decode(body: &[u8]) -> Option<Self> {
        crate::codec::decode_leader_record(body)
    }

    /// The record's primary path: its first mutating sub's (the node
    /// whose `txq` the leader's commit verification reads, and the
    /// route key of its shard group), or `""` when nothing mutates — a
    /// session deregistration.
    pub fn path(&self) -> &str {
        self.ops
            .iter()
            .find(|sub| sub.mutates())
            .map_or("", |sub| &sub.path)
    }

    /// Every watch class this record fires: the concatenation of the
    /// subs' lists, in op order (attribution order matters for the
    /// merged consume, see `merge_fires`).
    pub fn fires_all(&self) -> impl Iterator<Item = &FiredWatch> {
        self.ops.iter().flat_map(|sub| &sub.fires)
    }
}

/// Result payload of a successful write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteResultData {
    /// Per-op results in submission order, with transaction ids
    /// substituted: one for a single write, one per op for a `multi`,
    /// none for a session close.
    pub op_results: Vec<OpOutcome>,
}

impl WriteResultData {
    /// The paths whose client-side cached state this result obsoletes —
    /// write results double as read-cache invalidation payloads on the
    /// notification channel: every mutated path (a check obsoletes
    /// nothing, a session close names no node).
    pub fn invalidates(&self) -> impl Iterator<Item = &str> {
        self.op_results.iter().filter_map(|outcome| match outcome {
            OpOutcome::Created { path, .. }
            | OpOutcome::Set { path, .. }
            | OpOutcome::Deleted { path } => Some(path.as_str()),
            OpOutcome::Checked { .. } => None,
        })
    }
}

/// Notifications pushed to clients (replacing ZooKeeper's TCP channel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientNotification {
    /// Outcome of a submitted write.
    WriteResult {
        /// The request this answers.
        request_id: u64,
        /// Success payload or error.
        result: Result<WriteResultData, FkError>,
        /// Transaction id assigned (0 on failure).
        txid: u64,
    },
    /// A watch fired.
    Watch(crate::api::WatchEvent),
    /// Heartbeat ping (client must answer to keep the session alive).
    Ping {
        /// Heartbeat round identifier.
        round: u64,
        /// Piggybacked distributed-txid high-water mark (the min over
        /// shard groups of the leaders' published floors): every
        /// transaction with a txid at or below it is durable in every
        /// region, so the client may `fetch_max` it into its MRD — an
        /// idle session's cache and replica hits stay eligible without
        /// the session writing anything. `0` when the deployment does
        /// not publish floors (the piggyback is then a no-op).
        committed: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::WatchEventType;

    #[test]
    fn client_request_roundtrip() {
        let req = ClientRequest {
            session_id: "s1".into(),
            request_id: 42,
            op: WriteOp::Create {
                path: "/a".into(),
                payload: Payload::inline(b"data"),
                mode: CreateMode::EphemeralSequential,
            },
        };
        let decoded = ClientRequest::decode(&req.encode()).unwrap();
        assert_eq!(decoded, req);
    }

    /// A created, a deleted and a checked sub under `/m`.
    fn subs() -> [MultiSub; 3] {
        let created = MultiSub {
            path: "/m/a".into(),
            user_update: UserUpdate::WriteNode {
                path: "/m/a".into(),
                payload: Payload::inline(b"1"),
                created_txid: 0,
                version: 0,
                has_children: false,
                ephemeral_owner: Some("s1".into()),
                joins_parent: true,
            },
            fires: vec![FiredWatch {
                watch_path: "/m/a".into(),
                event_type: WatchEventType::NodeCreated,
            }],
            is_delete: false,
            outcome: OpOutcome::Created {
                path: "/m/a".into(),
                stat: Stat::default(),
            },
        };
        let deleted = MultiSub {
            path: "/m/b".into(),
            user_update: UserUpdate::DeleteNode {
                path: "/m/b".into(),
            },
            fires: vec![],
            is_delete: true,
            outcome: OpOutcome::Deleted {
                path: "/m/b".into(),
            },
        };
        let checked = MultiSub {
            path: "/m/c".into(),
            user_update: UserUpdate::None,
            fires: vec![],
            is_delete: false,
            outcome: OpOutcome::Checked {
                stat: Stat::default(),
            },
        };
        [created, deleted, checked]
    }

    fn record(ops: Vec<MultiSub>) -> LeaderRecord {
        LeaderRecord {
            session_id: "s1".into(),
            request_id: 7,
            txid: (9 << 16) | 1,
            prev_txid: 3 << 16,
            commit: SystemCommit {
                items: vec![CommitItem {
                    key: "node:/m/a".into(),
                    lock_ts: 123,
                    sets: vec![("version".into(), SerValue::Txid)],
                    appends: vec![("txq".into(), SerValue::TxidList)],
                    removes: vec![],
                }],
            },
            deregister_session: ops.is_empty(),
            ops,
        }
    }

    fn assert_roundtrip(rec: &LeaderRecord, path: &str, fires: usize) {
        assert_eq!(rec.path(), path);
        assert_eq!(rec.fires_all().count(), fires);
        assert_eq!(&LeaderRecord::decode(&rec.encode()).unwrap(), rec);
    }

    /// Every record has one shape: a single write is one sub, a
    /// deregistration none.
    #[test]
    fn leader_record_roundtrip() {
        let [created, ..] = subs();
        assert_roundtrip(&record(vec![created]), "/m/a", 1);
        assert_roundtrip(&record(vec![]), "", 0);
    }

    /// A `multi` is the same shape with one sub per op; the primary path
    /// skips checks.
    #[test]
    fn multi_record_roundtrip() {
        let [created, deleted, checked] = subs();
        assert_roundtrip(&record(vec![checked, created, deleted]), "/m/a", 1);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(ClientRequest::decode(b"not json").is_none());
        assert!(LeaderRecord::decode(b"{}").is_none());
    }

    #[test]
    fn servalue_conversion() {
        assert_eq!(SerValue::Num(3).to_value(9), fk_cloud::Value::Num(3));
        assert_eq!(
            SerValue::NumList(vec![1]).to_value(9),
            fk_cloud::Value::List(vec![fk_cloud::Value::Num(1)])
        );
        assert_eq!(SerValue::Txid.to_value(9), fk_cloud::Value::Num(9));
        assert_eq!(
            SerValue::TxidList.to_value(9),
            fk_cloud::Value::List(vec![fk_cloud::Value::Num(9)])
        );
        let entry = SerValue::TxidChild {
            name: "c".into(),
            added: false,
        };
        let fk_cloud::Value::List(appended) = entry.to_value(9) else {
            panic!("an append of one entry");
        };
        let parsed = crate::system_store::ChildEntry::from_value(&appended[0]);
        assert_eq!(
            parsed,
            Some(crate::system_store::ChildEntry {
                txid: 9,
                name: "c".into(),
                added: false,
            })
        );
    }

    /// A create adds its name to its parent, a delete removes it, a
    /// write of an existing node changes no list.
    #[test]
    fn child_deltas() {
        let [created, deleted, checked] = subs();
        assert_eq!(
            created.user_update.child_delta(),
            Some(("/m", "/m/a", true))
        );
        assert_eq!(
            deleted.user_update.child_delta(),
            Some(("/m", "/m/b", false))
        );
        assert_eq!(checked.user_update.child_delta(), None);
        let written = UserUpdate::WriteNode {
            path: "/m".into(),
            payload: Payload::inline(b""),
            created_txid: 3,
            version: 1,
            has_children: true,
            ephemeral_owner: None,
            joins_parent: false,
        };
        assert_eq!(written.child_delta(), None);
    }

    #[test]
    fn payload_lengths() {
        let p = Payload::inline(b"hello!");
        assert_eq!(p.byte_len(), 6);
        assert_eq!(p.wire_len(), 6, "raw bytes on the wire");
        let staged = Payload::Staged {
            key: "staging/1".into(),
            len: 100_000,
        };
        assert_eq!(staged.byte_len(), 100_000);
        assert!(staged.wire_len() < 64);
    }

    #[test]
    fn write_op_paths() {
        assert_eq!(
            WriteOp::Delete {
                path: "/x".into(),
                expected_version: -1
            }
            .path(),
            "/x"
        );
        assert_eq!(WriteOp::CloseSession.path(), "");
    }
}
