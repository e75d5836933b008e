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
    /// List of strings.
    StrList(Vec<String>),
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
}

impl SerValue {
    /// Converts to a cloud store value, substituting `txid` placeholders.
    pub fn to_value(&self, txid: u64) -> fk_cloud::Value {
        match self {
            SerValue::Num(n) => fk_cloud::Value::Num(*n),
            SerValue::Str(s) => fk_cloud::Value::Str(s.clone()),
            SerValue::StrList(l) => {
                fk_cloud::Value::List(l.iter().map(|s| fk_cloud::Value::Str(s.clone())).collect())
            }
            SerValue::NumList(l) => {
                fk_cloud::Value::List(l.iter().map(|n| fk_cloud::Value::Num(*n)).collect())
            }
            SerValue::Txid => fk_cloud::Value::Num(txid as i64),
            SerValue::TxidList => fk_cloud::Value::List(vec![fk_cloud::Value::Num(txid as i64)]),
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
    /// `(list attribute, values)` to remove from lists.
    pub list_removes: Vec<(String, SerValue)>,
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
        /// Children after this change.
        children: Vec<String>,
        /// Owner session for ephemerals.
        ephemeral_owner: Option<String>,
        /// Also rewrite the parent's record with these children (creates).
        parent_children: Option<(String, Vec<String>)>,
    },
    /// Delete the node record.
    DeleteNode {
        /// Node path.
        path: String,
        /// Rewrite the parent's record with these children.
        parent_children: Option<(String, Vec<String>)>,
    },
    /// No user-store change (session deregistration records).
    None,
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

/// One sub-operation of a committed `multi`, carried in the leader
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

/// A confirmed change pushed from a follower to the leader queue. The
/// message's queue sequence number *is* the transaction id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaderRecord {
    /// Originating session.
    pub session_id: String,
    /// Client request id (for the result notification).
    pub request_id: u64,
    /// The transaction id, allocated by the follower from the target
    /// shard group's epoch counter ([`crate::system_store::txid`]) before
    /// the push, so the same id is committed to system storage and used
    /// by whichever leader instance distributes the record. (`0` only in
    /// hand-built records of legacy drivers; the leader then falls back
    /// to the queue sequence number.)
    pub txid: u64,
    /// Txid of this session's previous write (`0` if none). A shard-group
    /// leader holds the record back until the session's distribution
    /// high-water mark reaches this value — the per-session cross-shard
    /// sequencing rule (Z2).
    pub prev_txid: u64,
    /// Final node path (sequential suffix applied).
    pub path: String,
    /// System-store commit to verify / retry.
    pub commit: SystemCommit,
    /// User-store update to apply.
    pub user_update: UserUpdate,
    /// Stat to return to the client on success (txids filled by leader).
    pub stat: Stat,
    /// Watch event type this change triggers on `path`, if any.
    pub fires: Vec<FiredWatch>,
    /// True if this record deletes the node (tombstone cleanup).
    pub is_delete: bool,
    /// Session item to remove once processed (CloseSession final record).
    pub deregister_session: bool,
    /// Sub-operations of a `multi` transaction (empty for single-op
    /// records). When non-empty, `path` is the first *mutating* sub's
    /// path (the one whose `txq` carries the txid, so the leader's
    /// commit verification works unchanged), `user_update`/`fires`/
    /// `is_delete` are unused, and the distributor expands the subs into
    /// one epoch of effects.
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

    /// True if this record can fire watch notifications (it names watch
    /// classes to consume). Only transactions whose consumption actually
    /// yields instances end a distributor epoch.
    pub fn fires_watches(&self) -> bool {
        !self.fires.is_empty() || self.ops.iter().any(|sub| !sub.fires.is_empty())
    }

    /// True if this record carries a `multi` transaction.
    pub fn is_multi(&self) -> bool {
        !self.ops.is_empty()
    }

    /// Every watch class this record fires: the record's own list for
    /// single-op records, the concatenation of the subs' lists for a
    /// multi (in op order — attribution order matters for the merged
    /// consume, see `merge_fires`).
    pub fn fires_all(&self) -> impl Iterator<Item = &FiredWatch> {
        let own = if self.is_multi() {
            &[]
        } else {
            &self.fires[..]
        };
        own.iter().chain(self.ops.iter().flat_map(|sub| &sub.fires))
    }
}

/// Result payload of a successful write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteResultData {
    /// Final path (sequential creates return the generated name).
    pub path: String,
    /// Node stat after the operation.
    pub stat: Stat,
    /// Per-op results of a `multi` transaction (empty for single ops),
    /// in submission order, with transaction ids substituted.
    pub op_results: Vec<OpOutcome>,
}

impl WriteResultData {
    /// A single-op result payload (no multi sub-results).
    pub fn single(path: String, stat: Stat) -> Self {
        WriteResultData {
            path,
            stat,
            op_results: Vec::new(),
        }
    }
}

impl WriteResultData {
    /// The paths whose client-side cached state this result obsoletes —
    /// write results double as read-cache invalidation payloads on the
    /// notification channel. Empty for session-level operations
    /// (CloseSession) that name no node; every mutated sub path for a
    /// multi.
    pub fn invalidates(&self) -> impl Iterator<Item = &str> {
        let single =
            (!self.path.is_empty() && self.op_results.is_empty()).then_some(self.path.as_str());
        single
            .into_iter()
            .chain(self.op_results.iter().filter_map(|outcome| match outcome {
                OpOutcome::Created { path, .. }
                | OpOutcome::Set { path, .. }
                | OpOutcome::Deleted { path } => Some(path.as_str()),
                OpOutcome::Checked { .. } => None,
            }))
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

    #[test]
    fn leader_record_roundtrip() {
        let rec = LeaderRecord {
            session_id: "s1".into(),
            request_id: 7,
            txid: (9 << 16) | 1,
            prev_txid: 3 << 16,
            path: "/a/b".into(),
            commit: SystemCommit {
                items: vec![CommitItem {
                    key: "node:/a/b".into(),
                    lock_ts: 123,
                    sets: vec![("version".into(), SerValue::Txid)],
                    appends: vec![("txq".into(), SerValue::TxidList)],
                    removes: vec![],
                    list_removes: vec![],
                }],
            },
            user_update: UserUpdate::WriteNode {
                path: "/a/b".into(),
                payload: Payload::inline(b"x"),
                created_txid: 5,
                version: 0,
                children: vec![],
                ephemeral_owner: Some("s1".into()),
                parent_children: Some(("/a".into(), vec!["b".into()])),
            },
            stat: Stat::default(),
            fires: vec![FiredWatch {
                watch_path: "/a".into(),
                event_type: WatchEventType::NodeChildrenChanged,
            }],
            is_delete: false,
            deregister_session: false,
            ops: vec![],
        };
        let decoded = LeaderRecord::decode(&rec.encode()).unwrap();
        assert_eq!(decoded, rec);
    }

    #[test]
    fn multi_record_roundtrip() {
        let rec = LeaderRecord {
            session_id: "s1".into(),
            request_id: 8,
            txid: (4 << 16) | 2,
            prev_txid: 0,
            path: "/m/a".into(),
            commit: SystemCommit::default(),
            user_update: UserUpdate::None,
            stat: Stat::default(),
            fires: vec![],
            is_delete: false,
            deregister_session: false,
            ops: vec![
                MultiSub {
                    path: "/m/a".into(),
                    user_update: UserUpdate::WriteNode {
                        path: "/m/a".into(),
                        payload: Payload::inline(b"1"),
                        created_txid: 0,
                        version: 0,
                        children: vec![],
                        ephemeral_owner: None,
                        parent_children: Some(("/m".into(), vec!["a".into()])),
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
                },
                MultiSub {
                    path: "/m/b".into(),
                    user_update: UserUpdate::DeleteNode {
                        path: "/m/b".into(),
                        parent_children: Some(("/m".into(), vec!["a".into()])),
                    },
                    fires: vec![],
                    is_delete: true,
                    outcome: OpOutcome::Deleted {
                        path: "/m/b".into(),
                    },
                },
                MultiSub {
                    path: "/m/c".into(),
                    user_update: UserUpdate::None,
                    fires: vec![],
                    is_delete: false,
                    outcome: OpOutcome::Checked {
                        stat: Stat::default(),
                    },
                },
            ],
        };
        assert!(rec.is_multi());
        assert_eq!(rec.fires_all().count(), 1);
        let decoded = LeaderRecord::decode(&rec.encode()).unwrap();
        assert_eq!(decoded, rec);
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
            SerValue::StrList(vec!["a".into()]).to_value(9),
            fk_cloud::Value::List(vec![fk_cloud::Value::Str("a".into())])
        );
        assert_eq!(SerValue::Txid.to_value(9), fk_cloud::Value::Num(9));
        assert_eq!(
            SerValue::TxidList.to_value(9),
            fk_cloud::Value::List(vec![fk_cloud::Value::Num(9)])
        );
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
