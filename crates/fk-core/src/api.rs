//! ZooKeeper-compatible API types.
//!
//! FaaSKeeper "implements the same standard read and write operations as
//! ZooKeeper and offers clients an API similar to ZooKeeper" (§3.5),
//! modelled after the kazoo client library (§4.4). These are the shared
//! request/response types of that API.

use std::fmt;

/// Node creation modes (ZooKeeper semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreateMode {
    /// Plain persistent node.
    Persistent,
    /// Deleted automatically when the owning session ends.
    Ephemeral,
    /// Persistent with a monotonically increasing suffix assigned by the
    /// service (`/lock-` → `/lock-0000000007`).
    PersistentSequential,
    /// Ephemeral and sequential.
    EphemeralSequential,
}

impl CreateMode {
    /// True for ephemeral variants.
    pub fn is_ephemeral(self) -> bool {
        matches!(
            self,
            CreateMode::Ephemeral | CreateMode::EphemeralSequential
        )
    }

    /// True for sequential variants.
    pub fn is_sequential(self) -> bool {
        matches!(
            self,
            CreateMode::PersistentSequential | CreateMode::EphemeralSequential
        )
    }
}

/// Node metadata returned by read operations (ZooKeeper's `Stat`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stat {
    /// Transaction id that created the node (`czxid`).
    pub created_txid: u64,
    /// Transaction id of the last data change (`mzxid`).
    pub modified_txid: u64,
    /// Number of data changes (`version`).
    pub version: i32,
    /// Number of children (`numChildren`).
    pub num_children: u32,
    /// Length of the data in bytes.
    pub data_length: u32,
    /// `true` if the node is ephemeral.
    pub ephemeral: bool,
}

/// Types of watch events (ZooKeeper semantics; one-shot triggers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WatchEventType {
    /// Node created (fires exists watches).
    NodeCreated,
    /// Node data changed (fires data + exists watches).
    NodeDataChanged,
    /// Node deleted (fires data + exists + child watches).
    NodeDeleted,
    /// Children list changed (fires child watches on the parent).
    NodeChildrenChanged,
    /// Something changed anywhere in the subtree rooted at the watched
    /// path — a create, data change or delete of the path itself or any
    /// descendant (fires subtree watches). The event's `path` is the
    /// *watch root*, not the changed descendant: one event summarizes
    /// the change, the watcher re-scans to observe it (the recursive
    /// watch contract of [`WatchKind::Subtree`]).
    SubtreeChanged,
}

/// A delivered watch notification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchEvent {
    /// Watch instance id (unique; shared by all subscribed sessions).
    pub watch_id: u64,
    /// The path the event concerns.
    pub path: String,
    /// What happened.
    pub event_type: WatchEventType,
    /// Transaction that triggered the event.
    pub txid: u64,
    /// For [`WatchEventType::NodeChildrenChanged`]: the full children
    /// list of `path` as of `txid`, when the leader had it at hand.
    /// Carries the delta a cache needs to patch a resident parent
    /// record *in place* instead of invalidating it (idempotent: the
    /// list is absolute, not incremental). `None` on other event types.
    pub children: Option<Vec<String>>,
}

/// Kinds of watches a client can register (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WatchKind {
    /// Fires on data change / deletion of an existing node.
    Data,
    /// Fires on creation / deletion (registered via `exists`).
    Exists,
    /// Fires on child-list changes (registered via `get_children`).
    Children,
    /// Fires on any change in the subtree rooted at the watched path —
    /// creates, data changes and deletes of the path or any descendant
    /// (registered via `get_subtree`; ZooKeeper 3.6 `PERSISTENT_RECURSIVE`
    /// minus persistence — FaaSKeeper watches stay one-shot, §3.4).
    Subtree,
}

/// Errors surfaced through the client API (ZooKeeper error codes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FkError {
    /// The node already exists (create).
    NodeExists,
    /// The node does not exist.
    NoNode,
    /// Conditional operation: version mismatch.
    BadVersion,
    /// Delete on a node that still has children.
    NotEmpty,
    /// Ephemeral nodes cannot have children.
    NoChildrenForEphemerals,
    /// The session is closed or expired.
    SessionExpired,
    /// Malformed path.
    BadArguments {
        /// Why the arguments were rejected.
        detail: String,
    },
    /// Payload exceeds node size limits (§4.4).
    TooLarge {
        /// Attempted size.
        size: usize,
        /// Limit.
        limit: usize,
    },
    /// Internal system failure (queue/storage/function error).
    SystemError {
        /// Failure description.
        detail: String,
    },
    /// The request timed out waiting for a result.
    Timeout,
    /// A `multi` transaction was rejected: the op at `index` failed with
    /// `cause` and every other op rolled back (ZooKeeper's partial-
    /// failure reporting — the whole transaction is all-or-nothing, so
    /// no op left any state behind).
    MultiFailed {
        /// Index of the failing op within the submitted `Vec<Op>`.
        index: u32,
        /// Why that op failed validation.
        cause: Box<FkError>,
    },
}

impl fmt::Display for FkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FkError::NodeExists => write!(f, "node already exists"),
            FkError::NoNode => write!(f, "no such node"),
            FkError::BadVersion => write!(f, "version mismatch"),
            FkError::NotEmpty => write!(f, "node has children"),
            FkError::NoChildrenForEphemerals => {
                write!(f, "ephemeral nodes cannot have children")
            }
            FkError::SessionExpired => write!(f, "session expired"),
            FkError::BadArguments { detail } => write!(f, "bad arguments: {detail}"),
            FkError::TooLarge { size, limit } => {
                write!(f, "data too large: {size} bytes (limit {limit})")
            }
            FkError::SystemError { detail } => write!(f, "system error: {detail}"),
            FkError::Timeout => write!(f, "request timed out"),
            FkError::MultiFailed { index, cause } => {
                write!(f, "multi failed at op {index}: {cause}")
            }
        }
    }
}

impl std::error::Error for FkError {}

/// Result alias for client API calls.
pub type FkResult<T> = Result<T, FkError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_mode_classification() {
        assert!(CreateMode::Ephemeral.is_ephemeral());
        assert!(CreateMode::EphemeralSequential.is_ephemeral());
        assert!(!CreateMode::Persistent.is_ephemeral());
        assert!(CreateMode::PersistentSequential.is_sequential());
        assert!(!CreateMode::Ephemeral.is_sequential());
    }

    #[test]
    fn error_display() {
        assert_eq!(FkError::NoNode.to_string(), "no such node");
        assert_eq!(
            FkError::TooLarge { size: 10, limit: 5 }.to_string(),
            "data too large: 10 bytes (limit 5)"
        );
    }
}
