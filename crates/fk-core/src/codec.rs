//! Versioned, varint-framed binary codec for the hot-path records.
//!
//! Serverless billing rounds every storage write and queue message up to
//! fixed-size units, so encoded size is money (Baldini et al., "Serverless
//! Computing: Current Trends and Open Problems") — and FaaSKeeper's
//! dominant cost terms are exactly those per-request payload units
//! (FaaSKeeper §5.2). This compact binary frame is the only wire and
//! storage format of the hot-path records:
//!
//! * **Self-describing frame** — `[0xFB, version, kind]` followed by the
//!   record body. A decoder accepts exactly its own magic, [`VERSION`]
//!   and kind; anything else — text, another version, another record
//!   type — is rejected rather than guessed at.
//! * **Varint framing** — unsigned integers are LEB128; signed integers
//!   are zigzag-mapped first. Strings, byte payloads and lists carry a
//!   varint length prefix; node payloads are **raw bytes**, never base64.
//! * **Coverage** — every serialization surface of the write/read path:
//!   [`NodeRecord`] (every user-store back-end and the staging of
//!   replicas), [`LeaderRecord`] and [`ClientRequest`] (queue message
//!   payloads), and [`crate::watch_fn::WatchTask`] (watch-function
//!   invocation payloads). System-storage records (node control items,
//!   `session:`/`seq:` marks, lock stamps) are *attribute-native* KV
//!   items — they are billed by item size, never serialized — so they
//!   need no codec; their write-request count is attacked by
//!   [`crate::system_store::SystemStore::advance_sessions_applied_batch`]
//!   instead.
//!
//! The decode direction is total: any truncated or corrupt frame returns
//! `None` rather than panicking.

use crate::api::{CreateMode, Stat, WatchEvent, WatchEventType};
use crate::messages::{
    ClientRequest, CommitItem, FiredWatch, LeaderRecord, MultiOp, MultiSub, OpOutcome, Payload,
    SerValue, SystemCommit, UserUpdate, WriteOp,
};
use crate::user_store::NodeRecord;
use bytes::Bytes;
use std::sync::Arc;

/// First byte of every binary frame. Never a legal first byte of UTF-8
/// text, so a stray text body fails the header check.
pub const MAGIC: u8 = 0xFB;

/// Current format version; decoders accept exactly this version (a
/// rollback or a half-upgraded deployment must not misparse records it
/// cannot read).
pub const VERSION: u8 = 6;

/// Record kinds carried in the frame header, so a frame is never decoded
/// as the wrong type even if keys get crossed.
mod kind {
    /// A [`super::NodeRecord`].
    pub const NODE: u8 = 1;
    /// A [`super::LeaderRecord`].
    pub const LEADER_RECORD: u8 = 2;
    /// A [`super::ClientRequest`].
    pub const CLIENT_REQUEST: u8 = 3;
    /// A [`crate::watch_fn::WatchTask`].
    pub const WATCH_TASK: u8 = 4;
}

// ----------------------------------------------------------------------
// Frame writer / reader
// ----------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new(kind: u8, capacity: usize) -> Self {
        let mut buf = Vec::with_capacity(capacity + 3);
        buf.extend_from_slice(&[MAGIC, VERSION, kind]);
        Writer { buf }
    }

    fn u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    fn i64(&mut self, v: i64) {
        // Zigzag: small magnitudes of either sign stay short.
        self.u64(((v << 1) ^ (v >> 63)) as u64);
    }

    fn tag(&mut self, t: u8) {
        self.buf.push(t);
    }

    fn boolean(&mut self, b: bool) {
        self.buf.push(b as u8);
    }

    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn opt_str(&mut self, s: &Option<String>) {
        match s {
            Some(s) => {
                self.tag(1);
                self.str(s);
            }
            None => self.tag(0),
        }
    }

    fn str_list(&mut self, l: &[String]) {
        self.u64(l.len() as u64);
        for s in l {
            self.str(s);
        }
    }

    fn u64_list(&mut self, l: &[u64]) {
        self.u64(l.len() as u64);
        for &v in l {
            self.u64(v);
        }
    }

    fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Opens a frame, checking magic, version and kind.
    fn open(bytes: &'a [u8], kind: u8) -> Option<Self> {
        if bytes.len() < 3 || bytes[0] != MAGIC || bytes[1] != VERSION || bytes[2] != kind {
            return None;
        }
        Some(Reader { buf: bytes, pos: 3 })
    }

    fn byte(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u64(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
        }
        None // over-long varint
    }

    fn i64(&mut self) -> Option<i64> {
        let v = self.u64()?;
        Some(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    fn boolean(&mut self) -> Option<bool> {
        match self.byte()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn raw(&mut self) -> Option<&'a [u8]> {
        let len = self.u64()? as usize;
        let slice = self.buf.get(self.pos..self.pos.checked_add(len)?)?;
        self.pos += len;
        Some(slice)
    }

    fn bytes(&mut self) -> Option<Bytes> {
        self.raw().map(Bytes::copy_from_slice)
    }

    fn str(&mut self) -> Option<String> {
        std::str::from_utf8(self.raw()?).ok().map(str::to_owned)
    }

    fn opt_str(&mut self) -> Option<Option<String>> {
        match self.byte()? {
            0 => Some(None),
            1 => Some(Some(self.str()?)),
            _ => None,
        }
    }

    /// Bounds list lengths by the bytes actually present, so a corrupt
    /// length prefix cannot trigger a huge allocation.
    fn list_len(&mut self) -> Option<usize> {
        let len = self.u64()? as usize;
        if len > self.buf.len().saturating_sub(self.pos) {
            return None;
        }
        Some(len)
    }

    fn str_list(&mut self) -> Option<Vec<String>> {
        let len = self.list_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.str()?);
        }
        Some(out)
    }

    fn u64_list(&mut self) -> Option<Vec<u64>> {
        let len = self.list_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.u64()?);
        }
        Some(out)
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ----------------------------------------------------------------------
// NodeRecord
// ----------------------------------------------------------------------

/// Encodes a node record as a binary frame (data payload as raw bytes).
pub fn encode_node(record: &NodeRecord) -> Bytes {
    let mut w = Writer::new(kind::NODE, 32 + record.path.len() + record.data.len());
    w.str(&record.path);
    w.bytes(&record.data);
    w.u64(record.created_txid);
    w.u64(record.modified_txid);
    w.i64(record.version as i64);
    w.str_list(&record.children);
    w.u64(record.children_txid);
    w.opt_str(&record.ephemeral_owner);
    w.u64_list(&record.epoch_marks);
    w.finish()
}

/// Decodes a node record; `None` on anything but an exact frame.
pub fn decode_node(bytes: &[u8]) -> Option<NodeRecord> {
    let mut r = Reader::open(bytes, kind::NODE)?;
    let record = NodeRecord {
        path: r.str()?,
        data: r.bytes()?,
        created_txid: r.u64()?,
        modified_txid: r.u64()?,
        version: i32::try_from(r.i64()?).ok()?,
        children: Arc::new(r.str_list()?),
        children_txid: r.u64()?,
        ephemeral_owner: r.opt_str()?,
        epoch_marks: Arc::new(r.u64_list()?),
    };
    r.done().then_some(record)
}

/// The payload length a node frame declares, read from its head without
/// decoding the rest; `None` if `bytes` does not open as a node frame.
pub fn node_payload_len(bytes: &[u8]) -> Option<usize> {
    let mut r = Reader::open(bytes, kind::NODE)?;
    r.raw()?;
    r.u64().map(|len| len as usize)
}

/// A node record's scan-surface view, decoded **partially** from a
/// stored frame: the stat fields are parsed, the data payload is a
/// zero-copy slice of the shared frame buffer, and the children list is
/// *skipped* — counted, never materialized. A prefix scan over N stored
/// records therefore allocates no per-child strings and copies no
/// payload bytes; only the epoch marks (needed for the Z4 stall check on
/// served reads) are decoded in full.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSummary {
    /// Node path.
    pub path: String,
    /// Data payload — a slice of the stored frame, not a copy.
    pub data: Bytes,
    /// Transaction that created the node (`czxid`).
    pub created_txid: u64,
    /// Transaction of the last data change (`mzxid`).
    pub modified_txid: u64,
    /// Data version counter.
    pub version: i32,
    /// Number of children (list skipped, only the count is read).
    pub num_children: usize,
    /// Transaction of the last children change.
    pub children_txid: u64,
    /// True if the node is ephemeral (owner string skipped).
    pub ephemeral: bool,
    /// Epoch marks for the Z4 watch-ordering stall check.
    pub epoch_marks: Arc<Vec<u64>>,
}

impl NodeSummary {
    /// The ZooKeeper `Stat` of this view.
    pub fn stat(&self) -> Stat {
        Stat {
            created_txid: self.created_txid,
            modified_txid: self.modified_txid,
            version: self.version,
            num_children: self.num_children as u32,
            data_length: self.data.len() as u32,
            ephemeral: self.ephemeral,
        }
    }
}

/// Partially decodes a stored node record into its scan view (see
/// [`NodeSummary`]). Returns `None` on corrupt input, like
/// [`decode_node`].
pub fn decode_node_summary(bytes: &Bytes) -> Option<NodeSummary> {
    let mut r = Reader::open(bytes, kind::NODE)?;
    let path = r.str()?;
    // Zero-copy data: note the payload's frame offsets, slice the shared
    // buffer instead of copying.
    let data_len = r.u64()? as usize;
    let data_start = r.pos;
    if data_start.checked_add(data_len)? > r.buf.len() {
        return None;
    }
    r.pos += data_len;
    let data = bytes.slice(data_start..data_start + data_len);
    let created_txid = r.u64()?;
    let modified_txid = r.u64()?;
    let version = i32::try_from(r.i64()?).ok()?;
    // Skip the children strings wholesale; keep the count.
    let num_children = r.list_len()?;
    for _ in 0..num_children {
        r.raw()?;
    }
    let children_txid = r.u64()?;
    let ephemeral = match r.byte()? {
        0 => false,
        1 => {
            r.raw()?;
            true
        }
        _ => return None,
    };
    let epoch_marks = Arc::new(r.u64_list()?);
    r.done().then_some(NodeSummary {
        path,
        data,
        created_txid,
        modified_txid,
        version,
        num_children,
        children_txid,
        ephemeral,
        epoch_marks,
    })
}

// ----------------------------------------------------------------------
// Shared message pieces
// ----------------------------------------------------------------------

fn write_payload(w: &mut Writer, payload: &Payload) {
    match payload {
        Payload::Inline { data } => {
            w.tag(0);
            w.bytes(data);
        }
        Payload::Staged { key, len } => {
            w.tag(1);
            w.str(key);
            w.u64(*len as u64);
        }
    }
}

fn read_payload(r: &mut Reader<'_>) -> Option<Payload> {
    match r.byte()? {
        0 => Some(Payload::Inline { data: r.bytes()? }),
        1 => Some(Payload::Staged {
            key: r.str()?,
            len: r.u64()? as usize,
        }),
        _ => None,
    }
}

fn write_create_mode(w: &mut Writer, mode: CreateMode) {
    w.tag(match mode {
        CreateMode::Persistent => 0,
        CreateMode::Ephemeral => 1,
        CreateMode::PersistentSequential => 2,
        CreateMode::EphemeralSequential => 3,
    });
}

fn read_create_mode(r: &mut Reader<'_>) -> Option<CreateMode> {
    Some(match r.byte()? {
        0 => CreateMode::Persistent,
        1 => CreateMode::Ephemeral,
        2 => CreateMode::PersistentSequential,
        3 => CreateMode::EphemeralSequential,
        _ => return None,
    })
}

fn write_event_type(w: &mut Writer, event: WatchEventType) {
    w.tag(match event {
        WatchEventType::NodeCreated => 0,
        WatchEventType::NodeDataChanged => 1,
        WatchEventType::NodeDeleted => 2,
        WatchEventType::NodeChildrenChanged => 3,
        WatchEventType::SubtreeChanged => 4,
    });
}

fn read_event_type(r: &mut Reader<'_>) -> Option<WatchEventType> {
    Some(match r.byte()? {
        0 => WatchEventType::NodeCreated,
        1 => WatchEventType::NodeDataChanged,
        2 => WatchEventType::NodeDeleted,
        3 => WatchEventType::NodeChildrenChanged,
        4 => WatchEventType::SubtreeChanged,
        _ => return None,
    })
}

fn write_ser_value(w: &mut Writer, value: &SerValue) {
    match value {
        SerValue::Num(n) => {
            w.tag(0);
            w.i64(*n);
        }
        SerValue::Str(s) => {
            w.tag(1);
            w.str(s);
        }
        SerValue::NumList(l) => {
            w.tag(3);
            w.u64(l.len() as u64);
            for n in l {
                w.i64(*n);
            }
        }
        SerValue::Txid => w.tag(4),
        SerValue::TxidList => w.tag(5),
        SerValue::TxidChild { name, added } => {
            w.tag(6);
            w.str(name);
            w.boolean(*added);
        }
    }
}

fn read_ser_value(r: &mut Reader<'_>) -> Option<SerValue> {
    Some(match r.byte()? {
        0 => SerValue::Num(r.i64()?),
        1 => SerValue::Str(r.str()?),
        3 => {
            let len = r.list_len()?;
            let mut out = Vec::with_capacity(len);
            for _ in 0..len {
                out.push(r.i64()?);
            }
            SerValue::NumList(out)
        }
        4 => SerValue::Txid,
        5 => SerValue::TxidList,
        6 => SerValue::TxidChild {
            name: r.str()?,
            added: r.boolean()?,
        },
        _ => return None,
    })
}

fn write_attr_values(w: &mut Writer, pairs: &[(String, SerValue)]) {
    w.u64(pairs.len() as u64);
    for (attr, value) in pairs {
        w.str(attr);
        write_ser_value(w, value);
    }
}

fn read_attr_values(r: &mut Reader<'_>) -> Option<Vec<(String, SerValue)>> {
    let len = r.list_len()?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push((r.str()?, read_ser_value(r)?));
    }
    Some(out)
}

fn write_commit(w: &mut Writer, commit: &SystemCommit) {
    w.u64(commit.items.len() as u64);
    for item in &commit.items {
        w.str(&item.key);
        w.i64(item.lock_ts);
        write_attr_values(w, &item.sets);
        write_attr_values(w, &item.appends);
        w.str_list(&item.removes);
    }
}

fn read_commit(r: &mut Reader<'_>) -> Option<SystemCommit> {
    let len = r.list_len()?;
    let mut items = Vec::with_capacity(len);
    for _ in 0..len {
        items.push(CommitItem {
            key: r.str()?,
            lock_ts: r.i64()?,
            sets: read_attr_values(r)?,
            appends: read_attr_values(r)?,
            removes: r.str_list()?,
        });
    }
    Some(SystemCommit { items })
}

fn write_user_update(w: &mut Writer, update: &UserUpdate) {
    match update {
        UserUpdate::WriteNode {
            path,
            payload,
            created_txid,
            version,
            has_children,
            ephemeral_owner,
            joins_parent,
        } => {
            w.tag(0);
            w.str(path);
            write_payload(w, payload);
            w.u64(*created_txid);
            w.i64(*version as i64);
            w.boolean(*has_children);
            w.opt_str(ephemeral_owner);
            w.boolean(*joins_parent);
        }
        UserUpdate::DeleteNode { path } => {
            w.tag(1);
            w.str(path);
        }
        UserUpdate::None => w.tag(2),
    }
}

fn read_user_update(r: &mut Reader<'_>) -> Option<UserUpdate> {
    Some(match r.byte()? {
        0 => UserUpdate::WriteNode {
            path: r.str()?,
            payload: read_payload(r)?,
            created_txid: r.u64()?,
            version: i32::try_from(r.i64()?).ok()?,
            has_children: r.boolean()?,
            ephemeral_owner: r.opt_str()?,
            joins_parent: r.boolean()?,
        },
        1 => UserUpdate::DeleteNode { path: r.str()? },
        2 => UserUpdate::None,
        _ => return None,
    })
}

fn write_stat(w: &mut Writer, stat: &Stat) {
    w.u64(stat.created_txid);
    w.u64(stat.modified_txid);
    w.i64(stat.version as i64);
    w.u64(stat.num_children as u64);
    w.u64(stat.data_length as u64);
    w.boolean(stat.ephemeral);
}

fn read_stat(r: &mut Reader<'_>) -> Option<Stat> {
    Some(Stat {
        created_txid: r.u64()?,
        modified_txid: r.u64()?,
        version: i32::try_from(r.i64()?).ok()?,
        num_children: u32::try_from(r.u64()?).ok()?,
        data_length: u32::try_from(r.u64()?).ok()?,
        ephemeral: r.boolean()?,
    })
}

fn write_multi_op(w: &mut Writer, op: &MultiOp) {
    match op {
        MultiOp::Create {
            path,
            payload,
            mode,
        } => {
            w.tag(0);
            w.str(path);
            write_payload(w, payload);
            write_create_mode(w, *mode);
        }
        MultiOp::SetData {
            path,
            payload,
            expected_version,
        } => {
            w.tag(1);
            w.str(path);
            write_payload(w, payload);
            w.i64(*expected_version as i64);
        }
        MultiOp::Delete {
            path,
            expected_version,
        } => {
            w.tag(2);
            w.str(path);
            w.i64(*expected_version as i64);
        }
        MultiOp::Check {
            path,
            expected_version,
        } => {
            w.tag(3);
            w.str(path);
            w.i64(*expected_version as i64);
        }
    }
}

fn read_multi_op(r: &mut Reader<'_>) -> Option<MultiOp> {
    Some(match r.byte()? {
        0 => MultiOp::Create {
            path: r.str()?,
            payload: read_payload(r)?,
            mode: read_create_mode(r)?,
        },
        1 => MultiOp::SetData {
            path: r.str()?,
            payload: read_payload(r)?,
            expected_version: i32::try_from(r.i64()?).ok()?,
        },
        2 => MultiOp::Delete {
            path: r.str()?,
            expected_version: i32::try_from(r.i64()?).ok()?,
        },
        3 => MultiOp::Check {
            path: r.str()?,
            expected_version: i32::try_from(r.i64()?).ok()?,
        },
        _ => return None,
    })
}

fn write_outcome(w: &mut Writer, outcome: &OpOutcome) {
    match outcome {
        OpOutcome::Created { path, stat } => {
            w.tag(0);
            w.str(path);
            write_stat(w, stat);
        }
        OpOutcome::Set { path, stat } => {
            w.tag(1);
            w.str(path);
            write_stat(w, stat);
        }
        OpOutcome::Deleted { path } => {
            w.tag(2);
            w.str(path);
        }
        OpOutcome::Checked { stat } => {
            w.tag(3);
            write_stat(w, stat);
        }
    }
}

fn read_outcome(r: &mut Reader<'_>) -> Option<OpOutcome> {
    Some(match r.byte()? {
        0 => OpOutcome::Created {
            path: r.str()?,
            stat: read_stat(r)?,
        },
        1 => OpOutcome::Set {
            path: r.str()?,
            stat: read_stat(r)?,
        },
        2 => OpOutcome::Deleted { path: r.str()? },
        3 => OpOutcome::Checked {
            stat: read_stat(r)?,
        },
        _ => return None,
    })
}

fn write_fires(w: &mut Writer, fires: &[FiredWatch]) {
    w.u64(fires.len() as u64);
    for fw in fires {
        w.str(&fw.watch_path);
        write_event_type(w, fw.event_type);
    }
}

fn read_fires(r: &mut Reader<'_>) -> Option<Vec<FiredWatch>> {
    let len = r.list_len()?;
    let mut fires = Vec::with_capacity(len);
    for _ in 0..len {
        fires.push(FiredWatch {
            watch_path: r.str()?,
            event_type: read_event_type(r)?,
        });
    }
    Some(fires)
}

fn write_multi_sub(w: &mut Writer, sub: &MultiSub) {
    w.str(&sub.path);
    write_user_update(w, &sub.user_update);
    write_fires(w, &sub.fires);
    w.boolean(sub.is_delete);
    write_outcome(w, &sub.outcome);
}

fn read_multi_sub(r: &mut Reader<'_>) -> Option<MultiSub> {
    Some(MultiSub {
        path: r.str()?,
        user_update: read_user_update(r)?,
        fires: read_fires(r)?,
        is_delete: r.boolean()?,
        outcome: read_outcome(r)?,
    })
}

// ----------------------------------------------------------------------
// LeaderRecord
// ----------------------------------------------------------------------

/// Encodes a leader-queue record as a binary frame.
pub fn encode_leader_record(record: &LeaderRecord) -> Bytes {
    let subs_len: usize = record
        .ops
        .iter()
        .map(|sub| {
            let payload_len = match &sub.user_update {
                UserUpdate::WriteNode { payload, .. } => payload.wire_len(),
                _ => 0,
            };
            96 + sub.path.len() + payload_len
        })
        .sum();
    let mut w = Writer::new(kind::LEADER_RECORD, 32 + subs_len);
    w.str(&record.session_id);
    w.u64(record.request_id);
    w.u64(record.txid);
    w.u64(record.prev_txid);
    write_commit(&mut w, &record.commit);
    w.boolean(record.deregister_session);
    w.u64(record.ops.len() as u64);
    for sub in &record.ops {
        write_multi_sub(&mut w, sub);
    }
    w.finish()
}

/// Decodes a leader-queue record.
pub fn decode_leader_record(bytes: &[u8]) -> Option<LeaderRecord> {
    let mut r = Reader::open(bytes, kind::LEADER_RECORD)?;
    let session_id = r.str()?;
    let request_id = r.u64()?;
    let txid = r.u64()?;
    let prev_txid = r.u64()?;
    let commit = read_commit(&mut r)?;
    let deregister_session = r.boolean()?;
    let ops_len = r.list_len()?;
    let mut ops = Vec::with_capacity(ops_len);
    for _ in 0..ops_len {
        ops.push(read_multi_sub(&mut r)?);
    }
    let record = LeaderRecord {
        session_id,
        request_id,
        txid,
        prev_txid,
        commit,
        deregister_session,
        ops,
    };
    r.done().then_some(record)
}

// ----------------------------------------------------------------------
// ClientRequest
// ----------------------------------------------------------------------

/// Encodes a client write request as a binary frame.
pub fn encode_client_request(request: &ClientRequest) -> Bytes {
    let (path_len, payload_len) = match &request.op {
        WriteOp::Create { path, payload, .. } | WriteOp::SetData { path, payload, .. } => {
            (path.len(), payload.wire_len())
        }
        WriteOp::Delete { path, .. } => (path.len(), 0),
        WriteOp::CloseSession => (0, 0),
        WriteOp::Multi { ops } => (
            ops.iter().map(|op| op.path().len()).sum(),
            ops.iter()
                .map(|op| match op {
                    MultiOp::Create { payload, .. } | MultiOp::SetData { payload, .. } => {
                        payload.wire_len()
                    }
                    _ => 0,
                })
                .sum(),
        ),
    };
    let mut w = Writer::new(kind::CLIENT_REQUEST, 32 + path_len + payload_len);
    w.str(&request.session_id);
    w.u64(request.request_id);
    match &request.op {
        WriteOp::Create {
            path,
            payload,
            mode,
        } => {
            w.tag(0);
            w.str(path);
            write_payload(&mut w, payload);
            write_create_mode(&mut w, *mode);
        }
        WriteOp::SetData {
            path,
            payload,
            expected_version,
        } => {
            w.tag(1);
            w.str(path);
            write_payload(&mut w, payload);
            w.i64(*expected_version as i64);
        }
        WriteOp::Delete {
            path,
            expected_version,
        } => {
            w.tag(2);
            w.str(path);
            w.i64(*expected_version as i64);
        }
        WriteOp::CloseSession => w.tag(3),
        WriteOp::Multi { ops } => {
            w.tag(4);
            w.u64(ops.len() as u64);
            for op in ops {
                write_multi_op(&mut w, op);
            }
        }
    }
    w.finish()
}

/// Decodes a client write request.
pub fn decode_client_request(bytes: &[u8]) -> Option<ClientRequest> {
    let mut r = Reader::open(bytes, kind::CLIENT_REQUEST)?;
    let session_id = r.str()?;
    let request_id = r.u64()?;
    let op = match r.byte()? {
        0 => WriteOp::Create {
            path: r.str()?,
            payload: read_payload(&mut r)?,
            mode: read_create_mode(&mut r)?,
        },
        1 => WriteOp::SetData {
            path: r.str()?,
            payload: read_payload(&mut r)?,
            expected_version: i32::try_from(r.i64()?).ok()?,
        },
        2 => WriteOp::Delete {
            path: r.str()?,
            expected_version: i32::try_from(r.i64()?).ok()?,
        },
        3 => WriteOp::CloseSession,
        4 => {
            let len = r.list_len()?;
            let mut ops = Vec::with_capacity(len);
            for _ in 0..len {
                ops.push(read_multi_op(&mut r)?);
            }
            WriteOp::Multi { ops }
        }
        _ => return None,
    };
    let request = ClientRequest {
        session_id,
        request_id,
        op,
    };
    r.done().then_some(request)
}

// ----------------------------------------------------------------------
// WatchTask
// ----------------------------------------------------------------------

/// Encodes a watch-delivery task as a binary frame.
pub fn encode_watch_task(task: &crate::watch_fn::WatchTask) -> Bytes {
    let mut w = Writer::new(kind::WATCH_TASK, 48 + task.event.path.len());
    w.u64(task.watch_id);
    w.str_list(&task.sessions);
    w.u64(task.event.watch_id);
    w.str(&task.event.path);
    write_event_type(&mut w, task.event.event_type);
    w.u64(task.event.txid);
    w.u64(task.regions.len() as u64);
    for &region in &task.regions {
        w.tag(region);
    }
    // Optional children list, presence-tagged.
    match &task.event.children {
        Some(children) => {
            w.boolean(true);
            w.str_list(children);
        }
        None => w.boolean(false),
    }
    w.finish()
}

/// Decodes a watch-delivery task.
pub fn decode_watch_task(bytes: &[u8]) -> Option<crate::watch_fn::WatchTask> {
    let mut r = Reader::open(bytes, kind::WATCH_TASK)?;
    let watch_id = r.u64()?;
    let sessions = r.str_list()?;
    let mut event = WatchEvent {
        watch_id: r.u64()?,
        path: r.str()?,
        event_type: read_event_type(&mut r)?,
        txid: r.u64()?,
        children: None,
    };
    let regions_len = r.list_len()?;
    let mut regions = Vec::with_capacity(regions_len);
    for _ in 0..regions_len {
        regions.push(r.byte()?);
    }
    if r.boolean()? {
        event.children = Some(r.str_list()?);
    }
    let task = crate::watch_fn::WatchTask {
        watch_id,
        sessions,
        event,
        regions,
    };
    r.done().then_some(task)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(data_len: usize) -> NodeRecord {
        NodeRecord {
            path: "/a/деep/path".into(),
            data: Bytes::from(vec![0xA5; data_len]),
            created_txid: 7,
            modified_txid: (1 << 40) + 3,
            version: -1,
            children: Arc::new(vec!["x".into(), "äöü".into()]),
            children_txid: 9,
            ephemeral_owner: Some("sess-1".into()),
            epoch_marks: Arc::new(vec![1, u64::MAX, 0]),
        }
    }

    #[test]
    fn node_roundtrip_binary() {
        for len in [0usize, 1, 127, 128, 300_000] {
            let rec = record(len);
            let bytes = encode_node(&rec);
            assert_eq!(decode_node(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn node_summary_matches_full_decode() {
        for len in [0usize, 1, 300_000] {
            let rec = record(len);
            let bytes = encode_node(&rec);
            let summary = decode_node_summary(&bytes).unwrap();
            assert_eq!(summary.stat(), rec.stat());
            assert_eq!(summary.path, rec.path);
            assert_eq!(summary.data, rec.data);
            assert_eq!(summary.epoch_marks, rec.epoch_marks);
            // Zero-copy: the payload is a window into the stored frame,
            // not a fresh allocation.
            if len > 0 {
                let frame = bytes.as_ref().as_ptr() as usize;
                let data = summary.data.as_ref().as_ptr() as usize;
                assert!(
                    data > frame && data < frame + bytes.len(),
                    "summary data must borrow from the frame"
                );
            }
            // Truncations fail cleanly through the partial decoder too.
            for cut in 0..bytes.len() {
                assert!(decode_node_summary(&bytes.slice(0..cut)).is_none());
            }
        }
    }

    #[test]
    fn frame_overhead_is_bounded_by_the_layout() {
        // 3-byte header + one varint per scalar field: two length
        // prefixes (≤ 5 B each below 4 GiB), three txids (≤ 10 B each),
        // the zigzag version (≤ 5 B), two empty-list counts and the owner
        // tag (1 B each).
        const MAX_OVERHEAD: usize = 3 + 2 * 5 + 3 * 10 + 5 + 3;
        for (data_len, txid) in [(0usize, 0u64), (3 * 1024, 1 << 40), (300_000, u64::MAX)] {
            let rec = NodeRecord {
                created_txid: txid,
                modified_txid: txid,
                version: i32::MIN,
                children: Arc::default(),
                children_txid: txid,
                ephemeral_owner: None,
                epoch_marks: Arc::default(),
                ..record(data_len)
            };
            let overhead = encode_node(&rec).len() - rec.path.len() - rec.data.len();
            assert!(
                overhead <= MAX_OVERHEAD,
                "{overhead} B of framing at txid {txid}"
            );
        }
    }

    #[test]
    fn corrupt_frames_decode_to_none() {
        let rec = record(32);
        let bytes = encode_node(&rec);
        // Truncations at every boundary must fail cleanly.
        for cut in 0..bytes.len() {
            assert!(decode_node(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        // Trailing garbage is rejected (frames are exact).
        let mut padded = bytes.to_vec();
        padded.push(0);
        assert!(decode_node(&padded).is_none());
        // Wrong kind is rejected.
        assert!(decode_client_request(&bytes).is_none());
        // Any other version is rejected, not misparsed — for every frame
        // kind — and so is a text body.
        let task = crate::watch_fn::WatchTask {
            watch_id: 3,
            sessions: vec!["s".into()],
            event: WatchEvent {
                watch_id: 3,
                path: "/x".into(),
                event_type: WatchEventType::NodeDataChanged,
                txid: 9,
                children: None,
            },
            regions: vec![0],
        };
        let leader = LeaderRecord {
            session_id: "s".into(),
            request_id: 1,
            txid: 9,
            prev_txid: 0,
            commit: SystemCommit::default(),
            deregister_session: true,
            ops: vec![],
        };
        let request = ClientRequest {
            session_id: "s".into(),
            request_id: 1,
            op: WriteOp::CloseSession,
        };
        type Decodes = fn(&[u8]) -> bool;
        let kinds: [(Bytes, Decodes); 5] = [
            (bytes.clone(), |b| decode_node(b).is_some()),
            (bytes.clone(), |b| {
                decode_node_summary(&Bytes::copy_from_slice(b)).is_some()
            }),
            (encode_leader_record(&leader), |b| {
                decode_leader_record(b).is_some()
            }),
            (encode_client_request(&request), |b| {
                decode_client_request(b).is_some()
            }),
            (encode_watch_task(&task), |b| decode_watch_task(b).is_some()),
        ];
        for (frame, decodes) in &kinds {
            assert!(decodes(frame));
            for version in [VERSION - 1, VERSION + 1] {
                let mut other = frame.to_vec();
                other[1] = version;
                assert!(!decodes(&other), "kind {} v{version}", frame[2]);
            }
            assert!(!decodes(br#"{"path":"/x"}"#), "kind {} JSON", frame[2]);
        }
        // A version-4 leader frame — a single create, whose one sub rode
        // in the record's own fields — is rejected by its version, and
        // its body does not parse as a version-5 record either.
        let v4_create = "fb040201730180800400022f6103076e6f64653a2f6100040763726561746564040776657273696f6e040676636f756e740000077265715f7461670103732331010374787105010764656c6574656400066e6f64653a2f00010d6368696c6472656e5f747869640401086368696c6472656e020101610000057365713a7300010c6c6173745f72657175657374000200000000022f61000276300000000001012f01016100000000020002022f6100012f03000000";
        let mut v4_create: Vec<u8> = (0..v4_create.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&v4_create[i..i + 2], 16).unwrap())
            .collect();
        assert!(decode_leader_record(&v4_create).is_none());
        v4_create[1] = VERSION;
        assert!(decode_leader_record(&v4_create).is_none());
        // A corrupt length prefix must not allocate absurdly.
        let mut huge = bytes.to_vec();
        let len = huge.len();
        huge.truncate(3);
        huge.extend_from_slice(&[0xFF; 9]);
        huge.push(0x01);
        huge.resize(len, 0);
        assert!(decode_node(&huge).is_none());
    }

    #[test]
    fn varints_roundtrip_extremes() {
        let mut w = Writer::new(kind::NODE, 0);
        for v in [0u64, 1, 127, 128, u64::MAX] {
            w.u64(v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            w.i64(v);
        }
        let bytes = w.finish();
        let mut r = Reader::open(&bytes, kind::NODE).unwrap();
        for v in [0u64, 1, 127, 128, u64::MAX] {
            assert_eq!(r.u64(), Some(v));
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(r.i64(), Some(v));
        }
        assert!(r.done());
    }
}
