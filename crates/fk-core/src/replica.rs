//! Shared regional read replicas fed by the distributor's committed
//! epoch stream (ROADMAP item 4; the febft "follower" idiom: scale
//! horizontally in read processing with eventual consistency).
//!
//! The per-session read cache ([`crate::read_cache`]) dedups one
//! client's repeated reads, but N sessions reading the same zipf-hot
//! paths still pay N storage round trips for the same bytes. A
//! [`ReadReplica`] dedups **across** sessions: it is one more
//! subscriber of the per-region fan-out — after the distributor's
//! storage operations land an epoch in a region's user store, the same
//! epoch is folded into an [`EpochDelta`] of codec-framed
//! [`NodeRecord`] writes, children-list patches and deletes, plus the
//! epoch's per-shard-group txid high-water marks — and maintains an
//! in-memory hot tree of `Arc`-shared records, bounded by bytes with
//! LRU eviction.
//!
//! # The serve gate (Z3/Z4)
//!
//! A replica is *behind* storage by construction (it applies the feed
//! after the storage operations, and tests inject extra lag), so serving
//! from it blindly would violate Z3. The admission predicate mirrors
//! the [`crate::read_cache`] watermark rule:
//!
//! > serve path `p` to a session with monotonic-read floor `MRD` iff
//! > `max(watermark(p), applied_txid) ≥ MRD`, where `watermark(p)` is
//! > the `modified_txid` of the replica's copy and `applied_txid` is
//! > the **minimum over shard groups** of the per-group applied txid
//! > floors.
//!
//! Soundness, case by case:
//!
//! * `watermark(p) ≥ MRD` — per-path `modified_txid` order is total
//!   (every transaction on `p` holds `p`'s follower lock, PR 3), and a
//!   session's MRD is a `fetch_max` over every `modified_txid` it has
//!   read and every write txid it has completed. If the session had
//!   observed `p` newer than the replica's copy, its MRD would exceed
//!   the copy's `modified_txid` and the gate would fail; passing it
//!   proves the copy is at least as new as anything the session has
//!   seen — exactly the Z3 obligation.
//! * `applied_txid ≥ MRD` — each shard group's leader drains its queue
//!   serially and the feed preserves per-group epoch order, so a
//!   per-group floor `F_g` means *every* transaction of group `g` with
//!   txid `≤ F_g` is applied here. Taking the **min over groups** (and
//!   not the floor of the path's home group alone) matters: a `multi`
//!   routes by one key but writes several paths, and a parent's
//!   children rewrite carries the *child's* txid, so a path can be
//!   touched by a txid allocated on any group. With
//!   `min_g F_g ≥ MRD`, every write anywhere with txid `≤ MRD` is
//!   reflected, and the lookup is equivalent to a legal storage read
//!   issued when `MRD` was current. An idle group pins the min low —
//!   the gate then leans on the per-path watermark, which is why both
//!   predicates are tried.
//!
//! # Proven absence
//!
//! A missing entry alone proves nothing: it may mean "deleted", "never
//! created", "LRU-evicted" or "not fed yet". [`ReadReplica::lookup`]
//! answers *absent* for `p` only from its parent's children list:
//!
//! > `p` is not resident, its parent `q` is resident and passes the
//! > gate above (`max(watermark(q), applied_txid) ≥ MRD`), and `q`'s
//! > children list lacks `basename(p)`.
//!
//! Every create or delete of `p` is a transaction on `q` too (it holds
//! `q`'s lock and rewrites `q`'s list under its own txid), and `q`'s
//! list merges monotonically by `children_txid` and advances `q`'s
//! watermark. So a gate value `G = max(watermark(q), applied_txid)`
//! means every create and delete of a child of `q` with txid `≤ G` is
//! in the list, and a name the list lacks does not exist in a legal
//! storage state at `G ≥ MRD`. This is the one-level case of
//! [`ReadReplica::serve_subtree`]'s completeness proof, and the same
//! gate a `get_children` served from the replica already relies on. A
//! name the list *does* carry but whose record is not resident
//! (evicted, or its write not fed) stays a miss, as does any path whose
//! parent is not resident or fails the gate.
//!
//! Z4: replica records carry the same `epoch_marks` the storage copy
//! was written with, and the client re-runs its epoch stall on every
//! serve, replica or not. A proven absence stalls on the proving
//! parent's marks: the patch that dropped the name carried the epoch's
//! marks (conservative: it may also wait for watches on siblings).
//!
//! Feed-order soundness: the distributor taps the epoch **after** all
//! storage operations complete, so the replica never gets ahead of storage
//! — a serve is always re-readable from the backing store.
//!
//! # The feed is the retained log, read by cursor
//!
//! Each region keeps the frames it fed in one log, and that log is the
//! feed (the febft log idiom). [`ReplicaSet::feed`]
//! stamps a frame with the region's next sequence number, appends it to
//! the log, then notifies each replica. A notified replica pulls every
//! retained frame from its cursor (the sequence number of the next frame
//! it has not applied) to the log's head, under one hold of its state
//! lock. Frames therefore apply in sequence order, each once, with no
//! duplicate, gap or reordering to detect: a chaos-dropped or delayed
//! notification leaves the replica behind until its next one, a
//! duplicated one pulls nothing new, and [`ReplicaSet::reconcile`] pulls
//! every replica to the head. A joiner copies a live peer at the head
//! (below).
//!
//! The log is compacted by parent. A create's children patch carries its
//! parent's full list, so the log keeps only the patch that decides a
//! replay: per parent, the one with the largest txid since the parent's
//! last `Write` or `Delete`. Between two such ops a patch only patches a
//! resident record and never populates one, and patches merge by the max
//! `children_txid`, so that patch alone decides the result.
//!
//! **A pull always ends at the head.** A compacted log replays to the
//! full one's records only at its head: the patch it dropped from an
//! earlier frame is decided by a later frame's, and a replica that
//! stopped between the two would hold an applied floor past a children
//! list it lacks. So a replica with `feed_lag` L pulls once it trails the
//! head by more than L frames, and then pulls to the head: L bounds how
//! far it trails (a sawtooth), never a window it applies from.
//!
//! **The log keeps what its replicas still need.** Its only readers are
//! the region's replicas. After every feed and reconcile, the log drops
//! the frames below `min(replica cursors)`, so no cursor ever falls below
//! the oldest retained frame. A replica that lags or misses
//! notifications keeps the log from its cursor on; the per-parent
//! compaction makes that suffix grow with frames, not with frames ×
//! children.
//!
//! # A joiner copies a live peer
//!
//! [`ReplicaSet::join_replica`] bootstraps a replica mid-run from one of
//! its region's replicas (the febft idiom: followers serve state transfer
//! to joiners). Under the feed lock it pulls that peer to the head,
//! clones its state (the `Arc`-shared records, LRU stamps, resident
//! bytes, per-group floors and cursor) and registers the clone. No frame
//! can be fed between the pull and the registration, so the joiner is a
//! replica at the head with its peer's contents: it reads no storage,
//! replays no suffix, and needs no part of the log kept for it. Its
//! records and floors are a state the peer reached by pulling, so the
//! serve gate's argument holds for the joiner as it does for the peer.
//!
//! # A watch-arming read pulls to the head
//!
//! A client that arms a watch reads the node's control item and then
//! pulls its replica to the region's feed head itself
//! ([`ReadReplica::pull_to_head`]): under the feed lock, like a notified
//! pull, but whatever the replica's `feed_lag`. Every write popped before
//! the item read appended its frame before its pop, so after the pull the
//! replica holds it; the writes the item still shows pending raise the
//! read's floor instead (`docs/consistency.md`, "Watch-arming reads").
//! The pull only moves the replica's own cursor forward, so it never
//! needs a trim: the next feed or reconcile trims.

use crate::user_store::NodeRecord;
use bytes::Bytes;
use fk_cloud::chaos::{Chaos, FaultKind};
use fk_cloud::metering::Meter;
use fk_cloud::ops::Op;
use fk_cloud::trace::Ctx;
use fk_cloud::Region;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Configuration of the regional read-replica tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaConfig {
    /// Replicas per region. `0` disables the tier entirely (the read
    /// path is then byte-identical to a deployment without it).
    pub count: usize,
    /// Resident-set bound per replica, in bytes (LRU eviction).
    pub byte_budget: usize,
    /// Injected feed lag, in frames: a replica trails the feed log's
    /// head by at most this many frames. It pulls once it trails by
    /// more, and a pull always ends at the head (module docs). `0` (the
    /// default) applies every frame as it is fed; tests use larger
    /// values to prove a lagging replica falls through instead of
    /// serving stale data.
    pub feed_lag: usize,
}

impl ReplicaConfig {
    /// The disabled tier (no replicas, nothing fed, nothing served).
    pub fn disabled() -> Self {
        ReplicaConfig {
            count: 0,
            byte_budget: 0,
            feed_lag: 0,
        }
    }

    /// `count` replicas per region with a generous default byte budget.
    pub fn with_count(count: usize) -> Self {
        ReplicaConfig {
            count,
            byte_budget: 64 * 1024 * 1024,
            feed_lag: 0,
        }
    }

    /// Sets the per-replica resident-set bound.
    pub fn with_byte_budget(mut self, bytes: usize) -> Self {
        self.byte_budget = bytes;
        self
    }

    /// Sets the injected feed lag (frames a replica may trail the head).
    pub fn with_feed_lag(mut self, epochs: usize) -> Self {
        self.feed_lag = epochs;
        self
    }

    /// True when the tier exists at all.
    pub fn enabled(&self) -> bool {
        self.count > 0
    }
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig::disabled()
    }
}

/// One operation of an epoch delta, in effect order.
#[derive(Debug, Clone)]
pub enum ReplicaOp {
    /// The final record written for a path this epoch, codec-framed
    /// ([`crate::codec::encode_node`]) with the destination region's
    /// epoch marks — the same frame class the user store received.
    Write {
        /// Node path.
        path: String,
        /// Encoded [`NodeRecord`] frame.
        frame: Bytes,
    },
    /// A children-list rewrite for a path with no same-epoch node
    /// write. Applied **in place** on a resident entry (never
    /// populates: synthesizing a stub would need the storage base).
    Children {
        /// The rewritten parent path.
        parent: String,
        /// Full children list as of `txid` (shared with the effect).
        children: Arc<Vec<String>>,
        /// Txid of the rewriting transaction.
        txid: u64,
    },
    /// Node deleted.
    Delete {
        /// Deleted path.
        path: String,
    },
}

/// One committed epoch, folded to at most one operation per path, as
/// fed to every replica of one region.
#[derive(Debug, Clone)]
pub struct EpochDelta {
    /// Per-path final operations (shared across the region's replicas).
    pub ops: Arc<Vec<ReplicaOp>>,
    /// The region's epoch marks at distribution time (stamped into
    /// children patches, mirroring the storage rewrite).
    pub marks: Arc<Vec<u64>>,
    /// Per shard group, the highest txid this epoch distributed —
    /// advances the replica's applied floors when the delta applies.
    pub high_water: Arc<Vec<(usize, u64)>>,
    /// Per-region feed sequence number, stamped by [`ReplicaSet::feed`]
    /// as the frame enters the retained feed log (producers leave it
    /// 0). A replica's cursor counts in it.
    pub seq: u64,
}

/// What [`ReadReplica::lookup`] decided for one path.
#[derive(Debug)]
pub enum Lookup {
    /// The path is resident and passes the watermark gate.
    Hit(Arc<NodeRecord>),
    /// The path does not exist, proven from its parent's children list
    /// (module docs).
    Absent {
        /// The resident parent whose list proves the absence; a reader
        /// runs its Z4 epoch stall on this record's marks.
        parent: Arc<NodeRecord>,
        /// The proof's gate value, `max(watermark(parent), applied)`:
        /// no child of the parent with this name was created at or
        /// below it without a later delete.
        proven_txid: u64,
    },
    /// Nothing proven: fall through to storage.
    Miss,
}

/// Point-in-time counters of one replica.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Lookups served from the hot tree, proven absences included.
    pub hits: u64,
    /// Lookups that fell through (not resident and not proven absent,
    /// evicted, or below the gate).
    pub misses: u64,
    /// Lookups answered "absent" from the parent's children list (each
    /// also counts as one hit).
    pub proven_absent: u64,
    /// Lookups that failed the watermark gate specifically (the entry
    /// existed but could not be proven fresh enough for the session).
    pub stale_rejects: u64,
    /// Records evicted by the byte budget.
    pub evictions: u64,
    /// Epoch deltas applied (a lagging replica counts a frame when it
    /// pulls it).
    pub epochs_applied: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
}

#[derive(Clone)]
struct Slot {
    record: Arc<NodeRecord>,
    /// Max applied `modified_txid` for this path (= the copy's mzxid).
    watermark: u64,
    /// LRU clock value of the last touch.
    stamp: u64,
    /// Accounted resident size.
    size: usize,
}

#[derive(Clone)]
struct ReplicaState {
    tree: HashMap<String, Slot>,
    resident_bytes: usize,
    clock: u64,
    /// Per shard group: highest txid whose epoch is fully applied.
    floors: Vec<u64>,
    /// The feed cursor: the sequence number of the next frame to pull.
    next_seq: u64,
}

/// A follower-style regional read replica: an in-memory hot tree fed by
/// the distributor's committed epoch stream, serving reads under the
/// watermark gate (module docs).
pub struct ReadReplica {
    region: Region,
    config: ReplicaConfig,
    meter: Option<Meter>,
    /// The feed state of the region whose tier this replica belongs to
    /// ([`Self::pull_to_head`]); `None` for a replica outside a tier.
    feed: Option<Arc<Mutex<FeedState>>>,
    state: Mutex<ReplicaState>,
    hits: AtomicU64,
    misses: AtomicU64,
    proven_absent: AtomicU64,
    stale_rejects: AtomicU64,
    evictions: AtomicU64,
    epochs_applied: AtomicU64,
}

/// The serve gate (module docs): `Some(max(watermark, applied))`, the
/// txid through which the copy is proven fresh, when it reaches `mrd`.
fn gate(watermark: u64, applied: u64, mrd: u64) -> Option<u64> {
    Some(watermark.max(applied)).filter(|&proven| proven >= mrd)
}

impl ReadReplica {
    /// Creates an empty replica for `region`, tracking `groups` shard
    /// groups' applied floors. Replica hits are recorded on `meter`
    /// (metered but, like cache hits, never billed).
    pub fn new(region: Region, config: ReplicaConfig, groups: usize, meter: Option<Meter>) -> Self {
        ReadReplica {
            region,
            config,
            meter,
            feed: None,
            state: Mutex::new(ReplicaState {
                tree: HashMap::new(),
                resident_bytes: 0,
                clock: 0,
                floors: vec![0; groups.max(1)],
                next_seq: 1,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            proven_absent: AtomicU64::new(0),
            stale_rejects: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            epochs_applied: AtomicU64::new(0),
        }
    }

    /// The region whose epoch stream feeds this replica.
    pub fn region(&self) -> Region {
        self.region
    }

    /// The tier configuration.
    pub fn config(&self) -> &ReplicaConfig {
        &self.config
    }

    /// The replica-wide applied watermark: the minimum over shard
    /// groups of the per-group applied txid floors (module docs).
    pub fn applied_txid(&self) -> u64 {
        let state = self.state.lock();
        state.floors.iter().copied().min().unwrap_or(0)
    }

    /// The feed cursor: the sequence number of the next frame to pull.
    pub fn feed_position(&self) -> u64 {
        self.state.lock().next_seq
    }

    /// Pulls this replica to its region's feed head under the feed lock,
    /// whatever its `feed_lag` (module docs, "A watch-arming read pulls
    /// to the head"). A replica outside a tier has no feed to pull.
    pub fn pull_to_head(&self, ctx: &Ctx) {
        if let Some(feed) = &self.feed {
            self.pull(ctx, &feed.lock().log, 0);
        }
    }

    /// Pulls every retained frame from the cursor to the log's head,
    /// under one hold of the state lock, once the replica trails the
    /// head by more than `lag` frames. A pull always ends at the head
    /// (module docs). Returns the cursor after the pull.
    fn pull(&self, ctx: &Ctx, log: &VecDeque<EpochDelta>, lag: usize) -> u64 {
        let mut state = self.state.lock();
        if let (Some(first), Some(head)) = (log.front().map(|f| f.seq), log.back().map(|f| f.seq)) {
            debug_assert!(
                state.next_seq >= first,
                "the log keeps every cursor's suffix"
            );
            if (head + 1).saturating_sub(state.next_seq) > lag as u64 {
                for frame in log.range((state.next_seq - first) as usize..) {
                    self.apply(ctx, &mut state, frame);
                }
                state.next_seq = head + 1;
            }
        }
        state.next_seq
    }

    fn apply(&self, ctx: &Ctx, state: &mut ReplicaState, delta: &EpochDelta) {
        let mut applied_bytes = 0usize;
        for op in delta.ops.iter() {
            match op {
                ReplicaOp::Write { frame, .. } => {
                    applied_bytes += frame.len();
                    let Some(record) = crate::codec::decode_node(frame) else {
                        continue;
                    };
                    self.merge_insert(state, record);
                }
                ReplicaOp::Children {
                    parent,
                    children,
                    txid,
                } => {
                    // In-place patch of a resident entry only — the same
                    // monotone guard as the storage-side rewrite. A
                    // non-resident parent is skipped: the feed never
                    // populates through a children patch.
                    let Some(mut record) = state
                        .tree
                        .get(parent)
                        .and_then(|slot| slot.record.with_children(Arc::clone(children), *txid))
                    else {
                        continue;
                    };
                    record.epoch_marks = Arc::clone(&delta.marks);
                    applied_bytes += record.path.len();
                    self.insert(state, record);
                }
                ReplicaOp::Delete { path } => {
                    if let Some(slot) = state.tree.remove(path) {
                        state.resident_bytes -= slot.size;
                    }
                }
            }
        }
        for &(group, hw) in delta.high_water.iter() {
            if let Some(floor) = state.floors.get_mut(group) {
                *floor = (*floor).max(hw);
            }
        }
        self.epochs_applied.fetch_add(1, Ordering::Relaxed);
        // The apply is in-memory work on the feeding invocation.
        ctx.charge(Op::FnCompute, applied_bytes);
    }

    /// Inserts `record`, merged with the resident copy of its path by
    /// the distributor's rule ([`NodeRecord::merge_existing`]).
    fn merge_insert(&self, state: &mut ReplicaState, mut record: NodeRecord) {
        if let Some(existing) = state.tree.get(&record.path) {
            record.merge_existing(&existing.record);
        }
        self.insert(state, record);
    }

    fn insert(&self, state: &mut ReplicaState, record: NodeRecord) {
        let size = slot_size(&record);
        let watermark = record.modified_txid;
        state.clock += 1;
        let stamp = state.clock;
        if let Some(old) = state.tree.insert(
            record.path.clone(),
            Slot {
                record: Arc::new(record),
                watermark,
                stamp,
                size,
            },
        ) {
            state.resident_bytes -= old.size;
        }
        state.resident_bytes += size;
        // Byte-budget LRU eviction (never evicts the entry just fed —
        // it holds the freshest stamp).
        while state.resident_bytes > self.config.byte_budget && state.tree.len() > 1 {
            let Some(coldest) = state
                .tree
                .iter()
                .min_by_key(|(_, slot)| slot.stamp)
                .map(|(path, _)| path.clone())
            else {
                break;
            };
            if let Some(evicted) = state.tree.remove(&coldest) {
                state.resident_bytes -= evicted.size;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Looks up `path` for a session with monotonic-read floor `mrd`.
    /// Returns the record only when the watermark gate passes (module
    /// docs); a served hit is charged in the in-memory latency class
    /// ([`Op::MemGet`]) and metered as a replica hit — never billed, no
    /// storage service saw the read. A miss charges and meters nothing:
    /// the fall-through storage read pays its own way. A path that is
    /// not resident is a miss here; [`Self::lookup`] also proves absence.
    pub fn serve(&self, ctx: &Ctx, path: &str, mrd: u64) -> Option<Arc<NodeRecord>> {
        match self.decide(ctx, path, mrd, false) {
            Lookup::Hit(record) => Some(record),
            Lookup::Absent { .. } | Lookup::Miss => None,
        }
    }

    /// [`Self::serve`] that also proves absence: a path that is not
    /// resident is [`Lookup::Absent`] when its resident parent passes the
    /// gate and its children list lacks the name (module docs). A proven
    /// absence is charged and metered as one hit, never also a miss.
    pub fn lookup(&self, ctx: &Ctx, path: &str, mrd: u64) -> Lookup {
        self.decide(ctx, path, mrd, true)
    }

    /// One point decision under one hold of the state lock; absence is
    /// proven only when `prove_absence` asks for it.
    fn decide(&self, ctx: &Ctx, path: &str, mrd: u64, prove_absence: bool) -> Lookup {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        let applied = state.floors.iter().copied().min().unwrap_or(0);
        // The deciding slot: the path's own, or, to prove it absent, its
        // parent's, whose list must lack `name`.
        let (slot, name) = match state.tree.get_mut(path) {
            Some(slot) => (Some(slot), None),
            None => match crate::path::parent(path).filter(|_| prove_absence) {
                Some(parent) => (
                    state.tree.get_mut(parent),
                    Some(crate::path::basename(path)),
                ),
                None => (None, None),
            },
        };
        let decided = slot.and_then(|slot| {
            let Some(proven_txid) = gate(slot.watermark, applied, mrd) else {
                if name.is_none() {
                    self.stale_rejects.fetch_add(1, Ordering::Relaxed);
                }
                return None;
            };
            // A listed name that is not resident (evicted, or its write
            // not fed) proves nothing.
            if let Some(name) = name {
                if slot.record.children.iter().any(|child| child == name) {
                    return None;
                }
            }
            state.clock += 1;
            slot.stamp = state.clock;
            Some((Arc::clone(&slot.record), proven_txid))
        });
        drop(guard);
        let Some((record, proven_txid)) = decided else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Lookup::Miss;
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(meter) = &self.meter {
            meter.replica_hit();
        }
        if name.is_none() {
            ctx.charge(Op::MemGet, record.data.len().max(1));
            Lookup::Hit(record)
        } else {
            self.proven_absent.fetch_add(1, Ordering::Relaxed);
            ctx.charge(Op::MemGet, 1);
            Lookup::Absent {
                parent: record,
                proven_txid,
            }
        }
    }

    /// Serves the whole subtree rooted at `root` for a session with
    /// monotonic-read floor `mrd`, or `None` to fall through to a
    /// storage scan.
    ///
    /// Point lookups can serve any resident entry, but a subtree serve
    /// must also prove *completeness* — a silently missing (evicted or
    /// never-fed) descendant would make the enumeration lie. The proof
    /// walks the resident tree from `root` along the records' own
    /// children lists: every reached node must be resident and pass the
    /// point-serve watermark gate. Any miss or stale entry rejects the
    /// whole serve — partial subtrees are never served. Each served
    /// parent's gate covers its children list (lists merge monotonically
    /// by `children_txid` and advance the watermark), so the walk's
    /// frontier is as fresh as the gate demands and the enumeration is
    /// equivalent to a legal storage scan issued at or after `mrd`.
    pub fn serve_subtree(&self, ctx: &Ctx, root: &str, mrd: u64) -> Option<Vec<Arc<NodeRecord>>> {
        let mut state = self.state.lock();
        let applied = state.floors.iter().copied().min().unwrap_or(0);
        let mut stack = vec![root.to_owned()];
        let mut out: Vec<Arc<NodeRecord>> = Vec::new();
        while let Some(path) = stack.pop() {
            let Some(slot) = state.tree.get(&path) else {
                drop(state);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            };
            if gate(slot.watermark, applied, mrd).is_none() {
                drop(state);
                self.stale_rejects.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            let record = Arc::clone(&slot.record);
            for child in record.children.iter() {
                stack.push(if path == "/" {
                    format!("/{child}")
                } else {
                    format!("{path}/{child}")
                });
            }
            out.push(record);
        }
        // LRU-touch only once the whole walk has passed: a rejected
        // serve must not refresh stamps it never served from.
        state.clock += 1;
        let stamp = state.clock;
        for record in &out {
            if let Some(slot) = state.tree.get_mut(&record.path) {
                slot.stamp = stamp;
            }
        }
        drop(state);
        out.sort_by(|a, b| a.path.cmp(&b.path));
        self.hits.fetch_add(out.len() as u64, Ordering::Relaxed);
        let bytes: usize = out.iter().map(|record| record.data.len()).sum();
        ctx.charge(Op::MemGet, bytes.max(1));
        if let Some(meter) = &self.meter {
            for _ in &out {
                meter.replica_hit();
            }
        }
        Some(out)
    }

    /// The current record for `path`, gate-free (tests compare replica
    /// contents against backing storage with this).
    pub fn peek(&self, path: &str) -> Option<Arc<NodeRecord>> {
        self.state
            .lock()
            .tree
            .get(path)
            .map(|slot| Arc::clone(&slot.record))
    }

    /// Paths currently resident, in no particular order.
    pub fn resident_paths(&self) -> Vec<String> {
        self.state.lock().tree.keys().cloned().collect()
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> ReplicaStats {
        let state = self.state.lock();
        ReplicaStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            proven_absent: self.proven_absent.load(Ordering::Relaxed),
            stale_rejects: self.stale_rejects.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            epochs_applied: self.epochs_applied.load(Ordering::Relaxed),
            resident_bytes: state.resident_bytes as u64,
        }
    }
}

/// Accounted resident size of one record (payload + path + children +
/// marks + fixed bookkeeping overhead).
fn slot_size(record: &NodeRecord) -> usize {
    64 + record.path.len()
        + record.data.len()
        + record.children.iter().map(String::len).sum::<usize>()
        + record.epoch_marks.len() * 8
}

/// Per-region feed state: the monotone sequence counter and the retained
/// committed epoch-delta log the replicas pull from. The log keeps
/// exactly the frames some replica has not pulled ([`FeedState::trim`]).
///
/// The log is compacted by parent: of the children patches for one
/// parent since its last `Write` or `Delete`, only the one with the
/// largest txid is retained. A larger patch removes the older one from
/// the frame that holds it (the frame stays: its `high_water` still
/// advances floors), and a patch whose txid is not larger is left out
/// of the log copy. Every pull that ends at the head ends in the same
/// records as the full log would (module docs). Patches are never
/// compared across a `Write`:
/// its merge keeps a resident list with a larger `children_txid`, so
/// the patch before it still decides a replay.
struct FeedState {
    seq: u64,
    log: VecDeque<EpochDelta>,
    /// Per parent, `(seq, txid)` of the retained children patch with the
    /// largest txid since the parent's last `Write` or `Delete`.
    patches: HashMap<String, (u64, u64)>,
}

impl FeedState {
    /// Drops the frames every replica has pulled: those below `cursor`,
    /// the least replica cursor.
    fn trim(&mut self, cursor: u64) {
        while self.log.front().is_some_and(|frame| frame.seq < cursor) {
            self.log.pop_front();
        }
    }

    /// Appends a stamped frame to the retained log and compacts its
    /// children patches against the per-parent index (type docs). Relies
    /// on a frame holding at most one op per path.
    fn retain(&mut self, frame: EpochDelta) {
        let seq = frame.seq;
        let ops = Arc::clone(&frame.ops);
        self.log.push_back(frame);
        for op in ops.iter() {
            match op {
                ReplicaOp::Children { parent, txid, .. } => {
                    match self.patches.get(parent).copied() {
                        Some((_, kept)) if *txid <= kept => self.drop_patch(seq, parent),
                        previous => {
                            if let Some((at, _)) = previous {
                                self.drop_patch(at, parent);
                            }
                            self.patches.insert(parent.clone(), (seq, *txid));
                        }
                    }
                }
                ReplicaOp::Write { path, .. } | ReplicaOp::Delete { path } => {
                    self.patches.remove(path);
                }
            }
        }
    }

    /// Rebuilds retained frame `seq` without its children patch for
    /// `parent` (a no-op once every reader has pulled the frame).
    fn drop_patch(&mut self, seq: u64, parent: &str) {
        let Some(first) = self.log.front().map(|frame| frame.seq) else {
            return;
        };
        let Some(frame) = seq
            .checked_sub(first)
            .and_then(|offset| usize::try_from(offset).ok())
            .and_then(|idx| self.log.get_mut(idx))
        else {
            return;
        };
        let ops = frame
            .ops
            .iter()
            .filter(|op| !matches!(op, ReplicaOp::Children { parent: p, .. } if p == parent))
            .cloned()
            .collect();
        frame.ops = Arc::new(ops);
    }
}

/// One region's replica tier: the live replicas plus the feed state.
struct RegionTier {
    region: Region,
    replicas: RwLock<Vec<Arc<ReadReplica>>>,
    /// Shared with each replica of the region ([`ReadReplica::pull_to_head`]).
    feed: Arc<Mutex<FeedState>>,
}

impl RegionTier {
    /// A new replica of this region, fed by its feed log.
    fn replica(&self, config: ReplicaConfig, groups: usize, meter: Option<Meter>) -> ReadReplica {
        ReadReplica {
            feed: Some(Arc::clone(&self.feed)),
            ..ReadReplica::new(self.region, config, groups, meter)
        }
    }
}

struct ReplicaSetInner {
    regions: Vec<RegionTier>,
    config: ReplicaConfig,
    groups: usize,
    meter: Option<Meter>,
    chaos: OnceLock<Arc<Chaos>>,
}

/// The deployment's replica tier: per region (aligned with the
/// distributor's user stores), `ReplicaConfig::count` replicas sharing
/// each region's feed log. Every frame fed to a region is stamped with a
/// monotone per-region sequence number and appended to the feed log,
/// which each replica pulls by its own cursor (module docs). A mid-run
/// joiner copies a live peer ([`ReplicaSet::join_replica`]).
/// Cloning shares the tier.
#[derive(Clone)]
pub struct ReplicaSet {
    inner: Arc<ReplicaSetInner>,
}

impl Default for ReplicaSet {
    fn default() -> Self {
        ReplicaSet {
            inner: Arc::new(ReplicaSetInner {
                regions: Vec::new(),
                config: ReplicaConfig::disabled(),
                groups: 1,
                meter: None,
                chaos: OnceLock::new(),
            }),
        }
    }
}

impl ReplicaSet {
    /// Builds the tier: `config.count` replicas for each of `regions`,
    /// tracking `groups` shard groups. A disabled config builds an
    /// empty tier whose feed is a no-op (byte-identical to a deployment
    /// without the knob).
    pub fn build(
        config: ReplicaConfig,
        regions: &[Region],
        groups: usize,
        meter: Option<Meter>,
    ) -> Self {
        let tiers = if config.enabled() {
            regions
                .iter()
                .map(|region| {
                    let tier = RegionTier {
                        region: *region,
                        replicas: RwLock::new(Vec::new()),
                        feed: Arc::new(Mutex::new(FeedState {
                            seq: 0,
                            log: VecDeque::new(),
                            patches: HashMap::new(),
                        })),
                    };
                    *tier.replicas.write() = (0..config.count)
                        .map(|_| Arc::new(tier.replica(config, groups, meter.clone())))
                        .collect();
                    tier
                })
                .collect()
        } else {
            Vec::new()
        };
        ReplicaSet {
            inner: Arc::new(ReplicaSetInner {
                regions: tiers,
                config,
                groups,
                meter,
                chaos: OnceLock::new(),
            }),
        }
    }

    /// Installs the chaos engine for feed delivery faults (at most
    /// once; never called for a disabled plan, so an untouched tier
    /// performs zero chaos work).
    pub fn install_chaos(&self, chaos: Arc<Chaos>) {
        let _ = self.inner.chaos.set(chaos);
    }

    /// True when no replica exists (feeding is then a no-op).
    pub fn is_empty(&self) -> bool {
        self.inner
            .regions
            .iter()
            .all(|tier| tier.replicas.read().is_empty())
    }

    /// Feeds one epoch delta to `region_idx`: stamps the region's next
    /// sequence number, appends the frame to the retained feed log
    /// (compacted by parent, `FeedState`), then notifies each replica,
    /// which pulls from its cursor to the head unless it trails by at
    /// most its `feed_lag` frames, and trims what every replica has
    /// pulled.
    /// The chaos engine may drop or delay a notification (the replica
    /// pulls the frame with its next one) or duplicate it (the second
    /// pull finds nothing new).
    pub fn feed(&self, ctx: &Ctx, region_idx: usize, delta: &EpochDelta) {
        let Some(tier) = self.inner.regions.get(region_idx) else {
            return;
        };
        let mut feed = tier.feed.lock();
        feed.seq += 1;
        let mut stamped = delta.clone();
        stamped.seq = feed.seq;
        feed.retain(stamped);
        let mut cursor = u64::MAX;
        for replica in tier.replicas.read().iter() {
            let at = if self.notified(ctx) {
                replica.pull(ctx, &feed.log, replica.config.feed_lag)
            } else {
                replica.feed_position()
            };
            cursor = cursor.min(at);
        }
        feed.trim(cursor);
    }

    /// Rolls the feed faults for one (frame, replica) pair, in the order
    /// drop, duplicate, delay: true when the replica is notified. A
    /// dropped or delayed notification skips this pull; a duplicated
    /// one pulls once, as the second pull would find nothing new.
    fn notified(&self, ctx: &Ctx) -> bool {
        let Some(chaos) = self.inner.chaos.get() else {
            return true;
        };
        for kind in [
            FaultKind::FeedDrop,
            FaultKind::FeedDuplicate,
            FaultKind::FeedDelay,
        ] {
            if chaos.fire(ctx, kind) {
                if let Some(meter) = &self.inner.meter {
                    meter.fault_injected(kind.label());
                }
                return kind == FaultKind::FeedDuplicate;
            }
        }
        true
    }

    /// The region's current feed sequence number.
    pub fn feed_seq(&self, region_idx: usize) -> u64 {
        self.inner
            .regions
            .get(region_idx)
            .map(|tier| tier.feed.lock().seq)
            .unwrap_or(0)
    }

    /// Bootstraps a new replica into `region_idx` from a live peer
    /// (module docs, "A joiner copies a live peer"): under the feed lock,
    /// pulls one of the region's replicas to the head, clones its state
    /// and registers the clone with the tier. The copy is in-memory work
    /// on the caller.
    ///
    /// # Panics
    ///
    /// If the tier is disabled (no region `region_idx`, hence no peer).
    pub fn join_replica(&self, ctx: &Ctx, region_idx: usize) -> Arc<ReadReplica> {
        let tier = &self.inner.regions[region_idx];
        let feed = tier.feed.lock();
        let peer = Arc::clone(tier.replicas.read().first().expect("a live peer"));
        peer.pull(ctx, &feed.log, 0);
        let state = peer.state.lock().clone();
        ctx.charge(Op::FnCompute, state.resident_bytes);
        let replica = Arc::new(ReadReplica {
            state: Mutex::new(state),
            ..tier.replica(
                self.inner.config,
                self.inner.groups,
                self.inner.meter.clone(),
            )
        });
        tier.replicas.write().push(Arc::clone(&replica));
        replica
    }

    /// Quiesces the tier: pulls every replica to its region's head,
    /// whatever its `feed_lag`, and trims the log. Run before
    /// byte-identity comparisons and before a drained group's floor is
    /// retired — a replica a dropped notification left behind has no
    /// later notification to pull it.
    pub fn reconcile(&self, ctx: &Ctx) {
        for tier in self.inner.regions.iter() {
            let mut feed = tier.feed.lock();
            let cursor = tier
                .replicas
                .read()
                .iter()
                .map(|replica| replica.pull(ctx, &feed.log, 0))
                .min()
                .unwrap_or(u64::MAX);
            feed.trim(cursor);
        }
    }

    /// The replicas of one region (tests and benches).
    pub fn region(&self, region_idx: usize) -> Vec<Arc<ReadReplica>> {
        self.inner
            .regions
            .get(region_idx)
            .map(|tier| tier.replicas.read().clone())
            .unwrap_or_default()
    }

    /// Picks the replica a session reads from: clients read region 0's
    /// user store, so they are pinned to one of region 0's replicas by
    /// a stable session-id hash (sessions spread across replicas, each
    /// session sticks to one).
    pub fn replica_for(&self, session_id: &str) -> Option<Arc<ReadReplica>> {
        let local = self.inner.regions.first()?.replicas.read();
        if local.is_empty() {
            return None;
        }
        let mut hash = 0xcbf29ce484222325u64;
        for byte in session_id.bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
        Some(Arc::clone(&local[(hash % local.len() as u64) as usize]))
    }
}

/// Shared publication of the leader tier's *distributed* txid
/// high-water marks, one floor per shard group — in-memory atomics
/// only, written by each leader after its epoch's storage operations
/// complete and read by the heartbeat function, which piggybacks the
/// min over groups onto its pings so idle sessions' MRD keeps
/// advancing (and their replica/cache hits stay eligible) without a
/// write. The min-over-groups is the same conservative bound the
/// replica serve gate uses: a txid at or below it is distributed
/// everywhere, so `fetch_max`ing it into a session's MRD never claims
/// freshness storage cannot honor. An idle group pins the min (its
/// floor never advances), which only makes the piggyback *less* eager
/// — never unsound.
/// Membership awareness: a provisioned-but-inactive group (scale-out
/// headroom) or a fully drained one would pin the min at its stale
/// floor forever, so each group carries an *active* flag. Publishing
/// activates a group (its leader is distributing); retiring a drained
/// group excludes it — only after its last epoch is distributed and
/// replicas have reconciled, so excluding it can never claim freshness
/// ahead of what every replica actually applied.
#[derive(Debug, Default)]
pub struct CommittedFloors {
    floors: Vec<AtomicU64>,
    active: Vec<AtomicBool>,
}

impl CommittedFloors {
    /// Floors for `groups` shard groups, all starting at 0 and active.
    pub fn new(groups: usize) -> Self {
        CommittedFloors {
            floors: (0..groups.max(1)).map(|_| AtomicU64::new(0)).collect(),
            active: (0..groups.max(1)).map(|_| AtomicBool::new(true)).collect(),
        }
    }

    /// Advances `group`'s distributed high-water mark to at least
    /// `txid` (monotone) and marks the group active.
    pub fn publish(&self, group: usize, txid: u64) {
        if let Some(floor) = self.floors.get(group) {
            floor.fetch_max(txid, Ordering::SeqCst);
        }
        if let Some(active) = self.active.get(group) {
            active.store(true, Ordering::SeqCst);
        }
    }

    /// Includes or excludes `group` from the min-over-groups. Deploy
    /// deactivates provisioned-but-not-yet-active groups at build;
    /// drain completion retires the drained group's floor.
    pub fn set_active(&self, group: usize, active: bool) {
        if let Some(flag) = self.active.get(group) {
            flag.store(active, Ordering::SeqCst);
        }
    }

    /// True when `group` participates in the min-over-groups.
    pub fn is_active(&self, group: usize) -> bool {
        self.active
            .get(group)
            .map(|flag| flag.load(Ordering::SeqCst))
            .unwrap_or(false)
    }

    /// Number of tracked shard groups.
    pub fn groups(&self) -> usize {
        self.floors.len()
    }

    /// The per-group floors, active or not
    /// ([`crate::deploy::Deployment::scale_out`] seeds joining groups
    /// past them).
    pub fn snapshot(&self) -> Vec<u64> {
        self.floors
            .iter()
            .map(|floor| floor.load(Ordering::SeqCst))
            .collect()
    }

    /// The piggyback value: the minimum over *active* groups of the
    /// distributed high-water marks (0 when no group is active).
    pub fn committed(&self) -> u64 {
        self.floors
            .iter()
            .zip(self.active.iter())
            .filter(|(_, active)| active.load(Ordering::SeqCst))
            .map(|(floor, _)| floor.load(Ordering::SeqCst))
            .min()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_node;
    use crate::system_store::txid;
    use fk_cloud::chaos::{FaultPlan, FaultSpec};
    use std::collections::BTreeMap;

    fn record(path: &str, data: &[u8], txid: u64) -> NodeRecord {
        NodeRecord {
            path: path.to_owned(),
            data: Bytes::copy_from_slice(data),
            created_txid: 1,
            modified_txid: txid,
            version: 0,
            children: Arc::new(Vec::new()),
            children_txid: txid,
            ephemeral_owner: None,
            epoch_marks: Arc::new(Vec::new()),
        }
    }

    fn delta_of(records: &[NodeRecord], hw: u64) -> EpochDelta {
        EpochDelta {
            ops: Arc::new(
                records
                    .iter()
                    .map(|r| ReplicaOp::Write {
                        path: r.path.clone(),
                        frame: encode_node(r),
                    })
                    .collect(),
            ),
            marks: Arc::new(Vec::new()),
            high_water: Arc::new(vec![(0, hw)]),
            seq: 0,
        }
    }

    /// A one-region tier of one replica, and that replica: tests feed
    /// the tier, as the distributor does.
    fn tier(config: ReplicaConfig, groups: usize) -> (ReplicaSet, Arc<ReadReplica>) {
        let set = ReplicaSet::build(config, &[Region::US_EAST_1], groups, None);
        let replica = Arc::clone(&set.region(0)[0]);
        (set, replica)
    }

    /// Registers a replica in region 0 whose `feed_lag` exceeds any test
    /// stream: it never pulls on a notification, so the log keeps every
    /// frame until a reconcile.
    fn hold_log(set: &ReplicaSet) -> Arc<ReadReplica> {
        let tier = &set.inner.regions[0];
        let holder = Arc::new(ReadReplica {
            config: set.inner.config.with_feed_lag(usize::MAX),
            ..tier.replica(set.inner.config, set.inner.groups, None)
        });
        tier.replicas.write().push(Arc::clone(&holder));
        holder
    }

    #[test]
    fn serves_fresh_entries_and_gates_on_mrd() {
        let (set, replica) = tier(ReplicaConfig::with_count(1), 1);
        let ctx = Ctx::disabled();
        set.feed(&ctx, 0, &delta_of(&[record("/a", b"v1", 5)], 5));
        // Fresh enough for MRD 5 (watermark) and for MRD 0.
        assert_eq!(replica.serve(&ctx, "/a", 5).unwrap().data.as_ref(), b"v1");
        assert!(replica.serve(&ctx, "/a", 0).is_some());
        // The applied floor (5) also admits an entry-watermark miss:
        // MRD 5 with watermark 5 passes either way, MRD 6 must not.
        assert!(replica.serve(&ctx, "/a", 6).is_none());
        assert_eq!(replica.stats().stale_rejects, 1);
        // `serve` never proves absence.
        assert!(replica.serve(&ctx, "/missing", 0).is_none());
        assert_eq!(replica.applied_txid(), 5);
    }

    #[test]
    fn applied_floor_admits_unmodified_entries_for_newer_mrd() {
        let (set, replica) = tier(ReplicaConfig::with_count(1), 1);
        let ctx = Ctx::disabled();
        set.feed(&ctx, 0, &delta_of(&[record("/hot", b"v1", 3)], 3));
        // A later epoch touches a *different* path; /hot is unchanged
        // but the floor proves it current through txid 9.
        set.feed(&ctx, 0, &delta_of(&[record("/other", b"x", 9)], 9));
        assert!(replica.serve(&ctx, "/hot", 9).is_some());
        assert!(replica.serve(&ctx, "/hot", 10).is_none());
    }

    #[test]
    fn feed_lag_pulls_to_the_head_in_a_sawtooth() {
        let (set, replica) = tier(ReplicaConfig::with_count(1).with_feed_lag(2), 1);
        let ctx = Ctx::disabled();
        set.feed(&ctx, 0, &delta_of(&[record("/a", b"v1", 1)], 1));
        set.feed(&ctx, 0, &delta_of(&[record("/a", b"v2", 2)], 2));
        // The replica trails the head by two frames: nothing pulled yet.
        assert!(replica.serve(&ctx, "/a", 0).is_none());
        assert_eq!(replica.stats().epochs_applied, 0);
        assert_eq!(replica.feed_position(), 1);
        // A third frame puts it three behind: it pulls to the head.
        set.feed(&ctx, 0, &delta_of(&[record("/a", b"v3", 3)], 3));
        assert_eq!(replica.serve(&ctx, "/a", 3).unwrap().data.as_ref(), b"v3");
        assert_eq!(replica.stats().epochs_applied, 3);
        assert_eq!(replica.feed_position(), 4);
        // Two more frames leave it two behind again.
        set.feed(&ctx, 0, &delta_of(&[record("/a", b"v4", 4)], 4));
        set.feed(&ctx, 0, &delta_of(&[record("/a", b"v5", 5)], 5));
        assert_eq!(replica.serve(&ctx, "/a", 0).unwrap().data.as_ref(), b"v3");
        // A session that already observed txid 4 must fall through.
        assert!(replica.serve(&ctx, "/a", 4).is_none());
        set.reconcile(&ctx);
        assert_eq!(replica.serve(&ctx, "/a", 5).unwrap().data.as_ref(), b"v5");
        assert_eq!(replica.feed_position(), 6);
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let budget = 2 * (64 + 2 + 100);
        let (set, replica) = tier(ReplicaConfig::with_count(1).with_byte_budget(budget), 1);
        let ctx = Ctx::disabled();
        set.feed(
            &ctx,
            0,
            &delta_of(
                &[record("/a", &[1u8; 100], 1), record("/b", &[2u8; 100], 2)],
                2,
            ),
        );
        // Touch /a so /b is the LRU victim when /c arrives.
        assert!(replica.serve(&ctx, "/a", 0).is_some());
        set.feed(&ctx, 0, &delta_of(&[record("/c", &[3u8; 100], 3)], 3));
        assert!(replica.peek("/b").is_none(), "LRU victim evicted");
        assert!(replica.peek("/a").is_some());
        assert!(replica.peek("/c").is_some());
        assert_eq!(replica.stats().evictions, 1);
        assert!(replica.stats().resident_bytes <= budget as u64);
    }

    #[test]
    fn children_patch_applies_in_place_and_never_populates() {
        let (set, replica) = tier(ReplicaConfig::with_count(1), 1);
        let ctx = Ctx::disabled();
        set.feed(&ctx, 0, &delta_of(&[record("/p", b"d", 4)], 4));
        let patch = EpochDelta {
            ops: Arc::new(vec![
                ReplicaOp::Children {
                    parent: "/p".into(),
                    children: Arc::new(vec!["c1".into()]),
                    txid: 7,
                },
                ReplicaOp::Children {
                    parent: "/absent".into(),
                    children: Arc::new(vec!["x".into()]),
                    txid: 7,
                },
            ]),
            marks: Arc::new(vec![42]),
            high_water: Arc::new(vec![(0, 7)]),
            seq: 0,
        };
        set.feed(&ctx, 0, &patch);
        let patched = replica.peek("/p").unwrap();
        assert_eq!(patched.children.as_slice(), &["c1".to_owned()]);
        assert_eq!(patched.children_txid, 7);
        assert_eq!(patched.modified_txid, 7, "watermark advanced");
        assert_eq!(patched.epoch_marks.as_slice(), &[42]);
        assert!(replica.peek("/absent").is_none(), "patch never populates");
        // Stale patch (older txid) is a no-op.
        let stale = EpochDelta {
            ops: Arc::new(vec![ReplicaOp::Children {
                parent: "/p".into(),
                children: Arc::new(Vec::new()),
                txid: 5,
            }]),
            marks: Arc::new(Vec::new()),
            high_water: Arc::new(Vec::new()),
            seq: 0,
        };
        set.feed(&ctx, 0, &stale);
        assert_eq!(
            replica.peek("/p").unwrap().children.as_slice(),
            &["c1".to_owned()]
        );
    }

    fn record_with_children(path: &str, children: &[&str], txid: u64) -> NodeRecord {
        let mut rec = record(path, b"d", txid);
        rec.children = Arc::new(children.iter().map(|c| (*c).to_owned()).collect());
        rec
    }

    #[test]
    fn serve_subtree_walks_resident_children() {
        let (set, replica) = tier(ReplicaConfig::with_count(1), 1);
        let ctx = Ctx::disabled();
        set.feed(
            &ctx,
            0,
            &delta_of(
                &[
                    record_with_children("/t", &["b", "a"], 4),
                    record_with_children("/t/a", &["x"], 4),
                    record("/t/a/x", b"leaf", 4),
                    record("/t/b", b"leaf", 4),
                    record("/other", b"o", 4),
                ],
                4,
            ),
        );
        let served = replica.serve_subtree(&ctx, "/t", 4).unwrap();
        let paths: Vec<&str> = served.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["/t", "/t/a", "/t/a/x", "/t/b"], "sorted, no /other");
        // A non-resident descendant rejects the whole serve.
        let evict = EpochDelta {
            ops: Arc::new(vec![ReplicaOp::Delete {
                path: "/t/a/x".into(),
            }]),
            marks: Arc::new(Vec::new()),
            high_water: Arc::new(Vec::new()),
            seq: 0,
        };
        set.feed(&ctx, 0, &evict);
        // /t/a still lists child "x": the walk misses and falls through
        // rather than serving a partial subtree.
        assert!(replica.serve_subtree(&ctx, "/t", 0).is_none());
        // A stale entry (MRD ahead of watermark and floor) also rejects.
        assert!(replica.serve_subtree(&ctx, "/other", 9).is_none());
        assert!(replica.serve_subtree(&ctx, "/missing", 0).is_none());
    }

    /// `/p` lists `a` and `b` at txid 4, and both children are fed.
    fn proving_parent(set: &ReplicaSet, ctx: &Ctx) {
        set.feed(
            ctx,
            0,
            &delta_of(
                &[
                    record("/p/a", b"d", 2),
                    record_with_children("/p", &["a", "b"], 4),
                    record("/p/b", b"d", 4),
                ],
                4,
            ),
        );
    }

    #[test]
    fn an_unlisted_child_of_a_gated_resident_parent_is_absent() {
        let (set, replica) = tier(ReplicaConfig::with_count(1), 1);
        let ctx = Ctx::disabled();
        proving_parent(&set, &ctx);
        let Lookup::Absent {
            parent,
            proven_txid,
        } = replica.lookup(&ctx, "/p/c", 4)
        else {
            panic!("an unlisted child of a fresh parent is proven absent");
        };
        assert_eq!((parent.path.as_str(), proven_txid), ("/p", 4));
        assert!(matches!(replica.lookup(&ctx, "/p/a", 4), Lookup::Hit(_)));
        // `serve` never proves absence.
        assert!(replica.serve(&ctx, "/p/c", 0).is_none());
        let stats = replica.stats();
        assert_eq!(
            (stats.hits, stats.proven_absent, stats.misses),
            (2, 1, 1),
            "a proven absence is one hit and never also a miss"
        );
    }

    #[test]
    fn a_listed_child_that_was_evicted_is_a_miss() {
        // Room for two of the three records: `/p/a`, fed first, is the
        // LRU victim.
        let budget = 2 * slot_size(&record_with_children("/p", &["a", "b"], 4));
        let (set, replica) = tier(ReplicaConfig::with_count(1).with_byte_budget(budget), 1);
        let ctx = Ctx::disabled();
        proving_parent(&set, &ctx);
        assert!(replica.peek("/p/a").is_none(), "evicted");
        assert_eq!(replica.stats().evictions, 1);
        assert!(matches!(replica.lookup(&ctx, "/p/a", 4), Lookup::Miss));
        assert!(matches!(
            replica.lookup(&ctx, "/p/c", 4),
            Lookup::Absent { .. }
        ));
        // A listed child whose write is not fed yet is a miss too.
        set.feed(
            &ctx,
            0,
            &delta_of(&[record_with_children("/q", &["x"], 5)], 5),
        );
        assert!(matches!(replica.lookup(&ctx, "/q/x", 5), Lookup::Miss));
    }

    #[test]
    fn a_parent_below_the_gate_proves_nothing() {
        let (set, replica) = tier(ReplicaConfig::with_count(1), 1);
        let ctx = Ctx::disabled();
        proving_parent(&set, &ctx);
        assert!(matches!(replica.lookup(&ctx, "/p/c", 5), Lookup::Miss));
        let stats = replica.stats();
        assert_eq!((stats.proven_absent, stats.misses), (0, 1));
        assert_eq!(stats.stale_rejects, 0, "the path itself was never resident");
    }

    #[test]
    fn a_parent_that_is_not_resident_proves_nothing() {
        let (set, replica) = tier(ReplicaConfig::with_count(1), 1);
        let ctx = Ctx::disabled();
        proving_parent(&set, &ctx);
        assert!(matches!(replica.lookup(&ctx, "/q/c", 0), Lookup::Miss));
        // `/`, the parent of `/p`'s siblings, was never fed.
        assert!(matches!(replica.lookup(&ctx, "/r", 0), Lookup::Miss));
        assert!(matches!(replica.lookup(&ctx, "/", 0), Lookup::Miss));
        assert_eq!(replica.stats().proven_absent, 0);
    }

    #[test]
    fn min_over_groups_floor_is_conservative() {
        let (set, replica) = tier(ReplicaConfig::with_count(1), 2);
        let ctx = Ctx::disabled();
        let mut delta = delta_of(&[record("/a", b"v", txid::compose(1, 0))], 0);
        delta.high_water = Arc::new(vec![(0, txid::compose(9, 0))]);
        set.feed(&ctx, 0, &delta);
        // Group 1 has fed nothing: the replica-wide floor stays 0.
        assert_eq!(replica.applied_txid(), 0);
    }

    #[test]
    fn committed_floors_publish_min_over_groups() {
        let floors = CommittedFloors::new(2);
        assert_eq!(floors.committed(), 0);
        floors.publish(0, 10);
        assert_eq!(floors.committed(), 0, "group 1 still at 0");
        floors.publish(1, 7);
        assert_eq!(floors.committed(), 7);
        floors.publish(1, 5);
        assert_eq!(floors.committed(), 7, "floors are monotone");
        floors.publish(0, 20);
        assert_eq!(floors.committed(), 7);
    }

    /// `NodeChildrenChanged` delta racing a concurrent delete, epoch
    /// order delete-then-patch: a distributor epoch removes `/p`, and a
    /// later epoch carries a children patch for `/p` that was queued
    /// before the delete committed. The patch must not resurrect the
    /// deleted parent — `Children` only mutates resident entries.
    #[test]
    fn children_patch_after_delete_never_resurrects() {
        let (set, replica) = tier(ReplicaConfig::with_count(1), 1);
        let ctx = Ctx::disabled();
        set.feed(
            &ctx,
            0,
            &delta_of(&[record_with_children("/p", &["c"], 4)], 4),
        );
        let bytes_before_delete = replica.stats().resident_bytes;
        let delete = EpochDelta {
            ops: Arc::new(vec![ReplicaOp::Delete { path: "/p".into() }]),
            marks: Arc::new(Vec::new()),
            high_water: Arc::new(vec![(0, 6)]),
            seq: 0,
        };
        set.feed(&ctx, 0, &delete);
        assert!(replica.peek("/p").is_none());
        let late_patch = EpochDelta {
            ops: Arc::new(vec![ReplicaOp::Children {
                parent: "/p".into(),
                children: Arc::new(vec!["ghost".into()]),
                txid: 7,
            }]),
            marks: Arc::new(Vec::new()),
            high_water: Arc::new(vec![(0, 7)]),
            seq: 0,
        };
        set.feed(&ctx, 0, &late_patch);
        assert!(
            replica.peek("/p").is_none(),
            "late children patch resurrected a deleted node"
        );
        assert!(replica.serve(&ctx, "/p", 0).is_none());
        assert!(
            replica.stats().resident_bytes < bytes_before_delete,
            "resurrection would re-add resident bytes"
        );
    }

    /// The inverse interleaving: the children patch lands first, the
    /// delete arrives in a later epoch. The delete must win — the patch
    /// does not pin the entry against removal.
    #[test]
    fn delete_after_children_patch_wins() {
        let (set, replica) = tier(ReplicaConfig::with_count(1), 1);
        let ctx = Ctx::disabled();
        set.feed(&ctx, 0, &delta_of(&[record("/p", b"d", 4)], 4));
        let patch = EpochDelta {
            ops: Arc::new(vec![ReplicaOp::Children {
                parent: "/p".into(),
                children: Arc::new(vec!["c1".into()]),
                txid: 5,
            }]),
            marks: Arc::new(Vec::new()),
            high_water: Arc::new(vec![(0, 5)]),
            seq: 0,
        };
        set.feed(&ctx, 0, &patch);
        assert_eq!(
            replica.peek("/p").unwrap().children.as_slice(),
            &["c1".to_owned()]
        );
        let delete = EpochDelta {
            ops: Arc::new(vec![ReplicaOp::Delete { path: "/p".into() }]),
            marks: Arc::new(Vec::new()),
            high_water: Arc::new(vec![(0, 6)]),
            seq: 0,
        };
        set.feed(&ctx, 0, &delete);
        assert!(replica.peek("/p").is_none(), "delete after patch must win");
        assert!(replica.serve(&ctx, "/p", 0).is_none());
    }

    #[test]
    fn reconcile_recovers_replicas_from_total_feed_drop() {
        let set = ReplicaSet::build(ReplicaConfig::with_count(2), &[Region::US_EAST_1], 1, None);
        let mut plan = FaultPlan::disabled();
        plan.feed_drop = FaultSpec::new(1.0, 4);
        set.install_chaos(Chaos::from_plan(plan).unwrap());
        let ctx = Ctx::disabled();
        set.feed(&ctx, 0, &delta_of(&[record("/a", b"v1", 1)], 1));
        set.feed(&ctx, 0, &delta_of(&[record("/b", b"v2", 2)], 2));
        // Budget 4 = both notifications dropped to both replicas; with no
        // later notification, only a reconcile pulls them to the head.
        assert!(set.region(0).iter().all(|r| r.peek("/a").is_none()));
        set.reconcile(&ctx);
        for replica in set.region(0) {
            assert!(replica.peek("/a").is_some() && replica.peek("/b").is_some());
            assert_eq!(replica.applied_txid(), 2);
        }
    }

    #[test]
    fn mid_run_join_converges_byte_identical_to_the_genesis_stream() {
        let set = ReplicaSet::build(ReplicaConfig::with_count(1), &[Region::US_EAST_1], 1, None);
        let ctx = Ctx::disabled();
        set.feed(&ctx, 0, &delta_of(&[record("/a", b"v1", 1)], 1));
        set.feed(&ctx, 0, &delta_of(&[record("/b", b"v2", 2)], 2));
        let genesis = set.region(0)[0].clone();
        let joined = set.join_replica(&ctx, 0);
        assert_eq!(joined.feed_position(), 3, "the joiner starts at the head");
        // Post-join traffic reaches both the old and the new replica.
        set.feed(&ctx, 0, &delta_of(&[record("/c", b"v3", 3)], 3));
        assert_eq!(joined.resident_paths().len(), 3);
        for path in genesis.resident_paths() {
            assert_eq!(
                encode_node(&genesis.peek(&path).unwrap()),
                encode_node(&joined.peek(&path).unwrap()),
                "{path}: joined replica diverges from the genesis stream"
            );
        }
        assert_eq!(joined.applied_txid(), genesis.applied_txid());
        assert_eq!(set.region(0).len(), 2, "joiner registered with the tier");
    }

    /// A random feed over 2–3 parents: children patches carry txids of
    /// two interleaved groups (so they arrive out of txid order), and
    /// parent writes carry a `children_txid` that may sit below or above
    /// the pending patches, between deletes and re-creates. Frames are
    /// stamped with the sequence numbers the feed assigns.
    fn random_stream(rng: &mut rand::rngs::SmallRng, frames: u64) -> Vec<EpochDelta> {
        use rand::Rng;
        let parents: Vec<String> = (0..rng.gen_range(2..=3))
            .map(|i| format!("/p{i}"))
            .collect();
        let mut counters = [0u64; 2];
        let mut next_txid = |rng: &mut rand::rngs::SmallRng| {
            let group = rng.gen_range(0..2usize);
            counters[group] += rng.gen_range(1..=4u64);
            (counters[group] << 1) | group as u64
        };
        (1..=frames)
            .map(|seq| {
                let marks = Arc::new(vec![seq; rng.gen_range(0..=2usize)]);
                let mut high_water = [0u64; 2];
                let mut ops = Vec::new();
                for parent in &parents {
                    let roll = rng.gen_range(0..100u32);
                    let txid = next_txid(rng);
                    let children: Vec<String> = (0..rng.gen_range(0..4u64))
                        .map(|c| format!("c{c}-{txid}"))
                        .collect();
                    let op = match roll {
                        0..=54 => ReplicaOp::Children {
                            parent: parent.clone(),
                            children: Arc::new(children),
                            txid,
                        },
                        55..=79 => {
                            let mut rec = record(parent, &txid.to_le_bytes(), txid);
                            rec.children = Arc::new(children);
                            rec.children_txid = rng.gen_range(0..=txid + 8);
                            rec.epoch_marks = Arc::clone(&marks);
                            ReplicaOp::Write {
                                path: parent.clone(),
                                frame: encode_node(&rec),
                            }
                        }
                        80..=89 => ReplicaOp::Delete {
                            path: parent.clone(),
                        },
                        _ => continue,
                    };
                    let group = (txid & 1) as usize;
                    high_water[group] = high_water[group].max(txid);
                    ops.push(op);
                }
                EpochDelta {
                    ops: Arc::new(ops),
                    marks,
                    high_water: Arc::new(
                        (0..2)
                            .filter(|&g| high_water[g] > 0)
                            .map(|g| (g, high_water[g]))
                            .collect(),
                    ),
                    seq,
                }
            })
            .collect()
    }

    /// Every resident record, keyed by path and codec-framed.
    fn resident(replica: &ReadReplica) -> BTreeMap<String, Bytes> {
        replica
            .resident_paths()
            .into_iter()
            .map(|path| {
                let frame = encode_node(&replica.peek(&path).expect("resident"));
                (path, frame)
            })
            .collect()
    }

    /// The retained log replays to the same records as the full stream:
    /// a replica that joins from a live peer at every feed position `k`
    /// and is fed live from there, and a replica that misses the
    /// notifications of frames `j..=m` and pulls them with the next one,
    /// both end byte-identical to a twin fed the whole stream live.
    #[test]
    fn compacted_feed_log_replays_to_the_same_records() {
        use rand::{Rng, SeedableRng};
        let ctx = Ctx::disabled();
        for case in 0..40u64 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(case);
            let frames = random_stream(&mut rng, 24);
            let n = frames.len() as u64;
            let set =
                ReplicaSet::build(ReplicaConfig::with_count(1), &[Region::US_EAST_1], 2, None);
            let twin = set.region(0)[0].clone();
            // Keeps the whole log for the unregistered `gaps` replicas.
            hold_log(&set);
            let mut gaps: Vec<(u64, u64, ReadReplica)> = Vec::new();
            for j in 1..n {
                let m = rng.gen_range(j..n);
                let replica = ReadReplica::new(Region::US_EAST_1, set.inner.config, 2, None);
                gaps.push((j, m, replica));
            }
            let mut joined = vec![(0, set.join_replica(&ctx, 0))];
            for frame in &frames {
                let mut live = frame.clone();
                live.seq = 0;
                set.feed(&ctx, 0, &live);
                {
                    let feed = set.inner.regions[0].feed.lock();
                    for (j, m, replica) in &gaps {
                        if !(*j..=*m).contains(&frame.seq) {
                            replica.pull(&ctx, &feed.log, 0);
                        }
                    }
                }
                joined.push((frame.seq, set.join_replica(&ctx, 0)));
            }
            let want = resident(&twin);
            for (k, replica) in &joined {
                assert_eq!(
                    resident(replica),
                    want,
                    "case {case}: joined at seq {k} diverges from the live twin"
                );
            }
            for (j, m, replica) in &gaps {
                assert_eq!(
                    resident(replica),
                    want,
                    "case {case}: a pull past frames {j}..={m} diverges from the live twin"
                );
            }
        }
    }

    /// 1,000 creates under one parent leave one children snapshot in the
    /// retained log, not 1,000; a write or delete of the parent keeps the
    /// patch before it. A replica that never pulls keeps every frame.
    #[test]
    fn feed_log_keeps_one_children_patch_per_parent() {
        let set = ReplicaSet::build(ReplicaConfig::with_count(1), &[Region::US_EAST_1], 1, None);
        hold_log(&set);
        let ctx = Ctx::disabled();
        let mut children: Vec<String> = Vec::new();
        let mut txid = 1;
        let mut create = |set: &ReplicaSet, children: &mut Vec<String>| {
            txid += 1;
            children.push(format!("c{txid}"));
            set.feed(
                &ctx,
                0,
                &EpochDelta {
                    ops: Arc::new(vec![
                        ReplicaOp::Write {
                            path: format!("/f/c{txid}"),
                            frame: encode_node(&record(&format!("/f/c{txid}"), b"v", txid)),
                        },
                        ReplicaOp::Children {
                            parent: "/f".into(),
                            children: Arc::new(children.clone()),
                            txid,
                        },
                    ]),
                    marks: Arc::new(Vec::new()),
                    high_water: Arc::new(vec![(0, txid)]),
                    seq: 0,
                },
            );
        };
        // The retained `(txid, children)` patches of `/f`, oldest first.
        let patches = |set: &ReplicaSet| -> Vec<(u64, usize)> {
            let feed = set.inner.regions[0].feed.lock();
            feed.log
                .iter()
                .flat_map(|frame| frame.ops.iter())
                .filter_map(|op| match op {
                    ReplicaOp::Children {
                        parent,
                        children,
                        txid,
                    } if parent == "/f" => Some((*txid, children.len())),
                    _ => None,
                })
                .collect()
        };
        set.feed(&ctx, 0, &delta_of(&[record("/f", b"", 1)], 1));
        for _ in 0..1_000 {
            create(&set, &mut children);
        }
        assert_eq!(
            patches(&set).len(),
            1,
            "one snapshot of /f, not one per create"
        );
        assert_eq!(patches(&set), [(1_001, 1_000)], "the largest txid");
        assert_eq!(set.feed_seq(0), 1_001);
        assert_eq!(
            set.inner.regions[0].feed.lock().log.len(),
            1_001,
            "every frame kept"
        );
        // A patch below the retained txid is left out of the log copy.
        set.feed(
            &ctx,
            0,
            &EpochDelta {
                ops: Arc::new(vec![ReplicaOp::Children {
                    parent: "/f".into(),
                    children: Arc::new(Vec::new()),
                    txid: 500,
                }]),
                marks: Arc::new(Vec::new()),
                high_water: Arc::new(Vec::new()),
                seq: 0,
            },
        );
        assert_eq!(patches(&set), [(1_001, 1_000)]);
        // A write of the parent keeps the patch before it.
        set.feed(&ctx, 0, &delta_of(&[record("/f", b"w", 1_100)], 1_100));
        create(&set, &mut children);
        create(&set, &mut children);
        assert_eq!(patches(&set), [(1_001, 1_000), (1_003, 1_002)]);
        // So does a delete.
        set.feed(
            &ctx,
            0,
            &EpochDelta {
                ops: Arc::new(vec![ReplicaOp::Delete { path: "/f".into() }]),
                marks: Arc::new(Vec::new()),
                high_water: Arc::new(Vec::new()),
                seq: 0,
            },
        );
        create(&set, &mut children);
        assert_eq!(
            patches(&set),
            [(1_001, 1_000), (1_003, 1_002), (1_004, 1_003)]
        );
    }

    /// `full[k]`: the records and applied floor of a replica that
    /// applied frames `1..=k` whole, with no feed log in between — the
    /// reference a pull of the compacted log must agree with.
    fn full_replay(frames: &[EpochDelta], groups: usize) -> Vec<(BTreeMap<String, Bytes>, u64)> {
        let ctx = Ctx::disabled();
        let twin = ReadReplica::new(
            Region::US_EAST_1,
            ReplicaConfig::with_count(1),
            groups,
            None,
        );
        let mut full = vec![(resident(&twin), twin.applied_txid())];
        for frame in frames {
            twin.apply(&ctx, &mut twin.state.lock(), frame);
            full.push((resident(&twin), twin.applied_txid()));
        }
        full
    }

    /// Asserts that `replica` holds exactly the full replay's records and
    /// floor at its cursor.
    fn assert_at_cursor(replica: &ReadReplica, full: &[(BTreeMap<String, Bytes>, u64)], at: &str) {
        let applied = (replica.feed_position() - 1) as usize;
        assert_eq!(
            (resident(replica), replica.applied_txid()),
            full[applied],
            "{at}: the replica at frame {applied} differs from the full replay there"
        );
    }

    /// A pull always ends at the head. Frame 4's children patch of `/p`
    /// compacts frame 2's out of the log, and frame 6's compacts frame
    /// 4's; a replica with `feed_lag` 2 that stopped short of the head
    /// would apply frame 2 or 4 without its patch and hold a floor past
    /// a children list it lacks.
    #[test]
    fn a_lagging_replica_pulls_a_compacted_log_to_the_head() {
        let ctx = Ctx::disabled();
        let write = |path: &str, txid: u64| ReplicaOp::Write {
            path: path.to_owned(),
            frame: encode_node(&record(path, b"v", txid)),
        };
        let patch = |children: &[&str], txid: u64| ReplicaOp::Children {
            parent: "/p".into(),
            children: Arc::new(children.iter().map(|c| (*c).to_owned()).collect()),
            txid,
        };
        let frames: Vec<EpochDelta> = [
            vec![write("/p", 1)],
            vec![write("/p/a", 2), patch(&["a"], 2)],
            vec![write("/q", 3)],
            vec![write("/p/b", 4), patch(&["a", "b"], 4)],
            vec![write("/q", 5)],
            vec![write("/p/c", 6), patch(&["a", "b", "c"], 6)],
            vec![write("/q", 7)],
            vec![write("/q", 8)],
        ]
        .into_iter()
        .zip(1u64..)
        .map(|(ops, txid)| EpochDelta {
            ops: Arc::new(ops),
            marks: Arc::new(vec![txid]),
            high_water: Arc::new(vec![(0, txid)]),
            seq: 0,
        })
        .collect();
        let full = full_replay(&frames, 1);
        let (set, replica) = tier(ReplicaConfig::with_count(1).with_feed_lag(2), 1);
        // A replica that never pulls keeps every frame, so the
        // compaction shows.
        hold_log(&set);
        for (seq, frame) in (1u64..).zip(&frames) {
            set.feed(&ctx, 0, frame);
            assert_at_cursor(&replica, &full, &format!("after feed {seq}"));
        }
        assert_eq!(
            replica.feed_position(),
            7,
            "pulled to the head at feeds 3 and 6"
        );
        let feed = set.inner.regions[0].feed.lock();
        let patched: Vec<u64> = feed
            .log
            .iter()
            .filter(|frame| {
                frame
                    .ops
                    .iter()
                    .any(|op| matches!(op, ReplicaOp::Children { .. }))
            })
            .map(|frame| frame.seq)
            .collect();
        assert_eq!(
            patched,
            [6],
            "frames 2 and 4 lost their patches to compaction"
        );
        drop(feed);
        set.reconcile(&ctx);
        assert_at_cursor(&replica, &full, "after reconcile");
        assert_eq!(replica.feed_position(), 9);
    }

    /// Random per-(frame, replica) feed faults at lag 0–4: after every
    /// feed each replica holds the full replay at its cursor, and after
    /// a reconcile it is byte-identical to a replica fed from genesis.
    #[test]
    fn pulled_replicas_match_the_full_replay_under_feed_faults() {
        use rand::{Rng, SeedableRng};
        let mut fired = [0u64; 3];
        let kinds = [
            FaultKind::FeedDrop,
            FaultKind::FeedDuplicate,
            FaultKind::FeedDelay,
        ];
        for case in 0..40u64 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(case);
            let frames = random_stream(&mut rng, 32);
            let full = full_replay(&frames, 2);
            let lag = rng.gen_range(0..=4usize);
            let config = ReplicaConfig::with_count(3).with_feed_lag(lag);
            let set = ReplicaSet::build(config, &[Region::US_EAST_1], 2, None);
            let mut plan = FaultPlan::disabled();
            plan.feed_drop = FaultSpec::new(rng.gen_range(0.0..0.4), u64::MAX);
            plan.feed_duplicate = FaultSpec::new(rng.gen_range(0.0..0.4), u64::MAX);
            plan.feed_delay = FaultSpec::new(rng.gen_range(0.0..0.4), u64::MAX);
            let chaos = Chaos::from_plan(plan).expect("feed faults on");
            set.install_chaos(Arc::clone(&chaos));
            let ctx = Ctx::new(
                Arc::new(fk_cloud::LatencyModel::zero()),
                fk_cloud::LatencyMode::Disabled,
                case,
            );
            for frame in &frames {
                let mut live = frame.clone();
                live.seq = 0;
                set.feed(&ctx, 0, &live);
                for replica in set.region(0) {
                    assert_at_cursor(&replica, &full, &format!("case {case}, lag {lag}"));
                }
                // The log keeps exactly what some replica has not pulled
                // (no cut is live): it starts at the least cursor, and is
                // empty once every replica is at the head.
                let least = set.region(0).iter().map(|r| r.feed_position()).min();
                let front = set.inner.regions[0].feed.lock().log.front().map(|f| f.seq);
                assert_eq!(
                    front.unwrap_or(frame.seq + 1),
                    least.unwrap(),
                    "case {case}, lag {lag}: the log keeps more or less than its readers need"
                );
            }
            set.reconcile(&ctx);
            for replica in set.region(0) {
                assert_eq!(replica.feed_position(), frames.len() as u64 + 1);
                assert_eq!(
                    resident(&replica),
                    full[frames.len()].0,
                    "case {case}, lag {lag}: a reconciled replica diverges from genesis"
                );
            }
            for (count, kind) in fired.iter_mut().zip(kinds) {
                *count += chaos.fired(kind);
            }
        }
        assert!(
            fired.iter().all(|&n| n > 0),
            "every feed fault fired: {fired:?}"
        );
    }

    /// A random tree under two parents: the first frame writes both with
    /// no children; each later frame creates, deletes, re-creates or
    /// rewrites children of a pool of five names (a create or delete
    /// feeds the child's op and its parent's full list at the same txid,
    /// as the distributor does), or rewrites a parent with its current
    /// list. Txids come from one counter split over two groups, so each
    /// path's txids rise in feed order, as every transaction on a path
    /// holds its lock.
    fn tree_stream(rng: &mut rand::rngs::SmallRng, frames: u64) -> Vec<EpochDelta> {
        use rand::Rng;
        let mut counter = 0u64;
        let mut lists: Vec<Vec<String>> = vec![Vec::new(); TREE_PARENTS.len()];
        (1..=frames)
            .map(|seq| {
                let marks = Arc::new(vec![seq; rng.gen_range(0..=2usize)]);
                let mut high_water = [0u64; 2];
                let mut ops = Vec::new();
                for (parent, list) in TREE_PARENTS.iter().zip(lists.iter_mut()) {
                    let roll = if seq == 1 {
                        50
                    } else {
                        rng.gen_range(0..100u32)
                    };
                    if roll >= 60 {
                        continue;
                    }
                    counter += rng.gen_range(1..=3u64);
                    let txid = (counter << 1) | rng.gen_range(0..2u64);
                    let group = (txid & 1) as usize;
                    high_water[group] = high_water[group].max(txid);
                    let write = |rec: NodeRecord| ReplicaOp::Write {
                        path: rec.path.clone(),
                        frame: encode_node(&rec),
                    };
                    let name = format!("c{}", rng.gen_range(0..5u32));
                    let child = format!("{parent}/{name}");
                    match roll {
                        0..=34 => {
                            match list.iter().position(|c| *c == name) {
                                Some(at) => {
                                    list.remove(at);
                                    ops.push(ReplicaOp::Delete { path: child });
                                }
                                None => {
                                    list.push(name);
                                    ops.push(write(record(&child, &txid.to_le_bytes(), txid)));
                                }
                            }
                            ops.push(ReplicaOp::Children {
                                parent: (*parent).to_owned(),
                                children: Arc::new(list.clone()),
                                txid,
                            });
                        }
                        35..=49 if list.contains(&name) => {
                            ops.push(write(record(&child, &txid.to_le_bytes(), txid)));
                        }
                        _ => {
                            let children: Vec<&str> = list.iter().map(String::as_str).collect();
                            let mut rec = record_with_children(parent, &children, txid);
                            rec.epoch_marks = Arc::clone(&marks);
                            ops.push(write(rec));
                        }
                    }
                }
                EpochDelta {
                    ops: Arc::new(ops),
                    marks,
                    high_water: Arc::new(
                        (0..2)
                            .filter(|&g| high_water[g] > 0)
                            .map(|g| (g, high_water[g]))
                            .collect(),
                    ),
                    seq,
                }
            })
            .collect()
    }

    const TREE_PARENTS: [&str; 2] = ["/p0", "/p1"];

    /// Every absence a replica proves agrees with the full replay at its
    /// cursor: the path is not there, and there the parent's watermark or
    /// the applied floor reaches the session's MRD, so the answer is a
    /// legal storage read for that session. Create, delete and re-create
    /// streams, feed drop, duplicate and delay faults at lag 0–4, byte
    /// budgets from thrashing to roomy, MRDs around and past the head.
    #[test]
    fn proven_absence_agrees_with_the_full_replay_under_feed_faults() {
        use rand::{Rng, SeedableRng};
        // Absent answers, hits, and misses of a path absent at the cursor.
        let mut seen = [0u64; 3];
        for case in 0..40u64 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(case);
            let frames = tree_stream(&mut rng, 32);
            let full = full_replay(&frames, 2);
            let lag = rng.gen_range(0..=4usize);
            let budget = rng.gen_range(400..3_000usize);
            let config = ReplicaConfig::with_count(3)
                .with_feed_lag(lag)
                .with_byte_budget(budget);
            let set = ReplicaSet::build(config, &[Region::US_EAST_1], 2, None);
            let mut plan = FaultPlan::disabled();
            plan.feed_drop = FaultSpec::new(rng.gen_range(0.0..0.4), u64::MAX);
            plan.feed_duplicate = FaultSpec::new(rng.gen_range(0.0..0.4), u64::MAX);
            plan.feed_delay = FaultSpec::new(rng.gen_range(0.0..0.4), u64::MAX);
            set.install_chaos(Chaos::from_plan(plan).expect("feed faults on"));
            let ctx = Ctx::new(
                Arc::new(fk_cloud::LatencyModel::zero()),
                fk_cloud::LatencyMode::Disabled,
                case,
            );
            let top = frames
                .iter()
                .flat_map(|frame| frame.high_water.iter().map(|&(_, hw)| hw))
                .max()
                .unwrap_or(0);
            for frame in &frames {
                let mut live = frame.clone();
                live.seq = 0;
                set.feed(&ctx, 0, &live);
                for replica in set.region(0) {
                    let (records, floor) = &full[(replica.feed_position() - 1) as usize];
                    for parent in TREE_PARENTS {
                        for name in ["c0", "c1", "c2", "c3", "c4", "never"] {
                            let path = format!("{parent}/{name}");
                            let mrd = rng.gen_range(0..=top + 4);
                            let at = format!("case {case}, lag {lag}, {path} at MRD {mrd}");
                            match replica.lookup(&ctx, &path, mrd) {
                                Lookup::Absent {
                                    parent: proof,
                                    proven_txid,
                                } => {
                                    seen[0] += 1;
                                    assert!(!records.contains_key(&path), "{at}: it exists");
                                    let stored = records.get(parent).expect("parent exists");
                                    let watermark = crate::codec::decode_node(stored)
                                        .expect("frame decodes")
                                        .modified_txid;
                                    assert!(
                                        watermark.max(*floor) >= mrd,
                                        "{at}: the cursor proves only txid {}",
                                        watermark.max(*floor)
                                    );
                                    assert_eq!(proven_txid, watermark.max(*floor), "{at}");
                                    assert_eq!(&encode_node(&proof), stored, "{at}");
                                }
                                Lookup::Hit(record) => {
                                    seen[1] += 1;
                                    assert_eq!(Some(&encode_node(&record)), records.get(&path));
                                }
                                Lookup::Miss => {
                                    seen[2] += u64::from(!records.contains_key(&path));
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "absent, hit and unproven-absent answers all occur: {seen:?}"
        );
    }

    /// A replica that misses 65,537 notifications in a row keeps the log
    /// from its cursor on: no cursor ages out, so a reconcile pulls it to
    /// the head, where it serves the newest data and proves nothing
    /// absent that exists.
    #[test]
    fn a_replica_behind_every_dropped_notification_reconciles_to_the_head() {
        let (set, replica) = tier(ReplicaConfig::with_count(1), 1);
        let ctx = Ctx::disabled();
        let root = |children: &[&str], txid| record_with_children("/", children, txid);
        set.feed(
            &ctx,
            0,
            &delta_of(&[root(&["a"], 1), record("/a", b"v1", 1)], 1),
        );
        assert_eq!(replica.feed_position(), 2);
        assert!(
            set.inner.regions[0].feed.lock().log.is_empty(),
            "the replica pulled the only frame"
        );
        let mut plan = FaultPlan::disabled();
        plan.feed_drop = FaultSpec::new(1.0, u64::MAX);
        set.install_chaos(Chaos::from_plan(plan).unwrap());
        // Every later notification drops; frame 2 also creates `/b`.
        let later = delta_of(
            &[
                record("/a", b"v2", 2),
                record("/b", b"v", 2),
                root(&["a", "b"], 2),
            ],
            2,
        );
        for _ in 0..=65_536 {
            set.feed(&ctx, 0, &later);
        }
        let head = set.feed_seq(0);
        assert_eq!(head, 65_538);
        assert_eq!(set.inner.regions[0].feed.lock().log.front().unwrap().seq, 2);
        set.reconcile(&ctx);
        assert_eq!(replica.feed_position(), head + 1, "pulled to the head");
        assert!(set.inner.regions[0].feed.lock().log.is_empty());
        assert_eq!(replica.applied_txid(), 2);
        assert_eq!(replica.serve(&ctx, "/a", 2).unwrap().data.as_ref(), b"v2");
        assert!(matches!(replica.lookup(&ctx, "/b", 2), Lookup::Hit(_)));
    }

    /// A joiner copies a peer that trails the head: the join pulls the
    /// peer to the head first, and the joiner starts there with the
    /// peer's records, floors and resident bytes. The log then keeps only
    /// what a replica has not pulled, from the next feed on.
    #[test]
    fn a_joiner_copies_a_lagging_peer_at_the_head() {
        let (set, peer) = tier(ReplicaConfig::with_count(1).with_feed_lag(3), 2);
        let ctx = Ctx::disabled();
        set.feed(&ctx, 0, &delta_of(&[record("/a", b"v1", 2)], 2));
        let mut second = delta_of(&[record("/b", b"v1", 3)], 3);
        second.high_water = Arc::new(vec![(1, 3)]);
        set.feed(&ctx, 0, &second);
        assert_eq!(peer.feed_position(), 1, "the peer trails the head");
        let joined = set.join_replica(&ctx, 0);
        assert_eq!(peer.feed_position(), 3, "the join pulled the peer");
        assert_eq!(joined.feed_position(), 3, "the joiner starts at the head");
        assert_eq!(resident(&joined), resident(&peer));
        assert_eq!(joined.applied_txid(), 2, "both groups' floors copied");
        assert_eq!(joined.stats().resident_bytes, peer.stats().resident_bytes);
        assert_eq!(
            joined.stats().epochs_applied,
            0,
            "the joiner replayed nothing"
        );
        assert_eq!(set.region(0).len(), 2, "joiner registered with the tier");
        set.feed(&ctx, 0, &delta_of(&[record("/a", b"v2", 4)], 4));
        let retained: Vec<u64> = set.inner.regions[0]
            .feed
            .lock()
            .log
            .iter()
            .map(|frame| frame.seq)
            .collect();
        assert_eq!(retained, [3], "the frame neither replica has pulled");
        set.reconcile(&ctx);
        assert_eq!(joined.peek("/a").unwrap().data.as_ref(), b"v2");
        assert_eq!(resident(&joined), resident(&peer));
    }

    /// Joins at random feed positions under feed drop, duplicate and
    /// delay faults at lag 0–4, with byte budgets that do and do not
    /// evict. After every feed each joiner holds the full replay at its
    /// cursor: the same record for each resident path, the whole tree
    /// when nothing is evicted, and the same applied floor. After a
    /// reconcile each joiner is byte-identical to a peer with its budget.
    #[test]
    fn peer_joins_match_the_full_replay_under_feed_faults() {
        use rand::{Rng, SeedableRng};
        // Joins, and evictions, without and with an evicting budget.
        let mut joins = [0u64; 2];
        let mut evictions = [0u64; 2];
        for case in 0..48u64 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(case);
            let frames = tree_stream(&mut rng, 32);
            let full = full_replay(&frames, 2);
            let lag = rng.gen_range(0..=4usize);
            let evicts = case % 2 == 1;
            let mut config = ReplicaConfig::with_count(2).with_feed_lag(lag);
            if evicts {
                config = config.with_byte_budget(rng.gen_range(400..1_200usize));
            }
            let set = ReplicaSet::build(config, &[Region::US_EAST_1], 2, None);
            let mut plan = FaultPlan::disabled();
            plan.feed_drop = FaultSpec::new(rng.gen_range(0.0..0.4), u64::MAX);
            plan.feed_duplicate = FaultSpec::new(rng.gen_range(0.0..0.4), u64::MAX);
            plan.feed_delay = FaultSpec::new(rng.gen_range(0.0..0.4), u64::MAX);
            set.install_chaos(Chaos::from_plan(plan).expect("feed faults on"));
            let ctx = Ctx::new(
                Arc::new(fk_cloud::LatencyModel::zero()),
                fk_cloud::LatencyMode::Disabled,
                case,
            );
            let peers = set.region(0);
            let mut joined = Vec::new();
            for frame in &frames {
                let mut live = frame.clone();
                live.seq = 0;
                set.feed(&ctx, 0, &live);
                if rng.gen_bool(0.2) {
                    joined.push(set.join_replica(&ctx, 0));
                }
                for replica in &joined {
                    let at = format!("case {case}, lag {lag}, evicts {evicts}");
                    let (records, floor) = &full[(replica.feed_position() - 1) as usize];
                    let held = resident(replica);
                    for (path, frame) in &held {
                        assert_eq!(records.get(path), Some(frame), "{at}: {path}");
                    }
                    if !evicts {
                        assert_eq!(&held, records, "{at}: the joiner lost a record");
                    }
                    assert_eq!(replica.applied_txid(), *floor, "{at}: applied floor");
                }
            }
            set.reconcile(&ctx);
            for replica in &joined {
                assert_eq!(replica.feed_position(), frames.len() as u64 + 1);
                assert_eq!(
                    resident(replica),
                    resident(&peers[0]),
                    "case {case}, lag {lag}, evicts {evicts}: a reconciled joiner diverges from its peer"
                );
            }
            joins[usize::from(evicts)] += joined.len() as u64;
            evictions[usize::from(evicts)] += peers
                .iter()
                .chain(&joined)
                .map(|replica| replica.stats().evictions)
                .sum::<u64>();
        }
        assert!(
            joins.iter().all(|&n| n > 0),
            "joins with and without eviction: {joins:?}"
        );
        assert!(
            evictions[0] == 0 && evictions[1] > 0,
            "only the small budgets evict: {evictions:?}"
        );
    }

    #[test]
    fn inactive_groups_are_excluded_from_the_committed_min() {
        let floors = CommittedFloors::new(3);
        floors.publish(0, 10);
        floors.publish(1, 8);
        assert_eq!(floors.committed(), 0, "idle group 2 pins the min");
        floors.set_active(2, false);
        assert_eq!(floors.committed(), 8, "retired group excluded");
        assert_eq!(floors.snapshot(), vec![10, 8, 0]);
        floors.publish(2, 20);
        assert!(floors.is_active(2), "publishing reactivates");
        assert_eq!(floors.committed(), 8);
        assert_eq!(floors.groups(), 3);
    }

    #[test]
    fn replica_set_pins_sessions_and_feeds_regions() {
        let set = ReplicaSet::build(
            ReplicaConfig::with_count(2),
            &[Region::US_EAST_1, Region::US_WEST_2],
            1,
            None,
        );
        let ctx = Ctx::disabled();
        assert!(!set.is_empty());
        let a = set.replica_for("session-a").unwrap();
        let b = set.replica_for("session-a").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "stable pinning");
        set.feed(&ctx, 1, &delta_of(&[record("/r1", b"x", 1)], 1));
        // Region-1 replicas got the delta; region-0 replicas did not.
        assert!(set.region(1).iter().all(|r| r.peek("/r1").is_some()));
        assert!(set.region(0).iter().all(|r| r.peek("/r1").is_none()));
        assert!(ReplicaSet::default().is_empty());
        assert!(ReplicaSet::default().replica_for("s").is_none());
    }
}
