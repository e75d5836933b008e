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
//! * **Absence is never served.** A missing entry may mean "deleted"
//!   or "LRU-evicted" and the replica cannot tell them apart, so a
//!   miss always falls through to storage (the private cache still
//!   provides negative caching).
//!
//! Z4 needs nothing new: replica records carry the same `epoch_marks`
//! the storage copy was written with, and the client re-runs its epoch
//! stall on every serve, replica or not.
//!
//! Feed-order soundness: the distributor taps the epoch **after** all
//! storage operations complete, so the replica never gets ahead of storage
//! — a serve is always re-readable from the backing store.
//!
//! # The retained feed log
//!
//! Each region keeps the frames it fed, so a replica can repair a gap
//! and a joiner can replay the suffix after its checkpoint (the febft
//! log-plus-checkpoint idiom: the log exists to make a replica catch
//! up, not to keep every past state). A create's children patch carries
//! its parent's full list, so the log keeps only the patch that decides
//! a replay: per parent, the one with the largest txid since the
//! parent's last `Write` or `Delete`. Between two such ops a patch only
//! patches a resident record and never populates one, and patches merge
//! by the max `children_txid`, so that patch alone decides the result.
//! A replayed suffix therefore ends in the same records as the full
//! one, and a replay that starts after the retained patch starts from a
//! state that has already applied it. Live delivery is unchanged: every
//! replica receives the full frame.

use crate::user_store::NodeRecord;
use bytes::Bytes;
use fk_cloud::chaos::{Chaos, FaultKind};
use fk_cloud::metering::Meter;
use fk_cloud::ops::Op;
use fk_cloud::trace::Ctx;
use fk_cloud::Region;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap, VecDeque};
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
    /// Injected feed lag, in epochs: each replica buffers this many
    /// epoch deltas before applying the oldest. `0` (the default)
    /// applies every delta on arrival; tests use larger values to prove
    /// a lagging replica falls through instead of serving stale data.
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

    /// Sets the injected feed lag (epochs buffered before apply).
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
    /// as the frame enters the retained feed log (producers leave it 0).
    /// `0` means *unsequenced*: the frame bypasses gap detection and
    /// applies directly, which is how hand-built test deltas behave.
    pub seq: u64,
}

/// Point-in-time counters of one replica.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Lookups served from the hot tree.
    pub hits: u64,
    /// Lookups that fell through (absent, evicted, or below the gate).
    pub misses: u64,
    /// Lookups that failed the watermark gate specifically (the entry
    /// existed but could not be proven fresh enough for the session).
    pub stale_rejects: u64,
    /// Records evicted by the byte budget.
    pub evictions: u64,
    /// Epoch deltas applied (buffered deltas do not count until they
    /// leave the lag window).
    pub epochs_applied: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Sequence gaps detected on the feed (a frame arrived ahead of the
    /// next expected sequence number).
    pub feed_gaps: u64,
    /// Frames re-requested from the retained feed log to close a gap.
    pub feed_repairs: u64,
    /// Duplicate frames dropped (sequence number already applied).
    pub feed_dup_drops: u64,
}

struct Slot {
    record: Arc<NodeRecord>,
    /// Max applied `modified_txid` for this path (= the copy's mzxid).
    watermark: u64,
    /// LRU clock value of the last touch.
    stamp: u64,
    /// Accounted resident size.
    size: usize,
}

struct ReplicaState {
    tree: HashMap<String, Slot>,
    resident_bytes: usize,
    clock: u64,
    /// Feed-lag buffer: deltas apply FIFO once more than
    /// `config.feed_lag` of them are queued.
    buffer: VecDeque<EpochDelta>,
    /// Per shard group: highest txid whose epoch is fully applied.
    floors: Vec<u64>,
    /// Next expected feed sequence number (frames below it are
    /// duplicates, frames above it open a gap).
    next_seq: u64,
    /// Frames that arrived ahead of an unrecoverable gap, parked until
    /// the missing predecessors arrive or a snapshot reinstalls.
    pending: BTreeMap<u64, EpochDelta>,
}

/// A follower-style regional read replica: an in-memory hot tree fed by
/// the distributor's committed epoch stream, serving reads under the
/// watermark gate (module docs).
pub struct ReadReplica {
    region: Region,
    config: ReplicaConfig,
    meter: Option<Meter>,
    state: Mutex<ReplicaState>,
    hits: AtomicU64,
    misses: AtomicU64,
    stale_rejects: AtomicU64,
    evictions: AtomicU64,
    epochs_applied: AtomicU64,
    feed_gaps: AtomicU64,
    feed_repairs: AtomicU64,
    feed_dup_drops: AtomicU64,
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
            state: Mutex::new(ReplicaState {
                tree: HashMap::new(),
                resident_bytes: 0,
                clock: 0,
                buffer: VecDeque::new(),
                floors: vec![0; groups.max(1)],
                next_seq: 1,
                pending: BTreeMap::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale_rejects: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            epochs_applied: AtomicU64::new(0),
            feed_gaps: AtomicU64::new(0),
            feed_repairs: AtomicU64::new(0),
            feed_dup_drops: AtomicU64::new(0),
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

    /// Ingests one epoch delta. Deltas queue in a FIFO lag buffer and
    /// apply once more than `feed_lag` are pending — `feed_lag == 0`
    /// applies on arrival. Deterministic: no timers, purely count-driven.
    pub fn ingest(&self, ctx: &Ctx, delta: EpochDelta) {
        let mut state = self.state.lock();
        self.enqueue(ctx, &mut state, delta);
    }

    /// Ingests one *sequenced* feed frame with gap detection: a frame
    /// below the expected sequence is a duplicate and drops; a frame
    /// ahead of it opens a gap, and every missing predecessor is
    /// re-requested from the retained feed log via `lookup` (frames
    /// that cannot be recovered yet park the newer frame until their
    /// arrival). Frames always *apply* in sequence order, so the
    /// per-group floors never claim an epoch that skipped this replica.
    /// A frame with `seq == 0` is unsequenced and applies directly
    /// (hand-built test deltas).
    pub fn ingest_sequenced(
        &self,
        ctx: &Ctx,
        delta: EpochDelta,
        lookup: &dyn Fn(u64) -> Option<EpochDelta>,
    ) {
        let mut state = self.state.lock();
        let seq = delta.seq;
        if seq == 0 {
            self.enqueue(ctx, &mut state, delta);
            return;
        }
        if seq < state.next_seq {
            self.feed_dup_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if seq > state.next_seq {
            self.feed_gaps.fetch_add(1, Ordering::Relaxed);
            while state.next_seq < seq {
                let missing = state.next_seq;
                let Some(frame) = state.pending.remove(&missing).or_else(|| lookup(missing)) else {
                    // Unrecoverable for now: park the newer frame until
                    // the missing predecessor arrives (or a snapshot
                    // reinstalls past it).
                    state.pending.insert(seq, delta);
                    return;
                };
                self.feed_repairs.fetch_add(1, Ordering::Relaxed);
                self.enqueue(ctx, &mut state, frame);
                state.next_seq = missing + 1;
            }
        }
        self.enqueue(ctx, &mut state, delta);
        state.next_seq = seq + 1;
        // Drain parked frames that the repair just made contiguous.
        loop {
            let next = state.next_seq;
            let Some(frame) = state.pending.remove(&next) else {
                break;
            };
            self.enqueue(ctx, &mut state, frame);
            state.next_seq = next + 1;
        }
    }

    /// Installs a checkpoint: resets the lag buffer and parked frames,
    /// inserts every record, raises the per-group floors to at least
    /// `floors`, and positions the feed cursor at `next_seq` (the first
    /// frame *after* the checkpoint cut). The tentpole's catch-up
    /// protocol replays the committed epoch-delta log suffix from here.
    pub fn install_snapshot(
        &self,
        ctx: &Ctx,
        records: Vec<NodeRecord>,
        floors: &[u64],
        next_seq: u64,
    ) {
        let mut state = self.state.lock();
        state.buffer.clear();
        state.pending.clear();
        let mut installed_bytes = 0usize;
        for record in records {
            installed_bytes += record.path.len() + record.data.len();
            // The snapshot is a point-in-time truth: merge by the same
            // monotone rules as the feed so an already-live replica can
            // reinstall without regressing.
            let mut record = record;
            if let Some(existing) = state.tree.get(&record.path) {
                if existing.record.children_txid > record.children_txid {
                    record.children = Arc::clone(&existing.record.children);
                    record.children_txid = existing.record.children_txid;
                }
                record.modified_txid = record.modified_txid.max(existing.record.modified_txid);
            }
            self.insert(&mut state, record);
        }
        for (group, floor) in floors.iter().enumerate() {
            if let Some(applied) = state.floors.get_mut(group) {
                *applied = (*applied).max(*floor);
            }
        }
        state.next_seq = state.next_seq.max(next_seq);
        ctx.charge(Op::FnCompute, installed_bytes);
    }

    /// The next feed sequence number this replica expects.
    pub fn feed_position(&self) -> u64 {
        self.state.lock().next_seq
    }

    /// Drains the lag buffer completely (tests use this to let an
    /// injected-lag replica catch up on demand).
    pub fn catch_up(&self, ctx: &Ctx) {
        let mut state = self.state.lock();
        while let Some(next) = state.buffer.pop_front() {
            self.apply(ctx, &mut state, &next);
        }
    }

    /// Queues one delta through the lag window (the unsequenced apply
    /// path shared by [`ReadReplica::ingest`] and the sequenced feed).
    fn enqueue(&self, ctx: &Ctx, state: &mut ReplicaState, delta: EpochDelta) {
        state.buffer.push_back(delta);
        while state.buffer.len() > self.config.feed_lag {
            let next = state.buffer.pop_front().expect("len checked");
            self.apply(ctx, state, &next);
        }
    }

    fn apply(&self, ctx: &Ctx, state: &mut ReplicaState, delta: &EpochDelta) {
        let mut applied_bytes = 0usize;
        for op in delta.ops.iter() {
            match op {
                ReplicaOp::Write { path, frame } => {
                    applied_bytes += frame.len();
                    let Some(mut record) = crate::codec::decode_node(frame) else {
                        continue;
                    };
                    // Mirror the distributor's merge rules: a resident
                    // children list with a larger `children_txid` is the
                    // current truth (it was rewritten from the child's
                    // shard group), and `modified_txid` never regresses.
                    if let Some(existing) = state.tree.get(path) {
                        if existing.record.children_txid > record.children_txid {
                            record.children = Arc::clone(&existing.record.children);
                            record.children_txid = existing.record.children_txid;
                        }
                        record.modified_txid =
                            record.modified_txid.max(existing.record.modified_txid);
                    }
                    self.insert(state, record);
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
                    let Some(slot) = state.tree.get_mut(parent) else {
                        continue;
                    };
                    if slot.record.children_txid >= *txid {
                        continue;
                    }
                    let mut record = (*slot.record).clone();
                    record.children = Arc::clone(children);
                    record.children_txid = *txid;
                    record.modified_txid = record.modified_txid.max(*txid);
                    record.epoch_marks = Arc::clone(&delta.marks);
                    let record = record;
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
    /// the fall-through storage read pays its own way.
    pub fn serve(&self, ctx: &Ctx, path: &str, mrd: u64) -> Option<Arc<NodeRecord>> {
        let mut state = self.state.lock();
        let applied = state.floors.iter().copied().min().unwrap_or(0);
        let clock = state.clock + 1;
        let Some(slot) = state.tree.get_mut(path) else {
            drop(state);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        if slot.watermark.max(applied) < mrd {
            drop(state);
            self.stale_rejects.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        slot.stamp = clock;
        let record = Arc::clone(&slot.record);
        state.clock = clock;
        drop(state);
        self.hits.fetch_add(1, Ordering::Relaxed);
        ctx.charge(Op::MemGet, record.data.len().max(1));
        if let Some(meter) = &self.meter {
            meter.replica_hit();
        }
        Some(record)
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
            if slot.watermark.max(applied) < mrd {
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
            stale_rejects: self.stale_rejects.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            epochs_applied: self.epochs_applied.load(Ordering::Relaxed),
            resident_bytes: state.resident_bytes as u64,
            feed_gaps: self.feed_gaps.load(Ordering::Relaxed),
            feed_repairs: self.feed_repairs.load(Ordering::Relaxed),
            feed_dup_drops: self.feed_dup_drops.load(Ordering::Relaxed),
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

/// Frames the per-region feed log retains for gap repair and mid-run
/// bootstrap. A joiner whose checkpoint predates the oldest retained
/// frame must cut a fresh checkpoint instead. Every frame is retained,
/// but its children patches are compacted by parent ([`FeedState`]),
/// so the log's size grows with frames, not with frames × children.
const FEED_LOG_CAP: usize = 65_536;

/// How one feed frame reaches one replica (chaos delivery faults).
enum Delivery {
    Deliver,
    Drop,
    Duplicate,
    Delay,
}

/// Per-region feed state: the monotone sequence counter, the retained
/// committed epoch-delta log, and frames a chaos delay is holding back.
///
/// The log is compacted by parent: of the children patches for one
/// parent since its last `Write` or `Delete`, only the one with the
/// largest txid is retained. A larger patch removes the older one from
/// the frame that holds it (the frame stays: its `high_water` still
/// advances floors), and a patch whose txid is not larger is left out
/// of the log copy. Only the retained copy is compacted. Every replay
/// the log serves (gap repair, [`ReplicaSet::join_replica`],
/// [`ReplicaSet::reconcile`]) ends in the same records as the full log
/// would (module docs). Patches are never compared across a `Write`:
/// its merge keeps a resident list with a larger `children_txid`, so
/// the patch before it still decides a replay.
struct FeedState {
    seq: u64,
    log: VecDeque<EpochDelta>,
    /// Per parent, `(seq, txid)` of the retained children patch with the
    /// largest txid since the parent's last `Write` or `Delete`.
    patches: HashMap<String, (u64, u64)>,
    /// `(replica index, frame)` pairs held back by [`FaultKind::FeedDelay`];
    /// delivered *after* the next frame, i.e. out of order.
    delayed: Vec<(usize, EpochDelta)>,
}

impl FeedState {
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
    /// `parent` (a no-op once the frame has aged out of the log).
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
    feed: Mutex<FeedState>,
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
/// each epoch delta. Every frame fed to a region is stamped with a
/// monotone per-region sequence number and appended to a bounded feed
/// log *before* delivery, so any delivered frame proves all of its
/// predecessors are retained — the invariant gap repair and mid-run
/// bootstrap ([`ReplicaSet::join_replica`]) rely on. Cloning shares
/// the tier.
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

/// Looks up the retained frame with sequence `seq` (the log is
/// contiguous by construction, so the offset from the oldest retained
/// frame indexes it directly).
fn lookup_frame(log: &VecDeque<EpochDelta>, seq: u64) -> Option<EpochDelta> {
    let first = log.front()?.seq;
    let idx = usize::try_from(seq.checked_sub(first)?).ok()?;
    log.get(idx).cloned().filter(|frame| frame.seq == seq)
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
                .map(|region| RegionTier {
                    region: *region,
                    replicas: RwLock::new(
                        (0..config.count)
                            .map(|_| {
                                Arc::new(ReadReplica::new(*region, config, groups, meter.clone()))
                            })
                            .collect(),
                    ),
                    feed: Mutex::new(FeedState {
                        seq: 0,
                        log: VecDeque::new(),
                        patches: HashMap::new(),
                        delayed: Vec::new(),
                    }),
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

    /// Feeds one epoch delta to every replica of `region_idx`: stamps
    /// the region's next sequence number, appends the frame to the
    /// retained feed log (compacted by parent, `FeedState`), then
    /// delivers the frame unchanged per replica — where the chaos
    /// engine may drop the frame (gap repair recovers it from the log),
    /// duplicate it (the replica drops the second copy), or hold it
    /// back one frame (it arrives out of order and drops as a
    /// duplicate, its content already repaired in).
    pub fn feed(&self, ctx: &Ctx, region_idx: usize, delta: &EpochDelta) {
        let Some(tier) = self.inner.regions.get(region_idx) else {
            return;
        };
        let mut feed = tier.feed.lock();
        let replicas = tier.replicas.read().clone();
        let held_back = std::mem::take(&mut feed.delayed);
        feed.seq += 1;
        let mut stamped = delta.clone();
        stamped.seq = feed.seq;
        feed.retain(stamped.clone());
        while feed.log.len() > FEED_LOG_CAP {
            feed.log.pop_front();
        }
        let FeedState { log, delayed, .. } = &mut *feed;
        let lookup = |seq: u64| lookup_frame(log, seq);
        for (idx, replica) in replicas.iter().enumerate() {
            match self.delivery_roll(ctx) {
                Delivery::Drop => continue,
                Delivery::Delay => delayed.push((idx, stamped.clone())),
                Delivery::Duplicate => {
                    replica.ingest_sequenced(ctx, stamped.clone(), &lookup);
                    replica.ingest_sequenced(ctx, stamped.clone(), &lookup);
                }
                Delivery::Deliver => replica.ingest_sequenced(ctx, stamped.clone(), &lookup),
            }
        }
        // Frames held back from the previous feed arrive now, *after*
        // the newer frame: gap repair already pulled their content from
        // the log, so the late copy drops as a duplicate.
        for (idx, frame) in held_back {
            if let Some(replica) = replicas.get(idx) {
                replica.ingest_sequenced(ctx, frame, &lookup);
            }
        }
    }

    /// Rolls the feed delivery faults for one (frame, replica) pair.
    fn delivery_roll(&self, ctx: &Ctx) -> Delivery {
        let Some(chaos) = self.inner.chaos.get() else {
            return Delivery::Deliver;
        };
        for (kind, delivery) in [
            (FaultKind::FeedDrop, Delivery::Drop),
            (FaultKind::FeedDuplicate, Delivery::Duplicate),
            (FaultKind::FeedDelay, Delivery::Delay),
        ] {
            if chaos.fire(ctx, kind) {
                if let Some(meter) = &self.inner.meter {
                    meter.fault_injected(kind.label());
                }
                return delivery;
            }
        }
        Delivery::Deliver
    }

    /// The region's current feed sequence number — the cut point a
    /// checkpoint records so a joiner knows where log-suffix replay
    /// starts.
    pub fn feed_seq(&self, region_idx: usize) -> u64 {
        self.inner
            .regions
            .get(region_idx)
            .map(|tier| tier.feed.lock().seq)
            .unwrap_or(0)
    }

    /// Bootstraps a new replica into `region_idx` from a checkpoint cut
    /// at feed sequence `from_seq`: installs `records` and `floors`,
    /// replays the retained log suffix `(from_seq, now]` under the feed
    /// lock (so no concurrent frame can slip between replay and
    /// registration), and registers the replica with the tier. Returns
    /// `None` when the log no longer retains the suffix — the caller
    /// must cut a fresh checkpoint.
    pub fn join_replica(
        &self,
        ctx: &Ctx,
        region_idx: usize,
        records: Vec<NodeRecord>,
        floors: &[u64],
        from_seq: u64,
    ) -> Option<Arc<ReadReplica>> {
        let tier = self.inner.regions.get(region_idx)?;
        let mut feed = tier.feed.lock();
        let first_retained = feed.log.front().map(|frame| frame.seq);
        if let Some(first) = first_retained {
            if from_seq + 1 < first {
                return None;
            }
        } else if from_seq < feed.seq {
            return None;
        }
        let replica = Arc::new(ReadReplica::new(
            tier.region,
            self.inner.config,
            self.inner.groups,
            self.inner.meter.clone(),
        ));
        replica.install_snapshot(ctx, records, floors, from_seq + 1);
        let FeedState { log, .. } = &mut *feed;
        let lookup = |seq: u64| lookup_frame(log, seq);
        for frame in log.iter().filter(|frame| frame.seq > from_seq) {
            replica.ingest_sequenced(ctx, frame.clone(), &lookup);
        }
        replica.catch_up(ctx);
        tier.replicas.write().push(Arc::clone(&replica));
        Some(replica)
    }

    /// Quiesces the tier: delivers every chaos-held frame, replays the
    /// retained log tail to any replica still behind, and drains lag
    /// buffers. Run before byte-identity comparisons and before a
    /// drained group's floor is retired — a trailing dropped frame has
    /// no successor to trigger its gap repair, so the quiesce closes it.
    pub fn reconcile(&self, ctx: &Ctx) {
        for tier in self.inner.regions.iter() {
            let mut feed = tier.feed.lock();
            let replicas = tier.replicas.read().clone();
            let held_back = std::mem::take(&mut feed.delayed);
            let FeedState { log, .. } = &mut *feed;
            let lookup = |seq: u64| lookup_frame(log, seq);
            for (idx, frame) in held_back {
                if let Some(replica) = replicas.get(idx) {
                    replica.ingest_sequenced(ctx, frame, &lookup);
                }
            }
            if let Some(last) = log.back() {
                for replica in &replicas {
                    if replica.feed_position() <= last.seq {
                        replica.ingest_sequenced(ctx, last.clone(), &lookup);
                    }
                }
            }
            for replica in &replicas {
                replica.catch_up(ctx);
            }
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

    /// The per-group floors, active or not (a checkpoint manifest
    /// records these as its committed-txid tags).
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

    #[test]
    fn serves_fresh_entries_and_gates_on_mrd() {
        let replica = ReadReplica::new(Region::US_EAST_1, ReplicaConfig::with_count(1), 1, None);
        let ctx = Ctx::disabled();
        replica.ingest(&ctx, delta_of(&[record("/a", b"v1", 5)], 5));
        // Fresh enough for MRD 5 (watermark) and for MRD 0.
        assert_eq!(replica.serve(&ctx, "/a", 5).unwrap().data.as_ref(), b"v1");
        assert!(replica.serve(&ctx, "/a", 0).is_some());
        // The applied floor (5) also admits an entry-watermark miss:
        // MRD 5 with watermark 5 passes either way, MRD 6 must not.
        assert!(replica.serve(&ctx, "/a", 6).is_none());
        assert_eq!(replica.stats().stale_rejects, 1);
        // Absence is never served.
        assert!(replica.serve(&ctx, "/missing", 0).is_none());
        assert_eq!(replica.applied_txid(), 5);
    }

    #[test]
    fn applied_floor_admits_unmodified_entries_for_newer_mrd() {
        let replica = ReadReplica::new(Region::US_EAST_1, ReplicaConfig::with_count(1), 1, None);
        let ctx = Ctx::disabled();
        replica.ingest(&ctx, delta_of(&[record("/hot", b"v1", 3)], 3));
        // A later epoch touches a *different* path; /hot is unchanged
        // but the floor proves it current through txid 9.
        replica.ingest(&ctx, delta_of(&[record("/other", b"x", 9)], 9));
        assert!(replica.serve(&ctx, "/hot", 9).is_some());
        assert!(replica.serve(&ctx, "/hot", 10).is_none());
    }

    #[test]
    fn feed_lag_buffers_and_catch_up_drains() {
        let replica = ReadReplica::new(
            Region::US_EAST_1,
            ReplicaConfig::with_count(1).with_feed_lag(2),
            1,
            None,
        );
        let ctx = Ctx::disabled();
        replica.ingest(&ctx, delta_of(&[record("/a", b"v1", 1)], 1));
        replica.ingest(&ctx, delta_of(&[record("/a", b"v2", 2)], 2));
        // Both deltas sit inside the lag window: nothing applied.
        assert!(replica.serve(&ctx, "/a", 0).is_none());
        assert_eq!(replica.stats().epochs_applied, 0);
        // A third delta pushes the first out of the window.
        replica.ingest(&ctx, delta_of(&[record("/a", b"v3", 3)], 3));
        assert_eq!(replica.serve(&ctx, "/a", 0).unwrap().data.as_ref(), b"v1");
        // A session that already observed txid 3 must fall through.
        assert!(replica.serve(&ctx, "/a", 3).is_none());
        replica.catch_up(&ctx);
        assert_eq!(replica.serve(&ctx, "/a", 3).unwrap().data.as_ref(), b"v3");
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let budget = 2 * (64 + 2 + 100);
        let replica = ReadReplica::new(
            Region::US_EAST_1,
            ReplicaConfig::with_count(1).with_byte_budget(budget),
            1,
            None,
        );
        let ctx = Ctx::disabled();
        replica.ingest(
            &ctx,
            delta_of(
                &[record("/a", &[1u8; 100], 1), record("/b", &[2u8; 100], 2)],
                2,
            ),
        );
        // Touch /a so /b is the LRU victim when /c arrives.
        assert!(replica.serve(&ctx, "/a", 0).is_some());
        replica.ingest(&ctx, delta_of(&[record("/c", &[3u8; 100], 3)], 3));
        assert!(replica.peek("/b").is_none(), "LRU victim evicted");
        assert!(replica.peek("/a").is_some());
        assert!(replica.peek("/c").is_some());
        assert_eq!(replica.stats().evictions, 1);
        assert!(replica.stats().resident_bytes <= budget as u64);
    }

    #[test]
    fn children_patch_applies_in_place_and_never_populates() {
        let replica = ReadReplica::new(Region::US_EAST_1, ReplicaConfig::with_count(1), 1, None);
        let ctx = Ctx::disabled();
        replica.ingest(&ctx, delta_of(&[record("/p", b"d", 4)], 4));
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
        replica.ingest(&ctx, patch);
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
        replica.ingest(&ctx, stale);
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
        let replica = ReadReplica::new(Region::US_EAST_1, ReplicaConfig::with_count(1), 1, None);
        let ctx = Ctx::disabled();
        replica.ingest(
            &ctx,
            delta_of(
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
        replica.ingest(&ctx, evict);
        // /t/a still lists child "x": the walk misses and falls through
        // rather than serving a partial subtree.
        assert!(replica.serve_subtree(&ctx, "/t", 0).is_none());
        // A stale entry (MRD ahead of watermark and floor) also rejects.
        assert!(replica.serve_subtree(&ctx, "/other", 9).is_none());
        assert!(replica.serve_subtree(&ctx, "/missing", 0).is_none());
    }

    #[test]
    fn min_over_groups_floor_is_conservative() {
        let replica = ReadReplica::new(Region::US_EAST_1, ReplicaConfig::with_count(1), 2, None);
        let ctx = Ctx::disabled();
        let mut delta = delta_of(&[record("/a", b"v", txid::compose(1, 0))], 0);
        delta.high_water = Arc::new(vec![(0, txid::compose(9, 0))]);
        replica.ingest(&ctx, delta);
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
        let replica = ReadReplica::new(Region::US_EAST_1, ReplicaConfig::with_count(1), 1, None);
        let ctx = Ctx::disabled();
        replica.ingest(&ctx, delta_of(&[record_with_children("/p", &["c"], 4)], 4));
        let bytes_before_delete = replica.stats().resident_bytes;
        let delete = EpochDelta {
            ops: Arc::new(vec![ReplicaOp::Delete { path: "/p".into() }]),
            marks: Arc::new(Vec::new()),
            high_water: Arc::new(vec![(0, 6)]),
            seq: 0,
        };
        replica.ingest(&ctx, delete);
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
        replica.ingest(&ctx, late_patch);
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
        let replica = ReadReplica::new(Region::US_EAST_1, ReplicaConfig::with_count(1), 1, None);
        let ctx = Ctx::disabled();
        replica.ingest(&ctx, delta_of(&[record("/p", b"d", 4)], 4));
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
        replica.ingest(&ctx, patch);
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
        replica.ingest(&ctx, delete);
        assert!(replica.peek("/p").is_none(), "delete after patch must win");
        assert!(replica.serve(&ctx, "/p", 0).is_none());
    }

    fn seq_delta(records: &[NodeRecord], hw: u64, seq: u64) -> EpochDelta {
        let mut delta = delta_of(records, hw);
        delta.seq = seq;
        delta
    }

    #[test]
    fn gap_detection_repairs_from_the_feed_log() {
        let replica = ReadReplica::new(Region::US_EAST_1, ReplicaConfig::with_count(1), 1, None);
        let ctx = Ctx::disabled();
        let frames: Vec<EpochDelta> = (1u64..=3)
            .map(|i| seq_delta(&[record(&format!("/n{i}"), b"v", i)], i, i))
            .collect();
        let log: VecDeque<EpochDelta> = frames.iter().cloned().collect();
        let lookup = |seq: u64| lookup_frame(&log, seq);
        // Frame 1 delivered, frame 2 dropped, frame 3 triggers repair.
        replica.ingest_sequenced(&ctx, frames[0].clone(), &lookup);
        replica.ingest_sequenced(&ctx, frames[2].clone(), &lookup);
        assert!(replica.peek("/n2").is_some(), "dropped frame re-requested");
        assert_eq!(replica.feed_position(), 4);
        let stats = replica.stats();
        assert_eq!(stats.feed_gaps, 1);
        assert_eq!(stats.feed_repairs, 1);
        assert_eq!(stats.epochs_applied, 3);
        // A late copy of the repaired frame drops as a duplicate.
        replica.ingest_sequenced(&ctx, frames[1].clone(), &lookup);
        assert_eq!(replica.stats().feed_dup_drops, 1);
        assert_eq!(replica.stats().epochs_applied, 3, "no double apply");
    }

    #[test]
    fn unrecoverable_gap_parks_until_the_missing_frame_arrives() {
        let replica = ReadReplica::new(Region::US_EAST_1, ReplicaConfig::with_count(1), 1, None);
        let ctx = Ctx::disabled();
        let lookup = |_seq: u64| None;
        let frame = |i: u64| seq_delta(&[record(&format!("/n{i}"), b"v", i)], i, i);
        replica.ingest_sequenced(&ctx, frame(3), &lookup);
        assert!(replica.peek("/n3").is_none(), "parked behind the gap");
        replica.ingest_sequenced(&ctx, frame(1), &lookup);
        assert!(replica.peek("/n1").is_some());
        assert!(replica.peek("/n3").is_none(), "frame 2 still missing");
        replica.ingest_sequenced(&ctx, frame(2), &lookup);
        assert!(replica.peek("/n3").is_some(), "parked frame drained");
        assert_eq!(replica.feed_position(), 4);
        assert_eq!(replica.stats().epochs_applied, 3);
    }

    #[test]
    fn reconcile_recovers_replicas_from_total_feed_drop() {
        use fk_cloud::chaos::{FaultPlan, FaultSpec};
        let set = ReplicaSet::build(ReplicaConfig::with_count(2), &[Region::US_EAST_1], 1, None);
        let mut plan = FaultPlan::disabled();
        plan.feed_drop = FaultSpec::new(1.0, 4);
        set.install_chaos(Chaos::from_plan(plan).unwrap());
        let ctx = Ctx::disabled();
        set.feed(&ctx, 0, &delta_of(&[record("/a", b"v1", 1)], 1));
        set.feed(&ctx, 0, &delta_of(&[record("/b", b"v2", 2)], 2));
        // Budget 4 = both frames dropped to both replicas; with no
        // successor frame, only a reconcile can close the trailing gap.
        assert!(set.region(0).iter().all(|r| r.peek("/a").is_none()));
        set.reconcile(&ctx);
        for replica in set.region(0) {
            assert!(replica.peek("/a").is_some() && replica.peek("/b").is_some());
            assert!(replica.stats().feed_repairs >= 1);
            assert_eq!(replica.applied_txid(), 2);
        }
    }

    #[test]
    fn delayed_frames_arrive_out_of_order_and_drop_as_duplicates() {
        use fk_cloud::chaos::{FaultPlan, FaultSpec};
        let set = ReplicaSet::build(ReplicaConfig::with_count(1), &[Region::US_EAST_1], 1, None);
        let mut plan = FaultPlan::disabled();
        plan.feed_delay = FaultSpec::new(1.0, 1);
        set.install_chaos(Chaos::from_plan(plan).unwrap());
        let ctx = Ctx::disabled();
        set.feed(&ctx, 0, &delta_of(&[record("/a", b"v1", 1)], 1));
        let replica = &set.region(0)[0];
        assert!(replica.peek("/a").is_none(), "frame held back");
        set.feed(&ctx, 0, &delta_of(&[record("/b", b"v2", 2)], 2));
        // Frame 2 delivered first → gap repair pulled frame 1 from the
        // log; the held-back original then arrived late and dropped.
        assert!(replica.peek("/a").is_some() && replica.peek("/b").is_some());
        let stats = replica.stats();
        assert_eq!(stats.feed_repairs, 1);
        assert_eq!(stats.feed_dup_drops, 1);
        assert_eq!(stats.epochs_applied, 2);
    }

    #[test]
    fn mid_run_join_converges_byte_identical_to_the_genesis_stream() {
        let set = ReplicaSet::build(ReplicaConfig::with_count(1), &[Region::US_EAST_1], 1, None);
        let ctx = Ctx::disabled();
        set.feed(&ctx, 0, &delta_of(&[record("/a", b"v1", 1)], 1));
        set.feed(&ctx, 0, &delta_of(&[record("/b", b"v2", 2)], 2));
        let genesis = set.region(0)[0].clone();
        // Checkpoint cut: the genesis replica's records + floors at the
        // current feed sequence.
        let cut_seq = set.feed_seq(0);
        let records: Vec<NodeRecord> = genesis
            .resident_paths()
            .iter()
            .map(|path| (*genesis.peek(path).unwrap()).clone())
            .collect();
        let joined = set
            .join_replica(&ctx, 0, records, &[2], cut_seq)
            .expect("log retains the suffix");
        // Post-join traffic reaches both the old and the new replica.
        set.feed(&ctx, 0, &delta_of(&[record("/c", b"v3", 3)], 3));
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
    /// a replica joined from a twin's state at every cut `k` (at `k`, at a
    /// random later point, and at the end), and a replica that misses
    /// frames `j..=m` and repairs them from the log, both end
    /// byte-identical to a twin fed the whole stream live.
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
            // Per cut: the twin's records and per-group floors at `k`, and
            // the feed position at which to join from them.
            let mut floors = vec![0u64; 2];
            let mut cuts = vec![(Vec::new(), floors.clone())];
            let mut joins: Vec<(u64, u64)> = Vec::new();
            for k in 0..=n {
                joins.push((k, k));
                joins.push((k, rng.gen_range(k..=n)));
                joins.push((k, n));
            }
            let mut gaps: Vec<(u64, u64, ReadReplica)> = Vec::new();
            for j in 1..n {
                let m = rng.gen_range(j..n);
                let replica = ReadReplica::new(Region::US_EAST_1, set.inner.config, 2, None);
                gaps.push((j, m, replica));
            }
            let mut joined = Vec::new();
            let join_at =
                |at: u64,
                 cuts: &[(Vec<NodeRecord>, Vec<u64>)],
                 joined: &mut Vec<(u64, u64, Arc<ReadReplica>)>| {
                    for &(k, _) in joins.iter().filter(|&&(_, when)| when == at) {
                        let (records, floors) = cuts[k as usize].clone();
                        let replica = set
                            .join_replica(&ctx, 0, records, &floors, k)
                            .expect("the log retains every frame");
                        joined.push((k, at, replica));
                    }
                };
            join_at(0, &cuts, &mut joined);
            for frame in &frames {
                let mut live = frame.clone();
                live.seq = 0;
                set.feed(&ctx, 0, &live);
                {
                    let feed = set.inner.regions[0].feed.lock();
                    let lookup = |seq: u64| lookup_frame(&feed.log, seq);
                    for (j, m, replica) in &gaps {
                        if !(*j..=*m).contains(&frame.seq) {
                            replica.ingest_sequenced(&ctx, frame.clone(), &lookup);
                        }
                    }
                }
                for &(group, hw) in frame.high_water.iter() {
                    floors[group] = floors[group].max(hw);
                }
                let records = twin
                    .resident_paths()
                    .iter()
                    .map(|path| (*twin.peek(path).expect("resident")).clone())
                    .collect();
                cuts.push((records, floors.clone()));
                join_at(frame.seq, &cuts, &mut joined);
            }
            let want = resident(&twin);
            for (k, at, replica) in &joined {
                assert_eq!(
                    resident(replica),
                    want,
                    "case {case}: joined from cut {k} at seq {at} diverges from the live twin"
                );
            }
            for (j, m, replica) in &gaps {
                assert_eq!(
                    resident(replica),
                    want,
                    "case {case}: repair of frames {j}..={m} diverges from the live twin"
                );
            }
        }
    }

    /// 1,000 creates under one parent leave one children snapshot in the
    /// retained log, not 1,000; a write or delete of the parent keeps the
    /// patch before it. Every frame stays retained.
    #[test]
    fn feed_log_keeps_one_children_patch_per_parent() {
        let set = ReplicaSet::build(ReplicaConfig::with_count(1), &[Region::US_EAST_1], 1, None);
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
