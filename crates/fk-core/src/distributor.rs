//! The distributor: epoch-batched, dependency-scheduled application of
//! committed transactions to the replicated user stores.
//!
//! The paper's leader profile (Table 3 "Update Node") is dominated by the
//! sequential, per-transaction replication of node data to every region's
//! user store. This subsystem restructures that hot path:
//!
//! 1. **Epoch batching** — the leader drains its FIFO queue in batches
//!    ([`fk_cloud::queue::Queue::receive_up_to`]) and splits each batch
//!    into *epochs*: maximal runs of transactions in which only the last
//!    one fires watch notifications. Within an epoch the region epoch
//!    counters (§3.4) cannot change, so every write observes the same
//!    epoch marks and the per-transaction mark fetch collapses to one
//!    read per region per epoch.
//! 2. **One plan per region** — the effects of an epoch (node writes,
//!    deletes, one-name changes of a parent's children) are replayed once
//!    per region into one final store operation per path, so per-key
//!    apply order holds by construction. A children list is settled by a
//!    *fold*: the stored (or planned) list plus the parent's pending
//!    children-log entries up to the epoch's last change of it
//!    ([`crate::system_store::ChildLog`], read in the leader's read
//!    wave). What the operations wrote feeds the read-replica tier.
//! 3. **Dependency-scheduled fan-out** — a region's operations run on at
//!    most [`DistributorConfig::shards`] concurrent workers: forked
//!    virtual-time contexts, all forked at the epoch's start (so regions
//!    overlap) and joined at the slowest; on the host they run back to
//!    back. Two rules order the operations, both read off the updates
//!    that produced them:
//!    - a parent's children rewrite starts after the write of every
//!      child a create of the epoch added to it (a parent never lists a
//!      child before the child's record exists);
//!    - a delete starts after its parent's rewrite (a node never
//!      disappears before its parent stops listing it).
//!
//!    Beyond those, an operation takes the first worker to free up,
//!    critical path first. Every user-store write is conditional on the
//!    stored record's tag, so storage, not the leader, decides a race
//!    between leaders: a node write whose tag is on record in system
//!    storage is one `If-Match` write, a create one `If-None-Match`
//!    write, and every other write — and one whose precondition failed —
//!    reads the record and its tag, merges, and writes `If-Match` that
//!    tag, again on a 412 ([`MERGE_ROUNDS`]). The same schedule is
//!    correct at every tier width: with one shard group the merges never
//!    meet a concurrent writer.
//! 4. **Ordered finalization** — a single epoch-counter bump per region
//!    publishes all watch ids fired by the epoch before any later
//!    transaction commits (Z4), the per-node pending queues are popped in
//!    **one** conditional write per epoch, each node's pop guarded by its
//!    queue head ([`crate::commit::pop_pending`]), which also records the
//!    object tags the epoch's writes left and removes the folded
//!    children-log entries, and client notifications go out per session
//!    in txid order (Z2), the sessions in parallel.
//!
//! The formal serverless model of Gabbrielli et al. ("No more, no less")
//! licenses exactly this transformation: fan-out order is unobservable as
//! long as per-key ordering, the two rules above and the epoch guarantees
//! survive, which the Z1–Z4 property tests
//! (`tests/consistency_properties.rs`) check end to end.

use crate::messages::{LeaderRecord, UserUpdate};
use crate::system_store::{ChildEntry, ChildLog, ObjTags, SystemStore};
use crate::user_store::{NodeRecord, UserStore};
use bytes::Bytes;
use fk_cloud::objectstore::{Precondition, Tag};
use fk_cloud::trace::Ctx;
use fk_cloud::{CloudError, CloudResult, Region, Value};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

pub use fk_cloud::queue::shard_of;

/// Configuration of the leader's distribution pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistributorConfig {
    /// Concurrent storage workers per region: at most this many store
    /// operations of an epoch are in flight in one region at any instant.
    pub shards: usize,
    /// The leader's drain window: each leader trigger and
    /// [`crate::leader::Leader::drain_queue`] take what the lane has
    /// queued, up to this many transactions per batch. A receive never
    /// waits to fill the window, so it only caps how much of a backlog
    /// one epoch batch takes.
    pub max_batch: usize,
    /// Width of the leader tier: the number of shard groups, each with
    /// its own FIFO queue and its own leader function instance. `1` (the
    /// default) is the paper's single-leader deployment. The epoch apply
    /// is the same at every width; the width decides how txids are
    /// allocated and which group a txid belongs to.
    pub groups: usize,
}

impl Default for DistributorConfig {
    fn default() -> Self {
        DistributorConfig {
            shards: 4,
            max_batch: 16,
            groups: 1,
        }
    }
}

impl DistributorConfig {
    /// A pipeline with explicit shard count and batch size.
    pub fn new(shards: usize, max_batch: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(max_batch > 0, "at least one transaction per batch");
        DistributorConfig {
            shards,
            max_batch,
            groups: 1,
        }
    }

    /// Builder: run `groups` shard-group leaders instead of one.
    pub fn with_groups(mut self, groups: usize) -> Self {
        assert!(groups > 0, "at least one shard group");
        assert!(
            groups < crate::system_store::txid::MAX_GROUPS,
            "shard group count exceeds the txid group-id space"
        );
        self.groups = groups;
        self
    }
}

/// A committed transaction ready for distribution: the decoded leader
/// record plus its resolved payload bytes.
pub struct CommittedTx<'a> {
    /// Index of the originating message in the queue batch (for partial
    /// batch failure reporting).
    pub msg_index: usize,
    /// Transaction id (the leader-queue sequence number).
    pub txid: u64,
    /// The confirmed change.
    pub record: &'a LeaderRecord,
    /// Per-sub payload bytes (inline, or fetched from staging), aligned
    /// with `record.ops`; empty for subs that write no node.
    pub data: Vec<Bytes>,
    /// Distributed from *behind* a held record of its queue batch (the
    /// leader's skip-ahead): earlier records of the lane are still
    /// undistributed, so the txid must not count toward the group's
    /// high-water mark yet. [`Distributor::feed_high_water`] publishes
    /// it once the record's message is acknowledged in a prefix.
    pub ahead: bool,
    /// The object tags on record for the record's node
    /// (`record.path()`), as the leader's read of its node item found
    /// them. If an earlier epoch of the same batch wrote the path, they
    /// are stale: the `If-Match` fails and the write falls back to the
    /// read-merge-write.
    pub tags: ObjTags,
}

/// The object tags an epoch's apply left, by path, for every path it
/// wrote, deleted or rewrote ([`Distributor::apply_epoch`]): one per
/// region, 0 where no write recorded one.
pub type EpochTags = HashMap<String, Vec<Tag>>;

/// The pending children logs the leader's read wave found, by node path
/// ([`ChildLog`]): every parent an epoch's creates and deletes change,
/// and every node it writes.
pub type ChildLogs<'a> = HashMap<&'a str, ChildLog>;

/// What an epoch's apply left ([`Distributor::apply_epoch`]).
#[derive(Debug, Default)]
pub struct EpochApplied {
    /// The object tags, for [`Distributor::finalize_epoch`] to record.
    pub tags: EpochTags,
    /// The children list, and its `children_txid`, of every record the
    /// apply wrote in the first region: what a `NodeChildrenChanged`
    /// event of the epoch carries.
    pub lists: HashMap<String, (Arc<Vec<String>>, u64)>,
}

/// What one store operation did in its region: the new object's tag, if
/// it replaced an existing object, and the record it wrote (`None` for
/// a delete, or a rewrite the stored list already covered).
#[derive(Debug, Default)]
struct Applied {
    tag: Option<Tag>,
    record: Option<NodeRecord>,
}

/// One storage effect of a transaction, keyed by the path it touches.
enum Effect<'a> {
    /// Write (create or replace) the node record.
    Write {
        txid: u64,
        update: &'a UserUpdate,
        data: &'a Bytes,
    },
    /// Delete the node record.
    Delete { path: &'a str },
    /// A create or delete changed `parent`'s children by one name: its
    /// node `child` was `added`, or removed.
    Children {
        parent: &'a str,
        txid: u64,
        child: &'a str,
        added: bool,
    },
}

/// A children list the apply settles against the stored record: the
/// list at `txid` is the stored one, plus the node's pending
/// children-log entries above the stored `children_txid` and below
/// `txid`, plus `own`, the changes of the transaction `txid` itself.
/// Those come from the record, not the log: the read wave may read the
/// item before that transaction's commit lands, but every change below
/// it committed, under the same lock, before it was pushed.
#[derive(Debug, Clone)]
struct Fold {
    txid: u64,
    own: Vec<(String, bool)>,
}

impl Fold {
    fn new(txid: u64) -> Self {
        Fold {
            txid,
            own: Vec::new(),
        }
    }

    /// Adds the change `(name, added)` of the transaction `txid`. A
    /// later transaction's changes replace an earlier one's, which the
    /// log holds.
    fn push(&mut self, txid: u64, name: &str, added: bool) {
        if txid > self.txid {
            *self = Fold::new(txid);
        }
        self.own.push((name.to_owned(), added));
    }
}

/// `start`, a children list as of txid `from`, moved to txid `to`: the
/// log's entries with txids in `(from, to)`, in txid order, then `own`.
fn settle(
    start: &[String],
    from: u64,
    log: &ChildLog,
    to: u64,
    own: &[(String, bool)],
) -> Vec<String> {
    let mut list = start.to_vec();
    let logged = log.entries.iter().filter(|e| from < e.txid && e.txid < to);
    let changes = logged.map(|e| (e.name.as_str(), e.added));
    for (name, added) in changes.chain(own.iter().map(|(name, added)| (name.as_str(), *added))) {
        let listed = list.iter().any(|child| child == name);
        if added && !listed {
            list.push(name.to_owned());
        } else if !added && listed {
            list.retain(|child| child != name);
        }
    }
    list
}

/// True if `base` is a record of a node incarnation older than the one
/// created at txid `created`: its list says nothing about the newer
/// one, which started with no children. (A stub of the newer one
/// carries a later `children_txid`; the root, which no transaction
/// created, carries its own `created_txid`.)
fn predates(base: &NodeRecord, created: u64) -> bool {
    base.created_txid < created && base.children_txid < created
}

/// The log of `path`, or an empty one if the read wave did not read it.
fn log_of<'l>(logs: &'l ChildLogs<'_>, path: &str) -> &'l ChildLog {
    static EMPTY: ChildLog = ChildLog {
        created: 0,
        exists: false,
        entries: Vec::new(),
    };
    logs.get(path).unwrap_or(&EMPTY)
}

/// Insertion-ordered key→value map: the coalescing primitive behind the
/// epoch replay and the finalize bookkeeping (first touch fixes the
/// position, later touches update the value in place).
struct OrderedMap<K: Eq + std::hash::Hash + Clone, V> {
    order: Vec<K>,
    map: HashMap<K, V>,
}

impl<K: Eq + std::hash::Hash + Clone, V> OrderedMap<K, V> {
    fn new() -> Self {
        OrderedMap {
            order: Vec::new(),
            map: HashMap::new(),
        }
    }

    /// Replaces the value for `key`, keeping its first-touch position.
    fn insert(&mut self, key: K, value: V) {
        if !self.map.contains_key(&key) {
            self.order.push(key.clone());
        }
        self.map.insert(key, value);
    }

    fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: std::borrow::Borrow<Q>,
        Q: ?Sized + Eq + std::hash::Hash,
    {
        self.map.get(key)
    }

    fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: std::borrow::Borrow<Q>,
        Q: ?Sized + Eq + std::hash::Hash,
    {
        self.map.get_mut(key)
    }

    /// The value for `key`, inserting `default()` at the current tail
    /// position on first touch.
    fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        if !self.map.contains_key(&key) {
            self.order.push(key.clone());
            self.map.insert(key.clone(), default());
        }
        self.map.get_mut(&key).expect("just inserted")
    }

    /// Keys in first-touch order.
    fn keys(&self) -> impl Iterator<Item = &K> {
        self.order.iter()
    }

    /// Consumes the map in first-touch order.
    fn into_entries(mut self) -> impl Iterator<Item = (K, V)> {
        self.order.into_iter().filter_map(move |key| {
            let value = self.map.remove(&key)?;
            Some((key, value))
        })
    }
}

/// Runs `jobs` closures on forked virtual-time contexts and joins the
/// parent clock to the slowest fork: the jobs overlap in *virtual* time,
/// which is the only clock the simulated stores spend. They run one
/// after another on the calling thread — each takes microseconds of
/// host time, far less than a thread costs to spawn. Every job runs even
/// if an earlier one failed; the first error in job order is returned.
/// The closure receives `(job_index, forked_ctx)`.
pub(crate) fn fan_out<F>(ctx: &Ctx, jobs: usize, run: F) -> CloudResult<()>
where
    F: Fn(usize, &Ctx) -> CloudResult<()>,
{
    // Forks are created up front, in order (each draws its RNG seed
    // from the parent), so a job's latency samples do not depend on what
    // the jobs before it drew.
    let forks: Vec<Ctx> = (0..jobs).map(|_| ctx.fork()).collect();
    let results: Vec<CloudResult<()>> = forks
        .iter()
        .enumerate()
        .map(|(i, child)| run(i, child))
        .collect();
    ctx.join(&forks);
    results.into_iter().collect()
}

/// Rounds of one read-merge-write: a 412 means another leader wrote the
/// record between this one's read and its write, so the record is read
/// and merged again. Every round that fails lost to a write that landed,
/// so the bound is spent only under sustained contention on one record;
/// the write then fails retryably and its batch is redelivered.
pub const MERGE_ROUNDS: usize = 4;

/// The fan-out stage of the leader (see module docs).
pub struct Distributor {
    system: SystemStore,
    user_stores: Vec<Arc<dyn UserStore>>,
    regions: Vec<Region>,
    config: DistributorConfig,
    /// The regional read-replica tier, when deployed: one more
    /// subscriber of the epoch fan-out, fed strictly *after* the
    /// storage apply so a replica can never get ahead of its region's
    /// user store ([`crate::replica`] module docs).
    replicas: Option<crate::replica::ReplicaSet>,
}

impl Distributor {
    /// Creates a distributor over one user-store replica per region.
    pub fn new(
        system: SystemStore,
        user_stores: Vec<Arc<dyn UserStore>>,
        config: DistributorConfig,
    ) -> Self {
        let regions = user_stores.iter().map(|s| s.region()).collect();
        Distributor {
            system,
            user_stores,
            regions,
            config,
            replicas: None,
        }
    }

    /// Subscribes a read-replica tier to this distributor's committed
    /// epoch stream. Every applied epoch is folded into one
    /// [`crate::replica::EpochDelta`] per region and fed to that
    /// region's replicas after the epoch's storage operations complete.
    pub fn attach_replicas(&mut self, replicas: crate::replica::ReplicaSet) {
        if !replicas.is_empty() {
            self.replicas = Some(replicas);
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &DistributorConfig {
        &self.config
    }

    /// The replica regions, aligned with the user stores.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The current epoch marks of every replica region, aligned with
    /// [`Distributor::regions`] — what [`Distributor::apply_epoch`]
    /// attaches to an epoch's writes. One strong read per region; the
    /// set is shared (`Arc`) into every record of the epoch.
    pub fn epoch_marks(&self, ctx: &Ctx) -> Vec<Arc<Vec<u64>>> {
        self.regions
            .iter()
            .map(|region| Arc::new(self.system.epoch_marks(ctx, *region)))
            .collect()
    }

    /// Applies one epoch of committed transactions to every replica.
    /// `marks` holds each region's epoch marks
    /// ([`Distributor::epoch_marks`]), read once per epoch by the
    /// caller: within an epoch no watch fires, so the marks attached to
    /// every write are the same set the sequential leader would have
    /// read per transaction.
    ///
    /// Two dependency rules keep what an observer can see within what
    /// the sequential leader could have shown: a parent's children
    /// rewrite starts only after the writes of the children the epoch's
    /// creates added to it (a parent never lists a child before the
    /// child's record exists), and a delete only after its parent's
    /// rewrite (a node never disappears before its parent stops listing
    /// it). Each region's plan (`build_epoch_plan`) schedules exactly
    /// those edges on `shards` workers (`run_plans`), and what the
    /// operations wrote then feeds the replica tier.
    ///
    /// `logs` holds the pending children log of every parent the epoch
    /// changes and every node it writes, as the leader's read wave found
    /// them: children lists are folded from them (`settle`).
    ///
    /// A node write names its object's tag when the record's
    /// [`CommittedTx::tags`] hold one for that region (see
    /// `write_record`).
    /// Returns the tags the epoch's writes left, for
    /// [`Distributor::finalize_epoch`] to record, and the lists they
    /// wrote.
    pub fn apply_epoch(
        &self,
        ctx: &Ctx,
        items: &[CommittedTx<'_>],
        marks: &[Arc<Vec<u64>>],
        logs: &ChildLogs<'_>,
    ) -> CloudResult<EpochApplied> {
        let mut applied = EpochApplied::default();
        if items.is_empty() {
            return Ok(applied);
        }
        let effects: Vec<Effect<'_>> = items.iter().flat_map(effects_of).collect();
        let plans: Vec<EpochPlan> = marks
            .iter()
            .map(|region_marks| build_epoch_plan(&effects, region_marks, logs))
            .collect();
        let known: HashMap<&str, &ObjTags> = items
            .iter()
            .map(|tx| (tx.record.path(), &tx.tags))
            .collect();
        let written = self.run_plans(ctx, &plans, &known, logs)?;
        self.feed_replicas(ctx, items, marks, &plans, &written);
        for (region_idx, (plan, written)) in plans.iter().zip(written).enumerate() {
            for (op, written) in plan.ops.iter().zip(written) {
                let entry = applied.tags.entry(op.path().to_owned()).or_default();
                if let Some(tag) = written.tag {
                    entry.resize(plans.len(), 0);
                    entry[region_idx] = tag;
                }
                if let (0, Some(record)) = (region_idx, written.record) {
                    let list = (record.children, record.children_txid);
                    applied.lists.insert(record.path, list);
                }
            }
        }
        Ok(applied)
    }

    /// Folds the epoch into one [`crate::replica::EpochDelta`] per
    /// region and feeds it to the attached replica tier. Runs after the
    /// storage apply, so the replicas strictly follow storage, and feeds
    /// what each operation wrote (`written`, aligned with the region's
    /// plan): a node write is encoded once per region and shared
    /// (`Bytes`) across that region's replicas; a standalone children
    /// rewrite stays symbolic and patches resident entries in place on
    /// the replica side, and one the stored list already covered feeds
    /// nothing. No storage reads, no kv traffic — purely in-memory work
    /// on the feeding invocation.
    fn feed_replicas(
        &self,
        ctx: &Ctx,
        items: &[CommittedTx<'_>],
        marks: &[Arc<Vec<u64>>],
        plans: &[EpochPlan],
        written: &[Vec<Applied>],
    ) {
        use crate::replica::{EpochDelta, ReplicaOp};
        let Some(replicas) = &self.replicas else {
            return;
        };

        // Records applied ahead of a held one stay out: the replicas'
        // applied floor is a statement about a lane's *prefix*.
        let high_water =
            self.group_high_water(items.iter().filter(|tx| !tx.ahead).map(|tx| tx.txid));

        for (region_idx, plan) in plans.iter().enumerate() {
            let ops = plan.ops.iter().zip(&written[region_idx]);
            let ops = ops.filter_map(|(op, written)| match (op, &written.record) {
                (PlanOp::Delete(path), _) => Some(ReplicaOp::Delete { path: path.clone() }),
                (_, None) => None,
                (PlanOp::Rewrite { parent, .. }, Some(record)) => Some(ReplicaOp::Children {
                    parent: parent.clone(),
                    children: Arc::clone(&record.children),
                    txid: record.children_txid,
                }),
                (_, Some(record)) => Some(ReplicaOp::Write {
                    path: record.path.clone(),
                    frame: crate::codec::encode_node(record),
                }),
            });
            let delta = EpochDelta {
                ops: Arc::new(ops.collect()),
                marks: Arc::clone(&marks[region_idx]),
                high_water: Arc::clone(&high_water),
                // Stamped by the feed as the frame enters the region's
                // retained log.
                seq: 0,
            };
            replicas.feed(ctx, region_idx, &delta);
        }
    }

    /// The shard group a txid was allocated on. A single-group tier
    /// allocates raw queue sequence numbers (group 0); a multi-group
    /// tier composes (epoch << GROUP_BITS) | group.
    pub(crate) fn group_of(&self, txid: u64) -> usize {
        if self.config.groups > 1 {
            crate::system_store::txid::group_of(txid)
        } else {
            0
        }
    }

    /// The per-shard-group high-water marks of `txids`.
    fn group_high_water(&self, txids: impl Iterator<Item = u64>) -> Arc<Vec<(usize, u64)>> {
        let mut floors = vec![0u64; self.config.groups.max(1)];
        for txid in txids {
            if let Some(floor) = floors.get_mut(self.group_of(txid)) {
                *floor = (*floor).max(txid);
            }
        }
        Arc::new(
            floors
                .into_iter()
                .enumerate()
                .filter(|&(_, hw)| hw > 0)
                .collect(),
        )
    }

    /// Publishes `txids` to the replicas' applied floors without any
    /// record operation: the transactions were distributed (and their
    /// records fed) by an earlier invocation from behind a held record
    /// ([`CommittedTx::ahead`]), and everything queued before them has
    /// been distributed since. In-memory work only, like every feed.
    pub fn feed_high_water(&self, ctx: &Ctx, txids: &[u64]) {
        let Some(replicas) = &self.replicas else {
            return;
        };
        let delta = crate::replica::EpochDelta {
            ops: Arc::new(Vec::new()),
            marks: Arc::new(Vec::new()),
            high_water: self.group_high_water(txids.iter().copied()),
            seq: 0,
        };
        for region_idx in 0..self.regions.len() {
            replicas.feed(ctx, region_idx, &delta);
        }
    }

    /// Runs the region plans against the user stores: the merge-safe
    /// apply. Per-path *node-write* order is total (a path's
    /// transactions all route to one group), but with more than one
    /// shard group a parent's children list is rewritten from its
    /// children's groups, so plain last-write-wins would let a stale list
    /// clobber a newer one. Every store write therefore names the record
    /// it replaces: by the tag on record (`write_record`), or by the tag
    /// of a read-merge-write's read (`read_merge_write`), whose merge keeps
    /// the children list of whichever side carries the larger
    /// `children_txid` (children changes of a node commit in txid order
    /// under its follower lock, so the larger txid is the current truth)
    /// and never lets `modified_txid` regress.
    ///
    /// Each region's plan runs on its own `shards` workers
    /// ([`EpochPlan::run`]); every region's workers are forked here, up
    /// front and in order, at the epoch's start instant, so the regions
    /// overlap and the epoch costs the slowest of them. A failed operation
    /// stops its region's schedule (nothing that depends on it runs); the
    /// other regions still run, and the first error in region order is
    /// returned. Returns, per region, what each op left on record
    /// (aligned with the plan's ops).
    fn run_plans(
        &self,
        ctx: &Ctx,
        plans: &[EpochPlan],
        known: &HashMap<&str, &ObjTags>,
        logs: &ChildLogs<'_>,
    ) -> CloudResult<Vec<Vec<Applied>>> {
        let workers: Vec<Vec<Ctx>> = plans
            .iter()
            .map(|plan| {
                let width = self.config.shards.max(1).min(plan.ops.len());
                (0..width).map(|_| ctx.fork()).collect()
            })
            .collect();
        let ran: Vec<CloudResult<Vec<Applied>>> = plans
            .iter()
            .enumerate()
            .map(|(region_idx, plan)| {
                let store = self.user_stores[region_idx].as_ref();
                plan.run(&workers[region_idx], |worker, op| match op {
                    PlanOp::Write(record, fold) | PlanOp::ChildrenWrite(record, fold) => {
                        let tags = known.get(record.path.as_str());
                        let tag = tags.and_then(|tags| tags.tag_for(region_idx, record));
                        let fold = fold.as_ref().map(|f| (f, log_of(logs, &record.path)));
                        self.write_record(worker, store, record, fold, tag)
                    }
                    PlanOp::Rewrite { parent, fold } => {
                        let log = log_of(logs, parent);
                        self.rewrite_children(worker, store, parent, fold, log, &plan.marks)
                    }
                    // Deletion is idempotent and unconditional: a racing
                    // group's rewrite either lands first or fails its
                    // precondition and reads the absence.
                    PlanOp::Delete(path) => {
                        store.delete_node(worker, path).map(|()| Applied::default())
                    }
                })
            })
            .collect();
        for region in &workers {
            ctx.join(region);
        }
        ran.into_iter().collect()
    }

    /// Writes one node record. A create is one `If-None-Match` write and
    /// a record whose `tag` is on record one `If-Match` write: no read
    /// (Table 3's Update Node without its GET). Without a tag, after a
    /// 412 (a concurrent writer got there first; nothing was written),
    /// or when its children list is a `fold` of the stored one (a node
    /// with children), it is a read-merge-write, which merges what the
    /// other writer stored.
    ///
    /// A create leaves no tag on record; a write that replaced an
    /// existing record leaves its new tag.
    fn write_record(
        &self,
        ctx: &Ctx,
        store: &dyn UserStore,
        record: &NodeRecord,
        fold: Option<(&Fold, &ChildLog)>,
        tag: Option<Tag>,
    ) -> CloudResult<Applied> {
        let create = record.created_txid == record.modified_txid;
        let precondition = match tag {
            _ if fold.is_some() => None,
            _ if create => Some(Precondition::IfNoneMatch),
            Some(tag) => Some(Precondition::IfMatch(tag)),
            None => None,
        };
        if let Some(precondition) = precondition {
            match store.write_node_if(ctx, record, precondition) {
                Ok(tag) => {
                    let tag = (!create).then_some(tag);
                    let record = Some(record.clone());
                    return Ok(Applied { tag, record });
                }
                Err(e) if !e.is_condition_failed() => return Err(e),
                Err(_) => {}
            }
        }
        self.read_merge_write(ctx, store, &record.path, |base| {
            let mut record = record.clone();
            match (fold, &base) {
                (Some((fold, _)), Some(base)) if base.children_txid >= fold.txid => {
                    record.children = Arc::clone(&base.children);
                    record.children_txid = base.children_txid;
                }
                (Some((fold, log)), base) => {
                    // The stored list, unless it predates the node's
                    // incarnation, which started with none.
                    let (start, from) = match base {
                        Some(base) if !predates(base, record.created_txid) => {
                            (base.children.as_slice(), base.children_txid)
                        }
                        _ => (&[][..], record.created_txid),
                    };
                    record.children = Arc::new(settle(start, from, log, fold.txid, &fold.own));
                    record.children_txid = fold.txid;
                }
                (None, _) => {}
            }
            // Merge a concurrently applied newer children list (a larger
            // stored `children_txid`) instead of clobbering it.
            if let Some(base) = &base {
                record.merge_existing(base);
            }
            Some(record)
        })
    }

    /// Applies a standalone children-list rewrite (a child's create or
    /// delete whose parent has no node write in this epoch): drop it if
    /// the stored list is already as new; fold it into the stored record
    /// of the parent's incarnation; synthesize a stub if the parent's own
    /// node write has not materialized yet, or the stored record predates
    /// its incarnation — unless the log says the parent is gone (a later
    /// delete won), in which case resurrecting it would leak a record the
    /// owning group will never clean up.
    fn rewrite_children(
        &self,
        ctx: &Ctx,
        store: &dyn UserStore,
        parent: &str,
        fold: &Fold,
        log: &ChildLog,
        marks: &Arc<Vec<u64>>,
    ) -> CloudResult<Applied> {
        let txid = fold.txid;
        // The `children_txid >= txid` guard makes a repeat after a
        // successful-but-unreported write a no-op, not a regression.
        let rewrite = |base: Option<NodeRecord>| {
            let (start, from, base) = match base {
                Some(record) if record.children_txid >= txid => return None,
                Some(record) if txid < log.created || !predates(&record, log.created) => (
                    Arc::clone(&record.children),
                    record.children_txid,
                    Some(record),
                ),
                Some(_) => (Arc::default(), log.created, None),
                None if log.exists && log.created <= txid => (Arc::default(), log.created, None),
                None => return None,
            };
            let children = Arc::new(settle(&start, from, log, txid, &fold.own));
            Some(match base {
                Some(mut record) => {
                    record.children = children;
                    record.children_txid = txid;
                    record.modified_txid = record.modified_txid.max(txid);
                    record.epoch_marks = Arc::clone(marks);
                    record
                }
                None => stub_record(parent, children, txid, marks),
            })
        };
        self.read_merge_write(ctx, store, parent, rewrite)
    }

    /// The optimistic write loop: reads `path`'s record and tag, lets
    /// `merge` decide what to store over it (`None`: nothing), and writes
    /// that `If-Match` the tag read (`If-None-Match` over an absent
    /// record). A 412 means another writer landed in between: the loop
    /// reads and merges again (a new round, never a retry: the store
    /// retries only transient failures), for at most [`MERGE_ROUNDS`]
    /// rounds, then fails with a `Throttled` that redelivers the batch.
    /// Returns the new tag if the write replaced a record, and the
    /// record written.
    fn read_merge_write(
        &self,
        ctx: &Ctx,
        store: &dyn UserStore,
        path: &str,
        merge: impl Fn(Option<NodeRecord>) -> Option<NodeRecord>,
    ) -> CloudResult<Applied> {
        for _ in 0..MERGE_ROUNDS {
            let base = store.read_tagged(ctx, path)?;
            let stored = base.as_ref().map(|(_, tag)| *tag);
            let Some(record) = merge(base.map(|(record, _)| record)) else {
                return Ok(Applied::default());
            };
            let precondition = stored.map_or(Precondition::IfNoneMatch, Precondition::IfMatch);
            match store.write_node_if(ctx, &record, precondition) {
                Ok(tag) => {
                    let tag = stored.map(|_| tag);
                    let record = Some(record);
                    return Ok(Applied { tag, record });
                }
                Err(e) if e.is_condition_failed() => continue,
                Err(e) => return Err(e),
            }
        }
        // Contention, like throttling, is transient: the batch redelivers.
        Err(CloudError::Throttled)
    }

    /// Pops the distributed transactions from their nodes' pending queues
    /// and purges drained tombstones — system-store bookkeeping only, no
    /// user-store access. Every node's pop goes out in **one** conditional
    /// write ([`crate::commit::pop_pending`]): the leader cuts its epochs
    /// so that one holds at most [`crate::system_store::TRANSACT_MAX_ITEMS`]
    /// nodes to pop (unless a lone record needs more), and a record is
    /// popped off all of its nodes or none. Each pop also leaves on its
    /// node item the object tags the epoch's apply returned for the path
    /// (`tags`), in the same update: recording them costs no request.
    ///
    /// The pops also remove, by value, the pending children-log entries
    /// the epoch folded (`folded_entries`): for each parent, every entry
    /// `logs` holds up to the epoch's last change of it, and that
    /// change's own.
    pub fn finalize_epoch(
        &self,
        ctx: &Ctx,
        items: &[CommittedTx<'_>],
        tags: &EpochTags,
        logs: &ChildLogs<'_>,
    ) -> CloudResult<()> {
        // Per path, in txid order: the txids to pop and whether the last
        // transaction deleted the node. A record contributes each
        // *mutating* sub path once (checks never enter the txq).
        let mut per_path: OrderedMap<&str, (Vec<u64>, bool)> = OrderedMap::new();
        // A duplicated queue delivery puts the *same* committed record in
        // the epoch twice, but its txid sits in the path's `txq` exactly
        // once — popping once per occurrence would eat the *next*
        // transaction's entry (its commit may already have appended
        // concurrently) and strand it as "already processed" before it
        // ever distributed. Dedupe per path: same-path txids arrive in
        // txid order, so duplicates are adjacent.
        for tx in items {
            for sub in tx.record.ops.iter().filter(|sub| sub.mutates()) {
                let (txids, deleted) =
                    per_path.get_or_insert_with(sub.path.as_str(), Default::default);
                if txids.last() != Some(&tx.txid) {
                    txids.push(tx.txid);
                }
                *deleted = sub.is_delete;
            }
        }
        let folded = folded_entries(items, logs);
        for path in folded.keys() {
            per_path.get_or_insert_with(path, Default::default);
        }
        let pops: Vec<crate::commit::Pop<'_>> = per_path
            .keys()
            .map(|path| crate::commit::Pop {
                path,
                txids: &per_path.get(path).expect("keyed from map").0,
                tags: tags.get(*path).map_or(&[][..], Vec::as_slice),
                folded: folded.get(*path).map_or(&[][..], Vec::as_slice),
            })
            .collect();
        // Two waves on forked contexts: the epoch's one pop, then the
        // purges of the tombstones it drained.
        if !pops.is_empty() {
            fan_out(ctx, 1, |_, child| {
                crate::commit::pop_pending(self.system.kv(), child, &pops)
            })?;
        }
        let deleted: Vec<&str> = per_path
            .keys()
            .copied()
            .filter(|path| per_path.get(path).map(|(_, d)| *d).unwrap_or(false))
            .collect();
        fan_out(ctx, deleted.len(), |i, child| {
            self.system.purge_tombstone(child, deleted[i])
        })
    }
}

/// The storage effects of one committed transaction: its subs' effects
/// in op order (they share the record's txid: one atomic unit).
fn effects_of<'a>(tx: &'a CommittedTx<'_>) -> impl Iterator<Item = Effect<'a>> {
    let subs = tx.record.ops.iter().zip(&tx.data);
    subs.flat_map(|(sub, data)| effects_of_update(&sub.user_update, data, tx.txid))
}

/// The 1–2 effects of one user-store update, in order: the node's own,
/// then the one-name change of its parent's children.
fn effects_of_update<'a>(
    user_update: &'a UserUpdate,
    data: &'a Bytes,
    txid: u64,
) -> Vec<Effect<'a>> {
    let mut effects = match user_update {
        UserUpdate::WriteNode { .. } => vec![Effect::Write {
            txid,
            update: user_update,
            data,
        }],
        UserUpdate::DeleteNode { path } => vec![Effect::Delete { path }],
        UserUpdate::None => return Vec::new(),
    };
    if let Some((parent, child, added)) = user_update.child_delta() {
        effects.push(Effect::Children {
            parent,
            txid,
            child,
            added,
        });
    }
    effects
}

/// The pending children-log entries an epoch folds, by parent: every
/// entry `logs` holds up to the epoch's last change of the parent, and
/// that change's own entries (which the log may not show yet), in their
/// stored form. A parent `logs` shows purged has none.
fn folded_entries<'a>(
    items: &'a [CommittedTx<'_>],
    logs: &ChildLogs<'_>,
) -> OrderedMap<&'a str, Vec<Value>> {
    let mut last: OrderedMap<&'a str, Fold> = OrderedMap::new();
    for effect in items.iter().flat_map(effects_of) {
        if let Effect::Children {
            parent,
            txid,
            child,
            added,
        } = effect
        {
            let fold = last.get_or_insert_with(parent, || Fold::new(txid));
            fold.push(txid, crate::path::basename(child), added);
        }
    }
    let mut folded = OrderedMap::new();
    for (parent, fold) in last.into_entries() {
        let log = log_of(logs, parent);
        if log.created == 0 {
            // The read wave found no incarnation of the parent: a
            // tombstone purge took its log, and these entries with it.
            // (A change's parent exists from before its record is
            // pushed until its commit releases the lock, so the purge
            // came after the commit.) Its pop would fail on the
            // missing item.
            continue;
        }
        let logged = log.entries.iter();
        let logged = logged.filter(|entry| entry.txid <= fold.txid).cloned();
        let own = fold.own.into_iter().map(|(name, added)| ChildEntry {
            txid: fold.txid,
            name,
            added,
        });
        let entries = logged.chain(own).map(|entry| entry.to_value());
        folded.insert(parent, entries.collect());
    }
    folded
}

/// Builds the node record a `WriteNode` update materializes in `region`'s
/// replica (the same construction as the sequential leader), with no
/// children as of its txid: a create's, or a childless node's, list. The
/// data payload and epoch marks are *shared* into the record —
/// materializing the same transaction for R regions costs R ref-count
/// bumps, not R deep copies.
fn record_of(update: &UserUpdate, txid: u64, data: &Bytes, marks: &Arc<Vec<u64>>) -> NodeRecord {
    let UserUpdate::WriteNode {
        path,
        created_txid,
        version,
        ephemeral_owner,
        ..
    } = update
    else {
        unreachable!("write effect is only built for WriteNode");
    };
    NodeRecord {
        path: path.clone(),
        data: data.clone(),
        created_txid: if *created_txid == 0 {
            txid
        } else {
            *created_txid
        },
        modified_txid: txid,
        version: *version,
        children: Arc::default(),
        // The follower found no children under this node's lock, in the
        // same critical section that allocated `txid` (a node with
        // children settles its list by a fold).
        children_txid: txid,
        ephemeral_owner: ephemeral_owner.clone(),
        epoch_marks: Arc::clone(marks),
    }
}

/// A children-only stub for a parent whose own record is not (yet, or
/// any more) materialized in this replica — the sequential
/// `update_children` synthesizing a missing base.
fn stub_record(
    parent: &str,
    children: Arc<Vec<String>>,
    txid: u64,
    marks: &Arc<Vec<u64>>,
) -> NodeRecord {
    NodeRecord {
        path: parent.to_owned(),
        data: Bytes::new(),
        created_txid: 0,
        modified_txid: txid,
        version: 0,
        children,
        children_txid: txid,
        ephemeral_owner: None,
        epoch_marks: Arc::clone(marks),
    }
}

/// One region's store operations for an epoch: one per path, node
/// writes first, then children-bearing operations, then deletes, each
/// group in first-touch order (the order the replica feed applies them
/// in). Base reads are deferred to apply time, so folds against the
/// stored list stay symbolic.
struct EpochPlan {
    ops: Vec<PlanOp>,
    /// `(before, after)`: op `after` starts only once op `before` has
    /// ended — the two rules of [`Distributor::apply_epoch`].
    edges: Vec<(usize, usize)>,
    /// The region's epoch marks, attached to every record the plan
    /// writes.
    marks: Arc<Vec<u64>>,
}

/// One store operation of an [`EpochPlan`]. A node write's children
/// list is the record's, unless it carries a [`Fold`]: then the apply
/// settles it against the stored list.
enum PlanOp {
    /// A node write no children change touched this epoch.
    Write(NodeRecord, Option<Fold>),
    /// A node write whose children changed this epoch.
    ChildrenWrite(NodeRecord, Option<Fold>),
    /// A children rewrite for a path with no same-epoch node write;
    /// folded into the stored record at apply time.
    Rewrite {
        /// The rewritten parent.
        parent: String,
        /// The epoch's last change of the parent's children.
        fold: Fold,
    },
    /// Delete the node record.
    Delete(String),
}

impl PlanOp {
    fn path(&self) -> &str {
        match self {
            PlanOp::Write(record, _) | PlanOp::ChildrenWrite(record, _) => &record.path,
            PlanOp::Rewrite { parent, .. } => parent,
            PlanOp::Delete(path) => path,
        }
    }
}

impl EpochPlan {
    /// Runs every op through `apply` on `workers` — greedy list
    /// scheduling: the highest-ranked op whose predecessors have all run
    /// goes to the worker that frees first, starting no earlier than the
    /// last of its predecessors ended. A worker runs its ops one after
    /// another, so at most `workers.len()` ops are in flight at any
    /// virtual instant, and ops run on the host in a topological order
    /// of the edges. The critical path goes first: ops another op waits
    /// for (a create whose parent's rewrite lists it), then the other
    /// writes, then children rewrites, then deletes; plan order breaks
    /// ties. The first error stops the schedule. Returns what each op
    /// left on record, aligned with the ops.
    fn run(
        &self,
        workers: &[Ctx],
        apply: impl Fn(&Ctx, &PlanOp) -> CloudResult<Applied>,
    ) -> CloudResult<Vec<Applied>> {
        let n = self.ops.len();
        let mut out: Vec<Applied> = (0..n).map(|_| Applied::default()).collect();
        let mut waiting_on = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(before, after) in &self.edges {
            waiting_on[after] += 1;
            dependents[before].push(after);
        }
        let rank = |op: usize| {
            let class = match &self.ops[op] {
                PlanOp::Delete(_) => 3,
                _ if !dependents[op].is_empty() => 0,
                PlanOp::Write(..) => 1,
                PlanOp::ChildrenWrite(..) | PlanOp::Rewrite { .. } => 2,
            };
            Reverse((class, op))
        };
        let mut ready: BinaryHeap<_> = (0..n).filter(|&op| waiting_on[op] == 0).map(rank).collect();
        let mut ready_at = vec![0u64; n];
        while let Some(Reverse((_, op))) = ready.pop() {
            let worker = workers
                .iter()
                .min_by_key(|worker| worker.now_ns())
                .expect("a plan with ops has workers");
            worker.merge_time_ns(ready_at[op]);
            out[op] = apply(worker, &self.ops[op])?;
            let ended = worker.now_ns();
            for &next in &dependents[op] {
                ready_at[next] = ready_at[next].max(ended);
                waiting_on[next] -= 1;
                if waiting_on[next] == 0 {
                    ready.push(rank(next));
                }
            }
        }
        Ok(out)
    }
}

/// In-memory replay state of one path.
enum Pending {
    Write {
        record: NodeRecord,
        touched: bool,
        fold: Option<Fold>,
    },
    Children(Fold),
    Delete,
}

/// Replays an epoch's effects in order without touching the store into
/// one region's [`EpochPlan`], coalescing to one operation per path
/// (last write wins; a children change merges into the path's pending
/// write, like the sequential leader's `update_children`; the
/// read-modify-write halves run at apply time). A write whose list the
/// plan knows (a create's, or a childless node's) takes later changes
/// here, by the same fold as the apply's ([`settle`], over `logs`).
///
/// The edges come from the children changes: each names the child whose
/// create or delete produced it. If the child's final operation is a
/// delete, the delete waits for the parent's operation; otherwise the
/// child was (re)created and the parent's operation waits for its write.
/// So an edge runs either up, from a child's write to its parent, or
/// down, from a parent to a deleted child; a delete's only outgoing edges
/// run further down into deleted children. A path that has gone down can
/// never come back up, and the edges never form a cycle.
fn build_epoch_plan(
    effects: &[Effect<'_>],
    marks: &Arc<Vec<u64>>,
    logs: &ChildLogs<'_>,
) -> EpochPlan {
    let mut pending: OrderedMap<String, Pending> = OrderedMap::new();
    // `(parent, child)` of every children change.
    let mut rewrites: Vec<(&str, &str)> = Vec::new();
    for effect in effects {
        match *effect {
            Effect::Write { txid, update, data } => {
                let record = record_of(update, txid, data, marks);
                let has_children = matches!(
                    update,
                    UserUpdate::WriteNode {
                        has_children: true,
                        ..
                    }
                );
                // A later write's list supersedes any earlier same-epoch
                // change (it was settled later under the same node
                // lock); it stays a children-bearing write.
                let touched = matches!(
                    pending.get(&record.path),
                    Some(Pending::Write { touched: true, .. }) | Some(Pending::Children(_))
                );
                // The same transaction's earlier changes of this node (a
                // `multi` that creates a child, then writes the parent)
                // may not be in the log yet: the fold takes them from the
                // record.
                let own = match pending.get(&record.path) {
                    Some(Pending::Children(fold))
                    | Some(Pending::Write {
                        fold: Some(fold), ..
                    }) if fold.txid == txid => fold.own.clone(),
                    _ => Vec::new(),
                };
                let fold = has_children.then_some(Fold { txid, own });
                let path = record.path.clone();
                let entry = Pending::Write {
                    record,
                    touched,
                    fold,
                };
                pending.insert(path, entry);
            }
            Effect::Delete { path } => {
                pending.insert(path.to_owned(), Pending::Delete);
            }
            Effect::Children {
                parent,
                txid,
                child,
                added,
            } => {
                rewrites.push((parent, child));
                let name = crate::path::basename(child);
                match pending.get_mut(parent) {
                    Some(Pending::Write {
                        record,
                        touched,
                        fold,
                    }) => {
                        match fold {
                            Some(fold) => fold.push(txid, name, added),
                            None => {
                                let own = [(name.to_owned(), added)];
                                let log = log_of(logs, parent);
                                let from = record.children_txid;
                                let list = settle(&record.children, from, log, txid, &own);
                                record.children = Arc::new(list);
                                record.children_txid = txid;
                            }
                        }
                        record.modified_txid = record.modified_txid.max(txid);
                        record.epoch_marks = Arc::clone(marks);
                        *touched = true;
                    }
                    Some(Pending::Children(fold)) => fold.push(txid, name, added),
                    // A same-epoch delete-then-change (the parent was
                    // re-created in between, on another lane) folds like
                    // a standalone change: the stored record predates the
                    // new incarnation, so the apply writes a stub.
                    Some(Pending::Delete) | None => {
                        let mut fold = Fold::new(txid);
                        fold.push(txid, name, added);
                        pending.insert(parent.to_owned(), Pending::Children(fold));
                    }
                }
            }
        }
    }

    let (mut ops, mut children_ops, mut deletes) = (Vec::new(), Vec::new(), Vec::new());
    for (path, entry) in pending.into_entries() {
        match entry {
            Pending::Write {
                record,
                touched: false,
                fold,
            } => ops.push(PlanOp::Write(record, fold)),
            Pending::Write {
                record,
                touched: true,
                fold,
            } => children_ops.push(PlanOp::ChildrenWrite(record, fold)),
            Pending::Children(fold) => children_ops.push(PlanOp::Rewrite { parent: path, fold }),
            Pending::Delete => deletes.push(PlanOp::Delete(path)),
        }
    }
    ops.extend(children_ops);
    ops.extend(deletes);

    let edges = {
        let index: HashMap<&str, usize> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| (op.path(), i))
            .collect();
        let mut edges: Vec<(usize, usize)> = rewrites
            .into_iter()
            .map(|(parent, child)| {
                let (parent, child) = (index[parent], index[child]);
                match ops[child] {
                    PlanOp::Delete(_) => (parent, child),
                    _ => (child, parent),
                }
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    };
    EpochPlan {
        ops,
        edges,
        marks: Arc::clone(marks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        let c = DistributorConfig::new(8, 32);
        assert_eq!(c.shards, 8);
        assert_eq!(c.max_batch, 32);
        assert_eq!(DistributorConfig::default(), DistributorConfig::new(4, 16));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        DistributorConfig::new(0, 1);
    }

    #[test]
    fn fan_out_joins_virtual_time_at_max_branch() {
        use fk_cloud::latency::LatencyModel;
        use fk_cloud::trace::LatencyMode;
        use fk_cloud::Op;
        let ctx = Ctx::new(Arc::new(LatencyModel::aws()), LatencyMode::Virtual, 7);
        fan_out(&ctx, 4, |job, child| {
            // Branch 0 is the slow one.
            let size = if job == 0 { 256 * 1024 } else { 64 };
            child.charge(Op::ObjPut, size);
            Ok(())
        })
        .unwrap();
        let spans = ctx.take_spans();
        let max_branch = spans.iter().map(|s| s.duration).max().unwrap();
        assert_eq!(ctx.now(), max_branch, "join advances to slowest worker");
        assert_eq!(spans.len(), 4);
    }

    #[test]
    fn fan_out_is_deterministic_across_runs() {
        use fk_cloud::latency::LatencyModel;
        use fk_cloud::trace::LatencyMode;
        use fk_cloud::Op;
        let run = || {
            let ctx = Ctx::new(Arc::new(LatencyModel::aws()), LatencyMode::Virtual, 99);
            fan_out(&ctx, 8, |_, child| {
                child.charge(Op::KvPut, 1024);
                child.charge(Op::ObjGet, 4096);
                Ok(())
            })
            .unwrap();
            ctx.now()
        };
        assert_eq!(run(), run(), "fan-out samples deterministically");
    }

    #[test]
    fn fan_out_surfaces_worker_errors() {
        let ctx = Ctx::disabled();
        let result = fan_out(&ctx, 3, |job, _| {
            if job == 1 {
                Err(fk_cloud::CloudError::ServiceStopped)
            } else {
                Ok(())
            }
        });
        assert!(result.is_err());
    }

    /// Nested creates submitted back-to-back land in one leader batch;
    /// the epoch cut at the parent/child conflict must keep the final
    /// tree intact (the transient-visibility invariant itself is
    /// asserted structurally: every listed child exists once quiescent).
    #[test]
    fn nested_creates_in_one_batch_stay_consistent() {
        use crate::deploy::{Deployment, DeploymentConfig};
        use crate::messages::{ClientRequest, Payload, WriteOp};
        use crate::CreateMode;
        use std::time::Duration;

        let deployment = Deployment::direct(
            DeploymentConfig::aws().with_distributor(DistributorConfig::new(4, 16)),
        );
        let follower = deployment.make_follower();
        let leader = deployment.make_leader_inline();
        let ctx = Ctx::disabled();
        deployment.system().register_session(&ctx, "s", 0).unwrap();
        let _endpoint = deployment.bus().register("s");
        // Three-level chain plus a sibling, all in one queue batch.
        for (rid, path) in ["/a", "/a/b", "/a/b/c", "/a/d"].iter().enumerate() {
            let request = ClientRequest {
                session_id: "s".into(),
                request_id: rid as u64 + 1,
                op: WriteOp::Create {
                    path: (*path).to_owned(),
                    payload: Payload::inline(b"x"),
                    mode: CreateMode::Persistent,
                },
            };
            deployment
                .write_queue()
                .send(&ctx, "s", request.encode())
                .unwrap();
        }
        while let Some(batch) = deployment.write_queue().receive(10, Duration::from_secs(5)) {
            follower.process_messages(&ctx, &batch.messages).unwrap();
            deployment.write_queue().ack(batch.receipt);
        }
        // The whole chain arrives as ONE leader batch.
        let processed = leader.drain_queue(&ctx, deployment.leader_queue()).unwrap();
        assert_eq!(processed, 4, "all creates in a single epoch batch");
        let store = deployment.user_store();
        let a = store.read_node(&ctx, "/a").unwrap().unwrap();
        let mut children = (*a.children).clone();
        children.sort();
        assert_eq!(children, vec!["b".to_owned(), "d".to_owned()]);
        let b = store.read_node(&ctx, "/a/b").unwrap().unwrap();
        assert_eq!(*b.children, vec!["c".to_owned()]);
        assert!(store.read_node(&ctx, "/a/b/c").unwrap().is_some());
        let violations =
            crate::consistency::check_tree_integrity(&ctx, deployment.system(), store.as_ref());
        assert!(violations.is_empty(), "{violations:#?}");
    }

    /// A 2-group direct deployment driven end to end for one session.
    struct Tier {
        deployment: crate::deploy::Deployment,
        follower: crate::follower::Follower,
        leaders: Vec<crate::leader::Leader>,
        ctx: Ctx,
        requests: std::cell::Cell<u64>,
        _endpoint: crossbeam::channel::Receiver<crate::messages::ClientNotification>,
    }

    impl Tier {
        fn new() -> Tier {
            use crate::deploy::{Deployment, DeploymentConfig};
            let deployment = Deployment::direct(DeploymentConfig::aws().with_shard_groups(2));
            let ctx = Ctx::disabled();
            deployment.system().register_session(&ctx, "s", 0).unwrap();
            Tier {
                follower: deployment.make_follower(),
                leaders: (0..2).map(|_| deployment.make_leader_inline()).collect(),
                _endpoint: deployment.bus().register("s").0,
                requests: std::cell::Cell::new(0),
                ctx,
                deployment,
            }
        }

        /// Runs `ops` through the follower: committed and pushed.
        fn submit(&self, ops: Vec<crate::messages::WriteOp>) {
            use std::time::Duration;
            for op in ops {
                self.requests.set(self.requests.get() + 1);
                let request = crate::messages::ClientRequest {
                    session_id: "s".into(),
                    request_id: self.requests.get(),
                    op,
                };
                let queue = self.deployment.write_queue();
                queue.send(&self.ctx, "s", request.encode()).unwrap();
            }
            let queue = self.deployment.write_queue();
            while let Some(batch) = queue.receive(10, Duration::from_secs(5)) {
                self.follower
                    .process_messages(&self.ctx, &batch.messages)
                    .unwrap();
                queue.ack(batch.receipt);
            }
        }

        /// Runs `ops` end to end, one leader batch per lane.
        fn commit(&self, ops: Vec<crate::messages::WriteOp>) {
            self.submit(ops);
            for (group, leader) in self.leaders.iter().enumerate() {
                let lane = self.deployment.leader_queues().queue(group);
                while lane.pending() > 0 {
                    leader.drain_queue(&self.ctx, lane).unwrap();
                }
            }
        }

        /// Runs `ops` through the follower, then hands the one lane they
        /// went to over to its leader as one batch. Returns the plan
        /// that batch distributes as one epoch.
        fn one_batch(&self, ops: Vec<crate::messages::WriteOp>) -> EpochPlan {
            use std::time::Duration;
            self.submit(ops);
            let lanes = self.deployment.leader_queues();
            let mut busy = (0..2).filter(|&group| lanes.queue(group).pending() > 0);
            let group = busy.next().expect("a lane got the records");
            assert!(busy.next().is_none(), "one lane got them all");
            let lane = lanes.queue(group);
            let batch = lane.receive_up_to(16, Duration::from_secs(5)).unwrap();
            let records: Vec<LeaderRecord> = batch
                .messages
                .iter()
                .map(|message| LeaderRecord::decode(&message.body).unwrap())
                .collect();
            let outcome = self.leaders[group].process_messages(&self.ctx, &batch.messages);
            assert!(outcome.is_ok(), "{outcome:?}");
            lane.ack(batch.receipt);
            plan_of(&records)
        }

        fn assert_integrity(&self) {
            let violations = crate::consistency::check_tree_integrity(
                &self.ctx,
                self.deployment.system(),
                self.deployment.user_store().as_ref(),
            );
            assert!(violations.is_empty(), "{violations:#?}");
        }

        fn children_of(&self, path: &str) -> Vec<String> {
            let store = self.deployment.user_store();
            let record = store.read_node(&self.ctx, path).unwrap().unwrap();
            (*record.children).clone()
        }
    }

    /// The plan of `records` as one epoch (payloads left empty).
    fn plan_of(records: &[LeaderRecord]) -> EpochPlan {
        let items: Vec<CommittedTx<'_>> = records
            .iter()
            .map(|record| CommittedTx {
                msg_index: 0,
                txid: record.txid,
                record,
                data: vec![Bytes::new(); record.ops.len()],
                ahead: false,
                tags: ObjTags::default(),
            })
            .collect();
        let effects: Vec<Effect<'_>> = items.iter().flat_map(effects_of).collect();
        build_epoch_plan(&effects, &Arc::default(), &ChildLogs::new())
    }

    /// `kind path` of every op in plan order, and every edge as
    /// `before -> after` by path.
    fn shape(plan: &EpochPlan) -> (Vec<String>, Vec<String>) {
        let ops = plan.ops.iter().map(|op| {
            let kind = match op {
                PlanOp::Write(..) => "write",
                PlanOp::ChildrenWrite(..) => "children-write",
                PlanOp::Rewrite { .. } => "rewrite",
                PlanOp::Delete(_) => "delete",
            };
            format!("{kind} {}", op.path())
        });
        let edges = plan.edges.iter().map(|&(before, after)| {
            let path = |op: usize| plan.ops[op].path();
            format!("{} -> {}", path(before), path(after))
        });
        (ops.collect(), edges.collect())
    }

    fn create(path: &str) -> crate::messages::WriteOp {
        crate::messages::WriteOp::Create {
            path: path.into(),
            payload: crate::messages::Payload::inline(b"x"),
            mode: crate::CreateMode::Persistent,
        }
    }

    fn multi_create(path: &str) -> crate::messages::MultiOp {
        crate::messages::MultiOp::Create {
            path: path.into(),
            payload: crate::messages::Payload::inline(b"x"),
            mode: crate::CreateMode::Persistent,
        }
    }

    /// A create and a delete of one path in one epoch: the path's one op
    /// is the delete, and both children rewrites the pair caused give the
    /// same edge — the delete after the parent's rewrite — so the create's
    /// edge cannot close a cycle with the delete's.
    #[test]
    fn create_then_delete_of_one_path_in_one_epoch_deletes_after_the_rewrite() {
        let tier = Tier::new();
        tier.commit(vec![create("/g")]);
        let delete = crate::messages::WriteOp::Delete {
            path: "/g/x".into(),
            expected_version: -1,
        };
        let plan = tier.one_batch(vec![create("/g/x"), delete]);
        let (ops, edges) = shape(&plan);
        assert_eq!(ops, ["rewrite /g", "delete /g/x"]);
        assert_eq!(edges, ["/g -> /g/x"]);
        assert!(tier.children_of("/g").is_empty());
        let store = tier.deployment.user_store();
        assert!(store.read_node(&tier.ctx, "/g/x").unwrap().is_none());
        tier.assert_integrity();
    }

    /// A delete followed by a children change of the same path in one
    /// epoch (the path was re-created in between, on another lane) is a
    /// rewrite in place of the delete, which waits for the child it
    /// lists. The stored record predates the new incarnation, so the
    /// apply writes a stub, and the other lane's create of the path
    /// then merges into it.
    #[test]
    fn delete_then_rewrite_of_one_path_becomes_a_stub_after_its_child() {
        use crate::messages::{MultiSub, OpOutcome, Payload, SystemCommit};
        use crate::system_store::ChildLog;
        let tier = Tier::new();
        tier.commit(vec![create("/p"), create("/p/c")]);
        // Past every txid the tier allocated, so the merges keep them.
        let txid = 1 << 40;
        let record = |txid: u64, path: &str, user_update: UserUpdate| {
            let is_delete = matches!(user_update, UserUpdate::DeleteNode { .. });
            let outcome = if is_delete {
                OpOutcome::Deleted { path: path.into() }
            } else {
                OpOutcome::Created {
                    path: path.into(),
                    stat: Default::default(),
                }
            };
            LeaderRecord {
                session_id: "s".into(),
                request_id: 0,
                txid,
                prev_txid: 0,
                commit: SystemCommit::default(),
                deregister_session: false,
                ops: vec![MultiSub {
                    path: path.into(),
                    user_update,
                    fires: vec![],
                    is_delete,
                    outcome,
                }],
            }
        };
        let created = |path: &str| UserUpdate::WriteNode {
            path: path.into(),
            payload: Payload::inline(b"y"),
            created_txid: 0,
            version: 0,
            has_children: false,
            ephemeral_owner: None,
            joins_parent: true,
        };
        let lane = [
            record(txid, "/p", UserUpdate::DeleteNode { path: "/p".into() }),
            record(txid + 2, "/p/c", created("/p/c")),
        ];
        let plan = plan_of(&lane);
        let (ops, edges) = shape(&plan);
        assert_eq!(ops, ["write /p/c", "rewrite /p", "rewrite /"]);
        assert_eq!(edges, ["/p/c -> /p", "/p -> /"]);

        let distributor = Distributor::new(
            tier.deployment.system().clone(),
            tier.deployment.user_stores().to_vec(),
            DistributorConfig::new(3, 16).with_groups(2),
        );
        let apply = |records: &[LeaderRecord]| {
            let items: Vec<CommittedTx<'_>> = records
                .iter()
                .map(|record| CommittedTx {
                    msg_index: 0,
                    txid: record.txid,
                    record,
                    data: vec![Bytes::from_static(b"y")],
                    ahead: false,
                    tags: ObjTags::default(),
                })
                .collect();
            let marks = distributor.epoch_marks(&tier.ctx);
            // The re-created `/p`, as the read wave would find it.
            let log = ChildLog {
                created: txid + 1,
                exists: true,
                entries: Vec::new(),
            };
            let logs = ChildLogs::from([("/p", log)]);
            distributor
                .apply_epoch(&tier.ctx, &items, &marks, &logs)
                .unwrap();
        };
        apply(&lane);
        assert_eq!(tier.children_of("/p"), ["c"]);
        let store = tier.deployment.user_store();
        let stub = store.read_node(&tier.ctx, "/p").unwrap().unwrap();
        assert_eq!((stub.created_txid, stub.data.len()), (0, 0), "a stub");
        // The other lane's re-create of `/p` keeps the stub's list.
        apply(&[record(txid + 1, "/p", created("/p"))]);
        let recreated = store.read_node(&tier.ctx, "/p").unwrap().unwrap();
        assert_eq!(recreated.created_txid, txid + 1);
        assert_eq!(*recreated.children, ["c"]);
        tier.assert_integrity();
    }

    /// A `multi` creating a node and a child under it is alone in its
    /// epoch; its plan is a chain — the root's rewrite waits for the
    /// node's children-bearing write, which waits for the child's write.
    #[test]
    fn internal_conflict_multi_alone_in_its_epoch_runs_as_a_chain() {
        let tier = Tier::new();
        let multi = crate::messages::WriteOp::Multi {
            ops: vec![multi_create("/m"), multi_create("/m/c")],
        };
        let plan = tier.one_batch(vec![multi]);
        let (ops, edges) = shape(&plan);
        assert_eq!(ops, ["write /m/c", "children-write /m", "rewrite /"]);
        assert_eq!(edges, ["/m/c -> /m", "/m -> /"]);
        assert_eq!(tier.children_of("/m"), ["c"]);
        assert_eq!(tier.children_of("/"), ["m"]);
        tier.assert_integrity();
    }

    /// Every record the follower pushed to either lane, in txid order;
    /// the lanes are left empty.
    fn pushed_records(tier: &Tier) -> Vec<LeaderRecord> {
        use std::time::Duration;
        let mut records = Vec::new();
        for group in 0..2 {
            let lane = tier.deployment.leader_queues().queue(group);
            while let Some(batch) = lane.receive_up_to(16, Duration::from_millis(10)) {
                let decoded = batch.messages.iter().map(|m| LeaderRecord::decode(&m.body));
                records.extend(decoded.map(Option::unwrap));
                lane.ack(batch.receipt);
            }
        }
        records.sort_by_key(|record| record.txid);
        records
    }

    /// Distributes `record` alone as one epoch through `distributor`,
    /// with the node tags and children logs a leader's read wave would
    /// find in system storage now; pops it too if `finalize`.
    fn deliver(tier: &Tier, distributor: &Distributor, record: &LeaderRecord, finalize: bool) {
        use crate::messages::Payload;
        use crate::system_store::ChildLog;
        let (ctx, system) = (&tier.ctx, tier.deployment.system());
        let data = record.ops.iter().map(|sub| match &sub.user_update {
            UserUpdate::WriteNode {
                payload: Payload::Inline { data },
                ..
            } => data.clone(),
            _ => Bytes::new(),
        });
        let item = CommittedTx {
            msg_index: 0,
            txid: record.txid,
            record,
            data: data.collect(),
            ahead: false,
            tags: ObjTags::of(system.get_node(ctx, record.path()).as_ref()),
        };
        let items = std::slice::from_ref(&item);
        let parents = record
            .ops
            .iter()
            .filter_map(|sub| sub.user_update.child_delta());
        let paths = record.ops.iter().map(|sub| sub.path.as_str());
        let paths = paths.chain(parents.map(|(parent, _, _)| parent));
        let logs: ChildLogs<'_> = paths
            .map(|path| (path, ChildLog::of(system.get_node(ctx, path).as_ref())))
            .collect();
        let marks = distributor.epoch_marks(ctx);
        let applied = distributor.apply_epoch(ctx, items, &marks, &logs).unwrap();
        if finalize {
            let tags = &applied.tags;
            distributor.finalize_epoch(ctx, items, tags, &logs).unwrap();
        }
    }

    /// A children change crosses lanes: the creates of one parent's
    /// children route by the children's paths, so they commit on the
    /// parent in txid order but may distribute in any order.
    ///
    /// * Three creates under `/p`, `a` < `b` < `c` in txid order, `b` on
    ///   the other lane than `a` and `c`. `b` distributes first: the
    ///   list stored at `b`'s txid holds exactly `a` and `b` (the fold of
    ///   the pending log stops below `b`), and `b`'s pop leaves only
    ///   `c`'s entry.
    /// * `a`'s later delivery changes neither the stored record nor
    ///   `/p`'s item: its pop is a no-op.
    /// * `c` delivered twice between its apply and its pop stores the
    ///   same bytes, and the pop empties the log.
    /// * `/q` is deleted and re-created while its old incarnation's
    ///   children changes wait undistributed. The new incarnation's
    ///   first change, distributed before them (and before `/q`'s own
    ///   re-create), ignores their entries and its pop clears them;
    ///   their late deliveries change nothing.
    /// * `/r` is deleted and purged before its child's delete
    ///   distributes, taking that delete's entry: its pop leaves `/r`
    ///   alone.
    #[test]
    fn cross_lane_children_fold() {
        let tier = Tier::new();
        let distributor = Distributor::new(
            tier.deployment.system().clone(),
            tier.deployment.user_stores().to_vec(),
            DistributorConfig::new(3, 16).with_groups(2),
        );
        let ctx = &tier.ctx;
        let system = tier.deployment.system();
        let store = tier.deployment.user_store();
        let frame = |path: &str| {
            let record = store.read_node(ctx, path).unwrap().unwrap();
            crate::codec::encode_node(&record)
        };
        let log =
            |path: &str| crate::system_store::ChildLog::of(system.get_node(ctx, path).as_ref());
        let sorted = |path: &str| {
            let mut children = tier.children_of(path);
            children.sort();
            children
        };
        tier.commit(vec![create("/p")]);
        tier.commit(vec![create("/q")]);
        tier.commit(vec![create("/r")]);
        tier.commit(vec![create("/r/z")]);

        // `a` and `c` on one lane, `b` on the other.
        let lane = |name: &str| fk_cloud::queue::group_of(&format!("/p/{name}"), 2);
        let names: Vec<String> = (0..64).map(|i| format!("n{i}")).collect();
        let a = &names[0];
        let b = names.iter().find(|n| lane(n) != lane(a)).unwrap();
        let c = names[1..].iter().find(|n| lane(n) == lane(a)).unwrap();
        tier.submit([a, b, c].map(|name| create(&format!("/p/{name}"))).to_vec());
        let [ra, rb, rc] = <[LeaderRecord; 3]>::try_from(pushed_records(&tier)).unwrap();
        assert!(ra.txid < rb.txid && rb.txid < rc.txid);

        deliver(&tier, &distributor, &rb, true);
        let stored = store.read_node(ctx, "/p").unwrap().unwrap();
        assert_eq!(stored.children_txid, rb.txid);
        assert_eq!(sorted("/p"), [a.clone(), b.clone()]);
        let left: Vec<(u64, String)> = log("/p")
            .entries
            .into_iter()
            .map(|e| (e.txid, e.name))
            .collect();
        assert_eq!(
            left,
            [(rc.txid, c.clone())],
            "b's pop removed a's entry and its own"
        );

        let (before, item) = (frame("/p"), system.get_node(ctx, "/p"));
        deliver(&tier, &distributor, &ra, true);
        assert_eq!(frame("/p"), before, "the earlier record's late delivery");
        assert_eq!(system.get_node(ctx, "/p"), item, "its pop is a no-op");

        deliver(&tier, &distributor, &rc, false);
        let applied = frame("/p");
        deliver(&tier, &distributor, &rc, true);
        assert_eq!(frame("/p"), applied, "a redelivery before the pop");
        assert_eq!(sorted("/p"), [a.clone(), b.clone(), c.clone()]);
        assert!(log("/p").entries.is_empty(), "the pop emptied the log");

        // `/q`'s old incarnation gains and loses `x`; the new one gains `y`.
        let delete = |path: &str| crate::messages::WriteOp::Delete {
            path: path.into(),
            expected_version: -1,
        };
        tier.submit(vec![
            create("/q/x"),
            delete("/q/x"),
            delete("/q"),
            create("/q"),
            create("/q/y"),
        ]);
        let [x, unx, unq, q, y] = <[LeaderRecord; 5]>::try_from(pushed_records(&tier)).unwrap();
        assert_eq!(log("/q").entries.len(), 3, "+x, -x, +y pending");
        deliver(&tier, &distributor, &unq, true);
        deliver(&tier, &distributor, &y, true);
        assert_eq!(tier.children_of("/q"), ["y"]);
        assert!(
            log("/q").entries.is_empty(),
            "y's pop cleared the old entries"
        );
        deliver(&tier, &distributor, &q, true);
        let (before, item) = (frame("/q"), system.get_node(ctx, "/q"));
        deliver(&tier, &distributor, &x, true);
        deliver(&tier, &distributor, &unx, true);
        assert_eq!(frame("/q"), before, "the old incarnation's late changes");
        assert_eq!(system.get_node(ctx, "/q"), item);
        assert_eq!(tier.children_of("/q"), ["y"]);

        tier.submit(vec![delete("/r/z"), delete("/r")]);
        let [unz, unr] = <[LeaderRecord; 2]>::try_from(pushed_records(&tier)).unwrap();
        deliver(&tier, &distributor, &unr, true);
        assert!(system.get_node(ctx, "/r").is_none(), "purged");
        deliver(&tier, &distributor, &unz, true);
        assert!(system.get_node(ctx, "/r").is_none(), "not recreated");
        tier.assert_integrity();
    }
}
