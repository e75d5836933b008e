//! The distributor: sharded, epoch-batched application of committed
//! transactions to the replicated user stores.
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
//! 2. **Path sharding** — the effects of an epoch (node writes, deletes,
//!    parent children-list rewrites) are partitioned by a stable
//!    path-hash ([`shard_of`]). All effects on one path land in one
//!    shard, so per-key apply order is preserved while distinct shards
//!    proceed independently.
//! 3. **Parallel fan-out** — one worker per (replica region × shard)
//!    applies its shard's effects through the batched store interface
//!    ([`UserStore::write_batch`] / [`UserStore::delete_batch`]),
//!    coalescing repeated writes to the same path into the final state.
//!    Workers run on forked virtual-time contexts joined at the
//!    slowest, so simulated latency reflects the parallelism; on the
//!    host they run back to back (`fan_out`).
//! 4. **Ordered finalization** — a single epoch-counter bump per region
//!    publishes all watch ids fired by the epoch before any later
//!    transaction commits (Z4), client notifications go out in txid
//!    order (Z2), and the per-node pending queues are popped in
//!    chunked ≤ 25-item transactions with per-item head guards
//!    ([`crate::commit::pop_pending_batch`]).
//!
//! The formal serverless model of Gabbrielli et al. ("No more, no less")
//! licenses exactly this transformation: fan-out is unobservable as long
//! as per-key ordering and the epoch guarantees survive, which the Z1–Z4
//! property tests (`tests/consistency_properties.rs`) check end to end.

use crate::messages::{LeaderRecord, UserUpdate};
use crate::system_store::SystemStore;
use crate::user_store::{NodeRecord, UserStore};
use bytes::Bytes;
use fk_cloud::retry::{with_retry, RetryPolicy};
use fk_cloud::trace::Ctx;
use fk_cloud::{CloudResult, Meter, Region};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::Arc;

pub use fk_cloud::queue::{shard_of, AdaptiveBatch};

/// Configuration of the leader's distribution pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistributorConfig {
    /// Number of path shards fanned out in parallel per region.
    pub shards: usize,
    /// Maximum transactions drained from the leader queue per batch.
    pub max_batch: usize,
    /// Lower bound of the epoch batch window. When `min_batch <
    /// max_batch` the leader adapts its drain window between epochs from
    /// observed queue depth ([`AdaptiveBatch`]); `min_batch == max_batch`
    /// (the default) keeps the window static.
    pub min_batch: usize,
    /// Width of the leader tier: the number of shard groups, each with
    /// its own FIFO queue and its own leader function instance. `1` (the
    /// default) is the paper's single-leader deployment. With more than
    /// one group the distributor switches to the cross-group-safe apply
    /// path (children-list merging by `children_txid`).
    pub groups: usize,
}

impl Default for DistributorConfig {
    fn default() -> Self {
        DistributorConfig {
            shards: 4,
            max_batch: 16,
            min_batch: 16,
            groups: 1,
        }
    }
}

impl DistributorConfig {
    /// A pipeline with explicit shard count and (static) batch size.
    pub fn new(shards: usize, max_batch: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(max_batch > 0, "at least one transaction per batch");
        DistributorConfig {
            shards,
            max_batch,
            min_batch: max_batch,
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

    /// The pre-distributor behaviour: one transaction at a time through a
    /// single worker. Used as the baseline in `distributor_path` benches.
    pub fn sequential() -> Self {
        Self::new(1, 1)
    }

    /// Builder: adapt the epoch batch window between `min_batch` and
    /// `max_batch` from observed queue depth.
    pub fn with_adaptive_batch(mut self, min_batch: usize) -> Self {
        assert!(min_batch > 0, "at least one transaction per batch");
        assert!(
            min_batch <= self.max_batch,
            "adaptive floor above the batch cap"
        );
        self.min_batch = min_batch;
        self
    }

    /// True if the leader should adapt its batch window.
    pub fn is_adaptive(&self) -> bool {
        self.min_batch < self.max_batch
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
    /// Payload bytes (inline, or fetched from staging).
    pub data: Bytes,
    /// Per-sub payload bytes of a multi record, aligned with
    /// `record.ops` (empty for single-op records).
    pub multi_data: Vec<Bytes>,
    /// Distributed from *behind* a held record of its queue batch (the
    /// leader's skip-ahead): earlier records of the lane are still
    /// undistributed, so the txid must not count toward the group's
    /// high-water mark yet. [`Distributor::feed_high_water`] publishes
    /// it once the record's message is acknowledged in a prefix.
    pub ahead: bool,
}

/// One storage effect of a transaction, keyed by the path it touches.
///
/// Children lists are lifted into `Arc`s **once per epoch** when the
/// effect is built; every (region × shard) worker that materializes a
/// record from the effect then shares the list (and the `Bytes` payload)
/// instead of deep-copying it per fork — the clone-free half of the
/// fan-out's I/O diet.
enum Effect<'a> {
    /// Write (create or replace) the node record.
    Write {
        txid: u64,
        update: &'a UserUpdate,
        data: &'a Bytes,
        /// The record's children snapshot, shared across all workers.
        children: Arc<Vec<String>>,
    },
    /// Delete the node record.
    Delete { path: &'a str },
    /// Rewrite a parent's children list, preserving the rest of its
    /// record (the read-modify-write of `update_children` in the
    /// sequential leader).
    Children {
        parent: &'a str,
        children: Arc<Vec<String>>,
        txid: u64,
    },
}

impl Effect<'_> {
    fn path(&self) -> &str {
        match self {
            Effect::Write { update, .. } => match update {
                UserUpdate::WriteNode { path, .. } => path,
                _ => unreachable!("write effect is only built for WriteNode"),
            },
            Effect::Delete { path } => path,
            Effect::Children { parent, .. } => parent,
        }
    }
}

/// Final state of one path after replaying an epoch's effects.
enum PendingOp {
    Write(NodeRecord),
    Delete,
}

/// Insertion-ordered key→value map: the coalescing primitive behind the
/// shard replay and the finalize bookkeeping (first touch fixes the
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

/// Striped per-path mutexes shared by every leader instance of one
/// deployment. In multi-group mode two shard-group leaders can
/// read-modify-write the *same* node record concurrently (a parent's
/// children list is rewritten by its children's creates and deletes,
/// which live on the children's shard groups); the stripe makes each
/// RMW atomic. It stands in for the conditional-write / ETag retry loop
/// a real multi-leader deployment would run against DynamoDB or S3 —
/// storage charges are identical, only the interleaving is bounded.
pub struct PathLockSet {
    stripes: Vec<parking_lot::Mutex<()>>,
}

impl PathLockSet {
    /// Creates a 64-stripe lock set.
    pub fn new() -> Self {
        PathLockSet {
            stripes: (0..64).map(|_| parking_lot::Mutex::new(())).collect(),
        }
    }

    fn lock(&self, path: &str) -> parking_lot::MutexGuard<'_, ()> {
        self.stripes[shard_of(path, self.stripes.len())].lock()
    }
}

impl Default for PathLockSet {
    fn default() -> Self {
        Self::new()
    }
}

/// The sharded fan-out stage of the leader (see module docs).
pub struct Distributor {
    system: SystemStore,
    user_stores: Vec<Arc<dyn UserStore>>,
    regions: Vec<Region>,
    config: DistributorConfig,
    locks: Arc<PathLockSet>,
    /// The regional read-replica tier, when deployed: one more
    /// subscriber of the epoch fan-out, fed strictly *after* the
    /// storage waves so a replica can never get ahead of its region's
    /// user store ([`crate::replica`] module docs).
    replicas: Option<crate::replica::ReplicaSet>,
}

impl Distributor {
    /// Creates a distributor over one user-store replica per region with
    /// its own lock set (single-leader deployments never contend on it).
    pub fn new(
        system: SystemStore,
        user_stores: Vec<Arc<dyn UserStore>>,
        config: DistributorConfig,
    ) -> Self {
        Self::with_shared(system, user_stores, config, Arc::new(PathLockSet::new()))
    }

    /// Creates a distributor sharing `locks` with the deployment's other
    /// leader instances (required when `config.groups > 1`).
    pub fn with_shared(
        system: SystemStore,
        user_stores: Vec<Arc<dyn UserStore>>,
        config: DistributorConfig,
        locks: Arc<PathLockSet>,
    ) -> Self {
        let regions = user_stores.iter().map(|s| s.region()).collect();
        Distributor {
            system,
            user_stores,
            regions,
            config,
            locks,
            replicas: None,
        }
    }

    /// Subscribes a read-replica tier to this distributor's committed
    /// epoch stream. Every applied epoch is folded into one
    /// [`crate::replica::EpochDelta`] per region and fed to that
    /// region's replicas after the storage waves complete.
    pub fn attach_replicas(&mut self, replicas: crate::replica::ReplicaSet) {
        if !replicas.is_empty() {
            self.replicas = Some(replicas);
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &DistributorConfig {
        &self.config
    }

    /// The meter retries are reported to (the deployment-shared meter
    /// behind the system table).
    fn meter(&self) -> &Meter {
        self.system.kv().meter()
    }

    /// The replica regions, aligned with the user stores.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Cuts a consistent checkpoint of the primary region's user-store
    /// tree into `staging` ([`crate::transfer::cut_checkpoint`]): the
    /// transfer coordinates — committed floors and per-region feed
    /// sequences — are recorded before the walk, so every epoch at or
    /// below them is fully visible in storage (this distributor feeds
    /// replicas strictly after an epoch's storage waves).
    pub fn cut_checkpoint(
        &self,
        ctx: &Ctx,
        id: u64,
        staging: &fk_cloud::objectstore::ObjectStore,
        floors: &crate::replica::CommittedFloors,
    ) -> CloudResult<crate::transfer::CheckpointManifest> {
        let detached;
        let replicas = match &self.replicas {
            Some(tier) => tier,
            None => {
                detached = crate::replica::ReplicaSet::default();
                &detached
            }
        };
        crate::transfer::cut_checkpoint(
            ctx,
            id,
            &self.user_stores[0],
            staging,
            self.meter(),
            floors,
            replicas,
            self.regions.len(),
        )
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

    /// Applies one epoch of committed transactions to every replica:
    /// partitions the effects by path shard and fans one worker out per
    /// (region × shard). `marks` holds each region's epoch marks
    /// ([`Distributor::epoch_marks`]), read once per epoch by the
    /// caller: within an epoch no watch fires, so the marks attached to
    /// every write are the same set the sequential leader would have
    /// read per transaction.
    ///
    /// Cross-shard visibility order is preserved by applying in three
    /// barrier-separated waves, matching what an observer could see under
    /// the sequential leader: ➀ independent node writes, ➁ writes whose
    /// children list was rewritten (a parent never lists a child before
    /// the child's record exists), ➂ deletes (a node never disappears
    /// before its parent stops listing it).
    pub fn apply_epoch(
        &self,
        ctx: &Ctx,
        items: &[CommittedTx<'_>],
        marks: &[Arc<Vec<u64>>],
    ) -> CloudResult<()> {
        if items.is_empty() {
            return Ok(());
        }
        let shards = self.config.shards.max(1);
        let mut per_shard: Vec<Vec<Effect<'_>>> = (0..shards).map(|_| Vec::new()).collect();
        for tx in items {
            for effect in effects_of(tx) {
                let shard = shard_of(effect.path(), shards);
                per_shard[shard].push(effect);
            }
        }

        // One job per (region, non-empty shard).
        let mut jobs: Vec<(usize, usize)> = Vec::new();
        for region_idx in 0..self.user_stores.len() {
            for (shard_idx, effects) in per_shard.iter().enumerate() {
                if !effects.is_empty() {
                    jobs.push((region_idx, shard_idx));
                }
            }
        }

        // With a multi-leader tier, another shard group may concurrently
        // touch the same parent records; switch to the merge-safe apply.
        if self.config.groups > 1 {
            self.apply_epoch_multi(ctx, marks, &per_shard, &jobs)?;
            self.feed_replicas(ctx, items, marks);
            return Ok(());
        }

        // Wave ➀: replay each shard's effects into its final per-path
        // plan (including the read-modify-write base reads), then flush
        // the independent node writes. Jobs run inline on the calling
        // thread (`fan_out`), so each plan lands in a plain cell.
        let plans: Vec<OnceCell<ShardPlan>> = jobs.iter().map(|_| OnceCell::new()).collect();
        fan_out(ctx, jobs.len(), |job, child| {
            let (region_idx, shard_idx) = jobs[job];
            let store = self.user_stores[region_idx].as_ref();
            let plan = build_shard_plan(
                child,
                store,
                self.meter(),
                &per_shard[shard_idx],
                &marks[region_idx],
            )?;
            if !plan.node_writes.is_empty() {
                // Whole-record replaces: a retried batch rewrites the
                // same final state, so transient store errors are
                // absorbed per (region × shard) worker.
                with_retry(
                    child,
                    self.meter(),
                    &RetryPolicy::standard(),
                    "dist.write",
                    || store.write_batch(child, &plan.node_writes),
                )?;
            }
            let _ = plans[job].set(plan);
            Ok(())
        })?;

        // Waves ➁ and ➂ fan out only the jobs that actually have work —
        // an epoch where one shard rewrote a parent must not spawn idle
        // workers for every other (region × shard) pair.
        let with_work = |f: fn(&ShardPlan) -> bool| -> Vec<usize> {
            (0..jobs.len())
                .filter(|&job| plans[job].get().is_some_and(f))
                .collect()
        };

        // Wave ➁: children-bearing writes (parents and other records
        // touched by a children-list rewrite).
        let wave2 = with_work(|plan| !plan.children_writes.is_empty());
        fan_out(ctx, wave2.len(), |i, child| {
            let job = wave2[i];
            let (region_idx, _) = jobs[job];
            let plan = plans[job].get().expect("plan built in wave 1");
            with_retry(
                child,
                self.meter(),
                &RetryPolicy::standard(),
                "dist.write",
                || {
                    self.user_stores[region_idx]
                        .as_ref()
                        .write_batch(child, &plan.children_writes)
                },
            )
        })?;

        // Wave ➂: deletes.
        let wave3 = with_work(|plan| !plan.deletes.is_empty());
        fan_out(ctx, wave3.len(), |i, child| {
            let job = wave3[i];
            let (region_idx, _) = jobs[job];
            let plan = plans[job].get().expect("plan built in wave 1");
            with_retry(
                child,
                self.meter(),
                &RetryPolicy::standard(),
                "dist.delete",
                || {
                    self.user_stores[region_idx]
                        .as_ref()
                        .delete_batch(child, &plan.deletes)
                },
            )
        })?;
        self.feed_replicas(ctx, items, marks);
        Ok(())
    }

    /// Folds the epoch into one [`crate::replica::EpochDelta`] per
    /// region and feeds it to the attached replica tier. Runs after the
    /// storage waves in both apply paths, so the replicas strictly
    /// follow storage. The fold reuses [`build_shard_plan_multi`] (the
    /// store-free replay): per-path final writes are encoded once per
    /// region and shared (`Bytes`) across that region's replicas;
    /// standalone children rewrites stay symbolic and patch resident
    /// entries in place on the replica side. No storage reads, no kv
    /// traffic — purely in-memory work on the feeding invocation.
    fn feed_replicas(&self, ctx: &Ctx, items: &[CommittedTx<'_>], marks: &[Arc<Vec<u64>>]) {
        use crate::replica::{EpochDelta, ReplicaOp};
        let Some(replicas) = &self.replicas else {
            return;
        };
        let effects: Vec<Effect<'_>> = items.iter().flat_map(effects_of).collect();

        // Records applied ahead of a held one stay out: the replicas'
        // applied floor is a statement about a lane's *prefix*.
        let high_water =
            self.group_high_water(items.iter().filter(|tx| !tx.ahead).map(|tx| tx.txid));

        for (region_idx, region_marks) in marks.iter().enumerate() {
            let plan = build_shard_plan_multi(&effects, region_marks);
            let mut ops = Vec::with_capacity(
                plan.node_writes.len() + plan.children_ops.len() + plan.deletes.len(),
            );
            for record in &plan.node_writes {
                ops.push(ReplicaOp::Write {
                    path: record.path.clone(),
                    frame: crate::codec::encode_node(record),
                });
            }
            for op in &plan.children_ops {
                match op {
                    ChildrenOp::Write(record) => ops.push(ReplicaOp::Write {
                        path: record.path.clone(),
                        frame: crate::codec::encode_node(record),
                    }),
                    ChildrenOp::Rewrite {
                        parent,
                        children,
                        txid,
                    } => ops.push(ReplicaOp::Children {
                        parent: parent.clone(),
                        children: Arc::clone(children),
                        txid: *txid,
                    }),
                }
            }
            for path in &plan.deletes {
                ops.push(ReplicaOp::Delete { path: path.clone() });
            }
            let delta = EpochDelta {
                ops: Arc::new(ops),
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

    /// The merge-safe apply used when the leader tier has more than one
    /// shard group. Per-path *node-write* order is still total (a path's
    /// transactions all route to one group), but a parent's children
    /// list is rewritten from its children's groups, so plain last-write-
    /// wins would let a stale list clobber a newer one. Every store write
    /// therefore becomes a read-merge-write under the shared
    /// [`PathLockSet`] stripe: children lists are kept from whichever
    /// side carries the larger `children_txid` (lists grow cumulatively
    /// under the parent's follower lock, so the larger txid is the
    /// current truth), and `modified_txid` never regresses. The same
    /// three waves as the single-group path preserve the intra-epoch
    /// parent/child visibility order.
    fn apply_epoch_multi(
        &self,
        ctx: &Ctx,
        marks: &[Arc<Vec<u64>>],
        per_shard: &[Vec<Effect<'_>>],
        jobs: &[(usize, usize)],
    ) -> CloudResult<()> {
        let plans: Vec<OnceCell<MultiShardPlan>> = jobs.iter().map(|_| OnceCell::new()).collect();

        // Wave ➀: replay into per-path final ops (no base reads — they
        // happen per write, under the stripe), then flush untouched node
        // writes.
        fan_out(ctx, jobs.len(), |job, child| {
            let (region_idx, shard_idx) = jobs[job];
            let store = self.user_stores[region_idx].as_ref();
            let plan = build_shard_plan_multi(&per_shard[shard_idx], &marks[region_idx]);
            for record in &plan.node_writes {
                self.write_merged(child, store, record)?;
            }
            let _ = plans[job].set(plan);
            Ok(())
        })?;

        let with_work = |f: fn(&MultiShardPlan) -> bool| -> Vec<usize> {
            (0..jobs.len())
                .filter(|&job| plans[job].get().is_some_and(f))
                .collect()
        };

        // Wave ➁: children-bearing writes and standalone rewrites.
        let wave2 = with_work(|plan| !plan.children_ops.is_empty());
        fan_out(ctx, wave2.len(), |i, child| {
            let job = wave2[i];
            let (region_idx, _) = jobs[job];
            let store = self.user_stores[region_idx].as_ref();
            let plan = plans[job].get().expect("plan built in wave 1");
            for op in &plan.children_ops {
                match op {
                    ChildrenOp::Write(record) => self.write_merged(child, store, record)?,
                    ChildrenOp::Rewrite {
                        parent,
                        children,
                        txid,
                    } => self.rewrite_children(
                        child,
                        store,
                        parent,
                        children,
                        *txid,
                        &marks[region_idx],
                    )?,
                }
            }
            Ok(())
        })?;

        // Wave ➂: deletes (under the stripe so a racing children rewrite
        // from another group observes either the record or its absence,
        // never a torn interleaving).
        let wave3 = with_work(|plan| !plan.deletes.is_empty());
        fan_out(ctx, wave3.len(), |i, child| {
            let job = wave3[i];
            let (region_idx, _) = jobs[job];
            let store = self.user_stores[region_idx].as_ref();
            let plan = plans[job].get().expect("plan built in wave 1");
            for path in &plan.deletes {
                // Deletion is idempotent; the retry re-takes the stripe
                // so a racing group's rewrite still sees record-or-absent.
                with_retry(
                    child,
                    self.meter(),
                    &RetryPolicy::standard(),
                    "dist.delete",
                    || {
                        let _stripe = self.locks.lock(path);
                        store.delete_node(child, path)
                    },
                )?;
            }
            Ok(())
        })?;
        Ok(())
    }

    /// Writes one node record, merging a concurrently-applied newer
    /// children list (identified by a larger stored `children_txid`)
    /// into the outgoing record instead of clobbering it.
    fn write_merged(
        &self,
        ctx: &Ctx,
        store: &dyn UserStore,
        record: &NodeRecord,
    ) -> CloudResult<()> {
        // The whole read-merge-write repeats under retry (stripe
        // re-taken, base re-read), so a transient failure on either half
        // never leaves a half-merged record behind.
        with_retry(
            ctx,
            self.meter(),
            &RetryPolicy::standard(),
            "dist.write_merged",
            || {
                let _stripe = self.locks.lock(&record.path);
                let base = store.read_node(ctx, &record.path)?;
                let mut record = record.clone();
                if let Some(base) = base {
                    if base.children_txid > record.children_txid {
                        record.children = base.children;
                        record.children_txid = base.children_txid;
                    }
                    record.modified_txid = record.modified_txid.max(base.modified_txid);
                }
                store.replace_node(ctx, &record)
            },
        )
    }

    /// Applies a standalone children-list rewrite (a create/delete whose
    /// parent lives on another shard group's path): drop it if the stored
    /// list is already newer; synthesize a stub if the parent's own node
    /// write has not materialized yet — unless system storage says the
    /// parent is gone (a later delete won), in which case resurrecting it
    /// would leak a record the owning group will never clean up.
    fn rewrite_children(
        &self,
        ctx: &Ctx,
        store: &dyn UserStore,
        parent: &str,
        children: &Arc<Vec<String>>,
        txid: u64,
        marks: &Arc<Vec<u64>>,
    ) -> CloudResult<()> {
        // Retried as a unit: the `children_txid >= txid` guard makes a
        // repeat after a successful-but-unreported write degrade to a
        // no-op rather than a regression.
        with_retry(
            ctx,
            self.meter(),
            &RetryPolicy::standard(),
            "dist.rewrite_children",
            || {
                let _stripe = self.locks.lock(parent);
                match store.read_node(ctx, parent)? {
                    Some(mut record) => {
                        if record.children_txid >= txid {
                            return Ok(());
                        }
                        record.children = Arc::clone(children);
                        record.children_txid = txid;
                        record.modified_txid = record.modified_txid.max(txid);
                        record.epoch_marks = Arc::clone(marks);
                        store.replace_node(ctx, &record)
                    }
                    None => {
                        let item = self.system.get_node(ctx, parent);
                        if !SystemStore::node_exists(item.as_ref()) {
                            return Ok(());
                        }
                        store.replace_node(ctx, &stub_record(parent, children, txid, marks))
                    }
                }
            },
        )
    }

    /// Pops the distributed transactions from their nodes' pending queues
    /// and purges drained tombstones — system-store bookkeeping only, no
    /// user-store access. The per-path pops coalesce across paths into
    /// chunked ≤ 25-item transactions with per-item head guards
    /// ([`crate::commit::pop_pending_batch`]): N distinct paths per epoch
    /// cost ⌈N/25⌉ write requests.
    pub fn finalize_epoch(&self, ctx: &Ctx, items: &[CommittedTx<'_>]) -> CloudResult<()> {
        // Per path, in txid order: the txids to pop and whether the last
        // transaction deleted the node. A multi contributes each
        // *mutating* sub path once (checks never enter the txq).
        let mut per_path: OrderedMap<&str, (Vec<u64>, bool)> = OrderedMap::new();
        // A duplicated queue delivery puts the *same* committed record in
        // the epoch twice, but its txid sits in the path's `txq` exactly
        // once — popping once per occurrence would eat the *next*
        // transaction's entry (its commit may already have appended
        // concurrently) and strand it as "already processed" before it
        // ever distributed. Dedupe per path: same-path txids arrive in
        // txid order, so duplicates are adjacent.
        let push_once = |entry: &mut (Vec<u64>, bool), txid: u64| {
            if entry.0.last() != Some(&txid) {
                entry.0.push(txid);
            }
        };
        for tx in items {
            if tx.record.is_multi() {
                for sub in &tx.record.ops {
                    if matches!(sub.user_update, UserUpdate::None) {
                        continue;
                    }
                    let entry = per_path.get_or_insert_with(sub.path.as_str(), Default::default);
                    push_once(entry, tx.txid);
                    entry.1 = sub.is_delete;
                }
                continue;
            }
            if tx.record.path.is_empty() {
                continue;
            }
            let entry = per_path.get_or_insert_with(tx.record.path.as_str(), Default::default);
            push_once(entry, tx.txid);
            entry.1 = tx.record.is_delete;
        }
        // Chunked transactional pops across paths, then the (rare)
        // tombstone purges for deleted paths.
        let entries: Vec<(&str, &[u64])> = per_path
            .keys()
            .map(|path| {
                let (txids, _) = per_path.get(path).expect("keyed from map");
                (*path, txids.as_slice())
            })
            .collect();
        let chunks: Vec<&[(&str, &[u64])]> = entries
            .chunks(crate::system_store::TRANSACT_MAX_ITEMS)
            .collect();
        // A pop chunk's per-item head guards make a repeat after an
        // injected transient (which fires before the mutation) the
        // first effective delivery; a guard mismatch from genuinely
        // newer state is a ConditionFailed and stays fatal.
        fan_out(ctx, chunks.len(), |i, child| {
            with_retry(
                child,
                self.meter(),
                &RetryPolicy::quick(),
                "dist.pop",
                || crate::commit::pop_pending_batch(self.system.kv(), child, chunks[i]),
            )
        })?;
        let deleted: Vec<&str> = per_path
            .keys()
            .copied()
            .filter(|path| per_path.get(path).map(|(_, d)| *d).unwrap_or(false))
            .collect();
        fan_out(ctx, deleted.len(), |i, child| {
            with_retry(
                child,
                self.meter(),
                &RetryPolicy::standard(),
                "dist.purge",
                || self.system.purge_tombstone(child, deleted[i]),
            )
        })
    }
}

/// The 1–2 storage effects of one committed transaction, in order — or,
/// for a multi record, the concatenation of its subs' effects in op
/// order (they share the record's txid: one atomic unit). Runs once per
/// epoch (before the fan-out), so the `Arc` lifts here are the only full
/// copies of the children lists any number of workers pays.
fn effects_of<'a>(tx: &'a CommittedTx<'_>) -> Vec<Effect<'a>> {
    if tx.record.is_multi() {
        let mut effects = Vec::with_capacity(tx.record.ops.len() * 2);
        for (sub, data) in tx.record.ops.iter().zip(&tx.multi_data) {
            effects.extend(effects_of_update(&sub.user_update, data, tx.txid));
        }
        return effects;
    }
    effects_of_update(&tx.record.user_update, &tx.data, tx.txid)
}

/// The effects of one user-store update.
fn effects_of_update<'a>(
    user_update: &'a UserUpdate,
    data: &'a Bytes,
    txid: u64,
) -> Vec<Effect<'a>> {
    match user_update {
        UserUpdate::WriteNode {
            children,
            parent_children,
            ..
        } => {
            let mut effects = vec![Effect::Write {
                txid,
                update: user_update,
                data,
                children: Arc::new(children.clone()),
            }];
            if let Some((parent, children)) = parent_children {
                effects.push(Effect::Children {
                    parent,
                    children: Arc::new(children.clone()),
                    txid,
                });
            }
            effects
        }
        UserUpdate::DeleteNode {
            path,
            parent_children,
        } => {
            let mut effects = vec![Effect::Delete { path }];
            if let Some((parent, children)) = parent_children {
                effects.push(Effect::Children {
                    parent,
                    children: Arc::new(children.clone()),
                    txid,
                });
            }
            effects
        }
        UserUpdate::None => Vec::new(),
    }
}

/// Builds the node record a `WriteNode` update materializes in `region`'s
/// replica (the same construction as the sequential leader). The data
/// payload, children list and epoch marks are *shared* into the record —
/// materializing the same transaction for R regions costs R ref-count
/// bumps, not R deep copies.
fn record_of(
    update: &UserUpdate,
    txid: u64,
    data: &Bytes,
    children: &Arc<Vec<String>>,
    marks: &Arc<Vec<u64>>,
) -> NodeRecord {
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
        children: Arc::clone(children),
        // The children snapshot was taken under this node's follower
        // lock, in the same critical section that allocated `txid`.
        children_txid: txid,
        ephemeral_owner: ephemeral_owner.clone(),
        epoch_marks: Arc::clone(marks),
    }
}

/// A children-only stub for a parent whose own record is not (yet, or
/// any more) materialized in this replica — the multi-group counterpart
/// of the sequential `update_children` synthesizing a missing base.
fn stub_record(
    parent: &str,
    children: &Arc<Vec<String>>,
    txid: u64,
    marks: &Arc<Vec<u64>>,
) -> NodeRecord {
    NodeRecord {
        path: parent.to_owned(),
        data: Bytes::new(),
        created_txid: 0,
        modified_txid: txid,
        version: 0,
        children: Arc::clone(children),
        children_txid: txid,
        ephemeral_owner: None,
        epoch_marks: Arc::clone(marks),
    }
}

/// Final per-path operations of one (region × shard) worker, split by
/// application wave (see [`Distributor::apply_epoch`]).
struct ShardPlan {
    /// Wave ➀: node writes untouched by children-list rewrites.
    node_writes: Vec<NodeRecord>,
    /// Wave ➁: writes whose children list was rewritten this epoch.
    children_writes: Vec<NodeRecord>,
    /// Wave ➂: deletes.
    deletes: Vec<String>,
}

/// Replays one shard's effects in order, coalescing to at most one store
/// operation per path (last write wins; children rewrites merge into a
/// pending write or a freshly read base record, exactly like the
/// sequential leader's `update_children`).
fn build_shard_plan(
    ctx: &Ctx,
    store: &dyn UserStore,
    meter: &Meter,
    effects: &[Effect<'_>],
    marks: &Arc<Vec<u64>>,
) -> CloudResult<ShardPlan> {
    // Insertion-ordered path → (final op, touched-by-children) map.
    let mut pending: OrderedMap<String, (PendingOp, bool)> = OrderedMap::new();

    for effect in effects {
        match effect {
            Effect::Write {
                txid,
                update,
                data,
                children,
            } => {
                let record = record_of(update, *txid, data, children, marks);
                let path = record.path.clone();
                let was_children = pending.get(&path).map(|(_, c)| *c).unwrap_or(false);
                pending.insert(path, (PendingOp::Write(record), was_children));
            }
            Effect::Delete { path } => {
                pending.insert((*path).to_owned(), (PendingOp::Delete, false));
            }
            Effect::Children {
                parent,
                children,
                txid,
            } => {
                match pending.get_mut(*parent) {
                    Some((PendingOp::Write(record), touched)) => {
                        record.children = Arc::clone(children);
                        record.children_txid = *txid;
                        record.modified_txid = record.modified_txid.max(*txid);
                        record.epoch_marks = Arc::clone(marks);
                        *touched = true;
                    }
                    other => {
                        // The sequential `update_children` reads the
                        // current record (or synthesizes an empty one) and
                        // rewrites it with the new children list. A
                        // preceding delete in the same epoch behaves like
                        // a missing record.
                        let base = match other {
                            Some((PendingOp::Delete, _)) => None,
                            _ => with_retry(
                                ctx,
                                meter,
                                &RetryPolicy::standard(),
                                "dist.read_base",
                                || store.read_node(ctx, parent),
                            )?,
                        };
                        let mut record = base.unwrap_or_else(|| {
                            stub_record(parent, &Arc::new(Vec::new()), 0, &Arc::new(Vec::new()))
                        });
                        record.children = Arc::clone(children);
                        record.children_txid = *txid;
                        record.modified_txid = record.modified_txid.max(*txid);
                        record.epoch_marks = Arc::clone(marks);
                        pending.insert((*parent).to_owned(), (PendingOp::Write(record), true));
                    }
                }
            }
        }
    }

    let mut plan = ShardPlan {
        node_writes: Vec::new(),
        children_writes: Vec::new(),
        deletes: Vec::new(),
    };
    for (path, entry) in pending.into_entries() {
        match entry {
            (PendingOp::Write(record), false) => plan.node_writes.push(record),
            (PendingOp::Write(record), true) => plan.children_writes.push(record),
            (PendingOp::Delete, _) => plan.deletes.push(path),
        }
    }
    Ok(plan)
}

/// Final per-path operations of one (region × shard) worker in
/// multi-group mode, split by application wave. Unlike [`ShardPlan`],
/// base reads are deferred to apply time (under the path stripe), so the
/// plan keeps standalone children rewrites symbolic.
struct MultiShardPlan {
    /// Wave ➀: node writes untouched by children-list rewrites.
    node_writes: Vec<NodeRecord>,
    /// Wave ➁: children-bearing operations.
    children_ops: Vec<ChildrenOp>,
    /// Wave ➂: deletes.
    deletes: Vec<String>,
}

/// A wave-➁ operation in multi-group mode.
enum ChildrenOp {
    /// A node write whose children list was rewritten this epoch.
    Write(NodeRecord),
    /// A children rewrite for a path with no same-epoch node write;
    /// resolved against the stored record at apply time.
    Rewrite {
        /// The rewritten parent.
        parent: String,
        /// The full children list as of `txid` (shared with the effect).
        children: Arc<Vec<String>>,
        /// Txid of the rewriting transaction.
        txid: u64,
    },
}

/// In-memory replay state of one path in multi-group mode.
enum MultiPending {
    Write {
        record: NodeRecord,
        touched: bool,
    },
    Children {
        children: Arc<Vec<String>>,
        txid: u64,
    },
    Delete,
}

/// Replays one shard's effects in order without touching the store,
/// coalescing to at most one operation per path (mirroring
/// [`build_shard_plan`]'s rules; the read-modify-write halves run at
/// apply time under the shared path stripes).
fn build_shard_plan_multi(effects: &[Effect<'_>], marks: &Arc<Vec<u64>>) -> MultiShardPlan {
    let mut pending: OrderedMap<String, MultiPending> = OrderedMap::new();
    for effect in effects {
        match effect {
            Effect::Write {
                txid,
                update,
                data,
                children,
            } => {
                let record = record_of(update, *txid, data, children, marks);
                // A later write's children snapshot supersedes any
                // earlier same-epoch rewrite (it was taken later under
                // the same node lock); keep the wave-➁ classification so
                // the parent/child ordering stays intact.
                let touched = matches!(
                    pending.get(&record.path),
                    Some(MultiPending::Write { touched: true, .. })
                        | Some(MultiPending::Children { .. })
                );
                pending.insert(record.path.clone(), MultiPending::Write { record, touched });
            }
            Effect::Delete { path } => {
                pending.insert((*path).to_owned(), MultiPending::Delete);
            }
            Effect::Children {
                parent,
                children,
                txid,
            } => match pending.get_mut(*parent) {
                Some(MultiPending::Write { record, touched }) => {
                    record.children = Arc::clone(children);
                    record.children_txid = *txid;
                    record.modified_txid = record.modified_txid.max(*txid);
                    record.epoch_marks = Arc::clone(marks);
                    *touched = true;
                }
                Some(MultiPending::Children {
                    children: pending_children,
                    txid: pending_txid,
                }) => {
                    *pending_children = Arc::clone(children);
                    *pending_txid = *txid;
                }
                Some(MultiPending::Delete) => {
                    // Same-epoch delete-then-rewrite: mirror the
                    // single-group replay, which materializes a stub in
                    // place of the delete.
                    pending.insert(
                        (*parent).to_owned(),
                        MultiPending::Write {
                            record: stub_record(parent, children, *txid, marks),
                            touched: true,
                        },
                    );
                }
                None => {
                    pending.insert(
                        (*parent).to_owned(),
                        MultiPending::Children {
                            children: Arc::clone(children),
                            txid: *txid,
                        },
                    );
                }
            },
        }
    }

    let mut plan = MultiShardPlan {
        node_writes: Vec::new(),
        children_ops: Vec::new(),
        deletes: Vec::new(),
    };
    for (path, entry) in pending.into_entries() {
        match entry {
            MultiPending::Write {
                record,
                touched: false,
            } => plan.node_writes.push(record),
            MultiPending::Write {
                record,
                touched: true,
            } => plan.children_ops.push(ChildrenOp::Write(record)),
            MultiPending::Children { children, txid } => {
                plan.children_ops.push(ChildrenOp::Rewrite {
                    parent: path,
                    children,
                    txid,
                })
            }
            MultiPending::Delete => plan.deletes.push(path),
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        let c = DistributorConfig::new(8, 32);
        assert_eq!(c.shards, 8);
        assert_eq!(c.max_batch, 32);
        assert_eq!(
            DistributorConfig::sequential(),
            DistributorConfig::new(1, 1)
        );
        assert_eq!(DistributorConfig::default(), DistributorConfig::new(4, 16));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        DistributorConfig::new(0, 1);
    }

    #[test]
    fn adaptive_config_validates_and_classifies() {
        let static_config = DistributorConfig::new(4, 16);
        assert!(!static_config.is_adaptive());
        let adaptive = static_config.with_adaptive_batch(2);
        assert!(adaptive.is_adaptive());
        assert_eq!(adaptive.min_batch, 2);
        assert_eq!(adaptive.max_batch, 16);
    }

    #[test]
    #[should_panic(expected = "adaptive floor above the batch cap")]
    fn adaptive_floor_above_cap_rejected() {
        DistributorConfig::new(4, 8).with_adaptive_batch(9);
    }

    // The AIMD controller's unit tests live next to its implementation
    // in `fk_cloud::queue`; here it is exercised through the leader's
    // drain loop and the DES control loop below.

    /// DES-driven control loop (ROADMAP "Adaptive epoch batch size"):
    /// a burst of arrivals builds queue depth, the drain loop observes
    /// it between epochs, and the window must ride the burst up to the
    /// cap and settle back to the floor once the queue runs dry.
    #[test]
    fn adaptive_window_tracks_queue_depth_in_des() {
        use fk_cloud::des::{run, Scheduler};
        struct Sim {
            depth: usize,
            ctrl: AdaptiveBatch,
            peak_window: usize,
            final_window: usize,
            drained_total: usize,
        }
        const DRAIN_EVERY_NS: u64 = 10_000_000; // one epoch drain per 10 ms
        fn drain(sim: &mut Sim, sched: &mut Scheduler<Sim>) {
            let drained = sim.ctrl.window().min(sim.depth);
            sim.depth -= drained;
            sim.drained_total += drained;
            sim.ctrl.observe(drained, sim.depth);
            sim.peak_window = sim.peak_window.max(sim.ctrl.window());
            sim.final_window = sim.ctrl.window();
            sched.schedule(DRAIN_EVERY_NS, drain);
        }
        let config = DistributorConfig::new(4, 32).with_adaptive_batch(2);
        let sim = run(
            Sim {
                depth: 0,
                ctrl: AdaptiveBatch::new(config.min_batch, config.max_batch),
                peak_window: 0,
                final_window: 0,
                drained_total: 0,
            },
            0xADA7,
            1_000_000_000, // 1 s
            |_, sched| {
                // Burst: 300 transactions arrive in the first 100 ms
                // (30 per drain interval — far above the floor window).
                for i in 0..300u64 {
                    sched.schedule(i * 333_333, |sim: &mut Sim, _| sim.depth += 1);
                }
                sched.schedule(DRAIN_EVERY_NS, drain);
            },
        );
        assert_eq!(sim.drained_total, 300, "everything drained");
        assert_eq!(sim.depth, 0);
        assert_eq!(sim.peak_window, 32, "window rode the burst to the cap");
        assert_eq!(sim.final_window, 2, "window settled back to the floor");
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
}
