//! The one file that names the program under test.
//!
//! Every call into `fk-core` / `fk-cloud` / `fk-store` / `fk-cost` /
//! `fk-workloads` is made here, and only through surface that `fk-fleet`
//! and `fk-bench` already rely on. The rest of the benchmark sees plain
//! data (strings, byte vectors, nanosecond counts), so a design diet of
//! the program can only ever break this file.
//!
//! Host time is taken here too, as `Instant` pairs around the calls into
//! the program's public functions; the callers decide what to do with it.

use bytes::Bytes;
use fk_cloud::metering::Meter;
use fk_cloud::ops::Op;
use fk_cloud::trace::{Ctx, LatencyMode};
use fk_cloud::{LatencyModel, Region};
use fk_core::consistency::check_tree_integrity;
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::durable::DurableUserStore;
use fk_core::follower::Follower;
use fk_core::leader::Leader;
use fk_core::messages::{
    ClientNotification, ClientRequest, LeaderRecord, MultiOp, Payload, WriteOp,
};
use fk_core::read_cache::ReadCacheConfig;
use fk_core::replica::ReplicaConfig;
use fk_core::user_store::{NodeRecord, UserStore};
use fk_core::{ClientConfig, CreateMode, DistributorConfig, FkClient, WatchKind};
use fk_store::storage::RandomAccess;
use fk_store::{LsmConfig, SimStorage, Storage, StoreResult};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub use fk_cloud::metering::UsageSnapshot as Usage;

/// Queue visibility window for direct drives: far longer than any run,
/// so redelivery happens only through explicit nacks.
const VISIBILITY: Duration = Duration::from_secs(3600);

/// Messages asked for per leader-lane receive (the queue kind caps it).
pub const LANE_BATCH: usize = 16;
/// Messages asked for per follower receive (SQS FIFO's batch of 10).
pub const FOLLOWER_BATCH: usize = 10;

// ----------------------------------------------------------------------
// Virtual clocks
// ----------------------------------------------------------------------

/// Virtual time one phase label covered inside one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTime {
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Length of the union of the label's charge intervals (parallel
    /// forks overlap, so this is covered time, not summed time).
    pub covered_ns: u64,
}

/// One virtual clock (a root `Ctx` of the program's latency model).
pub struct Clock(Ctx);

impl Clock {
    pub fn now_ns(&self) -> u64 {
        self.0.now_ns()
    }

    /// Moves the clock forward to `ns` (never backwards).
    pub fn advance_to(&self, ns: u64) {
        self.0.merge_time_ns(ns);
    }

    /// Drops the charge records the program appended since the last
    /// drain. Root contexts keep one `String`-bearing record per charge
    /// for their whole life, so every invocation ends with a drain.
    pub fn drop_spans(&self) {
        drop(self.0.take_spans());
    }

    /// Drains the charge records, grouped by top-level phase label.
    pub fn drain_phases(&self) -> Vec<PhaseTime> {
        let mut by_label: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
        for span in self.0.take_spans() {
            let top = span.phase.split('/').next().unwrap_or("");
            if top.is_empty() {
                continue;
            }
            let start = span.start.as_nanos() as u64;
            let end = start + span.duration.as_nanos() as u64;
            match by_label.get_mut(top) {
                Some(intervals) => intervals.push((start, end)),
                None => {
                    by_label.insert(top.to_owned(), vec![(start, end)]);
                }
            }
        }
        by_label
            .into_iter()
            .map(|(label, mut intervals)| {
                intervals.sort_unstable();
                let (mut covered, mut reach) = (0u64, 0u64);
                for &(start, end) in &intervals {
                    let from = start.max(reach);
                    if end > from {
                        covered += end - from;
                        reach = end;
                    }
                }
                PhaseTime {
                    label,
                    start_ns: intervals[0].0,
                    end_ns: reach,
                    covered_ns: covered,
                }
            })
            .collect()
    }
}

// ----------------------------------------------------------------------
// Generated inputs, as the program's request types
// ----------------------------------------------------------------------

/// One generated write, described without the program's types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteSpec {
    Create {
        path: String,
        data: Vec<u8>,
    },
    SetData {
        path: String,
        data: Vec<u8>,
    },
    Delete {
        path: String,
    },
    /// The ZooKeeper compare-and-swap idiom: version check + write.
    CheckSet {
        path: String,
        data: Vec<u8>,
    },
}

impl WriteSpec {
    pub fn path(&self) -> &str {
        match self {
            WriteSpec::Create { path, .. }
            | WriteSpec::SetData { path, .. }
            | WriteSpec::Delete { path }
            | WriteSpec::CheckSet { path, .. } => path,
        }
    }

    /// The user payload the write carries (empty for a delete).
    pub fn data(&self) -> &[u8] {
        match self {
            WriteSpec::Create { data, .. }
            | WriteSpec::SetData { data, .. }
            | WriteSpec::CheckSet { data, .. } => data,
            WriteSpec::Delete { .. } => &[],
        }
    }

    fn to_op(&self) -> WriteOp {
        match self {
            WriteSpec::Create { path, data } => WriteOp::Create {
                path: path.clone(),
                payload: Payload::inline(data),
                mode: CreateMode::Persistent,
            },
            WriteSpec::SetData { path, data } => WriteOp::SetData {
                path: path.clone(),
                payload: Payload::inline(data),
                expected_version: -1,
            },
            WriteSpec::Delete { path } => WriteOp::Delete {
                path: path.clone(),
                expected_version: -1,
            },
            WriteSpec::CheckSet { path, data } => WriteOp::Multi {
                ops: vec![
                    MultiOp::Check {
                        path: path.clone(),
                        expected_version: -1,
                    },
                    MultiOp::SetData {
                        path: path.clone(),
                        payload: Payload::inline(data),
                        expected_version: -1,
                    },
                ],
            },
        }
    }
}

// ----------------------------------------------------------------------
// DES direct drive: the function bodies, called by the harness
// ----------------------------------------------------------------------

/// How a queue-triggered invocation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every message processed; the batch was acked.
    Done,
    /// Messages from this index on were deferred (no attempt burnt).
    Deferred(usize),
    /// Messages from this index on failed and will be redelivered.
    Failed(usize),
}

impl Outcome {
    /// Messages of a batch of `len` that were fully processed.
    pub fn processed(self, len: usize) -> usize {
        match self {
            Outcome::Done => len,
            Outcome::Deferred(i) | Outcome::Failed(i) => i.min(len),
        }
    }
}

/// Acks a processed batch, or returns its unprocessed suffix to the
/// queue: a deferral goes back without burning a redelivery attempt, a
/// failure redelivers and walks a poisoned message to the dead letters.
fn settle(
    queue: &fk_cloud::queue::Queue,
    receipt: fk_cloud::queue::Receipt,
    result: Result<(), fk_cloud::FnError>,
) -> Outcome {
    match result {
        Ok(()) => {
            queue.ack(receipt);
            Outcome::Done
        }
        Err(e) if e.deferred => {
            queue.nack_deferred(receipt, e.failed_index);
            Outcome::Deferred(e.failed_index)
        }
        Err(e) => {
            queue.nack(receipt, e.failed_index);
            Outcome::Failed(e.failed_index)
        }
    }
}

/// A received write-queue batch, not yet processed.
pub struct WriteBatch {
    batch: fk_cloud::queue::Batch,
    host_queue: Duration,
}

impl WriteBatch {
    /// The batch's ordering group, i.e. the session.
    pub fn session(&self) -> &str {
        &self.batch.messages[0].group
    }

    /// Messages in the batch (never zero).
    pub fn messages(&self) -> usize {
        self.batch.messages.len()
    }
}

/// One queue-triggered function invocation over one batch.
pub struct FunctionRun {
    pub start_ns: u64,
    pub end_ns: u64,
    pub outcome: Outcome,
    /// Host time inside the function body (`process_messages`).
    pub host_fn: Duration,
    /// Host time inside the queue calls (receive, ack / nack).
    pub host_queue: Duration,
}

/// The request a leader record answers.
pub struct RecordId {
    pub session: String,
    pub request_id: u64,
}

/// A deployment whose function bodies the harness invokes itself.
pub struct Tier {
    deployment: Deployment,
    follower: Follower,
    leader: Leader,
    seed: u64,
}

impl Tier {
    /// AWS profile, object user store, one read replica, virtual time:
    /// `groups` leader shard groups × `shards` distributor shards ×
    /// epoch batches of `batch`.
    pub fn direct(seed: u64, groups: usize, shards: usize, batch: usize) -> Tier {
        let config = DeploymentConfig::aws()
            .with_distributor(DistributorConfig::new(shards, batch))
            .with_shard_groups(groups)
            .with_replicas(ReplicaConfig::with_count(1))
            .with_mode(LatencyMode::Virtual, seed);
        let deployment = Deployment::direct(config);
        let follower = deployment.make_follower();
        let leader = deployment.make_leader_inline();
        Tier {
            deployment,
            follower,
            leader,
            seed,
        }
    }

    /// Leader shard groups, one serial lane each.
    pub fn lanes(&self) -> usize {
        self.deployment.leader_queues().shards()
    }

    /// A fresh clock at virtual time zero, seeded from the run seed.
    pub fn clock(&self, salt: u64) -> Clock {
        let ctx = Ctx::new(
            Arc::clone(self.deployment.model()),
            self.deployment.config().mode,
            self.seed ^ salt,
        );
        ctx.set_region(self.deployment.config().regions[0]);
        Clock(ctx)
    }

    pub fn register_session(&self, clock: &Clock, session: &str) {
        self.deployment
            .system()
            .register_session(&clock.0, session, 0)
            .expect("fault-free session registration");
    }

    /// Arms a one-shot data watch (or subtree watch) for `session`.
    pub fn arm_watch(&self, clock: &Clock, path: &str, subtree: bool, session: &str) {
        let kind = if subtree {
            WatchKind::Subtree
        } else {
            WatchKind::Data
        };
        self.deployment
            .system()
            .register_watch(&clock.0, path, kind, session)
            .expect("fault-free watch registration");
    }

    /// Connects a live notification endpoint for `session`.
    pub fn observe(&self, session: &str) -> Observer {
        let (rx, alive) = self.deployment.bus().register(session);
        alive.store(true, Ordering::SeqCst);
        Observer {
            rx,
            _alive: alive,
            last_request: 0,
            last_txid: 0,
        }
    }

    /// Client side of a write: encode and enqueue at `clock`'s time.
    /// Returns the encoded request size and the host time spent.
    pub fn submit(
        &self,
        clock: &Clock,
        session: &str,
        request_id: u64,
        spec: &WriteSpec,
    ) -> (usize, Duration) {
        let host = Instant::now();
        let request = ClientRequest {
            session_id: session.to_owned(),
            request_id,
            op: spec.to_op(),
        };
        clock.0.charge(Op::ClientWork, spec.data().len());
        let body = request.encode();
        let bytes = body.len();
        self.deployment
            .write_queue()
            .send(&clock.0, session, body)
            .expect("fault-free write-queue send");
        (bytes, host.elapsed())
    }

    /// Receives one write-queue batch (one session's messages, in
    /// order). `None` when nothing is deliverable.
    pub fn receive_writes(&self) -> Option<WriteBatch> {
        let host = Instant::now();
        let batch = self
            .deployment
            .write_queue()
            .receive(FOLLOWER_BATCH, VISIBILITY)?;
        Some(WriteBatch {
            batch,
            host_queue: host.elapsed(),
        })
    }

    /// One invocation of a function body over `batch`, on a clock the
    /// caller has moved to the start instant: dispatch and warm-start
    /// overhead, the body in the function's sandbox, GB-seconds on the
    /// meter, then the ack or nack.
    fn invoke(
        &self,
        clock: &Clock,
        queue: &fk_cloud::queue::Queue,
        batch: fk_cloud::queue::Batch,
        mut host_queue: Duration,
        function: &fk_cloud::FunctionConfig,
        body: impl FnOnce(&Ctx, &[fk_cloud::queue::Message]) -> Result<(), fk_cloud::FnError>,
    ) -> FunctionRun {
        let ctx = &clock.0;
        let start_ns = ctx.now_ns();
        let bytes: usize = batch.messages.iter().map(|m| m.body.len()).sum();
        ctx.charge(
            Op::QueueDispatch(self.deployment.config().queue_kind()),
            bytes,
        );
        ctx.charge(Op::FnWarmOverhead, 0);
        let billed_from = ctx.now();
        let host = Instant::now();
        let result = ctx.with_env(function.env(), || body(ctx, &batch.messages));
        let host_fn = host.elapsed();
        self.deployment
            .meter()
            .fn_invocation(function.memory_mb, ctx.now().saturating_sub(billed_from));
        let host = Instant::now();
        let outcome = settle(queue, batch.receipt, result);
        host_queue += host.elapsed();
        FunctionRun {
            start_ns,
            end_ns: ctx.now_ns(),
            outcome,
            host_fn,
            host_queue,
        }
    }

    /// Runs the follower body over `batch`.
    pub fn run_follower(&self, clock: &Clock, batch: WriteBatch) -> FunctionRun {
        self.invoke(
            clock,
            self.deployment.write_queue(),
            batch.batch,
            batch.host_queue,
            &self.deployment.config().follower_fn,
            |ctx, messages| self.follower.process_messages(ctx, messages),
        )
    }

    /// Messages waiting in lane `g`'s leader queue.
    pub fn lane_pending(&self, g: usize) -> usize {
        self.deployment.leader_queues().queue(g).pending()
    }

    /// Receives up to `max` records from lane `g` and runs the leader
    /// body over them. Returns the requests the records answer, in batch
    /// order, with the invocation.
    pub fn invoke_leader(
        &self,
        g: usize,
        clock: &Clock,
        max: usize,
    ) -> Option<(Vec<RecordId>, FunctionRun)> {
        let queue = self.deployment.leader_queues().queue(g);
        let host = Instant::now();
        let batch = queue.receive(max, VISIBILITY)?;
        let host_queue = host.elapsed();
        let records = batch
            .messages
            .iter()
            .map(|m| {
                let record = LeaderRecord::decode(&m.body).expect("leader record decodes");
                RecordId {
                    session: record.session_id,
                    request_id: record.request_id,
                }
            })
            .collect();
        let run = self.invoke(
            clock,
            queue,
            batch,
            host_queue,
            &self.deployment.config().leader_fn,
            |ctx, messages| self.leader.process_messages(ctx, messages),
        );
        Some((records, run))
    }

    /// A session's read: the replica tier first (at the published
    /// committed floor, the strictest global freshness bound), backing
    /// storage otherwise. Returns the data if the node exists.
    pub fn read(&self, clock: &Clock, session: &str, path: &str) -> ReadOutcome {
        let mrd = self.deployment.floors().committed();
        let host = Instant::now();
        let served = self
            .deployment
            .replicas()
            .replica_for(session)
            .and_then(|replica| replica.serve(&clock.0, path, mrd));
        let host_replica = host.elapsed();
        if let Some(record) = served {
            return ReadOutcome {
                data: Some(record.data.to_vec()),
                children: record.children.len(),
                from_replica: true,
                host_replica,
                host_store: Duration::ZERO,
            };
        }
        let host = Instant::now();
        let record = self
            .deployment
            .user_store()
            .read_node(&clock.0, path)
            .expect("fault-free storage read");
        ReadOutcome {
            children: record.as_ref().map_or(0, |r| r.children.len()),
            data: record.map(|r| r.data.to_vec()),
            from_replica: false,
            host_replica,
            host_store: host.elapsed(),
        }
    }

    /// What backing storage holds at `path`.
    pub fn stored(&self, clock: &Clock, path: &str) -> Option<Vec<u8>> {
        self.deployment
            .user_store()
            .read_node(&clock.0, path)
            .expect("fault-free storage read")
            .map(|r| r.data.to_vec())
    }

    /// What the replica tier serves for `path` at the committed floor,
    /// if it serves it at all.
    pub fn replica_view(&self, clock: &Clock, session: &str, path: &str) -> Option<Vec<u8>> {
        let mrd = self.deployment.floors().committed();
        self.deployment
            .replicas()
            .replica_for(session)
            .and_then(|replica| replica.serve(&clock.0, path, mrd))
            .map(|r| r.data.to_vec())
    }

    /// Z1 violations between system storage and the user store.
    pub fn integrity(&self, clock: &Clock) -> Vec<String> {
        check_tree_integrity(
            &clock.0,
            self.deployment.system(),
            self.deployment.user_store().as_ref(),
        )
        .into_iter()
        .map(|v| format!("Z1: {v:?}"))
        .collect()
    }

    /// `(session, request id)` of every dead-lettered message.
    pub fn dead_letters(&self) -> Vec<(String, u64)> {
        let mut dead = Vec::new();
        for message in self.deployment.write_queue().dead_letters() {
            if let Some(request) = ClientRequest::decode(&message.body) {
                dead.push((request.session_id, request.request_id));
            }
        }
        for message in self.deployment.leader_queues().drain_dead_letters() {
            if let Some(record) = LeaderRecord::decode(&message.body) {
                dead.push((record.session_id, record.request_id));
            }
        }
        dead
    }

    pub fn usage(&self) -> Usage {
        self.deployment.meter().snapshot()
    }
}

/// Result of [`Tier::read`].
pub struct ReadOutcome {
    pub data: Option<Vec<u8>>,
    pub children: usize,
    pub from_replica: bool,
    pub host_replica: Duration,
    pub host_store: Duration,
}

/// A live notification endpoint of a DES session.
pub struct Observer {
    rx: crossbeam::channel::Receiver<ClientNotification>,
    _alive: Arc<std::sync::atomic::AtomicBool>,
    last_request: u64,
    last_txid: u64,
}

/// What an [`Observer`] saw since the last drain.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Deliveries {
    pub write_results: u64,
    pub failed_results: u64,
    pub watch_events: u64,
    /// Write results that arrived out of submission or txid order (Z2).
    pub order_violations: u64,
}

impl Deliveries {
    pub fn add(&mut self, other: Deliveries) {
        self.write_results += other.write_results;
        self.failed_results += other.failed_results;
        self.watch_events += other.watch_events;
        self.order_violations += other.order_violations;
    }
}

impl Observer {
    /// Drains the endpoint, counting deliveries and checking that write
    /// results arrive in submission order with rising txids. An exact
    /// repeat is at-least-once redelivery and is allowed.
    pub fn drain(&mut self) -> Deliveries {
        let mut seen = Deliveries::default();
        for notification in self.rx.try_iter() {
            match notification {
                ClientNotification::WriteResult {
                    request_id,
                    result: Ok(_),
                    txid,
                } => {
                    seen.write_results += 1;
                    if request_id == self.last_request && txid == self.last_txid {
                        continue;
                    }
                    if request_id <= self.last_request || txid <= self.last_txid {
                        seen.order_violations += 1;
                    }
                    self.last_request = request_id;
                    self.last_txid = txid;
                }
                ClientNotification::WriteResult { .. } => {
                    seen.write_results += 1;
                    seen.failed_results += 1;
                }
                ClientNotification::Watch(_) => seen.watch_events += 1,
                ClientNotification::Ping { .. } => {}
            }
        }
        seen
    }
}

// ----------------------------------------------------------------------
// Threaded runtime: the deployment as shipped, driven through FkClient
// ----------------------------------------------------------------------

/// A live deployment (queue triggers, function sandboxes, notification
/// bus on their own threads) on the AWS profile with one read replica.
pub struct Runtime {
    deployment: Deployment,
}

impl Runtime {
    /// Starts the deployment; sessions get `cache_entries`-entry read
    /// caches.
    pub fn start(seed: u64, cache_entries: usize) -> Runtime {
        let config = DeploymentConfig::aws()
            .with_mode(LatencyMode::Virtual, seed)
            .with_read_cache(ReadCacheConfig::with_capacity(cache_entries))
            .with_replicas(ReplicaConfig::with_count(1));
        Runtime {
            deployment: Deployment::start(config),
        }
    }

    pub fn connect(&self, name: &str) -> Session {
        let client = self
            .deployment
            .connect_with(ClientConfig::new(name).with_read_workers(1))
            .expect("session connects");
        Session {
            client: Some(client),
        }
    }

    pub fn usage(&self) -> Usage {
        self.deployment.meter().snapshot()
    }

    /// Hit and miss counts of the replica `session` reads from.
    pub fn replica_counts(&self, session: &str) -> (u64, u64) {
        self.deployment
            .replicas()
            .replica_for(session)
            .map(|replica| {
                let stats = replica.stats();
                (stats.hits, stats.misses)
            })
            .unwrap_or((0, 0))
    }

    /// What backing storage holds at `path`.
    pub fn stored(&self, path: &str) -> Option<Vec<u8>> {
        self.deployment
            .user_store()
            .read_node(&Ctx::disabled(), path)
            .expect("fault-free storage read")
            .map(|r| r.data.to_vec())
    }
}

impl Drop for Runtime {
    /// Stops the triggers and joins their threads. Sessions must be
    /// dropped first: closing one goes through the live pipeline.
    fn drop(&mut self) {
        self.deployment.shutdown();
    }
}

/// One connected client session; dropping it closes the session and
/// joins its threads.
pub struct Session {
    client: Option<FkClient>,
}

impl Drop for Session {
    fn drop(&mut self) {
        if let Some(client) = self.client.take() {
            // A close that fails leaves nothing to clean up here.
            let _ = client.close();
        }
    }
}

impl Session {
    fn client(&self) -> &FkClient {
        self.client.as_ref().expect("open until dropped")
    }

    /// Virtual time this session's calls have taken so far.
    pub fn elapsed_ns(&self) -> u64 {
        self.client().elapsed().as_nanos() as u64
    }

    /// Drops the charge records of the session's clock (see
    /// [`Clock::drop_spans`]).
    pub fn drop_spans(&self) {
        drop(self.client().ctx().take_spans());
    }

    pub fn create(&self, path: &str, data: &[u8]) {
        self.client()
            .create(path, data, CreateMode::Persistent)
            .expect("create succeeds");
    }

    /// `(data, mzxid)`, or `None` when the call fails.
    pub fn get_data(&self, path: &str, watch: bool) -> Option<(Vec<u8>, u64)> {
        self.client()
            .get_data(path, watch)
            .ok()
            .map(|(data, stat)| (data.to_vec(), stat.modified_txid))
    }

    /// `Ok(mzxid)` of an existing node, `Ok(None)` for an absent one,
    /// `Err` when the call fails.
    pub fn exists(&self, path: &str) -> Result<Option<u64>, String> {
        self.client()
            .exists(path, false)
            .map(|stat| stat.map(|s| s.modified_txid))
            .map_err(|e| e.to_string())
    }

    /// Number of children, or `None` when the call fails.
    pub fn get_children(&self, path: &str) -> Option<usize> {
        self.client()
            .get_children(path, false)
            .ok()
            .map(|c| c.len())
    }

    /// The write's mzxid, or `None` when the call fails.
    pub fn set_data(&self, path: &str, data: &[u8]) -> Option<u64> {
        self.client()
            .set_data(path, data, -1)
            .ok()
            .map(|stat| stat.modified_txid)
    }

    /// `(hits, misses, coalesced)` of the session's read cache.
    pub fn cache_counts(&self) -> (u64, u64, u64) {
        let stats = self.client().cache_stats();
        (stats.hits, stats.misses, stats.coalesced)
    }

    /// Watch events delivered to the session since the last call.
    pub fn drain_watch_events(&self) -> u64 {
        self.client().watch_events().try_iter().len() as u64
    }
}

// ----------------------------------------------------------------------
// Durable store: the LSM engine under the user-store surface
// ----------------------------------------------------------------------

/// Calls and bytes the engine sent to its device.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeviceCounts {
    pub wal_bytes: u64,
    pub sst_bytes: u64,
    pub manifest_bytes: u64,
    pub syncs: u64,
    pub wal_syncs: u64,
    pub read_at_calls: u64,
    pub read_at_bytes: u64,
    /// Whole-file reads (recovery, compaction inputs).
    pub read_calls: u64,
    pub write_calls: u64,
}

impl DeviceCounts {
    pub fn since(&self, earlier: &DeviceCounts) -> DeviceCounts {
        DeviceCounts {
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            sst_bytes: self.sst_bytes - earlier.sst_bytes,
            manifest_bytes: self.manifest_bytes - earlier.manifest_bytes,
            syncs: self.syncs - earlier.syncs,
            wal_syncs: self.wal_syncs - earlier.wal_syncs,
            read_at_calls: self.read_at_calls - earlier.read_at_calls,
            read_at_bytes: self.read_at_bytes - earlier.read_at_bytes,
            read_calls: self.read_calls - earlier.read_calls,
            write_calls: self.write_calls - earlier.write_calls,
        }
    }

    /// Bytes appended or atomically written to the device.
    pub fn written_bytes(&self) -> u64 {
        self.wal_bytes + self.sst_bytes + self.manifest_bytes
    }

    /// Calls that reached the device.
    pub fn calls(&self) -> u64 {
        self.write_calls + self.syncs + self.read_at_calls + self.read_calls
    }
}

#[derive(Default)]
struct Counters {
    wal_bytes: AtomicU64,
    sst_bytes: AtomicU64,
    manifest_bytes: AtomicU64,
    syncs: AtomicU64,
    wal_syncs: AtomicU64,
    read_at_calls: AtomicU64,
    read_at_bytes: AtomicU64,
    read_calls: AtomicU64,
    write_calls: AtomicU64,
    /// Sizes of the SST files completed (synced) since the last take,
    /// in completion order; a flush's file precedes the compaction it
    /// triggers.
    finished_ssts: Mutex<Vec<u64>>,
    open_ssts: Mutex<BTreeMap<String, u64>>,
}

/// A [`Storage`] that counts what passes through it.
struct CountingStorage {
    inner: SimStorage,
    counters: Arc<Counters>,
}

struct CountingHandle {
    inner: Arc<dyn RandomAccess>,
    counters: Arc<Counters>,
}

impl RandomAccess for CountingHandle {
    fn read_at(&self, offset: u64, len: usize) -> StoreResult<Bytes> {
        self.counters.read_at_calls.fetch_add(1, Ordering::Relaxed);
        self.counters
            .read_at_bytes
            .fetch_add(len as u64, Ordering::Relaxed);
        self.inner.read_at(offset, len)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl Storage for CountingStorage {
    fn append(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        self.counters.write_calls.fetch_add(1, Ordering::Relaxed);
        let len = data.len() as u64;
        if name.starts_with("wal_") {
            self.counters.wal_bytes.fetch_add(len, Ordering::Relaxed);
        } else {
            self.counters.sst_bytes.fetch_add(len, Ordering::Relaxed);
            *self
                .counters
                .open_ssts
                .lock()
                .expect("counter lock")
                .entry(name.to_owned())
                .or_insert(0) += len;
        }
        self.inner.append(name, data)
    }

    fn sync(&self, name: &str) -> StoreResult<()> {
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        if name.starts_with("wal_") {
            self.counters.wal_syncs.fetch_add(1, Ordering::Relaxed);
        } else if let Some(bytes) = self
            .counters
            .open_ssts
            .lock()
            .expect("counter lock")
            .remove(name)
        {
            self.counters
                .finished_ssts
                .lock()
                .expect("counter lock")
                .push(bytes);
        }
        self.inner.sync(name)
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        self.counters.write_calls.fetch_add(1, Ordering::Relaxed);
        self.counters
            .manifest_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.write_atomic(name, data)
    }

    fn truncate(&self, name: &str, len: u64) -> StoreResult<()> {
        self.inner.truncate(name, len)
    }

    fn read(&self, name: &str) -> StoreResult<Option<Bytes>> {
        self.counters.read_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.read(name)
    }

    fn open(&self, name: &str) -> StoreResult<Arc<dyn RandomAccess>> {
        Ok(Arc::new(CountingHandle {
            inner: self.inner.open(name)?,
            counters: Arc::clone(&self.counters),
        }))
    }

    fn size(&self, name: &str) -> StoreResult<Option<u64>> {
        self.inner.size(name)
    }

    fn list(&self) -> StoreResult<Vec<String>> {
        self.inner.list()
    }

    fn remove(&self, name: &str) -> StoreResult<()> {
        self.inner.remove(name)
    }
}

/// Engine counters the harness reads between calls.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    pub flushes: u64,
    pub compactions: u64,
    pub l0_files: u64,
    pub records_replayed: u64,
}

/// The durable user store over a counting simulated device.
pub struct Durable {
    store: DurableUserStore,
    device: SimStorage,
    counters: Arc<Counters>,
    clock: Clock,
}

impl Durable {
    /// Opens the engine with its default configuration on a fresh
    /// device.
    pub fn open(seed: u64) -> Durable {
        Self::open_on(SimStorage::new(), seed)
    }

    fn open_on(device: SimStorage, seed: u64) -> Durable {
        let counters = Arc::new(Counters::default());
        let storage = CountingStorage {
            inner: device.clone(),
            counters: Arc::clone(&counters),
        };
        let store = DurableUserStore::open(
            Arc::new(storage),
            LsmConfig::default(),
            Region::US_EAST_1,
            Meter::new(),
        )
        .expect("device opens");
        let ctx = Ctx::new(Arc::new(LatencyModel::aws()), LatencyMode::Virtual, seed);
        ctx.set_region(Region::US_EAST_1);
        Durable {
            store,
            device,
            counters,
            clock: Clock(ctx),
        }
    }

    /// Closes the engine and opens it again on the same device, as a
    /// restarted process would.
    pub fn reopen(self, seed: u64) -> Durable {
        self.store.engine().shutdown();
        let device = self.device.clone();
        drop(self);
        Self::open_on(device, seed)
    }

    /// The flush policy in effect, for the run's output.
    pub fn policy() -> String {
        let config = LsmConfig::default();
        format!(
            "memtable {} KiB, blocks {} B, fsync {:?}, {} compaction",
            config.memtable_bytes / 1024,
            config.block_bytes,
            config.fsync,
            if config.background_compaction {
                "background"
            } else {
                "inline"
            }
        )
    }

    /// The store's virtual clock (the engine charges the in-memory
    /// latency class per call).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    pub fn write_batch(&self, entries: &[(String, Vec<u8>)], version: i32) -> Duration {
        let records: Vec<NodeRecord> = entries
            .iter()
            .map(|(path, data)| node_record(path, data, version))
            .collect();
        let host = Instant::now();
        self.store
            .write_batch(&self.clock.0, &records)
            .expect("fault-free batch write");
        host.elapsed()
    }

    pub fn delete_batch(&self, paths: &[String]) -> Duration {
        let host = Instant::now();
        self.store
            .delete_batch(&self.clock.0, paths)
            .expect("fault-free batch delete");
        host.elapsed()
    }

    pub fn read(&self, path: &str) -> (Option<Vec<u8>>, Duration) {
        let host = Instant::now();
        let record = self
            .store
            .read_node(&self.clock.0, path)
            .expect("fault-free read");
        let elapsed = host.elapsed();
        (record.map(|r| r.data.to_vec()), elapsed)
    }

    /// Entries under `root` (the root itself included).
    pub fn scan(&self, root: &str) -> (usize, Duration) {
        let host = Instant::now();
        let entries = self
            .store
            .scan_subtree(&self.clock.0, root)
            .expect("fault-free scan");
        (entries.len(), host.elapsed())
    }

    pub fn device_counts(&self) -> DeviceCounts {
        let c = &self.counters;
        DeviceCounts {
            wal_bytes: c.wal_bytes.load(Ordering::Relaxed),
            sst_bytes: c.sst_bytes.load(Ordering::Relaxed),
            manifest_bytes: c.manifest_bytes.load(Ordering::Relaxed),
            syncs: c.syncs.load(Ordering::Relaxed),
            wal_syncs: c.wal_syncs.load(Ordering::Relaxed),
            read_at_calls: c.read_at_calls.load(Ordering::Relaxed),
            read_at_bytes: c.read_at_bytes.load(Ordering::Relaxed),
            read_calls: c.read_calls.load(Ordering::Relaxed),
            write_calls: c.write_calls.load(Ordering::Relaxed),
        }
    }

    /// Sizes of the SST files completed since the last call, oldest
    /// first.
    pub fn take_finished_ssts(&self) -> Vec<u64> {
        std::mem::take(&mut *self.counters.finished_ssts.lock().expect("counter lock"))
    }

    /// Bytes the device holds now.
    pub fn device_bytes(&self) -> u64 {
        let names = self.device.list().expect("device lists");
        names
            .iter()
            .map(|name| self.device.size(name).expect("device sizes").unwrap_or(0))
            .sum()
    }

    pub fn stats(&self) -> EngineStats {
        let stats = self.store.stats();
        EngineStats {
            flushes: stats.flushes,
            compactions: stats.compactions,
            l0_files: stats.l0_files,
            records_replayed: stats.records_replayed,
        }
    }
}

fn node_record(path: &str, data: &[u8], version: i32) -> NodeRecord {
    NodeRecord {
        path: path.to_owned(),
        data: Bytes::copy_from_slice(data),
        created_txid: 1,
        modified_txid: version as u64 + 1,
        version,
        children: Arc::new(Vec::new()),
        children_txid: 0,
        ephemeral_owner: None,
        epoch_marks: Arc::new(Vec::new()),
    }
}

// ----------------------------------------------------------------------
// Codec, cost, key choice
// ----------------------------------------------------------------------

/// Mean host nanoseconds to encode and to decode a node record holding
/// each of `payloads`, timed over `rounds` passes.
pub fn codec_ns(payloads: &[(String, Vec<u8>)], rounds: usize) -> (f64, f64) {
    if payloads.is_empty() {
        return (0.0, 0.0);
    }
    let records: Vec<NodeRecord> = payloads
        .iter()
        .map(|(path, data)| node_record(path, data, 1))
        .collect();
    let calls = (records.len() * rounds) as f64;
    let host = Instant::now();
    let mut frames = Vec::with_capacity(records.len());
    for _ in 0..rounds {
        frames.clear();
        for record in &records {
            frames.push(fk_core::codec::encode_node(std::hint::black_box(record)));
        }
    }
    let encode = host.elapsed().as_nanos() as f64 / calls;
    let host = Instant::now();
    for _ in 0..rounds {
        for frame in &frames {
            let record = fk_core::codec::decode_node(std::hint::black_box(frame));
            std::hint::black_box(record.expect("own frame decodes"));
        }
    }
    let decode = host.elapsed().as_nanos() as f64 / calls;
    (encode, decode)
}

/// USD per service for metered usage, under the AWS price sheet.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Cost {
    pub queue: f64,
    pub kv: f64,
    pub object: f64,
    pub functions: f64,
}

impl Cost {
    pub fn total(&self) -> f64 {
        self.queue + self.kv + self.object + self.functions
    }
}

pub fn price(usage: &Usage) -> Cost {
    let cost = fk_cost::price_usage(usage, &fk_cost::AwsPricing::default());
    Cost {
        queue: cost.queue,
        kv: cost.kv,
        object: cost.object,
        functions: cost.functions,
    }
}

/// USD to rent the smallest evaluated VM class for `seconds`: what a
/// node-local engine costs while it is busy.
pub fn vm_rent_usd(seconds: f64) -> f64 {
    fk_cost::VmClass::T3Small.daily_cost() / 86_400.0 * seconds
}

/// A seeded zipf key stream over `0..n` (rank 0 hottest).
pub struct Zipf(fk_workloads::SeededZipf);

impl Zipf {
    pub fn new(n: u64, theta: f64, seed: u64) -> Zipf {
        Zipf(fk_workloads::SeededZipf::with_theta(n, theta, seed))
    }

    pub fn next_key(&mut self) -> u64 {
        self.0.next_key()
    }
}

/// The leader lane a write to `path` is routed to, of `lanes`.
pub fn lane_of(path: &str, lanes: usize) -> usize {
    fk_cloud::queue::group_of(path, lanes)
}
