//! The leader function (Algorithm 2, §3.2), rebuilt around the
//! [`crate::distributor`] pipeline and scaled out as a **tier**: one
//! leader instance per shard group, each the single active consumer of
//! its group's FIFO queue (the queue's one ordering group enforces it;
//! `DistributorConfig::groups == 1` reproduces the paper's single
//! leader exactly). Where the paper's leader replicates one transaction
//! at a time, each instance processes its queue batch as a pipeline:
//!
//! ➊a **Sequence** — split the batch by the partial order Z2 and the
//! per-node `txq` actually impose. A record is *held* iff (a) its
//! session predecessor (possibly on another shard group) has not been
//! distributed yet, per the session's high-water mark in system storage
//! or an earlier eligible record of the batch, or (b) an earlier record
//! of its session in this batch is held, or (c) a node it mutates is
//! mutated by an earlier held record; everything else is *eligible*,
//! even behind a held record. The decision costs **one** strong read of
//! the mark per unresolved session: the invocation runs phases ➊–➎ over
//! the eligible records in batch order, then defers from the first held
//! record back to the queue, burning no redelivery attempt — it never
//! waits. Records it processed from behind a held one come back with
//! that suffix; the warm instance remembers their txids and skips them
//! on redelivery for free (a cold one resolves them as already
//! processed). The wait lives in whoever drives the lane: the runtime's
//! queue trigger parks a wholly deferred batch outside the sandbox,
//! unbilled, until another trigger consumed a message
//! (`fk_cloud::faas`); direct drivers re-offer a deferred lane only
//! after another lane ran. ➊ **Verify** — check every transaction's
//! system-storage commit (sharded parallel reads); for
//! missing commits, `TryCommit` on the failed follower's behalf and
//! reject the request if the locks were lost. ➋ **Segment** the batch
//! into *epochs* at transactions with live watch registrations
//! (non-consuming queries: the batch's distinct watch classes are read
//! in one parallel wave, and a class is read again only after an epoch
//! cut consumed it) or at parent/child creation conflicts that the
//! fan-out waves cannot order across shards. ➌ **Distribute** each
//! epoch to every replica region through the sharded fan-out
//! ([`crate::distributor::Distributor::apply_epoch`]), then advance the
//! distributed sessions' high-water marks. ➍ **Consume** the
//! epoch-ending transaction's watches (one-shot, only after its writes
//! are durable, so a nacked batch keeps registrations), publish the
//! fired ids with a single epoch-counter bump per region before later
//! transactions commit (Z4), dispatch the deliveries, and notify
//! clients in transaction order. ➎ **Pop** the transactions from their
//! nodes' pending queues with coalesced conditional updates. The batch
//! ends by waiting for all watch deliveries (`WaitAll`).
//!
//! The full cross-tier consistency argument lives in
//! `docs/consistency.md`.

use crate::api::{FkError, WatchEvent, WatchEventType, WatchKind};
use crate::distributor::{AdaptiveBatch, CommittedTx, Distributor, DistributorConfig, PathLockSet};
use crate::messages::{
    ClientNotification, FiredWatch, LeaderRecord, Payload, UserUpdate, WriteResultData,
};
use crate::notify::ClientBus;
use crate::system_store::{node_attr, SystemStore, WatchInstance};
use crate::user_store::UserStore;
use crate::watch_fn::WatchTask;
use bytes::Bytes;
use fk_cloud::faas::FnError;
use fk_cloud::ops::Op;
use fk_cloud::queue::{Message, Queue};
use fk_cloud::retry::{with_retry, RetryPolicy};
use fk_cloud::trace::Ctx;
use fk_cloud::value::Value;
use fk_cloud::{CloudError, ObjectStore};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// How watch notifications are dispatched to the watch function (§4.1
/// "Decoupling Watch Delivery": a separate free function scales delivery
/// independently of the leader).
pub trait WatchDispatcher: Send + Sync {
    /// Starts delivery of `task`; returns a handle joined at `WaitAll`.
    fn dispatch(&self, ctx: &Ctx, task: WatchTask) -> WatchHandle;
}

/// Handle for a pending watch delivery.
pub struct WatchHandle {
    /// Virtual-time fork to join (inline dispatch).
    pub forked: Option<Ctx>,
    /// Async completion channel (runtime dispatch).
    pub rx: Option<crossbeam::channel::Receiver<Result<Bytes, FnError>>>,
}

impl WatchHandle {
    /// Waits for completion, merging virtual time into `ctx`.
    pub fn wait(self, ctx: &Ctx) {
        if let Some(rx) = self.rx {
            let _ = rx.recv_timeout(std::time::Duration::from_secs(30));
        }
        if let Some(forked) = self.forked {
            ctx.join(std::slice::from_ref(&forked));
        }
    }
}

/// The leader function body.
pub struct Leader {
    system: SystemStore,
    staging: ObjectStore,
    bus: ClientBus,
    dispatcher: Arc<dyn WatchDispatcher>,
    distributor: Distributor,
    /// Epoch batch window, adapted between drains from observed queue
    /// depth (static when `min_batch == max_batch`).
    batch: AdaptiveBatch,
    /// What a warm instance remembers between invocations (one lock,
    /// taken once per phase, never per record).
    warm: parking_lot::Mutex<Warm>,
    /// Shared distributed-txid high-water publication, when deployed:
    /// advanced after each epoch's storage waves complete (in-memory
    /// atomics only — no store traffic) and piggybacked onto heartbeat
    /// pings so idle sessions' MRD keeps advancing.
    floors: Option<Arc<crate::replica::CommittedFloors>>,
}

/// Warm-instance state. A cold start loses it, which is merely slower,
/// never wrong: marks are re-read, and a redelivered record that was
/// already processed resolves through `CommitState::AlreadyProcessed`.
#[derive(Default)]
struct Warm {
    /// Lower bound of each session's distribution high-water mark.
    /// Marks only ever advance — even across deregistration and
    /// re-registration of a session id, because they live on the
    /// persistent `seq:` item and a reincarnated session floors its
    /// allocations above them — so a remembered value that satisfies a
    /// hold-back check stays valid forever; the common case (a session
    /// whose writes keep landing on this group) never re-reads the
    /// store.
    marks: HashMap<String, u64>,
    /// Txids this instance fully processed from *behind* a held record:
    /// their messages went back to the queue with the deferred suffix
    /// and are skipped on redelivery. An entry leaves when its message
    /// is acknowledged in a prefix, so the set is bounded by the lane's
    /// backlog.
    ahead: HashSet<u64>,
}

impl Warm {
    /// Raises the remembered mark of `session` to at least `txid`
    /// (allocates only on the session's first sighting).
    fn note_mark(&mut self, session: &str, txid: u64) {
        match self.marks.get_mut(session) {
            Some(seen) => *seen = (*seen).max(txid),
            None => {
                self.marks.insert(session.to_owned(), txid);
            }
        }
    }
}

/// One decoded queue record: (batch index, txid, record).
type Decoded = (usize, u64, LeaderRecord);

/// Phase ➊a's verdict on one batch (see [`Leader::sequence`]).
struct Sequenced<'a> {
    /// Records whose ordering constraints hold, in batch order.
    eligible: Vec<&'a Decoded>,
    /// Batch index of the first held record.
    first_held: Option<usize>,
    /// Redelivered records this instance already processed from behind
    /// a held record ([`Warm::ahead`]): (batch index, txid).
    applied_ahead: Vec<(usize, u64)>,
}

impl Sequenced<'_> {
    /// True if batch index `index` lies behind a held record.
    fn is_ahead(&self, index: usize) -> bool {
        self.first_held.is_some_and(|held| index > held)
    }
}

/// Commit state of one record after verification (Algorithm 2 ➊).
enum CommitState {
    Committed,
    AlreadyProcessed,
    Missing,
}

/// Outcome of phase ➊/➋ for one record: either it distributes, or it was
/// fully handled (notified / deregistered / rejected).
enum Disposition {
    Distribute {
        /// Resolved payload of a single-op record.
        data: Bytes,
        /// Per-sub resolved payloads of a multi record (aligned with
        /// `record.ops`; empty `Bytes` for non-write subs).
        multi_data: Vec<Bytes>,
    },
    Done,
}

/// A run of committed transactions in which only the last is expected to
/// fire watch notifications.
struct Epoch<'a> {
    items: Vec<CommittedTx<'a>>,
    /// True if the last transaction had live watch registrations at
    /// segmentation time; `run_epoch` consumes (and re-checks) them after
    /// the epoch's writes are durable.
    fires: bool,
}

impl<'a> Epoch<'a> {
    fn new() -> Self {
        Epoch {
            items: Vec::new(),
            fires: false,
        }
    }

    fn first_index(&self) -> usize {
        self.items.first().map(|tx| tx.msg_index).unwrap_or(0)
    }
}

impl Leader {
    /// Creates the function body with the default distributor pipeline.
    /// `user_stores` holds one replica per region.
    pub fn new(
        system: SystemStore,
        user_stores: Vec<Arc<dyn UserStore>>,
        staging: ObjectStore,
        bus: ClientBus,
        dispatcher: Arc<dyn WatchDispatcher>,
    ) -> Self {
        Self::with_config(
            system,
            user_stores,
            staging,
            bus,
            dispatcher,
            DistributorConfig::default(),
        )
    }

    /// Creates the function body with an explicit distributor pipeline
    /// (shard count and epoch batch size).
    pub fn with_config(
        system: SystemStore,
        user_stores: Vec<Arc<dyn UserStore>>,
        staging: ObjectStore,
        bus: ClientBus,
        dispatcher: Arc<dyn WatchDispatcher>,
        config: DistributorConfig,
    ) -> Self {
        Self::with_shared(
            system,
            user_stores,
            staging,
            bus,
            dispatcher,
            config,
            Arc::new(PathLockSet::new()),
        )
    }

    /// Creates the function body sharing a [`PathLockSet`] with the
    /// deployment's other leader instances. Required when
    /// `config.groups > 1`: the lock set is what makes concurrent
    /// read-modify-writes of one record from different shard groups
    /// atomic (see [`crate::distributor`]).
    #[allow(clippy::too_many_arguments)]
    pub fn with_shared(
        system: SystemStore,
        user_stores: Vec<Arc<dyn UserStore>>,
        staging: ObjectStore,
        bus: ClientBus,
        dispatcher: Arc<dyn WatchDispatcher>,
        config: DistributorConfig,
        locks: Arc<PathLockSet>,
    ) -> Self {
        let distributor = Distributor::with_shared(system.clone(), user_stores, config, locks);
        Leader {
            system,
            staging,
            bus,
            dispatcher,
            distributor,
            batch: AdaptiveBatch::new(config.min_batch, config.max_batch),
            warm: parking_lot::Mutex::new(Warm::default()),
            floors: None,
        }
    }

    /// Subscribes a read-replica tier to this leader's distributor (fed
    /// after each epoch's storage waves; see [`crate::replica`]).
    pub fn attach_replicas(&mut self, replicas: crate::replica::ReplicaSet) {
        self.distributor.attach_replicas(replicas);
    }

    /// Attaches the shared distributed-txid high-water publication
    /// ([`crate::replica::CommittedFloors`]), advanced after every
    /// applied epoch for the heartbeat's MRD piggyback.
    pub fn attach_floors(&mut self, floors: Arc<crate::replica::CommittedFloors>) {
        self.floors = Some(floors);
    }

    /// Cuts a consistent checkpoint of the user-store tree through this
    /// leader's distributor into its staging bucket
    /// ([`Distributor::cut_checkpoint`]). Requires attached floors —
    /// the checkpoint's per-group committed coordinates come from them.
    pub fn cut_checkpoint(
        &self,
        ctx: &Ctx,
        id: u64,
    ) -> fk_cloud::CloudResult<crate::transfer::CheckpointManifest> {
        let floors =
            self.floors
                .as_ref()
                .ok_or_else(|| fk_cloud::CloudError::InvalidOperation {
                    detail: "checkpoint needs attached committed floors".into(),
                })?;
        self.distributor
            .cut_checkpoint(ctx, id, &self.staging, floors)
    }

    /// The meter retries are reported to (the deployment-shared meter
    /// behind the system table).
    fn meter(&self) -> &fk_cloud::Meter {
        self.system.kv().meter()
    }

    /// Records this instance has processed from behind a held record
    /// and whose messages are still queued (0 at quiescence).
    pub fn applied_ahead(&self) -> usize {
        self.warm.lock().ahead.len()
    }

    /// Advances the shared distributed-txid high-water publication, if
    /// attached, to cover `txids`.
    fn publish_floors(&self, txids: impl IntoIterator<Item = u64>) {
        if let Some(floors) = &self.floors {
            for txid in txids {
                floors.publish(self.distributor.group_of(txid), txid);
            }
        }
    }

    /// The distribution pipeline configuration in effect.
    pub fn distributor_config(&self) -> &DistributorConfig {
        self.distributor.config()
    }

    /// Entry point for a queue batch.
    pub fn process_messages(&self, ctx: &Ctx, messages: &[Message]) -> Result<(), FnError> {
        let mut decoded: Vec<Decoded> = Vec::with_capacity(messages.len());
        for (i, msg) in messages.iter().enumerate() {
            ctx.charge(Op::FnCompute, msg.body.len());
            if let Some(record) = LeaderRecord::decode(&msg.body) {
                // The follower allocates the txid (epoch-prefixed per
                // shard group) and stamps it into the record; the queue
                // sequence number only backs hand-built legacy records.
                let txid = if record.txid > 0 {
                    record.txid
                } else {
                    msg.seq
                };
                decoded.push((i, txid, record));
            }
        }
        let mut handles = Vec::new();
        let result = self.process_decoded(ctx, &decoded, &mut handles);
        // WaitAll(WatchCallback): the batch does not finish until all
        // watch notifications are delivered.
        for handle in handles {
            handle.wait(ctx);
        }
        result
    }

    /// Drains and processes one epoch batch from the leader queue (the
    /// direct-drive equivalent of the runtime's batch-window trigger).
    /// Returns the number of transactions processed. The drain window is
    /// the [`AdaptiveBatch`] controller's — growing toward
    /// `config.max_batch` while the queue stays backlogged, shrinking
    /// toward `config.min_batch` when it runs dry.
    pub fn drain_queue(&self, ctx: &Ctx, queue: &Queue) -> Result<usize, FnError> {
        let max = self.batch.window();
        let Some(batch) = queue.receive_up_to(max, Duration::from_secs(30)) else {
            self.batch.observe(0, 0);
            return Ok(0);
        };
        let bytes: usize = batch.messages.iter().map(|m| m.body.len()).sum();
        ctx.charge(Op::QueueDispatch(queue.kind()), bytes);
        let outcome = self.process_messages(ctx, &batch.messages);
        let consumed = queue.settle(batch.receipt, &outcome);
        outcome.map(|()| {
            self.batch.observe(consumed, queue.pending());
            consumed
        })
    }

    /// The current epoch batch window.
    pub fn batch_window(&self) -> usize {
        self.batch.window()
    }

    /// Processes one confirmed transaction (single-record entry point,
    /// kept for direct drivers; a batch of one is one epoch).
    pub fn process_record(
        &self,
        ctx: &Ctx,
        txid: u64,
        record: &LeaderRecord,
        handles: &mut Vec<WatchHandle>,
    ) -> Result<(), FnError> {
        let decoded = vec![(0usize, txid, record.clone())];
        self.process_decoded(ctx, &decoded, handles)
    }

    fn process_decoded(
        &self,
        ctx: &Ctx,
        decoded: &[Decoded],
        handles: &mut Vec<WatchHandle>,
    ) -> Result<(), FnError> {
        let batch = self.sequence(ctx, decoded);
        let result = self.process_eligible(ctx, &batch, handles);
        // The queue acknowledges every message before the reported
        // index; records processed ahead that sit in that prefix are
        // leaving the queue, and with everything queued before them now
        // distributed their txids join the group's high-water marks.
        let acked_below = match &result {
            Ok(()) => usize::MAX,
            Err(e) => e.failed_index,
        };
        let leaving: Vec<u64> = batch
            .applied_ahead
            .iter()
            .filter(|(index, _)| *index < acked_below)
            .map(|(_, txid)| *txid)
            .collect();
        if !leaving.is_empty() {
            {
                let mut warm = self.warm.lock();
                for txid in &leaving {
                    warm.ahead.remove(txid);
                }
            }
            self.publish_floors(leaving.iter().copied());
            self.distributor.feed_high_water(ctx, &leaving);
        }
        result
    }

    /// Phases ➊–➎ over the batch's eligible records, then the deferral
    /// of the held ones.
    ///
    /// Partial-batch failure contract: `at_index(i)` tells the queue
    /// that messages *before* `i` are fully processed. A held record is
    /// never processed, so no reported index passes the first held one.
    fn process_eligible(
        &self,
        ctx: &Ctx,
        batch: &Sequenced<'_>,
        handles: &mut Vec<WatchHandle>,
    ) -> Result<(), FnError> {
        let not_past_held = |index: usize| batch.first_held.map_or(index, |held| held.min(index));

        // ➊ verify commits (sharded parallel reads + sequential repair).
        // Until an epoch's distribution completes nothing is fully
        // processed — phase ➊ only repairs system storage and sends
        // idempotent notifications — so every failure up to and
        // including the first epoch maps to index 0 (redeliver the
        // whole batch; redelivery re-resolves each record idempotently).
        let mut committed: Vec<CommittedTx<'_>> = Vec::new();
        let mut resolved_ahead: Vec<u64> = Vec::new();
        let states = self.preverify(ctx, &batch.eligible)?;
        for (&(index, txid, record), state) in batch.eligible.iter().zip(states) {
            let ahead = batch.is_ahead(*index);
            match self.resolve_disposition(ctx, *txid, record, state) {
                Ok(Disposition::Distribute { data, multi_data }) => committed.push(CommittedTx {
                    msg_index: *index,
                    txid: *txid,
                    record,
                    data,
                    multi_data,
                    ahead,
                }),
                Ok(Disposition::Done) if ahead => resolved_ahead.push(*txid),
                Ok(Disposition::Done) => {}
                Err(e) => return Err(e.at_index(0)),
            }
        }
        self.remember_ahead(batch, resolved_ahead);

        // ➋ cut epochs at transactions whose watches will fire. The
        // queries here are non-consuming; one-shot consumption happens
        // inside `run_epoch`, *after* that epoch's writes are durable, so
        // a retryable failure never strands consumed-but-undispatched
        // registrations of later epochs.
        let epochs = self
            .segment_epochs(ctx, committed)
            .map_err(|e| e.at_index(0))?;

        // ➌–➎ per epoch: distribute, publish + notify, pop. After epoch
        // k completes, every eligible message up to its last index is
        // fully processed (interleaved `Done` records were handled
        // idempotently in phase ➊), so epoch k+1's failures nack from
        // its own first message — or from the first held one, if that
        // comes earlier.
        for epoch in epochs {
            self.run_epoch(ctx, &epoch, handles)
                .map_err(|e| e.at_index(not_past_held(epoch.first_index())))?;
            self.remember_ahead(
                batch,
                epoch.items.iter().filter(|tx| tx.ahead).map(|tx| tx.txid),
            );
        }

        // Everything eligible is fully processed; ask the queue to
        // redeliver from the first held record once its predecessors (on
        // other shard groups) have caught up.
        match batch.first_held {
            Some(index) => Err(FnError::defer(
                "held back: session predecessor not yet distributed",
            )
            .at_index(index)),
            None => Ok(()),
        }
    }

    /// Remembers records fully processed from behind a held record, so
    /// their redelivery with the deferred suffix is skipped for free.
    fn remember_ahead(&self, batch: &Sequenced<'_>, txids: impl IntoIterator<Item = u64>) {
        if batch.first_held.is_some() {
            self.warm.lock().ahead.extend(txids);
        }
    }

    /// Phase ➊a: splits the batch by its cross-shard sequencing
    /// constraints (Z2) into records to process now and records to hold.
    /// A record is **held** iff
    ///
    /// * (a) its `prev_txid` is covered neither by the session's
    ///   distribution high-water mark (remembered, or read from system
    ///   storage **once** per unresolved session and batch) nor by an
    ///   earlier *eligible* record of this batch — the predecessor is in
    ///   another group's lane, and a billed invocation is the wrong
    ///   place to wait for it (see the module doc for where the wait
    ///   lives); or
    /// * (b) an earlier record of its session in this batch is held; or
    /// * (c) a node it mutates is mutated by an earlier held record (the
    ///   node's `txq` lists that record's txid first, and ➎ pops by
    ///   head).
    ///
    /// A deregistration never skips ahead of a held record. Everything
    /// else is eligible, whatever its position: Z2 and the per-node
    /// `txq` impose a partial order, and (a)–(c) are exactly its edges
    /// (`docs/consistency.md` § Apply order). Hold-back edges always
    /// point to earlier-pushed transactions, so the wait is cycle-free.
    fn sequence<'a>(&self, ctx: &Ctx, decoded: &'a [Decoded]) -> Sequenced<'a> {
        let mut batch = Sequenced {
            eligible: Vec::with_capacity(decoded.len()),
            first_held: None,
            applied_ahead: Vec::new(),
        };
        // A single-group tier funnels every record through this one
        // queue, so each predecessor was processed earlier in it: the
        // constraints hold by construction and the checks (plus their
        // high-water-mark reads) would be pure overhead.
        if self.distributor.config().groups <= 1 {
            batch.eligible.extend(decoded);
            return batch;
        }
        let mut warm = self.warm.lock();
        // Highest eligible txid of each session seen earlier in this batch.
        let mut in_batch: HashMap<&str, u64> = HashMap::new();
        // Sessions whose mark was read from the store for this batch.
        let mut probed: HashSet<&str> = HashSet::new();
        let mut held_sessions: HashSet<&str> = HashSet::new();
        let mut held_paths: HashSet<&str> = HashSet::new();
        for entry in decoded {
            let (index, txid, record) = entry;
            if warm.ahead.contains(txid) {
                batch.applied_ahead.push((*index, *txid));
                continue;
            }
            let session = record.session_id.as_str();
            let prev = record.prev_txid;
            // A deregistration behind a held record, (b), (c).
            let blocked = (record.deregister_session && batch.first_held.is_some())
                || held_sessions.contains(session)
                || mutated_paths(record).any(|path| held_paths.contains(path));
            // (a), cheapest evidence first. Marks only advance, so the
            // remembered one is a sound lower bound: sessions whose
            // writes keep landing on this group never touch the store
            // here, and no session does twice per batch.
            let covers = |mark: Option<&u64>| mark.is_some_and(|seen| *seen >= prev);
            let predecessor_distributed = |warm: &mut Warm, probed: &mut HashSet<&'a str>| {
                prev == 0
                    || covers(in_batch.get(session))
                    || covers(warm.marks.get(session))
                    || probed.insert(session) && {
                        let applied = self.system.session_applied_txid(ctx, session);
                        warm.note_mark(session, applied);
                        applied >= prev
                    }
            };
            if blocked || !predecessor_distributed(&mut warm, &mut probed) {
                batch.first_held.get_or_insert(*index);
                held_sessions.insert(session);
                held_paths.extend(mutated_paths(record));
            } else {
                let seen = in_batch.entry(session).or_insert(0);
                *seen = (*seen).max(*txid);
                batch.eligible.push(entry);
            }
        }
        batch
    }

    /// Phase ➊ reads: fetches every record's node item and classifies the
    /// commit state, sharded by path and fanned out in parallel (the
    /// reads are independent; repair stays sequential).
    fn preverify(&self, ctx: &Ctx, decoded: &[&Decoded]) -> Result<Vec<CommitState>, FnError> {
        use parking_lot::Mutex;
        let shards = self.distributor.config().shards.max(1);
        let mut per_shard: Vec<Vec<usize>> = (0..shards).map(|_| Vec::new()).collect();
        for (pos, (_, _, record)) in decoded.iter().enumerate() {
            if !record.deregister_session {
                per_shard[crate::distributor::shard_of(record.shard_key(), shards)].push(pos);
            }
        }
        let jobs: Vec<&Vec<usize>> = per_shard.iter().filter(|s| !s.is_empty()).collect();
        let states: Vec<Mutex<Option<CommitState>>> =
            decoded.iter().map(|_| Mutex::new(None)).collect();
        ctx.span("get_node", || {
            crate::distributor::fan_out(ctx, jobs.len(), |job, child| {
                for &pos in jobs[job] {
                    let (_, txid, record) = decoded[pos];
                    let item = self.system.get_node(child, &record.path);
                    let txq_has = item
                        .as_ref()
                        .and_then(|i| i.list(node_attr::TXQ))
                        .map(|q| q.contains(&Value::Num(*txid as i64)))
                        .unwrap_or(false);
                    let state = if txq_has {
                        CommitState::Committed
                    } else if item
                        .as_ref()
                        .and_then(|i| i.num(node_attr::VERSION))
                        .map(|v| v as u64 >= *txid)
                        .unwrap_or(false)
                    {
                        CommitState::AlreadyProcessed
                    } else {
                        CommitState::Missing
                    };
                    *states[pos].lock() = Some(state);
                }
                Ok(())
            })
        })
        .map_err(|e| FnError::retryable(e.to_string()))?;
        Ok(states
            .into_iter()
            .map(|s| s.into_inner().unwrap_or(CommitState::Missing))
            .collect())
    }

    /// Phase ➊ repair: turns a commit state into a disposition, running
    /// `TryCommit` for missing commits and notifying terminal outcomes.
    fn resolve_disposition(
        &self,
        ctx: &Ctx,
        txid: u64,
        record: &LeaderRecord,
        state: CommitState,
    ) -> Result<Disposition, FnError> {
        if record.deregister_session {
            // Removal is idempotent: deleting an already-deleted session
            // item is a no-op, so absorbing transient store errors here
            // is safe.
            with_retry(
                ctx,
                self.meter(),
                &RetryPolicy::standard(),
                "leader.deregister",
                || self.system.remove_session(ctx, &record.session_id),
            )
            .map_err(|e| FnError::retryable(e.to_string()))?;
            // The deregistration's txid is a *recorded* push (the
            // follower ran `record_push_mark` on it), so a redelivered
            // or duplicated CloseSession names it as `prev_txid` — its
            // record would hold the whole group back forever if the
            // applied mark stopped at the last data write. Resolving the
            // mark here keeps the hold-back chain live past the first
            // deregistration.
            self.mark_resolved(ctx, txid, record)?;
            // The memo entry is dead weight once the session item is
            // gone (a warm instance would otherwise accumulate one per
            // session it ever served).
            self.warm.lock().marks.remove(&record.session_id);
            self.notify_success(ctx, txid, record);
            self.bus.deregister(&record.session_id);
            return Ok(Disposition::Done);
        }
        match state {
            CommitState::Committed => {}
            CommitState::AlreadyProcessed => {
                // Redelivery after a leader crash: the user store already
                // has this version; re-notify idempotently (and repair
                // the session's high-water mark, in case the crash hit
                // between distribution and the mark update).
                self.mark_resolved(ctx, txid, record)?;
                self.notify_success(ctx, txid, record);
                return Ok(Disposition::Done);
            }
            CommitState::Missing => {
                // ➋ the follower died between push and commit — or is
                // simply still committing (push happens *before* commit,
                // Algorithm 1): TryCommit on its behalf.
                // Throttles and injected transients are absorbed here so
                // they never masquerade as an abandoned transaction; a
                // *real* guard failure (ConditionFailed /
                // TransactionCancelled) is not retryable and falls
                // through to the race re-check below. A failed commit
                // attempt is all-or-nothing (single transact), so the
                // retry repeats against unchanged state.
                let result = ctx.span("commit", || {
                    with_retry(
                        ctx,
                        self.meter(),
                        &RetryPolicy::quick(),
                        "leader.try_commit",
                        || crate::commit::execute(&record.commit, txid, ctx, self.system.kv()),
                    )
                });
                match result {
                    Ok(()) => {
                        // The follower never got past the push: take over
                        // its ephemeral-lifecycle bookkeeping too (every
                        // sub of a multi).
                        let sub_updates =
                            record.ops.iter().map(|sub| (&sub.user_update, &sub.path));
                        for (update, path) in
                            std::iter::once((&record.user_update, &record.path)).chain(sub_updates)
                        {
                            if let UserUpdate::WriteNode {
                                ephemeral_owner: Some(owner),
                                created_txid: 0,
                                ..
                            } = update
                            {
                                let _ = self.system.add_session_ephemeral(ctx, owner, path);
                            }
                        }
                    }
                    Err(CloudError::ConditionFailed { .. })
                    | Err(CloudError::TransactionCancelled { .. }) => {
                        // The guard failed: either the follower's own
                        // commit won the race (benign interleaving) or the
                        // locks expired and were stolen (real failure).
                        // Re-check which case this is.
                        let landed = self
                            .system
                            .get_node(ctx, &record.path)
                            .and_then(|i| {
                                i.list(node_attr::TXQ)
                                    .map(|q| q.contains(&Value::Num(txid as i64)))
                            })
                            .unwrap_or(false);
                        if !landed {
                            // The request never committed; a failed
                            // follower does not impact system consistency.
                            // An abandoned txid the session *recorded*
                            // (its next write names it as predecessor)
                            // still advances the high-water mark — and
                            // nothing else will ever resolve it; an
                            // unrecorded orphan must not (see
                            // `mark_resolved`).
                            self.mark_resolved(ctx, txid, record)?;
                            self.notify_error(
                                ctx,
                                record,
                                FkError::SystemError {
                                    detail: "transaction abandoned after follower failure".into(),
                                },
                            );
                            return Ok(Disposition::Done);
                        }
                    }
                    Err(e) => return Err(FnError::retryable(e.to_string())),
                }
            }
        }
        let data = self.resolve_payload(ctx, &record.user_update)?;
        let mut multi_data = Vec::with_capacity(record.ops.len());
        for sub in &record.ops {
            multi_data.push(self.resolve_payload(ctx, &sub.user_update)?);
        }
        Ok(Disposition::Distribute { data, multi_data })
    }

    /// Advances the session's distribution high-water mark for a record
    /// resolved without distribution (already processed, or abandoned) —
    /// only meaningful, and only paid for, in a multi-group tier.
    ///
    /// Guarded by the session's `last_txid`: only a txid the follower
    /// *recorded* — one a successor can actually name as `prev_txid` —
    /// may advance the mark. A record whose commit errored retryably
    /// leaves an unrecorded *orphan* push behind (the redelivered
    /// request re-allocates and re-pushes); the orphan's txid can exceed
    /// the re-allocated one when a sequential-create rename moves the
    /// retry onto another shard group, and advancing to it would let a
    /// successor bypass the hold-back while recorded predecessors are
    /// still undistributed. Nothing ever waits on an orphan, so skipping
    /// it is always safe.
    fn mark_resolved(&self, ctx: &Ctx, txid: u64, record: &LeaderRecord) -> Result<(), FnError> {
        if self.distributor.config().groups > 1 && txid > 0 {
            let recorded = self.system.session_last_txid(ctx, &record.session_id);
            if txid <= recorded {
                // The mark is a monotone max — a duplicate advance is a
                // no-op, so retrying a transient failure is safe.
                with_retry(
                    ctx,
                    self.meter(),
                    &RetryPolicy::standard(),
                    "leader.mark",
                    || {
                        self.system
                            .advance_session_applied(ctx, &record.session_id, txid)
                    },
                )
                .map_err(|e| FnError::retryable(e.to_string()))?;
                self.warm.lock().note_mark(&record.session_id, txid);
            }
        }
        Ok(())
    }

    /// Phase ➋: splits the committed run into epochs at transactions
    /// whose watches will fire (only those advance the region epoch
    /// counters). The check is a *non-consuming* registry read —
    /// one-shot consumption is deferred to `run_epoch` so that a nacked
    /// batch never loses registrations that were consumed for an epoch
    /// that did not get distributed. A registration racing in between is
    /// picked up by a later transaction, which is a valid linearization
    /// of the concurrent register.
    ///
    /// The registry is read **once per distinct class per batch, in one
    /// parallel wave**: the batch's `(watch_path, event_type)` classes
    /// are collected up front and queried together, so the phase costs
    /// one storage round trip however many classes the batch fires (a
    /// create-heavy batch fires the same parent's children class once
    /// per transaction). The liveness answer cannot change inside a
    /// batch except when an epoch cut consumes the registrations, at
    /// which point the memo forgets exactly the fired paths and a later
    /// transaction firing them re-queries. A concurrent registration
    /// that lands mid-batch is observed by the next batch, which is the
    /// same valid linearization as before.
    fn segment_epochs<'a>(
        &self,
        ctx: &Ctx,
        committed: Vec<CommittedTx<'a>>,
    ) -> Result<Vec<Epoch<'a>>, FnError> {
        let fires: Vec<Vec<FiredWatch>> = committed
            .iter()
            .map(|tx| fires_with_subtree(tx.record))
            .collect();
        // (path, event type) → "has live registrations", valid until the
        // path's registrations are consumed by an epoch cut.
        let mut live_memo = self.query_classes(ctx, &fires)?;
        let mut epochs: Vec<Epoch<'a>> = Vec::new();
        let mut current = Epoch::new();
        // Node paths written by a `WriteNode` earlier in the current
        // epoch. A later transaction whose parent-children rewrite
        // targets one of these (a child created under a node that this
        // same epoch creates) would demote that node's write out of
        // fan-out wave ➀ and break the cross-shard visibility invariants
        // of `apply_epoch`; cutting the epoch at the conflict keeps the
        // waves sound — the child's transaction simply starts the next
        // epoch, mirroring the sequential leader's order.
        let mut written: HashSet<&'a str> = HashSet::new();
        for (tx, all_fires) in committed.into_iter().zip(&fires) {
            let record: &'a LeaderRecord = tx.record;
            if record.is_multi() {
                // A multi is always its **own epoch**: its subs are one
                // atomic unit under one txid, so an internal
                // parent/child conflict cannot be cut apart — isolating
                // the record keeps the fan-out waves' visibility
                // reasoning local to it (all subs share the txid, so no
                // cross-transaction ordering can be observed against
                // them), and "the distributor applies the whole multi as
                // one epoch" is exactly the atomicity contract.
                if !current.items.is_empty() {
                    epochs.push(std::mem::replace(&mut current, Epoch::new()));
                }
                written.clear();
            } else {
                let children_target: Option<&'a str> = match &record.user_update {
                    UserUpdate::WriteNode {
                        parent_children: Some((parent, _)),
                        ..
                    }
                    | UserUpdate::DeleteNode {
                        parent_children: Some((parent, _)),
                        ..
                    } => Some(parent),
                    _ => None,
                };
                if children_target.is_some_and(|parent| written.contains(parent))
                    && !current.items.is_empty()
                {
                    epochs.push(std::mem::replace(&mut current, Epoch::new()));
                    written.clear();
                }
                if let UserUpdate::WriteNode { path, .. } = &record.user_update {
                    written.insert(path);
                }
            }
            let fires = self.fires_live(ctx, &mut live_memo, all_fires);
            current.items.push(tx);
            if fires {
                current.fires = true;
                // `run_epoch` consumes the fired paths' registrations
                // (one-shot); what the memo learned about them is stale.
                live_memo.retain(|(path, _), _| !all_fires.iter().any(|fw| fw.watch_path == *path));
            }
            if fires || record.is_multi() {
                epochs.push(std::mem::replace(&mut current, Epoch::new()));
                written.clear();
            }
        }
        if !current.items.is_empty() {
            epochs.push(current);
        }
        Ok(epochs)
    }

    /// True if any class `fires` names has live registrations; a class
    /// an epoch cut made the memo forget is read again.
    fn fires_live<'f>(
        &self,
        ctx: &Ctx,
        memo: &mut HashMap<(&'f str, WatchEventType), bool>,
        fires: &'f [FiredWatch],
    ) -> bool {
        !fires.is_empty()
            && ctx.span("query_watches", || {
                fires.iter().any(|fw| {
                    *memo
                        .entry((fw.watch_path.as_str(), fw.event_type))
                        .or_insert_with(|| self.class_is_live(ctx, &fw.watch_path, fw.event_type))
                })
            })
    }

    /// Non-consuming registry read of one watch class.
    fn class_is_live(&self, ctx: &Ctx, path: &str, event: WatchEventType) -> bool {
        !self
            .system
            .query_watches(ctx, path, kinds_for(event))
            .is_empty()
    }

    /// Reads every distinct watch class the batch fires in one parallel
    /// wave (the classes are independent registry items).
    fn query_classes<'f>(
        &self,
        ctx: &Ctx,
        fires: &'f [Vec<FiredWatch>],
    ) -> Result<HashMap<(&'f str, WatchEventType), bool>, FnError> {
        let mut seen = HashSet::new();
        let classes: Vec<(&str, WatchEventType)> = fires
            .iter()
            .flatten()
            .map(|fw| (fw.watch_path.as_str(), fw.event_type))
            .filter(|class| seen.insert(*class))
            .collect();
        let live: Vec<Cell<bool>> = classes.iter().map(|_| Cell::new(false)).collect();
        ctx.span("query_watches", || {
            crate::distributor::fan_out(ctx, classes.len(), |i, child| {
                let (path, event) = classes[i];
                live[i].set(self.class_is_live(child, path, event));
                Ok(())
            })
        })
        .map_err(|e| FnError::retryable(e.to_string()))?;
        Ok(classes
            .into_iter()
            .zip(live.iter().map(Cell::get))
            .collect())
    }

    /// Phases ➌–➎ for one epoch.
    fn run_epoch(
        &self,
        ctx: &Ctx,
        epoch: &Epoch<'_>,
        handles: &mut Vec<WatchHandle>,
    ) -> Result<(), FnError> {
        // ➌ sharded parallel distribution to every region's user store.
        ctx.span("update_user_storage", || {
            self.distributor.apply_epoch(ctx, &epoch.items)
        })
        .map_err(|e| FnError::retryable(e.to_string()))?;

        // The epoch is durable in every region: publish its txids as
        // this group's distributed high-water mark (in-memory atomics —
        // the heartbeat piggybacks the min over groups onto its pings;
        // no storage traffic is added here).
        // A record distributed ahead of a held one joins it later, when
        // its message leaves the queue (`process_decoded`): the mark
        // speaks for the lane's prefix.
        self.publish_floors(epoch.items.iter().filter(|tx| !tx.ahead).map(|tx| tx.txid));

        // The epoch's writes are durable in every replica: advance each
        // session's distribution high-water mark so successors held back
        // on other shard groups may proceed. Runs before the
        // notifications, so a synchronous client's next write never
        // stalls on its own predecessor. The marks of every session the
        // epoch touched piggyback into chunked multi-item transactions
        // (⌈N/25⌉ write requests instead of N, with per-item monotone
        // guards — see `advance_sessions_applied_batch`); the historical
        // per-session fan-out stays available as the measured baseline.
        if self.distributor.config().groups > 1 {
            let mut per_session: Vec<(&str, u64)> = Vec::new();
            for tx in &epoch.items {
                let session = tx.record.session_id.as_str();
                match per_session.iter_mut().find(|(s, _)| *s == session) {
                    Some((_, max)) => *max = (*max).max(tx.txid),
                    None => per_session.push((session, tx.txid)),
                }
            }
            // Marks are monotone maxes guarded per item: a retried chunk
            // (or fan-out leg) that already landed degrades to a no-op,
            // so transient failures are absorbed in place.
            if self.distributor.config().batched_marks {
                ctx.span("advance_session_marks", || {
                    with_retry(
                        ctx,
                        self.meter(),
                        &RetryPolicy::standard(),
                        "leader.marks",
                        || {
                            self.system
                                .advance_sessions_applied_batch(ctx, &per_session)
                        },
                    )
                })
                .map_err(|e| FnError::retryable(e.to_string()))?;
            } else {
                ctx.span("advance_session_marks", || {
                    crate::distributor::fan_out(ctx, per_session.len(), |i, child| {
                        let (session, txid) = per_session[i];
                        with_retry(
                            child,
                            self.meter(),
                            &RetryPolicy::standard(),
                            "leader.mark",
                            || self.system.advance_session_applied(child, session, txid),
                        )
                    })
                })
                .map_err(|e| FnError::retryable(e.to_string()))?;
            }
            let mut warm = self.warm.lock();
            for (session, txid) in per_session {
                warm.note_mark(session, txid);
            }
        }

        // ➍ consume the epoch-ending transaction's watch registrations
        // (one-shot, now that the epoch's writes are durable — a crash
        // before this point redelivers with registrations intact), then
        // one epoch-counter bump per region publishes all fired ids
        // before later transactions commit (Z4), and the deliveries
        // dispatch.
        if epoch.fires {
            let tx = epoch.items.last().expect("firing epoch is non-empty");
            let fires_all = fires_with_subtree(tx.record);
            let fired: Vec<(WatchInstance, WatchEventType, String)> =
                ctx.span("query_watches", || {
                    let mut fired = Vec::new();
                    for (path, kinds, events) in merge_fires(&fires_all) {
                        // Consumption is one-shot, but injected faults
                        // fire *before* the registry mutation: a failed
                        // attempt consumed nothing, so the retry sees the
                        // registrations intact.
                        let instances = with_retry(
                            ctx,
                            self.meter(),
                            &RetryPolicy::standard(),
                            "leader.consume_watches",
                            || self.system.consume_watches(ctx, path, &kinds),
                        )
                        .map_err(|e| FnError::retryable(e.to_string()))?;
                        for inst in instances {
                            let event_type = events
                                .iter()
                                .copied()
                                .find(|et| kinds_for(*et).contains(&inst.kind))
                                .expect("instance kind came from the merged kind set");
                            fired.push((inst, event_type, path.to_owned()));
                        }
                    }
                    Ok::<_, FnError>(fired)
                })?;
            if !fired.is_empty() {
                let ids: Vec<Value> = fired
                    .iter()
                    .map(|(inst, _, _)| Value::Num(inst.id as i64))
                    .collect();
                for region in self.distributor.regions() {
                    // The fault point rolls before the list append, so a
                    // failed attempt published nothing for this region;
                    // the retry is the first delivery, not a duplicate.
                    with_retry(
                        ctx,
                        self.meter(),
                        &RetryPolicy::standard(),
                        "leader.epoch_append",
                        || self.system.epoch(*region).append(ctx, ids.clone()),
                    )
                    .map_err(|e| FnError::retryable(e.to_string()))?;
                }
                let region_ids: Vec<u8> = self.distributor.regions().iter().map(|r| r.0).collect();
                for (inst, event_type, watch_path) in fired {
                    // A children event carries the full new list when the
                    // triggering record has it at hand (its parent's
                    // snapshot, taken under the node's follower lock), so
                    // caches can patch a resident parent in place instead
                    // of invalidating it.
                    let children = if event_type == WatchEventType::NodeChildrenChanged {
                        fired_children(tx.record, &watch_path)
                    } else {
                        None
                    };
                    let task = WatchTask {
                        watch_id: inst.id,
                        sessions: inst.sessions.clone(),
                        event: WatchEvent {
                            watch_id: inst.id,
                            path: watch_path,
                            event_type,
                            txid: tx.txid,
                            children,
                        },
                        regions: region_ids.clone(),
                    };
                    handles.push(self.dispatcher.dispatch(ctx, task));
                }
            }
        }

        // Notify clients in transaction order.
        for tx in &epoch.items {
            self.notify_success(ctx, tx.txid, tx.record);
        }

        // ➎ pop the transactions from their nodes' pending queues
        // (coalesced per path, sharded in parallel) and purge tombstones.
        ctx.span("pop_updates", || {
            self.distributor.finalize_epoch(ctx, &epoch.items)
        })
        .map_err(|e| FnError::retryable(e.to_string()))?;

        // Drop temporary staging objects (§4.4) — a multi's subs each
        // carry their own payload.
        for tx in &epoch.items {
            let updates = std::iter::once(&tx.record.user_update)
                .chain(tx.record.ops.iter().map(|sub| &sub.user_update));
            for update in updates {
                if let UserUpdate::WriteNode {
                    payload: Payload::Staged { key, .. },
                    ..
                } = update
                {
                    // Object deletion is idempotent; absorbing transients
                    // keeps a flaky store from re-running the whole epoch.
                    with_retry(
                        ctx,
                        self.staging.meter(),
                        &RetryPolicy::standard(),
                        "leader.staging_delete",
                        || self.staging.delete(ctx, key),
                    )
                    .map_err(|e| FnError::retryable(e.to_string()))?;
                }
            }
        }
        Ok(())
    }

    /// Fetches the payload bytes (inline base64 or staged object).
    fn resolve_payload(&self, ctx: &Ctx, update: &UserUpdate) -> Result<Bytes, FnError> {
        let payload = match update {
            UserUpdate::WriteNode { payload, .. } => payload,
            _ => return Ok(Bytes::new()),
        };
        match payload {
            Payload::Inline { data } => {
                // Raw bytes ride the record; "resolving" them is a
                // ref-count bump, not a base64 decode pass.
                ctx.charge(Op::FnCompute, data.len());
                Ok(data.clone())
            }
            Payload::Staged { key, .. } => with_retry(
                ctx,
                self.staging.meter(),
                &RetryPolicy::standard(),
                "leader.staging_get",
                || self.staging.get(ctx, key),
            )
            .map_err(|e| FnError::retryable(e.to_string())),
        }
    }

    fn notify_success(&self, ctx: &Ctx, txid: u64, record: &LeaderRecord) {
        if record.request_id == crate::follower::INTERNAL_REQUEST {
            return;
        }
        let mut stat = record.stat;
        stat.modified_txid = txid;
        if stat.created_txid == 0 && !record.is_delete {
            stat.created_txid = txid;
        }
        // Per-op results of a multi: every sub shares the record's single
        // txid — that one id stamping every outcome *is* the visible
        // all-or-nothing contract.
        let op_results: Vec<crate::messages::OpOutcome> = record
            .ops
            .iter()
            .map(|sub| {
                let mut outcome = sub.outcome.clone();
                match &mut outcome {
                    crate::messages::OpOutcome::Created { stat, .. } => {
                        stat.created_txid = txid;
                        stat.modified_txid = txid;
                    }
                    crate::messages::OpOutcome::Set { stat, .. } => {
                        stat.modified_txid = txid;
                        if stat.created_txid == 0 {
                            stat.created_txid = txid;
                        }
                    }
                    crate::messages::OpOutcome::Deleted { .. }
                    | crate::messages::OpOutcome::Checked { .. } => {}
                }
                outcome
            })
            .collect();
        ctx.span("notify_client", || {
            self.bus.notify(
                ctx,
                &record.session_id,
                ClientNotification::WriteResult {
                    request_id: record.request_id,
                    result: Ok(WriteResultData {
                        path: record.path.clone(),
                        stat,
                        op_results,
                    }),
                    txid,
                },
            );
        });
    }

    fn notify_error(&self, ctx: &Ctx, record: &LeaderRecord, err: FkError) {
        if record.request_id == crate::follower::INTERNAL_REQUEST {
            return;
        }
        ctx.span("notify_client", || {
            self.bus.notify(
                ctx,
                &record.session_id,
                ClientNotification::WriteResult {
                    request_id: record.request_id,
                    result: Err(err),
                    txid: 0,
                },
            );
        });
    }
}

/// The node paths `record` mutates — the items whose `txq` carries its
/// txid: the primary path and every mutating sub of a multi (checks
/// never enter a `txq`).
fn mutated_paths(record: &LeaderRecord) -> impl Iterator<Item = &str> {
    let subs = record
        .ops
        .iter()
        .filter(|sub| !matches!(sub.user_update, UserUpdate::None))
        .map(|sub| sub.path.as_str());
    std::iter::once(record.path.as_str())
        .filter(|path| !path.is_empty())
        .chain(subs)
}

/// The full children list of `path` carried by `record`, if the record
/// rewrote it: a create/delete snapshots its parent's new list under the
/// node's follower lock (`parent_children`), and a multi's subs each
/// carry their own. The *last* matching sub wins — its snapshot was
/// taken latest in the atomic unit.
fn fired_children(record: &LeaderRecord, path: &str) -> Option<Vec<String>> {
    let of_update = |update: &UserUpdate| -> Option<Vec<String>> {
        let (UserUpdate::WriteNode {
            parent_children, ..
        }
        | UserUpdate::DeleteNode {
            parent_children, ..
        }) = update
        else {
            return None;
        };
        parent_children
            .as_ref()
            .filter(|(parent, _)| parent == path)
            .map(|(_, children)| children.clone())
    };
    if record.is_multi() {
        return record
            .ops
            .iter()
            .rev()
            .find_map(|sub| of_update(&sub.user_update));
    }
    of_update(&record.user_update)
}

/// Watch kinds fired by each event type (ZooKeeper trigger matrix).
/// `SubtreeChanged` fires *only* subtree watches: the leader derives
/// those candidates itself from the written paths' ancestor chains
/// (see `subtree_fires`), so a fire at an ancestor must never consume
/// the point watches (data/exists/children) registered there.
fn kinds_for(event: WatchEventType) -> &'static [WatchKind] {
    match event {
        WatchEventType::NodeCreated => &[WatchKind::Exists],
        WatchEventType::NodeDataChanged => &[WatchKind::Data, WatchKind::Exists],
        WatchEventType::NodeDeleted => &[WatchKind::Data, WatchKind::Exists],
        WatchEventType::NodeChildrenChanged => &[WatchKind::Children],
        WatchEventType::SubtreeChanged => &[WatchKind::Subtree],
    }
}

/// Subtree-watch fire candidates for one record: a `SubtreeChanged`
/// event at every path on the ancestor chain of each written node —
/// the node itself, its parent, on up to `/`. Derived leader-side from
/// the record's written paths (followers stay unchanged and queue
/// frames carry nothing extra); the epoch machinery treats these
/// exactly like follower-emitted fires, so a live subtree registration
/// cuts an epoch and consumes one-shot, while an unarmed ancestor costs
/// only a memoized registry probe per batch.
fn subtree_fires(record: &LeaderRecord) -> Vec<crate::messages::FiredWatch> {
    let mut out = Vec::new();
    let mut push_chain = |path: &str| {
        if path.is_empty() {
            return;
        }
        let mut current = path;
        loop {
            let fire = crate::messages::FiredWatch {
                watch_path: current.to_owned(),
                event_type: WatchEventType::SubtreeChanged,
            };
            if !out.contains(&fire) {
                out.push(fire);
            }
            if current == "/" {
                break;
            }
            current = match current.rfind('/') {
                Some(0) => "/",
                Some(idx) => &current[..idx],
                None => break,
            };
        }
    };
    if record.is_multi() {
        for sub in &record.ops {
            // Checks mutate nothing and fire nothing.
            if !matches!(sub.user_update, UserUpdate::None) {
                push_chain(&sub.path);
            }
        }
    } else if !matches!(record.user_update, UserUpdate::None) {
        push_chain(&record.path);
    }
    out
}

/// The record's follower-emitted fires plus the leader-derived subtree
/// candidates — the full fire list the epoch machinery works from.
fn fires_with_subtree(record: &LeaderRecord) -> Vec<crate::messages::FiredWatch> {
    let mut fires = record.fires_all();
    fires.extend(subtree_fires(record));
    fires
}

/// Dedups a transaction's fired watch classes by path, merging the kind
/// sets so each distinct path consumes in **one** conditional registry
/// update instead of one per (path, event) pair. Returns, per path in
/// first-fire order: the merged kinds and the fired events in order —
/// a consumed instance is attributed to the first event whose trigger
/// matrix covers its kind, which is exactly the instance → event mapping
/// sequential per-event consumption produced (one-shot consumption hands
/// every instance to the first matching event anyway).
fn merge_fires(
    fires: &[crate::messages::FiredWatch],
) -> Vec<(&str, Vec<WatchKind>, Vec<WatchEventType>)> {
    let mut merged: Vec<(&str, Vec<WatchKind>, Vec<WatchEventType>)> = Vec::new();
    for fw in fires {
        let entry = match merged.iter_mut().find(|(p, _, _)| *p == fw.watch_path) {
            Some(entry) => entry,
            None => {
                merged.push((fw.watch_path.as_str(), Vec::new(), Vec::new()));
                merged.last_mut().expect("just pushed")
            }
        };
        entry.2.push(fw.event_type);
        for kind in kinds_for(fw.event_type) {
            if !entry.1.contains(kind) {
                entry.1.push(*kind);
            }
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{Deployment, DeploymentConfig};
    use crate::messages::{ClientRequest, Payload, WriteOp};
    use crate::user_store::NodeRecord;
    use crate::CreateMode;
    use std::time::Duration;

    #[test]
    fn merge_fires_dedups_paths_and_merges_kinds() {
        let fires = vec![
            FiredWatch {
                watch_path: "/n".into(),
                event_type: WatchEventType::NodeDataChanged,
            },
            FiredWatch {
                watch_path: "/p".into(),
                event_type: WatchEventType::NodeChildrenChanged,
            },
            FiredWatch {
                watch_path: "/n".into(),
                event_type: WatchEventType::NodeChildrenChanged,
            },
        ];
        let merged = merge_fires(&fires);
        assert_eq!(merged.len(), 2, "two distinct paths");
        let (path, kinds, events) = &merged[0];
        assert_eq!(*path, "/n");
        assert_eq!(
            kinds,
            &vec![WatchKind::Data, WatchKind::Exists, WatchKind::Children]
        );
        assert_eq!(
            events,
            &vec![
                WatchEventType::NodeDataChanged,
                WatchEventType::NodeChildrenChanged
            ]
        );
        assert_eq!(merged[1].0, "/p");
        // Attribution: a Children instance maps to the first event whose
        // matrix covers Children — the NodeChildrenChanged fire.
        let attributed = events
            .iter()
            .copied()
            .find(|et| kinds_for(*et).contains(&WatchKind::Children));
        assert_eq!(attributed, Some(WatchEventType::NodeChildrenChanged));
    }

    #[test]
    fn merge_fires_keeps_single_fire_untouched() {
        let fires = vec![FiredWatch {
            watch_path: "/n".into(),
            event_type: WatchEventType::NodeCreated,
        }];
        let merged = merge_fires(&fires);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].1, vec![WatchKind::Exists]);
    }

    /// The drain loop's batch window rides observed queue depth: floor
    /// start, growth while the backlog persists, shrink once drained.
    #[test]
    fn leader_batch_window_adapts_between_drains() {
        let deployment = Deployment::direct(DeploymentConfig::aws().with_distributor(
            crate::distributor::DistributorConfig::new(2, 16).with_adaptive_batch(2),
        ));
        let follower = deployment.make_follower();
        let leader = deployment.make_leader_inline();
        let ctx = fk_cloud::trace::Ctx::disabled();
        deployment.system().register_session(&ctx, "s", 0).unwrap();
        let _endpoint = deployment.bus().register("s");
        let mut rid = 0u64;
        let mut submit = |op: WriteOp| {
            rid += 1;
            let request = ClientRequest {
                session_id: "s".into(),
                request_id: rid,
                op,
            };
            deployment
                .write_queue()
                .send(&ctx, "s", request.encode())
                .unwrap();
        };
        submit(WriteOp::Create {
            path: "/n".into(),
            payload: Payload::inline(b"x"),
            mode: CreateMode::Persistent,
        });
        for _ in 0..40 {
            submit(WriteOp::SetData {
                path: "/n".into(),
                payload: Payload::inline(b"y"),
                expected_version: -1,
            });
        }
        while let Some(batch) = deployment.write_queue().receive(10, Duration::from_secs(5)) {
            follower.process_messages(&ctx, &batch.messages).unwrap();
            deployment.write_queue().ack(batch.receipt);
        }

        assert_eq!(leader.batch_window(), 2, "window starts at the floor");
        let mut processed = 0;
        let mut peak = 0;
        loop {
            let n = leader.drain_queue(&ctx, deployment.leader_queue()).unwrap();
            peak = peak.max(leader.batch_window());
            if n == 0 {
                break;
            }
            processed += n;
        }
        assert_eq!(processed, 41, "all transactions distributed");
        assert!(peak >= 8, "window grew under backlog (peak {peak})");
        // Empty drains walk the window back toward the floor.
        for _ in 0..4 {
            let _ = leader.drain_queue(&ctx, deployment.leader_queue()).unwrap();
        }
        assert_eq!(leader.batch_window(), 2, "window settled at the floor");
    }

    /// An *abandoned* record only advances the session's distribution
    /// high-water mark if its txid was recorded as the session's
    /// `last_txid` — an unrecorded orphan (left behind when a follower's
    /// commit errored retryably and the redelivered request re-allocated)
    /// must be skipped, or a successor could bypass the hold-back while
    /// recorded predecessors are still undistributed.
    #[test]
    fn abandoned_orphan_does_not_advance_session_mark() {
        use crate::messages::{CommitItem, SerValue, SystemCommit};
        let deployment = Deployment::direct(DeploymentConfig::aws().with_shard_groups(2));
        let leader = deployment.make_leader_inline();
        let ctx = fk_cloud::trace::Ctx::disabled();
        deployment.system().register_session(&ctx, "s", 0).unwrap();
        let _endpoint = deployment.bus().register("s");

        let abandoned = |txid: u64| LeaderRecord {
            session_id: "s".into(),
            request_id: 1,
            txid,
            prev_txid: 0,
            path: "/orphaned".into(),
            // A commit guarded on a lock that was never held: execute
            // fails with ConditionFailed, the txid never lands in the
            // node's txq, and the leader classifies the record abandoned.
            commit: SystemCommit {
                items: vec![CommitItem {
                    key: crate::system_store::keys::node("/orphaned"),
                    lock_ts: 12345,
                    sets: vec![("version".into(), SerValue::Txid)],
                    appends: vec![],
                    removes: vec![],
                    list_removes: vec![],
                }],
            },
            user_update: UserUpdate::None,
            stat: crate::api::Stat::default(),
            fires: vec![],
            is_delete: false,
            deregister_session: false,
            ops: vec![],
        };

        // The session's recorded chain stops at 100; txid 500 is an
        // unrecorded orphan.
        deployment
            .system()
            .record_session_push(&ctx, "s", 100)
            .unwrap();
        let mut handles = Vec::new();
        leader
            .process_record(&ctx, 500, &abandoned(500), &mut handles)
            .unwrap();
        assert_eq!(
            deployment.system().session_applied_txid(&ctx, "s"),
            0,
            "orphan must not advance the mark"
        );

        // Once the txid *is* recorded (the handed-over-then-lost case a
        // successor will name as prev), the abandoned resolution must
        // advance the mark — that is what keeps the session live.
        deployment
            .system()
            .record_session_push(&ctx, "s", 500)
            .unwrap();
        leader
            .process_record(&ctx, 500, &abandoned(500), &mut handles)
            .unwrap();
        assert_eq!(deployment.system().session_applied_txid(&ctx, "s"), 500);
    }

    /// A direct deployment on virtual time: its follower, one leader per
    /// shard group, and the clock they all run on.
    struct Lanes {
        deployment: Deployment,
        follower: crate::follower::Follower,
        leaders: Vec<Leader>,
        ctx: Ctx,
    }

    type Endpoint = crossbeam::channel::Receiver<ClientNotification>;

    impl Lanes {
        fn new(groups: usize) -> Self {
            use fk_cloud::trace::LatencyMode;
            let deployment = Deployment::direct(
                DeploymentConfig::aws()
                    .with_shard_groups(groups)
                    .with_mode(LatencyMode::Virtual, 7),
            );
            Lanes {
                follower: deployment.make_follower(),
                leaders: (0..groups)
                    .map(|_| deployment.make_leader_inline())
                    .collect(),
                ctx: Ctx::new(Arc::clone(deployment.model()), LatencyMode::Virtual, 7),
                deployment,
            }
        }

        fn session(&self, id: &str) -> Endpoint {
            self.deployment
                .system()
                .register_session(&self.ctx, id, 0)
                .unwrap();
            self.deployment.bus().register(id).0
        }

        fn submit(&self, session: &str, request_id: u64, op: WriteOp) {
            let request = ClientRequest {
                session_id: session.into(),
                request_id,
                op,
            };
            self.deployment
                .write_queue()
                .send(&self.ctx, session, request.encode())
                .unwrap();
        }

        /// Runs the follower over everything in the write queue.
        fn run_follower(&self) {
            let queue = self.deployment.write_queue();
            while let Some(batch) = queue.receive(10, Duration::from_secs(5)) {
                self.follower
                    .process_messages(&self.ctx, &batch.messages)
                    .unwrap();
                queue.ack(batch.receipt);
            }
        }

        fn lane(&self, group: usize) -> &Queue {
            self.deployment.leader_queues().queue(group)
        }

        /// One invocation of `group`'s leader over its lane.
        fn drain(&self, group: usize) -> Result<usize, FnError> {
            self.leaders[group].drain_queue(&self.ctx, self.lane(group))
        }

        /// `session`'s chain head in lane 0 and its successor in lane 1,
        /// which stays held until lane 0 has run. Returns the two paths.
        fn held_chain(&self, session: &str) -> (String, String) {
            let (first, second) = (path_on(0, 0), path_on(1, 0));
            self.submit(session, 1, create(&first));
            self.submit(session, 2, create(&second));
            (first, second)
        }

        fn stored(&self, path: &str) -> Option<NodeRecord> {
            self.deployment
                .user_store()
                .read_node(&self.ctx, path)
                .unwrap()
        }
    }

    /// The `nth` path of the form `/n<i>` that routes to `group` of 2.
    fn path_on(group: usize, nth: usize) -> String {
        (0..)
            .map(|i| format!("/n{i}"))
            .filter(|p| fk_cloud::queue::group_of(p, 2) == group)
            .nth(nth)
            .expect("paths hash to both groups")
    }

    fn create(path: &str) -> WriteOp {
        WriteOp::Create {
            path: path.into(),
            payload: Payload::inline(b"x"),
            mode: CreateMode::Persistent,
        }
    }

    fn set(path: &str, data: &[u8]) -> WriteOp {
        WriteOp::SetData {
            path: path.into(),
            payload: Payload::inline(data),
            expected_version: -1,
        }
    }

    /// `(request id, txid)` of every successful write result waiting on
    /// `endpoint`, in arrival order.
    fn acked(endpoint: &Endpoint) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| endpoint.try_recv().ok())
            .filter_map(|n| match n {
                ClientNotification::WriteResult {
                    request_id,
                    result,
                    txid,
                } => {
                    assert!(result.is_ok(), "{result:?}");
                    Some((request_id, txid))
                }
                _ => None,
            })
            .collect()
    }

    fn request_ids(acks: &[(u64, u64)]) -> Vec<u64> {
        acks.iter().map(|(request_id, _)| *request_id).collect()
    }

    /// The hold-back decides once: a batch whose head names a
    /// predecessor still queued in the other group's lane defers at
    /// index 0 for the price of a single strong read of the session
    /// mark — no polling, no waiting inside the invocation — and the
    /// same batch goes through once the predecessor's mark has landed.
    #[test]
    fn held_head_defers_after_exactly_one_mark_read() {
        let tier = Lanes::new(2);
        let ctx = &tier.ctx;
        let endpoint = tier.session("s");
        tier.held_chain("s");
        tier.run_follower();

        // Group 1 runs first: its head's predecessor sits in group 0.
        let before = tier.deployment.meter().snapshot();
        ctx.take_spans();
        let started = ctx.now();
        let err = tier.drain(1).unwrap_err();
        let elapsed = ctx.now().saturating_sub(started);
        assert!(err.deferred, "held, not failed: {err:?}");
        assert_eq!(err.failed_index, 0);
        let used = tier.deployment.meter().snapshot().since(&before);
        assert_eq!(used.per_op["kv_read"], 1, "one mark read per deferral");
        assert_eq!(used.kv_ops, 1, "and no other storage request");
        let spans = ctx.take_spans();
        let time_in = |wanted: fn(&Op) -> bool| -> Duration {
            let of_kind = spans.iter().filter(|span| wanted(&span.op));
            of_kind.map(|span| span.duration).sum()
        };
        let read = time_in(|op| matches!(op, Op::KvGet { consistent: true }));
        let dispatch = time_in(|op| matches!(op, Op::QueueDispatch(_)));
        assert!(
            read > Duration::ZERO && elapsed < dispatch + 2 * read,
            "a deferral costs dispatch ({dispatch:?}) + one strong read ({read:?}), not {elapsed:?}"
        );
        assert_eq!(tier.lane(1).pending(), 1, "the batch went back whole");

        // The predecessor distributes; the redelivered batch goes through.
        assert_eq!(tier.drain(0).unwrap(), 1);
        assert_eq!(tier.drain(1).unwrap(), 1);
        assert_eq!(
            request_ids(&acked(&endpoint)),
            vec![1, 2],
            "acked in submission order"
        );
    }

    /// Skip-ahead: a record of another session on another path, queued
    /// behind a held head, distributes at once. The batch still defers
    /// whole (the head was not processed), and the record's redelivery
    /// with the deferred suffix is free: no storage request, no second
    /// notification. Its txid joins the group's committed floor only
    /// when its message leaves the queue behind the head.
    #[test]
    fn record_behind_a_held_head_distributes_and_its_redelivery_is_free() {
        let tier = Lanes::new(2);
        let ctx = &tier.ctx;
        let (a, b) = (tier.session("a"), tier.session("b"));
        tier.held_chain("a");
        let other = path_on(1, 1);
        tier.submit("b", 1, create(&other));
        tier.run_follower();

        let err = tier.drain(1).unwrap_err();
        assert!(err.deferred && err.failed_index == 0, "{err:?}");
        assert_eq!(tier.lane(1).pending(), 2, "the batch went back whole");
        let b_acks = acked(&b);
        assert_eq!(request_ids(&b_acks), vec![1], "b's write went ahead");
        let b_txid = b_acks[0].1;
        assert_eq!(tier.stored(&other).unwrap().modified_txid, b_txid);
        assert_eq!(tier.leaders[1].applied_ahead(), 1);
        let floor = |tier: &Lanes| tier.deployment.floors().snapshot()[1];
        assert!(floor(&tier) < b_txid, "the floor speaks for the prefix");

        // Redelivered while the head is still held: the head's one mark
        // read is everything the invocation costs.
        let before = tier.deployment.meter().snapshot();
        ctx.take_spans();
        let err = tier.drain(1).unwrap_err();
        assert!(err.deferred && err.failed_index == 0, "{err:?}");
        let used = tier.deployment.meter().snapshot().since(&before);
        assert_eq!(used.kv_ops, 1, "the held head's mark read, nothing for b");
        assert_eq!(used.obj_puts + used.obj_gets, 0, "no user-store access");
        let replies = ctx.take_spans();
        let replies = replies.iter().filter(|s| matches!(s.op, Op::TcpReply));
        assert_eq!(replies.count(), 0, "no second notification");

        // The head's predecessor lands; the head goes through and b's
        // record is acknowledged behind it without being touched again.
        assert_eq!(tier.drain(0).unwrap(), 1);
        assert_eq!(tier.drain(1).unwrap(), 2);
        assert_eq!(tier.leaders[1].applied_ahead(), 0);
        assert!(floor(&tier) >= b_txid, "acknowledged in a prefix");
        assert_eq!(request_ids(&acked(&a)), vec![1, 2]);
        assert!(acked(&b).is_empty(), "exactly one result for b's write");
    }

    /// Rule (b): a later record of a held record's session stays held
    /// with it (and costs no mark read of its own).
    #[test]
    fn same_session_successor_stays_held_behind_a_held_record() {
        let tier = Lanes::new(2);
        let endpoint = tier.session("a");
        tier.held_chain("a");
        let third = path_on(1, 1);
        tier.submit("a", 3, create(&third));
        tier.run_follower();

        let before = tier.deployment.meter().snapshot();
        let err = tier.drain(1).unwrap_err();
        assert!(err.deferred && err.failed_index == 0, "{err:?}");
        let used = tier.deployment.meter().snapshot().since(&before);
        assert_eq!(used.kv_ops, 1, "one mark read for the session");
        assert_eq!(tier.leaders[1].applied_ahead(), 0);
        assert!(tier.stored(&third).is_none(), "the successor did not run");

        assert_eq!(tier.drain(0).unwrap(), 1);
        assert_eq!(tier.drain(1).unwrap(), 2);
        assert_eq!(request_ids(&acked(&endpoint)), vec![1, 2, 3]);
    }

    /// Rule (c): a record that mutates a node a held record mutates
    /// stays held behind it — as a plain write and as a `multi` sub —
    /// so the node's `txq` pops in order; an unrelated record in the
    /// same batch still goes ahead.
    #[test]
    fn same_path_records_stay_held_behind_a_held_record() {
        use crate::messages::MultiOp;
        let tier = Lanes::new(2);
        let endpoints = ["a", "b", "c", "d"].map(|id| tier.session(id));
        let (_, contended) = tier.held_chain("a");
        tier.submit("b", 1, set(&contended, b"plain"));
        tier.submit(
            "c",
            1,
            WriteOp::Multi {
                ops: vec![
                    MultiOp::Create {
                        path: path_on(1, 1),
                        payload: Payload::inline(b"x"),
                        mode: CreateMode::Persistent,
                    },
                    MultiOp::SetData {
                        path: contended.clone(),
                        payload: Payload::inline(b"multi"),
                        expected_version: -1,
                    },
                ],
            },
        );
        tier.submit("d", 1, create(&path_on(1, 2)));
        tier.run_follower();
        assert_eq!(tier.lane(1).pending(), 4, "all four share lane 1");

        let err = tier.drain(1).unwrap_err();
        assert!(err.deferred && err.failed_index == 0, "{err:?}");
        let [a, b, c, d] = &endpoints;
        assert_eq!(request_ids(&acked(d)), vec![1], "the unrelated one ran");
        assert!(acked(b).is_empty() && acked(c).is_empty(), "held by path");
        assert_eq!(tier.leaders[1].applied_ahead(), 1);
        assert!(tier.stored(&contended).is_none());

        assert_eq!(tier.drain(0).unwrap(), 1);
        assert_eq!(tier.drain(1).unwrap(), 4);
        let txid_of = |endpoint: &Endpoint| acked(endpoint).last().unwrap().1;
        let (a, b, c) = (txid_of(a), txid_of(b), txid_of(c));
        assert!(a < b && b < c, "txq order on the contended node");
        let node = tier.stored(&contended).unwrap();
        assert_eq!((&node.data[..], node.modified_txid), (&b"multi"[..], c));
        let violations = crate::consistency::check_tree_integrity(
            &tier.ctx,
            tier.deployment.system(),
            tier.deployment.user_store().as_ref(),
        );
        assert!(violations.is_empty(), "{violations:#?}");
    }

    /// A user store whose writes to one path fail while it is poisoned.
    struct PoisonedStore {
        inner: Arc<dyn UserStore>,
        poisoned: parking_lot::Mutex<Option<String>>,
    }

    impl PoisonedStore {
        fn check(&self, path: &str) -> fk_cloud::CloudResult<()> {
            match self.poisoned.lock().as_deref() {
                Some(poisoned) if poisoned == path => Err(CloudError::ServiceStopped),
                _ => Ok(()),
            }
        }
    }

    impl UserStore for PoisonedStore {
        fn write_node(&self, ctx: &Ctx, record: &NodeRecord) -> fk_cloud::CloudResult<()> {
            self.check(&record.path)?;
            self.inner.write_node(ctx, record)
        }
        fn replace_node(&self, ctx: &Ctx, record: &NodeRecord) -> fk_cloud::CloudResult<()> {
            self.check(&record.path)?;
            self.inner.replace_node(ctx, record)
        }
        fn read_node(&self, ctx: &Ctx, path: &str) -> fk_cloud::CloudResult<Option<NodeRecord>> {
            self.inner.read_node(ctx, path)
        }
        fn delete_node(&self, ctx: &Ctx, path: &str) -> fk_cloud::CloudResult<()> {
            self.inner.delete_node(ctx, path)
        }
        fn scan_subtree(
            &self,
            ctx: &Ctx,
            root: &str,
        ) -> fk_cloud::CloudResult<Vec<crate::user_store::ScanEntry>> {
            self.inner.scan_subtree(ctx, root)
        }
        fn region(&self) -> fk_cloud::Region {
            self.inner.region()
        }
        fn kind(&self) -> crate::user_store::UserStoreKind {
            self.inner.kind()
        }
    }

    /// A retryable failure in a later epoch reports the first *held*
    /// index, not its own first message: the held record before it was
    /// never processed. The epoch that completed before the failure —
    /// including a record it distributed from behind the held one — is
    /// not applied again on redelivery.
    #[test]
    fn failure_behind_a_held_record_reports_the_held_index() {
        let tier = Lanes::new(2);
        let (d, a, b) = (tier.session("d"), tier.session("a"), tier.session("b"));
        // Lane 1: d's create (eligible), a's held successor (index 1),
        // then b's create and a child under it — the child starts a
        // second epoch (its parent is written by the first).
        tier.submit("d", 1, create(&path_on(1, 1)));
        tier.held_chain("a");
        let parent = path_on(1, 2);
        let child = (0..)
            .map(|i| format!("{parent}/k{i}"))
            .find(|p| fk_cloud::queue::group_of(p, 2) == 1)
            .unwrap();
        tier.submit("b", 1, create(&parent));
        tier.submit("b", 2, create(&child));
        tier.run_follower();
        assert_eq!(tier.lane(1).pending(), 4);

        // Lane 1's leader over a store that refuses the child.
        let store = Arc::new(PoisonedStore {
            inner: Arc::clone(tier.deployment.user_store()),
            poisoned: parking_lot::Mutex::new(Some(child.clone())),
        });
        let leader = Leader::with_config(
            tier.deployment.system().clone(),
            vec![Arc::clone(&store) as Arc<dyn UserStore>],
            tier.deployment.staging().clone(),
            tier.deployment.bus().clone(),
            Arc::new(crate::deploy::InlineDispatcher::new(
                Arc::new(tier.deployment.make_watch_fn()),
                tier.deployment.config().watch_fn,
            )),
            tier.deployment.config().distributor,
        );
        let drain = || leader.drain_queue(&tier.ctx, tier.lane(1));

        let err = drain().unwrap_err();
        assert!(err.retryable && !err.deferred, "a failure: {err:?}");
        assert_eq!(err.failed_index, 1, "the held record, not the epoch");
        assert_eq!(tier.lane(1).pending(), 3, "d's create left the queue");
        assert_eq!(request_ids(&acked(&d)), vec![1]);
        assert_eq!(request_ids(&acked(&b)), vec![1]);
        assert_eq!(leader.applied_ahead(), 1, "b's first epoch");

        // Repaired; the redelivery runs only the epoch that failed.
        *store.poisoned.lock() = None;
        let err = drain().unwrap_err();
        assert!(err.deferred && err.failed_index == 0, "{err:?}");
        assert_eq!(request_ids(&acked(&b)), vec![2], "b's parent is not redone");
        assert_eq!(leader.applied_ahead(), 2);

        assert_eq!(tier.drain(0).unwrap(), 1);
        assert_eq!(drain().unwrap(), 3);
        assert_eq!(leader.applied_ahead(), 0);
        assert_eq!(request_ids(&acked(&a)), vec![1, 2]);
        assert!(acked(&b).is_empty());
    }

    /// Exactly-once never depends on the warm state: a fresh instance
    /// handed a record its predecessor distributed ahead resolves it as
    /// already processed — no second user-store version.
    #[test]
    fn cold_instance_resolves_an_applied_ahead_record_as_already_processed() {
        let tier = Lanes::new(2);
        let (_a, b) = (tier.session("a"), tier.session("b"));
        tier.held_chain("a");
        let other = path_on(1, 1);
        tier.submit("b", 1, create(&other));
        tier.run_follower();
        tier.drain(1).unwrap_err();
        let b_txid = acked(&b)[0].1;

        let cold = tier.deployment.make_leader_inline();
        let before = tier.deployment.meter().snapshot();
        let err = cold.drain_queue(&tier.ctx, tier.lane(1)).unwrap_err();
        assert!(err.deferred && err.failed_index == 0, "{err:?}");
        let used = tier.deployment.meter().snapshot().since(&before);
        assert_eq!(used.obj_puts, 0, "one user-store version");
        assert_eq!(tier.stored(&other).unwrap().modified_txid, b_txid);
        // The cold path re-notifies (idempotent for the client, which
        // releases a request once) and then remembers the record too.
        assert_eq!(acked(&b), vec![(1, b_txid)]);
        assert_eq!(cold.applied_ahead(), 1);
    }

    /// The watch wave reads each distinct class of the batch once, and
    /// a class an epoch cut consumed is read again by the next
    /// transaction that fires it.
    #[test]
    fn watch_wave_reads_each_class_once_and_requeries_consumed_ones() {
        let tier = Lanes::new(1);
        let _endpoint = tier.session("s");
        tier.submit("s", 1, create("/w"));
        tier.run_follower();
        assert_eq!(tier.drain(0).unwrap(), 1);
        tier.deployment
            .system()
            .register_watch(&tier.ctx, "/w", WatchKind::Data, "s")
            .unwrap();

        for (request_id, data) in [(2, b"1"), (3, b"2"), (4, b"3")] {
            tier.submit("s", request_id, set("/w", data));
        }
        tier.run_follower();
        tier.ctx.take_spans();
        assert_eq!(tier.drain(0).unwrap(), 3);
        let spans = tier.ctx.take_spans();
        let registry_reads = spans
            .iter()
            .filter(|s| s.phase.ends_with("query_watches") && matches!(s.op, Op::KvGet { .. }));
        // The wave: (/w, data changed), (/w, subtree), (/, subtree). The
        // first write fires, its epoch consumes /w's registrations, and
        // the second write reads /w's two classes again; the third finds
        // every answer remembered.
        assert_eq!(registry_reads.count(), 3 + 2);
    }

    /// DES model of the cross-shard hold-back's *liveness* under
    /// skip-ahead: shard groups drain on independent clocks, a window of
    /// their lane at a time; each session's writes chain across groups
    /// (write k waits for k-1, wherever it landed) and every third one
    /// targets a hot node all sessions share, so one lane interleaves
    /// every session's records on one `txq`. An invocation applies what
    /// rules (a)–(c) allow, acknowledges up to the first held record and
    /// remembers what it applied behind it. Every wait-for edge points
    /// at an earlier-pushed record and a lane's earliest-pushed head is
    /// never held by (c), so no schedule can deadlock: the simulation
    /// must always fully drain, in session order and in per-node push
    /// order, and forget everything it applied ahead. (The safety half
    /// on the real pipeline is the `multi_leader_properties` suite.)
    #[test]
    fn multi_leader_holdback_always_converges_in_des() {
        use fk_cloud::des::{run, Scheduler};
        use std::collections::VecDeque;

        const GROUPS: usize = 4;
        const SESSIONS: usize = 6;
        const WRITES_PER_SESSION: usize = 8;
        const WINDOW: usize = 4;
        /// The node every session writes; it lives in group 0's lane.
        const HOT: usize = 0;
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        struct Write {
            session: usize,
            seq: usize,
            node: usize,
        }
        struct Sim {
            /// Per group: queued writes in push order.
            queues: Vec<VecDeque<Write>>,
            /// Per group: writes applied from behind a held one whose
            /// messages are still queued.
            ahead: Vec<HashSet<Write>>,
            /// Per session: writes applied so far (the mark).
            applied: Vec<usize>,
            /// Per node: the writes applied to it, in apply order.
            node_log: HashMap<usize, Vec<Write>>,
            deferrals: usize,
            skipped_ahead: usize,
            /// LCG state for per-group cadence jitter (the des scheduler
            /// seed varies the queue routing; this varies the clocks).
            jitter: u64,
        }
        impl Sim {
            fn next_jitter(&mut self) -> u64 {
                self.jitter = self
                    .jitter
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((self.jitter >> 33) % 4 + 1) * 1_000_000
            }
            /// One invocation over the head window of `group`'s lane.
            fn invoke(&mut self, group: usize) {
                let window: Vec<Write> = self.queues[group].iter().take(WINDOW).copied().collect();
                let mut first_held = None;
                let mut held_sessions = HashSet::new();
                let mut held_nodes = HashSet::new();
                for (index, write) in window.iter().enumerate() {
                    if self.ahead[group].contains(write) {
                        continue;
                    }
                    // Earlier eligible records of the batch applied
                    // already, so the mark also covers rule (a)'s
                    // in-batch case.
                    if held_sessions.contains(&write.session)
                        || held_nodes.contains(&write.node)
                        || self.applied[write.session] < write.seq
                    {
                        first_held.get_or_insert(index);
                        held_sessions.insert(write.session);
                        held_nodes.insert(write.node);
                        continue;
                    }
                    assert_eq!(self.applied[write.session], write.seq, "session order");
                    self.applied[write.session] += 1;
                    self.node_log.entry(write.node).or_default().push(*write);
                    if first_held.is_some() {
                        self.ahead[group].insert(*write);
                        self.skipped_ahead += 1;
                    }
                }
                self.deferrals += usize::from(first_held.is_some());
                for write in self.queues[group].drain(..first_held.unwrap_or(window.len())) {
                    self.ahead[group].remove(&write);
                }
            }
        }
        fn drain(group: usize) -> impl Fn(&mut Sim, &mut Scheduler<Sim>) + Clone {
            move |sim: &mut Sim, sched: &mut Scheduler<Sim>| {
                sim.invoke(group);
                if sim.queues.iter().any(|q| !q.is_empty()) {
                    // Jittered per-group cadence: schedules interleave
                    // differently every seed.
                    let jitter = sim.next_jitter();
                    sched.schedule(jitter, drain(group));
                }
            }
        }
        let mut skipped_ahead = 0;
        for seed in 0..20u64 {
            let mut queues: Vec<VecDeque<Write>> = vec![VecDeque::new(); GROUPS];
            // Global push order: sessions round-robin; a write goes to
            // the hot node or to a node of its own in a pseudo-random
            // group (the path hash).
            let mut route = 0xD15Cu64.wrapping_add(seed);
            let mut pushed: HashMap<usize, Vec<Write>> = HashMap::new();
            for seq in 0..WRITES_PER_SESSION {
                for session in 0..SESSIONS {
                    route = route
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let private = 1 + seq * SESSIONS + session;
                    let (node, group) = match (seq + session) % 3 {
                        0 => (HOT, 0),
                        _ => (private, (route >> 33) as usize % GROUPS),
                    };
                    let write = Write { session, seq, node };
                    queues[group].push_back(write);
                    pushed.entry(node).or_default().push(write);
                }
            }
            let sim = run(
                Sim {
                    queues,
                    ahead: vec![HashSet::new(); GROUPS],
                    applied: vec![0; SESSIONS],
                    node_log: HashMap::new(),
                    deferrals: 0,
                    skipped_ahead: 0,
                    jitter: seed ^ 0x5EED,
                },
                seed,
                60_000_000_000, // 60 virtual seconds — far beyond need
                |_, sched| {
                    for group in 0..GROUPS {
                        sched.schedule(1_000_000, drain(group));
                    }
                },
            );
            assert_eq!(
                sim.applied,
                vec![WRITES_PER_SESSION; SESSIONS],
                "seed {seed}: tier wedged with {} deferrals",
                sim.deferrals
            );
            assert_eq!(sim.node_log, pushed, "seed {seed}: per-node push order");
            assert!(
                sim.ahead.iter().all(HashSet::is_empty),
                "seed {seed}: applied-ahead state outlived its messages"
            );
            skipped_ahead += sim.skipped_ahead;
        }
        assert!(skipped_ahead > 0, "the schedules never skipped ahead");
    }

    /// Create-heavy batch, no live watches: the segmentation phase reads
    /// each fired path's registry once per batch instead of once per
    /// transaction — for N creates under one parent, N + 1 registry
    /// reads instead of 2 N.
    #[test]
    fn segmentation_dedups_watch_registry_reads_across_batch() {
        let deployment = Deployment::direct(DeploymentConfig::aws());
        let follower = deployment.make_follower();
        let leader = deployment.make_leader_inline();
        let ctx = fk_cloud::trace::Ctx::disabled();
        deployment.system().register_session(&ctx, "s", 0).unwrap();
        let _endpoint = deployment.bus().register("s");

        let submit = |rid: u64, path: &str| {
            let request = ClientRequest {
                session_id: "s".into(),
                request_id: rid,
                op: WriteOp::Create {
                    path: path.to_owned(),
                    payload: Payload::inline(b"x"),
                    mode: CreateMode::Persistent,
                },
            };
            deployment
                .write_queue()
                .send(&ctx, "s", request.encode())
                .unwrap();
        };
        let drain_follower = || {
            while let Some(batch) = deployment.write_queue().receive(10, Duration::from_secs(5)) {
                follower.process_messages(&ctx, &batch.messages).unwrap();
                deployment.write_queue().ack(batch.receipt);
            }
        };

        // Setup: the parent exists before the measured batch.
        submit(1, "/p");
        drain_follower();
        while leader.drain_queue(&ctx, deployment.leader_queue()).unwrap() > 0 {}

        let n = 8u64;
        for i in 0..n {
            submit(2 + i, &format!("/p/c{i}"));
        }
        drain_follower();

        let before = deployment.meter().snapshot();
        let processed = leader.drain_queue(&ctx, deployment.leader_queue()).unwrap();
        assert_eq!(processed as u64, n, "one leader batch");
        let reads = deployment.meter().snapshot().since(&before).per_op["kv_read"];
        // Per batch: N preverify node reads + (N distinct child paths +
        // 1 shared parent) memoized point-registry reads + (N child
        // paths + shared /p + shared /) memoized subtree-registry reads
        // + 1 epoch-mark read. The unmemoized leader paid 2 N point
        // reads alone; the subtree probes share the same memo, so the
        // ancestor chain costs 2 reads for the whole batch, not 2 N.
        assert_eq!(
            reads,
            n + (n + 1) + (n + 2) + 1,
            "registry reads deduped across the batch"
        );
    }
}
