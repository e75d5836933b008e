//! The leader function (Algorithm 2, §3.2), rebuilt around the
//! [`crate::distributor`] pipeline and scaled out as a **tier**: one
//! leader instance per shard group, each the single active consumer of
//! its group's FIFO queue (the queue's one ordering group enforces it;
//! `DistributorConfig::groups == 1` reproduces the paper's single
//! leader exactly). Where the paper's leader replicates one transaction
//! at a time, each instance processes its queue batch as a pipeline:
//!
//! ➊a **Sequence** — hold back any record whose session predecessor
//! (possibly on another shard group) has not been distributed yet,
//! per the session's high-water mark in system storage (Z2's
//! cross-shard rule). The decision costs **one** strong read of the
//! mark per unresolved session: on a miss the held suffix defers back
//! to the queue at once, burning no redelivery attempt, and the
//! invocation ends — it never waits. The wait lives in whoever drives
//! the lane: the runtime's queue trigger parks a wholly deferred batch
//! outside the sandbox, unbilled, until another trigger consumed a
//! message (`fk_cloud::faas`); direct drivers re-offer a deferred lane
//! only after another lane ran. ➊ **Verify** — check every
//! transaction's system-storage commit (sharded parallel reads); for
//! missing commits, `TryCommit` on the failed follower's behalf and
//! reject the request if the locks were lost. ➋ **Segment** the batch
//! into *epochs* at transactions with live watch registrations
//! (non-consuming queries) or at parent/child creation conflicts that
//! the fan-out waves cannot order across shards. ➌ **Distribute** each
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
use crate::messages::{ClientNotification, LeaderRecord, Payload, UserUpdate, WriteResultData};
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
    /// Instance-local lower bound of each session's distribution
    /// high-water mark. Marks only ever advance — even across
    /// deregistration and re-registration of a session id, because they
    /// live on the persistent `seq:` item and a reincarnated session
    /// floors its allocations above them — so a remembered value that
    /// satisfies a hold-back check stays valid forever; the common case
    /// (a session whose writes keep landing on this group) never
    /// re-reads the store. Warm-instance state only: a cold start
    /// re-reads, which is merely slower, never wrong.
    applied_memo: parking_lot::Mutex<std::collections::HashMap<String, u64>>,
    /// Shared distributed-txid high-water publication, when deployed:
    /// advanced after each epoch's storage waves complete (in-memory
    /// atomics only — no store traffic) and piggybacked onto heartbeat
    /// pings so idle sessions' MRD keeps advancing.
    floors: Option<Arc<crate::replica::CommittedFloors>>,
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
            applied_memo: parking_lot::Mutex::new(std::collections::HashMap::new()),
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

    /// Records a session's distribution mark in the instance-local memo.
    fn memoize_applied(&self, session: &str, txid: u64) {
        let mut memo = self.applied_memo.lock();
        let entry = memo.entry(session.to_owned()).or_insert(0);
        *entry = (*entry).max(txid);
    }

    /// The distribution pipeline configuration in effect.
    pub fn distributor_config(&self) -> &DistributorConfig {
        self.distributor.config()
    }

    /// Entry point for a queue batch.
    pub fn process_messages(&self, ctx: &Ctx, messages: &[Message]) -> Result<(), FnError> {
        let mut decoded: Vec<(usize, u64, LeaderRecord)> = Vec::with_capacity(messages.len());
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
        decoded: &[(usize, u64, LeaderRecord)],
        handles: &mut Vec<WatchHandle>,
    ) -> Result<(), FnError> {
        // ➊a cross-shard sequencing (Z2): a record whose session
        // predecessor lives on another shard group may only distribute
        // once that predecessor is durably applied. Process the eligible
        // prefix; the rest of the batch nacks for redelivery.
        let ready = self.sequencing_prefix(ctx, decoded);
        let held = &decoded[ready..];
        let decoded = &decoded[..ready];

        // ➊ verify commits (sharded parallel reads + sequential repair).
        //
        // Partial-batch failure contract: `at_index(i)` tells the queue
        // that messages *before* `i` are fully processed. Until an
        // epoch's distribution completes nothing is fully processed —
        // phase ➊ only repairs system storage and sends idempotent
        // notifications — so every failure up to and including the first
        // epoch maps to index 0 (redeliver the whole batch; redelivery
        // re-resolves each record idempotently).
        let mut committed: Vec<CommittedTx<'_>> = Vec::new();
        let states = self.preverify(ctx, decoded)?;
        for ((i, txid, record), state) in decoded.iter().zip(states) {
            match self.resolve_disposition(ctx, *txid, record, state) {
                Ok(Disposition::Distribute { data, multi_data }) => committed.push(CommittedTx {
                    msg_index: *i,
                    txid: *txid,
                    record,
                    data,
                    multi_data,
                }),
                Ok(Disposition::Done) => {}
                Err(e) => return Err(e.at_index(0)),
            }
        }

        // ➋ cut epochs at transactions whose watches will fire. The
        // queries here are non-consuming; one-shot consumption happens
        // inside `run_epoch`, *after* that epoch's writes are durable, so
        // a retryable failure never strands consumed-but-undispatched
        // registrations of later epochs.
        let epochs = self
            .segment_epochs(ctx, committed)
            .map_err(|e| e.at_index(0))?;

        // ➌–➎ per epoch: distribute, publish + notify, pop. After epoch
        // k completes, every message up to its last index is fully
        // processed (interleaved `Done` records were handled
        // idempotently in phase ➊), so epoch k+1's failures nack from
        // its own first message.
        for epoch in epochs {
            self.run_epoch(ctx, &epoch, handles)
                .map_err(|e| e.at_index(epoch.first_index()))?;
        }

        // Everything eligible is fully processed; ask the queue to
        // redeliver the held-back suffix once its predecessors (on other
        // shard groups) have caught up.
        if let Some((msg_index, _, _)) = held.first() {
            return Err(
                FnError::defer("held back: session predecessor not yet distributed")
                    .at_index(*msg_index),
            );
        }
        Ok(())
    }

    /// The length of the batch prefix whose cross-shard sequencing
    /// constraints are satisfied. A record is eligible when its
    /// `prev_txid` is covered by the session's distribution high-water
    /// mark, or by an earlier record of this very batch (the predecessor
    /// shares this group's queue and distributes in an earlier or the
    /// same epoch — exactly the in-invocation ordering the single-leader
    /// pipeline always had). An unresolved session's mark is read **once**:
    /// on a miss the prefix is cut there — the predecessor is in another
    /// group's lane, and a billed invocation is the wrong place to wait
    /// for it (see the module doc for where the wait lives). Hold-back
    /// edges always point to earlier-pushed transactions, so that wait
    /// is cycle-free.
    fn sequencing_prefix(&self, ctx: &Ctx, decoded: &[(usize, u64, LeaderRecord)]) -> usize {
        use std::collections::HashMap;
        // A single-group tier funnels every record through this one
        // queue, so each predecessor was processed earlier in it: the
        // constraint holds by construction and the check (plus its
        // high-water-mark reads) would be pure overhead.
        if self.distributor.config().groups <= 1 {
            return decoded.len();
        }
        // Highest txid of each session seen earlier in this batch.
        let mut in_batch: HashMap<&str, u64> = HashMap::new();
        for (position, (_, txid, record)) in decoded.iter().enumerate() {
            let session = record.session_id.as_str();
            let satisfied_locally = record.prev_txid == 0
                || in_batch
                    .get(session)
                    .is_some_and(|seen| *seen >= record.prev_txid)
                // Marks only advance, so the instance-local memo is a
                // sound lower bound: sessions whose writes keep landing
                // on this group never touch the store here.
                || self
                    .applied_memo
                    .lock()
                    .get(session)
                    .is_some_and(|seen| *seen >= record.prev_txid);
            if !satisfied_locally {
                let applied = self.system.session_applied_txid(ctx, session);
                self.memoize_applied(session, applied);
                if applied < record.prev_txid {
                    return position;
                }
            }
            in_batch
                .entry(session)
                .and_modify(|seen| *seen = (*seen).max(*txid))
                .or_insert(*txid);
        }
        decoded.len()
    }

    /// Phase ➊ reads: fetches every record's node item and classifies the
    /// commit state, sharded by path and fanned out in parallel (the
    /// reads are independent; repair stays sequential).
    fn preverify(
        &self,
        ctx: &Ctx,
        decoded: &[(usize, u64, LeaderRecord)],
    ) -> Result<Vec<CommitState>, FnError> {
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
                    let (_, txid, record) = &decoded[pos];
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
            self.applied_memo.lock().remove(&record.session_id);
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
                self.memoize_applied(&record.session_id, txid);
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
    /// Registry reads are **deduplicated across the batch**: a
    /// create-heavy batch fires the same parent's children class once
    /// per transaction, and re-reading `watch:<parent>` every time is
    /// pure waste — the liveness answer cannot change inside a batch
    /// except when an epoch cut consumes the registrations, at which
    /// point the memo forgets exactly the fired paths. A concurrent
    /// registration that lands mid-batch is observed by the next batch,
    /// which is the same valid linearization as before.
    fn segment_epochs<'a>(
        &self,
        ctx: &Ctx,
        committed: Vec<CommittedTx<'a>>,
    ) -> Result<Vec<Epoch<'a>>, FnError> {
        use std::collections::HashSet;
        let mut epochs: Vec<Epoch<'a>> = Vec::new();
        let mut current = Epoch::new();
        // (path, event type) → "has live registrations", valid until the
        // path's registrations are consumed by an epoch cut. Keys are
        // owned: subtree candidates are leader-derived ancestor paths,
        // not borrowed from the records.
        let mut live_memo: std::collections::HashMap<(String, WatchEventType), bool> =
            std::collections::HashMap::new();
        // Node paths written by a `WriteNode` earlier in the current
        // epoch. A later transaction whose parent-children rewrite
        // targets one of these (a child created under a node that this
        // same epoch creates) would demote that node's write out of
        // fan-out wave ➀ and break the cross-shard visibility invariants
        // of `apply_epoch`; cutting the epoch at the conflict keeps the
        // waves sound — the child's transaction simply starts the next
        // epoch, mirroring the sequential leader's order.
        let mut written: HashSet<&'a str> = HashSet::new();
        for tx in committed {
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
                let all_fires = fires_with_subtree(record);
                let fires = ctx.span("query_watches", || {
                    all_fires.iter().any(|fw| {
                        *live_memo
                            .entry((fw.watch_path.clone(), fw.event_type))
                            .or_insert_with(|| {
                                !self
                                    .system
                                    .query_watches(ctx, &fw.watch_path, kinds_for(fw.event_type))
                                    .is_empty()
                            })
                    })
                });
                let mut epoch = Epoch::new();
                epoch.fires = fires;
                if fires {
                    live_memo
                        .retain(|(path, _), _| !all_fires.iter().any(|fw| fw.watch_path == *path));
                }
                epoch.items.push(tx);
                epochs.push(epoch);
                continue;
            }
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
            let all_fires = fires_with_subtree(record);
            let fires = !all_fires.is_empty()
                && ctx.span("query_watches", || {
                    all_fires.iter().any(|fw| {
                        *live_memo
                            .entry((fw.watch_path.clone(), fw.event_type))
                            .or_insert_with(|| {
                                !self
                                    .system
                                    .query_watches(ctx, &fw.watch_path, kinds_for(fw.event_type))
                                    .is_empty()
                            })
                    })
                });
            current.items.push(tx);
            if fires {
                current.fires = true;
                // `run_epoch` consumes the fired paths' registrations
                // (one-shot); what the memo learned about them is stale.
                live_memo.retain(|(path, _), _| !all_fires.iter().any(|fw| fw.watch_path == *path));
                epochs.push(std::mem::replace(&mut current, Epoch::new()));
                written.clear();
            }
        }
        if !current.items.is_empty() {
            epochs.push(current);
        }
        Ok(epochs)
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
        if let Some(floors) = &self.floors {
            let groups = self.distributor.config().groups.max(1);
            for tx in &epoch.items {
                let group = if groups > 1 {
                    crate::system_store::txid::group_of(tx.txid)
                } else {
                    0
                };
                floors.publish(group, tx.txid);
            }
        }

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
            for (session, txid) in per_session {
                self.memoize_applied(session, txid);
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
    use crate::messages::{ClientRequest, FiredWatch, Payload, WriteOp};
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

    /// The hold-back decides once: a batch whose head names a
    /// predecessor still queued in the other group's lane defers at
    /// index 0 for the price of a single strong read of the session
    /// mark — no polling, no waiting inside the invocation — and the
    /// same batch goes through once the predecessor's mark has landed.
    #[test]
    fn held_head_defers_after_exactly_one_mark_read() {
        use fk_cloud::trace::{Ctx, LatencyMode};
        let deployment = Deployment::direct(
            DeploymentConfig::aws()
                .with_shard_groups(2)
                .with_mode(LatencyMode::Virtual, 7),
        );
        let follower = deployment.make_follower();
        let leaders = [
            deployment.make_leader_inline(),
            deployment.make_leader_inline(),
        ];
        let ctx = Ctx::new(Arc::clone(deployment.model()), LatencyMode::Virtual, 7);
        deployment.system().register_session(&ctx, "s", 0).unwrap();
        let (endpoint, _) = deployment.bus().register("s");

        // Two pipelined creates whose paths live on different groups.
        let path_on = |group: usize| {
            (0..64)
                .map(|i| format!("/n{i}"))
                .find(|p| fk_cloud::queue::group_of(p, 2) == group)
                .expect("some path hashes to each group")
        };
        for (rid, group) in [(1u64, 0usize), (2, 1)] {
            let request = ClientRequest {
                session_id: "s".into(),
                request_id: rid,
                op: WriteOp::Create {
                    path: path_on(group),
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

        // Group 1 runs first: its head's predecessor sits in group 0.
        let held_queue = deployment.leader_queues().queue(1);
        let before = deployment.meter().snapshot();
        ctx.take_spans();
        let started = ctx.now();
        let err = leaders[1].drain_queue(&ctx, held_queue).unwrap_err();
        let elapsed = ctx.now().saturating_sub(started);
        assert!(err.deferred, "held, not failed: {err:?}");
        assert_eq!(err.failed_index, 0);
        let used = deployment.meter().snapshot().since(&before);
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
        assert_eq!(held_queue.pending(), 1, "the batch went back whole");

        // The predecessor distributes; the redelivered batch goes through.
        let first = leaders[0]
            .drain_queue(&ctx, deployment.leader_queues().queue(0))
            .unwrap();
        assert_eq!(first, 1);
        assert_eq!(leaders[1].drain_queue(&ctx, held_queue).unwrap(), 1);
        let acked: Vec<u64> = std::iter::from_fn(|| endpoint.try_recv().ok())
            .filter_map(|n| match n {
                ClientNotification::WriteResult {
                    request_id, result, ..
                } => {
                    assert!(result.is_ok(), "{result:?}");
                    Some(request_id)
                }
                _ => None,
            })
            .collect();
        assert_eq!(acked, vec![1, 2], "acked in submission order");
    }

    /// DES model of the cross-shard hold-back's *liveness*: shard groups
    /// drain on independent clocks; each session's transactions chain
    /// across groups (txn k waits for k-1, wherever it landed), and a
    /// held head defers (requeues without progress). Because every
    /// wait-for edge points at an earlier-pushed transaction, no schedule
    /// can deadlock — the simulation must always fully drain. (The
    /// safety half — txid order and uniqueness — is the
    /// `multi_leader_properties` suite.)
    #[test]
    fn multi_leader_holdback_always_converges_in_des() {
        use fk_cloud::des::{run, Scheduler};
        use std::collections::VecDeque;

        const GROUPS: usize = 4;
        const SESSIONS: usize = 6;
        const WRITES_PER_SESSION: usize = 8;
        struct Sim {
            /// Per group: queued (session, per-session seq) in push order.
            queues: Vec<VecDeque<(usize, usize)>>,
            /// Per session: highest seq applied.
            applied: Vec<usize>,
            drained: usize,
            deferrals: usize,
            /// Session-mark reads issued so far, and the share of them
            /// issued by drains that ended deferred.
            mark_reads: usize,
            deferral_reads: usize,
            /// LCG state for per-group cadence jitter (the des scheduler
            /// seed varies the queue routing; this varies the clocks).
            jitter: u64,
        }
        impl Sim {
            fn read_mark(&mut self, session: usize) -> usize {
                self.mark_reads += 1;
                self.applied[session]
            }
            fn next_jitter(&mut self) -> u64 {
                self.jitter = self
                    .jitter
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((self.jitter >> 33) % 4 + 1) * 1_000_000
            }
        }
        fn drain(group: usize) -> impl Fn(&mut Sim, &mut Scheduler<Sim>) + Clone {
            move |sim: &mut Sim, sched: &mut Scheduler<Sim>| {
                if let Some((session, seq)) = sim.queues[group].front().copied() {
                    // One invocation = one look at the mark, then the
                    // verdict; the next look is the next invocation.
                    let reads_before = sim.mark_reads;
                    if seq == 0 || sim.read_mark(session) >= seq - 1 {
                        sim.queues[group].pop_front();
                        sim.applied[session] = sim.applied[session].max(seq);
                        sim.drained += 1;
                    } else {
                        sim.deferrals += 1; // held back: redeliver later
                        sim.deferral_reads += sim.mark_reads - reads_before;
                    }
                }
                if sim.queues.iter().any(|q| !q.is_empty()) {
                    // Jittered per-group cadence: schedules interleave
                    // differently every seed.
                    let jitter = sim.next_jitter();
                    sched.schedule(jitter, drain(group));
                }
            }
        }
        for seed in 0..20u64 {
            let mut queues: Vec<VecDeque<(usize, usize)>> = vec![VecDeque::new(); GROUPS];
            // Global push order: sessions round-robin, each write routed
            // to a pseudo-random group (the path hash).
            let mut route = 0xD15Cu64.wrapping_add(seed);
            for seq in 0..WRITES_PER_SESSION {
                for session in 0..SESSIONS {
                    route = route
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    queues[(route >> 33) as usize % GROUPS].push_back((session, seq));
                }
            }
            let sim = run(
                Sim {
                    queues,
                    applied: vec![0; SESSIONS],
                    drained: 0,
                    deferrals: 0,
                    mark_reads: 0,
                    deferral_reads: 0,
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
                sim.drained,
                SESSIONS * WRITES_PER_SESSION,
                "seed {seed}: tier wedged with {} deferrals",
                sim.deferrals
            );
            assert_eq!(
                sim.deferral_reads, sim.deferrals,
                "seed {seed}: a deferral costs exactly one mark read"
            );
        }
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
