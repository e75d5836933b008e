//! The leader function (Algorithm 2, §3.2), rebuilt around the
//! [`crate::distributor`] pipeline and scaled out as a **tier**: one
//! leader instance per shard group, each the single active consumer of
//! its group's FIFO queue (the queue's one ordering group enforces it;
//! `DistributorConfig::groups == 1` reproduces the paper's single
//! leader exactly). Where the paper's leader replicates one transaction
//! at a time, each instance processes its queue batch as a pipeline.
//! This module is its I/O shell; every decision the pipeline takes is a
//! pure function of the data read so far, in `plan`:
//!
//! ➊a **Sequence** (`plan::hold_back`) — split the batch by the partial
//! order Z2 and the per-node `txq` impose. A record is *held* iff (a)
//! its session predecessor (possibly on another shard group) is covered
//! neither by the session's high-water mark nor by an earlier eligible
//! record of the batch, or (b) an earlier record of its session in this
//! batch is held, or (the `txq` rule) it does not head the `txq` of a
//! node it mutates, once the batch's earlier eligible records pop;
//! everything else is *eligible*, even behind a held record.
//! The marks (a) may need (`plan::mark_probes`) come back in **one**
//! parallel wave of strong reads, none for a session the warm instance
//! or the batch already covers. The rules run on what the batch shows,
//! then again on the `txq`s of ➊'s read wave, which only hold more. The
//! invocation runs phases ➊–➎ over the eligible records in batch order,
//! then defers from the first held record back to the queue, burning no
//! redelivery attempt — it never waits (the wait lives in whoever
//! drives the lane, `docs/consistency.md` § Apply order). Records it
//! processed from behind a held one come back with that suffix; the
//! warm instance skips them on redelivery for free (a cold one resolves
//! them as already processed). ➊ **Read wave + verify** — everything the
//! batch reads from system storage comes back in **one** parallel wave
//! (`Leader::read_wave`): the item of every node an eligible record
//! mutates (their `txq`s give the record's commit state, the first
//! one's item the object tags of the node's last write) and of every
//! parent whose children it changes (the pending children logs the
//! distributor folds into the parents' lists), the watch
//! registry item of every distinct path the batch can fire
//! (`watch:<path>` holds every kind, so each `(path, event)` class
//! is answered from it in memory), and each region's epoch marks for
//! the batch's first epoch. A batch with nothing to distribute (wholly
//! held, or deregistrations only) issues none of it. Missing commits
//! (`plan::commit_state`) are then repaired one by one: `TryCommit` on
//! the failed follower's behalf, rejecting the request if the locks were
//! lost. ➋ **Segment** the committed records into *epochs*
//! (`plan::segment`), by one rule for single and `multi` records alike:
//! a record starts a new epoch iff one of its children rewrites targets
//! a node written earlier in the epoch or its pops would overfill one
//! transaction, is alone in its epoch iff that conflict is internal to
//! it, and ends its epoch iff it has live watch registrations (answered
//! from the wave, which holds for the whole batch: segmentation runs
//! before any epoch consumes). A `multi` is never split. ➌
//! **Distribute** each epoch to every replica region
//! ([`crate::distributor::Distributor::apply_epoch`], with the wave's
//! marks for the first epoch and a fresh read for later ones): one store
//! operation per path, at most `shards` in flight per region, a parent's
//! children rewrite after the writes of the children it adds and a
//! delete after its parent's rewrite. A node write whose object tag the
//! wave found is one conditional PUT (stale, and so a read-merge-write
//! after one 412, if an earlier epoch of the batch wrote the path). ➍
//! **Consume** the epoch-ending transaction's watches (one-shot, only
//! after its writes are durable, so a nacked batch keeps
//! registrations), publish the fired ids with a single epoch-counter
//! bump per region before later transactions commit (Z4), and dispatch
//! the deliveries. ➎ **Bookkeeping wave** — advance the distributed
//! sessions' high-water marks and pop the transactions from their
//! nodes' pending queues (one conditional write per epoch, which also
//! records its object tags) in one parallel wave; then drop
//! staged payloads and notify clients — each session's results in
//! transaction order, the sessions in parallel.
//! Pops follow ➍ so that a failure there redelivers
//! as committed and still fires the watch; marks follow the epoch
//! append so that a successor they release on another lane reads the
//! fired ids. The batch ends by waiting for all watch deliveries
//! (`WaitAll`).
//!
//! The full cross-tier consistency argument lives in
//! `docs/consistency.md`.

use crate::api::{FkError, FkResult, WatchEvent, WatchEventType, WatchKind};
use crate::commit::txq_of;
use crate::distributor::{ChildLogs, CommittedTx, Distributor, DistributorConfig, EpochApplied};
use crate::messages::{
    ClientNotification, LeaderRecord, OpOutcome, Payload, UserUpdate, WriteResultData,
};
use crate::notify::ClientBus;
use crate::system_store::{node_attr, ChildLog, ObjTags, SystemStore, WatchInstance};
use crate::user_store::UserStore;
use crate::watch_fn::WatchTask;
use bytes::Bytes;
use fk_cloud::faas::FnError;
use fk_cloud::ops::Op;
use fk_cloud::queue::{Message, Queue};
use fk_cloud::trace::Ctx;
use fk_cloud::value::Value;
use fk_cloud::{CloudError, ObjectStore};
use plan::{
    commit_state, epoch_results, epoch_sessions, hold_back, kinds_for, mark_probes, merge_fires,
    mutated_paths, segment, updates, BatchFires, CommitState, Decoded, Epoch, Fire, KindSet,
    Sequenced, Txqs, Warm,
};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

mod plan;

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
    /// What a warm instance remembers between invocations (one lock,
    /// taken once per phase, never per record).
    warm: parking_lot::Mutex<Warm>,
    /// Shared distributed-txid high-water publication, when deployed:
    /// advanced after each epoch's storage operations complete (in-memory
    /// atomics only — no store traffic) and piggybacked onto heartbeat
    /// pings so idle sessions' MRD keeps advancing.
    floors: Option<Arc<crate::replica::CommittedFloors>>,
}

/// Outcome of phase ➊/➋ for one record: either it distributes, or it was
/// fully handled (notified / deregistered / rejected).
enum Disposition {
    /// Distribute, with the per-sub resolved payloads (aligned with
    /// `record.ops`, as `CommittedTx::data`).
    Distribute(Vec<Bytes>),
    Done,
}

/// What a batch's one read wave brought back ([`Leader::read_wave`]).
#[derive(Default)]
struct ReadWave<'a> {
    /// The version and object tags of each eligible record's node, by
    /// batch index.
    nodes: HashMap<usize, (Option<i64>, ObjTags)>,
    /// Live watch kinds of every distinct path the batch can fire.
    live: HashMap<&'a str, KindSet>,
    /// Each region's epoch marks, for the batch's first epoch (`None`
    /// when the batch has nothing to distribute).
    marks: Option<Vec<Arc<Vec<u64>>>>,
    /// The `txq` of every node an eligible record mutates.
    txqs: Txqs<'a>,
    /// The pending children log of every node an eligible record
    /// mutates, and of every parent whose children it changes.
    logs: ChildLogs<'a>,
}

impl Leader {
    /// Creates the function body over a distributor pipeline (shard
    /// count and epoch batch size); `user_stores` holds one replica per
    /// region.
    pub fn with_config(
        system: SystemStore,
        user_stores: Vec<Arc<dyn UserStore>>,
        staging: ObjectStore,
        bus: ClientBus,
        dispatcher: Arc<dyn WatchDispatcher>,
        config: DistributorConfig,
    ) -> Self {
        let distributor = Distributor::new(system.clone(), user_stores, config);
        Leader {
            system,
            staging,
            bus,
            dispatcher,
            distributor,
            warm: parking_lot::Mutex::new(Warm::default()),
            floors: None,
        }
    }

    /// Subscribes a read-replica tier to this leader's distributor (fed
    /// after each epoch's storage operations; see [`crate::replica`]).
    pub fn attach_replicas(&mut self, replicas: crate::replica::ReplicaSet) {
        self.distributor.attach_replicas(replicas);
    }

    /// Attaches the shared distributed-txid high-water publication
    /// ([`crate::replica::CommittedFloors`]), advanced after every
    /// applied epoch for the heartbeat's MRD piggyback.
    pub fn attach_floors(&mut self, floors: Arc<crate::replica::CommittedFloors>) {
        self.floors = Some(floors);
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
            ctx.span("decode", || ctx.charge(Op::FnCompute, msg.body.len()));
            let Some(record) = LeaderRecord::decode(&msg.body) else {
                // No redelivery can make the body decode: consume it.
                self.system.kv().meter().dropped("leader.undecodable");
                continue;
            };
            // A multi-group follower allocates the txid (epoch-prefixed
            // per shard group) and stamps it into the record. A
            // single-group follower stamps 0: its one queue totally
            // orders every write, and the queue's sequence number *is*
            // the txid, as in the paper.
            let txid = if record.txid > 0 {
                record.txid
            } else {
                msg.seq
            };
            decoded.push((i, txid, record));
        }
        let batch = self.sequence(ctx, &decoded);
        let mut handles = Vec::new();
        let result = self.process_eligible(ctx, &decoded, &batch, &mut handles);
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
        // WaitAll(WatchCallback): the batch does not finish until all
        // watch notifications are delivered.
        for handle in handles {
            handle.wait(ctx);
        }
        result
    }

    /// Drains and processes one epoch batch from the leader queue (the
    /// direct-drive equivalent of the runtime's leader trigger). The
    /// batch is what the lane has queued, up to `config.max_batch`
    /// records. Returns the number of transactions processed.
    pub fn drain_queue(&self, ctx: &Ctx, queue: &Queue) -> Result<usize, FnError> {
        let max = self.distributor.config().max_batch;
        let Some(batch) = queue.receive_up_to(max, Duration::from_secs(30)) else {
            return Ok(0);
        };
        let bytes: usize = batch.messages.iter().map(|m| m.body.len()).sum();
        ctx.charge(Op::QueueDispatch(queue.kind()), bytes);
        let outcome = self.process_messages(ctx, &batch.messages);
        let consumed = queue.settle(batch.receipt, &outcome);
        outcome.map(|()| consumed)
    }

    /// Phases ➊–➎ over the batch's eligible records, then the deferral
    /// of the held ones. The read wave covers `first`'s eligible records;
    /// its `txq`s sequence `decoded` again, which only holds more
    /// (`plan::hold_back`) and skips the same records applied ahead.
    ///
    /// Partial-batch failure contract: `at_index(i)` tells the queue
    /// that messages *before* `i` are fully processed. A held record is
    /// never processed, so no reported index passes the first held one.
    fn process_eligible<'a>(
        &self,
        ctx: &Ctx,
        decoded: &'a [Decoded],
        first: &Sequenced<'a>,
        handles: &mut Vec<WatchHandle>,
    ) -> Result<(), FnError> {
        // ➊ one read wave, then sequential repair. Until an epoch's
        // distribution completes nothing is fully processed — phase ➊
        // only repairs system storage and sends idempotent
        // notifications — so every failure up to and including the first
        // epoch maps to index 0 (redeliver the whole batch; redelivery
        // re-resolves each record idempotently).
        let fires = BatchFires::of(&first.eligible);
        let ReadWave {
            mut nodes,
            live,
            mut marks,
            txqs,
            logs,
        } = self.read_wave(ctx, &first.eligible, &fires)?;
        let batch = &hold_back(decoded, &self.warm.lock(), &txqs);
        let not_past_held = |index: usize| batch.first_held().map_or(index, |held| held.min(index));
        let mut committed: Vec<(CommittedTx<'_>, &[Fire<'_>])> = Vec::new();
        let mut resolved_ahead: Vec<u64> = Vec::new();
        for &&(index, txid, ref record) in &batch.eligible {
            let ahead = batch.is_ahead(index);
            let (version, tags) = nodes.remove(&index).unwrap_or_default();
            match self.resolve_disposition(ctx, txid, record, version, &txqs) {
                Ok(Disposition::Distribute(data)) => committed.push((
                    CommittedTx {
                        msg_index: index,
                        txid,
                        record,
                        data,
                        ahead,
                        tags,
                    },
                    fires.of_record(index),
                )),
                Ok(Disposition::Done) if ahead => resolved_ahead.push(txid),
                Ok(Disposition::Done) => {}
                Err(e) => return Err(e.at_index(0)),
            }
        }
        self.remember_ahead(batch, resolved_ahead);

        // ➋ cut epochs at transactions whose watches will fire. The
        // registry reads are non-consuming; one-shot consumption happens
        // inside `run_epoch`, *after* that epoch's writes are durable, so
        // a retryable failure never strands consumed-but-undispatched
        // registrations of later epochs.
        let epochs = segment(committed, &live);

        // ➌–➎ per epoch: distribute, publish, bookkeeping + notify.
        // After epoch k completes, every eligible message up to its last
        // index is fully processed (interleaved `Done` records were
        // handled idempotently in phase ➊), so epoch k+1's failures nack
        // from its own first message — or from the first held one, if
        // that comes earlier. The wave's epoch marks serve the first
        // epoch only: its cut may append fired ids, so later epochs read
        // the marks again.
        for epoch in epochs {
            self.run_epoch(ctx, &epoch, marks.take(), &logs, handles)
                .map_err(|e| e.at_index(not_past_held(epoch.first_index())))?;
            self.remember_ahead(
                batch,
                epoch.items.iter().filter(|tx| tx.ahead).map(|tx| tx.txid),
            );
        }

        // Everything eligible is fully processed; ask the queue to
        // redeliver from the first held record once its predecessors (on
        // other shard groups) have caught up.
        batch.held.first().map_or(Ok(()), |held| {
            Err(FnError::defer(format!("held back by rule {:?}", held.rule)).at_index(held.index))
        })
    }

    /// Remembers records fully processed from behind a held record, so
    /// their redelivery with the deferred suffix is skipped for free.
    fn remember_ahead(&self, batch: &Sequenced<'_>, txids: impl IntoIterator<Item = u64>) {
        if batch.first_held().is_some() {
            self.warm.lock().ahead.extend(txids);
        }
    }

    /// Phase ➊a: reads the session marks the hold-back could need
    /// ([`plan::mark_probes`]) in **one** parallel wave — none when the
    /// warm instance or the batch itself already covers every
    /// predecessor — notes them as remembered marks and splits the batch
    /// by [`plan::hold_back`] on what the batch alone shows. The reads
    /// carry no phase label.
    fn sequence<'a>(&self, ctx: &Ctx, decoded: &'a [Decoded]) -> Sequenced<'a> {
        let probes = mark_probes(decoded, &self.warm.lock());
        if !probes.is_empty() {
            let marks = RefCell::new(vec![0; probes.len()]);
            // A mark read reports no error (an absent mark reads 0).
            let _ = crate::distributor::fan_out(ctx, probes.len(), |i, child| {
                marks.borrow_mut()[i] = self.system.session_applied_txid(child, probes[i]);
                Ok(())
            });
            let mut warm = self.warm.lock();
            for (session, mark) in probes.iter().zip(marks.into_inner()) {
                warm.note_mark(session, mark);
            }
        }
        hold_back(decoded, &self.warm.lock(), &HashMap::new())
    }

    /// Phase ➊ reads — the batch's **one** read wave. Every read the
    /// invocation needs before it can distribute is independent of the
    /// others, so they all go out together and the wave costs one
    /// storage round trip (the slowest read), not one per kind of read:
    ///
    /// * the node item of every node an eligible record mutates (flat —
    ///   one job per node and record): each brings its `txq` and its
    ///   pending children log, and the first one the record's version and
    ///   object tags;
    /// * the node item of every parent whose children an eligible record
    ///   changes and none mutates: its pending children log, which the
    ///   distributor folds into the parent's list;
    /// * the watch registry item of every distinct path the batch can
    ///   fire. `watch:<path>` holds every kind, so one read answers all
    ///   of the path's `(path, event)` classes in memory
    ///   (`KindSet::fires`). The set is computed from the *eligible*
    ///   records, a superset of the ones that turn out committed;
    /// * each region's epoch marks, handed to the batch's first epoch.
    ///
    /// A batch with nothing to distribute (wholly held, or
    /// deregistrations only) issues none of it: a deferral still costs
    /// only its mark wave. The jobs keep the
    /// `get_node` / `query_watches` / `update_user_storage` phase labels
    /// the serial hops charged under.
    fn read_wave<'a>(
        &self,
        ctx: &Ctx,
        eligible: &[&'a Decoded],
        fires: &BatchFires<'a>,
    ) -> Result<ReadWave<'a>, FnError> {
        enum Read<'r> {
            Node(usize, &'r str),
            Parent(&'r str),
            Watches(&'r str),
            Marks(usize),
        }
        let nodes = eligible
            .iter()
            .enumerate()
            .flat_map(|(pos, (_, _, record))| {
                mutated_paths(record).map(move |path| Read::Node(pos, path))
            });
        let mut jobs: Vec<Read<'a>> = nodes.collect();
        if jobs.is_empty() {
            return Ok(ReadWave::default());
        }
        let records = || eligible.iter().map(|(_, _, record)| record);
        let mut read: HashSet<&str> = records().flat_map(mutated_paths).collect();
        let parents = records().flat_map(updates);
        let parents = parents.filter_map(|update| Some(update.child_delta()?.0));
        jobs.extend(
            parents
                .filter(|parent| read.insert(parent))
                .map(Read::Parent),
        );
        let mut seen = HashSet::new();
        let paths = fires.all.iter().map(|fire| fire.path);
        jobs.extend(paths.filter(|path| seen.insert(*path)).map(Read::Watches));
        let regions = self.distributor.regions();
        jobs.extend((0..regions.len()).map(Read::Marks));

        // Jobs run inline on this thread (`fan_out`), so each answer is
        // a plain indexed write.
        let nodes = RefCell::new(HashMap::new());
        let txqs = RefCell::new(HashMap::new());
        let logs = RefCell::new(HashMap::new());
        let live = RefCell::new(HashMap::with_capacity(seen.len()));
        let marks = RefCell::new(vec![Arc::default(); regions.len()]);
        crate::distributor::fan_out(ctx, jobs.len(), |job, child| {
            match jobs[job] {
                Read::Node(pos, path) => {
                    let item = child.span("get_node", || self.system.get_node(child, path));
                    let (index, _, record) = eligible[pos];
                    if path == record.path() {
                        let version = item.as_ref().and_then(|item| item.num(node_attr::VERSION));
                        let tags = ObjTags::of(item.as_ref());
                        nodes.borrow_mut().insert(*index, (version, tags));
                    }
                    txqs.borrow_mut().insert(path, txq_of(item.as_ref()));
                    logs.borrow_mut().insert(path, ChildLog::of(item.as_ref()));
                }
                Read::Parent(path) => {
                    let item = child.span("get_node", || self.system.get_node(child, path));
                    logs.borrow_mut().insert(path, ChildLog::of(item.as_ref()));
                }
                Read::Watches(path) => {
                    let instances = child.span("query_watches", || {
                        self.system.query_watches(child, path, &ALL_KINDS)
                    });
                    live.borrow_mut().insert(path, KindSet::of(&instances));
                }
                Read::Marks(region) => {
                    let read = child.span("update_user_storage", || {
                        self.system.epoch_marks(child, regions[region])
                    });
                    marks.borrow_mut()[region] = Arc::new(read);
                }
            }
            Ok(())
        })
        .map_err(|e| FnError::retryable(e.to_string()))?;
        Ok(ReadWave {
            nodes: nodes.into_inner(),
            live: live.into_inner(),
            marks: Some(marks.into_inner()),
            txqs: txqs.into_inner(),
            logs: logs.into_inner(),
        })
    }

    /// Phase ➊ repair: classifies the commit of `txid` from the read
    /// wave's `txqs` and the `version` of the record's node
    /// ([`plan::commit_state`]), and turns it into a disposition, running
    /// `TryCommit` for missing commits and notifying terminal outcomes.
    fn resolve_disposition(
        &self,
        ctx: &Ctx,
        txid: u64,
        record: &LeaderRecord,
        version: Option<i64>,
        txqs: &Txqs,
    ) -> Result<Disposition, FnError> {
        if record.deregister_session {
            // Removal is idempotent: deleting an already-deleted session
            // item is a no-op.
            self.system
                .remove_session(ctx, &record.session_id)
                .map_err(|e| FnError::retryable(e.to_string()))?;
            // The deregistration's txid is a *recorded* push (the
            // follower handed it over), so a redelivered or duplicated
            // CloseSession names it as `prev_txid` — its
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
        match commit_state(txid, record, version, txqs) {
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
                // Algorithm 1): TryCommit on its behalf, handing the
                // request over in the same transaction, so an orphan
                // (whose locks a re-executed copy took) publishes no
                // mark. The store absorbs throttles and injected
                // transients, so they never masquerade as an abandoned
                // transaction; a *real* guard failure (ConditionFailed /
                // TransactionCancelled) is not retryable and falls
                // through to the race re-check below.
                let (session, request) = (&record.session_id, record.request_id);
                let hand_over = SystemStore::hand_over_op(session, request, record.txid);
                let result = ctx.span("commit", || {
                    let kv = self.system.kv();
                    crate::commit::try_commit(&record.commit, txid, hand_over, ctx, kv)
                });
                match result {
                    Ok(()) => {
                        // The follower never got past the push: take over
                        // its ephemeral-lifecycle bookkeeping too (every
                        // ephemeral the transaction creates).
                        for sub in &record.ops {
                            if let UserUpdate::WriteNode {
                                ephemeral_owner: Some(owner),
                                created_txid: 0,
                                ..
                            } = &sub.user_update
                            {
                                let _ = self.system.add_session_ephemeral(ctx, owner, &sub.path);
                            }
                        }
                    }
                    Err(CloudError::ConditionFailed { .. })
                    | Err(CloudError::TransactionCancelled { .. }) => {
                        // The guard failed: either the follower's own
                        // commit won the race (benign interleaving) or the
                        // locks expired and were stolen (real failure).
                        // Re-check which case this is.
                        let item = self.system.get_node(ctx, record.path());
                        if !txq_of(item.as_ref()).contains(&txid) {
                            // The request never committed; a failed
                            // follower does not impact system consistency.
                            // An abandoned txid the session *recorded*
                            // (its next write names it as predecessor)
                            // still advances the high-water mark — and
                            // nothing else will ever resolve it; an
                            // unrecorded orphan must not (see
                            // `mark_resolved`).
                            self.mark_resolved(ctx, txid, record)?;
                            let detail = "transaction abandoned after follower failure".into();
                            self.notify(ctx, record, Err(FkError::SystemError { detail }), 0);
                            return Ok(Disposition::Done);
                        }
                    }
                    Err(e) => return Err(FnError::retryable(e.to_string())),
                }
            }
        }
        let data = ctx.span("get_payload", || {
            let data = record.ops.iter();
            data.map(|sub| self.resolve_payload(ctx, &sub.user_update))
                .collect::<Result<_, _>>()
        });
        Ok(Disposition::Distribute(data?))
    }

    /// Advances the session's distribution high-water mark for a record
    /// resolved without distribution (already processed, or abandoned) —
    /// only meaningful, and only paid for, in a multi-group tier, whose
    /// followers stamp each record's txid (a single-group follower
    /// stamps 0).
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
        if record.txid > 0 {
            let recorded = self.system.session_last_txid(ctx, &record.session_id);
            if txid <= recorded {
                self.system
                    .advance_session_applied(ctx, &record.session_id, txid)
                    .map_err(|e| FnError::retryable(e.to_string()))?;
                self.warm.lock().note_mark(&record.session_id, txid);
            }
        }
        Ok(())
    }

    /// Phases ➌–➎ for one epoch. `marks` carries the region epoch marks
    /// the batch's read wave fetched (first epoch only), `logs` the
    /// pending children logs it read.
    fn run_epoch(
        &self,
        ctx: &Ctx,
        epoch: &Epoch<'_>,
        marks: Option<Vec<Arc<Vec<u64>>>>,
        logs: &ChildLogs<'_>,
        handles: &mut Vec<WatchHandle>,
    ) -> Result<(), FnError> {
        // ➌ sharded parallel distribution to every region's user store.
        let applied = ctx
            .span("update_user_storage", || {
                let marks = marks.unwrap_or_else(|| self.distributor.epoch_marks(ctx));
                self.distributor
                    .apply_epoch(ctx, &epoch.items, &marks, logs)
            })
            .map_err(|e| FnError::retryable(e.to_string()))?;

        // The epoch is durable in every region: publish its txids as
        // this group's distributed high-water mark (in-memory atomics —
        // the heartbeat piggybacks the min over groups onto its pings;
        // no storage traffic is added here).
        // A record distributed ahead of a held one joins it later, when
        // its message leaves the queue (`process_messages`): the mark
        // speaks for the lane's prefix.
        self.publish_floors(epoch.items.iter().filter(|tx| !tx.ahead).map(|tx| tx.txid));

        // ➍ consume the epoch-ending transaction's watch registrations
        // (one-shot, now that the epoch's writes are durable — a crash
        // before this point redelivers with registrations intact), then
        // one epoch-counter bump per region publishes all fired ids
        // before later transactions commit (Z4), and the deliveries
        // dispatch.
        if let Some(fires) = epoch.fires {
            let tx = epoch.items.last().expect("firing epoch is non-empty");
            self.fire_watches(ctx, tx, fires, &applied, handles)?;
        }

        // ➎ the epoch's bookkeeping, one parallel wave: advance each
        // session's distribution high-water mark (so successors held
        // back on other shard groups may proceed) and pop the
        // transactions from their nodes' pending queues (one conditional
        // write, recording the epoch's object tags in the same update;
        // purges the tombstones of deleted nodes once their pops landed).
        //
        // The pops stay behind ➍: a failure in ➍ must redeliver the
        // records as *committed* (txid still queued) so the watch fires
        // on the retry — popped, they would resolve as already processed
        // and the consumed-or-not registrations would never dispatch.
        // The marks stay behind ➍'s epoch append: a successor the mark
        // releases on another lane reads the region's epoch marks next,
        // and must find this epoch's fired ids in them. And the marks
        // still precede the notifications, so a synchronous client's
        // next write never stalls on its own predecessor.
        let sessions = epoch_sessions(epoch);
        let jobs = 1 + usize::from(!sessions.is_empty());
        crate::distributor::fan_out(ctx, jobs, |job, child| match job {
            0 => child.span("pop_updates", || {
                self.distributor
                    .finalize_epoch(child, &epoch.items, &applied.tags, logs)
            }),
            _ => child.span("advance_session_marks", || {
                self.system.advance_sessions_applied_batch(child, &sessions)
            }),
        })
        .map_err(|e| FnError::retryable(e.to_string()))?;
        if !sessions.is_empty() {
            let mut warm = self.warm.lock();
            for (session, txid) in sessions {
                warm.note_mark(session, txid);
            }
        }

        // Drop temporary staging objects (§4.4) — a multi's subs each
        // carry their own payload. Only once the pops have landed: a
        // record that is redelivered as committed resolves its payload
        // again.
        for update in epoch.items.iter().flat_map(|tx| updates(tx.record)) {
            if let UserUpdate::WriteNode {
                payload: Payload::Staged { key, .. },
                ..
            } = update
            {
                ctx.span("delete_staging", || self.staging.delete(ctx, key))
                    .map_err(|e| FnError::retryable(e.to_string()))?;
            }
        }

        // Notify clients: each session's results in transaction order
        // (Z2, and what the pipelined client releases by), the sessions
        // in parallel — nothing orders results across sessions.
        let sessions = epoch_results(epoch);
        crate::distributor::fan_out(ctx, sessions.len(), |i, child| {
            for tx in &sessions[i] {
                self.notify_success(child, tx.txid, tx.record);
            }
            Ok(())
        })
        .map_err(|e| FnError::retryable(e.to_string()))
    }

    /// Phase ➍ for the epoch-ending transaction `tx`: consumes the
    /// registrations of the classes in `fires`, publishes the fired ids
    /// to every region's epoch counter and dispatches the deliveries.
    /// `applied` holds the lists the epoch's apply wrote.
    fn fire_watches(
        &self,
        ctx: &Ctx,
        tx: &CommittedTx<'_>,
        fires: &[Fire<'_>],
        applied: &EpochApplied,
        handles: &mut Vec<WatchHandle>,
    ) -> Result<(), FnError> {
        let fired: Vec<(WatchInstance, WatchEventType, &str)> =
            ctx.span("query_watches", || {
                let mut fired = Vec::new();
                for (path, kinds, events) in merge_fires(fires) {
                    let instances = self
                        .system
                        .consume_watches(ctx, path, &kinds)
                        .map_err(|e| FnError::retryable(e.to_string()))?;
                    for inst in instances {
                        let event_type = events
                            .iter()
                            .copied()
                            .find(|et| kinds_for(*et).contains(&inst.kind))
                            .expect("instance kind came from the merged kind set");
                        fired.push((inst, event_type, path));
                    }
                }
                Ok::<_, FnError>(fired)
            })?;
        if fired.is_empty() {
            return Ok(());
        }
        let ids: Vec<Value> = fired
            .iter()
            .map(|(inst, _, _)| Value::Num(inst.id as i64))
            .collect();
        for region in self.distributor.regions() {
            self.system
                .epoch(*region)
                .append(ctx, ids.clone())
                .map_err(|e| FnError::retryable(e.to_string()))?;
        }
        let region_ids: Vec<u8> = self.distributor.regions().iter().map(|r| r.0).collect();
        for (inst, event_type, watch_path) in fired {
            // A children event carries the full new list when the
            // epoch's apply wrote it as of the triggering transaction,
            // so caches can patch a resident parent in place instead of
            // invalidating it.
            let children = match applied.lists.get(watch_path) {
                Some((list, txid))
                    if event_type == WatchEventType::NodeChildrenChanged && *txid == tx.txid =>
                {
                    Some(list.to_vec())
                }
                _ => None,
            };
            let task = WatchTask {
                watch_id: inst.id,
                sessions: inst.sessions.clone(),
                event: WatchEvent {
                    watch_id: inst.id,
                    path: watch_path.to_owned(),
                    event_type,
                    txid: tx.txid,
                    children,
                },
                regions: region_ids.clone(),
            };
            handles.push(self.dispatcher.dispatch(ctx, task));
        }
        Ok(())
    }

    /// Fetches the payload bytes (inline or staged object).
    fn resolve_payload(&self, ctx: &Ctx, update: &UserUpdate) -> Result<Bytes, FnError> {
        let payload = match update {
            UserUpdate::WriteNode { payload, .. } => payload,
            _ => return Ok(Bytes::new()),
        };
        match payload {
            Payload::Inline { data } => {
                // Raw bytes ride the record; "resolving" them is a
                // ref-count bump.
                ctx.charge(Op::FnCompute, data.len());
                Ok(data.clone())
            }
            Payload::Staged { key, .. } => self
                .staging
                .get(ctx, key)
                .map(|(data, _)| data)
                .map_err(|e| FnError::retryable(e.to_string())),
        }
    }

    fn notify_success(&self, ctx: &Ctx, txid: u64, record: &LeaderRecord) {
        // Every sub shares the record's single txid — that one id
        // stamping every outcome *is* the visible all-or-nothing
        // contract of a multi.
        let op_results: Vec<OpOutcome> = record
            .ops
            .iter()
            .map(|sub| {
                let mut outcome = sub.outcome.clone();
                match &mut outcome {
                    OpOutcome::Created { stat, .. } => {
                        stat.created_txid = txid;
                        stat.modified_txid = txid;
                    }
                    OpOutcome::Set { stat, .. } => {
                        stat.modified_txid = txid;
                        if stat.created_txid == 0 {
                            stat.created_txid = txid;
                        }
                    }
                    OpOutcome::Deleted { .. } | OpOutcome::Checked { .. } => {}
                }
                outcome
            })
            .collect();
        self.notify(ctx, record, Ok(WriteResultData { op_results }), txid);
    }

    /// Answers `record`'s client, unless the record is internal.
    fn notify(
        &self,
        ctx: &Ctx,
        record: &LeaderRecord,
        result: FkResult<WriteResultData>,
        txid: u64,
    ) {
        if record.request_id == crate::follower::INTERNAL_REQUEST {
            return;
        }
        let request_id = record.request_id;
        let answer = ClientNotification::WriteResult {
            request_id,
            result,
            txid,
        };
        ctx.span("notify_client", || {
            self.bus.notify(ctx, &record.session_id, answer)
        });
    }
}

/// Every kind a `watch:<path>` registry item can hold.
const ALL_KINDS: [WatchKind; 4] = [
    WatchKind::Data,
    WatchKind::Exists,
    WatchKind::Children,
    WatchKind::Subtree,
];

#[cfg(test)]
mod tests;
