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
//! after another lane ran. ➊ **Read wave + verify** — everything the
//! batch reads from system storage comes back in **one** parallel wave
//! (`Leader::read_wave`): every eligible record's node item (its commit
//! state, and the object tags of the node's last write), the watch
//! registry item of every distinct path the batch can fire
//! (`watch:<path>` holds every kind, so each `(path, event)` class
//! is answered from it in memory), and each region's epoch marks for
//! the batch's first epoch. A batch with nothing to distribute (wholly
//! held, or deregistrations only) issues none of it. Missing commits
//! are then repaired one by one: `TryCommit` on the failed follower's
//! behalf, rejecting the request if the locks were lost. ➋ **Segment**
//! the batch into *epochs* by one rule for single and `multi` records
//! alike (`Leader::segment_epochs`): a record starts a new epoch iff
//! one of its children rewrites targets a node written earlier in the
//! epoch (in one epoch the apply's child → parent edge would run the
//! child's write before that node's own create lands), is alone in its
//! epoch iff that conflict is internal to it (a `multi` whose sub
//! creates a child under a node another sub writes), and ends its
//! epoch iff it has live watch registrations (answered from the wave;
//! a path is read again only after an epoch cut consumed it). A `multi`
//! is never split. ➌ **Distribute** each epoch to every replica region
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
//! nodes' pending queues (coalesced conditional updates, which also
//! record the epoch's object tags) in one parallel wave; then drop
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

use crate::api::{FkError, WatchEvent, WatchEventType, WatchKind};
use crate::distributor::{AdaptiveBatch, CommittedTx, Distributor, DistributorConfig};
use crate::messages::{
    ClientNotification, LeaderRecord, OpOutcome, Payload, UserUpdate, WriteResultData,
};
use crate::notify::ClientBus;
use crate::system_store::{node_attr, ObjTags, SystemStore, WatchInstance};
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
use std::cell::RefCell;
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
    /// advanced after each epoch's storage operations complete (in-memory
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
#[derive(Clone, Copy)]
enum CommitState {
    Committed,
    AlreadyProcessed,
    Missing,
}

/// Outcome of phase ➊/➋ for one record: either it distributes, or it was
/// fully handled (notified / deregistered / rejected).
enum Disposition {
    /// Distribute, with the per-sub resolved payloads (aligned with
    /// `record.ops`; empty `Bytes` for subs that write no node).
    Distribute(Vec<Bytes>),
    Done,
}

/// One watch class a record fires; the path is borrowed from the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fire<'a> {
    path: &'a str,
    event: WatchEventType,
}

/// The watch classes every eligible record of a batch can fire — the
/// follower-emitted ones plus the leader-derived subtree candidates —
/// computed once per batch: the read wave, ➋ and ➍ all work from it.
/// One flat list, one run per record.
struct BatchFires<'a> {
    all: Vec<Fire<'a>>,
    /// End of each record's run in `all`, aligned with the batch's
    /// eligible records.
    ends: Vec<usize>,
}

impl<'a> BatchFires<'a> {
    fn of(eligible: &[&'a Decoded]) -> Self {
        let mut fires = BatchFires {
            all: Vec::new(),
            ends: Vec::with_capacity(eligible.len()),
        };
        for (_, _, record) in eligible {
            push_fires(record, &mut fires.all);
            fires.ends.push(fires.all.len());
        }
        fires
    }

    /// The fires of the eligible record at `pos`.
    fn of_record(&self, pos: usize) -> &[Fire<'a>] {
        let start = pos.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.all[start..self.ends[pos]]
    }
}

/// The live watch kinds on one path, as read from its registry item
/// (one bit per [`WatchKind`]).
#[derive(Clone, Copy)]
struct KindSet(u8);

impl KindSet {
    fn of(instances: &[WatchInstance]) -> Self {
        KindSet(
            instances
                .iter()
                .fold(0, |bits, inst| bits | 1 << inst.kind as u8),
        )
    }

    /// True if `event` fires one of the live kinds.
    fn fires(self, event: WatchEventType) -> bool {
        kinds_for(event)
            .iter()
            .any(|kind| self.0 & 1 << *kind as u8 != 0)
    }
}

/// What a batch's one read wave brought back ([`Leader::read_wave`]).
struct ReadWave<'a> {
    /// Commit state of each eligible record and the object tags on
    /// record for its node, in batch order.
    states: Vec<(CommitState, ObjTags)>,
    /// Live watch kinds of every distinct path the batch can fire;
    /// an entry is valid until an epoch cut consumes the path's
    /// registrations.
    live: HashMap<&'a str, KindSet>,
    /// Each region's epoch marks, for the batch's first epoch (`None`
    /// when the batch has nothing to distribute).
    marks: Option<Vec<Arc<Vec<u64>>>>,
}

/// A run of committed transactions in which only the last is expected to
/// fire watch notifications.
#[derive(Default)]
struct Epoch<'a> {
    items: Vec<CommittedTx<'a>>,
    /// The last transaction's fire list, if it had live watch
    /// registrations at segmentation time; `run_epoch` consumes (and
    /// re-checks) them after the epoch's writes are durable.
    fires: Option<&'a [Fire<'a>]>,
}

impl Epoch<'_> {
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
        let distributor = Distributor::new(system.clone(), user_stores, config);
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
            let Some(record) = LeaderRecord::decode(&msg.body) else {
                // No redelivery can make the body decode: consume it.
                self.meter().dropped("leader.undecodable");
                continue;
            };
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

        // ➊ one read wave, then sequential repair. Until an epoch's
        // distribution completes nothing is fully processed — phase ➊
        // only repairs system storage and sends idempotent
        // notifications — so every failure up to and including the first
        // epoch maps to index 0 (redeliver the whole batch; redelivery
        // re-resolves each record idempotently).
        let fires = BatchFires::of(&batch.eligible);
        let ReadWave {
            states,
            live,
            mut marks,
        } = self.read_wave(ctx, &batch.eligible, &fires)?;
        let mut committed: Vec<(CommittedTx<'_>, &[Fire<'_>])> = Vec::new();
        let mut resolved_ahead: Vec<u64> = Vec::new();
        let eligible = batch.eligible.iter().zip(states).enumerate();
        for (pos, (&(index, txid, record), (state, tags))) in eligible {
            let ahead = batch.is_ahead(*index);
            match self.resolve_disposition(ctx, *txid, record, state) {
                Ok(Disposition::Distribute(data)) => committed.push((
                    CommittedTx {
                        msg_index: *index,
                        txid: *txid,
                        record,
                        data,
                        ahead,
                        tags,
                    },
                    fires.of_record(pos),
                )),
                Ok(Disposition::Done) if ahead => resolved_ahead.push(*txid),
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
        let epochs = self.segment_epochs(ctx, committed, live);

        // ➌–➎ per epoch: distribute, publish, bookkeeping + notify.
        // After epoch k completes, every eligible message up to its last
        // index is fully processed (interleaved `Done` records were
        // handled idempotently in phase ➊), so epoch k+1's failures nack
        // from its own first message — or from the first held one, if
        // that comes earlier. The wave's epoch marks serve the first
        // epoch only: its cut may append fired ids, so later epochs read
        // the marks again.
        for epoch in epochs {
            self.run_epoch(ctx, &epoch, marks.take(), handles)
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

    /// Phase ➊ reads — the batch's **one** read wave. Every read the
    /// invocation needs before it can distribute is independent of the
    /// others, so they all go out together and the wave costs one
    /// storage round trip (the slowest read), not one per kind of read:
    ///
    /// * the node item of every eligible non-deregistration record
    ///   (flat — one job per record), classified into its commit state;
    /// * the watch registry item of every distinct path the batch can
    ///   fire. `watch:<path>` holds every kind, so one read answers all
    ///   of the path's `(path, event)` classes in memory
    ///   ([`KindSet::fires`]). The set is computed from the *eligible*
    ///   records, a superset of the ones that turn out committed;
    /// * each region's epoch marks, handed to the batch's first epoch.
    ///
    /// A batch with nothing to distribute (wholly held, or
    /// deregistrations only) issues none of it: a deferral still costs
    /// exactly the hold-back's one mark read. The jobs keep the
    /// `get_node` / `query_watches` / `update_user_storage` phase labels
    /// the serial hops charged under.
    fn read_wave<'a>(
        &self,
        ctx: &Ctx,
        eligible: &[&'a Decoded],
        fires: &BatchFires<'a>,
    ) -> Result<ReadWave<'a>, FnError> {
        enum Read<'r> {
            Node(usize),
            Watches(&'r str),
            Marks(usize),
        }
        let mut jobs: Vec<Read<'a>> = eligible
            .iter()
            .enumerate()
            .filter(|(_, (_, _, record))| !record.deregister_session)
            .map(|(pos, _)| Read::Node(pos))
            .collect();
        let states = vec![(CommitState::Missing, ObjTags::default()); eligible.len()];
        if jobs.is_empty() {
            return Ok(ReadWave {
                states,
                live: HashMap::new(),
                marks: None,
            });
        }
        let mut seen = HashSet::new();
        let paths = fires.all.iter().map(|fire| fire.path);
        jobs.extend(paths.filter(|path| seen.insert(*path)).map(Read::Watches));
        let regions = self.distributor.regions();
        jobs.extend((0..regions.len()).map(Read::Marks));

        // Jobs run inline on this thread (`fan_out`), so each answer is
        // a plain indexed write.
        let states = RefCell::new(states);
        let live = RefCell::new(HashMap::with_capacity(seen.len()));
        let marks = RefCell::new(vec![Arc::default(); regions.len()]);
        crate::distributor::fan_out(ctx, jobs.len(), |job, child| {
            match jobs[job] {
                Read::Node(pos) => {
                    let (_, txid, record) = eligible[pos];
                    states.borrow_mut()[pos] =
                        child.span("get_node", || self.commit_state(child, *txid, record));
                }
                Read::Watches(path) => {
                    let kinds = child.span("query_watches", || self.live_kinds(child, path));
                    live.borrow_mut().insert(path, kinds);
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
            states: states.into_inner(),
            live: live.into_inner(),
            marks: Some(marks.into_inner()),
        })
    }

    /// Reads `record`'s node item and classifies the commit of `txid`;
    /// the item also carries the object tags of the node's last write.
    fn commit_state(&self, ctx: &Ctx, txid: u64, record: &LeaderRecord) -> (CommitState, ObjTags) {
        let item = self.system.get_node(ctx, record.path());
        let txq_has = item
            .as_ref()
            .and_then(|i| i.list(node_attr::TXQ))
            .map(|q| q.contains(&Value::Num(txid as i64)))
            .unwrap_or(false);
        let state = if txq_has {
            CommitState::Committed
        } else if item
            .as_ref()
            .and_then(|i| i.num(node_attr::VERSION))
            .map(|v| v as u64 >= txid)
            .unwrap_or(false)
        {
            CommitState::AlreadyProcessed
        } else {
            CommitState::Missing
        };
        (state, ObjTags::of(item.as_ref()))
    }

    /// Non-consuming read of one path's watch registry item.
    fn live_kinds(&self, ctx: &Ctx, path: &str) -> KindSet {
        KindSet::of(&self.system.query_watches(ctx, path, &ALL_KINDS))
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
                        let landed = self
                            .system
                            .get_node(ctx, record.path())
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
        let data = record
            .ops
            .iter()
            .map(|sub| self.resolve_payload(ctx, &sub.user_update))
            .collect::<Result<_, _>>()?;
        Ok(Disposition::Distribute(data))
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

    /// Phase ➋: splits the committed run into epochs, by **one rule** for
    /// single and `multi` records alike (a multi is looked at through
    /// every one of its subs). A record
    ///
    /// * **starts a new epoch** iff one of its children rewrites targets
    ///   a node written earlier in the current epoch (a child created
    ///   under a node this same epoch creates): the rewrite would fold
    ///   into that node's write, and the apply's child → parent edge
    ///   would then run the child's write *before* the node's own create
    ///   lands — a reader could see the later transaction's child while
    ///   the earlier create of its parent is not yet visible. Cutting at
    ///   the conflict lets the parent's create land first; the child's
    ///   transaction simply starts the next epoch, mirroring the
    ///   sequential leader's order;
    /// * is **alone in its epoch** iff that conflict is *internal* to it
    ///   — one sub's children rewrite targets a node another sub writes.
    ///   The subs are one atomic unit under one txid and cannot be cut
    ///   apart; isolating the record keeps the visibility reasoning
    ///   local to it (all subs share the txid, so no cross-transaction
    ///   order can be observed against them);
    /// * **ends its epoch** iff its watches will fire (only those
    ///   transactions advance the region epoch counters);
    /// * and otherwise joins the current epoch. A multi is never split:
    ///   its sub-effects always distribute as one epoch-atomic unit.
    ///
    /// The watch check is a *non-consuming* registry read — one-shot
    /// consumption is deferred to `run_epoch` so that a nacked batch
    /// never loses registrations that were consumed for an epoch that
    /// did not get distributed. A registration racing in between is
    /// picked up by a later transaction, which is a valid linearization
    /// of the concurrent register.
    ///
    /// The registry is read **once per distinct path per batch**, in the
    /// batch's read wave (`live`): a create-heavy batch fires the same
    /// parent's children class once per transaction, and every class of
    /// a path lives in the one `watch:<path>` item. The liveness answer
    /// cannot change inside a batch except when an epoch cut consumes
    /// the registrations, at which point the memo forgets exactly the
    /// fired paths and a later transaction firing them re-queries. A
    /// concurrent registration that lands mid-batch is observed by the
    /// next batch, which is the same valid linearization as before.
    fn segment_epochs<'a>(
        &self,
        ctx: &Ctx,
        committed: Vec<(CommittedTx<'a>, &'a [Fire<'a>])>,
        mut live: HashMap<&'a str, KindSet>,
    ) -> Vec<Epoch<'a>> {
        let mut epochs: Vec<Epoch<'a>> = Vec::new();
        let mut current = Epoch::default();
        // Node paths written by a `WriteNode` earlier in the current epoch.
        let mut written: HashSet<&'a str> = HashSet::new();
        for (tx, fires) in committed {
            let record: &'a LeaderRecord = tx.record;
            let targets = || updates(record).filter_map(children_target);
            let writes = || updates(record).filter_map(written_path);
            let conflict = targets().any(|parent| written.contains(parent));
            let internal = targets().any(|parent| writes().any(|path| path == parent));
            if (conflict || internal) && !current.items.is_empty() {
                epochs.push(std::mem::take(&mut current));
                written.clear();
            }
            written.extend(writes());
            let fires_now = self.fires_live(ctx, &mut live, fires);
            current.items.push(tx);
            if fires_now {
                current.fires = Some(fires);
                // `run_epoch` consumes the fired paths' registrations
                // (one-shot); what the memo learned about them is stale.
                for fire in fires {
                    live.remove(fire.path);
                }
            }
            if fires_now || internal {
                epochs.push(std::mem::take(&mut current));
                written.clear();
            }
        }
        if !current.items.is_empty() {
            epochs.push(current);
        }
        epochs
    }

    /// True if any class `fires` names has live registrations; a path
    /// an epoch cut made the memo forget is read again.
    fn fires_live<'f>(
        &self,
        ctx: &Ctx,
        live: &mut HashMap<&'f str, KindSet>,
        fires: &[Fire<'f>],
    ) -> bool {
        !fires.is_empty()
            && ctx.span("query_watches", || {
                fires.iter().any(|fire| {
                    live.entry(fire.path)
                        .or_insert_with(|| self.live_kinds(ctx, fire.path))
                        .fires(fire.event)
                })
            })
    }

    /// Phases ➌–➎ for one epoch. `marks` carries the region epoch marks
    /// the batch's read wave fetched (first epoch only).
    fn run_epoch(
        &self,
        ctx: &Ctx,
        epoch: &Epoch<'_>,
        marks: Option<Vec<Arc<Vec<u64>>>>,
        handles: &mut Vec<WatchHandle>,
    ) -> Result<(), FnError> {
        // ➌ sharded parallel distribution to every region's user store.
        let tags = ctx
            .span("update_user_storage", || {
                let marks = marks.unwrap_or_else(|| self.distributor.epoch_marks(ctx));
                self.distributor.apply_epoch(ctx, &epoch.items, &marks)
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

        // ➍ consume the epoch-ending transaction's watch registrations
        // (one-shot, now that the epoch's writes are durable — a crash
        // before this point redelivers with registrations intact), then
        // one epoch-counter bump per region publishes all fired ids
        // before later transactions commit (Z4), and the deliveries
        // dispatch.
        if let Some(fires) = epoch.fires {
            let tx = epoch.items.last().expect("firing epoch is non-empty");
            self.fire_watches(ctx, tx, fires, handles)?;
        }

        // ➎ the epoch's bookkeeping, one parallel wave: advance each
        // session's distribution high-water mark (so successors held
        // back on other shard groups may proceed) and pop the
        // transactions from their nodes' pending queues (coalesced per
        // path, recording the epoch's object tags in the same updates;
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
        let sessions = self.epoch_sessions(epoch);
        let jobs = 1 + usize::from(!sessions.is_empty());
        crate::distributor::fan_out(ctx, jobs, |job, child| match job {
            0 => child.span("pop_updates", || {
                self.distributor.finalize_epoch(child, &epoch.items, &tags)
            }),
            _ => child.span("advance_session_marks", || {
                self.advance_marks(child, &sessions)
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

        // Notify clients: each session's results in transaction order
        // (Z2, and what the pipelined client releases by), the sessions
        // in parallel — nothing orders results across sessions.
        let sessions = self.epoch_results(epoch);
        crate::distributor::fan_out(ctx, sessions.len(), |i, child| {
            for tx in &sessions[i] {
                self.notify_success(child, tx.txid, tx.record);
            }
            Ok(())
        })
        .map_err(|e| FnError::retryable(e.to_string()))
    }

    /// The epoch's records that answer a client, grouped by session in
    /// first-appearance order, each group in transaction order.
    fn epoch_results<'e, 'a>(&self, epoch: &'e Epoch<'a>) -> Vec<Vec<&'e CommittedTx<'a>>> {
        let mut per_session: Vec<Vec<&CommittedTx<'_>>> = Vec::new();
        let answered = epoch.items.iter();
        for tx in answered.filter(|tx| tx.record.request_id != crate::follower::INTERNAL_REQUEST) {
            let session = tx.record.session_id.as_str();
            match per_session
                .iter_mut()
                .find(|txs| txs[0].record.session_id == session)
            {
                Some(txs) => txs.push(tx),
                None => per_session.push(vec![tx]),
            }
        }
        per_session
    }

    /// The highest txid the epoch distributed for each session it
    /// touched — the marks ➎ advances. Only a multi-group tier keeps
    /// marks (a single lane orders its sessions by itself).
    fn epoch_sessions<'e>(&self, epoch: &'e Epoch<'_>) -> Vec<(&'e str, u64)> {
        let mut per_session: Vec<(&str, u64)> = Vec::new();
        if self.distributor.config().groups > 1 {
            for tx in &epoch.items {
                let session = tx.record.session_id.as_str();
                match per_session.iter_mut().find(|(s, _)| *s == session) {
                    Some((_, max)) => *max = (*max).max(tx.txid),
                    None => per_session.push((session, tx.txid)),
                }
            }
        }
        per_session
    }

    /// Advances the sessions' distribution high-water marks in chunked
    /// multi-item transactions (⌈N/25⌉ write requests, with per-item
    /// monotone guards — see `advance_sessions_applied_batch`). Marks
    /// are monotone maxes guarded per item: a retried chunk that already
    /// landed degrades to a no-op, so transient failures are absorbed in
    /// place.
    fn advance_marks(&self, ctx: &Ctx, sessions: &[(&str, u64)]) -> fk_cloud::CloudResult<()> {
        with_retry(
            ctx,
            self.meter(),
            &RetryPolicy::standard(),
            "leader.marks",
            || self.system.advance_sessions_applied_batch(ctx, sessions),
        )
    }

    /// Phase ➍ for the epoch-ending transaction `tx`: consumes the
    /// registrations of the classes in `fires`, publishes the fired ids
    /// to every region's epoch counter and dispatches the deliveries.
    fn fire_watches(
        &self,
        ctx: &Ctx,
        tx: &CommittedTx<'_>,
        fires: &[Fire<'_>],
        handles: &mut Vec<WatchHandle>,
    ) -> Result<(), FnError> {
        let fired: Vec<(WatchInstance, WatchEventType, &str)> =
            ctx.span("query_watches", || {
                let mut fired = Vec::new();
                for (path, kinds, events) in merge_fires(fires) {
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
                fired_children(tx.record, watch_path)
            } else {
                None
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
            Payload::Staged { key, .. } => with_retry(
                ctx,
                self.staging.meter(),
                &RetryPolicy::standard(),
                "leader.staging_get",
                || self.staging.get(ctx, key).map(|(data, _)| data),
            )
            .map_err(|e| FnError::retryable(e.to_string())),
        }
    }

    fn notify_success(&self, ctx: &Ctx, txid: u64, record: &LeaderRecord) {
        if record.request_id == crate::follower::INTERNAL_REQUEST {
            return;
        }
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
        ctx.span("notify_client", || {
            self.bus.notify(
                ctx,
                &record.session_id,
                ClientNotification::WriteResult {
                    request_id: record.request_id,
                    result: Ok(WriteResultData { op_results }),
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
/// txid: every mutating sub's (checks never enter a `txq`).
fn mutated_paths(record: &LeaderRecord) -> impl Iterator<Item = &str> {
    record
        .ops
        .iter()
        .filter(|sub| sub.mutates())
        .map(|sub| sub.path.as_str())
}

/// The full children list of `path` carried by `record`, if the record
/// rewrote it: a create/delete snapshots its parent's new list under the
/// node's follower lock (`parent_children`). The *last* matching sub
/// wins — its snapshot was taken latest in the atomic unit.
fn fired_children(record: &LeaderRecord, path: &str) -> Option<Vec<String>> {
    updates(record).rev().find_map(|update| {
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
    })
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

/// Every kind a `watch:<path>` registry item can hold.
const ALL_KINDS: [WatchKind; 4] = [
    WatchKind::Data,
    WatchKind::Exists,
    WatchKind::Children,
    WatchKind::Subtree,
];

/// The user-store updates `record` distributes, in op order.
fn updates(record: &LeaderRecord) -> impl DoubleEndedIterator<Item = &UserUpdate> {
    record.ops.iter().map(|sub| &sub.user_update)
}

/// The parent whose children list `update` rewrites, if any.
fn children_target(update: &UserUpdate) -> Option<&str> {
    match update {
        UserUpdate::WriteNode {
            parent_children: Some((parent, _)),
            ..
        }
        | UserUpdate::DeleteNode {
            parent_children: Some((parent, _)),
            ..
        } => Some(parent),
        _ => None,
    }
}

/// The node `update` writes (creates or replaces), if any.
fn written_path(update: &UserUpdate) -> Option<&str> {
    match update {
        UserUpdate::WriteNode { path, .. } => Some(path),
        _ => None,
    }
}

/// Appends the full fire list of `record` to `out`: the follower-emitted
/// fires (a multi's subs in op order — attribution order matters for the
/// merged consume, see `merge_fires`), then the leader-derived subtree
/// candidates — a `SubtreeChanged` event at every path on the ancestor
/// chain of each written node (the node itself, its parent, on up to
/// `/`). Deriving those leader-side keeps followers unchanged and queue
/// frames free of extras; the epoch machinery treats them exactly like
/// follower-emitted fires, so a live subtree registration cuts an epoch
/// and consumes one-shot, while an unarmed ancestor costs only a
/// memoized registry probe per batch. Every path is borrowed from the
/// record.
fn push_fires<'a>(record: &'a LeaderRecord, out: &mut Vec<Fire<'a>>) {
    let start = out.len();
    out.extend(record.fires_all().map(|fw| Fire {
        path: &fw.watch_path,
        event: fw.event_type,
    }));
    let mut push_chain = |path: &'a str| {
        let mut current = path;
        while !current.is_empty() {
            let fire = Fire {
                path: current,
                event: WatchEventType::SubtreeChanged,
            };
            if !out[start..].contains(&fire) {
                out.push(fire);
            }
            current = match current.rfind('/') {
                _ if current == "/" => "",
                Some(0) => "/",
                Some(idx) => &current[..idx],
                None => "",
            };
        }
    };
    // Checks mutate nothing and fire nothing.
    for path in mutated_paths(record) {
        push_chain(path);
    }
}

/// Dedups a transaction's fired watch classes by path, merging the kind
/// sets so each distinct path consumes in **one** conditional registry
/// update instead of one per (path, event) pair. Returns, per path in
/// first-fire order: the merged kinds and the fired events in order —
/// a consumed instance is attributed to the first event whose trigger
/// matrix covers its kind, which is exactly the instance → event mapping
/// sequential per-event consumption produced (one-shot consumption hands
/// every instance to the first matching event anyway).
fn merge_fires<'a>(fires: &[Fire<'a>]) -> Vec<(&'a str, Vec<WatchKind>, Vec<WatchEventType>)> {
    let mut merged: Vec<(&str, Vec<WatchKind>, Vec<WatchEventType>)> = Vec::new();
    for fire in fires {
        let entry = match merged.iter_mut().find(|(p, _, _)| *p == fire.path) {
            Some(entry) => entry,
            None => {
                merged.push((fire.path, Vec::new(), Vec::new()));
                merged.last_mut().expect("just pushed")
            }
        };
        entry.2.push(fire.event);
        for kind in kinds_for(fire.event) {
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
    use crate::user_store::{FrameStore, NodeRecord};
    use crate::CreateMode;
    use fk_cloud::objectstore::{Precondition, Tag};
    use fk_cloud::CloudResult;
    use std::time::Duration;

    #[test]
    fn merge_fires_dedups_paths_and_merges_kinds() {
        let fire = |path, event| Fire { path, event };
        let fires = [
            fire("/n", WatchEventType::NodeDataChanged),
            fire("/p", WatchEventType::NodeChildrenChanged),
            fire("/n", WatchEventType::NodeChildrenChanged),
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
        let merged = merge_fires(&[Fire {
            path: "/n",
            event: WatchEventType::NodeCreated,
        }]);
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
        use crate::messages::{CommitItem, MultiSub, SerValue, SystemCommit};
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
            deregister_session: false,
            ops: vec![MultiSub {
                path: "/orphaned".into(),
                user_update: UserUpdate::DeleteNode {
                    path: "/orphaned".into(),
                    parent_children: None,
                },
                fires: vec![],
                is_delete: true,
                outcome: OpOutcome::Deleted {
                    path: "/orphaned".into(),
                },
            }],
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
            // A 32-record window: the largest budget epoch is 30 records.
            let distributor = DistributorConfig {
                max_batch: 32,
                min_batch: 32,
                ..DistributorConfig::default()
            };
            let deployment = Deployment::direct(
                DeploymentConfig::aws()
                    .with_distributor(distributor)
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

        /// The deployment's inline watch dispatcher.
        fn inline_dispatcher(&self) -> crate::deploy::InlineDispatcher {
            crate::deploy::InlineDispatcher::new(
                Arc::new(self.deployment.make_watch_fn()),
                self.deployment.config().watch_fn,
            )
        }

        /// A leader of this deployment over a stand-in user store and
        /// watch dispatcher.
        fn leader_over(
            &self,
            store: Arc<dyn UserStore>,
            dispatcher: Arc<dyn WatchDispatcher>,
        ) -> Leader {
            Leader::with_config(
                self.deployment.system().clone(),
                vec![store],
                self.deployment.staging().clone(),
                self.deployment.bus().clone(),
                dispatcher,
                self.deployment.config().distributor,
            )
        }

        /// `f`'s result and every charge made while it ran, in charge
        /// order.
        fn charges_of<T>(&self, f: impl FnOnce() -> T) -> (T, Vec<fk_cloud::trace::SpanRecord>) {
            self.ctx.take_spans();
            let out = f();
            (out, self.ctx.take_spans())
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

    impl FrameStore for PoisonedStore {
        fn get_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<(Bytes, Tag)>> {
            self.inner.get_frame(ctx, path)
        }
        fn put_frame(
            &self,
            ctx: &Ctx,
            path: &str,
            frame: Bytes,
            precondition: Option<Precondition>,
        ) -> CloudResult<Tag> {
            if self.poisoned.lock().as_deref() == Some(path) {
                return Err(CloudError::ServiceStopped);
            }
            self.inner.put_frame(ctx, path, frame, precondition)
        }
        fn delete_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<()> {
            self.inner.delete_frame(ctx, path)
        }
        fn scan_frames(&self, ctx: &Ctx, root: &str) -> CloudResult<Vec<(String, Bytes)>> {
            self.inner.scan_frames(ctx, root)
        }
        fn region(&self) -> fk_cloud::Region {
            self.inner.region()
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
        let leader = tier.leader_over(
            Arc::clone(&store) as Arc<dyn UserStore>,
            Arc::new(tier.inline_dispatcher()),
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

    /// The read wave reads the registry item of each distinct *path* of
    /// the batch once — one item answers every class on the path — and
    /// a path an epoch cut consumed is read again by the next
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
        // The wave: `/w` (data changed + subtree) and `/` (subtree), one
        // read each. The first write fires, its epoch consumes both
        // paths' registrations, and the second write reads the two items
        // again; the third finds every answer remembered.
        assert_eq!(registry_reads.count(), 2 + 2);
    }

    /// One leader batch of plain overwrites: `n` sessions each rewrite a
    /// node of their own, all in lane 0 of a 2-group tier. Returns the
    /// charge records of that one invocation and its KV read count.
    fn overwrite_batch(n: usize) -> (Vec<fk_cloud::trace::SpanRecord>, u64) {
        let tier = Lanes::new(2);
        let sessions: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
        let _endpoints: Vec<Endpoint> = sessions.iter().map(|s| tier.session(s)).collect();
        for (i, session) in sessions.iter().enumerate() {
            tier.submit(session, 1, create(&path_on(0, i)));
        }
        tier.run_follower();
        assert_eq!(tier.drain(0).unwrap(), n);
        for (i, session) in sessions.iter().enumerate() {
            tier.submit(session, 2, set(&path_on(0, i), b"y"));
        }
        tier.run_follower();
        let before = tier.deployment.meter().snapshot();
        let (processed, charges) = tier.charges_of(|| tier.drain(0).unwrap());
        assert_eq!(processed, n, "one leader batch");
        let used = tier.deployment.meter().snapshot().since(&before);
        (charges, used.per_op["kv_read"])
    }

    /// Prints a chain of charges relative to its first one (shown by the
    /// CI `leader round-trip budget` step).
    fn print_chain(title: &str, chain: &[&fk_cloud::trace::SpanRecord]) {
        println!("{title}");
        let origin = chain.iter().map(|s| s.start).min().unwrap_or_default();
        for charge in chain {
            let at = charge.start - origin;
            println!(
                "  +{at:>12?} {:>12?}  {:<24} {:?}",
                charge.duration, charge.phase, charge.op
            );
        }
    }

    /// The read wave's budget: an N-record batch reads exactly N node
    /// items, one registry item per distinct fired path and one epoch
    /// list per region, and all of it costs the *slowest* read, not the
    /// sum. (A wholly held batch issues none of it — one mark read, see
    /// `held_head_defers_after_exactly_one_mark_read`.)
    #[test]
    fn round_trip_budget_read_wave_is_one_round_trip() {
        let n = 6;
        let (charges, kv_reads) = overwrite_batch(n);
        let reads_in = |phase: &str| -> Vec<&fk_cloud::trace::SpanRecord> {
            let reads = charges.iter().filter(|s| matches!(s.op, Op::KvGet { .. }));
            reads.filter(|s| s.phase == phase).collect()
        };
        let nodes = reads_in("get_node");
        let registry = reads_in("query_watches");
        let marks = reads_in("update_user_storage");
        let wave = [&nodes[..], &registry[..], &marks[..]].concat();
        print_chain("read wave (all three kinds of read start together):", &wave);
        assert_eq!(nodes.len(), n, "one node read per record");
        assert_eq!(
            registry.len(),
            n + 1,
            "one registry read per path: n nodes + /"
        );
        assert_eq!(marks.len(), 1, "one epoch-mark read per region");
        assert_eq!(kv_reads as usize, wave.len(), "and no other KV read");

        let start = wave[0].start;
        assert!(wave.iter().all(|s| s.start == start), "one wave");
        let slowest = wave.iter().map(|s| s.duration).max().unwrap();
        let sum: Duration = wave.iter().map(|s| s.duration).sum();
        let resumed = charges.iter().map(|s| s.start).filter(|at| *at > start);
        println!("  wave costs {slowest:?} (the slowest read); serial it would cost {sum:?}");
        assert_eq!(
            resumed.min(),
            Some(start + slowest),
            "the invocation resumes when the slowest read returns, not after {sum:?}"
        );
    }

    /// The bookkeeping wave's budget: the epoch's marks transaction and
    /// its pop transaction go out together, and the notifications start
    /// when the slower of the two has landed.
    #[test]
    fn round_trip_budget_bookkeeping_wave_is_max_of_marks_and_pops() {
        let (charges, _) = overwrite_batch(6);
        let in_phase = |phase: &str| -> Vec<&fk_cloud::trace::SpanRecord> {
            charges.iter().filter(|s| s.phase == phase).collect()
        };
        let (marks, pops) = (in_phase("advance_session_marks"), in_phase("pop_updates"));
        let notify = in_phase("notify_client");
        print_chain(
            "bookkeeping wave (marks || pops, then the first notification):",
            &[&marks[..], &pops[..], &notify[..1]].concat(),
        );
        let (&[marks], &[pops]) = (&marks[..], &pops[..]) else {
            panic!("one marks transaction and one pop transaction per epoch");
        };
        assert_eq!(marks.start, pops.start, "one wave");
        let (slower, sum) = (
            marks.duration.max(pops.duration),
            marks.duration + pops.duration,
        );
        println!("  wave costs {slower:?} (the slower of the two); serial it would cost {sum:?}");
        assert_eq!(
            notify[0].start,
            marks.start + slower,
            "notifications wait for max(marks, pops), not their sum {sum:?}"
        );
    }

    /// The bookkeeping wave's budget in requests: an epoch of N sessions
    /// over N distinct paths writes the system store ⌈N/25⌉ times for
    /// its marks and ⌈N/25⌉ times for its pops.
    #[test]
    fn round_trip_budget_bookkeeping_is_one_write_per_25_items() {
        for (n, requests) in [(16, 1 + 1), (30, 2 + 2)] {
            let (charges, _) = overwrite_batch(n);
            let bookkeeping = charges
                .iter()
                .filter(|s| s.phase == "advance_session_marks" || s.phase == "pop_updates");
            assert_eq!(bookkeeping.count(), requests, "{n} sessions x {n} paths");
        }
    }

    /// A dispatcher that runs `hook` at dispatch time — inside ➍, after
    /// the epoch append — and then delivers through `deliver`, or not at
    /// all (the fired id then stays in the region's epoch list).
    struct HookedDispatcher<F> {
        hook: F,
        deliver: Option<crate::deploy::InlineDispatcher>,
    }

    impl<F: Fn(&WatchTask) + Send + Sync> WatchDispatcher for HookedDispatcher<F> {
        fn dispatch(&self, ctx: &Ctx, task: WatchTask) -> WatchHandle {
            (self.hook)(&task);
            match &self.deliver {
                Some(inline) => inline.dispatch(ctx, task),
                None => WatchHandle {
                    forked: None,
                    rx: None,
                },
            }
        }
    }

    /// Request ids of the write results and the watch events waiting on
    /// `endpoint`.
    fn received(endpoint: &Endpoint) -> (Vec<u64>, Vec<WatchEvent>) {
        let (mut results, mut events) = (Vec::new(), Vec::new());
        for notification in std::iter::from_fn(|| endpoint.try_recv().ok()) {
            match notification {
                ClientNotification::WriteResult { request_id, .. } => results.push(request_id),
                ClientNotification::Watch(event) => events.push(event),
                ClientNotification::Ping { .. } => {}
            }
        }
        (results, events)
    }

    /// A 2-group tier with one node in lane 0, created by session `s`,
    /// which also holds a data watch on it.
    fn watched_node() -> (Lanes, Endpoint, String) {
        let tier = Lanes::new(2);
        let endpoint = tier.session("s");
        let node = path_on(0, 0);
        tier.submit("s", 1, create(&node));
        tier.run_follower();
        assert_eq!(tier.drain(0).unwrap(), 1);
        assert_eq!(received(&endpoint).0, vec![1]);
        tier.deployment
            .system()
            .register_watch(&tier.ctx, &node, WatchKind::Data, "s")
            .unwrap();
        (tier, endpoint, node)
    }

    /// Length of `path`'s pending-transaction queue in system storage.
    fn txq_len(tier: &Lanes, path: &str) -> usize {
        let item = tier.deployment.system().get_node(&tier.ctx, path);
        let txq = item.as_ref().and_then(|item| item.list(node_attr::TXQ));
        txq.map_or(0, |txq| txq.len())
    }

    /// A plan under which one store refuses `kind` exactly as often as
    /// the standard retry policy tries: the first call fails for good,
    /// everything after it succeeds.
    fn one_exhausted_retry(
        arm: impl FnOnce(&mut fk_cloud::chaos::FaultPlan, fk_cloud::chaos::FaultSpec),
    ) -> Arc<fk_cloud::chaos::Chaos> {
        use fk_cloud::chaos::{Chaos, FaultPlan, FaultSpec};
        let mut plan = FaultPlan::disabled();
        let attempts = RetryPolicy::standard().max_attempts;
        arm(&mut plan, FaultSpec::new(1.0, attempts.into()));
        Chaos::from_plan(plan).expect("one fault point armed")
    }

    /// Why the pops follow ➍: a retryable failure while consuming the
    /// registrations leaves the transaction in its node's `txq`, so the
    /// redelivery resolves it as *committed*, distributes it again
    /// (idempotent) and fires the watch — exactly once.
    #[test]
    fn failure_while_firing_keeps_the_txq_and_the_redelivery_fires_once() {
        let (tier, endpoint, node) = watched_node();
        tier.submit("s", 2, set(&node, b"new"));
        tier.run_follower();
        // The invocation's first KV *write* is ➍'s registry consumption
        // (the read wave reads, ➌ writes the user store).
        let kv = tier.deployment.system().kv();
        kv.install_chaos(one_exhausted_retry(|plan, spec| plan.kv_error = spec));

        let err = tier.drain(0).unwrap_err();
        assert!(err.retryable && !err.deferred, "{err:?}");
        assert_eq!(txq_len(&tier, &node), 1, "not popped: still committed");
        assert_eq!(received(&endpoint), (vec![], vec![]), "nothing fired yet");

        assert_eq!(tier.drain(0).unwrap(), 1);
        let (results, events) = received(&endpoint);
        assert_eq!(results, vec![2]);
        assert_eq!(events.len(), 1, "the watch fired exactly once");
        assert_eq!(events[0].path, node);
        assert_eq!(txq_len(&tier, &node), 0);
        assert_eq!(&tier.stored(&node).unwrap().data[..], b"new");
    }

    /// The other side of ➎: an invocation that dies after its pops
    /// landed and before it notified is redelivered as *already
    /// processed* — the client gets its one result then, and the watch
    /// (dispatched before the crash) does not fire again.
    #[test]
    fn crash_between_pops_and_notifications_acks_exactly_once() {
        let (tier, endpoint, node) = watched_node();
        let staging = tier.deployment.staging();
        let payload = Payload::Staged {
            key: "staged/s/2".into(),
            len: 3,
        };
        staging
            .put(&tier.ctx, "staged/s/2", Bytes::from_static(b"big"))
            .unwrap();
        let staged_set = WriteOp::SetData {
            path: node.clone(),
            payload,
            expected_version: -1,
        };
        tier.submit("s", 2, staged_set);
        tier.run_follower();
        // From the moment the watch dispatches (➍), the staging bucket
        // refuses the delete that follows ➎'s wave until its retries are
        // spent: the invocation fails with its pops landed, before any
        // notification.
        let flaky = staging.clone();
        let leader = tier.leader_over(
            Arc::clone(tier.deployment.user_store()),
            Arc::new(HookedDispatcher {
                hook: move |_: &WatchTask| {
                    flaky.install_chaos(one_exhausted_retry(|plan, spec| plan.obj_error = spec))
                },
                deliver: Some(tier.inline_dispatcher()),
            }),
        );
        let drain = || leader.drain_queue(&tier.ctx, tier.lane(0));

        let err = drain().unwrap_err();
        assert!(err.retryable && !err.deferred, "{err:?}");
        assert_eq!(txq_len(&tier, &node), 0, "the pops landed");
        let (results, events) = received(&endpoint);
        assert_eq!((results, events.len()), (vec![], 1), "fired, not yet acked");

        assert_eq!(drain().unwrap(), 1);
        assert_eq!(
            received(&endpoint),
            (vec![2], vec![]),
            "one result, no refire"
        );
        assert_eq!(&tier.stored(&node).unwrap().data[..], b"big");
    }

    /// `watched_node`, overwritten once through the pipeline (its node
    /// item carries the object tag of that write) and watched again.
    fn tagged_watched_node() -> (Lanes, Endpoint, String) {
        let (tier, endpoint, node) = watched_node();
        tier.submit("s", 2, set(&node, b"a"));
        tier.run_follower();
        assert_eq!(tier.drain(0).unwrap(), 1);
        assert_eq!(received(&endpoint).0, vec![2]);
        let tags = ObjTags::of(tier.deployment.system().get_node(&tier.ctx, &node).as_ref());
        assert!(!tags.is_empty(), "the overwrite left a tag");
        tier.deployment
            .system()
            .register_watch(&tier.ctx, &node, WatchKind::Data, "s")
            .unwrap();
        (tier, endpoint, node)
    }

    /// Two writes of one tagged node in one batch, cut into two epochs
    /// by the first one's watch. Both name the tag the read wave found:
    /// the first lands, the second — stale now — costs one 412 and falls
    /// back to the read-merge-write, whose tag the pop records.
    #[test]
    fn a_later_epoch_of_the_batch_falls_back_after_one_412() {
        let (tier, endpoint, node) = tagged_watched_node();
        tier.submit("s", 3, set(&node, b"b"));
        tier.submit("s", 4, set(&node, b"c"));
        tier.run_follower();
        let before = tier.deployment.meter().snapshot();
        assert_eq!(tier.drain(0).unwrap(), 2, "one batch");
        let used = tier.deployment.meter().snapshot().since(&before);
        assert_eq!(used.per_op.get("obj_put_412"), Some(&1));
        assert_eq!(
            (used.obj_gets, used.obj_puts),
            (1, 3),
            "tagged PUT; 412, GET + PUT"
        );
        let (results, events) = received(&endpoint);
        assert_eq!((results, events.len()), (vec![3, 4], 1));
        assert_eq!(&tier.stored(&node).unwrap().data[..], b"c");

        tier.submit("s", 5, set(&node, b"d"));
        tier.run_follower();
        let before = tier.deployment.meter().snapshot();
        assert_eq!(tier.drain(0).unwrap(), 1);
        let used = tier.deployment.meter().snapshot().since(&before);
        assert_eq!((used.obj_gets, used.obj_puts), (0, 1), "tagged again");
    }

    /// A crash after the tagged PUT and before the pop: the node item
    /// still names the tag the PUT replaced. The redelivery's `If-Match`
    /// fails once (412), the read-merge-write converges on the same
    /// record, the client gets exactly one result and the watch — fired
    /// and consumed before the crash — does not fire again.
    #[test]
    fn crash_between_tagged_put_and_pop_costs_one_412_and_acks_once() {
        let (tier, endpoint, node) = tagged_watched_node();
        tier.submit("s", 3, set(&node, b"new"));
        tier.run_follower();
        // From the moment the watch dispatches (➍, after the tagged PUT
        // of ➌), the system store refuses writes until the pop's retries
        // are spent: the invocation fails with its txid still queued.
        let kv = tier.deployment.system().kv().clone();
        let leader = tier.leader_over(
            Arc::clone(tier.deployment.user_store()),
            Arc::new(HookedDispatcher {
                hook: move |_: &WatchTask| {
                    kv.install_chaos(one_exhausted_retry(|plan, spec| plan.kv_error = spec))
                },
                deliver: Some(tier.inline_dispatcher()),
            }),
        );
        let drain = || leader.drain_queue(&tier.ctx, tier.lane(0));
        let failed_puts = |tier: &Lanes| {
            let used = tier.deployment.meter().snapshot();
            used.per_op.get("obj_put_412").copied().unwrap_or(0)
        };

        let before = tier.deployment.meter().snapshot();
        let err = drain().unwrap_err();
        assert!(err.retryable && !err.deferred, "{err:?}");
        let used = tier.deployment.meter().snapshot().since(&before);
        assert_eq!((used.obj_gets, used.obj_puts), (0, 1), "one tagged PUT");
        assert_eq!(txq_len(&tier, &node), 1, "not popped");
        let (results, events) = received(&endpoint);
        assert_eq!((results, events.len()), (vec![], 1), "fired, not acked");

        let (before, failed) = (tier.deployment.meter().snapshot(), failed_puts(&tier));
        assert_eq!(drain().unwrap(), 1);
        let used = tier.deployment.meter().snapshot().since(&before);
        assert_eq!(failed_puts(&tier) - failed, 1, "one 412");
        assert_eq!(
            (used.obj_gets, used.obj_puts),
            (1, 2),
            "412, then GET + PUT"
        );
        assert_eq!(
            received(&endpoint),
            (vec![3], vec![]),
            "one result, no refire"
        );
        assert_eq!(txq_len(&tier, &node), 0);
        assert_eq!(&tier.stored(&node).unwrap().data[..], b"new");

        // The pop recorded the fallback's tag: the next write names it.
        tier.submit("s", 4, set(&node, b"next"));
        tier.run_follower();
        let before = tier.deployment.meter().snapshot();
        assert_eq!(drain().unwrap(), 1);
        let used = tier.deployment.meter().snapshot().since(&before);
        assert_eq!((used.obj_gets, used.obj_puts), (0, 1));
    }

    /// An injected object-store error on a conditional PUT rolls before
    /// the precondition: the retry names the same tag and lands — no
    /// 412, no read.
    #[test]
    fn obj_error_on_a_tagged_put_is_retried_with_the_same_tag() {
        let tier = Lanes::new(2);
        let _endpoint = tier.session("s");
        let bucket = ObjectStore::new(
            "user",
            fk_cloud::Region::US_EAST_1,
            tier.deployment.meter().clone(),
        );
        let store = Arc::new(bucket.clone());
        let leader = tier.leader_over(store, Arc::new(tier.inline_dispatcher()));
        let node = path_on(0, 0);
        for (request_id, op) in [(1, create(&node)), (2, set(&node, b"a"))] {
            tier.submit("s", request_id, op);
            tier.run_follower();
            assert_eq!(leader.drain_queue(&tier.ctx, tier.lane(0)).unwrap(), 1);
        }

        // One object-store error, on the next request: the tagged PUT.
        let mut plan = fk_cloud::chaos::FaultPlan::disabled();
        plan.obj_error = fk_cloud::chaos::FaultSpec::new(1.0, 1);
        bucket.install_chaos(fk_cloud::chaos::Chaos::from_plan(plan).expect("armed"));
        tier.submit("s", 3, set(&node, b"b"));
        tier.run_follower();
        let before = tier.deployment.meter().snapshot();
        assert_eq!(leader.drain_queue(&tier.ctx, tier.lane(0)).unwrap(), 1);
        let used = tier.deployment.meter().snapshot().since(&before);
        assert_eq!(used.per_op["fault:obj_error"], 1);
        assert_eq!(used.per_op["retry:dist.write_tagged"], 1);
        assert_eq!(used.per_op.get("obj_put_412"), None, "no 412");
        assert_eq!((used.obj_gets, used.obj_puts), (0, 1), "no read");
        let stored = bucket.get(&tier.ctx, &node).unwrap().0;
        assert_eq!(&crate::codec::decode_node(&stored).unwrap().data[..], b"b");
    }

    /// The `n`th path of the form `<parent>/k<i>` that routes to lane 0.
    fn child_on_lane_0(parent: &str, nth: usize) -> String {
        (0..)
            .map(|i| format!("{parent}/k{i}"))
            .filter(|p| fk_cloud::queue::group_of(p, 2) == 0)
            .nth(nth)
            .expect("children hash to both groups")
    }

    fn multi_create(path: &str) -> crate::messages::MultiOp {
        crate::messages::MultiOp::Create {
            path: path.into(),
            payload: Payload::inline(b"x"),
            mode: CreateMode::Persistent,
        }
    }

    /// The one epoch-cut rule, seen through what an epoch costs (one
    /// epoch-mark read and one marks transaction each): a conflict-free
    /// multi shares its neighbours' epoch; a multi that creates a child
    /// under a node another of its subs creates is alone in its epoch; a
    /// multi whose parent target was written earlier in the epoch starts
    /// the next one.
    #[test]
    fn multi_joins_its_neighbours_epoch_unless_a_parent_conflict_cuts_it() {
        use crate::messages::MultiOp;
        let tier = Lanes::new(2);
        let endpoints = ["a", "b", "c"].map(|id| tier.session(id));
        let [x, y, z] = [0, 1, 2].map(|nth| path_on(0, nth));
        for (session, node) in [("a", &x), ("b", &y), ("c", &z)] {
            tier.submit(session, 1, create(node));
        }
        tier.run_follower();
        assert_eq!(tier.drain(0).unwrap(), 3);

        // The epochs of one lane-0 batch `a: set x, b: <multi>, c: set z`.
        let mut request_id = 1;
        let mut epochs_of = |ops: Vec<MultiOp>| -> usize {
            request_id += 1;
            tier.submit("a", request_id, set(&x, b"a"));
            tier.submit("b", request_id, WriteOp::Multi { ops });
            tier.submit("c", request_id, set(&z, b"c"));
            tier.run_follower();
            let (processed, charges) = tier.charges_of(|| tier.drain(0).unwrap());
            assert_eq!(processed, 3, "one leader batch");
            let marks_transactions = charges
                .iter()
                .filter(|s| s.phase == "advance_session_marks")
                .count();
            let mark_reads = charges
                .iter()
                .filter(|s| s.phase == "update_user_storage")
                .filter(|s| matches!(s.op, Op::KvGet { consistent: true }))
                .count();
            assert_eq!(mark_reads, marks_transactions, "one of each per epoch");
            marks_transactions
        };

        let check_and_set = vec![
            MultiOp::Check {
                path: z.clone(),
                expected_version: -1,
            },
            MultiOp::SetData {
                path: y.clone(),
                payload: Payload::inline(b"b"),
                expected_version: -1,
            },
        ];
        assert_eq!(epochs_of(check_and_set), 1, "conflict-free: one epoch");

        let parent = path_on(0, 3);
        let nested = vec![
            multi_create(&parent),
            multi_create(&child_on_lane_0(&parent, 0)),
        ];
        assert_eq!(epochs_of(nested), 3, "internal conflict: isolated");

        // `x` is written by the record before the multi.
        let under_x = vec![multi_create(&child_on_lane_0(&x, 0))];
        assert_eq!(epochs_of(under_x), 2, "starts the next epoch, joined by c");

        for endpoint in &endpoints {
            assert_eq!(request_ids(&acked(endpoint)), vec![1, 2, 3, 4]);
        }
        let violations = crate::consistency::check_tree_integrity(
            &tier.ctx,
            tier.deployment.system(),
            tier.deployment.user_store().as_ref(),
        );
        assert!(violations.is_empty(), "{violations:#?}");
    }

    /// Why the marks follow ➍'s epoch append: a successor on another
    /// lane is released by its predecessor's mark, so by the time the
    /// mark is visible the predecessor's fired watch id must already be
    /// in the region's epoch list — the successor's record carries it.
    #[test]
    fn successor_released_by_a_mark_carries_the_predecessors_fired_watch_id() {
        let (tier, _endpoint, node) = watched_node();
        let successor = path_on(1, 0);
        tier.submit("s", 2, set(&node, b"new"));
        tier.submit("s", 3, create(&successor));
        tier.run_follower();
        assert!(tier.drain(1).unwrap_err().deferred, "held by the set");

        // Lane 0's leader never delivers, so the fired id stays in the
        // epoch list; at dispatch time (the id is published) it looks at
        // the session's mark.
        let system = tier.deployment.system().clone();
        let ctx = Ctx::disabled();
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let seen_at_dispatch = Arc::clone(&seen);
        let leader = tier.leader_over(
            Arc::clone(tier.deployment.user_store()),
            Arc::new(HookedDispatcher {
                hook: move |task: &WatchTask| {
                    let mark = system.session_applied_txid(&ctx, "s");
                    seen_at_dispatch
                        .lock()
                        .push((task.watch_id, task.event.txid, mark));
                },
                deliver: None,
            }),
        );
        assert_eq!(leader.drain_queue(&tier.ctx, tier.lane(0)).unwrap(), 1);
        let [(watch_id, set_txid, mark_at_dispatch)] = seen.lock()[..] else {
            panic!("the data watch fired once");
        };
        assert!(
            mark_at_dispatch < set_txid,
            "the mark ({mark_at_dispatch}) was advanced before the fired id was published"
        );
        let system = tier.deployment.system();
        assert_eq!(system.session_applied_txid(&tier.ctx, "s"), set_txid);

        assert_eq!(tier.drain(1).unwrap(), 1, "released by the mark");
        let record = tier.stored(&successor).unwrap();
        assert!(
            record.epoch_marks.contains(&watch_id),
            "{:?} lacks the predecessor's watch id {watch_id}",
            record.epoch_marks
        );
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

    /// Create-heavy batch, no live watches: each fired path's registry
    /// item is read once per batch instead of once per transaction and
    /// class — for N creates under one parent, N + 2 registry reads.
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
        // Per batch, all in the one read wave: N node reads + one
        // registry read per distinct fired path (N child paths, the
        // shared parent /p, the shared root — the point classes and the
        // subtree candidates of a path share its one item) + 1
        // epoch-mark read. The unmemoized leader paid 2 N point reads
        // alone, the per-class wave (N + 1) + (N + 2).
        assert_eq!(
            reads,
            n + (n + 2) + 1,
            "registry reads deduped across the batch"
        );
    }
}
