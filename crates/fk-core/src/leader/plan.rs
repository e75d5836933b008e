//! The leader's decisions over one queue batch, as pure functions of
//! data: which records are held back and why ([`hold_back`], with the
//! session marks it may need listed up front by [`mark_probes`]), what
//! the read wave says of each record's commit ([`commit_state`]), which
//! watch classes each record can fire ([`BatchFires`]), and how the
//! committed records are cut into epochs ([`segment`]). Nothing here
//! touches storage or the clock: the I/O shell in the parent module
//! reads what a decision needs in one wave, then calls the decision.

use crate::api::{WatchEventType, WatchKind};
use crate::distributor::CommittedTx;
use crate::messages::{LeaderRecord, UserUpdate};
use crate::system_store::{WatchInstance, TRANSACT_MAX_ITEMS};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// One decoded queue record: (batch index, txid, record).
pub(super) type Decoded = (usize, u64, LeaderRecord);

/// Warm-instance state. A cold start loses it, which is merely slower,
/// never wrong: marks are re-read, and a redelivered record that was
/// already processed resolves through `CommitState::AlreadyProcessed`.
#[derive(Default)]
pub(super) struct Warm {
    /// Lower bound of each session's distribution high-water mark.
    /// Marks only ever advance — even across deregistration and
    /// re-registration of a session id, because they live on the
    /// persistent `seq:` item and a reincarnated session floors its
    /// allocations above them — so a remembered value that satisfies a
    /// hold-back check stays valid forever; the common case (a session
    /// whose writes keep landing on this group) never re-reads the
    /// store.
    pub marks: HashMap<String, u64>,
    /// Txids this instance fully processed from *behind* a held record:
    /// their messages went back to the queue with the deferred suffix
    /// and are skipped on redelivery. An entry leaves when its message
    /// is acknowledged in a prefix, so the set is bounded by the lane's
    /// backlog.
    pub ahead: HashSet<u64>,
}

impl Warm {
    /// Raises the remembered mark of `session` to at least `txid`
    /// (allocates only on the session's first sighting).
    pub fn note_mark(&mut self, session: &str, txid: u64) {
        match self.marks.get_mut(session) {
            Some(seen) => *seen = (*seen).max(txid),
            None => {
                self.marks.insert(session.to_owned(), txid);
            }
        }
    }
}

/// The rule that held a record back (see [`hold_back`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum Rule {
    /// (a) Its session predecessor is not known to be distributed.
    Predecessor,
    /// (b) An earlier record of its session in the batch is held.
    Session,
    /// A txid ahead of its own in the `txq` of a node it mutates belongs
    /// to no earlier eligible record of the batch, or that `txq` lacks
    /// its txid while another node's holds it.
    Txq,
    /// A deregistration never skips ahead of a held record.
    Deregistration,
}

/// One held record: its batch index and the rule that held it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Held {
    pub index: usize,
    pub rule: Rule,
}

/// Phase ➊a's verdict on one batch (see [`hold_back`]).
pub(super) struct Sequenced<'a> {
    /// Records whose ordering constraints hold, in batch order.
    pub eligible: Vec<&'a Decoded>,
    /// Held records, in batch order.
    pub held: Vec<Held>,
    /// Redelivered records this instance already processed from behind
    /// a held record ([`Warm::ahead`]): (batch index, txid).
    pub applied_ahead: Vec<(usize, u64)>,
}

impl Sequenced<'_> {
    /// Batch index of the first held record.
    pub fn first_held(&self) -> Option<usize> {
        self.held.first().map(|held| held.index)
    }

    /// True if the record at batch index `index` sits behind a held one.
    pub fn is_ahead(&self, index: usize) -> bool {
        self.first_held().is_some_and(|held| index > held)
    }
}

/// The sessions whose distribution mark [`hold_back`] could need: those
/// with a record (not applied ahead) whose `prev_txid` is set, above
/// every earlier txid of its session in the batch and not covered by
/// the remembered mark. Each is listed once, in first-need order. The
/// shell reads them in one wave and notes them into [`Warm::marks`]
/// before calling [`hold_back`]; a single-group batch (every
/// `prev_txid` is 0) lists none.
pub(super) fn mark_probes<'a>(batch: &'a [Decoded], warm: &Warm) -> Vec<&'a str> {
    let mut latest: HashMap<&str, u64> = HashMap::new();
    let mut probes: Vec<&str> = Vec::new();
    for (_, txid, record) in batch {
        if warm.ahead.contains(txid) {
            continue;
        }
        let session = record.session_id.as_str();
        if !predecessor_known(record, &latest, warm) && !probes.contains(&session) {
            probes.push(session);
        }
        note_txid(&mut latest, session, *txid);
    }
    probes
}

/// The `txq` of each node as the shell read it. A writer's txid exceeds
/// every txid its locked nodes carry, so a `txq` ascends: the txids
/// ahead of one are the smaller ones.
pub(super) type Txqs<'a> = HashMap<&'a str, Vec<u64>>;

/// Phase ➊a: splits the batch by the partial order Z2 and the per-node
/// `txq` impose into records to process now and records to hold. A
/// record is **held** iff
///
/// * (a) its `prev_txid` is covered neither by the session's mark as
///   `warm` knows it (the shell has noted every mark [`mark_probes`]
///   listed) nor by an earlier *eligible* record of this batch; or
/// * (b) an earlier record of its session in this batch is held; or
/// * (the `txq` rule) in the `txq` of a node it mutates, a txid ahead of
///   its own belongs to no earlier eligible record of the batch. That
///   `txq` is `txqs`' plus the txids of the batch's earlier records that
///   mutate the node: empty `txqs` (before the read wave) give what the
///   batch alone shows, and the wave's only hold more. The rule also
///   holds a record whose txid one read `txq` holds and another lacks:
///   it does not head the latter. Its commit, or its pop, landed between
///   the two reads (each is one write); the deferral's re-read resolves
///   it.
///
/// A deregistration never skips ahead of a held record, and a record
/// this instance already applied ahead is skipped. Everything else is
/// eligible, whatever its position: the rules are exactly the edges of
/// the partial order (`docs/consistency.md` § Apply order), and each
/// points to an earlier-pushed transaction, so the wait is cycle-free.
pub(super) fn hold_back<'a>(batch: &'a [Decoded], warm: &Warm, txqs: &Txqs) -> Sequenced<'a> {
    let mut out = Sequenced {
        eligible: Vec::with_capacity(batch.len()),
        held: Vec::new(),
        applied_ahead: Vec::new(),
    };
    // Highest eligible txid of each session seen earlier in this batch.
    let mut in_batch: HashMap<&str, u64> = HashMap::new();
    let mut held_sessions: HashSet<&str> = HashSet::new();
    // The batch's txids so far, by node they mutate.
    let mut queued: Txqs = HashMap::new();
    for entry in batch {
        let &(index, txid, ref record) = entry;
        if warm.ahead.contains(&txid) {
            out.applied_ahead.push((index, txid));
            continue;
        }
        let session = record.session_id.as_str();
        let blocked = |path| {
            let mut txq = txqs.get(path).into_iter().chain(queued.get(path)).flatten();
            txq.any(|ahead| *ahead < txid && !out.eligible.iter().any(|(_, t, _)| t == ahead))
        };
        let read = || mutated_paths(record).filter_map(|p| Some(txqs.get(p)?.contains(&txid)));
        let torn = || read().any(|queued| queued) && read().any(|queued| !queued);
        let rule = if record.deregister_session && !out.held.is_empty() {
            Some(Rule::Deregistration)
        } else if held_sessions.contains(session) {
            Some(Rule::Session)
        } else if mutated_paths(record).any(blocked) || torn() {
            Some(Rule::Txq)
        } else if !predecessor_known(record, &in_batch, warm) {
            Some(Rule::Predecessor)
        } else {
            None
        };
        for path in mutated_paths(record) {
            queued.entry(path).or_default().push(txid);
        }
        if let Some(rule) = rule {
            out.held.push(Held { index, rule });
            held_sessions.insert(session);
        } else {
            note_txid(&mut in_batch, session, txid);
            out.eligible.push(entry);
        }
    }
    out
}

/// True if `record`'s session predecessor is known to be distributed:
/// it has none, or `seen` (the session's highest txid earlier in the
/// batch) or the remembered mark covers it.
fn predecessor_known(record: &LeaderRecord, seen: &HashMap<&str, u64>, warm: &Warm) -> bool {
    let prev = record.prev_txid;
    let covers = |mark: Option<&u64>| mark.is_some_and(|mark| *mark >= prev);
    let session = record.session_id.as_str();
    prev == 0 || covers(seen.get(session)) || covers(warm.marks.get(session))
}

/// Raises `session`'s entry in `seen` to at least `txid`.
fn note_txid<'a>(seen: &mut HashMap<&'a str, u64>, session: &'a str, txid: u64) {
    let entry = seen.entry(session).or_insert(0);
    *entry = (*entry).max(txid);
}

/// Commit state of one eligible record (Algorithm 2 ➊).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum CommitState {
    /// Every node it mutates queues its txid ([`hold_back`] holds a
    /// record read on some of them only).
    Committed,
    /// None does, and its node's version is at or past it: popped.
    AlreadyProcessed,
    /// Neither: not committed (yet, or ever); the leader runs `TryCommit`.
    Missing,
}

/// Phase ➊: the commit state of the eligible record `txid`, from the
/// read wave's `txqs` and the `version` of the record's node. One `txq`
/// decides — `any`, not `all`: a check-only `multi` mutates no node, and
/// `all` over none would hold.
pub(super) fn commit_state(
    txid: u64,
    record: &LeaderRecord,
    version: Option<i64>,
    txqs: &Txqs,
) -> CommitState {
    let queued = |path: &str| txqs.get(path).is_some_and(|txq| txq.contains(&txid));
    match version {
        _ if mutated_paths(record).any(queued) => CommitState::Committed,
        Some(version) if version as u64 >= txid => CommitState::AlreadyProcessed,
        _ => CommitState::Missing,
    }
}

/// One watch class a record fires; the path is borrowed from the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Fire<'a> {
    pub path: &'a str,
    pub event: WatchEventType,
}

/// The watch classes every eligible record of a batch can fire — the
/// follower-emitted ones plus the leader-derived subtree candidates —
/// computed once per batch: the read wave, ➋ and ➍ all work from it.
/// One flat list, one run per record.
pub(super) struct BatchFires<'a> {
    pub all: Vec<Fire<'a>>,
    /// Each eligible record's run in `all`, by batch index.
    runs: HashMap<usize, Range<usize>>,
}

impl<'a> BatchFires<'a> {
    pub fn of(eligible: &[&'a Decoded]) -> Self {
        let mut all = Vec::new();
        let mut runs = HashMap::with_capacity(eligible.len());
        for (index, _, record) in eligible {
            let start = all.len();
            push_fires(record, &mut all);
            runs.insert(*index, start..all.len());
        }
        BatchFires { all, runs }
    }

    /// The fires of the eligible record at batch index `index`.
    pub fn of_record(&self, index: usize) -> &[Fire<'a>] {
        &self.all[self.runs[&index].clone()]
    }
}

/// The live watch kinds on one path, as read from its registry item
/// (one bit per [`WatchKind`]).
#[derive(Clone, Copy)]
pub(super) struct KindSet(u8);

impl KindSet {
    pub fn of(instances: &[WatchInstance]) -> Self {
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

/// A run of committed transactions in which only the last is expected to
/// fire watch notifications.
#[derive(Default)]
pub(super) struct Epoch<'a> {
    pub items: Vec<CommittedTx<'a>>,
    /// The last transaction's fire list, if it had live watch
    /// registrations at segmentation time; `run_epoch` consumes (and
    /// re-checks) them after the epoch's writes are durable.
    pub fires: Option<&'a [Fire<'a>]>,
}

impl Epoch<'_> {
    pub fn first_index(&self) -> usize {
        self.items.first().map(|tx| tx.msg_index).unwrap_or(0)
    }
}

/// Phase ➋: splits the committed run into epochs, by **one rule** for
/// single and `multi` records alike (a multi is looked at through every
/// one of its subs). A record
///
/// * **starts a new epoch** iff one of its children rewrites targets a
///   node written earlier in the current epoch (a child created under a
///   node this same epoch creates): the rewrite would fold into that
///   node's write, and the apply's child → parent edge would then run
///   the child's write *before* the node's own create lands — a reader
///   could see the later transaction's child while the earlier create of
///   its parent is not yet visible. Cutting at the conflict lets the
///   parent's create land first; the child's transaction simply starts
///   the next epoch, mirroring the sequential leader's order;
/// * is **alone in its epoch** iff that conflict is *internal* to it —
///   one sub's children rewrite targets a node another sub writes. The
///   subs are one atomic unit under one txid and cannot be cut apart;
///   isolating the record keeps the visibility reasoning local to it
///   (all subs share the txid, so no cross-transaction order can be
///   observed against them);
/// * **starts a new epoch** also iff its pop items (the nodes it mutates
///   and the parents whose children it changes) would take the epoch's
///   past [`TRANSACT_MAX_ITEMS`]: an epoch pops in one transaction
///   (`Distributor::finalize_epoch`). A lone record that needs more pops
///   them in one, as its commit did;
/// * **ends its epoch** iff its watches will fire (only those
///   transactions advance the region epoch counters);
/// * and otherwise joins the current epoch. A multi is never split: its
///   sub-effects always distribute as one epoch-atomic unit.
///
/// Liveness is answered from `live`, the read wave's one non-consuming
/// registry read per distinct path. No epoch has consumed anything yet,
/// so the answers hold for the whole batch; a later epoch firing a path
/// an earlier one consumes finds nothing in `run_epoch`'s re-check. A
/// registration that lands after the wave is left to the next batch.
pub(super) fn segment<'a>(
    committed: Vec<(CommittedTx<'a>, &'a [Fire<'a>])>,
    live: &HashMap<&str, KindSet>,
) -> Vec<Epoch<'a>> {
    let mut epochs: Vec<Epoch<'a>> = Vec::new();
    let mut current = Epoch::default();
    // Node paths written by a `WriteNode` earlier in the current epoch,
    // and the nodes it pops.
    let (mut written, mut pops): (HashSet<&'a str>, HashSet<&'a str>) = Default::default();
    for (tx, fires) in committed {
        let record: &'a LeaderRecord = tx.record;
        let targets = || updates(record).filter_map(children_target);
        let writes = || updates(record).filter_map(written_path);
        let conflict = targets().any(|parent| written.contains(parent));
        let internal = targets().any(|parent| writes().any(|path| path == parent));
        let popped = || mutated_paths(record).chain(targets());
        let fresh: HashSet<&str> = popped().filter(|path| !pops.contains(path)).collect();
        let full = pops.len() + fresh.len() > TRANSACT_MAX_ITEMS;
        if (conflict || internal || full) && !current.items.is_empty() {
            epochs.push(std::mem::take(&mut current));
            (written, pops) = Default::default();
        }
        written.extend(writes());
        pops.extend(popped());
        let fires_now = fires.iter().any(|fire| {
            live.get(fire.path)
                .is_some_and(|kinds| kinds.fires(fire.event))
        });
        current.items.push(tx);
        if fires_now {
            current.fires = Some(fires);
        }
        if fires_now || internal {
            epochs.push(std::mem::take(&mut current));
            (written, pops) = Default::default();
        }
    }
    if !current.items.is_empty() {
        epochs.push(current);
    }
    epochs
}

/// The epoch's records that answer a client, grouped by session in
/// first-appearance order, each group in transaction order.
pub(super) fn epoch_results<'e, 'a>(epoch: &'e Epoch<'a>) -> Vec<Vec<&'e CommittedTx<'a>>> {
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

/// The highest txid the epoch distributed for each session it touched —
/// the marks ➎ advances. Only a record that carries its own txid counts:
/// a single-group follower stamps none (its one lane orders every
/// session by itself, and the queue's sequence number is the txid), so
/// there the list is empty.
pub(super) fn epoch_sessions<'e>(epoch: &'e Epoch<'_>) -> Vec<(&'e str, u64)> {
    let mut per_session: Vec<(&str, u64)> = Vec::new();
    for tx in epoch.items.iter().filter(|tx| tx.record.txid > 0) {
        let session = tx.record.session_id.as_str();
        match per_session.iter_mut().find(|(s, _)| *s == session) {
            Some((_, max)) => *max = (*max).max(tx.txid),
            None => per_session.push((session, tx.txid)),
        }
    }
    per_session
}

/// The node paths `record` mutates — the items whose `txq` carries its
/// txid: every mutating sub's (checks never enter a `txq`).
pub(super) fn mutated_paths(record: &LeaderRecord) -> impl Iterator<Item = &str> {
    record
        .ops
        .iter()
        .filter(|sub| sub.mutates())
        .map(|sub| sub.path.as_str())
}

/// Watch kinds fired by each event type (ZooKeeper trigger matrix).
/// `SubtreeChanged` fires *only* subtree watches: the leader derives
/// those candidates itself from the written paths' ancestor chains
/// (see `push_fires`), so a fire at an ancestor must never consume
/// the point watches (data/exists/children) registered there.
pub(super) fn kinds_for(event: WatchEventType) -> &'static [WatchKind] {
    match event {
        WatchEventType::NodeCreated => &[WatchKind::Exists],
        WatchEventType::NodeDataChanged => &[WatchKind::Data, WatchKind::Exists],
        WatchEventType::NodeDeleted => &[WatchKind::Data, WatchKind::Exists],
        WatchEventType::NodeChildrenChanged => &[WatchKind::Children],
        WatchEventType::SubtreeChanged => &[WatchKind::Subtree],
    }
}

/// The user-store updates `record` distributes, in op order.
pub(super) fn updates(record: &LeaderRecord) -> impl DoubleEndedIterator<Item = &UserUpdate> {
    record.ops.iter().map(|sub| &sub.user_update)
}

/// The parent whose children list `update` changes, if any.
fn children_target(update: &UserUpdate) -> Option<&str> {
    update.child_delta().map(|(parent, _, _)| parent)
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
pub(super) fn merge_fires<'a>(
    fires: &[Fire<'a>],
) -> Vec<(&'a str, Vec<WatchKind>, Vec<WatchEventType>)> {
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
