//! The follower function (Algorithm 1, §3.1).
//!
//! Invoked by the session write queue, the follower processes each
//! client's requests in FIFO order: ➀ lock the involved node(s),
//! ➁ validate the operation against the locked state, ➂ allocate the
//! transaction id from the target shard group's epoch counter
//! ([`crate::system_store::SystemStore::alloc_txid`]) and push the
//! confirmed change down that group's FIFO queue to its leader instance,
//! ➃ commit the new node version to system storage with a single
//! conditional write that also releases the lock.
//!
//! # Pipelined batches (waves)
//!
//! A pipelined client keeps many writes in flight, so a queue batch
//! regularly carries several independent requests — and the follower's
//! storage I/O, not its compute, dominates (Table 3). The batch is
//! therefore processed in **waves**: a maximal run of requests whose
//! lock sets are pairwise disjoint. Within a wave, phase ➀/➁
//! (lock + validate) runs on parallel forked workers and phase ➃
//! (commit) likewise — both are independent conditional writes to
//! disjoint items — while phase ➂ (allocate + push) stays strictly
//! serial in batch order, because push order *is* what assigns and
//! orders txids per session (Z1/Z2: a session's txids must increase in
//! submission order). Requests that touch an overlapping path wait for
//! the next wave, which starts only after the previous wave's commits
//! released their locks — exactly the sequential interleaving the
//! one-at-a-time follower produced.
//!
//! A commit that fails *after* its record was pushed is never retried by
//! the follower: the record is already in a leader queue, and the leader
//! re-executes the same commit description (`TryCommit`, Algorithm 2 ➋)
//! idempotently — re-delivering the message would only produce an
//! orphaned duplicate push.
//!
//! # One planner
//!
//! Every write is planned the same way, and a single `create` /
//! `set_data` / `delete` is the one-op case of a [`WriteOp::Multi`]: all
//! touched node locks are acquired as a single sorted set
//! (deadlock-free), the ops are validated **in order against an
//! overlay** of the locked state (each op observes its predecessors'
//! effects — a create can populate the parent a later op uses), the
//! per-item updates are merged into one [`SystemCommit`] executed as a
//! single multi-item conditional transaction (all-or-nothing, Z1), one
//! txid covers every sub-op, and a single [`LeaderRecord`] carries the
//! subs so the distributor applies them as one epoch-atomic unit (a
//! single write's one sub rides in the record's own fields). A
//! validation failure anywhere aborts the whole request — a multi with
//! [`FkError::MultiFailed`] naming the failing index, a single op with
//! the bare error; no state is left behind (nothing was written before
//! validation completed). One provider-honest restriction: each path
//! may appear in at most one *mutating* op (DynamoDB's
//! `TransactWriteItems` cannot write one item twice); version checks may
//! target any path, including mutated ones — the ZooKeeper
//! compare-and-swap idiom `[check(v), set_data(v)]`.
//!
//! The txid allocation floor is the maximum of the session's previous
//! txid and the locked nodes' last txids, so per-session and per-path
//! txid order survive the move from one leader queue to a sharded tier
//! (one leader instance per shard group); the record also carries
//! `prev_txid`, which the receiving leader uses for the cross-shard
//! hold-back (Z2 — see `docs/consistency.md`).
//!
//! Locks are timed, so a follower crash cannot deadlock the system; the
//! commit is guarded by the lock timestamp, so a stolen lock aborts it
//! atomically and the leader rejects the transaction (Algorithm 2 ➋).

use crate::api::{CreateMode, FkError, Stat, WatchEventType};
use crate::messages::{
    ClientNotification, ClientRequest, CommitItem, FiredWatch, LeaderRecord, MultiOp, MultiSub,
    OpOutcome, Payload, SerValue, SystemCommit, UserUpdate, WriteOp, WriteResultData,
};
use crate::notify::ClientBus;
use crate::path as zkpath;
use crate::system_store::SystemStore as Sys;
use crate::system_store::{keys, node_attr, session_attr, Membership, SystemStore};
use fk_cloud::faas::FnError;
use fk_cloud::ops::Op;
use fk_cloud::queue::{group_of, Message, ShardedQueues};
use fk_cloud::retry::{with_retry, RetryPolicy};
use fk_cloud::trace::Ctx;
use fk_cloud::CloudError;
use fk_sync::Acquired;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Follower configuration.
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// Maximum node payload size (provider dependent, §4.4).
    pub max_node_bytes: usize,
    /// Attempts to acquire a contended lock before asking for redelivery.
    pub lock_attempts: u32,
    /// Fault injection for crash-consistency tests: while non-zero, each
    /// phase-➃ commit decrements the counter and is *skipped* — exactly
    /// the state a follower crash between push (➂) and commit (➃) leaves
    /// behind, which the leader repairs via `TryCommit`. Production
    /// configs leave it at zero.
    pub skip_commits: Arc<AtomicU64>,
}

impl Default for FollowerConfig {
    fn default() -> Self {
        FollowerConfig {
            max_node_bytes: 1024 * 1024,
            lock_attempts: 24,
            skip_commits: Arc::new(AtomicU64::new(0)),
        }
    }
}

/// The follower function body. Shared across invocations (stateless per
/// the FaaS model; all state lives in cloud storage).
pub struct Follower {
    system: SystemStore,
    leader_queues: ShardedQueues,
    bus: ClientBus,
    config: FollowerConfig,
}

/// Name of each leader queue's single ordering group: one group per
/// member queue ⇒ a global FIFO per shard group ⇒ exactly one active
/// leader instance per group (Appendix B, Z2). Records route to a member
/// by their shard key, so per-key order is still total.
pub const LEADER_GROUP: &str = "leader";

/// Request id used for internally generated sub-requests (ephemeral
/// cleanup); no client awaits these.
pub const INTERNAL_REQUEST: u64 = 0;

impl Follower {
    /// Creates the function body over the leader tier's sharded queues
    /// (a single-member group reproduces the one-leader deployment).
    pub fn new(
        system: SystemStore,
        leader_queues: ShardedQueues,
        bus: ClientBus,
        config: FollowerConfig,
    ) -> Self {
        Follower {
            system,
            leader_queues,
            bus,
            config,
        }
    }

    /// The follower's configuration (tests reach the fault-injection
    /// knob through this).
    pub fn config(&self) -> &FollowerConfig {
        &self.config
    }

    /// The group `key`'s submission must actually go to: the hash group
    /// under the membership's *active* width (a scale-out widens the
    /// hash from the next batch on), then redirected to its successor
    /// while it drains. Computed once per request and carried through
    /// staging, so the txid-allocation group and the destination queue
    /// are the same group *structurally* even if the membership record
    /// changes mid-wave. Keys that change groups when the width moves
    /// stay Z2-ordered: the session's txid floor travels with it.
    fn routed_group(&self, membership: Option<&Membership>, key: &str) -> usize {
        let provisioned = self.leader_queues.shards();
        let width = membership
            .map(|m| m.active_groups.clamp(1, provisioned))
            .unwrap_or(provisioned);
        let group = group_of(key, width);
        membership.map(|m| m.route(group)).unwrap_or(group)
    }

    /// The membership record steering this batch, read strongly once per
    /// batch. Single-group tiers skip the read entirely — membership
    /// changes need somewhere to move writes *to*, so a one-group
    /// deployment is static by construction and stays byte-identical to
    /// the pre-membership follower.
    fn current_membership(&self, ctx: &Ctx) -> Option<Membership> {
        if self.leader_queues.shards() <= 1 {
            return None;
        }
        self.system.read_membership(ctx)
    }

    /// The meter retries are reported to (the deployment-shared meter
    /// behind the system table).
    fn meter(&self) -> &fk_cloud::Meter {
        self.system.kv().meter()
    }

    /// Records the session's highest pushed txid, absorbing transient
    /// storage errors. Safe to repeat: the mark is a monotone max, so a
    /// duplicate write of the same txid is a no-op.
    fn record_push_mark(&self, ctx: &Ctx, session: &str, txid: u64) -> fk_cloud::CloudResult<()> {
        with_retry(
            ctx,
            self.meter(),
            &RetryPolicy::standard(),
            "follower.push_mark",
            || self.system.record_session_push(ctx, session, txid),
        )
    }

    /// Wall-clock milliseconds used for lock timestamps.
    fn now_ms() -> i64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_millis() as i64
    }

    /// Entry point for a queue batch. On a retryable error the failed
    /// index is reported so the queue redelivers from that message.
    ///
    /// The batch is split into **waves** of requests with pairwise
    /// disjoint lock sets (see module docs): lock + validate and the
    /// commits run on parallel workers inside a wave, while the
    /// leader-queue pushes — the txid-ordering step — stay serial in
    /// batch order. CloseSession requests form singleton waves (their
    /// ephemeral cleanup touches an unbounded path set).
    pub fn process_messages(&self, ctx: &Ctx, messages: &[Message]) -> Result<(), FnError> {
        let mut requests: Vec<(usize, ClientRequest)> = Vec::with_capacity(messages.len());
        // At-least-once delivery defence, in two layers. Within the
        // batch, a duplicated send is two messages with the same
        // (session, request id) — only the first is processed. Across
        // batches — a crash redelivery of fully committed work, or a
        // duplicated copy straddling a batch boundary — the session's
        // committed request watermark decides: it is advanced *inside*
        // each commit transaction, so a request at or below it has landed
        // exactly once and its re-execution would double-apply an
        // unconditional write. The durable read is paid only for
        // messages the queue has delivered before (`attempt > 1` — a
        // duplicated copy counts as a re-receive, see
        // [`fk_cloud::queue::Message::attempt`]): a first delivery cannot
        // be behind the watermark, so the clean path costs nothing. The
        // leader notifies the original's result, so dropped duplicates
        // owe the client nothing.
        let mut seen: HashSet<(String, u64)> = HashSet::new();
        let mut watermarks: HashMap<String, u64> = HashMap::new();
        for (i, msg) in messages.iter().enumerate() {
            ctx.charge(Op::FnCompute, msg.body.len());
            let Some(request) = ClientRequest::decode(&msg.body) else {
                // Malformed message: drop it rather than poison the queue.
                self.meter().dropped("follower.undecodable");
                continue;
            };
            if request.request_id != INTERNAL_REQUEST {
                // A CloseSession never advances the watermark (it does
                // not commit through `stage_push`); `close_session`
                // tells a re-received copy apart itself.
                if msg.attempt > 1 && !matches!(request.op, WriteOp::CloseSession) {
                    let watermark =
                        *watermarks
                            .entry(request.session_id.clone())
                            .or_insert_with(|| {
                                self.system
                                    .session_request_watermark(ctx, &request.session_id)
                            });
                    if request.request_id <= watermark {
                        continue;
                    }
                }
                if !seen.insert((request.session_id.clone(), request.request_id)) {
                    continue;
                }
            }
            requests.push((i, request));
        }
        // One strong membership read steers the whole batch: a drain
        // begun mid-batch redirects from the *next* batch on, which is
        // safe — the drained group's leader keeps running until its
        // queue is empty.
        let membership = self.current_membership(ctx);
        let mut start = 0;
        while start < requests.len() {
            let end = wave_end(&requests, start);
            let wave = &requests[start..end];
            if wave.len() == 1 {
                let (msg_index, request) = &wave[0];
                let re_received = messages[*msg_index].attempt > 1;
                self.process_request_with(ctx, request, membership.as_ref(), re_received)
                    .map_err(|e| e.at_index(*msg_index))?;
            } else {
                self.process_wave(ctx, wave, membership.as_ref())?;
            }
            start = end;
        }
        Ok(())
    }

    /// Processes one client request end to end (single-request entry
    /// point; a batch of one behaves identically to the wave path).
    pub fn process_request(&self, ctx: &Ctx, request: &ClientRequest) -> Result<(), FnError> {
        let membership = self.current_membership(ctx);
        self.process_request_with(ctx, request, membership.as_ref(), false)
    }

    /// `re_received`: the queue has delivered this message before (a
    /// redelivery or a duplicated copy).
    fn process_request_with(
        &self,
        ctx: &Ctx,
        request: &ClientRequest,
        membership: Option<&Membership>,
        re_received: bool,
    ) -> Result<(), FnError> {
        match &request.op {
            WriteOp::CloseSession => self.close_session(ctx, request, membership, re_received),
            _ => match self.run_single(ctx, request, membership) {
                Ok(_) => Ok(()),
                Err(OpError::Client(err)) => {
                    self.notify_failure(ctx, &request.session_id, request.request_id, err);
                    Ok(())
                }
                Err(OpError::Retry(e)) => Err(e),
            },
        }
    }

    /// Serial path for one request: prepare → stage → push → commit →
    /// mark (the wave machinery with a batch of one).
    fn run_single(
        &self,
        ctx: &Ctx,
        request: &ClientRequest,
        membership: Option<&Membership>,
    ) -> Result<u64, OpError> {
        let prepared = self.prepare(ctx, request)?;
        let mut chain: HashMap<String, u64> = HashMap::new();
        let Some(push) = self.stage_push(ctx, 0, request, prepared, &mut chain, membership)? else {
            return Ok(0);
        };
        let multi_group = self.leader_queues.shards() > 1;
        ctx.push_phase("push_to_leader");
        // A failed send enqueued nothing (the queue's fault point rolls
        // before anything lands), so retrying cannot duplicate the push.
        let push_queue = self.leader_queues.queue(push.group);
        let sent = with_retry(
            ctx,
            self.meter(),
            &RetryPolicy::standard(),
            "follower.push",
            || push_queue.send(ctx, LEADER_GROUP, push.body.clone()),
        );
        ctx.pop_phase();
        let seq = match sent {
            Ok(seq) => seq,
            Err(e) => {
                self.release_all(ctx, &push.acquired);
                return Err(OpError::Retry(FnError::retryable(e.to_string())));
            }
        };
        let pushed = Pushed {
            pos: 0,
            session: push.session,
            txid: if multi_group { push.alloc_txid } else { seq },
            commit: push.commit,
            eph_adds: push.eph_adds,
            eph_removes: push.eph_removes,
        };
        ctx.push_phase("commit");
        self.commit_pushed(ctx, &pushed);
        ctx.pop_phase();
        if multi_group {
            self.record_push_mark(ctx, &request.session_id, pushed.txid)
                .map_err(|e| OpError::Retry(FnError::retryable(e.to_string())))?;
        }
        Ok(pushed.txid)
    }

    /// One multi-request wave: parallel prepare, serial push, parallel
    /// commit, per-session mark advancement. Partial-batch contract: on
    /// a retryable failure at wave position `p`, every request before
    /// `p` is fully processed (pushed; its commit either executed or is
    /// the leader's to repair) and `p..` redeliver.
    fn process_wave(
        &self,
        ctx: &Ctx,
        wave: &[(usize, ClientRequest)],
        membership: Option<&Membership>,
    ) -> Result<(), FnError> {
        use parking_lot::Mutex;
        // Phase ➀/➁ in parallel: lock + validate every request of the
        // wave (disjoint lock sets by construction, so no intra-wave
        // contention).
        let slots: Vec<Mutex<Option<Result<Prepared, OpError>>>> =
            wave.iter().map(|_| Mutex::new(None)).collect();
        let _ = crate::distributor::fan_out(ctx, wave.len(), |job, child| {
            let (_, request) = &wave[job];
            *slots[job].lock() = Some(self.prepare(child, request));
            Ok(())
        });
        let mut prepared: Vec<Option<Prepared>> = Vec::with_capacity(wave.len());
        let mut client_errors: Vec<(usize, FkError)> = Vec::new();
        let mut first_retry: Option<(usize, FnError)> = None;
        for (pos, slot) in slots.into_iter().enumerate() {
            let result = slot.into_inner().expect("wave job ran");
            match result {
                Ok(p) => prepared.push(Some(p)),
                Err(OpError::Client(err)) => {
                    client_errors.push((pos, err));
                    prepared.push(None);
                }
                Err(OpError::Retry(e)) => {
                    if first_retry.is_none() {
                        first_retry = Some((pos, e));
                    }
                    prepared.push(None);
                }
            }
        }
        // The wave is processed up to the first retryable failure; every
        // later request redelivers, so its phase-➀ locks are released
        // now (timed locks would expire anyway, but waiting out the
        // lease would stall the redelivery). Client-error notifications
        // are *deferred* to the end of the wave: they are terminal for
        // their message, so they may only go out for positions the batch
        // actually consumes — and the consumed prefix is not known until
        // the push and send phases have reported their failures too.
        let cut = first_retry
            .as_ref()
            .map(|(pos, _)| *pos)
            .unwrap_or(wave.len());

        // Phase ➂: allocate txids serially in batch order (this order is
        // what makes per-session txids increase in submission order;
        // `chain` threads each session's in-wave predecessor), then push
        // the wave's records with **batched sends** — one SQS
        // SendMessageBatch round trip per ≤ 10 records per destination
        // queue, instead of one round trip per record. Within a queue
        // the batch preserves order, so single-group tiers still read
        // their txids off consecutive sequence numbers.
        let mut chain: HashMap<String, u64> = HashMap::new();
        let mut staged: Vec<StagedPush> = Vec::new();
        let mut push_failure: Option<(usize, FnError)> = None;
        for (pos, entry) in prepared.into_iter().enumerate() {
            let Some(p) = entry else { continue };
            if pos >= cut || push_failure.is_some() {
                // At or past the failure point: redelivered later.
                self.release_all(ctx, &p.acquired);
                continue;
            }
            let (_, request) = &wave[pos];
            match self.stage_push(ctx, pos, request, p, &mut chain, membership) {
                Ok(Some(push)) => staged.push(push),
                Ok(None) => {}
                Err(OpError::Client(err)) => {
                    client_errors.push((pos, err));
                }
                Err(OpError::Retry(e)) => {
                    // Requests staged before this position still push
                    // (the partial-batch contract promises everything
                    // before the reported index is fully processed).
                    push_failure = Some((pos, e));
                }
            }
        }
        let multi_group = self.leader_queues.shards() > 1;
        // Sends run in **position order**, batching consecutive runs with
        // the same destination queue (≤ 10 per request), and stop at the
        // first failure — the sent set is then always a position-prefix
        // of the wave, exactly the serial path's contract. Sending
        // out-of-position (e.g. whole queues at a time) could push a
        // session's *later* write while an earlier one failed, and its
        // redelivered predecessor would then re-allocate a txid above
        // the successor's, inverting the session's submission order
        // (Z2). In a single-group tier every record shares one queue, so
        // runs are full ≤ 10-record batches either way.
        let mut seq_of: Vec<Option<u64>> = vec![None; staged.len()];
        let mut send_failure: Option<(usize, FnError)> = None;
        let mut run_start = 0;
        while run_start < staged.len() && send_failure.is_none() {
            let queue_idx = staged[run_start].group;
            let mut run_end = run_start + 1;
            while run_end < staged.len()
                && run_end - run_start < 10
                && staged[run_end].group == queue_idx
            {
                run_end += 1;
            }
            let bodies: Vec<bytes::Bytes> = staged[run_start..run_end]
                .iter()
                .map(|push| push.body.clone())
                .collect();
            ctx.push_phase("push_to_leader");
            // The batch lands whole or not at all, and a failed attempt
            // enqueued nothing — retrying cannot duplicate any record.
            let run_queue = self.leader_queues.queue(queue_idx);
            let sent = with_retry(
                ctx,
                self.meter(),
                &RetryPolicy::standard(),
                "follower.push",
                || run_queue.send_batch(ctx, LEADER_GROUP, bodies.clone()),
            );
            ctx.pop_phase();
            match sent {
                Ok(seqs) => {
                    for (slot, seq) in seq_of[run_start..run_end].iter_mut().zip(seqs) {
                        *slot = Some(seq);
                    }
                }
                Err(e) => {
                    send_failure = Some((staged[run_start].pos, FnError::retryable(e.to_string())));
                }
            }
            run_start = run_end;
        }
        if let Some(failure) = send_failure {
            if push_failure
                .as_ref()
                .map(|(p, _)| *p > failure.0)
                .unwrap_or(true)
            {
                push_failure = Some(failure);
            }
        }
        let mut pushed: Vec<Pushed> = Vec::new();
        for (i, push) in staged.into_iter().enumerate() {
            match seq_of[i] {
                Some(seq) => pushed.push(Pushed {
                    pos: push.pos,
                    txid: if multi_group { push.alloc_txid } else { seq },
                    session: push.session,
                    commit: push.commit,
                    eph_adds: push.eph_adds,
                    eph_removes: push.eph_removes,
                }),
                None => {
                    // Unsent (at or past the send failure): redelivered
                    // later; unlock now.
                    self.release_all(ctx, &push.acquired);
                }
            }
        }

        // Phase ➃ in parallel: commits are independent conditional
        // writes (disjoint items). A failed commit is the leader's to
        // repair — the record is already pushed (see module docs).
        ctx.span("commit", || {
            crate::distributor::fan_out(ctx, pushed.len(), |job, child| {
                self.commit_pushed(child, &pushed[job]);
                Ok(())
            })
        })
        .expect("commit workers never fail the wave");

        // Per-session marks: the highest pushed txid per session, set
        // once per session per wave (monotone — the write queue's FIFO
        // group serializes this session's follower work). A failed mark
        // write redelivers from the *failed session's* first request —
        // its redelivery repairs the marker via the already-committed
        // probe — not the whole wave.
        if self.leader_queues.shards() > 1 {
            let mut per_session: Vec<(&str, u64, usize)> = Vec::new();
            for done in &pushed {
                match per_session.iter_mut().find(|(s, _, _)| *s == done.session) {
                    Some((_, max, first_pos)) => {
                        *max = (*max).max(done.txid);
                        *first_pos = (*first_pos).min(done.pos);
                    }
                    None => per_session.push((done.session.as_str(), done.txid, done.pos)),
                }
            }
            for (session, txid, first_pos) in per_session {
                self.record_push_mark(ctx, session, txid)
                    .map_err(|e| FnError::retryable(e.to_string()).at_index(wave[first_pos].0))?;
            }
        }

        // The consumed prefix is now final: everything before the
        // earliest retryable failure is processed, everything at or
        // after it redelivers. Only now may the terminal client-error
        // notifications go out — a client error at a redelivered
        // position must stay unreported, because the redelivery
        // re-validates and its verdict may legitimately differ (e.g.
        // the conflicting node was deleted in between) and the client
        // must not have been told another outcome already.
        let final_cut = [
            push_failure.as_ref().map(|(pos, _)| *pos),
            first_retry.as_ref().map(|(pos, _)| *pos),
        ]
        .into_iter()
        .flatten()
        .min()
        .unwrap_or(wave.len());
        for (pos, err) in client_errors {
            if pos < final_cut {
                let (_, request) = &wave[pos];
                self.notify_failure(ctx, &request.session_id, request.request_id, err);
            }
        }

        // Report the earliest unprocessed position for redelivery.
        if let Some((pos, e)) = push_failure {
            return Err(e.at_index(wave[pos].0));
        }
        if let Some((pos, e)) = first_retry {
            return Err(e.at_index(wave[pos].0));
        }
        Ok(())
    }

    fn notify_failure(&self, ctx: &Ctx, session: &str, request_id: u64, err: FkError) {
        if request_id == INTERNAL_REQUEST {
            return;
        }
        self.bus.notify(
            ctx,
            session,
            ClientNotification::WriteResult {
                request_id,
                result: Err(err),
                txid: 0,
            },
        );
    }

    /// ➀ acquire locks on all keys, sorted to avoid deadlock with
    /// concurrent followers locking overlapping sets.
    fn lock_all(&self, ctx: &Ctx, paths: &[&str]) -> Result<Vec<Acquired>, OpError> {
        let mut sorted: Vec<&str> = paths.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let locks = self.system.locks();
        for attempt in 0..self.config.lock_attempts {
            let mut acquired: Vec<Acquired> = Vec::with_capacity(sorted.len());
            let now = Self::now_ms() + attempt as i64; // distinct stamps per retry
            let mut contended = false;
            for path in &sorted {
                // Transient storage errors (throttling, injected faults)
                // retry in place with a tight budget — queue redelivery
                // is the second line of defence but burns a delivery
                // attempt toward the DLQ. Contention (ConditionFailed)
                // is not retried here; the outer attempt loop owns it.
                let acquire = with_retry(
                    ctx,
                    self.meter(),
                    &RetryPolicy::quick(),
                    "follower.lock",
                    || locks.acquire(ctx, &keys::node(path), now),
                );
                match acquire {
                    Ok(acq) => acquired.push(acq),
                    Err(CloudError::ConditionFailed { .. }) => {
                        contended = true;
                        break;
                    }
                    Err(e) => return Err(OpError::Retry(FnError::retryable(e.to_string()))),
                }
            }
            if !contended {
                return Ok(acquired);
            }
            for acq in &acquired {
                let _ = locks.release(ctx, &acq.token);
            }
            std::thread::yield_now();
        }
        // Persistent contention: let the queue redeliver later.
        Err(OpError::Retry(FnError::retryable("lock contention")))
    }

    fn release_all(&self, ctx: &Ctx, acquired: &[Acquired]) {
        for acq in acquired {
            let _ = self.system.locks().release(ctx, &acq.token);
        }
    }

    /// The request tag marking which request committed a node state, used
    /// to recognize our own work on redelivery.
    fn req_tag(request: &ClientRequest) -> String {
        format!("{}#{}", request.session_id, request.request_id)
    }

    /// ➀–➁ for any write op: lock the involved nodes as one sorted set,
    /// then validate the ops **in order against an overlay** of the
    /// locked state and merge their updates into one all-or-nothing
    /// [`SystemCommit`] (see module docs) — a single op is the one-op
    /// case. On error every acquired lock is released before returning.
    fn prepare(&self, ctx: &Ctx, request: &ClientRequest) -> Result<Prepared, OpError> {
        let ops = op_views(&request.op).expect("CloseSession is handled separately");
        if ops.is_empty() {
            return Err(OpError::Client(FkError::BadArguments {
                detail: "empty multi".into(),
            }));
        }
        let mut mutated: HashSet<&str> = HashSet::new();
        for (i, op) in ops.iter().enumerate() {
            self.precheck(*op, &mut mutated)
                .map_err(|cause| refusal(request, i, cause))?;
        }

        // ➀ one sorted, deduplicated lock set over every touched path
        // (`lock_all` sorts; sequential creates lock their generated
        // names during validation, once the name is known).
        ctx.push_phase("lock_node");
        let acquired = self.lock_all(ctx, &lock_set(&ops));
        ctx.pop_phase();

        // ➁ validate against the locked state; on failure release.
        let mut planner = Planner::new(request, acquired?);
        ctx.push_phase("validate");
        let planned = self.plan(ctx, request, &ops, &mut planner);
        ctx.pop_phase();
        match planned {
            Ok(None) => Ok(planner.finish()),
            Ok(Some(txid)) => Ok(Prepared {
                acquired: planner.acquired,
                plan: WritePlan::already(txid),
            }),
            Err(e) => {
                self.release_all(ctx, &planner.acquired);
                Err(e)
            }
        }
    }

    /// Pre-lock validation of one op: path syntax, size limits,
    /// structure, and the one-*mutating*-op-per-path restriction
    /// (DynamoDB's TransactWriteItems cannot touch one item twice, so
    /// merged per-item updates could not express two writes to one
    /// path). Checks are free: a check on a mutated path folds into that
    /// item's validation (no second transact item), and a standalone
    /// check maps to a ConditionCheck-style no-op item. Sequential
    /// creates are also exempt: their *final* paths are distinct by the
    /// parent's counter (two `create_seq("/q/task-")` ops are a legal
    /// ZooKeeper multi), and a generated-name collision with an
    /// explicitly named op is caught by the overlay's NodeExists check
    /// once the name is resolved.
    fn precheck<'a>(&self, op: OpView<'a>, mutated: &mut HashSet<&'a str>) -> Result<(), FkError> {
        zkpath::validate(op.path())?;
        let sequential_create = matches!(op, OpView::Create { mode, .. } if mode.is_sequential());
        if !matches!(op, OpView::Check { .. }) && !sequential_create && !mutated.insert(op.path()) {
            return Err(FkError::BadArguments {
                detail: "duplicate mutating path in multi".into(),
            });
        }
        let rooted = |path: &str, verb: &str| match zkpath::parent(path) {
            Some(_) => Ok(()),
            None => Err(FkError::BadArguments {
                detail: format!("cannot {verb} the root"),
            }),
        };
        let fits = |payload: &Payload| {
            if payload.byte_len() > self.config.max_node_bytes {
                return Err(FkError::TooLarge {
                    size: payload.byte_len(),
                    limit: self.config.max_node_bytes,
                });
            }
            Ok(())
        };
        match op {
            OpView::Create { path, payload, .. } => rooted(path, "create").and(fits(payload)),
            OpView::SetData { payload, .. } => fits(payload),
            OpView::Delete { path, .. } => rooted(path, "delete"),
            OpView::Check { .. } => Ok(()),
        }
    }

    /// ➁ plans `ops` in order, stopping at the first op that is refused
    /// (`Err`) or that shows the request already committed (`Some`, see
    /// [`Planner`]).
    fn plan(
        &self,
        ctx: &Ctx,
        request: &ClientRequest,
        ops: &[OpView<'_>],
        planner: &mut Planner<'_>,
    ) -> Planned {
        for (i, op) in ops.iter().enumerate() {
            planner.last_op = i + 1 == ops.len();
            let planned = match *op {
                OpView::Create {
                    path,
                    payload,
                    mode,
                } => planner.create(path, payload, mode, |name| self.lock_generated(ctx, name)),
                OpView::SetData {
                    path,
                    payload,
                    expected_version,
                } => planner.set_data(path, payload, expected_version),
                OpView::Delete {
                    path,
                    expected_version,
                } => planner.delete(path, expected_version),
                OpView::Check {
                    path,
                    expected_version,
                } => planner.check(path, expected_version),
            };
            match planned {
                Ok(None) => {}
                Ok(committed) => return Ok(committed),
                Err(OpError::Client(cause)) => return Err(refusal(request, i, cause)),
                Err(retry) => return Err(retry),
            }
        }
        Ok(None)
    }

    /// ➀ for a sequential create's generated name, which is only known
    /// once the parent's counter has been read under the parent lock (it
    /// is fresh by construction, so there is no contention loop). Called
    /// from inside ➁, so the phase label is swapped for the round trip:
    /// `lock_node` covers every lock the follower takes.
    fn lock_generated(&self, ctx: &Ctx, path: &str) -> Result<Acquired, OpError> {
        ctx.pop_phase();
        ctx.push_phase("lock_node");
        let acquire = with_retry(
            ctx,
            self.meter(),
            &RetryPolicy::quick(),
            "follower.lock",
            || {
                self.system
                    .locks()
                    .acquire(ctx, &keys::node(path), Self::now_ms())
            },
        );
        ctx.pop_phase();
        ctx.push_phase("validate");
        acquire.map_err(|e| OpError::Retry(FnError::retryable(e.to_string())))
    }

    /// Phase ➂ minus the send, shared by the serial path and the wave's
    /// batched push: resolves the already-committed / check-only cases,
    /// allocates the txid (multi-group), and encodes the record.
    ///
    /// In a multi-group tier the txid comes from the group's epoch
    /// counter, floored at the session's previous txid and the locked
    /// nodes' last txids (version for the primary path, children_txid
    /// for a parent) — this is what keeps txids totally ordered per
    /// session and per path across shard groups. A single-group tier
    /// (the default deployment) skips all of that: one queue totally
    /// orders everything, its sequence number *is* the txid (the
    /// paper's scheme), and the sequencing bookkeeping would add billed
    /// strong-consistency KV round trips to every write for nothing.
    /// `chain` carries each session's highest in-wave txid so
    /// same-session requests in one wave floor and sequence after one
    /// another. Returns `None` when nothing needs pushing (already
    /// committed on redelivery, or a check-only multi answered
    /// locally).
    fn stage_push(
        &self,
        ctx: &Ctx,
        pos: usize,
        request: &ClientRequest,
        prepared: Prepared,
        chain: &mut HashMap<String, u64>,
        membership: Option<&Membership>,
    ) -> Result<Option<StagedPush>, OpError> {
        let Prepared { acquired, mut plan } = prepared;
        let multi_group = self.leader_queues.shards() > 1;
        if let Some(txid) = plan.already_committed {
            self.release_all(ctx, &acquired);
            if multi_group && txid > 0 {
                self.record_push_mark(ctx, &request.session_id, txid)
                    .map_err(|e| OpError::Retry(FnError::retryable(e.to_string())))?;
            }
            return Ok(None);
        }
        if let Some(outcomes) = plan.local_result {
            self.release_all(ctx, &acquired);
            self.bus.notify(
                ctx,
                &request.session_id,
                ClientNotification::WriteResult {
                    request_id: request.request_id,
                    result: Ok(WriteResultData {
                        path: String::new(),
                        stat: Stat::default(),
                        op_results: outcomes,
                    }),
                    txid: 0,
                },
            );
            return Ok(None);
        }
        // Drain re-route happens *here*, before txid allocation: the
        // allocation group and the destination queue below are the same
        // resolved group, so a redirected write sequences in its
        // successor's epoch stream — never in the queue of a group whose
        // leader is about to stop.
        let group = if multi_group {
            self.routed_group(membership, &plan.final_path)
        } else {
            0
        };
        let (alloc_txid, prev_txid) = if multi_group {
            ctx.push_phase("alloc_txid");
            let stored_prev = match chain.get(&request.session_id) {
                Some(in_wave) => *in_wave,
                None => self.system.session_last_txid(ctx, &request.session_id),
            };
            let mut floor = stored_prev;
            for acq in &acquired {
                if let Some(item) = acq.old.as_ref() {
                    floor = floor
                        .max(item.num(node_attr::VERSION).unwrap_or(0) as u64)
                        .max(item.num(node_attr::CHILDREN_TXID).unwrap_or(0) as u64);
                }
            }
            // Safe to repeat: a transiently failed allocation never
            // advanced the counter (the fault point rolls before the
            // conditional update applies), and even a hypothetical
            // burned value only leaves a gap — txids need not be dense.
            let allocated = with_retry(
                ctx,
                self.meter(),
                &RetryPolicy::standard(),
                "follower.alloc_txid",
                || self.system.alloc_txid(ctx, group, floor),
            );
            ctx.pop_phase();
            match allocated {
                Ok(txid) => {
                    chain.insert(request.session_id.clone(), txid);
                    (txid, stored_prev)
                }
                Err(e) => {
                    self.release_all(ctx, &acquired);
                    return Err(OpError::Retry(FnError::retryable(e.to_string())));
                }
            }
        } else {
            (0, 0)
        };
        // Advance the session's committed-request watermark *inside* the
        // commit transaction: the watermark moves exactly when the
        // write's effects land (whether the follower or a repairing
        // leader runs the commit), so a redelivery of this request — the
        // crash-between-commit-and-ack window — is filtered durably by
        // `process_messages`. Unguarded: the `seq:` item is not under a
        // timed lock, and the transact is all-or-nothing regardless.
        if request.request_id != INTERNAL_REQUEST {
            plan.commit.items.push(CommitItem {
                key: keys::session_seq(&request.session_id),
                lock_ts: crate::commit::UNGUARDED,
                sets: vec![(
                    session_attr::LAST_REQUEST.to_owned(),
                    SerValue::Num(request.request_id as i64),
                )],
                appends: vec![],
                removes: vec![],
                list_removes: vec![],
            });
        }
        let mut record = LeaderRecord {
            session_id: request.session_id.clone(),
            request_id: request.request_id,
            txid: alloc_txid,
            prev_txid,
            path: plan.final_path.clone(),
            commit: plan.commit.clone(),
            user_update: UserUpdate::None,
            stat: Stat::default(),
            fires: vec![],
            is_delete: false,
            deregister_session: false,
            ops: plan.subs,
        };
        // The one place the request's shape still matters: the record
        // has two (see [`LeaderRecord::ops`]), and a single write's sub
        // rides in the record's own fields.
        if !matches!(request.op, WriteOp::Multi { .. }) {
            let sub = record.ops.pop().expect("a single write plans one sub");
            record.user_update = sub.user_update;
            record.fires = sub.fires;
            record.is_delete = sub.is_delete;
            record.stat = match sub.outcome {
                OpOutcome::Created { stat, .. }
                | OpOutcome::Set { stat, .. }
                | OpOutcome::Checked { stat } => stat,
                OpOutcome::Deleted { .. } => Stat::default(),
            };
        }
        Ok(Some(StagedPush {
            pos,
            session: request.session_id.clone(),
            group,
            body: record.encode(),
            alloc_txid,
            commit: plan.commit,
            eph_adds: plan.eph_adds,
            eph_removes: plan.eph_removes,
            acquired,
        }))
    }

    /// ➃ commit-and-unlock, conditional on the locks still being held.
    /// Never fails the batch: the record is already in a leader queue,
    /// and the leader re-executes the same commit description
    /// (`TryCommit`) for any missing commit — re-delivering the message
    /// would only produce an orphaned duplicate push. A stolen lock
    /// likewise hands the decision to the leader (Algorithm 2 ➋).
    fn commit_pushed(&self, ctx: &Ctx, pushed: &Pushed) {
        if self
            .config
            .skip_commits
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            // Injected crash between push (➂) and commit (➃): leave the
            // commit to the leader's TryCommit, exactly like a real
            // follower death at this point.
            return;
        }
        // Transient failures retry with a tight budget (the commit is a
        // single all-or-nothing transaction, so a failed attempt wrote
        // nothing); anything that survives the budget is the leader's
        // TryCommit to repair, as before.
        let committed = with_retry(
            ctx,
            self.meter(),
            &RetryPolicy::quick(),
            "follower.commit",
            || crate::commit::execute(&pushed.commit, pushed.txid, ctx, self.system.kv()),
        );
        if committed.is_ok() {
            // Session bookkeeping for ephemeral lifecycle (outside the
            // node transaction: it only drives heartbeat cleanup).
            for path in &pushed.eph_adds {
                let _ = self
                    .system
                    .add_session_ephemeral(ctx, &pushed.session, path);
            }
            for (owner, path) in &pushed.eph_removes {
                let _ = self.system.remove_session_ephemeral(ctx, owner, path);
            }
        }
        // Any failure — stolen lock or storage error — is the leader's
        // to resolve; the commit description rides the pushed record.
    }

    /// CloseSession: delete the session's ephemeral nodes (each a regular
    /// delete transaction), then push a deregistration record so the
    /// leader confirms completion in order (§3.6).
    fn close_session(
        &self,
        ctx: &Ctx,
        request: &ClientRequest,
        membership: Option<&Membership>,
        re_received: bool,
    ) -> Result<(), FnError> {
        let session = &request.session_id;
        let Some(item) = self.system.get_session(ctx, session) else {
            // The session item is only ever removed by the leader's
            // deregistration. For a re-received copy that means an
            // earlier delivery of this very close completed (the leader
            // answers it), and reporting `SessionExpired` would
            // misreport a successful close — one read decides, so the
            // leader cannot slip its removal in between two.
            if !re_received {
                self.notify_failure(ctx, session, request.request_id, FkError::SessionExpired);
            }
            return Ok(());
        };
        let mut ephemerals: Vec<String> = item
            .list(session_attr::EPHEMERALS)
            .map(|l| {
                l.iter()
                    .filter_map(|v| v.as_str().map(str::to_owned))
                    .collect()
            })
            .unwrap_or_default();
        ephemerals.sort();
        for path in ephemerals {
            let sub = ClientRequest {
                session_id: session.clone(),
                request_id: INTERNAL_REQUEST,
                op: WriteOp::Delete {
                    path: path.clone(),
                    expected_version: -1,
                },
            };
            match self.run_single(ctx, &sub, membership) {
                Ok(_) => {}
                Err(OpError::Client(_)) => {} // already gone: fine
                Err(OpError::Retry(e)) => return Err(e),
            }
        }
        // The deregistration record sequences after every prior write of
        // the session: its prev_txid makes the receiving leader hold it
        // back until all of them (wherever they were sharded) have been
        // distributed, so the session item is not removed under a leader
        // that still needs its high-water mark. (Single-group tiers get
        // this for free from their one queue's total order.)
        let multi_group = self.leader_queues.shards() > 1;
        // The same drain re-route as regular writes: deregistration must
        // not land in a queue whose leader is winding down.
        let dereg_group = self.routed_group(membership, session);
        let (txid, prev_txid) = if multi_group {
            let prev_txid = self.system.session_last_txid(ctx, session);
            let txid = with_retry(
                ctx,
                self.meter(),
                &RetryPolicy::standard(),
                "follower.alloc_txid",
                || self.system.alloc_txid(ctx, dereg_group, prev_txid),
            )
            .map_err(|e| FnError::retryable(e.to_string()))?;
            (txid, prev_txid)
        } else {
            (0, 0)
        };
        let record = LeaderRecord {
            session_id: session.clone(),
            request_id: request.request_id,
            txid,
            prev_txid,
            path: String::new(),
            commit: SystemCommit::default(),
            user_update: UserUpdate::None,
            stat: Stat::default(),
            fires: vec![],
            is_delete: false,
            deregister_session: true,
            ops: vec![],
        };
        ctx.push_phase("push_to_leader");
        let body = record.encode();
        let sent = with_retry(
            ctx,
            self.meter(),
            &RetryPolicy::standard(),
            "follower.push",
            || {
                self.leader_queues
                    .queue(dereg_group)
                    .send(ctx, LEADER_GROUP, body.clone())
            },
        );
        ctx.pop_phase();
        sent.map_err(|e| FnError::retryable(e.to_string()))?;
        if multi_group {
            self.record_push_mark(ctx, session, txid)
                .map_err(|e| FnError::retryable(e.to_string()))?;
        }
        Ok(())
    }
}

/// Plan produced by validation: everything needed for ➂ and ➃.
struct WritePlan {
    final_path: String,
    commit: SystemCommit,
    /// One sub per op, in op order (a single write has exactly one).
    subs: Vec<MultiSub>,
    /// Ephemeral paths to add to the session's cleanup list post-commit.
    eph_adds: Vec<String>,
    /// `(owner, path)` ephemeral entries to drop post-commit.
    eph_removes: Vec<(String, String)>,
    /// Set when a redelivered request is detected as already committed.
    already_committed: Option<u64>,
    /// Set when the request needs no commit or distribution at all
    /// (check-only multi): the outcomes to notify directly.
    local_result: Option<Vec<OpOutcome>>,
}

impl WritePlan {
    fn new(final_path: String) -> Self {
        WritePlan {
            final_path,
            commit: SystemCommit::default(),
            subs: vec![],
            eph_adds: vec![],
            eph_removes: vec![],
            already_committed: None,
            local_result: None,
        }
    }

    fn already(txid: u64) -> Self {
        WritePlan {
            already_committed: Some(txid),
            ..Self::new(String::new())
        }
    }
}

/// A locked-and-validated request, ready for phase ➂.
struct Prepared {
    acquired: Vec<Acquired>,
    plan: WritePlan,
}

/// A pushed request, ready for phase ➃.
struct Pushed {
    /// Wave position (failure-index reporting; 0 on the serial path).
    pos: usize,
    session: String,
    txid: u64,
    commit: SystemCommit,
    eph_adds: Vec<String>,
    eph_removes: Vec<(String, String)>,
}

/// A wave request staged for the batched push: the encoded record plus
/// everything phase ➃ needs once the send assigns its sequence number.
struct StagedPush {
    /// Wave position (for failure-index reporting).
    pos: usize,
    session: String,
    /// Resolved destination group (static hash of the final path plus
    /// drain redirects), shared by the txid allocation and the queue
    /// send.
    group: usize,
    /// The encoded leader record.
    body: bytes::Bytes,
    /// Multi-group allocated txid (`0` in single-group tiers, where the
    /// queue sequence number becomes the txid).
    alloc_txid: u64,
    commit: SystemCommit,
    eph_adds: Vec<String>,
    eph_removes: Vec<(String, String)>,
    /// Held locks, released by the commit — or explicitly if the send
    /// fails and the request redelivers.
    acquired: Vec<Acquired>,
}

/// Overlay state of one node during validation: the locked item's
/// state plus the effects of the request's earlier ops, so each op
/// observes its predecessors (`czxid == 0` marks a node created by this
/// very request — the leader substitutes the txid).
struct SimNode {
    exists: bool,
    vcount: i32,
    mzxid: u64,
    czxid: u64,
    children: Vec<String>,
    seq: i64,
    eph_owner: Option<String>,
}

/// The overlay entry for `path`, initialized from the locked item state
/// on first touch. Every overlay path is in the lock set by
/// construction.
fn sim_node<'a>(
    overlay: &'a mut HashMap<String, SimNode>,
    acquired: &[Acquired],
    path: &str,
) -> &'a mut SimNode {
    if !overlay.contains_key(path) {
        let key = keys::node(path);
        let item = acquired
            .iter()
            .find(|a| a.token.key == key)
            .and_then(|a| a.old.as_ref());
        overlay.insert(
            path.to_owned(),
            SimNode {
                exists: Sys::node_exists(item),
                vcount: item.and_then(|i| i.num(node_attr::VCOUNT)).unwrap_or(0) as i32,
                mzxid: item.and_then(|i| i.num(node_attr::VERSION)).unwrap_or(0) as u64,
                czxid: item.and_then(|i| i.num(node_attr::CREATED)).unwrap_or(0) as u64,
                children: item
                    .and_then(|i| i.list(node_attr::CHILDREN))
                    .map(|l| {
                        l.iter()
                            .filter_map(|v| v.as_str().map(str::to_owned))
                            .collect()
                    })
                    .unwrap_or_default(),
                seq: item.and_then(|i| i.num(node_attr::SEQ)).unwrap_or(0),
                eph_owner: item
                    .and_then(|i| i.str(node_attr::EPH_OWNER))
                    .map(str::to_owned),
            },
        );
    }
    overlay.get_mut(path).expect("just inserted")
}

/// The merged commit item for `path`, created with the path's lock
/// timestamp on first touch (first-touch order fixes the transact's item
/// order; the transaction is all-or-nothing either way).
fn delta<'a>(
    items: &'a mut Vec<CommitItem>,
    acquired: &[Acquired],
    path: &str,
) -> &'a mut CommitItem {
    let key = keys::node(path);
    if let Some(pos) = items.iter().position(|item| item.key == key) {
        return &mut items[pos];
    }
    let lock_ts = acquired
        .iter()
        .find(|a| a.token.key == key)
        .expect("every touched path is in the lock set")
        .token
        .timestamp;
    items.push(CommitItem {
        key,
        lock_ts,
        sets: vec![],
        appends: vec![],
        removes: vec![],
        list_removes: vec![],
    });
    items.last_mut().expect("just pushed")
}

/// Sets (or replaces) one attribute in a merged commit item — a later op
/// of the multi overrides an earlier op's value for the same attribute
/// (the parent's `seq_counter` under several sequential creates).
fn set_attr(item: &mut CommitItem, attr: &str, value: SerValue) {
    match item.sets.iter_mut().find(|(a, _)| a == attr) {
        Some(entry) => entry.1 = value,
        None => item.sets.push((attr.to_owned(), value)),
    }
}

/// One op of a write request, borrowed. [`WriteOp::Create`] /
/// [`WriteOp::SetData`] / [`WriteOp::Delete`] and the four [`MultiOp`]
/// variants carry the same fields, so the lock set, the pre-lock checks
/// and the planner are written once, over this view.
#[derive(Clone, Copy)]
enum OpView<'a> {
    Create {
        path: &'a str,
        payload: &'a Payload,
        mode: CreateMode,
    },
    SetData {
        path: &'a str,
        payload: &'a Payload,
        expected_version: i32,
    },
    Delete {
        path: &'a str,
        expected_version: i32,
    },
    Check {
        path: &'a str,
        expected_version: i32,
    },
}

impl<'a> OpView<'a> {
    fn path(self) -> &'a str {
        match self {
            OpView::Create { path, .. }
            | OpView::SetData { path, .. }
            | OpView::Delete { path, .. }
            | OpView::Check { path, .. } => path,
        }
    }

    /// The node locks the op takes up front. A sequential create locks
    /// its parent first: the parent's lock serializes the sequence
    /// counter, and the generated name is locked once known.
    fn lock_paths(self) -> impl Iterator<Item = &'a str> {
        let parent = |path| zkpath::parent(path).unwrap_or("/");
        let (node, parent) = match self {
            OpView::Create { path, mode, .. } => {
                ((!mode.is_sequential()).then_some(path), Some(parent(path)))
            }
            OpView::SetData { path, .. } | OpView::Check { path, .. } => (Some(path), None),
            OpView::Delete { path, .. } => (Some(path), Some(parent(path))),
        };
        node.into_iter().chain(parent)
    }
}

/// The ops of a write request, in order: a single op is the one-op case.
/// `None` for CloseSession, which is not planned as a transaction (and
/// conflicts with everything: its ephemeral cleanup is unbounded).
fn op_views(op: &WriteOp) -> Option<Vec<OpView<'_>>> {
    Some(match op {
        WriteOp::Create {
            path,
            payload,
            mode,
        } => vec![OpView::Create {
            path,
            payload,
            mode: *mode,
        }],
        WriteOp::SetData {
            path,
            payload,
            expected_version,
        } => vec![OpView::SetData {
            path,
            payload,
            expected_version: *expected_version,
        }],
        WriteOp::Delete {
            path,
            expected_version,
        } => vec![OpView::Delete {
            path,
            expected_version: *expected_version,
        }],
        WriteOp::Multi { ops } => ops
            .iter()
            .map(|op| match op {
                MultiOp::Create {
                    path,
                    payload,
                    mode,
                } => OpView::Create {
                    path,
                    payload,
                    mode: *mode,
                },
                MultiOp::SetData {
                    path,
                    payload,
                    expected_version,
                } => OpView::SetData {
                    path,
                    payload,
                    expected_version: *expected_version,
                },
                MultiOp::Delete {
                    path,
                    expected_version,
                } => OpView::Delete {
                    path,
                    expected_version: *expected_version,
                },
                MultiOp::Check {
                    path,
                    expected_version,
                } => OpView::Check {
                    path,
                    expected_version: *expected_version,
                },
            })
            .collect(),
        WriteOp::CloseSession => return None,
    })
}

/// The client error for op `index` of `request`: a `multi` names the
/// failing op, a single op's error stays bare.
fn refusal(request: &ClientRequest, index: usize, cause: FkError) -> OpError {
    OpError::Client(match request.op {
        WriteOp::Multi { .. } => FkError::MultiFailed {
            index: index as u32,
            cause: Box::new(cause),
        },
        _ => cause,
    })
}

/// What planning one op yields: `None` to go on with the next op,
/// `Some(txid)` when a locked item carries this request's tag — a
/// redelivered copy of a request that already committed under `txid` —
/// and `Err` when the op is refused.
type Planned = Result<Option<u64>, OpError>;

/// Planning state of one request (Algorithm 1 ➁): each op is validated
/// against the overlay of the locked items and its predecessors'
/// effects, and adds its updates to the merged commit and one sub.
struct Planner<'a> {
    session: &'a str,
    /// This request's tag ([`Follower::req_tag`]).
    tag: String,
    /// Held locks; grows when a sequential create locks its generated
    /// name.
    acquired: Vec<Acquired>,
    overlay: HashMap<String, SimNode>,
    items: Vec<CommitItem>,
    subs: Vec<MultiSub>,
    eph_adds: Vec<String>,
    eph_removes: Vec<(String, String)>,
    /// The first mutated path.
    primary: Option<String>,
    /// Set while the request's last op is planned.
    last_op: bool,
}

impl<'a> Planner<'a> {
    fn new(request: &'a ClientRequest, acquired: Vec<Acquired>) -> Self {
        Planner {
            session: &request.session_id,
            tag: Follower::req_tag(request),
            acquired,
            overlay: HashMap::new(),
            items: Vec::new(),
            subs: Vec::new(),
            eph_adds: Vec::new(),
            eph_removes: Vec::new(),
            primary: None,
            last_op: false,
        }
    }

    /// Refuses the op with `cause` — unless the locked item at `path`
    /// carries this request's tag, which proves the request already
    /// committed (atomically — one committed item implies all did).
    fn refuse(&self, path: &str, cause: FkError) -> Planned {
        let key = keys::node(path);
        let item = self.acquired.iter().find(|a| a.token.key == key);
        match item.and_then(|a| a.old.as_ref()) {
            Some(item) if item.str("req_tag") == Some(&self.tag) => {
                Ok(Some(item.num(node_attr::VERSION).unwrap_or(0) as u64))
            }
            _ => Err(OpError::Client(cause)),
        }
    }

    /// `path`'s children for a sub to report. A busy parent's list is
    /// long, and the overlay already copied it out of the locked item:
    /// the request's last op takes that copy — no later op reads the
    /// overlay — so a single write copies the list once, not twice.
    fn children_of(&mut self, path: &str) -> Vec<String> {
        let node = sim_node(&mut self.overlay, &self.acquired, path);
        if self.last_op {
            std::mem::take(&mut node.children)
        } else {
            node.children.clone()
        }
    }

    /// `lock_name` locks a sequential create's generated name.
    fn create(
        &mut self,
        path: &str,
        payload: &Payload,
        mode: CreateMode,
        lock_name: impl FnOnce(&str) -> Result<Acquired, OpError>,
    ) -> Planned {
        let parent_path = zkpath::parent(path).expect("validated").to_owned();
        let (parent_exists, parent_ephemeral, seq) = {
            let p = sim_node(&mut self.overlay, &self.acquired, &parent_path);
            (p.exists, p.eph_owner.is_some(), p.seq)
        };
        if !parent_exists {
            return self.refuse(path, FkError::NoNode);
        }
        if parent_ephemeral {
            return Err(OpError::Client(FkError::NoChildrenForEphemerals));
        }
        // Sequential names come from the parent's counter (§2.2
        // "sequential nodes" in Table 1).
        let final_path = if mode.is_sequential() {
            let fp = zkpath::with_sequence(path, seq);
            self.acquired.push(lock_name(&fp)?);
            sim_node(&mut self.overlay, &self.acquired, &parent_path).seq += 1;
            fp
        } else {
            path.to_owned()
        };
        if sim_node(&mut self.overlay, &self.acquired, &final_path).exists {
            return self.refuse(&final_path, FkError::NodeExists);
        }
        let name = zkpath::basename(&final_path).to_owned();
        let ephemeral_owner = mode.is_ephemeral().then(|| self.session.to_owned());
        // Commit: node item + parent item, atomically (Z1).
        {
            let d = delta(&mut self.items, &self.acquired, &final_path);
            set_attr(d, node_attr::CREATED, SerValue::Txid);
            set_attr(d, node_attr::VERSION, SerValue::Txid);
            set_attr(d, node_attr::VCOUNT, SerValue::Num(0));
            set_attr(d, "req_tag", SerValue::Str(self.tag.clone()));
            if let Some(owner) = &ephemeral_owner {
                set_attr(d, node_attr::EPH_OWNER, SerValue::Str(owner.clone()));
            }
            d.appends
                .push((node_attr::TXQ.to_owned(), SerValue::TxidList));
            d.removes.push(node_attr::DELETED.to_owned());
        }
        {
            let d = delta(&mut self.items, &self.acquired, &parent_path);
            if mode.is_sequential() {
                set_attr(d, node_attr::SEQ, SerValue::Num(seq + 1));
            }
            // Stamp the parent's children-rewrite txid: later
            // transactions locking this parent floor their allocation
            // above it, keeping children rewrites totally ordered across
            // shard groups.
            set_attr(d, node_attr::CHILDREN_TXID, SerValue::Txid);
            d.appends.push((
                node_attr::CHILDREN.to_owned(),
                SerValue::StrList(vec![name.clone()]),
            ));
        }
        sim_node(&mut self.overlay, &self.acquired, &parent_path)
            .children
            .push(name);
        let children_after = self.children_of(&parent_path);
        *sim_node(&mut self.overlay, &self.acquired, &final_path) = SimNode {
            exists: true,
            vcount: 0,
            mzxid: 0,
            czxid: 0,
            children: Vec::new(),
            seq: 0,
            eph_owner: ephemeral_owner.clone(),
        };
        if ephemeral_owner.is_some() {
            self.eph_adds.push(final_path.clone());
        }
        self.subs.push(MultiSub {
            path: final_path.clone(),
            user_update: UserUpdate::WriteNode {
                path: final_path.clone(),
                payload: payload.clone(),
                created_txid: 0,
                version: 0,
                children: vec![],
                ephemeral_owner,
                parent_children: Some((parent_path.clone(), children_after)),
            },
            fires: vec![
                FiredWatch {
                    watch_path: final_path.clone(),
                    event_type: WatchEventType::NodeCreated,
                },
                FiredWatch {
                    watch_path: parent_path,
                    event_type: WatchEventType::NodeChildrenChanged,
                },
            ],
            is_delete: false,
            outcome: OpOutcome::Created {
                path: final_path.clone(),
                stat: Stat {
                    data_length: payload.byte_len() as u32,
                    ephemeral: mode.is_ephemeral(),
                    ..Stat::default()
                },
            },
        });
        self.primary.get_or_insert(final_path);
        Ok(None)
    }

    fn set_data(&mut self, path: &str, payload: &Payload, expected_version: i32) -> Planned {
        let (exists, vcount, czxid, eph_owner) = {
            let n = sim_node(&mut self.overlay, &self.acquired, path);
            (n.exists, n.vcount, n.czxid, n.eph_owner.clone())
        };
        if !exists {
            return self.refuse(path, FkError::NoNode);
        }
        if expected_version >= 0 && vcount != expected_version {
            return self.refuse(path, FkError::BadVersion);
        }
        {
            let d = delta(&mut self.items, &self.acquired, path);
            set_attr(d, node_attr::VERSION, SerValue::Txid);
            set_attr(d, node_attr::VCOUNT, SerValue::Num((vcount + 1) as i64));
            set_attr(d, "req_tag", SerValue::Str(self.tag.clone()));
            d.appends
                .push((node_attr::TXQ.to_owned(), SerValue::TxidList));
        }
        sim_node(&mut self.overlay, &self.acquired, path).vcount = vcount + 1;
        let children = self.children_of(path);
        let stat = Stat {
            created_txid: czxid,
            modified_txid: 0,
            version: vcount + 1,
            num_children: children.len() as u32,
            data_length: payload.byte_len() as u32,
            ephemeral: eph_owner.is_some(),
        };
        self.subs.push(MultiSub {
            path: path.to_owned(),
            user_update: UserUpdate::WriteNode {
                path: path.to_owned(),
                payload: payload.clone(),
                created_txid: czxid,
                version: vcount + 1,
                children,
                ephemeral_owner: eph_owner,
                parent_children: None,
            },
            fires: vec![FiredWatch {
                watch_path: path.to_owned(),
                event_type: WatchEventType::NodeDataChanged,
            }],
            is_delete: false,
            outcome: OpOutcome::Set {
                path: path.to_owned(),
                stat,
            },
        });
        self.primary.get_or_insert_with(|| path.to_owned());
        Ok(None)
    }

    fn delete(&mut self, path: &str, expected_version: i32) -> Planned {
        let parent_path = zkpath::parent(path).expect("validated").to_owned();
        let (exists, vcount, children_empty, eph_owner) = {
            let n = sim_node(&mut self.overlay, &self.acquired, path);
            (
                n.exists,
                n.vcount,
                n.children.is_empty(),
                n.eph_owner.clone(),
            )
        };
        if !exists {
            return self.refuse(path, FkError::NoNode);
        }
        if expected_version >= 0 && vcount != expected_version {
            return Err(OpError::Client(FkError::BadVersion));
        }
        if !children_empty {
            return Err(OpError::Client(FkError::NotEmpty));
        }
        let name = zkpath::basename(path).to_owned();
        {
            let d = delta(&mut self.items, &self.acquired, path);
            set_attr(d, node_attr::DELETED, SerValue::Num(1));
            set_attr(d, node_attr::VERSION, SerValue::Txid);
            set_attr(d, "req_tag", SerValue::Str(self.tag.clone()));
            d.appends
                .push((node_attr::TXQ.to_owned(), SerValue::TxidList));
        }
        {
            let d = delta(&mut self.items, &self.acquired, &parent_path);
            set_attr(d, node_attr::CHILDREN_TXID, SerValue::Txid);
            d.list_removes.push((
                node_attr::CHILDREN.to_owned(),
                SerValue::StrList(vec![name.clone()]),
            ));
        }
        sim_node(&mut self.overlay, &self.acquired, &parent_path)
            .children
            .retain(|c| c != &name);
        let children_after = self.children_of(&parent_path);
        sim_node(&mut self.overlay, &self.acquired, path).exists = false;
        if let Some(owner) = eph_owner {
            self.eph_removes.push((owner, path.to_owned()));
        }
        self.subs.push(MultiSub {
            path: path.to_owned(),
            user_update: UserUpdate::DeleteNode {
                path: path.to_owned(),
                parent_children: Some((parent_path.clone(), children_after)),
            },
            fires: vec![
                FiredWatch {
                    watch_path: path.to_owned(),
                    event_type: WatchEventType::NodeDeleted,
                },
                FiredWatch {
                    watch_path: parent_path,
                    event_type: WatchEventType::NodeChildrenChanged,
                },
            ],
            is_delete: true,
            outcome: OpOutcome::Deleted {
                path: path.to_owned(),
            },
        });
        self.primary.get_or_insert_with(|| path.to_owned());
        Ok(None)
    }

    fn check(&mut self, path: &str, expected_version: i32) -> Planned {
        let (exists, vcount, czxid, mzxid, num_children, eph) = {
            let n = sim_node(&mut self.overlay, &self.acquired, path);
            (
                n.exists,
                n.vcount,
                n.czxid,
                n.mzxid,
                n.children.len() as u32,
                n.eph_owner.is_some(),
            )
        };
        if !exists {
            return Err(OpError::Client(FkError::NoNode));
        }
        if expected_version >= 0 && vcount != expected_version {
            return Err(OpError::Client(FkError::BadVersion));
        }
        // Ensure the checked item appears in the commit so its lock
        // releases with everyone else's (the item update is a pure
        // unlock — no attribute changes).
        delta(&mut self.items, &self.acquired, path);
        self.subs.push(MultiSub {
            path: path.to_owned(),
            user_update: UserUpdate::None,
            fires: vec![],
            is_delete: false,
            outcome: OpOutcome::Checked {
                stat: Stat {
                    created_txid: czxid,
                    modified_txid: mzxid,
                    version: vcount,
                    num_children,
                    data_length: 0,
                    ephemeral: eph,
                },
            },
        });
        Ok(None)
    }

    /// The plan of a request whose every op validated.
    fn finish(self) -> Prepared {
        let plan = match self.primary {
            // Check-only multi: the validation under locks *is* the
            // transaction — no commit, no push, no txid. The outcomes
            // are answered directly by the caller.
            None => WritePlan {
                local_result: Some(self.subs.into_iter().map(|sub| sub.outcome).collect()),
                ..WritePlan::new(String::new())
            },
            Some(primary) => WritePlan {
                commit: SystemCommit { items: self.items },
                subs: self.subs,
                eph_adds: self.eph_adds,
                eph_removes: self.eph_removes,
                ..WritePlan::new(primary)
            },
        };
        Prepared {
            acquired: self.acquired,
            plan,
        }
    }
}

/// The set of system-store node keys a request locks — conservatively,
/// since sequential creates lock a generated name that is only known
/// under the parent lock (the parent itself is in the set, which is what
/// serializes the counter).
fn lock_set<'a>(ops: &[OpView<'a>]) -> Vec<&'a str> {
    ops.iter().flat_map(|op| op.lock_paths()).collect()
}

/// The exclusive end of the wave starting at `start`: the longest run of
/// requests whose lock sets are pairwise disjoint. A sequential create's
/// generated name is not in its set — collisions with an explicitly
/// named sibling lock are resolved by the lock acquisition itself (the
/// loser retries via redelivery), exactly as between two concurrent
/// follower instances.
fn wave_end(requests: &[(usize, ClientRequest)], start: usize) -> usize {
    let Some((_, first)) = requests.get(start) else {
        return start;
    };
    let Some(first_set) = op_views(&first.op).map(|ops| lock_set(&ops)) else {
        return start + 1; // CloseSession: singleton wave
    };
    let mut locked: HashSet<&str> = first_set.into_iter().collect();
    let mut end = start + 1;
    while end < requests.len() {
        let (_, request) = &requests[end];
        let Some(set) = op_views(&request.op).map(|ops| lock_set(&ops)) else {
            break;
        };
        if set.iter().any(|path| locked.contains(path)) {
            break;
        }
        locked.extend(set);
        end += 1;
    }
    end
}

/// Internal error split: client errors are notified, retry errors bubble
/// to the queue for redelivery.
enum OpError {
    Client(FkError),
    Retry(FnError),
}

// The planner's tests live in `tests/follower_planner.rs` (wire vectors,
// request budgets, one verdict per op whatever the request's shape);
// scenarios that need both halves of the pipeline are in `tests/e2e.rs`
// and the property suites.
