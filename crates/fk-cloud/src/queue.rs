//! Simulated cloud queues (SQS / SQS FIFO / DynamoDB Streams / Pub/Sub).
//!
//! FaaSKeeper requires a queue that (§3.1): (a) invokes functions on
//! messages, (b) upholds FIFO order, (c) limits the concurrency of
//! consumers to a single instance per ordering group, (d) batches items,
//! and (e) assigns monotonically increasing sequence numbers. This module
//! provides those guarantees; the FaaS runtime builds triggers on top.
//!
//! FIFO semantics follow SQS FIFO message groups: within a group messages
//! are delivered in order and a group is *blocked* while any of its
//! messages is in flight, which is exactly how "only a single follower
//! instance can be active at a time" (Appendix B, Z2) is enforced.
//! Failed batches are redelivered after a visibility timeout or an
//! explicit negative acknowledgement, preserving order.

use crate::chaos::{Chaos, FaultKind};
use crate::error::{CloudError, CloudResult};
use crate::faas::FnError;
use crate::metering::Meter;
use crate::ops::{Op, QueueKind};
use crate::region::Region;
use crate::trace::Ctx;
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How many receive polls a chaos-delayed message holds its group back.
const CHAOS_DELAY_POLLS: u32 = 3;

/// A queued message.
///
/// **Zero-copy delivery contract:** the payload is a ref-counted
/// [`Bytes`] and the ordering group a shared `Arc<str>`, so every hop a
/// message takes — into the queue, into the in-flight ledger at receive
/// time, back to the front of its group on a nack or a
/// [`Queue::nack_deferred`] deferral — moves or ref-bumps the *original*
/// allocations. A deferred leader batch in particular requeues the
/// original encoded record bytes untouched; nothing on the redelivery
/// path re-encodes or deep-copies a body.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Monotonically increasing sequence number (requirement (e); used as
    /// the transaction id source in FaaSKeeper).
    pub seq: u64,
    /// Ordering group (one per client session in FaaSKeeper), shared
    /// with the queue's internal group index.
    pub group: Arc<str>,
    /// Payload.
    pub body: Bytes,
    /// Sender's virtual timestamp, merged into the consumer's clock.
    pub sent_vt_ns: u64,
    /// Delivery attempt count (1 on first delivery).
    pub attempt: u32,
}

/// Handle for acknowledging a received batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Receipt(u64);

/// A received batch: messages plus the receipt to ack/nack them with.
#[derive(Debug)]
pub struct Batch {
    /// The messages, in order.
    pub messages: Vec<Message>,
    /// Acknowledgement handle.
    pub receipt: Receipt,
}

#[derive(Debug)]
struct InFlight {
    group: Option<Arc<str>>,
    messages: Vec<Message>,
    deadline: Instant,
}

#[derive(Debug, Default)]
struct QState {
    groups: HashMap<Arc<str>, VecDeque<Message>>,
    /// Round-robin order of groups that currently hold pending messages.
    group_order: VecDeque<Arc<str>>,
    /// Groups blocked by an in-flight batch (FIFO kinds only).
    blocked: HashSet<Arc<str>>,
    inflight: HashMap<u64, InFlight>,
    dead_letters: Vec<Message>,
    /// Chaos-delayed messages: seq → remaining receive polls the
    /// message's group is held back (decremented once per poll that
    /// would otherwise have delivered it; per-group FIFO order is
    /// preserved because the whole group waits with its head).
    delayed: HashMap<u64, u32>,
    next_seq: u64,
    next_receipt: u64,
    closed: bool,
}

struct Inner {
    name: String,
    kind: QueueKind,
    region: Region,
    meter: Meter,
    max_message_bytes: usize,
    max_receive_count: u32,
    state: Mutex<QState>,
    available: Condvar,
    chaos: OnceLock<Arc<Chaos>>,
}

/// A simulated cloud queue. Cloning shares the queue.
#[derive(Clone)]
pub struct Queue {
    inner: Arc<Inner>,
}

impl Queue {
    /// Creates a queue of the given kind with provider-typical limits
    /// (SQS: 256 kB messages; Pub/Sub: 10 MB — §4.5).
    pub fn new(name: impl Into<String>, kind: QueueKind, region: Region, meter: Meter) -> Self {
        let max_message_bytes = match kind {
            QueueKind::Fifo | QueueKind::Standard => 256 * 1024,
            QueueKind::Stream => 400 * 1024,
            QueueKind::PubSub | QueueKind::PubSubOrdered => 10 * 1024 * 1024,
        };
        Queue {
            inner: Arc::new(Inner {
                name: name.into(),
                kind,
                region,
                meter,
                max_message_bytes,
                max_receive_count: 5,
                state: Mutex::new(QState {
                    next_seq: 1,
                    ..QState::default()
                }),
                available: Condvar::new(),
                chaos: OnceLock::new(),
            }),
        }
    }

    /// Installs the chaos engine on this queue (at most once; later
    /// calls are ignored). Never called for a disabled plan, so an
    /// untouched queue performs zero chaos work.
    pub fn install_chaos(&self, chaos: Arc<Chaos>) {
        let _ = self.inner.chaos.set(chaos);
    }

    /// Queue name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The queue's usage meter.
    pub fn meter(&self) -> &Meter {
        &self.inner.meter
    }

    /// Queue flavour.
    pub fn kind(&self) -> QueueKind {
        self.inner.kind
    }

    /// Region the queue lives in.
    pub fn region(&self) -> Region {
        self.inner.region
    }

    /// Enqueues a message, returning its sequence number.
    pub fn send(&self, ctx: &Ctx, group: &str, body: Bytes) -> CloudResult<u64> {
        if body.len() > self.inner.max_message_bytes {
            return Err(CloudError::PayloadTooLarge {
                size: body.len(),
                limit: self.inner.max_message_bytes,
            });
        }
        let size = body.len();
        ctx.charge_to(Op::QueueSend(self.inner.kind), size, self.inner.region);
        // A failed send has already cost the round trip; nothing is
        // enqueued, so a retrying caller cannot double-enqueue.
        self.chaos_send_error(ctx)?;
        let (duplicate, delay) = self.chaos_delivery_rolls(ctx);
        let seq;
        {
            let mut st = self.inner.state.lock();
            if st.closed {
                return Err(CloudError::ServiceStopped);
            }
            seq = st.next_seq;
            st.next_seq += 1;
            let msg = Message {
                seq,
                group: Arc::from(group),
                body,
                sent_vt_ns: ctx.now_ns(),
                attempt: 0,
            };
            if !st.groups.contains_key(group) {
                st.group_order.push_back(Arc::clone(&msg.group));
            }
            let key = Arc::clone(&msg.group);
            // At-least-once duplication: the same message (same seq, same
            // body allocation) lands twice, back to back in its group —
            // consumers must dedupe on the message id. The copy is a
            // *re-receive* of the original, so it starts one attempt up:
            // its delivery reads `attempt >= 2`, exactly like SQS's
            // ApproximateReceiveCount on any message delivered more than
            // once. Consumers may rely on `attempt == 1` meaning
            // first-and-only delivery so far.
            let dup = duplicate.then(|| Message {
                attempt: msg.attempt + 1,
                ..msg.clone()
            });
            st.groups.entry(key).or_default().push_back(msg);
            if let Some(dup) = dup {
                let key = Arc::clone(&dup.group);
                st.groups.entry(key).or_default().push_back(dup);
            }
            if delay > 0 {
                st.delayed.insert(seq, delay);
            }
        }
        self.inner.meter.queue_send(size);
        self.inner.available.notify_all();
        Ok(seq)
    }

    /// Rolls the transient-send fault; `Err` means the request failed
    /// before anything was enqueued.
    fn chaos_send_error(&self, ctx: &Ctx) -> CloudResult<()> {
        if let Some(chaos) = self.inner.chaos.get() {
            if chaos.fire(ctx, FaultKind::QueueError) {
                self.inner
                    .meter
                    .fault_injected(FaultKind::QueueError.label());
                return Err(chaos.error(FaultKind::QueueError));
            }
        }
        Ok(())
    }

    /// Rolls per-message delivery faults: `(duplicate, delay_polls)`.
    fn chaos_delivery_rolls(&self, ctx: &Ctx) -> (bool, u32) {
        let Some(chaos) = self.inner.chaos.get() else {
            return (false, 0);
        };
        let duplicate = chaos.fire(ctx, FaultKind::QueueDuplicate);
        if duplicate {
            self.inner
                .meter
                .fault_injected(FaultKind::QueueDuplicate.label());
        }
        let delay = if chaos.fire(ctx, FaultKind::QueueDelay) {
            self.inner
                .meter
                .fault_injected(FaultKind::QueueDelay.label());
            CHAOS_DELAY_POLLS
        } else {
            0
        };
        (duplicate, delay)
    }

    /// Enqueues up to-`bodies.len()` messages as batched requests
    /// (SQS `SendMessageBatch`: ≤ 10 entries per request, one round trip
    /// each). Messages take consecutive sequence numbers in `bodies`
    /// order — the property the follower's wave pushes rely on. Billing
    /// stays per message (SQS bills batch entries individually); only
    /// the *latency* amortizes.
    pub fn send_batch(&self, ctx: &Ctx, group: &str, bodies: Vec<Bytes>) -> CloudResult<Vec<u64>> {
        const ENTRIES_PER_REQUEST: usize = 10;
        // Validate everything before enqueuing anything: a batch either
        // lands whole or not at all, so a caller never has to guess
        // which prefix is in the queue after an error.
        for body in &bodies {
            if body.len() > self.inner.max_message_bytes {
                return Err(CloudError::PayloadTooLarge {
                    size: body.len(),
                    limit: self.inner.max_message_bytes,
                });
            }
        }
        // One round trip per ≤ 10-entry request, charged up front (the
        // messages become visible when the last request completes).
        for chunk in bodies.chunks(ENTRIES_PER_REQUEST) {
            let bytes: usize = chunk.iter().map(Bytes::len).sum();
            ctx.charge_to(Op::QueueSend(self.inner.kind), bytes, self.inner.region);
        }
        // One fault roll for the whole call, before anything is
        // enqueued, preserving the all-or-nothing batch contract.
        self.chaos_send_error(ctx)?;
        let delivery_rolls: Vec<(bool, u32)> = bodies
            .iter()
            .map(|_| self.chaos_delivery_rolls(ctx))
            .collect();
        let shared_group: Arc<str> = Arc::from(group);
        let mut seqs = Vec::with_capacity(bodies.len());
        {
            let mut st = self.inner.state.lock();
            if st.closed {
                return Err(CloudError::ServiceStopped);
            }
            if !st.groups.contains_key(group) {
                st.group_order.push_back(Arc::clone(&shared_group));
            }
            for (body, (duplicate, delay)) in bodies.iter().zip(&delivery_rolls) {
                let seq = st.next_seq;
                st.next_seq += 1;
                let msg = Message {
                    seq,
                    group: Arc::clone(&shared_group),
                    body: body.clone(),
                    sent_vt_ns: ctx.now_ns(),
                    attempt: 0,
                };
                // Same re-receive semantics as the single `send` above:
                // the duplicated copy's deliveries read `attempt >= 2`.
                let dup = duplicate.then(|| Message {
                    attempt: msg.attempt + 1,
                    ..msg.clone()
                });
                st.groups
                    .entry(Arc::clone(&shared_group))
                    .or_default()
                    .push_back(msg);
                if let Some(dup) = dup {
                    st.groups
                        .entry(Arc::clone(&shared_group))
                        .or_default()
                        .push_back(dup);
                }
                if *delay > 0 {
                    st.delayed.insert(seq, *delay);
                }
                seqs.push(seq);
            }
        }
        for body in &bodies {
            self.inner.meter.queue_send(body.len());
        }
        self.inner.available.notify_all();
        Ok(seqs)
    }

    /// Number of pending (not in-flight) messages.
    pub fn pending(&self) -> usize {
        let st = self.inner.state.lock();
        st.groups.values().map(VecDeque::len).sum()
    }

    /// Messages that exhausted their redelivery budget.
    pub fn dead_letters(&self) -> Vec<Message> {
        self.inner.state.lock().dead_letters.clone()
    }

    /// Takes ownership of everything parked in the dead-letter queue,
    /// lowering the DLQ-depth gauge to match. The observable,
    /// consumable counterpart of [`Queue::dead_letters`]: an operator
    /// (or a test) drains the DLQ, inspects what died, and the meter
    /// reflects that nothing is silently accumulating.
    pub fn drain_dead_letters(&self) -> Vec<Message> {
        let drained = std::mem::take(&mut self.inner.state.lock().dead_letters);
        if !drained.is_empty() {
            self.inner.meter.dead_letter_delta(-(drained.len() as i64));
        }
        drained
    }

    /// Redrives everything parked in the dead-letter queue back onto its
    /// source FIFO — the operator workflow SQS calls a DLQ *redrive*.
    /// Each message returns to the back of its original ordering group
    /// with a fresh delivery-attempt budget, ordered by original send
    /// sequence, so per-group FIFO order among redriven messages is
    /// preserved (messages from one exhausted batch land in the DLQ in
    /// reverse requeue order; sorting by `seq` restores send order).
    /// Returns the number of messages redriven.
    pub fn redrive_dead_letters(&self) -> usize {
        let mut st = self.inner.state.lock();
        if st.dead_letters.is_empty() {
            return 0;
        }
        let mut dead = std::mem::take(&mut st.dead_letters);
        dead.sort_by_key(|m| m.seq);
        let redriven = dead.len();
        for mut msg in dead {
            msg.attempt = 0;
            let group = Arc::clone(&msg.group);
            if !st.groups.contains_key(&group) {
                st.group_order.push_back(Arc::clone(&group));
            }
            st.groups.entry(group).or_default().push_back(msg);
        }
        drop(st);
        self.inner.meter.dead_letter_delta(-(redriven as i64));
        self.inner.available.notify_all();
        redriven
    }

    /// Closes the queue; blocked receivers wake with an empty batch.
    pub fn close(&self) {
        self.inner.state.lock().closed = true;
        self.inner.available.notify_all();
    }

    /// True once [`Queue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.state.lock().closed
    }

    fn reclaim_expired(st: &mut QState, now: Instant, max_receive: u32, meter: &Meter) {
        let expired: Vec<u64> = st
            .inflight
            .iter()
            .filter(|(_, f)| f.deadline <= now)
            .map(|(id, _)| *id)
            .collect();
        for id in expired {
            let inflight = st.inflight.remove(&id).expect("expired id present");
            Self::requeue(st, inflight, max_receive, meter);
        }
    }

    fn requeue(st: &mut QState, inflight: InFlight, max_receive: u32, meter: &Meter) {
        if let Some(group) = &inflight.group {
            st.blocked.remove(group);
        }
        // Re-deliverable messages return to the *front* of their group in
        // order — the original `Message` moves back whole (its body and
        // group are the original ref-counted allocations, never
        // re-encoded); exhausted ones go to the dead-letter queue.
        for msg in inflight.messages.into_iter().rev() {
            if msg.attempt >= max_receive {
                st.dead_letters.push(msg);
                meter.dead_letter_delta(1);
                continue;
            }
            let group = Arc::clone(&msg.group);
            if !st.groups.contains_key(&group) {
                st.group_order.push_front(Arc::clone(&group));
            }
            st.groups.entry(group).or_default().push_front(msg);
        }
        st.groups.retain(|_, q| !q.is_empty());
    }

    fn try_take(
        st: &mut QState,
        kind: QueueKind,
        max: usize,
        visibility: Duration,
        batch_window: bool,
    ) -> Option<Batch> {
        let fifo = kind.is_fifo();
        // A provider trigger without a batch window is capped at the
        // kind's per-receive batch size; with a batch window the consumer
        // may drain up to `max` accumulated messages of one group in a
        // single pop (the distributor's epoch batches).
        let max = if batch_window {
            max.max(1)
        } else {
            max.min(kind.max_batch()).max(1)
        };
        // Find the first deliverable group in round-robin order.
        let mut chosen: Option<Arc<str>> = None;
        for _ in 0..st.group_order.len() {
            let Some(group) = st.group_order.pop_front() else {
                break;
            };
            let has_msgs = st
                .groups
                .get(&group)
                .map(|q| !q.is_empty())
                .unwrap_or(false);
            if !has_msgs {
                continue; // drop empty group from rotation
            }
            if fifo && st.blocked.contains(&group) {
                st.group_order.push_back(group);
                continue;
            }
            // A chaos-delayed head holds its whole group back for a few
            // polls (per-group FIFO order survives the delay); other
            // groups keep delivering around it.
            let delayed_head = st
                .groups
                .get(&group)
                .and_then(VecDeque::front)
                .map(|m| m.seq)
                .filter(|seq| st.delayed.contains_key(seq));
            if let Some(seq) = delayed_head {
                let remaining = st.delayed.get_mut(&seq).expect("checked above");
                *remaining -= 1;
                if *remaining == 0 {
                    st.delayed.remove(&seq);
                }
                st.group_order.push_back(group);
                continue;
            }
            chosen = Some(group);
            break;
        }
        let group = chosen?;
        let queue = st.groups.get_mut(&group).expect("group exists");
        let take = queue.len().min(max);
        let mut messages = Vec::with_capacity(take);
        for _ in 0..take {
            let mut msg = queue.pop_front().expect("len checked");
            msg.attempt += 1;
            messages.push(msg);
        }
        if queue.is_empty() {
            st.groups.remove(&group);
        } else {
            st.group_order.push_back(group.clone());
        }
        let receipt = st.next_receipt;
        st.next_receipt += 1;
        let blocked_group = if fifo {
            st.blocked.insert(group.clone());
            Some(group)
        } else {
            None
        };
        st.inflight.insert(
            receipt,
            InFlight {
                group: blocked_group,
                messages: messages.clone(),
                deadline: Instant::now() + visibility,
            },
        );
        Some(Batch {
            messages,
            receipt: Receipt(receipt),
        })
    }

    /// Non-blocking receive of up to `max` messages (one ordering group
    /// per batch for FIFO kinds).
    pub fn receive(&self, max: usize, visibility: Duration) -> Option<Batch> {
        let mut st = self.inner.state.lock();
        Self::reclaim_expired(
            &mut st,
            Instant::now(),
            self.inner.max_receive_count,
            &self.inner.meter,
        );
        Self::try_take(&mut st, self.inner.kind, max, visibility, false)
    }

    /// Batch-window receive: like [`Queue::receive`] but allowed to drain
    /// up to `max` accumulated messages of one ordering group in a single
    /// pop, past the provider's per-receive batch cap (SQS "maximum
    /// batching window" semantics). The leader's distributor uses this to
    /// form epoch batches.
    pub fn receive_up_to(&self, max: usize, visibility: Duration) -> Option<Batch> {
        let mut st = self.inner.state.lock();
        Self::reclaim_expired(
            &mut st,
            Instant::now(),
            self.inner.max_receive_count,
            &self.inner.meter,
        );
        Self::try_take(&mut st, self.inner.kind, max, visibility, true)
    }

    /// Blocking receive: waits up to `timeout` for a deliverable batch.
    /// Returns `None` on timeout or when the queue is closed and drained.
    pub fn receive_timeout(
        &self,
        max: usize,
        visibility: Duration,
        timeout: Duration,
    ) -> Option<Batch> {
        self.receive_timeout_inner(max, visibility, timeout, false)
    }

    /// Blocking batch-window receive (see [`Queue::receive_up_to`]).
    pub fn receive_up_to_timeout(
        &self,
        max: usize,
        visibility: Duration,
        timeout: Duration,
    ) -> Option<Batch> {
        self.receive_timeout_inner(max, visibility, timeout, true)
    }

    fn receive_timeout_inner(
        &self,
        max: usize,
        visibility: Duration,
        timeout: Duration,
        batch_window: bool,
    ) -> Option<Batch> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock();
        loop {
            Self::reclaim_expired(
                &mut st,
                Instant::now(),
                self.inner.max_receive_count,
                &self.inner.meter,
            );
            if let Some(batch) =
                Self::try_take(&mut st, self.inner.kind, max, visibility, batch_window)
            {
                return Some(batch);
            }
            if st.closed {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            // Wake early enough to reclaim expiring in-flight batches.
            let next_expiry = st.inflight.values().map(|f| f.deadline).min();
            let wait_until = next_expiry.map(|e| e.min(deadline)).unwrap_or(deadline);
            let wait = wait_until
                .saturating_duration_since(now)
                .max(Duration::from_millis(1));
            self.inner.available.wait_for(&mut st, wait);
        }
    }

    /// Acknowledges a batch: deletes the messages and unblocks the group.
    pub fn ack(&self, receipt: Receipt) {
        self.ack_inner(receipt);
    }

    fn ack_inner(&self, receipt: Receipt) -> usize {
        let mut st = self.inner.state.lock();
        let mut consumed = 0;
        if let Some(inflight) = st.inflight.remove(&receipt.0) {
            consumed = inflight.messages.len();
            if let Some(group) = inflight.group {
                st.blocked.remove(&group);
            }
        }
        drop(st);
        self.inner.available.notify_all();
        consumed
    }

    /// Settles a received batch by its handler's outcome — the one place
    /// the ack / nack contract is written down: success acks; a
    /// *deferral* returns the suffix from `failed_index` without burning
    /// attempts ([`Queue::nack_deferred`]); a retryable failure returns
    /// it with an attempt burnt ([`Queue::nack`]); a non-retryable
    /// failure drops the batch (redelivery cannot help — the caller
    /// reports it). Returns how many messages left the queue for good,
    /// which is what "this consumer made progress" means.
    pub fn settle<T>(&self, receipt: Receipt, outcome: &Result<T, FnError>) -> usize {
        match outcome {
            Err(e) if e.retryable => self.nack_inner(receipt, e.failed_index, e.deferred),
            _ => self.ack_inner(receipt),
        }
    }

    /// Negative-acknowledges a batch from `first_failed` onward: earlier
    /// messages are deleted, the rest return to the front of their group
    /// (SQS partial-batch-failure semantics).
    pub fn nack(&self, receipt: Receipt, first_failed: usize) {
        self.nack_inner(receipt, first_failed, false);
    }

    /// Like [`Queue::nack`], but the returned messages do **not** burn a
    /// redelivery attempt — the consumer *deferred* them (it cannot
    /// process them *yet*, e.g. a cross-shard predecessor has not landed)
    /// rather than failing on them. The SQS analogue is shortening the
    /// visibility timeout instead of reporting a batch-item failure; a
    /// deferred message must never drift toward the dead-letter queue.
    pub fn nack_deferred(&self, receipt: Receipt, first_failed: usize) {
        self.nack_inner(receipt, first_failed, true);
    }

    fn nack_inner(&self, receipt: Receipt, first_failed: usize, deferred: bool) -> usize {
        let mut st = self.inner.state.lock();
        let mut consumed = 0;
        if let Some(mut inflight) = st.inflight.remove(&receipt.0) {
            consumed = first_failed.min(inflight.messages.len());
            inflight.messages.drain(..consumed);
            if deferred {
                for msg in &mut inflight.messages {
                    msg.attempt = msg.attempt.saturating_sub(1);
                }
            }
            Self::requeue(
                &mut st,
                inflight,
                self.inner.max_receive_count,
                &self.inner.meter,
            );
        }
        drop(st);
        self.inner.available.notify_all();
        consumed
    }
}

// ----------------------------------------------------------------------
// Adaptive batch windows
// ----------------------------------------------------------------------

/// AIMD-style controller for a queue consumer's batch window.
///
/// A large window amortizes per-batch costs (dispatch, fan-out barriers,
/// epoch bookkeeping) across many messages but adds batching delay when
/// traffic is light. The controller sizes the window from what the queue
/// actually shows **between drains**: a drain that fills the current
/// window while messages remain backlogged doubles the window (up to
/// `max`); a drain that comes back under half full with an empty backlog
/// halves it (down to `min`). Doubling reacts within O(log max/min)
/// drains to a burst; halving returns the window to low-latency draining
/// once the burst passes.
///
/// Both the leader's epoch drain (`fk-core`) and the follower's queue
/// trigger ([`crate::faas::FaasRuntime::attach_queue_trigger_adaptive`])
/// run on this controller.
pub struct AdaptiveBatch {
    window: std::sync::atomic::AtomicUsize,
    min: usize,
    max: usize,
}

impl AdaptiveBatch {
    /// Creates a controller bounded by `[min, max]`; the window starts at
    /// the floor. `min == max` pins the window (static batching).
    pub fn new(min: usize, max: usize) -> Self {
        assert!(min > 0, "at least one message per batch");
        assert!(min <= max, "adaptive floor above the batch cap");
        AdaptiveBatch {
            window: std::sync::atomic::AtomicUsize::new(min),
            min,
            max,
        }
    }

    /// The current drain window.
    pub fn window(&self) -> usize {
        self.window.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Observes one drain: `drained` messages were taken and `backlog`
    /// messages remained queued afterwards.
    pub fn observe(&self, drained: usize, backlog: usize) {
        let window = self.window();
        let next = if drained >= window && backlog > 0 {
            (window.saturating_mul(2)).min(self.max)
        } else if drained * 2 <= window && backlog == 0 {
            (window / 2).max(self.min)
        } else {
            window
        };
        self.window
            .store(next, std::sync::atomic::Ordering::Relaxed);
    }
}

// ----------------------------------------------------------------------
// Sharding
// ----------------------------------------------------------------------

/// Stable shard assignment for a string key (FNV-1a over the key bytes).
/// Every layer that partitions by path — the distributor's fan-out
/// workers, per-shard queue groups, benchmarks — must agree on this
/// function, so it lives here at the bottom of the stack.
pub fn shard_of(key: &str, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be positive");
    (fnv1a(key, 0) % shards as u64) as usize
}

/// Stable shard-**group** assignment for the multi-leader queue tier.
///
/// Deliberately *not* [`shard_of`]: the distributor's intra-leader
/// fan-out partitions by `shard_of`, and if the queue tier used the same
/// function the two layers would correlate — with `groups == shards`,
/// every path routed to group `g` also hashes to fan-out shard `g`, so
/// each leader's entire batch collapses into a single fan-out worker and
/// the intra-leader parallelism evaporates. Salting the group hash makes
/// the two partitions independent.
pub fn group_of(key: &str, groups: usize) -> usize {
    assert!(groups > 0, "group count must be positive");
    (fnv1a(key, 0x9E37_79B9_7F4A_7C15) % groups as u64) as usize
}

fn fnv1a(key: &str, salt: u64) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    const FNV_PRIME: u64 = 0x100000001b3;
    let mut hash = FNV_OFFSET ^ salt;
    for &byte in key.as_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A group of per-shard FIFO queues with a stable key→queue route.
///
/// Where a single FIFO queue serializes everything, a sharded group keeps
/// *per-key* FIFO order (all messages for one key land on one member
/// queue, [`shard_of`]) while letting distinct shards drain in parallel —
/// the queue-level counterpart of the distributor's sharded fan-out.
#[derive(Clone)]
pub struct ShardedQueues {
    queues: Vec<Queue>,
}

impl ShardedQueues {
    /// Creates `shards` member queues named `<name>-<i>`.
    pub fn new(name: &str, kind: QueueKind, region: Region, meter: Meter, shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        ShardedQueues {
            queues: (0..shards)
                .map(|i| Queue::new(format!("{name}-{i}"), kind, region, meter.clone()))
                .collect(),
        }
    }

    /// Number of member queues.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// The member queue a key routes to.
    pub fn route(&self, key: &str) -> &Queue {
        &self.queues[shard_of(key, self.queues.len())]
    }

    /// A member queue by index.
    pub fn queue(&self, shard: usize) -> &Queue {
        &self.queues[shard]
    }

    /// Sends `body` to the shard owning `key`, using `key` as the
    /// ordering group. Returns `(shard, seq)`.
    pub fn send(&self, ctx: &Ctx, key: &str, body: Bytes) -> CloudResult<(usize, u64)> {
        let shard = shard_of(key, self.queues.len());
        let seq = self.queues[shard].send(ctx, key, body)?;
        Ok((shard, seq))
    }

    /// Sends `body` to the member queue owning `key` under the
    /// *group-tier* hash ([`group_of`], decorrelated from the fan-out
    /// hash) and an explicit ordering group. A constant group name per
    /// member turns each shard into a global FIFO with a single active
    /// consumer (the multi-leader tier: one leader instance per shard
    /// group), while routing still keeps all of one key's messages on
    /// one member queue in push order.
    pub fn send_grouped(
        &self,
        ctx: &Ctx,
        key: &str,
        group: &str,
        body: Bytes,
    ) -> CloudResult<(usize, u64)> {
        let shard = group_of(key, self.queues.len());
        let seq = self.queues[shard].send(ctx, group, body)?;
        Ok((shard, seq))
    }

    /// Total messages pending across all shards.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(Queue::pending).sum()
    }

    /// Installs the chaos engine on every member queue.
    pub fn install_chaos(&self, chaos: &Arc<Chaos>) {
        for queue in &self.queues {
            queue.install_chaos(Arc::clone(chaos));
        }
    }

    /// Drains the dead-letter queues of every member.
    pub fn drain_dead_letters(&self) -> Vec<Message> {
        self.queues
            .iter()
            .flat_map(Queue::drain_dead_letters)
            .collect()
    }

    /// Redrives every member queue's dead letters back onto its source
    /// FIFO (see [`Queue::redrive_dead_letters`]); returns the total.
    pub fn redrive_dead_letters(&self) -> usize {
        self.queues.iter().map(Queue::redrive_dead_letters).sum()
    }

    /// Closes every member queue.
    pub fn close(&self) {
        for queue in &self.queues {
            queue.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fifo() -> Queue {
        Queue::new("q", QueueKind::Fifo, Region::US_EAST_1, Meter::new())
    }

    fn send(q: &Queue, group: &str, body: &str) -> u64 {
        q.send(&Ctx::disabled(), group, Bytes::from(body.to_owned()))
            .unwrap()
    }

    #[test]
    fn sequence_numbers_are_monotonic() {
        let q = fifo();
        let s1 = send(&q, "a", "1");
        let s2 = send(&q, "b", "2");
        let s3 = send(&q, "a", "3");
        assert!(s1 < s2 && s2 < s3);
    }

    #[test]
    fn fifo_order_within_group() {
        let q = fifo();
        for i in 0..5 {
            send(&q, "s1", &format!("m{i}"));
        }
        let batch = q.receive(10, Duration::from_secs(30)).unwrap();
        let bodies: Vec<&[u8]> = batch.messages.iter().map(|m| m.body.as_ref()).collect();
        assert_eq!(bodies, vec![b"m0".as_ref(), b"m1", b"m2", b"m3", b"m4"]);
    }

    #[test]
    fn fifo_batch_capped_at_ten() {
        let q = fifo();
        for i in 0..15 {
            send(&q, "s1", &format!("m{i}"));
        }
        let batch = q.receive(100, Duration::from_secs(30)).unwrap();
        assert_eq!(batch.messages.len(), 10);
    }

    #[test]
    fn group_blocked_while_inflight() {
        let q = fifo();
        send(&q, "s1", "a");
        send(&q, "s1", "b");
        let b1 = q.receive(1, Duration::from_secs(30)).unwrap();
        assert_eq!(b1.messages[0].body.as_ref(), b"a");
        // Same group blocked; nothing deliverable.
        assert!(q.receive(1, Duration::from_secs(30)).is_none());
        q.ack(b1.receipt);
        let b2 = q.receive(1, Duration::from_secs(30)).unwrap();
        assert_eq!(b2.messages[0].body.as_ref(), b"b");
    }

    #[test]
    fn independent_groups_deliver_concurrently() {
        let q = fifo();
        send(&q, "s1", "a");
        send(&q, "s2", "b");
        let b1 = q.receive(1, Duration::from_secs(30)).unwrap();
        let b2 = q.receive(1, Duration::from_secs(30)).unwrap();
        let groups: HashSet<String> = [b1.messages[0].group.clone(), b2.messages[0].group.clone()]
            .into_iter()
            .map(|g| g.to_string())
            .collect();
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn nack_redelivers_in_order() {
        let q = fifo();
        send(&q, "s1", "a");
        send(&q, "s1", "b");
        send(&q, "s1", "c");
        let b = q.receive(10, Duration::from_secs(30)).unwrap();
        assert_eq!(b.messages.len(), 3);
        // First message processed fine, failure at index 1.
        q.nack(b.receipt, 1);
        let b2 = q.receive(10, Duration::from_secs(30)).unwrap();
        let bodies: Vec<&[u8]> = b2.messages.iter().map(|m| m.body.as_ref()).collect();
        assert_eq!(bodies, vec![b"b".as_ref(), b"c"]);
        assert_eq!(b2.messages[0].attempt, 2);
        assert_eq!(b2.messages[1].attempt, 2);
    }

    #[test]
    fn visibility_timeout_requeues() {
        let q = fifo();
        send(&q, "s1", "a");
        let b = q.receive(1, Duration::from_millis(5)).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        // Expired batch is reclaimed on the next receive.
        let b2 = q.receive(1, Duration::from_secs(30)).unwrap();
        assert_eq!(b2.messages[0].body.as_ref(), b"a");
        assert_eq!(b2.messages[0].attempt, 2);
        drop(b);
    }

    /// Deferral and redelivery are zero-copy: the body delivered after a
    /// `nack_deferred` is the *same allocation* that was sent — no
    /// re-encode, no deep copy — and the group string is shared with the
    /// queue's index rather than re-allocated per delivery.
    #[test]
    fn deferred_redelivery_shares_the_original_allocations() {
        let q = fifo();
        let body = Bytes::from(vec![0xAB; 4096]);
        let sent_ptr = body.as_ref().as_ptr();
        q.send(&Ctx::disabled(), "sess", body).unwrap();
        let first = q.receive(1, Duration::from_secs(30)).unwrap();
        let first_group = Arc::clone(&first.messages[0].group);
        assert_eq!(first.messages[0].body.as_ref().as_ptr(), sent_ptr);
        q.nack_deferred(first.receipt, 0);
        let second = q.receive(1, Duration::from_secs(30)).unwrap();
        assert_eq!(
            second.messages[0].body.as_ref().as_ptr(),
            sent_ptr,
            "redelivered body is the original buffer"
        );
        assert!(
            Arc::ptr_eq(&second.messages[0].group, &first_group),
            "group allocation shared across deliveries"
        );
        q.ack(second.receipt);
    }

    /// A deferral must be repeatable forever: unlike a failure nack, it
    /// never walks the message toward the dead-letter queue.
    #[test]
    fn deferred_nack_burns_no_redelivery_attempts() {
        let q = fifo();
        send(&q, "s1", "held");
        for _ in 0..20 {
            let b = q.receive(1, Duration::from_secs(30)).unwrap();
            assert_eq!(b.messages[0].attempt, 1, "attempt count stays fresh");
            q.nack_deferred(b.receipt, 0);
        }
        assert!(q.dead_letters().is_empty());
        // A real failure afterwards still counts.
        let b = q.receive(1, Duration::from_secs(30)).unwrap();
        q.nack(b.receipt, 0);
        let b = q.receive(1, Duration::from_secs(30)).unwrap();
        assert_eq!(b.messages[0].attempt, 2);
        q.ack(b.receipt);
    }

    #[test]
    fn exhausted_retries_go_to_dead_letter_queue() {
        let q = fifo();
        send(&q, "s1", "poison");
        for _ in 0..5 {
            let b = q.receive(1, Duration::from_secs(30)).unwrap();
            q.nack(b.receipt, 0);
        }
        assert!(q.receive(1, Duration::from_secs(30)).is_none());
        let dl = q.dead_letters();
        assert_eq!(dl.len(), 1);
        assert_eq!(dl[0].body.as_ref(), b"poison");
    }

    #[test]
    fn dead_letter_drain_lowers_the_depth_gauge() {
        let meter = Meter::new();
        let q = Queue::new("q", QueueKind::Fifo, Region::US_EAST_1, meter.clone());
        let ctx = Ctx::disabled();
        for body in ["p1", "p2"] {
            q.send(&ctx, "s1", Bytes::from(body.to_owned())).unwrap();
        }
        for _ in 0..5 {
            let b = q.receive(10, Duration::from_secs(30)).unwrap();
            q.nack(b.receipt, 0);
        }
        assert_eq!(meter.snapshot().queue_dead_letters, 2, "depth visible");
        // `dead_letters()` observes without consuming…
        assert_eq!(q.dead_letters().len(), 2);
        assert_eq!(meter.snapshot().queue_dead_letters, 2);
        // …while a drain consumes and zeroes the gauge.
        let drained = q.drain_dead_letters();
        assert_eq!(drained.len(), 2);
        assert_eq!(meter.snapshot().queue_dead_letters, 0);
        assert!(q.dead_letters().is_empty());
        assert!(q.drain_dead_letters().is_empty(), "second drain is empty");
    }

    /// Operator-style DLQ redrive: parked messages return to the back of
    /// their source group in original send order with a fresh attempt
    /// budget, the depth gauge drops, and delivery interleaves correctly
    /// with messages that never died.
    #[test]
    fn redrive_returns_dead_letters_to_their_group_in_order() {
        let meter = Meter::new();
        let q = Queue::new("q", QueueKind::Fifo, Region::US_EAST_1, meter.clone());
        let ctx = Ctx::disabled();
        for body in ["p1", "p2"] {
            q.send(&ctx, "s1", Bytes::from(body.to_owned())).unwrap();
        }
        send(&q, "s2", "healthy");
        // Exhaust s1's batch into the DLQ (both messages die together).
        for _ in 0..5 {
            let b = q.receive(10, Duration::from_secs(30)).unwrap();
            q.nack(b.receipt, 0);
        }
        assert_eq!(meter.snapshot().queue_dead_letters, 2);
        // A message sent to the group while its predecessors sat in the
        // DLQ delivers first — a redrive appends to the *back* of the
        // source queue (SQS semantics), it does not jump the line.
        send(&q, "s1", "p3");
        assert_eq!(q.redrive_dead_letters(), 2);
        assert_eq!(meter.snapshot().queue_dead_letters, 0, "gauge lowered");
        assert!(q.dead_letters().is_empty());
        assert_eq!(q.redrive_dead_letters(), 0, "second redrive is a no-op");
        // Drain everything: s1 delivers p3 then p1, p2 (redriven, in
        // original send order); s2's untouched message still delivers.
        let mut by_group: HashMap<String, Vec<Vec<u8>>> = HashMap::new();
        while let Some(b) = q.receive(10, Duration::from_secs(30)) {
            for m in &b.messages {
                assert_eq!(m.attempt, 1, "redrive resets the attempt budget");
                by_group
                    .entry(m.group.to_string())
                    .or_default()
                    .push(m.body.to_vec());
            }
            q.ack(b.receipt);
        }
        assert_eq!(
            by_group["s1"],
            vec![b"p3".to_vec(), b"p1".to_vec(), b"p2".to_vec()],
            "redriven messages keep their relative send order"
        );
        assert_eq!(by_group["s2"], vec![b"healthy".to_vec()]);
    }

    #[test]
    fn standard_queue_does_not_block_groups() {
        let q = Queue::new("std", QueueKind::Standard, Region::US_EAST_1, Meter::new());
        send(&q, "s1", "a");
        send(&q, "s1", "b");
        let b1 = q.receive(1, Duration::from_secs(30)).unwrap();
        // Standard queues allow concurrent delivery from the same group.
        let b2 = q.receive(1, Duration::from_secs(30)).unwrap();
        assert_eq!(b1.messages.len() + b2.messages.len(), 2);
    }

    #[test]
    fn message_size_limit() {
        let q = fifo();
        let err = q
            .send(&Ctx::disabled(), "g", Bytes::from(vec![0u8; 300 * 1024]))
            .unwrap_err();
        assert!(matches!(err, CloudError::PayloadTooLarge { .. }));
    }

    #[test]
    fn blocking_receive_wakes_on_send() {
        let q = fifo();
        let q2 = q.clone();
        let handle = std::thread::spawn(move || {
            q2.receive_timeout(1, Duration::from_secs(30), Duration::from_secs(5))
        });
        std::thread::sleep(Duration::from_millis(20));
        send(&q, "s1", "wake");
        let batch = handle.join().unwrap().expect("should receive");
        assert_eq!(batch.messages[0].body.as_ref(), b"wake");
    }

    #[test]
    fn close_wakes_blocked_receivers() {
        let q = fifo();
        let q2 = q.clone();
        let handle = std::thread::spawn(move || {
            q2.receive_timeout(1, Duration::from_secs(30), Duration::from_secs(30))
        });
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(handle.join().unwrap().is_none());
        assert!(q.send(&Ctx::disabled(), "g", Bytes::new()).is_err());
    }

    #[test]
    fn batch_window_drains_past_fifo_cap() {
        let q = fifo();
        for i in 0..25 {
            send(&q, "s1", &format!("m{i}"));
        }
        // Plain receive stays capped at the provider batch size...
        let b = q.receive(100, Duration::from_secs(30)).unwrap();
        assert_eq!(b.messages.len(), 10);
        q.nack(b.receipt, 0); // put them back
                              // ...while the batch-window pop drains the requested amount.
        let b = q.receive_up_to(100, Duration::from_secs(30)).unwrap();
        assert_eq!(b.messages.len(), 25);
        let bodies: Vec<&[u8]> = b.messages.iter().take(3).map(|m| m.body.as_ref()).collect();
        assert_eq!(bodies, vec![b"m0".as_ref(), b"m1", b"m2"], "order kept");
    }

    #[test]
    fn batch_window_still_blocks_group() {
        let q = fifo();
        send(&q, "s1", "a");
        send(&q, "s1", "b");
        let b = q.receive_up_to(1, Duration::from_secs(30)).unwrap();
        assert!(q.receive_up_to(1, Duration::from_secs(30)).is_none());
        q.ack(b.receipt);
        assert!(q.receive_up_to(1, Duration::from_secs(30)).is_some());
    }

    #[test]
    fn shard_of_is_stable_and_covers_range() {
        for shards in [1usize, 2, 4, 7, 16] {
            let mut hit = vec![false; shards];
            for i in 0..1000 {
                let key = format!("/node/{i}");
                let s = shard_of(&key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(&key, shards), "stable");
                hit[s] = true;
            }
            assert!(hit.iter().all(|&h| h), "all {shards} shards used");
        }
    }

    /// With equal moduli, group assignment must not determine shard
    /// assignment — otherwise each shard-group leader's fan-out would
    /// degenerate to a single worker.
    #[test]
    fn group_hash_is_decorrelated_from_shard_hash() {
        for n in [2usize, 4, 8] {
            let mut same = 0;
            let total = 1000;
            for i in 0..total {
                let key = format!("/node/{i}");
                if shard_of(&key, n) == group_of(&key, n) {
                    same += 1;
                }
            }
            // Independent hashes agree ~1/n of the time; correlated ones
            // would agree always. Allow generous slack.
            assert!(
                (same as f64) < total as f64 * (1.5 / n as f64 + 0.1),
                "{same}/{total} collisions at n={n} — hashes correlated"
            );
            // And coverage still holds.
            let mut hit = vec![false; n];
            for i in 0..1000 {
                hit[group_of(&format!("/cover/{i}"), n)] = true;
            }
            assert!(hit.iter().all(|&h| h), "all {n} groups used");
        }
    }

    #[test]
    fn sharded_queues_keep_per_key_order_across_shards() {
        let group = ShardedQueues::new("d", QueueKind::Fifo, Region::US_EAST_1, Meter::new(), 4);
        let ctx = Ctx::disabled();
        for i in 0..40 {
            let key = format!("/n{}", i % 8);
            group.send(&ctx, &key, Bytes::from(format!("{i}"))).unwrap();
        }
        assert_eq!(group.pending(), 40);
        // Drain each shard; per key the payload sequence must be ordered.
        let mut last_seen: HashMap<String, u64> = HashMap::new();
        for s in 0..group.shards() {
            while let Some(batch) = group.queue(s).receive_up_to(64, Duration::from_secs(30)) {
                for msg in &batch.messages {
                    assert_eq!(shard_of(&msg.group, 4), s, "key routed to its shard");
                    let v: u64 = std::str::from_utf8(&msg.body).unwrap().parse().unwrap();
                    if let Some(prev) = last_seen.get(&*msg.group) {
                        assert!(v > *prev, "per-key FIFO preserved");
                    }
                    last_seen.insert(msg.group.to_string(), v);
                }
                group.queue(s).ack(batch.receipt);
            }
        }
        assert_eq!(last_seen.len(), 8);
    }

    #[test]
    fn sharded_send_grouped_routes_by_key_but_orders_by_group() {
        let group = ShardedQueues::new("l", QueueKind::Fifo, Region::US_EAST_1, Meter::new(), 4);
        let ctx = Ctx::disabled();
        let mut shards_hit = HashSet::new();
        for i in 0..24 {
            let key = format!("/n{i}");
            let (shard, _) = group
                .send_grouped(&ctx, &key, "leader", Bytes::from(format!("{i}")))
                .unwrap();
            assert_eq!(shard, group_of(&key, 4), "routed by key");
            shards_hit.insert(shard);
        }
        assert!(shards_hit.len() > 1, "keys spread across members");
        // Every member queue holds a single ordering group, so one
        // receive drains a multi-key batch (the leader's epoch window).
        for s in 0..group.shards() {
            if group.queue(s).pending() == 0 {
                continue;
            }
            let batch = group
                .queue(s)
                .receive_up_to(64, Duration::from_secs(5))
                .unwrap();
            assert!(batch.messages.iter().all(|m| &*m.group == "leader"));
            group.queue(s).ack(batch.receipt);
        }
        assert_eq!(group.pending(), 0);
    }

    #[test]
    fn adaptive_batch_doubles_under_backlog_and_halves_when_idle() {
        let ctrl = AdaptiveBatch::new(2, 16);
        assert_eq!(ctrl.window(), 2, "starts at the floor");
        ctrl.observe(2, 10);
        assert_eq!(ctrl.window(), 4);
        ctrl.observe(4, 10);
        ctrl.observe(8, 10);
        ctrl.observe(16, 10);
        assert_eq!(ctrl.window(), 16, "capped at max");
        ctrl.observe(10, 3);
        assert_eq!(ctrl.window(), 16, "half-full drain with backlog holds");
        ctrl.observe(3, 0);
        assert_eq!(ctrl.window(), 8);
        ctrl.observe(0, 0);
        ctrl.observe(0, 0);
        ctrl.observe(0, 0);
        assert_eq!(ctrl.window(), 2, "floored at min");
    }

    #[test]
    fn static_adaptive_batch_never_moves() {
        let ctrl = AdaptiveBatch::new(16, 16);
        ctrl.observe(16, 100);
        ctrl.observe(0, 0);
        assert_eq!(ctrl.window(), 16);
    }

    #[test]
    fn round_robin_across_groups() {
        let q = fifo();
        for g in ["a", "b", "c"] {
            send(&q, g, "m");
        }
        let mut seen = Vec::new();
        for _ in 0..3 {
            let b = q.receive(1, Duration::from_secs(30)).unwrap();
            seen.push(b.messages[0].group.to_string());
            q.ack(b.receipt);
        }
        seen.sort();
        assert_eq!(seen, vec!["a", "b", "c"]);
    }
}
