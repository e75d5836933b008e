//! The asynchronous request layer: operation descriptors, per-op
//! completion handles, and the per-session pending-op table.
//!
//! FaaSKeeper's Z1 guarantee — "requests of a single session are
//! processed in FIFO order" — is defined over a *pipeline* of in-flight
//! requests per session (PAPER §3.5, Appendix B), exactly like
//! ZooKeeper's handle-based client API. This module supplies that
//! surface:
//!
//! * [`OpHandle`] — the completion handle a `submit_*` call returns:
//!   poll ([`OpHandle::try_get`]), block ([`OpHandle::wait`]), or chain
//!   ([`OpHandle::on_complete`]).
//! * `PendingWrites` — the per-session pending-op table. Write results
//!   travel back on the notification channel, and in a multi-leader tier
//!   two of one session's writes can *arrive* out of submission order
//!   (shard group B distributes write k+1 as soon as group A has
//!   advanced the session's high-water mark — possibly before A's
//!   notification reaches the client). The table buffers early arrivals
//!   and releases completions **strictly in submission order**, which is
//!   what makes Z1 FIFO *observable* at the API: the completion order of
//!   a session's writes equals their submission order, always.
//!   Out-of-order *arrivals* are counted (`PendingWrites::reordered`)
//!   — they are expected transport behaviour; out-of-order *completion*
//!   would be a bug, and the property suite asserts it never happens.
//!   Reads are not in the table: they travel the direct-to-storage path
//!   and may overtake writes, which Z3 explicitly permits.
//! * [`Op`] / [`OpResult`] — the ZooKeeper-compatible `multi` op set and
//!   its per-op results, including the partial-failure shape
//!   ([`OpResult::Error`] at the failing index, [`OpResult::RolledBack`]
//!   everywhere else).

use crate::api::{CreateMode, FkError, FkResult, Stat};
use crate::messages::{OpOutcome, WriteResultData};
use fk_cloud::trace::Ctx;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

// ----------------------------------------------------------------------
// Multi ops (client-facing)
// ----------------------------------------------------------------------

/// One operation of a [`crate::client::FkClient::multi`] transaction
/// (ZooKeeper's `Op` set: create / setData / delete / check).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Create a node.
    Create {
        /// Requested path (sequential suffix not yet applied).
        path: String,
        /// Payload bytes.
        data: Vec<u8>,
        /// Creation mode.
        mode: CreateMode,
    },
    /// Replace a node's data.
    SetData {
        /// Node path.
        path: String,
        /// Payload bytes.
        data: Vec<u8>,
        /// Expected version (`-1` = unconditional).
        expected_version: i32,
    },
    /// Delete a node.
    Delete {
        /// Node path.
        path: String,
        /// Expected version (`-1` = unconditional).
        expected_version: i32,
    },
    /// Assert a node's version without modifying it.
    Check {
        /// Node path.
        path: String,
        /// Expected version (`-1` = existence only).
        expected_version: i32,
    },
}

impl Op {
    /// A create op.
    pub fn create(path: impl Into<String>, data: &[u8], mode: CreateMode) -> Self {
        Op::Create {
            path: path.into(),
            data: data.to_vec(),
            mode,
        }
    }

    /// A set-data op.
    pub fn set_data(path: impl Into<String>, data: &[u8], expected_version: i32) -> Self {
        Op::SetData {
            path: path.into(),
            data: data.to_vec(),
            expected_version,
        }
    }

    /// A delete op.
    pub fn delete(path: impl Into<String>, expected_version: i32) -> Self {
        Op::Delete {
            path: path.into(),
            expected_version,
        }
    }

    /// A version-check op.
    pub fn check(path: impl Into<String>, expected_version: i32) -> Self {
        Op::Check {
            path: path.into(),
            expected_version,
        }
    }

    /// The path this op targets.
    pub fn path(&self) -> &str {
        match self {
            Op::Create { path, .. }
            | Op::SetData { path, .. }
            | Op::Delete { path, .. }
            | Op::Check { path, .. } => path,
        }
    }
}

/// Per-op result of a `multi` transaction, aligned with the submitted
/// op vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// The create succeeded.
    Create {
        /// Final path (sequential creates return the generated name).
        path: String,
        /// Node stat after the create.
        stat: Stat,
    },
    /// The set_data succeeded.
    SetData {
        /// Node stat after the write.
        stat: Stat,
    },
    /// The delete succeeded.
    Delete,
    /// The version check passed.
    Check {
        /// The stat the check validated against.
        stat: Stat,
    },
    /// This op failed validation — the whole transaction aborted.
    Error(FkError),
    /// Another op failed; this one was rolled back (ZooKeeper's
    /// runtime-inconsistency marker for non-failing ops of an aborted
    /// multi).
    RolledBack,
}

/// Converts a committed sub-op outcome into the client-facing result.
pub(crate) fn outcome_to_result(outcome: OpOutcome) -> OpResult {
    match outcome {
        OpOutcome::Created { path, stat } => OpResult::Create { path, stat },
        OpOutcome::Set { stat, .. } => OpResult::SetData { stat },
        OpOutcome::Deleted { .. } => OpResult::Delete,
        OpOutcome::Checked { stat } => OpResult::Check { stat },
    }
}

/// Expands a failed multi's error into ZooKeeper-style per-op results:
/// the specific error at the failing index, [`OpResult::RolledBack`] for
/// every other op. A non-multi error (e.g. a timeout before validation)
/// marks every op with a clone of it.
pub fn multi_error_results(op_count: usize, err: &FkError) -> Vec<OpResult> {
    match err {
        FkError::MultiFailed { index, cause } => (0..op_count)
            .map(|i| {
                if i as u32 == *index {
                    OpResult::Error((**cause).clone())
                } else {
                    OpResult::RolledBack
                }
            })
            .collect(),
        other => (0..op_count)
            .map(|_| OpResult::Error(other.clone()))
            .collect(),
    }
}

// ----------------------------------------------------------------------
// Completion handles
// ----------------------------------------------------------------------

type Callback<T> = Box<dyn FnOnce(&FkResult<T>) + Send>;

enum CellState<T> {
    Pending(Vec<Callback<T>>),
    /// Shared so callbacks can run with the state lock **released** —
    /// a callback is free to touch its own handle (poll it, register
    /// another callback) without self-deadlocking.
    Done(Arc<FkResult<T>>),
}

struct OpCell<T> {
    state: Mutex<CellState<T>>,
    cv: Condvar,
    /// Virtual-time fork the op ran on (reads); the first waiter joins
    /// it into its own clock.
    fork: Mutex<Option<Ctx>>,
    default_timeout: Duration,
}

/// Completion handle for a submitted operation.
///
/// A handle is cheap to clone-by-wrapper (it is an `Arc` internally) and
/// offers three consumption styles:
///
/// * **wait** — block until the result arrives ([`OpHandle::wait`] /
///   [`OpHandle::wait_timeout`]); the blocking `FkClient` methods are
///   exactly `submit_*(...).wait()`.
/// * **poll** — [`OpHandle::try_get`] returns `None` while in flight.
/// * **callback** — [`OpHandle::on_complete`] runs a closure on the
///   completing thread (the response handler for writes, a read worker
///   for reads), or immediately if the op already finished.
///
/// Write handles complete **in submission order** per session (Z1; see
/// the module docs). Dropping a handle does not cancel the op.
pub struct OpHandle<T> {
    cell: Arc<OpCell<T>>,
}

impl<T> OpHandle<T> {
    /// True once the result is available.
    pub fn is_done(&self) -> bool {
        matches!(*self.cell.state.lock(), CellState::Done(_))
    }

    /// Registers a completion callback. Runs immediately (on the calling
    /// thread) if the op already completed; otherwise on the completing
    /// thread, *after* every earlier write of the session has completed.
    /// Callbacks always run with the handle's internal lock released, so
    /// they may touch the handle (poll it, chain another callback).
    pub fn on_complete(&self, callback: impl FnOnce(&FkResult<T>) + Send + 'static) {
        let done = {
            let mut state = self.cell.state.lock();
            match &mut *state {
                CellState::Pending(callbacks) => {
                    callbacks.push(Box::new(callback));
                    return;
                }
                CellState::Done(result) => Arc::clone(result),
            }
        };
        callback(&done);
    }

    /// Takes the virtual-time fork the op ran on (reads only; `None`
    /// for writes or after another caller took it). The blocking
    /// wrappers join it into the client clock so sequential callers see
    /// the same virtual latency as the pre-handle API.
    pub(crate) fn take_fork(&self) -> Option<Ctx> {
        self.cell.fork.lock().take()
    }
}

impl<T: Clone> OpHandle<T> {
    /// Non-blocking poll: the result if the op completed.
    pub fn try_get(&self) -> Option<FkResult<T>> {
        match &*self.cell.state.lock() {
            CellState::Done(result) => Some((**result).clone()),
            CellState::Pending(_) => None,
        }
    }

    /// Blocks until completion, up to the session's configured timeout.
    pub fn wait(&self) -> FkResult<T> {
        self.wait_timeout(self.cell.default_timeout)
    }

    /// Blocks until completion, up to `timeout`. A timeout returns
    /// [`FkError::Timeout`] but does **not** cancel the op — it may
    /// still complete later (and later waits can observe it).
    pub fn wait_timeout(&self, timeout: Duration) -> FkResult<T> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.cell.state.lock();
        loop {
            if let CellState::Done(result) = &*state {
                return (**result).clone();
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(FkError::Timeout);
            }
            self.cell.cv.wait_for(&mut state, remaining);
        }
    }
}

/// Write half of a handle: completes it exactly once.
pub(crate) struct Completer<T> {
    cell: Arc<OpCell<T>>,
}

impl<T> Completer<T> {
    /// Publishes the result and runs the registered callbacks — outside
    /// the state lock, so a callback may touch the handle. A callback
    /// that registers *another* callback during the hand-off window is
    /// picked up by the drain loop rather than lost.
    pub(crate) fn complete(self, result: FkResult<T>) {
        let result = Arc::new(result);
        loop {
            let callbacks = {
                let mut state = self.cell.state.lock();
                match &mut *state {
                    CellState::Pending(callbacks) if !callbacks.is_empty() => {
                        std::mem::take(callbacks)
                    }
                    CellState::Pending(_) => {
                        *state = CellState::Done(Arc::clone(&result));
                        break;
                    }
                    // Double completion cannot happen (the completer is
                    // consumed); bail defensively.
                    CellState::Done(_) => break,
                }
            };
            for callback in callbacks {
                callback(&result);
            }
        }
        self.cell.cv.notify_all();
    }

    /// Stores the virtual-time fork the op ran on, then completes.
    pub(crate) fn complete_on(self, fork: Ctx, result: FkResult<T>) {
        *self.cell.fork.lock() = Some(fork);
        self.complete(result);
    }
}

/// Creates a linked handle/completer pair.
pub(crate) fn handle_pair<T>(default_timeout: Duration) -> (OpHandle<T>, Completer<T>) {
    let cell = Arc::new(OpCell {
        state: Mutex::new(CellState::Pending(Vec::new())),
        cv: Condvar::new(),
        fork: Mutex::new(None),
        default_timeout,
    });
    (
        OpHandle {
            cell: Arc::clone(&cell),
        },
        Completer { cell },
    )
}

/// A handle that is already complete (empty multis, validation
/// short-circuits).
pub(crate) fn ready<T>(result: FkResult<T>) -> OpHandle<T> {
    let (handle, completer) = handle_pair(Duration::from_secs(0));
    completer.complete(result);
    handle
}

// ----------------------------------------------------------------------
// Pending-write table
// ----------------------------------------------------------------------

/// Raw write outcome as delivered by the response handler:
/// `(result payload, txid)`.
pub(crate) type RawWrite = Result<(WriteResultData, u64), FkError>;

/// Type-erased completion for one pending write.
pub(crate) type WriteCompleter = Box<dyn FnOnce(RawWrite) + Send>;

/// One released completion: `(request id, completer, result)`.
pub(crate) type ReadyWrite = (u64, WriteCompleter, RawWrite);

/// The per-session pending-op table (see module docs): holds the
/// session's in-flight writes in submission order and releases their
/// completions in that same order, buffering results that arrive early.
#[derive(Default)]
pub(crate) struct PendingWrites {
    queue: VecDeque<(u64, WriteCompleter)>,
    early: HashMap<u64, RawWrite>,
    reordered: u64,
}

impl PendingWrites {
    /// Registers a submitted write. Request ids are per-session
    /// monotonic, so pushes arrive in submission order.
    pub(crate) fn push(&mut self, request_id: u64, completer: WriteCompleter) {
        self.queue.push_back((request_id, completer));
    }

    /// Records the arrival of a result and returns every completion that
    /// is now releasable **in submission order** — possibly none (the
    /// result arrived ahead of a predecessor), possibly several (this
    /// result unblocked buffered successors). The caller invokes the
    /// completers outside the table lock.
    pub(crate) fn settle(&mut self, request_id: u64, result: RawWrite) -> Vec<ReadyWrite> {
        if !self.queue.iter().any(|(rid, _)| *rid == request_id) {
            // Unknown or already-completed id (idempotent re-notify
            // after a leader redelivery): nothing to release.
            return Vec::new();
        }
        if self.queue.front().map(|(rid, _)| *rid) != Some(request_id) {
            self.reordered += 1;
        }
        self.early.insert(request_id, result);
        let mut ready = Vec::new();
        while let Some((front_rid, _)) = self.queue.front() {
            let Some(result) = self.early.remove(front_rid) else {
                break;
            };
            let (rid, completer) = self.queue.pop_front().expect("front exists");
            ready.push((rid, completer, result));
        }
        ready
    }

    /// Fails every outstanding write (session teardown), in order.
    pub(crate) fn drain(&mut self, err: FkError) -> Vec<ReadyWrite> {
        self.early.clear();
        self.queue
            .drain(..)
            .map(|(rid, completer)| (rid, completer, Err(err.clone())))
            .collect()
    }

    /// Number of in-flight writes.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// How many results arrived ahead of an uncompleted predecessor and
    /// were buffered to preserve submission-order completion. Expected
    /// to be non-zero under a multi-leader tier; completions are still
    /// released in order.
    pub(crate) fn reordered(&self) -> u64 {
        self.reordered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw_ok(rid: u64) -> RawWrite {
        let op_results = vec![OpOutcome::Set {
            path: format!("/n{rid}"),
            stat: Stat::default(),
        }];
        Ok((WriteResultData { op_results }, rid))
    }

    #[test]
    fn handle_wait_poll_callback() {
        let (handle, completer) = handle_pair::<u32>(Duration::from_secs(5));
        assert!(!handle.is_done());
        assert!(handle.try_get().is_none());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        handle.on_complete(move |r| seen2.lock().push(r.clone()));
        completer.complete(Ok(7));
        assert!(handle.is_done());
        assert_eq!(handle.try_get(), Some(Ok(7)));
        assert_eq!(handle.wait(), Ok(7));
        assert_eq!(seen.lock().as_slice(), &[Ok(7)]);
        // Late callbacks run immediately.
        let late = Arc::new(Mutex::new(0));
        let late2 = Arc::clone(&late);
        handle.on_complete(move |_| *late2.lock() += 1);
        assert_eq!(*late.lock(), 1);
    }

    #[test]
    fn handle_wait_times_out_without_cancelling() {
        let (handle, completer) = handle_pair::<u32>(Duration::from_millis(5));
        assert_eq!(handle.wait(), Err(FkError::Timeout));
        completer.complete(Ok(1));
        assert_eq!(handle.wait(), Ok(1), "late completion still observable");
    }

    #[test]
    fn pending_writes_release_in_submission_order() {
        let mut table = PendingWrites::default();
        let log = Arc::new(Mutex::new(Vec::new()));
        for rid in 1..=3u64 {
            let log = Arc::clone(&log);
            table.push(rid, Box::new(move |_| log.lock().push(rid)));
        }
        // Result for 2 arrives first: buffered, nothing released.
        assert!(table.settle(2, raw_ok(2)).is_empty());
        assert_eq!(table.reordered(), 1);
        // Result for 1 releases both 1 and the buffered 2.
        let ready = table.settle(1, raw_ok(1));
        assert_eq!(
            ready.iter().map(|(rid, _, _)| *rid).collect::<Vec<_>>(),
            vec![1, 2]
        );
        for (_, completer, result) in ready {
            completer(result);
        }
        assert_eq!(log.lock().as_slice(), &[1, 2]);
        // 3 in order: released immediately.
        let ready = table.settle(3, raw_ok(3));
        assert_eq!(ready.len(), 1);
        // Unknown / duplicate ids are ignored.
        assert!(table.settle(3, raw_ok(3)).is_empty());
        assert!(table.settle(99, raw_ok(99)).is_empty());
    }

    #[test]
    fn multi_error_results_mark_failing_index() {
        let err = FkError::MultiFailed {
            index: 1,
            cause: Box::new(FkError::BadVersion),
        };
        let results = multi_error_results(3, &err);
        assert_eq!(results[0], OpResult::RolledBack);
        assert_eq!(results[1], OpResult::Error(FkError::BadVersion));
        assert_eq!(results[2], OpResult::RolledBack);
        let blanket = multi_error_results(2, &FkError::Timeout);
        assert!(blanket
            .iter()
            .all(|r| *r == OpResult::Error(FkError::Timeout)));
    }
}
