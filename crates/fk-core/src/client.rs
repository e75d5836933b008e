//! The FaaSKeeper client library (§3.5).
//!
//! Reads go *directly* to cloud storage — no server, no function — which
//! is what makes reads cheap (Cost_R = R_S3(s), §5.3.4). Writes are
//! submitted to the session's FIFO queue and answered by a push
//! notification from the leader. Because reads and writes travel
//! different paths, the client re-creates ZooKeeper's session ordering
//! itself: two background threads (request sender, response handler),
//! an MRD (most-recent-data) timestamp, and the epoch
//! stall — a read whose node carries epoch marks for one of this client's
//! undelivered watches blocks until those notifications arrive (Z4,
//! Appendix B).
//!
//! # Pipelined submission (the handle-based API)
//!
//! Like ZooKeeper's real client, the API is **asynchronous at the
//! core**: every operation has a `submit_*` variant returning an
//! [`OpHandle`] that can be polled, waited on, or given a completion
//! callback, and the historical blocking methods are thin
//! `submit_*(...).wait()` wrappers. A session may keep any number of
//! writes in flight; they enter the session's FIFO queue in submission
//! order (one sender thread preserves it) and their completions are
//! released by the per-session pending-op table
//! (`fk_core::ops`'s pending-write table) **strictly in submission order**,
//! even when a multi-leader tier delivers the results out of order —
//! this is Z1's FIFO pipeline made observable at the API. Reads run on
//! a small worker pool and may overtake in-flight writes, which Z3
//! explicitly permits (they still re-run the Z4 epoch stall and the MRD
//! watermark rule on every serve).
//!
//! [`FkClient::multi`] submits a ZooKeeper-style atomic multi-op
//! transaction: all ops commit under one txid or none do, with per-op
//! results ([`crate::ops::OpResult`]) and partial-failure reporting at
//! the failing index.
//!
//! Reads first consult a session-local, watermark-validated cache
//! ([`crate::read_cache`]): a valid entry answers without any storage
//! round trip, concurrent reads of one cold path coalesce into a single
//! fetch, and the response-handler thread evicts paths named by write
//! results and watch events as they arrive.

use crate::api::{CreateMode, FkError, FkResult, Stat, WatchEvent, WatchEventType, WatchKind};
use crate::consistency::{HEvent, HistoryRecorder};
use crate::messages::{
    ClientNotification, ClientRequest, MultiOp, Payload, WriteOp, WriteResultData,
};
use crate::notify::ClientBus;
use crate::ops::{self, Op, OpHandle, OpResult, PendingWrites, RawWrite};
use crate::path as zkpath;
use crate::read_cache::{CacheStats, ReadCache, ReadCacheConfig};
use crate::system_store::SystemStore;
use crate::user_store::{NodeRecord, ScanEntry, UserStore};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use fk_cloud::metering::Meter;
use fk_cloud::objectstore::ObjectStore;
use fk_cloud::ops::Op as CloudOp;
use fk_cloud::queue::Queue;
use fk_cloud::retry::{with_retry, RetryPolicy};
use fk_cloud::trace::Ctx;
use parking_lot::{Condvar, Mutex};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Client configuration.
#[derive(Clone)]
pub struct ClientConfig {
    /// Session identifier (unique per client).
    pub session_id: String,
    /// How long API calls wait for results.
    pub timeout: Duration,
    /// Payloads whose on-the-wire size exceeds this are staged through
    /// the temporary-object bucket instead of the queue (§4.4). The
    /// binary queue frame carries raw bytes, so this compares the
    /// payload's actual length.
    pub stage_threshold: usize,
    /// Worker threads executing submitted reads (`submit_get_data` /
    /// `submit_exists` / `submit_get_children`). Reads are independent
    /// storage round trips, so this bounds a session's read
    /// concurrency; writes need no workers (they ride the notification
    /// channel).
    pub read_workers: usize,
    /// Optional consistency-history sink (tests).
    pub recorder: Option<HistoryRecorder>,
    /// Read-cache bounds. `None` means "unset": a deployment's
    /// `connect_with` fills in its default, and a bare `FkClient::connect`
    /// runs uncached. An explicit `Some` — including an explicitly
    /// *disabled* config — always wins, so a test can pin an uncached
    /// control client against a cache-enabled deployment.
    pub read_cache: Option<ReadCacheConfig>,
    /// Usage meter the read cache reports hit/miss counters to (wired by
    /// [`crate::deploy::Deployment::connect_with`]).
    pub cache_meter: Option<Meter>,
    /// Shared regional read replica this session reads through (wired by
    /// [`crate::deploy::Deployment::connect_with`] when the deployment
    /// runs a replica tier). Consulted *between* the private cache and
    /// backing storage: a cache miss first asks the replica, and only a
    /// watermark-ineligible or non-resident path falls through to
    /// storage. `None` reads exactly as before the replica tier existed.
    pub replica: Option<Arc<crate::replica::ReadReplica>>,
}

impl ClientConfig {
    /// Defaults: 30 s timeout, 192 kB staging threshold (raw payload
    /// bytes; leaves 64 kB of headroom for the rest of the record under
    /// the 256 kB SQS message cap), 4 read workers.
    pub fn new(session_id: impl Into<String>) -> Self {
        ClientConfig {
            session_id: session_id.into(),
            timeout: Duration::from_secs(30),
            stage_threshold: 192 * 1024,
            read_workers: 4,
            recorder: None,
            read_cache: None,
            cache_meter: None,
            replica: None,
        }
    }

    /// Builder: attach a consistency-history recorder.
    pub fn with_recorder(mut self, recorder: HistoryRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Builder: pin the client read cache to the given bounds (an
    /// explicitly disabled config stays disabled even when the
    /// deployment enables caching by default).
    pub fn with_read_cache(mut self, cache: ReadCacheConfig) -> Self {
        self.read_cache = Some(cache);
        self
    }

    /// Builder: report cache hit/miss counters to a usage meter.
    pub fn with_cache_meter(mut self, meter: Meter) -> Self {
        self.cache_meter = Some(meter);
        self
    }

    /// Builder: read through a shared regional read replica (tier two of
    /// the read path; see [`crate::replica`]).
    pub fn with_replica(mut self, replica: Arc<crate::replica::ReadReplica>) -> Self {
        self.replica = Some(replica);
        self
    }

    /// Builder: size of the read worker pool.
    pub fn with_read_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "at least one read worker");
        self.read_workers = workers;
        self
    }
}

struct Shared {
    session_id: String,
    /// The per-session pending-op table: in-flight writes in submission
    /// order, completed in submission order (Z1).
    pending: Mutex<PendingWrites>,
    /// Watch ids this client registered.
    my_watches: Mutex<HashSet<u64>>,
    /// Watch ids whose notifications have been delivered to this client.
    delivered: Mutex<HashSet<u64>>,
    delivered_cv: Condvar,
    /// Most-recent-data timestamp: highest txid observed.
    mrd: AtomicU64,
    closed: AtomicBool,
    /// Optional consistency-history sink; write completions are recorded
    /// here at *release* time, so the recorded per-session order is the
    /// submission order (Z1's linearization of the pipeline).
    recorder: Option<HistoryRecorder>,
}

impl Shared {
    /// Routes one write result through the pending-op table and runs
    /// every completion it releases, recording history events in order.
    fn deliver_write(&self, request_id: u64, result: RawWrite) {
        let ready = self.pending.lock().settle(request_id, result);
        for (rid, completer, result) in ready {
            if let Some(rec) = &self.recorder {
                match &result {
                    Ok((_, txid)) => rec.record(HEvent::WriteCommitted {
                        session: self.session_id.clone(),
                        request_id: rid,
                        txid: *txid,
                    }),
                    Err(_) => rec.record(HEvent::WriteFailed {
                        session: self.session_id.clone(),
                        request_id: rid,
                    }),
                }
            }
            completer(result);
        }
    }
}

/// The read-path state shared with the read worker pool: everything a
/// worker needs to serve `get_data` / `exists` / `get_children`
/// off-thread with full Z3/Z4 semantics.
struct ReadCore {
    shared: Arc<Shared>,
    system: SystemStore,
    user_store: Arc<dyn UserStore>,
    cache: Arc<ReadCache>,
    /// Tier two of the read path: the shared regional replica, consulted
    /// on a private-cache miss before paying a storage round trip.
    replica: Option<Arc<crate::replica::ReadReplica>>,
    /// Meter retries on storage reads are reported to.
    meter: Meter,
    timeout: Duration,
}

impl ReadCore {
    /// Reads a node through the read cache: a valid cached entry (see
    /// `read_cache` module docs for the watermark rule) costs no storage
    /// round trip, concurrent reads of one cold path coalesce into a
    /// single fetch, and a confirmed-absent path can be answered from a
    /// negative entry. The Z4 epoch stall and the history recording run
    /// on *every* serve path — hit, fetch or coalesced — so a cache hit
    /// is observationally a legal storage read.
    ///
    /// `fresh` forces a storage read that bypasses the cache entry *and*
    /// any in-progress flight (refreshing the entry with the result).
    /// Watch-arming reads must be fresh: the registration promises to
    /// report every change after the returned version, so the read has
    /// to postdate the registration — a hit could serve a version from
    /// before it, and a change landing in between would neither be
    /// returned nor ever fire the watch.
    fn read_record(&self, ctx: &Ctx, path: &str, fresh: bool) -> FkResult<Option<Arc<NodeRecord>>> {
        let mrd = self.shared.mrd.load(Ordering::SeqCst);
        let fetch = || {
            // Tier two: on a private-cache miss, ask the shared regional
            // replica before paying a storage round trip. The replica
            // applies the same MRD watermark gate the cache does (see
            // `replica` module docs), so a hit is observationally a legal
            // storage read; a miss — non-resident, stale, or lagging —
            // falls through to storage exactly as before. Fresh
            // (watch-arming) reads never get here: they bypass both tiers.
            if !fresh {
                if let Some(replica) = &self.replica {
                    if let Some(record) = replica.serve(ctx, path, mrd) {
                        return Ok(Some((*record).clone()));
                    }
                }
            }
            // Reads are idempotent, so transient storage errors (object
            // store 503s, injected faults) are retried in place instead
            // of surfacing to the application.
            with_retry(
                ctx,
                &self.meter,
                &RetryPolicy::standard(),
                "client.read_node",
                || self.user_store.read_node(ctx, path),
            )
            .map_err(|e| FkError::SystemError {
                detail: e.to_string(),
            })
        };
        let read = if fresh {
            self.cache.fetch_fresh(path, mrd, fetch)?
        } else {
            self.cache.get_or_fetch(path, mrd, self.timeout, fetch)?
        };
        if let Some(rec) = &read.record {
            self.stall_for_epoch(rec)?;
            self.shared
                .mrd
                .fetch_max(rec.modified_txid, Ordering::SeqCst);
            // Client-library bookkeeping: deserialization, sorting results,
            // watch checks (1.9–2.5 % of read time, §5.3.1).
            ctx.charge(CloudOp::ClientWork, rec.data.len());
            if let Some(recorder) = &self.shared.recorder {
                recorder.record(HEvent::ReadReturned {
                    session: self.shared.session_id.clone(),
                    path: rec.path.clone(),
                    modified_txid: rec.modified_txid,
                    epoch_marks: (*rec.epoch_marks).clone(),
                });
            }
        }
        Ok(read.record)
    }

    /// Z4 stall: if this version was written while notifications for one
    /// of *our* watches were in flight, wait until they are delivered.
    ///
    /// No MRD-based early-out here: the MRD can run *ahead* of this
    /// record's txid through channels that say nothing about its marks —
    /// a heartbeat-piggybacked committed floor, or a later write on an
    /// unrelated path — so `modified_txid < mrd` does not imply the
    /// marked notifications were delivered. The delivered-id check below
    /// is the only sound gate (and it is O(1) when the record carries no
    /// marks, which is the common case).
    fn stall_for_epoch(&self, record: &NodeRecord) -> FkResult<()> {
        self.stall_for_marks(&record.epoch_marks)
    }

    /// The mark-slice form of [`Self::stall_for_epoch`] — subtree scans
    /// run it per returned entry.
    fn stall_for_marks(&self, marks: &[u64]) -> FkResult<()> {
        if marks.is_empty() {
            return Ok(());
        }
        let mine = self.shared.my_watches.lock();
        let relevant: Vec<u64> = marks
            .iter()
            .copied()
            .filter(|id| mine.contains(id))
            .collect();
        drop(mine);
        if relevant.is_empty() {
            return Ok(());
        }
        let deadline = std::time::Instant::now() + self.timeout;
        let mut delivered = self.shared.delivered.lock();
        while !relevant.iter().all(|id| delivered.contains(id)) {
            let timeout = deadline.saturating_duration_since(std::time::Instant::now());
            if timeout.is_zero() {
                return Err(FkError::Timeout);
            }
            self.shared
                .delivered_cv
                .wait_for(&mut delivered, timeout.min(Duration::from_millis(50)));
        }
        Ok(())
    }

    /// Enumerates the subtree rooted at `root` with full Z3/Z4
    /// semantics: the shared regional replica is consulted first (its
    /// walk proves both freshness *and* completeness, see
    /// [`crate::replica::ReadReplica::serve_subtree`]); a miss falls
    /// through to one storage prefix scan. The private read cache is
    /// bypassed — it is per-path and cannot prove a subtree complete.
    /// Every returned entry runs the Z4 epoch stall and advances the
    /// MRD, exactly as if it had been point-read.
    fn scan_subtree_entries(&self, ctx: &Ctx, root: &str, fresh: bool) -> FkResult<Vec<ScanEntry>> {
        let mrd = self.shared.mrd.load(Ordering::SeqCst);
        let served: Option<Vec<ScanEntry>> = if fresh {
            // Watch-arming scans must postdate the registration, so they
            // bypass the replica tier just like fresh point reads.
            None
        } else {
            self.replica
                .as_ref()
                .and_then(|replica| replica.serve_subtree(ctx, root, mrd))
                .map(|records| {
                    records
                        .iter()
                        .map(|record| ScanEntry {
                            path: record.path.clone(),
                            data: record.data.clone(),
                            stat: record.stat(),
                            epoch_marks: Arc::clone(&record.epoch_marks),
                        })
                        .collect()
                })
        };
        let entries = match served {
            Some(entries) => entries,
            None => with_retry(
                ctx,
                &self.meter,
                &RetryPolicy::standard(),
                "client.scan_subtree",
                || self.user_store.scan_subtree(ctx, root),
            )
            .map_err(|e| FkError::SystemError {
                detail: e.to_string(),
            })?,
        };
        for entry in &entries {
            self.stall_for_marks(&entry.epoch_marks)?;
            self.shared
                .mrd
                .fetch_max(entry.stat.modified_txid, Ordering::SeqCst);
            ctx.charge(CloudOp::ClientWork, entry.data.len());
            if let Some(recorder) = &self.shared.recorder {
                recorder.record(HEvent::ReadReturned {
                    session: self.shared.session_id.clone(),
                    path: entry.path.clone(),
                    modified_txid: entry.stat.modified_txid,
                    epoch_marks: (*entry.epoch_marks).clone(),
                });
            }
        }
        Ok(entries)
    }

    fn register_watch(&self, ctx: &Ctx, path: &str, kind: WatchKind) -> FkResult<()> {
        // The fault point rolls before the registry update: a failed
        // attempt registered nothing, so a retry cannot double-arm.
        let id = with_retry(
            ctx,
            &self.meter,
            &RetryPolicy::standard(),
            "client.arm_watch",
            || {
                self.system
                    .register_watch(ctx, path, kind, &self.shared.session_id)
            },
        )
        .map_err(|e| FkError::SystemError {
            detail: e.to_string(),
        })?;
        self.shared.my_watches.lock().insert(id);
        Ok(())
    }
}

/// Fixed pool of read workers. Jobs are executed in submission order
/// per worker pick-up; independent reads overlap up to the pool width.
struct ReadPool {
    tx: Option<Sender<Box<dyn FnOnce() + Send>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ReadPool {
    fn new(workers: usize) -> Self {
        let (tx, rx) = unbounded::<Box<dyn FnOnce() + Send>>();
        let workers = (0..workers.max(1))
            .map(|_| {
                let rx: Receiver<Box<dyn FnOnce() + Send>> = rx.clone();
                std::thread::spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
            })
            .collect();
        ReadPool {
            tx: Some(tx),
            workers,
        }
    }

    fn execute(&self, job: Box<dyn FnOnce() + Send>) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(job);
        }
    }

    /// Stops accepting jobs and joins the workers (in-flight jobs run to
    /// completion).
    fn shutdown(&mut self) {
        self.tx = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A connected FaaSKeeper client session.
pub struct FkClient {
    core: Arc<ReadCore>,
    config: ClientConfig,
    ctx: Ctx,
    staging: ObjectStore,
    sender_tx: Sender<ClientRequest>,
    events_rx: Receiver<WatchEvent>,
    next_request: AtomicU64,
    /// Staging-object key counter (distinct from request ids so pipelined
    /// submissions never collide on a staging key).
    staging_seq: AtomicU64,
    pool: Mutex<ReadPool>,
    threads: Vec<std::thread::JoinHandle<()>>,
    bus: ClientBus,
    /// Heartbeat responsiveness flag (tests flip it to simulate death).
    responsive: Arc<AtomicBool>,
}

impl FkClient {
    /// Connects a new session: registers it in system storage and on the
    /// notification bus, then starts the background threads (request
    /// sender, response handler, read workers).
    #[allow(clippy::too_many_arguments)]
    pub fn connect(
        config: ClientConfig,
        ctx: Ctx,
        system: SystemStore,
        user_store: Arc<dyn UserStore>,
        staging: ObjectStore,
        write_queue: Queue,
        bus: ClientBus,
    ) -> FkResult<Self> {
        let now_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_millis() as i64;
        // Registration retries its legs internally — an outer retry would
        // replay the duplicate-session guard against its own first
        // attempt and misreport a transient fault as a duplicate.
        system
            .register_session(&ctx, &config.session_id, now_ms)
            .map_err(|e| FkError::SystemError {
                detail: e.to_string(),
            })?;
        let (notifications, responsive) = bus.register(&config.session_id);

        let mut cache = ReadCache::new(config.read_cache.unwrap_or_default());
        if let Some(meter) = &config.cache_meter {
            cache = cache.with_meter(meter.clone());
        }
        let cache = Arc::new(cache);

        let shared = Arc::new(Shared {
            session_id: config.session_id.clone(),
            pending: Mutex::new(PendingWrites::default()),
            my_watches: Mutex::new(HashSet::new()),
            delivered: Mutex::new(HashSet::new()),
            delivered_cv: Condvar::new(),
            mrd: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            recorder: config.recorder.clone(),
        });

        // Thread 1: request sender — preserves submission order into the
        // session's FIFO queue group (the write half of Z1's pipeline).
        // Pipelined submissions that pile up while a previous send is in
        // flight drain as one `SendMessageBatch` request (≤ 10 entries,
        // one round trip): billing stays per message, but the latency
        // amortizes and the queue still assigns consecutive sequence
        // numbers in submission order. An idle channel degenerates to the
        // old one-send-per-request behavior (the greedy drain finds
        // nothing to coalesce), so unpipelined callers are unchanged.
        let (sender_tx, sender_rx) = unbounded::<ClientRequest>();
        let send_shared = Arc::clone(&shared);
        let send_queue = write_queue.clone();
        let send_ctx = ctx.fork();
        let sender = std::thread::spawn(move || {
            const BATCH_LIMIT: usize = 10;
            while let Ok(first) = sender_rx.recv() {
                // Greedy drain: everything already queued behind `first`
                // (flushing on idle — never waiting for more).
                let mut requests = vec![first];
                while requests.len() < BATCH_LIMIT {
                    match sender_rx.try_recv() {
                        Ok(request) => requests.push(request),
                        Err(_) => break,
                    }
                }
                // All of this session's requests share its FIFO group.
                let session_id = requests[0].session_id.clone();
                let bodies: Vec<Bytes> = requests.iter().map(ClientRequest::encode).collect();
                // Transient send failures (throttling, injected faults)
                // are retried with backoff rather than failing the whole
                // pipeline on the first 503. Safe to repeat: the batch
                // lands whole or not at all (send_batch validates — and
                // rolls its fault point — before enqueuing anything), so
                // a failed attempt left no messages behind.
                let sent = with_retry(
                    &send_ctx,
                    send_queue.meter(),
                    &RetryPolicy::standard(),
                    "client.send_batch",
                    || send_queue.send_batch(&send_ctx, &session_id, bodies.clone()),
                );
                if let Err(e) = sent {
                    // Every member fails (all-or-nothing batch).
                    for request in &requests {
                        send_shared.deliver_write(
                            request.request_id,
                            Err(FkError::SystemError {
                                detail: e.to_string(),
                            }),
                        );
                    }
                }
            }
        });

        // Watch events flow to the application in arrival order. With a
        // single leader, arrival order equals txid order; with a
        // multi-leader tier, events for *unrelated* paths may interleave
        // across shard groups (per-path and per-session order still hold
        // — the Z4 stall works off the delivered-id set, not this
        // stream's global order), so no re-ordering stage exists between
        // the response handler and the application.
        let (events_tx, events_rx) = unbounded::<WatchEvent>();

        // Thread 2: response handler — feeds write results through the
        // pending-op table (which releases completions in submission
        // order), records delivered watches, maintains the MRD timestamp.
        let resp_shared = Arc::clone(&shared);
        let resp_cache = Arc::clone(&cache);
        let responder = std::thread::spawn(move || {
            while let Ok(notification) = notifications.recv() {
                match notification {
                    ClientNotification::WriteResult {
                        request_id,
                        result,
                        txid,
                    } => {
                        // Evict the written paths *before* the MRD bump:
                        // a racing reader either misses the entry or
                        // fails the watermark check — never both stale
                        // and valid. (The watermark rule alone already
                        // guarantees correctness; see `read_cache`.)
                        if let Ok(data) = &result {
                            for path in data.invalidates() {
                                resp_cache.invalidate(path);
                            }
                        }
                        if txid > 0 {
                            resp_shared.mrd.fetch_max(txid, Ordering::SeqCst);
                        }
                        resp_shared.deliver_write(request_id, result.map(|data| (data, txid)));
                    }
                    ClientNotification::Watch(event) => {
                        // The notification stream doubles as the cache
                        // maintenance stream. A children event that
                        // carries the full post-change list *patches* the
                        // resident entry in place (the delta names the
                        // complete new children set, so the entry stays
                        // servable without a refetch); every other event
                        // names exactly the path whose cached (or
                        // cached-absent) state it obsoletes.
                        match (&event.event_type, &event.children) {
                            (WatchEventType::NodeChildrenChanged, Some(children)) => {
                                resp_cache.apply_children(&event.path, children, event.txid);
                            }
                            // `SubtreeChanged` names only the watch root,
                            // not the changed descendant; invalidating the
                            // root plus the MRD bump below suffices — any
                            // cached descendant older than the event's
                            // txid now fails the watermark gate and falls
                            // through to storage on its next read.
                            _ => resp_cache.invalidate(&event.path),
                        }
                        // Record the delivery *before* unblocking stalled
                        // readers: marking the id delivered wakes reads
                        // waiting in `stall_for_epoch`, so the delivery
                        // must already precede them in the recorded
                        // history (Z4's linearization point).
                        if let Some(rec) = &resp_shared.recorder {
                            rec.record(HEvent::WatchDelivered {
                                session: resp_shared.session_id.clone(),
                                watch_id: event.watch_id,
                                txid: event.txid,
                            });
                        }
                        resp_shared.mrd.fetch_max(event.txid, Ordering::SeqCst);
                        resp_shared.delivered.lock().insert(event.watch_id);
                        resp_shared.delivered_cv.notify_all();
                        let _ = events_tx.send(event);
                    }
                    ClientNotification::Ping { committed, .. } => {
                        // Liveness is answered via the bus's responsive
                        // flag; the payload advances the MRD with the
                        // leaders' committed floor, so an *idle* session's
                        // cache and replica hits stay watermark-eligible.
                        // Sound because the floor only covers txids whose
                        // epochs finished distribution: anything the
                        // session later reads at or below it is already
                        // durable in every region.
                        if committed > 0 {
                            resp_shared.mrd.fetch_max(committed, Ordering::SeqCst);
                        }
                    }
                }
            }
        });

        let core = Arc::new(ReadCore {
            shared,
            system,
            user_store,
            cache,
            replica: config.replica.clone(),
            meter: staging.meter().clone(),
            timeout: config.timeout,
        });
        let pool = Mutex::new(ReadPool::new(config.read_workers));

        Ok(FkClient {
            core,
            config,
            ctx,
            staging,
            sender_tx,
            events_rx,
            next_request: AtomicU64::new(1),
            staging_seq: AtomicU64::new(1),
            pool,
            threads: vec![sender, responder],
            bus,
            responsive,
        })
    }

    /// The session id.
    pub fn session_id(&self) -> &str {
        &self.core.shared.session_id
    }

    /// Virtual time accumulated by this client's context.
    pub fn elapsed(&self) -> Duration {
        self.ctx.now()
    }

    /// The client's trace context.
    pub fn ctx(&self) -> &Ctx {
        &self.ctx
    }

    /// Stream of watch events, in delivery order.
    pub fn watch_events(&self) -> &Receiver<WatchEvent> {
        &self.events_rx
    }

    /// The heartbeat responsiveness flag (simulate client death by
    /// storing `false`).
    pub fn responsive_flag(&self) -> &Arc<AtomicBool> {
        &self.responsive
    }

    /// Most-recent-data timestamp observed so far.
    pub fn mrd(&self) -> u64 {
        self.core.shared.mrd.load(Ordering::SeqCst)
    }

    /// Watch instance ids this client registered (for Z4 validation).
    pub fn my_watch_ids(&self) -> HashSet<u64> {
        self.core.shared.my_watches.lock().clone()
    }

    /// Read-cache counters (hits, misses, coalesced round trips).
    pub fn cache_stats(&self) -> CacheStats {
        self.core.cache.stats()
    }

    /// The client's read cache.
    pub fn read_cache(&self) -> &Arc<ReadCache> {
        &self.core.cache
    }

    /// Number of writes currently in flight (submitted, not completed).
    pub fn in_flight(&self) -> usize {
        self.core.shared.pending.lock().len()
    }

    /// How many write results *arrived* ahead of an uncompleted
    /// predecessor and were re-ordered by the pending-op table. Non-zero
    /// values are expected under a multi-leader tier; the completions a
    /// caller observes are in submission order regardless.
    pub fn reordered_results(&self) -> u64 {
        self.core.shared.pending.lock().reordered()
    }

    // ------------------------------------------------------------------
    // Write path (pipelined submission)
    // ------------------------------------------------------------------

    fn make_payload(&self, data: &[u8]) -> FkResult<Payload> {
        self.ctx.charge(CloudOp::ClientWork, data.len());
        // The binary queue frame carries raw bytes, so the staging
        // threshold compares the payload's actual length. Staged
        // payloads never materialize an inline copy.
        if data.len() > self.config.stage_threshold {
            let key = format!(
                "staging/{}/{}",
                self.core.shared.session_id,
                self.staging_seq.fetch_add(1, Ordering::SeqCst)
            );
            // A staged PUT is a whole-object replace to a fresh key:
            // repeating it after a transient failure is idempotent.
            let payload = Bytes::from(data.to_vec());
            with_retry(
                &self.ctx,
                self.staging.meter(),
                &RetryPolicy::standard(),
                "client.stage_put",
                || self.staging.put(&self.ctx, &key, payload.clone()),
            )
            .map_err(|e| FkError::SystemError {
                detail: e.to_string(),
            })?;
            Ok(Payload::Staged {
                key,
                len: data.len(),
            })
        } else {
            Ok(Payload::inline(data))
        }
    }

    /// Submits one write to the session pipeline: registers it in the
    /// pending-op table (which will release its completion in submission
    /// order) and hands it to the sender thread. `map` shapes the raw
    /// `(result, txid)` into the typed handle value.
    ///
    /// Id allocation, the table push and the channel send happen under
    /// **one lock**: `FkClient` is `&self`-shared across threads, and an
    /// interleaving where thread B's later-allocated id reaches the
    /// sender channel before thread A's earlier one would make wire
    /// order diverge from pending-table order — the server would then
    /// assign txids against one order while completions release in the
    /// other, breaking the txid-monotone Z1 contract.
    fn submit_write<T, F>(&self, op: WriteOp, map: F) -> FkResult<OpHandle<T>>
    where
        T: Clone + Send + Sync + 'static,
        F: FnOnce(WriteResultData, u64) -> T + Send + 'static,
    {
        if self.core.shared.closed.load(Ordering::SeqCst) {
            return Err(FkError::SessionExpired);
        }
        let (handle, completer) = ops::handle_pair(self.config.timeout);
        let send_failed = {
            let mut pending = self.core.shared.pending.lock();
            let request_id = self.next_request.fetch_add(1, Ordering::SeqCst);
            pending.push(
                request_id,
                Box::new(move |raw: RawWrite| {
                    completer.complete(raw.map(|(data, txid)| map(data, txid)));
                }),
            );
            let request = ClientRequest {
                session_id: self.core.shared.session_id.clone(),
                request_id,
                op,
            };
            if let Some(rec) = &self.core.shared.recorder {
                rec.record(HEvent::WriteSubmitted {
                    session: self.core.shared.session_id.clone(),
                    request_id,
                    path: request.op.path().to_owned(),
                });
            }
            // Non-blocking (unbounded channel), so holding the table
            // lock across it is cheap and gives wire order = table order.
            self.sender_tx.send(request).is_err().then_some(request_id)
        };
        if let Some(request_id) = send_failed {
            self.core
                .shared
                .deliver_write(request_id, Err(FkError::SessionExpired));
        }
        Ok(handle)
    }

    /// Submits a create; the handle resolves to the final path
    /// (sequential creates return the generated name).
    pub fn submit_create(
        &self,
        path: &str,
        data: &[u8],
        mode: CreateMode,
    ) -> FkResult<OpHandle<String>> {
        zkpath::validate(path)?;
        let payload = self.make_payload(data)?;
        self.submit_write(
            WriteOp::Create {
                path: path.to_owned(),
                payload,
                mode,
            },
            |result, _| result.path,
        )
    }

    /// Submits a data replacement; `expected_version = -1` is
    /// unconditional. The handle resolves to the post-write stat.
    pub fn submit_set_data(
        &self,
        path: &str,
        data: &[u8],
        expected_version: i32,
    ) -> FkResult<OpHandle<Stat>> {
        zkpath::validate(path)?;
        let payload = self.make_payload(data)?;
        self.submit_write(
            WriteOp::SetData {
                path: path.to_owned(),
                payload,
                expected_version,
            },
            |result, _| result.stat,
        )
    }

    /// Submits a delete; `expected_version = -1` is unconditional.
    pub fn submit_delete(&self, path: &str, expected_version: i32) -> FkResult<OpHandle<()>> {
        zkpath::validate(path)?;
        self.submit_write(
            WriteOp::Delete {
                path: path.to_owned(),
                expected_version,
            },
            |_, _| (),
        )
    }

    /// Submits a ZooKeeper-style `multi`: every op commits under one
    /// transaction id or none does. The handle resolves to per-op
    /// results in op order; a failed multi resolves to
    /// [`FkError::MultiFailed`] naming the failing index (expand it with
    /// [`crate::ops::multi_error_results`] for the ZooKeeper-shaped
    /// per-op error vector).
    pub fn submit_multi(&self, ops: Vec<Op>) -> FkResult<OpHandle<Vec<OpResult>>> {
        if ops.is_empty() {
            return Ok(ops::ready(Ok(Vec::new())));
        }
        let mut wire = Vec::with_capacity(ops.len());
        for op in &ops {
            zkpath::validate(op.path())?;
        }
        for op in ops {
            wire.push(match op {
                Op::Create { path, data, mode } => MultiOp::Create {
                    path,
                    payload: self.make_payload(&data)?,
                    mode,
                },
                Op::SetData {
                    path,
                    data,
                    expected_version,
                } => MultiOp::SetData {
                    path,
                    payload: self.make_payload(&data)?,
                    expected_version,
                },
                Op::Delete {
                    path,
                    expected_version,
                } => MultiOp::Delete {
                    path,
                    expected_version,
                },
                Op::Check {
                    path,
                    expected_version,
                } => MultiOp::Check {
                    path,
                    expected_version,
                },
            });
        }
        self.submit_write(WriteOp::Multi { ops: wire }, |result, _| {
            result
                .op_results
                .into_iter()
                .map(ops::outcome_to_result)
                .collect()
        })
    }

    /// Creates a node; returns the final path (sequential creates return
    /// the generated name). Blocking wrapper over [`Self::submit_create`].
    pub fn create(&self, path: &str, data: &[u8], mode: CreateMode) -> FkResult<String> {
        self.submit_create(path, data, mode)?.wait()
    }

    /// Replaces a node's data; `expected_version = -1` is unconditional.
    /// Blocking wrapper over [`Self::submit_set_data`].
    pub fn set_data(&self, path: &str, data: &[u8], expected_version: i32) -> FkResult<Stat> {
        self.submit_set_data(path, data, expected_version)?.wait()
    }

    /// Deletes a node; `expected_version = -1` is unconditional.
    /// Blocking wrapper over [`Self::submit_delete`].
    pub fn delete(&self, path: &str, expected_version: i32) -> FkResult<()> {
        self.submit_delete(path, expected_version)?.wait()
    }

    /// Executes a `multi` transaction and waits for its per-op results.
    /// Blocking wrapper over [`Self::submit_multi`].
    pub fn multi(&self, ops: Vec<Op>) -> FkResult<Vec<OpResult>> {
        self.submit_multi(ops)?.wait()
    }

    // ------------------------------------------------------------------
    // Read path (direct storage access, off-thread)
    // ------------------------------------------------------------------

    /// Runs a read closure on the worker pool, on a virtual-time fork of
    /// the client context. The fork is stored in the handle; blocking
    /// wrappers join it back so sequential callers observe the same
    /// virtual latency as the pre-handle API.
    fn submit_read<T, F>(&self, run: F) -> OpHandle<T>
    where
        T: Clone + Send + Sync + 'static,
        F: FnOnce(&Ctx) -> FkResult<T> + Send + 'static,
    {
        let (handle, completer) = ops::handle_pair(self.config.timeout);
        let fork = self.ctx.fork();
        self.pool.lock().execute(Box::new(move || {
            let result = run(&fork);
            completer.complete_on(fork, result);
        }));
        handle
    }

    /// Waits on a read handle and merges its virtual-time fork into the
    /// client clock (the blocking-wrapper contract).
    fn wait_read<T: Clone>(&self, handle: OpHandle<T>) -> FkResult<T> {
        let result = handle.wait();
        if let Some(fork) = handle.take_fork() {
            self.ctx.join(std::slice::from_ref(&fork));
        }
        result
    }

    /// Submits a data read, optionally registering a data watch. Reads
    /// may overtake in-flight writes (Z3 permits it); the worker still
    /// runs the Z4 epoch stall and the MRD watermark rule.
    pub fn submit_get_data(&self, path: &str, watch: bool) -> FkResult<OpHandle<(Bytes, Stat)>> {
        zkpath::validate(path)?;
        let core = Arc::clone(&self.core);
        let path = path.to_owned();
        Ok(self.submit_read(move |ctx| {
            if watch {
                core.register_watch(ctx, &path, WatchKind::Data)?;
            }
            match core.read_record(ctx, &path, watch)? {
                Some(rec) => Ok((rec.data.clone(), rec.stat())),
                None => Err(FkError::NoNode),
            }
        }))
    }

    /// Submits an existence check, optionally registering an exists
    /// watch (which fires on later creation).
    pub fn submit_exists(&self, path: &str, watch: bool) -> FkResult<OpHandle<Option<Stat>>> {
        zkpath::validate(path)?;
        let core = Arc::clone(&self.core);
        let path = path.to_owned();
        Ok(self.submit_read(move |ctx| {
            if watch {
                core.register_watch(ctx, &path, WatchKind::Exists)?;
            }
            Ok(core.read_record(ctx, &path, watch)?.map(|rec| rec.stat()))
        }))
    }

    /// Submits a children listing, optionally registering a child watch.
    /// Served from the parent's metadata — no scan (§4.2).
    pub fn submit_get_children(&self, path: &str, watch: bool) -> FkResult<OpHandle<Vec<String>>> {
        zkpath::validate(path)?;
        let core = Arc::clone(&self.core);
        let path = path.to_owned();
        Ok(self.submit_read(move |ctx| {
            if watch {
                core.register_watch(ctx, &path, WatchKind::Children)?;
            }
            match core.read_record(ctx, &path, watch)? {
                Some(rec) => {
                    // The record's list is shared with the cache; sorting
                    // works on the caller's own copy.
                    let mut children = (*rec.children).clone();
                    children.sort();
                    Ok(children)
                }
                None => Err(FkError::NoNode),
            }
        }))
    }

    /// Submits a whole-subtree enumeration: the root node (if present)
    /// and every descendant, sorted by path, as [`ScanEntry`] summaries.
    /// One storage prefix scan (or one replica walk) instead of 1 + N
    /// point reads — the read path stays function-free even for bulk
    /// access. With `watch`, registers a one-shot subtree watch
    /// ([`WatchKind::Subtree`]) that fires on any later change in the
    /// subtree; the arming scan is fresh (bypasses the replica tier).
    pub fn submit_get_subtree(
        &self,
        path: &str,
        watch: bool,
    ) -> FkResult<OpHandle<Vec<ScanEntry>>> {
        zkpath::validate(path)?;
        let core = Arc::clone(&self.core);
        let path = path.to_owned();
        Ok(self.submit_read(move |ctx| {
            if watch {
                core.register_watch(ctx, &path, WatchKind::Subtree)?;
            }
            core.scan_subtree_entries(ctx, &path, watch)
        }))
    }

    /// Submits a children listing that also returns each child's data
    /// and `Stat` — one scan request instead of `get_children` plus one
    /// point read per child. Errors with [`FkError::NoNode`] when `path`
    /// itself is absent. With `watch`, registers a child watch exactly
    /// like [`Self::submit_get_children`].
    pub fn submit_get_children_with_data(
        &self,
        path: &str,
        watch: bool,
    ) -> FkResult<OpHandle<Vec<ScanEntry>>> {
        zkpath::validate(path)?;
        let core = Arc::clone(&self.core);
        let path = path.to_owned();
        Ok(self.submit_read(move |ctx| {
            if watch {
                core.register_watch(ctx, &path, WatchKind::Children)?;
            }
            let entries = core.scan_subtree_entries(ctx, &path, watch)?;
            if entries.first().map(|e| e.path != path).unwrap_or(true) {
                return Err(FkError::NoNode);
            }
            let depth = |p: &str| p.bytes().filter(|b| *b == b'/').count();
            let child_depth = if path == "/" { 1 } else { depth(&path) + 1 };
            Ok(entries
                .into_iter()
                .skip(1)
                .filter(|e| depth(&e.path) == child_depth)
                .collect())
        }))
    }

    /// Reads a node's data, optionally registering a data watch.
    /// Blocking wrapper over [`Self::submit_get_data`].
    pub fn get_data(&self, path: &str, watch: bool) -> FkResult<(Bytes, Stat)> {
        let handle = self.submit_get_data(path, watch)?;
        self.wait_read(handle)
    }

    /// Checks node existence, optionally registering an exists watch.
    /// Blocking wrapper over [`Self::submit_exists`].
    pub fn exists(&self, path: &str, watch: bool) -> FkResult<Option<Stat>> {
        let handle = self.submit_exists(path, watch)?;
        self.wait_read(handle)
    }

    /// Lists a node's children, optionally registering a child watch.
    /// Blocking wrapper over [`Self::submit_get_children`].
    pub fn get_children(&self, path: &str, watch: bool) -> FkResult<Vec<String>> {
        let handle = self.submit_get_children(path, watch)?;
        self.wait_read(handle)
    }

    /// Enumerates a whole subtree, optionally registering a subtree
    /// watch. Blocking wrapper over [`Self::submit_get_subtree`].
    pub fn get_subtree(&self, path: &str, watch: bool) -> FkResult<Vec<ScanEntry>> {
        let handle = self.submit_get_subtree(path, watch)?;
        self.wait_read(handle)
    }

    /// Lists children with their data and stats, optionally registering
    /// a child watch. Blocking wrapper over
    /// [`Self::submit_get_children_with_data`].
    pub fn get_children_with_data(&self, path: &str, watch: bool) -> FkResult<Vec<ScanEntry>> {
        let handle = self.submit_get_children_with_data(path, watch)?;
        self.wait_read(handle)
    }

    /// Closes the session: ephemeral nodes are deleted through the
    /// ordered write path, then the session is deregistered. Pending
    /// pipelined writes complete first (CloseSession sequences after
    /// them in the FIFO queue); outstanding handles that never received
    /// a result fail with `SessionExpired`.
    pub fn close(mut self) -> FkResult<()> {
        let result = self
            .submit_write(WriteOp::CloseSession, |_, _| ())
            .and_then(|handle| handle.wait());
        self.core.shared.closed.store(true, Ordering::SeqCst);
        self.bus.deregister(&self.core.shared.session_id);
        // Dropping the sender ends thread 1; deregistering ends thread 2.
        let (sender_tx, _) = unbounded();
        drop(std::mem::replace(&mut self.sender_tx, sender_tx));
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        self.pool.lock().shutdown();
        // Fail whatever is still in flight, in submission order.
        let stragglers = self
            .core
            .shared
            .pending
            .lock()
            .drain(FkError::SessionExpired);
        for (_, completer, result) in stragglers {
            completer(result);
        }
        result
    }
}

impl Drop for FkClient {
    fn drop(&mut self) {
        self.core.shared.closed.store(true, Ordering::SeqCst);
        self.bus.deregister(&self.core.shared.session_id);
    }
}
