//! Client-side read cache: watermark-validated, single-flight, bounded.
//!
//! FaaSKeeper reads go straight to cloud storage (§3.5) — cheap per the
//! cost model (`Cost_R = R_S3(s)`, §5.3.4) but latency-bound at the
//! 10–20 ms storage round trip the paper identifies as the dominant read
//! term (§5.3.1). ZooKeeper hides that behind server-side in-memory
//! state; a serverless design has no server, so the hiding must happen
//! *client-side*. This module keeps deserialized [`NodeRecord`]s keyed
//! by path and serves repeated reads from memory, turning the hot part
//! of a read-heavy workload into client work.
//!
//! # Why a hit is safe (the watermark argument for Z3/Z4)
//!
//! Every cache entry carries a **watermark**: the maximum of the cached
//! record's own modification txid (`mzxid`) and the client's MRD
//! (most-recent-data) timestamp at the moment the storage fetch was
//! issued. A hit is served **only if the entry's watermark is ≥ the
//! client's current MRD**. The argument:
//!
//! * The leader distributes an epoch's writes to the user stores
//!   *before* it notifies clients or dispatches watch deliveries
//!   (Algorithm 2 ➌ precedes ➍), and processes transactions in txid
//!   order. So when a client's MRD reaches `M` — via a write result or
//!   a watch event — every transaction with txid ≤ `M` is already
//!   durable in the user store.
//! * Hence a strongly consistent read issued while MRD = `M` returns a
//!   version of the node reflecting *at least* every transaction ≤ `M`
//!   that touched it, and the fetched entry may take `max(mzxid, M)` as
//!   its watermark.
//! * A later hit with watermark ≥ current MRD therefore returns exactly
//!   what some legal storage read could return: the client has observed
//!   nothing newer than the entry's validity point. **Z3** (per-path
//!   monotonic reads) holds because a path's entry is only ever replaced
//!   by a fresh strong read, which cannot regress; and any event that
//!   could reveal newer data (own write result, watch delivery, a read
//!   of a newer record elsewhere) advances MRD past the watermark and
//!   forces a refetch.
//! * **Z4** (ordered notifications) holds because the epoch-mark stall
//!   is re-run by the *caller* on every serve — hit or miss — against
//!   the cached record's fetch-time marks: a record written while one
//!   of this client's watch notifications was in flight keeps stalling
//!   until the delivery lands, exactly as the uncached path does. Marks
//!   attached to versions written *after* the fetch can only cover
//!   *newer* versions of the node, which a hit (by the watermark rule)
//!   never exposes.
//!
//! The same rule makes the cache a **session-causal** layer: it
//! preserves read-your-writes and cross-path monotonicity relative to
//! everything the session has observed, which is strictly stronger than
//! the staleness ZooKeeper (and the paper's direct-to-storage read path)
//! already permits for data another session wrote.
//!
//! # Single-flight coalescing
//!
//! N concurrent reads of the same cold path issue **one** storage round
//! trip: the first caller becomes the flight leader, later callers wait
//! on the flight and share its result. A waiter re-validates the shared
//! result against its *own* MRD (the flight may have been issued before
//! this waiter observed a newer transaction) and falls back to a fresh
//! fetch when the shared result is too old — without that check,
//! coalescing could serve a thread a version older than one it already
//! observed, violating Z3.
//!
//! # Negative caching
//!
//! A read that confirms a path absent always inserts an *absent* entry
//! (same watermark rule), so `exists`-polling workloads stop paying a
//! round trip per poll. The entry is invalidated like any other: by the
//! watermark rule on MRD advance, or eagerly when a `NodeCreated` watch
//! event or an own write names the path.
//!
//! Eager invalidation rides the notification stream the client already
//! consumes: the response-handler thread evicts the named path on every
//! own-write result and watch event. This is an optimization only —
//! correctness rests entirely on the watermark rule, since both kinds of
//! notification advance MRD past every stale watermark.

use crate::api::{FkError, FkResult};
use crate::user_store::NodeRecord;
use fk_cloud::metering::Meter;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of the client read cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCacheConfig {
    /// Maximum number of cached paths (positive + negative entries).
    /// `0` disables the cache entirely — the client behaves byte-for-byte
    /// like the uncached read path (no coalescing either).
    pub capacity: usize,
}

impl ReadCacheConfig {
    /// A disabled (passthrough) cache.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled cache bounded to `capacity` paths.
    pub fn with_capacity(capacity: usize) -> Self {
        ReadCacheConfig { capacity }
    }

    /// True if the cache is active.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }
}

/// How a read was served (for metering and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSource {
    /// Served from a valid cache entry; no storage round trip.
    Hit,
    /// Fetched from storage by this caller.
    Fetched,
    /// Shared the storage round trip of a concurrent flight leader.
    Coalesced,
}

/// Result of a cached read: the record (`None` = confirmed absent) and
/// how it was obtained.
#[derive(Debug, Clone)]
pub struct CachedRead {
    /// The node record, shared with the cache; `None` if absent.
    pub record: Option<Arc<NodeRecord>>,
    /// Serve path taken.
    pub source: ReadSource,
}

/// Monotonic counters describing cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served from a valid entry.
    pub hits: u64,
    /// Reads that paid a storage round trip.
    pub misses: u64,
    /// Reads that shared a concurrent flight's round trip.
    pub coalesced: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
    /// Entries dropped by eager (notification-driven) invalidation.
    pub invalidations: u64,
    /// Resident entries patched in place by a children delta instead of
    /// being invalidated ([`ReadCache::apply_children`]).
    pub patched: u64,
}

impl CacheStats {
    /// Hit ratio over all serves (hits + coalesced count as avoided
    /// round trips).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced;
        if total == 0 {
            return 0.0;
        }
        (self.hits + self.coalesced) as f64 / total as f64
    }
}

/// A cached state of one path.
enum Entry {
    /// The node exists; shared, deserialized record.
    Present(Arc<NodeRecord>),
    /// The node was confirmed absent.
    Absent,
}

struct Slot {
    entry: Entry,
    /// Validity point: `max(record mzxid, MRD at fetch issue)`.
    watermark: u64,
    /// LRU stamp (key into `Lru::order`).
    stamp: u64,
}

/// Bounded LRU keyed by path. Stamps are globally unique, so `order`
/// maps each stamp to exactly one path; the smallest stamp is the
/// least-recently-used entry.
struct Lru {
    capacity: usize,
    next_stamp: u64,
    map: HashMap<String, Slot>,
    order: BTreeMap<u64, String>,
}

impl Lru {
    fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            next_stamp: 0,
            map: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    fn bump(&mut self) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        stamp
    }

    /// Valid entry for `path` at `mrd`, refreshing recency. A stale
    /// entry (watermark < mrd) is dropped on sight.
    fn lookup(&mut self, path: &str, mrd: u64) -> Option<Option<Arc<NodeRecord>>> {
        let stamp = self.bump();
        let slot = self.map.get_mut(path)?;
        if slot.watermark < mrd {
            let old = self.map.remove(path).expect("slot just found");
            self.order.remove(&old.stamp);
            return None;
        }
        self.order.remove(&slot.stamp);
        slot.stamp = stamp;
        self.order.insert(stamp, path.to_owned());
        Some(match &slot.entry {
            Entry::Present(record) => Some(Arc::clone(record)),
            Entry::Absent => None,
        })
    }

    /// Inserts (or replaces) an entry; returns the number of evictions
    /// performed to honour the capacity bound.
    fn insert(&mut self, path: &str, entry: Entry, watermark: u64) -> u64 {
        let stamp = self.bump();
        if let Some(old) = self.map.remove(path) {
            self.order.remove(&old.stamp);
        }
        self.map.insert(
            path.to_owned(),
            Slot {
                entry,
                watermark,
                stamp,
            },
        );
        self.order.insert(stamp, path.to_owned());
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            let (&oldest, _) = self.order.iter().next().expect("order tracks map");
            let victim = self.order.remove(&oldest).expect("stamp present");
            self.map.remove(&victim);
            evicted += 1;
        }
        evicted
    }

    fn invalidate(&mut self, path: &str) -> bool {
        match self.map.remove(path) {
            Some(slot) => {
                self.order.remove(&slot.stamp);
                true
            }
            None => false,
        }
    }
}

/// What a flight leader shares with its waiters: the (possibly absent)
/// record and the watermark it was fetched at.
type FlightResult = FkResult<(Option<Arc<NodeRecord>>, u64)>;

/// An in-progress storage fetch shared by concurrent readers of one
/// path. The leader publishes `(record, watermark)` (or the error) and
/// wakes all waiters.
struct Flight {
    slot: Mutex<Option<FlightResult>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, result: FlightResult) {
        *self.slot.lock() = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self, timeout: Duration) -> FlightResult {
        let deadline = std::time::Instant::now() + timeout;
        let mut slot = self.slot.lock();
        while slot.is_none() {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(FkError::Timeout);
            }
            self.cv.wait_for(&mut slot, remaining);
        }
        slot.as_ref().expect("published").clone()
    }
}

/// The client read cache (one per session; see module docs).
pub struct ReadCache {
    config: ReadCacheConfig,
    lru: Mutex<Lru>,
    flights: Mutex<HashMap<String, Arc<Flight>>>,
    meter: Option<Meter>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    patched: AtomicU64,
}

impl ReadCache {
    /// Creates a cache with the given bounds.
    pub fn new(config: ReadCacheConfig) -> Self {
        ReadCache {
            lru: Mutex::new(Lru::new(config.capacity)),
            flights: Mutex::new(HashMap::new()),
            config,
            meter: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            patched: AtomicU64::new(0),
        }
    }

    /// Builder: report hits/misses to a usage meter (so deployments can
    /// observe hit ratios next to the storage round trips they avoid).
    pub fn with_meter(mut self, meter: Meter) -> Self {
        self.meter = Some(meter);
        self
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ReadCacheConfig {
        &self.config
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            patched: self.patched.load(Ordering::Relaxed),
        }
    }

    /// Number of cached paths.
    pub fn len(&self) -> usize {
        self.lru.lock().map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Eagerly drops `path` (notification-driven invalidation).
    pub fn invalidate(&self, path: &str) {
        if !self.config.enabled() {
            return;
        }
        if self.lru.lock().invalidate(path) {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Applies the full children list a `NodeChildrenChanged` watch
    /// payload carries to a resident `path` entry *in place*, instead of
    /// invalidating the whole record — a hot directory stays cached
    /// across a create storm. Falls back to [`Self::invalidate`] when
    /// the entry is absent, negative, or already lists newer children.
    ///
    /// Soundness mirrors the watermark rule: the list is absolute (the
    /// list the leader stored at `txid`, exactly the children committed
    /// by then, so applying it is idempotent and monotone by
    /// `children_txid`), and the patched entry's watermark rises to
    /// `max(watermark, txid)` — the entry is now exactly what a storage
    /// read at `txid`-freshness would return *for the children view*.
    /// The data view keeps its old bytes, which is the same answer an
    /// un-invalidated entry would have served anyway: a children change
    /// never rewrites the parent's data, so no session can have observed
    /// newer parent data through it (a data write would fire its own
    /// watch and advance MRD past this entry's watermark).
    pub fn apply_children(&self, path: &str, children: &[String], txid: u64) {
        if !self.config.enabled() {
            return;
        }
        let mut lru = self.lru.lock();
        let Some(slot) = lru.map.get_mut(path) else {
            return;
        };
        let Entry::Present(record) = &slot.entry else {
            drop(lru);
            self.invalidate(path);
            return;
        };
        if record.children_txid >= txid {
            return;
        }
        let mut patched = (**record).clone();
        patched.children = Arc::new(children.to_vec());
        patched.children_txid = txid;
        patched.modified_txid = patched.modified_txid.max(txid);
        slot.entry = Entry::Present(Arc::new(patched));
        slot.watermark = slot.watermark.max(txid);
        self.patched.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops every entry.
    pub fn clear(&self) {
        let mut lru = self.lru.lock();
        lru.map.clear();
        lru.order.clear();
    }

    fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(meter) = &self.meter {
            meter.cache_hit();
        }
    }

    fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(meter) = &self.meter {
            meter.cache_miss();
        }
    }

    fn note_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
        if let Some(meter) = &self.meter {
            meter.cache_coalesced();
        }
    }

    /// Serves a read of `path` for a client whose MRD is `mrd`.
    ///
    /// `fetch` performs the actual storage read; it runs at most once
    /// per call, and not at all on a hit or when a concurrent flight's
    /// result is shareable. With capacity 0 this is an exact
    /// passthrough: `fetch` runs unconditionally and nothing is cached
    /// or coalesced.
    pub fn get_or_fetch<F>(
        &self,
        path: &str,
        mrd: u64,
        timeout: Duration,
        fetch: F,
    ) -> FkResult<CachedRead>
    where
        F: FnOnce() -> FkResult<Option<NodeRecord>>,
    {
        if !self.config.enabled() {
            return Ok(CachedRead {
                record: fetch()?.map(Arc::new),
                source: ReadSource::Fetched,
            });
        }
        let mut fetch = Some(fetch);
        // One deadline for the whole call: a waiter that rejects a stale
        // shared result and loops must not restart the clock — k stale
        // flights in a row still bound the read by `timeout` total.
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(entry) = self.lru.lock().lookup(path, mrd) {
                self.note_hit();
                return Ok(CachedRead {
                    record: entry,
                    source: ReadSource::Hit,
                });
            }
            enum Role {
                Leader(Arc<Flight>),
                Waiter(Arc<Flight>),
            }
            let role = {
                let mut flights = self.flights.lock();
                match flights.get(path) {
                    Some(flight) => Role::Waiter(Arc::clone(flight)),
                    None => {
                        let flight = Arc::new(Flight::new());
                        flights.insert(path.to_owned(), Arc::clone(&flight));
                        Role::Leader(flight)
                    }
                }
            };
            match role {
                Role::Leader(flight) => {
                    let result = self.lead_fetch(
                        path,
                        mrd,
                        fetch.take().expect("leader fetches at most once"),
                    );
                    flight.publish(result.clone());
                    self.flights.lock().remove(path);
                    let (record, _) = result?;
                    self.note_miss();
                    return Ok(CachedRead {
                        record,
                        source: ReadSource::Fetched,
                    });
                }
                Role::Waiter(flight) => {
                    let remaining = deadline.saturating_duration_since(std::time::Instant::now());
                    let (record, watermark) = flight.wait(remaining)?;
                    // The flight may predate a transaction this caller
                    // has already observed; sharing its result then
                    // could serve data older than something this thread
                    // has seen (a Z3 regression). Re-validate against
                    // *our* MRD and fall back to a fresh fetch if the
                    // shared result is too old.
                    if watermark >= mrd {
                        self.note_coalesced();
                        return Ok(CachedRead {
                            record,
                            source: ReadSource::Coalesced,
                        });
                    }
                }
            }
        }
    }

    /// Reads `path` fresh from storage, bypassing both the cache entry
    /// and any in-progress flight, and refreshes the entry with the
    /// result. This is the read half of a **watch-arming** call: a watch
    /// registration is a promise to report every change *after the
    /// version this read returned*, so the read must postdate the
    /// registration — a cache hit (or a coalesced pre-registration
    /// flight) could serve a version older than the registration point,
    /// and the change in between would neither be returned nor ever
    /// fire the watch.
    pub fn fetch_fresh<F>(&self, path: &str, mrd: u64, fetch: F) -> FkResult<CachedRead>
    where
        F: FnOnce() -> FkResult<Option<NodeRecord>>,
    {
        if !self.config.enabled() {
            return Ok(CachedRead {
                record: fetch()?.map(Arc::new),
                source: ReadSource::Fetched,
            });
        }
        let (record, _) = self.lead_fetch(path, mrd, fetch)?;
        self.note_miss();
        Ok(CachedRead {
            record,
            source: ReadSource::Fetched,
        })
    }

    /// Leader half of a flight: fetch, stamp the watermark, cache.
    fn lead_fetch<F>(&self, path: &str, mrd: u64, fetch: F) -> FlightResult
    where
        F: FnOnce() -> FkResult<Option<NodeRecord>>,
    {
        let fetched = fetch()?;
        let record = fetched.map(Arc::new);
        // See module docs: a strong read issued at MRD = mrd reflects at
        // least every transaction ≤ mrd, so the entry stays valid until
        // the client observes something newer.
        let watermark = record
            .as_ref()
            .map(|r| r.modified_txid.max(mrd))
            .unwrap_or(mrd);
        let entry = match &record {
            Some(rec) => Entry::Present(Arc::clone(rec)),
            None => Entry::Absent,
        };
        let evicted = self.lru.lock().insert(path, entry, watermark);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        Ok((record, watermark))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::sync::atomic::AtomicUsize;

    fn record(path: &str, mxid: u64) -> NodeRecord {
        NodeRecord {
            path: path.to_owned(),
            data: Bytes::from(vec![1u8; 8]),
            created_txid: 1,
            modified_txid: mxid,
            version: 1,
            children: std::sync::Arc::new(vec![]),
            children_txid: 0,
            ephemeral_owner: None,
            epoch_marks: std::sync::Arc::new(vec![]),
        }
    }

    fn fetch_counted<'a>(
        counter: &'a AtomicUsize,
        result: Option<NodeRecord>,
    ) -> impl FnOnce() -> FkResult<Option<NodeRecord>> + 'a {
        move || {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(result)
        }
    }

    const T: Duration = Duration::from_secs(5);

    #[test]
    fn hit_after_fetch_skips_storage() {
        let cache = ReadCache::new(ReadCacheConfig::with_capacity(4));
        let fetches = AtomicUsize::new(0);
        let first = cache
            .get_or_fetch("/n", 5, T, fetch_counted(&fetches, Some(record("/n", 3))))
            .unwrap();
        assert_eq!(first.source, ReadSource::Fetched);
        let second = cache
            .get_or_fetch("/n", 5, T, fetch_counted(&fetches, None))
            .unwrap();
        assert_eq!(second.source, ReadSource::Hit);
        assert_eq!(second.record.unwrap().modified_txid, 3);
        assert_eq!(fetches.load(Ordering::SeqCst), 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn mrd_advance_invalidates_entry() {
        let cache = ReadCache::new(ReadCacheConfig::with_capacity(4));
        let fetches = AtomicUsize::new(0);
        // Fetched at MRD 5, record mxid 3 → watermark 5.
        cache
            .get_or_fetch("/n", 5, T, fetch_counted(&fetches, Some(record("/n", 3))))
            .unwrap();
        // Client observes txid 9 → the entry is stale and refetched.
        let read = cache
            .get_or_fetch("/n", 9, T, fetch_counted(&fetches, Some(record("/n", 9))))
            .unwrap();
        assert_eq!(read.source, ReadSource::Fetched);
        assert_eq!(fetches.load(Ordering::SeqCst), 2);
        // The refreshed entry is valid at the new MRD.
        let hit = cache
            .get_or_fetch("/n", 9, T, fetch_counted(&fetches, None))
            .unwrap();
        assert_eq!(hit.source, ReadSource::Hit);
    }

    #[test]
    fn record_watermark_can_outlive_fetch_mrd() {
        let cache = ReadCache::new(ReadCacheConfig::with_capacity(4));
        let fetches = AtomicUsize::new(0);
        // Record mxid 20 read at MRD 5 → watermark 20: still valid after
        // the client's MRD catches up to 20 (e.g. by observing this very
        // record).
        cache
            .get_or_fetch("/n", 5, T, fetch_counted(&fetches, Some(record("/n", 20))))
            .unwrap();
        let hit = cache
            .get_or_fetch("/n", 20, T, fetch_counted(&fetches, None))
            .unwrap();
        assert_eq!(hit.source, ReadSource::Hit);
        assert_eq!(fetches.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn children_delta_patches_resident_entry_in_place() {
        let cache = ReadCache::new(ReadCacheConfig::with_capacity(4));
        let fetches = AtomicUsize::new(0);
        cache
            .get_or_fetch("/p", 5, T, fetch_counted(&fetches, Some(record("/p", 3))))
            .unwrap();
        // A create under /p fires NodeChildrenChanged with the new list:
        // the entry is patched, not dropped, and its watermark rises so
        // a read after MRD advances to the patch txid still hits.
        cache.apply_children("/p", &["c1".into(), "c2".into()], 9);
        let hit = cache
            .get_or_fetch("/p", 9, T, fetch_counted(&fetches, None))
            .unwrap();
        assert_eq!(hit.source, ReadSource::Hit);
        let rec = hit.record.unwrap();
        assert_eq!(rec.children.as_slice(), &["c1".to_owned(), "c2".to_owned()]);
        assert_eq!(rec.children_txid, 9);
        assert_eq!(fetches.load(Ordering::SeqCst), 1, "no refetch");
        assert_eq!(cache.stats().patched, 1);
        // A stale delta (older txid) is a no-op.
        cache.apply_children("/p", &[], 7);
        let still = cache
            .get_or_fetch("/p", 9, T, fetch_counted(&fetches, None))
            .unwrap();
        assert_eq!(still.record.unwrap().children_txid, 9);
        // A non-resident path is left alone; a negative entry falls back
        // to invalidation.
        cache.apply_children("/absent", &["x".into()], 3);
        assert_eq!(cache.stats().patched, 1);
        cache
            .get_or_fetch("/neg", 5, T, fetch_counted(&fetches, None))
            .unwrap();
        cache.apply_children("/neg", &["x".into()], 8);
        let refetched = cache
            .get_or_fetch("/neg", 5, T, fetch_counted(&fetches, None))
            .unwrap();
        assert_eq!(refetched.source, ReadSource::Fetched);
    }

    /// `NodeChildrenChanged` delta racing a concurrent delete on the
    /// client side. The watch queue delivers per session in txid order,
    /// but a delete notification for `/p` can invalidate the entry while
    /// a children delta for `/p` (from a sibling create that committed
    /// just before the delete) is still in flight. The late patch must
    /// not fabricate a Present entry for the now-deleted node.
    #[test]
    fn children_patch_racing_delete_never_resurrects() {
        let cache = ReadCache::new(ReadCacheConfig::with_capacity(4));
        let fetches = AtomicUsize::new(0);
        cache
            .get_or_fetch("/p", 5, T, fetch_counted(&fetches, Some(record("/p", 3))))
            .unwrap();
        // NodeDeleted lands first: the entry is dropped.
        cache.invalidate("/p");
        // The stale children delta arrives after. No slot is resident,
        // so the patch must be a no-op — not an insert.
        cache.apply_children("/p", &["ghost".into()], 9);
        assert_eq!(cache.stats().patched, 0, "patch must not create entries");
        // The next read goes to storage and observes the delete; nothing
        // the patch did may turn this into a fabricated hit.
        let read = cache
            .get_or_fetch("/p", 9, T, fetch_counted(&fetches, None))
            .unwrap();
        assert_eq!(read.source, ReadSource::Fetched);
        assert!(read.record.is_none(), "deleted node served from cache");
        // Inverse interleaving: the delete's absence is already cached
        // negatively when the stale delta arrives. The patch downgrades
        // to invalidation (conservative), never to resurrection.
        cache.apply_children("/p", &["ghost".into()], 10);
        let after = cache
            .get_or_fetch("/p", 10, T, fetch_counted(&fetches, None))
            .unwrap();
        assert!(
            after.record.is_none(),
            "children patch resurrected a negative entry"
        );
        assert_eq!(cache.stats().patched, 0);
    }

    #[test]
    fn negative_entries_cache_absence() {
        let cache = ReadCache::new(ReadCacheConfig::with_capacity(4));
        let fetches = AtomicUsize::new(0);
        let miss = cache
            .get_or_fetch("/gone", 5, T, fetch_counted(&fetches, None))
            .unwrap();
        assert!(miss.record.is_none());
        let hit = cache
            .get_or_fetch(
                "/gone",
                5,
                T,
                fetch_counted(&fetches, Some(record("/gone", 9))),
            )
            .unwrap();
        assert!(hit.record.is_none(), "absence served from cache");
        assert_eq!(hit.source, ReadSource::Hit);
        assert_eq!(fetches.load(Ordering::SeqCst), 1);
        // Invalidation (e.g. a NodeCreated watch event) drops it.
        cache.invalidate("/gone");
        let refetched = cache
            .get_or_fetch(
                "/gone",
                5,
                T,
                fetch_counted(&fetches, Some(record("/gone", 9))),
            )
            .unwrap();
        assert_eq!(refetched.source, ReadSource::Fetched);
        assert!(refetched.record.is_some());
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let cache = ReadCache::new(ReadCacheConfig::with_capacity(2));
        let fetches = AtomicUsize::new(0);
        for path in ["/a", "/b"] {
            cache
                .get_or_fetch(path, 1, T, fetch_counted(&fetches, Some(record(path, 1))))
                .unwrap();
        }
        // Touch /a so /b is the LRU victim.
        assert_eq!(
            cache
                .get_or_fetch("/a", 1, T, fetch_counted(&fetches, None))
                .unwrap()
                .source,
            ReadSource::Hit
        );
        cache
            .get_or_fetch("/c", 1, T, fetch_counted(&fetches, Some(record("/c", 1))))
            .unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(
            cache
                .get_or_fetch("/a", 1, T, fetch_counted(&fetches, None))
                .unwrap()
                .source,
            ReadSource::Hit,
            "recently used entry survived"
        );
        assert_eq!(
            cache
                .get_or_fetch("/b", 1, T, fetch_counted(&fetches, Some(record("/b", 1))))
                .unwrap()
                .source,
            ReadSource::Fetched,
            "LRU victim evicted"
        );
    }

    #[test]
    fn zero_capacity_is_exact_passthrough() {
        let cache = ReadCache::new(ReadCacheConfig::disabled());
        let fetches = AtomicUsize::new(0);
        for _ in 0..3 {
            let read = cache
                .get_or_fetch("/n", 1, T, fetch_counted(&fetches, Some(record("/n", 1))))
                .unwrap();
            assert_eq!(read.source, ReadSource::Fetched);
        }
        assert_eq!(fetches.load(Ordering::SeqCst), 3);
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn fetch_fresh_bypasses_valid_entry_and_refreshes_it() {
        let cache = ReadCache::new(ReadCacheConfig::with_capacity(4));
        let fetches = AtomicUsize::new(0);
        cache
            .get_or_fetch("/n", 5, T, fetch_counted(&fetches, Some(record("/n", 3))))
            .unwrap();
        // The entry is valid at MRD 5 — but a watch-arming read must not
        // serve it: another session may have written since.
        let fresh = cache
            .fetch_fresh("/n", 5, fetch_counted(&fetches, Some(record("/n", 9))))
            .unwrap();
        assert_eq!(fresh.source, ReadSource::Fetched);
        assert_eq!(fresh.record.unwrap().modified_txid, 9);
        assert_eq!(fetches.load(Ordering::SeqCst), 2);
        // The fresh result replaced the entry.
        let hit = cache
            .get_or_fetch("/n", 5, T, fetch_counted(&fetches, None))
            .unwrap();
        assert_eq!(hit.source, ReadSource::Hit);
        assert_eq!(hit.record.unwrap().modified_txid, 9);
    }

    #[test]
    fn fetch_errors_propagate_and_are_not_cached() {
        let cache = ReadCache::new(ReadCacheConfig::with_capacity(4));
        let err = cache.get_or_fetch("/n", 1, T, || {
            Err(FkError::SystemError {
                detail: "boom".into(),
            })
        });
        assert!(err.is_err());
        let fetches = AtomicUsize::new(0);
        let ok = cache
            .get_or_fetch("/n", 1, T, fetch_counted(&fetches, Some(record("/n", 1))))
            .unwrap();
        assert_eq!(ok.source, ReadSource::Fetched);
    }

    #[test]
    fn single_flight_coalesces_concurrent_readers() {
        let cache = Arc::new(ReadCache::new(ReadCacheConfig::with_capacity(4)));
        let fetches = Arc::new(AtomicUsize::new(0));
        let (release_tx, release_rx) = crossbeam::channel::bounded::<()>(0);

        std::thread::scope(|scope| {
            // Leader: its fetch blocks until released.
            let leader_cache = Arc::clone(&cache);
            let leader_fetches = Arc::clone(&fetches);
            let leader = scope.spawn(move || {
                leader_cache
                    .get_or_fetch("/hot", 1, T, move || {
                        leader_fetches.fetch_add(1, Ordering::SeqCst);
                        release_rx.recv().expect("released");
                        Ok(Some(record("/hot", 1)))
                    })
                    .unwrap()
            });
            // Wait until the flight is registered, then pile on waiters.
            loop {
                if cache.flights.lock().contains_key("/hot") {
                    break;
                }
                std::thread::yield_now();
            }
            let waiters: Vec<_> = (0..3)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let fetches = Arc::clone(&fetches);
                    scope.spawn(move || {
                        cache
                            .get_or_fetch("/hot", 1, T, move || {
                                fetches.fetch_add(1, Ordering::SeqCst);
                                Ok(Some(record("/hot", 1)))
                            })
                            .unwrap()
                    })
                })
                .collect();
            // Release once every waiter holds a reference to the flight
            // (leader + map + 3 waiters = 5 strong refs).
            loop {
                let refs = cache
                    .flights
                    .lock()
                    .get("/hot")
                    .map(Arc::strong_count)
                    .unwrap_or(0);
                if refs >= 5 {
                    break;
                }
                std::thread::yield_now();
            }
            release_tx.send(()).unwrap();
            let lead = leader.join().unwrap();
            assert_eq!(lead.source, ReadSource::Fetched);
            for waiter in waiters {
                let read = waiter.join().unwrap();
                assert_eq!(read.source, ReadSource::Coalesced);
                assert_eq!(read.record.unwrap().path, "/hot");
            }
        });
        assert_eq!(fetches.load(Ordering::SeqCst), 1, "one round trip total");
        assert_eq!(cache.stats().coalesced, 3);
    }

    #[test]
    fn waiter_rejects_flight_result_older_than_its_mrd() {
        let cache = Arc::new(ReadCache::new(ReadCacheConfig::with_capacity(4)));
        let (release_tx, release_rx) = crossbeam::channel::bounded::<()>(0);
        let refetched = Arc::new(AtomicUsize::new(0));

        std::thread::scope(|scope| {
            let leader_cache = Arc::clone(&cache);
            let leader = scope.spawn(move || {
                // Flight issued at MRD 5; returns a record of mxid 3 →
                // shared watermark 5.
                leader_cache
                    .get_or_fetch("/n", 5, T, move || {
                        release_rx.recv().expect("released");
                        Ok(Some(record("/n", 3)))
                    })
                    .unwrap()
            });
            loop {
                if cache.flights.lock().contains_key("/n") {
                    break;
                }
                std::thread::yield_now();
            }
            // Waiter has already observed txid 10: the shared result
            // (watermark 5) must not be served to it.
            let waiter_cache = Arc::clone(&cache);
            let waiter_refetched = Arc::clone(&refetched);
            let waiter = scope.spawn(move || {
                waiter_cache
                    .get_or_fetch("/n", 10, T, move || {
                        waiter_refetched.fetch_add(1, Ordering::SeqCst);
                        Ok(Some(record("/n", 12)))
                    })
                    .unwrap()
            });
            loop {
                let refs = cache
                    .flights
                    .lock()
                    .get("/n")
                    .map(Arc::strong_count)
                    .unwrap_or(0);
                if refs >= 3 {
                    break;
                }
                std::thread::yield_now();
            }
            release_tx.send(()).unwrap();
            assert_eq!(leader.join().unwrap().record.unwrap().modified_txid, 3);
            let read = waiter.join().unwrap();
            assert_eq!(read.source, ReadSource::Fetched, "stale flight rejected");
            assert_eq!(read.record.unwrap().modified_txid, 12);
        });
        assert_eq!(refetched.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn hit_ratio_reflects_counters() {
        let stats = CacheStats {
            hits: 6,
            misses: 2,
            coalesced: 2,
            evictions: 0,
            invalidations: 0,
            patched: 0,
        };
        assert!((stats.hit_ratio() - 0.8).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }
}
