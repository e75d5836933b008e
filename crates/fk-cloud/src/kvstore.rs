//! Simulated key-value store (DynamoDB / Datastore equivalent).
//!
//! Provides the capabilities FaaSKeeper's *system storage* requires
//! (§3.3): atomic single-item conditional updates (the substrate of timed
//! locks, counters and lists), strongly consistent reads, multi-item
//! transactions (Z1 atomicity for multi-node operations and the GCP
//! synchronization path), scans, and per-kB billing. Items live in hash
//! shards guarded by independent locks, so independent updates proceed in
//! parallel — the property §4.3 relies on for horizontal write scaling.

use crate::chaos::{Chaos, FaultKind};
use crate::error::{CloudError, CloudResult};
use crate::expr::{Condition, Update};
use crate::metering::Meter;
use crate::objectstore::Tag;
use crate::ops::Op;
use crate::region::Region;
use crate::retry::with_retry;
use crate::trace::Ctx;
use crate::value::Item;
use bytes::Bytes;
use fk_store::{Lsm, StoreError};
use parking_lot::RwLock;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Read consistency level (§2.1: eventually consistent reads trade
/// consistency for cost/latency and break Z2/Z3 if used for user data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consistency {
    /// Strongly consistent read: always the latest committed item.
    Strong,
    /// Eventually consistent read: may return the previous version.
    Eventual,
}

/// Service limits, mirroring provider quotas (§4.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvLimits {
    /// Maximum item size in bytes (DynamoDB: 400 kB, Datastore: 1 MB).
    pub max_item_bytes: usize,
    /// Probability that an eventually consistent read observes the
    /// previous version while one exists.
    pub stale_read_prob: f64,
}

impl KvLimits {
    /// DynamoDB-like limits.
    pub fn dynamodb() -> Self {
        KvLimits {
            max_item_bytes: 400 * 1024,
            stale_read_prob: 0.3,
        }
    }

    /// Datastore-like limits.
    pub fn datastore() -> Self {
        KvLimits {
            max_item_bytes: 1024 * 1024,
            stale_read_prob: 0.3,
        }
    }
}

/// Result of an update: the previous and new item states.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateOutput {
    /// Item state before the update (`None` if it was created).
    pub old: Option<Item>,
    /// Item state after the update.
    pub new: Item,
}

#[derive(Debug, Clone)]
struct Versioned {
    item: Item,
    version: u64,
    prev: Option<Item>,
}

/// One element of a multi-item transaction.
#[derive(Debug, Clone)]
pub enum TransactOp {
    /// Conditional put.
    Put {
        /// Item key.
        key: String,
        /// New item.
        item: Item,
        /// Guard condition.
        condition: Condition,
    },
    /// Conditional update expression.
    Update {
        /// Item key.
        key: String,
        /// Update expression.
        update: Update,
        /// Guard condition.
        condition: Condition,
    },
    /// Conditional delete.
    Delete {
        /// Item key.
        key: String,
        /// Guard condition.
        condition: Condition,
    },
    /// Pure condition check (no mutation).
    Check {
        /// Item key.
        key: String,
        /// Condition that must hold.
        condition: Condition,
    },
}

impl TransactOp {
    fn key(&self) -> &str {
        match self {
            TransactOp::Put { key, .. }
            | TransactOp::Update { key, .. }
            | TransactOp::Delete { key, .. }
            | TransactOp::Check { key, .. } => key,
        }
    }
}

const SHARDS: usize = 64;

/// The attribute a tagged item keeps its [`KvStore::fresh_tag`] in.
pub const TAG_ATTR: &str = "tag";

struct Inner {
    name: String,
    region: Region,
    limits: KvLimits,
    meter: Meter,
    shards: Vec<RwLock<HashMap<String, Versioned>>>,
    chaos: OnceLock<Arc<Chaos>>,
    durable: OnceLock<Lsm>,
    /// The last tag [`KvStore::fresh_tag`] handed out.
    last_tag: AtomicU64,
}

/// A table in the simulated key-value store. Cloning shares the table.
#[derive(Clone)]
pub struct KvStore {
    inner: Arc<Inner>,
}

fn shard_of(key: &str) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

impl KvStore {
    /// Creates a table with DynamoDB-like limits.
    pub fn new(name: impl Into<String>, region: Region, meter: Meter) -> Self {
        Self::with_limits(name, region, meter, KvLimits::dynamodb())
    }

    /// Creates a table with explicit limits.
    pub fn with_limits(
        name: impl Into<String>,
        region: Region,
        meter: Meter,
        limits: KvLimits,
    ) -> Self {
        KvStore {
            inner: Arc::new(Inner {
                name: name.into(),
                region,
                limits,
                meter,
                shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
                chaos: OnceLock::new(),
                durable: OnceLock::new(),
                last_tag: AtomicU64::new(0),
            }),
        }
    }

    /// Installs the chaos engine on this table (at most once). Writes,
    /// updates, deletes and transactions then pass its fault points;
    /// reads stay infallible — the SDK-level behaviour of DynamoDB
    /// reads, whose transient failures are retried inside the client
    /// library before any caller sees them.
    pub fn install_chaos(&self, chaos: Arc<Chaos>) {
        let _ = self.inner.chaos.set(chaos);
    }

    /// Attaches a durable LSM engine to this table (at most once) and
    /// loads whatever it recovered: every persisted item is decoded
    /// and installed into the shards, so a table re-attached to an
    /// engine that survived a crash comes back with its committed
    /// state. Afterwards every committed mutation — put, update,
    /// delete, and each transaction as **one atomic WAL batch** — is
    /// logged and fsynced before it is applied or acknowledged.
    ///
    /// Returns the number of items recovered.
    pub fn attach_durable(&self, lsm: Lsm) -> CloudResult<usize> {
        let recovered = lsm.scan_prefix("").map_err(map_store_err)?;
        let mut loaded = 0usize;
        for (key, raw) in recovered {
            let Some(item) = Item::decode(&raw) else {
                return Err(CloudError::StorageFailed {
                    detail: format!("undecodable persisted item at key {key:?}"),
                });
            };
            let tag = item.num(TAG_ATTR).unwrap_or(0) as Tag;
            self.inner.last_tag.fetch_max(tag, Ordering::Relaxed);
            self.inner.shards[shard_of(&key)].write().insert(
                key,
                Versioned {
                    item,
                    version: 1,
                    prev: None,
                },
            );
            loaded += 1;
        }
        if self.inner.durable.set(lsm).is_err() {
            return Err(CloudError::AlreadyExists {
                name: format!("durable backend on table {}", self.inner.name),
            });
        }
        Ok(loaded)
    }

    /// Logs committed mutations to the durable engine, if one is
    /// attached. Called under the shard guard(s) so the WAL order
    /// matches the apply order; an error means nothing was persisted
    /// and the caller must not apply.
    fn log_durable(&self, entries: Vec<(String, Option<Bytes>)>) -> CloudResult<()> {
        match self.inner.durable.get() {
            None => Ok(()),
            Some(lsm) => lsm.write_batch(entries).map_err(map_store_err),
        }
    }

    /// True once a durable engine is attached.
    pub fn is_durable(&self) -> bool {
        self.inner.durable.get().is_some()
    }

    /// Rolls the write-plane fault points: throttling, then a transient
    /// injected error. The failed request is billed and charged like a
    /// real rejected round trip, and nothing is applied — the retry
    /// re-evaluates the condition against untouched state.
    fn chaos_write_error(&self, ctx: &Ctx, key: &str) -> CloudResult<()> {
        let Some(chaos) = self.inner.chaos.get() else {
            return Ok(());
        };
        if chaos.fire(ctx, FaultKind::KvThrottle) {
            self.inner
                .meter
                .fault_injected(FaultKind::KvThrottle.label());
            self.charge_failed_update(ctx, key);
            return Err(CloudError::Throttled);
        }
        if chaos.fire(ctx, FaultKind::KvError) {
            self.inner.meter.fault_injected(FaultKind::KvError.label());
            self.charge_failed_update(ctx, key);
            return Err(chaos.error(FaultKind::KvError));
        }
        Ok(())
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Region the table lives in.
    pub fn region(&self) -> Region {
        self.inner.region
    }

    /// The usage meter.
    pub fn meter(&self) -> &Meter {
        &self.inner.meter
    }

    /// A tag for an item a writer is about to store under [`TAG_ATTR`]:
    /// unique within the table, never 0, and above every tag a durable
    /// table recovered. It stands in for the random 64-bit id a real
    /// writer would draw; the table stores and compares it like any
    /// other attribute.
    pub fn fresh_tag(&self) -> Tag {
        self.inner.last_tag.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Number of items currently stored.
    pub fn len(&self) -> usize {
        self.inner.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True if the table holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn check_size(&self, item: &Item) -> CloudResult<()> {
        let size = item.size_bytes();
        if size > self.inner.limits.max_item_bytes {
            return Err(CloudError::PayloadTooLarge {
                size,
                limit: self.inner.limits.max_item_bytes,
            });
        }
        Ok(())
    }

    /// Reads an item.
    pub fn get(&self, ctx: &Ctx, key: &str, consistency: Consistency) -> Option<Item> {
        let shard = &self.inner.shards[shard_of(key)];
        let guard = shard.read();
        let entry = guard.get(key);
        let consistent = consistency == Consistency::Strong;
        let result = match entry {
            None => None,
            Some(v) => {
                if !consistent && v.prev.is_some() {
                    // An eventually consistent read may observe the
                    // previous version; the probability stands in for the
                    // replication lag window.
                    let stale = stale_roll(ctx, key, v.version, self.inner.limits.stale_read_prob);
                    if stale {
                        v.prev.clone()
                    } else {
                        Some(v.item.clone())
                    }
                } else {
                    Some(v.item.clone())
                }
            }
        };
        drop(guard);
        let size = result.as_ref().map(Item::size_bytes).unwrap_or(1);
        self.inner.meter.kv_read(size, consistent);
        ctx.charge_to(Op::KvGet { consistent }, size, self.inner.region);
        result
    }

    /// Conditional put (full item replacement). Transient failures are
    /// retried inside ([`crate::retry`]).
    pub fn put(
        &self,
        ctx: &Ctx,
        key: &str,
        item: Item,
        condition: Condition,
    ) -> CloudResult<Option<Item>> {
        with_retry(ctx, &self.inner.meter, "kv.put", || {
            self.try_put(ctx, key, &item, &condition)
        })
    }

    fn try_put(
        &self,
        ctx: &Ctx,
        key: &str,
        item: &Item,
        condition: &Condition,
    ) -> CloudResult<Option<Item>> {
        self.check_size(item)?;
        self.chaos_write_error(ctx, key)?;
        let shard = &self.inner.shards[shard_of(key)];
        let mut guard = shard.write();
        let current = guard.get(key);
        if !condition.eval(current.map(|v| &v.item)) {
            drop(guard);
            self.charge_failed_write(ctx, item);
            return Err(CloudError::ConditionFailed {
                detail: condition.describe(),
            });
        }
        if self.is_durable() {
            let entry = vec![(key.to_owned(), Some(Bytes::from(item.encode())))];
            if let Err(e) = self.log_durable(entry) {
                drop(guard);
                self.charge_failed_write(ctx, item);
                return Err(e);
            }
        }
        let old = current.map(|v| v.item.clone());
        let version = current.map(|v| v.version + 1).unwrap_or(1);
        let size = item.size_bytes();
        let old_size = old.as_ref().map(Item::size_bytes).unwrap_or(0);
        guard.insert(
            key.to_owned(),
            Versioned {
                item: item.clone(),
                version,
                prev: old.clone(),
            },
        );
        drop(guard);
        self.inner.meter.kv_write(size);
        self.inner
            .meter
            .kv_stored_delta(size as i64 - old_size as i64);
        ctx.charge_to(
            Op::KvUpdate {
                conditional: *condition != Condition::Always,
            },
            size,
            self.inner.region,
        );
        Ok(old)
    }

    /// Conditional update expression. Creates the item when absent
    /// (upsert), matching DynamoDB `UpdateItem` semantics. Transient
    /// failures are retried inside.
    pub fn update(
        &self,
        ctx: &Ctx,
        key: &str,
        update: &Update,
        condition: Condition,
    ) -> CloudResult<UpdateOutput> {
        with_retry(ctx, &self.inner.meter, "kv.update", || {
            self.try_update(ctx, key, update, &condition)
        })
    }

    fn try_update(
        &self,
        ctx: &Ctx,
        key: &str,
        update: &Update,
        condition: &Condition,
    ) -> CloudResult<UpdateOutput> {
        self.chaos_write_error(ctx, key)?;
        let shard = &self.inner.shards[shard_of(key)];
        let mut guard = shard.write();
        let current = guard.get(key);
        if !condition.eval(current.map(|v| &v.item)) {
            drop(guard);
            self.charge_failed_update(ctx, key);
            return Err(CloudError::ConditionFailed {
                detail: condition.describe(),
            });
        }
        let old = current.map(|v| v.item.clone());
        // Apply to a scratch copy so failed updates leave the item intact.
        let mut scratch = old.clone().unwrap_or_default();
        update.apply(&mut scratch)?;
        self.check_size(&scratch)?;
        if self.is_durable() {
            let entry = vec![(key.to_owned(), Some(Bytes::from(scratch.encode())))];
            if let Err(e) = self.log_durable(entry) {
                drop(guard);
                self.charge_failed_update(ctx, key);
                return Err(e);
            }
        }
        let version = current.map(|v| v.version + 1).unwrap_or(1);
        let size = scratch.size_bytes();
        let old_size = old.as_ref().map(Item::size_bytes).unwrap_or(0);
        guard.insert(
            key.to_owned(),
            Versioned {
                item: scratch.clone(),
                version,
                prev: old.clone(),
            },
        );
        drop(guard);
        self.inner.meter.kv_write(size);
        self.inner
            .meter
            .kv_stored_delta(size as i64 - old_size as i64);
        ctx.charge_to(
            Op::KvUpdate {
                conditional: *condition != Condition::Always,
            },
            size,
            self.inner.region,
        );
        Ok(UpdateOutput { old, new: scratch })
    }

    /// Conditional delete. Returns the removed item. Transient failures
    /// are retried inside.
    pub fn delete(&self, ctx: &Ctx, key: &str, condition: Condition) -> CloudResult<Option<Item>> {
        with_retry(ctx, &self.inner.meter, "kv.delete", || {
            self.try_delete(ctx, key, &condition)
        })
    }

    fn try_delete(&self, ctx: &Ctx, key: &str, condition: &Condition) -> CloudResult<Option<Item>> {
        self.chaos_write_error(ctx, key)?;
        let shard = &self.inner.shards[shard_of(key)];
        let mut guard = shard.write();
        let current = guard.get(key);
        if !condition.eval(current.map(|v| &v.item)) {
            drop(guard);
            self.charge_failed_update(ctx, key);
            return Err(CloudError::ConditionFailed {
                detail: condition.describe(),
            });
        }
        if self.is_durable() {
            if let Err(e) = self.log_durable(vec![(key.to_owned(), None)]) {
                drop(guard);
                self.charge_failed_update(ctx, key);
                return Err(e);
            }
        }
        let removed = guard.remove(key).map(|v| v.item);
        drop(guard);
        let size = removed.as_ref().map(Item::size_bytes).unwrap_or(0);
        self.inner.meter.kv_write(size.max(1));
        self.inner.meter.kv_stored_delta(-(size as i64));
        ctx.charge_to(Op::KvDelete, size.max(1), self.inner.region);
        Ok(removed)
    }

    /// Multi-item all-or-nothing transaction.
    ///
    /// Locks the involved shards in index order (no deadlocks), checks all
    /// conditions first, and only then applies all mutations — Z1's
    /// "requests never lead to partial results". Transient failures are
    /// retried inside; a `TransactionCancelled` never is.
    pub fn transact(&self, ctx: &Ctx, ops: &[TransactOp]) -> CloudResult<()> {
        with_retry(ctx, &self.inner.meter, "kv.transact", || {
            self.try_transact(ctx, ops)
        })
    }

    fn try_transact(&self, ctx: &Ctx, ops: &[TransactOp]) -> CloudResult<()> {
        if let Some(chaos) = self.inner.chaos.get() {
            if chaos.fire(ctx, FaultKind::KvCancel) {
                self.inner.meter.fault_injected(FaultKind::KvCancel.label());
                // An injected cancellation bills exactly like a real one:
                // DynamoDB consumes write units for every item of a
                // cancelled TransactWriteItems.
                let sizes: Vec<usize> = ops.iter().map(op_size_estimate).collect();
                let total: usize = sizes.iter().sum();
                self.inner.meter.kv_transact_write(&sizes);
                ctx.charge_to(Op::KvTransact, total.max(1), self.inner.region);
                // Surfaced as a *retryable* injected fault rather than
                // `TransactionCancelled`: this models DynamoDB's
                // transient cancellation reasons (transaction conflict,
                // throttling), which SDKs retry — nothing was applied,
                // so `transact` replays the transaction and its
                // conditions re-evaluate against untouched state. A
                // `TransactionCancelled` from this store always means a
                // real condition failed.
                return Err(chaos.error(FaultKind::KvCancel));
            }
        }
        let mut shard_ids: Vec<usize> = ops.iter().map(|op| shard_of(op.key())).collect();
        shard_ids.sort_unstable();
        shard_ids.dedup();
        let mut guards: HashMap<
            usize,
            parking_lot::RwLockWriteGuard<'_, HashMap<String, Versioned>>,
        > = HashMap::new();
        for id in &shard_ids {
            guards.insert(*id, self.inner.shards[*id].write());
        }

        // Validate all conditions against current state.
        for (i, op) in ops.iter().enumerate() {
            let guard = &guards[&shard_of(op.key())];
            let current = guard.get(op.key()).map(|v| &v.item);
            let cond = match op {
                TransactOp::Put { condition, .. }
                | TransactOp::Update { condition, .. }
                | TransactOp::Delete { condition, .. }
                | TransactOp::Check { condition, .. } => condition,
            };
            if !cond.eval(current) {
                drop(guards);
                // A cancelled transaction is still a billed round trip:
                // DynamoDB consumes write units for every item of a
                // cancelled TransactWriteItems, so the meter records the
                // request with each item's estimated size.
                let sizes: Vec<usize> = ops.iter().map(op_size_estimate).collect();
                let total: usize = sizes.iter().sum();
                self.inner.meter.kv_transact_write(&sizes);
                ctx.charge_to(Op::KvTransact, total, self.inner.region);
                return Err(CloudError::TransactionCancelled {
                    index: i,
                    detail: cond.describe(),
                });
            }
        }

        // Precompute new states (update expressions can still fail on type
        // errors; do this before mutating anything).
        let mut staged: Vec<(usize, String, Option<Item>)> = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let guard = &guards[&shard_of(op.key())];
            match op {
                TransactOp::Put { key, item, .. } => {
                    self.check_size(item)?;
                    staged.push((i, key.clone(), Some(item.clone())));
                }
                TransactOp::Update { key, update, .. } => {
                    let mut scratch = guard.get(key).map(|v| v.item.clone()).unwrap_or_default();
                    update.apply(&mut scratch)?;
                    self.check_size(&scratch)?;
                    staged.push((i, key.clone(), Some(scratch)));
                }
                TransactOp::Delete { key, .. } => staged.push((i, key.clone(), None)),
                TransactOp::Check { .. } => {}
            }
        }

        // Persist the whole transaction as one atomic WAL batch before
        // anything is applied: after a crash either every staged
        // mutation is recovered or none is (Z1 extended to disk).
        if self.is_durable() && !staged.is_empty() {
            let entries: Vec<(String, Option<Bytes>)> = staged
                .iter()
                .map(|(_, key, state)| {
                    (
                        key.clone(),
                        state.as_ref().map(|item| Bytes::from(item.encode())),
                    )
                })
                .collect();
            if let Err(e) = self.log_durable(entries) {
                drop(guards);
                let sizes: Vec<usize> = ops.iter().map(op_size_estimate).collect();
                let total: usize = sizes.iter().sum();
                self.inner.meter.kv_transact_write(&sizes);
                ctx.charge_to(Op::KvTransact, total.max(1), self.inner.region);
                return Err(e);
            }
        }

        let mut total = 0usize;
        let mut item_sizes: Vec<usize> = Vec::with_capacity(staged.len());
        for (_, key, new_state) in staged {
            let guard = guards.get_mut(&shard_of(&key)).expect("shard locked");
            let old_size = guard.get(&key).map(|v| v.item.size_bytes()).unwrap_or(0);
            match new_state {
                Some(item) => {
                    let size = item.size_bytes();
                    total += size;
                    let version = guard.get(&key).map(|v| v.version + 1).unwrap_or(1);
                    let prev = guard.get(&key).map(|v| v.item.clone());
                    guard.insert(
                        key.clone(),
                        Versioned {
                            item,
                            version,
                            prev,
                        },
                    );
                    item_sizes.push(size);
                    self.inner
                        .meter
                        .kv_stored_delta(size as i64 - old_size as i64);
                }
                None => {
                    guard.remove(&key);
                    item_sizes.push(old_size.max(1));
                    self.inner.meter.kv_stored_delta(-(old_size as i64));
                }
            }
        }
        drop(guards);
        // One metered request for the whole transaction; billing rounds
        // every item to 1 kB units independently (DynamoDB's model).
        self.inner.meter.kv_transact_write(&item_sizes);
        ctx.charge_to(Op::KvTransact, total.max(1), self.inner.region);
        Ok(())
    }

    /// Scans the whole table (the heartbeat function's session listing).
    pub fn scan(&self, ctx: &Ctx) -> Vec<(String, Item)> {
        let mut out = Vec::new();
        for shard in &self.inner.shards {
            for (k, v) in shard.read().iter() {
                out.push((k.clone(), v.item.clone()));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        let total: usize = out.iter().map(|(_, i)| i.size_bytes()).sum();
        self.inner.meter.kv_scan(total.max(1));
        ctx.charge_to(Op::KvScan, total.max(1), self.inner.region);
        out
    }

    /// Scans every item whose key starts with `prefix`, sorted by key.
    /// Modelled as a DynamoDB Query against a key-prefix index: read
    /// units are consumed for the *matched* bytes only, not the whole
    /// table (a full `Scan` would bill everything it examines).
    pub fn scan_prefix(&self, ctx: &Ctx, prefix: &str) -> Vec<(String, Item)> {
        let mut out = Vec::new();
        for shard in &self.inner.shards {
            for (k, v) in shard.read().iter() {
                if k.starts_with(prefix) {
                    out.push((k.clone(), v.item.clone()));
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        let total: usize = out.iter().map(|(_, i)| i.size_bytes()).sum();
        self.inner.meter.kv_scan(total.max(1));
        ctx.charge_to(Op::KvScan, total.max(1), self.inner.region);
        out
    }

    fn charge_failed_write(&self, ctx: &Ctx, item: &Item) {
        // A failed conditional write is still billed and still costs a
        // round trip.
        self.inner.meter.kv_write(item.size_bytes());
        ctx.charge_to(
            Op::KvUpdate { conditional: true },
            item.size_bytes(),
            self.inner.region,
        );
    }

    fn charge_failed_update(&self, ctx: &Ctx, key: &str) {
        self.inner.meter.kv_write(key.len().max(1));
        ctx.charge_to(Op::KvUpdate { conditional: true }, 64, self.inner.region);
    }
}

/// Maps an engine failure onto the cloud error surface. Everything is
/// [`CloudError::StorageFailed`]: I/O-class failures are retryable
/// (the engine repairs its WAL before the next append) and nothing was
/// applied, so callers treat it like a rejected round trip.
fn map_store_err(e: StoreError) -> CloudError {
    CloudError::StorageFailed {
        detail: e.to_string(),
    }
}

fn op_size_estimate(op: &TransactOp) -> usize {
    match op {
        TransactOp::Put { item, .. } => item.size_bytes(),
        _ => 64,
    }
}

/// Deterministic pseudo-random staleness decision derived from the ctx
/// clock, key and version, so tests can rely on seeded behaviour.
fn stale_roll(ctx: &Ctx, key: &str, version: u64, prob: f64) -> bool {
    if prob <= 0.0 {
        return false;
    }
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    version.hash(&mut h);
    ctx.now_ns().hash(&mut h);
    let roll = (h.finish() % 10_000) as f64 / 10_000.0;
    roll < prob
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn store() -> (KvStore, Ctx) {
        (
            KvStore::new("test", Region::US_EAST_1, Meter::new()),
            Ctx::disabled(),
        )
    }

    #[test]
    fn put_get_roundtrip() {
        let (kv, ctx) = store();
        kv.put(&ctx, "a", Item::new().with("v", 1i64), Condition::Always)
            .unwrap();
        let got = kv.get(&ctx, "a", Consistency::Strong).unwrap();
        assert_eq!(got.num("v"), Some(1));
        assert!(kv.get(&ctx, "missing", Consistency::Strong).is_none());
    }

    #[test]
    fn conditional_put_create_only() {
        let (kv, ctx) = store();
        kv.put(
            &ctx,
            "a",
            Item::new().with("v", 1i64),
            Condition::ItemNotExists,
        )
        .unwrap();
        let err = kv
            .put(
                &ctx,
                "a",
                Item::new().with("v", 2i64),
                Condition::ItemNotExists,
            )
            .unwrap_err();
        assert!(err.is_condition_failed());
        assert_eq!(
            kv.get(&ctx, "a", Consistency::Strong).unwrap().num("v"),
            Some(1)
        );
    }

    #[test]
    fn update_upserts_missing_item() {
        let (kv, ctx) = store();
        let out = kv
            .update(&ctx, "ctr", &Update::new().add("n", 5), Condition::Always)
            .unwrap();
        assert!(out.old.is_none());
        assert_eq!(out.new.num("n"), Some(5));
        let out2 = kv
            .update(&ctx, "ctr", &Update::new().add("n", 3), Condition::Always)
            .unwrap();
        assert_eq!(out2.new.num("n"), Some(8));
        assert_eq!(out2.old.unwrap().num("n"), Some(5));
    }

    #[test]
    fn failed_condition_leaves_item_untouched() {
        let (kv, ctx) = store();
        kv.put(&ctx, "a", Item::new().with("v", 1i64), Condition::Always)
            .unwrap();
        let err = kv
            .update(
                &ctx,
                "a",
                &Update::new().set("v", 99i64),
                Condition::eq("v", 42i64),
            )
            .unwrap_err();
        assert!(err.is_condition_failed());
        assert_eq!(
            kv.get(&ctx, "a", Consistency::Strong).unwrap().num("v"),
            Some(1)
        );
    }

    #[test]
    fn failed_action_is_atomic() {
        let (kv, ctx) = store();
        kv.put(&ctx, "a", Item::new().with("s", "str"), Condition::Always)
            .unwrap();
        // set succeeds then add fails on type error — nothing must stick.
        let err = kv
            .update(
                &ctx,
                "a",
                &Update::new().set("x", 1i64).add("s", 1),
                Condition::Always,
            )
            .unwrap_err();
        assert!(matches!(err, CloudError::InvalidOperation { .. }));
        assert!(!kv
            .get(&ctx, "a", Consistency::Strong)
            .unwrap()
            .contains("x"));
    }

    #[test]
    fn delete_with_condition() {
        let (kv, ctx) = store();
        kv.put(&ctx, "a", Item::new().with("v", 1i64), Condition::Always)
            .unwrap();
        assert!(kv
            .delete(&ctx, "a", Condition::eq("v", 2i64))
            .unwrap_err()
            .is_condition_failed());
        let removed = kv.delete(&ctx, "a", Condition::eq("v", 1i64)).unwrap();
        assert_eq!(removed.unwrap().num("v"), Some(1));
        assert!(kv.is_empty());
    }

    #[test]
    fn item_size_limit_enforced() {
        let (kv, ctx) = store();
        let big = Item::new().with("data", vec![0u8; 500 * 1024]);
        let err = kv.put(&ctx, "a", big, Condition::Always).unwrap_err();
        assert!(matches!(err, CloudError::PayloadTooLarge { .. }));
    }

    #[test]
    fn transaction_applies_all_or_nothing() {
        let (kv, ctx) = store();
        kv.put(
            &ctx,
            "parent",
            Item::new().with("children", Vec::<Value>::new()),
            Condition::Always,
        )
        .unwrap();
        // Create child + update parent atomically.
        kv.transact(
            &ctx,
            &[
                TransactOp::Put {
                    key: "child".into(),
                    item: Item::new().with("v", 1i64),
                    condition: Condition::ItemNotExists,
                },
                TransactOp::Update {
                    key: "parent".into(),
                    update: Update::new().list_append("children", vec![Value::from("child")]),
                    condition: Condition::ItemExists,
                },
            ],
        )
        .unwrap();
        assert_eq!(
            kv.get(&ctx, "parent", Consistency::Strong)
                .unwrap()
                .list("children")
                .unwrap()
                .len(),
            1
        );

        // Second attempt fails on the child condition; the parent list
        // must stay unchanged.
        let err = kv
            .transact(
                &ctx,
                &[
                    TransactOp::Put {
                        key: "child".into(),
                        item: Item::new().with("v", 2i64),
                        condition: Condition::ItemNotExists,
                    },
                    TransactOp::Update {
                        key: "parent".into(),
                        update: Update::new().list_append("children", vec![Value::from("child")]),
                        condition: Condition::ItemExists,
                    },
                ],
            )
            .unwrap_err();
        assert!(matches!(
            err,
            CloudError::TransactionCancelled { index: 0, .. }
        ));
        assert_eq!(
            kv.get(&ctx, "parent", Consistency::Strong)
                .unwrap()
                .list("children")
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn transaction_check_op() {
        let (kv, ctx) = store();
        kv.put(
            &ctx,
            "guard",
            Item::new().with("ok", true),
            Condition::Always,
        )
        .unwrap();
        kv.transact(
            &ctx,
            &[
                TransactOp::Check {
                    key: "guard".into(),
                    condition: Condition::eq("ok", true),
                },
                TransactOp::Put {
                    key: "x".into(),
                    item: Item::new().with("v", 1i64),
                    condition: Condition::Always,
                },
            ],
        )
        .unwrap();
        assert!(kv.get(&ctx, "x", Consistency::Strong).is_some());
    }

    #[test]
    fn scan_returns_sorted_items() {
        let (kv, ctx) = store();
        for k in ["b", "a", "c"] {
            kv.put(&ctx, k, Item::new().with("k", k), Condition::Always)
                .unwrap();
        }
        let all = kv.scan(&ctx);
        let keys: Vec<&str> = all.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
    }

    #[test]
    fn metering_counts_units() {
        let meter = Meter::new();
        let kv = KvStore::new("t", Region::US_EAST_1, meter.clone());
        let ctx = Ctx::disabled();
        kv.put(
            &ctx,
            "a",
            Item::new().with("data", vec![0u8; 2000]),
            Condition::Always,
        )
        .unwrap();
        kv.get(&ctx, "a", Consistency::Strong);
        let s = meter.snapshot();
        assert_eq!(s.kv_write_units, 2); // 2004 bytes → 2 units
        assert!((s.kv_read_units - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eventual_reads_can_be_stale() {
        let kv = KvStore::with_limits(
            "t",
            Region::US_EAST_1,
            Meter::new(),
            KvLimits {
                max_item_bytes: 400 * 1024,
                stale_read_prob: 1.0, // always stale while prev exists
            },
        );
        let ctx = Ctx::disabled();
        kv.put(&ctx, "a", Item::new().with("v", 1i64), Condition::Always)
            .unwrap();
        kv.put(&ctx, "a", Item::new().with("v", 2i64), Condition::Always)
            .unwrap();
        let stale = kv.get(&ctx, "a", Consistency::Eventual).unwrap();
        assert_eq!(stale.num("v"), Some(1));
        // Strong reads never see the old version.
        let strong = kv.get(&ctx, "a", Consistency::Strong).unwrap();
        assert_eq!(strong.num("v"), Some(2));
    }

    fn durable_pair(dev: &fk_store::SimStorage) -> (KvStore, Ctx, usize) {
        let lsm = Lsm::open(Arc::new(dev.clone()), fk_store::LsmConfig::default()).unwrap();
        let kv = KvStore::new("durable", Region::US_EAST_1, Meter::new());
        let loaded = kv.attach_durable(lsm).unwrap();
        (kv, Ctx::disabled(), loaded)
    }

    #[test]
    fn durable_backing_survives_reopen() {
        let dev = fk_store::SimStorage::new();
        {
            let (kv, ctx, loaded) = durable_pair(&dev);
            assert_eq!(loaded, 0);
            kv.put(&ctx, "a", Item::new().with("v", 1i64), Condition::Always)
                .unwrap();
            kv.update(&ctx, "ctr", &Update::new().add("n", 5), Condition::Always)
                .unwrap();
            kv.put(&ctx, "gone", Item::new().with("v", 2i64), Condition::Always)
                .unwrap();
            kv.delete(&ctx, "gone", Condition::Always).unwrap();
            kv.transact(
                &ctx,
                &[
                    TransactOp::Put {
                        key: "tx1".into(),
                        item: Item::new().with("v", 10i64),
                        condition: Condition::ItemNotExists,
                    },
                    TransactOp::Update {
                        key: "ctr".into(),
                        update: Update::new().add("n", 3),
                        condition: Condition::ItemExists,
                    },
                ],
            )
            .unwrap();
        }
        // Crash (discard unsynced bytes) and bring the table back up on
        // a fresh engine over the same device.
        dev.crash();
        let (kv, ctx, loaded) = durable_pair(&dev);
        assert_eq!(loaded, 3, "a, ctr, tx1 recovered; gone stays deleted");
        assert_eq!(
            kv.get(&ctx, "a", Consistency::Strong).unwrap().num("v"),
            Some(1)
        );
        assert_eq!(
            kv.get(&ctx, "ctr", Consistency::Strong).unwrap().num("n"),
            Some(8)
        );
        assert_eq!(
            kv.get(&ctx, "tx1", Consistency::Strong).unwrap().num("v"),
            Some(10)
        );
        assert!(kv.get(&ctx, "gone", Consistency::Strong).is_none());
    }

    #[test]
    fn durable_write_failure_applies_nothing() {
        let dev = fk_store::SimStorage::new();
        let (kv, ctx, _) = durable_pair(&dev);
        kv.put(&ctx, "a", Item::new().with("v", 1i64), Condition::Always)
            .unwrap();
        // Kill the device on its next mutating op: the transaction's
        // WAL batch fails, so neither element may be applied in memory
        // either.
        dev.arm_kill(1, 7);
        let err = kv
            .transact(
                &ctx,
                &[
                    TransactOp::Put {
                        key: "b".into(),
                        item: Item::new().with("v", 2i64),
                        condition: Condition::ItemNotExists,
                    },
                    TransactOp::Update {
                        key: "a".into(),
                        update: Update::new().set("v", 99i64),
                        condition: Condition::ItemExists,
                    },
                ],
            )
            .unwrap_err();
        assert!(matches!(err, CloudError::StorageFailed { .. }));
        assert!(err.is_retryable());
        assert!(kv.get(&ctx, "b", Consistency::Strong).is_none());
        assert_eq!(
            kv.get(&ctx, "a", Consistency::Strong).unwrap().num("v"),
            Some(1)
        );
        // Single-item writes fail the same way without applying.
        let err = kv
            .put(&ctx, "c", Item::new().with("v", 3i64), Condition::Always)
            .unwrap_err();
        assert!(matches!(err, CloudError::StorageFailed { .. }));
        assert!(kv.get(&ctx, "c", Consistency::Strong).is_none());
    }

    #[test]
    fn durable_attach_rejects_corrupt_items() {
        let dev = fk_store::SimStorage::new();
        let lsm = Lsm::open(Arc::new(dev.clone()), fk_store::LsmConfig::default()).unwrap();
        lsm.put("junk", Bytes::from_static(&[0xFF, 0x01, 0x02]))
            .unwrap();
        let kv = KvStore::new("t", Region::US_EAST_1, Meter::new());
        let err = kv.attach_durable(lsm).unwrap_err();
        assert!(matches!(err, CloudError::StorageFailed { .. }));
    }

    #[test]
    fn concurrent_counter_updates_do_not_lose_increments() {
        let kv = KvStore::new("t", Region::US_EAST_1, Meter::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let kv = kv.clone();
                s.spawn(move || {
                    let ctx = Ctx::disabled();
                    for _ in 0..100 {
                        kv.update(&ctx, "ctr", &Update::new().add("n", 1), Condition::Always)
                            .unwrap();
                    }
                });
            }
        });
        let ctx = Ctx::disabled();
        assert_eq!(
            kv.get(&ctx, "ctr", Consistency::Strong).unwrap().num("n"),
            Some(800)
        );
    }
}
