//! Simulated key-value store (DynamoDB / Datastore equivalent).
//!
//! Provides the capabilities FaaSKeeper's *system storage* requires
//! (§3.3): atomic single-item conditional updates (the substrate of timed
//! locks, counters and lists), strongly consistent reads, multi-item
//! transactions (Z1 atomicity for multi-node operations and the GCP
//! synchronization path), scans, and per-kB billing. Items live in hash
//! shards guarded by independent locks, so independent updates proceed in
//! parallel — the property §4.3 relies on for horizontal write scaling.
//!
//! Every read is strongly consistent: it returns the latest committed
//! item. That is the one read mode §2.1 allows for system storage (an
//! eventually consistent read could observe a released lock or an
//! older counter and break Z2/Z3), so the table keeps exactly one copy
//! of each item and no previous version.
//!
//! Every write is one locked apply: `put`, `update` and `delete` apply
//! one item, `transact` its n. The apply locks the items' shards in
//! index order, evaluates every condition, stages every new item, logs
//! the staged batch to the durable engine once, applies it and accounts
//! the stored bytes. The public calls differ only in what they roll and
//! bill, which models DynamoDB's:
//!
//! | call | rolls | refused (condition, durable log) | applied |
//! |---|---|---|---|
//! | `put` | size check, `kv_throttle`, `kv_error` | one write of the item | one write of the item |
//! | `update` | `kv_throttle`, `kv_error` | one 64 B write | one write of the new item |
//! | `delete` | `kv_throttle`, `kv_error` | one 64 B write | one write of the removed item |
//! | `transact` | `kv_cancel` | every item at its estimate | 2 units per kB of each item |
//!
//! A fired `kv_throttle` or `kv_error` bills one 64 B write, a fired
//! `kv_cancel` a refused transaction; neither applies anything.

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
use parking_lot::{RwLock, RwLockWriteGuard};
use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Service limits, mirroring provider quotas (§4.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvLimits {
    /// Maximum item size in bytes (DynamoDB: 400 kB, Datastore: 1 MB).
    pub max_item_bytes: usize,
}

impl KvLimits {
    /// DynamoDB-like limits.
    pub fn dynamodb() -> Self {
        KvLimits {
            max_item_bytes: 400 * 1024,
        }
    }

    /// Datastore-like limits.
    pub fn datastore() -> Self {
        KvLimits {
            max_item_bytes: 1024 * 1024,
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

/// What one write of an apply does to its item.
#[derive(Clone, Copy)]
enum Action<'a> {
    Put(&'a Item),
    /// An update expression; `true` keeps a copy of the new item in the
    /// write for the caller.
    Update(&'a Update, bool),
    Delete,
    Check,
}

/// One borrowed write of [`KvStore::apply`], and what it left behind.
struct Write<'a> {
    key: &'a str,
    condition: &'a Condition,
    action: Action<'a>,
    shard: usize,
    /// The new item, staged before anything is applied: a put's own
    /// item or an update's result (`None`: the item is removed or left
    /// alone).
    staged: Option<Cow<'a, Item>>,
    /// The item the write replaced or removed.
    old: Option<Item>,
    /// Billed bytes: the new item's size, or a delete's removed size
    /// (at least 1).
    size: usize,
}

impl<'a> Write<'a> {
    fn new(key: &'a str, condition: &'a Condition, action: Action<'a>) -> Self {
        Write {
            key,
            condition,
            action,
            shard: shard_of(key),
            staged: None,
            old: None,
            size: 0,
        }
    }
}

impl<'a> From<&'a TransactOp> for Write<'a> {
    fn from(op: &'a TransactOp) -> Self {
        let (key, condition, action) = match op {
            TransactOp::Put {
                key,
                item,
                condition,
            } => (key, condition, Action::Put(item)),
            TransactOp::Update {
                key,
                update,
                condition,
            } => (key, condition, Action::Update(update, false)),
            TransactOp::Delete { key, condition } => (key, condition, Action::Delete),
            TransactOp::Check { key, condition } => (key, condition, Action::Check),
        };
        Write::new(key, condition, action)
    }
}

/// Why an apply applied nothing.
enum Refused {
    /// The condition of the write at this index does not hold.
    Condition(usize),
    /// The durable engine did not log the batch.
    Storage(CloudError),
    /// An item did not stage (an ill-typed update, an oversized item);
    /// billed as nothing.
    Invalid(CloudError),
}

const SHARDS: usize = 64;
// An apply locks its shards by a 64-bit set.
const _: () = assert!(SHARDS <= 64);

type Shard = HashMap<String, Item>;

/// The attribute a tagged item keeps its [`KvStore::fresh_tag`] in.
pub const TAG_ATTR: &str = "tag";

struct Inner {
    name: String,
    region: Region,
    limits: KvLimits,
    meter: Meter,
    shards: Vec<RwLock<Shard>>,
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
    /// and put into the shards by one apply, so a table re-attached to
    /// an engine that survived a crash comes back with its committed
    /// state and its stored bytes. Afterwards every committed mutation —
    /// put, update, delete, and each transaction as **one atomic WAL
    /// batch** — is logged and fsynced before it is applied or
    /// acknowledged.
    ///
    /// Returns the number of items recovered.
    pub fn attach_durable(&self, lsm: Lsm) -> CloudResult<usize> {
        let attached = || CloudError::AlreadyExists {
            name: format!("durable backend on table {}", self.inner.name),
        };
        if self.is_durable() {
            return Err(attached());
        }
        let mut recovered = Vec::new();
        for (key, raw) in lsm.scan_prefix("").map_err(map_store_err)? {
            let item = Item::decode(&raw).ok_or_else(|| CloudError::StorageFailed {
                detail: format!("undecodable persisted item at key {key:?}"),
            })?;
            let tag = item.num(TAG_ATTR).unwrap_or(0) as Tag;
            self.inner.last_tag.fetch_max(tag, Ordering::Relaxed);
            recovered.push((key, item));
        }
        let always = Condition::Always;
        let mut writes: Vec<Write<'_>> = recovered
            .iter()
            .map(|(key, item)| Write::new(key, &always, Action::Put(item)))
            .collect();
        // No engine is attached yet, so the apply logs nothing; a put of
        // `Always` can only fail on an item over this table's size limit.
        if let Err(Refused::Invalid(e) | Refused::Storage(e)) = self.apply(&mut writes) {
            return Err(e);
        }
        self.inner.durable.set(lsm).map_err(|_| attached())?;
        Ok(writes.len())
    }

    /// Logs an apply's staged writes to the durable engine, if one is
    /// attached, as one atomic WAL batch: after a crash either every
    /// write is recovered or none is (Z1 extended to disk). Called under
    /// the shard guards so the WAL order matches the apply order; an
    /// error means nothing was persisted and the caller must not apply.
    fn log_durable(&self, writes: &[Write<'_>]) -> CloudResult<()> {
        let Some(lsm) = self.inner.durable.get() else {
            return Ok(());
        };
        let batch: Vec<(String, Option<Bytes>)> = writes
            .iter()
            .filter(|w| !matches!(w.action, Action::Check))
            .map(|w| {
                (
                    w.key.to_owned(),
                    w.staged.as_ref().map(|i| i.encode().into()),
                )
            })
            .collect();
        if batch.is_empty() {
            return Ok(());
        }
        lsm.write_batch(batch).map_err(map_store_err)
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
        for kind in [FaultKind::KvThrottle, FaultKind::KvError] {
            if chaos.fire(ctx, kind) {
                self.inner.meter.fault_injected(kind.label());
                self.charge_failed_update(ctx, key);
                return Err(match kind {
                    FaultKind::KvThrottle => CloudError::Throttled,
                    _ => chaos.error(kind),
                });
            }
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

    /// The item's size, if the table takes it.
    fn check_size(&self, item: &Item) -> CloudResult<usize> {
        let size = item.size_bytes();
        if size > self.inner.limits.max_item_bytes {
            return Err(CloudError::PayloadTooLarge {
                size,
                limit: self.inner.limits.max_item_bytes,
            });
        }
        Ok(size)
    }

    /// Reads an item (strongly consistent).
    pub fn get(&self, ctx: &Ctx, key: &str) -> Option<Item> {
        let result = self.inner.shards[shard_of(key)].read().get(key).cloned();
        let size = result.as_ref().map(Item::size_bytes).unwrap_or(1);
        self.inner.meter.kv_read(size);
        ctx.charge_to(Op::KvGet, size, self.inner.region);
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
            self.check_size(&item)?;
            let refused = || self.charge_written(ctx, true, item.size_bytes());
            let mut put = Write::new(key, &condition, Action::Put(&item));
            self.write_one(ctx, &mut put, refused)?;
            self.charge_written(ctx, condition != Condition::Always, put.size);
            Ok(put.old)
        })
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
            let refused = || self.charge_failed_update(ctx, key);
            let mut done = Write::new(key, &condition, Action::Update(update, true));
            self.write_one(ctx, &mut done, refused)?;
            self.charge_written(ctx, condition != Condition::Always, done.size);
            let new = done.staged.expect("a kept update holds its new item");
            let new = new.into_owned();
            Ok(UpdateOutput { old: done.old, new })
        })
    }

    /// Conditional delete. Returns the removed item. Transient failures
    /// are retried inside.
    pub fn delete(&self, ctx: &Ctx, key: &str, condition: Condition) -> CloudResult<Option<Item>> {
        with_retry(ctx, &self.inner.meter, "kv.delete", || {
            let refused = || self.charge_failed_update(ctx, key);
            let mut done = Write::new(key, &condition, Action::Delete);
            self.write_one(ctx, &mut done, refused)?;
            self.inner.meter.kv_write(done.size);
            ctx.charge_to(Op::KvDelete, done.size, self.inner.region);
            Ok(done.old)
        })
    }

    /// Multi-item all-or-nothing transaction: one locked apply of
    /// every item — Z1's "requests never lead to partial results".
    /// Transient failures are retried inside; a `TransactionCancelled`
    /// never is.
    pub fn transact(&self, ctx: &Ctx, ops: &[TransactOp]) -> CloudResult<()> {
        with_retry(ctx, &self.inner.meter, "kv.transact", || {
            if let Some(chaos) = self.inner.chaos.get() {
                if chaos.fire(ctx, FaultKind::KvCancel) {
                    self.inner.meter.fault_injected(FaultKind::KvCancel.label());
                    self.charge_cancelled(ctx, ops);
                    // A *retryable* fault, not `TransactionCancelled`: it
                    // models DynamoDB's transient cancellation reasons
                    // (conflict, throttling), which SDKs retry against
                    // untouched state. `TransactionCancelled` always means
                    // a real condition failed.
                    return Err(chaos.error(FaultKind::KvCancel));
                }
            }
            let mut writes: Vec<Write<'_>> = ops.iter().map(Write::from).collect();
            match self.apply(&mut writes) {
                Ok(()) => {}
                Err(Refused::Invalid(e)) => return Err(e),
                Err(Refused::Storage(e)) => {
                    self.charge_cancelled(ctx, ops);
                    return Err(e);
                }
                Err(Refused::Condition(index)) => {
                    self.charge_cancelled(ctx, ops);
                    let detail = writes[index].condition.describe();
                    return Err(CloudError::TransactionCancelled { index, detail });
                }
            }
            // One metered request for the whole transaction; billing rounds
            // every item to 1 kB units independently (DynamoDB's model).
            let billed = writes.iter().filter(|w| !matches!(w.action, Action::Check));
            let sizes: Vec<usize> = billed.clone().map(|w| w.size).collect();
            let written = billed.filter(|w| !matches!(w.action, Action::Delete));
            let total: usize = written.map(|w| w.size).sum();
            self.inner.meter.kv_transact_write(&sizes);
            ctx.charge_to(Op::KvTransact, total.max(1), self.inner.region);
            Ok(())
        })
    }

    /// One single-item write: rolls the write-plane fault points, then
    /// applies. A refused condition or durable log is billed by
    /// `refused`; the caller bills the applied write.
    fn write_one(
        &self,
        ctx: &Ctx,
        write: &mut Write<'_>,
        refused: impl FnOnce(),
    ) -> CloudResult<()> {
        self.chaos_write_error(ctx, write.key)?;
        match self.apply(std::slice::from_mut(write)) {
            Ok(()) => Ok(()),
            Err(Refused::Invalid(e)) => Err(e),
            Err(Refused::Storage(e)) => {
                refused();
                Err(e)
            }
            Err(Refused::Condition(_)) => {
                refused();
                let detail = write.condition.describe();
                Err(CloudError::ConditionFailed { detail })
            }
        }
    }

    /// The one write path of the table. Locks the writes' shards in index
    /// order (no deadlocks), evaluates every condition, stages every new
    /// item, logs the staged batch to the durable engine once, applies it
    /// and accounts the stored bytes. All conditions are read from the
    /// state before the call, and nothing is applied unless every one
    /// holds, every item stages and the batch is logged. Each write is
    /// left holding the item it replaced and its billed size; billing is
    /// the caller's.
    fn apply(&self, writes: &mut [Write<'_>]) -> Result<(), Refused> {
        let locked = writes.iter().fold(0u64, |set, w| set | 1 << w.shard);
        // One guard per locked shard, in index order; a shard's guard
        // sits at its rank among them. A one-shard apply (every
        // single-item write) keeps its guard on the stack.
        let mut one = [None];
        let mut many = Vec::new();
        let guards: &mut [Option<RwLockWriteGuard<'_, Shard>>] = if locked.count_ones() == 1 {
            &mut one
        } else {
            many.resize_with(locked.count_ones() as usize, || None);
            &mut many
        };
        let mut rest = locked;
        for guard in guards.iter_mut() {
            *guard = Some(self.inner.shards[rest.trailing_zeros() as usize].write());
            rest &= rest - 1;
        }
        let slot = |shard: usize| (locked & ((1 << shard) - 1)).count_ones() as usize;
        for (index, w) in writes.iter().enumerate() {
            let shard = guards[slot(w.shard)].as_ref().expect("shard locked");
            if !w.condition.eval(shard.get(w.key)) {
                return Err(Refused::Condition(index));
            }
        }
        // Stage every new state before mutating anything: an update
        // expression can still fail on a type error, an item on its size.
        for w in writes.iter_mut() {
            let shard = guards[slot(w.shard)].as_ref().expect("shard locked");
            w.staged = match w.action {
                Action::Put(item) => Some(Cow::Borrowed(item)),
                Action::Update(update, _) => {
                    let mut item = shard.get(w.key).cloned().unwrap_or_default();
                    update.apply(&mut item).map_err(Refused::Invalid)?;
                    Some(Cow::Owned(item))
                }
                Action::Delete | Action::Check => None,
            };
            if let Some(item) = &w.staged {
                w.size = self.check_size(item).map_err(Refused::Invalid)?;
            }
        }
        self.log_durable(writes).map_err(Refused::Storage)?;
        let mut stored = 0i64;
        for w in writes.iter_mut() {
            let shard = guards[slot(w.shard)].as_mut().expect("shard locked");
            let staged = match w.action {
                Action::Check => continue,
                Action::Update(_, true) => w.staged.clone(),
                _ => w.staged.take(),
            }
            .map(Cow::into_owned);
            let new_size = staged.as_ref().map_or(0, |_| w.size);
            w.old = match staged {
                Some(item) => shard.insert(w.key.to_owned(), item),
                None => shard.remove(w.key),
            };
            let old_size = w.old.as_ref().map_or(0, Item::size_bytes);
            if matches!(w.action, Action::Delete) {
                w.size = old_size.max(1);
            }
            stored += new_size as i64 - old_size as i64;
        }
        drop((one, many));
        self.inner.meter.kv_stored_delta(stored);
        Ok(())
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
                    out.push((k.clone(), v.clone()));
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        let total: usize = out.iter().map(|(_, i)| i.size_bytes()).sum();
        self.inner.meter.kv_scan(total.max(1));
        ctx.charge_to(Op::KvScan, total.max(1), self.inner.region);
        out
    }

    /// One written item of `size` bytes. A failed conditional write is
    /// still billed and still costs a round trip.
    fn charge_written(&self, ctx: &Ctx, conditional: bool, size: usize) {
        self.inner.meter.kv_write(size);
        ctx.charge_to(Op::KvUpdate { conditional }, size, self.inner.region);
    }

    /// A failed update or delete, billed by its key.
    fn charge_failed_update(&self, ctx: &Ctx, key: &str) {
        self.inner.meter.kv_write(key.len().max(1));
        ctx.charge_to(Op::KvUpdate { conditional: true }, 64, self.inner.region);
    }

    /// A transaction that applied nothing (cancelled, refused by a
    /// condition or by the durable engine) bills like an applied one:
    /// DynamoDB consumes write units for every item of a cancelled
    /// TransactWriteItems, here at each item's estimated size.
    fn charge_cancelled(&self, ctx: &Ctx, ops: &[TransactOp]) {
        let estimate = |op: &TransactOp| match op {
            TransactOp::Put { item, .. } => item.size_bytes(),
            _ => 64,
        };
        let sizes: Vec<usize> = ops.iter().map(estimate).collect();
        self.inner.meter.kv_transact_write(&sizes);
        let total: usize = sizes.iter().sum();
        ctx.charge_to(Op::KvTransact, total.max(1), self.inner.region);
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
        let got = kv.get(&ctx, "a").unwrap();
        assert_eq!(got.num("v"), Some(1));
        assert!(kv.get(&ctx, "missing").is_none());
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
        assert_eq!(kv.get(&ctx, "a").unwrap().num("v"), Some(1));
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
        assert_eq!(kv.get(&ctx, "a").unwrap().num("v"), Some(1));
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
        assert!(!kv.get(&ctx, "a").unwrap().contains("x"));
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
            kv.get(&ctx, "parent")
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
            kv.get(&ctx, "parent")
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
        assert!(kv.get(&ctx, "x").is_some());
    }

    #[test]
    fn scan_returns_sorted_items() {
        let (kv, ctx) = store();
        for k in ["b", "a", "c"] {
            kv.put(&ctx, k, Item::new().with("k", k), Condition::Always)
                .unwrap();
        }
        let all = kv.scan_prefix(&ctx, "");
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
        kv.get(&ctx, "a");
        let s = meter.snapshot();
        assert_eq!(s.kv_write_units, 2); // 2004 bytes → 2 units
        assert!((s.kv_read_units - 1.0).abs() < 1e-9);
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
        assert_eq!(kv.get(&ctx, "a").unwrap().num("v"), Some(1));
        assert_eq!(kv.get(&ctx, "ctr").unwrap().num("n"), Some(8));
        assert_eq!(kv.get(&ctx, "tx1").unwrap().num("v"), Some(10));
        assert!(kv.get(&ctx, "gone").is_none());
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
        assert!(kv.get(&ctx, "b").is_none());
        assert_eq!(kv.get(&ctx, "a").unwrap().num("v"), Some(1));
        // Single-item writes fail the same way without applying.
        let err = kv
            .put(&ctx, "c", Item::new().with("v", 3i64), Condition::Always)
            .unwrap_err();
        assert!(matches!(err, CloudError::StorageFailed { .. }));
        assert!(kv.get(&ctx, "c").is_none());
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
        assert_eq!(kv.get(&ctx, "ctr").unwrap().num("n"), Some(800));
    }
}
