//! Durable user-store backend on the embedded LSM engine.
//!
//! [`DurableUserStore`] plugs [`fk_store::Lsm`] in as a
//! [`FrameStore`]: every node record is persisted as one LSM entry
//! keyed by path (value = the binary node frame,
//! [`crate::codec::encode_node`]), every mutation batch is one WAL
//! record / one fsync, and recovery replays the log — so the
//! distributor pipeline, the client library and the read path run
//! unchanged over a backend that survives kills at any storage
//! operation (the `store_recovery_properties` suite proves the
//! recovered tree byte-identical to an unkilled twin).
//!
//! Metering follows [`fk_cloud::MemStore`]: the engine is a node-local
//! resource (Requirement #8's provisioned tier, but durable), so ops
//! meter as `mem_op` / `Op::MemPut` / `Op::MemGet` rather than billed
//! cloud round trips. Like the cache, the store keeps no tags: a frame's
//! tag is its hash ([`content_tag`]), which survives recovery. Mutations
//! run one at a time, so a conditional write's check and put are one
//! step.
//!
//! [`ChaosDiskInjector`] adapts the deployment's seeded chaos engine
//! onto the engine's [`fk_store::FaultInjector`] hook, arming the
//! three disk fault points (`disk_fsync_fail`, `disk_wal_tear`,
//! `disk_sst_partial`) from the same [`fk_cloud::chaos::FaultPlan`]
//! that drives every other service boundary.

use crate::user_store::{hashed, root_and_descendants, FrameStore, NodeRecord};
use bytes::Bytes;
use fk_cloud::chaos::{Chaos, FaultKind};
use fk_cloud::metering::Meter;
use fk_cloud::objectstore::{content_tag, Precondition, Tag};
use fk_cloud::trace::Ctx;
use fk_cloud::{with_retry, CloudError, CloudResult, Op, Region};
use fk_store::{DiskFault, FaultInjector, Lsm, LsmConfig, LsmStats, SimStorage, Storage};
use std::sync::Arc;

/// Adapts the deployment's chaos engine onto the storage engine's
/// injector hook. Rolls are drawn from a dedicated disabled context so
/// the injector is usable from any thread (flush, background
/// compaction) without borrowing a request context.
pub struct ChaosDiskInjector {
    chaos: Arc<Chaos>,
    ctx: Ctx,
    meter: Option<Meter>,
}

impl ChaosDiskInjector {
    /// Wraps a chaos engine; fired faults are recorded on `meter` like
    /// every other injected fault.
    pub fn new(chaos: Arc<Chaos>, meter: Option<Meter>) -> Self {
        ChaosDiskInjector {
            chaos,
            ctx: Ctx::disabled(),
            meter,
        }
    }

    fn kind(fault: DiskFault) -> FaultKind {
        match fault {
            DiskFault::FsyncFail => FaultKind::DiskFsyncFail,
            DiskFault::WalTear => FaultKind::DiskWalTear,
            DiskFault::SstPartial => FaultKind::DiskSstPartial,
        }
    }
}

impl FaultInjector for ChaosDiskInjector {
    fn fire(&self, fault: DiskFault) -> bool {
        let kind = Self::kind(fault);
        let fired = self.chaos.fire(&self.ctx, kind);
        if fired {
            if let Some(meter) = &self.meter {
                meter.fault_injected(kind.label());
            }
        }
        fired
    }
}

/// Maps an engine failure onto the cloud error surface (retryable:
/// nothing was applied and the engine repairs its WAL before the next
/// append).
fn map_store_err(e: fk_store::StoreError) -> CloudError {
    CloudError::StorageFailed {
        detail: e.to_string(),
    }
}

/// User-store backend persisting node records in the embedded LSM
/// engine. Cloning shares the engine.
#[derive(Clone)]
pub struct DurableUserStore {
    lsm: Lsm,
    region: Region,
    meter: Meter,
    /// Held by every mutation.
    writes: Arc<parking_lot::Mutex<()>>,
}

impl DurableUserStore {
    /// Opens an engine on `storage` with `config` and wraps it — the
    /// entry point recovery tests use to reopen the same device.
    pub fn open(
        storage: Arc<dyn Storage>,
        config: LsmConfig,
        region: Region,
        meter: Meter,
    ) -> CloudResult<Self> {
        let lsm = Lsm::open(storage, config).map_err(map_store_err)?;
        let writes = Arc::default();
        Ok(DurableUserStore {
            lsm,
            region,
            meter,
            writes,
        })
    }

    /// Opens a fresh simulated-device engine, optionally wired to the
    /// deployment's chaos engine — what
    /// [`UserStoreKind::Durable`](crate::user_store::UserStoreKind)
    /// deployments build.
    pub fn open_sim(region: Region, meter: Meter, chaos: Option<&Arc<Chaos>>) -> CloudResult<Self> {
        let mut config = LsmConfig::default();
        if let Some(engine) = chaos {
            config.injector = Some(Arc::new(ChaosDiskInjector::new(
                Arc::clone(engine),
                Some(meter.clone()),
            )));
        }
        Self::open(Arc::new(SimStorage::new()), config, region, meter)
    }

    /// The underlying engine (flush/compaction control in benches).
    pub fn engine(&self) -> &Lsm {
        &self.lsm
    }

    /// Engine counters (flushes, compactions, recovery stats).
    pub fn stats(&self) -> LsmStats {
        self.lsm.stats()
    }

    /// Meters one engine operation, charged like a memory-store `op`.
    fn charge(&self, ctx: &Ctx, op: Op, size: usize) {
        self.meter.mem_op();
        ctx.charge_to(op, size.max(1), self.region);
    }

    /// Writes a batch of records as **one WAL record** (one fsync for
    /// the whole batch, group commit), coalesced to the last record per
    /// path.
    pub fn write_batch(&self, ctx: &Ctx, records: &[NodeRecord]) -> CloudResult<()> {
        let finals = last_per_key(records, |r| &r.path).into_iter();
        let frames = finals.map(|r| (r.path.clone(), Some(crate::codec::encode_node(r))));
        self.commit(ctx, frames.collect())
    }

    /// Deletes a batch of paths (deduplicated, idempotent) as one WAL
    /// record.
    pub fn delete_batch(&self, ctx: &Ctx, paths: &[String]) -> CloudResult<()> {
        let deletes = last_per_key(paths, String::as_str).into_iter();
        let deletes = deletes.map(|p| (p.clone(), None));
        self.commit(ctx, deletes.collect())
    }

    /// Commits `entries` as one WAL record, charged as one put of their
    /// frames' bytes (one per delete).
    fn commit(&self, ctx: &Ctx, entries: Vec<(String, Option<Bytes>)>) -> CloudResult<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let size = entries
            .iter()
            .map(|(_, f)| f.as_ref().map_or(1, Bytes::len))
            .sum();
        let _writes = self.writes.lock();
        self.lsm.write_batch(entries).map_err(map_store_err)?;
        self.charge(ctx, Op::MemPut, size);
        Ok(())
    }
}

/// The last of `items` per key, in first-touch order: a batch coalesced
/// to the final record per path, or its paths deduplicated.
fn last_per_key<'a, T>(items: &'a [T], key: impl Fn(&'a T) -> &'a str) -> Vec<&'a T> {
    let mut order = Vec::new();
    let mut last = std::collections::HashMap::new();
    for item in items {
        if last.insert(key(item), item).is_none() {
            order.push(key(item));
        }
    }
    order.into_iter().map(|k| last[k]).collect()
}

/// Engine failures surface as retryable `StorageFailed`: each frame
/// operation retries them here, as the cloud services retry theirs.
impl FrameStore for DurableUserStore {
    fn get_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<(Bytes, Tag)>> {
        with_retry(ctx, &self.meter, "durable.get_frame", || {
            let frame = self.lsm.get(path).map_err(map_store_err)?;
            self.charge(ctx, Op::MemGet, frame.as_ref().map_or(1, Bytes::len));
            Ok(frame.map(hashed))
        })
    }

    /// Puts `frame` if `precondition` holds for the stored frame's tag,
    /// checked under the write lock.
    fn put_frame(
        &self,
        ctx: &Ctx,
        path: &str,
        frame: Bytes,
        precondition: Option<Precondition>,
    ) -> CloudResult<Tag> {
        let (size, tag) = (frame.len(), content_tag(&frame));
        with_retry(ctx, &self.meter, "durable.put_frame", || {
            let _writes = self.writes.lock();
            if let Some(precondition) = precondition {
                let stored = self.lsm.get(path).map_err(map_store_err)?;
                let current = stored.as_deref().map(content_tag);
                if !precondition.holds(current) {
                    self.charge(ctx, Op::MemPut, size);
                    let detail = format!("{precondition:?} on {path} (stored: {current:?})");
                    return Err(CloudError::ConditionFailed { detail });
                }
            }
            self.lsm.put(path, frame.clone()).map_err(map_store_err)?;
            self.charge(ctx, Op::MemPut, size);
            Ok(tag)
        })
    }

    fn delete_frame(&self, ctx: &Ctx, path: &str) -> CloudResult<()> {
        with_retry(ctx, &self.meter, "durable.delete_frame", || {
            let _writes = self.writes.lock();
            self.lsm.delete(path).map_err(map_store_err)?;
            self.charge(ctx, Op::MemPut, 1);
            Ok(())
        })
    }

    /// One engine sweep, charged as one read of every byte it returns.
    fn scan_frames(&self, ctx: &Ctx, root: &str) -> CloudResult<Vec<(String, Bytes)>> {
        with_retry(ctx, &self.meter, "durable.scan_frames", || {
            let frames = root_and_descendants(
                root,
                |root| self.lsm.get(root).map_err(map_store_err),
                |prefix| self.lsm.scan_prefix(prefix).map_err(map_store_err),
            )?;
            let size = frames.iter().map(|(_, frame)| frame.len()).sum();
            self.charge(ctx, Op::MemGet, size);
            Ok(frames)
        })
    }

    fn region(&self) -> Region {
        self.region
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user_store::UserStore;
    use fk_cloud::chaos::{FaultPlan, FaultSpec};
    use std::sync::Arc as StdArc;

    fn record(path: &str, size: usize) -> NodeRecord {
        NodeRecord {
            path: path.to_owned(),
            data: Bytes::from(vec![3u8; size]),
            created_txid: 1,
            modified_txid: 2,
            version: 1,
            children: StdArc::new(vec!["c".into()]),
            children_txid: 2,
            ephemeral_owner: None,
            epoch_marks: StdArc::new(vec![9]),
        }
    }

    #[test]
    fn durable_store_roundtrips_and_survives_reopen() {
        let dev = SimStorage::new();
        let meter = Meter::new();
        let ctx = Ctx::disabled();
        {
            let store = DurableUserStore::open(
                Arc::new(dev.clone()),
                LsmConfig::default(),
                Region::US_EAST_1,
                meter.clone(),
            )
            .unwrap();
            store.write_node(&ctx, &record("/a", 64)).unwrap();
            store
                .write_batch(
                    &ctx,
                    &[record("/a/x", 8), record("/a/y", 8), record("/b", 8)],
                )
                .unwrap();
            store.delete_node(&ctx, "/b").unwrap();
        }
        dev.crash();
        let store = DurableUserStore::open(
            Arc::new(dev.clone()),
            LsmConfig::default(),
            Region::US_EAST_1,
            meter.clone(),
        )
        .unwrap();
        let got = store.read_node(&ctx, "/a").unwrap().unwrap();
        assert_eq!(got, record("/a", 64));
        assert!(store.read_node(&ctx, "/b").unwrap().is_none());
        let entries = store.scan_subtree(&ctx, "/a").unwrap();
        let paths: Vec<&str> = entries.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, ["/a", "/a/x", "/a/y"]);
        assert!(meter.snapshot().mem_ops > 0, "ops meter like MemStore");
    }

    #[test]
    fn killed_device_surfaces_retryable_storage_error() {
        let dev = SimStorage::new();
        let ctx = Ctx::disabled();
        let store = DurableUserStore::open(
            Arc::new(dev.clone()),
            LsmConfig::default(),
            Region::US_EAST_1,
            Meter::new(),
        )
        .unwrap();
        dev.arm_kill(1, 3);
        let err = store.write_node(&ctx, &record("/n", 8)).unwrap_err();
        assert!(matches!(err, CloudError::StorageFailed { .. }));
        assert!(err.is_retryable());
    }

    /// Fired fsync failures fail attempts, not writes: the store
    /// retries each one, so every write lands.
    #[test]
    fn chaos_injector_arms_disk_fault_points() {
        let mut plan = FaultPlan::disabled();
        plan.disk_fsync_fail = FaultSpec::new(1.0, 2);
        let chaos = Chaos::from_plan(plan).unwrap();
        let meter = Meter::new();
        let store =
            DurableUserStore::open_sim(Region::US_EAST_1, meter.clone(), Some(&chaos)).unwrap();
        let ctx = Ctx::disabled();
        for i in 0..6 {
            store
                .write_node(&ctx, &record(&format!("/n{i}"), 8))
                .unwrap();
        }
        assert_eq!(chaos.fired(FaultKind::DiskFsyncFail), 2);
        let counts = meter.snapshot().per_op;
        assert_eq!(counts["fault:disk_fsync_fail"], 2);
        assert_eq!(counts["retry:durable.put_frame"], 2);
        for i in 0..6 {
            let path = format!("/n{i}");
            assert!(store.read_node(&ctx, &path).unwrap().is_some());
        }
    }

    /// One write of `/n` under `budget` injected fsync failures: its
    /// outcome, the store and the meter.
    fn write_under_fsync_faults(budget: u64) -> (CloudResult<()>, DurableUserStore, Meter) {
        let mut plan = FaultPlan::disabled();
        plan.disk_fsync_fail = FaultSpec::new(1.0, budget);
        let chaos = Chaos::from_plan(plan).unwrap();
        let meter = Meter::new();
        let store =
            DurableUserStore::open_sim(Region::US_EAST_1, meter.clone(), Some(&chaos)).unwrap();
        let written = store.write_node(&Ctx::disabled(), &record("/n", 8));
        (written, store, meter)
    }

    #[test]
    fn one_failed_fsync_costs_one_retry() {
        let (written, store, meter) = write_under_fsync_faults(1);
        written.unwrap();
        let counts = meter.snapshot().per_op;
        assert_eq!(counts["fault:disk_fsync_fail"], 1);
        assert_eq!(counts["retry:durable.put_frame"], 1);
        let stored = store.read_node(&Ctx::disabled(), "/n").unwrap();
        assert_eq!(stored, Some(record("/n", 8)));
    }

    #[test]
    fn fsync_failures_past_the_budget_surface_and_apply_nothing() {
        let (written, store, meter) = write_under_fsync_faults(5);
        let err = written.unwrap_err();
        assert!(matches!(err, CloudError::StorageFailed { .. }), "{err}");
        let snapshot = meter.snapshot();
        assert_eq!(snapshot.per_op["fault:disk_fsync_fail"], 5);
        assert_eq!(snapshot.per_op["retry:durable.put_frame"], 4);
        assert_eq!(snapshot.retries, 4);
        assert!(store.read_node(&Ctx::disabled(), "/n").unwrap().is_none());
    }
}
