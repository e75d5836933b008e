//! Durable user-store backend on the embedded LSM engine.
//!
//! [`DurableUserStore`] plugs [`fk_store::Lsm`] in under the existing
//! [`UserStore`] trait: every node record is persisted as one LSM
//! entry keyed by path (value = the binary node frame,
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
//! tag is its hash ([`content_tag`]), which survives recovery and is
//! computed on the tagged surface only. Mutations run one at a time, so
//! a conditional write's check and put are one step.
//!
//! [`ChaosDiskInjector`] adapts the deployment's seeded chaos engine
//! onto the engine's [`fk_store::FaultInjector`] hook, arming the
//! three disk fault points (`disk_fsync_fail`, `disk_wal_tear`,
//! `disk_sst_partial`) from the same [`fk_cloud::chaos::FaultPlan`]
//! that drives every other service boundary.

use crate::user_store::{
    coalesce_last_per_path, dedupe_paths, descendant_prefix, NodeRecord, ScanEntry, UserStore,
    UserStoreKind,
};
use bytes::Bytes;
use fk_cloud::chaos::{Chaos, FaultKind};
use fk_cloud::metering::Meter;
use fk_cloud::objectstore::{content_tag, Precondition, Tag};
use fk_cloud::trace::Ctx;
use fk_cloud::{CloudError, CloudResult, Op, Region};
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
    /// Wraps an already-opened engine.
    pub fn new(lsm: Lsm, region: Region, meter: Meter) -> Self {
        DurableUserStore {
            lsm,
            region,
            meter,
            writes: Arc::default(),
        }
    }

    /// Opens an engine on `storage` with `config` and wraps it — the
    /// entry point recovery tests use to reopen the same device.
    pub fn open(
        storage: Arc<dyn Storage>,
        config: LsmConfig,
        region: Region,
        meter: Meter,
    ) -> CloudResult<Self> {
        let lsm = Lsm::open(storage, config).map_err(map_store_err)?;
        Ok(Self::new(lsm, region, meter))
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

    fn charge_put(&self, ctx: &Ctx, size: usize) {
        self.meter.mem_op();
        ctx.charge_to(Op::MemPut, size.max(1), self.region);
    }

    fn charge_get(&self, ctx: &Ctx, size: usize) {
        self.meter.mem_op();
        ctx.charge_to(Op::MemGet, size.max(1), self.region);
    }

    /// Reads `path`'s record, with its frame, charged as one read.
    fn get(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<(NodeRecord, Bytes)>> {
        let Some(frame) = self.lsm.get(path).map_err(map_store_err)? else {
            self.charge_get(ctx, 1);
            return Ok(None);
        };
        self.charge_get(ctx, frame.len());
        match crate::codec::decode_node(&frame) {
            Some(record) => Ok(Some((record, frame))),
            None => Err(CloudError::StorageFailed {
                detail: format!("undecodable persisted node frame at {path:?}"),
            }),
        }
    }

    /// Puts `record` if `precondition` holds for the stored frame's tag,
    /// checked under the write lock.
    fn put(
        &self,
        ctx: &Ctx,
        record: &NodeRecord,
        precondition: Option<Precondition>,
    ) -> CloudResult<Bytes> {
        let frame = crate::codec::encode_node(record);
        let _writes = self.writes.lock();
        if let Some(precondition) = precondition {
            let stored = self.lsm.get(&record.path).map_err(map_store_err)?;
            let current = stored.as_deref().map(content_tag);
            if !precondition.holds(current) {
                self.charge_put(ctx, frame.len());
                let detail = format!("{precondition:?} on {} (stored: {current:?})", record.path);
                return Err(CloudError::ConditionFailed { detail });
            }
        }
        self.lsm
            .put(&record.path, frame.clone())
            .map_err(map_store_err)?;
        self.charge_put(ctx, frame.len());
        Ok(frame)
    }
}

impl UserStore for DurableUserStore {
    fn write_node(&self, ctx: &Ctx, record: &NodeRecord) -> CloudResult<()> {
        self.put(ctx, record, None).map(drop)
    }

    fn write_node_if(
        &self,
        ctx: &Ctx,
        record: &NodeRecord,
        precondition: Precondition,
    ) -> CloudResult<Tag> {
        Ok(content_tag(&self.put(ctx, record, Some(precondition))?))
    }

    fn read_node(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<NodeRecord>> {
        Ok(self.get(ctx, path)?.map(|(record, _)| record))
    }

    fn read_tagged(&self, ctx: &Ctx, path: &str) -> CloudResult<Option<(NodeRecord, Tag)>> {
        Ok(self
            .get(ctx, path)?
            .map(|(record, frame)| (record, content_tag(&frame))))
    }

    fn delete_node(&self, ctx: &Ctx, path: &str) -> CloudResult<()> {
        let _writes = self.writes.lock();
        self.lsm.delete(path).map_err(map_store_err)?;
        self.charge_put(ctx, 1);
        Ok(())
    }

    /// Batched writes commit as **one WAL record** (one fsync for the
    /// whole batch): group commit.
    fn write_batch(&self, ctx: &Ctx, records: &[NodeRecord]) -> CloudResult<()> {
        let finals = coalesce_last_per_path(records);
        if finals.is_empty() {
            return Ok(());
        }
        let mut size = 0usize;
        let entries: Vec<(String, Option<Bytes>)> = finals
            .into_iter()
            .map(|record| {
                let frame = crate::codec::encode_node(record);
                size += frame.len();
                (record.path.clone(), Some(frame))
            })
            .collect();
        let _writes = self.writes.lock();
        self.lsm.write_batch(entries).map_err(map_store_err)?;
        self.charge_put(ctx, size);
        Ok(())
    }

    fn delete_batch(&self, ctx: &Ctx, paths: &[String]) -> CloudResult<()> {
        let paths = dedupe_paths(paths);
        if paths.is_empty() {
            return Ok(());
        }
        let entries: Vec<(String, Option<Bytes>)> =
            paths.into_iter().map(|p| (p.clone(), None)).collect();
        let n = entries.len();
        let _writes = self.writes.lock();
        self.lsm.write_batch(entries).map_err(map_store_err)?;
        self.charge_put(ctx, n);
        Ok(())
    }

    fn scan_subtree(&self, ctx: &Ctx, root: &str) -> CloudResult<Vec<ScanEntry>> {
        let mut out = Vec::new();
        let mut total = 0usize;
        if root != "/" {
            if let Some(bytes) = self.lsm.get(root).map_err(map_store_err)? {
                total += bytes.len();
                out.extend(crate::codec::decode_node_summary(&bytes).map(ScanEntry::from));
            }
        }
        for (_, bytes) in self
            .lsm
            .scan_prefix(&descendant_prefix(root))
            .map_err(map_store_err)?
        {
            total += bytes.len();
            out.extend(crate::codec::decode_node_summary(&bytes).map(ScanEntry::from));
        }
        self.charge_get(ctx, total);
        Ok(out)
    }

    fn region(&self) -> Region {
        self.region
    }

    fn kind(&self) -> UserStoreKind {
        UserStoreKind::Durable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            assert_eq!(store.kind(), UserStoreKind::Durable);
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

    #[test]
    fn chaos_injector_arms_disk_fault_points() {
        let mut plan = FaultPlan::disabled();
        plan.disk_fsync_fail = FaultSpec::new(1.0, 2);
        let chaos = Chaos::from_plan(plan).unwrap();
        let meter = Meter::new();
        let store =
            DurableUserStore::open_sim(Region::US_EAST_1, meter.clone(), Some(&chaos)).unwrap();
        let ctx = Ctx::disabled();
        let mut failures = 0;
        for i in 0..6 {
            if store
                .write_node(&ctx, &record(&format!("/n{i}"), 8))
                .is_err()
            {
                failures += 1;
            }
        }
        assert_eq!(failures, 2, "budget caps injected fsync failures");
        assert_eq!(chaos.fired(FaultKind::DiskFsyncFail), 2);
        assert_eq!(
            meter
                .snapshot()
                .per_op
                .get("fault:disk_fsync_fail")
                .copied()
                .unwrap_or(0),
            2
        );
        // Every write after the budget drains lands durably.
        assert!(store.read_node(&ctx, "/n5").unwrap().is_some());
    }
}
