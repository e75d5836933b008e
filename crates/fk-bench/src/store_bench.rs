//! Storage-engine harness behind the `store_gate`: sustained write/read
//! throughput of the embedded LSM engine ([`DurableUserStore`]) against
//! the in-memory baseline ([`MemStore`]), plus the binary item
//! packing measurement for system-store node control items.
//!
//! Both stores run the identical seeded workload over the same simulated
//! device class (the LSM sits on [`fk_store::SimStorage`], so the
//! comparison isolates *engine* cost — WAL framing, CRC, memtable,
//! flush, compaction, SST reads — from physical disk latency). The gate
//! pins the durable engine within a small constant factor of the
//! baseline rather than at an absolute ops/s, so it holds on slow CI
//! hardware.

use fk_cloud::metering::Meter;
use fk_cloud::trace::Ctx;
use fk_cloud::value::{Item, Value};
use fk_cloud::{CloudResult, MemStore, Region};
use fk_core::durable::DurableUserStore;
use fk_core::user_store::{NodeRecord, UserStore};
use fk_store::{varint, FsyncPolicy, LsmConfig, SimStorage};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One store-throughput measurement configuration.
#[derive(Debug, Clone)]
pub struct StoreBenchConfig {
    /// Distinct node paths in the working set.
    pub paths: usize,
    /// Single-record writes issued (round-robin over the paths).
    pub writes: usize,
    /// Shard-batch writes issued after the singles.
    pub batches: usize,
    /// Records per batch.
    pub batch_size: usize,
    /// Point reads issued over the written paths.
    pub reads: usize,
    /// Payload bytes per record.
    pub value_bytes: usize,
    /// Workload seed.
    pub seed: u64,
}

impl StoreBenchConfig {
    /// The gate's standard shape: a 512-path working set, 4096 single
    /// writes + 512 × 8 batched writes (so every path is overwritten
    /// several times and the engine must flush and compact), then 8192
    /// point reads.
    pub fn standard() -> Self {
        StoreBenchConfig {
            paths: 512,
            writes: 4096,
            batches: 512,
            batch_size: 8,
            reads: 8192,
            value_bytes: 256,
            seed: 0x0005_704E,
        }
    }
}

/// Throughput of one store under the seeded workload.
#[derive(Debug, Clone)]
pub struct StoreRunResult {
    /// Records written (singles + batched).
    pub records_written: usize,
    /// Point reads served.
    pub reads: usize,
    /// Wall time of the write phase.
    pub write_elapsed: Duration,
    /// Wall time of the read phase.
    pub read_elapsed: Duration,
}

impl StoreRunResult {
    /// Records written per second.
    pub fn write_ops_per_sec(&self) -> f64 {
        self.records_written as f64 / self.write_elapsed.as_secs_f64().max(1e-9)
    }

    /// Point reads per second.
    pub fn read_ops_per_sec(&self) -> f64 {
        self.reads as f64 / self.read_elapsed.as_secs_f64().max(1e-9)
    }
}

fn bench_record(rng: &mut SmallRng, path: String, value_bytes: usize) -> NodeRecord {
    let mut data = vec![0u8; value_bytes];
    rng.fill_bytes(&mut data);
    NodeRecord {
        path,
        data: bytes::Bytes::from(data),
        created_txid: rng.gen_range(1u64..1_000_000),
        modified_txid: rng.gen_range(1u64..1_000_000),
        version: rng.gen_range(0i32..128),
        children: Arc::new(Vec::new()),
        children_txid: 0,
        ephemeral_owner: None,
        epoch_marks: Arc::new(Vec::new()),
    }
}

/// Drives the seeded write + read workload through `store`, writing
/// batches with `write_batch`, and times the two phases.
pub fn run_store_bench(
    store: &dyn UserStore,
    write_batch: impl Fn(&Ctx, &[NodeRecord]) -> CloudResult<()>,
    config: &StoreBenchConfig,
) -> StoreRunResult {
    let ctx = Ctx::disabled();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let paths: Vec<String> = (0..config.paths)
        .map(|i| format!("/bench/{:03}/{:03}", i % 32, i))
        .collect();

    let write_start = Instant::now();
    for i in 0..config.writes {
        let rec = bench_record(&mut rng, paths[i % paths.len()].clone(), config.value_bytes);
        store.write_node(&ctx, &rec).expect("bench write");
    }
    let mut records_written = config.writes;
    for b in 0..config.batches {
        let recs: Vec<NodeRecord> = (0..config.batch_size)
            .map(|j| {
                let path = paths[(b * config.batch_size + j) % paths.len()].clone();
                bench_record(&mut rng, path, config.value_bytes)
            })
            .collect();
        write_batch(&ctx, &recs).expect("bench batch");
        records_written += recs.len();
    }
    let write_elapsed = write_start.elapsed();

    let read_start = Instant::now();
    let mut read_bytes = 0usize;
    for i in 0..config.reads {
        let path = &paths[(i * 7) % paths.len()];
        let rec = store
            .read_node(&ctx, path)
            .expect("bench read")
            .expect("bench path present");
        read_bytes += rec.data.len();
    }
    let read_elapsed = read_start.elapsed();
    assert!(read_bytes > 0, "reads returned payloads");

    StoreRunResult {
        records_written,
        reads: config.reads,
        write_elapsed,
        read_elapsed,
    }
}

/// The baseline/durable pair measured under the same workload.
#[derive(Debug, Clone)]
pub struct StoreComparison {
    /// In-memory baseline.
    pub mem: StoreRunResult,
    /// LSM engine on a simulated device.
    pub durable: StoreRunResult,
}

impl StoreComparison {
    /// `mem write ops/s ÷ durable write ops/s` — the engine's write cost
    /// as a constant factor over the hashmap baseline.
    pub fn write_slowdown(&self) -> f64 {
        self.mem.write_ops_per_sec() / self.durable.write_ops_per_sec().max(1e-9)
    }

    /// `mem read ops/s ÷ durable read ops/s`.
    pub fn read_slowdown(&self) -> f64 {
        self.mem.read_ops_per_sec() / self.durable.read_ops_per_sec().max(1e-9)
    }
}

/// The LSM geometry the gate measures: 4 kiB blocks as in production,
/// but a 64 kiB memtable — the standard workload's 512-path working set
/// holds ~160 kiB of live record frames, so the memtable overflows
/// repeatedly and the measured write path includes flushes, SST builds
/// and L0→L1 compactions, not just memtable inserts. Flush/compaction
/// run synchronously so the run is deterministic; fsync stays
/// [`FsyncPolicy::Always`] (group commit), the deployment default — the
/// gate prices durability honestly.
pub fn gate_lsm_config() -> LsmConfig {
    LsmConfig {
        memtable_bytes: 64 << 10,
        sst_target_bytes: 64 << 10,
        background_compaction: false,
        fsync: FsyncPolicy::Always,
        ..LsmConfig::default()
    }
}

/// Runs the workload against [`MemStore`] (a batch is a write per
/// record) and [`DurableUserStore`] (a batch is one group commit)
/// (fresh [`SimStorage`] device, [`gate_lsm_config`] geometry). Returns
/// the comparison plus the engine's post-run counters so callers can
/// check the workload actually exercised flush/compaction.
pub fn compare_stores(config: &StoreBenchConfig) -> (StoreComparison, fk_store::LsmStats) {
    let region = Region::US_EAST_1;
    let mem = MemStore::new(region, Meter::new());
    let per_record =
        |ctx: &Ctx, batch: &[NodeRecord]| batch.iter().try_for_each(|r| mem.write_node(ctx, r));
    let mem_result = run_store_bench(&mem, per_record, config);

    let durable = DurableUserStore::open(
        Arc::new(SimStorage::new()),
        gate_lsm_config(),
        region,
        Meter::new(),
    )
    .expect("fresh simulated device opens");
    let durable_result = run_store_bench(
        &durable,
        |ctx, batch| durable.write_batch(ctx, batch),
        config,
    );
    let stats = durable.stats();

    (
        StoreComparison {
            mem: mem_result,
            durable: durable_result,
        },
        stats,
    )
}

/// Encoded sizes of the system-store node control item under the
/// per-attribute layout (one named attribute per field, as the system
/// store writes it) versus a packed single-attribute layout (all scalar
/// control fields varint-packed into one binary attribute).
#[derive(Debug, Clone)]
pub struct PackingComparison {
    /// Items measured.
    pub items: usize,
    /// Total encoded bytes, one attribute per control field.
    pub per_attribute_bytes: usize,
    /// Total encoded bytes, one packed binary attribute.
    pub packed_bytes: usize,
}

impl PackingComparison {
    /// `per_attribute_bytes ÷ packed_bytes`.
    pub fn ratio(&self) -> f64 {
        self.per_attribute_bytes as f64 / (self.packed_bytes.max(1)) as f64
    }

    /// Attribute-name + tag overhead per item under the per-attribute
    /// layout, in bytes.
    pub fn overhead_per_item(&self) -> f64 {
        (self.per_attribute_bytes.saturating_sub(self.packed_bytes)) as f64
            / (self.items.max(1)) as f64
    }
}

/// The scalar control fields of a node item: creation txid, version,
/// data-version counter, children txid and child count.
type ControlFields = [u64; 5];

fn pack_control_fields(fields: &ControlFields) -> Vec<u8> {
    let mut packed = Vec::new();
    for field in fields {
        varint::write(&mut packed, *field);
    }
    packed
}

fn unpack_control_fields(buf: &[u8]) -> Option<ControlFields> {
    let mut pos = 0usize;
    let mut fields = [0u64; 5];
    for field in &mut fields {
        *field = varint::read(buf, &mut pos)?;
    }
    (pos == buf.len()).then_some(fields)
}

/// Encodes `items` seeded node control items through both layouts. Every
/// packed item is also unpacked and checked field-for-field against its
/// per-attribute twin, so the size claim can never outrun correctness.
pub fn compare_item_packing(seed: u64, items: usize) -> PackingComparison {
    use fk_core::system_store::node_attr;

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut per_attribute_bytes = 0usize;
    let mut packed_bytes = 0usize;
    for i in 0..items {
        let created = rng.gen_range(1u64..1_000_000);
        let version = created + rng.gen_range(0u64..10_000);
        let vcount = rng.gen_range(0u64..512);
        let children_txid = version + rng.gen_range(0u64..100);
        let num_children = rng.gen_range(0u64..6);

        // The layout the system store writes today: one named attribute
        // per control field (attr names + per-value tags on the wire).
        // The children's names are not in the item, only their count.
        let per_attr = Item::new()
            .with(node_attr::CREATED, created as i64)
            .with(node_attr::VERSION, version as i64)
            .with(node_attr::VCOUNT, vcount as i64)
            .with(node_attr::CHILDREN_TXID, children_txid as i64)
            .with(node_attr::NUM_CHILDREN, num_children as i64);
        per_attribute_bytes += per_attr.encode().len();

        // The packed alternative: one binary attribute, varint fields.
        let fields = [created, version, vcount, children_txid, num_children];
        let blob = pack_control_fields(&fields);
        assert_eq!(
            unpack_control_fields(&blob),
            Some(fields),
            "packing seed {seed:#x} item {i}: packed fields diverged"
        );
        let packed = Item::new().with("ctl", Value::Bin(bytes::Bytes::from(blob)));
        packed_bytes += packed.encode().len();
    }
    PackingComparison {
        items,
        per_attribute_bytes,
        packed_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_bench_runs_identical_work_on_both_backends() {
        let config = StoreBenchConfig {
            paths: 32,
            writes: 128,
            batches: 16,
            batch_size: 4,
            reads: 128,
            value_bytes: 64,
            ..StoreBenchConfig::standard()
        };
        let (cmp, _stats) = compare_stores(&config);
        assert_eq!(cmp.mem.records_written, cmp.durable.records_written);
        assert_eq!(cmp.mem.reads, cmp.durable.reads);
        assert!(cmp.write_slowdown() > 0.0);
    }

    #[test]
    fn item_packing_comparison_is_deterministic_and_packed_is_smaller() {
        let a = compare_item_packing(0xBEEF, 64);
        let b = compare_item_packing(0xBEEF, 64);
        assert_eq!(a.per_attribute_bytes, b.per_attribute_bytes);
        assert_eq!(a.packed_bytes, b.packed_bytes);
        assert!(
            a.ratio() > 1.0,
            "per-attribute {} B vs packed {} B",
            a.per_attribute_bytes,
            a.packed_bytes
        );
    }
}
