//! Acceptance gate for the embedded LSM engine: on the identical seeded
//! workload (4096 single writes + 512 × 8 batched writes over a
//! 512-path working set, then 8192 point reads), the durable engine
//! must stay within a small constant factor of the in-memory baseline —
//! write throughput within 40×, read throughput within 100× — while the
//! workload demonstrably exercises flush, SST build and compaction (the
//! counters are asserted, so the gate can't pass on a memtable-only
//! run).
//!
//! Both stores run the identical seeded workload over the same simulated
//! device class (the LSM sits on [`SimStorage`], so the comparison
//! isolates *engine* cost — WAL framing, CRC, memtable, flush,
//! compaction, SST reads — from physical disk latency).
//!
//! Factors are deliberately generous: the baseline is a lock-guarded
//! hashmap clone, the engine CRC-frames every record into a WAL, group
//! commits, flushes sorted runs and merges levels. The gate exists to
//! catch order-of-magnitude regressions (accidental O(n) scans, lost
//! batching, per-key fsync), not to benchmark the hardware, so it pins
//! ratios, not ops/s. `-- --nocapture` prints the measured numbers.

use fk_cloud::metering::Meter;
use fk_cloud::trace::Ctx;
use fk_cloud::{CloudResult, MemStore, Region};
use fk_core::durable::DurableUserStore;
use fk_core::user_store::{NodeRecord, UserStore};
use fk_store::{FsyncPolicy, LsmConfig, LsmStats, SimStorage};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The gate's working set: every path is written `SINGLE_WRITES` times
/// singly and `BATCH_SIZE` times in batches, so the engine must flush
/// and compact, then read `READS` times.
const PATHS: usize = 512;
const SINGLE_WRITES: usize = 8;
const BATCH_SIZE: usize = 8;
const READS: usize = 16;
/// Payload bytes per record.
const VALUE_BYTES: usize = 256;
const SEED: u64 = 0x0005_704E;

/// Throughput of one store under the seeded workload.
struct StoreRunResult {
    /// Records written (singles + batched).
    records_written: usize,
    /// Point reads served.
    reads: usize,
    /// Wall time of the write phase.
    write_elapsed: Duration,
    /// Wall time of the read phase.
    read_elapsed: Duration,
}

impl StoreRunResult {
    fn write_ops_per_sec(&self) -> f64 {
        self.records_written as f64 / self.write_elapsed.as_secs_f64().max(1e-9)
    }

    fn read_ops_per_sec(&self) -> f64 {
        self.reads as f64 / self.read_elapsed.as_secs_f64().max(1e-9)
    }
}

fn bench_record(rng: &mut SmallRng, path: String) -> NodeRecord {
    let mut data = vec![0u8; VALUE_BYTES];
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

/// Drives the seeded workload over `paths` paths through `store`,
/// writing batches with `write_batch`, and times the two phases.
fn run_store_bench(
    store: &dyn UserStore,
    write_batch: impl Fn(&Ctx, &[NodeRecord]) -> CloudResult<()>,
    paths: usize,
) -> StoreRunResult {
    let ctx = Ctx::disabled();
    let mut rng = SmallRng::seed_from_u64(SEED);
    let paths: Vec<String> = (0..paths)
        .map(|i| format!("/bench/{:03}/{:03}", i % 32, i))
        .collect();
    let (writes, batches, reads) = (
        SINGLE_WRITES * paths.len(),
        paths.len(),
        READS * paths.len(),
    );

    let write_start = Instant::now();
    for i in 0..writes {
        let rec = bench_record(&mut rng, paths[i % paths.len()].clone());
        store.write_node(&ctx, &rec).expect("bench write");
    }
    let mut records_written = writes;
    for b in 0..batches {
        let recs: Vec<NodeRecord> = (0..BATCH_SIZE)
            .map(|j| bench_record(&mut rng, paths[(b * BATCH_SIZE + j) % paths.len()].clone()))
            .collect();
        write_batch(&ctx, &recs).expect("bench batch");
        records_written += recs.len();
    }
    let write_elapsed = write_start.elapsed();

    let read_start = Instant::now();
    let mut read_bytes = 0usize;
    for i in 0..reads {
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
        reads,
        write_elapsed,
        read_elapsed,
    }
}

/// Runs the workload against [`MemStore`] (a batch is a write per
/// record) and [`DurableUserStore`] (a batch is one group commit) on a
/// fresh [`SimStorage`] device. The LSM geometry: 4 kiB blocks as in
/// production, but a 64 kiB memtable — the gate's working set holds
/// ~160 kiB of live record frames, so the measured write path includes
/// flushes, SST builds and L0→L1 compactions, not just memtable inserts.
/// Flush/compaction run synchronously so the run is deterministic; fsync
/// stays [`FsyncPolicy::Always`] (group commit), the deployment default.
/// Returns `(mem, durable, engine counters)`.
fn compare_stores(paths: usize) -> (StoreRunResult, StoreRunResult, LsmStats) {
    let region = Region::US_EAST_1;
    let mem = MemStore::new(region, Meter::new());
    let per_record =
        |ctx: &Ctx, batch: &[NodeRecord]| batch.iter().try_for_each(|r| mem.write_node(ctx, r));
    let mem_result = run_store_bench(&mem, per_record, paths);

    let config = LsmConfig {
        memtable_bytes: 64 << 10,
        sst_target_bytes: 64 << 10,
        background_compaction: false,
        fsync: FsyncPolicy::Always,
        ..LsmConfig::default()
    };
    let durable = DurableUserStore::open(Arc::new(SimStorage::new()), config, region, Meter::new())
        .expect("fresh simulated device opens");
    let durable_result = run_store_bench(
        &durable,
        |ctx, batch| durable.write_batch(ctx, batch),
        paths,
    );
    (mem_result, durable_result, durable.stats())
}

#[test]
fn store_bench_runs_identical_work_on_both_backends() {
    let (mem, durable, _) = compare_stores(32);
    assert_eq!(mem.records_written, durable.records_written);
    assert_eq!(mem.reads, durable.reads);
    assert!(mem.write_ops_per_sec() / durable.write_ops_per_sec() > 0.0);
}

#[test]
fn durable_engine_throughput_is_within_constant_factor_of_mem() {
    let stamp = format!(
        "store gate seed {SEED:#x} paths {PATHS} writes {} batches {PATHS}x{BATCH_SIZE} reads {}",
        SINGLE_WRITES * PATHS,
        READS * PATHS
    );
    let (mem, durable, stats) = compare_stores(PATHS);
    let write_slowdown = mem.write_ops_per_sec() / durable.write_ops_per_sec().max(1e-9);
    let read_slowdown = mem.read_ops_per_sec() / durable.read_ops_per_sec().max(1e-9);
    println!(
        "mem: {:.0} writes/s, {:.0} reads/s | durable: {:.0} writes/s, {:.0} reads/s | \
         slowdown {write_slowdown:.1}x write, {read_slowdown:.1}x read | \
         {} flushes, {} compactions, L0 {} L1 {}",
        mem.write_ops_per_sec(),
        mem.read_ops_per_sec(),
        durable.write_ops_per_sec(),
        durable.read_ops_per_sec(),
        stats.flushes,
        stats.compactions,
        stats.l0_files,
        stats.l1_files,
    );
    assert!(
        stats.flushes > 0 && stats.compactions > 0,
        "{stamp}: workload must overflow the memtable and trigger compaction \
         so the measured write path includes flush/SST/merge cost (saw {stats:?})"
    );
    assert!(
        write_slowdown <= 40.0,
        "{stamp}: durable write throughput fell past 40x of MemStore \
         ({:.0} vs {:.0} writes/s, {write_slowdown:.1}x)",
        durable.write_ops_per_sec(),
        mem.write_ops_per_sec(),
    );
    assert!(
        read_slowdown <= 100.0,
        "{stamp}: durable read throughput fell past 100x of MemStore \
         ({:.0} vs {:.0} reads/s, {read_slowdown:.1}x)",
        durable.read_ops_per_sec(),
        mem.read_ops_per_sec(),
    );
}
