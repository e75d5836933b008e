//! Acceptance gate for the embedded LSM engine: on the identical seeded
//! workload (4096 single writes + 512 × 8 batched writes over a
//! 512-path working set, then 8192 point reads), the durable engine
//! must stay within a small constant factor of the in-memory baseline —
//! write throughput within 40×, read throughput within 100× — while the
//! workload demonstrably exercises flush, SST build and compaction (the
//! counters are asserted, so the gate can't pass on a memtable-only
//! run). The node-control-item packing comparison rides along: the
//! per-attribute layout must cost ≥ 1.5× the packed single-attribute
//! bytes, which is the margin recorded in `docs/benchmarks.md` §10.
//!
//! Factors are deliberately generous: the baseline is a lock-guarded
//! hashmap clone, the engine CRC-frames every record into a WAL, group
//! commits, flushes sorted runs and merges levels. The gate exists to
//! catch order-of-magnitude regressions (accidental O(n) scans, lost
//! batching, per-key fsync), not to benchmark the hardware. Measured
//! numbers live in `BENCH_store.json`.

use fk_bench::store_bench::{compare_item_packing, compare_stores, StoreBenchConfig};

#[test]
fn durable_engine_throughput_is_within_constant_factor_of_mem() {
    let config = StoreBenchConfig::standard();
    let stamp = format!(
        "store gate seed {:#x} paths {} writes {} batches {}x{} reads {}",
        config.seed, config.paths, config.writes, config.batches, config.batch_size, config.reads
    );
    let (cmp, stats) = compare_stores(&config);
    println!(
        "mem: {:.0} writes/s, {:.0} reads/s | durable: {:.0} writes/s, {:.0} reads/s | \
         slowdown {:.1}x write, {:.1}x read | {} flushes, {} compactions, L0 {} L1 {}",
        cmp.mem.write_ops_per_sec(),
        cmp.mem.read_ops_per_sec(),
        cmp.durable.write_ops_per_sec(),
        cmp.durable.read_ops_per_sec(),
        cmp.write_slowdown(),
        cmp.read_slowdown(),
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
        cmp.write_slowdown() <= 40.0,
        "{stamp}: durable write throughput fell past 40x of MemStore \
         ({:.0} vs {:.0} writes/s, {:.1}x)",
        cmp.durable.write_ops_per_sec(),
        cmp.mem.write_ops_per_sec(),
        cmp.write_slowdown(),
    );
    assert!(
        cmp.read_slowdown() <= 100.0,
        "{stamp}: durable read throughput fell past 100x of MemStore \
         ({:.0} vs {:.0} reads/s, {:.1}x)",
        cmp.durable.read_ops_per_sec(),
        cmp.mem.read_ops_per_sec(),
        cmp.read_slowdown(),
    );
}

#[test]
fn packed_control_item_is_at_least_1_5x_smaller() {
    let cmp = compare_item_packing(0x17E4, 512);
    println!(
        "packing: {} items, per-attribute {} B vs packed {} B — {:.2}x, {:.1} B overhead/item",
        cmp.items,
        cmp.per_attribute_bytes,
        cmp.packed_bytes,
        cmp.ratio(),
        cmp.overhead_per_item(),
    );
    assert!(
        cmp.ratio() >= 1.5,
        "packing gate seed 0x17e4: expected per-attribute layout >=1.5x of packed \
         bytes: {} B vs {} B ({:.2}x)",
        cmp.per_attribute_bytes,
        cmp.packed_bytes,
        cmp.ratio(),
    );
}
