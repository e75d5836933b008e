//! # fk-bench — the FaaSKeeper reproduction harness
//!
//! The paper's evaluation is one seeded test, `tests/paper_profile.rs`:
//! every Table 3 p50, the § 5.3.4 cost anchors and the claims of
//! Figs. 8–13, each measured on virtual time beside the paper's value
//! and asserted against its record (`cargo test -p fk-bench --test
//! paper_profile -- --nocapture` prints the table). The other tests
//! under `tests/` are the repository's gates, and `benches/` holds
//! criterion microbenchmarks. Shared machinery:
//!
//! * [`stats`] — percentile summaries and the profile's dollar label;
//! * [`pipeline`] — the direct-drive write pipeline that measures the
//!   follower/leader path under the calibrated latency model;
//! * [`distributor_bench`] — sequential vs. sharded+batched distribution
//!   comparison behind the `distributor_path` bench;
//! * [`read_bench`] — uncached vs. cached client read path comparison
//!   behind the `read_path` bench and its round-trip gate;
//! * [`replica_bench`] — per-session caches alone vs. the shared
//!   regional read-replica tier behind the `replica_gate`;
//! * [`chaos_soak`] — the 64-session zipf write mix under seeded fault
//!   schedules versus its fault-free twin, behind the `chaos_gate`;
//! * [`store_bench`] — LSM-engine vs in-memory store throughput and the
//!   node-control-item packing comparison behind the `store_gate`.

#![warn(missing_docs)]

pub mod chaos_soak;
pub mod distributor_bench;
pub mod pipeline;
pub mod pipelined_bench;
pub mod read_bench;
pub mod replica_bench;
pub mod stats;
pub mod store_bench;

pub use distributor_bench::{compare, run_distribution, DistRunConfig, DistRunResult};
pub use pipeline::{WritePipeline, WriteSample};
pub use read_bench::{compare_reads, run_reads, ReadRunConfig, ReadRunResult};
pub use replica_bench::{
    compare_replica_reads, run_replica_reads, ReplicaRunConfig, ReplicaRunResult,
};
pub use stats::{summarize, usd, Summary};
pub use store_bench::{
    compare_item_packing, compare_stores, run_store_bench, PackingComparison, StoreBenchConfig,
    StoreComparison, StoreRunResult,
};
