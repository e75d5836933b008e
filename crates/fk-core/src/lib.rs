//! # fk-core — FaaSKeeper
//!
//! A serverless coordination service with ZooKeeper's consistency model
//! and API, reproduced from "FaaSKeeper: Learning from Building
//! Serverless Services with ZooKeeper as an Example" (Copik et al.,
//! HPDC 2024).
//!
//! The system is assembled from cloud services only — no provisioned
//! servers:
//!
//! * **follower functions** ([`follower::Follower`]) validate and commit
//!   write requests arriving on per-session FIFO queue groups;
//! * a **leader tier** ([`leader::Leader`]; one function instance per
//!   shard group, `DistributorConfig::groups`) verifies committed
//!   changes, sequences each session's writes across shard groups via
//!   per-session high-water marks, and hands them to the
//!   **distributor** ([`distributor::Distributor`]), which drains the
//!   group's queue in epoch batches, partitions effects by a stable
//!   path shard, and fans them out to the replicated user stores in
//!   parallel workers — one epoch-counter bump per region per epoch
//!   keeps watches, reads and notifications in total transaction order
//!   (Z1–Z4, see `docs/consistency.md`);
//! * a **watch function** ([`watch_fn::WatchFunction`]) fans
//!   notifications out to subscribers and retires epoch marks;
//! * a **heartbeat function** ([`heartbeat::Heartbeat`]) runs on a
//!   schedule, pinging clients and evicting dead sessions (ephemeral-node
//!   cleanup);
//! * the **client library** ([`client::FkClient`]) reads storage
//!   directly and re-creates ZooKeeper's ordering guarantees with an MRD
//!   timestamp and epoch-based read stalling; a watermark-validated,
//!   single-flight **read cache** ([`read_cache::ReadCache`]) serves
//!   repeated reads without paying the storage round trip, and a shared
//!   regional **read replica** ([`replica::ReadReplica`]) — fed by the
//!   distributor's committed epoch stream — dedups hot reads *across*
//!   sessions under the same watermark rule, so N-session zipf fleets
//!   hit backing storage O(unique paths) times instead of
//!   O(sessions × paths).
//!
//! [`deploy::Deployment`] wires everything onto an AWS-like or GCP-like
//! provider profile; [`consistency`] records histories and validates the
//! Z1–Z4 guarantees. Every record that crosses a billed byte boundary —
//! node records in the user stores, queue messages, watch-task payloads
//! — travels in the versioned binary frame of [`codec`] (raw payload
//! bytes, varint framing), the only format any decoder accepts.

#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod codec;
pub mod commit;
pub mod consistency;
pub mod deploy;
pub mod distributor;
pub mod durable;
pub mod follower;
pub mod heartbeat;
pub mod leader;
pub mod messages;
pub mod notify;
pub mod ops;
pub mod path;
pub mod read_cache;
pub mod replica;
pub mod system_store;
pub mod user_store;
pub mod watch_fn;

pub use api::{CreateMode, FkError, FkResult, Stat, WatchEvent, WatchEventType, WatchKind};
pub use client::{ClientConfig, FkClient};
pub use deploy::{Deployment, DeploymentConfig, Provider};
pub use distributor::{Distributor, DistributorConfig};
pub use durable::{ChaosDiskInjector, DurableUserStore};
pub use ops::{multi_error_results, Op, OpHandle, OpResult};
pub use read_cache::{CacheStats, ReadCache, ReadCacheConfig};
pub use replica::{CommittedFloors, ReadReplica, ReplicaConfig, ReplicaSet, ReplicaStats};
pub use user_store::{in_subtree, FrameStore, NodeRecord, ScanEntry, UserStore, UserStoreKind};
