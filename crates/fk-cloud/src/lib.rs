//! # fk-cloud — simulated cloud substrate for FaaSKeeper
//!
//! In-process, thread-safe equivalents of the cloud services the
//! FaaSKeeper paper (Copik et al., HPDC 2024) builds on:
//!
//! * [`kvstore::KvStore`] — DynamoDB/Datastore-like table with atomic
//!   conditional update expressions, strongly consistent reads, multi-item
//!   transactions, and per-kB billing;
//! * [`objectstore::ObjectStore`] — S3/Cloud-Storage-like bucket with
//!   whole-object PUT/GET and strong read-after-write consistency;
//! * [`memstore::MemStore`] — Redis-like in-memory cache;
//! * [`queue::Queue`] — SQS / SQS-FIFO / Streams / Pub/Sub-like queues
//!   with message-group FIFO, batching, visibility timeouts and monotonic
//!   sequence numbers;
//! * [`faas::FaasRuntime`] — Lambda-like function runtime with free,
//!   event-triggered and scheduled functions, warm/cold sandboxes and
//!   GB-second metering;
//! * [`latency::LatencyModel`] — per-operation latency distributions
//!   calibrated to the paper's published measurements;
//! * [`trace::Ctx`] — per-request virtual-time accounting that reproduces
//!   end-to-end latencies along real code paths;
//! * [`metering::Meter`] — pay-as-you-go usage counters;
//! * [`chaos::Chaos`] — seeded, deterministic fault injection at every
//!   service boundary;
//! * [`retry::with_retry`] — the one exponential-backoff retry with
//!   decorrelated jitter, run inside each service that can fail
//!   transiently;
//! * [`des`] — a small discrete-event simulator for throughput studies.
//!
//! The services are faithful at the level of *semantics and guarantees*
//! (the level at which the paper defines its cloud-agnostic design, §3.7)
//! rather than wire protocols.

#![warn(missing_docs)]

pub mod chaos;
pub mod des;
pub mod error;
pub mod expr;
pub mod faas;
pub mod kvstore;
pub mod latency;
pub mod memstore;
pub mod metering;
pub mod objectstore;
pub mod ops;
pub mod queue;
pub mod region;
pub mod retry;
pub mod trace;
pub mod value;

pub use chaos::{Chaos, FaultKind, FaultPlan, FaultSpec};
pub use error::{CloudError, CloudResult};
pub use expr::{Condition, Update};
pub use faas::{Event, FaasRuntime, FnError, FunctionConfig, Handler};
pub use kvstore::{KvStore, TransactOp};
pub use latency::{Arch, EnvKind, ExecEnv, LatencyModel, LatencySpec};
pub use memstore::MemStore;
pub use metering::{Meter, UsageSnapshot};
pub use objectstore::ObjectStore;
pub use ops::{Op, QueueKind};
pub use queue::{Batch, Message, Queue, Receipt, ShardedQueues};
pub use region::Region;
pub use retry::with_retry;
pub use trace::{Ctx, LatencyMode, SpanRecord};
pub use value::{Item, Value};
