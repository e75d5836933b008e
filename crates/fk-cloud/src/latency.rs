//! Calibrated latency models for the simulated cloud services.
//!
//! The paper's evaluation (Tables 3, 6a, 7a, 7c; Figures 4b, 8–13) reports
//! latency distributions of real AWS/GCP services measured from EC2/GCE and
//! from inside Lambda/Cloud Functions. We reproduce the *shape* of those
//! results by sampling per-operation latencies from distributions whose
//! medians, slopes (per-kB), and tail behaviour are calibrated against the
//! published numbers. Each spec carries a provenance comment naming the
//! paper table/figure it was fitted to.
//!
//! The model composes three effects measured in the paper:
//!
//! 1. **Payload-size slopes** — e.g. DynamoDB writes cost ~1 ms/kB
//!    (Table 6a: 4.35 ms @ 1 kB → 66.31 ms @ 64 kB) while S3 reads are
//!    nearly flat (Fig 4b).
//! 2. **Execution environment** — operations issued from inside a function
//!    sandbox are slower than from a VM client, and scale with the
//!    sandbox's memory allocation (Fig 9/11: 512 MB → 2048 MB cuts write
//!    latency 22–28 %), architecture (ARM: follower faster, leader's
//!    object-store path up to 94 % slower, §5.3.2) and CPU allocation
//!    (GCP's independent vCPU knob, §5.3.2).
//! 3. **Region distance** — cross-region storage access pays a large
//!    additive penalty (Fig 4b).
//!
//! Key-value reads have one spec, `kv_get_strong`: the store serves no
//! eventually consistent read, so no cheaper read is modelled.

use crate::ops::{Op, QueueKind};
use rand::Rng;
use rand_distr::{Distribution, LogNormal};
use std::time::Duration;

/// Which kind of host issues the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvKind {
    /// A VM / benchmark client (EC2 `t3.medium` in the paper).
    Client,
    /// A serverless function sandbox.
    Function,
}

/// CPU architecture of a function sandbox (§5.3.2 compares x86 and ARM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// x86-64 Lambda (the default in the paper's evaluation).
    X86,
    /// AWS Graviton. Cheaper; faster on follower-style KV/queue work but
    /// up to 94 % slower on the leader's object-store path (§5.3.2).
    Arm,
}

/// Execution environment of the caller, affecting sampled latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecEnv {
    /// Host kind.
    pub kind: EnvKind,
    /// Memory allocation in MB (functions only; drives I/O + CPU share).
    pub memory_mb: u32,
    /// CPU architecture.
    pub arch: Arch,
    /// Fraction of a vCPU allocated (GCP allows 0.33 vCPU at 512 MB).
    pub cpu_alloc: f64,
}

impl ExecEnv {
    /// A benchmark client on a VM (no sandbox scaling effects).
    pub fn client() -> Self {
        ExecEnv {
            kind: EnvKind::Client,
            memory_mb: 4096,
            arch: Arch::X86,
            cpu_alloc: 2.0,
        }
    }

    /// A function sandbox with the given memory allocation.
    pub fn function(memory_mb: u32) -> Self {
        ExecEnv {
            kind: EnvKind::Function,
            memory_mb,
            arch: Arch::X86,
            cpu_alloc: memory_mb as f64 / 1769.0,
        }
    }

    /// Same sandbox on ARM.
    pub fn with_arch(mut self, arch: Arch) -> Self {
        self.arch = arch;
        self
    }

    /// Override the vCPU allocation (GCP-style independent CPU sizing).
    pub fn with_cpu_alloc(mut self, cpu: f64) -> Self {
        self.cpu_alloc = cpu;
        self
    }

    /// Memory-driven I/O slowdown factor, 1.0 at ≥ 2048 MB.
    ///
    /// Calibrated so 512 MB → 2048 MB improves the I/O-bound write path by
    /// 22–28 % (Fig 11) and large-payload follower pushes by ~35 %
    /// (Fig 9).
    pub fn mem_io_factor(&self) -> f64 {
        if self.kind == EnvKind::Client {
            return 1.0;
        }
        let mem = self.memory_mb.clamp(64, 2048) as f64;
        (2048.0 / mem).powf(0.35)
    }

    /// Slowdown applied to the *base* (fixed) part of I/O operations in a
    /// sandbox; a gentler exponent than the per-kB part.
    pub fn mem_base_factor(&self) -> f64 {
        self.mem_io_factor().powf(0.55)
    }

    /// CPU slowdown factor relative to a full vCPU.
    pub fn cpu_factor(&self) -> f64 {
        if self.kind == EnvKind::Client {
            return 1.0;
        }
        let alloc = self.cpu_alloc.max(0.05);
        (1.0 / alloc).clamp(0.55, 8.0)
    }
}

impl Default for ExecEnv {
    fn default() -> Self {
        ExecEnv::client()
    }
}

/// Parameters of one operation's latency distribution.
///
/// The sampled latency is
/// `max(min_ms, (base + per_kb·kB) · LogNormal(0, sigma) [· tail])` plus the
/// cross-region penalty when applicable. `base` and `per_kb` are medians;
/// the log-normal body contributes the p50→p95 spread and the tail term the
/// rare large outliers the paper observes (e.g. 60 ms max on a 4.35 ms
/// median DynamoDB write, Table 6a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySpec {
    /// Median latency at zero payload, in ms.
    pub base_ms: f64,
    /// Additional median latency per kB of payload, in ms.
    pub per_kb_ms: f64,
    /// Log-normal shape parameter of the body.
    pub sigma: f64,
    /// Probability of a tail event.
    pub tail_p: f64,
    /// Multiplier applied on a tail event.
    pub tail_mult: f64,
    /// Hard floor, in ms.
    pub min_ms: f64,
    /// Additive penalty when caller and service regions differ, in ms.
    pub cross_region_ms: f64,
    /// Additional cross-region cost per kB, in ms.
    pub cross_region_per_kb_ms: f64,
}

impl LatencySpec {
    /// A spec with the given median base and slope and moderate noise.
    pub const fn new(base_ms: f64, per_kb_ms: f64) -> Self {
        LatencySpec {
            base_ms,
            per_kb_ms,
            sigma: 0.08,
            tail_p: 0.01,
            tail_mult: 6.0,
            min_ms: 0.0,
            cross_region_ms: 0.0,
            cross_region_per_kb_ms: 0.0,
        }
    }

    /// Builder: set body spread.
    pub const fn sigma(mut self, s: f64) -> Self {
        self.sigma = s;
        self
    }

    /// Builder: set tail probability and multiplier.
    pub const fn tail(mut self, p: f64, mult: f64) -> Self {
        self.tail_p = p;
        self.tail_mult = mult;
        self
    }

    /// Builder: set minimum.
    pub const fn min(mut self, m: f64) -> Self {
        self.min_ms = m;
        self
    }

    /// Builder: set cross-region penalty.
    pub const fn cross(mut self, base: f64, per_kb: f64) -> Self {
        self.cross_region_ms = base;
        self.cross_region_per_kb_ms = per_kb;
        self
    }

    /// Zero-latency spec.
    pub const fn zero() -> Self {
        LatencySpec {
            base_ms: 0.0,
            per_kb_ms: 0.0,
            sigma: 0.0,
            tail_p: 0.0,
            tail_mult: 1.0,
            min_ms: 0.0,
            cross_region_ms: 0.0,
            cross_region_per_kb_ms: 0.0,
        }
    }
}

/// Multipliers applied to operations issued from inside a function sandbox,
/// relative to the same operation issued from a VM client.
///
/// Calibrated from the difference between the EC2-side microbenchmarks
/// (Table 6a, Fig 4b) and the in-function phase timings (Table 3): e.g. a
/// DynamoDB conditional update has a 6.8 ms median from EC2 but the
/// follower's lock phase shows 8.02 ms (×1.18–1.38), and the leader's
/// S3 read-modify-write implies ~×3 on object per-kB throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SandboxMults {
    /// KV read operations.
    pub kv_read: f64,
    /// KV write/update operations.
    pub kv_write: f64,
    /// Object store base latency.
    pub obj_base: f64,
    /// Object store per-kB (bandwidth) component.
    pub obj_per_kb: f64,
    /// Queue sends.
    pub queue: f64,
}

impl SandboxMults {
    /// No sandbox penalty.
    pub const fn identity() -> Self {
        SandboxMults {
            kv_read: 1.0,
            kv_write: 1.0,
            obj_base: 1.0,
            obj_per_kb: 1.0,
            queue: 1.0,
        }
    }
}

/// ARM-architecture multipliers (§5.3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchMults {
    /// KV + queue work (follower path): slightly faster on ARM.
    pub kv_queue: f64,
    /// Object-store path (leader): up to 94 % slower on ARM.
    pub obj: f64,
}

/// A complete latency model for one provider.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Strongly consistent KV read. [Fig 8 DynamoDB series; Fig 4b]
    pub kv_get_strong: LatencySpec,
    /// Blind KV put/update. [Table 6a "Regular DynamoDB write"]
    pub kv_write: LatencySpec,
    /// Conditional KV update (+~2.5 ms vs regular; Table 6a timed lock).
    pub kv_write_cond: LatencySpec,
    /// Multi-item transactional write (GCP Datastore primitive; Fig 12).
    pub kv_transact: LatencySpec,
    /// Table scan (heartbeat's session listing; Fig 13).
    pub kv_scan: LatencySpec,
    /// Object GET. [Fig 4b, Fig 8 S3 series]
    pub obj_get: LatencySpec,
    /// Object PUT. [Fig 4b; Table 3 "Update Node" = GET+PUT]
    pub obj_put: LatencySpec,
    /// In-memory cache read (Redis series, Fig 8).
    pub mem_get: LatencySpec,
    /// In-memory cache write.
    pub mem_put: LatencySpec,
    /// Queue send, per flavour. [Table 7a/7c decomposition]
    pub q_send_fifo: LatencySpec,
    /// Standard (unordered) queue send.
    pub q_send_std: LatencySpec,
    /// Stream-style queue send (a KV write under the hood).
    pub q_send_stream: LatencySpec,
    /// Queue→function trigger dispatch, per flavour.
    pub q_dispatch_fifo: LatencySpec,
    /// Standard queue dispatch (long batching; large variance, Fig 7b).
    pub q_dispatch_std: LatencySpec,
    /// Stream dispatch (shard polling; ~230 ms, Table 7a).
    pub q_dispatch_stream: LatencySpec,
    /// Synchronous API-gateway function invocation. [Table 7a/7c "Direct"]
    pub fn_invoke_direct: LatencySpec,
    /// Sandbox cold start.
    pub fn_cold_start: LatencySpec,
    /// Warm invocation runtime overhead.
    pub fn_warm_overhead: LatencySpec,
    /// CPU work inside a function per kB processed (base64, serialization).
    pub fn_compute: LatencySpec,
    /// TCP reply to a waiting client (864 µs median; §5.2.2).
    pub tcp_reply: LatencySpec,
    /// Heartbeat ping round trip.
    pub ping: LatencySpec,
    /// Client-library bookkeeping (1.9–2.5 % of read time; §5.3.1).
    pub client_work: LatencySpec,
    /// Sandbox multipliers for in-function calls.
    pub sandbox: SandboxMults,
    /// ARM multipliers.
    pub arch_arm: ArchMults,
}

impl LatencyModel {
    /// AWS-calibrated model (us-east-1; Tables 3/6a/7a, Figs 4b/8/9).
    pub fn aws() -> Self {
        LatencyModel {
            // Fig 8: ~2.2 ms small reads, ~11 ms at 250 kB.
            kv_get_strong: LatencySpec::new(2.2, 0.035)
                .sigma(0.10)
                .tail(0.012, 6.0)
                .min(0.9)
                .cross(62.0, 0.25),
            // Table 6a: 4.35 ms @ 1 kB, 66.31 ms @ 64 kB, max 60/121 ms.
            kv_write: LatencySpec::new(3.40, 0.985)
                .sigma(0.045)
                .tail(0.004, 11.0)
                .min(3.0)
                .cross(65.0, 0.30),
            // Table 6a timed lock: 6.8 ms @ 1 kB, 67.16 ms @ 64 kB.
            kv_write_cond: LatencySpec::new(5.80, 0.960)
                .sigma(0.065)
                .tail(0.006, 8.0)
                .min(4.5)
                .cross(65.0, 0.30),
            kv_transact: LatencySpec::new(9.0, 1.10)
                .sigma(0.10)
                .tail(0.008, 7.0)
                .min(6.0),
            kv_scan: LatencySpec::new(4.0, 0.020)
                .sigma(0.15)
                .tail(0.01, 5.0)
                .min(2.0),
            // Fig 4b / Fig 8: S3 GET ~9 ms small, ~31 ms @ 500 kB (client).
            obj_get: LatencySpec::new(8.8, 0.045)
                .sigma(0.14)
                .tail(0.015, 5.0)
                .min(4.0)
                .cross(120.0, 0.30),
            // Fig 4b: S3 PUT ~28 ms small, ~53 ms @ 500 kB (client);
            // in-sandbox per-kB multiplied (Table 3 Update Node).
            obj_put: LatencySpec::new(28.0, 0.050)
                .sigma(0.22)
                .tail(0.02, 4.5)
                .min(12.0)
                .cross(130.0, 0.35),
            // Fig 8 Redis series: on par with ZooKeeper.
            mem_get: LatencySpec::new(0.45, 0.012)
                .sigma(0.12)
                .tail(0.005, 6.0)
                .min(0.2),
            mem_put: LatencySpec::new(0.50, 0.014)
                .sigma(0.12)
                .tail(0.005, 6.0)
                .min(0.2),
            // Decomposed from Table 7a SQS-FIFO e2e p50 24.22 ms
            // (= send 12.8 + dispatch 10.5 + reply 0.86) and the
            // follower's push phase (Table 3: 13.35 ms @ 4 B,
            // 72.18 ms @ 250 kB).
            q_send_fifo: LatencySpec::new(12.8, 0.075)
                .sigma(0.14)
                .tail(0.02, 5.0)
                .min(6.0),
            q_send_std: LatencySpec::new(13.0, 0.075)
                .sigma(0.16)
                .tail(0.02, 5.0)
                .min(6.0),
            // DynamoDB-stream sends are KV writes.
            q_send_stream: LatencySpec::new(4.5, 0.985)
                .sigma(0.10)
                .tail(0.01, 6.0)
                .min(3.0),
            q_dispatch_fifo: LatencySpec::new(10.5, 0.085)
                .sigma(0.35)
                .tail(0.015, 4.0)
                .min(3.0),
            // Standard SQS: long batching → larger median + huge variance
            // (Fig 7b: "long batching on unordered queues").
            q_dispatch_std: LatencySpec::new(25.0, 0.085)
                .sigma(0.55)
                .tail(0.05, 6.0)
                .min(4.0),
            // Table 7a: DynamoDB Streams e2e p50 242.65 ms.
            q_dispatch_stream: LatencySpec::new(228.0, 0.020)
                .sigma(0.14)
                .tail(0.03, 2.5)
                .min(120.0),
            // Table 7a "Direct": p50 39.0, p95 73.9, p99 124.
            fn_invoke_direct: LatencySpec::new(38.0, 0.14)
                .sigma(0.38)
                .tail(0.012, 3.5)
                .min(18.0),
            fn_cold_start: LatencySpec::new(350.0, 0.0)
                .sigma(0.35)
                .tail(0.03, 2.5)
                .min(120.0),
            fn_warm_overhead: LatencySpec::new(0.9, 0.0)
                .sigma(0.25)
                .tail(0.01, 4.0)
                .min(0.3),
            // Base64 encode/decode + dict handling, CPU-scaled.
            fn_compute: LatencySpec::new(0.35, 0.011)
                .sigma(0.20)
                .tail(0.005, 4.0)
                .min(0.05),
            // §5.2.2: median RTT 864 µs with a cached connection.
            tcp_reply: LatencySpec::new(0.864, 0.004)
                .sigma(0.20)
                .tail(0.01, 5.0)
                .min(0.3),
            ping: LatencySpec::new(0.60, 0.0)
                .sigma(0.25)
                .tail(0.01, 5.0)
                .min(0.2),
            client_work: LatencySpec::new(0.05, 0.0022)
                .sigma(0.20)
                .tail(0.0, 1.0)
                .min(0.01),
            sandbox: SandboxMults {
                kv_read: 2.30,
                kv_write: 1.38,
                obj_base: 1.05,
                obj_per_kb: 3.0,
                queue: 1.0,
            },
            arch_arm: ArchMults {
                kv_queue: 0.93,
                obj: 1.90,
            },
        }
    }

    /// GCP-calibrated model (us-central1; Table 7c, Figs 8/12).
    pub fn gcp() -> Self {
        let aws = Self::aws();
        LatencyModel {
            // Fig 8 GCP: Datastore 2.3x slower on small nodes,
            // 30 % faster on large nodes than DynamoDB.
            kv_get_strong: LatencySpec::new(5.1, 0.024)
                .sigma(0.12)
                .tail(0.012, 6.0)
                .min(2.0)
                .cross(60.0, 0.25),
            // Datastore writes go through transactions (§4.5, Fig 12).
            kv_write: LatencySpec::new(8.5, 0.90)
                .sigma(0.10)
                .tail(0.008, 7.0)
                .min(5.0),
            kv_write_cond: LatencySpec::new(16.0, 0.95)
                .sigma(0.12)
                .tail(0.01, 6.0)
                .min(9.0),
            kv_transact: LatencySpec::new(16.0, 0.95)
                .sigma(0.12)
                .tail(0.01, 6.0)
                .min(9.0),
            kv_scan: LatencySpec::new(7.0, 0.022)
                .sigma(0.15)
                .tail(0.01, 5.0)
                .min(3.0),
            // Fig 8 GCP: "object storage slower than AWS S3".
            obj_get: LatencySpec::new(13.5, 0.065)
                .sigma(0.16)
                .tail(0.015, 5.0)
                .min(6.0)
                .cross(120.0, 0.30),
            obj_put: LatencySpec::new(41.0, 0.070)
                .sigma(0.24)
                .tail(0.02, 4.5)
                .min(18.0)
                .cross(130.0, 0.35),
            mem_get: aws.mem_get,
            mem_put: aws.mem_put,
            // Table 7c: Pub/Sub e2e 38.04 ms = send 18.2 + dispatch 18.6.
            q_send_fifo: LatencySpec::new(90.0, 0.050)
                .sigma(0.20)
                .tail(0.02, 3.0)
                .min(40.0),
            q_send_std: LatencySpec::new(18.2, 0.050)
                .sigma(0.25)
                .tail(0.02, 4.0)
                .min(8.0),
            q_send_stream: LatencySpec::new(18.2, 0.050)
                .sigma(0.25)
                .tail(0.02, 4.0)
                .min(8.0),
            // Table 7c: Pub/Sub FIFO e2e p50 201.22 ms (send 90 +
            // dispatch 110); ordered subscription is slower than direct.
            q_dispatch_fifo: LatencySpec::new(110.0, 0.060)
                .sigma(0.30)
                .tail(0.03, 3.0)
                .min(40.0),
            q_dispatch_std: LatencySpec::new(18.6, 0.060)
                .sigma(0.40)
                .tail(0.04, 5.0)
                .min(6.0),
            q_dispatch_stream: LatencySpec::new(18.6, 0.060)
                .sigma(0.40)
                .tail(0.04, 5.0)
                .min(6.0),
            // Table 7c "Direct": p50 83.29, p95 94.63 (tight body).
            fn_invoke_direct: LatencySpec::new(82.0, 0.05)
                .sigma(0.085)
                .tail(0.01, 8.0)
                .min(40.0),
            fn_cold_start: LatencySpec::new(900.0, 0.0)
                .sigma(0.40)
                .tail(0.03, 2.0)
                .min(300.0),
            fn_warm_overhead: aws.fn_warm_overhead,
            fn_compute: aws.fn_compute,
            tcp_reply: aws.tcp_reply,
            ping: aws.ping,
            client_work: aws.client_work,
            sandbox: SandboxMults {
                kv_read: 1.6,
                kv_write: 1.25,
                obj_base: 1.05,
                obj_per_kb: 2.6,
                queue: 1.0,
            },
            arch_arm: ArchMults {
                kv_queue: 1.0,
                obj: 1.0,
            },
        }
    }

    /// Zero-latency model for functional tests.
    pub fn zero() -> Self {
        let z = LatencySpec::zero();
        LatencyModel {
            kv_get_strong: z,
            kv_write: z,
            kv_write_cond: z,
            kv_transact: z,
            kv_scan: z,
            obj_get: z,
            obj_put: z,
            mem_get: z,
            mem_put: z,
            q_send_fifo: z,
            q_send_std: z,
            q_send_stream: z,
            q_dispatch_fifo: z,
            q_dispatch_std: z,
            q_dispatch_stream: z,
            fn_invoke_direct: z,
            fn_cold_start: z,
            fn_warm_overhead: z,
            fn_compute: z,
            tcp_reply: z,
            ping: z,
            client_work: z,
            sandbox: SandboxMults::identity(),
            arch_arm: ArchMults {
                kv_queue: 1.0,
                obj: 1.0,
            },
        }
    }

    /// The spec for an operation.
    pub fn spec(&self, op: Op) -> &LatencySpec {
        match op {
            Op::KvGet => &self.kv_get_strong,
            Op::KvPut | Op::KvUpdate { conditional: false } | Op::KvDelete => &self.kv_write,
            Op::KvUpdate { conditional: true } => &self.kv_write_cond,
            Op::KvTransact => &self.kv_transact,
            Op::KvScan => &self.kv_scan,
            Op::ObjGet => &self.obj_get,
            Op::ObjPut | Op::ObjDelete => &self.obj_put,
            Op::MemGet => &self.mem_get,
            Op::MemPut => &self.mem_put,
            Op::QueueSend(QueueKind::Fifo) => &self.q_send_fifo,
            Op::QueueSend(QueueKind::Standard) => &self.q_send_std,
            Op::QueueSend(QueueKind::Stream) => &self.q_send_stream,
            Op::QueueSend(QueueKind::PubSub) => &self.q_send_std,
            Op::QueueSend(QueueKind::PubSubOrdered) => &self.q_send_fifo,
            Op::QueueDispatch(QueueKind::Fifo) => &self.q_dispatch_fifo,
            Op::QueueDispatch(QueueKind::Standard) => &self.q_dispatch_std,
            Op::QueueDispatch(QueueKind::Stream) => &self.q_dispatch_stream,
            Op::QueueDispatch(QueueKind::PubSub) => &self.q_dispatch_std,
            Op::QueueDispatch(QueueKind::PubSubOrdered) => &self.q_dispatch_fifo,
            Op::FnInvokeDirect => &self.fn_invoke_direct,
            Op::FnColdStart => &self.fn_cold_start,
            Op::FnWarmOverhead => &self.fn_warm_overhead,
            Op::FnCompute => &self.fn_compute,
            Op::TcpReply => &self.tcp_reply,
            Op::Ping => &self.ping,
            Op::ClientWork => &self.client_work,
        }
    }

    /// Environment multipliers for `op` in `env`: `(base_mult, per_kb_mult)`.
    fn env_mults(&self, op: Op, env: &ExecEnv) -> (f64, f64) {
        if env.kind == EnvKind::Client {
            return (1.0, 1.0);
        }
        let mem_base = env.mem_base_factor();
        let mem_io = env.mem_io_factor();
        let arm = env.arch == Arch::Arm;
        match op {
            Op::KvGet | Op::KvScan => {
                let a = if arm { self.arch_arm.kv_queue } else { 1.0 };
                (self.sandbox.kv_read * mem_base * a, mem_io * a)
            }
            Op::KvPut | Op::KvUpdate { .. } | Op::KvDelete | Op::KvTransact => {
                let a = if arm { self.arch_arm.kv_queue } else { 1.0 };
                (self.sandbox.kv_write * mem_base * a, mem_io * a)
            }
            Op::ObjGet | Op::ObjPut | Op::ObjDelete => {
                let a = if arm { self.arch_arm.obj } else { 1.0 };
                (
                    self.sandbox.obj_base * mem_base * a,
                    self.sandbox.obj_per_kb * mem_io * a,
                )
            }
            Op::QueueSend(_) | Op::QueueDispatch(_) => {
                let a = if arm { self.arch_arm.kv_queue } else { 1.0 };
                (self.sandbox.queue * mem_base * a, mem_io * a)
            }
            Op::MemGet | Op::MemPut => (mem_base, mem_io),
            Op::FnCompute | Op::ClientWork => {
                let c = env.cpu_factor();
                (c, c)
            }
            _ => (1.0, 1.0),
        }
    }

    /// Samples a latency for `op` on `size_bytes` of payload.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        op: Op,
        size_bytes: usize,
        cross_region: bool,
        env: &ExecEnv,
        rng: &mut R,
    ) -> Duration {
        let spec = self.spec(op);
        if spec.base_ms == 0.0 && spec.per_kb_ms == 0.0 && spec.cross_region_ms == 0.0 {
            return Duration::ZERO;
        }
        let kb = size_bytes as f64 / 1024.0;
        let (base_mult, kb_mult) = self.env_mults(op, env);
        let median = spec.base_ms * base_mult + spec.per_kb_ms * kb * kb_mult;
        let mut ms = if spec.sigma > 0.0 {
            let ln = LogNormal::new(median.max(1e-9).ln(), spec.sigma)
                .expect("valid lognormal parameters");
            ln.sample(rng)
        } else {
            median
        };
        if spec.tail_p > 0.0 && rng.gen::<f64>() < spec.tail_p {
            // Tail events: multiplier with an exponential extension, giving
            // the long maxima the paper reports (Table 6a max column).
            let ext: f64 = rng.gen::<f64>();
            ms *= spec.tail_mult * (1.0 + ext);
        }
        if cross_region {
            ms += spec.cross_region_ms + spec.cross_region_per_kb_ms * kb;
        }
        ms = ms.max(spec.min_ms);
        Duration::from_nanos((ms * 1e6) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn median_of(model: &LatencyModel, op: Op, size: usize, env: &ExecEnv) -> f64 {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut samples: Vec<f64> = (0..2001)
            .map(|_| model.sample(op, size, false, env, &mut rng).as_secs_f64() * 1e3)
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        samples[samples.len() / 2]
    }

    #[test]
    fn ddb_write_matches_table_6a() {
        // Table 6a: regular DynamoDB write p50 = 4.35 ms @ 1 kB,
        // 66.31 ms @ 64 kB (EC2 client).
        let m = LatencyModel::aws();
        let env = ExecEnv::client();
        let p50_1k = median_of(&m, Op::KvPut, 1024, &env);
        let p50_64k = median_of(&m, Op::KvPut, 64 * 1024, &env);
        assert!((p50_1k - 4.35).abs() < 0.6, "1 kB write p50 {p50_1k}");
        assert!((p50_64k - 66.31).abs() < 5.0, "64 kB write p50 {p50_64k}");
    }

    #[test]
    fn conditional_update_adds_lock_overhead() {
        // Table 6a: timed lock acquire p50 6.8 ms @ 1 kB vs 4.35 regular.
        let m = LatencyModel::aws();
        let env = ExecEnv::client();
        let regular = median_of(&m, Op::KvUpdate { conditional: false }, 1024, &env);
        let locked = median_of(&m, Op::KvUpdate { conditional: true }, 1024, &env);
        assert!(locked > regular + 1.5, "lock {locked} vs regular {regular}");
        assert!((locked - 6.8).abs() < 0.8, "lock p50 {locked}");
    }

    #[test]
    fn fifo_queue_beats_direct_invocation() {
        // Table 7a: SQS FIFO e2e (24.22) < direct Lambda invoke (39.0).
        let m = LatencyModel::aws();
        let env = ExecEnv::client();
        let send = median_of(&m, Op::QueueSend(QueueKind::Fifo), 64, &env);
        let dispatch = median_of(&m, Op::QueueDispatch(QueueKind::Fifo), 64, &env);
        let reply = median_of(&m, Op::TcpReply, 64, &env);
        let direct = median_of(&m, Op::FnInvokeDirect, 64, &env);
        let fifo_e2e = send + dispatch + reply;
        assert!(
            fifo_e2e < direct,
            "fifo {fifo_e2e} should beat direct {direct}"
        );
        assert!((fifo_e2e - 24.22).abs() < 5.0, "fifo e2e {fifo_e2e}");
    }

    #[test]
    fn stream_dispatch_is_an_order_of_magnitude_slower() {
        // Table 7a: DynamoDB Streams e2e p50 242.65 ms.
        let m = LatencyModel::aws();
        let env = ExecEnv::client();
        let d = median_of(&m, Op::QueueDispatch(QueueKind::Stream), 64, &env);
        assert!(d > 180.0 && d < 300.0, "stream dispatch {d}");
    }

    #[test]
    fn memory_scaling_improves_in_function_io() {
        let m = LatencyModel::aws();
        let small = ExecEnv::function(512);
        let large = ExecEnv::function(2048);
        let p_small = median_of(&m, Op::ObjPut, 250 * 1024, &small);
        let p_large = median_of(&m, Op::ObjPut, 250 * 1024, &large);
        assert!(
            p_small > p_large * 1.2,
            "512 MB {p_small} vs 2048 MB {p_large}"
        );
    }

    #[test]
    fn cross_region_pays_penalty() {
        let m = LatencyModel::aws();
        let env = ExecEnv::client();
        let mut rng = SmallRng::seed_from_u64(7);
        let local = m.sample(Op::ObjGet, 1024, false, &env, &mut rng);
        let mut rng = SmallRng::seed_from_u64(7);
        let remote = m.sample(Op::ObjGet, 1024, true, &env, &mut rng);
        assert!(remote > local + Duration::from_millis(80));
    }

    #[test]
    fn arm_slows_object_path_speeds_kv_path() {
        let m = LatencyModel::aws();
        let x86 = ExecEnv::function(2048);
        let arm = ExecEnv::function(2048).with_arch(Arch::Arm);
        let obj_x86 = median_of(&m, Op::ObjPut, 64 * 1024, &x86);
        let obj_arm = median_of(&m, Op::ObjPut, 64 * 1024, &arm);
        assert!(obj_arm > obj_x86 * 1.5);
        let kv_x86 = median_of(&m, Op::KvUpdate { conditional: true }, 1024, &x86);
        let kv_arm = median_of(&m, Op::KvUpdate { conditional: true }, 1024, &arm);
        assert!(kv_arm < kv_x86);
    }

    #[test]
    fn zero_model_is_free() {
        let m = LatencyModel::zero();
        let env = ExecEnv::client();
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            m.sample(Op::ObjPut, 1 << 20, false, &env, &mut rng),
            Duration::ZERO
        );
    }

    #[test]
    fn gcp_direct_invocation_slower_than_aws() {
        let aws = LatencyModel::aws();
        let gcp = LatencyModel::gcp();
        let env = ExecEnv::client();
        let a = median_of(&aws, Op::FnInvokeDirect, 64, &env);
        let g = median_of(&gcp, Op::FnInvokeDirect, 64, &env);
        assert!((a - 39.0).abs() < 5.0, "aws direct {a}");
        assert!((g - 83.29).abs() < 8.0, "gcp direct {g}");
    }

    #[test]
    fn gcp_ordered_pubsub_adds_170ms_over_direct() {
        // Table 7c: ordered Pub/Sub e2e ~201 ms vs direct 83 ms.
        let gcp = LatencyModel::gcp();
        let env = ExecEnv::client();
        let e2e = median_of(&gcp, Op::QueueSend(QueueKind::PubSubOrdered), 64, &env)
            + median_of(&gcp, Op::QueueDispatch(QueueKind::PubSubOrdered), 64, &env);
        assert!((e2e - 200.0).abs() < 25.0, "pubsub fifo e2e {e2e}");
    }

    #[test]
    fn datastore_crossover_vs_dynamodb() {
        // Fig 8: Datastore 2.3x slower on small nodes, ~30 % faster on
        // large nodes.
        let aws = LatencyModel::aws();
        let gcp = LatencyModel::gcp();
        let env = ExecEnv::client();
        let small_aws = median_of(&aws, Op::KvGet, 128, &env);
        let small_gcp = median_of(&gcp, Op::KvGet, 128, &env);
        assert!(small_gcp > small_aws * 1.8);
        let large_aws = median_of(&aws, Op::KvGet, 400 * 1024, &env);
        let large_gcp = median_of(&gcp, Op::KvGet, 400 * 1024, &env);
        assert!(large_gcp < large_aws);
    }
}
