//! The paper's evaluation as one seeded profile.
//!
//! Every row is a number the paper reports (Table 3, Figs. 8–13, Tables
//! 6a/7a/7c and the § 5.3.4 cost anchors) beside the value this
//! repository measures for it, on virtual time, at one fixed seed. The
//! pipeline is deterministic per seed, so each measured value is
//! recorded in [`ROWS`] and must repeat to within [`RECORD_SLACK`]: a row
//! that moves fails until its record is updated and the move explained.
//!
//! A row within [`TOLERANCE`] of the paper has no owner. A row outside it
//! names the ROADMAP item that owns the gap, so a gap is never silent and
//! a closed gap must drop its owner.
//!
//! Writes are measured on [`WritePipeline`], which runs one request
//! synchronously through the real function bodies — client encode →
//! session queue → follower (Alg. 1) → leader queue → leader (Alg. 2,
//! inline watch dispatch) — on a single virtual-time context, so the
//! end-to-end latency and the per-phase breakdown emerge from the actual
//! code path under the calibrated latency model.
//!
//! `cargo test -q --test paper_profile -- --nocapture` prints the table.
//! Where each figure of the paper lives, and the run that fixed the
//! records, is `docs/benchmarks.md` § 37.

use fk_cloud::faas::FunctionConfig;
use fk_cloud::latency::LatencyModel;
use fk_cloud::metering::{Meter, UsageSnapshot};
use fk_cloud::ops::{Op, QueueKind};
use fk_cloud::trace::{Ctx, LatencyMode};
use fk_cloud::value::{Item, Value};
use fk_cloud::{Condition, KvStore, Region};
use fk_core::client::STAGE_THRESHOLD;
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::follower::{Follower, LEADER_GROUP};
use fk_core::leader::Leader;
use fk_core::messages::{ClientRequest, Payload, WriteOp};
use fk_core::UserStoreKind;
use fk_cost::{price_usage, AwsPricing};
use fk_sync::{AtomicCounter, AtomicList, TimedLockManager};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// The seed of every deployment and, offset by the repetition, of every
/// measured request.
const SEED: u64 = 333;
/// Function memory of the AWS runs (the paper's Table 3 configuration).
const MEMORY_MB: u32 = 2048;
/// Repetitions per measured p50.
const REPS: usize = 300;
/// How far a row may sit from the paper and still count as reproduced.
/// The latency model is calibrated per operation to the paper's
/// microbenchmarks (Tables 6a, 7a: within 7–20 % of each anchor), and a
/// write composes about ten such operations, some of them in parallel
/// waves the paper's functions ran one after another. The paper's own
/// medians come from one deployment each on a shared cloud.
const TOLERANCE: f64 = 0.25;
/// How far a measured value may move from its record: runs repeat
/// exactly, and the slack absorbs the records' rounding.
const RECORD_SLACK: f64 = 0.01;

// The owners of the gaps: ROADMAP items, each with the cause it names.
const WATCH_QUERY: Option<&str> = Some("7 (c): every write reads the watch registry");
const STAGED: Option<&str> = Some("25 (b): a 250 kB payload is staged, not pushed");
const LEADER_250: Option<&str> = Some("25 (b): the staged GET and delete, § 37's split");
const WRITE_BILL: Option<&str> = Some("19: KV units beyond the paper's Cost_W");
const CPU_SHARE: Option<&str> = Some("25 (c): model I/O carries no CPU share");
const SMALL_UPDATE: Option<&str> = Some("25 (c): small KV updates sample below Table 6a");

/// A paper value reported as one number: the band `[v, v]`.
const fn at(v: f64) -> (f64, f64) {
    (v, v)
}
const ABOVE_1: (f64, f64) = (1.0, f64::INFINITY);

/// A row: its name, the paper's band `[lo, hi]`, the recorded
/// measurement and the owner of its gap.
type Row = (&'static str, (f64, f64), f64, Option<&'static str>);

#[rustfmt::skip]
const ROWS: &[Row] = &[
    // Table 3, p50 at 2048 MB.
    ("T3 follower total, 4 B (ms)", at(31.81), 34.367, None),
    ("T3 follower lock, 4 B (ms)", at(8.02), 8.0899, None),
    ("T3 follower push, 4 B (ms)", at(13.35), 13.004, None),
    ("T3 follower commit, 4 B (ms)", at(7.93), 8.1124, None),
    ("T3 leader total, 4 B (ms)", at(62.16), 57.485, None),
    ("T3 leader get node, 4 B (ms)", at(5.09), 5.0353, None),
    ("T3 leader update node, 4 B (ms)", at(42.73), 35.211, None),
    ("T3 leader watch query, 4 B (ms)", at(4.48), 10.066, WATCH_QUERY),
    ("T3 follower total, 250 kB (ms)", at(102.53), 34.059, STAGED),
    ("T3 follower lock, 250 kB (ms)", at(8.36), 8.1227, None),
    ("T3 follower push, 250 kB (ms)", at(72.18), 12.882, STAGED),
    ("T3 follower commit, 250 kB (ms)", at(8.59), 8.0056, None),
    ("T3 leader total, 250 kB (ms)", at(132.62), 171.51, LEADER_250),
    ("T3 leader get node, 250 kB (ms)", at(4.97), 5.0684, None),
    ("T3 leader update node, 250 kB (ms)", at(102.07), 74.443, LEADER_250),
    ("T3 leader watch query, 250 kB (ms)", at(5.13), 10.15, WATCH_QUERY),
    // § 5.3.4's write anchors, priced from the meter of the same runs.
    ("cost of 100 k writes, standard, 4 B ($)", at(1.12), 1.5581, WRITE_BILL),
    ("cost of 100 k writes, hybrid, 4 B ($)", at(0.72), 1.0834, WRITE_BILL),
    // Fig. 9: "paper totals range $1.1-$2.5 per 100k", "storage
    // operations are responsible for 40-80% of the cost", "the leader
    // contributes more, especially on small inputs", "ZooKeeper achieves
    // lower write latency".
    ("F9 cost of 100 k writes, standard, 250 kB ($)", (1.1, 2.5), 2.496, None),
    ("F9 storage share of write cost, 4 B (%)", (40.0, 80.0), 70.608, None),
    ("F9 leader over follower p50, 4 B (x)", at(62.16 / 31.81), 1.6727, None),
    ("F9 FaaSKeeper over ZooKeeper write p50, 4 B (x)", ABOVE_1, 41.091, None),
    // Fig. 10: synchronization (lock, commit) is a small share of the
    // functions' time; the paper's share is taken from its Table 3.
    ("F10 lock+commit share of function time, 4 B (%)",
        at(100.0 * (8.02 + 7.93) / (31.81 + 62.16)), 17.64, None),
    // Fig. 11: hybrid storage cuts write time by 22-28 %.
    ("F11 hybrid write p50 cut vs standard, 4 B (%)", (22.0, 28.0), 19.247, None),
    // Fig. 12 and § 5.3.2: GCP is slower than AWS; 0.33 vCPU trades a
    // 2-10 % slowdown for a 54-62 % compute cost cut.
    ("F12 GCP over AWS write p50, 4 B (x)", ABOVE_1, 4.6527, None),
    ("F12 GCP 0.33 vCPU write slowdown, 512 MB, 1 kB (%)", (2.0, 10.0), 0.34836, CPU_SHARE),
    ("F12 GCP 0.33 vCPU compute cost cut, 512 MB, 1 kB (%)", (54.0, 62.0), 63.097, None),
    // Fig. 13: heartbeat time falls with memory; at one run a minute it
    // costs 0.10-0.25 ¢ a day and is busy < 0.2 % of the day.
    ("F13 heartbeat p50 2048 MB over 128 MB, 64 clients (x)", (0.0, 1.0), 0.13589, None),
    ("F13 heartbeat cost, 64 clients, 128 MB (¢/day)", (0.10, 0.25), 0.15318, None),
    ("F13 heartbeat cost, 64 clients, 2048 MB (¢/day)", (0.10, 0.25), 0.25696, None),
    ("F13 heartbeat busy share, 64 clients, 2048 MB (%)", (0.0, 0.2), 0.066719, None),
    // § 5.3.4's read anchor, priced from the meter. Fig. 8: hybrid
    // follows DynamoDB below 4 kB and pays an object fetch above; the
    // in-memory cache is on par with ZooKeeper; GCP object storage is
    // slower than S3.
    ("cost of 100 k reads, standard, 1 kB ($)", at(0.04), 0.04, None),
    ("F8 hybrid over DynamoDB read p50, 1 kB (x)", at(1.0), 1.0, None),
    ("F8 hybrid over DynamoDB read p50, 64 kB (x)", ABOVE_1, 3.1293, None),
    ("F8 cache over ZooKeeper read p50, 1 kB (x)", at(1.0), 0.9974, None),
    ("F8 Cloud Storage over S3 read p50, 1 kB (x)", ABOVE_1, 1.5338, None),
    // Table 6a anchors that no latency-model test asserts.
    ("T6a lock acquire, 64 kB (ms)", at(67.16), 67.276, None),
    ("T6a atomic counter (ms)", at(5.59), 3.4131, SMALL_UPDATE),
    ("T6a list append, 1 entry (ms)", at(5.89), 3.415, SMALL_UPDATE),
    ("T6a list append, 1024 entries (ms)", at(76.01), 69.412, None),
    // Tables 7a/7c anchors that no latency-model test asserts.
    ("T7a SQS invocation, 64 B (ms)", at(39.83), 41.495, None),
    ("T7c Pub/Sub invocation, 64 B (ms)", at(38.04), 39.947, None),
];

/// The median of `samples`: the sorted sample at the rounded middle
/// rank.
fn p50(samples: impl IntoIterator<Item = f64>) -> f64 {
    let mut sorted: Vec<f64> = samples.into_iter().collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
    sorted[((sorted.len() - 1) as f64 * 0.5).round() as usize]
}

/// A dollar amount with a precision that suits its size.
fn usd(v: f64) -> String {
    if v >= 100.0 {
        format!("${v:.0}")
    } else if v >= 1.0 {
        format!("${v:.2}")
    } else {
        format!("${v:.4}")
    }
}

fn rep_seed(rep: usize) -> u64 {
    SEED * 1000 + rep as u64
}

/// Result of one measured write.
struct WriteSample {
    /// Client-observed end-to-end latency (request submit → success
    /// notification), ms.
    e2e_ms: f64,
    /// Total time inside the follower function, ms.
    follower_ms: f64,
    /// Total time inside the leader function, ms.
    leader_ms: f64,
    /// Charged time per phase label, ms.
    phases: BTreeMap<String, f64>,
}

/// A reusable direct-drive pipeline.
struct WritePipeline {
    deployment: Deployment,
    follower: Follower,
    leader: Leader,
    session: String,
    next_request: u64,
}

impl WritePipeline {
    /// Builds the pipeline on a direct (trigger-less) deployment.
    fn new(config: DeploymentConfig) -> Self {
        let deployment = Deployment::direct(config);
        let follower = deployment.make_follower();
        let leader = deployment.make_leader_inline();
        let session = "bench-session".to_owned();
        let ctx = Ctx::disabled();
        deployment
            .system()
            .register_session(&ctx, &session, 0)
            .expect("register bench session");
        // A bus endpoint so notifications have somewhere to go.
        let (rx, _alive) = deployment.bus().register(&session);
        std::mem::forget(rx); // keep the endpoint alive for the run
        WritePipeline {
            deployment,
            follower,
            leader,
            session,
            next_request: 1,
        }
    }

    /// The underlying deployment (meter access etc.).
    fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Creates a node without measuring (setup).
    fn seed_node(&mut self, path: &str, size: usize) {
        let data = vec![0x5A; size];
        let ctx = Ctx::disabled();
        self.drive(&ctx, path, &data, true);
    }

    fn fresh_ctx(&self, seed: u64) -> Ctx {
        let mode = self.deployment.config().mode;
        let ctx = Ctx::new(Arc::clone(self.deployment.model()), mode, seed);
        ctx.set_region(self.deployment.config().regions[0]);
        ctx
    }

    /// Charges a warm function's trigger: the queue's dispatch of a
    /// `bytes` batch and the sandbox's warm-start overhead, under `label`.
    fn invoke(&self, ctx: &Ctx, label: &'static str, bytes: usize) {
        ctx.span(label, || {
            ctx.charge(
                Op::QueueDispatch(self.deployment.config().queue_kind()),
                bytes,
            );
            ctx.charge(Op::FnWarmOverhead, 0);
        });
    }

    /// Drives one request through client → follower → leader on `ctx`.
    /// Returns `(t_client, t_follower_start, t_follower_end, t_leader_end)`
    /// in virtual time.
    fn drive(
        &mut self,
        ctx: &Ctx,
        path: &str,
        data: &[u8],
        create: bool,
    ) -> (Duration, Duration, Duration, Duration) {
        let request_id = self.next_request;
        self.next_request += 1;

        // --- client side: payload framing (+ optional staging, §4.4).
        ctx.push_phase("client");
        ctx.charge(Op::ClientWork, data.len());
        let payload = if data.len() > STAGE_THRESHOLD {
            let key = format!("staging/{}/{request_id}", self.session);
            self.deployment
                .staging()
                .put(ctx, &key, bytes::Bytes::from(data.to_vec()))
                .expect("staging put");
            Payload::Staged {
                key,
                len: data.len(),
            }
        } else {
            Payload::inline(data)
        };
        let op = if create {
            WriteOp::Create {
                path: path.to_owned(),
                payload,
                mode: fk_core::api::CreateMode::Persistent,
            }
        } else {
            WriteOp::SetData {
                path: path.to_owned(),
                payload,
                expected_version: -1,
            }
        };
        let request = ClientRequest {
            session_id: self.session.clone(),
            request_id,
            op,
        };
        self.deployment
            .write_queue()
            .send(ctx, &self.session, request.encode())
            .expect("send to write queue");
        ctx.pop_phase();
        let t_client = ctx.now();

        // --- follower invocation (warm).
        let batch = self
            .deployment
            .write_queue()
            .receive(10, Duration::from_secs(30))
            .expect("follower batch");
        let bytes: usize = batch.messages.iter().map(|m| m.body.len()).sum();
        self.invoke(ctx, "invoke_follower", bytes);
        let t_follower_start = ctx.now();
        let follower_env = self.deployment.config().follower_fn.env();
        ctx.with_env(follower_env, || {
            self.follower
                .process_messages(ctx, &batch.messages)
                .expect("follower processes");
        });
        self.deployment.write_queue().ack(batch.receipt);
        let t_follower_end = ctx.now();
        self.deployment.meter().fn_invocation(
            self.deployment.config().follower_fn.memory_mb,
            t_follower_end.saturating_sub(t_follower_start),
        );

        // --- leader invocation (warm).
        let lbatch = self
            .deployment
            .leader_queue()
            .receive(10, Duration::from_secs(30))
            .expect("leader batch");
        debug_assert_eq!(&*lbatch.messages[0].group, LEADER_GROUP);
        let lbytes: usize = lbatch.messages.iter().map(|m| m.body.len()).sum();
        self.invoke(ctx, "invoke_leader", lbytes);
        let leader_env = self.deployment.config().leader_fn.env();
        let t_leader_start = ctx.now();
        ctx.with_env(leader_env, || {
            self.leader
                .process_messages(ctx, &lbatch.messages)
                .expect("leader processes");
        });
        self.deployment.leader_queue().ack(lbatch.receipt);
        let t_leader_end = ctx.now();
        self.deployment.meter().fn_invocation(
            self.deployment.config().leader_fn.memory_mb,
            t_leader_end.saturating_sub(t_leader_start),
        );

        (t_client, t_follower_start, t_follower_end, t_leader_end)
    }

    /// Runs one measured `set_data` write; the node must exist.
    fn run_write(&mut self, seed: u64, path: &str, data: &[u8]) -> WriteSample {
        let ctx = self.fresh_ctx(seed);
        let (_, t_fs, t_fe, t_le) = self.drive(&ctx, path, data, false);

        let spans = ctx.take_spans();
        let mut phases: BTreeMap<String, f64> = BTreeMap::new();
        let mut notify_end = None;
        for span in &spans {
            let label = span.phase.split('/').next().unwrap_or("other").to_owned();
            *phases.entry(label).or_insert(0.0) += span.duration.as_secs_f64() * 1e3;
            if span.phase.starts_with("notify_client") {
                notify_end = Some(span.start + span.duration);
            }
        }
        WriteSample {
            // The client learns the outcome at the success notification;
            // remaining leader work (pop, watch waits) runs on.
            e2e_ms: notify_end.unwrap_or(t_le).as_secs_f64() * 1e3,
            follower_ms: (t_fe - t_fs).as_secs_f64() * 1e3,
            leader_ms: (t_le - t_fe).as_secs_f64() * 1e3,
            phases,
        }
    }
}

/// `REPS` runs of `op`, each on a fresh virtual-time context: the p50
/// of their durations, in ms.
fn timed(model: &Arc<LatencyModel>, op: impl Fn(&Ctx, usize)) -> f64 {
    p50((0..REPS).map(|rep| {
        let ctx = Ctx::new(Arc::clone(model), LatencyMode::Virtual, rep_seed(rep));
        op(&ctx, rep);
        ctx.now().as_secs_f64() * 1e3
    }))
}

/// A run's usage, priced and scaled to 100 k operations (USD).
fn per_100k(usage: &UsageSnapshot) -> f64 {
    price_usage(usage, &AwsPricing::default()).total() * 100_000.0 / REPS as f64
}

/// `REPS` measured `set_data` writes of `size` bytes on one node.
struct WriteRun {
    samples: Vec<WriteSample>,
    usage: UsageSnapshot,
}

impl WriteRun {
    fn new(config: DeploymentConfig, size: usize) -> Self {
        let mut pipe = WritePipeline::new(config.with_mode(LatencyMode::Virtual, SEED));
        pipe.seed_node("/node", size);
        let data = vec![0x11; size];
        let before = pipe.deployment().meter().snapshot();
        let samples = (0..REPS)
            .map(|rep| pipe.run_write(rep_seed(rep), "/node", &data))
            .collect();
        let usage = pipe.deployment().meter().snapshot().since(&before);
        WriteRun { samples, usage }
    }

    fn aws(store: UserStoreKind, size: usize) -> Self {
        let config = DeploymentConfig::aws().with_user_store(store);
        Self::new(config.with_function_memory(MEMORY_MB), size)
    }

    fn p50(&self, f: impl Fn(&WriteSample) -> f64) -> f64 {
        p50(self.samples.iter().map(f))
    }

    fn phase(&self, label: &str) -> f64 {
        self.p50(|s| s.phases.get(label).copied().unwrap_or(0.0))
    }

    /// Table 3's columns, in its order, after checking that every charge
    /// of every measured write carries a phase label (an unlabelled one
    /// would be time the columns cannot attribute).
    fn table3(&self) -> [f64; 8] {
        for sample in &self.samples {
            let phases = &sample.phases;
            assert!(!phases.contains_key(""), "time under no label: {phases:?}");
        }
        [
            self.p50(|s| s.follower_ms),
            self.phase("lock_node"),
            self.phase("push_to_leader"),
            self.phase("commit"),
            self.p50(|s| s.leader_ms),
            self.phase("get_node"),
            self.phase("update_user_storage"),
            self.phase("query_watches"),
        ]
    }
}

/// Table 3, the write-cost anchors and the write rows of Figs. 9–12.
fn writes() -> Vec<f64> {
    let small = WriteRun::aws(UserStoreKind::Object, 4);
    let large = WriteRun::aws(UserStoreKind::Object, 250 * 1024);
    let hybrid = WriteRun::aws(UserStoreKind::hybrid_default(), 4);
    let gcp = WriteRun::new(DeploymentConfig::gcp().with_function_memory(MEMORY_MB), 4);
    let cost = price_usage(&small.usage, &AwsPricing::default());
    let (follower, leader) = (small.p50(|s| s.follower_ms), small.p50(|s| s.leader_ms));
    let sync = small.phase("lock_node") + small.phase("commit");
    let e2e = small.p50(|s| s.e2e_ms);
    let mut rows = [small.table3(), large.table3()].concat();
    rows.extend([
        per_100k(&small.usage),
        per_100k(&hybrid.usage),
        per_100k(&large.usage),
        100.0 * (cost.kv + cost.object) / cost.total(),
        leader / follower,
        e2e / zookeeper_p50(true),
        100.0 * sync / (follower + leader),
        100.0 * (1.0 - hybrid.p50(|s| s.e2e_ms) / e2e),
        gcp.p50(|s| s.e2e_ms) / e2e,
    ]);
    rows
}

/// § 5.3.2: GCP's independent vCPU knob at 512 MB, 1 kB writes. The
/// compute cost takes the metered function time at Cloud Functions (1st
/// gen) list prices: per GB-second of memory and per GHz-second of CPU,
/// 1 vCPU being 2.4 GHz.
fn gcp_cpu() -> Vec<f64> {
    const PER_GB_SECOND: f64 = 2.5e-6;
    const PER_GHZ_SECOND: f64 = 1.0e-5;
    let run = |vcpu: f64| {
        let mut config = DeploymentConfig::gcp().with_function_memory(512);
        config.follower_fn.cpu_alloc = Some(vcpu);
        config.leader_fn.cpu_alloc = Some(vcpu);
        let run = WriteRun::new(config, 1024);
        let seconds = run.usage.fn_gb_seconds / 0.5;
        let cost = seconds * (0.5 * PER_GB_SECOND + 2.4 * vcpu * PER_GHZ_SECOND);
        (run.p50(|s| s.e2e_ms), cost)
    };
    let (full_e2e, full_cost) = run(1.0);
    let (third_e2e, third_cost) = run(1.0 / 3.0);
    vec![
        100.0 * (third_e2e / full_e2e - 1.0),
        100.0 * (1.0 - third_cost / full_cost),
    ]
}

/// Fig. 13: the heartbeat over 64 registered sessions, at one run a
/// minute.
fn heartbeat() -> Vec<f64> {
    const CLIENTS: usize = 64;
    const RUNS_A_DAY: f64 = 24.0 * 60.0;
    let config = DeploymentConfig::aws().with_mode(LatencyMode::Virtual, SEED);
    let deployment = Deployment::direct(config);
    let _endpoints: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let id = format!("client-{c}");
            let system = deployment.system();
            system
                .register_session(&Ctx::disabled(), &id, 0)
                .expect("register");
            deployment.bus().register(&id)
        })
        .collect();
    let heartbeat = deployment.make_heartbeat();
    let pricing = AwsPricing::default();
    // A run's p50 (ms) and its cost a day (¢): the metered storage
    // requests, the function's GB-seconds and its invocation.
    let run = |memory: u32| {
        let env = FunctionConfig::default_2048().with_memory(memory).env();
        let before = deployment.meter().snapshot();
        let ms = timed(deployment.model(), |ctx, _| {
            ctx.set_env(env);
            assert_eq!(heartbeat.run(ctx).expect("heartbeat").pinged, CLIENTS);
        });
        let usage = deployment.meter().snapshot().since(&before);
        let storage = price_usage(&usage, &pricing).total() / REPS as f64;
        let compute = memory as f64 / 1024.0 * ms / 1e3 * pricing.lambda_gb_second;
        let cents = RUNS_A_DAY * (storage + compute + pricing.lambda_invocation) * 100.0;
        (ms, cents)
    };
    let (small_ms, small_cents) = run(128);
    let (large_ms, large_cents) = run(2048);
    let busy = 100.0 * RUNS_A_DAY * large_ms / 86_400e3;
    vec![large_ms / small_ms, small_cents, large_cents, busy]
}

/// `REPS` client reads of one `size`-byte node straight from the user
/// store, as the paper's client reads: the p50 (ms) and the usage.
fn storage_reads(config: DeploymentConfig, size: usize) -> (f64, UsageSnapshot) {
    let mut pipe = WritePipeline::new(config.with_mode(LatencyMode::Virtual, SEED));
    pipe.seed_node("/node", size);
    let deployment = pipe.deployment();
    let before = deployment.meter().snapshot();
    let ms = timed(deployment.model(), |ctx, _| {
        ctx.set_region(deployment.config().regions[0]);
        let node = deployment.user_store().read_node(ctx, "/node");
        assert_eq!(node.expect("read").expect("node").data.len(), size);
    });
    (ms, deployment.meter().snapshot().since(&before))
}

/// A 1 kB read (`write == false`) or a 4 B write on a ZooKeeper ensemble
/// of three on the AWS latency model: the p50 in ms.
fn zookeeper_p50(write: bool) -> f64 {
    let ensemble = fk_zk::ZkEnsemble::start(3);
    let model = Arc::new(LatencyModel::aws());
    let ctx = Ctx::new(Arc::clone(&model), LatencyMode::Virtual, SEED);
    let client = ensemble.connect(0, ctx).expect("connect");
    let data = vec![1u8; if write { 4 } else { 1024 }];
    let node = client.create("/node", &data, fk_zk::CreateMode::Persistent);
    node.expect("create");
    p50((0..REPS).map(|_| {
        let before = client.ctx().now();
        if write {
            client.set_data("/node", &data, -1).expect("set_data");
        } else {
            client.get_data("/node", false).expect("get_data");
        }
        (client.ctx().now() - before).as_secs_f64() * 1e3
    }))
}

/// The read-cost anchor and Fig. 8.
fn reads() -> Vec<f64> {
    let aws = |store, size| storage_reads(DeploymentConfig::aws().with_user_store(store), size);
    let (s3, s3_usage) = aws(UserStoreKind::Object, 1024);
    let mut rows = vec![per_100k(&s3_usage)];
    for size in [1024, 64 * 1024] {
        let (kv, _) = aws(UserStoreKind::KeyValue, size);
        rows.push(aws(UserStoreKind::hybrid_default(), size).0 / kv);
    }
    rows.push(aws(UserStoreKind::Cached, 1024).0 / zookeeper_p50(false));
    let gcp = DeploymentConfig::gcp().with_user_store(UserStoreKind::Object);
    rows.push(storage_reads(gcp, 1024).0 / s3);
    rows
}

/// Table 6a's primitives on a warm KV store, timed from an EC2 client.
fn primitives() -> Vec<f64> {
    let model = Arc::new(LatencyModel::aws());
    let kv = KvStore::new("primitives", Region::US_EAST_1, Meter::new());
    let setup = Ctx::disabled();
    let item = Item::new().with("data", vec![0u8; 64 * 1024]);
    kv.put(&setup, "item", item, Condition::Always)
        .expect("seed");
    let locks = TimedLockManager::new(kv.clone(), 3_600_000);
    let counter = AtomicCounter::new(kv.clone(), "counter");
    let list = AtomicList::new(kv.clone(), "list");
    // Entries model watch ids plus bookkeeping, about 64 B each.
    let entries: Vec<Value> = (0..1024)
        .map(|j| Value::Str(format!("watch-instance-{j:050}")))
        .collect();
    vec![
        timed(&model, |ctx, rep| {
            let acquired = locks.acquire(ctx, "item", rep as i64 * 10);
            let token = acquired.expect("acquire").token;
            locks.release(&setup, &token).expect("release");
        }),
        timed(&model, |ctx, _| {
            counter.increment(ctx).expect("increment");
        }),
        timed(&model, |ctx, rep| {
            let entry = vec![Value::Num(rep as i64)];
            list.append(ctx, entry.clone()).expect("append");
            list.remove(&setup, entry).expect("remove");
        }),
        timed(&model, |ctx, _| {
            list.append(ctx, entries.clone()).expect("append");
            list.pop_front(&setup, 1024).expect("pop");
        }),
    ]
}

/// Tables 7a/7c: send, trigger dispatch, warm function, TCP reply.
fn invocations() -> Vec<f64> {
    let sqs = (LatencyModel::aws(), QueueKind::Standard);
    let pubsub = (LatencyModel::gcp(), QueueKind::PubSub);
    [sqs, pubsub]
        .into_iter()
        .map(|(model, kind)| {
            timed(&Arc::new(model), |ctx, _| {
                ctx.charge(Op::QueueSend(kind), 64);
                ctx.charge(Op::QueueDispatch(kind), 64);
                ctx.charge(Op::FnWarmOverhead, 0);
                ctx.charge(Op::TcpReply, 64);
            })
        })
        .collect()
}

/// The measured value over the nearest edge of the paper's band: 1
/// inside it, and the distance [`TOLERANCE`] judges outside it.
fn ratio((lo, hi): (f64, f64), measured: f64) -> f64 {
    if measured < lo {
        measured / lo
    } else if measured > hi {
        measured / hi
    } else {
        1.0
    }
}

fn band_label((lo, hi): (f64, f64)) -> String {
    match () {
        _ if lo == hi => format!("{lo:.2}"),
        _ if hi.is_infinite() => format!("> {lo:.2}"),
        _ if lo == 0.0 => format!("< {hi:.2}"),
        _ => format!("{lo:.2}-{hi:.2}"),
    }
}

#[test]
fn every_row_repeats_its_record_and_names_its_gap() {
    // In the order of `ROWS`; a row measured out of place fails its
    // record.
    let sections = [
        writes(),
        gcp_cpu(),
        heartbeat(),
        reads(),
        primitives(),
        invocations(),
    ];
    let measured = sections.concat();
    assert_eq!(measured.len(), ROWS.len(), "one record per measured row");

    let header = ("row", "paper", "measured", "ratio");
    println!(
        "\n{:<58} {:>12} {:>10} {:>7}  owner of the gap",
        header.0, header.1, header.2, header.3
    );
    let mut failures = Vec::new();
    for (&(name, paper, recorded, owner), value) in ROWS.iter().zip(measured) {
        let shown = if name.ends_with("($)") {
            usd(value)
        } else {
            format!("{value:.2}")
        };
        let (ratio, band) = (ratio(paper, value), band_label(paper));
        let owner_label = owner.unwrap_or("-");
        println!("{name:<58} {band:>12} {shown:>10} {ratio:>7.2}  {owner_label}");
        if (value - recorded).abs() > RECORD_SLACK * recorded.abs() {
            failures.push(format!("{name}: measured {value}, recorded {recorded}"));
        }
        let within = (1.0 - TOLERANCE..=1.0 + TOLERANCE).contains(&ratio);
        if within == owner.is_some() {
            let side = if within { "within" } else { "outside" };
            failures.push(format!(
                "{name}: {value} is {side} the tolerance, owner {owner:?}"
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn pipeline_produces_plausible_breakdown() {
    let config = DeploymentConfig::aws().with_mode(LatencyMode::Virtual, 42);
    let mut pipe = WritePipeline::new(config);
    pipe.seed_node("/bench", 1024);
    let sample = pipe.run_write(7, "/bench", &[0u8; 1024]);
    // Calibration sanity: e2e in the paper's ballpark (~60–150 ms for
    // 1 kB at 2048 MB), follower ≈ 25–60 ms, leader ≈ 40–120 ms.
    assert!(
        sample.e2e_ms > 40.0 && sample.e2e_ms < 250.0,
        "e2e {}",
        sample.e2e_ms
    );
    assert!(sample.follower_ms > 10.0, "follower {}", sample.follower_ms);
    assert!(sample.leader_ms > 20.0, "leader {}", sample.leader_ms);
    assert!(sample.phases.contains_key("lock_node"));
    assert!(sample.phases.contains_key("push_to_leader"));
    assert!(sample.phases.contains_key("commit"));
    assert!(sample.phases.contains_key("update_user_storage"));
}

#[test]
fn disabled_mode_still_functions() {
    let mut pipe = WritePipeline::new(DeploymentConfig::aws());
    pipe.seed_node("/n", 16);
    let sample = pipe.run_write(1, "/n", b"new-data");
    assert_eq!(sample.e2e_ms, 0.0);
    // The write actually happened.
    let ctx = Ctx::disabled();
    let rec = pipe
        .deployment()
        .user_store()
        .read_node(&ctx, "/n")
        .unwrap()
        .unwrap();
    assert_eq!(rec.data.as_ref(), b"new-data");
    assert_eq!(rec.version, 1);
}

#[test]
fn large_payloads_take_staging_path() {
    let config = DeploymentConfig::aws().with_mode(LatencyMode::Virtual, 3);
    let mut pipe = WritePipeline::new(config);
    pipe.seed_node("/big", 16);
    let data = vec![1u8; 250 * 1024];
    let sample = pipe.run_write(5, "/big", &data);
    assert!(sample.e2e_ms > 50.0);
    // Staged object cleaned up by the leader.
    let ctx = Ctx::disabled();
    assert!(pipe
        .deployment()
        .staging()
        .list(&ctx, "staging/")
        .is_empty());
}

#[test]
fn usd_formats() {
    assert_eq!(usd(0.04), "$0.0400");
    assert_eq!(usd(1.12), "$1.12");
    assert_eq!(usd(719.0), "$719");
}
