//! The fleet gate: 10⁴ lightweight simulated sessions against the full
//! pipeline — client encode → write queue → follower (Alg. 1) → sharded
//! leader tier (Alg. 2, inline watch dispatch) → distributor → user
//! stores → replica feed — on virtual time, driven directly with no
//! threads. A clean fleet, a durable-store fleet, a chaos fleet and a
//! migration-storm fleet must finish with zero integrity violations.
//! Failure messages carry the seed and geometry so any run replays
//! exactly; `-- --nocapture` prints every run's numbers, and
//! `-- --ignored --nocapture` (best with `--release`) runs the
//! saturation sweep.
//!
//! A session here is what a session is to the service side: a row in
//! the system store, a queue group, a watch registration, a
//! notification endpoint. A run has four phases:
//! - **churn** registers every session and closes one in
//!   [`CHURN_EVERY`] through the pipeline;
//! - **herd** seeds the hot tree and arms a watch herd on the hottest
//!   key; the first [`OBSERVERS`] live sessions get live notification
//!   endpoints;
//! - **storm** issues zipf-skewed reads and writes at
//!   [`SESSION_OP_RATE_HZ`] per live session;
//! - **sweep** checks Z1 tree integrity, convergence to the last
//!   acknowledged value, replica agreement, Z2/Z3 on the observers'
//!   delivery streams, one-shot herd delivery and ack accounting.
//!
//! The follower tier is elastic, so each request's invocation runs on
//! the request's own virtual clock. Each leader shard group is one FIFO
//! lane whose clock only advances by processing: when offered load
//! exceeds lane capacity, a backlog builds in the real leader queue and
//! modeled latency grows, which is the knee the sweep measures.

use fk_cloud::ops::Op;
use fk_cloud::queue::Message;
use fk_cloud::trace::{Ctx, LatencyMode};
use fk_cloud::FaultPlan;
use fk_core::consistency::check_tree_integrity;
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::follower::Follower;
use fk_core::leader::Leader;
use fk_core::messages::{
    ClientNotification, ClientRequest, LeaderRecord, MultiOp, Payload, WriteOp,
};
use fk_core::replica::{Lookup, ReplicaConfig};
use fk_core::{CreateMode, DistributorConfig, WatchKind};
use fk_workloads::SeededZipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Fleet size of the gate runs; the durable and chaos runs use a
/// quarter of it.
const SESSIONS: usize = 10_000;
/// Per-session offered rate in virtual ops/second. ZooKeeper sessions
/// are mostly idle; at this rate one session is negligible, so
/// saturation is a fleet-size phenomenon: the sweep's knee lands
/// between 131,072 and 262,144 sessions.
const SESSION_OP_RATE_HZ: f64 = 6.0e-4;
/// Zipf skew of the hot-key choice (YCSB default).
const THETA: f64 = 0.99;
/// Sessions with live notification endpoints (Z2/Z3 spot checks).
const OBSERVERS: usize = 256;
/// One in `CHURN_EVERY` sessions closes through the pipeline before
/// the storm.
const CHURN_EVERY: usize = 8;
/// Leader shard groups accepting writes at the start of a run.
const GROUPS: usize = 2;
/// Distributor shards.
const SHARDS: usize = 3;
/// Payload bytes per hot-key write.
const NODE_SIZE: usize = 128;
/// Master seed: workload streams and virtual-latency draws.
const SEED: u64 = 0xF1EE7;
/// Messages per leader-lane invocation: the deployed leader trigger's
/// cap (`DistributorConfig::max_batch`).
const LANE_BATCH: usize = 16;
/// Queue visibility window, far longer than any run: redelivery
/// happens only through explicit nacks, never through a wall-clock
/// timeout racing the driver.
const VISIBILITY: Duration = Duration::from_secs(3600);
/// Passes over the write queue and every lane a forced drain may take
/// before it reports what is left. A chaos-delayed head holds its
/// group back for a few receives, so a drain needs a few passes.
const DRAIN_PASSES: usize = 64;
/// Migration storm: shard groups provisioned, and the storm fractions
/// at which the tier scales out to all of them and group 0 begins
/// draining into group 1 (completed once the storm's lanes empty).
const PROVISIONED: usize = 4;
const SCALE_OUT_AT: f64 = 0.3;
const DRAIN_AT: f64 = 0.6;
/// Scaling efficiency below which a sweep step is the knee.
const KNEE_EFFICIENCY: f64 = 0.75;

/// What a test varies about a fleet run.
struct FleetConfig {
    /// Sessions registered in the system store.
    sessions: usize,
    /// Storm ops issued per live session.
    ops_per_session: usize,
    /// Hot-key space.
    nodes: u64,
    /// Chaos schedule seed (`FaultPlan::standard`); `None` is fault-free.
    chaos: Option<u64>,
    /// Start on [`GROUPS`] of [`PROVISIONED`] groups, scale out and
    /// drain group 0 mid-storm.
    migration: bool,
    /// User and system stores on the embedded LSM engine.
    durable: bool,
}

impl FleetConfig {
    /// The gate shape: 256 hot keys, one op per live session.
    fn standard(sessions: usize) -> Self {
        FleetConfig {
            sessions,
            ops_per_session: 1,
            nodes: 256,
            chaos: None,
            migration: false,
            durable: false,
        }
    }

    /// Sessions arming a data watch on the hottest key (every 16th also
    /// arms a subtree watch on the tree root).
    fn herd(&self) -> usize {
        (self.sessions / 16).clamp(16, 2048)
    }

    fn deployment(&self) -> DeploymentConfig {
        let provisioned = if self.migration { PROVISIONED } else { GROUPS };
        let mut config = DeploymentConfig::aws()
            .with_distributor(DistributorConfig::new(SHARDS, LANE_BATCH))
            .with_shard_groups(provisioned)
            .with_replicas(ReplicaConfig::with_count(1))
            .with_mode(LatencyMode::Virtual, SEED);
        if self.migration {
            config = config.with_active_groups(GROUPS);
        }
        if let Some(chaos_seed) = self.chaos {
            config = config.with_chaos(FaultPlan::standard(chaos_seed));
        }
        if self.durable {
            config = config.durable();
        }
        config
    }

    /// Seed and geometry, for every failure message.
    fn geometry(&self) -> String {
        format!(
            "seed {SEED:#x} sessions {} nodes {} groups {GROUPS} shards {SHARDS} \
             rate {SESSION_OP_RATE_HZ}Hz chaos {:?} migration {} durable {}",
            self.sessions, self.nodes, self.chaos, self.migration, self.durable
        )
    }
}

/// Median and tail of a latency sample set, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Summary {
    p50: f64,
    p99: f64,
}

fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
    let pct = |p: f64| sorted[((sorted.len() as f64 - 1.0) * p).round() as usize];
    Summary {
        p50: pct(0.50),
        p99: pct(0.99),
    }
}

/// Result of one fleet run.
struct FleetResult {
    /// Live sessions after churn.
    live_sessions: usize,
    /// Pipeline writes issued in the storm.
    writes_issued: usize,
    /// Storm writes that completed through the leader tier.
    completed: usize,
    /// Completed ops per virtual second over the storm window.
    throughput_ops_per_vsec: f64,
    /// Modeled end-to-end latency of completed storm writes.
    latency: Summary,
    /// Retries performed by the services' retry layer.
    retries: u64,
    /// Faults the chaos engine injected.
    faults_injected: u64,
    /// Messages stranded on the write/leader dead-letter queues.
    dead_letters: usize,
    /// Membership changes fired mid-storm (scale-outs + drains).
    migrations: usize,
    /// Watch notifications delivered to observed herd members.
    watch_deliveries: usize,
    /// Integrity-sweep violations (empty on a healthy run).
    violations: Vec<String>,
}

impl FleetResult {
    /// The numbers a replay of the same seed must reproduce.
    fn numbers(&self) -> (usize, f64, Summary, u64, u64) {
        (
            self.completed,
            self.throughput_ops_per_vsec,
            self.latency,
            self.retries,
            self.faults_injected,
        )
    }

    fn print(&self, label: &str, config: &FleetConfig) {
        eprintln!(
            "fleet gate {label} [{}]: {} completed of {} writes, {:.1} ops/vs, \
             p50 {:.1} ms, p99 {:.1} ms, {} retries, {} faults, {} dead",
            config.geometry(),
            self.completed,
            self.writes_issued,
            self.throughput_ops_per_vsec,
            self.latency.p50,
            self.latency.p99,
            self.retries,
            self.faults_injected,
            self.dead_letters
        );
    }

    fn assert_clean(&self, label: &str, config: &FleetConfig) {
        assert!(
            self.violations.is_empty(),
            "fleet gate {label} [{}]: {:#?}",
            config.geometry(),
            self.violations
        );
    }
}

/// One leader shard-group FIFO lane: a persistent virtual clock that
/// only advances by processing, which is what makes the group the
/// saturating resource.
struct Lane {
    ctx: Ctx,
    busy_until_ns: u64,
}

/// Everything the driver threads through one run.
struct Fleet {
    deployment: Deployment,
    follower: Follower,
    leader: Leader,
    lanes: Vec<Lane>,
    /// Virtual arrival time per in-flight request.
    arrivals: HashMap<(String, u64), u64>,
    latencies_ms: Vec<f64>,
}

impl Fleet {
    fn new(config: &FleetConfig) -> Self {
        let deployment = Deployment::direct(config.deployment());
        let follower = deployment.make_follower();
        let leader = deployment.make_leader_inline();
        let lanes = (0..deployment.leader_queues().shards() as u64)
            .map(|g| Lane {
                ctx: ctx_at(&deployment, g.wrapping_mul(0x9E37_79B9)),
                busy_until_ns: 0,
            })
            .collect();
        Fleet {
            deployment,
            follower,
            leader,
            lanes,
            arrivals: HashMap::new(),
            latencies_ms: Vec::new(),
        }
    }

    fn fresh_ctx(&self, salt: u64) -> Ctx {
        ctx_at(&self.deployment, salt)
    }

    /// Client-side encode + enqueue of one request at virtual `ctx`
    /// time. Bounded retry absorbs injected queue faults.
    fn submit(&mut self, ctx: &Ctx, session: &str, request_id: u64, op: WriteOp) {
        let request = ClientRequest {
            session_id: session.to_owned(),
            request_id,
            op,
        };
        ctx.charge(Op::ClientWork, NODE_SIZE);
        let body = request.encode();
        for _ in 0..64 {
            if self
                .deployment
                .write_queue()
                .send(ctx, session, body.clone())
                .is_ok()
            {
                self.arrivals
                    .insert((session.to_owned(), request_id), ctx.now_ns());
                return;
            }
        }
        panic!("write-queue send failed 64 times (chaos budget should bound this)");
    }

    /// Drains the write queue through the follower on `ctx` (the
    /// elastic tier: every request's invocation runs on its own clock).
    fn run_follower(&mut self, ctx: &Ctx) {
        let queue_kind = self.deployment.config().queue_kind();
        let follower_env = self.deployment.config().follower_fn.env();
        for _ in 0..256 {
            let Some(batch) = self
                .deployment
                .write_queue()
                .receive(LANE_BATCH, VISIBILITY)
            else {
                return;
            };
            let bytes: usize = batch.messages.iter().map(|m| m.body.len()).sum();
            ctx.charge(Op::QueueDispatch(queue_kind), bytes);
            ctx.charge(Op::FnWarmOverhead, 0);
            let started = ctx.now();
            let outcome = ctx.with_env(follower_env, || {
                self.follower.process_messages(ctx, &batch.messages)
            });
            self.deployment
                .meter()
                .fn_invocation(self.deployment.config().follower_fn.memory_mb, {
                    ctx.now().saturating_sub(started)
                });
            // A failure redelivers, and the queue's attempt counter
            // walks poisoned messages to the DLQ.
            self.deployment
                .write_queue()
                .settle(batch.receipt, &outcome);
        }
    }

    /// Records completion latency for leader-batch messages `[..upto]`
    /// at `completion_ns`. A redelivered record's arrival is gone, so a
    /// request completes once.
    fn record_completions(&mut self, messages: &[Message], upto: usize, completion_ns: u64) {
        for message in &messages[..upto.min(messages.len())] {
            if let Some(record) = LeaderRecord::decode(&message.body) {
                let key = (record.session_id, record.request_id);
                if let Some(arrival) = self.arrivals.remove(&key) {
                    self.latencies_ms
                        .push(completion_ns.saturating_sub(arrival) as f64 / 1e6);
                }
            }
        }
    }

    /// Drains leader lanes. A lane only picks up work once its clock
    /// has fallen behind `ready_ns` (the current request's
    /// follower-completion time) — while it is "busy in the future",
    /// backlog accumulates in the real queue, which is the saturation
    /// mechanism. `force` takes every lane regardless of its clock.
    fn run_lanes(&mut self, ready_ns: u64, force: bool) {
        let queue_kind = self.deployment.config().queue_kind();
        let leader_env = self.deployment.config().leader_fn.env();
        let leader_mb = self.deployment.config().leader_fn.memory_mb;
        // Outer loop: a lane deferring on a cross-group predecessor must
        // get another look after the *other* lanes made progress; stop
        // only when a full pass over every lane moved nothing.
        loop {
            let mut progress = false;
            for g in 0..self.lanes.len() {
                loop {
                    let queue = self.deployment.leader_queues().queue(g);
                    if queue.pending() == 0 || (!force && self.lanes[g].busy_until_ns > ready_ns) {
                        break;
                    }
                    let Some(batch) = queue.receive(LANE_BATCH, VISIBILITY) else {
                        break;
                    };
                    let lane = &self.lanes[g];
                    // Invocation starts when the lane frees up and the
                    // messages are there: max(lane clock, request ready).
                    lane.ctx.merge_time_ns(lane.busy_until_ns.max(ready_ns));
                    let bytes: usize = batch.messages.iter().map(|m| m.body.len()).sum();
                    lane.ctx.charge(Op::QueueDispatch(queue_kind), bytes);
                    lane.ctx.charge(Op::FnWarmOverhead, 0);
                    let started = lane.ctx.now();
                    let outcome = lane.ctx.with_env(leader_env, || {
                        self.leader.process_messages(&lane.ctx, &batch.messages)
                    });
                    self.deployment
                        .meter()
                        .fn_invocation(leader_mb, lane.ctx.now().saturating_sub(started));
                    let completion_ns = self.lanes[g].ctx.now_ns();
                    // SQS partial-batch semantics: messages before
                    // `failed_index` committed and are deleted by the
                    // settle — account them as completed.
                    let consumed = queue.settle(batch.receipt, &outcome);
                    self.record_completions(&batch.messages, consumed, completion_ns);
                    self.lanes[g].busy_until_ns = completion_ns;
                    let deferred = matches!(&outcome, Err(e) if e.deferred);
                    progress |= consumed > 0 || !deferred;
                    if deferred {
                        // The predecessor lives in another lane; give
                        // it a chance before retrying this group.
                        break;
                    }
                }
            }
            if !progress {
                break;
            }
        }
    }

    /// Messages on the write queue and every leader queue.
    fn pending(&self) -> usize {
        self.deployment.write_queue().pending() + self.deployment.leader_queues().pending()
    }

    /// A phase's forced drain: runs the write queue through the
    /// follower on `ctx` and every lane regardless of its clock until
    /// no queue holds a message. A chaos-delayed head makes a receive
    /// come back empty while its queue is not, so one pass is not
    /// enough. Returns a violation if [`DRAIN_PASSES`] passes leave
    /// messages queued.
    fn drain(&mut self, ctx: &Ctx, phase: &str) -> Option<String> {
        for _ in 0..DRAIN_PASSES {
            self.run_follower(ctx);
            self.run_lanes(ctx.now_ns(), true);
            if self.pending() == 0 {
                return None;
            }
        }
        Some(format!(
            "{phase}: forced drain left {} messages queued",
            self.pending()
        ))
    }

    fn dead_letters(&self) -> Vec<(String, u64)> {
        let mut dead = Vec::new();
        for message in self.deployment.write_queue().dead_letters() {
            if let Some(request) = ClientRequest::decode(&message.body) {
                dead.push((request.session_id, request.request_id));
            }
        }
        for message in self.deployment.leader_queues().drain_dead_letters() {
            if let Some(record) = LeaderRecord::decode(&message.body) {
                dead.push((record.session_id, record.request_id));
            }
        }
        dead
    }
}

/// A virtual clock at 0 in the deployment's first region, seeded
/// `SEED ^ salt`.
fn ctx_at(deployment: &Deployment, salt: u64) -> Ctx {
    let ctx = Ctx::new(
        Arc::clone(deployment.model()),
        deployment.config().mode,
        SEED ^ salt,
    );
    ctx.set_region(deployment.config().regions[0]);
    ctx
}

fn session_name(i: usize) -> String {
    format!("f{i}")
}

/// Retries a direct control-plane call until the chaos engine's finite
/// fault budget lets it through.
fn retry<T, E: std::fmt::Debug>(mut f: impl FnMut() -> Result<T, E>) -> T {
    for _ in 0..64 {
        if let Ok(value) = f() {
            return value;
        }
    }
    f().expect("operation failed beyond any bounded chaos budget")
}

/// Runs one fleet: churn → herd → storm → integrity sweep.
fn run_fleet(config: &FleetConfig) -> FleetResult {
    let mut fleet = Fleet::new(config);
    let mut violations: Vec<String> = Vec::new();

    // Churn: register the whole fleet (elastic: independent
    // system-store puts, each on its own virtual clock), then close one
    // in `CHURN_EVERY` through the real pipeline.
    let interarrival_ns = (1.0e9 / (config.sessions as f64 * SESSION_OP_RATE_HZ).max(1.0)) as u64;
    let mut churn_virtual_end = 0u64;
    for i in 0..config.sessions {
        let ctx = fleet.fresh_ctx(i as u64);
        ctx.advance(Duration::from_nanos(i as u64 * interarrival_ns));
        // Bounded retry absorbs injected KV faults (their budgets are
        // finite, so persistence always wins).
        retry(|| {
            fleet
                .deployment
                .system()
                .register_session(&ctx, &session_name(i), 0)
        });
        churn_virtual_end = churn_virtual_end.max(ctx.now_ns());
    }
    let is_closed = |i: &usize| i % CHURN_EVERY == CHURN_EVERY - 1;
    let closed: Vec<usize> = (0..config.sessions).filter(is_closed).collect();
    let live: Vec<usize> = (0..config.sessions).filter(|i| !is_closed(i)).collect();
    let mut ctx = fleet.fresh_ctx(0x10_0000);
    ctx.advance(Duration::from_nanos(churn_virtual_end));
    for (k, &i) in closed.iter().enumerate() {
        ctx = fleet.fresh_ctx(0x10_0000 + i as u64);
        ctx.advance(Duration::from_nanos(
            churn_virtual_end + k as u64 * interarrival_ns,
        ));
        fleet.submit(&ctx, &session_name(i), 1, WriteOp::CloseSession);
        fleet.run_follower(&ctx);
        fleet.run_lanes(ctx.now_ns(), false);
    }
    violations.extend(fleet.drain(&ctx, "churn"));
    // Spot-check ack accounting for the churn: sampled closed sessions
    // are gone, sampled survivors are still registered. (Chaos can
    // legitimately strand a close on the DLQ; those are exempt.)
    let dead_now = fleet.dead_letters();
    let probe = fleet.fresh_ctx(0x20_0000);
    let system = fleet.deployment.system();
    for &i in closed.iter().take(64) {
        let name = session_name(i);
        if dead_now.iter().all(|(s, _)| s != &name) && system.get_session(&probe, &name).is_some() {
            violations.push(format!("churn: closed session {name} still registered"));
        }
    }
    for &i in live.iter().take(64) {
        let name = session_name(i);
        if system.get_session(&probe, &name).is_none() {
            violations.push(format!("churn: live session {name} lost its registration"));
        }
    }

    // Herd: seed the hot tree through the pipeline, arm the watch herd
    // (data watches on the hottest key; every 16th member a subtree
    // watch on the tree root), wire observer endpoints.
    let seeder = session_name(live[0]);
    let mut ctx = fleet.fresh_ctx(0x30_0000);
    fleet.submit(
        &ctx,
        &seeder,
        100,
        WriteOp::Create {
            path: "/f".to_owned(),
            payload: Payload::inline(b""),
            mode: CreateMode::Persistent,
        },
    );
    fleet.run_follower(&ctx);
    violations.extend(fleet.drain(&ctx, "herd"));
    for n in 0..config.nodes {
        ctx = fleet.fresh_ctx(0x30_0000 + 1 + n);
        fleet.submit(
            &ctx,
            &seeder,
            101 + n,
            WriteOp::Create {
                path: format!("/f/n{n}"),
                payload: Payload::inline(&[0x5A; NODE_SIZE]),
                mode: CreateMode::Persistent,
            },
        );
        fleet.run_follower(&ctx);
        fleet.run_lanes(ctx.now_ns(), false);
    }
    violations.extend(fleet.drain(&ctx, "herd"));
    {
        let ctx = fleet.fresh_ctx(0x40_0000);
        let system = fleet.deployment.system();
        for (k, &i) in live.iter().take(config.herd()).enumerate() {
            let session = session_name(i);
            retry(|| system.register_watch(&ctx, "/f/n0", WatchKind::Data, &session));
            if k % 16 == 0 {
                retry(|| system.register_watch(&ctx, "/f", WatchKind::Subtree, &session));
            }
        }
    }
    // Observer endpoints: storm writers come from this cohort so their
    // delivery streams are real; herd members overlap so one-shot
    // fan-out is observable.
    let mut endpoints = Vec::new();
    let mut keepalive = Vec::new();
    for &i in live.iter().take(OBSERVERS) {
        let session = session_name(i);
        let (rx, alive) = fleet.deployment.bus().register(&session);
        alive.store(true, Ordering::SeqCst);
        endpoints.push((session, rx));
        keepalive.push(alive);
    }

    // Storm: zipf-skewed mixed traffic from the whole live fleet at the
    // offered rate.
    let storm_ops = live.len() * config.ops_per_session;
    let storm_interarrival_ns = (1.0e9 / (live.len() as f64 * SESSION_OP_RATE_HZ)) as u64;
    let mut zipf = SeededZipf::with_theta(config.nodes, THETA, SEED);
    let mut mix = SmallRng::seed_from_u64(SEED ^ 0xDEAD_BEEF);
    let mut request_ids: HashMap<String, u64> = HashMap::new();
    let mut expected: HashMap<String, Vec<u8>> = HashMap::new();
    let mut reads = 0usize;
    // Storm arrivals start where the lane clocks left off, so modeled
    // latency measures queueing *within* the storm, not phase offsets.
    let storm_base_ns = (fleet.lanes.iter())
        .map(|lane| lane.busy_until_ns)
        .max()
        .unwrap_or(0);
    let mut ctx = fleet.fresh_ctx(0x50_0000);
    ctx.advance(Duration::from_nanos(storm_base_ns));
    let committed_before = fleet.latencies_ms.len();
    // Migration points, as storm indices, clamped inside the storm so
    // the change always lands mid-run.
    let migration_index = |at: f64| ((storm_ops as f64 * at) as usize).clamp(1, storm_ops - 1);
    let scale_out_k = config.migration.then(|| migration_index(SCALE_OUT_AT));
    let drain_k = config.migration.then(|| migration_index(DRAIN_AT));
    let mut migrations = 0usize;
    for k in 0..storm_ops {
        let arrival_ns = storm_base_ns + k as u64 * storm_interarrival_ns;
        if scale_out_k == Some(k) {
            let ctx = fleet.fresh_ctx(0x70_0000);
            ctx.advance(Duration::from_nanos(arrival_ns));
            // Bounded retry absorbs injected faults; a repeated call is
            // idempotent (the widened membership only publishes once).
            retry(|| fleet.deployment.scale_out(&ctx, PROVISIONED));
            migrations += 1;
        }
        if drain_k == Some(k) {
            let ctx = fleet.fresh_ctx(0x70_0001);
            ctx.advance(Duration::from_nanos(arrival_ns));
            retry(|| fleet.deployment.begin_drain(&ctx, 0, 1));
            migrations += 1;
        }
        let session = session_name(live[k % live.len()]);
        let request_ctx = fleet.fresh_ctx(0x50_0000 + k as u64);
        request_ctx.advance(Duration::from_nanos(arrival_ns));
        let roll: f64 = mix.gen();
        if roll < 0.15 {
            // Read: replica tier first (MRD = the published committed
            // floor, the strictest global freshness bound), storage
            // otherwise. Elastic — reads never touch the leader lanes.
            let path = format!("/f/n{}", zipf.next_key());
            let mrd = fleet.deployment.floors().committed();
            let served =
                (fleet.deployment.replicas().replica_for(&session)).is_some_and(|replica| {
                    !matches!(replica.lookup(&request_ctx, &path, mrd), Lookup::Miss)
                });
            if !served {
                let _ = fleet.deployment.user_store().read_node(&request_ctx, &path);
            }
            reads += 1;
            continue;
        }
        ctx = request_ctx;
        let request_id = {
            let next = request_ids.entry(session.clone()).or_insert(1000);
            *next += 1;
            *next
        };
        let op = if roll < 0.25 {
            // Cold create: a fresh path, exercising tree growth and the
            // parent's children log.
            let path = format!("/f/x{k}");
            expected.insert(path.clone(), vec![0x5A; 8]);
            WriteOp::Create {
                path,
                payload: Payload::inline(&[0x5A; 8]),
                mode: CreateMode::Persistent,
            }
        } else if roll < 0.35 {
            // Multi: the ZooKeeper compare-and-swap idiom — a version
            // check guarding a write of the same hot node.
            let path = format!("/f/n{}", zipf.next_key());
            let value = format!("m{k}").into_bytes();
            expected.insert(path.clone(), value.clone());
            WriteOp::Multi {
                ops: vec![
                    MultiOp::Check {
                        path: path.clone(),
                        expected_version: -1,
                    },
                    MultiOp::SetData {
                        path,
                        payload: Payload::inline(&value),
                        expected_version: -1,
                    },
                ],
            }
        } else {
            // Hot-key write storm.
            let path = format!("/f/n{}", zipf.next_key());
            let mut value = vec![0u8; NODE_SIZE];
            value[..8].copy_from_slice(&(k as u64).to_le_bytes());
            expected.insert(path.clone(), value.clone());
            WriteOp::SetData {
                path,
                payload: Payload::inline(&value),
                expected_version: -1,
            }
        };
        fleet.submit(&ctx, &session, request_id, op);
        fleet.run_follower(&ctx);
        fleet.run_lanes(ctx.now_ns(), false);
    }
    violations.extend(fleet.drain(&ctx, "storm"));
    // The drain completes once the storm's lanes emptied the hot
    // group's queue: the feed reconciles and the floor retires. The
    // redirect stays — the hash width still includes group 0.
    if drain_k.is_some() {
        let ctx = fleet.fresh_ctx(0x70_0002);
        retry(|| fleet.deployment.complete_drain(&ctx, 0));
    }
    let completed = fleet.latencies_ms.len() - committed_before;
    let latency = summarize(&fleet.latencies_ms[committed_before..]);
    let last_completion_ns = (fleet.lanes.iter())
        .map(|lane| lane.busy_until_ns)
        .max()
        .unwrap_or(0);
    let storm_virtual_s = last_completion_ns.saturating_sub(storm_base_ns) as f64 / 1e9;
    let throughput = if storm_virtual_s > 0.0 {
        completed as f64 / storm_virtual_s
    } else {
        0.0
    };

    // Sweep.
    let ctx = fleet.fresh_ctx(0x60_0000);
    let dead = fleet.dead_letters();
    let user_store = fleet.deployment.user_store();

    // Z1: structural integrity of the whole surviving tree.
    for violation in check_tree_integrity(&ctx, fleet.deployment.system(), user_store.as_ref()) {
        violations.push(format!("Z1: {violation:?}"));
    }

    // Ack accounting: every storm write either completed through a lane
    // or is sitting decoded on a DLQ, and the storm counts no completion
    // of a write an earlier phase issued.
    let writes_issued = storm_ops - reads;
    if completed + dead.len() < writes_issued {
        violations.push(format!(
            "ack accounting: {writes_issued} issued, {completed} completed, {} dead",
            dead.len()
        ));
    }
    if completed > writes_issued {
        violations.push(format!(
            "ack accounting: {completed} completed for {writes_issued} writes issued"
        ));
    }

    // Tree convergence: on fault-free static-membership runs every
    // acknowledged final value must be the stored value (sampled to
    // bound sweep time). Migration runs skip it: a mid-storm re-route
    // lets two *different* sessions' concurrent writes to one path
    // commit in either order (per-session Z2 still holds through the
    // txid floors, and `migration_properties` checks convergence on
    // conflict-free paths), so last-submitted is no longer the oracle.
    if config.chaos.is_none() && !config.migration {
        for (path, value) in expected.iter().take(512) {
            match user_store.read_node(&ctx, path) {
                Ok(Some(record)) => {
                    if record.data.as_ref() != value.as_slice() {
                        violations.push(format!("convergence: {path} diverged from last ack"));
                    }
                }
                Ok(None) => violations.push(format!("convergence: {path} missing")),
                Err(e) => violations.push(format!("convergence: {path} unreadable: {e:?}")),
            }
        }
        // Replica agreement: what the tier answers at the committed
        // floor, a record or a proven absence, is what storage holds.
        let mrd = fleet.deployment.floors().committed();
        if let Some(replica) = fleet.deployment.replicas().replica_for(&seeder) {
            for path in expected.keys().take(64) {
                let served = match replica.lookup(&ctx, path, mrd) {
                    Lookup::Hit(record) => Some(record.data.clone()),
                    Lookup::Absent { .. } => None,
                    Lookup::Miss => continue,
                };
                let stored = user_store.read_node(&ctx, path).ok().flatten();
                if stored.map(|s| s.data) != served {
                    violations.push(format!("replica: {path} diverged from storage"));
                }
            }
        }
    }

    // Z2/Z3 spot checks on the observed sessions' real delivery
    // streams: write results arrive in submission order with strictly
    // increasing txids per session, txids unique across the fleet.
    let mut seen_txids: HashMap<u64, String> = HashMap::new();
    let mut watch_deliveries = 0usize;
    let mut fired_per_session: HashMap<(String, String), usize> = HashMap::new();
    for (session, rx) in &endpoints {
        let mut last_request = 0u64;
        let mut last_txid = 0u64;
        for notification in rx.try_iter() {
            match notification {
                ClientNotification::WriteResult {
                    request_id,
                    result: Ok(_),
                    txid,
                } => {
                    // An exact duplicate is at-least-once redelivery
                    // (a nacked leader batch re-committed idempotently)
                    // — allowed; a *reordering* is a Z2 violation.
                    if request_id == last_request && txid == last_txid {
                        continue;
                    }
                    if request_id <= last_request {
                        violations.push(format!(
                            "Z2: {session} got request {request_id} after {last_request}"
                        ));
                    }
                    if txid <= last_txid {
                        violations.push(format!("Z2: {session} txid {txid} not above {last_txid}"));
                    }
                    if let Some(other) = seen_txids.insert(txid, session.clone()) {
                        if &other != session {
                            violations
                                .push(format!("Z3: txid {txid} seen at {other} and {session}"));
                        }
                    }
                    last_request = request_id;
                    last_txid = txid;
                }
                ClientNotification::WriteResult { .. } | ClientNotification::Ping { .. } => {}
                ClientNotification::Watch(event) => {
                    watch_deliveries += 1;
                    if event.path != "/f/n0" && event.path != "/f" {
                        violations.push(format!(
                            "herd: {session} got a watch for unexpected path {}",
                            event.path
                        ));
                    }
                    *fired_per_session
                        .entry((session.clone(), event.path))
                        .or_insert(0) += 1;
                }
            }
        }
    }
    // One-shot herd accounting: a watch registration fires at most
    // once per (session, path); and if the hot key was written on a
    // fault-free run, the herd must have seen it.
    for ((session, path), fired) in &fired_per_session {
        if *fired > 1 {
            violations.push(format!(
                "Z4: one-shot watch on {path} fired {fired} times for {session}"
            ));
        }
    }
    let hot_written = config.chaos.is_none() && expected.contains_key("/f/n0");
    if hot_written && watch_deliveries == 0 {
        violations.push("herd: hot key written but no watch was delivered".to_owned());
    }
    drop(keepalive);

    FleetResult {
        live_sessions: live.len(),
        writes_issued,
        completed,
        throughput_ops_per_vsec: throughput,
        latency,
        retries: fleet.deployment.meter().snapshot().retries,
        faults_injected: (fleet.deployment.chaos())
            .map(|chaos| chaos.total_fired())
            .unwrap_or(0),
        dead_letters: dead.len(),
        migrations,
        watch_deliveries,
        violations,
    }
}

/// The first fleet size of an ascending `(sessions, throughput)` sweep
/// whose throughput gain over its predecessor falls below
/// [`KNEE_EFFICIENCY`] × the size ratio: sub-linear scaling, the serial
/// leader tier stopped keeping up. `None` if the sweep never saturated.
fn detect_knee(rows: &[(usize, f64)]) -> Option<usize> {
    rows.windows(2).find_map(|pair| {
        let size_ratio = pair[1].0 as f64 / pair[0].0 as f64;
        let gain = pair[1].1 / pair[0].1.max(f64::MIN_POSITIVE);
        (gain < KNEE_EFFICIENCY * size_ratio).then_some(pair[1].0)
    })
}

fn chaos_fleet(sessions: usize) -> FleetConfig {
    FleetConfig {
        chaos: Some(0x000F_1EE7_C4A0),
        ..FleetConfig::standard(sessions)
    }
}

fn migration_fleet() -> FleetConfig {
    FleetConfig {
        nodes: 16,
        ops_per_session: 2,
        chaos: Some(0x417),
        migration: true,
        ..FleetConfig::standard(256)
    }
}

#[test]
fn fleet_gate_clean_run_is_violation_free() {
    let config = FleetConfig::standard(SESSIONS);
    let result = run_fleet(&config);
    result.print("clean", &config);
    result.assert_clean("clean", &config);
    let geometry = config.geometry();
    assert_eq!(
        result.dead_letters, 0,
        "fleet gate [{geometry}]: fault-free run stranded messages on the DLQ"
    );
    assert_eq!(
        result.live_sessions,
        SESSIONS - SESSIONS / CHURN_EVERY,
        "fleet gate [{geometry}]: churn arithmetic"
    );
    assert!(
        result.completed > 0 && result.throughput_ops_per_vsec > 0.0,
        "fleet gate [{geometry}]: storm made no progress"
    );
    assert!(
        result.watch_deliveries > 0,
        "fleet gate [{geometry}]: watch herd observed nothing"
    );
}

#[test]
fn fleet_gate_durable_backend_is_violation_free() {
    // Same pipeline, storage swapped onto the embedded LSM engine
    // (`DeploymentConfig::durable`): the fleet must stay integrity-clean
    // and fully accounted with every write passing through the WAL.
    let config = FleetConfig {
        durable: true,
        ..FleetConfig::standard(SESSIONS / 4)
    };
    let result = run_fleet(&config);
    result.print("durable", &config);
    result.assert_clean("durable", &config);
    assert_eq!(
        result.dead_letters,
        0,
        "fleet gate durable [{}]: fault-free run stranded messages on the DLQ",
        config.geometry()
    );
    assert!(
        result.completed > 0,
        "fleet gate durable [{}]: storm made no progress",
        config.geometry()
    );
}

#[test]
fn fleet_gate_chaos_run_stays_accountable() {
    let config = chaos_fleet(SESSIONS / 4);
    let result = run_fleet(&config);
    result.print("chaos", &config);
    result.assert_clean("chaos", &config);
    assert!(
        result.faults_injected > 0,
        "fleet gate chaos [{}]: chaos schedule never fired",
        config.geometry()
    );
}

#[test]
fn small_fleet_runs_clean() {
    let config = FleetConfig {
        nodes: 32,
        ..FleetConfig::standard(512)
    };
    let result = run_fleet(&config);
    result.print("small", &config);
    result.assert_clean("small", &config);
    assert_eq!(result.live_sessions, 512 - 512 / 8);
    assert!(result.completed > 0);
    assert!(result.throughput_ops_per_vsec > 0.0);
    assert!(result.watch_deliveries > 0, "herd must observe the storm");
    assert_eq!(result.dead_letters, 0);
}

#[test]
fn chaos_fleet_accounts_for_every_request() {
    let config = FleetConfig {
        nodes: 16,
        chaos: Some(0xC4A0),
        ..FleetConfig::standard(256)
    };
    let result = run_fleet(&config);
    result.print("small chaos", &config);
    result.assert_clean("small chaos", &config);
    assert!(result.faults_injected > 0, "chaos must actually fire");
}

#[test]
fn migration_storm_scales_out_and_drains_without_violations() {
    let config = migration_fleet();
    let result = run_fleet(&config);
    result.print("migration 2->4, drain 0->1", &config);
    result.assert_clean("migration 2->4, drain 0->1", &config);
    assert_eq!(result.migrations, 2, "scale-out and drain both fired");
    assert_eq!(result.dead_letters, 0);
    assert!(result.faults_injected > 0, "chaos must actually fire");
    assert!(result.completed > 0);
}

/// The driver is single-threaded on virtual time, so a seed replays
/// exactly, faults and retries included.
#[test]
fn a_chaos_or_migration_fleet_replays_its_numbers_from_the_seed() {
    for config in [chaos_fleet(512), migration_fleet()] {
        let first = run_fleet(&config);
        let second = run_fleet(&config);
        first.print("replay", &config);
        assert_eq!(
            first.numbers(),
            second.numbers(),
            "fleet [{}]: a replay of the seed moved",
            config.geometry()
        );
    }
}

#[test]
fn knee_detection_finds_the_first_sublinear_step() {
    // Linear, linear, plateau: the knee is the first plateau row.
    let rows = [
        (1_000, 10.0),
        (2_000, 20.0),
        (4_000, 39.0),
        (8_000, 41.0),
        (16_000, 41.5),
    ];
    assert_eq!(detect_knee(&rows), Some(8_000));
    // A fully linear sweep never saturated.
    assert_eq!(
        detect_knee(&[(1_000, 10.0), (2_000, 20.0), (4_000, 40.0)]),
        None
    );
    assert_eq!(detect_knee(&[]), None);
}

#[test]
fn percentiles_of_uniform_ramp() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    let summary = summarize(&samples);
    assert!((summary.p50 - 50.0).abs() <= 1.0);
    assert!((summary.p99 - 99.0).abs() <= 1.0);
}

#[test]
fn empty_samples_are_zero() {
    assert_eq!(summarize(&[]), Summary::default());
}

/// The saturation sweep: throughput and modeled latency at doubling
/// fleet sizes, the first knee, and one chaos soak at the knee (or at
/// 65,536 sessions, whichever is smaller).
#[test]
#[ignore = "minutes even in release: cargo test --release --test fleet_gate -- --ignored --nocapture"]
fn knee_sweep_from_16k_to_262k_sessions() {
    let mut rows = Vec::new();
    for sessions in [16_384, 32_768, 65_536, 131_072, 262_144] {
        let config = FleetConfig::standard(sessions);
        let result = run_fleet(&config);
        result.print("sweep", &config);
        result.assert_clean("sweep", &config);
        rows.push((sessions, result.throughput_ops_per_vsec));
    }
    let knee = detect_knee(&rows);
    eprintln!("knee (efficiency < {KNEE_EFFICIENCY}): {knee:?} sessions");
    let soak = FleetConfig {
        chaos: Some(0xC4A0_5EED),
        ..FleetConfig::standard(knee.unwrap_or(262_144).min(65_536))
    };
    let result = run_fleet(&soak);
    result.print("chaos soak", &soak);
    result.assert_clean("chaos soak", &soak);
}
