//! # fk-fleet — the million-session DES fleet harness
//!
//! Drives 10⁵–10⁶ *lightweight simulated sessions* against the real
//! FaaSKeeper pipeline — client encode → write queue → follower
//! (Alg. 1) → sharded leader tier (Alg. 2, inline watch dispatch) →
//! distributor → user stores → replica feed — under a discrete-event
//! virtual-time model, so a run that would take days of wall clock on a
//! cloud completes in minutes of CPU.
//!
//! ## How a million sessions fit in one process
//!
//! A session here is what a session *is* to the service side: a row in
//! the system store, a queue group, a watch registration, a
//! notification endpoint. No threads, no sockets. The fleet registers
//! every session in the real system store; a sampled cohort
//! (`observers`) additionally gets a live notification endpoint so Z2/Z3
//! can be checked on real delivery streams, and a `herd` cohort arms
//! real data/subtree watches so a hot-key write exercises the leader's
//! watch fan-out.
//!
//! ## Virtual time
//!
//! Requests arrive on an arithmetic schedule (offered load = live
//! sessions × [`FleetConfig::session_op_rate_hz`]). The follower tier
//! is elastic (FaaS scales out), so each request's follower invocation
//! runs on the request's own virtual clock. The leader tier is the
//! serial resource: each shard group is one FIFO lane whose clock only
//! advances by processing, so when offered load exceeds lane capacity a
//! backlog builds in the real leader queue and modeled latency grows —
//! exactly the saturation knee [`knee_sweep`] measures. Batching is
//! emergent: a busy lane accumulates messages and drains them in
//! batches of up to 16, amortizing epoch segmentation the same way the
//! deployed leader trigger does.
//!
//! ## Integrity sweeps
//!
//! Every run ends with Z1 tree integrity over system + user storage,
//! tree convergence (acknowledged final value per path, chaos-free
//! runs), replica-tier agreement on sampled hot paths, Z2/Z3 spot
//! checks on the observed sessions' notification streams, one-shot
//! watch-herd delivery accounting, and ack accounting (every issued
//! request either completed or is in a dead-letter queue).

#![warn(missing_docs)]

pub mod stats;

use fk_cloud::ops::Op;
use fk_cloud::trace::{Ctx, LatencyMode};
use fk_cloud::FaultPlan;
use fk_core::consistency::check_tree_integrity;
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::follower::Follower;
use fk_core::leader::Leader;
use fk_core::messages::{
    ClientNotification, ClientRequest, LeaderRecord, MultiOp, Payload, WriteOp,
};
use fk_core::replica::ReplicaConfig;
use fk_core::{CreateMode, DistributorConfig, WatchKind};
use fk_workloads::SeededZipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stats::{summarize, Summary};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queue visibility window for direct drives. Far longer than any run:
/// redelivery happens only through explicit nacks, never through a
/// wall-clock timeout racing the harness.
const VISIBILITY: Duration = Duration::from_secs(3600);

/// Messages per leader-lane invocation (the deployed leader trigger's
/// cap, `DistributorConfig::max_batch`).
const LANE_BATCH: usize = 16;

/// One fleet run configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Fleet size: sessions registered in the system store.
    pub sessions: usize,
    /// Traffic ops issued per live session during the storm phase.
    pub ops_per_session: usize,
    /// Per-session offered rate in virtual ops/second. ZooKeeper
    /// sessions are mostly idle; the default keeps a single session
    /// negligible so saturation is a *fleet-size* phenomenon.
    pub session_op_rate_hz: f64,
    /// Hot-key space (zipf-skewed node choice).
    pub nodes: u64,
    /// Zipf skew (YCSB default 0.99).
    pub theta: f64,
    /// Sessions arming a data watch on the hottest key (a sampled
    /// subset also arms a subtree watch on the tree root).
    pub herd: usize,
    /// Sessions with live notification endpoints (Z2/Z3 spot checks).
    pub observers: usize,
    /// One in `churn_every` sessions closes through the pipeline
    /// (`CloseSession`) before the storm.
    pub churn_every: usize,
    /// Leader-tier shard groups.
    pub groups: usize,
    /// Distributor shards.
    pub shards: usize,
    /// Payload bytes per write.
    pub node_size: usize,
    /// Master seed (workload streams, virtual-latency draws).
    pub seed: u64,
    /// Chaos schedule seed (`FaultPlan::standard`); `None` = fault-free.
    pub chaos: Option<u64>,
    /// Mid-storm membership changes; `None` keeps the tier static.
    pub migration: Option<MigrationStorm>,
    /// Run user and system stores on the embedded LSM engine
    /// (`DeploymentConfig::durable`) instead of the in-memory backends.
    pub durable: bool,
}

/// Mid-storm live membership changes for migration-storm runs: the
/// deployment provisions `provisioned` shard groups but starts with
/// only [`FleetConfig::groups`] accepting writes, scales out to the
/// full width partway through the storm, and optionally drains group 0
/// into group 1 afterwards (completed once the storm's lanes empty).
#[derive(Debug, Clone)]
pub struct MigrationStorm {
    /// Provisioned shard-group width (≥ [`FleetConfig::groups`]).
    pub provisioned: usize,
    /// Storm fraction (0..1) at which the scale-out fires.
    pub scale_out_at: f64,
    /// Storm fraction at which group 0 begins draining into group 1;
    /// `None` skips the drain.
    pub drain_at: Option<f64>,
}

impl FleetConfig {
    /// The gate shape at a given fleet size: two leader groups, three
    /// distributor shards, 256 hot keys, 1 op per session at 0.6 mHz —
    /// lane capacity lands between 10⁵ and 2×10⁵ sessions, so the
    /// default knee sweep crosses it.
    pub fn standard(sessions: usize) -> Self {
        FleetConfig {
            sessions,
            ops_per_session: 1,
            session_op_rate_hz: 6.0e-4,
            nodes: 256,
            theta: 0.99,
            herd: (sessions / 16).clamp(16, 2048),
            observers: 256,
            churn_every: 8,
            groups: 2,
            shards: 3,
            node_size: 128,
            seed: 0xF1EE7,
            chaos: None,
            migration: None,
            durable: false,
        }
    }

    fn deployment(&self) -> DeploymentConfig {
        let provisioned = self
            .migration
            .as_ref()
            .map(|m| m.provisioned)
            .unwrap_or(self.groups);
        let mut config = DeploymentConfig::aws()
            .with_distributor(DistributorConfig::new(self.shards, 16))
            .with_shard_groups(provisioned)
            .with_replicas(ReplicaConfig::with_count(1))
            .with_mode(LatencyMode::Virtual, self.seed);
        if provisioned > self.groups {
            config = config.with_active_groups(self.groups);
        }
        if let Some(chaos_seed) = self.chaos {
            config = config.with_chaos(FaultPlan::standard(chaos_seed));
        }
        if self.durable {
            config = config.durable();
        }
        config
    }
}

/// Reads the fleet size from the `FK_FLEET_SESSIONS` environment knob
/// (the CI gate runs at 10⁴; local soaks crank it to 10⁵–10⁶),
/// falling back to `default`.
pub fn sessions_from_env(default: usize) -> usize {
    std::env::var("FK_FLEET_SESSIONS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// One phase of a fleet run.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name (`churn`, `herd`, `storm`, `sweep`).
    pub name: &'static str,
    /// Operations the phase drove.
    pub ops: usize,
    /// Virtual time the phase spanned, seconds.
    pub virtual_s: f64,
    /// Wall-clock the phase took, seconds.
    pub wall_s: f64,
}

/// Result of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Fleet size (registered sessions).
    pub sessions: usize,
    /// Live sessions after churn.
    pub live_sessions: usize,
    /// Pipeline requests issued in the storm phase.
    pub storm_ops: usize,
    /// Storm requests that completed through the leader tier.
    pub completed: usize,
    /// Completed ops per *virtual* second over the storm window.
    pub throughput_ops_per_vsec: f64,
    /// Modeled end-to-end latency distribution of completed storm
    /// requests, milliseconds of virtual time.
    pub latency: Summary,
    /// Retries performed by the unified retry layer.
    pub retries: u64,
    /// Faults the chaos engine injected (0 on fault-free runs).
    pub faults_injected: u64,
    /// Messages stranded on the write/leader dead-letter queues.
    pub dead_letters: usize,
    /// Membership changes fired mid-storm (scale-outs + drains).
    pub migrations: usize,
    /// Watch notifications delivered to observed herd members.
    pub watch_deliveries: usize,
    /// Per-phase timing.
    pub phases: Vec<PhaseReport>,
    /// Integrity-sweep violations (empty on a healthy run).
    pub violations: Vec<String>,
}

/// Everything the driver threads through one run.
struct Fleet {
    config: FleetConfig,
    deployment: Deployment,
    follower: Follower,
    leader: Leader,
    lanes: Vec<Lane>,
    /// Virtual arrival time per in-flight request.
    arrivals: HashMap<(String, u64), u64>,
    /// (issue order) acknowledged-write ledger: path → payload of the
    /// last write the leader completed.
    completions: Vec<(String, u64)>,
    latencies_ms: Vec<f64>,
}

/// One leader shard-group FIFO lane: a persistent virtual clock that
/// only advances by processing, which is what makes the group the
/// saturating resource.
struct Lane {
    ctx: Ctx,
    busy_until_ns: u64,
}

impl Fleet {
    fn new(config: &FleetConfig) -> Self {
        let deployment = Deployment::direct(config.deployment());
        let follower = deployment.make_follower();
        let leader = deployment.make_leader_inline();
        let lanes = (0..deployment.leader_queues().shards())
            .map(|g| {
                let ctx = Ctx::new(
                    Arc::clone(deployment.model()),
                    deployment.config().mode,
                    config.seed ^ (g as u64).wrapping_mul(0x9E37_79B9),
                );
                ctx.set_region(deployment.config().regions[0]);
                Lane {
                    ctx,
                    busy_until_ns: 0,
                }
            })
            .collect();
        Fleet {
            config: config.clone(),
            deployment,
            follower,
            leader,
            lanes,
            arrivals: HashMap::new(),
            completions: Vec::new(),
            latencies_ms: Vec::new(),
        }
    }

    fn fresh_ctx(&self, salt: u64) -> Ctx {
        let ctx = Ctx::new(
            Arc::clone(self.deployment.model()),
            self.deployment.config().mode,
            self.config.seed ^ salt,
        );
        ctx.set_region(self.deployment.config().regions[0]);
        ctx
    }

    /// Client-side encode + enqueue of one request at virtual `ctx`
    /// time. Bounded retry absorbs injected queue faults.
    fn submit(&mut self, ctx: &Ctx, session: &str, request_id: u64, op: WriteOp) {
        let request = ClientRequest {
            session_id: session.to_owned(),
            request_id,
            op,
        };
        ctx.charge(Op::ClientWork, self.config.node_size);
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

    /// Records completion latency + ledger entries for leader-batch
    /// messages `[..upto]` at `completion_ns`.
    fn record_completions(
        &mut self,
        messages: &[fk_cloud::queue::Message],
        upto: usize,
        completion_ns: u64,
    ) {
        for message in &messages[..upto.min(messages.len())] {
            if let Some(record) = LeaderRecord::decode(&message.body) {
                let key = (record.session_id.clone(), record.request_id);
                if let Some(arrival) = self.arrivals.remove(&key) {
                    self.latencies_ms
                        .push(completion_ns.saturating_sub(arrival) as f64 / 1e6);
                }
                self.completions
                    .push((record.path().to_owned(), record.txid));
            }
        }
    }

    /// Drains leader lanes. A lane only picks up work once its clock
    /// has fallen behind `ready_ns` (the current request's
    /// follower-completion time) — while it is "busy in the future",
    /// backlog accumulates in the real queue, which is the saturation
    /// mechanism. `force` drains everything regardless (end of phase).
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
pub fn run_fleet(config: &FleetConfig) -> FleetResult {
    let mut fleet = Fleet::new(config);
    let mut phases = Vec::new();
    let mut violations: Vec<String> = Vec::new();

    // ------------------------------------------------------------------
    // Phase 1: churn. Register the whole fleet (elastic: independent
    // system-store puts, each on its own virtual clock), then close one
    // in `churn_every` through the real pipeline.
    // ------------------------------------------------------------------
    let wall = Instant::now();
    let interarrival_ns =
        (1.0e9 / (config.sessions as f64 * config.session_op_rate_hz).max(1.0)) as u64;
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
    let closed: Vec<usize> = (0..config.sessions)
        .filter(|i| i % config.churn_every == config.churn_every - 1)
        .collect();
    let mut churn_ops = config.sessions;
    let mut churn_last_ready = churn_virtual_end;
    for (k, &i) in closed.iter().enumerate() {
        let ctx = fleet.fresh_ctx(0x10_0000 + i as u64);
        ctx.advance(Duration::from_nanos(
            churn_virtual_end + k as u64 * interarrival_ns,
        ));
        fleet.submit(&ctx, &session_name(i), 1, WriteOp::CloseSession);
        fleet.run_follower(&ctx);
        let ready = ctx.now_ns();
        fleet.run_lanes(ready, false);
        churn_last_ready = ready;
        churn_ops += 1;
    }
    fleet.run_lanes(churn_last_ready, true);
    // Spot-check ack accounting for the churn: sampled closed sessions
    // are gone, sampled survivors are still registered. (Chaos can
    // legitimately strand a close on the DLQ; those are exempt.)
    let dead_now: Vec<(String, u64)> = fleet.dead_letters();
    let probe = fleet.fresh_ctx(0x20_0000);
    for &i in closed.iter().take(64) {
        let name = session_name(i);
        if dead_now.iter().any(|(s, _)| s == &name) {
            continue;
        }
        if fleet
            .deployment
            .system()
            .get_session(&probe, &name)
            .is_some()
        {
            violations.push(format!("churn: closed session {name} still registered"));
        }
    }
    for i in (0..config.sessions)
        .filter(|i| i % config.churn_every != config.churn_every - 1)
        .take(64)
    {
        let name = session_name(i);
        if fleet
            .deployment
            .system()
            .get_session(&probe, &name)
            .is_none()
        {
            violations.push(format!("churn: live session {name} lost its registration"));
        }
    }
    let live: Vec<usize> = (0..config.sessions)
        .filter(|i| i % config.churn_every != config.churn_every - 1)
        .collect();
    phases.push(PhaseReport {
        name: "churn",
        ops: churn_ops,
        virtual_s: churn_virtual_end as f64 / 1e9,
        wall_s: wall.elapsed().as_secs_f64(),
    });

    // ------------------------------------------------------------------
    // Phase 2: herd. Seed the hot tree through the pipeline, arm the
    // watch herd (data watches on the hottest key; every 16th member a
    // subtree watch on the tree root), wire observer endpoints.
    // ------------------------------------------------------------------
    let wall = Instant::now();
    let seeder = session_name(live[0]);
    let mut herd_ops = 0usize;
    {
        let ctx = fleet.fresh_ctx(0x30_0000);
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
        let mut herd_ready = ctx.now_ns();
        fleet.run_lanes(herd_ready, true);
        herd_ops += 1;
        for n in 0..config.nodes {
            let ctx = fleet.fresh_ctx(0x30_0000 + 1 + n);
            fleet.submit(
                &ctx,
                &seeder,
                101 + n,
                WriteOp::Create {
                    path: format!("/f/n{n}"),
                    payload: Payload::inline(&vec![0x5A; config.node_size]),
                    mode: CreateMode::Persistent,
                },
            );
            fleet.run_follower(&ctx);
            herd_ready = ctx.now_ns();
            fleet.run_lanes(herd_ready, false);
            herd_ops += 1;
        }
        fleet.run_lanes(herd_ready, true);
    }
    let herd: Vec<String> = live
        .iter()
        .take(config.herd)
        .map(|&i| session_name(i))
        .collect();
    {
        let ctx = fleet.fresh_ctx(0x40_0000);
        for (k, session) in herd.iter().enumerate() {
            retry(|| {
                fleet
                    .deployment
                    .system()
                    .register_watch(&ctx, "/f/n0", WatchKind::Data, session)
            });
            if k % 16 == 0 {
                retry(|| {
                    fleet.deployment.system().register_watch(
                        &ctx,
                        "/f",
                        WatchKind::Subtree,
                        session,
                    )
                });
            }
        }
    }
    // Observer endpoints: storm writers come from this cohort so their
    // delivery streams are real; herd members overlap so one-shot
    // fan-out is observable.
    let observers: Vec<String> = live
        .iter()
        .take(config.observers)
        .map(|&i| session_name(i))
        .collect();
    let mut endpoints: HashMap<String, crossbeam::channel::Receiver<ClientNotification>> =
        HashMap::new();
    let mut keepalive: Vec<Arc<AtomicBool>> = Vec::new();
    for session in &observers {
        let (rx, alive) = fleet.deployment.bus().register(session);
        alive.store(true, Ordering::SeqCst);
        endpoints.insert(session.clone(), rx);
        keepalive.push(alive);
    }
    phases.push(PhaseReport {
        name: "herd",
        ops: herd_ops,
        virtual_s: 0.0,
        wall_s: wall.elapsed().as_secs_f64(),
    });

    // ------------------------------------------------------------------
    // Phase 3: storm. Zipf-skewed mixed traffic from the whole live
    // fleet at the configured offered rate.
    // ------------------------------------------------------------------
    let wall = Instant::now();
    let storm_ops = live.len() * config.ops_per_session;
    let offered_hz = live.len() as f64 * config.session_op_rate_hz;
    let storm_interarrival_ns = (1.0e9 / offered_hz) as u64;
    let mut zipf = SeededZipf::with_theta(config.nodes, config.theta, config.seed);
    let mut mix = SmallRng::seed_from_u64(config.seed ^ 0xDEAD_BEEF);
    let mut request_ids: HashMap<String, u64> = HashMap::new();
    let mut expected: HashMap<String, (String, u64, Vec<u8>)> = HashMap::new();
    let mut reads = 0usize;
    // Storm arrivals start where the lane clocks left off, so modeled
    // latency measures queueing *within* the storm, not phase offsets.
    let storm_base_ns = fleet
        .lanes
        .iter()
        .map(|lane| lane.busy_until_ns)
        .max()
        .unwrap_or(0);
    let first_arrival_ns = storm_base_ns;
    let mut storm_last_ready = storm_base_ns;
    let committed_before = fleet.latencies_ms.len();
    // Migration points, as storm indices (0 ⇒ never; the fraction knobs
    // are clamped inside the storm so the change always lands mid-run).
    let migration_index = |at: f64| ((storm_ops as f64 * at) as usize).clamp(1, storm_ops - 1);
    let scale_out_k = config
        .migration
        .as_ref()
        .map(|m| migration_index(m.scale_out_at));
    let drain_k = config
        .migration
        .as_ref()
        .and_then(|m| m.drain_at)
        .map(migration_index);
    let mut migrations = 0usize;
    for k in 0..storm_ops {
        if scale_out_k == Some(k) {
            let provisioned = config
                .migration
                .as_ref()
                .expect("migration config")
                .provisioned;
            let ctx = fleet.fresh_ctx(0x70_0000);
            ctx.advance(Duration::from_nanos(
                storm_base_ns + k as u64 * storm_interarrival_ns,
            ));
            // Bounded retry absorbs injected faults; a repeated call is
            // idempotent (the widened membership only publishes once).
            retry(|| fleet.deployment.scale_out(&ctx, provisioned));
            migrations += 1;
        }
        if drain_k == Some(k) {
            let ctx = fleet.fresh_ctx(0x70_0001);
            ctx.advance(Duration::from_nanos(
                storm_base_ns + k as u64 * storm_interarrival_ns,
            ));
            retry(|| fleet.deployment.begin_drain(&ctx, 0, 1));
            migrations += 1;
        }
        let session = session_name(live[k % live.len()]);
        let arrival_ns = storm_base_ns + k as u64 * storm_interarrival_ns;
        let ctx = fleet.fresh_ctx(0x50_0000 + k as u64);
        ctx.advance(Duration::from_nanos(arrival_ns));
        let roll: f64 = mix.gen();
        if roll < 0.15 {
            // Read: replica tier first (MRD = the published committed
            // floor, the strictest global freshness bound), storage
            // otherwise. Elastic — reads never touch the leader lanes.
            let node = zipf.next_key();
            let path = format!("/f/n{node}");
            let mrd = fleet.deployment.floors().committed();
            let served = fleet
                .deployment
                .replicas()
                .replica_for(&session)
                .and_then(|replica| replica.serve(&ctx, &path, mrd))
                .is_some();
            if !served {
                let _ = fleet.deployment.user_store().read_node(&ctx, &path);
            }
            reads += 1;
            continue;
        }
        let request_id = {
            let next = request_ids.entry(session.clone()).or_insert(1000);
            *next += 1;
            *next
        };
        let op = if roll < 0.25 {
            // Cold create: a fresh path, exercising tree growth and the
            // parent's children rewrite.
            let path = format!("/f/x{k}");
            expected.insert(path.clone(), (session.clone(), request_id, vec![0x5A; 8]));
            WriteOp::Create {
                path,
                payload: Payload::inline(&[0x5A; 8]),
                mode: CreateMode::Persistent,
            }
        } else if roll < 0.35 {
            // Multi: the ZooKeeper compare-and-swap idiom — a version
            // check guarding a write of the same hot node.
            let node = zipf.next_key();
            let path = format!("/f/n{node}");
            let value = format!("m{k}").into_bytes();
            expected.insert(path.clone(), (session.clone(), request_id, value.clone()));
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
            let node = zipf.next_key();
            let path = format!("/f/n{node}");
            let mut value = vec![0u8; config.node_size];
            value[..8.min(config.node_size)]
                .copy_from_slice(&(k as u64).to_le_bytes()[..8.min(config.node_size)]);
            expected.insert(path.clone(), (session.clone(), request_id, value.clone()));
            WriteOp::SetData {
                path,
                payload: Payload::inline(&value),
                expected_version: -1,
            }
        };
        fleet.submit(&ctx, &session, request_id, op);
        fleet.run_follower(&ctx);
        storm_last_ready = ctx.now_ns();
        fleet.run_lanes(storm_last_ready, false);
    }
    fleet.run_lanes(storm_last_ready, true);
    // The drain completes once the storm's lanes emptied the hot
    // group's queue: the feed reconciles and the floor retires. The
    // redirect stays — the hash width still includes group 0.
    if drain_k.is_some() {
        let ctx = fleet.fresh_ctx(0x70_0002);
        retry(|| fleet.deployment.complete_drain(&ctx, 0));
    }
    let completed = fleet.latencies_ms.len() - committed_before;
    let storm_latency = summarize(&fleet.latencies_ms[committed_before..]);
    let last_completion_ns = fleet
        .lanes
        .iter()
        .map(|lane| lane.busy_until_ns)
        .max()
        .unwrap_or(0);
    let storm_virtual_s =
        (last_completion_ns.saturating_sub(first_arrival_ns.min(last_completion_ns))) as f64 / 1e9;
    let throughput = if storm_virtual_s > 0.0 {
        completed as f64 / storm_virtual_s
    } else {
        0.0
    };
    phases.push(PhaseReport {
        name: "storm",
        ops: storm_ops,
        virtual_s: storm_virtual_s,
        wall_s: wall.elapsed().as_secs_f64(),
    });

    // ------------------------------------------------------------------
    // Phase 4: integrity sweep.
    // ------------------------------------------------------------------
    let wall = Instant::now();
    let ctx = fleet.fresh_ctx(0x60_0000);
    let dead = fleet.dead_letters();

    // Z1: structural integrity of the whole surviving tree.
    for violation in check_tree_integrity(
        &ctx,
        fleet.deployment.system(),
        fleet.deployment.user_store().as_ref(),
    ) {
        violations.push(format!("Z1: {violation:?}"));
    }

    // Ack accounting: every pipeline write either completed through a
    // lane or is sitting decoded on a DLQ.
    let writes_issued = storm_ops - reads;
    if completed + dead.len() < writes_issued {
        violations.push(format!(
            "ack accounting: {writes_issued} issued, {completed} completed, {} dead",
            dead.len()
        ));
    }

    // Tree convergence: on fault-free static-membership runs every
    // acknowledged final value must be the stored value (sampled to
    // bound sweep time). Migration runs skip it: a mid-storm re-route
    // lets two *different* sessions' concurrent writes to one path
    // commit in either order (per-session Z2 still holds through the
    // txid floors, and `migration_properties` checks convergence on
    // conflict-free paths), so last-submitted is no longer the oracle.
    if config.chaos.is_none() && config.migration.is_none() {
        for (path, (_, _, value)) in expected.iter().take(512) {
            match fleet.deployment.user_store().read_node(&ctx, path) {
                Ok(Some(record)) => {
                    if record.data.as_ref() != value.as_slice() {
                        violations.push(format!("convergence: {path} diverged from last ack"));
                    }
                }
                Ok(None) => violations.push(format!("convergence: {path} missing")),
                Err(e) => violations.push(format!("convergence: {path} unreadable: {e:?}")),
            }
        }
        // Replica agreement: what the tier serves at the committed floor
        // is what storage holds.
        let mrd = fleet.deployment.floors().committed();
        for (path, _) in expected.iter().take(64) {
            if let Some(replica) = fleet.deployment.replicas().replica_for(&seeder) {
                if let Some(record) = replica.serve(&ctx, path, mrd) {
                    let stored = fleet
                        .deployment
                        .user_store()
                        .read_node(&ctx, path)
                        .ok()
                        .flatten();
                    if stored.map(|s| s.data != record.data).unwrap_or(true) {
                        violations.push(format!("replica: {path} diverged from storage"));
                    }
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
                ClientNotification::WriteResult { .. } => {}
                ClientNotification::Watch(event) => {
                    watch_deliveries += 1;
                    if event.path != "/f/n0" && event.path != "/f" {
                        violations.push(format!(
                            "herd: {session} got a watch for unexpected path {}",
                            event.path
                        ));
                    }
                    *fired_per_session
                        .entry((session.clone(), event.path.clone()))
                        .or_insert(0) += 1;
                }
                ClientNotification::Ping { .. } => {}
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

    let snapshot = fleet.deployment.meter().snapshot();
    let faults_injected = fleet
        .deployment
        .chaos()
        .map(|chaos| chaos.total_fired())
        .unwrap_or(0);
    phases.push(PhaseReport {
        name: "sweep",
        ops: 0,
        virtual_s: 0.0,
        wall_s: wall.elapsed().as_secs_f64(),
    });
    drop(keepalive);

    FleetResult {
        sessions: config.sessions,
        live_sessions: live.len(),
        storm_ops,
        completed,
        throughput_ops_per_vsec: throughput,
        latency: storm_latency,
        retries: snapshot.retries,
        faults_injected,
        dead_letters: dead.len(),
        migrations,
        watch_deliveries,
        phases,
        violations,
    }
}

/// One row of a saturation sweep.
#[derive(Debug, Clone)]
pub struct KneeRow {
    /// Fleet size.
    pub sessions: usize,
    /// Completed storm ops per virtual second.
    pub throughput: f64,
    /// Modeled p50 latency, ms.
    pub p50_ms: f64,
    /// Modeled p99 latency, ms.
    pub p99_ms: f64,
    /// Retry-layer retries.
    pub retries: u64,
    /// Dead-lettered messages.
    pub dead_letters: usize,
}

/// A measured saturation sweep: throughput and modeled latency versus
/// fleet size, and the first knee.
#[derive(Debug, Clone)]
pub struct KneeReport {
    /// One row per fleet size, ascending.
    pub rows: Vec<KneeRow>,
    /// The first fleet size where doubling the fleet returned less than
    /// [`Self::KNEE_EFFICIENCY`] of the ideal throughput gain — the
    /// leader tier's saturation knee. `None` if the sweep never
    /// saturated.
    pub knee_sessions: Option<usize>,
}

impl KneeReport {
    /// Scaling-efficiency threshold below which a step is the knee.
    pub const KNEE_EFFICIENCY: f64 = 0.75;
}

/// Locates the first saturation knee in an ascending sweep: the first
/// row whose throughput gain over its predecessor falls below
/// [`KneeReport::KNEE_EFFICIENCY`] × the fleet-size ratio (sub-linear
/// scaling = the serial leader tier stopped keeping up).
pub fn detect_knee(rows: &[KneeRow]) -> Option<usize> {
    rows.windows(2).find_map(|pair| {
        let size_ratio = pair[1].sessions as f64 / pair[0].sessions as f64;
        let gain = pair[1].throughput / pair[0].throughput.max(f64::MIN_POSITIVE);
        (gain < KneeReport::KNEE_EFFICIENCY * size_ratio).then_some(pair[1].sessions)
    })
}

/// Runs `make_config` at each fleet size and locates the first
/// saturation knee via [`detect_knee`].
pub fn knee_sweep(
    counts: &[usize],
    make_config: impl Fn(usize) -> FleetConfig,
) -> (KneeReport, Vec<FleetResult>) {
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for &count in counts {
        let result = run_fleet(&make_config(count));
        rows.push(KneeRow {
            sessions: count,
            throughput: result.throughput_ops_per_vsec,
            p50_ms: result.latency.p50,
            p99_ms: result.latency.p99,
            retries: result.retries,
            dead_letters: result.dead_letters,
        });
        results.push(result);
    }
    let knee_sessions = detect_knee(&rows);
    (
        KneeReport {
            rows,
            knee_sessions,
        },
        results,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_runs_clean() {
        let mut config = FleetConfig::standard(512);
        config.nodes = 32;
        let result = run_fleet(&config);
        assert!(
            result.violations.is_empty(),
            "fleet seed {:#x}: {:#?}",
            config.seed,
            result.violations
        );
        assert_eq!(result.live_sessions, 512 - 512 / 8);
        assert!(result.completed > 0);
        assert!(result.throughput_ops_per_vsec > 0.0);
        assert!(result.watch_deliveries > 0, "herd must observe the storm");
        assert_eq!(result.dead_letters, 0);
    }

    #[test]
    fn chaos_fleet_accounts_for_every_request() {
        let mut config = FleetConfig::standard(256);
        config.nodes = 16;
        config.chaos = Some(0xC4A0);
        let result = run_fleet(&config);
        assert!(
            result.violations.is_empty(),
            "fleet seed {:#x} chaos {:#x}: {:#?}",
            config.seed,
            0xC4A0u64,
            result.violations
        );
        assert!(result.faults_injected > 0, "chaos must actually fire");
    }

    #[test]
    fn env_knob_parses() {
        assert_eq!(sessions_from_env(777), 777);
    }

    #[test]
    fn migration_storm_scales_out_and_drains_without_violations() {
        let mut config = FleetConfig::standard(256);
        config.nodes = 16;
        config.ops_per_session = 2;
        config.chaos = Some(0x417);
        config.migration = Some(MigrationStorm {
            provisioned: 4,
            scale_out_at: 0.3,
            drain_at: Some(0.6),
        });
        let result = run_fleet(&config);
        assert!(
            result.violations.is_empty(),
            "fleet seed {:#x} chaos {:#x} migration 2->4 drain 0->1: {:#?}",
            config.seed,
            0x417u64,
            result.violations
        );
        assert_eq!(result.migrations, 2, "scale-out and drain both fired");
        assert_eq!(result.dead_letters, 0);
        assert!(result.faults_injected > 0, "chaos must actually fire");
        assert!(result.completed > 0);
    }

    #[test]
    fn knee_detection_finds_the_first_sublinear_step() {
        let row = |sessions: usize, throughput: f64| KneeRow {
            sessions,
            throughput,
            p50_ms: 0.0,
            p99_ms: 0.0,
            retries: 0,
            dead_letters: 0,
        };
        // Linear, linear, plateau: the knee is the first plateau row.
        let rows = vec![
            row(1_000, 10.0),
            row(2_000, 20.0),
            row(4_000, 39.0),
            row(8_000, 41.0),
            row(16_000, 41.5),
        ];
        assert_eq!(detect_knee(&rows), Some(8_000));
        // A fully linear sweep never saturated.
        let linear = vec![row(1_000, 10.0), row(2_000, 20.0), row(4_000, 40.0)];
        assert_eq!(detect_knee(&linear), None);
        assert_eq!(detect_knee(&[]), None);
    }
}
