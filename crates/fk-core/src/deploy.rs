//! Deployment: wiring FaaSKeeper onto a provider's services (§4, Table 2).
//!
//! The design is cloud-agnostic — only the *requirements* on each service
//! are fixed (FIFO + serverless queue, strongly consistent KV store with
//! conditional updates, object store, free/event/scheduled functions) —
//! and this module binds them to a provider profile: AWS-like
//! (SQS FIFO + DynamoDB + S3 + Lambda) or GCP-like (ordered Pub/Sub +
//! Datastore + Cloud Storage + Cloud Functions), each with its calibrated
//! latency model, service limits and queue flavours.

use crate::client::{ClientConfig, FkClient};
use crate::distributor::DistributorConfig;
use crate::follower::Follower;
use crate::heartbeat::Heartbeat;
use crate::leader::{Leader, WatchDispatcher, WatchHandle};
use crate::notify::ClientBus;
use crate::read_cache::ReadCacheConfig;
use crate::replica::{CommittedFloors, ReplicaConfig, ReplicaSet};
use crate::system_store::SystemStore;
use crate::user_store::{KvUserStore, NodeRecord, UserStore, UserStoreKind};
use crate::watch_fn::{WatchFunction, WatchTask};
use bytes::Bytes;
use fk_cloud::chaos::{Chaos, FaultPlan};
use fk_cloud::faas::{Event, FaasRuntime, FnError, FunctionConfig};
use fk_cloud::kvstore::{KvLimits, KvStore};
use fk_cloud::latency::LatencyModel;
use fk_cloud::metering::Meter;
use fk_cloud::objectstore::ObjectStore;
use fk_cloud::queue::{Queue, ShardedQueues};
use fk_cloud::trace::{Ctx, LatencyMode};
use fk_cloud::{MemStore, QueueKind, Region};
use std::sync::Arc;
use std::time::Duration;

/// Cloud provider profile (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provider {
    /// SQS FIFO + DynamoDB + S3 + Lambda.
    Aws,
    /// Ordered Pub/Sub + Datastore + Cloud Storage + Cloud Functions.
    Gcp,
}

/// Concurrent follower pollers (horizontal write scaling, §4.3).
const FOLLOWER_CONCURRENCY: usize = 4;

/// Full deployment configuration.
#[derive(Clone)]
pub struct DeploymentConfig {
    /// Provider profile.
    pub provider: Provider,
    /// Latency realization mode.
    pub mode: LatencyMode,
    /// RNG seed for latency sampling.
    pub seed: u64,
    /// Replica regions; the first is primary (system storage lives there).
    pub regions: Vec<Region>,
    /// User-data backend.
    pub user_store: UserStoreKind,
    /// Follower function sizing.
    pub follower_fn: FunctionConfig,
    /// Leader function sizing.
    pub leader_fn: FunctionConfig,
    /// Watch function sizing.
    pub watch_fn: FunctionConfig,
    /// Heartbeat function sizing.
    pub heartbeat_fn: FunctionConfig,
    /// Distributor pipeline: path-shard count, epoch batch size, and the
    /// leader-tier width (`distributor.groups` shard groups, each with
    /// its own FIFO queue and leader function instance) for the fan-out
    /// to the replicated user stores.
    pub distributor: DistributorConfig,
    /// Default client read-cache bounds for sessions connected through
    /// this deployment (capacity 0 = uncached passthrough; individual
    /// `ClientConfig`s may override).
    pub read_cache: ReadCacheConfig,
    /// Shared regional read-replica tier ([`crate::replica`]): per-region
    /// replica count, byte budget and injected feed lag. Disabled by
    /// default — a disabled tier leaves every read path byte-identical
    /// to a deployment without one.
    pub replicas: ReplicaConfig,
    /// Shard groups initially *accepting writes*, out of the
    /// `distributor.groups` provisioned (queues and leader functions
    /// exist for all of them). `None` — the default — activates every
    /// provisioned group. Provisioning spare groups up front is what
    /// makes a live scale-out ([`Deployment::scale_out`]) a pure
    /// membership change: no new infrastructure appears mid-run.
    pub active_groups: Option<usize>,
    /// Seeded fault-injection plan ([`fk_cloud::chaos`]). Disabled by
    /// default — a disabled plan installs no engine and leaves every
    /// code path byte-identical to a deployment without one.
    pub chaos: FaultPlan,
    /// Heartbeat cadence; `None` disables the scheduled trigger.
    pub heartbeat_interval: Option<Duration>,
    /// Back the system KV table with the embedded LSM engine
    /// ([`fk_store`]): every committed system mutation — each
    /// conditional update and each multi-item transaction as one
    /// atomic WAL batch — is logged and fsynced before it is applied.
    /// Off by default; [`UserStoreKind::Durable`] independently selects
    /// the durable *user* store.
    pub durable_system: bool,
}

impl DeploymentConfig {
    /// AWS-like profile with the paper's defaults (2048 MB functions,
    /// us-east-1, object-store user data).
    pub fn aws() -> Self {
        DeploymentConfig {
            provider: Provider::Aws,
            mode: LatencyMode::Disabled,
            seed: 0xFAA5,
            regions: vec![Region::US_EAST_1],
            user_store: UserStoreKind::Object,
            follower_fn: FunctionConfig::default_2048(),
            leader_fn: FunctionConfig::default_2048(),
            watch_fn: FunctionConfig::default_2048(),
            heartbeat_fn: FunctionConfig::default_2048().with_memory(512),
            distributor: DistributorConfig::default(),
            read_cache: ReadCacheConfig::disabled(),
            replicas: ReplicaConfig::disabled(),
            active_groups: None,
            chaos: FaultPlan::disabled(),
            heartbeat_interval: None,
            durable_system: false,
        }
    }

    /// GCP-like profile (us-central1, ordered Pub/Sub, Datastore).
    pub fn gcp() -> Self {
        DeploymentConfig {
            provider: Provider::Gcp,
            regions: vec![Region::GCP_US_CENTRAL1],
            ..Self::aws()
        }
    }

    /// Builder: latency mode + seed.
    pub fn with_mode(mut self, mode: LatencyMode, seed: u64) -> Self {
        self.mode = mode;
        self.seed = seed;
        self
    }

    /// Builder: user-store backend.
    pub fn with_user_store(mut self, kind: UserStoreKind) -> Self {
        self.user_store = kind;
        self
    }

    /// Builder: function memory for follower+leader (the paper's sweep).
    pub fn with_function_memory(mut self, memory_mb: u32) -> Self {
        self.follower_fn = self.follower_fn.with_memory(memory_mb);
        self.leader_fn = self.leader_fn.with_memory(memory_mb);
        self
    }

    /// Builder: distributor pipeline (shards × epoch batch size).
    pub fn with_distributor(mut self, config: DistributorConfig) -> Self {
        self.distributor = config;
        self
    }

    /// Builder: leader-tier width (shard groups).
    pub fn with_shard_groups(mut self, groups: usize) -> Self {
        self.distributor = self.distributor.with_groups(groups);
        self
    }

    /// Builder: default client read-cache bounds.
    pub fn with_read_cache(mut self, cache: ReadCacheConfig) -> Self {
        self.read_cache = cache;
        self
    }

    /// Builder: shared regional read-replica tier.
    pub fn with_replicas(mut self, replicas: ReplicaConfig) -> Self {
        self.replicas = replicas;
        self
    }

    /// Builder: initially active shard groups (of the provisioned
    /// `distributor.groups`; the rest join later via
    /// [`Deployment::scale_out`]).
    pub fn with_active_groups(mut self, active: usize) -> Self {
        assert!(
            active >= 1 && active <= self.distributor.groups,
            "active groups must be in 1..=provisioned groups"
        );
        self.active_groups = Some(active);
        self
    }

    /// Builder: replica regions.
    pub fn with_regions(mut self, regions: Vec<Region>) -> Self {
        assert!(!regions.is_empty(), "at least one region");
        self.regions = regions;
        self
    }

    /// Builder: seeded fault-injection plan.
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = plan;
        self
    }

    /// Builder: the fully durable profile — LSM-backed system table
    /// *and* user store ([`UserStoreKind::Durable`]).
    pub fn durable(mut self) -> Self {
        self.durable_system = true;
        self.user_store = UserStoreKind::Durable;
        self
    }

    /// Builder: heartbeat schedule.
    pub fn with_heartbeat(mut self, interval: Duration) -> Self {
        self.heartbeat_interval = Some(interval);
        self
    }

    /// The latency model for this provider.
    pub fn latency_model(&self) -> LatencyModel {
        match (self.mode, self.provider) {
            (LatencyMode::Disabled, _) => LatencyModel::zero(),
            (_, Provider::Aws) => LatencyModel::aws(),
            (_, Provider::Gcp) => LatencyModel::gcp(),
        }
    }

    /// Queue flavour used for the write and leader queues.
    pub fn queue_kind(&self) -> QueueKind {
        match self.provider {
            Provider::Aws => QueueKind::Fifo,
            Provider::Gcp => QueueKind::PubSubOrdered,
        }
    }

    /// KV limits for the system table.
    pub fn kv_limits(&self) -> KvLimits {
        match self.provider {
            Provider::Aws => KvLimits::dynamodb(),
            Provider::Gcp => KvLimits::datastore(),
        }
    }
}

/// Inline watch dispatcher: runs the watch function synchronously on a
/// virtual-time fork. Used in direct-drive mode (benchmarks) and as the
/// building block of the runtime dispatcher.
pub struct InlineDispatcher {
    watch: Arc<WatchFunction>,
    env: fk_cloud::ExecEnv,
}

impl InlineDispatcher {
    /// Creates a dispatcher running `watch` with the given sandbox env.
    pub fn new(watch: Arc<WatchFunction>, config: FunctionConfig) -> Self {
        InlineDispatcher {
            watch,
            env: config.env(),
        }
    }
}

impl WatchDispatcher for InlineDispatcher {
    fn dispatch(&self, ctx: &Ctx, task: WatchTask) -> WatchHandle {
        // The leader pays an async invocation; delivery proceeds in
        // parallel (forked virtual time).
        ctx.charge(fk_cloud::Op::FnInvokeDirect, task.encode().len());
        let child = ctx.fork();
        child.set_env(self.env);
        let _ = self.watch.run(&child, &task);
        WatchHandle {
            forked: Some(child),
            rx: None,
        }
    }
}

/// Runtime-backed dispatcher: fires the registered watch function
/// asynchronously through the FaaS runtime.
pub struct RuntimeDispatcher {
    runtime: FaasRuntime,
    function: String,
}

impl WatchDispatcher for RuntimeDispatcher {
    fn dispatch(&self, ctx: &Ctx, task: WatchTask) -> WatchHandle {
        match self
            .runtime
            .invoke_async(ctx, &self.function, task.encode())
        {
            Ok(rx) => WatchHandle {
                forked: None,
                rx: Some(rx),
            },
            Err(_) => WatchHandle {
                forked: None,
                rx: None,
            },
        }
    }
}

/// A running FaaSKeeper deployment.
pub struct Deployment {
    config: DeploymentConfig,
    model: Arc<LatencyModel>,
    meter: Meter,
    runtime: FaasRuntime,
    system: SystemStore,
    user_stores: Vec<Arc<dyn UserStore>>,
    staging: ObjectStore,
    write_queue: Queue,
    leader_queues: ShardedQueues,
    bus: ClientBus,
    /// The regional read-replica tier (empty when disabled).
    replicas: ReplicaSet,
    /// The leaders' distributed-txid high-water marks, piggybacked onto
    /// heartbeat pings.
    floors: Arc<CommittedFloors>,
    /// The chaos engine, when the config's fault plan is enabled.
    chaos: Option<Arc<Chaos>>,
    seed_counter: std::sync::atomic::AtomicU64,
}

/// Function names registered in the runtime.
pub mod fn_names {
    /// Follower (event function on the write queue).
    pub const FOLLOWER: &str = "fk-follower";
    /// Leader of shard group 0 (event function on that group's queue).
    pub const LEADER: &str = "fk-leader";
    /// Watch delivery (free function).
    pub const WATCH: &str = "fk-watch";
    /// Heartbeat (scheduled function).
    pub const HEARTBEAT: &str = "fk-heartbeat";

    /// The leader function name of a shard group (`fk-leader` for group
    /// 0, so single-group deployments keep the historical name).
    pub fn leader(group: usize) -> String {
        if group == 0 {
            LEADER.to_owned()
        } else {
            format!("{LEADER}-{group}")
        }
    }
}

impl Deployment {
    /// Builds all services and, unless `direct_drive`, registers the four
    /// functions with live queue triggers and schedules.
    fn build(config: DeploymentConfig, direct_drive: bool) -> Self {
        let meter = Meter::new();
        let model = Arc::new(config.latency_model());
        let primary = config.regions[0];
        let qkind = config.queue_kind();
        // A disabled plan yields no engine at all: nothing is installed
        // on any service and the deployment is byte-identical to one
        // built before chaos existed.
        let chaos = Chaos::from_plan(config.chaos.clone());

        let system_kv =
            KvStore::with_limits("fk-system", primary, meter.clone(), config.kv_limits());
        if config.durable_system {
            let mut lsm_config = fk_store::LsmConfig::default();
            if let Some(engine) = &chaos {
                lsm_config.injector = Some(Arc::new(crate::durable::ChaosDiskInjector::new(
                    Arc::clone(engine),
                    Some(meter.clone()),
                )));
            }
            let lsm = fk_store::Lsm::open(Arc::new(fk_store::SimStorage::new()), lsm_config)
                .expect("fresh simulated device opens");
            system_kv
                .attach_durable(lsm)
                .expect("attach durable system store");
        }
        let staging = ObjectStore::new("fk-staging", primary, meter.clone());
        let write_queue = Queue::new("fk-writes", qkind, primary, meter.clone());
        // The leader tier: one FIFO queue per shard group; a width of 1
        // is the paper's single-leader deployment.
        let leader_queues = ShardedQueues::new(
            "fk-leader",
            qkind,
            primary,
            meter.clone(),
            config.distributor.groups,
        );
        let bus = ClientBus::new();

        let user_stores: Vec<Arc<dyn UserStore>> = config
            .regions
            .iter()
            .map(|&region| Self::build_user_store(&config, region, &meter, chaos.as_ref()))
            .collect();

        let runtime = FaasRuntime::new(Arc::clone(&model), config.mode, primary, meter.clone());
        if let Some(engine) = &chaos {
            system_kv.install_chaos(Arc::clone(engine));
            staging.install_chaos(Arc::clone(engine));
            write_queue.install_chaos(Arc::clone(engine));
            leader_queues.install_chaos(engine);
            runtime.install_chaos(Arc::clone(engine));
        }
        let system = SystemStore::new(system_kv);

        // The replica tier: `config.replicas.count` epoch-fed hot trees
        // per region (none when disabled), plus the committed-floor
        // publication the heartbeat piggybacks.
        let groups = config.distributor.groups.max(1);
        let replicas = ReplicaSet::build(
            config.replicas,
            &config.regions,
            groups,
            Some(meter.clone()),
        );
        if let Some(engine) = &chaos {
            if !replicas.is_empty() {
                replicas.install_chaos(Arc::clone(engine));
            }
        }
        let floors = Arc::new(CommittedFloors::new(groups));
        // Provisioned-but-inactive groups publish nothing; excluding
        // them keeps the cluster-wide committed min from pinning at 0
        // until they join ([`Deployment::scale_out`]).
        let active = config.active_groups.unwrap_or(groups).clamp(1, groups);
        for group in active..groups {
            floors.set_active(group, false);
        }

        let deployment = Deployment {
            config,
            model,
            meter,
            runtime,
            system,
            user_stores,
            staging,
            write_queue,
            leader_queues,
            bus,
            replicas,
            floors,
            chaos,
            seed_counter: std::sync::atomic::AtomicU64::new(1),
        };
        deployment.seed_root();
        deployment.seed_membership(active);
        if !direct_drive {
            deployment.register_functions();
        }
        deployment
    }

    /// Starts a full deployment with live triggers.
    pub fn start(config: DeploymentConfig) -> Self {
        Self::build(config, false)
    }

    /// Builds services only; the caller drives the function bodies
    /// directly (benchmark harness).
    pub fn direct(config: DeploymentConfig) -> Self {
        Self::build(config, true)
    }

    fn build_user_store(
        config: &DeploymentConfig,
        region: Region,
        meter: &Meter,
        chaos: Option<&Arc<Chaos>>,
    ) -> Arc<dyn UserStore> {
        let name = format!("fk-user-{}", region.0);
        match config.user_store {
            UserStoreKind::Object => {
                let bucket = ObjectStore::new(name, region, meter.clone());
                if let Some(engine) = chaos {
                    bucket.install_chaos(Arc::clone(engine));
                }
                Arc::new(bucket)
            }
            UserStoreKind::KeyValue => {
                let table = KvStore::with_limits(name, region, meter.clone(), config.kv_limits());
                if let Some(engine) = chaos {
                    table.install_chaos(Arc::clone(engine));
                }
                Arc::new(KvUserStore::new(table))
            }
            UserStoreKind::Hybrid { threshold } => {
                let table =
                    KvStore::with_limits(name.clone(), region, meter.clone(), config.kv_limits());
                let bucket = ObjectStore::new(format!("{name}-large"), region, meter.clone());
                if let Some(engine) = chaos {
                    table.install_chaos(Arc::clone(engine));
                    bucket.install_chaos(Arc::clone(engine));
                }
                Arc::new(KvUserStore::hybrid(table, bucket, threshold))
            }
            // The in-memory cache backend has no chaos points: it models
            // a node-local cache, not a network round trip.
            UserStoreKind::Cached => Arc::new(MemStore::new(region, meter.clone())),
            // The embedded LSM engine; its disk fault points arm from
            // the same plan as every other service boundary.
            UserStoreKind::Durable => Arc::new(
                crate::durable::DurableUserStore::open_sim(region, meter.clone(), chaos)
                    .expect("fresh simulated device opens"),
            ),
        }
    }

    /// Seeds the root node in system and user storage.
    fn seed_root(&self) {
        let ctx = Ctx::disabled();
        let root = fk_cloud::Item::new()
            .with(crate::system_store::node_attr::CREATED, 1i64)
            .with(crate::system_store::node_attr::VERSION, 1i64)
            .with(crate::system_store::node_attr::VCOUNT, 0i64)
            .with(crate::system_store::node_attr::NUM_CHILDREN, 0i64);
        let _ = self.system.kv().put(
            &ctx,
            &crate::system_store::keys::node("/"),
            root,
            fk_cloud::Condition::ItemNotExists,
        );
        let record = NodeRecord {
            path: "/".into(),
            data: Bytes::new(),
            created_txid: 1,
            modified_txid: 1,
            version: 0,
            children: Arc::new(vec![]),
            // No transaction wrote this list: at width 1 txids are raw
            // queue sequence numbers, so the first create under `/` may
            // carry txid 1 and must win the `children_txid` merge.
            children_txid: 0,
            ephemeral_owner: None,
            epoch_marks: Arc::new(vec![]),
        };
        for store in &self.user_stores {
            let _ = store.write_node(&ctx, &record);
        }
    }

    /// Publishes the initial membership record. Single-group tiers skip
    /// it entirely: followers never read membership at width 1 (static
    /// by construction), so those deployments stay byte-identical.
    fn seed_membership(&self, active: usize) {
        if self.config.distributor.groups <= 1 {
            return;
        }
        let ctx = Ctx::disabled();
        let membership = crate::system_store::Membership::all_active(active);
        let _ = self.system.write_membership(&ctx, &membership);
    }

    fn register_functions(&self) {
        let follower = Arc::new(self.make_follower());
        self.runtime
            .register(
                fn_names::FOLLOWER,
                self.config.follower_fn,
                move |ctx: &Ctx, event: &Event| match event {
                    Event::Queue { messages } => follower
                        .process_messages(ctx, messages)
                        .map(|_| Bytes::new()),
                    _ => Err(FnError::fatal("follower requires queue events")),
                },
            )
            .expect("register follower");
        // The follower takes its session's queued writes, up to the
        // queue kind's per-receive batch (10 on SQS FIFO, §3.1). A receive
        // never waits to fill it, so a quiet queue still delivers at once.
        self.runtime
            .attach_queue_trigger(
                fn_names::FOLLOWER,
                self.write_queue.clone(),
                self.write_queue.kind().max_batch(),
                FOLLOWER_CONCURRENCY,
            )
            .expect("attach follower trigger");

        let watch = Arc::new(self.make_watch_fn());
        self.runtime
            .register(
                fn_names::WATCH,
                self.config.watch_fn,
                move |ctx: &Ctx, event: &Event| match event {
                    Event::Direct { payload } => {
                        let task = WatchTask::decode(payload)
                            .ok_or_else(|| FnError::fatal("bad watch task"))?;
                        watch
                            .run(ctx, &task)
                            .map(|_| Bytes::new())
                            .map_err(|e| FnError::retryable(e.to_string()))
                    }
                    _ => Err(FnError::fatal("watch requires direct invocation")),
                },
            )
            .expect("register watch");

        // One leader function instance per shard group, each consuming
        // its own FIFO queue (single active instance per group — the
        // queue's one ordering group enforces it).
        let dispatcher = Arc::new(RuntimeDispatcher {
            runtime: self.runtime.clone(),
            function: fn_names::WATCH.to_owned(),
        });
        for group in 0..self.config.distributor.groups {
            let leader = Arc::new(self.make_leader(dispatcher.clone()));
            let name = fn_names::leader(group);
            self.runtime
                .register(
                    &name,
                    self.config.leader_fn,
                    move |ctx: &Ctx, event: &Event| match event {
                        Event::Queue { messages } => {
                            leader.process_messages(ctx, messages).map(|_| Bytes::new())
                        }
                        _ => Err(FnError::fatal("leader requires queue events")),
                    },
                )
                .expect("register leader");
            // Each group's trigger takes its lane's queued records, up to
            // the epoch batch (`DistributorConfig::max_batch`).
            self.runtime
                .attach_queue_trigger(
                    &name,
                    self.leader_queues.queue(group).clone(),
                    self.config.distributor.max_batch,
                    1,
                )
                .expect("attach leader trigger");
        }

        let heartbeat = Arc::new(self.make_heartbeat());
        self.runtime
            .register(
                fn_names::HEARTBEAT,
                self.config.heartbeat_fn,
                move |ctx: &Ctx, _event: &Event| {
                    heartbeat
                        .run(ctx)
                        .map(|_| Bytes::new())
                        .map_err(|e| FnError::retryable(e.to_string()))
                },
            )
            .expect("register heartbeat");
        if let Some(interval) = self.config.heartbeat_interval {
            self.runtime
                .attach_schedule(fn_names::HEARTBEAT, interval)
                .expect("attach heartbeat schedule");
        }
    }

    // ------------------------------------------------------------------
    // Function-body factories (shared by triggers and direct drive)
    // ------------------------------------------------------------------

    /// A follower body bound to this deployment's services.
    pub fn make_follower(&self) -> Follower {
        Follower::new(
            self.system.clone(),
            self.leader_queues.clone(),
            self.bus.clone(),
        )
    }

    /// A leader body with the given watch dispatcher, running the
    /// deployment's distributor pipeline. Leaders share nothing but the
    /// deployment's services: their writes to one record are ordered by
    /// the user store's conditional writes ([`crate::distributor`]).
    pub fn make_leader(&self, dispatcher: Arc<dyn WatchDispatcher>) -> Leader {
        let mut leader = Leader::with_config(
            self.system.clone(),
            self.user_stores.clone(),
            self.staging.clone(),
            self.bus.clone(),
            dispatcher,
            self.config.distributor,
        );
        // Every leader publishes committed floors (the heartbeat's MRD
        // piggyback feeds off them even without a replica tier) and, when
        // the tier is enabled, feeds the replicas its epoch stream.
        leader.attach_floors(Arc::clone(&self.floors));
        if !self.replicas.is_empty() {
            leader.attach_replicas(self.replicas.clone());
        }
        leader
    }

    /// A leader body with inline (synchronous, virtual-time-forked) watch
    /// dispatch — for direct-drive benchmarking.
    pub fn make_leader_inline(&self) -> Leader {
        let dispatcher = Arc::new(InlineDispatcher::new(
            Arc::new(self.make_watch_fn()),
            self.config.watch_fn,
        ));
        self.make_leader(dispatcher)
    }

    /// The watch function body.
    pub fn make_watch_fn(&self) -> WatchFunction {
        WatchFunction::new(self.system.clone(), self.bus.clone())
    }

    /// The heartbeat function body. Pings piggyback the leaders'
    /// committed floor so idle sessions' MRD keeps advancing.
    pub fn make_heartbeat(&self) -> Heartbeat {
        Heartbeat::new(
            self.system.clone(),
            self.bus.clone(),
            self.write_queue.clone(),
        )
        .with_floors(Arc::clone(&self.floors))
    }

    // ------------------------------------------------------------------
    // Membership changes
    // ------------------------------------------------------------------

    /// The current shard-group membership (strong read; `None` for
    /// single-group tiers, which are static by construction).
    pub fn membership(&self, ctx: &Ctx) -> Option<crate::system_store::Membership> {
        if self.config.distributor.groups <= 1 {
            return None;
        }
        self.system.read_membership(ctx)
    }

    /// Live scale-out to `active` write-accepting groups (≤ the
    /// provisioned width): activates each joining group from the
    /// committed floors (`Deployment::activate_group` seeds the
    /// group's txid counter past all of them and publishes its committed
    /// floor), then publishes the widened membership. No data moves:
    /// followers re-hash across the new width from their next batch;
    /// keys that move groups stay Z2-ordered through the per-session
    /// txid floors. Returns the committed floors the joiners were
    /// seeded from.
    pub fn scale_out(&self, ctx: &Ctx, active: usize) -> fk_cloud::CloudResult<Vec<u64>> {
        let provisioned = self.config.distributor.groups;
        assert!(
            active <= provisioned,
            "cannot activate beyond the provisioned {provisioned} groups"
        );
        let seed_floors = self.floors.snapshot();
        let mut membership = self
            .membership(ctx)
            .unwrap_or_else(|| crate::system_store::Membership::all_active(provisioned));
        for group in membership.active_groups..active {
            Self::activate_group(ctx, group, &self.system, &self.floors, &seed_floors)?;
        }
        if active > membership.active_groups {
            membership.active_groups = active;
            self.system.write_membership(ctx, &membership)?;
        }
        Ok(seed_floors)
    }

    /// Activates shard group `group` as a write-path joiner: seeds its
    /// txid-sequence counter past every epoch of the committed floors
    /// `seed_floors` (so fresh txids always sort after everything committed
    /// before it joined) and publishes an initial committed floor, keeping
    /// the group from dragging the cluster-wide committed watermark
    /// ([`CommittedFloors::committed`]) back to zero. Returns the txid the
    /// floor was published at.
    ///
    /// Publishing a floor for an empty group is sound: the floor claims
    /// every transaction of `group` with a smaller txid is distributed,
    /// which is vacuously true — the group has issued none.
    fn activate_group(
        ctx: &Ctx,
        group: usize,
        system: &SystemStore,
        floors: &CommittedFloors,
        seed_floors: &[u64],
    ) -> fk_cloud::CloudResult<u64> {
        let seed_floor = seed_floors.iter().copied().max().unwrap_or(0);
        let seeded = system.alloc_txid(ctx, group, seed_floor)?;
        debug_assert_eq!(crate::system_store::txid::group_of(seeded), group);
        floors.publish(group, seeded);
        Ok(seeded)
    }

    /// Marks `group` as draining toward `successor`: new submissions
    /// that hash to `group` re-route from the followers' next batch on,
    /// while everything already in its queue finishes under the normal
    /// Z2 hold-back. The group's leader keeps consuming its queue until
    /// [`Deployment::complete_drain`].
    pub fn begin_drain(
        &self,
        ctx: &Ctx,
        group: usize,
        successor: usize,
    ) -> fk_cloud::CloudResult<()> {
        let provisioned = self.config.distributor.groups;
        assert!(
            group < provisioned && successor < provisioned && group != successor,
            "drain endpoints must be distinct provisioned groups"
        );
        let mut membership = self
            .membership(ctx)
            .unwrap_or_else(|| crate::system_store::Membership::all_active(provisioned));
        if !membership.is_draining(group) {
            membership.draining.push((group, successor));
            self.system.write_membership(ctx, &membership)?;
        }
        Ok(())
    }

    /// Finishes a drain: requires the group's leader queue to be empty
    /// (every in-flight transaction distributed), quiesces the replica
    /// feed, and retires the group's committed floor from the
    /// cluster-wide min. The drain redirect stays in the membership
    /// record — the hash width still includes the drained group, so its
    /// keys must keep re-routing.
    pub fn complete_drain(&self, ctx: &Ctx, group: usize) -> fk_cloud::CloudResult<()> {
        let pending = self.leader_queues.queue(group).pending();
        if pending > 0 {
            return Err(fk_cloud::CloudError::InvalidOperation {
                detail: format!(
                    "group {group} still has {pending} queued records; drain is not complete"
                ),
            });
        }
        // Reconcile before retiring the floor: a replica a chaos-dropped
        // feed notification left behind has no later one to pull it, and
        // the floor must not advance past state the replicas never saw.
        self.replicas.reconcile(ctx);
        self.floors.set_active(group, false);
        Ok(())
    }

    /// Bootstraps a new read replica into `region_idx` as a copy of a
    /// live peer at the feed head ([`ReplicaSet::join_replica`]).
    ///
    /// # Panics
    ///
    /// If the replica tier is disabled.
    pub fn bootstrap_replica(
        &self,
        ctx: &Ctx,
        region_idx: usize,
    ) -> Arc<crate::replica::ReadReplica> {
        self.replicas.join_replica(ctx, region_idx)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Deployment configuration.
    pub fn config(&self) -> &DeploymentConfig {
        &self.config
    }

    /// The usage meter shared by all services.
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// The latency model in effect.
    pub fn model(&self) -> &Arc<LatencyModel> {
        &self.model
    }

    /// System storage.
    pub fn system(&self) -> &SystemStore {
        &self.system
    }

    /// User store replica for the primary region.
    pub fn user_store(&self) -> &Arc<dyn UserStore> {
        &self.user_stores[0]
    }

    /// All user-store replicas.
    pub fn user_stores(&self) -> &[Arc<dyn UserStore>] {
        &self.user_stores
    }

    /// The session write queue.
    pub fn write_queue(&self) -> &Queue {
        &self.write_queue
    }

    /// Shard group 0's follower→leader FIFO queue (the only one in a
    /// single-leader deployment).
    pub fn leader_queue(&self) -> &Queue {
        self.leader_queues.queue(0)
    }

    /// The whole leader tier: one FIFO queue per shard group.
    pub fn leader_queues(&self) -> &ShardedQueues {
        &self.leader_queues
    }

    /// The client notification bus.
    pub fn bus(&self) -> &ClientBus {
        &self.bus
    }

    /// The regional read-replica tier (empty when disabled).
    pub fn replicas(&self) -> &ReplicaSet {
        &self.replicas
    }

    /// The leaders' committed-floor publication (heartbeat piggyback).
    pub fn floors(&self) -> &Arc<CommittedFloors> {
        &self.floors
    }

    /// The chaos engine, when the config's fault plan is enabled.
    /// Gate tests use it to assert that faults actually fired.
    pub fn chaos(&self) -> Option<&Arc<Chaos>> {
        self.chaos.as_ref()
    }

    /// The staging bucket for oversized payloads.
    pub fn staging(&self) -> &ObjectStore {
        &self.staging
    }

    /// The FaaS runtime.
    pub fn runtime(&self) -> &FaasRuntime {
        &self.runtime
    }

    /// A fresh client-side context with a unique latency seed.
    pub fn client_ctx(&self) -> Ctx {
        let seed = self
            .seed_counter
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let ctx = Ctx::new(
            Arc::clone(&self.model),
            self.config.mode,
            self.config.seed ^ seed,
        );
        ctx.set_region(self.config.regions[0]);
        ctx
    }

    /// Connects a client session.
    pub fn connect(&self, session_id: impl Into<String>) -> crate::api::FkResult<FkClient> {
        self.connect_with(ClientConfig::new(session_id))
    }

    /// Connects with explicit client configuration. A config that left
    /// the read cache unset inherits the deployment's
    /// [`DeploymentConfig::read_cache`] bounds (an explicitly pinned
    /// config — even a disabled one — wins); either way the cache
    /// reports hit/miss counters to the deployment meter.
    pub fn connect_with(&self, mut config: ClientConfig) -> crate::api::FkResult<FkClient> {
        if config.read_cache.is_none() {
            config.read_cache = Some(self.config.read_cache);
        }
        if config.replica.is_none() {
            // Pin the session to one of the local region's replicas (a
            // disabled tier yields `None` and the read path is unchanged).
            config.replica = self.replicas.replica_for(&config.session_id);
        }
        FkClient::connect(
            config,
            self.client_ctx(),
            self.system.clone(),
            Arc::clone(&self.user_stores[0]),
            self.staging.clone(),
            self.write_queue.clone(),
            self.bus.clone(),
        )
    }

    /// Stops triggers and schedules; queues are closed.
    pub fn shutdown(&self) {
        self.write_queue.close();
        self.leader_queues.close();
        self.runtime.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system_store::txid;
    use fk_cloud::{KvStore, Meter, Region};

    #[test]
    fn activate_group_seeds_fresh_txids_past_the_committed_floors() {
        let ctx = Ctx::disabled();
        let system = SystemStore::new(KvStore::new("sys", Region::US_EAST_1, Meter::new()));
        let floors = CommittedFloors::new(8);
        for g in 0..4 {
            floors.publish(g, txid::compose(100 + g as u64, g));
        }
        for g in 4..8 {
            floors.set_active(g, false);
        }
        assert_eq!(txid::epoch_of(floors.committed()), 100);

        let seeded =
            Deployment::activate_group(&ctx, 5, &system, &floors, &floors.snapshot()).unwrap();
        assert_eq!(txid::group_of(seeded), 5);
        assert!(
            txid::epoch_of(seeded) > 103,
            "seeded past the highest committed epoch"
        );
        assert!(floors.is_active(5));
        assert_eq!(
            txid::epoch_of(floors.committed()),
            100,
            "the joiner's floor does not drag the committed min down"
        );
    }
}
