//! Acceptance gate for the distributor refactor: the batched+sharded
//! pipeline must sustain at least 2× the write-distribution throughput of
//! the sequential path (one transaction per batch, one worker) at batch
//! size ≥ 8 and ≥ 4 shards, on the same seeded zipf-skewed workload
//! under the calibrated latency model, for either provider profile (AWS
//! SQS FIFO + S3 / DynamoDB, or GCP ordered Pub/Sub + Cloud Storage /
//! Datastore).
//!
//! Setup (node creation, follower processing) runs on an uncharged
//! context; only the leader's drain of its FIFO queue is measured, so
//! the comparison isolates exactly the cost the paper's Table 3
//! attributes to "Update Node". `-- --nocapture` prints the numbers.

use fk_cloud::trace::{Ctx, LatencyMode};
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::distributor::DistributorConfig;
use fk_core::messages::{ClientRequest, Payload, WriteOp};
use fk_core::{CreateMode, UserStoreKind};
use fk_workloads::SkewedWriteMix;
use std::sync::Arc;
use std::time::Duration;

/// Measured `set_data` transactions and distinct target nodes of the
/// gate's runs.
const WRITES: usize = 96;
const NODES: u64 = 24;
/// Payload size per write.
const NODE_SIZE: usize = 1024;
/// Seed of the workload stream and latency sampling.
const SEED: u64 = 0xD157;

/// One transaction at a time through a single worker: the baseline the
/// pipeline is measured against.
fn sequential_pipeline() -> DistributorConfig {
    DistributorConfig::new(1, 1)
}

/// Result of one distribution run.
struct DistRunResult {
    /// Transactions distributed.
    writes: usize,
    /// Virtual time the leader tier spent draining its queues.
    virtual_time: Duration,
    /// Distribution throughput in transactions per virtual second.
    throughput_per_s: f64,
}

impl DistRunResult {
    fn new(writes: usize, virtual_time: Duration) -> Self {
        DistRunResult {
            writes,
            throughput_per_s: writes as f64 / virtual_time.as_secs_f64().max(1e-12),
            virtual_time,
        }
    }
}

/// Runs `writes` zipf-skewed `set_data` transactions over `nodes` nodes
/// through the real follower → leader pipeline of `config` and measures
/// the leader's distribution drain in virtual time.
fn run_distribution(config: DeploymentConfig, writes: usize, nodes: u64) -> DistRunResult {
    let deployment = Deployment::direct(config.with_mode(LatencyMode::Virtual, SEED));
    let follower = deployment.make_follower();
    let leader = deployment.make_leader_inline();

    let setup = Ctx::disabled();
    deployment
        .system()
        .register_session(&setup, "bench", 0)
        .expect("register bench session");
    let _endpoint = deployment.bus().register("bench");

    let mut request_id = 0u64;
    let mut submit = |op: WriteOp| {
        request_id += 1;
        let request = ClientRequest {
            session_id: "bench".into(),
            request_id,
            op,
        };
        deployment
            .write_queue()
            .send(&setup, "bench", request.encode())
            .expect("enqueue request");
    };
    let drain_follower = |ctx: &Ctx| {
        while let Some(batch) = deployment
            .write_queue()
            .receive(10, Duration::from_secs(30))
        {
            follower
                .process_messages(ctx, &batch.messages)
                .expect("follower processes");
            deployment.write_queue().ack(batch.receipt);
        }
    };

    // Uncharged setup: the node tree plus the follower half of the
    // workload's write path.
    let mut mix = SkewedWriteMix::new(nodes, 1.0, NODE_SIZE, SEED);
    submit(WriteOp::Create {
        path: "/hot".into(),
        payload: Payload::inline(b""),
        mode: CreateMode::Persistent,
    });
    for path in mix.paths().to_vec() {
        submit(WriteOp::Create {
            path,
            payload: Payload::inline(&[0x11; NODE_SIZE]),
            mode: CreateMode::Persistent,
        });
    }
    drain_follower(&setup);
    while leader
        .drain_queue(&setup, deployment.leader_queue())
        .expect("setup drain")
        > 0
    {}

    let payload = [0xAB; NODE_SIZE];
    for _ in 0..writes {
        let (_, path) = mix.next_op();
        let path = path.to_owned();
        submit(WriteOp::SetData {
            path,
            payload: Payload::inline(&payload),
            expected_version: -1,
        });
    }
    drain_follower(&setup);

    // Measured: the leader drains its queue in epoch batches.
    let ctx = Ctx::new(
        Arc::clone(deployment.model()),
        deployment.config().mode,
        SEED,
    );
    ctx.set_region(deployment.config().regions[0]);
    ctx.set_env(deployment.config().leader_fn.env());
    let mut processed = 0usize;
    loop {
        let n = leader
            .drain_queue(&ctx, deployment.leader_queue())
            .expect("leader drains");
        if n == 0 {
            break;
        }
        processed += n;
    }
    assert_eq!(processed, writes, "all writes distributed");
    DistRunResult::new(processed, ctx.now())
}

/// Runs the sequential baseline and `pipeline` on the same seeded
/// workload of the gates' shape over `base`; returns `(sequential,
/// pipelined, speedup)`.
fn compare(
    base: DeploymentConfig,
    pipeline: DistributorConfig,
) -> (DistRunResult, DistRunResult, f64) {
    let label = format!("{:?} {:?}", base.provider, base.user_store);
    let sequential = run_distribution(
        base.clone().with_distributor(sequential_pipeline()),
        WRITES,
        NODES,
    );
    let batched = run_distribution(base.with_distributor(pipeline), WRITES, NODES);
    let speedup = batched.throughput_per_s / sequential.throughput_per_s;
    println!(
        "{label}: sequential {:.1} tx/s vs pipeline {}x{} {:.1} tx/s ({speedup:.2}x)",
        sequential.throughput_per_s, pipeline.shards, pipeline.max_batch, batched.throughput_per_s,
    );
    (sequential, batched, speedup)
}

#[test]
fn distribution_run_is_deterministic() {
    let config = DeploymentConfig::aws().with_distributor(DistributorConfig::new(2, 4));
    let a = run_distribution(config.clone(), 12, 6);
    let b = run_distribution(config, 12, 6);
    assert_eq!(a.virtual_time, b.virtual_time, "seeded runs reproduce");
    assert_eq!(a.writes, 12);
}

#[test]
fn batched_sharded_distribution_is_at_least_2x_sequential() {
    let (seq, pipe, speedup) = compare(DeploymentConfig::aws(), DistributorConfig::new(4, 8));
    assert!(
        speedup >= 2.0,
        "expected ≥2x at batch=8/shards=4: sequential {:.1} tx/s vs pipeline {:.1} tx/s ({speedup:.2}x)",
        seq.throughput_per_s,
        pipe.throughput_per_s,
    );
}

#[test]
fn speedup_grows_with_batch_and_shards() {
    let (_, _, small) = compare(DeploymentConfig::aws(), DistributorConfig::new(4, 8));
    let (_, _, large) = compare(DeploymentConfig::aws(), DistributorConfig::new(8, 32));
    assert!(
        large > small,
        "wider pipeline should win: 4x8 → {small:.2}x, 8x32 → {large:.2}x"
    );
}

/// The GCP profile (ordered Pub/Sub + Datastore + Cloud Storage) must
/// clear the same bar. Batching pays off even harder there: ordered
/// Pub/Sub dispatch is ~110 ms per delivery (Table 7c), so draining one
/// epoch per dispatch instead of one transaction per dispatch removes
/// the dominant per-message cost.
#[test]
fn gcp_profile_also_clears_2x() {
    let (seq, pipe, speedup) = compare(DeploymentConfig::gcp(), DistributorConfig::new(4, 8));
    assert!(
        speedup >= 2.0,
        "gcp: sequential {:.1} tx/s vs pipeline {:.1} tx/s ({speedup:.2}x)",
        seq.throughput_per_s,
        pipe.throughput_per_s,
    );
}

/// GCP's per-dispatch cost dwarfs AWS's, so the pipeline's relative win
/// must be at least as large there — this pins the calibration ordering
/// (Table 7a vs 7c) into the gate.
#[test]
fn gcp_speedup_at_least_matches_aws() {
    let pipeline = DistributorConfig::new(4, 16);
    let (_, _, aws) = compare(DeploymentConfig::aws(), pipeline);
    let (_, _, gcp) = compare(DeploymentConfig::gcp(), pipeline);
    assert!(
        gcp >= aws,
        "ordered Pub/Sub batching should win harder: aws {aws:.2}x vs gcp {gcp:.2}x"
    );
}

#[test]
fn hybrid_backend_also_clears_2x() {
    let base = DeploymentConfig::aws().with_user_store(UserStoreKind::hybrid_default());
    let (seq, pipe, speedup) = compare(base, DistributorConfig::new(4, 16));
    assert!(
        speedup >= 2.0,
        "hybrid: sequential {:.1} tx/s vs pipeline {:.1} tx/s ({speedup:.2}x)",
        seq.throughput_per_s,
        pipe.throughput_per_s,
    );
}
