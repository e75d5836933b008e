//! Acceptance gate for the pipelined client API: with pipeline depth 16,
//! one session's write throughput on the interleaved zipf mix must be
//! ≥ 3× the depth-1 (blocking) baseline, on both provider profiles. The
//! Z1 FIFO property suite (`tests/pipelined_properties.rs`) and the
//! multi atomicity suite (`tests/multi_properties.rs`) pin the
//! correctness half of the same redesign; this gate pins the reason the
//! redesign exists.
//!
//! The paper's Z1 guarantee is defined over a pipeline of in-flight
//! requests per session, but a blocking client (depth 1) serializes the
//! whole distributed pipeline behind every single round trip: the
//! follower idles while the client waits for the leader's notification,
//! the leader idles while the follower validates the next request. The
//! handle-based client keeps `depth` writes in flight, which lets the
//! three stages — client submission, follower (lock → push → commit),
//! leader (verify → distribute → notify) — run **concurrently on their
//! own clocks** and lets each stage batch: the follower processes
//! conflict-free waves with fanned-out storage I/O, the leader drains
//! epoch batches, and per-batch overheads (queue dispatch, warm starts,
//! epoch-mark reads, epoch pops) amortize across the window.
//!
//! The driver runs one session's writes through the real function
//! bodies on **three virtual-time contexts** (client / follower /
//! leader), propagating causality exactly the way the runtime does:
//! a queue message carries its sender's timestamp and the consumer
//! merges it (`Ctx::merge_time_ns`, the same rule
//! `FaasRuntime::trigger_loop` applies), and the client merges a write's
//! completion timestamp before it may submit the write `depth` positions
//! later. Depth 1 therefore reproduces the blocking client exactly —
//! every stage clock chains through every round trip — while larger
//! depths overlap the stages and let the batch machinery engage. The
//! measured quantity is wall-clock-equivalent virtual time from first
//! submission to last completion.

use fk_cloud::ops::Op;
use fk_cloud::trace::{Ctx, LatencyMode};
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::distributor::DistributorConfig;
use fk_core::messages::{ClientRequest, Payload, WriteOp};
use fk_core::CreateMode;
use fk_workloads::SeededZipf;
use std::sync::Arc;
use std::time::Duration;

/// The gate's mix: 64 writes over 16 nodes of 256 B, picked by a zipf
/// rank stream (hot nodes repeat — conflicting, same-wave — while the
/// tail spreads across paths).
const WRITES: usize = 64;
const NODES: u64 = 16;
const NODE_SIZE: usize = 256;
/// Seed of the zipf stream and latency sampling.
const SEED: u64 = 0xDEE9;

/// The intra-leader pipeline (shards × epoch batch).
fn pipeline() -> DistributorConfig {
    DistributorConfig::new(4, 16)
}

/// Result of one pipelined run.
struct PipelinedRunResult {
    /// Writes completed.
    writes: usize,
    /// Virtual time from first submission to last completion.
    virtual_time: Duration,
    /// Per-session write throughput in transactions per virtual second.
    throughput_per_s: f64,
}

/// Runs one session's zipf write mix of `writes` writes over `nodes`
/// nodes at pipeline depth `depth` on `base`'s provider (see the module
/// docs for the three-clock model).
fn run_pipelined(
    base: DeploymentConfig,
    depth: usize,
    writes: usize,
    nodes: u64,
) -> PipelinedRunResult {
    let pipeline = pipeline();
    let deployment = Deployment::direct(
        base.with_mode(LatencyMode::Virtual, SEED)
            .with_distributor(pipeline),
    );
    let follower = deployment.make_follower();
    let leader = deployment.make_leader_inline();

    // Uncharged setup: session, bus endpoint, node population.
    let setup = Ctx::disabled();
    deployment
        .system()
        .register_session(&setup, "pipe", 0)
        .expect("register session");
    let _endpoint = deployment.bus().register("pipe");
    let paths: Vec<String> = (0..nodes).map(|i| format!("/pipe/n{i}")).collect();
    {
        let mut rid = 0u64;
        let mut seed_write = |op: WriteOp| {
            rid += 1;
            let request = ClientRequest {
                session_id: "pipe".into(),
                request_id: rid,
                op,
            };
            deployment
                .write_queue()
                .send(&setup, "pipe", request.encode())
                .expect("enqueue");
        };
        seed_write(WriteOp::Create {
            path: "/pipe".into(),
            payload: Payload::inline(b""),
            mode: CreateMode::Persistent,
        });
        for path in &paths {
            seed_write(WriteOp::Create {
                path: path.clone(),
                payload: Payload::inline(&[0x11; NODE_SIZE]),
                mode: CreateMode::Persistent,
            });
        }
        while let Some(batch) = deployment
            .write_queue()
            .receive(10, Duration::from_secs(30))
        {
            follower
                .process_messages(&setup, &batch.messages)
                .expect("setup follower");
            deployment.write_queue().ack(batch.receipt);
        }
        while leader
            .drain_queue(&setup, deployment.leader_queue())
            .expect("setup leader")
            > 0
        {}
    }

    // The three stage clocks.
    let make_ctx = |salt: u64| {
        let ctx = Ctx::new(
            Arc::clone(deployment.model()),
            deployment.config().mode,
            SEED ^ salt,
        );
        ctx.set_region(deployment.config().regions[0]);
        ctx
    };
    let ctx_client = make_ctx(0);
    let ctx_follower = make_ctx(0x0F);
    ctx_follower.set_env(deployment.config().follower_fn.env());
    let ctx_leader = make_ctx(0x1E);
    ctx_leader.set_env(deployment.config().leader_fn.env());

    let mut zipf = SeededZipf::new(nodes, SEED ^ 0x21F);
    let payload = [0xAB; NODE_SIZE];
    let mut submitted = 0usize;
    // Completion virtual timestamps, in submission order (one session →
    // the leader queue is FIFO → batch order is submission order).
    let mut completions: Vec<u64> = Vec::new();
    let mut request_id = 100u64;

    while completions.len() < writes {
        // Client: submit while fewer than `depth` writes are in flight.
        // Submitting write i requires write i-depth's completion to have
        // been observed (the client merges its timestamp — the blocking
        // wait at depth 1, the pipeline window otherwise).
        while submitted < writes && submitted - completions.len() < depth {
            if submitted >= depth {
                ctx_client.merge_time_ns(completions[submitted - depth]);
            }
            let path = paths[zipf.next_key() as usize].clone();
            request_id += 1;
            let request = ClientRequest {
                session_id: "pipe".into(),
                request_id,
                op: WriteOp::SetData {
                    path,
                    payload: Payload::inline(&payload),
                    expected_version: -1,
                },
            };
            ctx_client.charge(Op::ClientWork, NODE_SIZE);
            deployment
                .write_queue()
                .send(&ctx_client, "pipe", request.encode())
                .expect("submit");
            submitted += 1;
        }

        // Follower: one trigger firing — receive the accumulated batch
        // (up to the FIFO provider cap), merge the senders' clocks,
        // process in waves.
        if let Some(batch) = deployment
            .write_queue()
            .receive_up_to(10, Duration::from_secs(30))
        {
            let max_vt = batch
                .messages
                .iter()
                .map(|m| m.sent_vt_ns)
                .max()
                .unwrap_or(0);
            ctx_follower.merge_time_ns(max_vt);
            let bytes: usize = batch.messages.iter().map(|m| m.body.len()).sum();
            ctx_follower.charge(Op::QueueDispatch(deployment.config().queue_kind()), bytes);
            ctx_follower.charge(Op::FnWarmOverhead, 0);
            follower
                .process_messages(&ctx_follower, &batch.messages)
                .expect("follower processes");
            deployment.write_queue().ack(batch.receipt);
        }

        // Leader: drain whatever epochs are ready, merging push clocks.
        while let Some(batch) = deployment
            .leader_queue()
            .receive_up_to(pipeline.max_batch, Duration::from_secs(30))
        {
            let max_vt = batch
                .messages
                .iter()
                .map(|m| m.sent_vt_ns)
                .max()
                .unwrap_or(0);
            ctx_leader.merge_time_ns(max_vt);
            let bytes: usize = batch.messages.iter().map(|m| m.body.len()).sum();
            ctx_leader.charge(Op::QueueDispatch(deployment.config().queue_kind()), bytes);
            ctx_leader.charge(Op::FnWarmOverhead, 0);
            leader
                .process_messages(&ctx_leader, &batch.messages)
                .expect("leader processes");
            deployment.leader_queue().ack(batch.receipt);
            // The success notifications went out at the end of the
            // epoch batch; the client observes them at this timestamp.
            for _ in 0..batch.messages.len() {
                completions.push(ctx_leader.now_ns());
            }
        }
    }

    let virtual_time = Duration::from_nanos(*completions.last().expect("writes completed"));
    PipelinedRunResult {
        writes: completions.len(),
        throughput_per_s: completions.len() as f64 / virtual_time.as_secs_f64().max(1e-12),
        virtual_time,
    }
}

/// Runs the blocking baseline (depth 1) and the pipelined client at
/// `depth` on the same seeded mix; returns `(depth1, pipelined,
/// speedup)`.
fn compare_depths(
    base: DeploymentConfig,
    depth: usize,
    writes: usize,
    nodes: u64,
) -> (PipelinedRunResult, PipelinedRunResult, f64) {
    let blocking = run_pipelined(base.clone(), 1, writes, nodes);
    let pipelined = run_pipelined(base, depth, writes, nodes);
    let speedup = pipelined.throughput_per_s / blocking.throughput_per_s;
    (blocking, pipelined, speedup)
}

#[test]
fn pipelined_run_is_deterministic_and_complete() {
    let a = run_pipelined(DeploymentConfig::aws(), 8, 24, 8);
    let b = run_pipelined(DeploymentConfig::aws(), 8, 24, 8);
    assert_eq!(a.writes, 24);
    assert_eq!(a.virtual_time, b.virtual_time, "seeded runs reproduce");
}

#[test]
fn depth_one_is_strictly_slower_than_depth_eight() {
    let (blocking, pipelined, speedup) = compare_depths(DeploymentConfig::aws(), 8, 24, 8);
    assert_eq!(blocking.writes, pipelined.writes);
    assert!(speedup > 1.0, "pipelining must help (got {speedup:.2}x)");
}

fn assert_depth16_clears_3x(base: DeploymentConfig) {
    let provider = base.provider;
    // Replay stamp for failure messages, in the `chaos soak seed 0x…`
    // idiom: the printed seed + geometry reproduce the exact run.
    let stamp = format!(
        "pipelined gate seed {SEED:#x} depth 16 writes {WRITES} shards {} batch {} provider {provider:?}",
        pipeline().shards,
        pipeline().max_batch,
    );
    let (blocking, pipelined, speedup) = compare_depths(base, 16, WRITES, NODES);
    assert_eq!(blocking.writes, pipelined.writes, "same work completed");
    println!(
        "{provider:?}: depth 1 {:.1} writes/s ({:?}) vs depth 16 {:.1} writes/s ({:?}) — {speedup:.2}x",
        blocking.throughput_per_s,
        blocking.virtual_time,
        pipelined.throughput_per_s,
        pipelined.virtual_time,
    );
    assert!(
        speedup >= 3.0,
        "{stamp}: expected >=3x per-session write throughput at depth 16, got {speedup:.2}x \
         ({:.1} -> {:.1} writes/s)",
        blocking.throughput_per_s,
        pipelined.throughput_per_s,
    );
}

#[test]
fn aws_depth16_triples_per_session_write_throughput() {
    assert_depth16_clears_3x(DeploymentConfig::aws());
}

#[test]
fn gcp_depth16_triples_per_session_write_throughput() {
    assert_depth16_clears_3x(DeploymentConfig::gcp());
}

/// Depth scaling is monotone up to the gate point: more in-flight writes
/// never reduce per-session throughput on this mix.
#[test]
fn depth_scaling_is_monotone() {
    let mut last = 0.0f64;
    for depth in [1usize, 4, 16] {
        let result = run_pipelined(DeploymentConfig::aws(), depth, WRITES, NODES);
        assert!(
            result.throughput_per_s >= last,
            "depth {depth} regressed: {:.1} < {last:.1}",
            result.throughput_per_s
        );
        last = result.throughput_per_s;
    }
}
