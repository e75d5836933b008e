//! Acceptance gate for the multi-leader tier: scaling the leader from
//! one function instance to one instance per shard group must buy real
//! write-distribution throughput on a uniform mix, and the single-group
//! path must not regress — it is still the default deployment shape.
//!
//! Setup (node creation, follower processing) runs on an uncharged
//! context; only the leader tier's drain of its FIFO queues is measured.
//! `-- --nocapture` prints the numbers.

use fk_cloud::trace::{Ctx, LatencyMode};
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::distributor::DistributorConfig;
use fk_core::leader::Leader;
use fk_core::messages::{ClientRequest, Payload, WriteOp};
use fk_core::CreateMode;
use std::sync::Arc;
use std::time::Duration;

/// Measured `set_data` transactions and distinct target nodes (one
/// session each) of the gate's runs.
const WRITES: usize = 96;
const NODES: u64 = 24;
/// Payload size per write.
const NODE_SIZE: usize = 1024;
/// Seed of latency sampling.
const SEED: u64 = 0x3107;

/// The gate's pipeline inside each leader instance.
fn pipeline() -> DistributorConfig {
    DistributorConfig::new(4, 16)
}

/// Result of one distribution run.
struct DistRunResult {
    /// Transactions distributed.
    writes: usize,
    /// Virtual time the leader tier spent draining its queues: the
    /// slowest group's.
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

/// Runs a **uniform** write mix (round-robin over `nodes` nodes, one
/// session per node, so each session's writes pin to one path — the
/// N-independent-clients shape the scale-out argument is about) through
/// the follower half (uncharged setup), then measures the leader tier's
/// drain: one leader instance per shard group, each on its own
/// virtual-time context, drained to exhaustion in interleaved rounds.
/// The tier's virtual time is the *maximum* over the groups — the
/// wall-clock of `groups` function instances running concurrently — so
/// throughput scales with the tier width exactly as far as the queue
/// sharding balances the load.
fn run_multi_leader(
    groups: usize,
    pipeline: DistributorConfig,
    writes: usize,
    nodes: u64,
) -> DistRunResult {
    let deployment = Deployment::direct(
        DeploymentConfig::aws()
            .with_mode(LatencyMode::Virtual, SEED)
            .with_distributor(pipeline.with_groups(groups)),
    );
    let follower = deployment.make_follower();

    let setup = Ctx::disabled();
    let paths: Vec<String> = (0..nodes).map(|i| format!("/hot/n{i}")).collect();
    let sessions: Vec<String> = (0..nodes).map(|i| format!("bench-{i}")).collect();
    let mut endpoints = Vec::new();
    for session in &sessions {
        deployment
            .system()
            .register_session(&setup, session, 0)
            .expect("register bench session");
        endpoints.push(deployment.bus().register(session));
    }

    // Request ids are per-session monotonic (the follower's exactly-once
    // watermark drops repeats); a shared counter satisfies that for every
    // session at once.
    let next_request = std::cell::Cell::new(1u64);
    let submit = |session: &str, op: WriteOp| {
        let request = ClientRequest {
            session_id: session.to_owned(),
            request_id: next_request.replace(next_request.get() + 1),
            op,
        };
        deployment
            .write_queue()
            .send(&setup, session, request.encode())
            .expect("enqueue request");
    };
    let drain_follower = || {
        while let Some(batch) = deployment
            .write_queue()
            .receive(10, Duration::from_secs(30))
        {
            follower
                .process_messages(&setup, &batch.messages)
                .expect("follower processes");
            deployment.write_queue().ack(batch.receipt);
        }
    };
    let drain_all_uncharged = |leaders: &[Leader]| {
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (group, leader) in leaders.iter().enumerate() {
                while let Ok(n) =
                    leader.drain_queue(&setup, deployment.leader_queues().queue(group))
                {
                    if n == 0 {
                        break;
                    }
                    progressed = true;
                }
            }
        }
    };

    // Uncharged setup: the node tree plus the follower half of the
    // measured writes.
    let leaders: Vec<Leader> = (0..groups)
        .map(|_| deployment.make_leader_inline())
        .collect();
    submit(
        &sessions[0],
        WriteOp::Create {
            path: "/hot".into(),
            payload: Payload::inline(b""),
            mode: CreateMode::Persistent,
        },
    );
    drain_follower();
    drain_all_uncharged(&leaders);
    for (path, session) in paths.iter().zip(&sessions) {
        submit(
            session,
            WriteOp::Create {
                path: path.clone(),
                payload: Payload::inline(&[0x11; NODE_SIZE]),
                mode: CreateMode::Persistent,
            },
        );
    }
    drain_follower();
    drain_all_uncharged(&leaders);

    // Interleaved rounds: every session submits one write, the follower
    // tier drains, then the next round — the arrival pattern of N
    // independent clients writing concurrently. Draining per round makes
    // the leader queues' push order round-robin across paths instead of
    // per-session runs.
    let payload = [0xAB; NODE_SIZE];
    let mut submitted = 0usize;
    while submitted < writes {
        for n in 0..nodes as usize {
            if submitted >= writes {
                break;
            }
            submit(
                &sessions[n],
                WriteOp::SetData {
                    path: paths[n].clone(),
                    payload: Payload::inline(&payload),
                    expected_version: -1,
                },
            );
            submitted += 1;
        }
        drain_follower();
    }

    // Measured: each group's leader drains its own queue on its own
    // context — the virtual concurrency of a scaled-out tier.
    let contexts: Vec<Ctx> = (0..groups)
        .map(|group| {
            let ctx = Ctx::new(
                Arc::clone(deployment.model()),
                deployment.config().mode,
                SEED ^ (group as u64).wrapping_mul(0x9E37_79B9),
            );
            ctx.set_region(deployment.config().regions[0]);
            ctx.set_env(deployment.config().leader_fn.env());
            ctx
        })
        .collect();
    // Progress is counted by queue-depth delta, not the drain's return
    // value: a held-back batch defers with an error *after* acking its
    // eligible prefix, and that prefix must still count. A round where
    // no group consumes anything (e.g. a persistently failing store)
    // trips the stall guard instead of spinning forever.
    let mut processed = 0usize;
    let mut stalled_rounds = 0;
    while processed < writes {
        let mut consumed_this_round = 0;
        for group in 0..groups {
            let queue = deployment.leader_queues().queue(group);
            let before = queue.pending();
            let _ = leaders[group].drain_queue(&contexts[group], queue);
            consumed_this_round += before.saturating_sub(queue.pending());
        }
        processed += consumed_this_round;
        if consumed_this_round > 0 {
            stalled_rounds = 0;
        } else {
            stalled_rounds += 1;
            assert!(
                stalled_rounds < 1_000,
                "leader tier stalled at {processed}/{writes} writes"
            );
        }
    }
    assert_eq!(processed, writes, "all writes distributed");
    let virtual_time = contexts
        .iter()
        .map(|ctx| ctx.now())
        .max()
        .unwrap_or_default();
    let result = DistRunResult::new(processed, virtual_time);
    println!(
        "{groups} group(s), pipeline {}x{}: {:.1} tx/s",
        pipeline.shards, pipeline.max_batch, result.throughput_per_s
    );
    result
}

/// Replay stamp for failure messages, in the `chaos soak seed 0x…`
/// idiom: the printed seed + geometry reproduce the exact run.
fn stamp(pipeline: DistributorConfig) -> String {
    format!(
        "multi-leader gate seed {SEED:#x} shards {} batch {} writes {WRITES} provider Aws",
        pipeline.shards, pipeline.max_batch,
    )
}

#[test]
fn multi_leader_run_is_deterministic() {
    let a = run_multi_leader(2, pipeline(), 16, 8);
    let b = run_multi_leader(2, pipeline(), 16, 8);
    assert_eq!(a.virtual_time, b.virtual_time, "seeded runs reproduce");
    assert_eq!(a.writes, 16);
}

/// Four shard groups must sustain at least twice the distribution
/// throughput of one group on the same uniform write mix (one session
/// per node — N independent clients, the shape the paper's elasticity
/// argument is about). Perfect sharding would give 4×; the 2× bar
/// leaves room for queue-hash imbalance and the cross-group-safe apply
/// path's extra read-merge-write round trips.
#[test]
fn four_shard_groups_at_least_2x_one_group() {
    let one = run_multi_leader(1, pipeline(), WRITES, NODES);
    let four = run_multi_leader(4, pipeline(), WRITES, NODES);
    let speedup = four.throughput_per_s / one.throughput_per_s;
    assert!(
        speedup >= 2.0,
        "{}: expected >=2x from 4 shard groups: 1 group {:.1} tx/s vs 4 groups {:.1} tx/s ({speedup:.2}x)",
        stamp(pipeline()),
        one.throughput_per_s,
        four.throughput_per_s,
    );
}

/// More groups should keep helping (monotone through the tier widths the
/// bench profile prints).
#[test]
fn eight_groups_beat_two() {
    let two = run_multi_leader(2, pipeline(), WRITES, NODES);
    let eight = run_multi_leader(8, pipeline(), WRITES, NODES);
    assert!(
        eight.throughput_per_s > two.throughput_per_s,
        "{}: wider tier should win: 2 groups {:.1} tx/s vs 8 groups {:.1} tx/s",
        stamp(pipeline()),
        two.throughput_per_s,
        eight.throughput_per_s,
    );
}

/// The single-group path is unregressed: with `groups = 1` the leader
/// takes the exact pre-multi-leader apply path (no merge reads, no
/// high-water-mark traffic), so the PR-1 pipeline win over the
/// sequential baseline (one transaction at a time, one worker) must
/// still clear its 2x bar on this uniform mix too. (The zipf-skewed
/// original gate runs alongside in `distributor_throughput.rs`.)
#[test]
fn single_group_path_unregressed() {
    let sequential = run_multi_leader(1, DistributorConfig::new(1, 1), WRITES, NODES);
    let pipelined = run_multi_leader(1, pipeline(), WRITES, NODES);
    let speedup = pipelined.throughput_per_s / sequential.throughput_per_s;
    assert!(
        speedup >= 2.0,
        "{}: single-group pipeline regressed: sequential {:.1} tx/s vs pipeline {:.1} tx/s ({speedup:.2}x)",
        stamp(pipeline()),
        sequential.throughput_per_s,
        pipelined.throughput_per_s,
    );
}
