//! `storm_mixed` — the paper's write path under fleet traffic (DES, open
//! loop).
//!
//! Thousands of registered sessions take turns issuing a zipf-skewed mix
//! of writes, reads, check-and-set multis and cold creates against two
//! leader lanes. Phase `paced` offers the mix on an arithmetic schedule
//! below the lanes' knee and times every op from its due instant; phase
//! `burst` makes a block of the same mix due at one instant, so the
//! lanes' serial capacity reads as a continuous number.

use super::{
    check_des_outputs, cloud_space_amp, cost_per_mop, set_latency, timed_setup, usage_layers,
    write_path_layers, Pass, ReadStats, RunConfig,
};
use crate::adapter::{Deliveries, Observer, Tier, WriteSpec};
use crate::des::{Completed, Engine};
use crate::gen::{payload, StormGen};
use crate::metrics::{peak_rss_mib, ratio, PhaseTimer, Values};
use std::collections::BTreeMap;

/// Offered rate of the paced phase, in ops per virtual second: about
/// 55 % of the two lanes' knee.
const PACED_RATE: f64 = 16.0;

struct Sizes {
    sessions: usize,
    hot_nodes: u64,
    node_size: usize,
    data_watches: usize,
    subtree_watches: usize,
    observers: usize,
    warmup_ops: usize,
    paced_ops: usize,
    burst_ops: usize,
}

impl Sizes {
    fn of(config: &RunConfig) -> Sizes {
        if config.smoke {
            return Sizes {
                sessions: 96,
                hot_nodes: 32,
                node_size: 128,
                data_watches: 16,
                subtree_watches: 4,
                observers: 8,
                warmup_ops: 32,
                paced_ops: 480,
                burst_ops: 160,
            };
        }
        let seconds = config.seconds as usize;
        Sizes {
            sessions: 8192,
            hot_nodes: 256,
            node_size: 128,
            data_watches: 512,
            subtree_watches: 32,
            observers: 128,
            warmup_ops: 512,
            paced_ops: 3072 * seconds,
            burst_ops: 512 * seconds,
        }
    }
}

/// The state a measured phase runs on.
struct Storm {
    engine: Engine,
    gen: StormGen,
    observers: Vec<Observer>,
    /// Last value submitted per path.
    expected: BTreeMap<String, Option<Vec<u8>>>,
    done: Vec<Completed>,
    seen: Deliveries,
}

fn session_name(i: usize) -> String {
    format!("f{i}")
}

fn setup(config: &RunConfig, sizes: &Sizes, traced: bool) -> Storm {
    let tier = Tier::direct(config.seed, 2, 3, 16);
    let mut engine = Engine::new(tier, traced);
    for i in 0..sizes.sessions {
        engine.add_session(&session_name(i));
    }
    let mut storm = Storm {
        engine,
        gen: StormGen::new(
            config.seed,
            sizes.sessions,
            sizes.hot_nodes,
            sizes.node_size,
        ),
        observers: Vec::new(),
        expected: BTreeMap::new(),
        done: Vec::new(),
        seen: Deliveries::default(),
    };
    // Seed the hot tree through the pipeline, from session 0.
    let mut seeds = vec![("/f".to_owned(), Vec::new())];
    for node in 0..sizes.hot_nodes {
        seeds.push((
            StormGen::hot_path(node),
            payload(sizes.node_size, config.seed ^ node),
        ));
    }
    for (path, data) in seeds {
        let due = storm.engine.lanes_busy_until();
        let spec = WriteSpec::Create {
            path: path.clone(),
            data: data.clone(),
        };
        storm.engine.issue(0, due, &spec);
        storm.engine.drain_lanes(&mut storm.done);
        storm.expected.insert(path, Some(data));
    }
    for i in 0..sizes.observers {
        let observer = storm.engine.tier.observe(&session_name(i));
        storm.observers.push(observer);
    }
    let warmup = sizes.warmup_ops;
    paced(&mut storm, warmup);
    arm_herd(&mut storm, sizes);
    storm.done.clear();
    storm.seen = Deliveries::default();
    storm.engine.layers = Default::default();
    storm
}

/// Arms the one-shot watch herd: data watches on the hottest key, and a
/// subtree watch on the tree root for a sample of the same sessions.
fn arm_herd(storm: &mut Storm, sizes: &Sizes) {
    let clock = storm.engine.clock_at(0);
    let stride = (sizes.data_watches / sizes.subtree_watches.max(1)).max(1);
    for i in 0..sizes.data_watches {
        let name = session_name(i);
        storm
            .engine
            .tier
            .arm_watch(&clock, &StormGen::hot_path(0), false, &name);
        if i % stride == 0 {
            storm.engine.tier.arm_watch(&clock, "/f", true, &name);
        }
    }
    clock.drop_spans();
}

/// What one phase saw.
struct Phase {
    ops: usize,
    writes_issued: usize,
    reads: ReadStats,
    first_due_ns: u64,
    last_done_ns: u64,
}

/// Issues `ops` ops of the mix, `interarrival_ns` apart; 0 (a burst)
/// makes every op due at one instant.
fn drive(storm: &mut Storm, ops: usize, interarrival_ns: u64) -> Phase {
    let base_ns = storm.engine.lanes_busy_until();
    let mut reads = ReadStats::default();
    let mut writes_issued = 0;
    let mut last_read_done_ns = 0;
    for k in 0..ops {
        let due_ns = base_ns + k as u64 * interarrival_ns;
        storm.engine.advance_lanes(due_ns, &mut storm.done);
        let op = storm.gen.next_op();
        match &op.write {
            None => {
                let clock = storm.engine.clock_at(due_ns);
                let name = session_name(op.session);
                let outcome = storm.engine.tier.read(&clock, &name, &op.path);
                clock.drop_spans();
                reads.record(clock.now_ns() - due_ns, &outcome);
                last_read_done_ns = last_read_done_ns.max(clock.now_ns());
            }
            Some(spec) => {
                storm.engine.issue(op.session, due_ns, spec);
                writes_issued += 1;
                storm
                    .expected
                    .insert(op.path.clone(), Some(spec.data().to_vec()));
            }
        }
        // Endpoints are drained as the run goes, so they stay short.
        if (k + 1) % 2048 == 0 || k + 1 == ops {
            for observer in &mut storm.observers {
                storm.seen.add(observer.drain());
            }
        }
    }
    storm.engine.drain_lanes(&mut storm.done);
    Phase {
        ops,
        writes_issued,
        reads,
        first_due_ns: base_ns,
        last_done_ns: storm.engine.lanes_busy_until().max(last_read_done_ns),
    }
}

fn paced(storm: &mut Storm, ops: usize) -> Phase {
    drive(storm, ops, (1e9 / PACED_RATE) as u64)
}

pub fn pass(config: &RunConfig, traced: bool) -> Pass {
    let sizes = Sizes::of(config);
    let (mut storm, setup_s) =
        timed_setup(if traced { 1 } else { 5 }, || setup(config, &sizes, traced));
    let mut end_to_end = Values::default();
    let mut layers = Values::default();

    // Phase `paced`.
    let usage_before = storm.engine.tier.usage();
    let timer = PhaseTimer::start();
    let phase = paced(&mut storm, sizes.paced_ops);
    let (host_us, cpu_us) = timer.finish(phase.ops);
    let usage = storm.engine.tier.usage().since(&usage_before);
    let completed: Vec<Completed> = std::mem::take(&mut storm.done);
    let mut write_ns: Vec<u64> = completed.iter().map(|c| c.done_ns - c.due_ns).collect();
    let mut reads = phase.reads;
    let done_ops = completed.len() + reads.served();
    let span_s = (phase.last_done_ns - phase.first_due_ns) as f64 / 1e9;
    set_latency(
        &mut end_to_end,
        "write_p50_vms",
        "write_p99_vms",
        &mut write_ns,
    );
    set_latency(
        &mut end_to_end,
        "read_p50_vms",
        "read_p99_vms",
        &mut reads.latency_ns,
    );
    end_to_end.set("goodput_ops_per_vsec", ratio(done_ops as f64, span_s));
    end_to_end.set("cost_usd_per_mop", cost_per_mop(&usage, done_ops as f64));
    end_to_end.set("host_us_per_op", host_us);
    end_to_end.set("cpu_us_per_op", cpu_us);
    let mut failed = (phase.writes_issued - completed.len()) as u64 + reads.missing;
    let mut attempted = phase.ops as u64;
    let deferrals = storm.engine.layers.leader_deferrals;
    write_path_layers(&mut layers, &mut storm.engine.layers);
    usage_layers(&mut layers, &usage, done_ops as f64, completed.len() as f64);
    reads.set_layers(&mut layers);
    layers.set(
        "notify.deliveries_per_op",
        ratio(
            (storm.seen.write_results + storm.seen.watch_events) as f64,
            done_ops as f64,
        ),
    );
    layers.set(
        "watch_fn.fires_per_op",
        ratio(storm.seen.watch_events as f64, done_ops as f64),
    );
    // Arrivals are computed, not slept for: the generator is never late.
    layers.set("bench.generator_late_vms", 0.0);
    layers.set("bench.write_samples", write_ns.len() as f64);
    layers.set("bench.measured_ops", done_ops as f64);

    // Phase `burst`.
    arm_herd(&mut storm, &sizes);
    let burst_wall = std::time::Instant::now();
    let burst = drive(&mut storm, sizes.burst_ops, 0);
    let burst_wall_s = burst_wall.elapsed().as_secs_f64();
    let burst_done = storm.done.len() + burst.reads.served();
    let drain_s = (burst.last_done_ns - burst.first_due_ns) as f64 / 1e9;
    end_to_end.set("capacity_ops_per_vsec", ratio(burst_done as f64, drain_s));
    failed += (burst.writes_issued - storm.done.len()) as u64 + burst.reads.missing;
    attempted += burst.ops as u64;
    storm.done.clear();

    let (violations, live_user_bytes) =
        check_des_outputs(&mut storm.engine, &storm.expected, "f0", &storm.seen);
    let total_usage = storm.engine.tier.usage();
    end_to_end.set(
        "store_space_amp",
        cloud_space_amp(&total_usage, live_user_bytes),
    );
    end_to_end.set("peak_rss_mib", peak_rss_mib());
    end_to_end.set("setup_s", setup_s);
    layers.set("bench.failed_share", ratio(failed as f64, attempted as f64));
    let notes = vec![
        format!(
            "{} sessions, {} hot nodes x {} B, {} data + {} subtree watches, {} observers",
            sizes.sessions,
            sizes.hot_nodes,
            sizes.node_size,
            sizes.data_watches,
            sizes.subtree_watches,
            sizes.observers
        ),
        format!(
            "paced: {} ops at {PACED_RATE} ops/vsec, {} writes timed, {} reads timed, {} leader deferrals",
            phase.ops,
            write_ns.len(),
            reads.latency_ns.len(),
            deferrals
        ),
        format!(
            "burst: {} ops due at one instant, drained in {drain_s:.1} vsec ({burst_wall_s:.1} s of wall clock)",
            burst.ops
        ),
    ];
    Pass {
        end_to_end,
        layers,
        attempted,
        failed,
        violations,
        notes,
        tracer: storm.engine.tracer.take(),
    }
}
