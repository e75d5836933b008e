//! `session_pipeline` — few sessions, each with a deep window of writes
//! outstanding (DES, closed loop).
//!
//! The same tier as `storm_mixed`, used the way lock and queue recipes
//! use it: a session's next write is due the instant its oldest
//! outstanding one completes, and consecutive paths of a session route
//! to different leader lanes. It is the only workload where a write's
//! predecessor is still in the *other* lane, so the cross-lane hold-back,
//! deferred redelivery, follower wave pipelining and the parents'
//! children rewrites are on the blocking path.

use super::{
    check_des_outputs, cloud_space_amp, cost_per_mop, set_latency, timed_setup, usage_layers,
    write_path_layers, Pass, ReadStats, RunConfig,
};
use crate::adapter::{Deliveries, Observer, Tier, WriteSpec};
use crate::des::{Completed, Engine};
use crate::gen::{RecipeGen, RecipeKind};
use crate::metrics::{peak_rss_mib, ratio, PhaseTimer, Values};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

struct Sizes {
    sessions: usize,
    window: usize,
    parents_per_lane: usize,
    watchers: usize,
    stock_ops: usize,
    measured_ops: usize,
}

impl Sizes {
    fn of(config: &RunConfig) -> Sizes {
        if config.smoke {
            return Sizes {
                sessions: 4,
                window: 8,
                parents_per_lane: 1,
                watchers: 8,
                stock_ops: 32,
                measured_ops: 64,
            };
        }
        Sizes {
            sessions: 8,
            window: 16,
            parents_per_lane: 2,
            watchers: 64,
            stock_ops: 256,
            measured_ops: 104 * config.seconds as usize,
        }
    }
}

struct Pipeline {
    engine: Engine,
    gen: RecipeGen,
    observers: Vec<Observer>,
    watchers: Vec<String>,
    /// Last state submitted per path: its data, or `None` once deleted.
    expected: BTreeMap<String, Option<Vec<u8>>>,
    /// Hot-parent `set_data`s in flight, whose completion re-arms the
    /// parent's watchers.
    rearm: HashMap<(usize, u64), String>,
    seen: Deliveries,
}

fn setup(config: &RunConfig, sizes: &Sizes, traced: bool) -> Pipeline {
    let tier = Tier::direct(config.seed, 2, 3, 16);
    let lanes = tier.lanes();
    let mut engine = Engine::new(tier, traced);
    let mut observers = Vec::new();
    for s in 0..sizes.sessions {
        let name = format!("p{s}");
        engine.add_session(&name);
        observers.push(engine.tier.observe(&name));
    }
    let watchers: Vec<String> = (0..sizes.watchers).map(|w| format!("w{w}")).collect();
    for name in &watchers {
        engine.add_session(name);
    }
    let gen = RecipeGen::new(config.seed, sizes.sessions, lanes, sizes.parents_per_lane);
    let mut pipeline = Pipeline {
        engine,
        gen,
        observers,
        watchers,
        expected: BTreeMap::new(),
        rearm: HashMap::new(),
        seen: Deliveries::default(),
    };
    let mut done = Vec::new();
    for parent in pipeline.gen.parents().to_vec() {
        let due = pipeline.engine.lanes_busy_until();
        let spec = WriteSpec::Create {
            path: parent.clone(),
            data: Vec::new(),
        };
        pipeline.engine.issue(0, due, &spec);
        pipeline.engine.drain_lanes(&mut done);
        pipeline.expected.insert(parent.clone(), Some(Vec::new()));
        arm(&mut pipeline, &parent, 0);
    }
    // Stock every session with children to delete. One write at a time,
    // so no write waits for a predecessor in the other lane: the stock is
    // set-up, not the mechanism under test.
    for k in 0..sizes.stock_ops {
        let session = k % sizes.sessions;
        let op = pipeline.gen.stock_op(session);
        let due = pipeline.engine.lanes_busy_until();
        pipeline.engine.issue(session, due, &op.write);
        pipeline.engine.drain_lanes(&mut done);
        pipeline
            .expected
            .insert(op.write.path().to_owned(), Some(op.write.data().to_vec()));
    }
    for observer in &mut pipeline.observers {
        observer.drain();
    }
    pipeline.seen = Deliveries::default();
    pipeline.engine.layers = Default::default();
    pipeline
}

/// Arms every watcher's one-shot data watch on `parent`.
fn arm(pipeline: &mut Pipeline, parent: &str, at_ns: u64) {
    let clock = pipeline.engine.clock_at(at_ns);
    for watcher in &pipeline.watchers {
        pipeline
            .engine
            .tier
            .arm_watch(&clock, parent, false, watcher);
    }
    clock.drop_spans();
}

struct Phase {
    write_ns: Vec<u64>,
    reads: ReadStats,
    kinds: [u64; 3],
    first_due_ns: u64,
    last_done_ns: u64,
}

/// Drives `ops` writes through the closed loop: every session keeps
/// `window` writes outstanding and issues its next one the instant its
/// oldest outstanding one completes.
fn closed_loop(pipeline: &mut Pipeline, sizes: &Sizes, ops: usize) -> Phase {
    let base_ns = pipeline.engine.lanes_busy_until();
    let quota = ops / sizes.sessions;
    let mut issued = vec![0usize; sizes.sessions];
    // Issue tokens: (instant, session).
    let mut tokens: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (s, issued) in issued.iter_mut().enumerate() {
        for _ in 0..sizes.window.min(quota) {
            tokens.push(Reverse((base_ns, s)));
            *issued += 1;
        }
    }
    let mut phase = Phase {
        write_ns: Vec::with_capacity(ops),
        reads: ReadStats::default(),
        kinds: [0; 3],
        first_due_ns: base_ns,
        last_done_ns: base_ns,
    };
    let mut done: Vec<Completed> = Vec::new();
    loop {
        let next_issue = tokens.peek().map(|Reverse(token)| *token);
        let next_lane = pipeline.engine.next_lane_start().map(|(start, _)| start);
        match (next_issue, next_lane) {
            (None, None) => break,
            (Some((at_ns, session)), lane) if lane.is_none_or(|start| at_ns <= start) => {
                // Everything the session has due at this instant reaches
                // its follower as one run.
                while tokens.peek() == Some(&Reverse((at_ns, session))) {
                    tokens.pop();
                    issue_one(pipeline, &mut phase, session, at_ns);
                }
                pipeline.engine.run_followers();
            }
            _ => {
                pipeline.engine.step_lane(&mut done);
                for completed in done.drain(..) {
                    phase.write_ns.push(completed.done_ns - completed.due_ns);
                    phase.last_done_ns = phase.last_done_ns.max(completed.done_ns);
                    if let Some(parent) = pipeline
                        .rearm
                        .remove(&(completed.session, completed.request_id))
                    {
                        arm(pipeline, &parent, completed.done_ns);
                    }
                    if issued[completed.session] < quota {
                        issued[completed.session] += 1;
                        tokens.push(Reverse((completed.done_ns, completed.session)));
                    }
                }
            }
        }
    }
    for observer in &mut pipeline.observers {
        pipeline.seen.add(observer.drain());
    }
    phase
}

/// One op of `session`, due at `at_ns`: the recipe's read first, if it
/// has one, then the write.
fn issue_one(pipeline: &mut Pipeline, phase: &mut Phase, session: usize, at_ns: u64) {
    let op = pipeline.gen.next_op(session);
    let mut due_ns = at_ns;
    if let Some(parent) = &op.list_first {
        let clock = pipeline.engine.clock_at(at_ns);
        let name = pipeline.engine.session_name(session).to_owned();
        let outcome = pipeline.engine.tier.read(&clock, &name, parent);
        clock.drop_spans();
        due_ns = clock.now_ns();
        phase.reads.record(due_ns - at_ns, &outcome);
    }
    let request_id = pipeline.engine.send(session, due_ns, &op.write);
    let path = op.write.path().to_owned();
    match op.kind {
        RecipeKind::Create => {
            phase.kinds[0] += 1;
            pipeline
                .expected
                .insert(path, Some(op.write.data().to_vec()));
        }
        RecipeKind::Delete => {
            phase.kinds[1] += 1;
            pipeline.expected.insert(path, None);
        }
        RecipeKind::SetData => {
            phase.kinds[2] += 1;
            pipeline
                .expected
                .insert(path.clone(), Some(op.write.data().to_vec()));
            pipeline.rearm.insert((session, request_id), path);
        }
    }
}

pub fn pass(config: &RunConfig, traced: bool) -> Pass {
    let sizes = Sizes::of(config);
    let (mut pipeline, setup_s) =
        timed_setup(if traced { 1 } else { 9 }, || setup(config, &sizes, traced));
    let mut end_to_end = Values::default();
    let mut layers = Values::default();

    let usage_before = pipeline.engine.tier.usage();
    let timer = PhaseTimer::start();
    let mut phase = closed_loop(&mut pipeline, &sizes, sizes.measured_ops);
    let (host_us, cpu_us) = timer.finish(phase.write_ns.len());
    let usage = pipeline.engine.tier.usage().since(&usage_before);
    let attempted: u64 = phase.kinds.iter().sum();
    let completed = phase.write_ns.len();
    let failed = attempted - completed as u64 + phase.reads.missing;
    let span_s = (phase.last_done_ns - phase.first_due_ns) as f64 / 1e9;
    let read_count = phase.reads.latency_ns.len();
    set_latency(
        &mut end_to_end,
        "write_p50_vms",
        "write_p99_vms",
        &mut phase.write_ns,
    );
    set_latency(
        &mut end_to_end,
        "read_p50_vms",
        "read_p99_vms",
        &mut phase.reads.latency_ns,
    );
    let goodput = ratio(completed as f64, span_s);
    end_to_end.set("goodput_ops_per_vsec", goodput);
    // A closed loop has no burst to drain: the rate its sessions sustain
    // is the capacity it sees.
    end_to_end.set("capacity_ops_per_vsec", goodput);
    end_to_end.set("cost_usd_per_mop", cost_per_mop(&usage, completed as f64));
    end_to_end.set("host_us_per_op", host_us);
    end_to_end.set("cpu_us_per_op", cpu_us);

    let deferrals = pipeline.engine.layers.leader_deferrals;
    write_path_layers(&mut layers, &mut pipeline.engine.layers);
    usage_layers(&mut layers, &usage, completed as f64, completed as f64);
    phase.reads.set_layers(&mut layers);
    layers.set(
        "notify.deliveries_per_op",
        ratio(
            (pipeline.seen.write_results + pipeline.seen.watch_events) as f64,
            completed as f64,
        ),
    );
    // The watchers have no endpoints; what fired is what was re-armed.
    layers.set(
        "watch_fn.fires_per_op",
        ratio(
            (phase.kinds[2] * sizes.watchers as u64) as f64,
            completed as f64,
        ),
    );
    layers.set("bench.generator_late_vms", 0.0);
    layers.set("bench.write_samples", completed as f64);
    layers.set("bench.measured_ops", completed as f64);
    layers.set("bench.failed_share", ratio(failed as f64, attempted as f64));

    let (violations, live_user_bytes) = check_des_outputs(
        &mut pipeline.engine,
        &pipeline.expected,
        "p0",
        &pipeline.seen,
    );
    let total_usage = pipeline.engine.tier.usage();
    end_to_end.set(
        "store_space_amp",
        cloud_space_amp(&total_usage, live_user_bytes),
    );
    end_to_end.set("peak_rss_mib", peak_rss_mib());
    end_to_end.set("setup_s", setup_s);
    let notes = vec![
        format!(
            "{} sessions x window {}, {} hot parents, {} watchers per parent",
            sizes.sessions,
            sizes.window,
            pipeline.gen.parents().len(),
            sizes.watchers
        ),
        format!(
            "{} creates and {} deletes (each after listing its parent), {} set_data; {} writes timed, {} reads timed, {deferrals} leader deferrals",
            phase.kinds[0], phase.kinds[1], phase.kinds[2], completed, read_count
        ),
    ];
    Pass {
        end_to_end,
        layers,
        attempted,
        failed,
        violations,
        notes,
        tracer: pipeline.engine.tracer.take(),
    }
}
