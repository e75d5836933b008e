//! The four workloads. Each sets itself up, warms up, measures, checks
//! its outputs and reports either the end-to-end metrics (untraced) or
//! the per-layer metrics (traced, after an untraced pass that gives the
//! tracing overhead).

pub mod durable_store;
pub mod read_fanout;
pub mod session_pipeline;
pub mod storm_mixed;

use crate::adapter::{price, Deliveries, ReadOutcome, Usage};
use crate::des::{Engine, WriteLayers};
use crate::metrics::{median, ns_to_ms, percentile, ratio, Report, Values};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What the command line asks of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    pub seed: u64,
    /// Target length of the measured phase; the op counts are a pure
    /// function of it, so modeled metrics repeat for one seed.
    pub seconds: u64,
    pub traced: bool,
    /// About 1 % of the sizes, for the tests.
    pub smoke: bool,
    /// Where a traced run writes its spans.
    pub results_dir: PathBuf,
}

/// What one pass (set-up, warm-up, measured phases, checks) produced.
pub struct Pass {
    pub end_to_end: Values,
    pub layers: Values,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub notes: Vec<String>,
    pub tracer: Option<Tracer>,
}

/// Runs `workload` as `config` asks.
pub fn run(workload: &'static str, config: &RunConfig) -> Report {
    let pass = |traced: bool| match workload {
        "storm_mixed" => storm_mixed::pass(config, traced),
        "session_pipeline" => session_pipeline::pass(config, traced),
        "read_fanout" => read_fanout::pass(config, traced),
        "durable_store" => durable_store::pass(config, traced),
        other => panic!("unknown workload {other}"),
    };
    let untraced = pass(false);
    if !config.traced {
        return report(workload, config, untraced, false);
    }
    // The traced pass repeats the workload with the harness's spans on;
    // the difference in host time per op is what tracing costs.
    let mut traced = pass(true);
    let base = untraced.end_to_end.get("host_us_per_op").unwrap_or(0.0);
    let with_spans = traced.end_to_end.get("host_us_per_op").unwrap_or(0.0);
    traced
        .layers
        .set("bench.trace_overhead_share", ratio(with_spans - base, base));
    if let Some(tracer) = traced.tracer.take() {
        if let Some(gap) = tracer.max_hop_gap() {
            traced.notes.push(format!(
                "hops sum to each write's latency within {:.4} %",
                gap * 100.0
            ));
            if gap > 0.01 {
                traced
                    .violations
                    .push("a write's hops do not sum to its latency".to_owned());
            }
        }
        let path = config.results_dir.join(format!("{workload}.spans.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => traced.notes.push(format!(
                "{} spans in {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => traced
                .violations
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }
    traced.violations.extend(untraced.violations);
    traced.failed += untraced.failed;
    report(workload, config, traced, true)
}

fn report(workload: &'static str, config: &RunConfig, pass: Pass, traced: bool) -> Report {
    Report {
        workload,
        seed: config.seed,
        seconds: config.seconds,
        traced,
        attempted: pass.attempted,
        failed: pass.failed,
        violations: pass.violations,
        values: if traced { pass.layers } else { pass.end_to_end },
        notes: pass.notes,
    }
}

/// Runs `setup` `times` times and returns the last result with the
/// median wall time of one set-up, in seconds.
pub fn timed_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        // The previous set-up is gone before the next is built, so the
        // peak resident set is one set-up's.
        drop(last.take());
        let wall = Instant::now();
        last = Some(setup());
        seconds.push(wall.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&mut seconds))
}

/// Sets the two percentiles of a latency class, in virtual ms.
pub fn set_latency(
    values: &mut Values,
    p50: &'static str,
    p99: &'static str,
    samples_ns: &mut [u64],
) {
    values.set(p50, ns_to_ms(percentile(samples_ns, 50.0)));
    values.set(p99, ns_to_ms(percentile(samples_ns, 99.0)));
}

/// Layer rows every workload on the cloud services shares: what the
/// meter saw over the measured phase, per op.
pub fn usage_layers(values: &mut Values, usage: &Usage, ops: f64, writes: f64) {
    values.set("user_store.gets_per_op", ratio(usage.obj_gets as f64, ops));
    values.set("user_store.puts_per_op", ratio(usage.obj_puts as f64, ops));
    values.set("user_store.bytes_stored", usage.obj_bytes_stored as f64);
    values.set(
        "distributor.user_writes_per_op",
        ratio(usage.obj_puts as f64, writes),
    );
    values.set("queue.msgs_per_op", ratio(usage.queue_messages as f64, ops));
    values.set("queue.dead_letters", usage.queue_dead_letters as f64);
    values.set(
        "system_store.kv_requests_per_op",
        ratio(usage.kv_ops as f64, ops),
    );
    values.set(
        "system_store.kv_write_units_per_op",
        ratio(usage.kv_write_units as f64, ops),
    );
    values.set(
        "system_store.kv_read_units_per_op",
        ratio(usage.kv_read_units, ops),
    );
    let transact_items = usage.per_op.get("kv_transact_items").copied().unwrap_or(0);
    values.set(
        "system_store.transact_items_per_op",
        ratio(transact_items as f64, ops),
    );
    values.set(
        "faas.invocations_per_op",
        ratio(usage.fn_invocations as f64, ops),
    );
    values.set("faas.gb_seconds_per_op", ratio(usage.fn_gb_seconds, ops));
    values.set("retry.retries_per_op", ratio(usage.retries as f64, ops));
    let cost = price(usage);
    let total = cost.total();
    values.set("cost.queue_share", ratio(cost.queue, total));
    values.set("cost.kv_share", ratio(cost.kv, total));
    values.set("cost.object_share", ratio(cost.object, total));
    values.set("cost.functions_share", ratio(cost.functions, total));
}

/// USD per million ops for what the meter saw.
pub fn cost_per_mop(usage: &Usage, ops: f64) -> f64 {
    ratio(price(usage).total() * 1e6, ops)
}

/// Bytes the cloud stores hold per byte of live user data.
pub fn cloud_space_amp(usage: &Usage, live_user_bytes: u64) -> f64 {
    ratio(
        (usage.obj_bytes_stored + usage.kv_bytes_stored) as f64,
        live_user_bytes as f64,
    )
}

/// Layer rows of the DES write path, per completed write.
pub fn write_path_layers(values: &mut Values, layers: &mut WriteLayers) {
    let writes = layers.leader_completed as f64;
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    values.set(
        "client.submit_host_us",
        ratio(us(layers.submit_host), layers.submits as f64),
    );
    values.set(
        "client.request_bytes",
        ratio(layers.request_bytes as f64, layers.submits as f64),
    );
    values.set(
        "queue.write_wait_p50_vms",
        ns_to_ms(percentile(&mut layers.write_wait_ns, 50.0)),
    );
    values.set(
        "queue.leader_wait_p50_vms",
        ns_to_ms(percentile(&mut layers.leader_wait_ns, 50.0)),
    );
    values.set(
        "queue.leader_wait_p99_vms",
        ns_to_ms(percentile(&mut layers.leader_wait_ns, 99.0)),
    );
    values.set(
        "queue.follower_batch_msgs",
        ratio(
            layers.follower_msgs as f64,
            layers.follower_invocations as f64,
        ),
    );
    values.set(
        "queue.leader_batch_msgs",
        ratio(
            layers.leader_delivered as f64,
            layers.leader_invocations as f64,
        ),
    );
    let redelivered = (layers.leader_delivered - layers.leader_completed)
        + layers.follower_failed_msgs
        + layers.follower_deferred_msgs;
    values.set(
        "queue.redelivered_per_op",
        ratio(redelivered as f64, writes),
    );
    values.set("queue.ops_host_us", ratio(us(layers.queue_host), writes));
    let follower_msgs = layers.follower_msgs as f64;
    values.set(
        "follower.host_us_per_msg",
        ratio(us(layers.follower_host), follower_msgs),
    );
    values.set(
        "follower.vms_per_msg",
        ratio(ns_to_ms(layers.follower_vns), follower_msgs),
    );
    for (name, label) in [
        ("follower.lock_vms", "lock_node"),
        ("follower.validate_vms", "validate"),
        ("follower.alloc_txid_vms", "alloc_txid"),
        ("follower.commit_vms", "commit"),
        ("follower.push_vms", "push_to_leader"),
    ] {
        values.set(
            name,
            ratio(ns_to_ms(layers.follower_phases.get(label)), follower_msgs),
        );
    }
    values.set("follower.failed_msgs", layers.follower_failed_msgs as f64);
    values.set(
        "follower.deferred_msgs",
        layers.follower_deferred_msgs as f64,
    );
    let delivered = layers.leader_delivered as f64;
    values.set(
        "leader.host_us_per_msg",
        ratio(us(layers.leader_host), delivered),
    );
    // Serial lane time per completed write: what bounds capacity.
    values.set(
        "leader.vms_per_msg",
        ratio(ns_to_ms(layers.leader_vns), writes),
    );
    values.set(
        "leader.invocations_per_op",
        ratio(layers.leader_invocations as f64, writes),
    );
    values.set("leader.deferrals", layers.leader_deferrals as f64);
    values.set("leader.useful_ratio", ratio(writes, delivered));
    values.set(
        "leader.deferred_invoke_host_us",
        us(layers.leader_deferred_host),
    );
    for (name, label) in [
        ("leader.get_node_vms", "get_node"),
        ("leader.commit_vms", "commit"),
        ("leader.notify_vms", "notify_client"),
        ("leader.query_watches_vms", "query_watches"),
        ("leader.marks_vms", "advance_session_marks"),
        ("leader.pop_vms", "pop_updates"),
        ("distributor.update_vms_per_op", "update_user_storage"),
    ] {
        values.set(
            name,
            ratio(ns_to_ms(layers.leader_phases.get(label)), writes),
        );
    }
}

/// The reads a DES workload issues itself: replica first, backing
/// storage otherwise.
#[derive(Default)]
pub struct ReadStats {
    pub latency_ns: Vec<u64>,
    /// Reads of a node that should exist and did not.
    pub missing: u64,
    from_replica: u64,
    store_reads: u64,
    host_replica: Duration,
    host_store: Duration,
}

impl ReadStats {
    pub fn record(&mut self, latency_ns: u64, outcome: &ReadOutcome) {
        self.latency_ns.push(latency_ns);
        self.missing += u64::from(outcome.data.is_none());
        self.host_replica += outcome.host_replica;
        if outcome.from_replica {
            self.from_replica += 1;
        } else {
            self.store_reads += 1;
            self.host_store += outcome.host_store;
        }
    }

    /// Reads that returned their node.
    pub fn served(&self) -> usize {
        self.latency_ns.len() - self.missing as usize
    }

    pub fn set_layers(&self, values: &mut Values) {
        let reads = self.latency_ns.len() as f64;
        values.set("replica.hit_ratio", ratio(self.from_replica as f64, reads));
        values.set(
            "replica.serve_host_us",
            ratio(self.host_replica.as_secs_f64() * 1e6, reads),
        );
        values.set(
            "user_store.read_host_us",
            ratio(self.host_store.as_secs_f64() * 1e6, self.store_reads as f64),
        );
        values.set("bench.read_samples", reads);
    }
}

/// The output checks every DES workload ends with: Z1 tree integrity,
/// ack accounting, last-acked-state convergence and replica agreement on
/// a sample of at least 512 paths, result order on the observed
/// sessions, and no retries. `expected` holds the last state submitted
/// per path (`None`: deleted); writes to one path share a lane, so the
/// last submitted is the last applied. Returns the violations and the
/// live user bytes.
pub fn check_des_outputs(
    engine: &mut Engine,
    expected: &BTreeMap<String, Option<Vec<u8>>>,
    reader: &str,
    seen: &Deliveries,
) -> (Vec<String>, u64) {
    let clock = engine.clock_at(0);
    let mut violations = engine.tier.integrity(&clock);
    if engine.in_flight() > 0 {
        let dead = engine.tier.dead_letters().len();
        violations.push(format!(
            "ack accounting: {} writes neither completed nor dead-lettered ({dead} dead)",
            engine.in_flight().saturating_sub(dead)
        ));
    }
    let stride = (expected.len() / 640).max(1);
    let mut live_user_bytes = 0u64;
    for (i, (path, value)) in expected.iter().enumerate() {
        live_user_bytes += value.as_ref().map_or(0, |v| v.len() as u64);
        if i % stride != 0 {
            continue;
        }
        let stored = engine.tier.stored(&clock, path);
        if stored != *value {
            violations.push(format!("convergence: {path} is not its last acked state"));
        }
        if let Some(served) = engine.tier.replica_view(&clock, reader, path) {
            if Some(&served) != stored.as_ref() {
                violations.push(format!("replica: {path} diverged from storage"));
            }
        }
    }
    if seen.order_violations > 0 || seen.failed_results > 0 {
        violations.push(format!(
            "observed sessions: {} results out of order, {} failed results",
            seen.order_violations, seen.failed_results
        ));
    }
    let retries = engine.tier.usage().retries;
    if retries > 0 {
        violations.push(format!("{retries} retries on a fault-free run"));
    }
    (violations, live_user_bytes)
}
