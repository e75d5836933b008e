//! Metric names and units, the result of one run, and the small
//! statistics the workloads share.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// `(name, unit)` of every end-to-end metric, in the order
/// `BENCHMARK.json` lists them. Every workload reports every one.
pub const END_TO_END: [(&str, &str); 12] = [
    ("write_p50_vms", "vms"),
    ("write_p99_vms", "vms"),
    ("read_p50_vms", "vms"),
    ("read_p99_vms", "vms"),
    ("goodput_ops_per_vsec", "ops/vsec"),
    ("capacity_ops_per_vsec", "ops/vsec"),
    ("cost_usd_per_mop", "usd/Mop"),
    ("host_us_per_op", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mib", "MiB"),
    ("store_space_amp", "ratio"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric. A layer a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 78] = [
    ("client.submit_host_us", "us"),
    ("client.request_bytes", "B"),
    ("client.read_host_us", "us"),
    ("client.write_host_us", "us"),
    ("read_cache.hit_ratio", "ratio"),
    ("read_cache.coalesced_ratio", "ratio"),
    ("replica.hit_ratio", "ratio"),
    ("replica.serve_host_us", "us"),
    ("user_store.read_host_us", "us"),
    ("user_store.gets_per_op", "count"),
    ("user_store.puts_per_op", "count"),
    ("user_store.bytes_stored", "B"),
    ("queue.write_wait_p50_vms", "vms"),
    ("queue.leader_wait_p50_vms", "vms"),
    ("queue.leader_wait_p99_vms", "vms"),
    ("queue.follower_batch_msgs", "count"),
    ("queue.leader_batch_msgs", "count"),
    ("queue.msgs_per_op", "count"),
    ("queue.redelivered_per_op", "count"),
    ("queue.dead_letters", "count"),
    ("queue.ops_host_us", "us"),
    ("follower.host_us_per_msg", "us"),
    ("follower.vms_per_msg", "vms"),
    ("follower.lock_vms", "vms"),
    ("follower.validate_vms", "vms"),
    ("follower.alloc_txid_vms", "vms"),
    ("follower.commit_vms", "vms"),
    ("follower.push_vms", "vms"),
    ("follower.failed_msgs", "count"),
    ("follower.deferred_msgs", "count"),
    ("leader.host_us_per_msg", "us"),
    ("leader.vms_per_msg", "vms"),
    ("leader.invocations_per_op", "count"),
    ("leader.deferrals", "count"),
    ("leader.useful_ratio", "ratio"),
    ("leader.deferred_invoke_host_us", "us"),
    ("leader.get_node_vms", "vms"),
    ("leader.commit_vms", "vms"),
    ("leader.notify_vms", "vms"),
    ("leader.query_watches_vms", "vms"),
    ("leader.marks_vms", "vms"),
    ("leader.pop_vms", "vms"),
    ("distributor.update_vms_per_op", "vms"),
    ("distributor.user_writes_per_op", "count"),
    ("system_store.kv_requests_per_op", "count"),
    ("system_store.kv_write_units_per_op", "count"),
    ("system_store.kv_read_units_per_op", "count"),
    ("system_store.transact_items_per_op", "count"),
    ("notify.deliveries_per_op", "count"),
    ("watch_fn.fires_per_op", "count"),
    ("faas.invocations_per_op", "count"),
    ("faas.gb_seconds_per_op", "GB-s"),
    ("cost.queue_share", "ratio"),
    ("cost.kv_share", "ratio"),
    ("cost.object_share", "ratio"),
    ("cost.functions_share", "ratio"),
    ("retry.retries_per_op", "count"),
    ("codec.encode_node_host_ns", "ns"),
    ("codec.decode_node_host_ns", "ns"),
    ("store.write_batch_host_us", "us"),
    ("store.read_host_us", "us"),
    ("store.scan_host_us", "us"),
    ("store.stall_max_host_us", "us"),
    ("store.write_amp", "ratio"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.syncs_per_batch", "count"),
    ("sst.read_at_calls_per_get", "count"),
    ("sst.read_bytes_per_get", "B"),
    ("lsm.flushes", "count"),
    ("lsm.compactions", "count"),
    ("lsm.l0_files", "count"),
    ("compaction.bytes_per_user_byte", "ratio"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.generator_late_vms", "vms"),
    ("bench.failed_share", "ratio"),
    ("bench.write_samples", "count"),
    ("bench.read_samples", "count"),
    ("bench.measured_ops", "count"),
];

/// The four workloads, in run order.
pub const WORKLOADS: [&str; 4] = [
    "storm_mixed",
    "session_pipeline",
    "read_fanout",
    "durable_store",
];

/// Named values of one kind (end-to-end or per-layer).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} is not a finite number: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Checks the values against a metric table: every listed metric is
    /// set and nothing else is. Unset per-layer metrics read 0.
    fn complete(
        &self,
        table: &[(&'static str, &'static str)],
        default_zero: bool,
    ) -> Vec<(&'static str, &'static str, f64)> {
        for name in self.0.keys() {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is not in the metric table"
            );
        }
        table
            .iter()
            .map(|&(name, unit)| {
                let value = match self.0.get(name) {
                    Some(v) => *v,
                    None if default_zero => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                (name, unit, value)
            })
            .collect()
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Operations attempted and failed over the measured phases.
    pub attempted: u64,
    pub failed: u64,
    /// Output-check misses; the run is incorrect unless empty.
    pub violations: Vec<String>,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub values: Values,
    /// Free-form facts about the run (sizes, policy).
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    fn rows(&self) -> Vec<(&'static str, &'static str, f64)> {
        if self.traced {
            self.values.complete(&PER_LAYER, true)
        } else {
            self.values.complete(&END_TO_END, false)
        }
    }

    /// The result line of the builder contract: exactly `correct`,
    /// `attempted`, `failed`, `metrics`.
    pub fn contract_json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
        .expect("string write");
        for (i, (name, unit, value)) in self.rows().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
            .expect("string write");
        }
        out.push_str("}}");
        out
    }

    /// Every metric by name with its unit, one per line.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let kind = if self.traced {
            "per-layer"
        } else {
            "end-to-end"
        };
        writeln!(
            out,
            "# {} seed={} seconds={} ({kind}; attempted {} failed {})",
            self.workload, self.seed, self.seconds, self.attempted, self.failed
        )
        .expect("string write");
        for note in &self.notes {
            writeln!(out, "#   {note}").expect("string write");
        }
        for (name, unit, value) in self.rows() {
            writeln!(out, "{name:<42} {:>16} {unit}", number(value)).expect("string write");
        }
        for violation in &self.violations {
            writeln!(out, "VIOLATION {violation}").expect("string write");
        }
        out
    }
}

/// A JSON number with all the digits the value has.
pub fn number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

// ----------------------------------------------------------------------
// Statistics
// ----------------------------------------------------------------------

/// Nearest-rank percentile of `samples` (sorted in place); 0 when empty.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

// ----------------------------------------------------------------------
// Host clocks
// ----------------------------------------------------------------------

/// User + system CPU time of this process, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line, in clock ticks (100 Hz on
    // every Linux this runs on).
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host time of a measured phase: wall and process CPU time per op.
///
/// Both are totals over the phase. A median over chunks of the phase was
/// tried and dropped: per-op cost trends within a phase (`storm_mixed`'s
/// children list grows), so a chunk median hangs on the two middle
/// chunks and is noisier than the mean, and on this box the noise is
/// between runs, not within one.
pub struct PhaseTimer {
    wall_started: Instant,
    cpu_started: f64,
}

impl PhaseTimer {
    pub fn start() -> PhaseTimer {
        PhaseTimer {
            wall_started: Instant::now(),
            cpu_started: cpu_seconds(),
        }
    }

    /// `(host_us_per_op, cpu_us_per_op)` of a phase of `ops` operations.
    pub fn finish(self, ops: usize) -> (f64, f64) {
        let wall = self.wall_started.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - self.cpu_started;
        (ratio(wall * 1e6, ops as f64), ratio(cpu * 1e6, ops as f64))
    }
}
