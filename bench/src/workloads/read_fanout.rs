//! `read_fanout` — the read path as shipped (threaded runtime, closed
//! loop).
//!
//! A live deployment and real `FkClient` sessions with small private
//! read caches over a tree far larger than a cache and resident in the
//! read replica. One driver thread round-robins the sessions, one
//! blocking call at a time. The 5 % of writes through the same sessions
//! expose a read-side gain that is paid for in invalidation or replica
//! feeding; every write-path optimisation is bypassed.

use super::{
    cloud_space_amp, cost_per_mop, set_latency, timed_setup, usage_layers, Pass, RunConfig,
};
use crate::adapter::{codec_ns, Runtime, Session};
use crate::gen::{read_tag, tagged_payload, FanoutGen, FanoutOp};
use crate::metrics::{peak_rss_mib, ratio, PhaseTimer, Values};
use crate::trace::{ClockKind, Tracer};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Session names; the sizes never ask for more.
const CLIENTS: [&str; 8] = [
    "rf-0", "rf-1", "rf-2", "rf-3", "rf-4", "rf-5", "rf-6", "rf-7",
];

struct Sizes {
    clients: usize,
    cache_entries: usize,
    parents: usize,
    children: usize,
    node_size: usize,
    warmup_ops: usize,
    measured_ops: usize,
}

impl Sizes {
    fn of(config: &RunConfig) -> Sizes {
        if config.smoke {
            return Sizes {
                clients: 4,
                cache_entries: 16,
                parents: 4,
                children: 32,
                node_size: 1024,
                warmup_ops: 256,
                measured_ops: 4000,
            };
        }
        Sizes {
            clients: 8,
            cache_entries: 128,
            parents: 16,
            children: 256,
            node_size: 1024,
            warmup_ops: 8192,
            measured_ops: 12_000 * config.seconds as usize,
        }
    }
}

struct Fanout {
    /// Declared before the runtime: sessions close through the live
    /// pipeline, so they must go first.
    clients: Vec<Session>,
    runtime: Runtime,
    gen: FanoutGen,
    /// Tag of the last acked write per node (0: still the seeded value).
    latest: Vec<u64>,
    /// Every `(node, tag)` an acked write produced.
    written: HashSet<(usize, u64)>,
    /// Highest mzxid each client has seen per node.
    seen_mzxid: Vec<Vec<u64>>,
}

fn setup(config: &RunConfig, sizes: &Sizes) -> Fanout {
    let runtime = Runtime::start(config.seed, sizes.cache_entries);
    let gen = FanoutGen::new(config.seed, sizes.parents, sizes.children, sizes.node_size);
    let nodes = sizes.parents * sizes.children;
    {
        let seeder = runtime.connect("rf-seeder");
        for parent in 0..sizes.parents {
            seeder.create(&FanoutGen::parent_path(parent), &[]);
        }
        for node in 0..nodes {
            seeder.create(&gen.node_path(node), &gen.initial_data(node));
        }
        seeder.drop_spans();
    }
    let clients = (0..sizes.clients)
        .map(|c| runtime.connect(CLIENTS[c]))
        .collect();
    let mut fanout = Fanout {
        runtime,
        clients,
        gen,
        latest: vec![0; nodes],
        written: HashSet::new(),
        seen_mzxid: vec![vec![0; nodes]; sizes.clients],
    };
    let mut scratch = Measured::default();
    drive(&mut fanout, sizes.warmup_ops, &mut scratch, None);
    fanout
}

#[derive(Default)]
struct Measured {
    read_ns: Vec<u64>,
    write_ns: Vec<u64>,
    read_host: Duration,
    write_host: Duration,
    classes: [u64; 4],
    failed: u64,
    violations: Vec<String>,
    watch_events: u64,
}

impl Measured {
    fn violation(&mut self, text: String) {
        // The first few say what went wrong; the count says how often.
        if self.violations.len() < 8 {
            self.violations.push(text);
        }
        self.failed += 1;
    }
}

/// Checks one read of `node` by client `c`: the payload is one an acked
/// write (or the seeding) produced, and the client's view of the node
/// never goes back in time.
fn check_read(
    fanout: &mut Fanout,
    out: &mut Measured,
    c: usize,
    node: usize,
    data: &[u8],
    mzxid: u64,
) {
    let valid = read_tag(data).is_some_and(|(named, tag)| {
        named == node as u64
            && (tag == 0 || fanout.written.contains(&(node, tag)))
            && data == tagged_payload(data.len(), named, tag).as_slice()
    });
    if !valid {
        out.violation(format!(
            "client {c} read a value of node {node} no acked write produced"
        ));
    }
    let seen = &mut fanout.seen_mzxid[c][node];
    if mzxid < *seen {
        out.violation(format!(
            "client {c} saw node {node} go back from mzxid {seen} to {mzxid}"
        ));
    }
    *seen = mzxid.max(*seen);
}

fn drive(fanout: &mut Fanout, ops: usize, out: &mut Measured, mut tracer: Option<&mut Tracer>) {
    const CALLS: [&str; 4] = [
        "client.get_data",
        "client.exists",
        "client.get_children",
        "client.set_data",
    ];
    let epoch = Instant::now();
    for k in 0..ops {
        let c = k % fanout.clients.len();
        let op = fanout.gen.next_op();
        let class = op.class();
        out.classes[class] += 1;
        let before_ns = fanout.clients[c].elapsed_ns();
        let is_write = matches!(op, FanoutOp::SetData { .. });
        let host_start = epoch.elapsed();
        let host = Instant::now();
        match op {
            FanoutOp::GetData { node, watch } => {
                let path = fanout.gen.node_path(node);
                let result = fanout.clients[c].get_data(&path, watch);
                out.read_host += host.elapsed();
                match result {
                    Some((data, mzxid)) => check_read(fanout, out, c, node, &data, mzxid),
                    None => out.violation(format!("get_data {path} failed")),
                }
            }
            FanoutOp::Exists { node } => {
                let path = fanout.gen.node_path(node);
                let result = fanout.clients[c].exists(&path);
                out.read_host += host.elapsed();
                match result {
                    Ok(Some(mzxid)) => {
                        let seen = &mut fanout.seen_mzxid[c][node];
                        if mzxid < *seen {
                            out.violation(format!("client {c} saw node {node} go back in time"));
                        }
                        *seen = mzxid.max(*seen);
                    }
                    other => out.violation(format!("exists {path} returned {other:?}")),
                }
            }
            FanoutOp::ExistsAbsent { path } => {
                let result = fanout.clients[c].exists(&path);
                out.read_host += host.elapsed();
                if result != Ok(None) {
                    out.violation(format!("exists {path} returned {result:?}"));
                }
            }
            FanoutOp::GetChildren { parent } => {
                let path = FanoutGen::parent_path(parent);
                let result = fanout.clients[c].get_children(&path);
                out.read_host += host.elapsed();
                if result != Some(fanout.gen.children_per_parent) {
                    out.violation(format!("get_children {path} returned {result:?}"));
                }
            }
            FanoutOp::SetData { node, data, tag } => {
                let path = fanout.gen.node_path(node);
                let result = fanout.clients[c].set_data(&path, &data);
                out.write_host += host.elapsed();
                match result {
                    Some(mzxid) => {
                        fanout.latest[node] = tag;
                        fanout.written.insert((node, tag));
                        let seen = &mut fanout.seen_mzxid[c][node];
                        *seen = mzxid.max(*seen);
                    }
                    None => out.violation(format!("set_data {path} failed")),
                }
            }
        }
        let host_ns = host.elapsed().as_nanos() as u64;
        let call_ns = fanout.clients[c].elapsed_ns() - before_ns;
        if let Some(tracer) = tracer.as_deref_mut() {
            let request = (tracer.session(CLIENTS[c]), k as u64);
            let id = tracer.span(
                0,
                request,
                CALLS[class],
                ClockKind::Virtual,
                before_ns,
                before_ns + call_ns,
            );
            // The host extent includes the harness's own output check.
            let start = host_start.as_nanos() as u64;
            tracer.span(id, request, "host", ClockKind::Host, start, start + host_ns);
        }
        if is_write {
            out.write_ns.push(call_ns);
        } else {
            out.read_ns.push(call_ns);
        }
        fanout.clients[c].drop_spans();
        // Event streams are drained as the run goes, so they stay short.
        if (k + 1) % 4096 == 0 || k + 1 == ops {
            for client in &fanout.clients {
                out.watch_events += client.drain_watch_events();
            }
        }
    }
}

pub fn pass(config: &RunConfig, traced: bool) -> Pass {
    let sizes = Sizes::of(config);
    let (mut fanout, setup_s) = timed_setup(if traced { 1 } else { 3 }, || setup(config, &sizes));
    let mut end_to_end = Values::default();
    let mut layers = Values::default();

    let usage_before = fanout.runtime.usage();
    let clocks_before: Vec<u64> = fanout.clients.iter().map(Session::elapsed_ns).collect();
    let cache_before: Vec<(u64, u64, u64)> =
        fanout.clients.iter().map(Session::cache_counts).collect();
    let replica_before = fanout.runtime.replica_counts(CLIENTS[0]);
    let mut measured = Measured::default();
    let mut tracer = traced.then(Tracer::new);
    let timer = PhaseTimer::start();
    drive(
        &mut fanout,
        sizes.measured_ops,
        &mut measured,
        tracer.as_mut(),
    );
    let (host_us, cpu_us) = timer.finish(sizes.measured_ops);
    let usage = fanout.runtime.usage().since(&usage_before);
    let ops = sizes.measured_ops as f64;
    let span_ns = fanout
        .clients
        .iter()
        .zip(&clocks_before)
        .map(|(client, before)| client.elapsed_ns() - before)
        .max()
        .unwrap_or(0);
    let reads = measured.read_ns.len();
    let writes = measured.write_ns.len();
    set_latency(
        &mut end_to_end,
        "write_p50_vms",
        "write_p99_vms",
        &mut measured.write_ns,
    );
    set_latency(
        &mut end_to_end,
        "read_p50_vms",
        "read_p99_vms",
        &mut measured.read_ns,
    );
    let goodput = ratio(ops - measured.failed as f64, span_ns as f64 / 1e9);
    end_to_end.set("goodput_ops_per_vsec", goodput);
    // A closed loop has no burst to drain: the rate its sessions sustain
    // is the capacity it sees.
    end_to_end.set("capacity_ops_per_vsec", goodput);
    end_to_end.set("cost_usd_per_mop", cost_per_mop(&usage, ops));
    end_to_end.set("host_us_per_op", host_us);
    end_to_end.set("cpu_us_per_op", cpu_us);

    layers.set(
        "client.read_host_us",
        ratio(measured.read_host.as_secs_f64() * 1e6, reads as f64),
    );
    layers.set(
        "client.write_host_us",
        ratio(measured.write_host.as_secs_f64() * 1e6, writes as f64),
    );
    let (mut hits, mut misses, mut coalesced) = (0u64, 0u64, 0u64);
    for (client, before) in fanout.clients.iter().zip(&cache_before) {
        let now = client.cache_counts();
        hits += now.0 - before.0;
        misses += now.1 - before.1;
        coalesced += now.2 - before.2;
    }
    let lookups = (hits + misses + coalesced) as f64;
    layers.set("read_cache.hit_ratio", ratio(hits as f64, lookups));
    layers.set(
        "read_cache.coalesced_ratio",
        ratio(coalesced as f64, lookups),
    );
    let replica_now = fanout.runtime.replica_counts(CLIENTS[0]);
    let replica_hits = replica_now.0 - replica_before.0;
    let replica_misses = replica_now.1 - replica_before.1;
    layers.set(
        "replica.hit_ratio",
        ratio(replica_hits as f64, (replica_hits + replica_misses) as f64),
    );
    usage_layers(&mut layers, &usage, ops, writes as f64);
    layers.set(
        "notify.deliveries_per_op",
        ratio((writes as u64 + measured.watch_events) as f64, ops),
    );
    layers.set(
        "watch_fn.fires_per_op",
        ratio(measured.watch_events as f64, ops),
    );
    layers.set("bench.write_samples", writes as f64);
    layers.set("bench.read_samples", reads as f64);
    layers.set("bench.measured_ops", ops);
    layers.set("bench.failed_share", ratio(measured.failed as f64, ops));

    // Output check: storage holds the last acked value of every sampled
    // node.
    let nodes = fanout.latest.len();
    let stride = (nodes / 512).max(1);
    let mut finals = Vec::new();
    for node in (0..nodes).step_by(stride) {
        let path = fanout.gen.node_path(node);
        let want = tagged_payload(sizes.node_size, node as u64, fanout.latest[node]);
        match fanout.runtime.stored(&path) {
            Some(stored) if stored == want => finals.push((path, stored)),
            _ => measured
                .violations
                .push(format!("convergence: {path} is not its last acked value")),
        }
    }
    let (encode_ns, decode_ns) = codec_ns(&finals, 8);
    layers.set("codec.encode_node_host_ns", encode_ns);
    layers.set("codec.decode_node_host_ns", decode_ns);
    let total_usage = fanout.runtime.usage();
    if total_usage.retries > 0 {
        measured.violations.push(format!(
            "{} retries on a fault-free run",
            total_usage.retries
        ));
    }
    end_to_end.set(
        "store_space_amp",
        cloud_space_amp(&total_usage, (nodes * sizes.node_size) as u64),
    );
    end_to_end.set("setup_s", setup_s);
    let notes = vec![
        format!(
            "{} sessions with {}-entry caches over {} parents x {} children x {} B",
            sizes.clients, sizes.cache_entries, sizes.parents, sizes.children, sizes.node_size
        ),
        format!(
            "{} get_data, {} exists, {} get_children, {} set_data; {} reads timed, {} writes timed",
            measured.classes[0],
            measured.classes[1],
            measured.classes[2],
            measured.classes[3],
            reads,
            writes
        ),
    ];
    drop(fanout);
    end_to_end.set("peak_rss_mib", peak_rss_mib());
    Pass {
        end_to_end,
        layers,
        attempted: sizes.measured_ops as u64,
        failed: measured.failed,
        violations: measured.violations,
        notes,
        tracer,
    }
}
