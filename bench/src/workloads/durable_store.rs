//! `durable_store` — the embedded LSM engine on its own (single client,
//! closed loop).
//!
//! Through the full pipeline the engine's cost hides under the function
//! bodies; here the durable user store is driven directly, over a device
//! that counts every call and byte. Phase `load` fills the store to many
//! memtables' worth; phase `mixed` (measured) reads, overwrites, deletes
//! and re-creates, and scans until compaction has run many cycles. Read,
//! write and space cost trade against each other, so all three are
//! reported.

use super::{set_latency, timed_setup, Pass, RunConfig};
use crate::adapter::{codec_ns, vm_rent_usd, DeviceCounts, Durable};
use crate::gen::{payload, StoreGen, StoreOp};
use crate::metrics::{peak_rss_mib, ratio, PhaseTimer, Values};
use crate::trace::{ClockKind, Tracer};
use std::time::{Duration, Instant};

struct Sizes {
    keys: usize,
    children_per_parent: usize,
    value_size: usize,
    batch: usize,
    measured_ops: usize,
}

impl Sizes {
    fn of(config: &RunConfig) -> Sizes {
        if config.smoke {
            return Sizes {
                keys: 8192,
                children_per_parent: 64,
                value_size: 1024,
                batch: 8,
                measured_ops: 12_000,
            };
        }
        Sizes {
            keys: 65_536,
            children_per_parent: 64,
            value_size: 1024,
            batch: 8,
            measured_ops: 8_000 * config.seconds as usize,
        }
    }
}

struct Store {
    durable: Durable,
    gen: StoreGen,
    /// The model: how many times each key has been written. Every key
    /// is live between ops.
    versions: Vec<u32>,
}

impl Store {
    fn value(&self, sizes: &Sizes, key: usize) -> Vec<u8> {
        payload(
            sizes.value_size,
            (key as u64) << 32 | u64::from(self.versions[key]),
        )
    }

    /// Bumps the keys' versions and returns the batch that writes them.
    fn next_values(&mut self, sizes: &Sizes, keys: &[usize]) -> Vec<(String, Vec<u8>)> {
        keys.iter()
            .map(|&key| {
                self.versions[key] += 1;
                (self.gen.key_path(key), self.value(sizes, key))
            })
            .collect()
    }
}

fn setup(config: &RunConfig, sizes: &Sizes) -> Store {
    assert!(sizes.keys.is_power_of_two(), "the key scatter needs it");
    let mut store = Store {
        durable: Durable::open(config.seed),
        gen: StoreGen::new(
            config.seed,
            sizes.keys,
            sizes.children_per_parent,
            sizes.batch,
        ),
        versions: vec![0; sizes.keys],
    };
    // Phase `load`.
    let keys: Vec<usize> = (0..sizes.keys).collect();
    for batch in keys.chunks(sizes.batch) {
        let entries = store.next_values(sizes, batch);
        store.durable.write_batch(&entries, 1);
    }
    store.durable.clock().drop_spans();
    store.durable.take_finished_ssts();
    store
}

#[derive(Default)]
struct Measured {
    read_vns: Vec<u64>,
    write_vns: Vec<u64>,
    classes: [u64; 4],
    read_host: Duration,
    reads: u64,
    write_host: Duration,
    write_calls: u64,
    scan_host: Duration,
    scans: u64,
    stall_max: Duration,
    user_bytes: u64,
    flush_bytes: u64,
    compaction_bytes: u64,
    read_at_calls: u64,
    read_at_bytes: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Measured {
    fn violation(&mut self, text: String) {
        if self.violations.len() < 8 {
            self.violations.push(text);
        }
        self.failed += 1;
    }
}

/// Splits the SST files a write completed into the flush's and the
/// compaction's: a flush's file comes first, the compaction it triggers
/// writes the rest.
fn account_ssts(store: &Store, out: &mut Measured, flushes_seen: &mut u64) {
    let finished = store.durable.take_finished_ssts();
    if finished.is_empty() {
        return;
    }
    let flushes = store.durable.stats().flushes;
    let new_flushes = (flushes - *flushes_seen) as usize;
    *flushes_seen = flushes;
    for (i, bytes) in finished.iter().enumerate() {
        if i < new_flushes {
            out.flush_bytes += bytes;
        } else {
            out.compaction_bytes += bytes;
        }
    }
}

fn drive(store: &mut Store, sizes: &Sizes, out: &mut Measured, mut tracer: Option<&mut Tracer>) {
    let ops = sizes.measured_ops;
    let epoch = Instant::now();
    let mut flushes_seen = store.durable.stats().flushes;
    for k in 0..ops {
        let op = store.gen.next_op();
        out.classes[op.class()] += 1;
        let virtual_start = store.durable.clock().now_ns();
        let host_start = epoch.elapsed();
        let (name, host) = match &op {
            StoreOp::Read { key } => {
                let path = store.gen.key_path(*key);
                let before = store.durable.device_counts();
                let (data, host) = store.durable.read(&path);
                let device = store.durable.device_counts().since(&before);
                out.read_at_calls += device.read_at_calls;
                out.read_at_bytes += device.read_at_bytes;
                out.read_host += host;
                out.reads += 1;
                if data.as_deref() != Some(store.value(sizes, *key).as_slice()) {
                    out.violation(format!("read of {path} is not its last written value"));
                }
                ("store.read", host)
            }
            StoreOp::WriteBatch { keys } => {
                let entries = store.next_values(sizes, keys);
                let host = store.durable.write_batch(&entries, 1);
                out.write_calls += 1;
                out.user_bytes += (keys.len() * sizes.value_size) as u64;
                out.stall_max = out.stall_max.max(host);
                ("store.write_batch", host)
            }
            StoreOp::Recreate { keys } => {
                let paths: Vec<String> = keys.iter().map(|&k| store.gen.key_path(k)).collect();
                let deleted = store.durable.delete_batch(&paths);
                let entries = store.next_values(sizes, keys);
                let written = store.durable.write_batch(&entries, 1);
                out.write_calls += 2;
                out.user_bytes += (keys.len() * sizes.value_size) as u64;
                out.stall_max = out.stall_max.max(deleted).max(written);
                ("store.recreate", deleted + written)
            }
            StoreOp::Scan { parent } => {
                let root = store.gen.parent_path(*parent);
                let (entries, host) = store.durable.scan(&root);
                out.scan_host += host;
                out.scans += 1;
                if entries != sizes.children_per_parent {
                    out.violation(format!("scan of {root} returned {entries} entries"));
                }
                ("store.scan", host)
            }
        };
        let virtual_end = store.durable.clock().now_ns();
        store.durable.clock().drop_spans();
        match op {
            StoreOp::Read { .. } | StoreOp::Scan { .. } => {
                out.read_vns.push(virtual_end - virtual_start);
            }
            StoreOp::WriteBatch { .. } | StoreOp::Recreate { .. } => {
                out.write_vns.push(virtual_end - virtual_start);
                out.write_host += host;
                account_ssts(store, out, &mut flushes_seen);
            }
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            let request = (tracer.session("store"), k as u64);
            let id = tracer.span(
                0,
                request,
                name,
                ClockKind::Virtual,
                virtual_start,
                virtual_end,
            );
            let start = host_start.as_nanos() as u64;
            tracer.span(
                id,
                request,
                "host",
                ClockKind::Host,
                start,
                start + host.as_nanos() as u64,
            );
        }
    }
}

/// Every key must read back as the model says.
fn check_all(store: &Store, sizes: &Sizes, when: &str, violations: &mut Vec<String>) {
    let mut wrong = 0usize;
    for key in 0..sizes.keys {
        let (data, _) = store.durable.read(&store.gen.key_path(key));
        if data.as_deref() != Some(store.value(sizes, key).as_slice()) {
            wrong += 1;
        }
    }
    store.durable.clock().drop_spans();
    if wrong > 0 {
        violations.push(format!("{wrong} keys differ from the model {when}"));
    }
}

pub fn pass(config: &RunConfig, traced: bool) -> Pass {
    let sizes = Sizes::of(config);
    let (mut store, setup_s) = timed_setup(if traced { 1 } else { 3 }, || setup(config, &sizes));
    let mut end_to_end = Values::default();
    let mut layers = Values::default();
    let mut tracer = traced.then(Tracer::new);

    // Phase `mixed`.
    let device_before = store.durable.device_counts();
    let stats_before = store.durable.stats();
    let virtual_before = store.durable.clock().now_ns();
    let mut measured = Measured::default();
    let timer = PhaseTimer::start();
    drive(&mut store, &sizes, &mut measured, tracer.as_mut());
    let (host_us, cpu_us) = timer.finish(sizes.measured_ops);
    let device: DeviceCounts = store.durable.device_counts().since(&device_before);
    let stats = store.durable.stats();
    let virtual_s = (store.durable.clock().now_ns() - virtual_before) as f64 / 1e9;
    let ops = sizes.measured_ops as f64;
    let done = ops - measured.failed as f64;
    let reads_timed = measured.read_vns.len();
    let writes_timed = measured.write_vns.len();
    set_latency(
        &mut end_to_end,
        "write_p50_vms",
        "write_p99_vms",
        &mut measured.write_vns,
    );
    set_latency(
        &mut end_to_end,
        "read_p50_vms",
        "read_p99_vms",
        &mut measured.read_vns,
    );
    let goodput = ratio(done, virtual_s);
    end_to_end.set("goodput_ops_per_vsec", goodput);
    // One closed-loop client: the rate it sustains is the capacity it
    // sees.
    end_to_end.set("capacity_ops_per_vsec", goodput);
    // The engine is a node-local resource, not a billed service: an op
    // costs the rent of the node for the modeled time it keeps it busy.
    end_to_end.set(
        "cost_usd_per_mop",
        ratio(vm_rent_usd(virtual_s) * 1e6, done),
    );
    end_to_end.set("host_us_per_op", host_us);
    end_to_end.set("cpu_us_per_op", cpu_us);
    let live_user_bytes = (sizes.keys * sizes.value_size) as f64;
    end_to_end.set(
        "store_space_amp",
        ratio(store.durable.device_bytes() as f64, live_user_bytes),
    );

    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let user_bytes = measured.user_bytes as f64;
    layers.set(
        "store.write_batch_host_us",
        ratio(us(measured.write_host), measured.write_calls as f64),
    );
    layers.set(
        "store.read_host_us",
        ratio(us(measured.read_host), measured.reads as f64),
    );
    layers.set(
        "store.scan_host_us",
        ratio(us(measured.scan_host), measured.scans as f64),
    );
    layers.set("store.stall_max_host_us", us(measured.stall_max));
    layers.set(
        "store.write_amp",
        ratio(device.written_bytes() as f64, user_bytes),
    );
    layers.set(
        "wal.bytes_per_user_byte",
        ratio(device.wal_bytes as f64, user_bytes),
    );
    layers.set(
        "wal.syncs_per_batch",
        ratio(device.wal_syncs as f64, measured.write_calls as f64),
    );
    layers.set(
        "sst.read_at_calls_per_get",
        ratio(measured.read_at_calls as f64, measured.reads as f64),
    );
    layers.set(
        "sst.read_bytes_per_get",
        ratio(measured.read_at_bytes as f64, measured.reads as f64),
    );
    layers.set("lsm.flushes", (stats.flushes - stats_before.flushes) as f64);
    layers.set(
        "lsm.compactions",
        (stats.compactions - stats_before.compactions) as f64,
    );
    layers.set("lsm.l0_files", stats.l0_files as f64);
    layers.set(
        "compaction.bytes_per_user_byte",
        ratio(measured.compaction_bytes as f64, user_bytes),
    );
    layers.set("bench.write_samples", writes_timed as f64);
    layers.set("bench.read_samples", reads_timed as f64);
    layers.set("bench.measured_ops", ops);
    layers.set("bench.failed_share", ratio(measured.failed as f64, ops));

    // Output checks: the whole key space against the model, now and
    // after the engine reopens on the same device.
    let mut violations = std::mem::take(&mut measured.violations);
    check_all(&store, &sizes, "after the mixed phase", &mut violations);
    let finals: Vec<(String, Vec<u8>)> = (0..sizes.keys)
        .step_by((sizes.keys / 256).max(1))
        .map(|key| (store.gen.key_path(key), store.value(&sizes, key)))
        .collect();
    let (encode_ns, decode_ns) = codec_ns(&finals, 8);
    layers.set("codec.encode_node_host_ns", encode_ns);
    layers.set("codec.decode_node_host_ns", decode_ns);
    store.durable = store.durable.reopen(config.seed);
    let replayed = store.durable.stats().records_replayed;
    check_all(
        &store,
        &sizes,
        "after reopening the engine",
        &mut violations,
    );
    end_to_end.set("peak_rss_mib", peak_rss_mib());
    end_to_end.set("setup_s", setup_s);
    let notes = vec![
        format!("flush policy: {}", Durable::policy()),
        format!(
            "load: {} keys x {} B in batches of {}",
            sizes.keys, sizes.value_size, sizes.batch
        ),
        format!(
            "mixed: {} reads, {} write batches, {} delete+re-create, {} scans; {} reads timed, {} writes timed",
            measured.classes[0],
            measured.classes[1],
            measured.classes[2],
            measured.classes[3],
            reads_timed,
            writes_timed
        ),
        format!(
            "{} flushes ({} MiB) and {} compactions ({} MiB) in the mixed phase; {} device calls; {replayed} WAL records replayed on reopen",
            stats.flushes - stats_before.flushes,
            measured.flush_bytes >> 20,
            stats.compactions - stats_before.compactions,
            measured.compaction_bytes >> 20,
            device.calls()
        ),
    ];
    Pass {
        end_to_end,
        layers,
        attempted: sizes.measured_ops as u64,
        failed: measured.failed,
        violations,
        notes,
        tracer,
    }
}
