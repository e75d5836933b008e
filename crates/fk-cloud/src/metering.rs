//! Usage metering for pay-as-you-go billing.
//!
//! Every simulated service records billing units the way the real services
//! meter them (§5.2.2, Table 4):
//!
//! * key-value store — write units per started kB, read units per started
//!   4 kB (every read is strongly consistent, so a unit is never halved),
//! * object store — flat per-operation charges,
//! * queues — messages in 64 kB increments,
//! * functions — invocations and GB-seconds.
//!
//! `fk-cost` prices a [`UsageSnapshot`] under a provider's price sheet; the
//! split keeps the substrate free of pricing knowledge.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Immutable snapshot of metered usage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UsageSnapshot {
    /// KV write units (1 kB increments).
    pub kv_write_units: u64,
    /// KV read units (4 kB increments).
    pub kv_read_units: f64,
    /// Raw KV operation count.
    pub kv_ops: u64,
    /// Object store GET operations.
    pub obj_gets: u64,
    /// Object store PUT operations, successful or failed on a
    /// precondition (412; those also count under `obj_put_412` in
    /// [`per_op`](UsageSnapshot::per_op)).
    pub obj_puts: u64,
    /// Object store DELETE operations (not billed by the providers).
    pub obj_deletes: u64,
    /// Bytes currently stored in the object store.
    pub obj_bytes_stored: u64,
    /// Bytes currently stored in the KV store.
    pub kv_bytes_stored: u64,
    /// Queue messages sent.
    pub queue_messages: u64,
    /// Queue billing units (64 kB increments).
    pub queue_units: u64,
    /// Function invocations.
    pub fn_invocations: u64,
    /// Function compute, in GB-seconds.
    pub fn_gb_seconds: f64,
    /// In-memory cache operations.
    pub mem_ops: u64,
    /// Client read-cache hits (reads served without a storage request —
    /// deliberately **not** priced: avoided round trips bill nothing).
    pub cache_hits: u64,
    /// Client read-cache misses (each paid a storage request, which is
    /// metered by the store that served it).
    pub cache_misses: u64,
    /// Client reads coalesced into a concurrent flight's round trip.
    pub cache_coalesced: u64,
    /// Regional read-replica hits (reads served from a shared in-memory
    /// replica — like cache hits, deliberately **not** priced: no
    /// storage service saw the read).
    pub replica_hits: u64,
    /// Retries the services performed on their own transient failures
    /// (per-operation breakdown under `retry:<service>.<op>` in
    /// [`per_op`]).
    ///
    /// [`per_op`]: UsageSnapshot::per_op
    pub retries: u64,
    /// Faults fired by the chaos engine (per-point breakdown under
    /// `fault:<kind>` in `per_op`).
    pub faults_injected: u64,
    /// Messages currently parked in dead-letter queues (a depth gauge,
    /// like the stored-bytes counters: raised when a message exhausts
    /// its redelivery budget, lowered when a drain collects it).
    pub queue_dead_letters: u64,
    /// Per-label operation counts (diagnostics).
    pub per_op: BTreeMap<String, u64>,
}

impl UsageSnapshot {
    /// Difference `self - earlier` (componentwise, for interval metering).
    pub fn since(&self, earlier: &UsageSnapshot) -> UsageSnapshot {
        UsageSnapshot {
            kv_write_units: self.kv_write_units - earlier.kv_write_units,
            kv_read_units: self.kv_read_units - earlier.kv_read_units,
            kv_ops: self.kv_ops - earlier.kv_ops,
            obj_gets: self.obj_gets - earlier.obj_gets,
            obj_puts: self.obj_puts - earlier.obj_puts,
            obj_deletes: self.obj_deletes - earlier.obj_deletes,
            obj_bytes_stored: self.obj_bytes_stored,
            kv_bytes_stored: self.kv_bytes_stored,
            queue_messages: self.queue_messages - earlier.queue_messages,
            queue_units: self.queue_units - earlier.queue_units,
            fn_invocations: self.fn_invocations - earlier.fn_invocations,
            fn_gb_seconds: self.fn_gb_seconds - earlier.fn_gb_seconds,
            mem_ops: self.mem_ops - earlier.mem_ops,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_coalesced: self.cache_coalesced - earlier.cache_coalesced,
            replica_hits: self.replica_hits - earlier.replica_hits,
            retries: self.retries - earlier.retries,
            faults_injected: self.faults_injected - earlier.faults_injected,
            queue_dead_letters: self.queue_dead_letters,
            per_op: self
                .per_op
                .iter()
                .map(|(k, v)| {
                    let prev = earlier.per_op.get(k).copied().unwrap_or(0);
                    (k.clone(), v - prev)
                })
                .collect(),
        }
    }
}

/// Shared, thread-safe usage meter. Cloning shares the same counters.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    inner: Arc<Mutex<UsageSnapshot>>,
}

/// Rounds `bytes` up to `unit`-sized billing increments (at least 1).
pub fn billing_units(bytes: usize, unit: usize) -> u64 {
    (bytes.max(1)).div_ceil(unit) as u64
}

impl Meter {
    /// Creates a fresh meter.
    pub fn new() -> Self {
        Self::default()
    }

    fn bump(&self, label: &'static str, f: impl FnOnce(&mut UsageSnapshot)) {
        let mut inner = self.inner.lock();
        f(&mut inner);
        *inner.per_op.entry(label.to_owned()).or_insert(0) += 1;
    }

    /// Records a KV write of an item of `bytes` total size.
    pub fn kv_write(&self, bytes: usize) {
        self.bump("kv_write", |s| {
            s.kv_write_units += billing_units(bytes, 1024);
            s.kv_ops += 1;
        });
    }

    /// Records a strongly consistent KV read.
    pub fn kv_read(&self, bytes: usize) {
        self.bump("kv_read", |s| {
            s.kv_read_units += billing_units(bytes, 4096) as f64;
            s.kv_ops += 1;
        });
    }

    /// Records one transactional KV write *request* covering `item_bytes`
    /// items. Billing follows the provider model per item: each item's
    /// bytes round up to 1 kB units independently and a transaction bills
    /// 2x write units per item — a batch never pools its items' bytes
    /// into one rounding. `kv_ops` and the `kv_transact` label count the
    /// request (one round trip); `kv_transact_items` counts the items.
    pub fn kv_transact_write(&self, item_bytes: &[usize]) {
        let items = item_bytes.len() as u64;
        let units: u64 = item_bytes.iter().map(|&b| 2 * billing_units(b, 1024)).sum();
        self.bump("kv_transact", |s| {
            s.kv_write_units += units;
            s.kv_ops += 1;
            *s.per_op.entry("kv_transact_items".to_owned()).or_insert(0) += items;
        });
    }

    /// Records a scan that touched `bytes` in total.
    pub fn kv_scan(&self, bytes: usize) {
        self.bump("kv_scan", |s| {
            s.kv_read_units += billing_units(bytes, 4096) as f64;
            s.kv_ops += 1;
        });
    }

    /// Updates the KV storage footprint.
    pub fn kv_stored_delta(&self, delta: i64) {
        let mut inner = self.inner.lock();
        inner.kv_bytes_stored = inner.kv_bytes_stored.saturating_add_signed(delta);
    }

    /// Records an object GET.
    pub fn obj_get(&self) {
        self.bump("obj_get", |s| s.obj_gets += 1);
    }

    /// Records an object PUT.
    pub fn obj_put(&self) {
        self.bump("obj_put", |s| s.obj_puts += 1);
    }

    /// Records a conditional object PUT that failed its precondition
    /// (412): billed like any PUT, labelled `obj_put_412`.
    pub fn obj_put_failed(&self) {
        self.bump("obj_put_412", |s| s.obj_puts += 1);
    }

    /// Records an object DELETE.
    pub fn obj_delete(&self) {
        self.bump("obj_delete", |s| s.obj_deletes += 1);
    }

    /// Updates the object storage footprint.
    pub fn obj_stored_delta(&self, delta: i64) {
        let mut inner = self.inner.lock();
        inner.obj_bytes_stored = inner.obj_bytes_stored.saturating_add_signed(delta);
    }

    /// Records a queue send of `bytes` (billed per 64 kB).
    pub fn queue_send(&self, bytes: usize) {
        self.bump("queue_send", |s| {
            s.queue_messages += 1;
            s.queue_units += billing_units(bytes, 64 * 1024);
        });
    }

    /// Records a function invocation consuming `duration` at `memory_mb`.
    pub fn fn_invocation(&self, memory_mb: u32, duration: Duration) {
        self.bump("fn_invocation", |s| {
            s.fn_invocations += 1;
            s.fn_gb_seconds += memory_mb as f64 / 1024.0 * duration.as_secs_f64();
        });
    }

    /// Records an in-memory cache operation.
    pub fn mem_op(&self) {
        self.bump("mem_op", |s| s.mem_ops += 1);
    }

    /// Records a client read-cache hit. Hits bill nothing — no storage
    /// service saw the read — so the counter exists purely to expose hit
    /// ratios next to the storage round trips that were avoided.
    pub fn cache_hit(&self) {
        self.bump("cache_hit", |s| s.cache_hits += 1);
    }

    /// Records a client read-cache miss (the paired storage request is
    /// metered separately by the store that served it).
    pub fn cache_miss(&self) {
        self.bump("cache_miss", |s| s.cache_misses += 1);
    }

    /// Records a read coalesced into another caller's in-flight storage
    /// round trip (bills nothing, like a hit).
    pub fn cache_coalesced(&self) {
        self.bump("cache_coalesced", |s| s.cache_coalesced += 1);
    }

    /// Records a regional read-replica hit. Like a cache hit it bills
    /// nothing and adds no storage round trip — the read never left the
    /// replica's memory.
    pub fn replica_hit(&self) {
        self.bump("replica_hit", |s| s.replica_hits += 1);
    }

    /// Records one watch-arming read's step `outcome` (labelled
    /// `arm:<outcome>`): answered by the replica, answered by storage,
    /// or a wait on the node's pending txids before storage answers.
    pub fn arming_read(&self, outcome: &'static str) {
        let mut inner = self.inner.lock();
        *inner.per_op.entry(format!("arm:{outcome}")).or_insert(0) += 1;
    }

    /// Records one refill of a system-store handle's block of watch ids
    /// (labelled `watch_ids:block`): the one `ADD` that reserved it.
    pub fn watch_id_block(&self) {
        self.bump("watch_ids:block", |_| {});
    }

    /// Records one retry of the operation `site`, named
    /// `<service>.<op>` (labelled `retry:<service>.<op>`).
    pub fn retry(&self, site: &'static str) {
        let mut inner = self.inner.lock();
        inner.retries += 1;
        *inner.per_op.entry(format!("retry:{site}")).or_insert(0) += 1;
    }

    /// Records one fault fired by the chaos engine at the named point
    /// (labelled `fault:<kind>`).
    pub fn fault_injected(&self, kind: &'static str) {
        let mut inner = self.inner.lock();
        inner.faults_injected += 1;
        *inner.per_op.entry(format!("fault:{kind}")).or_insert(0) += 1;
    }

    /// Records one message a function consumed without processing
    /// because its body did not decode (labelled `drop:<site>`).
    pub fn dropped(&self, site: &'static str) {
        let mut inner = self.inner.lock();
        *inner.per_op.entry(format!("drop:{site}")).or_insert(0) += 1;
    }

    /// Adjusts the dead-letter depth gauge: positive when messages
    /// exhaust their redelivery budget, negative when a drain collects
    /// them.
    pub fn dead_letter_delta(&self, delta: i64) {
        let mut inner = self.inner.lock();
        inner.queue_dead_letters = inner.queue_dead_letters.saturating_add_signed(delta);
    }

    /// Takes a snapshot of current usage.
    pub fn snapshot(&self) -> UsageSnapshot {
        self.inner.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn billing_unit_rounding() {
        assert_eq!(billing_units(0, 1024), 1);
        assert_eq!(billing_units(1, 1024), 1);
        assert_eq!(billing_units(1024, 1024), 1);
        assert_eq!(billing_units(1025, 1024), 2);
        assert_eq!(billing_units(64 * 1024, 64 * 1024), 1);
        assert_eq!(billing_units(64 * 1024 + 1, 64 * 1024), 2);
    }

    #[test]
    fn kv_write_units_per_kb() {
        let m = Meter::new();
        m.kv_write(100); // 1 unit
        m.kv_write(1500); // 2 units
        let s = m.snapshot();
        assert_eq!(s.kv_write_units, 3);
        assert_eq!(s.kv_ops, 2);
    }

    #[test]
    fn kv_read_units_per_4kb() {
        let m = Meter::new();
        m.kv_read(4096);
        let s = m.snapshot();
        assert!((s.kv_read_units - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transactions_bill_double_per_item() {
        let m = Meter::new();
        m.kv_transact_write(&[1024]);
        assert_eq!(m.snapshot().kv_write_units, 2);
        // Per-item rounding: three small items are three 1 kB units each
        // billed twice, not one pooled rounding of the summed payload.
        m.kv_transact_write(&[100, 200, 1500]);
        let s = m.snapshot();
        assert_eq!(s.kv_write_units, 2 + 2 * (1 + 1 + 2));
        assert_eq!(s.kv_ops, 2, "one op per transaction request");
        assert_eq!(s.per_op["kv_transact"], 2, "label counts requests");
        assert_eq!(s.per_op["kv_transact_items"], 4, "items counted apart");
    }

    #[test]
    fn queue_units_per_64kb() {
        let m = Meter::new();
        m.queue_send(64);
        m.queue_send(65 * 1024);
        let s = m.snapshot();
        assert_eq!(s.queue_messages, 2);
        assert_eq!(s.queue_units, 3);
    }

    #[test]
    fn gb_seconds_accumulate() {
        let m = Meter::new();
        m.fn_invocation(512, Duration::from_millis(100));
        let s = m.snapshot();
        assert!((s.fn_gb_seconds - 0.05).abs() < 1e-9);
        assert_eq!(s.fn_invocations, 1);
    }

    #[test]
    fn since_computes_interval() {
        let m = Meter::new();
        m.kv_write(100);
        let before = m.snapshot();
        m.kv_write(100);
        m.obj_put();
        let diff = m.snapshot().since(&before);
        assert_eq!(diff.kv_write_units, 1);
        assert_eq!(diff.obj_puts, 1);
        assert_eq!(diff.per_op["kv_write"], 1);
    }

    #[test]
    fn cache_counters_accumulate_without_billable_units() {
        let m = Meter::new();
        m.cache_hit();
        m.cache_hit();
        m.cache_miss();
        m.cache_coalesced();
        m.replica_hit();
        m.replica_hit();
        m.replica_hit();
        let s = m.snapshot();
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_coalesced, 1);
        assert_eq!(s.replica_hits, 3);
        // Hits never touch billable units: no storage request happened.
        assert_eq!(s.kv_ops, 0);
        assert_eq!(s.obj_gets, 0);
        assert_eq!(s.kv_read_units, 0.0);
        assert_eq!(s.mem_ops, 0, "replica hits are not mem-store ops");
        let diff = m.snapshot().since(&s);
        assert_eq!(diff.cache_hits, 0);
        assert_eq!(diff.replica_hits, 0);
    }

    #[test]
    fn retry_and_fault_counters_carry_labels() {
        let m = Meter::new();
        m.retry("push_to_leader");
        m.retry("push_to_leader");
        m.retry("evict");
        m.fault_injected("kv_error");
        m.dropped("follower.undecodable");
        let s = m.snapshot();
        assert_eq!(s.retries, 3);
        assert_eq!(s.faults_injected, 1);
        assert_eq!(s.per_op["retry:push_to_leader"], 2);
        assert_eq!(s.per_op["retry:evict"], 1);
        assert_eq!(s.per_op["fault:kv_error"], 1);
        assert_eq!(s.per_op["drop:follower.undecodable"], 1);
        let diff = m.snapshot().since(&s);
        assert_eq!(diff.retries, 0);
        assert_eq!(diff.faults_injected, 0);
    }

    #[test]
    fn dead_letter_gauge_tracks_depth() {
        let m = Meter::new();
        m.dead_letter_delta(3);
        m.dead_letter_delta(-1);
        assert_eq!(m.snapshot().queue_dead_letters, 2);
        // A gauge, not an interval counter: `since` reports the current
        // depth, like the stored-bytes footprints.
        let before = m.snapshot();
        m.dead_letter_delta(-2);
        assert_eq!(m.snapshot().since(&before).queue_dead_letters, 0);
    }

    #[test]
    fn storage_footprint_tracks_deltas() {
        let m = Meter::new();
        m.obj_stored_delta(1000);
        m.obj_stored_delta(-400);
        assert_eq!(m.snapshot().obj_bytes_stored, 600);
        m.kv_stored_delta(123);
        assert_eq!(m.snapshot().kv_bytes_stored, 123);
    }
}
