//! Virtual-time execution context.
//!
//! Every simulated cloud operation charges a sampled latency to a [`Ctx`].
//! In `Virtual` mode the context advances a per-request virtual clock
//! without sleeping, so the benchmark harness reproduces paper-scale
//! latencies (tens to hundreds of milliseconds) in microseconds of wall
//! time. Spans attribute charged time to named phases (lock / push /
//! commit / update-user-storage / …), which is how Figure 10 and Table 3
//! are regenerated from the actual code path rather than hard-coded.
//!
//! Contexts form a fork/join tree to model parallel sections (the leader
//! distributes updates to regions in parallel, Algorithm 2): a fork copies
//! the current virtual time, children charge independently, and the join
//! advances the parent to the maximum child time.

use crate::latency::{ExecEnv, LatencyModel};
use crate::ops::Op;
use crate::region::Region;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How charged latencies are realized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyMode {
    /// Ignore latencies entirely (functional tests).
    Disabled,
    /// Advance the virtual clock only (benchmark harness).
    Virtual,
}

/// One recorded operation.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Phase label path at the time of the charge (e.g. `"lock_node"`).
    pub phase: String,
    /// The operation.
    pub op: Op,
    /// Virtual start time.
    pub start: Duration,
    /// Sampled duration.
    pub duration: Duration,
}

struct CtxShared {
    model: Arc<LatencyModel>,
    mode: LatencyMode,
    spans: Mutex<Vec<SpanRecord>>,
    record_spans: bool,
}

/// Salt separating the auxiliary decision stream from latency sampling:
/// the two RNGs must never correlate, or enabling chaos would perturb
/// the latency samples of an otherwise identical run.
const AUX_SALT: u64 = 0xC4A0_5EED_D15E_A5ED;

/// Per-request virtual-time context.
pub struct Ctx {
    shared: Arc<CtxShared>,
    /// Latency-sampling RNG. Per context (not shared with forks): each
    /// fork draws its seed from the parent at fork time, so parallel
    /// branches sample deterministically even when they run on real
    /// threads with arbitrary interleaving (the distributor's sharded
    /// fan-out relies on this for reproducible benchmarks).
    rng: Mutex<SmallRng>,
    /// Auxiliary decision RNG (chaos fault rolls, retry jitter). A second
    /// stream, forked the same way as the latency RNG but never shared
    /// with it, so fault-injection decisions replay from the root seed
    /// without disturbing latency sampling — and a run with chaos
    /// disabled draws nothing from it at all.
    aux_rng: Mutex<SmallRng>,
    /// Execution environment of the code currently charging ops.
    env: Mutex<ExecEnv>,
    /// Region the caller runs in.
    region: Mutex<Region>,
    now_ns: AtomicU64,
    phase: Mutex<Vec<&'static str>>,
}

impl Ctx {
    /// Creates a root context.
    pub fn new(model: Arc<LatencyModel>, mode: LatencyMode, seed: u64) -> Self {
        Ctx {
            shared: Arc::new(CtxShared {
                model,
                mode,
                spans: Mutex::new(Vec::new()),
                record_spans: !matches!(mode, LatencyMode::Disabled),
            }),
            rng: Mutex::new(SmallRng::seed_from_u64(seed)),
            aux_rng: Mutex::new(SmallRng::seed_from_u64(seed ^ AUX_SALT)),
            env: Mutex::new(ExecEnv::client()),
            region: Mutex::new(Region::default()),
            now_ns: AtomicU64::new(0),
            phase: Mutex::new(Vec::new()),
        }
    }

    /// A context that charges nothing; for functional tests.
    pub fn disabled() -> Self {
        Ctx::new(Arc::new(LatencyModel::zero()), LatencyMode::Disabled, 0)
    }

    /// Sets the execution environment (e.g. entering a function sandbox).
    pub fn set_env(&self, env: ExecEnv) {
        *self.env.lock() = env;
    }

    /// The current execution environment.
    pub fn env(&self) -> ExecEnv {
        *self.env.lock()
    }

    /// Runs `f` with a temporary execution environment, restoring the
    /// previous one afterwards (crossing a sandbox boundary).
    pub fn with_env<T>(&self, env: ExecEnv, f: impl FnOnce() -> T) -> T {
        let prev = std::mem::replace(&mut *self.env.lock(), env);
        let out = f();
        *self.env.lock() = prev;
        out
    }

    /// Sets the caller's region.
    pub fn set_region(&self, region: Region) {
        *self.region.lock() = region;
    }

    /// The caller's region.
    pub fn region(&self) -> Region {
        *self.region.lock()
    }

    /// The latency model in use.
    pub fn model(&self) -> &Arc<LatencyModel> {
        &self.shared.model
    }

    /// The latency mode.
    pub fn mode(&self) -> LatencyMode {
        self.shared.mode
    }

    /// Current virtual time.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.now_ns.load(Ordering::Relaxed))
    }

    /// Current virtual time in nanoseconds (for carrying across queues).
    pub fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Relaxed)
    }

    /// Advances this context's clock to at least `ns` (used when a message
    /// carrying a send-side timestamp is received).
    pub fn merge_time_ns(&self, ns: u64) {
        self.now_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Unconditionally advances the clock by `d`.
    pub fn advance(&self, d: Duration) {
        self.now_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Charges one operation against a same-region service.
    pub fn charge(&self, op: Op, size_bytes: usize) -> Duration {
        self.charge_to(op, size_bytes, self.region())
    }

    /// Charges one operation against a service in `service_region`
    /// (cross-region penalties apply when it differs from the caller's).
    pub fn charge_to(&self, op: Op, size_bytes: usize, service_region: Region) -> Duration {
        if matches!(self.shared.mode, LatencyMode::Disabled) {
            return Duration::ZERO;
        }
        let cross = service_region != self.region();
        let env = self.env();
        let dur = {
            let mut rng = self.rng.lock();
            self.shared
                .model
                .sample(op, size_bytes, cross, &env, &mut *rng)
        };
        let start_ns = self
            .now_ns
            .fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
        if self.shared.record_spans {
            let phase = self.phase.lock().join("/");
            self.shared.spans.lock().push(SpanRecord {
                phase,
                op,
                start: Duration::from_nanos(start_ns),
                duration: dur,
            });
        }
        dur
    }

    /// Runs `f` with a phase label pushed; all ops charged inside are
    /// attributed to the label (Figure 10's breakdown).
    pub fn span<T>(&self, label: &'static str, f: impl FnOnce() -> T) -> T {
        self.phase.lock().push(label);
        let out = f();
        self.phase.lock().pop();
        out
    }

    /// Pushes a phase label without a closure (paired with [`Ctx::pop_phase`]).
    pub fn push_phase(&self, label: &'static str) {
        self.phase.lock().push(label);
    }

    /// Pops the innermost phase label.
    pub fn pop_phase(&self) {
        self.phase.lock().pop();
    }

    /// Forks a child context that starts at this context's current time
    /// (for parallel sections). The child shares the span sink but owns
    /// its RNG, seeded from a draw on the parent's — forks created in a
    /// fixed order sample deterministically regardless of how the
    /// branches are later scheduled across threads.
    pub fn fork(&self) -> Ctx {
        use rand::RngCore;
        let child_seed = self.rng.lock().next_u64();
        let child_aux_seed = self.aux_rng.lock().next_u64();
        Ctx {
            shared: Arc::clone(&self.shared),
            rng: Mutex::new(SmallRng::seed_from_u64(child_seed)),
            aux_rng: Mutex::new(SmallRng::seed_from_u64(child_aux_seed)),
            env: Mutex::new(self.env()),
            region: Mutex::new(self.region()),
            now_ns: AtomicU64::new(self.now_ns.load(Ordering::Relaxed)),
            phase: Mutex::new(self.phase.lock().clone()),
        }
    }

    /// Draws one value in `[0, 1)` from the auxiliary decision stream
    /// (fault rolls, retry jitter). Deliberately separate from latency
    /// sampling: consuming this stream never changes which latencies a
    /// run samples, so a chaotic run and its fault-free twin stay
    /// comparable sample-for-sample.
    pub fn aux_roll(&self) -> f64 {
        use rand::RngCore;
        let raw = self.aux_rng.lock().next_u64();
        (raw >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Joins children: advances this clock to the max of the children's.
    pub fn join(&self, children: &[Ctx]) {
        let max = children
            .iter()
            .map(|c| c.now_ns.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        self.now_ns.fetch_max(max, Ordering::Relaxed);
    }

    /// Drains all recorded spans (shared across forks).
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.shared.spans.lock())
    }

    /// Aggregates charged time per top-level phase label.
    pub fn phase_totals(&self) -> std::collections::BTreeMap<String, Duration> {
        let mut totals = std::collections::BTreeMap::new();
        for span in self.shared.spans.lock().iter() {
            let top = span.phase.split('/').next().unwrap_or("").to_owned();
            *totals.entry(top).or_insert(Duration::ZERO) += span.duration;
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::QueueKind;

    fn virtual_ctx() -> Ctx {
        Ctx::new(Arc::new(LatencyModel::aws()), LatencyMode::Virtual, 123)
    }

    #[test]
    fn disabled_mode_charges_nothing() {
        let ctx = Ctx::disabled();
        let d = ctx.charge(Op::ObjPut, 1 << 20);
        assert_eq!(d, Duration::ZERO);
        assert_eq!(ctx.now(), Duration::ZERO);
        assert!(ctx.take_spans().is_empty());
    }

    #[test]
    fn virtual_mode_advances_clock_monotonically() {
        let ctx = virtual_ctx();
        let d1 = ctx.charge(Op::KvPut, 1024);
        let t1 = ctx.now();
        let d2 = ctx.charge(Op::KvPut, 1024);
        let t2 = ctx.now();
        assert!(d1 > Duration::ZERO);
        assert_eq!(t1, d1);
        assert_eq!(t2, d1 + d2);
    }

    #[test]
    fn spans_capture_phase_labels() {
        let ctx = virtual_ctx();
        ctx.span("lock_node", || {
            ctx.charge(Op::KvUpdate { conditional: true }, 64);
        });
        ctx.span("push_to_leader", || {
            ctx.charge(Op::QueueSend(QueueKind::Fifo), 64);
        });
        let spans = ctx.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].phase, "lock_node");
        assert_eq!(spans[1].phase, "push_to_leader");
        assert!(spans[1].start >= spans[0].duration);
    }

    #[test]
    fn fork_join_takes_max_branch() {
        let ctx = virtual_ctx();
        ctx.charge(Op::KvGet, 64);
        let a = ctx.fork();
        let b = ctx.fork();
        a.charge(Op::ObjPut, 250 * 1024); // slow branch
        b.charge(Op::TcpReply, 64); // fast branch
        ctx.join(&[a, b]);
        let spans = ctx.take_spans();
        let slow: Duration = spans
            .iter()
            .filter(|s| s.op == Op::ObjPut)
            .map(|s| s.duration)
            .sum();
        let pre: Duration = spans
            .iter()
            .filter(|s| matches!(s.op, Op::KvGet))
            .map(|s| s.duration)
            .sum();
        assert_eq!(ctx.now(), pre + slow);
    }

    #[test]
    fn merge_time_is_monotone() {
        let ctx = virtual_ctx();
        ctx.merge_time_ns(5_000_000);
        assert_eq!(ctx.now(), Duration::from_millis(5));
        ctx.merge_time_ns(1_000_000); // older timestamp: no-op
        assert_eq!(ctx.now(), Duration::from_millis(5));
    }

    #[test]
    fn phase_totals_aggregate_nested_labels() {
        let ctx = virtual_ctx();
        ctx.span("commit", || {
            ctx.charge(Op::KvUpdate { conditional: true }, 64);
            ctx.span("inner", || {
                ctx.charge(Op::KvUpdate { conditional: true }, 64);
            });
        });
        let totals = ctx.phase_totals();
        assert_eq!(totals.len(), 1);
        assert!(totals.contains_key("commit"));
    }

    #[test]
    fn deterministic_given_seed() {
        let c1 = Ctx::new(Arc::new(LatencyModel::aws()), LatencyMode::Virtual, 9);
        let c2 = Ctx::new(Arc::new(LatencyModel::aws()), LatencyMode::Virtual, 9);
        for _ in 0..50 {
            assert_eq!(c1.charge(Op::ObjGet, 4096), c2.charge(Op::ObjGet, 4096));
        }
    }

    #[test]
    fn aux_stream_is_independent_of_latency_sampling() {
        let a = Ctx::new(Arc::new(LatencyModel::aws()), LatencyMode::Virtual, 7);
        let b = Ctx::new(Arc::new(LatencyModel::aws()), LatencyMode::Virtual, 7);
        // Interleaving aux draws on `a` must not shift its latency stream.
        for i in 0..20 {
            if i % 2 == 0 {
                a.aux_roll();
            }
            assert_eq!(a.charge(Op::KvPut, 256), b.charge(Op::KvPut, 256));
        }
        // The aux stream itself replays from the seed, fork included.
        let c = Ctx::new(Arc::new(LatencyModel::aws()), LatencyMode::Virtual, 7);
        let d = Ctx::new(Arc::new(LatencyModel::aws()), LatencyMode::Virtual, 7);
        for _ in 0..10 {
            let roll = c.aux_roll();
            assert!((0.0..1.0).contains(&roll));
            assert_eq!(roll, d.aux_roll());
        }
        assert_eq!(c.fork().aux_roll(), d.fork().aux_roll());
    }

    #[test]
    fn cross_region_charge_uses_service_region() {
        let ctx = virtual_ctx();
        // Deterministic comparison: same seed stream, so charge order
        // matters; use two fresh contexts instead.
        let local = Ctx::new(Arc::new(LatencyModel::aws()), LatencyMode::Virtual, 4);
        let remote = Ctx::new(Arc::new(LatencyModel::aws()), LatencyMode::Virtual, 4);
        let d_local = local.charge_to(Op::ObjGet, 1024, Region::US_EAST_1);
        let d_remote = remote.charge_to(Op::ObjGet, 1024, Region::US_WEST_2);
        assert!(d_remote > d_local + Duration::from_millis(50));
        drop(ctx);
    }
}
