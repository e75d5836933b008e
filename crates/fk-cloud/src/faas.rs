//! Simulated FaaS runtime (Lambda / Cloud Functions equivalent).
//!
//! Implements the three function classes the paper identifies (§2.1):
//!
//! * **free functions** — synchronously invocable RPCs
//!   ([`FaasRuntime::invoke_direct`] / [`FaasRuntime::invoke_async`]),
//! * **event functions** — queue-triggered consumers with batching and a
//!   configurable concurrency limit
//!   ([`FaasRuntime::attach_queue_trigger`]),
//! * **scheduled functions** — cron-style periodic invocations
//!   ([`FaasRuntime::attach_schedule`]).
//!
//! The runtime models warm/cold sandboxes, memory-scaled execution
//! environments, retry-with-redelivery on failure (the queue's
//! visibility-timeout machinery), and GB-second metering.

use crate::chaos::{Chaos, FaultKind};
use crate::error::{CloudError, CloudResult};
use crate::latency::{Arch, ExecEnv, LatencyModel};
use crate::metering::Meter;
use crate::ops::Op;
use crate::queue::{Message, Queue};
use crate::region::Region;
use crate::trace::Ctx;
use crate::trace::LatencyMode;
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Failure returned by a function handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnError {
    /// What went wrong.
    pub detail: String,
    /// For batch events: index of the first unprocessed message; earlier
    /// messages are acknowledged, this one and later ones are redelivered.
    pub failed_index: usize,
    /// Whether redelivery should be attempted.
    pub retryable: bool,
    /// The function *deferred* the messages from `failed_index` on
    /// rather than failing on them (it cannot process that one yet —
    /// e.g. an ordering prerequisite on another queue has not landed).
    /// Deferred messages are returned with
    /// [`crate::queue::Queue::nack_deferred`], so they never burn
    /// redelivery attempts toward the dead-letter queue. The function
    /// decides this once and returns; it never waits inside the
    /// invocation. It may already have processed messages *behind*
    /// `failed_index` that do not depend on the deferred one: they come
    /// back with the suffix, and skipping them on redelivery is the
    /// function's business. A queue trigger whose batch deferred whole
    /// holds the redelivery until another trigger of the runtime
    /// consumed a message.
    pub deferred: bool,
}

impl FnError {
    /// A retryable failure starting at batch index 0.
    pub fn retryable(detail: impl Into<String>) -> Self {
        FnError {
            detail: detail.into(),
            failed_index: 0,
            retryable: true,
            deferred: false,
        }
    }

    /// A *deferral* starting at batch index 0: redeliver once someone
    /// else has made progress, without counting an attempt (see
    /// [`FnError::deferred`]).
    pub fn defer(detail: impl Into<String>) -> Self {
        FnError {
            deferred: true,
            ..Self::retryable(detail)
        }
    }

    /// A non-retryable failure.
    pub fn fatal(detail: impl Into<String>) -> Self {
        FnError {
            detail: detail.into(),
            failed_index: 0,
            retryable: false,
            deferred: false,
        }
    }

    /// Sets the first failed batch index.
    pub fn at_index(mut self, index: usize) -> Self {
        self.failed_index = index;
        self
    }
}

/// The event a function is invoked with.
#[derive(Debug, Clone)]
pub enum Event {
    /// A batch of queue messages (event functions).
    Queue {
        /// Messages in delivery order.
        messages: Vec<Message>,
    },
    /// A direct invocation payload (free functions).
    Direct {
        /// Request payload.
        payload: Bytes,
    },
    /// A scheduled tick (scheduled functions).
    Scheduled {
        /// Monotonic tick counter.
        tick: u64,
    },
}

/// Handler interface implemented by function bodies.
pub trait Handler: Send + Sync + 'static {
    /// Processes one event. The `ctx` is pre-configured with the
    /// function's execution environment; all cloud calls made through it
    /// are charged to this invocation.
    fn handle(&self, ctx: &Ctx, event: &Event) -> Result<Bytes, FnError>;
}

impl<F> Handler for F
where
    F: Fn(&Ctx, &Event) -> Result<Bytes, FnError> + Send + Sync + 'static,
{
    fn handle(&self, ctx: &Ctx, event: &Event) -> Result<Bytes, FnError> {
        self(ctx, event)
    }
}

/// How long an idle sandbox stays warm.
const WARM_TTL: Duration = Duration::from_secs(600);

/// Per-function deployment configuration (§5.3.2 explores these knobs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FunctionConfig {
    /// Memory allocation in MB (drives I/O and CPU share).
    pub memory_mb: u32,
    /// CPU architecture.
    pub arch: Arch,
    /// Optional explicit vCPU allocation (GCP-style); `None` derives it
    /// from memory like Lambda.
    pub cpu_alloc: Option<f64>,
}

impl FunctionConfig {
    /// The paper's default configuration (2048 MB, x86).
    pub fn default_2048() -> Self {
        FunctionConfig {
            memory_mb: 2048,
            arch: Arch::X86,
            cpu_alloc: None,
        }
    }

    /// Builder: memory size.
    pub fn with_memory(mut self, memory_mb: u32) -> Self {
        self.memory_mb = memory_mb;
        self
    }

    /// Builder: architecture.
    pub fn with_arch(mut self, arch: Arch) -> Self {
        self.arch = arch;
        self
    }

    /// The execution environment this configuration yields.
    pub fn env(&self) -> ExecEnv {
        let mut env = ExecEnv::function(self.memory_mb).with_arch(self.arch);
        if let Some(cpu) = self.cpu_alloc {
            env = env.with_cpu_alloc(cpu);
        }
        env
    }
}

impl Default for FunctionConfig {
    fn default() -> Self {
        Self::default_2048()
    }
}

struct FunctionEntry {
    name: String,
    config: FunctionConfig,
    handler: Arc<dyn Handler>,
    /// Idle warm sandboxes, stored as their last-use instants.
    warm: Mutex<Vec<Instant>>,
    /// Number of pre-handler crashes still to inject.
    injected_crashes: AtomicU64,
    cold_starts: AtomicU64,
    warm_starts: AtomicU64,
}

impl FunctionEntry {
    /// Acquire a sandbox; true = warm.
    fn acquire_sandbox(&self) -> bool {
        let mut warm = self.warm.lock();
        let now = Instant::now();
        warm.retain(|last| now.duration_since(*last) < WARM_TTL);
        if warm.pop().is_some() {
            self.warm_starts.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            self.cold_starts.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    fn release_sandbox(&self) {
        self.warm.lock().push(Instant::now());
    }
}

type FailureHook = Box<dyn Fn(&str, &FnError) + Send + Sync>;

struct RuntimeInner {
    model: Arc<LatencyModel>,
    mode: LatencyMode,
    meter: Meter,
    region: Region,
    functions: Mutex<HashMap<String, Arc<FunctionEntry>>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    stop: AtomicBool,
    seed: AtomicU64,
    /// Invoked when a function fails non-retryably or exhausts retries —
    /// the paper's "users should be notified of repeated errors" (§2.1).
    failure_hook: Mutex<Option<FailureHook>>,
    chaos: std::sync::OnceLock<Arc<Chaos>>,
    /// Batches settled with at least one message consumed, over every
    /// queue trigger of the runtime; `progressed` wakes the triggers
    /// parked on it (see `trigger_loop`).
    progress: Mutex<u64>,
    progressed: Condvar,
}

/// The function runtime. Cloning shares the runtime.
#[derive(Clone)]
pub struct FaasRuntime {
    inner: Arc<RuntimeInner>,
}

impl FaasRuntime {
    /// Creates a runtime.
    pub fn new(model: Arc<LatencyModel>, mode: LatencyMode, region: Region, meter: Meter) -> Self {
        FaasRuntime {
            inner: Arc::new(RuntimeInner {
                model,
                mode,
                meter,
                region,
                functions: Mutex::new(HashMap::new()),
                workers: Mutex::new(Vec::new()),
                stop: AtomicBool::new(false),
                seed: AtomicU64::new(0x5eed),
                failure_hook: Mutex::new(None),
                chaos: std::sync::OnceLock::new(),
                progress: Mutex::new(0),
                progressed: Condvar::new(),
            }),
        }
    }

    /// Installs the chaos engine (at most once). Queue-triggered
    /// invocations then pass the crash-before / crash-after fault
    /// points; both lean on the queue's redelivery machinery, so a
    /// crashed invocation is retried exactly the way a real provider
    /// retries a crashed sandbox.
    pub fn install_chaos(&self, chaos: Arc<Chaos>) {
        let _ = self.inner.chaos.set(chaos);
    }

    /// A zero-latency runtime for functional tests.
    pub fn disabled(region: Region, meter: Meter) -> Self {
        Self::new(
            Arc::new(LatencyModel::zero()),
            LatencyMode::Disabled,
            region,
            meter,
        )
    }

    /// Registers a function.
    pub fn register(
        &self,
        name: impl Into<String>,
        config: FunctionConfig,
        handler: impl Handler,
    ) -> CloudResult<()> {
        let name = name.into();
        let mut fns = self.inner.functions.lock();
        if fns.contains_key(&name) {
            return Err(CloudError::AlreadyExists { name });
        }
        fns.insert(
            name.clone(),
            Arc::new(FunctionEntry {
                name,
                config,
                handler: Arc::new(handler),
                warm: Mutex::new(Vec::new()),
                injected_crashes: AtomicU64::new(0),
                cold_starts: AtomicU64::new(0),
                warm_starts: AtomicU64::new(0),
            }),
        );
        Ok(())
    }

    /// Sets the repeated-error notification hook.
    pub fn set_failure_hook(&self, hook: impl Fn(&str, &FnError) + Send + Sync + 'static) {
        *self.inner.failure_hook.lock() = Some(Box::new(hook));
    }

    /// Injects `n` pre-handler crashes into the named function: its next
    /// `n` invocations fail retryably before doing any work.
    pub fn inject_crashes(&self, name: &str, n: u64) -> CloudResult<()> {
        let entry = self.entry(name)?;
        entry.injected_crashes.fetch_add(n, Ordering::SeqCst);
        Ok(())
    }

    /// `(cold, warm)` start counts of a function.
    pub fn start_counts(&self, name: &str) -> CloudResult<(u64, u64)> {
        let entry = self.entry(name)?;
        Ok((
            entry.cold_starts.load(Ordering::Relaxed),
            entry.warm_starts.load(Ordering::Relaxed),
        ))
    }

    fn entry(&self, name: &str) -> CloudResult<Arc<FunctionEntry>> {
        self.inner
            .functions
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| CloudError::NotFound {
                key: format!("function {name}"),
            })
    }

    /// Creates a fresh invocation context carrying virtual time `vt_ns`.
    fn invocation_ctx(&self, entry: &FunctionEntry, vt_ns: u64) -> Ctx {
        let seed = self.inner.seed.fetch_add(1, Ordering::Relaxed);
        let ctx = Ctx::new(Arc::clone(&self.inner.model), self.inner.mode, seed);
        ctx.set_region(self.inner.region);
        ctx.set_env(entry.config.env());
        ctx.merge_time_ns(vt_ns);
        ctx
    }

    /// Runs the handler in a sandbox on the given context, charging
    /// start-up overheads and GB-seconds.
    fn run_in_sandbox(
        &self,
        entry: &FunctionEntry,
        ctx: &Ctx,
        event: &Event,
    ) -> Result<Bytes, FnError> {
        let warm = entry.acquire_sandbox();
        if warm {
            ctx.charge(Op::FnWarmOverhead, 0);
        } else {
            ctx.charge(Op::FnColdStart, 0);
        }
        let start_vt = ctx.now();
        let start_real = Instant::now();
        let injected = entry
            .injected_crashes
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        let result = if injected {
            Err(FnError::retryable("injected sandbox crash"))
        } else {
            entry.handler.handle(ctx, event)
        };
        entry.release_sandbox();
        // Bill wall time: virtual when simulating latencies, real otherwise.
        let elapsed = match self.inner.mode {
            LatencyMode::Disabled => start_real.elapsed(),
            _ => ctx.now().saturating_sub(start_vt),
        };
        self.inner
            .meter
            .fn_invocation(entry.config.memory_mb, elapsed);
        result
    }

    /// Synchronously invokes a free function from `caller` (an RPC; §2.1).
    pub fn invoke_direct(&self, caller: &Ctx, name: &str, payload: Bytes) -> CloudResult<Bytes> {
        let entry = self.entry(name)?;
        caller.charge_to(Op::FnInvokeDirect, payload.len(), self.inner.region);
        let ctx = self.invocation_ctx(&entry, caller.now_ns());
        let result = self.run_in_sandbox(&entry, &ctx, &Event::Direct { payload });
        caller.merge_time_ns(ctx.now_ns());
        result.map_err(|e| {
            self.notify_failure(&entry.name, &e);
            CloudError::FunctionFailed {
                function: entry.name.clone(),
                detail: e.detail,
            }
        })
    }

    /// Asynchronously invokes a free function; returns a receiver for the
    /// result (the leader's parallel watch dispatch uses this, Alg. 2 ➍).
    pub fn invoke_async(
        &self,
        caller: &Ctx,
        name: &str,
        payload: Bytes,
    ) -> CloudResult<crossbeam::channel::Receiver<Result<Bytes, FnError>>> {
        let entry = self.entry(name)?;
        caller.charge_to(Op::FnInvokeDirect, payload.len(), self.inner.region);
        let (tx, rx) = crossbeam::channel::bounded(1);
        let runtime = self.clone();
        let vt = caller.now_ns();
        let handle = std::thread::spawn(move || {
            let ctx = runtime.invocation_ctx(&entry, vt);
            let result = runtime.run_in_sandbox(&entry, &ctx, &Event::Direct { payload });
            if let Err(e) = &result {
                runtime.notify_failure(&entry.name, e);
            }
            let _ = tx.send(result);
        });
        // Join the invocations that have finished: an unjoined thread
        // keeps its stack mapped until shutdown. Their results went out
        // on their channels.
        let mut workers = self.inner.workers.lock();
        for finished in workers.extract_if(.., |worker| worker.is_finished()) {
            let _ = finished.join();
        }
        workers.push(handle);
        Ok(rx)
    }

    /// Attaches a queue trigger: `concurrency` pollers consume batches
    /// and invoke the function. FIFO queues additionally serialize per
    /// message group regardless of `concurrency` (requirement (c), §3.1).
    ///
    /// Each poll takes what one ordering group has queued, up to `cap`
    /// messages ([`Queue::receive_up_to_timeout`]). A receive returns as
    /// soon as one message can be delivered, so the cap only bounds how
    /// much of a backlog one invocation takes; it never makes a message
    /// wait. The caller sets it where it attaches the trigger: the
    /// queue kind's per-receive batch ([`crate::QueueKind::max_batch`])
    /// for a provider trigger, the epoch batch for a leader lane.
    pub fn attach_queue_trigger(
        &self,
        name: &str,
        queue: Queue,
        cap: usize,
        concurrency: usize,
    ) -> CloudResult<()> {
        let entry = self.entry(name)?;
        for _ in 0..concurrency.max(1) {
            let runtime = self.clone();
            let entry = Arc::clone(&entry);
            let queue = queue.clone();
            let handle = std::thread::spawn(move || {
                runtime.trigger_loop(entry, queue, cap);
            });
            self.inner.workers.lock().push(handle);
        }
        Ok(())
    }

    fn trigger_loop(&self, entry: Arc<FunctionEntry>, queue: Queue, cap: usize) {
        let visibility = Duration::from_secs(30);
        while !self.inner.stop.load(Ordering::Relaxed) {
            let poll = Duration::from_millis(50);
            let Some(batch) = queue.receive_up_to_timeout(cap, visibility, poll) else {
                if queue.is_closed() {
                    return;
                }
                continue;
            };
            let max_vt = batch
                .messages
                .iter()
                .map(|m| m.sent_vt_ns)
                .max()
                .unwrap_or(0);
            let ctx = self.invocation_ctx(&entry, max_vt);
            let bytes: usize = batch.messages.iter().map(|m| m.body.len()).sum();
            ctx.charge(Op::QueueDispatch(queue.kind()), bytes);
            // Crash-before: the sandbox dies before the handler runs —
            // no side effects, the whole batch is redelivered.
            if let Some(chaos) = self.inner.chaos.get() {
                if chaos.fire(&ctx, FaultKind::FnCrashBefore) {
                    self.inner
                        .meter
                        .fault_injected(FaultKind::FnCrashBefore.label());
                    queue.nack(batch.receipt, 0);
                    continue;
                }
            }
            let event = Event::Queue {
                messages: batch.messages,
            };
            // Sampled before the invocation, so progress another trigger
            // makes while this one runs is never slept through below.
            let progress_seen = *self.inner.progress.lock();
            let mut outcome = self.run_in_sandbox(&entry, &ctx, &event);
            // Crash-after: the handler ran and its side effects are
            // durable, but the sandbox dies before acking — the batch is
            // redelivered anyway, exercising every consumer's
            // duplicate-processing guards.
            if outcome.is_ok() {
                if let Some(chaos) = self.inner.chaos.get() {
                    if chaos.fire(&ctx, FaultKind::FnCrashAfter) {
                        self.inner
                            .meter
                            .fault_injected(FaultKind::FnCrashAfter.label());
                        outcome = Err(FnError::retryable("injected crash after the handler"));
                    }
                }
            }
            if let Err(e) = &outcome {
                if !e.retryable {
                    self.notify_failure(&entry.name, e);
                }
            }
            if queue.settle(batch.receipt, &outcome) > 0 {
                *self.inner.progress.lock() += 1;
                self.inner.progressed.notify_all();
            } else if matches!(&outcome, Err(e) if e.deferred) {
                // The whole batch deferred: what it waits for is in
                // another trigger's hands. Park here — outside the
                // sandbox, unbilled — until some trigger consumes a
                // message (or the poll interval passes) instead of
                // re-invoking the function to find out.
                let mut progress = self.inner.progress.lock();
                if *progress == progress_seen {
                    self.inner.progressed.wait_for(&mut progress, poll);
                }
            }
        }
    }

    /// Attaches a scheduled trigger firing every `interval` (the paper's
    /// heartbeat function runs at the highest Lambda cadence, 1/min).
    pub fn attach_schedule(&self, name: &str, interval: Duration) -> CloudResult<()> {
        let entry = self.entry(name)?;
        let runtime = self.clone();
        let handle = std::thread::spawn(move || {
            let mut tick = 0u64;
            while !runtime.inner.stop.load(Ordering::Relaxed) {
                std::thread::sleep(interval);
                if runtime.inner.stop.load(Ordering::Relaxed) {
                    return;
                }
                tick += 1;
                let ctx = runtime.invocation_ctx(&entry, 0);
                if let Err(e) = runtime.run_in_sandbox(&entry, &ctx, &Event::Scheduled { tick }) {
                    runtime.notify_failure(&entry.name, &e);
                }
            }
        });
        self.inner.workers.lock().push(handle);
        Ok(())
    }

    fn notify_failure(&self, name: &str, err: &FnError) {
        if let Some(hook) = self.inner.failure_hook.lock().as_ref() {
            hook(name, err);
        }
    }

    /// Stops all pollers and schedules, joining worker threads.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        let workers: Vec<_> = std::mem::take(&mut *self.inner.workers.lock());
        for handle in workers {
            let _ = handle.join();
        }
    }

    /// The runtime's usage meter.
    pub fn meter(&self) -> &Meter {
        &self.inner.meter
    }

    /// The runtime's region.
    pub fn region(&self) -> Region {
        self.inner.region
    }

    /// The runtime's latency model.
    pub fn model(&self) -> &Arc<LatencyModel> {
        &self.inner.model
    }

    /// The runtime's latency mode.
    pub fn mode(&self) -> LatencyMode {
        self.inner.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::QueueKind;
    use std::sync::atomic::AtomicUsize;

    fn runtime() -> FaasRuntime {
        FaasRuntime::disabled(Region::US_EAST_1, Meter::new())
    }

    #[test]
    fn direct_invocation_returns_payload() {
        let rt = runtime();
        rt.register(
            "echo",
            FunctionConfig::default(),
            |_ctx: &Ctx, ev: &Event| match ev {
                Event::Direct { payload } => Ok(payload.clone()),
                _ => Err(FnError::fatal("wrong event")),
            },
        )
        .unwrap();
        let ctx = Ctx::disabled();
        let out = rt
            .invoke_direct(&ctx, "echo", Bytes::from_static(b"ping"))
            .unwrap();
        assert_eq!(out.as_ref(), b"ping");
        rt.shutdown();
    }

    #[test]
    fn unknown_function_is_not_found() {
        let rt = runtime();
        let err = rt
            .invoke_direct(&Ctx::disabled(), "nope", Bytes::new())
            .unwrap_err();
        assert!(err.is_not_found());
        rt.shutdown();
    }

    #[test]
    fn duplicate_registration_rejected() {
        let rt = runtime();
        let handler = |_: &Ctx, _: &Event| Ok(Bytes::new());
        rt.register("f", FunctionConfig::default(), handler)
            .unwrap();
        assert!(matches!(
            rt.register("f", FunctionConfig::default(), handler),
            Err(CloudError::AlreadyExists { .. })
        ));
        rt.shutdown();
    }

    #[test]
    fn queue_trigger_processes_batches_in_order() {
        let rt = runtime();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        rt.register(
            "consumer",
            FunctionConfig::default(),
            move |_: &Ctx, ev: &Event| {
                if let Event::Queue { messages } = ev {
                    let mut guard = seen2.lock();
                    for m in messages {
                        guard.push(String::from_utf8_lossy(&m.body).into_owned());
                    }
                }
                Ok(Bytes::new())
            },
        )
        .unwrap();
        let q = Queue::new("q", QueueKind::Fifo, Region::US_EAST_1, Meter::new());
        rt.attach_queue_trigger("consumer", q.clone(), 10, 1)
            .unwrap();
        let ctx = Ctx::disabled();
        for i in 0..20 {
            q.send(&ctx, "session", Bytes::from(format!("m{i:02}")))
                .unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while seen.lock().len() < 20 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        rt.shutdown();
        let got = seen.lock().clone();
        let want: Vec<String> = (0..20).map(|i| format!("m{i:02}")).collect();
        assert_eq!(got, want);
    }

    /// A trigger takes what one group has queued, up to its cap: a
    /// backlog of 25 drains as 10, 10 and 5, with no small first batches.
    #[test]
    fn queue_trigger_takes_what_is_queued_up_to_its_cap() {
        let rt = runtime();
        let batch_sizes = Arc::new(Mutex::new(Vec::new()));
        let sizes2 = Arc::clone(&batch_sizes);
        rt.register(
            "capped",
            FunctionConfig::default(),
            move |_: &Ctx, ev: &Event| {
                if let Event::Queue { messages } = ev {
                    sizes2.lock().push(messages.len());
                }
                Ok(Bytes::new())
            },
        )
        .unwrap();
        let q = Queue::new("q", QueueKind::Fifo, Region::US_EAST_1, Meter::new());
        // The backlog is queued before the trigger attaches, so every
        // poll finds it waiting.
        let ctx = Ctx::disabled();
        for i in 0..25 {
            q.send(&ctx, "session", Bytes::from(format!("m{i}")))
                .unwrap();
        }
        rt.attach_queue_trigger("capped", q.clone(), 10, 1).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while batch_sizes.lock().iter().sum::<usize>() < 25 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        rt.shutdown();
        assert_eq!(*batch_sizes.lock(), vec![10, 10, 5]);
    }

    #[test]
    fn retryable_failure_redelivers() {
        let rt = runtime();
        let attempts = Arc::new(AtomicUsize::new(0));
        let attempts2 = Arc::clone(&attempts);
        rt.register(
            "flaky",
            FunctionConfig::default(),
            move |_: &Ctx, _: &Event| {
                let n = attempts2.fetch_add(1, Ordering::SeqCst);
                if n == 0 {
                    Err(FnError::retryable("first try fails"))
                } else {
                    Ok(Bytes::new())
                }
            },
        )
        .unwrap();
        let q = Queue::new("q", QueueKind::Fifo, Region::US_EAST_1, Meter::new());
        rt.attach_queue_trigger("flaky", q.clone(), 1, 1).unwrap();
        q.send(&Ctx::disabled(), "g", Bytes::from_static(b"x"))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while attempts.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        rt.shutdown();
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
        assert!(q.dead_letters().is_empty());
    }

    #[test]
    fn fatal_failure_notifies_hook() {
        let rt = runtime();
        let notified = Arc::new(AtomicUsize::new(0));
        let notified2 = Arc::clone(&notified);
        rt.set_failure_hook(move |_, _| {
            notified2.fetch_add(1, Ordering::SeqCst);
        });
        rt.register("bad", FunctionConfig::default(), |_: &Ctx, _: &Event| {
            Err(FnError::fatal("boom"))
        })
        .unwrap();
        let err = rt
            .invoke_direct(&Ctx::disabled(), "bad", Bytes::new())
            .unwrap_err();
        assert!(matches!(err, CloudError::FunctionFailed { .. }));
        assert_eq!(notified.load(Ordering::SeqCst), 1);
        rt.shutdown();
    }

    #[test]
    fn injected_crashes_consume_then_recover() {
        let rt = runtime();
        let runs = Arc::new(AtomicUsize::new(0));
        let runs2 = Arc::clone(&runs);
        rt.register(
            "victim",
            FunctionConfig::default(),
            move |_: &Ctx, _: &Event| {
                runs2.fetch_add(1, Ordering::SeqCst);
                Ok(Bytes::new())
            },
        )
        .unwrap();
        rt.inject_crashes("victim", 2).unwrap();
        let q = Queue::new("q", QueueKind::Fifo, Region::US_EAST_1, Meter::new());
        rt.attach_queue_trigger("victim", q.clone(), 1, 1).unwrap();
        q.send(&Ctx::disabled(), "g", Bytes::from_static(b"x"))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while runs.load(Ordering::SeqCst) < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        rt.shutdown();
        // Two crashes consumed, third delivery succeeds.
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn warm_sandbox_reuse_is_tracked() {
        let rt = runtime();
        rt.register("f", FunctionConfig::default(), |_: &Ctx, _: &Event| {
            Ok(Bytes::new())
        })
        .unwrap();
        let ctx = Ctx::disabled();
        rt.invoke_direct(&ctx, "f", Bytes::new()).unwrap();
        rt.invoke_direct(&ctx, "f", Bytes::new()).unwrap();
        let (cold, warm) = rt.start_counts("f").unwrap();
        assert_eq!(cold, 1);
        assert_eq!(warm, 1);
        rt.shutdown();
    }

    #[test]
    fn scheduled_function_ticks() {
        let rt = runtime();
        let ticks = Arc::new(AtomicUsize::new(0));
        let ticks2 = Arc::clone(&ticks);
        rt.register(
            "cron",
            FunctionConfig::default(),
            move |_: &Ctx, ev: &Event| {
                if matches!(ev, Event::Scheduled { .. }) {
                    ticks2.fetch_add(1, Ordering::SeqCst);
                }
                Ok(Bytes::new())
            },
        )
        .unwrap();
        rt.attach_schedule("cron", Duration::from_millis(10))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while ticks.load(Ordering::SeqCst) < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        rt.shutdown();
        assert!(ticks.load(Ordering::SeqCst) >= 3);
    }

    #[test]
    fn async_invocation_delivers_result() {
        let rt = runtime();
        rt.register("w", FunctionConfig::default(), |_: &Ctx, _: &Event| {
            Ok(Bytes::from_static(b"done"))
        })
        .unwrap();
        let ctx = Ctx::disabled();
        let rx = rt.invoke_async(&ctx, "w", Bytes::new()).unwrap();
        let out = rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(out.as_ref(), b"done");
        rt.shutdown();
    }

    /// A finished asynchronous invocation does not keep its thread's
    /// handle, and with it its stack, until shutdown.
    #[test]
    fn finished_async_invocations_release_their_threads() {
        let rt = runtime();
        rt.register("w", FunctionConfig::default(), |_: &Ctx, _: &Event| {
            Ok(Bytes::new())
        })
        .unwrap();
        let ctx = Ctx::disabled();
        for _ in 0..20 {
            let rx = rt.invoke_async(&ctx, "w", Bytes::new()).unwrap();
            rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while !rt.inner.workers.lock().iter().all(|w| w.is_finished()) {
            assert!(Instant::now() < deadline, "invocation threads never ended");
            std::thread::sleep(Duration::from_millis(1));
        }
        rt.invoke_async(&ctx, "w", Bytes::new()).unwrap();
        assert_eq!(rt.inner.workers.lock().len(), 1);
        rt.shutdown();
    }

    #[test]
    fn gb_seconds_metered_per_invocation() {
        let meter = Meter::new();
        let rt = FaasRuntime::disabled(Region::US_EAST_1, meter.clone());
        rt.register(
            "f",
            FunctionConfig::default().with_memory(1024),
            |_: &Ctx, _: &Event| {
                std::thread::sleep(Duration::from_millis(5));
                Ok(Bytes::new())
            },
        )
        .unwrap();
        rt.invoke_direct(&Ctx::disabled(), "f", Bytes::new())
            .unwrap();
        let s = meter.snapshot();
        assert_eq!(s.fn_invocations, 1);
        assert!(s.fn_gb_seconds > 0.0);
        rt.shutdown();
    }
}
