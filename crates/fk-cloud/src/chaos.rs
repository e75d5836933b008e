//! Seeded, deterministic fault injection for the simulated cloud.
//!
//! The paper's core robustness claim (§2.1, §3.6) is that FaaSKeeper
//! stays correct on infrastructure that is *allowed* to misbehave:
//! functions crash and are retried, queues deliver at least once, KV
//! transactions get cancelled, every service throttles. This module is
//! how the reproduction actually exercises those failure classes instead
//! of merely declaring them in [`crate::error::CloudError`].
//!
//! A [`FaultPlan`] describes, per fault point, a firing probability and
//! a total budget. A [`Chaos`] engine built from the plan is installed
//! on each service ([`crate::kvstore::KvStore`],
//! [`crate::objectstore::ObjectStore`], [`crate::queue::Queue`],
//! [`crate::faas::FaasRuntime`]) after construction; services consult it
//! at their operation boundaries. Decisions are drawn from the
//! requesting [`Ctx`]'s auxiliary RNG stream ([`Ctx::aux_roll`]), which
//! forks alongside the latency RNG but never mixes with it, so:
//!
//! * a failing schedule **replays from its seed** — same plan + same
//!   root seed + same request structure ⇒ the same per-request fault
//!   decisions, regardless of thread interleaving;
//! * enabling chaos never perturbs latency sampling, so a chaotic run
//!   and its fault-free twin draw identical latency streams;
//! * a **disabled plan draws nothing**: no engine is installed, no RNG
//!   is consumed, and the deployment is byte-identical to one built
//!   before this module existed.
//!
//! Budgets are shared atomics decremented *after* the probability roll,
//! so exhausting a budget never shifts any context's decision stream —
//! only whether a successful roll is converted into a fault, which near
//! exhaustion may depend on thread timing. That marginal nondeterminism
//! is confined to the final few faults of a bounded schedule and is the
//! price of keeping the hot path lock-free.
//!
//! [`CloudError::InjectedFault`] is constructed *only* here — a test
//! that sees one knows the chaos engine produced it.

use crate::error::CloudError;
use crate::trace::Ctx;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The service-boundary fault points the engine can fire at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// KV conditional write / update / delete fails transiently.
    KvError,
    /// KV operation rejected with [`CloudError::Throttled`].
    KvThrottle,
    /// Multi-item KV transaction cancelled before applying anything.
    KvCancel,
    /// Object store PUT/GET/DELETE fails transiently.
    ObjError,
    /// A rival writer re-stores an object's bytes just before a
    /// conditional PUT of it: the object gets a fresh tag, so an
    /// `If-Match` naming the tag the writer read fails (412).
    ObjTagRace,
    /// Queue send / send-batch fails transiently (nothing enqueued).
    QueueError,
    /// A sent message is enqueued twice (at-least-once duplication).
    QueueDuplicate,
    /// A sent message's delivery is held back for a few receive polls.
    QueueDelay,
    /// Function sandbox crashes before the handler runs.
    FnCrashBefore,
    /// Function sandbox crashes *after* the handler ran: side effects
    /// are applied but the triggering batch is redelivered anyway.
    FnCrashAfter,
    /// A replica-feed notification is dropped before it reaches one
    /// replica (the replica pulls the frame from the feed log with its
    /// next notification).
    FeedDrop,
    /// A replica-feed notification reaches one replica twice (the second
    /// pull finds nothing new).
    FeedDuplicate,
    /// A replica-feed notification is held back past the next frame (the
    /// replica pulls both with the next notification).
    FeedDelay,
    /// Durable store: the fsync after a WAL append fails — the batch is
    /// not acknowledged and the engine repairs the log before retrying.
    DiskFsyncFail,
    /// Durable store: a WAL append tears mid-record, leaving a partial
    /// frame the CRC framing detects and truncates away.
    DiskWalTear,
    /// Durable store: an SST flush/compaction write stops partway; the
    /// garbage file is never referenced by the manifest.
    DiskSstPartial,
}

impl FaultKind {
    /// Stable label used in meters and error details.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::KvError => "kv_error",
            FaultKind::KvThrottle => "kv_throttle",
            FaultKind::KvCancel => "kv_cancel",
            FaultKind::ObjError => "obj_error",
            FaultKind::ObjTagRace => "obj_tag_race",
            FaultKind::QueueError => "queue_error",
            FaultKind::QueueDuplicate => "queue_duplicate",
            FaultKind::QueueDelay => "queue_delay",
            FaultKind::FnCrashBefore => "fn_crash_before",
            FaultKind::FnCrashAfter => "fn_crash_after",
            FaultKind::FeedDrop => "feed_drop",
            FaultKind::FeedDuplicate => "feed_duplicate",
            FaultKind::FeedDelay => "feed_delay",
            FaultKind::DiskFsyncFail => "disk_fsync_fail",
            FaultKind::DiskWalTear => "disk_wal_tear",
            FaultKind::DiskSstPartial => "disk_sst_partial",
        }
    }

    /// All fault points, in a stable order.
    pub const ALL: [FaultKind; 16] = [
        FaultKind::KvError,
        FaultKind::KvThrottle,
        FaultKind::KvCancel,
        FaultKind::ObjError,
        FaultKind::ObjTagRace,
        FaultKind::QueueError,
        FaultKind::QueueDuplicate,
        FaultKind::QueueDelay,
        FaultKind::FnCrashBefore,
        FaultKind::FnCrashAfter,
        FaultKind::FeedDrop,
        FaultKind::FeedDuplicate,
        FaultKind::FeedDelay,
        FaultKind::DiskFsyncFail,
        FaultKind::DiskWalTear,
        FaultKind::DiskSstPartial,
    ];
}

/// One fault point's firing rate and total allowance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability a passing operation trips this fault.
    pub prob: f64,
    /// Total times this fault may fire over the plan's lifetime
    /// (bounds retry amplification so hostile schedules still converge).
    pub budget: u64,
}

impl FaultSpec {
    /// A fault point that never fires (and never draws the RNG).
    pub const OFF: FaultSpec = FaultSpec {
        prob: 0.0,
        budget: 0,
    };

    /// A fault point firing with `prob` up to `budget` times.
    pub fn new(prob: f64, budget: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability out of range");
        FaultSpec { prob, budget }
    }

    /// True if this point can ever fire.
    pub fn enabled(&self) -> bool {
        self.prob > 0.0 && self.budget > 0
    }
}

/// A complete fault schedule: per-point specs plus the seed that names
/// it. The seed is *descriptive* — decisions are drawn from each
/// request's [`Ctx`] stream — but recording it on the plan is what makes
/// a failure report replayable ("seed 0x2A, plan standard").
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed identifying this schedule in logs and failure reports.
    pub seed: u64,
    /// Transient KV write/update/delete failure.
    pub kv_error: FaultSpec,
    /// KV throttling.
    pub kv_throttle: FaultSpec,
    /// KV transaction cancellation.
    pub kv_cancel: FaultSpec,
    /// Transient object store failure.
    pub obj_error: FaultSpec,
    /// A rival re-store between a writer's read and its conditional PUT.
    pub obj_tag_race: FaultSpec,
    /// Transient queue send failure.
    pub queue_error: FaultSpec,
    /// Duplicate enqueue of a sent message.
    pub queue_duplicate: FaultSpec,
    /// Delayed delivery of a sent message.
    pub queue_delay: FaultSpec,
    /// Sandbox crash before the handler.
    pub fn_crash_before: FaultSpec,
    /// Sandbox crash after the handler's side effects landed.
    pub fn_crash_after: FaultSpec,
    /// Dropped replica-feed frame.
    pub feed_drop: FaultSpec,
    /// Duplicated replica-feed frame.
    pub feed_duplicate: FaultSpec,
    /// Reordered (delayed) replica-feed frame.
    pub feed_delay: FaultSpec,
    /// Durable-store WAL fsync failure.
    pub disk_fsync_fail: FaultSpec,
    /// Durable-store torn WAL append.
    pub disk_wal_tear: FaultSpec,
    /// Durable-store partial SST write.
    pub disk_sst_partial: FaultSpec,
}

impl FaultPlan {
    /// The no-op plan: nothing fires, nothing is installed, nothing is
    /// drawn. A deployment configured with it is byte-identical to an
    /// untouched one.
    pub fn disabled() -> Self {
        FaultPlan {
            seed: 0,
            kv_error: FaultSpec::OFF,
            kv_throttle: FaultSpec::OFF,
            kv_cancel: FaultSpec::OFF,
            obj_error: FaultSpec::OFF,
            obj_tag_race: FaultSpec::OFF,
            queue_error: FaultSpec::OFF,
            queue_duplicate: FaultSpec::OFF,
            queue_delay: FaultSpec::OFF,
            fn_crash_before: FaultSpec::OFF,
            fn_crash_after: FaultSpec::OFF,
            feed_drop: FaultSpec::OFF,
            feed_duplicate: FaultSpec::OFF,
            feed_delay: FaultSpec::OFF,
            disk_fsync_fail: FaultSpec::OFF,
            disk_wal_tear: FaultSpec::OFF,
            disk_sst_partial: FaultSpec::OFF,
        }
    }

    /// The standard hostile-cloud schedule used by the chaos gates:
    /// every fault class armed at a few percent with budgets that keep
    /// total retry amplification bounded.
    pub fn standard(seed: u64) -> Self {
        FaultPlan {
            seed,
            kv_error: FaultSpec::new(0.03, 40),
            kv_throttle: FaultSpec::new(0.02, 30),
            kv_cancel: FaultSpec::new(0.02, 12),
            obj_error: FaultSpec::new(0.03, 40),
            obj_tag_race: FaultSpec::new(0.05, 20),
            queue_error: FaultSpec::new(0.02, 25),
            queue_duplicate: FaultSpec::new(0.02, 20),
            queue_delay: FaultSpec::new(0.02, 20),
            fn_crash_before: FaultSpec::new(0.01, 10),
            fn_crash_after: FaultSpec::new(0.01, 10),
            feed_drop: FaultSpec::new(0.03, 20),
            feed_duplicate: FaultSpec::new(0.02, 15),
            feed_delay: FaultSpec::new(0.02, 15),
            disk_fsync_fail: FaultSpec::new(0.01, 8),
            disk_wal_tear: FaultSpec::new(0.01, 8),
            disk_sst_partial: FaultSpec::new(0.02, 8),
        }
    }

    /// True if any fault point can fire.
    pub fn enabled(&self) -> bool {
        FaultKind::ALL.iter().any(|k| self.spec(*k).enabled())
    }

    /// The spec for one fault point.
    pub fn spec(&self, kind: FaultKind) -> FaultSpec {
        match kind {
            FaultKind::KvError => self.kv_error,
            FaultKind::KvThrottle => self.kv_throttle,
            FaultKind::KvCancel => self.kv_cancel,
            FaultKind::ObjError => self.obj_error,
            FaultKind::ObjTagRace => self.obj_tag_race,
            FaultKind::QueueError => self.queue_error,
            FaultKind::QueueDuplicate => self.queue_duplicate,
            FaultKind::QueueDelay => self.queue_delay,
            FaultKind::FnCrashBefore => self.fn_crash_before,
            FaultKind::FnCrashAfter => self.fn_crash_after,
            FaultKind::FeedDrop => self.feed_drop,
            FaultKind::FeedDuplicate => self.feed_duplicate,
            FaultKind::FeedDelay => self.feed_delay,
            FaultKind::DiskFsyncFail => self.disk_fsync_fail,
            FaultKind::DiskWalTear => self.disk_wal_tear,
            FaultKind::DiskSstPartial => self.disk_sst_partial,
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::disabled()
    }
}

/// The live engine: a plan plus remaining budgets and fired counts.
/// Cloning the `Arc` shares the budgets, so every service boundary
/// draws down the same allowance.
#[derive(Debug)]
pub struct Chaos {
    plan: FaultPlan,
    remaining: [AtomicU64; 16],
    fired: [AtomicU64; 16],
}

impl Chaos {
    /// Builds an engine from a plan. Returns `None` for a plan that can
    /// never fire — callers install nothing, keeping the disabled
    /// configuration byte-identical to an untouched deployment.
    pub fn from_plan(plan: FaultPlan) -> Option<Arc<Chaos>> {
        if !plan.enabled() {
            return None;
        }
        let remaining = FaultKind::ALL.map(|k| AtomicU64::new(plan.spec(k).budget));
        let fired = FaultKind::ALL.map(|_| AtomicU64::new(0));
        Some(Arc::new(Chaos {
            plan,
            remaining,
            fired,
        }))
    }

    /// The plan this engine runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn index(kind: FaultKind) -> usize {
        FaultKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind in ALL")
    }

    /// Decides whether `kind` fires for the operation running on `ctx`.
    ///
    /// The probability roll consumes the context's auxiliary stream
    /// *before* the budget check, so budget exhaustion never shifts any
    /// later decision in the same stream.
    pub fn fire(&self, ctx: &Ctx, kind: FaultKind) -> bool {
        let spec = self.plan.spec(kind);
        if !spec.enabled() {
            return false;
        }
        if ctx.aux_roll() >= spec.prob {
            return false;
        }
        let idx = Self::index(kind);
        let took = self.remaining[idx]
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        if took {
            self.fired[idx].fetch_add(1, Ordering::Relaxed);
        }
        took
    }

    /// How many times `kind` has fired.
    pub fn fired(&self, kind: FaultKind) -> u64 {
        self.fired[Self::index(kind)].load(Ordering::Relaxed)
    }

    /// Total faults fired across all points.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The transient error surfaced when `kind` fires at an error-shaped
    /// fault point. This is the **only** constructor of
    /// [`CloudError::InjectedFault`] in the codebase.
    pub fn error(&self, kind: FaultKind) -> CloudError {
        CloudError::InjectedFault {
            detail: format!("chaos {} (plan seed {:#x})", kind.label(), self.plan.seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Ctx;

    #[test]
    fn disabled_plan_builds_no_engine() {
        assert!(Chaos::from_plan(FaultPlan::disabled()).is_none());
        assert!(!FaultPlan::disabled().enabled());
        assert!(FaultPlan::standard(1).enabled());
    }

    #[test]
    fn off_spec_never_draws_the_stream() {
        let mut plan = FaultPlan::disabled();
        plan.kv_error = FaultSpec::new(1.0, 5);
        let chaos = Chaos::from_plan(plan).unwrap();
        let ctx = Ctx::disabled();
        // An OFF point returns early without consuming the aux stream…
        assert!(!chaos.fire(&ctx, FaultKind::ObjError));
        // …so the armed point's first decision matches a fresh context's.
        let fresh = Ctx::disabled();
        assert_eq!(
            chaos.fire(&ctx, FaultKind::KvError),
            chaos.fire(&fresh, FaultKind::KvError)
        );
    }

    #[test]
    fn decisions_replay_from_the_seed() {
        let plan = FaultPlan::standard(42);
        let a = Chaos::from_plan(plan.clone()).unwrap();
        let b = Chaos::from_plan(plan).unwrap();
        let ctx_a = Ctx::disabled();
        let ctx_b = Ctx::disabled();
        for _ in 0..200 {
            assert_eq!(
                a.fire(&ctx_a, FaultKind::KvError),
                b.fire(&ctx_b, FaultKind::KvError)
            );
        }
    }

    #[test]
    fn budget_caps_total_fires() {
        let mut plan = FaultPlan::disabled();
        plan.queue_error = FaultSpec::new(1.0, 3);
        let chaos = Chaos::from_plan(plan).unwrap();
        let ctx = Ctx::disabled();
        let fired = (0..10)
            .filter(|_| chaos.fire(&ctx, FaultKind::QueueError))
            .count();
        assert_eq!(fired, 3);
        assert_eq!(chaos.fired(FaultKind::QueueError), 3);
        assert_eq!(chaos.total_fired(), 3);
    }

    /// The replica-feed fault points are armed in the standard plan and
    /// wired through the spec lookup like every other kind.
    #[test]
    fn feed_fault_points_are_armed_and_budgeted() {
        let plan = FaultPlan::standard(7);
        for kind in [
            FaultKind::FeedDrop,
            FaultKind::FeedDuplicate,
            FaultKind::FeedDelay,
        ] {
            assert!(plan.spec(kind).enabled(), "{} armed", kind.label());
        }
        assert!(!FaultPlan::disabled().feed_drop.enabled());
        let mut only_feed = FaultPlan::disabled();
        only_feed.feed_drop = FaultSpec::new(1.0, 2);
        let chaos = Chaos::from_plan(only_feed).unwrap();
        let ctx = Ctx::disabled();
        let fired = (0..5)
            .filter(|_| chaos.fire(&ctx, FaultKind::FeedDrop))
            .count();
        assert_eq!(fired, 2, "feed budgets cap like the rest");
    }

    /// The durable-store disk fault points are armed in the standard
    /// plan so the crash-recovery suite and chaos gates exercise them.
    #[test]
    fn disk_fault_points_are_armed_and_budgeted() {
        let plan = FaultPlan::standard(9);
        for kind in [
            FaultKind::DiskFsyncFail,
            FaultKind::DiskWalTear,
            FaultKind::DiskSstPartial,
        ] {
            assert!(plan.spec(kind).enabled(), "{} armed", kind.label());
        }
        assert!(!FaultPlan::disabled().disk_wal_tear.enabled());
        let mut only_disk = FaultPlan::disabled();
        only_disk.disk_fsync_fail = FaultSpec::new(1.0, 3);
        let chaos = Chaos::from_plan(only_disk).unwrap();
        let ctx = Ctx::disabled();
        let fired = (0..6)
            .filter(|_| chaos.fire(&ctx, FaultKind::DiskFsyncFail))
            .count();
        assert_eq!(fired, 3, "disk budgets cap like the rest");
    }

    #[test]
    fn injected_fault_is_retryable_and_names_the_seed() {
        let chaos = Chaos::from_plan(FaultPlan::standard(0xBEEF)).unwrap();
        let err = chaos.error(FaultKind::ObjError);
        assert!(err.is_retryable());
        assert!(err.to_string().contains("0xbeef"));
    }
}
