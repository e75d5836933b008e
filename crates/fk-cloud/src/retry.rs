//! Unified retry policy for cloud call sites.
//!
//! Every fk-core call into the simulated cloud used to be single-shot:
//! the first `Throttled` or injected transient killed the request (or
//! leaned on queue redelivery, burning a delivery attempt toward the
//! dead-letter queue). This module gives all of them one policy:
//! exponential backoff with **decorrelated jitter** (the AWS
//! architecture-blog algorithm: each sleep is drawn uniformly from
//! `[base, 3 × previous]`, capped), a per-operation attempt budget, and
//! [`CloudError::is_retryable`](crate::error::CloudError::is_retryable)-driven classification — permanent
//! errors (condition failures, not-found, payload limits) surface
//! immediately.
//!
//! Backoff sleeps charge **virtual time** via [`Ctx::advance`], never a
//! real thread sleep: benchmarks see the latency cost of retries at
//! paper scale while wall time stays in microseconds. Jitter draws come
//! from the context's auxiliary stream ([`Ctx::aux_roll`]) — the same
//! stream chaos decisions use — so a fault-free run performs no draws
//! at all and retried runs replay deterministically from the seed.
//!
//! Each retry is recorded on the service's [`Meter`] under
//! `retry:<site>`, which is how the soak gate measures retry
//! amplification per call site.

use crate::error::CloudResult;
use crate::metering::Meter;
use crate::trace::Ctx;
use std::time::Duration;

/// Backoff shape and attempt budget for one class of call site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retrying.
    pub max_attempts: u32,
    /// First backoff sleep; also the floor of every jittered sleep.
    pub base: Duration,
    /// Ceiling on any single backoff sleep.
    pub cap: Duration,
}

impl RetryPolicy {
    /// The default for storage and queue round trips: up to 5 attempts,
    /// 10 ms base, 2 s cap — comfortably above the standard fault
    /// plan's transient burst length while bounding worst-case stall.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(2),
        }
    }

    /// Tighter budget for latency-critical paths that have a second
    /// line of defence (queue redelivery, leader repair): 3 attempts,
    /// 5 ms base, 200 ms cap.
    pub fn quick() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(200),
        }
    }

    /// Single-shot (no retries) — for call sites whose caller owns the
    /// retry loop.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base: Duration::ZERO,
            cap: Duration::ZERO,
        }
    }

    /// Builder: total attempts.
    pub fn with_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::standard()
    }
}

/// Runs `op` under `policy`, retrying transient failures with
/// decorrelated-jitter backoff charged to `ctx`'s virtual clock and
/// metered on `meter` as `retry:<site>`.
///
/// Only errors whose [`CloudError::is_retryable`](crate::error::CloudError::is_retryable) is true are retried;
/// everything else — and the last transient after the budget is spent —
/// returns to the caller unchanged.
pub fn with_retry<T>(
    ctx: &Ctx,
    meter: &Meter,
    policy: &RetryPolicy,
    site: &'static str,
    mut op: impl FnMut() -> CloudResult<T>,
) -> CloudResult<T> {
    let mut prev_sleep = policy.base;
    for attempt in 1.. {
        match op() {
            Ok(value) => return Ok(value),
            Err(err) if err.is_retryable() && attempt < policy.max_attempts => {
                meter.retry(site);
                let sleep = decorrelated_jitter(ctx, policy, prev_sleep);
                ctx.advance(sleep);
                prev_sleep = sleep;
            }
            Err(err) => return Err(err),
        }
    }
    unreachable!("loop returns within max_attempts")
}

/// Next sleep: uniform in `[base, 3 × previous]`, capped.
fn decorrelated_jitter(ctx: &Ctx, policy: &RetryPolicy, prev: Duration) -> Duration {
    let base = policy.base.as_nanos() as u64;
    let span = (prev.as_nanos() as u64).saturating_mul(3).max(base);
    let jittered = base + ((span - base) as f64 * ctx.aux_roll()) as u64;
    Duration::from_nanos(jittered)
        .min(policy.cap)
        .max(policy.base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CloudError;
    use std::cell::Cell;

    fn flaky(fail_times: usize) -> impl FnMut() -> CloudResult<u32> {
        let remaining = Cell::new(fail_times);
        move || {
            if remaining.get() > 0 {
                remaining.set(remaining.get() - 1);
                Err(CloudError::Throttled)
            } else {
                Ok(7)
            }
        }
    }

    #[test]
    fn transient_errors_are_absorbed_within_budget() {
        let ctx = Ctx::disabled();
        let meter = Meter::new();
        let out = with_retry(&ctx, &meter, &RetryPolicy::standard(), "test", flaky(3));
        assert_eq!(out.unwrap(), 7);
        let s = meter.snapshot();
        assert_eq!(s.retries, 3);
        assert_eq!(s.per_op["retry:test"], 3);
        assert!(ctx.now() >= Duration::from_millis(30), "backoff charged");
    }

    #[test]
    fn budget_exhaustion_surfaces_the_last_error() {
        let ctx = Ctx::disabled();
        let meter = Meter::new();
        let out = with_retry(&ctx, &meter, &RetryPolicy::quick(), "test", flaky(10));
        assert_eq!(out.unwrap_err(), CloudError::Throttled);
        assert_eq!(meter.snapshot().retries, 2, "attempts − 1 retries");
    }

    #[test]
    fn permanent_errors_return_immediately() {
        let ctx = Ctx::disabled();
        let meter = Meter::new();
        let mut calls = 0;
        let out: CloudResult<()> =
            with_retry(&ctx, &meter, &RetryPolicy::standard(), "test", || {
                calls += 1;
                Err(CloudError::ConditionFailed {
                    detail: "guard".into(),
                })
            });
        assert!(out.unwrap_err().is_condition_failed());
        assert_eq!(calls, 1);
        assert_eq!(meter.snapshot().retries, 0);
        assert_eq!(ctx.now(), Duration::ZERO, "no backoff charged");
    }

    #[test]
    fn success_path_draws_nothing() {
        let ctx = Ctx::disabled();
        let meter = Meter::new();
        with_retry(&ctx, &meter, &RetryPolicy::standard(), "test", || Ok(1)).unwrap();
        // The aux stream was untouched: its first draw matches a fresh
        // context's.
        assert_eq!(ctx.aux_roll(), Ctx::disabled().aux_roll());
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let ctx = Ctx::disabled();
        let policy = RetryPolicy::standard();
        let mut prev = policy.base;
        for _ in 0..100 {
            let sleep = decorrelated_jitter(&ctx, &policy, prev);
            assert!(sleep >= policy.base);
            assert!(sleep <= policy.cap);
            prev = sleep;
        }
    }

    #[test]
    fn none_policy_is_single_shot() {
        let ctx = Ctx::disabled();
        let meter = Meter::new();
        let out = with_retry(&ctx, &meter, &RetryPolicy::none(), "test", flaky(1));
        assert_eq!(out.unwrap_err(), CloudError::Throttled);
        assert_eq!(meter.snapshot().retries, 0);
    }

    /// With `base == cap` the jitter window collapses to a point, so the
    /// backoff schedule is exactly pinned: every sleep is `base` and the
    /// virtual clock advances by `(attempts − 1) × base`, independent of
    /// the aux-stream draws.
    #[test]
    fn backoff_schedule_is_pinned_when_base_equals_cap() {
        let ctx = Ctx::disabled();
        let meter = Meter::new();
        let policy = RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(10),
        };
        let out = with_retry(&ctx, &meter, &policy, "pin", flaky(3));
        assert_eq!(out.unwrap(), 7);
        assert_eq!(ctx.now(), Duration::from_millis(30), "3 sleeps of 10 ms");
        assert_eq!(meter.snapshot().retries, 3);
    }

    /// The canonical policies carry the documented shapes, and the jitter
    /// growth from `standard()`'s base can never escape `[base, cap]`
    /// even after repeated tripling.
    #[test]
    fn canonical_policies_have_the_documented_bounds() {
        let standard = RetryPolicy::standard();
        assert_eq!(standard.max_attempts, 5);
        assert_eq!(standard.base, Duration::from_millis(10));
        assert_eq!(standard.cap, Duration::from_secs(2));
        let quick = RetryPolicy::quick();
        assert_eq!(quick.max_attempts, 3);
        assert_eq!(quick.base, Duration::from_millis(5));
        assert_eq!(quick.cap, Duration::from_millis(200));
        assert_eq!(RetryPolicy::none().max_attempts, 1);
        assert_eq!(RetryPolicy::default(), standard);
    }

    /// Attempt-bound edges: `with_attempts(0)` clamps to a single shot,
    /// and a budget of N makes exactly N calls when every one fails.
    #[test]
    fn attempt_bounds_hold_at_the_edges() {
        let ctx = Ctx::disabled();
        let meter = Meter::new();
        let clamped = RetryPolicy::standard().with_attempts(0);
        assert_eq!(clamped.max_attempts, 1, "zero clamps to one attempt");
        let out = with_retry(&ctx, &meter, &clamped, "edge", flaky(1));
        assert_eq!(out.unwrap_err(), CloudError::Throttled);
        assert_eq!(meter.snapshot().retries, 0);

        let mut calls = 0;
        let bounded = RetryPolicy::standard().with_attempts(3);
        let out: CloudResult<()> = with_retry(&ctx, &meter, &bounded, "edge", || {
            calls += 1;
            Err(CloudError::Throttled)
        });
        assert_eq!(out.unwrap_err(), CloudError::Throttled);
        assert_eq!(calls, 3, "budget of 3 makes exactly 3 calls");
        assert_eq!(meter.snapshot().retries, 2, "attempts − 1 retries");
    }

    /// Exhaustive classification: of every [`CloudError`] variant, only
    /// `Throttled` and `InjectedFault` are retryable, and `with_retry`
    /// honors that — a non-retryable error makes exactly one call.
    #[test]
    fn only_throttled_and_injected_faults_are_retryable() {
        let cases: Vec<(CloudError, bool)> = vec![
            (CloudError::ConditionFailed { detail: "d".into() }, false),
            (CloudError::NotFound { key: "k".into() }, false),
            (CloudError::AlreadyExists { name: "n".into() }, false),
            (CloudError::PayloadTooLarge { size: 2, limit: 1 }, false),
            (CloudError::Throttled, true),
            (
                CloudError::TransactionCancelled {
                    index: 0,
                    detail: "d".into(),
                },
                false,
            ),
            (
                CloudError::FunctionFailed {
                    function: "f".into(),
                    detail: "d".into(),
                },
                false,
            ),
            (CloudError::InjectedFault { detail: "d".into() }, true),
            (CloudError::InvalidOperation { detail: "d".into() }, false),
            (CloudError::ServiceStopped, false),
        ];
        for (err, retryable) in cases {
            assert_eq!(err.is_retryable(), retryable, "{err}");
            let ctx = Ctx::disabled();
            let meter = Meter::new();
            let mut calls = 0;
            let e = err.clone();
            let out: CloudResult<()> =
                with_retry(&ctx, &meter, &RetryPolicy::quick(), "class", || {
                    calls += 1;
                    Err(e.clone())
                });
            assert_eq!(out.unwrap_err(), err);
            let expected_calls = if retryable { 3 } else { 1 };
            assert_eq!(calls, expected_calls, "{err}");
        }
    }
}
