//! The one retry policy of the simulated cloud.
//!
//! Each service that can raise a transient failure absorbs it itself,
//! behind its public operations, as a provider SDK does: the key-value
//! store's `put`, `update`, `delete` and `transact`, the object store's
//! `put`, `put_if`, `get`, `delete` and `get_prefix`, the queue's `send`
//! and `send_batch`, and the durable user store's frame operations in
//! `fk-core`. Callers never wrap a call in a retry loop of their own.
//! Every such fault point rolls before anything is applied, so a failed
//! attempt changed nothing and repeating it is safe.
//!
//! The policy is exponential backoff with **decorrelated jitter** (the
//! AWS architecture-blog algorithm: each sleep is drawn uniformly from
//! `[base, 3 × previous]`, capped), at most 5 attempts with a 10 ms base
//! and a 2 s cap, and
//! [`CloudError::is_retryable`](crate::error::CloudError::is_retryable)-driven
//! classification: permanent errors (condition failures, not-found,
//! payload limits) surface immediately.
//!
//! Backoff sleeps charge **virtual time** via [`Ctx::advance`], never a
//! real thread sleep: benchmarks see the latency cost of retries at
//! paper scale while wall time stays in microseconds. Jitter draws come
//! from the context's auxiliary stream ([`Ctx::aux_roll`]) — the same
//! stream chaos decisions use — so a fault-free run performs no draws
//! at all and retried runs replay deterministically from the seed.
//!
//! Each retry is recorded on the service's [`Meter`] under
//! `retry:<service>.<op>` (for example `retry:kv.transact`), which is how
//! the soak gate measures retry amplification per operation.

use crate::error::CloudResult;
use crate::metering::Meter;
use crate::trace::Ctx;
use std::time::Duration;

/// Total attempts, the first included: comfortably above the standard
/// fault plan's transient burst length while bounding the worst stall.
const ATTEMPTS: u32 = 5;
/// First backoff sleep; also the floor of every jittered sleep.
const BASE: Duration = Duration::from_millis(10);
/// Ceiling on any single backoff sleep.
const CAP: Duration = Duration::from_secs(2);

/// Runs `op`, retrying transient failures with decorrelated-jitter
/// backoff charged to `ctx`'s virtual clock and metered on `meter` as
/// `retry:<site>`, where `site` names the operation as
/// `<service>.<op>`.
///
/// Only errors whose [`CloudError::is_retryable`](crate::error::CloudError::is_retryable) is true are retried;
/// everything else — and the last transient after the budget is spent —
/// returns to the caller unchanged.
pub fn with_retry<T>(
    ctx: &Ctx,
    meter: &Meter,
    site: &'static str,
    mut op: impl FnMut() -> CloudResult<T>,
) -> CloudResult<T> {
    let mut prev_sleep = BASE;
    for attempt in 1.. {
        match op() {
            Ok(value) => return Ok(value),
            Err(err) if err.is_retryable() && attempt < ATTEMPTS => {
                meter.retry(site);
                let sleep = decorrelated_jitter(ctx, prev_sleep);
                ctx.advance(sleep);
                prev_sleep = sleep;
            }
            Err(err) => return Err(err),
        }
    }
    unreachable!("loop returns within ATTEMPTS")
}

/// Next sleep: uniform in `[BASE, 3 × previous]`, capped.
fn decorrelated_jitter(ctx: &Ctx, prev: Duration) -> Duration {
    let base = BASE.as_nanos() as u64;
    let span = (prev.as_nanos() as u64).saturating_mul(3).max(base);
    let jittered = base + ((span - base) as f64 * ctx.aux_roll()) as u64;
    Duration::from_nanos(jittered).min(CAP).max(BASE)
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
        let out = with_retry(&ctx, &meter, "test", flaky(3));
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
        let mut calls = 0;
        let mut fail = flaky(10);
        let out = with_retry(&ctx, &meter, "test", || {
            calls += 1;
            fail()
        });
        assert_eq!(out.unwrap_err(), CloudError::Throttled);
        assert_eq!(calls, ATTEMPTS);
        assert_eq!(meter.snapshot().retries, 4, "attempts − 1 retries");
    }

    #[test]
    fn permanent_errors_return_immediately() {
        let ctx = Ctx::disabled();
        let meter = Meter::new();
        let mut calls = 0;
        let out: CloudResult<()> = with_retry(&ctx, &meter, "test", || {
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
        with_retry(&ctx, &meter, "test", || Ok(1)).unwrap();
        // The aux stream was untouched: its first draw matches a fresh
        // context's.
        assert_eq!(ctx.aux_roll(), Ctx::disabled().aux_roll());
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let ctx = Ctx::disabled();
        let mut prev = BASE;
        for _ in 0..100 {
            let sleep = decorrelated_jitter(&ctx, prev);
            assert!(sleep >= BASE);
            assert!(sleep <= CAP);
            prev = sleep;
        }
    }

    /// Exhaustive classification: of every [`CloudError`] variant, only
    /// `Throttled`, `InjectedFault` and `StorageFailed` are retryable,
    /// and `with_retry` honors that — a non-retryable error makes
    /// exactly one call.
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
            (CloudError::StorageFailed { detail: "d".into() }, true),
        ];
        for (err, retryable) in cases {
            assert_eq!(err.is_retryable(), retryable, "{err}");
            let ctx = Ctx::disabled();
            let meter = Meter::new();
            let mut calls = 0;
            let e = err.clone();
            let out: CloudResult<()> = with_retry(&ctx, &meter, "class", || {
                calls += 1;
                Err(e.clone())
            });
            assert_eq!(out.unwrap_err(), err);
            let expected_calls = if retryable { ATTEMPTS } else { 1 };
            assert_eq!(calls, expected_calls, "{err}");
        }
    }
}
