//! Pricing of metered usage.
//!
//! While [`crate::model`] is the paper's *analytic* cost model, this
//! module prices the *actual* usage counters recorded by the simulated
//! cloud services — letting benchmarks cross-check the model against what
//! the implementation really consumed (the cost-distribution bars of
//! Figures 9 and 11).

use crate::pricing::AwsPricing;
use fk_cloud::metering::UsageSnapshot;

/// A priced usage breakdown, in USD.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostBreakdown {
    /// Queue messages.
    pub queue: f64,
    /// Key-value store reads + writes.
    pub kv: f64,
    /// Object store operations.
    pub object: f64,
    /// Function compute (GB-s + invocations).
    pub functions: f64,
}

impl CostBreakdown {
    /// Total cost.
    pub fn total(&self) -> f64 {
        self.queue + self.kv + self.object + self.functions
    }

    /// Percentage shares `(queue, kv, object, functions)`.
    pub fn shares(&self) -> (f64, f64, f64, f64) {
        let t = self.total().max(1e-15);
        (
            self.queue / t * 100.0,
            self.kv / t * 100.0,
            self.object / t * 100.0,
            self.functions / t * 100.0,
        )
    }
}

/// Prices a usage snapshot under AWS rates. Object DELETE requests are
/// free on S3 and Cloud Storage, so `obj_deletes` prices at 0.
pub fn price_usage(usage: &UsageSnapshot, pricing: &AwsPricing) -> CostBreakdown {
    CostBreakdown {
        queue: usage.queue_units as f64 * pricing.sqs_unit,
        kv: usage.kv_write_units as f64 * pricing.ddb_write_unit
            + usage.kv_read_units * pricing.ddb_read_unit,
        object: usage.obj_puts as f64 * pricing.s3_put + usage.obj_gets as f64 * pricing.s3_get,
        functions: usage.fn_gb_seconds * pricing.lambda_gb_second
            + usage.fn_invocations as f64 * pricing.lambda_invocation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prices_each_component() {
        let usage = UsageSnapshot {
            queue_units: 1_000_000,
            kv_write_units: 1_000_000,
            kv_read_units: 1_000_000.0,
            obj_puts: 1_000_000,
            obj_gets: 1_000_000,
            fn_gb_seconds: 1000.0,
            fn_invocations: 1_000_000,
            ..UsageSnapshot::default()
        };
        let cost = price_usage(&usage, &AwsPricing::default());
        assert!((cost.queue - 0.5).abs() < 1e-9);
        assert!((cost.kv - 1.5).abs() < 1e-9);
        assert!((cost.object - 5.4).abs() < 1e-9);
        assert!((cost.functions - (1000.0 * 1.6667e-5 + 0.2)).abs() < 1e-9);
        assert!(cost.total() > 7.0);
    }

    #[test]
    fn object_deletes_are_free() {
        let usage = UsageSnapshot {
            obj_deletes: 1_000_000,
            ..UsageSnapshot::default()
        };
        assert_eq!(price_usage(&usage, &AwsPricing::default()).total(), 0.0);
    }

    #[test]
    fn shares_sum_to_hundred() {
        let cost = CostBreakdown {
            queue: 1.0,
            kv: 2.0,
            object: 3.0,
            functions: 4.0,
        };
        let (q, k, o, f) = cost.shares();
        assert!((q + k + o + f - 100.0).abs() < 1e-9);
        assert!((f - 40.0).abs() < 1e-9);
    }
}
