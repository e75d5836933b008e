//! Percentile summaries of the fleet's latency samples.

/// Summary statistics of a latency sample set, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Minimum.
    pub min: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample count.
    pub n: usize,
}

/// Computes summary statistics over samples (ms).
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
    let pct = |p: f64| -> f64 {
        let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted[idx]
    };
    Summary {
        min: sorted[0],
        p50: pct(0.50),
        p90: pct(0.90),
        p95: pct(0.95),
        p99: pct(0.99),
        max: *sorted.last().expect("non-empty"),
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        n: sorted.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_uniform_ramp() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = summarize(&samples);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.p50 - 50.0).abs() <= 1.0);
        assert!((s.p95 - 95.0).abs() <= 1.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.n, 100);
    }

    #[test]
    fn empty_samples_are_zero() {
        assert_eq!(summarize(&[]), Summary::default());
    }
}
