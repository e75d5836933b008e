//! Read/write mixes and node-size distributions.
//!
//! The cost comparison (Fig 14) sweeps workloads of 1 kB reads and writes
//! at 100/90/80 % read ratios; the HBase study (§5.1) reports the
//! real-world node-size distribution FaaSKeeper optimizes for (29 nodes,
//! median 0 B, mean 46 B, max 320 B).

use rand::Rng;

/// A coordination operation drawn from a mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixOp {
    /// `get_data`-style read.
    Read {
        /// Payload size in bytes.
        size: usize,
    },
    /// `set_data`-style write.
    Write {
        /// Payload size in bytes.
        size: usize,
    },
}

/// Generator for a fixed read fraction and node size.
#[derive(Debug, Clone)]
pub struct ReadWriteMix {
    /// Fraction of reads in `[0, 1]`.
    pub read_fraction: f64,
    /// Node payload size in bytes.
    pub node_size: usize,
}

impl ReadWriteMix {
    /// A mix of `read_fraction` reads over `node_size`-byte nodes.
    pub fn new(read_fraction: f64, node_size: usize) -> Self {
        assert!((0.0..=1.0).contains(&read_fraction));
        ReadWriteMix {
            read_fraction,
            node_size,
        }
    }

    /// Samples the next operation.
    pub fn next_op<R: Rng + ?Sized>(&self, rng: &mut R) -> MixOp {
        if rng.gen::<f64>() < self.read_fraction {
            MixOp::Read {
                size: self.node_size,
            }
        } else {
            MixOp::Write {
                size: self.node_size,
            }
        }
    }

    /// Expected reads and writes among `total` operations.
    pub fn expected_counts(&self, total: u64) -> (f64, f64) {
        let reads = total as f64 * self.read_fraction;
        (reads, total as f64 - reads)
    }
}

/// A write-heavy workload with zipfian path skew: the shape that stresses
/// the leader's distributor pipeline. Writes concentrate on a few hot
/// nodes, so skew behaviour — repeated writes to a hot node coalescing
/// into one store operation per epoch, fewer operations per epoch than
/// fan-out workers, hot paths piling onto one shard-group lane — shows
/// up exactly as it would under production traffic.
///
/// Fully seeded: construct via [`SkewedWriteMix::from_deployment`] to
/// inherit the deployment's RNG seed, or pass an explicit bench-flag seed
/// to [`SkewedWriteMix::new`]; identical seeds reproduce the exact
/// operation stream.
#[derive(Debug, Clone)]
pub struct SkewedWriteMix {
    write_fraction: f64,
    node_size: usize,
    paths: Vec<String>,
    zipf: crate::zipf::SeededZipf,
    rng: rand::rngs::SmallRng,
}

impl SkewedWriteMix {
    /// A mix over `nodes` paths (`/hot/n<i>`) with the given write
    /// fraction, payload size, and RNG seed.
    pub fn new(nodes: u64, write_fraction: f64, node_size: usize, seed: u64) -> Self {
        use rand::SeedableRng;
        assert!((0.0..=1.0).contains(&write_fraction));
        assert!(nodes > 0);
        SkewedWriteMix {
            write_fraction,
            node_size,
            paths: (0..nodes).map(|i| format!("/hot/n{i}")).collect(),
            zipf: crate::zipf::SeededZipf::new(nodes, seed ^ 0x5EED_21F0),
            rng: rand::rngs::SmallRng::seed_from_u64(seed ^ 0x0A11_D1CE),
        }
    }

    /// Seeds the mix from a deployment configuration, so a benchmark and
    /// the deployment it drives share one reproducibility knob.
    pub fn from_deployment(
        config: &fk_core::DeploymentConfig,
        nodes: u64,
        write_fraction: f64,
        node_size: usize,
    ) -> Self {
        Self::new(nodes, write_fraction, node_size, config.seed)
    }

    /// All node paths the mix draws from (pre-create these).
    pub fn paths(&self) -> &[String] {
        &self.paths
    }

    /// Payload size of generated writes.
    pub fn node_size(&self) -> usize {
        self.node_size
    }

    /// Draws the next operation and its zipfian-skewed target path.
    pub fn next_op(&mut self) -> (MixOp, &str) {
        use rand::Rng;
        let key = self.zipf.next_key() as usize;
        let op = if self.rng.gen::<f64>() < self.write_fraction {
            MixOp::Write {
                size: self.node_size,
            }
        } else {
            MixOp::Read {
                size: self.node_size,
            }
        };
        (op, &self.paths[key])
    }
}

/// Node sizes observed in the paper's HBase deployment (§5.1): 29 nodes,
/// median 0 B, mean 46 B, largest 320 B (one per RegionServer).
pub fn hbase_node_sizes() -> Vec<usize> {
    // 3 RegionServer nodes at 320 B; a few metadata nodes with small
    // payloads; the majority empty (znodes used purely as markers).
    let mut sizes = vec![320, 320, 320, 120, 96, 64, 48, 32, 24, 14];
    sizes.extend(std::iter::repeat_n(0, 19));
    sizes
}

/// Samples a node size from the HBase-like distribution.
pub fn sample_hbase_size<R: Rng + ?Sized>(rng: &mut R) -> usize {
    let sizes = hbase_node_sizes();
    sizes[rng.gen_range(0..sizes.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn mix_respects_read_fraction() {
        let mix = ReadWriteMix::new(0.9, 1024);
        let mut rng = SmallRng::seed_from_u64(1);
        let reads = (0..20_000)
            .filter(|_| matches!(mix.next_op(&mut rng), MixOp::Read { .. }))
            .count();
        let fraction = reads as f64 / 20_000.0;
        assert!((fraction - 0.9).abs() < 0.01, "observed {fraction}");
    }

    #[test]
    fn expected_counts_sum_to_total() {
        let mix = ReadWriteMix::new(0.8, 1024);
        let (r, w) = mix.expected_counts(1_000_000);
        assert_eq!(r + w, 1_000_000.0);
        assert_eq!(r, 800_000.0);
    }

    #[test]
    fn skewed_write_mix_is_reproducible_and_skewed() {
        let run = || {
            let mut mix = SkewedWriteMix::new(64, 0.9, 1024, 7);
            (0..500)
                .map(|_| {
                    let (op, path) = mix.next_op();
                    (matches!(op, MixOp::Write { .. }), path.to_owned())
                })
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed → same stream");
        let writes = a.iter().filter(|(w, _)| *w).count();
        assert!(
            (0.85..0.95).contains(&(writes as f64 / 500.0)),
            "write-heavy: {writes}/500"
        );
        // Zipfian skew: the hottest path dominates.
        let hot = a.iter().filter(|(_, p)| p == "/hot/n0").count();
        assert!(hot > 25, "hot path drew {hot}/500");
        // Different seed → different stream.
        let mut other = SkewedWriteMix::new(64, 0.9, 1024, 8);
        let b: Vec<_> = (0..500)
            .map(|_| {
                let (op, path) = other.next_op();
                (matches!(op, MixOp::Write { .. }), path.to_owned())
            })
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn skewed_write_mix_seeds_from_deployment_config() {
        let config = fk_core::DeploymentConfig::aws();
        let mut x = SkewedWriteMix::from_deployment(&config, 16, 1.0, 64);
        let mut y = SkewedWriteMix::new(16, 1.0, 64, config.seed);
        for _ in 0..100 {
            assert_eq!(x.next_op(), y.next_op());
        }
        assert_eq!(x.paths().len(), 16);
    }

    #[test]
    fn hbase_distribution_matches_reported_stats() {
        let sizes = hbase_node_sizes();
        assert_eq!(sizes.len(), 29, "paper reports 29 nodes");
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted[sizes.len() / 2], 0, "median 0 bytes");
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!((mean - 46.0).abs() < 3.0, "mean ≈ 46 bytes, got {mean}");
        assert_eq!(*sorted.last().unwrap(), 320, "largest node 320 bytes");
    }

    #[test]
    fn sampler_stays_in_distribution() {
        let mut rng = SmallRng::seed_from_u64(2);
        let valid = hbase_node_sizes();
        for _ in 0..100 {
            assert!(valid.contains(&sample_hbase_size(&mut rng)));
        }
    }
}
