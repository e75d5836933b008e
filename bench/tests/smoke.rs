//! Determinism and smoke tests: `cargo test --manifest-path bench/Cargo.toml`.

use fk_perfbench::gen::{FanoutGen, RecipeGen, RecipeKind, StoreGen, StormGen, StormKind};
use fk_perfbench::metrics::{Report, END_TO_END, PER_LAYER, WORKLOADS};
use fk_perfbench::workloads::{self, RunConfig};
use std::path::PathBuf;
use std::process::Command;

fn smoke(seed: u64, traced: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds: 10,
        traced,
        smoke: true,
        results_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    }
}

/// Metrics that depend on the host, not on the seed.
fn host_metric(name: &str) -> bool {
    name.contains("host")
        || name.starts_with("cpu_")
        || name == "peak_rss_mib"
        || name == "setup_s"
        || name == "bench.trace_overhead_share"
}

fn seeded_values(
    report: &Report,
    table: &[(&'static str, &'static str)],
) -> Vec<(&'static str, f64)> {
    table
        .iter()
        .filter(|(name, _)| !host_metric(name))
        .map(|(name, _)| (*name, report.values.get(name).unwrap_or(0.0)))
        .collect()
}

#[test]
fn one_seed_repeats_every_modeled_and_count_metric() {
    for workload in ["storm_mixed", "session_pipeline", "durable_store"] {
        let first = workloads::run(workload, &smoke(7, false));
        let second = workloads::run(workload, &smoke(7, false));
        assert!(first.correct(), "{workload}: {:?}", first.violations);
        assert_eq!(
            seeded_values(&first, &END_TO_END),
            seeded_values(&second, &END_TO_END),
            "{workload} end to end"
        );
        assert_eq!(
            (first.attempted, first.failed),
            (second.attempted, second.failed)
        );
    }
}

#[test]
fn one_seed_repeats_the_layer_table() {
    for workload in ["storm_mixed", "durable_store"] {
        let first = workloads::run(workload, &smoke(9, true));
        let second = workloads::run(workload, &smoke(9, true));
        assert!(first.correct(), "{workload}: {:?}", first.violations);
        assert_eq!(
            seeded_values(&first, &PER_LAYER),
            seeded_values(&second, &PER_LAYER),
            "{workload} per layer"
        );
    }
}

#[test]
fn a_different_seed_generates_different_inputs() {
    let storm = |seed| {
        let mut gen = StormGen::new(seed, 64, 32, 128);
        (0..64).map(|_| gen.next_op()).collect::<Vec<_>>()
    };
    assert_eq!(storm(1), storm(1));
    assert_ne!(storm(1), storm(2));
    let recipe = |seed| {
        let mut gen = RecipeGen::new(seed, 4, 2, 2);
        (0..64).map(|k| gen.next_op(k % 4)).collect::<Vec<_>>()
    };
    assert_eq!(recipe(1), recipe(1));
    assert_ne!(recipe(1), recipe(2));
    let fanout = |seed| {
        let mut gen = FanoutGen::new(seed, 4, 32, 64);
        (0..64).map(|_| gen.next_op()).collect::<Vec<_>>()
    };
    assert_eq!(fanout(1), fanout(1));
    assert_ne!(fanout(1), fanout(2));
    let store = |seed| {
        let mut gen = StoreGen::new(seed, 1024, 64, 8);
        (0..64).map(|_| gen.next_op()).collect::<Vec<_>>()
    };
    assert_eq!(store(1), store(1));
    assert_ne!(store(1), store(2));
}

#[test]
fn generators_keep_their_op_mix() {
    const OPS: usize = 100_000;
    let close = |got: usize, want: f64, what: &str| {
        let share = got as f64 / OPS as f64;
        assert!((share - want).abs() < 0.01, "{what}: {share} vs {want}");
    };

    let mut storm = StormGen::new(3, 8192, 256, 128);
    let mut counts = [0usize; 4];
    for _ in 0..OPS {
        let kind = storm.next_op().kind;
        let class = StormGen::SHARES.iter().position(|(k, _)| *k == kind);
        counts[class.expect("listed kind")] += 1;
    }
    for (class, (kind, share)) in StormGen::SHARES.iter().enumerate() {
        close(counts[class], *share, &format!("storm {kind:?}"));
    }
    assert_eq!(StormGen::SHARES[1].0, StormKind::Read);

    // A stock deep enough that a session never runs out of children to
    // delete (the workload stocks 32 per session for 130 ops each).
    let mut recipe = RecipeGen::new(3, 8, 2, 2);
    for k in 0..8 * 2000 {
        recipe.stock_op(k % 8);
    }
    let mut counts = [0usize; 3];
    let mut lanes_alternate = 0usize;
    let mut previous = [usize::MAX; 8];
    for k in 0..OPS {
        let op = recipe.next_op(k % 8);
        let class = RecipeGen::SHARES
            .iter()
            .position(|(kind, _)| *kind == op.kind);
        counts[class.expect("listed kind")] += 1;
        assert_eq!(op.kind != RecipeKind::SetData, op.list_first.is_some());
        let lane = fk_perfbench::adapter::lane_of(op.write.path(), 2);
        lanes_alternate += usize::from(lane != previous[k % 8]);
        previous[k % 8] = lane;
    }
    for (class, (kind, share)) in RecipeGen::SHARES.iter().enumerate() {
        close(counts[class], *share, &format!("recipe {kind:?}"));
    }
    assert_eq!(lanes_alternate, OPS, "consecutive paths change lanes");

    let mut fanout = FanoutGen::new(3, 16, 256, 1024);
    let mut counts = [0usize; 4];
    for _ in 0..OPS {
        counts[fanout.next_op().class()] += 1;
    }
    for (class, share) in FanoutGen::SHARES.iter().enumerate() {
        close(counts[class], *share, &format!("fanout class {class}"));
    }

    let mut store = StoreGen::new(3, 65_536, 64, 8);
    let mut counts = [0usize; 4];
    for _ in 0..OPS {
        counts[store.next_op().class()] += 1;
    }
    for (class, share) in StoreGen::SHARES.iter().enumerate() {
        close(counts[class], *share, &format!("store class {class}"));
    }
}

/// The last JSON line of each workload, as `run --all` prints them.
fn result_lines(stdout: &str) -> Vec<&str> {
    stdout.lines().filter(|l| l.starts_with('{')).collect()
}

#[test]
fn the_command_runs_every_workload_and_compare_accepts_a_set_against_itself() {
    let exe = env!("CARGO_BIN_EXE_fk-perfbench");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for (trace, table) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
        let output = Command::new(exe)
            .args(["run", "--all", "--smoke", "--seed", "5", "--trace", trace])
            .arg("--results")
            .arg(&dir)
            .output()
            .expect("benchmark starts");
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        assert!(output.status.success(), "{stdout}");
        let lines = result_lines(&stdout);
        assert_eq!(lines.len(), WORKLOADS.len());
        for (line, workload) in lines.iter().zip(WORKLOADS) {
            assert!(line.contains(&format!("\"workload\": \"{workload}\"")));
            assert!(line.contains("\"correct\": true"), "{line}");
            for (name, unit) in table {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&key)
                    .unwrap_or_else(|| panic!("{workload} lacks {name}"));
                let rest = &line[at + key.len()..];
                let value: f64 = rest[..rest.find(',').expect("value ends")]
                    .parse()
                    .expect("a number");
                assert!(rest.contains(&format!("\"unit\": \"{unit}\"")));
                if trace == "0" {
                    assert!(value > 0.0, "{workload} {name} must never read 0");
                }
            }
        }
        if trace == "1" {
            for workload in WORKLOADS {
                assert!(dir.join(format!("{workload}.spans.jsonl")).exists());
            }
            continue;
        }
        let set = dir.join("set.txt");
        std::fs::write(&set, &stdout).expect("results written");
        let benchmark = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let compared = Command::new(exe)
            .arg("compare")
            .args([&set, &set])
            .args(["--benchmark", benchmark])
            .output()
            .expect("compare starts");
        let table = String::from_utf8_lossy(&compared.stdout);
        assert!(compared.status.success(), "{table}");
        assert!(table.contains("unchanged") && !table.contains("REGRESSED"));
    }
}
