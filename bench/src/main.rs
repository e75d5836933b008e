//! `fk-perfbench run | compare` — see `bench/README.md`.

use fk_perfbench::compare::{bounds_of, compare, ResultSet};
use fk_perfbench::json::Json;
use fk_perfbench::metrics::WORKLOADS;
use fk_perfbench::workloads::{self, RunConfig};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  fk-perfbench run (--workload <name> | --all) [--seed <u64>] [--seconds <n>]
                   [--trace [0|1]] [--smoke] [--results <dir>]
  fk-perfbench compare <a> <b> [--benchmark <BENCHMARK.json>]

workloads: storm_mixed, session_pipeline, read_fanout, durable_store";

/// Length of the measured phase when `--seconds` is not given; what
/// `BENCHMARK.json` sets as `run_seconds`.
const DEFAULT_SECONDS: u64 = 10;

struct RunArgs {
    workload: Option<&'static str>,
    all: bool,
    config: RunConfig,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        all: false,
        config: RunConfig {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            traced: false,
            smoke: false,
            results_dir: PathBuf::from("bench/results"),
        },
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(&mut i)?;
                let known = WORKLOADS.iter().find(|w| *w == name);
                parsed.workload = Some(known.ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--all" => parsed.all = true,
            "--seed" => {
                let text = value(&mut i)?;
                parsed.config.seed = text.parse().map_err(|_| format!("bad seed {text}"))?;
            }
            "--seconds" => {
                let text = value(&mut i)?;
                parsed.config.seconds = match text.parse() {
                    Ok(seconds @ 1..=60) => seconds,
                    _ => return Err(format!("--seconds takes 1 to 60, not {text}")),
                };
            }
            "--trace" => {
                // `--trace` alone turns tracing on; `--trace 0|1` sets it.
                parsed.config.traced = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => parsed.config.smoke = true,
            "--results" => parsed.config.results_dir = PathBuf::from(value(&mut i)?),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if parsed.all == parsed.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".to_owned());
    }
    Ok(parsed)
}

/// Runs one workload in this process and prints its metrics; the last
/// line of standard output is the result object.
fn run_one(workload: &'static str, config: &RunConfig) -> ExitCode {
    let report = workloads::run(workload, config);
    print!("{}", report.human());
    println!("{}", report.contract_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a fresh process (so that its peak
/// resident set is its own), and prints one result line per workload.
fn run_all(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = &args.config;
    let mut ok = true;
    for workload in WORKLOADS {
        let mut command = Command::new(&exe);
        command
            .args(["run", "--workload", workload])
            .args(["--seed", &config.seed.to_string()])
            .args(["--seconds", &config.seconds.to_string()])
            .args(["--trace", if config.traced { "1" } else { "0" }])
            .arg("--results")
            .arg(&config.results_dir);
        if config.smoke {
            command.arg("--smoke");
        }
        let output = match command.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("cannot start {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().filter(|l| l.starts_with('{'));
        for line in lines {
            println!("{line}");
        }
        match result {
            Some(result) => println!(
                "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"result\": {result}}}",
                config.seed, config.seconds, config.traced, config.smoke
            ),
            None => eprintln!("{workload} printed no result"),
        }
        ok &= output.status.success() && result.is_some();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--benchmark" {
            i += 1;
            benchmark = PathBuf::from(args.get(i).ok_or("--benchmark needs a path")?);
        } else {
            files.push(&args[i]);
        }
        i += 1;
    }
    let [a, b] = files[..] else {
        return Err("compare takes two result files".to_owned());
    };
    let read = |path: &std::path::Path| {
        std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let bounds = bounds_of(&Json::parse(&read(&benchmark)?)?)?;
    let a = ResultSet::parse(&read(a.as_ref())?).map_err(|e| format!("{a}: {e}"))?;
    let b = ResultSet::parse(&read(b.as_ref())?).map_err(|e| format!("{b}: {e}"))?;
    let (table, acceptable) = compare(&a, &b, &bounds);
    print!("{table}");
    Ok(acceptable)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).map(|run| match run.workload {
            Some(workload) => run_one(workload, &run.config),
            None => run_all(&run),
        }),
        Some("compare") => compare_files(&args[1..]).map(|acceptable| {
            if acceptable {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }),
        _ => Err(USAGE.to_owned()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
