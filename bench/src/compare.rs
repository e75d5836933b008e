//! `compare <a> <b>`: two sets of results, judged by the bounds
//! `BENCHMARK.json` fixes.
//!
//! A result file holds any number of result lines (what `run --all`
//! prints); lines of one workload are runs of one side. Each side is
//! summarised by its median and its quartiles. A metric whose run-to-run
//! spread is wider than its bound is reported as unresolved, never as
//! unchanged.

use crate::json::Json;
use crate::metrics::{median, number};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Direction and bound of one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The end-to-end metrics of `BENCHMARK.json`, by name.
pub fn bounds_of(benchmark: &Json) -> Result<BTreeMap<String, Bound>, String> {
    let metrics = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut bounds = BTreeMap::new();
    for metric in metrics {
        let name = metric.get("name").and_then(Json::as_str);
        let better = metric.get("better").and_then(Json::as_str);
        let bound = metric.get("bound").and_then(Json::as_f64);
        let (Some(name), Some(better), Some(bound)) = (name, better, bound) else {
            return Err("an end_to_end entry lacks name, better or bound".to_owned());
        };
        bounds.insert(
            name.to_owned(),
            Bound {
                lower_is_better: better == "lower",
                bound,
            },
        );
    }
    Ok(bounds)
}

/// The runs of one side: `(workload, metric)` → one value per run, and
/// per workload the ops attempted and failed over all its runs.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ResultSet {
    pub values: BTreeMap<(String, String), Vec<f64>>,
    pub units: BTreeMap<String, String>,
    pub attempted: BTreeMap<String, f64>,
    pub failed: BTreeMap<String, f64>,
}

impl ResultSet {
    /// Reads every result line of `text`; other lines are skipped.
    pub fn parse(text: &str) -> Result<ResultSet, String> {
        let mut set = ResultSet::default();
        for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
            let json = Json::parse(line)?;
            let Some(workload) = json.get("workload").and_then(Json::as_str) else {
                continue;
            };
            let result = json.get("result").ok_or("a result line lacks `result`")?;
            let count = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            *set.attempted.entry(workload.to_owned()).or_insert(0.0) += count("attempted");
            *set.failed.entry(workload.to_owned()).or_insert(0.0) += count("failed");
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("a result lacks `metrics`")?;
            for (name, metric) in metrics {
                let value = metric.get("value").and_then(Json::as_f64);
                let value = value.ok_or_else(|| format!("{name} has no value"))?;
                set.values
                    .entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(value);
                if let Some(unit) = metric.get("unit").and_then(Json::as_str) {
                    set.units.insert(name.clone(), unit.to_owned());
                }
            }
        }
        if set.values.is_empty() {
            return Err("no result lines found".to_owned());
        }
        Ok(set)
    }

    fn failed_share(&self, workload: &str) -> f64 {
        let attempted = self.attempted.get(workload).copied().unwrap_or(0.0);
        let failed = self.failed.get(workload).copied().unwrap_or(0.0);
        if attempted > 0.0 {
            failed / attempted
        } else {
            0.0
        }
    }
}

/// Median and the distance between the quartiles as a share of it.
fn summarise(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    let mid = median(&mut sorted);
    if sorted.len() < 4 || mid == 0.0 {
        return (mid, 0.0);
    }
    // Exclusive quartiles, as Python's `statistics.quantiles(n=4)`.
    let quartile = |q: f64| {
        let position = q * (sorted.len() + 1) as f64;
        let below = (position.floor() as usize).clamp(1, sorted.len() - 1);
        let fraction = (position - below as f64).clamp(0.0, 1.0);
        sorted[below - 1] + fraction * (sorted[below] - sorted[below - 1])
    };
    (mid, (quartile(0.75) - quartile(0.25)) / mid.abs())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
    /// A per-layer metric: no bound, shown for attribution only.
    Layer,
}

/// The table and whether `b` is acceptable against `a`.
pub fn compare(a: &ResultSet, b: &ResultSet, bounds: &BTreeMap<String, Bound>) -> (String, bool) {
    let mut out = String::new();
    let mut acceptable = true;
    writeln!(
        out,
        "{:<18} {:<34} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "base (a)", "change (b)", "b/a - 1", "spread a", "spread b"
    )
    .expect("string write");
    for ((workload, metric), a_values) in &a.values {
        let Some(b_values) = b.values.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (a_mid, a_spread) = summarise(a_values);
        let (b_mid, b_spread) = summarise(b_values);
        let change = if a_mid != 0.0 {
            b_mid / a_mid - 1.0
        } else {
            0.0
        };
        let verdict = match bounds.get(metric) {
            None => Verdict::Layer,
            Some(bound) => {
                let worse_by = if bound.lower_is_better {
                    change
                } else {
                    -change
                };
                if a_spread > bound.bound || b_spread > bound.bound {
                    Verdict::Unresolved
                } else if worse_by > bound.bound {
                    Verdict::Regressed
                } else if -worse_by > bound.bound {
                    Verdict::Improved
                } else {
                    Verdict::Unchanged
                }
            }
        };
        acceptable &= verdict != Verdict::Regressed;
        let unit = a.units.get(metric).map_or("", String::as_str);
        writeln!(
            out,
            "{workload:<18} {metric:<34} {:>14} {:>14} {:>+8.2}% {:>7.2}% {:>7.2}%  {}",
            short(a_mid),
            format!("{} {unit}", short(b_mid)),
            change * 100.0,
            a_spread * 100.0,
            b_spread * 100.0,
            match verdict {
                Verdict::Improved => "improved",
                Verdict::Unchanged => "unchanged",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
                Verdict::Layer => "-",
            }
        )
        .expect("string write");
    }
    for workload in a.attempted.keys() {
        let (before, after) = (a.failed_share(workload), b.failed_share(workload));
        if after > before {
            acceptable = false;
            writeln!(
                out,
                "{workload:<18} failed_share rose from {} to {}  REGRESSED",
                number(before),
                number(after)
            )
            .expect("string write");
        }
    }
    (out, acceptable)
}

/// Six significant digits: enough to read, short enough for a table.
fn short(value: f64) -> String {
    if value == 0.0 {
        return "0".to_owned();
    }
    let digits = (5 - value.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{value:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, host: f64, failed: u64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"result\": {{\"correct\": true, \"attempted\": 100, \"failed\": {failed}, \"metrics\": {{\"host_us_per_op\": {{\"value\": {host}, \"unit\": \"us\"}}, \"goodput\": {{\"value\": {host}, \"unit\": \"1/s\"}}}}}}}}"
        )
    }

    fn bounds() -> BTreeMap<String, Bound> {
        let benchmark = Json::parse(
            r#"{"end_to_end": [{"name": "host_us_per_op", "unit": "us", "better": "lower", "bound": 0.1},
                               {"name": "goodput", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        bounds_of(&benchmark).unwrap()
    }

    #[test]
    fn judges_by_direction_and_bound() {
        let a = ResultSet::parse(&line("w", 100.0, 0)).unwrap();
        let same = ResultSet::parse(&line("w", 105.0, 0)).unwrap();
        let (table, ok) = compare(&a, &same, &bounds());
        assert!(ok, "{table}");
        assert!(table.contains("unchanged"));
        // 20 % more host time is a regression; 20 % more goodput is not.
        let slower = ResultSet::parse(&line("w", 120.0, 0)).unwrap();
        let (table, ok) = compare(&a, &slower, &bounds());
        assert!(!ok);
        assert!(
            table.contains("REGRESSED") && table.contains("improved"),
            "{table}"
        );
    }

    #[test]
    fn a_rise_in_failed_share_is_a_regression() {
        let a = ResultSet::parse(&line("w", 100.0, 0)).unwrap();
        let b = ResultSet::parse(&line("w", 100.0, 3)).unwrap();
        assert!(!compare(&a, &b, &bounds()).1);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let runs = |values: &[f64]| {
            let text: Vec<String> = values.iter().map(|v| line("w", *v, 0)).collect();
            ResultSet::parse(&text.join("\n")).unwrap()
        };
        let a = runs(&[80.0, 90.0, 100.0, 110.0, 120.0, 130.0]);
        let b = runs(&[100.0, 100.0, 100.0, 100.0, 100.0, 100.0]);
        let (table, ok) = compare(&a, &b, &bounds());
        assert!(ok);
        assert!(table.contains("unresolved"), "{table}");
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (mid, spread) = summarise(&values);
        assert_eq!(mid, 5.5);
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
