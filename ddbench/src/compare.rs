//! `ddbench --compare`: two recorded sets of runs against the bounds in
//! `BENCHMARK.json`.
//!
//! A set is a JSON-lines file written by `--record`: one line per run.
//! Per workload × end-to-end metric the comparator takes each set's
//! median, prints the relative difference of set B against set A (in the
//! metric's "worse" direction) beside the bound, and fails past it.

use crate::json::{self, Json};
use crate::report::RunOutput;
use crate::stats;
use crate::workload::MetricDecl;
use std::collections::BTreeMap;
use std::io::Write as _;

/// Appends one run to a set file.
///
/// # Errors
/// I/O errors opening or writing the file.
pub fn record(
    path: &str,
    workload: &str,
    seed: u64,
    trace: bool,
    out: &RunOutput,
    declared: &[MetricDecl],
) -> std::io::Result<()> {
    let line = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"correct\": {}, \"metrics\": {}}}\n",
        json::quote(workload),
        u8::from(trace),
        out.correct(),
        out.metrics_json(declared)
    );
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(line.as_bytes())
}

/// A bound from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Reads the end-to-end bounds out of a `BENCHMARK.json` document.
///
/// # Errors
/// A description of the first malformed entry.
pub fn bounds(doc: &Json) -> Result<Vec<Bound>, String> {
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let name = e
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = e
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without better")?;
            let bound = e
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok(Bound {
                name: name.to_string(),
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

/// workload → metric → one value per run.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Parses a set file's text (end-to-end runs only; traced runs and
/// incorrect runs are skipped, the latter counted).
///
/// # Errors
/// The first unparsable line.
pub fn parse_set(text: &str) -> Result<(RunSet, usize), String> {
    let mut set = RunSet::new();
    let mut incorrect = 0;
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if doc.get("trace").and_then(Json::as_f64) == Some(1.0) {
            continue;
        }
        if doc.get("correct") != Some(&Json::Bool(true)) {
            incorrect += 1;
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("line {}: no metrics", i + 1))?;
        let slot = set.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                slot.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok((set, incorrect))
}

/// One compared cell.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub median_a: f64,
    pub median_b: f64,
    /// How much worse B is than A as a share of A (negative: better).
    pub worse_by: f64,
    /// Interquartile spread of each set (`None` below two runs).
    pub spread_a: Option<f64>,
    pub spread_b: Option<f64>,
    pub bound: f64,
    pub within: bool,
}

/// How much worse `b` is than `a`, as a share of `a`.
pub fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let delta = if lower_is_better { b - a } else { a - b };
    delta / a.abs()
}

/// Compares two sets cell by cell. A cell present in only one set is a
/// failure: the sets were not run alike.
pub fn compare(a: &RunSet, b: &RunSet, bounds: &[Bound]) -> Vec<Row> {
    let mut rows = Vec::new();
    let workloads: Vec<&String> = a
        .keys()
        .chain(b.keys().filter(|k| !a.contains_key(*k)))
        .collect();
    for workload in workloads {
        for bound in bounds {
            let values = |set: &RunSet| {
                set.get(workload)
                    .and_then(|m| m.get(&bound.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (values(a), values(b));
            let (median_a, median_b) = (
                stats::median(&va).unwrap_or(f64::NAN),
                stats::median(&vb).unwrap_or(f64::NAN),
            );
            let worse_by = worse_by(median_a, median_b, bound.lower_is_better);
            rows.push(Row {
                workload: workload.clone(),
                metric: bound.name.clone(),
                median_a,
                median_b,
                worse_by,
                spread_a: stats::spread(&va),
                spread_b: stats::spread(&vb),
                bound: bound.bound,
                // NaN (a missing cell) compares false: not within.
                within: worse_by <= bound.bound,
            });
        }
    }
    rows
}

fn render(rows: &[Row]) -> String {
    let pct = |v: Option<f64>| v.map_or("      -".to_string(), |v| format!("{:>6.1}%", v * 100.0));
    let mut out = format!(
        "{:<11} {:<18} {:>12} {:>12} {:>8} {:>7} {:>7} {:>7}\n",
        "workload", "metric", "median A", "median B", "B worse", "bound", "IQR A", "IQR B"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<11} {:<18} {:>12.4} {:>12.4} {:>7.1}% {:>6.1}% {} {} {}\n",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            pct(r.spread_a),
            pct(r.spread_b),
            if r.within { "ok" } else { "PAST BOUND" }
        ));
    }
    out
}

/// `--compare <a> <b> [--benchmark <file>]`; `Ok(true)` when every cell
/// is within its bound.
///
/// # Errors
/// Usage and file errors.
pub fn main(args: &[String]) -> Result<bool, String> {
    let (mut files, mut benchmark) = (Vec::new(), "BENCHMARK.json".to_string());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = it.next().ok_or("--benchmark needs a value")?.clone();
        } else {
            files.push(arg.clone());
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("--compare takes exactly two set files".to_string());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let bounds = bounds(&Json::parse(&read(&benchmark)?)?)?;
    let (set_a, bad_a) = parse_set(&read(a)?)?;
    let (set_b, bad_b) = parse_set(&read(b)?)?;
    let rows = compare(&set_a, &set_b, &bounds);
    print!("{}", render(&rows));
    if bad_a + bad_b > 0 {
        println!("incorrect runs skipped: {bad_a} in A, {bad_b} in B");
    }
    Ok(!rows.is_empty() && bad_a + bad_b == 0 && rows.iter().all(|r| r.within))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(latency: &[f64], rate: &[f64]) -> RunSet {
        let mut text = String::new();
        for (l, r) in latency.iter().zip(rate) {
            text.push_str(&format!(
                "{{\"workload\": \"w\", \"seed\": 1, \"trace\": 0, \"correct\": true, \
                 \"metrics\": {{\"lat_ms\": {{\"value\": {l}, \"unit\": \"ms\"}}, \
                 \"rate\": {{\"value\": {r}, \"unit\": \"1/s\"}}}}}}\n"
            ));
        }
        parse_set(&text).unwrap().0
    }

    fn test_bounds() -> Vec<Bound> {
        let doc = Json::parse(
            r#"{"end_to_end": [
                {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        bounds(&doc).unwrap()
    }

    #[test]
    fn direction_follows_better() {
        assert!((worse_by(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 9.0, true) + 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, false) - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, false) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn medians_within_bound_pass_and_past_bound_fail() {
        let a = set(&[10.0, 10.2, 9.8], &[100.0, 101.0, 99.0]);
        let close = set(&[10.5, 10.9, 10.7], &[95.0, 96.0, 94.0]);
        let rows = compare(&a, &close, &test_bounds());
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.within), "{rows:?}");

        let slow = set(&[11.5, 11.2, 11.9], &[100.0, 100.0, 100.0]);
        let rows = compare(&a, &slow, &test_bounds());
        assert!(!rows[0].within && rows[1].within, "{rows:?}");

        // Better by any margin is never a regression.
        let fast = set(&[5.0, 5.0, 5.0], &[200.0, 200.0, 200.0]);
        assert!(compare(&a, &fast, &test_bounds()).iter().all(|r| r.within));

        let low_rate = set(&[10.0, 10.0, 10.0], &[80.0, 85.0, 82.0]);
        let rows = compare(&a, &low_rate, &test_bounds());
        assert!(rows[0].within && !rows[1].within, "{rows:?}");
    }

    #[test]
    fn a_missing_cell_is_not_within() {
        let a = set(&[10.0], &[100.0]);
        let rows = compare(&a, &RunSet::new(), &test_bounds());
        assert!(rows.iter().all(|r| !r.within));
    }

    #[test]
    fn traced_and_incorrect_lines_are_skipped() {
        let text = "{\"workload\": \"w\", \"trace\": 1, \"correct\": true, \"metrics\": {}}\n\
                    {\"workload\": \"w\", \"trace\": 0, \"correct\": false, \"metrics\": {}}\n";
        let (set, incorrect) = parse_set(text).unwrap();
        assert!(set.is_empty());
        assert_eq!(incorrect, 1);
        assert!(parse_set("not json\n").is_err());
    }
}
