//! `compare A.jsonl B.jsonl`: A is the baseline, B the candidate; both are
//! files of records appended by `run --out`. For every workload and
//! end-to-end metric it prints both medians, how much B is worse, the
//! bound, and the run-to-run spread of each side. A pair whose spread
//! exceeds the bound is `unresolved` (the files cannot tell), a pair where
//! B is worse by more than the bound is `outside` and fails the command.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, spread};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// The `driver.*` metrics that are counts of one deterministic search and
/// so must be identical between two runs of one commit on one seed.
const EXACT_COUNTS: [&str; 6] = [
    "driver.levels",
    "driver.bottom_up_levels",
    "driver.wire_bytes_per_search",
    "driver.logical_bytes_per_search",
    "driver.collectives_per_search",
    "driver.sieve_hits_per_search",
];

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::I64(x) => Some(x as f64),
        Value::U64(x) => Some(x as f64),
        Value::F64(x) => Some(x),
        _ => None,
    }
}

fn text(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// The records of one result file.
pub struct ResultFile {
    records: Vec<Value>,
}

impl ResultFile {
    /// Parses a file of JSON lines.
    pub fn parse(text: &str) -> Result<Self, String> {
        let records = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .enumerate()
            .map(|(i, l)| serde_json::from_str(l).map_err(|e| format!("line {}: {e}", i + 1)))
            .collect::<Result<_, _>>()?;
        Ok(Self { records })
    }

    fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Values of `metric` on `workload` in one trace mode, one per record.
    fn values(&self, workload: &str, trace: i64, metric: &str) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r["workload"] == workload && r["trace"] == trace)
            .filter_map(|r| number(&r["metrics"][metric]["value"]))
            .collect()
    }

    fn workloads(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for r in &self.records {
            if let Some(name) = text(&r["workload"]) {
                if !names.iter().any(|n| n == name) {
                    names.push(name.to_owned());
                }
            }
        }
        names
    }

    fn failed(&self) -> u64 {
        self.records
            .iter()
            .filter_map(|r| number(&r["failed"]))
            .sum::<f64>() as u64
    }
}

/// How one (workload, metric) pair compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is within the bound of A, and the spreads are tight enough to say so.
    Within,
    /// A spread exceeds the bound: the runs cannot resolve this metric.
    Unresolved,
    /// B is worse than A by more than the bound.
    Outside,
}

/// By how much of A's median B's median is worse (negative = better).
pub fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judges one pair from the per-run values of each side.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> (Verdict, f64, f64) {
    let worse = worsening(m, median(a), median(b));
    // A single run per side has no spread to speak of.
    let side_spread = |v: &[f64]| if v.len() >= 2 { spread(v) } else { 0.0 };
    let widest = side_spread(a).max(side_spread(b));
    let verdict = if worse > m.bound {
        Verdict::Outside
    } else if widest > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    };
    (verdict, worse, widest)
}

/// Compares two parsed files; returns the report and whether B passes.
pub fn compare(a: &ResultFile, b: &ResultFile) -> (String, bool) {
    let mut report = format!(
        "{:<20} {:<14} {:>12} {:>12} {:>8} {:>7} {:>8}  verdict\n",
        "workload", "metric", "A median", "B median", "worse", "bound", "spread"
    );
    let mut pass = true;
    for workload in a.workloads() {
        for m in &END_TO_END {
            let (va, vb) = (
                a.values(&workload, 0, m.name),
                b.values(&workload, 0, m.name),
            );
            if va.is_empty() || vb.is_empty() {
                if !va.is_empty() {
                    report.push_str(&format!("{workload:<20} {:<14} missing from B\n", m.name));
                    pass = false;
                }
                continue;
            }
            let (verdict, worse, widest) = judge(m, &va, &vb);
            pass &= verdict != Verdict::Outside;
            report.push_str(&format!(
                "{workload:<20} {:<14} {:>12.4} {:>12.4} {:>+7.1}% {:>6.0}% {:>7.1}%  {}\n",
                m.name,
                median(&va),
                median(&vb),
                worse * 100.0,
                m.bound * 100.0,
                widest * 100.0,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Outside => "OUTSIDE",
                }
            ));
        }
    }
    for (name, file) in [("A", a), ("B", b)] {
        let failed = file.failed();
        if failed > 0 {
            report.push_str(&format!(
                "{name}: {failed} searches failed the correctness gate\n"
            ));
            pass = false;
        }
    }
    report.push_str(&exact_counts(a, b));
    (report, pass)
}

/// Lists exact-count metrics that differ between traced records of the
/// same workload and seed. Informational: it names what to look at.
fn exact_counts(a: &ResultFile, b: &ResultFile) -> String {
    let index = |f: &ResultFile| -> BTreeMap<(String, i64), Value> {
        f.records
            .iter()
            .filter(|r| r["trace"] == 1i64)
            .filter_map(|r| {
                let key = (text(&r["workload"])?.to_owned(), number(&r["seed"])? as i64);
                Some((key, r["metrics"].clone()))
            })
            .collect()
    };
    let (ia, ib) = (index(a), index(b));
    let mut lines = String::new();
    let mut pairs = 0;
    for (key, ma) in &ia {
        let Some(mb) = ib.get(key) else { continue };
        pairs += 1;
        for name in EXACT_COUNTS {
            let (x, y) = (&ma[name]["value"], &mb[name]["value"]);
            if x != y {
                lines.push_str(&format!(
                    "exact count differs: {} seed {} {name}: {:?} vs {:?}\n",
                    key.0,
                    key.1,
                    number(x),
                    number(y)
                ));
            }
        }
    }
    if pairs > 0 && lines.is_empty() {
        lines = format!("exact counts identical on {pairs} traced (workload, seed) pairs\n");
    }
    lines
}

/// The `compare` subcommand.
pub fn run(a: &Path, b: &Path) -> ExitCode {
    match (ResultFile::load(a), ResultFile::load(b)) {
        (Ok(a), Ok(b)) => {
            let (report, pass) = compare(&a, &b);
            print!("{report}");
            ExitCode::from(u8::from(!pass))
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(crate::USAGE)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, seed: u64, search_ms: f64, teps: f64) -> String {
        format!(
            r#"{{"workload":"{workload}","seed":{seed},"trace":0,"correct":true,"attempted":50,"failed":0,"metrics":{{"teps_hmean":{{"value":{teps},"unit":"MTEPS"}},"search_ms_p50":{{"value":{search_ms},"unit":"ms"}},"call_ms_p50":{{"value":{search_ms},"unit":"ms"}},"setup_s":{{"value":2.5,"unit":"s"}}}}}}"#
        )
    }

    fn file(rows: &[(f64, f64)]) -> ResultFile {
        let text: Vec<String> = rows
            .iter()
            .enumerate()
            .map(|(i, &(ms, teps))| record("w", i as u64, ms, teps))
            .collect();
        ResultFile::parse(&text.join("\n")).unwrap()
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let (teps, ms) = (&END_TO_END[0], &END_TO_END[1]);
        assert!((worsening(teps, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((worsening(ms, 100.0, 80.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn steady_equal_runs_are_within() {
        let a = file(&[(100.0, 50.0), (101.0, 50.5), (99.0, 49.5), (100.5, 50.2)]);
        let (report, pass) = compare(&a, &a);
        assert!(pass, "{report}");
        assert!(!report.contains("OUTSIDE") && !report.contains("unresolved"));
    }

    #[test]
    fn a_slowdown_over_the_bound_is_outside_and_fails() {
        let a = file(&[(100.0, 50.0), (101.0, 50.0), (99.0, 50.0)]);
        let b = file(&[(140.0, 50.0), (141.0, 50.0), (139.0, 50.0)]);
        let (report, pass) = compare(&a, &b);
        assert!(!pass);
        assert!(report.contains("OUTSIDE"), "{report}");
        // The other direction is an improvement, which passes.
        assert!(compare(&b, &a).1);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let a = file(&[(100.0, 50.0), (130.0, 50.0), (70.0, 50.0), (100.0, 50.0)]);
        let (verdict, _, widest) = judge(
            &END_TO_END[1],
            &a.values("w", 0, "search_ms_p50"),
            &a.values("w", 0, "search_ms_p50"),
        );
        assert_eq!(verdict, Verdict::Unresolved);
        assert!(widest > END_TO_END[1].bound);
        assert!(compare(&a, &a).1, "unresolved alone does not fail");
    }

    #[test]
    fn any_failed_search_fails_the_comparison() {
        let a = file(&[(100.0, 50.0)]);
        let bad =
            ResultFile::parse(&record("w", 0, 100.0, 50.0).replace("\"failed\":0", "\"failed\":1"))
                .unwrap();
        assert!(!compare(&a, &bad).1);
    }
}
