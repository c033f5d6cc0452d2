//! `compare a.json b.json`: two recorded run sets (`--record`), side by
//! side. For every workload × gated metric: both medians, each side's
//! spread (quartile distance over median, as the driver computes it), the
//! bound, and a verdict —
//!
//! * `WORSE`: b's median is worse than a's by more than the bound;
//! * `UNRESOLVED`: not worse, but a spread exceeds the bound, so "no
//!   change" cannot be claimed either;
//! * `PASS` otherwise.
//!
//! Exits 1 on any `WORSE`, 2 if a set cannot be compared at all (smoke
//! runs, missing workloads, failed runs).

use crate::estimator::{iqr_over_median, median};
use crate::json::Json;
use crate::metrics::{END_TO_END, WORKLOADS};

/// The values of one gated metric of one workload in a set.
fn values(set: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_f64) == Some(0.0)
        })
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn load(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let set = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = set
        .as_arr()
        .ok_or(format!("{path}: not a list of runs"))?
        .to_vec();
    for r in &runs {
        if r.get("smoke").and_then(Json::as_bool) == Some(true) {
            return Err(format!(
                "{path}: holds --smoke runs, which measure nothing comparable"
            ));
        }
        let result = r
            .get("result")
            .ok_or(format!("{path}: a run without a result"))?;
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{path}: holds a run that failed its checks"));
        }
    }
    Ok(runs)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn verdict(a: &[f64], b: &[f64], better: &str, bound: f64) -> &'static str {
    if worsening(median(a), median(b), better) > bound {
        "WORSE"
    } else if iqr_over_median(a).max(iqr_over_median(b)) > bound {
        "UNRESOLVED"
    } else {
        "PASS"
    }
}

/// Prints the table; returns the process exit code.
pub fn run(path_a: &str, path_b: &str) -> i32 {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: refused: {e}");
            return 2;
        }
    };
    println!(
        "{:<16} {:<10} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "median a", "spread", "median b", "spread", "change", "bound"
    );
    let mut worse = false;
    for w in WORKLOADS {
        for e in END_TO_END {
            let (va, vb) = (values(&a, w.name, e.name), values(&b, w.name, e.name));
            if va.len() < 2 || vb.len() < 2 {
                eprintln!(
                    "compare: refused: fewer than two runs of {} in a set",
                    w.name
                );
                return 2;
            }
            let v = verdict(&va, &vb, e.better, e.bound);
            worse |= v == "WORSE";
            println!(
                "{:<16} {:<10} {:>12.4} {:>6.1}% {:>12.4} {:>6.1}% {:>+7.1}% {:>5.0}%  {v}",
                w.name,
                e.name,
                median(&va),
                iqr_over_median(&va) * 100.0,
                median(&vb),
                iqr_over_median(&vb) * 100.0,
                // Positive is worse, whichever way the metric points.
                worsening(median(&va), median(&vb), e.better) * 100.0,
                e.bound * 100.0
            );
        }
    }
    worse as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        let wild = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(verdict(&steady, &steady, "lower", 0.10), "PASS");
        assert_eq!(verdict(&steady, &slower, "lower", 0.10), "WORSE");
        // 20 % more of a higher-is-better metric is an improvement.
        assert_eq!(verdict(&steady, &slower, "higher", 0.10), "PASS");
        assert_eq!(verdict(&slower, &steady, "higher", 0.10), "WORSE");
        assert_eq!(verdict(&steady, &wild, "lower", 0.10), "UNRESOLVED");
    }

    #[test]
    fn smoke_sets_and_failed_runs_are_refused() {
        let dir = crate::host::out_dir().join(format!("compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, smoke: bool, correct: bool| {
            let run = Json::obj(vec![
                ("workload", Json::Str("tcp_put".into())),
                ("trace", Json::Num(0.0)),
                ("smoke", Json::Bool(smoke)),
                ("result", Json::obj(vec![("correct", Json::Bool(correct))])),
            ]);
            let path = dir.join(name);
            std::fs::write(&path, Json::Arr(vec![run]).render()).unwrap();
            path.display().to_string()
        };
        assert!(load(&write("ok.json", false, true)).is_ok());
        assert!(load(&write("smoke.json", true, true))
            .unwrap_err()
            .contains("--smoke"));
        assert!(load(&write("bad.json", false, false))
            .unwrap_err()
            .contains("failed"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
