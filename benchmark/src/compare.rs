//! `compare <old> <new>` and `selfcheck <a> <b>`: medians and quartiles per
//! workload × end-to-end metric over two sets of untraced runs, judged
//! against the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;

use psnap_json::Json;

use crate::report::{Contract, Declared};
use crate::run::{median, quartiles};

/// End-to-end values of a set of runs: workload → metric → one per run.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Regressed,
    /// A side's run-to-run spread is wider than the bound, so the medians
    /// cannot be told apart at that resolution.
    Unresolved,
    Missing,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub runs: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        let (q1, q3) = quartiles(&mut v);
        Some(Summary {
            runs: v.len(),
            median: median(&mut v),
            q1,
            q3,
        })
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// By how much `new` is worse than `old`, as a share of `old` (negative when
/// it is better).
pub fn worsening(metric: &Declared, old: f64, new: f64) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    if metric.higher_is_better {
        (old - new) / old
    } else {
        (new - old) / old
    }
}

pub fn judge(metric: &Declared, old: Option<&Summary>, new: Option<&Summary>) -> Verdict {
    let bound = metric.bound.unwrap_or(f64::INFINITY);
    match (old, new) {
        (Some(old), Some(new)) => {
            if worsening(metric, old.median, new.median) > bound {
                Verdict::Regressed
            } else if old.spread() > bound || new.spread() > bound {
                Verdict::Unresolved
            } else {
                Verdict::Unchanged
            }
        }
        _ => Verdict::Missing,
    }
}

/// Reads one result file, or every `run-*.json` in a directory. Traced runs
/// are skipped: end-to-end metrics come from untraced runs only.
pub fn load(path: &Path) -> Result<RunSet, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            if name.starts_with("run-") && name.ends_with(".json") {
                files.push(entry.path());
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut set = RunSet::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        if json.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = json
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{}: no workload", file.display()))?;
        let Some(Json::Obj(metrics)) = json.get("end_to_end") else {
            return Err(format!("{}: no end_to_end metrics", file.display()));
        };
        let by_metric = set.entry(workload.to_string()).or_default();
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                by_metric.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(set)
}

fn summary_of(set: &RunSet, workload: &str, metric: &Declared) -> Option<Summary> {
    set.get(workload)
        .and_then(|m| m.get(&metric.name))
        .and_then(|v| Summary::of(v))
}

/// Prints one row per workload × metric and returns the verdicts.
pub fn report(contract: &Contract, old: &RunSet, new: &RunSet) -> Vec<Verdict> {
    println!(
        "{:<15} {:<17} {:>5} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "runs",
        "old median",
        "spread",
        "new median",
        "spread",
        "worse",
        "bound"
    );
    let mut verdicts = Vec::new();
    for workload in &contract.workloads {
        for metric in &contract.end_to_end {
            let a = summary_of(old, workload, metric);
            let b = summary_of(new, workload, metric);
            let verdict = judge(metric, a.as_ref(), b.as_ref());
            let cell = |s: &Option<Summary>| match s {
                Some(s) => format!("{:>12.4} {:>6.2}%", s.median, s.spread() * 100.0),
                None => format!("{:>12} {:>7}", "-", "-"),
            };
            let worse = match (&a, &b) {
                (Some(a), Some(b)) => {
                    format!("{:>7.2}%", worsening(metric, a.median, b.median) * 100.0)
                }
                _ => format!("{:>8}", "-"),
            };
            println!(
                "{:<15} {:<17} {:>5} {} {} {} {:>5.0}%  {}",
                workload,
                metric.name,
                format!("{}/{}", a.map_or(0, |s| s.runs), b.map_or(0, |s| s.runs)),
                cell(&a),
                cell(&b),
                worse,
                metric.bound.unwrap_or(0.0) * 100.0,
                verdict.as_str()
            );
            verdicts.push(verdict);
        }
    }
    verdicts
}

/// `compare`: is `new` worse than `old`? Fails on `regressed` or `missing`.
pub fn compare(contract: &Contract, old: &RunSet, new: &RunSet) -> bool {
    let verdicts = report(contract, old, new);
    !verdicts
        .iter()
        .any(|v| matches!(v, Verdict::Regressed | Verdict::Missing))
}

/// `selfcheck`: two sets of runs of one tree must agree. Fails when a
/// median pair differs by more than its bound in either direction, or when
/// a spread exceeds its bound (`setup_s` excepted: its spread is reported,
/// only its medians are held to the bound).
pub fn selfcheck(contract: &Contract, a: &RunSet, b: &RunSet) -> bool {
    report(contract, a, b);
    let mut ok = true;
    for workload in &contract.workloads {
        for metric in &contract.end_to_end {
            let sa = summary_of(a, workload, metric);
            let sb = summary_of(b, workload, metric);
            for verdict in [
                judge(metric, sa.as_ref(), sb.as_ref()),
                judge(metric, sb.as_ref(), sa.as_ref()),
            ] {
                ok &= verdict == Verdict::Unchanged
                    || (verdict == Verdict::Unresolved && metric.name == "setup_s");
            }
        }
    }
    println!(
        "selfcheck: {}",
        if ok {
            "both sets agree within every bound"
        } else {
            "FAILED: a median pair or a spread is outside its bound"
        }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared {
            name: "scan_p50_us".into(),
            unit: "us".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    fn higher(bound: f64) -> Declared {
        Declared {
            name: "throughput_ops_s".into(),
            unit: "ops/s".into(),
            higher_is_better: true,
            bound: Some(bound),
        }
    }

    fn summary(values: &[f64]) -> Summary {
        Summary::of(values).unwrap()
    }

    #[test]
    fn verdicts_on_synthetic_inputs() {
        let steady = summary(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let slower = summary(&[110.0, 111.0, 109.0, 110.5, 109.5]);
        let faster = summary(&[90.0, 91.0, 89.0, 90.5, 89.5]);
        let noisy = summary(&[80.0, 120.0, 100.0, 90.0, 110.0]);

        // Lower is better: +10 % against a 7 % bound regresses, −10 % does not.
        assert_eq!(
            judge(&lower(0.07), Some(&steady), Some(&slower)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&lower(0.07), Some(&steady), Some(&faster)),
            Verdict::Unchanged
        );
        // Higher is better: the directions swap.
        assert_eq!(
            judge(&higher(0.07), Some(&steady), Some(&faster)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&higher(0.07), Some(&steady), Some(&slower)),
            Verdict::Unchanged
        );
        // Inside the bound.
        assert_eq!(
            judge(&lower(0.15), Some(&steady), Some(&slower)),
            Verdict::Unchanged
        );
        // Same median, but a spread wider than the bound resolves nothing.
        assert_eq!(
            judge(&lower(0.07), Some(&steady), Some(&noisy)),
            Verdict::Unresolved
        );
        assert_eq!(judge(&lower(0.07), None, Some(&steady)), Verdict::Missing);
        assert_eq!(judge(&lower(0.07), Some(&steady), None), Verdict::Missing);
    }

    #[test]
    fn summary_uses_exclusive_quartiles() {
        let s = summary(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(&lower(0.1), 100.0, 107.0) - 0.07).abs() < 1e-12);
        assert!((worsening(&higher(0.1), 100.0, 107.0) + 0.07).abs() < 1e-12);
    }

    #[test]
    fn compare_fails_on_missing_workloads_and_passes_on_equal_sets() {
        let contract = Contract::load();
        let mut set = RunSet::new();
        for w in &contract.workloads {
            for m in &contract.end_to_end {
                set.entry(w.clone())
                    .or_default()
                    .insert(m.name.clone(), vec![10.0, 10.1, 9.9]);
            }
        }
        assert!(compare(&contract, &set, &set));
        assert!(selfcheck(&contract, &set, &set));
        let mut partial = set.clone();
        partial.remove("wire-rtt");
        assert!(!compare(&contract, &set, &partial));
    }
}
