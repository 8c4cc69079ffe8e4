//! What a run leaves behind: the result line the driver reads, the result
//! file with its provenance block, and the tables a person reads.

use std::path::{Path, PathBuf};
use std::process::Command;

use psnap_json::Json;

use crate::run::{Metric, Outcome, RunOpts};

/// `BENCHMARK.json`, compiled in: the one place that names the workloads,
/// the metrics, their units, directions and bounds.
pub const CONTRACT: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
    pub run_seconds: f64,
}

impl Contract {
    pub fn load() -> Contract {
        Contract::parse(CONTRACT).expect("BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Contract, String> {
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| {
            json.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("BENCHMARK.json: no `{key}` list"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: an entry has no `{key}`"))
        };
        let declared = |key: &str| -> Result<Vec<Declared>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    Ok(Declared {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        higher_is_better: text_of(item, "better")? == "higher",
                        bound: item.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: declared("end_to_end")?,
            per_layer: declared("per_layer")?,
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no `run_seconds`")?,
        })
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.to_string())),
            ]),
        )
    }))
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics` — the end-to-end ones of an untraced run, the per-layer ones of
/// a traced run.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics = if trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
    .to_string_compact()
}

pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        // Keep git from looking for a repository above this directory.
        .env(
            "GIT_CEILING_DIRECTORIES",
            std::env::current_dir().ok()?.parent()?,
        )
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

fn file_line(path: &str, prefix: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(prefix))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
}

/// Where the numbers came from: enough to tell whether two result files may
/// be compared at all.
pub fn provenance(opts: &RunOpts, stream_hash: u64) -> Json {
    let unknown = || "unknown".to_string();
    let text = |v: Option<String>| Json::Str(v.unwrap_or_else(unknown));
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    let quota = std::fs::read_to_string("/sys/fs/cgroup/cpu.max")
        .or_else(|_| std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"))
        .ok()
        .map(|s| s.trim().to_string());
    Json::obj([
        ("commit", text(command_line("git", &["rev-parse", "HEAD"]))),
        ("dirty", dirty.map_or(Json::Null, Json::Bool)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cgroup_cpu_quota", text(quota)),
        ("cpu_model", text(file_line("/proc/cpuinfo", "model name"))),
        (
            "kernel",
            text(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .ok()
                    .map(|s| s.trim().to_string()),
            ),
        ),
        ("rustc", text(command_line("rustc", &["--version"]))),
        ("seed", Json::u64(opts.seed)),
        ("window_seconds", Json::Num(opts.seconds)),
        ("warmup_seconds", Json::Num(opts.warmup)),
        ("setups", Json::Num(opts.setups as f64)),
        ("op_stream_fnv", Json::Str(format!("{stream_hash:016x}"))),
    ])
}

/// Writes the run's result file and returns its path.
pub fn write_result(opts: &RunOpts, outcome: &Outcome) -> Result<PathBuf, String> {
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = opts.out_dir.join(format!(
        "run-{}-s{}-t{}-{stamp}.json",
        opts.spec.name, opts.seed, opts.trace as u8
    ));
    let json = Json::obj([
        ("workload", Json::Str(opts.spec.name.to_string())),
        ("trace", Json::Num(opts.trace as u8 as f64)),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "errors",
            Json::arr(outcome.errors.iter().cloned().map(Json::Str)),
        ),
        ("end_to_end", metrics_json(&outcome.end_to_end)),
        ("peak_rss_mb", Json::Num(outcome.peak_rss_mb)),
        ("per_layer", metrics_json(&outcome.per_layer)),
        ("provenance", provenance(opts, outcome.stream_hash)),
    ]);
    write_atomically(&path, &json.to_string_pretty())?;
    Ok(path)
}

fn write_atomically(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_parses_and_keeps_its_limits() {
        let contract = Contract::load();
        assert_eq!(
            contract.workloads,
            ["wire-pipelined", "wire-rtt", "serve-mix", "object-rw"]
        );
        let names: Vec<&str> = contract
            .end_to_end
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "throughput_ops_s",
                "scan_p50_us",
                "update_p50_us",
                "cpu_us_per_op",
                "setup_s"
            ]
        );
        for d in &contract.end_to_end {
            let bound = d.bound.expect("end-to-end metrics are gated");
            assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
            assert_eq!(d.higher_is_better, d.name == "throughput_ops_s");
        }
        // No end-to-end metric is a tail percentile.
        assert!(names.iter().all(|n| !n.contains("p99")));
        assert!(contract.per_layer.iter().all(|d| d.bound.is_none()));
        assert!(contract.per_layer.len() <= 128);
        // 4 + 22 runs per workload, with their set-up and two builds, must
        // end within 3420 s.
        let runs = 4.0 + 22.0 * contract.workloads.len() as f64;
        assert!(runs * (contract.run_seconds + 4.0) < 3420.0 - 200.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let outcome = Outcome {
            end_to_end: vec![Metric {
                name: "setup_s".into(),
                value: 0.0125,
                unit: "s",
            }],
            per_layer: vec![Metric {
                name: "bench.timer_ns".into(),
                value: 21.5,
                unit: "ns",
            }],
            attempted: 10,
            failed: 0,
            errors: Vec::new(),
            stream_hash: 1,
            trace_path: None,
            peak_rss_mb: 5.5,
        };
        let line = Json::parse(&result_line(&outcome, false)).unwrap();
        let Json::Obj(map) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.0125)
        );
        let traced = Json::parse(&result_line(&outcome, true)).unwrap();
        assert!(traced
            .get("metrics")
            .and_then(|m| m.get("bench.timer_ns"))
            .is_some());
    }
}
