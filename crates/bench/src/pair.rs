//! `harness pair`: alternating runs of two prebuilt `psnap-benchmark`
//! binaries, and the table that says whether they differ.
//!
//! Single runs on a small shared box differ by more than most changes do,
//! and drift with the time of day; what survives is the comparison of two
//! binaries run back to back, order flipped every pair, seed shared within
//! a pair. This is that procedure as a command. It shells out to the
//! binaries (each from its own checkout root when the path says where that
//! is, so the provenance block names the right commit) and reads the result
//! line each prints last; `BENCHMARK.json` supplies the metric names and
//! which direction is better.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use psnap_json::Json;

use crate::experiments::{sig, Table};

/// The repo's benchmark contract: metric names, in order, and directions.
const CONTRACT: &str = include_str!("../../../BENCHMARK.json");

/// Usage line of the subcommand.
pub const USAGE: &str = "harness pair <bin-a> <bin-b> --workload <w> --pairs <n> \
[--seconds <s>] [--seed <n>] [--trace <0|1>] [--out <dir>] [--quick]";

/// What to run.
#[derive(Clone, Debug, PartialEq)]
pub struct PairOpts {
    /// The two binaries; `a` is the base every ratio is taken against.
    pub bins: [PathBuf; 2],
    /// Workload name, passed through.
    pub workload: String,
    /// Pairs of runs; pair `i` uses seed `seed + i` on both sides.
    pub pairs: usize,
    /// Window length passed to each run.
    pub seconds: f64,
    /// Seed of the first pair.
    pub seed: u64,
    /// Traced runs report (and this compares) the per-layer metrics.
    pub trace: bool,
    /// Pass `--quick` through (smoke shape).
    pub quick: bool,
    /// Result files land in `<out>/a` and `<out>/b`.
    pub out: PathBuf,
}

impl PairOpts {
    /// Parses the arguments after `pair`.
    pub fn parse(args: &[String]) -> Result<PairOpts, String> {
        let mut bins = Vec::new();
        let mut opts = PairOpts {
            bins: [PathBuf::new(), PathBuf::new()],
            workload: String::new(),
            pairs: 0,
            seconds: 30.0,
            seed: 1,
            trace: false,
            quick: false,
            out: PathBuf::from("target/pair"),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--workload" => opts.workload = value()?.clone(),
                "--out" => opts.out = PathBuf::from(value()?),
                "--pairs" => opts.pairs = parsed(arg, value()?)?,
                "--seconds" => opts.seconds = parsed(arg, value()?)?,
                "--seed" => opts.seed = parsed(arg, value()?)?,
                "--trace" => {
                    opts.trace = match parsed::<u8>(arg, value()?)? {
                        0 => false,
                        1 => true,
                        other => return Err(format!("--trace is 0 or 1, not {other}")),
                    }
                }
                flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
                path => bins.push(PathBuf::from(path)),
            }
        }
        opts.bins = <[PathBuf; 2]>::try_from(bins).map_err(|_| "pair takes two binaries")?;
        if opts.workload.is_empty() || opts.pairs == 0 {
            return Err("pair needs --workload and --pairs ≥ 1".to_string());
        }
        Ok(opts)
    }
}

fn parsed<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{name}: cannot read `{value}`"))
}

/// One run's result line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Run {
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// The process exited 0, reported `correct` and failed no operation.
    pub ok: bool,
}

impl Run {
    /// Reads the line a `psnap-benchmark run` prints last.
    pub fn parse(line: &str, exited_ok: bool) -> Result<Run, String> {
        let json = Json::parse(line).map_err(|e| format!("result line: {e}: {line}"))?;
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            return Err(format!("result line has no metrics: {line}"));
        };
        let metrics = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        let correct = matches!(json.get("correct"), Some(Json::Bool(true)));
        let failed = json.get("failed").and_then(Json::as_f64);
        Ok(Run {
            metrics,
            ok: exited_ok && correct && failed == Some(0.0),
        })
    }
}

/// The checkout a `…/benchmark/target/release/<bin>` path was built in.
fn checkout_root(bin: &Path) -> Option<&Path> {
    let root = bin.ancestors().nth(4)?;
    bin.strip_prefix(root)
        .ok()?
        .starts_with("benchmark/target")
        .then_some(root)
}

fn run_once(bin: &Path, opts: &PairOpts, seed: u64, out: &Path) -> Result<Run, String> {
    let mut command = Command::new(bin);
    command
        .arg("run")
        .args(["--workload", &opts.workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stderr(Stdio::inherit());
    if opts.quick {
        command.arg("--quick");
    }
    if let Some(root) = checkout_root(bin) {
        command.current_dir(root);
    }
    let output = command
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{} printed nothing", bin.display()))?;
    Run::parse(line, output.status.success())
}

/// Runs every pair and returns the two sides' runs, pair by pair.
pub fn run_pairs(opts: &PairOpts) -> Result<[Vec<Run>; 2], String> {
    let absolute = |p: &Path| std::path::absolute(p).map_err(|e| format!("{}: {e}", p.display()));
    let bins = [absolute(&opts.bins[0])?, absolute(&opts.bins[1])?];
    let out = absolute(&opts.out)?;
    let outs = [out.join("a"), out.join("b")];
    for dir in &outs {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut sides = [Vec::new(), Vec::new()];
    for pair in 0..opts.pairs {
        let seed = opts.seed + pair as u64;
        // a-b, b-a, a-b …: neither side always runs on the warmer box.
        for side in [pair % 2, 1 - pair % 2] {
            let run = run_once(&bins[side], opts, seed, &outs[side])?;
            let headline = run.metrics.get("throughput_ops_s").copied();
            eprintln!(
                "pair {pair} seed {seed} {}: ok {} throughput_ops_s {headline:?}",
                ["a", "b"][side],
                run.ok
            );
            sides[side].push(run);
        }
    }
    Ok(sides)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile (the exclusive method, as
/// `psnap-benchmark compare` computes it).
fn quartile_distance(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let at = |p: f64| {
        let h = (n as f64 + 1.0) * p;
        let j = (h.floor() as usize).clamp(1, n - 1);
        let g = (h - j as f64).clamp(0.0, 1.0);
        v[j - 1] + g * (v[j] - v[j - 1])
    };
    at(0.75) - at(0.25)
}

/// `(name, higher is better)` of the metrics a run with this `trace`
/// setting reports, in `BENCHMARK.json`'s order.
fn declared(trace: bool) -> Vec<(String, bool)> {
    let contract = Json::parse(CONTRACT).expect("BENCHMARK.json is well-formed");
    let key = if trace { "per_layer" } else { "end_to_end" };
    let list = contract.get(key).and_then(Json::as_array);
    list.into_iter()
        .flatten()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            Some((name, m.get("better")?.as_str()? == "higher"))
        })
        .collect()
}

/// The comparison: per metric, each side's median and quartile distance,
/// the ratio of the medians, the ratio inside each pair, and how many pairs
/// `b` won. The last column applies the rule a claimed gain must meet — the
/// winner takes at least nine tenths of the decided pairs and the medians
/// differ by more than the distance between `a`'s quartiles — once there
/// are at least five pairs to apply it to.
pub fn table(opts: &PairOpts, a: &[Run], b: &[Run]) -> Table {
    let values = |runs: &[Run], name: &str| -> Vec<f64> {
        let at = |r: &Run| r.metrics.get(name).copied().unwrap_or(f64::NAN);
        runs.iter().map(at).collect()
    };
    let rows = declared(opts.trace)
        .into_iter()
        .filter(|(name, _)| a.iter().chain(b).any(|r| r.metrics.contains_key(name)))
        .map(|(name, higher)| {
            let (va, vb) = (values(a, &name), values(b, &name));
            let (ma, mb) = (median(&va), median(&vb));
            let b_wins = |(x, y): (&f64, &f64)| if higher { y > x } else { y < x };
            let decided = va.iter().zip(&vb).filter(|(x, y)| x != y).count();
            let won = va.iter().zip(&vb).filter(|&p| b_wins(p)).count();
            let spread = quartile_distance(&va);
            let clear = (mb - ma).abs() > spread;
            let verdict = match decided {
                0 => "same",
                _ if va.len() < 5 => "too few pairs",
                d if clear && won * 10 >= d * 9 && b_wins((&ma, &mb)) => "b better",
                d if clear && (d - won) * 10 >= d * 9 && b_wins((&mb, &ma)) => "b worse",
                _ => "unresolved",
            };
            let ratios: Vec<String> = (va.iter().zip(&vb))
                .map(|(x, y)| format!("{:.2}", y / x))
                .collect();
            vec![
                name,
                sig(ma),
                sig(spread),
                sig(mb),
                sig(quartile_distance(&vb)),
                format!("{:.3}", mb / ma),
                ratios.join(" "),
                format!("{won}/{decided}"),
                verdict.to_string(),
            ]
        })
        .collect();
    let headers = [
        "metric",
        "a median",
        "a q3−q1",
        "b median",
        "b q3−q1",
        "b/a",
        "b/a per pair",
        "pairs b won",
        "by the rule",
    ];
    Table {
        id: "pair".to_string(),
        title: format!(
            "{} — {} pairs × {} s, seeds {}…, a = {}, b = {}",
            opts.workload,
            a.len().min(b.len()),
            opts.seconds,
            opts.seed,
            opts.bins[0].display(),
            opts.bins[1].display()
        ),
        headers: headers.map(str::to_string).to_vec(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> PairOpts {
        let args = ["x/a", "y/b", "--workload", "wire-rtt", "--pairs", "3"];
        PairOpts::parse(&args.map(str::to_string)).unwrap()
    }

    fn runs(metric: &str, values: &[f64]) -> Vec<Run> {
        let run = |&v| Run {
            metrics: BTreeMap::from([(metric.to_string(), v)]),
            ok: true,
        };
        values.iter().map(run).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let o = opts();
        assert_eq!(o.bins, [PathBuf::from("x/a"), PathBuf::from("y/b")]);
        assert_eq!((o.pairs, o.seconds, o.seed, o.trace), (3, 30.0, 1, false));
        let parse = |args: &[&str]| {
            PairOpts::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        assert!(parse(&["a", "--workload", "w", "--pairs", "1"]).is_err());
        assert!(parse(&["a", "b", "--workload", "w"]).is_err());
        assert!(parse(&["a", "b", "--workload", "w", "--pairs", "x"]).is_err());
        assert!(parse(&["a", "b", "--workload", "w", "--pairs", "1", "--bogus"]).is_err());
    }

    #[test]
    fn result_lines_parse() {
        let line = r#"{"attempted":10,"correct":true,"failed":0,"metrics":{"setup_s":{"unit":"s","value":0.5}}}"#;
        let run = Run::parse(line, true).unwrap();
        assert!(run.ok);
        assert_eq!(run.metrics["setup_s"], 0.5);
        assert!(!Run::parse(line, false).unwrap().ok);
        assert!(
            !Run::parse(&line.replace("\"failed\":0", "\"failed\":1"), true)
                .unwrap()
                .ok
        );
        assert!(Run::parse("not json", true).is_err());
    }

    #[test]
    fn checkout_root_is_read_off_the_path() {
        let bin = Path::new("/s/parent/benchmark/target/release/psnap-benchmark");
        assert_eq!(checkout_root(bin), Some(Path::new("/s/parent")));
        assert_eq!(checkout_root(Path::new("/usr/bin/psnap-benchmark")), None);
    }

    #[test]
    fn the_rule_needs_nine_tenths_of_the_pairs_and_a_clear_median() {
        let o = opts();
        let verdict = |name: &str, a: &[f64], b: &[f64]| {
            let t = table(&o, &runs(name, a), &runs(name, b));
            assert_eq!(t.rows.len(), 1, "only the reported metric gets a row");
            (t.rows[0][7].clone(), t.rows[0][8].clone())
        };
        // Higher is better, every pair won, medians far apart.
        let low = [10.0, 11.0, 12.0, 11.0, 10.0];
        let high = [40.0, 41.0, 39.0, 40.0, 41.0];
        let won = verdict("throughput_ops_s", &low, &high);
        assert_eq!(won, ("5/5".to_string(), "b better".to_string()));
        // Lower is better: the same numbers are a loss.
        let lost = verdict("scan_p50_us", &low, &high);
        assert_eq!(lost, ("0/5".to_string(), "b worse".to_string()));
        // Medians inside a's own spread: not resolved, whoever won.
        let wide = [10.0, 20.0, 30.0, 40.0, 50.0];
        let close = verdict("scan_p50_us", &wide, &wide.map(|v| v - 1.0));
        assert_eq!(close, ("5/5".to_string(), "unresolved".to_string()));
        // Four of five pairs is not nine tenths.
        let split = verdict("throughput_ops_s", &low, &[40.0, 41.0, 39.0, 40.0, 9.0]);
        assert_eq!(split, ("4/5".to_string(), "unresolved".to_string()));
        // Nor are four pairs enough to say anything.
        assert_eq!(
            verdict("throughput_ops_s", &low[..4], &high[..4]).1,
            "too few pairs"
        );
        assert_eq!(verdict("setup_s", &[1.0, 2.0], &[1.0, 2.0]).1, "same");
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=7], n=4) == [2, 4, 6]
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartile_distance(&v), 4.0);
        assert_eq!(median(&v), 4.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
    }
}
