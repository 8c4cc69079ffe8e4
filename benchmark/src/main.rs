//! `psnap-benchmark`: the repo benchmark. See `benchmark/README.md`.
//! `USAGE` below lists the commands.

mod compare;
mod gen;
mod hist;
mod ladder;
mod report;
mod run;
mod spans;
mod stack;
mod sys;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use psnap_json::Json;

use report::Contract;
use run::{RunOpts, SPECS};

const USAGE: &str = "usage:
  psnap-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--quick]
  psnap-benchmark all [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>] [--quick]
  psnap-benchmark compare <old> <new>
  psnap-benchmark selfcheck <set-a> <set-b>
  psnap-benchmark selfcheck [--runs <k>] [--seed <n>] [--seconds <s>] [--out <dir>] [--quick]
workloads: wire-pipelined, wire-rtt, serve-mix, object-rw";

/// Where results go unless `--out` says otherwise; inside the checkout.
const DEFAULT_OUT: &str = "benchmark/out";

struct Args {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = HashMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("quick") => {
                    flags.insert("quick".to_string(), "1".to_string());
                }
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), value.clone());
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Args { flags, positional })
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.flags
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot read `{v}`"))
            })
            .transpose()
    }

    fn quick(&self) -> bool {
        self.flags.contains_key("quick")
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.flags.get("out").map_or(DEFAULT_OUT, String::as_str))
    }
}

/// The one place the run shape is fixed: a full run warms up for 2 s, sets
/// up fifteen times and replays 20 000 ops per ladder rung; `--quick` is the
/// smoke-test shape.
fn run_opts(
    spec: &'static run::Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out_dir: PathBuf,
) -> RunOpts {
    RunOpts {
        spec,
        seed,
        seconds,
        warmup: if quick { seconds / 4.0 } else { 2.0 },
        trace,
        setups: if quick { 2 } else { 15 },
        out_dir,
        ladder_ops: if quick { 800 } else { 20_000 },
    }
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    let name: String = args.get("workload")?.ok_or("run needs --workload")?;
    let spec = run::spec(&name).ok_or(format!("unknown workload `{name}`"))?;
    let seed: u64 = args.get("seed")?.ok_or("run needs --seed")?;
    let seconds: f64 = args.get("seconds")?.ok_or("run needs --seconds")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let trace = match args.get::<u8>("trace")?.ok_or("run needs --trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    let opts = run_opts(spec, seed, seconds, trace, args.quick(), args.out_dir());
    let outcome = run::run(&opts)?;
    if let Some(bad) = outcome
        .end_to_end
        .iter()
        .chain(&outcome.per_layer)
        .find(|m| !m.value.is_finite())
    {
        return Err(format!("metric {} is not a finite number", bad.name));
    }
    let file = report::write_result(&opts, &outcome)?;

    println!(
        "workload {name}  seed {seed}  window {seconds} s  trace {}  op stream {:016x}",
        trace as u8, outcome.stream_hash
    );
    report::print_table("end-to-end", &outcome.end_to_end);
    println!(
        "  {:<36} {:>16.4} MB (not gated)",
        "peak_rss_mb", outcome.peak_rss_mb
    );
    if trace {
        report::print_table("per layer", &outcome.per_layer);
    }
    println!(
        "attempted {}  failed {}  correct {}",
        outcome.attempted,
        outcome.failed,
        outcome.correct()
    );
    for error in &outcome.errors {
        println!("  failure: {error}");
    }
    println!("result file {}", file.display());
    if let Some(path) = &outcome.trace_path {
        println!("spans {}", path.display());
    }
    println!("{}", report::result_line(&outcome, trace));
    Ok(outcome.correct())
}

/// Runs one workload in a process of its own (so that peak RSS is that
/// run's) and returns whether it succeeded and its result line.
fn spawn_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out_dir: &Path,
) -> Result<(bool, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("run")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir)
        .stderr(Stdio::inherit());
    if quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("run of {workload} printed nothing"))?;
    let json = Json::parse(line).map_err(|e| format!("run of {workload}: {e}: {line}"))?;
    Ok((output.status.success(), json))
}

/// A metric's value in a result line.
fn metric_value(line: &Json, name: &str) -> Option<f64> {
    line.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn cmd_all(args: &Args, contract: &Contract) -> Result<bool, String> {
    let seed: u64 = args.get("seed")?.unwrap_or(1);
    let seconds: f64 = args.get("seconds")?.unwrap_or(contract.run_seconds);
    let trace = args.get::<u8>("trace")?.unwrap_or(0) == 1;
    let declared = if trace {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    let mut ok = true;
    let mut columns = Vec::new();
    for spec in &SPECS {
        eprintln!("running {} …", spec.name);
        let (success, line) = spawn_run(
            spec.name,
            seed,
            seconds,
            trace,
            args.quick(),
            &args.out_dir(),
        )?;
        ok &= success;
        columns.push(line);
    }
    print!("{:<34} {:<6}", "metric", "unit");
    for spec in &SPECS {
        print!(" {:>16}", spec.name);
    }
    println!();
    for metric in declared {
        print!("{:<34} {:<6}", metric.name, metric.unit);
        for line in &columns {
            match metric_value(line, &metric.name) {
                Some(v) => print!(" {v:>16.4}"),
                None => {
                    ok = false;
                    print!(" {:>16}", "MISSING");
                }
            }
        }
        println!();
    }
    for key in ["attempted", "failed"] {
        print!("{key:<34} {:<6}", "count");
        for line in &columns {
            print!(
                " {:>16}",
                line.get(key).and_then(Json::as_f64).unwrap_or(-1.0)
            );
        }
        println!();
    }
    print!("{:<34} {:<6}", "correct", "");
    for line in &columns {
        let correct = matches!(line.get("correct"), Some(Json::Bool(true)));
        ok &= correct;
        print!(" {correct:>16}");
    }
    println!();
    if !trace {
        let throughput = |i: usize| metric_value(&columns[i], "throughput_ops_s").unwrap_or(0.0);
        // SPECS[0] is wire-pipelined, SPECS[2] is serve-mix.
        println!(
            "wire-pipelined / serve-mix throughput: {:.3} (ROADMAP's bar for the wire is 0.5)",
            throughput(0) / throughput(2).max(1.0)
        );
    }
    Ok(ok)
}

fn cmd_compare(args: &Args, contract: &Contract) -> Result<bool, String> {
    let [old, new] = args.positional.as_slice() else {
        return Err("compare needs <old> and <new>".into());
    };
    Ok(compare::compare(
        contract,
        &compare::load(Path::new(old))?,
        &compare::load(Path::new(new))?,
    ))
}

fn cmd_selfcheck(args: &Args, contract: &Contract) -> Result<bool, String> {
    let (dir_a, dir_b) = match args.positional.as_slice() {
        [a, b] => (PathBuf::from(a), PathBuf::from(b)),
        [] => {
            // Make the two sets here: run k of A and run k of B back to
            // back, swapping which goes first and rotating the workload
            // order, so that drift lands on both sets alike.
            let runs: usize = args.get("runs")?.unwrap_or(5);
            let seed: u64 = args.get("seed")?.unwrap_or(1);
            let seconds: f64 = args.get("seconds")?.unwrap_or(contract.run_seconds);
            let out = args
                .out_dir()
                .join(format!("selfcheck-{}", std::process::id()));
            let dirs = [out.join("a"), out.join("b")];
            for k in 0..runs {
                for side in 0..2 {
                    let dir = &dirs[(k + side) % 2];
                    for w in 0..SPECS.len() {
                        let spec = &SPECS[(w + k) % SPECS.len()];
                        eprintln!(
                            "selfcheck run {}/{runs} {} → {}",
                            k + 1,
                            spec.name,
                            dir.display()
                        );
                        let (success, _) = spawn_run(
                            spec.name,
                            seed + k as u64,
                            seconds,
                            false,
                            args.quick(),
                            dir,
                        )?;
                        if !success {
                            return Err(format!("a run of {} failed", spec.name));
                        }
                    }
                }
            }
            let [a, b] = dirs;
            (a, b)
        }
        _ => return Err("selfcheck takes two sets of runs, or none to make them".into()),
    };
    Ok(compare::selfcheck(
        contract,
        &compare::load(&dir_a)?,
        &compare::load(&dir_b)?,
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let contract = Contract::load();
    let result = Args::parse(rest).and_then(|args| match command.as_str() {
        "run" => cmd_run(&args),
        "all" => cmd_all(&args, &contract),
        "compare" => cmd_compare(&args, &contract),
        "selfcheck" => cmd_selfcheck(&args, &contract),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("psnap-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn flags_positionals_and_quick_parse() {
        let a = args(&["--seed", "7", "old", "--quick", "new", "--seconds", "2.5"]);
        assert_eq!(a.get::<u64>("seed").unwrap(), Some(7));
        assert_eq!(a.get::<f64>("seconds").unwrap(), Some(2.5));
        assert_eq!(a.positional, ["old", "new"]);
        assert!(a.quick());
        assert!(a.get::<u64>("seconds").is_err());
        assert_eq!(a.out_dir(), PathBuf::from(DEFAULT_OUT));
    }

    /// Every workload, bare and traced, in the smoke-test shape: each run
    /// must verify, and must report every metric `BENCHMARK.json` declares —
    /// no more, no fewer, all finite.
    #[test]
    fn quick_smoke_reports_every_declared_metric() {
        let contract = Contract::load();
        let out = PathBuf::from("out").join(format!("smoke-{}", std::process::id()));
        let started = std::time::Instant::now();
        for spec in &SPECS {
            for trace in [false, true] {
                let opts = run_opts(spec, 11, 0.4, trace, true, out.clone());
                let outcome = run::run(&opts).expect("the run completes");
                assert!(outcome.correct(), "{}: {:?}", spec.name, outcome.errors);
                assert!(outcome.attempted > 0);
                let (got, declared) = if trace {
                    (&outcome.per_layer, &contract.per_layer)
                } else {
                    (&outcome.end_to_end, &contract.end_to_end)
                };
                let mut got_names: Vec<&str> = got.iter().map(|m| m.name.as_str()).collect();
                let mut want: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
                got_names.sort_unstable();
                want.sort_unstable();
                assert_eq!(got_names, want, "{} trace {trace}", spec.name);
                for m in got {
                    assert!(m.value.is_finite(), "{} {}", spec.name, m.name);
                    let d = declared.iter().find(|d| d.name == m.name).unwrap();
                    assert_eq!(d.unit, m.unit, "{}", m.name);
                }
                for m in &outcome.end_to_end {
                    assert!(m.value > 0.0, "{} {} is zero", spec.name, m.name);
                }
                if trace {
                    let trace_file = outcome
                        .trace_path
                        .as_ref()
                        .expect("a traced run writes spans");
                    let text = std::fs::read_to_string(trace_file).unwrap();
                    assert!(Json::parse(&text).unwrap().get("spans").is_some());
                }
                let written = report::write_result(&opts, &outcome).unwrap();
                let file = Json::parse(&std::fs::read_to_string(written).unwrap()).unwrap();
                let provenance = file.get("provenance").expect("a provenance block");
                for key in [
                    "commit",
                    "nproc",
                    "cpu_model",
                    "kernel",
                    "rustc",
                    "seed",
                    "op_stream_fnv",
                ] {
                    assert!(provenance.get(key).is_some(), "provenance.{key}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&out);
        assert!(
            cfg!(debug_assertions) || started.elapsed().as_secs_f64() <= 10.0,
            "the quick smoke took {:?}",
            started.elapsed()
        );
    }
}
