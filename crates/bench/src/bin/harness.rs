//! The experiment harness.
//!
//! ```text
//! harness [--quick] [--json] <e15 | e17 | all> [more ids...]
//! harness pair <bin-a> <bin-b> --workload <w> --pairs <n> [--seconds <s>] [--quick] …
//! ```
//!
//! `pair` alternates two prebuilt `psnap-benchmark` binaries and prints the
//! comparison table (see [`psnap_bench::pair`]); it exits 0 only if every
//! run succeeded.
//!
//! `--quick` runs each point with a handful of operations (a smoke of the
//! harness itself). `--json` also writes each experiment's JSON document —
//! derived from the same rows as the printed tables, under a provenance
//! header — atomically, and before the tables print, so neither a killed
//! run nor an early-closed stdout (`| head`) loses or truncates it. A
//! full-effort run writes `BENCH_<id>.json` in the current directory; a
//! quick run's numbers are noise and always go to `target/bench/<id>.json`,
//! so a smoke can never replace a checked-in result.

use psnap_bench::{run_experiment, Effort, EXPERIMENTS};

/// `harness pair …`: run the pairs, print the table.
fn pair(args: &[String]) -> Result<bool, String> {
    let opts = psnap_bench::pair::PairOpts::parse(args)?;
    let [a, b] = psnap_bench::pair::run_pairs(&opts)?;
    println!("{}", psnap_bench::pair::table(&opts, &a, &b).to_markdown());
    let failed = a.iter().chain(&b).filter(|run| !run.ok).count();
    println!("{} runs, {failed} not ok", a.len() + b.len());
    Ok(failed == 0)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "pair") {
        match pair(&args[1..]) {
            Ok(ok) => std::process::exit(if ok { 0 } else { 1 }),
            Err(e) => {
                eprintln!("{e}\nusage: {}", psnap_bench::pair::USAGE);
                std::process::exit(2);
            }
        }
    }
    let mut effort = Effort::Full;
    let mut json = false;
    args.retain(|a| match a.as_str() {
        "--quick" => {
            effort = Effort::Quick;
            false
        }
        "--json" => {
            json = true;
            false
        }
        _ => true,
    });
    let known: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    if args.is_empty() {
        eprintln!(
            "usage: harness [--quick] [--json] <{} | all> [more ids...]",
            known.join(" | ")
        );
        std::process::exit(2);
    }
    let ids: Vec<String> = if args.iter().any(|a| a.eq_ignore_ascii_case("all")) {
        known.iter().map(|id| id.to_string()).collect()
    } else {
        args
    };
    for id in ids {
        let Some(report) = run_experiment(&id, effort) else {
            eprintln!("unknown experiment id: {id} (expected one of {known:?}, all, or pair)");
            std::process::exit(2);
        };
        if json {
            let path = report.write_json().unwrap_or_else(|e| {
                panic!("failed to write {}: {e}", report.json_path().display())
            });
            eprintln!("wrote {}", path.display());
        }
        println!("{}", report.to_markdown());
    }
}
