//! The experiment harness: regenerates the E1–E10 tables of EXPERIMENTS.md.
//!
//! Usage:
//!
//! ```text
//! harness [--quick] [--json] <experiment id | all> [more ids...]
//! harness pair <bin-a> <bin-b> --workload <w> --pairs <n> [--seconds <s>] [--quick] …
//! ```
//!
//! `pair` alternates two prebuilt `psnap-benchmark` binaries and prints the
//! comparison table (see [`psnap_bench::pair`]); it exits 0 only if every
//! run succeeded.
//!
//! `--quick` runs each point with a small number of operations (for smoke
//! testing the harness itself); without it, the full effort used for
//! EXPERIMENTS.md is applied. `--json` additionally writes machine-readable
//! results for the experiments that define a JSON schema (E8 →
//! `BENCH_E8.json`, E9 → `BENCH_E9.json`, E10 → `BENCH_E10.json`, E11 →
//! `BENCH_E11.json`, E12 → `BENCH_E12.json`, E13 → `BENCH_E13.json` plus a
//! `BENCH_E13_REGISTRY.json` scrape of the live metric registry, E14 →
//! `BENCH_E14.json`, E15 → `BENCH_E15.json`, E16 → `BENCH_E16.json`, E17 → `BENCH_E17.json`), so the
//! performance trajectory of the sharded store, the lock-free cell, the
//! batched-update path, the service frontend, the multiversioned scan path,
//! the observability layer itself, the fast-path serving tiers, the
//! online-resharding path and the span-tracing layer can be tracked across
//! commits. JSON files are written atomically (temp file
//! in the same directory, then rename), so an interrupted run can never
//! leave a truncated `BENCH_*.json` behind.

use psnap_bench::{
    e10_batched_updates_data, e11_service_data, e12_multiversion_data, e13_obs_overhead_data,
    e14_fastpath_data, e15_reshard_data, e16_span_tracing_data, e17_wire_data, e8_sharding_data,
    e9_cell_contention_data, run_experiment, Effort, ALL_EXPERIMENTS,
};

/// Writes `contents` to `path` atomically: the bytes land in a temporary
/// sibling file first and only a successful rename publishes them, so a
/// crash mid-write leaves either the old file or the new one, never a
/// truncated hybrid.
fn write_atomically(path: &str, contents: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

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
    let mut effort = Effort::full();
    let mut json = false;
    args.retain(|a| match a.as_str() {
        "--quick" => {
            effort = Effort::smoke();
            false
        }
        "--json" => {
            json = true;
            false
        }
        _ => true,
    });
    if args.is_empty() {
        eprintln!("usage: harness [--quick] [--json] <E1..E17 | all> [more ids...]");
        std::process::exit(2);
    }
    let ids: Vec<String> = if args.iter().any(|a| a.eq_ignore_ascii_case("all")) {
        ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    for id in ids {
        // Experiments with a JSON schema: run the measurement once and
        // derive both the JSON document and the table from the same data.
        let measured_with_json = match id.to_ascii_uppercase().as_str() {
            "E8" if json => {
                let data = e8_sharding_data(effort);
                Some((
                    "BENCH_E8.json",
                    data.to_json(),
                    psnap_bench::experiments::e8_sharding_table(&data),
                ))
            }
            "E9" if json => {
                let data = e9_cell_contention_data(effort);
                Some((
                    "BENCH_E9.json",
                    data.to_json(),
                    psnap_bench::experiments::e9_cell_contention_table(&data),
                ))
            }
            "E10" if json => {
                let data = e10_batched_updates_data(effort);
                Some((
                    "BENCH_E10.json",
                    data.to_json(),
                    psnap_bench::experiments::e10_batched_updates_table(&data),
                ))
            }
            "E11" if json => {
                let data = e11_service_data(effort);
                Some((
                    "BENCH_E11.json",
                    data.to_json(),
                    psnap_bench::experiments::e11_service_table(&data),
                ))
            }
            "E12" if json => {
                let data = e12_multiversion_data(effort);
                Some((
                    "BENCH_E12.json",
                    data.to_json(),
                    psnap_bench::experiments::e12_multiversion_table(&data),
                ))
            }
            "E13" if json => {
                let data = e13_obs_overhead_data(effort);
                // The workload just ran fully instrumented; dump the global
                // registry alongside the overhead numbers so a harness run
                // also exercises (and preserves) one real registry scrape.
                let registry = psnap_obs::Registry::global();
                psnap_shmem::metrics::register_metrics(registry);
                write_atomically(
                    "BENCH_E13_REGISTRY.json",
                    &registry.to_json().to_string_pretty(),
                )
                .unwrap_or_else(|e| panic!("failed to write BENCH_E13_REGISTRY.json: {e}"));
                eprintln!("wrote BENCH_E13_REGISTRY.json");
                Some((
                    "BENCH_E13.json",
                    data.to_json(),
                    psnap_bench::experiments::e13_obs_overhead_table(&data),
                ))
            }
            "E14" if json => {
                let data = e14_fastpath_data(effort);
                Some((
                    "BENCH_E14.json",
                    data.to_json(),
                    psnap_bench::experiments::e14_fastpath_table(&data),
                ))
            }
            "E15" if json => {
                let data = e15_reshard_data(effort);
                Some((
                    "BENCH_E15.json",
                    data.to_json(),
                    psnap_bench::experiments::e15_reshard_table(&data),
                ))
            }
            "E16" if json => {
                let data = e16_span_tracing_data(effort);
                Some((
                    "BENCH_E16.json",
                    data.to_json(),
                    psnap_bench::experiments::e16_span_tracing_table(&data),
                ))
            }
            "E17" if json => {
                let data = e17_wire_data(effort);
                Some((
                    "BENCH_E17.json",
                    data.to_json(),
                    psnap_bench::experiments::e17_wire_table(&data),
                ))
            }
            _ => None,
        };
        if let Some((path, doc, table)) = measured_with_json {
            // The file is written before the table prints so an early-closed
            // stdout (e.g. `| head`) cannot lose the machine-readable results.
            write_atomically(path, &doc.to_string_pretty())
                .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
            eprintln!("wrote {path}");
            println!("{}", table.to_markdown());
            continue;
        }
        match run_experiment(&id, effort) {
            Some(table) => {
                println!("{}", table.to_markdown());
            }
            None => {
                eprintln!("unknown experiment id: {id} (expected one of {ALL_EXPERIMENTS:?})");
                std::process::exit(2);
            }
        }
    }
}
