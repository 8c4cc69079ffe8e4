//! The two experiments the repo benchmark cannot express, and the one row
//! model both report through.
//!
//! * **E15** — a heat-targeted reshard storm under live Zipf traffic on the
//!   sharded multiversioned store.
//! * **E17** — the wire transport against in-process clients at 1/4/16/64
//!   connections, plus a connection-kill storm audited for lost, hung and
//!   duplicated replies.
//!
//! Everything else this crate used to measure is a `benchmark/` rung or an
//! assertion over exact step counts in `tests/paper_claims.rs`; speed claims
//! are made with `benchmark/` and `harness pair`, not here.
//!
//! A measured point is a [`Row`]: an ordered list of `(name, value)`. A
//! [`Report`] derives its markdown tables *and* its JSON document from the
//! same rows, so a column cannot appear in one and not the other.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use psnap_core::{CasPartialSnapshot, PartialSnapshot, ProcessId};
use psnap_json::Json;
use psnap_shard::{MvShardedSnapshot, ShardConfig};
use psnap_workloads::IndexDist;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::Summary;

/// A printable table.
#[derive(Clone, Debug)]
pub struct Table {
    /// What the table belongs to (e.g. `"E15"`).
    pub id: String,
    /// What it shows.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// A number at the precision a table cell needs.
pub(crate) fn sig(x: f64) -> String {
    match x.abs() {
        a if a >= 1000.0 => format!("{x:.0}"),
        a if a >= 10.0 => format!("{x:.2}"),
        _ => format!("{x:.4}"),
    }
}

/// One measured value. The name it is stored under carries the unit
/// (`_ns`, `_per_sec`), so a value prints the same way wherever it lands.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A label.
    Text(String),
    /// A counter.
    Int(u64),
    /// A measurement.
    Num(f64),
    /// An invariant that held or did not.
    Flag(bool),
}

impl Value {
    fn cell(&self) -> String {
        match self {
            Value::Text(s) => s.clone(),
            Value::Int(n) => n.to_string(),
            Value::Num(x) => sig(*x),
            Value::Flag(b) => b.to_string(),
        }
    }

    fn to_json(&self) -> Json {
        match self {
            Value::Text(s) => Json::Str(s.clone()),
            Value::Int(n) => Json::u64(*n),
            Value::Num(x) => Json::Num(*x),
            Value::Flag(b) => Json::Bool(*b),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Text(s)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Int(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Int(n as u64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Num(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Flag(b)
    }
}

/// An ordered list of named values: one measured point, one parameter
/// block, one provenance header.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Row(Vec<(&'static str, Value)>);

impl Row {
    /// Appends `name = value`.
    pub fn with(mut self, name: &'static str, value: impl Into<Value>) -> Row {
        self.0.push((name, value.into()));
        self
    }

    /// The value stored under `name`.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// The names, in order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|(n, _)| *n)
    }

    fn cells(&self) -> Vec<String> {
        self.0.iter().map(|(_, v)| v.cell()).collect()
    }

    fn to_json(&self) -> Json {
        Json::obj(self.0.iter().map(|(n, v)| (*n, v.to_json())))
    }
}

/// How much work each measurement point does, and where its results may go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effort {
    /// A smoke run: enough operations to exercise every path, too few to
    /// mean anything. Its JSON never leaves `target/bench/`.
    Quick,
    /// The effort behind the checked-in `BENCH_E*.json` files.
    Full,
}

impl Effort {
    /// Operations per client (E17) or scans per phase (E15).
    pub fn ops(self) -> usize {
        match self {
            Effort::Quick => 30,
            Effort::Full => 1000,
        }
    }

    /// The name written into the provenance header.
    pub fn name(self) -> &'static str {
        match self {
            Effort::Quick => "quick",
            Effort::Full => "full",
        }
    }
}

/// One experiment's results.
#[derive(Clone, Debug)]
pub struct Report {
    /// Experiment identifier (`"E15"`, `"E17"`).
    pub id: &'static str,
    /// What was measured and how to read it.
    pub description: String,
    /// The constant every RNG stream of the experiment is seeded from.
    pub seed: u64,
    /// The effort the points were measured at.
    pub effort: Effort,
    /// Fixed parameters of the run (`m`, `r`, …).
    pub params: Row,
    /// Named groups of measured points; each group is one table and one
    /// JSON array.
    pub sections: Vec<(&'static str, Vec<Row>)>,
}

impl Report {
    /// The rows of one section (empty if there is no such section).
    pub fn rows(&self, section: &str) -> &[Row] {
        self.sections
            .iter()
            .find(|(name, _)| *name == section)
            .map_or(&[], |(_, rows)| rows)
    }

    /// One table per section; the first carries the description.
    pub fn tables(&self) -> Vec<Table> {
        let params = (self.params.names().zip(self.params.cells()))
            .map(|(name, cell)| format!("{name} = {cell}"))
            .collect::<Vec<_>>()
            .join(", ");
        self.sections
            .iter()
            .enumerate()
            .map(|(i, (name, rows))| Table {
                id: self.id.to_string(),
                title: match i {
                    0 => format!("{} [{params}]", self.description),
                    _ => name.to_string(),
                },
                headers: rows
                    .first()
                    .map_or_else(Vec::new, |r| r.names().map(str::to_string).collect()),
                rows: rows.iter().map(Row::cells).collect(),
            })
            .collect()
    }

    /// Every table, as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let tables: Vec<String> = self.tables().iter().map(Table::to_markdown).collect();
        tables.join("\n")
    }

    /// The JSON document: provenance, description, parameters, and one
    /// array of row objects per section.
    pub fn to_json(&self) -> Json {
        let mut doc = vec![
            ("experiment", Json::Str(self.id.to_string())),
            ("description", Json::Str(self.description.clone())),
            ("provenance", provenance(self.seed, self.effort).to_json()),
            ("params", self.params.to_json()),
        ];
        for (name, rows) in &self.sections {
            doc.push((name, Json::arr(rows.iter().map(Row::to_json))));
        }
        Json::obj(doc)
    }

    /// Where [`write_json`](Report::write_json) puts the document. Only a
    /// full-effort run may replace a checked-in `BENCH_<id>.json`; a quick
    /// run's numbers are noise and stay under `target/`.
    pub fn json_path(&self) -> PathBuf {
        match self.effort {
            Effort::Quick => PathBuf::from(format!("target/bench/{}.json", self.id)),
            Effort::Full => PathBuf::from(format!("BENCH_{}.json", self.id)),
        }
    }

    /// Writes the JSON document atomically — the bytes land in a temporary
    /// sibling first and only a successful rename publishes them, so a
    /// killed run leaves the old file or the new one, never a truncated
    /// hybrid — and returns its path.
    pub fn write_json(&self) -> std::io::Result<PathBuf> {
        let path = self.json_path();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, self.to_json().to_string_pretty())?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

/// Where the numbers came from — the block `benchmark/` writes, plus the
/// effort: enough to tell whether two result files may be compared at all.
fn provenance(seed: u64, effort: Effort) -> Row {
    let command_line = |program: &str, args: &[&str]| {
        let output = std::process::Command::new(program)
            .args(args)
            .output()
            .ok()?;
        (output.status.success())
            .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
    };
    let text = |v: Option<String>| v.unwrap_or_else(|| "unknown".to_string());
    let dirty = match command_line("git", &["status", "--porcelain"]) {
        Some(status) => Value::Flag(!status.is_empty()),
        None => Value::from("unknown"),
    };
    Row::default()
        .with("commit", text(command_line("git", &["rev-parse", "HEAD"])))
        .with("dirty", dirty)
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("rustc", text(command_line("rustc", &["--version"])))
        .with("seed", seed)
        .with("effort", effort.name())
        .with("ops", effort.ops())
}

/// The seed every E15 RNG stream is derived from.
const E15_SEED: u64 = 0xE15;

/// Heat skew over the owning shards: hottest window delta / mean delta.
/// The heat vector grows across generations, so the (shorter) baseline is
/// zero-padded; emptied shards are excluded via `sizes`.
fn e15_heat_skew(before: &[u64], after: &[u64], sizes: &[usize]) -> f64 {
    let deltas: Vec<f64> = sizes
        .iter()
        .enumerate()
        .filter(|(_, &size)| size > 0)
        .map(|(i, _)| {
            let b = before.get(i).copied().unwrap_or(0);
            let a = after.get(i).copied().unwrap_or(0);
            a.saturating_sub(b) as f64
        })
        .collect();
    let total: f64 = deltas.iter().sum();
    if deltas.is_empty() || total <= 0.0 {
        return 1.0;
    }
    let mean = total / deltas.len() as f64;
    deltas.iter().cloned().fold(0.0f64, f64::max) / mean
}

/// One E15 point, on a store of `m` components starting from two contiguous
/// shards: two pinned single-writer updaters churn throughout; the
/// main thread is the scanner and checks per-component monotonicity on every
/// scan; a storm thread splits the hottest owning shard three times (scored
/// by heat-window delta, falling back to slot count when the heat signal is
/// flat) and then merges the coldest survivor. The storm phase loops until
/// the storm thread is done, so every migration happens under measured
/// scan + update traffic.
fn e15_point(m: usize, r: usize, ops: usize, zipf_s: f64) -> Row {
    use psnap_core::{ReshardOp, Resharding};

    let updaters = 2usize;
    // pids 0..updaters write, pid `updaters` scans; the resharder performs
    // no per-process snapshot operations.
    let snapshot = Arc::new(MvShardedSnapshot::new(
        m,
        updaters + 1,
        0u64,
        ShardConfig::contiguous(2),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let update_handles: Vec<_> = (0..updaters)
        .map(|u| {
            let snapshot = Arc::clone(&snapshot);
            let stop = Arc::clone(&stop);
            let dist = IndexDist::zipf(m, zipf_s);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(E15_SEED ^ ((u as u64) << 7));
                // Single-writer discipline: updater `u` owns the components
                // with parity `u` and writes strictly increasing values to
                // each, so any torn or lost migration shows up as a
                // monotonicity violation at the scanner.
                let mut counts = vec![0u64; m];
                while !stop.load(Ordering::Relaxed) {
                    let mut c = dist.sample(&mut rng);
                    c -= c % updaters;
                    c = (c + u).min(m - 1);
                    counts[c] += 1;
                    snapshot.update(ProcessId(u), c, counts[c]);
                }
            })
        })
        .collect();

    let dist = IndexDist::zipf(m, zipf_s);
    let queries: Vec<Vec<usize>> = {
        let mut rng = StdRng::seed_from_u64(E15_SEED << 4);
        (0..12).map(|_| dist.sample_set(&mut rng, r)).collect()
    };
    let query_popularity = IndexDist::zipf(queries.len(), 1.0);
    let scanner_pid = ProcessId(updaters);
    let mut rng = StdRng::seed_from_u64((E15_SEED << 4 | 0xC) ^ (zipf_s.to_bits() >> 3));
    let mut last_seen = vec![0u64; m];
    let mut torn = 0u64;
    let mut failed = 0u64;
    let mut scan_once = |rng: &mut StdRng, last_seen: &mut Vec<u64>| -> f64 {
        let components = &queries[query_popularity.sample(rng)];
        let t0 = std::time::Instant::now();
        let values = snapshot.scan(scanner_pid, components);
        let elapsed = t0.elapsed().as_nanos() as f64;
        if values.len() != components.len() {
            failed += 1;
            return elapsed;
        }
        let mut tear = false;
        for (&c, &v) in components.iter().zip(values.iter()) {
            if v < last_seen[c] {
                tear = true;
            } else {
                last_seen[c] = v;
            }
        }
        if tear {
            torn += 1;
        }
        elapsed
    };

    // Phase A: static layout baseline (and the pre-storm heat window).
    let heat0 = snapshot.shard_heat();
    let sizes0 = snapshot.shard_sizes();
    let shards_before = sizes0.iter().filter(|&&s| s > 0).count();
    let mut baseline = Vec::with_capacity(ops);
    for _ in 0..ops {
        baseline.push(scan_once(&mut rng, &mut last_seen));
    }
    let heat_a = snapshot.shard_heat();
    let skew_before = e15_heat_skew(&heat0, &heat_a, &sizes0);

    // Phase B: the storm thread migrates while the scanner keeps measuring.
    let storm_done = Arc::new(AtomicBool::new(false));
    let storm = {
        let snapshot = Arc::clone(&snapshot);
        let done = Arc::clone(&storm_done);
        std::thread::spawn(move || {
            let mut applied = 0u64;
            let mut last_heat = snapshot.shard_heat();
            for _ in 0..3 {
                std::thread::sleep(std::time::Duration::from_millis(1));
                let heat = snapshot.shard_heat();
                let sizes = snapshot.shard_sizes();
                // Hottest splittable shard by window delta; ties (and a
                // flat signal, e.g. metrics disabled) fall back to size.
                let hottest = sizes
                    .iter()
                    .enumerate()
                    .filter(|(_, &size)| size > 1)
                    .max_by_key(|&(i, &size)| {
                        let b = last_heat.get(i).copied().unwrap_or(0);
                        let a = heat.get(i).copied().unwrap_or(0);
                        (a.saturating_sub(b), size)
                    })
                    .map(|(i, _)| i);
                if let Some(shard) = hottest {
                    if snapshot.reshard(ReshardOp::Split { shard }) {
                        applied += 1;
                    }
                }
                last_heat = snapshot.shard_heat();
            }
            // Fold the coldest survivor into the next-coldest: the merge
            // path runs under the same live traffic as the splits.
            std::thread::sleep(std::time::Duration::from_millis(1));
            let heat = snapshot.shard_heat();
            let sizes = snapshot.shard_sizes();
            let mut owning: Vec<(u64, usize)> = sizes
                .iter()
                .enumerate()
                .filter(|(_, &size)| size > 0)
                .map(|(i, _)| (heat.get(i).copied().unwrap_or(0), i))
                .collect();
            owning.sort_unstable();
            if owning.len() >= 2 {
                let op = ReshardOp::Merge {
                    from: owning[0].1,
                    into: owning[1].1,
                };
                if snapshot.reshard(op) {
                    applied += 1;
                }
            }
            done.store(true, Ordering::Release);
            applied
        })
    };
    let mut through = Vec::with_capacity(ops);
    loop {
        through.push(scan_once(&mut rng, &mut last_seen));
        if through.len() >= ops && storm_done.load(Ordering::Acquire) {
            break;
        }
    }
    let reshards = storm.join().expect("E15 storm thread panicked");

    // Phase C: the settled layout's heat window for the post-storm skew.
    let heat_b = snapshot.shard_heat();
    for _ in 0..ops.div_ceil(2) {
        scan_once(&mut rng, &mut last_seen);
    }
    let heat_c = snapshot.shard_heat();
    let sizes_after = snapshot.shard_sizes();
    let skew_after = e15_heat_skew(&heat_b, &heat_c, &sizes_after);
    let shards_after = sizes_after.iter().filter(|&&s| s > 0).count();

    stop.store(true, Ordering::Relaxed);
    for h in update_handles {
        h.join().expect("E15 updater panicked");
    }
    let baseline_stats = Summary::of(&baseline);
    let through_stats = Summary::of(&through);
    Row::default()
        .with("zipf_s", zipf_s)
        // Owning shards (non-empty slot sets) around the storm.
        .with("shards_before", shards_before)
        .with("shards_after", shards_after)
        .with("reshards", reshards)
        .with("generation", snapshot.generation())
        // Scan latency on the static layout, then while the storm ran.
        .with("baseline_p50_ns", baseline_stats.p50)
        .with("baseline_p99_ns", baseline_stats.p99)
        .with("reshard_p50_ns", through_stats.p50)
        .with("reshard_p99_ns", through_stats.p99)
        // The longest a scan waited out a migration.
        .with("worst_stall_ns", through_stats.max)
        .with("p99_ratio", ratio(through_stats.p99, baseline_stats.p99))
        // Hottest owning shard / mean owning shard; targeted splits should
        // pull it down.
        .with("skew_before", skew_before)
        .with("skew_after", skew_after)
        // Scans that saw a component go backwards (a torn or lost write) or
        // came back with the wrong shape. Must be 0.
        .with("torn_scans", torn)
        .with("failed_scans", failed)
}

/// E15 — online resharding under live traffic on the sharded
/// multiversioned store, starting from two contiguous shards, under
/// moderately and heavily skewed Zipf traffic.
pub fn e15_reshard(effort: Effort) -> Report {
    let (m, r) = (256, 16);
    let points = [0.9f64, 1.2]
        .into_iter()
        .map(|zipf_s| e15_point(m, r, effort.ops(), zipf_s))
        .collect();
    Report {
        id: "E15",
        description: "online resharding under live traffic: scan p50/p99 on a static \
             two-shard layout vs through a heat-targeted reshard storm \
             (split-hottest ×3 then merge-coldest), two single-writer Zipf \
             updaters running throughout, scans drawn from 12 Zipf-popular \
             query shapes. The store migrates behind the shared timestamp \
             camera — writers and scanners keep running during the copy. \
             Every scan is checked for per-component monotonicity against \
             the single-writer discipline; torn_scans and failed_scans must \
             be zero (migration moves values exactly, across every \
             generation). Heat skew (hottest/mean owning shard) is sampled \
             before and after: targeted splits divide the hot shard's load, \
             so skew_after < skew_before under a skewed distribution"
            .to_string(),
        seed: E15_SEED,
        effort,
        params: Row::default()
            .with("m", m)
            .with("r", r)
            .with("ops_per_phase", effort.ops()),
        sections: vec![("points", points)],
    }
}

/// The seed every E17 RNG stream is derived from.
const E17_SEED: u64 = 0xE17;

/// The E17 service type: a Cas-backed service shared by every point.
type E17Service = Arc<psnap_serve::SnapshotService<u64, Arc<CasPartialSnapshot<u64>>>>;

/// The shared E17 service fixture: a Cas-backed service with drain
/// coalescing and ingest room for every connection.
fn e17_service(m: usize) -> (psnap_serve::Executor, E17Service) {
    use psnap_serve::{Coalescing, Executor, ServiceConfig, SnapshotService};
    let executor = Executor::new(2);
    let service = Arc::new(SnapshotService::start(
        Arc::new(CasPartialSnapshot::new(m, 2, 0u64)),
        ServiceConfig {
            coalescing: Coalescing::Window(std::time::Duration::ZERO),
            ingest_capacity: 64,
            scan_capacity: 4096,
            ..ServiceConfig::default()
        },
        &executor,
    ));
    (executor, service)
}

/// The E17 query pool: 12 shared query shapes, picked Zipf-popular by every
/// client, so requests from different connections overlap and can coalesce.
fn e17_queries(m: usize, r: usize) -> Vec<Vec<usize>> {
    let dist = IndexDist::uniform(m);
    let mut rng = StdRng::seed_from_u64(E17_SEED << 4);
    (0..12).map(|_| dist.sample_set(&mut rng, r)).collect()
}

/// How many operations each E17 client keeps in flight. Pipelining is the
/// realistic way clients drive a request/reply transport — it amortizes
/// the per-op wake-ups (and, over the wire, the per-op syscalls) across a
/// window — and both transports run the identical loop, so the comparison
/// stays apples-to-apples. The window is kept well under each
/// connection's ingest room and the scan queue's capacity so steady-state
/// traffic is not shaped by backpressure.
const E17_WINDOW: usize = 16;

/// The loop calls `flush` after every this-many issued ops (the wire
/// transport corks its writes and flushes here; in-process flush is a
/// no-op). Must stay at most `E17_WINDOW / 2`: waits happen only with a
/// full window, so the op being waited on — issued a full window ago — is
/// always at least one flush behind and can never be stuck in the cork
/// buffer.
const E17_FLUSH_EVERY: usize = 8;

/// A deferred completion for one issued E17 op: blocks until the op's
/// reply, returning `true` if it was accepted and `false` on a `busy`
/// rejection.
type E17Waiter = Box<dyn FnOnce() -> bool>;

/// One client's E17 op loop, generic over the transport: `submit` and
/// `scan` issue one op and return `Some(waiter)` for its completion, or
/// `None` on an issue-time Busy that should be retried after draining.
/// Keeps up to [`E17_WINDOW`] ops in flight. Per-op latency is measured
/// issue-to-completion, so it includes pipeline queueing. Returns
/// (scan ns, submit ns, busy count, wall).
fn e17_client_loop(
    c: usize,
    ops: usize,
    m: usize,
    queries: &[Vec<usize>],
    mut submit: impl FnMut(usize, u64) -> Option<E17Waiter>,
    mut scan: impl FnMut(Vec<usize>) -> Option<E17Waiter>,
    mut flush: impl FnMut(),
) -> E17ClientRun {
    let dist = IndexDist::uniform(m);
    let query_popularity = IndexDist::zipf(queries.len(), 1.0);
    let mut rng = StdRng::seed_from_u64(E17_SEED ^ ((c as u64) << 11));
    let mut scans = Vec::with_capacity(ops);
    let mut submits = Vec::with_capacity(ops / 8 + 1);
    let mut busy = 0u64;
    let mut window: std::collections::VecDeque<(std::time::Instant, bool, E17Waiter)> =
        std::collections::VecDeque::with_capacity(E17_WINDOW);
    let mut finish = |(t0, is_submit, waiter): (std::time::Instant, bool, E17Waiter),
                      busy: &mut u64| {
        let accepted = waiter();
        if !accepted {
            *busy += 1;
        }
        let ns = t0.elapsed().as_nanos() as f64;
        if is_submit {
            submits.push(ns);
        } else {
            scans.push(ns);
        }
    };
    let t_start = std::time::Instant::now();
    for k in 0..ops {
        let is_submit = k % 8 == 0;
        loop {
            let t0 = std::time::Instant::now();
            let issued = if is_submit {
                let component = dist.sample(&mut rng);
                let value = (k as u64) << 8 | c as u64;
                submit(component, value)
            } else {
                let components = &queries[query_popularity.sample(&mut rng)];
                scan(components.clone())
            };
            match issued {
                Some(waiter) => {
                    window.push_back((t0, is_submit, waiter));
                    break;
                }
                None => {
                    // Issue-time Busy: drain the oldest in-flight op to
                    // free capacity, then retry.
                    busy += 1;
                    match window.pop_front() {
                        Some(pending) => finish(pending, &mut busy),
                        None => std::thread::yield_now(),
                    }
                }
            }
        }
        if k % E17_FLUSH_EVERY == E17_FLUSH_EVERY - 1 {
            flush();
        }
        if window.len() >= E17_WINDOW {
            let pending = window.pop_front().expect("window is non-empty");
            finish(pending, &mut busy);
        }
    }
    flush();
    while let Some(pending) = window.pop_front() {
        finish(pending, &mut busy);
    }
    (scans, submits, busy, t_start.elapsed())
}

/// What [`e17_client_loop`] returns: (scan ns, submit ns, busy count, wall).
type E17ClientRun = (Vec<f64>, Vec<f64>, u64, std::time::Duration);

struct E17Measured {
    ops_per_sec: f64,
    scan_latency: Summary,
    submit_latency: Summary,
    busy: u64,
}

/// Runs `connections` clients at once and folds what they measured into one
/// point. `client(c, barrier)` sets its client up, waits on the barrier so
/// every loop starts together, and runs [`e17_client_loop`]. Throughput is
/// taken over the wall clock of the slowest client.
fn e17_run_clients(
    connections: usize,
    ops: usize,
    client: impl Fn(usize, &std::sync::Barrier) -> E17ClientRun + Sync,
) -> E17Measured {
    let barrier = std::sync::Barrier::new(connections);
    let mut scan_latency = Vec::new();
    let mut submit_latency = Vec::new();
    let mut busy = 0u64;
    let mut longest_wall = std::time::Duration::ZERO;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let (client, barrier) = (&client, &barrier);
                scope.spawn(move || client(c, barrier))
            })
            .collect();
        for h in handles {
            let (scans, submits, b, wall) = h.join().expect("E17 client panicked");
            scan_latency.extend(scans);
            submit_latency.extend(submits);
            busy += b;
            longest_wall = longest_wall.max(wall);
        }
    });
    E17Measured {
        ops_per_sec: ratio((connections * ops) as f64, longest_wall.as_secs_f64()),
        scan_latency: Summary::of(&scan_latency),
        submit_latency: Summary::of(&submit_latency),
        busy,
    }
}

/// One E17 point over in-process `ClientHandle`s — the baseline the wire
/// rows are priced against.
fn e17_point_inproc(m: usize, r: usize, connections: usize, ops: usize) -> E17Measured {
    use psnap_serve::{Freshness, SubmitError};
    let (_executor, service) = e17_service(m);
    let queries = e17_queries(m, r);
    let measured = e17_run_clients(connections, ops, |c, barrier| {
        let client = service.client();
        barrier.wait();
        e17_client_loop(
            c,
            ops,
            m,
            &queries,
            |component, value| match client.submit(component, value) {
                Ok(ticket) => Some(Box::new(move || {
                    ticket.wait();
                    true
                }) as E17Waiter),
                Err(SubmitError::Busy) => None,
                Err(SubmitError::Closed) => panic!("service closed mid-run"),
            },
            |components| match client.scan(components, Freshness::Fresh) {
                Ok(ticket) => Some(Box::new(move || {
                    ticket.wait();
                    true
                }) as E17Waiter),
                Err(SubmitError::Busy) => None,
                Err(SubmitError::Closed) => panic!("service closed mid-run"),
            },
            || {},
        )
    });
    service.shutdown();
    measured
}

/// One E17 point over loopback TCP: the same workload, every operation a
/// full wire round trip on its own connection, pipelined to the same
/// window as the in-process baseline.
fn e17_point_wire(m: usize, r: usize, connections: usize, ops: usize) -> E17Measured {
    use psnap_serve::Freshness;
    use psnap_wire::{RemoteClientHandle, WireError, WireServer, WireServerConfig};
    let (executor, service) = e17_service(m);
    let server = WireServer::serve_tcp(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig::default(),
        &executor,
    )
    .expect("E17 wire server failed to bind");
    let addr = server.local_addr().expect("tcp server has an address");
    let queries = e17_queries(m, r);
    let measured = e17_run_clients(connections, ops, |c, barrier| {
        let client = RemoteClientHandle::connect_tcp(addr).expect("E17 client failed to connect");
        client
            .set_corked(true)
            .expect("corking a fresh connection cannot fail");
        barrier.wait();
        let out = e17_client_loop(
            c,
            ops,
            m,
            &queries,
            |component, value| match client.submit(component, value) {
                Ok(ticket) => Some(Box::new(move || match ticket.wait() {
                    Ok(()) => true,
                    Err(WireError::Busy) => false,
                    Err(other) => panic!("wire submit failed mid-run: {other}"),
                }) as E17Waiter),
                Err(WireError::Busy) => None,
                Err(other) => panic!("wire submit failed mid-run: {other}"),
            },
            |components| match client.scan(components, Freshness::Fresh) {
                Ok(ticket) => Some(Box::new(move || match ticket.wait() {
                    Ok(_) => true,
                    Err(WireError::Busy) => false,
                    Err(other) => panic!("wire scan failed mid-run: {other}"),
                }) as E17Waiter),
                Err(WireError::Busy) => None,
                Err(other) => panic!("wire scan failed mid-run: {other}"),
            },
            || client.flush().expect("wire flush failed mid-run"),
        );
        client.close();
        out
    });
    server.shutdown(std::time::Duration::from_secs(10));
    service.shutdown();
    measured
}

/// The E17 chaos run: a storm of connections submitting continuously while
/// half of them are killed mid-request, then the response-accounting audit.
fn e17_chaos(m: usize, connections: usize, ops: usize) -> Row {
    use psnap_wire::{RemoteClientHandle, WireError, WireServer, WireServerConfig};
    let (executor, service) = e17_service(m);
    let server = WireServer::serve_tcp(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig::default(),
        &executor,
    )
    .expect("E17 chaos server failed to bind");
    let addr = server.local_addr().expect("tcp server has an address");
    let kills = connections / 2;
    let mut tickets_ok = 0u64;
    let mut tickets_connection_lost = 0u64;
    let mut tickets_busy = 0u64;
    let mut tickets_hung = 0u64;
    let mut duplicate_replies = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..connections {
            handles.push(scope.spawn(move || {
                let client =
                    Arc::new(RemoteClientHandle::connect_tcp(addr).expect("chaos client connect"));
                // Victims get a killer thread that severs the connection
                // partway through the stream, so kills land mid-request.
                let killer = (c < kills).then(|| {
                    let victim = Arc::clone(&client);
                    std::thread::spawn(move || {
                        std::thread::sleep(std::time::Duration::from_micros(200 + 137 * c as u64));
                        victim.kill();
                    })
                });
                let mut tickets = Vec::new();
                for k in 0..ops {
                    match client.submit(k % 64, (k as u64) << 8 | c as u64) {
                        Ok(ticket) => tickets.push(ticket),
                        // The connection died under us: stop submitting.
                        Err(WireError::ConnectionLost(_)) => break,
                        Err(WireError::Busy) => std::thread::yield_now(),
                        Err(other) => panic!("chaos submit failed: {other}"),
                    }
                }
                let (mut ok, mut lost, mut busy, mut hung) = (0u64, 0u64, 0u64, 0u64);
                for mut ticket in tickets {
                    match ticket.wait_timeout(std::time::Duration::from_secs(10)) {
                        Some(Ok(())) => ok += 1,
                        Some(Err(WireError::ConnectionLost(_))) => lost += 1,
                        // Backpressure arrives as a resolved `busy` reply
                        // over the wire, not as a submit-time error.
                        Some(Err(WireError::Busy)) => busy += 1,
                        Some(Err(other)) => panic!("chaos ticket error: {other}"),
                        None => hung += 1,
                    }
                }
                if let Some(killer) = killer {
                    killer.join().expect("killer thread panicked");
                }
                (ok, lost, busy, hung, client.unknown_replies())
            }));
        }
        for h in handles {
            let (ok, lost, busy, hung, unknown) = h.join().expect("chaos client panicked");
            tickets_ok += ok;
            tickets_connection_lost += lost;
            tickets_busy += busy;
            tickets_hung += hung;
            duplicate_replies += unknown;
        }
    });
    // Accepted submissions of killed connections still apply and resolve
    // server-side (each dead connection's reply pump waits on them); give
    // them a bounded window to finish.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let accounting_holds = loop {
        let stats = service.obs().stats;
        if stats.submits_ok == stats.submits_resolved {
            break true;
        }
        if std::time::Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    };
    let stats = service.obs().stats;
    server.shutdown(std::time::Duration::from_secs(10));
    service.shutdown();
    Row::default()
        .with("connections", connections)
        .with("kills", kills)
        .with("tickets_ok", tickets_ok)
        // Resolved, not hung: the connection died with the request
        // outstanding.
        .with("tickets_connection_lost", tickets_connection_lost)
        .with("tickets_busy", tickets_busy)
        // Never resolved within the wait bound — a lost response. Must be 0.
        .with("tickets_hung", tickets_hung)
        // Replies that matched no outstanding request. Must be 0.
        .with("duplicate_replies", duplicate_replies)
        // Server side: submissions accepted into ingestion queues, and those
        // whose ticket resolved. No killed connection may strand one.
        .with("accepted", stats.submits_ok)
        .with("resolved", stats.submits_resolved)
        .with("accounting_holds", accounting_holds)
}

/// Picks the median-throughput run out of several repeats of one point.
/// Short points on a box where every client, reader, and worker thread
/// time-slices a handful of cores are noisy; the median keeps one
/// coherent (throughput, latency) sample instead of averaging across
/// runs with different interleavings.
fn e17_median(mut runs: Vec<E17Measured>) -> E17Measured {
    runs.sort_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec));
    let mid = runs.len() / 2;
    runs.swap_remove(mid)
}

/// E17 — the wire transport: remote vs in-process throughput and latency
/// across connection counts, plus the connection-kill accounting audit.
pub fn e17_wire(effort: Effort) -> Report {
    let (m, r) = (256, 16);
    let ops = effort.ops();
    // Quick runs take one sample per point; full effort takes the median of
    // three to damp scheduler-interleaving noise.
    let repeats = match effort {
        Effort::Quick => 1,
        Effort::Full => 3,
    };
    let mut points = Vec::new();
    for connections in [1usize, 4, 16, 64] {
        let median_of = |point: fn(usize, usize, usize, usize) -> E17Measured| {
            e17_median(
                (0..repeats)
                    .map(|_| point(m, r, connections, ops))
                    .collect(),
            )
        };
        let inproc = median_of(e17_point_inproc);
        let wire = median_of(e17_point_wire);
        let base = inproc.ops_per_sec;
        for (transport, measured) in [("inproc", inproc), ("tcp", wire)] {
            points.push(
                Row::default()
                    .with("transport", transport)
                    .with("connections", connections)
                    // Submits + scans, over the slowest client's wall clock.
                    .with("ops_per_sec", measured.ops_per_sec)
                    // Issue to completion, so pipeline queueing is included.
                    .with("scan_p50_ns", measured.scan_latency.p50)
                    .with("scan_p99_ns", measured.scan_latency.p99)
                    .with("submit_p50_ns", measured.submit_latency.p50)
                    .with("submit_p99_ns", measured.submit_latency.p99)
                    .with("busy_rejections", measured.busy)
                    // What the wire hop costs end to end (1.0 on inproc rows).
                    .with("throughput_vs_inproc", ratio(measured.ops_per_sec, base)),
            );
        }
    }
    let chaos = e17_chaos(m, 16, (ops * 4).max(64));
    Report {
        id: "E17",
        description: "psnap-wire transport: remote clients over loopback TCP vs in-process \
             `ClientHandle`s against the same service (every 8th client op an \
             update submission, the rest Fresh partial scans from a \
             Zipf-popular pool of 12 query shapes, Cas backend, drain coalescing, \
             each client pipelining up to 16 ops in flight on both transports — \
             the wire clients corked, flushing every 8 issues) at \
             1/4/16/64 connections. Each wire op crosses frame encode → socket → \
             decode → the connection's share of the ingest queue → service → reply frame, \
             so throughput_vs_inproc prices the transport end to end; the latency \
             columns are issue-to-completion, including pipeline queueing. The \
             backend is wait-free, so a connection's own server thread runs the \
             service pipeline and sends the replies, and every thread that \
             waits — a socket read at either end, a `Ticket::wait`, a worker \
             out of tasks — polls for up to 50 µs before it parks, yielding \
             between probes (at 64 connections 128 threads share this box's \
             cores). That is what a lone connection wants; with many \
             connections each thread serves the few requests it just read, \
             where slower hand-offs used to let requests from all connections \
             pile up into one union scan and one batch, so the in-process \
             baseline keeps gaining from coalescing faster than the wire side \
             does — read the ratio alongside the absolute ops_per_sec. The chaos \
             section kills connections mid-request and checks the wire layer's \
             accounting: every client ticket resolves (applied or ConnectionLost — \
             tickets_hung must be 0), no reply is duplicated or misattributed, \
             and the server's accepted == resolved invariant survives rude \
             disconnects because accepted submissions still apply and resolve \
             server-side"
            .to_string(),
        seed: E17_SEED,
        effort,
        params: Row::default()
            .with("m", m)
            .with("r", r)
            .with("ops_per_client", ops),
        sections: vec![("points", points), ("chaos", vec![chaos])],
    }
}

/// An experiment: measures at the given effort, reports its rows.
pub type Experiment = fn(Effort) -> Report;

/// Every experiment, in presentation order.
pub const EXPERIMENTS: [(&str, Experiment); 2] = [("E15", e15_reshard), ("E17", e17_wire)];

/// Runs an experiment by id (any case). Returns `None` for an unknown id.
pub fn run_experiment(id: &str, effort: Effort) -> Option<Report> {
    let (_, run) = EXPERIMENTS
        .iter()
        .find(|(known, _)| known.eq_ignore_ascii_case(id))?;
    Some(run(effort))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shape both smokes check: the sections are there, every row of a
    /// section has the section's columns (so its table is rectangular), the
    /// JSON document carries one object per row under the provenance header
    /// and survives the writer/parser.
    fn assert_shape(report: &Report, sections: &[(&str, usize)]) {
        let json = report.to_json();
        assert_eq!(
            json.get("experiment").and_then(Json::as_str),
            Some(report.id)
        );
        for name in ["commit", "nproc", "rustc", "seed", "effort"] {
            assert!(
                json.get("provenance").unwrap().get(name).is_some(),
                "{name}"
            );
        }
        for (table, &(section, len)) in report.tables().iter().zip(sections) {
            let rows = report.rows(section);
            assert_eq!(rows.len(), len, "{section}");
            assert!(rows.iter().all(|r| r.names().eq(rows[0].names())));
            assert_eq!(table.rows.len(), len);
            let points = json.get(section).and_then(Json::as_array).unwrap();
            assert_eq!(points.len(), len);
            for header in &table.headers {
                assert!(points.iter().all(|p| p.get(header).is_some()), "{header}");
            }
        }
        assert_eq!(report.tables().len(), sections.len());
        assert_eq!(Json::parse(&json.to_string_pretty()).unwrap(), json);
    }

    fn int(row: &Row, name: &str) -> u64 {
        match row.get(name) {
            Some(Value::Int(n)) => *n,
            other => panic!("{name} is not a counter: {other:?}"),
        }
    }

    #[test]
    fn table_renders_markdown() {
        let report = Report {
            id: "T",
            description: "demo".into(),
            seed: 7,
            effort: Effort::Quick,
            params: Row::default().with("m", 4usize),
            sections: vec![(
                "points",
                vec![Row::default().with("a", 1usize).with("b", 2.5)],
            )],
        };
        let md = report.to_markdown();
        assert!(md.contains("### T — demo [m = 4]"), "{md}");
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2.5000 |"));
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("E99", Effort::Quick).is_none());
        assert!(run_experiment("E1", Effort::Quick).is_none());
    }

    #[test]
    fn only_full_effort_may_replace_a_checked_in_result() {
        let mut report = Report {
            id: "E17",
            description: String::new(),
            seed: E17_SEED,
            effort: Effort::Quick,
            params: Row::default(),
            sections: Vec::new(),
        };
        assert_eq!(report.json_path(), PathBuf::from("target/bench/E17.json"));
        let effort = |r: &Report| {
            r.to_json()
                .get("provenance")
                .unwrap()
                .get("effort")
                .cloned()
        };
        assert_eq!(effort(&report), Some(Json::Str("quick".into())));
        report.effort = Effort::Full;
        assert_eq!(report.json_path(), PathBuf::from("BENCH_E17.json"));
        assert_eq!(effort(&report), Some(Json::Str("full".into())));
    }

    #[test]
    fn e15_smoke_reshards_apply_and_no_scan_tears() {
        let report = e15_reshard(Effort::Quick);
        // 2 Zipf skews.
        assert_shape(&report, &[("points", 2)]);
        for p in report.rows("points") {
            // The hard acceptance bar, host-independent: migration moves
            // every value exactly, so no scan ever tears or fails.
            assert_eq!(int(p, "torn_scans"), 0, "{p:?}");
            assert_eq!(int(p, "failed_scans"), 0, "{p:?}");
            // The storm really migrated under traffic.
            assert!(int(p, "reshards") >= 1, "{p:?}");
            assert!(int(p, "generation") >= int(p, "reshards"), "{p:?}");
            assert_eq!(int(p, "shards_before"), 2, "{p:?}");
        }
    }

    #[test]
    fn e17_smoke_json_shape_and_chaos_accounting_holds() {
        let report = e17_wire(Effort::Quick);
        // 4 connection counts × 2 transports, then the one chaos row.
        assert_shape(&report, &[("points", 8), ("chaos", 1)]);
        for pair in report.rows("points").chunks(2) {
            assert_eq!(pair[0].get("transport"), Some(&Value::from("inproc")));
            assert_eq!(pair[1].get("transport"), Some(&Value::from("tcp")));
            assert_eq!(pair[0].get("connections"), pair[1].get("connections"));
        }
        // The chaos acceptance criteria: kills interrupted some requests,
        // yet no response was lost or duplicated and the server-side
        // accepted == resolved invariant held.
        let chaos = &report.rows("chaos")[0];
        assert!(int(chaos, "kills") > 0);
        assert!(int(chaos, "tickets_ok") > 0, "no request survived at all");
        assert_eq!(int(chaos, "tickets_hung"), 0, "a lost response");
        assert_eq!(int(chaos, "duplicate_replies"), 0, "{chaos:?}");
        assert_eq!(int(chaos, "accepted"), int(chaos, "resolved"), "{chaos:?}");
        assert_eq!(chaos.get("accounting_holds"), Some(&Value::Flag(true)));
    }
}
