//! One run of one workload: repeated set-up, warm-up, the measured window
//! cut into segments, and the checks that make `failed` mean something.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use psnap_core::PartialSnapshot;
use psnap_serve::ServiceStats;

use crate::gen::{self, encode_value, value_writer, Inputs, Mix, Op, M, STREAM_LEN};
use crate::hist::LogHist;
use crate::spans::{self, SpanBuf, SpanName, SpanRec};
use crate::stack::{
    build_object, Boundary, Client, Done, Object, Pending, Stack, SCAN_PID, UPDATE_PID,
};
use crate::{ladder, sys};

pub struct Spec {
    pub name: &'static str,
    /// Where the workload's callers stand.
    pub boundary: Boundary,
    /// One entry per generator thread / connection (at most `nproc` = 2).
    pub mixes: &'static [Mix],
    /// Ops each client keeps in flight.
    pub depth: usize,
    /// Corked clients flush after this many issued ops; 0 = uncorked.
    pub flush_every: usize,
    /// In a traced run, one op in this many records spans.
    pub span_every: u64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "wire-pipelined",
        boundary: Boundary::Unix,
        mixes: &[Mix::OneInEight, Mix::OneInEight],
        depth: 16,
        flush_every: 8,
        span_every: 64,
    },
    Spec {
        name: "wire-rtt",
        boundary: Boundary::Unix,
        mixes: &[Mix::Alternating],
        depth: 1,
        flush_every: 0,
        span_every: 8,
    },
    Spec {
        name: "serve-mix",
        boundary: Boundary::InProc,
        mixes: &[Mix::OneInEight, Mix::OneInEight],
        depth: 16,
        flush_every: 0,
        span_every: 128,
    },
    Spec {
        name: "object-rw",
        boundary: Boundary::Object,
        mixes: &[Mix::UpdatesOnly, Mix::ScansOnly],
        depth: 1,
        flush_every: 0,
        span_every: 2048,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// `object-rw` times one op in this many, so the timer stays out of its
/// throughput; the ops in between are attributed to the timed op's segment.
const OBJECT_SAMPLE_EVERY: u64 = 16;
/// A `Busy` refusal is retried this often before the op counts as failed.
const BUSY_RETRIES: usize = 8;
/// Spans kept per thread; later ones are counted as dropped.
const SPAN_CAP: usize = 1 << 18;
/// How many error messages a run keeps (all failures are counted).
const MAX_ERRORS: usize = 8;

pub struct RunOpts {
    pub spec: &'static Spec,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub warmup: f64,
    pub trace: bool,
    /// How many times set-up is repeated; `setup_s` is their median.
    pub setups: usize,
    /// Where sockets, result files and `trace.json` go.
    pub out_dir: PathBuf,
    /// Ops per ladder rung (traced runs only).
    pub ladder_ops: usize,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub stream_hash: u64,
    pub trace_path: Option<PathBuf>,
    /// `VmHWM` when the window closed. Measured on every run but not gated:
    /// it is set by the longest reclamation stall of the run, which the
    /// scheduler decides (see the README).
    pub peak_rss_mb: f64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The clock of a run: offsets from `start`, in nanoseconds.
struct Phases {
    start: Instant,
    warm_ns: u64,
    end_ns: u64,
    seg_ns: u64,
    segments: usize,
    trace: bool,
}

impl Phases {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// The window segment `t` falls in, if it is inside the window.
    fn segment(&self, t: u64) -> Option<usize> {
        if t < self.warm_ns || t >= self.end_ns {
            return None;
        }
        Some((((t - self.warm_ns) / self.seg_ns) as usize).min(self.segments - 1))
    }

    /// A traced run records spans in odd segments only; the even ones run
    /// bare, so the same run yields traced and untraced throughput.
    fn tracing_at(&self, t: u64) -> bool {
        self.trace && self.segment(t).is_some_and(|s| s % 2 == 1)
    }
}

/// What one client thread hands back.
struct ClientResult {
    /// Latencies of the ops completed in the window.
    scan_ns: LogHist,
    update_ns: LogHist,
    seg_ops: Vec<u64>,
    attempted: u64,
    check: Checker,
    /// Last acknowledged value per component this client owns (else 0).
    last_acked: Vec<u64>,
    spans: SpanBuf,
}

/// The in-run checks: result shape, the value's writer, and per-component
/// monotonicity across this client's own successive scans and acknowledged
/// writes.
struct Checker {
    floor: Vec<u64>,
    /// Results of completed ops, applied to `floor` once every op that could
    /// still be concurrent with them has been issued.
    settling: VecDeque<(u64, Seen)>,
    failed: u64,
    errors: Vec<String>,
}

enum Seen {
    Scan { query: u8, values: Vec<u64> },
    Write { component: u16, value: u64 },
}

impl Checker {
    fn new(initial: &[u64]) -> Checker {
        Checker {
            floor: initial.to_vec(),
            settling: VecDeque::new(),
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(why);
        }
    }

    /// Raises the floors by everything seen by ops `< done_at_issue`: those
    /// had completed before the op now being checked was issued, so it may
    /// not observe anything older.
    fn settle(&mut self, done_at_issue: u64, queries: &[Vec<usize>]) {
        while self
            .settling
            .front()
            .is_some_and(|(k, _)| *k < done_at_issue)
        {
            match self.settling.pop_front().expect("front exists").1 {
                Seen::Scan { query, values } => {
                    for (&c, &v) in queries[query as usize].iter().zip(&values) {
                        self.floor[c] = self.floor[c].max(v);
                    }
                }
                Seen::Write { component, value } => {
                    let c = component as usize;
                    self.floor[c] = self.floor[c].max(value);
                }
            }
        }
    }

    fn scan(
        &mut self,
        k: u64,
        done_at_issue: u64,
        query: u8,
        values: Vec<u64>,
        queries: &[Vec<usize>],
        owner: &[u8],
    ) {
        self.settle(done_at_issue, queries);
        let components = &queries[query as usize];
        if values.len() != components.len() {
            self.fail(format!(
                "op {k}: scan of {} components returned {} values",
                components.len(),
                values.len()
            ));
            return;
        }
        for (&c, &v) in components.iter().zip(&values) {
            if value_writer(v) != owner[c] as usize {
                self.fail(format!(
                    "op {k}: component {c} holds {v:#x}, not written by its owner {}",
                    owner[c]
                ));
            } else if v < self.floor[c] {
                self.fail(format!(
                    "op {k}: component {c} went back from {:#x} to {v:#x}",
                    self.floor[c]
                ));
            }
        }
        self.settling.push_back((k, Seen::Scan { query, values }));
    }

    fn write(&mut self, k: u64, component: u16, value: u64) {
        self.settling
            .push_back((k, Seen::Write { component, value }));
    }
}

/// Everything a client thread needs.
struct ClientCx<'a> {
    id: usize,
    spec: &'a Spec,
    inputs: &'a Inputs,
    phases: &'a Phases,
    barrier: &'a Barrier,
    /// Clients stay alive until the main thread has taken its closing
    /// readings: an exited thread takes its context-switch counts with it.
    finish_line: &'a Barrier,
    start_seq: u64,
    initial: &'a [u64],
}

impl ClientCx<'_> {
    /// This client's `k`-th op; the stream is cycled.
    fn op(&self, k: u64) -> Op {
        self.inputs.streams[self.id][k as usize % STREAM_LEN]
    }

    fn result(&self) -> ClientResult {
        ClientResult {
            scan_ns: LogHist::new(),
            update_ns: LogHist::new(),
            seg_ops: vec![0; self.phases.segments],
            attempted: 0,
            check: Checker::new(self.initial),
            last_acked: (0..M)
                .map(|c| {
                    if self.inputs.owner[c] as usize == self.id {
                        self.initial[c]
                    } else {
                        0
                    }
                })
                .collect(),
            spans: SpanBuf::new(self.id, if self.phases.trace { SPAN_CAP } else { 0 }),
        }
    }
}

/// An op in a pipelined client's window.
struct InFlight {
    k: u64,
    issued_ns: u64,
    op: Op,
    value: u64,
    pending: Pending,
    done_at_issue: u64,
    /// The op's `client.op` span id when it is traced, else 0.
    root: u64,
}

/// The closed loop on a request/reply boundary: keep `depth` ops in flight,
/// wait for the oldest before issuing the next.
fn pipelined_client(cx: &ClientCx<'_>, client: &Client) -> ClientResult {
    let mut res = cx.result();
    let phases = cx.phases;
    let depth = cx.spec.depth;
    let mut window: VecDeque<InFlight> = VecDeque::with_capacity(depth + 1);
    let mut seq = cx.start_seq;
    let mut completed = 0u64;
    let mut k = 0u64;
    cx.barrier.wait();
    loop {
        let t0 = phases.now_ns();
        if t0 >= phases.end_ns {
            break;
        }
        let op = cx.op(k);
        // The traced op is the last of its flush group, so its spans include
        // the flush it triggers.
        let traced = phases.tracing_at(t0) && k % cx.spec.span_every == cx.spec.span_every - 1;
        let root = if traced { res.spans.alloc_id() } else { 0 };
        let value = match op {
            Op::Update { .. } => {
                seq += 1;
                encode_value(cx.id, seq)
            }
            Op::Scan { .. } => 0,
        };
        res.attempted += 1;
        // An issue-time refusal frees capacity by finishing the oldest op in
        // flight, then tries again.
        let mut refusals = 0;
        let pending = loop {
            match issue(client, op, value, cx.inputs) {
                Ok(pending) => break Some(pending),
                Err(Done::Busy) if refusals < BUSY_RETRIES => {
                    refusals += 1;
                    match window.pop_front() {
                        Some(oldest) => finish(cx, client, &mut res, oldest, &mut completed),
                        None => std::thread::yield_now(),
                    }
                }
                Err(other) => {
                    res.check.fail(format!("op {k}: issue: {other:?}"));
                    break None;
                }
            }
        };
        if traced {
            let t = phases.now_ns();
            res.spans.record(SpanName::ClientIssue, root, k, t0, t);
        }
        if let Some(pending) = pending {
            window.push_back(InFlight {
                k,
                issued_ns: t0,
                op,
                value,
                pending,
                done_at_issue: completed,
                root,
            });
        }
        k += 1;
        if cx.spec.flush_every > 0 && (k as usize).is_multiple_of(cx.spec.flush_every) {
            flush(cx, client, &mut res, traced.then_some((root, k - 1)));
        }
        if window.len() >= depth {
            let oldest = window.pop_front().expect("window is non-empty");
            finish(cx, client, &mut res, oldest, &mut completed);
        }
    }
    flush(cx, client, &mut res, None);
    while let Some(oldest) = window.pop_front() {
        finish(cx, client, &mut res, oldest, &mut completed);
    }
    cx.finish_line.wait();
    res
}

fn issue(client: &Client, op: Op, value: u64, inputs: &Inputs) -> Result<Pending, Done> {
    match op {
        Op::Update { component } => client.submit(component as usize, value),
        Op::Scan { query } => client.scan(&inputs.queries[query as usize]),
    }
}

fn flush(cx: &ClientCx<'_>, client: &Client, res: &mut ClientResult, traced: Option<(u64, u64)>) {
    let t0 = traced.map(|_| cx.phases.now_ns());
    if let Err(why) = client.flush() {
        res.check.fail(format!("flush: {why}"));
    }
    if let (Some((root, k)), Some(t0)) = (traced, t0) {
        let t1 = cx.phases.now_ns();
        res.spans.record(SpanName::ClientFlush, root, k, t0, t1);
    }
}

/// Waits for one op, checks what it returned and books its latency.
fn finish(
    cx: &ClientCx<'_>,
    client: &Client,
    res: &mut ClientResult,
    op: InFlight,
    completed: &mut u64,
) {
    let phases = cx.phases;
    let wait_from = (op.root != 0).then(|| phases.now_ns());
    let mut done = op.pending.wait();
    // A refusal that arrives in the reply: issue again, one at a time.
    let mut retries = 0;
    while done == Done::Busy && retries < BUSY_RETRIES {
        retries += 1;
        std::thread::yield_now();
        done = match issue(client, op.op, op.value, cx.inputs) {
            Ok(pending) => match client.flush() {
                Ok(()) => pending.wait(),
                Err(why) => Done::Fatal(why),
            },
            Err(refused) => refused,
        };
    }
    let t1 = phases.now_ns();
    if let Some(wait_from) = wait_from {
        res.spans
            .record(SpanName::ClientWait, op.root, op.k, wait_from, t1);
        res.spans.push(SpanRec {
            id: op.root,
            parent: 0,
            name: SpanName::ClientOp,
            op: op.k,
            start_ns: op.issued_ns,
            end_ns: t1,
        });
    }
    match (op.op, done) {
        (Op::Scan { query }, Done::Values(values)) => {
            res.check.scan(
                op.k,
                op.done_at_issue,
                query,
                values,
                &cx.inputs.queries,
                &cx.inputs.owner,
            );
            if let Some(seg) = phases.segment(t1) {
                res.seg_ops[seg] += 1;
                res.scan_ns.record(t1 - op.issued_ns);
            }
        }
        (Op::Update { component }, Done::Applied) => {
            res.last_acked[component as usize] = op.value;
            res.check.write(op.k, component, op.value);
            if let Some(seg) = phases.segment(t1) {
                res.seg_ops[seg] += 1;
                res.update_ns.record(t1 - op.issued_ns);
            }
        }
        (_, other) => res.check.fail(format!("op {}: {other:?}", op.k)),
    }
    *completed += 1;
}

/// `object-rw`'s updater: `update` flat out, directly on the object.
fn object_updater(cx: &ClientCx<'_>, object: &Object) -> ClientResult {
    let mut res = cx.result();
    let mut seq = cx.start_seq;
    let mut k = 0u64;
    cx.barrier.wait();
    'run: loop {
        for i in 0..OBJECT_SAMPLE_EVERY {
            let Op::Update { component } = cx.op(k) else {
                unreachable!("the updater's stream holds only updates");
            };
            seq += 1;
            let value = encode_value(cx.id, seq);
            let update = || object.update(UPDATE_PID, component as usize, value);
            if i + 1 < OBJECT_SAMPLE_EVERY {
                update();
            } else if timed_direct(cx, &mut res, k, SpanName::ObjectUpdate, update).is_none() {
                break 'run;
            }
            res.last_acked[component as usize] = value;
            res.attempted += 1;
            k += 1;
        }
    }
    cx.finish_line.wait();
    res
}

/// `object-rw`'s scanner: `scan` on the query pool, directly on the object,
/// every result checked.
fn object_scanner(cx: &ClientCx<'_>, object: &Object) -> ClientResult {
    let mut res = cx.result();
    let mut k = 0u64;
    cx.barrier.wait();
    'run: loop {
        for i in 0..OBJECT_SAMPLE_EVERY {
            let Op::Scan { query } = cx.op(k) else {
                unreachable!("the scanner's stream holds only scans");
            };
            let scan = || object.scan(SCAN_PID, &cx.inputs.queries[query as usize]);
            let values = if i + 1 < OBJECT_SAMPLE_EVERY {
                scan()
            } else {
                match timed_direct(cx, &mut res, k, SpanName::ObjectScan, scan) {
                    Some(values) => values,
                    None => break 'run,
                }
            };
            res.check
                .scan(k, k, query, values, &cx.inputs.queries, &cx.inputs.owner);
            res.attempted += 1;
            k += 1;
        }
    }
    cx.finish_line.wait();
    res
}

/// The one timed call of an `object-rw` chunk: books its latency and the
/// whole chunk's ops in the segment it ended in, and in a traced segment
/// records `client.issue` around `object.*`. `None` once the window is over.
fn timed_direct<T>(
    cx: &ClientCx<'_>,
    res: &mut ClientResult,
    k: u64,
    name: SpanName,
    call: impl FnOnce() -> T,
) -> Option<T> {
    let phases = cx.phases;
    let outer = phases.now_ns();
    if outer >= phases.end_ns {
        return None;
    }
    let t0 = phases.now_ns();
    let out = call();
    let t1 = phases.now_ns();
    if k % cx.spec.span_every == OBJECT_SAMPLE_EVERY - 1 && phases.tracing_at(t1) {
        let issue = res.spans.alloc_id();
        res.spans.record(name, issue, k, t0, t1);
        res.spans.push(SpanRec {
            id: issue,
            parent: 0,
            name: SpanName::ClientIssue,
            op: k,
            start_ns: outer,
            end_ns: phases.now_ns(),
        });
    }
    if let Some(seg) = phases.segment(t1) {
        res.seg_ops[seg] += OBJECT_SAMPLE_EVERY;
        let hist = match name {
            SpanName::ObjectUpdate => &mut res.update_ns,
            _ => &mut res.scan_ns,
        };
        hist.record(t1 - t0);
    }
    Some(out)
}

/// Readings taken at both ends of the measured window.
struct Reading {
    cpu_s: f64,
    ctx_switches: u64,
    service: Option<ServiceStats>,
    mv_installed: u64,
    mv_help_finalized: u64,
    epoch_retired: u64,
    epoch_freed: u64,
}

impl Reading {
    fn take(stack: &Stack) -> Reading {
        use psnap_shmem::metrics;
        Reading {
            cpu_s: sys::cpu_seconds(),
            ctx_switches: sys::context_switches(),
            service: stack.service.as_ref().map(|s| s.stats()),
            mv_installed: metrics::mv_installed().get(),
            mv_help_finalized: metrics::mv_help_finalized().get(),
            epoch_retired: metrics::epoch_retired().get(),
            epoch_freed: metrics::epoch_freed().get(),
        }
    }
}

fn sleep_until(phases: &Phases, t_ns: u64) {
    let now = phases.now_ns();
    if t_ns > now {
        std::thread::sleep(Duration::from_nanos(t_ns - now));
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method).
pub fn quartiles(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n < 2 {
        let v = values.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |p: f64| {
        let h = (n as f64 + 1.0) * p;
        let j = (h.floor() as usize).clamp(1, n - 1);
        let g = (h - j as f64).clamp(0.0, 1.0);
        values[j - 1] + g * (values[j] - values[j - 1])
    };
    (at(0.25), at(0.75))
}

/// What one set-up leaves ready to run.
struct SetUp {
    inputs: Inputs,
    stack: Stack,
    /// Per writer, the sequence number the pre-fill reached.
    seqs: Vec<u64>,
    /// Per component, the pre-filled value.
    initial: Vec<u64>,
}

/// One set-up: generate the inputs, build and pre-fill the object, start
/// executor, service and server, bind and connect.
fn set_up(opts: &RunOpts) -> Result<SetUp, String> {
    let spec = opts.spec;
    let inputs = gen::generate(opts.seed, spec.mixes);
    let (object, seqs, initial) = build_object(&inputs);
    let stack = Stack::build(
        object,
        spec.boundary,
        spec.mixes.len(),
        spec.flush_every > 0,
        &opts.out_dir,
    )?;
    Ok(SetUp {
        inputs,
        stack,
        seqs,
        initial,
    })
}

pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let spec = opts.spec;
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;

    // Set-up, several times over; the last one is the one that runs.
    let mut setup_times = Vec::with_capacity(opts.setups);
    let mut kept = None;
    for _ in 0..opts.setups.max(1) {
        drop(kept.take());
        let t = Instant::now();
        let built = set_up(opts)?;
        setup_times.push(t.elapsed().as_secs_f64());
        kept = Some(built);
    }
    let SetUp {
        inputs,
        stack,
        seqs,
        initial,
    } = kept.expect("at least one set-up ran");

    let seg_ns = if opts.seconds >= 4.0 {
        1_000_000_000
    } else {
        ((opts.seconds / 4.0) * 1e9) as u64
    }
    .max(1);
    let window_ns = (opts.seconds * 1e9) as u64;
    let warm_ns = (opts.warmup * 1e9) as u64;
    let phases = Phases {
        start: Instant::now(),
        warm_ns,
        end_ns: warm_ns + window_ns,
        seg_ns,
        segments: window_ns.div_ceil(seg_ns).max(1) as usize,
        trace: opts.trace,
    };
    let barrier = Barrier::new(spec.mixes.len());
    let finish_line = Barrier::new(spec.mixes.len() + 1);

    let mut bag_max = 0i64;
    let (results, before, after) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.mixes.len())
            .map(|id| {
                let cx = ClientCx {
                    id,
                    spec,
                    inputs: &inputs,
                    phases: &phases,
                    barrier: &barrier,
                    finish_line: &finish_line,
                    start_seq: seqs[id],
                    initial: &initial,
                };
                let stack = &stack;
                scope.spawn(move || match spec.boundary {
                    Boundary::Object if spec.mixes[id] == Mix::UpdatesOnly => {
                        object_updater(&cx, &stack.object)
                    }
                    Boundary::Object => object_scanner(&cx, &stack.object),
                    _ => pipelined_client(&cx, &stack.clients[id]),
                })
            })
            .collect();
        sleep_until(&phases, phases.warm_ns);
        let before = Reading::take(&stack);
        // Watch the epoch bags while the window runs.
        loop {
            bag_max = bag_max.max(psnap_shmem::metrics::epoch_bag_items().get());
            let now = phases.now_ns();
            if now >= phases.end_ns {
                break;
            }
            sleep_until(&phases, (now + 100_000_000).min(phases.end_ns));
        }
        let after = Reading::take(&stack);
        finish_line.wait();
        let results: Vec<ClientResult> = handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect();
        (results, before, after)
    });

    // After the run, a full scan must equal the last acknowledged write of
    // every component.
    let mut attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = results.iter().map(|r| r.check.failed).sum();
    let mut errors: Vec<String> = results
        .iter()
        .flat_map(|r| r.check.errors.iter().cloned())
        .collect();
    let all: Vec<usize> = (0..M).collect();
    let final_values = match spec.boundary {
        Boundary::Object => Ok(stack.object.scan(SCAN_PID, &all)),
        _ => stack.clients[0]
            .scan(&all)
            .and_then(|pending| {
                stack.clients[0].flush().map_err(Done::Fatal)?;
                Ok(pending.wait())
            })
            .and_then(|done| match done {
                Done::Values(v) if v.len() == M => Ok(v),
                other => Err(other),
            }),
    };
    attempted += M as u64;
    match final_values {
        Ok(values) => {
            for (c, &v) in values.iter().enumerate() {
                let expected = results[inputs.owner[c] as usize].last_acked[c];
                if v != expected {
                    failed += 1;
                    errors.push(format!(
                        "final scan: component {c} holds {v:#x}, last acknowledged write was {expected:#x}"
                    ));
                }
            }
        }
        Err(why) => {
            failed += M as u64;
            errors.push(format!("final scan failed: {why:?}"));
        }
    }
    errors.truncate(MAX_ERRORS);

    // Segment throughputs, all clients together.
    let seg_secs = phases.seg_ns as f64 / 1e9;
    let seg_tput: Vec<f64> = (0..phases.segments)
        .map(|s| results.iter().map(|r| r.seg_ops[s]).sum::<u64>() as f64 / seg_secs)
        .collect();
    let window_ops: u64 = results.iter().flat_map(|r| r.seg_ops.iter()).sum();
    let mut scan_ns = LogHist::new();
    let mut update_ns = LogHist::new();
    for r in &results {
        scan_ns.merge(&r.scan_ns);
        update_ns.merge(&r.update_ns);
    }

    let end_to_end = vec![
        Metric {
            name: "throughput_ops_s".into(),
            value: window_ops as f64 / opts.seconds,
            unit: "ops/s",
        },
        Metric {
            name: "scan_p50_us".into(),
            value: scan_ns.quantile(0.5) / 1e3,
            unit: "us",
        },
        Metric {
            name: "update_p50_us".into(),
            value: update_ns.quantile(0.5) / 1e3,
            unit: "us",
        },
        Metric {
            name: "cpu_us_per_op".into(),
            value: ratio((after.cpu_s - before.cpu_s) * 1e6, window_ops as f64),
            unit: "us/op",
        },
        Metric {
            name: "setup_s".into(),
            value: median(&mut setup_times),
            unit: "s",
        },
    ];

    let peak_rss_mb = sys::peak_rss_mb();
    let mut per_layer = Vec::new();
    let mut trace_path = None;
    if opts.trace {
        let mut layer: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
        let mut put = |name: &str, value: f64, unit: &'static str| {
            layer.insert(name.to_string(), (value, unit));
        };

        // shmem counters over the window.
        let updates = update_ns_count(&results, spec);
        let ops = window_ops as f64;
        put(
            "shmem.mv.installs_per_update",
            ratio((after.mv_installed - before.mv_installed) as f64, updates),
            "count",
        );
        put(
            "shmem.mv.help_finalized_per_kop",
            ratio(
                (after.mv_help_finalized - before.mv_help_finalized) as f64,
                ops / 1e3,
            ),
            "count",
        );
        put(
            "shmem.mv.chain_len_p99",
            psnap_shmem::metrics::mv_chain_len().snapshot().p99 as f64,
            "count",
        );
        let retired = (after.epoch_retired - before.epoch_retired) as f64;
        put("shmem.epoch.retired_per_op", ratio(retired, ops), "count");
        put(
            "shmem.epoch.freed_share",
            ratio((after.epoch_freed - before.epoch_freed) as f64, retired),
            "share",
        );
        put("shmem.epoch.bag_max", bag_max as f64, "count");

        // serve counters over the window (0 when the workload has no service).
        let zero = ServiceStats::default();
        let s0 = before.service.as_ref().unwrap_or(&zero);
        let s1 = after.service.as_ref().unwrap_or(&zero);
        let d = |f: fn(&ServiceStats) -> u64| (f(s1) - f(s0)) as f64;
        put(
            "serve.scans_per_backing_scan",
            ratio(d(|s| s.scans_served_backing), d(|s| s.backing_scans)),
            "ratio",
        );
        put(
            "serve.component_dedup_ratio",
            ratio(d(|s| s.requested_components), d(|s| s.backing_components)),
            "ratio",
        );
        put(
            "serve.backing_scan_mean_us",
            ratio(d(|s| s.backing_latency.sum), d(|s| s.backing_latency.count)) / 1e3,
            "us",
        );
        put(
            "serve.writes_per_batch",
            ratio(d(|s| s.writes_applied), d(|s| s.batches_applied)),
            "count",
        );
        put(
            "serve.writes_coalesced_share",
            ratio(d(|s| s.writes_coalesced_away), d(|s| s.writes_submitted)),
            "share",
        );
        let refused = d(|s| s.submits_busy) + d(|s| s.scans_busy);
        put(
            "serve.busy_share",
            ratio(refused, refused + d(|s| s.submits_ok) + d(|s| s.scans_ok)),
            "share",
        );

        put(
            "wire.ctx_switches_per_op",
            ratio((after.ctx_switches - before.ctx_switches) as f64, ops),
            "count",
        );

        // The client's own spans.
        let mut all_spans: Vec<SpanRec> = Vec::new();
        let mut dropped = 0;
        for r in results {
            dropped += r.spans.dropped;
            all_spans.extend(r.spans.into_recs());
        }
        let self_times = spans::self_times(&all_spans);
        let self_us = |name: SpanName| self_times.get(&name).map_or(0.0, |s| s.mean_self_us());
        put("client.issue_self_us", self_us(SpanName::ClientIssue), "us");
        put("client.flush_self_us", self_us(SpanName::ClientFlush), "us");
        put("client.wait_self_us", self_us(SpanName::ClientWait), "us");
        put("client.scan_p99_us", scan_ns.quantile(0.99) / 1e3, "us");
        put("client.update_p99_us", update_ns.quantile(0.99) / 1e3, "us");
        put("client.scan_samples", scan_ns.count() as f64, "count");
        put("client.update_samples", update_ns.count() as f64, "count");

        // Odd segments ran traced, even ones bare.
        let mut traced: Vec<f64> = seg_tput.iter().skip(1).step_by(2).copied().collect();
        let mut bare: Vec<f64> = seg_tput.iter().step_by(2).copied().collect();
        put(
            "bench.trace_overhead_share",
            1.0 - ratio(median(&mut traced), median(&mut bare)),
            "share",
        );
        let mut segs = seg_tput.clone();
        let (q1, q3) = quartiles(&mut segs);
        put("bench.peak_rss_mb", peak_rss_mb, "MB");
        put(
            "bench.segment_iqr_share",
            ratio(q3 - q1, median(&mut segs)),
            "share",
        );

        let path = opts.out_dir.join("trace.json");
        spans::write_trace(&path, spec.name, opts.seed, dropped, &all_spans)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        trace_path = Some(path);

        // The workload's stack is gone before the ladder builds its own.
        drop(stack);
        for (name, value, unit) in ladder::climb(opts.seed, opts.ladder_ops, &opts.out_dir)? {
            put(&name, value, unit);
        }
        per_layer = layer
            .into_iter()
            .map(|(name, (value, unit))| Metric { name, value, unit })
            .collect();
    }

    Ok(Outcome {
        end_to_end,
        per_layer,
        attempted,
        failed,
        errors,
        stream_hash: inputs.hash,
        trace_path,
        peak_rss_mb,
    })
}

/// Updates completed in the window, for per-update ratios.
fn update_ns_count(results: &[ClientResult], spec: &Spec) -> f64 {
    let timed: u64 = results.iter().map(|r| r.update_ns.count()).sum();
    match spec.boundary {
        // `object-rw` times one update in `OBJECT_SAMPLE_EVERY`.
        Boundary::Object => (timed * OBJECT_SAMPLE_EVERY) as f64,
        _ => timed as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
        assert_eq!(median(&mut v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let mut v = vec![3.0, 1.0, 2.0];
        assert_eq!(quartiles(&mut v), (1.0, 3.0));
        assert_eq!(median(&mut v), 2.0);
    }

    #[test]
    fn checker_flags_regressions_only_against_settled_results() {
        let queries = vec![vec![0usize, 1]];
        let owner = vec![0u8, 0];
        let v = |seq| encode_value(0, seq);
        let mut check = Checker::new(&[v(1), v(1)]);
        // Scan 0 saw seq 5 on component 0.
        check.scan(0, 0, 0, vec![v(5), v(1)], &queries, &owner);
        // Scan 1 was issued before scan 0 completed (done_at_issue = 0): it
        // may still see the older value.
        check.scan(1, 0, 0, vec![v(3), v(1)], &queries, &owner);
        assert_eq!(check.failed, 0);
        // Scan 2 was issued after both completed: going back is an error.
        check.scan(2, 2, 0, vec![v(4), v(1)], &queries, &owner);
        assert_eq!(check.failed, 1);
        // An acknowledged write is a floor too.
        check.write(3, 1, v(9));
        check.scan(4, 4, 0, vec![v(5), v(8)], &queries, &owner);
        assert_eq!(check.failed, 2);
        // Wrong length and wrong writer are failures.
        check.scan(5, 5, 0, vec![v(5)], &queries, &owner);
        check.scan(6, 6, 0, vec![encode_value(1, 50), v(9)], &queries, &owner);
        assert_eq!(check.failed, 4);
    }

    #[test]
    fn phases_cut_the_window_into_alternating_segments() {
        let phases = Phases {
            start: Instant::now(),
            warm_ns: 100,
            end_ns: 500,
            seg_ns: 100,
            segments: 4,
            trace: true,
        };
        assert_eq!(phases.segment(99), None);
        assert_eq!(phases.segment(100), Some(0));
        assert_eq!(phases.segment(499), Some(3));
        assert_eq!(phases.segment(500), None);
        assert!(!phases.tracing_at(150));
        assert!(phases.tracing_at(250));
        assert!(!phases.tracing_at(50));
    }

    #[test]
    fn specs_stay_within_two_generator_threads() {
        for spec in &SPECS {
            assert!(spec.mixes.len() <= 2, "{}", spec.name);
            assert!(spec.flush_every <= spec.depth / 2 || spec.flush_every == 0);
            assert_eq!(
                spec.span_every % OBJECT_SAMPLE_EVERY.min(spec.span_every),
                0
            );
        }
    }
}
