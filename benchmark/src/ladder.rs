//! The ladder: one op mix (1-in-8 updates, Zipf-popular r = 16 scans,
//! m = 256) replayed single-threaded at depth 1 on every boundary from the
//! paper's Figure 3 object to a TCP socket, plus the pure-function rungs, so
//! each rung's added time and added base-object steps stand side by side.
//! At one thread `StepScope` counts exactly, and the same seed replays the
//! same ops, so the step columns repeat from run to run.

use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use psnap_activeset::{ActiveSet, CasActiveSet};
use psnap_core::{CasPartialSnapshot, MvSnapshot, PartialSnapshot};
use psnap_json::Json;
use psnap_serve::Freshness;
use psnap_shard::ShardRouter;
use psnap_shmem::{MvRegister, MvStamp, ProcessId, StepScope, TimestampCamera, VersionedCell};
use psnap_wire::frame::{encode_frame_into, read_frame_into};
use psnap_wire::{Reply, ReplyBody, Request, RequestBody, MAX_FRAME_LEN};

use crate::gen::{self, encode_value, Inputs, Mix, Op, M, R};
use crate::hist::LogHist;
use crate::run::{self, RunOpts};
use crate::stack::{build_object, Boundary, Client, Done, Stack, SCAN_PID, UPDATE_PID};
use crate::sys;

type Rows = Vec<(String, f64, &'static str)>;

/// What replaying the mix on one boundary measured.
#[derive(Default)]
struct Rung {
    scan_ns: LogHist,
    update_ns: LogHist,
    scans: u64,
    updates: u64,
    scan_steps: u64,
    update_steps: u64,
    scan_steps_max: u64,
}

impl Rung {
    fn scan_p50_ns(&self) -> f64 {
        self.scan_ns.quantile(0.5)
    }

    fn rows(&self, prefix: &str, rows: &mut Rows) {
        let per = |sum: u64, n: u64| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        rows.push((format!("{prefix}.ns_per_scan"), self.scan_p50_ns(), "ns"));
        rows.push((
            format!("{prefix}.ns_per_update"),
            self.update_ns.quantile(0.5),
            "ns",
        ));
        rows.push((
            format!("{prefix}.steps_per_scan"),
            per(self.scan_steps, self.scans),
            "steps",
        ));
        rows.push((
            format!("{prefix}.steps_per_update"),
            per(self.update_steps, self.updates),
            "steps",
        ));
        rows.push((
            format!("{prefix}.scan_steps_max"),
            self.scan_steps_max as f64,
            "steps",
        ));
    }
}

/// A tenth of `ops` as warm-up (`false`), then all of them measured (`true`).
fn warm_then_timed(ops: &[Op]) -> impl Iterator<Item = (bool, Op)> + '_ {
    let warm = ops[..ops.len() / 10].iter().map(|&op| (false, op));
    warm.chain(ops.iter().map(|&op| (true, op)))
}

/// Replays `ops` as direct calls on an object, timed one by one with their
/// steps counted around the timer.
fn replay_direct<S: PartialSnapshot<u64>>(object: &S, inputs: &Inputs, ops: &[Op]) -> Rung {
    let mut rung = Rung::default();
    let mut seq = M as u64;
    for (timed, op) in warm_then_timed(ops) {
        match op {
            Op::Update { component } => {
                seq += 1;
                let value = encode_value(0, seq);
                let scope = StepScope::start();
                let t = Instant::now();
                object.update(UPDATE_PID, component as usize, value);
                let ns = t.elapsed().as_nanos() as u64;
                let steps = scope.finish().total();
                if timed {
                    rung.update_ns.record(ns);
                    rung.updates += 1;
                    rung.update_steps += steps;
                }
            }
            Op::Scan { query } => {
                let components = &inputs.queries[query as usize];
                let scope = StepScope::start();
                let t = Instant::now();
                let values = object.scan(SCAN_PID, components);
                let ns = t.elapsed().as_nanos() as u64;
                let steps = scope.finish().total();
                black_box(values);
                if timed {
                    rung.scan_ns.record(ns);
                    rung.scans += 1;
                    rung.scan_steps += steps;
                    rung.scan_steps_max = rung.scan_steps_max.max(steps);
                }
            }
        }
    }
    rung
}

/// Replays `ops` through one depth-1 client: issue, flush, wait.
fn replay_client(client: &Client, inputs: &Inputs, ops: &[Op]) -> Result<Rung, String> {
    let mut rung = Rung::default();
    let mut seq = M as u64;
    for (timed, op) in warm_then_timed(ops) {
        let t = Instant::now();
        let pending = match op {
            Op::Update { component } => {
                seq += 1;
                client.submit(component as usize, encode_value(0, seq))
            }
            Op::Scan { query } => client.scan(&inputs.queries[query as usize]),
        }
        .map_err(|e| format!("ladder issue: {e:?}"))?;
        client.flush()?;
        let done = pending.wait();
        let ns = t.elapsed().as_nanos() as u64;
        match (op, done) {
            (Op::Scan { .. }, Done::Values(values)) if values.len() == R => {
                if timed {
                    rung.scan_ns.record(ns);
                    rung.scans += 1;
                }
            }
            (Op::Update { .. }, Done::Applied) => {
                if timed {
                    rung.update_ns.record(ns);
                    rung.updates += 1;
                }
            }
            (_, other) => return Err(format!("ladder op failed: {other:?}")),
        }
    }
    Ok(rung)
}

/// Mean nanoseconds of `f` over `n` calls.
fn mean_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

fn shmem_rungs(n: usize, rows: &mut Rows) {
    let cell = VersionedCell::new(0u64);
    rows.push((
        "shmem.cell_load_ns".into(),
        mean_ns(n, |_| {
            black_box(cell.load());
        }),
        "ns",
    ));
    let mut current = cell.load();
    rows.push((
        "shmem.cell_cas_ns".into(),
        mean_ns(n, |i| {
            current = match cell.compare_and_swap(&current, i as u64) {
                Ok(installed) => installed,
                Err(winner) => winner,
            };
        }),
        "ns",
    ));

    // One writer's cycle on a multiversioned register: install a pending
    // version, publish its timestamp, prune what no scan can select.
    let camera = TimestampCamera::new();
    let register = MvRegister::new(0u64);
    rows.push((
        "shmem.mv_install_ns".into(),
        mean_ns(n, |i| {
            let stamp = MvStamp::pending_single();
            register.install(Arc::new(i as u64), stamp.clone());
            stamp.finalize(&camera);
            register.prune(&[camera.timestamp()]);
        }),
        "ns",
    ));
    let s = camera.tick();
    rows.push((
        "shmem.mv_read_at_ns".into(),
        mean_ns(n, |_| {
            black_box(register.read_at(s, &camera));
        }),
        "ns",
    ));
}

fn activeset_rungs(n: usize, rows: &mut Rows) {
    let set = CasActiveSet::new();
    rows.push((
        "activeset.join_leave_ns".into(),
        mean_ns(n, |_| {
            let ticket = set.join(ProcessId(0));
            set.leave(ProcessId(0), ticket);
        }),
        "ns",
    ));
    let ticket = set.join(ProcessId(1));
    rows.push((
        "activeset.get_set_ns".into(),
        mean_ns(n, |_| {
            black_box(set.get_set());
        }),
        "ns",
    ));
    set.leave(ProcessId(1), ticket);
}

/// Request and reply of one op, as the wire carries them.
fn wire_messages(inputs: &Inputs, op: Op, id: u64) -> (Request, Reply) {
    match op {
        Op::Update { component } => (
            Request {
                id,
                body: RequestBody::Submit {
                    writes: vec![(component as usize, encode_value(0, id))],
                },
            },
            Reply {
                id,
                result: Ok(ReplyBody::Submitted),
            },
        ),
        Op::Scan { query } => {
            let components = inputs.queries[query as usize].clone();
            let values = components
                .iter()
                .map(|&c| encode_value(0, c as u64 + id))
                .collect();
            (
                Request {
                    id,
                    body: RequestBody::Scan {
                        components,
                        freshness: Freshness::Fresh,
                    },
                },
                Reply {
                    id,
                    result: Ok(ReplyBody::Values(values)),
                },
            )
        }
    }
}

fn codec_rungs(inputs: &Inputs, ops: &[Op], rows: &mut Rows) -> Result<(), String> {
    let messages: Vec<(Request, Reply)> = ops
        .iter()
        .enumerate()
        .map(|(i, &op)| wire_messages(inputs, op, i as u64 + 1))
        .collect();
    let n = messages.len();

    let mut ok = true;
    let codec = mean_ns(n, |i| {
        let (request, reply) = &messages[i];
        ok &= Request::parse_wire(&request.to_wire_string()).as_ref() == Some(request);
        ok &= Reply::parse_wire(&reply.to_wire_string()).as_ref() == Some(reply);
    });
    let json_codec = mean_ns(n, |i| {
        let (request, reply) = &messages[i];
        let decode = |text: String| Json::parse(&text).ok();
        ok &= decode(request.to_json().to_string_compact())
            .and_then(|j| Request::from_json(&j))
            .as_ref()
            == Some(request);
        ok &= decode(reply.to_json().to_string_compact())
            .and_then(|j| Reply::from_json(&j))
            .as_ref()
            == Some(reply);
    });
    if !ok {
        return Err("a wire message did not survive its own codec".into());
    }
    rows.push(("wire.codec_ns_per_op".into(), codec, "ns"));
    rows.push(("wire.json_codec_ns_per_op".into(), json_codec, "ns"));

    // Framing alone: the already-encoded payloads through the length-prefix
    // writer and the validating reader.
    let payloads: Vec<(String, String)> = messages
        .iter()
        .map(|(request, reply)| (request.to_wire_string(), reply.to_wire_string()))
        .collect();
    let mut framed = Vec::new();
    let mut payload = Vec::new();
    let mut bytes = 0usize;
    let frame = mean_ns(n, |i| {
        for text in [&payloads[i].0, &payloads[i].1] {
            framed.clear();
            encode_frame_into(text.as_bytes(), &mut framed);
            bytes += framed.len();
            ok &= read_frame_into(&mut Cursor::new(&framed), MAX_FRAME_LEN, &mut payload).is_ok();
            black_box(&payload);
        }
    });
    if !ok {
        return Err("a frame did not read back".into());
    }
    rows.push(("wire.frame_ns_per_op".into(), frame, "ns"));
    rows.push((
        "wire.frame_bytes_per_op".into(),
        bytes as f64 / n as f64,
        "B",
    ));
    Ok(())
}

/// A short closed-loop run of one of the pipelined workloads, for a
/// throughput under the switches currently set.
fn mini_throughput(name: &str, seed: u64, seconds: f64, out_dir: &Path) -> Result<f64, String> {
    let outcome = run::run(&RunOpts {
        spec: run::spec(name).expect("a known workload"),
        seed,
        seconds,
        warmup: seconds / 4.0,
        trace: false,
        setups: 1,
        out_dir: out_dir.to_path_buf(),
        ladder_ops: 0,
    })?;
    if !outcome.correct() {
        return Err(format!("ladder run of {name} failed: {:?}", outcome.errors));
    }
    Ok(outcome.end_to_end[0].value)
}

/// Climbs every rung. `n` is the number of ops replayed on the direct rungs;
/// the request/reply rungs replay an eighth of that.
pub fn climb(seed: u64, n: usize, out_dir: &Path) -> Result<Rows, String> {
    let mut rows = Rows::new();
    let inputs = gen::generate(seed, &[Mix::OneInEight]);
    let ops = &inputs.streams[0][..n.clamp(80, gen::STREAM_LEN)];
    let rtt_ops = &ops[..ops.len() / 8];
    let mini_seconds = (n as f64 / 50_000.0).clamp(0.05, 0.4);

    rows.push((
        "bench.timer_ns".into(),
        mean_ns(ops.len() * 4, |_| {
            black_box(Instant::now());
        }),
        "ns",
    ));
    shmem_rungs(ops.len() * 4, &mut rows);
    activeset_rungs(ops.len() * 4, &mut rows);
    codec_rungs(&inputs, ops, &mut rows)?;

    // The paper's Figure 3 object: the baseline rung. (Its active set is not
    // on the multiversioned production path; the activeset.* rows price it
    // for this rung only.)
    let cas = CasPartialSnapshot::new(M, 2, 0u64);
    replay_direct(&cas, &inputs, ops).rows("core.cas", &mut rows);

    let mv = MvSnapshot::new(M, 2, 0u64);
    let mv_rung = replay_direct(&mv, &inputs, ops);
    mv_rung.rows("core.mv", &mut rows);
    rows.push((
        "core.mv.scan_budget_used_share".into(),
        mv_rung.scan_steps_max as f64 / MvSnapshot::<u64>::scan_step_budget(R, 3, 1) as f64,
        "share",
    ));

    // Batches of four writes, the drainer's unit of work.
    let batches: Vec<[(usize, u64); 4]> = (0..ops.len() / 4)
        .map(|b| {
            std::array::from_fn(|i| ((b * 4 + i) * 37 % M, encode_value(0, (b * 4 + i) as u64)))
        })
        .collect();
    rows.push((
        "core.batch.ns_per_write".into(),
        mean_ns(batches.len(), |b| mv.update_many(UPDATE_PID, &batches[b])) / 4.0,
        "ns",
    ));

    let (object, _, _) = build_object(&inputs);
    let shard_rung = replay_direct(&object, &inputs, ops);
    shard_rung.rows("shard", &mut rows);
    rows.push((
        "shard.added_ns_per_scan".into(),
        shard_rung.scan_p50_ns() - mv_rung.scan_p50_ns(),
        "ns",
    ));
    let router = ShardRouter::from_map(&object.partition_map());
    let mut cross = 0usize;
    let plan_ns = mean_ns(ops.len(), |i| {
        let plan = router.plan(&inputs.queries[i % inputs.queries.len()]);
        cross += plan.is_cross_shard() as usize;
        black_box(plan);
    });
    rows.push(("shard.plan_ns_per_scan".into(), plan_ns, "ns"));
    rows.push((
        "shard.cross_shard_scan_share".into(),
        cross as f64 / ops.len() as f64,
        "share",
    ));
    let scope = StepScope::start();
    for batch in &batches {
        object.update_many(UPDATE_PID, batch);
    }
    rows.push((
        "shard.steps_per_batch".into(),
        scope.finish().total() as f64 / batches.len() as f64,
        "steps",
    ));
    drop(object);

    // The request/reply rungs, each on a fresh stack with one depth-1 client.
    let rtt = |boundary: Boundary| -> Result<Rung, String> {
        let (object, _, _) = build_object(&inputs);
        let stack = Stack::build(object, boundary, 1, false, out_dir)?;
        replay_client(&stack.clients[0], &inputs, rtt_ops)
    };
    let serve_us = rtt(Boundary::InProc)?.scan_p50_ns() / 1e3;
    rows.push(("serve.rtt_p50_us".into(), serve_us, "us"));
    rows.push((
        "serve.added_rtt_us".into(),
        serve_us - shard_rung.scan_p50_ns() / 1e3,
        "us",
    ));

    // Threads a connection costs, both ends in this process: the server's
    // per-connection threads plus the client's reply reader.
    let unix_us = {
        let (object, _, _) = build_object(&inputs);
        let bare = Stack::build(object, Boundary::Unix, 0, false, out_dir)?;
        let threads_before = sys::thread_count();
        drop(bare);
        let (object, _, _) = build_object(&inputs);
        let stack = Stack::build(object, Boundary::Unix, 1, false, out_dir)?;
        // Let the server finish spawning the connection's threads.
        let rung = replay_client(&stack.clients[0], &inputs, rtt_ops)?;
        rows.push((
            "wire.threads_per_connection".into(),
            sys::thread_count() as f64 - threads_before as f64,
            "count",
        ));
        rung.scan_p50_ns() / 1e3
    };
    rows.push(("wire.unix_rtt_p50_us".into(), unix_us, "us"));
    rows.push(("wire.added_rtt_us".into(), unix_us - serve_us, "us"));
    rows.push((
        "wire.tcp_rtt_p50_us".into(),
        rtt(Boundary::Tcp)?.scan_p50_ns() / 1e3,
        "us",
    ));

    // Pipelined throughput in process and over the socket, and the price of
    // the obs switches on the in-process one.
    let inproc = mini_throughput("serve-mix", seed, mini_seconds, out_dir)?;
    let wire = mini_throughput("wire-pipelined", seed, mini_seconds, out_dir)?;
    rows.push((
        "wire.vs_inproc_throughput_ratio".into(),
        if inproc > 0.0 { wire / inproc } else { 0.0 },
        "ratio",
    ));
    psnap_obs::set_enabled(false);
    let metrics_off = mini_throughput("serve-mix", seed, mini_seconds, out_dir);
    psnap_obs::set_enabled(true);
    psnap_obs::set_trace_enabled(true);
    psnap_obs::set_span_enabled(true);
    let spans_on = mini_throughput("serve-mix", seed, mini_seconds, out_dir);
    psnap_obs::set_span_enabled(false);
    psnap_obs::set_trace_enabled(false);
    let (metrics_off, spans_on) = (metrics_off?, spans_on?);
    let share = |with: f64, without: f64| {
        if without > 0.0 {
            1.0 - with / without
        } else {
            0.0
        }
    };
    rows.push((
        "obs.metrics_overhead_share".into(),
        share(inproc, metrics_off),
        "share",
    ));
    rows.push((
        "obs.span_overhead_share".into(),
        share(spans_on, inproc),
        "share",
    ));
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_counts_repeat_exactly_for_a_seed() {
        let inputs = gen::generate(5, &[Mix::OneInEight]);
        let ops = &inputs.streams[0][..800];
        let steps = || {
            let (object, _, _) = build_object(&inputs);
            let rung = replay_direct(&object, &inputs, ops);
            (
                rung.scans,
                rung.updates,
                rung.scan_steps,
                rung.update_steps,
                rung.scan_steps_max,
            )
        };
        let first = steps();
        assert_eq!(first, steps());
        assert_eq!((first.0, first.1), (700, 100));
        assert!(first.2 > 0 && first.3 > 0);
    }

    #[test]
    fn wire_messages_survive_both_codecs() {
        let inputs = gen::generate(5, &[Mix::OneInEight]);
        let mut rows = Rows::new();
        codec_rungs(&inputs, &inputs.streams[0][..64], &mut rows).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|(_, v, _)| *v > 0.0));
    }
}
