//! The paper's headline claims as assertions over exact base-object step
//! counts and invariants — no wall clock anywhere in this file.
//!
//! The bounds of Theorems 1–3 under contention (Figure 3's O(r²) scan,
//! update cost tracking active scanners, Figure 2's 2-step join / 1-step
//! leave, Figure 1's scan bound, the parked-writer budgets of the
//! multiversioned path) are asserted in `wait_freedom.rs`; this file holds
//! the claims no other test makes: locality across object widths, batching
//! paying for itself in steps, observability costing zero steps, and the
//! introduction's portfolio never seeing a valuation that did not exist.

use std::sync::atomic::{AtomicBool, Ordering};

use partial_snapshot::obs;
use partial_snapshot::shmem::chaos::{self, ChaosConfig};
use partial_snapshot::shmem::StepScope;
use partial_snapshot::snapshot::{PartialSnapshot, ProcessId};
use partial_snapshot::workloads::{Market, MarketConfig};
use partial_snapshot::ImplKind;

/// Steps of one quiescent partial scan of components 0..8, after the same
/// writes, on an object of `m` components.
fn quiescent_scan_steps(kind: ImplKind, m: usize) -> u64 {
    let snap = kind.build(m, 2, 0);
    let scanned: Vec<usize> = (0..8).collect();
    for &c in &scanned {
        snap.update(ProcessId(0), c, c as u64 + 1);
    }
    let scope = StepScope::start();
    let values = snap.scan(ProcessId(1), &scanned);
    let steps = scope.finish().total();
    assert_eq!(values, (1..=8).collect::<Vec<u64>>(), "{kind:?} m={m}");
    steps
}

/// The title claim: a partial scan of r components costs a function of r,
/// never of m. Components 0..8 lie in shard 0 of the four contiguous shards
/// at every width, so the sharded kind touches the same shard throughout.
/// The full-snapshot baseline is the contrast: it pays for every component.
#[test]
fn partial_scan_steps_are_identical_at_every_object_width() {
    const WIDTHS: [usize; 3] = [64, 1024, 16384];
    for kind in [
        ImplKind::Cas,
        ImplKind::Register,
        ImplKind::Mv,
        ImplKind::MV_SHARDED_4,
    ] {
        let steps = WIDTHS.map(|m| quiescent_scan_steps(kind, m));
        assert!(steps[0] > 0);
        assert_eq!(steps, [steps[0]; 3], "{kind:?} scan cost moved with m");
    }
    let full = WIDTHS.map(|m| quiescent_scan_steps(ImplKind::AfekFull, m));
    assert!(
        full[0] < full[1] && full[1] < full[2],
        "the full-snapshot baseline should grow with m: {full:?}"
    );
}

/// Steps to write `k` components, `stride` apart, as `k` single updates and
/// as one `update_many`, with no scanner announced.
fn single_and_batched_steps(kind: ImplKind, k: usize, stride: usize) -> (u64, u64) {
    let snap = kind.build(64, 4, 0);
    let writes = |round: u64| -> Vec<(usize, u64)> {
        (0..k).map(|i| (i * stride, round + i as u64)).collect()
    };
    let scope = StepScope::start();
    for (c, v) in writes(100) {
        snap.update(ProcessId(0), c, v);
    }
    let singles = scope.finish().total();
    let batch = writes(200);
    let scope = StepScope::start();
    snap.update_many(ProcessId(0), &batch);
    let batched = scope.finish().total();
    let all: Vec<usize> = batch.iter().map(|&(c, _)| c).collect();
    let expected: Vec<u64> = batch.iter().map(|&(_, v)| v).collect();
    assert_eq!(snap.scan(ProcessId(1), &all), expected, "{kind:?} k={k}");
    (singles, batched)
}

/// Batching pays for itself in the paper's metric: the per-operation work
/// (the active-set read, the timestamp, the announcement sweep) is spent
/// once instead of k times, so from k = 4 on an `update_many` of adjacent
/// components costs strictly fewer steps than k singles on every kind with
/// a native batch path, and never more at k = 1 — spread over the sharded
/// kind's four shards included.
#[test]
fn update_many_costs_fewer_steps_than_singles_from_four_components() {
    for kind in [
        ImplKind::Cas,
        ImplKind::Register,
        ImplKind::Mv,
        ImplKind::MV_SHARDED_4,
    ] {
        let (singles, batched) = single_and_batched_steps(kind, 1, 1);
        assert!(batched <= singles, "{kind:?} k=1: {batched} > {singles}");
        for (k, stride) in [(4, 1), (8, 1), (16, 1), (8, 8), (16, 4)] {
            let (singles, batched) = single_and_batched_steps(kind, k, stride);
            assert!(
                batched < singles,
                "{kind:?} k={k} stride={stride}: batch {batched} steps, singles {singles}"
            );
        }
    }
}

/// One fixed single-threaded op stream — updates, batches under an `Apply`
/// span, scans — and the steps it cost.
fn op_stream_steps(kind: ImplKind) -> u64 {
    let snap = kind.build(32, 2, 0);
    let scope = StepScope::start();
    for round in 0..8u64 {
        snap.update(ProcessId(0), (round as usize * 5) % 32, round);
        let batch: Vec<(usize, u64)> = (0..4)
            .map(|i| ((round as usize + 7 * i) % 32, round))
            .collect();
        let mut apply = obs::Span::root(obs::SpanKind::Apply);
        snap.update_many(ProcessId(0), &batch);
        apply.set_args(batch.len() as u64, 0);
        drop(apply);
        snap.scan(ProcessId(1), &[1, 8, 15, 22, 29]);
    }
    scope.finish().total()
}

/// Metrics and spans are bookkeeping beside the algorithm, never
/// base-object operations: the same op stream costs exactly the same steps
/// with each layer off and on. (What the layers cost in time is the
/// repo benchmark's `obs.metrics_overhead_share` / `obs.span_overhead_share`.)
#[test]
fn observability_adds_zero_base_object_steps() {
    let was = (obs::enabled(), obs::span_enabled());
    for kind in [ImplKind::Cas, ImplKind::MV_SHARDED_4] {
        let mut steps = Vec::new();
        for (metrics, spans) in [(false, false), (true, false), (false, true), (true, true)] {
            obs::set_enabled(metrics);
            obs::set_span_enabled(spans);
            steps.push(op_stream_steps(kind));
        }
        assert!(steps[0] > 0);
        assert_eq!(steps, [steps[0]; 4], "{kind:?}: observability moved steps");
    }
    obs::set_enabled(was.0);
    obs::set_span_enabled(was.1);
}

/// The introduction's motivation. An updater moves value around the stocks
/// of one portfolio — one stock drops, then the next rises — so the
/// portfolio's true total is only ever its initial value or one in-flight
/// transfer below it. Every valuation by partial scan must be one of those
/// two totals, even with the scanner perturbed after every base-object step
/// so that dozens of transfers land inside one scan (reading the stocks one
/// by one would then add up a total that never existed); and it costs fewer
/// steps than scanning the whole market.
#[test]
fn portfolio_valuations_by_partial_scan_never_leave_the_invariant_band() {
    let config = MarketConfig {
        stocks: 64,
        portfolios: 4,
        holdings_per_portfolio: 6,
        ..Default::default()
    };
    let market = Market::generate(config.clone(), 0xF0110);
    let held = market.portfolios[0].components();
    let snap = ImplKind::Cas.build(config.stocks, 3, config.initial_price);
    let true_total = config.initial_price * held.len() as u64;
    let delta = 100u64;

    let stop = AtomicBool::new(false);
    let mut out_of_band = Vec::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut prices = vec![config.initial_price; held.len()];
            let mut from = 0;
            while !stop.load(Ordering::Relaxed) {
                let to = (from + 1) % held.len();
                prices[from] -= delta;
                snap.update(ProcessId(0), held[from], prices[from]);
                prices[to] += delta;
                snap.update(ProcessId(0), held[to], prices[to]);
                from = to;
            }
        });
        // `light()` only yields and spins; raised to every other step and
        // to spins long enough for several transfers.
        let perturbed = chaos::enable(
            0xE6,
            ChaosConfig {
                perturb_probability: 0.5,
                max_spin: 2048,
                ..ChaosConfig::light()
            },
        );
        for _ in 0..300 {
            let total: u64 = snap.scan(ProcessId(1), &held).iter().sum();
            if total != true_total && total != true_total - delta {
                out_of_band.push(total);
            }
        }
        drop(perturbed);
        stop.store(true, Ordering::Relaxed);
    });
    assert!(
        out_of_band.is_empty(),
        "partial scans valued the portfolio at {out_of_band:?}; it was only ever worth \
         {true_total} or {delta} less"
    );

    let all: Vec<usize> = (0..config.stocks).collect();
    let scope = StepScope::start();
    snap.scan(ProcessId(1), &held);
    let partial = scope.finish().total();
    let scope = StepScope::start();
    snap.scan(ProcessId(2), &all);
    let full = scope.finish().total();
    assert!(partial < full, "partial {partial} steps, full {full}");
}
