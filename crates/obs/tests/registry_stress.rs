//! Concurrency stress for the metric layer: striped counters and log2
//! histograms must lose no records under hammering from many threads, and
//! a registry partition must balance exactly at quiescence.

use std::sync::Arc;
use std::thread;

use psnap_obs::Registry;

const THREADS: usize = 8;
const OPS: u64 = 20_000;

#[test]
fn concurrent_counter_hammering_is_exact() {
    let registry = Arc::new(Registry::new());
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let registry = Arc::clone(&registry);
        handles.push(thread::spawn(move || {
            let counter = registry.counter("stress.hits");
            let gauge = registry.gauge("stress.level");
            for i in 0..OPS {
                counter.inc();
                counter.add(2);
                // Gauge goes up by (t + 1) and down by t per iteration, so
                // the final level is exactly THREADS * OPS.
                gauge.add(t as i64 + 1);
                gauge.sub(t as i64);
                let _ = i;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        registry.counter("stress.hits").get(),
        THREADS as u64 * OPS * 3
    );
    assert_eq!(
        registry.gauge("stress.level").get(),
        THREADS as i64 * OPS as i64
    );
}

#[test]
fn concurrent_histogram_hammering_is_exact() {
    let registry = Arc::new(Registry::new());
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let registry = Arc::clone(&registry);
        handles.push(thread::spawn(move || {
            let hist = registry.histogram("stress.samples");
            for i in 0..OPS {
                // Every thread records 1..=OPS, so count, sum and max are
                // exactly predictable.
                hist.record(i + 1);
                let _ = t;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let snap = registry.histogram("stress.samples").snapshot();
    assert_eq!(snap.count, THREADS as u64 * OPS);
    assert_eq!(snap.sum, THREADS as u64 * (OPS * (OPS + 1) / 2));
    assert_eq!(snap.max, OPS);
    // Quantiles are bucket upper bounds clamped by the exact max: p50 of
    // 1..=20000 lands in the bucket covering 16384..=32767, clamped to max.
    assert!(snap.p50 >= OPS / 2);
    assert!(snap.p99 >= snap.p50);
    assert!(snap.p99 <= snap.max);
}

#[test]
fn partition_invariant_holds_under_concurrent_paired_increments() {
    let registry = Arc::new(Registry::new());
    registry.add_invariant("stress.partition", &["total"], &["path_a", "path_b"]);
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let registry = Arc::clone(&registry);
        handles.push(thread::spawn(move || {
            let total = registry.counter("total");
            let a = registry.counter("path_a");
            let b = registry.counter("path_b");
            for i in 0..OPS {
                total.inc();
                if (i + t as u64).is_multiple_of(3) {
                    a.inc();
                } else {
                    b.inc();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // At quiescence the partition must balance exactly.
    registry.assert_invariants();
    assert_eq!(
        registry.counter("path_a").get() + registry.counter("path_b").get(),
        THREADS as u64 * OPS
    );
}
