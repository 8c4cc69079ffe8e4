//! The process-wide metric registry: namespaced families, partition
//! invariants, text + JSON exposition.
//!
//! Metrics are created (or re-registered) under dot-separated names —
//! `serve.scans_ok`, `shmem.mv.live_versions` — and read back as one sorted
//! catalog. Components that own their metric structs (a [`SnapshotService`],
//! a sharded store) register the *same* `Arc` handles they record into, so
//! the registry is a naming layer, never a second copy of the data.
//!
//! **Partition invariants** make the stats discipline of the service and the
//! sharded store checkable at the registry level: an invariant declares that
//! the counters on its left side must sum to the counters on its right side
//! (at quiescence), e.g. `scans_ok == served_backing + served_empty`.
//! [`Registry::check_invariants`] evaluates every declared invariant and
//! reports the violations.
//!
//! [`SnapshotService`]: ../../psnap_serve/service/struct.SnapshotService.html

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use psnap_json::Json;

use crate::metric::{Counter, Gauge, Histogram, HistogramSnapshot};

/// A named metric handle held by the registry.
#[derive(Clone)]
pub enum Metric {
    /// A monotone counter.
    Counter(Arc<Counter>),
    /// A signed level gauge.
    Gauge(Arc<Gauge>),
    /// A log2 histogram.
    Histogram(Arc<Histogram>),
}

/// A point-in-time read of one registered metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricSnapshot {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram summary.
    Histogram(HistogramSnapshot),
}

/// `sum(left) == sum(right)` over counter names; missing names count 0.
struct Invariant {
    name: String,
    left: Vec<String>,
    right: Vec<String>,
}

#[derive(Default)]
struct Inner {
    metrics: BTreeMap<String, Metric>,
    invariants: Vec<Invariant>,
}

/// A namespace of metrics plus the invariants declared over them.
///
/// Most code uses the process-wide [`Registry::global`]; tests that need
/// isolation construct their own.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The counter registered under `name`, created if absent.
    ///
    /// # Panics
    ///
    /// Panics if `name` holds a metric of a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.lock();
        match inner
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name} is not a counter"),
        }
    }

    /// The gauge registered under `name`, created if absent.
    ///
    /// # Panics
    ///
    /// Panics if `name` holds a metric of a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.lock();
        match inner
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name} is not a gauge"),
        }
    }

    /// The histogram registered under `name`, created if absent.
    ///
    /// # Panics
    ///
    /// Panics if `name` holds a metric of a different kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.lock();
        match inner
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name} is not a histogram"),
        }
    }

    /// Registers an existing metric handle under `name`, replacing whatever
    /// was there (last registration wins — re-starting a service re-points
    /// the family at the live instance's handles).
    pub fn register(&self, name: &str, metric: Metric) {
        self.lock().metrics.insert(name.to_string(), metric);
    }

    /// Declares (or replaces, by `name`) the partition invariant
    /// `sum(left) == sum(right)` over registered counter totals. Gauge or
    /// histogram names are rejected at check time; unregistered names read
    /// as 0, so an invariant may be declared before its counters.
    pub fn add_invariant(&self, name: &str, left: &[&str], right: &[&str]) {
        let mut inner = self.lock();
        inner.invariants.retain(|i| i.name != name);
        inner.invariants.push(Invariant {
            name: name.to_string(),
            left: left.iter().map(|s| s.to_string()).collect(),
            right: right.iter().map(|s| s.to_string()).collect(),
        });
    }

    fn side_sum(inner: &Inner, names: &[String]) -> Result<u64, String> {
        let mut sum = 0u64;
        for name in names {
            match inner.metrics.get(name) {
                None => {}
                Some(Metric::Counter(c)) => sum += c.get(),
                Some(_) => return Err(format!("{name} is not a counter")),
            }
        }
        Ok(sum)
    }

    /// Evaluates every declared invariant; returns one human-readable line
    /// per violation (empty means all hold). Partition invariants only
    /// *must* hold at quiescence — between a counter increment and its
    /// partner's the sums legitimately differ.
    pub fn check_invariants(&self) -> Vec<String> {
        let inner = self.lock();
        let mut violations = Vec::new();
        for inv in &inner.invariants {
            let left = Self::side_sum(&inner, &inv.left);
            let right = Self::side_sum(&inner, &inv.right);
            match (left, right) {
                (Ok(l), Ok(r)) if l == r => {}
                (Ok(l), Ok(r)) => violations.push(format!(
                    "invariant {} violated: {} ({l}) != {} ({r})",
                    inv.name,
                    inv.left.join("+"),
                    inv.right.join("+"),
                )),
                (Err(e), _) | (_, Err(e)) => {
                    violations.push(format!("invariant {} malformed: {e}", inv.name))
                }
            }
        }
        violations
    }

    /// Panics with every violation if any declared invariant fails. Call at
    /// quiescent points (after a drain, a shutdown, a test's join).
    pub fn assert_invariants(&self) {
        let violations = self.check_invariants();
        assert!(
            violations.is_empty(),
            "registry invariants violated:\n{}",
            violations.join("\n")
        );
    }

    /// Point-in-time reads of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricSnapshot)> {
        let inner = self.lock();
        inner
            .metrics
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                    Metric::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                    Metric::Histogram(h) => MetricSnapshot::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect()
    }

    /// Text exposition: one line per metric, sorted by name — counters and
    /// gauges as `name value`, histograms as `name count=.. sum=.. max=..
    /// p50=.. p99=..`.
    pub fn dump_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot() {
            match value {
                MetricSnapshot::Counter(v) => out.push_str(&format!("{name} {v}\n")),
                MetricSnapshot::Gauge(v) => out.push_str(&format!("{name} {v}\n")),
                MetricSnapshot::Histogram(h) => out.push_str(&format!(
                    "{name} count={} sum={} max={} p50={} p99={}\n",
                    h.count, h.sum, h.max, h.p50, h.p99
                )),
            }
        }
        out
    }

    /// JSON exposition: an object keyed by metric name; histograms expand
    /// into `{count, sum, max, p50, p99}` objects. Invariant checks ride
    /// along under `"invariant_violations"`.
    pub fn to_json(&self) -> Json {
        let mut metrics = Vec::new();
        for (name, value) in self.snapshot() {
            let v = match value {
                MetricSnapshot::Counter(v) => Json::Num(v as f64),
                MetricSnapshot::Gauge(v) => Json::Num(v as f64),
                MetricSnapshot::Histogram(h) => Json::obj([
                    ("count", Json::Num(h.count as f64)),
                    ("sum", Json::Num(h.sum as f64)),
                    ("max", Json::Num(h.max as f64)),
                    ("p50", Json::Num(h.p50 as f64)),
                    ("p99", Json::Num(h.p99 as f64)),
                ]),
            };
            metrics.push((name, v));
        }
        Json::obj([
            (
                "metrics".to_string(),
                Json::Obj(metrics.into_iter().collect()),
            ),
            (
                "invariant_violations".to_string(),
                Json::arr(self.check_invariants().into_iter().map(Json::Str)),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_handle() {
        let r = Registry::new();
        let a = r.counter("x.hits");
        let b = r.counter("x.hits");
        a.inc();
        b.inc();
        assert_eq!(r.counter("x.hits").get(), 2);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn invariants_partition() {
        let r = Registry::new();
        r.counter("in").add(5);
        r.counter("out_a").add(3);
        r.counter("out_b").add(2);
        r.add_invariant("flow", &["in"], &["out_a", "out_b"]);
        assert!(r.check_invariants().is_empty());
        r.counter("out_b").inc();
        let violations = r.check_invariants();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("flow"));
    }

    #[test]
    fn exposition_lists_every_metric() {
        let r = Registry::new();
        r.counter("a.count").add(7);
        r.gauge("a.depth").add(-2);
        r.histogram("a.latency").record(100);
        let text = r.dump_text();
        assert!(text.contains("a.count 7"));
        assert!(text.contains("a.depth -2"));
        assert!(text.contains("a.latency count=1 sum=100 max=100"));
        let json = r.to_json().to_string_pretty();
        assert!(json.contains("\"a.count\""));
        assert!(json.contains("\"invariant_violations\""));
    }

    #[test]
    fn register_existing_handle_is_live() {
        let r = Registry::new();
        let c = Arc::new(Counter::new());
        r.register("ext.ops", Metric::Counter(Arc::clone(&c)));
        c.add(9);
        assert_eq!(r.counter("ext.ops").get(), 9);
    }
}
