//! Spans recorded by the benchmark's own files around each call into a
//! layer, kept in memory and written to `trace.json` when the run ends.
//! (Spans inside the program are a later issue.)

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanName {
    /// One op from issue to completion; parent of the three below.
    ClientOp,
    ClientIssue,
    ClientFlush,
    ClientWait,
    ObjectUpdate,
    ObjectScan,
}

impl SpanName {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::ClientOp => "client.op",
            SpanName::ClientIssue => "client.issue",
            SpanName::ClientFlush => "client.flush",
            SpanName::ClientWait => "client.wait",
            SpanName::ObjectUpdate => "object.update",
            SpanName::ObjectScan => "object.scan",
        }
    }
}

/// One span. `parent` 0 means none; spans of one op share `op`.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: SpanName,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Full means later spans are counted, not kept:
/// memory stays bounded whatever the op rate.
pub struct SpanBuf {
    recs: Vec<SpanRec>,
    cap: usize,
    thread: u64,
    next: u64,
    pub dropped: u64,
}

impl SpanBuf {
    pub fn new(thread: usize, cap: usize) -> SpanBuf {
        SpanBuf {
            recs: Vec::with_capacity(cap),
            cap,
            thread: thread as u64 + 1,
            next: 0,
            dropped: 0,
        }
    }

    /// A fresh id, unique across threads (a parent needs its id before its
    /// children close, and it closes last).
    pub fn alloc_id(&mut self) -> u64 {
        self.next += 1;
        (self.thread << 40) | self.next
    }

    pub fn push(&mut self, rec: SpanRec) {
        if self.recs.len() < self.cap {
            self.recs.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// Allocates an id and records a closed span in one step.
    pub fn record(&mut self, name: SpanName, parent: u64, op: u64, start_ns: u64, end_ns: u64) {
        let id = self.alloc_id();
        self.push(SpanRec {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns,
        });
    }

    pub fn into_recs(self) -> Vec<SpanRec> {
        self.recs
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SelfTime {
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Per span name: how many, their total duration, and their total self
/// time — a span's duration minus the part of its interval that its child
/// spans cover (children may overlap each other and may stick out of the
/// parent; only the covered part of the parent's interval is taken off).
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<SpanName, SelfTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<SpanName, SelfTime> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_within(kids, s.start_ns, s.end_ns));
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_within(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(a, b) in intervals.iter() {
        let a = a.max(reach);
        let b = b.min(end);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Writes the spans as one JSON document. Written by hand: a tree of
/// `Json` values for a few hundred thousand spans would cost more than the
/// measurement it describes.
pub fn write_trace(
    path: &Path,
    workload: &str,
    seed: u64,
    dropped: u64,
    spans: &[SpanRec],
) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"dropped\":{dropped},\"spans\":["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}{comma}",
            s.id,
            s.parent,
            s.name.as_str(),
            s.op,
            (s.id >> 40) - 1,
            s.start_ns,
            s.end_ns
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: SpanName, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            op: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_takes_off_nested_children_once() {
        // op [0,100] > issue [10,30] > scan [12,28]; op > wait [60,95].
        let spans = [
            span(1, 0, SpanName::ClientOp, 0, 100),
            span(2, 1, SpanName::ClientIssue, 10, 30),
            span(3, 2, SpanName::ObjectScan, 12, 28),
            span(4, 1, SpanName::ClientWait, 60, 95),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&SpanName::ClientOp].self_ns, 100 - 20 - 35);
        assert_eq!(st[&SpanName::ClientIssue].self_ns, 20 - 16);
        assert_eq!(st[&SpanName::ObjectScan].self_ns, 16);
        assert_eq!(st[&SpanName::ClientWait].self_ns, 35);
        assert_eq!(st[&SpanName::ClientOp].total_ns, 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_their_union_inside_the_parent() {
        // Children [10,50] and [40,70] overlap: union is 60, not 70. A third
        // child [90,130] hangs out of the parent: only [90,100] counts.
        let spans = [
            span(1, 0, SpanName::ClientOp, 0, 100),
            span(2, 1, SpanName::ClientIssue, 10, 50),
            span(3, 1, SpanName::ClientFlush, 40, 70),
            span(4, 1, SpanName::ClientWait, 90, 130),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&SpanName::ClientOp].self_ns, 100 - 60 - 10);
        assert_eq!(st[&SpanName::ClientWait].self_ns, 40);
    }

    #[test]
    fn a_child_inside_another_child_adds_nothing() {
        let mut kids = vec![(10, 50), (20, 30), (50, 60)];
        assert_eq!(covered_within(&mut kids, 0, 100), 50);
    }

    #[test]
    fn buffer_is_bounded_and_ids_are_unique_per_thread() {
        let mut a = SpanBuf::new(0, 2);
        let mut b = SpanBuf::new(1, 2);
        for k in 0..3 {
            a.record(SpanName::ClientIssue, 0, k, k, k + 1);
        }
        assert_eq!(a.dropped, 1);
        let ida = a.alloc_id();
        let idb = b.alloc_id();
        assert_ne!(ida, idb);
        assert_eq!(a.into_recs().len(), 2);
    }

    #[test]
    fn mean_self_time_is_per_span() {
        let st = SelfTime {
            count: 4,
            total_ns: 0,
            self_ns: 8_000,
        };
        assert_eq!(st.mean_self_us(), 2.0);
        assert_eq!(SelfTime::default().mean_self_us(), 0.0);
    }
}
