//! A log-linear latency histogram: 128 buckets per power of two, so a
//! quantile is within 1/128 of the exact sample, and interpolated inside its
//! bucket, so a median does not stick to a bucket edge from run to run.
//! (`psnap_obs::Histogram` buckets by whole powers of two — right for a live
//! gauge, too coarse for a p50 that is compared to 7 %.)

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Samples are clamped below 2^40 ns (18 minutes).
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) << SUB_BITS;

#[derive(Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHist {
    fn default() -> LogHist {
        LogHist::new()
    }
}

impl LogHist {
    pub fn new() -> LogHist {
        LogHist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    fn index(value: u64) -> usize {
        let v = value.min((1 << MAX_EXP) - 1);
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((((shift + 1) as u64) << SUB_BITS) + ((v >> shift) & (SUB - 1))) as usize
    }

    /// Lowest value of bucket `i` and the bucket's width.
    fn bounds(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < SUB {
            return (i, 1);
        }
        let shift = (i >> SUB_BITS) - 1;
        ((SUB + (i & (SUB - 1))) << shift, 1 << shift)
    }

    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index(value)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (the sample of rank `ceil(q·n)`), placed inside its
    /// bucket in proportion to its rank there. 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if before + c >= rank {
                let (low, width) = Self::bounds(i);
                let within = (rank - before) as f64 - 0.5;
                return low as f64 + width as f64 * within / c as f64;
            }
            before += c;
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SplitMix64;

    fn oracle(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn quantiles_match_sorted_vector_oracle() {
        let mut rng = SplitMix64::new(42);
        // Latency-shaped: a body around a few µs and a long tail.
        let mut samples: Vec<u64> = (0..50_000)
            .map(|_| {
                let body = 1_500 + rng.below(4_000) as u64;
                if rng.below(100) == 0 {
                    body * (2 + rng.below(200) as u64)
                } else {
                    body
                }
            })
            .collect();
        let mut hist = LogHist::new();
        for &s in &samples {
            hist.record(s);
        }
        samples.sort_unstable();
        assert_eq!(hist.count(), samples.len() as u64);
        for q in [0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let exact = oracle(&samples, q) as f64;
            let got = hist.quantile(q);
            assert!(
                (got - exact).abs() <= exact / 128.0 + 1.0,
                "q={q}: hist {got} vs exact {exact}"
            );
        }
    }

    #[test]
    fn small_values_are_exact_and_buckets_tile_the_range() {
        let mut hist = LogHist::new();
        for v in 0..SUB {
            hist.record(v);
        }
        assert_eq!(hist.quantile(1.0).floor() as u64, SUB - 1);
        // Every bucket starts where the previous one ends.
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (low, width) = LogHist::bounds(i);
            assert_eq!(low, next, "bucket {i}");
            assert_eq!(LogHist::index(low), i);
            assert_eq!(LogHist::index(low + width - 1), i);
            next = low + width;
        }
        assert_eq!(next, 1 << MAX_EXP);
    }

    #[test]
    fn merge_adds_and_empty_is_zero() {
        let mut a = LogHist::new();
        assert_eq!(a.quantile(0.5), 0.0);
        let mut b = LogHist::new();
        a.record(100);
        b.record(300);
        b.record(300);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.quantile(0.5) - 300.0).abs() <= 3.0);
    }

    #[test]
    fn huge_samples_clamp_instead_of_panicking() {
        let mut hist = LogHist::new();
        hist.record(u64::MAX);
        assert!(hist.quantile(1.0) < (1u64 << MAX_EXP) as f64);
    }
}
