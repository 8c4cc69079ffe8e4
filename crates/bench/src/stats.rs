//! Small summary-statistics helper for the experiments' latency samples.

/// Summary statistics of a sample of per-operation measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample. Returns the zero summary for an empty sample.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN measurements"));
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let pct = |q: f64| sorted[((count as f64 - 1.0) * q).round() as usize];
        Summary {
            count,
            mean,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max: sorted[count - 1],
        }
    }

    /// Summarizes integer samples (step counts).
    pub fn of_u64(samples: &[u64]) -> Summary {
        let as_f64: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
        Summary::of(&as_f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_zero() {
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[5.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.p50, 5.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn known_distribution() {
        let samples: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!((s.p50 - 50.0).abs() <= 1.0);
        assert!((s.p95 - 95.0).abs() <= 1.0);
        assert!((s.p99 - 99.0).abs() <= 1.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn of_u64_matches_of() {
        let a = Summary::of_u64(&[1, 2, 3, 4]);
        let b = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let s = Summary::of(&[9.0, 1.0, 5.0]);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.p50, 5.0);
    }
}
