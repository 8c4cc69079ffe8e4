//! Seeded input generation: the query pool and one op stream per client.
//!
//! Everything the program under test sees is made here from `--seed`; the
//! generator is the benchmark's own (a SplitMix64, a Zipf table) so that a
//! later change to a crate of the repo cannot change the inputs it is
//! measured with.

/// Components of the object, `m`.
pub const M: usize = 256;
/// Components per scan, `r`.
pub const R: usize = 16;
/// Query shapes in the pool (E11/E17's pool size).
pub const POOL: usize = 12;
/// Ops per client stream; clients cycle through their stream.
pub const STREAM_LEN: usize = 1 << 16;

/// SplitMix64: small, fast, and good enough to draw components and shapes.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 for the
    /// small `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Cumulative Zipf(`s`) distribution over `n` ranks, rank 0 most popular.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// One generated operation. Values are not part of the stream: a writer
/// numbers its updates as it issues them (see [`encode_value`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Update { component: u16 },
    Scan { query: u8 },
}

/// The shape of one client's stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Every 8th op a single-component update, the rest scans (E11/E17).
    OneInEight,
    /// Update, scan, update, scan, …
    Alternating,
    UpdatesOnly,
    ScansOnly,
}

impl Mix {
    fn is_update(self, k: usize) -> bool {
        match self {
            Mix::OneInEight => k.is_multiple_of(8),
            Mix::Alternating => k.is_multiple_of(2),
            Mix::UpdatesOnly => true,
            Mix::ScansOnly => false,
        }
    }

    fn writes(self) -> bool {
        self != Mix::ScansOnly
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    /// `POOL` shapes of `R` distinct uniform components each.
    pub queries: Vec<Vec<usize>>,
    /// One stream of `STREAM_LEN` ops per client.
    pub streams: Vec<Vec<Op>>,
    /// `owner[c]` is the one client that writes component `c`
    /// (single-writer-per-component, so "the last acknowledged write" of a
    /// component is well defined).
    pub owner: Vec<u8>,
    /// FNV-1a hash of the pool and the streams: same seed, same hash.
    pub hash: u64,
}

/// A value carries its writer and that writer's sequence number, so each
/// component's values only grow and a scan can be checked on the spot.
pub fn encode_value(writer: usize, seq: u64) -> u64 {
    (seq << 8) | writer as u64
}

pub fn value_writer(value: u64) -> usize {
    (value & 0xff) as usize
}

pub fn generate(seed: u64, mixes: &[Mix]) -> Inputs {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_B3AC);
    let queries: Vec<Vec<usize>> = (0..POOL).map(|_| distinct_set(&mut rng, M, R)).collect();

    // Writers split the components round-robin, which also spreads each
    // writer over all four contiguous shards.
    let writers: Vec<usize> = (0..mixes.len()).filter(|&c| mixes[c].writes()).collect();
    assert!(!writers.is_empty(), "a workload needs at least one writer");
    let owner: Vec<u8> = (0..M).map(|c| writers[c % writers.len()] as u8).collect();

    let popularity = Zipf::new(POOL, 1.0);
    let streams: Vec<Vec<Op>> = mixes
        .iter()
        .enumerate()
        .map(|(client, &mix)| {
            let mut rng = SplitMix64::new(seed ^ ((client as u64 + 1) << 32));
            let owned: Vec<u16> = (0..M)
                .filter(|&c| owner[c] as usize == client)
                .map(|c| c as u16)
                .collect();
            (0..STREAM_LEN)
                .map(|k| {
                    if mix.is_update(k) {
                        Op::Update {
                            component: owned[rng.below(owned.len())],
                        }
                    } else {
                        Op::Scan {
                            query: popularity.sample(&mut rng) as u8,
                        }
                    }
                })
                .collect()
        })
        .collect();

    let mut hash = Fnv::new();
    for q in &queries {
        for &c in q {
            hash.write(&(c as u16).to_le_bytes());
        }
    }
    for stream in &streams {
        for op in stream {
            match *op {
                Op::Update { component } => {
                    hash.write(&[1]);
                    hash.write(&component.to_le_bytes());
                }
                Op::Scan { query } => hash.write(&[2, query]),
            }
        }
    }
    Inputs {
        queries,
        streams,
        owner,
        hash: hash.0,
    }
}

/// `r` distinct values of `0..m`, in draw order.
fn distinct_set(rng: &mut SplitMix64, m: usize, r: usize) -> Vec<usize> {
    let mut set = Vec::with_capacity(r);
    while set.len() < r {
        let c = rng.below(m);
        if !set.contains(&c) {
            set.push(c);
        }
    }
    set
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_hash() {
        let mixes = [Mix::OneInEight, Mix::OneInEight];
        let a = generate(7, &mixes);
        let b = generate(7, &mixes);
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.streams, b.streams);
        let c = generate(8, &mixes);
        assert_ne!(a.hash, c.hash);
    }

    #[test]
    fn one_in_eight_and_alternating_shapes() {
        let inputs = generate(1, &[Mix::OneInEight, Mix::Alternating]);
        for (k, op) in inputs.streams[0].iter().enumerate() {
            assert_eq!(matches!(op, Op::Update { .. }), k % 8 == 0, "op {k}");
        }
        for (k, op) in inputs.streams[1].iter().enumerate() {
            assert_eq!(matches!(op, Op::Update { .. }), k % 2 == 0, "op {k}");
        }
    }

    #[test]
    fn dedicated_roles_and_single_writer_per_component() {
        let inputs = generate(3, &[Mix::UpdatesOnly, Mix::ScansOnly]);
        assert!(inputs.streams[0]
            .iter()
            .all(|op| matches!(op, Op::Update { .. })));
        assert!(inputs.streams[1]
            .iter()
            .all(|op| matches!(op, Op::Scan { .. })));
        assert!(inputs.owner.iter().all(|&o| o == 0));

        let two = generate(3, &[Mix::OneInEight, Mix::OneInEight]);
        for (client, stream) in two.streams.iter().enumerate() {
            for op in stream {
                if let Op::Update { component } = op {
                    assert_eq!(two.owner[*component as usize] as usize, client);
                }
            }
        }
    }

    #[test]
    fn pool_shapes_are_distinct_in_range_sets() {
        let inputs = generate(11, &[Mix::OneInEight]);
        assert_eq!(inputs.queries.len(), POOL);
        for q in &inputs.queries {
            assert_eq!(q.len(), R);
            let mut sorted = q.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), R);
            assert!(q.iter().all(|&c| c < M));
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(POOL, 1.0);
        let mut rng = SplitMix64::new(5);
        let mut counts = [0usize; POOL];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[3] && counts[3] > counts[11]);
    }

    #[test]
    fn values_round_trip_their_writer() {
        let v = encode_value(1, 12345);
        assert_eq!(value_writer(v), 1);
        assert!(encode_value(1, 12346) > v);
    }
}
