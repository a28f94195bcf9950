//! Seeded operation streams for the serve workloads.
//!
//! Everything the server sees is drawn here from the run's `--seed`. Reads
//! come from a few client populations; each has its own recurring sampling
//! seed and draws nodes Zipf-distributed (s = 1) over its own seed-permuted
//! node-id space. Several independent hot sets average out which kinds of
//! node happen to land on the hottest ranks, a cost that would otherwise
//! differ from seed to seed. Ingests wire a never-seen `user` node to
//! Zipf-drawn businesses. The same seed always yields the same stream.

/// SplitMix64: a tiny, fully specified generator, so streams do not depend
/// on any library's random-number implementation.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A seed-permuted copy of `items` (Fisher–Yates).
    pub fn shuffled<T: Clone>(&mut self, items: &[T]) -> Vec<T> {
        let mut out = items.to_vec();
        for i in (1..out.len()).rev() {
            out.swap(i, self.below(i as u64 + 1) as usize);
        }
        out
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty support");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Nodes per read request.
pub const NODES_PER_READ: usize = 8;
/// One read in this many is a `Classify`; the rest are `Embed`.
pub const CLASSIFY_ONE_IN: u64 = 16;
/// Ensemble rounds per `Classify`.
pub const CLASSIFY_ROUNDS: u32 = 2;
/// Client populations per stream, each with one recurring sampling seed.
pub const POPULATIONS: usize = 4;
/// `user-business` edges per ingested user.
pub const EDGES_PER_INGEST: usize = 3;

/// One operation of a stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Embed {
        nodes: Vec<u32>,
        seed: u64,
    },
    Classify {
        nodes: Vec<u32>,
        seed: u64,
        rounds: u32,
    },
    /// A never-seen unlabelled node with typed edges to existing nodes.
    Ingest {
        node_type: u16,
        features: Vec<f32>,
        edges: Vec<(u32, u16)>,
        seed: u64,
    },
}

impl Op {
    pub fn is_ingest(&self) -> bool {
        matches!(self, Op::Ingest { .. })
    }
}

/// What a stream draws from: the served graph's id space and the schema
/// ingests use.
#[derive(Clone, Debug)]
pub struct StreamSpec {
    /// Read keys are drawn from `0..num_nodes`.
    pub num_nodes: u32,
    /// Ingest edge targets.
    pub businesses: Vec<u32>,
    pub user_type: u16,
    pub user_business_edge: u16,
    pub feature_dim: usize,
    /// One op in this many is an `Ingest`; `None` for a read-only stream.
    pub ingest_one_in: Option<u64>,
}

/// An endless seeded op stream; `take(n)` gives the first `n` ops.
pub struct Stream {
    spec: StreamSpec,
    rng: SplitMix64,
    /// Per population: its hot-first node order and its sampling seed.
    populations: Vec<(Vec<u32>, u64)>,
    read_zipf: Zipf,
    business_ids: Vec<u32>,
    business_zipf: Zipf,
}

impl Stream {
    pub fn new(spec: StreamSpec, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5EED_57EA_0000_0001);
        let all: Vec<u32> = (0..spec.num_nodes).collect();
        let populations = (0..POPULATIONS)
            .map(|_| (rng.shuffled(&all), rng.next_u64() >> 16))
            .collect();
        let business_ids = rng.shuffled(&spec.businesses);
        Self {
            read_zipf: Zipf::new(all.len(), 1.0),
            business_zipf: Zipf::new(business_ids.len(), 1.0),
            populations,
            business_ids,
            spec,
            rng,
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.next_op()).collect()
    }

    fn next_op(&mut self) -> Op {
        let (ids, seed) = &self.populations[self.rng.below(POPULATIONS as u64) as usize];
        let seed = *seed;
        if let Some(k) = self.spec.ingest_one_in {
            if self.rng.below(k) == 0 {
                let features = (0..self.spec.feature_dim)
                    .map(|_| (self.rng.next_f64() * 2.0 - 1.0) as f32)
                    .collect();
                let edges = (0..EDGES_PER_INGEST)
                    .map(|_| {
                        let b = self.business_ids[self.business_zipf.sample(&mut self.rng)];
                        (b, self.spec.user_business_edge)
                    })
                    .collect();
                return Op::Ingest {
                    node_type: self.spec.user_type,
                    features,
                    edges,
                    seed,
                };
            }
        }
        let nodes = (0..NODES_PER_READ)
            .map(|_| ids[self.read_zipf.sample(&mut self.rng)])
            .collect();
        if self.rng.below(CLASSIFY_ONE_IN) == 0 {
            Op::Classify {
                nodes,
                seed,
                rounds: CLASSIFY_ROUNDS,
            }
        } else {
            Op::Embed { nodes, seed }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(ingest_one_in: Option<u64>) -> StreamSpec {
        StreamSpec {
            num_nodes: 1000,
            businesses: (0..100).collect(),
            user_type: 1,
            user_business_edge: 0,
            feature_dim: 4,
            ingest_one_in,
        }
    }

    #[test]
    fn same_seed_gives_the_same_stream() {
        let a = Stream::new(spec(Some(20)), 7).take(500);
        let b = Stream::new(spec(Some(20)), 7).take(500);
        let c = Stream::new(spec(Some(20)), 8).take(500);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mix_and_key_skew_match_the_spec() {
        let ops = Stream::new(spec(Some(20)), 3).take(20_000);
        let ingests = ops.iter().filter(|op| op.is_ingest()).count();
        let share = ingests as f64 / ops.len() as f64;
        assert!((share - 0.05).abs() < 0.01, "ingest share {share}");
        let read_only = Stream::new(spec(None), 3).take(2_000);
        assert!(read_only.iter().all(|op| !op.is_ingest()));

        // Zipf(1): a population's hottest key draws about 1/H(1000) ≈ 13 %
        // of its reads; with four populations, about a quarter of that.
        let mut counts = vec![0usize; 1000];
        for op in &ops {
            if let Op::Embed { nodes, .. } | Op::Classify { nodes, .. } = op {
                for &n in nodes {
                    counts[n as usize] += 1;
                }
            }
        }
        let total: usize = counts.iter().sum();
        let top = *counts.iter().max().unwrap() as f64 / total as f64;
        assert!((0.025..0.05).contains(&top), "top-key share {top}");
    }

    #[test]
    fn zipf_sampler_stays_in_range() {
        let z = Zipf::new(3, 1.0);
        let mut rng = SplitMix64::new(1);
        let mut seen = [0usize; 3];
        for _ in 0..3000 {
            seen[z.sample(&mut rng)] += 1;
        }
        assert!(seen[0] > seen[1] && seen[1] > seen[2] && seen[2] > 0);
    }
}
