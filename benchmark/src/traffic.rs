//! Seeded traffic: the generator, the Zipf sampler, node permutations,
//! per-client request streams and the open-loop arrival schedule.
//!
//! Everything here is a pure function of its seed, so one `--seed`
//! always produces the same requests. The generator is the harness's
//! own (not `vendor/rand`), so a change to the program under test
//! cannot change the benchmark's inputs.

use crate::workload::Workload;
use std::sync::Arc;

/// Nodes in the hot set the Zipf workloads draw from.
pub const HOT_SET: usize = 256;
/// Zipf exponent of the hot-set draws.
pub const ZIPF_S: f64 = 1.1;
/// Nodes per request on `cold_batch64` (the default batch bound, so
/// every request is a `Full` flush).
pub const BATCH_NODES: usize = 64;
/// On `open_mixed` every request but each `COLD_EVERY`-th is a hot-set
/// draw. The cold 2% are the top of the latency distribution, so p99 is
/// the median cold request; spacing them evenly (not at random) keeps
/// two cold batches from overlapping, so that request costs one flush
/// deadline plus one batch every time, not now and then two.
pub const COLD_EVERY: u64 = 50;

/// SplitMix64 (Steele, Lea & Flood): small, fast, and good enough to
/// pick nodes and arrival gaps.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
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

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n` ≥ 1). The modulo bias is below 2⁻⁵⁰ for
    /// the corpus sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    perm
}

/// Zipf sampler over ranks `0..n`: rank `r` has weight `(r + 1)^-s`.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += ((rank + 1) as f64).powf(-s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The node sets every stream of one run shares.
#[derive(Debug)]
pub struct Corpus {
    /// A permutation of all nodes, seeded by `--seed`: the cold
    /// workloads walk it.
    perm: Vec<usize>,
    /// The hot set in rank order, then every other node. Seeded by the
    /// *fixture*, not `--seed`: which hot nodes collide in the
    /// direct-mapped fast cache decides `hot_zipf`'s throughput, so a
    /// per-run hot set would measure the draw, not the program.
    hot_then_cold: Vec<usize>,
    zipf: Zipf,
}

impl Corpus {
    pub fn new(num_nodes: usize, fixture_seed: u64, seed: u64) -> Arc<Self> {
        assert!(num_nodes > HOT_SET, "corpus smaller than the hot set");
        Arc::new(Self {
            perm: permutation(num_nodes, seed),
            hot_then_cold: permutation(num_nodes, fixture_seed ^ 0x686F_7473_6574),
            zipf: Zipf::new(HOT_SET, ZIPF_S),
        })
    }

    pub fn hot(&self) -> &[usize] {
        &self.hot_then_cold[..HOT_SET]
    }

    fn cold(&self) -> &[usize] {
        &self.hot_then_cold[HOT_SET..]
    }
}

/// One client's endless request sequence.
#[derive(Debug)]
pub struct Stream {
    corpus: Arc<Corpus>,
    kind: StreamKind,
}

#[derive(Debug)]
enum StreamKind {
    /// Walks windows of the permutation: window `k` is `width`
    /// consecutive entries starting at `k * width`, wrapping. Client
    /// `c` of `clients` takes windows `c, c + clients, ...`.
    Walk {
        next: usize,
        clients: usize,
        width: usize,
    },
    /// Zipf draws over the hot set.
    Hot(Rng),
    /// Zipf draws over the hot set, but every [`COLD_EVERY`]-th request
    /// uniform over the nodes outside it.
    Mixed { rng: Rng, sent: u64 },
}

impl Stream {
    /// The stream client `client` of `clients` sends on `workload`.
    pub fn new(
        workload: Workload,
        corpus: &Arc<Corpus>,
        seed: u64,
        client: usize,
        clients: usize,
    ) -> Self {
        let rng = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        let walk = |width| StreamKind::Walk {
            next: client,
            clients,
            width,
        };
        let kind = match workload {
            Workload::ColdSingle => walk(1),
            Workload::ColdBatch64 => walk(BATCH_NODES),
            Workload::HotZipf | Workload::DeployChurn => StreamKind::Hot(rng),
            Workload::OpenMixed => StreamKind::Mixed { rng, sent: 0 },
        };
        Self {
            corpus: Arc::clone(corpus),
            kind,
        }
    }

    /// The next request's nodes.
    pub fn next_request(&mut self) -> Vec<usize> {
        let corpus = &self.corpus;
        match &mut self.kind {
            StreamKind::Walk {
                next,
                clients,
                width,
            } => {
                let n = corpus.perm.len();
                let start = *next * *width;
                *next += *clients;
                (0..*width).map(|i| corpus.perm[(start + i) % n]).collect()
            }
            StreamKind::Hot(rng) => vec![corpus.hot()[corpus.zipf.sample(rng)]],
            StreamKind::Mixed { rng, sent } => {
                *sent += 1;
                if *sent % COLD_EVERY == 0 {
                    vec![corpus.cold()[rng.below(corpus.cold().len())]]
                } else {
                    vec![corpus.hot()[corpus.zipf.sample(rng)]]
                }
            }
        }
    }
}

/// Intended send offsets (ns from segment start) of a Poisson arrival
/// process at `rate` per second, covering `seconds`.
pub fn arrival_offsets_ns(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0x6172_7269_7661_6C73);
    let mut offsets = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut at = 0.0;
    loop {
        // Inverse-CDF exponential gap; 1 - u is in (0, 1], so ln is finite.
        at += -(1.0 - rng.next_f64()).ln() / rate;
        if at >= seconds {
            return offsets;
        }
        offsets.push((at * 1e9) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_permutation_and_repeats_per_seed() {
        let a = permutation(1000, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
        assert_eq!(a, permutation(1000, 7));
        assert_ne!(a, permutation(1000, 8));
    }

    #[test]
    fn zipf_is_deterministic_skewed_and_in_range() {
        let zipf = Zipf::new(HOT_SET, ZIPF_S);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..20_000)
                .map(|_| zipf.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        assert!(a.iter().all(|&r| r < HOT_SET));
        let count = |rank| a.iter().filter(|&&r| r == rank).count();
        // Weight ratio rank0 : rank1 is 2^1.1 ≈ 2.14.
        let ratio = count(0) as f64 / count(1) as f64;
        assert!((1.8..2.5).contains(&ratio), "rank0/rank1 = {ratio}");
        assert!(count(0) > 10 * count(100).max(1));
    }

    #[test]
    fn schedule_is_deterministic_ordered_and_at_rate() {
        let a = arrival_offsets_ns(5, 150.0, 20.0);
        assert_eq!(a, arrival_offsets_ns(5, 150.0, 20.0));
        assert_ne!(a, arrival_offsets_ns(6, 150.0, 20.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 20_000_000_000);
        // 3000 expected arrivals, σ ≈ 55.
        assert!((2700..3300).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn streams_repeat_per_seed_and_clients_split_the_walk() {
        let corpus = Corpus::new(1000, 11, 9);
        for workload in Workload::ALL {
            let take = |seed, client| {
                let mut s = Stream::new(workload, &corpus, seed, client, 2);
                (0..50).map(|_| s.next_request()).collect::<Vec<_>>()
            };
            assert_eq!(take(1, 0), take(1, 0), "{workload:?}");
            assert_ne!(take(1, 0), take(1, 1), "{workload:?}");
        }
        let mut c0 = Stream::new(Workload::ColdSingle, &corpus, 1, 0, 2);
        let mut c1 = Stream::new(Workload::ColdSingle, &corpus, 1, 1, 2);
        let walked: Vec<usize> = (0..4)
            .flat_map(|_| [c0.next_request()[0], c1.next_request()[0]])
            .collect();
        assert_eq!(walked, corpus.perm[..8]);
        let mut batch = Stream::new(Workload::ColdBatch64, &corpus, 1, 1, 2);
        assert_eq!(batch.next_request(), corpus.perm[64..128]);
    }

    #[test]
    fn the_hot_set_ignores_the_traffic_seed() {
        let a = Corpus::new(1000, 11, 1);
        let b = Corpus::new(1000, 11, 2);
        assert_eq!(a.hot(), b.hot());
        assert_ne!(a.perm, b.perm);
        let mut mixed = Stream::new(Workload::OpenMixed, &a, 1, 0, 1);
        for sent in 1..=500 {
            let cold = !a.hot().contains(&mixed.next_request()[0]);
            assert_eq!(cold, sent % COLD_EVERY == 0, "request {sent}");
        }
    }
}
