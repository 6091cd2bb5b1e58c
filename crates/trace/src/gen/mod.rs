//! Synthetic workload generators for the 11 benchmarks of Table 2.
//!
//! Each generator *executes* the data-structure walk that dominates the
//! corresponding benchmark's misses and records the load stream. The GAP
//! kernels (`bfs`, `cc`, `pr`) run the real algorithms on a random CSR
//! graph; the SPEC-like and OLTP-like generators reproduce the access
//! mechanisms the paper describes (pointer chasing, event heaps, the
//! Fig. 16 simplex pattern, request processing with Zipf key popularity).

mod graph;
mod oltp;
mod spec;
mod zipf;

use crate::rng::{SeedableRng, StdRng};

use crate::Trace;

pub use graph::CsrGraph;
pub use util::mix64;
pub use zipf::{zipf_trace, ZipfSampler};

/// Parameters shared by all generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratorConfig {
    /// Approximate number of memory accesses to generate. Generators may
    /// overshoot slightly while finishing an algorithmic step; traces
    /// are truncated to exactly this length.
    pub accesses: usize,
    /// RNG seed so traces are reproducible.
    pub seed: u64,
}

impl GeneratorConfig {
    /// A tiny configuration for unit tests (~8K accesses).
    pub fn small() -> Self {
        GeneratorConfig {
            accesses: 8_000,
            seed: 0xA5_0001,
        }
    }

    /// A medium configuration for quick experiments (~60K accesses).
    pub fn medium() -> Self {
        GeneratorConfig {
            accesses: 60_000,
            seed: 0xA5_0001,
        }
    }

    /// The default experiment configuration (~200K accesses).
    pub fn full() -> Self {
        GeneratorConfig {
            accesses: 200_000,
            seed: 0xA5_0001,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different access budget.
    pub fn with_accesses(mut self, accesses: usize) -> Self {
        self.accesses = accesses;
        self
    }
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig::full()
    }
}

/// The benchmarks evaluated in the paper (Table 2).
///
/// # Example
///
/// ```
/// use voyager_trace::gen::{Benchmark, GeneratorConfig};
///
/// let trace = Benchmark::Pr.generate(&GeneratorConfig::small());
/// assert_eq!(trace.name(), "pr");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// SPEC 2006 `astar`: grid path-finding with an open-list heap.
    Astar,
    /// GAP breadth-first search on a CSR graph.
    Bfs,
    /// GAP connected components (label propagation) on a CSR graph.
    Cc,
    /// SPEC 2006 `mcf`: network-simplex pointer chasing with a growing
    /// arena (large footprint, many compulsory misses).
    Mcf,
    /// SPEC 2006 `omnetpp`: discrete-event simulation with a binary-heap
    /// event queue.
    Omnetpp,
    /// GAP PageRank on a CSR graph (the Fig. 13/14 example).
    Pr,
    /// SPEC 2006 `soplex`: simplex pivoting with the branch-dependent
    /// `upd/ub/lb/vec` pattern of Fig. 16.
    Soplex,
    /// SPEC 2006 `sphinx3`: acoustic-model scoring (streaming) plus
    /// dictionary lookups.
    Sphinx,
    /// SPEC 2006 `xalancbmk`: XML DOM tree traversals.
    Xalancbmk,
    /// Google `search`-like OLTP request processing (unified metric
    /// only, as in the paper).
    Search,
    /// Google `ads`-like OLTP request processing (unified metric only).
    Ads,
}

impl Benchmark {
    /// All 11 benchmarks in Table 2 order.
    pub fn all() -> [Benchmark; 11] {
        use Benchmark::*;
        [
            Astar, Bfs, Cc, Mcf, Omnetpp, Pr, Soplex, Sphinx, Xalancbmk, Search, Ads,
        ]
    }

    /// The nine SPEC/GAP benchmarks that run through the IPC simulator
    /// (the Google workloads carry no timing information).
    pub fn spec_gap() -> [Benchmark; 9] {
        use Benchmark::*;
        [Astar, Bfs, Cc, Mcf, Omnetpp, Pr, Soplex, Sphinx, Xalancbmk]
    }

    /// Lower-case benchmark name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Astar => "astar",
            Benchmark::Bfs => "bfs",
            Benchmark::Cc => "cc",
            Benchmark::Mcf => "mcf",
            Benchmark::Omnetpp => "omnetpp",
            Benchmark::Pr => "pr",
            Benchmark::Soplex => "soplex",
            Benchmark::Sphinx => "sphinx",
            Benchmark::Xalancbmk => "xalancbmk",
            Benchmark::Search => "search",
            Benchmark::Ads => "ads",
        }
    }

    /// Whether the trace carries timing (bubble) information suitable
    /// for IPC simulation. `false` for the Google-like traces, which —
    /// as in the paper — only support the unified accuracy/coverage
    /// metric.
    pub fn has_timing(&self) -> bool {
        !matches!(self, Benchmark::Search | Benchmark::Ads)
    }

    /// Generates the trace for this benchmark.
    pub fn generate(&self, cfg: &GeneratorConfig) -> Trace {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (*self as u64).wrapping_mul(0x9E37_79B9));
        let mut trace = match self {
            Benchmark::Astar => spec::astar(cfg, &mut rng),
            Benchmark::Bfs => graph::bfs(cfg, &mut rng),
            Benchmark::Cc => graph::cc(cfg, &mut rng),
            Benchmark::Mcf => spec::mcf(cfg, &mut rng),
            Benchmark::Omnetpp => spec::omnetpp(cfg, &mut rng),
            Benchmark::Pr => graph::pr(cfg, &mut rng),
            Benchmark::Soplex => spec::soplex(cfg, &mut rng),
            Benchmark::Sphinx => spec::sphinx(cfg, &mut rng),
            Benchmark::Xalancbmk => spec::xalancbmk(cfg, &mut rng),
            Benchmark::Search => oltp::search(cfg, &mut rng),
            Benchmark::Ads => oltp::ads(cfg, &mut rng),
        };
        trace.truncate(cfg.accesses);
        trace
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Benchmark {
    type Err = ParseBenchmarkError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Benchmark::all()
            .into_iter()
            .find(|b| b.name() == s)
            .ok_or_else(|| ParseBenchmarkError {
                name: s.to_string(),
            })
    }
}

/// Error returned when parsing an unknown benchmark name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBenchmarkError {
    name: String,
}

impl std::fmt::Display for ParseBenchmarkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown benchmark name: {:?}", self.name)
    }
}

impl std::error::Error for ParseBenchmarkError {}

/// Helpers shared by the generator modules.
pub(crate) mod util {
    use crate::rng::Rng;

    use crate::{MemoryAccess, Trace};

    /// Distinct, non-overlapping data regions. Each region spans 4 GiB of
    /// virtual address space so pages never collide across arrays.
    pub(crate) fn region(index: u64) -> u64 {
        0x10_0000_0000 + index * 0x1_0000_0000
    }

    /// Code region for load PCs. Sites within a loop body are placed in
    /// the same 64-byte block so that `pc >> 6` recovers basic blocks.
    pub(crate) fn code(block: u64, slot: u64) -> u64 {
        debug_assert!(slot < 8, "at most 8 load sites per basic block");
        0x40_0000 + block * 64 + slot * 8
    }

    /// Trace under construction.
    #[derive(Debug)]
    pub(crate) struct TraceBuilder {
        trace: Trace,
        target: usize,
    }

    impl TraceBuilder {
        /// Starts an empty trace named `name` aiming for `target`
        /// accesses.
        pub(crate) fn new(name: &str, target: usize) -> Self {
            TraceBuilder {
                trace: Trace::new(name),
                target,
            }
        }

        /// Records a load of `addr` at `pc` preceded by `bubble`
        /// non-memory instructions.
        pub(crate) fn load(&mut self, pc: u64, addr: u64, bubble: u8) {
            self.trace.push(MemoryAccess { pc, addr, bubble });
        }

        /// True once the access budget (plus slack for the current
        /// algorithmic step) is met.
        pub(crate) fn done(&self) -> bool {
            self.trace.len() >= self.target
        }

        /// Consumes the builder, yielding the finished trace.
        pub(crate) fn finish(self) -> Trace {
            self.trace
        }
    }

    /// Samples from a Zipf-like distribution over `0..n` with exponent
    /// `s` using rejection-free inverse-CDF approximation.
    #[derive(Debug, Clone)]
    pub(crate) struct Zipf {
        cdf: Vec<f64>,
    }

    impl Zipf {
        /// Builds the distribution table.
        ///
        /// # Panics
        ///
        /// Panics if `n == 0`.
        pub(crate) fn new(n: usize, s: f64) -> Self {
            assert!(n > 0, "zipf over empty support");
            let mut cdf = Vec::with_capacity(n);
            let mut total = 0.0;
            for k in 1..=n {
                total += 1.0 / (k as f64).powf(s);
                cdf.push(total);
            }
            for v in &mut cdf {
                *v /= total;
            }
            Zipf { cdf }
        }

        /// Draws one sample in `0..n`.
        pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> usize {
            let u: f64 = rng.gen();
            match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
                Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
            }
        }
    }

    /// Deterministic 64-bit hash (the splitmix64 finalizer, a bijection
    /// on `u64`). The generators use it to spread logical entities over
    /// PC pools and hash buckets; `voyager-prefetch` keys it to hash
    /// its tables.
    pub fn mix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Models a benchmark's *cold code footprint*: the hundreds or
    /// thousands of static load sites (initialisation, bookkeeping,
    /// rarely-taken paths) that account for most of a program's unique
    /// PCs (Table 2) while its cache misses concentrate in a handful of
    /// hot loads. Sweeps load from a large PC pool into a tiny hot data
    /// region, so they register in the PC statistics but are filtered
    /// by the L1 after warm-up and barely perturb the LLC stream.
    #[derive(Debug)]
    pub(crate) struct ColdCode {
        region: u64,
        base_block: u64,
        blocks: u64,
        counter: u64,
    }

    impl ColdCode {
        /// Creates a cold-code pool of roughly `blocks * 8` static load
        /// sites starting at `base_block`, touching data region
        /// `region_index`.
        pub(crate) fn new(region_index: u64, base_block: u64, blocks: u64) -> Self {
            ColdCode {
                region: region(region_index),
                base_block,
                blocks,
                counter: 0,
            }
        }

        /// Emits one sweep of `loads` bookkeeping loads. All loads hit
        /// the same two cache lines (globals/flags re-read on every
        /// path), so after the very first sweep they are L1-resident
        /// and never reach the LLC — they add PCs, not misses.
        pub(crate) fn sweep(&mut self, b: &mut TraceBuilder, loads: u64) {
            for i in 0..loads {
                let salt = self.counter.wrapping_mul(131).wrapping_add(i * 7);
                let pc = code(self.base_block + mix64(salt) % self.blocks, salt % 8);
                b.load(pc, self.region + (i % 2) * 64, 1);
            }
            self.counter += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;
    use std::str::FromStr;

    #[test]
    fn every_benchmark_generates_nonempty_deterministic_traces() {
        let cfg = GeneratorConfig::small();
        for b in Benchmark::all() {
            let t1 = b.generate(&cfg);
            let t2 = b.generate(&cfg);
            assert_eq!(t1.len(), cfg.accesses, "{b}: wrong length");
            assert_eq!(t1, t2, "{b}: not deterministic");
            assert_eq!(t1.name(), b.name());
        }
    }

    #[test]
    fn different_seeds_give_different_traces() {
        let a = Benchmark::Bfs.generate(&GeneratorConfig::small());
        let b = Benchmark::Bfs.generate(&GeneratorConfig::small().with_seed(99));
        assert_ne!(a, b);
    }

    #[test]
    fn parse_roundtrip() {
        for b in Benchmark::all() {
            assert_eq!(Benchmark::from_str(b.name()).unwrap(), b);
        }
        assert!(Benchmark::from_str("nope").is_err());
        let err = Benchmark::from_str("nope").unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn google_traces_have_no_timing() {
        assert!(!Benchmark::Search.has_timing());
        assert!(!Benchmark::Ads.has_timing());
        assert!(Benchmark::Mcf.has_timing());
    }

    #[test]
    fn pc_count_ordering_roughly_matches_table2() {
        // Table 2: mcf and astar have the fewest PCs; search and ads by
        // far the most.
        let cfg = GeneratorConfig::medium();
        let pcs = |b: Benchmark| TraceStats::of(&b.generate(&cfg)).unique_pcs;
        let mcf = pcs(Benchmark::Mcf);
        let astar = pcs(Benchmark::Astar);
        let search = pcs(Benchmark::Search);
        let ads = pcs(Benchmark::Ads);
        assert!(mcf < 600, "mcf PCs {mcf}");
        assert!(astar < 600, "astar PCs {astar}");
        assert!(search > 1_500, "search PCs {search}");
        assert!(ads > search, "ads {ads} <= search {search}");
    }

    #[test]
    fn mcf_has_largest_footprint_of_spec_gap() {
        let cfg = GeneratorConfig::medium();
        let pages = |b: Benchmark| TraceStats::of(&b.generate(&cfg)).unique_pages;
        let mcf = pages(Benchmark::Mcf);
        for b in [
            Benchmark::Bfs,
            Benchmark::Cc,
            Benchmark::Pr,
            Benchmark::Sphinx,
        ] {
            assert!(mcf > pages(b), "mcf {mcf} <= {b}");
        }
    }

    #[test]
    fn zipf_prefers_small_indices() {
        use crate::rng::{SeedableRng, StdRng};
        let z = util::Zipf::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut low = 0;
        for _ in 0..1000 {
            if z.sample(&mut rng) < 10 {
                low += 1;
            }
        }
        assert!(low > 300, "zipf not skewed: {low}/1000 in top 10");
    }

    #[test]
    fn cold_code_adds_pcs_without_data_footprint() {
        let mut b = util::TraceBuilder::new("t", 10_000);
        let mut cold = util::ColdCode::new(9, 100, 50);
        for _ in 0..40 {
            cold.sweep(&mut b, 48);
        }
        let trace = b.finish();
        let stats = crate::stats::TraceStats::of(&trace);
        assert!(
            stats.unique_pcs > 150,
            "cold pool under-covered: {}",
            stats.unique_pcs
        );
        assert!(
            stats.unique_addresses <= 2,
            "cold data must stay tiny: {}",
            stats.unique_addresses
        );
    }

    #[test]
    fn code_layout_groups_basic_blocks() {
        let a = util::code(3, 0);
        let b = util::code(3, 7);
        let c = util::code(4, 0);
        assert_eq!(a >> 6, b >> 6);
        assert_ne!(a >> 6, c >> 6);
    }
}
