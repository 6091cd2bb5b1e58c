//! Baseline simulation: trace generation plus `simulate` for the 8
//! timing benchmarks, each under `NoPrefetcher`, `Stms`, `Domino`,
//! `Isb` and `BestOffset` at degree 2. No model runs here.

use std::time::Instant;

use voyager_prefetch::{BestOffset, Domino, Isb, NoPrefetcher, Prefetcher, Stms};
use voyager_sim::{simulate, SimConfig, SimOutcome};
use voyager_trace::gen::{Benchmark, GeneratorConfig};

use crate::stats::geomean;
use crate::tracer::{Tracer, ROOT};
use crate::Checks;

/// Prefetch degree of every baseline.
pub const DEGREE: usize = 2;

/// The timing benchmarks simulated (every SPEC/GAP generator except
/// astar, whose LLC stream is a few hundred accesses per 100 K loads).
pub const BENCHMARKS: [Benchmark; 8] = [
    Benchmark::Bfs,
    Benchmark::Cc,
    Benchmark::Mcf,
    Benchmark::Omnetpp,
    Benchmark::Pr,
    Benchmark::Soplex,
    Benchmark::Sphinx,
    Benchmark::Xalancbmk,
];

/// Metric names of the prefetchers, no-prefetch baseline first.
pub const PREFETCHERS: [&str; 5] = ["none", "stms", "domino", "isb", "bo"];

fn prefetcher(name: &str) -> Box<dyn Prefetcher> {
    let mut p: Box<dyn Prefetcher> = match name {
        "none" => Box::new(NoPrefetcher::new()),
        "stms" => Box::new(Stms::new()),
        "domino" => Box::new(Domino::new()),
        "isb" => Box::new(Isb::new()),
        "bo" => Box::new(BestOffset::new()),
        other => unreachable!("unknown prefetcher {other}"),
    };
    p.set_degree(DEGREE);
    p
}

/// Totals over every benchmark for one prefetcher.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefetcherTotals {
    /// Prefetches issued.
    pub issued: u64,
    /// Prefetches that served a demand.
    pub useful: u64,
    /// Useful prefetches still in flight at first use.
    pub late: u64,
    /// MSHR-full stalls.
    pub mshr_stalls: u64,
    /// ROB-window stalls.
    pub rob_stalls: u64,
}

/// What one pass over the benchmarks produced.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Simulated accesses (trace length × prefetchers, summed).
    pub accesses: u64,
    /// Wall seconds, generation included.
    pub wall_s: f64,
    /// Geometric mean IPC speedup of the 4 baselines over no-prefetch.
    pub ipc_speedup: f64,
    /// Per-prefetcher totals, in [`PREFETCHERS`] order.
    pub totals: [PrefetcherTotals; 5],
    /// Raw accesses per benchmark trace.
    pub trace_len: usize,
    /// Id of the pass's root span (when traced).
    pub span: u32,
    /// Output checks.
    pub checks: Checks,
}

/// Generates each benchmark's trace from `seed` and simulates it under
/// every prefetcher.
pub fn run(seed: u64, accesses: usize, tracer: &Tracer) -> SimResult {
    let cfg = SimConfig::scaled();
    let gen = GeneratorConfig::small()
        .with_accesses(accesses)
        .with_seed(seed);
    let root = tracer.span("sim.loop", ROOT, None);
    let started = Instant::now();
    let mut out = SimResult {
        accesses: 0,
        wall_s: 0.0,
        ipc_speedup: 0.0,
        totals: [PrefetcherTotals::default(); 5],
        trace_len: accesses,
        span: root.id(),
        checks: Checks::default(),
    };
    let mut speedups = Vec::new();
    for bench in BENCHMARKS {
        let trace = {
            let _s = tracer.span(format!("trace.gen.{}", bench.name()), root.id(), None);
            bench.generate(&gen)
        };
        let outcomes: Vec<SimOutcome> = PREFETCHERS
            .iter()
            .map(|&name| {
                let _s = tracer.span(format!("sim.{name}"), root.id(), None);
                simulate(&trace, prefetcher(name).as_mut(), &cfg)
            })
            .collect();
        let base = outcomes[0];
        for (i, o) in outcomes.iter().enumerate() {
            out.accesses += trace.len() as u64;
            out.checks.expect(
                o.ipc.is_finite()
                    && o.ipc > 0.0
                    && o.useful_prefetches <= o.issued_prefetches
                    && o.llc_accesses == base.llc_accesses,
                "simulation gave a non-finite IPC, more useful than issued prefetches, \
                 or LLC accesses that depend on the prefetcher",
            );
            let t = &mut out.totals[i];
            t.issued += o.issued_prefetches;
            t.useful += o.useful_prefetches;
            t.late += o.late_prefetch_hits;
            t.mshr_stalls += o.mshr_stalls;
            t.rob_stalls += o.rob_stalls;
            if i > 0 {
                speedups.push(o.speedup_vs(&base));
            }
        }
    }
    out.ipc_speedup = geomean(&speedups);
    out.wall_s = started.elapsed().as_secs_f64();
    out
}
